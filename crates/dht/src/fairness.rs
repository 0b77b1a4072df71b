//! Load-fairness accounting.
//!
//! Lemma 4 / Corollary 19 of the paper: consistent hashing is *fair* — every
//! node stores the same number of elements in expectation, so Skueue spreads
//! its data evenly.  Experiment E7 measures this by taking the per-node
//! element counts at the end of an enqueue-heavy run and summarising their
//! distribution with [`load_stats`].

/// Summary of how evenly a load (e.g. stored elements) is spread over nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Number of nodes considered.
    pub nodes: usize,
    /// Total load.
    pub total: u64,
    /// Mean load per node.
    pub mean: f64,
    /// Minimum load of any node.
    pub min: u64,
    /// Maximum load of any node.
    pub max: u64,
    /// Population standard deviation of the per-node load.
    pub stddev: f64,
    /// `max / mean` — the headline imbalance factor (1.0 is perfect).
    pub max_over_mean: f64,
    /// Coefficient of variation (`stddev / mean`).
    pub cv: f64,
}

/// Computes load statistics from per-node counts.
///
/// Returns `None` for an empty slice.
pub fn load_stats(counts: &[u64]) -> Option<LoadStats> {
    if counts.is_empty() {
        return None;
    }
    let nodes = counts.len();
    let total: u64 = counts.iter().sum();
    let mean = total as f64 / nodes as f64;
    let min = *counts.iter().min().expect("non-empty");
    let max = *counts.iter().max().expect("non-empty");
    let variance = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / nodes as f64;
    let stddev = variance.sqrt();
    let max_over_mean = if mean > 0.0 { max as f64 / mean } else { 0.0 };
    let cv = if mean > 0.0 { stddev / mean } else { 0.0 };
    Some(LoadStats {
        nodes,
        total,
        mean,
        min,
        max,
        stddev,
        max_over_mean,
        cv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input_gives_none() {
        assert!(load_stats(&[]).is_none());
    }

    #[test]
    fn uniform_load_is_perfectly_fair() {
        let stats = load_stats(&[5, 5, 5, 5]).unwrap();
        assert_eq!(stats.total, 20);
        assert_eq!(stats.mean, 5.0);
        assert_eq!(stats.min, 5);
        assert_eq!(stats.max, 5);
        assert_eq!(stats.stddev, 0.0);
        assert_eq!(stats.max_over_mean, 1.0);
        assert_eq!(stats.cv, 0.0);
    }

    #[test]
    fn skewed_load_is_detected() {
        let stats = load_stats(&[0, 0, 0, 100]).unwrap();
        assert_eq!(stats.mean, 25.0);
        assert_eq!(stats.max_over_mean, 4.0);
        assert!(stats.cv > 1.0);
    }

    #[test]
    fn all_zero_load() {
        let stats = load_stats(&[0, 0, 0]).unwrap();
        assert_eq!(stats.total, 0);
        assert_eq!(stats.max_over_mean, 0.0);
        assert_eq!(stats.cv, 0.0);
    }

    #[test]
    fn consistent_hashing_balances_random_keys() {
        // Simulate hashing 50k keys onto 100 nodes via a multiplicative hash;
        // the imbalance factor should stay modest (this is the behaviour
        // Lemma 4 formalises).
        let nodes = 100usize;
        let mut counts = vec![0u64; nodes];
        let mut x = 0x12345678u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            counts[(x >> 32) as usize % nodes] += 1;
        }
        let stats = load_stats(&counts).unwrap();
        assert!(
            stats.max_over_mean < 1.5,
            "imbalance {:.2}",
            stats.max_over_mean
        );
        assert!(stats.cv < 0.2, "cv {:.3}", stats.cv);
    }

    proptest! {
        #[test]
        fn prop_bounds_are_consistent(counts in proptest::collection::vec(0u64..10_000, 1..200)) {
            let stats = load_stats(&counts).unwrap();
            prop_assert!(stats.min <= stats.max);
            prop_assert!(stats.mean >= stats.min as f64 - 1e-9);
            prop_assert!(stats.mean <= stats.max as f64 + 1e-9);
            prop_assert_eq!(stats.total, counts.iter().sum::<u64>());
            prop_assert!(stats.stddev >= 0.0);
            if stats.mean > 0.0 {
                prop_assert!(stats.max_over_mean >= 1.0 - 1e-9);
            }
        }
    }
}
