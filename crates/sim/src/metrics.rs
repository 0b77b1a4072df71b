//! Simulation metrics: counters, histograms and summary statistics.
//!
//! The paper's experiments report the *average number of rounds per request*
//! (Figures 2–4); the analysis section additionally talks about batch sizes
//! (Theorem 18) and message sizes.  [`SimMetrics`] collects the
//! substrate-level part (messages, rounds, channel occupancy); protocol-level
//! quantities (request latencies, batch lengths) are recorded by the layers
//! above using the same [`Histogram`] type.

/// A simple fixed-precision histogram over `u64` samples.
///
/// Samples are kept exactly (sum, min, max, count) plus a bucketed
/// distribution with power-of-two bucket boundaries, which is accurate enough
/// for round counts and batch lengths while staying O(64) in memory.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// `buckets[i]` counts samples with `floor(log2(sample)) == i - 1`;
    /// `buckets[0]` counts zeros.  Only as long as the highest bucket seen
    /// so far (at most 65 entries): an empty histogram owns no storage.
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Equality of the recorded samples; how much bucket storage either side
/// happens to hold (trailing empty buckets) does not matter.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        let used = |h: &Histogram| h.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets[..used(self)] == other.buckets[..used(other)]
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Records one sample.
    pub(crate) fn record(&mut self, sample: u64) {
        self.record_n(sample, 1);
    }

    /// Records `n` identical samples.
    pub(crate) fn record_n(&mut self, sample: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += sample as u128 * n as u128;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        let bucket = if sample == 0 {
            0
        } else {
            (64 - sample.leading_zeros()) as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += n;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Resets the histogram to its empty state, keeping the bucket storage
    /// (used by the lane merge, which rebuilds aggregate histograms from the
    /// per-lane ones every round without reallocating).
    pub(crate) fn clear(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
        for b in &mut self.buckets {
            *b = 0;
        }
    }

    /// Merges another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
    }
}

/// Substrate-level metrics collected by [`crate::Simulation`].
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Total messages handed to the simulation.
    pub messages_sent: u64,
    /// Total messages delivered to actors.
    pub messages_delivered: u64,
    /// Total `on_timeout` invocations actually executed.  Nodes whose actor
    /// declared the timeout a no-op (`Actor::wants_timeout() == false`) are
    /// skipped and not counted.
    pub timeouts_fired: u64,
    /// Total node visits by the round loop (woken nodes: deliverable
    /// messages or timeout interest).  `rounds × nodes − nodes_visited`
    /// is the work the wake flags saved.
    pub nodes_visited: u64,
    /// Number of completed rounds.
    pub rounds: u64,
    /// Distribution of per-message delays (in rounds).
    pub delays: Histogram,
    /// Distribution of per-round delivered-message counts.
    pub per_round_deliveries: Histogram,
    /// Distribution of per-round *sent*-message counts.  Together with
    /// [`Self::per_round_deliveries`] this makes message-coalescing effects
    /// (e.g. the protocol layer batching many payload ops into one message)
    /// directly observable at the substrate level.
    pub per_round_sends: Histogram,
    /// Cumulative wall time each lane spent executing its rounds, in
    /// nanoseconds (index = lane).  A single-lane simulation reports one
    /// entry; lane imbalance shows up as a spread across entries.
    pub lane_busy_ns: Vec<u64>,
    /// Cumulative time each lane's result sat waiting at the round barrier
    /// for the slowest lane, in nanoseconds (index = lane).  Only the
    /// parallel backend accumulates this; it is the direct cost of lane
    /// imbalance.
    pub lane_barrier_wait_ns: Vec<u64>,
    /// Process-unique token of the OS thread that most recently executed
    /// each lane (index = lane; see `crate::exec::thread_token`).  Lets
    /// tests and CI assert that the parallel backend really spread lanes
    /// over distinct threads.
    pub lane_thread_tokens: Vec<u64>,
}

impl SimMetrics {
    /// Creates an empty metrics container.
    pub(crate) fn new() -> Self {
        SimMetrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
    }

    /// `Default` used to be derived (`min = 0`), so the minimum of every
    /// histogram that started life inside a `..Default::default()` struct
    /// read 0 whatever was recorded.
    #[test]
    fn default_is_new_and_keeps_the_true_minimum() {
        let mut h = Histogram::default();
        assert_eq!(h, Histogram::new());
        h.record(7);
        h.record(9);
        let mut merged = Histogram::default();
        merged.merge(&h);
        assert_eq!(merged, h, "a minimum that started at 0 would differ");
    }

    #[test]
    fn equality_ignores_bucket_storage_length() {
        let mut small = Histogram::new();
        small.record(3);
        // Same samples, but storage grown (and emptied again) up to the
        // bucket of a large sample.
        let mut grown = Histogram::new();
        grown.record(1 << 40);
        grown.clear();
        grown.record(3);
        assert_eq!(small, grown);
        assert_eq!(grown, small);
        assert_eq!(Histogram::new(), {
            let mut h = Histogram::new();
            h.record(5);
            h.clear();
            h
        });
        grown.record(1 << 40);
        assert_ne!(small, grown);
    }

    #[test]
    fn basic_statistics() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 15);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.max(), Some(5));
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..7 {
            a.record(13);
        }
        b.record_n(13, 7);
        assert_eq!(a, b);
        b.record_n(13, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(10);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(100));
        assert_eq!(a.sum(), 111);
    }

    #[test]
    fn zero_samples_land_in_zero_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(0));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(5);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }
}
