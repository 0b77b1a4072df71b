//! Simulation metrics: counters, histograms and summary statistics.
//!
//! The paper's experiments report the *average number of rounds per request*
//! (Figures 2–4); the analysis section additionally talks about batch sizes
//! (Theorem 18) and message sizes.  [`SimMetrics`] collects the
//! substrate-level part (messages, rounds, channel occupancy); protocol-level
//! quantities (request latencies, batch lengths) are recorded by the layers
//! above using the same [`Histogram`] type.

/// Count, sum and maximum of a series of `u64` samples — what a run reads of
/// a distribution (a mean, a total, a worst case).  Plain numbers: an empty
/// one owns no heap and merging is three additions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Records one sample.
    pub(crate) fn record(&mut self, sample: u64) {
        self.count += 1;
        self.sum += sample as u128;
        self.max = self.max.max(sample);
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

    /// Merges another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
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
    /// Cumulative wall time each lane spent executing its rounds, in
    /// nanoseconds (index = lane).  A single-lane simulation reports one
    /// entry; lane imbalance shows up as a spread across entries.
    pub lane_busy_ns: Vec<u64>,
    /// Cumulative time each lane's thread sat idle at the round barrier, in
    /// nanoseconds (index = lane): per round, a thread's idle time (round
    /// wall time less the busy time of the lanes it ran) split evenly over
    /// those lanes, so the sum is idle thread-time.  Only rounds on more
    /// than one thread accumulate this; it is the direct cost of lane
    /// imbalance.
    pub lane_barrier_wait_ns: Vec<u64>,
    /// Process-unique token of the OS thread that most recently executed
    /// each lane (index = lane).  Lets tests and CI check which thread ran
    /// each lane: lane `l` on thread `l % T` of the round, thread 0 being
    /// the caller's.
    pub lane_thread_tokens: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn count_sum_mean_and_max_of_what_was_recorded() {
        let mut h = Histogram::default();
        for v in [1u64, 5, 3, 4, 2] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 15);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.max(), Some(5));
    }

    /// A maximum of zero is a sample, not "empty", and the sum does not wrap
    /// where a `u64` would.
    #[test]
    fn zero_and_huge_samples() {
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.max(), Some(0));
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), 2 * u64::MAX as u128);
        assert_eq!(h.max(), Some(u64::MAX));
    }

    /// Merging is recording the other side's samples: equal to one histogram
    /// that saw them all, in either direction, and the empty one is neutral.
    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (left, right) = ([1u64, 10], [100u64, 7, 0]);
        let of = |samples: &[u64]| {
            let mut h = Histogram::default();
            samples.iter().for_each(|&s| h.record(s));
            h
        };
        let all = of(&[1, 10, 100, 7, 0]);
        let mut a = of(&left);
        a.merge(&of(&right));
        assert_eq!(a, all);
        let mut b = of(&right);
        b.merge(&of(&left));
        assert_eq!(b, all);
        a.merge(&Histogram::default());
        assert_eq!(a, all);
        assert_ne!(of(&left), of(&right));
    }
}
