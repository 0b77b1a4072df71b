//! Request generators matching the paper's evaluation setup.
//!
//! Generators drive the cluster through per-process
//! [`ClientHandle`](skueue_core::ClientHandle)s — the same request path an
//! application would use — and discard the returned tickets (the scenario
//! layer reads results through the cluster's completion stream).

use skueue_core::{ClusterError, Payload, SkueueCluster};
use skueue_sim::SimRng;

/// Fixed-rate generator (Figures 2 and 3): `requests_per_round` requests per
/// round, assigned to uniformly random processes; each request is an insert
/// with probability `insert_ratio`.
#[derive(Debug, Clone)]
pub(crate) struct FixedRateGenerator {
    /// Requests generated per round.
    requests_per_round: u64,
    /// Probability that a generated request is an insert.
    insert_ratio: f64,
    /// Rounds during which requests are generated.
    generation_rounds: u64,
    rng: SimRng,
    value_counter: u64,
}

impl FixedRateGenerator {
    /// Creates a generator.
    pub(crate) fn new(
        requests_per_round: u64,
        insert_ratio: f64,
        generation_rounds: u64,
        seed: u64,
    ) -> Self {
        FixedRateGenerator {
            requests_per_round,
            insert_ratio,
            generation_rounds,
            rng: SimRng::new(seed),
            value_counter: 0,
        }
    }

    /// Generates this round's requests into the cluster (no-op once the
    /// generation window is over). Returns the number of requests issued.
    ///
    /// `mk` maps the generator's monotone value counter to the payload of
    /// each insert, so the same schedule (same RNG draws, same targets)
    /// drives a `Skueue<T>` for any payload type; `u64` callers pass the
    /// identity.
    pub(crate) fn tick<T: Payload>(
        &mut self,
        cluster: &mut SkueueCluster<T>,
        round: u64,
        mut mk: impl FnMut(u64) -> T,
    ) -> Result<u64, ClusterError> {
        if round >= self.generation_rounds {
            return Ok(0);
        }
        let targets = cluster.active_process_ids();
        if targets.is_empty() {
            return Ok(0);
        }
        let mut issued = 0;
        for _ in 0..self.requests_per_round {
            let target = targets[self.rng.choose_index(targets.len())];
            let is_insert = self.rng.gen_bool(self.insert_ratio);
            self.value_counter += 1;
            let value = if is_insert {
                mk(self.value_counter)
            } else {
                T::default()
            };
            cluster.client(target).issue(is_insert, value)?;
            issued += 1;
        }
        Ok(issued)
    }
}

/// Per-node-rate generator (Figure 4): every active process generates a
/// request with probability `request_probability` each round.
#[derive(Debug, Clone)]
pub(crate) struct PerNodeRateGenerator {
    /// Per-round request probability of each process.
    request_probability: f64,
    /// Probability that a generated request is an insert.
    insert_ratio: f64,
    /// Rounds during which requests are generated.
    generation_rounds: u64,
    rng: SimRng,
    value_counter: u64,
}

impl PerNodeRateGenerator {
    /// Creates a generator with the given per-node probability.
    pub(crate) fn new(
        request_probability: f64,
        insert_ratio: f64,
        generation_rounds: u64,
        seed: u64,
    ) -> Self {
        PerNodeRateGenerator {
            request_probability,
            insert_ratio,
            generation_rounds,
            rng: SimRng::new(seed),
            value_counter: 0,
        }
    }

    /// Generates this round's requests. Returns the number issued.  (`mk` as
    /// in [`FixedRateGenerator::tick`].)
    pub(crate) fn tick<T: Payload>(
        &mut self,
        cluster: &mut SkueueCluster<T>,
        round: u64,
        mut mk: impl FnMut(u64) -> T,
    ) -> Result<u64, ClusterError> {
        if round >= self.generation_rounds {
            return Ok(0);
        }
        let targets = cluster.active_process_ids();
        let mut issued = 0;
        for target in targets {
            if self.rng.gen_bool(self.request_probability) {
                let is_insert = self.rng.gen_bool(self.insert_ratio);
                self.value_counter += 1;
                let value = if is_insert {
                    mk(self.value_counter)
                } else {
                    T::default()
                };
                cluster.client(target).issue(is_insert, value)?;
                issued += 1;
            }
        }
        Ok(issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_cluster(n: usize, seed: u64) -> SkueueCluster {
        SkueueCluster::builder()
            .processes(n)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn fixed_rate_issues_requested_count() {
        let mut cluster = queue_cluster(4, 1);
        let mut gen = FixedRateGenerator::new(5, 0.5, 3, 7);
        let mut total = 0;
        for round in 0..10 {
            total += gen.tick(&mut cluster, round, |c| c).unwrap();
            cluster.run_round();
        }
        // Only the first 3 rounds generate.
        assert_eq!(total, 15);
        assert_eq!(cluster.requests_issued(), 15);
    }

    #[test]
    fn fixed_rate_insert_ratio_extremes() {
        let mut cluster = queue_cluster(2, 2);
        let mut gen = FixedRateGenerator::new(4, 1.0, 5, 3);
        for round in 0..5 {
            gen.tick(&mut cluster, round, |c| c).unwrap();
        }
        cluster.run_until_all_complete(500).unwrap();
        // All inserts: no request may return ⊥ and all must be enqueues.
        assert_eq!(cluster.history().count_empty(), 0);
        assert_eq!(
            cluster.history().count_kind(skueue_verify::OpKind::Enqueue),
            20
        );
    }

    #[test]
    fn per_node_rate_scales_with_probability() {
        let mut cluster = queue_cluster(50, 3);
        let mut gen = PerNodeRateGenerator::new(0.5, 0.5, 20, 11);
        let mut total = 0;
        for round in 0..20 {
            total += gen.tick(&mut cluster, round, |c| c).unwrap();
            cluster.run_round();
        }
        // 50 processes at p = 0.5 for 20 rounds.
        let expected = 0.5 * 50.0 * 20.0;
        assert!(
            (total as f64) > expected * 0.7 && (total as f64) < expected * 1.3,
            "issued {total}, expected ≈ {expected}"
        );
    }

    #[test]
    fn per_node_rate_zero_probability_generates_nothing() {
        let mut cluster = queue_cluster(5, 4);
        let mut gen = PerNodeRateGenerator::new(0.0, 0.5, 10, 1);
        for round in 0..10 {
            assert_eq!(gen.tick(&mut cluster, round, |c| c).unwrap(), 0);
        }
    }
}
