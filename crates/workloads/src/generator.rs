//! The request generator of the paper's evaluation setup.
//!
//! It drives the cluster through per-process
//! [`ClientHandle`](skueue_core::ClientHandle)s — the same request path an
//! application would use — and discards the returned tickets (the scenario
//! layer reads results through the cluster's completion stream).

use skueue_core::{ClusterError, Payload, SkueueCluster};
use skueue_sim::SimRng;

/// How many requests a generation round issues.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rate {
    /// This many, each at a uniformly random active process (Figures 2
    /// and 3): per request, the target is drawn, then whether it inserts.
    PerRound(u64),
    /// Each active process, in pid order, issues one with this probability
    /// (Figure 4): per process, whether it issues is drawn, then — only if
    /// it does — whether it inserts.
    PerProcess(f64),
}

/// Issues a round's requests at a [`Rate`] for a window of rounds; each
/// request is an insert with probability `insert_ratio`.
#[derive(Debug, Clone)]
pub(crate) struct Generator {
    /// How many requests a generation round issues.
    rate: Rate,
    /// Probability that a generated request is an insert.
    insert_ratio: f64,
    /// Rounds during which requests are generated.
    generation_rounds: u64,
    rng: SimRng,
    value_counter: u64,
}

impl Generator {
    /// Creates a generator.
    pub(crate) fn new(rate: Rate, insert_ratio: f64, generation_rounds: u64, seed: u64) -> Self {
        Generator {
            rate,
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
        let draws = match self.rate {
            Rate::PerRound(count) => count as usize,
            Rate::PerProcess(_) => targets.len(),
        };
        let mut issued = 0;
        for i in 0..draws {
            let target = match self.rate {
                Rate::PerRound(_) => targets[self.rng.choose_index(targets.len())],
                Rate::PerProcess(p) if self.rng.gen_bool(p) => targets[i],
                Rate::PerProcess(_) => continue,
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_verify::OpKind;

    fn queue_cluster(n: usize, seed: u64) -> SkueueCluster {
        SkueueCluster::builder()
            .processes(n)
            .seed(seed)
            .build()
            .unwrap()
    }

    /// A generator's issue step, as the scenario driver calls it.
    type Tick = Box<dyn FnMut(&mut SkueueCluster, u64) -> Result<u64, ClusterError>>;

    fn fixed_rate(per_round: u64, insert_ratio: f64, rounds: u64, seed: u64) -> Tick {
        let mut gen = Generator::new(Rate::PerRound(per_round), insert_ratio, rounds, seed);
        Box::new(move |cluster, round| gen.tick(cluster, round, |c| c))
    }

    fn per_node_rate(probability: f64, insert_ratio: f64, rounds: u64, seed: u64) -> Tick {
        let mut gen = Generator::new(Rate::PerProcess(probability), insert_ratio, rounds, seed);
        Box::new(move |cluster, round| gen.tick(cluster, round, |c| c))
    }

    /// Drains 5 generated rounds on an 8-process cluster and lists every
    /// request as `origin:seq` and `+` (insert) or `-` (remove), sorted.
    fn drained_draws(mut tick: Tick) -> String {
        let mut cluster = queue_cluster(8, 5);
        for round in 0..5 {
            tick(&mut cluster, round).unwrap();
            cluster.run_round();
        }
        cluster.run_until_all_complete(5_000).unwrap();
        let mut draws: Vec<_> = (cluster.history().records().iter())
            .map(|r| (r.id.origin.0, r.id.seq, r.kind == OpKind::Enqueue))
            .collect();
        draws.sort();
        let draws: Vec<String> = (draws.iter())
            .map(|&(origin, seq, insert)| {
                format!("{origin}:{seq}{}", if insert { '+' } else { '-' })
            })
            .collect();
        draws.join(" ")
    }

    /// The RNG draws of both rate shapes, pinned at seed 5: which process
    /// issues each request and whether it inserts.
    #[test]
    fn both_shapes_draw_what_they_drew() {
        let fixed = "0:0- 1:0+ 2:0- 2:1+ 2:2- 2:3+ 2:4- 3:0- 3:1- 4:0- 4:1- 4:2- 4:3- 4:4- 4:5- \
                     5:0- 5:1- 5:2+ 6:0+ 7:0+";
        assert_eq!(drained_draws(fixed_rate(4, 0.5, 5, 5)), fixed);
        let per_node =
            "0:0- 0:1+ 0:2- 0:3- 1:0+ 1:1- 1:2- 1:3- 2:0- 3:0- 3:1+ 4:0+ 4:1- 5:0- 6:0+ \
                        7:0+ 7:1-";
        assert_eq!(drained_draws(per_node_rate(0.5, 0.5, 5, 5)), per_node);
    }

    #[test]
    fn fixed_rate_issues_requested_count() {
        let mut cluster = queue_cluster(4, 1);
        let mut gen = Generator::new(Rate::PerRound(5), 0.5, 3, 7);
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
        let mut gen = Generator::new(Rate::PerRound(4), 1.0, 5, 3);
        for round in 0..5 {
            gen.tick(&mut cluster, round, |c| c).unwrap();
        }
        cluster.run_until_all_complete(500).unwrap();
        // All inserts: no request may return ⊥ and all must be enqueues.
        assert_eq!(cluster.history().count_empty(), 0);
        assert_eq!(cluster.history().count_kind(OpKind::Enqueue), 20);
    }

    #[test]
    fn per_node_rate_scales_with_probability() {
        let mut cluster = queue_cluster(50, 3);
        let mut gen = Generator::new(Rate::PerProcess(0.5), 0.5, 20, 11);
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
        let mut gen = Generator::new(Rate::PerProcess(0.0), 0.5, 10, 1);
        for round in 0..10 {
            assert_eq!(gen.tick(&mut cluster, round, |c| c).unwrap(), 0);
        }
    }
}
