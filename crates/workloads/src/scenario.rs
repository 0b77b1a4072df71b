//! Ready-to-run experiment scenarios.
//!
//! Each function runs one *data point* of a paper figure (or of one of the
//! derived experiments E4–E9) and returns a serialisable result record.  The
//! crate's `experiments` binary sweeps these over the parameter grids of the
//! figures and prints the same series the paper plots.

use crate::generator::{Generator, Rate};
use skueue_core::{Mode, Payload, SkueueCluster, TraceLevel};
use skueue_sim::ids::ProcessId;
use skueue_verify::{check_queue, check_queue_sharded, check_stack};

/// Parameters of a fixed-rate or per-node-rate scenario run.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Number of processes.
    pub processes: usize,
    /// Queue or stack.
    pub mode: Mode,
    /// Probability that a generated request is an insert.
    pub insert_ratio: f64,
    /// Rounds during which requests are generated.
    pub generation_rounds: u64,
    /// Per-node workload: per-round request probability of each process.
    pub request_probability: f64,
    /// RNG seed (workload and simulation).
    pub seed: u64,
    /// Verify sequential consistency of the resulting history.
    pub verify: bool,
    /// Number of anchor shards (1 = the unsharded protocol; `> 1` verifies
    /// with the cross-shard checker against the merged order).
    pub shards: usize,
    /// Per-op lifecycle tracing level (default [`TraceLevel::Off`]; tracing
    /// is observation-only — it never changes the schedule).
    pub trace_level: TraceLevel,
}

impl ScenarioParams {
    /// Defaults mirroring the paper's setup at a reduced scale: 10
    /// requests/round, 200 generation rounds.
    pub fn fixed_rate(processes: usize, mode: Mode, insert_ratio: f64) -> Self {
        ScenarioParams {
            processes,
            mode,
            insert_ratio,
            generation_rounds: 200,
            request_probability: 0.0,
            seed: 0x5EED,
            verify: true,
            shards: 1,
            trace_level: TraceLevel::Off,
        }
    }

    /// Defaults for the Figure 4 workload.
    pub fn per_node_rate(processes: usize, mode: Mode, request_probability: f64) -> Self {
        ScenarioParams {
            processes,
            mode,
            insert_ratio: 0.5,
            generation_rounds: 100,
            request_probability,
            seed: 0x5EED,
            verify: true,
            shards: 1,
            trace_level: TraceLevel::Off,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the generation window.
    pub fn with_generation_rounds(mut self, rounds: u64) -> Self {
        self.generation_rounds = rounds;
        self
    }

    /// Disables the (potentially expensive) consistency verification.
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Partitions the queue into `shards` anchor shards (see
    /// `SkueueBuilder::shards`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables per-op lifecycle tracing (see `SkueueBuilder::trace`;
    /// observation-only, adds the stage-latency breakdown to the result).
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    fn build_cluster<T: Payload>(&self) -> SkueueCluster<T> {
        SkueueCluster::builder()
            .processes(self.processes)
            .mode(self.mode)
            .seed(self.seed)
            .shards(self.shards)
            .trace(self.trace_level)
            .build()
            .expect("scenario parameters describe a valid cluster")
    }
}

/// Result of one scenario run — one data point of a figure.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Number of processes.
    pub processes: usize,
    /// Requests issued.
    pub requests: u64,
    /// Requests that returned `⊥`.
    pub empty_removes: u64,
    /// **The paper's headline metric**: average number of rounds per request.
    pub avg_rounds_per_request: f64,
    /// Maximum rounds any single request took.
    pub max_rounds_per_request: u64,
    /// Rounds needed to drain after generation stopped.
    pub drain_rounds: u64,
    /// Mean batch size over all batches sent (Theorems 18/20).
    pub mean_batch_size: f64,
    /// Maximum batch size observed.
    pub max_batch_size: u64,
    /// Mean DHT routing hops per operation (`hops_per_op`).
    pub mean_dht_hops: f64,
    /// Number of anchor shards the run was partitioned into.
    pub shards: usize,
    /// Aggregation waves assigned per shard anchor (indexed by shard id) —
    /// the direct view of shard imbalance; `[total]` when unsharded.
    pub per_shard_waves: Vec<u64>,
    /// Whether the sequential-consistency checks ran
    /// ([`ScenarioParams::verify`]).
    pub verified: bool,
    /// Whether the history passed the sequential-consistency checks — a
    /// verdict only if [`Self::verified`]; `true` when they did not run.
    /// Queue runs use the cross-shard checker (`check_queue_sharded`)
    /// against the merged `(wave, shard, local)` order, which with one
    /// shard is `check_queue`.
    pub consistent: bool,
    /// Requests completed purely locally by the stack's combining.
    pub locally_combined: u64,
    /// Median request latency in rounds (nearest-rank, from the history —
    /// available with tracing off).
    pub p50_rounds: u64,
    /// 99th-percentile request latency in rounds.
    pub p99_rounds: u64,
    /// 99.9th-percentile request latency in rounds.
    pub p999_rounds: u64,
    /// Trace events recorded (0 with tracing off).
    pub trace_events: u64,
    /// Per-stage latency breakdown from the lifecycle trace, in
    /// [`skueue_core::TraceAnalysis::stage_table`] order (queue-wait,
    /// aggregation, assignment, dht-routing, reply, total); empty with
    /// tracing off.
    pub stage_latencies: Vec<(&'static str, skueue_core::StageStats)>,
}

fn finish<T: Payload>(
    cluster: &SkueueCluster<T>,
    params: &ScenarioParams,
    drain_rounds: u64,
) -> ScenarioResult {
    let history = cluster.history();
    let avg = history.mean_latency();
    let max = history.max_latency();
    let batch_hist = cluster.batch_size_histogram();
    let hop_hist = cluster.dht_hop_histogram();

    let consistent = if params.verify {
        let report = match params.mode {
            Mode::Queue => check_queue_sharded(history, &cluster.shard_map()),
            Mode::Stack => check_stack(history),
        };
        report.is_consistent()
    } else {
        true
    };

    let per_shard_waves = cluster.shard_wave_counts();

    // At quiescence every DHT reply must have found its requester: a non-zero
    // count here means a reply raced a departure and was silently dropped.
    assert_eq!(
        cluster.unmatched_dht_replies(),
        0,
        "unmatched DHT replies at quiescence"
    );

    // Companion invariant for the lifecycle trace: with no unmatched
    // replies, a drained cluster must also have zero orphan spans (every
    // issued op reached a completion event), and every span tree must be
    // well-formed.
    let (trace_events, stage_latencies) = if cluster.trace_level().is_off() {
        (0, Vec::new())
    } else {
        let analysis = cluster.trace_analysis();
        assert_eq!(
            analysis.orphan_count(),
            0,
            "orphan trace spans at quiescence"
        );
        if let Some(violation) = analysis.shape_violation() {
            panic!("malformed trace span: {violation}");
        }
        (
            cluster.trace_log().len() as u64,
            analysis.stage_table().to_vec(),
        )
    };

    let (p50_rounds, p99_rounds, p999_rounds) = history.latency_percentiles();

    ScenarioResult {
        processes: params.processes,
        requests: history.len() as u64,
        empty_removes: history.count_empty() as u64,
        avg_rounds_per_request: avg,
        max_rounds_per_request: max,
        drain_rounds,
        mean_batch_size: batch_hist.mean(),
        max_batch_size: batch_hist.max().unwrap_or(0),
        mean_dht_hops: hop_hist.mean(),
        shards: cluster.shards(),
        per_shard_waves,
        verified: params.verify,
        consistent,
        locally_combined: cluster.locally_combined(),
        p50_rounds,
        p99_rounds,
        p999_rounds,
        trace_events,
        stage_latencies,
    }
}

/// Requests per round of the fixed-rate workload (Figures 2 and 3).
const FIXED_RATE: Rate = Rate::PerRound(10);

/// Round budget for draining after generation stops.
const DRAIN_BUDGET: u64 = 50_000;

/// The one run under every rate scenario: builds the cluster, lets a
/// generator at `rate` issue each generation round's requests (insert
/// payloads from `mk`), drains, and measures.  The quiescent cluster comes
/// back beside the result.
fn run<T: Payload>(
    params: &ScenarioParams,
    rate: Rate,
    mut mk: impl FnMut(u64) -> T,
) -> (ScenarioResult, SkueueCluster<T>) {
    let salt = match rate {
        Rate::PerRound(_) => 0xA5,
        Rate::PerProcess(_) => 0xC3,
    };
    let mut generator = Generator::new(
        rate,
        params.insert_ratio,
        params.generation_rounds,
        params.seed ^ salt,
    );
    let mut cluster = params.build_cluster::<T>();
    for round in 0..params.generation_rounds {
        generator
            .tick(&mut cluster, round, &mut mk)
            .expect("active processes exist");
        cluster.run_round();
    }
    let drain_rounds = cluster
        .run_until_all_complete(DRAIN_BUDGET)
        .expect("requests must drain within the budget");
    (finish(&cluster, params, drain_rounds), cluster)
}

/// Runs one data point of the Figure 2 / Figure 3 workload: a fixed number of
/// requests per round assigned to random processes.
pub fn run_fixed_rate(params: ScenarioParams) -> ScenarioResult {
    run(&params, FIXED_RATE, |c| c).0
}

/// What a traced fixed-rate run leaves behind beyond the scenario result.
#[derive(Debug, Clone)]
pub struct TracedRunArtifacts {
    /// The scenario result (with the stage-latency breakdown populated).
    pub result: ScenarioResult,
    /// The deterministic Chrome trace-event export of the merged log
    /// (byte-identical across thread counts for a given seed).
    pub chrome_json: String,
}

/// Runs one fig2 data point and returns the result together with the
/// Chrome-trace export of its lifecycle trace, at the params' tracing level
/// (`experiments trace` runs [`TraceLevel::Full`]).
pub fn run_fixed_rate_traced(params: ScenarioParams) -> TracedRunArtifacts {
    let (result, cluster) = run(&params, FIXED_RATE, |c| c);
    TracedRunArtifacts {
        chrome_json: cluster.export_chrome_trace(),
        result,
    }
}

/// Runs one sharded fig2 point over a **`String` payload** queue — the
/// non-trivial instantiation CI exercises end to end: the exact Figure 2
/// schedule (same RNG draws, same per-round targets), every insert carrying
/// a formatted job id, verified with the cross-shard checker, whose payload
/// round-trip rule proves each dequeue returned its enqueue's exact string.
pub fn run_string_payload_fig2(processes: usize, shards: usize, seed: u64) -> ScenarioResult {
    let params = ScenarioParams::fixed_rate(processes, Mode::Queue, 0.5)
        .with_seed(seed)
        .with_shards(shards);
    run(&params, FIXED_RATE, |counter| format!("job-{counter:08}")).0
}

/// Runs one data point of the Figure 4 workload: every process generates a
/// request with probability `request_probability` per round.
pub fn run_per_node_rate(params: ScenarioParams) -> ScenarioResult {
    run(&params, Rate::PerProcess(params.request_probability), |c| c).0
}

/// Result of a churn scenario (experiment E6, Theorem 17).
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Initial number of processes.
    pub initial_processes: usize,
    /// Processes joined during the run.
    pub joins: usize,
    /// Processes that left during the run (0 if the run stopped at the join).
    pub leaves: usize,
    /// Rounds until all joins were integrated (the whole budget if the run
    /// stopped there).
    pub join_rounds: u64,
    /// Rounds until all leaves completed (the whole budget if the run
    /// stopped there).
    pub leave_rounds: u64,
    /// Whether the run reached its final drain, every dequeue of it found an
    /// element and the queue history stayed sequentially consistent: false
    /// for a run that stopped at a join or leave.
    pub consistent: bool,
    /// Final number of active processes.
    pub final_processes: usize,
    /// The processes still joining or leaving when the run stopped
    /// ([`SkueueCluster::unsettled`]): empty when every join and leave
    /// finished within the budget.  A bulk join or leave that does not
    /// finish stops the run there, skipping the steps after it.
    pub unsettled: Vec<ProcessId>,
}

/// Runs a churn scenario: bulk-join `joins` processes, then bulk-leave
/// `leaves` processes, with a light request load before and after, and
/// verifies consistency end-to-end.  A bulk join or leave that does not
/// finish within 10⁵ rounds stops the run, naming what is stuck in
/// [`ChurnResult::unsettled`], and the run is not consistent.
pub fn run_churn_scenario(
    initial_processes: usize,
    joins: usize,
    leaves: usize,
    seed: u64,
) -> ChurnResult {
    churn_within(initial_processes, joins, leaves, seed, 100_000)
}

/// [`run_churn_scenario`] with `budget` rounds for the bulk join, and then
/// for the bulk leave, to finish.
fn churn_within(
    initial_processes: usize,
    joins: usize,
    leaves: usize,
    seed: u64,
    budget: u64,
) -> ChurnResult {
    let mut cluster = SkueueCluster::builder()
        .processes(initial_processes)
        .seed(seed)
        .build()
        .expect("at least one initial process");

    // Warm-up load.
    for i in 0..(initial_processes as u64 * 2) {
        cluster
            .client(ProcessId(i % initial_processes as u64))
            .enqueue(i)
            .expect("initial processes are active");
    }
    cluster
        .run_until_all_complete(20_000)
        .expect("warm-up drains");

    let mut result = ChurnResult {
        initial_processes,
        joins,
        leaves: 0,
        join_rounds: 0,
        leave_rounds: 0,
        consistent: true,
        final_processes: 0,
        unsettled: Vec::new(),
    };
    if churn(&mut cluster, leaves, budget, &mut result).is_none() {
        result.unsettled = cluster.unsettled().to_vec();
        result.consistent = false;
    }
    result.consistent &= check_queue(cluster.history()).is_consistent();
    result.final_processes = cluster.active_processes();
    result
}

/// The churn scenario after its warm-up: the bulk join, a load on the new
/// members, the bulk leave of up to `leaves` processes and a drain of the
/// whole queue, whose dequeues must all find an element.  `None` as soon as
/// a bulk join or leave does not finish within `budget` rounds ([`settle`]).
fn churn(
    cluster: &mut SkueueCluster,
    leaves: usize,
    budget: u64,
    result: &mut ChurnResult,
) -> Option<()> {
    // Bulk join.
    let joined: Vec<ProcessId> = (0..result.joins)
        .map(|_| cluster.join(None).expect("bootstrap exists"))
        .collect();
    settle(cluster, budget, &mut result.join_rounds)?;

    // Load that exercises the new members.
    for (i, &p) in joined.iter().enumerate() {
        cluster
            .client(p)
            .enqueue(10_000 + i as u64)
            .expect("joined processes are active");
    }
    cluster
        .run_until_all_complete(20_000)
        .expect("post-join load drains");

    // Bulk leave (never the anchor's process).
    for p in cluster.active_process_ids() {
        if result.leaves >= leaves {
            break;
        }
        if cluster.leave(p).is_ok() {
            result.leaves += 1;
        }
    }
    settle(cluster, budget, &mut result.leave_rounds)?;

    // Post-churn load: drain the queue completely to prove no data was lost.
    let survivors = cluster.active_process_ids();
    let remaining = cluster.anchor_state().map(|a| a.size()).unwrap_or(0);
    let drains: Vec<_> = (0..remaining)
        .map(|i| {
            cluster
                .client(survivors[(i % survivors.len() as u64) as usize])
                .dequeue()
                .expect("survivors are active")
        })
        .collect();
    let outcomes = cluster
        .run_until_done(&drains, 50_000)
        .expect("final drain");
    result.consistent = outcomes.iter().all(|o| !o.is_empty());
    assert_eq!(
        cluster.unmatched_dht_replies(),
        0,
        "unmatched DHT replies at churn-scenario quiescence"
    );
    Some(())
}

/// Runs `cluster` until no join or leave is open, for at most `budget`
/// rounds, and stores the rounds it ran in `rounds`.  `None` if one is
/// still open then.
fn settle(cluster: &mut SkueueCluster, budget: u64, rounds: &mut u64) -> Option<()> {
    let start = cluster.round();
    let settled = cluster.run_until(|c| c.unsettled().is_empty(), budget);
    *rounds = cluster.round() - start;
    settled.ok().map(drop)
}

/// Result of the fairness scenario (experiment E7, Corollary 19).
#[derive(Debug, Clone)]
pub struct FairnessResult {
    /// Elements stored at the end of the run.
    pub elements: u64,
    /// Maximum node load divided by the mean load.
    pub max_over_mean: f64,
    /// Coefficient of variation of the per-node load.
    pub cv: f64,
}

/// Runs an enqueue-heavy workload and reports how evenly the stored elements
/// spread over the virtual nodes.
pub fn run_fairness_scenario(processes: usize, elements: u64, seed: u64) -> FairnessResult {
    let mut cluster = SkueueCluster::builder()
        .processes(processes)
        .seed(seed)
        .build()
        .expect("at least one process");
    for i in 0..elements {
        cluster
            .client(ProcessId(i % processes as u64))
            .enqueue(i)
            .expect("processes are active");
        if i % 50 == 0 {
            cluster.run_round();
        }
    }
    cluster
        .run_until_all_complete(100_000)
        .expect("enqueues drain");
    let stats = cluster.fairness().expect("at least one node");
    FairnessResult {
        elements: stats.total,
        max_over_mean: stats.max_over_mean,
        cv: stats.cv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_queue_point_is_consistent_and_logarithmic_ish() {
        let params = ScenarioParams::fixed_rate(20, Mode::Queue, 0.5)
            .with_generation_rounds(30)
            .with_seed(1);
        let result = run_fixed_rate(params);
        assert_eq!(result.requests, 300);
        assert!(result.consistent);
        assert!(result.avg_rounds_per_request > 1.0);
        assert!(result.avg_rounds_per_request < 200.0);
    }

    #[test]
    fn fixed_rate_stack_point_is_consistent() {
        let params = ScenarioParams::fixed_rate(15, Mode::Stack, 0.5)
            .with_generation_rounds(20)
            .with_seed(2);
        let result = run_fixed_rate(params);
        assert_eq!(result.requests, 200);
        assert!(result.consistent);
    }

    #[test]
    fn enqueue_only_workload_never_returns_empty() {
        let params = ScenarioParams::fixed_rate(10, Mode::Queue, 1.0)
            .with_generation_rounds(20)
            .with_seed(3);
        let result = run_fixed_rate(params);
        assert_eq!(result.empty_removes, 0);
        assert!(result.consistent);
    }

    #[test]
    fn dequeue_only_workload_is_all_empty() {
        let params = ScenarioParams::fixed_rate(10, Mode::Queue, 0.0)
            .with_generation_rounds(20)
            .with_seed(4);
        let result = run_fixed_rate(params);
        assert_eq!(result.empty_removes, result.requests);
        assert!(result.consistent);
        // Dequeues on an empty queue finish without DHT operations, so they
        // should be faster than a mixed workload (the effect Fig. 2 shows for
        // small enqueue ratios).
        let mixed = run_fixed_rate(
            ScenarioParams::fixed_rate(10, Mode::Queue, 0.75)
                .with_generation_rounds(20)
                .with_seed(4),
        );
        assert!(result.avg_rounds_per_request <= mixed.avg_rounds_per_request + 1.0);
    }

    #[test]
    fn sharded_fig2_points_verify_for_all_sweep_sizes() {
        for shards in [1usize, 2, 4, 8] {
            let params = ScenarioParams::fixed_rate(32, Mode::Queue, 0.5)
                .with_generation_rounds(20)
                .with_seed(11)
                .with_shards(shards);
            let result = run_fixed_rate(params);
            assert_eq!(result.requests, 200, "S={shards}");
            assert!(result.consistent, "S={shards}");
            assert_eq!(result.shards, shards);
            assert_eq!(result.per_shard_waves.len(), shards);
            if shards > 1 {
                assert!(
                    result.per_shard_waves.iter().filter(|&&w| w > 0).count() >= 2,
                    "S={shards}: waves must spread over shards, got {:?}",
                    result.per_shard_waves
                );
            }
        }
    }

    #[test]
    fn traced_scenario_matches_untraced_and_reports_stage_latencies() {
        // Tracing is observation-only: every schedule-derived metric must be
        // identical with tracing on, and the traced run additionally carries
        // the populated stage table.
        let params = ScenarioParams::fixed_rate(24, Mode::Queue, 0.5)
            .with_generation_rounds(20)
            .with_seed(11)
            .with_shards(2);
        let plain = run_fixed_rate(params);
        let traced = run_fixed_rate(params.with_trace(TraceLevel::Full));
        assert_eq!(plain.requests, traced.requests);
        assert_eq!(
            plain.avg_rounds_per_request, traced.avg_rounds_per_request,
            "tracing must not change the schedule"
        );
        assert_eq!(plain.drain_rounds, traced.drain_rounds);
        assert_eq!(
            (plain.p50_rounds, plain.p99_rounds, plain.p999_rounds),
            (traced.p50_rounds, traced.p99_rounds, traced.p999_rounds),
            "percentiles come from the history and must agree"
        );
        assert!(plain.p50_rounds > 0);
        assert!(plain.p99_rounds >= plain.p50_rounds);
        assert_eq!(plain.trace_events, 0);
        assert!(plain.stage_latencies.is_empty());
        assert!(traced.trace_events > 0);
        assert_eq!(traced.stage_latencies.len(), 6);
        // The trace's total-stage percentiles are the history's percentiles.
        let total = traced.stage_latencies.last().unwrap().1;
        assert_eq!(total.count, traced.requests);
        assert_eq!(total.p50, traced.p50_rounds);
        assert_eq!(total.p99, traced.p99_rounds);
    }

    #[test]
    fn sharded_fig2_s1_matches_the_unsharded_scenario() {
        let base = run_fixed_rate(
            ScenarioParams::fixed_rate(16, Mode::Queue, 0.5)
                .with_generation_rounds(15)
                .with_seed(21),
        );
        // Same workload, same schedule: S = 1 must not change a thing.
        let sharded_matched = run_fixed_rate(
            ScenarioParams::fixed_rate(16, Mode::Queue, 0.5)
                .with_generation_rounds(15)
                .with_seed(21)
                .with_shards(1),
        );
        assert_eq!(base.requests, sharded_matched.requests);
        assert_eq!(
            base.avg_rounds_per_request,
            sharded_matched.avg_rounds_per_request
        );
        assert_eq!(base.drain_rounds, sharded_matched.drain_rounds);
        assert!(sharded_matched.consistent);
    }

    #[test]
    fn string_payload_fig2_is_consistent_and_round_trips() {
        // Sharded String-payload run: the cross-shard checker (including the
        // payload round-trip rule) must accept it, and the schedule metrics
        // must match the u64 run of the same parameters exactly — payload
        // genericity must not change the protocol's behaviour.
        let params = ScenarioParams::fixed_rate(24, Mode::Queue, 0.5)
            .with_generation_rounds(20)
            .with_seed(33)
            .with_shards(4);
        let (strings, _) = run(&params, FIXED_RATE, |c| format!("job-{c:08}"));
        assert_eq!(strings.requests, 200);
        assert!(strings.consistent);
        assert_eq!(strings.shards, 4);

        let ints = run_fixed_rate(params);
        assert_eq!(strings.requests, ints.requests);
        assert_eq!(
            strings.avg_rounds_per_request, ints.avg_rounds_per_request,
            "payload type must not change the schedule"
        );
        assert_eq!(strings.drain_rounds, ints.drain_rounds);
        assert_eq!(strings.per_shard_waves, ints.per_shard_waves);
    }

    #[test]
    fn payload_generic_u64_identity_matches_run_fixed_rate() {
        let params = ScenarioParams::fixed_rate(12, Mode::Queue, 0.5)
            .with_generation_rounds(15)
            .with_seed(9);
        let (via_generic, _) = run(&params, FIXED_RATE, |c| c);
        let direct = run_fixed_rate(params);
        assert_eq!(via_generic.requests, direct.requests);
        assert_eq!(
            via_generic.avg_rounds_per_request,
            direct.avg_rounds_per_request
        );
        assert_eq!(via_generic.drain_rounds, direct.drain_rounds);
    }

    #[test]
    fn string_payload_stack_round_trips() {
        let params = ScenarioParams::fixed_rate(8, Mode::Stack, 0.5)
            .with_generation_rounds(12)
            .with_seed(17);
        let (result, _) = run(&params, FIXED_RATE, |c| format!("undo-{c}"));
        assert_eq!(result.requests, 120);
        assert!(result.consistent);
    }

    #[test]
    fn per_node_rate_point_runs() {
        let params = ScenarioParams::per_node_rate(30, Mode::Queue, 0.2)
            .with_generation_rounds(25)
            .with_seed(5);
        let result = run_per_node_rate(params);
        assert!(result.requests > 0);
        assert!(result.consistent);
    }

    #[test]
    fn stack_local_combining_shows_up_at_high_rates() {
        let params = ScenarioParams::per_node_rate(20, Mode::Stack, 1.0)
            .with_generation_rounds(20)
            .with_seed(6);
        let result = run_per_node_rate(params);
        assert!(result.consistent);
        assert!(
            result.locally_combined > 0,
            "at one request per node per round some pairs must combine locally"
        );
    }

    #[test]
    fn churn_scenario_small() {
        let result = run_churn_scenario(6, 3, 2, 7);
        assert!(result.consistent);
        assert!(result.unsettled.is_empty());
        assert_eq!(result.final_processes, 6 + 3 - 2);
        assert!(result.join_rounds > 0);
        assert!(result.leave_rounds > 0);
    }

    /// A bulk join that does not finish within its budget stops the case
    /// instead of panicking: it names the joiners still open, leaves no
    /// process and is not consistent.  One round is too few for any join.
    #[test]
    fn a_churn_case_that_does_not_settle_names_its_open_joins() {
        let result = churn_within(6, 3, 2, 7, 1);
        assert_eq!(result.join_rounds, 1);
        assert_eq!((result.leaves, result.leave_rounds), (0, 0));
        assert!(!result.consistent, "a stopped case is not consistent");
        assert!(!result.unsettled.is_empty());
        assert!(result.unsettled.iter().all(|p| p.0 >= 6), "joiners only");
    }

    #[test]
    fn fairness_scenario_small() {
        let result = run_fairness_scenario(10, 300, 8);
        assert_eq!(result.elements, 300);
        assert!(result.max_over_mean < 8.0);
    }
}
