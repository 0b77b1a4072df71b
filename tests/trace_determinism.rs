//! Trace determinism and span-tree well-formedness.
//!
//! The lifecycle recorder (`skueue-trace`) stamps events with simulation
//! rounds and merges lane-local buffers in the driver's deterministic
//! completion-sweep order, so for a given seed the merged log — and the
//! Chrome trace rendered from it — must be **byte-identical** across worker
//! thread counts and across repeated runs.  Tracing is observation-only:
//! enabling it must not perturb the history (the PR-4 golden fingerprint has
//! to survive with `TraceLevel::Full` on).
//!
//! On top of determinism, every completed op's span tree must be well-formed
//! (issue ≤ wave-join ≤ assignment ≤ DHT boundaries ≤ completion, and at
//! `Full` level one `DhtHop` event per hop counted at the apply site), with
//! zero orphan spans at quiescence.

use proptest::prelude::*;
use skueue::prelude::*;
use skueue::trace::validate_json;

/// FNV-1a over every field of every record — the same fingerprint as
/// `tests/parallel_backend.rs`, so a traced run can be compared against the
/// pinned PR-4 golden.
fn history_fingerprint(records: &[skueue_verify::OpRecord<u64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for r in records {
        mix(r.id.origin.raw());
        mix(r.id.seq);
        mix(match r.kind {
            OpKind::Enqueue => 1,
            OpKind::Dequeue => 2,
        });
        mix(r.value);
        match r.result {
            skueue_verify::OpResult::Enqueued => mix(3),
            skueue_verify::OpResult::Empty => mix(4),
            skueue_verify::OpResult::Returned(src) => {
                mix(5);
                mix(src.origin.raw());
                mix(src.seq);
            }
        }
        mix(r.order.wave);
        mix(r.order.shard);
        mix(r.order.major);
        mix(r.order.origin);
        mix(r.order.minor);
        mix(r.issued_round);
        mix(r.completed_round);
    }
    h
}

/// Everything a traced run produces that the determinism contract covers.
struct TracedRun {
    records: Vec<skueue_verify::OpRecord<u64>>,
    trace_fingerprint: u64,
    trace_len: usize,
    /// `(shard, events recorded)` per shard lane that recorded anything.
    shard_event_counts: Vec<(u32, u64)>,
    chrome: String,
    analysis: TraceAnalysis,
    /// Sum of the nodes' `dht_hops` histograms at quiescence.
    hop_histogram_sum: u64,
}

/// The parallel-backend determinism workload (80 steps, optional churn at
/// steps 30/60), with lifecycle tracing at the given level.
fn run_traced_workload(
    seed: u64,
    shards: usize,
    processes: u64,
    threads: usize,
    level: TraceLevel,
    churn: bool,
) -> TracedRun {
    let mut cluster = Skueue::<u64>::builder()
        .processes(processes as usize)
        .seed(seed)
        .shards(shards)
        .threads(threads)
        .trace(level)
        .build()
        .unwrap();
    let mut rng = SimRng::new(seed ^ 0x0DD5EED);
    for step in 0..80u64 {
        let p = ProcessId(rng.gen_range(processes));
        if cluster.process_may_issue(p) {
            let mut client = cluster.client(p);
            if rng.gen_bool(0.6) {
                client.enqueue(1000 + step).unwrap();
            } else {
                client.dequeue().unwrap();
            }
        }
        if churn && step == 30 {
            cluster.join(None).unwrap();
        }
        if churn && step == 60 {
            let _ = (0..processes)
                .map(ProcessId)
                .find(|&p| cluster.leave(p).is_ok());
        }
        if step % 2 == 0 {
            cluster.run_round();
        }
    }
    cluster.run_until_all_complete(20_000).unwrap();
    cluster.run_rounds(50);
    TracedRun {
        trace_fingerprint: cluster.trace_log().fingerprint(),
        trace_len: cluster.trace_log().len(),
        shard_event_counts: cluster.trace_log().shard_event_counts(),
        chrome: cluster.export_chrome_trace(),
        analysis: cluster.trace_analysis(),
        hop_histogram_sum: cluster.dht_hop_histogram().sum() as u64,
        records: cluster.into_history().into_records(),
    }
}

#[test]
fn traces_are_byte_identical_across_thread_counts_and_reruns() {
    for seed in [1u64, 42] {
        let reference = run_traced_workload(seed, 4, 12, 1, TraceLevel::Full, true);
        assert!(reference.trace_len > 0, "traced run recorded nothing");
        // Rerun on the single-threaded backend: bit-for-bit repeatable.
        let again = run_traced_workload(seed, 4, 12, 1, TraceLevel::Full, true);
        assert_eq!(reference.trace_fingerprint, again.trace_fingerprint);
        assert_eq!(reference.chrome, again.chrome);
        // Parallel backends: same merged log, same rendered trace.
        for threads in [2usize, 4] {
            let par = run_traced_workload(seed, 4, 12, threads, TraceLevel::Full, true);
            assert_eq!(reference.trace_len, par.trace_len, "T={threads}");
            assert_eq!(
                reference.trace_fingerprint, par.trace_fingerprint,
                "trace log diverged (seed {seed}, T={threads})"
            );
            assert_eq!(
                reference.chrome, par.chrome,
                "chrome export diverged (seed {seed}, T={threads})"
            );
        }
    }
}

#[test]
fn tracing_is_observation_only_pr4_golden_survives_full_tracing() {
    // The pinned PR-4 sharded golden (seed 5, sync, S=2, T=4) must be
    // untouched by full tracing: same 74 records, same fingerprint.
    let run = run_traced_workload(5, 2, 6, 4, TraceLevel::Full, true);
    assert_eq!(run.records.len(), 74);
    assert_eq!(history_fingerprint(&run.records), 0xcd93_85cb_b03f_275a);
    // And the traced spans account for exactly those 74 completions.
    assert_eq!(run.analysis.completed_count(), 74);
}

#[test]
fn off_level_records_nothing() {
    let run = run_traced_workload(7, 2, 6, 1, TraceLevel::Off, true);
    assert_eq!(run.trace_len, 0);
    assert!(run.analysis.spans().is_empty());
    assert!(!run.records.is_empty());
}

#[test]
fn span_trees_are_well_formed_with_no_orphans_at_quiescence() {
    for (seed, shards, processes, churn) in [(3u64, 2usize, 8u64, true), (11, 4, 12, false)] {
        let run = run_traced_workload(seed, shards, processes, 1, TraceLevel::Full, churn);
        assert_eq!(
            run.analysis.shape_violation(),
            None,
            "seed {seed} S={shards}"
        );
        assert_eq!(run.analysis.orphan_count(), 0, "seed {seed} S={shards}");
        assert_eq!(
            run.analysis.completed_count(),
            run.records.len(),
            "one completed span per history record (seed {seed})"
        );
    }
}

#[test]
fn hop_events_match_the_dht_hop_histogram() {
    // Churn-free so no node (and no histogram shard) leaves the cluster
    // between recording and the quiescent read-back.
    let run = run_traced_workload(9, 4, 12, 4, TraceLevel::Full, false);
    assert!(run.analysis.hop_events_recorded());
    assert_eq!(
        run.analysis.total_hops(),
        run.hop_histogram_sum,
        "per-span hop totals must agree with the nodes' dht_hops histograms"
    );
}

#[test]
fn chrome_export_is_valid_json_with_per_op_slices() {
    let run = run_traced_workload(13, 2, 8, 2, TraceLevel::Spans, true);
    assert!(
        validate_json(&run.chrome),
        "chrome export must parse as JSON"
    );
    // One complete `"cat":"op"` slice per completed op.
    let slices = run.chrome.matches("\"cat\":\"op\"").count();
    assert_eq!(slices, run.analysis.completed_count());
    // Both shard lanes recorded events (and so got a track in the export).
    assert_eq!(
        run.shard_event_counts
            .iter()
            .map(|&(s, _)| s)
            .collect::<Vec<_>>(),
        [0, 1],
        "every shard lane must record events: {:?}",
        run.shard_event_counts
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary op mixes: every completed span tree stays well-formed and
    /// nothing is orphaned once the cluster quiesces.
    #[test]
    fn arbitrary_workloads_produce_well_formed_spans(
        seed in 0u64..1000,
        ops in proptest::collection::vec(any::<bool>(), 20..60),
    ) {
        let mut cluster = Skueue::<u64>::builder()
            .processes(6)
            .seed(seed)
            .shards(2)
            .trace(TraceLevel::Full)
            .build()
            .unwrap();
        for (i, &enq) in ops.iter().enumerate() {
            let p = ProcessId((i as u64) % 6);
            let mut client = cluster.client(p);
            if enq {
                client.enqueue(i as u64).unwrap();
            } else {
                client.dequeue().unwrap();
            }
            if i % 3 == 0 {
                cluster.run_round();
            }
        }
        cluster.run_until_all_complete(20_000).unwrap();
        cluster.run_rounds(50);
        let analysis = cluster.trace_analysis();
        prop_assert_eq!(analysis.shape_violation(), None);
        prop_assert_eq!(analysis.orphan_count(), 0);
        prop_assert_eq!(analysis.completed_count(), ops.len());
        prop_assert_eq!(analysis.completed_count(), cluster.history().len());
    }
}
