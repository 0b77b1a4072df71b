//! Cross-backend determinism: the parallel execution backend must produce
//! **byte-identical** histories to the single-threaded one — every seed,
//! every delivery model, every shard count, churn included.
//!
//! The whole point of the lane/epoch-merge design (lanes run identical code,
//! merges happen in fixed `(wave, shard, local)` / lane order, each lane owns
//! an independent RNG stream) is that `.threads(n)` is a pure wall-clock
//! knob.  These tests pin that contract with the same FNV fingerprint the
//! PR-4 goldens use, so a divergence reports the exact workload that broke.

use skueue::prelude::*;

/// FNV-1a over every field of every record, in completion order (the same
/// fingerprint as `tests/generic_payloads.rs`).
fn fingerprint(records: &[skueue_verify::OpRecord<u64>]) -> u64 {
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

/// The determinism suite's mixed workload with churn (join at step 30, leave
/// at step 60), on a configurable backend.  Returns `(records, sim rounds,
/// messages sent, messages delivered)` — the fingerprint covers the records,
/// the extra fields catch substrate-level divergence that happens to cancel
/// out in the history.
fn run_workload(
    seed: u64,
    asynchronous: bool,
    shards: usize,
    processes: u64,
    threads: usize,
) -> (Vec<skueue_verify::OpRecord<u64>>, u64, u64, u64) {
    let mut builder = Skueue::<u64>::builder()
        .processes(processes as usize)
        .seed(seed)
        .shards(shards)
        .threads(threads);
    if asynchronous {
        builder = builder.asynchronous(4);
    }
    let mut cluster = builder.build().unwrap();
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
        if step == 30 {
            cluster.join(None).unwrap();
        }
        if step == 60 {
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
    let rounds = cluster.sim_metrics().rounds;
    let sent = cluster.sim_metrics().messages_sent;
    let delivered = cluster.sim_metrics().messages_delivered;
    (
        cluster.into_history().into_records(),
        rounds,
        sent,
        delivered,
    )
}

/// Runs one workload on the single-threaded backend and on the parallel
/// backend with 2 and 4 worker threads, and asserts all three histories are
/// byte-identical.
fn assert_cross_backend_identical(seed: u64, asynchronous: bool, shards: usize, processes: u64) {
    let (records, rounds, sent, delivered) = run_workload(seed, asynchronous, shards, processes, 1);
    let reference = fingerprint(&records);
    assert!(!records.is_empty(), "workload must complete something");
    for threads in [2usize, 4] {
        let (par_records, par_rounds, par_sent, par_delivered) =
            run_workload(seed, asynchronous, shards, processes, threads);
        assert_eq!(
            rounds, par_rounds,
            "round counts diverged (seed {seed}, async {asynchronous}, S={shards}, T={threads})"
        );
        assert_eq!(
            (sent, delivered),
            (par_sent, par_delivered),
            "message counts diverged (seed {seed}, async {asynchronous}, S={shards}, T={threads})"
        );
        assert_eq!(records.len(), par_records.len());
        assert_eq!(
            reference,
            fingerprint(&par_records),
            "history fingerprint diverged (seed {seed}, async {asynchronous}, S={shards}, T={threads})"
        );
    }
}

#[test]
fn sharded_synchronous_histories_are_backend_invariant() {
    for seed in [1u64, 42, 7] {
        assert_cross_backend_identical(seed, false, 8, 16);
    }
}

#[test]
fn sharded_async_shuffled_histories_are_backend_invariant() {
    for seed in [5u64, 99] {
        assert_cross_backend_identical(seed, true, 4, 12);
    }
}

#[test]
fn churny_small_shard_counts_are_backend_invariant() {
    // S=2 with churn — the exact shape of the PR-4 sharded golden.
    assert_cross_backend_identical(5, false, 2, 6);
    // Single shard: the parallel backend must quietly fall back to one lane.
    assert_cross_backend_identical(3, false, 1, 6);
}

#[test]
fn parallel_backend_reproduces_the_pr4_golden() {
    // The pinned PR-4 sharded golden (seed 5, sync, S=2): the parallel
    // backend must reproduce the *historical* fingerprint, not merely agree
    // with today's single-threaded backend.
    let (records, _, _, _) = run_workload(5, false, 2, 6, 4);
    assert_eq!(records.len(), 74);
    assert_eq!(fingerprint(&records), 0xcd93_85cb_b03f_275a);
}

#[test]
fn parallel_backend_spreads_lanes_over_threads_and_verifies() {
    let mut cluster = Skueue::<u64>::builder()
        .processes(16)
        .shards(4)
        .threads(4)
        .seed(11)
        .build()
        .unwrap();
    assert_eq!(cluster.parallel_threads(), 4);
    let puts: Vec<OpTicket> = (0..48u64)
        .map(|i| cluster.client(ProcessId(i % 16)).enqueue(i).unwrap())
        .collect();
    cluster.run_until_done(&puts, 5_000).unwrap();
    let gets: Vec<OpTicket> = (0..48u64)
        .map(|i| cluster.client(ProcessId(i % 16)).dequeue().unwrap())
        .collect();
    cluster.run_until_done(&gets, 5_000).unwrap();

    // The lanes really ran on >= 2 distinct worker threads, none of them the
    // driver thread (their per-lane busy time is visible too).
    let metrics = cluster.sim_metrics();
    assert_eq!(metrics.lane_thread_tokens.len(), 4);
    let distinct: std::collections::HashSet<u64> =
        metrics.lane_thread_tokens.iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "expected lanes on >=2 distinct threads, got {:?}",
        metrics.lane_thread_tokens
    );
    assert!(metrics.lane_busy_ns.iter().all(|&ns| ns > 0));
    assert_eq!(metrics.lane_barrier_wait_ns.len(), 4);
    // Only the parallel backend pays barrier waits: some lane waited for a
    // slower one here, none does when the lanes run inline.
    assert!(metrics.lane_barrier_wait_ns.iter().any(|&ns| ns > 0));
    let mut inline = Skueue::<u64>::builder()
        .processes(16)
        .shards(4)
        .seed(11)
        .build()
        .unwrap();
    let put = inline.client(ProcessId(0)).enqueue(1).unwrap();
    inline.run_until_done(&[put], 5_000).unwrap();
    assert_eq!(inline.sim_metrics().lane_barrier_wait_ns, [0; 4]);

    // And the merged history still verifies as a sharded queue.
    check_queue_sharded(cluster.history(), &cluster.shard_map()).assert_consistent();
}

#[test]
fn thread_counts_beyond_the_lane_count_are_capped() {
    let cluster = Skueue::<u64>::builder()
        .processes(8)
        .shards(2)
        .threads(16)
        .seed(1)
        .build()
        .unwrap();
    assert_eq!(cluster.parallel_threads(), 2, "capped at the lane count");
    let single = Skueue::<u64>::builder()
        .processes(8)
        .shards(1)
        .threads(8)
        .seed(1)
        .build()
        .unwrap();
    assert_eq!(
        single.parallel_threads(),
        1,
        "one lane cannot use worker threads"
    );
}
