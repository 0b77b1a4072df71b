//! End-to-end integration tests: the distributed queue stays sequentially
//! consistent across crates, schedulers and workloads — all driven through
//! the builder + ticket API.

use skueue::prelude::*;

/// Random mixed workload on the synchronous scheduler, verified with both the
/// Definition 1 check and the sequential replay.
#[test]
fn random_workload_synchronous_is_consistent() {
    let mut cluster = Skueue::builder()
        .processes(12)
        .seed(0xFEED)
        .build()
        .unwrap();
    let mut rng = SimRng::new(1);
    let mut tickets = Vec::new();
    for step in 0..300u64 {
        let p = ProcessId(rng.gen_range(12));
        let mut client = cluster.client(p);
        tickets.push(if rng.gen_bool(0.55) {
            client.enqueue(step).unwrap()
        } else {
            client.dequeue().unwrap()
        });
        if rng.gen_bool(0.3) {
            cluster.run_round();
        }
    }
    let outcomes = cluster.run_until_done(&tickets, 10_000).unwrap();
    assert_eq!(outcomes.len(), 300);
    assert_eq!(cluster.history().len(), 300);
    check_queue(cluster.history()).assert_consistent();
}

/// The same protocol under asynchronous, non-FIFO delivery (the model the
/// correctness proof targets) — including adversarial straggler delays that
/// make GETs overtake their PUTs.
#[test]
fn random_workload_asynchronous_is_consistent() {
    for seed in [1u64, 2, 3] {
        let mut cluster = Skueue::builder()
            .processes(8)
            .asynchronous(4)
            .seed(seed)
            .build()
            .unwrap();
        let mut rng = SimRng::new(seed ^ 0xABCD);
        for step in 0..150u64 {
            let p = ProcessId(rng.gen_range(8));
            let mut client = cluster.client(p);
            if rng.gen_bool(0.5) {
                client.enqueue(step).unwrap();
            } else {
                client.dequeue().unwrap();
            }
            if rng.gen_bool(0.25) {
                cluster.run_round();
            }
        }
        cluster.run_until_all_complete(60_000).unwrap();
        check_queue(cluster.history()).assert_consistent();
    }
}

/// Heavy adversarial reordering: half of all messages are delayed by 25
/// rounds. GET-before-PUT races must all resolve.
#[test]
fn adversarial_delays_do_not_break_consistency() {
    let mut cluster = Skueue::builder()
        .processes(6)
        .seed(7)
        .delivery(DeliveryModel::Adversarial {
            straggle_prob: 0.5,
            straggle_delay: 25,
        })
        .build()
        .unwrap();
    for i in 0..60u64 {
        cluster.client(ProcessId(i % 6)).enqueue(i).unwrap();
    }
    let gets: Vec<OpTicket> = (0..60u64)
        .map(|i| cluster.client(ProcessId((i + 3) % 6)).dequeue().unwrap())
        .collect();
    let outcomes = cluster.run_until_done(&gets, 100_000).unwrap();
    assert!(
        outcomes.iter().all(|o| !o.is_empty()),
        "every element must be found despite reordering"
    );
    check_queue(cluster.history()).assert_consistent();
}

/// FIFO across processes, observed purely through ticket outcomes.  Enqueues
/// that are fully drained before the next one is issued have a fixed place
/// in `≺`, so sequential dequeues must return them in exactly that order;
/// concurrent same-wave enqueues are serialised by the anchor in *some*
/// order, so a concurrent drain must return them exactly once each.
#[test]
fn fifo_order_is_globally_respected() {
    let mut cluster = Skueue::builder().processes(10).seed(3).build().unwrap();
    // Phase 1: ten enqueues, each drained before the next is issued — their
    // queue order equals their issue order.
    for i in 0..10u64 {
        let put = cluster.client(ProcessId(i % 10)).enqueue(i).unwrap();
        cluster.run_until_done(&[put], 5_000).unwrap();
    }
    // One dequeue at a time: each must return exactly the next value.
    for expected in 0..10u64 {
        let get = cluster
            .client(ProcessId((expected * 3) % 10))
            .dequeue()
            .unwrap();
        let outcome = cluster.run_until_done(&[get], 5_000).unwrap().remove(0);
        assert_eq!(outcome.value(), Some(expected), "strict FIFO order");
    }
    // Phase 2: a concurrent burst of enqueues, then a concurrent drain —
    // every element comes out exactly once, none is lost.
    let puts: Vec<OpTicket> = (100..140u64)
        .map(|i| cluster.client(ProcessId(i % 10)).enqueue(i).unwrap())
        .collect();
    cluster.run_until_done(&puts, 5_000).unwrap();
    let gets: Vec<OpTicket> = (0..40u64)
        .map(|i| cluster.client(ProcessId((i * 3) % 10)).dequeue().unwrap())
        .collect();
    let outcomes = cluster.run_until_done(&gets, 5_000).unwrap();
    let mut drained: Vec<u64> = outcomes
        .iter()
        .map(|o| o.value().expect("queue held 40 elements"))
        .collect();
    drained.sort_unstable();
    assert_eq!(drained, (100..140u64).collect::<Vec<_>>());
    check_queue(cluster.history()).assert_consistent();
    // Anchor window must be empty again.
    assert_eq!(cluster.anchor_state().unwrap().size(), 0);
}

/// The completion stream sees every operation exactly once, and rebuilding a
/// history from the events matches the cluster's own history.
#[test]
fn completion_stream_rebuilds_the_history() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut cluster = Skueue::builder().processes(6).seed(0xE7).build().unwrap();
    let events: Rc<RefCell<Vec<CompletionEvent>>> = Rc::default();
    let sink = Rc::clone(&events);
    cluster.on_complete(move |event| sink.borrow_mut().push(event.clone()));

    let mut tickets = Vec::new();
    for i in 0..40u64 {
        tickets.push(cluster.client(ProcessId(i % 6)).enqueue(i).unwrap());
        if i % 2 == 0 {
            tickets.push(cluster.client(ProcessId((i + 1) % 6)).dequeue().unwrap());
        }
    }
    cluster.run_until_done(&tickets, 10_000).unwrap();

    let events = events.borrow();
    assert_eq!(events.len(), tickets.len(), "one event per operation");
    // Every ticket's outcome matches what its event reported.
    for event in events.iter() {
        assert_eq!(cluster.outcome(event.ticket), Some(event.outcome.clone()));
    }
    // A history rebuilt from the event stream is checker-equivalent.
    let rebuilt: History = events.iter().map(|e| e.record.clone()).collect();
    assert_eq!(rebuilt.len(), cluster.history().len());
    check_queue(&rebuilt).assert_consistent();
    check_queue(cluster.history()).assert_consistent();
}

/// The fixed-rate workload of Figure 2 at a small scale: consistency plus the
/// logarithmic latency shape (larger systems are only mildly slower).
#[test]
fn figure2_shape_holds_at_small_scale() {
    let small =
        run_fixed_rate(ScenarioParams::fixed_rate(25, Mode::Queue, 0.5).with_generation_rounds(40));
    let large = run_fixed_rate(
        ScenarioParams::fixed_rate(200, Mode::Queue, 0.5).with_generation_rounds(40),
    );
    assert!(small.consistent && large.consistent);
    // 8x more processes but far less than 8x the latency (Theorem 15).
    assert!(
        large.avg_rounds_per_request < small.avg_rounds_per_request * 4.0,
        "small={}, large={}",
        small.avg_rounds_per_request,
        large.avg_rounds_per_request
    );
    // Dequeue-only workloads are the fastest configuration (Fig. 2 bottom curve).
    let deq_only = run_fixed_rate(
        ScenarioParams::fixed_rate(200, Mode::Queue, 0.0).with_generation_rounds(40),
    );
    assert!(deq_only.avg_rounds_per_request <= large.avg_rounds_per_request + 1.0);
}

/// Batch sizes stay small (Theorem 18): even at one request per process per
/// round, batches remain O(log n)-ish rather than proportional to the load.
#[test]
fn batch_sizes_stay_bounded_under_full_load() {
    let result = run_per_node_rate(
        ScenarioParams::per_node_rate(60, Mode::Queue, 1.0).with_generation_rounds(30),
    );
    assert!(result.consistent);
    assert!(
        result.max_batch_size < 60,
        "batch size {} should stay well below the per-wave request volume",
        result.max_batch_size
    );
}

/// Fairness (Corollary 19): stored elements spread evenly over nodes.
#[test]
fn element_distribution_is_fair() {
    let mut cluster = Skueue::builder().processes(16).seed(21).build().unwrap();
    for i in 0..800u64 {
        cluster.client(ProcessId(i % 16)).enqueue(i).unwrap();
        if i % 20 == 0 {
            cluster.run_round();
        }
    }
    cluster.run_until_all_complete(20_000).unwrap();
    let fairness = cluster.fairness().unwrap();
    assert_eq!(fairness.total, 800);
    assert!(
        fairness.max_over_mean < 5.0,
        "imbalance {:.2}",
        fairness.max_over_mean
    );
}
