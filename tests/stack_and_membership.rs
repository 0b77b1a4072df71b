//! Integration tests for the stack variant (Section VI) and for join/leave
//! churn (Section IV), driven through the builder + ticket API.

use skueue::prelude::*;

/// Random push/pop workload on the stack, with local combining enabled, under
/// the synchronous scheduler.
#[test]
fn stack_random_workload_is_sequentially_consistent() {
    let mut cluster = Skueue::builder()
        .processes(10)
        .stack()
        .seed(0xCAFE)
        .build()
        .unwrap();
    let mut rng = SimRng::new(9);
    let mut tickets = Vec::new();
    for step in 0..250u64 {
        let p = ProcessId(rng.gen_range(10));
        let mut client = cluster.client(p);
        tickets.push(if rng.gen_bool(0.55) {
            client.push(step).unwrap()
        } else {
            client.pop().unwrap()
        });
        if rng.gen_bool(0.3) {
            cluster.run_round();
        }
    }
    let outcomes = cluster.run_until_done(&tickets, 20_000).unwrap();
    assert_eq!(outcomes.len(), 250);
    assert_eq!(cluster.history().len(), 250);
    check_stack(cluster.history()).assert_consistent();
}

/// The stack under asynchronous delivery — the exact reordering scenario
/// Section VI's tickets and stage-4 barrier exist for.
#[test]
fn stack_asynchronous_delivery_is_consistent() {
    let mut cluster = Skueue::builder()
        .processes(6)
        .stack()
        .asynchronous(3)
        .seed(77)
        .build()
        .unwrap();
    let mut rng = SimRng::new(4);
    for step in 0..120u64 {
        let p = ProcessId(rng.gen_range(6));
        let mut client = cluster.client(p);
        if rng.gen_bool(0.5) {
            client.push(step).unwrap();
        } else {
            client.pop().unwrap();
        }
        if rng.gen_bool(0.2) {
            cluster.run_round();
        }
    }
    cluster.run_until_all_complete(100_000).unwrap();
    check_stack(cluster.history()).assert_consistent();
}

/// Position reuse with tickets: push/pop/push/pop on the same stack slot must
/// return the right elements (the Section VI motivating example).
#[test]
fn stack_position_reuse_is_disambiguated_by_tickets() {
    let mut cluster = Skueue::builder()
        .processes(4)
        .stack()
        .seed(8)
        .build()
        .unwrap();
    // Interleave so the operations land in different batches and reuse
    // position 1 repeatedly.
    for round in 0..6u64 {
        let push = cluster.client(ProcessId(0)).push(100 + round).unwrap();
        cluster.run_until_done(&[push], 2_000).unwrap();
        let pop = cluster.client(ProcessId(1)).pop().unwrap();
        let outcome = cluster.run_until_done(&[pop], 2_000).unwrap().remove(0);
        // Each pop must return exactly the value pushed in this iteration.
        assert_eq!(outcome.value(), Some(100 + round));
    }
    check_stack(cluster.history()).assert_consistent();
}

/// Local combining (ablation E9 sanity): a process that alternates push/pop
/// resolves everything locally, without anchor round trips, and every pop
/// ticket resolves to its own push's payload.
#[test]
fn local_combining_resolves_alternating_workload_instantly() {
    let mut cluster = Skueue::builder()
        .processes(8)
        .stack()
        .seed(13)
        .build()
        .unwrap();
    let mut pairs = Vec::new();
    for i in 0..40u64 {
        let push = cluster.client(ProcessId(3)).push(i).unwrap();
        let pop = cluster.client(ProcessId(3)).pop().unwrap();
        pairs.push((i, push, pop));
    }
    cluster.run_round();
    assert_eq!(cluster.open_requests(), 0);
    assert_eq!(cluster.locally_combined(), 80);
    for (value, push, pop) in pairs {
        assert!(cluster.status(push).is_done());
        assert_eq!(cluster.outcome(pop).unwrap().value(), Some(value));
    }
    check_stack(cluster.history()).assert_consistent();
}

/// Join while a request load is running: the new processes integrate and the
/// history stays consistent.
#[test]
fn join_under_load_is_consistent() {
    let mut cluster = Skueue::builder().processes(6).seed(31).build().unwrap();
    for i in 0..30u64 {
        cluster.client(ProcessId(i % 6)).enqueue(i).unwrap();
    }
    cluster.run_rounds(5);
    let new_a = cluster.join(None).unwrap();
    let new_b = cluster.join(Some(ProcessId(2))).unwrap();
    cluster
        .run_until(
            |c| c.process_is_active(new_a) && c.process_is_active(new_b),
            60_000,
        )
        .unwrap();
    // New processes serve requests immediately.
    let mut tickets = Vec::new();
    for i in 0..10u64 {
        tickets.push(cluster.client(new_a).enqueue(1000 + i).unwrap());
        tickets.push(cluster.client(new_b).dequeue().unwrap());
    }
    cluster.run_until_done(&tickets, 30_000).unwrap();
    check_queue(cluster.history()).assert_consistent();
    assert_eq!(cluster.active_processes(), 8);
}

/// Leave with data handover: elements stored at the leaving process are still
/// dequeued afterwards, exactly once, in FIFO order.
#[test]
fn leave_preserves_all_elements() {
    let mut cluster = Skueue::builder().processes(7).seed(17).build().unwrap();
    for i in 0..56u64 {
        cluster.client(ProcessId(i % 7)).enqueue(i).unwrap();
    }
    cluster.run_until_all_complete(10_000).unwrap();

    let mut left = Vec::new();
    for p in (0..7u64).map(ProcessId) {
        if left.len() == 2 {
            break;
        }
        if cluster.leave(p).is_ok() {
            left.push(p);
        }
    }
    assert_eq!(left.len(), 2);
    cluster
        .run_until(|c| left.iter().all(|&p| c.process_has_left(p)), 60_000)
        .unwrap();
    assert_eq!(cluster.active_processes(), 5);

    let survivors = cluster.active_process_ids();
    let gets: Vec<OpTicket> = (0..56u64)
        .map(|i| {
            cluster
                .client(survivors[(i as usize) % survivors.len()])
                .dequeue()
                .unwrap()
        })
        .collect();
    let outcomes = cluster.run_until_done(&gets, 30_000).unwrap();
    assert!(
        outcomes.iter().all(|o| !o.is_empty()),
        "no element may be lost"
    );
    check_queue(cluster.history()).assert_consistent();
}

/// Mixed churn: joins and leaves in the same update phases, followed by a
/// full drain of the queue.
#[test]
fn mixed_churn_scenario_is_consistent() {
    let result = skueue::workloads::run_churn_scenario(8, 4, 3, 99);
    assert!(result.consistent);
    assert_eq!(result.final_processes, 9);
    assert!(result.join_rounds > 0 && result.leave_rounds > 0);
}

/// The baseline comparison (ablation E8): an overloaded central server has
/// linearly growing latency, Skueue does not.
#[test]
fn central_baseline_saturates_where_skueue_does_not() {
    let skueue_result = run_per_node_rate(
        ScenarioParams::per_node_rate(40, Mode::Queue, 1.0).with_generation_rounds(25),
    );
    let central = skueue::workloads::run_central_baseline(40, 1.0, 0.5, 25, 2, 7);
    assert!(skueue_result.consistent);
    // 40 requests/round against a capacity of 2/round: the central server's
    // queueing delay grows linearly with the backlog, far beyond Skueue's
    // aggregation latency at the same offered load.
    assert!(
        central.avg_rounds_per_request > skueue_result.avg_rounds_per_request * 1.5,
        "central {} vs skueue {}",
        central.avg_rounds_per_request,
        skueue_result.avg_rounds_per_request
    );
}

/// The churn instants in the trace log, in log order: `(round, pid, shard,
/// joined)` for every "process joined" / "process left" instant of the
/// Chrome export (one event a line, `ts` in microseconds of 1000 a round).
fn churn_instants(chrome: &str) -> Vec<(u64, u64, u64, bool)> {
    let field = |line: &str, key: &str| -> u64 {
        let at = line
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {line}"))
            + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().unwrap()
    };
    chrome
        .lines()
        .filter_map(|line| {
            let joined = line.contains("\"name\":\"process joined p");
            (joined || line.contains("\"name\":\"process left p")).then(|| {
                let round = field(line, "\"ts\":") / 1000;
                (round, field(line, " p"), field(line, "\"tid\":"), joined)
            })
        })
        .collect()
}

/// A sharded, traced cluster with joins and leaves — two of each started
/// in the same round — under a light load: every `ProcessJoined` carries
/// the round after which its process first may issue, every `ProcessLeft`
/// the round after which all three of its nodes have left, on the
/// process's shard, and the instants of one round come in ascending pid
/// order.
#[test]
fn churn_instants_carry_the_round_the_transition_settled_in_pid_order() {
    let mut cluster = Skueue::builder()
        .processes(12)
        .shards(2)
        .seed(19)
        .trace(TraceLevel::Spans)
        .build()
        .unwrap();
    let mut rng = SimRng::new(7);
    let mut joiners = Vec::new();
    let mut leavers = Vec::new();
    // (pid, the round after which it first may issue or has left, joined).
    let mut expected: Vec<(u64, u64, bool)> = Vec::new();
    for step in 0..400u64 {
        match step {
            5 | 40 => {
                joiners.push(cluster.join(None).unwrap());
                joiners.push(cluster.join(None).unwrap());
            }
            20 | 60 => {
                let mut picked = 0;
                for p in (0..12).map(ProcessId) {
                    if picked < 2 && cluster.leave(p).is_ok() {
                        leavers.push(p);
                        picked += 1;
                    }
                }
            }
            _ => {}
        }
        let p = ProcessId(rng.gen_range(12));
        if cluster.process_may_issue(p) {
            cluster.client(p).enqueue(step).unwrap();
        }
        cluster.run_round();
        let round = cluster.round();
        let settled = joiners
            .iter()
            .map(|&j| (j, cluster.process_may_issue(j), true))
            .chain(
                leavers
                    .iter()
                    .map(|&l| (l, cluster.process_has_left(l), false)),
            );
        for (p, now, joined) in settled.collect::<Vec<_>>() {
            let seen = expected
                .iter()
                .any(|&(q, _, j)| q == p.raw() && j == joined);
            if now && !seen {
                expected.push((p.raw(), round, joined));
            }
        }
    }
    cluster.run_until_all_complete(20_000).unwrap();
    assert_eq!(joiners.len(), 4);
    assert_eq!(leavers.len(), 4);
    assert_eq!(expected.len(), 8, "every transition settled: {expected:?}");

    let instants = churn_instants(&cluster.export_chrome_trace());
    assert_eq!(instants.len(), 8, "{instants:?}");
    for &(round, pid, shard, joined) in &instants {
        assert!(
            expected.contains(&(pid, round, joined)),
            "p{pid} (joined: {joined}) stamped round {round}; expected {expected:?}"
        );
        assert_eq!(Some(shard as u32), cluster.shard_of_process(ProcessId(pid)));
    }
    for pair in instants.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "instants out of round order");
        if pair[0].0 == pair[1].0 {
            assert!(
                pair[0].1 < pair[1].1,
                "one round's instants by pid: {pair:?}"
            );
        }
    }
    assert!(
        instants.windows(2).any(|pair| pair[0].0 == pair[1].0),
        "two transitions settle in one round: {instants:?}"
    );
}
