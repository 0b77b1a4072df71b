//! Churn parked at an idle anchor: ROADMAP item 1, cause (D), pinned.
//!
//! Join and leave counts that reach a shard's anchor in a drain wave — one
//! sent while an update phase runs — wait in `AnchorState::pending_churn`
//! for the next phase, and only a non-drain wave at the anchor starts it.
//! Once the load has stopped no such wave comes, so a leaver whose count was
//! parked that way waits for ever.  This is `tests/node_view.rs`'s churn
//! driver with its draws from stream 9 instead of 3: leaver p29 (shard 1)
//! was granted by n59, which no phase since the first has flagged, so n59
//! never reports the count again; it reached shard 1's anchor in a drain
//! wave during phase 3, and phase 4 never starts.
//!
//! Starting the next phase at the anchor's own phase end when it has no wave
//! work of its own lets p29 leave, but that also fires while the load runs
//! (PR-4 golden seed 1, synchronous, S = 1, round 41) and moves the golden,
//! so it is not the fix.  Like `tests/churn_under_load.rs`'s grid, the test
//! holds the transitions that never finish to an explicit list: a fix
//! empties it, and a change that strands another transition fails too.

use skueue::prelude::*;

const PROCESSES: u64 = 40;
/// Rounds, after the load has drained, the joiners and leavers get.
const TRANSITION_ROUNDS: u64 = 1_000;
/// The transitions that never finish, by process.
const KNOWN_STUCK: [ProcessId; 1] = [ProcessId(29)];

#[test]
fn churn_parked_at_an_idle_anchor_is_the_known_stuck_leave() {
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES as usize)
        .shards(2)
        .seed(42)
        .hash_seed(42)
        .build()
        .expect("valid configuration");
    let mut rng = SimRng::new(9);
    let (mut joiners, mut leavers) = (Vec::new(), Vec::new());
    for round in 0..120u64 {
        for _ in 0..5 {
            let p = ProcessId(rng.next_u64() % PROCESSES);
            if cluster.process_may_issue(p) {
                let mut client = cluster.client(p);
                if rng.next_u64() & 1 == 0 {
                    client.enqueue(round).expect("may issue");
                } else {
                    client.dequeue().expect("may issue");
                }
            }
        }
        // A join and a leave in the same round, every 20 rounds.
        if round % 20 == 5 {
            joiners.push(cluster.join(None).expect("a populated shard"));
            loop {
                let p = ProcessId(rng.next_u64() % PROCESSES);
                if cluster.process_may_issue(p) && cluster.leave(p).is_ok() {
                    leavers.push(p);
                    break;
                }
            }
        }
        cluster.run_round();
    }
    cluster
        .run_until_all_complete(20_000)
        .expect("the load drains");
    let _ = cluster.run_until(
        |c| {
            joiners.iter().all(|&p| c.process_is_active(p))
                && leavers.iter().all(|&p| c.process_has_left(p))
        },
        TRANSITION_ROUNDS,
    );
    let stuck: Vec<ProcessId> = leavers
        .iter()
        .copied()
        .filter(|&p| !cluster.process_has_left(p))
        .chain(
            joiners
                .iter()
                .copied()
                .filter(|&p| !cluster.process_is_active(p)),
        )
        .collect();
    assert_eq!(stuck, KNOWN_STUCK, "transitions still open");
    // The stuck leave is parked churn: its shard's anchor holds a count no
    // phase will take.
    let shard = cluster
        .shard_of_process(KNOWN_STUCK[0])
        .expect("a known process");
    let anchor = cluster.shard_anchor_states()[shard as usize].expect("a shard anchor");
    assert!(anchor.pending_churn > 0, "{anchor:?}");
    check_queue_sharded(cluster.history(), &cluster.shard_map()).assert_consistent();
}
