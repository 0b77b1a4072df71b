//! Cross-shard sequential-consistency checking (Definition 1 per anchor
//! shard, merged by the fixed interleaving rule).

use crate::check::{check, Discipline};
use crate::history::History;
use crate::report::ConsistencyReport;
#[cfg(test)]
use crate::{history::OpRecord, report::Violation};
use skueue_dht::Payload;
use skueue_shard::ShardMap;

/// Checks a sharded-queue history against the shard layout it was produced
/// under.
///
/// A sharded Skueue deployment partitions the queue into `S` independent
/// anchor shards; every process — and therefore every operation — belongs to
/// exactly one shard, deterministically (`skueue_shard::ShardMap`).  The
/// semantic object is the *sharded queue*: `S` FIFO lanes with deterministic
/// lane selection by origin process.  The protocol witnesses one global total
/// order `≺` — the lexicographic merge `(wave_epoch, shard_id, local_order)`
/// of the per-shard anchor orders — and this checker verifies that `≺` is a
/// sequentially consistent execution of that object:
///
/// 1. **Shard discipline** — every record's order key names exactly the
///    shard the map assigns to its origin process (so elements can never
///    cross lanes silently; a dequeue returning another lane's element is a
///    phantom in its own).
/// 2. **Definition 1 per lane** — each lane, under the global order
///    restricted to it, passes the full queue check (properties 1–3 *and*
///    the sequential replay).  The restriction of the merge to one shard is
///    exactly the shard's own anchor order, so this checks each lane as a
///    real FIFO queue.
/// 3. **Program order on the merged order** — every process's requests
///    appear in `≺` in issue order (property 4 globally, so a cross-shard
///    ordering bug cannot hide behind a tagging bug).
///
/// With `S = 1` there is one lane and this is [`crate::check_queue`].
pub fn check_queue_sharded<T: Payload>(history: &History<T>, map: &ShardMap) -> ConsistencyReport {
    check(history, Discipline::Fifo, Some(map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{OpKind, OpResult, OrderKey};
    use skueue_sim::ids::{ProcessId, RequestId};

    /// A 2-shard map together with one process id per shard (found by
    /// probing the deterministic assignment).
    fn two_shard_fixture() -> (ShardMap, ProcessId, ProcessId) {
        let map = ShardMap::new(2, 0x5EED);
        let p0 = (0..64u64)
            .map(ProcessId)
            .find(|&p| map.shard_of_process(p) == 0)
            .expect("some process maps to shard 0");
        let p1 = (0..64u64)
            .map(ProcessId)
            .find(|&p| map.shard_of_process(p) == 1)
            .expect("some process maps to shard 1");
        (map, p0, p1)
    }

    fn rec(
        p: ProcessId,
        seq: u64,
        kind: OpKind,
        result: OpResult,
        order: OrderKey,
    ) -> OpRecord<u64> {
        OpRecord {
            id: RequestId::new(p, seq),
            kind,
            value: 0,
            result,
            order,
            issued_round: 0,
            completed_round: 1,
        }
    }

    #[test]
    fn single_shard_delegates_to_check_queue() {
        let map = ShardMap::new(1, 0);
        let p = ProcessId(0);
        let h = History::from_records(vec![
            rec(
                p,
                0,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::anchor(1, p),
            ),
            rec(
                p,
                1,
                OpKind::Dequeue,
                OpResult::Returned(RequestId::new(p, 0)),
                OrderKey::anchor(2, p),
            ),
        ]);
        check_queue_sharded(&h, &map).assert_consistent();
        // And an inconsistent history is still rejected.
        let bad = History::from_records(vec![
            rec(
                p,
                0,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::anchor(5, p),
            ),
            rec(
                p,
                1,
                OpKind::Dequeue,
                OpResult::Returned(RequestId::new(p, 0)),
                OrderKey::anchor(2, p),
            ),
        ]);
        assert!(!check_queue_sharded(&bad, &map).is_consistent());
    }

    #[test]
    fn independent_lanes_are_consistent() {
        let (map, p0, p1) = two_shard_fixture();
        let s0 = map.shard_of_process(p0);
        let s1 = map.shard_of_process(p1);
        // Each lane: enqueue then matched dequeue, interleaved across shards
        // by the (wave, shard, local) merge.
        let h = History::from_records(vec![
            rec(
                p0,
                0,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::sharded(1, s0, 1, p0),
            ),
            rec(
                p1,
                0,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::sharded(1, s1, 1, p1),
            ),
            rec(
                p1,
                1,
                OpKind::Dequeue,
                OpResult::Returned(RequestId::new(p1, 0)),
                OrderKey::sharded(2, s1, 2, p1),
            ),
            rec(
                p0,
                1,
                OpKind::Dequeue,
                OpResult::Returned(RequestId::new(p0, 0)),
                OrderKey::sharded(2, s0, 2, p0),
            ),
        ]);
        let report = check_queue_sharded(&h, &map);
        report.assert_consistent();
        assert_eq!(report.matched_pairs, 2);
    }

    #[test]
    fn fifo_violation_inside_a_shard_is_detected() {
        let (map, p0, _) = two_shard_fixture();
        let s0 = map.shard_of_process(p0);
        // Two enqueues in shard 0, dequeued out of order.
        let h = History::from_records(vec![
            rec(
                p0,
                0,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::sharded(1, s0, 1, p0),
            ),
            rec(
                p0,
                1,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::sharded(1, s0, 2, p0),
            ),
            rec(
                p0,
                2,
                OpKind::Dequeue,
                OpResult::Returned(RequestId::new(p0, 1)),
                OrderKey::sharded(2, s0, 3, p0),
            ),
            rec(
                p0,
                3,
                OpKind::Dequeue,
                OpResult::Returned(RequestId::new(p0, 0)),
                OrderKey::sharded(2, s0, 4, p0),
            ),
        ]);
        let report = check_queue_sharded(&h, &map);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::FifoViolation { .. })));
    }

    #[test]
    fn cross_lane_delivery_is_detected() {
        // A dequeue in shard 1 returning an element enqueued in shard 0 is a
        // phantom inside shard 1's lane.
        let (map, p0, p1) = two_shard_fixture();
        let s0 = map.shard_of_process(p0);
        let s1 = map.shard_of_process(p1);
        let h = History::from_records(vec![
            rec(
                p0,
                0,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::sharded(1, s0, 1, p0),
            ),
            rec(
                p1,
                0,
                OpKind::Dequeue,
                OpResult::Returned(RequestId::new(p0, 0)),
                OrderKey::sharded(2, s1, 1, p1),
            ),
        ]);
        let report = check_queue_sharded(&h, &map);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::PhantomElement { .. })));
    }

    #[test]
    fn shard_mismatch_is_detected() {
        let (map, p0, _) = two_shard_fixture();
        let wrong = map.shard_of_process(p0) ^ 1;
        let h = History::from_records(vec![rec(
            p0,
            0,
            OpKind::Enqueue,
            OpResult::Enqueued,
            OrderKey::sharded(1, wrong, 1, p0),
        )]);
        let report = check_queue_sharded(&h, &map);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ShardMismatch { .. })));
    }

    #[test]
    fn program_order_across_waves_is_checked_on_the_merge() {
        let (map, p0, _) = two_shard_fixture();
        let s0 = map.shard_of_process(p0);
        // seq 0 ordered in wave 3, seq 1 in wave 2 — program order broken on
        // the merged order even though locals are unique.
        let h = History::from_records(vec![
            rec(
                p0,
                0,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::sharded(3, s0, 5, p0),
            ),
            rec(
                p0,
                1,
                OpKind::Enqueue,
                OpResult::Enqueued,
                OrderKey::sharded(2, s0, 4, p0),
            ),
        ]);
        let report = check_queue_sharded(&h, &map);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ProcessOrderViolation { .. })));
    }
}
