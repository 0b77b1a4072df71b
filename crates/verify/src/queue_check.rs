//! Sequential-consistency checking for the queue (Definition 1).

use crate::check::{check, Discipline};
use crate::history::History;
use crate::report::ConsistencyReport;
#[cfg(test)]
use crate::{
    history::{OpKind, OpRecord, OpResult, OrderKey},
    report::Violation,
};
use skueue_dht::Payload;
#[cfg(test)]
use skueue_sim::ids::RequestId;

/// Checks the four properties of Definition 1 and replays the history in
/// the witnessed order on a reference sequential FIFO queue, which must
/// reproduce every response — the oracle used by integration tests.  The
/// replay is strictly stronger than Definition 1 for histories in which
/// some enqueues are never matched; the Skueue protocol satisfies it.
pub fn check_queue<T: Payload>(history: &History<T>) -> ConsistencyReport {
    check(history, Discipline::Fifo, None)
}

/// The replay's findings alone.
#[cfg(test)]
fn check_queue_replay<T: Payload>(history: &History<T>, report: &mut ConsistencyReport) {
    let violations = check_queue(history).violations.into_iter();
    report
        .violations
        .extend(violations.filter(|v| matches!(v, Violation::ReplayMismatch { .. })));
}

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_sim::ids::ProcessId;

    fn rid(p: u64, s: u64) -> RequestId {
        RequestId::new(ProcessId(p), s)
    }

    fn enq(p: u64, s: u64, order: u64) -> OpRecord<u64> {
        OpRecord {
            id: rid(p, s),
            kind: OpKind::Enqueue,
            value: 100 + s,
            result: OpResult::Enqueued,
            order: OrderKey::anchor(order, ProcessId(p)),
            issued_round: 0,
            completed_round: 1,
        }
    }

    fn deq(p: u64, s: u64, order: u64, from: Option<RequestId>) -> OpRecord<u64> {
        OpRecord {
            id: rid(p, s),
            kind: OpKind::Dequeue,
            value: from.map(|r| 100 + r.seq).unwrap_or(0),
            result: from.map(OpResult::Returned).unwrap_or(OpResult::Empty),
            order: OrderKey::anchor(order, ProcessId(p)),
            issued_round: 0,
            completed_round: 1,
        }
    }

    fn history(records: Vec<OpRecord<u64>>) -> History<u64> {
        History::from_records(records)
    }

    /// The replay check alone.
    fn replay(h: &History<u64>) -> ConsistencyReport {
        let mut report = ConsistencyReport::default();
        check_queue_replay(h, &mut report);
        report
    }

    /// `(DuplicateRequest, ProcessOrderViolation, PhantomElement,
    /// ReplayMismatch)` counts of a report.
    fn counts(report: &ConsistencyReport) -> [usize; 4] {
        let mut counts = [0; 4];
        for v in &report.violations {
            match v {
                Violation::DuplicateRequest { .. } => counts[0] += 1,
                Violation::ProcessOrderViolation { .. } => counts[1] += 1,
                Violation::PhantomElement { .. } => counts[2] += 1,
                Violation::ReplayMismatch { .. } => counts[3] += 1,
                other => panic!("unexpected {other}"),
            }
        }
        counts
    }

    /// Definition 1 and the replay share the well-formedness checks and
    /// program order; each violation of those is reported once, not once
    /// per pass (and so once per shard by `check_queue_sharded`).
    #[test]
    fn a_violation_both_passes_see_is_reported_once() {
        let duplicate_id = history(vec![enq(0, 0, 1), enq(0, 0, 2)]);
        assert_eq!(counts(&check_queue(&duplicate_id)), [1, 0, 0, 0]);
        let inversion = history(vec![enq(0, 0, 5), enq(0, 1, 3)]);
        assert_eq!(counts(&check_queue(&inversion)), [0, 1, 0, 0]);
        // The replay's own finding about the phantom stays, once.
        let phantom = history(vec![deq(1, 0, 1, Some(rid(9, 9)))]);
        assert_eq!(counts(&check_queue(&phantom)), [0, 0, 1, 1]);
    }

    #[test]
    fn empty_history_is_consistent() {
        let h = History::<u64>::new();
        assert!(check_queue(&h).is_consistent());
    }

    #[test]
    fn simple_fifo_history_passes() {
        // p0: enq a, enq b; p1: deq -> a, deq -> b, deq -> ⊥
        let h = history(vec![
            enq(0, 0, 1),
            enq(0, 1, 2),
            deq(1, 0, 3, Some(rid(0, 0))),
            deq(1, 1, 4, Some(rid(0, 1))),
            deq(1, 2, 5, None),
        ]);
        let report = check_queue(&h);
        report.assert_consistent();
        assert_eq!(report.matched_pairs, 2);
        assert_eq!(report.empty_dequeues, 1);
    }

    #[test]
    fn leftover_elements_are_fine() {
        let h = history(vec![
            enq(0, 0, 1),
            deq(1, 0, 2, Some(rid(0, 0))),
            enq(0, 1, 3),
            enq(0, 2, 4),
        ]);
        check_queue(&h).assert_consistent();
    }

    #[test]
    fn payload_mismatch_detected() {
        // The dequeue claims the element of enq(0,0) but returns a payload
        // different from the one that enqueue inserted.
        let mut bad = deq(1, 0, 2, Some(rid(0, 0)));
        bad.value = 999;
        let h = history(vec![enq(0, 0, 1), bad]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::PayloadMismatch { .. })));
        // Byte-identical payloads pass.
        let h = history(vec![enq(0, 0, 1), deq(1, 0, 2, Some(rid(0, 0)))]);
        check_queue(&h).assert_consistent();
    }

    #[test]
    fn generic_payload_histories_check() {
        // The checkers are payload-generic: a Vec<u8> history round-trips.
        let enq = OpRecord {
            id: rid(0, 0),
            kind: OpKind::Enqueue,
            value: vec![1u8, 2, 3],
            result: OpResult::Enqueued,
            order: OrderKey::anchor(1, skueue_sim::ids::ProcessId(0)),
            issued_round: 0,
            completed_round: 1,
        };
        let deq = OpRecord {
            id: rid(1, 0),
            kind: OpKind::Dequeue,
            value: vec![1u8, 2, 3],
            result: OpResult::Returned(rid(0, 0)),
            order: OrderKey::anchor(2, skueue_sim::ids::ProcessId(1)),
            issued_round: 0,
            completed_round: 1,
        };
        let h: History<Vec<u8>> = History::from_records(vec![enq.clone(), deq.clone()]);
        check_queue(&h).assert_consistent();
        let mut bad = deq;
        bad.value = vec![9];
        let h: History<Vec<u8>> = History::from_records(vec![enq, bad]);
        assert!(!check_queue(&h).is_consistent());
    }

    #[test]
    fn duplicate_order_detected() {
        // Two requests of the same process claiming the same order key.
        let h = history(vec![enq(0, 0, 1), enq(0, 1, 1)]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateOrder { .. })));
    }

    #[test]
    fn duplicate_request_detected() {
        let h = history(vec![enq(0, 0, 1), enq(0, 0, 2)]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateRequest { .. })));
    }

    #[test]
    fn phantom_element_detected() {
        let h = history(vec![deq(1, 0, 1, Some(rid(9, 9)))]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::PhantomElement { .. })));
    }

    #[test]
    fn duplicate_delivery_detected() {
        let h = history(vec![
            enq(0, 0, 1),
            deq(1, 0, 2, Some(rid(0, 0))),
            deq(2, 0, 3, Some(rid(0, 0))),
        ]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateDelivery { .. })));
    }

    #[test]
    fn dequeue_before_enqueue_detected() {
        let h = history(vec![enq(0, 0, 5), deq(1, 0, 2, Some(rid(0, 0)))]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DequeueBeforeEnqueue { .. })));
        // Replay also rejects it (the dequeue happens on an empty queue).
        assert!(!replay(&h).is_consistent());
    }

    #[test]
    fn empty_dequeue_between_match_detected() {
        // enq(1) ... empty-deq(2) ... deq(3)->element — the ⊥ should not be
        // possible while the element is in the queue.
        let h = history(vec![
            enq(0, 0, 1),
            deq(1, 0, 2, None),
            deq(2, 0, 3, Some(rid(0, 0))),
        ]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::EmptyDequeueBetweenMatch { .. })));
        assert!(!replay(&h).is_consistent());
    }

    #[test]
    fn unmatched_enqueue_overtaken_detected() {
        // enq A (never returned), enq B, deq -> B. FIFO would require A first.
        let h = history(vec![
            enq(0, 0, 1),
            enq(0, 1, 2),
            deq(1, 0, 3, Some(rid(0, 1))),
        ]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnmatchedEnqueueOvertaken { .. })));
        assert!(!replay(&h).is_consistent());
    }

    #[test]
    fn fifo_violation_detected() {
        // A enqueued before B but B dequeued first.
        let h = history(vec![
            enq(0, 0, 1),
            enq(0, 1, 2),
            deq(1, 0, 3, Some(rid(0, 1))),
            deq(1, 1, 4, Some(rid(0, 0))),
        ]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::FifoViolation { .. })));
        assert!(!replay(&h).is_consistent());
    }

    #[test]
    fn process_order_violation_detected() {
        // Process 0 issues seq 0 then seq 1, but the order places seq 1 first.
        let h = history(vec![enq(0, 0, 5), enq(0, 1, 3)]);
        let report = check_queue(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ProcessOrderViolation { .. })));
    }

    #[test]
    fn replay_detects_wrong_element_even_when_def1_passes_locally() {
        // Two enqueues from different processes and a dequeue that returns the
        // second one while the first is never returned.
        let h = history(vec![
            enq(0, 0, 1),
            enq(1, 0, 2),
            deq(2, 0, 3, Some(rid(1, 0))),
        ]);
        let replay = replay(&h);
        assert!(!replay.is_consistent());
        assert!(replay
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplayMismatch { .. })));
    }

    #[test]
    fn replay_detects_bogus_empty() {
        let h = history(vec![enq(0, 0, 1), deq(1, 0, 2, None)]);
        let replay = replay(&h);
        assert!(!replay.is_consistent());
    }

    #[test]
    fn interleaved_multi_process_history_passes() {
        // Three processes, interleaved operations consistent with FIFO.
        let h = history(vec![
            enq(0, 0, 1),                  // A
            enq(1, 0, 2),                  // B
            deq(2, 0, 3, Some(rid(0, 0))), // -> A
            enq(0, 1, 4),                  // C
            deq(1, 1, 5, Some(rid(1, 0))), // -> B
            deq(2, 1, 6, Some(rid(0, 1))), // -> C
            deq(0, 2, 7, None),            // ⊥
        ]);
        check_queue(&h).assert_consistent();
    }
}
