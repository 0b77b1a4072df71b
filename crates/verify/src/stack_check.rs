//! Sequential-consistency checking for the stack variant (Section VI).

use crate::check::{check, Discipline};
use crate::history::History;
use crate::report::ConsistencyReport;
#[cfg(test)]
use crate::{
    history::{OpKind, OpResult},
    report::Violation,
};
use skueue_dht::Payload;

/// Checks the LIFO version of Definition 1 and replays the history in the
/// witnessed order on a reference sequential stack, which must reproduce
/// every response.  The paper adjusts Definition 1 for LIFO semantics; the
/// conditions on the witnessed order `≺` are:
///
/// 1. a matched `PUSH()` precedes its `POP()`,
/// 2. (a) no `⊥`-pop lies strictly between a matched push and its pop,
///    (b) no *unmatched* push lies strictly between a matched push and its
///    pop (an element sitting on top of the stack would have to leave first),
/// 3. matched push/pop intervals never *cross*: `e₁ ≺ e₂ ≺ d₁ ≺ d₂` is
///    forbidden (they must be disjoint or properly nested),
/// 4. every process's requests appear in `≺` in their issue order.
///
/// The Skueue stack passes the replay because locally combined pairs are
/// placed adjacently in the witnessed order (see [`crate::OrderKey`]).
pub fn check_stack<T: Payload>(history: &History<T>) -> ConsistencyReport {
    check(history, Discipline::Lifo, None)
}

/// The replay's findings alone.
#[cfg(test)]
fn check_stack_replay<T: Payload>(history: &History<T>, report: &mut ConsistencyReport) {
    let violations = check_stack(history).violations.into_iter();
    report
        .violations
        .extend(violations.filter(|v| matches!(v, Violation::ReplayMismatch { .. })));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{OpRecord, OrderKey};
    use skueue_sim::ids::{ProcessId, RequestId};

    fn rid(p: u64, s: u64) -> RequestId {
        RequestId::new(ProcessId(p), s)
    }

    /// The replay check alone.
    fn replay(h: &History<u64>) -> ConsistencyReport {
        let mut report = ConsistencyReport::default();
        check_stack_replay(h, &mut report);
        report
    }

    fn push(p: u64, s: u64, order: u64) -> OpRecord<u64> {
        OpRecord {
            id: rid(p, s),
            kind: OpKind::Enqueue,
            value: s,
            result: OpResult::Enqueued,
            order: OrderKey::anchor(order, ProcessId(p)),
            issued_round: 0,
            completed_round: 1,
        }
    }

    fn pop(p: u64, s: u64, order: u64, from: Option<RequestId>) -> OpRecord<u64> {
        OpRecord {
            id: rid(p, s),
            kind: OpKind::Dequeue,
            value: from.map(|r| r.seq).unwrap_or(0),
            result: from.map(OpResult::Returned).unwrap_or(OpResult::Empty),
            order: OrderKey::anchor(order, ProcessId(p)),
            issued_round: 0,
            completed_round: 1,
        }
    }

    #[test]
    fn lifo_history_passes() {
        // push A, push B, pop -> B, pop -> A, pop -> ⊥
        let h = History::from_records(vec![
            push(0, 0, 1),
            push(0, 1, 2),
            pop(1, 0, 3, Some(rid(0, 1))),
            pop(1, 1, 4, Some(rid(0, 0))),
            pop(1, 2, 5, None),
        ]);
        check_stack(&h).assert_consistent();
    }

    #[test]
    fn fifo_order_fails_the_stack_checker() {
        // push A, push B, pop -> A (FIFO behaviour) is not LIFO.
        let h = History::from_records(vec![
            push(0, 0, 1),
            push(0, 1, 2),
            pop(1, 0, 3, Some(rid(0, 0))),
        ]);
        let report = check_stack(&h);
        assert!(!report.is_consistent());
    }

    #[test]
    fn crossing_intervals_detected() {
        // A pushed, B pushed, A popped, B popped: crossing (not nested).
        let h = History::from_records(vec![
            push(0, 0, 1),
            push(1, 0, 2),
            pop(2, 0, 3, Some(rid(0, 0))),
            pop(2, 1, 4, Some(rid(1, 0))),
        ]);
        let report = check_stack(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LifoViolation { .. })));
        assert!(!replay(&h).is_consistent());
    }

    #[test]
    fn nested_intervals_pass() {
        // A pushed, B pushed, B popped, A popped — properly nested.
        let h = History::from_records(vec![
            push(0, 0, 1),
            push(1, 0, 2),
            pop(2, 0, 3, Some(rid(1, 0))),
            pop(2, 1, 4, Some(rid(0, 0))),
        ]);
        check_stack(&h).assert_consistent();
    }

    #[test]
    fn unmatched_push_inside_interval_detected() {
        // A pushed, B pushed (never popped), A popped: B is on top, so the
        // pop of A cannot happen while B is unmatched.
        let h = History::from_records(vec![
            push(0, 0, 1),
            push(1, 0, 2),
            pop(2, 0, 3, Some(rid(0, 0))),
        ]);
        let report = check_stack(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::UnmatchedEnqueueOvertaken { .. })));
    }

    #[test]
    fn empty_pop_inside_interval_detected() {
        let h = History::from_records(vec![
            push(0, 0, 1),
            pop(1, 0, 2, None),
            pop(2, 0, 3, Some(rid(0, 0))),
        ]);
        let report = check_stack(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::EmptyDequeueBetweenMatch { .. })));
        assert!(!replay(&h).is_consistent());
    }

    #[test]
    fn leftover_elements_are_fine_for_the_stack() {
        let h = History::from_records(vec![
            push(0, 0, 1),
            push(0, 1, 2),
            pop(1, 0, 3, Some(rid(0, 1))),
        ]);
        check_stack(&h).assert_consistent();
    }

    #[test]
    fn locally_combined_pairs_with_minor_orders_pass() {
        // Process 3 issues a batched push (major 1), then a locally combined
        // push/pop pair anchored after it (majors 1, minors 1 and 2).
        let combined_push = OpRecord {
            id: rid(3, 1),
            kind: OpKind::Enqueue,
            value: 7,
            result: OpResult::Enqueued,
            order: OrderKey::local(1, ProcessId(3), 1),
            issued_round: 0,
            completed_round: 0,
        };
        let combined_pop = OpRecord {
            id: rid(3, 2),
            kind: OpKind::Dequeue,
            value: 7,
            result: OpResult::Returned(rid(3, 1)),
            order: OrderKey::local(1, ProcessId(3), 2),
            issued_round: 0,
            completed_round: 0,
        };
        let h = History::from_records(vec![
            push(3, 0, 1),
            combined_push,
            combined_pop,
            pop(4, 0, 2, Some(rid(3, 0))),
        ]);
        check_stack(&h).assert_consistent();
    }

    #[test]
    fn process_order_violation_detected() {
        let h = History::from_records(vec![push(0, 0, 5), push(0, 1, 3)]);
        let report = check_stack(&h);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ProcessOrderViolation { .. })));
    }

    #[test]
    fn empty_history_is_consistent() {
        check_stack(&History::<u64>::new()).assert_consistent();
    }
}
