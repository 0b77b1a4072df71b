//! Sequential-consistency checking for the stack variant (Section VI).
//!
//! The paper adjusts Definition 1 for LIFO semantics.  The corresponding
//! conditions on the witnessed order `≺` are:
//!
//! 1. a matched `PUSH()` precedes its `POP()`,
//! 2. (a) no `⊥`-pop lies strictly between a matched push and its pop,
//!    (b) no *unmatched* push lies strictly between a matched push and its
//!    pop (an element sitting on top of the stack would have to leave first),
//! 3. matched push/pop intervals never *cross*: `e₁ ≺ e₂ ≺ d₁ ≺ d₂` is
//!    forbidden (they must be disjoint or properly nested),
//! 4. every process's requests appear in `≺` in their issue order.
//!
//! [`check_stack_replay`] is the stronger oracle that replays the witnessed
//! order against a reference sequential stack; the Skueue stack satisfies it
//! because locally combined pairs are placed adjacently in the witnessed
//! order (see `OrderKey`).

use crate::history::{History, OpKind, OpResult};
use crate::queue_check::{check_process_order, prepare, PreparedMatching};
use crate::report::{ConsistencyReport, Violation};
use skueue_dht::Payload;
use skueue_sim::ids::RequestId;

/// Checks properties 1–3 of the adjusted Definition 1 (LIFO version) against
/// the witnessed order, on `prepared`'s matching and into its report
/// (property 4 is [`check_process_order`]).
pub(crate) fn check_stack_ordering<T: Payload>(
    history: &History<T>,
    prepared: &mut PreparedMatching,
) {
    let PreparedMatching {
        report,
        matched,
        unmatched_enqueues,
        empty_orders,
    } = prepared;

    // Property 1: push before its pop.
    for pair in matched.iter() {
        if pair.enqueue_order >= pair.dequeue_order {
            report.violations.push(Violation::DequeueBeforeEnqueue {
                enqueue: pair.enqueue,
                dequeue: pair.dequeue,
            });
        }
    }

    // Property 2a: no ⊥-pop strictly inside a matched interval.
    for pair in matched.iter() {
        let lo = pair.enqueue_order.min(pair.dequeue_order);
        let hi = pair.enqueue_order.max(pair.dequeue_order);
        let idx = empty_orders.partition_point(|&o| o <= lo);
        if idx < empty_orders.len() && empty_orders[idx] < hi {
            let offending_order = empty_orders[idx];
            let offender = history
                .records()
                .iter()
                .find(|r| r.order == offending_order && r.is_empty_dequeue())
                .map(|r| r.id)
                .unwrap_or(pair.dequeue);
            report.violations.push(Violation::EmptyDequeueBetweenMatch {
                enqueue: pair.enqueue,
                dequeue: pair.dequeue,
                empty_dequeue: offender,
            });
        }
    }

    // Property 2b: no unmatched push strictly inside a matched interval.
    if !unmatched_enqueues.is_empty() {
        let mut unmatched_orders: Vec<_> =
            unmatched_enqueues.iter().map(|&(id, o)| (o, id)).collect();
        unmatched_orders.sort_unstable();
        for pair in matched.iter() {
            let lo = pair.enqueue_order.min(pair.dequeue_order);
            let hi = pair.enqueue_order.max(pair.dequeue_order);
            let idx = unmatched_orders.partition_point(|&(o, _)| o <= lo);
            if idx < unmatched_orders.len() && unmatched_orders[idx].0 < hi {
                report
                    .violations
                    .push(Violation::UnmatchedEnqueueOvertaken {
                        unmatched_enqueue: unmatched_orders[idx].1,
                        matched_enqueue: pair.enqueue,
                        matched_dequeue: pair.dequeue,
                    });
            }
        }
    }

    // Property 3 (LIFO): matched intervals must not cross.  Sweep the
    // matched pairs in push order and keep a stack of open intervals: when a
    // pair's pop order is larger than the pop order of an interval opened
    // before it that is still open at its push, the intervals cross.
    let mut by_push = matched.clone();
    by_push.sort_by_key(|p| p.enqueue_order);
    // Sweep over all matched "events" in order of push; maintain a stack of
    // currently-open intervals by pop order.
    let mut open: Vec<(RequestId, crate::history::OrderKey)> = Vec::new();
    for pair in &by_push {
        // Close every interval whose pop happens before this push.
        while let Some(&(_, top_pop)) = open.last() {
            if top_pop < pair.enqueue_order {
                open.pop();
            } else {
                break;
            }
        }
        // All remaining open intervals must enclose this one.
        if let Some(&(outer_push, outer_pop)) = open.last() {
            if pair.dequeue_order > outer_pop {
                report.violations.push(Violation::LifoViolation {
                    first_push: outer_push,
                    second_push: pair.enqueue,
                });
            }
        }
        open.push((pair.enqueue, pair.dequeue_order));
    }
}

/// Replays the history in the witnessed order on a reference sequential
/// (LIFO) stack and checks every response, into `report`.
pub(crate) fn check_stack_replay<T: Payload>(history: &History<T>, report: &mut ConsistencyReport) {
    let mut stack: Vec<RequestId> = Vec::new();
    for record in history.sorted_by_order() {
        match record.kind {
            OpKind::Enqueue => stack.push(record.id),
            OpKind::Dequeue => {
                let expected = stack.pop();
                match (expected, record.result) {
                    (Some(exp), OpResult::Returned(got)) if exp == got => {}
                    (None, OpResult::Empty) => {}
                    (Some(exp), OpResult::Returned(got)) => {
                        report.violations.push(Violation::ReplayMismatch {
                            request: record.id,
                            detail: format!(
                                "popped element of {got}, sequential stack top is element of {exp}"
                            ),
                        });
                    }
                    (Some(exp), OpResult::Empty) => {
                        report.violations.push(Violation::ReplayMismatch {
                            request: record.id,
                            detail: format!(
                                "returned ⊥ but sequential stack top is element of {exp}"
                            ),
                        });
                    }
                    (None, OpResult::Returned(got)) => {
                        report.violations.push(Violation::ReplayMismatch {
                            request: record.id,
                            detail: format!(
                                "popped element of {got} but sequential stack is empty"
                            ),
                        });
                    }
                    (_, OpResult::Enqueued) => {
                        report.violations.push(Violation::ReplayMismatch {
                            request: record.id,
                            detail: "pop recorded with a push result".into(),
                        });
                    }
                }
            }
        }
    }
}

/// Runs both the adjusted-ordering check and the replay check, on one
/// preparation of the history and with program order checked once (as
/// [`crate::check_queue`] does).
pub fn check_stack<T: Payload>(history: &History<T>) -> ConsistencyReport {
    let mut prepared = prepare(history);
    check_stack_ordering(history, &mut prepared);
    let mut report = prepared.report;
    check_stack_replay(history, &mut report);
    check_process_order(history, &mut report);
    report
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
