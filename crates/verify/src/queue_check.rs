//! Sequential-consistency checking for the queue (Definition 1).

use crate::history::{History, OpKind, OpRecord, OpResult, OrderKey};
use crate::report::{ConsistencyReport, Violation};
use skueue_dht::Payload;
use skueue_sim::ids::RequestId;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A matched enqueue/dequeue (or push/pop) pair with their order values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatchedPair {
    pub(crate) enqueue: RequestId,
    pub(crate) dequeue: RequestId,
    pub(crate) enqueue_order: OrderKey,
    pub(crate) dequeue_order: OrderKey,
}

/// Shared preprocessing of a history — well-formedness checks and the
/// construction of the matching `M` — also used by the stack checker
/// (push/pop map onto enqueue/dequeue in [`OpKind`]).
pub(crate) struct PreparedMatching {
    pub(crate) report: ConsistencyReport,
    pub(crate) matched: Vec<MatchedPair>,
    /// Enqueues whose element is never returned, with their order values.
    pub(crate) unmatched_enqueues: Vec<(RequestId, OrderKey)>,
    /// Order values of dequeues that returned `⊥`.
    pub(crate) empty_orders: Vec<OrderKey>,
}

pub(crate) fn prepare<T: Payload>(history: &History<T>) -> PreparedMatching {
    let records = history.records();
    let mut report = ConsistencyReport {
        records_checked: records.len(),
        ..Default::default()
    };

    // Uniqueness of request ids and order values.
    let mut by_request: HashMap<RequestId, &OpRecord<T>> = HashMap::with_capacity(records.len());
    let mut by_order: BTreeMap<OrderKey, RequestId> = BTreeMap::new();
    for r in records {
        if let Some(previous) = by_request.insert(r.id, r) {
            report.violations.push(Violation::DuplicateRequest {
                request: previous.id,
            });
        }
        if let Some(previous) = by_order.insert(r.order, r.id) {
            report.violations.push(Violation::DuplicateOrder {
                order: r.order,
                requests: (previous, r.id),
            });
        }
    }

    // Build the matching M.
    let mut consumer_of: HashMap<RequestId, RequestId> = HashMap::new();
    let mut matched = Vec::new();
    let mut empty_orders = Vec::new();
    for r in records {
        match (r.kind, r.result) {
            (OpKind::Dequeue, OpResult::Returned(source)) => match by_request.get(&source) {
                Some(enq) if enq.kind == OpKind::Enqueue => {
                    if let Some(&other) = consumer_of.get(&source) {
                        report.violations.push(Violation::DuplicateDelivery {
                            enqueue: source,
                            dequeues: (other, r.id),
                        });
                    } else {
                        // Payload round-trip: the dequeue must hand back the
                        // exact payload its source enqueue inserted (the
                        // structure stores, it never transforms).
                        if r.value != enq.value {
                            report.violations.push(Violation::PayloadMismatch {
                                enqueue: source,
                                dequeue: r.id,
                                detail: format!(
                                    "enqueued {:?}, dequeue returned {:?}",
                                    enq.value, r.value
                                ),
                            });
                        }
                        consumer_of.insert(source, r.id);
                        matched.push(MatchedPair {
                            enqueue: source,
                            dequeue: r.id,
                            enqueue_order: enq.order,
                            dequeue_order: r.order,
                        });
                    }
                }
                _ => {
                    report.violations.push(Violation::PhantomElement {
                        dequeue: r.id,
                        claimed_enqueue: source,
                    });
                }
            },
            (OpKind::Dequeue, OpResult::Empty) => empty_orders.push(r.order),
            _ => {}
        }
    }
    empty_orders.sort_unstable();

    let unmatched_enqueues: Vec<(RequestId, OrderKey)> = records
        .iter()
        .filter(|r| r.kind == OpKind::Enqueue && !consumer_of.contains_key(&r.id))
        .map(|r| (r.id, r.order))
        .collect();

    report.matched_pairs = matched.len();
    report.empty_dequeues = empty_orders.len();

    PreparedMatching {
        report,
        matched,
        unmatched_enqueues,
        empty_orders,
    }
}

/// Checks the local (per-process) issue-order property — property 4 of
/// Definition 1 (also reused by the cross-shard checker on the merged
/// order).
pub(crate) fn check_process_order<T: Payload>(
    history: &History<T>,
    report: &mut ConsistencyReport,
) {
    for (_process, ops) in history.by_process() {
        for window in ops.windows(2) {
            let (a, b) = (window[0], window[1]);
            if a.order >= b.order {
                report.violations.push(Violation::ProcessOrderViolation {
                    earlier: a.id,
                    later: b.id,
                });
            }
        }
    }
}

/// Checks properties 1–3 of Definition 1 against the order witnessed in the
/// history, on `prepared`'s matching and into its report (property 4 is
/// [`check_process_order`]).
pub(crate) fn check_queue_definition1<T: Payload>(
    history: &History<T>,
    prepared: &mut PreparedMatching,
) {
    let PreparedMatching {
        report,
        matched,
        unmatched_enqueues,
        empty_orders,
    } = prepared;

    // Property 1: enqueue before its dequeue.
    for pair in matched.iter() {
        if pair.enqueue_order >= pair.dequeue_order {
            report.violations.push(Violation::DequeueBeforeEnqueue {
                enqueue: pair.enqueue,
                dequeue: pair.dequeue,
            });
        }
    }

    // Property 2, first part: no ⊥-dequeue strictly between a matched
    // enqueue and its dequeue.
    for pair in matched.iter() {
        let lo = pair.enqueue_order.min(pair.dequeue_order);
        let hi = pair.enqueue_order.max(pair.dequeue_order);
        // Binary search for the first empty order greater than lo.
        let idx = empty_orders.partition_point(|&o| o <= lo);
        if idx < empty_orders.len() && empty_orders[idx] < hi {
            // Find the offending record id for the report.
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

    // Property 2, second part: no unmatched enqueue ordered before a matched
    // enqueue whose element is returned.
    if let Some(&(first_unmatched, first_unmatched_order)) =
        unmatched_enqueues.iter().min_by_key(|(_, o)| *o)
    {
        for pair in matched.iter() {
            if first_unmatched_order < pair.enqueue_order && pair.enqueue_order < pair.dequeue_order
            {
                report
                    .violations
                    .push(Violation::UnmatchedEnqueueOvertaken {
                        unmatched_enqueue: first_unmatched,
                        matched_enqueue: pair.enqueue,
                        matched_dequeue: pair.dequeue,
                    });
                // One witness per unmatched enqueue is enough to fail the
                // check; avoid flooding the report.
                break;
            }
        }
    }

    // Property 3: FIFO — matched elements leave in enqueue order.
    let mut by_enqueue_order = matched.clone();
    by_enqueue_order.sort_by_key(|p| p.enqueue_order);
    for window in by_enqueue_order.windows(2) {
        let (a, b) = (&window[0], &window[1]);
        if a.dequeue_order > b.dequeue_order {
            report.violations.push(Violation::FifoViolation {
                first_enqueue: a.enqueue,
                second_enqueue: b.enqueue,
            });
        }
    }
}

/// Replays the history in the witnessed order on a reference sequential FIFO
/// queue and checks every response, into `report`.
///
/// This is strictly stronger than Definition 1 for histories in which some
/// enqueues are never matched; the Skueue protocol satisfies it, so the
/// test-suite uses it as the primary oracle.
pub(crate) fn check_queue_replay<T: Payload>(history: &History<T>, report: &mut ConsistencyReport) {
    let mut queue: VecDeque<RequestId> = VecDeque::new();
    for record in history.sorted_by_order() {
        match record.kind {
            OpKind::Enqueue => queue.push_back(record.id),
            OpKind::Dequeue => {
                let expected = queue.pop_front();
                match (expected, record.result) {
                    (Some(exp), OpResult::Returned(got)) if exp == got => {}
                    (None, OpResult::Empty) => {}
                    (Some(exp), OpResult::Returned(got)) => {
                        report.violations.push(Violation::ReplayMismatch {
                            request: record.id,
                            detail: format!("returned element of {got}, sequential queue would return element of {exp}"),
                        });
                    }
                    (Some(exp), OpResult::Empty) => {
                        report.violations.push(Violation::ReplayMismatch {
                            request: record.id,
                            detail: format!(
                                "returned ⊥ but sequential queue holds element of {exp}"
                            ),
                        });
                    }
                    (None, OpResult::Returned(got)) => {
                        report.violations.push(Violation::ReplayMismatch {
                            request: record.id,
                            detail: format!(
                                "returned element of {got} but sequential queue is empty"
                            ),
                        });
                    }
                    (_, OpResult::Enqueued) => {
                        report.violations.push(Violation::ReplayMismatch {
                            request: record.id,
                            detail: "dequeue recorded with an enqueue result".into(),
                        });
                    }
                }
            }
        }
    }
}

/// Runs the Definition 1 check and the replay check — the oracle used by
/// integration tests.  Both read one preparation of the history, and program
/// order, which both need, is checked once, so a violation they share is
/// reported once.
pub fn check_queue<T: Payload>(history: &History<T>) -> ConsistencyReport {
    let mut prepared = prepare(history);
    check_queue_definition1(history, &mut prepared);
    let mut report = prepared.report;
    check_queue_replay(history, &mut report);
    check_process_order(history, &mut report);
    report
}

/// [`check_queue`] over a bare record list — the entry point for callers
/// that synthesise histories rather than collect them from a cluster (the
/// model checker runs it on every terminal state's abstract history).
pub fn check_queue_records<T: Payload>(records: Vec<OpRecord<T>>) -> ConsistencyReport {
    check_queue(&History::from_records(records))
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
