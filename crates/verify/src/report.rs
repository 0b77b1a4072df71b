//! Consistency-check reports.

use crate::history::OrderKey;
use skueue_sim::ids::RequestId;
use std::fmt;

/// One violation found by a checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two records claim the same position in the total order.
    DuplicateOrder {
        /// The duplicated order value.
        order: OrderKey,
        /// The two requests involved.
        requests: (RequestId, RequestId),
    },
    /// The same request id appears more than once in the history.
    DuplicateRequest {
        /// The duplicated id.
        request: RequestId,
    },
    /// A dequeue returned an element that was never enqueued.
    PhantomElement {
        /// The dequeue.
        dequeue: RequestId,
        /// The claimed source enqueue.
        claimed_enqueue: RequestId,
    },
    /// Two dequeues returned the element of the same enqueue.
    DuplicateDelivery {
        /// The enqueue whose element was delivered twice.
        enqueue: RequestId,
        /// The two dequeues.
        dequeues: (RequestId, RequestId),
    },
    /// Property 1 of Definition 1: a matched dequeue is ordered before its
    /// enqueue.
    DequeueBeforeEnqueue {
        /// The enqueue.
        enqueue: RequestId,
        /// The dequeue.
        dequeue: RequestId,
    },
    /// Property 2 (first part): an empty dequeue is ordered between a matched
    /// enqueue and its dequeue.
    EmptyDequeueBetweenMatch {
        /// The matched enqueue.
        enqueue: RequestId,
        /// The matched dequeue.
        dequeue: RequestId,
        /// The offending `⊥` dequeue.
        empty_dequeue: RequestId,
    },
    /// Property 2 (second part): an unmatched enqueue is ordered before a
    /// matched enqueue whose element is dequeued afterwards.
    UnmatchedEnqueueOvertaken {
        /// The unmatched enqueue (its element is never returned).
        unmatched_enqueue: RequestId,
        /// The later matched enqueue.
        matched_enqueue: RequestId,
        /// The dequeue of the later enqueue.
        matched_dequeue: RequestId,
    },
    /// Property 3: FIFO order violated (elements dequeued out of enqueue
    /// order).
    FifoViolation {
        /// The earlier enqueue.
        first_enqueue: RequestId,
        /// The later enqueue.
        second_enqueue: RequestId,
    },
    /// Stack ordering violated (matched push/pop intervals cross).
    LifoViolation {
        /// The earlier push.
        first_push: RequestId,
        /// The later push.
        second_push: RequestId,
    },
    /// Property 4: a process's requests appear in `≺` out of issue order.
    ProcessOrderViolation {
        /// The earlier-issued request.
        earlier: RequestId,
        /// The later-issued request (ordered before the earlier one).
        later: RequestId,
    },
    /// Replay check: the response recorded for this request differs from what
    /// the reference sequential structure returns at its position in `≺`.
    ReplayMismatch {
        /// The request whose response disagrees with the sequential replay.
        request: RequestId,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A matched dequeue returned a payload different from the one its
    /// source enqueue inserted — the structure must store payloads
    /// byte-for-byte, never transform them.
    PayloadMismatch {
        /// The source enqueue.
        enqueue: RequestId,
        /// The dequeue whose returned payload disagrees.
        dequeue: RequestId,
        /// Debug rendering of both payloads.
        detail: String,
    },
    /// Sharded check: a record's witnessed order key names a different shard
    /// than the deterministic shard map assigns to its origin process.
    ShardMismatch {
        /// The mis-tagged request.
        request: RequestId,
        /// The shard the map assigns to the request's origin process.
        expected_shard: u64,
        /// The shard component of the witnessed order key.
        witnessed_shard: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateOrder { order, requests } => {
                write!(f, "order value {order} used by both {} and {}", requests.0, requests.1)
            }
            Violation::DuplicateRequest { request } => {
                write!(f, "request {request} appears more than once")
            }
            Violation::PhantomElement { dequeue, claimed_enqueue } => write!(
                f,
                "dequeue {dequeue} returned element of {claimed_enqueue}, which never enqueued"
            ),
            Violation::DuplicateDelivery { enqueue, dequeues } => write!(
                f,
                "element of {enqueue} returned by both {} and {}",
                dequeues.0, dequeues.1
            ),
            Violation::DequeueBeforeEnqueue { enqueue, dequeue } => {
                write!(f, "dequeue {dequeue} ordered before its enqueue {enqueue}")
            }
            Violation::EmptyDequeueBetweenMatch { enqueue, dequeue, empty_dequeue } => write!(
                f,
                "empty dequeue {empty_dequeue} ordered between {enqueue} and its dequeue {dequeue}"
            ),
            Violation::UnmatchedEnqueueOvertaken {
                unmatched_enqueue,
                matched_enqueue,
                matched_dequeue,
            } => write!(
                f,
                "unmatched enqueue {unmatched_enqueue} ordered before {matched_enqueue}, whose element was returned by {matched_dequeue}"
            ),
            Violation::FifoViolation { first_enqueue, second_enqueue } => write!(
                f,
                "FIFO violated: {first_enqueue} enqueued before {second_enqueue} but dequeued after it"
            ),
            Violation::LifoViolation { first_push, second_push } => write!(
                f,
                "LIFO violated: matched intervals of {first_push} and {second_push} cross"
            ),
            Violation::ProcessOrderViolation { earlier, later } => write!(
                f,
                "process order violated: {earlier} issued before {later} but ordered after it"
            ),
            Violation::ReplayMismatch { request, detail } => {
                write!(f, "replay mismatch at {request}: {detail}")
            }
            Violation::PayloadMismatch { enqueue, dequeue, detail } => write!(
                f,
                "payload mismatch between {enqueue} and its dequeue {dequeue}: {detail}"
            ),
            Violation::ShardMismatch {
                request,
                expected_shard,
                witnessed_shard,
            } => write!(
                f,
                "{request} belongs to shard {expected_shard} but its order key names shard {witnessed_shard}"
            ),
        }
    }
}

/// Result of a consistency check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// All violations found (empty means the history passed).
    pub violations: Vec<Violation>,
    /// Number of records checked.
    pub records_checked: usize,
    /// Number of matched enqueue/dequeue pairs.
    pub matched_pairs: usize,
    /// Number of dequeues that returned `⊥`.
    pub empty_dequeues: usize,
}

impl ConsistencyReport {
    /// True when no violations were found.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable message if the history is inconsistent —
    /// convenience for tests.
    pub fn assert_consistent(&self) {
        if !self.is_consistent() {
            let mut msg = format!(
                "history is NOT sequentially consistent ({} violations):\n",
                self.violations.len()
            );
            for v in self.violations.iter().take(20) {
                msg.push_str(&format!("  - {v}\n"));
            }
            if self.violations.len() > 20 {
                msg.push_str(&format!("  ... and {} more\n", self.violations.len() - 20));
            }
            panic!("{msg}");
        }
    }
}

impl fmt::Display for ConsistencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_consistent() {
            write!(
                f,
                "consistent: {} records, {} matched pairs, {} empty dequeues",
                self.records_checked, self.matched_pairs, self.empty_dequeues
            )
        } else {
            write!(
                f,
                "INCONSISTENT ({} violations over {} records)",
                self.violations.len(),
                self.records_checked
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_sim::ids::ProcessId;

    fn rid(p: u64, s: u64) -> RequestId {
        RequestId::new(ProcessId(p), s)
    }

    #[test]
    fn empty_report_is_consistent() {
        let r = ConsistencyReport::default();
        assert!(r.is_consistent());
        r.assert_consistent();
        assert!(r.to_string().starts_with("consistent"));
    }

    #[test]
    fn report_with_violation_is_inconsistent() {
        let mut r = ConsistencyReport::default();
        r.violations
            .push(Violation::DuplicateRequest { request: rid(0, 1) });
        assert!(!r.is_consistent());
        assert!(r.to_string().contains("INCONSISTENT"));
    }

    #[test]
    #[should_panic(expected = "NOT sequentially consistent")]
    fn assert_consistent_panics_on_violation() {
        let mut r = ConsistencyReport::default();
        r.violations
            .push(Violation::DuplicateRequest { request: rid(0, 1) });
        r.assert_consistent();
    }

    #[test]
    fn violations_have_readable_display() {
        let samples = vec![
            Violation::DuplicateOrder {
                order: OrderKey::anchor(5, ProcessId(0)),
                requests: (rid(0, 1), rid(1, 1)),
            },
            Violation::PhantomElement {
                dequeue: rid(0, 1),
                claimed_enqueue: rid(9, 9),
            },
            Violation::DuplicateDelivery {
                enqueue: rid(0, 0),
                dequeues: (rid(1, 0), rid(2, 0)),
            },
            Violation::DequeueBeforeEnqueue {
                enqueue: rid(0, 0),
                dequeue: rid(1, 0),
            },
            Violation::EmptyDequeueBetweenMatch {
                enqueue: rid(0, 0),
                dequeue: rid(1, 0),
                empty_dequeue: rid(2, 0),
            },
            Violation::UnmatchedEnqueueOvertaken {
                unmatched_enqueue: rid(0, 0),
                matched_enqueue: rid(1, 0),
                matched_dequeue: rid(2, 0),
            },
            Violation::FifoViolation {
                first_enqueue: rid(0, 0),
                second_enqueue: rid(1, 0),
            },
            Violation::LifoViolation {
                first_push: rid(0, 0),
                second_push: rid(1, 0),
            },
            Violation::ProcessOrderViolation {
                earlier: rid(0, 0),
                later: rid(0, 1),
            },
            Violation::ReplayMismatch {
                request: rid(0, 0),
                detail: "oops".into(),
            },
        ];
        for v in samples {
            assert!(!v.to_string().is_empty());
        }
    }
}
