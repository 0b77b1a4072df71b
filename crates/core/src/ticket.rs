//! Typed operation tickets and outcomes.
//!
//! Every request-issuing call on [`crate::SkueueCluster`] (and on
//! [`crate::ClientHandle`]) returns an [`OpTicket`] — a first-class handle to
//! the in-flight operation.  Once the operation completes, the cluster
//! resolves the ticket to a structured [`OpOutcome`]; callers never have to
//! scan the raw execution [`History`](skueue_verify::History) to learn what a
//! dequeue returned:
//!
//! ```
//! use skueue_core::{OpOutcome, SkueueCluster};
//! use skueue_sim::ids::ProcessId;
//!
//! let mut cluster = SkueueCluster::builder().processes(4).seed(7).build()?;
//! let put = cluster.client(ProcessId(0)).enqueue(99)?;
//! let got = cluster.client(ProcessId(2)).dequeue()?;
//! let outcomes = cluster.run_until_done(&[put, got], 500)?;
//! assert!(matches!(outcomes[0], OpOutcome::Enqueued { .. }));
//! assert_eq!(outcomes[1].value(), Some(99));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use skueue_dht::{Element, Payload};
use skueue_sim::ids::{ProcessId, RequestId};
use skueue_verify::{OpKind, OpRecord, OpResult};

/// Handle to one issued operation.
///
/// Tickets are small `Copy` values; hold on to them and resolve them later
/// with [`crate::SkueueCluster::outcome`], [`crate::SkueueCluster::status`]
/// or [`crate::SkueueCluster::run_until_done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpTicket {
    /// Identity of the issuing cluster instance — `RequestId`s are
    /// deterministic across clusters, so this is what keeps a ticket from
    /// one cluster from resolving against another.
    cluster: u64,
    id: RequestId,
    kind: OpKind,
}

impl OpTicket {
    /// Creates a ticket (crate-internal; tickets are handed out by the
    /// cluster when an operation is issued).
    pub(crate) fn new(cluster: u64, id: RequestId, kind: OpKind) -> Self {
        OpTicket { cluster, id, kind }
    }

    /// The issuing cluster's instance id (crate-internal).
    pub(crate) fn cluster_id(&self) -> u64 {
        self.cluster
    }

    /// The underlying protocol request id (`OP_{v,i}`).
    pub fn request_id(&self) -> RequestId {
        self.id
    }

    /// The process at which the operation was issued.
    pub fn origin(&self) -> ProcessId {
        self.id.origin
    }
}

impl std::fmt::Display for OpTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket[{:?} {}]", self.kind, self.id)
    }
}

/// Structured result of a completed operation, generic over the element
/// payload type of the issuing cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome<T = u64> {
    /// An `ENQUEUE()`/`PUSH()` completed in round `round`, `rounds` rounds
    /// after it was issued.
    Enqueued {
        /// Round in which the insert completed.
        round: u64,
        /// Latency in rounds from issue to completion.
        rounds: u64,
    },
    /// A `DEQUEUE()`/`POP()` completed; `element` is the returned element, or
    /// `None` when the structure was empty (`⊥`).
    Dequeued {
        /// The element the remove returned (`None` = `⊥`).
        element: Option<Element<T>>,
        /// Latency in rounds from issue to completion.
        rounds: u64,
    },
}

impl<T: Payload> OpOutcome<T> {
    /// Builds the outcome described by a completion record.
    pub(crate) fn from_record(record: &OpRecord<T>) -> Self {
        match record.kind {
            OpKind::Enqueue => OpOutcome::Enqueued {
                round: record.completed_round,
                rounds: record.latency(),
            },
            OpKind::Dequeue => OpOutcome::Dequeued {
                element: match record.result {
                    OpResult::Returned(source) => Some(Element::new(source, record.value.clone())),
                    _ => None,
                },
                rounds: record.latency(),
            },
        }
    }

    /// A borrow of the returned element's payload, if any (the
    /// allocation-free accessor for non-`Copy` payloads).
    pub fn payload(&self) -> Option<&T> {
        match self {
            OpOutcome::Dequeued {
                element: Some(e), ..
            } => Some(&e.value),
            _ => None,
        }
    }

    /// The payload value a dequeue/pop returned, if any (cloned; use
    /// [`Self::payload`] to borrow instead).
    pub fn value(&self) -> Option<T> {
        self.payload().cloned()
    }

    /// True for a dequeue/pop that found the structure empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, OpOutcome::Dequeued { element: None, .. })
    }

    /// Latency of the operation in rounds.
    pub fn rounds(&self) -> u64 {
        match self {
            OpOutcome::Enqueued { rounds, .. } | OpOutcome::Dequeued { rounds, .. } => *rounds,
        }
    }
}

/// Completion state of a ticket, as reported by
/// [`crate::SkueueCluster::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpStatus<T = u64> {
    /// The operation is still in flight.
    Pending,
    /// The operation completed with the given outcome.
    Done(OpOutcome<T>),
    /// The ticket was issued by a *different* cluster and can never resolve
    /// on this one — polling further is pointless.
    Foreign,
}

impl<T: Payload> OpStatus<T> {
    /// True once the operation has completed.
    pub fn is_done(&self) -> bool {
        matches!(self, OpStatus::Done(_))
    }
}

/// One event of the cluster's completion stream.
///
/// Workloads, benches and the verifier all consume the same stream: register
/// a callback with [`crate::SkueueCluster::on_complete`] and it fires once
/// per completed operation, in completion order.  `record` is the exact
/// [`OpRecord`] appended to the execution history for this operation, so an
/// observer can rebuild the full [`skueue_verify::History`] from the events
/// alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionEvent<T = u64> {
    /// Ticket of the completed operation.
    pub ticket: OpTicket,
    /// Structured outcome of the operation.
    pub outcome: OpOutcome<T>,
    /// The history record witnessing the operation's place in `≺`.
    pub record: OpRecord<T>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_verify::OrderKey;

    fn record(kind: OpKind, result: OpResult, value: u64) -> OpRecord<u64> {
        OpRecord {
            id: RequestId::new(ProcessId(3), 0),
            kind,
            value,
            result,
            order: OrderKey::anchor(1, ProcessId(3)),
            issued_round: 2,
            completed_round: 9,
        }
    }

    #[test]
    fn ticket_accessors() {
        let t = OpTicket::new(3, RequestId::new(ProcessId(5), 7), OpKind::Enqueue);
        assert_eq!(t.cluster_id(), 3);
        assert_eq!(t.origin(), ProcessId(5));
        assert_eq!(t.request_id().seq, 7);
        assert!(t.to_string().contains("p5#7"));
    }

    #[test]
    fn enqueue_outcome() {
        let o = OpOutcome::from_record(&record(OpKind::Enqueue, OpResult::Enqueued, 42));
        assert_eq!(
            o,
            OpOutcome::Enqueued {
                round: 9,
                rounds: 7
            }
        );
        assert_eq!(o.value(), None);
        assert!(!o.is_empty());
        assert_eq!(o.rounds(), 7);
    }

    #[test]
    fn dequeue_outcome_with_element() {
        let source = RequestId::new(ProcessId(0), 4);
        let o = OpOutcome::from_record(&record(OpKind::Dequeue, OpResult::Returned(source), 42));
        assert_eq!(
            o,
            OpOutcome::Dequeued {
                element: Some(Element::new(source, 42)),
                rounds: 7
            }
        );
        assert_eq!(o.value(), Some(42));
        assert!(!o.is_empty());
    }

    #[test]
    fn empty_dequeue_outcome() {
        let o = OpOutcome::from_record(&record(OpKind::Dequeue, OpResult::Empty, 0));
        assert!(o.is_empty());
        assert_eq!(o.value(), None);
        assert_eq!(o.rounds(), 7);
    }

    #[test]
    fn status_helpers() {
        assert!(!OpStatus::<u64>::Pending.is_done());
        assert!(!OpStatus::<u64>::Foreign.is_done());
        let done = OpStatus::<u64>::Done(OpOutcome::Enqueued {
            round: 1,
            rounds: 1,
        });
        assert!(done.is_done());
    }
}
