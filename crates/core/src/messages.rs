//! Protocol messages ("remote action calls").
//!
//! Every message a Skueue node sends corresponds to one of the actions of
//! the paper: `AGGREGATE` (Stage 1), `SERVE` (Stage 3), the DHT's `PUT`/`GET`
//! (Stage 4) plus the reply a `GET` triggers, and the join/leave/update-phase
//! actions of Section IV.

use crate::anchor::{AnchorState, RunAssignment};
use crate::batch::Batch;
use skueue_dht::{Payload, PendingGet, StoredEntry};
use skueue_overlay::{NeighborInfo, RouteProgress};
use skueue_sim::ids::{NodeId, RequestId};

/// Metadata a `PUT` carries so the storing node can complete the enqueue
/// request (the paper does not acknowledge PUTs; completion is recorded at
/// the responsible node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutMeta {
    /// Round in which the enqueue was issued (latency accounting).
    pub issued_round: u64,
    /// The enqueue's order value `value(op)`.
    pub order: u64,
    /// Wave epoch of the anchor wave that assigned the order value (the
    /// leading component of the sharded order merge; zero when unsharded).
    pub wave: u64,
    /// Whether the issuer needs an acknowledgement (stack stage-4 barrier).
    pub needs_ack: bool,
    /// Node to acknowledge to.
    pub issuer: NodeId,
}

/// A DHT operation being routed to the node responsible for its key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhtOp<T = u64> {
    /// `PUT(e, k)`: store `entry` at the responsible node.
    Put {
        /// The entry (element, position, key, ticket).
        entry: StoredEntry<T>,
        /// Completion/ack metadata.
        meta: PutMeta,
    },
    /// `GET(k, v)`: remove the element at `position` and deliver it to
    /// `requester`.
    Get {
        /// Queue/stack position to fetch.
        position: u64,
        /// Maximum admissible ticket (stack); `u64::MAX` for the queue.
        max_ticket: u64,
        /// The dequeue/pop request this GET serves.
        request: RequestId,
        /// Node that issued the GET and expects the reply.
        requester: NodeId,
    },
    /// An element already stored, on its way to the node that owns its
    /// position: an absorber hands on what a leaver held when a joiner
    /// spliced in between owns it now.  Stored like a `PUT`, but completes
    /// nothing — its enqueue completed where it was first stored.
    Move {
        /// The entry being moved.
        entry: StoredEntry<T>,
    },
}

impl<T: Payload> DhtOp<T> {
    /// The queue/stack request this DHT operation belongs to (the identity
    /// the op's lifecycle-trace events are tagged with).
    pub(crate) fn request_id(&self) -> RequestId {
        match self {
            DhtOp::Put { entry, .. } | DhtOp::Move { entry } => entry.element.id,
            DhtOp::Get { request, .. } => *request,
        }
    }
}

/// One DHT operation in flight, together with its routing state.  This is
/// the unit Stage 4 coalesces: all routed ops that share the next
/// distance-halving hop within one visit are gathered into one
/// [`SkueueMsg::DhtBatch`] per neighbour, staged in the lane's context until
/// the visit ends (a node keeps no buffer of its own).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedDhtOp<T = u64> {
    /// The operation (boxed so moving an op between buffers moves a pointer).
    pub op: Box<DhtOp<T>>,
    /// Routing state (target key, remaining distance-halving bits, hops).
    pub progress: RouteProgress,
}

/// One answered `GET` inside a [`SkueueMsg::DhtReplyBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhtReplyItem<T = u64> {
    /// The dequeue/pop request the reply answers.
    pub request: RequestId,
    /// The stored entry that was removed for it.
    pub entry: StoredEntry<T>,
}

/// Payload of the join data handover: everything the responsible node gives a
/// joining virtual node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinHandover<T = u64> {
    /// The joiner's (temporary) predecessor: the responsible node itself.
    pub pred: NeighborInfo,
    /// The joiner's (future) successor.
    pub succ: NeighborInfo,
    /// DHT entries now owned by the joiner.
    pub entries: Vec<StoredEntry<T>>,
    /// Parked GETs now owned by the joiner.
    pub pending: Vec<(u64, PendingGet)>,
}

/// Payload of the leave absorption: everything a leaving node hands to its
/// absorber (its cycle predecessor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsorbPayload<T = u64> {
    /// The leaver's predecessor *as the leaver sees it* at hand-over time.
    /// Normally the absorber itself — but when the absorber spliced joiners
    /// into the cycle during the same update phase, the last spliced joiner
    /// is the leaver's true predecessor and must inherit its right edge.
    pub pred: NeighborInfo,
    /// The leaver's successor (the new successor of whoever precedes the
    /// leaver in the cycle).
    pub succ: NeighborInfo,
    /// The leaver's stored DHT entries.
    pub entries: Vec<StoredEntry<T>>,
    /// The leaver's parked GETs.
    pub pending: Vec<(u64, PendingGet)>,
    /// Sub-batches the leaver had received from aggregation-tree children but
    /// not yet forwarded: `(child, child's wave epoch, batch)` in per-child
    /// FIFO order, so the absorber can serve them under the epochs the
    /// children are waiting on.
    pub child_batches: Vec<(NodeId, u64, Batch)>,
    /// Joining nodes the leaver was responsible for but had not integrated
    /// yet; the absorber takes over the responsibility (and re-counts them
    /// toward the next update phase) so no joiner is stranded by its
    /// responsible node leaving.
    pub joiners: Vec<NeighborInfo>,
    /// Anchor state, if the leaver was the anchor.
    pub anchor: Option<AnchorState>,
}

/// All messages exchanged by Skueue nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum SkueueMsg<T = u64> {
    // ---- Stages 1-4 -------------------------------------------------------
    /// Stage 1: a child forwards its combined batch to its aggregation-tree
    /// parent (`AGGREGATE`).  The wave `epoch` is the child's local wave
    /// counter; the parent echoes it back in the matching [`Self::Serve`] so
    /// the child can pair assignments with the right in-flight wave while
    /// several waves are pipelined.  `child` identifies the sender at the
    /// protocol level (the transport-level sender may be a draining node
    /// forwarding on the child's behalf).
    Aggregate {
        /// The aggregation-tree child this batch belongs to.
        child: NodeId,
        /// The child's wave epoch for this batch.
        epoch: u64,
        /// The child's combined batch.
        batch: Batch,
    },
    /// Receipt confirmation for an [`Self::Aggregate`]: the parent has
    /// enqueued the sub-batch.  A child keeps at most one unconfirmed
    /// aggregate in flight, which serialises the child→parent channel and
    /// guarantees the parent commits a child's waves in epoch order even
    /// under reordering (asynchronous) delivery.
    AggregateAck,
    /// Stage 3: the parent returns the run assignments for the sub-batch this
    /// node contributed (`SERVE`).
    Serve {
        /// The receiver's wave epoch these assignments answer.
        epoch: u64,
        /// One assignment per run of that wave's combined batch.
        runs: Vec<RunAssignment>,
    },
    /// Stage 4: a batch of DHT operations being routed over the LDB, one
    /// message per (sender, next hop) per round.  Ops that diverge at a
    /// later hop are re-batched by every forwarding node, so the per-round
    /// message count is bounded by the cut of the routing DAG instead of the
    /// number of in-flight ops (the congestion argument of Theorem 15).
    DhtBatch {
        /// The batched operations, in issue order.
        ops: Vec<RoutedDhtOp<T>>,
    },
    /// Replies to `GET`s, coalesced per requester: every element a node
    /// hands back to the same requester within one visit travels in a
    /// single message.
    DhtReplyBatch {
        /// The answered GETs, in application order.
        replies: Vec<DhtReplyItem<T>>,
    },
    /// Acknowledgement of a `PUT` (only requested by stack nodes enforcing
    /// the stage-4 barrier).
    PutAck {
        /// The enqueue/push request whose PUT was applied.
        request: RequestId,
    },

    // ---- Join (Section IV-A) ---------------------------------------------
    /// A joining virtual node announces itself; routed to the node
    /// responsible for its label.
    JoinRequest {
        /// The joining virtual node.
        joiner: NeighborInfo,
        /// Routing state towards the joiner's label.
        progress: RouteProgress,
    },
    /// Update phase: the responsible node splices the joiner into the cycle,
    /// handing over its final neighbours and the DHT data of its interval.
    Integrate {
        /// Final neighbours plus handed-over DHT data.
        handover: Box<JoinHandover<T>>,
    },
    /// The joiner confirms it is fully integrated.
    IntegrateAck,

    // ---- Leave (Section IV-B) ---------------------------------------------
    /// A node asks its left neighbour for permission to leave.
    LeaveRequest {
        /// The would-be leaver.
        leaver: NeighborInfo,
    },
    /// Permission granted: the predecessor will absorb the leaver during the
    /// next update phase.
    LeaveGranted,
    /// Permission deferred: the predecessor wants to leave first.
    LeaveDeferred,
    /// Update phase: the absorber asks the leaver for its state.
    AbsorbRequest,
    /// The leaver's state (the leaver switches to draining afterwards).
    AbsorbData(Box<AbsorbPayload<T>>),
    /// Sent by a leaver beside its `AbsorbData` when it forwarded churn
    /// counts while its own tree parent was a sibling out of the tree: the
    /// phase they started flagged a tree that did not reach the leaver's
    /// subtree, so the absorber, which that subtree hangs below from now
    /// on, reports them again.  Only adds to a count, so its arrival order
    /// relative to `AbsorbData` does not matter.
    ChurnHandover {
        /// The churn counts to report again.
        count: u64,
    },

    /// A virtual node informs its two sibling nodes (same process) that it
    /// has become an integrated member — or stopped being one.  Siblings only
    /// wait for aggregation-tree sub-batches from integrated siblings.
    SiblingStatus {
        /// Which sibling this is about.
        kind: skueue_overlay::VKind,
        /// True when the sibling is an integrated member.
        active: bool,
    },

    // ---- Neighbour pointer maintenance -------------------------------------
    /// Instructs the receiver to update its predecessor pointer.
    SetPred {
        /// The new predecessor.
        new_pred: NeighborInfo,
    },
    /// Instructs the receiver to update its successor pointer.
    SetSucc {
        /// The new successor.
        new_succ: NeighborInfo,
    },

    // ---- Update phase control ----------------------------------------------
    /// The anchor has started an update phase; propagated down the tree from
    /// each participating node to its *current* children.  A dedicated
    /// control message (rather than a flag on [`Self::Serve`]) because with
    /// pipelined waves the contributors of an in-flight wave can differ from
    /// a node's current children — and the set a node awaits `UpdateAck`s
    /// from must be exactly the set it flagged.
    UpdateFlag {
        /// The anchor's update-phase number (monotone; survives
        /// re-anchoring inside `AnchorState`).  All update-phase control is
        /// tagged with it so delayed messages of an *older* phase can never
        /// corrupt a younger one under reordering delivery.
        phase: u64,
    },
    /// Acknowledgement that the whole old subtree below the sender has
    /// finished its duties for the given update phase (aggregated up the
    /// old tree).
    UpdateAck {
        /// The phase being acknowledged.
        phase: u64,
    },
    /// The update phase is over; broadcast down the new aggregation tree
    /// (and relayed through absorbed leavers to their old subtrees).
    UpdateOver {
        /// The phase that ended.  A node still participating in a *younger*
        /// phase ignores it.
        phase: u64,
    },
    /// Anchor state hand-off, walking towards the leftmost node.
    AnchorTransfer {
        /// The anchor state being transferred.
        state: AnchorState,
    },
}

impl<T: Payload> SkueueMsg<T> {
    /// True for messages that configure the *receiving node itself* —
    /// neighbour pointers, update-phase control, a sibling's integration
    /// status, the channel-serialisation credit.  A draining node must
    /// consume (drop) these rather than forward them: relayed to the
    /// absorber they would corrupt *its* state (e.g. clear its aggregate
    /// credit or cut an innocent node out of its aggregation tree).  The
    /// drain arm of [`crate::node::SkueueNode`]'s `on_message` branches on
    /// this predicate alone.
    pub(crate) fn is_node_local(&self) -> bool {
        matches!(
            self,
            SkueueMsg::SetPred { .. }
                | SkueueMsg::SetSucc { .. }
                | SkueueMsg::UpdateFlag { .. }
                | SkueueMsg::UpdateOver { .. }
                | SkueueMsg::SiblingStatus { .. }
                | SkueueMsg::AggregateAck
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_dht::Element;
    use skueue_overlay::Label;
    use skueue_sim::ids::ProcessId;

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let a = SkueueMsg::<u64>::Aggregate {
            child: NodeId(3),
            epoch: 7,
            batch: Batch::empty(),
        };
        assert_eq!(a.clone(), a);
        let b = SkueueMsg::UpdateOver { phase: 1 };
        assert_ne!(a, b);
    }

    #[test]
    fn dht_batch_messages_carry_ops_and_replies() {
        let entry = StoredEntry::queue(
            2,
            Label::from_f64(0.25),
            Element::new(RequestId::new(ProcessId(1), 4), 17u64),
        );
        let batch = SkueueMsg::DhtBatch {
            ops: vec![RoutedDhtOp {
                op: Box::new(DhtOp::Get {
                    position: 2,
                    max_ticket: u64::MAX,
                    request: RequestId::new(ProcessId(1), 4),
                    requester: NodeId(9),
                }),
                progress: RouteProgress::linear_only(Label::from_f64(0.25)),
            }],
        };
        assert_eq!(batch.clone(), batch);
        let replies = SkueueMsg::DhtReplyBatch {
            replies: vec![DhtReplyItem {
                request: RequestId::new(ProcessId(1), 4),
                entry,
            }],
        };
        assert_eq!(replies.clone(), replies);
        assert_ne!(batch, replies);
    }
}
