//! The per-virtual-node protocol state machine.
//!
//! A [`SkueueNode`] is one virtual node of the LDB running the Skueue
//! protocol.  It implements [`Actor`] for the simulation substrate and
//! realises Stages 1–4 of Section III (plus the stack variant of Section VI
//! and the join/leave handling of Section IV, see `join_leave.rs`):
//!
//! * **Stage 1** (`TIMEOUT` + `AGGREGATE`): buffer locally generated
//!   operations in the working batch `W`, wait until all aggregation-tree
//!   children have contributed their sub-batches, combine everything into
//!   `B`, remember the combination order, and forward `B` to the parent.
//! * **Stage 2** (`ASSIGN`): only at the anchor — hand out position
//!   intervals, order values and tickets from the `[first, last]` window.
//! * **Stage 3** (`SERVE`): split the received assignments back among the
//!   remembered sub-batches and forward them to the children; resolve the
//!   node's own requests.
//! * **Stage 4**: issue `PUT`/`GET` operations into the DHT, routed over the
//!   LDB; record request completions for the history.
//!
//! # Pipelined waves
//!
//! Stage 1 is *pipelined*: instead of a single implicit in-flight wave, a
//! node keeps a small ring of `WaveSlot`s, one per per-node wave epoch in
//! flight, so it can combine and forward wave `k+1` while wave `k`'s
//! assignments (and the DHT operations they trigger) are still in flight —
//! the overlapping-phases idea of Skeap/Seap applied to Skueue's aggregation
//! tree.  Epochs travel in `Aggregate` and are echoed back in `Serve`, so a
//! node pairs assignments with the right wave even when serves are reordered
//! by asynchronous delivery; an `AggregateAck` credit keeps at most one
//! aggregate per child→parent channel in flight, which guarantees the parent
//! commits a child's waves to the anchor in epoch (= program) order.
//!
//! # Batched DHT routing
//!
//! Stage 4 is *batched*: every routed DHT operation a node would forward is
//! added to a `DhtBatch` per next hop, staged in the lane's [`Context`]
//! (see [`Context::staged`]) and sent at the end of the visit — one message
//! per neighbour per round, in the node's first-contact [`LaneOrder`];
//! replies coalesce the same way per requester (`DhtReplyBatch`).  Between
//! visits a node keeps only that order, never a container.  Ops sharing the next
//! distance-halving hop — from a middle node there are only two virtual-edge
//! targets — therefore cost one message, which is exactly the aggregation
//! along shared routes the paper's congestion bound builds on.

use crate::anchor::{AnchorState, RunAssignment};
use crate::batch::{Batch, BatchOp};
use crate::config::{Mode, ProtocolConfig};
use crate::join_leave::{Duty, DutyKind, Leave, Lifecycle, Membership, Report, Step, UpdatePhase};
use crate::messages::{DhtOp, DhtReplyItem, PutMeta, RoutedDhtOp, SkueueMsg};
use skueue_dht::{Element, GetOutcome, NodeStore, Payload, StoredEntry};
use skueue_overlay::{
    aggregation_child_set, aggregation_parent, route_step, ChildSet, LocalView, RouteAction,
    RouteProgress, VKind,
};
use skueue_shard::{ShardId, ShardMap};
use skueue_sim::actor::{Actor, Context};
use skueue_sim::ids::{NodeId, ProcessId, RequestId};
use skueue_trace::{TraceEvent, TraceId, TraceLevel};
use skueue_verify::{OpKind, OpRecord, OpResult, OrderKey};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Minimum number of rounds between two waves opened by the same node:
/// letting sub-batches that travel towards a shared ancestor land in the
/// same combined wave (instead of chasing each other one round apart) is
/// what re-creates the paper's aggregation along shared routes under
/// demand-driven waves.  `2` merges adjacent traffic while costing at most
/// one extra round of latency per level.
const WAVE_CADENCE: u64 = 2;

/// Metadata remembered for an outstanding `GET` this node issued: the
/// original request plus the order components the anchor assigned to it,
/// needed to stamp the completion record when the reply arrives.  Carries no
/// payload (dequeues have none), so it stays a small `Copy` value for any
/// payload type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutstandingGet {
    /// Round in which the request was issued.
    pub(crate) issued_round: u64,
    /// Anchor-assigned order value `value(op)`.
    pub(crate) order: u64,
    /// Epoch of the anchor wave that assigned the order value.
    pub(crate) wave: u64,
}

/// A locally generated request that has not been resolved yet.  Only a
/// middle node issues requests, all of them of its own process, so the log
/// keeps a request's seq and derives its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LocalOp<T = u64> {
    /// The request's per-origin sequence number.
    pub seq: u64,
    /// Enqueue/push or dequeue/pop, kept only for the debug check that the
    /// log stays in step with the batch's runs.
    #[cfg(debug_assertions)]
    pub kind: BatchOp,
    /// Payload (enqueues only; `T::default()` for dequeues).
    pub value: T,
    /// Round in which the request was generated.
    pub issued_round: u64,
}

/// Where a sub-batch of a combined wave came from: the per-wave source list
/// the flat [`WaveMemo`] replaced, kept for the reference model its
/// property test compares against.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) enum BatchSource {
    /// The node's own working batch (its own requests).
    Own(Batch),
    /// A child's sub-batch, tagged with the child's wave epoch (echoed back
    /// in the `Serve` so the child can match the assignments to the right
    /// in-flight wave).
    Child(NodeId, u64, Batch),
}

#[cfg(test)]
impl BatchSource {
    fn batch(&self) -> &Batch {
        match self {
            BatchSource::Own(b) | BatchSource::Child(_, _, b) => b,
        }
    }
}

/// What Stage 3 needs to know of one sub-batch of a combined wave: whose it
/// was, the wave epoch to echo back, and how many of the memo's run lengths
/// are its own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SourceRecord {
    /// The child's wave epoch for the sub-batch (0 for the node's own).
    pub(crate) epoch: u64,
    /// The rank of the child owed the `Serve` in the node's child lane
    /// ([`LaneOrder`] only appends, so a rank names one peer for the node's
    /// life), or [`OWN_SOURCE`] for the node's own working batch.
    pub(crate) child: u32,
    /// Number of runs of the sub-batch.
    pub(crate) num_runs: u32,
}

/// The [`SourceRecord::child`] rank that marks the node's own batch.
const OWN_SOURCE: u32 = u32::MAX;

/// The memorised combination order of every in-flight wave, oldest wave
/// first: slot `k` of the wave ring owns the `num_sources` records that
/// follow those of slots `0..k`, and each record owns the `num_runs` run
/// lengths that follow those of the records before it.  Waves resolve
/// strictly front-first, so two FIFOs serve all of them — and a run length
/// is all of a sub-batch the Stage 3 decomposition reads.
#[derive(Debug, Clone, Default)]
pub(crate) struct WaveMemo {
    pub(crate) records: VecDeque<SourceRecord>,
    pub(crate) runs: VecDeque<u32>,
}

impl WaveMemo {
    /// Memorises one sub-batch at the back: `child` is the sender's rank in
    /// the child lane, or [`OWN_SOURCE`].
    fn remember(&mut self, child: u32, epoch: u64, batch: &Batch) {
        self.records.push_back(SourceRecord {
            epoch,
            child,
            num_runs: count_u32(batch.num_runs()),
        });
        self.runs
            .extend(batch.runs().iter().map(|&len| count_u32(len)));
    }
}

/// A staged batch's first item, with room for three more: most batches
/// carry one to four, and growing a vector of one costs a reallocation.
fn lane_of<I>(first: I) -> Vec<I> {
    let mut items = Vec::with_capacity(4);
    items.push(first);
    items
}

/// A count of runs, sources or a run's operations as the wave state stores
/// it.
fn count_u32(count: impl TryInto<u32>) -> u32 {
    count
        .try_into()
        .unwrap_or_else(|_| panic!("a wave counts fewer than 2^32 runs, sources and operations"))
}

/// One in-flight aggregation wave: the combined batch has been sent up the
/// tree and its assignments have not come back yet.  Only how many memo
/// records are the wave's is kept.  Its epoch follows from its place in the
/// ring (a slot is pushed only with a new epoch and popped only at the
/// front), every slot in flight shares the parent in [`Waves::wave_parent`],
/// and the runs travelled up in the `Aggregate` message and come back as
/// `Serve` assignments.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaveSlot {
    /// How many records of the node's [`WaveMemo`] belong to this wave.
    pub(crate) num_sources: u32,
}

/// A `Serve` that arrived before the serves of older waves (asynchronous
/// delivery can reorder them); parked until its epoch reaches the front of
/// the slot ring.
#[derive(Debug, Clone)]
pub(crate) struct StashedServe {
    pub(crate) epoch: u64,
    pub(crate) runs: Vec<RunAssignment>,
}

/// The three kinds of peer a node coalesces per: the next hops its routed
/// DHT operations go to, the requesters its GET replies go to, and the
/// aggregation-tree children (current and former) its sub-batches come
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneKind {
    Route,
    Reply,
    Child,
}

/// What a visit coalesces into one message per peer: routed operations
/// into a `DhtBatch` per next hop, GET replies into a `DhtReplyBatch` per
/// requester.
pub(crate) trait Coalesced<T>: Sized {
    /// The lane whose order the batches are sent in.
    const KIND: LaneKind;
    /// The items of `msg`, if it is a batch of this kind.
    fn items(msg: &mut SkueueMsg<T>) -> Option<&mut Vec<Self>>;
    /// The batch message carrying `items`.
    fn batch(items: Vec<Self>) -> SkueueMsg<T>;
}

impl<T> Coalesced<T> for RoutedDhtOp<T> {
    const KIND: LaneKind = LaneKind::Route;
    fn items(msg: &mut SkueueMsg<T>) -> Option<&mut Vec<Self>> {
        match msg {
            SkueueMsg::DhtBatch { ops } => Some(ops),
            _ => None,
        }
    }
    fn batch(ops: Vec<Self>) -> SkueueMsg<T> {
        SkueueMsg::DhtBatch { ops }
    }
}

impl<T> Coalesced<T> for DhtReplyItem<T> {
    const KIND: LaneKind = LaneKind::Reply;
    fn items(msg: &mut SkueueMsg<T>) -> Option<&mut Vec<Self>> {
        match msg {
            SkueueMsg::DhtReplyBatch { replies } => Some(replies),
            _ => None,
        }
    }
    fn batch(replies: Vec<Self>) -> SkueueMsg<T> {
        SkueueMsg::DhtReplyBatch { replies }
    }
}

/// All a node keeps of its coalescing between visits: every peer it has
/// routed to, replied to or taken a sub-batch from, in first-contact order
/// per [`LaneKind`].  That order is the send order of a visit's
/// `DhtBatch`es and `DhtReplyBatch`es and the combination order of a wave's
/// sub-batches, so it lives as long as the node; what travels in those
/// lanes does not (a visit's batches are staged in its [`Context`], queued
/// sub-batches sit in [`Waves`]).  One allocation: the three lists back to
/// back, routes first.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneOrder {
    peers: Vec<NodeId>,
    /// End of the route list.
    routes: u32,
    /// End of the reply list; the children's follows it.
    replies: u32,
}

impl LaneOrder {
    fn range(&self, kind: LaneKind) -> std::ops::Range<usize> {
        let (routes, replies) = (self.routes as usize, self.replies as usize);
        match kind {
            LaneKind::Route => 0..routes,
            LaneKind::Reply => routes..replies,
            LaneKind::Child => replies..self.peers.len(),
        }
    }

    /// The peers of `kind`, in first-contact order.
    pub(crate) fn of(&self, kind: LaneKind) -> &[NodeId] {
        &self.peers[self.range(kind)]
    }

    /// Where `peer` stands among all the peers, if it is one of `kind`:
    /// routes rank before replies, each in first-contact order.
    pub(crate) fn rank(&self, kind: LaneKind, peer: NodeId) -> Option<usize> {
        let range = self.range(kind);
        let at = self.peers[range.clone()].iter().position(|&p| p == peer)?;
        Some(range.start + at)
    }

    /// Appends `peer` to the peers of `kind` unless it is one already.
    pub(crate) fn note(&mut self, kind: LaneKind, peer: NodeId) {
        let range = self.range(kind);
        if self.peers[range.clone()].contains(&peer) {
            return;
        }
        self.peers.insert(range.end, peer);
        match kind {
            LaneKind::Route => {
                self.routes += 1;
                self.replies += 1;
            }
            LaneKind::Reply => self.replies += 1,
            LaneKind::Child => {}
        }
    }
}

/// Sub-batches received from aggregation-tree children and not yet combined
/// into a wave, each tagged with the child's wave epoch.  With pipelining a
/// child may legitimately have several batches queued here; a child's
/// entries stay in ascending epoch order, and the node's [`LaneOrder`]
/// orders the children.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChildBatches(Vec<(NodeId, u64, Batch)>);

impl ChildBatches {
    /// True when no sub-batch is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True when at least one sub-batch from `child` is buffered.
    pub(crate) fn contains(&self, child: &NodeId) -> bool {
        self.0.iter().any(|(n, _, _)| n == child)
    }

    /// Buffers a sub-batch from `child` under its wave `epoch`, keeping the
    /// child's entries in ascending epoch order.  Arrival order is *almost*
    /// epoch order (the aggregate credit serialises each channel), but an
    /// absorb hand-over races the draining parent's forwarded aggregates on
    /// independently delayed messages — and commit order to the anchor must
    /// stay epoch (= the child's program) order regardless.  The list grows
    /// by exactly one entry when full: most nodes queue one sub-batch at a
    /// time, and a list lives as long as its node's wave half.
    pub(crate) fn push(&mut self, child: NodeId, epoch: u64, batch: Batch) {
        let at = self
            .0
            .iter()
            .position(|&(n, e, _)| n == child && e > epoch)
            .unwrap_or(self.0.len());
        self.0.reserve_exact(1);
        self.0.insert(at, (child, epoch, batch));
    }

    /// Pops the oldest queued sub-batch of every child in `children` (the
    /// node's children in first-contact order) that has one and hands each
    /// to `take` as `(the child's rank in children, epoch, sub-batch)`.  At
    /// most *one* batch per child per wave: run-length batch combination is
    /// element-wise (run `i` of the combined batch is the concatenation of
    /// every source's run `i`), so two sub-batches of the same child in one
    /// wave would interleave that child's operations and invert its program
    /// order in `≺` — distinct children carry no mutual order constraint,
    /// consecutive waves of one child do.  Peers beyond the current tree
    /// children are included on purpose: after an absorb hand-over or a
    /// re-parenting, batches from former children must still be combined
    /// and served or their senders' wave slots would never drain.
    pub(crate) fn pop_oldest(
        &mut self,
        children: &[NodeId],
        mut take: impl FnMut(usize, u64, Batch),
    ) {
        for (rank, &child) in children.iter().enumerate() {
            if self.0.is_empty() {
                return;
            }
            if let Some(at) = self.0.iter().position(|&(n, _, _)| n == child) {
                let (_, epoch, batch) = self.0.remove(at);
                take(rank, epoch, batch);
            }
        }
    }

    /// Drains every buffered `(child, epoch, sub-batch)`, children in the
    /// order of `children` and each child's in FIFO order (used for the
    /// leave hand-over).
    pub(crate) fn drain_all(&mut self, children: &[NodeId]) -> Vec<(NodeId, u64, Batch)> {
        let rank = |child: &NodeId| children.iter().position(|c| c == child);
        debug_assert!(self.0.iter().all(|(child, _, _)| rank(child).is_some()));
        // Stable: each child's entries keep their order.
        self.0.sort_by_key(|(child, _, _)| rank(child));
        std::mem::take(&mut self.0)
    }
}

/// The stack's local-combining state (Section VI).  Only a node of a stack
/// deployment that has generated a request holds one.
#[derive(Debug, Default)]
pub(crate) struct LocalCombining<T> {
    /// Ids of the unsent pushes eligible for local matching.  Markers only:
    /// the payloads stay in `own_log` (the matched push is always its last
    /// entry), so no payload is ever cloned onto this stack.
    pub(crate) local_stack: Vec<RequestId>,
    /// Completed-but-unordered combined pairs, keyed by the seq of the own
    /// request whose order value they must follow.
    pub(crate) pairs_by_anchor: HashMap<u64, Vec<OpRecord<T>>>,
    /// Major order value of this node's most recently ordered own request.
    pub(crate) last_order_major: u64,
    /// Minor counter for combined pairs anchored at `last_order_major`.
    pub(crate) minor_counter: u64,
}

/// The wave half of a node's work: the sub-batches it combines and the
/// waves it has forwarded, which is all a node that only relays its
/// children's sub-batches keeps.  Every field is empty whenever the node has
/// no wave in flight, nothing queued and no request half, so the node holds
/// this behind an `Option<Box<_>>` that is `None` while it is idle (see
/// [`SkueueNode::release_idle_work`]).  The request half sits behind a
/// second pointer inside it, so the node's own slot carries one pointer for
/// both.
#[derive(Debug)]
pub(crate) struct Waves<T> {
    /// Sub-batches from children not yet combined.
    pub(crate) child_batches: ChildBatches,
    /// In-flight waves, oldest first: at most
    /// [`PIPELINE_DEPTH`](crate::config::PIPELINE_DEPTH) (one for a stack),
    /// the youngest under epoch [`SkueueNode::next_epoch`].
    pub(crate) slots: VecDeque<WaveSlot>,
    /// The parent the youngest wave was sent to, and so, while any slot is
    /// in flight, the parent of every one: a new wave is held back while the
    /// slots point at a different parent, so re-parenting can never reorder
    /// a node's waves at the anchor.
    pub(crate) wave_parent: Option<NodeId>,
    /// The memorised combination order of every in-flight wave.
    pub(crate) memo: WaveMemo,
    /// Serves that arrived ahead of older waves (asynchronous reordering).
    pub(crate) serve_stash: Vec<StashedServe>,
    /// The request half; `None` on a node with no request, no stored
    /// element and no uncollected completion.
    pub(crate) requests: Option<Box<Requests<T>>>,
}

impl<T> Waves<T> {
    /// The wave half in `slot`, allocated on first use.  Takes the node's
    /// field rather than the node, so a caller keeps its borrows of the
    /// node's other fields.
    #[inline]
    pub(crate) fn of(slot: &mut Option<Box<Waves<T>>>) -> &mut Self {
        match slot {
            Some(waves) => waves,
            None => Self::allocate(slot),
        }
    }

    #[cold]
    #[inline(never)]
    fn allocate(slot: &mut Option<Box<Waves<T>>>) -> &mut Self {
        slot.insert(Box::new(Waves {
            child_batches: ChildBatches::default(),
            slots: VecDeque::new(),
            wave_parent: None,
            memo: WaveMemo::default(),
            serve_stash: Vec::new(),
            requests: None,
        }))
    }

    /// True when every field is empty.  Destructured without `..` so a new
    /// field cannot be forgotten here; the fields a busy node most often
    /// holds come first.
    fn is_idle(&self) -> bool {
        let Waves {
            slots,
            requests,
            child_batches,
            // Read only while a slot is in flight.
            wave_parent: _,
            memo,
            serve_stash,
        } = self;
        slots.is_empty()
            && requests.is_none()
            && child_batches.is_empty()
            && memo.records.is_empty()
            && memo.runs.is_empty()
            && serve_stash.is_empty()
    }
}

/// The request half of a node's work: its own requests from issue to
/// completion, its DHT partition and the completion records the host has
/// not collected.  Only a process's middle node issues requests, so a left
/// or right node holds this only while it stores an element, parks a GET
/// or keeps an enqueue's completion record.  Every field is empty whenever
/// the node has none of them, and the half is then dropped by itself (see
/// [`SkueueNode::release_idle_work`]).
#[derive(Debug)]
pub(crate) struct Requests<T> {
    // --- Stage 1 ------------------------------------------------------------
    pub(crate) own_batch: Batch,
    pub(crate) own_log: Vec<LocalOp<T>>,

    // --- Stage 4 ------------------------------------------------------------
    pub(crate) store: NodeStore<T>,
    /// The node's GETs in flight by seq, ascending: a node issues its GETs
    /// in log (= seq) order, so each is appended.
    pub(crate) outstanding_gets: Vec<(u64, OutstandingGet)>,
    pub(crate) outstanding_dht: u64,

    // --- Outputs --------------------------------------------------------------
    /// Completion records not yet collected by the host (see
    /// [`Self::complete`]).  Everything else a node reports — samples and
    /// trace events — goes straight to the host's sinks through the
    /// [`Context`].
    pub(crate) completed: Vec<OpRecord<T>>,
}

impl<T: Payload> Requests<T> {
    /// The request half inside the wave half in `slot`, each allocated on
    /// first use.  Takes the node's two fields it needs rather than the
    /// node, so a caller keeps its borrows of the node's other fields.
    #[inline]
    pub(crate) fn of<'a>(
        slot: &'a mut Option<Box<Waves<T>>>,
        cfg: &ProtocolConfig,
    ) -> &'a mut Self {
        let requests = &mut Waves::of(slot).requests;
        match requests {
            Some(requests) => requests,
            None => Self::allocate(requests, cfg),
        }
    }

    #[cold]
    #[inline(never)]
    fn allocate<'a>(slot: &'a mut Option<Box<Requests<T>>>, cfg: &ProtocolConfig) -> &'a mut Self {
        slot.insert(Box::new(Requests {
            own_batch: SkueueNode::<T>::fresh_batch(cfg),
            own_log: Vec::new(),
            store: NodeStore::new(),
            outstanding_gets: Vec::new(),
            outstanding_dht: 0,
            completed: Vec::new(),
        }))
    }

    /// True when every field is empty.  Destructured without `..` so a new
    /// field cannot be forgotten here; the fields a busy node most often
    /// holds come first.
    fn is_idle(&self) -> bool {
        let Requests {
            own_batch,
            own_log,
            store,
            outstanding_gets,
            outstanding_dht,
            completed,
        } = self;
        store.is_vacant()
            && completed.is_empty()
            && own_log.is_empty()
            && outstanding_gets.is_empty()
            && *outstanding_dht == 0
            && own_batch.has_no_ops()
    }

    /// Appends a completion record.  An empty buffer makes room for one
    /// record, not the standard library's first four: the host collects
    /// every round, and most nodes complete one request between two
    /// collections.
    pub(crate) fn complete(&mut self, record: OpRecord<T>) {
        if self.completed.capacity() == 0 {
            self.completed.reserve_exact(1);
        }
        self.completed.push(record);
    }

    /// Remembers the GET of the node's request `seq` until its reply.
    fn note_outstanding_get(&mut self, seq: u64, get: OutstandingGet) {
        let gets = &mut self.outstanding_gets;
        let at = gets.partition_point(|&(s, _)| s < seq);
        debug_assert!(gets.get(at).is_none_or(|&(s, _)| s != seq));
        gets.insert(at, (seq, get));
    }

    /// Takes the outstanding GET a reply for `request` answers: one of the
    /// node's own, whose process is `origin`.  `None` for a request of
    /// another origin or one the node does not (or no longer) wait for.
    fn take_outstanding_get(
        &mut self,
        origin: ProcessId,
        request: RequestId,
    ) -> Option<OutstandingGet> {
        if request.origin != origin {
            return None;
        }
        let gets = &mut self.outstanding_gets;
        let at = gets.binary_search_by_key(&request.seq, |&(s, _)| s).ok()?;
        Some(gets.remove(at).1)
    }
}

/// Series numbers of the distributions a node reports to its host through
/// [`Context::observe`]: the lane's sample sink keeps one per series (read
/// back summed over all nodes by the cluster's `*_histogram()` and counter
/// accessors, and kept the same way by a daemon's lane).
pub mod series {
    /// Sizes of the batches sent up the tree or processed as the anchor
    /// (Theorem 18 / 20).
    pub const BATCH_SIZES: usize = 0;
    /// DHT routing hop counts per operation, observed at delivery (only
    /// reported by the responsible node).
    pub const DHT_HOPS: usize = 1;
    /// DHT operations carried per `DhtBatch` message sent — the direct
    /// measure of the per-destination coalescing win.
    pub const DHT_OPS_PER_MESSAGE: usize = 2;
    /// The sending node's aggregation waves in flight, sampled whenever a
    /// wave is opened (`max ≥ 2` means the pipeline overlapped waves).
    pub const WAVES_IN_FLIGHT: usize = 3;
    /// One sample of 1 per `DhtReply` entry that arrived for a request the
    /// node does not know — a reply can legitimately race its requester's
    /// departure during join/leave, so this is counted, not asserted.
    pub const UNMATCHED_DHT_REPLIES: usize = 4;
    /// One sample of 2 per push/pop pair resolved by the stack's local
    /// combining (the number of requests it resolved).
    pub const LOCALLY_COMBINED: usize = 5;
}

/// One virtual node running the Skueue protocol, generic over the element
/// payload type `T` it stores and routes (the protocol never inspects
/// payloads — they move through batches, DHT routing and completion records
/// untouched).
#[derive(Debug)]
pub struct SkueueNode<T: Payload = u64> {
    /// The deployment's configuration with this node's shard's bit budget:
    /// one copy per shard, shared by its nodes.  The hasher and the shard
    /// layout are pure functions of it and derived where needed.
    pub(crate) cfg: Arc<ProtocolConfig>,
    pub(crate) view: LocalView,
    /// Joining, member or draining, with the node's own leave request.
    pub(crate) lifecycle: Lifecycle,
    /// The anchor shard this node belongs to (0 in unsharded deployments).
    /// Everything the node does — its cycle, its aggregation tree, its DHT
    /// interval, its anchor — lives inside this shard.
    pub(crate) shard: ShardId,
    /// Anchor state, present only at the current shard anchor (one node per
    /// shard, so every other node keeps a null pointer, not the state's 56
    /// bytes).
    pub(crate) anchor: Option<Box<AnchorState>>,

    // --- Stage 1 state ------------------------------------------------------
    /// The wave epoch of the most recently opened wave (0 before the first).
    pub(crate) next_epoch: u64,
    /// Round in which this node last opened a wave (wave-merging cadence).
    pub(crate) last_wave_round: u64,
    /// True while the most recent `Aggregate` has not been confirmed by the
    /// parent (at most one per channel keeps commits in epoch order).
    pub(crate) aggregate_unacked: bool,

    /// The first-contact order of the peers this node routes to, replies
    /// to and combines sub-batches from.  Inline, not in [`Waves`]: it is
    /// the send and combination order for the node's whole life.
    pub(crate) lanes: LaneOrder,

    /// Waves in flight and queued sub-batches, and behind a second pointer
    /// requests, stored elements and uncollected completions; `None` while
    /// the node has none of them.
    pub(crate) waves: Option<Box<Waves<T>>>,

    // --- Cold state: absent in the steady state of a queue ----------------------
    /// Stack local combining (allocated with the node's first request in a
    /// stack deployment, never in queue mode).
    pub(crate) combining: Option<Box<LocalCombining<T>>>,
    /// Join/leave/update-phase bookkeeping (Section IV); `None` while
    /// membership around this node is stable.
    pub(crate) membership: Option<Box<Membership<T>>>,

    // --- Membership state every visit reads -----------------------------------
    /// Which of the emulating process's three virtual nodes are integrated
    /// members (indexed by `VKind::index`).  A node only treats integrated
    /// siblings as aggregation-tree children.
    pub(crate) sibling_integrated: [bool; 3],
    /// Highest update phase this node has participated in — the phase
    /// numbers a node enters must be monotone (checked by a `debug_assert`
    /// in `enter_update_phase`, which debug runs of the scenario search in
    /// `skueue-model` exercise on every line).
    pub(crate) last_update_phase: u64,
}

impl<T: Payload> SkueueNode<T> {
    /// Creates a node with the given configuration and initial neighbourhood
    /// view. `shard` is the anchor shard the node's process belongs to;
    /// `is_anchor` must be true exactly for the leftmost node of the shard's
    /// initial topology.
    pub fn new(cfg: Arc<ProtocolConfig>, shard: ShardId, view: LocalView, is_anchor: bool) -> Self {
        SkueueNode {
            cfg,
            view,
            lifecycle: Lifecycle::Member {
                leave: Leave::Stays,
                resumed: true,
            },
            shard,
            anchor: is_anchor.then(Box::default),
            next_epoch: 0,
            last_wave_round: 0,
            aggregate_unacked: false,
            lanes: LaneOrder::default(),
            waves: None,
            combining: None,
            membership: None,
            sibling_integrated: [true; 3],
            last_update_phase: 0,
        }
    }

    /// Creates a node that starts in the joining state (not yet part of its
    /// shard's cycle); `view` holds the node's own identity with placeholder
    /// neighbours.
    pub fn new_joining(cfg: Arc<ProtocolConfig>, shard: ShardId, view: LocalView) -> Self {
        let mut node = Self::new(cfg, shard, view, false);
        node.lifecycle = Lifecycle::Joining {
            announced: false,
            leave: Leave::Stays,
        };
        // Siblings of a joining process integrate one by one; each announces
        // itself via `SiblingStatus` when it does.
        node.sibling_integrated = [false; 3];
        node
    }

    fn fresh_batch(cfg: &ProtocolConfig) -> Batch {
        match cfg.mode {
            Mode::Queue => Batch::empty(),
            Mode::Stack => Batch::empty_stack(),
        }
    }

    /// The deployment's shard layout (pure function of `(shards,
    /// hash_seed)`); maps the anchor's shard-local positions into the
    /// shard's interval of the global position keyspace.
    fn shard_map(&self) -> ShardMap {
        ShardMap::new(self.cfg.effective_shards() as u32, self.cfg.hash_seed)
    }

    /// The membership bookkeeping, if any is outstanding.
    pub(crate) fn membership(&self) -> Option<&Membership<T>> {
        self.membership.as_deref()
    }

    /// The membership bookkeeping, allocated on first use (dropped again by
    /// [`Self::release_idle_membership`] once nothing is outstanding).
    pub(crate) fn membership_mut(&mut self) -> &mut Membership<T> {
        self.membership.get_or_insert_with(Box::default)
    }

    /// The ongoing update phase at this node, if any.
    pub(crate) fn update(&self) -> Option<&UpdatePhase> {
        self.membership()?.update.as_ref()
    }

    /// Mutable form of [`Self::update`].
    pub(crate) fn update_mut(&mut self) -> Option<&mut UpdatePhase> {
        self.membership.as_deref_mut()?.update.as_mut()
    }

    /// Forgets discharged duties and drops the membership bookkeeping once
    /// nothing is outstanding, so a node in a stable neighbourhood carries
    /// none (checked at the end of every visit step; one branch while it is
    /// already gone).
    fn release_idle_membership(&mut self) {
        if let Some(m) = self.membership.as_deref_mut() {
            m.duties.retain(|d| !d.is_discharged());
            if m.is_idle() {
                self.membership = None;
            }
        }
    }

    /// The request half, if the node holds one.
    pub(crate) fn requests(&self) -> Option<&Requests<T>> {
        self.waves.as_deref()?.requests.as_deref()
    }

    /// Mutable form of [`Self::requests`]; allocates nothing.
    pub(crate) fn requests_mut(&mut self) -> Option<&mut Requests<T>> {
        self.waves.as_deref_mut()?.requests.as_deref_mut()
    }

    /// Drops each half of the work state once the node holds nothing in it,
    /// the request half first: an idle node carries none, a node that only
    /// relays carries no request half, and a burst's buffers go back with
    /// the boxes (checked at the end of every visit and after the host
    /// collects completions).
    fn release_idle_work(&mut self) {
        let Some(waves) = self.waves.as_deref_mut() else {
            return;
        };
        if waves.requests.as_deref().is_some_and(Requests::is_idle) {
            waves.requests = None;
        }
        if waves.is_idle() {
            self.waves = None;
        }
    }

    // ---------------------------------------------------------------------
    // Public accessors used by the cluster driver.
    // ---------------------------------------------------------------------

    /// The configuration the node runs with: the deployment's, with its
    /// shard's bit budget.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The emulating process.
    pub fn process(&self) -> ProcessId {
        self.view.me().vid.process
    }

    /// The node's current neighbourhood view.
    pub fn view(&self) -> &LocalView {
        &self.view
    }

    /// True if this node currently holds its shard's anchor state.
    pub fn is_anchor_node(&self) -> bool {
        self.anchor.is_some()
    }

    /// The anchor shard this node belongs to (0 when unsharded).
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The anchor state, if this node is the anchor.
    pub(crate) fn anchor_state(&self) -> Option<&AnchorState> {
        self.anchor.as_deref()
    }

    /// Number of elements stored in this node's DHT partition.
    pub(crate) fn stored_elements(&self) -> usize {
        self.requests().map_or(0, |r| r.store.len())
    }

    /// True when completion records are waiting to be drained.
    pub fn has_completed(&self) -> bool {
        self.requests().is_some_and(|r| !r.completed.is_empty())
    }

    /// Appends the completed-operation records to `out`; a node left with
    /// nothing in flight, stored or uncollected drops its work state.
    pub fn drain_completed_into(&mut self, out: &mut Vec<OpRecord<T>>) {
        if let Some(requests) = self.requests_mut() {
            out.append(&mut requests.completed);
            self.release_idle_work();
        }
    }

    /// The trace identity of a request: origin process and per-origin seq.
    #[inline]
    fn tid(id: RequestId) -> TraceId {
        TraceId::new(id.origin.0, id.seq)
    }

    /// Number of this node's requests still unserved (in its log, waiting
    /// for their wave's assignment) plus its GETs in flight.  An enqueue
    /// whose PUT is still routing is open but not counted here.
    pub fn open_requests(&self) -> usize {
        self.requests()
            .map_or(0, |r| r.own_log.len() + r.outstanding_gets.len())
    }

    // ---------------------------------------------------------------------
    // Request generation (driver-side local operation).
    // ---------------------------------------------------------------------

    /// Generates a queue/stack operation at this node in the current round
    /// of `ctx`.  This is a *local* action of the emulating process, not a
    /// message: hosts run it as a driver-side action in the node's context.
    pub fn generate_op(
        &mut self,
        id: RequestId,
        kind: BatchOp,
        value: T,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        debug_assert!(self.is_integrated(), "only active nodes generate requests");
        let round = ctx.round();
        if !self.cfg.trace_level.is_off() {
            ctx.trace(
                self.shard,
                TraceEvent::Issued {
                    op: Self::tid(id),
                    insert: kind == BatchOp::Enqueue,
                    round,
                },
            );
        }
        let op = LocalOp {
            seq: id.seq,
            #[cfg(debug_assertions)]
            kind,
            value,
            issued_round: round,
        };

        let requests = Requests::of(&mut self.waves, &self.cfg);
        if self.cfg.is_stack() {
            let combining = self.combining.get_or_insert_with(Box::default);
            match kind {
                BatchOp::Enqueue => combining.local_stack.push(id),
                BatchOp::Dequeue => {
                    if let Some(push_id) = combining.local_stack.pop() {
                        // The matched push is necessarily the most recently
                        // issued unsent operation: undo its batching and
                        // complete both requests immediately (Section VI).
                        let push = requests.own_log.pop().expect("push must still be unsent");
                        debug_assert_eq!(push.seq, push_id.seq);
                        // The matched push was issued after the last wave
                        // opened (`local_stack` only holds unsent pushes), so
                        // it leaves the working batch along with the log.
                        requests.own_batch.pop_last_op();
                        ctx.observe(series::LOCALLY_COMBINED, 2);
                        // Pairs that were anchored to the removed push must be
                        // re-anchored together with the new pair (the push
                        // will never receive an anchor order value of its
                        // own).  The push precedes and the pop follows every
                        // record in the removed bucket, so placing them at
                        // the ends keeps the whole list in issue (= seq)
                        // order without re-sorting.
                        let mut records = combining
                            .pairs_by_anchor
                            .remove(&push.seq)
                            .unwrap_or_default();
                        let [push_rec, pop_rec] = self.make_combined_pair(push, op, round);
                        records.insert(0, push_rec);
                        records.push(pop_rec);
                        self.reanchor_pairs(records);
                        return;
                    }
                    // No unsent push available: the pop becomes part of the
                    // residual batch like any other operation.
                }
            }
        }

        requests.own_log.push(op);
        requests.own_batch.push_op(kind);
    }

    /// Builds the completion records of a locally combined push/pop pair.
    /// The order keys are placeholders; [`Self::reanchor_pairs`] (directly or
    /// via [`Self::note_order_assigned`]) fills in the final keys so that the
    /// pair ends up adjacent in `≺`, right after the issuing process's most
    /// recent anchor-ordered request.
    fn make_combined_pair(
        &self,
        push: LocalOp<T>,
        pop: LocalOp<T>,
        round: u64,
    ) -> [OpRecord<T>; 2] {
        let origin = self.process();
        let push_id = RequestId::new(origin, push.seq);
        [
            OpRecord {
                id: push_id,
                kind: OpKind::Enqueue,
                value: push.value.clone(),
                result: OpResult::Enqueued,
                order: OrderKey::local(0, origin, 0),
                issued_round: push.issued_round,
                completed_round: round,
            },
            OpRecord {
                id: RequestId::new(origin, pop.seq),
                kind: OpKind::Dequeue,
                value: push.value,
                result: OpResult::Returned(push_id),
                order: OrderKey::local(0, origin, 0),
                issued_round: pop.issued_round,
                completed_round: round,
            },
        ]
    }

    /// Attaches locally combined records to the request whose order value
    /// they must follow, or emits them right away when that order is already
    /// known.  Records within one anchor bucket are kept in issue order (the
    /// local execution order), which is itself a valid sequential stack
    /// execution.
    ///
    /// `records` arrives in issue (= seq) order, and every record is newer
    /// than anything already in the target bucket (re-anchoring only moves
    /// records to an *older* anchor, see [`Self::generate_op`]), so a plain
    /// append preserves the bucket's sort order — no re-sorting, which the
    /// old `extend` + `sort_by_key` pattern paid on every combined pair.
    fn reanchor_pairs(&mut self, records: Vec<OpRecord<T>>) {
        debug_assert!(
            records.windows(2).all(|w| w[0].id.seq < w[1].id.seq),
            "combined records must arrive in issue order"
        );
        let combining = self
            .combining
            .as_deref_mut()
            .expect("only a combining node re-anchors pairs");
        let requests = Requests::of(&mut self.waves, &self.cfg);
        if let Some(anchor_op) = requests.own_log.last() {
            let bucket = combining.pairs_by_anchor.entry(anchor_op.seq).or_default();
            debug_assert!(
                match (bucket.last(), records.first()) {
                    (Some(last), Some(first)) => last.id.seq < first.id.seq,
                    _ => true,
                },
                "re-anchored records must be newer than the bucket's contents"
            );
            bucket.extend(records);
        } else {
            let origin = self.view.me().vid.process;
            for mut record in records {
                combining.minor_counter += 1;
                record.order =
                    OrderKey::local(combining.last_order_major, origin, combining.minor_counter);
                requests.complete(record);
            }
        }
    }

    // ---------------------------------------------------------------------
    // Aggregation-tree helpers.
    // ---------------------------------------------------------------------

    /// The node's current aggregation-tree parent (None for the anchor).
    pub(crate) fn tree_parent(&self) -> Option<NodeId> {
        aggregation_parent(
            self.view.kind(),
            self.view.is_anchor(),
            self.view.sibling(VKind::Left).node,
            self.view.sibling(VKind::Middle).node,
            self.view.pred().node,
        )
    }

    /// True when this node's tree parent is a sibling virtual node that is
    /// not an integrated member: absorbed, or not integrated yet.  Its
    /// waves still reach the anchor (a draining parent forwards them to its
    /// absorber), but no update flag comes back down: only tree parents
    /// relay flags, and nobody relays them to a node out of the tree.
    pub(crate) fn parent_is_absent_sibling(&self) -> bool {
        let parent = match self.view.kind() {
            VKind::Left => return false,
            VKind::Middle => VKind::Left,
            VKind::Right => VKind::Middle,
        };
        !self.view.is_anchor() && !self.sibling_integrated[parent.index()]
    }

    /// The node's current aggregation-tree children (inline, no allocation —
    /// this runs on every `TIMEOUT` of every node).
    ///
    /// Sibling children (the process's own middle/right node) are only
    /// counted while they are integrated members — waiting for a sub-batch
    /// from a joining or draining sibling would deadlock the wave.
    pub(crate) fn tree_children(&self) -> ChildSet<NodeId> {
        let middle = self.view.sibling(VKind::Middle).node;
        let right = self.view.sibling(VKind::Right).node;
        let succ = self.view.succ();
        let raw = aggregation_child_set(
            self.view.kind(),
            right,
            middle,
            succ.node,
            succ.kind(),
            self.view.successor_wraps(),
        );
        let mut children = ChildSet::new();
        for &n in raw.iter() {
            if n == self.view.me().node {
                continue;
            }
            let integrated = if n == middle && n != succ.node {
                self.sibling_integrated[VKind::Middle.index()]
            } else if n == right && n != succ.node {
                self.sibling_integrated[VKind::Right.index()]
            } else {
                true
            };
            if integrated {
                children.push(n);
            }
        }
        children
    }

    // ---------------------------------------------------------------------
    // Stage 1: batch aggregation (pipelined waves).
    // ---------------------------------------------------------------------

    /// True when this node may open a new wave towards `parent`: a free
    /// slot, no unconfirmed aggregate, and no older slot addressed to a
    /// *different* parent (after re-parenting, older waves must fully drain
    /// first so the anchor keeps seeing this node's waves in epoch order).
    /// The anchor (`parent == None`) serves itself synchronously and must
    /// not overtake waves it still has in flight from before it adopted the
    /// anchor state.
    fn may_open_wave(&self, parent: Option<NodeId>) -> bool {
        if self.aggregate_unacked {
            return false;
        }
        let Some(waves) = self.waves.as_deref() else {
            return true;
        };
        match parent {
            Some(_) => {
                waves.slots.len() < self.cfg.effective_pipeline_depth()
                    && (waves.slots.is_empty() || waves.wave_parent == parent)
            }
            None => waves.slots.is_empty(),
        }
    }

    /// True when this node has anything a wave would carry: own operations,
    /// join/leave counters it is responsible for, or queued child
    /// sub-batches.  Queue waves are *demand-driven* — a quiet node opens
    /// none and goes fully quiescent, which is what keeps large mostly-idle
    /// systems cheap.  (Queue correctness does not need the strictly
    /// periodic empty waves of the paper's round model: serves are matched
    /// per child by wave epoch, so a quiet child's next batch simply rides a
    /// later wave.)
    fn has_wave_work(&self) -> bool {
        self.requests().is_some_and(|r| !r.own_batch.has_no_ops())
            || self.has_child_batches()
            || self
                .membership()
                .is_some_and(|m| m.duties.iter().any(Duty::is_unreported))
    }

    /// True when a sub-batch from any peer is queued.
    fn has_child_batches(&self) -> bool {
        self.waves
            .as_deref()
            .is_some_and(|w| !w.child_batches.is_empty())
    }

    /// Queues a sub-batch from `child` under its wave `epoch` for the next
    /// wave this node opens.
    pub(crate) fn queue_child_batch(&mut self, child: NodeId, epoch: u64, batch: Batch) {
        self.lanes.note(LaneKind::Child, child);
        Waves::of(&mut self.waves)
            .child_batches
            .push(child, epoch, batch);
    }

    /// True when this node must run the *strict* wave lockstep of Section VI
    /// instead of demand-driven waves: every node contributes a (possibly
    /// empty) sub-batch to every wave, and a parent combines only when all
    /// children contributed.  Composed with the per-node stage-4 barrier
    /// this yields a global barrier — the anchor cannot assign any wave
    /// `k+1` operation before *every* wave-`k` DHT operation completed —
    /// which is exactly what the stack's ticket matching needs: without it,
    /// a later pop generation's `GET` can steal the element an earlier
    /// generation's still-outstanding `GET` is entitled to on a reused
    /// position.
    fn strict_waves(&self) -> bool {
        self.cfg.is_stack()
    }

    /// True while a DHT operation this node issued is unresolved (counted
    /// by the stack only: its stage-4 barrier).
    fn dht_in_flight(&self) -> bool {
        self.requests().is_some_and(|r| r.outstanding_dht > 0)
    }

    fn try_send_batch(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        if !self.is_integrated() {
            return;
        }
        if self.suspended() {
            // Update phase: new own waves are suspended, but in-flight waves
            // queued below this node must keep moving (see
            // [`Self::try_drain_wave`]).
            self.try_drain_wave(ctx);
            return;
        }
        if self.strict_waves() {
            // Global lockstep: wait for a (possibly empty) sub-batch from
            // every current child before combining.
            let children = self.tree_children();
            let queued = |c| {
                self.waves
                    .as_deref()
                    .is_some_and(|w| w.child_batches.contains(c))
            };
            if !children.iter().all(queued) {
                return;
            }
        } else {
            if !self.has_wave_work() {
                return;
            }
            // Wave-merging cadence: opening at most one wave every other
            // round lets sub-batches travelling towards the same ancestor
            // land in one combined wave instead of chasing each other one
            // round apart (demand-driven waves otherwise never merge).
            if self.next_epoch > 0 && ctx.round() < self.last_wave_round + WAVE_CADENCE {
                return;
            }
        }
        if self.cfg.is_stack() && self.dht_in_flight() {
            return;
        }
        let parent = if self.anchor.is_some() {
            None
        } else {
            match self.tree_parent() {
                Some(p) => Some(p),
                // Leftmost node that has not received the anchor state yet
                // (anchor hand-off in flight): keep everything in the
                // working state and retry next timeout.
                None => return,
            }
        };
        if !self.may_open_wave(parent) {
            return;
        }
        self.open_wave(parent, false, ctx);
    }

    /// Update-phase wave draining: while this node is suspended, sub-batches
    /// queued from children (sent before their senders saw the update flag)
    /// are still combined — *without* committing this node's own operations —
    /// and forwarded, so every in-flight wave keeps moving toward the anchor.
    /// Without this, a leaver whose younger wave is parked below a suspended
    /// ancestor could never free its slots, and the update phase (which
    /// waits for the leaver's `AbsorbData`) would deadlock.
    fn try_drain_wave(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        if !self.has_child_batches() {
            return;
        }
        // The stack's stage-4 barrier applies to drain waves too: a node
        // (in particular the anchor) must not commit further waves while its
        // own DHT operations are unresolved, or a later pop generation could
        // be assigned against elements an outstanding GET is entitled to.
        if self.cfg.is_stack() && self.dht_in_flight() {
            return;
        }
        let parent = if self.anchor.is_some() {
            None
        } else {
            match self.tree_parent() {
                Some(p) => Some(p),
                None => return,
            }
        };
        if !self.may_open_wave(parent) {
            return;
        }
        self.open_wave(parent, true, ctx);
    }

    /// Combines the current sources into one wave and commits it: as the
    /// anchor by assigning and serving immediately (Stage 2+3), otherwise by
    /// occupying a [`WaveSlot`] and forwarding the combined batch up the
    /// tree.  `drain` waves (update phase) exclude the node's own working
    /// batch and join/leave counters.
    fn open_wave(&mut self, parent: Option<NodeId>, drain: bool, ctx: &mut Context<SkueueMsg<T>>) {
        let detached = parent.is_some() && self.parent_is_absent_sibling();
        let waves = Waves::of(&mut self.waves);
        let mut own = Self::fresh_batch(&self.cfg);
        if !drain {
            // Every unsent push is now committed to the aggregation path and
            // can no longer be combined locally.
            if let Some(combining) = &mut self.combining {
                combining.local_stack.clear();
            }
            // A node without a request half has no operation to commit.
            if let Some(requests) = waves.requests.as_deref_mut() {
                std::mem::swap(&mut own, &mut requests.own_batch);
                if !self.cfg.trace_level.is_off() {
                    // The working batch holds exactly the log's uncommitted
                    // suffix: the ops that join a wave now.
                    let committed = requests.own_log.len() - own.total_ops() as usize;
                    let (origin, round) = (self.view.me().vid.process, ctx.round());
                    for op in &requests.own_log[committed..] {
                        let op = Self::tid(RequestId::new(origin, op.seq));
                        ctx.trace(self.shard, TraceEvent::WaveJoin { op, round });
                    }
                }
            }
        }

        // Combine own batch + queued children sub-batches in a fixed order.
        // Each sub-batch leaves its run lengths at the back of the memo
        // (all the Stage 3 decomposition reads of it) and is dropped right
        // here; the own batch becomes the combined one.  An own batch
        // without runs would take no share of any run: it is not memorised.
        let memo = &mut waves.memo;
        let first_source = memo.records.len();
        if own.num_runs() > 0 {
            memo.remember(OWN_SOURCE, 0, &own);
        }
        let mut combined = own;
        let children = self.lanes.of(LaneKind::Child);
        waves
            .child_batches
            .pop_oldest(children, |rank, epoch, batch| {
                memo.remember(count_u32(rank), epoch, &batch);
                combined.merge(batch);
            });
        let num_sources = memo.records.len() - first_source;

        // Join/leave duties this node is itself responsible for.
        if let Some(m) = self.membership.as_deref_mut().filter(|_| !drain) {
            m.report(&mut combined);
        }
        let churn = combined.joins + combined.leaves;
        if churn > 0 && detached {
            let m = self.membership.get_or_insert_with(Box::default);
            let count = Duty::new(DutyKind::Count(churn), Step::Answered, Report::Unflagged);
            m.duties.push(count);
        }

        ctx.observe(series::BATCH_SIZES, combined.size() as u64);

        self.last_wave_round = ctx.round();
        match parent {
            None => {
                // Stage 2 happens right here: the anchor serves itself.
                // Churn carried by waves assigned during an update phase is
                // accumulated (not dropped); it triggers the *next* phase.
                let may_enter_update = !drain && self.update().is_none();
                let anchor = self.anchor.as_deref_mut().expect("anchor path");
                let assignments = anchor.assign_wave(&combined, self.cfg.mode);
                let enter_update = if may_enter_update {
                    anchor.take_update_decision()
                } else {
                    None
                };
                if !self.cfg.trace_level.is_off() {
                    // One instant per (shard, wave): the boundary between the
                    // aggregation and assignment stages for every op of this
                    // wave (all runs of one wave share the epoch).
                    if let Some(run) = assignments.first() {
                        let (wave, round) = (run.wave, ctx.round());
                        ctx.trace(self.shard, TraceEvent::WaveAssigned { wave, round });
                    }
                }
                // The anchor only opens a wave with no slot in flight, so
                // the memo holds exactly this wave's sources.
                debug_assert_eq!(first_source, 0);
                self.serve_sources(assignments, num_sources, ctx);
                if let Some(phase) = enter_update {
                    self.enter_update_phase(phase, None, ctx);
                }
            }
            Some(parent) => {
                self.next_epoch += 1;
                let epoch = self.next_epoch;
                waves.slots.push_back(WaveSlot {
                    num_sources: count_u32(num_sources),
                });
                waves.wave_parent = Some(parent);
                ctx.observe(series::WAVES_IN_FLIGHT, waves.slots.len() as u64);
                // FIFO transports cannot reorder a channel, so the credit
                // round-trip is skipped entirely.
                self.aggregate_unacked = !self.cfg.fifo_channels;
                ctx.send(
                    parent,
                    SkueueMsg::Aggregate {
                        child: self.view.me().node,
                        epoch,
                        batch: combined,
                    },
                );
            }
        }
    }

    // ---------------------------------------------------------------------
    // Stage 3: decomposition and serving.
    // ---------------------------------------------------------------------

    /// Splits the run assignments of the oldest in-flight wave among its
    /// `num_sources` sources — the front of the memo — in combination order
    /// (the inlined form of [`crate::interval::decompose`]): each source
    /// takes its share of every run front-to-back, so `cursors` (one
    /// assignment per run of the combined batch) is consumed in place, and
    /// the memo's run lengths are consumed with it.  Sub-assignments for
    /// children are forwarded; the node's own share is resolved locally.
    fn serve_sources(
        &mut self,
        mut cursors: Vec<RunAssignment>,
        num_sources: usize,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        for _ in 0..num_sources {
            let memo = &mut Waves::of(&mut self.waves).memo;
            let source = memo
                .records
                .pop_front()
                .expect("a wave's sources stay memorised until it is served");
            let num_runs = source.num_runs as usize;
            debug_assert!(
                num_runs <= cursors.len() && num_runs <= memo.runs.len(),
                "a source has no more runs than its wave's combined batch"
            );
            if source.child == OWN_SOURCE {
                self.resolve_own(&mut cursors[..num_runs], ctx);
            } else {
                // A child's share travels in a message and must be owned
                // (sized up front: a ring's drain does not promise its
                // length to `collect`, which would round a one-run share up).
                let mut runs = Vec::with_capacity(num_runs);
                runs.extend(
                    cursors[..num_runs]
                        .iter_mut()
                        .zip(memo.runs.drain(..num_runs))
                        .map(|(cursor, len)| cursor.split_front(u64::from(len))),
                );
                let child = self.lanes.of(LaneKind::Child)[source.child as usize];
                ctx.send(
                    child,
                    SkueueMsg::Serve {
                        epoch: source.epoch,
                        runs,
                    },
                );
            }
        }
        debug_assert!(
            cursors.iter().all(|c| c.count == 0),
            "sources must account for every operation of the combined batch"
        );
    }

    fn handle_serve(
        &mut self,
        epoch: u64,
        runs: Vec<RunAssignment>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        let Some(front) = self.front_epoch() else {
            debug_assert!(false, "Serve received without an in-flight wave");
            return;
        };
        if epoch != front {
            // Serves can overtake each other under asynchronous delivery,
            // but waves must be resolved in epoch order (the own-log prefix
            // decomposition depends on it) — park until older waves caught
            // up.
            if (front..=self.next_epoch).contains(&epoch) {
                let waves = Waves::of(&mut self.waves);
                waves.serve_stash.push(StashedServe { epoch, runs });
            } else {
                debug_assert!(false, "Serve for unknown wave epoch {epoch}");
            }
            return;
        }
        self.apply_serve(runs, ctx);
        // Release stashed serves that have reached the front of the ring.
        while let Some(front) = self.front_epoch() {
            let waves = Waves::of(&mut self.waves);
            let Some(idx) = waves.serve_stash.iter().position(|s| s.epoch == front) else {
                break;
            };
            let stashed = waves.serve_stash.swap_remove(idx);
            self.apply_serve(stashed.runs, ctx);
        }
    }

    /// The epoch of the oldest in-flight wave, if any: the ring holds the
    /// `len` youngest epochs up to [`Self::next_epoch`], oldest first.
    fn front_epoch(&self) -> Option<u64> {
        let in_flight = self.waves.as_deref().map_or(0, |w| w.slots.len()) as u64;
        (in_flight > 0).then(|| self.next_epoch + 1 - in_flight)
    }

    /// Resolves the oldest in-flight wave with the given assignments.
    fn apply_serve(&mut self, runs: Vec<RunAssignment>, ctx: &mut Context<SkueueMsg<T>>) {
        let slots = &mut Waves::of(&mut self.waves).slots;
        let slot = slots.pop_front().expect("caller checked the front");
        self.serve_sources(runs, slot.num_sources as usize, ctx);
    }

    /// Resolves the node's own requests (Stage 3 → Stage 4 transition):
    /// takes the own sub-batch's share — one memorised run length per
    /// cursor, off the front of the memo — off the front of each run cursor
    /// and resolves it.
    fn resolve_own(&mut self, cursors: &mut [RunAssignment], ctx: &mut Context<SkueueMsg<T>>) {
        let origin = self.process();
        let mut log_cursor = 0usize;
        for cursor in cursors {
            let len = Waves::of(&mut self.waves)
                .memo
                .runs
                .pop_front()
                .expect("the own sub-batch's run lengths stay memorised until it is served");
            let run = cursor.split_front(u64::from(len));
            for j in 0..run.count {
                // The resolved prefix is drained below, so the payload can be
                // *moved* out of the log entry (a take, not a clone) — the
                // generic path keeps the allocation/copy profile of the old
                // `Copy` payloads.
                let entry = &mut Requests::of(&mut self.waves, &self.cfg).own_log[log_cursor];
                let id = RequestId::new(origin, entry.seq);
                let issued_round = entry.issued_round;
                #[cfg(debug_assertions)]
                assert_eq!(entry.kind, run.kind, "own log out of sync with batch runs");
                let value = std::mem::take(&mut entry.value);
                log_cursor += 1;
                let order_major = run.value_base + j;
                self.note_order_assigned(id.seq, order_major);
                if !self.cfg.trace_level.is_off() {
                    let round = ctx.round();
                    ctx.trace(
                        self.shard,
                        TraceEvent::Assigned {
                            op: Self::tid(id),
                            wave: run.wave,
                            major: order_major,
                            round,
                        },
                    );
                }

                match run.kind {
                    BatchOp::Enqueue => {
                        let position = run.pos_lo + j;
                        let ticket = if self.cfg.is_stack() {
                            run.ticket_base + j
                        } else {
                            0
                        };
                        self.issue_put(
                            id,
                            issued_round,
                            value,
                            position,
                            ticket,
                            order_major,
                            run.wave,
                            ctx,
                        );
                    }
                    BatchOp::Dequeue => {
                        let available = run.available_positions();
                        if j < available {
                            let position = if run.descending {
                                run.pos_hi - j
                            } else {
                                run.pos_lo + j
                            };
                            let max_ticket = if self.cfg.is_stack() {
                                run.ticket_base
                            } else {
                                u64::MAX
                            };
                            self.issue_get(
                                id,
                                issued_round,
                                position,
                                max_ticket,
                                order_major,
                                run.wave,
                                ctx,
                            );
                        } else {
                            // ⊥: completes immediately.
                            let order = self.order_key(run.wave, order_major, id.origin);
                            Requests::of(&mut self.waves, &self.cfg).complete(OpRecord {
                                id,
                                kind: OpKind::Dequeue,
                                value: T::default(),
                                result: OpResult::Empty,
                                order,
                                issued_round,
                                completed_round: ctx.round(),
                            });
                        }
                    }
                }
            }
        }
        // Remove the resolved prefix from the log; anything after it was
        // generated after the batch was sent and belongs to the next one.
        Requests::of(&mut self.waves, &self.cfg)
            .own_log
            .drain(0..log_cursor);
    }

    /// The witnessed order key for an anchor-assigned order value: plain
    /// `major` ordering when unsharded (bit-identical to the pre-sharding
    /// format), the `(wave, shard, major)` merge components otherwise.
    fn order_key(&self, wave: u64, major: u64, origin: ProcessId) -> OrderKey {
        if self.cfg.is_sharded() {
            OrderKey::sharded(wave, self.shard, major, origin)
        } else {
            OrderKey::anchor(major, origin)
        }
    }

    /// Updates the local order bookkeeping when one of this node's own
    /// requests receives its anchor order value, releasing any locally
    /// combined pairs anchored to it.
    fn note_order_assigned(&mut self, seq: u64, major: u64) {
        // A combining node's state exists from its first request on, so it
        // is present whenever one of its requests is ordered.
        let Some(combining) = self.combining.as_deref_mut() else {
            return;
        };
        combining.last_order_major = major;
        combining.minor_counter = 0;
        if let Some(pairs) = combining.pairs_by_anchor.remove(&seq) {
            // Buckets are maintained in seq order (see `reanchor_pairs`).
            debug_assert!(pairs.windows(2).all(|w| w[0].id.seq < w[1].id.seq));
            let origin = self.view.me().vid.process;
            let requests = Requests::of(&mut self.waves, &self.cfg);
            for mut record in pairs {
                combining.minor_counter += 1;
                record.order = OrderKey::local(major, origin, combining.minor_counter);
                requests.complete(record);
            }
        }
    }

    // ---------------------------------------------------------------------
    // Stage 4: DHT operations (batched routing).
    // ---------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn issue_put(
        &mut self,
        id: RequestId,
        issued_round: u64,
        value: T,
        position: u64,
        ticket: u64,
        order_major: u64,
        wave: u64,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        // The anchor assigns shard-local positions; the DHT stores under the
        // global position — the shard id in the high bits of the keyspace.
        let position = self.shard_map().global_position(self.shard, position);
        let key = self.cfg.hasher().position_key(position);
        let entry = StoredEntry {
            position,
            key,
            ticket,
            element: Element::new(id, value),
        };
        let meta = PutMeta {
            issued_round,
            order: order_major,
            wave,
            needs_ack: self.cfg.is_stack(),
            issuer: self.view.me().node,
        };
        if self.cfg.is_stack() {
            Requests::of(&mut self.waves, &self.cfg).outstanding_dht += 1;
        }
        if !self.cfg.trace_level.is_off() {
            let (op, round) = (Self::tid(id), ctx.round());
            ctx.trace(self.shard, TraceEvent::DhtIssued { op, round });
        }
        let progress = RouteProgress::new(key, self.cfg.bit_budget);
        self.dispatch_dht(Box::new(DhtOp::Put { entry, meta }), progress, ctx);
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_get(
        &mut self,
        id: RequestId,
        issued_round: u64,
        position: u64,
        max_ticket: u64,
        order_major: u64,
        wave: u64,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        let position = self.shard_map().global_position(self.shard, position);
        let key = self.cfg.hasher().position_key(position);
        // Remember the metadata needed to complete the request when the
        // reply arrives.
        debug_assert_eq!(id.origin, self.process(), "a node issues its own GETs");
        let requests = Requests::of(&mut self.waves, &self.cfg);
        requests.note_outstanding_get(
            id.seq,
            OutstandingGet {
                issued_round,
                order: order_major,
                wave,
            },
        );
        if self.cfg.is_stack() {
            requests.outstanding_dht += 1;
        }
        if !self.cfg.trace_level.is_off() {
            let (op, round) = (Self::tid(id), ctx.round());
            ctx.trace(self.shard, TraceEvent::DhtIssued { op, round });
        }
        let progress = RouteProgress::new(key, self.cfg.bit_budget);
        self.dispatch_dht(
            Box::new(DhtOp::Get {
                position,
                max_ticket,
                request: id,
                requester: self.view.me().node,
            }),
            progress,
            ctx,
        );
    }

    /// Routes one DHT operation a single step: applies it locally when this
    /// node is responsible, otherwise adds it to the visit's staged
    /// `DhtBatch` towards the next hop ([`Self::stage`]) — the
    /// end-of-visit flush sends one such message per next hop.
    pub(crate) fn dispatch_dht(
        &mut self,
        op: Box<DhtOp<T>>,
        mut progress: RouteProgress,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        // If a joiner took over part of our interval but is not integrated
        // into the cycle yet, forward operations for its range directly.
        if let Some(target) = self.joiner_responsible_for(progress.target) {
            progress.hops += 1;
            self.trace_hop(&op, progress.hops, ctx);
            Self::stage(&mut self.lanes, target, RoutedDhtOp { op, progress }, ctx);
            return;
        }
        match route_step(&self.view, &mut progress) {
            RouteAction::Deliver => self.apply_dht(*op, &progress, ctx),
            RouteAction::Forward(next) => {
                progress.hops += 1;
                self.trace_hop(&op, progress.hops, ctx);
                Self::stage(&mut self.lanes, next, RoutedDhtOp { op, progress }, ctx);
            }
        }
    }

    /// Records one DHT routing hop (at [`TraceLevel::Full`] only; a moved
    /// element's hops are not an operation's, see [`Self::apply_dht`]).
    #[inline]
    fn trace_hop(&self, op: &DhtOp<T>, hop: u32, ctx: &mut Context<SkueueMsg<T>>) {
        if self.cfg.trace_level == TraceLevel::Full && !matches!(op, DhtOp::Move { .. }) {
            let (op, round) = (Self::tid(op.request_id()), ctx.round());
            ctx.trace(self.shard, TraceEvent::DhtHop { op, hop, round });
        }
    }

    /// Applies or re-routes every operation of a delivered `DhtBatch`, in
    /// batch order.
    fn handle_dht_batch(&mut self, ops: Vec<RoutedDhtOp<T>>, ctx: &mut Context<SkueueMsg<T>>) {
        for routed in ops {
            self.dispatch_dht(routed.op, routed.progress, ctx);
        }
    }

    /// Applies a DHT operation at the responsible node.  Replies coalesce
    /// per requester ([`Self::stage`]), a parked GET's among them, so
    /// applying a whole delivered batch is one pass without per-op
    /// allocations.
    pub(crate) fn apply_dht(
        &mut self,
        op: DhtOp<T>,
        progress: &RouteProgress,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        // A moved element is not an operation of its own: its enqueue was
        // counted, traced and completed where it was first stored.
        if !matches!(op, DhtOp::Move { .. }) {
            ctx.observe(series::DHT_HOPS, progress.hops as u64);
            if !self.cfg.trace_level.is_off() {
                let (op, hops, round) = (Self::tid(op.request_id()), progress.hops, ctx.round());
                ctx.trace(self.shard, TraceEvent::DhtApplied { op, hops, round });
            }
        }
        match op {
            DhtOp::Put { entry, meta } => {
                // The enqueue/push is finished once its element is stored (or
                // immediately consumed by a parked GET).  DHT routing stays
                // inside the shard's cycle, so the storing node shares the
                // issuer's shard and can witness the sharded order key.  The
                // completion record needs the payload *and* the store keeps
                // the element, so this is the one deliberate clone on the
                // enqueue path (a copy, pre-generics).
                let order = self.order_key(meta.wave, meta.order, entry.element.id.origin);
                let requests = Requests::of(&mut self.waves, &self.cfg);
                requests.complete(OpRecord {
                    id: entry.element.id,
                    kind: OpKind::Enqueue,
                    value: entry.element.value.clone(),
                    result: OpResult::Enqueued,
                    order,
                    issued_round: meta.issued_round,
                    completed_round: ctx.round(),
                });
                if meta.needs_ack {
                    ctx.send(
                        meta.issuer,
                        SkueueMsg::PutAck {
                            request: entry.element.id,
                        },
                    );
                }
                self.store_entry(entry, ctx);
            }
            DhtOp::Get {
                position,
                max_ticket,
                request,
                requester,
            } => {
                let store = &mut Requests::of(&mut self.waves, &self.cfg).store;
                match store.get(position, max_ticket, request, requester) {
                    GetOutcome::Found(entry) => {
                        let reply = DhtReplyItem { request, entry };
                        Self::stage(&mut self.lanes, requester, reply, ctx);
                    }
                    GetOutcome::Parked => {
                        // Waits at this node until the PUT arrives (Stage 4).
                    }
                }
            }
            DhtOp::Move { entry } => self.store_entry(entry, ctx),
        }
    }

    /// Stores `entry`, or hands it to the parked GET it satisfies.
    fn store_entry(&mut self, entry: StoredEntry<T>, ctx: &mut Context<SkueueMsg<T>>) {
        let store = &mut Requests::of(&mut self.waves, &self.cfg).store;
        if let Some(s) = store.put_into(entry) {
            let reply = DhtReplyItem {
                request: s.get.request,
                entry: s.entry,
            };
            Self::stage(&mut self.lanes, s.get.requester, reply, ctx);
        }
    }

    fn handle_dht_reply_batch(
        &mut self,
        replies: Vec<DhtReplyItem<T>>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        for item in replies {
            self.handle_dht_reply(item.request, item.entry, ctx);
        }
    }

    fn handle_dht_reply(
        &mut self,
        request: RequestId,
        entry: StoredEntry<T>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        let origin = self.process();
        let meta = self
            .requests_mut()
            .and_then(|r| r.take_outstanding_get(origin, request));
        if let Some(meta) = meta {
            let order = self.order_key(meta.wave, meta.order, request.origin);
            let requests = Requests::of(&mut self.waves, &self.cfg);
            if self.cfg.is_stack() {
                requests.outstanding_dht = requests.outstanding_dht.saturating_sub(1);
            }
            // The entry ends its life here: the payload moves into the
            // completion record without a clone.
            let source = entry.element.id;
            requests.complete(OpRecord {
                id: request,
                kind: OpKind::Dequeue,
                value: entry.element.value,
                result: OpResult::Returned(source),
                order,
                issued_round: meta.issued_round,
                completed_round: ctx.round(),
            });
        } else {
            // A reply can legitimately race its requester's departure during
            // join/leave (a draining node forwards the reply to an absorber
            // that never issued the GET) — count it for the metrics instead
            // of tripping a debug-build panic.
            ctx.observe(series::UNMATCHED_DHT_REPLIES, 1);
        }
    }

    /// Adds `item` to this visit's batch towards `to`, staged in the lane's
    /// context: a routed op to the `DhtBatch` for that next hop, a reply to
    /// the `DhtReplyBatch` for that requester.  The first item towards `to`
    /// starts the batch (and, the first time ever, `to`'s place in the
    /// lane order).
    pub(crate) fn stage<I: Coalesced<T>>(
        lanes: &mut LaneOrder,
        to: NodeId,
        item: I,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        let staged = ctx.staged();
        let batch = staged
            .iter_mut()
            .find_map(|(dest, msg)| if *dest == to { I::items(msg) } else { None });
        match batch {
            Some(items) => items.push(item),
            None => {
                staged.push((to, I::batch(lane_of(item))));
                lanes.note(I::KIND, to);
            }
        }
    }

    /// Sends the DHT batches staged during this visit: one `DhtBatch` per
    /// next hop in route order, then one `DhtReplyBatch` per requester in
    /// reply order.  Called at the end of every `on_timeout`, which both
    /// hosts run at the end of every visit — so staged ops never survive a
    /// visit and add no latency.
    fn flush_dht_buffers(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        if ctx.staged().is_empty() {
            return;
        }
        // Moved out while sending and back, so the lane keeps its capacity.
        let mut staged = std::mem::take(ctx.staged());
        let lanes = &self.lanes;
        let rank = |(to, msg): &(NodeId, SkueueMsg<T>)| match msg {
            SkueueMsg::DhtBatch { .. } => lanes.rank(LaneKind::Route, *to),
            _ => lanes.rank(LaneKind::Reply, *to),
        };
        debug_assert!(staged.iter().all(|entry| rank(entry).is_some()));
        // One batch per (kind, peer): the ranks are distinct.
        staged.sort_unstable_by_key(rank);
        for (to, msg) in staged.drain(..) {
            if let SkueueMsg::DhtBatch { ops } = &msg {
                ctx.observe(series::DHT_OPS_PER_MESSAGE, ops.len() as u64);
            }
            ctx.send(to, msg);
        }
        *ctx.staged() = staged;
    }

    // ---------------------------------------------------------------------
    // Anchor / update-phase helpers (details in join_leave.rs).
    // ---------------------------------------------------------------------

    /// Becomes the anchor with the given state (initial setup or hand-off).
    pub(crate) fn adopt_anchor(&mut self, state: AnchorState) {
        self.anchor = Some(Box::new(state));
    }

    /// Gives the anchor state up (hand-off), if this node holds it.
    pub(crate) fn take_anchor(&mut self) -> Option<AnchorState> {
        self.anchor.take().map(|state| *state)
    }
}

impl<T: Payload> Actor for SkueueNode<T> {
    type Msg = SkueueMsg<T>;

    fn on_message(&mut self, from: NodeId, msg: SkueueMsg<T>, ctx: &mut Context<SkueueMsg<T>>) {
        // Draining nodes forward everything to their absorber (reliable
        // channels: nothing is lost while the node is on its way out) —
        // except *node-local* messages, which would corrupt the absorber's
        // own state if relayed: pointer updates, update-phase control, a
        // sibling's integration status (the absorber belongs to a different
        // process; applying the leaver's sibling flags to it would cut an
        // innocent node out of the absorber's aggregation tree), and a late
        // aggregate confirmation (it would clear the absorber's own
        // channel-serialisation credit).
        if let Lifecycle::Draining { absorber, .. } = self.lifecycle {
            match msg {
                SkueueMsg::SetPred { .. }
                | SkueueMsg::SetSucc { .. }
                | SkueueMsg::UpdateOver { .. }
                | SkueueMsg::UpdateFlag { .. }
                | SkueueMsg::SiblingStatus { .. }
                | SkueueMsg::AggregateAck => {}
                other => {
                    debug_assert!(
                        !other.is_node_local(),
                        "draining node must not forward node-local message {other:?}"
                    );
                    ctx.send(absorber, other);
                    return;
                }
            }
        }

        match msg {
            SkueueMsg::Aggregate {
                child,
                epoch,
                batch,
            } => {
                // Confirm receipt right away (the credit that serialises the
                // child→parent channel under reordering delivery) and queue
                // the sub-batch.  Combining happens in this visit's timeout
                // — after *all* of the round's messages — so sub-batches
                // arriving in the same round still share one wave, and
                // latency stays at one round per tree level, matching the
                // paper's accounting.
                if !self.cfg.fifo_channels {
                    ctx.send(child, SkueueMsg::AggregateAck);
                }
                self.queue_child_batch(child, epoch, batch);
            }
            SkueueMsg::AggregateAck => {
                // Credit non-negativity: each ack must match exactly one
                // outstanding aggregate (the model's credit-serialisation
                // invariant); a spurious ack would double-credit the channel
                // and let two unconfirmed aggregates race on it.
                debug_assert!(
                    self.aggregate_unacked,
                    "AggregateAck without an outstanding aggregate credit at {}",
                    self.view.me().vid
                );
                self.aggregate_unacked = false;
                // The next wave (if any is ready) opens in this visit's
                // timeout.
            }
            SkueueMsg::Serve { epoch, runs } => {
                self.handle_serve(epoch, runs, ctx);
            }
            SkueueMsg::DhtBatch { ops } => {
                if matches!(self.lifecycle, Lifecycle::Joining { .. }) {
                    // Not part of the cycle yet: re-route after integration.
                    self.membership_mut().deferred_dht.extend(ops);
                } else {
                    self.handle_dht_batch(ops, ctx);
                }
            }
            SkueueMsg::DhtReplyBatch { replies } => self.handle_dht_reply_batch(replies, ctx),
            SkueueMsg::PutAck { .. } => {
                if self.cfg.is_stack() {
                    let requests = Requests::of(&mut self.waves, &self.cfg);
                    requests.outstanding_dht = requests.outstanding_dht.saturating_sub(1);
                }
            }
            other => {
                self.handle_membership(from, other, ctx);
                self.release_idle_membership();
            }
        }
    }

    fn on_timeout(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        match self.lifecycle {
            Lifecycle::Member { .. } => {
                self.membership_timeout(ctx);
                self.try_send_batch(ctx);
            }
            Lifecycle::Joining { .. } => self.joining_timeout(ctx),
            Lifecycle::Draining { .. } => {}
        }
        // Everything routed during this visit (messages + timeout) leaves as
        // one batch per destination.
        self.flush_dht_buffers(ctx);
        self.release_idle_membership();
        self.release_idle_work();
    }

    /// A node's `TIMEOUT` is a provable no-op — and is therefore skipped by
    /// the scheduler — while it has nothing a wave would carry, its wave
    /// pipeline is full, or its latest aggregate is unconfirmed, and no
    /// membership duty is outstanding.  Every state change that can flip
    /// this back (a `Serve`, an `AggregateAck`, an incoming `Aggregate`, an
    /// absorb request, an `UpdateOver`, …) arrives as a message, after
    /// which the scheduler re-queries; the driver-side actions that can flip
    /// it (`generate_op` — new own work — and `request_leave`) run through
    /// [`Simulation::act`](skueue_sim::Simulation::act), which re-queries
    /// too.
    fn wants_timeout(&self) -> bool {
        match self.lifecycle {
            Lifecycle::Member { leave, .. } => {
                let in_flight = self.waves.as_deref().map_or(0, |w| w.slots.len());
                let pipeline_open =
                    in_flight < self.cfg.effective_pipeline_depth() && !self.aggregate_unacked;
                (pipeline_open && (self.strict_waves() || self.has_wave_work()))
                    || leave == Leave::Wanted
                    || self
                        .membership()
                        .is_some_and(|m| m.absorb_deferred.is_some())
            }
            Lifecycle::Joining { announced, .. } => !announced,
            Lifecycle::Draining { .. } => false,
        }
    }
}

#[cfg(test)]
mod census;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::FirstRun;
    use crate::config::PIPELINE_DEPTH;
    use crate::interval::decompose;
    use crate::messages::AbsorbPayload;
    use proptest::prelude::*;
    use skueue_dht::PendingGet;
    use skueue_overlay::{
        node_of, recommended_bit_budget, Label, LabelHasher, NeighborInfo, Topology, VirtualId,
    };

    type Serve = (NodeId, u64, Vec<RunAssignment>);

    /// What an idle node, its view and a message in flight cost inline.  The
    /// budgets in `tests/memory_budget.rs`, `tests/idle_node_memory.rs`,
    /// `tests/node_view.rs`, `tests/lane_order.rs` and
    /// `tests/inflight_memory.rs` are ceilings from earlier rounds (896, 384,
    /// 240, 176 and 104 B); these are today's sizes, the view's also held by
    /// `tests/node_view.rs`.
    #[test]
    fn a_node_is_168_bytes_and_an_envelope_80() {
        use std::mem::size_of;
        assert!(size_of::<SkueueNode<u64>>() <= 168);
        assert!(size_of::<LocalView>() <= 48);
        assert!(size_of::<skueue_sim::Envelope<SkueueMsg<u64>>>() <= 80);
    }

    /// What a busy node's two halves of work cost where they exist: a node
    /// that only relays sub-batches holds the wave half, an issuing node
    /// both.
    #[test]
    fn a_wave_half_is_168_bytes_and_a_request_half_200() {
        use std::mem::size_of;
        assert!(size_of::<Waves<u64>>() <= 168);
        assert!(size_of::<Requests<u64>>() <= 200);
    }

    /// What a request costs while it waits in its node's log: its seq, its
    /// payload and its issue round in release builds (debug builds add the
    /// kind their log check reads).
    #[test]
    fn a_logged_request_is_24_bytes() {
        let budget = if cfg!(debug_assertions) { 32 } else { 24 };
        assert!(std::mem::size_of::<LocalOp<u64>>() <= budget);
    }

    /// The outstanding GETs stay sorted by seq however they are noted, and
    /// a GET is found again only under the node's own origin.
    #[test]
    fn outstanding_gets_stay_sorted_by_seq() {
        let mut node = node_under_test(false);
        let me = node.process();
        let requests = Requests::of(&mut node.waves, &node.cfg);
        let get = |order| OutstandingGet {
            issued_round: 0,
            order,
            wave: 1,
        };
        let seqs = |r: &Requests<u64>| -> Vec<u64> {
            r.outstanding_gets.iter().map(|&(seq, _)| seq).collect()
        };
        for seq in [4, 9, 10, 2, 7] {
            requests.note_outstanding_get(seq, get(seq));
        }
        assert_eq!(seqs(requests), [2, 4, 7, 9, 10]);
        let foreign = ProcessId(me.0 + 1);
        assert_eq!(
            requests.take_outstanding_get(me, RequestId::new(foreign, 7)),
            None
        );
        assert_eq!(
            requests.take_outstanding_get(me, RequestId::new(me, 8)),
            None
        );
        let taken = requests.take_outstanding_get(me, RequestId::new(me, 7));
        assert_eq!(taken, Some(get(7)));
        assert_eq!(seqs(requests), [2, 4, 9, 10]);
        requests.note_outstanding_get(11, get(11));
        requests.note_outstanding_get(3, get(3));
        assert_eq!(seqs(requests), [2, 3, 4, 9, 10, 11]);
    }

    /// A reply for another process's request, or for a seq the node waits
    /// for no GET of, raises `unmatched_dht_replies` by exactly one and
    /// leaves the node's GETs alone; the reply it waits for completes one.
    #[test]
    fn a_reply_for_a_foreign_origin_or_an_unknown_seq_is_unmatched() {
        use crate::cluster::Skueue;
        let mut cluster = Skueue::<u64>::builder()
            .processes(4)
            .seed(1)
            .build()
            .expect("valid configuration");
        let me = ProcessId(1);
        let middle = node_of(VirtualId::middle(me));
        let get = OutstandingGet {
            issued_round: 0,
            order: 1,
            wave: 1,
        };
        cluster.act_on(middle, |node, _| {
            let requests = Requests::of(&mut node.waves, &node.cfg);
            requests.note_outstanding_get(5, get);
            requests.note_outstanding_get(9, get);
        });
        let reply = |cluster: &mut Skueue<u64>, origin, seq| {
            let entry = StoredEntry {
                position: 3,
                key: Label::from_f64(0.5),
                ticket: 0,
                element: Element::new(RequestId::new(ProcessId(2), 0), 42),
            };
            let request = RequestId::new(origin, seq);
            let before = cluster.unmatched_dht_replies();
            cluster.act_on(middle, |node, ctx| {
                node.handle_dht_reply(request, entry, ctx)
            });
            let node = cluster.node(middle).expect("a member");
            let waiting = node.requests().map_or(vec![], |r| {
                r.outstanding_gets.iter().map(|&(seq, _)| seq).collect()
            });
            (cluster.unmatched_dht_replies() - before, waiting)
        };
        for (origin, seq) in [(ProcessId(2), 5), (me, 6), (me, 4), (me, 10)] {
            assert_eq!(reply(&mut cluster, origin, seq), (1, vec![5, 9]));
        }
        assert_eq!(reply(&mut cluster, me, 5), (0, vec![9]));
        assert!(cluster.node(middle).unwrap().has_completed());
        assert_eq!(reply(&mut cluster, me, 5), (1, vec![9]));
    }

    /// What one in-flight wave keeps per slot and per sub-batch: the ring
    /// holds up to [`PIPELINE_DEPTH`] slots on every busy node, the memo a
    /// record per sub-batch of each.
    #[test]
    fn a_wave_slot_is_4_bytes_and_a_source_record_16() {
        use std::mem::size_of;
        assert!(size_of::<WaveSlot>() <= 4);
        assert!(size_of::<SourceRecord>() <= 16);
    }

    /// The node's in-flight waves (none while it holds no work state).
    fn in_flight(node: &SkueueNode<u64>) -> usize {
        node.waves.as_deref().map_or(0, |w| w.slots.len())
    }

    /// Asking an idle node what it holds allocates nothing: every reader
    /// of the work state, and a timeout that only reads it.
    #[test]
    fn reading_an_idle_node_leaves_its_work_unallocated() {
        for anchor in [false, true] {
            let node = node_under_test(anchor);
            assert!(!node.wants_timeout());
            assert!(node.may_open_wave(node.tree_parent()));
            assert!(!node.has_wave_work());
            assert!(!node.has_completed());
            assert_eq!(node.open_requests(), 0);
            assert_eq!(node.stored_elements(), 0);
            assert!(node.ready_to_be_absorbed());
            assert!(node.waves.is_none());
        }
        // The leave check reads the node's open requests, then asks.
        let mut node = node_under_test(false);
        node.request_leave();
        let mut ctx = Context::new(node.view.me().node, 0);
        node.membership_timeout(&mut ctx);
        let asked = ctx.into_outbox();
        assert!(matches!(asked[..], [(_, SkueueMsg::LeaveRequest { .. })]));
        assert!(node.waves.is_none());
    }

    /// A node whose last wave was served and that stores nothing gives its
    /// work state back at the end of the visit; a node that stores an
    /// element keeps it until the element is taken.
    #[test]
    fn a_node_holds_work_only_while_it_has_some() {
        let mut node = node_under_test(false);
        let (me, parent, child) = (
            node.view.me().node,
            node.tree_parent().unwrap(),
            NodeId(1000),
        );
        // A child's sub-batch rides this node's wave: the box holds the slot.
        let mut ctx = Context::new(me, WAVE_CADENCE);
        let batch = child_batch(0x0302_0100);
        node.on_message(
            child,
            SkueueMsg::Aggregate {
                child,
                epoch: 1,
                batch,
            },
            &mut ctx,
        );
        node.on_timeout(&mut ctx);
        let sent = ctx
            .into_outbox()
            .into_iter()
            .find_map(|(_, msg)| match msg {
                SkueueMsg::Aggregate { epoch, batch, .. } => Some((epoch, batch)),
                _ => None,
            });
        let (epoch, batch) = sent.expect("the sub-batch opened a wave");
        assert_eq!(in_flight(&node), 1);
        // Its serve goes on to the child, and the box with it.
        let runs = AnchorState::new().assign_wave(&batch, Mode::Queue);
        let mut ctx = Context::new(me, 2 * WAVE_CADENCE);
        node.on_message(parent, SkueueMsg::Serve { epoch, runs }, &mut ctx);
        node.on_timeout(&mut ctx);
        let served = ctx.into_outbox();
        assert!(matches!(served[..], [(to, SkueueMsg::Serve { epoch: 1, .. })] if to == child));
        assert!(node.waves.is_none());

        // A stored element keeps the box past the visit and the collection
        // of its completion record; the GET that takes it frees the box.
        let (id, position) = (RequestId::new(ProcessId(7), 0), 3);
        let key = node.cfg.hasher().position_key(position);
        let progress = RouteProgress::new(key, node.cfg.bit_budget);
        let entry = StoredEntry {
            position,
            key,
            ticket: 0,
            element: Element::new(id, 42),
        };
        let meta = PutMeta {
            issued_round: 0,
            order: 1,
            wave: 1,
            needs_ack: false,
            issuer: me,
        };
        let mut ctx = Context::new(me, 10);
        node.apply_dht(DhtOp::Put { entry, meta }, &progress, &mut ctx);
        node.on_timeout(&mut ctx);
        let mut completed = Vec::new();
        node.drain_completed_into(&mut completed);
        assert_eq!(completed.len(), 1);
        assert_eq!(node.stored_elements(), 1);
        assert!(node.requests().is_some());
        let get = DhtOp::Get {
            position,
            max_ticket: u64::MAX,
            request: RequestId::new(ProcessId(8), 0),
            requester: NodeId(1001),
        };
        node.apply_dht(get, &progress, &mut ctx);
        node.on_timeout(&mut ctx);
        assert!(matches!(
            ctx.into_outbox()[..],
            [(_, SkueueMsg::DhtReplyBatch { .. })]
        ));
        assert!(node.waves.is_none());
    }

    /// Runs one visit at `round`: the `arrivals`, then the timeout.  Returns
    /// the wave it sent up (epoch and combined batch), if any, and the
    /// `Serve`s it sent down.
    fn visit_with(
        node: &mut SkueueNode<u64>,
        round: u64,
        arrivals: Vec<(NodeId, SkueueMsg<u64>)>,
    ) -> (Option<(u64, Batch)>, Vec<Serve>) {
        let mut ctx = Context::new(node.view.me().node, round);
        for (from, msg) in arrivals {
            node.on_message(from, msg, &mut ctx);
        }
        node.on_timeout(&mut ctx);
        let (mut sent, mut served) = (None, Vec::new());
        for (to, msg) in ctx.into_outbox() {
            match msg {
                SkueueMsg::Aggregate { epoch, batch, .. } => sent = Some((epoch, batch)),
                SkueueMsg::Serve { epoch, runs } => served.push((to, epoch, runs)),
                _ => {}
            }
        }
        (sent, served)
    }

    /// A right node (and a left one alike) issues nothing: combining a
    /// child's sub-batch, it holds the wave half alone, and its child queue
    /// room for the one sub-batch it queued.
    #[test]
    fn a_relay_holds_only_the_wave_half_with_room_for_one_sub_batch() {
        let mut node = node_of_kind(false, VKind::Right);
        let (me, parent, child) = (
            node.view.me().node,
            node.tree_parent().unwrap(),
            NodeId(1000),
        );
        let mut ctx = Context::new(me, WAVE_CADENCE);
        let aggregate = SkueueMsg::Aggregate {
            child,
            epoch: 1,
            batch: child_batch(0x0302_0100),
        };
        node.on_message(child, aggregate, &mut ctx);
        let waves = node.waves.as_deref().expect("the sub-batch is queued");
        assert_eq!(waves.child_batches.0.capacity(), 1);
        assert!(waves.requests.is_none());
        node.on_timeout(&mut ctx);
        assert_eq!(in_flight(&node), 1);
        assert!(node.requests().is_none());

        // The next sub-batch reuses the room; its wave follows the first.
        let aggregate = SkueueMsg::Aggregate {
            child,
            epoch: 2,
            batch: child_batch(0x0101_0000),
        };
        let (sent, _) = visit_with(&mut node, 2 * WAVE_CADENCE, vec![(child, aggregate)]);
        assert_eq!(sent.map(|(epoch, _)| epoch), Some(2));
        let waves = node.waves.as_deref().unwrap();
        assert_eq!(waves.child_batches.0.capacity(), 1);
        assert!(waves.requests.is_none());
        assert_eq!(in_flight(&node), 2);
        assert_eq!(waves.wave_parent, Some(parent));
    }

    /// A middle node that issues a request holds both halves: its wave in
    /// flight in the one, the request's log entry in the other.
    #[test]
    fn an_issuing_middle_node_holds_both_halves() {
        let mut node = node_under_test(false);
        let parent = node.tree_parent().unwrap();
        let mut round = 0;
        let (epoch, batch) = enqueue_then_timeout(&mut node, &mut round).expect("a wave opens");
        assert_eq!(in_flight(&node), 1);
        let requests = node.requests().expect("the request is logged");
        assert_eq!(requests.own_log.len(), 1);
        assert!(requests.own_batch.has_no_ops(), "the wave carries it");

        // Served, the request leaves the log as a routed PUT: the node keeps
        // a half only for an element it happens to store itself.
        let runs = AnchorState::new().assign_wave(&batch, Mode::Queue);
        let serve = SkueueMsg::Serve { epoch, runs };
        visit_with(&mut node, round + WAVE_CADENCE, vec![(parent, serve)]);
        assert_eq!(node.open_requests(), 0);
        let mut completed = Vec::new();
        node.drain_completed_into(&mut completed);
        assert_eq!(node.waves.is_some(), node.stored_elements() > 0);
        assert_eq!(in_flight(&node), 0);
    }

    /// The request half goes once it is idle while the wave half still has
    /// a wave in flight — at the end of a visit, or when the host collects
    /// the last completion record — and the wave half goes once its waves
    /// are served.
    #[test]
    fn each_half_is_released_by_itself_once_idle() {
        let mut node = node_under_test(false);
        let (me, parent, child) = (
            node.view.me().node,
            node.tree_parent().unwrap(),
            NodeId(1000),
        );
        let aggregate = SkueueMsg::Aggregate {
            child,
            epoch: 1,
            batch: child_batch(0x0302_0100),
        };
        let (sent, _) = visit_with(&mut node, WAVE_CADENCE, vec![(child, aggregate)]);
        let (epoch, batch) = sent.expect("the sub-batch opened a wave");
        assert!(node.requests().is_none());

        // An element is stored here: the request half holds it and its
        // enqueue's completion record.
        let (position, mut ctx) = (3, Context::new(me, 10));
        let key = node.cfg.hasher().position_key(position);
        let progress = RouteProgress::new(key, node.cfg.bit_budget);
        let entry = StoredEntry {
            position,
            key,
            ticket: 0,
            element: Element::new(RequestId::new(ProcessId(7), 0), 42),
        };
        let meta = PutMeta {
            issued_round: 0,
            order: 1,
            wave: 1,
            needs_ack: false,
            issuer: me,
        };
        node.apply_dht(DhtOp::Put { entry, meta }, &progress, &mut ctx);
        // A GET takes the element; the record is still uncollected at the
        // end of the visit.
        let get = DhtOp::Get {
            position,
            max_ticket: u64::MAX,
            request: RequestId::new(ProcessId(8), 0),
            requester: NodeId(1001),
        };
        node.apply_dht(get, &progress, &mut ctx);
        node.on_timeout(&mut ctx);
        assert!(node.requests().is_some_and(|r| r.store.is_vacant()));
        // Collected, the record takes the request half with it; the wave in
        // flight keeps the wave half.
        let mut completed = Vec::new();
        node.drain_completed_into(&mut completed);
        assert_eq!(completed.len(), 1);
        assert!(node.requests().is_none());
        assert_eq!(in_flight(&node), 1);

        // An element stored again, then the wave served: the wave half's
        // own state is idle, and it stays only to carry the request half.
        let entry = StoredEntry {
            position,
            key,
            ticket: 0,
            element: Element::new(RequestId::new(ProcessId(7), 1), 43),
        };
        let mut ctx = Context::new(me, 11);
        node.apply_dht(DhtOp::Put { entry, meta }, &progress, &mut ctx);
        node.on_timeout(&mut ctx);
        let runs = AnchorState::new().assign_wave(&batch, Mode::Queue);
        let serve = SkueueMsg::Serve { epoch, runs };
        let (_, served) = visit_with(&mut node, 12, vec![(parent, serve)]);
        assert_eq!(served.len(), 1);
        node.drain_completed_into(&mut completed);
        let waves = node
            .waves
            .as_deref()
            .expect("it carries the stored element");
        assert!(waves.slots.is_empty() && waves.memo.records.is_empty());
        assert_eq!(node.stored_elements(), 1);
    }

    /// The sub-batches an absorbed leaver hands over queue behind what the
    /// absorber already holds, and its waves drain them in first-contact
    /// order, one per child per wave: a child met before the hand-over
    /// goes first, each child's sub-batches in epoch order.
    #[test]
    fn absorbed_sub_batches_drain_in_first_contact_order() {
        let mut node = node_under_test(false);
        let parent = node.tree_parent().unwrap();
        let (early, late) = (NodeId(1001), NodeId(1000));
        let (early_1, early_2, late_1) = (
            child_batch(0x0001_0000),
            child_batch(0x0203_0001),
            child_batch(0x0302_0102),
        );
        let vid = VirtualId::left(ProcessId(9));
        let leaver = node_of(vid);
        let info = NeighborInfo::new(leaver, vid, node.view.me().label);
        let payload = AbsorbPayload {
            pred: info,
            succ: info,
            entries: Vec::new(),
            pending: Vec::new(),
            child_batches: vec![(late, 1, late_1.clone()), (early, 2, early_2.clone())],
            joiners: Vec::new(),
            anchor: None,
        };
        let arrivals = vec![
            (
                early,
                SkueueMsg::Aggregate {
                    child: early,
                    epoch: 1,
                    batch: early_1.clone(),
                },
            ),
            (leaver, SkueueMsg::AbsorbData(Box::new(payload))),
        ];
        let (sent, _) = visit_with(&mut node, WAVE_CADENCE, arrivals);
        let (epoch, combined) = sent.expect("the queued sub-batches open a wave");
        let mut expected = early_1.clone();
        expected.combine(&late_1);
        assert_eq!(combined, expected);
        let runs = AnchorState::new().assign_wave(&combined, Mode::Queue);
        let serve = SkueueMsg::Serve { epoch, runs };
        let (sent, served) = visit_with(&mut node, 2 * WAVE_CADENCE, vec![(parent, serve)]);
        let order: Vec<_> = served.iter().map(|&(to, epoch, _)| (to, epoch)).collect();
        assert_eq!(order, [(early, 1), (late, 1)]);
        let (epoch, combined) = sent.expect("the second wave carries the rest");
        assert_eq!(combined, early_2);
        let runs = AnchorState::new().assign_wave(&combined, Mode::Queue);
        let serve = SkueueMsg::Serve { epoch, runs };
        let (_, served) = visit_with(&mut node, 3 * WAVE_CADENCE, vec![(parent, serve)]);
        let order: Vec<_> = served.iter().map(|&(to, epoch, _)| (to, epoch)).collect();
        assert_eq!(order, [(early, 2)]);
        assert!(node.waves.is_none());
    }

    /// An absorber keeps the part of a leaver's store it owns once the
    /// leaver is spliced out, and routes on what a joiner spliced in between
    /// owns: each element as a `Move`, which stores without completing
    /// anything, and each parked GET as itself.
    #[test]
    fn an_absorber_hands_on_what_a_spliced_joiner_owns() {
        for spliced in [false, true] {
            let mut node = node_under_test(false);
            let me = node.view.me();
            // Joiner, leaver and the leaver's successor, clockwise from us a
            // sixteenth of the ring apart.
            let at = |sixteenths: u64, vid: VirtualId| {
                let label = Label(me.label.raw().wrapping_add(sixteenths << 60));
                NeighborInfo::new(node_of(vid), vid, label)
            };
            let joiner = at(1, VirtualId::left(ProcessId(9)));
            let leaver = at(2, VirtualId::left(ProcessId(10)));
            let beyond = at(4, VirtualId::left(ProcessId(11)));
            let hasher = node.cfg.hasher();
            let mut in_leavers_range = (0u64..).filter(|&p| {
                hasher
                    .position_key(p)
                    .in_interval(leaver.label, beyond.label)
            });
            let (stored, parked) = (in_leavers_range.next(), in_leavers_range.next());
            let (stored, parked) = (stored.unwrap(), parked.unwrap());
            let entry = StoredEntry {
                position: stored,
                key: hasher.position_key(stored),
                ticket: 0,
                element: Element::new(RequestId::new(ProcessId(7), 0), 42),
            };
            let get = PendingGet {
                request: RequestId::new(ProcessId(8), 0),
                requester: NodeId(1001),
                max_ticket: u64::MAX,
            };
            let mut ctx = Context::new(me.node, 10);
            let pred = if spliced {
                node.on_message(
                    joiner.node,
                    SkueueMsg::SetSucc { new_succ: joiner },
                    &mut ctx,
                );
                joiner
            } else {
                node.on_message(
                    leaver.node,
                    SkueueMsg::SetSucc { new_succ: leaver },
                    &mut ctx,
                );
                me
            };
            let payload = AbsorbPayload {
                pred,
                succ: beyond,
                entries: vec![entry.clone()],
                pending: vec![(parked, get)],
                child_batches: Vec::new(),
                joiners: Vec::new(),
                anchor: None,
            };
            node.on_message(
                leaver.node,
                SkueueMsg::AbsorbData(Box::new(payload)),
                &mut ctx,
            );
            node.on_timeout(&mut ctx);
            let routed: Vec<_> = ctx
                .into_outbox()
                .into_iter()
                .filter_map(|(to, msg)| match msg {
                    SkueueMsg::DhtBatch { ops } => Some((to, ops)),
                    _ => None,
                })
                .collect();
            if !spliced {
                // The leaver's range is ours now: we keep its element.
                assert!(routed.is_empty());
                assert_eq!(node.stored_elements(), 1);
                continue;
            }
            assert_eq!(node.stored_elements(), 0);
            let [(to, ops)] = &routed[..] else {
                panic!("one batch towards the joiner, not {routed:?}")
            };
            assert_eq!(*to, joiner.node);
            assert_eq!(*ops[0].op, DhtOp::Move { entry });
            assert!(matches!(*ops[1].op, DhtOp::Get { position, request, .. }
                if position == parked && request == get.request));
            // Where a moved element lands it is stored, and nothing completes.
            let mut owner = node_under_test(true);
            let mut ctx = Context::new(owner.view.me().node, 11);
            let moved = ops[0].clone();
            owner.apply_dht(*moved.op, &moved.progress, &mut ctx);
            assert_eq!(owner.stored_elements(), 1);
            assert!(!owner.has_completed());
        }
    }

    /// Churn a middle node forwards while its tree parent, its left sibling,
    /// is out of the tree reaches the anchor, but the phase it starts flags
    /// a tree that does not reach the node's subtree.  The node keeps the
    /// count: it reports it again once the sibling is back, or hands it to
    /// its absorber when it leaves first.
    #[test]
    fn churn_forwarded_below_an_absent_parent_is_reported_again() {
        for rejoins in [true, false] {
            let mut node = node_under_test(false);
            let (me, left, child) = (
                node.view.me().node,
                node.tree_parent().unwrap(),
                NodeId(1000),
            );
            let absent = SkueueMsg::SiblingStatus {
                kind: VKind::Left,
                active: false,
            };
            let mut ctx = Context::new(me, WAVE_CADENCE);
            node.on_message(left, absent, &mut ctx);
            let mut batch = child_batch(0x0302_0100);
            batch.leaves = 1;
            let aggregate = SkueueMsg::Aggregate {
                child,
                epoch: 1,
                batch,
            };
            node.on_message(child, aggregate, &mut ctx);
            node.on_timeout(&mut ctx);
            let sent = ctx
                .into_outbox()
                .into_iter()
                .find_map(|(_, msg)| match msg {
                    SkueueMsg::Aggregate { epoch, batch, .. } => Some((epoch, batch)),
                    _ => None,
                });
            let (epoch, batch) = sent.expect("the sub-batch opened a wave");
            assert_eq!(batch.leaves, 1, "the count goes up the tree as before");
            let runs = AnchorState::new().assign_wave(&batch, Mode::Queue);
            let mut ctx = Context::new(me, 2 * WAVE_CADENCE);
            node.on_message(left, SkueueMsg::Serve { epoch, runs }, &mut ctx);
            node.on_timeout(&mut ctx);
            ctx.into_outbox();

            let mut ctx = Context::new(me, 3 * WAVE_CADENCE);
            if rejoins {
                let back = SkueueMsg::SiblingStatus {
                    kind: VKind::Left,
                    active: true,
                };
                node.on_message(left, back, &mut ctx);
                node.on_timeout(&mut ctx);
                let again = ctx
                    .into_outbox()
                    .into_iter()
                    .find_map(|(to, msg)| match msg {
                        SkueueMsg::Aggregate { batch, .. } if to == left => Some(batch.leaves),
                        _ => None,
                    });
                assert_eq!(again, Some(1), "the next wave reports the count again");
                continue;
            }
            // The absorber asks for the node's state: the count goes with it.
            let absorber = node.view.pred().node;
            node.on_message(absorber, SkueueMsg::AbsorbRequest, &mut ctx);
            let sent = ctx.into_outbox();
            assert!(sent
                .iter()
                .any(|(to, msg)| *to == absorber && matches!(msg, SkueueMsg::AbsorbData(_))));
            let handed = sent.into_iter().find_map(|(to, msg)| match msg {
                SkueueMsg::ChurnHandover { count } if to == absorber => Some(count),
                _ => None,
            });
            assert_eq!(handed, Some(1));
            // Which the absorber reports in its next wave.
            let mut anchor = node_under_test(true);
            let mut ctx = Context::new(anchor.view.me().node, 3 * WAVE_CADENCE);
            let handover = SkueueMsg::ChurnHandover { count: 1 };
            anchor.on_message(me, handover, &mut ctx);
            assert_eq!(anchor.membership.as_deref().unwrap().unreported(), (0, 1));
        }
    }

    /// Reference for the flat [`WaveMemo`]: the bookkeeping it replaced, one
    /// list of whole sub-batches per in-flight wave, resolved with
    /// [`crate::interval::decompose`].
    struct PerSlotLists {
        children: LaneOrder,
        child_batches: ChildBatches,
        own: Batch,
        slots: VecDeque<(u64, Vec<BatchSource>)>,
        stash: Vec<(u64, Vec<RunAssignment>)>,
        served: Vec<Serve>,
    }

    impl PerSlotLists {
        /// Queues a child's sub-batch for the next wave.
        fn queue(&mut self, child: NodeId, epoch: u64, batch: Batch) {
            self.children.note(LaneKind::Child, child);
            self.child_batches.push(child, epoch, batch);
        }

        /// Opens a wave under `epoch` and returns its combined batch; a
        /// `drain` wave leaves the own operations for a later one.
        fn open(&mut self, epoch: u64, drain: bool) -> Batch {
            let own = if drain {
                Batch::empty()
            } else {
                std::mem::take(&mut self.own)
            };
            let mut sources = vec![BatchSource::Own(own)];
            let children = self.children.of(LaneKind::Child);
            self.child_batches
                .pop_oldest(children, |rank, epoch, batch| {
                    sources.push(BatchSource::Child(children[rank], epoch, batch))
                });
            let mut combined = Batch::empty();
            for source in &sources {
                combined.combine(source.batch());
            }
            self.slots.push_back((epoch, sources));
            combined
        }

        /// A `Serve` for `epoch` arrives: resolved once every older wave is.
        fn serve(&mut self, epoch: u64, runs: Vec<RunAssignment>) {
            self.stash.push((epoch, runs));
            while let Some(at) = self
                .slots
                .front()
                .and_then(|(front, _)| self.stash.iter().position(|(e, _)| e == front))
            {
                let (_, runs) = self.stash.swap_remove(at);
                let (_, sources) = self.slots.pop_front().expect("front checked");
                let batches: Vec<&Batch> = sources.iter().map(|s| s.batch()).collect();
                for (source, share) in sources.iter().zip(decompose(&runs, &batches)) {
                    if let BatchSource::Child(child, epoch, _) = source {
                        self.served.push((*child, *epoch, share));
                    }
                }
            }
        }
    }

    /// Waves the node has opened: as a tree node, its epoch; as the anchor
    /// serving itself, its anchor's.
    fn waves_opened(node: &SkueueNode<u64>) -> u64 {
        node.next_epoch + node.anchor_state().map_or(0, |a| a.epoch)
    }

    /// A node of a four-process queue: the shard's anchor, or a middle node
    /// (whose parent is its left sibling).
    fn node_under_test(anchor: bool) -> SkueueNode<u64> {
        node_of_kind(anchor, VKind::Middle)
    }

    /// The shard's anchor of a four-process queue, or the node of `kind` of
    /// its process 0 (whose parent is its sibling of the kind to its left).
    fn node_of_kind(anchor: bool, kind: VKind) -> SkueueNode<u64> {
        let pids: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let topology = Topology::build(&pids, LabelHasher::default()).expect("distinct pids");
        let vid = if anchor {
            topology.anchor()
        } else {
            VirtualId::new(ProcessId(0), kind)
        };
        let cfg = ProtocolConfig {
            bit_budget: recommended_bit_budget(pids.len()),
            ..ProtocolConfig::queue()
        };
        let view = topology.local_view(vid, &node_of).expect("own vid");
        let node = SkueueNode::new(Arc::new(cfg), 0, view, anchor);
        assert_eq!(node.tree_parent().is_none(), anchor);
        node
    }

    /// Sub-batch of one to three runs of one to four operations each.
    fn child_batch(bits: u64) -> Batch {
        let runs = (0..1 + bits % 3).map(|i| 1 + (bits >> (8 * (i + 1))) % 4);
        Batch::from_parts(FirstRun::Enqueues, runs.collect(), 0, 0)
    }

    /// One own enqueue, then the `TIMEOUT` of a wave cadence later; the
    /// combined batch if that `TIMEOUT` opened a wave.
    fn enqueue_then_timeout(node: &mut SkueueNode<u64>, round: &mut u64) -> Option<(u64, Batch)> {
        let id = RequestId::new(node.process(), *round);
        let mut ctx = Context::new(node.view.me().node, *round);
        node.generate_op(id, BatchOp::Enqueue, *round, &mut ctx);
        *round += WAVE_CADENCE;
        let mut ctx = Context::new(node.view.me().node, *round);
        node.on_timeout(&mut ctx);
        ctx.into_outbox()
            .into_iter()
            .find_map(|(_, msg)| match msg {
                SkueueMsg::Aggregate { epoch, batch, .. } => Some((epoch, batch)),
                _ => None,
            })
    }

    /// A queue node keeps at most [`PIPELINE_DEPTH`] unserved waves, however
    /// long the anchor takes — bounded per-node wave state.
    #[test]
    fn the_wave_ring_holds_at_most_pipeline_depth_unserved_waves() {
        let mut node = node_under_test(false);
        let parent = node.tree_parent().expect("a middle node has a parent");
        let mut assigner = AnchorState::new();
        let mut unserved = VecDeque::new();
        let mut round = 0;
        for _ in 0..PIPELINE_DEPTH {
            let (epoch, batch) =
                enqueue_then_timeout(&mut node, &mut round).expect("a free slot opens a wave");
            unserved.push_back((epoch, assigner.assign_wave(&batch, Mode::Queue)));
        }
        assert_eq!(in_flight(&node), PIPELINE_DEPTH);
        // Ring full: a TIMEOUT opens nothing, own operations keep batching.
        for held in 1..=3 {
            assert_eq!(enqueue_then_timeout(&mut node, &mut round), None);
            assert_eq!(in_flight(&node), PIPELINE_DEPTH);
            let requests = node.requests().expect("requests held back");
            assert_eq!(requests.own_batch.total_ops(), held);
        }
        // The oldest Serve frees one slot, and the next TIMEOUT fills it with
        // one wave carrying what was held back.
        let (epoch, runs) = unserved.pop_front().expect("32 waves are owed a serve");
        let mut ctx = Context::new(node.view.me().node, round);
        node.on_message(parent, SkueueMsg::Serve { epoch, runs }, &mut ctx);
        assert_eq!(in_flight(&node), PIPELINE_DEPTH - 1);
        let (_, batch) =
            enqueue_then_timeout(&mut node, &mut round).expect("the freed slot opens a wave");
        assert_eq!(batch.total_ops(), 4);
        assert_eq!(in_flight(&node), PIPELINE_DEPTH);
        assert_eq!(enqueue_then_timeout(&mut node, &mut round), None);
        assert_eq!(in_flight(&node), PIPELINE_DEPTH);
    }

    /// Three waves in flight, their serves delivered 3, 1, 2: the node
    /// parks the third, resolves the first, and the second then releases
    /// the third — the waves resolve 1, 2, 3, though no slot stores its
    /// epoch.
    #[test]
    fn serves_delivered_out_of_order_resolve_waves_in_epoch_order() {
        let mut node = node_under_test(false);
        let (me, parent, child) = (
            node.view.me().node,
            node.tree_parent().unwrap(),
            NodeId(1000),
        );
        // Wave `k` carries the child's sub-batch of its epoch `10 + k`.
        let mut assigner = AnchorState::new();
        let mut owed = Vec::new();
        for k in 1..=3 {
            let mut ctx = Context::new(me, k * WAVE_CADENCE);
            let (epoch, batch) = (10 + k, child_batch(k << 8));
            node.on_message(
                child,
                SkueueMsg::Aggregate {
                    child,
                    epoch,
                    batch,
                },
                &mut ctx,
            );
            node.on_timeout(&mut ctx);
            let sent = ctx
                .into_outbox()
                .into_iter()
                .find_map(|(_, msg)| match msg {
                    SkueueMsg::Aggregate { epoch, batch, .. } => Some((epoch, batch)),
                    _ => None,
                });
            let (epoch, batch) = sent.expect("each sub-batch opens a wave");
            assert_eq!(epoch, k);
            owed.push((epoch, assigner.assign_wave(&batch, Mode::Queue)));
        }
        assert_eq!(in_flight(&node), 3);
        let mut serve = |wave: usize| {
            let (epoch, runs) = owed[wave - 1].clone();
            let mut ctx = Context::new(me, 10 * WAVE_CADENCE);
            node.on_message(parent, SkueueMsg::Serve { epoch, runs }, &mut ctx);
            let served: Vec<_> = ctx
                .into_outbox()
                .into_iter()
                .map(|(to, msg)| match msg {
                    SkueueMsg::Serve { epoch, runs } if to == child => (epoch, runs),
                    other => panic!("only the child is served, not {other:?}"),
                })
                .collect();
            (served, in_flight(&node))
        };
        let (served, left) = serve(3);
        assert!(served.is_empty(), "the third wave waits for the first two");
        assert_eq!(left, 3);
        let (served, left) = serve(1);
        assert_eq!(served, [(11, owed[0].1.clone())]);
        assert_eq!(left, 2);
        let (served, left) = serve(2);
        assert_eq!(served, [(12, owed[1].1.clone()), (13, owed[2].1.clone())]);
        assert_eq!(left, 0);
        assert!(node.waves.as_deref().unwrap().serve_stash.is_empty());
    }

    proptest! {
        /// Whatever the interleaving of own requests, child sub-batches (in
        /// epoch order, or held back and handed over late by an absorbed
        /// leaver; of one to three runs, or of none), wave openings (own
        /// operations included, or a suspended node's drain waves without
        /// them) and serves (in and out of epoch order), the flat memo sends
        /// the children exactly the `(child, epoch, runs)` sequence the
        /// per-wave source lists did — as a tree node and as the anchor
        /// serving itself.
        #[test]
        fn prop_wave_memo_serves_like_per_slot_lists(
            steps in proptest::collection::vec((0u32..13, any::<u64>(), any::<u64>()), 1..160),
            anchor in any::<bool>(),
        ) {
            let mut node = node_under_test(anchor);
            let me = node.view.me().node;
            let parent = node.tree_parent();
            let mut model = PerSlotLists {
                children: LaneOrder::default(),
                child_batches: ChildBatches::default(),
                own: Batch::empty(),
                slots: VecDeque::new(),
                stash: Vec::new(),
                served: Vec::new(),
            };
            // Stands in for the shard's anchor when the node is not it, and
            // mirrors the node's own anchor state when it is.
            let mut assigner = AnchorState::new();
            let mut served: Vec<Serve> = Vec::new();
            let mut unserved: Vec<(u64, Vec<RunAssignment>)> = Vec::new();
            let mut child_epochs = [0u64; 3];
            let mut held: Vec<(NodeId, u64, Batch)> = Vec::new();
            let mut round = 0u64;
            let mut seq = 0u64;
            // Trailing steps deliver every serve still owed, youngest first.
            let drain = (0..64).map(|_| (9u32, u64::MAX, 0u64));
            for (kind, a, b) in steps.into_iter().chain(drain) {
                let mut ctx = Context::new(me, round);
                let opened_before = waves_opened(&node);
                let drain = node.suspended();
                match kind {
                    0 | 1 => {
                        let op = if a & 1 == 0 { BatchOp::Enqueue } else { BatchOp::Dequeue };
                        node.generate_op(RequestId::new(node.process(), seq), op, seq, &mut ctx);
                        model.own.push_op(op);
                        seq += 1;
                    }
                    2..=4 | 12 => {
                        let c = (a % 3) as usize;
                        let child = NodeId(1000 + c as u64);
                        child_epochs[c] += 1;
                        // A sub-batch without runs is what a stack node's
                        // lockstep wave or a bare join/leave count carries.
                        let batch = if kind == 12 { Batch::empty() } else { child_batch(b) };
                        let epoch = child_epochs[c];
                        if kind == 4 {
                            // In flight through a leaver; arrives with its
                            // hand-over, possibly after younger sub-batches.
                            held.push((child, epoch, batch));
                        } else {
                            model.queue(child, epoch, batch.clone());
                            node.on_message(child, SkueueMsg::Aggregate { child, epoch, batch }, &mut ctx);
                        }
                    }
                    5 => {
                        let vid = VirtualId::left(ProcessId(9));
                        let leaver = node_of(vid);
                        let info = NeighborInfo::new(leaver, vid, node.view.me().label);
                        for (child, epoch, batch) in &held {
                            model.queue(*child, *epoch, batch.clone());
                        }
                        let payload = AbsorbPayload {
                            pred: info,
                            succ: info,
                            entries: Vec::new(),
                            pending: Vec::new(),
                            child_batches: std::mem::take(&mut held),
                            joiners: Vec::new(),
                            anchor: None,
                        };
                        node.on_message(leaver, SkueueMsg::AbsorbData(Box::new(payload)), &mut ctx);
                    }
                    6..=8 => {
                        round += WAVE_CADENCE;
                        ctx = Context::new(me, round);
                        node.on_timeout(&mut ctx);
                    }
                    // An update phase begins or ends: while suspended, the
                    // node opens drain waves only.
                    11 => {
                        if let Lifecycle::Member { resumed, .. } = &mut node.lifecycle {
                            *resumed = !*resumed;
                        }
                    }
                    _ => {
                        if !unserved.is_empty() {
                            let (epoch, runs) = unserved.remove((a % unserved.len() as u64) as usize);
                            model.serve(epoch, runs.clone());
                            let from = parent.expect("only a tree node is owed serves");
                            node.on_message(from, SkueueMsg::Serve { epoch, runs }, &mut ctx);
                        }
                    }
                }
                let opened = waves_opened(&node) > opened_before;
                // A serve's own operations route into the DHT, staged until
                // a visit's end; this test reads only the tree's messages.
                ctx.staged().clear();
                let mut sent_up = None;
                for (to, msg) in ctx.into_outbox() {
                    match msg {
                        SkueueMsg::Serve { epoch, runs } => served.push((to, epoch, runs)),
                        SkueueMsg::Aggregate { epoch, batch, .. } => sent_up = Some((epoch, batch)),
                        _ => {}
                    }
                }
                if opened {
                    let (epoch, sent) = sent_up.unzip();
                    let epoch = epoch.unwrap_or(0);
                    let combined = model.open(epoch, drain);
                    let runs = assigner.assign_wave(&combined, Mode::Queue);
                    if anchor {
                        model.serve(epoch, runs);
                    } else {
                        prop_assert_eq!(sent, Some(combined));
                        unserved.push((epoch, runs));
                    }
                }
                // Every memorised record belongs to an in-flight wave, and
                // every memorised run length to a record.
                if let Some(waves) = node.waves.as_deref() {
                    prop_assert_eq!(
                        waves.memo.records.len(),
                        waves.slots.iter().map(|s| s.num_sources as usize).sum::<usize>()
                    );
                    prop_assert_eq!(
                        waves.memo.runs.len(),
                        waves.memo.records.iter().map(|r| r.num_runs as usize).sum::<usize>()
                    );
                }
                prop_assert_eq!(in_flight(&node), model.slots.len());
            }
            prop_assert!(unserved.is_empty() && in_flight(&node) == 0);
            prop_assert_eq!(served, model.served);
        }
    }
}
