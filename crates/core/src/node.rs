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
//!   [`SkueueNode::generate_op`] (with the stack's local combining,
//!   [`SkueueNode::reanchor_pairs`]), [`SkueueNode::queue_child_batch`],
//!   [`SkueueNode::try_send_batch`] and [`SkueueNode::open_wave`].
//! * **Stage 2** (`ASSIGN`): only at the anchor — hand out position
//!   intervals, order values and tickets from the `[first, last]` window.
//!   The anchor's branch of [`SkueueNode::open_wave`], which calls
//!   [`AnchorState::assign_wave`].
//! * **Stage 3** (`SERVE`): split the received assignments back among the
//!   remembered sub-batches and forward them to the children; resolve the
//!   node's own requests.  [`SkueueNode::handle_serve`],
//!   [`SkueueNode::apply_serve`], [`SkueueNode::serve_sources`],
//!   [`SkueueNode::resolve_own`] and [`SkueueNode::note_order_assigned`].
//! * **Stage 4**: issue `PUT`/`GET` operations into the DHT, routed over the
//!   LDB; record request completions for the history.
//!   [`SkueueNode::issue_put`], [`SkueueNode::issue_get`] (both through
//!   [`SkueueNode::issue_dht`]), [`SkueueNode::dispatch_dht`],
//!   [`SkueueNode::apply_dht`], [`SkueueNode::store_entry`],
//!   [`SkueueNode::reply_to`], [`SkueueNode::handle_dht_reply`],
//!   [`SkueueNode::stage`], [`SkueueNode::flush_dht_buffers`] and
//!   [`SkueueNode::complete`].
//!
//! What the stages keep between visits sits in three modules, each behind
//! its own calls: the first-contact order of a node's peers in
//! [`lane_order`], the combination order of its waves in flight in
//! [`wave_memo`], and the two halves of its work, its role state and its
//! one-bit states in [`work`].  Each module doc has its layout.
//!
//! # Pipelined waves
//!
//! Stage 1 is *pipelined*: instead of a single implicit in-flight wave, a
//! node keeps one ring of varint bytes (a [`WaveMemo`](wave_memo::WaveMemo))
//! that memorises how each of its per-node wave epochs in flight was
//! combined, so it can combine and forward wave `k+1` while wave `k`'s
//! assignments (and the DHT operations they trigger) are still in flight —
//! the overlapping-phases idea of Skeap/Seap applied to Skueue's
//! aggregation tree.  Epochs travel
//! in `Aggregate` and are echoed back in `Serve`, so a node pairs
//! assignments with the right wave even when serves are reordered by
//! asynchronous delivery; an `AggregateAck` credit keeps at most one
//! aggregate per child→parent channel in flight, which guarantees the
//! parent commits a child's waves to the anchor in epoch (= program) order.
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

mod lane_order;
mod wave_memo;
mod work;

use crate::anchor::{AnchorState, RunAssignment};
use crate::batch::{Batch, BatchOp};
use crate::config::{Mode, ProtocolConfig};
use crate::join_leave::{Duty, DutyKind, Leave, Lifecycle, Report, Step, UpdatePhase};
use crate::messages::{DhtOp, DhtReplyItem, PutMeta, RoutedDhtOp, SkueueMsg};
pub(crate) use lane_order::{LaneKind, LaneOrder};
use skueue_dht::{Element, GetOutcome, Payload, SatisfiedGet, StoredEntry};
use skueue_overlay::{
    aggregation_child_set, aggregation_parent, route_step, ChildSet, Label, LocalView, RouteAction,
    RouteProgress, VKind,
};
use skueue_shard::{ShardId, ShardMap};
use skueue_sim::actor::{Actor, Context};
use skueue_sim::ids::{NodeId, ProcessId, RequestId};
use skueue_trace::{TraceEvent, TraceId, TraceLevel};
use skueue_verify::{OpKind, OpRecord, OpResult, OrderKey};
use std::sync::Arc;
pub(crate) use work::Cold;
use work::{Flags, OutstandingGet, Requests, Waves};

/// Minimum number of rounds between two waves opened by the same node:
/// letting sub-batches that travel towards a shared ancestor land in the
/// same combined wave (instead of chasing each other one round apart) is
/// what re-creates the paper's aggregation along shared routes under
/// demand-driven waves.  `2` merges adjacent traffic while costing at most
/// one extra round of latency per level.
const WAVE_CADENCE: u64 = 2;

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
    /// Which siblings are integrated members, and whether the most recent
    /// `Aggregate` is unconfirmed.
    pub(crate) flags: Flags,
    /// The anchor shard this node belongs to (0 in unsharded deployments).
    /// Everything the node does — its cycle, its aggregation tree, its DHT
    /// interval, its anchor — lives inside this shard.
    pub(crate) shard: ShardId,

    // --- Stage 1 state ------------------------------------------------------
    /// The wave epoch of the most recently opened wave (0 before the first).
    pub(crate) next_epoch: u64,
    /// Round in which this node last opened a wave (wave-merging cadence).
    pub(crate) last_wave_round: u64,

    /// The first-contact order of the peers this node routes to, replies
    /// to and combines sub-batches from.  Inline, not in [`Waves`]: it is
    /// the send and combination order for the node's whole life.
    pub(crate) lanes: LaneOrder,

    /// Waves in flight and queued sub-batches, and behind a second pointer
    /// unresolved requests, GETs in flight and stored elements; `None`
    /// while the node has none of them.
    pub(crate) waves: Option<Box<Waves<T>>>,

    /// The anchor state, membership bookkeeping, stack combining and a
    /// draining node's absorber; `None` on a queue node in a stable
    /// neighbourhood.
    pub(crate) cold: Option<Box<Cold<T>>>,

    /// Highest update phase this node has participated in — the phase
    /// numbers a node enters must be monotone (checked by a `debug_assert`
    /// in `enter_update_phase`, which debug runs of the scenario search in
    /// `skueue-model` exercise on every line; nothing else reads it).
    #[cfg(debug_assertions)]
    pub(crate) last_update_phase: u64,
}

impl<T: Payload> SkueueNode<T> {
    /// Creates a node with the given configuration and initial neighbourhood
    /// view. `shard` is the anchor shard the node's process belongs to;
    /// `is_anchor` must be true exactly for the leftmost node of the shard's
    /// initial topology.
    pub fn new(cfg: Arc<ProtocolConfig>, shard: ShardId, view: LocalView, is_anchor: bool) -> Self {
        let mut node = SkueueNode {
            cfg,
            view,
            lifecycle: Lifecycle::Member {
                leave: Leave::Stays,
                resumed: true,
            },
            flags: Flags::MEMBER,
            shard,
            next_epoch: 0,
            last_wave_round: 0,
            lanes: LaneOrder::default(),
            waves: None,
            cold: None,
            #[cfg(debug_assertions)]
            last_update_phase: 0,
        };
        if is_anchor {
            node.adopt_anchor(AnchorState::default());
        }
        node
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
        node.flags = Flags::JOINING;
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
        ShardMap::new(self.cfg.shards as u32, self.cfg.hash_seed)
    }

    /// The ongoing update phase at this node, if any.
    pub(crate) fn update(&self) -> Option<&UpdatePhase> {
        self.membership()?.update.as_ref()
    }

    /// Mutable form of [`Self::update`].
    pub(crate) fn update_mut(&mut self) -> Option<&mut UpdatePhase> {
        Cold::membership(&mut self.cold)?.update.as_mut()
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
        self.anchor_state().is_some()
    }

    /// The anchor shard this node belongs to (0 when unsharded).
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Finishes a request: reports its history record to the host and,
    /// when tracing, its `Completed` instant.  Every completion site calls
    /// this — the applied PUT, the GET's reply, the ⊥ dequeue and the
    /// stack's locally combined pairs — so a node keeps no record once its
    /// request is done.  Takes the node's two fields it reads rather than
    /// the node, so a caller keeps its borrows of the others.
    fn complete(
        cfg: &ProtocolConfig,
        shard: ShardId,
        record: OpRecord<T>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        if !cfg.trace_level.is_off() {
            let (op, round) = (Self::tid(record.id), record.completed_round);
            ctx.trace(shard, TraceEvent::Completed { op, round });
        }
        ctx.report(record);
    }

    /// Records the event `event` makes of the visit's round, when tracing
    /// is on (the event is built only then).
    #[inline]
    pub(crate) fn trace(
        &self,
        ctx: &mut Context<SkueueMsg<T>>,
        event: impl FnOnce(u64) -> TraceEvent,
    ) {
        if !self.cfg.trace_level.is_off() {
            let round = ctx.round();
            ctx.trace(self.shard, event(round));
        }
    }

    /// The trace identity of a request: origin process and per-origin seq.
    #[inline]
    fn tid(id: RequestId) -> TraceId {
        TraceId::new(id.origin.0, id.seq)
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
        let (op, insert) = (Self::tid(id), kind == BatchOp::Enqueue);
        self.trace(ctx, |round| TraceEvent::Issued { op, insert, round });
        let round = ctx.round();
        let requests = Requests::of(&mut self.waves, &self.cfg);
        if self.cfg.is_stack() {
            let combining = Cold::of(&mut self.cold).combining_mut();
            match kind {
                BatchOp::Enqueue => combining.note_push(id),
                BatchOp::Dequeue => {
                    // A pop matched with an unsent push completes both
                    // requests immediately (Section VI).
                    if let Some(records) = combining.match_pop(requests, id, round) {
                        ctx.observe(series::LOCALLY_COMBINED, 2);
                        self.reanchor_pairs(records, ctx);
                        Waves::release_idle(&mut self.waves);
                        return;
                    }
                    // No unsent push available: the pop becomes part of the
                    // residual batch like any other operation.
                }
            }
        }
        requests.log(id.seq, kind, value, round);
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
    fn reanchor_pairs(&mut self, records: Vec<OpRecord<T>>, ctx: &mut Context<SkueueMsg<T>>) {
        debug_assert!(
            records.windows(2).all(|w| w[0].id.seq < w[1].id.seq),
            "combined records must arrive in issue order"
        );
        let combining =
            Cold::combining(&mut self.cold).expect("only a combining node re-anchors pairs");
        let requests = Requests::of(&mut self.waves, &self.cfg);
        if let Some(seq) = requests.last_logged_seq() {
            combining.anchor_at(seq, records);
        } else {
            let origin = self.view.me().vid.process;
            for record in combining.rekey(records, origin) {
                Self::complete(&self.cfg, self.shard, record, ctx);
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
        !self.view.is_anchor() && !self.flags.sibling_integrated(parent)
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
                self.flags.sibling_integrated(VKind::Middle)
            } else if n == right && n != succ.node {
                self.flags.sibling_integrated(VKind::Right)
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
        if self.flags.aggregate_unacked() {
            return false;
        }
        match (self.waves_in_flight() as usize, parent) {
            (0, _) => true,
            (_, None) => false,
            (in_flight, Some(_)) => {
                in_flight < self.cfg.effective_pipeline_depth()
                    && self.waves.as_deref().and_then(Waves::wave_parent) == parent
            }
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
        self.requests().is_some_and(Requests::has_unsent_ops)
            || self.has_child_batches()
            || self
                .membership()
                .is_some_and(|m| m.duties.iter().any(Duty::is_unreported))
    }

    /// Opens a wave if this node has one to open.  A suspended node (update
    /// phase) opens *drain* waves only: sub-batches queued from children
    /// (sent before their senders saw the update flag) are still combined —
    /// *without* committing this node's own operations — and forwarded, so
    /// every in-flight wave keeps moving toward the anchor.  Without them, a
    /// leaver whose younger wave is parked below a suspended ancestor could
    /// never drain its waves, and the update phase (which waits for the
    /// leaver's `AbsorbData`) would deadlock.
    ///
    /// A stack node runs the *strict* wave lockstep of Section VI instead
    /// of demand-driven waves: every node contributes a (possibly empty)
    /// sub-batch to every wave, and a parent combines only when all
    /// children contributed.  Composed with the per-node stage-4 barrier
    /// this yields a global barrier — the anchor cannot assign any wave
    /// `k+1` operation before *every* wave-`k` DHT operation completed —
    /// which is exactly what the stack's ticket matching needs: without it,
    /// a later pop generation's `GET` can steal the element an earlier
    /// generation's still-outstanding `GET` is entitled to on a reused
    /// position.
    fn try_send_batch(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        if !self.is_integrated() {
            return;
        }
        let drain = self.suspended();
        let ready = if drain {
            self.has_child_batches()
        } else if self.cfg.is_stack() {
            // Global lockstep: wait for a (possibly empty) sub-batch from
            // every current child before combining.
            self.tree_children().iter().all(|c| self.has_batch_from(c))
        } else {
            // Wave-merging cadence: opening at most one wave every other
            // round lets sub-batches travelling towards the same ancestor
            // land in one combined wave instead of chasing each other one
            // round apart (demand-driven waves otherwise never merge).
            self.has_wave_work()
                && (self.next_epoch == 0 || ctx.round() >= self.last_wave_round + WAVE_CADENCE)
        };
        // The stack's stage-4 barrier, drain waves included: a node (in
        // particular the anchor) must not commit further waves while its
        // own DHT operations are unresolved, or a later pop generation
        // could be assigned against elements an outstanding GET is
        // entitled to.
        if !ready || (self.cfg.is_stack() && self.requests().is_some_and(Requests::dht_in_flight)) {
            return;
        }
        let parent = if self.is_anchor_node() {
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
        self.open_wave(parent, drain, ctx);
    }

    /// Combines the current sources into one wave and commits it: as the
    /// anchor by assigning and serving immediately (Stage 2+3), otherwise by
    /// counting a wave in flight and forwarding the combined batch up the
    /// tree.  `drain` waves (update phase) exclude the node's own working
    /// batch and join/leave counters.
    fn open_wave(&mut self, parent: Option<NodeId>, drain: bool, ctx: &mut Context<SkueueMsg<T>>) {
        let detached = parent.is_some() && self.parent_is_absent_sibling();
        let mut own = Self::fresh_batch(&self.cfg);
        if !drain {
            if let Some(combining) = Cold::combining(&mut self.cold) {
                combining.commit();
            }
            let (tracing, origin, shard) =
                (!self.cfg.trace_level.is_off(), self.process(), self.shard);
            // A node without a request half has no operation to commit.
            if let Some(requests) = self.requests_mut() {
                let joining = requests.commit(&mut own);
                if tracing {
                    let round = ctx.round();
                    for seq in joining {
                        let op = Self::tid(RequestId::new(origin, seq));
                        ctx.trace(shard, TraceEvent::WaveJoin { op, round });
                    }
                }
            }
        }

        // Combine own batch + queued children sub-batches in a fixed order.
        let children = self.lanes.of(LaneKind::Child);
        let mut combined = Waves::of(&mut self.waves).combine(own, &children);

        // Join/leave duties this node is itself responsible for.
        if let Some(m) = Cold::membership(&mut self.cold).filter(|_| !drain) {
            m.report(&mut combined);
        }
        let churn = combined.joins + combined.leaves;
        if churn > 0 && detached {
            let count = Duty::new(DutyKind::Count(churn), Step::Answered, Report::Unflagged);
            self.membership_mut().duties.push(count);
        }

        ctx.observe(series::BATCH_SIZES, combined.size() as u64);

        self.last_wave_round = ctx.round();
        match parent {
            None => {
                // Stage 2 happens right here: the anchor serves itself.
                // Churn carried by waves assigned during an update phase is
                // accumulated (not dropped); it triggers the *next* phase.
                let may_enter_update = !drain && self.update().is_none();
                let anchor = Cold::anchor(&mut self.cold).expect("anchor path");
                let assignments = anchor.assign_wave(&combined, self.cfg.mode);
                let enter_update = if may_enter_update {
                    anchor.take_update_decision()
                } else {
                    None
                };
                // One instant per (shard, wave): the boundary between the
                // aggregation and assignment stages for every op of this
                // wave (all runs of one wave share the epoch).
                if let Some(wave) = assignments.first().map(|run| run.wave) {
                    self.trace(ctx, |round| TraceEvent::WaveAssigned { wave, round });
                }
                self.serve_sources(assignments, ctx);
                if let Some(phase) = enter_update {
                    self.enter_update_phase(phase, None, ctx);
                }
            }
            Some(parent) => {
                self.next_epoch += 1;
                let epoch = self.next_epoch;
                let in_flight = Waves::of(&mut self.waves).forward(parent);
                ctx.observe(series::WAVES_IN_FLIGHT, u64::from(in_flight));
                // FIFO transports cannot reorder a channel, so the credit
                // round-trip is skipped entirely.
                self.flags.set_aggregate_unacked(!self.cfg.fifo_channels);
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

    /// Splits the run assignments of the oldest memorised wave among its
    /// sources — the front of the memo — in combination order (the inlined
    /// form of [`crate::interval::decompose`]): each source takes its share
    /// of every run front-to-back, so `cursors` (one assignment per run of
    /// the combined batch) is consumed in place, and the wave's bytes are
    /// consumed with it.  Sub-assignments for children are forwarded; the
    /// node's own share is resolved locally.
    fn serve_sources(&mut self, mut cursors: Vec<RunAssignment>, ctx: &mut Context<SkueueMsg<T>>) {
        while let Some((child, num_runs, epoch)) = Waves::of(&mut self.waves).memo().pop_source() {
            debug_assert!(
                num_runs <= cursors.len(),
                "a source has no more runs than its wave's combined batch"
            );
            let Some(child) = child else {
                self.resolve_own(&mut cursors[..num_runs], ctx);
                continue;
            };
            // A child's share travels in a message and must be owned
            // (sized up front: the decoding iterator does not promise its
            // length to `collect`, which would round a one-run share up).
            let mut runs = Vec::with_capacity(num_runs);
            let lengths = Waves::of(&mut self.waves).memo().take_runs(num_runs);
            let shares = cursors[..num_runs].iter_mut().zip(lengths);
            runs.extend(shares.map(|(cursor, len)| cursor.split_front(len)));
            let child = self.lanes.of(LaneKind::Child)[child];
            ctx.send(child, SkueueMsg::Serve { epoch, runs });
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
                Waves::of(&mut self.waves).stash(epoch, runs);
            } else {
                debug_assert!(false, "Serve for unknown wave epoch {epoch}");
            }
            return;
        }
        self.apply_serve(runs, ctx);
        // Release stashed serves that have reached the front of the ring.
        while let Some(front) = self.front_epoch() {
            let Some(runs) = Waves::of(&mut self.waves).take_stashed(front) else {
                break;
            };
            self.apply_serve(runs, ctx);
        }
    }

    /// The epoch of the oldest in-flight wave, if any: the memo holds the
    /// `waves` youngest epochs up to [`Self::next_epoch`], oldest first.
    fn front_epoch(&self) -> Option<u64> {
        let in_flight = self.waves_in_flight();
        (in_flight > 0).then(|| self.next_epoch + 1 - u64::from(in_flight))
    }

    /// Resolves the oldest in-flight wave with the given assignments.
    fn apply_serve(&mut self, runs: Vec<RunAssignment>, ctx: &mut Context<SkueueMsg<T>>) {
        Waves::of(&mut self.waves).memo().serve_front();
        self.serve_sources(runs, ctx);
    }

    /// Resolves the node's own requests (Stage 3 → Stage 4 transition):
    /// takes the own sub-batch's share — one memorised run length per
    /// cursor, off the front of the memo — off the front of each run cursor
    /// and resolves it.
    fn resolve_own(&mut self, cursors: &mut [RunAssignment], ctx: &mut Context<SkueueMsg<T>>) {
        let origin = self.process();
        let mut log_cursor = 0usize;
        for cursor in cursors {
            let len = Waves::of(&mut self.waves).memo().pop();
            let run = cursor.split_front(len);
            for j in 0..run.count {
                // The resolved prefix is dropped below, so the payload is
                // moved out of the log — the generic path keeps the
                // allocation/copy profile of the old `Copy` payloads.
                let requests = Requests::of(&mut self.waves, &self.cfg);
                let (seq, issued_round, value) = requests.take_logged(log_cursor, run.kind);
                let id = RequestId::new(origin, seq);
                log_cursor += 1;
                let order_major = run.value_base + j;
                self.note_order_assigned(id.seq, order_major, ctx);
                self.trace(ctx, |round| TraceEvent::Assigned {
                    op: Self::tid(id),
                    wave: run.wave,
                    major: order_major,
                    round,
                });

                match run.kind {
                    BatchOp::Enqueue => self.issue_put(id, issued_round, value, &run, j, ctx),
                    BatchOp::Dequeue if j < run.available_positions() => {
                        self.issue_get(id, issued_round, &run, j, ctx)
                    }
                    BatchOp::Dequeue => {
                        // ⊥: completes immediately.
                        let record = OpRecord {
                            id,
                            kind: OpKind::Dequeue,
                            value: T::default(),
                            result: OpResult::Empty,
                            order: self.order_key(run.wave, order_major, id.origin),
                            issued_round,
                            completed_round: ctx.round(),
                        };
                        Self::complete(&self.cfg, self.shard, record, ctx);
                    }
                }
            }
        }
        Requests::of(&mut self.waves, &self.cfg).drop_resolved(log_cursor);
    }

    /// The witnessed order key for an anchor-assigned order value: plain
    /// `major` ordering when unsharded (bit-identical to the pre-sharding
    /// format), the `(wave, shard, major)` merge components otherwise.
    fn order_key(&self, wave: u64, major: u64, origin: ProcessId) -> OrderKey {
        if self.cfg.shards > 1 {
            OrderKey::sharded(wave, self.shard, major, origin)
        } else {
            OrderKey::anchor(major, origin)
        }
    }

    /// Updates the local order bookkeeping when one of this node's own
    /// requests receives its anchor order value, releasing any locally
    /// combined pairs anchored to it.
    fn note_order_assigned(&mut self, seq: u64, major: u64, ctx: &mut Context<SkueueMsg<T>>) {
        // A combining node's state exists from its first request on, so it
        // is present whenever one of its requests is ordered.
        let Some(combining) = Cold::combining(&mut self.cold) else {
            return;
        };
        let origin = self.view.me().vid.process;
        for record in combining.ordered(seq, major, origin) {
            Self::complete(&self.cfg, self.shard, record, ctx);
        }
    }

    // ---------------------------------------------------------------------
    // Stage 4: DHT operations (batched routing).
    // ---------------------------------------------------------------------

    /// Issues the PUT of the own enqueue `id`, the `j`-th operation of the
    /// served `run`.
    fn issue_put(
        &mut self,
        id: RequestId,
        issued_round: u64,
        value: T,
        run: &RunAssignment,
        j: u64,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        // The anchor assigns shard-local positions; the DHT stores under the
        // global position — the shard id in the high bits of the keyspace.
        let position = self.shard_map().global_position(self.shard, run.pos_lo + j);
        let key = self.cfg.hasher().position_key(position);
        let stack = self.cfg.is_stack();
        let ticket = if stack { run.ticket_base + j } else { 0 };
        let entry = StoredEntry {
            position,
            key,
            ticket,
            element: Element::new(id, value),
        };
        let meta = PutMeta {
            issued_round,
            order: run.value_base + j,
            wave: run.wave,
            needs_ack: stack,
            issuer: self.view.me().node,
        };
        self.issue_dht(id, DhtOp::Put { entry, meta }, key, ctx);
    }

    /// Issues the GET of the own dequeue `id`, the `j`-th operation of the
    /// served `run` and within its available positions, and remembers what
    /// completing it needs when the reply arrives.
    fn issue_get(
        &mut self,
        id: RequestId,
        issued_round: u64,
        run: &RunAssignment,
        j: u64,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        let position = if run.descending {
            run.pos_hi - j
        } else {
            run.pos_lo + j
        };
        let position = self.shard_map().global_position(self.shard, position);
        let key = self.cfg.hasher().position_key(position);
        let stack = self.cfg.is_stack();
        let max_ticket = if stack { run.ticket_base } else { u64::MAX };
        debug_assert_eq!(id.origin, self.process(), "a node issues its own GETs");
        let get = OutstandingGet::new(issued_round, run.value_base + j, run.wave);
        Requests::of(&mut self.waves, &self.cfg).note_outstanding_get(id.seq, get);
        let requester = self.view.me().node;
        let op = DhtOp::Get {
            position,
            max_ticket,
            request: id,
            requester,
        };
        self.issue_dht(id, op, key, ctx);
    }

    /// Routes the node's own DHT operation `op` for the request `id`
    /// towards `key`, counting it for the stack's stage-4 barrier.
    fn issue_dht(
        &mut self,
        id: RequestId,
        op: DhtOp<T>,
        key: Label,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        if self.cfg.is_stack() {
            Requests::of(&mut self.waves, &self.cfg).dht_issued();
        }
        let tid = Self::tid(id);
        self.trace(ctx, |round| TraceEvent::DhtIssued { op: tid, round });
        let progress = RouteProgress::new(key, self.cfg.bit_budget);
        self.dispatch_dht(Box::new(op), progress, ctx);
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
            let (op, hops) = (Self::tid(op.request_id()), progress.hops);
            self.trace(ctx, |round| TraceEvent::DhtApplied { op, hops, round });
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
                let record = OpRecord {
                    id: entry.element.id,
                    kind: OpKind::Enqueue,
                    value: entry.element.value.clone(),
                    result: OpResult::Enqueued,
                    order: self.order_key(meta.wave, meta.order, entry.element.id.origin),
                    issued_round: meta.issued_round,
                    completed_round: ctx.round(),
                };
                Self::complete(&self.cfg, self.shard, record, ctx);
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
                // A parked GET waits at this node until the PUT arrives.
                let outcome = self
                    .store_mut()
                    .get(position, max_ticket, request, requester);
                if let GetOutcome::Found(entry) = outcome {
                    let reply = DhtReplyItem { request, entry };
                    Self::stage(&mut self.lanes, requester, reply, ctx);
                }
            }
            DhtOp::Move { entry } => self.store_entry(entry, ctx),
        }
    }

    /// Stores `entry`, or hands it to the parked GET it satisfies.
    fn store_entry(&mut self, entry: StoredEntry<T>, ctx: &mut Context<SkueueMsg<T>>) {
        if let Some(satisfied) = self.store_mut().put_into(entry) {
            Self::reply_to(&mut self.lanes, satisfied, ctx);
        }
    }

    /// Replies to the parked GET an element satisfied.
    pub(crate) fn reply_to(
        lanes: &mut LaneOrder,
        SatisfiedGet { get, entry }: SatisfiedGet<T>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        let request = get.request;
        Self::stage(lanes, get.requester, DhtReplyItem { request, entry }, ctx);
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
            self.dht_resolved();
            // The entry ends its life here: the payload moves into the
            // completion record without a clone.
            let source = entry.element.id;
            let (wave, order) = meta.wave_and_order();
            let record = OpRecord {
                id: request,
                kind: OpKind::Dequeue,
                value: entry.element.value,
                result: OpResult::Returned(source),
                order: self.order_key(wave, order, request.origin),
                issued_round: meta.issued_round(),
                completed_round: ctx.round(),
            };
            Self::complete(&self.cfg, self.shard, record, ctx);
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
                // Room for three more: most batches carry one to four, and
                // growing a vector of one costs a reallocation.
                let mut items = Vec::with_capacity(4);
                items.push(item);
                staged.push((to, I::batch(items)));
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
        if matches!(self.lifecycle, Lifecycle::Draining { .. }) && !msg.is_node_local() {
            let absorber = self.absorber().expect("a draining node has an absorber");
            ctx.send(absorber, msg);
            return;
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
                    self.flags.aggregate_unacked(),
                    "AggregateAck without an outstanding aggregate credit at {}",
                    self.view.me().vid
                );
                self.flags.set_aggregate_unacked(false);
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
                    // Applied or re-routed in batch order.
                    for routed in ops {
                        self.dispatch_dht(routed.op, routed.progress, ctx);
                    }
                }
            }
            SkueueMsg::DhtReplyBatch { replies } => {
                for item in replies {
                    self.handle_dht_reply(item.request, item.entry, ctx);
                }
            }
            SkueueMsg::PutAck { .. } => self.dht_resolved(),
            other => {
                self.handle_membership(from, other, ctx);
                Cold::release_idle(&mut self.cold);
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
        Cold::release_idle(&mut self.cold);
        Waves::release_idle(&mut self.waves);
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
                let in_flight = self.waves_in_flight() as usize;
                let pipeline_open = in_flight < self.cfg.effective_pipeline_depth()
                    && !self.flags.aggregate_unacked();
                (pipeline_open && (self.cfg.is_stack() || self.has_wave_work()))
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
    use crate::messages::AbsorbPayload;
    use skueue_dht::PendingGet;
    use skueue_overlay::{
        node_of, recommended_bit_budget, Label, LabelHasher, NeighborInfo, Topology, VirtualId,
    };
    use std::collections::VecDeque;

    /// A `Serve` a node sent: to whom, under which epoch, with which runs.
    pub(super) type Serve = (NodeId, u64, Vec<RunAssignment>);

    /// What an idle node, its view, its lane order and a message in
    /// flight cost inline.  The budgets in `tests/memory_budget.rs`,
    /// `tests/idle_node_memory.rs`, `tests/node_view.rs`,
    /// `tests/lane_order.rs` and `tests/inflight_memory.rs` are ceilings
    /// from earlier rounds (896, 384, 240, 176 and 104 B); these are
    /// today's sizes, the node's also held by `tests/node_slot_memory.rs`
    /// and the view's by `tests/node_view.rs`.  Debug builds keep the
    /// update-phase stamp their monotonicity check reads: 8 B more.
    #[test]
    fn a_node_is_112_bytes_and_an_envelope_80() {
        use std::mem::size_of;
        let node = if cfg!(debug_assertions) { 120 } else { 112 };
        assert!(size_of::<SkueueNode<u64>>() <= node);
        assert!(size_of::<LaneOrder>() <= 16);
        assert!(size_of::<Flags>() <= 1);
        assert!(size_of::<LocalView>() <= 48);
        assert!(size_of::<skueue_sim::Envelope<SkueueMsg<u64>>>() <= 80);
    }

    /// A node drops its cold box at the end of the visit step that empties
    /// it (`join_leave`'s duty test checks the visit that discharges a
    /// node's last duty), so after every round of a load, a join and a
    /// leave each box holds something, and once membership is stable only
    /// the anchor and the draining nodes hold one.
    #[test]
    fn a_stable_queue_node_holds_no_cold_box() {
        use crate::cluster::Skueue;
        let mut cluster = Skueue::<u64>::builder()
            .processes(6)
            .seed(3)
            .build()
            .expect("valid configuration");
        let check = |cluster: &Skueue<u64>| {
            for (id, node) in cluster.nodes() {
                let Some(cold) = node.cold.as_deref() else {
                    continue;
                };
                assert!(!cold.is_idle(), "{id} keeps an empty cold box");
                assert!(
                    node.membership().is_none_or(|m| !m.is_idle()),
                    "{id} keeps idle bookkeeping"
                );
                assert!(cold.local_combining().is_none(), "{id} combines in a queue");
            }
        };
        let mut rng = skueue_sim::SimRng::new(3);
        let mut round = |cluster: &mut Skueue<u64>, load: bool| {
            for pid in cluster.active_process_ids() {
                if load && rng.next_u64().is_multiple_of(3) {
                    let mut client = cluster.client(pid);
                    if rng.next_u64() & 1 == 0 {
                        client.enqueue(rng.next_u64()).expect("active process");
                    } else {
                        client.dequeue().expect("active process");
                    }
                }
            }
            cluster.run_round();
            check(cluster);
        };
        for _ in 0..20 {
            round(&mut cluster, true);
        }
        let joiner = cluster.join(None).expect("a bootstrap exists");
        while !cluster.process_is_active(joiner) {
            round(&mut cluster, true);
        }
        let leaver = (0..6)
            .map(ProcessId)
            .find(|&pid| cluster.leave(pid).is_ok())
            .expect("a process that does not host the anchor");
        while !cluster.process_has_left(leaver) {
            round(&mut cluster, true);
        }
        for _ in 0..200 {
            if cluster.open_requests() == 0
                && cluster.nodes().all(|(_, n)| n.membership().is_none())
            {
                break;
            }
            round(&mut cluster, false);
        }
        let holders: Vec<NodeId> = cluster
            .nodes()
            .filter(|(_, node)| node.cold.is_some())
            .map(|(id, _)| id)
            .collect();
        let expected: Vec<NodeId> = cluster
            .nodes()
            .filter(|(_, node)| node.is_anchor_node() || node.has_left())
            .map(|(id, _)| id)
            .collect();
        assert_eq!(holders, expected);
        assert_eq!(expected.len(), 4, "the anchor and three draining nodes");
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
        let get = OutstandingGet::new(0, 1, 1);
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
                r.outstanding_gets().iter().map(|&(seq, _)| seq).collect()
            });
            (cluster.unmatched_dht_replies() - before, waiting)
        };
        for (origin, seq) in [(ProcessId(2), 5), (me, 6), (me, 4), (me, 10)] {
            assert_eq!(reply(&mut cluster, origin, seq), (1, vec![5, 9]));
        }
        assert_eq!(reply(&mut cluster, me, 5), (0, vec![9]));
        let reported = cluster.act_on(middle, |_, ctx| ctx.reports::<OpRecord<u64>>().len());
        assert_eq!(reported, Some(1));
        assert_eq!(reply(&mut cluster, me, 5), (1, vec![9]));
    }

    /// The node's in-flight waves (none while it holds no work state).
    fn in_flight(node: &SkueueNode<u64>) -> usize {
        node.waves_in_flight() as usize
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

        // A stored element keeps the box past the visit that reports its
        // enqueue; the GET that takes it frees the box.
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
        assert_eq!(ctx.reports::<OpRecord<u64>>().len(), 1);
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

    /// The stack's stage-4 barrier holds drain waves too: a suspended stack
    /// node with a child's sub-batch queued opens no drain wave while a GET
    /// of its own is in flight, and opens it in the visit the GET's reply
    /// arrives in.
    #[test]
    fn a_suspended_stack_node_drains_no_wave_while_its_get_is_in_flight() {
        let mut node = node_in(Mode::Stack, false, VKind::Middle);
        if let Lifecycle::Member { resumed, .. } = &mut node.lifecycle {
            *resumed = false;
        }
        assert!(node.suspended());
        let request = RequestId::new(node.process(), 0);
        let requests = Requests::of(&mut node.waves, &node.cfg);
        requests.note_outstanding_get(request.seq, OutstandingGet::new(0, 1, 1));
        requests.dht_issued();
        let (child, mut batch) = (NodeId(1000), Batch::empty_stack());
        batch.push_op(BatchOp::Enqueue);
        let aggregate = SkueueMsg::Aggregate {
            child,
            epoch: 1,
            batch,
        };
        let (sent, _) = visit_with(&mut node, WAVE_CADENCE, vec![(child, aggregate)]);
        assert_eq!(sent, None, "the GET in flight holds the drain wave back");

        let entry = StoredEntry {
            position: 3,
            key: Label::from_f64(0.5),
            ticket: 0,
            element: Element::new(RequestId::new(ProcessId(2), 0), 42),
        };
        let replies = vec![DhtReplyItem { request, entry }];
        let reply = SkueueMsg::DhtReplyBatch { replies };
        let (sent, _) = visit_with(&mut node, 2 * WAVE_CADENCE, vec![(NodeId(1001), reply)]);
        let (epoch, combined) = sent.expect("the answered GET lets the drain wave open");
        assert_eq!((epoch, combined.total_ops()), (1, 1));
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
        assert_eq!(waves.child_batches().capacity(), 1);
        assert!(node.requests().is_none());
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
        assert_eq!(waves.child_batches().capacity(), 1);
        assert!(node.requests().is_none());
        assert_eq!(in_flight(&node), 2);
        assert_eq!(waves.wave_parent(), Some(parent));
    }

    /// A child's wave epoch is memorised as a varint and echoed whole: an
    /// epoch beyond `u32` comes back in its `Serve` exactly.  No simulated
    /// run reaches one, so only this test would see a lost high part.
    #[test]
    fn a_child_epoch_beyond_u32_survives_the_ring() {
        let mut node = node_of_kind(false, VKind::Right);
        let (parent, child) = (node.tree_parent().unwrap(), NodeId(1000));
        let epoch = (1 << 32) + 5;
        let batch = child_batch(0x0302_0100);
        let aggregate = SkueueMsg::Aggregate {
            child,
            epoch,
            batch: batch.clone(),
        };
        let (sent, _) = visit_with(&mut node, WAVE_CADENCE, vec![(child, aggregate)]);
        let (wave, combined) = sent.expect("the sub-batch is sent up");
        assert_eq!(combined, batch);
        let runs = AnchorState::new().assign_wave(&combined, Mode::Queue);
        let serve = SkueueMsg::Serve {
            epoch: wave,
            runs: runs.clone(),
        };
        let (_, served) = visit_with(&mut node, 2 * WAVE_CADENCE, vec![(parent, serve)]);
        assert_eq!(served, [(child, epoch, runs)]);
        assert_eq!(in_flight(&node), 0);
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
        assert_eq!(requests.own_log().len(), 1);
        assert!(requests.own_batch().has_no_ops(), "the wave carries it");

        // Served, the request leaves the log as a routed PUT: the node keeps
        // a half only for an element it happens to store itself.
        let runs = AnchorState::new().assign_wave(&batch, Mode::Queue);
        let serve = SkueueMsg::Serve { epoch, runs };
        visit_with(&mut node, round + WAVE_CADENCE, vec![(parent, serve)]);
        assert_eq!(node.open_requests(), 0);
        assert_eq!(node.waves.is_some(), node.stored_elements() > 0);
        assert_eq!(in_flight(&node), 0);
    }

    /// A middle node whose only work was a dequeue its wave served ⊥
    /// reports the record in that visit and holds no work state once the
    /// visit ends: a finished request leaves nothing in its node.
    #[test]
    fn a_finished_request_leaves_no_request_half() {
        let mut node = node_under_test(false);
        let (me, parent) = (node.view.me().node, node.tree_parent().unwrap());
        let id = RequestId::new(node.process(), 0);
        node.generate_op(id, BatchOp::Dequeue, 0, &mut Context::new(me, 0));
        let mut ctx = Context::new(me, WAVE_CADENCE);
        node.on_timeout(&mut ctx);
        let wave = ctx
            .into_outbox()
            .into_iter()
            .find_map(|(_, msg)| match msg {
                SkueueMsg::Aggregate { epoch, batch, .. } => Some((epoch, batch)),
                _ => None,
            });
        let (epoch, batch) = wave.expect("the dequeue opens a wave");
        let runs = AnchorState::new().assign_wave(&batch, Mode::Queue);
        let mut ctx = Context::new(me, 2 * WAVE_CADENCE);
        node.on_message(parent, SkueueMsg::Serve { epoch, runs }, &mut ctx);
        node.on_timeout(&mut ctx);
        let reported = ctx.reports::<OpRecord<u64>>();
        assert!(
            matches!(reported[..], [(at, OpRecord { id: done, result: OpResult::Empty, .. })]
            if at == me && done == id)
        );
        assert!(node.requests().is_none());
        assert!(node.waves.is_none());
    }

    /// The request half goes once it is idle while the wave half still has
    /// a wave in flight — at the end of a visit — and the wave half goes
    /// once its waves are served.
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

        // An element is stored here: the request half holds it, and the
        // enqueue is reported.
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
        // A GET takes the element: the request half goes at the end of the
        // visit; the wave in flight keeps the wave half.
        let get = DhtOp::Get {
            position,
            max_ticket: u64::MAX,
            request: RequestId::new(ProcessId(8), 0),
            requester: NodeId(1001),
        };
        node.apply_dht(get, &progress, &mut ctx);
        assert!(node.requests().is_some_and(|r| r.store().is_vacant()));
        node.on_timeout(&mut ctx);
        assert_eq!(ctx.reports::<OpRecord<u64>>().len(), 1);
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
        let waves = node
            .waves
            .as_deref()
            .expect("it carries the stored element");
        assert!(waves.wave_memo().is_empty());
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
            assert!(ctx.reports::<OpRecord<u64>>().is_empty());
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
            assert_eq!(anchor.membership().unwrap().unreported(), (0, 1));
        }
    }

    /// A node of a four-process queue: the shard's anchor, or a middle node
    /// (whose parent is its left sibling).
    pub(super) fn node_under_test(anchor: bool) -> SkueueNode<u64> {
        node_of_kind(anchor, VKind::Middle)
    }

    /// The shard's anchor of a four-process queue, or the node of `kind` of
    /// its process 0 (whose parent is its sibling of the kind to its left).
    fn node_of_kind(anchor: bool, kind: VKind) -> SkueueNode<u64> {
        node_in(Mode::Queue, anchor, kind)
    }

    /// [`node_of_kind`] in a deployment of `mode`.
    fn node_in(mode: Mode, anchor: bool, kind: VKind) -> SkueueNode<u64> {
        let pids: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let topology = Topology::build(&pids, LabelHasher::default()).expect("distinct pids");
        let vid = if anchor {
            topology.anchor()
        } else {
            VirtualId::new(ProcessId(0), kind)
        };
        let cfg = ProtocolConfig {
            mode,
            bit_budget: recommended_bit_budget(pids.len()),
            ..ProtocolConfig::queue()
        };
        let view = topology.local_view(vid, &node_of).expect("own vid");
        let node = SkueueNode::new(Arc::new(cfg), 0, view, anchor);
        assert_eq!(node.tree_parent().is_none(), anchor);
        node
    }

    /// Sub-batch of one to three runs of one to four operations each.
    pub(super) fn child_batch(bits: u64) -> Batch {
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
            assert_eq!(requests.own_batch().total_ops(), held);
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
        assert!(node.waves.as_deref().unwrap().serve_stash().is_empty());
    }
}
