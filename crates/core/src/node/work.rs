//! What a node holds beyond its identity, its view and its lane order: the
//! two halves of its work, which it holds only while it has some
//! ([`Waves`] and, behind a second pointer inside it, [`Requests`]), the
//! role state few nodes hold at once ([`Cold`]), and its one-bit states
//! ([`Flags`]).  Stages 1–4 read and change all of it through the calls
//! here.
//!
//! Layout (sizes in release builds):
//!
//! | where | part | holds |
//! |---|---|---|
//! | node slot: [`Flags`], 1 B | bits 0–2 | which siblings of the process are integrated members, by [`VKind::index`] |
//! | | bit 3 | the most recent `Aggregate` is unconfirmed |
//! | node slot: `Option<Box<Waves>>`, 8 B → 112 B | `child_batches` | [`ChildBatches`]: queued sub-batches as `(child, epoch, batch)` |
//! | | `wave_parent` | the parent every wave in flight went to |
//! | | `memo` | the [`WaveMemo`]: how each wave in flight was combined |
//! | | `serve_stash` | [`StashedServe`]s that overtook the serves of older waves |
//! | | `requests` | the request half, `Option<Box<Requests>>` |
//! | `Option<Box<Requests>>`, 8 B → 168 B | `own_batch`, `own_log` | Stage 1: the working batch and every unresolved request as a [`LocalOp`], oldest first |
//! | | `store` | Stage 4: the node's DHT partition |
//! | | `outstanding_gets` | Stage 4: an [`OutstandingGet`] per GET in flight, by seq |
//! | | `outstanding_dht` | Stage 4: the stack's unresolved DHT operations |
//! | node slot: `Option<Box<Cold>>`, 8 B → 168 B | `anchor` | the shard's anchor state, boxed |
//! | | `membership` | join/leave/update-phase bookkeeping, inline |
//! | | `combining` | the stack's [`LocalCombining`], boxed |
//! | | `absorber` | where a draining node forwards |

use super::wave_memo::WaveMemo;
use super::{LaneKind, SkueueNode};
use crate::anchor::{AnchorState, RunAssignment};
use crate::batch::{Batch, BatchOp};
use crate::config::ProtocolConfig;
use crate::join_leave::Membership;
use skueue_dht::{NodeStore, Payload};
use skueue_overlay::VKind;
use skueue_sim::ids::{NodeId, ProcessId, RequestId};
use skueue_verify::{OpKind, OpRecord, OpResult, OrderKey};
use std::collections::HashMap;

/// Metadata remembered for an outstanding `GET` this node issued: the
/// original request plus the order components the anchor assigned to it,
/// needed to stamp the completion record when the reply arrives.  Carries no
/// payload (dequeues have none), so it stays a small `Copy` value for any
/// payload type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutstandingGet {
    /// Round in which the request was issued.
    issued_round: u64,
    /// Anchor-assigned order value `value(op)`.
    order: u64,
    /// Epoch of the anchor wave that assigned the order value.
    wave: u64,
}

impl OutstandingGet {
    pub(super) fn new(issued_round: u64, order: u64, wave: u64) -> Self {
        OutstandingGet {
            issued_round,
            order,
            wave,
        }
    }

    /// The round the request was issued in.
    pub(super) fn issued_round(&self) -> u64 {
        self.issued_round
    }

    /// The anchor's wave and order value, as the order key takes them.
    pub(super) fn wave_and_order(&self) -> (u64, u64) {
        (self.wave, self.order)
    }
}

/// A locally generated request that has not been resolved yet.  Only a
/// middle node issues requests, all of them of its own process, so the log
/// keeps a request's seq and derives its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LocalOp<T = u64> {
    /// The request's per-origin sequence number.
    seq: u64,
    /// Enqueue/push or dequeue/pop, kept only for the debug check that the
    /// log stays in step with the batch's runs.
    #[cfg(debug_assertions)]
    kind: BatchOp,
    /// Payload (enqueues only; `T::default()` for dequeues).
    value: T,
    /// Round in which the request was generated.
    issued_round: u64,
}

/// A `Serve` that arrived before the serves of older waves (asynchronous
/// delivery can reorder them); parked until its epoch reaches the front of
/// the wave ring.
#[derive(Debug, Clone)]
pub(crate) struct StashedServe {
    epoch: u64,
    runs: Vec<RunAssignment>,
}

#[cfg(test)]
impl StashedServe {
    /// The parked assignments.
    pub(super) fn runs(&self) -> &Vec<RunAssignment> {
        &self.runs
    }
}

/// Sub-batches received from aggregation-tree children and not yet combined
/// into a wave, each tagged with the child's wave epoch.  With pipelining a
/// child may legitimately have several batches queued here; a child's
/// entries stay in ascending epoch order, and the node's
/// [`LaneOrder`](super::LaneOrder) orders the children.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChildBatches(Vec<(NodeId, u64, Batch)>);

impl ChildBatches {
    /// Buffers a sub-batch from `child` under its wave `epoch`, keeping the
    /// child's entries in ascending epoch order.  Arrival order is *almost*
    /// epoch order (the aggregate credit serialises each channel), but an
    /// absorb hand-over races the draining parent's forwarded aggregates on
    /// independently delayed messages — and commit order to the anchor must
    /// stay epoch (= the child's program) order regardless.  The list grows
    /// by exactly one entry when full: most nodes queue one sub-batch at a
    /// time, and a list lives as long as its node's wave half.
    pub(super) fn push(&mut self, child: NodeId, epoch: u64, batch: Batch) {
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
    /// and served or their senders' waves in flight would never drain.
    pub(super) fn pop_oldest(
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

    /// The room of the list, in entries.
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// The queued sub-batches.
    #[cfg(test)]
    pub(super) fn batches(&self) -> impl Iterator<Item = &Batch> {
        self.0.iter().map(|(_, _, batch)| batch)
    }
}

/// The stack's local-combining state (Section VI).  Only a node of a stack
/// deployment that has generated a request holds one.
#[derive(Debug, Default)]
pub(crate) struct LocalCombining<T> {
    /// Ids of the unsent pushes eligible for local matching.  Markers only:
    /// the payloads stay in `own_log` (the matched push is always its last
    /// entry), so no payload is ever cloned onto this stack.
    local_stack: Vec<RequestId>,
    /// Completed-but-unordered combined pairs, keyed by the seq of the own
    /// request whose order value they must follow.
    pairs_by_anchor: HashMap<u64, Vec<OpRecord<T>>>,
    /// Major order value of this node's most recently ordered own request.
    last_order_major: u64,
    /// Minor counter for combined pairs anchored at `last_order_major`.
    minor_counter: u64,
}

impl<T: Payload> LocalCombining<T> {
    /// Notes an unsent push, eligible for local matching.
    pub(super) fn note_push(&mut self, push: RequestId) {
        self.local_stack.push(push);
    }

    /// Every unsent push is now committed to the aggregation path and can
    /// no longer be combined locally.
    pub(super) fn commit(&mut self) {
        self.local_stack.clear();
    }

    /// Matches the pop `pop`, issued in `round`, with the youngest unsent
    /// push, if there is one: undoes the push's batching and returns the
    /// push's completion record, the pairs that were anchored to the push
    /// and the pop's record, in issue order, with placeholder order keys.
    ///
    /// The matched push is necessarily the most recently issued unsent
    /// operation, so it leaves the log and the working batch together
    /// (`local_stack` only holds pushes issued after the last wave
    /// opened).  The pairs anchored to it must be re-anchored with the new
    /// pair (the push will never receive an anchor order value of its own);
    /// the push precedes and the pop follows every record in that bucket,
    /// so placing them at its ends keeps the list in issue (= seq) order
    /// without re-sorting.
    pub(super) fn match_pop(
        &mut self,
        requests: &mut Requests<T>,
        pop: RequestId,
        round: u64,
    ) -> Option<Vec<OpRecord<T>>> {
        let push_id = self.local_stack.pop()?;
        let push = requests.own_log.pop().expect("push must still be unsent");
        debug_assert_eq!(push.seq, push_id.seq);
        requests.own_batch.pop_last_op();
        let mut records = self.pairs_by_anchor.remove(&push.seq).unwrap_or_default();
        let placeholder = OrderKey::local(0, pop.origin, 0);
        let push_record = OpRecord {
            id: push_id,
            kind: OpKind::Enqueue,
            value: push.value.clone(),
            result: OpResult::Enqueued,
            order: placeholder,
            issued_round: push.issued_round,
            completed_round: round,
        };
        records.insert(0, push_record);
        records.push(OpRecord {
            id: pop,
            kind: OpKind::Dequeue,
            value: push.value,
            result: OpResult::Returned(push_id),
            order: placeholder,
            issued_round: round,
            completed_round: round,
        });
        Some(records)
    }

    /// Attaches `records` to the bucket of the own request `seq`, whose
    /// order value they must follow.  They are newer than anything already
    /// there (re-anchoring only moves records to an *older* anchor), so a
    /// plain append keeps the bucket in issue order.
    pub(super) fn anchor_at(&mut self, seq: u64, records: Vec<OpRecord<T>>) {
        let bucket = self.pairs_by_anchor.entry(seq).or_default();
        debug_assert!(
            match (bucket.last(), records.first()) {
                (Some(last), Some(first)) => last.id.seq < first.id.seq,
                _ => true,
            },
            "re-anchored records must be newer than the bucket's contents"
        );
        bucket.extend(records);
    }

    /// Notes that the own request `seq` was assigned the order value
    /// `major`, and returns the pairs anchored to it with their final order
    /// keys.
    pub(super) fn ordered(
        &mut self,
        seq: u64,
        major: u64,
        origin: ProcessId,
    ) -> impl Iterator<Item = OpRecord<T>> + '_ {
        self.last_order_major = major;
        self.minor_counter = 0;
        let pairs = self.pairs_by_anchor.remove(&seq).unwrap_or_default();
        // Buckets are maintained in seq order (see `anchor_at`).
        debug_assert!(pairs.windows(2).all(|w| w[0].id.seq < w[1].id.seq));
        self.rekey(pairs, origin)
    }

    /// Gives `records` their final order keys: adjacent in `≺`, right after
    /// the most recently ordered own request.
    pub(super) fn rekey(
        &mut self,
        records: Vec<OpRecord<T>>,
        origin: ProcessId,
    ) -> impl Iterator<Item = OpRecord<T>> + '_ {
        records.into_iter().map(move |mut record| {
            self.minor_counter += 1;
            record.order = OrderKey::local(self.last_order_major, origin, self.minor_counter);
            record
        })
    }
}

/// What a node holds only in a role few nodes have at once: the shard's
/// anchor state, membership bookkeeping while its neighbourhood changes, a
/// stack node's local combining, and a draining node's absorber.  Every
/// part is empty on a queue node in a stable neighbourhood, so the node
/// holds this behind one `Option<Box<_>>` that is `None` there (see
/// [`Cold::release_idle`]).  The bookkeeping is inline, since an update
/// phase gives it to every node it reaches; the anchor state and the
/// combining sit behind pointers of their own, so the box a churning node
/// holds does not carry their room.
#[derive(Debug, Default)]
pub(crate) struct Cold<T> {
    /// Anchor state, present only at the current shard anchor.
    anchor: Option<Box<AnchorState>>,
    /// Join/leave/update-phase bookkeeping (Section IV); `None` while
    /// membership around this node is stable.
    membership: Option<Membership<T>>,
    /// Stack local combining (allocated with the node's first request in a
    /// stack deployment, never in queue mode).
    combining: Option<Box<LocalCombining<T>>>,
    /// Where a draining node forwards every message that is not
    /// node-local.
    absorber: Option<NodeId>,
}

impl<T: Payload> Cold<T> {
    /// The cold state in `slot`, allocated on first use.  Takes the node's
    /// field rather than the node, so a caller keeps its borrows of the
    /// node's other fields.
    pub(crate) fn of(slot: &mut Option<Box<Cold<T>>>) -> &mut Self {
        slot.get_or_insert_with(Box::default)
    }

    /// The membership bookkeeping in `slot`, if any is outstanding.
    pub(crate) fn membership(slot: &mut Option<Box<Cold<T>>>) -> Option<&mut Membership<T>> {
        slot.as_deref_mut()?.membership.as_mut()
    }

    /// The stack's local combining in `slot`, if the node has one.
    pub(super) fn combining(slot: &mut Option<Box<Cold<T>>>) -> Option<&mut LocalCombining<T>> {
        slot.as_deref_mut()?.combining.as_deref_mut()
    }

    /// The anchor state in `slot`, if the node holds it.
    pub(super) fn anchor(slot: &mut Option<Box<Cold<T>>>) -> Option<&mut AnchorState> {
        slot.as_deref_mut()?.anchor.as_deref_mut()
    }

    /// The stack's local combining, allocated on first use.
    pub(super) fn combining_mut(&mut self) -> &mut LocalCombining<T> {
        self.combining.get_or_insert_with(Box::default)
    }

    /// Forwards everything that is not node-local to `absorber` from now on.
    pub(crate) fn drain_into(&mut self, absorber: NodeId) {
        self.absorber = Some(absorber);
    }

    /// Forgets discharged duties, drops the membership bookkeeping once
    /// nothing is outstanding and the cold box in `slot` once every part
    /// of it is empty, so a queue node in a stable neighbourhood carries
    /// none (checked at the end of every visit step; one branch while it
    /// is already gone).
    pub(super) fn release_idle(slot: &mut Option<Box<Cold<T>>>) {
        let Some(cold) = slot.as_deref_mut() else {
            return;
        };
        if let Some(m) = cold.membership.as_mut() {
            m.duties.retain(|d| !d.is_discharged());
            if m.is_idle() {
                cold.membership = None;
            }
        }
        if cold.is_idle() {
            *slot = None;
        }
    }

    /// True when every part is empty.  Destructured without `..` so a new
    /// part cannot be forgotten here.
    pub(super) fn is_idle(&self) -> bool {
        let Cold {
            anchor,
            membership,
            combining,
            absorber,
        } = self;
        anchor.is_none() && membership.is_none() && combining.is_none() && absorber.is_none()
    }

    /// The stack's local combining, if the node has one.
    #[cfg(test)]
    pub(super) fn local_combining(&self) -> Option<&LocalCombining<T>> {
        self.combining.as_deref()
    }
}

/// A node's one-bit states in one byte: bit [`VKind::index`] is set while
/// that sibling of the emulating process is an integrated member (a node
/// only treats integrated siblings as aggregation-tree children), and
/// [`Flags::UNACKED`] while the node's most recent `Aggregate` has not
/// been confirmed by its parent (at most one per channel keeps commits in
/// epoch order).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flags(u8);

impl Flags {
    const UNACKED: u8 = 1 << 3;

    /// Every sibling integrated, nothing unconfirmed: a member of the
    /// initial topology.
    pub(super) const MEMBER: Flags = Flags(0b111);

    /// No sibling integrated yet: siblings of a joining process integrate
    /// one by one, each announcing itself via `SiblingStatus`.
    pub(super) const JOINING: Flags = Flags(0);

    fn set(&mut self, bit: u8, on: bool) {
        self.0 = if on { self.0 | bit } else { self.0 & !bit };
    }

    pub(crate) fn sibling_integrated(self, kind: VKind) -> bool {
        self.0 & 1 << kind.index() != 0
    }

    pub(crate) fn set_sibling_integrated(&mut self, kind: VKind, active: bool) {
        self.set(1 << kind.index(), active);
    }

    pub(crate) fn aggregate_unacked(self) -> bool {
        self.0 & Self::UNACKED != 0
    }

    pub(crate) fn set_aggregate_unacked(&mut self, unacked: bool) {
        self.set(Self::UNACKED, unacked);
    }
}

/// The wave half of a node's work: the sub-batches it combines and the
/// waves it has forwarded, which is all a node that only relays its
/// children's sub-batches keeps.  Every field is empty whenever the node has
/// no wave in flight, nothing queued and no request half, so the node holds
/// this behind an `Option<Box<_>>` that is `None` while it is idle (see
/// [`Waves::release_idle`]).  The request half sits behind a second pointer
/// inside it, so the node's own slot carries one pointer for both.
#[derive(Debug)]
pub(crate) struct Waves<T> {
    /// Sub-batches from children not yet combined.
    child_batches: ChildBatches,
    /// The parent the youngest wave was sent to, and so, while any wave is
    /// in flight, the parent of every one: a new wave is held back while the
    /// waves in flight point at a different parent, so re-parenting can
    /// never reorder a node's waves at the anchor.
    wave_parent: Option<NodeId>,
    /// The in-flight waves, oldest first, with the memorised combination
    /// order of each.
    memo: WaveMemo,
    /// Serves that arrived ahead of older waves (asynchronous reordering).
    serve_stash: Vec<StashedServe>,
    /// The request half; `None` on a node with no request and no stored
    /// element.
    requests: Option<Box<Requests<T>>>,
}

impl<T: Payload> Waves<T> {
    /// The wave half in `slot`, allocated on first use.  Takes the node's
    /// field rather than the node, so a caller keeps its borrows of the
    /// node's other fields.
    #[inline]
    pub(super) fn of(slot: &mut Option<Box<Waves<T>>>) -> &mut Self {
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
            wave_parent: None,
            memo: WaveMemo::default(),
            serve_stash: Vec::new(),
            requests: None,
        }))
    }

    /// Drops each half in `slot` once it holds nothing, the request half
    /// first: an idle node carries none, a node that only relays carries no
    /// request half, and a burst's buffers go back with the boxes (checked
    /// at the end of every visit and of a request that local combining
    /// finished at once).
    pub(super) fn release_idle(slot: &mut Option<Box<Waves<T>>>) {
        let Some(waves) = slot.as_deref_mut() else {
            return;
        };
        if waves.requests.as_deref().is_some_and(Requests::is_idle) {
            waves.requests = None;
        }
        if waves.is_idle() {
            *slot = None;
        }
    }

    /// True when every field is empty.  Destructured without `..` so a new
    /// field cannot be forgotten here; the fields a busy node most often
    /// holds come first.
    fn is_idle(&self) -> bool {
        let Waves {
            memo,
            requests,
            child_batches,
            // Read only while a wave is in flight.
            wave_parent: _,
            serve_stash,
        } = self;
        memo.is_empty()
            && requests.is_none()
            && child_batches.0.is_empty()
            && serve_stash.is_empty()
    }

    /// The parent of every wave in flight.
    pub(super) fn wave_parent(&self) -> Option<NodeId> {
        self.wave_parent
    }

    /// The wave memo, which Stage 3 reads a served wave off.
    pub(super) fn memo(&mut self) -> &mut WaveMemo {
        &mut self.memo
    }

    /// Writes a wave at the back of the memo and combines into `own` the
    /// oldest queued sub-batch of every peer in `children` (the child lane,
    /// in first-contact order), in that fixed order.  Each source leaves
    /// its run lengths in the memo (all the Stage 3 decomposition reads of
    /// it) and a child's sub-batch is dropped right here; an own batch
    /// without runs would take no share of any run and is not memorised.
    /// Returns the combined batch.
    pub(super) fn combine(&mut self, mut own: Batch, children: &[NodeId]) -> Batch {
        let memo = &mut self.memo;
        // A served wave's bytes are gone with it, so with none in flight
        // (always, at the anchor) the new wave is all the memo holds.
        debug_assert!(memo.in_flight() > 0 || memo.is_empty());
        if own.num_runs() > 0 {
            memo.remember(None, 0, &own);
        }
        self.child_batches
            .pop_oldest(children, |rank, epoch, batch| {
                memo.remember(Some(rank), epoch, &batch);
                own.merge(batch);
            });
        memo.close();
        own
    }

    /// Counts the wave just combined as in flight towards `parent` and
    /// returns the waves now in flight.
    pub(super) fn forward(&mut self, parent: NodeId) -> u32 {
        self.wave_parent = Some(parent);
        self.memo.forward()
    }

    /// Parks a serve that overtook the serves of older waves.
    pub(super) fn stash(&mut self, epoch: u64, runs: Vec<RunAssignment>) {
        self.serve_stash.push(StashedServe { epoch, runs });
    }

    /// Takes the parked serve of `epoch`, if there is one.
    pub(super) fn take_stashed(&mut self, epoch: u64) -> Option<Vec<RunAssignment>> {
        let at = self.serve_stash.iter().position(|s| s.epoch == epoch)?;
        Some(self.serve_stash.swap_remove(at).runs)
    }

    /// Drains every queued `(child, epoch, sub-batch)` for the leave
    /// hand-over, children in the order of `children` and each child's in
    /// FIFO order.
    pub(crate) fn drain_child_batches(&mut self, children: &[NodeId]) -> Vec<(NodeId, u64, Batch)> {
        let queued = &mut self.child_batches.0;
        let rank = |child: &NodeId| children.iter().position(|c| c == child);
        debug_assert!(queued.iter().all(|(child, _, _)| rank(child).is_some()));
        // Stable: each child's entries keep their order.
        queued.sort_by_key(|(child, _, _)| rank(child));
        std::mem::take(queued)
    }

    /// The queued sub-batches.
    #[cfg(test)]
    pub(super) fn child_batches(&self) -> &ChildBatches {
        &self.child_batches
    }

    /// The wave memo.
    #[cfg(test)]
    pub(super) fn wave_memo(&self) -> &WaveMemo {
        &self.memo
    }

    /// The parked serves.
    #[cfg(test)]
    pub(super) fn serve_stash(&self) -> &Vec<StashedServe> {
        &self.serve_stash
    }
}

/// The request half of a node's work: its own requests from issue to
/// completion and its DHT partition.  Only a process's middle node issues
/// requests, so a left or right node holds this only while it stores an
/// element or parks a GET.  Every field is empty whenever the node has
/// none of them, and the half is then dropped by itself (see
/// [`Waves::release_idle`]).  A finished request leaves no trace here: its
/// record is reported to the host through the node's `Context` (see
/// [`SkueueNode::complete`]), like everything else a node reports.
#[derive(Debug)]
pub(crate) struct Requests<T> {
    // --- Stage 1 ------------------------------------------------------------
    own_batch: Batch,
    own_log: Vec<LocalOp<T>>,

    // --- Stage 4 ------------------------------------------------------------
    store: NodeStore<T>,
    /// The node's GETs in flight by seq, ascending: a node issues its GETs
    /// in log (= seq) order, so each is appended.
    outstanding_gets: Vec<(u64, OutstandingGet)>,
    outstanding_dht: u64,
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
        } = self;
        store.is_vacant()
            && own_log.is_empty()
            && outstanding_gets.is_empty()
            && *outstanding_dht == 0
            && own_batch.has_no_ops()
    }

    /// The node's DHT partition.
    #[cfg(test)]
    pub(crate) fn store(&self) -> &NodeStore<T> {
        &self.store
    }

    /// Mutable form of [`Self::store`].
    pub(crate) fn store_mut(&mut self) -> &mut NodeStore<T> {
        &mut self.store
    }

    /// True when the working batch holds an operation.
    pub(super) fn has_unsent_ops(&self) -> bool {
        !self.own_batch.has_no_ops()
    }

    /// Logs the request `seq` of `kind`, issued in `issued_round`, and adds
    /// it to the working batch.
    pub(super) fn log(&mut self, seq: u64, kind: BatchOp, value: T, issued_round: u64) {
        self.own_log.push(LocalOp {
            seq,
            #[cfg(debug_assertions)]
            kind,
            value,
            issued_round,
        });
        self.own_batch.push_op(kind);
    }

    /// The seq of the most recently logged request still in the log.
    pub(super) fn last_logged_seq(&self) -> Option<u64> {
        self.own_log.last().map(|op| op.seq)
    }

    /// Moves the working batch into `own`, a fresh one taking its place,
    /// and returns the seqs of the requests it carries: the log's
    /// uncommitted suffix, which joins a wave now.
    pub(super) fn commit(&mut self, own: &mut Batch) -> impl Iterator<Item = u64> + '_ {
        std::mem::swap(own, &mut self.own_batch);
        let committed = self.own_log.len() - own.total_ops() as usize;
        self.own_log[committed..].iter().map(|op| op.seq)
    }

    /// The seq, issue round and payload of the logged request at `at`,
    /// whose wave assigned it a slot in a run of `kind`.  The payload is
    /// *moved* out (a take, not a clone): the resolved prefix leaves the
    /// log with [`Self::drop_resolved`].
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(super) fn take_logged(&mut self, at: usize, kind: BatchOp) -> (u64, u64, T) {
        let entry = &mut self.own_log[at];
        #[cfg(debug_assertions)]
        assert_eq!(entry.kind, kind, "own log out of sync with batch runs");
        let value = std::mem::take(&mut entry.value);
        (entry.seq, entry.issued_round, value)
    }

    /// Removes the `n` oldest requests, resolved; anything after them was
    /// generated after their wave was sent and belongs to a later one.
    pub(super) fn drop_resolved(&mut self, n: usize) {
        self.own_log.drain(..n);
    }

    /// True while a DHT operation the node issued is unresolved (counted by
    /// the stack only: its stage-4 barrier).
    pub(super) fn dht_in_flight(&self) -> bool {
        self.outstanding_dht > 0
    }

    /// Counts a DHT operation the node issued.
    pub(super) fn dht_issued(&mut self) {
        self.outstanding_dht += 1;
    }

    /// Remembers the GET of the node's request `seq` until its reply.
    pub(super) fn note_outstanding_get(&mut self, seq: u64, get: OutstandingGet) {
        let gets = &mut self.outstanding_gets;
        let at = gets.partition_point(|&(s, _)| s < seq);
        debug_assert!(gets.get(at).is_none_or(|&(s, _)| s != seq));
        gets.insert(at, (seq, get));
    }

    /// Takes the outstanding GET a reply for `request` answers: one of the
    /// node's own, whose process is `origin`.  `None` for a request of
    /// another origin or one the node does not (or no longer) wait for.
    pub(super) fn take_outstanding_get(
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

    /// The working batch.
    #[cfg(test)]
    pub(super) fn own_batch(&self) -> &Batch {
        &self.own_batch
    }

    /// The log of unresolved requests.
    #[cfg(test)]
    pub(super) fn own_log(&self) -> &Vec<LocalOp<T>> {
        &self.own_log
    }

    /// The seqs of the GETs in flight, ascending, and the room they have.
    #[cfg(test)]
    pub(super) fn outstanding_gets(&self) -> &Vec<(u64, OutstandingGet)> {
        &self.outstanding_gets
    }
}

/// The node's reads and writes of the state above that belong to no one
/// stage: what it holds, asked by the stages, the membership handling and
/// the hosts.
impl<T: Payload> SkueueNode<T> {
    /// The request half, if the node holds one.
    pub(crate) fn requests(&self) -> Option<&Requests<T>> {
        self.waves.as_deref()?.requests.as_deref()
    }

    /// Mutable form of [`Self::requests`]; allocates nothing.
    pub(crate) fn requests_mut(&mut self) -> Option<&mut Requests<T>> {
        self.waves.as_deref_mut()?.requests.as_deref_mut()
    }

    /// Number of this node's requests still unserved (in its log, waiting
    /// for their wave's assignment) plus its GETs in flight.  An enqueue
    /// whose PUT is still routing is open but not counted here.
    pub fn open_requests(&self) -> usize {
        self.requests()
            .map_or(0, |r| r.own_log.len() + r.outstanding_gets.len())
    }

    /// The node's DHT partition, allocated with the request half on first
    /// use.
    pub(crate) fn store_mut(&mut self) -> &mut NodeStore<T> {
        &mut Requests::of(&mut self.waves, &self.cfg).store
    }

    /// Number of elements stored in this node's DHT partition.
    pub(crate) fn stored_elements(&self) -> usize {
        self.requests().map_or(0, |r| r.store.len())
    }

    /// Uncounts a resolved DHT operation the node issued (a `PutAck`, or
    /// the reply to one of its GETs): the stack's stage-4 barrier lifts
    /// once none is left.
    pub(super) fn dht_resolved(&mut self) {
        if self.cfg.is_stack() {
            let requests = Requests::of(&mut self.waves, &self.cfg);
            requests.outstanding_dht = requests.outstanding_dht.saturating_sub(1);
        }
    }

    /// The node's waves in flight (none while it holds no wave half).
    pub(crate) fn waves_in_flight(&self) -> u32 {
        self.waves.as_deref().map_or(0, |w| w.memo.in_flight())
    }

    /// True when a sub-batch from any peer is queued.
    pub(super) fn has_child_batches(&self) -> bool {
        self.waves
            .as_deref()
            .is_some_and(|w| !w.child_batches.0.is_empty())
    }

    /// True when a sub-batch from `child` is queued.
    pub(super) fn has_batch_from(&self, child: &NodeId) -> bool {
        let queued = |w: &Waves<T>| w.child_batches.0.iter().any(|(n, _, _)| n == child);
        self.waves.as_deref().is_some_and(queued)
    }

    /// Queues a sub-batch from `child` under its wave `epoch` for the next
    /// wave this node opens.
    pub(crate) fn queue_child_batch(&mut self, child: NodeId, epoch: u64, batch: Batch) {
        self.lanes.note(LaneKind::Child, child);
        Waves::of(&mut self.waves)
            .child_batches
            .push(child, epoch, batch);
    }

    /// The membership bookkeeping, if any is outstanding.
    pub(crate) fn membership(&self) -> Option<&Membership<T>> {
        self.cold.as_deref()?.membership.as_ref()
    }

    /// The membership bookkeeping, allocated on first use (dropped again by
    /// [`Cold::release_idle`] once nothing is outstanding).
    pub(crate) fn membership_mut(&mut self) -> &mut Membership<T> {
        Cold::of(&mut self.cold)
            .membership
            .get_or_insert_with(Membership::default)
    }

    /// The node a draining node forwards to.
    pub(crate) fn absorber(&self) -> Option<NodeId> {
        self.cold.as_deref()?.absorber
    }

    /// The anchor state, if this node is the anchor.
    pub(crate) fn anchor_state(&self) -> Option<&AnchorState> {
        self.cold.as_deref()?.anchor.as_deref()
    }

    /// Becomes the anchor with the given state (initial setup or hand-off).
    pub(crate) fn adopt_anchor(&mut self, state: AnchorState) {
        Cold::of(&mut self.cold).anchor = Some(Box::new(state));
    }

    /// Gives the anchor state up (hand-off), if this node holds it; the
    /// cold box goes at the end of the step if nothing else is in it.
    pub(crate) fn take_anchor(&mut self) -> Option<AnchorState> {
        let anchor = self.cold.as_deref_mut()?.anchor.take();
        anchor.map(|state| *state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// What the cold box costs where it exists: the membership bookkeeping
    /// inline, the anchor state and the combining behind a pointer each.
    #[test]
    fn a_cold_box_is_168_bytes() {
        assert!(size_of::<Cold<u64>>() <= 168);
    }

    /// What a busy node's two halves of work cost where they exist: a node
    /// that only relays sub-batches holds the wave half, an issuing node
    /// both.  The wave half's memo is one ring of bytes and a wave count.
    #[test]
    fn a_wave_half_is_112_bytes_and_a_request_half_168() {
        assert!(size_of::<Waves<u64>>() <= 112);
        assert!(size_of::<Requests<u64>>() <= 168);
    }

    /// What a request costs while it waits in its node's log: its seq, its
    /// payload and its issue round in release builds (debug builds add the
    /// kind their log check reads).
    #[test]
    fn a_logged_request_is_24_bytes() {
        let budget = if cfg!(debug_assertions) { 32 } else { 24 };
        assert!(size_of::<LocalOp<u64>>() <= budget);
    }

    /// The outstanding GETs stay sorted by seq however they are noted, and
    /// a GET is found again only under the node's own origin.
    #[test]
    fn outstanding_gets_stay_sorted_by_seq() {
        let (mut slot, cfg) = (None, ProtocolConfig::queue());
        let requests = Requests::<u64>::of(&mut slot, &cfg);
        let me = ProcessId(3);
        let get = |order| OutstandingGet::new(0, order, 1);
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
}
