//! A node's wave memo (see [`WaveMemo`]): how each of its waves in flight
//! was combined, which is all Stage 3 reads to split the wave's
//! assignments among its sources.  One ring of bytes, oldest wave at the
//! front; a wave is written at the back when Stage 1 combines it and read
//! off the front when Stage 3 serves it.  Every number in it is an
//! unsigned LEB128 varint (7 bits a byte, low group first, the top bit set
//! on every byte but the last), so a run length below 128 takes one byte.
//!
//! Layout of one wave in the ring:
//!
//! | varints | holds |
//! |---|---|
//! | per source: 1 | its tag: [`OWN_SOURCE`] for the node's own batch, a child's rank in the node's child lane plus [`FIRST_CHILD`] |
//! | 1 | its number of runs, `r` |
//! | 1, a child only | the child's wave epoch to echo back |
//! | `r` | its run lengths |
//! | then 1 byte | [`END_OF_WAVE`] |
//!
//! Beside the ring, one `u32` counts the waves in flight.

use crate::batch::Batch;
#[cfg(test)]
use skueue_sim::ids::NodeId;
use std::collections::VecDeque;

/// Where a sub-batch of a combined wave came from: the per-wave source list
/// the [`WaveMemo`] ring replaced, kept for the reference model its property
/// test compares against.
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

/// The tag that ends a wave's sources.
const END_OF_WAVE: u64 = 0;
/// The tag of the node's own batch, which has no epoch to echo.
const OWN_SOURCE: u64 = 1;
/// The tag of the child of lane rank 0; rank `k` is tagged `FIRST_CHILD + k`.
const FIRST_CHILD: u64 = 2;

/// The memorised combination order of every in-flight wave, oldest wave
/// first, as one ring of varint bytes.  A wave is, per source, a tag (the
/// child's rank in the node's child lane — [`LaneOrder`](super::LaneOrder)
/// only appends, so a rank names one peer for the node's life — or the
/// node's own batch), its number of runs, a child's wave epoch to echo back
/// and its run lengths — all of a sub-batch the Stage 3 decomposition
/// reads — and then an end byte.  Waves resolve strictly front-first, so
/// the ring is read off its front and written at its back, one allocation
/// for any number of waves, and nothing once written is changed in place.
#[derive(Debug, Clone, Default)]
pub(crate) struct WaveMemo {
    bytes: VecDeque<u8>,
    /// The waves in flight: at most
    /// [`PIPELINE_DEPTH`](crate::config::PIPELINE_DEPTH) (one for a stack),
    /// the youngest under epoch
    /// [`SkueueNode::next_epoch`](super::SkueueNode::next_epoch).  Its epoch
    /// follows from its place (a wave is opened only with a new epoch and
    /// served only at the front), and every wave in flight shares the
    /// parent in [`Waves::wave_parent`](super::Waves::wave_parent).  The
    /// anchor serves its waves as it opens them and never counts one here.
    waves: u32,
}

impl WaveMemo {
    /// The waves in flight.
    pub(super) fn in_flight(&self) -> u32 {
        self.waves
    }

    /// True when no wave is in flight and no byte is memorised.
    pub(super) fn is_empty(&self) -> bool {
        self.waves == 0 && self.bytes.is_empty()
    }

    /// Memorises one sub-batch of the wave being combined, at the back:
    /// `child` is the sender's rank in the child lane, `None` for the
    /// node's own batch (whose `epoch` is not kept).
    pub(super) fn remember(&mut self, child: Option<usize>, epoch: u64, batch: &Batch) {
        let bytes = &mut self.bytes;
        let tag = child.map_or(OWN_SOURCE, |rank| FIRST_CHILD + rank as u64);
        push_varint(bytes, tag);
        push_varint(bytes, batch.num_runs() as u64);
        if child.is_some() {
            push_varint(bytes, epoch);
        }
        for &len in batch.runs() {
            push_varint(bytes, len);
        }
    }

    /// Ends the wave being combined: every source of it is memorised.
    pub(super) fn close(&mut self) {
        self.bytes.push_back(END_OF_WAVE as u8);
    }

    /// Counts the wave just combined as in flight towards the parent (the
    /// anchor serves its own at once and counts none) and returns the
    /// waves now in flight.
    pub(super) fn forward(&mut self) -> u32 {
        self.waves += 1;
        self.waves
    }

    /// Uncounts the oldest wave in flight, whose serve arrived; its bytes
    /// are read off the front as it is served.
    pub(super) fn serve_front(&mut self) {
        self.waves = self.waves.checked_sub(1).expect("caller checked the front");
    }

    /// The front source of the wave being served — its child rank (`None`
    /// for the node's own batch), run count and epoch (0 for the own), its
    /// run lengths following — or `None`, with the wave's end byte read,
    /// once every source is.
    pub(super) fn pop_source(&mut self) -> Option<(Option<usize>, usize, u64)> {
        let tag = self.pop();
        if tag == END_OF_WAVE {
            return None;
        }
        let num_runs = self.pop() as usize;
        let (child, epoch) = match tag {
            OWN_SOURCE => (None, 0),
            tag => (Some((tag - FIRST_CHILD) as usize), self.pop()),
        };
        debug_assert!(
            num_runs <= self.bytes.len(),
            "a source's run lengths follow it"
        );
        Some((child, num_runs, epoch))
    }

    /// The front number, which a served wave still has memorised: the
    /// front run length of the source being served.
    pub(super) fn pop(&mut self) -> u64 {
        let (mut value, mut shift) = (0, 0);
        loop {
            let byte = self
                .bytes
                .pop_front()
                .expect("a wave's sources stay memorised until it is served");
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return value;
            }
            shift += 7;
        }
    }

    /// The next `n` run lengths, off the front, each decoded as it is read.
    pub(super) fn take_runs(&mut self, n: usize) -> impl Iterator<Item = u64> + '_ {
        (0..n).map(|_| self.pop())
    }

    /// The ring's bytes.
    #[cfg(test)]
    pub(super) fn bytes(&self) -> &VecDeque<u8> {
        &self.bytes
    }
}

/// Appends `value` to `bytes` as an unsigned LEB128 varint.
fn push_varint(bytes: &mut VecDeque<u8>, mut value: u64) {
    while value >= 0x80 {
        bytes.push_back(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push_back(value as u8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::{AnchorState, RunAssignment};
    use crate::batch::{BatchOp, FirstRun};
    use crate::config::Mode;
    use crate::interval::decompose;
    use crate::join_leave::Lifecycle;
    use crate::messages::{AbsorbPayload, SkueueMsg};
    use crate::node::tests::{child_batch, node_under_test, Serve};
    use crate::node::work::ChildBatches;
    use crate::node::{LaneKind, LaneOrder, SkueueNode, WAVE_CADENCE};
    use proptest::prelude::*;
    use skueue_overlay::{node_of, NeighborInfo, VirtualId};
    use skueue_sim::actor::{Actor, Context};
    use skueue_sim::ids::{ProcessId, RequestId};

    /// Reference for the [`WaveMemo`] ring: the bookkeeping it replaced, one
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
                .pop_oldest(&children, |rank, epoch, batch| {
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

        /// The bytes a [`WaveMemo`] holding the waves in flight has: per
        /// wave an end byte, per source with runs (or from a child) its
        /// tag, run count, a child's epoch and its run lengths, each a
        /// varint.
        fn memo_bytes(&self) -> usize {
            let children = self.children.of(LaneKind::Child);
            let source_bytes = |source: &BatchSource| {
                let runs = source.batch().runs();
                let (tag, epoch) = match source {
                    BatchSource::Own(_) if runs.is_empty() => return 0,
                    BatchSource::Own(_) => (OWN_SOURCE, None),
                    BatchSource::Child(child, epoch, _) => {
                        let rank = children.iter().position(|c| c == child).unwrap();
                        (FIRST_CHILD + rank as u64, Some(*epoch))
                    }
                };
                let head = [tag, runs.len() as u64].into_iter().chain(epoch);
                head.chain(runs.iter().copied())
                    .map(varint_len)
                    .sum::<usize>()
            };
            let wave_bytes = |(_, sources): &(u64, Vec<BatchSource>)| {
                1 + sources.iter().map(source_bytes).sum::<usize>()
            };
            self.slots.iter().map(wave_bytes).sum()
        }
    }

    /// The bytes `value` takes as a varint.
    fn varint_len(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()).div_ceil(7).max(1) as usize
    }

    /// Run lengths and epochs at the varint's edges come back exactly: one
    /// byte up to 127, two from 128, five for `u32::MAX`, ten for
    /// `u64::MAX`.
    #[test]
    fn varint_edges_round_trip() {
        let edges = [0, 127, 128, u64::from(u32::MAX), u64::MAX];
        let lens = [1, 1, 2, 5, 10];
        for (value, len) in edges.into_iter().zip(lens) {
            assert_eq!(varint_len(value), len);
        }
        let runs = &edges[..4];
        let batch = Batch::from_parts(FirstRun::Enqueues, runs.to_vec(), 0, 0);
        let mut memo = WaveMemo::default();
        for epoch in edges {
            memo.remember(Some(0), epoch, &batch);
        }
        memo.remember(None, 0, &batch);
        memo.close();
        // Six sources of a tag byte, a count byte and the runs, five
        // epochs and the end byte.
        let runs_bytes: usize = lens[..4].iter().sum();
        let epoch_bytes: usize = lens.iter().sum();
        assert_eq!(memo.bytes().len(), 6 * (2 + runs_bytes) + epoch_bytes + 1);
        for epoch in edges {
            assert_eq!(memo.pop_source(), Some((Some(0), 4, epoch)));
            assert!(memo.take_runs(4).eq(runs.iter().copied()));
        }
        assert_eq!(memo.pop_source(), Some((None, 4, 0)));
        assert!(memo.take_runs(4).eq(runs.iter().copied()));
        assert_eq!(memo.pop_source(), None);
        assert!(memo.is_empty());
    }

    /// Waves the node has opened: as a tree node, its epoch; as the anchor
    /// serving itself, its anchor's.
    fn waves_opened(node: &SkueueNode<u64>) -> u64 {
        node.next_epoch + node.anchor_state().map_or(0, |a| a.epoch)
    }

    proptest! {
        /// Whatever the interleaving of own requests, child sub-batches (in
        /// epoch order, or held back and handed over late by an absorbed
        /// leaver; of one to three runs, or of none), wave openings (own
        /// operations included, or a suspended node's drain waves without
        /// them) and serves (in and out of epoch order), the memo's ring sends
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
                // The ring holds exactly the in-flight waves' bytes.
                let bytes = node.waves.as_deref().map_or(0, |w| w.wave_memo().bytes().len());
                prop_assert_eq!(bytes, model.memo_bytes());
                prop_assert_eq!(node.waves_in_flight() as usize, model.slots.len());
            }
            prop_assert!(unserved.is_empty() && node.waves_in_flight() as usize == 0);
            prop_assert_eq!(served, model.served);
        }
    }
}
