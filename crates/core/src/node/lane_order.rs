//! A node's lane order: the first-contact order of the peers it routes to,
//! replies to and combines sub-batches from (see [`LaneOrder`]).  Stage 4
//! sends a visit's `DhtBatch`es and `DhtReplyBatch`es in it and Stage 1
//! combines a wave's sub-batches in it, so it lives as long as the node.
//!
//! Layout, 16 B inline either way:
//!
//! | form | word or slot | holds |
//! |---|---|---|
//! | `Inline(u64)` | bits 0–19, 20–39, 40–59 | up to three peer ids, routes, then replies, then children; the packed vacant id (all ones) where there is none |
//! | | bits 60–61, 62–63 | the end of the route list, the end of the reply list |
//! | `Spilled(LaneSlice)` | slot 0 | the end of the route list (low `u32`) and of the reply list (high `u32`) |
//! | | slots 1… | the routes, the replies and the children back to back, then [`VACANT`] room: 4, 8, 16, … peers |
//!
//! An order is inline while it has at most three peers whose ids pack
//! (below 2²⁰ − 1), and spilled for good once it meets a fourth or one
//! that does not pack.

use skueue_sim::ids::NodeId;

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

/// All a node keeps of its coalescing between visits: every peer it has
/// routed to, replied to or taken a sub-batch from, in first-contact order
/// per [`LaneKind`].  That order is the send order of a visit's
/// `DhtBatch`es and `DhtReplyBatch`es and the combination order of a wave's
/// sub-batches, so it lives as long as the node; what travels in those
/// lanes does not (a visit's batches are staged in its
/// [`Context`](skueue_sim::actor::Context), queued sub-batches sit in
/// [`Waves`](super::Waves)).  16 B either way: most nodes of a large system
/// meet one to three peers, which pack into one word; a fourth peer, or one
/// whose id does not pack, moves the order to a [`LaneSlice`].
#[derive(Debug, Clone)]
pub(crate) enum LaneOrder {
    /// Up to three peers, routes first, as [`Packed`] ids at bits 0, 20 and
    /// 40, then the ends of the route and the reply list at bits 60 and 62.
    Inline(u64),
    /// Four peers or more, or one with an id of [`Packed::VACANT_ID`] or
    /// above.  Never packed again: a node only meets more peers.
    Spilled(LaneSlice),
}

impl Default for LaneOrder {
    fn default() -> Self {
        LaneOrder::Inline(Packed::EMPTY)
    }
}

/// The peers of one [`LaneKind`] in first-contact order: a copy of the
/// inline ones, or the spilled slice.
pub(crate) enum Peers<'a> {
    /// The first `.1` ids are the peers.
    Inline([NodeId; Packed::PEERS], usize),
    Spilled(&'a [NodeId]),
}

impl std::ops::Deref for Peers<'_> {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match self {
            Peers::Inline(ids, len) => &ids[..*len],
            Peers::Spilled(peers) => peers,
        }
    }
}

impl LaneOrder {
    /// The peers of `kind`, in first-contact order, and where they start
    /// among all the peers.
    fn locate(&self, kind: LaneKind) -> (Peers<'_>, usize) {
        match self {
            LaneOrder::Inline(word) => {
                let packed = Packed::unpack(*word);
                let range = packed.range(kind);
                let mut ids = packed.ids;
                ids.rotate_left(range.start);
                (Peers::Inline(ids, range.len()), range.start)
            }
            LaneOrder::Spilled(slice) => {
                let range = slice.range(kind);
                (Peers::Spilled(&slice.peers()[range.clone()]), range.start)
            }
        }
    }

    /// The peers of `kind`, in first-contact order.
    pub(crate) fn of(&self, kind: LaneKind) -> Peers<'_> {
        self.locate(kind).0
    }

    /// Where `peer` stands among all the peers, if it is one of `kind`:
    /// routes rank before replies, each in first-contact order.
    pub(crate) fn rank(&self, kind: LaneKind, peer: NodeId) -> Option<usize> {
        let (peers, start) = self.locate(kind);
        Some(start + peers.iter().position(|&p| p == peer)?)
    }

    /// Appends `peer` to the peers of `kind` unless it is one already.
    pub(crate) fn note(&mut self, kind: LaneKind, peer: NodeId) {
        debug_assert_ne!(peer, VACANT, "no node has the vacant id");
        let word = match self {
            LaneOrder::Inline(word) => word,
            LaneOrder::Spilled(slice) => return slice.note(kind, peer),
        };
        let mut packed = Packed::unpack(*word);
        let range = packed.range(kind);
        if packed.ids[range.clone()].contains(&peer) {
            return;
        }
        let len = packed.len();
        if len == Packed::PEERS || peer.0 >= Packed::VACANT_ID {
            self.spill(packed);
            return self.note(kind, peer);
        }
        packed.ids[range.end..=len].rotate_right(1);
        packed.ids[range.end] = peer;
        match kind {
            LaneKind::Route => {
                packed.routes += 1;
                packed.replies += 1;
            }
            LaneKind::Reply => packed.replies += 1,
            LaneKind::Child => {}
        }
        *word = packed.pack();
    }

    /// Moves the `packed` peers to a slice, noting them again in order,
    /// routes, replies, then children, so each keeps its rank.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, packed: Packed) {
        let mut slice = LaneSlice::default();
        for kind in [LaneKind::Route, LaneKind::Reply, LaneKind::Child] {
            for &peer in &packed.ids[packed.range(kind)] {
                slice.note(kind, peer);
            }
        }
        *self = LaneOrder::Spilled(slice);
    }

    /// The length of the spilled slice, header word included; `None` while
    /// the order is inline.
    #[cfg(test)]
    pub(crate) fn spilled_slots(&self) -> Option<usize> {
        match self {
            LaneOrder::Inline(_) => None,
            LaneOrder::Spilled(slice) => Some(slice.slots.len()),
        }
    }
}

/// An inline lane order unpacked: its three ids, [`VACANT`] where there is
/// no peer, and the ends of its route and reply lists.
#[derive(Debug, Clone, Copy)]
struct Packed {
    ids: [NodeId; Packed::PEERS],
    routes: usize,
    replies: usize,
}

impl Packed {
    /// How many peers pack.
    const PEERS: usize = 3;
    /// Bits per packed id.
    const ID_BITS: u32 = 20;
    /// The packed vacant id, all ones: every id that packs is below it.
    const VACANT_ID: u64 = (1 << Self::ID_BITS) - 1;
    /// No peers: every id vacant, both ends 0.
    const EMPTY: u64 = (1 << (Self::PEERS as u32 * Self::ID_BITS)) - 1;
    /// Where the two 2-bit ends start.
    const ENDS_SHIFT: u32 = Self::PEERS as u32 * Self::ID_BITS;

    fn unpack(word: u64) -> Self {
        let id = |i: usize| match word >> (i as u32 * Self::ID_BITS) & Self::VACANT_ID {
            Self::VACANT_ID => VACANT,
            id => NodeId(id),
        };
        let ends = (word >> Self::ENDS_SHIFT) as usize;
        Packed {
            ids: std::array::from_fn(id),
            routes: ends & 3,
            replies: ends >> 2,
        }
    }

    fn pack(&self) -> u64 {
        let ids = self
            .ids
            .iter()
            .enumerate()
            .fold(0, |word, (i, &NodeId(id))| {
                word | id.min(Self::VACANT_ID) << (i as u32 * Self::ID_BITS)
            });
        ids | ((self.routes | self.replies << 2) as u64) << Self::ENDS_SHIFT
    }

    /// How many ids are peers: they fill the ids from the front.
    fn len(&self) -> usize {
        self.ids.iter().take_while(|&&p| p != VACANT).count()
    }

    fn range(&self, kind: LaneKind) -> std::ops::Range<usize> {
        match kind {
            LaneKind::Route => 0..self.routes,
            LaneKind::Reply => self.routes..self.replies,
            LaneKind::Child => self.replies..self.len(),
        }
    }
}

/// A spilled lane order: one boxed slice, 16 B inline, a header word
/// holding the ends of the route and reply lists (two `u32`s), then the
/// three lists back to back, routes first, then [`VACANT`] room.  The room
/// doubles when it is full (4, 8, 16, … peers), as the `Vec` it replaced
/// did, so a first contact allocates only where that one did.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneSlice {
    /// `[ends, peers…, VACANT…]`; empty only while an order spills.
    slots: Box<[NodeId]>,
}

/// What fills a lane order's room beyond its peers: `3p + kind` for no
/// process the id rule can number.
const VACANT: NodeId = NodeId(u64::MAX);

impl LaneSlice {
    /// Room for peers when the first one is noted.
    const FIRST_ROOM: usize = 4;

    /// The peers, routes first, then their room.
    fn peers(&self) -> &[NodeId] {
        self.slots.get(1..).unwrap_or_default()
    }

    /// The ends of the route and the reply list.
    fn ends(&self) -> (usize, usize) {
        let Some(&NodeId(ends)) = self.slots.first() else {
            return (0, 0);
        };
        ((ends as u32) as usize, (ends >> 32) as usize)
    }

    /// The end of the peers: the child list runs from the end of the
    /// replies to the first vacant slot.  Searched only for the child list,
    /// so sending in route and reply order reads the header alone.
    fn len(&self, replies: usize) -> usize {
        replies + self.peers()[replies..].partition_point(|&p| p != VACANT)
    }

    fn range(&self, kind: LaneKind) -> std::ops::Range<usize> {
        let (routes, replies) = self.ends();
        match kind {
            LaneKind::Route => 0..routes,
            LaneKind::Reply => routes..replies,
            LaneKind::Child => replies..self.len(replies),
        }
    }

    /// Appends `peer` to the peers of `kind` unless it is one already.
    fn note(&mut self, kind: LaneKind, peer: NodeId) {
        let range = self.range(kind);
        if self.peers()[range.clone()].contains(&peer) {
            return;
        }
        let (routes, replies) = self.ends();
        let len = match kind {
            LaneKind::Child => range.end,
            _ => self.len(replies),
        };
        if len == self.peers().len() {
            self.grow();
        }
        let peers = &mut self.slots[1..];
        peers.copy_within(range.end..len, range.end + 1);
        peers[range.end] = peer;
        let (routes, replies) = match kind {
            LaneKind::Route => (routes + 1, replies + 1),
            LaneKind::Reply => (routes, replies + 1),
            LaneKind::Child => (routes, replies),
        };
        let end = |end: usize| {
            u32::try_from(end).expect("a node meets fewer than 2^32 routes and replies")
        };
        self.slots[0] = NodeId(u64::from(end(replies)) << 32 | u64::from(end(routes)));
    }

    /// Doubles the room for peers, or makes the first: one allocator call
    /// where the `Vec`'s growth made one.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let room = self.peers().len();
        let mut slots = std::mem::take(&mut self.slots).into_vec();
        let grown = if room == 0 {
            slots.reserve_exact(1 + Self::FIRST_ROOM);
            slots.push(NodeId(0));
            Self::FIRST_ROOM
        } else {
            slots.reserve_exact(room);
            2 * room
        };
        slots.resize(1 + grown, VACANT);
        self.slots = slots.into_boxed_slice();
    }
}

/// The lane order the boxed slice replaced, one `Vec` and two `u32`
/// segment ends: the reference its property test compares against.
#[cfg(test)]
#[derive(Debug, Default)]
struct VecLaneOrder {
    peers: Vec<NodeId>,
    routes: u32,
    replies: u32,
}

#[cfg(test)]
impl VecLaneOrder {
    fn range(&self, kind: LaneKind) -> std::ops::Range<usize> {
        let (routes, replies) = (self.routes as usize, self.replies as usize);
        match kind {
            LaneKind::Route => 0..routes,
            LaneKind::Reply => routes..replies,
            LaneKind::Child => replies..self.peers.len(),
        }
    }

    fn of(&self, kind: LaneKind) -> &[NodeId] {
        &self.peers[self.range(kind)]
    }

    fn rank(&self, kind: LaneKind, peer: NodeId) -> Option<usize> {
        let range = self.range(kind);
        let at = self.peers[range.clone()].iter().position(|&p| p == peer)?;
        Some(range.start + at)
    }

    fn note(&mut self, kind: LaneKind, peer: NodeId) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the sequence of first and repeated contacts over the
        /// three kinds, across several doublings of its room, the lane
        /// order answers `of` and `rank` as the `Vec` with two segment ends
        /// it replaced did, after every step.  It is inline exactly while
        /// it has at most three peers, all with ids that pack; spilled,
        /// its room is the first room doubled until the peers fit.  One
        /// draw in sixteen is an id at the edge of the packing: the
        /// largest that packs, the packed vacant id, one in the `u32`
        /// range, or the largest id a node has.
        #[test]
        fn prop_lane_order_matches_the_vec_it_replaced(
            notes in proptest::collection::vec((0u32..3, 0u32..64, any::<u64>()), 1..400),
            pool in 1u64..48,
        ) {
            let kinds = [LaneKind::Route, LaneKind::Reply, LaneKind::Child];
            let edges = [Packed::VACANT_ID - 1, Packed::VACANT_ID, u64::MAX - 1].map(NodeId);
            let mut lanes = LaneOrder::default();
            let mut model = VecLaneOrder::default();
            for (kind, pick, draw) in notes {
                let peer = match pick {
                    0..60 => NodeId(draw % pool),
                    63 => NodeId(u64::from(draw as u32) | 1 << 20),
                    edge => edges[edge as usize - 60],
                };
                let kind = kinds[kind as usize];
                lanes.note(kind, peer);
                model.note(kind, peer);
                let met = model.peers.iter().copied().filter(|p| p.0 >= pool);
                let candidates: Vec<NodeId> = (0..pool).map(NodeId).chain(edges).chain(met).collect();
                for kind in kinds {
                    prop_assert_eq!(&*lanes.of(kind), model.of(kind));
                    for &p in &candidates {
                        prop_assert_eq!(lanes.rank(kind, p), model.rank(kind, p));
                    }
                }
                let packs = model.peers.len() <= Packed::PEERS
                    && model.peers.iter().all(|p| p.0 < Packed::VACANT_ID);
                prop_assert_eq!(matches!(lanes, LaneOrder::Inline(_)), packs);
                if let LaneOrder::Spilled(slice) = &lanes {
                    let (room, len) = (slice.peers().len(), model.peers.len());
                    let mut first_fit = LaneSlice::FIRST_ROOM;
                    while first_fit < len {
                        first_fit *= 2;
                    }
                    prop_assert_eq!(room, first_fit);
                }
            }
        }
    }
}
