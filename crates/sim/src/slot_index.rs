//! The host's id→slot index: where each node id it holds lives.
//!
//! A host of lanes (a [`crate::Simulation`], or a [`crate::Lane`] hosted on
//! its own) keeps one index for all its lanes, not one per lane: an entry
//! is one `u32` per id, `(slot << 8) | lane`, and [`NOT_LOCAL`] for an id
//! the host does not hold.  So the index is as long as the host's highest
//! id (the simulation's ids are dense; a daemon's follow its processes'
//! ids), whatever the lane count.

use crate::ids::NodeId;

/// Entry of an id the host does not hold.
const NOT_LOCAL: u32 = u32::MAX;

/// Low bits of an entry that name its lane.
const LANE_BITS: u32 = 8;

/// The most lanes one index tells apart.
pub(crate) const MAX_LANES: usize = 1 << LANE_BITS;

/// An entry's lane bits.
const LANE_MASK: u32 = MAX_LANES as u32 - 1;

/// The first slot an entry cannot hold: the top slot of the last lane
/// would read as [`NOT_LOCAL`].
const SLOT_LIMIT: usize = (1 << (u32::BITS - LANE_BITS)) - 1;

/// Room an id beyond the highest reserves past the gap before it: its own
/// entry and those of the ids a host adds with it (a daemon adds a joining
/// process's three nodes in a row), so that the second of them does not
/// double the index.  An index grown by doubling keeps that growth up to
/// twice its capacity; a farther id gets exactly this room.
const JUMP_ROOM: usize = 16;

/// Node id → `(lane, slot)` of every node a host holds, one `u32` per id.
#[derive(Default)]
pub(crate) struct SlotIndex {
    entries: Vec<u32>,
}

impl SlotIndex {
    /// Room for `ids` more ids (a capacity hint only).
    pub(crate) fn reserve(&mut self, ids: usize) {
        self.entries.reserve(ids);
    }

    /// One past the highest id held: the simulation's node count, as its
    /// ids are dense.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Records node `id` at `slot` of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics when `slot` does not fit an entry's 24 bits.
    pub(crate) fn insert(&mut self, id: NodeId, lane: u32, slot: usize) {
        debug_assert!((lane as usize) < MAX_LANES);
        assert!(slot < SLOT_LIMIT, "a lane holds at most {SLOT_LIMIT} nodes");
        let entry = (slot as u32) << LANE_BITS | lane;
        match self.entries.get_mut(id.index()) {
            Some(held) => *held = entry,
            None => {
                // The simulation's ids are dense: they push into room
                // reserved up front.  A daemon's far id reserves its gap
                // first, so the fill does not double the index.
                let gap = id.index() - self.entries.len();
                if gap > 0 {
                    self.entries.reserve(gap + JUMP_ROOM);
                    self.entries.resize(id.index(), NOT_LOCAL);
                }
                self.entries.push(entry);
            }
        }
    }

    /// The lane holding node `id`, if the host holds it.
    #[inline]
    pub(crate) fn lane_of(&self, id: NodeId) -> Option<usize> {
        match self.entries.get(id.index()) {
            Some(&entry) if entry != NOT_LOCAL => Some((entry & LANE_MASK) as usize),
            _ => None,
        }
    }

    /// Node `id`'s slot, if lane `lane` holds it.
    #[inline]
    pub(crate) fn slot_in(&self, id: NodeId, lane: u32) -> Option<usize> {
        match self.entries.get(id.index()) {
            Some(&entry) if entry != NOT_LOCAL && entry & LANE_MASK == lane => {
                Some((entry >> LANE_BITS) as usize)
            }
            _ => None,
        }
    }

    /// The slot of a node its lane holds, unchecked: a delivered message's
    /// destination was checked when the message was sent.
    #[inline]
    pub(crate) fn slot(&self, id: NodeId) -> usize {
        (self.entries[id.index()] >> LANE_BITS) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An id resolves in its own lane only, the last lane included, and an
    /// id nobody holds — below the highest or beyond it — in none.
    #[test]
    fn an_id_resolves_in_its_own_lane_only() {
        let mut index = SlotIndex::default();
        index.insert(NodeId(5), 255, 7);
        index.insert(NodeId(2), 0, 1);
        assert_eq!(index.len(), 6);
        assert_eq!(index.lane_of(NodeId(5)), Some(255));
        assert_eq!(index.slot_in(NodeId(5), 255), Some(7));
        assert_eq!(index.slot_in(NodeId(5), 0), None);
        assert_eq!(index.slot(NodeId(5)), 7);
        assert_eq!(index.slot_in(NodeId(2), 0), Some(1));
        for unknown in [NodeId(3), NodeId(6)] {
            assert_eq!(index.lane_of(unknown), None);
            assert!((0..MAX_LANES as u32).all(|lane| index.slot_in(unknown, lane).is_none()));
        }
    }

    /// An id far beyond the highest grows the index to the ids up to it,
    /// not twice that, and the ids added right after it fit in that room.
    #[test]
    fn a_far_id_grows_the_index_to_its_size_only() {
        let mut index = SlotIndex::default();
        for id in 0..9 {
            index.insert(NodeId(id), 0, id as usize);
        }
        let far = 3 * (1 << 20) - 1;
        index.insert(NodeId(far), 0, 9);
        assert_eq!(index.len(), far as usize + 1);
        let capacity = index.entries.capacity();
        assert!(
            capacity < 2 * far as usize,
            "capacity {capacity} for id {far}"
        );
        for (slot, id) in (far + 1..far + 3).enumerate() {
            index.insert(NodeId(id), 0, 10 + slot);
        }
        assert_eq!(index.entries.capacity(), capacity);
    }

    #[test]
    #[should_panic(expected = "a lane holds at most 16777215 nodes")]
    fn a_slot_beyond_24_bits_is_refused() {
        SlotIndex::default().insert(NodeId(0), 255, SLOT_LIMIT);
    }
}
