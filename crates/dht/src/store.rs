//! Per-node DHT storage state machine.
//!
//! [`NodeStore`] is the piece of state every virtual node keeps for the DHT:
//! the entries it is responsible for, and the `GET` requests that arrived
//! before their matching `PUT` and are parked until it shows up.  All methods
//! are pure local state transitions — message transport is the protocol's
//! job — which makes the storage behaviour easy to unit- and property-test
//! in isolation.

use crate::element::{Payload, StoredEntry};
use skueue_overlay::Label;
use skueue_sim::ids::{NodeId, RequestId};
use std::collections::VecDeque;
use std::mem::size_of;

/// A `GET` that is waiting at the responsible node for its `PUT` to arrive
/// ("each GET request waits at the node responsible for the position k until
/// the corresponding PUT request has arrived").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingGet {
    /// The dequeue/pop request this GET serves.
    pub request: RequestId,
    /// The node that issued the GET and expects the element back.
    pub requester: NodeId,
    /// Maximum admissible ticket (stack variant); `u64::MAX` for the queue.
    pub max_ticket: u64,
}

/// Result of applying a `GET` to the local store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetOutcome<T = u64> {
    /// The element was present and has been removed; return it to the
    /// requester.
    Found(StoredEntry<T>),
    /// The matching `PUT` has not arrived yet; the GET is parked.
    Parked,
}

/// A satisfied pending GET: the parked request plus the entry that satisfied
/// it (produced when a later `PUT` arrives).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatisfiedGet<T = u64> {
    /// The parked GET.
    pub get: PendingGet,
    /// The entry handed to it.
    pub entry: StoredEntry<T>,
}

/// DHT state of one virtual node: two flat deques.  Entries are sorted by
/// `(position, ticket)`, entries with an equal pair in arrival order; parked
/// GETs are sorted by position, FIFO within a position.  Positions arrive
/// and leave roughly in order (a queue's GETs take the oldest positions, a
/// stack's the newest), so nearly every insertion and removal is at an end
/// of its deque.  Both deques grow from room for one item (`reserve_one`),
/// where the standard library's first step is four.
#[derive(Debug, Clone)]
pub struct NodeStore<T = u64> {
    entries: VecDeque<StoredEntry<T>>,
    pending: VecDeque<(u64, PendingGet)>,
}

impl<T> Default for NodeStore<T> {
    fn default() -> Self {
        NodeStore {
            entries: VecDeque::new(),
            pending: VecDeque::new(),
        }
    }
}

/// Makes room for one more item: a full deque doubles, an empty one gets
/// room for exactly one.
fn reserve_one<E>(deque: &mut VecDeque<E>) {
    if deque.len() == deque.capacity() {
        deque.reserve_exact(deque.len().max(1));
    }
}

/// Removes the items `moves` picks from `deque` and returns them; both
/// parts keep their order.
fn split_off_where<E>(deque: &mut VecDeque<E>, moves: impl Fn(&E) -> bool) -> Vec<E> {
    let mut moved = Vec::new();
    let mut kept = VecDeque::new();
    for item in std::mem::take(deque) {
        if moves(&item) {
            moved.push(item);
        } else {
            kept.push_back(item);
        }
    }
    *deque = kept;
    moved
}

impl<T: Payload> NodeStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        NodeStore::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when neither an entry nor a parked GET is held.
    pub fn is_vacant(&self) -> bool {
        self.entries.is_empty() && self.pending.is_empty()
    }

    /// Heap bytes the store holds: the capacity of both deques times their
    /// element sizes.
    pub fn allocated_bytes(&self) -> usize {
        self.entries.capacity() * size_of::<StoredEntry<T>>()
            + self.pending.capacity() * size_of::<(u64, PendingGet)>()
    }

    /// Number of parked GETs.
    #[cfg(test)]
    pub(crate) fn pending_gets(&self) -> usize {
        self.pending.len()
    }

    /// Applies a `PUT`: stores the entry, or hands it to the one parked GET
    /// it satisfies, which is returned.  An entry is one element, so it
    /// satisfies at most one GET and applying it needs no sink vector.
    ///
    /// For the queue each position holds at most one element and at most the
    /// parked GETs for exactly that position match.  For the stack the entry
    /// satisfies the *oldest* parked GET whose `max_ticket` admits it.
    pub fn put_into(&mut self, entry: StoredEntry<T>) -> Option<SatisfiedGet<T>> {
        let position = entry.position;
        // Check parked GETs first: the new entry may be consumed immediately.
        let first = self.pending.partition_point(|&(p, _)| p < position);
        let waiter = self
            .pending
            .range(first..)
            .take_while(|&&(p, _)| p == position)
            .position(|(_, g)| entry.ticket <= g.max_ticket);
        if let Some(idx) = waiter {
            let (_, get) = self.pending.remove(first + idx).expect("found above");
            return Some(SatisfiedGet { get, entry });
        }
        // After every entry with the same position and ticket.
        let key = (position, entry.ticket);
        let at = self
            .entries
            .partition_point(|e| (e.position, e.ticket) <= key);
        reserve_one(&mut self.entries);
        self.entries.insert(at, entry);
        None
    }

    /// Bulk `PUT`: applies the entries in order (one pass) and returns every
    /// parked GET they satisfy, in application order.
    pub fn put_many(
        &mut self,
        entries: impl IntoIterator<Item = StoredEntry<T>>,
    ) -> Vec<SatisfiedGet<T>> {
        entries
            .into_iter()
            .filter_map(|entry| self.put_into(entry))
            .collect()
    }

    /// Bulk `GET`: applies `(position, get)` pairs in order (one pass).
    /// Found entries are appended to `satisfied` paired with their GET;
    /// everything else is parked, exactly like per-op [`Self::get`] calls.
    pub fn get_many(
        &mut self,
        gets: impl IntoIterator<Item = (u64, PendingGet)>,
        satisfied: &mut Vec<SatisfiedGet<T>>,
    ) {
        for (position, get) in gets {
            match self.get(position, get.max_ticket, get.request, get.requester) {
                GetOutcome::Found(entry) => satisfied.push(SatisfiedGet { get, entry }),
                GetOutcome::Parked => {}
            }
        }
    }

    /// Applies a `GET` for `position` with the given ticket bound.
    ///
    /// Removes and returns the stored entry with the largest ticket
    /// `≤ max_ticket` if one exists (of equal tickets, the latest stored);
    /// otherwise parks the GET behind those already parked at `position`.
    pub fn get(
        &mut self,
        position: u64,
        max_ticket: u64,
        request: RequestId,
        requester: NodeId,
    ) -> GetOutcome<T> {
        let end = self
            .entries
            .partition_point(|e| (e.position, e.ticket) <= (position, max_ticket));
        if end > 0 && self.entries[end - 1].position == position {
            let entry = self.entries.remove(end - 1).expect("in range");
            return GetOutcome::Found(entry);
        }
        let at = self.pending.partition_point(|&(p, _)| p <= position);
        reserve_one(&mut self.pending);
        let get = PendingGet {
            request,
            requester,
            max_ticket,
        };
        self.pending.insert(at, (position, get));
        GetOutcome::Parked
    }

    /// Extracts every stored entry **and** parked GET whose position-key
    /// (computed by `key_of`) lies in the ring interval `[lo, hi)` — used to
    /// hand data over to a joining node (or to a leaving node's replacement).
    /// Both come out in the store's order.
    pub fn extract_range_with_keys(
        &mut self,
        lo: Label,
        hi: Label,
        key_of: impl Fn(u64) -> Label,
    ) -> (Vec<StoredEntry<T>>, Vec<(u64, PendingGet)>) {
        let moves = |position: u64| key_of(position).in_interval(lo, hi);
        let moved_entries = split_off_where(&mut self.entries, |e| moves(e.position));
        let moved_pending = split_off_where(&mut self.pending, |&(p, _)| moves(p));
        (moved_entries, moved_pending)
    }

    /// Absorbs entries and parked GETs (e.g. handed over by another node).
    /// Parked GETs that can be satisfied by absorbed (or already present)
    /// entries are answered and returned.
    pub fn absorb(
        &mut self,
        entries: Vec<StoredEntry<T>>,
        pending: Vec<(u64, PendingGet)>,
    ) -> Vec<SatisfiedGet<T>> {
        let mut satisfied = self.put_many(entries);
        self.get_many(pending, &mut satisfied);
        satisfied
    }

    /// Iterates over all stored entries in `(position, ticket)` order.
    pub fn iter_entries(&self) -> impl Iterator<Item = &StoredEntry<T>> {
        self.entries.iter()
    }

    /// Drains the whole store — every entry and every parked GET — in key
    /// order.  This is the leave hand-over entry point: the departing node's
    /// state *moves* to its absorber (no payload clones), leaving the store
    /// empty for the drain role.
    pub fn take_all(&mut self) -> (Vec<StoredEntry<T>>, Vec<(u64, PendingGet)>) {
        (
            std::mem::take(&mut self.entries).into(),
            std::mem::take(&mut self.pending).into(),
        )
    }
}

/// The store as it was before it became two deques — a `BTreeMap` of
/// per-position vectors for entries and for parked GETs — kept as the
/// reference model the property test below runs [`NodeStore`] against.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    pub(super) struct BTreeStore<T> {
        /// Entries per position, sorted by ticket (a stable sort, so equal
        /// tickets stay in arrival order).
        entries: BTreeMap<u64, Vec<StoredEntry<T>>>,
        /// Parked GETs per position, FIFO.
        pending: BTreeMap<u64, Vec<PendingGet>>,
    }

    impl<T: Payload> BTreeStore<T> {
        pub(super) fn new() -> Self {
            BTreeStore {
                entries: BTreeMap::new(),
                pending: BTreeMap::new(),
            }
        }

        pub(super) fn len(&self) -> usize {
            self.entries.values().map(Vec::len).sum()
        }

        pub(super) fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        pub(super) fn is_vacant(&self) -> bool {
            self.entries.is_empty() && self.pending.is_empty()
        }

        pub(super) fn put_into(&mut self, entry: StoredEntry<T>) -> Option<SatisfiedGet<T>> {
            let position = entry.position;
            if let Some(waiters) = self.pending.get_mut(&position) {
                if let Some(idx) = waiters.iter().position(|g| entry.ticket <= g.max_ticket) {
                    let get = waiters.remove(idx);
                    if waiters.is_empty() {
                        self.pending.remove(&position);
                    }
                    return Some(SatisfiedGet { get, entry });
                }
            }
            let slot = self.entries.entry(position).or_default();
            slot.push(entry);
            slot.sort_by_key(|e| e.ticket);
            None
        }

        pub(super) fn put_many(&mut self, entries: Vec<StoredEntry<T>>) -> Vec<SatisfiedGet<T>> {
            entries
                .into_iter()
                .filter_map(|entry| self.put_into(entry))
                .collect()
        }

        pub(super) fn get_many(
            &mut self,
            gets: Vec<(u64, PendingGet)>,
            satisfied: &mut Vec<SatisfiedGet<T>>,
        ) {
            for (position, get) in gets {
                match self.get(position, get.max_ticket, get.request, get.requester) {
                    GetOutcome::Found(entry) => satisfied.push(SatisfiedGet { get, entry }),
                    GetOutcome::Parked => {}
                }
            }
        }

        pub(super) fn get(
            &mut self,
            position: u64,
            max_ticket: u64,
            request: RequestId,
            requester: NodeId,
        ) -> GetOutcome<T> {
            if let Some(slot) = self.entries.get_mut(&position) {
                if let Some(idx) = slot.iter().rposition(|e| e.ticket <= max_ticket) {
                    let entry = slot.remove(idx);
                    if slot.is_empty() {
                        self.entries.remove(&position);
                    }
                    return GetOutcome::Found(entry);
                }
            }
            self.pending.entry(position).or_default().push(PendingGet {
                request,
                requester,
                max_ticket,
            });
            GetOutcome::Parked
        }

        pub(super) fn extract_range_with_keys(
            &mut self,
            lo: Label,
            hi: Label,
            key_of: impl Fn(u64) -> Label,
        ) -> (Vec<StoredEntry<T>>, Vec<(u64, PendingGet)>) {
            let mut moved_entries = Vec::new();
            let mut keep_entries = BTreeMap::new();
            for (position, slot) in std::mem::take(&mut self.entries) {
                if key_of(position).in_interval(lo, hi) {
                    moved_entries.extend(slot);
                } else {
                    keep_entries.insert(position, slot);
                }
            }
            self.entries = keep_entries;
            let mut moved_pending = Vec::new();
            let mut keep_pending = BTreeMap::new();
            for (position, waiters) in std::mem::take(&mut self.pending) {
                if key_of(position).in_interval(lo, hi) {
                    moved_pending.extend(waiters.into_iter().map(|g| (position, g)));
                } else {
                    keep_pending.insert(position, waiters);
                }
            }
            self.pending = keep_pending;
            (moved_entries, moved_pending)
        }

        pub(super) fn absorb(
            &mut self,
            entries: Vec<StoredEntry<T>>,
            pending: Vec<(u64, PendingGet)>,
        ) -> Vec<SatisfiedGet<T>> {
            let mut satisfied = self.put_many(entries);
            self.get_many(pending, &mut satisfied);
            satisfied
        }

        pub(super) fn iter_entries(&self) -> impl Iterator<Item = &StoredEntry<T>> {
            self.entries.values().flat_map(|v| v.iter())
        }

        pub(super) fn take_all(&mut self) -> (Vec<StoredEntry<T>>, Vec<(u64, PendingGet)>) {
            let entries = std::mem::take(&mut self.entries)
                .into_values()
                .flatten()
                .collect();
            let pending = std::mem::take(&mut self.pending)
                .into_iter()
                .flat_map(|(p, waiters)| waiters.into_iter().map(move |g| (p, g)))
                .collect();
            (entries, pending)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::BTreeStore;
    use super::*;
    use crate::element::Element;
    use proptest::prelude::*;
    use skueue_sim::ids::ProcessId;

    fn rid(s: u64) -> RequestId {
        RequestId::new(ProcessId(1), s)
    }

    fn key(x: f64) -> Label {
        Label::from_f64(x)
    }

    fn queue_entry<T: Payload>(
        position: u64,
        key: Label,
        id: RequestId,
        value: T,
    ) -> StoredEntry<T> {
        StoredEntry::queue(position, key, Element::new(id, value))
    }

    fn stack_entry(
        position: u64,
        key: Label,
        ticket: u64,
        id: RequestId,
        value: u64,
    ) -> StoredEntry {
        StoredEntry {
            ticket,
            ..queue_entry(position, key, id, value)
        }
    }

    /// One `PUT`, the parked GETs it satisfied returned.
    fn put<T: Payload>(store: &mut NodeStore<T>, entry: StoredEntry<T>) -> Vec<SatisfiedGet<T>> {
        store.put_many([entry])
    }

    /// Queue-flavoured `GET` (no ticket bound).
    fn get_queue<T: Payload>(
        store: &mut NodeStore<T>,
        position: u64,
        request: RequestId,
        requester: NodeId,
    ) -> GetOutcome<T> {
        store.get(position, u64::MAX, request, requester)
    }

    /// Tickets stored under `position`, ascending.
    fn tickets_at(store: &NodeStore, position: u64) -> Vec<u64> {
        let at = store.iter_entries().filter(|e| e.position == position);
        at.map(|e| e.ticket).collect()
    }

    /// One side of the model test: the deque store and its reference.
    struct Pair {
        flat: NodeStore,
        model: BTreeStore<u64>,
    }

    /// Draws the model test's operands off one random word.
    struct Draws {
        word: u64,
        stack: bool,
        next_id: u64,
    }

    impl Draws {
        /// The next `n` bits of the word, as a number below `2^n`.
        fn bits(&mut self, n: u32) -> u64 {
            let value = self.word & ((1 << n) - 1);
            self.word = self.word.rotate_right(n);
            value
        }

        /// A position in `0..6`, so puts and GETs collide.
        fn position(&mut self) -> u64 {
            self.bits(3) % 6
        }

        /// A ticket in `0..4` for the stack (equal tickets are common),
        /// `0` for the queue.
        fn ticket(&mut self) -> u64 {
            if self.stack {
                self.bits(2)
            } else {
                0
            }
        }

        fn entry(&mut self) -> StoredEntry {
            let position = self.position();
            let ticket = self.ticket();
            self.next_id += 1;
            let id = rid(self.next_id);
            StoredEntry {
                ticket,
                ..StoredEntry::queue(
                    position,
                    model_key(position),
                    Element::new(id, self.next_id),
                )
            }
        }

        /// A parked-GET request: the stack's bound is a small ticket or
        /// unbounded, the queue's always unbounded.
        fn get(&mut self) -> (u64, PendingGet) {
            let position = self.position();
            let max_ticket = match self.ticket() {
                3 => u64::MAX,
                ticket => ticket,
            };
            let max_ticket = if self.stack { max_ticket } else { u64::MAX };
            self.next_id += 1;
            let get = PendingGet {
                request: rid(1 << 32 | self.next_id),
                requester: NodeId(self.bits(2)),
                max_ticket,
            };
            (position, get)
        }

        fn entries(&mut self) -> Vec<StoredEntry> {
            let n = 1 + self.bits(2);
            (0..n).map(|_| self.entry()).collect()
        }

        fn gets(&mut self) -> Vec<(u64, PendingGet)> {
            let n = 1 + self.bits(2);
            (0..n).map(|_| self.get()).collect()
        }

        /// A ring interval of tenths (`lo == hi` is the whole ring).
        fn interval(&mut self) -> (Label, Label) {
            let lo = (self.bits(4) % 10) as f64 / 10.0;
            let hi = (self.bits(4) % 10) as f64 / 10.0;
            (key(lo), key(hi))
        }
    }

    /// The key of a position in the model test: scattered over the ring.
    fn model_key(position: u64) -> Label {
        key((position * 37 % 100) as f64 / 100.0)
    }

    #[test]
    fn put_then_get_returns_element() {
        let mut store = NodeStore::new();
        let entry = queue_entry(5, key(0.3), rid(0), 77u64);
        assert!(put(&mut store, entry.clone()).is_empty());
        assert_eq!(store.len(), 1);
        match get_queue(&mut store, 5, rid(1), NodeId(9)) {
            GetOutcome::Found(found) => assert_eq!(found, entry),
            other @ GetOutcome::Parked => panic!("unexpected {other:?}"),
        }
        assert!(store.is_empty());
    }

    #[test]
    fn get_before_put_parks_and_is_satisfied_later() {
        let mut store = NodeStore::new();
        assert_eq!(
            get_queue(&mut store, 7, rid(4), NodeId(2)),
            GetOutcome::Parked
        );
        assert_eq!(store.pending_gets(), 1);
        let entry = queue_entry(7, key(0.1), rid(0), 13u64);
        let satisfied = put(&mut store, entry.clone());
        assert_eq!(satisfied.len(), 1);
        assert_eq!(satisfied[0].get.request, rid(4));
        assert_eq!(satisfied[0].get.requester, NodeId(2));
        assert_eq!(satisfied[0].entry, entry);
        assert_eq!(store.pending_gets(), 0);
        assert!(store.is_empty(), "entry must not also be stored");
    }

    #[test]
    fn parked_gets_are_served_fifo_per_position() {
        let mut store = NodeStore::<u64>::new();
        get_queue(&mut store, 3, rid(10), NodeId(1));
        get_queue(&mut store, 3, rid(11), NodeId(2));
        let sat = put(&mut store, queue_entry(3, key(0.2), rid(0), 1));
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].get.request, rid(10));
        let sat = put(&mut store, queue_entry(3, key(0.2), rid(1), 2));
        assert_eq!(sat[0].get.request, rid(11));
    }

    #[test]
    fn gets_for_missing_positions_do_not_cross_talk() {
        let mut store = NodeStore::new();
        put(&mut store, queue_entry(1, key(0.5), rid(0), 10u64));
        assert_eq!(
            get_queue(&mut store, 2, rid(1), NodeId(0)),
            GetOutcome::Parked
        );
        // The entry for position 1 is untouched.
        assert_eq!(store.len(), 1);
        assert_eq!(tickets_at(&store, 1), vec![0]);
        assert!(tickets_at(&store, 2).is_empty());
    }

    #[test]
    fn stack_ticket_selects_largest_admissible() {
        let mut store = NodeStore::new();
        let e1 = stack_entry(4, key(0.6), 10, rid(0), 100);
        let e2 = stack_entry(4, key(0.6), 20, rid(1), 200);
        put(&mut store, e1);
        put(&mut store, e2);
        // max_ticket 15 only admits ticket 10.
        match store.get(4, 15, rid(2), NodeId(0)) {
            GetOutcome::Found(e) => assert_eq!(e.ticket, 10),
            other => panic!("unexpected {other:?}"),
        }
        // max_ticket 25 admits the remaining ticket 20.
        match store.get(4, 25, rid(3), NodeId(0)) {
            GetOutcome::Found(e) => assert_eq!(e.ticket, 20),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stack_get_with_too_small_ticket_parks() {
        let mut store = NodeStore::new();
        put(&mut store, stack_entry(4, key(0.6), 10, rid(0), 1));
        assert_eq!(store.get(4, 5, rid(1), NodeId(0)), GetOutcome::Parked);
        // A later put with an admissible ticket satisfies it.
        let sat = put(&mut store, stack_entry(4, key(0.6), 3, rid(2), 2));
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].entry.ticket, 3);
        // The original ticket-10 entry is still there.
        assert_eq!(tickets_at(&store, 4), vec![10]);
    }

    #[test]
    fn put_many_matches_sequential_puts() {
        let mut a = NodeStore::new();
        let mut b = NodeStore::new();
        // Two parked GETs, then a bulk PUT covering both plus a new position.
        for store in [&mut a, &mut b] {
            get_queue(store, 1, rid(10), NodeId(1));
            get_queue(store, 2, rid(11), NodeId(2));
        }
        let entries = vec![
            queue_entry(1, key(0.1), rid(0), 100u64),
            queue_entry(2, key(0.2), rid(1), 200),
            queue_entry(3, key(0.3), rid(2), 300),
        ];
        let bulk = a.put_many(entries.clone());
        let mut sequential = Vec::new();
        for e in entries {
            sequential.extend(put(&mut b, e));
        }
        assert_eq!(bulk, sequential);
        assert_eq!(bulk.len(), 2);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn get_many_finds_and_parks_in_one_pass() {
        let mut store = NodeStore::new();
        put(&mut store, queue_entry(5, key(0.5), rid(0), 50u64));
        let mut satisfied = Vec::new();
        store.get_many(
            vec![
                (
                    5,
                    PendingGet {
                        request: rid(1),
                        requester: NodeId(1),
                        max_ticket: u64::MAX,
                    },
                ),
                (
                    6,
                    PendingGet {
                        request: rid(2),
                        requester: NodeId(2),
                        max_ticket: u64::MAX,
                    },
                ),
            ],
            &mut satisfied,
        );
        assert_eq!(satisfied.len(), 1);
        assert_eq!(satisfied[0].get.request, rid(1));
        assert_eq!(satisfied[0].entry.element.value, 50);
        assert_eq!(store.pending_gets(), 1, "the miss must be parked");
    }

    #[test]
    fn extract_range_with_keys_moves_matching_entries_and_gets() {
        let mut store = NodeStore::new();
        // Keys: position p -> (p mod 10)/10 for this test.
        let key_of = |p: u64| Label::from_f64((p % 10) as f64 / 10.0);
        for p in 0..10u64 {
            put(
                &mut store,
                StoredEntry::queue(p, key_of(p), Element::new(rid(p), p)),
            );
        }
        // Parked GET at position 45 (key 0.5, inside the handed-over range).
        get_queue(&mut store, 45, rid(100), NodeId(7));
        let (entries, pending) =
            store.extract_range_with_keys(Label::from_f64(0.3), Label::from_f64(0.6), key_of);
        let moved: Vec<u64> = entries.iter().map(|e| e.position).collect();
        assert_eq!(moved, vec![3, 4, 5]);
        assert_eq!(store.len(), 7);
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, 45);
        assert_eq!(store.pending_gets(), 0);
    }

    #[test]
    fn absorb_hands_entries_to_parked_gets() {
        let mut a = NodeStore::new();
        let mut b = NodeStore::new();
        // b is the new responsible node and already has a parked GET.
        assert_eq!(get_queue(&mut b, 9, rid(5), NodeId(3)), GetOutcome::Parked);
        put(&mut a, queue_entry(9, key(0.9), rid(0), 900u64));
        let (entries, pending) =
            a.extract_range_with_keys(Label::from_f64(0.8), Label::from_f64(0.99), |_| key(0.9));
        assert_eq!(entries.len(), 1);
        let satisfied = b.absorb(entries, pending);
        assert_eq!(satisfied.len(), 1);
        assert_eq!(satisfied[0].get.request, rid(5));
        assert!(b.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every PUT is eventually consumed by exactly one GET and vice versa,
        /// regardless of the interleaving order (the GET-before-PUT race).
        #[test]
        fn prop_put_get_matching_is_exact(order in proptest::collection::vec(any::<bool>(), 1..60)) {
            let mut store = NodeStore::new();
            let mut puts_issued = 0u64;
            let mut gets_issued = 0u64;
            let mut answered = 0u64;
            // Interleave puts and gets for sequential positions according to
            // the random `order` bitstring.
            for (i, &is_put) in order.iter().enumerate() {
                let pos = (i as u64) / 2; // positions repeat so puts and gets collide
                if is_put {
                    let sat = put(&mut store, queue_entry(pos, key(0.5), rid(1000 + i as u64), i as u64));
                    answered += sat.len() as u64;
                    puts_issued += 1;
                } else {
                    match get_queue(&mut store, pos, rid(i as u64), NodeId(0)) {
                        GetOutcome::Found(_) => answered += 1,
                        GetOutcome::Parked => {}
                    }
                    gets_issued += 1;
                }
            }
            // Conservation: answered GETs + parked GETs == issued GETs.
            prop_assert_eq!(answered + store.pending_gets() as u64, gets_issued);
            // Conservation: stored entries + answered == issued PUTs.
            prop_assert_eq!(store.len() as u64 + answered, puts_issued);
        }

        /// extract + absorb between two stores conserves entries and parked GETs.
        #[test]
        fn prop_handover_conserves_state(
            positions in proptest::collection::vec(0u64..50, 1..40),
            split in 0.0f64..1.0,
        ) {
            let key_of = |p: u64| Label::from_f64((p as f64 * 0.019_37) % 1.0);
            let mut a = NodeStore::new();
            for (i, &p) in positions.iter().enumerate() {
                put(&mut a, StoredEntry::queue(p, key_of(p), Element::new(rid(i as u64), p)));
            }
            let before = a.len();
            let mut b = NodeStore::new();
            let (entries, pending) = a.extract_range_with_keys(
                Label::from_f64(0.0),
                Label::from_f64(split.min(0.999)),
                key_of,
            );
            let sat = b.absorb(entries, pending);
            prop_assert_eq!(a.len() + b.len() + sat.len(), before);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of every operation, in queue and in stack mode,
        /// on two deque stores and two B-tree references, handing state
        /// between the two: every outcome, every satisfied GET in its
        /// order, and both stores' contents in iteration and hand-over
        /// order agree after every step.
        #[test]
        fn prop_deques_match_the_btree_reference(
            stack in any::<bool>(),
            steps in proptest::collection::vec((0u64..7, any::<bool>(), any::<u64>()), 1..80),
        ) {
            let mut sides = [0, 1].map(|_| Pair { flat: NodeStore::new(), model: BTreeStore::new() });
            let mut draws = Draws { word: 0, stack, next_id: 0 };
            for (step, &(op, on_second, word)) in steps.iter().enumerate() {
                draws.word = word;
                let (here, there) = if on_second { (1, 0) } else { (0, 1) };
                match op {
                    0 => {
                        let entry = draws.entry();
                        let flat = sides[here].flat.put_into(entry.clone());
                        prop_assert_eq!(flat, sides[here].model.put_into(entry), "put at step {}", step);
                    }
                    1 => {
                        let (position, g) = draws.get();
                        let flat = sides[here].flat.get(position, g.max_ticket, g.request, g.requester);
                        let model = sides[here].model.get(position, g.max_ticket, g.request, g.requester);
                        prop_assert_eq!(flat, model, "get at step {}", step);
                    }
                    2 => {
                        let entries = draws.entries();
                        let flat = sides[here].flat.put_many(entries.clone());
                        prop_assert_eq!(flat, sides[here].model.put_many(entries), "put_many at step {}", step);
                    }
                    3 => {
                        let gets = draws.gets();
                        let (mut flat, mut model) = (Vec::new(), Vec::new());
                        sides[here].flat.get_many(gets.clone(), &mut flat);
                        sides[here].model.get_many(gets, &mut model);
                        prop_assert_eq!(flat, model, "get_many at step {}", step);
                    }
                    4 | 6 => {
                        let (flat, model) = if op == 4 {
                            let (lo, hi) = draws.interval();
                            (
                                sides[here].flat.extract_range_with_keys(lo, hi, model_key),
                                sides[here].model.extract_range_with_keys(lo, hi, model_key),
                            )
                        } else {
                            (sides[here].flat.take_all(), sides[here].model.take_all())
                        };
                        prop_assert_eq!(&flat, &model, "hand-over at step {}", step);
                        let (entries, pending) = flat;
                        let flat = sides[there].flat.absorb(entries.clone(), pending.clone());
                        let model = sides[there].model.absorb(entries, pending);
                        prop_assert_eq!(flat, model, "absorb of a hand-over at step {}", step);
                    }
                    _ => {
                        let (entries, gets) = (draws.entries(), draws.gets());
                        let flat = sides[here].flat.absorb(entries.clone(), gets.clone());
                        let model = sides[here].model.absorb(entries, gets);
                        prop_assert_eq!(flat, model, "absorb at step {}", step);
                    }
                }
                for side in &sides {
                    prop_assert_eq!(side.flat.len(), side.model.len());
                    prop_assert_eq!(side.flat.is_empty(), side.model.is_empty());
                    prop_assert_eq!(side.flat.is_vacant(), side.model.is_vacant());
                    let flat: Vec<_> = side.flat.iter_entries().collect();
                    let model: Vec<_> = side.model.iter_entries().collect();
                    prop_assert_eq!(flat, model, "iteration order after step {}", step);
                    prop_assert_eq!(
                        side.flat.clone().take_all(),
                        side.model.clone().take_all(),
                        "hand-over order after step {}", step
                    );
                }
            }
        }
    }
}
