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
use std::collections::BTreeMap;

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

/// DHT state of one virtual node.
#[derive(Debug, Clone)]
pub struct NodeStore<T = u64> {
    /// Stored entries, keyed by position.  The stack variant may park several
    /// tickets under the same position, hence a `Vec` (kept sorted by
    /// ticket, ascending).
    entries: BTreeMap<u64, Vec<StoredEntry<T>>>,
    /// Parked GETs keyed by position (FIFO per position).
    pending: BTreeMap<u64, Vec<PendingGet>>,
}

impl<T> Default for NodeStore<T> {
    fn default() -> Self {
        NodeStore {
            entries: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }
}

impl<T: Payload> NodeStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        NodeStore::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when neither an entry nor a parked GET is held.
    pub fn is_vacant(&self) -> bool {
        self.entries.is_empty() && self.pending.is_empty()
    }

    /// Number of parked GETs.
    #[cfg(test)]
    pub(crate) fn pending_gets(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
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
    /// `≤ max_ticket` if one exists; otherwise parks the GET.
    pub fn get(
        &mut self,
        position: u64,
        max_ticket: u64,
        request: RequestId,
        requester: NodeId,
    ) -> GetOutcome<T> {
        if let Some(slot) = self.entries.get_mut(&position) {
            // Largest admissible ticket (entries are sorted ascending).
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

    /// Extracts every stored entry **and** parked GET whose position-key
    /// (computed by `key_of`) lies in the ring interval `[lo, hi)` — used to
    /// hand data over to a joining node (or to a leaving node's replacement).
    pub fn extract_range_with_keys(
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

    /// Iterates over all stored entries.
    pub fn iter_entries(&self) -> impl Iterator<Item = &StoredEntry<T>> {
        self.entries.values().flat_map(|v| v.iter())
    }

    /// Drains the whole store — every entry and every parked GET — in key
    /// order.  This is the leave hand-over entry point: the departing node's
    /// state *moves* to its absorber (no payload clones), leaving the store
    /// empty for the drain role.
    pub fn take_all(&mut self) -> (Vec<StoredEntry<T>>, Vec<(u64, PendingGet)>) {
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

#[cfg(test)]
mod tests {
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
}
