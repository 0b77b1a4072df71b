//! What a DHT store costs per item it holds, held by a counting allocator
//! at today's figure: 1 000 stores, each given 1 and then 64 queue entries,
//! and then 1 and 64 parked GETs, with each budget at the measured value
//! plus 15 %.
//!
//! A store keeps its entries in one deque sorted by `(position, ticket)`
//! and its parked GETs in a second one sorted by position, both growing
//! from room for one, so an item costs its own size: 48 B per `u64` queue
//! entry, 40 B per parked GET.  When the store was a B-tree of per-position
//! vectors, one entry cost a 368-byte leaf plus a 4-slot vector (560 B) and
//! one parked GET 496 B; at 64 per store they cost 251 B and 187 B — over
//! every budget below.
//!
//! One test function only: the counts are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use skueue::dht::{NodeStore, StoredEntry};
use skueue::overlay::Label;
use skueue::prelude::*;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const STORES: usize = 1000;

/// Heap bytes per stored queue entry, at 1 and at 64 per store (48 B
/// measured at both).
const BYTES_PER_ENTRY: isize = 55;
/// Heap bytes per parked GET, at 1 and at 64 per store (40 B measured at
/// both).
const BYTES_PER_PARKED_GET: isize = 46;

/// Live heap per item after `add` put `per_store` items into each of
/// [`STORES`] empty stores; item `i` of a store is at its `i`-th position,
/// ascending, as a node's positions arrive.
fn bytes_per_item(per_store: u64, add: impl Fn(&mut NodeStore, u64)) -> isize {
    let mut stores: Vec<NodeStore> = (0..STORES).map(|_| NodeStore::new()).collect();
    let before = LIVE_BYTES.load(Relaxed);
    for (s, store) in stores.iter_mut().enumerate() {
        for i in 0..per_store {
            add(store, s as u64 * per_store + i);
        }
    }
    let bytes = LIVE_BYTES.load(Relaxed) - before;
    drop(stores);
    bytes / (STORES as isize * per_store as isize)
}

fn put_entry(store: &mut NodeStore, position: u64) {
    let id = RequestId::new(ProcessId(1), position);
    let key = Label::from_f64(0.5);
    let parked = store.put_into(StoredEntry::queue(
        position,
        key,
        Element::new(id, position),
    ));
    assert!(parked.is_none(), "no GET waits in an entry-only store");
}

fn park_get(store: &mut NodeStore, position: u64) {
    let id = RequestId::new(ProcessId(2), position);
    let parked = store.get(position, u64::MAX, id, NodeId(7));
    assert_eq!(parked, skueue::dht::GetOutcome::Parked);
}

#[test]
fn a_stored_item_costs_its_own_size() {
    let mut failures = Vec::new();
    for per_store in [1, 64] {
        let entry = bytes_per_item(per_store, put_entry);
        let get = bytes_per_item(per_store, park_get);
        println!("{per_store} per store: {entry} B per queue entry, {get} B per parked GET");
        if entry > BYTES_PER_ENTRY {
            failures.push(format!(
                "{entry} B per queue entry at {per_store} per store, budget \
                 {BYTES_PER_ENTRY} B"
            ));
        }
        if get > BYTES_PER_PARKED_GET {
            failures.push(format!(
                "{get} B per parked GET at {per_store} per store, budget \
                 {BYTES_PER_PARKED_GET} B"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
