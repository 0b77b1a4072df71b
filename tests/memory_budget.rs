//! Memory budget of the simulated cluster, held by a counting allocator.
//!
//! Skueue spreads its state "fairly onto multiple processes", so what a
//! virtual node keeps resident while it has nothing to do is the number that
//! decides how large a system fits in memory.  This test builds a cluster,
//! runs a light load through it, drains it, and holds the live heap — bytes
//! and allocations per virtual node — and the inline size of a node and of a
//! message envelope under written-down budgets.  The budgets are the measured
//! values plus 15 %; a change that needs more should say why and move them.
//!
//! One test function only: the counts are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use skueue::core::{SkueueMsg, SkueueNode};
use skueue::prelude::*;
use skueue::sim::Envelope;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCS: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        LIVE_ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (isize, isize) {
    (LIVE_BYTES.load(Relaxed), LIVE_ALLOCS.load(Relaxed))
}

const PROCESSES: usize = 1000;
const NODES: isize = 3 * PROCESSES as isize;

/// Inline size of one virtual node (880 B measured; 1552 B before the node
/// memory diet).
const NODE_BYTES_CEILING: usize = 896;
/// Inline size of one in-flight message.
const ENVELOPE_BYTES_CEILING: usize = 112;
/// Live heap per virtual node right after the build: the node slots, the
/// lane's per-node words and the driver's process table (945 B measured;
/// 1634 B before the diet).
const BUILT_BYTES_PER_NODE: isize = 1087;
/// Live heap per virtual node after 3000 operations have drained, history
/// and ticket outcomes included (2224 B measured; 6045 B before the diet).
const DRAINED_BYTES_PER_NODE: isize = 2558;
/// Live allocations per 100 virtual nodes after the drain (473 measured;
/// 1356 before the diet).
const DRAINED_ALLOCS_PER_NODE_X100: isize = 544;

#[test]
fn idle_nodes_stay_within_their_memory_budget() {
    assert!(
        size_of::<SkueueNode<u64>>() <= NODE_BYTES_CEILING,
        "SkueueNode<u64> grew to {} B",
        size_of::<SkueueNode<u64>>()
    );
    assert!(
        size_of::<Envelope<SkueueMsg<u64>>>() <= ENVELOPE_BYTES_CEILING,
        "Envelope<SkueueMsg<u64>> grew to {} B",
        size_of::<Envelope<SkueueMsg<u64>>>()
    );

    let (bytes0, allocs0) = live();
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES)
        .seed(42)
        .build()
        .expect("valid configuration");
    let (bytes, allocs) = live();
    let built_bytes = (bytes - bytes0) / NODES;
    // A build allocates per lane and per shard, never per node.
    assert!(
        allocs - allocs0 < 64,
        "the build made {} allocations",
        allocs - allocs0
    );
    assert!(
        built_bytes <= BUILT_BYTES_PER_NODE,
        "{built_bytes} B per virtual node after the build, budget {BUILT_BYTES_PER_NODE}"
    );

    let mut rng = SimRng::new(7);
    for round in 0..300u64 {
        for _ in 0..10 {
            let mut client = cluster.client(ProcessId(rng.next_u64() % PROCESSES as u64));
            if rng.next_u64() & 1 == 0 {
                client.enqueue(round).expect("active process");
            } else {
                client.dequeue().expect("active process");
            }
        }
        cluster.run_round();
    }
    cluster
        .run_until_all_complete(50_000)
        .expect("the load drains");
    assert_eq!(cluster.history().len(), 3000);

    let (bytes, allocs) = live();
    let drained_bytes = (bytes - bytes0) / NODES;
    let drained_allocs_x100 = (allocs - allocs0) * 100 / NODES;
    println!(
        "built {built_bytes} B/node; drained {drained_bytes} B/node, {}.{:02} allocations/node",
        drained_allocs_x100 / 100,
        drained_allocs_x100 % 100
    );
    assert!(
        drained_bytes <= DRAINED_BYTES_PER_NODE,
        "{drained_bytes} B per virtual node after the drain, budget {DRAINED_BYTES_PER_NODE}"
    );
    assert!(
        drained_allocs_x100 <= DRAINED_ALLOCS_PER_NODE_X100,
        "{drained_allocs_x100} live allocations per 100 virtual nodes after the drain, \
         budget {DRAINED_ALLOCS_PER_NODE_X100}"
    );
}
