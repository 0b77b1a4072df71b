//! What an idle virtual node holds now that its requests, waves, stored
//! elements and uncollected completions sit behind one pointer that is null
//! while it has none of them — held by a counting allocator.
//!
//! `tests/memory_budget.rs` holds the older, looser ceilings; this test
//! holds the inline size of a node at 384 B and, for the same build and the
//! same drained load, bytes and allocations per virtual node at the measured
//! values plus 15 %.  A change that needs more should say why and move them.
//!
//! One test function only: the counts are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use skueue::core::SkueueNode;
use skueue::prelude::*;

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

/// Inline size of one virtual node (376 B measured; 712 B with the work
/// state inline).
const NODE_BYTES_CEILING: usize = 384;
/// Live heap per virtual node right after the build: the node slots, the
/// lane's per-node words and the driver's process table (419 B measured;
/// 755 B with the work state inline).
const BUILT_BYTES_PER_NODE: isize = 481;
/// Live allocations per 10 000 virtual nodes right after the build: the
/// build allocates per lane and per shard, never per node (14 allocations
/// for 3000 nodes, 46 measured).
const BUILT_ALLOCS_PER_10K_NODES: isize = 53;
/// Live heap per virtual node after 3000 operations have drained, history
/// and ticket outcomes included (936 B measured; 1905 B with the work state
/// inline).
const DRAINED_BYTES_PER_NODE: isize = 1076;
/// Live allocations per 10 000 virtual nodes after the drain (28 013
/// measured, 2.80 per node; 5.05 per node with the work state inline).
const DRAINED_ALLOCS_PER_10K_NODES: isize = 32_215;

#[test]
fn an_idle_node_is_its_identity_and_one_null_pointer() {
    let mut failures = Vec::new();
    let mut hold = |what: &str, value: isize, budget: isize| {
        if value > budget {
            failures.push(format!("{what}: {value}, budget {budget}"));
        }
    };
    let node_bytes = size_of::<SkueueNode<u64>>();
    hold(
        "SkueueNode<u64> bytes",
        node_bytes as isize,
        NODE_BYTES_CEILING as isize,
    );

    let (bytes0, allocs0) = live();
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES)
        .seed(42)
        .build()
        .expect("valid configuration");
    let (bytes, allocs) = live();
    let built_bytes = (bytes - bytes0) / NODES;
    let built_allocs = (allocs - allocs0) * 10_000 / NODES;
    hold("built bytes per node", built_bytes, BUILT_BYTES_PER_NODE);
    hold(
        "built allocations per 10 000 nodes",
        built_allocs,
        BUILT_ALLOCS_PER_10K_NODES,
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
    let drained_allocs = (allocs - allocs0) * 10_000 / NODES;
    hold(
        "drained bytes per node",
        drained_bytes,
        DRAINED_BYTES_PER_NODE,
    );
    hold(
        "drained allocations per 10 000 nodes",
        drained_allocs,
        DRAINED_ALLOCS_PER_10K_NODES,
    );
    println!(
        "node {node_bytes} B; built {built_bytes} B/node, {built_allocs} allocations/10k nodes; \
         drained {drained_bytes} B/node, {drained_allocs} allocations/10k nodes"
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
