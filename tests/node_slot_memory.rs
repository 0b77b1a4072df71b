//! What a build holds per virtual node once a node at rest is 112 B: the
//! node slots, the lanes' per-node words and the cluster's process table —
//! held by a counting allocator at the benchmark's two simulated shapes.
//!
//! A node at rest keeps its configuration pointer, its view, its lifecycle,
//! flags and shard in one word, its wave epoch and cadence, its lane order
//! (16 bytes: up to three peers packed inline, else one boxed slice) and two
//! null pointers: the work state and the cold box (anchor state, membership
//! bookkeeping, stack combining, a draining node's absorber).  This test
//! holds the inline size at 112 B (120 B in debug builds, which keep the
//! update-phase stamp their monotonicity check reads) and, for a
//! `sim_light`-shaped build (n = 10 000, one shard) and a `sim_heavy`-shaped
//! one (n = 3000, eight shards), the live heap per virtual node at the
//! measured value plus 15 %.  A build with the 168-byte node read 210 and 254
//! B per node; it fails here.  The build still allocates per lane and per
//! shard, never per node.
//!
//! After `tests/idle_node_memory.rs`'s load has drained, it holds the live
//! heap and allocations per node at the measured values plus 3 %: most nodes
//! then have met one to three peers, whose lane order stays inline.  With
//! every lane order a boxed slice they read 429 B and 13 820 allocations per
//! 10 000 nodes; that fails here.
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

/// Inline size of one virtual node in release builds (168 B before the
/// cold pointers shared one box, the lane order became a 16-byte slice,
/// the phase stamp became debug-only and the flags one byte).
const NODE_BYTES: usize = 112;
/// What debug builds add: the update-phase stamp.
const DEBUG_PHASE_STAMP: usize = 8;

/// A build of the benchmark's shape and its budgets.
struct Shape {
    name: &'static str,
    processes: usize,
    shards: usize,
    /// Live heap per virtual node right after the build.
    built_bytes_per_node: isize,
    /// Live allocations per 10 000 virtual nodes right after the build.
    built_allocs_per_10k_nodes: isize,
}

const SHAPES: [Shape; 2] = [
    // 154 B and 5 allocations per 10 000 nodes measured (210 B and 4 with
    // the 168-byte node; the anchor's cold box is the one more per shard).
    Shape {
        name: "sim_light",
        processes: 10_000,
        shards: 1,
        built_bytes_per_node: 177,
        built_allocs_per_10k_nodes: 6,
    },
    // 198 B and 102 allocations per 10 000 nodes measured (254 B and 93
    // with the 168-byte node): eight lanes' and shards' worth over 9000
    // nodes.
    Shape {
        name: "sim_heavy",
        processes: 3000,
        shards: 8,
        built_bytes_per_node: 227,
        built_allocs_per_10k_nodes: 117,
    },
];

/// Processes of the drained case, `tests/idle_node_memory.rs`'s load: 3000
/// operations over 300 rounds, then drained.
const DRAINED_PROCESSES: usize = 1000;
/// Live heap per virtual node after the drain, history and ticket outcomes
/// included (408 B measured; 429 B with every lane order a boxed slice).
const DRAINED_BYTES_PER_NODE: isize = 420;
/// Live allocations per 10 000 virtual nodes after the drain (8620
/// measured; 13 820 with every lane order a boxed slice).
const DRAINED_ALLOCS_PER_10K_NODES: isize = 8878;

#[test]
fn a_built_node_is_its_slot_and_its_lanes_words() {
    let mut failures = Vec::new();
    let mut hold = |what: String, value: isize, budget: isize| {
        if value > budget {
            failures.push(format!("{what}: {value}, budget {budget}"));
        }
    };
    let node_bytes = size_of::<SkueueNode<u64>>();
    let node_budget = if cfg!(debug_assertions) {
        NODE_BYTES + DEBUG_PHASE_STAMP
    } else {
        NODE_BYTES
    };
    hold(
        "SkueueNode<u64> bytes".into(),
        node_bytes as isize,
        node_budget as isize,
    );
    println!("node {node_bytes} B");
    // Debug builds hold the bytes per node with the stamp's 8 B added.
    let stamp = (node_budget - NODE_BYTES) as isize;

    for shape in &SHAPES {
        let nodes = 3 * shape.processes as isize;
        let (bytes0, allocs0) = live();
        let cluster = Skueue::<u64>::builder()
            .processes(shape.processes)
            .shards(shape.shards)
            .seed(42)
            .build()
            .expect("valid configuration");
        let (bytes, allocs) = live();
        let built_bytes = (bytes - bytes0) / nodes;
        let built_allocs = (allocs - allocs0) * 10_000 / nodes;
        hold(
            format!("{}: built bytes per node", shape.name),
            built_bytes,
            shape.built_bytes_per_node + stamp,
        );
        hold(
            format!("{}: built allocations per 10 000 nodes", shape.name),
            built_allocs,
            shape.built_allocs_per_10k_nodes,
        );
        println!(
            "{}: built {built_bytes} B/node, {built_allocs} allocations/10k nodes",
            shape.name
        );
        drop(cluster);
    }

    // The drained case: `tests/idle_node_memory.rs`'s build and load.
    let nodes = 3 * DRAINED_PROCESSES as isize;
    let (bytes0, allocs0) = live();
    let mut cluster = Skueue::<u64>::builder()
        .processes(DRAINED_PROCESSES)
        .seed(42)
        .build()
        .expect("valid configuration");
    let mut rng = SimRng::new(7);
    for round in 0..300u64 {
        for _ in 0..10 {
            let pid = ProcessId(rng.next_u64() % DRAINED_PROCESSES as u64);
            let mut client = cluster.client(pid);
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
    let drained_bytes = (bytes - bytes0) / nodes;
    let drained_allocs = (allocs - allocs0) * 10_000 / nodes;
    hold(
        "drained bytes per node".into(),
        drained_bytes,
        DRAINED_BYTES_PER_NODE + stamp,
    );
    hold(
        "drained allocations per 10 000 nodes".into(),
        drained_allocs,
        DRAINED_ALLOCS_PER_10K_NODES,
    );
    println!("drained: {drained_bytes} B/node, {drained_allocs} allocations/10k nodes");
    drop(cluster);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
