//! Memory budget of operations and waves *in flight*, held by a counting
//! allocator — the loaded half of `tests/memory_budget.rs`, which holds what
//! an idle node keeps.
//!
//! Under load every node pipelines up to 32 aggregation waves, and what one
//! wave and one routed operation keep while they wait is multiplied by the
//! whole ring: that, not the queue's contents and not the nodes, bounds how
//! much load fits in memory.  This test drives a `sim_heavy`-shaped load
//! (sharded, hundreds of operations a round, nearly everything still open
//! when the load ends), and at that moment holds the live heap — bytes and
//! allocations per open request — the allocator calls per operation over the
//! whole run, and the inline size of a routed operation under written-down
//! budgets.  The budgets are the measured values plus 15 %; a change that
//! needs more should say why and move them.
//!
//! One test function only: the counts are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use skueue::core::messages::RoutedDhtOp;
use skueue::core::SkueueMsg;
use skueue::overlay::RouteProgress;
use skueue::prelude::*;
use skueue::sim::Envelope;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_ALLOCS: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        LIVE_ALLOCS.fetch_add(1, Relaxed);
        CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        CALLS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (isize, isize) {
    (LIVE_BYTES.load(Relaxed), LIVE_ALLOCS.load(Relaxed))
}

const PROCESSES: usize = 600;
const SHARDS: usize = 4;
const OPS_PER_ROUND: usize = 200;
const ROUNDS: u64 = 60;
const OPS: isize = OPS_PER_ROUND as isize * ROUNDS as isize;

/// Routing state of one message: target, hop count, remaining-bit count.
const ROUTE_PROGRESS_BYTES_CEILING: usize = 16;
/// One routed DHT operation as it sits in route buffers and `DhtBatch`es.
const ROUTED_OP_BYTES_CEILING: usize = 24;
/// Inline size of one in-flight message.
const ENVELOPE_BYTES_CEILING: usize = 104;
/// Live heap per open request when the load ends, beyond what the built
/// cluster held: wave memo, wave ring, own logs, routed operations, parked
/// GETs — and the history of what has completed by then (480 B measured;
/// 715 B before the in-flight diet).
const BYTES_PER_OPEN_REQUEST: isize = 552;
/// Live allocations per 100 open requests at that moment (144 measured; 357
/// before the diet).
const ALLOCS_PER_OPEN_REQUEST_X100: isize = 165;
/// Allocator calls (`alloc` + `realloc`) per 10 operations from the first
/// request to the drained cluster (237 measured; 248 before the diet — most
/// are the payload vectors of the messages themselves).
const ALLOCATOR_CALLS_PER_OP_X10: isize = 272;

#[test]
fn operations_in_flight_stay_within_their_memory_budget() {
    // Every budget is checked before the first failure is reported, so one
    // run shows all that moved.
    let mut over_budget: Vec<String> = Vec::new();
    let mut hold = |what: &str, measured: isize, budget: isize| {
        if measured > budget {
            over_budget.push(format!("{what}: {measured}, budget {budget}"));
        }
    };
    hold(
        "size_of::<RouteProgress>()",
        size_of::<RouteProgress>() as isize,
        ROUTE_PROGRESS_BYTES_CEILING as isize,
    );
    hold(
        "size_of::<RoutedDhtOp<u64>>()",
        size_of::<RoutedDhtOp<u64>>() as isize,
        ROUTED_OP_BYTES_CEILING as isize,
    );
    hold(
        "size_of::<Envelope<SkueueMsg<u64>>>()",
        size_of::<Envelope<SkueueMsg<u64>>>() as isize,
        ENVELOPE_BYTES_CEILING as isize,
    );

    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES)
        .shards(SHARDS)
        .seed(42)
        .build()
        .expect("valid configuration");
    let (built_bytes, built_allocs) = live();
    let calls_before = CALLS.load(Relaxed);

    let mut rng = SimRng::new(7);
    for round in 0..ROUNDS {
        for _ in 0..OPS_PER_ROUND {
            let mut client = cluster.client(ProcessId(rng.next_u64() % PROCESSES as u64));
            if rng.next_u64() & 1 == 0 {
                client.enqueue(round).expect("active process");
            } else {
                client.dequeue().expect("active process");
            }
        }
        cluster.run_round();
    }

    let open = cluster.open_requests() as isize;
    assert!(
        open * 4 > OPS * 3,
        "the load must end with most requests still in flight, {open} of {OPS} are"
    );
    let (bytes, allocs) = live();
    let bytes_per_open = (bytes - built_bytes) / open;
    let allocs_per_open_x100 = (allocs - built_allocs) * 100 / open;
    hold(
        "live bytes per open request at the end of the load",
        bytes_per_open,
        BYTES_PER_OPEN_REQUEST,
    );
    hold(
        "live allocations per 100 open requests at the end of the load",
        allocs_per_open_x100,
        ALLOCS_PER_OPEN_REQUEST_X100,
    );

    cluster
        .run_until_all_complete(50_000)
        .expect("the load drains");
    let calls_per_op_x10 = (CALLS.load(Relaxed) - calls_before) * 10 / OPS;
    hold(
        "allocator calls per 10 operations, load and drain",
        calls_per_op_x10,
        ALLOCATOR_CALLS_PER_OP_X10,
    );
    println!(
        "{open} of {OPS} requests open at the end of the load: {bytes_per_open} B and {}.{:02} \
         allocations each; {}.{} allocator calls per operation",
        allocs_per_open_x100 / 100,
        allocs_per_open_x100 % 100,
        calls_per_op_x10 / 10,
        calls_per_op_x10 % 10
    );

    assert_eq!(cluster.history().len() as isize, OPS);
    check_queue_sharded(cluster.history(), &cluster.shard_map()).assert_consistent();
    assert!(
        over_budget.is_empty(),
        "over budget:\n  {}",
        over_budget.join("\n  ")
    );
}
