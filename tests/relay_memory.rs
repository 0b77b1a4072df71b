//! What a node that only relays its children's sub-batches keeps, held by
//! a counting allocator at today's figure: a Fig. 2-shaped load (3 000
//! processes, one shard, 10 operations a round for 300 rounds), where
//! nearly every operation travels alone and most virtual nodes on its path
//! only combine and forward, with each budget at the measured value plus
//! 15 %.
//!
//! A node's work is two halves: the wave half (ring, memo, queued child
//! sub-batches, stashed serves) and, behind a second pointer inside it, the
//! request half (own batch and log, DHT partition, outstanding GETs,
//! uncollected completions).  A relay holds the first alone, and its child
//! queue grows one sub-batch at a time.  Before the split every node on a
//! wave's path held the whole 360-byte work box and room for four queued
//! sub-batches, and a wave without own operations copied its first
//! sub-batch's runs: 3 108 B of live heap per open request at the end of
//! this load and 105.5 allocator calls per operation, both over the budgets
//! below.
//!
//! One test function only: the counts are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use skueue::prelude::*;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
        CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
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

const PROCESSES: usize = 3000;
const OPS_PER_ROUND: usize = 10;
const ROUNDS: u64 = 300;
const OPS: isize = OPS_PER_ROUND as isize * ROUNDS as isize;

/// Live heap per open request when the load ends, beyond what the built
/// cluster held (2 189 B measured).
const BYTES_PER_OPEN_REQUEST: isize = 2517;
/// Allocator calls (`alloc` + `realloc`) per 10 operations from the first
/// request to the drained cluster (87.0 per operation measured).
const ALLOCATOR_CALLS_PER_OP_X10: isize = 1000;

#[test]
fn a_relay_keeps_its_waves_not_a_work_box() {
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES)
        .seed(42)
        .build()
        .expect("valid configuration");
    let built_bytes = LIVE_BYTES.load(Relaxed);
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
        open * 10 > OPS,
        "the load must end with requests in flight, {open} of {OPS} are"
    );
    let bytes_per_open = (LIVE_BYTES.load(Relaxed) - built_bytes) / open;

    cluster
        .run_until_all_complete(50_000)
        .expect("the load drains");
    let calls_per_op_x10 = (CALLS.load(Relaxed) - calls_before) * 10 / OPS;
    println!(
        "{open} of {OPS} requests open at the end of the load: {bytes_per_open} B each; \
         {}.{} allocator calls per operation",
        calls_per_op_x10 / 10,
        calls_per_op_x10 % 10
    );
    check_queue(cluster.history()).assert_consistent();
    assert!(
        bytes_per_open <= BYTES_PER_OPEN_REQUEST,
        "{bytes_per_open} B per open request, budget {BYTES_PER_OPEN_REQUEST} B"
    );
    assert!(
        calls_per_op_x10 <= ALLOCATOR_CALLS_PER_OP_X10,
        "{calls_per_op_x10} allocator calls per 10 operations, budget \
         {ALLOCATOR_CALLS_PER_OP_X10}"
    );
}
