//! What a wave in flight keeps, held by a counting allocator at today's
//! figure: `relay_memory`'s Fig. 2-shaped load (3 000 processes, one shard,
//! 10 operations a round for 300 rounds, seed 42), where most virtual nodes
//! on an operation's path only combine and forward, with each budget at
//! the measured value plus 3 %.
//!
//! A node memorises its waves in flight and how each was combined in one
//! ring of `u32` words: per wave a header with its number of sources, per
//! source the child's lane rank, its number of runs, the child's epoch as
//! two words and its run lengths.  So a node holds one memo allocation,
//! and its wave half is 112 B.  Measured: 1 627 B of live heap per open
//! request at the end of the load and 81.6 allocator calls per operation.
//! When a ring of 4-byte wave slots, a deque of 16-byte source records and
//! a deque of run lengths held the same (a 168 B wave half, three
//! allocations a node), the figures were 1 811 B and 84.0 calls, over the
//! byte budget below.
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
/// cluster held (1 627 B measured).
const BYTES_PER_OPEN_REQUEST: isize = 1675;
/// Allocator calls (`alloc` + `realloc`) per 100 operations from the first
/// request to the drained cluster (81.65 per operation measured).
const ALLOCATOR_CALLS_PER_OP_X100: isize = 8409;

#[test]
fn a_wave_in_flight_is_words_in_one_ring() {
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
    let calls_per_op_x100 = (CALLS.load(Relaxed) - calls_before) * 100 / OPS;
    println!(
        "{open} of {OPS} requests open at the end of the load: {bytes_per_open} B each; \
         {}.{:02} allocator calls per operation",
        calls_per_op_x100 / 100,
        calls_per_op_x100 % 100
    );
    check_queue(cluster.history()).assert_consistent();
    let mut over = Vec::new();
    if bytes_per_open > BYTES_PER_OPEN_REQUEST {
        over.push(format!(
            "{bytes_per_open} B per open request, budget {BYTES_PER_OPEN_REQUEST} B"
        ));
    }
    if calls_per_op_x100 > ALLOCATOR_CALLS_PER_OP_X100 {
        over.push(format!(
            "{calls_per_op_x100} allocator calls per 100 operations, budget \
             {ALLOCATOR_CALLS_PER_OP_X100}"
        ));
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}
