//! What a wave in flight keeps, held by a counting allocator at today's
//! figure: the load of `tests/inflight_memory.rs` (600 processes, 4 shards,
//! 200 operations a round for 60 rounds, most of them still open when the
//! load ends), with the budget at the measured value plus 15 %.
//!
//! A node keeps of each in-flight wave one 4-byte ring slot, a 16-byte memo
//! record per sub-batch with runs (its own batch only when it has runs) and
//! a 4-byte length per run: the live heap per open request fell from 491 B
//! to 362 B when the ring stopped storing epochs, parents and run counts,
//! the records narrowed, empty own batches went unrecorded and the
//! per-node GET scratch vector went.  The allocator calls per operation
//! stay at or under the figure before that change.
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

const PROCESSES: usize = 600;
const SHARDS: usize = 4;
const OPS_PER_ROUND: usize = 200;
const ROUNDS: u64 = 60;
const OPS: isize = OPS_PER_ROUND as isize * ROUNDS as isize;

/// Live heap per open request when the load ends, beyond what the built
/// cluster held (362 B measured).
const BYTES_PER_OPEN_REQUEST: isize = 416;
/// Allocator calls (`alloc` + `realloc`) per 10 operations from the first
/// request to the drained cluster: no more than the 23.9 per operation
/// measured before the wave state shrank (23.8 measured).
const ALLOCATOR_CALLS_PER_OP_X10: isize = 239;

#[test]
fn a_wave_in_flight_keeps_only_what_stage_3_reads() {
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES)
        .shards(SHARDS)
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
        open * 4 > OPS * 3,
        "the load must end with most requests still in flight, {open} of {OPS} are"
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
    check_queue_sharded(cluster.history(), &cluster.shard_map()).assert_consistent();
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
