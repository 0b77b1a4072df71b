//! What a wave in flight keeps now that its memo is bytes, held by a
//! counting allocator at today's figures on two loads, each budget at the
//! measured value plus 3 %:
//!
//! - the Fig. 2-shaped load of `tests/relay_memory.rs` and
//!   `tests/wave_ring_memory.rs` (3 000 processes, one shard, 10 operations
//!   a round for 300 rounds, seed 42), where most virtual nodes on an
//!   operation's path only combine and forward;
//! - the `sim_heavy`-shaped load of `tests/wave_memory.rs` (600 processes,
//!   4 shards, 200 operations a round for 60 rounds), where most requests
//!   are still open when the load ends.
//!
//! A node memorises how each of its waves in flight was combined in one
//! ring of bytes: per source a tag (the node's own batch, or the child's
//! lane rank), its run count, a child's epoch and its run lengths, each an
//! LEB128 varint, and an end byte per wave.  Nearly every one of those
//! numbers is below 128, so nearly every one takes a byte.  Measured in
//! release builds: 1 207 and 204 B of live heap per open request at the
//! end of the two loads, 79.11 and 21.14 allocator calls per operation
//! (debug builds log each request's kind too: 1 229 and 214 B).  When the
//! ring held a 4-byte word per number (a header per wave, the epoch as two
//! words), the first two figures were 1 628 and 268 B in release builds,
//! over the budgets below.
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

/// A load: its cluster, its operations and its budgets.
struct Load {
    name: &'static str,
    processes: usize,
    shards: usize,
    ops_per_round: usize,
    rounds: u64,
    /// Live heap per open request when the load ends, beyond what the
    /// built cluster held, in this build.
    bytes_per_open_request: isize,
    /// Allocator calls (`alloc` + `realloc`) per 100 operations from the
    /// first request to the drained cluster.
    allocator_calls_per_op_x100: isize,
}

const LOADS: [Load; 2] = [
    Load {
        name: "relay (n = 3000, S = 1, 10 ops a round)",
        processes: 3000,
        shards: 1,
        ops_per_round: 10,
        rounds: 300,
        // 1 207 B (1 229 B in debug builds) and 79.11 calls measured.
        bytes_per_open_request: per_build(1243, 1266),
        allocator_calls_per_op_x100: 8148,
    },
    Load {
        name: "heavy (n = 600, S = 4, 200 ops a round)",
        processes: 600,
        shards: 4,
        ops_per_round: 200,
        rounds: 60,
        // 204 B (214 B in debug builds) and 21.14 calls measured.
        bytes_per_open_request: per_build(210, 220),
        allocator_calls_per_op_x100: 2177,
    },
];

/// The figure of this build: `release`, or `debug` in a build with debug
/// assertions, whose logged requests keep their kind.
const fn per_build(release: isize, debug: isize) -> isize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// Runs `load` and returns its heap per open request and its allocator
/// calls per 100 operations.
fn measure(load: &Load) -> (isize, isize) {
    let ops = (load.ops_per_round as u64 * load.rounds) as isize;
    let mut cluster = Skueue::<u64>::builder()
        .processes(load.processes)
        .shards(load.shards)
        .seed(42)
        .build()
        .expect("valid configuration");
    let built_bytes = LIVE_BYTES.load(Relaxed);
    let calls_before = CALLS.load(Relaxed);

    let mut rng = SimRng::new(7);
    for round in 0..load.rounds {
        for _ in 0..load.ops_per_round {
            let mut client = cluster.client(ProcessId(rng.next_u64() % load.processes as u64));
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
        open * 10 > ops,
        "{}: the load must end with requests in flight, {open} of {ops} are",
        load.name
    );
    let bytes_per_open = (LIVE_BYTES.load(Relaxed) - built_bytes) / open;

    cluster
        .run_until_all_complete(50_000)
        .expect("the load drains");
    let calls_per_op_x100 = (CALLS.load(Relaxed) - calls_before) * 100 / ops;
    println!(
        "{}: {open} of {ops} requests open at the end of the load, {bytes_per_open} B each; \
         {}.{:02} allocator calls per operation",
        load.name,
        calls_per_op_x100 / 100,
        calls_per_op_x100 % 100
    );
    check_queue_sharded(cluster.history(), &cluster.shard_map()).assert_consistent();
    (bytes_per_open, calls_per_op_x100)
}

#[test]
fn a_wave_in_flight_is_bytes_in_one_ring() {
    let mut over = Vec::new();
    for load in &LOADS {
        let (bytes_per_open, calls_per_op_x100) = measure(load);
        if bytes_per_open > load.bytes_per_open_request {
            over.push(format!(
                "{}: {bytes_per_open} B per open request, budget {} B",
                load.name, load.bytes_per_open_request
            ));
        }
        if calls_per_op_x100 > load.allocator_calls_per_op_x100 {
            over.push(format!(
                "{}: {calls_per_op_x100} allocator calls per 100 operations, budget {}",
                load.name, load.allocator_calls_per_op_x100
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("; "));
}
