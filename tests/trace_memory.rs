//! What tracing costs in memory, held by a counting allocator.
//!
//! A node keeps no trace buffer of its own: it reports events through its
//! context, the simulation lends one buffer per lane, and after every round
//! the lanes' events move to the cluster's `TraceLog`.  So turning tracing on
//! must cost a build no more than a constant per lane, and a loaded cluster
//! no more than the log it recorded plus the lanes' buffers — not a
//! preallocated buffer per virtual node (64 KiB each, 196 MB at this size,
//! before the per-lane sink).  This test builds and loads the same cluster
//! untraced and traced and holds the difference under those bounds.
//!
//! One test function only: the counts are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use skueue::prelude::*;
use skueue::trace::TraceRecord;

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

const PROCESSES: usize = 1000;
const SHARDS: usize = 4;

/// What a traced build may hold beyond an untraced one, per lane (0 B
/// measured: a lane's trace buffer is empty until something is recorded).
const BUILD_BYTES_PER_LANE: isize = 1024;
/// What one lane's trace buffer may hold after a drained load: the capacity
/// of its busiest round (10 operations per round here).
const LANE_BUFFER_BYTES: isize = 64 << 10;

/// Live bytes of a cluster traced at `level`: after the build, after a
/// drained load, and the number of trace records it holds then.
fn measure(level: TraceLevel) -> (isize, isize, usize) {
    let before = LIVE_BYTES.load(Relaxed);
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES)
        .shards(SHARDS)
        .seed(42)
        .trace(level)
        .build()
        .expect("valid configuration");
    let built = LIVE_BYTES.load(Relaxed) - before;
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
    let loaded = LIVE_BYTES.load(Relaxed) - before;
    (built, loaded, cluster.trace_log().len())
}

#[test]
fn tracing_costs_what_it_records() {
    let (off_built, off_loaded, off_records) = measure(TraceLevel::Off);
    let (on_built, on_loaded, records) = measure(TraceLevel::Spans);
    assert_eq!(off_records, 0);
    assert!(records > 0, "a traced load recorded nothing");

    let lanes = SHARDS as isize;
    let build_extra = on_built - off_built;
    // The log grows by doubling, so it holds at most twice what it records.
    let log_bytes = 2 * records as isize * size_of::<TraceRecord>() as isize;
    let loaded_extra = on_loaded - off_loaded;
    println!(
        "traced build: {build_extra} B above untraced ({lanes} lanes); traced load: \
         {loaded_extra} B above untraced for {records} records ({} B each)",
        size_of::<TraceRecord>()
    );
    let mut failures = Vec::new();
    if build_extra > lanes * BUILD_BYTES_PER_LANE {
        failures.push(format!(
            "a traced build holds {build_extra} B more than an untraced one, budget \
             {BUILD_BYTES_PER_LANE} B per lane"
        ));
    }
    if loaded_extra > log_bytes + lanes * LANE_BUFFER_BYTES {
        failures.push(format!(
            "a traced load holds {loaded_extra} B more than an untraced one, beyond its \
             {records}-record log ({log_bytes} B at most) and {LANE_BUFFER_BYTES} B per lane"
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
