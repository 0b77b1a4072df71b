//! Memory budget of *set-up*, held by a counting allocator with a
//! high-water mark — the transient half of `tests/memory_budget.rs`, which
//! holds what the built cluster keeps.
//!
//! A build needs the starting overlay only while it hands every node its
//! views: the sorted cycle of Definition 2 and the index into it, per
//! shard.  What that costs at its peak *above* the built cluster decides
//! how far below the machine's memory a paper-scale cluster (n = 10⁵) has to
//! stay, and it is where a second index beside the cycle — a hash table, a
//! whole-system `Vec` of views — would show.  This test builds two clusters
//! and holds the peak live heap above the finished cluster, per process,
//! under a written-down budget (the measured value plus 15 %), and the
//! finished cluster's own bytes per process as the check that nothing was
//! moved out of the transient part into the resident one.
//!
//! One test function only: the counts are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use skueue::prelude::*;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn grow(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap above the built cluster, per process: the sorted cycle
/// (three 24-byte entries), the process list (8 B) and the positional index
/// (three `u32`s) — 92 B measured at both sizes; 182 / 216 B with the rank
/// hash map.
const PEAK_ABOVE_BUILT_PER_PROCESS: isize = 106;
/// Live heap of the built cluster per process, (n = 1000, S = 1) and
/// (n = 3000, S = 8): 2609 / 2740 B measured.  Held within 2 % — less than
/// the overlay's 92 B — because this is the check that set-up memory was
/// freed and not handed to the cluster; `memory_budget.rs` holds the figure
/// itself.
const BUILT_PER_PROCESS: [isize; 2] = [2661, 2794];

#[test]
fn a_build_holds_little_more_than_the_cluster_it_builds() {
    let mut failures = Vec::new();
    for ((processes, shards), built_budget) in
        [(1000, 1), (3000, 8)].into_iter().zip(BUILT_PER_PROCESS)
    {
        let before = LIVE_BYTES.load(Relaxed);
        PEAK_BYTES.store(before, Relaxed);
        let cluster = Skueue::<u64>::builder()
            .processes(processes)
            .shards(shards)
            .seed(42)
            .build()
            .expect("valid configuration");
        let built = LIVE_BYTES.load(Relaxed);
        let peak = PEAK_BYTES.load(Relaxed);
        drop(cluster);

        let n = processes as isize;
        let above = (peak - built) / n;
        let resident = (built - before) / n;
        println!(
            "n = {processes}, S = {shards}: peak {above} B/process above the built cluster, \
             built {resident} B/process"
        );
        if above > PEAK_ABOVE_BUILT_PER_PROCESS {
            failures.push(format!(
                "n = {processes}, S = {shards}: the build peaked {above} B per process above \
                 the built cluster, budget {PEAK_ABOVE_BUILT_PER_PROCESS}"
            ));
        }
        if resident > built_budget {
            failures.push(format!(
                "n = {processes}, S = {shards}: the built cluster holds {resident} B per \
                 process, budget {built_budget}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
