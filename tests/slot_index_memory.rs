//! What sharding adds to a build: at `sim_heavy`'s size (n = 3000), a build
//! over eight shards may hold no more live heap than the one-shard build
//! plus an allowance per further shard — held by a counting allocator.
//!
//! A shard is a simulation lane.  The simulation keeps one id→slot index for
//! all its lanes, one `u32` per id, so a further shard costs its lane's
//! buffers, its configuration and its anchor, not a table as long as the id
//! space.  When every lane kept its own id→slot map, each as long as its
//! highest id, the eight-shard build read 175.4 B per virtual node against
//! 131.3 B for one shard: 56 650 B per further shard, which fails here.  The
//! allowance is the measured cost of a further shard, 5 932 B, plus 3 %.
//!
//! One test function only: the counts are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use skueue::prelude::*;

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

const PROCESSES: usize = 3000;
const SHARDS: usize = 8;
/// Live heap a further shard adds to the build, measured.
const SHARD_BYTES_MEASURED: isize = 5932;

/// Live heap of a build of `PROCESSES` processes over `shards` shards.
fn built_bytes(shards: usize) -> isize {
    let before = LIVE_BYTES.load(Relaxed);
    let cluster = Skueue::<u64>::builder()
        .processes(PROCESSES)
        .shards(shards)
        .seed(42)
        .build()
        .expect("valid configuration");
    let bytes = LIVE_BYTES.load(Relaxed) - before;
    drop(cluster);
    bytes
}

#[test]
fn a_further_shard_costs_its_lane_not_an_id_table() {
    let nodes = 3 * PROCESSES as isize;
    let one = built_bytes(1);
    let sharded = built_bytes(SHARDS);
    let per_shard = (sharded - one) / (SHARDS as isize - 1);
    let allowance = SHARD_BYTES_MEASURED * 103 / 100;
    let budget = one + allowance * (SHARDS as isize - 1);
    let tenths = |bytes: isize| bytes * 10 / nodes;
    println!(
        "1 shard {} tenths B/node, {SHARDS} shards {} (budget {}): {per_shard} B per further shard, allowance {allowance}",
        tenths(one),
        tenths(sharded),
        tenths(budget)
    );
    assert!(
        sharded <= budget,
        "{SHARDS} shards hold {sharded} B, {per_shard} B per further shard; \
         1 shard holds {one} B, allowance {allowance} B per further shard"
    );
}
