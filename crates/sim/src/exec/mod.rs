//! Execution backends for the round loop.
//!
//! PR 4 made anchor shards independent by construction: every protocol
//! message stays inside its shard's lane, so the per-round work of different
//! lanes is embarrassingly parallel.  This module supplies the machinery
//! that lets [`crate::Simulation`] exploit that:
//!
//! * `pool` — the persistent worker pool that executes one lane's round on
//!   a dedicated OS thread and hands the lane back over a channel, forming
//!   the deterministic round barrier (lane `l` always runs on worker
//!   `l % threads`),
//! * `thread_token` — which OS thread ran a lane, for the tests that assert
//!   lanes really spread over threads.
//!
//! The switch is [`crate::Simulation::enable_parallel`]: a thread count,
//! where 0 and 1 mean the calling thread.
//!
//! Determinism contract: the pool moves whole lanes (boxed) between threads;
//! a lane's round is computed entirely by lane-owned state, and the driver
//! recombines per-lane outputs in fixed lane order after the barrier.  The
//! schedule of *threads* therefore never influences the schedule of
//! *messages* — the merged history is byte-identical to the single-threaded
//! backend's, whatever the thread count.

pub(crate) mod pool;

pub use pool::{RoundTask, WorkerPool};

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_THREAD_TOKEN: AtomicU64 = AtomicU64::new(1);

std::thread_local! {
    static THREAD_TOKEN: u64 = NEXT_THREAD_TOKEN.fetch_add(1, Ordering::Relaxed);
}

/// A small process-unique token for the current thread (stable `ThreadId`
/// numbering is unstable in std).  Used to report which OS thread executed
/// each lane, so tests and CI can assert that lanes really ran on distinct
/// threads.
pub(crate) fn thread_token() -> u64 {
    THREAD_TOKEN.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_tokens_are_stable_per_thread_and_distinct_across() {
        let here = thread_token();
        assert_eq!(here, thread_token(), "token must be stable per thread");
        let there = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(here, there, "distinct threads must get distinct tokens");
    }
}
