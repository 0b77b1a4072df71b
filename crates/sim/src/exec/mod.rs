//! Execution backends for the round loop.
//!
//! PR 4 made anchor shards independent by construction: every protocol
//! message stays inside its shard's lane, so the per-round work of different
//! lanes is embarrassingly parallel.  This module supplies the machinery
//! that lets [`crate::Simulation`] exploit that:
//!
//! * [`ExecMode`] — the user-facing switch between the classic
//!   single-threaded backend and the parallel lane backend,
//! * `pool` — the persistent worker pool that executes one lane's round on
//!   a dedicated OS thread and hands the lane back over a channel, forming
//!   the deterministic round barrier.
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

/// Which backend executes the simulation's lanes each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// All lanes run on the calling thread, in lane order (the classic
    /// backend; the default).
    #[default]
    SingleThread,
    /// Lanes are fanned out to a persistent pool of worker threads and
    /// recombined behind a deterministic round barrier.  Lane `l` always
    /// runs on worker `l % threads`, so the mapping — and the merged
    /// history — is independent of scheduling.
    Parallel {
        /// Number of worker threads (values `<= 1` behave like
        /// [`ExecMode::SingleThread`]).
        threads: usize,
    },
}

impl ExecMode {
    /// Normalises a thread count into a mode: `0` and `1` select the
    /// single-threaded backend.
    pub fn from_threads(threads: usize) -> Self {
        if threads <= 1 {
            ExecMode::SingleThread
        } else {
            ExecMode::Parallel { threads }
        }
    }

    /// The number of OS threads the mode asks for (1 for single-threaded).
    pub fn threads(&self) -> usize {
        match *self {
            ExecMode::SingleThread => 1,
            ExecMode::Parallel { threads } => threads.max(1),
        }
    }

    /// True for the parallel backend with at least two workers.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }
}

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
    fn exec_mode_normalisation() {
        assert_eq!(ExecMode::from_threads(0), ExecMode::SingleThread);
        assert_eq!(ExecMode::from_threads(1), ExecMode::SingleThread);
        assert_eq!(ExecMode::from_threads(4), ExecMode::Parallel { threads: 4 });
        assert_eq!(ExecMode::default().threads(), 1);
        assert_eq!(ExecMode::Parallel { threads: 8 }.threads(), 8);
        assert!(!ExecMode::SingleThread.is_parallel());
        assert!(ExecMode::Parallel { threads: 2 }.is_parallel());
        assert!(!ExecMode::Parallel { threads: 1 }.is_parallel());
    }

    #[test]
    fn thread_tokens_are_stable_per_thread_and_distinct_across() {
        let here = thread_token();
        assert_eq!(here, thread_token(), "token must be stable per thread");
        let there = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(here, there, "distinct threads must get distinct tokens");
    }
}
