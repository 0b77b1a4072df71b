//! The persistent worker pool behind [`crate::Simulation`]'s parallel
//! backend.
//!
//! One pool owns `threads` OS threads.  Each round the driver *moves* every
//! lane (a boxed [`RoundTask`]) to its worker over that worker's private job
//! channel, and the workers hand finished lanes back over one shared results
//! channel.  The driver waits until all lanes have returned — that wait
//! **is** the deterministic round barrier: no lane can observe round `r + 1`
//! state before every lane has finished round `r`.
//!
//! Lane `l` is always dispatched to worker `l % threads`, so the
//! lane→thread mapping is a pure function of the configuration; thread
//! scheduling can change *when* a lane runs, never *what* it computes.
//!
//! Both directions are `std::sync::mpsc` channels: a worker blocks in `recv`
//! while it has no lane, the driver blocks in `recv` at the barrier.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A unit of per-round work that can be shipped to a worker thread.
pub trait RoundTask: Send + 'static {
    /// Executes this task's share of round `round`.
    fn run_task(&mut self, round: u64);
}

struct Job<J> {
    idx: usize,
    task: Box<J>,
    round: u64,
}

/// A persistent pool of worker threads executing [`RoundTask`]s.
///
/// The pool is generic without bounds so it can live inside
/// `Simulation<A>` unconditionally; only `WorkerPool::new` requires the
/// task to actually be shippable.
pub struct WorkerPool<J> {
    /// One job channel per worker; dropping them is the stop signal.
    jobs: Vec<Sender<Job<J>>>,
    /// Finished tasks, or the payload of the panic that ended one.
    results: Receiver<std::thread::Result<(usize, Box<J>)>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: RoundTask> WorkerPool<J> {
    /// Spawns `threads` workers.
    pub(crate) fn new(threads: usize) -> Self {
        let (done, results) = channel();
        let mut jobs = Vec::new();
        let mut handles = Vec::new();
        for w in 0..threads.max(1) {
            let (tx, rx) = channel::<Job<J>>();
            let done = done.clone();
            let handle = std::thread::Builder::new()
                .name(format!("skueue-lane-{w}"))
                .spawn(move || {
                    // Ends when the pool drops this worker's job sender.
                    for Job {
                        idx,
                        mut task,
                        round,
                    } in rx
                    {
                        // A panicking lane is handed to the driver instead of
                        // killing the worker silently: the other workers keep
                        // their `done` senders alive, so the driver's `recv`
                        // would otherwise block forever on the lost lane.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            task.run_task(round);
                            (idx, task)
                        }));
                        if done.send(outcome).is_err() {
                            break; // the pool is gone; nobody is waiting
                        }
                    }
                })
                .expect("failed to spawn lane worker thread");
            jobs.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            jobs,
            results,
            handles,
        }
    }
}

impl<J> WorkerPool<J> {
    /// Number of worker threads.
    pub(crate) fn worker_count(&self) -> usize {
        self.jobs.len()
    }

    /// Ships task `idx` to its worker (`idx % worker_count`) for `round`.
    pub(crate) fn submit(&mut self, idx: usize, task: Box<J>, round: u64) {
        let w = idx % self.jobs.len();
        self.jobs[w]
            .send(Job { idx, task, round })
            .expect("lane workers run until the pool is dropped");
    }

    /// Waits for the next finished task.  Re-raises the panic of a task that
    /// panicked on its worker — the simulation cannot continue with a lost
    /// lane.
    pub(crate) fn collect_one(&mut self) -> (usize, Box<J>) {
        match self
            .results
            .recv()
            .expect("lane workers run until the pool is dropped")
        {
            Ok(finished) => finished,
            Err(panic) => resume_unwind(panic),
        }
    }
}

impl<J> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            // Workers catch their tasks' panics, so a join error could only
            // repeat one `collect_one` already raised; `drop` must not panic.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::thread_token;
    use std::time::Duration;

    struct Doubler {
        input: u64,
        output: u64,
        ran_on: u64,
    }

    impl RoundTask for Doubler {
        fn run_task(&mut self, round: u64) {
            self.output = self.input * 2 + round;
            self.ran_on = thread_token();
        }
    }

    #[test]
    fn pool_runs_tasks_and_returns_them() {
        let mut pool: WorkerPool<Doubler> = WorkerPool::new(3);
        assert_eq!(pool.worker_count(), 3);
        for repeat in 0..50u64 {
            for idx in 0..8usize {
                pool.submit(
                    idx,
                    Box::new(Doubler {
                        input: idx as u64,
                        output: 0,
                        ran_on: 0,
                    }),
                    repeat,
                );
            }
            let mut seen = [false; 8];
            for _ in 0..8 {
                let (idx, task) = pool.collect_one();
                assert!(!seen[idx], "task {idx} returned twice");
                seen[idx] = true;
                assert_eq!(task.output, idx as u64 * 2 + repeat);
                assert_ne!(task.ran_on, 0);
                assert_ne!(
                    task.ran_on,
                    thread_token(),
                    "task must have run off the driver thread"
                );
            }
        }
    }

    #[test]
    fn distinct_workers_get_distinct_threads() {
        let mut pool: WorkerPool<Doubler> = WorkerPool::new(2);
        for idx in 0..4usize {
            pool.submit(
                idx,
                Box::new(Doubler {
                    input: 0,
                    output: 0,
                    ran_on: 0,
                }),
                1,
            );
        }
        let mut token_of_worker = [0u64; 2];
        for _ in 0..4 {
            let (idx, task) = pool.collect_one();
            let w = idx % 2;
            if token_of_worker[w] == 0 {
                token_of_worker[w] = task.ran_on;
            } else {
                assert_eq!(
                    token_of_worker[w], task.ran_on,
                    "worker {w} must be a persistent thread"
                );
            }
        }
        assert_ne!(token_of_worker[0], token_of_worker[1]);
    }

    #[test]
    fn drop_shuts_workers_down() {
        let pool: WorkerPool<Doubler> = WorkerPool::new(4);
        drop(pool); // must not hang
    }

    struct Bomb {
        armed: bool,
    }

    impl RoundTask for Bomb {
        fn run_task(&mut self, _round: u64) {
            if self.armed {
                panic!("lane blew up");
            }
        }
    }

    #[test]
    fn a_panicking_task_panics_the_driver_instead_of_hanging() {
        // The pool is driven from a helper thread so that a regression — the
        // driver blocked in `recv` because the healthy worker still holds a
        // sender — fails this test instead of hanging the suite.
        let (verdict_tx, verdict_rx) = channel();
        std::thread::spawn(move || {
            let mut pool: WorkerPool<Bomb> = WorkerPool::new(2);
            pool.submit(0, Box::new(Bomb { armed: false }), 1);
            pool.submit(1, Box::new(Bomb { armed: true }), 1);
            let collected = catch_unwind(AssertUnwindSafe(|| {
                pool.collect_one();
                pool.collect_one();
            }));
            let message = collected
                .err()
                .and_then(|panic| panic.downcast_ref::<&str>().map(|m| m.to_string()));
            let _ = verdict_tx.send(message);
        });
        let message = verdict_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("collecting a panicked lane must not block");
        assert_eq!(
            message.as_deref(),
            Some("lane blew up"),
            "the driver must re-raise the lane's own panic"
        );
    }
}
