//! Membership under load, asynchronous: the grid of `churn_under_load.rs`
//! under non-FIFO delivery with delays in `[1, 3]` rounds.
//!
//! The driver is `churn_under_load`'s (repeated here: test files do not
//! share code): n = 1000, one shard, builder seed 42, 100 operations per
//! round at uniformly drawn processes (insert ratio ½), one join and one
//! leave of a drawn process every `every` rounds, draws from SplitMix64
//! seeded with `stream`; after 3 000 load rounds the cluster gets 5 000
//! rounds to complete every request and 5 000 more for every joiner to
//! integrate and every leaver to go.  The one difference is
//! `.asynchronous(3)` on the builder.
//!
//! Ten of the 18 cases do not drain ([`KNOWN_STUCK`]).  Two stand out:
//!
//! * `(50, 3)` leaves 146 008 requests open — the cluster stops serving
//!   almost at once, not one transition at the end;
//! * `(100, 4)` leaves 68 requests open with no stuck joiner or leaver: a
//!   stall at the request level, not a membership transition that never
//!   finishes.
//!
//! The test prints one outcome line per case and fails if the set of cases
//! that do not drain differs from [`KNOWN_STUCK`], so a case that starts
//! draining fails as loudly as one that stops.  It is `#[ignore]`d and runs
//! as its own CI step (≈ 40 s in release on 2 vCPUs): `cargo test --release
//! --test churn_async_grid -- --ignored --nocapture`.

use skueue::prelude::*;

/// The driver's draw stream: SplitMix64 from `state`.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a run left behind.
struct Outcome {
    /// Requests issued and never completed.
    open: u64,
    /// Joiners that never became active.
    stuck_joiners: Vec<u64>,
    /// Leavers that never left.
    stuck_leavers: Vec<u64>,
    /// The `check_queue` verdict on the history.
    consistent: bool,
    /// Rounds the run took after the load stopped.
    drain_rounds: u64,
}

impl Outcome {
    fn is_clean(&self) -> bool {
        self.open == 0
            && self.stuck_joiners.is_empty()
            && self.stuck_leavers.is_empty()
            && self.consistent
    }
}

const PROCESSES: u64 = 1000;
const OPS_PER_ROUND: usize = 100;
const DRAIN_ROUNDS: u64 = 5_000;
const LOAD_ROUNDS: u64 = 3_000;

/// Runs the driver for `LOAD_ROUNDS` rounds of load, with one join and one
/// leave every `every` rounds, then drains.
fn drive(every: u64, stream: u64) -> Outcome {
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES as usize)
        .seed(42)
        .asynchronous(3)
        .build()
        .unwrap();
    let mut draws = Draws(stream);
    let (mut joiners, mut leavers) = (Vec::new(), Vec::new());
    for r in 0..LOAD_ROUNDS {
        for _ in 0..OPS_PER_ROUND {
            let p = ProcessId(draws.next() % (PROCESSES + joiners.len() as u64));
            let insert = draws.next().is_multiple_of(2);
            if cluster.process_may_issue(p) {
                let mut client = cluster.client(p);
                if insert {
                    client.enqueue(r).unwrap();
                } else {
                    client.dequeue().unwrap();
                }
            }
        }
        if r % every == every - 1 {
            joiners.push(cluster.join(None).unwrap());
            loop {
                let p = ProcessId(draws.next() % PROCESSES);
                if cluster.process_may_issue(p) && cluster.leave(p).is_ok() {
                    leavers.push(p);
                    break;
                }
            }
        }
        cluster.run_round();
    }
    let _ = cluster.run_until_all_complete(DRAIN_ROUNDS);
    let _ = cluster.run_until(
        |c| {
            joiners.iter().all(|&p| c.process_is_active(p))
                && leavers.iter().all(|&p| c.process_has_left(p))
        },
        DRAIN_ROUNDS,
    );
    Outcome {
        open: cluster.open_requests(),
        stuck_joiners: joiners
            .iter()
            .filter(|&&p| !cluster.process_is_active(p))
            .map(|p| p.0)
            .collect(),
        stuck_leavers: leavers
            .iter()
            .filter(|&&p| !cluster.process_has_left(p))
            .map(|p| p.0)
            .collect(),
        consistent: check_queue(cluster.history()).is_consistent(),
        drain_rounds: cluster.round() - LOAD_ROUNDS,
    }
}

/// `(every, stream)` cases that do not drain under asynchronous delivery.
/// A membership fix that un-sticks one must take it off this list.
const KNOWN_STUCK: [(u64, u64); 10] = [
    (50, 1),
    (50, 2),
    (50, 3),
    (50, 4),
    (50, 6),
    (100, 1),
    (100, 4),
    (1000, 2),
    (1000, 3),
    (1000, 6),
];

#[test]
#[ignore = "runs as its own CI step (timeout-bounded); use -- --ignored"]
fn churn_async_grid() {
    let mut surprises = Vec::new();
    for every in [50, 100, 1000] {
        for stream in 1..=6 {
            let outcome = drive(every, stream);
            println!(
                "every {every:>4} stream {stream}: open {:>6}, stuck joiners {:?}, \
                 stuck leavers {:?}, consistent {}, drain rounds {}",
                outcome.open,
                outcome.stuck_joiners,
                outcome.stuck_leavers,
                outcome.consistent,
                outcome.drain_rounds
            );
            let listed = KNOWN_STUCK.contains(&(every, stream));
            if outcome.is_clean() == listed {
                surprises.push((every, stream, outcome.is_clean()));
            }
        }
    }
    assert!(
        surprises.is_empty(),
        "(every, stream, drained) cases that disagree with KNOWN_STUCK: {surprises:?}"
    );
}
