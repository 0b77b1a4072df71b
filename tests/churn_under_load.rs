//! Membership under load: every join integrates and every leave finishes
//! while requests keep flowing.
//!
//! One driver, two sizes.  Setup: n = 1000, one shard, builder seed 42,
//! synchronous delivery.  Every round issues 100 operations at uniformly
//! drawn processes (insert ratio ½), and every `every` rounds one process
//! joins and one drawn process leaves.  The driver's draws come from a
//! SplitMix64 stream whose initial state is `stream`.  After the load the
//! cluster gets 5 000 rounds to complete every request and 5 000 more for
//! every joiner to integrate and every leaver to go.
//!
//! * `a_joiner_whose_responsible_node_leaves_still_integrates` is the
//!   regression test (600 rounds, a join and a leave every 50).  A leaving
//!   node used to withhold its `LeaveRequest` while it was responsible for a
//!   joiner.  When that node was a middle node whose left sibling had already
//!   been absorbed, its tree parent was draining, no later `UpdateFlag`
//!   reached it, and it neither integrated the joiner nor left: 117 requests
//!   stayed open.
//! * `churn_under_load_grid` sweeps every × stream over 3 000 rounds and
//!   holds the cases that do not drain to an explicit list, so that a case
//!   that starts draining fails as loudly as one that stops.  It is
//!   `#[ignore]`d and runs as its own CI step: `cargo test --release --test
//!   churn_under_load -- --ignored --nocapture`.

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

/// Runs the driver for `rounds` rounds of load, with one join and one leave
/// every `every` rounds, then drains.
fn drive(every: u64, stream: u64, rounds: u64) -> Outcome {
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES as usize)
        .seed(42)
        .build()
        .unwrap();
    let mut draws = Draws(stream);
    let (mut joiners, mut leavers) = (Vec::new(), Vec::new());
    for r in 0..rounds {
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
    // A run that does not drain is reported, not unwrapped: the grid
    // compares it against its list.
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
        drain_rounds: cluster.round() - rounds,
    }
}

#[test]
fn a_joiner_whose_responsible_node_leaves_still_integrates() {
    let outcome = drive(50, 1, 600);
    assert_eq!(outcome.open, 0, "requests still open");
    assert_eq!(
        outcome.stuck_joiners,
        Vec::<u64>::new(),
        "joiners never integrated"
    );
    assert_eq!(
        outcome.stuck_leavers,
        Vec::<u64>::new(),
        "leavers never left"
    );
    assert!(outcome.consistent, "check_queue found violations");
    println!("drained {} rounds after the load", outcome.drain_rounds);
}

/// `(every, stream)` cases of the grid that do not drain: none.  The cases
/// where an absorber kept a leaver's store although a joiner spliced in
/// between owned it drain since the absorber hands that store on.  (100, 2)
/// drains since churn is reported again once it can be flagged: its
/// grantors hung below a middle node whose left sibling had been absorbed,
/// so the phases their counts started flagged a tree that did not reach
/// them.  That middle node now hands the counts it forwarded to its
/// absorber, which reports them once the subtree hangs below it.
const KNOWN_STUCK: [(u64, u64); 0] = [];

#[test]
#[ignore = "runs as its own CI step (timeout-bounded); use -- --ignored"]
fn churn_under_load_grid() {
    let mut surprises = Vec::new();
    for every in [50, 100, 1000] {
        for stream in 1..=6 {
            let outcome = drive(every, stream, 3_000);
            println!(
                "every {every:>4} stream {stream}: open {:>5}, stuck joiners {:?}, \
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
