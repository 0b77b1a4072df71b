//! The scenario search: every short line over a small alphabet, replayed on
//! real clusters.
//!
//! A row is a process count P, a delay D and a step list; [`search`] runs
//! each row's line through [`replay_on_cluster`] once when delivery is
//! synchronous (D = 0, seed 0) and under `SEEDS` delivery seeds
//! (0, 1, …) otherwise, and counts the seeds whose line fails.

use crate::replay::{is_valid, replay_on_cluster};
use skueue_sim::replay::{ReplayScenario, ReplayStep};

/// Delivery seeds per asynchronous row.
const SEEDS: u64 = 100;

/// Initial process counts the search covers.
const PROCESSES: [u64; 2] = [3, 4];

/// Message delays the search covers (`0` = synchronous).
const DELAYS: [u64; 3] = [0, 2, 3];

/// Longest step list the search enumerates.
const MAX_STEPS: usize = 2;

/// The search's table as it stands: every row with a failing seed, and how
/// many of its seeds fail.  Each is a joiner that never becomes active or a
/// leaver that never leaves; no row fails on a request or on Definition 1.
/// The search test holds [`table`] to exactly this list, so a row that
/// starts or stops draining fails it.
pub const KNOWN_STUCK: &[(&str, u64)] = &[
    ("P3 D2 | L1", 8),
    ("P3 D2 | L1 d2", 1),
    ("P3 D3 | L1", 9),
    ("P3 D3 | J J", 1),
    ("P3 D3 | J L1", 1),
    ("P3 D3 | d2 L1", 1),
    ("P3 D3 | L1 d2", 4),
    ("P4 D0 | J L3", 1),
    ("P4 D0 | L3 J", 1),
    ("P4 D2 | J L3", 80),
    ("P4 D2 | L3 J", 64),
    ("P4 D3 | J L3", 71),
    ("P4 D3 | e1 L1", 1),
    ("P4 D3 | L3 J", 51),
];

/// One row of the search's table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `P<processes> D<delay> | <steps>`, the row's line without its seed.
    pub label: String,
    /// Seeds the row ran: 1 when delivery is synchronous, else 100.
    pub seeds: u64,
    /// Seeds whose line fails.
    pub failing: u64,
    /// The first failing line (with its seed) and what failed.
    pub first_failure: Option<(String, String)>,
}

/// The alphabet at P processes: a join, an enqueue at process 1, a dequeue
/// at process 2 and the leave of each process but the anchor's.
fn alphabet(processes: u64) -> Vec<ReplayStep> {
    [
        ReplayStep::Join,
        ReplayStep::Enqueue(1),
        ReplayStep::Dequeue(2),
    ]
    .into_iter()
    .chain((1..processes).map(ReplayStep::Leave))
    .collect()
}

/// Every valid line of 1 to [`MAX_STEPS`] steps over the alphabet at
/// `processes` and `delay`, with seed 0, shorter lines first.
fn lines(processes: u64, delay: u64) -> Vec<ReplayScenario> {
    let alphabet = alphabet(processes);
    let mut frontier = vec![ReplayScenario {
        processes,
        seed: 0,
        max_delay: delay,
        steps: Vec::new(),
    }];
    let mut lines = Vec::new();
    for _ in 0..MAX_STEPS {
        frontier = frontier
            .iter()
            .flat_map(|line| {
                alphabet.iter().map(move |&step| {
                    let mut next = line.clone();
                    next.steps.push(step);
                    next
                })
            })
            .filter(is_valid)
            .collect();
        lines.extend_from_slice(&frontier);
    }
    lines
}

/// Runs one row: its line under every seed the delay calls for.
fn run_row(line: ReplayScenario) -> Row {
    let compact = line.to_compact();
    let (_, steps) = compact.split_once('|').expect("a compact line has a `|`");
    let label = format!("P{} D{} |{steps}", line.processes, line.max_delay);
    let seeds = if line.max_delay == 0 { 1 } else { SEEDS };
    let mut row = Row {
        label,
        seeds,
        failing: 0,
        first_failure: None,
    };
    for seed in 0..seeds {
        let scenario = ReplayScenario {
            seed,
            ..line.clone()
        };
        if let Err(error) = replay_on_cluster(&scenario) {
            row.failing += 1;
            row.first_failure
                .get_or_insert_with(|| (scenario.to_compact(), error));
        }
    }
    row
}

/// Runs every row, in the order P, D, step list.
pub fn search() -> Vec<Row> {
    PROCESSES
        .iter()
        .flat_map(|&p| DELAYS.iter().flat_map(move |&d| lines(p, d)))
        .map(run_row)
        .collect()
}

/// The rows of `rows` with a failing seed, as `(label, failing seeds)`.
pub fn table(rows: &[Row]) -> Vec<(String, u64)> {
    rows.iter()
        .filter(|row| row.failing > 0)
        .map(|row| (row.label.clone(), row.failing))
        .collect()
}
