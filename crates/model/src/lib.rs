//! # skueue-model — the real cluster, searched
//!
//! The churn sweeps in `tests/` sample long random runs; this crate checks
//! every short one, on the real `skueue-core` node:
//!
//! * `replay` — [`replay_on_cluster`] runs a [`ReplayScenario`] line
//!   (requests, joins, leaves, round advances) on a real cluster and checks
//!   the oracle: exactly-once completion, no element returned twice, no
//!   unmatched DHT reply, every joiner active and every leaver gone within
//!   20 000 rounds, and Definition 1 on the history;
//! * `search` — [`search()`] enumerates every valid line of up to two steps
//!   over a small alphabet at P ∈ {3, 4} and D ∈ {0, 2, 3}, replays each
//!   under 100 delivery seeds when delivery is asynchronous, and reports
//!   a table of failing seeds per row, held to [`KNOWN_STUCK`];
//! * `shrink` — [`shrink()`], ddmin over a failing line's steps.
//!
//! See `MODEL.md` at the repository root for the alphabet, the oracle, the
//! committed table and the mutation gate.
//!
//! [`ReplayScenario`]: skueue_sim::replay::ReplayScenario

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod replay;
mod search;
mod shrink;

pub use replay::{replay_on_cluster, ReplayReport};
pub use search::{search, table, Row, KNOWN_STUCK};
pub use shrink::shrink;
