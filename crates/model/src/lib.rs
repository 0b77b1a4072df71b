//! # skueue-model — exhaustive model checking of the protocol core
//!
//! The churn sweeps in `tests/` sample interleavings; this crate closes the
//! gap the ROADMAP names by checking *all* of them, for a bounded scenario:
//!
//! * `protocol` — a small-n abstraction of the join/leave/update phase
//!   machinery, wave pipelining and re-anchoring as an explicit
//!   `{ State, Action }` transition system ([`machine::Machine`]);
//! * [`mod@explore`] — deterministic BFS over every enabled-action
//!   interleaving, with exact state deduplication and safety checks at
//!   every state;
//! * `props` — the safety properties plus an LTL-ish combinator layer
//!   ([`props::eventually`], [`props::leads_to`]) for
//!   liveness over the finished reachability graph, with Definition 1
//!   checked by the real `skueue-verify` checkers on terminal histories;
//! * `shrink` — ddmin-style counterexample minimisation and projection
//!   to a serialisable [`skueue_sim::replay::ReplayScenario`];
//! * `conformance` — lockstep validation of the abstraction against the
//!   real `skueue-core` cluster, and the replay harness the regression
//!   tests use to re-execute pinned counterexample scenarios.
//!
//! See `MODEL.md` at the repository root for the abstraction's scope, the
//! bound-coverage argument and how to extend the properties for the
//! Skeap/Seap companion protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conformance;
pub mod explore;
mod machine;
mod props;
mod protocol;
mod shrink;

pub use conformance::{replay_on_cluster, run_conformance, ConformanceReport, ReplayReport};
pub use explore::{
    explore, reachable_exists, Counterexample, Exploration, ExploreConfig, SafetyProp,
};
pub use machine::{replay, Machine};
pub use props::{check_terminal_histories, eventually, leads_to, model_safety_props, quiescent};
pub use protocol::{Action, ModelState, ProtocolModel, Scenario};
pub use shrink::shrink_to_scenario;
