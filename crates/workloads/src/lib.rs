//! # skueue-workloads — workload generators, paper scenarios and the baseline
//!
//! Section VII of the Skueue paper evaluates the protocol with two synthetic
//! workloads:
//!
//! 1. **Fixed-rate workload** (Figures 2 and 3): in every synchronous round,
//!    10 requests are generated and assigned to processes chosen uniformly at
//!    random; a request is an insert (`ENQUEUE()`/`PUSH()`) with probability
//!    `p` and a remove (`DEQUEUE()`/`POP()`) otherwise.  After 1000 rounds
//!    generation stops and the system drains.  The measurement is the average
//!    number of rounds per request.
//! 2. **Per-node-rate workload** (Figure 4): every process independently
//!    generates a request with probability `p` in every round (insert ratio
//!    0.5), for `n = 10 000`.
//!
//! This crate implements one generator for both rate shapes (`generator`),
//! ready-to-run experiment scenarios that produce one data point per call
//! (`scenario`), churn and fairness scenarios for the analysis-section
//! experiments, and an unbatched central-server baseline (`baseline`) used
//! by the E8 ablation.  Its `experiments` binary sweeps the scenarios over
//! the figures' parameter grids and prints the series the paper plots, in
//! rounds per request
//! (`cargo run -p skueue-workloads --release --bin experiments -- <experiment>`).
//! The default sweeps are scaled down from the paper's 100 000 processes ×
//! 1000 rounds so that the whole suite finishes on a laptop; `--paper-scale`
//! runs the full size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod generator;
mod scenario;

pub use baseline::{run_central_baseline, CentralBaselineResult};
pub use scenario::{
    run_churn_scenario, run_fairness_scenario, run_fixed_rate, run_fixed_rate_traced,
    run_per_node_rate, run_string_payload_fig2, ChurnResult, FairnessResult, ScenarioParams,
    ScenarioResult,
};
