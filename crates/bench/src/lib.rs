//! # skueue-bench — experiment harness
//!
//! Reproduces every figure of the Skueue paper's evaluation section plus the
//! derived experiments E4–E9 (scaling, batch size, churn, fairness and the
//! two ablations).  The one entry point is the `experiments` binary
//! (`cargo run -p skueue-bench --release --bin experiments -- <experiment>`):
//! it runs full parameter sweeps and prints the series the paper plots, in
//! rounds per request.  Wall-clock performance is measured elsewhere, by
//! `examples/benchmark` (see PERF.md).
//!
//! The default sweeps are scaled down from the paper's 100 000 processes ×
//! 1000 rounds so that the whole suite finishes on a laptop; pass
//! `--paper-scale` to the binary for the full-size runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;

pub use harness::{
    fig2_sweep, fig3_sweep, fig4_sweep, print_series, route_hops, ExperimentPoint, RouteHops,
    SweepConfig,
};
