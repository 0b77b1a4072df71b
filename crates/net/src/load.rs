//! Open-loop Poisson load generation against a running cluster.
//!
//! An *open-loop* generator issues operations on a fixed stochastic schedule
//! regardless of how fast the system completes them (a closed loop would
//! hide queueing delay by self-throttling — the coordinated-omission trap).
//! Inter-arrival gaps are exponential with the configured rate, drawn from a
//! seeded [`SimRng`] so a load run is reproducible in *schedule* (completion
//! timing of course is not).
//!
//! An operation's latency runs **from the time it was due** (the ingress is
//! handed the due time with the operation), so a generator that falls behind
//! its schedule shows up in the percentiles instead of hiding in them, and
//! completions are stamped when they arrive — the wait for the next due time
//! blocks on the completion stream (`IngressClient::pump_until`), not in a
//! sleep.
//!
//! The ingress bounds what is in flight
//! ([`crate::INGRESS_WINDOW_PER_DAEMON`] operations per daemon): offered
//! above the cluster's capacity, an inject waits for room and the generator
//! falls behind its schedule, which the latencies from the due time show.

use std::io;
use std::time::{Duration, Instant};

use skueue_sim::ids::ProcessId;
use skueue_sim::SimRng;

use crate::codec::Wire;
use crate::ingress::IngressClient;
use skueue_core::{Payload, StageStats};

/// Probability that an operation is an enqueue (the remainder are
/// dequeues); `0.6` matches the figure-2 workloads.
const ENQUEUE_PROB: f64 = 0.6;

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadParams {
    /// Mean operation rate, in operations per second.
    pub rate_hz: f64,
    /// Total number of operations to issue.
    pub ops: u64,
    /// Seed of the schedule RNG (gap lengths, op mix, process choice).
    pub seed: u64,
    /// Number of processes to spread the operations over, `0..processes`
    /// (round-robin would skew the aggregation tree; a uniform random
    /// choice matches the paper's setup).
    pub processes: u64,
    /// How long to wait for stragglers after the last inject.
    pub drain_timeout: Duration,
}

impl LoadParams {
    /// A small default workload: `ops` operations at `rate_hz` over the
    /// initial processes `0..n`.
    pub fn new(rate_hz: f64, ops: u64, n_processes: u64, seed: u64) -> Self {
        LoadParams {
            rate_hz,
            ops,
            seed,
            processes: n_processes,
            drain_timeout: Duration::from_secs(30),
        }
    }

    /// Checks the caller-supplied values [`run_load`] cannot work with (a
    /// rate that is not a positive, finite number; no process to issue
    /// through) — an [`io::ErrorKind::InvalidInput`], not a panic, since
    /// they arrive from a command line.
    pub fn validate(&self) -> io::Result<()> {
        let invalid = |what: String| Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        if self.processes == 0 {
            return invalid("load needs at least one process".into());
        }
        if !(self.rate_hz.is_finite() && self.rate_hz > 0.0) {
            return invalid(format!(
                "rate must be a positive, finite number of ops/s, got {}",
                self.rate_hz
            ));
        }
        Ok(())
    }
}

/// The outcome of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Operations issued during the run.
    pub issued: u64,
    /// This client's operations completed during the run (equals `issued`
    /// when the run drained and the client issued nothing before it).
    pub completed: u64,
    /// Whether every issued operation completed within the drain timeout.
    pub drained: bool,
    /// Whether the collected history passed the sharded consistency check.
    pub consistent: bool,
    /// Wall-clock duration from first inject to last completion, in
    /// milliseconds.
    pub duration_ms: u64,
    /// Completions per second over the measured duration.
    pub throughput_ops_s: f64,
    /// Median operation latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile operation latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile operation latency, microseconds.
    pub p999_us: u64,
}

impl LoadReport {
    /// Renders the report as a JSON object (hand-rolled: nothing can be
    /// vendored — there is no registry).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"transport\": \"tcp\",\n",
                "  \"issued\": {},\n",
                "  \"completed\": {},\n",
                "  \"drained\": {},\n",
                "  \"consistent\": {},\n",
                "  \"duration_ms\": {},\n",
                "  \"throughput_ops_s\": {:.2},\n",
                "  \"p50_us\": {},\n",
                "  \"p99_us\": {},\n",
                "  \"p999_us\": {}\n",
                "}}"
            ),
            self.issued,
            self.completed,
            self.drained,
            self.consistent,
            self.duration_ms,
            self.throughput_ops_s,
            self.p50_us,
            self.p99_us,
            self.p999_us,
        )
    }
}

/// Runs one open-loop load against a connected ingress: issue `params.ops`
/// operations on the Poisson schedule, wait for the cluster to drain, verify
/// the history, and report latency percentiles.
pub fn run_load<T: Payload + Wire + From<u64>>(
    ingress: &mut IngressClient<T>,
    params: &LoadParams,
) -> io::Result<LoadReport> {
    params.validate()?;
    let mut rng = SimRng::new(params.seed ^ 0x10AD);
    let start = Instant::now();
    let mut next_at = start;
    let mut value: u64 = 0;
    let issued_before = ingress.issued();
    let first_latency = ingress.latencies_us().len();
    for _ in 0..params.ops {
        ingress.pump_until(next_at);
        let pid = ProcessId(rng.next_u64() % params.processes);
        let insert = rng.gen_unit() < ENQUEUE_PROB;
        let payload = if insert {
            value += 1;
            T::from(value)
        } else {
            T::default()
        };
        ingress.inject(pid, insert, payload, next_at)?;
        // Exponential inter-arrival gap (inverse-CDF sampling).
        let gap_s = -(1.0 - rng.gen_unit()).ln() / params.rate_hz;
        next_at += Duration::from_secs_f64(gap_s.min(10.0));
    }
    let drained = ingress.await_quiescence(params.drain_timeout);
    let duration = start.elapsed();
    // The client's own completions since the run began.  (Its stream also
    // carries what other clients of the cluster issued; those have a record
    // and no latency, so nothing here goes by a record's position.)
    let mut from_due = ingress.latencies_us()[first_latency..].to_vec();
    let completed = from_due.len() as u64;
    let latency = StageStats::from_samples(&mut from_due);
    let report = ingress.verify();
    Ok(LoadReport {
        issued: ingress.issued() - issued_before,
        completed,
        drained,
        consistent: report.is_consistent(),
        duration_ms: duration.as_millis() as u64,
        throughput_ops_s: completed as f64 / duration.as_secs_f64().max(1e-9),
        p50_us: latency.p50,
        p99_us: latency.p99,
        p999_us: latency.p999,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unusable_rates_and_empty_process_sets_are_invalid_input() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = LoadParams::new(rate, 5, 3, 1).validate().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "rate {rate}");
        }
        let err = LoadParams::new(100.0, 5, 0, 1).validate().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(LoadParams::new(0.5, 5, 3, 1).validate().is_ok());
    }
}
