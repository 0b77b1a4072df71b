//! `skueue-load` — open-loop Poisson load generator for a real-transport
//! cluster.
//!
//! Issues operations on an exponential inter-arrival schedule (open loop: the
//! schedule never waits for the system, so queueing delay is measured, not
//! hidden), waits for the cluster to drain, verifies the history, and reports
//! wall-clock p50/p99/p999 operation latency as JSON.
//!
//! ```text
//! skueue-load --daemons … --rate 200 --ops 500 --seed 42 --out load.json
//! ```
//!
//! Exit codes: 2 with the usage for flags it cannot run with (read before
//! anything connects); 1 with only `skueue-load: <reason>` for what fails at
//! run time — no daemon to connect to, a run that did not drain or failed
//! verification.

use std::error::Error;
use std::process::ExitCode;
use std::time::Duration;

use skueue::net::spec::{flag_number, parse_flags, service_main, spec_from_flags, ClusterSpec};
use skueue::net::{run_load, IngressClient, LoadParams};

/// What the flags ask for: the cluster, the load, where the report goes and
/// whether the history must verify.
type Load = (ClusterSpec, LoadParams, Option<String>, bool);

fn parse(args: &[String]) -> Result<Load, String> {
    let flags = parse_flags(args, &["rate", "ops", "seed", "timeout-s", "out", "verify"])?;
    let spec = spec_from_flags(&flags)?;
    let rate: f64 = flag_number(&flags, "rate")?.unwrap_or(100.0);
    let ops: u64 = flag_number(&flags, "ops")?.unwrap_or(200);
    let seed: u64 = flag_number(&flags, "seed")?.unwrap_or(42);
    let mut params = LoadParams::new(rate, ops, spec.initial, seed);
    params.validate().map_err(|e| format!("--rate: {e}"))?;
    if let Some(secs) = flag_number(&flags, "timeout-s")? {
        params.drain_timeout = Duration::from_secs(secs);
    }
    // `--verify false` skips the consistency gate for runs against a cluster
    // that already carried traffic (the checker needs the full history since
    // boot to be meaningful); drain is always required.
    let verify = match flags.get("verify") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--verify expects true|false, got `{v}`"))?,
        None => true,
    };
    Ok((spec, params, flags.get("out").cloned(), verify))
}

fn run((spec, params, out, verify): Load) -> Result<(), Box<dyn Error>> {
    let mut ingress = IngressClient::<u64>::connect(&spec)?;
    let report = run_load(&mut ingress, &params)?;
    let json = report.to_json();
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{json}\n"))?;
            eprintln!("skueue-load: report written to {path}");
        }
        None => println!("{json}"),
    }
    eprintln!(
        "skueue-load: {}/{} ops, drained={}, consistent={}, p50={}us p99={}us p999={}us",
        report.completed,
        report.issued,
        report.drained,
        report.consistent,
        report.p50_us,
        report.p99_us,
        report.p999_us
    );
    if report.drained && (report.consistent || !verify) {
        Ok(())
    } else {
        Err("load run did not drain cleanly or failed verification".into())
    }
}

fn main() -> ExitCode {
    let usage = "--daemons a,b,c [--rate HZ] [--ops N] [--seed S] [--out FILE] [--timeout-s T] \
                 [--verify true|false]";
    service_main("skueue-load", usage, parse, run)
}
