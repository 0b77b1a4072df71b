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

use std::process::ExitCode;
use std::time::Duration;

use skueue::net::spec::{flag_number, parse_flags, spec_from_flags};
use skueue::net::{run_load, IngressClient, LoadParams};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<(), String> {
        let flags = parse_flags(
            &args,
            &["rate", "ops", "seed", "timeout-s", "out", "verify"],
        )?;
        let spec = spec_from_flags(&flags)?;
        let rate: f64 = flag_number(&flags, "rate")?.unwrap_or(100.0);
        let ops: u64 = flag_number(&flags, "ops")?.unwrap_or(200);
        let seed: u64 = flag_number(&flags, "seed")?.unwrap_or(42);
        let mut params = LoadParams::new(rate, ops, spec.initial, seed);
        // Before connecting: a bad flag is a usage error, not a connect error.
        params.validate().map_err(|e| format!("--rate: {e}"))?;
        if let Some(secs) = flag_number(&flags, "timeout-s")? {
            params.drain_timeout = Duration::from_secs(secs);
        }
        let mut ingress = IngressClient::<u64>::connect(&spec).map_err(|e| e.to_string())?;
        let report = run_load(&mut ingress, &params).map_err(|e| e.to_string())?;
        let json = report.to_json();
        match flags.get("out") {
            Some(path) => {
                std::fs::write(path, format!("{json}\n")).map_err(|e| e.to_string())?;
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
        // `--verify false` skips the consistency gate for runs against a
        // cluster that already carried traffic (the checker needs the full
        // history since boot to be meaningful); drain is always required.
        let require_consistent = match flags.get("verify").map(String::as_str) {
            Some("false") => false,
            Some("true") | None => true,
            Some(other) => return Err(format!("--verify expects true|false, got `{other}`")),
        };
        if report.drained && (report.consistent || !require_consistent) {
            Ok(())
        } else {
            Err("load run did not drain cleanly or failed verification".to_string())
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("skueue-load: {message}");
            eprintln!(
                "usage: skueue-load --daemons a,b,c [--rate HZ] [--ops N] [--seed S] \
                 [--out FILE] [--timeout-s T] [--verify true|false]"
            );
            ExitCode::from(2)
        }
    }
}
