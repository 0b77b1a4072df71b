//! `skueue-ingress` — client-operation ingress for a real-transport cluster.
//!
//! Accepts enqueue/dequeue operations, forwards them to the daemons hosting
//! the issuing processes, waits for the completion stream to drain, verifies
//! the collected history with the sharded sequential-consistency checker,
//! and prints the results.
//!
//! ```text
//! # one-off operations (issued in the given order through the named pids)
//! skueue-ingress --daemons … --enqueue 0:7,1:8 --dequeue 2
//!
//! # a seeded figure-2 style mixed workload over the initial processes
//! skueue-ingress --daemons … --workload fig2 --ops 60 --seed 1
//! ```

use std::process::ExitCode;
use std::time::Duration;

use skueue::net::spec::{flag_number, parse_flags, spec_from_flags};
use skueue::net::IngressClient;
use skueue::prelude::{ProcessId, SimRng};
use skueue::verify::OpResult;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<(), String> {
        let flags = parse_flags(
            &args,
            &[
                "workload",
                "ops",
                "seed",
                "enqueue",
                "dequeue",
                "verify",
                "timeout-s",
            ],
        )?;
        let spec = spec_from_flags(&flags)?;
        // Before connecting: a bad flag is a usage error, not a connect error.
        let timeout = Duration::from_secs(flag_number(&flags, "timeout-s")?.unwrap_or(60));
        let ops: u64 = flag_number(&flags, "ops")?.unwrap_or(60);
        let seed: u64 = flag_number(&flags, "seed")?.unwrap_or(1);
        let mut ingress = IngressClient::<u64>::connect(&spec).map_err(|e| e.to_string())?;

        if let Some(workload) = flags.get("workload") {
            if workload != "fig2" {
                return Err(format!("unknown workload `{workload}` (supported: fig2)"));
            }
            let mut rng = SimRng::new(seed ^ 0xF162);
            let pids: Vec<ProcessId> = (0..spec.initial).map(ProcessId).collect();
            for step in 0..ops {
                let pid = pids[(rng.next_u64() % pids.len() as u64) as usize];
                if rng.next_u64() % 10 < 6 {
                    ingress.enqueue(pid, 1 + step).map_err(|e| e.to_string())?;
                } else {
                    ingress.dequeue(pid).map_err(|e| e.to_string())?;
                }
            }
        }

        // One-off operations, issued after any workload.
        if let Some(list) = flags.get("enqueue") {
            for item in list.split(',').filter(|s| !s.is_empty()) {
                let (pid, value) = item
                    .split_once(':')
                    .ok_or_else(|| format!("--enqueue expects pid:value, got `{item}`"))?;
                let pid = ProcessId(pid.parse().map_err(|_| "bad pid".to_string())?);
                let value: u64 = value.parse().map_err(|_| "bad value".to_string())?;
                ingress.enqueue(pid, value).map_err(|e| e.to_string())?;
            }
        }
        if let Some(list) = flags.get("dequeue") {
            for item in list.split(',').filter(|s| !s.is_empty()) {
                let pid = ProcessId(item.parse().map_err(|_| "bad pid".to_string())?);
                ingress.dequeue(pid).map_err(|e| e.to_string())?;
            }
        }

        if ingress.issued() == 0 {
            return Err("nothing to do: pass --workload fig2, --enqueue or --dequeue".to_string());
        }
        if !ingress.await_quiescence(timeout) {
            return Err(format!(
                "cluster did not drain: {}/{} operations completed",
                ingress.completed(),
                ingress.issued()
            ));
        }
        for record in ingress.records() {
            match (record.kind, &record.result) {
                (skueue::prelude::OpKind::Enqueue, _) => {
                    println!("p{} enqueue({}) -> ok", record.id.origin.0, record.value)
                }
                (_, OpResult::Returned(_)) => {
                    println!("p{} dequeue() -> {}", record.id.origin.0, record.value)
                }
                (_, _) => println!("p{} dequeue() -> empty", record.id.origin.0),
            }
        }
        // Verification compares the collected history against a sequential
        // queue, so it is only meaningful when this invocation observed all
        // traffic since boot: on by default for the workload mode (a fresh
        // cluster is assumed), opt-in via `--verify true` for one-off ops.
        let verify = match flags.get("verify").map(String::as_str) {
            Some("true") => true,
            Some("false") => false,
            Some(other) => return Err(format!("--verify expects true|false, got `{other}`")),
            None => flags.contains_key("workload"),
        };
        let (p50, p99, p999) = ingress.latency_percentiles_us();
        if verify {
            let report = ingress.verify();
            eprintln!(
                "skueue-ingress: {} ops completed, consistent={}, latency p50={}us p99={}us p999={}us",
                ingress.completed(),
                report.is_consistent(),
                p50,
                p99,
                p999
            );
            if report.is_consistent() {
                Ok(())
            } else {
                Err(format!("history failed the consistency check: {report:?}"))
            }
        } else {
            eprintln!(
                "skueue-ingress: {} ops completed, latency p50={}us p99={}us p999={}us",
                ingress.completed(),
                p50,
                p99,
                p999
            );
            Ok(())
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("skueue-ingress: {message}");
            eprintln!(
                "usage: skueue-ingress --daemons a,b,c [--workload fig2 --ops N --seed S] \
                 [--enqueue pid:value,…] [--dequeue pid,…] [--timeout-s T] \
                 [--verify true|false]"
            );
            ExitCode::from(2)
        }
    }
}
