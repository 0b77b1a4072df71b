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
//!
//! Exit codes: 2 with the usage for flags it cannot run with — an unknown
//! workload and nothing to issue included — read before anything connects;
//! 1 with only `skueue-ingress: <reason>` for what fails at run time — no
//! daemon to connect to, a cluster that did not drain, a history that
//! failed verification.

use std::error::Error;
use std::process::ExitCode;
use std::time::Duration;

use skueue::net::spec::{flag_number, parse_flags, service_main, spec_from_flags, ClusterSpec};
use skueue::net::IngressClient;
use skueue::prelude::{OpKind, ProcessId, SimRng};
use skueue::trace::StageStats;
use skueue::verify::OpResult;

/// An operation to issue: an enqueue of the value, or a dequeue.
type Op = (ProcessId, Option<u64>);

/// What the flags ask for, read before anything connects.
struct Ingress {
    spec: ClusterSpec,
    /// How many `--workload fig2` operations to issue first (0 without one),
    /// and the workload's seed.
    workload: (u64, u64),
    /// The `--enqueue` operations, then the `--dequeue` ones.
    one_off: Vec<Op>,
    timeout: Duration,
    verify: bool,
}

fn parse(args: &[String]) -> Result<Ingress, String> {
    let keys = [
        "workload",
        "ops",
        "seed",
        "enqueue",
        "dequeue",
        "verify",
        "timeout-s",
    ];
    let flags = parse_flags(args, &keys)?;
    let spec = spec_from_flags(&flags)?;
    let timeout = Duration::from_secs(flag_number(&flags, "timeout-s")?.unwrap_or(60));
    let ops: u64 = flag_number(&flags, "ops")?.unwrap_or(60);
    let seed: u64 = flag_number(&flags, "seed")?.unwrap_or(1);
    let ops = match flags.get("workload").map(String::as_str) {
        None => 0,
        Some("fig2") => ops,
        Some(other) => return Err(format!("unknown workload `{other}` (supported: fig2)")),
    };
    let list = |key: &str| {
        let items = flags.get(key).into_iter().flat_map(|l| l.split(','));
        items.filter(|s| !s.is_empty())
    };
    let pid = |p: &str| p.parse().map(ProcessId).map_err(|_| "bad pid".to_string());
    let mut one_off = Vec::new();
    for item in list("enqueue") {
        let (p, value) = item
            .split_once(':')
            .ok_or_else(|| format!("--enqueue expects pid:value, got `{item}`"))?;
        let p = pid(p)?;
        one_off.push((p, Some(value.parse().map_err(|_| "bad value".to_string())?)));
    }
    for item in list("dequeue") {
        one_off.push((pid(item)?, None));
    }
    if ops == 0 && one_off.is_empty() {
        return Err("nothing to do: pass --workload fig2, --enqueue or --dequeue".to_string());
    }
    // Verification compares the collected history against a sequential
    // queue, so it is only meaningful when this invocation observed all
    // traffic since boot: on by default for the workload mode (a fresh
    // cluster is assumed), opt-in via `--verify true` for one-off ops.
    let verify = match flags.get("verify") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--verify expects true|false, got `{v}`"))?,
        None => flags.contains_key("workload"),
    };
    Ok(Ingress {
        spec,
        workload: (ops, seed),
        one_off,
        timeout,
        verify,
    })
}

/// The figure-2 style workload: `ops` operations through uniformly random
/// initial processes, 60 % enqueues of `1 + step`.
fn fig2((ops, seed): (u64, u64), processes: u64) -> impl Iterator<Item = Op> {
    let mut rng = SimRng::new(seed ^ 0xF162);
    (0..ops).map(move |step| {
        let pid = ProcessId(rng.next_u64() % processes);
        (pid, (rng.next_u64() % 10 < 6).then_some(1 + step))
    })
}

fn run(args: Ingress) -> Result<(), Box<dyn Error>> {
    let mut ingress = IngressClient::<u64>::connect(&args.spec)?;
    for (pid, value) in fig2(args.workload, args.spec.initial).chain(args.one_off) {
        match value {
            Some(value) => ingress.enqueue(pid, value)?,
            None => ingress.dequeue(pid)?,
        };
    }
    if !ingress.await_quiescence(args.timeout) {
        return Err(format!(
            "cluster did not drain: {}/{} operations completed",
            ingress.completed(),
            ingress.issued()
        )
        .into());
    }
    for record in ingress.records() {
        let p = record.id.origin.0;
        match (record.kind, &record.result) {
            (OpKind::Enqueue, _) => println!("p{p} enqueue({}) -> ok", record.value),
            (_, OpResult::Returned(_)) => println!("p{p} dequeue() -> {}", record.value),
            (_, _) => println!("p{p} dequeue() -> empty"),
        }
    }
    let latency = StageStats::from_samples(&mut ingress.latencies_us().to_vec());
    let report = args.verify.then(|| ingress.verify());
    let consistent = report
        .as_ref()
        .map(|r| format!(", consistent={}", r.is_consistent()));
    eprintln!(
        "skueue-ingress: {} ops completed{}, latency p50={}us p99={}us p999={}us",
        ingress.completed(),
        consistent.unwrap_or_default(),
        latency.p50,
        latency.p99,
        latency.p999
    );
    match report {
        Some(report) if !report.is_consistent() => {
            Err(format!("history failed the consistency check: {report:?}").into())
        }
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let usage = "--daemons a,b,c [--workload fig2 --ops N --seed S] [--enqueue pid:value,…] \
                 [--dequeue pid,…] [--timeout-s T] [--verify true|false]";
    service_main("skueue-ingress", usage, parse, run)
}
