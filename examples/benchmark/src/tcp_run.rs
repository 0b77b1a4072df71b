//! One repeat of a `tcp_*` workload: boot two in-process daemons on loopback,
//! drive them with the benchmark's own open loop, shut them down, verify.
//!
//! The open loop does not call `skueue::net::run_load`: that generator only
//! observes completions when it next injects, so at 300 ops/s its "latency"
//! is its own 3.3 ms inter-arrival gap (see README.md).  Here `pump()` is
//! polled every ≈ 100 µs while waiting, and an op's latency runs from the
//! time it was *due*, so a stalled generator cannot hide queueing delay.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use skueue::net::daemon::{self, DaemonHandle};
use skueue::net::{ClusterSpec, CtlClient, IngressClient};
use skueue::prelude::{ProcessId, ProtocolConfig, RequestId};

use crate::sample::Sample;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{tcp_inputs, TcpSpec, TCP_DAEMONS, TCP_PROCESSES, TCP_SHARDS, TCP_TICK_MS};

/// Sleep between two `pump()` polls; with the kernel's timer slack the
/// observed gap is ≈ 150 µs (reported as `workloads.observe_gap_p99_us`).
const POLL: Duration = Duration::from_micros(100);
/// How long after the last inject an op may take before it counts as failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);
/// Length of the no-load window behind `net.daemon.idle_cpu_share`.
const IDLE_WINDOW: Duration = Duration::from_millis(500);

struct Cluster {
    spec: ClusterSpec,
    daemons: Vec<DaemonHandle>,
    ingress: IngressClient<u64>,
    boot_s: f64,
    /// Bind, spawn, connect and warm up: until the cluster has served an op
    /// through every process.
    setup_s: f64,
}

/// Brings the cluster up and warms it: one op through every process, so that
/// every peer connection is dialled before any clock of the open loop starts.
/// The warm-up belongs to set-up — work a later change defers from boot to
/// the first op still shows in `setup_s` — and its ops stay in the history
/// the verifier sees.
fn boot(rec: &mut Recorder) -> io::Result<Cluster> {
    let t = Instant::now();
    rec.enter("net.daemon.boot");
    let listeners = (0..TCP_DAEMONS)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let spec = ClusterSpec {
        daemons: listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<io::Result<_>>()?,
        initial: TCP_PROCESSES,
        shards: TCP_SHARDS,
        hash_seed: ProtocolConfig::queue().hash_seed,
        tick_ms: TCP_TICK_MS,
    };
    let daemons = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| daemon::spawn::<u64>(spec.clone(), i, l))
        .collect();
    rec.exit();
    let boot_s = t.elapsed().as_secs_f64();
    let mut ingress = IngressClient::<u64>::connect(&spec)?;
    for pid in 0..TCP_PROCESSES {
        ingress.enqueue(ProcessId(pid), u64::MAX - pid)?;
    }
    if !ingress.await_quiescence(DRAIN_DEADLINE) {
        return Err(io::Error::other("the warm-up ops did not complete"));
    }
    Ok(Cluster {
        spec,
        daemons,
        ingress,
        boot_s,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

fn shut_down(spec: &ClusterSpec, daemons: Vec<DaemonHandle>) -> io::Result<()> {
    CtlClient::<u64>::connect(spec)?.shutdown()?;
    for d in daemons {
        d.join()?;
    }
    Ok(())
}

/// Set-up alone, in a process that does nothing else (`Mode::Setup`).
pub fn setup_only() -> Sample {
    let mut sample = Sample::default();
    let booted = boot(&mut Recorder::new(false)).and_then(|c| {
        sample.set("setup_raw_s", c.setup_s);
        shut_down(&c.spec, c.daemons)?;
        c.ingress.close();
        Ok(())
    });
    if let Err(e) = booted {
        sample.reject(format!("error while setting the cluster up: {e}"));
    }
    sample
}

fn inject(
    ingress: &mut IngressClient<u64>,
    pid: ProcessId,
    insert: bool,
    value: u64,
) -> io::Result<RequestId> {
    if insert {
        ingress.enqueue(pid, value)
    } else {
        ingress.dequeue(pid)
    }
}

pub fn run(spec: &TcpSpec, seed: u64, idle_probe: bool, rec: &mut Recorder) -> Sample {
    let mut sample = Sample {
        attempted: spec.ops as u64,
        ..Sample::default()
    };
    if let Err(e) = drive(spec, seed, idle_probe, rec, &mut sample) {
        sample.reject(format!("error while driving the cluster: {e}"));
    }
    sample.set(
        "failed_share",
        sample.failed as f64 / sample.attempted as f64,
    );
    sample
}

fn drive(
    spec: &TcpSpec,
    seed: u64,
    idle_probe: bool,
    rec: &mut Recorder,
    sample: &mut Sample,
) -> io::Result<()> {
    let inputs = tcp_inputs(spec, seed);
    let threads_before = stats::thread_count();
    let Cluster {
        spec: cluster_spec,
        daemons,
        mut ingress,
        boot_s,
        setup_s,
    } = boot(rec)?;
    sample.set("setup_raw_s", setup_s);
    sample.set("net.daemon.boot_s", boot_s);
    let warm = ingress.completed() as usize;
    sample.set(
        "net.daemon.threads",
        (stats::thread_count() - threads_before) as f64,
    );
    if idle_probe {
        let (cpu0, _) = stats::cpu_ns();
        std::thread::sleep(IDLE_WINDOW);
        let (cpu1, _) = stats::cpu_ns();
        sample.set(
            "net.daemon.idle_cpu_share",
            (cpu1 - cpu0) as f64 / IDLE_WINDOW.as_nanos() as f64,
        );
    }

    // ---- timed region: the open loop -------------------------------------
    let n = spec.ops;
    let mut ids: Vec<Option<RequestId>> = Vec::with_capacity(n);
    let mut inject_at = vec![0u64; n];
    let mut inject_ns = 0u64;
    let mut polls: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut refused = 0u64;
    let mut backlog_at_end = 0u64;
    let switches0 = stats::ctx_switches();
    let (cpu0, gen0) = stats::cpu_ns();
    let t0 = Instant::now();
    let now = |t0: &Instant| t0.elapsed().as_nanos() as u64;
    let mut last_inject = 0u64;
    let mut next = 0usize;
    let done_at = loop {
        let mut t = now(&t0);
        while next < n && inputs.due_ns[next] <= t {
            let op = &inputs.ops[next];
            let pid = ProcessId(op.pick % TCP_PROCESSES);
            inject_at[next] = t;
            rec.enter("net.ingress.inject");
            let id = inject(&mut ingress, pid, op.insert, op.value);
            rec.exit();
            let after = now(&t0);
            inject_ns += after - t;
            t = after;
            refused += id.is_err() as u64;
            ids.push(id.ok());
            next += 1;
            if next == n {
                last_inject = t;
                backlog_at_end = ingress.issued() - ingress.completed();
            }
        }
        rec.enter("net.ingress.pump");
        ingress.pump();
        rec.exit();
        t = now(&t0);
        polls.push(t);
        if next == n
            && (ingress.completed() == ingress.issued()
                || t - last_inject > DRAIN_DEADLINE.as_nanos() as u64)
        {
            break t;
        }
        let wake = match inputs.due_ns.get(next) {
            Some(&due) => due.saturating_sub(t).min(POLL.as_nanos() as u64),
            None => POLL.as_nanos() as u64,
        };
        if wake > 0 {
            std::thread::sleep(Duration::from_nanos(wake));
        }
    };
    let (cpu1, gen1) = stats::cpu_ns();
    let switches1 = stats::ctx_switches();
    sample.set("peak_rss_mb", stats::peak_rss_mb());

    // ---- shut down, then verify --------------------------------------------
    let t = Instant::now();
    shut_down(&cluster_spec, daemons)?;
    sample.set("net.daemon.shutdown_s", t.elapsed().as_secs_f64());
    rec.enter("verify.check");
    let t = Instant::now();
    let report = ingress.verify();
    let check_s = t.elapsed().as_secs_f64();
    rec.exit();

    let records = &ingress.records()[warm.min(ingress.records().len())..];
    let latencies = &ingress.latencies_us()[warm.min(ingress.latencies_us().len())..];
    let completed = records.len();
    let done = completed.max(1) as f64;
    sample.set(
        "verify.check_s_per_100k_ops",
        check_s * 1e5 / ingress.records().len().max(1) as f64,
    );
    sample.set("verify.violations", report.violations.len() as f64);

    // ---- end-to-end metrics ----------------------------------------------
    let first_inject = inject_at.first().copied().unwrap_or(0);
    let wall_s = (done_at - first_inject) as f64 / 1e9;
    sample.set("ops_per_sec", completed as f64 / wall_s);
    sample.set(
        "cpu_us_per_op",
        ((cpu1 - cpu0) - (gen1 - gen0)) as f64 / 1e3 / done,
    );
    // Latency from the time the op was due: how late it was injected plus
    // the ingress's own inject→completion time, matched through the id.
    let by_id: HashMap<RequestId, u64> = records
        .iter()
        .map(|r| r.id)
        .zip(latencies.iter().copied())
        .collect();
    let mut lag_us = Vec::with_capacity(n);
    let mut from_due_us = Vec::with_capacity(n);
    for (i, id) in ids.iter().enumerate() {
        let lag = (inject_at[i] - inputs.due_ns[i]) / 1000;
        lag_us.push(lag);
        if let Some(&lat) = id.and_then(|id| by_id.get(&id)) {
            from_due_us.push(lag + lat);
        }
    }
    sample.set("p50_us", stats::percentile(&mut from_due_us, 0.50) as f64);

    // ---- layer metrics -----------------------------------------------------
    sample.set(
        "net.ingress.p99_us",
        stats::percentile(&mut from_due_us, 0.99) as f64,
    );
    sample.set(
        "net.ingress.p999_us",
        stats::percentile(&mut from_due_us, 0.999) as f64,
    );
    sample.set(
        "net.ingress.inject_us_per_op",
        inject_ns as f64 / 1e3 / n as f64,
    );
    sample.set(
        "net.ingress.inject_share",
        inject_ns as f64 / (done_at - first_inject) as f64,
    );
    sample.set("net.ingress.backlog_at_end", backlog_at_end as f64);
    sample.set(
        "net.daemon.ctx_switches_per_op",
        (switches1 - switches0) as f64 / done,
    );
    sample.set(
        "workloads.gen_lag_p99_us",
        stats::percentile(&mut lag_us, 0.99) as f64,
    );
    let mut gaps: Vec<u64> = polls.windows(2).map(|w| (w[1] - w[0]) / 1000).collect();
    sample.set(
        "workloads.observe_gap_p99_us",
        stats::percentile(&mut gaps, 0.99) as f64,
    );

    // ---- output checks -----------------------------------------------------
    let unique: HashSet<RequestId> = records.iter().map(|r| r.id).collect();
    let duplicates = (completed - unique.len()) as u64;
    let open = n as u64 - refused - unique.len() as u64;
    sample.failed = refused + open + duplicates;
    for (count, what) in [
        (refused, "refused at issue"),
        (open, "not completed by the drain deadline"),
        (duplicates, "completed twice"),
    ] {
        if count > 0 {
            sample.notes.push(format!("{count} ops {what}"));
        }
    }
    if records.len() != latencies.len() {
        sample.reject("the ingress reports a completion it never issued".to_string());
    }
    if !report.is_consistent() {
        sample.reject(format!(
            "the verifier rejects the history: {} violations, first: {}",
            report.violations.len(),
            report.violations[0]
        ));
    }
    ingress.close();
    Ok(())
}
