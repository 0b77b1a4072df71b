//! One benchmark for both execution shapes of Skueue — the deterministic
//! simulator and the TCP daemons.  See README.md for what each workload and
//! metric is for; BENCHMARK.json at the repository root is the driver's view
//! of the same tables (`--manifest` prints it).
//!
//! ```text
//! skueue-benchmark --all [--seed N]        end-to-end pass, tracing off, 5 repeats
//! skueue-benchmark --traced [--seed N]     per-layer pass: spans, ledger, overheads
//! skueue-benchmark --selfcheck [--seed N]  end-to-end pass twice, compared
//! skueue-benchmark --workload W --seed N --seconds S --trace 0|1   one driver run
//! ```
//!
//! Every repeat runs in a child process of its own (this executable with
//! `--child`), so CPU time and peak memory belong to that repeat alone.

mod ledger;
mod metrics;
mod sample;
mod sim_run;
mod spans;
mod stats;
mod tcp_run;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::OnceLock;
use std::time::Instant;

use metrics::{Better, Gate, END_TO_END, LAYERS};
use sample::Sample;
use skueue::prelude::TraceLevel;
use workloads::{Shape, SimSpec, Workload, WORKLOADS};

/// Repeats per workload in the program's own passes.
const REPEATS: usize = 5;
/// A driver run repeats until `--seconds` have passed, and at least this often.
const MIN_REPEATS: usize = 3;
/// Set-up-only children after each repeat of an end-to-end pass.
const SETUPS_PER_REPEAT: usize = 4;
const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of BENCHMARK.json: how long one driver run measures.
const RUN_SECONDS: u32 = 10;
/// The release profile this package is built with (Cargo.toml), recorded in
/// every report because it changes speed without changing code.
const PROFILE: &str = "lto=thin codegen-units=1 debug=true";

/// What a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The workload, nothing recorded: the end-to-end pass.
    Plain,
    /// The workload with the benchmark's spans (and the idle probe on TCP).
    Spans,
    /// The workload with the program's own tracing at `Spans` / `Full`.
    TraceSpans,
    TraceFull,
    /// A `.threads(n)` workload forced onto one thread, for the speed-up.
    Serial,
    /// The ledger micro-timings, sized like the workload.
    Ledger,
    /// Set the cluster up between two readings of the fresh-memory kernel and
    /// take it down again: one sample of `setup_s`.
    Setup,
}

impl Mode {
    const ALL: [(Mode, &'static str); 7] = [
        (Mode::Plain, "plain"),
        (Mode::Spans, "spans"),
        (Mode::TraceSpans, "trace-spans"),
        (Mode::TraceFull, "trace-full"),
        (Mode::Serial, "serial"),
        (Mode::Ledger, "ledger"),
        (Mode::Setup, "setup"),
    ];

    fn name(self) -> &'static str {
        Mode::ALL
            .iter()
            .find(|(m, _)| *m == self)
            .expect("listed")
            .1
    }

    fn parse(s: &str) -> Option<Mode> {
        Mode::ALL.iter().find(|(_, n)| *n == s).map(|(m, _)| *m)
    }
}

// ---------------------------------------------------------------------------
// The child: one repeat.
// ---------------------------------------------------------------------------

fn run_child(w: &Workload, seed: u64, mode: Mode, repeat: u32, spans_out: Option<&Path>) -> Sample {
    let mut rec = spans::Recorder::new(mode == Mode::Spans);
    let mut sample = match (mode, w.shape) {
        (Mode::Ledger, Shape::Sim(s)) => ledger::run(
            &ledger::Sizes {
                processes_per_shard: s.processes / s.shards,
                shards: s.shards,
                wave_ops: s.ops_per_round / s.shards,
            },
            seed,
        ),
        (Mode::Ledger, Shape::Tcp(_)) => ledger::run(
            &ledger::Sizes {
                processes_per_shard: workloads::TCP_PROCESSES as usize / workloads::TCP_SHARDS,
                shards: workloads::TCP_SHARDS,
                wave_ops: 16,
            },
            seed,
        ),
        (Mode::Setup, shape) => {
            let before = stats::fresh_memory_s();
            let mut sample = match shape {
                Shape::Sim(spec) => sim_run::setup_only(&spec, seed),
                Shape::Tcp(_) => tcp_run::setup_only(),
            };
            let after = stats::fresh_memory_s();
            if let Some(raw) = sample.get("setup_raw_s") {
                sample.set("setup_s", stats::at_nominal_rate(raw, before, after));
            }
            sample.set("host.fresh_memory_s", (before + after) / 2.0);
            sample
        }
        (_, Shape::Sim(spec)) => {
            let spec = match mode {
                Mode::Serial => SimSpec { threads: 1, ..spec },
                _ => spec,
            };
            let trace = match mode {
                Mode::TraceSpans => TraceLevel::Spans,
                Mode::TraceFull => TraceLevel::Full,
                _ => TraceLevel::Off,
            };
            sim_run::run(&spec, seed, trace, &mut rec)
        }
        (_, Shape::Tcp(spec)) => tcp_run::run(&spec, seed, mode == Mode::Spans, &mut rec),
    };
    if rec.enabled() {
        for (name, (total_s, self_s)) in rec.totals() {
            sample.set(&format!("span.total_s.{name}"), total_s);
            sample.set(&format!("span.self_s.{name}"), self_s);
        }
        if let Some(path) = spans_out {
            if let Err(e) = std::fs::write(path, rec.to_json_lines(repeat)) {
                sample.reject(format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    sample
}

// ---------------------------------------------------------------------------
// The parent: spawning repeats and putting their samples together.
// ---------------------------------------------------------------------------

fn spawn(w: &Workload, seed: u64, mode: Mode, repeat: u32, spans_out: Option<&Path>) -> Sample {
    let failed = |why: String| {
        let mut s = Sample {
            attempted: w.ops() as u64,
            ..Sample::default()
        };
        s.reject(why);
        s
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot find the benchmark executable: {e}")),
    };
    // The TCP cluster runs on one vCPU when the host lets us pin it: spread
    // over both, this host flips between two wake-up regimes that differ 4×
    // in p50 latency (README.md, "The host").  The simulator is not pinned;
    // `sim_heavy_par` needs both cores.
    let mut cmd = if !w.is_sim() && can_pin() {
        let mut cmd = Command::new("taskset");
        cmd.args(["-c", "0"]).arg(exe);
        cmd
    } else {
        Command::new(exe)
    };
    cmd.args(["--child", w.name, "--mode", mode.name()]).args([
        "--seed",
        &seed.to_string(),
        "--repeat",
        &repeat.to_string(),
    ]);
    if let Some(path) = spans_out {
        cmd.arg("--spans-out").arg(path);
    }
    // `output` waits for the child: no process outlives its repeat.
    match cmd.stderr(std::process::Stdio::inherit()).output() {
        Err(e) => failed(format!("cannot start the {} child: {e}", mode.name())),
        Ok(out) => match Sample::from_lines(&String::from_utf8_lossy(&out.stdout)) {
            Ok(sample) if out.status.success() => sample,
            Ok(_) | Err(_) => failed(format!(
                "the {} child of {} ended with {} and no usable result",
                mode.name(),
                w.name,
                out.status
            )),
        },
    }
}

/// Whether `taskset` can pin a process to CPU 0 here (asked once).
fn can_pin() -> bool {
    static CAN_PIN: OnceLock<bool> = OnceLock::new();
    *CAN_PIN.get_or_init(|| {
        Command::new("taskset")
            .args(["-c", "0", "true"])
            .output()
            .is_ok_and(|out| out.status.success())
    })
}

/// The samples of one workload's repeats.
#[derive(Debug, Default)]
struct Series {
    samples: Vec<Sample>,
}

impl Series {
    fn values(&self, name: &str) -> Vec<f64> {
        self.samples.iter().filter_map(|s| s.get(name)).collect()
    }

    fn median(&self, name: &str) -> Option<f64> {
        let v = self.values(name);
        (!v.is_empty()).then(|| stats::median(&v))
    }

    fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.samples.iter().map(|s| s.failed).sum()
    }

    fn notes(&self) -> Vec<String> {
        self.samples.iter().flat_map(|s| s.notes.clone()).collect()
    }

    fn fingerprints(&self) -> Vec<u64> {
        self.samples.iter().filter_map(|s| s.fingerprint).collect()
    }

    /// For a `sim_*` workload: round counts, exact layer counts and the
    /// history fingerprint must be identical in every repeat.
    fn determinism_faults(&self) -> Vec<String> {
        let mut faults = Vec::new();
        let exact_names = END_TO_END
            .iter()
            .filter(|m| m.exact())
            .map(|m| m.name)
            .chain(LAYERS.iter().filter(|m| m.exact).map(|m| m.name));
        for name in exact_names {
            let v = self.values(name);
            if v.windows(2).any(|w| w[0] != w[1]) {
                faults.push(format!("{name} differs between repeats of one seed: {v:?}"));
            }
        }
        let fp = self.fingerprints();
        if fp.windows(2).any(|w| w[0] != w[1]) {
            faults.push(format!(
                "history fingerprints differ between repeats: {fp:016x?}"
            ));
        }
        faults
    }
}

/// End-to-end pass of one workload: `repeats` plain repeats, or as many as
/// fit `seconds` (at least [`MIN_REPEATS`]).
fn end_to_end_pass(w: &Workload, seed: u64, repeats: usize, seconds: Option<f64>) -> Series {
    let start = Instant::now();
    let mut series = Series::default();
    for repeat in 0.. {
        let enough = match seconds {
            Some(s) => repeat >= MIN_REPEATS && start.elapsed().as_secs_f64() >= s,
            None => repeat >= repeats,
        };
        if enough {
            break;
        }
        series
            .samples
            .push(spawn(w, seed, Mode::Plain, repeat as u32, None));
        // `setup_s` comes from children that do nothing else, so that the
        // fresh-memory kernel around it does not disturb a repeat's heap or
        // its peak RSS.  They are spread over the run like the repeats.
        for _ in 0..SETUPS_PER_REPEAT {
            series
                .samples
                .push(spawn(w, seed, Mode::Setup, repeat as u32, None));
        }
    }
    if w.is_sim() {
        for fault in series.determinism_faults() {
            series.samples[0].reject(fault);
        }
    }
    series
}

/// Where span files and reports go: `<target dir>/benchmark/`, next to the
/// `release/` directory this executable was built into.
fn out_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| PathBuf::from("target/benchmark"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Ledger rows × event counts of an untraced run against the time measured
/// inside `run_round`.  What the rows do not explain is the residual: the
/// `SkueueNode` step itself, reported per visit as `core.node_step_ns`.
fn reconcile(plain: &Sample, ledger: &Sample, out: &mut BTreeMap<String, f64>) {
    let count = |name: &str| plain.get(name).unwrap_or(0.0);
    let ns = |name: &str| ledger.get(name).unwrap_or(0.0);
    let measured_s = count("sim.run_round_s");
    if measured_s <= 0.0 {
        return;
    }
    let ops = plain.attempted as f64;
    let carried = count("count.batches") * count("core.batch_size_mean");
    let predicted_ns = count("count.messages") * ns("sim.wheel_ns_per_msg")
        + count("count.visits") * ns("sim.visit_ns")
        + count("count.dht_hops") * ns("overlay.route_step_ns")
        + count("count.dht_ops") * (ns("dht.put_many_ns_per_op") + ns("dht.get_many_ns_per_op"))
            / 2.0
        + ops * ns("core.anchor_assign_ns_per_op")
        + carried * (ns("core.batch_combine_ns_per_op") + ns("core.interval_decompose_ns_per_op"));
    let share = predicted_ns / 1e9 / measured_s;
    out.insert("ledger.predicted_over_measured".into(), share);
    out.insert("ledger.residual_share".into(), 1.0 - share);
    out.insert(
        "core.node_step_ns".into(),
        (measured_s * 1e9 - predicted_ns) / count("count.visits").max(1.0),
    );
}

struct Traced {
    layers: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    fingerprint: Option<u64>,
}

/// Per-layer pass of one workload.  End-to-end numbers never come from here.
/// With `seconds`, untraced repeats are added until that much time has
/// passed, so a driver run measures for as long as it was asked to.
fn traced_pass(w: &Workload, seed: u64, seconds: Option<f64>) -> Traced {
    let start = Instant::now();
    let dir = out_dir();
    let part = dir.join(format!("trace-{}.part", w.name));
    // The untraced repeats bracket the traced ones, so that a drift of the
    // host during the pass does not read as tracing overhead.
    let mut plains = Series {
        samples: vec![spawn(w, seed, Mode::Plain, 0, None)],
    };
    let spans = spawn(w, seed, Mode::Spans, 1, Some(&part));
    let ledger = spawn(w, seed, Mode::Ledger, 0, None);
    let setup = spawn(w, seed, Mode::Setup, 0, None);
    let mut others = vec![spans.clone()];
    if let Shape::Sim(spec) = w.shape {
        others.push(spawn(w, seed, Mode::TraceSpans, 2, None));
        others.push(spawn(w, seed, Mode::TraceFull, 3, None));
        if spec.threads > 1 {
            others.push(spawn(w, seed, Mode::Serial, 4, None));
        }
    }
    loop {
        let repeat = (others.len() + plains.samples.len()) as u32;
        plains
            .samples
            .push(spawn(w, seed, Mode::Plain, repeat, None));
        if seconds.is_none_or(|s| start.elapsed().as_secs_f64() >= s) {
            break;
        }
    }
    let mut notes = [ledger.notes.clone(), setup.notes.clone()].concat();

    // Counts and timings of the layers are medians over the untraced
    // repeats; what only the spans repeat or the ledger measures is added.
    let mut plain = plains.samples[0].clone();
    for name in plain.metrics.clone().into_keys() {
        if let Some(median) = plains.median(&name) {
            plain.set(&name, median);
        }
    }
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for source in [&spans, &ledger, &setup, &plain] {
        layers.extend(source.metrics.iter().map(|(k, v)| (k.clone(), *v)));
    }
    if let Some(total) = spans.get("span.total_s.core.issue") {
        layers.insert("core.issue_ns_per_op".into(), total * 1e9 / w.ops() as f64);
    }

    if w.is_sim() {
        let wall = |s: &Sample| s.get("wall_s").unwrap_or(0.0);
        if let [_, traced_spans, traced_full, serial @ ..] = &others[..] {
            if wall(&plain) > 0.0 {
                layers.insert(
                    "trace.spans_overhead_ratio".into(),
                    wall(traced_spans) / wall(&plain),
                );
                layers.insert(
                    "trace.full_overhead_ratio".into(),
                    wall(traced_full) / wall(&plain),
                );
            }
            layers.extend(
                traced_spans
                    .metrics
                    .iter()
                    .filter(|(k, _)| k.starts_with("trace."))
                    .map(|(k, v)| (k.clone(), *v)),
            );
            if let (Some(par), Some(one)) = (
                plain.get("ops_per_sec"),
                serial.first().and_then(|s| s.get("ops_per_sec")),
            ) {
                layers.insert("sim.exec.speedup".into(), par / one);
            }
        }
        reconcile(&plain, &ledger, &mut layers);
        // Neither tracing, nor threads, nor a rerun may change the schedule.
        notes.extend(plains.determinism_faults());
        if others.iter().any(|r| r.fingerprint != plain.fingerprint) {
            let all: Vec<_> = others.iter().map(|r| r.fingerprint).collect();
            notes.push(format!(
                "the traced repeats disagree with the untraced history {:016x?}: {all:016x?}",
                plain.fingerprint
            ));
        }
    }
    let mut runs = plains.samples;
    runs.extend(others);

    // One span file per workload, written at the end of the pass.
    let body = std::fs::read_to_string(&part).unwrap_or_default();
    let _ = std::fs::remove_file(&part);
    let lines: Vec<&str> = body.lines().collect();
    let file = dir.join(format!("trace-{}.json", w.name));
    let json = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"spans\": [\n{}\n]}}\n",
        w.name,
        lines.join(",\n")
    );
    if let Err(e) = std::fs::write(&file, json) {
        notes.push(format!("cannot write {}: {e}", file.display()));
    }

    let attempted = runs.iter().map(|s| s.attempted).sum();
    let mut failed = runs.iter().map(|s| s.failed).sum();
    if !notes.is_empty() && failed == 0 {
        failed = attempted; // an output check failed without naming ops
    }
    notes.extend(runs.iter().flat_map(|s| s.notes.clone()));
    Traced {
        layers,
        attempted,
        failed,
        notes,
        fingerprint: plain.fingerprint,
    }
}

// ---------------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------------

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn result_line(
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// The names under which BENCHMARK.json lists per-layer metrics: the layer
/// table plus the end-to-end metrics that exist on some workloads only.
fn per_layer_manifest() -> Vec<(&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|m| !m.gated())
        .map(|m| (m.name, m.unit, m.better))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit, m.better)))
        .collect()
}

fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"examples/benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"examples/benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| match m.gate {
            Gate::Bound { bound, .. } => Some(format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                m.better.as_str(),
            )),
            _ => None,
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer_manifest()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint recorded with every report.
fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model),
        ("kernel", command_output("uname", &["-r"])),
        ("rustc", command_output("rustc", &["--version"])),
        ("commit", command_output("git", &["rev-parse", "HEAD"])),
        ("release_profile", PROFILE.to_string()),
    ]
}

fn print_host() {
    for (key, value) in host_fingerprint() {
        println!("host.{key}: {value}");
    }
}

fn print_end_to_end(w: &Workload, series: &Series) {
    println!("\n== {} ({} ops per repeat) ==", w.name, w.ops());
    println!(
        "{:<24} {:>7} {:>3} {:>16} {:>16} {:>16}",
        "metric", "unit", "n", "median", "q1", "q3"
    );
    for m in END_TO_END.iter().filter(|m| m.on.covers(w)) {
        let v = series.values(m.name);
        let (q1, med, q3) = stats::quartiles(&v);
        println!(
            "{:<24} {:>7} {:>3} {:>16.6} {:>16.6} {:>16.6}",
            m.name,
            m.unit,
            v.len(),
            med,
            q1,
            q3
        );
    }
    if w.is_sim() {
        println!("history fingerprints: {:016x?}", series.fingerprints());
    }
    for note in series.notes() {
        println!("FAILED: {note}");
    }
}

fn report_json(seed: u64, rows: &[(String, BTreeMap<String, f64>)]) -> String {
    let mut out = String::from("{\n  \"host\": {");
    let host: Vec<String> = host_fingerprint()
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    out.push_str(&host.join(", "));
    let _ = write!(
        out,
        "}},\n  \"seed\": {seed},\n  \"repeats\": {REPEATS},\n  \"workloads\": {{\n"
    );
    let blocks: Vec<String> = rows
        .iter()
        .map(|(workload, metrics)| {
            let cells: Vec<String> = metrics
                .iter()
                .map(|(name, value)| format!("\"{name}\": {}", num(*value)))
                .collect();
            format!("    \"{workload}\": {{{}}}", cells.join(", "))
        })
        .collect();
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// `--all`: every workload, every end-to-end metric, by name.
fn all(seed: u64) -> (Vec<(&'static Workload, Series)>, bool) {
    print_host();
    println!("seed: {seed}   repeats: {REPEATS}, each in its own process");
    let mut ok = true;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let series = end_to_end_pass(w, seed, REPEATS, None);
        print_end_to_end(w, &series);
        ok &= series.failed() == 0;
        results.push((w, series));
    }
    // The threaded workload must reproduce the single-threaded history.
    let fp = |name: &str| {
        results
            .iter()
            .find(|(w, _)| w.name == name)
            .and_then(|(_, s)| s.fingerprints().first().copied())
    };
    if fp("sim_heavy") != fp("sim_heavy_par") {
        println!("\nFAILED: sim_heavy_par's history differs from sim_heavy's");
        ok = false;
    } else {
        println!("\nsim_heavy_par == sim_heavy: {:016x?}", fp("sim_heavy"));
    }
    let rows: Vec<(String, BTreeMap<String, f64>)> = results
        .iter()
        .map(|(w, series)| {
            let medians = END_TO_END
                .iter()
                .filter(|m| m.on.covers(w))
                .filter_map(|m| Some((m.name.to_string(), series.median(m.name)?)))
                .collect();
            (w.name.to_string(), medians)
        })
        .collect();
    let path = out_dir().join("report-end-to-end.json");
    match std::fs::write(&path, report_json(seed, &rows)) {
        Ok(()) => println!("report: {}", path.display()),
        Err(e) => println!("cannot write {}: {e}", path.display()),
    }
    (results, ok)
}

/// `--traced`: every per-layer metric, the span files, tracing overhead and
/// the ledger residual.
fn traced(seed: u64) -> bool {
    print_host();
    println!("seed: {seed}   per-layer pass (end-to-end metrics come from --all)");
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let t = traced_pass(w, seed, None);
        println!("\n== {} ==", w.name);
        for m in LAYERS {
            if let Some(v) = t.layers.get(m.name) {
                println!("{:<44} {:>7} {:>18.6}", m.name, m.unit, v);
            }
        }
        if let Some(fp) = t.fingerprint {
            println!("history fingerprint: {fp:016x}");
        }
        for note in &t.notes {
            println!("FAILED: {note}");
        }
        ok &= t.failed == 0;
        let known: BTreeMap<String, f64> = t
            .layers
            .into_iter()
            .filter(|(k, _)| LAYERS.iter().any(|m| m.name == k))
            .collect();
        rows.push((w.name.to_string(), known));
    }
    let dir = out_dir();
    println!("\nspan files: {}/trace-<workload>.json", dir.display());
    let path = dir.join("report-per-layer.json");
    match std::fs::write(&path, report_json(seed, &rows)) {
        Ok(()) => println!("report: {}", path.display()),
        Err(e) => println!("cannot write {}: {e}", path.display()),
    }
    ok
}

/// `--selfcheck`: the end-to-end pass twice.  No gated median of the second
/// set may be worse than the first by more than the metric's bound; exact
/// metrics and fingerprints must be equal; unresolved metrics are shown.
fn selfcheck(seed: u64) -> bool {
    let (first, ok_a) = all(seed);
    let (second, ok_b) = all(seed);
    let mut ok = ok_a && ok_b;
    println!(
        "\n{:<14} {:<22} {:>14} {:>14} {:>9}  bound",
        "workload", "metric", "first", "second", "worse by"
    );
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        for m in END_TO_END.iter().filter(|m| m.on.covers(w)) {
            let (Some(x), Some(y)) = (a.median(m.name), b.median(m.name)) else {
                continue;
            };
            let worse = match m.better {
                Better::Lower => y - x,
                Better::Higher => x - y,
            };
            let share = if x == 0.0 { 0.0 } else { worse / x.abs() };
            let (bound, excess) = match m.gate {
                Gate::Bound { bound, floor } => (
                    format!("{}%", bound * 100.0),
                    worse > floor && share > bound,
                ),
                Gate::Exact => ("exact".to_string(), x != y),
                Gate::Unresolved => ("unresolved on this host".to_string(), false),
            };
            println!(
                "{:<14} {:<22} {:>14.6} {:>14.6} {:>8.2}%  {bound}{}",
                w.name,
                m.name,
                x,
                y,
                share * 100.0,
                if excess { "  EXCESS" } else { "" }
            );
            ok &= !excess;
        }
        if a.fingerprints().first() != b.fingerprints().first() {
            println!(
                "{:<14} fingerprints differ between the two sets  EXCESS",
                w.name
            );
            ok = false;
        }
    }
    ok
}

/// One driver run: `--workload W --seed N --seconds S --trace 0|1`.
fn driver_run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> bool {
    let (line, ok) = if trace {
        let t = traced_pass(w, seed, Some(seconds));
        for note in &t.notes {
            eprintln!("FAILED: {note}");
        }
        let metrics: Vec<(String, f64, &str)> = per_layer_manifest()
            .iter()
            .map(|(name, unit, _)| {
                (
                    name.to_string(),
                    t.layers.get(*name).copied().unwrap_or(0.0),
                    *unit,
                )
            })
            .collect();
        (
            result_line(t.attempted, t.failed, t.failed == 0, &metrics),
            t.failed == 0,
        )
    } else {
        let series = end_to_end_pass(w, seed, 0, Some(seconds));
        for note in series.notes() {
            eprintln!("FAILED: {note}");
        }
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .filter(|m| m.gated())
            .map(|m| {
                (
                    m.name.to_string(),
                    series.median(m.name).unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect();
        let ok = series.failed() == 0;
        (
            result_line(series.attempted(), series.failed(), ok, &metrics),
            ok,
        )
    };
    println!("{line}");
    ok
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

fn usage() -> ExitCode {
    eprintln!(
        "usage: skueue-benchmark --all|--traced|--selfcheck [--seed N]\n       skueue-benchmark --workload <name> --seed N --seconds S --trace 0|1\n       skueue-benchmark --manifest\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" | "--traced" | "--selfcheck" | "--manifest" => {
                flags.insert(arg.as_str(), "");
            }
            "--workload" | "--seed" | "--seconds" | "--trace" | "--child" | "--mode"
            | "--repeat" | "--spans-out" => match it.next() {
                Some(value) => {
                    flags.insert(arg.as_str(), value.as_str());
                }
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let Ok(seed) = flags
        .get("--seed")
        .map_or(Ok(DEFAULT_SEED), |s| s.parse::<u64>())
    else {
        return usage();
    };
    let code = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };

    if let Some(name) = flags.get("--child") {
        let (Some(w), Some(mode)) = (
            workloads::find(name),
            flags.get("--mode").and_then(|m| Mode::parse(m)),
        ) else {
            return usage();
        };
        let repeat = flags
            .get("--repeat")
            .and_then(|r| r.parse().ok())
            .unwrap_or(0);
        let spans_out = flags.get("--spans-out").map(Path::new);
        print!("{}", run_child(w, seed, mode, repeat, spans_out).to_lines());
        return ExitCode::SUCCESS;
    }
    if flags.contains_key("--manifest") {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    if flags.contains_key("--all") {
        return code(all(seed).1);
    }
    if flags.contains_key("--traced") {
        return code(traced(seed));
    }
    if flags.contains_key("--selfcheck") {
        return code(selfcheck(seed));
    }
    if let Some(name) = flags.get("--workload") {
        let (Some(w), Some(seconds), Some(trace)) = (
            workloads::find(name),
            flags.get("--seconds").and_then(|s| s.parse::<f64>().ok()),
            flags.get("--trace").and_then(|t| match *t {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            }),
        ) else {
            return usage();
        };
        return code(driver_run(w, seed, seconds, trace));
    }
    usage()
}
