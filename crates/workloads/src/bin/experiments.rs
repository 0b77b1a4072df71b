//! Regenerates every figure of the Skueue paper (plus the derived
//! experiments E4–E9 documented on the functions below) and prints the
//! series as tables, in rounds per request.  Wall-clock performance is
//! measured elsewhere, by `examples/benchmark` (see PERF.md).
//!
//! ```text
//! cargo run -p skueue-workloads --release --bin experiments -- [EXPERIMENT] [FLAGS]
//! ```
//!
//! [`USAGE`] lists the experiments and the flags.  An unknown experiment, an
//! unknown flag or a bad value prints it to stderr and exits with code 2; a
//! history the checker rejected, in any experiment that ran, or a churn case
//! whose joins or leaves never finished, exits with code 1 once every
//! experiment has printed its table.

use skueue_core::{Mode, ProtocolConfig, StageStats, TraceLevel};
use skueue_overlay::{
    recommended_bit_budget, route_step, Label, LabelHasher, LocalView, RouteAction, RouteProgress,
    Topology,
};
use skueue_sim::{ProcessId, SimRng};
use skueue_trace::validate_json;
use skueue_workloads::{
    run_central_baseline, run_churn_scenario, run_fairness_scenario, run_fixed_rate,
    run_fixed_rate_traced, run_per_node_rate, run_string_payload_fig2, ScenarioParams,
    ScenarioResult,
};

const USAGE: &str = "\
usage: experiments [EXPERIMENT] [FLAGS]

EXPERIMENT: all (default) | fig2 | fig3 | fig4 | scaling | batchsize | churn |
            fairness | payloads | ablation-batching | ablation-combining |
            routes | trace (not part of `all`)
FLAGS:      --smoke        tiny sweep (seconds; used by CI)
            --paper-scale  the paper's full parameter grid, n up to 100000
                           (measured: fig2 about 35 s, fig3 125 s, scaling 2 s); every
                           point is verified except fig4's (10^7 requests at
                           p = 1.0), whose `consistent` column prints `-`
            --seed <u64>   workload/simulation seed (default 42)
            --out <path>   `trace` only, and required there: where to write
                           the Chrome/Perfetto trace of a fig2 run";

/// Every size the experiments take at one scale.
struct Scale {
    /// The scale's name in the header line.
    name: &'static str,
    /// Process counts of the Figure 2/3 x-axis (also E4's and the routes').
    process_counts: &'static [usize],
    /// Rounds of request generation of Figures 2–4.
    generation_rounds: u64,
    /// Insert-probability curves of Figures 2 and 3.
    insert_ratios: &'static [f64],
    /// Per-node request probabilities of Figure 4 and E8.
    request_probabilities: &'static [f64],
    /// Processes of Figure 4.
    fig4_processes: usize,
    /// Whether Figure 4 verifies each point's history.  Off at the paper
    /// scale only: its p = 1.0 points issue 10⁷ requests, ≈ 1.2 GB of
    /// history (ROADMAP, item 6).  The fixed-rate sweeps (`fig2`, `fig3`,
    /// `scaling`) issue 10⁴ requests a point and verify at every scale.
    verify_fig4: bool,
    /// Processes of E8 and E9.
    ablation_processes: usize,
    /// Processes of the `String` payload run (over 4 shards).
    payload_processes: usize,
    /// Processes of the trace export (over 4 shards).
    trace_processes: usize,
    /// Random routes walked per process count by [`route_hops`].
    routes: usize,
    /// E6's (initial processes, joins, leaves) cases.
    churn: &'static [(usize, usize, usize)],
    /// E7's (processes, elements) cases.
    fairness: &'static [(usize, u64)],
}

impl Scale {
    /// Generation rounds of E4 and the trace export.
    fn scaling_rounds(&self) -> u64 {
        self.generation_rounds.min(100)
    }

    /// Generation rounds of E5, E8 and E9.
    fn load_rounds(&self) -> u64 {
        self.generation_rounds.min(50)
    }

    /// Processes of E5.
    fn batch_processes(&self) -> usize {
        self.fig4_processes.min(2000)
    }
}

const RATIOS: &[f64] = &[0.0, 0.25, 0.5, 0.75, 1.0];
const PROBABILITIES: &[f64] = &[0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0];

/// Quick smoke test (seconds) — used by CI and the integration tests.
const SMOKE: Scale = Scale {
    name: "Smoke",
    process_counts: &[20, 60],
    generation_rounds: 20,
    insert_ratios: &[0.5, 1.0],
    request_probabilities: &[0.1, 0.5],
    fig4_processes: 50,
    verify_fig4: true,
    ablation_processes: 30,
    payload_processes: 32,
    trace_processes: 60,
    routes: 2_000,
    churn: &[(6, 2, 1)],
    fairness: &[(10, 300)],
};

/// Laptop-friendly default: `all` takes ≈ 14 s on the 2-vCPU development
/// host.
const DEFAULT: Scale = Scale {
    name: "Default",
    process_counts: &[100, 300, 1000, 3000, 10_000],
    generation_rounds: 100,
    insert_ratios: RATIOS,
    request_probabilities: PROBABILITIES,
    fig4_processes: 2000,
    verify_fig4: true,
    ablation_processes: 500,
    payload_processes: 1_000,
    trace_processes: 3_000,
    routes: 100_000,
    churn: &[(10, 5, 3), (20, 10, 5), (40, 20, 10)],
    fairness: &[(20, 2_000), (50, 5_000), (100, 10_000)],
};

/// The paper's full scale: n up to 10⁵, 1000 generation rounds.  Measured
/// on the 2-vCPU development host, verifier on: `fig2` (25 points) ≈ 35 s
/// and 345 MB, `fig3` ≈ 125 s and 470 MB, `scaling` ≈ 2 s; `fig4` (10⁷
/// requests at p = 1.0, unverified) has not been timed.  E6's joins do not
/// all integrate at this scale (ROADMAP item 1): each case stops after its
/// 10⁵-round budget, the lines after the table name the pids still joining,
/// and `experiments` exits 1 once the experiments after E6 have run too.
const PAPER: Scale = Scale {
    name: "PaperScale",
    process_counts: &[10_000, 25_000, 50_000, 75_000, 100_000],
    generation_rounds: 1000,
    insert_ratios: RATIOS,
    request_probabilities: PROBABILITIES,
    fig4_processes: 10_000,
    verify_fig4: false,
    ablation_processes: 500,
    payload_processes: 10_000,
    trace_processes: 10_000,
    routes: 100_000,
    churn: &[(100, 50, 25), (200, 100, 50)],
    fairness: &[(1_000, 100_000)],
};

/// An experiment takes the scale and the seed, and returns false if the
/// checker rejected a history it ran on, or a join or leave it waited for
/// never finished.
type Experiment = fn(&Scale, u64) -> bool;

/// The experiments `all` runs, in order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("scaling", scaling),
    ("batchsize", batch_size),
    ("churn", churn),
    ("fairness", fairness),
    ("payloads", payloads),
    ("ablation-batching", ablation_batching),
    ("ablation-combining", ablation_combining),
    ("routes", routes),
];

/// A parsed command line.
struct Cli {
    experiment: String,
    scale: &'static Scale,
    seed: u64,
    out: Option<String>,
}

/// Parses the arguments after the program name; the error is the message
/// printed above the usage.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        experiment: "all".to_string(),
        scale: &DEFAULT,
        seed: 42,
        out: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.scale = &SMOKE,
            "--paper-scale" => cli.scale = &PAPER,
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                cli.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a u64, got `{value}`"))?;
            }
            "--out" => cli.out = Some(args.next().ok_or("--out needs a path")?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name => cli.experiment = name.to_string(),
        }
    }
    let name = cli.experiment.as_str();
    if name != "all" && name != "trace" && !EXPERIMENTS.iter().any(|&(n, _)| n == name) {
        return Err(format!("unknown experiment `{name}`"));
    }
    if (name == "trace") != cli.out.is_some() {
        return Err("`trace` needs --out <path>, and only `trace` takes it".to_string());
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("error: {message}\n\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "Skueue experiment harness — scale: {}, seed: {}",
        cli.scale.name, cli.seed
    );
    // `parse_args` lets `--out` through exactly when the experiment is `trace`.
    if let Some(path) = &cli.out {
        return trace(cli.scale, cli.seed, path);
    }
    let mut rejected = Vec::new();
    for &(name, run) in EXPERIMENTS {
        if (cli.experiment == "all" || cli.experiment == name) && !run(cli.scale, cli.seed) {
            rejected.push(name);
        }
    }
    if !rejected.is_empty() {
        eprintln!("error: a history was rejected or a churn case got stuck in {rejected:?}");
        std::process::exit(1);
    }
}

/// Prints a titled table.  `columns` names each column and its width as
/// `name:width`, a row lists its cells, and both separate them with `|`.
/// Rows print as they are produced, each cell padded to its column's width
/// — right-aligned, or left-aligned for a negative width — with one space
/// between cells.  A row whose cell count is not the column count panics.
fn table(title: &str, columns: &str, rows: impl IntoIterator<Item = String>) {
    let columns: Vec<(&str, isize)> = (columns.split('|'))
        .map(|column| {
            let (name, width) = column.rsplit_once(':').expect("a column is name:width");
            (name, width.parse().expect("a column width is a number"))
        })
        .collect();
    let line = |cells: Vec<&str>| {
        assert_eq!(cells.len(), columns.len(), "{title}: cells {cells:?}");
        let padded: Vec<String> = (cells.iter().zip(&columns))
            .map(|(cell, &(_, width))| match width.unsigned_abs() {
                w if width < 0 => format!("{cell:<w$}"),
                w => format!("{cell:>w$}"),
            })
            .collect();
        println!("{}", padded.join(" "));
    };
    println!("\n=== {title} ===");
    line(columns.iter().map(|&(name, _)| name).collect());
    rows.into_iter()
        .for_each(|row| line(row.split('|').collect()));
}

/// One point of a figure's series: its curve, its x and what the run
/// measured.
struct Point {
    curve: String,
    x: f64,
    result: ScenarioResult,
}

/// Prints a figure's series, one row per point, and returns whether every
/// point was accepted.
fn series(title: &str, x_label: &str, points: &[Point]) -> bool {
    let columns = format!(
        "curve:-24|{x_label}:10|requests:10|avg rounds:14|p50 rounds:12|p99 rounds:12|max rounds:12|\
         batch size:12|consistent:10"
    );
    table(
        title,
        &columns,
        points.iter().map(|p| {
            let r = &p.result;
            let (avg, p50, p99) = (r.avg_rounds_per_request, r.p50_rounds, r.p99_rounds);
            let (max, batch) = (r.max_rounds_per_request, r.mean_batch_size);
            let verdict = consistent_cell(r);
            format!(
                "{}|{}|{}|{avg:.2}|{p50}|{p99}|{max}|{batch:.2}|{verdict}",
                p.curve, p.x, r.requests
            )
        }),
    );
    points.iter().all(|p| p.result.consistent)
}

/// The `consistent` column of a point: the verifier's verdict, or `-` for a
/// point it did not check.
fn consistent_cell(result: &ScenarioResult) -> &'static str {
    match (result.verified, result.consistent) {
        (false, _) => "-",
        (true, true) => "true",
        (true, false) => "false",
    }
}

/// The Figure 2/3 sweep: every insert ratio at every process count, on the
/// queue or the stack, under the fixed-rate workload.
fn fixed_rate_sweep(mode: Mode, scale: &Scale, seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for &ratio in scale.insert_ratios {
        for &n in scale.process_counts {
            let params = ScenarioParams::fixed_rate(n, mode, ratio)
                .with_generation_rounds(scale.generation_rounds)
                .with_seed(seed);
            points.push(Point {
                curve: format!("insert_ratio={ratio}"),
                x: n as f64,
                result: run_fixed_rate(params),
            });
        }
    }
    points
}

/// The Figure 4 sweep: queue and stack under increasing per-node load.
fn fig4_sweep(scale: &Scale, seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for mode in [Mode::Queue, Mode::Stack] {
        for &p in scale.request_probabilities {
            let mut params = ScenarioParams::per_node_rate(scale.fig4_processes, mode, p)
                .with_generation_rounds(scale.generation_rounds)
                .with_seed(seed);
            params.verify = scale.verify_fig4;
            points.push(Point {
                curve: format!("{mode:?}"),
                x: p,
                result: run_per_node_rate(params),
            });
        }
    }
    points
}

fn fig2(scale: &Scale, seed: u64) -> bool {
    series(
        "Figure 2: avg rounds per request on the QUEUE vs n (curves: enqueue probability)",
        "n",
        &fixed_rate_sweep(Mode::Queue, scale, seed),
    )
}

fn fig3(scale: &Scale, seed: u64) -> bool {
    series(
        "Figure 3: avg rounds per request on the STACK vs n (curves: push probability)",
        "n",
        &fixed_rate_sweep(Mode::Stack, scale, seed),
    )
}

fn fig4(scale: &Scale, seed: u64) -> bool {
    series(
        "Figure 4: avg rounds per request vs per-node request probability (queue vs stack)",
        "p",
        &fig4_sweep(scale, seed),
    )
}

/// `trace --out <path>`: runs one fig2 point (queue, insert ratio 0.5, four
/// anchor shards) at full tracing, checks that the Chrome trace-event export
/// is valid JSON with one per-op slice per completed request, writes it to
/// `path` (load it in Perfetto or `chrome://tracing` — see OBSERVABILITY.md)
/// and prints the six-stage latency table.
fn trace(scale: &Scale, seed: u64, path: &str) {
    let n = scale.trace_processes;
    println!("\n=== Trace export: fig2 n={n}, shards=4, trace=full ===");
    let artifacts = run_fixed_rate_traced(
        ScenarioParams::fixed_rate(n, Mode::Queue, 0.5)
            .with_generation_rounds(scale.scaling_rounds())
            .with_seed(seed)
            .with_shards(4)
            .with_trace(TraceLevel::Full)
            .without_verification(),
    );
    let result = &artifacts.result;
    assert!(
        validate_json(&artifacts.chrome_json),
        "chrome trace export is not valid JSON"
    );
    let slices = artifacts.chrome_json.matches("\"cat\":\"op\"").count() as u64;
    assert_eq!(
        slices, result.requests,
        "one chrome slice per completed request"
    );
    if let Err(e) = std::fs::write(path, &artifacts.chrome_json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {path}: {} events rendered, {slices} op slices ({} requests)",
        result.trace_events, result.requests
    );
    println!("stage breakdown (rounds, nearest-rank):");
    for (stage, stats) in &result.stage_latencies {
        println!(
            "  {stage:<12} n={:<5} p50={:<5} p99={:<5} p999={:<5} max={}",
            stats.count, stats.p50, stats.p99, stats.p999, stats.max
        );
    }
}

/// E4: per-request rounds and DHT hops as a function of n (Theorem 15 /
/// Lemma 3 shape check).
fn scaling(scale: &Scale, seed: u64) -> bool {
    let mut consistent = true;
    table(
        "E4: scaling of rounds-per-request and DHT hops with n",
        "n:10|avg rounds:14|mean hops:12|max batch:14",
        scale.process_counts.iter().map(|&n| {
            let r = run_fixed_rate(
                ScenarioParams::fixed_rate(n, Mode::Queue, 0.5)
                    .with_generation_rounds(scale.scaling_rounds())
                    .with_seed(seed),
            );
            consistent &= r.consistent;
            let (rounds, hops) = (r.avg_rounds_per_request, r.mean_dht_hops);
            format!("{n}|{rounds:.2}|{hops:.2}|{}", r.max_batch_size)
        }),
    );
    consistent
}

/// Walks `routes` routes, each from a uniformly random virtual node to a
/// uniformly random label, on the starting topology of processes `0..n`
/// under the default label hash and the bit budget a shard of `n`
/// processes routes with.  Each route steps [`route_step`] from view to
/// view — the overlay alone, no cluster, no message — until a node is
/// responsible for the label, and counts its forwards.  Returns the mean
/// and the nearest-rank summary of the hop counts.
fn route_hops(n: usize, routes: usize, seed: u64) -> (f64, StageStats) {
    let processes: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
    let hasher = LabelHasher::new(ProtocolConfig::queue().hash_seed);
    let topology = Topology::build(&processes, hasher).expect("distinct process ids");
    // Processes `0..n` in order, three views each in kind order: a view's
    // index is its node's dense id.
    let views: Vec<LocalView> = (topology.views())
        .flat_map(|views| views.map(|(view, _)| view))
        .collect();
    let bits = recommended_bit_budget(n);
    let mut rng = SimRng::new(seed);
    let mut hops: Vec<u64> = (0..routes)
        .map(|_| {
            let mut at = &views[(rng.next_u64() % views.len() as u64) as usize];
            let mut progress = RouteProgress::new(Label(rng.next_u64()), bits);
            let mut forwards = 0;
            while let RouteAction::Forward(next) = route_step(at, &mut progress) {
                at = &views[next.0 as usize];
                forwards += 1;
            }
            forwards
        })
        .collect();
    let mean = hops.iter().sum::<u64>() as f64 / routes.max(1) as f64;
    (mean, StageStats::from_samples(&mut hops))
}

/// Hops of random routes on the starting overlay against n, the overlay
/// alone: the tail of fig2 and fig3 shows here as a maximum far above the
/// O(log n) hops the paper proves, from routes whose distance-halving walk
/// crosses the label wrap.  Prints the numbers and checks no bound; runs
/// no history, so it rejects none.
fn routes(scale: &Scale, seed: u64) -> bool {
    table(
        &format!(
            "Routing: hops of {} random routes on the starting overlay",
            scale.routes
        ),
        "n:10|mean hops:12|p99 hops:10|max hops:10",
        scale.process_counts.iter().map(|&n| {
            let (mean, hops) = route_hops(n, scale.routes, seed);
            format!("{n}|{mean:.2}|{}|{}", hops.p99, hops.max)
        }),
    );
    true
}

/// E5: batch sizes under one request per node per round (Theorems 18 and 20).
fn batch_size(scale: &Scale, seed: u64) -> bool {
    let n = scale.batch_processes();
    let mut consistent = true;
    table(
        "E5: batch sizes at one request per node per round",
        "mode:8|n:10|mean batch size:16|max batch size:16",
        [Mode::Queue, Mode::Stack].into_iter().map(|mode| {
            let r = run_per_node_rate(
                ScenarioParams::per_node_rate(n, mode, 1.0)
                    .with_generation_rounds(scale.load_rounds())
                    .with_seed(seed),
            );
            consistent &= r.consistent;
            format!("{mode:?}|{n}|{:.2}|{}", r.mean_batch_size, r.max_batch_size)
        }),
    );
    consistent
}

/// E6: update-phase duration under bulk joins/leaves (Theorem 17).  A
/// case whose joins or leaves do not finish stops there and prints
/// `consistent` false; the lines after the table name its processes still
/// joining or leaving.
fn churn(scale: &Scale, seed: u64) -> bool {
    let mut consistent = true;
    let mut stuck = Vec::new();
    table(
        "E6: churn — bulk joins and leaves",
        "initial n:10|joins:8|leaves:8|join rounds:12|leave rounds:12|consistent:12",
        scale.churn.iter().map(|&(n, joins, leaves)| {
            let r = run_churn_scenario(n, joins, leaves, seed);
            consistent &= r.consistent;
            if !r.unsettled.is_empty() {
                stuck.push(format!("initial n {n}: {:?}", r.unsettled));
            }
            format!(
                "{}|{}|{}|{}|{}|{}",
                r.initial_processes, r.joins, r.leaves, r.join_rounds, r.leave_rounds, r.consistent
            )
        }),
    );
    for case in stuck {
        println!("stopped, still joining or leaving at {case}");
    }
    consistent
}

/// E7: fairness of the element distribution (Corollary 19).
/// Runs no checker, so it always returns true.
fn fairness(scale: &Scale, seed: u64) -> bool {
    table(
        "E7: fairness of the stored-element distribution",
        "n:10|elements:10|max/mean:14|cv:10",
        scale.fairness.iter().map(|&(n, elements)| {
            let r = run_fairness_scenario(n, elements, seed);
            format!("{n}|{}|{:.2}|{:.3}", r.elements, r.max_over_mean, r.cv)
        }),
    );
    true
}

/// Generic payloads: a `Skueue<String>` job queue over 4 anchor shards,
/// verified end to end by `check_queue_sharded` (whose payload round-trip
/// rule proves every dequeued job string is byte-identical to its enqueue).
/// Returns the checker's verdict, so `experiments` exits non-zero on an
/// inconsistent history and this doubles as the CI canary for the non-`u64`
/// instantiation.
fn payloads(scale: &Scale, seed: u64) -> bool {
    println!("\n=== Generic payloads: Skueue<String> job queue over 4 shards ===");
    let r = run_string_payload_fig2(scale.payload_processes, 4, seed);
    println!(
        "n={} shards={} requests={} empty={} avg rounds={:.2} consistent={}",
        r.processes, r.shards, r.requests, r.empty_removes, r.avg_rounds_per_request, r.consistent
    );
    if r.consistent {
        println!("String payloads verified over {} shards ✓", r.shards);
    }
    r.consistent
}

/// E8: Skueue vs the unbatched central-server baseline under increasing load.
fn ablation_batching(scale: &Scale, seed: u64) -> bool {
    let (n, rounds) = (scale.ablation_processes, scale.load_rounds());
    let mut consistent = true;
    table(
        "E8 (ablation): batched Skueue vs unbatched central server",
        "p:8|n:10|skueue avg rounds:22|central avg rounds:22",
        scale.request_probabilities.iter().map(|&p| {
            let skueue = run_per_node_rate(
                ScenarioParams::per_node_rate(n, Mode::Queue, p)
                    .with_generation_rounds(rounds)
                    .with_seed(seed),
            );
            // The central server handles 10 requests per round — generous
            // for a single machine, yet it saturates once n·p exceeds it.
            let central = run_central_baseline(n, p, 0.5, rounds, 10, seed);
            consistent &= skueue.consistent;
            let (ours, theirs) = (
                skueue.avg_rounds_per_request,
                central.avg_rounds_per_request,
            );
            format!("{p}|{n}|{ours:.2}|{theirs:.2}")
        }),
    );
    consistent
}

/// E9: the effect of the stack's local combining — how many requests are
/// resolved locally (and therefore instantly) as the per-node request rate
/// grows.  This is the mechanism behind the Figure 4 observation that "the
/// stack's performance gets even better if the rate at which requests are
/// generated increases".
///
/// Note: the Section VI protocol relies on local combining to keep a node's
/// residual batch in the `POP^a · PUSH^b` form; running the stack with the
/// optimisation disabled is outside the paper's protocol and is therefore not
/// measured as a separate configuration.
fn ablation_combining(scale: &Scale, seed: u64) -> bool {
    let n = scale.ablation_processes;
    let mut consistent = true;
    table(
        "E9 (ablation): effect of the stack's local combining",
        "p:8|n:10|avg rounds:16|combined requests:18|combined fraction:20",
        [0.25, 0.5, 1.0].into_iter().map(|p| {
            let on = run_per_node_rate(
                ScenarioParams::per_node_rate(n, Mode::Stack, p)
                    .with_generation_rounds(scale.load_rounds())
                    .with_seed(seed),
            );
            // No request combines locally when none is issued.
            let fraction = on.locally_combined as f64 / on.requests.max(1) as f64;
            consistent &= on.consistent;
            let (rounds, combined) = (on.avg_rounds_per_request, on.locally_combined);
            format!("{p}|{n}|{rounds:.2}|{combined}|{fraction:.2}")
        }),
    );
    consistent
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_configs_are_small() {
        const {
            assert!(SMOKE.verify_fig4 && DEFAULT.verify_fig4 && !PAPER.verify_fig4);
            assert!(SMOKE.generation_rounds <= 50);
            assert!(DEFAULT.process_counts.len() >= 4);
        }
        assert!(SMOKE.process_counts.iter().all(|&n| n <= 100));
    }

    #[test]
    fn print_series_does_not_panic() {
        let points = fixed_rate_sweep(Mode::Queue, &SMOKE, 1);
        assert!(series("smoke", "n", &points));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn a_row_with_a_missing_cell_panics() {
        table("short row", "a:4|b:4", ["1".to_string()]);
    }

    #[test]
    fn fig2_smoke_sweep_runs_and_scales_logarithmically() {
        let points = fixed_rate_sweep(Mode::Queue, &SMOKE, 3);
        assert_eq!(points.len(), 4); // 2 ratios × 2 sizes
        assert!(points.iter().all(|p| p.result.consistent));
        // Larger systems must not be more than ~4x slower per request than
        // the small ones at this scale (logarithmic growth, Theorem 15).
        let worst = |large: bool| {
            (points.iter())
                .filter(|p| (p.x > 50.0) == large)
                .map(|p| p.result.avg_rounds_per_request)
                .fold(0.0, f64::max)
        };
        let (small, large) = (worst(false), worst(true));
        assert!(large < small * 4.0, "small={small}, large={large}");
    }

    #[test]
    fn fig4_smoke_sweep_runs() {
        let points = fig4_sweep(&SMOKE, 5);
        assert_eq!(points.len(), 4); // 2 modes × 2 probabilities
        assert!(points.iter().all(|p| p.result.consistent));
    }

    #[test]
    fn an_unverified_point_prints_no_verdict() {
        let params = ScenarioParams::fixed_rate(20, Mode::Queue, 0.5).with_generation_rounds(10);
        let verified = run_fixed_rate(params);
        assert!(verified.verified && verified.consistent);
        assert_eq!(consistent_cell(&verified), "true");
        let unverified = run_fixed_rate(params.without_verification());
        assert!(!unverified.verified);
        assert_eq!(consistent_cell(&unverified), "-");
    }

    /// Every route arrives, the summary is ordered, and one seed walks the
    /// same routes.
    #[test]
    fn random_routes_arrive_and_summarise() {
        let (mean, stats) = route_hops(60, 500, 1);
        assert!(mean > 0.0);
        assert!(mean <= stats.p99 as f64 && stats.p99 <= stats.max);
        assert_eq!(route_hops(60, 500, 1), (mean, stats), "one seed, one walk");
    }
}
