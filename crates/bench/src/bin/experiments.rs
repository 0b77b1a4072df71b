//! Regenerates every figure of the Skueue paper (plus the derived
//! experiments E4–E9 documented on the functions below) and prints the
//! series as tables.
//!
//! ```text
//! cargo run -p skueue-bench --release --bin experiments -- [EXPERIMENT] [FLAGS]
//! ```
//!
//! [`USAGE`] lists the experiments and the flags.  An unknown experiment, an
//! unknown flag or a bad value prints it to stderr and exits with code 2; a
//! history the checker rejected, in any experiment that ran, exits with
//! code 1 once every experiment has printed its table.

use skueue_bench::{
    fig2_sweep, fig3_sweep, fig4_sweep, print_series, route_hops, ExperimentPoint, SweepConfig,
};
use skueue_core::{Mode, TraceLevel};
use skueue_trace::validate_json;
use skueue_workloads::{
    run_central_baseline, run_churn_scenario, run_fairness_scenario, run_fixed_rate_traced,
    run_per_node_rate, run_string_payload_fig2, ScenarioParams,
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

/// An experiment takes the scale and the seed, and returns false if the
/// checker rejected a history it ran on.
type Experiment = fn(SweepConfig, u64) -> bool;

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
    config: SweepConfig,
    seed: u64,
    out: Option<String>,
}

/// Parses the arguments after the program name; the error is the message
/// printed above the usage.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        experiment: "all".to_string(),
        config: SweepConfig::Default,
        seed: 42,
        out: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cli.config = SweepConfig::Smoke,
            "--paper-scale" => cli.config = SweepConfig::PaperScale,
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
        "Skueue experiment harness — scale: {:?}, seed: {}",
        cli.config, cli.seed
    );
    // `parse_args` lets `--out` through exactly when the experiment is `trace`.
    if let Some(path) = &cli.out {
        return trace(cli.config, cli.seed, path);
    }
    let mut rejected = Vec::new();
    for &(name, run) in EXPERIMENTS {
        if (cli.experiment == "all" || cli.experiment == name) && !run(cli.config, cli.seed) {
            rejected.push(name);
        }
    }
    if !rejected.is_empty() {
        eprintln!("error: the checker rejected a history in {rejected:?}");
        std::process::exit(1);
    }
}

/// Prints a sweep's table and returns whether every point was accepted.
fn print_verified(title: &str, x_label: &str, points: &[ExperimentPoint]) -> bool {
    print_series(title, x_label, points);
    points.iter().all(|p| p.result.consistent)
}

fn fig2(config: SweepConfig, seed: u64) -> bool {
    print_verified(
        "Figure 2: avg rounds per request on the QUEUE vs n (curves: enqueue probability)",
        "n",
        &fig2_sweep(config, seed),
    )
}

fn fig3(config: SweepConfig, seed: u64) -> bool {
    print_verified(
        "Figure 3: avg rounds per request on the STACK vs n (curves: push probability)",
        "n",
        &fig3_sweep(config, seed),
    )
}

fn fig4(config: SweepConfig, seed: u64) -> bool {
    print_verified(
        "Figure 4: avg rounds per request vs per-node request probability (queue vs stack)",
        "p",
        &fig4_sweep(config, seed),
    )
}

/// `trace --out <path>`: runs one fig2 point (queue, insert ratio 0.5, four
/// anchor shards) at full tracing, checks that the Chrome trace-event export
/// is valid JSON with one per-op slice per completed request, writes it to
/// `path` (load it in Perfetto or `chrome://tracing` — see OBSERVABILITY.md)
/// and prints the six-stage latency table.
fn trace(config: SweepConfig, seed: u64, path: &str) {
    let n = match config {
        SweepConfig::Smoke => 60,
        SweepConfig::Default => 3_000,
        SweepConfig::PaperScale => 10_000,
    };
    println!("\n=== Trace export: fig2 n={n}, shards=4, trace=full ===");
    let artifacts = run_fixed_rate_traced(
        ScenarioParams::fixed_rate(n, Mode::Queue, 0.5)
            .with_generation_rounds(config.generation_rounds().min(100))
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
fn scaling(config: SweepConfig, seed: u64) -> bool {
    println!("\n=== E4: scaling of rounds-per-request and DHT hops with n ===");
    println!(
        "{:>10} {:>14} {:>12} {:>14}",
        "n", "avg rounds", "mean hops", "max batch"
    );
    let mut consistent = true;
    for &n in &config.process_counts() {
        let params = ScenarioParams::fixed_rate(n, Mode::Queue, 0.5)
            .with_generation_rounds(config.generation_rounds().min(100))
            .with_seed(seed);
        let r = skueue_workloads::run_fixed_rate(params);
        println!(
            "{:>10} {:>14.2} {:>12.2} {:>14}",
            n, r.avg_rounds_per_request, r.mean_dht_hops, r.max_batch_size
        );
        consistent &= r.consistent;
    }
    consistent
}

/// Hops of random routes on the starting overlay against n, the overlay
/// alone: the tail of fig2 and fig3 shows here as a maximum far above the
/// O(log n) hops the paper proves, from routes whose distance-halving walk
/// crosses the label wrap.  Prints the numbers and checks no bound; runs
/// no history, so it rejects none.
fn routes(config: SweepConfig, seed: u64) -> bool {
    let routes = config.routes();
    println!("\n=== Routing: hops of {routes} random routes on the starting overlay ===");
    println!(
        "{:>10} {:>12} {:>10} {:>10}",
        "n", "mean hops", "p99 hops", "max hops"
    );
    for &n in &config.process_counts() {
        let hops = route_hops(n, routes, seed);
        println!(
            "{:>10} {:>12.2} {:>10} {:>10}",
            n, hops.mean, hops.p99, hops.max
        );
    }
    true
}

/// E5: batch sizes under one request per node per round (Theorems 18 and 20).
fn batch_size(config: SweepConfig, seed: u64) -> bool {
    println!("\n=== E5: batch sizes at one request per node per round ===");
    println!(
        "{:>8} {:>10} {:>16} {:>16}",
        "mode", "n", "mean batch size", "max batch size"
    );
    let n = config.fig4_processes().min(2000);
    let mut consistent = true;
    for mode in [Mode::Queue, Mode::Stack] {
        let params = ScenarioParams::per_node_rate(n, mode, 1.0)
            .with_generation_rounds(config.generation_rounds().min(50))
            .with_seed(seed);
        let r = run_per_node_rate(params);
        println!(
            "{:>8} {:>10} {:>16.2} {:>16}",
            format!("{mode:?}"),
            n,
            r.mean_batch_size,
            r.max_batch_size
        );
        consistent &= r.consistent;
    }
    consistent
}

/// E6: update-phase duration under bulk joins/leaves (Theorem 17).
fn churn(config: SweepConfig, seed: u64) -> bool {
    println!("\n=== E6: churn — bulk joins and leaves ===");
    println!(
        "{:>10} {:>8} {:>8} {:>12} {:>12} {:>12}",
        "initial n", "joins", "leaves", "join rounds", "leave rounds", "consistent"
    );
    let sizes: Vec<(usize, usize, usize)> = match config {
        SweepConfig::Smoke => vec![(6, 2, 1)],
        SweepConfig::Default => vec![(10, 5, 3), (20, 10, 5), (40, 20, 10)],
        SweepConfig::PaperScale => vec![(100, 50, 25), (200, 100, 50)],
    };
    let mut consistent = true;
    for (n, joins, leaves) in sizes {
        let r = run_churn_scenario(n, joins, leaves, seed);
        println!(
            "{:>10} {:>8} {:>8} {:>12} {:>12} {:>12}",
            r.initial_processes, r.joins, r.leaves, r.join_rounds, r.leave_rounds, r.consistent
        );
        consistent &= r.consistent;
    }
    consistent
}

/// E7: fairness of the element distribution (Corollary 19).
/// Runs no checker, so it always returns true.
fn fairness(config: SweepConfig, seed: u64) -> bool {
    println!("\n=== E7: fairness of the stored-element distribution ===");
    println!(
        "{:>10} {:>10} {:>14} {:>10}",
        "n", "elements", "max/mean", "cv"
    );
    let cases: Vec<(usize, u64)> = match config {
        SweepConfig::Smoke => vec![(10, 300)],
        SweepConfig::Default => vec![(20, 2_000), (50, 5_000), (100, 10_000)],
        SweepConfig::PaperScale => vec![(1_000, 100_000)],
    };
    for (n, elements) in cases {
        let r = run_fairness_scenario(n, elements, seed);
        println!(
            "{:>10} {:>10} {:>14.2} {:>10.3}",
            n, r.elements, r.max_over_mean, r.cv
        );
    }
    true
}

/// Generic payloads: a `Skueue<String>` job queue over 4 anchor shards,
/// verified end to end by `check_queue_sharded` (whose payload round-trip
/// rule proves every dequeued job string is byte-identical to its enqueue).
/// Returns the checker's verdict, so `experiments` exits non-zero on an
/// inconsistent history and this doubles as the CI canary for the non-`u64`
/// instantiation.
fn payloads(config: SweepConfig, seed: u64) -> bool {
    println!("\n=== Generic payloads: Skueue<String> job queue over 4 shards ===");
    let (n, shards) = match config {
        SweepConfig::Smoke => (32, 4),
        SweepConfig::Default => (1_000, 4),
        SweepConfig::PaperScale => (10_000, 4),
    };
    let r = run_string_payload_fig2(n, shards, seed);
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
fn ablation_batching(config: SweepConfig, seed: u64) -> bool {
    println!("\n=== E8 (ablation): batched Skueue vs unbatched central server ===");
    println!(
        "{:>8} {:>10} {:>22} {:>22}",
        "p", "n", "skueue avg rounds", "central avg rounds"
    );
    let n = match config {
        SweepConfig::Smoke => 30,
        _ => 500,
    };
    let rounds = config.generation_rounds().min(50);
    let mut consistent = true;
    for &p in &config.request_probabilities() {
        let skueue = run_per_node_rate(
            ScenarioParams::per_node_rate(n, Mode::Queue, p)
                .with_generation_rounds(rounds)
                .with_seed(seed),
        );
        // The central server handles 10 requests per round — generous for a
        // single machine, yet it saturates once n·p exceeds it.
        let central = run_central_baseline(n, p, 0.5, rounds, 10, seed);
        println!(
            "{:>8} {:>10} {:>22.2} {:>22.2}",
            p, n, skueue.avg_rounds_per_request, central.avg_rounds_per_request
        );
        consistent &= skueue.consistent;
    }
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
fn ablation_combining(config: SweepConfig, seed: u64) -> bool {
    println!("\n=== E9 (ablation): effect of the stack's local combining ===");
    println!(
        "{:>8} {:>10} {:>16} {:>18} {:>20}",
        "p", "n", "avg rounds", "combined requests", "combined fraction"
    );
    let n = match config {
        SweepConfig::Smoke => 30,
        _ => 500,
    };
    let rounds = config.generation_rounds().min(50);
    let mut consistent = true;
    for &p in &[0.25, 0.5, 1.0] {
        let on = run_per_node_rate(
            ScenarioParams::per_node_rate(n, Mode::Stack, p)
                .with_generation_rounds(rounds)
                .with_seed(seed),
        );
        let fraction = if on.requests > 0 {
            on.locally_combined as f64 / on.requests as f64
        } else {
            0.0
        };
        println!(
            "{:>8} {:>10} {:>16.2} {:>18} {:>20.2}",
            p, n, on.avg_rounds_per_request, on.locally_combined, fraction
        );
        consistent &= on.consistent;
    }
    consistent
}
