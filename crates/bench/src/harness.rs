//! Sweep definitions and result formatting of the `experiments` binary.

use skueue_core::{Mode, ProtocolConfig, StageStats};
use skueue_overlay::{
    recommended_bit_budget, route_step, Label, LabelHasher, LocalView, RouteAction, RouteProgress,
    Topology,
};
use skueue_sim::{ProcessId, SimRng};
use skueue_workloads::{run_fixed_rate, run_per_node_rate, ScenarioParams, ScenarioResult};

/// Scale of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepConfig {
    /// Laptop-friendly default (minutes).
    Default,
    /// Quick smoke test (seconds) — used by integration tests.
    Smoke,
    /// The paper's full scale: n up to 10⁵, 1000 generation rounds.
    /// Measured on the 2-vCPU development host, verifier on: `fig2`
    /// (25 points) ≈ 35 s and 345 MB, `fig3` ≈ 125 s and 470 MB, `scaling`
    /// ≈ 2 s; `fig4` (10⁷ requests at p = 1.0, unverified — see
    /// `SweepConfig::verify`) and `all` have not been timed (ROADMAP, item 8).
    PaperScale,
}

impl SweepConfig {
    /// Process counts for the Figure 2/3 x-axis.
    pub fn process_counts(self) -> Vec<usize> {
        match self {
            SweepConfig::Smoke => vec![20, 60],
            SweepConfig::Default => vec![100, 300, 1000, 3000, 10_000],
            SweepConfig::PaperScale => vec![10_000, 25_000, 50_000, 75_000, 100_000],
        }
    }

    /// Rounds of request generation.
    pub fn generation_rounds(self) -> u64 {
        match self {
            SweepConfig::Smoke => 20,
            SweepConfig::Default => 100,
            SweepConfig::PaperScale => 1000,
        }
    }

    /// Insert-probability curves of Figures 2 and 3.
    pub(crate) fn insert_ratios(self) -> Vec<f64> {
        match self {
            SweepConfig::Smoke => vec![0.5, 1.0],
            _ => vec![0.0, 0.25, 0.5, 0.75, 1.0],
        }
    }

    /// Per-node request probabilities of Figure 4.
    pub fn request_probabilities(self) -> Vec<f64> {
        match self {
            SweepConfig::Smoke => vec![0.1, 0.5],
            _ => vec![0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0],
        }
    }

    /// Random routes walked per process count by [`route_hops`].
    pub fn routes(self) -> usize {
        match self {
            SweepConfig::Smoke => 2_000,
            _ => 100_000,
        }
    }

    /// Number of processes used for Figure 4.
    pub fn fig4_processes(self) -> usize {
        match self {
            SweepConfig::Smoke => 50,
            SweepConfig::Default => 2000,
            SweepConfig::PaperScale => 10_000,
        }
    }

    /// Whether the Figure 4 sweep verifies each point's history.  Off at the
    /// paper scale only: its p = 1.0 points issue 10⁷ requests, ≈ 1.2 GB of
    /// history (ROADMAP, item 6).  The fixed-rate sweeps (`fig2`, `fig3`,
    /// `scaling`) issue 10⁴ requests a point and verify at every scale.
    pub(crate) fn verify(self) -> bool {
        !matches!(self, SweepConfig::PaperScale)
    }
}

/// One sweep point, annotated with the curve it belongs to.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// Curve label (e.g. the insert ratio or the request probability).
    pub curve: String,
    /// X coordinate (number of processes or request probability).
    pub x: f64,
    /// The measured scenario result.
    pub result: ScenarioResult,
}

/// Runs the Figure 2 sweep (queue, fixed-rate workload).
pub fn fig2_sweep(config: SweepConfig, seed: u64) -> Vec<ExperimentPoint> {
    fixed_rate_sweep(Mode::Queue, config, seed)
}

/// Runs the Figure 3 sweep (stack, fixed-rate workload).
pub fn fig3_sweep(config: SweepConfig, seed: u64) -> Vec<ExperimentPoint> {
    fixed_rate_sweep(Mode::Stack, config, seed)
}

fn fixed_rate_sweep(mode: Mode, config: SweepConfig, seed: u64) -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for &ratio in &config.insert_ratios() {
        for &n in &config.process_counts() {
            let params = ScenarioParams::fixed_rate(n, mode, ratio)
                .with_generation_rounds(config.generation_rounds())
                .with_seed(seed);
            let result = run_fixed_rate(params);
            points.push(ExperimentPoint {
                curve: format!("insert_ratio={ratio}"),
                x: n as f64,
                result,
            });
        }
    }
    points
}

/// Runs the Figure 4 sweep (queue vs stack under increasing per-node load).
pub fn fig4_sweep(config: SweepConfig, seed: u64) -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for mode in [Mode::Queue, Mode::Stack] {
        for &p in &config.request_probabilities() {
            let mut params = ScenarioParams::per_node_rate(config.fig4_processes(), mode, p)
                .with_generation_rounds(config.generation_rounds())
                .with_seed(seed);
            if !config.verify() {
                params = params.without_verification();
            }
            let result = run_per_node_rate(params);
            points.push(ExperimentPoint {
                curve: format!("{mode:?}"),
                x: p,
                result,
            });
        }
    }
    points
}

/// Hop counts of random routes on a starting topology (see [`route_hops`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteHops {
    /// Mean hops per route.
    pub mean: f64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// The longest route.
    pub max: u64,
}

/// Walks `routes` routes, each from a uniformly random virtual node to a
/// uniformly random label, on the starting topology of processes `0..n`
/// under the default label hash and the bit budget a shard of `n`
/// processes routes with.  Each route steps [`route_step`] from view to
/// view — the overlay alone, no cluster, no message — until a node is
/// responsible for the label, and counts its forwards.
pub fn route_hops(n: usize, routes: usize, seed: u64) -> RouteHops {
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
    let stats = StageStats::from_samples(&mut hops);
    RouteHops {
        mean,
        p99: stats.p99,
        max: stats.max,
    }
}

/// Prints a sweep as a fixed-width table (one row per point), mirroring the
/// series of the corresponding paper figure.
pub fn print_series(title: &str, x_label: &str, points: &[ExperimentPoint]) {
    println!("\n=== {title} ===");
    println!(
        "{:<24} {:>10} {:>10} {:>14} {:>12} {:>12} {:>10}",
        "curve", x_label, "requests", "avg rounds", "max rounds", "batch size", "consistent"
    );
    for p in points {
        println!(
            "{:<24} {:>10} {:>10} {:>14.2} {:>12} {:>12.2} {:>10}",
            p.curve,
            p.x,
            p.result.requests,
            p.result.avg_rounds_per_request,
            p.result.max_rounds_per_request,
            p.result.mean_batch_size,
            consistent_cell(&p.result)
        );
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_configs_are_small() {
        let c = SweepConfig::Smoke;
        assert!(c.process_counts().iter().all(|&n| n <= 100));
        assert!(c.generation_rounds() <= 50);
        assert!(c.verify());
        assert!(!SweepConfig::PaperScale.verify());
        assert!(SweepConfig::Default.process_counts().len() >= 4);
    }

    #[test]
    fn fig2_smoke_sweep_runs_and_scales_logarithmically() {
        let points = fig2_sweep(SweepConfig::Smoke, 3);
        assert_eq!(points.len(), 4); // 2 ratios × 2 sizes
        assert!(points.iter().all(|p| p.result.consistent));
        // Larger systems must not be more than ~4x slower per request than
        // the small ones at this scale (logarithmic growth, Theorem 15).
        let small: f64 = points
            .iter()
            .filter(|p| p.x < 50.0)
            .map(|p| p.result.avg_rounds_per_request)
            .fold(0.0, f64::max);
        let large: f64 = points
            .iter()
            .filter(|p| p.x > 50.0)
            .map(|p| p.result.avg_rounds_per_request)
            .fold(0.0, f64::max);
        assert!(large < small * 4.0, "small={small}, large={large}");
    }

    #[test]
    fn fig4_smoke_sweep_runs() {
        let points = fig4_sweep(SweepConfig::Smoke, 5);
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
        let hops = route_hops(60, 500, 1);
        assert!(hops.mean > 0.0);
        assert!(hops.mean <= hops.p99 as f64 && hops.p99 <= hops.max);
        assert_eq!(route_hops(60, 500, 1), hops, "one seed, one walk");
    }

    #[test]
    fn print_series_does_not_panic() {
        let points = fig2_sweep(SweepConfig::Smoke, 1);
        print_series("smoke", "n", &points);
    }
}
