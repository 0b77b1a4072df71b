//! Every metric the benchmark reports, by name: its unit, which way is
//! better, the workloads it is defined on, and — for end-to-end metrics —
//! the bound by which it may worsen before a change counts as a regression.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The workloads a metric is defined on.
#[derive(Debug, Clone, Copy)]
pub enum On {
    All,
    Sim,
    Only(&'static [&'static str]),
}

impl On {
    pub fn covers(self, w: &Workload) -> bool {
        match self {
            On::All => true,
            On::Sim => w.is_sim(),
            On::Only(names) => names.contains(&w.name),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: On,
    pub gate: Gate,
}

/// How a later change is held to an end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// May worsen by at most `bound` (a share of the reference median);
    /// differences below `floor` never count in `--selfcheck`.  These are
    /// the `end_to_end` metrics of BENCHMARK.json: defined on every workload,
    /// never 0, and steady between runs.
    Bound { bound: f64, floor: f64 },
    /// Repeats exactly for a seed: any increase is a regression, and any
    /// difference between the repeats of a run is a determinism fault.
    Exact,
    /// Wall-clock metric whose spread between runs of the same code on the
    /// benchmark's host (11–30 % of the median, README.md "The host") is
    /// wider than the 10 % a regression should be caught at.  ISSUE 11's rule
    /// for such a metric is to stop gating it, not to widen its bound: it is
    /// printed and recorded on every run, compared in `--selfcheck`, and
    /// never fails one.  A gain on it is claimed from paired runs.
    Unresolved,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: On,
    gate: Gate,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        on,
        gate,
    }
}

impl EndToEnd {
    pub fn gated(&self) -> bool {
        matches!(self.gate, Gate::Bound { .. })
    }

    pub fn exact(&self) -> bool {
        matches!(self.gate, Gate::Exact)
    }
}

use Better::{Higher, Lower};

const SIM: On = On::Sim;
/// Where an open loop runs at a rate: on `tcp_burst` every op is due at 0.
const OPEN_LOOP: On = On::Only(&["tcp_low", "tcp_mid"]);

pub const END_TO_END: [EndToEnd; 10] = [
    e2e(
        "setup_s",
        "s",
        Lower,
        On::All,
        Gate::Bound {
            bound: 0.25,
            floor: 0.020,
        },
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        On::All,
        Gate::Bound {
            bound: 0.25,
            floor: 0.0,
        },
    ),
    e2e("ops_per_sec", "1/s", Higher, On::All, Gate::Unresolved),
    e2e("cpu_us_per_op", "us", Lower, On::All, Gate::Unresolved),
    e2e("p50_us", "us", Lower, OPEN_LOOP, Gate::Unresolved),
    e2e("mean_rounds_per_op", "rounds", Lower, SIM, Gate::Exact),
    e2e("p50_rounds", "rounds", Lower, SIM, Gate::Exact),
    e2e("p99_rounds", "rounds", Lower, SIM, Gate::Exact),
    e2e(
        "rounds_per_transition",
        "rounds",
        Lower,
        On::Only(&["sim_churn"]),
        Gate::Exact,
    ),
    e2e("failed_share", "ratio", Lower, On::All, Gate::Exact),
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts read from public accessors repeat exactly for a seed.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// The per-layer metrics, layer = crate.  A value of 0 in the driver's
/// output means "not defined on this workload".
pub const LAYERS: &[Layer] = &[
    layer("setup_raw_s", "s", Lower),
    layer("host.fresh_memory_s", "s", Lower),
    layer("workloads.gen_lag_p99_us", "us", Lower),
    layer("workloads.observe_gap_p99_us", "us", Lower),
    layer("workloads.issue_share", "ratio", Lower),
    layer("sim.run_round_s", "s", Lower),
    exact("sim.messages_per_op", "count", Lower),
    exact("sim.node_visits_per_op", "count", Lower),
    exact("sim.timeouts_per_op", "count", Lower),
    layer("sim.rounds_per_sec", "1/s", Higher),
    layer("sim.wheel_ns_per_msg", "ns", Lower),
    layer("sim.visit_ns", "ns", Lower),
    layer("sim.exec.lane_busy_s", "s", Lower),
    layer("sim.exec.barrier_wait_s", "s", Lower),
    layer("sim.exec.lane_imbalance", "ratio", Lower),
    layer("sim.exec.speedup", "ratio", Higher),
    exact("core.batch_size_mean", "count", Higher),
    exact("core.waves_in_flight_max", "count", Higher),
    layer("core.anchor_assign_ns_per_op", "ns", Lower),
    layer("core.batch_combine_ns_per_op", "ns", Lower),
    layer("core.interval_decompose_ns_per_op", "ns", Lower),
    layer("core.issue_ns_per_op", "ns", Lower),
    layer("core.node_step_ns", "ns", Lower),
    exact("core.join_rounds_mean", "rounds", Lower),
    exact("core.leave_rounds_mean", "rounds", Lower),
    exact("core.stalled_rounds_max", "rounds", Lower),
    exact("overlay.dht_hops_per_op", "count", Lower),
    layer("overlay.route_step_ns", "ns", Lower),
    layer("overlay.topology_build_s", "s", Lower),
    exact("dht.ops_per_message", "count", Higher),
    layer("dht.put_many_ns_per_op", "ns", Lower),
    layer("dht.get_many_ns_per_op", "ns", Lower),
    exact("dht.store_max_over_mean", "ratio", Lower),
    exact("dht.unmatched_replies", "count", Lower),
    exact("shard.wave_imbalance", "ratio", Lower),
    layer("shard.route_ns", "ns", Lower),
    layer("verify.check_s_per_100k_ops", "s", Lower),
    exact("verify.violations", "count", Lower),
    layer("trace.spans_overhead_ratio", "ratio", Lower),
    layer("trace.full_overhead_ratio", "ratio", Lower),
    exact("trace.events_per_op", "count", Lower),
    exact("trace.stage.queue_wait_p50_rounds", "rounds", Lower),
    exact("trace.stage.queue_wait_p99_rounds", "rounds", Lower),
    exact("trace.stage.aggregation_p50_rounds", "rounds", Lower),
    exact("trace.stage.aggregation_p99_rounds", "rounds", Lower),
    exact("trace.stage.assignment_p50_rounds", "rounds", Lower),
    exact("trace.stage.assignment_p99_rounds", "rounds", Lower),
    exact("trace.stage.dht_routing_p50_rounds", "rounds", Lower),
    exact("trace.stage.dht_routing_p99_rounds", "rounds", Lower),
    exact("trace.stage.reply_p50_rounds", "rounds", Lower),
    exact("trace.stage.reply_p99_rounds", "rounds", Lower),
    layer("net.codec.encode_ns_per_msg.aggregate", "ns", Lower),
    layer("net.codec.encode_ns_per_msg.serve", "ns", Lower),
    layer("net.codec.encode_ns_per_msg.dht_batch_1", "ns", Lower),
    layer("net.codec.encode_ns_per_msg.dht_batch_16", "ns", Lower),
    layer("net.codec.decode_ns_per_msg.aggregate", "ns", Lower),
    layer("net.codec.decode_ns_per_msg.serve", "ns", Lower),
    layer("net.codec.decode_ns_per_msg.dht_batch_1", "ns", Lower),
    layer("net.codec.decode_ns_per_msg.dht_batch_16", "ns", Lower),
    layer("net.codec.bytes_per_msg.aggregate", "B", Lower),
    layer("net.codec.bytes_per_msg.serve", "B", Lower),
    layer("net.codec.bytes_per_msg.dht_batch_1", "B", Lower),
    layer("net.codec.bytes_per_msg.dht_batch_16", "B", Lower),
    layer("net.frame.mem_roundtrip_ns", "ns", Lower),
    layer("net.frame.loopback_rtt_us", "us", Lower),
    layer("net.ingress.inject_us_per_op", "us", Lower),
    layer("net.ingress.inject_share", "ratio", Lower),
    layer("net.ingress.p99_us", "us", Lower),
    layer("net.ingress.p999_us", "us", Lower),
    layer("net.ingress.backlog_at_end", "count", Lower),
    layer("net.daemon.threads", "count", Lower),
    layer("net.daemon.ctx_switches_per_op", "count", Lower),
    layer("net.daemon.idle_cpu_share", "cores", Lower),
    layer("net.daemon.boot_s", "s", Lower),
    layer("net.daemon.shutdown_s", "s", Lower),
    layer("ledger.predicted_over_measured", "ratio", Higher),
    layer("ledger.residual_share", "ratio", Lower),
    layer("span.self_s.workloads.issue", "s", Lower),
    layer("span.self_s.core.issue", "s", Lower),
    layer("span.self_s.sim.run_round", "s", Lower),
    layer("span.self_s.verify.check", "s", Lower),
    layer("span.self_s.net.daemon.boot", "s", Lower),
    layer("span.self_s.net.ingress.inject", "s", Lower),
    layer("span.self_s.net.ingress.pump", "s", Lower),
];
