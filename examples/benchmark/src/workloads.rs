//! The seven workloads and their seeded inputs.
//!
//! Inputs are generated here, from the seed alone, before anything is timed;
//! the program under test receives only the generated operations.  Sizes are
//! the ISSUE's cut evenly (≈ one third) so that at least three repeats of a
//! workload, with set-up and verification, fit the driver's per-run budget;
//! README.md records both the original and the final sizes.

use crate::stats::Rng;

/// Insert share of every workload (the paper's Fig. 2 mix).
const INSERT_RATIO: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub processes: usize,
    pub shards: usize,
    pub threads: usize,
    pub ops_per_round: usize,
    pub rounds: usize,
    /// Roll membership (alternate one join and one leave) while loading.
    pub churn: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct TcpSpec {
    /// Offered rate of the open loop; `None` injects back-to-back.
    pub rate_hz: Option<f64>,
    pub ops: usize,
}

/// The cluster every `tcp_*` workload runs on: 2 in-process daemons on
/// loopback ephemeral ports × 3 processes, 2 shards, the default 2 ms tick.
pub const TCP_DAEMONS: usize = 2;
pub const TCP_PROCESSES: u64 = 6;
pub const TCP_SHARDS: usize = 2;
pub const TCP_TICK_MS: u64 = 2;

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Sim(SimSpec),
    Tcp(TcpSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
}

impl Workload {
    pub fn is_sim(&self) -> bool {
        matches!(self.shape, Shape::Sim(_))
    }

    pub fn ops(&self) -> usize {
        match self.shape {
            Shape::Sim(s) => s.ops_per_round * s.rounds,
            Shape::Tcp(t) => t.ops,
        }
    }
}

const HEAVY: SimSpec = SimSpec {
    processes: 3000,
    shards: 8,
    threads: 1,
    ops_per_round: 1000,
    rounds: 100,
    churn: false,
};

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "sim_light",
        why: "n=10000, 10 ops/round: every op is routed alone (Fig. 2 regime), so the sim wheel and overlay::route_step do the work and batching does none",
        shape: Shape::Sim(SimSpec {
            processes: 10_000,
            shards: 1,
            threads: 1,
            ops_per_round: 10,
            rounds: 1000,
            churn: false,
        }),
    },
    Workload {
        name: "sim_heavy",
        why: "n=3000, S=8, 1000 ops/round: batches carry many ops, so core aggregate/assign/decompose, dht::NodeStore and the shard merge do the work",
        shape: Shape::Sim(HEAVY),
    },
    Workload {
        name: "sim_heavy_par",
        why: "sim_heavy's inputs with .threads(2): the only workload where sim::exec runs; same history fingerprint required",
        shape: Shape::Sim(SimSpec { threads: 2, ..HEAVY }),
    },
    Workload {
        name: "sim_churn",
        why: "n=1000, 100 ops/round while one join and one leave alternate: update phases suspend nodes and stores hand over under load",
        shape: Shape::Sim(SimSpec {
            processes: 1000,
            shards: 1,
            threads: 1,
            ops_per_round: 100,
            rounds: 1000,
            churn: true,
        }),
    },
    Workload {
        name: "tcp_low",
        why: "2 daemons on loopback, open loop at 300 ops/s: timers, not queueing, set latency and the sim scheduler is bypassed",
        shape: Shape::Tcp(TcpSpec {
            rate_hz: Some(300.0),
            ops: 600,
        }),
    },
    Workload {
        name: "tcp_mid",
        why: "same cluster at 3000 ops/s: waves overlap, so thread hand-offs, codec and frame syscalls set latency and CPU",
        shape: Shape::Tcp(TcpSpec {
            rate_hz: Some(3000.0),
            ops: 6000,
        }),
    },
    Workload {
        name: "tcp_burst",
        why: "same cluster, all ops injected back-to-back: backlog makes batches large; measures ingest, codec and batching capacity",
        shape: Shape::Tcp(TcpSpec {
            rate_hz: None,
            ops: 60_000,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One client operation: `pick` selects the issuing process among those
/// that may issue at that moment (`pick % active.len()`).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub pick: u64,
    pub insert: bool,
    pub value: u64,
}

fn gen_ops(rng: &mut Rng, count: usize) -> Vec<Op> {
    let mut value = 0;
    (0..count)
        .map(|_| {
            let pick = rng.next_u64();
            let insert = rng.unit() < INSERT_RATIO;
            if insert {
                value += 1;
            }
            Op {
                pick,
                insert,
                value: if insert { value } else { 0 },
            }
        })
        .collect()
}

/// Which processes `sim_churn` asks to leave is part of the workload, not of
/// the seed: under this load a leave completes only once the leaver has no
/// wave in flight, and for some processes that is not before the load stops
/// (README.md, "What sizing found").  Drawn per seed, the leavers make
/// `p50_rounds` jump between ≈ 150 and ≈ 380; this stream names leavers whose
/// leaves complete, and the seed varies the operations around them.
const MEMBERSHIP_STREAM: u64 = 1;

/// Inputs of a `sim_*` workload: the ops of every generation round, and the
/// picks the churn driver draws leavers from.
#[derive(Debug)]
pub struct SimInputs {
    pub rounds: Vec<Vec<Op>>,
    pub leave_picks: Vec<u64>,
}

pub fn sim_inputs(spec: &SimSpec, seed: u64) -> SimInputs {
    let mut rng = Rng::new(seed);
    let all = gen_ops(&mut rng, spec.ops_per_round * spec.rounds);
    SimInputs {
        rounds: all.chunks(spec.ops_per_round).map(<[Op]>::to_vec).collect(),
        leave_picks: {
            let mut membership = Rng::new(MEMBERSHIP_STREAM);
            (0..4096).map(|_| membership.next_u64()).collect()
        },
    }
}

/// Inputs of a `tcp_*` workload: ops plus the time each one is due, in
/// nanoseconds from the start of the open loop.
#[derive(Debug)]
pub struct TcpInputs {
    pub ops: Vec<Op>,
    pub due_ns: Vec<u64>,
}

pub fn tcp_inputs(spec: &TcpSpec, seed: u64) -> TcpInputs {
    let mut rng = Rng::new(seed);
    let ops = gen_ops(&mut rng, spec.ops);
    let due_ns = match spec.rate_hz {
        None => vec![0; spec.ops],
        Some(rate) => {
            // Exponential gaps, then scaled so that they add up to exactly
            // ops ÷ rate: a Poisson process conditioned on its count.  The
            // arrivals keep their burstiness, and every seed offers the same
            // number of ops over the same span, so `ops_per_sec` does not
            // carry the ±1/√ops scatter of an unconditioned schedule.
            let gaps: Vec<f64> = (0..spec.ops).map(|_| -(1.0 - rng.unit()).ln()).collect();
            let span_ns = spec.ops as f64 / rate * 1e9;
            let scale = span_ns / gaps.iter().sum::<f64>();
            gaps.iter()
                .scan(0.0, |t, g| {
                    *t += g * scale;
                    Some(*t as u64)
                })
                .collect()
        }
    };
    TcpInputs { ops, due_ns }
}
