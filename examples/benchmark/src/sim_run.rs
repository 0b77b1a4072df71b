//! One repeat of a `sim_*` workload: build the cluster, issue the generated
//! ops round by round, drain, then — outside the timed region — read the
//! layer counts, verify the history and fingerprint it.

use std::collections::HashSet;
use std::time::Instant;

use skueue::prelude::{
    check_queue, check_queue_sharded, ProcessId, RequestId, Skueue, SkueueCluster, TraceLevel,
};
use skueue::verify::{OpKind, OpRecord, OpResult};

use crate::sample::Sample;
use crate::spans::Recorder;
use crate::stats::{self, Fnv};
use crate::workloads::{sim_inputs, Op, SimSpec};

/// Rounds the drain may take after the last issue before the ops still open
/// count as failed.
const DRAIN_ROUND_LIMIT: usize = 20_000;

fn build(spec: &SimSpec, seed: u64, trace: TraceLevel) -> SkueueCluster<u64> {
    Skueue::<u64>::builder()
        .processes(spec.processes)
        .shards(spec.shards)
        .threads(spec.threads)
        .trace(trace)
        .seed(seed)
        .build()
        .expect("the workload table holds valid configurations")
}

/// Set-up alone, in a process that does nothing else (`Mode::Setup`).
pub fn setup_only(spec: &SimSpec, seed: u64) -> Sample {
    let mut sample = Sample::default();
    let t = Instant::now();
    let cluster = build(spec, seed, TraceLevel::Off);
    sample.set("setup_raw_s", t.elapsed().as_secs_f64());
    drop(cluster);
    sample
}

/// Membership roll of `sim_churn`: alternately one `join(None)` and one
/// `leave(random active)`, each started when the previous one completed.
struct Churn {
    picks: Vec<u64>,
    next_pick: usize,
    join_next: bool,
    /// `(process, is_join, round it started)`.
    current: Option<(ProcessId, bool, u64)>,
    join_rounds: Vec<u64>,
    leave_rounds: Vec<u64>,
}

impl Churn {
    /// Completes the running transition if it is over and, while the load
    /// is still on, starts the next one.
    fn step(&mut self, cluster: &mut SkueueCluster<u64>, active: &mut Vec<ProcessId>, start: bool) {
        if let Some((pid, is_join, since)) = self.current {
            let over = if is_join {
                cluster.process_may_issue(pid)
            } else {
                cluster.process_has_left(pid)
            };
            if !over {
                return;
            }
            let took = cluster.round() - since;
            if is_join {
                active.push(pid);
                self.join_rounds.push(took);
            } else {
                self.leave_rounds.push(took);
            }
            self.current = None;
        }
        if !start {
            return;
        }
        let round = cluster.round();
        if self.join_next {
            let pid = cluster.join(None).expect("an active bootstrap exists");
            self.current = Some((pid, true, round));
        } else {
            // The anchor's host process is pinned; draw again when hit.
            loop {
                let idx =
                    (self.picks[self.next_pick % self.picks.len()] % active.len() as u64) as usize;
                self.next_pick += 1;
                if cluster.leave(active[idx]).is_ok() {
                    self.current = Some((active.swap_remove(idx), false, round));
                    break;
                }
            }
        }
        self.join_next = !self.join_next;
    }
}

fn issue(cluster: &mut SkueueCluster<u64>, pid: ProcessId, op: &Op) -> bool {
    let mut client = cluster.client(pid);
    if op.insert {
        client.enqueue(op.value).is_ok()
    } else {
        client.dequeue().is_ok()
    }
}

/// FNV-1a over every field of every record, in completion order.
pub fn fingerprint(records: &[OpRecord<u64>]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.word(r.id.origin.0);
        h.word(r.id.seq);
        h.word(matches!(r.kind, OpKind::Enqueue) as u64);
        h.word(r.value);
        match r.result {
            OpResult::Enqueued => h.word(1),
            OpResult::Empty => h.word(2),
            OpResult::Returned(id) => {
                h.word(3);
                h.word(id.origin.0);
                h.word(id.seq);
            }
        }
        for w in [
            r.order.wave,
            r.order.shard,
            r.order.major,
            r.order.origin,
            r.order.minor,
        ] {
            h.word(w);
        }
        h.word(r.issued_round);
        h.word(r.completed_round);
    }
    h.finish()
}

/// Mean of `values`, 0 when empty.
fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

pub fn run(spec: &SimSpec, seed: u64, trace: TraceLevel, rec: &mut Recorder) -> Sample {
    let inputs = sim_inputs(spec, seed);
    let mut sample = Sample {
        attempted: (spec.ops_per_round * spec.rounds) as u64,
        ..Sample::default()
    };

    // ---- set-up ----------------------------------------------------------
    // Built once, on the fresh heap of this process: a second build would
    // land on recycled memory and the timed region would measure that layout.
    // The parent takes the median over its repeats.
    let t = Instant::now();
    let mut cluster = build(spec, seed, trace);
    sample.set("setup_raw_s", t.elapsed().as_secs_f64());

    let mut active: Vec<ProcessId> = (0..spec.processes as u64).map(ProcessId).collect();
    let mut churn = spec.churn.then(|| Churn {
        picks: inputs.leave_picks.clone(),
        next_pick: 0,
        join_next: true,
        current: None,
        join_rounds: Vec::new(),
        leave_rounds: Vec::new(),
    });

    // ---- timed region: first issue to last completion ----------------------
    // Three clock readings per round (issue start, run_round start, round
    // end) and the history length after it are all that is recorded inside.
    let total_ops = sample.attempted as usize;
    let mut stamps: Vec<(u64, u64, u64)> = Vec::with_capacity(spec.rounds + 4096);
    let mut completed_upto: Vec<usize> = Vec::with_capacity(spec.rounds + 4096);
    let mut refused = 0u64;
    let (cpu0, _) = stats::cpu_ns();
    let t0 = Instant::now();
    let now = |t0: &Instant| t0.elapsed().as_nanos() as u64;
    let mut iteration = 0usize;
    while iteration < spec.rounds || cluster.history().len() + (refused as usize) < total_ops {
        if iteration >= spec.rounds + DRAIN_ROUND_LIMIT {
            break;
        }
        let t_issue = now(&t0);
        if let Some(churn) = churn.as_mut() {
            churn.step(&mut cluster, &mut active, iteration < spec.rounds);
        }
        if let Some(ops) = inputs.rounds.get(iteration) {
            rec.enter("workloads.issue");
            for op in ops {
                let pid = active[(op.pick % active.len() as u64) as usize];
                rec.enter("core.issue");
                let ok = issue(&mut cluster, pid, op);
                rec.exit();
                refused += !ok as u64;
            }
            rec.exit();
        }
        let t_run = now(&t0);
        rec.enter("sim.run_round");
        cluster.run_round();
        rec.exit();
        stamps.push((t_issue, t_run, now(&t0)));
        completed_upto.push(cluster.history().len());
        iteration += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (cpu1, _) = stats::cpu_ns();
    sample.set("peak_rss_mb", stats::peak_rss_mb());

    // The load is over; a transition still running finishes untimed.
    if let Some(churn) = churn.as_mut() {
        for _ in 0..DRAIN_ROUND_LIMIT {
            churn.step(&mut cluster, &mut active, false);
            if churn.current.is_none() {
                break;
            }
            cluster.run_round();
        }
    }

    // ---- end-to-end metrics ----------------------------------------------
    let records = cluster.history().records();
    let completed = records.len();
    let done = completed.max(1) as f64;
    sample.set("wall_s", wall_s);
    sample.set("ops_per_sec", completed as f64 / wall_s);
    sample.set("cpu_us_per_op", (cpu1 - cpu0) as f64 / 1e3 / done);
    let mut rounds: Vec<u64> = records.iter().map(OpRecord::latency).collect();
    sample.set("mean_rounds_per_op", mean(&rounds));
    sample.set("p50_rounds", stats::percentile(&mut rounds, 0.50) as f64);
    sample.set("p99_rounds", stats::percentile(&mut rounds, 0.99) as f64);
    if let Some(churn) = &churn {
        let all: Vec<u64> = churn
            .join_rounds
            .iter()
            .chain(&churn.leave_rounds)
            .copied()
            .collect();
        sample.set("rounds_per_transition", mean(&all));
        sample.set("core.join_rounds_mean", mean(&churn.join_rounds));
        sample.set("core.leave_rounds_mean", mean(&churn.leave_rounds));
    }

    // ---- layer counts from public accessors --------------------------------
    let issue_s: f64 = stamps.iter().map(|s| (s.1 - s.0) as f64 / 1e9).sum();
    let run_round_s: f64 = stamps.iter().map(|s| (s.2 - s.1) as f64 / 1e9).sum();
    let m = cluster.sim_metrics();
    sample.set("workloads.issue_share", issue_s / wall_s);
    sample.set("sim.run_round_s", run_round_s);
    sample.set("sim.messages_per_op", m.messages_sent as f64 / done);
    sample.set("sim.node_visits_per_op", m.nodes_visited as f64 / done);
    sample.set("sim.timeouts_per_op", m.timeouts_fired as f64 / done);
    // Rounds per second while the load is on: the drain's rounds are nearly
    // empty and would only dilute the figure.
    let loaded_s = stamps[spec.rounds - 1].2 as f64 / 1e9;
    sample.set("sim.rounds_per_sec", spec.rounds as f64 / loaded_s);
    sample.set("count.messages", m.messages_delivered as f64);
    sample.set("count.visits", m.nodes_visited as f64);
    if cluster.parallel_threads() > 1 {
        let busy: Vec<f64> = m.lane_busy_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        let busy_sum: f64 = busy.iter().sum();
        let busy_max = busy.iter().copied().fold(0.0, f64::max);
        sample.set("sim.exec.lane_busy_s", busy_sum);
        sample.set(
            "sim.exec.barrier_wait_s",
            m.lane_barrier_wait_ns.iter().sum::<u64>() as f64 / 1e9,
        );
        sample.set(
            "sim.exec.lane_imbalance",
            busy_max * busy.len() as f64 / busy_sum.max(1e-12),
        );
    }
    let hops = cluster.dht_hop_histogram();
    let per_message = cluster.dht_ops_per_message_histogram();
    sample.set(
        "core.batch_size_mean",
        cluster.batch_size_histogram().mean(),
    );
    sample.set(
        "core.waves_in_flight_max",
        cluster.waves_in_flight_histogram().max().unwrap_or(0) as f64,
    );
    sample.set("overlay.dht_hops_per_op", hops.mean());
    sample.set("dht.ops_per_message", per_message.mean());
    sample.set("count.dht_hops", hops.sum() as f64);
    sample.set("count.dht_ops", hops.count() as f64);
    sample.set(
        "count.batches",
        cluster.batch_size_histogram().count() as f64,
    );
    sample.set(
        "dht.store_max_over_mean",
        cluster.fairness().map_or(0.0, |f| f.max_over_mean),
    );
    sample.set(
        "dht.unmatched_replies",
        cluster.unmatched_dht_replies() as f64,
    );
    let waves = cluster.shard_wave_counts();
    let wave_mean = waves.iter().sum::<u64>() as f64 / waves.len() as f64;
    sample.set(
        "shard.wave_imbalance",
        waves.iter().copied().max().unwrap_or(0) as f64 / wave_mean.max(1e-12),
    );
    // Longest run of rounds that had open ops and completed none.
    let (mut stalled, mut longest, mut prev) = (0u64, 0u64, 0usize);
    for (i, &upto) in completed_upto.iter().enumerate() {
        let issued_so_far = spec.ops_per_round * (i + 1).min(spec.rounds);
        stalled = if upto == prev && issued_so_far > upto {
            stalled + 1
        } else {
            0
        };
        longest = longest.max(stalled);
        prev = upto;
    }
    sample.set("core.stalled_rounds_max", longest as f64);

    // ---- the program's own tracing, when this repeat has it on -------------
    if !trace.is_off() {
        sample.set(
            "trace.events_per_op",
            cluster.trace_log().len() as f64 / done,
        );
        for (stage, s) in cluster.trace_analysis().stage_table() {
            let stage = stage.replace('-', "_");
            sample.set(&format!("trace.stage.{stage}_p50_rounds"), s.p50 as f64);
            sample.set(&format!("trace.stage.{stage}_p99_rounds"), s.p99 as f64);
        }
    }

    // ---- output checks, outside every timed region -------------------------
    rec.enter("verify.check");
    let t = Instant::now();
    let report = if spec.shards > 1 {
        check_queue_sharded(cluster.history(), &cluster.shard_map())
    } else {
        check_queue(cluster.history())
    };
    let check_s = t.elapsed().as_secs_f64();
    rec.exit();
    sample.set("verify.check_s_per_100k_ops", check_s * 1e5 / done);
    sample.set("verify.violations", report.violations.len() as f64);

    let ids: HashSet<RequestId> = records.iter().map(|r| r.id).collect();
    let duplicates = (completed - ids.len()) as u64;
    let open = total_ops as u64 - refused - ids.len() as u64;
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
    if !report.is_consistent() {
        sample.reject(format!(
            "the verifier rejects the history: {} violations, first: {}",
            report.violations.len(),
            report.violations[0]
        ));
    }
    if cluster.unmatched_dht_replies() != 0 && !spec.churn {
        sample.reject(format!(
            "{} DHT replies matched no request on a churn-free workload",
            cluster.unmatched_dht_replies()
        ));
    }
    sample.set(
        "failed_share",
        sample.failed as f64 / sample.attempted as f64,
    );
    sample.fingerprint = Some(fingerprint(records));
    sample
}
