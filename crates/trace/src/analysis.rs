//! In-memory trace analysis: per-op span trees and per-stage round-latency
//! percentiles.
//!
//! [`TraceAnalysis::from_log`] folds a merged [`TraceLog`] into one
//! [`OpSpan`] per traced operation, checks span shapes, and computes the
//! p50/p99/p999 round-latency breakdown of the five protocol stages (see the
//! crate docs for the taxonomy).  Everything here is derived from
//! round-stamped events, so the analysis of a given seed is identical across
//! execution backends.

use crate::{TraceEvent, TraceId, TraceLog};

/// The reconstructed lifecycle of one traced operation.
///
/// Every boundary is a simulation round; `None` means the op never reached
/// that stage.  Three legitimate shapes exist:
///
/// * **full**: issued → wave-join → assigned → DHT issued → DHT applied →
///   completed (ordinary enqueues and matched dequeues),
/// * **anchor-settled**: issued → wave-join → assigned → completed with no
///   DHT boundaries (`⊥` dequeues answered straight from the assignment),
/// * **locally combined**: issued → completed only (the stack's combined
///   push/pop pairs, which never reach the anchor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// The operation.
    pub op: TraceId,
    /// True for an enqueue/push.
    pub insert: bool,
    /// Anchor shard of the op's origin node.
    pub shard: u32,
    /// Issue round.
    pub issued: Option<u64>,
    /// Round the op was committed into an aggregation wave.
    pub wave_join: Option<u64>,
    /// Round the op's wave was assigned at the anchor (looked up from the
    /// per-`(shard, wave)` [`TraceEvent::WaveAssigned`] instants).
    pub anchor_assigned: Option<u64>,
    /// Round the origin node resolved the op's position.
    pub assigned: Option<u64>,
    /// Wave epoch the op was assigned in.
    pub wave: u64,
    /// Anchor-assigned `value(op)`.
    pub major: u64,
    /// Round the op's DHT operation was issued.
    pub dht_issued: Option<u64>,
    /// Round the DHT operation was applied at the responsible node.
    pub dht_applied: Option<u64>,
    /// Total DHT routing hops (from [`TraceEvent::DhtApplied`]).
    pub hops: Option<u32>,
    /// Number of [`TraceEvent::DhtHop`] events observed
    /// ([`crate::TraceLevel::Full`] only; must equal `hops` there).
    pub hop_events: u32,
    /// Completion round.
    pub completed: Option<u64>,
}

impl OpSpan {
    fn new(op: TraceId) -> Self {
        OpSpan {
            op,
            insert: false,
            shard: 0,
            issued: None,
            wave_join: None,
            anchor_assigned: None,
            assigned: None,
            wave: 0,
            major: 0,
            dht_issued: None,
            dht_applied: None,
            hops: None,
            hop_events: 0,
            completed: None,
        }
    }

    /// True once the op has both ends of its span.
    pub(crate) fn is_complete(&self) -> bool {
        self.issued.is_some() && self.completed.is_some()
    }

    /// True for a span with an issue but no completion — an *orphan*.  At
    /// quiescence there must be none (the churn sweep's standing invariant).
    pub(crate) fn is_orphan(&self) -> bool {
        self.issued.is_some() && self.completed.is_none()
    }

    /// Checks the span tree's shape: stage boundaries must be present in
    /// one of the three legitimate shapes (full / anchor-settled / locally
    /// combined), rounds must be monotone along the chain, and at
    /// [`crate::TraceLevel::Full`] the hop-event count must match the
    /// recorded hop total.  Returns a human-readable violation, or `None`.
    pub(crate) fn shape_violation(&self, hop_events_recorded: bool) -> Option<String> {
        let issued = match self.issued {
            Some(r) => r,
            None => return Some(format!("{}: completed without an issue event", self.op)),
        };
        // Monotone boundaries along the chain of present stages.
        let chain = [
            ("issued", Some(issued)),
            ("wave-join", self.wave_join),
            ("anchor-assign", self.anchor_assigned),
            ("assigned", self.assigned),
            ("dht-issued", self.dht_issued),
            ("dht-applied", self.dht_applied),
            ("completed", self.completed),
        ];
        let mut last = ("issued", issued);
        for (name, round) in chain.into_iter().skip(1) {
            if let Some(r) = round {
                if r < last.1 {
                    return Some(format!(
                        "{}: {} (round {}) precedes {} (round {})",
                        self.op, name, r, last.0, last.1
                    ));
                }
                last = (name, r);
            }
        }
        // Later protocol stages require the earlier ones: a DHT boundary
        // without an assignment, or an assignment without a wave join, is a
        // leak at an emission site.
        if self.dht_applied.is_some() && self.dht_issued.is_none() {
            return Some(format!("{}: DHT applied but never issued", self.op));
        }
        if self.dht_issued.is_some() && self.assigned.is_none() {
            return Some(format!("{}: DHT issued without an assignment", self.op));
        }
        if self.assigned.is_some() && self.wave_join.is_none() {
            return Some(format!("{}: assigned without joining a wave", self.op));
        }
        if let (Some(hops), true) = (self.hops, hop_events_recorded) {
            if hops != self.hop_events {
                return Some(format!(
                    "{}: {} hop events but {} hops recorded at apply",
                    self.op, self.hop_events, hops
                ));
            }
        }
        None
    }

    /// Rounds spent waiting for the node's next aggregation wave.
    /// (`None` also for malformed, backwards spans — those are reported by
    /// [`Self::shape_violation`], never unwrapped here.)
    pub(crate) fn queue_wait(&self) -> Option<u64> {
        self.wave_join?.checked_sub(self.issued?)
    }

    /// Rounds the op's batch spent travelling up the tree (to the anchor's
    /// assignment of its wave).
    pub(crate) fn aggregation(&self) -> Option<u64> {
        self.anchor_assigned?.checked_sub(self.wave_join?)
    }

    /// Rounds the assignment spent travelling back down the tree.
    pub(crate) fn assignment(&self) -> Option<u64> {
        self.assigned?.checked_sub(self.anchor_assigned?)
    }

    /// Rounds the op's DHT operation spent routing to its responsible node.
    pub(crate) fn dht_routing(&self) -> Option<u64> {
        self.dht_applied?.checked_sub(self.assigned?)
    }

    /// Rounds from the DHT apply to the op's completion.
    pub(crate) fn reply(&self) -> Option<u64> {
        self.completed?.checked_sub(self.dht_applied?)
    }

    /// Total rounds from issue to completion.
    pub(crate) fn total(&self) -> Option<u64> {
        self.completed?.checked_sub(self.issued?)
    }
}

/// Round-latency summary of one protocol stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Number of ops that went through the stage.
    pub count: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// 99.9th percentile (nearest-rank).
    pub p999: u64,
    /// Maximum.
    pub max: u64,
}

impl StageStats {
    /// Summarises a sample set by nearest rank (destroys the input's
    /// order); all zeros for an empty set.  The one percentile rule of the
    /// workspace: history latencies and the ingress's wall-clock latencies
    /// are summarised here too.
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return StageStats::default();
        }
        samples.sort_unstable();
        StageStats {
            count: samples.len() as u64,
            p50: percentile_sorted(samples, 0.50),
            p99: percentile_sorted(samples, 0.99),
            p999: percentile_sorted(samples, 0.999),
            max: *samples.last().unwrap(),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample set.
pub(crate) fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The rounds a span spent in one stage (`None` when it skipped it).
type Stage = fn(&OpSpan) -> Option<u64>;

/// The five protocol stages plus the issue→completion total, in taxonomy
/// order: each stage's name and the rounds a span spent in it.
pub(crate) const STAGES: [(&str, Stage); 6] = [
    ("queue-wait", OpSpan::queue_wait),
    ("aggregation", OpSpan::aggregation),
    ("assignment", OpSpan::assignment),
    ("dht-routing", OpSpan::dht_routing),
    ("reply", OpSpan::reply),
    ("total", OpSpan::total),
];

/// The in-memory sink: per-op spans plus the per-stage latency breakdown.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    spans: Vec<OpSpan>,
    hop_events_recorded: bool,
    /// The latency breakdown of each of [`STAGES`], in its order.
    stages: [StageStats; 6],
}

impl TraceAnalysis {
    /// Folds a merged log into per-op spans and stage percentiles.
    pub fn from_log(log: &TraceLog) -> Self {
        // (shard, wave) → anchor assignment round.
        let mut wave_rounds: Vec<((u32, u64), u64)> = Vec::new();
        for r in log.records() {
            if let TraceEvent::WaveAssigned { wave, round } = r.event {
                let key = (r.shard, wave);
                if let Err(i) = wave_rounds.binary_search_by_key(&key, |&(k, _)| k) {
                    wave_rounds.insert(i, (key, round));
                }
            }
        }
        let mut by_op: std::collections::BTreeMap<TraceId, OpSpan> =
            std::collections::BTreeMap::new();
        let mut hop_events_recorded = false;
        for r in log.records() {
            match r.event {
                TraceEvent::Issued { op, insert, round } => {
                    let s = by_op.entry(op).or_insert_with(|| OpSpan::new(op));
                    s.issued.get_or_insert(round);
                    s.insert = insert;
                    s.shard = r.shard;
                }
                TraceEvent::WaveJoin { op, round } => {
                    let s = by_op.entry(op).or_insert_with(|| OpSpan::new(op));
                    s.wave_join.get_or_insert(round);
                }
                TraceEvent::Assigned {
                    op,
                    wave,
                    major,
                    round,
                } => {
                    let s = by_op.entry(op).or_insert_with(|| OpSpan::new(op));
                    s.assigned.get_or_insert(round);
                    s.wave = wave;
                    s.major = major;
                    let key = (r.shard, wave);
                    if let Ok(j) = wave_rounds.binary_search_by_key(&key, |&(k, _)| k) {
                        s.anchor_assigned.get_or_insert(wave_rounds[j].1);
                    }
                }
                TraceEvent::DhtIssued { op, round } => {
                    let s = by_op.entry(op).or_insert_with(|| OpSpan::new(op));
                    s.dht_issued.get_or_insert(round);
                }
                TraceEvent::DhtHop { op, .. } => {
                    hop_events_recorded = true;
                    let s = by_op.entry(op).or_insert_with(|| OpSpan::new(op));
                    s.hop_events += 1;
                }
                TraceEvent::DhtApplied { op, hops, round } => {
                    let s = by_op.entry(op).or_insert_with(|| OpSpan::new(op));
                    s.dht_applied.get_or_insert(round);
                    s.hops.get_or_insert(hops);
                }
                TraceEvent::Completed { op, round } => {
                    let s = by_op.entry(op).or_insert_with(|| OpSpan::new(op));
                    s.completed.get_or_insert(round);
                }
                TraceEvent::WaveAssigned { .. }
                | TraceEvent::PhaseEnter { .. }
                | TraceEvent::PhaseOver { .. }
                | TraceEvent::ProcessJoined { .. }
                | TraceEvent::ProcessLeft { .. }
                | TraceEvent::Absorbed { .. } => {}
            }
        }
        let spans: Vec<OpSpan> = by_op.into_values().collect();
        let mut scratch: Vec<u64> = Vec::new();
        let stages = STAGES.map(|(_, stage)| {
            scratch.clear();
            scratch.extend(spans.iter().filter_map(stage));
            StageStats::from_samples(&mut scratch)
        });
        TraceAnalysis {
            spans,
            hop_events_recorded,
            stages,
        }
    }

    /// All spans, sorted by op id.
    pub fn spans(&self) -> &[OpSpan] {
        &self.spans
    }

    /// Number of completed spans (must equal completed requests).
    pub fn completed_count(&self) -> usize {
        self.spans.iter().filter(|s| s.is_complete()).count()
    }

    /// Number of orphan spans (issued, never completed).  Zero at
    /// quiescence.
    pub fn orphan_count(&self) -> usize {
        self.spans.iter().filter(|s| s.is_orphan()).count()
    }

    /// True when per-hop events were present in the log.
    pub fn hop_events_recorded(&self) -> bool {
        self.hop_events_recorded
    }

    /// Sum of recorded routing hops over all spans (cross-checked against
    /// the nodes' `dht_hops` histogram by the invariant tests).
    pub fn total_hops(&self) -> u64 {
        self.spans
            .iter()
            .filter_map(|s| s.hops.map(u64::from))
            .sum()
    }

    /// First shape violation over all spans, or `None` when every span tree
    /// is well-formed.
    pub fn shape_violation(&self) -> Option<String> {
        self.spans
            .iter()
            .find_map(|s| s.shape_violation(self.hop_events_recorded))
    }

    /// The five protocol stages plus the issue→completion total, in
    /// taxonomy order, for table rendering.
    pub fn stage_table(&self) -> [(&'static str, StageStats); 6] {
        std::array::from_fn(|i| (STAGES[i].0, self.stages[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecord;

    fn rec(shard: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            node: shard as u64,
            shard,
            event,
        }
    }

    fn full_span_log() -> TraceLog {
        let op = TraceId::new(3, 0);
        let mut log = TraceLog::new();
        log.push(rec(
            1,
            TraceEvent::Issued {
                op,
                insert: true,
                round: 2,
            },
        ));
        log.push(rec(1, TraceEvent::WaveJoin { op, round: 4 }));
        log.push(rec(1, TraceEvent::WaveAssigned { wave: 7, round: 9 }));
        log.push(rec(
            1,
            TraceEvent::Assigned {
                op,
                wave: 7,
                major: 12,
                round: 11,
            },
        ));
        log.push(rec(1, TraceEvent::DhtIssued { op, round: 11 }));
        log.push(rec(
            1,
            TraceEvent::DhtHop {
                op,
                hop: 1,
                round: 12,
            },
        ));
        log.push(rec(
            2,
            TraceEvent::DhtHop {
                op,
                hop: 2,
                round: 13,
            },
        ));
        log.push(rec(
            2,
            TraceEvent::DhtApplied {
                op,
                hops: 2,
                round: 14,
            },
        ));
        log.push(rec(2, TraceEvent::Completed { op, round: 14 }));
        log
    }

    #[test]
    fn folds_a_full_span() {
        let a = TraceAnalysis::from_log(&full_span_log());
        assert_eq!(a.spans().len(), 1);
        let s = a.spans()[0];
        assert!(s.is_complete() && !s.is_orphan());
        assert_eq!(s.shape_violation(true), None);
        assert_eq!(s.queue_wait(), Some(2));
        assert_eq!(s.aggregation(), Some(5));
        assert_eq!(s.assignment(), Some(2));
        assert_eq!(s.dht_routing(), Some(3));
        assert_eq!(s.reply(), Some(0));
        assert_eq!(s.total(), Some(12));
        assert_eq!(s.hops, Some(2));
        assert_eq!(s.hop_events, 2);
        assert_eq!(a.completed_count(), 1);
        assert_eq!(a.orphan_count(), 0);
        assert_eq!(a.total_hops(), 2);
        let (name, total) = a.stage_table()[5];
        assert_eq!(name, "total");
        assert_eq!((total.p50, total.max), (12, 12));
        assert!(a.shape_violation().is_none());
    }

    #[test]
    fn locally_combined_and_bottom_shapes_are_well_formed() {
        let mut log = TraceLog::new();
        let pair = TraceId::new(0, 0);
        log.push(rec(
            0,
            TraceEvent::Issued {
                op: pair,
                insert: true,
                round: 3,
            },
        ));
        log.push(rec(0, TraceEvent::Completed { op: pair, round: 3 }));
        let bottom = TraceId::new(0, 1);
        log.push(rec(
            0,
            TraceEvent::Issued {
                op: bottom,
                insert: false,
                round: 4,
            },
        ));
        log.push(rec(
            0,
            TraceEvent::WaveJoin {
                op: bottom,
                round: 4,
            },
        ));
        log.push(rec(
            0,
            TraceEvent::Assigned {
                op: bottom,
                wave: 1,
                major: 0,
                round: 8,
            },
        ));
        log.push(rec(
            0,
            TraceEvent::Completed {
                op: bottom,
                round: 8,
            },
        ));
        let a = TraceAnalysis::from_log(&log);
        assert_eq!(a.completed_count(), 2);
        assert!(a.shape_violation().is_none());
        // Neither shape contributes DHT-stage samples.
        let counts = a.stage_table().map(|(name, stats)| (name, stats.count));
        assert_eq!(counts[3], ("dht-routing", 0));
        assert_eq!(counts[0], ("queue-wait", 1));
    }

    #[test]
    fn orphans_and_violations_are_detected() {
        let mut log = full_span_log();
        log.push(rec(
            0,
            TraceEvent::Issued {
                op: TraceId::new(9, 9),
                insert: false,
                round: 20,
            },
        ));
        let a = TraceAnalysis::from_log(&log);
        assert_eq!(a.orphan_count(), 1);

        // A completion that precedes its issue is a shape violation.
        let mut bad = TraceLog::new();
        let op = TraceId::new(1, 1);
        bad.push(rec(
            0,
            TraceEvent::Issued {
                op,
                insert: true,
                round: 10,
            },
        ));
        bad.push(rec(0, TraceEvent::Completed { op, round: 9 }));
        let a = TraceAnalysis::from_log(&bad);
        assert!(a.shape_violation().unwrap().contains("precedes"));

        // Hop-count mismatch at Full level.
        let mut mismatch = full_span_log();
        mismatch.push(rec(
            2,
            TraceEvent::DhtHop {
                op: TraceId::new(3, 0),
                hop: 3,
                round: 14,
            },
        ));
        let a = TraceAnalysis::from_log(&mismatch);
        assert!(a.shape_violation().unwrap().contains("hop events"));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 500);
        assert_eq!(percentile_sorted(&sorted, 0.99), 990);
        assert_eq!(percentile_sorted(&sorted, 0.999), 999);
        assert_eq!(percentile_sorted(&[7], 0.999), 7);
        let mut samples = vec![4u64, 1, 9];
        let s = StageStats::from_samples(&mut samples);
        assert_eq!((s.count, s.p50, s.max), (3, 4, 9));
        assert_eq!(
            StageStats::from_samples(&mut Vec::new()),
            StageStats::default()
        );
    }
}
