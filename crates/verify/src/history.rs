//! Execution histories.
//!
//! A [`History`] is the complete record of one simulated execution as far as
//! queue/stack semantics are concerned: one [`OpRecord`] per request issued
//! to the system.  The protocol fills in the `order` field with the request's
//! position `value(op)` in the total order `≺` it constructs (Section V of
//! the paper); the checkers in this crate then verify that this order indeed
//! witnesses sequential consistency.

use skueue_dht::Payload;
use skueue_sim::ids::{ProcessId, RequestId};
use skueue_trace::StageStats;
use std::collections::BTreeMap;

/// A request's position in the witnessed total order `≺`.
///
/// For batched requests the anchor's counter gives a globally unique `major`
/// value (`value(op)` of Section V) and `minor` is zero.  The stack's
/// *locally combined* push/pop pairs (Section VI) never reach the anchor;
/// they are placed directly after the issuing process's most recent ordered
/// request by reusing its `major` and counting up `minor`.  Ties on
/// `(major, minor)` cannot occur between anchor-assigned values; the
/// `origin` component only disambiguates locally combined pairs of different
/// processes that anchor to the same major (which keeps each pair adjacent —
/// required for the LIFO nesting property).
///
/// **Sharded deployments** (`shards > 1`) prepend two components: the anchor
/// shard's *wave epoch* and the *shard id*, so the global order is the fixed
/// lexicographic interleaving `(wave, shard, major, …)` of the per-shard
/// anchor orders.  Restricted to one shard this is exactly the shard's own
/// anchor order (the counter is monotone across waves), and every process
/// issues all of its requests into one shard — so the merged order stays
/// consistent with every process's program order by construction.  Unsharded
/// histories leave both components at zero, which makes the ordering (and
/// the key bytes) identical to the pre-sharding format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OrderKey {
    /// Wave epoch of the assigning anchor shard (zero for unsharded runs
    /// and locally combined pairs) — the leading merge component.
    pub wave: u64,
    /// Id of the assigning anchor shard (zero for unsharded runs).
    pub shard: u64,
    /// Anchor-assigned `value(op)` (or the major of the preceding ordered
    /// request for locally combined pairs).
    pub major: u64,
    /// Raw id of the origin process (tie-break between different processes'
    /// locally combined pairs).
    pub origin: u64,
    /// Position among the locally combined requests anchored at `major`
    /// (zero for anchor-assigned requests).
    pub minor: u64,
}

impl OrderKey {
    /// Key of an anchor-ordered request (unsharded deployment).
    pub fn anchor(major: u64, origin: ProcessId) -> Self {
        OrderKey {
            wave: 0,
            shard: 0,
            major,
            origin: origin.raw(),
            minor: 0,
        }
    }

    /// Key of a request ordered by shard `shard`'s anchor in its wave
    /// `wave`.  The interleaving rule of the sharded order: `(wave, shard,
    /// major)` lexicographically.
    pub fn sharded(wave: u64, shard: u32, major: u64, origin: ProcessId) -> Self {
        OrderKey {
            wave,
            shard: shard as u64,
            major,
            origin: origin.raw(),
            minor: 0,
        }
    }

    /// Key of a locally combined request anchored after `major`.
    pub fn local(major: u64, origin: ProcessId, minor: u64) -> Self {
        OrderKey {
            wave: 0,
            shard: 0,
            major,
            origin: origin.raw(),
            minor,
        }
    }
}

impl std::fmt::Display for OrderKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.wave != 0 || self.shard != 0 {
            write!(f, "w{}s{}:{}", self.wave, self.shard, self.major)?;
            if self.minor != 0 {
                write!(f, "+{}.{}", self.origin, self.minor)?;
            }
            return Ok(());
        }
        if self.minor == 0 {
            write!(f, "{}", self.major)
        } else {
            write!(f, "{}+{}.{}", self.major, self.origin, self.minor)
        }
    }
}

/// Kind of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `ENQUEUE()` (or `PUSH()` for the stack).
    Enqueue,
    /// `DEQUEUE()` (or `POP()` for the stack).
    Dequeue,
}

/// Outcome of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpResult {
    /// An `ENQUEUE()`/`PUSH()` completed (the element is in the structure or
    /// already consumed by a matched dequeue).
    Enqueued,
    /// A `DEQUEUE()`/`POP()` returned the element that was inserted by the
    /// request with this id.
    Returned(RequestId),
    /// A `DEQUEUE()`/`POP()` returned `⊥` (empty).
    Empty,
}

/// One completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord<T = u64> {
    /// Identity of the request: origin process and per-process sequence
    /// number (`OP_{v,i}`), which encodes the process-local issue order.
    pub id: RequestId,
    /// Whether this is an enqueue/push or dequeue/pop.
    pub kind: OpKind,
    /// Payload value carried by an enqueue/push; for a dequeue/pop, the
    /// payload of the element it returned (`T::default()` — `0` for `u64` —
    /// when it returned `⊥`).
    pub value: T,
    /// The outcome.
    pub result: OpResult,
    /// The request's position in the protocol's witnessed total order `≺`.
    pub order: OrderKey,
    /// Round in which the request was issued (for latency statistics).
    pub issued_round: u64,
    /// Round in which the request completed (for latency statistics).
    pub completed_round: u64,
}

impl<T: Payload> OpRecord<T> {
    /// Latency of the request in rounds.
    pub fn latency(&self) -> u64 {
        self.completed_round.saturating_sub(self.issued_round)
    }

    /// True if this is a dequeue that returned `⊥`.
    pub(crate) fn is_empty_dequeue(&self) -> bool {
        self.kind == OpKind::Dequeue && self.result == OpResult::Empty
    }
}

/// A complete execution history.
#[derive(Debug, Clone)]
pub struct History<T = u64> {
    records: Vec<OpRecord<T>>,
}

impl<T> Default for History<T> {
    fn default() -> Self {
        History {
            records: Vec::new(),
        }
    }
}

impl<T: Payload> History<T> {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Creates a history from records.
    pub fn from_records(records: Vec<OpRecord<T>>) -> Self {
        History { records }
    }

    /// Adds a record.
    pub fn push(&mut self, record: OpRecord<T>) {
        self.records.push(record);
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[OpRecord<T>] {
        &self.records
    }

    /// Consumes the history and returns the records in insertion order.
    pub fn into_records(self) -> Vec<OpRecord<T>> {
        self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records of a given kind.
    pub fn count_kind(&self, kind: OpKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }

    /// Number of dequeues/pops that returned `⊥`.
    pub fn count_empty(&self) -> usize {
        self.records.iter().filter(|r| r.is_empty_dequeue()).count()
    }

    /// All records sorted by the witnessed total order.
    pub(crate) fn sorted_by_order(&self) -> Vec<&OpRecord<T>> {
        let mut sorted: Vec<&OpRecord<T>> = self.records.iter().collect();
        sorted.sort_by_key(|r| r.order);
        sorted
    }

    /// Records grouped by origin process, each group sorted by the
    /// per-process sequence number (the issue order at that process).
    pub(crate) fn by_process(&self) -> BTreeMap<ProcessId, Vec<&OpRecord<T>>> {
        let mut map: BTreeMap<ProcessId, Vec<&OpRecord<T>>> = BTreeMap::new();
        for r in &self.records {
            map.entry(r.id.origin).or_default().push(r);
        }
        for group in map.values_mut() {
            group.sort_by_key(|r| r.id.seq);
        }
        map
    }

    /// Mean latency over all records (0.0 when empty).
    pub fn mean_latency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.latency()).sum::<u64>() as f64 / self.records.len() as f64
    }

    /// Largest single-record latency (0 when empty).
    pub fn max_latency(&self) -> u64 {
        self.records.iter().map(|r| r.latency()).max().unwrap_or(0)
    }

    /// The `(p50, p99, p999)` latency percentiles in rounds (nearest-rank).
    ///
    /// Computed from the records alone, so they are available with lifecycle
    /// tracing off; the trace analysis' `total` stage reports the same
    /// numbers when tracing is on.
    pub fn latency_percentiles(&self) -> (u64, u64, u64) {
        let mut latencies: Vec<u64> = self.records.iter().map(|r| r.latency()).collect();
        let stats = StageStats::from_samples(&mut latencies);
        (stats.p50, stats.p99, stats.p999)
    }
}

impl<T: Payload> Extend<OpRecord<T>> for History<T> {
    /// Appends records from any record stream — another [`History`], a
    /// `Vec<OpRecord>`, or an iterator of collected
    /// `CompletionEvent::record`s.
    fn extend<I: IntoIterator<Item = OpRecord<T>>>(&mut self, records: I) {
        self.records.extend(records);
    }
}

impl<T: Payload> IntoIterator for History<T> {
    type Item = OpRecord<T>;
    type IntoIter = std::vec::IntoIter<OpRecord<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<T: Payload> FromIterator<OpRecord<T>> for History<T> {
    /// Builds a history from a stream of completion records — the natural
    /// consumer of an event-observer hook that collects
    /// `CompletionEvent::record`s.
    fn from_iter<I: IntoIterator<Item = OpRecord<T>>>(records: I) -> Self {
        History {
            records: records.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(origin: u64, seq: u64, kind: OpKind, result: OpResult, order: u64) -> OpRecord<u64> {
        OpRecord {
            id: RequestId::new(ProcessId(origin), seq),
            kind,
            value: seq,
            result,
            order: OrderKey::anchor(order, ProcessId(origin)),
            issued_round: 1,
            completed_round: 5,
        }
    }

    #[test]
    fn order_key_compares_major_then_origin_then_minor() {
        let a = OrderKey::anchor(5, ProcessId(9));
        let b = OrderKey::local(5, ProcessId(9), 2);
        let c = OrderKey::local(5, ProcessId(9), 3);
        let d = OrderKey::anchor(6, ProcessId(0));
        assert!(a < b && b < c && c < d);
        let other_origin = OrderKey::local(5, ProcessId(1), 7);
        assert!(
            other_origin < b,
            "smaller origin sorts first at the same major"
        );
        assert_eq!(format!("{a}"), "5");
        assert_eq!(format!("{b}"), "5+9.2");
    }

    #[test]
    fn latency_and_empty_detection() {
        let r = rec(0, 0, OpKind::Dequeue, OpResult::Empty, 1);
        assert_eq!(r.latency(), 4);
        assert!(r.is_empty_dequeue());
        let e = rec(0, 1, OpKind::Enqueue, OpResult::Enqueued, 2);
        assert!(!e.is_empty_dequeue());
    }

    #[test]
    fn counting_helpers() {
        let mut h = History::new();
        h.push(rec(0, 0, OpKind::Enqueue, OpResult::Enqueued, 1));
        h.push(rec(
            0,
            1,
            OpKind::Dequeue,
            OpResult::Returned(RequestId::new(ProcessId(0), 0)),
            2,
        ));
        h.push(rec(1, 0, OpKind::Dequeue, OpResult::Empty, 3));
        assert_eq!(h.len(), 3);
        assert_eq!(h.count_kind(OpKind::Enqueue), 1);
        assert_eq!(h.count_kind(OpKind::Dequeue), 2);
        assert_eq!(h.count_empty(), 1);
        assert!((h.mean_latency() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sorted_by_order_sorts() {
        let mut h = History::new();
        h.push(rec(0, 0, OpKind::Enqueue, OpResult::Enqueued, 9));
        h.push(rec(0, 1, OpKind::Enqueue, OpResult::Enqueued, 3));
        let sorted = h.sorted_by_order();
        assert_eq!(sorted[0].order.major, 3);
        assert_eq!(sorted[1].order.major, 9);
    }

    #[test]
    fn by_process_groups_and_sorts_by_seq() {
        let mut h = History::new();
        h.push(rec(2, 1, OpKind::Enqueue, OpResult::Enqueued, 5));
        h.push(rec(2, 0, OpKind::Enqueue, OpResult::Enqueued, 9));
        h.push(rec(1, 0, OpKind::Dequeue, OpResult::Empty, 1));
        let groups = h.by_process();
        assert_eq!(groups.len(), 2);
        let p2 = &groups[&ProcessId(2)];
        assert_eq!(p2[0].id.seq, 0);
        assert_eq!(p2[1].id.seq, 1);
    }

    #[test]
    fn extend_merges() {
        let mut a = History::new();
        a.push(rec(0, 0, OpKind::Enqueue, OpResult::Enqueued, 1));
        let mut b = History::new();
        b.push(rec(1, 0, OpKind::Enqueue, OpResult::Enqueued, 2));
        a.extend(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn collects_from_record_stream() {
        let records = vec![
            rec(0, 0, OpKind::Enqueue, OpResult::Enqueued, 1),
            rec(0, 1, OpKind::Dequeue, OpResult::Empty, 2),
        ];
        let h: History = records.iter().cloned().collect();
        assert_eq!(h.len(), 2);
        assert_eq!(h.max_latency(), 4);
        let mut extended = History::new();
        extended.extend(records);
        assert_eq!(extended.len(), 2);
    }

    #[test]
    fn empty_history_defaults() {
        let h = History::<u64>::new();
        assert!(h.is_empty());
        assert_eq!(h.mean_latency(), 0.0);
        assert!(h.sorted_by_order().is_empty());
        assert_eq!(h.latency_percentiles(), (0, 0, 0));
    }

    #[test]
    fn latency_percentiles_nearest_rank() {
        let mut h = History::new();
        for i in 0..100u64 {
            h.push(OpRecord {
                id: RequestId::new(ProcessId(0), i),
                kind: OpKind::Enqueue,
                value: i,
                result: OpResult::Enqueued,
                order: OrderKey::anchor(i, ProcessId(0)),
                issued_round: 0,
                completed_round: i + 1,
            });
        }
        assert_eq!(h.latency_percentiles(), (50, 99, 100));
    }
}
