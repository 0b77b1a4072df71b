//! # skueue-trace — per-op lifecycle tracing
//!
//! Structured per-op events for the Skueue protocol.  Every request gets a
//! [`TraceId`] minted when it is issued and carried through its whole
//! lifecycle; protocol stages report round-stamped [`TraceEvent`]s through
//! the context their host lends them (`skueue_sim::Context::trace`).  A node
//! keeps no buffer: the simulation lends **one buffer per lane** (no
//! cross-thread contention) and, after every round, hands the lanes' events
//! to the driver's single [`TraceLog`] in lane order; the driver then appends
//! its own instants (completions, joins, departures).  Because the protocol
//! itself is byte-identical across execution backends, the merged log — and
//! everything derived from it — is byte-identical across thread counts too.
//!
//! The stage taxonomy decomposes a request's rounds-per-request latency
//! (the paper's headline metric, Theorems 18/20) into:
//!
//! | stage | from → to | what it measures |
//! |-------|-----------|------------------|
//! | `queue-wait` | `Issued` → `WaveJoin` | waiting for the node's next aggregation wave |
//! | `aggregation` | `WaveJoin` → `WaveAssigned` | batch travel up the tree + anchor processing |
//! | `assignment` | `WaveAssigned` → `Assigned` | assignment travel back down the tree |
//! | `dht-routing` | `Assigned` → `DhtApplied` | distance-halving hops to the responsible node |
//! | `reply` | `DhtApplied` → `Completed` | reply routing back to the requester |
//!
//! (each name is a [`TraceEvent`] variant, e.g. [`TraceEvent::Issued`].)
//! Locally combined stack pairs
//! and `⊥` dequeues legitimately skip later stages; see
//! `analysis::OpSpan::shape_violation` for the exact shape rules.
//!
//! Sinks: [`analysis::TraceAnalysis`] (in-memory per-stage round-latency
//! percentiles) and [`chrome::export_chrome_trace`] (Chrome trace-event JSON
//! loadable in Perfetto / `chrome://tracing`).
//!
//! Recording is **off by default** and the off path is a branch on the
//! `Copy` enum [`TraceLevel`] — no event is constructed (see
//! [`TraceLevel::is_off`]) — and a lane's empty buffer is all an untraced
//! run holds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod chrome;

pub use analysis::{OpSpan, StageStats, TraceAnalysis};
pub use chrome::{export_chrome_trace, validate_json};
use std::hash::{Hash, Hasher};

/// How much a traced run records.
///
/// `Copy` on purpose: every emission site guards with a branch on this enum,
/// which is all the off path costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No recording at all: every emission site reduces to one predictable
    /// branch (the default).
    #[default]
    Off,
    /// Record the per-op span events (issue, wave join, assignment, DHT
    /// apply, completion) plus churn/update-phase instants.
    Spans,
    /// Everything in [`Spans`](TraceLevel::Spans) plus one event per DHT
    /// routing hop — the level the hop-count invariants need.
    Full,
}

impl TraceLevel {
    /// True when nothing is recorded (the zero-cost path).
    #[inline]
    pub fn is_off(self) -> bool {
        matches!(self, TraceLevel::Off)
    }
}

/// Identity of one traced operation.
///
/// Minted when the operation is issued (it is the request's `OP_{v,i}`
/// identity: origin process and per-process sequence number), and carried
/// by every event of the op's span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    /// Raw id of the issuing process.
    pub origin: u64,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl TraceId {
    /// Creates the trace id of the `seq`-th request of process `origin`.
    pub fn new(origin: u64, seq: u64) -> Self {
        TraceId { origin, seq }
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}#{}", self.origin, self.seq)
    }
}

/// One round-stamped lifecycle event.
///
/// All variants carry the simulation round they happened in — traces are
/// round-stamped, never wall-clock-stamped, which is what keeps them
/// byte-identical across execution backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// The operation was issued at its origin process.
    Issued {
        /// The operation.
        op: TraceId,
        /// True for an enqueue/push, false for a dequeue/pop.
        insert: bool,
        /// Issue round.
        round: u64,
    },
    /// The op was committed into its node's next aggregation wave.
    WaveJoin {
        /// The operation.
        op: TraceId,
        /// Commit round (the round the wave opened).
        round: u64,
    },
    /// The anchor assigned a whole wave (one event per `(shard, wave)`,
    /// recorded at the anchor node — the boundary between the aggregation
    /// and assignment stages for every op of that wave).
    WaveAssigned {
        /// Wave epoch the anchor assigned.
        wave: u64,
        /// Assignment round at the anchor.
        round: u64,
    },
    /// The op's origin node resolved the anchor's run assignment to the
    /// op's position in the total order.
    Assigned {
        /// The operation.
        op: TraceId,
        /// Wave epoch the op was assigned in.
        wave: u64,
        /// Anchor-assigned `value(op)` (the order key's major).
        major: u64,
        /// Resolution round at the origin node.
        round: u64,
    },
    /// The op's DHT operation (put/get at its position key) was issued.
    DhtIssued {
        /// The operation.
        op: TraceId,
        /// Issue round.
        round: u64,
    },
    /// One distance-halving routing hop ([`TraceLevel::Full`] only).
    DhtHop {
        /// The operation.
        op: TraceId,
        /// Hop ordinal (1-based: the value of the routing progress counter
        /// *after* this hop).
        hop: u32,
        /// Round the hop was taken in.
        round: u64,
    },
    /// The DHT operation reached its responsible node and was applied.
    DhtApplied {
        /// The operation.
        op: TraceId,
        /// Total routing hops the operation traversed.
        hops: u32,
        /// Apply round.
        round: u64,
    },
    /// The operation completed (its history record was collected).
    Completed {
        /// The operation.
        op: TraceId,
        /// Completion round.
        round: u64,
    },
    /// A node entered an update phase (join/leave integration, Section IV).
    PhaseEnter {
        /// The phase number.
        phase: u64,
        /// Entry round.
        round: u64,
    },
    /// A node saw an update phase finish.
    PhaseOver {
        /// The phase number.
        phase: u64,
        /// Finish round.
        round: u64,
    },
    /// A joining process became an integrated member.
    ProcessJoined {
        /// Raw id of the process.
        process: u64,
        /// Integration round.
        round: u64,
    },
    /// A leaving process departed the system.
    ProcessLeft {
        /// Raw id of the process.
        process: u64,
        /// Departure round.
        round: u64,
    },
    /// A draining node handed its data over to its absorber.
    Absorbed {
        /// Raw id of the draining process.
        process: u64,
        /// Hand-over round.
        round: u64,
    },
}

impl TraceEvent {
    /// The round the event is stamped with.
    pub(crate) fn round(&self) -> u64 {
        match *self {
            TraceEvent::Issued { round, .. }
            | TraceEvent::WaveJoin { round, .. }
            | TraceEvent::WaveAssigned { round, .. }
            | TraceEvent::Assigned { round, .. }
            | TraceEvent::DhtIssued { round, .. }
            | TraceEvent::DhtHop { round, .. }
            | TraceEvent::DhtApplied { round, .. }
            | TraceEvent::Completed { round, .. }
            | TraceEvent::PhaseEnter { round, .. }
            | TraceEvent::PhaseOver { round, .. }
            | TraceEvent::ProcessJoined { round, .. }
            | TraceEvent::ProcessLeft { round, .. }
            | TraceEvent::Absorbed { round, .. } => round,
        }
    }
}

/// One event together with the node (and its anchor shard) that recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Dense index of the recording node.
    pub node: u64,
    /// Anchor shard of the recording node (the Chrome export's track).
    pub shard: u32,
    /// The event.
    pub event: TraceEvent,
}

/// The merged, deterministic event log of one execution.
///
/// Built from the lanes' event buffers, handed over in lane order after
/// every round, followed by the driver's own instants of that round;
/// byte-identical across thread counts for the same seed.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends one record (driver-side events: completions, churn).
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// All records in merge order.
    pub(crate) fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Per-shard event counts, sorted by shard id; a shard that recorded
    /// nothing is absent.
    pub fn shard_event_counts(&self) -> Vec<(u32, u64)> {
        let mut counts: Vec<(u32, u64)> = Vec::new();
        for r in &self.records {
            match counts.binary_search_by_key(&r.shard, |&(s, _)| s) {
                Ok(i) => counts[i].1 += 1,
                Err(i) => counts.insert(i, (r.shard, 1)),
            }
        }
        counts
    }

    /// FNV-1a fingerprint over every field of every record in merge order —
    /// the cheap byte-identity check the determinism tests compare across
    /// runs (its value is not pinned anywhere).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        self.records.hash(&mut h);
        h.finish()
    }
}

/// FNV-1a over the bytes a derived [`Hash`] feeds it.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_defaults_off_and_gates() {
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
        assert!(TraceLevel::Off.is_off());
        assert!(!TraceLevel::Spans.is_off());
        assert!(TraceLevel::Off < TraceLevel::Spans && TraceLevel::Spans < TraceLevel::Full);
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let ev_a = TraceRecord {
            node: 0,
            shard: 0,
            event: TraceEvent::Issued {
                op: TraceId::new(0, 0),
                insert: true,
                round: 1,
            },
        };
        let ev_b = TraceRecord {
            node: 1,
            shard: 0,
            event: TraceEvent::Completed {
                op: TraceId::new(0, 0),
                round: 4,
            },
        };
        let mut ab = TraceLog::new();
        ab.push(ev_a);
        ab.push(ev_b);
        let mut ba = TraceLog::new();
        ba.push(ev_b);
        ba.push(ev_a);
        assert_ne!(ab.fingerprint(), ba.fingerprint());
        assert_ne!(ab.fingerprint(), TraceLog::new().fingerprint());
    }

    #[test]
    fn shard_event_counts_sorts_by_shard() {
        let mut log = TraceLog::new();
        for shard in [2u32, 0, 2, 1, 2] {
            log.push(TraceRecord {
                node: shard as u64,
                shard,
                event: TraceEvent::WaveAssigned { wave: 1, round: 1 },
            });
        }
        assert_eq!(log.shard_event_counts(), vec![(0, 1), (1, 1), (2, 3)]);
    }
}
