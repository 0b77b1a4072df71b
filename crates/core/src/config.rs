//! Protocol configuration.
//!
//! The paper specifies one queue protocol (Sections III–V) and one stack
//! protocol (Section VI), so [`ProtocolConfig`] selects between them with
//! [`Mode`] and otherwise holds only what deployments set differently —
//! `hash_seed`, `shards`, `trace_level` — plus two values derived for the
//! nodes: `fifo_channels` (from the transport) and `bit_budget` (from the
//! shard's size).  Nothing else is switchable: the stack's local combining,
//! stage-4 barrier and strict waves follow from the mode, any pending churn
//! opens an update phase, and the wave ring holds [`PIPELINE_DEPTH`] slots.

use skueue_overlay::{recommended_bit_budget, LabelHasher};
use skueue_trace::TraceLevel;

/// Whether the protocol runs as the FIFO queue of Sections III–V or as the
/// LIFO stack of Section VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `ENQUEUE()` / `DEQUEUE()` with FIFO semantics.
    Queue,
    /// `PUSH()` / `POP()` with LIFO semantics (tickets, constant-size
    /// batches, stage-4 barrier).
    Stack,
}

/// Static configuration shared by all nodes of one Skueue deployment.
///
/// There is one protocol per [`Mode`]: everything Section VI asks of the
/// stack — local combining, the stage-4 barrier with its strict wave
/// lockstep, a single anchor, one wave at a time — follows from
/// `Self::is_stack` and is not separately switchable.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolConfig {
    /// Queue or stack semantics.
    pub mode: Mode,
    /// Seed of the publicly known pseudorandom hash function (process labels
    /// and position keys).
    pub hash_seed: u64,
    /// Number of distance-halving bits used when routing DHT operations.
    /// Not an input: [`InitialMembership::build`] derives it per shard from
    /// the shard's size ([`recommended_bit_budget`]) and overwrites whatever
    /// is here.
    ///
    /// [`InitialMembership::build`]: crate::membership::InitialMembership::build
    pub bit_budget: u32,
    /// True when the transport delivers each channel's messages in send
    /// order (the synchronous round model, TCP).  FIFO channels make the
    /// `AggregateAck` credit redundant: a child may keep several aggregates
    /// to the same parent in flight because they cannot overtake each other
    /// (re-parenting is covered separately by the wave slots' parent guard).
    /// Under reordering delivery this must be `false`, and the credit
    /// serialises every child→parent channel.  Not a user option: the
    /// cluster builder derives it from `DeliveryModel::is_synchronous()`.
    /// Both values carry traffic — every golden history and the TCP daemons
    /// run with `true`, the reordering-delivery suites with `false`.
    pub fifo_channels: bool,
    /// Number of independent anchor shards the queue is partitioned into.
    /// Every process belongs to exactly one shard (splittable hash of its
    /// label, `skueue_shard::ShardMap`); each shard runs its own LDB cycle,
    /// aggregation tree, anchor and position-keyspace interval, and the
    /// global order is the fixed `(wave, shard, local)` interleaving.  `1`
    /// (the default) is the unsharded protocol of the paper, bit for bit.
    /// The stack's ticket matching needs the single global stage-4 barrier,
    /// so a stack runs one shard, and zero means one: the count a node reads
    /// here is the one [`InitialMembership::build`] decided.
    ///
    /// [`InitialMembership::build`]: crate::membership::InitialMembership::build
    pub shards: usize,
    /// Per-op lifecycle tracing level ([`skueue_trace`]).  Off by default;
    /// the off path is a branch on this `Copy` enum and allocates nothing.
    /// Tracing is observation-only — it never sends messages or alters
    /// scheduling decisions, so histories (and the pinned goldens) are
    /// identical at every level.
    pub trace_level: TraceLevel,
}

/// Number of aggregation waves a queue node keeps in flight concurrently
/// (the waves its wave memo may hold): a node may combine and forward wave
/// `k+1` while wave `k`'s assignments are still travelling back down the
/// tree, as in Skeap/Seap's overlapping phases.
///
/// The depth bounds per-node wave state, and it *is* reached: with a wave
/// opened at most every second round (`WAVE_CADENCE`) it covers an anchor
/// round trip of up to 64 rounds, and the benchmark's
/// `core.waves_in_flight_max` (sampled right after a wave is opened, so 32
/// is a full pipeline) reads 31 / 32 / 32 / 32 on `sim_light` / `sim_heavy` /
/// `sim_heavy_par` / `sim_churn` (`examples/benchmark/baseline.json`).  On
/// three of those four workloads some node therefore waits for a `Serve`
/// before it opens its next wave.  Whether that throttles at paper scale
/// (n = 10⁵), and whether the depth should be sized from the tree height
/// instead, is open (ROADMAP).  The value is part of the schedule every
/// golden history pins.
pub(crate) const PIPELINE_DEPTH: usize = 32;

impl ProtocolConfig {
    /// The queue protocol of Sections III–V.
    pub fn queue() -> Self {
        ProtocolConfig {
            mode: Mode::Queue,
            hash_seed: LabelHasher::default().seed(),
            bit_budget: recommended_bit_budget(1),
            fifo_channels: true,
            shards: 1,
            trace_level: TraceLevel::Off,
        }
    }

    /// The number of wave slots a node uses: the stack's stage-4 barrier
    /// requires strictly alternating waves, so a stack node keeps one.
    pub(crate) fn effective_pipeline_depth(&self) -> usize {
        if self.is_stack() {
            1
        } else {
            PIPELINE_DEPTH
        }
    }

    /// The hasher corresponding to this configuration.
    pub fn hasher(&self) -> LabelHasher {
        LabelHasher::new(self.hash_seed)
    }

    /// True for stack mode — and with it for everything Section VI adds to
    /// the protocol: local combining of a node's own push/pop pairs, the
    /// stage-4 barrier (a node waits for all its DHT operations before it
    /// contributes to the next wave) and the strict wave lockstep.
    pub(crate) fn is_stack(&self) -> bool {
        self.mode == Mode::Stack
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::queue()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> ProtocolConfig {
        ProtocolConfig {
            mode: Mode::Stack,
            ..ProtocolConfig::queue()
        }
    }

    #[test]
    fn queue_defaults() {
        let c = ProtocolConfig::queue();
        assert_eq!(c.mode, Mode::Queue);
        assert!(!c.is_stack());
        assert!(c.fifo_channels);
    }

    #[test]
    fn stack_mode_is_stack() {
        assert!(stack().is_stack());
    }

    #[test]
    fn hash_seed_override_reaches_the_hasher() {
        let c = ProtocolConfig {
            hash_seed: 99,
            ..stack()
        };
        assert_eq!(c.hash_seed, 99);
        assert_eq!(c.hasher().seed(), 99);
    }

    #[test]
    fn default_is_queue() {
        assert_eq!(ProtocolConfig::default().mode, Mode::Queue);
    }

    #[test]
    fn trace_defaults_off() {
        // Off by default: tracing must cost nothing unless asked for.
        assert!(ProtocolConfig::queue().trace_level.is_off());
    }

    #[test]
    fn shards_default_to_one() {
        assert_eq!(ProtocolConfig::queue().shards, 1);
    }

    #[test]
    fn the_stack_keeps_one_wave_in_flight() {
        assert_eq!(
            ProtocolConfig::queue().effective_pipeline_depth(),
            PIPELINE_DEPTH
        );
        // The stack's stage-4 barrier serialises waves.
        assert_eq!(stack().effective_pipeline_depth(), 1);
    }
}
