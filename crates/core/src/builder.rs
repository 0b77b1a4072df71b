//! The fluent, validating constructor for [`SkueueCluster`].
//!
//! [`SkueueBuilder`] is the single entry point for constructing a cluster
//! and validates the whole configuration in one place, [`build`]:
//!
//! ```
//! use skueue_core::{Mode, Skueue};
//!
//! let cluster: Skueue = Skueue::builder()
//!     .processes(64)
//!     .mode(Mode::Queue)
//!     .seed(42)
//!     .build()?;
//! assert_eq!(cluster.active_processes(), 64);
//! # Ok::<(), skueue_core::BuildError>(())
//! ```
//!
//! Invalid configurations are reported as structured [`BuildError`]s instead
//! of panicking deep inside the constructor:
//!
//! ```
//! use skueue_core::{BuildError, Skueue};
//!
//! let err = Skueue::<u64>::builder().processes(0).build().unwrap_err();
//! assert_eq!(err, BuildError::NoProcesses);
//! ```
//!
//! What can be set is what two callers set differently: the system size,
//! the [`Mode`], the two seeds, the anchor-shard count, the delivery model,
//! the worker-thread count and the tracing level.  The delivery model
//! decides everything about the schedule: the node iteration order (index
//! order when synchronous, shuffled otherwise) and whether channels are
//! FIFO follow from it.  The protocol's parameters live in one
//! [`ProtocolConfig`] the builder writes into; there is one protocol per
//! mode and no switch selects parts of it.
//!
//! [`build`]: SkueueBuilder::build

use crate::cluster::SkueueCluster;
use crate::config::{Mode, ProtocolConfig};
use skueue_dht::Payload;
use skueue_sim::{DeliveryModel, SimConfig};
use skueue_trace::TraceLevel;
use std::marker::PhantomData;

/// Largest accepted anchor-shard count (`skueue_shard::MAX_SHARDS`).
const MAX_SHARDS: usize = skueue_shard::MAX_SHARDS as usize;

/// A configuration rejected by [`SkueueBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A cluster needs at least one process.
    NoProcesses,
    /// The deployment needs at least one anchor shard.
    ZeroShards,
    /// The anchor-shard count exceeds the supported maximum.
    TooManyShards {
        /// The requested count.
        requested: usize,
        /// The largest valid count.
        max: usize,
    },
    /// The simulation configuration is invalid (e.g. an empty delay range).
    InvalidSimConfig(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoProcesses => {
                write!(f, "a Skueue cluster needs at least one process")
            }
            BuildError::ZeroShards => {
                write!(f, "the deployment needs at least one anchor shard")
            }
            BuildError::TooManyShards { requested, max } => {
                write!(
                    f,
                    "shard count {requested} exceeds the supported maximum of {max}"
                )
            }
            BuildError::InvalidSimConfig(reason) => {
                write!(f, "invalid simulation config: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Checks an anchor-shard count that arrived from outside the program — the
/// gate of [`SkueueBuilder::build`], shared with the daemons' `--shards`.
pub fn validate_shards(shards: usize) -> Result<(), BuildError> {
    match shards {
        0 => Err(BuildError::ZeroShards),
        1..=MAX_SHARDS => Ok(()),
        requested => Err(BuildError::TooManyShards {
            requested,
            max: MAX_SHARDS,
        }),
    }
}

/// Fluent builder for [`SkueueCluster`]; created by
/// [`SkueueCluster::builder`].
///
/// Defaults: one process would be pointless, so there is no default size —
/// call [`processes`](Self::processes).  Everything else defaults to the
/// paper's evaluation setup: queue mode, one anchor shard, the synchronous
/// round scheduler, seed 0, one thread, tracing off.
#[derive(Debug, Clone)]
pub struct SkueueBuilder<T: Payload = u64> {
    processes: usize,
    /// Mode, hash seed, shard count and tracing level are written straight
    /// into the protocol configuration; its `fifo_channels` is derived from
    /// `delivery` when the configuration is read.
    protocol: ProtocolConfig,
    seed: u64,
    delivery: DeliveryModel,
    threads: usize,
    /// The element payload type the built cluster will carry.
    _payload: PhantomData<T>,
}

impl<T: Payload> Default for SkueueBuilder<T> {
    fn default() -> Self {
        SkueueBuilder {
            processes: 0,
            protocol: ProtocolConfig::queue(),
            seed: 0,
            delivery: DeliveryModel::Synchronous,
            threads: 1,
            _payload: PhantomData,
        }
    }
}

impl<T: Payload> SkueueBuilder<T> {
    /// Starts a builder with the defaults described on the type.
    pub(crate) fn new() -> Self {
        SkueueBuilder::default()
    }

    /// Number of processes of the initial system (each emulates three
    /// virtual De Bruijn nodes).  Required; zero is rejected by
    /// [`build`](Self::build).
    pub fn processes(mut self, n: usize) -> Self {
        self.processes = n;
        self
    }

    /// Queue (FIFO, the default) or stack (LIFO) semantics.  The stack runs
    /// the protocol of Section VI whole: local combining, the stage-4
    /// barrier, one anchor.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.protocol.mode = mode;
        self
    }

    /// Shorthand for `.mode(Mode::Stack)`.
    pub fn stack(self) -> Self {
        self.mode(Mode::Stack)
    }

    /// Seed of the simulation substrate (message delays, tie breaking).
    /// The same seed reproduces the same run.  The publicly known hash
    /// function (process labels, position keys) keeps its fixed default
    /// seed — matching the paper's setup, where varying the workload seed
    /// does not move the overlay — unless [`hash_seed`](Self::hash_seed)
    /// overrides it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the seed of the publicly known pseudorandom hash function
    /// (process labels and position keys) independently of the simulation
    /// seed.
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.protocol.hash_seed = seed;
        self
    }

    /// Number of independent anchor shards the queue is partitioned into
    /// (default 1 = the unsharded protocol of the paper).  Every process is
    /// deterministically assigned to one shard by a splittable hash of its
    /// label; each shard runs its own cycle, aggregation tree and anchor
    /// over a disjoint interval of the position keyspace, and the verifier
    /// checks the merged `(wave, shard, local)` order with
    /// `skueue_verify::check_queue_sharded`.  Stack mode pins the count
    /// to 1 (the ticket matching needs the single global stage-4 barrier).
    /// Zero and counts beyond `skueue_shard::MAX_SHARDS` are rejected by
    /// [`build`](Self::build).
    pub fn shards(mut self, shards: usize) -> Self {
        self.protocol.shards = shards;
        self
    }

    /// Runs under asynchronous, non-FIFO delivery with uniform delays in
    /// `[1, max_delay]` — the model the correctness proof targets
    /// ([`build`](Self::build) refuses a `max_delay` of 0 or above 1024).  Like
    /// every model but the synchronous one, it also shuffles the per-round
    /// node iteration order.
    pub fn asynchronous(mut self, max_delay: u64) -> Self {
        self.delivery = DeliveryModel::uniform(max_delay);
        self
    }

    /// Uses an explicit delivery model (e.g.
    /// [`DeliveryModel::Adversarial`]); the default is the synchronous round
    /// scheduler the paper evaluates on.  The per-round node iteration order
    /// is index order under the synchronous model and shuffled under every
    /// other.
    pub fn delivery(mut self, delivery: DeliveryModel) -> Self {
        self.delivery = delivery;
        self
    }

    /// Number of OS threads a round runs anchor-shard lanes on, the calling
    /// thread included.  `1` (the default) runs every lane on the calling
    /// thread; with `n > 1` lane `l` runs on the round's thread `l % n`,
    /// the others being spawned per round and joined at its end (capped at
    /// the shard count — extra threads would have no lane to run).  Every
    /// thread count produces **byte-identical** histories for every seed,
    /// so `.threads(n)` is purely a wall-clock knob.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Per-op lifecycle tracing level (default [`TraceLevel::Off`]).
    ///
    /// At [`TraceLevel::Spans`] every request's protocol stages (issue, wave
    /// join, anchor assignment, DHT routing, completion) are recorded into
    /// lane-local buffers and merged deterministically; [`TraceLevel::Full`]
    /// adds one event per DHT routing hop.  Tracing is observation-only:
    /// histories are byte-identical at every level, and the off path is a
    /// single branch on a `Copy` enum (no buffer allocated).
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.protocol.trace_level = level;
        self
    }

    /// The [`ProtocolConfig`] this builder currently describes.  Its
    /// `bit_budget` is not read: [`InitialMembership::build`] derives one per
    /// shard from the shard's size.
    ///
    /// [`InitialMembership::build`]: crate::membership::InitialMembership::build
    pub(crate) fn protocol_config(&self) -> ProtocolConfig {
        ProtocolConfig {
            // The synchronous round scheduler delivers per-channel in send
            // order; every other model may reorder, which the protocol's
            // aggregate credit must compensate for.
            fifo_channels: self.delivery.is_synchronous(),
            ..self.protocol
        }
    }

    /// The [`SimConfig`] this builder currently describes.
    pub(crate) fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            delivery: self.delivery,
        }
    }

    /// Validates the configuration and builds the cluster.
    pub fn build(self) -> Result<SkueueCluster<T>, BuildError> {
        if self.processes == 0 {
            return Err(BuildError::NoProcesses);
        }
        validate_shards(self.protocol.shards)?;
        let sim_cfg = self.sim_config();
        sim_cfg.validate().map_err(|e| match e {
            // Unwrap the reason so the BuildError Display doesn't repeat the
            // "invalid simulation config" prefix.
            skueue_sim::SimError::InvalidConfig(reason) => BuildError::InvalidSimConfig(reason),
            other => BuildError::InvalidSimConfig(other.to_string()),
        })?;
        Ok(SkueueCluster::from_config(
            self.processes,
            self.protocol_config(),
            sim_cfg,
            self.threads,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_overlay::recommended_bit_budget;

    #[test]
    fn zero_processes_is_rejected() {
        assert_eq!(
            SkueueBuilder::<u64>::new().build().unwrap_err(),
            BuildError::NoProcesses
        );
        assert_eq!(
            SkueueBuilder::<u64>::new()
                .processes(0)
                .seed(1)
                .build()
                .unwrap_err(),
            BuildError::NoProcesses
        );
    }

    #[test]
    fn shard_counts_are_validated() {
        let err = SkueueBuilder::<u64>::new()
            .processes(4)
            .shards(0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::ZeroShards);
        let err = SkueueBuilder::<u64>::new()
            .processes(4)
            .shards(MAX_SHARDS + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::TooManyShards {
                requested: MAX_SHARDS + 1,
                max: MAX_SHARDS
            }
        );
        let cluster = SkueueBuilder::<u64>::new()
            .processes(16)
            .shards(4)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(cluster.shards(), 4);
        // A stack runs one shard whatever it asks for
        // (`InitialMembership::build` decides the count).
        let stack = SkueueBuilder::<u64>::new()
            .processes(8)
            .stack()
            .shards(4)
            .build()
            .unwrap();
        assert_eq!(stack.shards(), 1);
    }

    #[test]
    fn invalid_delivery_model_is_rejected() {
        let err = SkueueBuilder::<u64>::new()
            .processes(4)
            .delivery(DeliveryModel::UniformRandom { max_delay: 1025 })
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidSimConfig(_)));
    }

    #[test]
    fn asynchronous_zero_is_refused() {
        let err = SkueueBuilder::<u64>::new()
            .processes(4)
            .asynchronous(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidSimConfig(_)));
        assert!(SkueueBuilder::<u64>::new()
            .processes(4)
            .asynchronous(1)
            .build()
            .is_ok());
    }

    #[test]
    fn defaults_match_the_papers_queue_setup() {
        let builder = SkueueBuilder::<u64>::new().processes(8).seed(3);
        let cfg = builder.protocol_config();
        assert_eq!(cfg.mode, Mode::Queue);
        assert!(cfg.fifo_channels);
        let sim = builder.sim_config();
        assert!(sim.delivery.is_synchronous());
        assert_eq!(sim.seed, 3);
    }

    #[test]
    fn stack_mode_selects_the_stack_protocol() {
        let cfg = SkueueBuilder::<u64>::new()
            .processes(8)
            .stack()
            .protocol_config();
        assert_eq!(cfg.mode, Mode::Stack);
        // Section VI's barrier serialises waves: one slot, one anchor.
        assert_eq!(cfg.effective_pipeline_depth(), 1);
    }

    #[test]
    fn fifo_channels_follow_the_delivery_model() {
        let builder = SkueueBuilder::<u64>::new().processes(4).asynchronous(5);
        assert!(!builder.protocol_config().fifo_channels);
        let builder = builder.delivery(DeliveryModel::Synchronous);
        assert!(builder.protocol_config().fifo_channels);
    }

    #[test]
    fn built_cluster_derives_bit_budget_from_size() {
        let cluster = SkueueBuilder::<u64>::new()
            .processes(16)
            .seed(1)
            .build()
            .unwrap();
        let (_, node) = cluster.nodes().next().unwrap();
        assert_eq!(node.config().bit_budget, recommended_bit_budget(16));
        assert_eq!(cluster.active_processes(), 16);
    }

    #[test]
    fn hash_seed_is_respected() {
        let cluster = SkueueBuilder::<u64>::new()
            .processes(4)
            .seed(9)
            .hash_seed(1234)
            .build()
            .unwrap();
        let (_, node) = cluster.nodes().next().unwrap();
        assert_eq!(node.config().hash_seed, 1234);
    }
}
