//! The fluent, validating constructor for [`SkueueCluster`].
//!
//! [`SkueueBuilder`] replaces the old `new(n, cfg, sim_cfg)` / `queue(n,
//! seed)` / `stack(n, seed)` constructor zoo with a single entry point that
//! validates the whole configuration in one place:
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

use crate::cluster::SkueueCluster;
use crate::config::{Mode, ProtocolConfig};
use skueue_dht::Payload;
use skueue_sim::{DeliveryModel, ExecMode, SimConfig};
use skueue_trace::TraceLevel;
use std::marker::PhantomData;

/// Width of an overlay label in bits; the distance-halving bit budget cannot
/// exceed it.
const MAX_BIT_BUDGET: u32 = 64;

/// Largest accepted anchor-shard count (`skueue_shard::MAX_SHARDS`).
const MAX_SHARDS: usize = skueue_shard::MAX_SHARDS as usize;

/// A configuration rejected by [`SkueueBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A cluster needs at least one process.
    NoProcesses,
    /// The distance-halving bit budget exceeds the label width.
    BitBudgetTooLarge {
        /// The requested budget.
        requested: u32,
        /// The largest valid budget (the label width).
        max: u32,
    },
    /// The anchor's update threshold must be at least one pending request.
    ZeroUpdateThreshold,
    /// The wave pipeline needs at least one slot per node.
    ZeroPipelineDepth,
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
            BuildError::BitBudgetTooLarge { requested, max } => write!(
                f,
                "bit budget {requested} exceeds the {max}-bit label width"
            ),
            BuildError::ZeroUpdateThreshold => {
                write!(f, "the update threshold must be at least 1")
            }
            BuildError::ZeroPipelineDepth => {
                write!(f, "the wave pipeline depth must be at least 1")
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

/// Fluent builder for [`SkueueCluster`]; created by
/// [`SkueueCluster::builder`].
///
/// Defaults: one process would be pointless, so there is no default size —
/// call [`processes`](Self::processes).  Everything else defaults to the
/// paper's evaluation setup: queue mode, the synchronous round scheduler,
/// seed 0, and a bit budget derived from the initial system size.  Switching
/// to [`Mode::Stack`] also switches on the stack's protocol switches (local
/// combining and the stage-4 barrier), exactly like the old
/// `ProtocolConfig::stack()` defaults; the individual setters below override
/// either choice.
#[derive(Debug, Clone)]
pub struct SkueueBuilder<T: Payload = u64> {
    processes: usize,
    mode: Mode,
    seed: u64,
    hash_seed: Option<u64>,
    bit_budget: u32,
    local_combining: Option<bool>,
    stage4_barrier: Option<bool>,
    update_threshold: u64,
    pipeline_depth: usize,
    shards: usize,
    delivery: DeliveryModel,
    shuffle_node_order: Option<bool>,
    threads: usize,
    middle_fingers: bool,
    trace: TraceLevel,
    /// The element payload type the built cluster will carry.
    _payload: PhantomData<T>,
}

impl<T: Payload> Default for SkueueBuilder<T> {
    fn default() -> Self {
        SkueueBuilder {
            processes: 0,
            mode: Mode::Queue,
            seed: 0,
            hash_seed: None,
            bit_budget: 0,
            local_combining: None,
            stage4_barrier: None,
            update_threshold: 1,
            pipeline_depth: crate::config::DEFAULT_PIPELINE_DEPTH,
            shards: 1,
            delivery: DeliveryModel::Synchronous,
            shuffle_node_order: None,
            threads: 1,
            middle_fingers: false,
            trace: TraceLevel::Off,
            _payload: PhantomData,
        }
    }
}

impl<T: Payload> SkueueBuilder<T> {
    /// Starts a builder with the defaults described on the type.
    pub fn new() -> Self {
        SkueueBuilder::default()
    }

    /// Number of processes of the initial system (each emulates three
    /// virtual De Bruijn nodes).  Required; zero is rejected by
    /// [`build`](Self::build).
    pub fn processes(mut self, n: usize) -> Self {
        self.processes = n;
        self
    }

    /// Queue (FIFO) or stack (LIFO) semantics.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `.mode(Mode::Queue)`.
    pub fn queue(self) -> Self {
        self.mode(Mode::Queue)
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
        self.hash_seed = Some(seed);
        self
    }

    /// Number of distance-halving bits used when routing DHT operations.
    /// `0` (the default) derives the budget from the initial system size.
    /// Budgets beyond the 64-bit label width are rejected by
    /// [`build`](Self::build).
    pub fn bit_budget(mut self, bits: u32) -> Self {
        self.bit_budget = bits;
        self
    }

    /// Stack only: locally combine a node's own push/pop pairs so they
    /// complete without involving the anchor (Section VI; the E9 ablation
    /// switch).  Defaults to on in stack mode, off in queue mode.
    pub fn local_combining(mut self, enabled: bool) -> Self {
        self.local_combining = Some(enabled);
        self
    }

    /// Stack only: wait at the end of stage 4 until all DHT operations
    /// issued by this node have finished before starting the next
    /// aggregation phase (required for stack correctness, Section VI).
    /// Defaults to on in stack mode, off in queue mode.
    pub fn stage4_barrier(mut self, enabled: bool) -> Self {
        self.stage4_barrier = Some(enabled);
        self
    }

    /// Batching of membership changes: the minimum number of pending
    /// `JOIN()`/`LEAVE()` requests the anchor observes before it triggers an
    /// update phase.  `1` (the default) keeps the system maximally up to
    /// date; larger thresholds batch more churn per update phase.  Zero is
    /// rejected by [`build`](Self::build).
    pub fn update_threshold(mut self, threshold: u64) -> Self {
        self.update_threshold = threshold;
        self
    }

    /// Maximum number of aggregation waves each node keeps in flight
    /// concurrently (default
    /// [`DEFAULT_PIPELINE_DEPTH`](crate::config::DEFAULT_PIPELINE_DEPTH),
    /// chosen to sit above the anchor round-trip time so the ring bounds
    /// state without throttling).  `1` reproduces the strictly alternating
    /// wave of the original analysis; larger depths overlap aggregation of
    /// wave `k+1` with the serve/DHT phases of wave `k` (Skeap-style
    /// pipelining).  The stack's stage-4 barrier serialises waves
    /// regardless.  Zero is rejected by [`build`](Self::build).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
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
        self.shards = shards;
        self
    }

    /// Runs on the synchronous round scheduler the paper evaluates on (the
    /// default).
    pub fn synchronous(mut self) -> Self {
        self.delivery = DeliveryModel::Synchronous;
        self
    }

    /// Runs under asynchronous, non-FIFO delivery with uniform delays in
    /// `[1, max_delay]` — the model the correctness proof targets.  Also
    /// shuffles the per-round node iteration order (override with
    /// [`shuffle_node_order`](Self::shuffle_node_order)).
    pub fn asynchronous(mut self, max_delay: u64) -> Self {
        self.delivery = DeliveryModel::uniform(max_delay);
        self
    }

    /// Uses an explicit delivery model (e.g.
    /// [`DeliveryModel::Adversarial`]).
    pub fn delivery(mut self, delivery: DeliveryModel) -> Self {
        self.delivery = delivery;
        self
    }

    /// Shuffles (or pins) the per-round node iteration order.  Defaults to
    /// shuffled for asynchronous delivery models and pinned for the
    /// synchronous scheduler.
    pub fn shuffle_node_order(mut self, shuffle: bool) -> Self {
        self.shuffle_node_order = Some(shuffle);
        self
    }

    /// Number of OS worker threads the round loop runs anchor-shard lanes
    /// on.  `1` (the default) selects the single-threaded backend; `n > 1`
    /// runs each shard's lane on a persistent worker thread behind a
    /// deterministic round barrier (capped at the shard count — extra
    /// threads would have no lane to run).  The two backends produce
    /// **byte-identical** histories for every seed, so `.threads(n)` is
    /// purely a wall-clock knob.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables the nearest-middle routing finger: every node additionally
    /// tracks the nearest *middle* node in successor direction and the
    /// distance-halving walk jumps straight to it instead of stepping
    /// node-by-node across the left/middle/right cycle (≈3 virtual hops per
    /// halving bit without the finger).  Routing stays correct with the
    /// finger absent or stale, but hop counts — and therefore message
    /// schedules and histories — change, so the switch defaults to **off**
    /// to keep seeded runs comparable with the pinned goldens.
    pub fn middle_fingers(mut self, enabled: bool) -> Self {
        self.middle_fingers = enabled;
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
        self.trace = level;
        self
    }

    /// The [`ProtocolConfig`] this builder currently describes.
    pub fn protocol_config(&self) -> ProtocolConfig {
        let mut cfg = match self.mode {
            Mode::Queue => ProtocolConfig::queue(),
            Mode::Stack => ProtocolConfig::stack(),
        };
        if let Some(seed) = self.hash_seed {
            cfg.hash_seed = seed;
        }
        cfg.bit_budget = self.bit_budget;
        if let Some(enabled) = self.local_combining {
            cfg.local_combining = enabled;
        }
        if let Some(enabled) = self.stage4_barrier {
            cfg.stage4_barrier = enabled;
        }
        cfg.update_threshold = self.update_threshold;
        cfg.pipeline_depth = self.pipeline_depth;
        cfg.shards = self.shards;
        cfg.middle_fingers = self.middle_fingers;
        cfg.trace_level = self.trace;
        // The synchronous round scheduler delivers per-channel in send
        // order; every other model may reorder, which the protocol's
        // aggregate credit must compensate for.
        cfg.fifo_channels = self.delivery.is_synchronous();
        cfg
    }

    /// The [`SimConfig`] this builder currently describes.
    pub fn sim_config(&self) -> SimConfig {
        let synchronous = self.delivery.is_synchronous();
        SimConfig {
            seed: self.seed,
            delivery: self.delivery,
            shuffle_node_order: self.shuffle_node_order.unwrap_or(!synchronous),
            max_rounds: 0,
        }
    }

    /// The [`ExecMode`] this builder currently describes.
    pub fn exec_mode(&self) -> ExecMode {
        ExecMode::from_threads(self.threads)
    }

    /// Validates the configuration and builds the cluster.
    pub fn build(self) -> Result<SkueueCluster<T>, BuildError> {
        let sim_cfg = self.sim_config();
        let protocol_cfg = self.protocol_config();
        validate_config(self.processes, &protocol_cfg, &sim_cfg)?;
        Ok(SkueueCluster::from_config(
            self.processes,
            protocol_cfg,
            sim_cfg,
            self.exec_mode(),
        ))
    }
}

/// The single validation gate for cluster configurations — used by
/// [`SkueueBuilder::build`] and by the deprecated constructor shims, so both
/// entry points accept exactly the same configurations.
pub(crate) fn validate_config(
    processes: usize,
    protocol_cfg: &ProtocolConfig,
    sim_cfg: &SimConfig,
) -> Result<(), BuildError> {
    if processes == 0 {
        return Err(BuildError::NoProcesses);
    }
    if protocol_cfg.bit_budget > MAX_BIT_BUDGET {
        return Err(BuildError::BitBudgetTooLarge {
            requested: protocol_cfg.bit_budget,
            max: MAX_BIT_BUDGET,
        });
    }
    if protocol_cfg.update_threshold == 0 {
        return Err(BuildError::ZeroUpdateThreshold);
    }
    if protocol_cfg.pipeline_depth == 0 {
        return Err(BuildError::ZeroPipelineDepth);
    }
    if protocol_cfg.shards == 0 {
        return Err(BuildError::ZeroShards);
    }
    if protocol_cfg.shards > MAX_SHARDS {
        return Err(BuildError::TooManyShards {
            requested: protocol_cfg.shards,
            max: MAX_SHARDS,
        });
    }
    sim_cfg.validate().map_err(|e| match e {
        // Unwrap the reason so the BuildError Display doesn't repeat the
        // "invalid simulation config" prefix.
        skueue_sim::SimError::InvalidConfig(reason) => BuildError::InvalidSimConfig(reason),
        other => BuildError::InvalidSimConfig(other.to_string()),
    })
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
    fn oversized_bit_budget_is_rejected() {
        let err = SkueueBuilder::<u64>::new()
            .processes(4)
            .bit_budget(65)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::BitBudgetTooLarge {
                requested: 65,
                max: 64
            }
        );
        assert!(err.to_string().contains("65"));
    }

    #[test]
    fn zero_update_threshold_is_rejected() {
        let err = SkueueBuilder::<u64>::new()
            .processes(4)
            .update_threshold(0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::ZeroUpdateThreshold);
    }

    #[test]
    fn zero_pipeline_depth_is_rejected() {
        let err = SkueueBuilder::<u64>::new()
            .processes(4)
            .pipeline_depth(0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::ZeroPipelineDepth);
        let cfg = SkueueBuilder::<u64>::new()
            .processes(4)
            .pipeline_depth(3)
            .protocol_config();
        assert_eq!(cfg.pipeline_depth, 3);
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
        // Stack mode pins the effective count to 1.
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
            .delivery(DeliveryModel::UniformRandom {
                min_delay: 9,
                max_delay: 2,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InvalidSimConfig(_)));
    }

    #[test]
    fn defaults_match_the_papers_queue_setup() {
        let builder = SkueueBuilder::<u64>::new().processes(8).seed(3);
        let cfg = builder.protocol_config();
        assert_eq!(cfg.mode, Mode::Queue);
        assert!(!cfg.local_combining);
        assert!(!cfg.stage4_barrier);
        let sim = builder.sim_config();
        assert!(sim.delivery.is_synchronous());
        assert!(!sim.shuffle_node_order);
        assert_eq!(sim.seed, 3);
    }

    #[test]
    fn stack_mode_switches_stack_defaults_on() {
        let cfg = SkueueBuilder::<u64>::new()
            .processes(8)
            .stack()
            .protocol_config();
        assert_eq!(cfg.mode, Mode::Stack);
        assert!(cfg.local_combining);
        assert!(cfg.stage4_barrier);
        // …and the individual switches still override.
        let cfg = SkueueBuilder::<u64>::new()
            .processes(8)
            .stack()
            .local_combining(false)
            .protocol_config();
        assert!(!cfg.local_combining);
        assert!(cfg.stage4_barrier);
    }

    #[test]
    fn asynchronous_shuffles_by_default_and_can_be_pinned() {
        let sim = SkueueBuilder::<u64>::new()
            .processes(4)
            .asynchronous(5)
            .sim_config();
        assert!(!sim.delivery.is_synchronous());
        assert!(sim.shuffle_node_order);
        let sim = SkueueBuilder::<u64>::new()
            .processes(4)
            .asynchronous(5)
            .shuffle_node_order(false)
            .sim_config();
        assert!(!sim.shuffle_node_order);
    }

    #[test]
    fn built_cluster_derives_bit_budget_from_size() {
        let cluster = SkueueBuilder::<u64>::new()
            .processes(16)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(cluster.config().bit_budget, recommended_bit_budget(16));
        assert_eq!(cluster.active_processes(), 16);
    }

    #[test]
    fn hash_seed_and_explicit_bit_budget_are_respected() {
        let cluster = SkueueBuilder::<u64>::new()
            .processes(4)
            .seed(9)
            .hash_seed(1234)
            .bit_budget(17)
            .build()
            .unwrap();
        assert_eq!(cluster.config().hash_seed, 1234);
        assert_eq!(cluster.config().bit_budget, 17);
    }
}
