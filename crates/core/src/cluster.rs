//! The cluster driver: the public API a user of the library works with.
//!
//! [`SkueueCluster`] (aliased as [`Skueue`]) owns a [`Simulation`] of
//! [`SkueueNode`]s, one per virtual node (three per process), plus the
//! bookkeeping needed to inject requests, drive rounds, and resolve results.
//! The API has three pieces:
//!
//! 1. **Construction** goes through the fluent, validating
//!    [`SkueueCluster::builder`]:
//!
//!    ```
//!    use skueue_core::Skueue;
//!
//!    let cluster: Skueue = Skueue::builder().processes(8).seed(42).build()?;
//!    # drop(cluster);
//!    # Ok::<(), skueue_core::BuildError>(())
//!    ```
//!
//! 2. **Operations are typed tickets.**  `enqueue` / `dequeue` (or
//!    `push`/`pop` in stack mode) on a per-process [`ClientHandle`] from
//!    [`SkueueCluster::client`] — the one way to issue an operation — return
//!    an [`OpTicket`]; [`SkueueCluster::run_until_done`],
//!    [`SkueueCluster::outcome`] and [`SkueueCluster::status`] resolve
//!    tickets to structured [`OpOutcome`]s, so callers never scan the raw
//!    execution history to learn what a dequeue returned:
//!
//!    ```
//!    use skueue_core::Skueue;
//!    use skueue_sim::ids::ProcessId;
//!
//!    let mut cluster = Skueue::builder().processes(8).seed(42).build()?;
//!    let put = cluster.client(ProcessId(0)).enqueue(7)?;
//!    let got = cluster.client(ProcessId(5)).dequeue()?;
//!    let outcomes = cluster.run_until_done(&[put, got], 500)?;
//!    assert_eq!(outcomes[1].value(), Some(7));
//!    # Ok::<(), Box<dyn std::error::Error>>(())
//!    ```
//!
//! 3. **One completion stream.**  Every completed operation is published as
//!    a [`CompletionEvent`] to the observers registered with
//!    [`SkueueCluster::on_complete`]; the execution
//!    [`History`] handed to `skueue-verify` is itself built from that same
//!    stream, so workloads, benches and the verifier all see identical data.
//!
//! [`SkueueCluster::join`] / [`SkueueCluster::leave`] add or remove
//! processes through the Section IV protocol, and accessor methods expose
//! the measurements the paper reports (per-request round counts, batch
//! sizes, per-node element counts, …).

use crate::batch::BatchOp;
use crate::builder::SkueueBuilder;
use crate::client::ClientHandle;
use crate::config::{Mode, ProtocolConfig};
use crate::membership::{joining_nodes, InitialMembership};
use crate::node::{series, SkueueNode};
use crate::ticket::{CompletionEvent, OpOutcome, OpStatus, OpTicket};
use skueue_dht::load_stats;
use skueue_dht::{LoadStats, Payload};
use skueue_overlay::{node_of, recommended_bit_budget, VKind, VirtualId};
use skueue_shard::{ShardId, ShardMap, ShardRouter};
use skueue_sim::ids::{NodeId, ProcessId, RequestId};
use skueue_sim::metrics::Histogram;
use skueue_sim::{SimConfig, SimError, Simulation};
use skueue_trace::{
    export_chrome_trace, TraceAnalysis, TraceEvent, TraceId, TraceLevel, TraceLog, TraceRecord,
};
use skueue_verify::{History, OpKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of per-instance cluster ids, stamped into every [`OpTicket`] so a
/// ticket can never resolve against a cluster other than the one that
/// issued it (request ids alone are deterministic and collide across
/// clusters).
static NEXT_CLUSTER_ID: AtomicU64 = AtomicU64::new(0);

/// Errors surfaced by the cluster driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The requested process does not exist or has left.
    UnknownProcess(ProcessId),
    /// The process is not an integrated member (still joining or leaving).
    ProcessNotActive(ProcessId),
    /// A queue operation was issued on a stack cluster or vice versa.
    WrongMode {
        /// The mode the called operation belongs to.
        required: Mode,
        /// The mode the cluster actually runs.
        actual: Mode,
    },
    /// The process currently hosting the anchor cannot leave (documented
    /// restriction of this reproduction).  With `shards > 1` every shard's
    /// anchor process is pinned this way.
    AnchorCannotLeave(ProcessId),
    /// A join resolved to an anchor shard that has no active member to
    /// bootstrap from (possible only when `shards` exceeds the number of
    /// live processes and the hash left a shard unpopulated).
    ShardHasNoMembers {
        /// The empty target shard.
        shard: ShardId,
    },
    /// A ticket issued by a different cluster was passed to
    /// [`SkueueCluster::run_until_done`]; it can never complete here.
    ForeignTicket(OpTicket),
    /// The simulation reported an error.
    Sim(SimError),
    /// A run exceeded its round budget before the condition became true.
    RoundLimitExceeded {
        /// The exceeded budget.
        limit: u64,
        /// Requests still open when the budget ran out.
        open_requests: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            ClusterError::ProcessNotActive(p) => write!(f, "process {p} is not active"),
            ClusterError::WrongMode { required, actual } => write!(
                f,
                "operation requires {required:?} mode but the cluster runs in {actual:?} mode"
            ),
            ClusterError::AnchorCannotLeave(p) => {
                write!(f, "process {p} hosts the anchor and cannot leave")
            }
            ClusterError::ShardHasNoMembers { shard } => {
                write!(
                    f,
                    "anchor shard {shard} has no active member to bootstrap from"
                )
            }
            ClusterError::ForeignTicket(t) => {
                write!(f, "{t} was issued by a different cluster")
            }
            ClusterError::Sim(e) => write!(f, "simulation error: {e}"),
            ClusterError::RoundLimitExceeded {
                limit,
                open_requests,
            } => write!(
                f,
                "round limit of {limit} exceeded with {open_requests} open requests"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<SimError> for ClusterError {
    fn from(e: SimError) -> Self {
        ClusterError::Sim(e)
    }
}

/// Lifecycle state of a process as tracked by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcessState {
    Active,
    Joining,
    Leaving,
    Left,
}

#[derive(Debug, Clone)]
struct ProcessHandle {
    /// The anchor shard the process belongs to (deterministic by label).
    shard: ShardId,
    state: ProcessState,
    next_seq: u64,
    /// Where each completed request of this process sits in the history,
    /// indexed by the request's `seq` (dense from 0); [`NOT_COMPLETED`] for
    /// a request still in flight.  The record there is the outcome's one
    /// source, so no outcome is stored.
    completed_at: Vec<u32>,
}

/// Marks a request that has no history record yet in
/// [`ProcessHandle::completed_at`].
const NOT_COMPLETED: u32 = u32::MAX;

impl ProcessHandle {
    fn new(shard: ShardId, state: ProcessState) -> Self {
        ProcessHandle {
            shard,
            state,
            next_seq: 0,
            completed_at: Vec::new(),
        }
    }

    /// Index of the history record of request `seq`, once it has completed.
    fn history_index(&self, seq: u64) -> Option<usize> {
        let at = *self.completed_at.get(usize::try_from(seq).ok()?)?;
        (at != NOT_COMPLETED).then_some(at as usize)
    }
}

/// Node ids of the left/middle/right virtual nodes of `process` (the dense
/// id rule of [`node_of`]; the process table stores none of them).
fn nodes_of(process: ProcessId) -> [NodeId; 3] {
    VKind::ALL.map(|kind| node_of(VirtualId::new(process, kind)))
}

/// Observer callback invoked once per completed operation.
type CompletionObserver<T> = Box<dyn FnMut(&CompletionEvent<T>)>;

/// A running Skueue deployment (queue or stack) on top of the simulation
/// substrate, generic over the element payload type `T` (default `u64`).
/// The crate docs have the API tour.
pub struct SkueueCluster<T: Payload = u64> {
    sim: Simulation<SkueueNode<T>>,
    cfg: ProtocolConfig,
    /// Deterministic process→shard assignment (cached splittable hashing).
    router: ShardRouter,
    /// Per-shard node configuration, shared by the shard's nodes: the
    /// deployment's configuration with the shard's distance-halving bit
    /// budget (derived from the shard's initial size unless the
    /// configuration pins an explicit budget).
    shard_cfgs: Vec<Arc<ProtocolConfig>>,
    /// Every process ever admitted, in pid order: pids are handed out
    /// densely from 0 and never reused or removed, so process `p` sits at
    /// index `p` and the next pid is the table's length.
    processes: Vec<ProcessHandle>,
    history: History<T>,
    observers: Vec<CompletionObserver<T>>,
    issued: u64,
    /// This instance's id (see [`NEXT_CLUSTER_ID`]).
    cluster_id: u64,
    /// Scratch for the per-round completion sweep, reused across rounds.
    completion_scratch: Vec<skueue_verify::OpRecord<T>>,
    /// Scratch holding the indices of the nodes to sweep for completions.
    visit_scratch: Vec<usize>,
    /// Nodes mutated driver-side since the last round (request injection can
    /// complete operations immediately via the stack's local combining, and
    /// such a node is not necessarily visited by the next round).
    dirty_nodes: Vec<NodeId>,
    /// Number of processes currently joining or leaving; the per-round state
    /// refresh is skipped while it is zero.
    transitioning: usize,
    /// The merged lifecycle-trace log: the simulation hands it the lanes'
    /// events in lane order after every round, and the completion sweep and
    /// the membership refresh append the driver's own instants, so the log
    /// is byte-identical across thread counts.  Stays empty at
    /// [`TraceLevel::Off`].
    trace_log: TraceLog,
}

/// Short alias for [`SkueueCluster`]; lets code read
/// `Skueue::builder()…build()` (and `Skueue::<String>::builder()` for
/// non-default payloads).
pub type Skueue<T = u64> = SkueueCluster<T>;

impl<T: Payload> std::fmt::Debug for SkueueCluster<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkueueCluster")
            .field("mode", &self.cfg.mode)
            .field("round", &self.sim.round())
            .field("processes", &self.processes.len())
            .field("active_processes", &self.active_processes())
            .field("requests_issued", &self.issued)
            .field("requests_completed", &self.requests_completed())
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl<T: Payload> SkueueCluster<T> {
    /// Starts the fluent builder — the entry point for constructing
    /// clusters.
    pub fn builder() -> SkueueBuilder<T> {
        SkueueBuilder::new()
    }

    /// Builds the cluster from an already-validated configuration (the
    /// builder's backend).
    pub(crate) fn from_config(
        n: usize,
        mut cfg: ProtocolConfig,
        sim_cfg: SimConfig,
        threads: usize,
    ) -> Self {
        debug_assert!(n >= 1, "validated by SkueueBuilder::build");
        let membership = InitialMembership::build(n as u64, cfg);
        // The stored cfg carries the normalised shard count and keeps the
        // whole-system budget derivation for introspection (`config()`);
        // node behaviour is governed by the per-shard budgets, which
        // coincide with this value exactly when shards == 1.
        cfg.shards = cfg.effective_shards();
        cfg.bit_budget = recommended_bit_budget(n);

        let mut sim = Simulation::new(sim_cfg).expect("validated by SkueueBuilder::build");
        // One simulation lane per anchor shard: all protocol traffic is
        // intra-shard, so each lane's round is independent and the parallel
        // backend can run lanes on worker threads without any cross-lane
        // routing.  With `shards == 1` this is exactly the old layout.
        sim.configure_lanes(cfg.shards)
            .expect("fresh simulation has no nodes yet");
        // Pre-size every lane: the shard populations are known, and node
        // slots are large enough that letting several lane vectors grow by
        // doubling costs milliseconds of memcpy on big clusters.
        for (shard, size) in membership.shard_sizes().enumerate() {
            if size > 0 {
                sim.reserve_nodes_in_lane(shard, size * 3);
            }
        }
        let mut processes = Vec::with_capacity(n);
        for pid in (0..n as u64).map(ProcessId) {
            let (shard, views) = membership.process(pid);
            for (view, is_anchor) in views {
                let id = view.me().node;
                let node_cfg = Arc::clone(&membership.shard_cfgs()[shard as usize]);
                let node = SkueueNode::<T>::new(node_cfg, shard, view, is_anchor);
                let assigned = sim.add_node_in_lane(shard as usize, node);
                debug_assert_eq!(assigned, id);
            }
            processes.push(ProcessHandle::new(shard, ProcessState::Active));
        }

        // One thread, or one lane, stays on the calling thread.
        sim.enable_parallel(threads);

        SkueueCluster {
            sim,
            cfg,
            router: membership.router(),
            shard_cfgs: membership.shard_cfgs().to_vec(),
            processes,
            history: History::new(),
            observers: Vec::new(),
            issued: 0,
            cluster_id: NEXT_CLUSTER_ID.fetch_add(1, Ordering::Relaxed),
            completion_scratch: Vec::new(),
            visit_scratch: Vec::new(),
            dirty_nodes: Vec::new(),
            transitioning: 0,
            trace_log: TraceLog::new(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// The current round.
    pub fn round(&self) -> u64 {
        self.sim.round()
    }

    /// Number of processes that are integrated members.
    pub fn active_processes(&self) -> usize {
        self.processes
            .iter()
            .filter(|p| p.state == ProcessState::Active)
            .count()
    }

    /// Ids of all currently active processes.
    pub fn active_process_ids(&self) -> Vec<ProcessId> {
        self.processes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state == ProcessState::Active)
            .map(|(pid, _)| ProcessId(pid as u64))
            .collect()
    }

    /// Total number of requests issued so far.
    pub fn requests_issued(&self) -> u64 {
        self.issued
    }

    /// Number of requests that have completed (records in the history).
    pub(crate) fn requests_completed(&self) -> u64 {
        self.history.len() as u64
    }

    /// Number of requests still in flight.
    pub fn open_requests(&self) -> u64 {
        self.issued - self.requests_completed()
    }

    /// The execution history collected so far (one record per completed
    /// request, built from the same completion stream the
    /// [`on_complete`](Self::on_complete) observers see).  Pass it to the
    /// `skueue-verify` checkers; to learn what an individual operation
    /// returned, use [`outcome`](Self::outcome) instead.
    pub fn history(&self) -> &History<T> {
        &self.history
    }

    /// Consumes the cluster and returns the history.
    pub fn into_history(self) -> History<T> {
        self.history
    }

    /// Substrate metrics (messages, delays, …).
    pub fn sim_metrics(&self) -> &skueue_sim::SimMetrics {
        self.sim.metrics()
    }

    /// Current anchor window/counter state (from whichever node holds it).
    /// Sharded deployments have one anchor per shard; this returns the first
    /// one found — use [`Self::shard_anchor_states`] for the full picture.
    pub fn anchor_state(&self) -> Option<crate::anchor::AnchorState> {
        self.sim
            .iter()
            .find_map(|(_, node)| node.anchor_state().copied())
    }

    /// Number of anchor shards this deployment runs (1 when unsharded).
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Number of worker threads the simulation's round loop runs on (1 =
    /// single-threaded backend; see [`SkueueBuilder::threads`]).
    pub fn parallel_threads(&self) -> usize {
        self.sim.parallel_threads()
    }

    /// The deterministic shard layout — hand this to
    /// `skueue_verify::check_queue_sharded` together with
    /// [`Self::history`].
    pub fn shard_map(&self) -> ShardMap {
        *self.router.map()
    }

    /// The shard a known process belongs to.
    pub fn shard_of_process(&self, process: ProcessId) -> Option<ShardId> {
        self.process(process).ok().map(|p| p.shard)
    }

    /// The anchor state currently held in each shard (indexed by shard id).
    /// `None` for a shard that is unpopulated — or whose anchor state is
    /// momentarily in flight between nodes (anchor hand-off).
    pub fn shard_anchor_states(&self) -> Vec<Option<crate::anchor::AnchorState>> {
        let mut out = vec![None; self.cfg.shards];
        for (_, node) in self.sim.iter() {
            if let Some(state) = node.anchor_state() {
                out[node.shard() as usize] = Some(*state);
            }
        }
        out
    }

    /// Number of aggregation waves each shard's anchor has assigned so far
    /// (indexed by shard id; 0 for idle or unpopulated shards).  The direct
    /// measure of how work spreads over the shards.
    pub fn shard_wave_counts(&self) -> Vec<u64> {
        self.shard_anchor_states()
            .iter()
            .map(|s| s.map(|a| a.epoch).unwrap_or(0))
            .collect()
    }

    /// Per-node stored-element counts (fairness accounting, Corollary 19).
    pub(crate) fn stored_elements_per_node(&self) -> Vec<u64> {
        self.sim
            .iter()
            .filter(|(_, node)| node.is_integrated())
            .map(|(_, node)| node.stored_elements() as u64)
            .collect()
    }

    /// Load statistics over the per-node element counts.
    pub fn fairness(&self) -> Option<LoadStats> {
        let counts = self.stored_elements_per_node();
        load_stats(&counts)
    }

    /// Histogram of the sizes of every batch sent in the system
    /// (Theorem 18 / Theorem 20).
    pub fn batch_size_histogram(&self) -> Histogram {
        self.sim.observed(series::BATCH_SIZES)
    }

    /// Histogram of DHT routing hop counts per operation (Lemma 3; the
    /// `hops_per_op` view of Stage 4).
    pub fn dht_hop_histogram(&self) -> Histogram {
        self.sim.observed(series::DHT_HOPS)
    }

    /// Histogram of DHT operations carried per `DhtBatch` message — the
    /// direct measure of the per-destination coalescing win (mean ≫ 1 means
    /// routed ops actually share hops).
    pub fn dht_ops_per_message_histogram(&self) -> Histogram {
        self.sim.observed(series::DHT_OPS_PER_MESSAGE)
    }

    /// Histogram of per-node aggregation waves in flight, sampled whenever a
    /// wave is opened (`max ≥ 2` shows the pipeline overlapping waves).
    pub fn waves_in_flight_histogram(&self) -> Histogram {
        self.sim.observed(series::WAVES_IN_FLIGHT)
    }

    /// Total `DhtReply` entries that arrived for a request no node knows —
    /// the benign reply/departure race during join/leave.
    pub fn unmatched_dht_replies(&self) -> u64 {
        self.sim.observed(series::UNMATCHED_DHT_REPLIES).sum() as u64
    }

    /// Total number of requests resolved by the stack's local combining.
    pub fn locally_combined(&self) -> u64 {
        self.sim.observed(series::LOCALLY_COMBINED).sum() as u64
    }

    // ------------------------------------------------------------------
    // Lifecycle tracing (skueue-trace).
    // ------------------------------------------------------------------

    /// The lifecycle-tracing level this cluster records at (set via
    /// [`SkueueBuilder::trace`]; [`TraceLevel::Off`] by default).
    pub fn trace_level(&self) -> TraceLevel {
        self.cfg.trace_level
    }

    /// The merged lifecycle-trace log collected so far: per round, the
    /// lanes' events in lane order, then the driver's completion, join and
    /// departure instants, so for a given seed the log is byte-identical
    /// across thread counts.  Empty at [`TraceLevel::Off`].
    pub fn trace_log(&self) -> &TraceLog {
        &self.trace_log
    }

    /// Per-op span trees and per-stage round-latency percentiles derived
    /// from the trace log (see [`TraceAnalysis`]).
    pub fn trace_analysis(&self) -> TraceAnalysis {
        TraceAnalysis::from_log(&self.trace_log)
    }

    /// Chrome trace-event JSON of the trace log (load in Perfetto or
    /// `chrome://tracing`): one track per shard lane, one slice per
    /// completed op span, instants for wave assignments and churn.
    /// Deterministic — byte-identical across thread counts for one seed.
    pub fn export_chrome_trace(&self) -> String {
        export_chrome_trace(&self.trace_log)
    }

    // ------------------------------------------------------------------
    // Request injection.
    // ------------------------------------------------------------------

    /// A request-issuing [`ClientHandle`] bound to `process`.
    ///
    /// The handle is a cheap borrow; validity of the process is checked when
    /// an operation is issued, so handles for joining processes become
    /// usable the moment the process is integrated.
    pub fn client(&mut self, process: ProcessId) -> ClientHandle<'_, T> {
        ClientHandle::new(self, process)
    }

    fn require_mode(&self, required: Mode) -> Result<(), ClusterError> {
        if self.cfg.mode != required {
            return Err(ClusterError::WrongMode {
                required,
                actual: self.cfg.mode,
            });
        }
        Ok(())
    }

    /// Index of `process` in the process table: its pid, if one was ever
    /// handed out for it.
    fn process_index(&self, process: ProcessId) -> Result<usize, ClusterError> {
        match usize::try_from(process.0) {
            Ok(idx) if idx < self.processes.len() => Ok(idx),
            _ => Err(ClusterError::UnknownProcess(process)),
        }
    }

    /// The driver's record of `process` (left processes keep theirs).
    fn process(&self, process: ProcessId) -> Result<&ProcessHandle, ClusterError> {
        self.process_index(process).map(|idx| &self.processes[idx])
    }

    fn issue(
        &mut self,
        process: ProcessId,
        kind: BatchOp,
        value: T,
    ) -> Result<OpTicket, ClusterError> {
        let idx = self.process_index(process)?;
        if self.processes[idx].state != ProcessState::Active {
            return Err(ClusterError::ProcessNotActive(process));
        }
        let seq = self.processes[idx].next_seq;
        self.processes[idx].next_seq += 1;
        let id = RequestId::new(process, seq);
        // Requests are generated at the process's middle virtual node; the
        // new own work re-arms its (otherwise demand-driven) wave timeout.
        let node_id = node_of(VirtualId::middle(process));
        self.sim
            .act(node_id, |node, ctx| node.generate_op(id, kind, value, ctx))
            .expect("node registered at build time");
        // Local combining may have completed records right here, and the
        // node is not necessarily visited next round — remember to sweep it.
        self.dirty_nodes.push(node_id);
        self.issued += 1;
        let op_kind = match kind {
            BatchOp::Enqueue => OpKind::Enqueue,
            BatchOp::Dequeue => OpKind::Dequeue,
        };
        Ok(OpTicket::new(self.cluster_id, id, op_kind))
    }

    /// Issues an `ENQUEUE(value)` at `process` and returns its ticket.
    pub(crate) fn enqueue(
        &mut self,
        process: ProcessId,
        value: T,
    ) -> Result<OpTicket, ClusterError> {
        self.require_mode(Mode::Queue)?;
        self.issue(process, BatchOp::Enqueue, value)
    }

    /// Issues a `DEQUEUE()` at `process` and returns its ticket.
    pub(crate) fn dequeue(&mut self, process: ProcessId) -> Result<OpTicket, ClusterError> {
        self.require_mode(Mode::Queue)?;
        self.issue(process, BatchOp::Dequeue, T::default())
    }

    /// Issues a `PUSH(value)` at `process` (stack mode) and returns its
    /// ticket.
    pub(crate) fn push(&mut self, process: ProcessId, value: T) -> Result<OpTicket, ClusterError> {
        self.require_mode(Mode::Stack)?;
        self.issue(process, BatchOp::Enqueue, value)
    }

    /// Issues a `POP()` at `process` (stack mode) and returns its ticket.
    pub(crate) fn pop(&mut self, process: ProcessId) -> Result<OpTicket, ClusterError> {
        self.require_mode(Mode::Stack)?;
        self.issue(process, BatchOp::Dequeue, T::default())
    }

    /// Issues an operation without caring about queue/stack naming (used by
    /// the workload generators, usually through
    /// [`ClientHandle::issue`]).
    pub(crate) fn issue_op(
        &mut self,
        process: ProcessId,
        is_insert: bool,
        value: T,
    ) -> Result<OpTicket, ClusterError> {
        self.issue(
            process,
            if is_insert {
                BatchOp::Enqueue
            } else {
                BatchOp::Dequeue
            },
            value,
        )
    }

    // ------------------------------------------------------------------
    // Resolving tickets.
    // ------------------------------------------------------------------

    /// The structured outcome of a completed operation, or `None` while it
    /// is still in flight.  A ticket issued by a *different* cluster always
    /// resolves to `None` (tickets carry their issuing cluster's identity).
    pub fn outcome(&self, ticket: OpTicket) -> Option<OpOutcome<T>> {
        if ticket.cluster_id() != self.cluster_id {
            return None;
        }
        let at = self.completed_at(ticket.request_id())?;
        Some(OpOutcome::from_record(&self.history.records()[at]))
    }

    /// Index of the history record of a request issued here, once it has
    /// completed.
    fn completed_at(&self, id: RequestId) -> Option<usize> {
        self.process(id.origin).ok()?.history_index(id.seq)
    }

    /// Completion state of a ticket.  A ticket issued by a different
    /// cluster reports [`OpStatus::Foreign`] — it can never become `Done`
    /// here, so polling it further is pointless.
    pub fn status(&self, ticket: OpTicket) -> OpStatus<T> {
        if ticket.cluster_id() != self.cluster_id {
            return OpStatus::Foreign;
        }
        match self.outcome(ticket) {
            Some(outcome) => OpStatus::Done(outcome),
            None => OpStatus::Pending,
        }
    }

    /// Registers an observer on the completion stream; it fires once per
    /// completed operation, in completion order, including operations that
    /// complete within the registering call's round.  All registered
    /// observers see every event.
    pub fn on_complete<F>(&mut self, observer: F)
    where
        F: FnMut(&CompletionEvent<T>) + 'static,
    {
        self.observers.push(Box::new(observer));
    }

    /// Runs rounds until every ticket in `tickets` has completed (or the
    /// budget is exhausted — `max_rounds == 0` means unlimited) and returns
    /// their outcomes in the same order as `tickets`.
    ///
    /// A ticket issued by a different cluster can never complete here and is
    /// rejected up front with [`ClusterError::ForeignTicket`].  Unrelated
    /// in-flight operations keep making progress but are not waited for; use
    /// [`run_until_all_complete`](Self::run_until_all_complete) to drain
    /// everything.
    pub fn run_until_done(
        &mut self,
        tickets: &[OpTicket],
        max_rounds: u64,
    ) -> Result<Vec<OpOutcome<T>>, ClusterError> {
        if let Some(foreign) = tickets.iter().find(|t| t.cluster_id() != self.cluster_id) {
            return Err(ClusterError::ForeignTicket(*foreign));
        }
        // Track only the still-pending set against the completion stream
        // (the history is built from it, in completion order): each round
        // costs O(new completions), not O(tickets) outcome re-polls.
        // Presence check only — `outcome()` would build the payload-bearing
        // `OpOutcome<T>` per ticket just to discard it.  (Foreign tickets
        // were rejected above, so the request id is authoritative.)
        let mut pending: std::collections::HashSet<RequestId> = tickets
            .iter()
            .map(|t| t.request_id())
            .filter(|&id| self.completed_at(id).is_none())
            .collect();
        let mut watermark = self.history.len();
        let start = self.sim.round();
        while !pending.is_empty() {
            if max_rounds > 0 && self.sim.round() - start >= max_rounds {
                return Err(ClusterError::RoundLimitExceeded {
                    limit: max_rounds,
                    open_requests: pending.len(),
                });
            }
            self.run_round();
            for record in &self.history.records()[watermark..] {
                pending.remove(&record.id);
            }
            watermark = self.history.len();
        }
        Ok(tickets
            .iter()
            .map(|t| self.outcome(*t).expect("loop above waited for completion"))
            .collect())
    }

    // ------------------------------------------------------------------
    // Join / leave.
    // ------------------------------------------------------------------

    /// Starts the `JOIN()` of a brand-new process via the given bootstrap
    /// process (defaults to the first active process when `None`).  Returns
    /// the new process id.  The process becomes usable once its three
    /// virtual nodes have been integrated (see [`Self::process_is_active`]).
    ///
    /// Sharded deployments: the joiner's shard is determined by its label
    /// (deterministic, like every other process), and the join must
    /// bootstrap through a member of that shard's cycle — a `bootstrap`
    /// from a different shard is treated as a hint and replaced by the
    /// first active member of the target shard.
    pub fn join(&mut self, bootstrap: Option<ProcessId>) -> Result<ProcessId, ClusterError> {
        let pid = ProcessId(self.processes.len() as u64);
        let shard = self.router.route(pid);
        let same_shard_bootstrap = match bootstrap {
            Some(p) => {
                let handle = self.process(p)?;
                if handle.state != ProcessState::Active {
                    return Err(ClusterError::ProcessNotActive(p));
                }
                (handle.shard == shard).then_some(p)
            }
            None => None,
        };
        let bootstrap = match same_shard_bootstrap {
            Some(p) => p,
            None => self
                .processes
                .iter()
                .position(|h| h.state == ProcessState::Active && h.shard == shard)
                .map(|idx| ProcessId(idx as u64))
                .ok_or(ClusterError::ShardHasNoMembers { shard })?,
        };
        let bootstrap_node = node_of(VirtualId::middle(bootstrap));

        let cfg = &self.shard_cfgs[shard as usize];
        for node in joining_nodes(cfg, shard, pid, bootstrap_node) {
            // Joining nodes live in their shard's lane like everyone else,
            // and ids stay dense: three nodes per process, in pid order.
            let id = node.view().me().node;
            let assigned = self.sim.add_node_in_lane(shard as usize, node);
            debug_assert_eq!(assigned, id);
        }
        self.processes
            .push(ProcessHandle::new(shard, ProcessState::Joining));
        self.transitioning += 1;
        Ok(pid)
    }

    /// Starts the `LEAVE()` of a process.  The process stops generating
    /// requests immediately; its virtual nodes leave once their outstanding
    /// work has drained and the next update phase has run.
    pub fn leave(&mut self, process: ProcessId) -> Result<(), ClusterError> {
        let idx = self.process_index(process)?;
        if self.processes[idx].state != ProcessState::Active {
            return Err(ClusterError::ProcessNotActive(process));
        }
        // The anchor's host process is pinned (documented restriction).
        let nodes = nodes_of(process);
        for node_id in nodes {
            if self
                .sim
                .node(node_id)
                .map(|n| n.is_anchor_node())
                .unwrap_or(false)
            {
                return Err(ClusterError::AnchorCannotLeave(process));
            }
        }
        self.processes[idx].state = ProcessState::Leaving;
        self.transitioning += 1;
        // The leave wish re-arms each node's timeout (it must issue its
        // `LeaveRequest` even while a batch is pending).
        for node_id in nodes {
            self.sim.act(node_id, |node, _| node.request_leave());
        }
        Ok(())
    }

    /// True while `process` may issue requests: the driver considers it an
    /// integrated member and no `leave()` has been requested for it.  This
    /// is exactly the condition the request-issuing methods check — unlike
    /// [`process_is_active`](Self::process_is_active), which only looks at
    /// node integration and stays true for a process whose leave is pending.
    pub fn process_may_issue(&self, process: ProcessId) -> bool {
        self.process(process)
            .is_ok_and(|p| p.state == ProcessState::Active)
    }

    /// True once all three virtual nodes of a process are integrated members.
    pub fn process_is_active(&self, process: ProcessId) -> bool {
        self.process(process).is_ok_and(|_| {
            nodes_of(process).iter().all(|&n| {
                self.sim
                    .node(n)
                    .map(|node| node.is_integrated())
                    .unwrap_or(false)
            })
        })
    }

    /// True once all three virtual nodes of a leaving process have drained.
    pub fn process_has_left(&self, process: ProcessId) -> bool {
        self.process(process).is_ok_and(|_| {
            nodes_of(process)
                .iter()
                .all(|&n| self.sim.node(n).map(|node| node.has_left()).unwrap_or(true))
        })
    }

    // ------------------------------------------------------------------
    // Driving the simulation.
    // ------------------------------------------------------------------

    /// Runs one synchronous round, publishes the round's completions to the
    /// event stream, and refreshes membership states.
    pub fn run_round(&mut self) {
        self.sim.run_round(&mut self.trace_log);
        self.collect_completions();
        self.refresh_process_states();
    }

    /// Runs `rounds` rounds.
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round();
        }
    }

    /// Runs until every issued request has completed, or the round budget is
    /// exhausted (`max_rounds == 0` means unlimited).
    pub fn run_until_all_complete(&mut self, max_rounds: u64) -> Result<u64, ClusterError> {
        let start = self.sim.round();
        while self.open_requests() > 0 {
            if max_rounds > 0 && self.sim.round() - start >= max_rounds {
                return Err(ClusterError::RoundLimitExceeded {
                    limit: max_rounds,
                    open_requests: self.open_requests() as usize,
                });
            }
            self.run_round();
        }
        Ok(self.sim.round() - start)
    }

    /// Runs until the given predicate over the cluster becomes true.
    pub fn run_until<F>(&mut self, mut pred: F, max_rounds: u64) -> Result<u64, ClusterError>
    where
        F: FnMut(&SkueueCluster<T>) -> bool,
    {
        let start = self.sim.round();
        while !pred(self) {
            if max_rounds > 0 && self.sim.round() - start >= max_rounds {
                return Err(ClusterError::RoundLimitExceeded {
                    limit: max_rounds,
                    open_requests: self.open_requests() as usize,
                });
            }
            self.run_round();
        }
        Ok(self.sim.round() - start)
    }

    /// Drains completion records from every node into the single completion
    /// stream: resolve the ticket, append the record to the history, then
    /// fan the event out to the registered observers.  Only nodes visited
    /// this round or touched by the driver are looked at, into one reused
    /// scratch vector, so a quiet round allocates nothing.  A node's own
    /// buffer lives in its work state, which the node drops once it has
    /// nothing in flight, stored or uncollected.
    fn collect_completions(&mut self) {
        let mut drained = std::mem::take(&mut self.completion_scratch);
        debug_assert!(drained.is_empty());
        // Only nodes visited this round (plus driver-touched ones) can have
        // produced records — sweeping all of them would be O(nodes) per
        // round.
        let mut visits = std::mem::take(&mut self.visit_scratch);
        visits.clear();
        visits.extend_from_slice(self.sim.visited_last_round());
        for &idx in &visits {
            self.drain_node(NodeId(idx as u64), &mut drained);
        }
        self.visit_scratch = visits;
        let mut dirty = std::mem::take(&mut self.dirty_nodes);
        for id in dirty.drain(..) {
            self.drain_node(id, &mut drained);
        }
        self.dirty_nodes = dirty;
        for record in drained.drain(..) {
            self.note_completed(record.id);
            let record = if self.observers.is_empty() {
                record
            } else {
                self.publish(record)
            };
            self.history.push(record);
        }
        self.completion_scratch = drained;
    }

    /// Fans a completion out to the observers and hands its record back.
    /// The outcome (one payload clone, for dequeues) is built for them only;
    /// [`Self::outcome`] derives it from the history again on demand.
    fn publish(&mut self, record: skueue_verify::OpRecord<T>) -> skueue_verify::OpRecord<T> {
        let event = CompletionEvent {
            ticket: OpTicket::new(self.cluster_id, record.id, record.kind),
            outcome: OpOutcome::from_record(&record),
            record,
        };
        for observer in &mut self.observers {
            observer(&event);
        }
        event.record
    }

    /// Records that the request's completion record is the next one the
    /// history receives.
    fn note_completed(&mut self, id: RequestId) {
        let at = self.history.len();
        assert!(
            at < NOT_COMPLETED as usize,
            "the history outgrew its 32-bit index"
        );
        // Records only come from nodes the driver created and carry the id
        // the driver issued.
        let completed_at = &mut self.processes[id.origin.0 as usize].completed_at;
        let seq = id.seq as usize;
        if completed_at.len() <= seq {
            completed_at.resize(seq + 1, NOT_COMPLETED);
        }
        debug_assert_eq!(completed_at[seq], NOT_COMPLETED, "{id} completed twice");
        completed_at[seq] = at as u32;
    }

    /// Moves node `id`'s completion records to `drained` and stamps a
    /// `Completed` instant for each.  Completion instants are *driver-side*
    /// events: every completion site (DHT applies, replies, ⊥ dequeues,
    /// locally combined pairs) funnels through the completion sweep, so one
    /// emission point covers them all — and because the sweep order is the
    /// deterministic visit order, the log stays byte-identical across thread
    /// counts.
    fn drain_node(&mut self, id: NodeId, drained: &mut Vec<skueue_verify::OpRecord<T>>) {
        // Most visited nodes completed nothing; they cost a look, not an
        // action.
        if !self.sim.node(id).is_some_and(SkueueNode::has_completed) {
            return;
        }
        let prev = drained.len();
        let shard = self
            .sim
            .act(id, |node, _| {
                node.drain_completed_into(drained);
                node.shard()
            })
            .expect("the node was just looked at");
        if self.cfg.trace_level.is_off() {
            return;
        }
        for record in &drained[prev..] {
            self.trace_log.push(TraceRecord {
                node: id.0,
                shard,
                event: TraceEvent::Completed {
                    op: TraceId::new(record.id.origin.0, record.id.seq),
                    round: record.completed_round,
                },
            });
        }
    }

    fn refresh_process_states(&mut self) {
        // Membership is stable almost always; skip the sweep entirely then.
        if self.transitioning == 0 {
            return;
        }
        let tracing = !self.cfg.trace_level.is_off();
        let round = self.sim.round();
        for (idx, p) in self.processes.iter_mut().enumerate() {
            let pid = ProcessId(idx as u64);
            let nodes = nodes_of(pid);
            match p.state {
                ProcessState::Joining => {
                    let all_active = nodes.iter().all(|&n| {
                        self.sim
                            .node(n)
                            .map(|node| node.is_integrated())
                            .unwrap_or(false)
                    });
                    if all_active {
                        p.state = ProcessState::Active;
                        self.transitioning -= 1;
                        if tracing {
                            self.trace_log.push(TraceRecord {
                                node: nodes[VKind::Middle.index()].0,
                                shard: p.shard,
                                event: TraceEvent::ProcessJoined {
                                    process: pid.0,
                                    round,
                                },
                            });
                        }
                    }
                }
                ProcessState::Leaving => {
                    let all_left = nodes
                        .iter()
                        .all(|&n| self.sim.node(n).map(|node| node.has_left()).unwrap_or(true));
                    if all_left {
                        p.state = ProcessState::Left;
                        self.transitioning -= 1;
                        if tracing {
                            self.trace_log.push(TraceRecord {
                                node: nodes[VKind::Middle.index()].0,
                                shard: p.shard,
                                event: TraceEvent::ProcessLeft {
                                    process: pid.0,
                                    round,
                                },
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Direct access to a node (tests and diagnostics).
    pub fn node(&self, id: NodeId) -> Option<&SkueueNode<T>> {
        self.sim.node(id)
    }

    /// Iterates over all nodes (tests and diagnostics).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &SkueueNode<T>)> {
        self.sim.iter()
    }

    /// Runs `action` on node `id` in its lane's context (see
    /// [`Simulation::act`]): a unit test's way to hand a node a message
    /// with the lane's sample sink in place.
    #[cfg(test)]
    pub(crate) fn act_on<R>(
        &mut self,
        id: NodeId,
        action: impl FnOnce(
            &mut SkueueNode<T>,
            &mut skueue_sim::Context<crate::messages::SkueueMsg<T>>,
        ) -> R,
    ) -> Option<R> {
        self.sim.act(id, action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuildError;
    use crate::ticket::OpOutcome;
    use skueue_verify::{check_queue, check_stack, OpKind};

    fn queue_cluster(n: usize, seed: u64) -> SkueueCluster {
        SkueueCluster::builder()
            .processes(n)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn stack_cluster(n: usize, seed: u64) -> SkueueCluster {
        SkueueCluster::builder()
            .processes(n)
            .stack()
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn single_process_enqueue_dequeue() {
        let mut cluster = queue_cluster(1, 1);
        let p = ProcessId(0);
        let tickets = [
            cluster.enqueue(p, 10).unwrap(),
            cluster.enqueue(p, 20).unwrap(),
            cluster.dequeue(p).unwrap(),
            cluster.dequeue(p).unwrap(),
            cluster.dequeue(p).unwrap(), // ⊥
        ];
        let outcomes = cluster.run_until_done(&tickets, 500).unwrap();
        assert!(matches!(outcomes[0], OpOutcome::Enqueued { .. }));
        assert_eq!(outcomes[2].value(), Some(10), "FIFO: first dequeue gets 10");
        assert_eq!(outcomes[3].value(), Some(20));
        assert!(outcomes[4].is_empty(), "third dequeue must return ⊥");
        assert_eq!(cluster.history().len(), 5);
        check_queue(cluster.history()).assert_consistent();
    }

    #[test]
    fn small_cluster_fifo_order_across_processes() {
        let mut cluster = queue_cluster(4, 7);
        let puts: Vec<_> = (0..8u64)
            .map(|i| cluster.client(ProcessId(i % 4)).enqueue(100 + i).unwrap())
            .collect();
        cluster.run_until_done(&puts, 500).unwrap();
        let gets: Vec<_> = (0..8u64)
            .map(|i| cluster.client(ProcessId((i + 1) % 4)).dequeue().unwrap())
            .collect();
        let outcomes = cluster.run_until_done(&gets, 500).unwrap();
        assert!(outcomes.iter().all(|o| !o.is_empty()));
        assert_eq!(cluster.history().len(), 16);
        check_queue(cluster.history()).assert_consistent();
    }

    #[test]
    fn queue_interleaved_workload_is_consistent() {
        let mut cluster = queue_cluster(6, 3);
        let mut rng = skueue_sim::SimRng::new(99);
        for step in 0..120u64 {
            let p = ProcessId(rng.gen_range(6));
            let mut client = cluster.client(p);
            if rng.gen_bool(0.6) {
                client.enqueue(step).unwrap();
            } else {
                client.dequeue().unwrap();
            }
            if step % 3 == 0 {
                cluster.run_round();
            }
        }
        cluster.run_until_all_complete(2000).unwrap();
        let history = cluster.history();
        assert_eq!(history.len(), 120);
        check_queue(history).assert_consistent();
    }

    #[test]
    fn stack_lifo_semantics() {
        let mut cluster = stack_cluster(3, 5);
        let p = ProcessId(0);
        let a = cluster.push(p, 1).unwrap();
        let b = cluster.push(p, 2).unwrap();
        cluster.run_until_done(&[a, b], 500).unwrap();
        let pop1 = cluster.pop(ProcessId(1)).unwrap();
        let o1 = cluster.run_until_done(&[pop1], 500).unwrap();
        // The first pop must return the element pushed second (value 2).
        assert_eq!(o1[0].value(), Some(2));
        let pop2 = cluster.pop(ProcessId(2)).unwrap();
        let pop3 = cluster.pop(ProcessId(2)).unwrap(); // ⊥
        let rest = cluster.run_until_done(&[pop2, pop3], 500).unwrap();
        assert_eq!(rest[0].value(), Some(1));
        assert!(rest[1].is_empty());
        check_stack(cluster.history()).assert_consistent();
    }

    #[test]
    fn stack_local_combining_completes_instantly() {
        let mut cluster = stack_cluster(2, 11);
        let p = ProcessId(0);
        // Push+pop issued back-to-back at the same process combine locally.
        let push = cluster.push(p, 7).unwrap();
        let pop = cluster.pop(p).unwrap();
        assert_eq!(cluster.open_requests(), 2);
        cluster.run_round();
        assert_eq!(
            cluster.open_requests(),
            0,
            "locally combined pair must complete immediately"
        );
        assert_eq!(cluster.locally_combined(), 2);
        assert!(cluster.status(push).is_done());
        assert_eq!(
            cluster.outcome(pop).unwrap().value(),
            Some(7),
            "the pop's outcome must carry the locally matched element"
        );
        check_stack(cluster.history()).assert_consistent();
    }

    #[test]
    fn fairness_over_many_enqueues() {
        let mut cluster = queue_cluster(8, 13);
        for i in 0..400u64 {
            cluster.client(ProcessId(i % 8)).enqueue(i).unwrap();
            if i % 10 == 0 {
                cluster.run_round();
            }
        }
        cluster.run_until_all_complete(3000).unwrap();
        let stats = cluster.fairness().unwrap();
        assert_eq!(stats.total, 400);
        // With 24 virtual nodes and 400 elements the imbalance should be
        // bounded (consistent hashing fairness, Lemma 4).
        assert!(
            stats.max_over_mean < 6.0,
            "imbalance {:.2}",
            stats.max_over_mean
        );
        check_queue(cluster.history()).assert_consistent();
    }

    /// Once a churn-free load has drained, the nodes holding work state are
    /// exactly the nodes holding a stored element or a parked GET: every
    /// wave, request and completion record went back with its box.
    #[test]
    fn after_a_drained_load_only_nodes_that_store_hold_work() {
        let mut cluster = queue_cluster(40, 23);
        let mut rng = skueue_sim::SimRng::new(5);
        for step in 0..400u64 {
            let mut client = cluster.client(ProcessId(rng.gen_range(40)));
            if rng.gen_bool(0.6) {
                client.enqueue(step).unwrap();
            } else {
                client.dequeue().unwrap();
            }
            if step % 4 == 0 {
                cluster.run_round();
            }
        }
        cluster.run_until_all_complete(5_000).unwrap();
        let mut storing = 0;
        for (id, node) in cluster.nodes() {
            let stores = node.requests().is_some_and(|r| !r.store.is_vacant());
            assert_eq!(
                node.waves.is_some(),
                stores,
                "{id} holds work without storing"
            );
            storing += usize::from(stores);
        }
        assert!(storing > 0, "the load left elements stored");
        let records = cluster.history().records();
        let enqueued = records.iter().filter(|r| r.kind == OpKind::Enqueue);
        let returned = records
            .iter()
            .filter(|r| matches!(r.result, skueue_verify::OpResult::Returned(_)));
        let queued = enqueued.count() - returned.count();
        assert_eq!(cluster.fairness().unwrap().total, queued as u64);
    }

    #[test]
    fn anchor_window_tracks_queue_size() {
        let mut cluster = queue_cluster(3, 17);
        for i in 0..10u64 {
            cluster.client(ProcessId(i % 3)).enqueue(i).unwrap();
        }
        cluster.run_until_all_complete(500).unwrap();
        assert_eq!(cluster.anchor_state().unwrap().size(), 10);
        for i in 0..4u64 {
            cluster.client(ProcessId(i % 3)).dequeue().unwrap();
        }
        cluster.run_until_all_complete(500).unwrap();
        assert_eq!(cluster.anchor_state().unwrap().size(), 6);
    }

    #[test]
    fn join_integrates_new_process() {
        let mut cluster = queue_cluster(3, 21);
        let new_pid = cluster.join(None).unwrap();
        assert!(!cluster.process_is_active(new_pid));
        cluster
            .run_until(|c| c.process_is_active(new_pid), 600)
            .unwrap();
        assert!(cluster.process_is_active(new_pid));
        // The new process can issue requests that complete consistently.
        // (Wait for the enqueue before dequeuing: issued concurrently on an
        // empty queue, a dequeue ordered before the enqueue — returning ⊥ —
        // would be sequentially consistent too, and with demand-driven waves
        // the winner is a race.)
        let put = cluster.client(new_pid).enqueue(42).unwrap();
        cluster.run_until_done(&[put], 600).unwrap();
        let got = cluster.client(ProcessId(0)).dequeue().unwrap();
        let outcomes = cluster.run_until_done(&[got], 600).unwrap();
        assert_eq!(outcomes[0].value(), Some(42));
        check_queue(cluster.history()).assert_consistent();
    }

    #[test]
    fn leave_removes_process_and_preserves_data() {
        let mut cluster = queue_cluster(5, 23);
        for i in 0..30u64 {
            cluster.client(ProcessId(i % 5)).enqueue(i).unwrap();
        }
        cluster.run_until_all_complete(800).unwrap();

        // Find a process that does not host the anchor.
        let victim = (0..5u64)
            .map(ProcessId)
            .find(|&p| cluster.leave(p).is_ok())
            .expect("some non-anchor process must be able to leave");
        cluster
            .run_until(|c| c.process_has_left(victim), 1200)
            .unwrap();

        // All 30 elements must still be retrievable in FIFO order.
        let survivors: Vec<ProcessId> = cluster.active_process_ids();
        assert_eq!(survivors.len(), 4);
        let gets: Vec<_> = (0..30u64)
            .map(|i| {
                cluster
                    .client(survivors[(i % 4) as usize])
                    .dequeue()
                    .unwrap()
            })
            .collect();
        let outcomes = cluster.run_until_done(&gets, 2000).unwrap();
        assert!(
            outcomes.iter().all(|o| !o.is_empty()),
            "all elements must be found after the leave"
        );
        check_queue(cluster.history()).assert_consistent();
    }

    #[test]
    fn anchor_process_cannot_leave() {
        let mut cluster = queue_cluster(3, 31);
        cluster.run_rounds(2);
        let anchor_process = cluster
            .nodes()
            .find(|(_, n)| n.is_anchor_node())
            .map(|(_, n)| n.process())
            .unwrap();
        assert_eq!(
            cluster.leave(anchor_process),
            Err(ClusterError::AnchorCannotLeave(anchor_process))
        );
    }

    #[test]
    fn errors_for_unknown_or_inactive_processes() {
        let mut cluster = queue_cluster(2, 1);
        assert!(matches!(
            cluster.enqueue(ProcessId(99), 1),
            Err(ClusterError::UnknownProcess(_))
        ));
        let joining = cluster.join(None).unwrap();
        assert!(matches!(
            cluster.enqueue(joining, 1),
            Err(ClusterError::ProcessNotActive(_))
        ));
    }

    /// The process table is indexed by pid: pids are dense, so a lookup is a
    /// bounds check — past the end is unknown, a joiner resolves from the
    /// moment it is admitted, and a process that left keeps its entry.
    #[test]
    fn processes_resolve_by_pid_from_join_to_after_leave() {
        let mut cluster = queue_cluster(4, 5);
        let beyond = ProcessId(4);
        assert_eq!(
            cluster.enqueue(beyond, 1),
            Err(ClusterError::UnknownProcess(beyond))
        );
        assert_eq!(
            cluster.leave(beyond),
            Err(ClusterError::UnknownProcess(beyond))
        );
        assert_eq!(
            cluster.join(Some(beyond)),
            Err(ClusterError::UnknownProcess(beyond))
        );
        assert_eq!(cluster.shard_of_process(beyond), None);
        assert!(!cluster.process_may_issue(beyond));
        assert!(!cluster.process_is_active(beyond));
        assert!(!cluster.process_has_left(beyond));
        let huge = ProcessId(u64::MAX);
        assert_eq!(
            cluster.dequeue(huge),
            Err(ClusterError::UnknownProcess(huge))
        );

        // The failed join handed out no pid: the joiner is the next one.
        let joiner = cluster.join(None).unwrap();
        assert_eq!(joiner, beyond);
        assert_eq!(cluster.shard_of_process(joiner), Some(0));
        assert_eq!(
            cluster.enqueue(joiner, 1),
            Err(ClusterError::ProcessNotActive(joiner))
        );
        cluster
            .run_until(|c| c.process_may_issue(joiner), 600)
            .unwrap();
        let put = cluster.enqueue(joiner, 7).unwrap();
        cluster.run_until_done(&[put], 600).unwrap();

        cluster.leave(joiner).unwrap();
        cluster
            .run_until(|c| c.process_has_left(joiner), 1200)
            .unwrap();
        assert_eq!(
            cluster.enqueue(joiner, 2),
            Err(ClusterError::ProcessNotActive(joiner)),
            "a left process is known, just not active"
        );
        assert_eq!(cluster.shard_of_process(joiner), Some(0));
        // Its ticket still resolves, from the history.
        assert!(matches!(
            cluster.outcome(put),
            Some(OpOutcome::Enqueued { .. })
        ));
        let next = cluster.join(None).unwrap();
        assert_eq!(next, ProcessId(5), "pids are never reused");
    }

    #[test]
    fn wrong_mode_is_a_real_error() {
        let mut queue = queue_cluster(2, 1);
        assert!(matches!(
            queue.push(ProcessId(0), 1),
            Err(ClusterError::WrongMode {
                required: Mode::Stack,
                actual: Mode::Queue
            })
        ));
        assert!(queue.pop(ProcessId(0)).is_err());
        let mut stack = stack_cluster(2, 1);
        assert!(matches!(
            stack.dequeue(ProcessId(0)),
            Err(ClusterError::WrongMode {
                required: Mode::Queue,
                actual: Mode::Stack
            })
        ));
    }

    #[test]
    fn outcome_is_none_while_pending_and_resolves_after() {
        let mut cluster = queue_cluster(2, 9);
        let put = cluster.client(ProcessId(0)).enqueue(5).unwrap();
        assert_eq!(cluster.outcome(put), None);
        assert_eq!(cluster.status(put), OpStatus::Pending);
        cluster.run_until_all_complete(500).unwrap();
        assert!(cluster.status(put).is_done());
        assert!(matches!(
            cluster.outcome(put),
            Some(OpOutcome::Enqueued { .. })
        ));
    }

    #[test]
    fn run_until_done_respects_round_budget() {
        let mut cluster = queue_cluster(4, 3);
        let put = cluster.client(ProcessId(0)).enqueue(1).unwrap();
        // One round is never enough for the full aggregate/assign/serve/DHT
        // pipeline.
        let err = cluster.run_until_done(&[put], 1).unwrap_err();
        assert_eq!(
            err,
            ClusterError::RoundLimitExceeded {
                limit: 1,
                open_requests: 1
            }
        );
        // The same ticket resolves once given enough budget.
        let outcomes = cluster.run_until_done(&[put], 500).unwrap();
        assert_eq!(outcomes.len(), 1);
    }

    #[test]
    fn completion_observers_see_every_event() {
        use std::cell::RefCell;
        use std::rc::Rc;

        type SeenEvents = Rc<RefCell<Vec<(OpKind, Option<u64>)>>>;
        let mut cluster = queue_cluster(3, 8);
        let seen: SeenEvents = Rc::default();
        let sink = Rc::clone(&seen);
        cluster.on_complete(move |event| {
            sink.borrow_mut()
                .push((event.record.kind, event.outcome.value()));
        });
        let put = cluster.client(ProcessId(0)).enqueue(77).unwrap();
        let got = cluster.client(ProcessId(1)).dequeue().unwrap();
        cluster.run_until_done(&[put, got], 500).unwrap();
        let events = seen.borrow();
        assert_eq!(events.len(), 2);
        assert!(events.contains(&(OpKind::Enqueue, None)));
        assert!(events.contains(&(OpKind::Dequeue, Some(77))));
        // The history was built from the same stream.
        assert_eq!(cluster.history().len(), events.len());
    }

    #[test]
    fn foreign_tickets_never_resolve() {
        let mut a = queue_cluster(2, 1);
        let mut b = queue_cluster(2, 1);
        // Identical deterministic RequestIds (p0#0) on both clusters.
        let ticket_a = a.client(ProcessId(0)).enqueue(7).unwrap();
        let ticket_b = b.client(ProcessId(0)).enqueue(8).unwrap();
        assert_eq!(ticket_a.request_id(), ticket_b.request_id());
        a.run_until_all_complete(500).unwrap();
        b.run_until_all_complete(500).unwrap();
        // Each cluster resolves only its own ticket.
        assert!(a.outcome(ticket_a).is_some());
        assert!(b.outcome(ticket_b).is_some());
        assert_eq!(a.outcome(ticket_b), None, "foreign ticket must not resolve");
        assert_eq!(b.outcome(ticket_a), None, "foreign ticket must not resolve");
        assert_eq!(b.status(ticket_a), OpStatus::Foreign);
        // Waiting on a foreign ticket is rejected up front instead of
        // spinning against a ticket that can never complete.
        assert_eq!(
            b.run_until_done(&[ticket_a], 0).unwrap_err(),
            ClusterError::ForeignTicket(ticket_a)
        );
    }

    #[test]
    fn builder_is_the_only_constructor_and_validates() {
        // The deprecated `new`/`queue`/`stack` shims are gone; the builder
        // covers both construction paths and rejects bad configurations.
        let mut cluster = SkueueCluster::builder()
            .processes(2)
            .seed(4)
            .build()
            .unwrap();
        cluster.enqueue(ProcessId(0), 1).unwrap();
        cluster.run_until_all_complete(500).unwrap();
        let stack = SkueueCluster::<u64>::builder()
            .processes(2)
            .stack()
            .seed(4)
            .build()
            .unwrap();
        assert!(stack.cfg.is_stack());
        assert_eq!(
            SkueueCluster::<u64>::builder().build().unwrap_err(),
            BuildError::NoProcesses
        );
    }

    #[test]
    fn sharded_cluster_partitions_work_and_stays_consistent() {
        let mut cluster = SkueueCluster::builder()
            .processes(24)
            .shards(4)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(cluster.shards(), 4);
        // Every process's shard matches the deterministic map.
        let map = cluster.shard_map();
        for p in 0..24u64 {
            let pid = ProcessId(p);
            assert_eq!(
                cluster.shard_of_process(pid),
                Some(map.shard_of_process(pid))
            );
        }
        for i in 0..96u64 {
            cluster.client(ProcessId(i % 24)).enqueue(i).unwrap();
        }
        cluster.run_until_all_complete(10_000).unwrap();
        let queued = cluster.shard_anchor_states().into_iter().flatten();
        assert_eq!(queued.map(|a| a.size()).sum::<u64>(), 96);
        for i in 0..48u64 {
            cluster.client(ProcessId(i % 24)).dequeue().unwrap();
        }
        cluster.run_until_all_complete(10_000).unwrap();
        skueue_verify::check_queue_sharded(cluster.history(), &map).assert_consistent();
        // Work actually spread over several anchors.
        let waves = cluster.shard_wave_counts();
        assert_eq!(waves.len(), 4);
        assert!(
            waves.iter().filter(|&&w| w > 0).count() >= 2,
            "expected ≥2 shards to assign waves, got {waves:?}"
        );
        // Elements landed in their enqueuer's shard's position interval.
        for (_, node) in cluster.nodes() {
            for entry in node
                .requests()
                .into_iter()
                .flat_map(|r| r.store.iter_entries())
            {
                assert_eq!(
                    map.shard_of_position(entry.position),
                    node.shard(),
                    "stored element crossed a shard's keyspace interval"
                );
            }
        }
    }

    #[test]
    fn sharded_join_routes_to_the_joiners_shard() {
        let mut cluster = SkueueCluster::builder()
            .processes(16)
            .shards(4)
            .seed(9)
            .build()
            .unwrap();
        let map = cluster.shard_map();
        let new_pid = cluster.join(None).unwrap();
        assert_eq!(
            cluster.shard_of_process(new_pid),
            Some(map.shard_of_process(new_pid))
        );
        cluster
            .run_until(|c| c.process_is_active(new_pid), 2_000)
            .unwrap();
        let put = cluster.client(new_pid).enqueue(7).unwrap();
        cluster.run_until_done(&[put], 2_000).unwrap();
        let got = cluster.client(new_pid).dequeue().unwrap();
        let outcomes = cluster.run_until_done(&[got], 2_000).unwrap();
        assert_eq!(outcomes[0].value(), Some(7));
        skueue_verify::check_queue_sharded(cluster.history(), &map).assert_consistent();
    }

    #[test]
    fn single_shard_run_is_bit_identical_to_unsharded() {
        // `.shards(1)` must reproduce the default configuration's history
        // exactly — same order keys, same rounds, same bytes.
        let run = |sharded: bool| {
            let mut builder = SkueueCluster::builder().processes(6).seed(3);
            if sharded {
                builder = builder.shards(1);
            }
            let mut cluster = builder.build().unwrap();
            for i in 0..30u64 {
                let p = ProcessId(i % 6);
                if i % 3 == 0 {
                    cluster.client(p).dequeue().unwrap();
                } else {
                    cluster.client(p).enqueue(i).unwrap();
                }
                if i % 5 == 0 {
                    cluster.run_round();
                }
            }
            cluster.run_until_all_complete(5_000).unwrap();
            cluster.into_history().into_records()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn run_until_done_with_mixed_resolved_and_pending_tickets() {
        // Exercises the pending-set bookkeeping: some tickets are already
        // done when the wait starts, duplicates are fine, and the wait only
        // tracks what is actually open.
        let mut cluster = queue_cluster(3, 19);
        let early = cluster.client(ProcessId(0)).enqueue(1).unwrap();
        cluster.run_until_all_complete(500).unwrap();
        let late_a = cluster.client(ProcessId(1)).enqueue(2).unwrap();
        let late_b = cluster.client(ProcessId(2)).dequeue().unwrap();
        let outcomes = cluster
            .run_until_done(&[early, late_a, early, late_b], 500)
            .unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(matches!(outcomes[0], OpOutcome::Enqueued { .. }));
        assert_eq!(outcomes[0], outcomes[2]);
        assert!(!outcomes[3].is_empty());
        check_queue(cluster.history()).assert_consistent();
    }
}
