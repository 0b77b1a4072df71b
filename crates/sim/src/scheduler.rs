//! The visit loop, and the round-driven simulation built on it.
//!
//! A [`Lane`] is the only place in the workspace that decides what a visit
//! is.  It hosts a set of nodes over a message fabric (a [`Transport`]) and
//! advances them one **turn** at a time with [`Lane::step`]:
//!
//! 1. the fabric hands over what is due this turn, and each message is
//!    chained to its destination;
//! 2. the turn visits every node that received something and, when the turn
//!    is a *sweep*, every node whose [`Actor::wants_timeout`] holds (between
//!    sweeps, only the nodes a driver action left wanting it);
//! 3. a visit delivers the node's due messages in the order they were sent,
//!    then fires its `TIMEOUT` ([`Actor::on_timeout`]) — every visit ends
//!    with it — and posts what the node sent;
//! 4. the node's wake flag is re-derived from its state.
//!
//! What a message sent in a turn does next is the fabric's business: the
//! simulation's [`crate::SimTransport`] files it under a later round drawn
//! from its delivery model, a daemon's TCP fabric delivers it next turn or
//! writes it to a peer.  The simulation's schedule — the per-visit draw and
//! the shuffled visit order — lives in its fabric too, behind the two hooks
//! [`Transport::visit_begins`] and [`Transport::order_visits`].
//!
//! The host of a lane keeps the id→slot index: a [`Lane`] is one lane
//! hosted on its own (a daemon's), with its own index, and a [`Simulation`]
//! keeps one index for all its lanes.  [`Simulation`] owns the simulation's
//! lanes and the clock.  One call to [`Simulation::run_round`] executes one
//! round of the paper's model, which is `step(true)` on every lane: every
//! round is a sweep.
//!
//! Determinism: for a fixed seed, configuration and sequence of driver calls,
//! a run is bit-for-bit reproducible.  Nodes are processed in index order
//! under the synchronous model and in a seeded shuffled order under every
//! other, and messages due in the same round are delivered in the order they
//! were sent.
//!
//! # Lanes of a simulation
//!
//! A simulation's nodes are partitioned into lanes (one by default).  A lane
//! owns its node slots, its fabric (delivery wheel and an independent RNG
//! stream) and its own scratch buffers, so one round decomposes into
//! independent per-lane turns recombined in fixed lane order:
//!
//! * per-lane metrics are folded into the global view, and the lanes'
//!   trace events appended to the driver's log in lane order,
//! * the records the nodes reported are drained in ascending node-id order
//!   (the classic visit order) under the synchronous model, in
//!   lane-concatenation order under every other
//!   ([`Simulation::drain_reports`]).
//!
//! A simulation lane is closed: an actor may only send to a node of its own
//! lane, and a send that leaves it is a panic naming both ends.  The Skueue
//! cluster maps every anchor shard to its own lane, and shards never talk to
//! each other.  So a round is a fork-join over lanes: with
//! [`Simulation::enable_parallel`] set to `T` threads, lane `l` runs in
//! group `l % T`, the calling thread runs group 0 and a
//! `std::thread::scope` thread each of the others, and the scope's join is
//! the round barrier.  Because a lane's turn depends only on lane-owned
//! state and merges happen in lane order, every thread count is
//! **byte-identical** to one thread for every seed.
//!
//! # Hot-loop design
//!
//! A turn is allocation-free in steady state:
//!
//! * A turn only touches the envelopes that become deliverable in it (the
//!   simulation's wheel never rescans messages due later).
//! * A per-turn **wake list** visits only nodes that have deliverable
//!   messages or want their `TIMEOUT`; every other node costs nothing — the
//!   scan is over bit words, so 64 quiescent nodes cost one word-load.
//! * A node owns **no inbox**: the turn's due messages sit in one lane-level
//!   buffer, chained per destination (see `Inbox`).  Beside its slot a node
//!   costs two `u32` words and no allocation: its lane's slot→id entry and
//!   its entry in the host's id→slot [`SlotIndex`], one for all the host's
//!   lanes; the chains' heads are per-turn scratch, one per woken node.
//!   (The index is as long as the host's highest id: the simulation's ids
//!   are dense, but a daemon hosting a high pid keeps more.)  The inbox,
//!   the wake list and the actor outbox are **scratch buffers** owned by
//!   the lane and reused across turns.
//! * No per-turn sorting: the fabric hands messages over in send order, and
//!   the turn chains them back to front, so a node's chain is in send
//!   order.  (A multi-lane simulation's report drain does sort by node id —
//!   over the round's reports, which arrive as one sorted run per lane, not
//!   the message volume.)

use crate::actor::{Actor, Context};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::ids::NodeId;
use crate::metrics::{Histogram, SimMetrics};
use crate::rng::{splitmix64, SimRng};
use crate::slot_index::{SlotIndex, MAX_LANES};
use crate::transport::{SimTransport, Transport};
use crate::Round;
use skueue_trace::{TraceLog, TraceRecord};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// End-of-chain marker in a lane's [`Inbox`].
const END: u32 = u32::MAX;

/// One due message in a lane's [`Inbox`].
struct Due<M> {
    from: NodeId,
    /// Taken when the message is delivered.
    msg: Option<M>,
}

/// A lane's inbox for the turn currently executing: every due message in
/// the order the fabric handed it over, chained per destination slot.  A
/// chain's head is found by its slot's *rank*, its place among the turn's
/// woken slots in ascending order (see [`Word::before`]), so nothing here is
/// kept per node: all of it is rewritten every turn.
struct Inbox<M> {
    due: Vec<Due<M>>,
    /// Per due message, its destination slot until the turn chains it, then
    /// the destination's next due message ([`END`] for its last).  Kept
    /// apart from `due` so that chaining reads and writes 4 bytes a message.
    links: Vec<u32>,
    /// A woken slot's rank → its first due message of the turn.
    heads: Vec<u32>,
}

/// What a lane keeps of 64 of its slots: bit `i` of a mask is slot
/// `64 × word + i`.
#[derive(Default)]
struct Word {
    /// The slots that want their timeout (see [`Actor::wants_timeout`]),
    /// re-derived after every visit and every driver action.
    timeout: u64,
    /// The slots a driver action left wanting their timeout since the last
    /// turn: visited next turn even if it is no sweep.
    acted: u64,
    /// The slots a message arrived for since the last wake scan, which
    /// moves them to `woken`.
    arrived: u64,
    /// The slots with due messages in the turn being taken.
    woken: u64,
    /// The woken slots in the words before this one, set by the turn's wake
    /// scan: a woken slot's rank is this plus the woken slots below it here.
    before: u32,
}

/// Cumulative per-lane counters, folded into the global [`SimMetrics`] by
/// the simulation's round merge.
#[derive(Debug, Default)]
struct LaneMetrics {
    messages_sent: u64,
    messages_delivered: u64,
    timeouts_fired: u64,
    nodes_visited: u64,
    busy_ns: u64,
    barrier_wait_ns: u64,
    thread_token: u64,
}

static NEXT_THREAD_TOKEN: AtomicU64 = AtomicU64::new(1);

std::thread_local! {
    static THREAD_TOKEN: u64 = NEXT_THREAD_TOKEN.fetch_add(1, Ordering::Relaxed);
}

/// A small process-unique token for the current thread (stable `ThreadId`
/// numbering is unstable in std).  Each lane records the token of the
/// thread that ran its last turn ([`SimMetrics::lane_thread_tokens`]), so
/// tests can check which thread a round ran each lane on.
fn thread_token() -> u64 {
    THREAD_TOKEN.with(|t| *t)
}

/// A set of nodes, the fabric their messages travel on, and the visit loop
/// that advances them one turn at a time (see the module docs): one lane of
/// a host, which keeps the [`SlotIndex`] of all its lanes and hands it to
/// every call that takes a node id.  A lane resolves an id only if its
/// entry names the lane.
struct LaneCore<A: Actor, F> {
    /// The lane's message fabric.  The lane calls it statically — no
    /// hot-loop indirection.
    fabric: F,
    /// This lane's number in its host's index.
    number: u32,
    /// Turns taken so far: the `round` every context of this lane reads.
    turn: Round,
    nodes: Vec<A>,
    /// Lane slot → node id.
    global_ids: Vec<u32>,
    /// The slots' wake state, 64 to a word.
    words: Vec<Word>,
    /// The lane slots visited by the current turn, in visit order.
    wake_order: Vec<usize>,
    inbox: Inbox<A::Msg>,
    /// The context every actor invocation of this lane runs in, re-armed per
    /// visit and per driver action.  It owns the outbox scratch, the lane's
    /// sample sink (one distribution per series, see [`Context::observe`]),
    /// its trace sink (the events not yet drained, see [`Context::trace`])
    /// and its report sink (the records not yet drained, see
    /// [`Context::report`]).
    ctx: Context<A::Msg>,
    metrics: LaneMetrics,
    /// Messages delivered by the most recent turn (round merge input).
    delta_delivered: usize,
    /// Wall time of the most recent turn (merge input for barrier-wait
    /// accounting).
    delta_busy_ns: u64,
}

impl<A: Actor, F: Transport<A::Msg>> LaneCore<A, F> {
    /// An empty lane `number` over `fabric`, at turn 0, with a sample, a
    /// trace and a report sink.
    fn new(fabric: F, number: u32) -> Self {
        let mut ctx = Context::new(NodeId(0), 0);
        ctx.samples = Some(Vec::new());
        ctx.traces = Some(Vec::new());
        LaneCore {
            fabric,
            number,
            turn: 0,
            nodes: Vec::new(),
            global_ids: Vec::new(),
            words: Vec::new(),
            wake_order: Vec::new(),
            inbox: Inbox {
                due: Vec::new(),
                links: Vec::new(),
                heads: Vec::new(),
            },
            ctx,
            metrics: LaneMetrics::default(),
            delta_delivered: 0,
            delta_busy_ns: 0,
        }
    }

    /// Pre-sizes the lane for `nodes` more nodes (capacity hint only).
    /// Node slots are large (the actor is stored inline), so growing the
    /// slot vector by doubling costs a multi-megabyte memcpy per step once
    /// several lanes interleave their allocations; a bulk build that knows
    /// its lane sizes up front reserves once and never reallocates.
    fn reserve_nodes(&mut self, nodes: usize) {
        self.nodes.reserve(nodes);
        self.global_ids.reserve(nodes);
        let words = (self.nodes.len() + nodes).div_ceil(64);
        self.words.reserve(words - self.words.len());
    }

    /// See [`Lane::add_node`]; the node's entry goes to `index`.
    fn add_node(&mut self, index: &mut SlotIndex, id: NodeId, actor: A) {
        let id32 = u32::try_from(id.0)
            .unwrap_or_else(|_| panic!("node id {} does not fit the lane's u32 words", id.0));
        let slot = self.nodes.len();
        index.insert(id, self.number, slot);
        if slot / 64 >= self.words.len() {
            self.words.push(Word::default());
        }
        self.nodes.push(actor);
        self.global_ids.push(id32);
        self.refresh_flag(slot);
    }

    /// Node `id`, if it lives in this lane.
    fn node(&self, index: &SlotIndex, id: NodeId) -> Option<&A> {
        index.slot_in(id, self.number).map(|slot| &self.nodes[slot])
    }

    /// Re-derives slot `slot`'s wake-flag bit from its current state and
    /// returns it.
    fn refresh_flag(&mut self, slot: usize) -> bool {
        let bit = 1u64 << (slot % 64);
        let wants = self.nodes[slot].wants_timeout();
        if wants {
            self.words[slot / 64].timeout |= bit;
        } else {
            self.words[slot / 64].timeout &= !bit;
        }
        wants
    }

    /// A slot's rank, if it is woken: its place among the turn's woken
    /// slots, ascending.
    #[inline]
    fn rank(&self, slot: usize) -> Option<usize> {
        let word = &self.words[slot / 64];
        let bit = 1u64 << (slot % 64);
        (word.woken & bit != 0)
            .then(|| (word.before + (word.woken & (bit - 1)).count_ones()) as usize)
    }

    /// See [`Lane::inject`].
    fn inject(
        &mut self,
        index: &SlotIndex,
        from: NodeId,
        to: NodeId,
        msg: A::Msg,
    ) -> Result<(), SimError> {
        if index.slot_in(to, self.number).is_none() && !self.fabric.is_remote(to) {
            return Err(SimError::UnknownNode(to));
        }
        self.fabric.send(from, to, msg);
        self.metrics.messages_sent += 1;
        Ok(())
    }

    /// Posts everything the invocation that just ended sent from `from`.
    ///
    /// # Panics
    ///
    /// Panics when a destination is neither a node of this lane nor
    /// remote: a simulation lane is closed (each runs its turn without
    /// looking at another), so such a send is a bug in the actor or in the
    /// driver's lane assignment.
    #[inline]
    fn post_outbox(&mut self, index: &SlotIndex, from: NodeId) {
        if self.ctx.outbox.is_empty() {
            return;
        }
        // Moved out while posting (a post needs the whole lane) and back so
        // its capacity is reused.
        let mut outbox = std::mem::take(&mut self.ctx.outbox);
        for (to, msg) in outbox.drain(..) {
            if self.inject(index, from, to, msg).is_err() {
                panic!("{from} sent to {to}, which is not in its lane");
            }
        }
        self.ctx.outbox = outbox;
    }

    /// See [`Lane::act`].
    fn act<R>(
        &mut self,
        index: &SlotIndex,
        id: NodeId,
        action: impl FnOnce(&mut A, &mut Context<A::Msg>) -> R,
    ) -> Option<R> {
        let slot = index.slot_in(id, self.number)?;
        self.ctx.rearm(id, self.turn);
        let result = action(&mut self.nodes[slot], &mut self.ctx);
        self.post_outbox(index, id);
        if self.refresh_flag(slot) {
            self.words[slot / 64].acted |= 1u64 << (slot % 64);
        }
        Some(result)
    }

    /// Delivers a slot's due messages (its chain in the lane's inbox),
    /// fires its timeout, posts everything it sent, and re-derives its wake
    /// flag: the one visit of the workspace.
    #[inline]
    fn visit_node(&mut self, index: &SlotIndex, slot: usize) {
        let self_id = NodeId(self.global_ids[slot].into());
        self.fabric.visit_begins();
        self.ctx.rearm(self_id, self.turn);
        let mut at = self.rank(slot).map_or(END, |rank| self.inbox.heads[rank]);
        let node = &mut self.nodes[slot];
        while at != END {
            let due = &mut self.inbox.due[at as usize];
            at = self.inbox.links[at as usize];
            let msg = due.msg.take().expect("a due message is delivered once");
            node.on_message(due.from, msg, &mut self.ctx);
        }
        node.on_timeout(&mut self.ctx);
        self.metrics.timeouts_fired += 1;
        self.post_outbox(index, self_id);
        self.refresh_flag(slot);
    }

    /// See [`Lane::step`].
    fn step(&mut self, index: &SlotIndex, sweep: bool) -> usize {
        let started = Instant::now();
        self.turn += 1;

        // Move this turn's due envelopes into the lane's inbox, marking
        // each destination slot as one a message arrived for.  The fabric
        // hands them over in send order.
        let LaneCore {
            fabric,
            turn,
            inbox,
            words,
            ..
        } = self;
        inbox.due.clear();
        inbox.links.clear();
        let delivered = fabric.take_due(*turn, |env| {
            let slot = index.slot(env.to);
            words[slot / 64].arrived |= 1u64 << (slot % 64);
            inbox.links.push(slot as u32);
            inbox.due.push(Due {
                from: env.from,
                msg: Some(env.payload),
            });
        });

        // The wake list, over the OR of the bit words: the woken slots, and
        // those that want their timeout — all of them on a sweep, else the
        // ones a driver action left wanting it.  The same scan counts the
        // woken slots before each word, which ranks them for the chains.
        // The fabric may reorder the list before the visits.
        self.wake_order.clear();
        let mut woken = 0;
        for (wi, word) in self.words.iter_mut().enumerate() {
            word.woken = std::mem::take(&mut word.arrived);
            word.before = woken;
            woken += word.woken.count_ones();
            let due = if sweep { !0 } else { word.acted };
            let mut bits = word.woken | (word.timeout & due);
            word.acted = 0;
            while bits != 0 {
                self.wake_order
                    .push(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        // Chain the due messages back to front, each pushed on its
        // destination's chain, so every chain is in send order.
        self.inbox.heads.clear();
        self.inbox.heads.resize(woken as usize, END);
        for at in (0..self.inbox.links.len()).rev() {
            let to = self.inbox.links[at] as usize;
            let rank = self.rank(to).expect("a message's destination is woken");
            self.inbox.links[at] = self.inbox.heads[rank];
            self.inbox.heads[rank] = at as u32;
        }
        let mut wake = std::mem::take(&mut self.wake_order);
        self.fabric.order_visits(&mut wake);
        for &slot in &wake {
            self.visit_node(index, slot);
        }
        self.wake_order = wake;

        self.metrics.nodes_visited += self.wake_order.len() as u64;
        self.metrics.messages_delivered += delivered as u64;
        self.delta_delivered = delivered;
        self.delta_busy_ns = started.elapsed().as_nanos() as u64;
        self.metrics.busy_ns += self.delta_busy_ns;
        self.metrics.thread_token = thread_token();
        delivered
    }

    /// See [`Lane::visited`].
    fn visited(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.wake_order
            .iter()
            .map(|&slot| NodeId(self.global_ids[slot].into()))
    }

    /// See [`Lane::observed`].
    fn observed(&self, series: usize) -> Histogram {
        let sink = self.ctx.samples.as_ref();
        sink.and_then(|s| s.get(series))
            .cloned()
            .unwrap_or_default()
    }

    /// See [`Lane::drain_trace`].
    fn drain_trace(&mut self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.ctx.traces.iter_mut().flat_map(|sink| sink.drain(..))
    }

    /// See [`Lane::drain_reports`].
    fn drain_reports<R: Send + 'static>(&mut self) -> std::vec::Drain<'_, (NodeId, R)> {
        self.ctx.reports().drain(..)
    }
}

/// A lane hosted on its own: a set of nodes, the fabric their messages
/// travel on, the visit loop that advances them one turn at a time (see the
/// module docs) and the lane's own id→slot index.
///
/// A `skueue-node` daemon runs one over its TCP fabric and decides itself
/// when a turn sweeps (its timer deadline).  The simulation runs the same
/// visit loop, one lane per anchor shard over [`SimTransport`], all of its
/// lanes over its one index.  Both report through the lane's [`Context`]:
/// the samples, trace events and records of every node land in the lane's
/// sinks ([`Self::observed`], [`Self::drain_trace`],
/// [`Self::drain_reports`]).
pub struct Lane<A: Actor, F> {
    core: LaneCore<A, F>,
    index: SlotIndex,
}

impl<A: Actor, F: Transport<A::Msg>> Lane<A, F> {
    /// An empty lane over `fabric`, at turn 0, with a sample, a trace and a
    /// report sink.
    pub fn new(fabric: F) -> Self {
        Lane {
            core: LaneCore::new(fabric, 0),
            index: SlotIndex::default(),
        }
    }

    /// The lane's fabric.
    pub fn fabric(&self) -> &F {
        &self.core.fabric
    }

    /// The lane's fabric, mutably: a host hands it the messages that
    /// arrive from outside the lane.
    pub fn fabric_mut(&mut self) -> &mut F {
        &mut self.core.fabric
    }

    /// Starts hosting `actor` as node `id`.  It is visited when a message
    /// for it arrives, or by a sweep if it wants its `TIMEOUT`.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not fit the lane's `u32` words.
    pub fn add_node(&mut self, id: NodeId, actor: A) {
        self.core.add_node(&mut self.index, id, actor);
    }

    /// Node `id`, if it lives in this lane.
    pub fn node(&self, id: NodeId) -> Option<&A> {
        self.core.node(&self.index, id)
    }

    /// The lane's nodes, in the order they were added.
    pub fn nodes(&self) -> impl Iterator<Item = &A> {
        self.core.nodes.iter()
    }

    /// Whether some node of the lane wants its `TIMEOUT`: a host that
    /// sweeps on a timer arms it then.
    pub fn wants_timeout(&self) -> bool {
        self.core.words.iter().any(|word| word.timeout != 0)
    }

    /// Hands a message from outside the lane to its fabric, as if a node of
    /// the lane had sent it.  `to` must be a node of the lane or one the
    /// fabric reaches elsewhere ([`Transport::is_remote`]).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg) -> Result<(), SimError> {
        self.core.inject(&self.index, from, to, msg)
    }

    /// Runs a driver-side action of node `id` in the lane's [`Context`] and
    /// returns its result (`None` if `id` is not in this lane).  Such
    /// actions are *local* operations of the emulating process — generating
    /// a queue request, asking a node to leave — not messages of the
    /// paper's model.  What the action sends is posted,
    /// what it records goes to the lane's sinks, and the node's wake flag is
    /// re-derived: a node the action leaves wanting its `TIMEOUT` is visited
    /// in the next turn, sweep or not.
    pub fn act<R>(
        &mut self,
        id: NodeId,
        action: impl FnOnce(&mut A, &mut Context<A::Msg>) -> R,
    ) -> Option<R> {
        self.core.act(&self.index, id, action)
    }

    /// Takes one turn (see the module docs) and returns the number of
    /// messages it delivered.  `sweep` visits every node that wants its
    /// `TIMEOUT`; without it only the nodes that received something, and
    /// those a driver action left wanting it, are visited.
    ///
    /// # Panics
    ///
    /// Panics when a node sends to a node that is neither in the lane nor
    /// remote ([`Transport::is_remote`]), naming both.
    pub fn step(&mut self, sweep: bool) -> usize {
        self.core.step(&self.index, sweep)
    }

    /// The nodes the most recent [`Self::step`] visited, in visit order.
    pub fn visited(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.core.visited()
    }

    /// Every sample the lane's nodes reported under `series` (see
    /// [`Context::observe`]); empty for a series nobody reported to.
    pub fn observed(&self, series: usize) -> Histogram {
        self.core.observed(series)
    }

    /// Takes the trace events the lane's nodes recorded since the last
    /// call, in the order they were recorded (see [`Context::trace`]).
    pub fn drain_trace(&mut self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.core.drain_trace()
    }

    /// Takes the records the lane's nodes reported since the last call, in
    /// the order they were reported — driver actions and visits alike —
    /// each with its reporting node (see [`Context::report`]).
    ///
    /// # Panics
    ///
    /// Panics when the nodes reported records of another type.
    pub fn drain_reports<R: Send + 'static>(&mut self) -> std::vec::Drain<'_, (NodeId, R)> {
        self.core.drain_reports()
    }
}

/// A lane of the simulation: its fabric is the deterministic delivery wheel.
type SimLane<A> = LaneCore<A, SimTransport<<A as Actor>::Msg>>;

/// A deterministic discrete-round message-passing simulation.
///
/// A driver drives it round by round ([`Self::run_round`]), acts on nodes
/// between rounds ([`Self::act`]) and collects what the actors finished
/// from the lanes' report sinks ([`Self::drain_reports`]); it never needs
/// to know which nodes a round visited.
///
/// Node ids are dense: the next id is the number of nodes so far.  One
/// `SlotIndex` holds every id's lane and slot, one `u32` an id, whatever
/// the lane count: a driver call reads an id's lane from its entry, and a
/// delivered message its slot.
pub struct Simulation<A: Actor> {
    config: SimConfig,
    lanes: Vec<SimLane<A>>,
    /// Where each node lives, for every lane.
    index: SlotIndex,
    round: Round,
    metrics: SimMetrics,
    /// The thread count asked for ([`Self::enable_parallel`]), uncapped:
    /// [`Self::parallel_threads`] caps it at the lane count.
    threads: usize,
}

/// Lane `lane` of a simulation configured by `config`.  Lane 0's RNG stream
/// is seeded exactly like the pre-lane global stream, so single-lane runs
/// are bit-identical to the historical scheduler.
fn sim_lane<A: Actor>(config: &SimConfig, lane: usize) -> SimLane<A> {
    let seed = if lane == 0 {
        config.seed
    } else {
        // Derived, well-separated stream for every additional lane.
        let mut s = config
            .seed
            .wrapping_add((lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        splitmix64(&mut s)
    };
    let number = u32::try_from(lane).expect("at most MAX_LANES lanes");
    LaneCore::new(
        SimTransport::new(config.delivery, SimRng::new(seed)),
        number,
    )
}

impl<A: Actor> Simulation<A> {
    /// Creates an empty simulation from a configuration (one lane; see
    /// [`Self::configure_lanes`]).
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        let lane = sim_lane(&config, 0);
        Ok(Simulation {
            config,
            lanes: vec![lane],
            index: SlotIndex::default(),
            round: 0,
            metrics: SimMetrics::default(),
            threads: 1,
        })
    }

    /// Repartitions the (still empty) simulation into `count` lanes.  Lane 0
    /// keeps the historical RNG stream; every further lane gets its own
    /// derived stream.  Must be called before any node is added; at most
    /// 256 lanes, the lanes one `SlotIndex` tells apart.
    pub fn configure_lanes(&mut self, count: usize) -> Result<(), SimError> {
        if count == 0 {
            return Err(SimError::InvalidConfig(
                "a simulation needs at least one lane".into(),
            ));
        }
        if count > MAX_LANES {
            return Err(SimError::InvalidConfig(format!(
                "{count} lanes, at most {MAX_LANES}"
            )));
        }
        if self.node_count() > 0 {
            return Err(SimError::InvalidConfig(
                "lanes must be configured before nodes are added".into(),
            ));
        }
        self.lanes = (0..count).map(|l| sim_lane(&self.config, l)).collect();
        Ok(())
    }

    /// Adds a node to lane 0 and returns its id. Ids are dense and assigned
    /// in insertion order, independent of the lane.
    pub fn add_node(&mut self, actor: A) -> NodeId {
        self.add_node_in_lane(0, actor)
    }

    /// Pre-sizes a lane for `nodes` more nodes (a capacity hint, not a
    /// limit).  Bulk builders that know the final lane population call this
    /// once per lane before the `add_node_in_lane` loop; actor slots are
    /// large, so skipping the doubling reallocations saves a multi-megabyte
    /// memcpy per growth step on big clusters.  The index is reserved for
    /// every lane's room so far.
    pub fn reserve_nodes_in_lane(&mut self, lane: usize, nodes: usize) {
        assert!(
            lane < self.lanes.len(),
            "lane {lane} out of range ({} lanes)",
            self.lanes.len()
        );
        self.lanes[lane].reserve_nodes(nodes);
        let room = self
            .lanes
            .iter()
            .map(|l| l.nodes.capacity() - l.nodes.len());
        self.index.reserve(room.sum());
    }

    /// Adds a node to the given lane and returns its (global) id.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range (driver bug — the lane layout is
    /// fixed at configuration time).
    pub fn add_node_in_lane(&mut self, lane: usize, actor: A) -> NodeId {
        assert!(
            lane < self.lanes.len(),
            "lane {lane} out of range ({} lanes)",
            self.lanes.len()
        );
        let id = NodeId(self.node_count());
        self.lanes[lane].add_node(&mut self.index, id, actor);
        id
    }

    /// Nodes added so far, over all lanes: the ids are dense.
    fn node_count(&self) -> u64 {
        self.index.len() as u64
    }

    /// Current round (0 before the first call to [`Self::run_round`]).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Runs every later round on (up to) `threads` threads, the calling
    /// one included; values `<= 1` keep every lane on the calling thread.
    /// May be changed between rounds; results are byte-identical either
    /// way.
    pub fn enable_parallel(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Number of threads a round runs on: the count asked for, capped at
    /// the lane count (so 1 for a single lane).
    pub fn parallel_threads(&self) -> usize {
        self.threads.clamp(1, self.lanes.len())
    }

    /// Immutable access to an actor.
    pub fn node(&self, id: NodeId) -> Option<&A> {
        let lane = self.index.lane_of(id)?;
        self.lanes[lane].node(&self.index, id)
    }

    /// Iterates over `(id, actor)` pairs in global id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &A)> {
        (0..self.node_count()).map(|i| (NodeId(i), self.node(NodeId(i)).expect("ids are dense")))
    }

    /// Runs a driver-side action of node `id` in its lane's [`Context`]
    /// ([`Lane::act`]) and returns the action's result (`None` for an
    /// unknown id).  What the action sends is posted exactly as
    /// [`Self::inject`] posts a message, so an action that sends nothing
    /// draws nothing from the delay RNG; an action that changes
    /// [`Actor::wants_timeout`] takes effect next round.
    pub fn act<R>(
        &mut self,
        id: NodeId,
        action: impl FnOnce(&mut A, &mut Context<A::Msg>) -> R,
    ) -> Option<R> {
        let lane = &mut self.lanes[self.index.lane_of(id)?];
        let sent = lane.metrics.messages_sent;
        let result = lane.act(&self.index, id, action);
        if lane.metrics.messages_sent != sent {
            self.fold_counters();
        }
        result
    }

    /// Injects a message from the outside world (delivered like any other
    /// message, in the next round at the earliest).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg) -> Result<(), SimError> {
        let lane = self.index.lane_of(to).ok_or(SimError::UnknownNode(to))?;
        self.lanes[lane].inject(&self.index, from, to, msg)?;
        self.fold_counters();
        Ok(())
    }

    /// Substrate metrics collected so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The distribution of every sample the actors reported under `series`
    /// (see [`Context::observe`]), summed over the lanes; empty for a series
    /// nobody reported to.
    pub fn observed(&self, series: usize) -> Histogram {
        let mut merged = Histogram::default();
        for lane in &self.lanes {
            merged.merge(&lane.observed(series));
        }
        merged
    }

    /// Takes the records the actors reported since the last call (see
    /// [`Context::report`]), each with its reporting node.  One lane hands
    /// them over in report order: a driver action's when it ran, then the
    /// round's in visit order.  Several lanes hand them over by ascending
    /// node id, a node's own in report order, under the synchronous model,
    /// and lane after lane under every other, whose visits are shuffled.
    /// Either way the order is the same on every thread count.
    ///
    /// # Panics
    ///
    /// Panics when the actors reported records of another type.
    pub fn drain_reports<R: Send + 'static>(&mut self) -> std::vec::Drain<'_, (NodeId, R)> {
        let (first, rest) = self.lanes.split_first_mut().expect("at least one lane");
        if !rest.is_empty() {
            // Lane 0's sink is the merge buffer.  A lane's visits report in
            // ascending id order, so the sort merges one sorted run per
            // lane; it is stable, so a node's records keep their order.
            let merged = first.ctx.reports::<R>();
            for lane in rest {
                merged.extend(lane.drain_reports::<R>());
            }
            if self.config.delivery.is_synchronous() {
                merged.sort_by_key(|&(node, _)| node);
            }
        }
        first.drain_reports()
    }

    /// Executes one round — a sweeping [`Lane::step`] on every lane —,
    /// appends the trace events the lanes recorded since the previous round
    /// (driver actions included) to `trace` in lane order, and returns the
    /// number of messages delivered in the round.
    ///
    /// The round is a fork-join over [`Self::parallel_threads`] = `T`
    /// groups: lane `l` is in group `l % T`, groups `1…T−1` each run on a
    /// scoped thread while the calling thread runs group 0, and the round
    /// ends when all have.  With `T = 1` nothing is spawned.  A lane that
    /// panics makes this call panic with the lane's own payload.
    pub fn run_round(&mut self, trace: &mut TraceLog) -> usize {
        self.round += 1;
        let threads = self.parallel_threads();
        let started = Instant::now();
        let mut groups: Vec<Vec<&mut SimLane<A>>> = (0..threads).map(|_| Vec::new()).collect();
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            groups[l % threads].push(lane);
        }
        let index = &self.index;
        let step_group = |group: Vec<&mut SimLane<A>>| {
            for lane in group {
                lane.step(index, true);
            }
        };
        let mut groups = groups.into_iter();
        let driver_group = groups.next().expect("at least one thread");
        std::thread::scope(|scope| {
            let spawned: Vec<_> = groups
                .map(|group| scope.spawn(move || step_group(group)))
                .collect();
            step_group(driver_group);
            for handle in spawned {
                // Joined here: `scope` itself would replace the payload
                // with one of its own.
                if let Err(payload) = handle.join() {
                    resume_unwind(payload);
                }
            }
        });
        let round_wall_ns = started.elapsed().as_nanos() as u64;
        self.merge_round(round_wall_ns, threads, trace)
    }

    /// Re-derives the cumulative counters of [`Self::metrics`] from the
    /// lanes' own (the delays from the lanes' fabrics).
    fn fold_counters(&mut self) {
        let m = &mut self.metrics;
        m.messages_sent = 0;
        m.messages_delivered = 0;
        m.timeouts_fired = 0;
        m.nodes_visited = 0;
        m.delays = Histogram::default();
        for lane in &self.lanes {
            m.messages_sent += lane.metrics.messages_sent;
            m.messages_delivered += lane.metrics.messages_delivered;
            m.timeouts_fired += lane.metrics.timeouts_fired;
            m.nodes_visited += lane.metrics.nodes_visited;
            m.delays.merge(&lane.fabric.delays);
        }
    }

    /// Recombines the per-lane round outputs — metrics, trace events — in
    /// fixed lane order and returns the round's delivered-message count.
    /// `threads` is the number of groups the round ran in.
    fn merge_round(&mut self, round_wall_ns: u64, threads: usize, trace: &mut TraceLog) -> usize {
        // Barrier wait: a group's thread idles for the round's wall time
        // less its lanes' busy time; that idle time is split evenly over
        // the group's lanes.  One thread never waits.
        if threads > 1 {
            for g in 0..threads {
                let group = self.lanes[g..].iter().step_by(threads);
                let members = group.len() as u64;
                let busy: u64 = group.map(|lane| lane.delta_busy_ns).sum();
                let share = round_wall_ns.saturating_sub(busy) / members;
                for lane in self.lanes[g..].iter_mut().step_by(threads) {
                    lane.metrics.barrier_wait_ns += share;
                }
            }
        }

        // Metrics: recompute the aggregate counters from the per-lane
        // cumulative ones, record the round's deliveries, and surface the
        // per-lane timing columns.
        self.fold_counters();
        let lane_count = self.lanes.len();
        let m = &mut self.metrics;
        m.rounds = self.round;
        m.lane_busy_ns.resize(lane_count, 0);
        m.lane_barrier_wait_ns.resize(lane_count, 0);
        m.lane_thread_tokens.resize(lane_count, 0);
        let mut delivered_this_round = 0usize;
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            delivered_this_round += lane.delta_delivered;
            m.lane_busy_ns[l] = lane.metrics.busy_ns;
            m.lane_barrier_wait_ns[l] = lane.metrics.barrier_wait_ns;
            m.lane_thread_tokens[l] = lane.metrics.thread_token;
            for record in lane.drain_trace() {
                trace.push(record);
            }
        }
        m.per_round_deliveries.record(delivered_this_round as u64);
        delivered_this_round
    }

    /// Runs exactly `rounds` rounds, dropping their trace events (a driver
    /// that keeps them calls [`Self::run_round`]).
    pub fn run_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.run_round(&mut TraceLog::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::DeliveryModel;
    use skueue_trace::TraceEvent;

    /// A node that forwards a token `hops` more times along a ring.
    #[derive(Debug)]
    struct Ring {
        n: u64,
        received: Vec<u64>,
        timeouts: u64,
    }

    #[derive(Debug, Clone)]
    struct Token {
        remaining: u64,
    }

    impl Actor for Ring {
        type Msg = Token;

        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<Token>) {
            self.received.push(msg.remaining);
            if msg.remaining > 0 {
                let next = NodeId((ctx.self_id().0 + 1) % self.n);
                ctx.send(
                    next,
                    Token {
                        remaining: msg.remaining - 1,
                    },
                );
            }
        }

        fn on_timeout(&mut self, _ctx: &mut Context<Token>) {
            self.timeouts += 1;
        }
    }

    fn ring_sim(n: u64, config: SimConfig) -> Simulation<Ring> {
        let mut sim = Simulation::new(config).unwrap();
        for _ in 0..n {
            sim.add_node(Ring {
                n,
                received: Vec::new(),
                timeouts: 0,
            });
        }
        sim
    }

    /// Same ring, but nodes dealt round-robin over `lanes` lanes (every hop
    /// would cross a lane boundary).
    fn laned_ring_sim(n: u64, lanes: usize, config: SimConfig) -> Simulation<Ring> {
        let mut sim = Simulation::new(config).unwrap();
        sim.configure_lanes(lanes).unwrap();
        for i in 0..n {
            sim.add_node_in_lane(
                i as usize % lanes,
                Ring {
                    n,
                    received: Vec::new(),
                    timeouts: 0,
                },
            );
        }
        sim
    }

    /// Uniform delays in `[1, max_delay]` (and so a shuffled visit order).
    fn async_config(seed: u64, max_delay: u64) -> SimConfig {
        SimConfig {
            seed,
            delivery: DeliveryModel::uniform(max_delay),
        }
    }

    /// Runs rounds until every message sent has been delivered.
    fn drain<A: Actor>(sim: &mut Simulation<A>, max_rounds: u64) {
        let start = sim.round();
        while sim.metrics().messages_delivered < sim.metrics().messages_sent {
            assert!(sim.round() - start < max_rounds, "still in flight");
            sim.run_round(&mut TraceLog::new());
        }
    }

    #[test]
    fn empty_simulation_starts_at_round_zero_on_one_thread() {
        let sim: Simulation<Ring> = Simulation::new(SimConfig::synchronous(0)).unwrap();
        assert_eq!(sim.round(), 0);
        assert_eq!(sim.parallel_threads(), 1);
    }

    #[test]
    fn token_travels_one_hop_per_round_in_sync_mode() {
        let mut sim = ring_sim(5, SimConfig::synchronous(1));
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 4 })
            .unwrap();
        // 5 deliveries: remaining 4,3,2,1,0 — one per round.
        for expected_round in 1..=5u64 {
            let delivered = sim.run_round(&mut TraceLog::new());
            assert_eq!(delivered, 1, "round {expected_round}");
        }
        assert_eq!(
            sim.run_round(&mut TraceLog::new()),
            0,
            "nothing left in flight"
        );
        assert_eq!(sim.round(), 6);
        // Node 4 got remaining=0, node 0 got remaining=4.
        assert_eq!(sim.node(NodeId(0)).unwrap().received, vec![4]);
        assert_eq!(sim.node(NodeId(4)).unwrap().received, vec![0]);
    }

    #[test]
    fn timeouts_fire_once_per_round_per_active_node() {
        let mut sim = ring_sim(3, SimConfig::synchronous(2));
        sim.run_rounds(10);
        for (_, node) in sim.iter() {
            assert_eq!(node.timeouts, 10);
        }
        assert_eq!(sim.metrics().timeouts_fired, 30);
    }

    #[test]
    fn inject_to_unknown_node_fails() {
        let mut sim = ring_sim(2, SimConfig::synchronous(0));
        assert!(matches!(
            sim.inject(NodeId(0), NodeId(99), Token { remaining: 0 }),
            Err(SimError::UnknownNode(_))
        ));
    }

    #[test]
    fn async_mode_delivers_everything_exactly_once() {
        let mut sim = ring_sim(6, async_config(9, 7));
        for i in 0..6u64 {
            sim.inject(NodeId(i), NodeId(i), Token { remaining: 9 })
                .unwrap();
        }
        drain(&mut sim, 10_000);
        let total: usize = sim.iter().map(|(_, n)| n.received.len()).sum();
        assert_eq!(total, 60, "each of the 6 tokens must make 10 hops");
        assert_eq!(
            sim.metrics().messages_sent,
            sim.metrics().messages_delivered
        );
    }

    #[test]
    fn async_mode_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = ring_sim(5, async_config(seed, 5));
            sim.inject(NodeId(0), NodeId(0), Token { remaining: 20 })
                .unwrap();
            drain(&mut sim, 100_000);
            (
                sim.round(),
                sim.iter()
                    .map(|(_, n)| n.received.clone())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(77), run(77));
        // Different seeds almost surely produce a different schedule length.
        let (r1, _) = run(1);
        let (r2, _) = run(2);
        // They may coincide, but the received sequences should rarely be equal;
        // just assert both runs completed.
        assert!(r1 > 0 && r2 > 0);
    }

    #[test]
    fn metrics_track_messages_and_delays() {
        let mut sim = ring_sim(3, SimConfig::synchronous(4));
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 5 })
            .unwrap();
        drain(&mut sim, 100);
        let m = sim.metrics();
        assert_eq!(m.messages_sent, 6);
        assert_eq!(m.messages_delivered, 6);
        assert_eq!(m.delays.max(), Some(1));
        assert_eq!(m.lane_busy_ns.len(), 1);
        assert_eq!(m.lane_barrier_wait_ns, vec![0]);
    }

    /// Records every delivery as `(sender, payload)` and reports the
    /// payload to the lane's sample sink.
    #[derive(Debug, Default)]
    struct Recorder {
        got: Vec<(u64, u32)>,
    }

    impl Actor for Recorder {
        type Msg = u32;

        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.got.push((from.0, msg));
            ctx.observe(1, msg as u64);
        }

        fn on_timeout(&mut self, _ctx: &mut Context<u32>) {}
    }

    /// The lane-level inbox chains a round's due messages per destination:
    /// each node must see exactly its own, in send order, however they
    /// interleave in the due bucket — in index visit order (synchronous) and
    /// in shuffled visit order (`uniform(1)`: every delay is still one
    /// round), round after round (chains of an earlier round must not leak).
    #[test]
    fn inbox_delivers_each_destination_its_messages_in_send_order() {
        for delivery in [DeliveryModel::Synchronous, DeliveryModel::uniform(1)] {
            let config = SimConfig { seed: 3, delivery };
            let mut sim: Simulation<Recorder> = Simulation::new(config).unwrap();
            for _ in 0..70 {
                sim.add_node(Recorder::default());
            }
            let mut expected: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 70];
            let mut payload = 0u32;
            for round in 0..3u64 {
                // Destinations 0, 65 (second flag word) and a moving one,
                // interleaved; node 7 is never addressed.
                for i in 0..12u64 {
                    let to = [0, 65, 20 + round][(i % 3) as usize];
                    let from = (i * 5 + round) % 70;
                    sim.inject(NodeId(from), NodeId(to), payload).unwrap();
                    expected[to as usize].push((from, payload));
                    payload += 1;
                }
                assert_eq!(sim.run_round(&mut TraceLog::new()), 12);
            }
            for (i, want) in expected.iter().enumerate() {
                assert_eq!(&sim.node(NodeId(i as u64)).unwrap().got, want, "node {i}");
            }
            // Every payload 0..36 was reported once under series 1; nobody
            // reported under series 0 or 2.
            let seen = sim.observed(1);
            assert_eq!(seen.count(), 36);
            assert_eq!(seen.sum(), (0..36).sum::<u128>());
            assert_eq!(sim.observed(0).count(), 0);
            assert_eq!(sim.observed(2).count(), 0);
        }
    }

    #[test]
    fn adversarial_delivery_still_delivers_all() {
        let mut config = SimConfig::synchronous(11);
        config.delivery = DeliveryModel::Adversarial {
            straggle_prob: 0.5,
            straggle_delay: 40,
        };
        let mut sim = ring_sim(4, config);
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 30 })
            .unwrap();
        drain(&mut sim, 100_000);
        let total: usize = sim.iter().map(|(_, n)| n.received.len()).sum();
        assert_eq!(total, 31);
    }

    /// An actor that only wants timeouts while `armed` is set; receiving a
    /// message arms it once.
    #[derive(Debug, Default)]
    struct Sleeper {
        armed: bool,
        timeouts: u64,
        received: u64,
    }

    impl Actor for Sleeper {
        type Msg = ();

        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<()>) {
            self.received += 1;
            self.armed = true;
        }

        fn on_timeout(&mut self, _ctx: &mut Context<()>) {
            self.timeouts += 1;
            self.armed = false;
        }

        fn wants_timeout(&self) -> bool {
            self.armed
        }
    }

    #[test]
    fn wants_timeout_false_skips_visits_but_not_deliveries() {
        let mut sim: Simulation<Sleeper> = Simulation::new(SimConfig::synchronous(1)).unwrap();
        let a = sim.add_node(Sleeper::default());
        let b = sim.add_node(Sleeper::default());
        sim.run_rounds(5);
        // Nobody is armed: no timeouts fire, no nodes are visited.
        assert_eq!(sim.metrics().timeouts_fired, 0);
        assert_eq!(sim.metrics().nodes_visited, 0);
        // A message still wakes the destination, whose next timeout then
        // fires exactly once (on_timeout disarms again).
        sim.inject(a, b, ()).unwrap();
        sim.run_rounds(3);
        assert_eq!(sim.node(b).unwrap().received, 1);
        assert_eq!(sim.node(b).unwrap().timeouts, 1);
        assert_eq!(sim.node(a).unwrap().timeouts, 0);
    }

    #[test]
    fn an_action_that_arms_the_timeout_gets_its_node_visited_next_round() {
        let mut sim: Simulation<Sleeper> = Simulation::new(SimConfig::synchronous(2)).unwrap();
        let a = sim.add_node(Sleeper::default());
        sim.add_node(Sleeper::default());
        sim.run_rounds(2);
        assert_eq!(sim.metrics().nodes_visited, 0);
        assert_eq!(sim.act(a, |node, _| node.armed = true), Some(()));
        sim.run_rounds(1);
        assert_eq!(sim.metrics().nodes_visited, 1);
        assert_eq!(sim.node(a).unwrap().timeouts, 1);
        assert_eq!(sim.act(NodeId(9), |node, _| node.armed), None);
    }

    /// Between sweeps a turn visits the nodes that received something and
    /// those an action woke; a node that already wanted its timeout waits
    /// for the sweep.
    #[test]
    fn a_turn_without_a_sweep_visits_the_woken_and_the_acted() {
        let fabric = SimTransport::new(DeliveryModel::Synchronous, SimRng::new(1));
        let mut lane: Lane<Sleeper, _> = Lane::new(fabric);
        let (armed, acted, fed) = (NodeId(0), NodeId(1), NodeId(2));
        let sleeper = |armed| Sleeper {
            armed,
            ..Sleeper::default()
        };
        lane.add_node(armed, sleeper(true));
        lane.add_node(acted, sleeper(false));
        lane.add_node(fed, sleeper(false));
        lane.act(acted, |node, _| node.armed = true);
        lane.inject(armed, fed, ()).unwrap();
        assert_eq!(lane.step(false), 1);
        assert_eq!(lane.visited().collect::<Vec<_>>(), [acted, fed]);
        assert!(lane.wants_timeout());
        lane.step(true);
        assert_eq!(lane.visited().collect::<Vec<_>>(), [armed]);
        assert!(!lane.wants_timeout());
        let stray = lane.inject(fed, NodeId(7), ());
        assert_eq!(stray, Err(SimError::UnknownNode(NodeId(7))));
    }

    /// What a run is made of, for byte-identity comparisons.
    fn ring_fingerprint(sim: &Simulation<Ring>) -> (u64, Vec<Vec<u64>>, u64, u64, u64) {
        (
            sim.round(),
            sim.iter().map(|(_, n)| n.received.clone()).collect(),
            sim.metrics().messages_sent,
            sim.metrics().nodes_visited,
            sim.metrics().delays.sum() as u64,
        )
    }

    #[test]
    fn an_action_that_sends_is_delivered_like_an_inject() {
        let mut injected = ring_sim(6, async_config(5, 6));
        let mut acted = ring_sim(6, async_config(5, 6));
        injected
            .inject(NodeId(2), NodeId(3), Token { remaining: 7 })
            .unwrap();
        let sent = acted.act(NodeId(2), |_, ctx| {
            ctx.send(NodeId(3), Token { remaining: 7 });
        });
        assert_eq!(sent, Some(()));
        assert_eq!(acted.metrics().messages_sent, 1);
        assert_eq!(ring_fingerprint(&injected), ring_fingerprint(&acted));
        drain(&mut injected, 10_000);
        drain(&mut acted, 10_000);
        assert_eq!(ring_fingerprint(&injected), ring_fingerprint(&acted));
    }

    #[test]
    fn an_action_that_sends_nothing_leaves_an_asynchronous_run_byte_identical() {
        let mut plain = ring_sim(7, async_config(11, 4));
        let mut acted = ring_sim(7, async_config(11, 4));
        for sim in [&mut plain, &mut acted] {
            sim.inject(NodeId(0), NodeId(0), Token { remaining: 40 })
                .unwrap();
        }
        let mut trace = TraceLog::new();
        while plain.metrics().messages_delivered < plain.metrics().messages_sent {
            plain.run_round(&mut trace);
            let target = NodeId(acted.round() % 7);
            let seen = acted.act(target, |node, ctx| (node.timeouts, ctx.round()));
            assert_eq!(seen.map(|(_, round)| round), Some(acted.round()));
            acted.run_round(&mut trace);
            assert_eq!(ring_fingerprint(&plain), ring_fingerprint(&acted));
        }
        assert_eq!(ring_fingerprint(&plain), ring_fingerprint(&acted));
        assert!(trace.is_empty());
    }

    /// Reports its round at every timeout.
    struct Clock;

    impl Actor for Clock {
        type Msg = ();

        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<()>) {}

        fn on_timeout(&mut self, ctx: &mut Context<()>) {
            let round = ctx.round();
            ctx.report(round);
        }
    }

    /// `n` clocks dealt round-robin over `lanes` lanes.  A clock sends
    /// nothing, so the model only decides the visit order: ascending under
    /// [`DeliveryModel::Synchronous`], shuffled under `uniform(1)`.
    fn clock_sim(n: u64, lanes: usize, delivery: DeliveryModel) -> Simulation<Clock> {
        let mut sim = Simulation::new(SimConfig { seed: 5, delivery }).unwrap();
        sim.configure_lanes(lanes).unwrap();
        for i in 0..n {
            sim.add_node_in_lane(i as usize % lanes, Clock);
        }
        sim
    }

    /// The reporting nodes of everything drained, in drain order.
    fn drained_ids(sim: &mut Simulation<Clock>) -> Vec<u64> {
        sim.drain_reports::<u64>().map(|(node, _)| node.0).collect()
    }

    /// One lane hands its reports over in visit order, synchronous (ids
    /// ascending) and asynchronous (shuffled).
    #[test]
    fn one_lane_reports_in_visit_order() {
        for delivery in [DeliveryModel::Synchronous, DeliveryModel::uniform(1)] {
            let mut sim = clock_sim(9, 1, delivery);
            let mut unsorted = 0;
            for _ in 0..5 {
                sim.run_rounds(1);
                let visited: Vec<u64> = sim.lanes[0].visited().map(|id| id.0).collect();
                let ids = drained_ids(&mut sim);
                assert_eq!(ids, visited, "{delivery:?}");
                unsorted += usize::from(!ids.is_sorted());
            }
            assert_eq!(
                unsorted > 0,
                !delivery.is_synchronous(),
                "{delivery:?}: shuffled visits happened in id order"
            );
        }
    }

    /// Several lanes hand their reports over by ascending node id, whatever
    /// lane each node is in.
    #[test]
    fn several_lanes_report_by_ascending_node_id() {
        let mut sim = clock_sim(7, 3, DeliveryModel::Synchronous);
        sim.run_rounds(1);
        assert_eq!(drained_ids(&mut sim), [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(drained_ids(&mut sim), [0u64; 0], "a drain takes everything");
    }

    /// Under an asynchronous model, whose visits are shuffled, several lanes
    /// hand their reports over lane after lane, each in its visit order.
    #[test]
    fn shuffled_lanes_report_lane_after_lane() {
        let mut sim = clock_sim(11, 3, DeliveryModel::uniform(1));
        for _ in 0..3 {
            sim.run_rounds(1);
            let visited: Vec<u64> = (sim.lanes.iter())
                .flat_map(|lane| lane.visited().map(|id| id.0))
                .collect();
            assert_eq!(drained_ids(&mut sim), visited);
        }
    }

    /// The delivery model decides the visit order: on one lane and on
    /// three, every turn visits a lane's nodes in ascending slot order
    /// exactly when the model is synchronous; under every other model some
    /// turn shuffles them.
    #[test]
    fn visits_ascend_exactly_under_the_synchronous_model() {
        let models = [
            DeliveryModel::Synchronous,
            DeliveryModel::uniform(1),
            DeliveryModel::uniform(3),
            DeliveryModel::Adversarial {
                straggle_prob: 0.5,
                straggle_delay: 4,
            },
        ];
        for delivery in models {
            for lanes in [1, 3] {
                let mut sim = clock_sim(12, lanes, delivery);
                let mut ascending = true;
                for _ in 0..8 {
                    sim.run_rounds(1);
                    for lane in &sim.lanes {
                        let visited: Vec<NodeId> = lane.visited().collect();
                        assert_eq!(visited.len(), 12 / lanes, "{delivery:?}");
                        ascending &= visited.is_sorted();
                    }
                }
                assert_eq!(
                    ascending,
                    delivery.is_synchronous(),
                    "{delivery:?}, {lanes} lanes"
                );
            }
        }
    }

    /// A driver action's report waits in its lane's sink and is drained
    /// with the next round's: ahead of them on one lane, at its node's
    /// place on several.
    #[test]
    fn a_driver_actions_report_is_drained_with_the_next_round() {
        for lanes in [1, 3] {
            let mut sim = clock_sim(6, lanes, DeliveryModel::Synchronous);
            sim.run_rounds(1);
            sim.drain_reports::<u64>().for_each(drop);
            sim.act(NodeId(4), |_, ctx| ctx.report(u64::MAX));
            sim.run_rounds(1);
            let drained: Vec<(u64, u64)> = (sim.drain_reports::<u64>())
                .map(|(node, round)| (node.0, round))
                .collect();
            let mut expected: Vec<(u64, u64)> = (0..6).map(|node| (node, 2)).collect();
            let at = if lanes == 1 { 0 } else { 4 };
            expected.insert(at, (4, u64::MAX));
            assert_eq!(drained, expected, "{lanes} lanes");
        }
    }

    #[test]
    fn lanes_must_be_configured_before_nodes() {
        let mut sim = ring_sim(2, SimConfig::synchronous(0));
        assert!(matches!(
            sim.configure_lanes(2),
            Err(SimError::InvalidConfig(_))
        ));
        let mut empty: Simulation<Ring> = Simulation::new(SimConfig::synchronous(0)).unwrap();
        assert!(matches!(
            empty.configure_lanes(0),
            Err(SimError::InvalidConfig(_))
        ));
        empty.configure_lanes(3).unwrap();
    }

    /// One index tells 256 lanes apart: a simulation takes that many, and
    /// refuses one more.
    #[test]
    fn at_most_256_lanes_are_configured() {
        let mut sim: Simulation<Recorder> = Simulation::new(SimConfig::synchronous(0)).unwrap();
        assert!(matches!(
            sim.configure_lanes(257),
            Err(SimError::InvalidConfig(_))
        ));
        sim.configure_lanes(256).unwrap();
        let last = sim.add_node_in_lane(255, Recorder::default());
        assert!(sim.node(last).is_some());
    }

    /// The driver calls find a node of any lane through the one index: every
    /// node of a three-lane simulation is read, acted on and reached by an
    /// inject, which its own lane delivers.
    #[test]
    fn driver_calls_resolve_ids_of_every_lane() {
        let mut sim = Simulation::new(SimConfig::synchronous(4)).unwrap();
        sim.configure_lanes(3).unwrap();
        let lanes = [1, 0, 2, 2, 1, 0, 0];
        for (i, &lane) in lanes.iter().enumerate() {
            sim.add_node_in_lane(lane, Recorder::default());
            assert_eq!(sim.index.lane_of(NodeId(i as u64)), Some(lane));
        }
        for i in 0..lanes.len() as u64 {
            let id = NodeId(i);
            assert_eq!(sim.node(id).map(|node| node.got.len()), Some(0));
            let acted = sim.act(id, |node, ctx| {
                node.got.push((i, 0));
                ctx.self_id()
            });
            assert_eq!(acted, Some(id));
            sim.inject(NodeId(99), id, i as u32 + 1).unwrap();
        }
        sim.run_rounds(1);
        for (i, &lane) in lanes.iter().enumerate() {
            let id = NodeId(i as u64);
            let expected = [(i as u64, 0), (99, i as u32 + 1)];
            assert_eq!(sim.node(id).unwrap().got, expected, "node {i}");
            assert!(sim.lanes[lane].visited().any(|seen| seen == id));
        }
        let unknown = NodeId(lanes.len() as u64);
        assert!(sim.node(unknown).is_none());
        assert_eq!(sim.act(unknown, |_, _| ()), None);
        assert_eq!(
            sim.inject(unknown, unknown, 0),
            Err(SimError::UnknownNode(unknown))
        );
    }

    /// Lanes are closed: the token's first hop is from node 0 (lane 0) to
    /// node 1 (lane 1), and the panic names both.
    #[test]
    #[should_panic(expected = "n0 sent to n1, which is not in its lane")]
    fn a_send_that_leaves_its_lane_panics_naming_both_ends() {
        let mut sim = laned_ring_sim(6, 3, SimConfig::synchronous(7));
        sim.inject(NodeId(0), NodeId(0), Token { remaining: 11 })
            .unwrap();
        sim.run_rounds(1);
    }

    /// A lane-local pinger: node `i` messages its own lane's partner every
    /// round (all traffic intra-lane, like Skueue shards), and traces and
    /// reports every ping it receives.
    #[derive(Debug)]
    struct LanePinger {
        partner: NodeId,
        lane: u32,
        received: u64,
    }

    impl Actor for LanePinger {
        type Msg = u64;

        fn on_message(&mut self, _from: NodeId, msg: u64, ctx: &mut Context<u64>) {
            self.received += msg;
            let round = ctx.round();
            ctx.trace(self.lane, TraceEvent::WaveAssigned { wave: msg, round });
            ctx.report(round);
        }

        fn on_timeout(&mut self, ctx: &mut Context<u64>) {
            ctx.send(self.partner, 1);
        }
    }

    fn pinger_sim(pairs: usize, lanes: usize, threads: usize, seed: u64) -> Simulation<LanePinger> {
        let mut sim = Simulation::new(SimConfig::synchronous(seed)).unwrap();
        sim.configure_lanes(lanes).unwrap();
        for p in 0..pairs {
            let lane = p % lanes;
            let a = NodeId((2 * p) as u64);
            let b = NodeId((2 * p + 1) as u64);
            sim.add_node_in_lane(
                lane,
                LanePinger {
                    partner: b,
                    lane: lane as u32,
                    received: 0,
                },
            );
            sim.add_node_in_lane(
                lane,
                LanePinger {
                    partner: a,
                    lane: lane as u32,
                    received: 0,
                },
            );
        }
        sim.enable_parallel(threads);
        sim
    }

    fn pinger_fingerprint(sim: &Simulation<LanePinger>) -> (Vec<u64>, u64, u64, u64) {
        (
            sim.iter().map(|(_, n)| n.received).collect(),
            sim.metrics().messages_sent,
            sim.metrics().messages_delivered,
            sim.metrics().nodes_visited,
        )
    }

    #[test]
    fn parallel_backend_is_bit_identical_to_single_thread() {
        for &threads in &[1usize, 2, 4] {
            let mut reference = pinger_sim(8, 4, 1, 42);
            let mut parallel = pinger_sim(8, 4, threads, 42);
            assert_eq!(parallel.parallel_threads(), threads.clamp(1, 4));
            for _ in 0..50 {
                let d_ref = reference.run_round(&mut TraceLog::new());
                let d_par = parallel.run_round(&mut TraceLog::new());
                assert_eq!(d_ref, d_par, "per-round delivery counts must match");
                assert!(reference
                    .drain_reports::<u64>()
                    .eq(parallel.drain_reports::<u64>()));
            }
            assert_eq!(
                pinger_fingerprint(&reference),
                pinger_fingerprint(&parallel),
                "threads={threads}"
            );
        }
    }

    /// Every lane's events reach the log, and in lane order: the log is the
    /// same whether the lanes ran on one thread or on four.
    #[test]
    fn lanes_hand_their_trace_events_over_identically_on_any_thread_count() {
        let traced = |threads: usize| {
            let mut sim = pinger_sim(8, 4, threads, 42);
            let mut log = TraceLog::new();
            for round in 0..20u64 {
                // A driver action's event rides along with the next round's.
                sim.act(NodeId(round % 16), |_, ctx| {
                    ctx.trace(
                        99,
                        TraceEvent::PhaseEnter {
                            phase: round,
                            round,
                        },
                    )
                });
                sim.run_round(&mut log);
            }
            let delivered = sim.metrics().messages_delivered;
            (log.fingerprint(), log.shard_event_counts(), delivered)
        };
        let (fingerprint, counts, delivered) = traced(1);
        assert_eq!(traced(4), (fingerprint, counts.clone(), delivered));
        // 2 pairs per lane, each node receiving one ping per round after the
        // first: 4 × 19 events per lane, plus the 20 driver-action events.
        assert_eq!(counts, [(0, 76), (1, 76), (2, 76), (3, 76), (99, 20)]);
        assert_eq!(delivered, 4 * 76);
    }

    #[test]
    fn thread_tokens_are_stable_per_thread_and_distinct_across() {
        let here = thread_token();
        assert_eq!(here, thread_token(), "token must be stable per thread");
        let there = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(here, there, "distinct threads must get distinct tokens");
    }

    /// Lane `l` runs in group `l % T`, group 0 on the driver's thread and
    /// every group on a thread of its own — with lanes left over when `T`
    /// does not divide the lane count.
    #[test]
    fn lane_l_runs_on_thread_l_mod_t_and_group_0_on_the_driver() {
        for threads in 1..=6 {
            let mut sim = pinger_sim(10, 5, threads, 1);
            let t = sim.parallel_threads();
            assert_eq!(t, threads.min(5));
            sim.run_rounds(3);
            let tokens = &sim.metrics().lane_thread_tokens;
            assert_eq!(tokens.len(), 5);
            for (l, &token) in tokens.iter().enumerate() {
                assert_eq!(token, tokens[l % t], "T={t}: lane {l}");
            }
            assert_eq!(tokens[0], thread_token(), "T={t}: group 0 is the driver's");
            let distinct: std::collections::HashSet<u64> = tokens[..t].iter().copied().collect();
            assert_eq!(
                distinct.len(),
                t,
                "T={t}: one thread per group, got {tokens:?}"
            );
            assert!(sim.metrics().lane_busy_ns.iter().all(|&ns| ns > 0));
        }
    }

    /// Fires on its first timeout if armed.
    struct Fuse {
        armed: bool,
    }

    impl Actor for Fuse {
        type Msg = ();

        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<()>) {}

        fn on_timeout(&mut self, _ctx: &mut Context<()>) {
            if self.armed {
                panic!("lane blew up");
            }
        }
    }

    #[test]
    fn a_panicking_lane_panics_the_driver_with_its_own_payload() {
        // Driven from a helper thread, so that a round that never ends
        // fails this test instead of hanging the suite.
        let (verdict_tx, verdict_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut sim = Simulation::new(SimConfig::synchronous(3)).unwrap();
            sim.configure_lanes(2).unwrap();
            sim.add_node_in_lane(0, Fuse { armed: false });
            sim.add_node_in_lane(1, Fuse { armed: true });
            sim.enable_parallel(2);
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run_round(&mut TraceLog::new())
            }));
            let message = ran
                .err()
                .and_then(|panic| panic.downcast_ref::<&str>().map(|m| m.to_string()));
            let _ = verdict_tx.send(message);
        });
        let message = verdict_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a round with a panicked lane must end");
        assert_eq!(
            message.as_deref(),
            Some("lane blew up"),
            "the driver must re-raise the lane's own panic"
        );
    }

    #[test]
    fn parallel_backend_can_be_toggled_between_rounds() {
        let mut reference = pinger_sim(4, 2, 1, 9);
        let mut toggled = pinger_sim(4, 2, 1, 9);
        for i in 0..30 {
            toggled.enable_parallel(if i % 2 == 0 { 2 } else { 1 });
            reference.run_round(&mut TraceLog::new());
            toggled.run_round(&mut TraceLog::new());
        }
        assert_eq!(pinger_fingerprint(&reference), pinger_fingerprint(&toggled));
    }

    /// A node that counts received payloads and asserts delivery-time bounds.
    #[derive(Debug)]
    struct BoundsChecker {
        n: u64,
        max_delay: u64,
        received: u64,
    }

    #[derive(Debug, Clone)]
    struct Hop {
        sent_at: u64,
        remaining: u64,
    }

    impl Actor for BoundsChecker {
        type Msg = Hop;

        fn on_message(&mut self, _from: NodeId, msg: Hop, ctx: &mut Context<Hop>) {
            let now = ctx.round();
            assert!(
                now > msg.sent_at,
                "delivered at {now}, in its send round {}",
                msg.sent_at
            );
            assert!(
                now <= msg.sent_at + self.max_delay,
                "delivered at {now}, sent at {} with max delay {}",
                msg.sent_at,
                self.max_delay
            );
            self.received += 1;
            if msg.remaining > 0 {
                let next = NodeId((ctx.self_id().0 + 1) % self.n);
                ctx.send(
                    next,
                    Hop {
                        sent_at: now,
                        remaining: msg.remaining - 1,
                    },
                );
            }
        }

        fn on_timeout(&mut self, _ctx: &mut Context<Hop>) {}
    }

    /// Every message of a [`Courier`] run, by sequence number: `(from, to)`.
    type SendLog = std::sync::Arc<std::sync::Mutex<Vec<(NodeId, NodeId)>>>;

    /// Sends a numbered message from `from` to `to` and logs it.
    fn send_logged(log: &SendLog, from: NodeId, to: NodeId, ctx: &mut Context<u32>) {
        let mut log = log.lock().unwrap();
        ctx.send(to, log.len() as u32);
        log.push((from, to));
    }

    /// Records every delivery as `(round, from, seq)` and, while the run's
    /// send budget lasts, answers some of them with a send to a random peer
    /// of its lane; a delivery may also arm its timeout, which sends once
    /// more.
    struct Courier {
        peers: Vec<NodeId>,
        log: SendLog,
        budget: usize,
        rng: SimRng,
        armed: bool,
        got: Vec<(Round, NodeId, u32)>,
    }

    impl Courier {
        fn maybe_send(&mut self, ctx: &mut Context<u32>) {
            if self.log.lock().unwrap().len() < self.budget && self.rng.gen_bool(0.5) {
                let to = self.peers[self.rng.choose_index(self.peers.len())];
                send_logged(&self.log, ctx.self_id(), to, ctx);
            }
        }
    }

    impl Actor for Courier {
        type Msg = u32;

        fn on_message(&mut self, from: NodeId, seq: u32, ctx: &mut Context<u32>) {
            self.got.push((ctx.round(), from, seq));
            self.maybe_send(ctx);
            self.armed |= self.rng.gen_bool(0.3);
        }

        fn on_timeout(&mut self, ctx: &mut Context<u32>) {
            if std::mem::take(&mut self.armed) {
                self.maybe_send(ctx);
            }
        }

        fn wants_timeout(&self) -> bool {
            self.armed
        }
    }

    /// What a [`Courier`] run leaves.
    struct CourierRun {
        /// Per node, what it received.
        got: Vec<Vec<(Round, NodeId, u32)>>,
        /// Every message sent, by sequence number: `(from, to)`.
        log: Vec<(NodeId, NodeId)>,
        /// Every lane's visit order, turn after turn.
        visits: Vec<Vec<NodeId>>,
    }

    /// One [`Courier`] run: `n` nodes dealt over `lanes` lanes in a seeded
    /// order, `turns` rounds of driver sends and actions, then drained.
    /// Checks that every turn visits exactly the nodes it owes a visit, and
    /// in ascending order under the synchronous model (every other shuffles).
    fn courier_run(
        seed: u64,
        n: u64,
        lanes: usize,
        delivery: DeliveryModel,
        turns: u64,
    ) -> CourierRun {
        let mut sim = Simulation::new(SimConfig { seed, delivery }).unwrap();
        sim.configure_lanes(lanes).unwrap();
        let mut rng = SimRng::new(seed ^ 0xC0C0);
        let lane_of: Vec<usize> = (0..n).map(|_| rng.choose_index(lanes)).collect();
        let log = SendLog::default();
        for (i, &lane) in lane_of.iter().enumerate() {
            let peers = (0..n)
                .filter(|&j| lane_of[j as usize] == lane)
                .map(NodeId)
                .collect();
            let id = sim.add_node_in_lane(
                lane,
                Courier {
                    peers,
                    log: log.clone(),
                    budget: 400,
                    rng: SimRng::new(seed.wrapping_add(i as u64)),
                    armed: false,
                    got: Vec::new(),
                },
            );
            assert_eq!(id, NodeId(i as u64));
        }
        let mut visits = Vec::new();
        let mut turn = 0;
        while turn < turns || sim.metrics().messages_delivered < sim.metrics().messages_sent {
            assert!(turn < 10_000, "still in flight");
            if turn < turns {
                for _ in 0..rng.gen_range(6) {
                    let from = NodeId(rng.gen_range(n));
                    let lane = lane_of[from.index()];
                    let peers: Vec<u64> = (0..n).filter(|&j| lane_of[j as usize] == lane).collect();
                    let to = NodeId(peers[rng.choose_index(peers.len())]);
                    let arm = rng.gen_bool(0.3);
                    sim.act(from, |node, ctx| {
                        send_logged(&log, from, to, ctx);
                        node.armed |= arm;
                    });
                }
            }
            // The visits a turn owes: every node that wants its timeout
            // now, and every node a message reaches in it.
            let wanting: Vec<bool> = sim.iter().map(|(_, node)| node.armed).collect();
            let got_before: Vec<usize> = sim.iter().map(|(_, node)| node.got.len()).collect();
            sim.run_round(&mut TraceLog::new());
            turn += 1;
            for (l, lane) in sim.lanes.iter().enumerate() {
                let visited: Vec<NodeId> = lane.visited().collect();
                let owed: Vec<NodeId> = (0..n)
                    .filter(|&i| lane_of[i as usize] == l)
                    .map(NodeId)
                    .filter(|&id| {
                        let node = sim.node(id).unwrap();
                        wanting[id.index()] || node.got.len() > got_before[id.index()]
                    })
                    .collect();
                if delivery.is_synchronous() {
                    assert_eq!(visited, owed, "turn {turn}, lane {l}: ascending");
                } else {
                    let mut sorted = visited.clone();
                    sorted.sort();
                    assert_eq!(sorted, owed, "turn {turn}, lane {l}");
                }
                visits.push(visited);
            }
        }
        let got = sim.iter().map(|(_, node)| node.got.clone()).collect();
        let log = log.lock().unwrap().clone();
        CourierRun { got, log, visits }
    }

    proptest::proptest! {
        /// Random sends among a simulation's nodes — by driver actions and
        /// by the nodes' own visits — over several turns: every message is
        /// delivered exactly once, to the node it was sent to, from its
        /// sender; a destination receives a turn's messages in send order
        /// (when every delay is one round, all of them: exactly the
        /// reference model's per-destination send order); a turn visits the
        /// owed nodes ascending under the synchronous model, and in a seeded
        /// shuffle of them that a rerun repeats under `uniform(max_delay)`
        /// (`uniform(1)`: one-round delays, shuffled visits).
        #[test]
        fn prop_every_destination_receives_its_messages_once_in_send_order(
            seed in proptest::any::<u64>(),
            n in 2u64..10,
            lanes in 1usize..4,
            asynchronous in proptest::any::<bool>(),
            max_delay in 1u64..4,
            turns in 1u64..12,
        ) {
            let delivery = if asynchronous {
                DeliveryModel::uniform(max_delay)
            } else {
                DeliveryModel::Synchronous
            };
            let CourierRun { got, log, visits } = courier_run(seed, n, lanes, delivery, turns);
            // The reference model: each destination's messages in send order.
            let mut sent_to: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
            for (seq, &(_, to)) in log.iter().enumerate() {
                sent_to[to.index()].push(seq as u32);
            }
            let mut delivered = vec![0u32; log.len()];
            for (i, received) in got.iter().enumerate() {
                for &(_, from, seq) in received {
                    delivered[seq as usize] += 1;
                    proptest::prop_assert_eq!(log[seq as usize], (from, NodeId(i as u64)));
                }
                for pair in received.windows(2) {
                    let ((r0, _, s0), (r1, _, s1)) = (pair[0], pair[1]);
                    proptest::prop_assert!(r0 < r1 || (r0 == r1 && s0 < s1), "node {} got {:?}", i, received);
                }
                if !asynchronous || max_delay == 1 {
                    let seqs: Vec<u32> = received.iter().map(|&(_, _, seq)| seq).collect();
                    proptest::prop_assert_eq!(&seqs, &sent_to[i]);
                }
            }
            proptest::prop_assert!(delivered.iter().all(|&times| times == 1));
            let rerun = courier_run(seed, n, lanes, delivery, turns);
            proptest::prop_assert_eq!(rerun.visits, visits);
        }
    }

    /// Ids are dense across lanes: a simulation iterates every id once, in
    /// ascending order, each with the actor added under it.
    #[test]
    fn iter_yields_every_id_once_in_ascending_order_across_lanes() {
        let mut sim = Simulation::new(SimConfig::synchronous(3)).unwrap();
        sim.configure_lanes(3).unwrap();
        let lanes = [2, 0, 0, 1, 2, 2, 1, 0, 1, 2, 0, 1, 1];
        for (i, &lane) in lanes.iter().enumerate() {
            let id = sim.add_node_in_lane(
                lane,
                Recorder {
                    got: vec![(i as u64, lane as u32)],
                },
            );
            assert_eq!(id, NodeId(i as u64));
        }
        let seen: Vec<(u64, u64, u32)> = (sim.iter())
            .map(|(id, node)| (id.0, node.got[0].0, node.got[0].1))
            .collect();
        let expected: Vec<(u64, u64, u32)> = (lanes.iter().enumerate())
            .map(|(i, &lane)| (i as u64, i as u64, lane as u32))
            .collect();
        assert_eq!(seen, expected);
        assert!(sim.node(NodeId(lanes.len() as u64)).is_none());
    }

    /// A lane keeps ids in `u32` words: a wider id is refused, not
    /// truncated.
    #[test]
    #[should_panic(expected = "node id 4294967296 does not fit the lane's u32 words")]
    fn a_lane_refuses_an_id_beyond_its_u32_words() {
        let fabric = SimTransport::new(DeliveryModel::Synchronous, SimRng::new(1));
        let mut lane: Lane<Recorder, _> = Lane::new(fabric);
        lane.add_node(NodeId(u64::from(u32::MAX) + 1), Recorder::default());
    }

    proptest::proptest! {
        /// The bucketed delivery wheel never delivers a message in its send
        /// round, never after the model's maximum delay, and never drops or
        /// duplicates one.
        #[test]
        fn prop_bucketed_delivery_respects_bounds_and_loses_nothing(
            seed in proptest::any::<u64>(),
            n in 2u64..12,
            max_delay in 1u64..8,
            hops in 1u64..30,
            injections in 1u64..5,
        ) {
            let mut sim = Simulation::new(async_config(seed, max_delay)).unwrap();
            for _ in 0..n {
                sim.add_node(BoundsChecker {
                    n,
                    max_delay,
                    received: 0,
                });
            }
            for i in 0..injections {
                sim.inject(
                    NodeId(i % n),
                    NodeId(i % n),
                    Hop { sent_at: 0, remaining: hops },
                )
                .unwrap();
            }
            drain(&mut sim, 1_000_000);
            let total: u64 = (0..n).map(|i| sim.node(NodeId(i)).unwrap().received).sum();
            // Every injected token makes hops + 1 deliveries; nothing lost,
            // nothing duplicated.
            proptest::prop_assert_eq!(total, injections * (hops + 1));
            proptest::prop_assert_eq!(
                sim.metrics().messages_sent,
                sim.metrics().messages_delivered
            );
        }
    }
}
