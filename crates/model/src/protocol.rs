//! Small-n abstraction of the Skueue protocol core.
//!
//! The model keeps exactly the machinery the membership races of PR 3 live
//! in — join/leave/update phase state (`UpdateFlag`/`UpdateAck`/
//! `UpdateOver{phase}`, `pending_churn`, absorber hand-over), the credited
//! aggregate→assign→serve wave cycle, and anchor re-anchoring — and abstracts
//! everything else away:
//!
//! * the aggregation tree is a star rooted at the anchor (depth does not
//!   matter for the phase races: they are about *stale* phase messages and
//!   drained hand-overs, both of which exist on a one-hop tree);
//! * the DHT is folded into the anchor: the queue is a FIFO of abstract
//!   elements held where the positions are assigned, so Definition 1 can be
//!   checked on the abstract history with the real `skueue-verify` checkers;
//! * rounds are gone: the network is a multiset of in-flight messages and an
//!   adversarial scheduler (the explorer) picks the delivery order, bounded
//!   per channel by [`Scenario::reorder_window`] (`1` = FIFO channels).
//!
//! One global [`ModelState`] plus the enabled-[`Action`] relation implement
//! [`crate::machine::Machine`], which the exhaustive explorer walks.

use crate::machine::Machine;
use skueue_sim::ids::{ProcessId, RequestId};
use skueue_verify::{OpKind, OpRecord, OpResult, OrderKey};
use std::collections::VecDeque;
use std::fmt;

/// Hard cap on model nodes (the bounded scenarios use ≤ 5).
pub(crate) const MAX_NODES: usize = 5;

/// An abstract request issued at a model node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    /// Issuing node.
    pub node: u8,
    /// Per-node sequence number (issue order).
    pub seq: u8,
    /// `true` = enqueue, `false` = dequeue.
    pub is_enqueue: bool,
    /// Payload value (globally unique per enqueue; 0 for dequeues).
    pub value: u8,
}

/// Outcome of an assigned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsResult {
    /// The enqueue was assigned a position.
    Enqueued,
    /// The dequeue returned the element enqueued by `(node, seq)`.
    Returned(u8, u8),
    /// The dequeue returned `⊥`.
    Empty,
}

/// A completed abstract request: the model's history record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Completed {
    /// The request.
    pub req: Req,
    /// Its outcome.
    pub result: AbsResult,
    /// Position in the anchor's total order `≺`.
    pub order: u16,
    /// Payload carried back (enqueued value for matched dequeues, 0 for `⊥`).
    pub value: u8,
}

/// The anchor's abstract state (travels in [`Msg::AnchorTransfer`] during
/// re-anchoring, like the real `AnchorState`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AbsAnchor {
    /// Next free position in `≺` (the real `counter`; starts at 1).
    pub counter: u16,
    /// FIFO of stored elements as `(node, seq, value)` of their enqueue.
    pub queue: VecDeque<(u8, u8, u8)>,
    /// Update phases started so far (the real `phases_started`).
    pub phases_started: u8,
    /// Join/leave events folded into batches but not yet handled by a phase.
    pub pending_churn: u8,
    /// Joiners waiting for the next phase.
    pub pending_joiners: Vec<u8>,
    /// Leavers waiting for the next phase.
    pub pending_leavers: Vec<u8>,
    /// The currently open phase, if any.
    pub open_phase: Option<PhaseWait>,
}

/// What the anchor is still waiting for before it can end the open phase.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhaseWait {
    /// The phase number.
    pub phase: u8,
    /// Flagged nodes that still owe an `UpdateAck`.
    pub awaiting_acks: Vec<u8>,
    /// Joiners that still owe an `IntegrateAck`.
    pub awaiting_integrate: Vec<u8>,
    /// Leavers that still owe their `AbsorbData` hand-over.
    pub awaiting_absorb: Vec<u8>,
    /// Everyone that must receive `UpdateOver` when the phase ends.
    pub participants: Vec<u8>,
}

/// Membership role of a model node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AbsRole {
    /// Not part of the system (yet).
    #[default]
    Absent,
    /// Fully integrated member.
    Active,
    /// Sent `JoinRequest`, not yet integrated.
    Joining,
    /// Granted leave, handing state to its absorber.
    Draining,
    /// Departed.
    Left,
}

/// Per-node model state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AbsNode {
    /// Membership role.
    pub role: AbsRole,
    /// Whether this node currently holds the anchor.
    pub is_anchor: bool,
    /// Suspended by an `UpdateFlag` (no new waves until `UpdateOver`).
    pub suspended: bool,
    /// Highest phase number this node has seen (monotone).
    pub phase: u8,
    /// Phase this node currently participates in.
    pub in_phase: Option<u8>,
    /// Whether the node has sent its ack/hand-over for `in_phase`.
    pub acked: bool,
    /// Aggregate-channel credit: `true` iff no un-acked wave is in flight.
    pub credit: bool,
    /// Issued requests not yet aggregated into a wave.
    pub pending: Vec<Req>,
    /// Number of scripted requests already issued at this node.
    pub issued: u8,
    /// Where this node believes the anchor lives.
    pub anchor_hint: u8,
    /// Set on a former anchor: forward anchor-bound messages here.
    pub forward_to: Option<u8>,
    /// Set once the node has requested leave (stops issuing).
    pub leave_requested: bool,
}

/// An abstract protocol message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Msg {
    /// A wave: the child's batched requests, credited (`from` = the child).
    Aggregate {
        /// The aggregating child (acks and serves return to it).
        from: u8,
        /// The batch.
        ops: Vec<Req>,
    },
    /// Credit return for the child's aggregate channel.
    AggregateAck,
    /// Stage-3 results travelling back to the requester.
    Serve {
        /// The completed records.
        records: Vec<Completed>,
    },
    /// A joiner announcing itself to the anchor.
    JoinRequest {
        /// The joiner.
        joiner: u8,
    },
    /// A member asking the anchor for permission to leave.
    LeaveRequest {
        /// The leaver.
        leaver: u8,
    },
    /// Phase start, broadcast down the (star) tree.
    UpdateFlag {
        /// The phase number.
        phase: u8,
    },
    /// A flagged node reporting itself drained.
    UpdateAck {
        /// The phase number.
        phase: u8,
    },
    /// Phase end, broadcast to every participant.
    UpdateOver {
        /// The phase number.
        phase: u8,
    },
    /// The anchor integrating a joiner during a phase.
    Integrate {
        /// The phase number.
        phase: u8,
    },
    /// The joiner confirming its integration.
    IntegrateAck {
        /// The phase number.
        phase: u8,
    },
    /// The anchor granting a leave: hand your state to the absorber.
    AbsorbRequest {
        /// The phase number.
        phase: u8,
    },
    /// The leaver's hand-over to its absorber (the anchor in the model).
    AbsorbData {
        /// The departing node.
        leaver: u8,
    },
    /// Re-anchoring: the anchor state walking to its new host.
    AnchorTransfer {
        /// The travelling anchor state.
        anchor: AbsAnchor,
    },
}

/// An in-flight message.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Envelope {
    /// Sender.
    pub src: u8,
    /// Receiver.
    pub dst: u8,
    /// Payload.
    pub msg: Msg,
}

/// One global state of the abstract protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelState {
    /// Per-node state, indexed by node id.
    pub nodes: Vec<AbsNode>,
    /// In-flight messages in send order (delivery choice is the explorer's).
    pub network: Vec<Envelope>,
    /// Which node holds the anchor (`None` while an `AnchorTransfer` flies).
    pub anchor_at: Option<u8>,
    /// The anchor state, kept here while hosted (moved into the transfer
    /// message while travelling).
    pub anchor: Option<AbsAnchor>,
    /// Completed requests in completion order — the abstract history.
    pub history: Vec<Completed>,
    /// Joins not yet injected (indices into [`Scenario::joins`]).
    pub joins_left: u8,
    /// Leaves not yet injected (indices into [`Scenario::leaves`]).
    pub leaves_left: u8,
    /// Next enqueue payload value.
    pub next_value: u8,
}

/// One atomic transition of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Issue the node's next scripted request.
    Issue(u8),
    /// A child batches its pending requests into a wave.
    OpenWave(u8),
    /// The anchor assigns its own pending requests and takes the update
    /// decision (starting a phase when churn is pending and none is open).
    AnchorWave,
    /// A suspended, drained node sends its `UpdateAck`.
    SendAck(u8),
    /// A draining leaver hands its state to the absorber.
    SendAbsorb(u8),
    /// Deliver `network[index]`.
    Deliver(u8),
    /// Inject the next scripted join.
    InjectJoin,
    /// Inject the next scripted leave.
    InjectLeave,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Issue(n) => write!(f, "issue@{n}"),
            Action::OpenWave(n) => write!(f, "wave@{n}"),
            Action::AnchorWave => write!(f, "anchor-wave"),
            Action::SendAck(n) => write!(f, "ack@{n}"),
            Action::SendAbsorb(n) => write!(f, "absorb@{n}"),
            Action::Deliver(i) => write!(f, "deliver#{i}"),
            Action::InjectJoin => write!(f, "inject-join"),
            Action::InjectLeave => write!(f, "inject-leave"),
        }
    }
}

/// A bounded scenario: the fixed cast and script the explorer closes over.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Nodes `0..initial_nodes` start as active members; node 0 is the
    /// anchor.
    pub initial_nodes: u8,
    /// Scripted requests: `(node, is_enqueue)`, issued per node in order.
    pub script: Vec<(u8, bool)>,
    /// Nodes that join mid-run (must start `Absent`).
    pub joins: Vec<u8>,
    /// Nodes that leave mid-run (never node 0).
    pub leaves: Vec<u8>,
    /// Per-channel delivery window: any of the first `reorder_window`
    /// messages of a `(src, dst)` channel may be delivered next (`1` models
    /// FIFO channels, larger values model bounded reordering).
    pub reorder_window: u8,
    /// After the first phase ends, hand the anchor to this node.
    pub reanchor_to: Option<u8>,
}

impl Scenario {
    /// The bounded CI instance: 3 members, one join + one leave (two phases
    /// reachable), four requests, reordering window 2.  Small enough for an
    /// exhaustive traversal in seconds, big enough to reach every PR-3
    /// membership race shape (see MODEL.md).
    pub fn bounded_default() -> Self {
        Scenario {
            initial_nodes: 3,
            script: vec![(1, true), (2, true), (1, false), (2, false)],
            joins: vec![3],
            leaves: vec![2],
            reorder_window: 2,
            reanchor_to: None,
        }
    }

    /// A reduced instance for debug builds (the plain `cargo test`
    /// workspace job): same shape as [`Scenario::bounded_default`] — both
    /// churn events, two requests — but a state space two orders of
    /// magnitude smaller.  The release CI step runs the full bounded
    /// instance.
    pub fn smoke() -> Self {
        Scenario {
            initial_nodes: 3,
            script: vec![(1, true), (2, false)],
            joins: vec![3],
            leaves: vec![2],
            reorder_window: 2,
            reanchor_to: None,
        }
    }

    /// The deep instance behind `SKUEUE_MODEL_FULL=1`: 3 members + 1 joiner,
    /// **two** leaves (three phases reachable, leaver-absorbs-leaver shapes
    /// the CI instances cannot express), three requests, reordering window
    /// **3** (~941k states, ~4M transitions).  Sized to stay an *exhaustive*
    /// traversal under the state cap — widening any knob (a fourth member,
    /// a fourth request) overflows the 4M-state cap.
    pub fn full() -> Self {
        Scenario {
            initial_nodes: 3,
            script: vec![(1, true), (2, true), (2, false)],
            joins: vec![3],
            leaves: vec![1, 2],
            reorder_window: 3,
            reanchor_to: None,
        }
    }

    /// A bounded re-anchoring instance: after the join's phase completes the
    /// anchor walks from node 0 to node 1, with traffic in flight.
    pub fn reanchor() -> Self {
        Scenario {
            initial_nodes: 3,
            script: vec![(1, true), (2, true), (2, false)],
            joins: vec![3],
            leaves: vec![],
            reorder_window: 2,
            reanchor_to: Some(1),
        }
    }

    /// Total scripted requests for `node`.
    fn script_len(&self, node: u8) -> u8 {
        self.script.iter().filter(|(n, _)| *n == node).count() as u8
    }

    /// The `idx`-th scripted request of `node`.
    fn script_op(&self, node: u8, idx: u8) -> Option<bool> {
        self.script
            .iter()
            .filter(|(n, _)| *n == node)
            .nth(idx as usize)
            .map(|(_, e)| *e)
    }

    /// Number of nodes the scenario can ever touch.
    pub(crate) fn node_count(&self) -> usize {
        let joined = self.joins.iter().copied().max().map_or(0, |m| m + 1);
        (self.initial_nodes.max(joined) as usize).max(1)
    }
}

/// The machine: a [`Scenario`] interpreted as a transition system.
pub struct ProtocolModel {
    /// The scenario being explored.
    pub scenario: Scenario,
}

impl ProtocolModel {
    /// Wraps a scenario.
    pub fn new(scenario: Scenario) -> Self {
        assert!(
            scenario.node_count() <= MAX_NODES,
            "model is bounded to 5 nodes"
        );
        assert!(
            scenario.reorder_window >= 1,
            "window 0 would deadlock every channel"
        );
        ProtocolModel { scenario }
    }

    /// Whether `network[i]` is deliverable under the per-channel window:
    /// it must be among the first `reorder_window` messages of its channel.
    fn deliverable(&self, state: &ModelState, i: usize) -> bool {
        let e = &state.network[i];
        let mut earlier = 0u8;
        for prior in &state.network[..i] {
            if prior.src == e.src && prior.dst == e.dst {
                earlier += 1;
            }
        }
        earlier < self.scenario.reorder_window
    }
}

fn send(state: &mut ModelState, src: u8, dst: u8, msg: Msg) {
    state.network.push(Envelope { src, dst, msg });
}

/// Messages that must be handled by (or forwarded to) the anchor's host.
fn requires_anchor(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::Aggregate { .. }
            | Msg::JoinRequest { .. }
            | Msg::LeaveRequest { .. }
            | Msg::UpdateAck { .. }
            | Msg::IntegrateAck { .. }
            | Msg::AbsorbData { .. }
    )
}

/// Assigns a batch at the anchor: positions from `counter`, FIFO matching
/// against the abstract queue.  Returns the completed records.
fn assign(anchor: &mut AbsAnchor, ops: &[Req]) -> Vec<Completed> {
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let order = anchor.counter;
        anchor.counter += 1;
        let (result, value) = if op.is_enqueue {
            anchor.queue.push_back((op.node, op.seq, op.value));
            (AbsResult::Enqueued, op.value)
        } else {
            match anchor.queue.pop_front() {
                Some((n, s, v)) => (AbsResult::Returned(n, s), v),
                None => (AbsResult::Empty, 0),
            }
        };
        out.push(Completed {
            req: *op,
            result,
            order,
            value,
        });
    }
    out
}

/// Ends the open phase if nothing is awaited any more: broadcasts
/// `UpdateOver` and, when the scenario says so, starts re-anchoring.
fn try_finish_phase(model: &ProtocolModel, state: &mut ModelState, at: u8) {
    let anchor = state.anchor.as_mut().expect("phase lives at the anchor");
    let done = anchor.open_phase.as_ref().is_some_and(|w| {
        w.awaiting_acks.is_empty()
            && w.awaiting_integrate.is_empty()
            && w.awaiting_absorb.is_empty()
    });
    if !done {
        return;
    }
    let wait = anchor.open_phase.take().expect("checked above");
    let first_phase = anchor.phases_started == 1;
    for &p in &wait.participants {
        send(state, at, p, Msg::UpdateOver { phase: wait.phase });
    }
    if let Some(target) = model.scenario.reanchor_to {
        let target_active = matches!(state.nodes[target as usize].role, AbsRole::Active);
        if first_phase && target != at && target_active {
            let travelling = state.anchor.take().expect("anchor is here");
            state.anchor_at = None;
            state.nodes[at as usize].is_anchor = false;
            state.nodes[at as usize].forward_to = Some(target);
            send(
                state,
                at,
                target,
                Msg::AnchorTransfer { anchor: travelling },
            );
        }
    }
}

impl Machine for ProtocolModel {
    type State = ModelState;
    type Action = Action;

    fn initial(&self) -> ModelState {
        let n = self.scenario.node_count();
        let mut nodes = vec![AbsNode::default(); n];
        for (i, node) in nodes
            .iter_mut()
            .enumerate()
            .take(self.scenario.initial_nodes as usize)
        {
            node.role = AbsRole::Active;
            node.credit = true;
            node.is_anchor = i == 0;
        }
        ModelState {
            nodes,
            network: Vec::new(),
            anchor_at: Some(0),
            anchor: Some(AbsAnchor {
                counter: 1,
                ..AbsAnchor::default()
            }),
            history: Vec::new(),
            joins_left: self.scenario.joins.len() as u8,
            leaves_left: self.scenario.leaves.len() as u8,
            next_value: 1,
        }
    }

    fn actions(&self, s: &ModelState, out: &mut Vec<Action>) {
        for (i, node) in s.nodes.iter().enumerate() {
            let i8 = i as u8;
            // Issue: the node's next scripted request, while an active,
            // non-leaving member (matches `process_may_issue`).
            if matches!(node.role, AbsRole::Active)
                && !node.leave_requested
                && node.issued < self.scenario.script_len(i8)
            {
                out.push(Action::Issue(i8));
            }
            // OpenWave: active non-anchor child with pending requests,
            // credit in hand and not suspended.
            if matches!(node.role, AbsRole::Active)
                && !node.is_anchor
                && !node.suspended
                && node.credit
                && !node.pending.is_empty()
            {
                out.push(Action::OpenWave(i8));
            }
            // SendAck: flagged + drained, ack still owed.
            if matches!(node.role, AbsRole::Active)
                && node.in_phase.is_some()
                && !node.acked
                && node.credit
            {
                out.push(Action::SendAck(i8));
            }
            // SendAbsorb: a draining leaver that is drained hands over.
            if matches!(node.role, AbsRole::Draining) && !node.acked && node.credit {
                out.push(Action::SendAbsorb(i8));
            }
        }
        // AnchorWave: the anchor has own pending requests, or an update
        // decision to take.
        if let (Some(at), Some(anchor)) = (s.anchor_at, s.anchor.as_ref()) {
            let own_pending = !s.nodes[at as usize].pending.is_empty();
            let decision = anchor.pending_churn > 0 && anchor.open_phase.is_none();
            if own_pending || decision {
                out.push(Action::AnchorWave);
            }
        }
        // Deliveries, bounded per channel.  A message that needs the anchor
        // stays in flight while its destination neither hosts the anchor nor
        // knows where it went (an `AnchorTransfer` inbound on another
        // channel will enable it).
        for i in 0..s.network.len() {
            if !self.deliverable(s, i) {
                continue;
            }
            let e = &s.network[i];
            if requires_anchor(&e.msg)
                && s.anchor_at != Some(e.dst)
                && s.nodes[e.dst as usize].forward_to.is_none()
            {
                continue;
            }
            out.push(Action::Deliver(i as u8));
        }
        // Churn injections.
        if s.joins_left > 0 {
            out.push(Action::InjectJoin);
        }
        if s.leaves_left > 0 {
            let l = self.scenario.leaves[self.scenario.leaves.len() - s.leaves_left as usize];
            let node = &s.nodes[l as usize];
            // Leave gating (the real `membership_timeout`): no pending
            // requests, no wave in flight, not already leaving, and the
            // node must be an active non-anchor member.
            let quiet = node.pending.is_empty()
                && node.credit
                && !node.leave_requested
                && !node.is_anchor
                && matches!(node.role, AbsRole::Active)
                && !s.network.iter().any(|e| {
                    (e.src == l && matches!(e.msg, Msg::Aggregate { .. }))
                        || (e.dst == l && matches!(e.msg, Msg::Serve { .. }))
                });
            if quiet {
                out.push(Action::InjectLeave);
            }
        }
    }

    fn apply(&self, s: &ModelState, action: &Action) -> ModelState {
        let mut s = s.clone();
        match *action {
            Action::Issue(n) => {
                let node = &mut s.nodes[n as usize];
                let is_enqueue = self
                    .scenario
                    .script_op(n, node.issued)
                    .expect("enabled only while script remains");
                let value = if is_enqueue {
                    let v = s.next_value;
                    s.next_value += 1;
                    v
                } else {
                    0
                };
                let req = Req {
                    node: n,
                    seq: node.issued,
                    is_enqueue,
                    value,
                };
                node.issued += 1;
                node.pending.push(req);
            }
            Action::OpenWave(n) => {
                let node = &mut s.nodes[n as usize];
                let ops = std::mem::take(&mut node.pending);
                node.credit = false;
                let dst = node.anchor_hint;
                send(&mut s, n, dst, Msg::Aggregate { from: n, ops });
            }
            Action::AnchorWave => {
                let at = s.anchor_at.expect("enabled only with a hosted anchor");
                let ops = std::mem::take(&mut s.nodes[at as usize].pending);
                if !ops.is_empty() {
                    let anchor = s.anchor.as_mut().expect("hosted");
                    let records = assign(anchor, &ops);
                    s.history.extend(records);
                }
                // The update decision, folded into the anchor's wave step
                // exactly like `assign_wave` + `take_update_decision`.
                let anchor = s.anchor.as_mut().expect("hosted");
                if anchor.pending_churn > 0 && anchor.open_phase.is_none() {
                    anchor.pending_churn = 0;
                    anchor.phases_started += 1;
                    let phase = anchor.phases_started;
                    let joiners = std::mem::take(&mut anchor.pending_joiners);
                    let leavers = std::mem::take(&mut anchor.pending_leavers);
                    let mut flagged = Vec::new();
                    for (i, node) in s.nodes.iter().enumerate() {
                        let i8 = i as u8;
                        if i8 != at
                            && matches!(node.role, AbsRole::Active)
                            && !leavers.contains(&i8)
                        {
                            flagged.push(i8);
                        }
                    }
                    let mut participants = flagged.clone();
                    participants.extend(&joiners);
                    participants.extend(&leavers);
                    let anchor = s.anchor.as_mut().expect("hosted");
                    anchor.open_phase = Some(PhaseWait {
                        phase,
                        awaiting_acks: flagged.clone(),
                        awaiting_integrate: joiners.clone(),
                        awaiting_absorb: leavers.clone(),
                        participants,
                    });
                    for &f in &flagged {
                        send(&mut s, at, f, Msg::UpdateFlag { phase });
                    }
                    for &j in &joiners {
                        send(&mut s, at, j, Msg::Integrate { phase });
                    }
                    for &l in &leavers {
                        send(&mut s, at, l, Msg::AbsorbRequest { phase });
                    }
                    try_finish_phase(self, &mut s, at);
                }
            }
            Action::SendAck(n) => {
                let node = &mut s.nodes[n as usize];
                let phase = node.in_phase.expect("enabled only while flagged");
                node.acked = true;
                let dst = node.anchor_hint;
                send(&mut s, n, dst, Msg::UpdateAck { phase });
            }
            Action::SendAbsorb(n) => {
                let node = &mut s.nodes[n as usize];
                node.acked = true;
                let dst = node.anchor_hint;
                send(&mut s, n, dst, Msg::AbsorbData { leaver: n });
            }
            Action::InjectJoin => {
                let j = self.scenario.joins[self.scenario.joins.len() - s.joins_left as usize];
                s.joins_left -= 1;
                let node = &mut s.nodes[j as usize];
                debug_assert!(matches!(node.role, AbsRole::Absent));
                node.role = AbsRole::Joining;
                node.credit = true;
                let dst = node.anchor_hint;
                send(&mut s, j, dst, Msg::JoinRequest { joiner: j });
            }
            Action::InjectLeave => {
                let l = self.scenario.leaves[self.scenario.leaves.len() - s.leaves_left as usize];
                s.leaves_left -= 1;
                let node = &mut s.nodes[l as usize];
                node.leave_requested = true;
                let dst = node.anchor_hint;
                send(&mut s, l, dst, Msg::LeaveRequest { leaver: l });
            }
            Action::Deliver(i) => {
                let env = s.network.remove(i as usize);
                deliver(self, &mut s, env);
            }
        }
        s
    }

    fn encode(&self, s: &ModelState, out: &mut Vec<u8>) {
        use std::hash::{Hash, Hasher};
        // Exact structural encoding via the derived Hash would risk
        // collisions; instead serialise the state canonically.  `Hash` into
        // a byte sink keeps this short and deterministic within a build:
        // the explorer additionally stores full encodings, so dedup is
        // exact as long as this function is injective.  We therefore write
        // the fields out explicitly.
        struct Sink<'a>(&'a mut Vec<u8>);
        impl Hasher for Sink<'_> {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        let mut sink = Sink(out);
        s.hash(&mut sink);
    }
}

/// Delivery semantics — one arm per message kind.
fn deliver(model: &ProtocolModel, s: &mut ModelState, env: Envelope) {
    let Envelope { src, dst, msg } = env;
    // A former anchor forwards anchor-bound messages to the new host
    // (clients keep sending to their stale hint until corrected).
    if s.nodes[dst as usize].forward_to.is_some() {
        let anchor_bound = matches!(
            msg,
            Msg::Aggregate { .. }
                | Msg::JoinRequest { .. }
                | Msg::LeaveRequest { .. }
                | Msg::UpdateAck { .. }
                | Msg::IntegrateAck { .. }
                | Msg::AbsorbData { .. }
        );
        if anchor_bound {
            let target = s.nodes[dst as usize].forward_to.expect("checked");
            send(s, src, target, msg);
            return;
        }
    }
    match msg {
        Msg::Aggregate { from, ops } => {
            let anchor = s.anchor.as_mut().expect("aggregates reach the anchor");
            let records = assign(anchor, &ops);
            send(s, dst, from, Msg::AggregateAck);
            send(s, dst, from, Msg::Serve { records });
        }
        Msg::AggregateAck => {
            let node = &mut s.nodes[dst as usize];
            debug_assert!(!node.credit, "credit channel must be serialised");
            node.credit = true;
            // Seeing traffic from the (possibly new) anchor fixes the hint.
            node.anchor_hint = src;
        }
        Msg::Serve { records } => {
            s.history.extend(records);
            s.nodes[dst as usize].anchor_hint = src;
        }
        Msg::JoinRequest { joiner } => {
            let anchor = s.anchor.as_mut().expect("join requests reach the anchor");
            anchor.pending_churn += 1;
            anchor.pending_joiners.push(joiner);
        }
        Msg::LeaveRequest { leaver } => {
            let anchor = s.anchor.as_mut().expect("leave requests reach the anchor");
            anchor.pending_churn += 1;
            anchor.pending_leavers.push(leaver);
        }
        Msg::UpdateFlag { phase } => {
            let node = &mut s.nodes[dst as usize];
            if phase < node.phase {
                // Stale flag — cannot happen while phases are serialised by
                // the anchor, but mirror the real node's defensiveness.
                return;
            }
            node.phase = phase;
            node.in_phase = Some(phase);
            node.suspended = true;
            node.acked = false;
        }
        Msg::UpdateAck { phase } => {
            let at = dst;
            let anchor = s.anchor.as_mut().expect("acks reach the anchor");
            if let Some(wait) = anchor.open_phase.as_mut() {
                if wait.phase == phase {
                    wait.awaiting_acks.retain(|&n| n != src);
                }
            }
            try_finish_phase(model, s, at);
        }
        Msg::Integrate { phase } => {
            let node = &mut s.nodes[dst as usize];
            node.role = AbsRole::Active;
            node.phase = phase;
            node.in_phase = Some(phase);
            node.suspended = true;
            node.acked = true; // joiners owe an IntegrateAck, not an UpdateAck
            node.credit = true;
            node.anchor_hint = src;
            send(s, dst, src, Msg::IntegrateAck { phase });
        }
        Msg::IntegrateAck { phase } => {
            let at = dst;
            let anchor = s.anchor.as_mut().expect("integrate acks reach the anchor");
            if let Some(wait) = anchor.open_phase.as_mut() {
                if wait.phase == phase {
                    wait.awaiting_integrate.retain(|&n| n != src);
                }
            }
            try_finish_phase(model, s, at);
        }
        Msg::AbsorbRequest { phase } => {
            let node = &mut s.nodes[dst as usize];
            node.role = AbsRole::Draining;
            node.phase = phase;
            node.in_phase = Some(phase);
            node.suspended = true;
            node.acked = false;
            node.anchor_hint = src;
        }
        Msg::AbsorbData { leaver } => {
            let at = dst;
            let anchor = s.anchor.as_mut().expect("hand-overs reach the absorber");
            if let Some(wait) = anchor.open_phase.as_mut() {
                wait.awaiting_absorb.retain(|&n| n != leaver);
            }
            try_finish_phase(model, s, at);
        }
        Msg::UpdateOver { phase } => {
            let node = &mut s.nodes[dst as usize];
            // The PR-3 guard: a delayed end-of-phase message from an *older*
            // phase must not cancel a younger phase the node has since
            // joined.  The `model-mutation` feature re-introduces the race
            // so the mutation-gate test can prove the checker finds it.
            #[cfg(not(feature = "model-mutation"))]
            if let Some(current) = node.in_phase {
                if current > phase {
                    return;
                }
            }
            let _ = phase;
            node.suspended = false;
            node.in_phase = None;
            node.acked = false;
            if matches!(node.role, AbsRole::Draining) {
                node.role = AbsRole::Left;
            }
        }
        Msg::AnchorTransfer { anchor } => {
            s.anchor = Some(anchor);
            s.anchor_at = Some(dst);
            let node = &mut s.nodes[dst as usize];
            node.is_anchor = true;
            node.forward_to = None;
            node.anchor_hint = dst;
        }
    }
}

/// Converts the abstract history into [`OpRecord`]s so the real
/// `skueue-verify` checkers (Definition 1 + sequential replay) run on it.
pub(crate) fn to_records(history: &[Completed]) -> Vec<OpRecord<u64>> {
    history
        .iter()
        .map(|c| {
            let id = RequestId::new(ProcessId(c.req.node as u64), c.req.seq as u64);
            let (kind, result) = if c.req.is_enqueue {
                (OpKind::Enqueue, OpResult::Enqueued)
            } else {
                match c.result {
                    AbsResult::Returned(n, s) => (
                        OpKind::Dequeue,
                        OpResult::Returned(RequestId::new(ProcessId(n as u64), s as u64)),
                    ),
                    _ => (OpKind::Dequeue, OpResult::Empty),
                }
            };
            OpRecord {
                id,
                kind,
                value: c.value as u64,
                result,
                order: OrderKey::anchor(c.order as u64, ProcessId(c.req.node as u64)),
                issued_round: 0,
                completed_round: 0,
            }
        })
        .collect()
}
