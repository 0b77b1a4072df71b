//! Join, leave and update-phase handling (Section IV).
//!
//! Membership changes are handled *lazily*: a joining or leaving virtual node
//! is assigned a **responsible node** (the predecessor of its label for a
//! joiner; its cycle predecessor for a leaver).  The responsible node counts
//! the request in the `j`/`l` fields of its next batch, so the anchor learns
//! about pending membership changes through the ordinary aggregation.  When
//! the anchor observes a pending change it attaches the *update-phase* flag
//! to the `SERVE` wave; while the flag is set no new batches are sent.
//! During the update phase
//!
//! * joiners are spliced into the cycle (and receive the DHT data of their
//!   interval),
//! * leavers hand their state to their absorber and switch to a draining mode
//!   in which every message they still receive is forwarded (channels are
//!   reliable, so nothing is lost),
//! * acknowledgements flow up the *old* aggregation tree; once the anchor has
//!   collected them all it either broadcasts `UpdateOver` down the new tree
//!   or — if a new leftmost node exists — hands the anchor state over first
//!   and lets the new anchor end the phase.
//!
//! Deviations from the paper: DHT data is handed to a joiner at integration
//! time rather than eagerly at responsibility time, joining processes do not
//! issue queue operations before they are integrated, and the process
//! currently hosting the anchor may not leave.
//!
//! # One lifecycle per node
//!
//! A node's own membership state is one inline [`Lifecycle`] of at most
//! 3 bytes; its leave request is a [`Leave`] inside it.  A draining node's
//! absorber is kept in the node's cold box (`node::work::Cold`), which it
//! holds from then on; everything else a node keeps for membership is there
//! too, and only while it is outstanding.
//!
//! | state | event | next state | sent |
//! |---|---|---|---|
//! | `Joining { announced: false }` | timeout, bootstrap known | `announced: true` | `JoinRequest` → bootstrap |
//! | `Joining` | `Integrate` | `Member { resumed: false }` | `SiblingStatus(active)` → siblings, `IntegrateAck` |
//! | `resumed: false` | `UpdateOver` | `resumed: true` | `UpdateOver` → children and relays |
//! | `Member { resumed: true }`, no phase | `UpdateFlag` | phase running | `UpdateFlag` → children, `Integrate`, `AbsorbRequest` |
//! | `Member`, no phase, or `resumed: false` | `UpdateFlag` | — | `UpdateAck` at once |
//! | `leave: Stays` | `request_leave` | `Wanted` | — |
//! | `Wanted` | timeout: own requests done, no open leaver, not the anchor | `Requested` | `LeaveRequest` → predecessor |
//! | `Requested` | `LeaveDeferred` | `Wanted` | — |
//! | `Wanted`, `Requested` | `LeaveGranted` | `Granted` | — |
//! | `Stays` | `LeaveGranted` | `StrayGrant` | — |
//! | `StrayGrant` | `request_leave` | `Granted` | — |
//! | `Member` | `AbsorbRequest`, no wave in flight, phase acked | `Draining`, the absorber in the cold box | `AbsorbData` (+ `ChurnHandover`) → absorber, `SiblingStatus(inactive)` |
//! | `Member` | `AbsorbRequest`, otherwise | — (`absorb_deferred`) | `AbsorbData` on the first timeout it is ready |
//! | `Draining` | a message that is not node-local | — | forwarded to the absorber in the cold box |
//! | `Draining` | a node-local message | — | applied here, never forwarded |
//!
//! A node is *suspended* — it opens drain waves only and declines flags —
//! while it is not resumed or a phase runs at it.  A leave may be wanted
//! before the joiner is resumed, even before it is integrated.
//!
//! # One list of duties
//!
//! What a node owes the protocol for others is one [`Duty`] each in
//! `Membership::duties`: a joiner it is responsible for, a leaver it
//! granted, a churn count it relays that has no owner here.  A duty has a
//! [`Step`], a [`Report`] and may owe the phase-end `UpdateOver`.
//!
//! | duty | event | next | sent |
//! |---|---|---|---|
//! | — | `JoinRequest` delivered here, or a joiner inherited with `AbsorbData` | joiner `Pending`, unreported | — |
//! | joiner `Pending` | phase `p` entered | `Asked(p)`, owes `UpdateOver` | `Integrate` → joiner, `SetPred` → old successor |
//! | joiner `Asked` | `IntegrateAck` | `Answered` | — |
//! | — | `LeaveRequest`, not leaving itself | leaver `Pending`, unreported | `LeaveGranted` |
//! | leaver `Pending` | phase `p` entered | `Asked(p)` | `AbsorbRequest` |
//! | leaver `Asked` | `AbsorbData` | `Answered`, owes `UpdateOver` | cycle re-links |
//! | owes `UpdateOver` | the phase ends here | — | `UpdateOver` → leavers in absorption order, then joiners clockwise |
//! | — | `ChurnHandover` | count, unreported | — |
//! | — | a wave with churn leaves below an absent parent | count, unflagged | — |
//! | count, unflagged | back below an integrated parent | unreported | — |
//! | count, unflagged | this node is absorbed | handed over | `ChurnHandover` → absorber |
//! | unreported | a wave of this node's own opens | reported | in the wave's `j`/`l` |
//! | `Pending` | `UpdateOver` | unreported | — |
//! | `Answered`, reported, owes nothing | end of the visit | dropped | — |
//!
//! A wave's `j` is the number of unreported joiners, its `l` that of
//! unreported leavers plus the unreported counts.  A node's part of phase
//! `p` is done once every flagged child acked and no duty is `Asked(p)`.

use crate::anchor::AnchorState;
use crate::batch::Batch;
use crate::messages::{AbsorbPayload, DhtOp, JoinHandover, RoutedDhtOp, SkueueMsg};
use crate::node::{Cold, LaneKind, SkueueNode};
use skueue_dht::{Payload, PendingGet, StoredEntry};
use skueue_overlay::{route_step, Label, NeighborInfo, RouteAction, RouteProgress};
use skueue_sim::actor::Context;
use skueue_sim::ids::NodeId;
use skueue_trace::TraceEvent;
use std::iter::once;

/// Where a virtual node is in its membership lifecycle (Section IV); see
/// the module doc for its transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lifecycle {
    /// Not in the cycle yet; `announced` once the `JoinRequest` is out.
    Joining { announced: bool, leave: Leave },
    /// An integrated member.  `resumed` is false from `Integrate` to the
    /// first `UpdateOver`: a fresh joiner opens no wave of its own before.
    Member { leave: Leave, resumed: bool },
    /// Absorbed: every message that is not node-local is forwarded to the
    /// absorber recorded in the node's cold box.  `resumed` carries over,
    /// so an `UpdateOver` still ends the phase it was suspended in and is
    /// relayed down its old subtree.
    Draining { resumed: bool },
}

/// A node's own leave request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leave {
    /// Not leaving.
    Stays,
    /// Asked to leave; the `LeaveRequest` goes out on a timeout once the
    /// node's own requests are done.
    Wanted,
    /// The `LeaveRequest` is out.
    Requested,
    /// The predecessor absorbs this node in its next phase.
    Granted,
    /// A `LeaveGranted` this node never asked for: a draining leaver whose
    /// `AbsorbRequest` overtook its grant forwards the grant to its
    /// absorber.  The node does not leave, but never asks either —
    /// `request_leave` moves it straight to `Granted`.
    StrayGrant,
}

/// One thing a node owes the protocol for another node (see the module
/// doc's duty table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Duty {
    pub(crate) kind: DutyKind,
    pub(crate) step: Step,
    /// Owes the `UpdateOver` of the phase it was spliced in or absorbed
    /// in: a spliced joiner's tree parents may not know it yet
    /// (`SiblingStatus` in flight), and an absorbed leaver is no tree
    /// child any more but relays the phase end down its old subtree.
    pub(crate) relay: bool,
    pub(crate) report: Report,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DutyKind {
    /// A joiner this node splices in.
    Joiner(NeighborInfo),
    /// A leaver this node granted and absorbs.
    Leaver(NodeId),
    /// Churn counted elsewhere that this node reports again; a count has
    /// no step of its own (it is born `Answered`).
    Count(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Announced or granted: waits for a phase.
    Pending,
    /// `Integrate` or `AbsorbRequest` sent in phase `p`; the phase waits
    /// for the answer.
    Asked(u64),
    /// `IntegrateAck` or `AbsorbData` received.
    Answered,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Report {
    /// Counted in this node's next own wave.
    Unreported,
    Reported,
    /// Reported in a wave whose parent was a sibling out of the tree (see
    /// [`SkueueNode::parent_is_absent_sibling`]): the phase it starts flags
    /// a tree that does not reach the nodes below this one.
    Unflagged,
}

impl Duty {
    pub(crate) fn new(kind: DutyKind, step: Step, report: Report) -> Duty {
        Duty {
            kind,
            step,
            relay: false,
            report,
        }
    }

    fn joiner(&self) -> Option<NeighborInfo> {
        match self.kind {
            DutyKind::Joiner(info) => Some(info),
            _ => None,
        }
    }

    fn is_leaver(&self) -> bool {
        matches!(self.kind, DutyKind::Leaver(_))
    }

    /// True until the joiner acked or the leaver handed itself over.
    fn is_open(&self) -> bool {
        self.step != Step::Answered
    }

    pub(crate) fn is_unreported(&self) -> bool {
        self.report == Report::Unreported
    }

    /// Nothing left to do or to report.
    pub(crate) fn is_discharged(&self) -> bool {
        !self.is_open() && !self.relay && self.report == Report::Reported
    }
}

/// State of an ongoing update phase at this node.
#[derive(Debug, Clone, Default)]
pub(crate) struct UpdatePhase {
    /// The anchor's phase number this participation belongs to; control
    /// messages of other phases are ignored (or, for a younger flag,
    /// acknowledged without duties).
    pub(crate) phase: u64,
    /// Children (at flag time) we still expect an `UpdateAck` from.
    pub(crate) awaiting_child_acks: Vec<NodeId>,
    /// Parent (at flag time) to ack to once done.
    pub(crate) old_parent: Option<NodeId>,
    /// Whether our own ack has been sent already.
    pub(crate) acked: bool,
}

/// Join/leave/update-phase bookkeeping of a node (Section IV).  Every field
/// is at its default while membership around the node is stable, so the
/// node holds this behind an `Option<Box<_>>` that is `None` in steady state
/// (see `SkueueNode::release_idle_membership`).
#[derive(Debug, Default)]
pub(crate) struct Membership<T> {
    /// Bootstrap contact used by a joining node to send its `JOIN()` request.
    pub(crate) bootstrap: Option<NodeId>,
    /// DHT operations received while still joining; re-routed after
    /// integration.
    pub(crate) deferred_dht: Vec<RoutedDhtOp<T>>,
    /// An absorber asked for our state while waves were still in flight; the
    /// hand-over happens as soon as every slot has been served.
    pub(crate) absorb_deferred: Option<NodeId>,
    /// Joiners, leavers and counts this node answers for, in the order
    /// their messages go out: leavers granted, then absorbed, in that
    /// order; joiners announced, then spliced in clockwise.
    pub(crate) duties: Vec<Duty>,
    pub(crate) update: Option<UpdatePhase>,
}

impl<T> Membership<T> {
    /// True when every field is back at its default.  Destructured without
    /// `..` so a new field cannot be forgotten here.
    pub(crate) fn is_idle(&self) -> bool {
        let Membership {
            bootstrap,
            deferred_dht,
            absorb_deferred,
            duties,
            update,
        } = self;
        bootstrap.is_none()
            && deferred_dht.is_empty()
            && absorb_deferred.is_none()
            && duties.is_empty()
            && update.is_none()
    }

    /// The joins and leaves this node's next own wave reports: its
    /// unreported joiners, and its unreported leavers and counts.
    pub(crate) fn unreported(&self) -> (u64, u64) {
        let unreported = self.duties.iter().filter(|d| d.is_unreported());
        unreported.fold((0, 0), |(joins, leaves), d| match d.kind {
            DutyKind::Joiner(_) => (joins + 1, leaves),
            DutyKind::Leaver(_) => (joins, leaves + 1),
            DutyKind::Count(count) => (joins, leaves + count),
        })
    }

    /// Adds [`Self::unreported`] to the wave `batch` opens, which reports it.
    pub(crate) fn report(&mut self, batch: &mut Batch) {
        let (joins, leaves) = self.unreported();
        (batch.joins, batch.leaves) = (batch.joins + joins, batch.leaves + leaves);
        self.relabel(Report::Unreported, Report::Reported);
    }

    fn relabel(&mut self, from: Report, to: Report) {
        let duties = self.duties.iter_mut().filter(|d| d.report == from);
        duties.for_each(|d| d.report = to);
    }

    /// Where the open duty for joiner or leaver `kind` is, if it is open.
    fn open(&self, kind: DutyKind) -> Option<usize> {
        self.duties
            .iter()
            .position(|d| d.is_open() && d.kind == kind)
    }

    /// Takes a joiner or a granted leaver on, unless it is already open.
    fn take_on(&mut self, kind: DutyKind) {
        if self.open(kind).is_none() {
            let duty = Duty::new(kind, Step::Pending, Report::Unreported);
            self.duties.push(duty);
        }
    }
}

impl<T: Payload> SkueueNode<T> {
    // ---------------------------------------------------------------------
    // Driver-side entry points.
    // ---------------------------------------------------------------------

    /// Points a joining node at a bootstrap contact; the join request is sent
    /// on its next timeout.
    pub fn set_bootstrap(&mut self, bootstrap: NodeId) {
        self.membership_mut().bootstrap = Some(bootstrap);
    }

    /// Asks this node to leave the system.  The leave request is sent to the
    /// predecessor once the node's own outstanding requests have completed.
    pub fn request_leave(&mut self) {
        self.set_leave(|leave| match leave {
            Leave::Stays => Leave::Wanted,
            Leave::StrayGrant => Leave::Granted,
            leave => leave,
        });
    }

    /// True once the node has fully left (drains towards its absorber).
    pub fn has_left(&self) -> bool {
        matches!(self.lifecycle, Lifecycle::Draining { .. })
    }

    /// True if the node is an integrated member of the overlay.
    pub fn is_integrated(&self) -> bool {
        matches!(self.lifecycle, Lifecycle::Member { .. })
    }

    /// True once the node has asked to leave and until it has left: its
    /// leave is wanted, requested or granted.
    pub(crate) fn has_asked_to_leave(&self) -> bool {
        matches!(
            self.leave(),
            Leave::Wanted | Leave::Requested | Leave::Granted
        )
    }

    // ---------------------------------------------------------------------
    // The lifecycle.
    // ---------------------------------------------------------------------

    /// The node's leave request (a draining node has none left).
    fn leave(&self) -> Leave {
        match self.lifecycle {
            Lifecycle::Joining { leave, .. } | Lifecycle::Member { leave, .. } => leave,
            Lifecycle::Draining { .. } => Leave::Stays,
        }
    }

    fn set_leave(&mut self, next: impl FnOnce(Leave) -> Leave) {
        if let Lifecycle::Joining { leave, .. } | Lifecycle::Member { leave, .. } =
            &mut self.lifecycle
        {
            *leave = next(*leave);
        }
    }

    /// False from a joiner's integration to its first `UpdateOver`.
    fn resumed(&self) -> bool {
        !matches!(
            self.lifecycle,
            Lifecycle::Member { resumed: false, .. } | Lifecycle::Draining { resumed: false, .. }
        )
    }

    /// True while the node opens no wave of its own: freshly integrated,
    /// or in an update phase.
    pub(crate) fn suspended(&self) -> bool {
        !self.resumed() || self.update().is_some()
    }

    // ---------------------------------------------------------------------
    // Timeout hooks.
    // ---------------------------------------------------------------------

    /// Timeout behaviour of a joining node: announce the join once.
    pub(crate) fn joining_timeout(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        let bootstrap = self.membership().and_then(|m| m.bootstrap);
        let Lifecycle::Joining { announced, .. } = &mut self.lifecycle else {
            return;
        };
        if let Some(bootstrap) = bootstrap.filter(|_| !*announced) {
            let joiner = self.view.me();
            let progress = RouteProgress::new(joiner.label, self.cfg.bit_budget);
            ctx.send(bootstrap, SkueueMsg::JoinRequest { joiner, progress });
            *announced = true;
        }
    }

    /// Periodic membership work of an active node: (re-)issue a pending leave
    /// request once the node's own requests have drained.  Joiners the node
    /// is responsible for do not hold the request up: the hand-over moves
    /// them to the absorber (`AbsorbPayload::joiners`), which counts them
    /// again.  Waiting for them could wait for ever, because a middle node
    /// whose left sibling is already absorbed hangs below a draining parent
    /// that brings it no further update phase.
    pub(crate) fn membership_timeout(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        self.maybe_complete_deferred_absorb(ctx);
        let granting = |m: &Membership<T>| m.duties.iter().any(|d| d.is_open() && d.is_leaver());
        if self.leave() == Leave::Wanted
            && self.open_requests() == 0
            && !self.membership().is_some_and(granting)
            && !self.is_anchor_node()
        {
            let leaver = self.view.me();
            ctx.send(self.view.pred().node, SkueueMsg::LeaveRequest { leaver });
            self.set_leave(|_| Leave::Requested);
        }
    }

    // ---------------------------------------------------------------------
    // Message handling.
    // ---------------------------------------------------------------------

    /// Handles every membership / update-phase message (called from the main
    /// actor dispatch for the variants Stage 1–4 do not consume).
    pub(crate) fn handle_membership(
        &mut self,
        from: NodeId,
        msg: SkueueMsg<T>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        match msg {
            SkueueMsg::JoinRequest { joiner, progress } => {
                self.handle_join_request(joiner, progress, ctx)
            }
            SkueueMsg::Integrate { handover } => self.handle_integrate(from, *handover, ctx),
            SkueueMsg::IntegrateAck => {
                if let Some(m) = Cold::membership(&mut self.cold) {
                    // An ack from a joiner still `Pending` here drops it
                    // unintegrated: a known gap (ROADMAP item 1's leads).
                    let acked =
                        |d: &&mut Duty| d.is_open() && d.joiner().is_some_and(|j| j.node == from);
                    for d in m.duties.iter_mut().filter(acked) {
                        d.step = Step::Answered;
                    }
                }
                self.check_update_done(ctx);
            }
            SkueueMsg::LeaveRequest { leaver } => self.handle_leave_request(leaver, ctx),
            // A stray grant is kept, and blocks the node's own leave: a known
            // gap (see `Leave::StrayGrant`; ROADMAP item 1's leads).
            SkueueMsg::LeaveGranted => self.set_leave(|leave| match leave {
                Leave::Stays | Leave::StrayGrant => Leave::StrayGrant,
                _ => Leave::Granted,
            }),
            // Retry on a later timeout (once the conflicting neighbour has
            // left, the new predecessor will grant the request).
            SkueueMsg::LeaveDeferred => self.set_leave(|leave| match leave {
                Leave::Requested => Leave::Wanted,
                leave => leave,
            }),
            SkueueMsg::AbsorbRequest => self.handle_absorb_request(from, ctx),
            SkueueMsg::AbsorbData(payload) => self.handle_absorb_data(from, *payload, ctx),
            // Churn that passed through a leaver while no flag could reach
            // its subtree: report it again, so a phase flags the subtree
            // through us.
            SkueueMsg::ChurnHandover { count } => {
                let count = Duty::new(DutyKind::Count(count), Step::Answered, Report::Unreported);
                self.membership_mut().duties.push(count);
            }
            SkueueMsg::SiblingStatus { kind, active } => {
                self.flags.set_sibling_integrated(kind, active);
                // Back below an integrated parent: the churn forwarded while
                // the parent was out of the tree is reported again, so a
                // phase flags this node's subtree.
                let attached = active && !self.parent_is_absent_sibling();
                if let Some(m) = Cold::membership(&mut self.cold).filter(|_| attached) {
                    m.relabel(Report::Unflagged, Report::Unreported);
                }
            }
            SkueueMsg::SetPred { new_pred } => {
                if self.has_left() {
                    // A splice notification caught up with a node that has
                    // already handed itself over: whoever now precedes this
                    // position must link directly to our successor (we are
                    // out of the cycle), and vice versa.
                    let new_succ = self.view.succ();
                    ctx.send(new_pred.node, SkueueMsg::SetSucc { new_succ });
                    ctx.send(new_succ.node, SkueueMsg::SetPred { new_pred });
                    self.view.set_pred(new_pred);
                    return;
                }
                self.view.set_pred(new_pred);
                // Invariant restoration: if we hold the anchor state but are
                // no longer the leftmost node, hand the state leftwards.
                if self.is_anchor_node() && !self.view.is_anchor() && self.update().is_none() {
                    let state = self.take_anchor().expect("checked above");
                    ctx.send(self.view.pred().node, SkueueMsg::AnchorTransfer { state });
                }
            }
            SkueueMsg::SetSucc { new_succ } => self.view.set_succ(new_succ),
            SkueueMsg::UpdateFlag { phase } => {
                if self.is_integrated() && !self.suspended() {
                    self.enter_update_phase(phase, Some(from), ctx);
                } else {
                    // Still busy with an older phase, flagged twice across a
                    // splice, freshly integrated (no duties yet, resumes on
                    // `UpdateOver`), or draining: confirm right away so the
                    // flagger never waits on us.  Duties this node thereby
                    // misses are reported again when its own phase ends (see
                    // `handle_update_over`).
                    ctx.send(from, SkueueMsg::UpdateAck { phase });
                }
            }
            SkueueMsg::UpdateAck { phase } => {
                if let Some(update) = self.update_mut().filter(|u| u.phase == phase) {
                    update.awaiting_child_acks.retain(|&c| c != from);
                }
                self.check_update_done(ctx);
            }
            SkueueMsg::UpdateOver { phase } => self.handle_update_over(phase, ctx),
            SkueueMsg::AnchorTransfer { state } => self.handle_anchor_transfer(state, ctx),
            other => {
                debug_assert!(
                    false,
                    "unexpected message {other:?} in membership handler at {}",
                    self.view.me().vid
                );
            }
        }
    }

    // ---------------------------------------------------------------------
    // Join (Section IV-A).
    // ---------------------------------------------------------------------

    fn handle_join_request(
        &mut self,
        joiner: NeighborInfo,
        mut progress: RouteProgress,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        // Route towards the predecessor of the joiner's label.
        match route_step(&self.view, &mut progress) {
            RouteAction::Forward(next) => {
                progress.hops += 1;
                ctx.send(next, SkueueMsg::JoinRequest { joiner, progress });
            }
            // This node is responsible for the joiner.
            RouteAction::Deliver => self.membership_mut().take_on(DutyKind::Joiner(joiner)),
        }
    }

    /// Splices all joiners this node is responsible for into the cycle and
    /// hands each its share of the DHT data.  Called when phase `phase`
    /// starts here.
    fn integrate_joiners(&mut self, phase: u64, ctx: &mut Context<SkueueMsg<T>>) {
        let Some(m) = Cold::membership(&mut self.cold) else {
            return;
        };
        let pending = |d: &mut Duty| d.step == Step::Pending && d.joiner().is_some();
        let mut spliced: Vec<Duty> = m.duties.extract_if(.., pending).collect();
        if spliced.is_empty() {
            return;
        }
        // Sort by ring position clockwise from this node so the chain
        // me → j₁ → … → j_k → old_succ is correctly ordered even when the gap
        // wraps around the top of the ring.
        let me_label = self.view.me().label;
        spliced.sort_by_key(|d| d.joiner().map(|j| me_label.cw_distance(j.label)));
        for d in &mut spliced {
            d.step = Step::Asked(phase);
            d.relay = true;
        }
        let (me, old_succ) = (self.view.me(), self.view.succ());
        let joiners = spliced.iter().filter_map(Duty::joiner);
        let chain: Vec<NeighborInfo> = once(me).chain(joiners).chain(once(old_succ)).collect();
        m.duties.append(&mut spliced);

        // Hand out the data and the final neighbour pointers: each joiner
        // sits between its two neighbours in the chain.
        let hasher = self.cfg.hasher();
        for link in chain.windows(3) {
            let (pred, joiner, succ) = (link[0], link[1], link[2]);
            let key = |position| hasher.position_key(position);
            let store = self.store_mut();
            let (entries, pending) = store.extract_range_with_keys(joiner.label, succ.label, key);
            let handover = Box::new(JoinHandover {
                pred,
                succ,
                entries,
                pending,
            });
            ctx.send(joiner.node, SkueueMsg::Integrate { handover });
        }
        // Update the cycle around the gap: our successor becomes the first
        // joiner, and the old successor's predecessor becomes the last one.
        let (first, new_pred) = (chain[1], chain[chain.len() - 2]);
        self.view.set_succ(first);
        if old_succ.node != me.node {
            ctx.send(old_succ.node, SkueueMsg::SetPred { new_pred });
        } else {
            // Single-node corner case: we are our own successor; the last
            // joiner becomes our predecessor.
            self.view.set_pred(new_pred);
        }
    }

    fn handle_integrate(
        &mut self,
        from: NodeId,
        handover: JoinHandover<T>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        debug_assert!(matches!(self.lifecycle, Lifecycle::Joining { .. }));
        self.view.set_pred(handover.pred);
        self.view.set_succ(handover.succ);
        // Do not start batching before the update phase is over.
        self.lifecycle = Lifecycle::Member {
            leave: self.leave(),
            resumed: false,
        };
        for satisfied in self.store_mut().absorb(handover.entries, handover.pending) {
            Self::reply_to(&mut self.lanes, satisfied, ctx);
        }
        // The join is over: forget what was kept for it, and re-route the
        // DHT operations that arrived while we were not yet part of the
        // cycle (coalesced with everything else this visit routes).
        let m = self.membership_mut();
        m.bootstrap = None;
        for routed in std::mem::take(&mut m.deferred_dht) {
            self.dispatch_dht(routed.op, routed.progress, ctx);
        }
        // Tell the sibling virtual nodes of this process that we are now an
        // integrated member (they may treat us as an aggregation-tree child).
        self.announce_sibling_status(true, ctx);
        ctx.send(from, SkueueMsg::IntegrateAck);
    }

    /// Notifies the process's other two virtual nodes about this node's
    /// membership status.
    fn announce_sibling_status(&self, active: bool, ctx: &mut Context<SkueueMsg<T>>) {
        let kind = self.view.kind();
        for sibling in skueue_overlay::VKind::ALL {
            if sibling != kind {
                let status = SkueueMsg::SiblingStatus { kind, active };
                ctx.send(self.view.sibling(sibling).node, status);
            }
        }
    }

    /// A handed-over joiner whose integration message may still be in flight
    /// is the true owner of keys in its range; forward operations to it.
    pub(crate) fn joiner_responsible_for(&self, key: Label) -> Option<NodeId> {
        let duties = &self.membership()?.duties;
        let me = self.view.me().label;
        // The best candidate is the handed-over joiner with the largest label
        // that is still ≤ key (in ring order starting from this node).
        duties
            .iter()
            .filter(|d| matches!(d.step, Step::Asked(_)))
            .filter_map(Duty::joiner)
            // key must lie clockwise of the joiner and the joiner clockwise of us.
            .filter(|j| me.cw_distance(j.label) <= me.cw_distance(key))
            .max_by_key(|j| me.cw_distance(j.label))
            .map(|j| j.node)
    }

    // ---------------------------------------------------------------------
    // Leave (Section IV-B).
    // ---------------------------------------------------------------------

    fn handle_leave_request(&mut self, leaver: NeighborInfo, ctx: &mut Context<SkueueMsg<T>>) {
        // Leftmost-leaves-first priority: if we want to leave ourselves and
        // are to the left of the requester, it has to wait for us.
        if self.has_asked_to_leave() {
            ctx.send(leaver.node, SkueueMsg::LeaveDeferred);
            return;
        }
        self.membership_mut().take_on(DutyKind::Leaver(leaver.node));
        ctx.send(leaver.node, SkueueMsg::LeaveGranted);
    }

    /// A leaver may only hand itself over once (a) every in-flight wave of
    /// its own has been served (it has no slot a later `Serve` could still
    /// address) and (b) it has discharged its own update-phase duties (sent
    /// its `UpdateAck`).  The update phase's wave draining (see
    /// `SkueueNode::try_send_batch`) guarantees in-flight waves keep moving
    /// even below suspended ancestors, so deferring is always temporary.
    pub(crate) fn ready_to_be_absorbed(&self) -> bool {
        self.waves_in_flight() == 0 && self.update().map(|u| u.acked).unwrap_or(true)
    }

    fn handle_absorb_request(&mut self, from: NodeId, ctx: &mut Context<SkueueMsg<T>>) {
        if !self.ready_to_be_absorbed() {
            self.membership_mut().absorb_deferred = Some(from);
            return;
        }
        self.send_absorb_data(from, ctx);
    }

    /// Completes a deferred absorption once the leaver is ready (checked on
    /// every timeout).
    pub(crate) fn maybe_complete_deferred_absorb(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        let Some(absorber) = self.membership().and_then(|m| m.absorb_deferred) else {
            return;
        };
        if self.ready_to_be_absorbed() {
            self.membership_mut().absorb_deferred = None;
            self.send_absorb_data(absorber, ctx);
        }
    }

    fn send_absorb_data(&mut self, from: NodeId, ctx: &mut Context<SkueueMsg<T>>) {
        // The leaver's stored data *moves* to the absorber — no payload
        // clones; the store is left empty for the draining role.
        let (entries, pending) = self
            .requests_mut()
            .map(|r| r.store_mut().take_all())
            .unwrap_or_default();
        let children = self.lanes.of(LaneKind::Child);
        let child_batches = self
            .waves
            .as_deref_mut()
            .map(|w| w.drain_child_batches(&children))
            .unwrap_or_default();
        // Joiners this node was responsible for but never integrated (their
        // announcement can race the leave) move to the absorber wholesale,
        // and so does churn forwarded under an absent parent.
        let (mut joiners, mut count, m) = (Vec::new(), 0, self.membership_mut());
        m.duties.retain(|d| match (d.kind, d.step, d.report) {
            (DutyKind::Joiner(info), Step::Pending, _) => {
                joiners.push(info);
                false
            }
            (DutyKind::Count(churn), _, Report::Unflagged) => {
                count += churn;
                false
            }
            // Dropped, not handed over: unreported counts and granted
            // leavers, which the draining node never reports or absorbs — a
            // known gap (ROADMAP item 1's leads).  Only the phase-end relays
            // are still owed.
            _ => d.relay,
        });
        let payload = AbsorbPayload {
            pred: self.view.pred(),
            succ: self.view.succ(),
            entries,
            pending,
            child_batches,
            joiners,
            anchor: self.take_anchor(),
        };
        ctx.send(from, SkueueMsg::AbsorbData(Box::new(payload)));
        if count > 0 {
            ctx.send(from, SkueueMsg::ChurnHandover { count });
        }
        let process = self.process().0;
        self.trace(ctx, |round| TraceEvent::Absorbed { process, round });
        self.announce_sibling_status(false, ctx);
        self.lifecycle = Lifecycle::Draining {
            resumed: self.resumed(),
        };
        Cold::of(&mut self.cold).drain_into(from);
    }

    fn handle_absorb_data(
        &mut self,
        from: NodeId,
        payload: AbsorbPayload<T>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        // Inherit not-yet-forwarded sub-batches of the leaver's children
        // (per-child FIFO order preserved; they are combined into this
        // node's next wave and served back under the children's epochs).
        for (child, epoch, batch) in payload.child_batches {
            self.queue_child_batch(child, epoch, batch);
        }
        // Take over the leaver's pending joiners and re-count them so a
        // future update phase integrates them here.
        let m = self.membership_mut();
        for info in payload.joiners {
            m.take_on(DutyKind::Joiner(info));
        }
        // Splice the leaver out of the cycle.  The leaver is *usually* still
        // our direct successor, but joiners integrated during the same update
        // phase may have been spliced in between after the leave was granted —
        // then the last spliced joiner (the leaver's current predecessor)
        // inherits the leaver's right edge, not us.
        if payload.succ.node == from {
            // The leaver was its own successor (single-node corner case);
            // nothing to re-link.
        } else if self.view.succ().node == from {
            if payload.succ.node == self.view.me().node {
                // Two-node ring: we become our own neighbour.
                self.view.set_succ(self.view.me());
                self.view.set_pred(self.view.me());
            } else {
                self.view.set_succ(payload.succ);
                let new_pred = self.view.me();
                ctx.send(payload.succ.node, SkueueMsg::SetPred { new_pred });
            }
        } else if payload.pred.node != self.view.me().node {
            // A spliced joiner sits between us and the leaver; re-link the
            // leaver's actual neighbours with each other.
            let (new_pred, new_succ) = (payload.pred, payload.succ);
            ctx.send(new_pred.node, SkueueMsg::SetSucc { new_succ });
            if new_succ.node == self.view.me().node {
                self.view.set_pred(new_pred);
            } else {
                ctx.send(new_succ.node, SkueueMsg::SetPred { new_pred });
            }
        } else {
            // Our successor already moved on to a spliced joiner, but the
            // leaver handed itself over before processing that splice's
            // `SetPred`, so its view still names us as predecessor.  The
            // in-flight `SetPred` reaches the (by then draining) leaver,
            // which performs the re-link — see the draining branch of the
            // `SetPred` handler.
        }
        self.take_over_store(payload.entries, payload.pending, ctx);
        // If the leaver held the anchor state, pass it on to the new leftmost
        // node (the leaver's successor); the cluster normally prevents this
        // case, but handle it defensively.
        if let Some(state) = payload.anchor {
            ctx.send(self.view.succ().node, SkueueMsg::AnchorTransfer { state });
        }
        // The leaver is out of the new tree; it moves behind the leavers
        // absorbed before it, so the phase-ending `UpdateOver` still reaches
        // its old subtree through it.
        let (m, leaver) = (self.membership_mut(), DutyKind::Leaver(from));
        let report = m
            .open(leaver)
            .map_or(Report::Reported, |i| m.duties.remove(i).report);
        let mut absorbed = Duty::new(leaver, Step::Answered, report);
        absorbed.relay = true;
        m.duties.push(absorbed);
        self.check_update_done(ctx);
    }

    /// Takes over a leaver's stored entries and parked GETs once the leaver
    /// is spliced out.  What this node now owns it keeps.  What it does not
    /// own goes on to the node that does, routed along the cycle: an entry
    /// as a [`DhtOp::Move`], a parked GET as the GET it was.  That is the
    /// leaver's whole range when a joiner spliced in between this node and
    /// the leaver in the same phase: the joiner owns it now, and the GETs
    /// for it park there.
    fn take_over_store(
        &mut self,
        entries: Vec<StoredEntry<T>>,
        pending: Vec<(u64, PendingGet)>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        let hasher = self.cfg.hasher();
        let view = self.view;
        let (entries, moved): (Vec<_>, Vec<_>) = entries
            .into_iter()
            .partition(|entry| view.is_responsible_for(entry.key));
        let (pending, rerouted): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .partition(|&(position, _)| view.is_responsible_for(hasher.position_key(position)));
        for satisfied in self.store_mut().absorb(entries, pending) {
            Self::reply_to(&mut self.lanes, satisfied, ctx);
        }
        for entry in moved {
            let progress = RouteProgress::linear_only(entry.key);
            self.dispatch_dht(Box::new(DhtOp::Move { entry }), progress, ctx);
        }
        for (position, get) in rerouted {
            let progress = RouteProgress::linear_only(hasher.position_key(position));
            let op = DhtOp::Get {
                position,
                max_ticket: get.max_ticket,
                request: get.request,
                requester: get.requester,
            };
            self.dispatch_dht(Box::new(op), progress, ctx);
        }
    }

    // ---------------------------------------------------------------------
    // Update phase.
    // ---------------------------------------------------------------------

    /// Enters the update phase: suspends batching, flags this node's current
    /// children (exactly the set it will await `UpdateAck`s from), performs
    /// its integration/absorption duties, and prepares the ack bookkeeping.
    /// `old_parent` is the node the flag came from (`None` at the anchor) —
    /// the node this one acks to once its subtree is done.
    pub(crate) fn enter_update_phase(
        &mut self,
        phase: u64,
        old_parent: Option<NodeId>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        // Phase monotonicity: a node never participates in an older phase
        // after a younger one (the phase tag on update control plus the
        // staleness guard in `handle_update_over` guarantee it; debug runs
        // of `skueue-model`'s scenario search check it on every line;
        // release builds keep no phase stamp).
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                phase >= self.last_update_phase,
                "update phases must be monotone at {}: entering {} after {}",
                self.view.me().vid,
                phase,
                self.last_update_phase
            );
            self.last_update_phase = phase;
        }
        self.trace(ctx, |round| TraceEvent::PhaseEnter { phase, round });
        let awaiting_child_acks = self.tree_children().to_vec();
        // Flag the children *before* integrating joiners or splicing the
        // cycle, so the flagged set matches the awaited set.
        for &child in &awaiting_child_acks {
            ctx.send(child, SkueueMsg::UpdateFlag { phase });
        }
        self.integrate_joiners(phase, ctx);
        // Ask granted leavers for their state, in grant order.
        let m = self.membership_mut();
        for d in &mut m.duties {
            if let (DutyKind::Leaver(leaver), Step::Pending) = (d.kind, d.step) {
                ctx.send(leaver, SkueueMsg::AbsorbRequest);
                d.step = Step::Asked(phase);
            }
        }
        m.update = Some(UpdatePhase {
            phase,
            awaiting_child_acks,
            old_parent,
            acked: false,
        });
        self.check_update_done(ctx);
    }

    /// Checks whether this node has finished all update-phase duties and can
    /// acknowledge to its old parent (or, at the anchor, end the phase).
    pub(crate) fn check_update_done(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        let Some(m) = Cold::membership(&mut self.cold) else {
            return;
        };
        let Some(u) = m.update.as_mut() else {
            return;
        };
        let done = !u.acked
            && u.awaiting_child_acks.is_empty()
            && !m.duties.iter().any(|d| d.step == Step::Asked(u.phase));
        if !done {
            return;
        }
        u.acked = true;
        let (old_parent, phase) = (u.old_parent, u.phase);
        match old_parent {
            Some(parent) => ctx.send(parent, SkueueMsg::UpdateAck { phase }),
            None => self.finish_update_phase(phase, ctx),
        }
    }

    /// The (old) anchor ends the update phase: either by broadcasting
    /// `UpdateOver` down the new tree, or — when a smaller-labelled node has
    /// joined — by handing the anchor state to the new leftmost node first.
    fn finish_update_phase(&mut self, phase: u64, ctx: &mut Context<SkueueMsg<T>>) {
        if self.view.is_anchor() || !self.is_anchor_node() {
            // Still the leftmost node (or not the anchor at all — defensive):
            // end the phase ourselves.
            self.handle_update_over(phase, ctx);
        } else {
            // A node with a smaller label exists now; walk the anchor state
            // towards it.  The new anchor ends the update phase.
            let state = self.take_anchor().expect("checked above");
            ctx.send(self.view.pred().node, SkueueMsg::AnchorTransfer { state });
            // Resume ourselves; `UpdateOver` from the new anchor will also be
            // forwarded to our subtree.
        }
    }

    fn handle_update_over(&mut self, phase: u64, ctx: &mut Context<SkueueMsg<T>>) {
        // The staleness guard: the `model-mutation` feature removes it, and
        // `skueue-model`'s mutation gate (`crates/model/tests/mutation_gate.rs`)
        // shows that the scenario search then finds the race on this node;
        // `tests/model_regressions.rs` pins a line that needs the guard.
        #[cfg(not(feature = "model-mutation"))]
        if let Some(update) = self.update() {
            if update.phase > phase {
                // A delayed end-of-phase message from an *older* phase must
                // not cancel the younger phase this node is participating in
                // (it would wipe the ack bookkeeping and wedge the phase).
                return;
            }
        }
        // Forward only when this node was actually participating (in the
        // phase, or suspended as a freshly integrated joiner): a stray
        // duplicate must not cascade down the whole subtree again, and a
        // node that skipped the phase has no participants below it.
        let participating = self.suspended();
        if let Lifecycle::Member { resumed, .. } | Lifecycle::Draining { resumed, .. } =
            &mut self.lifecycle
        {
            *resumed = true;
        }
        if participating {
            self.trace(ctx, |round| TraceEvent::PhaseOver { phase, round });
            for child in self.tree_children() {
                ctx.send(child, SkueueMsg::UpdateOver { phase });
            }
        }
        // A freshly integrated joiner resumes with no bookkeeping at all.
        let Some(m) = Cold::membership(&mut self.cold) else {
            return;
        };
        m.update = None;
        if participating {
            // Relay the phase end to the leavers absorbed in it, in
            // absorption order, then to the joiners spliced in, clockwise.
            for leavers in [true, false] {
                let relays = m.duties.iter_mut();
                for d in relays.filter(|d| d.relay && d.is_leaver() == leavers) {
                    d.relay = false;
                    if let DutyKind::Joiner(NeighborInfo { node, .. }) | DutyKind::Leaver(node) =
                        d.kind
                    {
                        ctx.send(node, SkueueMsg::UpdateOver { phase });
                    }
                }
            }
        }
        // Duties this node could not discharge in the phases it saw —
        // joiners announced after its `integrate_joiners` ran, leavers
        // granted after its absorb requests went out, or phases it had to
        // decline while busy with an older one — are reported again, so a
        // future phase picks them up.
        for d in m.duties.iter_mut().filter(|d| d.step == Step::Pending) {
            d.report = Report::Unreported;
        }
    }

    fn handle_anchor_transfer(&mut self, state: AnchorState, ctx: &mut Context<SkueueMsg<T>>) {
        if self.view.is_anchor() {
            let phase = state.phases_started;
            self.adopt_anchor(state);
            // The new anchor ends the update phase for everyone.
            self.handle_update_over(phase, ctx);
        } else {
            // Keep walking left.
            ctx.send(self.view.pred().node, SkueueMsg::AnchorTransfer { state });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Batch, FirstRun};
    use crate::config::{Mode, ProtocolConfig};
    use crate::membership::joining_nodes;
    use skueue_overlay::{
        node_of, recommended_bit_budget, LabelHasher, Topology, VKind, VirtualId,
    };
    use skueue_sim::actor::Actor;
    use skueue_sim::ids::ProcessId;
    use std::sync::Arc;

    type Sent = Vec<(NodeId, SkueueMsg<u64>)>;

    /// What membership costs: the lifecycle inline on every node, the
    /// bookkeeping in its cold box only while something is outstanding,
    /// and one duty per joiner, leaver or count in it.
    #[test]
    fn a_lifecycle_is_4_bytes_and_the_bookkeeping_136() {
        use std::mem::size_of;
        assert!(size_of::<Lifecycle>() <= 4);
        assert!(size_of::<Membership<u64>>() <= 136);
        assert!(size_of::<Duty>() <= 56);
    }

    fn config() -> Arc<ProtocolConfig> {
        Arc::new(ProtocolConfig {
            bit_budget: recommended_bit_budget(4),
            ..ProtocolConfig::queue()
        })
    }

    /// The middle node of process 0 in a four-process queue (not the
    /// anchor: its tree parent is its left sibling).
    fn member() -> SkueueNode<u64> {
        node_at(VirtualId::middle(ProcessId(0)), false)
    }

    /// The node `vid` of a four-process queue, holding the anchor state
    /// or not (whatever its place in the cycle).
    fn node_at(vid: VirtualId, anchor: bool) -> SkueueNode<u64> {
        let pids: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let topology = Topology::build(&pids, LabelHasher::default()).expect("distinct pids");
        let view = topology.local_view(vid, &node_of).expect("own vid");
        SkueueNode::new(config(), 0, view, anchor)
    }

    /// The leftmost node of the four-process queue's cycle.
    fn leftmost() -> VirtualId {
        let pids: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let topology = Topology::build(&pids, LabelHasher::default()).expect("distinct pids");
        topology.anchor()
    }

    /// Runs `f` on `node` in a context of `round`; what it sent.
    fn step(
        node: &mut SkueueNode<u64>,
        round: u64,
        f: impl FnOnce(&mut SkueueNode<u64>, &mut Context<SkueueMsg<u64>>),
    ) -> Sent {
        let mut ctx = Context::new(node.view.me().node, round);
        f(node, &mut ctx);
        ctx.into_outbox()
    }

    fn to_each(nodes: &[NodeId], msg: SkueueMsg<u64>) -> Sent {
        nodes.iter().map(|&n| (n, msg.clone())).collect()
    }

    /// `Wanted` → `LeaveRequest` → `LeaveDeferred` → `Wanted` → asked again
    /// on the next timeout → `LeaveGranted` → an `AbsorbRequest` deferred
    /// while a wave is in flight → `AbsorbData` on the first timeout after
    /// the wave is served → `Draining`.
    #[test]
    fn a_leaver_asks_again_after_a_deferral_and_goes_once_its_waves_are_served() {
        let mut node = member();
        let (me, pred) = (node.view.me(), node.view.pred().node);
        let (parent, child) = (node.tree_parent().unwrap(), NodeId(1000));
        // A child's sub-batch puts a wave in flight; the own log stays empty.
        let batch = Batch::from_parts(FirstRun::Enqueues, vec![2], 0, 0);
        let sent = step(&mut node, 2, |n, ctx| {
            let aggregate = SkueueMsg::Aggregate {
                child,
                epoch: 1,
                batch,
            };
            n.on_message(child, aggregate, ctx);
            n.on_timeout(ctx);
        });
        let (epoch, batch) = sent
            .into_iter()
            .find_map(|(to, msg)| match msg {
                SkueueMsg::Aggregate { epoch, batch, .. } if to == parent => Some((epoch, batch)),
                _ => None,
            })
            .expect("the sub-batch opened a wave");
        assert!(!node.wants_timeout(), "the aggregate is unconfirmed");

        node.request_leave();
        assert_eq!(node.leave(), Leave::Wanted);
        assert!(node.wants_timeout());
        let ask = SkueueMsg::LeaveRequest { leaver: me };
        let sent = step(&mut node, 3, |n, ctx| n.on_timeout(ctx));
        assert_eq!(sent, [(pred, ask.clone())]);
        assert_eq!(node.leave(), Leave::Requested);
        assert!(!node.wants_timeout());

        // The predecessor leaves first: back to `Wanted`, asked again.
        let sent = step(&mut node, 4, |n, ctx| {
            n.on_message(pred, SkueueMsg::LeaveDeferred, ctx)
        });
        assert_eq!(sent, []);
        assert_eq!(node.leave(), Leave::Wanted);
        assert!(node.wants_timeout());
        let sent = step(&mut node, 5, |n, ctx| n.on_timeout(ctx));
        assert_eq!(sent, [(pred, ask)]);
        assert!(!node.wants_timeout());

        let sent = step(&mut node, 6, |n, ctx| {
            n.on_message(pred, SkueueMsg::LeaveGranted, ctx)
        });
        assert_eq!(sent, []);
        assert_eq!(node.leave(), Leave::Granted);
        assert!(!node.wants_timeout());

        // Asked for its state with a wave in flight: it waits.
        let sent = step(&mut node, 7, |n, ctx| {
            n.on_message(pred, SkueueMsg::AbsorbRequest, ctx)
        });
        assert_eq!(sent, []);
        assert!(
            node.wants_timeout(),
            "the deferred hand-over wakes the node"
        );
        assert_eq!(step(&mut node, 8, |n, ctx| n.on_timeout(ctx)), []);
        assert!(node.is_integrated());

        // The wave is served: the next timeout hands the node over.
        let runs = AnchorState::new().assign_wave(&batch, Mode::Queue);
        let sent = step(&mut node, 9, |n, ctx| {
            n.on_message(parent, SkueueMsg::Serve { epoch, runs }, ctx);
            n.on_timeout(ctx);
        });
        let served = |(to, msg): &(NodeId, SkueueMsg<u64>)| {
            *to == child && matches!(msg, SkueueMsg::Serve { .. })
        };
        assert!(served(&sent[0]), "{sent:?}");
        assert!(matches!(&sent[1], (to, SkueueMsg::AbsorbData(_)) if *to == pred));
        let siblings: Vec<NodeId> = sent[2..].iter().map(|(to, _)| *to).collect();
        let left = SkueueMsg::SiblingStatus {
            kind: me.kind(),
            active: false,
        };
        assert_eq!(sent[2..], to_each(&siblings, left));
        assert_eq!(siblings.len(), 2);
        assert_eq!(node.lifecycle, Lifecycle::Draining { resumed: true });
        assert_eq!(node.absorber(), Some(pred));
        assert!(node.has_left() && !node.wants_timeout());
    }

    /// A joiner announces itself once, is a member but suspended from
    /// `Integrate` on — a flag is acked at once, no wave of its own opens —
    /// and resumes on the phase's `UpdateOver`, which it passes on.  A
    /// leave asked for while it joins survives the integration.
    #[test]
    fn a_joiner_announces_once_and_stays_suspended_until_the_phase_ends() {
        let responsible = member();
        let (by, succ) = (responsible.view.me(), responsible.view.succ());
        let [_, mut node, _] = joining_nodes::<u64>(&config(), 0, ProcessId(4), by.node);
        let me = node.view.me();
        assert!(node.wants_timeout());
        let sent = step(&mut node, 1, |n, ctx| n.on_timeout(ctx));
        assert!(
            matches!(&sent[..], [(to, SkueueMsg::JoinRequest { joiner, .. })]
                if *to == by.node && *joiner == me),
            "{sent:?}"
        );
        assert!(!node.wants_timeout());
        assert_eq!(step(&mut node, 2, |n, ctx| n.on_timeout(ctx)), []);
        node.request_leave();
        assert!(
            !node.wants_timeout(),
            "a joiner asks to leave once it is a member"
        );

        let handover = JoinHandover {
            pred: by,
            succ,
            entries: Vec::new(),
            pending: Vec::new(),
        };
        let integrate = SkueueMsg::Integrate {
            handover: Box::new(handover),
        };
        let sent = step(&mut node, 3, |n, ctx| n.on_message(by.node, integrate, ctx));
        let siblings: Vec<NodeId> = sent[..2].iter().map(|(to, _)| *to).collect();
        let active = SkueueMsg::SiblingStatus {
            kind: me.kind(),
            active: true,
        };
        let mut expected = to_each(&siblings, active);
        expected.push((by.node, SkueueMsg::IntegrateAck));
        assert_eq!(sent, expected);
        assert_eq!(
            node.lifecycle,
            Lifecycle::Member {
                leave: Leave::Wanted,
                resumed: false
            }
        );
        assert!(node.suspended());

        // No duties in a phase yet: a flag is acked at once.
        let flag = SkueueMsg::UpdateFlag { phase: 1 };
        let sent = step(&mut node, 4, |n, ctx| n.on_message(by.node, flag, ctx));
        assert_eq!(sent, [(by.node, SkueueMsg::UpdateAck { phase: 1 })]);
        assert!(node.update().is_none() && node.suspended());

        // The phase's end resumes it and reaches its children.
        let children = node.tree_children().to_vec();
        let over = SkueueMsg::UpdateOver { phase: 1 };
        let sent = step(&mut node, 5, |n, ctx| {
            n.on_message(by.node, over.clone(), ctx)
        });
        assert_eq!(sent, to_each(&children, over));
        assert!(!node.suspended());
        assert!(node.wants_timeout(), "the wanted leave is asked for now");
    }

    /// The responsible node's side of a join as one duty: announced and
    /// unreported, reported by the next wave, asked in the phase, answered
    /// by the ack, relayed the phase end, then gone with the bookkeeping.
    #[test]
    fn a_joiner_duty_is_reported_spliced_acked_relayed_and_dropped() {
        let mut node = member();
        let (me, old_succ) = (node.view.me(), node.view.succ());
        let parent = node.tree_parent().unwrap();
        let gap = me.label.cw_distance(old_succ.label);
        let vid = VirtualId::middle(ProcessId(4));
        let joiner = NeighborInfo::new(node_of(vid), vid, Label(me.label.0 + gap / 2));
        node.membership_mut().take_on(DutyKind::Joiner(joiner));
        node.membership_mut().take_on(DutyKind::Joiner(joiner));
        assert_eq!(node.membership().unwrap().unreported(), (1, 0));
        assert!(node.wants_timeout());

        let sent = step(&mut node, 2, |n, ctx| n.on_timeout(ctx));
        let churn = SkueueMsg::Aggregate {
            child: me.node,
            epoch: 1,
            batch: Batch::from_parts(FirstRun::Enqueues, Vec::new(), 1, 0),
        };
        assert_eq!(sent, [(parent, churn)]);
        assert_eq!(node.membership().unwrap().unreported(), (0, 0));

        let children = node.tree_children().to_vec();
        let flag = SkueueMsg::UpdateFlag { phase: 1 };
        let sent = step(&mut node, 3, |n, ctx| {
            n.on_message(parent, flag.clone(), ctx)
        });
        let mut expected = to_each(&children, flag);
        let handover = JoinHandover {
            pred: me,
            succ: old_succ,
            entries: Vec::new(),
            pending: Vec::new(),
        };
        let integrate = SkueueMsg::Integrate {
            handover: Box::new(handover),
        };
        expected.push((joiner.node, integrate));
        expected.push((old_succ.node, SkueueMsg::SetPred { new_pred: joiner }));
        assert_eq!(sent, expected);
        assert_eq!(node.joiner_responsible_for(joiner.label), Some(joiner.node));

        let sent = step(&mut node, 4, |n, ctx| {
            n.on_message(joiner.node, SkueueMsg::IntegrateAck, ctx);
            for &child in &children {
                n.on_message(child, SkueueMsg::UpdateAck { phase: 1 }, ctx);
            }
        });
        assert_eq!(sent, [(parent, SkueueMsg::UpdateAck { phase: 1 })]);
        assert_eq!(node.joiner_responsible_for(joiner.label), None);

        let children = node.tree_children().to_vec();
        let over = SkueueMsg::UpdateOver { phase: 1 };
        let sent = step(&mut node, 5, |n, ctx| {
            n.on_message(parent, over.clone(), ctx)
        });
        let mut expected = to_each(&children, over.clone());
        expected.push((joiner.node, over));
        assert_eq!(sent, expected);
        assert!(node.cold.is_none(), "every duty discharged");
    }

    /// The anchor keeps its cold box.  A holder of the anchor state that is
    /// not the leftmost node hands it leftwards on its next `SetPred`, and
    /// drops its box at the end of that step if nothing else is in it; a
    /// box that still holds a duty stays.  The leftmost node adopts the
    /// state into a box of its own.
    #[test]
    fn the_anchor_state_moves_with_its_cold_box() {
        let anchor = node_at(leftmost(), true);
        assert!(anchor.cold.is_some() && anchor.anchor_state().is_some());

        let mut state = AnchorState::new();
        state.epoch = 7;
        let duty = |n: &mut SkueueNode<u64>| {
            let (me, succ) = (n.view.me().label, n.view.succ().label);
            let vid = VirtualId::middle(ProcessId(4));
            let label = Label(me.0 + me.cw_distance(succ) / 2);
            let joiner = NeighborInfo::new(node_of(vid), vid, label);
            n.membership_mut().take_on(DutyKind::Joiner(joiner));
        };
        for with_duty in [false, true] {
            let mut sender = member();
            sender.adopt_anchor(state);
            if with_duty {
                duty(&mut sender);
            }
            let pred = sender.view.pred();
            let sent = step(&mut sender, 1, |n, ctx| {
                n.on_message(pred.node, SkueueMsg::SetPred { new_pred: pred }, ctx)
            });
            assert_eq!(sent, [(pred.node, SkueueMsg::AnchorTransfer { state })]);
            assert!(!sender.is_anchor_node());
            assert_eq!(sender.cold.is_some(), with_duty);
            assert_eq!(sender.membership().is_some(), with_duty);
        }

        let mut receiver = node_at(leftmost(), false);
        assert!(receiver.cold.is_none());
        let from = member().view.me().node;
        let sent = step(&mut receiver, 2, |n, ctx| {
            n.on_message(from, SkueueMsg::AnchorTransfer { state }, ctx)
        });
        assert_eq!(sent, []);
        assert_eq!(receiver.anchor_state(), Some(&state));
        assert!(receiver.cold.is_some(), "the anchor keeps its box");
        assert!(receiver.membership().is_none() && receiver.absorber().is_none());
    }

    /// A draining node finds its absorber in its cold box, which it keeps:
    /// it forwards every message that is not node-local there and drops
    /// the node-local ones.
    #[test]
    fn a_draining_node_forwards_to_the_absorber_in_its_cold_box() {
        let mut node = member();
        let (me, pred, succ) = (node.view.me(), node.view.pred(), node.view.succ());
        let sent = step(&mut node, 1, |n, ctx| {
            n.on_message(pred.node, SkueueMsg::AbsorbRequest, ctx);
            n.on_timeout(ctx);
        });
        assert!(matches!(&sent[0], (to, SkueueMsg::AbsorbData(_)) if *to == pred.node));
        assert!(node.has_left());
        assert_eq!(node.absorber(), Some(pred.node));

        let leave = SkueueMsg::LeaveRequest { leaver: succ };
        let sent = step(&mut node, 2, |n, ctx| {
            n.on_message(succ.node, leave.clone(), ctx);
            n.on_timeout(ctx);
        });
        assert_eq!(sent, [(pred.node, leave)]);

        let sibling = VKind::ALL.into_iter().find(|&k| k != me.kind()).unwrap();
        let sent = step(&mut node, 3, |n, ctx| {
            let status = SkueueMsg::SiblingStatus {
                kind: sibling,
                active: false,
            };
            n.on_message(n.view.sibling(sibling).node, status, ctx);
            n.on_message(succ.node, SkueueMsg::SetSucc { new_succ: succ }, ctx);
            n.on_timeout(ctx);
        });
        assert_eq!(sent, []);
        assert_eq!(node.absorber(), Some(pred.node));
    }
}
