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

use crate::anchor::AnchorState;
use crate::messages::{AbsorbPayload, DhtOp, DhtReplyItem, JoinHandover, SkueueMsg};
use crate::node::{JoinerRecord, LaneKind, LeaverRecord, Role, SkueueNode, UpdatePhase, Work};
use skueue_dht::{Payload, PendingGet, StoredEntry};
use skueue_overlay::{route_step, Label, NeighborInfo, RouteAction, RouteProgress};
use skueue_sim::actor::Context;
use skueue_sim::ids::NodeId;
use skueue_trace::TraceEvent;

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
        self.membership_mut().wants_to_leave = true;
    }

    /// True once the node has fully left (drains towards its absorber).
    pub fn has_left(&self) -> bool {
        matches!(self.role, Role::Draining { .. })
    }

    /// True if the node is an integrated member of the overlay.
    pub fn is_integrated(&self) -> bool {
        matches!(self.role, Role::Active)
    }

    // ---------------------------------------------------------------------
    // Timeout hooks.
    // ---------------------------------------------------------------------

    /// Timeout behaviour of a joining node: announce the join once.
    pub(crate) fn joining_timeout(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        let Some(m) = self.membership.as_deref_mut() else {
            return; // no bootstrap contact yet
        };
        if m.join_sent {
            return;
        }
        if let Some(bootstrap) = m.bootstrap {
            let joiner = self.view.me();
            let progress = RouteProgress::new(joiner.label, self.cfg.bit_budget);
            ctx.send(bootstrap, SkueueMsg::JoinRequest { joiner, progress });
            m.join_sent = true;
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
        if self.membership.is_none() {
            return; // the steady state: no membership duty of any kind
        }
        self.maybe_complete_deferred_absorb(ctx);
        let Some(m) = self.membership.as_deref_mut() else {
            return;
        };
        if m.wants_to_leave
            && !m.leave_requested
            && !m.leave_granted
            && self
                .work
                .as_deref()
                .is_none_or(|w| w.own_log.is_empty() && w.outstanding_gets.is_empty())
            && m.pending_leavers.is_empty()
            && self.anchor.is_none()
        {
            ctx.send(
                self.view.pred().node,
                SkueueMsg::LeaveRequest {
                    leaver: self.view.me(),
                },
            );
            m.leave_requested = true;
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
                if let Some(m) = self.membership.as_deref_mut() {
                    if let Some(update) = m.update.as_mut() {
                        update.awaiting_integrate_acks =
                            update.awaiting_integrate_acks.saturating_sub(1);
                    }
                    m.joiners.retain(|j| j.info.node != from);
                }
                self.check_update_done(ctx);
            }
            SkueueMsg::LeaveRequest { leaver } => self.handle_leave_request(leaver, ctx),
            SkueueMsg::LeaveGranted => {
                self.membership_mut().leave_granted = true;
            }
            SkueueMsg::LeaveDeferred => {
                // Retry on a later timeout (once the conflicting neighbour has
                // left, the new predecessor will grant the request).
                self.membership_mut().leave_requested = false;
            }
            SkueueMsg::AbsorbRequest => self.handle_absorb_request(from, ctx),
            SkueueMsg::AbsorbData(payload) => self.handle_absorb_data(from, *payload, ctx),
            // Churn that passed through a leaver while no flag could reach
            // its subtree: report it again, so a phase flags the subtree
            // through us.
            SkueueMsg::ChurnHandover { count } => {
                self.membership_mut().pending_leave_count += count;
            }
            SkueueMsg::SiblingStatus { kind, active } => {
                self.sibling_integrated[kind.index()] = active;
                // Back below an integrated parent: the churn forwarded while
                // the parent was out of the tree is reported again, so a
                // phase flags this node's subtree.
                let attached = active && !self.parent_is_absent_sibling();
                if let Some(m) = self.membership.as_deref_mut().filter(|_| attached) {
                    m.pending_leave_count += std::mem::take(&mut m.unflagged_churn);
                }
            }
            SkueueMsg::SetPred { new_pred } => {
                if matches!(self.role, Role::Draining { .. }) {
                    // A splice notification caught up with a node that has
                    // already handed itself over: whoever now precedes this
                    // position must link directly to our successor (we are
                    // out of the cycle), and vice versa.
                    ctx.send(
                        new_pred.node,
                        SkueueMsg::SetSucc {
                            new_succ: self.view.succ(),
                        },
                    );
                    ctx.send(self.view.succ().node, SkueueMsg::SetPred { new_pred });
                    self.view.set_pred(new_pred);
                    return;
                }
                self.view.set_pred(new_pred);
                // Invariant restoration: if we hold the anchor state but are
                // no longer the leftmost node, hand the state leftwards.
                if self.anchor.is_some() && !self.view.is_anchor() && self.update().is_none() {
                    let state = self.take_anchor().expect("checked above");
                    ctx.send(self.view.pred().node, SkueueMsg::AnchorTransfer { state });
                }
            }
            SkueueMsg::SetSucc { new_succ } => self.view.set_succ(new_succ),
            SkueueMsg::UpdateFlag { phase } => {
                if matches!(self.role, Role::Active) && self.update().is_none() && !self.suspended {
                    self.enter_update_phase(phase, Some(from), ctx);
                } else {
                    // Still busy with an older phase, flagged twice across a
                    // splice, freshly integrated (no duties yet, resumes on
                    // `UpdateOver`), or draining: confirm right away so the
                    // flagger never waits on us.  Duties this node thereby
                    // misses re-arm themselves when its own phase ends (see
                    // `handle_update_over`).
                    ctx.send(from, SkueueMsg::UpdateAck { phase });
                }
            }
            SkueueMsg::UpdateAck { phase } => {
                if let Some(update) = self.update_mut() {
                    if update.phase == phase {
                        update.awaiting_child_acks.retain(|&c| c != from);
                    }
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
            RouteAction::Deliver => {
                // This node is responsible for the joiner.
                let m = self.membership_mut();
                if m.joiners.iter().any(|j| j.info.node == joiner.node) {
                    return; // duplicate announcement
                }
                m.joiners.push(JoinerRecord {
                    info: joiner,
                    handed_over: false,
                });
                m.pending_join_count += 1;
            }
        }
    }

    /// Splices all joiners this node is responsible for into the cycle and
    /// hands each its share of the DHT data.  Called during the update phase.
    fn integrate_joiners(&mut self, ctx: &mut Context<SkueueMsg<T>>) -> usize {
        let Some(m) = self.membership.as_deref_mut() else {
            return 0;
        };
        let mut joiners: Vec<JoinerRecord> = m
            .joiners
            .iter()
            .filter(|j| !j.handed_over)
            .copied()
            .collect();
        if joiners.is_empty() {
            return 0;
        }
        // Sort by ring position clockwise from this node so the chain
        // me → j₁ → … → j_k → old_succ is correctly ordered even when the gap
        // wraps around the top of the ring.
        let me_label = self.view.me().label;
        joiners.sort_by_key(|j| me_label.cw_distance(j.info.label));
        let old_succ = self.view.succ();

        // Hand out the data and the final neighbour pointers.  Remember the
        // joiners so the phase-ending `UpdateOver` reaches them even if
        // their `SiblingStatus` races the broadcast at their tree parents.
        m.integrated_joiners
            .extend(joiners.iter().map(|j| j.info.node));
        for j in &mut m.joiners {
            j.handed_over = true;
        }
        let count = joiners.len();
        for (i, j) in joiners.iter().enumerate() {
            let pred = if i == 0 {
                self.view.me()
            } else {
                joiners[i - 1].info
            };
            let succ = if i + 1 < count {
                joiners[i + 1].info
            } else {
                old_succ
            };
            let (entries, pending) = self.extract_store_range(j.info.label, succ.label);
            ctx.send(
                j.info.node,
                SkueueMsg::Integrate {
                    handover: Box::new(JoinHandover {
                        pred,
                        succ,
                        entries,
                        pending,
                    }),
                },
            );
        }
        // Update the cycle around the gap: our successor becomes the first
        // joiner, and the old successor's predecessor becomes the last one.
        self.view.set_succ(joiners[0].info);
        if old_succ.node != self.view.me().node {
            ctx.send(
                old_succ.node,
                SkueueMsg::SetPred {
                    new_pred: joiners[count - 1].info,
                },
            );
        } else {
            // Single-node corner case: we are our own successor; the last
            // joiner becomes our predecessor.
            self.view.set_pred(joiners[count - 1].info);
        }
        count
    }

    fn extract_store_range(
        &mut self,
        lo: Label,
        hi: Label,
    ) -> (Vec<StoredEntry<T>>, Vec<(u64, PendingGet)>) {
        let hasher = self.cfg.hasher();
        Work::of(&mut self.work, &self.cfg)
            .store
            .extract_range_with_keys(lo, hi, |position| hasher.position_key(position))
    }

    fn handle_integrate(
        &mut self,
        from: NodeId,
        handover: JoinHandover<T>,
        ctx: &mut Context<SkueueMsg<T>>,
    ) {
        debug_assert!(matches!(self.role, Role::Joining { .. }));
        self.view.set_pred(handover.pred);
        self.view.set_succ(handover.succ);
        self.role = Role::Active;
        // Do not start batching before the update phase is over.
        self.suspended = true;
        let store = &mut Work::of(&mut self.work, &self.cfg).store;
        for satisfied in store.absorb(handover.entries, handover.pending) {
            let reply = DhtReplyItem {
                request: satisfied.get.request,
                entry: satisfied.entry,
            };
            Self::stage(&mut self.lanes, satisfied.get.requester, reply, ctx);
        }
        // The join is over: forget what was kept for it, and re-route the
        // DHT operations that arrived while we were not yet part of the
        // cycle (coalesced with everything else this visit routes).
        let m = self.membership_mut();
        m.bootstrap = None;
        m.join_sent = false;
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
        let my_kind = self.view.kind();
        for kind in skueue_overlay::VKind::ALL {
            if kind != my_kind {
                ctx.send(
                    self.view.sibling(kind).node,
                    SkueueMsg::SiblingStatus {
                        kind: my_kind,
                        active,
                    },
                );
            }
        }
    }

    /// A handed-over joiner whose integration message may still be in flight
    /// is the true owner of keys in its range; forward operations to it.
    pub(crate) fn joiner_responsible_for(&self, key: Label) -> Option<NodeId> {
        let joiners = &self.membership()?.joiners;
        let me = self.view.me().label;
        // The best candidate is the handed-over joiner with the largest label
        // that is still ≤ key (in ring order starting from this node).
        joiners
            .iter()
            .filter(|j| j.handed_over)
            .filter(|j| {
                // key must lie clockwise of the joiner and the joiner clockwise of us.
                me.cw_distance(j.info.label) <= me.cw_distance(key)
            })
            .max_by_key(|j| me.cw_distance(j.info.label))
            .map(|j| j.info.node)
    }

    // ---------------------------------------------------------------------
    // Leave (Section IV-B).
    // ---------------------------------------------------------------------

    fn handle_leave_request(&mut self, leaver: NeighborInfo, ctx: &mut Context<SkueueMsg<T>>) {
        // Leftmost-leaves-first priority: if we want to leave ourselves and
        // are to the left of the requester, it has to wait for us.
        let m = self.membership_mut();
        if m.wants_to_leave {
            ctx.send(leaver.node, SkueueMsg::LeaveDeferred);
            return;
        }
        if m.pending_leavers.iter().any(|l| l.info.node == leaver.node) {
            ctx.send(leaver.node, SkueueMsg::LeaveGranted);
            return;
        }
        m.pending_leavers.push(LeaverRecord {
            info: leaver,
            absorb_requested: false,
        });
        m.pending_leave_count += 1;
        ctx.send(leaver.node, SkueueMsg::LeaveGranted);
    }

    /// A leaver may only hand itself over once (a) every in-flight wave of
    /// its own has been served (it has no slot a later `Serve` could still
    /// address) and (b) it has discharged its own update-phase duties (sent
    /// its `UpdateAck`).  The update phase's wave draining (see
    /// `SkueueNode::try_drain_wave`) guarantees in-flight waves keep moving
    /// even below suspended ancestors, so deferring is always temporary.
    pub(crate) fn ready_to_be_absorbed(&self) -> bool {
        self.work.as_deref().is_none_or(|w| w.slots.is_empty())
            && self.update().map(|u| u.acked).unwrap_or(true)
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
        if self.ready_to_be_absorbed() {
            let deferred = self
                .membership
                .as_deref_mut()
                .and_then(|m| m.absorb_deferred.take());
            if let Some(absorber) = deferred {
                self.send_absorb_data(absorber, ctx);
            }
        }
    }

    fn send_absorb_data(&mut self, from: NodeId, ctx: &mut Context<SkueueMsg<T>>) {
        // The leaver's stored data *moves* to the absorber — no payload
        // clones; the store is left empty for the draining role.
        let (entries, pending) = Work::of(&mut self.work, &self.cfg).store.take_all();
        let children = self.lanes.of(LaneKind::Child);
        let child_batches = match self.work.as_deref_mut() {
            Some(work) => work.child_batches.drain_all(children),
            None => Vec::new(),
        };
        // Joiners this node was responsible for but never integrated (their
        // announcement can race the leave) move to the absorber wholesale.
        let m = self.membership_mut();
        let joiners: Vec<NeighborInfo> = std::mem::take(&mut m.joiners)
            .into_iter()
            .filter(|j| !j.handed_over)
            .map(|j| j.info)
            .collect();
        let count = std::mem::take(&mut m.unflagged_churn);
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
        if !self.cfg.trace_level.is_off() {
            let (process, round) = (self.process().0, ctx.round());
            ctx.trace(self.shard, TraceEvent::Absorbed { process, round });
        }
        self.announce_sibling_status(false, ctx);
        self.role = Role::Draining { absorber: from };
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
            if !m.joiners.iter().any(|j| j.info.node == info.node) {
                m.joiners.push(JoinerRecord {
                    info,
                    handed_over: false,
                });
                m.pending_join_count += 1;
            }
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
                ctx.send(
                    payload.succ.node,
                    SkueueMsg::SetPred {
                        new_pred: self.view.me(),
                    },
                );
            }
        } else if payload.pred.node != self.view.me().node {
            // A spliced joiner sits between us and the leaver; re-link the
            // leaver's actual neighbours with each other.
            ctx.send(
                payload.pred.node,
                SkueueMsg::SetSucc {
                    new_succ: payload.succ,
                },
            );
            if payload.succ.node == self.view.me().node {
                self.view.set_pred(payload.pred);
            } else {
                ctx.send(
                    payload.succ.node,
                    SkueueMsg::SetPred {
                        new_pred: payload.pred,
                    },
                );
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
        let m = self.membership_mut();
        m.pending_leavers.retain(|l| l.info.node != from);
        // The leaver is out of the new tree; remember it so the phase-ending
        // `UpdateOver` still reaches its old subtree through it.
        m.absorbed_leavers.push(from);
        if let Some(update) = m.update.as_mut() {
            update.awaiting_absorb_data = update.awaiting_absorb_data.saturating_sub(1);
        }
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
        let store = &mut Work::of(&mut self.work, &self.cfg).store;
        for satisfied in store.absorb(entries, pending) {
            let reply = DhtReplyItem {
                request: satisfied.get.request,
                entry: satisfied.entry,
            };
            Self::stage(&mut self.lanes, satisfied.get.requester, reply, ctx);
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
        // of `skueue-model`'s scenario search check it on every line).
        debug_assert!(
            phase >= self.last_update_phase,
            "update phases must be monotone at {}: entering {} after {}",
            self.view.me().vid,
            phase,
            self.last_update_phase
        );
        self.last_update_phase = phase;
        self.suspended = true;
        if !self.cfg.trace_level.is_off() {
            let round = ctx.round();
            ctx.trace(self.shard, TraceEvent::PhaseEnter { phase, round });
        }
        let awaiting_child_acks = self.tree_children().to_vec();
        // Flag the children *before* integrating joiners or splicing the
        // cycle, so the flagged set matches the awaited set.
        for &child in &awaiting_child_acks {
            ctx.send(child, SkueueMsg::UpdateFlag { phase });
        }
        let integrated = self.integrate_joiners(ctx);
        // Ask granted leavers for their state.
        let mut absorb_requests = 0;
        let m = self.membership_mut();
        for l in &mut m.pending_leavers {
            if !l.absorb_requested {
                ctx.send(l.info.node, SkueueMsg::AbsorbRequest);
                absorb_requests += 1;
                l.absorb_requested = true;
            }
        }
        m.update = Some(UpdatePhase {
            phase,
            awaiting_child_acks,
            old_parent,
            awaiting_integrate_acks: integrated,
            awaiting_absorb_data: absorb_requests,
            acked: false,
        });
        self.check_update_done(ctx);
    }

    /// Checks whether this node has finished all update-phase duties and can
    /// acknowledge to its old parent (or, at the anchor, end the phase).
    pub(crate) fn check_update_done(&mut self, ctx: &mut Context<SkueueMsg<T>>) {
        let Some(u) = self.update_mut() else {
            return;
        };
        let done = !u.acked
            && u.awaiting_child_acks.is_empty()
            && u.awaiting_integrate_acks == 0
            && u.awaiting_absorb_data == 0;
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
        if self.view.is_anchor() || self.anchor.is_none() {
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
        let participating = self.suspended || self.update().is_some();
        self.suspended = false;
        if participating {
            if !self.cfg.trace_level.is_off() {
                let round = ctx.round();
                ctx.trace(self.shard, TraceEvent::PhaseOver { phase, round });
            }
            for child in self.tree_children() {
                ctx.send(child, SkueueMsg::UpdateOver { phase });
            }
        }
        // A freshly integrated joiner resumes with no bookkeeping at all.
        let Some(m) = self.membership.as_deref_mut() else {
            return;
        };
        m.update = None;
        if participating {
            // Leavers absorbed this phase are no longer anyone's tree child,
            // but their old subtrees may contain nodes only reachable
            // through them (a sibling that could not leave yet); relay the
            // phase end.
            for leaver in std::mem::take(&mut m.absorbed_leavers) {
                ctx.send(leaver, SkueueMsg::UpdateOver { phase });
            }
            // Likewise for joiners integrated this phase, whose tree parents
            // may not know them yet (`SiblingStatus` still in flight).
            for joiner in std::mem::take(&mut m.integrated_joiners) {
                ctx.send(joiner, SkueueMsg::UpdateOver { phase });
            }
        }
        // Duties this node could not discharge in the phases it saw —
        // joiners announced after its `integrate_joiners` ran, leavers
        // granted after its absorb requests went out, or phases it had to
        // decline while busy with an older one — re-arm the churn counters
        // so a future phase picks them up.  `max` (not `+=`) keeps this
        // idempotent: an original announcement increment that has not been
        // flushed into a wave yet, or a duplicate `UpdateOver` delivery,
        // must not double-count the same duty.
        let missed = m.joiners.iter().filter(|j| !j.handed_over).count() as u64;
        m.pending_join_count = m.pending_join_count.max(missed);
        let missed = m
            .pending_leavers
            .iter()
            .filter(|l| !l.absorb_requested)
            .count() as u64;
        m.pending_leave_count = m.pending_leave_count.max(missed);
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
