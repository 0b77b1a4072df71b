//! Routing in the Linearized De Bruijn network (Lemma 3).
//!
//! A message addressed to a point `p ∈ [0, 1)` must reach the node
//! *responsible* for `p`, i.e. the node `u` with `u ≤ p < succ(u)` on the
//! cycle.  Following the continuous–discrete approach of Naor/Wieder that the
//! paper's LDB is based on, routing proceeds in two phases:
//!
//! 1. **Distance-halving phase.**  The message carries the first
//!    `k ≈ log₂ n` bits of the target.  Whenever the message is at a
//!    *middle* virtual node `m(u)`, it consumes the next bit `b` and hops
//!    over the virtual edge to `l(u)` (if `b = 0`) or `r(u)` (if `b = 1`) —
//!    whose labels are exactly `(m(u)+b)/2`.  At a left/right node the
//!    message walks one linear hop towards its successor, looking for the
//!    next middle node (middle nodes make up a third of the cycle, so this
//!    costs O(1) hops in expectation).  After all `k` bits are consumed the
//!    message sits within distance `O(2^{-k} + \max\text{gap})` of the
//!    target.
//! 2. **Linear phase.**  The message walks along the cycle (in the shorter
//!    direction) until it reaches the responsible node.
//!
//! Both phases use only the *local* neighbourhood knowledge captured in
//! [`LocalView`]: the node's own label/kind, its cycle predecessor and
//! successor, and its process's two sibling virtual nodes — exactly what the
//! join/leave protocol of Section IV keeps current.  (A pointer to the
//! nearest middle node would shorten the search of phase 1 — 0.6× the hops
//! on a membership that never changes — but nothing in the protocol
//! maintains one under churn; see PERF.md, "overlay — routing".)  The total hop
//! count is `O(log n)` w.h.p.; the property-based tests in `ldb.rs` check
//! this empirically, and the benchmark reports the measured count as
//! `overlay.dht_hops_per_op` and the cost of a step as `overlay.route_step_ns`.

use crate::label::Label;
use crate::vnode::{node_of, vid_of, VKind, VirtualId};
use skueue_sim::ids::NodeId;

/// What one node knows about one of its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborInfo {
    /// Simulator address of the neighbour.
    pub node: NodeId,
    /// Virtual identity (process + kind) of the neighbour.
    pub vid: VirtualId,
    /// Label of the neighbour.
    pub label: Label,
}

impl NeighborInfo {
    /// Creates a neighbour record.
    pub fn new(node: NodeId, vid: VirtualId, label: Label) -> Self {
        NeighborInfo { node, vid, label }
    }

    /// The virtual-node kind of this neighbour.
    pub fn kind(&self) -> VKind {
        self.vid.kind
    }
}

/// The local neighbourhood a virtual node maintains: itself, its cycle
/// predecessor and successor, and the three virtual nodes of its own process
/// (reachable over virtual edges).
///
/// Only what cannot be derived is stored — 48 bytes: the node's own id
/// (its virtual id and its siblings' ids follow from the dense id rule,
/// [`node_of`]), its process's middle label (every sibling label follows
/// from it by [`VKind::label_from_middle`]), and an `(id, label)` pair per
/// cycle neighbour.  The accessors rebuild [`NeighborInfo`]s on demand, and
/// everything that builds or re-points a view hands it `NeighborInfo`s whose
/// id follows the rule (checked in debug builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalView {
    me: NodeId,
    middle: Label,
    pred: (NodeId, Label),
    succ: (NodeId, Label),
}

impl LocalView {
    /// The view of `me`, whose process's middle node is labelled `middle`,
    /// between `pred` and `succ` on the cycle.
    pub fn new(me: NeighborInfo, middle: Label, pred: NeighborInfo, succ: NeighborInfo) -> Self {
        debug_assert_eq!(
            me.label,
            me.kind().label_from_middle(middle),
            "{} is not labelled after its middle node",
            me.vid
        );
        LocalView {
            me: Self::compact(me).0,
            middle,
            pred: Self::compact(pred),
            succ: Self::compact(succ),
        }
    }

    #[inline]
    fn compact(info: NeighborInfo) -> (NodeId, Label) {
        debug_assert_eq!(
            info.node,
            node_of(info.vid),
            "{} is not addressed by the dense id rule",
            info.vid
        );
        (info.node, info.label)
    }

    #[inline]
    fn expand((node, label): (NodeId, Label)) -> NeighborInfo {
        NeighborInfo::new(node, vid_of(node), label)
    }

    /// The kind of this node.
    #[inline]
    pub fn kind(&self) -> VKind {
        VKind::from_index((self.me.0 % 3) as usize)
    }

    /// This node's label.
    #[inline]
    fn label(&self) -> Label {
        self.kind().label_from_middle(self.middle)
    }

    /// The id of this process's virtual node of the given kind.
    #[inline]
    fn sibling_id(&self, kind: VKind) -> NodeId {
        NodeId(self.me.0 - self.me.0 % 3 + kind.index() as u64)
    }

    /// This node.
    #[inline]
    pub fn me(&self) -> NeighborInfo {
        Self::expand((self.me, self.label()))
    }

    /// Cycle predecessor (`pred(v)`).
    #[inline]
    pub fn pred(&self) -> NeighborInfo {
        Self::expand(self.pred)
    }

    /// Cycle successor (`succ(v)`).
    #[inline]
    pub fn succ(&self) -> NeighborInfo {
        Self::expand(self.succ)
    }

    /// The sibling virtual node of the given kind (possibly [`Self::me`]).
    #[inline]
    pub fn sibling(&self, kind: VKind) -> NeighborInfo {
        Self::expand((self.sibling_id(kind), kind.label_from_middle(self.middle)))
    }

    /// Re-points the predecessor edge.
    pub fn set_pred(&mut self, pred: NeighborInfo) {
        self.pred = Self::compact(pred);
    }

    /// Re-points the successor edge.
    pub fn set_succ(&mut self, succ: NeighborInfo) {
        self.succ = Self::compact(succ);
    }

    /// True if this node is responsible for `key`, i.e. `key ∈ [me, succ)`
    /// on the ring.
    #[inline]
    pub fn is_responsible_for(&self, key: Label) -> bool {
        if self.me == self.succ.0 {
            // Single node on the cycle: responsible for everything.
            return true;
        }
        key.in_interval(self.label(), self.succ.1)
    }

    /// True if this node is the anchor (leftmost node): its predecessor edge
    /// wraps around the cycle.
    #[inline]
    pub fn is_anchor(&self) -> bool {
        self.me == self.pred.0 || self.pred.1 > self.label()
    }

    /// True if this node has the maximum label: its successor edge wraps.
    #[inline]
    pub fn successor_wraps(&self) -> bool {
        self.me == self.succ.0 || self.succ.1 < self.label()
    }
}

/// Routing state carried inside a message addressed to a point on the ring.
///
/// The distance-halving bits still to apply are, by construction, the most
/// significant `bits_left` bits of `target` — so only their count travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteProgress {
    /// The destination point.
    pub target: Label,
    /// Hops taken so far (incremented by the forwarding node; used for the
    /// Lemma 3 / Theorem 15 measurements).
    pub hops: u32,
    /// Number of distance-halving bits not yet consumed (at most
    /// [`Self::MAX_BITS`]): the top `bits_left` bits of `target`, applied
    /// least significant first.
    bits_left: u8,
}

impl RouteProgress {
    /// The most distance-halving bits a label can spell.
    pub(crate) const MAX_BITS: u8 = 64;

    /// Creates routing state for `target` with `bit_budget` distance-halving
    /// bits (capped at `Self::MAX_BITS`).
    ///
    /// The bits are the most significant `bit_budget` bits of the target,
    /// applied from the least significant of them upwards (the
    /// distance-halving walk builds the target prefix from its least
    /// significant routing bit).
    pub fn new(target: Label, bit_budget: u32) -> Self {
        RouteProgress {
            target,
            hops: 0,
            bits_left: bit_budget.min(Self::MAX_BITS as u32) as u8,
        }
    }

    /// Routing state that skips the distance-halving phase entirely and
    /// walks linearly — used as a baseline/ablation and for tiny systems.
    pub fn linear_only(target: Label) -> Self {
        RouteProgress::new(target, 0)
    }

    /// Reassembles routing state that travelled as plain fields (the wire
    /// codec's inverse of reading `target`, [`Self::bits_left`] and `hops`).
    /// `None` when `bits_left` exceeds `Self::MAX_BITS` — a count no
    /// [`Self::new`] produces, and one [`route_step`] must never shift by.
    pub fn from_parts(target: Label, bits_left: u8, hops: u32) -> Option<Self> {
        (bits_left <= Self::MAX_BITS).then_some(RouteProgress {
            target,
            hops,
            bits_left,
        })
    }

    /// Number of distance-halving bits not yet consumed.
    pub fn bits_left(&self) -> u8 {
        self.bits_left
    }

    /// Whether the distance-halving phase is finished.
    pub(crate) fn in_linear_phase(&self) -> bool {
        self.bits_left == 0
    }

    /// Consumes the next distance-halving bit: the least significant of the
    /// target's top `bits_left` bits.
    fn take_bit(&mut self) -> bool {
        debug_assert!((1..=Self::MAX_BITS).contains(&self.bits_left));
        let bit = (self.target.raw() >> (Self::MAX_BITS - self.bits_left)) & 1 == 1;
        self.bits_left -= 1;
        bit
    }
}

/// Recommended distance-halving bit budget for a system of `n_processes`
/// processes (`3·n` virtual nodes): `max(⌈log₂(3n)⌉ − 3, 3)`.
///
/// Each halving bit costs ≈ 3 hops, not 1: only middle nodes can consume a
/// bit, and middles make up a third of the cycle, so every virtual hop is
/// preceded by an expected ~2-hop linear search.  A bit is therefore only
/// worth spending while it still removes ≥ 3 expected hops from the final
/// linear walk — i.e. while `2^-k` is ≥ several node gaps.  Stopping ~3 bits
/// short of `log₂(3n)` leaves an expected final walk of ~4 hops and cuts
/// ~10 wasted search hops per operation; the fig2 throughput sweep at
/// n ∈ {10³, 3·10³} measures ~20–30 % fewer total hops (and wall time) than
/// the previous `⌈log₂(3n)⌉ + 2`, whose last 5 bits bought precision finer
/// than the mean gap — pure overhead.
pub fn recommended_bit_budget(n_processes: usize) -> u32 {
    let nodes = (n_processes.max(1) * 3) as u64;
    (64 - nodes.leading_zeros()).saturating_sub(3).max(3)
}

/// The decision a node takes for a message it is routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAction {
    /// The current node is responsible for the target — deliver locally.
    Deliver,
    /// Forward to the given node.
    Forward(NodeId),
}

/// Computes the routing decision of the node described by `view` for a
/// message with the given routing state.
///
/// May consume one distance-halving bit from `progress`; never modifies the
/// target. The caller is responsible for incrementing `progress.hops` when it
/// actually forwards the message.
pub fn route_step(view: &LocalView, progress: &mut RouteProgress) -> RouteAction {
    // Delivery check first: responsibility can be reached early (or the
    // distance-halving phase may be unnecessary altogether).
    if view.is_responsible_for(progress.target) {
        return RouteAction::Deliver;
    }

    if !progress.in_linear_phase() {
        if view.kind() == VKind::Middle {
            // Consume the next bit over the virtual edge: l(v) has label
            // m(v)/2 and r(v) has label (m(v)+1)/2 — exactly the
            // distance-halving step applied to this node's label.
            let next = if progress.take_bit() {
                VKind::Right
            } else {
                VKind::Left
            };
            return RouteAction::Forward(view.sibling_id(next));
        }
        // Not at a middle node: walk one linear hop towards the successor,
        // searching for the next middle node (expected O(1) hops).
        return RouteAction::Forward(view.succ.0);
    }

    // Linear phase: walk along the cycle in the direction with the shorter
    // ring distance to the target.
    let me = view.label();
    if me.cw_distance(progress.target) <= me.ccw_distance(progress.target) {
        RouteAction::Forward(view.succ.0)
    } else {
        RouteAction::Forward(view.pred.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skueue_sim::ids::ProcessId;

    /// Node `3·process + kind`, as the dense id rule numbers it.
    fn info(process: u64, kind: VKind, label: f64) -> NeighborInfo {
        let vid = VirtualId::new(ProcessId(process), kind);
        NeighborInfo::new(node_of(vid), vid, Label::from_f64(label))
    }

    /// A little two-process neighbourhood around the middle node of process 0
    /// (labels: l0=0.3, m0=0.6, r0=0.8, nodes 0, 1, 2; process 3's left node
    /// 9 at 0.55 and middle node 10 at 0.65).
    fn middle_view() -> LocalView {
        LocalView::new(
            info(0, VKind::Middle, 0.6),
            Label::from_f64(0.6),
            info(3, VKind::Left, 0.55),
            info(3, VKind::Middle, 0.65),
        )
    }

    #[test]
    fn a_view_keeps_48_bytes_and_rebuilds_the_rest() {
        assert_eq!(std::mem::size_of::<LocalView>(), 48);
        let view = middle_view();
        assert_eq!(view.me(), info(0, VKind::Middle, 0.6));
        assert_eq!(view.kind(), VKind::Middle);
        assert_eq!(view.pred(), info(3, VKind::Left, 0.55));
        assert_eq!(view.succ(), info(3, VKind::Middle, 0.65));
        // The siblings' labels are the halving maps of the middle label.
        let middle = Label::from_f64(0.6);
        for kind in VKind::ALL {
            let vid = VirtualId::new(ProcessId(0), kind);
            let sibling = NeighborInfo::new(node_of(vid), vid, kind.label_from_middle(middle));
            assert_eq!(view.sibling(kind), sibling);
        }
        assert_eq!(view.sibling(VKind::Middle), view.me());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dense id rule")]
    fn a_neighbour_off_the_dense_id_rule_is_refused() {
        let mut view = middle_view();
        view.set_succ(NeighborInfo {
            node: NodeId(11),
            ..info(3, VKind::Middle, 0.65)
        });
    }

    #[test]
    fn responsibility_interval() {
        let view = middle_view();
        assert!(view.is_responsible_for(Label::from_f64(0.6)));
        assert!(view.is_responsible_for(Label::from_f64(0.64)));
        assert!(!view.is_responsible_for(Label::from_f64(0.65)));
        assert!(!view.is_responsible_for(Label::from_f64(0.1)));
    }

    #[test]
    fn anchor_and_wrap_detection() {
        let mut view = middle_view();
        assert!(!view.is_anchor());
        assert!(!view.successor_wraps());
        view.set_pred(info(3, VKind::Left, 0.99));
        assert!(view.is_anchor());
        view.set_succ(info(3, VKind::Middle, 0.01));
        assert!(view.successor_wraps());
    }

    #[test]
    fn deliver_when_responsible() {
        let view = middle_view();
        let mut progress = RouteProgress::new(Label::from_f64(0.62), 8);
        assert_eq!(route_step(&view, &mut progress), RouteAction::Deliver);
        // Bits are not consumed on delivery.
        assert_eq!(progress.bits_left(), 8);
    }

    #[test]
    fn middle_node_consumes_bit_and_uses_virtual_edge() {
        let view = middle_view();
        // Target 0.1 = 0.0001… is nowhere near; the first applied bit is the
        // *last* of its four leading bits: 1, over the edge to r(v).
        let mut progress = RouteProgress::new(Label::from_f64(0.1), 4);
        let action = route_step(&view, &mut progress);
        assert_eq!(progress.bits_left(), 3);
        assert_eq!(action, RouteAction::Forward(NodeId(2)));
        // One bit per middle node: the next three are 0, 0, 0 — l(v).
        for left in (0..3).rev() {
            let action = route_step(&view, &mut progress);
            assert_eq!(progress.bits_left(), left);
            assert_eq!(action, RouteAction::Forward(NodeId(0)));
        }
        assert!(progress.in_linear_phase());
    }

    #[test]
    fn non_middle_node_searches_for_middle_via_successor() {
        let view = LocalView::new(
            info(0, VKind::Left, 0.3),
            Label::from_f64(0.6),
            info(2, VKind::Left, 0.25),
            info(4, VKind::Middle, 0.35),
        );
        let mut progress = RouteProgress::new(Label::from_f64(0.9), 4);
        assert_eq!(
            route_step(&view, &mut progress),
            RouteAction::Forward(NodeId(13))
        );
        // No bit consumed while searching for a middle node.
        assert_eq!(progress.bits_left(), 4);
    }

    #[test]
    fn linear_phase_walks_in_shorter_direction() {
        let view = middle_view();
        // Target slightly below this node: go to pred.
        let mut progress = RouteProgress::linear_only(Label::from_f64(0.5));
        assert_eq!(
            route_step(&view, &mut progress),
            RouteAction::Forward(NodeId(9))
        );
        // Target slightly above the successor: go to succ.
        let mut progress = RouteProgress::linear_only(Label::from_f64(0.7));
        assert_eq!(
            route_step(&view, &mut progress),
            RouteAction::Forward(NodeId(10))
        );
    }

    #[test]
    fn single_node_cycle_is_responsible_for_everything() {
        let me = info(0, VKind::Middle, 0.4);
        let view = LocalView::new(me, me.label, me, me);
        assert!(view.is_responsible_for(Label::from_f64(0.99)));
        assert!(view.is_anchor());
        assert!(view.successor_wraps());
        let mut p = RouteProgress::new(Label::from_f64(0.99), 4);
        assert_eq!(route_step(&view, &mut p), RouteAction::Deliver);
    }

    #[test]
    fn bit_budget_scales_logarithmically() {
        assert!(recommended_bit_budget(1) >= 3);
        let b1k = recommended_bit_budget(1_000);
        let b100k = recommended_bit_budget(100_000);
        // ⌈log₂(3n)⌉ − 3: the last bits of a full log₂(3n) budget buy
        // precision below the mean node gap at ~3 hops apiece (see the
        // function docs), so the recommendation deliberately stops short.
        assert!((8..=10).contains(&b1k), "{b1k}");
        assert!((15..=17).contains(&b100k), "{b100k}");
        assert!(b100k > b1k);
    }

    #[test]
    fn route_progress_constructors() {
        let p = RouteProgress::new(Label::from_f64(0.75), 2);
        assert_eq!(p.bits_left(), 2);
        assert!(!p.in_linear_phase());
        let p = RouteProgress::linear_only(Label::from_f64(0.75));
        assert_eq!(p.bits_left(), 0);
        assert!(p.in_linear_phase());
        assert_eq!(p.hops, 0);
        // A budget beyond what a label spells is capped, and the checked
        // constructor refuses a count `new` cannot produce.
        assert_eq!(RouteProgress::new(Label(u64::MAX), 200).bits_left(), 64);
        assert_eq!(
            RouteProgress::from_parts(Label(u64::MAX), 64, 3),
            Some(RouteProgress {
                hops: 3,
                ..RouteProgress::new(Label(u64::MAX), 64)
            })
        );
        assert_eq!(RouteProgress::from_parts(Label(u64::MAX), 65, 0), None);
    }

    /// The most significant `count` bits of `target`, most significant
    /// first: the vector a routed message used to carry, consumed from the
    /// back.
    fn leading_bits(target: Label, count: u32) -> Vec<bool> {
        (0..count)
            .map(|i| (target.raw() >> (63 - i)) & 1 == 1)
            .collect()
    }

    proptest! {
        /// Over a full walk, the middle nodes consume exactly the target's
        /// top `k` bits, least significant first, for any target and any
        /// `k ≤ 64`.
        #[test]
        fn prop_a_full_walk_consumes_the_leading_bits_reversed(
            target in any::<u64>(),
            k in 0u32..65,
        ) {
            // A middle node responsible for nothing the walk could target.
            let mut view = middle_view();
            view.set_succ(NeighborInfo {
                label: Label(view.me().label.raw() + 1),
                ..view.succ()
            });
            let target = Label(target);
            prop_assume!(!view.is_responsible_for(target));
            let mut progress = RouteProgress::new(target, k);
            let mut consumed = Vec::new();
            while !progress.in_linear_phase() {
                match route_step(&view, &mut progress) {
                    RouteAction::Forward(NodeId(2)) => consumed.push(true),
                    RouteAction::Forward(NodeId(0)) => consumed.push(false),
                    other => prop_assert!(false, "unexpected {other:?}"),
                }
            }
            let mut expected = leading_bits(target, k);
            expected.reverse();
            prop_assert_eq!(consumed, expected);
        }
    }
}
