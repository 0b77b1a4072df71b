//! The Linearized De Bruijn network as a whole: the static topology builder.
//!
//! [`Topology`] materialises Definition 2 for a given set of processes: it
//! computes all virtual-node labels and sorts them into the cycle.  The
//! cluster builds the initial neighbour views of all protocol nodes from it
//! ([`Topology::views`]) and reads the anchor off it.
//!
//! Definition 2 *is* a sorted cycle, so the sort is all there is to build:
//! a node's `pred`/`succ` are the entries beside it in label order and its
//! siblings are its process's other two entries.  It is one sort of n and
//! one merge: the left and right maps `m ↦ m/2` and `m ↦ (m+1)/2` are
//! monotone, so once the middle labels are sorted the left labels followed
//! by the right ones are a second sorted run, and merging the two writes
//! the cycle and its index in one pass.  The topology indexes
//! the cycle by position — the process list ascending, and beside each
//! process the three places its nodes took in the sort — so the views come
//! out in process order, four reads of the cycle each (the node, its
//! process's middle node, its two neighbours), with no hash table and no
//! search ([`Topology::local_view`], the view of one node, finds its process
//! by binary search).
//!
//! The dynamic protocol does **not** consult a `Topology` at runtime; nodes
//! only use their local views, exactly as in the paper.  The global queries
//! — responsibility, aggregation parent/children, depth, tree height
//! (Corollary 6 / Lemma 3) — therefore exist under `#[cfg(test)]` only, as
//! the oracle the local rules are checked against.

#[cfg(test)]
use crate::aggregation::{aggregation_children, aggregation_parent};
use crate::hash::LabelHasher;
use crate::label::Label;
use crate::routing::{LocalView, NeighborInfo};
use crate::vnode::{node_of, VKind, VirtualId};
use skueue_sim::ids::{NodeId, ProcessId};
use std::fmt;

/// One virtual node of the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VirtualNodeInfo {
    /// The virtual node's identity.
    pub vid: VirtualId,
    /// Its label on the unit ring.
    pub label: Label,
}

/// Errors produced by [`Topology`] construction and updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No processes were supplied.
    Empty,
    /// The same process id appeared twice.
    DuplicateProcess(ProcessId),
    /// A virtual node id was not found.
    UnknownNode(VirtualId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology needs at least one process"),
            TopologyError::DuplicateProcess(p) => write!(f, "duplicate process {p}"),
            TopologyError::UnknownNode(v) => write!(f, "unknown virtual node {v}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The full Linearized De Bruijn topology over a set of processes: the
/// sorted cycle and a positional index into it (see the module doc).
#[derive(Debug, Clone)]
pub struct Topology {
    /// All virtual nodes sorted by `(label, vid)` — the cycle order.
    sorted: Vec<VirtualNodeInfo>,
    /// The process ids, ascending.
    processes: Vec<ProcessId>,
    /// Parallel to `processes`: the positions in `sorted` of the process's
    /// three virtual nodes, in [`VKind`] order.
    rank: Vec<[u32; 3]>,
}

impl Topology {
    /// Builds the topology for the given processes, in any order.
    ///
    /// An id that appears twice — anywhere in the slice — is
    /// [`TopologyError::DuplicateProcess`]; of several duplicated ids the
    /// smallest is reported.  Positions in the cycle are kept as `u32`:
    /// more than `u32::MAX / 3` processes is a panic.
    pub fn build(processes: &[ProcessId], hasher: LabelHasher) -> Result<Self, TopologyError> {
        if processes.is_empty() {
            return Err(TopologyError::Empty);
        }
        let mut processes = processes.to_vec();
        processes.sort_unstable();
        if let Some(pair) = processes.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(TopologyError::DuplicateProcess(pair[0]));
        }
        let nodes = u32::try_from(processes.len() * 3).expect("positions in the cycle fit a u32");
        // Nodes are numbered in ascending (process, kind) order, so a node's
        // number orders like its vid and `(label, number)` sorts like the
        // cycle's `(label, vid)` — on keys two thirds the size.  A middle
        // node's number is three times its process's index, plus one.
        let mut middles: Vec<(Label, u32)> = processes
            .iter()
            .zip((1..nodes).step_by(3))
            .map(|(&p, number)| (hasher.process_label(p), number))
            .collect();
        middles.sort_unstable();
        Ok(Self::from_cycle(processes, cycle(&middles)))
    }

    /// The topology of `processes` (ascending) from its cycle's
    /// `(label, number)` keys in order, written straight into the cycle and
    /// the positional index as they come.
    fn from_cycle(processes: Vec<ProcessId>, keys: impl Iterator<Item = (Label, u32)>) -> Self {
        let mut rank = vec![[0u32; 3]; processes.len()];
        let mut sorted = Vec::with_capacity(3 * processes.len());
        sorted.extend(keys.zip(0u32..).map(|((label, number), position)| {
            let (process, kind) = (number as usize / 3, number as usize % 3);
            rank[process][kind] = position;
            VirtualNodeInfo {
                vid: VirtualId::new(processes[process], VKind::from_index(kind)),
                label,
            }
        }));
        Topology {
            sorted,
            processes,
            rank,
        }
    }

    /// The process ids, ascending (whatever order [`Self::build`] was given).
    pub fn processes(&self) -> &[ProcessId] {
        &self.processes
    }

    /// The anchor: the node with the smallest label (always a left node in a
    /// multi-process system).
    pub fn anchor(&self) -> VirtualId {
        self.sorted[0].vid
    }

    /// The positions in `sorted` of the three virtual nodes of `vid`'s
    /// process, found by binary search.
    fn positions_of(&self, vid: VirtualId) -> Result<[u32; 3], TopologyError> {
        self.processes
            .binary_search(&vid.process)
            .map(|process| self.rank[process])
            .map_err(|_| TopologyError::UnknownNode(vid))
    }

    /// Builds the [`LocalView`] of a virtual node, mapping virtual ids to
    /// simulator node ids with `node_of` — which must be the dense id rule,
    /// [`crate::node_of`], because a view derives every id it does not
    /// store by that rule (checked in debug builds).
    pub fn local_view(
        &self,
        vid: VirtualId,
        node_of: &dyn Fn(VirtualId) -> NodeId,
    ) -> Result<LocalView, TopologyError> {
        Ok(self.view_at(self.positions_of(vid)?, vid.kind, &node_of).0)
    }

    /// Every process's three views, in process order (ascending, as
    /// [`Self::processes`]) and Left/Middle/Right order within one, each with
    /// whether its node is the anchor — read off the positional index, no
    /// search.  Ids follow the dense rule, [`crate::node_of`], the only one
    /// a view can derive its other ids by.
    pub fn views(&self) -> impl Iterator<Item = [(LocalView, bool); 3]> + '_ {
        self.rank
            .iter()
            .map(|&positions| VKind::ALL.map(|kind| self.view_at(positions, kind, &node_of)))
    }

    /// The view of the `kind` node of the process whose nodes sit at
    /// `positions`, and whether that node is the anchor.
    fn view_at(
        &self,
        positions: [u32; 3],
        kind: VKind,
        node_of: &impl Fn(VirtualId) -> NodeId,
    ) -> (LocalView, bool) {
        let info = |position: usize| {
            let n = &self.sorted[position];
            NeighborInfo::new(node_of(n.vid), n.vid, n.label)
        };
        let at = positions[kind.index()] as usize;
        let last = self.sorted.len() - 1;
        let view = LocalView::new(
            info(at),
            self.sorted[positions[VKind::Middle.index()] as usize].label,
            info(if at == 0 { last } else { at - 1 }),
            info(if at == last { 0 } else { at + 1 }),
        );
        (view, at == 0)
    }
}

/// The cycle's `(label, number)` keys in order, from the middles' keys
/// sorted — a middle node's number one above its left node's: one merge of
/// two ascending runs, the middles and the halves ([`half_key`]).  It
/// compares whole keys, so ties come out in number order.
fn cycle(middles: &[(Label, u32)]) -> impl Iterator<Item = (Label, u32)> + '_ {
    let n = middles.len();
    // A run past its end reads as a key above every node's: a number is
    // below 3n, which fits a `u32`.
    let end = (Label(u64::MAX), u32::MAX);
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        (i + j < 3 * n).then(|| {
            let middle = middles.get(i).copied().unwrap_or(end);
            let half = if j < 2 * n { half_key(middles, j) } else { end };
            let take_middle = middle < half;
            i += usize::from(take_middle);
            j += usize::from(!take_middle);
            if take_middle {
                middle
            } else {
                half
            }
        })
    })
}

/// Key `j` of the halves run: the left keys `(m/2, number − 1)`, then the
/// right keys `((m+1)/2, number + 1)`, each laid out in the sorted middles'
/// order — ascending, because halving is monotone and every right label is
/// above every left one.  Only middles that share a half (`2k` and `2k + 1`,
/// or equal ones) give a group of equal labels, in an order their numbers
/// need not follow, so the group's `r`-th key takes the number with `r`
/// below it in the group.  That scans the group once per candidate, but a
/// group needs two middles equal but for their last bit, which the hash
/// does not produce.
fn half_key(middles: &[(Label, u32)], j: usize) -> (Label, u32) {
    let n = middles.len();
    let (kind, i) = if j < n {
        (VKind::Left, j)
    } else {
        (VKind::Right, j - n)
    };
    let (middle, mut number) = middles[i];
    let shares_half = |k: &usize| middles[*k].0.half() == middle.half();
    let start = (0..i).rev().take_while(shares_half).last().unwrap_or(i);
    let end = (i + 1..n).take_while(shares_half).last().unwrap_or(i) + 1;
    if end - start > 1 {
        let group = &middles[start..end];
        let below = |a: u32| group.iter().filter(|b| b.1 < a).count();
        number = group
            .iter()
            .map(|key| key.1)
            .find(|&a| below(a) == i - start)
            .expect("numbers are distinct");
    }
    (
        kind.label_from_middle(middle),
        number + kind.index() as u32 - 1,
    )
}

/// The global view of the cycle and the aggregation tree.  No node ever
/// has it — the protocol works from [`LocalView`]s alone — so it exists for
/// the tests only, as the oracle the local rules ([`crate::route_step`],
/// [`aggregation_parent`], the child rules) are checked against.
#[cfg(test)]
impl Topology {
    /// Number of virtual nodes (three per process).
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Number of processes.
    pub(crate) fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// Iterates over all virtual nodes in cycle (label) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &VirtualNodeInfo> {
        self.sorted.iter()
    }

    /// True if the virtual node belongs to this topology.
    pub(crate) fn contains(&self, vid: VirtualId) -> bool {
        self.rank_of(vid).is_ok()
    }

    /// Position of the node in the sorted cycle (0 = anchor).
    pub(crate) fn rank_of(&self, vid: VirtualId) -> Result<usize, TopologyError> {
        Ok(self.positions_of(vid)?[vid.kind.index()] as usize)
    }

    /// The label of a virtual node.
    pub(crate) fn label_of(&self, vid: VirtualId) -> Result<Label, TopologyError> {
        Ok(self.sorted[self.rank_of(vid)?].label)
    }

    /// Cycle predecessor (wraps around).
    pub(crate) fn pred(&self, vid: VirtualId) -> Result<VirtualId, TopologyError> {
        let i = self.rank_of(vid)?;
        let n = self.sorted.len();
        Ok(self.sorted[(i + n - 1) % n].vid)
    }

    /// Cycle successor (wraps around).
    pub(crate) fn succ(&self, vid: VirtualId) -> Result<VirtualId, TopologyError> {
        let i = self.rank_of(vid)?;
        let n = self.sorted.len();
        Ok(self.sorted[(i + 1) % n].vid)
    }

    /// The node at a given rank.
    pub(crate) fn at_rank(&self, rank: usize) -> &VirtualNodeInfo {
        &self.sorted[rank % self.sorted.len()]
    }

    /// The node with the largest label.
    pub(crate) fn max_node(&self) -> VirtualId {
        self.sorted[self.sorted.len() - 1].vid
    }

    /// The node responsible for a key: the node `u` with `u ≤ key < succ(u)`
    /// (wrapping to the maximum-label node for keys below the anchor).
    pub(crate) fn responsible_for(&self, key: Label) -> VirtualId {
        // Binary search for the last node with label <= key.
        match self
            .sorted
            .binary_search_by(|n| n.label.cmp(&key).then(std::cmp::Ordering::Less))
        {
            Ok(i) => self.sorted[i].vid,
            Err(0) => self.max_node(),
            Err(i) => self.sorted[i - 1].vid,
        }
    }

    /// Aggregation-tree parent (Section III-B). `None` for the anchor.
    pub(crate) fn parent(&self, vid: VirtualId) -> Result<Option<VirtualId>, TopologyError> {
        let _ = self.rank_of(vid)?;
        let is_anchor = vid == self.anchor();
        Ok(aggregation_parent(
            vid.kind,
            is_anchor,
            vid.sibling(VKind::Left),
            vid.sibling(VKind::Middle),
            self.pred(vid)?,
        ))
    }

    /// Aggregation-tree children (Section III-B).
    pub(crate) fn children(&self, vid: VirtualId) -> Result<Vec<VirtualId>, TopologyError> {
        let i = self.rank_of(vid)?;
        let succ = self.succ(vid)?;
        let succ_wraps = i == self.sorted.len() - 1;
        Ok(aggregation_children(
            vid.kind,
            vid.sibling(VKind::Right),
            vid.sibling(VKind::Middle),
            succ,
            succ.kind,
            succ_wraps,
        ))
    }

    /// Depth of a node in the aggregation tree (anchor = 0).
    pub(crate) fn depth(&self, vid: VirtualId) -> Result<usize, TopologyError> {
        let mut depth = 0usize;
        let mut current = vid;
        while let Some(parent) = self.parent(current)? {
            depth += 1;
            current = parent;
            if depth > self.len() {
                // The parent relation is provably acyclic (labels strictly
                // decrease); this guard only protects against future bugs.
                panic!("aggregation-tree parent chain did not terminate");
            }
        }
        Ok(depth)
    }

    /// Height of the aggregation tree (maximum depth over all nodes) — the
    /// quantity Corollary 6 bounds by `O(log n)` w.h.p.
    pub(crate) fn tree_height(&self) -> usize {
        self.sorted
            .iter()
            .map(|n| self.depth(n.vid).expect("node from own topology"))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{recommended_bit_budget, route_step, RouteAction, RouteProgress};
    use crate::vnode::vid_of;
    use proptest::prelude::*;

    fn pids(n: u64) -> Vec<ProcessId> {
        (0..n).map(ProcessId).collect()
    }

    fn topo(n: u64) -> Topology {
        Topology::build(&pids(n), LabelHasher::default()).unwrap()
    }

    #[test]
    fn build_rejects_empty_and_duplicates() {
        assert_eq!(
            Topology::build(&[], LabelHasher::default()).unwrap_err(),
            TopologyError::Empty
        );
        assert_eq!(
            Topology::build(&[ProcessId(1), ProcessId(1)], LabelHasher::default()).unwrap_err(),
            TopologyError::DuplicateProcess(ProcessId(1))
        );
    }

    #[test]
    fn a_duplicate_anywhere_is_rejected_and_the_smallest_is_named() {
        let build = |raw: &[u64]| {
            let pids: Vec<ProcessId> = raw.iter().copied().map(ProcessId).collect();
            Topology::build(&pids, LabelHasher::default()).map(|t| t.processes().to_vec())
        };
        // Not adjacent, input unsorted.
        assert_eq!(
            build(&[5, 2, 9, 2, 7]).unwrap_err(),
            TopologyError::DuplicateProcess(ProcessId(2))
        );
        // Several duplicated ids: the smallest, wherever it stands.
        assert_eq!(
            build(&[9, 3, 9, 4, 3]).unwrap_err(),
            TopologyError::DuplicateProcess(ProcessId(3))
        );
        // No duplicate: the list comes back ascending, not as given.
        assert_eq!(
            build(&[5, 2, 9]).unwrap(),
            [ProcessId(2), ProcessId(5), ProcessId(9)]
        );
    }

    #[test]
    fn a_vid_of_a_process_outside_the_topology_is_unknown() {
        let members = [ProcessId(9), ProcessId(2)];
        let t = Topology::build(&members, LabelHasher::default()).unwrap();
        // Below every member, between two members, above every member.
        for outside in [0u64, 5, 11] {
            for kind in VKind::ALL {
                let vid = VirtualId::new(ProcessId(outside), kind);
                assert_eq!(
                    t.local_view(vid, &node_of).unwrap_err(),
                    TopologyError::UnknownNode(vid)
                );
                assert!(!t.contains(vid));
            }
        }
        for member in members {
            assert!(t.local_view(VirtualId::middle(member), &node_of).is_ok());
        }
    }

    #[test]
    fn three_virtual_nodes_per_process() {
        let t = topo(10);
        assert_eq!(t.len(), 30);
        assert_eq!(t.num_processes(), 10);
        for p in 0..10u64 {
            for kind in VKind::ALL {
                assert!(t.contains(VirtualId::new(ProcessId(p), kind)));
            }
        }
    }

    #[test]
    fn cycle_is_sorted_and_consistent() {
        let t = topo(20);
        let labels: Vec<Label> = t.iter().map(|n| n.label).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
        // pred/succ are inverses and wrap correctly.
        for n in t.iter() {
            let s = t.succ(n.vid).unwrap();
            assert_eq!(t.pred(s).unwrap(), n.vid);
        }
        assert_eq!(t.succ(t.max_node()).unwrap(), t.anchor());
        assert_eq!(t.pred(t.anchor()).unwrap(), t.max_node());
    }

    #[test]
    fn anchor_is_global_minimum_and_a_left_node() {
        for n in [1u64, 2, 3, 10, 100] {
            let t = topo(n);
            let anchor = t.anchor();
            let min_label = t.iter().map(|v| v.label).min().unwrap();
            assert_eq!(t.label_of(anchor).unwrap(), min_label);
            if n >= 2 {
                assert_eq!(anchor.kind, VKind::Left, "n={n}");
            }
        }
    }

    #[test]
    fn responsibility_covers_the_whole_ring() {
        let t = topo(25);
        // Every node is responsible exactly for [label, succ_label).
        for probe in 0..1000u64 {
            let key = Label(probe.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let owner = t.responsible_for(key);
            let lo = t.label_of(owner).unwrap();
            let hi = t.label_of(t.succ(owner).unwrap()).unwrap();
            assert!(key.in_interval(lo, hi), "key {key} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn responsibility_below_anchor_wraps_to_max_node() {
        let t = topo(8);
        let anchor_label = t.label_of(t.anchor()).unwrap();
        if anchor_label.raw() > 0 {
            let key = Label(anchor_label.raw() - 1);
            assert_eq!(t.responsible_for(key), t.max_node());
        }
        assert_eq!(t.responsible_for(anchor_label), t.anchor());
    }

    #[test]
    fn parent_child_relations_are_consistent() {
        let t = topo(30);
        for n in t.iter() {
            if let Some(parent) = t.parent(n.vid).unwrap() {
                let children = t.children(parent).unwrap();
                assert!(
                    children.contains(&n.vid),
                    "{:?}'s parent {:?} does not list it as a child (children: {:?})",
                    n.vid,
                    parent,
                    children
                );
            } else {
                assert_eq!(n.vid, t.anchor());
            }
        }
        // And the converse: every child's parent is the node itself.
        for n in t.iter() {
            for child in t.children(n.vid).unwrap() {
                assert_eq!(t.parent(child).unwrap(), Some(n.vid));
            }
        }
    }

    #[test]
    fn parents_have_smaller_labels() {
        let t = topo(40);
        for n in t.iter() {
            if let Some(parent) = t.parent(n.vid).unwrap() {
                assert!(
                    t.label_of(parent).unwrap() <= n.label,
                    "parent {:?} not left of {:?}",
                    parent,
                    n.vid
                );
            }
        }
    }

    #[test]
    fn tree_spans_all_nodes() {
        let t = topo(50);
        // Every node reaches the anchor by following parents; depth() already
        // asserts termination, so summing depths is enough to cover all nodes.
        let total: usize = t.iter().map(|n| t.depth(n.vid).unwrap()).sum();
        assert!(total > 0);
        assert_eq!(t.depth(t.anchor()).unwrap(), 0);
    }

    #[test]
    fn tree_height_scales_logarithmically() {
        // Corollary 6: height is O(log n) w.h.p. Check a generous constant.
        for &n in &[10u64, 100, 1000] {
            let t = topo(n);
            let height = t.tree_height();
            let log2n = ((3 * n) as f64).log2();
            assert!(
                (height as f64) <= 8.0 * log2n + 8.0,
                "height {height} too large for n={n} (log2(3n)={log2n:.1})"
            );
            assert!(height >= 1);
        }
    }

    #[test]
    fn single_process_topology_is_well_formed() {
        let t = topo(1);
        assert_eq!(t.len(), 3);
        let anchor = t.anchor();
        assert_eq!(t.depth(anchor).unwrap(), 0);
        assert!(t.tree_height() <= 2);
        // All three nodes reachable from the anchor.
        for n in t.iter() {
            assert!(t.depth(n.vid).unwrap() <= 2);
        }
    }

    #[test]
    fn local_view_matches_topology() {
        let t = topo(12);
        for n in t.iter() {
            let view = t.local_view(n.vid, &node_of).unwrap();
            assert_eq!(view.me().vid, n.vid);
            assert_eq!(view.pred().vid, t.pred(n.vid).unwrap());
            assert_eq!(view.succ().vid, t.succ(n.vid).unwrap());
            assert_eq!(
                view.sibling(VKind::Middle).vid,
                n.vid.sibling(VKind::Middle)
            );
            assert_eq!(view.is_anchor(), n.vid == t.anchor());
            assert_eq!(view.successor_wraps(), n.vid == t.max_node());
        }
    }

    /// The positional index against the definitions it replaced: the cycle
    /// is Definition 2's, the index finds every node where a scan of the
    /// cycle does, and the view of every node equals the one assembled node
    /// by node from the oracles.
    fn assert_views_match_the_oracles(pids: &[ProcessId], hasher: LabelHasher) {
        let t = Topology::build(pids, hasher).unwrap();
        assert_eq!(t.len(), 3 * pids.len());
        for (position, v) in t.iter().enumerate() {
            let middle = hasher.process_label(v.vid.process);
            assert_eq!(v.label, v.vid.kind.label_from_middle(middle));
            assert_eq!(t.rank_of(v.vid), Ok(position));
            if position > 0 {
                let before = t.at_rank(position - 1);
                assert!((before.label, before.vid) < (v.label, v.vid));
            }
        }
        for &p in pids {
            for kind in VKind::ALL {
                let vid = VirtualId::new(p, kind);
                let info = |v: VirtualId| NeighborInfo::new(node_of(v), v, t.label_of(v).unwrap());
                let view = t.local_view(vid, &node_of).unwrap();
                assert_eq!(view.me(), info(vid));
                assert_eq!(view.pred(), info(t.pred(vid).unwrap()));
                assert_eq!(view.succ(), info(t.succ(vid).unwrap()));
                for k in VKind::ALL {
                    assert_eq!(view.sibling(k), info(vid.sibling(k)));
                }
            }
        }
        // The views in process order are the views looked up one by one.
        let mut in_order = t.views();
        for &p in t.processes() {
            let views = in_order.next().expect("three views per process");
            for (kind, (view, is_anchor)) in VKind::ALL.into_iter().zip(views) {
                let vid = VirtualId::new(p, kind);
                assert_eq!(view, t.local_view(vid, &node_of).unwrap());
                assert_eq!(is_anchor, vid == t.anchor());
            }
        }
        assert!(in_order.next().is_none());
        // The wrap at both ends.
        let first = t.local_view(t.anchor(), &node_of).unwrap();
        let last = t.local_view(t.max_node(), &node_of).unwrap();
        assert_eq!(first.pred().vid, t.max_node());
        assert_eq!(last.succ().vid, t.anchor());
        assert!(first.is_anchor() && last.successor_wraps());
    }

    #[test]
    fn views_of_a_single_process_wrap_around_its_own_three_nodes() {
        for seed in 0..8 {
            assert_views_match_the_oracles(&[ProcessId(seed * 1000)], LabelHasher::new(seed));
        }
    }

    /// Every middle's three keys, all of them sorted at once — the cycle
    /// [`cycle`] must produce from the middles alone.
    fn every_key_sorted(middles: &[(Label, u32)]) -> Vec<(Label, u32)> {
        let mut keys = Vec::new();
        for &(middle, number) in middles {
            for kind in VKind::ALL {
                let number = number + kind.index() as u32 - 1;
                keys.push((kind.label_from_middle(middle), number));
            }
        }
        keys.sort_unstable();
        keys
    }

    /// The topology as built by sorting all 3n keys: the reference
    /// [`Topology::build`] is checked against.
    fn build_by_sorting_every_key(pids: &[ProcessId], hasher: LabelHasher) -> Topology {
        let mut processes = pids.to_vec();
        processes.sort_unstable();
        let middles: Vec<(Label, u32)> = processes
            .iter()
            .zip((1..).step_by(3))
            .map(|(&p, number)| (hasher.process_label(p), number))
            .collect();
        Topology::from_cycle(processes, every_key_sorted(&middles).into_iter())
    }

    /// Ties the hasher never produces: two equal middles, middles `2k` and
    /// `2k + 1` (their left nodes share the label `k`), a middle equal to a
    /// left label and one equal to a right label — every pair of them
    /// numbered in both orders.  A merge by label alone orders these ties
    /// by run instead of by number.
    #[test]
    fn cycle_ties_sort_by_number_whatever_the_middles_order() {
        let k = 0x1234_5678u64;
        let labels = [2 * k, 2 * k + 1, k, 2 * k, k | 1 << 63].map(Label);
        for reversed in [false, true] {
            for rotation in 0..labels.len() {
                let mut numbers: Vec<u32> = (0..labels.len() as u32).map(|p| 3 * p + 1).collect();
                if reversed {
                    numbers.reverse();
                }
                numbers.rotate_left(rotation);
                let mut middles: Vec<(Label, u32)> = labels.into_iter().zip(numbers).collect();
                middles.sort_unstable();
                let keys: Vec<(Label, u32)> = cycle(&middles).collect();
                assert_eq!(keys, every_key_sorted(&middles), "middles {middles:?}");
            }
        }
    }

    /// Simulates routing over the static topology using only local views and
    /// the `route_step` rule, returning the hop count.
    fn simulate_route(t: &Topology, from: VirtualId, key: Label) -> (VirtualId, u32) {
        let mut current = from;
        let mut progress = RouteProgress::new(key, recommended_bit_budget(t.num_processes()));
        let max_hops = 40 * (t.len() as u32 + 2);
        loop {
            let view = t.local_view(current, &node_of).unwrap();
            match route_step(&view, &mut progress) {
                RouteAction::Deliver => return (current, progress.hops),
                RouteAction::Forward(next) => {
                    progress.hops += 1;
                    assert!(progress.hops < max_hops, "routing did not terminate");
                    current = vid_of(next);
                }
            }
        }
    }

    #[test]
    fn routing_reaches_the_responsible_node() {
        let t = topo(64);
        let mut raw = 0xDEAD_BEEFu64;
        for i in 0..200u64 {
            raw = raw.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = Label(raw);
            let from = t.at_rank((i as usize * 7) % t.len()).vid;
            let (reached, _) = simulate_route(&t, from, key);
            assert_eq!(
                reached,
                t.responsible_for(key),
                "wrong destination for key {key}"
            );
        }
    }

    #[test]
    fn routing_hops_scale_logarithmically() {
        // Lemma 3: O(log n) hops w.h.p. Compare mean hops at two sizes.
        let measure = |n: u64, samples: u64| -> f64 {
            let t = topo(n);
            let mut raw = 42u64;
            let mut total = 0u64;
            for i in 0..samples {
                raw = raw.wrapping_mul(6364136223846793005).wrapping_add(1);
                let key = Label(raw);
                let from = t.at_rank((i as usize * 13) % t.len()).vid;
                let (_, hops) = simulate_route(&t, from, key);
                total += hops as u64;
            }
            total as f64 / samples as f64
        };
        let small = measure(32, 100);
        let large = measure(1024, 100);
        let log_ratio = ((3.0 * 1024.0f64).log2()) / ((3.0 * 32.0f64).log2());
        // Hops should grow roughly like log n: much slower than linearly
        // (32x more nodes), and not shrink.
        assert!(large >= small * 0.8, "large={large} small={small}");
        assert!(
            large <= small * log_ratio * 3.0,
            "routing hops grew super-logarithmically: {small} -> {large}"
        );
        // And stay in a sane absolute band.
        assert!(
            large < 120.0,
            "mean hops {large} too high for n=1024 processes"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_responsibility_partitions_ring(n in 2u64..40, key_raw in any::<u64>()) {
            let t = topo(n);
            let key = Label(key_raw);
            let owner = t.responsible_for(key);
            // Exactly one node owns the key.
            let owners: Vec<_> = t
                .iter()
                .filter(|v| {
                    let lo = v.label;
                    let hi = t.label_of(t.succ(v.vid).unwrap()).unwrap();
                    key.in_interval(lo, hi)
                })
                .map(|v| v.vid)
                .collect();
            prop_assert_eq!(owners.len(), 1);
            prop_assert_eq!(owners[0], owner);
        }

        #[test]
        fn prop_children_counts_are_bounded(n in 1u64..40) {
            let t = topo(n);
            for v in t.iter() {
                let children = t.children(v.vid).unwrap();
                prop_assert!(children.len() <= 2);
                if v.vid.kind == VKind::Right {
                    prop_assert!(children.is_empty());
                }
            }
        }

        #[test]
        fn prop_every_non_anchor_has_parent(n in 1u64..30, seed in any::<u64>()) {
            let t = Topology::build(&pids(n), LabelHasher::new(seed)).unwrap();
            let anchor = t.anchor();
            for v in t.iter() {
                let parent = t.parent(v.vid).unwrap();
                prop_assert_eq!(parent.is_none(), v.vid == anchor);
            }
        }

        #[test]
        fn prop_local_view_equals_the_view_assembled_from_the_oracles(
            raw in proptest::collection::vec(any::<u64>(), 1..41),
            spread in 2u32..64,
            seed in any::<u64>(),
        ) {
            // `spread` near 64 squeezes the ids into a dense handful, near 2
            // leaves them sparse over 2^62 (three node ids per process still
            // fit a u64); the draws arrive unsorted either way.
            let mut pids: Vec<ProcessId> = Vec::new();
            for p in raw.into_iter().map(|r| ProcessId(r >> spread)) {
                if !pids.contains(&p) {
                    pids.push(p);
                }
            }
            assert_views_match_the_oracles(&pids, LabelHasher::new(seed));
        }

        #[test]
        fn prop_build_equals_sorting_every_key(
            raw in proptest::collection::vec(any::<u64>(), 1..601),
            spread in 0u32..64,
            seed in any::<u64>(),
        ) {
            // `spread` 0 leaves the ids sparse up to u64::MAX - 1, near 64
            // squeezes them into a dense handful; the draws arrive unsorted.
            let mut seen = std::collections::HashSet::new();
            let pids: Vec<ProcessId> = raw
                .into_iter()
                .map(|r| ProcessId((r >> spread).min(u64::MAX - 1)))
                .filter(|&p| seen.insert(p))
                .collect();
            let hasher = LabelHasher::new(seed);
            let built = Topology::build(&pids, hasher).unwrap();
            let reference = build_by_sorting_every_key(&pids, hasher);
            prop_assert_eq!(&built.sorted, &reference.sorted);
            prop_assert_eq!(&built.rank, &reference.rank);
            prop_assert_eq!(&built.processes, &reference.processes);
        }

        /// Middles drawn from a handful of labels near 0, 2⁶³ and 2⁶⁴, so
        /// that equal middles, middles sharing a half and middles equal to a
        /// left or a right label all occur: random 64-bit hashes never tie.
        #[test]
        fn prop_cycle_orders_forced_ties_as_sorting_every_key(
            draws in proptest::collection::vec((0u64..3, 0u64..6), 1..40),
        ) {
            let mut middles: Vec<(Label, u32)> = draws
                .into_iter()
                .map(|(region, offset)| match region {
                    0 => offset,
                    1 => (1 << 63) - 3 + offset,
                    _ => u64::MAX - offset,
                })
                .zip((1..).step_by(3))
                .map(|(raw, number)| (Label(raw), number))
                .collect();
            middles.sort_unstable();
            let keys: Vec<(Label, u32)> = cycle(&middles).collect();
            prop_assert_eq!(keys, every_key_sorted(&middles));
        }

        #[test]
        fn prop_routing_delivers_correctly(n in 1u64..48, seed in any::<u64>(), key_raw in any::<u64>(), start in any::<u64>()) {
            let t = Topology::build(&pids(n), LabelHasher::new(seed)).unwrap();
            let key = Label(key_raw);
            let from = t.at_rank((start as usize) % t.len()).vid;
            let (reached, hops) = simulate_route(&t, from, key);
            prop_assert_eq!(reached, t.responsible_for(key));
            prop_assert!(hops as usize <= 20 * (t.len() + 4));
        }
    }
}
