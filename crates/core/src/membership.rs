//! Who is a member at start, and what a joiner knows — written once for
//! every driver.
//!
//! The simulation cluster ([`crate::SkueueCluster`]) and the TCP daemon
//! (`skueue-net`) must agree on the starting overlay, or a simulated run
//! says nothing about a deployed one.  This module is the one place that
//! knows how it is made: the partition of the initial processes into anchor
//! shards, one [`Topology`] and one node configuration per shard (the
//! deployment's, with the routing bit budget derived from the shard's size),
//! the three [`LocalView`]s of every initial process, handed out in process
//! order, and the self-pointing nodes a joiner starts as — every node
//! addressed by the overlay's dense id rule, [`node_of`].  Both drivers call
//! it and keep only what is theirs — where the nodes live and how they are
//! visited.
//!
//! It is also the one place that says what a process's membership is, read
//! from its three nodes through a driver's node lookup (`|id| sim.node(id)`
//! or `|id| lane.node(id)`): whether the process may issue ([`may_issue`])
//! or may leave ([`may_leave`]), and what all three of its nodes say
//! ([`all_nodes`]).  Neither driver keeps a membership of its own.

use crate::cluster::ClusterError;
use crate::config::ProtocolConfig;
use crate::node::SkueueNode;
use skueue_dht::Payload;
use skueue_overlay::{
    node_of, recommended_bit_budget, LabelHasher, LocalView, NeighborInfo, Topology, VKind,
    VirtualId,
};
use skueue_shard::{ShardId, ShardMap, ShardRouter};
use skueue_sim::ids::{NodeId, ProcessId};
use std::sync::Arc;

/// The membership a deployment of processes `0..n` starts from.
///
/// Holds what all processes of a shard share — the shard's cycle,
/// aggregation tree and anchor as a [`Topology`], and its node
/// configuration — and derives the processes' views as a driver walks them
/// ([`Self::processes`]), so it builds its nodes one process at a time.
#[derive(Debug)]
pub struct InitialMembership {
    router: ShardRouter,
    /// Indexed by shard; `None` for a shard no initial process hashed into.
    topologies: Vec<Option<Topology>>,
    shard_cfgs: Vec<Arc<ProtocolConfig>>,
}

impl InitialMembership {
    /// Partitions processes `0..n` into `cfg`'s anchor shards and builds one
    /// topology per populated shard.  With one shard this is the single
    /// global topology of the paper.
    ///
    /// This is where a deployment's shard count is decided: a stack runs one
    /// shard (its ticket matching needs the single global stage-4 barrier)
    /// and a count of zero is one.  Every node's configuration carries the
    /// decided count ([`Self::shard_cfgs`]), and so does the router the
    /// drivers and the verifier read.
    pub fn build(n: u64, mut cfg: ProtocolConfig) -> Self {
        cfg.shards = if cfg.is_stack() { 1 } else { cfg.shards.max(1) };
        let router = ShardRouter::new(ShardMap::new(cfg.shards as u32, cfg.hash_seed));
        let mut groups: Vec<Vec<ProcessId>> = vec![Vec::new(); cfg.shards];
        for pid in (0..n).map(ProcessId) {
            groups[router.route(pid) as usize].push(pid);
        }
        let topologies = groups
            .iter()
            .map(|group| {
                (!group.is_empty()).then(|| {
                    Topology::build(group, cfg.hasher())
                        .expect("non-empty, duplicate-free process set")
                })
            })
            .collect();
        // Per-shard routing budget, derived from the shard's own size
        // (shorter distance-halving routes inside smaller shard cycles).
        let shard_cfgs = groups
            .iter()
            .map(|group| {
                Arc::new(ProtocolConfig {
                    bit_budget: recommended_bit_budget(group.len().max(1)),
                    ..cfg
                })
            })
            .collect();
        InitialMembership {
            router,
            topologies,
            shard_cfgs,
        }
    }

    /// The deterministic process → shard assignment.
    pub(crate) fn router(&self) -> ShardRouter {
        self.router
    }

    /// One node configuration per shard — the deployment's, with the
    /// shard's bit budget — shared by the shard's nodes, joiners included.
    pub fn shard_cfgs(&self) -> &[Arc<ProtocolConfig>] {
        &self.shard_cfgs
    }

    /// Number of initial processes in each shard.
    pub(crate) fn shard_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.topologies
            .iter()
            .map(|t| t.as_ref().map_or(0, |t| t.processes().len()))
    }

    /// The initial processes, ascending, each with its shard and, in
    /// Left/Middle/Right order, the view of each of its virtual nodes with
    /// whether that node is the shard's anchor.  A shard's processes are
    /// ascending too, so each shard's [`Topology::views`] is read in step
    /// with the walk and no process is looked up; the walk ends at the first
    /// pid whose shard has no views left, the pid one past the last.
    pub fn processes(
        &self,
    ) -> impl Iterator<Item = (ProcessId, ShardId, [(LocalView, bool); 3])> + '_ {
        let mut shards: Vec<_> = self
            .topologies
            .iter()
            .map(|t| t.as_ref().map(Topology::views))
            .collect();
        (0..).map(ProcessId).map_while(move |pid| {
            let shard = self.router.route(pid);
            let views = shards[shard as usize].as_mut()?.next()?;
            debug_assert_eq!(views[0].0.me().vid.process, pid);
            Some((pid, shard, views))
        })
    }
}

/// The three nodes of *joining* process `pid`, in Left/Middle/Right order,
/// built from its shard's configuration `cfg` and told to announce
/// themselves to `bootstrap`.
pub fn joining_nodes<T: Payload>(
    cfg: &Arc<ProtocolConfig>,
    shard: ShardId,
    pid: ProcessId,
    bootstrap: NodeId,
) -> [SkueueNode<T>; 3] {
    joining_views(cfg.hasher(), pid).map(|view| {
        let mut node = SkueueNode::new_joining(Arc::clone(cfg), shard, view);
        node.set_bootstrap(bootstrap);
        node
    })
}

/// The ids of process `pid`'s three nodes, in Left/Middle/Right order.
pub fn nodes_of(pid: ProcessId) -> [NodeId; 3] {
    VKind::ALL.map(|kind| node_of(VirtualId::new(pid, kind)))
}

/// True if `test` holds at each of process `pid`'s three nodes, which
/// `node` looks up; false if one of them is not there.
pub fn all_nodes<'a, T: Payload>(
    pid: ProcessId,
    node: impl Fn(NodeId) -> Option<&'a SkueueNode<T>>,
    test: impl Fn(&SkueueNode<T>) -> bool,
) -> bool {
    nodes_of(pid).map(node).iter().all(|n| n.is_some_and(&test))
}

/// True while process `pid` may issue requests: its three nodes are
/// integrated members and its middle node has not asked to leave (a
/// process that has asked to leave generates no more requests, Section IV).
pub fn may_issue<'a, T: Payload>(
    pid: ProcessId,
    node: impl Fn(NodeId) -> Option<&'a SkueueNode<T>>,
) -> bool {
    all_nodes(pid, &node, SkueueNode::is_integrated)
        && !node(node_of(VirtualId::middle(pid))).is_some_and(SkueueNode::has_asked_to_leave)
}

/// Whether process `pid` may start its `LEAVE()`: only while it may issue,
/// and not while one of its nodes holds its shard's anchor state, which
/// this reproduction pins.
pub fn may_leave<'a, T: Payload>(
    pid: ProcessId,
    node: impl Fn(NodeId) -> Option<&'a SkueueNode<T>>,
) -> Result<(), ClusterError> {
    if !may_issue(pid, &node) {
        Err(ClusterError::ProcessNotActive(pid))
    } else if !all_nodes(pid, &node, |n| !n.is_anchor_node()) {
        Err(ClusterError::AnchorCannotLeave(pid))
    } else {
        Ok(())
    }
}

/// The views a joining process starts from, in Left/Middle/Right order:
/// its own identity under the dense id rule, every pointer aimed at itself
/// (the join protocol fills them in).
fn joining_views(hasher: LabelHasher, pid: ProcessId) -> [LocalView; 3] {
    let middle = hasher.process_label(pid);
    VKind::ALL.map(|kind| {
        let vid = VirtualId::new(pid, kind);
        let me = NeighborInfo::new(node_of(vid), vid, kind.label_from_middle(middle));
        LocalView::new(me, middle, me, me)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;

    #[test]
    fn initial_membership_has_one_anchor_per_populated_shard() {
        let cfg = ProtocolConfig {
            shards: 2,
            ..ProtocolConfig::queue()
        };
        let membership = InitialMembership::build(5, cfg);
        assert_eq!(membership.shard_cfgs().len(), 2);
        assert_eq!(membership.shard_sizes().sum::<usize>(), 5);
        let mut anchors = 0;
        for (pid, shard, views) in membership.processes() {
            assert_eq!(shard, membership.router().route(pid));
            for (kind, (view, is_anchor)) in VKind::ALL.into_iter().zip(&views) {
                // Every view's own identity follows the dense scheme.
                assert_eq!(view.me().vid, VirtualId::new(pid, kind));
                assert_eq!(view.me().node, node_of(view.me().vid));
                anchors += *is_anchor as usize;
            }
        }
        assert_eq!(anchors, 2, "exactly one anchor per populated shard");
    }

    /// The views handed out in process order are the views each node's
    /// own lookup finds, for every pid and with one anchor per populated
    /// shard.
    #[test]
    fn processes_yield_every_pid_in_order_with_its_looked_up_views() {
        for shards in [1, 2, 8] {
            for n in [1u64, 2, 7, 1000] {
                let cfg = ProtocolConfig {
                    shards,
                    ..ProtocolConfig::queue()
                };
                let membership = InitialMembership::build(n, cfg);
                let mut anchors = vec![0; shards];
                let mut pids = Vec::new();
                for (pid, shard, views) in membership.processes() {
                    assert_eq!(shard, membership.router().route(pid));
                    let topology = membership.topologies[shard as usize]
                        .as_ref()
                        .expect("a populated shard");
                    for (kind, (view, is_anchor)) in VKind::ALL.into_iter().zip(views) {
                        let vid = VirtualId::new(pid, kind);
                        assert_eq!(Ok(view), topology.local_view(vid, &node_of));
                        assert_eq!(is_anchor, vid == topology.anchor());
                        anchors[shard as usize] += is_anchor as usize;
                    }
                    pids.push(pid);
                }
                assert_eq!(pids, (0..n).map(ProcessId).collect::<Vec<_>>());
                let populated = membership.shard_sizes().map(|size| (size > 0) as usize);
                assert!(anchors.into_iter().eq(populated), "S = {shards}, n = {n}");
            }
        }
    }

    /// A stack runs one shard whatever it asks for, and a queue asking for
    /// none runs one: every shard configuration and the router carry the
    /// decided count.
    #[test]
    fn a_stack_and_a_queue_of_zero_shards_build_one() {
        let stack = ProtocolConfig {
            mode: Mode::Stack,
            shards: 4,
            ..ProtocolConfig::queue()
        };
        let none = ProtocolConfig {
            shards: 0,
            ..ProtocolConfig::queue()
        };
        for cfg in [stack, none] {
            let membership = InitialMembership::build(6, cfg);
            assert_eq!(membership.shard_cfgs().len(), 1, "{cfg:?}");
            assert_eq!(membership.shard_cfgs()[0].shards, 1, "{cfg:?}");
            assert_eq!(membership.router().map().shard_count(), 1, "{cfg:?}");
        }
    }

    #[test]
    fn joiner_views_are_self_pointing() {
        let views = joining_views(ProtocolConfig::queue().hasher(), ProcessId(7));
        for (kind, view) in VKind::ALL.into_iter().zip(&views) {
            assert_eq!(view.me().vid, VirtualId::new(ProcessId(7), kind));
            assert_eq!(view.me().node, node_of(view.me().vid));
            assert_eq!(view.pred(), view.me());
            assert_eq!(view.succ(), view.me());
            assert_eq!(view.sibling(kind), view.me());
        }
    }
}
