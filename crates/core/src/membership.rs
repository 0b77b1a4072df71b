//! Who is a member at start, and what a joiner knows — written once for
//! every driver.
//!
//! The simulation cluster ([`crate::SkueueCluster`]) and the TCP daemon
//! (`skueue-net`) must agree on the starting overlay, or a simulated run
//! says nothing about a deployed one.  This module is the one place that
//! knows how it is made: the partition of the initial processes into anchor
//! shards, one [`Topology`] and one node configuration per shard (the
//! deployment's, with the routing bit budget derived from the shard's size),
//! the three [`LocalView`]s of a process, and the self-pointing nodes a
//! joiner starts as — every node addressed by the overlay's dense id rule,
//! [`node_of`].  Both drivers call it and keep only what is theirs — where
//! the nodes live and how they are visited.

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
/// configuration — and derives one process's views on request
/// ([`Self::process`]), so a driver builds its nodes one process at a time
/// and a daemon only ever derives the views of processes it hosts.
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
    pub fn build(n: u64, mut cfg: ProtocolConfig) -> Self {
        // Normalised (stack mode pins the count to 1) so every consumer —
        // nodes, verifier, accessors — sees the effective value.
        cfg.shards = cfg.effective_shards();
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

    /// Initial process `pid`'s shard and, in Left/Middle/Right order, the
    /// view of each of its virtual nodes with whether that node is the
    /// shard's anchor.
    pub fn process(&self, pid: ProcessId) -> (ShardId, [(LocalView, bool); 3]) {
        let shard = self.router.route(pid);
        let topology = self.topologies[shard as usize]
            .as_ref()
            .expect("an initial process is grouped into its shard");
        let views = VKind::ALL.map(|kind| {
            let vid = VirtualId::new(pid, kind);
            let view = topology
                .local_view(vid, &node_of)
                .expect("vid from own topology");
            (view, vid == topology.anchor())
        });
        (shard, views)
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

    #[test]
    fn initial_membership_has_one_anchor_per_populated_shard() {
        let cfg = ProtocolConfig::queue().with_shards(2);
        let membership = InitialMembership::build(5, cfg);
        assert_eq!(membership.shard_cfgs().len(), 2);
        assert_eq!(membership.shard_sizes().sum::<usize>(), 5);
        let mut anchors = 0;
        for pid in (0..5).map(ProcessId) {
            let (shard, views) = membership.process(pid);
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
