//! What a virtual node keeps of its neighbourhood, and that it is enough.
//!
//! A node's `LocalView` stores only what it cannot derive — its own id, its
//! process's middle label and an `(id, label)` pair per cycle neighbour —
//! and rebuilds every `NeighborInfo` from them on demand.  This test holds
//! the sizes that buys, checks the rebuilt neighbourhoods against an oracle
//! that sorts the cycle itself, and checks the cycle the join/leave protocol
//! leaves behind after churn.  The release build in CI runs it beside the
//! memory budgets: `cargo test --release --test node_view`.

use std::collections::HashMap;
use std::mem::size_of;

use skueue::core::SkueueNode;
use skueue::overlay::{node_of, LocalView, NeighborInfo, Topology, VKind, VirtualId};
use skueue::prelude::*;

/// Inline size of one virtual node (376 B before the view was compacted).
const NODE_BYTES_CEILING: usize = 240;
/// The view: one id, one label, two `(id, label)` pairs (192 B before).
const VIEW_BYTES_CEILING: usize = 48;

#[test]
fn a_node_is_240_bytes_and_its_view_48() {
    assert!(
        size_of::<SkueueNode<u64>>() <= NODE_BYTES_CEILING,
        "SkueueNode<u64> is {} B",
        size_of::<SkueueNode<u64>>()
    );
    assert!(
        size_of::<LocalView>() <= VIEW_BYTES_CEILING,
        "LocalView is {} B",
        size_of::<LocalView>()
    );
}

fn cluster(processes: usize, shards: usize, hash_seed: u64) -> SkueueCluster<u64> {
    Skueue::<u64>::builder()
        .processes(processes)
        .shards(shards)
        .seed(42)
        .hash_seed(hash_seed)
        .build()
        .expect("valid configuration")
}

/// The processes of each shard, by shard.
fn shard_members(cluster: &SkueueCluster<u64>) -> HashMap<ShardId, Vec<ProcessId>> {
    let mut members: HashMap<ShardId, Vec<ProcessId>> = HashMap::new();
    for (_, node) in cluster.nodes() {
        let pid = node.process();
        if node.view().kind() == VKind::Middle {
            let shard = cluster.shard_of_process(pid).expect("a known process");
            members.entry(shard).or_default().push(pid);
        }
    }
    members
}

/// Every built node's rebuilt neighbourhood is the one its shard's sorted
/// cycle gives it — sorted here, by label, from the hash alone — and the
/// one `Topology::local_view` builds.
#[test]
fn every_built_view_rebuilds_the_neighbourhood_of_its_shards_cycle() {
    for (processes, shards) in [(1, 1), (12, 1), (1000, 1), (3000, 8)] {
        for hash_seed in [1, 7, 42] {
            let cluster = cluster(processes, shards, hash_seed);
            let hasher = cluster.node(NodeId(0)).expect("node 0").config().hasher();
            let mut checked = 0;
            for (_, pids) in shard_members(&cluster) {
                let info = |vid: VirtualId| {
                    let middle = hasher.process_label(vid.process);
                    NeighborInfo::new(node_of(vid), vid, vid.kind.label_from_middle(middle))
                };
                let mut cycle: Vec<NeighborInfo> = pids
                    .iter()
                    .flat_map(|&p| VKind::ALL.map(|kind| info(VirtualId::new(p, kind))))
                    .collect();
                cycle.sort_by_key(|n| (n.label, n.vid));
                let topology = Topology::build(&pids, hasher).expect("distinct processes");
                let len = cycle.len();
                for (at, &me) in cycle.iter().enumerate() {
                    let node = cluster.node(me.node).expect("a built node");
                    let view = node.view();
                    let case = format!("n {processes}, S {shards}, seed {hash_seed}, {}", me.vid);
                    assert_eq!(view.me(), me, "{case}");
                    assert_eq!(view.pred(), cycle[(at + len - 1) % len], "{case}");
                    assert_eq!(view.succ(), cycle[(at + 1) % len], "{case}");
                    for kind in VKind::ALL {
                        let sibling = info(VirtualId::new(me.vid.process, kind));
                        assert_eq!(view.sibling(kind), sibling, "{case}");
                    }
                    let built = topology.local_view(me.vid, &node_of).expect("own vid");
                    assert_eq!(view, &built, "{case}");
                    checked += 1;
                }
            }
            assert_eq!(checked, 3 * processes);
        }
    }
}

/// After joins and leaves under load have run to completion, every
/// integrated node's neighbours are integrated nodes of its shard that
/// point back at it, with the labels they have, and each shard's successor
/// edges form one sorted cycle through all of them.
#[test]
fn after_churn_each_shards_cycle_is_closed_and_consistent() {
    const PROCESSES: u64 = 40;
    let mut cluster = cluster(PROCESSES as usize, 2, 42);
    let mut rng = SimRng::new(3);
    let (mut joiners, mut leavers) = (Vec::new(), Vec::new());
    for round in 0..120u64 {
        for _ in 0..5 {
            let p = ProcessId(rng.next_u64() % PROCESSES);
            if cluster.process_may_issue(p) {
                let mut client = cluster.client(p);
                if rng.next_u64() & 1 == 0 {
                    client.enqueue(round).expect("may issue");
                } else {
                    client.dequeue().expect("may issue");
                }
            }
        }
        // A join and a leave in the same round, every 20 rounds.
        if round % 20 == 5 {
            joiners.push(cluster.join(None).expect("a populated shard"));
            loop {
                let p = ProcessId(rng.next_u64() % PROCESSES);
                if cluster.process_may_issue(p) && cluster.leave(p).is_ok() {
                    leavers.push(p);
                    break;
                }
            }
        }
        cluster.run_round();
    }
    cluster
        .run_until_all_complete(20_000)
        .expect("the load drains");
    cluster
        .run_until(
            |c| {
                joiners.iter().all(|&p| c.process_is_active(p))
                    && leavers.iter().all(|&p| c.process_has_left(p))
            },
            20_000,
        )
        .expect("every joiner integrates and every leaver leaves");
    assert!(check_queue_sharded(cluster.history(), &cluster.shard_map()).is_consistent());

    let integrated: HashMap<NodeId, &SkueueNode<u64>> = cluster
        .nodes()
        .filter(|(_, node)| node.is_integrated())
        .collect();
    assert_eq!(integrated.len(), 3 * PROCESSES as usize);
    let shard = |node: &SkueueNode<u64>| node.shard();
    for (&id, node) in &integrated {
        let view = node.view();
        assert_eq!(view.me().node, id);
        for neighbour in [view.pred(), view.succ()] {
            assert_eq!(neighbour.node, node_of(neighbour.vid), "{}", view.me().vid);
            let other = integrated[&neighbour.node];
            assert_eq!(other.view().me(), neighbour, "{} names a stale label", id);
            assert_eq!(shard(other), shard(node), "{} links across shards", id);
        }
        assert_eq!(integrated[&view.succ().node].view().pred(), view.me());
        assert_eq!(integrated[&view.pred().node].view().succ(), view.me());
    }
    // Walking the successor edges from a shard's anchor visits every
    // integrated node of the shard once, in label order, and wraps once.
    for anchor in integrated.values().filter(|node| node.view().is_anchor()) {
        let members = integrated
            .values()
            .filter(|node| shard(node) == shard(anchor))
            .count();
        let start = anchor.view().me();
        let (mut at, mut steps) = (start, 0);
        loop {
            let succ = integrated[&at.node].view().succ();
            steps += 1;
            if succ.node == start.node {
                break;
            }
            assert!(
                succ.label > at.label,
                "{} → {} goes backwards",
                at.vid,
                succ.vid
            );
            at = succ;
        }
        assert_eq!(steps, members, "shard {}", shard(anchor));
    }
}
