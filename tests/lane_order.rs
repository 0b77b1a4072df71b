//! What a virtual node keeps of its coalescing lanes, and that it is enough.
//!
//! Between visits a node keeps only the first-contact order of the peers it
//! routes to, replies to and combines sub-batches from: a visit's `DhtBatch`
//! and `DhtReplyBatch` messages are staged in the lane's `Context` and sent
//! at the visit's end, and queued child sub-batches sit in the node's work
//! state, which is freed while the node is idle.  This test holds the sizes
//! that buys and checks the orders the schedule rests on: a node sends its
//! batches in first-contact order whatever the order of a visit, and it
//! combines each child's oldest sub-batch, children in first-contact order.
//! The release build in CI runs it beside the memory budgets: `cargo test
//! --release --test lane_order`; the debug build's `debug_assert!`s check,
//! beside it, that no invocation leaves a message staged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

use skueue::core::messages::RoutedDhtOp;
use skueue::core::{Batch, BatchOp, DhtOp, FirstRun, SkueueMsg, SkueueNode};
use skueue::overlay::{
    node_of, recommended_bit_budget, Label, LabelHasher, RouteProgress, Topology, VKind, VirtualId,
};
use skueue::prelude::*;
use skueue::sim::{Actor, Context, Lane, SimTransport};
use skueue::verify::OpRecord;

/// Inline size of one virtual node (232 B with a route, a reply and a
/// child-batch table inline).
const NODE_BYTES_CEILING: usize = 176;
/// Live heap per virtual node after `tests/idle_node_memory.rs`'s load has
/// drained, history and ticket outcomes included: 497 B measured plus 15 %
/// (792 B with the tables).
const DRAINED_BYTES_PER_NODE: isize = 572;

thread_local! {
    /// Bytes this thread holds: the test harness runs each test on a thread
    /// of its own, so a test counts only what it allocates.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: isize) {
    LIVE_BYTES.with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_node_is_176_bytes() {
    assert!(
        size_of::<SkueueNode<u64>>() <= NODE_BYTES_CEILING,
        "SkueueNode<u64> is {} B",
        size_of::<SkueueNode<u64>>()
    );
}

/// The load of `tests/idle_node_memory.rs`: 1000 processes, 3000 operations
/// over 300 rounds, drained.
#[test]
fn a_drained_node_holds_no_lane_containers() {
    const PROCESSES: usize = 1000;
    const NODES: isize = 3 * PROCESSES as isize;
    let before = LIVE_BYTES.with(Cell::get);
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES)
        .seed(42)
        .build()
        .expect("valid configuration");
    let mut rng = SimRng::new(7);
    for round in 0..300u64 {
        for _ in 0..10 {
            let mut client = cluster.client(ProcessId(rng.next_u64() % PROCESSES as u64));
            if rng.next_u64() & 1 == 0 {
                client.enqueue(round).expect("active process");
            } else {
                client.dequeue().expect("active process");
            }
        }
        cluster.run_round();
    }
    cluster
        .run_until_all_complete(50_000)
        .expect("the load drains");
    assert_eq!(cluster.history().len(), 3000);
    let drained = (LIVE_BYTES.with(Cell::get) - before) / NODES;
    println!("drained {drained} B/node");
    assert!(
        drained <= DRAINED_BYTES_PER_NODE,
        "drained {drained} B/node, budget {DRAINED_BYTES_PER_NODE}"
    );
}

/// The twelve nodes of a four-process queue, each with its id.
fn four_processes() -> Vec<(NodeId, SkueueNode<u64>)> {
    let pids: Vec<ProcessId> = (0..4).map(ProcessId).collect();
    let topology = Topology::build(&pids, LabelHasher::default()).expect("distinct pids");
    let cfg = Arc::new(ProtocolConfig {
        bit_budget: recommended_bit_budget(pids.len()),
        ..ProtocolConfig::queue()
    });
    let mut nodes = Vec::new();
    for &p in &pids {
        for kind in VKind::ALL {
            let vid = VirtualId::new(p, kind);
            let view = topology.local_view(vid, &node_of).expect("own vid");
            let anchor = vid == topology.anchor();
            nodes.push((node_of(vid), SkueueNode::new(cfg.clone(), 0, view, anchor)));
        }
    }
    nodes
}

/// The middle node of process 0: not the anchor, so it has a tree parent.
fn middle_node() -> SkueueNode<u64> {
    let me = node_of(VirtualId::middle(ProcessId(0)));
    let (_, node) = four_processes()
        .into_iter()
        .find(|(id, _)| *id == me)
        .expect("process 0 has a middle node");
    assert!(!node.is_anchor_node());
    node
}

/// A GET walking the cycle towards `target`, one hop from its source.
fn get_towards(target: Label, seq: u64) -> RoutedDhtOp<u64> {
    RoutedDhtOp {
        op: Box::new(DhtOp::Get {
            position: seq,
            max_ticket: u64::MAX,
            request: RequestId::new(ProcessId(7), seq),
            requester: NodeId(1000),
        }),
        progress: RouteProgress::linear_only(target),
    }
}

/// Runs one visit of `node`: `msgs` delivered, then its `TIMEOUT`; returns
/// what it sent.
fn visit(
    node: &mut SkueueNode<u64>,
    round: u64,
    msgs: Vec<(NodeId, SkueueMsg<u64>)>,
) -> Vec<(NodeId, SkueueMsg<u64>)> {
    let mut ctx = Context::new(node.view().me().node, round);
    for (from, msg) in msgs {
        node.on_message(from, msg, &mut ctx);
    }
    node.on_timeout(&mut ctx);
    assert!(ctx.staged().is_empty(), "the visit left messages staged");
    ctx.into_outbox()
}

/// A node that routes towards its successor and then its predecessor in
/// one visit, and the other way round in the next, sends its successor's
/// `DhtBatch` first both times: the send order is the first-contact order,
/// not a visit's.  Delivery order on a channel — and with it every golden
/// history under asynchronous delivery — rests on it.
#[test]
fn a_node_sends_its_batches_in_first_contact_order() {
    let mut node = middle_node();
    let (succ, pred) = (node.view().succ(), node.view().pred());
    // Just past the successor, the walk goes clockwise; at the predecessor,
    // counter-clockwise.
    let towards_succ = Label(succ.label.raw().wrapping_add(1));
    let towards_pred = pred.label;
    let from = NodeId(1000);
    let mut seq = 0;
    for (first, second) in [(towards_succ, towards_pred), (towards_pred, towards_succ)] {
        let mut ops = Vec::new();
        for target in [first, second, first] {
            ops.push(get_towards(target, seq));
            seq += 1;
        }
        let sent = visit(&mut node, seq, vec![(from, SkueueMsg::DhtBatch { ops })]);
        let batches: Vec<(NodeId, usize)> = sent
            .iter()
            .filter_map(|(to, msg)| match msg {
                SkueueMsg::DhtBatch { ops } => Some((*to, ops.len())),
                _ => None,
            })
            .collect();
        let expected = if first == towards_succ {
            [(succ.node, 2), (pred.node, 1)]
        } else {
            [(succ.node, 1), (pred.node, 2)]
        };
        assert_eq!(batches, expected);
    }
}

/// A sub-batch of no runs: all a serve of it carries is the child's epoch.
fn bare_batch() -> Batch {
    Batch::from_parts(FirstRun::Enqueues, Vec::new(), 0, 0)
}

/// The `(child, epoch)` of every `Serve` in `sent`, in send order.
fn serves(sent: &[(NodeId, SkueueMsg<u64>)]) -> Vec<(NodeId, u64)> {
    sent.iter()
        .filter_map(|(to, msg)| match msg {
            SkueueMsg::Serve { epoch, .. } => Some((*to, *epoch)),
            _ => None,
        })
        .collect()
}

/// The epoch of the wave `sent` carried up the tree.
fn wave_sent_up(sent: &[(NodeId, SkueueMsg<u64>)]) -> u64 {
    let epochs: Vec<u64> = sent
        .iter()
        .filter_map(|(_, msg)| match msg {
            SkueueMsg::Aggregate { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .collect();
    assert_eq!(epochs.len(), 1, "one wave per visit");
    epochs[0]
}

/// Sub-batches that arrive out of epoch order are combined in epoch order
/// per child — one per child and wave — and the children of a wave are
/// served in the order they were first heard from, whatever their ids and
/// whatever the order of later arrivals.
#[test]
fn children_are_combined_oldest_first_in_first_contact_order() {
    let mut node = middle_node();
    let parent = node.view().sibling(VKind::Left).node;
    // Heard from first, with the larger id.
    let (first, second) = (NodeId(2001), NodeId(2000));
    let aggregate = |child, epoch| {
        let msg = SkueueMsg::Aggregate {
            child,
            epoch,
            batch: bare_batch(),
        };
        (child, msg)
    };
    let serve = |epoch| {
        let msg = SkueueMsg::Serve {
            epoch,
            runs: Vec::new(),
        };
        (parent, msg)
    };
    let sent = visit(
        &mut node,
        2,
        vec![
            aggregate(first, 2),
            aggregate(second, 1),
            aggregate(first, 1),
        ],
    );
    let wave = wave_sent_up(&sent);
    // The second child's next sub-batch arrives before the first's is
    // combined: the first is still served first.
    let sent = visit(&mut node, 4, vec![aggregate(second, 2), serve(wave)]);
    assert_eq!(serves(&sent), [(first, 1), (second, 1)]);
    let wave = wave_sent_up(&sent);
    // Both queues ran empty; now the second child is heard from first.
    let sent = visit(
        &mut node,
        6,
        vec![aggregate(second, 3), aggregate(first, 3), serve(wave)],
    );
    assert_eq!(serves(&sent), [(first, 2), (second, 2)]);
    let wave = wave_sent_up(&sent);
    let sent = visit(&mut node, 8, vec![serve(wave)]);
    assert_eq!(serves(&sent), [(first, 3), (second, 3)]);
}

/// Nothing is left staged in a lane's context after a driver action or a
/// visit: a lane keeps one context for every invocation, so a batch left
/// there would leave with another node's sends.
#[test]
fn a_lane_leaves_nothing_staged() {
    let mut lane = Lane::new(SimTransport::new(
        DeliveryModel::Synchronous,
        SimRng::new(1),
    ));
    let nodes = four_processes();
    let ids: Vec<NodeId> = nodes.iter().map(|(id, _)| *id).collect();
    for (id, node) in nodes {
        lane.add_node(id, node);
    }
    let mut rng = SimRng::new(3);
    let mut seq = 0;
    let mut drained = Vec::new();
    for _ in 0..200 {
        for _ in 0..3 {
            let at = ids[(rng.next_u64() % ids.len() as u64) as usize];
            let kind = if rng.next_u64() & 1 == 0 {
                BatchOp::Enqueue
            } else {
                BatchOp::Dequeue
            };
            let process = ProcessId(at.0 / 3);
            let staged = lane.act(at, |node, ctx| {
                node.generate_op(RequestId::new(process, seq), kind, seq, ctx);
                ctx.staged().is_empty()
            });
            assert_eq!(staged, Some(true), "an action left messages staged");
            seq += 1;
        }
        lane.step(true);
        let visited: Vec<NodeId> = lane.visited().collect();
        for id in visited {
            let staged = lane.act(id, |_, ctx| ctx.staged().is_empty());
            assert_eq!(staged, Some(true), "a visit left messages staged");
        }
        drained.extend(lane.drain_reports::<OpRecord<u64>>());
    }
    assert!(!drained.is_empty(), "the load completed nothing");
}
