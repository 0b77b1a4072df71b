//! Who owns the heap of a loaded cluster: capacity × element size of every
//! container a node keeps, summed over the nodes, at the round where that
//! sum peaks.  A tool, not a check — it asserts nothing about the sizes:
//!
//! ```text
//! cargo test --release -p skueue-core heap_census -- --ignored --nocapture
//! ```
//!
//! The loads are two of the benchmark's, at seed 42, from the same SplitMix
//! stream the benchmark draws its inputs from: `sim_heavy` (3 000 processes,
//! 8 shards, 1 000 operations a round for 100 rounds) and `sim_light`
//! (10 000 processes, one shard, 10 operations a round for 1 000 rounds),
//! each followed by its drain.  Batches count the runs they hold (their
//! vectors' capacity is private to `batch`) and the history its records;
//! everything else, the DHT stores' two deques among them, counts its
//! capacity.  The two halves of a node's work are counted with how many
//! nodes hold each.
//!
//! Not counted: the messages in flight, which sit in the simulator (at
//! `sim_heavy`'s peak about 6 MiB by a one-off count with scratch
//! accessors: 26.6 k boxed routed DHT operations 3.4 MiB, the delivery
//! wheel 1.25 MiB, the lane inbox 1.32 MiB); the contents of the anchor,
//! membership and combining boxes beyond their inline size; and the
//! allocator's own overhead.  The crate forbids `unsafe`, so no counting
//! allocator finds the live heap's peak here; the census's own sum peaks
//! near it (on `sim_heavy` at round 158, where a counting allocator put the
//! live heap's peak at round 159 before the work state was split).  Most of
//! the run time is `sim_light`'s drain, whose last operations complete
//! thousands of rounds after its load.

use super::*;
use crate::cluster::Skueue;
use std::mem::size_of;

const SEED: u64 = 42;
const DRAIN_ROUND_LIMIT: usize = 20_000;

/// A benchmark workload's shape, as far as the census replays it.
struct Shape {
    name: &'static str,
    processes: u64,
    shards: usize,
    ops_per_round: usize,
    load_rounds: usize,
}

const SHAPES: [Shape; 2] = [
    Shape {
        name: "sim_heavy",
        processes: 3000,
        shards: 8,
        ops_per_round: 1000,
        load_rounds: 100,
    },
    Shape {
        name: "sim_light",
        processes: 10_000,
        shards: 1,
        ops_per_round: 10,
        load_rounds: 1000,
    },
];

/// The benchmark's input generator: SplitMix64 from `seed ^ 0x5EED…`.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn vec_bytes<E>(v: &Vec<E>) -> usize {
    v.capacity() * size_of::<E>()
}

fn deque_bytes<E>(d: &VecDeque<E>) -> usize {
    d.capacity() * size_of::<E>()
}

fn boxed_bytes<E>(b: &Option<Box<E>>) -> usize {
    b.as_ref().map_or(0, |_| size_of::<E>())
}

/// Bytes per owner, in a fixed order, with how many nodes hold the owner
/// where that is one box per node.
type Census = Vec<(&'static str, usize, Option<usize>)>;

fn census(cluster: &Skueue<u64>) -> Census {
    let nodes: Vec<&SkueueNode<u64>> = cluster.nodes().map(|(_, node)| node).collect();
    let per_node = |bytes: &dyn Fn(&SkueueNode<u64>) -> usize| -> usize {
        nodes.iter().map(|node| bytes(node)).sum()
    };
    let per_waves = |bytes: &dyn Fn(&Waves<u64>) -> usize| -> usize {
        per_node(&|node| node.waves.as_deref().map_or(0, bytes))
    };
    let per_requests = |bytes: &dyn Fn(&Requests<u64>) -> usize| -> usize {
        per_node(&|node| node.requests().map_or(0, bytes))
    };
    let holding = |holds: &dyn Fn(&SkueueNode<u64>) -> bool| -> usize {
        nodes.iter().filter(|node| holds(node)).count()
    };
    let wave_halves = holding(&|node| node.waves.is_some());
    let request_halves = holding(&|node| node.requests().is_some());
    let batch_bytes = |batch: &Batch| batch.num_runs() * size_of::<u64>();
    vec![
        (
            "node slots, inline",
            per_node(&|_| size_of::<SkueueNode<u64>>()),
            None,
        ),
        (
            "wave halves",
            wave_halves * size_of::<Waves<u64>>(),
            Some(wave_halves),
        ),
        (
            "request halves",
            request_halves * size_of::<Requests<u64>>(),
            Some(request_halves),
        ),
        (
            "child queues, capacity",
            per_waves(&|w| vec_bytes(&w.child_batches.0)),
            None,
        ),
        (
            "queued child and own batch runs",
            per_waves(&|w| {
                w.child_batches
                    .0
                    .iter()
                    .map(|(_, _, b)| batch_bytes(b))
                    .sum()
            }) + per_requests(&|r| batch_bytes(&r.own_batch)),
            None,
        ),
        ("wave rings", per_waves(&|w| deque_bytes(&w.slots)), None),
        (
            "memo records",
            per_waves(&|w| deque_bytes(&w.memo.records)),
            None,
        ),
        (
            "memo run lengths",
            per_waves(&|w| deque_bytes(&w.memo.runs)),
            None,
        ),
        (
            "serve stashes",
            per_waves(&|w| {
                let runs: usize = w.serve_stash.iter().map(|s| vec_bytes(&s.runs)).sum();
                vec_bytes(&w.serve_stash) + runs
            }),
            None,
        ),
        ("own logs", per_requests(&|r| vec_bytes(&r.own_log)), None),
        (
            "DHT stores (entries, parked GETs)",
            per_requests(&|r| r.store.allocated_bytes()),
            None,
        ),
        (
            "outstanding GETs",
            per_requests(&|r| vec_bytes(&r.outstanding_gets)),
            None,
        ),
        (
            "completion buffers",
            per_requests(&|r| vec_bytes(&r.completed)),
            None,
        ),
        (
            "lane orders",
            per_node(&|node| vec_bytes(&node.lanes.peers)),
            None,
        ),
        (
            "anchor, membership, combining boxes",
            per_node(&|node| {
                boxed_bytes(&node.anchor)
                    + boxed_bytes(&node.membership)
                    + boxed_bytes(&node.combining)
            }),
            None,
        ),
        (
            "history records",
            cluster.history().len() * size_of::<OpRecord<u64>>(),
            None,
        ),
    ]
}

fn total(census: &Census) -> usize {
    census.iter().map(|(_, bytes, _)| bytes).sum()
}

/// Replays `shape`'s load and drain and returns the census at its peak
/// round.
fn peak_census(shape: &Shape) -> (Census, u64) {
    let mut cluster = Skueue::<u64>::builder()
        .processes(shape.processes as usize)
        .shards(shape.shards)
        .threads(1)
        .seed(SEED)
        .build()
        .expect("valid configuration");
    let mut rng = SplitMix::new(SEED);
    let mut value = 0;
    let ops = shape.ops_per_round * shape.load_rounds;
    let (mut peak, mut peak_round) = (census(&cluster), 0);
    for round in 0..shape.load_rounds + DRAIN_ROUND_LIMIT {
        if round >= shape.load_rounds && cluster.history().len() == ops {
            break;
        }
        if round < shape.load_rounds {
            for _ in 0..shape.ops_per_round {
                let mut client = cluster.client(ProcessId(rng.next_u64() % shape.processes));
                // The benchmark's `unit() < 0.5`: the draw's top bit is clear.
                if rng.next_u64() >> 63 == 0 {
                    value += 1;
                    client.enqueue(value).expect("active process");
                } else {
                    client.dequeue().expect("active process");
                }
            }
        }
        cluster.run_round();
        let now = census(&cluster);
        if total(&now) > total(&peak) {
            (peak, peak_round) = (now, cluster.round());
        }
    }
    assert_eq!(cluster.history().len(), ops, "the load drains");
    (peak, peak_round)
}

#[test]
#[ignore = "a measurement tool: run with --release --ignored --nocapture"]
fn heap_census() {
    const MIB: f64 = (1 << 20) as f64;
    for shape in &SHAPES {
        let (peak, peak_round) = peak_census(shape);
        println!(
            "heap census of {}, seed {SEED}, at round {peak_round} (its peak):",
            shape.name
        );
        for (owner, bytes, holders) in &peak {
            let holders = holders.map_or(String::new(), |n| format!("  ({n} nodes)"));
            println!("  {owner:<38} {:>8.2} MiB{holders}", *bytes as f64 / MIB);
        }
        println!("  {:<38} {:>8.2} MiB", "total", total(&peak) as f64 / MIB);
    }
}
