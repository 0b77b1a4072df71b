//! Who owns the heap of a loaded cluster: capacity × element size of every
//! container a node keeps, summed over the nodes, at the round where that
//! sum peaks.  A tool, not a check — it asserts nothing about the sizes:
//!
//! ```text
//! cargo test --release -p skueue-core heap_census -- --ignored --nocapture
//! ```
//!
//! The load is the benchmark's `sim_heavy` at seed 42: 3 000 processes, 8
//! shards, 1 000 operations a round for 100 rounds, then the drain, from the
//! same SplitMix stream the benchmark draws its inputs from.  Batches count
//! the runs they hold (their vectors' capacity is private to `batch`), the
//! stores the entries they hold (a B-tree has no capacity), and the history
//! its records; everything else counts its capacity.  Messages in flight sit
//! in the simulator and are not counted.  The crate forbids `unsafe`, so no
//! counting allocator finds the live heap's peak here; the census's own sum
//! peaks a few rounds before it (round 154, where a counting allocator puts
//! the live heap's peak at round 159).

use super::*;
use crate::cluster::Skueue;
use std::mem::size_of;

const PROCESSES: u64 = 3000;
const SHARDS: usize = 8;
const OPS_PER_ROUND: usize = 1000;
const LOAD_ROUNDS: usize = 100;
const SEED: u64 = 42;
const DRAIN_ROUND_LIMIT: usize = 20_000;

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

/// Bytes per owner, in a fixed order.
type Census = Vec<(&'static str, usize)>;

fn census(cluster: &Skueue<u64>) -> Census {
    let nodes: Vec<&SkueueNode<u64>> = cluster.nodes().map(|(_, node)| node).collect();
    let per_node = |bytes: &dyn Fn(&SkueueNode<u64>) -> usize| -> usize {
        nodes.iter().map(|node| bytes(node)).sum()
    };
    let per_work = |bytes: &dyn Fn(&Work<u64>) -> usize| -> usize {
        per_node(&|node| node.work.as_deref().map_or(0, bytes))
    };
    let batch_bytes = |batch: &Batch| batch.num_runs() * size_of::<u64>();
    // A hash table keeps one control byte per bucket besides the pair.
    let get_bytes = size_of::<(RequestId, OutstandingGet)>() + 1;
    vec![
        (
            "node slots, inline",
            per_node(&|_| size_of::<SkueueNode<u64>>()),
        ),
        ("work boxes", per_work(&|_| size_of::<Work<u64>>())),
        ("own logs", per_work(&|w| vec_bytes(&w.own_log))),
        (
            "own and queued child batches",
            per_work(&|w| {
                let queued = &w.child_batches.0;
                let runs: usize = queued.iter().map(|(_, _, b)| batch_bytes(b)).sum();
                batch_bytes(&w.own_batch) + vec_bytes(queued) + runs
            }),
        ),
        ("wave rings", per_work(&|w| deque_bytes(&w.slots))),
        ("memo records", per_work(&|w| deque_bytes(&w.memo.records))),
        ("memo run lengths", per_work(&|w| deque_bytes(&w.memo.runs))),
        (
            "serve stashes",
            per_work(&|w| {
                let runs: usize = w.serve_stash.iter().map(|s| vec_bytes(&s.runs)).sum();
                vec_bytes(&w.serve_stash) + runs
            }),
        ),
        (
            "stored entries",
            per_work(&|w| w.store.len() * size_of::<StoredEntry<u64>>()),
        ),
        (
            "outstanding GETs",
            per_work(&|w| w.outstanding_gets.capacity() * get_bytes),
        ),
        ("completion buffers", per_work(&|w| vec_bytes(&w.completed))),
        (
            "lane orders",
            per_node(&|node| vec_bytes(&node.lanes.peers)),
        ),
        (
            "anchor, membership, combining boxes",
            per_node(&|node| {
                boxed_bytes(&node.anchor)
                    + boxed_bytes(&node.membership)
                    + boxed_bytes(&node.combining)
            }),
        ),
        (
            "history records",
            cluster.history().len() * size_of::<OpRecord<u64>>(),
        ),
    ]
}

fn total(census: &Census) -> usize {
    census.iter().map(|(_, bytes)| bytes).sum()
}

#[test]
#[ignore = "a measurement tool: run with --release --ignored --nocapture"]
fn heap_census() {
    let mut cluster = Skueue::<u64>::builder()
        .processes(PROCESSES as usize)
        .shards(SHARDS)
        .threads(1)
        .seed(SEED)
        .build()
        .expect("valid configuration");
    let mut rng = SplitMix::new(SEED);
    let mut value = 0;
    let ops = OPS_PER_ROUND * LOAD_ROUNDS;
    let (mut peak, mut peak_round) = (census(&cluster), 0);
    for round in 0..LOAD_ROUNDS + DRAIN_ROUND_LIMIT {
        if round >= LOAD_ROUNDS && cluster.history().len() == ops {
            break;
        }
        if round < LOAD_ROUNDS {
            for _ in 0..OPS_PER_ROUND {
                let mut client = cluster.client(ProcessId(rng.next_u64() % PROCESSES));
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

    const MIB: f64 = (1 << 20) as f64;
    println!("heap census of sim_heavy, seed {SEED}, at round {peak_round} (its peak):");
    for (owner, bytes) in &peak {
        println!("  {owner:<38} {:>8.2} MiB", *bytes as f64 / MIB);
    }
    println!("  {:<38} {:>8.2} MiB", "total", total(&peak) as f64 / MIB);
}
