//! The cost ledger: micro-timings of public functions of every layer, over
//! the real types, sized like the workload they are reconciled against.
//!
//! Each row is the median over [`BATCHES`] timed batches, in nanoseconds per
//! event.  The rows are multiplied by the event counts of an untraced run
//! and compared with the measured time inside `run_round` (see
//! `reconcile` in main.rs); what they do not explain is reported as the
//! residual, never hidden.

use std::hint::black_box;
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use skueue::core::interval::decompose;
use skueue::core::messages::{PutMeta, RoutedDhtOp};
use skueue::core::{AnchorState, Batch, BatchOp, DhtOp, Mode, SkueueMsg};
use skueue::dht::{Element, NodeStore, PendingGet, StoredEntry};
use skueue::net::codec::{from_bytes, to_bytes};
use skueue::net::frame::{read_frame, write_frame};
use skueue::net::NetFrame;
use skueue::overlay::{
    recommended_bit_budget, route_step, LabelHasher, LocalView, RouteAction, RouteProgress,
    Topology, VKind, VirtualId,
};
use skueue::prelude::{NodeId, ProcessId, RequestId, ShardMap, ShardRouter};
use skueue::sim::{Actor, Context, SimConfig, Simulation};

use crate::sample::Sample;
use crate::stats::{self, Rng};

const BATCHES: usize = 5;

/// What the rows are sized by, taken from the workload's spec.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Processes in one shard's cycle.
    pub processes_per_shard: usize,
    pub shards: usize,
    /// Ops a shard's anchor assigns in one wave.
    pub wave_ops: usize,
}

/// Median over `BATCHES` runs of `batch`, which returns `(elapsed ns, events)`.
fn per_event(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, events) = batch();
            ns as f64 / events.max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_nanos() as u64, r)
}

type Msg = SkueueMsg<u64>;

/// An actor that does nothing: a visit costs what the scheduler charges.
struct Idle;

impl Actor for Idle {
    type Msg = Msg;
    fn on_message(&mut self, _: NodeId, _: Msg, _: &mut Context<Msg>) {}
    fn on_timeout(&mut self, _: &mut Context<Msg>) {}
}

/// An actor that passes every message on: one post and one delivery each.
struct Forward {
    nodes: u64,
}

impl Actor for Forward {
    type Msg = Msg;
    fn on_message(&mut self, _: NodeId, msg: Msg, ctx: &mut Context<Msg>) {
        let next = (ctx.self_id().0 * 7 + 1) % self.nodes;
        ctx.send(NodeId(next), msg);
    }
    fn on_timeout(&mut self, _: &mut Context<Msg>) {}
    fn wants_timeout(&self) -> bool {
        false
    }
}

fn one_op_batch(hasher: &LabelHasher, position: u64, budget: u32) -> RoutedDhtOp<u64> {
    let key = hasher.position_key(position);
    let id = RequestId::new(ProcessId(position % 7), position);
    let op = if position.is_multiple_of(2) {
        DhtOp::Put {
            entry: StoredEntry::queue(position, key, Element::new(id, position)),
            meta: PutMeta {
                issued_round: position,
                order: position,
                wave: 1,
                needs_ack: false,
                issuer: NodeId(position % 11),
            },
        }
    } else {
        DhtOp::Get {
            position,
            max_ticket: u64::MAX,
            request: id,
            requester: NodeId(position % 11),
        }
    };
    RoutedDhtOp {
        op: Box::new(op),
        progress: RouteProgress::new(key, budget),
    }
}

fn dht_batch(hasher: &LabelHasher, ops: u64, budget: u32) -> Msg {
    SkueueMsg::DhtBatch {
        ops: (0..ops).map(|p| one_op_batch(hasher, p, budget)).collect(),
    }
}

fn sim_rows(sizes: &Sizes, out: &mut Sample) {
    let nodes = (sizes.processes_per_shard * sizes.shards * 3).clamp(64, 30_000) as u64;
    let rounds = (3_000_000 / nodes).max(20);
    let visit_ns = per_event(|| {
        let mut sim = Simulation::new(SimConfig::synchronous(1)).expect("valid config");
        for _ in 0..nodes {
            sim.add_node(Idle);
        }
        let (ns, ()) = timed(|| sim.run_rounds(rounds));
        (ns, black_box(sim.metrics().nodes_visited))
    });
    out.set("sim.visit_ns", visit_ns);

    let hasher = LabelHasher::default();
    let in_flight = (nodes / 4).max(16);
    let per_message = per_event(|| {
        let mut sim = Simulation::new(SimConfig::synchronous(1)).expect("valid config");
        for _ in 0..nodes {
            sim.add_node(Forward { nodes });
        }
        for i in 0..in_flight {
            sim.inject(
                NodeId(i),
                NodeId((i * 13) % nodes),
                dht_batch(&hasher, 1, 12),
            )
            .expect("node exists");
        }
        let (ns, ()) = timed(|| sim.run_rounds(1_000_000 / in_flight));
        (ns, black_box(sim.metrics().messages_delivered))
    });
    // A delivery brings its own visit of the receiver; the wheel's share is
    // what is left once that visit is taken off.
    out.set("sim.wheel_ns_per_msg", (per_message - visit_ns).max(0.0));
}

fn overlay_rows(sizes: &Sizes, rng: &mut Rng, out: &mut Sample) {
    let n = sizes.processes_per_shard.max(2);
    let hasher = LabelHasher::default();
    let pids: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
    let node_of = |v: VirtualId| NodeId(v.process.raw() * 3 + v.kind.index() as u64);
    let mut views: Vec<LocalView> = Vec::new();
    let build_s = stats::median(
        &(0..BATCHES)
            .map(|_| {
                let (ns, built) = timed(|| {
                    let topology = Topology::build(&pids, hasher).expect("distinct processes");
                    pids.iter()
                        .flat_map(|&p| VKind::ALL.map(|k| VirtualId::new(p, k)))
                        .map(|v| topology.local_view(v, &node_of).expect("own vid"))
                        .collect::<Vec<_>>()
                });
                views = built;
                ns as f64 / 1e9
            })
            .collect::<Vec<_>>(),
    );
    out.set("overlay.topology_build_s", build_s);

    let budget = recommended_bit_budget(n);
    let routes = 2000;
    let step_cap = 400; // a route that degenerates into a ring walk is cut off
    let starts: Vec<(usize, u64)> = (0..routes)
        .map(|_| {
            (
                (rng.next_u64() % views.len() as u64) as usize,
                rng.next_u64(),
            )
        })
        .collect();
    let step_ns = per_event(|| {
        let mut steps = 0u64;
        let (ns, ()) = timed(|| {
            for &(start, position) in &starts {
                let mut at = start;
                let mut progress = RouteProgress::new(hasher.position_key(position), budget);
                for _ in 0..step_cap {
                    steps += 1;
                    match route_step(&views[at], &mut progress) {
                        RouteAction::Deliver => break,
                        RouteAction::Forward(next) => at = next.0 as usize,
                    }
                }
                black_box(at);
            }
        });
        (ns, steps)
    });
    out.set("overlay.route_step_ns", step_ns);
}

fn random_batch(rng: &mut Rng, ops: usize) -> Batch {
    let mut b = Batch::empty();
    for _ in 0..ops {
        b.push_op(if rng.unit() < 0.5 {
            BatchOp::Enqueue
        } else {
            BatchOp::Dequeue
        });
    }
    b
}

fn core_rows(sizes: &Sizes, rng: &mut Rng, out: &mut Sample) {
    // One wave as the anchor sees it: the sub-batches of its children, a few
    // ops each, combined into one batch of `wave_ops` ops.
    let wave_ops = sizes.wave_ops.max(2);
    let sub_ops = 4.min(wave_ops);
    let subs: Vec<Batch> = (0..wave_ops / sub_ops)
        .map(|_| random_batch(rng, sub_ops))
        .collect();
    let carried = (subs.len() * sub_ops) as u64;
    let iters = (2_000_000 / carried).max(10);
    let combine = |subs: &[Batch]| {
        let mut acc = Batch::empty();
        for b in subs {
            acc.combine(b);
        }
        acc
    };
    out.set(
        "core.batch_combine_ns_per_op",
        per_event(|| {
            let (ns, ()) = timed(|| {
                for _ in 0..iters {
                    black_box(combine(black_box(&subs)));
                }
            });
            (ns, iters * carried)
        }),
    );
    let combined = combine(&subs);
    out.set(
        "core.anchor_assign_ns_per_op",
        per_event(|| {
            let mut anchor = AnchorState::new();
            let (ns, ()) = timed(|| {
                for _ in 0..iters {
                    black_box(anchor.assign(black_box(&combined), Mode::Queue));
                }
            });
            (ns, iters * carried)
        }),
    );
    let assignments = AnchorState::new().assign(&combined, Mode::Queue);
    let sub_refs: Vec<&Batch> = subs.iter().collect();
    out.set(
        "core.interval_decompose_ns_per_op",
        per_event(|| {
            let (ns, ()) = timed(|| {
                for _ in 0..iters {
                    black_box(decompose(black_box(&assignments), &sub_refs));
                }
            });
            (ns, iters * carried)
        }),
    );
}

fn dht_rows(out: &mut Sample) {
    // Elements spread over many small stores, as they do over the nodes.
    const STORES: usize = 256;
    const POSITIONS: u64 = 65_536;
    const CHUNK: usize = 4;
    let hasher = LabelHasher::default();
    let entries: Vec<StoredEntry<u64>> = (0..POSITIONS)
        .map(|p| {
            StoredEntry::queue(
                p,
                hasher.position_key(p),
                Element::new(RequestId::new(ProcessId(p % 97), p), p),
            )
        })
        .collect();
    let gets: Vec<(u64, PendingGet)> = (0..POSITIONS)
        .map(|p| {
            (
                p,
                PendingGet {
                    request: RequestId::new(ProcessId(p % 89), p),
                    requester: NodeId(p % 1000),
                    max_ticket: u64::MAX,
                },
            )
        })
        .collect();
    let mut stores: Vec<NodeStore<u64>> = Vec::new();
    out.set(
        "dht.put_many_ns_per_op",
        per_event(|| {
            stores = (0..STORES).map(|_| NodeStore::new()).collect();
            let input = entries.clone();
            let (ns, ()) = timed(|| {
                let mut it = input.into_iter();
                for i in 0.. {
                    let chunk: Vec<_> = it.by_ref().take(CHUNK).collect();
                    if chunk.is_empty() {
                        break;
                    }
                    black_box(stores[i % STORES].put_many(chunk));
                }
            });
            (ns, POSITIONS)
        }),
    );
    // `stores` now holds every position once; each GET batch empties it
    // again, so the stores are refilled before each timed batch.
    out.set(
        "dht.get_many_ns_per_op",
        per_event(|| {
            if stores.iter().all(NodeStore::is_empty) {
                for (i, chunk) in entries.chunks(CHUNK).enumerate() {
                    stores[i % STORES].put_many(chunk.to_vec());
                }
            }
            let mut satisfied = Vec::with_capacity(POSITIONS as usize);
            let (ns, ()) = timed(|| {
                for (i, chunk) in gets.chunks(CHUNK).enumerate() {
                    stores[i % STORES].get_many(chunk.iter().copied(), &mut satisfied);
                }
            });
            assert_eq!(
                satisfied.len(),
                POSITIONS as usize,
                "every GET finds its PUT"
            );
            (ns, POSITIONS)
        }),
    );
}

fn shard_rows(sizes: &Sizes, out: &mut Sample) {
    let router = ShardRouter::new(ShardMap::new(
        sizes.shards.max(1) as u32,
        LabelHasher::default().seed(),
    ));
    let n = (sizes.processes_per_shard * sizes.shards) as u64;
    let calls = 2_000_000u64;
    out.set(
        "shard.route_ns",
        per_event(|| {
            let (ns, ()) = timed(|| {
                let mut acc = 0u64;
                for i in 0..calls {
                    acc += router.route(ProcessId(black_box(i % n))) as u64;
                }
                black_box(acc);
            });
            (ns, calls)
        }),
    );
}

fn codec_rows(sizes: &Sizes, rng: &mut Rng, out: &mut Sample) {
    let hasher = LabelHasher::default();
    let budget = recommended_bit_budget(sizes.processes_per_shard);
    let batch = random_batch(rng, sizes.wave_ops.clamp(2, 64));
    let runs = AnchorState::new().assign(&batch, Mode::Queue);
    let messages: [(&str, Msg); 4] = [
        (
            "aggregate",
            SkueueMsg::Aggregate {
                child: NodeId(7),
                epoch: 3,
                batch,
            },
        ),
        ("serve", SkueueMsg::Serve { epoch: 3, runs }),
        ("dht_batch_1", dht_batch(&hasher, 1, budget)),
        ("dht_batch_16", dht_batch(&hasher, 16, budget)),
    ];
    let iters = 50_000u64;
    for (kind, msg) in &messages {
        let bytes = to_bytes(msg);
        out.set(
            &format!("net.codec.bytes_per_msg.{kind}"),
            bytes.len() as f64,
        );
        out.set(
            &format!("net.codec.encode_ns_per_msg.{kind}"),
            per_event(|| {
                let (ns, ()) = timed(|| {
                    for _ in 0..iters {
                        black_box(to_bytes(black_box(msg)));
                    }
                });
                (ns, iters)
            }),
        );
        out.set(
            &format!("net.codec.decode_ns_per_msg.{kind}"),
            per_event(|| {
                let (ns, ()) = timed(|| {
                    for _ in 0..iters {
                        black_box(from_bytes::<Msg>(black_box(&bytes)).expect("round trip"));
                    }
                });
                (ns, iters)
            }),
        );
    }
}

fn frame_rows(out: &mut Sample) -> io::Result<()> {
    let frame: NetFrame<u64> = NetFrame::Proto {
        from: NodeId(1),
        to: NodeId(2),
        msg: dht_batch(&LabelHasher::default(), 1, 12),
    };
    let iters = 50_000u64;
    out.set(
        "net.frame.mem_roundtrip_ns",
        per_event(|| {
            let mut buf = Vec::with_capacity(256);
            let (ns, ()) = timed(|| {
                for _ in 0..iters {
                    buf.clear();
                    write_frame(&mut buf, &frame).expect("in-memory write");
                    black_box(
                        read_frame::<NetFrame<u64>, _>(&mut &buf[..]).expect("in-memory read"),
                    );
                }
            });
            (ns, iters)
        }),
    );

    // One frame there and back over a loopback socket, against an echo
    // thread: two writes, two reads, two thread wake-ups.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        while let Some(frame) = read_frame::<NetFrame<u64>, _>(&mut reader)? {
            write_frame(&mut writer, &frame)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut rtts = Vec::with_capacity(3000);
    for _ in 0..3000 {
        let t = Instant::now();
        write_frame(&mut stream, &frame)?;
        read_frame::<NetFrame<u64>, _>(&mut reader)?;
        rtts.push(t.elapsed().as_nanos() as u64);
    }
    stream.shutdown(std::net::Shutdown::Both)?;
    echo.join().expect("echo thread panicked")?;
    out.set(
        "net.frame.loopback_rtt_us",
        stats::percentile(&mut rtts, 0.5) as f64 / 1e3,
    );
    Ok(())
}

/// Runs every ledger row.
pub fn run(sizes: &Sizes, seed: u64) -> Sample {
    let mut out = Sample {
        attempted: 1,
        ..Sample::default()
    };
    let mut rng = Rng::new(seed);
    sim_rows(sizes, &mut out);
    overlay_rows(sizes, &mut rng, &mut out);
    core_rows(sizes, &mut rng, &mut out);
    dht_rows(&mut out);
    shard_rows(sizes, &mut out);
    codec_rows(sizes, &mut rng, &mut out);
    if let Err(e) = frame_rows(&mut out) {
        out.reject(format!("I/O error in the frame micro-timing: {e}"));
    }
    out
}
