//! The `skueue-node` daemon: hosts a slice of the cluster's processes as
//! real threads and speaks the frame protocol with its peers.
//!
//! # Thread anatomy
//!
//! ```text
//!            TCP accept                 frames                 events
//!  listener ───────────► reader (1/conn) ────► switch (1) ◄──────── node threads (3/process)
//!                                                 │  ▲
//!                        peer daemons ◄───────────┘  └── completions → subscribed ingress conns
//! ```
//!
//! * One **listener** thread accepts connections; each connection gets a
//!   **reader** thread that decodes frames and forwards them as events.
//! * One **switch** thread owns all routing state: the inbox of every hosted
//!   virtual node, one outgoing TCP connection per peer daemon (dialled on
//!   demand, carrying a [`NetFrame::Hello`] preamble), the hosted-process
//!   table, and the set of completion-subscribed connections.
//! * Each hosted virtual node runs on its own **node thread**: a tick loop
//!   that plays the role of the simulator's round — deliver pending
//!   messages, then fire the `TIMEOUT` action.  Outgoing messages go through
//!   a [`TcpTransport`], the real-clock implementation of the
//!   [`skueue_sim::Transport`] seam.
//!
//! Placement is static (process `p` lives on daemon `p mod d`, see
//! [`crate::spec`]), so a `JOIN` creates the three node threads locally and
//! the join protocol does the rest over the wire.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use skueue_core::{BatchOp, Payload, ProtocolConfig, SkueueMsg, SkueueNode};
use skueue_overlay::VirtualId;
use skueue_sim::actor::{Actor, Context};
use skueue_sim::ids::NodeId;
use skueue_sim::{SimRng, Transport};
use skueue_verify::OpRecord;

use crate::codec::Wire;
use crate::frame::{read_frame, write_frame, NetFrame};
use crate::spec::{node_of, ClusterSpec};
use crate::transport::TcpTransport;

/// An event on the switch thread's queue.
#[derive(Debug)]
pub(crate) enum SwitchEvent<T> {
    /// A protocol message to route (from a local node or a peer daemon).
    Route {
        /// Sending virtual node.
        from: NodeId,
        /// Destination virtual node.
        to: NodeId,
        /// The message.
        msg: SkueueMsg<T>,
    },
    /// A completed client operation to stream to subscribers.
    Completion(OpRecord<T>),
    /// A control frame from a ctl or ingress connection.
    Control {
        frame: NetFrame<T>,
        writer: ConnWriter,
    },
}

/// The write half of an accepted connection, shareable across threads.
/// `write_frame` issues a single `write_all` per frame, so the mutex is the
/// only interleaving guard needed.
#[derive(Debug, Clone)]
pub(crate) struct ConnWriter {
    id: u64,
    stream: Arc<Mutex<TcpStream>>,
}

impl ConnWriter {
    fn write<T: Wire>(&self, frame: &NetFrame<T>) -> io::Result<()> {
        let mut guard = self.stream.lock().expect("writer mutex poisoned");
        write_frame(&mut *guard, frame)
    }
}

/// Events a node thread consumes.
#[derive(Debug)]
enum NodeEvent<T> {
    /// A protocol message addressed to this node.
    Deliver { from: NodeId, msg: SkueueMsg<T> },
    /// A client operation to issue (middle nodes only).
    Inject {
        id: skueue_sim::ids::RequestId,
        insert: bool,
        value: T,
    },
    /// Ask the node to leave the overlay.
    Leave,
    /// Terminate the thread.
    Stop,
}

/// Shared lifecycle cell, updated by a process's middle-node thread and read
/// by the switch when answering [`NetFrame::Status`].
#[derive(Debug)]
struct ProcStatus {
    integrated: AtomicBool,
    left: AtomicBool,
}

/// A running daemon spawned in-process (used by tests and the load
/// generator's self-contained mode).
#[derive(Debug)]
pub struct DaemonHandle {
    thread: JoinHandle<io::Result<()>>,
}

impl DaemonHandle {
    /// Waits for the daemon to exit (after a [`NetFrame::Shutdown`]).
    pub fn join(self) -> io::Result<()> {
        self.thread.join().expect("daemon thread panicked")
    }
}

/// Binds the daemon's listen address and runs until shutdown.  This is the
/// body of the `skueue-node` binary.
pub fn run<T: Payload + Wire>(spec: &ClusterSpec, index: usize) -> io::Result<()> {
    let listener = TcpListener::bind(&spec.daemons[index])?;
    run_with_listener::<T>(spec, index, listener)
}

/// Spawns a daemon on its own thread with a pre-bound listener (lets tests
/// bind ephemeral ports before constructing the spec).
pub fn spawn<T: Payload + Wire>(
    spec: ClusterSpec,
    index: usize,
    listener: TcpListener,
) -> DaemonHandle {
    let thread = thread::spawn(move || run_with_listener::<T>(&spec, index, listener));
    DaemonHandle { thread }
}

/// Runs the daemon's switch loop on the calling thread until a
/// [`NetFrame::Shutdown`] arrives, then tears every helper thread down.
pub fn run_with_listener<T: Payload + Wire>(
    spec: &ClusterSpec,
    index: usize,
    listener: TcpListener,
) -> io::Result<()> {
    let local_addr = listener.local_addr()?;
    let (tx, rx) = channel::<SwitchEvent<T>>();
    let in_flight = Arc::new(AtomicUsize::new(0));
    let shutting_down = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let listener_thread = {
        let tx = tx.clone();
        let in_flight = Arc::clone(&in_flight);
        let shutting_down = Arc::clone(&shutting_down);
        let conns = Arc::clone(&conns);
        let readers = Arc::clone(&readers);
        thread::spawn(move || {
            let mut next_conn_id = 0u64;
            loop {
                let stream = match listener.accept() {
                    Ok((s, _)) => s,
                    Err(_) => break,
                };
                if shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                if let Ok(raw) = stream.try_clone() {
                    conns.lock().expect("conns mutex").push(raw);
                }
                let writer = ConnWriter {
                    id: next_conn_id,
                    stream: Arc::new(Mutex::new(write_half)),
                };
                next_conn_id += 1;
                let tx = tx.clone();
                let in_flight = Arc::clone(&in_flight);
                let handle = thread::spawn(move || reader_loop(stream, writer, tx, in_flight));
                readers.lock().expect("readers mutex").push(handle);
            }
        })
    };

    // Construct this daemon's slice of the initial membership.
    let cfg = spec.protocol_config();
    let (initial, budgets) = spec.initial_membership();
    // One node configuration per shard (its bit budget), shared by the
    // shard's nodes.
    let shard_cfgs: Vec<Arc<ProtocolConfig>> = budgets
        .iter()
        .map(|&bit_budget| Arc::new(ProtocolConfig { bit_budget, ..cfg }))
        .collect();
    let tick = Duration::from_millis(spec.tick_ms);
    let transport = TcpTransport::new(tx.clone(), Arc::clone(&in_flight));
    let mut inboxes: HashMap<u64, Sender<NodeEvent<T>>> = HashMap::new();
    let mut node_threads: Vec<JoinHandle<()>> = Vec::new();
    let mut procs: Vec<(u64, [NodeId; 3], Arc<ProcStatus>)> = Vec::new();
    for proc_spec in initial
        .into_iter()
        .filter(|p| spec.daemon_of(p.pid) == index)
    {
        let status = Arc::new(ProcStatus {
            integrated: AtomicBool::new(true),
            left: AtomicBool::new(false),
        });
        let mut ids = [NodeId(0); 3];
        for (vid, view, is_anchor) in proc_spec.views {
            let node_cfg = Arc::clone(&shard_cfgs[proc_spec.shard as usize]);
            let mut node = SkueueNode::<T>::new(node_cfg, proc_spec.shard, view, is_anchor);
            let id = node_of(vid);
            node.trace_recorder_mut().attach(id.0, proc_spec.shard);
            ids[vid.kind.index()] = id;
            let status_cell =
                (vid.kind == skueue_overlay::VKind::Middle).then(|| Arc::clone(&status));
            let (inbox, handle) = spawn_node(
                node,
                id,
                transport.clone(),
                tick,
                status_cell,
                spec.hash_seed,
            );
            inboxes.insert(id.0, inbox);
            node_threads.push(handle);
        }
        procs.push((proc_spec.pid.0, ids, status));
    }

    // The switch loop.
    let mut peers: Vec<Option<TcpStream>> = (0..spec.num_daemons()).map(|_| None).collect();
    let mut sinks: HashMap<u64, ConnWriter> = HashMap::new();
    while let Ok(event) = rx.recv() {
        match event {
            SwitchEvent::Route { from, to, msg } => {
                route(spec, index, &inboxes, &mut peers, &in_flight, from, to, msg);
            }
            SwitchEvent::Completion(record) => {
                sinks.retain(|_, sink| {
                    sink.write(&NetFrame::Completion {
                        record: record.clone(),
                    })
                    .is_ok()
                });
            }
            SwitchEvent::Control { frame, writer } => match frame {
                NetFrame::Inject { id, insert, value } => {
                    // Fire-and-forget: the completion stream is the reply.
                    let target = node_of(VirtualId::middle(id.origin));
                    if let Some(inbox) = inboxes.get(&target.0) {
                        let _ = inbox.send(NodeEvent::Inject { id, insert, value });
                    } else {
                        eprintln!(
                            "skueue-node[{index}]: inject for unhosted process {}",
                            id.origin.0
                        );
                    }
                }
                NetFrame::Subscribe => {
                    sinks.insert(writer.id, writer.clone());
                    let _ = writer.write(&NetFrame::<T>::Ok);
                }
                NetFrame::Join { pid, bootstrap } => {
                    let reply = if spec.daemon_of(pid) != index {
                        NetFrame::<T>::Err(format!("process {} is not placed here", pid.0))
                    } else if procs.iter().any(|(p, _, _)| *p == pid.0) {
                        NetFrame::<T>::Err(format!("process {} already hosted", pid.0))
                    } else {
                        let shard = spec.shard_of(pid);
                        let status = Arc::new(ProcStatus {
                            integrated: AtomicBool::new(false),
                            left: AtomicBool::new(false),
                        });
                        let mut ids = [NodeId(0); 3];
                        for (vid, view) in spec.joining_views(pid) {
                            let node_cfg = Arc::clone(&shard_cfgs[shard as usize]);
                            let mut node = SkueueNode::<T>::new_joining(node_cfg, shard, view);
                            node.set_bootstrap(bootstrap);
                            let id = node_of(vid);
                            node.trace_recorder_mut().attach(id.0, shard);
                            ids[vid.kind.index()] = id;
                            let status_cell = (vid.kind == skueue_overlay::VKind::Middle)
                                .then(|| Arc::clone(&status));
                            let (inbox, handle) = spawn_node(
                                node,
                                id,
                                transport.clone(),
                                tick,
                                status_cell,
                                spec.hash_seed,
                            );
                            inboxes.insert(id.0, inbox);
                            node_threads.push(handle);
                        }
                        procs.push((pid.0, ids, status));
                        NetFrame::<T>::Ok
                    };
                    let _ = writer.write(&reply);
                }
                NetFrame::Leave { pid } => {
                    let reply = match procs.iter().find(|(p, _, _)| *p == pid.0) {
                        Some((_, ids, _)) => {
                            for id in ids {
                                if let Some(inbox) = inboxes.get(&id.0) {
                                    let _ = inbox.send(NodeEvent::Leave);
                                }
                            }
                            NetFrame::<T>::Ok
                        }
                        None => NetFrame::<T>::Err(format!("process {} not hosted here", pid.0)),
                    };
                    let _ = writer.write(&reply);
                }
                NetFrame::Status => {
                    let processes = procs
                        .iter()
                        .map(|(pid, _, status)| {
                            (
                                *pid,
                                status.integrated.load(Ordering::Relaxed),
                                status.left.load(Ordering::Relaxed),
                            )
                        })
                        .collect();
                    let _ = writer.write(&NetFrame::<T>::StatusReply {
                        daemon: index as u32,
                        processes,
                    });
                }
                NetFrame::Shutdown => {
                    for inbox in inboxes.values() {
                        let _ = inbox.send(NodeEvent::Stop);
                    }
                    for handle in node_threads.drain(..) {
                        let _ = handle.join();
                    }
                    let _ = writer.write(&NetFrame::<T>::Ok);
                    break;
                }
                other => {
                    let _ = writer.write(&NetFrame::<T>::Err(format!(
                        "unexpected control frame {other:?}"
                    )));
                }
            },
        }
    }

    // Teardown: unblock the listener, close every connection so reader
    // threads see EOF, and join them all — no leaked threads or sockets.
    shutting_down.store(true, Ordering::SeqCst);
    drop(tx);
    let _ = TcpStream::connect(local_addr); // unblocks `accept`
    let _ = listener_thread.join();
    for conn in conns.lock().expect("conns mutex").drain(..) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
    for peer in peers.iter().flatten() {
        let _ = peer.shutdown(std::net::Shutdown::Both);
    }
    let handles: Vec<_> = readers.lock().expect("readers mutex").drain(..).collect();
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

/// Routes one protocol message: local destination → inbox, remote → peer
/// frame.  The in-flight counter tracks daemon-local queues only, so a
/// message leaving for a peer is decremented here and a message entering a
/// local inbox is decremented by the node thread after delivery.
#[allow(clippy::too_many_arguments)]
fn route<T: Payload + Wire>(
    spec: &ClusterSpec,
    index: usize,
    inboxes: &HashMap<u64, Sender<NodeEvent<T>>>,
    peers: &mut [Option<TcpStream>],
    in_flight: &AtomicUsize,
    from: NodeId,
    to: NodeId,
    msg: SkueueMsg<T>,
) {
    let daemon = spec.daemon_of_node(to);
    if daemon == index {
        match inboxes.get(&to.0) {
            Some(inbox) => {
                if inbox.send(NodeEvent::Deliver { from, msg }).is_err() {
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                }
            }
            None => {
                in_flight.fetch_sub(1, Ordering::Relaxed);
                eprintln!("skueue-node[{index}]: dropping message for unknown local node {to:?}");
            }
        }
        return;
    }
    in_flight.fetch_sub(1, Ordering::Relaxed);
    let frame = NetFrame::Proto { from, to, msg };
    // One dial attempt cycle, then one redial after a stale-connection write
    // failure (the peer may have restarted between frames).
    for _ in 0..2 {
        if peers[daemon].is_none() {
            peers[daemon] = dial_peer(spec, index, daemon);
        }
        match peers[daemon].as_mut() {
            Some(stream) => {
                if write_frame(stream, &frame).is_ok() {
                    return;
                }
                peers[daemon] = None;
            }
            None => break,
        }
    }
    eprintln!("skueue-node[{index}]: dropping frame for unreachable daemon {daemon}");
}

/// Dials a peer daemon, retrying for a few seconds (daemons of one cluster
/// start concurrently), and sends the identifying preamble.
fn dial_peer(spec: &ClusterSpec, index: usize, daemon: usize) -> Option<TcpStream> {
    for _ in 0..250 {
        if let Ok(mut stream) = TcpStream::connect(&spec.daemons[daemon]) {
            let _ = stream.set_nodelay(true);
            // `Hello` carries no payload-typed field, so any `T` encodes it
            // identically; `u64` keeps this helper non-generic.
            let hello = NetFrame::<u64>::Hello { from: index as u32 };
            if write_frame(&mut stream, &hello).is_ok() {
                return Some(stream);
            }
        }
        thread::sleep(Duration::from_millis(20));
    }
    None
}

/// One connection's reader: decodes frames and forwards them as events.
/// Exits on EOF, on a decode error, or when the switch has gone away.
fn reader_loop<T: Payload + Wire>(
    stream: TcpStream,
    writer: ConnWriter,
    tx: Sender<SwitchEvent<T>>,
    in_flight: Arc<AtomicUsize>,
) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame::<NetFrame<T>, _>(&mut reader) {
            Ok(Some(NetFrame::Hello { .. })) => {
                // Peer preamble; proto frames carry full addressing, so the
                // daemon index is informational only.
            }
            Ok(Some(NetFrame::Proto { from, to, msg })) => {
                in_flight.fetch_add(1, Ordering::Relaxed);
                if tx.send(SwitchEvent::Route { from, to, msg }).is_err() {
                    break;
                }
            }
            Ok(Some(frame)) => {
                let event = SwitchEvent::Control {
                    frame,
                    writer: writer.clone(),
                };
                if tx.send(event).is_err() {
                    break;
                }
            }
            Ok(None) | Err(_) => break,
        }
    }
}

/// Spawns one virtual node on its own tick-loop thread.
///
/// Each loop iteration plays one synchronous round: deliver every pending
/// message, then fire the `TIMEOUT` action if the node is active — the same
/// visit discipline as the simulator's scheduler.  The thread sleeps in
/// `recv_timeout` while the node wants timeouts and blocks indefinitely when
/// the node's timeout is provably a no-op (quiescence costs nothing).
fn spawn_node<T: Payload>(
    mut node: SkueueNode<T>,
    id: NodeId,
    mut transport: TcpTransport<T>,
    tick: Duration,
    status: Option<Arc<ProcStatus>>,
    seed: u64,
) -> (Sender<NodeEvent<T>>, JoinHandle<()>) {
    let (inbox_tx, inbox_rx) = channel::<NodeEvent<T>>();
    let handle = thread::spawn(move || {
        let counter = transport.counter();
        let mut rng =
            SimRng::new(seed ^ (id.0.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut outbox: Vec<(NodeId, SkueueMsg<T>)> = Vec::new();
        let mut completions: Vec<OpRecord<T>> = Vec::new();
        let mut tick_no: u64 = 0;
        'ticks: loop {
            let wants_timeout = node.is_active() && node.wants_timeout();
            let first = if wants_timeout {
                match inbox_rx.recv_timeout(tick) {
                    Ok(event) => Some(event),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            } else {
                match inbox_rx.recv() {
                    Ok(event) => Some(event),
                    Err(_) => break,
                }
            };
            tick_no += 1;
            // A tick expiry is itself a visit; otherwise the first event is.
            let mut visited = first.is_none();
            let mut next = first;
            while let Some(event) = next {
                visited = true;
                match event {
                    NodeEvent::Deliver { from, msg } => {
                        let mut ctx = Context::with_outbox(
                            id,
                            tick_no,
                            rng.next_u64(),
                            std::mem::take(&mut outbox),
                        );
                        node.on_message(from, msg, &mut ctx);
                        outbox = ctx.into_outbox();
                        for (to, m) in outbox.drain(..) {
                            transport.send(id, to, m);
                        }
                        counter.fetch_sub(1, Ordering::Relaxed);
                    }
                    NodeEvent::Inject {
                        id: req,
                        insert,
                        value,
                    } => {
                        if node.is_integrated() {
                            let kind = if insert {
                                BatchOp::Enqueue
                            } else {
                                BatchOp::Dequeue
                            };
                            node.generate_op(req, kind, value, tick_no);
                        } else {
                            eprintln!(
                                "skueue-node: dropping inject for non-integrated node {id:?}"
                            );
                        }
                    }
                    NodeEvent::Leave => node.request_leave(),
                    NodeEvent::Stop => break 'ticks,
                }
                next = inbox_rx.try_recv().ok();
            }
            if visited && node.is_active() {
                let mut ctx =
                    Context::with_outbox(id, tick_no, rng.next_u64(), std::mem::take(&mut outbox));
                node.on_timeout(&mut ctx);
                outbox = ctx.into_outbox();
                for (to, m) in outbox.drain(..) {
                    transport.send(id, to, m);
                }
            }
            if node.has_completed() {
                node.drain_completed_into(&mut completions);
                for record in completions.drain(..) {
                    transport.send_completion(record);
                }
            }
            if let Some(cell) = &status {
                cell.integrated
                    .store(node.is_integrated(), Ordering::Relaxed);
                cell.left.store(node.has_left(), Ordering::Relaxed);
            }
        }
    });
    (inbox_tx, handle)
}
