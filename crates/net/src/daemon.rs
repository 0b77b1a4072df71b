//! The `skueue-node` daemon: hosts a slice of the cluster's processes on one
//! thread and speaks the frame protocol with its peers.
//!
//! # Thread anatomy
//!
//! ```text
//!            accepted sockets          frames
//!  listener ──────────────────► host ◄──────── reader (1/conn)
//!                              │  │
//!        peer daemons ◄────────┘  └── replies, completions → accepted conns
//! ```
//!
//! * One **listener** thread accepts connections and hands each to the host.
//! * The **host** thread owns everything else: every hosted
//!   [`SkueueNode`], the `TcpTransport` (one FIFO of messages between
//!   hosted nodes, one outgoing connection per peer daemon), the
//!   hosted-process table and the accepted connections.  In the paper a
//!   process executes one action at a time — a delivered message or the
//!   periodic `TIMEOUT` — and the proof holds under full asynchrony, so how a
//!   host interleaves the nodes it carries is free; this one visits a node
//!   when a message for it arrives or its timer is due: deliver what is
//!   pending, then fire `TIMEOUT`, the discipline of the simulator's round.
//! * Each accepted connection gets a **reader** thread (`std` has no
//!   readiness API) that decodes frames and passes them to the host; its
//!   exit releases the connection.
//!
//! So a daemon runs O(connections) threads however many processes it hosts,
//! and its node work runs on one of them; a machine is filled by running
//! more daemons.  Placement is static (process `p` lives on daemon
//! `p mod d`, see [`crate::spec`]), so a `JOIN` creates the three nodes
//! locally and the join protocol does the rest over the wire.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use skueue_core::membership::{joining_views, node_of};
use skueue_core::{BatchOp, Payload, ProtocolConfig, SkueueMsg, SkueueNode};
use skueue_overlay::{VKind, VirtualId};
use skueue_sim::actor::{Actor, Context};
use skueue_sim::ids::{NodeId, ProcessId};
use skueue_sim::Transport;
use skueue_verify::OpRecord;

use crate::codec::Wire;
use crate::frame::{read_frame, write_frame, NetFrame};
use crate::spec::ClusterSpec;
use crate::transport::TcpTransport;

/// What the helper threads pass to the host.
enum Inbound<T> {
    /// The listener accepted a connection.
    Accepted(TcpStream),
    /// The reader of connection `.0` decoded a frame.
    Frame(u64, NetFrame<T>),
    /// The reader of connection `.0` is exiting; this is its last act.
    Closed(u64),
}

/// An accepted connection as the host keeps it, from `Accepted` until its
/// reader reports `Closed`.
struct Conn {
    /// The write half (the reader owns a clone); only the host writes.
    stream: TcpStream,
    reader: JoinHandle<()>,
    /// Whether completions are streamed to it ([`NetFrame::Subscribe`]).
    subscribed: bool,
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

/// Hosts the daemon's nodes on the calling thread until a
/// [`NetFrame::Shutdown`] arrives, then tears the helper threads down.
pub(crate) fn run_with_listener<T: Payload + Wire>(
    spec: &ClusterSpec,
    index: usize,
    listener: TcpListener,
) -> io::Result<()> {
    let local_addr = listener.local_addr()?;
    let (tx, rx) = channel::<Inbound<T>>();
    let listener_thread = {
        let tx = tx.clone();
        // Ends once the host has hung up (see the teardown below).
        thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                if tx.send(Inbound::Accepted(stream)).is_err() {
                    break;
                }
            }
        })
    };

    let mut host = Host::<T>::new(spec, index, Instant::now());
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn = 0u64;
    loop {
        // Sleep only when there is nothing to do: never while a message
        // waits in the local FIFO, and no longer than until the timer.
        let inbound = if host.transport.in_flight() > 0 {
            rx.try_recv().ok()
        } else if let Some(at) = host.next_sweep {
            rx.recv_timeout(at.saturating_duration_since(Instant::now()))
                .ok()
        } else {
            rx.recv().ok()
        };
        let mut request = None;
        match inbound {
            Some(Inbound::Accepted(stream)) => {
                let _ = stream.set_nodelay(true);
                if let Ok(read_half) = stream.try_clone() {
                    let (id, tx) = (next_conn, tx.clone());
                    next_conn += 1;
                    let reader = thread::spawn(move || reader_loop(index, id, read_half, tx));
                    conns.insert(
                        id,
                        Conn {
                            stream,
                            reader,
                            subscribed: false,
                        },
                    );
                }
            }
            Some(Inbound::Closed(id)) => {
                // Dropping the entry closes the socket; the reader's last
                // act was this message, so the join does not wait.
                if let Some(conn) = conns.remove(&id) {
                    let _ = conn.reader.join();
                }
            }
            Some(Inbound::Frame(id, NetFrame::Subscribe)) => {
                if let Some(conn) = conns.get_mut(&id) {
                    conn.subscribed = true;
                    let _ = write_frame(&mut conn.stream, &NetFrame::<T>::Ok);
                }
            }
            Some(Inbound::Frame(id, NetFrame::Shutdown)) => {
                if let Some(conn) = conns.get_mut(&id) {
                    let _ = write_frame(&mut conn.stream, &NetFrame::<T>::Ok);
                }
                break;
            }
            Some(Inbound::Frame(id, frame)) => request = Some((id, frame)),
            None => {}
        }
        let (id, frame) = request.unzip();
        let reply = host.turn(frame, Instant::now());
        if let Some((reply, conn)) = reply.zip(id.and_then(|id| conns.get_mut(&id))) {
            let _ = write_frame(&mut conn.stream, &reply);
        }
        for record in host.completions.drain(..) {
            let frame = NetFrame::Completion { record };
            for conn in conns.values_mut().filter(|conn| conn.subscribed) {
                conn.subscribed = write_frame(&mut conn.stream, &frame).is_ok();
            }
        }
    }

    // Teardown: hang up, so the listener ends at its next accept and a
    // reader at its next frame or at the EOF its socket's shutdown gives it,
    // and join them all — no leaked threads or sockets.
    drop(rx);
    let _ = TcpStream::connect(local_addr); // unblocks `accept`
    let _ = listener_thread.join();
    for conn in conns.into_values() {
        let _ = conn.stream.shutdown(Shutdown::Both);
        let _ = conn.reader.join();
    }
    Ok(())
}

/// One connection's reader: decodes frames and passes them to the host.
/// Exits on EOF, on a frame that does not decode (said once, with the peer's
/// address — a peer that hung up stays silent), or when the host has gone.
fn reader_loop<T: Payload + Wire>(
    index: usize,
    id: u64,
    stream: TcpStream,
    tx: Sender<Inbound<T>>,
) {
    let peer = stream.peer_addr();
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame::<NetFrame<T>, _>(&mut reader) {
            Ok(Some(frame)) => {
                if tx.send(Inbound::Frame(id, frame)).is_err() {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                let peer = peer.map_or_else(|_| "an unknown peer".to_string(), |a| a.to_string());
                eprintln!("skueue-node[{index}]: closing the connection from {peer}: {e}");
                break;
            }
        }
    }
    let _ = tx.send(Inbound::Closed(id));
}

/// One hosted virtual node and what its visits need.
struct Hosted<T: Payload> {
    node: SkueueNode<T>,
    /// Visits so far: the `round` the node sees (its wave cadence reads it).
    visits: u64,
    /// True while the node is on this turn's visit list.
    visiting: bool,
}

impl<T: Payload> Hosted<T> {
    /// Opens the node's visit of this turn; false if it is open already.
    fn open_visit(&mut self) -> bool {
        if self.visiting {
            return false;
        }
        self.visiting = true;
        self.visits += 1;
        true
    }
}

/// The nodes one daemon hosts and the state that drives them — everything
/// the host thread owns except the accepted connections, so that a turn can
/// be driven without sockets.
struct Host<T: Payload> {
    spec: ClusterSpec,
    index: usize,
    /// One node configuration per shard, shared by the shard's nodes.
    shard_cfgs: Vec<Arc<ProtocolConfig>>,
    /// Hosted nodes by node id.
    nodes: BTreeMap<u64, Hosted<T>>,
    /// Hosted processes, in the order they came to be hosted.
    procs: Vec<ProcessId>,
    transport: TcpTransport<T>,
    /// Timer period of a node that wants a `TIMEOUT` and gets no traffic.
    tick: Duration,
    /// When the timer next visits every node that wants a `TIMEOUT`; `None`
    /// while no node does (a quiescent daemon sleeps until a frame arrives).
    next_sweep: Option<Instant>,
    /// Nodes visited this turn, in first-visit order.
    visited: Vec<NodeId>,
    /// Send buffer lent to each action's [`Context`].
    outbox: Vec<(NodeId, SkueueMsg<T>)>,
    /// Operations completed and not yet streamed to the subscribers.
    completions: Vec<OpRecord<T>>,
}

impl<T: Payload + Wire> Host<T> {
    /// Daemon `index`'s slice of the initial membership.
    fn new(spec: &ClusterSpec, index: usize, now: Instant) -> Self {
        let membership = spec.initial_membership();
        let mut host = Host {
            spec: spec.clone(),
            index,
            shard_cfgs: membership.shard_cfgs().to_vec(),
            nodes: BTreeMap::new(),
            procs: Vec::new(),
            transport: TcpTransport::new(spec, index),
            tick: Duration::from_millis(spec.tick_ms),
            next_sweep: None,
            visited: Vec::new(),
            outbox: Vec::new(),
            completions: Vec::new(),
        };
        for pid in (0..spec.initial).map(ProcessId) {
            if spec.daemon_of(pid) == index {
                let (shard, views) = membership.process(pid);
                for (view, is_anchor) in views {
                    let cfg = Arc::clone(&host.shard_cfgs[shard as usize]);
                    host.adopt(SkueueNode::new(cfg, shard, view, is_anchor), now);
                }
                host.procs.push(pid);
            }
        }
        host
    }

    /// Starts hosting `node`.  It is first visited by the timer, if it wants
    /// one — a joiner does, to announce itself.
    fn adopt(&mut self, node: SkueueNode<T>, now: Instant) {
        let id = node.view().me.node;
        if node.wants_timeout() {
            self.next_sweep.get_or_insert(now + self.tick);
        }
        let hosted = Hosted {
            node,
            visits: 0,
            visiting: false,
        };
        self.nodes.insert(id.0, hosted);
    }

    /// Runs one action of hosted node `id` — the node's first action in a
    /// turn opens a visit — and posts what it sent.  `None` if `id` is not
    /// hosted here.  The context lends no sample or trace sink, so what the
    /// node reports through it is dropped.
    fn act<R>(
        &mut self,
        id: NodeId,
        action: impl FnOnce(&mut SkueueNode<T>, &mut Context<SkueueMsg<T>>) -> R,
    ) -> Option<R> {
        let hosted = self.nodes.get_mut(&id.0)?;
        if hosted.open_visit() {
            self.visited.push(id);
        }
        let outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Context::with_outbox(id, hosted.visits, outbox);
        let result = action(&mut hosted.node, &mut ctx);
        self.outbox = ctx.into_outbox();
        for (to, msg) in self.outbox.drain(..) {
            self.transport.send(id, to, msg);
        }
        Some(result)
    }

    /// One turn: serve `frame`, deliver the messages queued for hosted
    /// nodes, let the timer visit the nodes that want it if it is due, and
    /// end every visit with the node's `TIMEOUT`.  Returns the reply `frame`
    /// is owed, if any; completed operations collect in `self.completions`.
    fn turn(&mut self, frame: Option<NetFrame<T>>, now: Instant) -> Option<NetFrame<T>> {
        let reply = frame.and_then(|frame| self.serve(frame, now));
        // What a delivery sends to a hosted node waits for the next turn, as
        // a round's sends do: a local ping-pong cannot keep the host from
        // its connections or its timer.
        for _ in 0..self.transport.in_flight() {
            let Some((from, to, msg)) = self.transport.pop_local() else {
                break;
            };
            if self
                .act(to, |node, ctx| node.on_message(from, msg, ctx))
                .is_none()
            {
                eprintln!(
                    "skueue-node[{}]: dropping message for unknown local node {to:?}",
                    self.index
                );
            }
        }
        // The timer is a deadline checked every turn, not the expiry of a
        // wait: under continuous traffic no wait ever expires.
        if self.next_sweep.is_some_and(|at| now >= at) {
            self.next_sweep = None;
            for (&id, hosted) in &mut self.nodes {
                if hosted.node.wants_timeout() && hosted.open_visit() {
                    self.visited.push(NodeId(id));
                }
            }
        }
        let mut visited = std::mem::take(&mut self.visited);
        for id in visited.drain(..) {
            self.act(id, |node, ctx| node.on_timeout(ctx));
            let hosted = self.nodes.get_mut(&id.0).expect("visited nodes are hosted");
            hosted.visiting = false;
            if hosted.node.has_completed() {
                hosted.node.drain_completed_into(&mut self.completions);
            }
            if hosted.node.wants_timeout() {
                self.next_sweep.get_or_insert(now + self.tick);
            }
        }
        self.visited = visited;
        reply
    }

    /// Acts on one frame and returns the reply owed to its connection.
    /// Protocol traffic and injects are fire-and-forget (the completion
    /// stream is an inject's reply); control frames are answered.
    fn serve(&mut self, frame: NetFrame<T>, now: Instant) -> Option<NetFrame<T>> {
        let index = self.index;
        Some(match frame {
            // Peer preamble; proto frames carry full addressing, so the
            // daemon index is informational only.
            NetFrame::Hello { .. } => return None,
            NetFrame::Proto { from, to, msg } => {
                self.transport.send(from, to, msg);
                return None;
            }
            NetFrame::Inject { id, insert, value } => {
                let kind = if insert {
                    BatchOp::Enqueue
                } else {
                    BatchOp::Dequeue
                };
                // Requests are generated at the process's middle node.
                let issued = self.act(node_of(VirtualId::middle(id.origin)), |node, ctx| {
                    let integrated = node.is_integrated();
                    if integrated {
                        node.generate_op(id, kind, value, ctx);
                    }
                    integrated
                });
                if issued != Some(true) {
                    eprintln!(
                        "skueue-node[{index}]: dropping inject for process {}: {}",
                        id.origin.0,
                        issued.map_or("not hosted here", |_| "not integrated")
                    );
                }
                return None;
            }
            NetFrame::Join { pid, .. } if self.spec.daemon_of(pid) != index => {
                NetFrame::Err(format!("process {} is not placed here", pid.0))
            }
            NetFrame::Join { pid, .. } if self.procs.contains(&pid) => {
                NetFrame::Err(format!("process {} already hosted", pid.0))
            }
            NetFrame::Join { pid, bootstrap } => {
                let shard = self.spec.shard_of(pid);
                for view in joining_views(self.spec.protocol_config().hasher(), pid) {
                    let cfg = Arc::clone(&self.shard_cfgs[shard as usize]);
                    let mut node = SkueueNode::new_joining(cfg, shard, view);
                    node.set_bootstrap(bootstrap);
                    self.adopt(node, now);
                }
                self.procs.push(pid);
                NetFrame::Ok
            }
            NetFrame::Leave { pid } if self.procs.contains(&pid) => {
                for kind in VKind::ALL {
                    self.act(node_of(VirtualId::new(pid, kind)), |node, _| {
                        node.request_leave()
                    });
                }
                NetFrame::Ok
            }
            NetFrame::Leave { pid } => NetFrame::Err(format!("process {} not hosted here", pid.0)),
            NetFrame::Status => NetFrame::StatusReply {
                daemon: index as u32,
                processes: self
                    .procs
                    .iter()
                    .map(|&pid| {
                        let middle = &self.nodes[&node_of(VirtualId::middle(pid)).0].node;
                        (pid.0, middle.is_integrated(), middle.has_left())
                    })
                    .collect(),
            },
            other => NetFrame::Err(format!("unexpected control frame {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    //! The host turn, driven with hand-made frames and a hand-made clock: no
    //! socket, no thread, no sleep.

    use super::*;
    use skueue_core::messages::RoutedDhtOp;
    use skueue_core::DhtOp;
    use skueue_overlay::RouteProgress;
    use skueue_sim::ids::RequestId;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// In-memory stand-in for the connection towards a peer daemon.
    #[derive(Clone, Default)]
    struct PeerSink(Rc<RefCell<Vec<u8>>>);

    impl io::Write for PeerSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const TICK: Duration = Duration::from_millis(2);

    /// Daemon 0 of a `daemons`-daemon cluster (addresses are never dialled:
    /// every peer is an in-memory sink), and the sink towards daemon 1.
    fn host(daemons: usize, initial: u64, now: Instant) -> (Host<u64>, PeerSink) {
        let spec = ClusterSpec::localhost(daemons, 7100, initial, 1);
        assert_eq!(Duration::from_millis(spec.tick_ms), TICK);
        let mut host = Host::<u64>::new(&spec, 0, now);
        let sink = PeerSink::default();
        for peer in host.transport.peers.iter_mut().skip(1) {
            *peer = Some(Box::new(sink.clone()));
        }
        (host, sink)
    }

    fn middle(pid: u64) -> NodeId {
        node_of(VirtualId::middle(ProcessId(pid)))
    }

    fn join(host: &mut Host<u64>, pid: u64, now: Instant) {
        let bootstrap = host.spec.bootstrap_for(ProcessId(pid)).expect("a member");
        let pid = ProcessId(pid);
        let reply = host.turn(Some(NetFrame::Join { pid, bootstrap }), now);
        assert_eq!(reply, Some(NetFrame::Ok));
    }

    fn status(host: &mut Host<u64>, now: Instant) -> Vec<(u64, bool, bool)> {
        match host.turn(Some(NetFrame::Status), now) {
            Some(NetFrame::StatusReply {
                daemon: 0,
                processes,
            }) => processes,
            other => panic!("unexpected status reply {other:?}"),
        }
    }

    /// Turns the host, a tick of the clock at a time, until `done`.
    fn run_until(host: &mut Host<u64>, now: &mut Instant, done: impl Fn(&Host<u64>) -> bool) {
        for _ in 0..10_000 {
            if done(host) {
                return;
            }
            *now += TICK;
            host.turn(None, *now);
        }
        panic!("the host did not get there in 10000 ticks");
    }

    #[test]
    fn the_timer_visits_an_armed_node_while_another_is_fed_without_pause() {
        let start = Instant::now();
        let (mut host, _) = host(1, 3, start);
        // A joiner wants its first `TIMEOUT` (to announce itself) and is
        // sent nothing until it has had it.
        join(&mut host, 3, start);
        assert!(host.nodes[&middle(3).0].node.wants_timeout());
        // Meanwhile another node gets a frame every tenth of a tick: no wait
        // for a frame would ever expire.
        let fed = middle(0);
        for step in 1..=20u32 {
            let now = start + TICK * step / 10;
            let frame = NetFrame::Proto {
                from: middle(1),
                to: fed,
                msg: SkueueMsg::PutAck {
                    request: RequestId::new(ProcessId(1), u64::from(step)),
                },
            };
            assert_eq!(host.turn(Some(frame), now), None);
            let joiner = &host.nodes[&middle(3).0];
            // Its first visit is the timer's, and comes within one tick.
            assert_eq!(joiner.visits > 0, now >= start + TICK, "step {step}");
            assert_eq!(joiner.node.wants_timeout(), joiner.visits == 0);
            assert!(host.nodes[&fed.0].visits >= u64::from(step));
        }
    }

    /// A node that hands itself over in the middle of a visit still ends the
    /// visit with its `TIMEOUT`, so what it routed before the hand-over leaves
    /// with the turn instead of staying in its buffer for ever.
    #[test]
    fn a_node_that_starts_draining_still_forwards_what_it_routed() {
        for absorbed in [false, true] {
            let now = Instant::now();
            let (mut host, _) = host(1, 3, now);
            let node = middle(0);
            let pred = host.nodes[&node.0].node.view().pred;
            // A GET for the predecessor's interval: `node` has to pass it on.
            let get = RoutedDhtOp {
                op: Box::new(DhtOp::Get {
                    position: 1,
                    max_ticket: u64::MAX,
                    request: RequestId::new(ProcessId(1), 0),
                    requester: middle(1),
                }),
                progress: RouteProgress::linear_only(pred.label),
            };
            let batch = SkueueMsg::DhtBatch { ops: vec![get] };
            host.transport.send(pred.node, node, batch);
            if absorbed {
                host.transport
                    .send(pred.node, node, SkueueMsg::AbsorbRequest);
            }
            host.turn(None, now);
            let mut sent = Vec::new();
            while let Some((from, _, msg)) = host.transport.pop_local() {
                assert_eq!(from, node, "nobody else was visited");
                sent.push(msg);
            }
            let handed_over = sent.iter().any(|m| matches!(m, SkueueMsg::AbsorbData(_)));
            assert_eq!(handed_over, absorbed);
            let forwarded =
                |m: &SkueueMsg<u64>| matches!(m, SkueueMsg::DhtBatch { ops } if ops.len() == 1);
            assert!(
                sent.iter().any(forwarded),
                "absorbed {absorbed}: sent {sent:?}"
            );
        }
    }

    #[test]
    fn status_reports_what_the_middle_node_says() {
        let mut now = Instant::now();
        let (mut host, _) = host(1, 3, now);
        let state_of = |host: &Host<u64>, pid: u64| {
            let node = &host.nodes[&middle(pid).0].node;
            (pid, node.is_integrated(), node.has_left())
        };
        // A process that joined and left again …
        join(&mut host, 3, now);
        run_until(&mut host, &mut now, |host| state_of(host, 3).1);
        let leave = NetFrame::Leave { pid: ProcessId(3) };
        assert_eq!(host.turn(Some(leave), now), Some(NetFrame::Ok));
        run_until(&mut host, &mut now, |host| state_of(host, 3).2);
        // … and a joiner that has not had a turn yet, next to the initial
        // members.
        join(&mut host, 4, now);
        let expected = vec![
            (0, true, false),
            (1, true, false),
            (2, true, false),
            (3, false, true),
            (4, false, false),
        ];
        assert_eq!(status(&mut host, now), expected);
        let said: Vec<_> = (0..5).map(|pid| state_of(&host, pid)).collect();
        assert_eq!(said, expected);
        let leave = NetFrame::Leave { pid: ProcessId(9) };
        assert!(matches!(
            host.turn(Some(leave), now),
            Some(NetFrame::Err(_))
        ));
    }

    #[test]
    fn a_dropped_inject_does_not_hold_up_the_frames_behind_it() {
        let now = Instant::now();
        // Daemon 0 of two hosts processes 0 and 2, and the joiner 4.
        let (mut host, sink) = host(2, 4, now);
        join(&mut host, 4, now);
        let inject = |pid: u64| NetFrame::Inject {
            id: RequestId::new(ProcessId(pid), 0),
            insert: true,
            value: 7u64,
        };
        // Process 1 lives on daemon 1; process 4 is not integrated yet.
        for pid in [1, 4] {
            assert_eq!(host.turn(Some(inject(pid)), now), None);
        }
        assert!(host.nodes.values().all(|h| h.node.open_requests() == 0));
        // The frames behind them are served as if nothing had happened.
        assert_eq!(host.turn(Some(inject(0)), now), None);
        assert_eq!(host.nodes[&middle(0).0].node.open_requests(), 1);
        assert_eq!(status(&mut host, now).len(), 3);
        // A message for a node hosted elsewhere leaves as a frame towards
        // its daemon, whoever sent it.
        let stray = NetFrame::Proto {
            from: middle(0),
            to: middle(1),
            msg: SkueueMsg::<u64>::LeaveGranted,
        };
        sink.0.borrow_mut().clear();
        assert_eq!(host.turn(Some(stray.clone()), now), None);
        let bytes = sink.0.borrow().clone();
        let mut cursor = io::Cursor::new(bytes);
        let mut sent = Vec::new();
        while let Some(frame) = read_frame::<NetFrame<u64>, _>(&mut cursor).expect("frames") {
            sent.push(frame);
        }
        assert!(sent.contains(&stray), "sent {sent:?}");
        assert!(sent.iter().all(|frame| matches!(
            frame,
            NetFrame::Proto { to, .. } if host.spec.daemon_of_node(*to) == 1
        )));
    }
}
