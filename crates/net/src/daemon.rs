//! The `skueue-node` daemon: hosts a slice of the cluster's processes in one
//! `skueue_sim` [`Lane`] on one thread and speaks the frame protocol with its
//! peers.
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
//! * The **host** thread owns everything else: a lane holding every hosted
//!   [`SkueueNode`] over the daemon's `TcpTransport` (one FIFO of messages
//!   between hosted nodes, one outgoing connection per peer daemon), the
//!   hosted-process table and the accepted connections.  Whenever a frame
//!   arrives or the timer deadline (`--tick-ms`) passes, the host serves the
//!   frame and takes one turn of the lane ([`Lane::step`]) — the visit loop
//!   the simulator runs, so both hosts agree on what a visit is: a node is
//!   visited when messages for it arrived, or when it wants its `TIMEOUT`
//!   and the deadline made the turn a sweep, and every visit ends with
//!   `TIMEOUT`.  In the paper a process executes one action at a time and
//!   the proof holds under full asynchrony, so how a host interleaves the
//!   nodes it carries is free.  What the nodes report — samples, trace
//!   events, completion records — lands in the lane's sinks, as in the
//!   simulator.  The host drains the records after every turn into the
//!   completion stream; nothing reads the samples and events over the wire
//!   yet.
//! * Each accepted connection gets a **reader** thread (`std` has no
//!   readiness API) that decodes frames and passes them to the host; its
//!   exit releases the connection.
//!
//! So a daemon runs O(connections) threads however many processes it hosts,
//! and its node work runs on one of them; a machine is filled by running
//! more daemons.  Placement is static (process `p` lives on daemon
//! `p mod d`, see [`crate::spec`]), so a `JOIN` creates the three nodes
//! locally and the join protocol does the rest over the wire.
//!
//! A node's `round` is the lane's turn count, one clock for all the nodes
//! of a daemon.  Its wave cadence (at most one wave every second round)
//! therefore counts the daemon's turns, not the node's own visits: a turn
//! passes with every frame, so the cadence passes no later than two visits
//! of the node would, and a node visited less often than every other turn
//! may open a wave at each visit.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use skueue_core::membership::{all_nodes, joining_nodes, may_issue, may_leave, nodes_of};
use skueue_core::BatchOp::{Dequeue, Enqueue};
use skueue_core::{Payload, ProtocolConfig, SkueueNode};
use skueue_overlay::{node_of, VKind, VirtualId};
use skueue_sim::{Lane, NodeId, ProcessId, Transport};
use skueue_verify::OpRecord;

use crate::codec::Wire;
use crate::frame::{push_frame, read_frame, write_frame, NetFrame};
use crate::spec::{ClusterSpec, PID_LIMIT};
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

/// A running daemon spawned in-process: the integration tests and the
/// benchmark's `tcp_*` workloads boot their clusters this way.
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

/// Binds the daemon's listen address, says so on stderr, and runs until
/// shutdown.  This is the body of the `skueue-node` binary; a bind that
/// fails names the address.
pub fn run<T: Payload + Wire>(spec: &ClusterSpec, index: usize) -> io::Result<()> {
    let addr = &spec.daemons[index];
    let listener = TcpListener::bind(addr)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot listen on {addr}: {e}")))?;
    eprintln!(
        "skueue-node[{index}]: listening on {addr} ({} initial processes, {} shards)",
        spec.initial, spec.shards
    );
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
fn run_with_listener<T: Payload + Wire>(
    spec: &ClusterSpec,
    index: usize,
    listener: TcpListener,
) -> io::Result<()> {
    let local_addr = listener.local_addr()?;
    let (tx, rx) = channel::<Inbound<T>>();
    // Ends once the host has hung up (see the teardown below).
    let accepted = tx.clone();
    let listener_thread = thread::spawn(move || {
        for stream in listener.incoming().map_while(Result::ok) {
            if accepted.send(Inbound::Accepted(stream)).is_err() {
                break;
            }
        }
    });

    let mut host = Host::<T>::new(spec, index);
    // Every open connection's write half (its reader owns a clone), its
    // reader, and whether completions are streamed to it
    // ([`NetFrame::Subscribe`]); numbered by the turn that accepted it.
    let mut conns: HashMap<u64, (TcpStream, JoinHandle<()>, bool)> = HashMap::new();
    for turn in 0u64.. {
        // Sleep only when there is nothing to do: never while a message
        // waits in the local FIFO, and no longer than until the timer.
        let wait = match host.next_sweep {
            _ if host.lane.fabric().in_flight() > 0 => Duration::ZERO,
            Some(at) => at.saturating_duration_since(Instant::now()),
            None => Duration::MAX,
        };
        let (id, frame) = match rx.recv_timeout(wait) {
            Ok(Inbound::Frame(id, frame)) => (Some(id), Some(frame)),
            Ok(Inbound::Accepted(stream)) => {
                let _ = stream.set_nodelay(true);
                if let Ok(read_half) = stream.try_clone() {
                    let tx = tx.clone();
                    let reader = thread::spawn(move || reader_loop(index, turn, read_half, tx));
                    conns.insert(turn, (stream, reader, false));
                }
                (None, None)
            }
            // Dropping the write half closes the socket; the reader's last
            // act was this message, so the join does not wait.
            Ok(Inbound::Closed(id)) => {
                if let Some((_, reader, _)) = conns.remove(&id) {
                    let _ = reader.join();
                }
                (None, None)
            }
            Err(_) => (None, None),
        };
        let shutdown = matches!(frame, Some(NetFrame::Shutdown));
        let subscribe = matches!(frame, Some(NetFrame::Subscribe));
        let reply = host.turn(frame, Instant::now());
        if let Some((stream, _, subscribed)) = id.and_then(|id| conns.get_mut(&id)) {
            *subscribed |= subscribe;
            if let Some(reply) = reply {
                let _ = write_frame(stream, &reply);
            }
        }
        if shutdown {
            break;
        }
        // The turn's completions — what the nodes reported in it, driver
        // actions included — encoded once for every subscriber.
        let mut stream_out = Vec::new();
        for (_, record) in host.lane.drain_reports::<OpRecord<T>>() {
            if let Err(e) = push_frame(&mut stream_out, &NetFrame::Completion { record }) {
                eprintln!("skueue-node[{index}]: not streaming a completion: {e}");
            }
        }
        if stream_out.is_empty() {
            continue;
        }
        for (stream, _, subscribed) in conns.values_mut().filter(|conn| conn.2) {
            *subscribed = stream.write_all(&stream_out).is_ok();
        }
    }

    // Teardown: hang up, so the listener ends at its next accept and a
    // reader at the EOF its socket's shutdown gives it, and join them all
    // — no leaked threads or sockets.
    drop(rx);
    let _ = TcpStream::connect(local_addr); // unblocks `accept`
    let _ = listener_thread.join();
    for (stream, reader, _) in conns.into_values() {
        let _ = stream.shutdown(Shutdown::Both);
        let _ = reader.join();
    }
    Ok(())
}

/// One connection's reader: decodes frames and passes them to the host.
/// Exits on EOF, on a frame that does not decode (said once, with the peer's
/// address — a peer that hung up stays silent), or when the host has gone.
fn reader_loop<T: Payload + Wire>(index: usize, id: u64, conn: TcpStream, tx: Sender<Inbound<T>>) {
    let peer = conn.peer_addr();
    let mut reader = BufReader::new(conn);
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

/// The nodes one daemon hosts and the state that drives them — everything
/// the host thread owns except the accepted connections, so that a turn can
/// be driven without sockets.
struct Host<T: Payload> {
    spec: ClusterSpec,
    index: usize,
    /// One node configuration per shard, shared by the shard's nodes.
    shard_cfgs: Vec<Arc<ProtocolConfig>>,
    /// The hosted nodes, in the order they came to be hosted, and the
    /// fabric between them and the peers.
    lane: Lane<SkueueNode<T>, TcpTransport<T>>,
    /// When the next turn sweeps every node that wants a `TIMEOUT`; `None`
    /// while no node does (a quiescent daemon sleeps until a frame arrives).
    next_sweep: Option<Instant>,
}

/// The middle node of process `pid`, if `pid` is below [`PID_LIMIT`]: a
/// frame's pid is checked here before any node id is derived from it.
fn middle_of(pid: ProcessId) -> Option<NodeId> {
    (pid.0 < PID_LIMIT).then(|| node_of(VirtualId::middle(pid)))
}

impl<T: Payload + Wire> Host<T> {
    /// Daemon `index`'s slice of the initial membership.
    fn new(spec: &ClusterSpec, index: usize) -> Self {
        let membership = spec.initial_membership();
        let mut lane = Lane::new(TcpTransport::new(spec, index));
        let hosted = membership
            .processes()
            .filter(|&(pid, ..)| spec.daemon_of(pid) == index);
        for (_, shard, views) in hosted {
            for (view, is_anchor) in views {
                let cfg = Arc::clone(&membership.shard_cfgs()[shard as usize]);
                lane.add_node(view.me().node, SkueueNode::new(cfg, shard, view, is_anchor));
            }
        }
        Host {
            spec: spec.clone(),
            index,
            shard_cfgs: membership.shard_cfgs().to_vec(),
            lane,
            next_sweep: None,
        }
    }

    /// Whether process `pid` is hosted here.
    fn hosts(&self, pid: ProcessId) -> bool {
        middle_of(pid).is_some_and(|middle| self.lane.node(middle).is_some())
    }

    /// One turn: serve `frame` and take one turn of the lane — a sweep if
    /// the deadline has passed — then write what the turn sent to each peer
    /// daemon in one write.  What the nodes completed waits in the lane's
    /// report sink.  Returns the reply `frame` is owed, if any.
    fn turn(&mut self, frame: Option<NetFrame<T>>, now: Instant) -> Option<NetFrame<T>> {
        let reply = frame.and_then(|frame| self.serve(frame));
        // The timer is a deadline checked every turn, not the expiry of a
        // wait: under continuous traffic no wait ever expires.
        let sweep = self.next_sweep.take_if(|at| now >= *at).is_some();
        self.lane.step(sweep);
        self.lane.fabric_mut().flush();
        // A node that comes to want a `TIMEOUT` (a joiner does, to announce
        // itself) is first visited by the sweep a tick later.
        if self.lane.wants_timeout() {
            self.next_sweep
                .get_or_insert(now + Duration::from_millis(self.spec.tick_ms));
        }
        reply
    }

    /// Acts on one frame and returns the reply owed to its connection.
    /// Protocol traffic is fire-and-forget and an issued inject's reply is
    /// its completion on the stream, but an inject a hosted process may not
    /// issue is answered [`NetFrame::Refused`]; control frames are answered.
    fn serve(&mut self, frame: NetFrame<T>) -> Option<NetFrame<T>> {
        let index = self.index;
        Some(match frame {
            // Peer preamble; proto frames carry full addressing, so the
            // daemon index is informational only.
            NetFrame::Hello { .. } => return None,
            NetFrame::Proto { from, to, msg } => {
                if let Err(e) = self.lane.inject(from, to, msg) {
                    eprintln!("skueue-node[{index}]: dropping a message from {from}: {e}");
                }
                return None;
            }
            NetFrame::Inject { id, insert, value } => {
                let kind = if insert { Enqueue } else { Dequeue };
                let pid = id.origin;
                if !self.hosts(pid) {
                    // Sent to the wrong daemon: nobody here can say whether
                    // the process may issue, so nothing is answered.
                    eprintln!("skueue-node[{index}]: dropping inject for {pid}: not hosted");
                    return None;
                }
                // Issued if the process may issue; refused, on the inject's
                // connection, if it is joining, leaving or gone.
                if !may_issue(pid, |id| self.lane.node(id)) {
                    return Some(NetFrame::Refused { id });
                }
                let middle = node_of(VirtualId::middle(pid));
                self.lane
                    .act(middle, |node, ctx| node.generate_op(id, kind, value, ctx));
                return None;
            }
            NetFrame::Join { pid, .. } if pid.0 >= PID_LIMIT => NetFrame::Err(format!(
                "process {} is beyond the process id limit {PID_LIMIT}",
                pid.0
            )),
            NetFrame::Join { pid, .. } if self.spec.daemon_of(pid) != index => {
                NetFrame::Err(format!("process {} is not placed here", pid.0))
            }
            NetFrame::Join { pid, .. } if self.hosts(pid) => {
                NetFrame::Err(format!("process {} already hosted", pid.0))
            }
            NetFrame::Join { pid, bootstrap } => {
                let shard = self.spec.shard_of(pid);
                let cfg = &self.shard_cfgs[shard as usize];
                for node in joining_nodes(cfg, shard, pid, bootstrap) {
                    self.lane.add_node(node.view().me().node, node);
                }
                NetFrame::Ok
            }
            NetFrame::Leave { pid } if self.hosts(pid) => {
                match may_leave(pid, |id| self.lane.node(id)) {
                    Ok(()) => {
                        for id in nodes_of(pid) {
                            self.lane.act(id, |node, _| node.request_leave());
                        }
                        NetFrame::Ok
                    }
                    Err(why) => NetFrame::Err(why.to_string()),
                }
            }
            NetFrame::Leave { pid } => NetFrame::Err(format!("process {} not hosted here", pid.0)),
            NetFrame::Status => NetFrame::StatusReply {
                daemon: index as u32,
                processes: (self.lane.nodes())
                    .filter(|node| node.view().kind() == VKind::Middle)
                    .map(|middle| {
                        let (pid, node) = (middle.process(), |id| self.lane.node(id));
                        let left = all_nodes(pid, node, SkueueNode::has_left);
                        (pid.0, may_issue(pid, node), left)
                    })
                    .collect(),
            },
            // Answered here; the host loop marks the connection or stops.
            NetFrame::Subscribe | NetFrame::Shutdown => NetFrame::Ok,
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
    use skueue_core::{series, ClusterError, DhtOp, Skueue, SkueueMsg, TraceLevel};
    use skueue_overlay::RouteProgress;
    use skueue_sim::ids::RequestId;
    use skueue_sim::{Actor, SimRng};
    use skueue_trace::{TraceEvent, TraceId, TraceRecord};
    use skueue_verify::{check_queue_sharded, History};
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::rc::Rc;

    /// In-memory stand-in for the connection towards a peer daemon: the
    /// bytes of each write, one entry a write.
    #[derive(Clone, Default)]
    struct PeerSink(Rc<RefCell<Vec<Vec<u8>>>>);

    impl io::Write for PeerSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl PeerSink {
        /// The frames written so far, taken out of the sink.
        fn take_frames(&self) -> Vec<NetFrame<u64>> {
            frames_of(self.0.take().concat())
        }

        /// The writes so far, taken out of the sink.
        fn take_writes(&self) -> Vec<Vec<u8>> {
            self.0.take()
        }
    }

    /// The frames in `bytes`, in order.
    fn frames_of(bytes: Vec<u8>) -> Vec<NetFrame<u64>> {
        let mut cursor = io::Cursor::new(bytes);
        let mut frames = Vec::new();
        while let Some(frame) = read_frame::<NetFrame<u64>, _>(&mut cursor).expect("frames") {
            frames.push(frame);
        }
        frames
    }

    const TICK: Duration = Duration::from_millis(2);

    /// Daemon `index` of a `daemons`-daemon cluster of `initial` processes
    /// over `shards` shards (addresses are never dialled: every peer is an
    /// in-memory sink), and the sink towards the other daemons.
    fn daemon(daemons: usize, index: usize, initial: u64, shards: usize) -> (Host<u64>, PeerSink) {
        let spec = ClusterSpec::localhost(daemons, 7100, initial, shards);
        assert_eq!(Duration::from_millis(spec.tick_ms), TICK);
        let mut host = Host::<u64>::new(&spec, index);
        let sink = PeerSink::default();
        for (peer, conn) in host.lane.fabric_mut().peers.iter_mut().enumerate() {
            if peer != index {
                *conn = Some(Box::new(sink.clone()));
            }
        }
        (host, sink)
    }

    /// Daemon 0 of a one-shard cluster, and the sink towards daemon 1.
    fn host(daemons: usize, initial: u64) -> (Host<u64>, PeerSink) {
        daemon(daemons, 0, initial, 1)
    }

    fn middle(pid: u64) -> NodeId {
        node_of(VirtualId::middle(ProcessId(pid)))
    }

    fn node(host: &Host<u64>, id: NodeId) -> &SkueueNode<u64> {
        host.lane.node(id).expect("hosted")
    }

    /// The three nodes of process `pid`, Left/Middle/Right.
    fn nodes(pid: u64) -> [NodeId; 3] {
        nodes_of(ProcessId(pid))
    }

    /// Starts the join of `pid` via p0, in a one-shard cluster the lowest
    /// process that may issue.
    fn join(host: &mut Host<u64>, pid: u64, now: Instant) {
        let (pid, bootstrap) = (ProcessId(pid), middle(0));
        let reply = host.turn(Some(NetFrame::Join { pid, bootstrap }), now);
        assert_eq!(reply, Some(NetFrame::Ok));
    }

    fn inject(pid: u64, seq: u64, insert: bool) -> NetFrame<u64> {
        NetFrame::Inject {
            id: RequestId::new(ProcessId(pid), seq),
            insert,
            value: 7 + seq,
        }
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
    fn run_until(
        host: &mut Host<u64>,
        now: &mut Instant,
        mut done: impl FnMut(&mut Host<u64>, Instant) -> bool,
    ) {
        for _ in 0..10_000 {
            if done(host, *now) {
                return;
            }
            *now += TICK;
            host.turn(None, *now);
        }
        panic!("the host did not get there in 10000 ticks");
    }

    /// Turns the host, a tick at a time, until `Status` reports `pid` as
    /// `(integrated, left)`.
    fn await_status(host: &mut Host<u64>, now: &mut Instant, pid: u64, state: (bool, bool)) {
        run_until(host, now, |host, now| {
            status(host, now).contains(&(pid, state.0, state.1))
        });
    }

    #[test]
    fn the_timer_visits_an_armed_node_while_another_is_fed_without_pause() {
        let start = Instant::now();
        let (mut host, _) = host(1, 3);
        // A joiner wants its first `TIMEOUT` (to announce itself) and is
        // sent nothing until it has had it.
        join(&mut host, 3, start);
        assert!(node(&host, middle(3)).wants_timeout());
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
            assert!(host.lane.visited().any(|id| id == fed), "step {step}");
            // The joiner's first visit is the timer's, and comes within one
            // tick: the visit sends its announcement and disarms it.
            let announced = !node(&host, middle(3)).wants_timeout();
            assert_eq!(announced, now >= start + TICK, "step {step}");
        }
    }

    /// A node that hands itself over in the middle of a visit still ends the
    /// visit with its `TIMEOUT`, so what it routed before the hand-over leaves
    /// with the turn instead of staying in its buffer for ever.
    #[test]
    fn a_node_that_starts_draining_still_forwards_what_it_routed() {
        for absorbed in [false, true] {
            let now = Instant::now();
            let (mut host, _) = host(1, 3);
            let id = middle(0);
            let pred = node(&host, id).view().pred();
            // A GET for the predecessor's interval: `id` has to pass it on.
            let get = RoutedDhtOp {
                op: Box::new(DhtOp::Get {
                    position: 1,
                    max_ticket: u64::MAX,
                    request: RequestId::new(ProcessId(1), 0),
                    requester: middle(1),
                }),
                progress: RouteProgress::linear_only(pred.label),
            };
            let fabric = host.lane.fabric_mut();
            fabric.send(pred.node, id, SkueueMsg::DhtBatch { ops: vec![get] });
            if absorbed {
                fabric.send(pred.node, id, SkueueMsg::AbsorbRequest);
            }
            host.turn(None, now);
            let mut sent = Vec::new();
            host.lane.fabric_mut().take_due(0, |env| {
                assert_eq!(env.from, id, "nobody else was visited");
                sent.push(env.payload);
            });
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

    /// `Status` reads a process integrated exactly while it may issue: not
    /// in a turn where one of its nodes is still joining, and not from the
    /// turn its `Leave` is served.  An `Inject` from then on opens no request
    /// and is answered `Refused` — the daemon's form of the cluster's
    /// refused issue — so nothing holds the leave up.
    #[test]
    fn status_reports_whether_a_process_may_issue() {
        let mut now = Instant::now();
        // Here the joiner's middle node integrates turns before its right
        // node: a status read from the middle node alone would say so early.
        let (mut host, _) = host(1, 5);
        let integrated = |host: &Host<u64>| nodes(5).map(|id| node(host, id).is_integrated());
        let reads = |host: &mut Host<u64>, now| status(host, now)[5];
        join(&mut host, 5, now);
        let mut middle_first = false;
        // `Status` is served before the turn's visits: it reads the nodes as
        // they were before the call.
        run_until(&mut host, &mut now, |host, now| {
            let before = integrated(host);
            middle_first |= before == [true, true, false];
            let (pid, may_issue, left) = reads(host, now);
            assert_eq!((pid, left), (5, false));
            assert_eq!(may_issue, before.iter().all(|&i| i), "nodes {before:?}");
            may_issue
        });
        assert!(middle_first, "the middle node never integrated first");
        let leave = NetFrame::Leave { pid: ProcessId(5) };
        assert_eq!(host.turn(Some(leave), now), Some(NetFrame::Ok));
        let mut seq = 0;
        run_until(&mut host, &mut now, |host, now| {
            let id = RequestId::new(ProcessId(5), seq);
            let reply = host.turn(Some(inject(5, seq, true)), now);
            assert_eq!(reply, Some(NetFrame::Refused { id }));
            assert_eq!(node(host, middle(5)).open_requests(), 0);
            seq += 1;
            let (_, may_issue, left) = reads(host, now);
            assert!(!may_issue);
            left
        });
        assert!(nodes(5).iter().all(|&id| node(&host, id).has_left()));
        // A process that joined and left again, and a joiner that has not
        // had a turn yet, next to the initial members.
        join(&mut host, 6, now);
        let mut expected: Vec<_> = (0..5).map(|pid| (pid, true, false)).collect();
        expected.extend([(5, false, true), (6, false, false)]);
        assert_eq!(status(&mut host, now), expected);
        let leave = NetFrame::Leave { pid: ProcessId(9) };
        assert!(matches!(
            host.turn(Some(leave), now),
            Some(NetFrame::Err(_))
        ));
    }

    fn refused(host: &mut Host<u64>, pid: u64, now: Instant, why: ClusterError) {
        let leave = NetFrame::Leave {
            pid: ProcessId(pid),
        };
        let reply = host.turn(Some(leave), now);
        assert_eq!(
            reply,
            Some(NetFrame::Err(why.to_string())),
            "leave of {pid}"
        );
    }

    /// The anchor's process is pinned, as in the simulation cluster: its
    /// `Leave` is refused, and it stays a member that may issue.
    #[test]
    fn a_leave_of_the_anchors_process_is_refused() {
        let mut now = Instant::now();
        let (mut host, _) = host(1, 3);
        let anchor = (0..3)
            .find(|&pid| {
                nodes(pid)
                    .iter()
                    .any(|&id| node(&host, id).is_anchor_node())
            })
            .expect("one process hosts the anchor");
        let why = ClusterError::AnchorCannotLeave(ProcessId(anchor));
        refused(&mut host, anchor, now, why.clone());
        for _ in 0..100 {
            now += TICK;
            host.turn(None, now);
        }
        assert!(status(&mut host, now).contains(&(anchor, true, false)));
        refused(&mut host, anchor, now, why);
        assert_eq!(host.turn(Some(inject(anchor, 0, true)), now), None);
        assert_eq!(node(&host, middle(anchor)).open_requests(), 1);
    }

    /// A process that is still joining may not leave yet; refused, it goes
    /// on joining.
    #[test]
    fn a_leave_of_a_joining_process_is_refused() {
        let mut now = Instant::now();
        let (mut host, _) = host(1, 3);
        join(&mut host, 3, now);
        refused(
            &mut host,
            3,
            now,
            ClusterError::ProcessNotActive(ProcessId(3)),
        );
        await_status(&mut host, &mut now, 3, (true, false));
        assert!(nodes(3).iter().all(|&id| node(&host, id).is_integrated()));
    }

    /// A process leaves once: a second `Leave` is refused while it is
    /// leaving and after it has left.
    #[test]
    fn a_second_leave_is_refused_while_leaving_and_once_gone() {
        let mut now = Instant::now();
        let (mut host, _) = host(1, 3);
        join(&mut host, 3, now);
        await_status(&mut host, &mut now, 3, (true, false));
        let leave = NetFrame::Leave { pid: ProcessId(3) };
        assert_eq!(host.turn(Some(leave), now), Some(NetFrame::Ok));
        let why = ClusterError::ProcessNotActive(ProcessId(3));
        refused(&mut host, 3, now, why.clone());
        await_status(&mut host, &mut now, 3, (false, true));
        refused(&mut host, 3, now, why);
    }

    /// A frame naming a process id at or beyond [`PID_LIMIT`] is refused
    /// before a node id is derived from it: a `JOIN` of 10¹⁵ would size the
    /// slot map for 3 · 10¹⁵ ids, and `3p + kind` overflows near `u64::MAX`.
    #[test]
    fn a_process_id_beyond_the_limit_is_refused() {
        let now = Instant::now();
        let (mut host, _) = host(1, 3);
        let bootstrap = middle(0);
        for pid in [PID_LIMIT, 10u64.pow(15), u64::MAX - 1] {
            let join = NetFrame::Join {
                pid: ProcessId(pid),
                bootstrap,
            };
            assert!(matches!(host.turn(Some(join), now), Some(NetFrame::Err(_))));
            assert_eq!(host.turn(Some(inject(pid, 0, true)), now), None);
            let leave = NetFrame::Leave {
                pid: ProcessId(pid),
            };
            assert!(matches!(
                host.turn(Some(leave), now),
                Some(NetFrame::Err(_))
            ));
        }
        let hosted: Vec<u64> = status(&mut host, now).iter().map(|p| p.0).collect();
        assert_eq!(hosted, [0, 1, 2]);
    }

    #[test]
    fn a_dropped_or_refused_inject_does_not_hold_up_the_frames_behind_it() {
        let now = Instant::now();
        // Daemon 0 of two hosts processes 0 and 2, and the joiner 4.
        let (mut host, sink) = host(2, 4);
        join(&mut host, 4, now);
        let open = |host: &Host<u64>, pid: u64| node(host, middle(pid)).open_requests();
        // Process 1 lives on daemon 1, so its inject goes unanswered;
        // process 4 may not issue yet, so its inject is refused.
        assert_eq!(host.turn(Some(inject(1, 0, true)), now), None);
        let id = RequestId::new(ProcessId(4), 0);
        let reply = host.turn(Some(inject(4, 0, true)), now);
        assert_eq!(reply, Some(NetFrame::Refused { id }));
        assert!([0, 2, 4].iter().all(|&pid| open(&host, pid) == 0));
        // The frames behind them are served as if nothing had happened.
        assert_eq!(host.turn(Some(inject(0, 0, true)), now), None);
        assert_eq!(open(&host, 0), 1);
        assert_eq!(status(&mut host, now).len(), 3);
        // A message for a node hosted elsewhere leaves as a frame towards
        // its daemon, whoever sent it.
        let stray = NetFrame::Proto {
            from: middle(0),
            to: middle(1),
            msg: SkueueMsg::<u64>::LeaveGranted,
        };
        sink.take_frames();
        assert_eq!(host.turn(Some(stray.clone()), now), None);
        let sent = sink.take_frames();
        assert!(sent.contains(&stray), "sent {sent:?}");
        assert!(sent.iter().all(|frame| matches!(
            frame,
            NetFrame::Proto { to, .. } if host.spec.daemon_of_node(*to) == 1
        )));
        // A message for a node placed here that nobody hosts is dropped.
        let lost = NetFrame::Proto {
            from: middle(0),
            to: middle(6),
            msg: SkueueMsg::<u64>::LeaveGranted,
        };
        assert_eq!(host.turn(Some(lost), now), None);
        assert_eq!(host.lane.fabric().in_flight(), 0);
    }

    /// The frames one turn sends to a peer daemon leave in one write, in
    /// send order.
    #[test]
    fn a_turn_writes_its_frames_to_a_peer_at_once() {
        let now = Instant::now();
        // Daemon 0 of two: processes 1 and 3 live on daemon 1.
        let (mut host, sink) = host(2, 4);
        let sends: Vec<(NodeId, NodeId, SkueueMsg<u64>)> = (0..5)
            .map(|seq| {
                let request = RequestId::new(ProcessId(0), seq);
                (
                    middle(0),
                    middle(1 + 2 * (seq % 2)),
                    SkueueMsg::PutAck { request },
                )
            })
            .collect();
        for (from, to, msg) in sends.iter().cloned() {
            host.lane.fabric_mut().send(from, to, msg);
        }
        assert!(
            sink.take_writes().is_empty(),
            "nothing leaves before the turn"
        );
        host.turn(None, now);
        let writes = sink.take_writes();
        assert_eq!(writes.len(), 1);
        let frames = sends
            .into_iter()
            .map(|(from, to, msg)| NetFrame::Proto { from, to, msg });
        assert_eq!(frames_of(writes.concat()), frames.collect::<Vec<_>>());
        // A turn that sends nothing writes nothing.
        host.turn(None, now);
        assert!(sink.take_writes().is_empty());
    }

    /// What the hosted nodes report through their context lands in the
    /// lane's sinks: samples and completion records always, trace events —
    /// a traced request's `Completed` instant among them — when the nodes
    /// trace.
    #[test]
    fn the_lane_keeps_what_the_hosted_nodes_report() {
        let mut now = Instant::now();
        let (mut host, _) = host(1, 3);
        // The joiner's nodes are built from the shard's configuration, so
        // tracing it makes the joiner a traced process.
        let traced = ProtocolConfig {
            trace_level: TraceLevel::Spans,
            ..*host.shard_cfgs[0]
        };
        host.shard_cfgs[0] = Arc::new(traced);
        join(&mut host, 3, now);
        await_status(&mut host, &mut now, 3, (true, false));
        for (seq, pid) in [0, 1, 3, 3].into_iter().enumerate() {
            host.turn(Some(inject(pid, seq as u64, seq % 2 == 0)), now);
        }
        let mut completed = 0;
        run_until(&mut host, &mut now, |host, _| {
            completed += host.lane.drain_reports::<OpRecord<u64>>().count();
            completed == 4
        });
        assert!(host.lane.observed(series::BATCH_SIZES).count() > 0);
        assert!(host.lane.observed(series::WAVES_IN_FLIGHT).count() > 0);
        let traced: Vec<TraceRecord> = host.lane.drain_trace().collect();
        let traced_nodes: HashSet<u64> = traced.iter().map(|r| r.node).collect();
        assert!(
            traced_nodes.contains(&middle(3).0),
            "traced {traced_nodes:?}"
        );
        // The joiner's dequeue completes at its middle node.
        let dequeue = TraceId::new(3, 3);
        assert!(traced.iter().any(|r| r.node == middle(3).0
            && matches!(r.event, TraceEvent::Completed { op, .. } if op == dequeue)));
    }

    /// One seeded workload through the simulation and through two daemon
    /// lanes joined in memory: on both, every request completes exactly
    /// once and the history passes the sharded checker.
    #[test]
    fn two_daemon_lanes_in_memory_agree_with_the_simulation() {
        const PROCESSES: u64 = 8;
        const SHARDS: usize = 2;
        // (process, insert) per step, the same for both hosts.
        let mut rng = SimRng::new(26);
        let workload: Vec<(u64, bool)> = (0..60)
            .map(|_| (rng.gen_range(PROCESSES), rng.gen_bool(0.6)))
            .collect();

        let mut cluster = Skueue::<u64>::builder()
            .processes(PROCESSES as usize)
            .shards(SHARDS)
            .seed(26)
            .build()
            .unwrap();
        for (step, &(pid, insert)) in workload.iter().enumerate() {
            let mut client = cluster.client(ProcessId(pid));
            if insert {
                client.enqueue(step as u64).unwrap();
            } else {
                client.dequeue().unwrap();
            }
            cluster.run_round();
        }
        cluster.run_until_all_complete(5_000).unwrap();
        let map = cluster.shard_map();
        let simulated = cluster.into_history().into_records();

        let mut now = Instant::now();
        let mut daemons: Vec<(Host<u64>, PeerSink)> = (0..2)
            .map(|index| daemon(2, index, PROCESSES, SHARDS))
            .collect();
        assert_eq!(daemons[0].0.spec.shard_map(), map);
        let mut seqs = [0u64; PROCESSES as usize];
        let mut hosted = Vec::new();
        for turn in 0..10_000 {
            if let Some(&(pid, insert)) = workload.get(turn) {
                let seq = &mut seqs[pid as usize];
                let frame = inject(pid, *seq, insert);
                *seq += 1;
                daemons[pid as usize % 2].0.turn(Some(frame), now);
            }
            now += TICK;
            for index in 0..2 {
                // What the other daemon wrote towards this one arrives here.
                for frame in daemons[1 - index].1.take_frames() {
                    daemons[index].0.turn(Some(frame), now);
                }
                let host = &mut daemons[index].0;
                host.turn(None, now);
                hosted.extend(host.lane.drain_reports().map(|(_, record)| record));
            }
            if turn >= workload.len() && hosted.len() == workload.len() {
                break;
            }
        }

        for (host, records) in [("simulation", simulated), ("daemons", hosted)] {
            assert_eq!(records.len(), workload.len(), "{host}: completions");
            let ids: HashSet<RequestId> = records.iter().map(|r| r.id).collect();
            assert_eq!(
                ids.len(),
                workload.len(),
                "{host}: a request completed twice"
            );
            let history = History::from_records(records);
            assert!(
                check_queue_sharded(&history, &map).is_consistent(),
                "{host}: inconsistent history"
            );
        }
    }
}
