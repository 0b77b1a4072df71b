//! The real-clock transport: [`TcpTransport`] is the
//! [`skueue_sim::Transport`] of the lane one daemon hosts its nodes in.
//!
//! Where [`skueue_sim::SimTransport`] owns a seeded delay model and a
//! round-bucketed delivery wheel (virtual time), `TcpTransport` owns what a
//! daemon needs to move a message in real time: one FIFO for messages
//! between two nodes of this daemon — the cheapest hand-off is none, so a
//! local hop is a queue push that the lane delivers on its next turn — and
//! one outgoing TCP connection per peer daemon, dialled on demand, onto which
//! the messages a turn sends to nodes hosted there go as length-prefixed
//! frames, in one write at the end of the turn ([`TcpTransport::flush`]).
//! It adds nothing to the lane's schedule: visits run in slot
//! order.  Delivery latency is whatever the operating system provides —
//! which is exactly the asynchronous model the protocol's correctness
//! argument assumes.  Determinism ends here: two runs over this transport
//! interleave differently, and correctness is checked a posteriori by the
//! history verifier instead of by byte-identity.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use skueue_core::SkueueMsg;
use skueue_sim::ids::NodeId;
use skueue_sim::{Envelope, Transport};

use crate::codec::Wire;
use crate::frame::{push_frame, write_frame, NetFrame};
use crate::spec::ClusterSpec;

/// The message fabric of one daemon's lane, owned by the thread that hosts
/// the daemon's nodes: the simulation's [`Transport`] seam over a local
/// queue and real sockets.
///
/// [`Transport::in_flight`] is the local queue's length: messages handed to
/// the kernel for a peer leave the count, because a real network transport
/// can only report its own queues.
pub(crate) struct TcpTransport<T> {
    spec: ClusterSpec,
    /// This daemon's index in `spec.daemons`.
    index: usize,
    /// Messages for nodes hosted here, in send order.
    local: VecDeque<Envelope<SkueueMsg<T>>>,
    /// Outgoing connection per daemon index (none to ourselves).  A
    /// `TcpStream` outside tests, which put an in-memory sink here.
    pub(crate) peers: Vec<Option<Box<dyn Write>>>,
    /// The frames sent to each daemon since the last [`Self::flush`].
    outbox: Vec<Vec<u8>>,
}

impl<T> std::fmt::Debug for TcpTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("index", &self.index)
            .field("in_flight", &self.local.len())
            .finish_non_exhaustive()
    }
}

impl<T> TcpTransport<T> {
    /// The transport of daemon `index` of `spec`, with nothing queued and no
    /// peer dialled yet.
    pub(crate) fn new(spec: &ClusterSpec, index: usize) -> Self {
        TcpTransport {
            spec: spec.clone(),
            index,
            local: VecDeque::new(),
            peers: (0..spec.num_daemons()).map(|_| None).collect(),
            outbox: vec![Vec::new(); spec.num_daemons()],
        }
    }

    /// Writes each peer's frames since the last flush in one write.  Frames
    /// that cannot be written are dropped, matching a crashed link; nodes
    /// tolerate that during shutdown only (the protocol itself assumes
    /// reliable channels).  A buffer keeps its room for the next turn.
    pub(crate) fn flush(&mut self) {
        for (daemon, frames) in self.outbox.iter_mut().enumerate() {
            if frames.is_empty() {
                continue;
            }
            let dial = || dial_peer(&self.spec, self.index, daemon);
            if !write_to(&mut self.peers[daemon], frames, dial) {
                eprintln!(
                    "skueue-node[{}]: dropping frames for unreachable daemon {daemon}",
                    self.index
                );
            }
            frames.clear();
        }
    }
}

impl<T: Wire + Clone + std::fmt::Debug> Transport<SkueueMsg<T>> for TcpTransport<T> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: SkueueMsg<T>) {
        let daemon = self.spec.daemon_of_node(to);
        if daemon == self.index {
            self.local.push_back(Envelope {
                from,
                to,
                payload: msg,
            });
            return;
        }
        let frame = NetFrame::Proto { from, to, msg };
        if let Err(e) = push_frame(&mut self.outbox[daemon], &frame) {
            eprintln!("skueue-node[{}]: dropping a frame: {e}", self.index);
        }
    }

    fn in_flight(&self) -> usize {
        self.local.len()
    }

    fn name(&self) -> &'static str {
        "tcp"
    }

    /// Everything queued for a node of this daemon: what a turn sends to
    /// one waits for the next turn, so a local ping-pong cannot keep the
    /// host from its connections or its timer.
    fn take_due(&mut self, _turn: u64, deliver: impl FnMut(Envelope<SkueueMsg<T>>)) -> usize {
        let due = self.local.len();
        self.local.drain(..).for_each(deliver);
        due
    }

    fn is_remote(&self, to: NodeId) -> bool {
        self.spec.daemon_of_node(to) != self.index
    }
}

/// Writes `bytes` to a peer daemon's connection: one dial attempt cycle,
/// then one redial after a stale-connection write failure (the peer may
/// have restarted between writes), which sends them again whole.  Whether
/// they were written.
fn write_to(
    peer: &mut Option<Box<dyn Write>>,
    bytes: &[u8],
    dial: impl Fn() -> Option<Box<dyn Write>>,
) -> bool {
    for _ in 0..2 {
        if peer.is_none() {
            *peer = dial();
        }
        let Some(stream) = peer.as_mut() else {
            return false;
        };
        if stream.write_all(bytes).is_ok() {
            return true;
        }
        *peer = None;
    }
    false
}

/// Dials a peer daemon and sends the identifying preamble.
fn dial_peer(spec: &ClusterSpec, index: usize, daemon: usize) -> Option<Box<dyn Write>> {
    let mut stream = dial(&spec.daemons[daemon]).ok()?;
    // `Hello` carries no payload-typed field, so any `T` encodes it
    // identically; `u64` keeps this helper non-generic.
    let hello = NetFrame::<u64>::Hello { from: index as u32 };
    write_frame(&mut stream, &hello).ok()?;
    Some(Box::new(stream))
}

/// Connects to `addr` with Nagle off, retrying for about five seconds while
/// the daemon there starts up (the daemons of one cluster start
/// concurrently): the first attempt at once, then one every 20 ms, 250 in
/// all.  The error is the last attempt's.
pub(crate) fn dial(addr: &str) -> io::Result<TcpStream> {
    let mut attempt = TcpStream::connect(addr);
    for _ in 1..250 {
        if attempt.is_ok() {
            break;
        }
        thread::sleep(Duration::from_millis(20));
        attempt = TcpStream::connect(addr);
    }
    let stream = attempt?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}
