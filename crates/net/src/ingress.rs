//! The ingress client: issues client operations into a running cluster and
//! collects the completion stream into a verifiable history.
//!
//! The ingress owns the `RequestId` space (per-process monotone sequence
//! numbers, exactly as the simulation cluster's driver does), timestamps
//! every operation at issue and at completion for wall-clock latency
//! percentiles, and rebuilds a [`History`] from the streamed
//! [`NetFrame::Completion`] records — which then goes through the same
//! [`check_queue_sharded`] verifier as a simulated run.  This is where the
//! "correct under full asynchrony, checked a posteriori" contract of the
//! real transport is enforced.
//!
//! The ingress is also where an overloaded cluster pushes back: it keeps at
//! most [`INGRESS_WINDOW_PER_DAEMON`] operations per daemon in flight, and an
//! inject into a full window waits on the completion stream until one of
//! this client's operations completes or is refused
//! ([`NetFrame::Refused`]: its process may not issue).

use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skueue_core::Payload;
use skueue_sim::ids::{ProcessId, RequestId};
use skueue_verify::{check_queue_sharded, ConsistencyReport, History, OpRecord};

use crate::codec::Wire;
use crate::ctl::Control;
use crate::frame::{read_frame, NetFrame};
use crate::spec::ClusterSpec;

/// How many of one client's operations may be in flight per daemon of the
/// cluster: an [`IngressClient`] keeps at most this many times
/// [`ClusterSpec::num_daemons`] issued and not yet completed, and an inject
/// beyond that waits on the completion stream.  It grows with the cluster
/// because placement spreads the processes over the daemons.
///
/// The bound sits here, at the one party that can wait without holding up
/// anyone else, and nowhere inside a daemon.  With the window, a daemon's
/// inbound channel and its nodes' state hold at most the window's injects
/// plus the protocol traffic those operations cause.  Bounding the daemon's
/// inbound channel instead (a blocking `sync_channel`) could deadlock two
/// daemons: host A blocks writing a frame to B because B's reader is
/// blocked on B's full channel, while B's host blocks writing to A because
/// A's reader is blocked on A's — neither host drains its channel again.
pub const INGRESS_WINDOW_PER_DAEMON: usize = 2048;

/// How long an inject into a full window waits for one of the client's
/// operations to complete before it gives up with [`io::ErrorKind::TimedOut`].
const WINDOW_STALL: Duration = Duration::from_secs(30);

/// What a daemon answers an inject with, as the reader threads pass it on.
#[derive(Debug)]
enum Answer<T> {
    /// The operation completed ([`NetFrame::Completion`]).
    Completed(OpRecord<T>),
    /// The daemon opened no request for it ([`NetFrame::Refused`]).
    Refused(RequestId),
}

/// A connected ingress: one subscribed connection per daemon, with reader
/// threads streaming completions and refusals into a single channel.
#[derive(Debug)]
pub struct IngressClient<T: Payload> {
    spec: ClusterSpec,
    /// Write halves, per daemon.  An issued inject is answered by its
    /// completion on the stream, a refused one by a [`NetFrame::Refused`]
    /// on its connection, and [`Self::inject`] waits on both while the
    /// window is full.
    conns: Vec<Control<T>>,
    /// Merged completions and refusals from all daemons.
    completions: Receiver<Answer<T>>,
    readers: Vec<JoinHandle<()>>,
    /// Base for this client's sequence numbers: wall-clock microseconds at
    /// connect time.  Distinct ingress invocations against the same cluster
    /// must not reuse `RequestId`s, and they share no state — the clock is
    /// the coordination-free source of disjoint id ranges (two invocations
    /// would need to issue within the same microsecond to collide).
    seq_base: u64,
    /// Per-process next sequence offset (the ingress owns the id space).
    next_seq: HashMap<u64, u64>,
    /// When the latency of each operation still awaiting completion started:
    /// its issue, or the time it was due (see [`Self::inject`]).  Holds at
    /// most [`INGRESS_WINDOW_PER_DAEMON`] entries per daemon.
    pending: HashMap<RequestId, Instant>,
    /// Completed records, in arrival order.
    records: History<T>,
    /// Wall-clock latencies of this client's completed operations, in
    /// microseconds.  A subscription streams every completion of a daemon,
    /// whoever issued the operation, so not every record has one.
    latencies_us: Vec<u64>,
    issued: u64,
    /// This client's injects the daemons refused.
    refused: u64,
}

impl<T: Payload + Wire> IngressClient<T> {
    /// Connects to every daemon, subscribes to its completion stream, and
    /// spawns one reader thread per connection.
    pub fn connect(spec: &ClusterSpec) -> io::Result<Self> {
        let (tx, completions) = channel();
        let mut conns = Vec::with_capacity(spec.num_daemons());
        let mut readers = Vec::with_capacity(spec.num_daemons());
        for addr in &spec.daemons {
            let mut conn = Control::<T>::connect(addr)?;
            conn.expect_ok(&NetFrame::Subscribe)?;
            // Hand the buffered read half to a completion pump; keep the
            // write half for injects.
            let mut reader = std::mem::replace(
                &mut conn.reader,
                std::io::BufReader::new(conn.stream.try_clone()?),
            );
            let tx = tx.clone();
            let addr = addr.clone();
            readers.push(std::thread::spawn(move || loop {
                let answer = match read_frame::<NetFrame<T>, _>(&mut reader) {
                    Ok(Some(NetFrame::Completion { record })) => Answer::Completed(record),
                    Ok(Some(NetFrame::Refused { id })) => Answer::Refused(id),
                    Ok(Some(_)) => continue, // stray replies are ignored
                    Ok(None) => break,
                    // Said once, with the daemon's address: the operations
                    // it would have answered stay pending.
                    Err(e) => {
                        eprintln!("ingress: closing the completion stream from {addr}: {e}");
                        break;
                    }
                };
                if tx.send(answer).is_err() {
                    break;
                }
            }));
            conns.push(conn);
        }
        let seq_base = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Ok(IngressClient {
            spec: spec.clone(),
            conns,
            completions,
            readers,
            seq_base,
            next_seq: HashMap::new(),
            pending: HashMap::new(),
            records: History::new(),
            latencies_us: Vec::new(),
            issued: 0,
            refused: 0,
        })
    }

    /// Issues an enqueue of `value` through process `pid`, first waiting
    /// for room if [`INGRESS_WINDOW_PER_DAEMON`] operations per daemon are
    /// in flight.
    pub fn enqueue(&mut self, pid: ProcessId, value: T) -> io::Result<RequestId> {
        self.inject(pid, true, value, Instant::now())
    }

    /// Issues a dequeue through process `pid`, waiting for room like
    /// [`Self::enqueue`].
    pub fn dequeue(&mut self, pid: ProcessId) -> io::Result<RequestId> {
        self.inject(pid, false, T::default(), Instant::now())
    }

    /// Issues one operation whose latency runs from `since`: now for a
    /// caller that issues as it goes, the time the operation was due for a
    /// generator on a schedule — so the latency is measured where it is
    /// stamped and needs no pairing with a record afterwards, and it counts
    /// any wait for room in the window.
    ///
    /// When the window is full, waits on the completion stream until one of
    /// this client's operations completes.  Fails without writing anything
    /// if every daemon hung up ([`io::ErrorKind::BrokenPipe`]) or none of
    /// them completed an operation of this client within [`WINDOW_STALL`]
    /// ([`io::ErrorKind::TimedOut`]).
    pub(crate) fn inject(
        &mut self,
        pid: ProcessId,
        insert: bool,
        value: T,
        since: Instant,
    ) -> io::Result<RequestId> {
        self.make_room()?;
        let seq = self.next_seq.entry(pid.0).or_insert(0);
        let id = RequestId::new(pid, self.seq_base + *seq);
        *seq += 1;
        let daemon = self.spec.daemon_of(pid);
        // An operation counts as issued once its frame is written: one the
        // daemon never received has no completion to wait for.
        self.conns[daemon].send(&NetFrame::Inject { id, insert, value })?;
        self.pending.insert(id, since);
        self.issued += 1;
        self.pump();
        Ok(id)
    }

    /// Absorbs completions and refusals until fewer than the window's worth
    /// of this client's operations are pending.
    fn make_room(&mut self) -> io::Result<()> {
        let window = INGRESS_WINDOW_PER_DAEMON * self.conns.len();
        self.absorb_until(Instant::now() + WINDOW_STALL, |c| c.pending.len() < window)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{} operations in flight and none completed in {WINDOW_STALL:?}",
                        self.pending.len()
                    ),
                ),
                RecvTimeoutError::Disconnected => io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "the window is full and every daemon has hung up",
                ),
            })
    }

    /// Absorbs completions and refusals as they arrive, stamping each on
    /// arrival, until `done` holds (checked before every wait) or
    /// `deadline` passes ([`RecvTimeoutError::Timeout`]) or every daemon
    /// has hung up ([`RecvTimeoutError::Disconnected`]).
    fn absorb_until(
        &mut self,
        deadline: Instant,
        done: impl Fn(&Self) -> bool,
    ) -> Result<(), RecvTimeoutError> {
        while !done(self) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            self.absorb(self.completions.recv_timeout(left)?);
        }
        Ok(())
    }

    /// Number of operations issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Number of completions received so far.
    pub fn completed(&self) -> u64 {
        self.records.len() as u64
    }

    /// Number of this client's injects a daemon refused so far: its process
    /// was joining, leaving or gone, so the operation was never issued and
    /// is no longer awaited.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Drains every completion and refusal that has already arrived,
    /// without blocking.
    pub fn pump(&mut self) {
        while let Ok(answer) = self.completions.try_recv() {
            self.absorb(answer);
        }
    }

    /// Absorbs completions as they arrive until `deadline`, stamping each on
    /// arrival: the wait blocks on the completion stream, so a completion is
    /// never left unstamped while the caller idles (and idling polls
    /// nothing).
    pub(crate) fn pump_until(&mut self, deadline: Instant) {
        // Every daemon hung up: nothing more will arrive, so sleep instead.
        if self.absorb_until(deadline, |_| false) == Err(RecvTimeoutError::Disconnected) {
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        }
    }

    fn absorb(&mut self, answer: Answer<T>) {
        match answer {
            Answer::Completed(record) => {
                if let Some(since) = self.pending.remove(&record.id) {
                    self.latencies_us
                        .push(since.elapsed().as_micros().min(u64::MAX as u128) as u64);
                }
                self.records.push(record);
            }
            Answer::Refused(id) => {
                if self.pending.remove(&id).is_some() {
                    self.refused += 1;
                }
            }
        }
    }

    /// Blocks until every issued operation has completed or been refused,
    /// or `timeout` elapses.  Returns whether the cluster fully drained.
    pub fn await_quiescence(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.pump();
        self.absorb_until(deadline, |c| c.pending.is_empty())
            .is_ok()
    }

    /// The completion records received so far, in arrival order.
    pub fn records(&self) -> &[OpRecord<T>] {
        self.records.records()
    }

    /// Wall-clock issue→completion latencies of this client's operations
    /// completed so far, in completion order, microseconds.
    pub fn latencies_us(&self) -> &[u64] {
        &self.latencies_us
    }

    /// Runs the sharded sequential-consistency checker over the collected
    /// history.  Arrival order does not matter: the checker sorts by the
    /// records' total-order keys.
    ///
    /// Verification is only meaningful when this client observed *all*
    /// traffic since the cluster booted: a client that connects mid-stream
    /// can legitimately dequeue elements whose enqueues it never saw, which
    /// the checker reports as phantom elements.
    pub fn verify(&self) -> ConsistencyReport {
        check_queue_sharded(&self.records, &self.spec.shard_map())
    }

    /// Closes the inject connections and joins the completion pumps.  Call
    /// after the daemons have shut down (their side closes the stream).
    pub fn close(self) {
        drop(self.conns);
        drop(self.completions);
        for reader in self.readers {
            let _ = reader.join();
        }
    }
}
