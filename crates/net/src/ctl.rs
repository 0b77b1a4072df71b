//! Control-plane client: drives joins, leaves, status polls and shutdown
//! against a running daemon set.  This is the body of the `skueue-ctl`
//! binary and the churn driver used by the conformance tests.

use std::io::{self, BufReader};
use std::marker::PhantomData;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use skueue_core::{ClusterError, Payload};
use skueue_overlay::{node_of, VirtualId};
use skueue_sim::ids::ProcessId;

use crate::codec::Wire;
use crate::frame::{read_frame, write_frame, NetFrame};
use crate::spec::ClusterSpec;
use crate::transport::dial;

/// A synchronous control connection to one daemon: write a frame, read the
/// reply.  Control traffic follows a strict request/reply discipline per
/// connection (completions stream only on *subscribed* connections, which
/// the ingress keeps separate), so blocking reads are safe here.
#[derive(Debug)]
pub(crate) struct Control<T> {
    pub(crate) stream: TcpStream,
    pub(crate) reader: BufReader<TcpStream>,
    _payload: PhantomData<T>,
}

impl<T: Payload + Wire> Control<T> {
    /// Connects to `addr`, retrying while the daemon starts up
    /// ([`dial`]).
    pub(crate) fn connect(addr: &str) -> io::Result<Self> {
        let stream = dial(addr)?;
        Ok(Control {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            _payload: PhantomData,
        })
    }

    /// Sends a frame without waiting for a reply (an `Inject`'s answer, a
    /// completion or a refusal, is read by the ingress's completion pump).
    pub(crate) fn send(&mut self, frame: &NetFrame<T>) -> io::Result<()> {
        write_frame(&mut self.stream, frame)
    }

    /// Sends a frame and blocks for the single reply frame.
    pub(crate) fn request(&mut self, frame: &NetFrame<T>) -> io::Result<NetFrame<T>> {
        write_frame(&mut self.stream, frame)?;
        read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }

    /// Expects an `Ok` reply to `frame`; surfaces `Err` replies as errors.
    pub(crate) fn expect_ok(&mut self, frame: &NetFrame<T>) -> io::Result<()> {
        match self.request(frame)? {
            NetFrame::Ok => Ok(()),
            NetFrame::Err(reason) => Err(io::Error::other(reason)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }
}

/// The status of one hosted process as reported by its daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessStatus {
    /// The process id.
    pub pid: ProcessId,
    /// True while the process may issue requests: its three nodes are
    /// integrated members and it has not asked to leave
    /// ([`skueue_core::membership::may_issue`]).
    pub integrated: bool,
    /// True once all three of the process's nodes have left.
    pub left: bool,
}

/// A control-plane client holding one connection per daemon.
#[derive(Debug)]
pub struct CtlClient<T> {
    spec: ClusterSpec,
    conns: Vec<Control<T>>,
}

impl<T: Payload + Wire> CtlClient<T> {
    /// Connects to every daemon in the spec.
    pub fn connect(spec: &ClusterSpec) -> io::Result<Self> {
        let conns = spec
            .daemons
            .iter()
            .map(|addr| Control::connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(CtlClient {
            spec: spec.clone(),
            conns,
        })
    }

    /// Polls every daemon and merges the per-process statuses, sorted by
    /// process id.
    pub fn status(&mut self) -> io::Result<Vec<ProcessStatus>> {
        let mut all = Vec::new();
        for conn in &mut self.conns {
            match conn.request(&NetFrame::Status)? {
                NetFrame::StatusReply { processes, .. } => {
                    all.extend(processes.into_iter().map(|(pid, integrated, left)| {
                        ProcessStatus {
                            pid: ProcessId(pid),
                            integrated,
                            left,
                        }
                    }));
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected status reply {other:?}"),
                    ))
                }
            }
        }
        all.sort_by_key(|s| s.pid.0);
        Ok(all)
    }

    /// Starts `count` joining processes with consecutive fresh process ids
    /// (after the highest currently hosted id) and returns the new ids.
    /// Each join is sent to the daemon that statically owns the new process
    /// and bootstraps, as the simulation cluster's `join(None)` does, via
    /// the lowest process of its shard that may issue.
    pub fn join_wave(&mut self, count: u64) -> io::Result<Vec<ProcessId>> {
        let statuses = self.status()?; // ascending by pid
        let next = statuses.last().map_or(self.spec.initial, |s| s.pid.0 + 1);
        let mut joined = Vec::with_capacity(count as usize);
        for pid in (next..next + count).map(ProcessId) {
            let shard = self.spec.shard_of(pid);
            let bootstrap = (statuses.iter())
                .find(|s| s.integrated && self.spec.shard_of(s.pid) == shard)
                .map(|s| node_of(VirtualId::middle(s.pid)))
                .ok_or_else(|| io::Error::other(ClusterError::ShardHasNoMembers { shard }))?;
            let daemon = self.spec.daemon_of(pid);
            self.conns[daemon].expect_ok(&NetFrame::Join { pid, bootstrap })?;
            joined.push(pid);
        }
        Ok(joined)
    }

    /// Asks one process to leave.  Its daemon refuses, with the simulation
    /// cluster's words, a process that may not issue (joining, leaving or
    /// left) and the process whose node holds its shard's anchor
    /// ([`skueue_core::membership::may_leave`]).
    pub fn leave(&mut self, pid: ProcessId) -> io::Result<()> {
        let daemon = self.spec.daemon_of(pid);
        self.conns[daemon].expect_ok(&NetFrame::Leave { pid })
    }

    /// Polls until `predicate` holds over the merged status, or the timeout
    /// elapses.  Returns whether the predicate was reached.
    pub(crate) fn wait_until(
        &mut self,
        timeout: Duration,
        mut predicate: impl FnMut(&[ProcessStatus]) -> bool,
    ) -> io::Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            let statuses = self.status()?;
            if predicate(&statuses) {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            thread::sleep(Duration::from_millis(25));
        }
    }

    /// Waits until every listed process reports as integrated.
    pub fn wait_integrated(&mut self, pids: &[ProcessId], timeout: Duration) -> io::Result<bool> {
        self.wait_until(timeout, |statuses| {
            pids.iter()
                .all(|pid| statuses.iter().any(|s| s.pid == *pid && s.integrated))
        })
    }

    /// Waits until every listed process reports as having left.
    pub fn wait_left(&mut self, pids: &[ProcessId], timeout: Duration) -> io::Result<bool> {
        self.wait_until(timeout, |statuses| {
            pids.iter()
                .all(|pid| statuses.iter().any(|s| s.pid == *pid && s.left))
        })
    }

    /// Shuts every daemon down (each replies `Ok` before exiting).
    pub fn shutdown(&mut self) -> io::Result<()> {
        for conn in &mut self.conns {
            conn.expect_ok(&NetFrame::Shutdown)?;
        }
        Ok(())
    }
}
