//! Per-process client handles.
//!
//! A [`ClientHandle`] scopes request issuing to one process, the way an
//! application-side connection object would.  Workloads, benches and the
//! examples all drive the cluster through handles:
//!
//! ```
//! use skueue_core::SkueueCluster;
//! use skueue_sim::ids::ProcessId;
//!
//! let mut cluster = SkueueCluster::builder().processes(4).seed(1).build()?;
//! let ticket = cluster.client(ProcessId(2)).enqueue(7)?;
//! cluster.run_until_done(&[ticket], 500)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batch::BatchOp;
use crate::cluster::{ClusterError, SkueueCluster};
use crate::config::Mode;
use crate::ticket::OpTicket;
use skueue_dht::Payload;
use skueue_sim::ids::ProcessId;

/// A request-issuing handle bound to one process of a [`SkueueCluster`].
///
/// Handles are cheap, short-lived borrows: obtain one with
/// [`SkueueCluster::client`], issue one or more operations, then drive the
/// cluster.  Issuing through a handle enforces the same rules as the cluster
/// methods (the process must exist and be an integrated member, and the
/// operation must match the cluster's [`crate::Mode`]).
pub struct ClientHandle<'c, T: Payload = u64> {
    cluster: &'c mut SkueueCluster<T>,
    process: ProcessId,
}

impl<'c, T: Payload> ClientHandle<'c, T> {
    pub(crate) fn new(cluster: &'c mut SkueueCluster<T>, process: ProcessId) -> Self {
        ClientHandle { cluster, process }
    }

    /// True while the process may issue requests — the exact condition the
    /// issuing methods check, so a `true` here means the next issue will not
    /// fail with `UnknownProcess`/`ProcessNotActive`.  Turns `false` the
    /// moment a `leave()` is requested for the process.
    pub fn is_active(&self) -> bool {
        self.cluster.process_may_issue(self.process)
    }

    /// Issues an `ENQUEUE(value)` (queue mode).
    pub fn enqueue(&mut self, value: T) -> Result<OpTicket, ClusterError> {
        self.cluster
            .issue(self.process, Some(Mode::Queue), BatchOp::Enqueue, value)
    }

    /// Issues a `DEQUEUE()` (queue mode).
    pub fn dequeue(&mut self) -> Result<OpTicket, ClusterError> {
        let value = T::default();
        self.cluster
            .issue(self.process, Some(Mode::Queue), BatchOp::Dequeue, value)
    }

    /// Issues a `PUSH(value)` (stack mode).
    pub fn push(&mut self, value: T) -> Result<OpTicket, ClusterError> {
        self.cluster
            .issue(self.process, Some(Mode::Stack), BatchOp::Enqueue, value)
    }

    /// Issues a `POP()` (stack mode).
    pub fn pop(&mut self) -> Result<OpTicket, ClusterError> {
        let value = T::default();
        self.cluster
            .issue(self.process, Some(Mode::Stack), BatchOp::Dequeue, value)
    }

    /// Issues an insert or remove without caring about queue/stack naming
    /// (what the workload generators use).
    pub fn issue(&mut self, is_insert: bool, value: T) -> Result<OpTicket, ClusterError> {
        let kind = if is_insert {
            BatchOp::Enqueue
        } else {
            BatchOp::Dequeue
        };
        self.cluster.issue(self.process, None, kind, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::OpOutcome;

    #[test]
    fn handle_issues_and_reports_activity() {
        let mut cluster = SkueueCluster::builder()
            .processes(3)
            .seed(5)
            .build()
            .unwrap();
        let mut client = cluster.client(ProcessId(1));
        assert!(client.is_active());
        let put = client.enqueue(10).unwrap();
        let got = client.dequeue().unwrap();
        assert_eq!(put.origin(), ProcessId(1));
        let outcomes = cluster.run_until_done(&[put, got], 500).unwrap();
        assert!(matches!(outcomes[0], OpOutcome::Enqueued { .. }));
        assert_eq!(outcomes[1].value(), Some(10));
    }

    #[test]
    fn handle_enforces_mode() {
        let mut cluster = SkueueCluster::builder()
            .processes(2)
            .stack()
            .seed(5)
            .build()
            .unwrap();
        let mut client = cluster.client(ProcessId(0));
        assert!(client.push(1).is_ok());
        assert!(matches!(
            client.enqueue(1),
            Err(ClusterError::WrongMode {
                required: Mode::Queue,
                actual: Mode::Stack
            })
        ));
    }

    #[test]
    fn handle_turns_inactive_the_moment_leave_is_requested() {
        let mut cluster = SkueueCluster::builder()
            .processes(4)
            .seed(3)
            .build()
            .unwrap();
        cluster.run_rounds(2);
        let leaver = (0..4u64)
            .map(ProcessId)
            .find(|&p| cluster.leave(p).is_ok())
            .expect("some non-anchor process can leave");
        let mut client = cluster.client(leaver);
        assert!(!client.is_active(), "leave() requested => may not issue");
        assert!(matches!(
            client.enqueue(1),
            Err(ClusterError::ProcessNotActive(_))
        ));
    }

    #[test]
    fn handle_for_unknown_process_errors_on_issue() {
        let mut cluster = SkueueCluster::builder()
            .processes(2)
            .seed(5)
            .build()
            .unwrap();
        let mut client = cluster.client(ProcessId(77));
        assert!(!client.is_active());
        assert!(matches!(
            client.enqueue(1),
            Err(ClusterError::UnknownProcess(_))
        ));
    }
}
