//! Identifier newtypes used throughout the workspace.
//!
//! Keeping these in the simulation substrate avoids circular dependencies:
//! every higher layer (overlay, DHT, protocol, workloads) talks about the
//! same [`NodeId`] / [`ProcessId`] / [`RequestId`] types.

use std::fmt;

/// Identifier of a simulated node.
///
/// In Skueue terms a *node* is a **virtual node** of the linearized De Bruijn
/// network — every process emulates three of them (left, middle, right).
/// `NodeId`s are dense indices handed out by the simulation in insertion
/// order, which makes them usable as `Vec` indices in hot paths.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Returns the raw index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

/// Identifier of a *process* — the unit that joins or leaves the system and
/// emulates three virtual nodes.
///
/// The paper identifies processes by a unique `v.id ∈ ℕ`; the label of the
/// middle virtual node is a pseudorandom hash of this identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u64);

impl ProcessId {
    /// Returns the raw identifier.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u64> for ProcessId {
    fn from(v: u64) -> Self {
        ProcessId(v)
    }
}

/// Globally unique identifier of a single queue/stack request.
///
/// The paper assumes w.l.o.g. that every element is enqueued at most once
/// ("make the calling process and the current count of requests performed a
/// part of e"); `RequestId` is exactly that pair.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The process that issued the request.
    pub origin: ProcessId,
    /// Per-origin sequence number (the `i` in `OP_{v,i}`).
    pub seq: u64,
}

impl RequestId {
    /// Creates a request id for the `seq`-th request of `origin`.
    pub fn new(origin: ProcessId, seq: u64) -> Self {
        RequestId { origin, seq }
    }
}

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_roundtrip_and_ordering() {
        let a = NodeId(3);
        let b = NodeId::from(7);
        assert!(a < b);
        assert_eq!(a.index(), 3);
        assert_eq!(format!("{a}"), "n3");
        assert_eq!(format!("{a:?}"), "n3");
    }

    #[test]
    fn process_id_display() {
        let p = ProcessId(42);
        assert_eq!(p.raw(), 42);
        assert_eq!(format!("{p}"), "p42");
    }

    #[test]
    fn request_ids_are_unique_per_origin_sequence() {
        let mut seen = HashSet::new();
        for origin in 0..10u64 {
            for seq in 0..10u64 {
                assert!(seen.insert(RequestId::new(ProcessId(origin), seq)));
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn request_id_ordering_is_origin_then_seq() {
        let a = RequestId::new(ProcessId(1), 5);
        let b = RequestId::new(ProcessId(2), 0);
        let c = RequestId::new(ProcessId(1), 6);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn display_formats() {
        let r = RequestId::new(ProcessId(2), 9);
        assert_eq!(format!("{r}"), "p2#9");
    }
}
