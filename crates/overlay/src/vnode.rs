//! Virtual node identities.
//!
//! Definition 2 of the paper: each process `v` emulates three virtual nodes —
//! left `l(v)`, middle `m(v)` and right `r(v)`.  [`VirtualId`] names one of
//! them; the label is derived from the process's middle label via
//! [`VKind::label_from_middle`], and the simulator address from the dense id
//! rule ([`node_of`], inverted by [`vid_of`]).

use crate::label::Label;
use skueue_sim::ids::{NodeId, ProcessId};
use std::fmt;

/// Dense virtual-node ids: process `p` emulates nodes `3p`, `3p + 1`,
/// `3p + 2` in [`VKind`] order (Left, Middle, Right), independent of
/// sharding and of who hosts the process — so node ids, and with them
/// histories and traces, mean the same under every transport.
#[inline]
pub fn node_of(vid: VirtualId) -> NodeId {
    NodeId(vid.process.raw() * 3 + vid.kind.index() as u64)
}

/// The virtual node addressed `id` (inverse of [`node_of`]).
#[inline]
pub fn vid_of(id: NodeId) -> VirtualId {
    VirtualId::new(ProcessId(id.0 / 3), VKind::from_index((id.0 % 3) as usize))
}

/// Which of a process's three virtual nodes this is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VKind {
    /// `l(v)`, label `m(v)/2`, always in `[0, 1/2)`.
    Left,
    /// `m(v)`, label `hash(v.id)`, anywhere in `[0, 1)`.
    Middle,
    /// `r(v)`, label `(m(v)+1)/2`, always in `[1/2, 1)`.
    Right,
}

impl VKind {
    /// All three kinds, in the fixed order `[Left, Middle, Right]` used when
    /// registering a process's virtual nodes with the simulator.
    pub const ALL: [VKind; 3] = [VKind::Left, VKind::Middle, VKind::Right];

    /// Computes the label of this kind of virtual node from the process's
    /// middle label.
    #[inline]
    pub fn label_from_middle(self, middle: Label) -> Label {
        match self {
            VKind::Left => middle.half(),
            VKind::Middle => middle,
            VKind::Right => middle.half_plus(),
        }
    }

    /// Index `0..3` used for dense per-process arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            VKind::Left => 0,
            VKind::Middle => 1,
            VKind::Right => 2,
        }
    }

    /// Inverse of [`Self::index`].
    #[inline]
    pub fn from_index(i: usize) -> VKind {
        match i {
            0 => VKind::Left,
            1 => VKind::Middle,
            2 => VKind::Right,
            _ => panic!("virtual-node kind index {i} out of range"),
        }
    }
}

impl fmt::Debug for VKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VKind::Left => write!(f, "L"),
            VKind::Middle => write!(f, "M"),
            VKind::Right => write!(f, "R"),
        }
    }
}

/// Identity of one virtual node: which process emulates it, and which of the
/// three roles it plays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualId {
    /// The emulating process.
    pub process: ProcessId,
    /// The role within the process.
    pub kind: VKind,
}

impl VirtualId {
    /// Creates a virtual id.
    pub fn new(process: ProcessId, kind: VKind) -> Self {
        VirtualId { process, kind }
    }

    /// The left virtual node of a process.
    pub fn left(process: ProcessId) -> Self {
        VirtualId::new(process, VKind::Left)
    }

    /// The middle virtual node of a process.
    pub fn middle(process: ProcessId) -> Self {
        VirtualId::new(process, VKind::Middle)
    }

    /// The sibling virtual node of the same process with the given kind.
    #[cfg(test)]
    pub(crate) fn sibling(&self, kind: VKind) -> VirtualId {
        VirtualId::new(self.process, kind)
    }
}

impl fmt::Debug for VirtualId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{:?}", self.kind, self.process)
    }
}

impl fmt::Display for VirtualId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::LabelHasher;

    #[test]
    fn ids_are_dense_and_invertible() {
        let vid = VirtualId::new(ProcessId(4), VKind::Right);
        assert_eq!(node_of(vid), NodeId(14));
        assert_eq!(vid_of(NodeId(14)), vid);
        for raw in 0..30 {
            assert_eq!(node_of(vid_of(NodeId(raw))), NodeId(raw));
        }
    }

    #[test]
    fn kind_index_roundtrip() {
        for kind in VKind::ALL {
            assert_eq!(VKind::from_index(kind.index()), kind);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kind_from_bad_index_panics() {
        let _ = VKind::from_index(3);
    }

    #[test]
    fn labels_from_middle_match_paper() {
        let m = Label::from_f64(0.6);
        assert!((VKind::Left.label_from_middle(m).to_f64() - 0.3).abs() < 1e-9);
        assert!((VKind::Middle.label_from_middle(m).to_f64() - 0.6).abs() < 1e-9);
        assert!((VKind::Right.label_from_middle(m).to_f64() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn left_label_below_half_right_above() {
        let hasher = LabelHasher::default();
        for pid in 0..200u64 {
            let middle = hasher.process_label(ProcessId(pid));
            assert!(VKind::Left.label_from_middle(middle).is_left_half());
            assert!(!VKind::Right.label_from_middle(middle).is_left_half());
        }
    }

    #[test]
    fn siblings_share_process() {
        let v = VirtualId::middle(ProcessId(9));
        assert_eq!(v.sibling(VKind::Left), VirtualId::left(ProcessId(9)));
        assert_eq!(v.sibling(VKind::Right).process, ProcessId(9));
    }

    #[test]
    fn display_and_debug() {
        let v = VirtualId::new(ProcessId(3), VKind::Right);
        assert_eq!(format!("{v}"), "Rp3");
        assert_eq!(format!("{v:?}"), "Rp3");
        assert_eq!(format!("{:?}", VKind::Left), "L");
    }

    #[test]
    fn ordering_groups_by_process_then_kind() {
        let a = VirtualId::left(ProcessId(1));
        let b = VirtualId::new(ProcessId(1), VKind::Right);
        let c = VirtualId::left(ProcessId(2));
        assert!(a < b && b < c);
    }
}
