//! Aggregation-tree parent/children rules (Section III-B).
//!
//! All virtual nodes of the LDB implicitly form an *aggregation tree* rooted
//! at the leftmost node (the **anchor**).  The parent of a node is always its
//! leftmost neighbour:
//!
//! * the parent of a middle node `m(v)` is the process's own left node `l(v)`,
//! * the parent of a left node `l(v)` is its predecessor on the cycle,
//! * the parent of a right node `r(v)` is the process's own middle node `m(v)`.
//!
//! Children mirror this:
//!
//! * a middle node's children are its own right node, plus its successor if
//!   that successor is a left node,
//! * a left node's children are its own middle node, plus its successor if
//!   that successor is a left node,
//! * a right node has no children.
//!
//! The anchor has no parent, and — because the successor relation wraps
//! around the cycle — the node with the *maximum* label must not claim the
//! anchor as a child.  Both rules are encoded here so the static topology
//! builder and the dynamic protocol derive the tree from exactly the same
//! logic (the paper stresses that nodes find their tree connections "by
//! relying on local information only").

use crate::vnode::VKind;

/// Resolves the aggregation-tree parent to a concrete handle: none for the
/// anchor, else the process's own left node for a middle node, the cycle
/// predecessor for a left node and the process's own middle node for a right
/// node.
///
/// `is_anchor` must be true exactly for the node with the globally smallest
/// label; the caller supplies handles for the three candidates.
pub fn aggregation_parent<T>(
    kind: VKind,
    is_anchor: bool,
    own_left: T,
    own_middle: T,
    predecessor: T,
) -> Option<T> {
    match (kind, is_anchor) {
        (_, true) => None,
        (VKind::Middle, false) => Some(own_left),
        (VKind::Left, false) => Some(predecessor),
        (VKind::Right, false) => Some(own_middle),
    }
}

/// Whether a node should treat its cycle successor as an aggregation-tree
/// child.
///
/// That is the case exactly when the successor is a *left* virtual node and
/// the successor edge does not wrap around the cycle (the wrap successor is
/// the anchor, which is nobody's child).
pub(crate) fn successor_is_child(
    own_kind: VKind,
    successor_kind: VKind,
    successor_wraps: bool,
) -> bool {
    if successor_wraps {
        return false;
    }
    match own_kind {
        VKind::Middle | VKind::Left => successor_kind == VKind::Left,
        // "A right virtual node cannot have a left virtual node as a right
        // neighbor" — and it has no children regardless.
        VKind::Right => false,
    }
}

/// A node's aggregation-tree children — at most two, stored inline.
///
/// This is the allocation-free counterpart of `aggregation_children`: the
/// protocol recomputes its children on every `TIMEOUT`, so the hot path must
/// not heap-allocate a `Vec` per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChildSet<T> {
    items: [Option<T>; 2],
}

impl<T> ChildSet<T> {
    /// The empty child set.
    pub fn new() -> Self {
        ChildSet {
            items: [None, None],
        }
    }

    /// Adds a child.  Panics if both slots are taken — the tree rules bound
    /// the fan-in at two.
    pub fn push(&mut self, item: T) {
        for slot in &mut self.items {
            if slot.is_none() {
                *slot = Some(item);
                return;
            }
        }
        panic!("an aggregation-tree node has at most two children");
    }

    /// Iterates over the children in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter().flatten()
    }

    /// Copies the children into a `Vec` (for callers that need ownership).
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.iter().cloned().collect()
    }
}

impl<T> IntoIterator for ChildSet<T> {
    type Item = T;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<T>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().flatten()
    }
}

/// Resolves the aggregation-tree children to concrete handles, without
/// heap allocation.
///
/// * `own_right` / `own_middle`: the process's own right and middle nodes,
/// * `successor`: the cycle successor,
/// * `successor_kind`: the successor's virtual-node kind,
/// * `successor_wraps`: true if the successor edge wraps around (i.e. this
///   node has the maximum label).
pub fn aggregation_child_set<T>(
    kind: VKind,
    own_right: T,
    own_middle: T,
    successor: T,
    successor_kind: VKind,
    successor_wraps: bool,
) -> ChildSet<T> {
    let mut children = ChildSet::new();
    match kind {
        VKind::Middle => children.push(own_right),
        VKind::Left => children.push(own_middle),
        VKind::Right => {}
    }
    if successor_is_child(kind, successor_kind, successor_wraps) {
        children.push(successor);
    }
    children
}

/// Resolves the aggregation-tree children into a `Vec` (see
/// [`aggregation_child_set`] for the allocation-free variant the protocol's
/// hot path uses).
#[cfg(test)]
pub(crate) fn aggregation_children<T: Clone>(
    kind: VKind,
    own_right: T,
    own_middle: T,
    successor: T,
    successor_kind: VKind,
    successor_wraps: bool,
) -> Vec<T> {
    aggregation_child_set(
        kind,
        own_right,
        own_middle,
        successor,
        successor_kind,
        successor_wraps,
    )
    .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_has_no_parent() {
        assert_eq!(
            aggregation_parent(VKind::Left, true, "l", "m", "pred"),
            None
        );
    }

    #[test]
    fn parent_resolution_selects_correct_handle() {
        assert_eq!(
            aggregation_parent(VKind::Middle, false, "l", "m", "pred"),
            Some("l")
        );
        assert_eq!(
            aggregation_parent(VKind::Left, false, "l", "m", "pred"),
            Some("pred")
        );
        assert_eq!(
            aggregation_parent(VKind::Right, false, "l", "m", "pred"),
            Some("m")
        );
    }

    #[test]
    fn middle_children_include_own_right_and_left_successor() {
        let children = aggregation_children(VKind::Middle, "r", "m", "succ", VKind::Left, false);
        assert_eq!(children, vec!["r", "succ"]);
        let children = aggregation_children(VKind::Middle, "r", "m", "succ", VKind::Middle, false);
        assert_eq!(children, vec!["r"]);
    }

    #[test]
    fn left_children_include_own_middle_and_left_successor() {
        let children = aggregation_children(VKind::Left, "r", "m", "succ", VKind::Left, false);
        assert_eq!(children, vec!["m", "succ"]);
        let children = aggregation_children(VKind::Left, "r", "m", "succ", VKind::Right, false);
        assert_eq!(children, vec!["m"]);
    }

    #[test]
    fn right_nodes_have_no_children() {
        let children = aggregation_children(VKind::Right, "r", "m", "succ", VKind::Left, false);
        assert!(children.is_empty());
    }

    #[test]
    fn child_set_matches_vec_variant() {
        for kind in [VKind::Left, VKind::Middle, VKind::Right] {
            for succ_kind in [VKind::Left, VKind::Middle, VKind::Right] {
                for wraps in [false, true] {
                    let set = aggregation_child_set(kind, "r", "m", "succ", succ_kind, wraps);
                    let vec = aggregation_children(kind, "r", "m", "succ", succ_kind, wraps);
                    assert_eq!(set.to_vec(), vec, "{kind:?}/{succ_kind:?}/wraps={wraps}");
                }
            }
        }
    }

    #[test]
    fn child_set_push_and_iterate() {
        let mut set: ChildSet<u32> = ChildSet::new();
        assert_eq!(set.iter().count(), 0);
        set.push(7);
        set.push(9);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![&7, &9]);
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![7, 9]);
    }

    #[test]
    #[should_panic(expected = "at most two children")]
    fn child_set_rejects_a_third_child() {
        let mut set: ChildSet<u32> = ChildSet::new();
        set.push(1);
        set.push(2);
        set.push(3);
    }

    #[test]
    fn wrap_successor_is_never_a_child() {
        assert!(!successor_is_child(VKind::Middle, VKind::Left, true));
        assert!(!successor_is_child(VKind::Left, VKind::Left, true));
        assert!(successor_is_child(VKind::Left, VKind::Left, false));
        assert!(!successor_is_child(VKind::Left, VKind::Middle, false));
        assert!(!successor_is_child(VKind::Right, VKind::Left, false));
    }
}
