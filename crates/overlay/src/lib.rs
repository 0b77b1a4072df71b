//! # skueue-overlay — the Linearized De Bruijn network (LDB)
//!
//! Section II of the Skueue paper defines the overlay on which everything
//! else runs:
//!
//! * every process `v` emulates **three virtual nodes** — a middle node
//!   `m(v)` whose label is a pseudorandom hash of `v.id` in `[0, 1)`, a left
//!   node `l(v)` with label `m(v)/2` and a right node `r(v)` with label
//!   `(m(v)+1)/2`;
//! * all virtual nodes are arranged on a **sorted cycle** by label (linear
//!   edges), and the three nodes of a process are mutually connected
//!   (virtual edges);
//! * routing a message to the predecessor of any point `p ∈ [0,1)` takes
//!   `O(log n)` rounds w.h.p. (Lemma 3) by combining De-Bruijn-style
//!   *distance-halving* hops over the virtual edges with short linear walks;
//! * the nodes implicitly form an **aggregation tree** rooted at the
//!   leftmost node (the *anchor*): every node's parent is its leftmost
//!   neighbour (Section III-B), and the tree has height `O(log n)` w.h.p.
//!   (Corollary 6).
//!
//! This crate implements the label arithmetic, the hash functions, the
//! static topology builder used to bootstrap simulations, the local
//! neighbourhood view maintained by protocol nodes, the routing rule, and
//! the aggregation-tree parent/children rules.  It contains **no protocol
//! state**; `skueue-core` layers batches, stages and join/leave on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregation;
mod hash;
mod label;
mod ldb;
mod routing;
mod vnode;

pub use aggregation::{aggregation_child_set, aggregation_parent, ChildSet};
pub use hash::LabelHasher;
pub use label::Label;
pub use ldb::{Topology, TopologyError};
pub use routing::{
    recommended_bit_budget, route_step, LocalView, NeighborInfo, RouteAction, RouteProgress,
};
pub use vnode::{node_of, vid_of, VKind, VirtualId};
