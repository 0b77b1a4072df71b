//! # skueue-dht — the consistent-hashing storage layer
//!
//! Section II-B of the Skueue paper: queue elements are stored in a
//! distributed hash table.  Every element is assigned a unique *position*
//! `p ∈ ℕ₀` by the protocol; the position is hashed to a key
//! `k(p) ∈ [0, 1)`; the virtual node responsible for the key interval
//! `[v, succ(v))` stores the element.  Two operations are needed:
//!
//! * `PUT(e, k)` — inserts element `e` under key `k`,
//! * `GET(k, v)` — removes the element under key `k` and delivers it to the
//!   requester `v`.  Because the model is fully asynchronous, a `GET` may
//!   arrive **before** its matching `PUT`; in that case it *parks* at the
//!   responsible node until the `PUT` arrives (guaranteed — no message loss).
//!
//! The stack variant (Section VI) additionally tags entries with a monotone
//! *ticket* so that a position that is reused after pop/push cycles stays
//! unambiguous: a `POP` assigned `(p, t)` removes the entry at position `p`
//! with the largest ticket `≤ t`.
//!
//! This crate holds the *per-node storage state machine* ([`NodeStore`]) and
//! the load-fairness accounting used to reproduce Corollary 19; routing of
//! PUT/GET messages is done by `skueue-core` over `skueue-overlay`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod element;
mod fairness;
mod store;

pub use element::{Element, Payload, StoredEntry};
pub use fairness::{load_stats, LoadStats};
pub use store::{GetOutcome, NodeStore, PendingGet, SatisfiedGet};
