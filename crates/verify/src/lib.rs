//! # skueue-verify — sequential-consistency checking
//!
//! Theorem 14 of the Skueue paper states that the protocol implements a
//! *sequentially consistent* distributed queue (Definition 1), and Theorem 21
//! states the analogue for the stack variant.  This crate provides the
//! machinery the test-suite and the experiment harness use to check those
//! claims on every execution:
//!
//! * [`History`] records one [`OpRecord`] per completed request: its origin
//!   and per-process sequence number, its kind, its outcome, and the position
//!   `value(op)` in the total order `≺` that the protocol constructs
//!   (Section V).  The protocol *witnesses* its own ordering; the checker
//!   verifies that the witnessed ordering actually satisfies the definition.
//! * One checker checks every history: a history is `S` FIFO or LIFO
//!   lanes — one per anchor shard, keyed by the record's origin process, or
//!   a single lane — under the one witnessed order.  In one pass it checks
//!   well-formedness (unique ids and order values, shard tags), builds the
//!   matching, checks properties 1–3 of Definition 1 per lane, and
//!   performs the stronger *replay* check: executing each lane's requests in
//!   the witnessed order on a reference sequential queue or stack must
//!   reproduce every response (matched element or `⊥`) exactly.  The replay
//!   is the check the protocol is expected to pass (and implies Definition 1
//!   for well-formed histories); program order (property 4) is checked once
//!   on the whole order, so each violation is reported once.
//! * Three entry points name the three objects: [`check_queue`] (one FIFO
//!   lane), [`check_stack`] (one LIFO lane, the Section VI stack) and
//!   [`check_queue_sharded`] (a *sharded* deployment: one FIFO lane per
//!   anchor shard, merged on `(wave, shard, local)`; with one shard it is
//!   [`check_queue`]).
//!
//! All checkers return a [`ConsistencyReport`] listing every violation found
//! (not just the first), which makes protocol bugs much easier to localise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod history;
mod queue_check;
mod report;
mod sharded_check;
mod stack_check;

pub use history::{History, OpKind, OpRecord, OpResult, OrderKey};
pub use queue_check::check_queue;
pub use report::{ConsistencyReport, Violation};
pub use sharded_check::check_queue_sharded;
pub use stack_check::check_stack;

// Re-exported so checker users can name the payload bound without a direct
// skueue-dht dependency.
pub use skueue_dht::Payload;
