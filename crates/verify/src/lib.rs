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
//! * [`check_queue`] checks the four properties of Definition 1 literally,
//!   and performs the stronger *replay* check: executing the requests in the
//!   witnessed order on a reference sequential queue must reproduce every
//!   response (matched element or `⊥`) exactly.  The replay is the check the
//!   protocol is expected to pass (and implies Definition 1 for well-formed
//!   histories).  Both read one preparation of the history (well-formedness,
//!   the matching) and program order is checked once, so each violation is
//!   reported once.
//! * [`check_stack`] is the LIFO counterpart used for the Section VI stack.
//! * [`check_queue_sharded`] checks a *sharded* deployment (`shards > 1`):
//!   Definition 1 plus the replay oracle on every anchor shard's lane, shard
//!   discipline of the witnessed keys, and program order on the merged
//!   `(wave, shard, local)` order.
//!
//! All checkers return a [`ConsistencyReport`] listing every violation found
//! (not just the first), which makes protocol bugs much easier to localise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod history;
mod queue_check;
mod report;
mod sharded_check;
mod stack_check;

pub use history::{History, OpKind, OpRecord, OpResult, OrderKey};
pub use queue_check::{check_queue, check_queue_records};
pub use report::{ConsistencyReport, Violation};
pub use sharded_check::check_queue_sharded;
pub use stack_check::check_stack;

// Re-exported so checker users can name the payload bound without a direct
// skueue-dht dependency.
pub use skueue_dht::Payload;
