//! # skueue-core — the Skueue protocol
//!
//! This crate implements the paper's primary contribution: a distributed
//! FIFO queue (and LIFO stack) that is *sequentially consistent* and scales
//! by aggregating requests into batches over an implicit aggregation tree on
//! the Linearized De Bruijn overlay.
//!
//! The public entry point is [`SkueueCluster`] (aliased [`Skueue`]): build a
//! cluster with the validating [`SkueueBuilder`], issue operations through
//! per-process [`ClientHandle`]s, and resolve the returned [`OpTicket`]s to
//! structured [`OpOutcome`]s:
//!
//! ```
//! use skueue_core::Skueue;
//! use skueue_sim::ids::ProcessId;
//! use skueue_verify::check_queue;
//!
//! let mut cluster = Skueue::builder().processes(4).seed(42).build()?;
//! let put = cluster.client(ProcessId(0)).enqueue(7)?;
//! let got = cluster.client(ProcessId(2)).dequeue()?;
//! let outcomes = cluster.run_until_done(&[put, got], 500)?;
//! assert_eq!(outcomes[1].value(), Some(7));
//! check_queue(cluster.history()).assert_consistent();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every completion is also published as a [`CompletionEvent`] on the
//! cluster's event stream ([`SkueueCluster::on_complete`]); the execution
//! [`skueue_verify::History`] is built from that same stream, so workloads,
//! benches and the verifier all consume identical data.
//!
//! Internally the crate is organised along the paper's structure:
//!
//! | module | paper section | content |
//! |--------|---------------|---------|
//! | `batch` | Def. 5, §IV | run-length batches, combination, join/leave counters |
//! | `anchor` | §III-D (Stage 2), §VI | the anchor's `[first,last]` window, order counter, tickets |
//! | [`interval`] | §III-E (Stage 3) | decomposition of position intervals over sub-batches |
//! | `node` | §III (Stages 1–4), §VI | the per-virtual-node state machine |
//! | `join_leave` | §IV | lazy joins/leaves, update phase, anchor hand-off |
//! | [`membership`] | — | the starting overlay, a joiner's views and a process's membership reads, written once for every driver |
//! | [`builder`] | — | the validating [`SkueueBuilder`] |
//! | `ticket` | — | [`OpTicket`], [`OpOutcome`], the completion stream |
//! | `client` | — | per-process [`ClientHandle`]s |
//! | `cluster` | §VII | the driver API used by workloads, examples and tests |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchor;
mod batch;
pub mod builder;
mod client;
mod cluster;
mod config;
pub mod interval;
mod join_leave;
pub mod membership;
pub mod messages;
mod node;
mod ticket;

pub use anchor::{AnchorState, RunAssignment};
pub use batch::{Batch, BatchOp, FirstRun};
pub use builder::{BuildError, SkueueBuilder};
pub use client::ClientHandle;
pub use cluster::{ClusterError, Skueue, SkueueCluster};
pub use config::{Mode, ProtocolConfig};
pub use messages::{DhtOp, SkueueMsg};
pub use node::{series, SkueueNode};
pub use ticket::{CompletionEvent, OpOutcome, OpStatus, OpTicket};

// The payload bound every `Skueue<T>` instantiation needs; re-exported so
// downstream code can write `fn f<T: Payload>(q: &mut Skueue<T>)` without a
// direct skueue-dht dependency.
pub use skueue_dht::Payload;
// Re-exported so downstream crates can feed `SkueueCluster::shard_map` to
// `skueue_verify::check_queue_sharded` without a direct skueue-shard dep.
pub use skueue_shard::{ShardId, ShardMap, ShardRouter};
// Re-exported so `SkueueBuilder::trace(TraceLevel::…)` and the trace sinks
// are reachable without a direct skueue-trace dependency.
pub use skueue_trace::{StageStats, TraceAnalysis, TraceLevel, TraceLog};
