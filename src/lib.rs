//! # skueue — a scalable, sequentially consistent distributed queue
//!
//! This is the facade crate of the Skueue reproduction (Feldmann, Scheideler,
//! Setzer: *"Skueue: A Scalable and Sequentially Consistent Distributed
//! Queue"*, IPDPS 2018).  It re-exports the whole workspace so downstream
//! code (and the examples and integration tests in this repository) can use a
//! single dependency.
//!
//! ## Quick tour
//!
//! Clusters are constructed with the fluent, validating builder; operations
//! return typed [`OpTicket`](prelude::OpTicket)s that resolve to structured
//! [`OpOutcome`](prelude::OpOutcome)s — no scanning of the raw execution
//! history required:
//!
//! ```
//! use skueue::prelude::*;
//!
//! // A distributed queue over 8 processes (24 virtual De Bruijn nodes).
//! let mut cluster = Skueue::builder().processes(8).seed(42).build()?;
//!
//! // Issue operations through per-process client handles; keep the tickets.
//! let put_a = cluster.client(ProcessId(0)).enqueue(7)?;
//! let put_b = cluster.client(ProcessId(3)).enqueue(8)?;
//! let get = cluster.client(ProcessId(5)).dequeue()?;
//!
//! // Drive the simulation until those tickets resolve, then read outcomes.
//! let outcomes = cluster.run_until_done(&[put_a, put_b, get], 500)?;
//! assert_eq!(outcomes[2].value(), Some(7), "FIFO: the dequeue returns 7");
//!
//! // The collected history proves the run was sequentially consistent.
//! check_queue(cluster.history()).assert_consistent();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The payload is a type parameter (default `u64`): any `Clone + Ord +
//! Hash + Debug + Default` type flows through the queue untouched, e.g. a
//! `String` job queue:
//!
//! ```
//! use skueue::prelude::*;
//!
//! let mut jobs = Skueue::<String>::builder().processes(4).seed(1).build()?;
//! let put = jobs.client(ProcessId(0)).enqueue("encode #1".to_string())?;
//! let got = jobs.client(ProcessId(2)).dequeue()?;
//! let outcomes = jobs.run_until_done(&[put, got], 500)?;
//! assert_eq!(outcomes[1].value().as_deref(), Some("encode #1"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every completion is also published on the cluster's event stream
//! ([`SkueueCluster::on_complete`](prelude::SkueueCluster::on_complete)), so
//! workloads, benches and the verifier all consume the same data:
//!
//! ```
//! use skueue::prelude::*;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let mut cluster = Skueue::builder().processes(4).seed(7).build()?;
//! let latencies: Rc<RefCell<Vec<u64>>> = Rc::default();
//! let sink = Rc::clone(&latencies);
//! cluster.on_complete(move |event| sink.borrow_mut().push(event.outcome.rounds()));
//! let ticket = cluster.client(ProcessId(1)).enqueue(1)?;
//! cluster.run_until_done(&[ticket], 500)?;
//! assert_eq!(latencies.borrow().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! * [`sim`] — deterministic synchronous/asynchronous message-passing
//!   simulator (the execution substrate),
//! * [`overlay`] — the Linearized De Bruijn network: labels, routing,
//!   aggregation tree,
//! * [`dht`] — the consistent-hashing storage layer,
//! * [`shard`] — anchor sharding: deterministic process→shard maps and the
//!   partition of the position keyspace,
//! * [`core`] — the Skueue protocol itself (queue + stack, join/leave,
//!   sharded anchors) and the builder/ticket/client API,
//! * [`verify`] — sequential-consistency checkers,
//! * [`trace`] — per-op lifecycle tracing: lane-local span recorders,
//!   stage-latency analysis, Chrome-trace export (see `OBSERVABILITY.md`),
//! * [`workloads`] — the paper's workload generators, scenarios and the
//!   central-server baseline,
//! * [`net`] — the real-clock side of the transport seam: TCP framing, the
//!   `skueue-node`/`skueue-ctl`/`skueue-ingress` service topology and the
//!   open-loop load generator (see `ARCHITECTURE.md` and `DEPLOY.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use skueue_core as core;
pub use skueue_dht as dht;
pub use skueue_net as net;
pub use skueue_overlay as overlay;
pub use skueue_shard as shard;
pub use skueue_sim as sim;
pub use skueue_trace as trace;
pub use skueue_verify as verify;
pub use skueue_workloads as workloads;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use skueue_core::{
        BuildError, ClientHandle, ClusterError, CompletionEvent, Mode, OpOutcome, OpStatus,
        OpTicket, ProtocolConfig, Skueue, SkueueBuilder, SkueueCluster,
    };
    pub use skueue_dht::{Element, Payload};
    pub use skueue_shard::{ShardId, ShardMap, ShardRouter};
    pub use skueue_sim::ids::{NodeId, ProcessId, RequestId};
    pub use skueue_sim::{DeliveryModel, SimConfig, SimRng};
    pub use skueue_trace::{TraceAnalysis, TraceLevel, TraceLog};
    pub use skueue_verify::{check_queue, check_queue_sharded, check_stack, History, OpKind};
    pub use skueue_workloads::{
        run_fixed_rate, run_fixed_rate_traced, run_per_node_rate, run_string_payload_fig2,
        ScenarioParams,
    };
}
