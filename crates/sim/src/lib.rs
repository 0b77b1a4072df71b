//! # skueue-sim — message-passing simulation substrate
//!
//! The Skueue paper (Feldmann, Scheideler, Setzer — IPDPS 2018) evaluates its
//! protocol in the *synchronous message passing model*: time proceeds in
//! rounds, every message sent in round `i` is processed in round `i + 1`, and
//! every node executes its `TIMEOUT` action once per round.  Correctness,
//! however, is claimed for the *asynchronous* model with arbitrary finite
//! message delays and non-FIFO delivery.
//!
//! This crate provides both execution substrates:
//!
//! * [`Simulation`] with [`DeliveryModel::Synchronous`] reproduces the round
//!   model used for the paper's experiments (Figures 2–4): every round
//!   visits its nodes in index order,
//! * [`Simulation`] with [`DeliveryModel::UniformRandom`] or
//!   [`DeliveryModel::Adversarial`] provides asynchronous, non-FIFO delivery
//!   (driven by a seeded RNG) used by the test-suite to exercise the
//!   protocol's sequential-consistency guarantees under message reordering;
//!   every round visits its nodes in a seeded shuffled order too.
//!
//! The delivery model is the whole schedule: nothing else about a run's
//! order can be set ([`SimConfig`] is a seed and a model).
//!
//! The design is a classical discrete-event / discrete-round simulator:
//!
//! * every addressable entity is a *node* (in Skueue terms: a **virtual
//!   node** — each process of the paper emulates three of them),
//! * a node is any type implementing [`Actor`]; it reacts to delivered
//!   messages ([`Actor::on_message`]) and to the per-round timeout
//!   ([`Actor::on_timeout`]),
//! * nodes live in a [`Lane`] — the one visit loop of the workspace,
//!   generic over the message fabric ([`Transport`]) it runs on: the
//!   simulation runs one lane per anchor shard over [`SimTransport`], a
//!   `skueue-node` daemon (crate `skueue-net`) runs one over TCP,
//! * all side effects go through a [`Context`], which buffers outgoing
//!   messages so that a whole round is computed against a consistent
//!   snapshot, and takes what a node reports into its lane's three sinks
//!   — samples, `skueue-trace` events and records of finished work, which
//!   the host drains ([`Simulation::drain_reports`]) — so a node keeps no
//!   report of its own; a driver's local actions on a node run in the same
//!   context ([`Lane::act`], [`Simulation::act`]),
//! * the simulation is fully deterministic for a given seed and
//!   configuration, which the test-suite and the benchmark harness rely on.
//!
//! The crate deliberately knows nothing about Skueue itself; the overlay, the
//! DHT and the protocol are layered on top (see `skueue-overlay`,
//! `skueue-dht`, `skueue-core`).
//!
//! # One round loop
//!
//! A simulation's nodes are partitioned into **lanes** (one by default; the
//! Skueue cluster maps every anchor shard to its own lane).  Each lane owns
//! its nodes, its own delivery wheel — one ring of buckets, a bucket per
//! future round, each in send order — and an independent RNG stream, and a
//! lane is closed: an actor sends only to nodes of its own lane.  So a round
//! is a fork-join over lanes that share nothing, recombined in fixed lane
//! order.  [`Simulation::enable_parallel`] sets how many threads the fork
//! uses — lane `l` runs in group `l % T`, group 0 on the calling thread and
//! every other group on a thread of a `std::thread::scope` — and every
//! thread count produces byte-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
mod config;
pub mod delivery;
mod error;
pub mod ids;
mod message;
pub mod metrics;
pub mod replay;
mod rng;
mod scheduler;
mod slot_index;
mod transport;

pub use actor::{Actor, Context};
pub use config::SimConfig;
pub use delivery::DeliveryModel;
pub use error::SimError;
pub use ids::{NodeId, ProcessId, RequestId};
pub use message::Envelope;
pub use metrics::{Histogram, SimMetrics};
pub use replay::{ReplayScenario, ReplayStep};
pub use rng::SimRng;
pub use scheduler::{Lane, Simulation};
pub use transport::{SimTransport, Transport};

/// A simulated round (discrete time step of the synchronous model).
pub(crate) type Round = u64;
