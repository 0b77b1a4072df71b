//! # skueue-net — real-clock TCP transport and service topology
//!
//! Everything else in this workspace runs the Skueue protocol inside the
//! deterministic simulation (`skueue-sim`).  This crate is the other side of
//! the [`skueue_sim::Transport`] seam: the same `SkueueNode` state machines,
//! built from the same membership construction
//! ([`skueue_core::membership`]) and visited by the same loop
//! ([`skueue_sim::Lane`]), hosted by daemons against real sockets and real
//! time — one thread per daemon runs all the nodes it hosts.
//!
//! The paper's correctness argument holds under full asynchrony — arbitrary
//! finite message delays, no FIFO assumption — so nothing about the protocol
//! changes here.  What changes is the *evidence*: a simulated run is verified
//! by byte-identical replay, a networked run is verified a posteriori by
//! collecting its completion history and passing it through the same
//! [`skueue_verify::check_queue_sharded`] checker.
//!
//! ## Pieces
//!
//! | module | role |
//! |---|---|
//! | [`codec`] | binary encoding of every protocol type, declared as one field list per type (nothing can be vendored: there is no registry, so three private macros stand in for a derive; a new message is one line) |
//! | [`frame`] | `u32`-length-prefixed framing and the [`frame::NetFrame`] daemon protocol |
//! | [`spec`] | the [`spec::ClusterSpec`] every binary agrees on, plus static placement rules, the flag readers and the binaries' one exit driver, [`spec::service_main`] |
//! | `transport` | `transport::TcpTransport`, the real-clock [`skueue_sim::Transport`]: the fabric of a daemon's lane — its local FIFO and its peer connections |
//! | [`daemon`] | the `skueue-node` daemon: a listener, one reader per connection, and the host thread that runs every hosted node in one [`skueue_sim::Lane`] — the simulator's visit loop |
//! | `ctl` | the control-plane client (join/leave waves, status, shutdown) |
//! | `ingress` | the client-operation ingress: issues ops, collects and verifies the history |
//! | `load` | open-loop Poisson load generation with latency percentiles |
//!
//! ## Service topology
//!
//! A deployment is `d` × `skueue-node` daemons (each hosting the processes
//! `pid ≡ index (mod d)`), one `skueue-ctl` driving churn, and one
//! `skueue-ingress`/`skueue-load` issuing operations.  All placement is
//! statically derivable from the [`spec::ClusterSpec`], so no coordination
//! service is needed: a joiner's node ids (`3·pid + kind`) and host daemon
//! follow from its process id alone.  See `DEPLOY.md` at the workspace root
//! for a copy-pasteable localhost walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod ctl;
pub mod daemon;
pub mod frame;
mod ingress;
mod load;
pub mod spec;
mod transport;

pub use codec::{DecodeError, Wire};
pub use ctl::{CtlClient, ProcessStatus};
pub use daemon::DaemonHandle;
pub use frame::NetFrame;
pub use ingress::{IngressClient, INGRESS_WINDOW_PER_DAEMON};
pub use load::{run_load, LoadParams, LoadReport};
pub use spec::ClusterSpec;
