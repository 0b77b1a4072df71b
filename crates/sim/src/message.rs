//! Message envelopes.
//!
//! The simulation wraps every payload in an [`Envelope`] carrying the sender
//! and the destination.  When it is delivered is not in the envelope: it is
//! the bucket of the delivery ring the envelope sits in (see
//! [`crate::SimTransport`]).

use crate::ids::NodeId;

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending node (the paper's remote action calls always know the caller).
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The protocol payload ("name and parameters of the action to call").
    pub payload: M,
}
