//! Message envelopes.
//!
//! The simulation wraps every payload in an [`Envelope`] carrying the
//! sender, the destination, the round in which the message was sent and the
//! round in which it becomes deliverable (as decided by the configured
//! [`crate::DeliveryModel`]).

use crate::ids::NodeId;
use crate::Round;

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending node (the paper's remote action calls always know the caller).
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Round in which the message was handed to the simulation.
    pub sent_at: Round,
    /// First round in which the destination may process the message.
    pub deliver_at: Round,
    /// Monotone sequence number used only to break ties deterministically.
    pub seq: u64,
    /// The protocol payload ("name and parameters of the action to call").
    pub payload: M,
}
