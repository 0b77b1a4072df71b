//! Error type of the simulation substrate.

use crate::ids::NodeId;
use std::fmt;

/// Errors surfaced by [`crate::Simulation`] and its helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A message was addressed to a node id that was never registered.
    UnknownNode(NodeId),
    /// The configuration was rejected (e.g. an empty delay range).
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownNode(id) => write!(f, "unknown node {id}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(
            SimError::UnknownNode(NodeId(5)).to_string(),
            "unknown node n5"
        );
        assert!(SimError::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::UnknownNode(NodeId(1)));
        assert!(e.to_string().contains("n1"));
    }
}
