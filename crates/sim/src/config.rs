//! Simulation configuration.

use crate::delivery::DeliveryModel;
use crate::error::SimError;

/// Configuration of a [`crate::Simulation`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for all simulation-level randomness (message delays, tie
    /// breaking). Protocol-level randomness should use forked streams so the
    /// same seed reproduces the same run end-to-end.
    pub seed: u64,
    /// Message delivery model.
    pub delivery: DeliveryModel,
    /// If true, the per-round iteration order over nodes is shuffled each
    /// round (still deterministically from `seed`). The synchronous model of
    /// the paper does not care about intra-round order, but shuffling helps
    /// tests catch accidental order dependencies.
    pub shuffle_node_order: bool,
}

impl SimConfig {
    /// Synchronous configuration with the given seed — the setting used for
    /// all paper experiments.
    pub fn synchronous(seed: u64) -> Self {
        SimConfig {
            seed,
            delivery: DeliveryModel::Synchronous,
            shuffle_node_order: false,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SimError> {
        self.delivery.validate().map_err(SimError::InvalidConfig)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::synchronous(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_defaults() {
        let c = SimConfig::synchronous(7);
        assert_eq!(c.seed, 7);
        assert!(c.delivery.is_synchronous());
        assert!(!c.shuffle_node_order);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_delivery_is_rejected() {
        let mut c = SimConfig::synchronous(1);
        c.delivery = DeliveryModel::UniformRandom {
            min_delay: 5,
            max_delay: 1,
        };
        assert!(matches!(c.validate(), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn a_delay_above_the_limit_is_an_invalid_config() {
        let mut c = SimConfig::synchronous(1);
        c.delivery = DeliveryModel::uniform(1 << 40);
        assert!(matches!(c.validate(), Err(SimError::InvalidConfig(_))));
        c.delivery = DeliveryModel::uniform(25);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn clone_preserves_fields() {
        let c = SimConfig::synchronous(3);
        let d = c.clone();
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
        assert_eq!(d.seed, 3);
    }
}
