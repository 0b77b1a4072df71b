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
    /// Message delivery model.  It decides the whole schedule: under
    /// [`DeliveryModel::Synchronous`] every turn visits its nodes in index
    /// order; under every other model each turn's visits run in an order
    /// shuffled from `seed`, so the asynchronous runs also catch accidental
    /// dependencies on the order within a round.
    pub delivery: DeliveryModel,
}

impl SimConfig {
    /// Synchronous configuration with the given seed — the setting used for
    /// all paper experiments.
    pub fn synchronous(seed: u64) -> Self {
        SimConfig {
            seed,
            delivery: DeliveryModel::Synchronous,
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
        assert!(c.validate().is_ok());
    }

    /// A uniform model without a delay (0) or with one the delivery ring
    /// refuses (above 1024) is an invalid config.
    #[test]
    fn invalid_delivery_is_rejected() {
        let mut c = SimConfig::synchronous(1);
        for max_delay in [0, 1025] {
            c.delivery = DeliveryModel::UniformRandom { max_delay };
            assert!(
                matches!(c.validate(), Err(SimError::InvalidConfig(_))),
                "max_delay {max_delay}"
            );
        }
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
