//! Message delivery models.
//!
//! The Skueue paper proves correctness in the fully asynchronous model
//! (arbitrary finite delays, non-FIFO channels, no loss, no duplication) and
//! evaluates performance in the synchronous round model.  [`DeliveryModel`]
//! captures both, plus an adversarial heavy-tail variant used by the
//! failure-injection tests.

use crate::rng::SimRng;
use crate::Round;

/// The largest delay a model may be configured with.  The delivery ring
/// (see [`crate::SimTransport`]) is as long as the largest delay drawn, so
/// without a bound a mistyped delay sizes a buffer instead of slowing a run.
const MAX_DELAY: Round = 1024;

/// How message delays are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DeliveryModel {
    /// The synchronous model of the paper's evaluation: every message sent in
    /// round `i` is delivered in round `i + 1`.
    #[default]
    Synchronous,
    /// Asynchronous delivery: every message independently receives a uniform
    /// delay in `[1, max_delay]` rounds.  Because later messages may draw
    /// smaller delays, channels are effectively non-FIFO.
    UniformRandom {
        /// Maximum delay in rounds (at least 1, at most 1024).
        max_delay: Round,
    },
    /// Asynchronous delivery with a heavy tail: with probability
    /// `straggle_prob` the message is delayed by `straggle_delay` rounds,
    /// otherwise by 1 round.  This exercises extreme reordering (e.g. a GET
    /// overtaking its PUT by a long way) while keeping the common case fast.
    Adversarial {
        /// Probability of a message being a straggler, in `[0, 1]`.
        straggle_prob: f64,
        /// Delay applied to stragglers (at least 1, at most 1024).
        straggle_delay: Round,
    },
}

impl DeliveryModel {
    /// Uniform asynchronous delivery with delays in `[1, max_delay]`; like
    /// the struct literal, a `max_delay` of 0 is refused when a run is
    /// built.
    pub fn uniform(max_delay: Round) -> Self {
        DeliveryModel::UniformRandom { max_delay }
    }

    /// Validates the parameters of the model.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            DeliveryModel::Synchronous => Ok(()),
            DeliveryModel::UniformRandom { max_delay } => {
                if max_delay == 0 {
                    Err("max_delay must be at least 1".into())
                } else if max_delay > MAX_DELAY {
                    Err(format!("max_delay {max_delay} above the limit {MAX_DELAY}"))
                } else {
                    Ok(())
                }
            }
            DeliveryModel::Adversarial {
                straggle_prob,
                straggle_delay,
            } => {
                if !(0.0..=1.0).contains(&straggle_prob) {
                    Err(format!("straggle_prob {straggle_prob} not in [0, 1]"))
                } else if straggle_delay == 0 {
                    Err("straggle_delay must be at least 1".into())
                } else if straggle_delay > MAX_DELAY {
                    Err(format!(
                        "straggle_delay {straggle_delay} above the limit {MAX_DELAY}"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// True for the synchronous round model.
    pub fn is_synchronous(&self) -> bool {
        matches!(self, DeliveryModel::Synchronous)
    }

    /// Draws the delay (in rounds) for one message.
    pub(crate) fn draw_delay(&self, rng: &mut SimRng) -> Round {
        match *self {
            DeliveryModel::Synchronous => 1,
            DeliveryModel::UniformRandom { max_delay } => rng.gen_range_inclusive(1, max_delay),
            DeliveryModel::Adversarial {
                straggle_prob,
                straggle_delay,
            } => {
                if rng.gen_bool(straggle_prob) {
                    straggle_delay
                } else {
                    1
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_always_one_round() {
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(DeliveryModel::Synchronous.draw_delay(&mut rng), 1);
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = SimRng::new(2);
        let model = DeliveryModel::UniformRandom { max_delay: 6 };
        for _ in 0..1000 {
            let d = model.draw_delay(&mut rng);
            assert!((1..=6).contains(&d));
        }
    }

    #[test]
    fn adversarial_mixes_delays() {
        let mut rng = SimRng::new(3);
        let model = DeliveryModel::Adversarial {
            straggle_prob: 0.3,
            straggle_delay: 50,
        };
        let mut slow = 0;
        let mut fast = 0;
        for _ in 0..1000 {
            match model.draw_delay(&mut rng) {
                1 => fast += 1,
                50 => slow += 1,
                other => panic!("unexpected delay {other}"),
            }
        }
        assert!(slow > 200 && slow < 400, "slow={slow}");
        assert!(fast > 600, "fast={fast}");
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(DeliveryModel::Synchronous.validate().is_ok());
        let err = DeliveryModel::UniformRandom { max_delay: 0 }
            .validate()
            .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = DeliveryModel::UniformRandom { max_delay: 1025 }
            .validate()
            .unwrap_err();
        assert!(err.contains("above the limit"), "{err}");
        assert!(DeliveryModel::UniformRandom { max_delay: 1 }
            .validate()
            .is_ok());
        assert!(DeliveryModel::Adversarial {
            straggle_prob: 1.5,
            straggle_delay: 5
        }
        .validate()
        .is_err());
        assert!(DeliveryModel::Adversarial {
            straggle_prob: 0.5,
            straggle_delay: 0
        }
        .validate()
        .is_err());
        assert!(DeliveryModel::Adversarial {
            straggle_prob: 0.5,
            straggle_delay: 2
        }
        .validate()
        .is_ok());
    }

    /// The ring is as long as the largest delay, so the largest delay has a
    /// limit: at it (and at 25, the most any test draws) a model is valid,
    /// one above it is refused.
    #[test]
    fn a_delay_above_the_limit_is_refused() {
        let straggle = |straggle_delay| DeliveryModel::Adversarial {
            straggle_prob: 0.5,
            straggle_delay,
        };
        for ok in [25, MAX_DELAY] {
            assert!(DeliveryModel::uniform(ok).validate().is_ok());
            assert!(straggle(ok).validate().is_ok());
        }
        for bad in [MAX_DELAY + 1, u64::MAX] {
            let err = DeliveryModel::uniform(bad).validate().unwrap_err();
            assert!(err.contains("max_delay") && err.contains("1024"), "{err}");
            let err = straggle(bad).validate().unwrap_err();
            assert!(err.contains("straggle_delay"), "{err}");
        }
    }

    #[test]
    fn default_is_synchronous() {
        assert!(DeliveryModel::default().is_synchronous());
        assert!(!DeliveryModel::uniform(3).is_synchronous());
    }
}
