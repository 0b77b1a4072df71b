//! Shrinking a failing line.
//!
//! [`shrink`] is a ddmin-style minimiser over a [`ReplayScenario`]'s steps:
//! it repeatedly deletes chunks (halving the chunk size down to single
//! steps) and keeps a candidate iff it is still a valid line (see
//! [`is_valid`]) *and* still fails, until no single deletion helps.  It
//! tries candidates in a fixed order, so the same line and predicate
//! always shrink to the same result.

use crate::replay::is_valid;
use skueue_sim::replay::ReplayScenario;

/// Minimises `scenario`'s steps with respect to `still_fails`, which must
/// hold for `scenario` itself and only ever sees valid lines.
pub fn shrink(
    scenario: &ReplayScenario,
    still_fails: impl Fn(&ReplayScenario) -> bool,
) -> ReplayScenario {
    let mut current = scenario.clone();
    loop {
        let mut improved = false;
        let mut size = (current.steps.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start + size <= current.steps.len() {
                let mut candidate = current.clone();
                candidate.steps.drain(start..start + size);
                if is_valid(&candidate) && still_fails(&candidate) {
                    current = candidate;
                    improved = true;
                    // Re-scan from the same offset: the window now holds
                    // different steps.
                } else {
                    start += size;
                }
            }
            if size == 1 {
                break;
            }
            size /= 2;
        }
        if !improved {
            break;
        }
    }
    current
}
