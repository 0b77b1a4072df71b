//! Counterexample shrinking.
//!
//! A raw counterexample trace from the explorer contains incidental actions
//! (unrelated issues, deliveries on other channels).  [`shrink_trace`] is a
//! ddmin-style minimiser: it repeatedly deletes chunks (halving the chunk
//! size down to single actions) and keeps a candidate iff it still replays
//! feasibly *and* still exhibits the failure, until no single deletion
//! helps.  [`to_replay_scenario`] then projects the minimal trace onto its
//! high-level steps as a [`ReplayScenario`] that the regression tests
//! re-execute against the real `skueue-core` cluster.

use crate::machine::{replay, Machine};
use crate::protocol::{Action, ProtocolModel, Scenario};
use skueue_sim::replay::{ReplayScenario, ReplayStep};

/// Minimises `trace` with respect to `still_fails` (which must hold for the
/// input trace).  `still_fails` receives candidate traces that are already
/// known to replay feasibly from the initial state.
pub(crate) fn shrink_trace<M: Machine>(
    machine: &M,
    trace: &[M::Action],
    still_fails: impl Fn(&[M::Action]) -> bool,
) -> Vec<M::Action> {
    let mut current = trace.to_vec();
    loop {
        let mut improved = false;
        let mut size = (current.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start + size <= current.len() {
                let mut candidate = current.clone();
                candidate.drain(start..start + size);
                let feasible = replay(machine, &candidate).is_some();
                if feasible && still_fails(&candidate) {
                    current = candidate;
                    improved = true;
                    // Re-scan from the same offset: the window now holds
                    // different actions.
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

/// Projects a model trace onto its scenario-level steps: the request
/// issues and churn injections, in trace order, as a serialisable
/// [`ReplayScenario`].  Message-delivery choices do not exist at the real
/// cluster's API surface; the replay harness re-creates adversarial
/// delivery by sweeping the scenario over asynchronous-delivery seeds.
pub(crate) fn to_replay_scenario(
    scenario: &Scenario,
    trace: &[Action],
    seed: u64,
) -> ReplayScenario {
    let mut steps = Vec::new();
    let mut issued = vec![0u8; scenario.node_count()];
    let mut leaves = 0usize;
    for action in trace {
        match *action {
            Action::Issue(n) => {
                let idx = issued[n as usize];
                issued[n as usize] += 1;
                let is_enqueue = scenario
                    .script
                    .iter()
                    .filter(|(node, _)| *node == n)
                    .nth(idx as usize)
                    .map(|(_, e)| *e)
                    .expect("trace issues follow the script");
                steps.push(if is_enqueue {
                    ReplayStep::Enqueue(n as u64)
                } else {
                    ReplayStep::Dequeue(n as u64)
                });
            }
            Action::InjectJoin => {
                steps.push(ReplayStep::Join);
            }
            Action::InjectLeave => {
                let l = scenario.leaves[leaves];
                leaves += 1;
                steps.push(ReplayStep::Leave(l as u64));
            }
            // Waves, acks and deliveries happen below the cluster API.
            _ => {}
        }
    }
    ReplayScenario {
        processes: scenario.initial_nodes as u64,
        seed,
        max_delay: scenario.reorder_window.max(2) as u64,
        steps,
    }
}

/// Convenience: shrink a trace of the protocol model and serialise it.
pub fn shrink_to_scenario(
    model: &ProtocolModel,
    trace: &[Action],
    still_fails: impl Fn(&[Action]) -> bool,
    seed: u64,
) -> (Vec<Action>, ReplayScenario) {
    let minimal = shrink_trace(model, trace, still_fails);
    let scenario = to_replay_scenario(&model.scenario, &minimal, seed);
    (minimal, scenario)
}
