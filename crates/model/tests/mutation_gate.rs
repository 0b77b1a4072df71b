//! Mutation sanity gate: proves the bounded model check has teeth.
//!
//! Compiled only with `--features model-mutation`, which removes the
//! stale-`UpdateOver` staleness guard from the abstraction (the real
//! `skueue-core` keeps its copy of the rule — this test drives the model
//! only): a delayed end-of-phase message from an older update phase then
//! cancels a younger phase's bookkeeping and wedges the anchor.  The check
//! must (a) find the wedge, (b) shrink the counterexample to a replayable
//! trace of at most 20 actions.

#![cfg(feature = "model-mutation")]

use skueue_model::{
    eventually, explore, model_safety_props, quiescent, reachable_exists, replay,
    shrink_to_scenario, Action, ExploreConfig, ProtocolModel, Scenario,
};

/// Reachability cap for the inevitability check; the smoke scenario's whole
/// state space is ~30k states, so this can never be hit.
const REACH_CAP: usize = 500_000;

/// A candidate trace "still fails" when the wedge is *inevitable* from its
/// final state: no quiescent state is reachable any more — the decisive
/// reordering has happened, everything after it is forced.
fn wedge_inevitable(model: &ProtocolModel, trace: &[Action]) -> bool {
    let states = replay(model, trace).expect("shrinker only offers feasible traces");
    let last = states.last().expect("replay includes the initial state");
    !reachable_exists(model, last, |s, _| quiescent(s), REACH_CAP)
}

#[test]
fn mutated_protocol_is_caught_and_shrunk() {
    // The smoke-sized bounded instance (two churn events, reorder window 2)
    // is enough to reach the race in both build profiles.
    let model = ProtocolModel::new(Scenario::smoke());
    let ex = explore(&model, &model_safety_props(), &ExploreConfig::default());
    assert!(!ex.truncated, "mutated exploration hit the state cap");
    println!(
        "model-check[mutated]: {} states, {} transitions, {} terminal states",
        ex.states_explored,
        ex.transitions,
        ex.terminals.len()
    );
    if let Some(cex) = &ex.violation {
        panic!("mutation must wedge liveness, not safety\n{}", cex.render());
    }

    // The stale-`UpdateOver` race must surface as a liveness failure: some
    // path ends in a state that never quiesces.
    let cex = eventually(&ex, "eventually-quiescent", quiescent)
        .expect_err("the mutated protocol must fail the quiescence check");
    println!("raw counterexample: {} actions", cex.trace.len());

    // `eventually` reports the first wedged terminal in discovery order;
    // start the shrink from the *shortest* wedged trace (BFS parents give
    // shortest paths, so the earliest-discovered terminal is the closest).
    let shortest = ex
        .terminals
        .iter()
        .copied()
        .filter(|&t| !quiescent(&ex.states[t as usize]))
        .map(|t| ex.trace_to(t))
        .min_by_key(|t| t.len())
        .expect("a wedged terminal exists");
    let cex_trace = if shortest.len() < cex.trace.len() {
        shortest
    } else {
        cex.trace.clone()
    };

    // Shrink to the minimal trace after which the wedge is inevitable and
    // serialise it as a replayable scenario.
    let (minimal, scenario) =
        shrink_to_scenario(&model, &cex_trace, |t| wedge_inevitable(&model, t), 0xFE1D);
    println!("shrunk counterexample ({} actions):", minimal.len());
    for (i, a) in minimal.iter().enumerate() {
        println!("  {i:3}. {a}");
    }
    println!("replay scenario: {}", scenario.to_compact());
    assert!(
        wedge_inevitable(&model, &minimal),
        "shrinking must preserve the failure"
    );
    assert!(
        minimal.len() <= 20,
        "shrunk trace must be at most 20 actions, got {}",
        minimal.len()
    );
    assert!(
        !scenario.steps.is_empty(),
        "the wedge needs at least one high-level step"
    );
}
