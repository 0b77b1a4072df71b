//! Exhaustive bounded exploration of a [`Machine`].
//!
//! Deterministic breadth-first traversal over *all* enabled-action
//! interleavings, with exact state deduplication (full canonical encodings,
//! not hashes — two states merge iff their encodings are byte-identical).
//! Safety properties are evaluated at every state as it is discovered; the
//! first violation stops the search and yields the action trace that reaches
//! it.  The full reachability graph (successor lists, terminal states) is
//! kept so the liveness combinators in `crate::props` can run over it
//! afterwards.

use crate::machine::Machine;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A named safety property, checked at every reachable state.  Returns
/// `Some(description)` when the state violates it.
pub struct SafetyProp<S> {
    /// Property name (shows up in the counterexample report).
    pub name: &'static str,
    /// The check itself.
    #[allow(clippy::type_complexity)]
    pub check: Box<dyn Fn(&S) -> Option<String>>,
}

impl<S> SafetyProp<S> {
    /// Builds a named property from a closure.
    pub(crate) fn new(name: &'static str, check: impl Fn(&S) -> Option<String> + 'static) -> Self {
        SafetyProp {
            name,
            check: Box::new(check),
        }
    }
}

/// A property violation, with the action trace that reaches it from the
/// initial state.
#[derive(Debug, Clone)]
pub struct Counterexample<A> {
    /// Which property failed.
    pub property: String,
    /// What the check reported.
    pub detail: String,
    /// Actions from the initial state to the violating state.
    pub trace: Vec<A>,
}

impl<A: std::fmt::Display> Counterexample<A> {
    /// Human-readable rendering of the trace (one action per line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "property `{}` violated: {}",
            self.property, self.detail
        );
        let _ = writeln!(out, "trace ({} actions):", self.trace.len());
        for (i, a) in self.trace.iter().enumerate() {
            let _ = writeln!(out, "  {i:3}. {a}");
        }
        out
    }
}

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Hard cap on distinct states; exceeding it marks the result truncated
    /// (a truncated run proves nothing and fails the bounded tests).
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 4_000_000,
        }
    }
}

/// The explored reachability graph.
pub struct Exploration<M: Machine> {
    /// Every distinct reachable state, indexed by discovery order (0 = the
    /// initial state).
    pub states: Vec<M::State>,
    /// BFS predecessor + the action that reached each state (`None` for the
    /// initial state) — counterexample traces are read off this.
    pub parents: Vec<Option<(u32, M::Action)>>,
    /// Successor lists with their action labels.
    pub succs: Vec<Vec<(u32, M::Action)>>,
    /// States with no enabled action.
    pub terminals: Vec<u32>,
    /// Number of distinct states discovered.
    pub states_explored: usize,
    /// Total transitions taken (size of the edge relation).
    pub transitions: usize,
    /// True when `max_states` was hit before the frontier emptied.
    pub truncated: bool,
    /// First safety violation found, if any (the graph past it is partial).
    pub violation: Option<Counterexample<M::Action>>,
}

impl<M: Machine> Exploration<M> {
    /// The action trace from the initial state to `state_id`.
    pub fn trace_to(&self, state_id: u32) -> Vec<M::Action> {
        let mut trace = Vec::new();
        let mut cur = state_id;
        while let Some((parent, action)) = &self.parents[cur as usize] {
            trace.push(action.clone());
            cur = *parent;
        }
        trace.reverse();
        trace
    }
}

/// Runs the exhaustive BFS.  Deterministic: same machine + config ⇒ same
/// discovery order, same counterexample.
pub fn explore<M: Machine>(
    machine: &M,
    safety: &[SafetyProp<M::State>],
    config: &ExploreConfig,
) -> Exploration<M> {
    let mut states: Vec<M::State> = Vec::new();
    let mut parents: Vec<Option<(u32, M::Action)>> = Vec::new();
    let mut succs: Vec<Vec<(u32, M::Action)>> = Vec::new();
    let mut terminals: Vec<u32> = Vec::new();
    let mut seen: HashMap<Box<[u8]>, u32> = HashMap::new();
    let mut transitions = 0usize;
    let mut truncated = false;
    let mut violation = None;

    let mut enc = Vec::new();
    let initial = machine.initial();
    machine.encode(&initial, &mut enc);
    seen.insert(enc.clone().into_boxed_slice(), 0);
    states.push(initial);
    parents.push(None);
    succs.push(Vec::new());

    // Check safety on the initial state too.
    if let Some(cex) = check_state(machine, safety, &states[0], 0, &parents, &states) {
        violation = Some(cex);
    }

    let mut frontier = 0usize;
    let mut enabled = Vec::new();
    'bfs: while frontier < states.len() && violation.is_none() {
        let id = frontier as u32;
        enabled.clear();
        machine.actions(&states[frontier], &mut enabled);
        if enabled.is_empty() {
            terminals.push(id);
        }
        let actions = std::mem::take(&mut enabled);
        for action in &actions {
            let next = machine.apply(&states[frontier], action);
            transitions += 1;
            enc.clear();
            machine.encode(&next, &mut enc);
            let next_id = match seen.get(enc.as_slice()) {
                Some(&existing) => existing,
                None => {
                    if states.len() >= config.max_states {
                        truncated = true;
                        break 'bfs;
                    }
                    let new_id = states.len() as u32;
                    seen.insert(enc.clone().into_boxed_slice(), new_id);
                    parents.push(Some((id, action.clone())));
                    succs.push(Vec::new());
                    states.push(next);
                    if let Some(cex) = check_state(
                        machine,
                        safety,
                        &states[new_id as usize],
                        new_id,
                        &parents,
                        &states,
                    ) {
                        violation = Some(cex);
                        succs[frontier].push((new_id, action.clone()));
                        break 'bfs;
                    }
                    new_id
                }
            };
            succs[frontier].push((next_id, action.clone()));
        }
        enabled = actions;
        frontier += 1;
    }

    let states_explored = states.len();
    Exploration {
        states,
        parents,
        succs,
        terminals,
        states_explored,
        transitions,
        truncated,
        violation,
    }
}

/// Bounded existence check: is a state satisfying `pred` reachable from
/// `from`?  `pred` also receives whether the state is terminal (no enabled
/// action), so callers can ask for "a stuck terminal" specifically.  Hitting
/// `max_states` without a witness answers `false` — for shrinking, a
/// cap-limited candidate counts as *not* failing, which only keeps the
/// minimised trace conservative (never unsound).
pub fn reachable_exists<M: Machine>(
    machine: &M,
    from: &M::State,
    pred: impl Fn(&M::State, bool) -> bool,
    max_states: usize,
) -> bool {
    let mut seen: HashMap<Box<[u8]>, ()> = HashMap::new();
    let mut queue: Vec<M::State> = Vec::new();
    let mut enc = Vec::new();
    machine.encode(from, &mut enc);
    seen.insert(enc.clone().into_boxed_slice(), ());
    queue.push(from.clone());

    let mut frontier = 0usize;
    let mut enabled = Vec::new();
    while frontier < queue.len() {
        enabled.clear();
        machine.actions(&queue[frontier], &mut enabled);
        if pred(&queue[frontier], enabled.is_empty()) {
            return true;
        }
        let actions = std::mem::take(&mut enabled);
        for action in &actions {
            let next = machine.apply(&queue[frontier], action);
            enc.clear();
            machine.encode(&next, &mut enc);
            if !seen.contains_key(enc.as_slice()) {
                if queue.len() >= max_states {
                    return false;
                }
                seen.insert(enc.clone().into_boxed_slice(), ());
                queue.push(next);
            }
        }
        enabled = actions;
        frontier += 1;
    }
    false
}

fn check_state<M: Machine>(
    _machine: &M,
    safety: &[SafetyProp<M::State>],
    state: &M::State,
    id: u32,
    parents: &[Option<(u32, M::Action)>],
    _states: &[M::State],
) -> Option<Counterexample<M::Action>> {
    for prop in safety {
        if let Some(detail) = (prop.check)(state) {
            let mut trace = Vec::new();
            let mut cur = id;
            while let Some((parent, action)) = &parents[cur as usize] {
                trace.push(action.clone());
                cur = *parent;
            }
            trace.reverse();
            return Some(Counterexample {
                property: prop.name.to_string(),
                detail,
                trace,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    /// Two tokens that can each flip once: 4 states, diamond-shaped.
    struct Diamond;

    impl Machine for Diamond {
        type State = (bool, bool);
        type Action = u8;

        fn initial(&self) -> Self::State {
            (false, false)
        }

        fn actions(&self, s: &Self::State, out: &mut Vec<u8>) {
            if !s.0 {
                out.push(0);
            }
            if !s.1 {
                out.push(1);
            }
        }

        fn apply(&self, s: &Self::State, a: &u8) -> Self::State {
            match a {
                0 => (true, s.1),
                _ => (s.0, true),
            }
        }

        fn encode(&self, s: &Self::State, out: &mut Vec<u8>) {
            out.push(s.0 as u8);
            out.push(s.1 as u8);
        }
    }

    #[test]
    fn diamond_dedups_to_four_states() {
        let ex = explore(&Diamond, &[], &ExploreConfig::default());
        assert_eq!(ex.states_explored, 4);
        assert_eq!(ex.transitions, 4);
        assert_eq!(ex.terminals, vec![3]);
        assert!(!ex.truncated);
        assert!(ex.violation.is_none());
    }

    #[test]
    fn safety_violation_yields_shortest_trace() {
        let prop = SafetyProp::new("no-both", |s: &(bool, bool)| {
            (s.0 && s.1).then(|| "both flipped".to_string())
        });
        let ex = explore(&Diamond, &[prop], &ExploreConfig::default());
        let cex = ex.violation.expect("both-flipped is reachable");
        assert_eq!(cex.trace.len(), 2, "BFS finds a shortest counterexample");
    }

    #[test]
    fn state_cap_marks_truncation() {
        let ex = explore(&Diamond, &[], &ExploreConfig { max_states: 2 });
        assert!(ex.truncated);
    }

    #[test]
    fn reachable_exists_finds_terminal_and_respects_cap() {
        let both = |s: &(bool, bool), terminal: bool| terminal && s.0 && s.1;
        assert!(reachable_exists(&Diamond, &(false, false), both, 100));
        assert!(!reachable_exists(
            &Diamond,
            &(false, false),
            |_, _| false,
            100
        ));
        // A cap too small to reach the witness answers `false`.
        assert!(!reachable_exists(&Diamond, &(false, false), both, 2));
    }
}
