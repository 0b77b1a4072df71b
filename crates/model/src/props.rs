//! Safety and liveness properties of the abstract protocol.
//!
//! Safety properties run at every reachable state during exploration
//! ([`model_safety_props`]).  Liveness is expressed through a small LTL-ish
//! combinator layer over the finished reachability graph: [`eventually`]
//! and [`leads_to`], each after `no_cycles` (the side condition that makes
//! `eventually` meaningful on a finite graph; "always" is what the safety
//! properties are).  Definition 1
//! itself is checked with the real `skueue-verify` checkers on the abstract
//! history of every terminal state ([`check_terminal_histories`]).

use crate::explore::{Counterexample, Exploration, SafetyProp};
use crate::machine::Machine;
use crate::protocol::{to_records, AbsResult, AbsRole, ModelState, Msg};
use skueue_verify::{check_queue, History};
use std::collections::HashMap;

/// The model's safety properties, checked at every state:
///
/// * **single-anchor** — exactly one anchor host (or none, with the anchor
///   state travelling in an `AnchorTransfer`);
/// * **anchor-invariant** — the position counter never rewinds below 1 and
///   the open phase always belongs to the current phase counter;
/// * **credit-serialized** — per child, at most one un-acked wave in flight,
///   and none while the child holds its credit;
/// * **no-duplicate-element** — no element is returned twice, no request
///   completes twice, no order position is used twice (shard/tag
///   discipline of the unsharded model: every key is an anchor key);
/// * **phase-monotonicity** — no node is ever ahead of the anchor's phase
///   counter.
pub fn model_safety_props() -> Vec<SafetyProp<ModelState>> {
    vec![
        SafetyProp::new("single-anchor", |s: &ModelState| {
            let hosts: Vec<usize> = s
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.is_anchor)
                .map(|(i, _)| i)
                .collect();
            let transfers = s
                .network
                .iter()
                .filter(|e| matches!(e.msg, Msg::AnchorTransfer { .. }))
                .count();
            match (s.anchor_at, s.anchor.is_some()) {
                (Some(at), true) if hosts == vec![at as usize] && transfers == 0 => None,
                (None, false) if hosts.is_empty() && transfers == 1 => None,
                _ => Some(format!(
                    "anchor_at={:?} hosts={hosts:?} transfers={transfers}",
                    s.anchor_at
                )),
            }
        }),
        SafetyProp::new("anchor-invariant", |s: &ModelState| {
            let anchor = s.anchor.as_ref().or_else(|| {
                s.network.iter().find_map(|e| match &e.msg {
                    Msg::AnchorTransfer { anchor } => Some(anchor),
                    _ => None,
                })
            })?;
            if anchor.counter < 1 {
                return Some(format!("counter rewound to {}", anchor.counter));
            }
            if let Some(wait) = &anchor.open_phase {
                if wait.phase != anchor.phases_started {
                    return Some(format!(
                        "open phase {} but {} phases started",
                        wait.phase, anchor.phases_started
                    ));
                }
            }
            None
        }),
        SafetyProp::new("credit-serialized", |s: &ModelState| {
            for (i, node) in s.nodes.iter().enumerate() {
                let in_flight = s
                    .network
                    .iter()
                    .filter(|e| {
                        matches!(&e.msg, Msg::Aggregate { from, .. } if *from == i as u8)
                            || (e.dst == i as u8 && matches!(e.msg, Msg::AggregateAck))
                    })
                    .count();
                if in_flight > 1 {
                    return Some(format!("node {i}: {in_flight} un-acked waves in flight"));
                }
                if node.credit && in_flight != 0 {
                    return Some(format!("node {i}: credit held with a wave in flight"));
                }
            }
            None
        }),
        SafetyProp::new("no-duplicate-element", |s: &ModelState| {
            let mut completed = HashMap::new();
            let mut returned = HashMap::new();
            let mut orders = HashMap::new();
            for c in &s.history {
                if let Some(prev) = completed.insert((c.req.node, c.req.seq), c) {
                    return Some(format!("request {:?} completed twice ({prev:?})", c.req));
                }
                if let Some(prev) = orders.insert(c.order, c.req) {
                    return Some(format!(
                        "order {} used by {:?} and {prev:?}",
                        c.order, c.req
                    ));
                }
                if let AbsResult::Returned(n, q) = c.result {
                    if let Some(prev) = returned.insert((n, q), c.req) {
                        return Some(format!(
                            "element of ({n},{q}) returned to both {prev:?} and {:?}",
                            c.req
                        ));
                    }
                }
            }
            None
        }),
        SafetyProp::new("phase-monotonicity", |s: &ModelState| {
            let started = s.anchor.as_ref().map(|a| a.phases_started).or_else(|| {
                s.network.iter().find_map(|e| match &e.msg {
                    Msg::AnchorTransfer { anchor } => Some(anchor.phases_started),
                    _ => None,
                })
            })?;
            for (i, node) in s.nodes.iter().enumerate() {
                if node.phase > started {
                    return Some(format!(
                        "node {i} reached phase {} but only {started} started",
                        node.phase
                    ));
                }
                if let Some(p) = node.in_phase {
                    if p > node.phase {
                        return Some(format!("node {i}: in_phase {p} > phase {}", node.phase));
                    }
                }
            }
            None
        }),
    ]
}

/// Full quiescence: nothing in flight, no phase open, no churn pending, no
/// node mid-membership-change, and every issued request completed.
pub fn quiescent(s: &ModelState) -> bool {
    let issued: usize = s.nodes.iter().map(|n| n.issued as usize).sum();
    s.network.is_empty()
        && s.anchor
            .as_ref()
            .is_some_and(|a| a.open_phase.is_none() && a.pending_churn == 0)
        && s.history.len() == issued
        && s.nodes.iter().all(|n| {
            !n.suspended
                && n.in_phase.is_none()
                && n.pending.is_empty()
                && !matches!(n.role, AbsRole::Joining | AbsRole::Draining)
        })
}

/// The reachability graph must be acyclic — on a finite graph this is what
/// turns "every maximal path is finite and ends in a terminal state" into a
/// checkable side condition for [`eventually`] and [`leads_to`].
pub(crate) fn no_cycles<M: Machine>(ex: &Exploration<M>) -> Result<(), Counterexample<M::Action>> {
    // Iterative 3-colour DFS.
    let n = ex.states.len();
    let mut colour = vec![0u8; n]; // 0 = white, 1 = grey, 2 = black
    for root in 0..n {
        if colour[root] != 0 {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(root as u32, 0)];
        colour[root] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = &ex.succs[node as usize];
            if *next < succs.len() {
                let (child, _) = succs[*next];
                *next += 1;
                match colour[child as usize] {
                    0 => {
                        colour[child as usize] = 1;
                        stack.push((child, 0));
                    }
                    1 => {
                        return Err(Counterexample {
                            property: "no-cycles".to_string(),
                            detail: format!("cycle back to state {child} (livelock)"),
                            trace: ex.trace_to(child),
                        });
                    }
                    _ => {}
                }
            } else {
                colour[node as usize] = 2;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// `eventually p` over all maximal paths: with an acyclic graph this is
/// exactly "every terminal state satisfies `p`".
pub fn eventually<M: Machine>(
    ex: &Exploration<M>,
    name: &'static str,
    pred: impl Fn(&M::State) -> bool,
) -> Result<(), Counterexample<M::Action>> {
    no_cycles(ex)?;
    for &t in &ex.terminals {
        if !pred(&ex.states[t as usize]) {
            return Err(Counterexample {
                property: name.to_string(),
                detail: "a maximal path ends without reaching the predicate".to_string(),
                trace: ex.trace_to(t),
            });
        }
    }
    Ok(())
}

/// `p leads_to q`: from every state satisfying `p`, *all* paths reach a
/// state satisfying `q`.
pub fn leads_to<M: Machine>(
    ex: &Exploration<M>,
    name: &'static str,
    p: impl Fn(&M::State) -> bool,
    q: impl Fn(&M::State) -> bool,
) -> Result<(), Counterexample<M::Action>> {
    no_cycles(ex)?;
    let n = ex.states.len();
    // `reaches[s]`: every path from s hits a q-state.  Computed in reverse
    // topological order (post-order DFS).
    let order = topo_postorder(ex);
    let mut reaches = vec![false; n];
    for &s in &order {
        let su = s as usize;
        reaches[su] = q(&ex.states[su])
            || (!ex.succs[su].is_empty() && ex.succs[su].iter().all(|&(c, _)| reaches[c as usize]));
    }
    for s in 0..n {
        if p(&ex.states[s]) && !reaches[s] {
            // Extend the trace along a failing path to a terminal, for a
            // complete counterexample.
            let mut trace = ex.trace_to(s as u32);
            let mut cur = s;
            while let Some(&(c, ref a)) = ex.succs[cur].iter().find(|&&(c, _)| !reaches[c as usize])
            {
                trace.push(a.clone());
                cur = c as usize;
            }
            return Err(Counterexample {
                property: name.to_string(),
                detail: "a path from a p-state never reaches q".to_string(),
                trace,
            });
        }
    }
    Ok(())
}

/// Post-order DFS over the (acyclic) graph: children before parents.
fn topo_postorder<M: Machine>(ex: &Exploration<M>) -> Vec<u32> {
    let n = ex.states.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if visited[root] {
            continue;
        }
        let mut stack: Vec<(u32, usize)> = vec![(root as u32, 0)];
        visited[root] = true;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = &ex.succs[node as usize];
            if *next < succs.len() {
                let (child, _) = succs[*next];
                *next += 1;
                if !visited[child as usize] {
                    visited[child as usize] = true;
                    stack.push((child, 0));
                }
            } else {
                order.push(node);
                stack.pop();
            }
        }
    }
    order
}

/// Runs the real `skueue-verify` queue checkers (Definition 1 + sequential
/// replay) on the abstract history of every terminal state.
pub fn check_terminal_histories<M: Machine<State = ModelState>>(
    ex: &Exploration<M>,
) -> Result<(), Counterexample<M::Action>> {
    for &t in &ex.terminals {
        let records = to_records(&ex.states[t as usize].history);
        let report = check_queue(&History::from_records(records));
        if !report.is_consistent() {
            return Err(Counterexample {
                property: "definition-1".to_string(),
                detail: format!("{report}"),
                trace: ex.trace_to(t),
            });
        }
    }
    Ok(())
}
