//! Replaying a [`ReplayScenario`] line on a real cluster.
//!
//! [`replay_on_cluster`] builds a real `skueue-core` cluster under the sim
//! scheduler, runs the line's steps and checks the oracle: every request
//! completes exactly once, no element is returned twice, no DHT reply is
//! left unmatched at quiescence, every join and leave has finished within
//! `SETTLE_ROUNDS` (the cluster's `unsettled()` list is empty), and the
//! history satisfies Definition 1.

use skueue_core::{Skueue, SkueueCluster};
use skueue_sim::ids::ProcessId;
use skueue_sim::replay::{ReplayScenario, ReplayStep};
use skueue_verify::{check_queue, History, OpResult};
use std::collections::HashSet;

/// Rounds a line gets after its last step for every request to complete,
/// and as many again for every join and leave to finish.
const SETTLE_ROUNDS: u64 = 20_000;

/// Rounds a step at a process waits for it to be an active member that
/// may issue (a joiner not yet integrated).
const MEMBER_WAIT_ROUNDS: u64 = 1_000;

/// Result of replaying a scenario against the real cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Requests issued (and completed exactly once).
    pub requests: u64,
}

/// True when every step of `scenario` names a process that is a member at
/// that point of the line: a request or a leave names an initial process
/// (`0..processes`) or a joiner (numbered on from `processes` in join
/// order) that has not been made to leave, and no leave names process 0,
/// which hosts the anchor.  A valid line fails on the cluster only through
/// the protocol.
pub(crate) fn is_valid(scenario: &ReplayScenario) -> bool {
    let mut members = scenario.processes;
    let mut left = Vec::new();
    scenario.steps.iter().all(|step| match *step {
        ReplayStep::Enqueue(p) | ReplayStep::Dequeue(p) => p < members && !left.contains(&p),
        ReplayStep::Leave(p) => {
            let ok = p > 0 && p < members && !left.contains(&p);
            left.push(p);
            ok
        }
        ReplayStep::Join => {
            members += 1;
            true
        }
        ReplayStep::Rounds(_) => true,
    })
}

/// Maps a line's process numbers to real process ids: 0 is whichever real
/// process hosts the anchor, the other initial processes follow in
/// ascending id order, and joiners are appended as they join.
fn build_mapping(cluster: &SkueueCluster<u64>, initial: u64) -> Result<Vec<ProcessId>, String> {
    let anchor_process = cluster
        .nodes()
        .find(|(_, n)| n.is_anchor_node())
        .map(|(_, n)| n.process())
        .ok_or("cluster has no anchor")?;
    let mut mapping = vec![anchor_process];
    mapping.extend((0..initial).map(ProcessId).filter(|&p| p != anchor_process));
    Ok(mapping)
}

/// Replays a serialised scenario against a real cluster and checks the
/// oracle (module docs).  An `Err` names what failed.
pub fn replay_on_cluster(scenario: &ReplayScenario) -> Result<ReplayReport, String> {
    let mut builder = Skueue::<u64>::builder()
        .processes(scenario.processes as usize)
        .seed(scenario.seed);
    if scenario.max_delay > 0 {
        builder = builder.asynchronous(scenario.max_delay);
    }
    let mut cluster = builder.build().map_err(|e| e.to_string())?;
    let mut mapping = build_mapping(&cluster, scenario.processes)?;

    let mut issued = 0u64;
    for step in &scenario.steps {
        match *step {
            ReplayStep::Enqueue(p) | ReplayStep::Dequeue(p) | ReplayStep::Leave(p) => {
                let pid = *mapping
                    .get(p as usize)
                    .ok_or_else(|| format!("step names unknown process {p}"))?;
                cluster
                    .run_until(|c| c.process_may_issue(pid), MEMBER_WAIT_ROUNDS)
                    .map_err(|_| format!("process {p} never became a member"))?;
                let done = match *step {
                    ReplayStep::Enqueue(_) => cluster.client(pid).enqueue(issued + 1).map(drop),
                    ReplayStep::Dequeue(_) => cluster.client(pid).dequeue().map(drop),
                    _ => cluster.leave(pid),
                };
                done.map_err(|e| e.to_string())?;
                issued += u64::from(!matches!(step, ReplayStep::Leave(_)));
            }
            ReplayStep::Join => {
                mapping.push(cluster.join(None).map_err(|e| e.to_string())?);
            }
            ReplayStep::Rounds(k) => cluster.run_rounds(k),
        }
        cluster.run_round();
    }
    cluster
        .run_until_all_complete(SETTLE_ROUNDS)
        .map_err(|e| e.to_string())?;
    if cluster
        .run_until(|c| c.unsettled().is_empty(), SETTLE_ROUNDS)
        .is_err()
    {
        return Err(format!(
            "after {SETTLE_ROUNDS} more rounds still joining or leaving: {:?}",
            cluster.unsettled()
        ));
    }
    cluster.run_rounds(60);

    let unmatched = cluster.unmatched_dht_replies();
    if unmatched != 0 {
        return Err(format!("{unmatched} unmatched DHT replies at quiescence"));
    }
    let records = cluster.into_history().into_records();
    if records.len() as u64 != issued {
        return Err(format!("{} of {issued} requests completed", records.len()));
    }
    let mut seen = HashSet::new();
    let mut returned = HashSet::new();
    for r in &records {
        if !seen.insert(r.id) {
            return Err(format!("request {} completed twice", r.id));
        }
        if let OpResult::Returned(source) = r.result {
            if !returned.insert(source) {
                return Err(format!("element of {source} returned twice"));
            }
        }
    }
    let report = check_queue(&History::from_records(records));
    if !report.is_consistent() {
        return Err(format!("history inconsistent: {report}"));
    }
    Ok(ReplayReport { requests: issued })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line whose leave never finishes fails naming the stuck process:
    /// `P4 S0 D0 | J L3`, the search's synchronous stuck row (`KNOWN_STUCK`),
    /// whose joiner integrates while the leaver, process 3, never leaves.
    #[test]
    fn a_stuck_line_names_the_process_still_leaving() {
        let line = ReplayScenario::from_compact("P4 S0 D0 | J L3").expect("a valid line");
        let error = replay_on_cluster(&line).unwrap_err();
        assert_eq!(
            error,
            format!("after {SETTLE_ROUNDS} more rounds still joining or leaving: [p3]")
        );
    }
}
