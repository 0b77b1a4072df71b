//! The unbatched central-server baseline (ablation E8).
//!
//! The paper motivates Skueue by observing that existing message-queue
//! systems funnel every request through one (or a few) powerful servers and
//! that the obvious fully-centralised design cannot absorb massive parallel
//! access.  This module implements that strawman on the same simulation
//! substrate: every client sends each request directly to a single server
//! node, which processes a bounded number of requests per round from its
//! backlog and answers each with one reply message.
//!
//! Comparing its average rounds-per-request against Skueue's under the
//! Figure 4 workload shows the effect of batch aggregation: the central
//! server's latency grows linearly with the offered load once the load
//! exceeds its per-round capacity, while Skueue stays at `O(log n)`.

use skueue_sim::actor::{Actor, Context};
use skueue_sim::ids::NodeId;
use skueue_sim::{SimConfig, SimRng, Simulation};
use std::collections::VecDeque;

/// Messages of the baseline system.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BaselineMsg {
    /// A client request (insert or remove) tagged with its issue round.
    Request {
        is_insert: bool,
        value: u64,
        issued_round: u64,
    },
    /// The server's answer, echoing the issue round.
    Reply { issued_round: u64 },
}

/// The central server: a sequential queue plus a backlog of unprocessed
/// requests; it serves at most `capacity_per_round` requests per round.
#[derive(Debug)]
struct CentralServer {
    queue: VecDeque<u64>,
    backlog: VecDeque<(NodeId, BaselineMsg)>,
    capacity_per_round: u64,
    served: u64,
}

/// A client node: records reply latencies.
#[derive(Debug, Default)]
struct Client {
    latencies: Vec<u64>,
}

/// Either the server (node 0) or a client.
#[derive(Debug)]
enum BaselineNode {
    Server(CentralServer),
    Client(Client),
}

impl Actor for BaselineNode {
    type Msg = BaselineMsg;

    fn on_message(&mut self, from: NodeId, msg: BaselineMsg, ctx: &mut Context<BaselineMsg>) {
        match self {
            BaselineNode::Server(server) => {
                if matches!(msg, BaselineMsg::Request { .. }) {
                    server.backlog.push_back((from, msg));
                }
            }
            BaselineNode::Client(client) => {
                if let BaselineMsg::Reply { issued_round } = msg {
                    client
                        .latencies
                        .push(ctx.round().saturating_sub(issued_round));
                }
            }
        }
    }

    fn on_timeout(&mut self, ctx: &mut Context<BaselineMsg>) {
        if let BaselineNode::Server(server) = self {
            for _ in 0..server.capacity_per_round {
                let Some((client, msg)) = server.backlog.pop_front() else {
                    break;
                };
                if let BaselineMsg::Request {
                    is_insert,
                    value,
                    issued_round,
                } = msg
                {
                    if is_insert {
                        server.queue.push_back(value);
                    } else {
                        let _ = server.queue.pop_front();
                    }
                    server.served += 1;
                    ctx.send(client, BaselineMsg::Reply { issued_round });
                }
            }
        }
    }
}

/// Result of one baseline run.
#[derive(Debug, Clone)]
pub struct CentralBaselineResult {
    /// Requests issued (and completed).
    pub requests: u64,
    /// Average rounds per request.
    pub avg_rounds_per_request: f64,
}

/// Runs the central-server baseline under the Figure 4 workload shape: every
/// client issues a request with probability `request_probability` per round
/// for `generation_rounds` rounds.
pub fn run_central_baseline(
    processes: usize,
    request_probability: f64,
    insert_ratio: f64,
    generation_rounds: u64,
    server_capacity_per_round: u64,
    seed: u64,
) -> CentralBaselineResult {
    let mut sim: Simulation<BaselineNode> =
        Simulation::new(SimConfig::synchronous(seed)).expect("valid config");
    let server = sim.add_node(BaselineNode::Server(CentralServer {
        queue: VecDeque::new(),
        backlog: VecDeque::new(),
        capacity_per_round: server_capacity_per_round,
        served: 0,
    }));
    let clients: Vec<NodeId> = (0..processes)
        .map(|_| sim.add_node(BaselineNode::Client(Client::default())))
        .collect();

    let mut rng = SimRng::new(seed ^ 0xBA5E);
    let mut issued = 0u64;
    let mut value = 0u64;
    for round in 0..generation_rounds {
        for &client in &clients {
            if rng.gen_bool(request_probability) {
                value += 1;
                issued += 1;
                sim.inject(
                    client,
                    server,
                    BaselineMsg::Request {
                        is_insert: rng.gen_bool(insert_ratio),
                        value,
                        issued_round: round,
                    },
                )
                .expect("server exists");
            }
        }
        sim.run_rounds(1);
    }
    // Drain: run until every request has been answered.
    let mut guard = 0u64;
    loop {
        let answered: usize = sim
            .iter()
            .filter_map(|(_, n)| match n {
                BaselineNode::Client(c) => Some(c.latencies.len()),
                _ => None,
            })
            .sum();
        if answered as u64 >= issued {
            break;
        }
        sim.run_rounds(1);
        guard += 1;
        assert!(guard < 10_000_000, "baseline failed to drain");
    }

    let mut latencies = Vec::new();
    for (_, node) in sim.iter() {
        if let BaselineNode::Client(c) = node {
            latencies.extend_from_slice(&c.latencies);
        }
    }
    let avg = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    CentralBaselineResult {
        requests: issued,
        avg_rounds_per_request: avg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_answers_every_request() {
        let result = run_central_baseline(20, 0.5, 0.5, 30, 10, 1);
        assert!(result.requests > 0);
        assert!(
            result.avg_rounds_per_request >= 2.0,
            "round trip costs at least 2 rounds"
        );
    }

    #[test]
    fn overloaded_server_builds_queueing_delay() {
        // Offered load 50 * 1.0 = 50 req/round against a capacity of 10:
        // latency must blow up relative to an underloaded server.
        let overloaded = run_central_baseline(50, 1.0, 0.5, 30, 10, 2);
        let underloaded = run_central_baseline(50, 0.1, 0.5, 30, 10, 2);
        assert!(
            overloaded.avg_rounds_per_request > underloaded.avg_rounds_per_request * 3.0,
            "overloaded {} vs underloaded {}",
            overloaded.avg_rounds_per_request,
            underloaded.avg_rounds_per_request
        );
    }

    #[test]
    fn zero_probability_issues_nothing() {
        let result = run_central_baseline(10, 0.0, 0.5, 10, 5, 3);
        assert_eq!(result.requests, 0);
        assert_eq!(result.avg_rounds_per_request, 0.0);
    }
}
