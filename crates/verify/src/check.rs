//! The one consistency checker behind [`crate::check_queue`],
//! [`crate::check_stack`] and [`crate::check_queue_sharded`].
//!
//! A history is `S` independent lanes under one witnessed order `≺`: a
//! record's lane is its origin process's anchor shard, and there is one
//! lane without a shard map.  Every lane is a FIFO queue or a LIFO stack
//! ([`Discipline`]) and must satisfy properties 1–3 of Definition 1 (with
//! Section VI's changes for the stack) and the stronger replay on a
//! reference sequential object; well-formedness and program order
//! (property 4) are checked once, on the whole history.

use crate::history::{History, OpKind, OpRecord, OpResult, OrderKey};
use crate::report::{ConsistencyReport, Violation};
use skueue_dht::Payload;
use skueue_shard::ShardMap;
use skueue_sim::ids::RequestId;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// The end of a lane a dequeue takes its element from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Discipline {
    /// The queue: the oldest element (Definition 1).
    Fifo,
    /// The stack: the youngest element (Section VI).
    Lifo,
}

/// A matched enqueue/dequeue (or push/pop) pair with their order values.
struct Pair {
    enqueue: RequestId,
    dequeue: RequestId,
    enqueue_order: OrderKey,
    dequeue_order: OrderKey,
}

/// One lane's share of the matching `M`, each list in witnessed order.
#[derive(Default)]
struct Lane {
    matched: Vec<Pair>,
    /// The lane's enqueues; after the matching only those never returned.
    unmatched: Vec<(OrderKey, RequestId)>,
    /// The lane's dequeues that returned `⊥`.
    empties: Vec<(OrderKey, RequestId)>,
}

/// The first of `sorted` strictly between `lo` and `hi`.
fn first_inside(sorted: &[(OrderKey, RequestId)], lo: OrderKey, hi: OrderKey) -> Option<RequestId> {
    let at = sorted.partition_point(|&(order, _)| order <= lo);
    sorted
        .get(at)
        .filter(|&&(order, _)| order < hi)
        .map(|&(_, id)| id)
}

/// Checks `history` as one lane per shard of `shards` (one lane without a
/// map, or with a single-shard one) under `discipline`, and reports every
/// violation found.
pub(crate) fn check<T: Payload>(
    history: &History<T>,
    discipline: Discipline,
    shards: Option<&ShardMap>,
) -> ConsistencyReport {
    let shards = shards.filter(|map| !map.is_single());
    let lane_of =
        |r: &OpRecord<T>| shards.map_or(0, |map| map.shard_of_process(r.id.origin) as usize);
    let records = history.records();
    let mut violations = Vec::new();

    // Well-formedness: unique ids, unique order values (adjacent in the
    // sort), every key tagged with its origin's shard.
    let mut by_id: HashMap<RequestId, &OpRecord<T>> = HashMap::with_capacity(records.len());
    for r in records {
        if by_id.insert(r.id, r).is_some() {
            violations.push(Violation::DuplicateRequest { request: r.id });
        }
    }
    let sorted = history.sorted_by_order();
    for w in sorted.windows(2).filter(|w| w[0].order == w[1].order) {
        let requests = (w[0].id, w[1].id);
        violations.push(Violation::DuplicateOrder {
            order: w[1].order,
            requests,
        });
    }
    let lane_count = shards.map_or(1, |map| map.shard_count() as usize);
    let mut lanes: Vec<Lane> = std::iter::repeat_with(Lane::default)
        .take(lane_count)
        .collect();
    let mut consumer_of: HashMap<RequestId, RequestId> = HashMap::new();
    for &r in &sorted {
        let lane = lane_of(r);
        if shards.is_some() && r.order.shard != lane as u64 {
            violations.push(Violation::ShardMismatch {
                request: r.id,
                expected_shard: lane as u64,
                witnessed_shard: r.order.shard,
            });
        }

        // The matching M: an element returned from another lane never
        // entered this one.
        let source = match (r.kind, r.result) {
            (OpKind::Enqueue, _) => {
                lanes[lane].unmatched.push((r.order, r.id));
                continue;
            }
            (OpKind::Dequeue, OpResult::Empty) => {
                lanes[lane].empties.push((r.order, r.id));
                continue;
            }
            (OpKind::Dequeue, OpResult::Enqueued) => continue,
            (OpKind::Dequeue, OpResult::Returned(source)) => source,
        };
        let enq = by_id.get(&source).copied();
        let Some(enq) = enq.filter(|e| e.kind == OpKind::Enqueue && lane_of(e) == lane) else {
            let claimed_enqueue = source;
            violations.push(Violation::PhantomElement {
                dequeue: r.id,
                claimed_enqueue,
            });
            continue;
        };
        match consumer_of.entry(enq.id) {
            Entry::Occupied(first) => violations.push(Violation::DuplicateDelivery {
                enqueue: enq.id,
                dequeues: (*first.get(), r.id),
            }),
            Entry::Vacant(slot) => {
                slot.insert(r.id);
                // The structure stores, it never transforms: the dequeue
                // hands back the exact payload its enqueue inserted.
                if r.value != enq.value {
                    violations.push(Violation::PayloadMismatch {
                        enqueue: enq.id,
                        dequeue: r.id,
                        detail: format!("enqueued {:?}, dequeue returned {:?}", enq.value, r.value),
                    });
                }
                lanes[lane].matched.push(Pair {
                    enqueue: enq.id,
                    dequeue: r.id,
                    enqueue_order: enq.order,
                    dequeue_order: r.order,
                });
            }
        }
    }

    // Properties 1–3 per lane.
    for lane in &mut lanes {
        lane.unmatched
            .retain(|(_, id)| !consumer_of.contains_key(id));
        for p in &lane.matched {
            if p.enqueue_order >= p.dequeue_order {
                violations.push(Violation::DequeueBeforeEnqueue {
                    enqueue: p.enqueue,
                    dequeue: p.dequeue,
                });
            }
            let lo = p.enqueue_order.min(p.dequeue_order);
            let hi = p.enqueue_order.max(p.dequeue_order);
            if let Some(empty_dequeue) = first_inside(&lane.empties, lo, hi) {
                violations.push(Violation::EmptyDequeueBetweenMatch {
                    enqueue: p.enqueue,
                    dequeue: p.dequeue,
                    empty_dequeue,
                });
            }
            // LIFO 2b: nothing unmatched on top of the element.
            let on_top = match discipline {
                Discipline::Fifo => None,
                Discipline::Lifo => first_inside(&lane.unmatched, lo, hi),
            };
            if let Some(unmatched_enqueue) = on_top {
                violations.push(Violation::UnmatchedEnqueueOvertaken {
                    unmatched_enqueue,
                    matched_enqueue: p.enqueue,
                    matched_dequeue: p.dequeue,
                });
            }
        }
        lane.matched.sort_by_key(|p| p.enqueue_order);
        let matched = &lane.matched;
        match discipline {
            Discipline::Fifo => {
                // 2b: the first unmatched enqueue overtaken (one witness
                // fails the lane), then 3: elements leave in enqueue order.
                let overtaken = lane.unmatched.first().and_then(|&(first, id)| {
                    let p = matched
                        .iter()
                        .find(|p| first < p.enqueue_order && p.enqueue_order < p.dequeue_order)?;
                    Some(Violation::UnmatchedEnqueueOvertaken {
                        unmatched_enqueue: id,
                        matched_enqueue: p.enqueue,
                        matched_dequeue: p.dequeue,
                    })
                });
                violations.extend(overtaken);
                for w in matched.windows(2) {
                    if w[0].dequeue_order > w[1].dequeue_order {
                        violations.push(Violation::FifoViolation {
                            first_enqueue: w[0].enqueue,
                            second_enqueue: w[1].enqueue,
                        });
                    }
                }
            }
            Discipline::Lifo => {
                // 3: sweep in push order with a stack of the intervals still
                // open at each push; every one of them must enclose it.
                let mut open: Vec<&Pair> = Vec::new();
                for p in matched.iter() {
                    while open
                        .last()
                        .is_some_and(|o| o.dequeue_order < p.enqueue_order)
                    {
                        open.pop();
                    }
                    if let Some(outer) = open.last().filter(|o| p.dequeue_order > o.dequeue_order) {
                        violations.push(Violation::LifoViolation {
                            first_push: outer.enqueue,
                            second_push: p.enqueue,
                        });
                    }
                    open.push(p);
                }
            }
        }
    }

    // The replay: every lane on a reference sequential queue or stack.
    let noun = match discipline {
        Discipline::Fifo => "queue",
        Discipline::Lifo => "stack",
    };
    let mut replay: Vec<VecDeque<RequestId>> = vec![VecDeque::new(); lane_count];
    for &r in &sorted {
        let held = &mut replay[lane_of(r)];
        if r.kind == OpKind::Enqueue {
            held.push_back(r.id);
            continue;
        }
        let expected = match discipline {
            Discipline::Fifo => held.pop_front(),
            Discipline::Lifo => held.pop_back(),
        };
        let detail = match (expected, r.result) {
            (Some(exp), OpResult::Returned(got)) if exp == got => continue,
            (None, OpResult::Empty) => continue,
            (Some(exp), OpResult::Returned(got)) => {
                format!(
                    "returned element of {got}, sequential {noun} would return element of {exp}"
                )
            }
            (Some(exp), OpResult::Empty) => {
                format!("returned ⊥ but sequential {noun} holds element of {exp}")
            }
            (None, OpResult::Returned(got)) => {
                format!("returned element of {got} but sequential {noun} is empty")
            }
            (_, OpResult::Enqueued) => "dequeue recorded with an enqueue result".into(),
        };
        violations.push(Violation::ReplayMismatch {
            request: r.id,
            detail,
        });
    }

    // Program order (property 4), once on the whole order.
    for ops in history.by_process().values() {
        for w in ops.windows(2) {
            if w[0].order >= w[1].order {
                violations.push(Violation::ProcessOrderViolation {
                    earlier: w[0].id,
                    later: w[1].id,
                });
            }
        }
    }

    ConsistencyReport {
        violations,
        records_checked: records.len(),
        matched_pairs: lanes.iter().map(|l| l.matched.len()).sum(),
        empty_dequeues: lanes.iter().map(|l| l.empties.len()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_queue, check_queue_sharded, check_stack};
    use proptest::prelude::*;
    use skueue_sim::ids::ProcessId;
    use skueue_sim::SimRng;

    /// Processes the generator's operations are issued at.
    const PROCESSES: u64 = 12;

    /// A history of independent lanes, one per shard of `map`, with the
    /// generator's own count of matched and `⊥` dequeues.
    struct Generated {
        map: ShardMap,
        history: History<u64>,
        matched: usize,
        empties: usize,
    }

    /// Draws `ops` operations per shard at that shard's processes, runs each
    /// lane on a sequential queue or stack to give every dequeue its result,
    /// keys the lane's `k`-th operation `(wave, shard, k)` with waves that
    /// never go back, and shuffles the merged records (the checker sorts).
    fn generate(seed: u64, shards: u32, ops: u64, discipline: Discipline) -> Generated {
        let map = ShardMap::new(shards, seed);
        let mut rng = SimRng::new(seed);
        let mut seqs = [0; PROCESSES as usize];
        let (mut records, mut matched, mut empties) = (Vec::new(), 0, 0);
        for shard in 0..shards {
            let members: Vec<ProcessId> = (0..PROCESSES)
                .map(ProcessId)
                .filter(|&p| map.shard_of_process(p) == shard)
                .collect();
            if members.is_empty() {
                continue;
            }
            let (mut held, mut wave) = (VecDeque::new(), 0);
            for local in 1..=ops {
                wave += rng.gen_range(2);
                let origin = members[rng.choose_index(members.len())];
                let seq = &mut seqs[origin.raw() as usize];
                let id = RequestId::new(origin, *seq);
                *seq += 1;
                let (kind, result, value) = if rng.gen_bool(0.5) {
                    held.push_back((id, 1000 + local));
                    (OpKind::Enqueue, OpResult::Enqueued, 1000 + local)
                } else {
                    let taken = match discipline {
                        Discipline::Fifo => held.pop_front(),
                        Discipline::Lifo => held.pop_back(),
                    };
                    match taken {
                        Some((source, value)) => {
                            matched += 1;
                            (OpKind::Dequeue, OpResult::Returned(source), value)
                        }
                        None => {
                            empties += 1;
                            (OpKind::Dequeue, OpResult::Empty, 0)
                        }
                    }
                };
                let order = OrderKey::sharded(wave, shard, local, origin);
                records.push(OpRecord {
                    id,
                    kind,
                    value,
                    result,
                    order,
                    issued_round: 0,
                    completed_round: 1,
                });
            }
        }
        for at in (1..records.len()).rev() {
            records.swap(at, rng.choose_index(at + 1));
        }
        let history = History::from_records(records);
        Generated {
            map,
            history,
            matched,
            empties,
        }
    }

    fn has(report: &ConsistencyReport, wanted: fn(&Violation) -> bool) -> bool {
        report.violations.iter().any(wanted)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Independent FIFO lanes pass with the generator's counts, and with
        /// one shard the sharded check is `check_queue`, field for field.
        #[test]
        fn independent_fifo_lanes_pass(seed in any::<u64>(), shards in 1u32..4, ops in 0u64..40) {
            let g = generate(seed, shards, ops, Discipline::Fifo);
            let report = check_queue_sharded(&g.history, &g.map);
            prop_assert!(report.is_consistent(), "{:?}", report.violations);
            prop_assert_eq!(report.records_checked, g.history.len());
            prop_assert_eq!(report.matched_pairs, g.matched);
            prop_assert_eq!(report.empty_dequeues, g.empties);
            if shards == 1 {
                prop_assert_eq!(report, check_queue(&g.history));
            }
        }

        /// The same generator's LIFO lanes pass: one lane as `check_stack`,
        /// several under the lane key.
        #[test]
        fn independent_lifo_lanes_pass(seed in any::<u64>(), shards in 1u32..4, ops in 0u64..40) {
            let one = generate(seed, 1, ops, Discipline::Lifo);
            let report = check_stack(&one.history);
            prop_assert!(report.is_consistent(), "{:?}", report.violations);
            prop_assert_eq!(report.matched_pairs, one.matched);
            prop_assert_eq!(report.empty_dequeues, one.empties);
            let g = generate(seed, shards, ops, Discipline::Lifo);
            let report = check(&g.history, Discipline::Lifo, Some(&g.map));
            prop_assert!(report.is_consistent(), "{:?}", report.violations);
            prop_assert_eq!(report.matched_pairs, g.matched);
        }

        /// Two dequeues of one lane that swap the elements they returned
        /// fail the lane's FIFO order or its replay.
        #[test]
        fn swapped_elements_fail_their_lane(seed in any::<u64>(), shards in 1u32..4, ops in 2u64..40) {
            let g = generate(seed, shards, ops, Discipline::Fifo);
            let mut records = g.history.into_records();
            let lane = |r: &OpRecord<u64>| g.map.shard_of_process(r.id.origin);
            let returned: Vec<usize> = (0..records.len())
                .filter(|&at| matches!(records[at].result, OpResult::Returned(_)))
                .collect();
            let pair = returned.iter().enumerate().find_map(|(i, &a)| {
                let b = returned[i + 1..].iter().find(|&&b| lane(&records[b]) == lane(&records[a]))?;
                Some((a, *b))
            });
            prop_assume!(pair.is_some());
            let (a, b) = pair.unwrap();
            let (result, value) = (records[a].result, records[a].value);
            records[a].result = records[b].result;
            records[a].value = records[b].value;
            records[b].result = result;
            records[b].value = value;
            let history = History::from_records(records);
            let report = check_queue_sharded(&history, &g.map);
            prop_assert!(has(&report, |v| matches!(
                v,
                Violation::FifoViolation { .. } | Violation::ReplayMismatch { .. }
            )), "{:?}", report.violations);
            if shards == 1 {
                prop_assert_eq!(report, check_queue(&history));
            }
        }

        /// A record whose key names another lane's shard is a mismatch.
        #[test]
        fn retagged_record_is_a_shard_mismatch(seed in any::<u64>(), shards in 2u32..4, ops in 1u64..40) {
            let g = generate(seed, shards, ops, Discipline::Fifo);
            let mut records = g.history.into_records();
            prop_assume!(!records.is_empty());
            let at = (seed % records.len() as u64) as usize;
            records[at].order.shard = (records[at].order.shard + 1) % shards as u64;
            let report = check_queue_sharded(&History::from_records(records), &g.map);
            prop_assert!(has(&report, |v| matches!(v, Violation::ShardMismatch { .. })));
        }
    }
}
