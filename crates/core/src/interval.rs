//! Interval decomposition (Stage 3).
//!
//! When a node receives the [`RunAssignment`]s for the combined batch it sent
//! up the aggregation tree, it splits every run among the sub-batches that
//! were combined into it — in exactly the order in which they were combined —
//! and forwards the sub-assignments to the corresponding children (its own
//! requests are resolved locally).  Applying this recursively assigns a
//! position (or `⊥`) and an order value to every single request.

use crate::anchor::RunAssignment;
use crate::batch::Batch;

impl RunAssignment {
    /// Splits off the assignment for the first `count` operations of this
    /// run, leaving `self` as the assignment for the remaining operations.
    ///
    /// Enqueue runs always have enough positions; dequeue runs may run out,
    /// in which case the split-off part receives only the positions that are
    /// left (the rest of its operations will return `⊥`).
    pub(crate) fn split_front(&mut self, count: u64) -> RunAssignment {
        let take = count.min(self.count);
        let mut sub = *self;
        sub.count = take;

        let available = self.available_positions();
        let positions_taken = take.min(available);

        if self.descending {
            // Stack pops: hand out the highest positions first.
            if positions_taken == 0 {
                // Empty sub-interval, represented with lo > hi above the
                // remaining interval.
                sub.pos_lo = self.pos_hi + 1;
                sub.pos_hi = self.pos_hi;
            } else {
                sub.pos_hi = self.pos_hi;
                sub.pos_lo = self.pos_hi - positions_taken + 1;
                self.pos_hi -= positions_taken;
            }
        } else {
            if positions_taken == 0 {
                // Normalise an empty interval as (lo, lo-1); pos_lo ≥ 1 always
                // holds because position 0 is never assigned.
                sub.pos_lo = self.pos_lo;
                sub.pos_hi = self.pos_lo - 1;
            } else {
                sub.pos_lo = self.pos_lo;
                sub.pos_hi = self.pos_lo + positions_taken - 1;
                self.pos_lo += positions_taken;
            }
        }

        // Order values are consumed front-to-back in all cases.
        sub.value_base = self.value_base;
        self.value_base += take;
        self.count -= take;

        // Tickets: pushes consume ticket numbers front-to-back; pops share a
        // single upper bound, so nothing changes.
        if !self.descending && self.ticket_base > 0 && sub.kind == crate::batch::BatchOp::Enqueue {
            sub.ticket_base = self.ticket_base;
            self.ticket_base += take;
        }

        sub
    }
}

/// Decomposes the run assignments of a combined batch among its sub-batches,
/// in combination order.
///
/// `assignments` must have one entry per run of the combined batch;
/// `sub_batches` are the batches that were combined (the combined batch's
/// run `i` equals the sum of the sub-batches' runs `i`).  Returns one vector
/// of run assignments per sub-batch, padded with zero-count runs so indices
/// line up with the sub-batch's own runs.
pub fn decompose(assignments: &[RunAssignment], sub_batches: &[&Batch]) -> Vec<Vec<RunAssignment>> {
    let mut cursors: Vec<RunAssignment> = assignments.to_vec();
    let mut result: Vec<Vec<RunAssignment>> = vec![Vec::new(); sub_batches.len()];
    for (run_idx, cursor) in cursors.iter_mut().enumerate() {
        for (sub_idx, sub) in sub_batches.iter().enumerate() {
            let count = sub.runs().get(run_idx).copied().unwrap_or(0);
            if run_idx < sub.num_runs() {
                let piece = cursor.split_front(count);
                result[sub_idx].push(piece);
            }
        }
        debug_assert_eq!(
            cursor.count, 0,
            "sub-batches must account for every operation of run {run_idx}"
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anchor::AnchorState;
    use crate::batch::{Batch, BatchOp};
    use crate::config::Mode;
    use proptest::prelude::*;

    fn queue_batch(runs: &[u64]) -> Batch {
        let mut b = Batch::empty();
        for (i, &count) in runs.iter().enumerate() {
            for _ in 0..count {
                b.push_op(if i % 2 == 0 {
                    BatchOp::Enqueue
                } else {
                    BatchOp::Dequeue
                });
            }
        }
        b
    }

    #[test]
    fn split_front_partitions_enqueue_interval() {
        let mut a = AnchorState::new();
        let mut run = a.assign(&queue_batch(&[10]), Mode::Queue).remove(0);
        let first = run.split_front(4);
        let second = run.split_front(6);
        assert_eq!(first.pos_lo, 1);
        assert_eq!(first.pos_hi, 4);
        assert_eq!(second.pos_lo, 5);
        assert_eq!(second.pos_hi, 10);
        assert_eq!(first.value_base, 1);
        assert_eq!(second.value_base, 5);
        assert_eq!(run.count, 0);
    }

    #[test]
    fn split_front_handles_dequeue_shortfall() {
        let mut a = AnchorState::new();
        a.assign(&queue_batch(&[3]), Mode::Queue);
        // 5 dequeues but only 3 elements: positions 1..=3.
        let mut run = a.assign(&queue_batch(&[0, 5]), Mode::Queue).remove(1);
        let first = run.split_front(2);
        let second = run.split_front(3);
        assert_eq!(first.pos_lo, 1);
        assert_eq!(first.pos_hi, 2);
        assert_eq!(first.available_positions(), 2);
        // Second sub-run gets the single remaining position; its other two
        // operations will return ⊥.
        assert_eq!(second.pos_lo, 3);
        assert_eq!(second.pos_hi, 3);
        assert_eq!(second.available_positions(), 1);
        assert_eq!(second.count, 3);
    }

    #[test]
    fn split_front_empty_interval_stays_empty() {
        let mut a = AnchorState::new();
        let mut run = a.assign(&queue_batch(&[0, 4]), Mode::Queue).remove(1);
        assert_eq!(run.available_positions(), 0);
        let first = run.split_front(2);
        let second = run.split_front(2);
        assert_eq!(first.available_positions(), 0);
        assert_eq!(second.available_positions(), 0);
        assert_eq!(first.count, 2);
        assert_eq!(second.count, 2);
        // Order values still advance so every ⊥ gets a unique order.
        assert_eq!(second.value_base, first.value_base + 2);
    }

    #[test]
    fn split_front_descending_takes_top_first() {
        let mut a = AnchorState::new();
        let mut sb = Batch::empty_stack();
        sb.push_stack_residual(0, 6);
        a.assign(&sb, Mode::Stack);
        let mut pops = Batch::empty_stack();
        pops.push_stack_residual(4, 0);
        let mut run = a.assign(&pops, Mode::Stack).remove(0);
        // Positions 3..=6 available, taken from the top.
        let first = run.split_front(2);
        let second = run.split_front(2);
        assert_eq!(first.pos_hi, 6);
        assert_eq!(first.pos_lo, 5);
        assert_eq!(second.pos_hi, 4);
        assert_eq!(second.pos_lo, 3);
        assert!(first.descending && second.descending);
    }

    #[test]
    fn split_front_descending_shortfall() {
        let mut a = AnchorState::new();
        let mut sb = Batch::empty_stack();
        sb.push_stack_residual(0, 2);
        a.assign(&sb, Mode::Stack);
        let mut pops = Batch::empty_stack();
        pops.push_stack_residual(5, 0);
        let mut run = a.assign(&pops, Mode::Stack).remove(0);
        assert_eq!(run.available_positions(), 2);
        let first = run.split_front(3);
        let second = run.split_front(2);
        // The first three pops get the two available positions (2 then 1 left
        // for them), the remaining two pops get nothing.
        assert_eq!(first.available_positions(), 2);
        assert_eq!(second.available_positions(), 0);
    }

    #[test]
    fn split_front_stack_push_tickets_are_partitioned() {
        let mut a = AnchorState::new();
        let mut sb = Batch::empty_stack();
        sb.push_stack_residual(0, 7);
        let mut run = a.assign(&sb, Mode::Stack).remove(1);
        let first = run.split_front(3);
        let second = run.split_front(4);
        assert_eq!(first.ticket_base, 1);
        assert_eq!(second.ticket_base, 4);
        assert_eq!(first.pos_lo, 1);
        assert_eq!(second.pos_lo, 4);
    }

    #[test]
    fn decompose_splits_per_sub_batch() {
        // Combined batch from three sub-batches:
        //   sub A = (2, 1), sub B = (1), sub C = (0, 2)  →  combined (3, 3)
        let a = queue_batch(&[2, 1]);
        let b = queue_batch(&[1]);
        let c = queue_batch(&[0, 2]);
        let mut combined = a.clone();
        combined.combine(&b);
        combined.combine(&c);
        assert_eq!(combined.runs(), &[3, 3]);

        let mut anchor = AnchorState::new();
        anchor.assign(&queue_batch(&[10]), Mode::Queue); // pre-fill 10 elements
        let assignments = anchor.assign(&combined, Mode::Queue);
        let parts = decompose(&assignments, &[&a, &b, &c]);

        assert_eq!(parts.len(), 3);
        // Sub A: 2 enqueues at positions 11-12, 1 dequeue at position 1.
        assert_eq!(parts[0][0].pos_lo, 11);
        assert_eq!(parts[0][0].pos_hi, 12);
        assert_eq!(parts[0][1].pos_lo, 1);
        assert_eq!(parts[0][1].pos_hi, 1);
        // Sub B: 1 enqueue at position 13 (no dequeue run).
        assert_eq!(parts[1][0].pos_lo, 13);
        assert_eq!(parts[1][0].pos_hi, 13);
        assert_eq!(parts[1].len(), 1);
        // Sub C: empty enqueue run, 2 dequeues at positions 2-3.
        assert_eq!(parts[2][0].count, 0);
        assert_eq!(parts[2][1].pos_lo, 2);
        assert_eq!(parts[2][1].pos_hi, 3);
    }

    #[test]
    fn decompose_value_bases_are_disjoint_and_ordered() {
        let a = queue_batch(&[2, 2]);
        let b = queue_batch(&[3, 1]);
        let mut combined = a.clone();
        combined.combine(&b);
        let mut anchor = AnchorState::new();
        let assignments = anchor.assign(&combined, Mode::Queue);
        let parts = decompose(&assignments, &[&a, &b]);
        // Collect (value_base, count) for every sub-run and check global
        // uniqueness of the covered value ranges.
        let mut covered = vec![];
        for part in &parts {
            for run in part {
                for v in run.value_base..run.value_base + run.count {
                    covered.push(v);
                }
            }
        }
        covered.sort_unstable();
        let expected: Vec<u64> = (1..=combined.total_ops()).collect();
        assert_eq!(covered, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Decomposition partitions positions and order values exactly, for
        /// arbitrary sub-batch shapes and arbitrary pre-existing queue state.
        #[test]
        fn prop_decompose_partitions(
            prefill in 0u64..20,
            subs in proptest::collection::vec(
                proptest::collection::vec(0u64..6, 0..5), 1..6),
        ) {
            let sub_batches: Vec<Batch> = subs.iter().map(|runs| queue_batch(runs)).collect();
            let refs: Vec<&Batch> = sub_batches.iter().collect();
            let mut combined = Batch::empty();
            for b in &sub_batches { combined.combine(b); }

            let mut anchor = AnchorState::new();
            if prefill > 0 {
                anchor.assign(&queue_batch(&[prefill]), Mode::Queue);
            }
            let before = anchor;
            let assignments = anchor.assign(&combined, Mode::Queue);
            let parts = decompose(&assignments, &refs);

            // Every sub-run's op count matches its sub-batch.
            for (part, sub) in parts.iter().zip(&sub_batches) {
                prop_assert_eq!(part.len(), sub.num_runs());
                for (run_idx, run) in part.iter().enumerate() {
                    prop_assert_eq!(run.count, sub.runs()[run_idx]);
                }
            }

            // Order values cover exactly [before.counter, before.counter + total).
            let mut values: Vec<u64> = parts
                .iter()
                .flatten()
                .flat_map(|r| r.value_base..r.value_base + r.count)
                .collect();
            values.sort_unstable();
            let expected: Vec<u64> =
                (before.counter..before.counter + combined.total_ops()).collect();
            prop_assert_eq!(values, expected);

            // Enqueue positions cover exactly (before.last, anchor.last].
            let mut enq_positions: Vec<u64> = parts
                .iter()
                .flatten()
                .filter(|r| r.kind == BatchOp::Enqueue && r.available_positions() > 0)
                .flat_map(|r| r.pos_lo..=r.pos_hi)
                .collect();
            let mut expected_enq: Vec<u64> = ((before.last + 1)..=anchor.last).collect();
            enq_positions.sort_unstable();
            expected_enq.sort_unstable();
            prop_assert_eq!(enq_positions, expected_enq);

            // Dequeue positions are distinct and lie in [before.first, anchor.first).
            let mut deq_positions: Vec<u64> = parts
                .iter()
                .flatten()
                .filter(|r| r.kind == BatchOp::Dequeue && r.available_positions() > 0)
                .flat_map(|r| r.pos_lo..=r.pos_hi)
                .collect();
            deq_positions.sort_unstable();
            let expected_deq: Vec<u64> = (before.first..anchor.first).collect();
            prop_assert_eq!(deq_positions, expected_deq);
        }
    }
}
