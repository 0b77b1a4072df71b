//! Anchor state and position assignment (Stage 2).
//!
//! The anchor — the leftmost node of the LDB — maintains the window
//! `[first, last]` of positions currently occupied by queue elements
//! (invariant: `first ≤ last + 1`), the virtual counter `c` that induces the
//! total order `≺` of Section V, and (for the stack) the monotone `ticket`
//! counter of Section VI.
//!
//! [`AnchorState::assign`] processes one combined batch: every run of the
//! batch receives a [`RunAssignment`] containing its DHT position interval,
//! its first order value, and (for the stack) its ticket information.  The
//! assignments are then decomposed down the aggregation tree (Stage 3, see
//! [`crate::interval`]).
//!
//! Positions start at 1; position 0 is never assigned, which lets an empty
//! interval be represented as `pos_lo > pos_hi` without underflow.

use crate::batch::{Batch, BatchOp};
use crate::config::Mode;

/// The positions, order values and tickets assigned to one run of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunAssignment {
    /// Epoch of the anchor wave that produced this assignment (monotone per
    /// anchor lineage; survives re-anchoring).  In sharded deployments this
    /// is the leading component of the `(wave, shard, local)` order merge;
    /// it travels with the assignment through the Stage 3 decomposition so
    /// every resolved request can witness it.
    pub wave: u64,
    /// Kind of the operations in this run.
    pub kind: BatchOp,
    /// Number of operations in this run.
    pub count: u64,
    /// Lowest assigned DHT position (inclusive). The interval is empty iff
    /// `pos_lo > pos_hi`.
    pub pos_lo: u64,
    /// Highest assigned DHT position (inclusive).
    pub pos_hi: u64,
    /// Order value of the first operation of the run; the `j`-th operation
    /// has order value `value_base + j`.
    pub value_base: u64,
    /// Stack only: for pushes the ticket of the first operation (the `j`-th
    /// push has ticket `ticket_base + j`); for pops the maximum admissible
    /// ticket (identical for every pop of the run). Zero in queue mode.
    pub ticket_base: u64,
    /// Stack pops consume positions from `pos_hi` downwards (the top of the
    /// stack first); everything else consumes from `pos_lo` upwards.
    pub descending: bool,
}

impl RunAssignment {
    /// Number of DHT positions available in the interval.
    pub(crate) fn available_positions(&self) -> u64 {
        if self.pos_lo > self.pos_hi {
            0
        } else {
            self.pos_hi - self.pos_lo + 1
        }
    }
}

/// State maintained by the anchor node (and transferred on anchor hand-off).
///
/// The state is *epoch-aware*: every assigned wave advances [`Self::epoch`],
/// and the epoch travels with the state on re-anchoring (`AnchorTransfer`),
/// so a new anchor continues the wave numbering — and the churn accounting —
/// exactly where the old one stopped, even while older waves are still being
/// decomposed down the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorState {
    /// Lowest occupied position (queue only; `first = last + 1` when empty).
    pub first: u64,
    /// Highest occupied position (`0` together with `first = 1` when empty).
    pub last: u64,
    /// The virtual counter `c` of Section V: the next order value to assign.
    pub counter: u64,
    /// Stack only: number of pushes ever processed (Section VI).
    pub ticket: u64,
    /// Number of waves (combined batches) assigned by the anchor so far.
    pub epoch: u64,
    /// Number of update phases this anchor lineage has started (tags all
    /// update-phase control messages; monotone across re-anchoring).
    pub phases_started: u64,
    /// Pending `JOIN()`/`LEAVE()` requests reported by batch counters and not
    /// yet discharged by an update phase.  Accumulated across waves — with
    /// pipelined waves, batches carrying churn counters can arrive while an
    /// update phase is already running (or while the flag is in flight), and
    /// their counts must survive until the *next* phase instead of being
    /// evaluated per batch in isolation.
    pub pending_churn: u64,
}

impl AnchorState {
    /// Fresh anchor state for an empty queue/stack.
    pub fn new() -> Self {
        AnchorState {
            first: 1,
            last: 0,
            counter: 1,
            ticket: 0,
            epoch: 0,
            phases_started: 0,
            pending_churn: 0,
        }
    }

    /// Number of elements currently in the structure according to the
    /// anchor's window.
    pub fn size(&self) -> u64 {
        (self.last + 1).saturating_sub(self.first)
    }

    /// The invariant `first ≤ last + 1`.
    pub(crate) fn invariant_holds(&self) -> bool {
        self.first <= self.last + 1
    }

    /// Processes one combined batch (Stage 2), folding the batch's
    /// join/leave counters into [`Self::pending_churn`], and returns one
    /// assignment per run of the batch.  Whether the churn triggers an
    /// update phase is decided separately via [`Self::take_update_decision`]
    /// so churn carried by waves assigned *during* an update phase is
    /// deferred, not dropped.
    pub(crate) fn assign_wave(&mut self, batch: &Batch, mode: Mode) -> Vec<RunAssignment> {
        self.pending_churn += batch.joins + batch.leaves;
        self.assign(batch, mode)
    }

    /// Whether there is churn to enter an update phase for now — any pending
    /// `JOIN()`/`LEAVE()` does, which keeps the system maximally up to date;
    /// consumes the pending count and returns the new phase's number when
    /// there is.
    pub(crate) fn take_update_decision(&mut self) -> Option<u64> {
        if self.pending_churn > 0 {
            self.pending_churn = 0;
            self.phases_started += 1;
            Some(self.phases_started)
        } else {
            None
        }
    }

    /// Processes one combined batch (Stage 2) and returns one assignment per
    /// run of the batch.
    pub fn assign(&mut self, batch: &Batch, mode: Mode) -> Vec<RunAssignment> {
        self.epoch += 1;
        let mut assignments = Vec::with_capacity(batch.num_runs());
        for (i, &count) in batch.runs().iter().enumerate() {
            let kind = batch.kind_of_run(i);
            let mut assignment = match (mode, kind) {
                (Mode::Queue, BatchOp::Enqueue) => self.assign_enqueue(count),
                (Mode::Queue, BatchOp::Dequeue) => self.assign_dequeue(count),
                (Mode::Stack, BatchOp::Enqueue) => self.assign_push(count),
                (Mode::Stack, BatchOp::Dequeue) => self.assign_pop(count),
            };
            assignment.wave = self.epoch;
            assignments.push(assignment);
        }
        debug_assert!(self.invariant_holds());
        assignments
    }

    fn take_values(&mut self, count: u64) -> u64 {
        let base = self.counter;
        self.counter += count;
        base
    }

    fn assign_enqueue(&mut self, count: u64) -> RunAssignment {
        let value_base = self.take_values(count);
        let pos_lo = self.last + 1;
        let pos_hi = self.last + count; // empty (lo > hi) when count == 0
        self.last += count;
        RunAssignment {
            wave: 0, // stamped by `assign` once the wave epoch is advanced
            kind: BatchOp::Enqueue,
            count,
            pos_lo,
            pos_hi,
            value_base,
            ticket_base: 0,
            descending: false,
        }
    }

    fn assign_dequeue(&mut self, count: u64) -> RunAssignment {
        let value_base = self.take_values(count);
        let pos_lo = self.first;
        let pos_hi = if count == 0 {
            self.first.saturating_sub(1).max(pos_lo.saturating_sub(1))
        } else {
            (self.first + count - 1).min(self.last)
        };
        self.first = (self.first + count).min(self.last + 1);
        RunAssignment {
            wave: 0, // stamped by `assign` once the wave epoch is advanced
            kind: BatchOp::Dequeue,
            count,
            pos_lo,
            pos_hi,
            value_base,
            ticket_base: 0,
            descending: false,
        }
    }

    fn assign_push(&mut self, count: u64) -> RunAssignment {
        let value_base = self.take_values(count);
        let pos_lo = self.last + 1;
        let pos_hi = self.last + count;
        self.last += count;
        // Tickets are monotone: they advance with every push and never
        // decrease, even when `last` later shrinks on pops.
        let ticket_base = self.ticket + 1;
        self.ticket += count;
        RunAssignment {
            wave: 0, // stamped by `assign` once the wave epoch is advanced
            kind: BatchOp::Enqueue,
            count,
            pos_lo,
            pos_hi,
            value_base,
            ticket_base,
            descending: false,
        }
    }

    fn assign_pop(&mut self, count: u64) -> RunAssignment {
        let value_base = self.take_values(count);
        let pos_hi = self.last;
        let pos_lo = if count == 0 {
            pos_hi + 1
        } else {
            (self.last.saturating_sub(count - 1)).max(1)
        };
        self.last = self.last.saturating_sub(count);
        RunAssignment {
            wave: 0, // stamped by `assign` once the wave epoch is advanced
            kind: BatchOp::Dequeue,
            count,
            pos_lo,
            pos_hi,
            value_base,
            // Pops may take any element pushed so far.
            ticket_base: self.ticket,
            descending: true,
        }
    }
}

impl Default for AnchorState {
    fn default() -> Self {
        AnchorState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::FirstRun;
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

    fn stack_batch(pops: u64, pushes: u64) -> Batch {
        let mut b = Batch::empty_stack();
        b.push_stack_residual(pops, pushes);
        b
    }

    #[test]
    fn fresh_anchor_is_empty() {
        let a = AnchorState::new();
        assert_eq!(a.size(), 0);
        assert!(a.invariant_holds());
        assert_eq!(a.counter, 1);
    }

    #[test]
    fn enqueue_run_extends_window() {
        let mut a = AnchorState::new();
        let asg = a.assign(&queue_batch(&[3]), Mode::Queue);
        assert_eq!(asg.len(), 1);
        assert_eq!(asg[0].pos_lo, 1);
        assert_eq!(asg[0].pos_hi, 3);
        assert_eq!(asg[0].value_base, 1);
        assert_eq!(a.size(), 3);
        assert_eq!(a.counter, 4);
    }

    #[test]
    fn dequeue_run_consumes_from_the_front() {
        let mut a = AnchorState::new();
        a.assign(&queue_batch(&[5]), Mode::Queue);
        let asg = a.assign(&queue_batch(&[0, 2]), Mode::Queue);
        // Run 0 is an empty enqueue run, run 1 the dequeue run.
        assert_eq!(asg[0].count, 0);
        assert_eq!(asg[0].available_positions(), 0);
        assert_eq!(asg[1].pos_lo, 1);
        assert_eq!(asg[1].pos_hi, 2);
        assert_eq!(a.size(), 3);
        assert_eq!(a.first, 3);
    }

    #[test]
    fn dequeue_beyond_size_truncates_interval() {
        let mut a = AnchorState::new();
        a.assign(&queue_batch(&[2]), Mode::Queue);
        let asg = a.assign(&queue_batch(&[0, 5]), Mode::Queue);
        assert_eq!(asg[1].pos_lo, 1);
        assert_eq!(asg[1].pos_hi, 2);
        assert_eq!(asg[1].available_positions(), 2);
        assert_eq!(asg[1].count, 5);
        assert_eq!(a.size(), 0);
        assert!(a.invariant_holds());
    }

    #[test]
    fn dequeue_on_empty_queue_yields_empty_interval() {
        let mut a = AnchorState::new();
        let asg = a.assign(&queue_batch(&[0, 3]), Mode::Queue);
        assert_eq!(asg[1].available_positions(), 0);
        assert!(a.invariant_holds());
    }

    #[test]
    fn mixed_batch_interleaves_runs() {
        // Batch (2, 1, 3): enqueue 2, dequeue 1, enqueue 3.
        let mut a = AnchorState::new();
        let asg = a.assign(&queue_batch(&[2, 1, 3]), Mode::Queue);
        assert_eq!(asg[0].pos_lo, 1);
        assert_eq!(asg[0].pos_hi, 2);
        assert_eq!(asg[1].pos_lo, 1);
        assert_eq!(asg[1].pos_hi, 1);
        assert_eq!(asg[2].pos_lo, 3);
        assert_eq!(asg[2].pos_hi, 5);
        assert_eq!(a.size(), 4); // 5 enqueued, 1 dequeued
                                 // Order values are consecutive over the whole batch.
        assert_eq!(asg[0].value_base, 1);
        assert_eq!(asg[1].value_base, 3);
        assert_eq!(asg[2].value_base, 4);
        assert_eq!(a.counter, 7);
    }

    #[test]
    fn epoch_counts_batches() {
        let mut a = AnchorState::new();
        a.assign(&queue_batch(&[1]), Mode::Queue);
        a.assign(&queue_batch(&[1]), Mode::Queue);
        assert_eq!(a.epoch, 2);
    }

    #[test]
    fn assignments_carry_their_wave_epoch() {
        let mut a = AnchorState::new();
        let first = a.assign(&queue_batch(&[2, 1]), Mode::Queue);
        assert!(first.iter().all(|r| r.wave == 1));
        let second = a.assign(&queue_batch(&[1]), Mode::Queue);
        assert!(second.iter().all(|r| r.wave == 2));
        // The epoch travels with the state across re-anchoring, so a
        // transferred anchor continues the wave numbering.
        let mut transferred = a;
        assert!(transferred
            .assign(&queue_batch(&[1]), Mode::Queue)
            .iter()
            .all(|r| r.wave == 3));
    }

    #[test]
    fn assign_wave_matches_assign_and_advances_the_epoch() {
        let mut a = AnchorState::new();
        let mut b = AnchorState::new();
        let batch = queue_batch(&[2, 1]);
        let runs = a.assign_wave(&batch, Mode::Queue);
        assert_eq!(runs, b.assign(&batch, Mode::Queue));
        assert_eq!(a.epoch, 1);
        a.assign_wave(&batch, Mode::Queue);
        assert_eq!(a.epoch, 2);
    }

    #[test]
    fn churn_accumulates_across_waves_and_is_consumed_on_trigger() {
        let mut a = AnchorState::new();
        assert_eq!(a.take_update_decision(), None, "no churn, no phase");
        // Two waves assigned while a phase is open (the node does not ask
        // then): their counts are deferred, not dropped.
        let mut batch = queue_batch(&[1]);
        batch.joins = 1;
        a.assign_wave(&batch, Mode::Queue);
        let mut batch = queue_batch(&[0]);
        batch.leaves = 2;
        a.assign_wave(&batch, Mode::Queue);
        assert_eq!(a.pending_churn, 3);
        assert_eq!(a.take_update_decision(), Some(1), "phases are numbered");
        assert_eq!(a.pending_churn, 0, "a triggered phase consumes the count");
        assert_eq!(a.take_update_decision(), None);
    }

    #[test]
    fn stack_push_assigns_tickets() {
        let mut a = AnchorState::new();
        let asg = a.assign(&stack_batch(0, 3), Mode::Stack);
        // Run 0 is the (empty) pop run, run 1 the push run.
        assert_eq!(asg[1].ticket_base, 1);
        assert_eq!(asg[1].pos_lo, 1);
        assert_eq!(asg[1].pos_hi, 3);
        assert_eq!(a.ticket, 3);
        assert_eq!(a.last, 3);
    }

    #[test]
    fn stack_pop_takes_from_the_top() {
        let mut a = AnchorState::new();
        a.assign(&stack_batch(0, 5), Mode::Stack);
        let asg = a.assign(&stack_batch(2, 0), Mode::Stack);
        assert_eq!(asg[0].kind, BatchOp::Dequeue);
        assert!(asg[0].descending);
        assert_eq!(asg[0].pos_lo, 4);
        assert_eq!(asg[0].pos_hi, 5);
        assert_eq!(asg[0].ticket_base, 5);
        assert_eq!(a.last, 3);
    }

    #[test]
    fn stack_position_reuse_gets_fresh_tickets() {
        let mut a = AnchorState::new();
        // push, pop, push: the second push reuses position 1 but must get a
        // larger ticket (this is exactly the scenario Section VI motivates).
        let t1 = a.assign(&stack_batch(0, 1), Mode::Stack)[1].ticket_base;
        a.assign(&stack_batch(1, 0), Mode::Stack);
        let t2 = a.assign(&stack_batch(0, 1), Mode::Stack)[1].ticket_base;
        assert_eq!(a.last, 1);
        assert!(t2 > t1, "tickets must be monotone: {t1} then {t2}");
    }

    #[test]
    fn stack_pop_on_empty_yields_empty_interval() {
        let mut a = AnchorState::new();
        let asg = a.assign(&stack_batch(4, 0), Mode::Stack);
        assert_eq!(asg[0].available_positions(), 0);
        assert_eq!(a.last, 0);
    }

    #[test]
    fn stack_pop_beyond_size_truncates() {
        let mut a = AnchorState::new();
        a.assign(&stack_batch(0, 2), Mode::Stack);
        let asg = a.assign(&stack_batch(5, 0), Mode::Stack);
        assert_eq!(asg[0].pos_lo, 1);
        assert_eq!(asg[0].pos_hi, 2);
        assert_eq!(a.last, 0);
        let _ = FirstRun::Dequeues; // layout sanity: residuals always start with pops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The anchor window invariant holds and the counter advances by the
        /// total number of operations, for arbitrary batch sequences.
        #[test]
        fn prop_anchor_invariants(batches in proptest::collection::vec(
            proptest::collection::vec(0u64..10, 0..5), 0..20))
        {
            let mut a = AnchorState::new();
            let mut expected_counter = 1u64;
            for runs in &batches {
                let b = queue_batch(runs);
                expected_counter += b.total_ops();
                let asg = a.assign(&b, Mode::Queue);
                prop_assert!(a.invariant_holds());
                prop_assert_eq!(a.counter, expected_counter);
                // Enqueue intervals always have exactly `count` positions.
                for run in &asg {
                    if run.kind == BatchOp::Enqueue {
                        prop_assert_eq!(run.available_positions(), run.count);
                    } else {
                        prop_assert!(run.available_positions() <= run.count);
                    }
                }
            }
        }

        /// The queue size tracked by the anchor equals enqueues minus matched
        /// dequeues, and dequeue intervals never hand out positions that were
        /// not enqueued.
        #[test]
        fn prop_queue_size_is_conserved(batches in proptest::collection::vec(
            (0u64..8, 0u64..8), 0..30))
        {
            let mut a = AnchorState::new();
            let mut model_size = 0u64;
            for &(enq, deq) in &batches {
                let mut b = Batch::empty();
                for _ in 0..enq { b.push_op(BatchOp::Enqueue); }
                for _ in 0..deq { b.push_op(BatchOp::Dequeue); }
                let asg = a.assign(&b, Mode::Queue);
                model_size += enq;
                let served = asg.iter()
                    .filter(|r| r.kind == BatchOp::Dequeue)
                    .map(|r| r.available_positions().min(r.count))
                    .sum::<u64>();
                model_size -= served;
                prop_assert_eq!(a.size(), model_size);
            }
        }

        /// Stack tickets are strictly monotone over pushes and `last` never
        /// goes negative.
        #[test]
        fn prop_stack_tickets_monotone(batches in proptest::collection::vec(
            (0u64..6, 0u64..6), 0..30))
        {
            let mut a = AnchorState::new();
            let mut last_ticket = 0u64;
            for &(pops, pushes) in &batches {
                let asg = a.assign(&stack_batch(pops, pushes), Mode::Stack);
                for run in &asg {
                    if run.kind == BatchOp::Enqueue && run.count > 0 {
                        prop_assert!(run.ticket_base > last_ticket);
                        last_ticket = run.ticket_base + run.count - 1;
                    }
                }
                prop_assert!(a.invariant_holds());
            }
        }
    }
}
