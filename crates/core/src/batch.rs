//! Operation batches (Definition 5).
//!
//! A batch is a run-length encoding of a sequence of queue operations:
//! `(op₁, …, op_k)` where odd indices (1-based) count consecutive
//! `ENQUEUE()` requests and even indices count consecutive `DEQUEUE()`
//! requests.  Two batches are combined by element-wise addition (padding the
//! shorter one with zeros).  Section IV extends batches with two extra
//! counters for the number of `JOIN()` and `LEAVE()` requests the sender is
//! responsible for.
//!
//! For the stack variant (Section VI) the same type is used, with the roles
//! of the runs fixed by the local-combining argument: a node's residual
//! operations always have the shape `POP()^a · PUSH()^b`, i.e. a batch of at
//! most two runs (Theorem 20).  The stack encodes this as run 1 = *dequeues*
//! (pops) and run 2 = *enqueues* (pushes); see `Batch::push_stack_residual`.

use std::fmt;

/// Kind of a single queue operation inside a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchOp {
    /// `ENQUEUE()` / `PUSH()`.
    Enqueue,
    /// `DEQUEUE()` / `POP()`.
    Dequeue,
}

/// Whether the first run of a batch counts enqueues (queue layout) or
/// dequeues (stack layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstRun {
    /// Run 1 counts enqueues — the queue layout of Definition 5.
    Enqueues,
    /// Run 1 counts dequeues (pops) — the residual layout of the stack.
    Dequeues,
}

/// A batch of queue operations (Definition 5) plus join/leave counters
/// (Section IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Run lengths. `runs[i]` counts operations of kind
    /// [`Batch::kind_of_run`]`(i)`. An empty vector is the empty batch `(0)`.
    runs: Vec<u64>,
    /// Which operation kind the first run counts.
    first: FirstRun,
    /// Number of `JOIN()` requests the sender has become responsible for
    /// since its last batch (`B.j`).
    pub joins: u64,
    /// Number of `LEAVE()` requests the sender has become responsible for
    /// since its last batch (`B.l`).
    pub leaves: u64,
}

impl Batch {
    /// The empty queue-layout batch `(0)`.
    pub fn empty() -> Self {
        Batch {
            runs: Vec::new(),
            first: FirstRun::Enqueues,
            joins: 0,
            leaves: 0,
        }
    }

    /// The empty stack-layout batch.
    pub(crate) fn empty_stack() -> Self {
        Batch {
            runs: Vec::new(),
            first: FirstRun::Dequeues,
            joins: 0,
            leaves: 0,
        }
    }

    /// Reassembles a batch from its parts — the inverse of reading
    /// [`Batch::runs`], [`Batch::first_run`] and the two public counters.
    /// Used by wire codecs (`skueue-net`) to decode a batch that travelled
    /// as plain fields; protocol code builds batches with
    /// [`Batch::push_op`]/[`Batch::combine`] instead.
    pub fn from_parts(first: FirstRun, runs: Vec<u64>, joins: u64, leaves: u64) -> Self {
        Batch {
            runs,
            first,
            joins,
            leaves,
        }
    }

    /// True when the batch carries no queue operations (it may still carry
    /// join/leave counts).
    pub(crate) fn has_no_ops(&self) -> bool {
        self.total_ops() == 0
    }

    /// Number of runs.
    pub(crate) fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// The run lengths.
    pub fn runs(&self) -> &[u64] {
        &self.runs
    }

    /// Layout of the batch.
    pub fn first_run(&self) -> FirstRun {
        self.first
    }

    /// Kind of operations counted by run `index` (0-based).
    pub(crate) fn kind_of_run(&self, index: usize) -> BatchOp {
        let first_kind = match self.first {
            FirstRun::Enqueues => BatchOp::Enqueue,
            FirstRun::Dequeues => BatchOp::Dequeue,
        };
        if index.is_multiple_of(2) {
            first_kind
        } else {
            match first_kind {
                BatchOp::Enqueue => BatchOp::Dequeue,
                BatchOp::Dequeue => BatchOp::Enqueue,
            }
        }
    }

    /// Total number of queue operations in the batch.
    pub(crate) fn total_ops(&self) -> u64 {
        self.runs.iter().sum()
    }

    /// Size of the batch in "entries" — the quantity Theorem 18 bounds.
    /// (Run counts plus the two join/leave counters.)
    pub(crate) fn size(&self) -> usize {
        self.runs.len() + 2
    }

    /// Appends one operation generated locally by the owner of the batch,
    /// preserving the local issue order (Section III-A).
    pub fn push_op(&mut self, op: BatchOp) {
        let idx = self.runs.len();
        if idx > 0 && self.kind_of_run(idx - 1) == op {
            self.runs[idx - 1] += 1;
        } else if idx == 0 && self.kind_of_run(0) != op {
            // The first generated op is of the "second" kind: insert an empty
            // first run so indices keep their meaning.
            self.runs.push(0);
            self.runs.push(1);
        } else {
            self.runs.push(1);
        }
    }

    /// Builds the residual a stack node sends after local combining: `pops`
    /// surplus `POP()`s (issued first) followed by `pushes` surviving
    /// `PUSH()`es.  Only valid for stack-layout batches.  (The node itself
    /// arrives there one [`Self::push_op`]/[`Self::pop_last_op`] at a time;
    /// the tests state the result directly.)
    #[cfg(test)]
    pub(crate) fn push_stack_residual(&mut self, pops: u64, pushes: u64) {
        debug_assert_eq!(self.first, FirstRun::Dequeues);
        debug_assert!(
            self.runs.is_empty(),
            "residual must be set on an empty batch"
        );
        if pops == 0 && pushes == 0 {
            return;
        }
        self.runs.push(pops);
        if pushes > 0 {
            self.runs.push(pushes);
        }
    }

    /// Removes the most recently pushed operation again (used by the stack's
    /// local combining: the matched push is always the last unsent
    /// operation).  Panics if the batch has no operations.
    pub(crate) fn pop_last_op(&mut self) {
        let last = self.runs.last_mut().expect("pop_last_op on an empty batch");
        assert!(*last > 0, "pop_last_op on an empty trailing run");
        *last -= 1;
        while matches!(self.runs.last(), Some(0)) {
            self.runs.pop();
        }
    }

    /// Combines another batch into this one (element-wise addition of run
    /// lengths, addition of the join/leave counters).  Both batches must use
    /// the same layout.
    pub fn combine(&mut self, other: &Batch) {
        debug_assert_eq!(self.first, other.first, "cannot combine different layouts");
        if self.runs.len() < other.runs.len() {
            self.runs.resize(other.runs.len(), 0);
        }
        for (i, &c) in other.runs.iter().enumerate() {
            self.runs[i] += c;
        }
        self.joins += other.joins;
        self.leaves += other.leaves;
    }

    /// [`Self::combine`] for a batch that is not needed afterwards: an empty
    /// batch takes `other` whole instead of allocating runs for a copy.
    pub(crate) fn merge(&mut self, other: Batch) {
        if self.runs.is_empty() && self.joins == 0 && self.leaves == 0 {
            debug_assert_eq!(self.first, other.first, "cannot combine different layouts");
            *self = other;
        } else {
            self.combine(&other);
        }
    }
}

impl Default for Batch {
    fn default() -> Self {
        Batch::empty()
    }
}

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.runs.is_empty() {
            write!(f, "(0)")?;
        } else {
            write!(f, "(")?;
            for (i, c) in self.runs.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, ")")?;
        }
        if self.joins > 0 || self.leaves > 0 {
            write!(f, "[j={},l={}]", self.joins, self.leaves)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_batch() {
        let b = Batch::empty();
        assert!(b.has_no_ops());
        assert_eq!(b.total_ops(), 0);
        assert_eq!(b.to_string(), "(0)");
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn push_op_respects_local_order() {
        // Issue order: E E D D D E  →  runs (2, 3, 1).
        let mut b = Batch::empty();
        for op in [
            BatchOp::Enqueue,
            BatchOp::Enqueue,
            BatchOp::Dequeue,
            BatchOp::Dequeue,
            BatchOp::Dequeue,
            BatchOp::Enqueue,
        ] {
            b.push_op(op);
        }
        assert_eq!(b.runs(), &[2, 3, 1]);
        assert_eq!(b.kind_of_run(0), BatchOp::Enqueue);
        assert_eq!(b.kind_of_run(1), BatchOp::Dequeue);
        assert_eq!(b.kind_of_run(2), BatchOp::Enqueue);
    }

    #[test]
    fn first_op_dequeue_inserts_empty_run() {
        // Issue order: D E  →  runs (0, 1, 1): zero enqueues, one dequeue, one enqueue.
        let mut b = Batch::empty();
        b.push_op(BatchOp::Dequeue);
        b.push_op(BatchOp::Enqueue);
        assert_eq!(b.runs(), &[0, 1, 1]);
    }

    #[test]
    fn combine_pads_and_adds() {
        let mut a = Batch::empty();
        a.push_op(BatchOp::Enqueue); // (1)
        let mut b = Batch::empty();
        b.push_op(BatchOp::Dequeue);
        b.push_op(BatchOp::Dequeue);
        b.push_op(BatchOp::Enqueue); // (0, 2, 1)
        a.combine(&b);
        assert_eq!(a.runs(), &[1, 2, 1]);
        assert_eq!(a.total_ops(), 4);
    }

    #[test]
    fn combine_carries_join_leave_counters() {
        let mut a = Batch::empty();
        a.joins = 2;
        let mut b = Batch::empty();
        b.leaves = 3;
        b.joins = 1;
        a.combine(&b);
        assert_eq!(a.joins, 3);
        assert_eq!(a.leaves, 3);
        assert!(a.has_no_ops());
        assert_eq!(a.to_string(), "(0)[j=3,l=3]");
    }

    #[test]
    fn stack_layout_runs() {
        let mut b = Batch::empty_stack();
        b.push_stack_residual(2, 3);
        assert_eq!(b.runs(), &[2, 3]);
        assert_eq!(b.kind_of_run(0), BatchOp::Dequeue);
        assert_eq!(b.kind_of_run(1), BatchOp::Enqueue);
        // Constant size regardless of the number of requests (Theorem 20).
        assert!(b.size() <= 4);
    }

    #[test]
    fn stack_residual_with_only_pops() {
        let mut b = Batch::empty_stack();
        b.push_stack_residual(5, 0);
        assert_eq!(b.runs(), &[5]);
    }

    #[test]
    fn pop_last_op_undoes_push() {
        let mut b = Batch::empty();
        b.push_op(BatchOp::Enqueue);
        b.push_op(BatchOp::Dequeue);
        b.pop_last_op();
        assert_eq!(b.runs(), &[1]);
        b.pop_last_op();
        assert!(b.has_no_ops());
        assert!(b.runs().is_empty());

        // Leading-zero case: D pushed first, then popped again.
        let mut b = Batch::empty();
        b.push_op(BatchOp::Dequeue);
        assert_eq!(b.runs(), &[0, 1]);
        b.pop_last_op();
        assert!(b.runs().is_empty());
    }

    #[test]
    fn display_formats() {
        let mut b = Batch::empty();
        b.push_op(BatchOp::Enqueue);
        b.push_op(BatchOp::Dequeue);
        assert_eq!(b.to_string(), "(1,1)");
    }

    proptest! {
        /// Batch combination is commutative and associative on the counts
        /// (the order of sub-batches only matters for interval decomposition,
        /// not for the combined run lengths).
        #[test]
        fn prop_combine_commutative_associative(
            a in proptest::collection::vec(0u64..20, 0..6),
            b in proptest::collection::vec(0u64..20, 0..6),
            c in proptest::collection::vec(0u64..20, 0..6),
        ) {
            let mk = |runs: &[u64]| {
                let mut batch = Batch::empty();
                for (i, &count) in runs.iter().enumerate() {
                    for _ in 0..count {
                        batch.push_op(if i % 2 == 0 { BatchOp::Enqueue } else { BatchOp::Dequeue });
                    }
                }
                batch
            };
            let (ba, bb, bc) = (mk(&a), mk(&b), mk(&c));

            let mut ab = ba.clone();
            ab.combine(&bb);
            let mut ba_ = bb.clone();
            ba_.combine(&ba);
            prop_assert_eq!(ab.runs(), ba_.runs());

            let mut ab_c = ab.clone();
            ab_c.combine(&bc);
            let mut bc_ = bc.clone();
            bc_.combine(&bb);
            let mut a_bc = ba.clone();
            a_bc.combine(&bc_);
            prop_assert_eq!(ab_c.runs(), a_bc.runs());
            prop_assert_eq!(ab_c.total_ops(), ba.total_ops() + bb.total_ops() + bc.total_ops());
        }

        /// Pushing ops one by one always yields runs that sum to the number of
        /// pushed ops and alternate kinds correctly.
        #[test]
        fn prop_push_op_preserves_counts(ops in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut b = Batch::empty();
            for &is_enq in &ops {
                b.push_op(if is_enq { BatchOp::Enqueue } else { BatchOp::Dequeue });
            }
            prop_assert_eq!(b.total_ops() as usize, ops.len());
            let enqueues: u64 = b.runs().iter().step_by(2).sum();
            prop_assert_eq!(enqueues as usize, ops.iter().filter(|&&x| x).count());
            // Runs after the first are never zero.
            for (i, &run) in b.runs().iter().enumerate() {
                if i > 0 {
                    prop_assert!(run > 0);
                }
            }
        }
    }
}
