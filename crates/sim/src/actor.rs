//! The [`Actor`] trait and the per-invocation [`Context`].
//!
//! An actor corresponds to the paper's notion of a node executing *actions*:
//! a message is a remote action call, and `TIMEOUT` is the single action
//! executed periodically without a triggering message.
//!
//! Everything an actor hands to the world goes through its context: the
//! messages it sends, and three sinks its host lends it — samples
//! ([`Context::observe`]), trace events ([`Context::trace`]) and records of
//! finished work ([`Context::report`]).  An actor keeps none of them.

use crate::ids::NodeId;
use crate::metrics::Histogram;
use crate::Round;
use skueue_trace::{TraceEvent, TraceRecord};
use std::any::Any;

/// A protocol node that lives in a [`crate::Lane`] — a simulation's or a
/// daemon's.
///
/// Implementations must be deterministic given the sequence of delivered
/// messages and timeouts.  Actors and their messages are `Send`: a
/// simulation round may run a lane on another thread
/// ([`crate::Simulation::run_round`]).
pub trait Actor: Send {
    /// Payload type of the messages this actor exchanges.
    type Msg: Clone + std::fmt::Debug + Send;

    /// Handles a delivered message (`m ∈ v.Ch` being processed).
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Context<Self::Msg>);

    /// The periodic `TIMEOUT` action, executed once per round in the
    /// synchronous model and regularly in the asynchronous model.
    fn on_timeout(&mut self, ctx: &mut Context<Self::Msg>);

    /// Whether the node's `TIMEOUT` action would currently do anything.
    ///
    /// Defaults to `true` (a timeout every round, the paper's model).  An
    /// actor may return `false` while its timeout is *provably a no-op* —
    /// e.g. a Skueue node whose batch is pending up the aggregation tree —
    /// and the lane then skips the visit entirely, which is what makes
    /// large quiescent simulations cheap.  The lane re-queries this after
    /// every visit and after every driver action ([`crate::Lane::act`]), so
    /// the answer may change with any of them.  Returning `false` never
    /// suppresses message delivery.
    fn wants_timeout(&self) -> bool {
        true
    }
}

/// Handle through which an actor interacts with the outside world during a
/// single `on_message` / `on_timeout` invocation.
///
/// All outgoing messages are buffered and handed to the lane's fabric after
/// the invocation returns, so an actor always observes a consistent snapshot
/// of its own state while handling one event.  The sample, trace and report
/// sinks are the host's: a lane keeps one context, and so one of each, for
/// all its nodes.
#[derive(Debug)]
pub struct Context<M> {
    self_id: NodeId,
    round: Round,
    pub(crate) outbox: Vec<(NodeId, M)>,
    /// The host's sample sink, lent for the invocation (see
    /// [`Self::observe`]); `None` when the host keeps none.
    pub(crate) samples: Option<Vec<Histogram>>,
    /// The host's trace sink, lent the same way (see [`Self::trace`]).
    pub(crate) traces: Option<Vec<TraceRecord>>,
    /// The host's report sink, lent the same way (see [`Self::report`]):
    /// a `Vec<(NodeId, R)>` once something used it, type-erased because
    /// the context is generic over the message type only.
    reports: Option<Box<dyn Any + Send>>,
    /// Messages an actor is still assembling, lent the same way (see
    /// [`Self::staged`]).
    staged: Vec<(NodeId, M)>,
}

impl<M> Context<M> {
    /// Creates a context for one invocation, with no sample or trace sink
    /// (it keeps what is reported, see [`Self::reports`]).  Used by the
    /// lanes and by unit tests of actors.
    pub fn new(self_id: NodeId, round: Round) -> Self {
        Context {
            self_id,
            round,
            outbox: Vec::new(),
            samples: None,
            traces: None,
            reports: None,
            staged: Vec::new(),
        }
    }

    /// Re-arms the context for another invocation, keeping its buffers (the
    /// outbox must have been emptied).  A lane keeps one context and re-arms
    /// it for every visit and driver action, so an invocation moves no
    /// buffer in or out.
    #[inline]
    pub(crate) fn rearm(&mut self, self_id: NodeId, round: Round) {
        debug_assert!(
            self.outbox.is_empty(),
            "the previous visit's sends were not posted"
        );
        // Checked in release builds too: a message left here would be sent
        // by the next actor the context is lent to, under that actor's id.
        assert!(
            self.staged.is_empty(),
            "the previous visit left messages staged"
        );
        self.self_id = self_id;
        self.round = round;
    }

    /// The id of the node currently executing.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The current round: the lane's turn count.
    #[inline]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Sends `msg` to `to`.  When it is delivered is the lane's fabric's
    /// decision (in the simulation, its [`crate::DeliveryModel`]).
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Records `sample` in the host's distribution number `series`.
    ///
    /// Protocol-level distributions (batch sizes, hop counts, …) are only
    /// ever read summed over all nodes, so an actor reports each sample to
    /// its host instead of keeping a histogram of its own: a lane keeps one
    /// per series ([`crate::Lane::observed`], summed over the lanes by
    /// [`crate::Simulation::observed`]), and a node owns no statistics
    /// storage at all.  A context without a sink drops the sample.
    #[inline]
    pub fn observe(&mut self, series: usize, sample: u64) {
        if let Some(sink) = &mut self.samples {
            if sink.len() <= series {
                sink.resize_with(series + 1, Histogram::default);
            }
            sink[series].record(sample);
        }
    }

    /// Records a lifecycle event of the executing node, filed under anchor
    /// shard `shard`.
    ///
    /// Like samples, events go to the host rather than into a buffer of the
    /// node's own: a lane keeps one buffer ([`crate::Lane::drain_trace`]),
    /// which the simulation hands to the driver's `TraceLog` after every
    /// round ([`crate::Simulation::run_round`]).  A context without a sink
    /// drops the event; callers that trace conditionally check their level
    /// first, so an untraced run never builds one.
    #[inline]
    pub fn trace(&mut self, shard: u32, event: TraceEvent) {
        if let Some(sink) = &mut self.traces {
            sink.push(TraceRecord {
                node: self.self_id.0,
                shard,
                event,
            });
        }
    }

    /// Reports `record`, something the executing node has finished for the
    /// world outside the lane (a Skueue node reports the history record of
    /// every request it completes).
    ///
    /// Like samples and trace events, a record goes to the host rather than
    /// into a buffer of the node's own: the lane keeps one sink, tagged
    /// with the reporting node, and its host drains it
    /// ([`crate::Lane::drain_reports`], [`crate::Simulation::drain_reports`]).
    ///
    /// # Panics
    ///
    /// Panics when the sink already holds records of another type.
    #[inline]
    pub fn report<R: Send + 'static>(&mut self, record: R) {
        let node = self.self_id;
        self.reports().push((node, record));
    }

    /// The host's report sink: every record reported and not yet drained,
    /// in report order, with its reporting node.  It holds one type, fixed
    /// by its first use.
    ///
    /// # Panics
    ///
    /// Panics when `R` is not that type.
    pub fn reports<R: Send + 'static>(&mut self) -> &mut Vec<(NodeId, R)> {
        self.reports
            .get_or_insert_with(|| Box::new(Vec::<(NodeId, R)>::new()))
            .downcast_mut()
            .expect("a context's reports are all of one type")
    }

    /// Messages the executing actor is still assembling: a buffer the host
    /// lends for the invocation, like the sample and trace sinks, and keeps
    /// for every invocation after it.
    ///
    /// An actor that coalesces what it sends during a visit (a Skueue node
    /// gathers its routed operations into one batch per next hop) builds
    /// the messages here instead of in containers of its own, and moves
    /// each to [`Self::send`] before the invocation ends: the buffer must be
    /// empty again when the host re-arms the context or takes its outbox
    /// (both assert it, in release builds too).
    #[inline]
    pub fn staged(&mut self) -> &mut Vec<(NodeId, M)> {
        &mut self.staged
    }

    /// Consumes the context and returns the buffered outgoing messages.
    pub fn into_outbox(self) -> Vec<(NodeId, M)> {
        assert!(
            self.staged.is_empty(),
            "the invocation left messages staged"
        );
        self.outbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Echo {
        received: Vec<(NodeId, u32)>,
        timeouts: usize,
    }

    impl Actor for Echo {
        type Msg = u32;

        fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<u32>) {
            self.received.push((from, msg));
            ctx.send(from, msg + 1);
        }

        fn on_timeout(&mut self, _ctx: &mut Context<u32>) {
            self.timeouts += 1;
        }
    }

    #[test]
    fn context_buffers_sends() {
        let mut ctx = Context::new(NodeId(0), 5);
        assert_eq!(ctx.self_id(), NodeId(0));
        assert_eq!(ctx.round(), 5);
        ctx.send(NodeId(1), "a");
        ctx.send(NodeId(2), "b");
        ctx.send(NodeId(0), "self");
        let out = ctx.into_outbox();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], (NodeId(1), "a"));
    }

    /// Reports carry their reporting node and keep their order; the sink
    /// holds one type.
    #[test]
    #[should_panic(expected = "a context's reports are all of one type")]
    fn a_second_report_type_panics() {
        let mut ctx: Context<u32> = Context::new(NodeId(4), 1);
        ctx.report(7u64);
        ctx.rearm(NodeId(2), 1);
        ctx.report(8u64);
        assert_eq!(ctx.reports::<u64>(), &[(NodeId(4), 7), (NodeId(2), 8)]);
        ctx.report("a record of another type");
    }

    #[test]
    fn echo_actor_replies() {
        let mut echo = Echo::default();
        let mut ctx = Context::new(NodeId(3), 1);
        echo.on_message(NodeId(9), 41, &mut ctx);
        let out = ctx.into_outbox();
        assert_eq!(out, vec![(NodeId(9), 42)]);
        assert_eq!(echo.received, vec![(NodeId(9), 41)]);
    }
}
