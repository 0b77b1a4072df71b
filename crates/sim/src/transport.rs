//! The transport seam: who moves a posted message toward its receiver.
//!
//! Every Skueue message crosses exactly one boundary: an actor hands
//! `(from, to, payload)` to *something* that eventually delivers the payload
//! to `to`'s [`crate::Actor::on_message`].  The [`Transport`] trait names
//! that boundary.  Two implementations exist:
//!
//! * [`SimTransport`] (this module) — the deterministic delivery wheel the
//!   round-driven [`crate::Simulation`] has always used.  Delays are drawn
//!   from a seeded RNG according to a [`DeliveryModel`]; for a fixed seed the
//!   schedule is bit-for-bit reproducible, which the golden-history tests
//!   and the benchmark's fingerprint checks rely on.  [`crate::scheduler::Simulation`]'s lanes
//!   embed one `SimTransport` each and call its inherent methods directly
//!   (static dispatch — the seam adds no indirection to the hot loop).
//! * `TcpTransport` (crate `skueue-net`) — real-clock delivery for the nodes
//!   a `skueue-node` daemon hosts on one thread: a FIFO between nodes of the
//!   same daemon, length-prefixed frames on TCP sockets between daemons.  No
//!   delay model, no determinism: correctness of a run is established *a
//!   posteriori* by the sequential-consistency checker, which the paper's
//!   asynchronous-model proof permits (arbitrary finite delays, non-FIFO —
//!   a queue's and TCP's per-channel FIFO are strictly stronger).
//!
//! The determinism boundary therefore runs exactly through this trait:
//! everything *behind* `SimTransport` (wheel, RNG, sequence numbers) is
//! reproducible state; everything behind a real transport is wall-clock.
//! Protocol code above the seam is identical in both worlds.

use crate::delivery::DeliveryModel;
use crate::ids::NodeId;
use crate::message::Envelope;
use crate::rng::SimRng;
use crate::Round;
use std::collections::BTreeMap;

/// Upper bound on parked spare bucket vectors.  Delivery models bound the
/// number of distinct in-flight `deliver_at` rounds (1 for synchronous,
/// `max_delay` / `straggle_delay` otherwise), so a small pool suffices; the
/// cap only guards against unbounded growth under pathological models.
const SPARE_BUCKET_LIMIT: usize = 64;

/// A message fabric at the `SkueueMsg<T>` boundary: accepts the messages an
/// actor produced and moves them toward delivery.
///
/// Implementors decide *when* and *in which order* a message reaches its
/// destination; the protocol tolerates any finite schedule (the paper's
/// asynchronous model), so a conforming transport only promises that every
/// accepted message is delivered exactly once, eventually.
pub trait Transport<M> {
    /// Accepts one message from `from` addressed to `to`.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M);

    /// Number of messages accepted but not yet handed to a receiver, as far
    /// as this transport can observe (a real network transport reports its
    /// local queues only).
    fn in_flight(&self) -> usize;

    /// Human-readable backend name (for logs and reports).
    fn name(&self) -> &'static str;
}

/// The deterministic simulation transport: a round-bucketed delivery wheel
/// plus the seeded delay RNG and the per-lane message sequence.
///
/// This is the machinery that used to live inline in the scheduler's lanes;
/// it was extracted so the delivery schedule has a name and a second,
/// real-clock implementation can exist beside it.  The lane still calls the
/// inherent methods (`Self::dispatch`, [`Self::take_due`]) directly, so
/// the extraction is invisible to both the optimizer and the goldens.
#[derive(Debug)]
pub struct SimTransport<M> {
    delivery: DeliveryModel,
    /// The lane's independent RNG stream.  Feeds the delay draws *and* the
    /// per-visit context seeds, in one interleaved sequence — exactly the
    /// historical draw order, which the byte-identical goldens pin.
    pub(crate) rng: SimRng,
    /// Monotone per-transport message sequence (tie-breaker metadata).
    seq: u64,
    /// The round the owning lane last executed (send round for posts).
    round: Round,
    /// Messages accepted but not yet delivered.
    in_flight: usize,
    /// Round-bucketed delivery wheel: `deliver_at → envelopes` in send order.
    /// The next round's bucket is kept out of the map in `hot_bucket`, so in
    /// the synchronous model (and for every delay-1 message) a post is a
    /// plain `Vec::push` with no map traversal.
    wheel: BTreeMap<Round, Vec<Envelope<M>>>,
    /// The round `hot_bucket` collects messages for (always `round + 1`
    /// while actors run).
    hot_round: Round,
    /// Bucket for `hot_round`, appended to in send (= seq) order.
    hot_bucket: Vec<Envelope<M>>,
    /// Emptied bucket vectors parked for reuse (see [`SPARE_BUCKET_LIMIT`]).
    spare_buckets: Vec<Vec<Envelope<M>>>,
}

impl<M> SimTransport<M> {
    /// A fresh transport with the given delivery model and RNG stream.
    pub fn new(delivery: DeliveryModel, rng: SimRng) -> Self {
        SimTransport {
            delivery,
            rng,
            seq: 0,
            round: 0,
            in_flight: 0,
            wheel: BTreeMap::new(),
            hot_round: 1,
            hot_bucket: Vec::new(),
            spare_buckets: Vec::new(),
        }
    }

    /// The round this transport considers "now" (the owning lane's clock).
    #[inline]
    pub(crate) fn round(&self) -> Round {
        self.round
    }

    /// Mutable access to the transport's RNG stream.  The lane draws once
    /// per visit (and its shuffle) from the same stream as the delay draws
    /// (historical behavior the goldens depend on).
    #[inline]
    pub(crate) fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules a message and returns its delivery round.  The delay is
    /// drawn from the delivery model (at least 1: a message is never
    /// delivered in its send round).
    #[inline]
    pub(crate) fn dispatch(&mut self, from: NodeId, to: NodeId, msg: M) -> Round {
        let delay = self.delivery.draw_delay(&mut self.rng).max(1);
        let deliver_at = self.round + delay;
        let seq = self.seq;
        self.seq += 1;
        self.in_flight += 1;
        let envelope = Envelope {
            from,
            to,
            sent_at: self.round,
            deliver_at,
            seq,
            payload: msg,
        };
        if deliver_at == self.hot_round {
            self.hot_bucket.push(envelope);
        } else {
            self.wheel
                .entry(deliver_at)
                .or_insert_with(|| self.spare_buckets.pop().unwrap_or_default())
                .push(envelope);
        }
        deliver_at
    }

    /// Advances the transport's clock to `round`, hands every envelope due
    /// in it to `deliver` (hot bucket first, then wheel buckets in ascending
    /// `deliver_at`; each bucket was filled in send order, so the overall
    /// sequence is `(deliver_at, seq)`-ordered), rotates the hot bucket to
    /// `round + 1`, and returns the number of delivered envelopes.
    pub fn take_due(&mut self, round: Round, mut deliver: impl FnMut(Envelope<M>)) -> usize {
        self.round = round;
        let mut delivered_total = 0usize;
        if self.hot_round == round {
            let mut bucket = std::mem::take(&mut self.hot_bucket);
            delivered_total += bucket.len();
            for env in bucket.drain(..) {
                deliver(env);
            }
            self.hot_bucket = bucket;
        }
        while let Some(entry) = self.wheel.first_entry() {
            if *entry.key() > round {
                break;
            }
            let mut bucket = entry.remove();
            delivered_total += bucket.len();
            for env in bucket.drain(..) {
                deliver(env);
            }
            if self.spare_buckets.len() < SPARE_BUCKET_LIMIT {
                self.spare_buckets.push(bucket);
            }
        }
        self.in_flight -= delivered_total;

        // Advance the hot bucket to the next round: adopt an already-open
        // wheel bucket for it (keeping seq order — its envelopes were posted
        // earlier), or reuse the drained vector.
        self.hot_round = round + 1;
        if let Some(early) = self.wheel.remove(&(round + 1)) {
            let drained = std::mem::replace(&mut self.hot_bucket, early);
            if self.spare_buckets.len() < SPARE_BUCKET_LIMIT {
                self.spare_buckets.push(drained);
            }
        }
        delivered_total
    }
}

impl<M> Transport<M> for SimTransport<M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.dispatch(from, to, msg);
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sync_transport() -> SimTransport<u32> {
        SimTransport::new(DeliveryModel::Synchronous, SimRng::new(1))
    }

    #[test]
    fn synchronous_dispatch_delivers_next_round() {
        let mut t = sync_transport();
        assert_eq!(t.dispatch(NodeId(0), NodeId(1), 7), 1);
        assert_eq!(t.in_flight(), 1);
        let mut got = Vec::new();
        let n = t.take_due(1, |env| got.push((env.to, env.payload, env.seq)));
        assert_eq!(n, 1);
        assert_eq!(got, vec![(NodeId(1), 7, 0)]);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn envelopes_arrive_in_deliver_at_then_seq_order() {
        let mut t = SimTransport::new(
            DeliveryModel::UniformRandom {
                min_delay: 1,
                max_delay: 5,
            },
            SimRng::new(42),
        );
        for i in 0..100u32 {
            t.dispatch(NodeId(0), NodeId(1), i);
        }
        let mut seen: Vec<(Round, u64)> = Vec::new();
        for round in 1..=6 {
            t.take_due(round, |env| {
                assert_eq!(env.deliver_at, round);
                seen.push((env.deliver_at, env.seq));
            });
        }
        assert_eq!(seen.len(), 100, "nothing lost");
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "(deliver_at, seq) order");
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn trait_object_send_works() {
        let mut t = sync_transport();
        let dynamic: &mut dyn Transport<u32> = &mut t;
        dynamic.send(NodeId(0), NodeId(1), 1);
        assert_eq!(dynamic.in_flight(), 1);
        assert_eq!(dynamic.name(), "sim");
    }
}
