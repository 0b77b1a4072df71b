//! The transport seam: who moves a posted message toward its receiver.
//!
//! Every Skueue message crosses exactly one boundary: an actor hands
//! `(from, to, payload)` to *something* that eventually delivers the payload
//! to `to`'s [`crate::Actor::on_message`].  The [`Transport`] trait names
//! that boundary, and it is the one thing a [`crate::Lane`] is generic over:
//! the lane's visit loop is the same whichever fabric it runs on.  Two
//! fabrics exist:
//!
//! * [`SimTransport`] (this module) — the deterministic delivery wheel of the
//!   round-driven [`crate::Simulation`]: one ring of buckets, a bucket per
//!   future round, each in send order.  Delays are drawn from a seeded RNG
//!   according to a [`DeliveryModel`]; the same stream feeds the lane's
//!   per-visit draw and, under every model but the synchronous one, the
//!   shuffled visit order — the model decides the schedule whole.  For a
//!   fixed seed the schedule is bit-for-bit reproducible, which the
//!   golden-history tests and the benchmark's fingerprint checks rely on.
//!   Each of a simulation's lanes embeds one and calls it statically (the
//!   seam adds no indirection to the hot loop).
//! * `TcpTransport` (crate `skueue-net`) — real-clock delivery for the lane
//!   a `skueue-node` daemon hosts its nodes in: a FIFO between nodes of the
//!   same daemon, delivered next turn, and length-prefixed frames on TCP
//!   sockets to the nodes of other daemons.  No delay model, no
//!   determinism: correctness of a run is established *a posteriori* by the
//!   sequential-consistency checker, which the paper's asynchronous-model
//!   proof permits (arbitrary finite delays, non-FIFO — a queue's and TCP's
//!   per-channel FIFO are strictly stronger).
//!
//! The determinism boundary therefore runs exactly through this trait:
//! everything *behind* `SimTransport` (ring, RNG) is reproducible state;
//! everything behind a real transport is wall-clock.  Protocol code above the
//! seam — and the visit loop — is identical in both worlds.

use crate::delivery::DeliveryModel;
use crate::ids::NodeId;
use crate::message::Envelope;
use crate::metrics::Histogram;
use crate::rng::SimRng;
use crate::Round;
use std::collections::VecDeque;

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

    /// Advances the fabric to turn `turn` of its lane, hands every message
    /// due by then to `deliver` in send order, and returns how many it
    /// handed over.
    fn take_due(&mut self, turn: Round, deliver: impl FnMut(Envelope<M>)) -> usize
    where
        Self: Sized;

    /// Whether `to` is reached through this fabric on another host.  A lane
    /// accepts sends to its own nodes and to remote ones; a simulation lane
    /// is closed, so there nothing is remote.
    fn is_remote(&self, _to: NodeId) -> bool {
        false
    }

    /// Called by the lane right before each visit.
    fn visit_begins(&mut self) {}

    /// Puts a turn's visit list (lane slots, ascending) in the order the
    /// fabric's schedule wants.
    fn order_visits(&mut self, _slots: &mut [usize]) {}
}

/// The deterministic simulation transport: a ring of per-round buckets plus
/// the seeded RNG stream of its lane.
///
/// A message's delay is all the schedule needs of it: the bucket it is pushed
/// into *is* its delivery round, and a bucket's order is the order of the
/// sends.
#[derive(Debug)]
pub struct SimTransport<M> {
    delivery: DeliveryModel,
    /// The lane's independent RNG stream.  Feeds the delay draws, the
    /// per-visit draws and the visit shuffle, in one interleaved sequence —
    /// exactly the historical draw order, which the byte-identical goldens
    /// pin.
    rng: SimRng,
    /// Every delay drawn so far, in rounds.
    pub(crate) delays: Histogram,
    /// The round the owning lane last executed (send round for posts).
    round: Round,
    /// Messages accepted but not yet delivered.
    in_flight: usize,
    /// `ring[d]` holds what is due in round `round + 1 + d`, in send order.
    /// As long as the largest delay drawn so far (one bucket in the
    /// synchronous model); a drained bucket goes to the back, so its storage
    /// is the far end's next bucket and nothing is allocated in steady state.
    ring: VecDeque<Vec<Envelope<M>>>,
}

impl<M> SimTransport<M> {
    /// A fresh transport with the given delivery model and RNG stream.
    pub fn new(delivery: DeliveryModel, rng: SimRng) -> Self {
        SimTransport {
            delivery,
            rng,
            delays: Histogram::default(),
            round: 0,
            in_flight: 0,
            ring: VecDeque::new(),
        }
    }

    /// Schedules a message and returns its delay in rounds, drawn from the
    /// delivery model (at least 1: a message is never delivered in its send
    /// round).
    #[inline]
    fn dispatch(&mut self, from: NodeId, to: NodeId, msg: M) -> Round {
        let delay = self.delivery.draw_delay(&mut self.rng).max(1);
        let slot = (delay - 1) as usize;
        if self.ring.len() <= slot {
            self.ring.resize_with(slot + 1, Vec::new);
        }
        self.ring[slot].push(Envelope {
            from,
            to,
            payload: msg,
        });
        self.in_flight += 1;
        self.delays.record(delay);
        delay
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

    /// Hands out one bucket per round passed, oldest first.
    fn take_due(&mut self, round: Round, mut deliver: impl FnMut(Envelope<M>)) -> usize {
        let mut delivered = 0;
        while self.round < round {
            self.round += 1;
            if let Some(mut bucket) = self.ring.pop_front() {
                delivered += bucket.len();
                bucket.drain(..).for_each(&mut deliver);
                self.ring.push_back(bucket);
            }
        }
        self.in_flight -= delivered;
        delivered
    }

    /// One draw per visit, unused: every recorded schedule (the golden
    /// histories) was taken while this seeded a per-visit actor stream, so
    /// the lane's stream has to advance exactly as it did then.
    #[inline]
    fn visit_begins(&mut self) {
        self.rng.next_u64();
    }

    /// Ascending under the synchronous model, a seeded shuffle under every
    /// other: the asynchronous schedule leaves the order within a round open.
    fn order_visits(&mut self, slots: &mut [usize]) {
        if !self.delivery.is_synchronous() {
            self.rng.shuffle(slots);
        }
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
        let n = t.take_due(1, |env| got.push((env.from, env.to, env.payload)));
        assert_eq!(n, 1);
        assert_eq!(got, vec![(NodeId(0), NodeId(1), 7)]);
        assert_eq!(t.in_flight(), 0);
    }

    /// A step over several rounds hands out the skipped rounds' buckets too,
    /// oldest first.
    #[test]
    fn a_step_over_several_rounds_delivers_every_bucket_in_round_order() {
        let mut t = SimTransport::new(DeliveryModel::uniform(5), SimRng::new(42));
        let delays: Vec<Round> = (0..100u32)
            .map(|i| t.dispatch(NodeId(0), NodeId(1), i))
            .collect();
        let mut got = Vec::new();
        assert_eq!(t.take_due(5, |env| got.push(env.payload)), 100);
        let mut want: Vec<u32> = (0..100).collect();
        want.sort_by_key(|&i| delays[i as usize]);
        assert_eq!(got, want);
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

    fn model(kind: u32, a: u64, b: u64, prob: f64) -> DeliveryModel {
        match kind {
            0 => DeliveryModel::Synchronous,
            1 => DeliveryModel::UniformRandom { max_delay: a + b },
            _ => DeliveryModel::Adversarial {
                straggle_prob: prob,
                straggle_delay: a + b,
            },
        }
    }

    proptest::proptest! {
        /// The ring against the definition it replaces a sort by: whatever
        /// the model, the seed and the sends of each round, every round
        /// hands out exactly the messages a list of `(deliver_at, send
        /// index)` sorted by that key has for it, in that order — nothing
        /// early, late, lost or duplicated.
        #[test]
        fn prop_the_ring_is_a_sort_by_delivery_round_then_send_order(
            seed in proptest::any::<u64>(),
            kind in 0u32..3,
            a in 1u64..6,
            b in 0u64..20,
            prob in 0.0f64..1.0,
            sends_per_round in proptest::collection::vec(0usize..40, 1..30),
        ) {
            let delivery = model(kind, a, b, prob);
            proptest::prop_assert!(delivery.validate().is_ok());
            let mut t = SimTransport::<usize>::new(delivery, SimRng::new(seed));
            let mut reference: Vec<(Round, usize)> = Vec::new();
            let mut got: Vec<(Round, usize)> = Vec::new();
            let mut round: Round = 0;
            let mut sends = sends_per_round.iter();
            while t.in_flight() > 0 || sends.len() > 0 {
                for _ in 0..sends.next().copied().unwrap_or(0) {
                    let index = reference.len();
                    let delay = t.dispatch(NodeId(0), NodeId(index as u64), index);
                    reference.push((round + delay, index));
                }
                proptest::prop_assert_eq!(t.in_flight(), reference.len() - got.len());
                round += 1;
                let before = got.len();
                let n = t.take_due(round, |env| {
                    assert_eq!(env.to, NodeId(env.payload as u64));
                    got.push((round, env.payload));
                });
                proptest::prop_assert_eq!(n, got.len() - before);
                proptest::prop_assert!(round <= sends_per_round.len() as u64 + a + b);
            }
            reference.sort();
            proptest::prop_assert_eq!(got, reference);
            proptest::prop_assert_eq!(t.in_flight(), 0);
        }
    }
}
