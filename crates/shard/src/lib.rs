//! # skueue-shard — anchor sharding
//!
//! The Skueue anchor is a single assign point: every aggregation wave of the
//! whole system is ordered by the leftmost node (Stage 2), which makes it the
//! protocol's scaling bottleneck once batching and pipelining have removed
//! the per-message overheads.  This crate provides the *deterministic*
//! machinery for splitting that bottleneck into `S` independent **anchor
//! shards** while keeping one global, verifiable total order:
//!
//! * [`ShardMap`] — the pure, stateless map from processes (via their overlay
//!   labels, using the publicly known splittable hash family) to shards, and
//!   from shards to disjoint, exhaustive intervals of the DHT position
//!   keyspace (the shard id occupies the high bits of the 64-bit position).
//! * [`ShardRouter`] — the stateless front-end the cluster driver uses to
//!   assign every client operation to the shard of its issuing process.
//!
//! ## Why per-*process* sharding preserves sequential consistency
//!
//! Every operation of a process is routed to the same shard, so each
//! process's program order is fully contained in one shard's anchor order.
//! Each shard independently constructs a total order of its own operations
//! (its anchor's counter); the global witnessed order `≺` is the fixed
//! lexicographic interleaving `(wave_epoch, shard_id, local_order)` — a
//! deterministic merge that restricts to each shard's order and therefore to
//! every process's program order.  The verifier checks Definition 1 on every
//! shard's sub-history and program order on the merged order
//! (`skueue_verify::check_queue_sharded`); with `S = 1` everything collapses
//! to the unsharded protocol, bit for bit.
//!
//! Elements are placed in the shard of their *enqueuer*, and a dequeue takes
//! from the shard of its *issuer* — the deterministic relaxation that the
//! Skeap/Seap follow-up work shows is what buys scalability without giving up
//! a checkable global order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use skueue_overlay::{Label, LabelHasher};
use skueue_sim::ids::ProcessId;

/// Identifier of one anchor shard (`0..shards`).
pub type ShardId = u32;

/// Largest supported shard count.  The position keyspace split keeps every
/// shard's interval at least `2^64 / MAX_SHARDS ≥ 2^56` positions wide, so a
/// shard-local anchor window can never overflow its interval in practice.
pub const MAX_SHARDS: u32 = 256;

/// The deterministic shard layout of one deployment: how many shards exist,
/// which shard a process belongs to, and which interval of the DHT position
/// keyspace each shard owns.
///
/// A `ShardMap` is a pure function of `(shards, hash_seed)` — the same pair
/// every node, the cluster driver and the verifier already share — so all of
/// them derive identical layouts without any coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
    hasher: LabelHasher,
}

impl ShardMap {
    /// Creates the map for `shards` anchor shards under the given publicly
    /// known hash seed.  `shards == 0` is normalised to 1; counts beyond
    /// [`MAX_SHARDS`] are clamped (the cluster builder rejects them before
    /// they get here).
    pub fn new(shards: u32, hash_seed: u64) -> Self {
        ShardMap {
            shards: shards.clamp(1, MAX_SHARDS),
            hasher: LabelHasher::new(hash_seed),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// True when sharding is effectively disabled.
    pub fn is_single(&self) -> bool {
        self.shards == 1
    }

    /// Shard of an overlay label (the splittable hash split of the label).
    pub(crate) fn shard_of_label(&self, label: Label) -> ShardId {
        self.hasher.shard_of_label(label, self.shards)
    }

    /// Shard of a process: the split of its middle-node label, so every
    /// operation the process ever issues lands in the same shard.
    pub fn shard_of_process(&self, process: ProcessId) -> ShardId {
        self.shard_of_label(self.hasher.process_label(process))
    }

    /// The interval `[lo, hi]` (inclusive) of the global position keyspace
    /// owned by `shard`.  The intervals of all shards are pairwise disjoint
    /// and together cover every `u64` position exactly once.
    #[cfg(test)]
    pub(crate) fn position_interval(&self, shard: ShardId) -> (u64, u64) {
        debug_assert!(shard < self.shards);
        (self.interval_lo(shard), self.interval_hi(shard))
    }

    /// First global position of a shard's interval (`ceil(s · 2^64 / S)`).
    fn interval_lo(&self, shard: ShardId) -> u64 {
        let s = shard as u128;
        let n = self.shards as u128;
        (s << 64).div_ceil(n) as u64
    }

    /// Last global position of a shard's interval.
    fn interval_hi(&self, shard: ShardId) -> u64 {
        if shard + 1 == self.shards {
            u64::MAX
        } else {
            self.interval_lo(shard + 1) - 1
        }
    }

    /// Maps a shard-local position (the anchor's window coordinate, starting
    /// at 1) to the global position the DHT stores it under: the shard id in
    /// the high bits, i.e. an offset into the shard's interval.
    pub fn global_position(&self, shard: ShardId, local: u64) -> u64 {
        let lo = self.interval_lo(shard);
        debug_assert!(
            local <= self.interval_hi(shard) - lo,
            "shard-local position {local} overflows the interval of shard {shard}"
        );
        lo + local
    }

    /// The shard whose interval contains a global position (the inverse of
    /// [`Self::global_position`]).
    pub fn shard_of_position(&self, position: u64) -> ShardId {
        ((position as u128 * self.shards as u128) >> 64) as ShardId
    }
}

/// The driver-side front-end over [`ShardMap`]: assigns every client
/// operation to the shard of its issuing process.  Deliberately stateless —
/// the splittable hash is two multiply-shift mixes, cheaper than any cache
/// lookup, so nothing memoises a process's shard: the membership build and
/// the cluster driver (joins, shard queries, churn trace records) call
/// [`Self::route`] each time.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    map: ShardMap,
}

impl ShardRouter {
    /// Creates a router over the given map.
    pub fn new(map: ShardMap) -> Self {
        ShardRouter { map }
    }

    /// The underlying pure map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Shard of a process.
    pub fn route(&self, process: ProcessId) -> ShardId {
        if self.map.is_single() {
            return 0;
        }
        self.map.shard_of_process(process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_shard_owns_everything() {
        let m = ShardMap::new(1, 7);
        assert!(m.is_single());
        assert_eq!(m.position_interval(0), (0, u64::MAX));
        assert_eq!(m.shard_of_process(ProcessId(42)), 0);
        assert_eq!(m.shard_of_position(u64::MAX), 0);
        assert_eq!(m.global_position(0, 5), 5);
    }

    #[test]
    fn zero_shards_normalises_to_one() {
        assert_eq!(ShardMap::new(0, 1).shard_count(), 1);
        assert_eq!(ShardMap::new(MAX_SHARDS + 9, 1).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn intervals_tile_the_keyspace() {
        for shards in [2u32, 3, 4, 5, 7, 8, 16, MAX_SHARDS] {
            let m = ShardMap::new(shards, 99);
            assert_eq!(m.position_interval(0).0, 0, "S={shards}");
            assert_eq!(m.position_interval(shards - 1).1, u64::MAX, "S={shards}");
            for s in 0..shards - 1 {
                let (_, hi) = m.position_interval(s);
                let (lo_next, _) = m.position_interval(s + 1);
                assert_eq!(
                    hi.wrapping_add(1),
                    lo_next,
                    "gap/overlap at S={shards} s={s}"
                );
            }
        }
    }

    #[test]
    fn global_positions_round_trip_to_their_shard() {
        let m = ShardMap::new(4, 3);
        for s in 0..4 {
            for local in [1u64, 2, 1000, 1 << 40] {
                let g = m.global_position(s, local);
                assert_eq!(m.shard_of_position(g), s);
            }
            let (lo, hi) = m.position_interval(s);
            assert_eq!(m.shard_of_position(lo), s);
            assert_eq!(m.shard_of_position(hi), s);
        }
    }

    #[test]
    fn process_assignment_is_stable_and_covers_shards() {
        let m = ShardMap::new(8, 0x5EED);
        let mut seen = [false; 8];
        for p in 0..256u64 {
            let s = m.shard_of_process(ProcessId(p));
            assert!(s < 8);
            assert_eq!(s, m.shard_of_process(ProcessId(p)), "stability");
            seen[s as usize] = true;
        }
        assert!(
            seen.iter().all(|&b| b),
            "256 processes should hit all 8 shards"
        );
    }

    #[test]
    fn shard_labels_stay_spread_over_the_ring() {
        // Fairness prerequisite: the labels of one shard's processes must not
        // cluster on one arc of the ring (the splittable hash re-mixes, so
        // shard membership is independent of ring position).
        let m = ShardMap::new(4, 1);
        let hasher = LabelHasher::new(1);
        let mut per_shard_halves = [[0u32; 2]; 4];
        for p in 0..2000u64 {
            let label = hasher.process_label(ProcessId(p));
            let s = m.shard_of_label(label) as usize;
            per_shard_halves[s][(label.raw() >> 63) as usize] += 1;
        }
        for (s, halves) in per_shard_halves.iter().enumerate() {
            let total = halves[0] + halves[1];
            assert!(total > 0, "shard {s} empty");
            let frac = halves[0] as f64 / total as f64;
            assert!(
                (0.35..=0.65).contains(&frac),
                "shard {s} clusters on one half of the ring: {frac:.2}"
            );
        }
    }

    #[test]
    fn router_matches_the_map() {
        let map = ShardMap::new(4, 77);
        let router = ShardRouter::new(map);
        for p in 0..64u64 {
            let pid = ProcessId(p);
            assert_eq!(router.route(pid), map.shard_of_process(pid));
        }
        assert_eq!(router.map().shard_count(), 4);
        // Single-shard routing short-circuits.
        assert_eq!(
            ShardRouter::new(ShardMap::new(1, 77)).route(ProcessId(5)),
            0
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The position keyspace is partitioned into disjoint, exhaustive
        /// intervals for arbitrary shard counts and hash seeds: interval
        /// boundaries tile `u64` exactly, and membership (the multiply-shift
        /// inverse) agrees with the intervals at and around every boundary.
        #[test]
        fn prop_position_intervals_partition_keyspace(
            shards in 1u32..(MAX_SHARDS + 1),
            hash_seed in any::<u64>(),
            probe in any::<u64>(),
        ) {
            let m = ShardMap::new(shards, hash_seed);
            // Exhaustive: starts at 0, ends at u64::MAX, no gaps in between.
            prop_assert_eq!(m.position_interval(0).0, 0);
            prop_assert_eq!(m.position_interval(shards - 1).1, u64::MAX);
            for s in 0..shards {
                let (lo, hi) = m.position_interval(s);
                prop_assert!(lo <= hi, "shard {} has an empty interval", s);
                // Disjoint + exhaustive: each boundary belongs to exactly
                // its own shard, and the neighbours meet with no gap.
                prop_assert_eq!(m.shard_of_position(lo), s);
                prop_assert_eq!(m.shard_of_position(hi), s);
                if s > 0 {
                    prop_assert_eq!(m.position_interval(s - 1).1.wrapping_add(1), lo);
                    prop_assert_eq!(m.shard_of_position(lo - 1), s - 1);
                }
            }
            // Any probe position maps into the interval that contains it.
            let s = m.shard_of_position(probe);
            let (lo, hi) = m.position_interval(s);
            prop_assert!(lo <= probe && probe <= hi);
        }

        /// Shard-local positions always map back to their own shard, for
        /// arbitrary layouts (local coordinates are bounded far below the
        /// interval width of even MAX_SHARDS shards).
        #[test]
        fn prop_global_position_round_trips(
            shards in 1u32..(MAX_SHARDS + 1),
            hash_seed in any::<u64>(),
            local in 0u64..(1 << 50),
        ) {
            let m = ShardMap::new(shards, hash_seed);
            for s in 0..shards.min(9) {
                prop_assert_eq!(m.shard_of_position(m.global_position(s, local)), s);
            }
        }
    }
}
