//! Publicly known pseudorandom hash functions.
//!
//! The paper assumes two such functions: one mapping process identifiers to
//! middle-node labels, and one mapping DHT positions `p ∈ ℕ₀` to keys
//! `k(p) ∈ [0, 1)`.  Both are realised here as keyed SplitMix64-style
//! mixers.  The functions are deterministic, stable across runs and
//! dependency versions, and statistically close to uniform — which is what
//! the fairness results (Lemma 4, Corollary 19) rely on.

use crate::label::Label;
use skueue_sim::ids::ProcessId;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A keyed hash that maps identifiers and positions onto the unit ring.
///
/// Two hashers with the same seed agree on every input; different seeds give
/// (statistically) independent placements — the test-suite uses this to check
/// that results do not depend on one lucky hash layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelHasher {
    seed: u64,
}

impl LabelHasher {
    /// Creates a hasher with the given seed.
    pub fn new(seed: u64) -> Self {
        LabelHasher { seed }
    }

    /// The seed of this hasher.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hashes an arbitrary 64-bit value to a label.
    #[inline]
    pub(crate) fn hash_u64(&self, value: u64) -> Label {
        // Two rounds of mixing keyed by the seed; the golden-ratio constant
        // decorrelates consecutive integers.
        let x = value
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed.rotate_left(17) ^ 0xD1B5_4A32_D192_ED03);
        Label(mix(mix(x) ^ self.seed))
    }

    /// Label of the *middle* virtual node of a process ("applying a publicly
    /// known pseudorandom hash function on the identifier `v.id`").
    #[inline]
    pub fn process_label(&self, id: ProcessId) -> Label {
        self.hash_u64(id.raw() ^ 0xA076_1D64_78BD_642F)
    }

    /// DHT key `k(p)` of queue position `p` (Section II-B).
    #[inline]
    pub fn position_key(&self, position: u64) -> Label {
        self.hash_u64(position ^ 0xE703_7ED1_A0B4_28DB)
    }

    /// Anchor shard a label belongs to, for a system running `shards` anchor
    /// shards: a *splittable* member of this hash family — the label is
    /// re-mixed under the same seed and the result multiply-shifted into
    /// `0..shards` — so shard membership is (statistically) independent of
    /// the label's ring position.  That independence matters: each shard's
    /// nodes must stay uniformly spread over the unit ring, or one node per
    /// shard would own almost the whole key interval and the DHT fairness of
    /// Lemma 4 would collapse.  With `shards` 0 or 1 the multiply-shift
    /// itself yields shard 0.
    #[inline]
    pub fn shard_of_label(&self, label: Label, shards: u32) -> u32 {
        let mixed = self.hash_u64(label.raw() ^ 0x5A4D_A9C1_55AA_D007).raw();
        ((mixed as u128 * shards as u128) >> 64) as u32
    }
}

impl Default for LabelHasher {
    fn default() -> Self {
        LabelHasher::new(0x534B_5545_5545_0001) // "SKUEUE"-flavoured default seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic() {
        let h = LabelHasher::new(42);
        assert_eq!(h.process_label(ProcessId(7)), h.process_label(ProcessId(7)));
        assert_eq!(h.position_key(123), h.position_key(123));
    }

    #[test]
    fn different_inputs_differ() {
        let h = LabelHasher::new(42);
        assert_ne!(h.process_label(ProcessId(1)), h.process_label(ProcessId(2)));
        assert_ne!(h.position_key(1), h.position_key(2));
        assert_ne!(h.process_label(ProcessId(1)), h.position_key(1));
    }

    #[test]
    fn different_seeds_differ() {
        let a = LabelHasher::new(1);
        let b = LabelHasher::new(2);
        let collisions = (0..1000u64)
            .filter(|&i| a.position_key(i) == b.position_key(i))
            .count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn positions_spread_roughly_uniformly() {
        // Consistent hashing fairness (Lemma 4) needs the key distribution to
        // be close to uniform. Bucket 10_000 consecutive positions into 16
        // bins and check no bin is wildly over- or under-full.
        let h = LabelHasher::default();
        let mut bins = [0usize; 16];
        let n = 10_000u64;
        for p in 0..n {
            let key = h.position_key(p);
            bins[(key.raw() >> 60) as usize] += 1;
        }
        let expected = n as f64 / 16.0;
        for &count in &bins {
            assert!(
                (count as f64) > expected * 0.8 && (count as f64) < expected * 1.2,
                "bin count {count} deviates too much from {expected}"
            );
        }
    }

    #[test]
    fn process_labels_spread_roughly_uniformly() {
        let h = LabelHasher::default();
        let mut bins = [0usize; 8];
        let n = 8_000u64;
        for p in 0..n {
            bins[(h.process_label(ProcessId(p)).raw() >> 61) as usize] += 1;
        }
        let expected = n as f64 / 8.0;
        for &count in &bins {
            assert!((count as f64) > expected * 0.8 && (count as f64) < expected * 1.2);
        }
    }

    #[test]
    fn default_seed_is_fixed() {
        assert_eq!(LabelHasher::default().seed(), LabelHasher::default().seed());
    }

    proptest! {
        #[test]
        fn prop_no_accidental_identity(v in any::<u64>()) {
            // The hash should not be the identity / a trivial shift for any input.
            let h = LabelHasher::new(99);
            prop_assert_ne!(h.hash_u64(v).raw(), v);
        }

        #[test]
        fn prop_consecutive_positions_far_apart_on_average(p in 0u64..u64::MAX - 1) {
            // Not a strict guarantee per pair, but gross clustering of
            // consecutive keys would break fairness; require that at least the
            // pair is not identical.
            let h = LabelHasher::default();
            prop_assert_ne!(h.position_key(p), h.position_key(p + 1));
        }
    }
}
