//! Deterministic random number generation for the simulator.
//!
//! Every source of randomness in the workspace flows through [`SimRng`] so
//! that a simulation run is exactly reproducible from `(seed, config)`.
//! The generator is a small, fast `xoshiro256**`-style PRNG implemented
//! locally (on top of a SplitMix64 seeder), so the sequences — and with them
//! the history fingerprints the determinism tests and the benchmark pin —
//! depend on nothing outside this file.

/// SplitMix64 step — used for seeding and for stateless hashing elsewhere.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic, seedable PRNG used by the simulation and the workload
/// generators (xoshiro256** core).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // Avoid the all-zero state (astronomically unlikely, but cheap to guard).
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    #[inline]
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    #[inline]
    pub(crate) fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range_inclusive requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_range(span + 1)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn gen_unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.gen_unit() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub(crate) fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n <= 1 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.gen_range((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element index of a non-empty slice.
    pub fn choose_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot choose from an empty collection");
        self.gen_range(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SimRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_inclusive_respects_bounds() {
        let mut rng = SimRng::new(9);
        for _ in 0..500 {
            let v = rng.gen_range_inclusive(5, 9);
            assert!((5..=9).contains(&v));
        }
        assert_eq!(rng.gen_range_inclusive(3, 3), 3);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SimRng::new(11);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(10) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 each; allow generous slack.
            assert!(
                (8_500..=11_500).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn gen_unit_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            let x = rng.gen_unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::new(3);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
        let trues = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..=3_000).contains(&trues), "got {trues}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left slice unchanged"
        );
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut s1 = 99u64;
        let mut s2 = 99u64;
        assert_eq!(splitmix64(&mut s1), splitmix64(&mut s2));
        assert_eq!(s1, s2);
    }
}
