//! Deterministic pseudo-random number generation.
//!
//! Experiments must be exactly reproducible across machines and `rand`
//! releases, so the kernel ships its own generator: **xoshiro256\*\***
//! (Blackman & Vigna, 2018), seeded through SplitMix64. It implements
//! `rand_core::TryRng`, and rand's blanket impl gives it [`rand::Rng`],
//! so all of `rand`'s adapters and the workload crate's samplers work on
//! top of it.
//!
//! The generator is also *splittable* via [`Xoshiro256StarStar::split`]
//! (implemented with the canonical `jump()` polynomial), which lets each
//! simulated client/server own an independent deterministic stream.

use std::convert::Infallible;

use rand::rand_core::TryRng;
use rand::SeedableRng;

/// xoshiro256** — a small, fast, high-quality 256-bit PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256StarStar {
    /// Seeds the generator from a single `u64` via SplitMix64, per the
    /// reference implementation's recommendation.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // The all-zero state is the one invalid state; SplitMix64 cannot
        // produce four consecutive zeros from any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Advances `self` by 2^128 steps and returns a generator at the *old*
    /// position. The two streams are guaranteed non-overlapping for 2^128
    /// draws — effectively independent.
    pub fn split(&mut self) -> Self {
        let child = self.clone();
        self.jump();
        child
    }

    /// The canonical xoshiro256 `jump()`: equivalent to 2^128 `next_u64`
    /// calls.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_9759_90cc_bd6a,
            0x3914_3b8a_2c9d_2f0c,
        ];
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for &j in &JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                self.advance();
            }
        }
        self.s = [s0, s1, s2, s3];
    }

    /// A uniformly distributed `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.advance() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The core xoshiro256** state transition, returning the next `u64`.
    #[inline]
    fn advance(&mut self) -> u64 {
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
}

// In rand 0.10, implementors provide `TryRng<Error = Infallible>`; the
// infallible `Rng` trait is then supplied by a blanket impl.
impl TryRng for Xoshiro256StarStar {
    type Error = Infallible;

    #[inline]
    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.advance() >> 32) as u32)
    }

    #[inline]
    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.advance())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.advance().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.advance().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

impl SeedableRng for Xoshiro256StarStar {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, w) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *w = u64::from_le_bytes(b);
        }
        if s == [0; 4] {
            return Xoshiro256StarStar::seed(0);
        }
        Xoshiro256StarStar { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Xoshiro256StarStar::seed(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn reference_vector() {
        // Reference output of xoshiro256** with state {1, 2, 3, 4}
        // (from the public reference implementation).
        // First four outputs verified by hand-executing the state
        // transition: out_n = rotl(5*s1, 7) * 9.
        let mut rng = Xoshiro256StarStar { s: [1, 2, 3, 4] };
        let expected: [u64; 4] = [11520, 0, 1509978240, 1215971899390074240];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256StarStar::seed(42);
        let mut b = Xoshiro256StarStar::seed(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed(1);
        let mut b = Xoshiro256StarStar::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_disjoint_prefixes() {
        let mut parent = Xoshiro256StarStar::seed(7);
        let mut child = parent.split();
        // Child reproduces the original stream; parent jumped far away.
        let mut original = Xoshiro256StarStar::seed(7);
        for _ in 0..100 {
            assert_eq!(child.next_u64(), original.next_u64());
        }
        let mut collisions = 0;
        for _ in 0..100 {
            if parent.next_u64() == child.next_u64() {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn fill_bytes_matches_next_u64() {
        let mut a = Xoshiro256StarStar::seed(5);
        let mut b = Xoshiro256StarStar::seed(5);
        let mut buf = [0u8; 20];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        let w2 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[0..8], &w0);
        assert_eq!(&buf[8..16], &w1);
        assert_eq!(&buf[16..20], &w2[..4]);
    }

    #[test]
    fn seedable_rng_roundtrip() {
        let seed = [7u8; 32];
        let mut a = Xoshiro256StarStar::from_seed(seed);
        let mut b = Xoshiro256StarStar::from_seed(seed);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = Xoshiro256StarStar::from_seed([0u8; 32]);
        assert_ne!(rng.next_u64(), rng.next_u64());
    }
}
