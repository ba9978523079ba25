//! Arithmetic in GF(2⁸).
//!
//! The field is GF(2)[x] / (x⁸+x⁴+x³+x²+1), i.e. reduction polynomial
//! `0x11D` with generator `2` — the construction used by most storage
//! erasure codes (ISA-L, Jerasure, Backblaze RS).
//!
//! Element addition is XOR; multiplication uses compile-time exp/log
//! tables. The hot encode/decode path is not per-byte multiplication but
//! the one slice kernel, [`mul_acc_slice`]: per coding row it streams
//! `dst ^= c·src` over shard-sized byte slices. It is the ISA-L
//! split-nibble kernel: multiplication by a constant is linear over
//! GF(2), so `c·s = c·(s & 0x0f) ^ c·(s & 0xf0)` and two 16-entry tables
//! per coefficient replace the log/exp indirection and its zero test.
//! Sixteen entries are exactly one `pshufb` register, which looks up 16
//! bytes at once: on x86_64 with SSSE3 detected at run time the kernel
//! takes 16-byte blocks that way, and the same tables in a scalar loop
//! handle the tail there and the whole slice on every other machine.

/// Reduction polynomial x⁸+x⁴+x³+x²+1 (the `0x1D` low byte).
pub const POLY: u16 = 0x11D;

/// exp/log tables, built at compile time.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

const fn build_tables() -> Tables {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Duplicate the table so exp[log a + log b] needs no mod 255.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    Tables { exp, log }
}

static TABLES: Tables = build_tables();

/// `MUL_LO[c][n] = c·n` and `MUL_HI[c][n] = c·(n << 4)`: the two
/// 16-entry product tables of every coefficient (the
/// `MUL_TABLE_LOW`/`MUL_TABLE_HIGH` shape of ISA-L and
/// `reed_solomon_erasure::galois_8`).
static MUL_LO: [[u8; 16]; 256] = build_nibble_products(0);
static MUL_HI: [[u8; 16]; 256] = build_nibble_products(4);

const fn build_nibble_products(shift: u32) -> [[u8; 16]; 256] {
    let t = build_tables();
    let mut products = [[0u8; 16]; 256];
    let mut c = 1;
    while c < 256 {
        let mut n = 1;
        while n < 16 {
            let logs = t.log[c] as usize + t.log[n << shift] as usize;
            products[c][n] = t.exp[logs];
            n += 1;
        }
        c += 1;
    }
    products
}

/// Field addition (and subtraction): XOR.
#[inline(always)]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via log/exp tables.
#[inline(always)]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        TABLES.exp[TABLES.log[a as usize] as usize + TABLES.log[b as usize] as usize]
    }
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics on `a == 0` (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "0 has no multiplicative inverse in GF(256)");
    TABLES.exp[255 - TABLES.log[a as usize] as usize]
}

/// Field division `a / b`.
///
/// # Panics
///
/// Panics on division by zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        let la = TABLES.log[a as usize] as usize;
        let lb = TABLES.log[b as usize] as usize;
        TABLES.exp[la + 255 - lb]
    }
}

/// `a^n` by repeated exp/log arithmetic.
#[inline]
pub fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = TABLES.log[a as usize] as u64 * n as u64 % 255;
    TABLES.exp[l as usize]
}

/// The generator element 2^i.
#[inline]
pub fn exp2(i: usize) -> u8 {
    TABLES.exp[i % 255]
}

/// `dst[i] ^= c * src[i]` — the accumulate kernel dominating encode and
/// decode time (one call per (coding row × shard) pair).
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn mul_acc_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "shard length mismatch");
    if c == 0 {
        return;
    }
    let (lo, hi) = (&MUL_LO[c as usize], &MUL_HI[c as usize]);
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("ssse3") {
        // SAFETY: `ssse3` was detected on this CPU just above, which is
        // the function's only requirement.
        done = unsafe { ssse3::mul_acc_blocks(lo, hi, src, dst) };
    }
    mul_acc_bytes(lo, hi, &src[done..], &mut dst[done..]);
}

/// The kernel one byte at a time: the whole portable path, and the tail
/// of the `pshufb` one.
fn mul_acc_bytes(lo: &[u8; 16], hi: &[u8; 16], src: &[u8], dst: &mut [u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= lo[(s & 0x0F) as usize] ^ hi[(s >> 4) as usize];
    }
}

#[cfg(target_arch = "x86_64")]
mod ssse3 {
    use std::arch::x86_64::*;

    /// Runs the kernel over every whole 16-byte block the two slices
    /// share and returns how many bytes that covered.
    ///
    /// # Safety
    ///
    /// The CPU must support `ssse3`.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_blocks(
        lo: &[u8; 16],
        hi: &[u8; 16],
        src: &[u8],
        dst: &mut [u8],
    ) -> usize {
        // SAFETY: both tables are 16-byte arrays; the loads are unaligned.
        let lo = _mm_loadu_si128(lo.as_ptr().cast());
        let hi = _mm_loadu_si128(hi.as_ptr().cast());
        let nibble = _mm_set1_epi8(0x0F);
        let blocks = src.chunks_exact(16).zip(dst.chunks_exact_mut(16));
        let done = 16 * blocks.len();
        for (s, d) in blocks {
            // SAFETY: `chunks_exact(16)` hands out slices of exactly 16
            // bytes, the width of every unaligned load and store here.
            let sv = _mm_loadu_si128(s.as_ptr().cast());
            let product = _mm_xor_si128(
                _mm_shuffle_epi8(lo, _mm_and_si128(sv, nibble)),
                _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64::<4>(sv), nibble)),
            );
            let dv = _mm_loadu_si128(d.as_ptr().cast());
            _mm_storeu_si128(d.as_mut_ptr().cast(), _mm_xor_si128(dv, product));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor() {
        assert_eq!(add(0b1010, 0b0110), 0b1100);
        assert_eq!(add(7, 7), 0);
    }

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Reference: schoolbook carry-less multiply + reduction by 0x11D.
        fn slow_mul(mut a: u8, b: u8) -> u8 {
            let mut prod: u8 = 0;
            let mut b = b;
            for _ in 0..8 {
                if b & 1 != 0 {
                    prod ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (POLY & 0xFF) as u8;
                }
                b >>= 1;
            }
            prod
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        let samples = [0u8, 1, 2, 3, 17, 91, 128, 200, 255];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(mul(a, b), mul(b, a));
                for &c in &samples {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributivity() {
        let samples = [1u8, 2, 5, 77, 130, 254];
        for &a in &samples {
            for &b in &samples {
                for &c in &samples {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let ia = inv(a);
            assert_eq!(mul(a, ia), 1, "a={a}");
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(div(mul(a, b), b), a);
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        div(3, 0);
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_zero_panics() {
        inv(0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for &a in &[2u8, 3, 29, 255] {
            let mut acc = 1u8;
            for n in 0..20 {
                assert_eq!(pow(a, n), acc, "a={a} n={n}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn generator_has_full_order() {
        // 2 generates the multiplicative group: first 255 powers distinct.
        let mut seen = [false; 256];
        for i in 0..255 {
            let v = exp2(i);
            assert!(!seen[v as usize], "2^{i} repeats");
            seen[v as usize] = true;
        }
        assert_eq!(exp2(255), 1); // wraps
    }

    #[test]
    fn slice_kernels_agree() {
        // The dispatched kernel and the portable loop called directly,
        // both against per-byte `mul`, across the 16-byte block edge.
        let src: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for &c in &[0u8, 1, 2, 73, 255] {
            for len in [0usize, 1, 15, 16, 17, 31, 32, 1000] {
                let src = &src[..len];
                let expect: Vec<u8> = src.iter().map(|&s| 0xAA ^ mul(c, s)).collect();
                let mut a = vec![0xAA; len];
                mul_acc_slice(c, src, &mut a);
                assert_eq!(a, expect, "dispatched, c={c} len={len}");
                let mut b = vec![0xAA; len];
                mul_acc_bytes(&MUL_LO[c as usize], &MUL_HI[c as usize], src, &mut b);
                assert_eq!(b, expect, "portable, c={c} len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn slice_length_mismatch_panics() {
        let mut d = vec![0u8; 2];
        mul_acc_slice(3, &[1, 2, 3], &mut d);
    }
}
