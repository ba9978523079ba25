//! Arithmetic in GF(2⁸).
//!
//! The field is `GF(2)[x] / (x⁸+x⁴+x³+x²+1)`, i.e. reduction polynomial
//! `0x11D` with generator `2` — the construction used by most storage
//! erasure codes (ISA-L, Jerasure, Backblaze RS).
//!
//! Element addition is XOR; multiplication uses compile-time exp/log
//! tables. The hot encode/decode path is not per-byte multiplication but
//! the one slice kernel, [`dot_prod`]: one output shard is the GF(2⁸)
//! dot product of a coding row with the source shards, `out = Σ c_j·src_j`
//! (ISA-L's `gf_vect_dot_prod`). Each output block stays in a register
//! while every source folds into it, so a source is read once and the
//! output written once, not once per source. Each product is ISA-L's
//! split-nibble lookup: multiplication by a constant is linear over
//! GF(2), so `c·s = c·(s & 0x0f) ^ c·(s & 0xf0)` and two 16-entry tables
//! per coefficient replace the log/exp indirection and its zero test.
//! Sixteen entries are exactly one `pshufb` register, which looks up 16
//! bytes at once: on x86_64 the kernel takes 32-byte blocks with AVX2
//! (the tables copied into both 128-bit lanes) or 16-byte blocks with
//! SSSE3, whichever is detected first at run time, and the same tables
//! in a scalar loop handle the tail there and the whole slice on every
//! other machine. [`mul_acc_slice`] is the kernel's one-source
//! accumulate case.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

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

/// `out = Σ_j c_j·src_j` over the `(c_j, src_j)` terms, overwriting
/// `out` — the one kernel of encode and decode, in the shape of ISA-L's
/// `gf_vect_dot_prod`.
///
/// Each output block stays in a register while every source folds into
/// it, so each source byte is read once and each output byte written
/// once. A source shorter than `out` counts as zero-padded to it — the
/// padding is virtual: a zero adds nothing to a GF(2⁸) sum, so the
/// output splits into runs over which a fixed set of sources is live.
/// A source longer than `out` contributes its first `out.len()` bytes.
pub fn dot_prod(terms: &[(u8, &[u8])], out: &mut [u8]) {
    let mut live: Vec<Term<'_>> = terms
        .iter()
        .filter(|&&(c, src)| c != 0 && !src.is_empty())
        .map(|&(c, src)| Term::new(c, &src[..src.len().min(out.len())]))
        .collect();
    // Longest first: the run up to the shortest live source takes them
    // all, the next run one fewer, and so on.
    live.sort_by_key(|t| std::cmp::Reverse(t.src.len()));
    let mut run = Vec::with_capacity(live.len());
    let mut start = 0;
    for n in (1..=live.len()).rev() {
        let end = live[n - 1].src.len();
        if end > start {
            run.clear();
            run.extend(live[..n].iter().map(|t| Term {
                src: &t.src[start..end],
                ..*t
            }));
            fused(&run, &mut out[start..end], false);
            start = end;
        }
    }
    out[start..].fill(0);
}

/// `dst[i] ^= c * src[i]`: the kernel's one-source accumulate case.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn mul_acc_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "shard length mismatch");
    if c != 0 {
        fused(&[Term::new(c, src)], dst, true);
    }
}

/// One term of a dot product: its coefficient's two nibble-product
/// tables and its source bytes.
#[derive(Clone, Copy)]
struct Term<'a> {
    lo: &'static [u8; 16],
    hi: &'static [u8; 16],
    src: &'a [u8],
}

impl<'a> Term<'a> {
    fn new(c: u8, src: &'a [u8]) -> Self {
        Term {
            lo: &MUL_LO[c as usize],
            hi: &MUL_HI[c as usize],
            src,
        }
    }
}

/// The kernel over sources at least `out.len()` long, dispatched to the
/// widest body this CPU has: AVX2 over 32-byte blocks, else SSSE3 over
/// 16-byte blocks, with the scalar body on the tail — and on the whole
/// slice on every other machine.
fn fused(terms: &[Term<'_>], out: &mut [u8], acc: bool) {
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` was detected on this CPU just above, which is
        // the function's only requirement.
        done = unsafe { simd::avx2_blocks(terms, out, acc) };
    } else if std::arch::is_x86_feature_detected!("ssse3") {
        // SAFETY: as above, for `ssse3`.
        done = unsafe { simd::ssse3_blocks(terms, out, acc) };
    }
    dot_bytes(terms, out, acc, done);
}

/// The scalar body over `out[from..]`, one 256-byte block of output at a
/// time: the block stays in L1 while every source streams over it, and
/// eight products are XORed into the block as one `u64`. The whole
/// portable path, and the tail of the SIMD ones.
fn dot_bytes(terms: &[Term<'_>], out: &mut [u8], acc: bool, from: usize) {
    const BLOCK: usize = 256;
    let mut at = from;
    for block in out[from..].chunks_mut(BLOCK) {
        let end = at + block.len();
        if !acc {
            block.fill(0);
        }
        for t in terms {
            let product = |s: u8| t.lo[(s & 0x0F) as usize] ^ t.hi[(s >> 4) as usize];
            let mut outs = block.chunks_exact_mut(8);
            let mut srcs = t.src[at..end].chunks_exact(8);
            for (o, s) in (&mut outs).zip(&mut srcs) {
                let mut word = [0u8; 8];
                word.copy_from_slice(o);
                let sum = u64::from_ne_bytes(word)
                    ^ u64::from_ne_bytes(std::array::from_fn(|i| product(s[i])));
                o.copy_from_slice(&sum.to_ne_bytes());
            }
            for (o, &s) in outs.into_remainder().iter_mut().zip(srcs.remainder()) {
                *o ^= product(s);
            }
        }
        at = end;
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::Term;
    use std::arch::x86_64::*;

    /// Blocks per tile: each tile's output blocks are held in that many
    /// registers while every source folds into them, so a coefficient's
    /// tables are loaded once per tile, not once per block.
    const TILE: usize = 4;

    /// How many whole `width`-byte blocks `out` and every source share.
    fn blocks(terms: &[Term<'_>], out: &[u8], width: usize) -> usize {
        terms.iter().fold(out.len(), |n, t| n.min(t.src.len())) / width
    }

    /// The kernel over every whole 16-byte block; returns how many bytes
    /// that covered.
    ///
    /// # Safety
    ///
    /// The CPU must support `ssse3`.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn ssse3_blocks(terms: &[Term<'_>], out: &mut [u8], acc: bool) -> usize {
        let end = 16 * blocks(terms, out, 16);
        let mut at = 0;
        while at + 16 * TILE <= end {
            ssse3_tile::<TILE>(terms, out, at, acc);
            at += 16 * TILE;
        }
        while at < end {
            ssse3_tile::<1>(terms, out, at, acc);
            at += 16;
        }
        end
    }

    /// `N` 16-byte blocks of output from `at` on.
    ///
    /// # Safety
    ///
    /// The CPU must support `ssse3`, and `at + 16 * N` must be at most
    /// the length of `out` and of every source.
    #[target_feature(enable = "ssse3")]
    #[inline]
    unsafe fn ssse3_tile<const N: usize>(terms: &[Term<'_>], out: &mut [u8], at: usize, acc: bool) {
        let nibble = _mm_set1_epi8(0x0F);
        // SAFETY (every load and store below): the caller bounded
        // `at + 16 * N` by the length of `out` and of every source; the
        // tables are 16-byte arrays. All accesses are unaligned.
        let mut v = [_mm_setzero_si128(); N];
        if acc {
            for (i, v) in v.iter_mut().enumerate() {
                *v = _mm_loadu_si128(out.as_ptr().add(at + 16 * i).cast());
            }
        }
        for t in terms {
            let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
            let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
            for (i, v) in v.iter_mut().enumerate() {
                let s = _mm_loadu_si128(t.src.as_ptr().add(at + 16 * i).cast());
                let product = _mm_xor_si128(
                    _mm_shuffle_epi8(lo, _mm_and_si128(s, nibble)),
                    _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64::<4>(s), nibble)),
                );
                *v = _mm_xor_si128(*v, product);
            }
        }
        for (i, v) in v.iter().enumerate() {
            _mm_storeu_si128(out.as_mut_ptr().add(at + 16 * i).cast(), *v);
        }
    }

    /// The kernel over every whole 32-byte block; returns how many bytes
    /// that covered.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_blocks(terms: &[Term<'_>], out: &mut [u8], acc: bool) -> usize {
        let end = 32 * blocks(terms, out, 32);
        let mut at = 0;
        while at + 32 * TILE <= end {
            avx2_tile::<TILE>(terms, out, at, acc);
            at += 32 * TILE;
        }
        while at < end {
            avx2_tile::<1>(terms, out, at, acc);
            at += 32;
        }
        end
    }

    /// `N` 32-byte blocks of output from `at` on. `vpshufb` looks up
    /// within each 128-bit lane, so both lanes carry a copy of the
    /// 16-entry tables.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`, and `at + 32 * N` must be at most
    /// the length of `out` and of every source.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn avx2_tile<const N: usize>(terms: &[Term<'_>], out: &mut [u8], at: usize, acc: bool) {
        let nibble = _mm256_set1_epi8(0x0F);
        // SAFETY (every load and store below): the caller bounded
        // `at + 32 * N` by the length of `out` and of every source; the
        // tables are 16-byte arrays. All accesses are unaligned.
        let mut v = [_mm256_setzero_si256(); N];
        if acc {
            for (i, v) in v.iter_mut().enumerate() {
                *v = _mm256_loadu_si256(out.as_ptr().add(at + 32 * i).cast());
            }
        }
        for t in terms {
            let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast()));
            let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast()));
            for (i, v) in v.iter_mut().enumerate() {
                let s = _mm256_loadu_si256(t.src.as_ptr().add(at + 32 * i).cast());
                let product = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo, _mm256_and_si256(s, nibble)),
                    _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(s), nibble)),
                );
                *v = _mm256_xor_si256(*v, product);
            }
        }
        for (i, v) in v.iter().enumerate() {
            _mm256_storeu_si256(out.as_mut_ptr().add(at + 32 * i).cast(), *v);
        }
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
        // The dispatched kernel and the scalar body called directly,
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
                dot_bytes(&[Term::new(c, src)], &mut b, true, 0);
                assert_eq!(b, expect, "portable, c={c} len={len}");
            }
        }
    }

    /// One dispatch level: a SIMD body (or none) over the whole blocks,
    /// the scalar body over the rest — `fused` with the level fixed.
    type Body = fn(&[Term<'_>], &mut [u8], bool) -> usize;

    /// Every body this CPU can run, scalar first.
    fn bodies() -> Vec<(&'static str, Body)> {
        #[allow(unused_mut)]
        let mut levels: Vec<(&'static str, Body)> = vec![("scalar", |_, _, _| 0)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("ssse3") {
                // SAFETY: `ssse3` was detected on this CPU just above.
                levels.push(("ssse3", |t, o, a| unsafe { simd::ssse3_blocks(t, o, a) }));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `avx2` was detected on this CPU just above.
                levels.push(("avx2", |t, o, a| unsafe { simd::avx2_blocks(t, o, a) }));
            }
        }
        levels
    }

    /// Holds one body to per-byte `mul` on `nsrc` sources of `len` bytes
    /// with coefficients `coefs(j)`, accumulating and overwriting.
    fn check_body(name: &str, body: Body, nsrc: usize, len: usize, coefs: impl Fn(usize) -> u8) {
        let srcs: Vec<Vec<u8>> = (0..nsrc)
            .map(|j| (0..len).map(|i| (i * 131 + j * 61 + 7) as u8).collect())
            .collect();
        let terms: Vec<Term<'_>> = srcs
            .iter()
            .enumerate()
            .map(|(j, s)| Term::new(coefs(j), s))
            .collect();
        let init: Vec<u8> = (0..len).map(|i| (i * 29 + 1) as u8).collect();
        for acc in [true, false] {
            let mut want = if acc { init.clone() } else { vec![0; len] };
            for (j, s) in srcs.iter().enumerate() {
                for (w, &b) in want.iter_mut().zip(s) {
                    *w ^= mul(coefs(j), b);
                }
            }
            let mut out = init.clone();
            let done = body(&terms, &mut out, acc);
            assert!(
                done <= len && done.is_multiple_of(16),
                "{name}: covered {done} of {len}"
            );
            dot_bytes(&terms, &mut out, acc, done);
            assert_eq!(out, want, "{name}: {nsrc} sources, len {len}, acc {acc}");
        }
    }

    #[test]
    fn every_body_matches_per_byte_mul() {
        let edges = [
            15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 95, 96, 127, 128, 129,
        ];
        for (name, body) in bodies() {
            // Every coefficient at every source position, on the block
            // edges of all three widths.
            for nsrc in 1..=16 {
                for c in 0..=255u8 {
                    for len in [0, 1, 33, 64, 65, 200] {
                        check_body(name, body, nsrc, len, |j| c.wrapping_add((j * 97) as u8));
                    }
                }
            }
            // Every length 0–200 and the edges past it.
            for nsrc in 1..=16 {
                for len in (0..=200)
                    .chain(edges.map(|e| e + 256))
                    .chain([4_095, 4_096, 4_097])
                {
                    check_body(name, body, nsrc, len, |j| (len + 53 * j + 1) as u8);
                }
            }
        }
    }

    #[test]
    fn dot_prod_pads_short_sources_and_clips_long_ones() {
        // Ragged sources of 0..=3·out bytes — or all shorter than out,
        // which leaves a tail no source reaches — with zero coefficients
        // among them, against per-byte `mul` over the virtually padded
        // inputs.
        let shapes = (1..=16usize).flat_map(|nsrc| [(nsrc, false), (nsrc, true)]);
        for (nsrc, short) in shapes {
            for out_len in [0usize, 1, 15, 16, 17, 33, 64, 65, 100, 200] {
                let cap = if short { out_len.max(1) } else { 3 * out_len + 2 };
                let srcs: Vec<Vec<u8>> = (0..nsrc)
                    .map(|j| {
                        let len = (j * 37 + out_len * 3) % cap;
                        (0..len).map(|i| (i * 7 + j * 13 + 3) as u8).collect()
                    })
                    .collect();
                let coefs: Vec<u8> = (0..nsrc)
                    .map(|j| if j == 2 { 0 } else { (j * 71 + out_len) as u8 })
                    .collect();
                let terms: Vec<(u8, &[u8])> = coefs
                    .iter()
                    .copied()
                    .zip(srcs.iter().map(Vec::as_slice))
                    .collect();
                let mut want = vec![0; out_len];
                for (&c, s) in coefs.iter().zip(&srcs) {
                    for (w, &b) in want.iter_mut().zip(s) {
                        *w ^= mul(c, b);
                    }
                }
                let mut out: Vec<u8> = (0..out_len).map(|i| (i * 29 + 1) as u8).collect();
                dot_prod(&terms, &mut out);
                assert_eq!(out, want, "{nsrc} sources (short {short}), out {out_len}");
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
