//! Partition integrity: a hand-rolled CRC-64 **tree** checksum.
//!
//! SP-Cache is redundancy-free, so a flipped bit in a cached partition
//! would otherwise be served as truth. This crate turns corruption into
//! an *erasure*: every partition carries a 64-bit checksum computed once
//! at write/split time; workers re-verify on load and spill reload,
//! clients on receive, and a mismatch surfaces as a typed error instead
//! of wrong bytes (see `spcache-store`).
//!
//! # Format
//!
//! The sum is a two-level tree over CRC-64/XZ (ECMA-182 polynomial,
//! reflected, init/xorout `!0`):
//!
//! 1. the partition is cut into [`LEAF_BYTES`] chunks and each chunk is
//!    CRC-64'd independently (leaf sums),
//! 2. the root is the CRC-64 of the little-endian concatenation of the
//!    leaf sums, with the partition's total length mixed in as a final
//!    8-byte word (so a truncated partition never collides with its
//!    zero-extended twin).
//!
//! A single-leaf partition still differs from the plain CRC because the
//! length word is always mixed in.
//!
//! The values are **format, not implementation**: sums ride `Put`
//! frames, sit in the master's journal and prove spilled bytes on
//! reload, so every kernel below must return the same 64 bits for the
//! same bytes on every machine (`tests/byte_kernels.rs` pins golden
//! values and a bit-at-a-time reference).
//!
//! The value `0` is reserved as the **unverified sentinel**: writers
//! that do not checksum stamp `0`, and verifiers skip such partitions.
//! [`sum`] never returns `0` for any input (it remaps a real zero root
//! to a fixed non-zero constant).
//!
//! # Kernels
//!
//! [`crc64`] is one function with one dispatch rule: on x86_64, when
//! `PCLMULQDQ` is detected at run time and the input holds at least one
//! 128-byte block, the largest prefix that is a multiple of 128 bytes is
//! folded by carry-less multiplication (8 lanes of 16 bytes per step);
//! whatever is left — the tail there, the whole input on every other
//! machine — goes through slice-by-16 tables, 16 bytes per step and
//! byte-wise at the end.

/// Leaf chunk size of the checksum tree (64 KiB).
pub const LEAF_BYTES: usize = 64 * 1024;

/// The unverified sentinel: a stored sum of `0` means "no checksum was
/// computed"; verification against it always passes.
pub const UNVERIFIED: u64 = 0;

/// CRC-64/XZ generator polynomial (ECMA-182), reflected form.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-16 tables: `TABLES[k][i]` is the state byte `i` leaves
/// behind once `k` further zero bytes have been shifted through.
static TABLES: [[u64; 256]; 16] = build_tables();

const fn build_tables() -> [[u64; 256]; 16] {
    let mut t = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advances the raw (un-inverted) CRC state over `bytes`, 16 bytes per
/// step and byte-wise at the end: the whole portable path, and the tail
/// of the carry-less-multiply one.
fn update(mut crc: u64, bytes: &[u8]) -> u64 {
    let t = &TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let word = u128::from_le_bytes(block.try_into().expect("chunks_exact(16)")) ^ crc as u128;
        crc = 0;
        for (k, table) in t.iter().rev().enumerate() {
            crc ^= table[(word >> (8 * k)) as u8 as usize];
        }
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ"), in the bit-reflected domain of
/// CRC-64/XZ.
///
/// A 16-byte lane loaded little-endian holds the *earlier* bytes in its
/// low half, and the product of two reflected 64-bit values comes out
/// one bit short of a reflected 128-bit one. So folding a lane forward
/// over `D` bytes multiplies its low half by `x^(8D+63) mod P` and its
/// high half by `x^(8D−1) mod P`, each bit-reflected. Every constant is
/// derived here from the polynomial; none is pasted.
///
/// Every function below is compiled for `pclmulqdq` and may only run on
/// a CPU that has it; [`fold_blocks`](clmul::fold_blocks) is the one
/// way in.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Bytes folded per step: 8 lanes of 16.
    const BLOCK: usize = 128;

    /// The generator in normal (non-reflected) form, `x^64` implied.
    const P: u64 = super::POLY.reverse_bits();

    /// `r · x mod P`, in normal form.
    const fn times_x(r: u64) -> u64 {
        if r >> 63 == 1 {
            (r << 1) ^ P
        } else {
            r << 1
        }
    }

    /// `x^n mod P`, bit-reflected.
    pub(super) const fn x_pow(n: u32) -> u64 {
        let mut r: u64 = 1;
        let mut i = 0;
        while i < n {
            r = times_x(r);
            i += 1;
        }
        r.reverse_bits()
    }

    /// The `(low half, high half)` multipliers of a fold over `d` bytes.
    const fn fold_keys(d: u32) -> (u64, u64) {
        (x_pow(8 * d + 63), x_pow(8 * d - 1))
    }

    /// One step of the main loop: every lane moves [`BLOCK`] bytes on.
    const BLOCK_KEYS: (u64, u64) = fold_keys(BLOCK as u32);

    /// Lane `i` of the last block sits `16 · (7 − i)` bytes before lane 7.
    const LANE_KEYS: [(u64, u64); 7] = {
        let mut keys = [(0, 0); 7];
        let mut i = 0;
        while i < 7 {
            keys[i] = fold_keys(16 * (7 - i as u32));
            i += 1;
        }
        keys
    };

    /// Folds the low 8 bytes of the last lane onto its high 8.
    pub(super) const HALF_KEY: u64 = fold_keys(8).0;

    /// Barrett constant: the low 64 bits of `⌊x^128 / P⌋` bit-reflected
    /// as a 65-bit value (the dropped top bit cannot reach the half of
    /// the product the reduction keeps).
    pub(super) const MU: u64 = {
        // Long division of x^128 by the 65-bit P: the leading quotient
        // bit is 1 and leaves P's low 64 bits as the remainder; each
        // further dividend bit (all zero) shifts one quotient bit in.
        let (mut q, mut r): (u64, u64) = (1, P);
        let mut i = 0;
        while i < 63 {
            q = (q << 1) | (r >> 63);
            r = times_x(r);
            i += 1;
        }
        q.reverse_bits()
    };

    /// The 65-bit reflected generator, top bit dropped (the reduction
    /// adds that term back as a 64-bit shift).
    pub(super) const P_PRIME: u64 = (super::POLY << 1) | 1;

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn keys((lo, hi): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `clmul(lane.lo, keys.lo) ^ clmul(lane.hi, keys.hi)`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(lane: __m128i, keys: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(lane, keys),
            _mm_clmulepi64_si128::<0x11>(lane, keys),
        )
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn load(block: &[u8; BLOCK]) -> [__m128i; 8] {
        let mut lanes = [_mm_setzero_si128(); 8];
        for (i, lane) in lanes.iter_mut().enumerate() {
            // SAFETY: i < 8, so the 16 bytes read at 16·i end at or
            // before byte 128 of the array; the load is unaligned.
            *lane = _mm_loadu_si128(block.as_ptr().add(16 * i).cast());
        }
        lanes
    }

    /// Advances the raw CRC state over every whole [`BLOCK`] of `bytes`
    /// and returns it with the tail that is left for the table path.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold_blocks(state: u64, bytes: &[u8]) -> (u64, &[u8]) {
        let mut blocks = bytes.chunks_exact(BLOCK);
        let Some(first) = blocks.next() else {
            return (state, bytes);
        };
        let mut x = load(first.try_into().expect("chunks_exact(BLOCK)"));
        x[0] = _mm_xor_si128(x[0], _mm_set_epi64x(0, state as i64));
        let step = keys(BLOCK_KEYS);
        for block in &mut blocks {
            let next = load(block.try_into().expect("chunks_exact(BLOCK)"));
            for (lane, n) in x.iter_mut().zip(next) {
                *lane = _mm_xor_si128(n, fold(*lane, step));
            }
        }
        let mut acc = x[7];
        for (lane, k) in x.iter().zip(LANE_KEYS) {
            acc = _mm_xor_si128(acc, fold(*lane, keys(k)));
        }
        // 16 → 8 bytes, then Barrett: the CRC is the high half of
        // (t << 64) ^ clmul(t.lo, P') ^ y with t = clmul(y.lo, μ).
        let y = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(acc, keys((HALF_KEY, 0))),
            _mm_srli_si128::<8>(acc),
        );
        let mu_p = keys((MU, P_PRIME));
        let t = _mm_clmulepi64_si128::<0x00>(y, mu_p);
        let r = _mm_xor_si128(
            _mm_xor_si128(_mm_slli_si128::<8>(t), _mm_clmulepi64_si128::<0x10>(t, mu_p)),
            y,
        );
        (_mm_cvtsi128_si64(_mm_srli_si128::<8>(r)) as u64, blocks.remainder())
    }
}

/// Plain CRC-64/XZ of `bytes` — the leaf primitive of the tree.
pub fn crc64(bytes: &[u8]) -> u64 {
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let (mut crc, mut rest) = (!0u64, bytes);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `pclmulqdq` was detected on this CPU just above, which
        // is the function's only requirement.
        (crc, rest) = unsafe { clmul::fold_blocks(crc, bytes) };
    }
    !update(crc, rest)
}

/// The tree checksum of one partition. Never returns [`UNVERIFIED`].
pub fn sum(bytes: &[u8]) -> u64 {
    let mut root = Vec::with_capacity((bytes.len() / LEAF_BYTES + 2) * 8);
    for leaf in bytes.chunks(LEAF_BYTES) {
        root.extend_from_slice(&crc64(leaf).to_le_bytes());
    }
    root.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    match crc64(&root) {
        UNVERIFIED => 0x5350_4341_4348_4531, // "SPCACHE1": zero root remapped
        s => s,
    }
}

/// Whether `bytes` matches a stored sum. A stored [`UNVERIFIED`]
/// sentinel always verifies — the partition was never checksummed.
pub fn verify(bytes: &[u8], stored: u64) -> bool {
    stored == UNVERIFIED || sum(bytes) == stored
}

/// Sums for a slice of partitions (the write/split-time batch helper).
pub fn sums<B: AsRef<[u8]>>(parts: &[B]) -> Vec<u64> {
    parts.iter().map(|p| sum(p.as_ref())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The portable path on its own, as a machine without `pclmulqdq`
    /// runs it.
    fn crc64_portable(bytes: &[u8]) -> u64 {
        !update(!0, bytes)
    }

    /// The reference: one table lookup per byte, the loop `crc64` was
    /// before it had kernels.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc = TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value from the ECMA-182 reveng catalogue.
        for crc in [crc64, crc64_portable, crc64_bytewise] {
            assert_eq!(crc(b"123456789"), 0x995D_C9BB_DF19_39FA);
            assert_eq!(crc(b""), 0);
        }
    }

    #[test]
    fn dispatched_and_portable_kernels_match_the_byte_loop() {
        // Every length around the 16- and 128-byte block edges, at
        // start offsets that leave the loads unaligned.
        let buf: Vec<u8> = (0..LEAF_BYTES + 700).map(|i| (i * 131 % 251) as u8).collect();
        for offset in [0usize, 1, 7, 15, 16, 33] {
            let edges = [1023, 1024, 4096, LEAF_BYTES - 1, LEAF_BYTES, LEAF_BYTES + 1];
            for len in (0..=420).chain(edges) {
                let bytes = &buf[offset..offset + len];
                let want = crc64_bytewise(bytes);
                assert_eq!(crc64(bytes), want, "dispatched, offset {offset} len {len}");
                assert_eq!(crc64_portable(bytes), want, "portable, offset {offset} len {len}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_derive_to_the_published_values() {
        // The CRC-64/XZ folding constants as other implementations paste
        // them (e.g. the `crc64fast` crate); here they are computed.
        assert_eq!(clmul::x_pow(127), 0xdabe_95af_c787_5f40);
        assert_eq!(clmul::x_pow(191), 0xe05d_d497_ca39_3ae4);
        assert_eq!(clmul::x_pow(1023), 0xd7d8_6b2a_f73d_e740);
        assert_eq!(clmul::x_pow(1087), 0x8757_d71d_4fcc_1000);
        assert_eq!(clmul::HALF_KEY, clmul::x_pow(127));
        assert_eq!(clmul::MU, 0x9c3e_466c_1729_63d5);
        assert_eq!(clmul::P_PRIME, 0x92d8_af2b_af0e_1e85);
    }

    #[test]
    fn sum_is_deterministic_and_nonzero() {
        for len in [0usize, 1, 63, 64, 1000, LEAF_BYTES, LEAF_BYTES + 1, 3 * LEAF_BYTES + 7] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let s = sum(&data);
            assert_ne!(s, UNVERIFIED, "len {len} produced the sentinel");
            assert_eq!(s, sum(&data));
            assert!(verify(&data, s));
        }
    }

    #[test]
    fn any_single_bitflip_is_detected() {
        let data: Vec<u8> = (0..2 * LEAF_BYTES + 100).map(|i| (i * 7 % 256) as u8).collect();
        let clean = sum(&data);
        // Flip one bit at a spread of positions, including leaf
        // boundaries and the tail.
        for &pos in &[0, 1, LEAF_BYTES - 1, LEAF_BYTES, 2 * LEAF_BYTES, data.len() - 1] {
            let mut dirty = data.clone();
            dirty[pos] ^= 0x40;
            assert_ne!(sum(&dirty), clean, "flip at {pos} not detected");
            assert!(!verify(&dirty, clean));
        }
    }

    #[test]
    fn length_extension_does_not_collide() {
        // A partition and its zero-extended twin must differ even though
        // the extra leaf is all zeros.
        let a = vec![9u8; 100];
        let mut b = a.clone();
        b.push(0);
        assert_ne!(sum(&a), sum(&b));
        // Empty vs one zero byte, the degenerate pair.
        assert_ne!(sum(&[]), sum(&[0]));
    }

    #[test]
    fn unverified_sentinel_always_passes() {
        assert!(verify(b"anything at all", UNVERIFIED));
        assert!(verify(b"", UNVERIFIED));
    }

    #[test]
    fn batch_sums_match_singles() {
        let parts = [b"alpha".as_slice(), b"beta".as_slice(), b"".as_slice()];
        assert_eq!(sums(&parts), vec![sum(b"alpha"), sum(b"beta"), sum(b"")]);
    }
}
