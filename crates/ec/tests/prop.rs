//! Property-based tests of the GF(2⁸)/Reed–Solomon substrate.

use bytes::Bytes;
use proptest::prelude::*;

use spcache_ec::gf256;
use spcache_ec::rs::RsError;
use spcache_ec::{
    join_shards, join_shards_bytes, split_into_shards, split_shards_bytes, Matrix, ReedSolomon,
};

/// What a parity-writing client stores for `data`: the `k` unpadded
/// partitions (the last one ragged, some empty when `len < k`) and the
/// `n − k` full-length parity shards.
fn stored_views(rs: &ReedSolomon, data: &[u8]) -> Vec<Vec<u8>> {
    let k = rs.data_shards();
    let parts = split_shards_bytes(&Bytes::from(data.to_vec()), k);
    let parity = rs.encode_bytes(data).split_off(k);
    parts.iter().map(|p| p.to_vec()).chain(parity).collect()
}

/// The single-shard decode against the whole-set reconstruction, for
/// every `k ∈ 1..=16`, `r ∈ 1..=4`, file lengths 0, 1 and ragged, and
/// every erasure pattern of at most `r` shards: each erased data shard
/// decoded from the unpadded views is both the partition the writer
/// stored and the prefix of what `reconstruct` rebuilds from the padded
/// shards.
#[test]
fn decode_shard_equals_reconstruct_for_every_erasure_pattern() {
    for k in 1..=16usize {
        for r in 1..=4usize {
            let n = k + r;
            let rs = ReedSolomon::new_cauchy(k, n);
            for len in [0, 1, 3 * k + k / 2 + 1] {
                let data: Vec<u8> = (0..len).map(|i| (i * 37 + k * 11 + r) as u8).collect();
                let padded = rs.encode_bytes(&data);
                let views = stored_views(&rs, &data);
                for mask in 0u32..(1 << n) {
                    let lost = |i: usize| mask & (1 << i) != 0;
                    if mask.count_ones() as usize > r || !(0..k).any(lost) {
                        continue;
                    }
                    let mut whole: Vec<Option<Vec<u8>>> = (0..n)
                        .map(|i| (!lost(i)).then(|| padded[i].clone()))
                        .collect();
                    rs.reconstruct(&mut whole).unwrap();
                    let held: Vec<Option<&[u8]>> = (0..n)
                        .map(|i| (!lost(i)).then_some(&views[i][..]))
                        .collect();
                    for j in (0..k).filter(|&j| lost(j)) {
                        let mut out = vec![0xA5; views[j].len()];
                        rs.decode_shard(&held, j, &mut out).unwrap();
                        let rebuilt = whole[j].as_ref().unwrap();
                        assert_eq!(out, views[j], "k={k} r={r} len={len} mask={mask:b} j={j}");
                        assert_eq!(out[..], rebuilt[..out.len()], "k={k} r={r} len={len}");
                    }
                }
            }
        }
    }
}

#[test]
fn decode_shard_refuses_too_few_views() {
    let rs = ReedSolomon::new_cauchy(3, 5);
    let views = stored_views(&rs, b"ten bytes!");
    let held = [None, None, None, Some(&views[3][..]), Some(&views[4][..])];
    let mut out = [0u8; 4];
    assert_eq!(
        rs.decode_shard(&held, 0, &mut out),
        Err(RsError::TooFewShards { present: 2, needed: 3 })
    );
    assert_eq!(
        rs.decode_shard(&held[..4], 0, &mut out),
        Err(RsError::WrongShardCount { got: 4, expected: 5 })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// GF(2⁸) is a field: check the axioms on arbitrary triples.
    #[test]
    fn field_axioms(a: u8, b: u8, c: u8) {
        // Commutativity.
        prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        prop_assert_eq!(gf256::add(a, b), gf256::add(b, a));
        // Associativity.
        prop_assert_eq!(
            gf256::mul(gf256::mul(a, b), c),
            gf256::mul(a, gf256::mul(b, c))
        );
        // Distributivity.
        prop_assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c))
        );
        // Inverses.
        if b != 0 {
            prop_assert_eq!(gf256::mul(gf256::div(a, b), b), a);
        }
    }

    /// The accumulate kernel agrees with per-byte multiplication on
    /// arbitrary inputs.
    #[test]
    fn kernels_agree(
        c: u8,
        src in proptest::collection::vec(any::<u8>(), 0..2048),
        init: u8,
    ) {
        let mut a = vec![init; src.len()];
        gf256::mul_acc_slice(c, &src, &mut a);
        let b: Vec<u8> = src.iter().map(|&s| init ^ gf256::mul(c, s)).collect();
        prop_assert_eq!(a, b);
    }

    /// mul_acc is its own inverse (char-2 field): applying twice restores.
    #[test]
    fn mul_acc_self_inverse(
        c: u8,
        src in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let orig: Vec<u8> = (0..src.len()).map(|i| (i % 251) as u8).collect();
        let mut dst = orig.clone();
        gf256::mul_acc_slice(c, &src, &mut dst);
        gf256::mul_acc_slice(c, &src, &mut dst);
        prop_assert_eq!(dst, orig);
    }

    /// Matrix inversion round-trips for random invertible matrices.
    #[test]
    fn matrix_inverse_roundtrip(
        n in 1usize..6,
        seed in proptest::collection::vec(any::<u8>(), 36),
    ) {
        let data: Vec<u8> = seed.into_iter().take(n * n).collect();
        let m = Matrix::from_vec(n, n, data);
        if let Some(inv) = m.inverted() {
            prop_assert_eq!(m.mul(&inv), Matrix::identity(n));
            prop_assert_eq!(inv.mul(&m), Matrix::identity(n));
        }
    }

    /// Systematic encode leaves the data shards verbatim.
    #[test]
    fn encode_is_systematic(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        k in 1usize..6,
        parity in 0usize..4,
    ) {
        let rs = ReedSolomon::new(k, k + parity);
        let shards = rs.encode_bytes(&data);
        let plain = split_into_shards(&data, k);
        prop_assert_eq!(&shards[..k], &plain[..]);
        prop_assert_eq!(rs.verify(&shards).unwrap(), true);
    }

    /// Corrupting any single byte of any shard fails verification
    /// (when parity exists).
    #[test]
    fn verify_detects_any_single_corruption(
        data in proptest::collection::vec(any::<u8>(), 8..512),
        which_shard in 0usize..6,
        which_byte in any::<u16>(),
        flip in 1u8..,
    ) {
        let rs = ReedSolomon::new(4, 6);
        let mut shards = rs.encode_bytes(&data);
        let s = which_shard % shards.len();
        let b = which_byte as usize % shards[s].len();
        shards[s][b] ^= flip;
        prop_assert_eq!(rs.verify(&shards).unwrap(), false);
    }

    /// Reconstruction restores parity shards too, not just data.
    #[test]
    fn reconstruct_restores_everything(
        data in proptest::collection::vec(any::<u8>(), 1..1000),
        drop_a in 0usize..7,
        drop_b in 0usize..7,
    ) {
        let rs = ReedSolomon::new(5, 7);
        let shards = rs.encode_bytes(&data);
        let mut partial: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        partial[drop_a] = None;
        partial[drop_b % 7] = None;
        rs.reconstruct(&mut partial).unwrap();
        for (i, s) in partial.iter().enumerate() {
            prop_assert_eq!(s.as_ref().unwrap(), &shards[i], "shard {}", i);
        }
    }

    /// Cauchy-RS: **any** `k`-of-`k+r` shard subset decodes the file
    /// byte-identically — the late-binding guarantee the integrity tier
    /// leans on when a corrupt partition becomes an erasure.
    #[test]
    fn cauchy_any_k_subset_decodes(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        k in 1usize..6,
        parity in 1usize..4,
        pick_seed: u64,
    ) {
        let n = k + parity;
        let rs = ReedSolomon::new_cauchy(k, n);
        let shards = rs.encode_bytes(&data);
        // Draw a pseudo-random k-subset of the n shards from pick_seed.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = pick_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut partial: Vec<Option<Vec<u8>>> = vec![None; n];
        for &i in order.iter().take(k) {
            partial[i] = Some(shards[i].clone());
        }
        let rec = rs.reconstruct_data(&mut partial).unwrap();
        prop_assert_eq!(&rec[..data.len()], &data[..]);
        // Every shard (parity included) is restored byte-identically.
        for (i, sh) in partial.iter().enumerate() {
            prop_assert_eq!(sh.as_ref().unwrap(), &shards[i], "shard {}", i);
        }
        // The same k, as the unpadded views a reader holds, decode every
        // data shard in place.
        let views = stored_views(&rs, &data);
        let mut held: Vec<Option<&[u8]>> = vec![None; n];
        for &i in order.iter().take(k) {
            held[i] = Some(&views[i]);
        }
        for (j, view) in views.iter().take(k).enumerate() {
            let mut out = vec![0xA5; view.len()];
            rs.decode_shard(&held, j, &mut out).unwrap();
            prop_assert_eq!(&out, view, "data shard {}", j);
        }
    }

    /// Cauchy systematic matrices: every k-row submatrix with distinct
    /// rows inverts; any submatrix presenting a row twice is singular —
    /// a duplicated shard can never masquerade as fresh information.
    #[test]
    fn cauchy_submatrix_invertibility(
        k in 2usize..6,
        parity in 1usize..4,
        dup_seed: u64,
    ) {
        let n = k + parity;
        let m = Matrix::systematic_cauchy(n, k);
        // A random distinct k-subset inverts.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = dup_seed;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let rows: Vec<usize> = order.iter().take(k).copied().collect();
        prop_assert!(m.submatrix_rows(&rows).inverted().is_some());
        // Duplicating any one of those rows makes it singular.
        let mut dup = rows.clone();
        dup[0] = dup[1];
        prop_assert!(m.submatrix_rows(&dup).inverted().is_none());
    }

    /// join ∘ split = id even when asked for fewer bytes than stored.
    #[test]
    fn join_respects_length(
        data in proptest::collection::vec(any::<u8>(), 0..1000),
        k in 1usize..12,
        take_frac in 0.0f64..1.0,
    ) {
        let shards = split_into_shards(&data, k);
        let take = (data.len() as f64 * take_frac) as usize;
        let joined = join_shards(&shards, take);
        prop_assert_eq!(&joined[..], &data[..take]);
    }

    /// Zero-copy split: every shard is a view *inside* the original
    /// backing allocation (checked by pointer range), the shard lengths
    /// tile the input exactly, and join restores the bytes — for
    /// arbitrary (ragged) sizes and partition counts, including
    /// `len % k != 0`, `len < k` and `len == 0`.
    #[test]
    fn split_bytes_shares_allocation_and_roundtrips(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        k in 1usize..12,
    ) {
        let backing = Bytes::from(data.clone());
        let base = backing.as_ptr() as usize;
        let limit = base + backing.len();
        let shards = split_shards_bytes(&backing, k);
        prop_assert_eq!(shards.len(), k);
        let mut total = 0usize;
        for shard in &shards {
            total += shard.len();
            if !shard.is_empty() {
                let p = shard.as_ptr() as usize;
                prop_assert!(
                    p >= base && p + shard.len() <= limit,
                    "shard bytes live outside the original allocation \
                     (copied, not sliced)"
                );
            }
        }
        prop_assert_eq!(total, data.len());
        prop_assert_eq!(join_shards_bytes(&shards, data.len()), data);
    }
}
