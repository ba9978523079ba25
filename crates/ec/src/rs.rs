//! Systematic Reed–Solomon erasure codec and file split/join helpers.
//!
//! A `(k, n)` code stores a file as `k` equal data shards plus `n − k`
//! parity shards. The encoding matrix is the `n × k` systematic MDS matrix
//! (identity on top of parity rows); any `k` surviving shards reconstruct
//! everything by inverting the corresponding `k × k` row block — exactly
//! the structure EC-Cache builds on ISA-L.
//!
//! Every parity shard and every decoded shard is one sweep of
//! [`gf256::dot_prod`] over the `k` source views: the views may be
//! ragged, and the zero padding to the shard length is virtual.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use bytes::Bytes;

use crate::gf256;
use crate::matrix::Matrix;

/// Errors from the Reed–Solomon codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Fewer than `k` shards present — reconstruction impossible.
    TooFewShards {
        /// Shards available.
        present: usize,
        /// Shards required (`k`).
        needed: usize,
    },
    /// Shards have inconsistent lengths.
    ShardLengthMismatch,
    /// Shard vector length differs from `n` (or from `k`, for the data
    /// views of [`ReedSolomon::encode_parity`]).
    WrongShardCount {
        /// Shards supplied.
        got: usize,
        /// Shards expected.
        expected: usize,
    },
    /// A decode asked for a shard that is not a data shard (parity is
    /// re-encoded, not decoded).
    NotADataShard {
        /// The shard asked for.
        target: usize,
        /// Data shards in the code (`k`).
        k: usize,
    },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooFewShards { present, needed } => {
                write!(f, "only {present} shards present, need {needed}")
            }
            RsError::ShardLengthMismatch => write!(f, "shard lengths differ"),
            RsError::WrongShardCount { got, expected } => {
                write!(f, "got {got} shards, expected {expected}")
            }
            RsError::NotADataShard { target, k } => {
                write!(f, "shard {target} is not one of the {k} data shards")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic `(k, n)` Reed–Solomon codec.
///
/// # Examples
///
/// ```
/// use spcache_ec::ReedSolomon;
///
/// let rs = ReedSolomon::new(4, 6); // 4 data + 2 parity
/// let data: Vec<u8> = (0..400u32).map(|i| (i % 251) as u8).collect();
/// let shards = rs.encode_bytes(&data);
/// assert_eq!(shards.len(), 6);
///
/// // Lose any two shards and reconstruct.
/// let mut partial: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
/// partial[0] = None;
/// partial[5] = None;
/// let recovered = rs.reconstruct_data(&mut partial).unwrap();
/// assert_eq!(&recovered[..data.len()], &data[..]);
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    n: usize,
    /// `n × k` systematic encoding matrix.
    encode: Matrix,
}

impl ReedSolomon {
    /// Creates a `(k, n)` codec: `k` data shards, `n − k` parity shards.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k <= n <= 255`.
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(n >= k, "n must be at least k");
        assert!(n <= 255, "GF(256) supports at most 255 shards");
        ReedSolomon {
            k,
            n,
            encode: Matrix::systematic_vandermonde(n, k),
        }
    }

    /// Creates a `(k, n)` codec on the **Cauchy** systematic matrix
    /// ([`Matrix::systematic_cauchy`]) instead of Vandermonde — the
    /// construction the integrity/parity tier uses for hot-file parity
    /// partitions, where the MDS property must hold for every `k`-of-`n`
    /// subset without an evaluation-point argument.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k <= n` and `n + k <= 256`.
    pub fn new_cauchy(k: usize, n: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(n >= k, "n must be at least k");
        ReedSolomon {
            k,
            n,
            encode: Matrix::systematic_cauchy(n, k),
        }
    }

    /// Number of data shards.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Total number of shards.
    pub fn total_shards(&self) -> usize {
        self.n
    }

    /// Number of parity shards.
    pub fn parity_shards(&self) -> usize {
        self.n - self.k
    }

    /// Memory overhead `(n − k)/k` — 0.4 for the paper's (10, 14) code.
    pub fn overhead(&self) -> f64 {
        (self.n - self.k) as f64 / self.k as f64
    }

    /// Splits `data` into `k` padded shards and appends `n − k` parity
    /// shards. Shard length is `ceil(len / k)` (the last data shard is
    /// zero-padded). The parity is [`encode_parity`](Self::encode_parity)'s.
    pub fn encode_bytes(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let mut shards = split_into_shards(data, self.k);
        let slot = data.len().div_ceil(self.k).max(1);
        let parity: Vec<Vec<u8>> = (self.k..self.n)
            .map(|row| self.parity_row(row, &shards, slot))
            .collect();
        shards.extend(parity);
        shards
    }

    /// Encodes the `n − k` parity shards of a file from its `k` data
    /// views, each `slot` bytes long — `ceil(len / k).max(1)`, the slot
    /// [`split_shards_bytes`] cuts. A view may be shorter than the slot
    /// (the ragged last partition, or an empty one when the file is
    /// shorter than `k`) and counts as zero-padded to it; nothing is
    /// copied. The parity is byte-identical to
    /// [`encode_bytes`](Self::encode_bytes)'.
    ///
    /// # Errors
    ///
    /// [`RsError::WrongShardCount`] unless there are `k` views;
    /// [`RsError::ShardLengthMismatch`] for a view longer than `slot`.
    pub fn encode_parity<B: AsRef<[u8]>>(
        &self,
        data: &[B],
        slot: usize,
    ) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.k {
            return Err(RsError::WrongShardCount {
                got: data.len(),
                expected: self.k,
            });
        }
        if data.iter().any(|d| d.as_ref().len() > slot) {
            return Err(RsError::ShardLengthMismatch);
        }
        Ok((self.k..self.n)
            .map(|row| self.parity_row(row, data, slot))
            .collect())
    }

    /// Parity shard `row` (`k <= row < n`) over `k` views no longer than
    /// `slot`: one sweep of the kernel.
    fn parity_row<B: AsRef<[u8]>>(&self, row: usize, data: &[B], slot: usize) -> Vec<u8> {
        let terms: Vec<(u8, &[u8])> = self
            .encode
            .row(row)
            .iter()
            .copied()
            .zip(data.iter().map(AsRef::as_ref))
            .collect();
        let mut parity = vec![0u8; slot];
        gf256::dot_prod(&terms, &mut parity);
        parity
    }

    /// Verifies that parity shards are consistent with the data shards.
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, RsError> {
        if shards.len() != self.n {
            return Err(RsError::WrongShardCount {
                got: shards.len(),
                expected: self.n,
            });
        }
        let shard_len = shards[0].len();
        if shards.iter().any(|s| s.len() != shard_len) {
            return Err(RsError::ShardLengthMismatch);
        }
        let data = &shards[..self.k];
        Ok((self.k..self.n).all(|row| self.parity_row(row, data, shard_len) == shards[row]))
    }

    /// Decodes data shard `target` from any `k` of the `n` shard views
    /// into `out`, which it overwrites with the shard's first `out.len()`
    /// bytes. `shards[i] = None` marks an erasure; nothing but `out` is
    /// written, so a reader rebuilds exactly what it lost, in place.
    ///
    /// Views may be ragged — the last data partition of a file is short —
    /// and a view shorter than the shard counts as zero-padded to it. The
    /// padding is virtual: a zero contributes nothing to a GF(2⁸) sum.
    /// The decode is one sweep of [`gf256::dot_prod`] with the inverted
    /// rows' coefficients: `out` is written once.
    ///
    /// # Errors
    ///
    /// [`RsError::NotADataShard`] unless `target < k`;
    /// [`RsError::WrongShardCount`] unless `shards.len() == n`;
    /// [`RsError::TooFewShards`] with fewer than `k` views present.
    pub fn decode_shard(
        &self,
        shards: &[Option<&[u8]>],
        target: usize,
        out: &mut [u8],
    ) -> Result<(), RsError> {
        if target >= self.k {
            return Err(RsError::NotADataShard { target, k: self.k });
        }
        if shards.len() != self.n {
            return Err(RsError::WrongShardCount {
                got: shards.len(),
                expected: self.n,
            });
        }
        if let Some(src) = shards[target] {
            let m = src.len().min(out.len());
            out[..m].copy_from_slice(&src[..m]);
            out[m..].fill(0);
            return Ok(());
        }
        // The first k present shards and their rows of the encoding
        // matrix, inverted: data_target = Σ_i inv[target][i] · shard(rows[i]).
        let (rows, srcs): (Vec<usize>, Vec<&[u8]>) = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (i, s)))
            .take(self.k)
            .unzip();
        if rows.len() < self.k {
            return Err(RsError::TooFewShards {
                present: rows.len(),
                needed: self.k,
            });
        }
        // Every constructor builds an MDS matrix (systematic Vandermonde
        // over distinct points, or Cauchy), and `rows` are k distinct
        // row indices, so their submatrix always inverts.
        #[allow(clippy::expect_used)]
        let inv = self
            .encode
            .submatrix_rows(&rows)
            .inverted()
            .expect("any k rows of a systematic MDS matrix are invertible");
        let terms: Vec<(u8, &[u8])> = srcs
            .into_iter()
            .enumerate()
            .map(|(i, src)| (inv[(target, i)], src))
            .collect();
        gf256::dot_prod(&terms, out);
        Ok(())
    }

    /// Reconstructs **all** missing shards in place. `shards[i] = None`
    /// marks an erasure. Requires at least `k` present shards of one
    /// length. Data shards come from [`decode_shard`](Self::decode_shard),
    /// parity is re-encoded from them.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        if shards.len() != self.n {
            return Err(RsError::WrongShardCount {
                got: shards.len(),
                expected: self.n,
            });
        }
        let lens: Vec<usize> = shards.iter().flatten().map(Vec::len).collect();
        if lens.len() < self.k {
            return Err(RsError::TooFewShards {
                present: lens.len(),
                needed: self.k,
            });
        }
        let shard_len = lens[0];
        if lens.iter().any(|&len| len != shard_len) {
            return Err(RsError::ShardLengthMismatch);
        }
        if lens.len() == self.n {
            return Ok(()); // nothing missing
        }

        let recovered = {
            let views: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
            (0..self.k)
                .filter(|&j| views[j].is_none())
                .map(|j| {
                    let mut out = vec![0u8; shard_len];
                    self.decode_shard(&views, j, &mut out).map(|()| (j, out))
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        for (j, buf) in recovered {
            shards[j] = Some(buf);
        }

        // Now all data shards exist; re-encode only the missing parity.
        let (data, parity) = shards.split_at_mut(self.k);
        let data: Vec<&[u8]> = data.iter().flatten().map(Vec::as_slice).collect();
        for (row, slot) in (self.k..).zip(parity.iter_mut()) {
            if slot.is_none() {
                *slot = Some(self.parity_row(row, &data, shard_len));
            }
        }
        Ok(())
    }

    /// Reconstructs and concatenates the `k` data shards (including any
    /// padding added at encode time).
    pub fn reconstruct_data(&self, shards: &mut [Option<Vec<u8>>]) -> Result<Vec<u8>, RsError> {
        self.reconstruct(shards)?;
        let data: Vec<&[u8]> = shards[..self.k]
            .iter()
            .flatten()
            .map(Vec::as_slice)
            .collect();
        Ok(data.concat())
    }
}

/// Splits `data` into exactly `k` equal shards, zero-padding the tail.
/// This is also SP-Cache's *coding-free* partitioner: selective partition
/// is precisely "split into k, no parity".
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn split_into_shards(data: &[u8], k: usize) -> Vec<Vec<u8>> {
    assert!(k > 0, "cannot split into zero shards");
    let shard_len = data.len().div_ceil(k).max(1);
    let mut shards = Vec::with_capacity(k);
    for i in 0..k {
        let start = (i * shard_len).min(data.len());
        let end = ((i + 1) * shard_len).min(data.len());
        let mut shard = Vec::with_capacity(shard_len);
        shard.extend_from_slice(&data[start..end]);
        shard.resize(shard_len, 0);
        shards.push(shard);
    }
    shards
}

/// Zero-copy partitioner: slices one backing [`Bytes`] buffer into `k`
/// partition *views* sharing its allocation — no bytes move. The layout
/// matches [`split_into_shards`] (equal `ceil(len/k)` slots) except that
/// the tail partition is left short instead of zero-padded, exactly the
/// byte ranges `spcache_core::online::partition_range` describes.
/// [`join_shards_bytes`] reassembles either layout (it truncates at the
/// original length).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn split_shards_bytes(data: &Bytes, k: usize) -> Vec<Bytes> {
    assert!(k > 0, "cannot split into zero shards");
    let slot = data.len().div_ceil(k).max(1);
    (0..k)
        .map(|i| {
            let start = (i * slot).min(data.len());
            let end = ((i + 1) * slot).min(data.len());
            data.slice(start..end)
        })
        .collect()
}

/// Joins `k` shards back into a file of `original_len` bytes (dropping the
/// padding `split_into_shards` added).
///
/// # Panics
///
/// Panics if the shards cannot contain `original_len` bytes.
pub fn join_shards(shards: &[Vec<u8>], original_len: usize) -> Vec<u8> {
    let total: usize = shards.iter().map(Vec::len).sum();
    assert!(total >= original_len, "shards shorter than original file");
    let mut out = Vec::with_capacity(original_len);
    for s in shards {
        if out.len() >= original_len {
            break;
        }
        let take = (original_len - out.len()).min(s.len());
        out.extend_from_slice(&s[..take]);
    }
    out
}

/// Zero-copy variant of [`join_shards`] producing `Bytes` per shard slice
/// view; used by the store crate to avoid an extra copy on the read path.
pub fn join_shards_bytes(shards: &[Bytes], original_len: usize) -> Vec<u8> {
    let total: usize = shards.iter().map(Bytes::len).sum();
    assert!(total >= original_len, "shards shorter than original file");
    let mut out = Vec::with_capacity(original_len);
    for s in shards {
        if out.len() >= original_len {
            break;
        }
        let take = (original_len - out.len()).min(s.len());
        out.extend_from_slice(&s[..take]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + 7) % 256) as u8).collect()
    }

    #[test]
    fn encode_produces_n_equal_shards() {
        let rs = ReedSolomon::new(10, 14);
        let data = sample_data(1003); // not divisible by 10
        let shards = rs.encode_bytes(&data);
        assert_eq!(shards.len(), 14);
        let len = shards[0].len();
        assert_eq!(len, 101); // ceil(1003/10)
        assert!(shards.iter().all(|s| s.len() == len));
    }

    #[test]
    fn verify_accepts_valid_and_rejects_corrupt() {
        let rs = ReedSolomon::new(4, 6);
        let data = sample_data(256);
        let mut shards = rs.encode_bytes(&data);
        assert_eq!(rs.verify(&shards), Ok(true));
        shards[5][3] ^= 0xFF;
        assert_eq!(rs.verify(&shards), Ok(false));
    }

    #[test]
    fn roundtrip_no_erasures() {
        let rs = ReedSolomon::new(3, 5);
        let data = sample_data(100);
        let shards = rs.encode_bytes(&data);
        let mut partial: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        let rec = rs.reconstruct_data(&mut partial).unwrap();
        assert_eq!(&rec[..100], &data[..]);
    }

    #[test]
    fn recovers_from_any_max_erasure_pattern() {
        let rs = ReedSolomon::new(4, 7); // tolerates any 3 erasures
        let data = sample_data(512);
        let shards = rs.encode_bytes(&data);
        // All C(7,3) = 35 erasure patterns.
        for a in 0..7 {
            for b in (a + 1)..7 {
                for c in (b + 1)..7 {
                    let mut partial: Vec<Option<Vec<u8>>> =
                        shards.iter().cloned().map(Some).collect();
                    partial[a] = None;
                    partial[b] = None;
                    partial[c] = None;
                    let rec = rs.reconstruct_data(&mut partial).unwrap();
                    assert_eq!(&rec[..512], &data[..], "erasures ({a},{b},{c})");
                    // Parity shards are also restored.
                    for (i, s) in partial.iter().enumerate() {
                        assert_eq!(s.as_ref().unwrap(), &shards[i], "shard {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_fails() {
        let rs = ReedSolomon::new(4, 6);
        let data = sample_data(64);
        let shards = rs.encode_bytes(&data);
        let mut partial: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        partial[0] = None;
        partial[1] = None;
        partial[2] = None;
        assert_eq!(
            rs.reconstruct(&mut partial),
            Err(RsError::TooFewShards {
                present: 3,
                needed: 4
            })
        );
    }

    #[test]
    fn wrong_shard_count_rejected() {
        let rs = ReedSolomon::new(2, 4);
        let mut partial: Vec<Option<Vec<u8>>> = vec![Some(vec![0u8; 4]); 3];
        assert_eq!(
            rs.reconstruct(&mut partial),
            Err(RsError::WrongShardCount {
                got: 3,
                expected: 4
            })
        );
    }

    #[test]
    fn inconsistent_lengths_rejected() {
        let rs = ReedSolomon::new(2, 3);
        let mut partial = vec![Some(vec![0u8; 4]), Some(vec![0u8; 5]), None];
        assert_eq!(
            rs.reconstruct(&mut partial),
            Err(RsError::ShardLengthMismatch)
        );
    }

    #[test]
    fn pure_replication_degenerate_codes() {
        // (1, 3): every shard is a replica of the data.
        let rs = ReedSolomon::new(1, 3);
        let data = sample_data(37);
        let shards = rs.encode_bytes(&data);
        assert_eq!(shards[0], data);
        assert_eq!(shards[1], data);
        assert_eq!(shards[2], data);
    }

    #[test]
    fn coding_free_mode_is_plain_split() {
        // (k, k): EC-Cache's "coding-free" configuration from Section 4.1.
        let rs = ReedSolomon::new(5, 5);
        let data = sample_data(100);
        let shards = rs.encode_bytes(&data);
        assert_eq!(shards, split_into_shards(&data, 5));
    }

    #[test]
    fn split_join_roundtrip_various_sizes() {
        for len in [0usize, 1, 9, 10, 11, 100, 1021] {
            for k in [1usize, 2, 3, 7, 10] {
                let data = sample_data(len);
                let shards = split_into_shards(&data, k);
                assert_eq!(shards.len(), k);
                let joined = join_shards(&shards, len);
                assert_eq!(joined, data, "len={len} k={k}");
            }
        }
    }

    #[test]
    fn split_empty_file() {
        let shards = split_into_shards(&[], 4);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.len() == 1)); // min shard len 1
        assert!(join_shards(&shards, 0).is_empty());
    }

    #[test]
    fn join_bytes_matches_join() {
        let data = sample_data(77);
        let shards = split_into_shards(&data, 3);
        let byte_shards: Vec<Bytes> = shards.iter().cloned().map(Bytes::from).collect();
        assert_eq!(
            join_shards_bytes(&byte_shards, 77),
            join_shards(&shards, 77)
        );
    }

    #[test]
    fn encode_parity_from_ragged_views_is_encode_bytes_parity() {
        for (k, r) in [(1usize, 1usize), (3, 1), (4, 2), (10, 4), (16, 4)] {
            let rs = ReedSolomon::new_cauchy(k, k + r);
            for len in [0usize, 1, k - 1, k, k + 1, 3 * k + 1, 1003, 4099] {
                let data = Bytes::from(sample_data(len));
                let slot = len.div_ceil(k).max(1);
                let views = split_shards_bytes(&data, k);
                let parity = rs.encode_parity(&views, slot).unwrap();
                assert_eq!(parity, rs.encode_bytes(&data)[k..], "k={k} r={r} len={len}");
            }
        }
    }

    #[test]
    fn encode_parity_refuses_views_that_do_not_fit() {
        let rs = ReedSolomon::new_cauchy(3, 4);
        let views = [vec![1u8; 4], vec![2; 4], vec![3; 2]];
        assert_eq!(
            rs.encode_parity(&views[..2], 4),
            Err(RsError::WrongShardCount {
                got: 2,
                expected: 3
            })
        );
        assert_eq!(
            rs.encode_parity(&views, 3),
            Err(RsError::ShardLengthMismatch)
        );
    }

    #[test]
    fn decode_shard_refuses_a_parity_target() {
        let rs = ReedSolomon::new_cauchy(2, 3);
        let shards = rs.encode_bytes(b"abcd");
        let held: Vec<Option<&[u8]>> = shards.iter().map(|s| Some(&s[..])).collect();
        let mut out = [0u8; 2];
        assert_eq!(
            rs.decode_shard(&held, 2, &mut out),
            Err(RsError::NotADataShard { target: 2, k: 2 })
        );
    }

    #[test]
    fn overhead_matches_paper_configuration() {
        let rs = ReedSolomon::new(10, 14);
        assert!((rs.overhead() - 0.4).abs() < 1e-12);
        assert_eq!(rs.parity_shards(), 4);
    }
}
