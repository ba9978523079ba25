#![warn(missing_docs)]

//! Erasure-coding substrate for the EC-Cache baseline.
//!
//! EC-Cache (Rashmi et al., OSDI'16) — the state-of-the-art system SP-Cache
//! is compared against — stores each file as a systematic `(k, n)`
//! Reed–Solomon code: `k` data shards plus `n − k` parity shards, any `k`
//! of which reconstruct the file. The paper used Intel ISA-L; this crate
//! reimplements the same algebra from scratch:
//!
//! * [`gf256`] — arithmetic in GF(2⁸) with the polynomial
//!   `x⁸+x⁴+x³+x²+1` (0x11D), including the fused dot-product kernel
//!   (`dot_prod`) that every encode and decode runs through,
//! * [`matrix`] — dense matrices over GF(2⁸) with Gauss-Jordan inversion
//!   and Cauchy/Vandermonde constructions,
//! * [`rs`] — the systematic Reed–Solomon codec: encode parity from k
//!   borrowed (ragged) views, verify, decode one data shard from any k
//!   such views into the caller's buffer, reconstruct-from-any-k on top
//!   of it, plus the file
//!   split/join helpers shared with SP-Cache's (coding-free) partitioner.
//!
//! The decode overhead measured on this codec regenerates the paper's
//! Fig. 4 (decoding time normalized by read latency, growing with file
//! size).

pub mod gf256;
pub mod matrix;
pub mod rs;

pub use matrix::Matrix;
pub use rs::{join_shards, join_shards_bytes, split_into_shards, split_shards_bytes, ReedSolomon};
