//! The integrity tier's two byte kernels, held to their stored values.
//!
//! `spcache_integrity::crc64` and `spcache_ec::gf256::mul_acc_slice`
//! dispatch at run time between a SIMD path and a portable one, and
//! what they compute is *format*: sums ride `Put` frames and sit in the
//! master's journal, parity shards sit in workers. Whatever path a
//! machine takes, the bits must be the ones every earlier build wrote.
//! Public API only, so this runs in tier 1 (`cargo test` at the root).

use spcache_ec::gf256;
use spcache_integrity::{crc64, sum};

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 7) % 251) as u8).collect()
}

/// CRC-64/XZ one bit at a time, straight from the definition.
fn crc64_bitwise(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= b as u64;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Values computed by the one-lookup-per-byte loop these kernels
/// replaced; a change here is a change of the wire and journal format.
#[test]
fn stored_values_are_the_ones_earlier_builds_wrote() {
    let golden: [(usize, Option<u64>, u64); 5] = [
        (0, Some(0), 0xb66a_7365_4282_cac0),
        (4_096, Some(0x23e9_7356_2f48_0381), 0x5761_0db5_ba71_7fa2),
        (65_537, Some(0xe9cf_45a8_6d17_f6d1), 0x0365_90f2_5491_432d),
        // One partition of a `write_mix` file (2 MiB over k = 3).
        (699_051, Some(0xd97b_7672_761e_6c4b), 0xbd6b_4dcb_0559_67d6),
        (1 << 20, None, 0x2d7e_6f5b_d124_ff2d),
    ];
    for (len, want_crc, want_sum) in golden {
        let bytes = pattern(len);
        if let Some(want) = want_crc {
            assert_eq!(crc64(&bytes), want, "crc64, len {len}");
        }
        assert_eq!(sum(&bytes), want_sum, "sum, len {len}");
    }
}

#[test]
fn crc64_matches_the_bitwise_definition_at_every_length_and_offset() {
    let buf = pattern(65_537 + 33);
    for offset in 0..=33 {
        for len in (0..=600).chain([65_535, 65_536, 65_537]) {
            let bytes = &buf[offset..offset + len];
            assert_eq!(
                crc64(bytes),
                crc64_bitwise(bytes),
                "offset {offset} len {len}"
            );
        }
    }
}

#[test]
fn mul_acc_slice_matches_per_byte_mul_for_every_coefficient() {
    let src = pattern(4_099 + 17);
    let check = |c: u8, src: &[u8]| {
        let init: Vec<u8> = (0..src.len()).map(|i| (i * 29 + 1) as u8).collect();
        let mut dst = init.clone();
        gf256::mul_acc_slice(c, src, &mut dst);
        for (i, (&d, (&s, &was))) in dst.iter().zip(src.iter().zip(&init)).enumerate() {
            assert_eq!(
                d,
                was ^ gf256::mul(c, s),
                "c {c} len {} byte {i}",
                src.len()
            );
        }
    };
    for c in 0..=255u8 {
        for offset in 0..=17 {
            for len in (0..=70).chain([4_099]) {
                check(c, &src[offset..offset + len]);
            }
        }
    }
}
