//! The integrity tier's two byte kernels, and the parity the codec
//! builds on them, held to their stored values.
//!
//! `spcache_integrity::crc64` and `spcache_ec::gf256::mul_acc_slice`
//! dispatch at run time between a SIMD path and a portable one, and
//! what they compute is *format*: sums ride `Put` frames and sit in the
//! master's journal, parity shards sit in workers. Whatever path a
//! machine takes, the bits must be the ones every earlier build wrote.
//! Public API only, so this runs in tier 1 (`cargo test` at the root).

use spcache_ec::{gf256, ReedSolomon};
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

/// The parity sums a `(k, k + r)` Cauchy code stores for a file: every
/// parity shard `encode_bytes` produced when parity first rode `Put`
/// frames, for lengths 0, 1, k − 1, k + 1, 4 099 and `write_mix`'s
/// 2 MiB (ragged over k = 3). Parity sits in workers and is proved
/// against journalled sums, so a change here is a change of format.
#[test]
fn parity_is_the_one_earlier_builds_stored() {
    let golden: [(usize, usize, usize, &[u64]); 18] = [
        (3, 1, 0, &[0x1dd1_86b0_5659_be3d]),
        (3, 1, 1, &[0xaaa7_074f_8fc5_33dd]),
        (3, 1, 2, &[0x6bb7_6630_4cf0_dbb5]),
        (3, 1, 4, &[0x1fd1_e402_9212_e6a5]),
        (3, 1, 4_099, &[0x68c0_e4cb_a92a_23ed]),
        (3, 1, 2_097_152, &[0xd060_dcf2_cf45_30f4]),
        (4, 2, 0, &[0x1dd1_86b0_5659_be3d, 0x1dd1_86b0_5659_be3d]),
        (4, 2, 1, &[0x3d9c_043a_ed8e_8f20, 0x8fd8_3d4b_199e_a154]),
        (4, 2, 3, &[0x8fd8_3d4b_199e_a154, 0x1286_4f22_20cc_5a81]),
        (4, 2, 5, &[0x64ce_d653_29d4_54ea, 0xbba8_5e7f_5b4f_9ee5]),
        (4, 2, 4_099, &[0x81f4_bca7_11e8_169c, 0xd2c0_e023_302f_59ad]),
        (
            4,
            2,
            2_097_152,
            &[0xf71c_d8e1_9798_da32, 0xdd2f_d6af_bda7_0fb1],
        ),
        (
            10,
            4,
            0,
            &[
                0x1dd1_86b0_5659_be3d,
                0x1dd1_86b0_5659_be3d,
                0x1dd1_86b0_5659_be3d,
                0x1dd1_86b0_5659_be3d,
            ],
        ),
        (
            10,
            4,
            1,
            &[
                0xe323_c103_714b_4da1,
                0x2701_18f2_9ff2_065d,
                0xf0a1_1e92_8a17_d89a,
                0x62a8_a569_c5d0_c7f3,
            ],
        ),
        (
            10,
            4,
            9,
            &[
                0x3376_948a_7207_c62b,
                0x61d2_172c_17e9_9c9d,
                0x5692_ab9b_93f2_3698,
                0xaf95_bfc1_a249_9049,
            ],
        ),
        (
            10,
            4,
            11,
            &[
                0xb54d_8330_91cf_2dfe,
                0x7617_6923_2f58_fc89,
                0xb63e_e051_324c_3850,
                0x3659_a3de_ba3b_edeb,
            ],
        ),
        (
            10,
            4,
            4_099,
            &[
                0xd27c_a2f5_064c_553b,
                0xd14f_7066_c472_7b32,
                0xcf7f_42b0_71e9_1a4c,
                0xe8cb_d449_f2f3_584f,
            ],
        ),
        (
            10,
            4,
            2_097_152,
            &[
                0x8fb0_8f5d_489a_4879,
                0xcd98_3b16_8ac9_b550,
                0xaad3_cdbd_b286_9325,
                0x40f6_b16f_feb0_bd6c,
            ],
        ),
    ];
    for (k, r, len, want) in golden {
        let mut shards = ReedSolomon::new_cauchy(k, k + r).encode_bytes(&pattern(len));
        let parity = shards.split_off(k);
        let got: Vec<u64> = parity.iter().map(|p| sum(p)).collect();
        assert_eq!(got, want, "k {k} r {r} len {len}");
    }
}
