//! Reed–Solomon codec throughput (Fig. 4's substrate) and its GF(2⁸)
//! slice kernel on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use spcache_ec::gf256;
use spcache_ec::ReedSolomon;

fn sample(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 7) % 256) as u8).collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_encode_10_14");
    for &mb in &[1usize, 8, 32] {
        let data = sample(mb * 1_000_000);
        let rs = ReedSolomon::new(10, 14);
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(format!("{mb}MB")), &data, |b, d| {
            b.iter(|| black_box(rs.encode_bytes(black_box(d))));
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_decode_10_14_two_erasures");
    for &mb in &[1usize, 8, 32] {
        let data = sample(mb * 1_000_000);
        let rs = ReedSolomon::new(10, 14);
        let shards = rs.encode_bytes(&data);
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{mb}MB")),
            &shards,
            |b, shards| {
                b.iter(|| {
                    let mut partial: Vec<Option<Vec<u8>>> =
                        shards.iter().cloned().map(Some).collect();
                    partial[0] = None;
                    partial[13] = None;
                    black_box(rs.reconstruct_data(&mut partial).unwrap())
                });
            },
        );
    }
    g.finish();
}

fn bench_gf_kernels(c: &mut Criterion) {
    let src = sample(1 << 20);
    let mut g = c.benchmark_group("gf256_mul_acc_1MiB");
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("split_nibble", |b| {
        let mut dst = vec![0u8; src.len()];
        b.iter(|| gf256::mul_acc_slice(black_box(0x57), black_box(&src), black_box(&mut dst)));
    });
    g.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_gf_kernels);
criterion_main!(benches);
