//! Fixtures shared by the chaos and e2e integration tests: the fleet
//! shape, the seed override, deterministic file contents and placements.
//! Each test binary uses its own subset.
#![allow(dead_code)]

pub const N_WORKERS: usize = 6;
pub const N_FILES: u64 = 20;
pub const FILE_LEN: usize = 12_000;

/// Workload seed: 42 unless the CI seed sweep overrides it via
/// `SPCACHE_CHAOS_SEED`. Fault logs are op-indexed, so every seed must
/// satisfy the same assertions.
pub fn chaos_seed() -> u64 {
    std::env::var("SPCACHE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Deterministic contents, distinct per file.
pub fn payload(id: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(131).wrapping_add(id * 17 + 3) % 256) as u8)
        .collect()
}

/// Two partitions per file over [`N_WORKERS`], placed deterministically
/// so fault plans can name exact victim keys.
pub fn placement(id: u64) -> Vec<usize> {
    vec![id as usize % N_WORKERS, (id as usize + 1) % N_WORKERS]
}
