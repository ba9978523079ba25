//! Fixtures shared by the socket-level integration tests. Each test
//! binary uses its own subset.
#![allow(dead_code)]

use spcache_store::RetryPolicy;
use std::time::{Duration, Instant};

pub const N_WORKERS: usize = 4;

/// Workload seed: 42 unless the CI seed sweep overrides it via
/// `SPCACHE_CHAOS_SEED`.
pub fn chaos_seed() -> u64 {
    std::env::var("SPCACHE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Deterministic payload, distinct per file.
pub fn payload(id: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 131 + id as usize * 17 + 3) % 256) as u8)
        .collect()
}

/// A retry policy generous enough to absorb scripted wire faults.
pub fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2),
        deadline: Duration::from_secs(2),
    }
}

/// Polls `cond` every 20 ms; panics if it does not hold within
/// `deadline`.
pub fn await_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() <= deadline,
            "{what} did not happen within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
