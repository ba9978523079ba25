#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of the SP-Cache
//! paper.
//!
//! The `experiments` binary dispatches to one function per paper artifact;
//! each prints the same rows/series the paper reports. Absolute numbers
//! come from this repository's simulator and in-process store rather than
//! EC2, so they are compared against the paper by *shape* (who wins, by
//! roughly what factor, where crossovers fall) — see EXPERIMENTS.md.
//!
//! Run everything: `cargo run --release -p spcache-bench --bin experiments -- all`
//! Run one:        `cargo run --release -p spcache-bench --bin experiments -- fig13`
//! Faster pass:    add `--quick`.
//!
//! The [`perf`] module (the `perf` binary) measures the three store rows
//! the end-to-end benchmark in `benchmark/` has no workload for —
//! recovery, paced recovery and the verified read — and validates
//! `BENCH_store.json` against their bounds. The Criterion files under
//! `benches/` time the building blocks EXPERIMENTS.md quotes.

pub mod experiments;
pub mod perf;
pub mod table;

/// Experiment scale: `quick` shrinks request counts ~10× for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Divide request counts by this factor.
    pub divisor: usize,
}

impl Scale {
    /// Full-size experiments (the default).
    pub fn full() -> Self {
        Scale { divisor: 1 }
    }

    /// ~10× faster smoke-test scale.
    pub fn quick() -> Self {
        Scale { divisor: 10 }
    }

    /// Applies the scale to a request count (min 500 so percentiles stay
    /// meaningful).
    pub fn requests(&self, full: usize) -> usize {
        (full / self.divisor).max(500)
    }

    /// Applies the scale to a trial count (min 3).
    pub fn trials(&self, full: usize) -> usize {
        (full / self.divisor).max(3)
    }

    /// Applies the scale to a byte size (min 64 KiB).
    pub fn bytes(&self, full: usize) -> usize {
        (full / self.divisor).max(64 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_arithmetic() {
        assert_eq!(Scale::full().requests(20_000), 20_000);
        assert_eq!(Scale::quick().requests(20_000), 2_000);
        assert_eq!(Scale::quick().requests(1_000), 500);
        assert_eq!(Scale::quick().trials(10), 3);
        assert_eq!(Scale::quick().bytes(1 << 20), 104_857);
    }
}
