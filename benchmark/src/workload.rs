//! The five workloads: cluster shape, seeded files, placements and the
//! closed-loop operation streams. Everything here is a pure function of
//! `(workload name, seed)`.

use bytes::Bytes;
use rand::Rng;
use spcache_core::partition::partition_counts_clamped;
use spcache_core::placement::random_distinct;
use spcache_core::tuner::{tune_scale_factor_with_rate, Tuned, TunerConfig};
use spcache_core::FileSet;
use spcache_sim::Xoshiro256StarStar;
use spcache_workload::{zipf_popularities, ZipfSampler};
use std::time::Instant;

/// Workload names with the one-line rationale `BENCHMARK.json` carries.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "zipf_sp",
        "Paper headline: 8 workers at 1 Gb/s, 64 Zipf(1.05) files (hot ones 16x larger), k from Algorithm 1, random placement, 2 clients; token buckets and queueing set the time, data-path CPU does not",
    ),
    (
        "large_read",
        "Per-byte cost of the data path: 4 unthrottled workers, 16 files x 16 MiB, k=4, uniform reads, 1 client; socket copies, frame decode and the reply join dominate, metadata is under 5% of an op",
    ),
    (
        "small_read",
        "Per-message cost: 4 unthrottled workers, 4096 files x 4 KiB, k=1, Zipf(1.05), 1 client; master round trips, one Get, thread hand-offs and frame headers dominate, payload copies are noise",
    ),
    (
        "budget_zipf",
        "Working set 2x the cache: 4 workers with --memory-budget at half their share, 48 files x 4 MiB, k=4, Zipf(1.05), 1 client; LRU eviction, spill and always-verified reloads are on the read path",
    ),
    (
        "write_mix",
        "Integrity tier on (verify, 1 parity, journalled master): 50% fresh 2 MiB writes, 25% reads, 25% degraded reads that lose a partition and decode k of k+1; read_* here are the degraded reads",
    ),
];

const MIB: usize = 1 << 20;
const KIB: usize = 1 << 10;

/// Ids of files written during the run start here, far above any seeded id.
const FRESH_BASE: u64 = 1 << 32;
/// Distinct payloads cycled through by fresh writes.
const FRESH_POOL: u64 = 8;

#[derive(Debug, Clone, PartialEq)]
pub struct FileSpec {
    pub id: u64,
    pub size: usize,
    /// Worker of partition `j` is `servers[j]`; `k = servers.len()`.
    pub servers: Vec<usize>,
}

/// Shares of the op mix, in percent (the rest are plain reads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub write: u64,
    pub degraded: u64,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workers: usize,
    /// `--bandwidth` of every worker, bytes/s.
    pub bandwidth: Option<f64>,
    /// `--memory-budget` of every worker, bytes.
    pub memory_budget: Option<usize>,
    /// The integrity tier as one switch: workers `--verify-reads`, master
    /// `--meta-dir`, client `.with_verify(true).with_parity(1)`.
    pub integrity: bool,
    /// Closed-loop client threads.
    pub clients: usize,
    pub files: Vec<FileSpec>,
    /// Read popularity of `files[i]`, summing to 1.
    pub popularity: Vec<f64>,
    pub mix: Mix,
    /// Size and partition count of files written during the run.
    pub fresh: Option<(usize, usize)>,
    /// Algorithm 1's result and how long it took (µs), where it chose k.
    pub tuned: Option<(Tuned, f64)>,
    pub seed: u64,
}

impl Spec {
    pub fn new(name: &str, seed: u64) -> Result<Spec, String> {
        let mut rng = Xoshiro256StarStar::seed(seed);
        let mut spec = Spec {
            workers: 4,
            bandwidth: None,
            memory_budget: None,
            integrity: false,
            clients: 1,
            files: Vec::new(),
            popularity: Vec::new(),
            mix: Mix {
                write: 0,
                degraded: 0,
            },
            fresh: None,
            tuned: None,
            seed,
        };
        let uniform = |n: usize, size: usize, k: usize, rng: &mut Xoshiro256StarStar| {
            (0..n as u64)
                .map(|id| FileSpec {
                    id,
                    size,
                    servers: random_distinct(k, 4, rng),
                })
                .collect::<Vec<_>>()
        };
        match name {
            "zipf_sp" => {
                spec.workers = 8;
                spec.bandwidth = Some(125e6);
                spec.clients = 2;
                spec.popularity = zipf_popularities(64, 1.05);
                let sizes: Vec<f64> = (0..64)
                    .map(|rank| (if rank < 8 { 4 * MIB } else { 256 * KIB }) as f64)
                    .collect();
                let set = FileSet::from_parts(&sizes, &spec.popularity);
                let t0 = Instant::now();
                let tuned =
                    tune_scale_factor_with_rate(&set, 8, 125e6, 150.0, &TunerConfig::default());
                let tune_us = t0.elapsed().as_secs_f64() * 1e6;
                let ks = partition_counts_clamped(&set, tuned.alpha, 8);
                spec.files = ks
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| FileSpec {
                        id: i as u64,
                        size: sizes[i] as usize,
                        servers: random_distinct(k, 8, &mut rng),
                    })
                    .collect();
                spec.tuned = Some((tuned, tune_us));
            }
            "large_read" => {
                spec.files = uniform(16, 16 * MIB, 4, &mut rng);
                spec.popularity = vec![1.0 / 16.0; 16];
            }
            "small_read" => {
                spec.files = uniform(4096, 4 * KIB, 1, &mut rng);
                spec.popularity = zipf_popularities(4096, 1.05);
            }
            "budget_zipf" => {
                spec.files = uniform(48, 4 * MIB, 4, &mut rng);
                spec.popularity = zipf_popularities(48, 1.05);
                // Half of each worker's share of the data set.
                spec.memory_budget = Some(48 * 4 * MIB / 4 / 2);
            }
            "write_mix" => {
                spec.integrity = true;
                spec.files = uniform(16, 2 * MIB, 3, &mut rng);
                spec.popularity = vec![1.0 / 16.0; 16];
                spec.mix = Mix {
                    write: 50,
                    degraded: 25,
                };
                spec.fresh = Some((2 * MIB, 3));
            }
            other => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                return Err(format!("unknown workload {other:?} (have {names:?})"));
            }
        }
        Ok(spec)
    }

    pub fn user_bytes(&self) -> usize {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Stored bytes per user byte a correct run must show: 1 without
    /// parity (redundancy-free), `(k + 1) / k` with one parity partition.
    pub fn expected_stored_ratio(&self) -> f64 {
        if !self.integrity {
            return 1.0;
        }
        let stored: usize = self
            .files
            .iter()
            .map(|f| f.size + f.size.div_ceil(f.servers.len()))
            .sum();
        stored as f64 / self.user_bytes() as f64
    }

    /// The payload of a seeded or fresh file: a stream keyed by seed and
    /// file id, so bytes of one file never pass for another's.
    pub fn payload(&self, id: u64, size: usize) -> Bytes {
        let slot = if id >= FRESH_BASE {
            FRESH_BASE + id % FRESH_POOL
        } else {
            id
        };
        let mut rng =
            Xoshiro256StarStar::seed(self.seed ^ (slot + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut buf = vec![0u8; size];
        rng.fill_bytes(&mut buf);
        Bytes::from(buf)
    }

    /// Payloads of the seeded files, in `files` order.
    pub fn seeded_payloads(&self) -> Vec<Bytes> {
        self.files
            .iter()
            .map(|f| self.payload(f.id, f.size))
            .collect()
    }

    /// Payloads fresh writes cycle through (`id % FRESH_POOL`).
    pub fn fresh_payloads(&self) -> Vec<Bytes> {
        let Some((size, _)) = self.fresh else {
            return Vec::new();
        };
        (0..FRESH_POOL)
            .map(|slot| self.payload(FRESH_BASE + slot, size))
            .collect()
    }

    /// The operation stream of closed-loop client `client`.
    pub fn ops(&self, client: usize) -> OpStream {
        OpStream {
            rng: Xoshiro256StarStar::seed(self.seed ^ ((client as u64 + 1) << 40)),
            sampler: ZipfSampler::from_popularities(&self.popularity),
            mix: self.mix,
            fresh: self.fresh,
            workers: self.workers,
            files: self.files.len(),
            next_fresh: FRESH_BASE + ((client as u64) << 24),
            next_degraded: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Read `files[i]`.
    Read(usize),
    /// Drop partition 0 of `files[i]` on its worker, then read the file.
    DegradedRead(usize),
    /// Write a new file, then delete it.
    Write {
        id: u64,
        size: usize,
        servers: Vec<usize>,
    },
}

#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Xoshiro256StarStar,
    sampler: ZipfSampler,
    mix: Mix,
    fresh: Option<(usize, usize)>,
    workers: usize,
    files: usize,
    next_fresh: u64,
    next_degraded: usize,
}

impl OpStream {
    /// Index into [`Spec::fresh_payloads`] of a fresh file's payload.
    pub fn fresh_slot(id: u64) -> usize {
        (id % FRESH_POOL) as usize
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let roll = self.rng.next_u64() % 100;
        Some(match self.fresh {
            Some((size, k)) if roll < self.mix.write => {
                let id = self.next_fresh;
                self.next_fresh += 1;
                Op::Write {
                    id,
                    size,
                    servers: random_distinct(k, self.workers, &mut self.rng),
                }
            }
            _ if roll < self.mix.write + self.mix.degraded => {
                // Rotate, so a file's background repair has long landed
                // before its partition is dropped again.
                self.next_degraded = (self.next_degraded + 1) % self.files;
                Op::DegradedRead(self.next_degraded)
            }
            _ => Op::Read(self.sampler.sample(&mut self.rng)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for (name, _) in WORKLOADS {
            let (a, b) = (Spec::new(name, 7).unwrap(), Spec::new(name, 7).unwrap());
            assert_eq!(a.files, b.files, "{name}: placements repeat");
            let f = &a.files[a.files.len() / 2];
            assert_eq!(a.payload(f.id, f.size), b.payload(f.id, f.size));
            assert_ne!(a.payload(f.id, f.size), a.payload(f.id + 1, f.size));
            let ops = |s: &Spec, client| s.ops(client).take(500).collect::<Vec<_>>();
            assert_eq!(ops(&a, 0), ops(&b, 0), "{name}: op sequence repeats");
            assert_ne!(ops(&a, 0), ops(&a, 1), "{name}: clients differ");

            let c = Spec::new(name, 8).unwrap();
            assert_ne!(ops(&a, 0), ops(&c, 0), "{name}: seeds differ");
            assert_ne!(a.payload(f.id, f.size), c.payload(f.id, f.size));
            if name != "zipf_sp" {
                assert_ne!(a.files, c.files, "{name}: placement follows the seed");
            }
        }
    }

    #[test]
    fn workloads_have_the_documented_shape() {
        let z = Spec::new("zipf_sp", 1).unwrap();
        assert_eq!((z.workers, z.clients, z.files.len()), (8, 2, 64));
        assert_eq!(z.files[0].size, 4 * MIB);
        assert_eq!(z.files[63].size, 256 * KIB);
        let ks: Vec<usize> = z.files.iter().map(|f| f.servers.len()).collect();
        assert!(ks[0] > 1 && ks[0] <= 8, "the hottest file is split: {ks:?}");
        assert!(
            ks.windows(2).take(7).all(|w| w[0] >= w[1]),
            "k follows load: {ks:?}"
        );
        for f in &z.files {
            let mut s = f.servers.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), f.servers.len(), "distinct servers per file");
        }

        let b = Spec::new("budget_zipf", 1).unwrap();
        assert_eq!(b.memory_budget, Some(24 * MIB));
        assert_eq!(b.user_bytes(), 192 * MIB);
        assert_eq!(b.expected_stored_ratio(), 1.0);

        let w = Spec::new("write_mix", 1).unwrap();
        assert!((w.expected_stored_ratio() - 4.0 / 3.0).abs() < 1e-6);
        let ops: Vec<Op> = w.ops(0).take(4000).collect();
        let share = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 4000.0;
        assert!((share(|o| matches!(o, Op::Write { .. })) - 0.50).abs() < 0.03);
        assert!((share(|o| matches!(o, Op::DegradedRead(_))) - 0.25).abs() < 0.03);
        let mut fresh: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Write { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let n = fresh.len();
        fresh.dedup();
        assert_eq!(fresh.len(), n, "fresh ids never repeat");
        assert!(Spec::new("nope", 1).is_err());
    }
}
