#![warn(missing_docs)]

//! SP-Cache core: selective partition, fork-join latency analysis and the
//! configuration/repartition algorithms.
//!
//! This crate is the paper's primary contribution:
//!
//! * [`file`](mod@file) — the file/load model: `L_i = S_i · P_i` (size × popularity).
//! * [`partition`] — selective partition (Eq. 1): `k_i = ceil(α · L_i)`,
//!   so per-partition load is uniform `≈ 1/α` and random placement
//!   balances servers.
//! * [`placement`] — partition placement: random-distinct (the default,
//!   §5.1), greedy least-loaded (Algorithm 2's repartition placement),
//!   round-robin and consistent hashing (the §9 strawmen).
//! * [`mg1`] — M/G/1 queue moments per cache server (Eqs. 10–13 via the
//!   Pollaczek–Khinchin transform).
//! * [`forkjoin`] — the fork-join mean-latency upper bound (Eq. 9), a 1-D
//!   convex minimization solved by golden-section search, and the
//!   popularity-weighted system bound (Eq. 8).
//! * [`tuner`] — **Algorithm 1**: exponential search for the optimal scale
//!   factor α (start at `N/3` partitions for the hottest file, inflate
//!   1.5× until the bound improves < 1%).
//! * [`repartition`] — **Algorithm 2**: the parallel repartition planner
//!   (keep unchanged files, greedy placement on least-loaded servers,
//!   executor selection on servers already holding a partition).
//! * [`variance`] — **Theorem 1**: the load-variance comparison against
//!   EC-Cache, both analytic and Monte-Carlo.
//! * [`scheme`] — the [`scheme::CachingScheme`] abstraction that SP-Cache
//!   and every baseline implement, so the simulator and the real store can
//!   drive any of them interchangeably.
//! * [`lru`] — the byte-budgeted LRU shared by the simulator's
//!   per-server caches and the real store's memory-budgeted workers.

pub mod file;
pub mod forkjoin;
pub mod goodput;
pub mod lru;
pub mod mg1;
pub mod online;
pub mod partition;
pub mod placement;
pub mod repartition;
pub mod scheme;
pub mod spcache;
pub mod tuner;
pub mod variance;

pub use file::{FileId, FileMeta, FileSet};
pub use goodput::Goodput;
pub use lru::LruCache;
pub use partition::partition_count;
pub use scheme::{CachingScheme, FileLayout, Layout, ReadPlan, WritePlan};
pub use spcache::SpCache;
