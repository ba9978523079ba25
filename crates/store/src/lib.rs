#![warn(missing_docs)]

//! A real concurrent in-memory distributed cache — the repository's
//! "Alluxio" substitute.
//!
//! Where `spcache-cluster` *simulates* latency, this crate actually moves
//! bytes between threads, exercising the concurrent code paths the paper's
//! implementation (§6) describes:
//!
//! * [`worker::Worker`] — one OS thread per cache server, owning a byte
//!   store of partitions, a token-bucket NIC throttle and optional
//!   straggler injection,
//! * [`master::Master`] — the SP-Master: file metadata (partition count,
//!   server list), access counting for popularity tracking, and the
//!   Algorithm 1 tuning entry point,
//! * [`client::Client`] — the SP-Client: parallel fork-join partition
//!   reads over crossbeam channels with byte-exact reassembly, and
//!   (optionally split) writes,
//! * [`landing`] — a contiguous read's one output allocation, whose
//!   partition regions replies land in directly,
//! * [`repartitioner::run_parallel`] — Algorithm 2's executors: each
//!   worker repartitions a disjoint set of files in parallel
//!   (vs [`repartitioner::run_sequential`], the strawman that collects
//!   every file at one node — Fig. 16's comparison),
//! * [`cluster::StoreCluster`] — wires it all together,
//! * [`fault`] — deterministic fault injection (scripted crashes, hangs,
//!   partition drops, lost replies) driving the robust read path:
//!   per-partition deadlines, bounded retry with under-store recovery,
//!   and hedged reads (EC-Cache late binding against the checkpoint
//!   tier, since a redundancy-free cache has no replica to race).

pub mod backing;
pub mod client;
pub mod cluster;
pub mod config;
pub mod fault;
mod forkjoin;
pub mod landing;
pub mod master;
pub mod metalog;
pub mod online;
pub mod repartitioner;
pub mod rpc;
pub mod supervisor;
pub mod throttle;
pub mod transport;
pub mod worker;

pub use client::{Client, ScatteredFile};
pub use cluster::StoreCluster;
pub use config::{DegradedPolicy, HedgePolicy, RetryPolicy, StoreConfig, SupervisorConfig};
pub use fault::{FaultAction, FaultEvent, FaultLog, FaultPlan, FaultRecord};
pub use master::{Master, MetaService};
pub use metalog::{FileIntegrity, MasterImage, MetaLog, MetaOp};
pub use rpc::{Envelope, PartKey, Reply, Request, StoreError, WorkerStats, MASTER_ENDPOINT};
pub use supervisor::{Supervisor, SupervisorCore, SweepLog, SweepRecord};
pub use transport::{ChannelTransport, Transport};
