#![warn(missing_docs)]

//! A real concurrent in-memory distributed cache — the repository's
//! "Alluxio" substitute.
//!
//! Where `spcache-cluster` *simulates* latency, this crate actually moves
//! bytes between threads, exercising the concurrent code paths the paper's
//! implementation (§6) describes:
//!
//! * [`worker::Worker`] — one OS thread per cache server, owning a byte
//!   store of partitions and a token-bucket NIC throttle,
//! * [`master::Master`] — the SP-Master: file metadata (partition count,
//!   server list), access counting for popularity tracking, and the
//!   Algorithm 1 tuning entry point, served through [`meta`]'s one
//!   [`MetaService::call`] over [`MetaRequest`],
//! * [`client::Client`] — the SP-Client: parallel fork-join partition
//!   reads over crossbeam channels with byte-exact reassembly, and
//!   (optionally split) writes,
//! * [`landing`] — a read's one output allocation, whose
//!   partition regions replies land in directly,
//! * [`repartitioner`] — every layout move: Algorithm 2's executors
//!   ([`repartitioner::run_parallel`], each worker repartitioning a
//!   disjoint set of files in parallel, vs
//!   [`repartitioner::run_sequential`], the strawman that collects every
//!   file at one node — Fig. 16's comparison), the §8 online granularity
//!   adjustment ([`repartitioner::execute_adjust`]) and the heal's move,
//!   all staged and committed by one routine,
//! * [`backing`] — the §8 under-store: checkpoints, and
//!   [`backing::recover_file`], the heal that re-splits a lost file from
//!   its checkpoint onto live workers,
//! * [`cluster::StoreCluster`] — wires it all together: the one cluster
//!   harness, over worker threads here and over loopback servers in
//!   `spcache-net`, behind a [`cluster::Fleet`],
//! * [`fault`] — deterministic fault injection (scripted crashes, hangs,
//!   partition drops, lost replies) driving the robust read path: one
//!   deadline per read attempt, bounded retry with under-store recovery,
//!   and parity decode of erased partitions.

pub mod backing;
pub mod client;
pub mod cluster;
pub mod config;
pub mod fault;
mod forkjoin;
pub mod landing;
pub mod master;
pub mod meta;
pub mod metalog;
mod placements;
pub mod repartitioner;
pub mod rpc;
pub mod supervisor;
pub mod throttle;
pub mod transport;
pub mod worker;

pub use client::Client;
pub use cluster::StoreCluster;
pub use config::{RetryPolicy, StoreConfig, SupervisorConfig};
pub use fault::{FaultAction, FaultEvent, FaultLog, FaultPlan, FaultRecord};
pub use master::{Master, MetaService};
pub use meta::{MetaReply, MetaRequest};
pub use metalog::{FileIntegrity, MasterImage, MetaLog, MetaOp};
pub use rpc::{Envelope, PartKey, Reply, Request, StoreError, WorkerStats, MASTER_ENDPOINT};
pub use supervisor::{Supervisor, SupervisorCore, SweepLog, SweepRecord};
pub use transport::{ChannelTransport, Transport};
