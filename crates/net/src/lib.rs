#![warn(missing_docs)]

//! `spcache-net`: a real TCP wire protocol and transport for the store.
//!
//! The store crate's data and control planes are pure data
//! ([`spcache_store::rpc::Request`] / [`Reply`] and
//! [`spcache_store::meta::MetaRequest`] / `MetaReply` behind the
//! [`spcache_store::master::MetaService`] trait) behind the
//! [`spcache_store::transport::Transport`] abstraction. This crate puts
//! them on sockets:
//!
//! * [`frame`] — the length-prefixed binary codec (hand-rolled on
//!   [`bytes::Bytes`], payloads are views of the frame they arrived in;
//!   DESIGN.md §4.10),
//! * [`poll`] — the event-loop building blocks (DESIGN.md §4.12): an
//!   incremental [`poll::FrameReader`] for non-blocking sockets reading
//!   through its loop's one [`poll::ReadBuf`] and filling every frame
//!   body — or a read's landing region — by `read(2)`, a batching
//!   [`poll::WriteQueue`] that gathers pipelined frames into single
//!   `writev` calls, the one connection table both event loops keep
//!   their sockets in, and [`poll::serve`], the one server event loop
//!   both servers run (its timer heap for delayed completions is its
//!   own),
//! * [`tcp::TcpTransport`] — the client side: readiness-driven shard
//!   loops multiplexing every worker connection, with request-id
//!   multiplexing, frame batching, reply payloads landed in
//!   the reader's output, and a
//!   `RetryPolicy`-derived deadline per request that leaves with its
//!   reply,
//! * [`server::WorkerServer`] — the `spcached` worker: the store's
//!   worker state machine served inline on the server loop, which
//!   releases each reply when its emulated transfer is paid off and
//!   carries out scripted wire faults (dropped connections, delayed
//!   and truncated frames) and the graceful drain-then-exit shutdown,
//! * [`master_net`] — the master protocol: the codec of the store's
//!   `MetaRequest`/`MetaReply`, [`master_net::MasterServer`] serving
//!   them through the master's own `call` plus a one-RPC cluster
//!   `Rebalance`, and [`master_net::MasterClient`], a wire-backed
//!   `MetaService` whose one `call` is a redirect-following round trip,
//! * [`loopback::TcpCluster`] — the store's one cluster harness with
//!   its workers and master behind servers on 127.0.0.1, and
//!   [`loopback::twin`], which runs one test body on an in-process
//!   cluster and on a loopback one,
//! * the `spcached` binary — `spcached worker|master` for real
//!   multi-process deployments (see the README quickstart).
//!
//! [`Reply`]: spcache_store::rpc::Reply

pub mod frame;
pub mod loopback;
pub mod master_net;
pub mod poll;
pub mod server;
pub mod tcp;

pub use loopback::TcpCluster;
pub use master_net::{MasterClient, MasterServer};
pub use server::WorkerServer;
pub use tcp::TcpTransport;
