//! Master wire protocol: [`MasterServer`] exposes a [`Master`] over
//! TCP; [`MasterClient`] implements [`MetaService`] against it.
//!
//! The messages are the store's own [`MetaRequest`] / [`MetaReply`]
//! (re-exported here), whose rows in `spcache_store::meta` are their
//! codec: this module adds only the server and the client. Same frame
//! layout as the worker protocol (see [`crate::frame`]), in a disjoint
//! opcode space (`0x81..` requests / `0xC1..` replies) so a client
//! dialed into the wrong port fails with a codec error instead of
//! silently misreading messages.
//!
//! Metadata calls are small and synchronous, so the client keeps one
//! pooled connection and runs strict request→reply on it (no
//! multiplexing needed); its [`MetaService::call`] is one
//! [`MasterClient::roundtrip`]. Health reports (`mark_dead`,
//! `suspect`) are best-effort by contract: if the master is
//! unreachable they degrade to no-ops rather than failing the data
//! path that triggered them.
//!
//! The server side is one shard of the server loop
//! ([`crate::poll::serve`]; no per-connection threads): metadata calls
//! are in-memory and answered inline on the loop thread by
//! [`Master`]'s own `call`, so one loop serves any number of
//! supervisor, client and worker connections, and a request takes the
//! same arm in process and over the wire.
//!
//! The server additionally runs `Rebalance`: the master plans against
//! its metadata (Algorithm 1 + 2 planning) and runs the repartition
//! over its *own* [`TcpTransport`] to the workers, so one RPC drives a
//! whole cluster rebalance — the deployment shape of the paper's
//! SP-Master. Rebalance is the one slow call, so it runs on a detached
//! thread and completes through the connection's
//! [`crate::poll::ConnRef`], the path worker replies take.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use parking_lot::Mutex;
use spcache_core::tuner::TunerConfig;
use spcache_store::codec::codec_error;
use spcache_store::master::{Master, MetaService};
use spcache_store::repartitioner::run_parallel;
use spcache_store::rpc::{StoreError, MASTER_ENDPOINT};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use spcache_store::meta::{MetaReply, MetaRequest};

use crate::frame::{encode, encode_answer, encode_or_panic, read_frame, write_frame, Frame};
use crate::poll::{serve, Completion, Served, WireFrame};
use crate::tcp::TcpTransport;

/// Encodes one metadata request into a wire frame.
///
/// # Panics
///
/// If the frame would exceed [`crate::frame::MAX_FRAME`] (a
/// `RegisterBatch` past 1 GiB); [`MasterClient`] refuses such a request
/// with [`StoreError::Codec`] instead.
pub fn encode_meta_request(req: &MetaRequest, req_id: u64) -> Vec<u8> {
    encode_or_panic(req, req_id).to_contiguous()
}

/// Decodes a metadata request frame.
///
/// # Errors
///
/// [`StoreError::Codec`] on malformed input.
pub fn decode_meta_request(frame: &Frame) -> Result<MetaRequest, StoreError> {
    frame.decode()
}

/// Encodes one metadata reply into a wire frame; a reply too large for
/// one frame (a `Log` past 1 GiB) becomes the [`StoreError::Codec`] that
/// says so.
pub fn encode_meta_reply(reply: &MetaReply, req_id: u64) -> Vec<u8> {
    meta_frame(reply, req_id).to_contiguous()
}

/// Decodes a metadata reply frame.
///
/// # Errors
///
/// [`StoreError::Codec`] on malformed input.
pub fn decode_meta_reply(frame: &Frame) -> Result<MetaReply, StoreError> {
    frame.decode()
}

/// A running master server. The in-process [`Master`] it serves remains
/// directly inspectable through [`MasterServer::master`].
#[derive(Debug)]
pub struct MasterServer {
    master: Arc<Master>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl MasterServer {
    /// Serves `master` on `bind` (port 0 for ephemeral). `worker_addrs`
    /// is the fleet the `Rebalance` RPC repartitions over; pass the
    /// workers' listen addresses in index order.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or creating the poller.
    pub fn spawn(
        master: Arc<Master>,
        bind: &str,
        worker_addrs: Vec<SocketAddr>,
    ) -> io::Result<MasterServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let served = Arc::clone(&master);
        let threads = serve("spcache-master-io", listener, 1, move |frame, conn| {
            let decoded =
                Frame::parse(frame).and_then(|f| Ok((f.req_id, decode_meta_request(&f)?)));
            let (req_id, req) = match decoded {
                Ok(ok) => ok,
                Err(e) => return Served::Violation(meta_frame(&MetaReply::Err(e), 0)),
            };
            let reply = match req {
                // Worker RPCs are slow; never run them on the loop, so
                // one long rebalance never stalls heartbeats or lookups
                // on other connections. A fenced master's `call`
                // redirects it instead.
                MetaRequest::Rebalance {
                    bandwidth,
                    lambda,
                    seed,
                } if !served.is_fenced() => {
                    let (master, workers, conn) =
                        (Arc::clone(&served), worker_addrs.clone(), conn.clone());
                    let _ = std::thread::Builder::new()
                        .name("spcache-master-rebalance".into())
                        .spawn(move || {
                            let reply = rebalance(&master, &workers, bandwidth, lambda, seed);
                            let frame = meta_frame(&reply, req_id);
                            conn.complete(Completion::Frame(frame), Duration::ZERO);
                        });
                    return Served::Pending;
                }
                MetaRequest::Shutdown => {
                    conn.stop_server(); // applied after this ack is queued
                    served.call(MetaRequest::Shutdown)
                }
                other => served.call(other),
            };
            Served::At(Completion::Frame(meta_frame(&reply, req_id)), Instant::now())
        })?;
        Ok(MasterServer {
            master,
            addr,
            threads,
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served metadata master (same instance the wire mutates).
    pub fn master(&self) -> &Arc<Master> {
        &self.master
    }

    /// Waits for the event loop to exit (after a `Shutdown` request).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn meta_frame(reply: &MetaReply, req_id: u64) -> WireFrame {
    encode_answer(reply, req_id, MetaReply::Err)
}

/// Plans a rebalance against `master`'s metadata (Algorithm 1 + 2) and
/// runs it over a fresh transport to `workers`.
fn rebalance(
    master: &Master,
    workers: &[SocketAddr],
    bandwidth: f64,
    lambda: f64,
    seed: u64,
) -> MetaReply {
    let cfg = TunerConfig::default();
    let rebalanced = master
        .plan_rebalance(workers.len(), bandwidth, lambda, &cfg, seed)
        .and_then(|(ids, plan, _)| {
            let transport = TcpTransport::connect(workers.to_vec());
            let skipped = run_parallel(&plan, &ids, master, &transport)?;
            let moved = plan.jobs.len() as u64;
            Ok(MetaReply::Rebalanced { moved, skipped })
        });
    rebalanced.unwrap_or_else(MetaReply::Err)
}

/// A [`MetaService`] implementation speaking the master wire protocol.
///
/// The endpoint is **mutable**: when a fenced (deposed) master answers
/// with [`MetaReply::Redirect`], the client re-aims itself at the
/// successor and retries — callers keep one `MasterClient` across a
/// failover and never learn it happened.
#[derive(Debug)]
pub struct MasterClient {
    addr: Mutex<SocketAddr>,
    /// The pooled connection; `None` until the first call and after a
    /// failed exchange or a redirect.
    stream: Mutex<Option<TcpStream>>,
    next_id: AtomicU64,
    deadline: Duration,
}

impl MasterClient {
    /// A client for the master at `addr`, with the default 5 s deadline.
    pub fn connect(addr: SocketAddr) -> Self {
        MasterClient {
            addr: Mutex::new(addr),
            stream: Mutex::default(),
            next_id: AtomicU64::new(1),
            deadline: Duration::from_secs(5),
        }
    }

    /// Sets the socket deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline.max(Duration::from_millis(1));
        self
    }

    /// The master endpoint this client currently aims at (updated by
    /// redirects).
    pub fn addr(&self) -> SocketAddr {
        *self.addr.lock()
    }

    /// One synchronous request→reply exchange, **following redirects**:
    /// a fenced master's [`MetaReply::Redirect`] re-aims the client at
    /// the successor and retries, up to 3 hops. Any transport failure
    /// maps to [`StoreError::Io`] against [`MASTER_ENDPOINT`] and drops
    /// the pooled connection so the next call redials.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on transport failure or a redirect to nowhere
    /// (a fenced master with no known successor), [`StoreError::Codec`]
    /// on malformed replies. An error the master answers is
    /// `Ok(MetaReply::Err(_))`.
    pub fn roundtrip(&self, req: &MetaRequest) -> Result<MetaReply, StoreError> {
        let mut stream = self.stream.lock();
        for _ in 0..3 {
            match self.exchange(&mut stream, req)? {
                MetaReply::Redirect { to } => {
                    let next: SocketAddr = to
                        .parse()
                        .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?;
                    *self.addr.lock() = next;
                    *stream = None; // the next exchange dials the successor
                }
                reply => return Ok(reply),
            }
        }
        // A redirect loop (two masters each claiming the other) is a
        // deployment bug; surface it as an endpoint failure.
        Err(StoreError::Io(MASTER_ENDPOINT))
    }

    /// Dials the current endpoint with this client's deadlines.
    fn dial(&self) -> Result<TcpStream, StoreError> {
        let addr = *self.addr.lock();
        let stream = TcpStream::connect_timeout(&addr, self.deadline)
            .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.deadline))
            .and_then(|()| stream.set_write_timeout(Some(self.deadline)))
            .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?;
        Ok(stream)
    }

    /// One raw request→reply exchange against the current endpoint
    /// (no redirect handling).
    fn exchange(
        &self,
        slot: &mut Option<TcpStream>,
        req: &MetaRequest,
    ) -> Result<MetaReply, StoreError> {
        let stream = match slot {
            Some(stream) => stream,
            None => slot.insert(self.dial()?),
        };
        let req_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let exchange = (|| -> Result<MetaReply, StoreError> {
            let frame = encode(req, req_id)?.to_contiguous();
            write_frame(stream, &frame).map_err(|_| StoreError::Io(MASTER_ENDPOINT))?;
            let buf = read_frame(stream)
                .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?
                .ok_or(StoreError::Io(MASTER_ENDPOINT))?;
            let frame = Frame::parse(buf)?;
            if frame.req_id != req_id {
                return Err(codec_error(format!(
                    "reply id {} does not match request id {req_id}",
                    frame.req_id
                )));
            }
            decode_meta_reply(&frame)
        })();
        if exchange.is_err() {
            // Poisoned stream (I/O failure or framing loss): close it and
            // redial next call.
            *slot = None;
        }
        exchange
    }

    /// Asks the master to plan and execute a cluster rebalance; returns
    /// `(files_moved, skipped_file_ids)`.
    ///
    /// # Errors
    ///
    /// Transport errors, or the first non-availability executor error.
    pub fn rebalance(
        &self,
        bandwidth: f64,
        lambda: f64,
        seed: u64,
    ) -> Result<(u64, Vec<u64>), StoreError> {
        let req = MetaRequest::Rebalance {
            bandwidth,
            lambda,
            seed,
        };
        match self.call(req).into_result()? {
            MetaReply::Rebalanced { moved, skipped } => Ok((moved, skipped)),
            other => Err(other.unexpected()),
        }
    }

    /// Asks the master server to stop accepting connections.
    ///
    /// # Errors
    ///
    /// Transport errors reaching the master.
    pub fn shutdown_server(&self) -> Result<(), StoreError> {
        self.call(MetaRequest::Shutdown).expect_done()
    }

    /// Probes the master's authority and journal head:
    /// `(master_epoch, active, file_count, next_lsn)`. Served even by
    /// a fenced master — this is the standby's lag/liveness probe.
    ///
    /// # Errors
    ///
    /// Transport errors reaching the master.
    pub fn status(&self) -> Result<(u64, bool, u64, u64), StoreError> {
        match self.call(MetaRequest::Status).into_result()? {
            MetaReply::Status {
                epoch,
                active,
                files,
                next_lsn,
            } => Ok((epoch, active, files, next_lsn)),
            other => Err(other.unexpected()),
        }
    }

    /// Pulls every journalled metadata op with `lsn >= from`; returns
    /// `(next_lsn, raw record bytes)` for
    /// [`spcache_store::metalog::decode_records`].
    ///
    /// # Errors
    ///
    /// Transport errors reaching the master.
    pub fn log_tail(&self, from: u64) -> Result<(u64, Vec<u8>), StoreError> {
        match self.call(MetaRequest::LogTail { from }).into_result()? {
            MetaReply::Log { next_lsn, bytes } => Ok((next_lsn, bytes)),
            other => Err(other.unexpected()),
        }
    }

    /// Announces a takeover: the receiver (the old master) fences
    /// itself and redirects future callers to `addr`.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`StoreError::StaleEpoch`] when `epoch` is
    /// below the receiver's own (the caller is the stale one).
    pub fn takeover(&self, epoch: u64, addr: &str) -> Result<(), StoreError> {
        let addr = addr.to_string();
        self.call(MetaRequest::Takeover { epoch, addr }).expect_done()
    }
}

impl MetaService for MasterClient {
    fn call(&self, req: MetaRequest) -> MetaReply {
        self.roundtrip(&req).unwrap_or_else(MetaReply::Err)
    }
}
