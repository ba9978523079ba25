//! Master wire protocol: [`MasterServer`] exposes a [`Master`] over
//! TCP; [`MasterClient`] implements [`MetaService`] against it.
//!
//! The messages are the store's own [`MetaRequest`] / [`MetaReply`]
//! (re-exported here): this module adds their codec only. Same frame
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
use spcache_store::master::{Master, MetaService};
use spcache_store::FileIntegrity;
use spcache_store::repartitioner::run_parallel;
use spcache_store::rpc::{StoreError, MASTER_ENDPOINT};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use spcache_store::meta::{MetaReply, MetaRequest};

use crate::frame::{read_frame, write_frame, Frame, FrameBuilder};
use crate::poll::{serve, Completion, Served, WireFrame};
use crate::tcp::TcpTransport;

// Master-protocol opcodes.
const MOP_REGISTER: u8 = 0x81;
const MOP_UNREGISTER: u8 = 0x82;
const MOP_LOCATE: u8 = 0x83;
const MOP_PEEK: u8 = 0x84;
const MOP_APPLY_PLACEMENT: u8 = 0x85;
const MOP_MARK_ALIVE: u8 = 0x86;
const MOP_MARK_DEAD: u8 = 0x87;
const MOP_SUSPECT: u8 = 0x88;
const MOP_IS_ALIVE: u8 = 0x89;
const MOP_LIVE_WORKERS: u8 = 0x8A;
const MOP_DEGRADED: u8 = 0x8B;
const MOP_REBALANCE: u8 = 0x8C;
const MOP_SHUTDOWN: u8 = 0x8D;
const MOP_WORKER_EPOCHS: u8 = 0x8E;
const MOP_REGISTER_WORKER: u8 = 0x8F;
const MOP_BEGIN_REPAIR: u8 = 0x90;
const MOP_END_REPAIR: u8 = 0x91;
const MOP_STATUS: u8 = 0x92;
const MOP_LOG_TAIL: u8 = 0x93;
const MOP_TAKEOVER: u8 = 0x94;
const MOP_REGISTER_BATCH: u8 = 0x95;
const MOP_SET_INTEGRITY: u8 = 0x96;
const MOP_INTEGRITY: u8 = 0x97;
const MOP_REPORT_ACCESSES: u8 = 0x98;
const MOP_R_DONE: u8 = 0xC1;
const MOP_R_INFO: u8 = 0xC2;
const MOP_R_MAYBE: u8 = 0xC3;
const MOP_R_COUNT: u8 = 0xC4;
const MOP_R_FLAG: u8 = 0xC5;
const MOP_R_WORKERS: u8 = 0xC6;
const MOP_R_FILES: u8 = 0xC7;
const MOP_R_REBALANCED: u8 = 0xC8;
const MOP_R_ERR: u8 = 0xC9;
const MOP_R_EPOCHS: u8 = 0xCA;
const MOP_R_EPOCH: u8 = 0xCB;
const MOP_R_REDIRECT: u8 = 0xCC;
const MOP_R_STATUS: u8 = 0xCD;
const MOP_R_LOG: u8 = 0xCE;
const MOP_R_INTEGRITY: u8 = 0xCF;

fn codec(msg: impl Into<String>) -> StoreError {
    StoreError::Codec(msg.into())
}

/// Appends a [`FileIntegrity`] body: the checksum list, then the
/// `(server, sum)` parity pairs.
fn put_integrity(b: FrameBuilder, fi: &FileIntegrity) -> FrameBuilder {
    let mut b = b.u64_list(&fi.sums).u32(fi.parity.len() as u32);
    for &(server, sum) in &fi.parity {
        b = b.u64(server as u64).u64(sum);
    }
    b
}

/// Decodes a [`FileIntegrity`] body (guarded against length lies).
fn read_integrity(c: &mut crate::frame::Cursor) -> Result<FileIntegrity, StoreError> {
    let sums = c.u64_list()?;
    let n = c.guarded_count(16)?;
    let parity = (0..n)
        .map(|_| Ok((c.u64()? as usize, c.u64()?)))
        .collect::<Result<Vec<_>, StoreError>>()?;
    Ok(FileIntegrity { sums, parity })
}

/// The opcode a request travels under.
fn request_opcode(req: &MetaRequest) -> u8 {
    match req {
        MetaRequest::Register { .. } => MOP_REGISTER,
        MetaRequest::Unregister { .. } => MOP_UNREGISTER,
        MetaRequest::Locate { .. } => MOP_LOCATE,
        MetaRequest::Peek { .. } => MOP_PEEK,
        MetaRequest::ApplyPlacement { .. } => MOP_APPLY_PLACEMENT,
        MetaRequest::MarkAlive { .. } => MOP_MARK_ALIVE,
        MetaRequest::MarkDead { .. } => MOP_MARK_DEAD,
        MetaRequest::Suspect { .. } => MOP_SUSPECT,
        MetaRequest::IsAlive { .. } => MOP_IS_ALIVE,
        MetaRequest::LiveWorkers { .. } => MOP_LIVE_WORKERS,
        MetaRequest::Degraded => MOP_DEGRADED,
        MetaRequest::Rebalance { .. } => MOP_REBALANCE,
        MetaRequest::WorkerEpochs { .. } => MOP_WORKER_EPOCHS,
        MetaRequest::RegisterWorker { .. } => MOP_REGISTER_WORKER,
        MetaRequest::BeginRepair { .. } => MOP_BEGIN_REPAIR,
        MetaRequest::EndRepair { .. } => MOP_END_REPAIR,
        MetaRequest::Status => MOP_STATUS,
        MetaRequest::LogTail { .. } => MOP_LOG_TAIL,
        MetaRequest::Takeover { .. } => MOP_TAKEOVER,
        MetaRequest::RegisterBatch { .. } => MOP_REGISTER_BATCH,
        MetaRequest::SetIntegrity { .. } => MOP_SET_INTEGRITY,
        MetaRequest::Integrity { .. } => MOP_INTEGRITY,
        MetaRequest::ReportAccesses { .. } => MOP_REPORT_ACCESSES,
        MetaRequest::Shutdown => MOP_SHUTDOWN,
    }
}

/// Encodes one metadata request into a wire frame.
pub fn encode_meta_request(req: &MetaRequest, req_id: u64) -> Vec<u8> {
    let b = FrameBuilder::new(request_opcode(req), req_id);
    match req {
        MetaRequest::Degraded | MetaRequest::Status | MetaRequest::Shutdown => b,
        // A file, worker, fleet size or LSN: one word.
        MetaRequest::Unregister { id: x }
        | MetaRequest::Locate { id: x }
        | MetaRequest::Peek { id: x }
        | MetaRequest::BeginRepair { id: x }
        | MetaRequest::EndRepair { id: x }
        | MetaRequest::Integrity { id: x }
        | MetaRequest::MarkAlive { w: x }
        | MetaRequest::MarkDead { w: x }
        | MetaRequest::Suspect { w: x }
        | MetaRequest::IsAlive { w: x }
        | MetaRequest::RegisterWorker { w: x }
        | MetaRequest::LiveWorkers { n: x }
        | MetaRequest::WorkerEpochs { n: x }
        | MetaRequest::LogTail { from: x } => b.u64(*x),
        MetaRequest::Register { id, size, servers } => b.u64(*id).u64(*size).usize_list(servers),
        MetaRequest::ApplyPlacement { id, servers } => b.u64(*id).usize_list(servers),
        MetaRequest::Rebalance {
            bandwidth,
            lambda,
            seed,
        } => b.f64(*bandwidth).f64(*lambda).u64(*seed),
        MetaRequest::Takeover { epoch, addr } => b.u64(*epoch).string(addr),
        MetaRequest::RegisterBatch { entries } => entries
            .iter()
            .fold(b.u32(entries.len() as u32), |b, (id, size, servers)| {
                b.u64(*id).u64(*size).usize_list(servers)
            }),
        MetaRequest::SetIntegrity { id, integrity } => put_integrity(b.u64(*id), integrity),
        MetaRequest::ReportAccesses { counts } => counts
            .iter()
            .fold(b.u32(counts.len() as u32), |b, &(id, n)| b.u64(id).u64(n)),
    }
    .finish()
}

/// Decodes a metadata request frame.
///
/// # Errors
///
/// [`StoreError::Codec`] on malformed input.
pub fn decode_meta_request(frame: &Frame) -> Result<MetaRequest, StoreError> {
    let mut c = frame.body_cursor();
    let req = match frame.opcode {
        MOP_REGISTER => MetaRequest::Register {
            id: c.u64()?,
            size: c.u64()?,
            servers: c.usize_list()?,
        },
        MOP_UNREGISTER => MetaRequest::Unregister { id: c.u64()? },
        MOP_LOCATE => MetaRequest::Locate { id: c.u64()? },
        MOP_PEEK => MetaRequest::Peek { id: c.u64()? },
        MOP_APPLY_PLACEMENT => MetaRequest::ApplyPlacement {
            id: c.u64()?,
            servers: c.usize_list()?,
        },
        MOP_MARK_ALIVE => MetaRequest::MarkAlive { w: c.u64()? },
        MOP_MARK_DEAD => MetaRequest::MarkDead { w: c.u64()? },
        MOP_SUSPECT => MetaRequest::Suspect { w: c.u64()? },
        MOP_IS_ALIVE => MetaRequest::IsAlive { w: c.u64()? },
        MOP_LIVE_WORKERS => MetaRequest::LiveWorkers { n: c.u64()? },
        MOP_DEGRADED => MetaRequest::Degraded,
        MOP_REBALANCE => MetaRequest::Rebalance {
            bandwidth: c.f64()?,
            lambda: c.f64()?,
            seed: c.u64()?,
        },
        MOP_WORKER_EPOCHS => MetaRequest::WorkerEpochs { n: c.u64()? },
        MOP_REGISTER_WORKER => MetaRequest::RegisterWorker { w: c.u64()? },
        MOP_BEGIN_REPAIR => MetaRequest::BeginRepair { id: c.u64()? },
        MOP_END_REPAIR => MetaRequest::EndRepair { id: c.u64()? },
        MOP_STATUS => MetaRequest::Status,
        MOP_LOG_TAIL => MetaRequest::LogTail { from: c.u64()? },
        MOP_TAKEOVER => MetaRequest::Takeover {
            epoch: c.u64()?,
            addr: c.string()?,
        },
        MOP_REGISTER_BATCH => {
            let n = c.guarded_count(20)?;
            let entries = (0..n)
                .map(|_| Ok((c.u64()?, c.u64()?, c.usize_list()?)))
                .collect::<Result<Vec<_>, StoreError>>()?;
            MetaRequest::RegisterBatch { entries }
        }
        MOP_SET_INTEGRITY => MetaRequest::SetIntegrity {
            id: c.u64()?,
            integrity: read_integrity(&mut c)?,
        },
        MOP_INTEGRITY => MetaRequest::Integrity { id: c.u64()? },
        MOP_REPORT_ACCESSES => {
            let n = c.guarded_count(16)?;
            let counts = (0..n)
                .map(|_| Ok((c.u64()?, c.u64()?)))
                .collect::<Result<Vec<_>, StoreError>>()?;
            MetaRequest::ReportAccesses { counts }
        }
        MOP_SHUTDOWN => MetaRequest::Shutdown,
        op => return Err(codec(format!("unknown meta request opcode {op:#04x}"))),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes one metadata reply into a wire frame.
pub fn encode_meta_reply(reply: &MetaReply, req_id: u64) -> Vec<u8> {
    match reply {
        MetaReply::Done => FrameBuilder::new(MOP_R_DONE, req_id).finish(),
        MetaReply::Info { size, servers } => FrameBuilder::new(MOP_R_INFO, req_id)
            .u64(*size)
            .usize_list(servers)
            .finish(),
        MetaReply::Maybe(opt) => {
            let b = FrameBuilder::new(MOP_R_MAYBE, req_id);
            match opt {
                None => b.u8(0).finish(),
                Some((size, servers)) => b.u8(1).u64(*size).usize_list(servers).finish(),
            }
        }
        MetaReply::Count(n) => FrameBuilder::new(MOP_R_COUNT, req_id).u32(*n).finish(),
        MetaReply::Flag(f) => FrameBuilder::new(MOP_R_FLAG, req_id).u8(*f as u8).finish(),
        MetaReply::Workers(w) => FrameBuilder::new(MOP_R_WORKERS, req_id)
            .usize_list(w)
            .finish(),
        MetaReply::Files(f) => FrameBuilder::new(MOP_R_FILES, req_id).u64_list(f).finish(),
        MetaReply::Epochs(e) => FrameBuilder::new(MOP_R_EPOCHS, req_id).u64_list(e).finish(),
        MetaReply::Epoch(e) => FrameBuilder::new(MOP_R_EPOCH, req_id).u64(*e).finish(),
        MetaReply::Rebalanced { moved, skipped } => FrameBuilder::new(MOP_R_REBALANCED, req_id)
            .u64(*moved)
            .u64_list(skipped)
            .finish(),
        MetaReply::Redirect { to } => FrameBuilder::new(MOP_R_REDIRECT, req_id)
            .string(to)
            .finish(),
        MetaReply::Status {
            epoch,
            active,
            files,
            next_lsn,
        } => FrameBuilder::new(MOP_R_STATUS, req_id)
            .u64(*epoch)
            .u8(*active as u8)
            .u64(*files)
            .u64(*next_lsn)
            .finish(),
        MetaReply::Log { next_lsn, bytes } => FrameBuilder::new(MOP_R_LOG, req_id)
            .u64(*next_lsn)
            .bytes(bytes)
            .finish(),
        MetaReply::IntegrityRow(opt) => {
            let b = FrameBuilder::new(MOP_R_INTEGRITY, req_id);
            match opt {
                None => b.u8(0).finish(),
                Some(fi) => put_integrity(b.u8(1), fi).finish(),
            }
        }
        MetaReply::Err(e) => crate::frame::encode_err_frame(MOP_R_ERR, req_id, e),
    }
}

/// Decodes a metadata reply frame.
///
/// # Errors
///
/// [`StoreError::Codec`] on malformed input.
pub fn decode_meta_reply(frame: &Frame) -> Result<MetaReply, StoreError> {
    let mut c = frame.body_cursor();
    let reply = match frame.opcode {
        MOP_R_DONE => MetaReply::Done,
        MOP_R_INFO => MetaReply::Info {
            size: c.u64()?,
            servers: c.usize_list()?,
        },
        MOP_R_MAYBE => match c.u8()? {
            0 => MetaReply::Maybe(None),
            1 => MetaReply::Maybe(Some((c.u64()?, c.usize_list()?))),
            t => return Err(codec(format!("bad option tag {t}"))),
        },
        MOP_R_COUNT => MetaReply::Count(c.u32()?),
        MOP_R_FLAG => MetaReply::Flag(c.u8()? != 0),
        MOP_R_WORKERS => MetaReply::Workers(c.usize_list()?),
        MOP_R_FILES => MetaReply::Files(c.u64_list()?),
        MOP_R_EPOCHS => MetaReply::Epochs(c.u64_list()?),
        MOP_R_EPOCH => MetaReply::Epoch(c.u64()?),
        MOP_R_REBALANCED => MetaReply::Rebalanced {
            moved: c.u64()?,
            skipped: c.u64_list()?,
        },
        MOP_R_REDIRECT => MetaReply::Redirect { to: c.string()? },
        MOP_R_STATUS => MetaReply::Status {
            epoch: c.u64()?,
            active: c.u8()? != 0,
            files: c.u64()?,
            next_lsn: c.u64()?,
        },
        MOP_R_LOG => MetaReply::Log {
            next_lsn: c.u64()?,
            bytes: c.rest().to_vec(),
        },
        MOP_R_INTEGRITY => match c.u8()? {
            0 => MetaReply::IntegrityRow(None),
            1 => MetaReply::IntegrityRow(Some(read_integrity(&mut c)?)),
            t => return Err(codec(format!("bad option tag {t}"))),
        },
        MOP_R_ERR => MetaReply::Err(c.store_error()?),
        op => return Err(codec(format!("unknown meta reply opcode {op:#04x}"))),
    };
    c.finish()?;
    Ok(reply)
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
    WireFrame::contiguous(encode_meta_reply(reply, req_id))
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
            write_frame(stream, &encode_meta_request(req, req_id))
                .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?;
            let buf = read_frame(stream)
                .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?
                .ok_or(StoreError::Io(MASTER_ENDPOINT))?;
            let frame = Frame::parse(buf)?;
            if frame.req_id != req_id {
                return Err(codec(format!(
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
