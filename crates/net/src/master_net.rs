//! Master wire protocol: [`MasterServer`] exposes a [`Master`] over
//! TCP; [`MasterClient`] implements [`MetaService`] against it.
//!
//! Same frame layout as the worker protocol (see [`crate::frame`]), in
//! a disjoint opcode space (`0x81..` requests / `0xC1..` replies) so a
//! client dialed into the wrong port fails with a codec error instead
//! of silently misreading messages.
//!
//! Metadata calls are small and synchronous, so the client keeps one
//! pooled connection and runs strict request→reply on it (no
//! multiplexing needed). Health-table updates (`mark_alive`,
//! `mark_dead`, `suspect`) are best-effort by contract: if the master
//! is unreachable they degrade to no-ops rather than failing the data
//! path that triggered them. A sign of life is reported when it is
//! news: the client remembers which workers the master has
//! acknowledged alive from it, and `mark_alive` for one of those sends
//! nothing (see [`MasterClient`]).
//!
//! The server side is one shard of the server loop
//! ([`crate::poll::serve`]; no per-connection threads): metadata calls
//! are in-memory and answered inline on the loop thread, so one loop
//! serves any number of supervisor, client and worker connections.
//!
//! The server additionally understands `Rebalance`: the master plans
//! against its metadata (Algorithm 1 + 2 planning) and runs the
//! repartition over its *own* [`TcpTransport`] to the workers, so one
//! RPC drives a whole cluster rebalance — the deployment shape of the
//! paper's SP-Master. Rebalance is the one slow call, so it runs on a
//! detached thread and completes through the connection's
//! [`crate::poll::ConnRef`], the path worker replies take.

use parking_lot::Mutex;
use spcache_core::tuner::TunerConfig;
use spcache_store::master::{Master, MetaService};
use spcache_store::FileIntegrity;
use spcache_store::repartitioner::run_parallel;
use spcache_store::rpc::{StoreError, MASTER_ENDPOINT};
use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

/// Pure-data form of one metadata request (the master protocol's
/// counterpart of [`spcache_store::rpc::Request`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MetaRequest {
    /// `MetaService::register`.
    Register {
        /// File id.
        id: u64,
        /// File size in bytes.
        size: u64,
        /// Placement (one server per partition).
        servers: Vec<usize>,
    },
    /// `MetaService::unregister_file`.
    Unregister {
        /// File id.
        id: u64,
    },
    /// `MetaService::locate` (counts an access).
    Locate {
        /// File id.
        id: u64,
    },
    /// `MetaService::peek` (no access count).
    Peek {
        /// File id.
        id: u64,
    },
    /// `MetaService::apply_placement`.
    ApplyPlacement {
        /// File id.
        id: u64,
        /// New placement.
        servers: Vec<usize>,
    },
    /// `MetaService::mark_alive`.
    MarkAlive {
        /// Worker index.
        w: u64,
    },
    /// `MetaService::mark_dead`.
    MarkDead {
        /// Worker index.
        w: u64,
    },
    /// `MetaService::suspect`.
    Suspect {
        /// Worker index.
        w: u64,
    },
    /// `MetaService::is_alive`.
    IsAlive {
        /// Worker index.
        w: u64,
    },
    /// `MetaService::live_workers`.
    LiveWorkers {
        /// Fleet size.
        n: u64,
    },
    /// `MetaService::degraded_files`.
    Degraded,
    /// Plan a rebalance (Algorithm 1 + 2) and execute it over the
    /// master's worker transport.
    Rebalance {
        /// Per-worker NIC bandwidth, bytes/s.
        bandwidth: f64,
        /// Total arrival rate for the tuner.
        lambda: f64,
        /// Partition-placement RNG seed.
        seed: u64,
    },
    /// `MetaService::worker_epochs`.
    WorkerEpochs {
        /// Fleet size.
        n: u64,
    },
    /// `MetaService::register_worker` (the crash-restart rejoin path).
    RegisterWorker {
        /// Worker index.
        w: u64,
    },
    /// `MetaService::begin_repair`.
    BeginRepair {
        /// File id.
        id: u64,
    },
    /// `MetaService::end_repair`.
    EndRepair {
        /// File id.
        id: u64,
    },
    /// Liveness/authority probe: master epoch, active-vs-fenced flag,
    /// file count and journal head. Served even by a fenced master (a
    /// standby polls it to measure lag and detect death).
    Status,
    /// Stream every journalled metadata op with `lsn >= from` — the
    /// standby's replication pull (§4.14).
    LogTail {
        /// First LSN the caller has not yet applied.
        from: u64,
    },
    /// A successor announces it has taken over at `epoch`; the receiver
    /// fences itself and redirects future callers to `addr`.
    Takeover {
        /// The successor's (higher) master epoch.
        epoch: u64,
        /// The successor's listen address, `host:port`.
        addr: String,
    },
    /// `MetaService::register_batch`: one metadata round-trip
    /// registering a whole chunk of `(id, size, servers)` rows — the
    /// million-file seeding path.
    RegisterBatch {
        /// The rows, in registration order.
        entries: Vec<(u64, u64, Vec<usize>)>,
    },
    /// `MetaService::set_integrity` (§4.15): record or clear a file's
    /// checksum + parity row.
    SetIntegrity {
        /// File id.
        id: u64,
        /// The row (empty = clear).
        integrity: FileIntegrity,
    },
    /// `MetaService::integrity`: fetch a file's integrity row.
    Integrity {
        /// File id.
        id: u64,
    },
    /// `MetaService::report_accesses`: the access counts of a client's
    /// cached reads, one frame per batch.
    ReportAccesses {
        /// `(file id, reads)` rows.
        counts: Vec<(u64, u64)>,
    },
    /// Stop the master server.
    Shutdown,
}

/// Pure-data form of one metadata reply.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaReply {
    /// Success without payload.
    Done,
    /// `(size, servers)` lookup result.
    Info {
        /// File size in bytes.
        size: u64,
        /// Placement.
        servers: Vec<usize>,
    },
    /// Optional `(size, servers)` (unregister of a possibly-unknown id).
    Maybe(Option<(u64, Vec<usize>)>),
    /// Suspicion count.
    Count(u32),
    /// Boolean outcome.
    Flag(bool),
    /// Worker-index list.
    Workers(Vec<usize>),
    /// File-id list.
    Files(Vec<u64>),
    /// Fencing epoch table.
    Epochs(Vec<u64>),
    /// One granted fencing epoch.
    Epoch(u64),
    /// Rebalance outcome: `(files_repartitioned, skipped_file_ids)`.
    Rebalanced {
        /// Number of files the plan moved.
        moved: u64,
        /// Files skipped because a worker was unavailable.
        skipped: Vec<u64>,
    },
    /// The receiver is a fenced (deposed) master: retry against `to`
    /// (empty when the successor is unknown — the caller must
    /// rediscover the master out of band).
    Redirect {
        /// The successor's listen address, `host:port`.
        to: String,
    },
    /// `Status` result.
    Status {
        /// The master's current master epoch.
        epoch: u64,
        /// `false` once fenced by a takeover.
        active: bool,
        /// Registered file count.
        files: u64,
        /// The journal's next LSN (0 = no journal attached).
        next_lsn: u64,
    },
    /// `LogTail` result: raw journal record bytes (the standby decodes
    /// them with [`spcache_store::metalog::decode_records`]).
    Log {
        /// First LSN **after** the returned records — the `from` of the
        /// next poll.
        next_lsn: u64,
        /// Concatenated wire records, oldest first.
        bytes: Vec<u8>,
    },
    /// `Integrity` result: the row, when one is recorded.
    IntegrityRow(Option<FileIntegrity>),
    /// The request failed.
    Err(StoreError),
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

/// Encodes one metadata request into a wire frame.
pub fn encode_meta_request(req: &MetaRequest, req_id: u64) -> Vec<u8> {
    match req {
        MetaRequest::Register { id, size, servers } => FrameBuilder::new(MOP_REGISTER, req_id)
            .u64(*id)
            .u64(*size)
            .usize_list(servers)
            .finish(),
        MetaRequest::Unregister { id } => {
            FrameBuilder::new(MOP_UNREGISTER, req_id).u64(*id).finish()
        }
        MetaRequest::Locate { id } => FrameBuilder::new(MOP_LOCATE, req_id).u64(*id).finish(),
        MetaRequest::Peek { id } => FrameBuilder::new(MOP_PEEK, req_id).u64(*id).finish(),
        MetaRequest::ApplyPlacement { id, servers } => {
            FrameBuilder::new(MOP_APPLY_PLACEMENT, req_id)
                .u64(*id)
                .usize_list(servers)
                .finish()
        }
        MetaRequest::MarkAlive { w } => FrameBuilder::new(MOP_MARK_ALIVE, req_id).u64(*w).finish(),
        MetaRequest::MarkDead { w } => FrameBuilder::new(MOP_MARK_DEAD, req_id).u64(*w).finish(),
        MetaRequest::Suspect { w } => FrameBuilder::new(MOP_SUSPECT, req_id).u64(*w).finish(),
        MetaRequest::IsAlive { w } => FrameBuilder::new(MOP_IS_ALIVE, req_id).u64(*w).finish(),
        MetaRequest::LiveWorkers { n } => {
            FrameBuilder::new(MOP_LIVE_WORKERS, req_id).u64(*n).finish()
        }
        MetaRequest::Degraded => FrameBuilder::new(MOP_DEGRADED, req_id).finish(),
        MetaRequest::Rebalance {
            bandwidth,
            lambda,
            seed,
        } => FrameBuilder::new(MOP_REBALANCE, req_id)
            .f64(*bandwidth)
            .f64(*lambda)
            .u64(*seed)
            .finish(),
        MetaRequest::WorkerEpochs { n } => {
            FrameBuilder::new(MOP_WORKER_EPOCHS, req_id).u64(*n).finish()
        }
        MetaRequest::RegisterWorker { w } => {
            FrameBuilder::new(MOP_REGISTER_WORKER, req_id).u64(*w).finish()
        }
        MetaRequest::BeginRepair { id } => {
            FrameBuilder::new(MOP_BEGIN_REPAIR, req_id).u64(*id).finish()
        }
        MetaRequest::EndRepair { id } => {
            FrameBuilder::new(MOP_END_REPAIR, req_id).u64(*id).finish()
        }
        MetaRequest::Status => FrameBuilder::new(MOP_STATUS, req_id).finish(),
        MetaRequest::LogTail { from } => {
            FrameBuilder::new(MOP_LOG_TAIL, req_id).u64(*from).finish()
        }
        MetaRequest::Takeover { epoch, addr } => FrameBuilder::new(MOP_TAKEOVER, req_id)
            .u64(*epoch)
            .string(addr)
            .finish(),
        MetaRequest::RegisterBatch { entries } => {
            let mut b = FrameBuilder::new(MOP_REGISTER_BATCH, req_id).u32(entries.len() as u32);
            for (id, size, servers) in entries {
                b = b.u64(*id).u64(*size).usize_list(servers);
            }
            b.finish()
        }
        MetaRequest::SetIntegrity { id, integrity } => put_integrity(
            FrameBuilder::new(MOP_SET_INTEGRITY, req_id).u64(*id),
            integrity,
        )
        .finish(),
        MetaRequest::Integrity { id } => {
            FrameBuilder::new(MOP_INTEGRITY, req_id).u64(*id).finish()
        }
        MetaRequest::ReportAccesses { counts } => {
            let mut b = FrameBuilder::new(MOP_REPORT_ACCESSES, req_id).u32(counts.len() as u32);
            for &(id, n) in counts {
                b = b.u64(id).u64(n);
            }
            b.finish()
        }
        MetaRequest::Shutdown => FrameBuilder::new(MOP_SHUTDOWN, req_id).finish(),
    }
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
            match req {
                // Worker RPCs are slow; never run them on the loop, so
                // one long rebalance never stalls heartbeats or lookups
                // on other connections.
                MetaRequest::Rebalance { .. } => {
                    let (master, workers, conn) =
                        (Arc::clone(&served), worker_addrs.clone(), conn.clone());
                    let _ = std::thread::Builder::new()
                        .name("spcache-master-rebalance".into())
                        .spawn(move || {
                            let reply = serve_meta(&master, &workers, req);
                            let frame = meta_frame(&reply, req_id);
                            conn.complete(Completion::Frame(frame), Duration::ZERO);
                        });
                    Served::Pending
                }
                other => {
                    if matches!(other, MetaRequest::Shutdown) {
                        conn.stop_server(); // applied after this ack is queued
                    }
                    let reply = serve_meta(&served, &worker_addrs, other);
                    Served::Reply(meta_frame(&reply, req_id))
                }
            }
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

fn serve_meta(
    master: &Arc<Master>,
    worker_addrs: &[SocketAddr],
    req: MetaRequest,
) -> MetaReply {
    // A fenced master answers nothing but probes and takeover
    // handshakes: every other call is bounced to the successor so a
    // client that cached this endpoint re-aims itself instead of
    // mutating deposed metadata (§4.14).
    if master.is_fenced()
        && !matches!(
            req,
            MetaRequest::Status | MetaRequest::Shutdown | MetaRequest::Takeover { .. }
        )
    {
        return MetaReply::Redirect {
            to: master.successor().unwrap_or_default(),
        };
    }
    match req {
        MetaRequest::Register { id, size, servers } => {
            match MetaService::register(master.as_ref(), id, size as usize, servers) {
                Ok(()) => MetaReply::Done,
                Err(e) => MetaReply::Err(e),
            }
        }
        MetaRequest::Unregister { id } => MetaReply::Maybe(
            master
                .unregister_file(id)
                .map(|(size, servers)| (size as u64, servers)),
        ),
        MetaRequest::Locate { id } => match master.locate(id) {
            Ok((size, servers)) => MetaReply::Info {
                size: size as u64,
                servers,
            },
            Err(e) => MetaReply::Err(e),
        },
        MetaRequest::Peek { id } => match MetaService::peek(master.as_ref(), id) {
            Ok((size, servers)) => MetaReply::Info {
                size: size as u64,
                servers,
            },
            Err(e) => MetaReply::Err(e),
        },
        MetaRequest::ApplyPlacement { id, servers } => {
            match MetaService::apply_placement(master.as_ref(), id, servers) {
                Ok(()) => MetaReply::Done,
                Err(e) => MetaReply::Err(e),
            }
        }
        MetaRequest::MarkAlive { w } => {
            master.mark_alive(w as usize);
            MetaReply::Done
        }
        MetaRequest::MarkDead { w } => {
            master.mark_dead(w as usize);
            MetaReply::Done
        }
        MetaRequest::Suspect { w } => MetaReply::Count(master.suspect(w as usize)),
        MetaRequest::IsAlive { w } => MetaReply::Flag(master.is_alive(w as usize)),
        MetaRequest::LiveWorkers { n } => MetaReply::Workers(master.live_workers(n as usize)),
        MetaRequest::Degraded => MetaReply::Files(master.degraded_files()),
        MetaRequest::WorkerEpochs { n } => MetaReply::Epochs(master.worker_epochs(n as usize)),
        MetaRequest::RegisterWorker { w } => {
            MetaReply::Epoch(master.register_worker(w as usize))
        }
        MetaRequest::BeginRepair { id } => MetaReply::Flag(master.begin_repair(id)),
        MetaRequest::EndRepair { id } => {
            master.end_repair(id);
            MetaReply::Done
        }
        MetaRequest::Rebalance {
            bandwidth,
            lambda,
            seed,
        } => {
            let n = worker_addrs.len();
            let (ids, plan, _) =
                match master.plan_rebalance(n, bandwidth, lambda, &TunerConfig::default(), seed) {
                    Ok(planned) => planned,
                    Err(e) => return MetaReply::Err(e),
                };
            let moved = plan.jobs.len() as u64;
            let transport = TcpTransport::connect(worker_addrs.to_vec());
            match run_parallel(&plan, &ids, master.as_ref(), &transport) {
                Ok(skipped) => MetaReply::Rebalanced { moved, skipped },
                Err(e) => MetaReply::Err(e),
            }
        }
        MetaRequest::Status => MetaReply::Status {
            epoch: master.master_epoch(),
            active: !master.is_fenced(),
            files: master.file_count() as u64,
            next_lsn: master.journal_next_lsn(),
        },
        MetaRequest::LogTail { from } => {
            let (next_lsn, bytes) = master.journal_tail(from);
            MetaReply::Log { next_lsn, bytes }
        }
        MetaRequest::Takeover { epoch, addr } => {
            if epoch >= master.master_epoch() {
                master.self_fence(Some(addr));
                MetaReply::Done
            } else {
                // A *lower*-epoch "successor" is itself the stale one.
                MetaReply::Err(StoreError::StaleEpoch(MASTER_ENDPOINT))
            }
        }
        MetaRequest::RegisterBatch { entries } => {
            let rows: Vec<(u64, usize, Vec<usize>)> = entries
                .into_iter()
                .map(|(id, size, servers)| (id, size as usize, servers))
                .collect();
            match master.register_batch(&rows) {
                Ok(()) => MetaReply::Done,
                Err(e) => MetaReply::Err(e),
            }
        }
        MetaRequest::SetIntegrity { id, integrity } => {
            match master.set_integrity(id, integrity) {
                Ok(()) => MetaReply::Done,
                Err(e) => MetaReply::Err(e),
            }
        }
        MetaRequest::Integrity { id } => MetaReply::IntegrityRow(master.integrity(id)),
        MetaRequest::ReportAccesses { counts } => {
            master.report_accesses(&counts);
            MetaReply::Done
        }
        MetaRequest::Shutdown => MetaReply::Done,
    }
}

/// A [`MetaService`] implementation speaking the master wire protocol.
///
/// The endpoint is **mutable**: when a fenced (deposed) master answers
/// with [`MetaReply::Redirect`], the client re-aims itself at the
/// successor and retries — callers keep one `MasterClient` across a
/// failover and never learn it happened.
///
/// Health reports travel on change. The engine calls `mark_alive` for
/// every reply a worker sends, and the master's table moves only when
/// the worker was dead or suspected, so the client keeps, per worker,
/// whether its last report was a sign of life the master acknowledged,
/// and sends `MarkAlive` only when it was not. Every worker starts
/// unreported, and goes back to unreported on this client's own
/// `suspect` / `mark_dead`, on an `is_alive` / `live_workers` answer
/// that says dead, and — all of them — on a failed exchange or a
/// redirect (the next master has heard nothing from this client).
#[derive(Debug)]
pub struct MasterClient {
    addr: Mutex<SocketAddr>,
    link: Mutex<Link>,
    next_id: std::sync::atomic::AtomicU64,
    deadline: Duration,
}

/// The pooled connection and what has been said on it. One lock holds
/// both, so a report and the memory of it change together: a `suspect`
/// racing a `mark_alive` from another thread leaves the memory matching
/// whichever of the two the master applied last.
#[derive(Debug, Default)]
struct Link {
    stream: Option<TcpStream>,
    /// Workers whose sign of life the master has acknowledged from this
    /// client, with nothing to the contrary seen or said since.
    reported: HashSet<usize>,
}

impl Link {
    /// Drops the connection and, with it, everything reported over it.
    fn hang_up(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        self.reported.clear();
    }
}

impl MasterClient {
    /// A client for the master at `addr`, with the default 5 s deadline.
    pub fn connect(addr: SocketAddr) -> Self {
        MasterClient {
            addr: Mutex::new(addr),
            link: Mutex::default(),
            next_id: std::sync::atomic::AtomicU64::new(1),
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
    /// on malformed replies, plus whatever error the master returns.
    pub fn roundtrip(&self, req: &MetaRequest) -> Result<MetaReply, StoreError> {
        self.roundtrip_on(&mut self.link.lock(), req)
    }

    /// [`roundtrip`](MasterClient::roundtrip) on the already locked
    /// link.
    fn roundtrip_on(&self, link: &mut Link, req: &MetaRequest) -> Result<MetaReply, StoreError> {
        for _ in 0..3 {
            match self.exchange(link, req)? {
                MetaReply::Redirect { to } => {
                    // Whoever answers next has heard nothing from this
                    // client, even if the successor cannot be dialled.
                    link.reported.clear();
                    let next: SocketAddr = to
                        .parse()
                        .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?;
                    *self.addr.lock() = next;
                    link.hang_up();
                }
                reply => return Ok(reply),
            }
        }
        // A redirect loop (two masters each claiming the other) is a
        // deployment bug; surface it as an endpoint failure.
        Err(StoreError::Io(MASTER_ENDPOINT))
    }

    /// One raw request→reply exchange against the current endpoint
    /// (no redirect handling).
    fn exchange(&self, link: &mut Link, req: &MetaRequest) -> Result<MetaReply, StoreError> {
        if link.stream.is_none() {
            let addr = *self.addr.lock();
            let stream = TcpStream::connect_timeout(&addr, self.deadline)
                .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(self.deadline))
                .and_then(|()| stream.set_write_timeout(Some(self.deadline)))
                .map_err(|_| StoreError::Io(MASTER_ENDPOINT))?;
            link.stream = Some(stream);
        }
        let stream = link.stream.as_mut().expect("connection just ensured");
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
            // Poisoned stream (I/O failure or framing loss): redial next
            // call.
            link.hang_up();
        }
        exchange
    }

    fn expect_done(&self, req: &MetaRequest) -> Result<(), StoreError> {
        match self.roundtrip(req)? {
            MetaReply::Done => Ok(()),
            MetaReply::Err(e) => Err(e),
            other => Err(codec(format!("unexpected reply {other:?}"))),
        }
    }

    fn expect_info(&self, req: &MetaRequest) -> Result<(usize, Vec<usize>), StoreError> {
        match self.roundtrip(req)? {
            MetaReply::Info { size, servers } => Ok((size as usize, servers)),
            MetaReply::Err(e) => Err(e),
            other => Err(codec(format!("unexpected reply {other:?}"))),
        }
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
        match self.roundtrip(&MetaRequest::Rebalance {
            bandwidth,
            lambda,
            seed,
        })? {
            MetaReply::Rebalanced { moved, skipped } => Ok((moved, skipped)),
            MetaReply::Err(e) => Err(e),
            other => Err(codec(format!("unexpected reply {other:?}"))),
        }
    }

    /// Asks the master server to stop accepting connections.
    ///
    /// # Errors
    ///
    /// Transport errors reaching the master.
    pub fn shutdown_server(&self) -> Result<(), StoreError> {
        self.expect_done(&MetaRequest::Shutdown)
    }

    /// Probes the master's authority and journal head:
    /// `(master_epoch, active, file_count, next_lsn)`. Served even by
    /// a fenced master — this is the standby's lag/liveness probe.
    ///
    /// # Errors
    ///
    /// Transport errors reaching the master.
    pub fn status(&self) -> Result<(u64, bool, u64, u64), StoreError> {
        match self.exchange(&mut self.link.lock(), &MetaRequest::Status)? {
            MetaReply::Status {
                epoch,
                active,
                files,
                next_lsn,
            } => Ok((epoch, active, files, next_lsn)),
            MetaReply::Err(e) => Err(e),
            other => Err(codec(format!("unexpected reply {other:?}"))),
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
        match self.roundtrip(&MetaRequest::LogTail { from })? {
            MetaReply::Log { next_lsn, bytes } => Ok((next_lsn, bytes)),
            MetaReply::Err(e) => Err(e),
            other => Err(codec(format!("unexpected reply {other:?}"))),
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
        let takeover = MetaRequest::Takeover {
            epoch,
            addr: addr.to_string(),
        };
        match self.exchange(&mut self.link.lock(), &takeover)? {
            MetaReply::Done => Ok(()),
            MetaReply::Err(e) => Err(e),
            other => Err(codec(format!("unexpected reply {other:?}"))),
        }
    }
}

impl MetaService for MasterClient {
    fn register(&self, id: u64, size: usize, servers: Vec<usize>) -> Result<(), StoreError> {
        self.expect_done(&MetaRequest::Register {
            id,
            size: size as u64,
            servers,
        })
    }

    fn unregister_file(&self, id: u64) -> Option<(usize, Vec<usize>)> {
        match self.roundtrip(&MetaRequest::Unregister { id }) {
            Ok(MetaReply::Maybe(opt)) => opt.map(|(size, servers)| (size as usize, servers)),
            _ => None,
        }
    }

    fn locate(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        self.expect_info(&MetaRequest::Locate { id })
    }

    fn peek(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        self.expect_info(&MetaRequest::Peek { id })
    }

    fn apply_placement(&self, id: u64, servers: Vec<usize>) -> Result<(), StoreError> {
        self.expect_done(&MetaRequest::ApplyPlacement { id, servers })
    }

    fn mark_alive(&self, w: usize) {
        let mut link = self.link.lock();
        if link.reported.contains(&w) {
            return;
        }
        let report = MetaRequest::MarkAlive { w: w as u64 };
        if let Ok(MetaReply::Done) = self.roundtrip_on(&mut link, &report) {
            link.reported.insert(w);
        }
    }

    fn mark_dead(&self, w: usize) {
        let mut link = self.link.lock();
        link.reported.remove(&w);
        let _ = self.roundtrip_on(&mut link, &MetaRequest::MarkDead { w: w as u64 });
    }

    fn suspect(&self, w: usize) -> u32 {
        let mut link = self.link.lock();
        link.reported.remove(&w);
        match self.roundtrip_on(&mut link, &MetaRequest::Suspect { w: w as u64 }) {
            Ok(MetaReply::Count(n)) => n,
            _ => 0,
        }
    }

    fn is_alive(&self, w: usize) -> bool {
        let mut link = self.link.lock();
        match self.roundtrip_on(&mut link, &MetaRequest::IsAlive { w: w as u64 }) {
            Ok(MetaReply::Flag(alive)) => {
                if !alive {
                    link.reported.remove(&w);
                }
                alive
            }
            // Unreachable master: assume alive and let the data path
            // discover the truth, rather than spuriously excluding
            // healthy workers.
            _ => true,
        }
    }

    fn live_workers(&self, n: usize) -> Vec<usize> {
        let mut link = self.link.lock();
        match self.roundtrip_on(&mut link, &MetaRequest::LiveWorkers { n: n as u64 }) {
            Ok(MetaReply::Workers(live)) => {
                link.reported.retain(|w| *w >= n || live.contains(w));
                live
            }
            _ => (0..n).collect(),
        }
    }

    fn degraded_files(&self) -> Vec<u64> {
        match self.roundtrip(&MetaRequest::Degraded) {
            Ok(MetaReply::Files(f)) => f,
            _ => Vec::new(),
        }
    }

    fn worker_epochs(&self, n: usize) -> Vec<u64> {
        match self.roundtrip(&MetaRequest::WorkerEpochs { n: n as u64 }) {
            Ok(MetaReply::Epochs(e)) => e,
            // Unreachable master: an empty table means "unknown — do not
            // fence", so clients keep serving instead of bouncing
            // everything on a guessed epoch.
            _ => Vec::new(),
        }
    }

    fn register_worker(&self, w: usize) -> u64 {
        match self.roundtrip(&MetaRequest::RegisterWorker { w: w as u64 }) {
            Ok(MetaReply::Epoch(e)) => e,
            // 0 is never a granted epoch, so a failed grant is visible
            // to the caller (the supervisor retries next tick).
            _ => 0,
        }
    }

    fn begin_repair(&self, id: u64) -> bool {
        match self.roundtrip(&MetaRequest::BeginRepair { id }) {
            Ok(MetaReply::Flag(f)) => f,
            // Availability over strict dedup: an unreachable master must
            // not block the heal that would end the outage.
            _ => true,
        }
    }

    fn end_repair(&self, id: u64) {
        let _ = self.roundtrip(&MetaRequest::EndRepair { id });
    }

    fn register_batch(&self, entries: &[(u64, usize, Vec<usize>)]) -> Result<(), StoreError> {
        self.expect_done(&MetaRequest::RegisterBatch {
            entries: entries
                .iter()
                .map(|(id, size, servers)| (*id, *size as u64, servers.clone()))
                .collect(),
        })
    }

    fn set_integrity(&self, id: u64, integrity: FileIntegrity) -> Result<(), StoreError> {
        self.expect_done(&MetaRequest::SetIntegrity { id, integrity })
    }

    fn integrity(&self, id: u64) -> Option<FileIntegrity> {
        match self.roundtrip(&MetaRequest::Integrity { id }) {
            Ok(MetaReply::IntegrityRow(row)) => row,
            // Unreachable master: no row means reads skip verification
            // and parity recovery — degraded but never wrong (the worker
            // and framing checks still hold).
            _ => None,
        }
    }

    fn report_accesses(&self, counts: &[(u64, u64)]) {
        let report = MetaRequest::ReportAccesses { counts: counts.to_vec() };
        let _ = self.roundtrip(&report);
    }
}
