//! The worker (cache server): one state machine, two drivers.
//!
//! A worker owns its partition map and serves pure-data [`Request`]s,
//! one at a time and in arrival order, through [`WorkerCore::handle`],
//! which says what becomes of each as a [`Step`]. Two drivers call it:
//! [`spawn_worker`]'s thread pops the in-process
//! [`crate::transport::ChannelTransport`]'s queue, and `spcache-net`'s
//! worker server calls it inline from its I/O loops. The core is the
//! only place that counts data-path ops and fires scripted faults; the
//! wire half of a fault (cut or delayed frames) is decided here and
//! carried out by the driver.
//!
//! The emulated NIC never sleeps: a transfer is charged to the NIC's
//! token buckets, and the reply is sent over the span from the instant
//! the NIC takes it up to the instant it is paid off. Behind a socket the
//! shard writes the reply in pieces along that span, each when the NIC
//! has paid it off; in process the driving thread sleeps to the span's
//! end and hands the reply over whole. Data replies are released in op
//! order, as from the one FIFO server of the paper's model.
//!
//! Workers are **memory-budgeted** (DESIGN.md §4.13): with
//! [`StoreConfig::memory_budget`] set, a partition-granular LRU
//! ([`spcache_core::LruCache`]) bounds resident bytes. On overflow the
//! coldest partitions are evicted — written back to the under-store's
//! spill area when that is the only copy, or dropped for free when the
//! under-store already holds the file's whole-file checkpoint. Reads of
//! spilled partitions transparently reload them (paying the slow-tier
//! delay); reads of dropped partitions answer `NotFound` and heal
//! through the client's recovery path. Eviction is a performance
//! event, never a correctness event.
//!
//! All maintenance byte streams — spill writebacks, refills, and any
//! request stamped [`TrafficClass::Background`] (recovery pushes,
//! repartition traffic, read repair) — are paced through the background
//! share of the worker's two-class NIC ([`NicScheduler`]), so a sweep
//! cannot starve foreground traffic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use spcache_core::LruCache;

use crate::backing::UnderStore;
use crate::config::StoreConfig;
use crate::fault::{CorruptSite, FaultAction, FaultLog, WorkerScript};
use crate::rpc::{
    Delivery, Envelope, PartKey, Reply, Request, Stamp, StoreError, WorkerStats, STAGE_BIT,
};
use crate::repartitioner::DEFAULT_EXECUTOR_DEADLINE;
use crate::throttle::{NicScheduler, TrafficClass};

/// A handle to a running worker thread: its request channel and join
/// handle.
#[derive(Debug)]
pub struct WorkerHandle {
    /// Worker index within the cluster.
    pub id: usize,
    sender: Sender<Envelope>,
    join: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// The worker's request channel.
    pub fn sender(&self) -> &Sender<Envelope> {
        &self.sender
    }

    /// Requests shutdown and joins the thread. The worker drains its
    /// queue up to the shutdown request (FIFO), acknowledges, and exits.
    pub fn shutdown(&mut self) {
        let (envelope, rx) = Envelope::channel(Request::Shutdown);
        if self.sender.send(envelope).is_ok() {
            let _ = rx.recv();
        }
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns worker `id` of a cluster described by `cfg` on a thread of its
/// own, serving the in-process channel its handle holds (see
/// [`WorkerCore::new`] for what `log` and `spill` are).
///
/// # Panics
///
/// Panics if the OS refuses the thread (resource exhaustion; nothing a
/// request carries reaches here).
#[allow(clippy::expect_used)]
pub fn spawn_worker(
    id: usize,
    cfg: &StoreConfig,
    log: Arc<FaultLog>,
    spill: Option<Arc<UnderStore>>,
) -> WorkerHandle {
    let core = WorkerCore::new(id, cfg, log, spill);
    let (tx, rx) = crossbeam::channel::unbounded();
    let join = std::thread::Builder::new()
        .name(format!("spcache-worker-{id}"))
        .spawn(move || worker_loop(core, rx))
        .expect("failed to spawn worker thread");
    WorkerHandle {
        id,
        sender: tx,
        join: Some(join),
    }
}

/// The thread driver: pops the queue in arrival order and carries out
/// each step on the envelope's channel, sleeping until a reply's
/// release — so the thread is busy for as long as the emulated NIC is.
/// A reply is a view of the stored bytes, so nothing is gained by
/// handing it over before its span ends.
fn worker_loop(mut core: WorkerCore, rx: Receiver<Envelope>) {
    while let Ok(Envelope { req, reply }) = rx.recv() {
        match core.handle(req) {
            Step::Answer(out, how, sent) => reply.deliver(out, how, sent.end),
            Step::Hold => core.hold(Box::new(reply)),
            Step::Stop(release) => {
                reply.deliver(Reply::Done, Delivery::Reply, release);
                break;
            }
            // The route and everything queued behind it drop unanswered.
            Step::Down => break,
        }
    }
}

/// What the worker made of one request: what its driver carries out.
#[derive(Debug)]
pub enum Step {
    /// Carry out the [`Delivery`] with the [`Reply`] over the span
    /// given: the NIC starts sending the reply at its start and has
    /// paid the last byte off at its end, the release. A driver may
    /// stream the reply's bytes pro rata along the span, or hand it over
    /// whole at the end; at once when that has passed. A data reply's
    /// span starts when the data reply ahead of it is released (or now,
    /// on an idle NIC) and ends when its transfer is paid off. A
    /// scripted `DelayFrame` holds the reply back further, whole: its
    /// span is the one delayed instant. A control reply's span is now.
    Answer(Reply, Delivery, Range<Instant>),
    /// Keep the request's route alive unanswered — a swallowed
    /// heartbeat, so the prober times out — by handing it to
    /// [`WorkerCore::hold`].
    Hold,
    /// `Shutdown`: acknowledge with `Done` at the instant given, behind
    /// every data reply; the worker serves nothing more.
    Stop(Instant),
    /// The worker is gone — it crashed on this request or earlier, or
    /// was shut down: the route goes unanswered, which tells the
    /// requester the worker is down.
    Down,
}

/// The worker's state machine: its serving state, fault scripts, op and
/// heartbeat counters and epochs. [`WorkerCore::handle`] serves one
/// request and says what becomes of its reply.
pub struct WorkerCore {
    ctx: ServeCtx,
    script: WorkerScript,
    heartbeat_script: WorkerScript,
    log: Arc<FaultLog>,
    /// Data-path op counter: faults trigger on this index. Control
    /// requests (Stats, Ping, SetEpoch, Shutdown) do not advance it, so
    /// monitoring traffic never shifts a scripted fault.
    op: u64,
    /// Heartbeat (ping) counter — the separate trigger stream for
    /// DropHeartbeat faults.
    pings: u64,
    /// The epoch granted by the master at registration. 0 =
    /// unregistered: a fresh or crash-restarted worker bounces every
    /// fenced request until the supervisor adopts it with `SetEpoch`.
    epoch: u64,
    /// The highest master epoch this worker has witnessed (via
    /// SetMasterEpoch announcements or the master field of stamps).
    /// 0 = none. Traffic stamped below the watermark bounces StaleEpoch —
    /// a deposed master can never write through this worker again.
    master_known: u64,
    /// Routes of swallowed heartbeats, kept alive so the probing
    /// supervisor observes a *timeout* (→ suspicion ladder), not a
    /// disconnect (→ immediate death). Dropped when the worker goes down.
    held: Vec<Box<dyn Send>>,
    /// Crashed or shut down: every request from now on is [`Step::Down`].
    down: bool,
}

impl WorkerCore {
    /// Worker `id` of a cluster described by `cfg`: its NIC model,
    /// memory budget and pacing, read verification, and its slices of
    /// `cfg.faults` (op-indexed and heartbeat), with every emulated
    /// transfer capped at [`DEFAULT_EXECUTOR_DEADLINE`]. Fired faults
    /// land in `log`. A budgeted worker spills evicted partitions into
    /// `spill` — normally the deployment's shared under-store, so
    /// whole-file checkpoints there turn evictions into free drops;
    /// without one it backs itself with a private under-store, so
    /// eviction can never lose the only copy of a partition.
    pub fn new(
        id: usize,
        cfg: &StoreConfig,
        log: Arc<FaultLog>,
        spill: Option<Arc<UnderStore>>,
    ) -> WorkerCore {
        let spill = match spill {
            None if cfg.memory_budget.is_some() => Some(Arc::new(UnderStore::new())),
            spill => spill,
        };
        let ctx = ServeCtx {
            id,
            store: HashMap::new(),
            // A zero budget still needs a valid LRU: clamp to one byte so
            // every partition is "oversized" and spills straight through.
            lru: LruCache::new(cfg.memory_budget.map_or(f64::INFINITY, |b| (b as f64).max(1.0))),
            nic: NicScheduler::new(cfg.bandwidth, cfg.background_fraction),
            released: Instant::now(),
            stats: WorkerStats::default(),
            spill,
            evicted: Vec::new(),
            clean: HashSet::new(),
            verify_reads: cfg.verify_reads,
            sums: HashMap::new(),
            corrupted: HashSet::new(),
            verified: HashSet::new(),
            wire_corrupt: Vec::new(),
        };
        WorkerCore {
            ctx,
            script: cfg.faults.script_for(id),
            heartbeat_script: cfg.faults.heartbeat_script_for(id),
            log,
            op: 0,
            pings: 0,
            epoch: 0,
            master_known: 0,
            held: Vec::new(),
            down: false,
        }
    }

    /// Keeps the route of a request answered [`Step::Hold`] alive until
    /// the worker goes down; dropping it then must tell its requester
    /// the worker is down.
    pub fn hold(&mut self, route: Box<dyn Send>) {
        self.held.push(route);
    }

    /// Serves one request, firing whatever the fault scripts hold for
    /// it, and says what becomes of its reply.
    pub fn handle(&mut self, req: Request) -> Step {
        if self.down {
            return Step::Down;
        }
        let id = self.ctx.id;
        let now = Instant::now();
        // Control-plane requests bypass fault injection entirely —
        // except Ping, which consults the dedicated heartbeat script —
        // and are answered at once.
        let answer = |reply| Step::Answer(reply, Delivery::Reply, now..now);
        match req {
            Request::Stats => {
                let ctx = &mut self.ctx;
                ctx.stats.resident_parts = ctx.store.len();
                ctx.stats.resident_bytes = ctx.lru.used_bytes() as u64;
                ctx.stats.bytes_background = ctx.nic.class_bytes().1;
                return answer(Reply::Stats(ctx.stats));
            }
            Request::Ping => {
                let this_ping = self.pings;
                self.pings += 1;
                let mut dropped = false;
                for action in self.heartbeat_script.fire(this_ping) {
                    self.log.record(id, this_ping, action.clone());
                    dropped |= matches!(action, FaultAction::DropHeartbeat);
                }
                if dropped {
                    return Step::Hold;
                }
                return answer(Reply::Pong { worker: id, epoch: self.epoch });
            }
            Request::SetEpoch(e) => {
                self.epoch = e;
                return answer(Reply::Done);
            }
            // A lower announcement is a deposed master knocking: bounce
            // it so it self-fences. Equal re-announcements (the active
            // master re-adopting a worker) are fine.
            Request::SetMasterEpoch(m) if m != 0 && m < self.master_known => {
                return answer(Reply::Err(StoreError::StaleEpoch(id)));
            }
            Request::SetMasterEpoch(m) => {
                self.master_known = self.master_known.max(m);
                return answer(Reply::Done);
            }
            Request::Shutdown => {
                // Graceful drain: everything that arrived before this
                // request has been served; its ack leaves behind them.
                // Held routes drop: the worker is gone.
                self.down = true;
                self.held.clear();
                return Step::Stop(self.ctx.released.max(now));
            }
            // A control request inside a stamp. The wire decoder refuses
            // these, so only a hand-built one gets here: it fires no
            // fault and counts no op.
            _ if req.is_control() => return answer(Reply::Err(not_a_data_request())),
            _ => {}
        }

        // Consult the fault script for this op. Drops and hangs apply
        // before serving; LoseReply serves and then loses the reply;
        // Crash kills the worker with this request and everything
        // behind it unanswered (each reports the worker down). Wire
        // faults are handed to the driver, which carries them out on a
        // socket and degrades them on a channel — the action is logged
        // here either way, so seeded fault logs are identical across
        // transports.
        let op = self.op;
        let mut crash = false;
        let mut bounce_stale = false;
        let mut how = Delivery::Reply;
        let mut delay = Duration::ZERO;
        for action in self.script.fire(op) {
            self.log.record(id, op, action.clone());
            let ctx = &mut self.ctx;
            match action {
                FaultAction::Crash => crash = true,
                // A hung worker stalls whatever drives it, as a hung
                // process would.
                FaultAction::Hang(pause) => std::thread::sleep(pause),
                FaultAction::DropPartition(key) => {
                    ctx.store.remove(&key);
                    ctx.lru.remove(&key);
                }
                FaultAction::LoseReply => how = how.max(Delivery::Lose),
                FaultAction::DropConnection => how = how.max(Delivery::Close),
                FaultAction::TruncateFrame => how = how.max(Delivery::Truncate),
                FaultAction::DelayFrame(pause) => delay += pause,
                // Fast restart with a cold cache: everything cached is
                // gone and the registration epoch resets; the core
                // keeps serving as the "restarted process". Spilled
                // partitions live on the stable tier and survive.
                FaultAction::CrashRestart => {
                    ctx.store.clear();
                    ctx.lru.clear();
                    ctx.clean.clear();
                    // The in-memory checksum map dies with the process;
                    // surviving spilled partitions reload unverified and
                    // record the sum of what they hold (the client still
                    // checks them against the master's rows).
                    ctx.sums.clear();
                    ctx.corrupted.clear();
                    ctx.verified.clear();
                    ctx.wire_corrupt.clear();
                    ctx.stats.resident_parts = 0;
                    ctx.stats.resident_bytes = 0;
                    self.epoch = 0;
                    self.master_known = 0;
                }
                FaultAction::StaleEpochDelivery => bounce_stale = true,
                // Flip one byte of the partition at the scripted site.
                // The worker mutates its *own copies* on both transports,
                // which is what keeps seeded fault logs identical across
                // channel and TCP runs.
                FaultAction::CorruptPartition { key, site, byte } => ctx.corrupt(key, site, byte),
                // Heartbeat faults never appear in op-indexed scripts
                // (FaultPlan::script_for filters them out).
                FaultAction::DropHeartbeat => {}
            }
        }
        if crash {
            self.down = true;
            self.held.clear();
            return Step::Down;
        }
        self.op += 1;

        // Epoch fencing runs *after* fault injection and the op-counter
        // bump, so a bounced request advances the counter identically on
        // both transports and scripted faults stay aligned. The master
        // stamp is checked alongside the worker epoch: below-watermark
        // stamps bounce, higher stamps raise the watermark (a worker
        // can learn of a takeover from the traffic itself). A zero
        // epoch in either field fences nothing; the class picks the NIC
        // bucket the transfer pays.
        let (req, stamp) = match req {
            Request::Stamped { stamp, inner } => (*inner, stamp),
            req => (req, Stamp::default()),
        };
        // The NIC takes this reply up when the one ahead of it is sent.
        let start = self.ctx.released.max(now);
        let stale_master = stamp.master != 0 && stamp.master < self.master_known;
        self.master_known = self.master_known.max(stamp.master);
        let stale_worker = stamp.epoch != 0 && stamp.epoch != self.epoch;
        let reply = if bounce_stale || stale_worker || stale_master {
            Reply::Err(StoreError::StaleEpoch(id))
        } else {
            self.ctx.serve(req, stamp)
        };
        // Data replies leave in op order: none before the one ahead.
        self.ctx.released = self.ctx.released.max(now);
        let release = self.ctx.released + delay;
        let start = if delay.is_zero() { start } else { release };
        Step::Answer(reply, how, start..release)
    }
}

/// The typed refusal for a request that is neither control-plane nor a
/// canonically stamped data request.
fn not_a_data_request() -> StoreError {
    StoreError::Codec("stamp around a request that is not a data request".into())
}

/// The worker's serving state: partition map, budget LRU, two-class
/// NIC, spill tier and counters.
struct ServeCtx {
    id: usize,
    store: HashMap<PartKey, Bytes>,
    lru: LruCache<PartKey>,
    nic: NicScheduler,
    /// When the last data reply is released: every transfer's pay-off
    /// instant raises it, and no later data reply leaves before it.
    released: Instant,
    stats: WorkerStats,
    spill: Option<Arc<UnderStore>>,
    /// Scratch for LRU eviction drains (reused, allocation-free in
    /// steady state).
    evicted: Vec<(PartKey, f64)>,
    /// Resident partitions whose spill copy is still byte-identical
    /// (reloaded and not since overwritten). Evicting a clean partition
    /// is a free drop — the spill tier already holds the only copy it
    /// would write back. Invariant: `clean` ⊆ resident keys with a live,
    /// identical spill entry; every path that mutates either side
    /// (`Put`, `Rename`, `Delete`, crash-restart) clears the flag.
    clean: HashSet<PartKey>,
    /// Re-verify resident bytes on every read (spill reloads are always
    /// verified regardless — see [`ServeCtx::reload`]).
    verify_reads: bool,
    /// Checksum per partition, as stamped by the writer's `Put` (or,
    /// for a spilled copy whose sum a cold restart lost, as computed by
    /// its reload). Partitions written with the
    /// [`spcache_integrity::UNVERIFIED`] sentinel have no entry and
    /// always pass verification.
    sums: HashMap<PartKey, u64>,
    /// Keys erased after a failed verification. A fresh `Put` landing on
    /// one of these is a reconstruction re-landing (read-repair
    /// push-back) and counts into `decode_reconstructions`.
    corrupted: HashSet<PartKey>,
    /// Resident partitions whose bytes passed verification and have not
    /// moved since. Verification is **per byte movement**, not per
    /// `Get`: the first read after a `Put`, reload or rename pays the
    /// checksum pass, and later reads of the untouched bytes are free —
    /// this is what keeps `verify_reads` within the §4.15 overhead
    /// budget. Every path that replaces or rots the bytes (`Put`,
    /// `Rename`, `Delete`, scripted flips, crash-restart) drops the
    /// mark.
    verified: HashSet<PartKey>,
    /// Pending wire-site flips: the next read reply carrying the key
    /// serves a flipped *copy* — the stored bytes stay pristine, exactly
    /// like a frame corrupted in flight.
    wire_corrupt: Vec<(PartKey, u64)>,
}

impl ServeCtx {
    /// Serves one data-path request under its stamp's checksum fence and
    /// traffic class.
    fn serve(&mut self, req: Request, stamp: Stamp) -> Reply {
        let class = stamp.class;
        match req {
            Request::Put { key, data, sum } => {
                if let Err(refused) = self.transfer(data.len(), class) {
                    return refused;
                }
                self.stats.bytes_stored += data.len() as u64;
                self.stats.puts += 1;
                if key.is_parity() {
                    self.stats.parity_bytes += data.len() as u64;
                }
                if self.corrupted.remove(&key) {
                    // A fresh Put landing on a corruption-erased key is
                    // a reconstruction re-landing (read-repair).
                    self.stats.decode_reconstructions += 1;
                }
                if sum == spcache_integrity::UNVERIFIED {
                    self.sums.remove(&key);
                } else {
                    self.sums.insert(key, sum);
                }
                // Fresh bytes are unproven: the next read verifies them.
                self.verified.remove(&key);
                self.admit(key, data);
                self.stats.resident_parts = self.store.len();
                Reply::Done
            }
            Request::Get { key } | Request::GetParity { key } => {
                self.stats.gets += 1;
                if let Err(e) = self.fence_sum(key, stamp.expect) {
                    return Reply::Err(e);
                }
                let data = match self.resident(key) {
                    Ok(d) => d,
                    Err(e) => return Reply::Err(e),
                };
                if let Err(refused) = self.transfer(data.len(), class) {
                    return refused;
                }
                self.stats.bytes_served += data.len() as u64;
                Reply::Data(self.outgoing(key, data))
            }
            Request::GetRange { key, offset, len } => {
                self.stats.gets += 1;
                let data = match self.resident(key) {
                    Ok(d) => d,
                    Err(e) => return Reply::Err(e),
                };
                // Both bounds come off the wire: clamp, never overflow.
                let size = data.len() as u64;
                let start = offset.min(size);
                let end = start.saturating_add(len).min(size);
                let slice = data.slice(start as usize..end as usize);
                if let Err(refused) = self.transfer(slice.len(), class) {
                    return refused;
                }
                self.stats.bytes_served += slice.len() as u64;
                Reply::Data(self.outgoing(key, slice))
            }
            Request::Rename { from, to } => {
                let moved = match self.store.remove(&from) {
                    Some(data) => {
                        let bytes = self.lru.remove(&from).unwrap_or(data.len() as f64);
                        self.lru.insert(to, bytes);
                        // Any stale spilled copy of either name must not
                        // shadow the renamed bytes: `to`'s old spill
                        // entry is dead, and a clean `from` leaves its
                        // (now misnamed) spill copy behind.
                        if let Some(s) = &self.spill {
                            s.spill_remove(to);
                            if self.clean.remove(&from) {
                                s.spill_remove(from);
                            }
                        }
                        self.clean.remove(&to);
                        self.store.insert(to, data);
                        true
                    }
                    // The source may have been evicted before its
                    // commit arrived: rename within the spill tier.
                    None => {
                        self.clean.remove(&to);
                        self.spill
                            .as_ref()
                            .is_some_and(|s| s.spill_rename(from, to))
                    }
                };
                if moved {
                    // The checksum (and any pending erasure mark) follow
                    // the bytes; whatever `to` carried before is stale.
                    match self.sums.remove(&from) {
                        Some(sum) => {
                            self.sums.insert(to, sum);
                        }
                        None => {
                            self.sums.remove(&to);
                        }
                    }
                    if self.corrupted.remove(&from) {
                        self.corrupted.insert(to);
                    } else {
                        self.corrupted.remove(&to);
                    }
                    if self.verified.remove(&from) {
                        self.verified.insert(to);
                    } else {
                        self.verified.remove(&to);
                    }
                }
                self.stats.resident_parts = self.store.len();
                Reply::Flag(moved)
            }
            Request::Delete { key } => {
                let mut removed = self.store.remove(&key).is_some();
                self.lru.remove(&key);
                self.clean.remove(&key);
                self.sums.remove(&key);
                self.corrupted.remove(&key);
                self.verified.remove(&key);
                if let Some(s) = &self.spill {
                    removed |= s.spill_remove(key);
                }
                self.stats.resident_parts = self.store.len();
                Reply::Flag(removed)
            }
            // Control requests are served before fault injection and the
            // one stamp is read before serve(): what is left is a
            // hand-built stamp inside a stamp, which no decoder or stamp
            // helper produces.
            Request::Stats
            | Request::Ping
            | Request::SetEpoch(_)
            | Request::SetMasterEpoch(_)
            | Request::Shutdown
            | Request::Stamped { .. } => Reply::Err(not_a_data_request()),
        }
    }

    /// The partition's bytes if resident — reloading it from the spill
    /// tier first when it was evicted there. A checksum mismatch
    /// surfaces as [`StoreError::Corrupt`] with every local copy
    /// dropped: corruption becomes an *erasure* the client recovers
    /// from (parity decode or under-store heal), never wrong bytes.
    ///
    /// Verification is memoised per byte movement (see
    /// [`ServeCtx::verified`]): only the first read after the bytes
    /// landed, moved or rotted pays the checksum pass.
    fn resident(&mut self, key: PartKey) -> Result<Bytes, StoreError> {
        if let Some(data) = self.store.get(&key) {
            let data = data.clone();
            self.lru.touch(&key);
            if self.verify_reads && !self.verified.contains(&key) {
                if !spcache_integrity::verify(&data, self.sum_of(key)) {
                    return Err(self.erase_corrupt(key));
                }
                self.verified.insert(key);
            }
            return Ok(data);
        }
        self.reload(key)
    }

    /// The checksum fence of a `Get` expecting `key` under `expect`
    /// (`UNVERIFIED`: no fence). Only a copy recorded under exactly that
    /// sum may serve it; any other copy — another sum, or none recorded
    /// — is [`StoreError::StalePlacement`], and no copy at all is the
    /// usual missing-key answer. One map lookup on the hit path.
    ///
    /// A spilled copy that outlived a cold restart has lost its recorded
    /// sum with the process: it is reloaded first, which records the sum
    /// of its bytes (see [`ServeCtx::reload`]).
    fn fence_sum(&mut self, key: PartKey, expect: u64) -> Result<(), StoreError> {
        if expect == spcache_integrity::UNVERIFIED || self.sums.get(&key) == Some(&expect) {
            return Ok(());
        }
        if !self.sums.contains_key(&key) && !self.store.contains_key(&key) {
            self.reload(key)?;
            if self.sums.get(&key) == Some(&expect) {
                return Ok(());
            }
        }
        let held = self.store.contains_key(&key)
            || self.spill.as_ref().is_some_and(|s| s.spill_contains(key));
        Err(if held { StoreError::StalePlacement(key) } else { self.missing(key) })
    }

    /// The remembered checksum for `key` (`UNVERIFIED` when the writer
    /// did not stamp one — then verification always passes).
    fn sum_of(&self, key: PartKey) -> u64 {
        self.sums
            .get(&key)
            .copied()
            .unwrap_or(spcache_integrity::UNVERIFIED)
    }

    /// The error for a partition with no local copy left. A key erased
    /// by a failed verification stays a typed [`StoreError::Corrupt`]
    /// erasure until a fresh `Put` re-lands it — readers racing the
    /// read-repair push-back must keep seeing the erasure (and keep
    /// recovering via parity), not a `NotFound` that looks like a
    /// deleted file.
    fn missing(&self, key: PartKey) -> StoreError {
        if self.corrupted.contains(&key) {
            StoreError::Corrupt(key)
        } else {
            StoreError::NotFound(key)
        }
    }

    /// Drops every local copy of a corrupt partition, counts the
    /// detection and returns the typed erasure error.
    fn erase_corrupt(&mut self, key: PartKey) -> StoreError {
        self.store.remove(&key);
        self.lru.remove(&key);
        self.clean.remove(&key);
        if let Some(s) = &self.spill {
            s.spill_remove(key);
        }
        self.stats.resident_parts = self.store.len();
        self.stats.corruptions_detected += 1;
        self.corrupted.insert(key);
        self.verified.remove(&key);
        println!("CORRUPT {} {}", key.file, key.part);
        StoreError::Corrupt(key)
    }

    /// Applies a pending wire-site flip to the outgoing reply, if one is
    /// scripted for this key. Always flips a *copy*: the stored `Bytes`
    /// may share the writer's (or a test's ground-truth) allocation.
    fn outgoing(&mut self, key: PartKey, data: Bytes) -> Bytes {
        if let Some(pos) = self.wire_corrupt.iter().position(|(k, _)| *k == key) {
            let (_, byte) = self.wire_corrupt.swap_remove(pos);
            return flipped(&data, byte);
        }
        data
    }

    /// Lands one scripted [`FaultAction::CorruptPartition`].
    fn corrupt(&mut self, key: PartKey, site: CorruptSite, byte: u64) {
        match site {
            CorruptSite::Wire => self.wire_corrupt.push((key, byte)),
            CorruptSite::Spill => {
                // Flip the spill-area copy in place; the resident copy
                // (if any) stays honest, so the flip only surfaces once
                // the partition must be reloaded. Falls back to the
                // resident site when the partition never spilled.
                if let Some(s) = self.spill.clone() {
                    if let Some(data) = s.spill_load(key) {
                        s.spill_put(key, flipped(&data, byte));
                        return;
                    }
                }
                self.corrupt_resident(key, byte);
            }
            CorruptSite::Resident => self.corrupt_resident(key, byte),
        }
    }

    fn corrupt_resident(&mut self, key: PartKey, byte: u64) {
        if let Some(data) = self.store.get(&key) {
            let bad = flipped(data, byte);
            self.store.insert(key, bad);
            // A clean spill copy no longer matches the resident bytes:
            // drop the flag so eviction writes the corruption back
            // instead of free-dropping it out of existence.
            self.clean.remove(&key);
            // The flip replaced the resident `Bytes`, so the memoised
            // verification no longer covers what's stored — the next
            // read re-verifies and detects.
            self.verified.remove(&key);
        }
    }

    /// Makes `key` resident under the budget, evicting as needed:
    /// evicted cold partitions spill to the under-store unless it
    /// already holds the file's whole-file checkpoint (then the drop is
    /// free — a later read heals from the checkpoint). A partition
    /// larger than the whole budget spills straight through.
    fn admit(&mut self, key: PartKey, data: Bytes) {
        // Fresh bytes supersede any spilled copy: purge it so a later
        // eviction can't resurrect the stale version.
        if let Some(s) = &self.spill {
            s.spill_remove(key);
        }
        self.clean.remove(&key);
        self.admit_inner(key, data);
    }

    fn admit_inner(&mut self, key: PartKey, data: Bytes) {
        let fits = self
            .lru
            .insert_evicting(key, data.len() as f64, &mut self.evicted);
        if fits {
            self.store.insert(key, data);
        } else {
            self.store.remove(&key);
            self.writeback(key, data);
        }
        let drained = std::mem::take(&mut self.evicted);
        for &(k, _) in &drained {
            if let Some(bytes) = self.store.remove(&k) {
                self.writeback(k, bytes);
            }
        }
        self.evicted = drained;
        self.evicted.clear();
    }

    /// Handles one evicted partition: drop free when the spill tier
    /// already holds the bytes — either the file's whole-file
    /// checkpoint or a still-identical spill copy left by a clean
    /// reload — otherwise write it back to the spill area, paced as
    /// background traffic (uncapped — the only copy must land).
    fn writeback(&mut self, key: PartKey, data: Bytes) {
        self.stats.evictions += 1;
        let Some(spill) = self.spill.clone() else {
            self.clean.remove(&key);
            return;
        };
        // A clean partition's spill copy is byte-identical by
        // invariant: evicting it moves nothing.
        if self.clean.remove(&key) {
            return;
        }
        // Staged partitions belong to an uncommitted layout the
        // checkpoint knows nothing about: always spill those.
        if key.part & STAGE_BIT == 0 && spill.contains(key.file) {
            return;
        }
        self.released = self.released.max(self.nic.reserve(data.len(), TrafficClass::Background));
        self.stats.spilled_bytes += data.len() as u64;
        spill.spill_put(key, data);
    }

    /// Reloads an evicted partition from the spill tier (paying the
    /// slow-tier read delay and the background NIC share), re-admits it
    /// and returns its bytes. The spill copy stays where it is and the
    /// partition is marked clean: until something overwrites it, its
    /// next eviction is a free drop instead of a redundant writeback.
    ///
    /// Reloaded bytes are **always** verified when the checksum is
    /// known, independent of `verify_reads`: the spill tier sits outside
    /// this process and its bytes must never be re-admitted on trust —
    /// a corrupt spill file is erased and healed, not served. When the
    /// checksum is not known (a copy spilled before a cold restart), the
    /// sum of the reloaded bytes is recorded, so a fenced `Get` compares
    /// against what the copy holds and later reads verify against it.
    fn reload(&mut self, key: PartKey) -> Result<Bytes, StoreError> {
        let Some(spill) = self.spill.clone() else {
            return Err(self.missing(key));
        };
        let Some(data) = spill.spill_load(key) else {
            return Err(self.missing(key));
        };
        match self.sums.get(&key) {
            Some(&sum) if !spcache_integrity::verify(&data, sum) => {
                return Err(self.erase_corrupt(key));
            }
            Some(_) => {}
            None => {
                self.sums.insert(key, spcache_integrity::sum(&data));
            }
        }
        self.released = self.released.max(self.nic.reserve(data.len(), TrafficClass::Background));
        self.stats.reloaded_bytes += data.len() as u64;
        self.clean.insert(key);
        // The reload *is* this movement's verification pass.
        self.verified.insert(key);
        self.admit_inner(key, data.clone());
        Ok(data)
    }

    /// Reserves the NIC for a transfer, refusing with
    /// [`StoreError::Timeout`] one that would be paid off past the
    /// executor deadline — what keeps a throttled push from outliving
    /// the executor that sent it.
    fn transfer(&mut self, bytes: usize, class: TrafficClass) -> Result<(), Reply> {
        let cap = Instant::now() + DEFAULT_EXECUTOR_DEADLINE;
        let paid = self.nic.reserve_within(bytes, class, cap);
        let paid = paid.ok_or(Reply::Err(StoreError::Timeout(self.id)))?;
        self.released = self.released.max(paid);
        Ok(())
    }
}

/// A copy of `data` with the byte at `index % len` inverted. The copy is
/// mandatory: stored `Bytes` may alias the writer's allocation, and a
/// seeded fault must never mutate the test's ground truth in place.
fn flipped(data: &Bytes, index: u64) -> Bytes {
    let mut v = data.to_vec();
    if !v.is_empty() {
        let i = (index % v.len() as u64) as usize;
        v[i] ^= 0xFF;
    }
    Bytes::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use proptest::prelude::{any, prop_assert_eq, Strategy};

    /// A worker with no faults, budget or spill, at `bandwidth` bytes/s.
    fn plain(id: usize, bandwidth: f64) -> WorkerHandle {
        let cfg = StoreConfig::throttled(id + 1, bandwidth);
        spawn_worker(id, &cfg, Arc::new(FaultLog::new()), None)
    }

    /// Queues `req` without awaiting it.
    fn submit(h: &WorkerHandle, req: Request) -> Receiver<Reply> {
        let (envelope, rx) = Envelope::channel(req);
        h.sender().send(envelope).unwrap();
        rx
    }

    fn call(h: &WorkerHandle, req: Request) -> Reply {
        submit(h, req).recv().unwrap()
    }

    fn stats(h: &WorkerHandle) -> WorkerStats {
        call(h, Request::Stats).stats().unwrap()
    }

    fn put(h: &WorkerHandle, key: PartKey, data: &[u8]) {
        call(
            h,
            Request::Put {
                key,
                data: Bytes::copy_from_slice(data),
                sum: 0,
            },
        )
        .unit()
        .unwrap();
    }

    /// A `put` stamped with the real checksum, as the client writes.
    fn put_summed(h: &WorkerHandle, key: PartKey, data: &[u8]) {
        call(
            h,
            Request::Put {
                key,
                data: Bytes::copy_from_slice(data),
                sum: spcache_integrity::sum(data),
            },
        )
        .unit()
        .unwrap();
    }

    fn get(h: &WorkerHandle, key: PartKey) -> Result<Bytes, StoreError> {
        call(h, Request::Get { key }).bytes()
    }

    /// A foreground stamp fencing by worker and master epoch.
    fn fence(epoch: u64, master: u64) -> Stamp {
        Stamp { epoch, master, ..Stamp::default() }
    }

    #[test]
    fn put_get_roundtrip() {
        let h = plain(0, f64::INFINITY);
        put(&h, PartKey::new(1, 0), b"hello");
        assert_eq!(get(&h, PartKey::new(1, 0)).unwrap().as_ref(), b"hello");
    }

    #[test]
    fn a_range_running_past_u64_max_is_clamped_not_a_worker_kill() {
        let h = plain(0, f64::INFINITY);
        put(&h, PartKey::new(1, 0), b"hello");
        let range = Request::GetRange { key: PartKey::new(1, 0), offset: 1, len: u64::MAX };
        assert_eq!(call(&h, range).bytes().unwrap().as_ref(), b"ello");
        assert!(call(&h, Request::Ping).pong_epoch().is_ok(), "the worker survives");
    }

    /// A range bound off the wire: near 0, near `u64::MAX`, or anywhere.
    fn wire_bound() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u8..3).prop_map(|(x, at)| match at {
            0 => x % 12,
            1 => u64::MAX - x % 12,
            _ => x,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any `(offset, len)` a frame can carry gets the resident key's
        /// clamped slice, never a panic.
        #[test]
        fn any_range_of_a_resident_key_is_its_clamped_slice(
            offset in wire_bound(),
            len in wire_bound(),
        ) {
            let data = b"0123456789";
            let h = plain(0, f64::INFINITY);
            put(&h, PartKey::new(1, 0), data);
            let start = offset.min(10) as usize;
            let end = (start as u64).saturating_add(len).min(10) as usize;
            let range = Request::GetRange { key: PartKey::new(1, 0), offset, len };
            let want = Bytes::copy_from_slice(&data[start..end]);
            prop_assert_eq!(call(&h, range), Reply::Data(want));
        }
    }

    #[test]
    fn get_missing_returns_not_found() {
        let h = plain(0, f64::INFINITY);
        assert_eq!(
            get(&h, PartKey::new(9, 9)),
            Err(StoreError::NotFound(PartKey::new(9, 9)))
        );
    }

    #[test]
    fn delete_removes() {
        let h = plain(0, f64::INFINITY);
        put(&h, PartKey::new(1, 0), b"x");
        assert!(call(&h, Request::Delete { key: PartKey::new(1, 0) })
            .flag()
            .unwrap());
        assert!(get(&h, PartKey::new(1, 0)).is_err());
    }

    #[test]
    fn stats_track_traffic() {
        let h = plain(0, f64::INFINITY);
        put(&h, PartKey::new(1, 0), &[0u8; 100]);
        put(&h, PartKey::new(1, 1), &[0u8; 50]);
        let _ = get(&h, PartKey::new(1, 0));
        let s = stats(&h);
        assert_eq!(s.bytes_stored, 150);
        assert_eq!(s.bytes_served, 100);
        assert_eq!(s.puts, 2);
        assert_eq!(s.gets, 1);
        assert_eq!(s.resident_parts, 2);
        assert_eq!(s.resident_bytes, 150);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.bytes_background, 0);
    }

    #[test]
    fn throttled_worker_takes_time() {
        let h = plain(0, 10e6);
        put(&h, PartKey::new(1, 0), &[0u8; 1_000_000]);
        let t0 = std::time::Instant::now();
        let _ = get(&h, PartKey::new(1, 0)).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.08, "1 MB at 10 MB/s should take ~0.1s, took {dt}");
    }

    #[test]
    fn shutdown_is_acknowledged_and_joins_cleanly() {
        let mut h = plain(0, f64::INFINITY);
        put(&h, PartKey::new(1, 0), b"x");
        assert_eq!(call(&h, Request::Shutdown), Reply::Done, "shutdown is acked");
        h.shutdown(); // idempotent: channel already closed
        let (envelope, rx) = Envelope::channel(Request::Get {
            key: PartKey::new(1, 0),
        });
        assert!(h.sender().send(envelope).is_err() || rx.recv().is_err());
    }

    #[test]
    fn second_queued_shutdown_disconnects_instead_of_hanging() {
        // The double-shutdown race: a server front end forwards a
        // Shutdown and, once acked, calls `WorkerHandle::shutdown`,
        // which queues a *second* Shutdown envelope. The worker loop
        // breaks on the first without serving the second — the queued
        // envelope (and the reply sender inside it) must be destroyed
        // with the worker's receiver so the second waiter observes a
        // disconnect, never an indefinite block.
        let h = plain(0, f64::INFINITY);
        let rx1 = submit(&h, Request::Shutdown);
        let (second, rx2) = Envelope::channel(Request::Shutdown);
        // The worker may already have served the first Shutdown and
        // dropped its receiver — then this send fails outright, which is
        // the same observable: the second waiter is told "disconnected"
        // instead of blocking forever.
        let second = h.sender().send(second);
        assert_eq!(rx1.recv_timeout(Duration::from_secs(5)).unwrap(), Reply::Done);
        if second.is_ok() {
            assert!(
                matches!(
                    rx2.recv_timeout(Duration::from_secs(5)),
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected)
                ),
                "unserved shutdown must disconnect, not hang"
            );
        }
    }

    #[test]
    fn shutdown_drains_queued_requests_first() {
        // Requests enqueued before the shutdown envelope are all served
        // (FIFO drain) — nothing in flight is lost.
        let h = plain(0, f64::INFINITY);
        let mut gets = Vec::new();
        put(&h, PartKey::new(1, 0), b"drain");
        for _ in 0..16 {
            gets.push(submit(
                &h,
                Request::Get {
                    key: PartKey::new(1, 0),
                },
            ));
        }
        let rx = submit(&h, Request::Shutdown);
        for g in gets {
            assert_eq!(g.recv().unwrap().bytes().unwrap().as_ref(), b"drain");
        }
        assert_eq!(rx.recv().unwrap(), Reply::Done);
    }

    #[test]
    fn wire_faults_degrade_to_lost_or_delayed_replies_in_process() {
        let plan = FaultPlan::none()
            .drop_connection(0, 1)
            .delay_frame(0, 2, Duration::from_millis(60));
        let log = Arc::new(FaultLog::new());
        let cfg = StoreConfig::unthrottled(1).with_faults(plan);
        let h = spawn_worker(0, &cfg, Arc::clone(&log), None);
        put(&h, PartKey::new(1, 0), b"w"); // op 0
        // Op 1: DropConnection ≈ lost reply → receiver disconnects.
        let rx = submit(
            &h,
            Request::Get {
                key: PartKey::new(1, 0),
            },
        );
        assert!(rx.recv().is_err(), "reply should be lost");
        // Op 2: DelayFrame stalls the reply ~60 ms but it does arrive.
        let t0 = std::time::Instant::now();
        assert_eq!(get(&h, PartKey::new(1, 0)).unwrap().as_ref(), b"w");
        assert!(t0.elapsed() >= Duration::from_millis(50));
        // The log carries the original wire actions.
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].action, FaultAction::DropConnection);
        assert_eq!(snap[1].action, FaultAction::DelayFrame(Duration::from_millis(60)));
    }

    #[test]
    fn epoch_fencing_bounces_mismatched_stamps() {
        let h = plain(3, f64::INFINITY);
        // Unregistered worker reports epoch 0 and serves unfenced traffic.
        assert_eq!(call(&h, Request::Ping).pong_epoch().unwrap(), (3, 0));
        put(&h, PartKey::new(1, 0), b"pre");
        // Fenced request against epoch-0 worker bounces.
        let fenced = Request::Get {
            key: PartKey::new(1, 0),
        }
        .stamped(fence(5, 0));
        assert_eq!(
            call(&h, fenced).bytes(),
            Err(StoreError::StaleEpoch(3))
        );
        // Adopt the worker at epoch 5: the same fenced request now serves.
        assert_eq!(call(&h, Request::SetEpoch(5)), Reply::Done);
        assert_eq!(call(&h, Request::Ping).pong_epoch().unwrap(), (3, 5));
        let fenced = Request::Get {
            key: PartKey::new(1, 0),
        }
        .stamped(fence(5, 0));
        assert_eq!(call(&h, fenced).bytes().unwrap().as_ref(), b"pre");
        // A stale stamp (pre-death epoch) is rejected after re-adoption.
        assert_eq!(call(&h, Request::SetEpoch(6)), Reply::Done);
        let stale = Request::Get {
            key: PartKey::new(1, 0),
        }
        .stamped(fence(5, 0));
        assert_eq!(call(&h, stale).bytes(), Err(StoreError::StaleEpoch(3)));
    }

    #[test]
    fn master_epoch_watermark_fences_deposed_masters() {
        let h = plain(2, f64::INFINITY);
        assert_eq!(call(&h, Request::SetEpoch(1)), Reply::Done);
        put(&h, PartKey::new(1, 0), b"v");
        let get = || Request::Get { key: PartKey::new(1, 0) };
        // Master 1 announces itself; its stamped traffic serves.
        assert_eq!(call(&h, Request::SetMasterEpoch(1)), Reply::Done);
        assert_eq!(
            call(&h, get().stamped(fence(1, 1))).bytes().unwrap().as_ref(),
            b"v"
        );
        // Unstamped (master 0) traffic from plain clients still serves.
        assert_eq!(call(&h, get().stamped(fence(1, 0))).bytes().unwrap().as_ref(), b"v");
        // A takeover announcement raises the watermark...
        assert_eq!(call(&h, Request::SetMasterEpoch(3)), Reply::Done);
        // ...the deposed master's stamps bounce forever...
        assert_eq!(
            call(&h, get().stamped(fence(1, 1))).bytes(),
            Err(StoreError::StaleEpoch(2))
        );
        // ...and so does its re-announcement (this is what makes a
        // stale master's re-adopt attempt self-fence).
        assert_eq!(
            call(&h, Request::SetMasterEpoch(1)),
            Reply::Err(StoreError::StaleEpoch(2))
        );
        // The new master's stamps serve; a yet-higher stamp raises the
        // watermark from the traffic itself.
        assert_eq!(
            call(&h, get().stamped(fence(1, 3))).bytes().unwrap().as_ref(),
            b"v"
        );
        assert_eq!(
            call(&h, get().stamped(fence(1, 4))).bytes().unwrap().as_ref(),
            b"v"
        );
        assert_eq!(
            call(&h, get().stamped(fence(1, 3))).bytes(),
            Err(StoreError::StaleEpoch(2))
        );
    }

    #[test]
    fn crash_restart_clears_cache_and_resets_epoch() {
        let plan = FaultPlan::none().crash_restart(0, 2);
        let log = Arc::new(FaultLog::new());
        let cfg = StoreConfig::unthrottled(1).with_faults(plan);
        let h = spawn_worker(0, &cfg, Arc::clone(&log), None);
        assert_eq!(call(&h, Request::SetEpoch(4)), Reply::Done);
        put(&h, PartKey::new(1, 0), b"gone"); // op 0
        put(&h, PartKey::new(1, 1), b"gone"); // op 1
        // Op 2 fires CrashRestart before serving: cache wiped, epoch 0,
        // and the request that triggered it is served on the cold cache.
        assert_eq!(
            get(&h, PartKey::new(1, 0)),
            Err(StoreError::NotFound(PartKey::new(1, 0)))
        );
        assert_eq!(call(&h, Request::Ping).pong_epoch().unwrap(), (0, 0));
        // Fenced traffic bounces until a new SetEpoch adopts it.
        let fenced = Request::Get {
            key: PartKey::new(1, 1),
        }
        .stamped(fence(4, 0));
        assert_eq!(call(&h, fenced).bytes(), Err(StoreError::StaleEpoch(0)));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].action, FaultAction::CrashRestart);
        assert_eq!(snap[0].op, 2);
    }

    #[test]
    fn dropped_heartbeat_times_out_without_disconnecting() {
        let plan = FaultPlan::none().drop_heartbeat(0, 1).stale_epoch(0, 0);
        let log = Arc::new(FaultLog::new());
        let cfg = StoreConfig::unthrottled(1).with_faults(plan);
        let h = spawn_worker(0, &cfg, Arc::clone(&log), None);
        // Ping 0 answers normally.
        assert_eq!(call(&h, Request::Ping).pong_epoch().unwrap(), (0, 0));
        // Ping 1 is swallowed: the probe *times out* (sender stays alive
        // → no disconnect), modelling a lost heartbeat, not a death.
        let rx = submit(&h, Request::Ping);
        assert!(
            rx.recv_timeout(Duration::from_millis(40)).is_err(),
            "swallowed ping must not be answered"
        );
        // Ping 2 answers again — the worker is alive throughout.
        assert_eq!(call(&h, Request::Ping).pong_epoch().unwrap(), (0, 0));
        // Data op 0 bounces with StaleEpochDelivery; the ping counter
        // and op counter are independent streams.
        assert_eq!(
            get(&h, PartKey::new(9, 9)),
            Err(StoreError::StaleEpoch(0))
        );
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap
            .iter()
            .any(|r| r.action == FaultAction::DropHeartbeat && r.op == 1));
        assert!(snap
            .iter()
            .any(|r| r.action == FaultAction::StaleEpochDelivery && r.op == 0));
    }

    fn budgeted(budget: usize) -> WorkerHandle {
        let cfg = StoreConfig::unthrottled(1).with_memory_budget(Some(budget));
        spawn_worker(0, &cfg, Arc::new(FaultLog::new()), None)
    }

    #[test]
    fn budget_evicts_cold_partitions_and_reads_reload_them() {
        let h = budgeted(100);
        put(&h, PartKey::new(1, 0), &[1u8; 50]);
        put(&h, PartKey::new(1, 1), &[2u8; 50]);
        // Third partition overflows the budget: the coldest (1,0) spills.
        put(&h, PartKey::new(1, 2), &[3u8; 50]);
        let s = stats(&h);
        assert_eq!(s.resident_parts, 2);
        assert!(s.resident_bytes <= 100, "over budget: {}", s.resident_bytes);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.spilled_bytes, 50);
        // Eviction is a performance event, not a correctness event: the
        // evicted partition reads back byte-identical via reload...
        assert_eq!(get(&h, PartKey::new(1, 0)).unwrap().as_ref(), &[1u8; 50]);
        let s = stats(&h);
        assert_eq!(s.reloaded_bytes, 50);
        // ...and the reload cascaded an eviction to stay under budget.
        assert!(s.resident_bytes <= 100);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn evicting_a_clean_reloaded_partition_writes_nothing_back() {
        let h = budgeted(100);
        put(&h, PartKey::new(1, 0), &[1u8; 50]);
        put(&h, PartKey::new(1, 1), &[2u8; 50]);
        put(&h, PartKey::new(1, 2), &[3u8; 50]); // evicts (1,0) → spill
        assert_eq!(get(&h, PartKey::new(1, 0)).unwrap().as_ref(), &[1u8; 50]);
        let spilled_after_reload = stats(&h).spilled_bytes;
        // (1,0) is back, clean, and its spill copy still valid. Fill the
        // budget until (1,0) falls out again: no second writeback — the
        // bytes are already in the spill tier.
        put(&h, PartKey::new(1, 3), &[4u8; 50]);
        put(&h, PartKey::new(1, 4), &[5u8; 50]);
        let s = stats(&h);
        assert_eq!(
            s.spilled_bytes,
            spilled_after_reload + 50,
            "only the never-spilled victim pays a writeback; the clean \
             reload drops free"
        );
        // And the free-dropped partition still reads back byte-exact.
        assert_eq!(get(&h, PartKey::new(1, 0)).unwrap().as_ref(), &[1u8; 50]);
        // A fresh Put invalidates the clean flag: its next eviction
        // must write back again.
        put(&h, PartKey::new(1, 0), &[9u8; 50]);
        let base = stats(&h).spilled_bytes;
        put(&h, PartKey::new(1, 5), &[6u8; 50]);
        put(&h, PartKey::new(1, 6), &[7u8; 50]);
        let s = stats(&h);
        assert!(
            s.spilled_bytes > base,
            "overwritten partition lost its clean flag and must spill"
        );
        assert_eq!(get(&h, PartKey::new(1, 0)).unwrap().as_ref(), &[9u8; 50]);
    }

    #[test]
    fn eviction_is_a_free_drop_under_a_whole_file_checkpoint() {
        let under = Arc::new(UnderStore::new());
        under.persist(1, Bytes::copy_from_slice(&[9u8; 100]));
        let h = spawn_worker(
            0,
            &StoreConfig::unthrottled(1).with_memory_budget(Some(100)),
            Arc::new(FaultLog::new()),
            Some(Arc::clone(&under)),
        );
        put(&h, PartKey::new(1, 0), &[1u8; 60]);
        put(&h, PartKey::new(1, 1), &[2u8; 60]);
        let s = stats(&h);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.spilled_bytes, 0, "checkpointed file spills nothing");
        assert_eq!(under.spilled(), (0, 0));
        // The dropped partition is gone from this worker — the client's
        // heal path recovers it from the checkpoint.
        assert_eq!(
            get(&h, PartKey::new(1, 0)),
            Err(StoreError::NotFound(PartKey::new(1, 0)))
        );
    }

    /// A sum-fenced `Get` is served only by a copy recorded under its
    /// sum: through eviction, spill, reload and rename, never by another
    /// copy or a copy recorded under none.
    #[test]
    fn a_sum_fenced_get_is_served_only_under_its_sum() {
        let under = Arc::new(UnderStore::new());
        let h = spawn_worker(
            0,
            &StoreConfig::unthrottled(1).with_memory_budget(Some(100)),
            Arc::new(FaultLog::new()),
            Some(Arc::clone(&under)),
        );
        let (a, b) = (PartKey::new(1, 0), PartKey::new(1, 1));
        let fenced = |key, sum| {
            call(&h, Request::Get { key }.stamped(Stamp { expect: sum, ..Stamp::default() }))
                .bytes()
        };
        let (old, new) = ([1u8; 60], [2u8; 60]);
        let (old_sum, new_sum) = (spcache_integrity::sum(&old), spcache_integrity::sum(&new));
        put_summed(&h, a, &old);
        assert_eq!(fenced(a, old_sum).unwrap().as_ref(), &old);
        // The same length under another sum is another partition.
        assert_eq!(fenced(a, new_sum), Err(StoreError::StalePlacement(a)));
        // No copy at all is still the usual answer.
        assert_eq!(fenced(b, old_sum), Err(StoreError::NotFound(b)));
        // Evicted to the spill area and reloaded: the sum stays with it.
        put_summed(&h, b, &new);
        assert_eq!(stats(&h).evictions, 1);
        assert_eq!(fenced(a, new_sum), Err(StoreError::StalePlacement(a)));
        assert_eq!(fenced(a, old_sum).unwrap().as_ref(), &old);
        // A rename carries it; the old name has no copy left.
        let to = PartKey::new(1, 2);
        assert!(call(&h, Request::Rename { from: a, to }).flag().unwrap());
        assert_eq!(fenced(to, old_sum).unwrap().as_ref(), &old);
        assert_eq!(fenced(a, old_sum), Err(StoreError::NotFound(a)));
        // A copy recorded under no sum never serves a fenced read, and
        // an unfenced Get is served as ever.
        put(&h, to, &new);
        assert_eq!(fenced(to, new_sum), Err(StoreError::StalePlacement(to)));
        assert_eq!(get(&h, to).unwrap().as_ref(), &new);
    }

    #[test]
    fn oversized_partition_spills_straight_through_and_still_reads() {
        let h = budgeted(10);
        put(&h, PartKey::new(1, 0), &[7u8; 100]);
        let s = stats(&h);
        assert_eq!(s.resident_parts, 0);
        assert_eq!(s.spilled_bytes, 100);
        assert_eq!(get(&h, PartKey::new(1, 0)).unwrap().as_ref(), &[7u8; 100]);
    }

    #[test]
    fn rename_and_delete_follow_spilled_partitions() {
        let h = budgeted(100);
        let staged = PartKey::new(1, 0).staged();
        put(&h, staged, &[1u8; 60]);
        // Evict the staged partition before its commit arrives.
        put(&h, PartKey::new(2, 0), &[2u8; 60]);
        assert_eq!(stats(&h).evictions, 1);
        // Commit still lands: the rename chases the spill tier.
        assert!(call(
            &h,
            Request::Rename {
                from: staged,
                to: PartKey::new(1, 0)
            }
        )
        .flag()
        .unwrap());
        assert_eq!(get(&h, PartKey::new(1, 0)).unwrap().as_ref(), &[1u8; 60]);
        // Delete reaches spilled copies too.
        put(&h, PartKey::new(3, 0), &[3u8; 90]); // evict (1,0) again
        assert!(call(&h, Request::Delete { key: PartKey::new(1, 0) })
            .flag()
            .unwrap());
        assert!(get(&h, PartKey::new(1, 0)).is_err());
    }

    #[test]
    fn background_requests_pay_the_background_bucket() {
        let cfg = StoreConfig::throttled(1, 10e6).with_background_fraction(0.25);
        let h = spawn_worker(0, &cfg, Arc::new(FaultLog::new()), None);
        let background = Stamp { class: TrafficClass::Background, ..Stamp::default() };
        call(
            &h,
            Request::Put {
                key: PartKey::new(1, 0),
                data: Bytes::from(vec![0u8; 1_000_000]),
                sum: 0,
            }
            .stamped(background),
        )
        .unit()
        .unwrap();
        // 1 MB of background at 25% of 10 MB/s ≈ 400 ms.
        let t0 = std::time::Instant::now();
        let got = call(&h, Request::Get { key: PartKey::new(1, 0) }.stamped(background))
            .bytes()
            .unwrap();
        assert_eq!(got.len(), 1_000_000);
        assert!(t0.elapsed().as_secs_f64() >= 0.35);
        let s = stats(&h);
        assert_eq!(s.bytes_background, 2_000_000);
    }

    #[test]
    fn transfer_cap_refuses_instead_of_outliving_the_deadline() {
        let h = plain(4, 100e3);
        // A 1 MB put at 100 kB/s projects a ~10 s wait, past the 5 s
        // executor deadline: refused promptly.
        let t0 = std::time::Instant::now();
        let reply = call(
            &h,
            Request::Put {
                key: PartKey::new(1, 0),
                data: Bytes::from(vec![0u8; 1_000_000]),
                sum: 0,
            },
        );
        assert_eq!(reply, Reply::Err(StoreError::Timeout(4)));
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "refusal must not sleep out the transfer"
        );
        // The refused bytes were never stored or charged: small
        // transfers still flow.
        put(&h, PartKey::new(1, 1), &[0u8; 10_000]);
        assert_eq!(get(&h, PartKey::new(1, 1)).unwrap().len(), 10_000);
    }

    #[test]
    fn verified_get_converts_a_bitflip_into_an_erasure() {
        let key = PartKey::new(7, 0);
        let plan = FaultPlan::none().corrupt(0, 1, key, CorruptSite::Resident, 3);
        let log = Arc::new(FaultLog::new());
        let h = spawn_worker(
            0,
            &StoreConfig::unthrottled(1).with_faults(plan).with_verify_reads(true),
            Arc::clone(&log),
            None,
        );
        let truth = [5u8; 256];
        put_summed(&h, key, &truth); // op 0
        // Op 1 flips a resident byte before serving: the read must come
        // back as a typed erasure, never as wrong bytes.
        assert_eq!(get(&h, key), Err(StoreError::Corrupt(key)));
        // Every local copy was dropped with the detection, and the key
        // keeps reading as a typed erasure (not NotFound) until fresh
        // bytes re-land — readers racing the repair still see Corrupt.
        assert_eq!(get(&h, key), Err(StoreError::Corrupt(key)));
        let s = stats(&h);
        assert_eq!(s.corruptions_detected, 1);
        assert_eq!(s.decode_reconstructions, 0);
        // A reconstruction re-landing on the erased key counts, and the
        // key serves clean again.
        put_summed(&h, key, &truth);
        assert_eq!(get(&h, key).unwrap().as_ref(), &truth[..]);
        let s = stats(&h);
        assert_eq!(s.decode_reconstructions, 1);
        assert_eq!(s.corruptions_detected, 1);
    }

    #[test]
    fn spill_reload_verifies_even_without_verify_reads() {
        // The reload path must never trust under-store bytes
        // unconditionally — verification there is NOT gated on the
        // verify_reads knob.
        let key = PartKey::new(1, 0);
        let plan = FaultPlan::none().corrupt(0, 3, key, CorruptSite::Spill, 10);
        let log = Arc::new(FaultLog::new());
        let h = spawn_worker(
            0,
            &StoreConfig::unthrottled(1).with_faults(plan).with_memory_budget(Some(100)),
            Arc::clone(&log),
            None,
        );
        put_summed(&h, key, &[1u8; 50]); // op 0
        put_summed(&h, PartKey::new(1, 1), &[2u8; 50]); // op 1
        put_summed(&h, PartKey::new(1, 2), &[3u8; 50]); // op 2: evicts key
        assert_eq!(stats(&h).evictions, 1);
        // Op 3 rots the spilled copy, then the read reloads it: the
        // mismatch erases the partition instead of re-admitting it.
        assert_eq!(get(&h, key), Err(StoreError::Corrupt(key)));
        let s = stats(&h);
        assert_eq!(s.corruptions_detected, 1);
        // The erasure mark outlives the dropped copies.
        assert_eq!(get(&h, key), Err(StoreError::Corrupt(key)));
    }

    #[test]
    fn wire_corruption_flips_the_reply_copy_not_the_store() {
        let key = PartKey::new(2, 0);
        let plan = FaultPlan::none().corrupt(0, 1, key, CorruptSite::Wire, 4);
        let log = Arc::new(FaultLog::new());
        let h = spawn_worker(
            0,
            &StoreConfig::unthrottled(1).with_faults(plan).with_verify_reads(true),
            Arc::clone(&log),
            None,
        );
        let truth = [9u8; 64];
        put_summed(&h, key, &truth); // op 0
        // Op 1: the worker's own verification passes (the store is
        // clean), but the reply leaves with byte 4 inverted — only the
        // client-side checksum can catch this flavour.
        let got = get(&h, key).unwrap();
        let mut expect = truth;
        expect[4] ^= 0xFF;
        assert_eq!(got.as_ref(), &expect[..]);
        // The stored bytes were never touched: the next read is clean
        // and nothing was counted as a local detection.
        assert_eq!(get(&h, key).unwrap().as_ref(), &truth[..]);
        assert_eq!(stats(&h).corruptions_detected, 0);
    }

    #[test]
    fn parity_puts_count_parity_bytes_and_serve_via_get_parity() {
        let h = plain(0, f64::INFINITY);
        let pkey = PartKey::parity(3, 0);
        put_summed(&h, pkey, &[8u8; 200]);
        put_summed(&h, PartKey::new(3, 0), &[1u8; 100]);
        let s = stats(&h);
        assert_eq!(s.parity_bytes, 200, "only the parity put counts");
        assert_eq!(s.bytes_stored, 300);
        let got = call(&h, Request::GetParity { key: pkey }).bytes().unwrap();
        assert_eq!(got.as_ref(), &[8u8; 200]);
    }

    #[test]
    fn unverified_puts_clear_a_stale_checksum() {
        // A maintenance rewrite (sum: 0) over a partition that carried a
        // checksum must drop the old sum — otherwise the fresh bytes
        // would fail verification against the stale one.
        let key = PartKey::new(4, 0);
        let plan = FaultPlan::none().corrupt(0, 2, key, CorruptSite::Resident, 0);
        let log = Arc::new(FaultLog::new());
        let h = spawn_worker(
            0,
            &StoreConfig::unthrottled(1).with_faults(plan).with_verify_reads(true),
            Arc::clone(&log),
            None,
        );
        put_summed(&h, key, b"checksummed"); // op 0
        put(&h, key, b"maintenance rewrite"); // op 1: sum 0 clears it
        // Op 2 corrupts the resident copy, but with no checksum on file
        // the worker cannot tell — unverified partitions pass through.
        let got = get(&h, key).unwrap();
        assert_ne!(got.as_ref(), b"maintenance rewrite");
        assert_eq!(stats(&h).corruptions_detected, 0);
    }
}
