//! The metadata plane as pure data: [`MetaRequest`] in, [`MetaReply`]
//! out, through one [`MetaService::call`].
//!
//! This is the master's counterpart of [`crate::rpc`]'s
//! `Request`/`Reply`: the same enum crosses an in-process call
//! (`Master`'s `call`) or is framed onto a socket by `spcache-net`'s
//! master protocol without translation. Every typed method a caller
//! uses — `locate`, `register`, `suspect`, ... — is a provided method
//! of the trait over `call`, written once here together with its
//! answer when the reply is not the one it asked for (an unreachable
//! master, a redirect, an error).
//!
//! Both enums are [`crate::codec`] tables: each row names its opcode
//! (requests `0x81..`, replies `0xC1..`, disjoint from the data plane's)
//! and its fields' shapes, which is its layout on the wire
//! (DESIGN.md §4.10).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::codec::{Rest, Usize32};
use crate::metalog::FileIntegrity;
use crate::rpc::{StoreError, MASTER_ENDPOINT};

// The meta plane: one row per message, naming its opcode and its fields'
// shapes in wire order.
wire! {
    /// One metadata request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum MetaRequest else "unknown meta request opcode {:#04x}" {
        /// `MetaService::register`.
        Register {
            /// File id.
            id: u64,
            /// File size in bytes.
            size: u64,
            /// Placement (one server per partition).
            servers: Vec<usize> as Vec<Usize32>,
        } = 0x81,
        /// `MetaService::unregister_file`.
        Unregister {
            /// File id.
            id: u64,
        } = 0x82,
        /// `MetaService::locate` (counts an access).
        Locate {
            /// File id.
            id: u64,
        } = 0x83,
        /// `MetaService::peek` (no access count).
        Peek {
            /// File id.
            id: u64,
        } = 0x84,
        /// `MetaService::apply_placement`.
        ApplyPlacement {
            /// File id.
            id: u64,
            /// New placement.
            servers: Vec<usize> as Vec<Usize32>,
        } = 0x85,
        /// `MetaService::mark_alive`.
        MarkAlive {
            /// Worker index.
            w: u64,
        } = 0x86,
        /// `MetaService::mark_dead`.
        MarkDead {
            /// Worker index.
            w: u64,
        } = 0x87,
        /// `MetaService::suspect`.
        Suspect {
            /// Worker index.
            w: u64,
        } = 0x88,
        /// `MetaService::is_alive`.
        IsAlive {
            /// Worker index.
            w: u64,
        } = 0x89,
        /// `MetaService::live_workers`.
        LiveWorkers {
            /// Fleet size.
            n: u64,
        } = 0x8A,
        /// `MetaService::degraded_files`.
        Degraded = 0x8B,
        /// Plan a rebalance (Algorithm 1 + 2) and execute it over the
        /// master's worker transport. Only a master *server* owns one; an
        /// in-process master refuses it.
        Rebalance {
            /// Per-worker NIC bandwidth, bytes/s.
            bandwidth: f64,
            /// Total arrival rate for the tuner.
            lambda: f64,
            /// Partition-placement RNG seed.
            seed: u64,
        } = 0x8C,
        /// `MetaService::worker_epochs`.
        WorkerEpochs {
            /// Fleet size.
            n: u64,
        } = 0x8E,
        /// `MetaService::register_worker` (the crash-restart rejoin path).
        RegisterWorker {
            /// Worker index.
            w: u64,
        } = 0x8F,
        /// `MetaService::begin_repair`.
        BeginRepair {
            /// File id.
            id: u64,
        } = 0x90,
        /// `MetaService::end_repair`.
        EndRepair {
            /// File id.
            id: u64,
        } = 0x91,
        /// Liveness/authority probe: master epoch, active-vs-fenced flag,
        /// file count and journal head. Served even by a fenced master (a
        /// standby polls it to measure lag and detect death).
        Status = 0x92,
        /// Stream every journalled metadata op with `lsn >= from` — the
        /// standby's replication pull (§4.14).
        LogTail {
            /// First LSN the caller has not yet applied.
            from: u64,
        } = 0x93,
        /// A successor announces it has taken over at `epoch`; the receiver
        /// fences itself and redirects future callers to `addr`.
        Takeover {
            /// The successor's (higher) master epoch.
            epoch: u64,
            /// The successor's listen address, `host:port`.
            addr: String,
        } = 0x94,
        /// `MetaService::register_batch`: one metadata round-trip
        /// registering a whole chunk of `(id, size, servers)` rows — the
        /// million-file seeding path.
        RegisterBatch {
            /// The rows, in registration order.
            entries: Vec<(u64, u64, Vec<usize>)> as Vec<(u64, u64, Vec<Usize32>)>,
        } = 0x95,
        /// `MetaService::set_integrity` (§4.15): record or clear a file's
        /// checksum + parity row.
        SetIntegrity {
            /// File id.
            id: u64,
            /// The row (empty = clear).
            integrity: FileIntegrity,
        } = 0x96,
        /// `MetaService::integrity`: fetch a file's integrity row.
        Integrity {
            /// File id.
            id: u64,
        } = 0x97,
        /// `MetaService::report_accesses`: the access counts of a client's
        /// cached reads, one call per batch.
        ReportAccesses {
            /// `(file id, reads)` rows.
            counts: Vec<(u64, u64)>,
        } = 0x98,
        /// Stop the master server.
        Shutdown = 0x8D,
    }

    /// One metadata reply.
    #[derive(Debug, Clone, PartialEq)]
    pub enum MetaReply else "unknown meta reply opcode {:#04x}" {
        /// Success without payload.
        Done = 0xC1,
        /// `(size, servers)` lookup result.
        Info {
            /// File size in bytes.
            size: u64,
            /// Placement.
            servers: Vec<usize> as Vec<Usize32>,
        } = 0xC2,
        /// Optional `(size, servers)` (unregister of a possibly-unknown id).
        Maybe(row: Option<(u64, Vec<usize>)> as Option<(u64, Vec<Usize32>)>) = 0xC3,
        /// Suspicion count.
        Count(n: u32) = 0xC4,
        /// Boolean outcome.
        Flag(flag: bool) = 0xC5,
        /// Worker-index list.
        Workers(live: Vec<usize> as Vec<Usize32>) = 0xC6,
        /// File-id list.
        Files(ids: Vec<u64>) = 0xC7,
        /// Fencing epoch table.
        Epochs(epochs: Vec<u64>) = 0xCA,
        /// One granted fencing epoch.
        Epoch(epoch: u64) = 0xCB,
        /// Rebalance outcome: `(files_repartitioned, skipped_file_ids)`.
        Rebalanced {
            /// Number of files the plan moved.
            moved: u64,
            /// Files skipped because a worker was unavailable.
            skipped: Vec<u64>,
        } = 0xC8,
        /// The receiver is a fenced (deposed) master: retry against `to`
        /// (empty when the successor is unknown — the caller must
        /// rediscover the master out of band).
        Redirect {
            /// The successor's listen address, `host:port`.
            to: String,
        } = 0xCC,
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
        } = 0xCD,
        /// `LogTail` result: raw journal record bytes (the standby decodes
        /// them with [`crate::metalog::decode_records`]).
        Log {
            /// First LSN **after** the returned records — the `from` of the
            /// next poll.
            next_lsn: u64,
            /// Concatenated wire records, oldest first.
            bytes: Vec<u8> as Rest,
        } = 0xCE,
        /// `Integrity` result: the row, when one is recorded.
        IntegrityRow(row: Option<FileIntegrity>) = 0xCF,
        /// The request failed.
        Err(e: StoreError) = 0xC9,
    }
}

impl MetaReply {
    /// The reply as a result: [`MetaReply::Err`] is its error, and a
    /// [`MetaReply::Redirect`] that reached the caller (an in-process
    /// fenced master, or a wire client out of hops) is
    /// [`StoreError::Io`] against [`MASTER_ENDPOINT`] — the master this
    /// caller knows no longer serves.
    ///
    /// # Errors
    ///
    /// As above.
    pub fn into_result(self) -> Result<MetaReply, StoreError> {
        match self {
            MetaReply::Err(e) => Err(e),
            MetaReply::Redirect { .. } => Err(StoreError::Io(MASTER_ENDPOINT)),
            reply => Ok(reply),
        }
    }

    /// The error for a reply of the wrong shape.
    pub fn unexpected(&self) -> StoreError {
        StoreError::Codec(format!("unexpected reply {self:?}"))
    }

    /// The answer to a call that replies [`MetaReply::Done`].
    ///
    /// # Errors
    ///
    /// See [`MetaReply::into_result`]; [`StoreError::Codec`] for any
    /// other reply.
    pub fn expect_done(self) -> Result<(), StoreError> {
        match self.into_result()? {
            MetaReply::Done => Ok(()),
            other => Err(other.unexpected()),
        }
    }

    /// The `(size, servers)` of a call that replies
    /// [`MetaReply::Info`].
    ///
    /// # Errors
    ///
    /// See [`MetaReply::expect_done`].
    pub fn expect_info(self) -> Result<(usize, Vec<usize>), StoreError> {
        match self.into_result()? {
            MetaReply::Info { size, servers } => Ok((size as usize, servers)),
            other => Err(other.unexpected()),
        }
    }
}

/// The metadata-plane surface a client needs from its master: file
/// registration and lookup, placement swaps, and worker-health
/// reporting.
///
/// Its one required method is [`MetaService::call`]. Two services
/// implement it: `Master` itself (the in-process metadata service, also
/// what a master *server* serves) and `spcache_net::MasterClient` (the
/// same call framed onto a TCP connection). Every typed method below is
/// provided over `call`, so the client and the under-store recovery
/// path are written against one trait and work identically in both
/// deployments.
///
/// Health reports are best-effort: a method without an error channel
/// answers as documented when the master cannot be reached, rather
/// than failing the data path that made the report.
pub trait MetaService: Send + Sync + std::fmt::Debug {
    /// Serves one metadata request.
    fn call(&self, req: MetaRequest) -> MetaReply;

    /// The master epoch this service acts under. 0 means "unstamped" —
    /// workers skip the master-staleness check, the pre-§4.14 wire
    /// behaviour. A local answer, never a call: the fork-join engine
    /// reads it once per stamped batch. Only services that act *for* a
    /// master (the in-process one) override it.
    fn master_epoch(&self) -> u64 {
        0
    }

    /// Registers a new file (see `Master::register`).
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] if the id is taken; transport
    /// errors over the wire.
    fn register(&self, id: u64, size: usize, servers: Vec<usize>) -> Result<(), StoreError> {
        self.call(MetaRequest::Register {
            id,
            size: size as u64,
            servers,
        })
        .expect_done()
    }

    /// Removes a file's metadata, returning its former `(size, servers)`
    /// if it was registered (`None` too when the master cannot answer).
    fn unregister_file(&self, id: u64) -> Option<(usize, Vec<usize>)> {
        match self.call(MetaRequest::Unregister { id }) {
            MetaReply::Maybe(row) => row.map(|(size, servers)| (size as usize, servers)),
            _ => None,
        }
    }

    /// Looks up `(size, servers)`, counting an access.
    ///
    /// The read path calls this only when its client has no cached
    /// placement for the file: a read served from the cache makes no
    /// master call, and its access reaches the master later through
    /// [`MetaService::report_accesses`]. Either way a read is counted
    /// exactly once.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownFile`]; transport errors over the wire.
    fn locate(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        self.call(MetaRequest::Locate { id }).expect_info()
    }

    /// Looks up `(size, servers)` without counting an access.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownFile`]; transport errors over the wire.
    fn peek(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        self.call(MetaRequest::Peek { id }).expect_info()
    }

    /// Atomically installs a new placement for `id`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownFile`]; transport errors over the wire.
    fn apply_placement(&self, id: u64, servers: Vec<usize>) -> Result<(), StoreError> {
        self.call(MetaRequest::ApplyPlacement { id, servers })
            .expect_done()
    }

    /// Reports a sign of life from worker `w`. Only the supervisor's
    /// epoch-checked probe does (DESIGN.md §4.7).
    fn mark_alive(&self, w: usize) {
        self.call(MetaRequest::MarkAlive { w: w as u64 });
    }

    /// Declares worker `w` dead.
    fn mark_dead(&self, w: usize) {
        self.call(MetaRequest::MarkDead { w: w as u64 });
    }

    /// Reports a timeout against worker `w`; returns the suspicion
    /// count (0 when the report could not be delivered).
    fn suspect(&self, w: usize) -> u32 {
        match self.call(MetaRequest::Suspect { w: w as u64 }) {
            MetaReply::Count(n) => n,
            _ => 0,
        }
    }

    /// Whether worker `w` is believed alive. An unreachable master
    /// answers `true`: the data path discovers the truth, rather than
    /// spuriously excluding healthy workers.
    fn is_alive(&self, w: usize) -> bool {
        match self.call(MetaRequest::IsAlive { w: w as u64 }) {
            MetaReply::Flag(alive) => alive,
            _ => true,
        }
    }

    /// The live subset of workers `0..n`, ascending (all of them when
    /// the master cannot answer).
    fn live_workers(&self, n: usize) -> Vec<usize> {
        match self.call(MetaRequest::LiveWorkers { n: n as u64 }) {
            MetaReply::Workers(live) => live,
            _ => (0..n).collect(),
        }
    }

    /// Files with at least one partition on a dead worker (none known
    /// when the master cannot answer).
    fn degraded_files(&self) -> Vec<u64> {
        match self.call(MetaRequest::Degraded) {
            MetaReply::Files(files) => files,
            _ => Vec::new(),
        }
    }

    /// The fencing epoch table for workers `0..n` (0 = unregistered).
    /// An unreachable master answers an empty table, which means
    /// "unknown — do not fence": clients keep serving instead of
    /// bouncing everything on a guessed epoch.
    fn worker_epochs(&self, n: usize) -> Vec<u64> {
        match self.call(MetaRequest::WorkerEpochs { n: n as u64 }) {
            MetaReply::Epochs(epochs) => epochs,
            _ => Vec::new(),
        }
    }

    /// Grants worker `w` a fresh fencing epoch and revives it (the
    /// rejoin path). Returns the granted epoch, or 0 — never a granted
    /// epoch — when the grant could not be made, so the caller (the
    /// supervisor) retries next tick.
    fn register_worker(&self, w: usize) -> u64 {
        match self.call(MetaRequest::RegisterWorker { w: w as u64 }) {
            MetaReply::Epoch(epoch) => epoch,
            _ => 0,
        }
    }

    /// Tries to acquire the repair slot for file `id` (sweep/lazy
    /// dedup). `false` = a repair is already in flight, do not heal. An
    /// unreachable master answers `true`: availability over strict
    /// dedup, since the heal may be what ends the outage.
    fn begin_repair(&self, id: u64) -> bool {
        match self.call(MetaRequest::BeginRepair { id }) {
            MetaReply::Flag(acquired) => acquired,
            _ => true,
        }
    }

    /// Releases the repair slot for file `id`.
    fn end_repair(&self, id: u64) {
        self.call(MetaRequest::EndRepair { id });
    }

    /// Registers a batch of `(id, size, servers)` files in one call —
    /// the streaming seed path.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] on a duplicate id; transport
    /// errors over the wire.
    fn register_batch(&self, entries: &[(u64, usize, Vec<usize>)]) -> Result<(), StoreError> {
        let entries = entries
            .iter()
            .map(|(id, size, servers)| (*id, *size as u64, servers.clone()))
            .collect();
        self.call(MetaRequest::RegisterBatch { entries })
            .expect_done()
    }

    /// Installs file `id`'s integrity row (checksums + parity
    /// placement).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownFile`]; transport errors over the wire.
    fn set_integrity(&self, id: u64, integrity: FileIntegrity) -> Result<(), StoreError> {
        self.call(MetaRequest::SetIntegrity { id, integrity })
            .expect_done()
    }

    /// File `id`'s integrity row, `None` when absent/invalidated — and,
    /// availability-biased, when the service cannot answer: readers
    /// degrade to unverified rather than fail (the worker and framing
    /// checks still hold).
    fn integrity(&self, id: u64) -> Option<FileIntegrity> {
        match self.call(MetaRequest::Integrity { id }) {
            MetaReply::IntegrityRow(row) => row,
            _ => None,
        }
    }

    /// Adds a batch of `(file, reads)` access counts: the reads a client
    /// served from its cached placements since its last report.
    /// Best-effort, like the health reports: counts for unknown files,
    /// and a batch the service cannot deliver, are dropped.
    fn report_accesses(&self, counts: &[(u64, u64)]) {
        self.call(MetaRequest::ReportAccesses {
            counts: counts.to_vec(),
        });
    }
}
