//! The SP-Master: file metadata, access counting and rebalance planning.
//!
//! Every transition of the replicated state runs one path
//! (`Master::try_mutate`): a pure *decide* over the current `State`
//! names the transition as a [`MetaOp`] (or `None`, when nothing would
//! change), the op is appended to the journal, and `State::apply`
//! makes it. Replay ([`Master::apply_op`]) calls the same `apply`, so a
//! master rebuilt from its journal is the master that wrote it.
//!
//! Its interface is one call ([`MetaService::call`], `crate::meta`):
//! `Master::serve` is the one dispatch from a [`MetaRequest`] to the
//! methods below, for in-process callers and the wire server alike.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use spcache_core::file::{FileMeta, FileSet};
use spcache_core::partition::PartitionMap;
use spcache_core::repartition::{plan_repartition, RepartitionPlan};
use spcache_core::tuner::{tune_scale_factor_hetero, Tuned, TunerConfig};
use spcache_sim::Xoshiro256StarStar;

use crate::forkjoin::empty_placement;
pub use crate::meta::MetaService;
use crate::meta::{MetaReply, MetaRequest};
use crate::metalog::{FileIntegrity, MasterImage, MetaLog, MetaOp};
use crate::repartitioner::substitute;
use crate::rpc::{StoreError, MASTER_ENDPOINT};

/// Metadata for one stored file.
#[derive(Debug)]
pub struct FileInfo {
    /// File size in bytes.
    pub size: usize,
    /// Workers holding partition `j` at index `j`.
    pub servers: Vec<usize>,
    /// Access counter, bumped on every read (popularity tracking, §6.1).
    pub accesses: AtomicU64,
    /// Placement version: 1 at registration, bumped on every
    /// [`Master::apply_placement`]. Recovery sweeps capture it when
    /// they enumerate degraded files and skip any file whose version
    /// moved by heal time — a concurrent heal, repartition commit or
    /// eviction-reload already re-placed the bytes, and
    /// re-materializing from the stale snapshot would resurrect
    /// partitions the newer placement dropped.
    pub version: u64,
}

impl FileInfo {
    fn new(size: u64, servers: Vec<usize>, version: u64) -> Self {
        FileInfo {
            size: size as usize,
            servers,
            accesses: AtomicU64::new(0),
            version,
        }
    }

    /// Partition count `k`.
    pub fn k(&self) -> usize {
        self.servers.len()
    }
}

/// Timeouts after which a suspected worker is declared dead (see
/// [`Master::suspect`]); only a probe that finds it alive resets the
/// count.
pub const SUSPICION_THRESHOLD: u32 = 3;

/// The largest fleet the master keeps health rows for. Rows are sized
/// on demand, so a call naming a worker at or past this bound (or a
/// larger fleet) is refused rather than allocated for.
pub const MAX_WORKERS: usize = 1 << 16;

/// One worker's replicated health row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Health {
    /// Whether the worker is believed up.
    alive: bool,
    /// Timeouts reported since the supervisor's probe last found the
    /// worker alive (or re-registered it).
    suspicion: u32,
    /// Fencing epoch. 0 = never registered. Bumped once on every
    /// alive→dead transition and once more at each registration, so a
    /// worker's pre-crash epoch can never equal any epoch granted after
    /// its death.
    epoch: u64,
}

impl Default for Health {
    /// A worker the master has never heard about: presumed alive.
    fn default() -> Self {
        Health {
            alive: true,
            suspicion: 0,
            epoch: 0,
        }
    }
}

/// The master's replicated state: exactly what a [`MasterImage`]
/// holds, in lookup form. [`State::apply`] is the only code that writes
/// it, on the live path and on replay alike.
#[derive(Debug)]
struct State {
    files: HashMap<u64, FileInfo>,
    /// Per-file integrity rows (DESIGN.md §4.15): data-partition
    /// checksums plus parity placement. Cleared whenever the placement
    /// changes shape — a re-split invalidates every sum.
    integrity: HashMap<u64, FileIntegrity>,
    /// Health row per worker; workers past the end read as
    /// [`Health::default`].
    health: Vec<Health>,
    /// Files whose under-store repair is currently in flight — the
    /// sweep/lazy-repair dedup registry (DESIGN.md §4.11).
    repairing: BTreeSet<u64>,
    /// The master epoch (DESIGN.md §4.14): bumped on every takeover,
    /// carried in request stamps (`Stamp::master`) so workers bounce a
    /// deposed master's writes the way they bounce stale workers.
    master_epoch: u64,
    /// Listen address of the master that owns `master_epoch` ("" when
    /// unknown) — a restarted master replaying a journal whose newest
    /// epoch belongs to a *different* address starts fenced.
    owner_addr: String,
}

impl Default for State {
    fn default() -> Self {
        State {
            files: HashMap::new(),
            integrity: HashMap::new(),
            health: Vec::new(),
            repairing: BTreeSet::new(),
            master_epoch: 1,
            owner_addr: String::new(),
        }
    }
}

impl State {
    fn worker(&self, w: usize) -> Health {
        self.health.get(w).copied().unwrap_or_default()
    }

    fn worker_mut(&mut self, w: u64) -> &mut Health {
        let w = w as usize;
        if self.health.len() <= w {
            self.health.resize(w + 1, Health::default());
        }
        &mut self.health[w]
    }

    /// Makes the transition `op` names. Ops carry absolute values, so
    /// applying one twice (or replaying any prefix twice) changes
    /// nothing the second time. Returns the file entry the op took out
    /// of the table, if any.
    fn apply(&mut self, op: &MetaOp) -> Option<FileInfo> {
        match op {
            MetaOp::RegisterFile { id, size, servers } => {
                // Overwrite, not error: replay after a snapshot that
                // already contains the file must converge, not fail.
                return self.files.insert(*id, FileInfo::new(*size, servers.clone(), 1));
            }
            MetaOp::UnregisterFile { id } => {
                self.integrity.remove(id);
                return self.files.remove(id);
            }
            MetaOp::ApplyPlacement { id, servers, version } => {
                if let Some(info) = self.files.get_mut(id) {
                    info.servers = servers.clone();
                    info.version = *version;
                }
                // A placement swap re-splits the bytes: every stored
                // checksum (and parity row) is invalidated. Writers that
                // know the fresh sums (recovery) re-set the row after.
                self.integrity.remove(id);
            }
            MetaOp::RegisterWorker { w, epoch } => {
                let h = self.worker_mut(*w);
                *h = Health {
                    alive: true,
                    suspicion: 0,
                    epoch: h.epoch.max(*epoch),
                };
            }
            MetaOp::MarkAlive { w } => {
                let h = self.worker_mut(*w);
                h.alive = true;
                h.suspicion = 0;
            }
            MetaOp::MarkDead { w, epoch } => {
                let h = self.worker_mut(*w);
                h.alive = false;
                h.epoch = h.epoch.max(*epoch);
            }
            MetaOp::Suspect { w, count, alive, epoch } => {
                let h = self.worker_mut(*w);
                *h = Health {
                    alive: *alive,
                    suspicion: *count,
                    epoch: h.epoch.max(*epoch),
                };
            }
            MetaOp::BeginRepair { id } => {
                self.repairing.insert(*id);
            }
            MetaOp::EndRepair { id } => {
                self.repairing.remove(id);
            }
            MetaOp::MasterEpoch { epoch, addr } => {
                if *epoch >= self.master_epoch {
                    self.master_epoch = *epoch;
                    self.owner_addr.clone_from(addr);
                }
            }
            MetaOp::SetIntegrity { id, integrity } => {
                if integrity.is_empty() {
                    self.integrity.remove(id);
                } else {
                    self.integrity.insert(*id, integrity.clone());
                }
            }
            MetaOp::Snapshot(img) => {
                let mut next = State::from(img);
                // Installing a snapshot never lowers the master epoch.
                if next.master_epoch < self.master_epoch {
                    next.master_epoch = self.master_epoch;
                    next.owner_addr = std::mem::take(&mut self.owner_addr);
                }
                *self = next;
            }
        }
        None
    }

    /// The state as a [`MasterImage`]: rows sorted by id, and trailing
    /// never-heard-of workers trimmed, so a replayed twin (which learns
    /// of workers only through ops) images identically to a master
    /// whose table grew further.
    fn image(&self) -> MasterImage {
        let mut files: Vec<(u64, u64, Vec<usize>, u64)> = self
            .files
            .iter()
            .map(|(&id, info)| (id, info.size as u64, info.servers.clone(), info.version))
            .collect();
        files.sort_unstable_by_key(|&(id, ..)| id);
        let mut integrity: Vec<(u64, FileIntegrity)> =
            self.integrity.iter().map(|(&id, row)| (id, row.clone())).collect();
        integrity.sort_unstable_by_key(|&(id, _)| id);
        let known = self
            .health
            .iter()
            .rposition(|h| *h != Health::default())
            .map_or(0, |last| last + 1);
        let health = &self.health[..known];
        MasterImage {
            files,
            alive: health.iter().map(|h| h.alive).collect(),
            suspicion: health.iter().map(|h| h.suspicion).collect(),
            epochs: health.iter().map(|h| h.epoch).collect(),
            repairing: self.repairing.iter().copied().collect(),
            master_epoch: self.master_epoch,
            master_addr: self.owner_addr.clone(),
            integrity,
        }
    }
}

/// The inverse of [`State::image`] (the snapshot install path).
impl From<&MasterImage> for State {
    fn from(img: &MasterImage) -> Self {
        State {
            files: img
                .files
                .iter()
                .map(|(id, size, servers, version)| {
                    (*id, FileInfo::new(*size, servers.clone(), *version))
                })
                .collect(),
            integrity: img.integrity.iter().cloned().collect(),
            health: img
                .alive
                .iter()
                .zip(&img.suspicion)
                .zip(&img.epochs)
                .map(|((&alive, &suspicion), &epoch)| Health {
                    alive,
                    suspicion,
                    epoch,
                })
                .collect(),
            repairing: img.repairing.iter().copied().collect(),
            master_epoch: img.master_epoch,
            owner_addr: img.master_addr.clone(),
        }
    }
}

/// What one transition hands back to the mutator that ran it.
struct Applied<'a> {
    /// The state after apply, still under the write guard.
    state: RwLockWriteGuard<'a, State>,
    /// Whether decide named a change (an op was committed and applied).
    changed: bool,
    /// The file entry the op took out of the table.
    removed: Option<FileInfo>,
}

/// The metadata service.
///
/// Thread-safe: every replicated field sits in one `State` behind one
/// lock. Readers ([`Master::locate`], [`Master::is_alive`], ...) share
/// it; every mutator takes it for write once, in `Master::try_mutate`,
/// for decide → commit → apply. Access counters
/// are relaxed atomics bumped under the read guard.
///
/// Besides file metadata the master tracks **worker health**: clients
/// and repartitioners report timeouts ([`Master::suspect`]) and closed
/// channels ([`Master::mark_dead`]), and every placement decision
/// ([`Master::plan_rebalance`], recovery target selection) draws only
/// from [`Master::live_workers`].
#[derive(Debug, Default)]
pub struct Master {
    state: RwLock<State>,
    /// Heartbeats (successful pings / replies) observed per worker.
    /// Observability only: never journalled, never imaged.
    last_seen: Mutex<Vec<u64>>,
    /// Every file id that ever acquired a repair slot, in acquisition
    /// order; tests derive per-file repair counts from this to assert
    /// zero duplicate heals. Replay-local like `last_seen`.
    repair_log: Mutex<Vec<u64>>,
    /// Set once a successor deposes this master; a fenced master serves
    /// only redirects.
    fenced: AtomicBool,
    /// The successor's advertised meta address, for redirect replies.
    successor: Mutex<Option<String>>,
    /// The write-ahead op-log, when durability is enabled
    /// ([`Master::enable_journal`]).
    journal: RwLock<Option<Arc<MetaLog>>>,
}

impl Master {
    /// An empty master.
    pub fn new() -> Self {
        Master::default()
    }

    /// The one mutation path. Under one write guard, `decide` validates
    /// against the current state and names the transition as an op with
    /// absolute values (`None`: nothing would change, and nothing is
    /// journalled); the op is appended to the journal, if one is
    /// attached, and then applied. Journal order is therefore apply
    /// order, and replay runs the very [`State::apply`] the live master
    /// ran.
    fn try_mutate<E>(
        &self,
        decide: impl FnOnce(&State) -> Result<Option<MetaOp>, E>,
    ) -> Result<Applied<'_>, E> {
        let mut state = self.state.write();
        let Some(op) = decide(&state)? else {
            return Ok(Applied {
                state,
                changed: false,
                removed: None,
            });
        };
        if let Some(log) = self.journal.read().as_ref() {
            log.append(&op);
        }
        let removed = state.apply(&op);
        Ok(Applied {
            state,
            changed: true,
            removed,
        })
    }

    /// [`Master::try_mutate`] for a transition that is never refused.
    fn mutate(&self, decide: impl FnOnce(&State) -> Option<MetaOp>) -> Applied<'_> {
        let Ok(applied) = self.try_mutate(|s| Ok::<_, Infallible>(decide(s)));
        applied
    }

    /// Attaches a write-ahead op-log: every subsequent mutation is
    /// journalled. Call after replaying the log's existing contents
    /// ([`Master::recover`] does both).
    pub fn enable_journal(&self, log: Arc<MetaLog>) {
        *self.journal.write() = Some(log);
    }

    /// Detaches the op-log: subsequent mutations are no longer
    /// journalled. The in-process stand-in for `kill -9` — a deposed
    /// master object kept around as a zombie must not keep appending to
    /// the shared meta tier its successor now owns.
    pub fn detach_journal(&self) {
        *self.journal.write() = None;
    }

    /// The attached op-log, if durability is enabled.
    pub fn journal_handle(&self) -> Option<Arc<MetaLog>> {
        self.journal.read().clone()
    }

    /// `(next_lsn, record bytes)` for every journalled op with
    /// `lsn >= from` — the `LogTail` payload a standby replays. The
    /// newest snapshot record is prepended when `from` predates the
    /// retained tail. `(0, empty)` when no journal is attached.
    pub fn journal_tail(&self, from: u64) -> (u64, Vec<u8>) {
        match self.journal.read().as_ref() {
            Some(log) => log.tail_from(from),
            None => (0, Vec::new()),
        }
    }

    /// The journal's next LSN without materializing a tail (0 when no
    /// journal is attached) — the standby's cheap lag probe.
    pub fn journal_next_lsn(&self) -> u64 {
        self.journal.read().as_ref().map_or(0, |log| log.next_lsn())
    }

    /// Rebuilds a master from the journal held by `tier`'s metadata
    /// region (newest snapshot + tail) and attaches a log so new
    /// mutations keep journalling — the boot path of a durable master
    /// and the takeover path of a standby.
    pub fn recover(tier: Arc<crate::backing::UnderStore>) -> Self {
        let master = Master::new();
        for (_, op) in MetaLog::replay_tier(&tier) {
            master.apply_op(&op);
        }
        master.enable_journal(Arc::new(MetaLog::open(tier)));
        master
    }

    /// The current master epoch (1 for a freshly booted, never-deposed
    /// master).
    pub fn master_epoch(&self) -> u64 {
        self.state.read().master_epoch
    }

    /// Listen address of the master that owns the current epoch (""
    /// when unknown — e.g. journalling disabled).
    pub fn owner_addr(&self) -> String {
        self.state.read().owner_addr.clone()
    }

    /// Claims master epoch `epoch` for `addr`: applied as `max`, and
    /// journalled so a replayed standby (or a restarted master) learns
    /// who last owned the metadata. A claim below the current epoch, or
    /// a repeat of the current claim, changes and journals nothing.
    /// Returns the resulting epoch.
    pub fn claim_master_epoch(&self, epoch: u64, addr: &str) -> u64 {
        self.mutate(|s| {
            let moves = epoch > s.master_epoch || (epoch == s.master_epoch && addr != s.owner_addr);
            moves.then(|| MetaOp::MasterEpoch {
                epoch,
                addr: addr.to_string(),
            })
        })
        .state
        .master_epoch
    }

    /// Whether this master has been deposed by a successor.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    /// Deposes this master: it stops serving mutations and answers
    /// redirects pointing at `successor` (empty = unknown). Idempotent;
    /// fencing is forever — only a fresh process (with a fresh claim)
    /// serves again.
    pub fn self_fence(&self, successor: Option<String>) {
        if let Some(s) = successor {
            *self.successor.lock() = Some(s);
        }
        self.fenced.store(true, Ordering::SeqCst);
    }

    /// The successor's meta address, once known.
    pub fn successor(&self) -> Option<String> {
        self.successor.lock().clone()
    }

    /// Marks this master active (standby promotion). The inverse of
    /// [`Master::self_fence`], legal only on a shadow master that was
    /// never exposed as active.
    pub fn activate(&self) {
        *self.successor.lock() = None;
        self.fenced.store(false, Ordering::SeqCst);
    }

    /// A full-state image: everything a replica needs to serve in this
    /// master's place (placements + versions, health, epochs, repair
    /// slots, master epoch). Volatile observability (access counters,
    /// heartbeat counts, repair history) is excluded by design.
    pub fn image(&self) -> MasterImage {
        self.state.read().image()
    }

    /// Applies one journalled op to local state **without**
    /// re-journalling — the replay path (recovery, a standby's tail,
    /// snapshot install). It runs the same `State::apply` as the live
    /// path.
    pub fn apply_op(&self, op: &MetaOp) {
        self.state.write().apply(op);
    }

    /// Writes a compacted snapshot if enough records accumulated since
    /// the last one. Holds the state read guard from the image capture
    /// until the snapshot record is written, so no mutator can commit
    /// an op between the image and the snapshot's LSN — the no-lost-op
    /// compaction invariant. Call from a maintenance tick (the
    /// supervisor does), never from inside a mutator.
    pub fn maybe_compact(&self) {
        let Some(log) = self.journal_handle() else {
            return;
        };
        if log.snapshot_due() {
            let state = self.state.read();
            log.snapshot(&state.image());
        }
    }

    /// Registers many files (the streaming seed path for million-file
    /// corpora), one transition per file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::AlreadyExists`] on the first duplicate id;
    /// earlier entries in the batch stay registered. A batch holding an
    /// empty placement is refused whole with [`StoreError::Codec`].
    pub fn register_batch(&self, entries: &[(u64, usize, Vec<usize>)]) -> Result<(), StoreError> {
        if entries.iter().any(|(_, _, servers)| servers.is_empty()) {
            return Err(empty_placement());
        }
        entries
            .iter()
            .try_for_each(|(id, size, servers)| self.register(*id, *size, servers.clone()))
    }

    /// Sizes the heartbeat table for a fleet of `n` workers. Health
    /// needs no sizing: a worker the master never heard about reads as
    /// alive, unsuspected and at epoch 0.
    pub fn ensure_workers(&self, n: usize) {
        let mut seen = self.last_seen.lock();
        if seen.len() < n {
            seen.resize(n, 0);
        }
    }

    /// Records a sign of life from worker `w`: clears suspicion and
    /// revives the worker. The supervisor's probe calls it for a `Pong`
    /// carrying the epoch this master granted; a client's reply is no
    /// such sign (DESIGN.md §4.7).
    pub fn mark_alive(&self, w: usize) {
        let decide = |s: &State| {
            let h = s.worker(w);
            (!h.alive || h.suspicion != 0).then_some(MetaOp::MarkAlive { w: w as u64 })
        };
        // Almost every probe finds a healthy worker: settle that no-op
        // under the read guard, so it does not queue behind `locate`.
        if decide(&self.state.read()).is_some() {
            self.mutate(decide);
        }
        self.ensure_workers(w + 1);
        self.last_seen.lock()[w] += 1;
    }

    /// Declares worker `w` dead (its request channel is closed — the
    /// definitive signal in this in-process cluster). The first
    /// alive→dead transition bumps the worker's fencing epoch, so any
    /// epoch the worker was granted before its death is now stale.
    pub fn mark_dead(&self, w: usize) {
        self.mutate(|s| {
            let h = s.worker(w);
            h.alive.then_some(MetaOp::MarkDead {
                w: w as u64,
                epoch: h.epoch + 1,
            })
        });
    }

    /// Records a timeout against worker `w` (it may be hung rather than
    /// dead). After [`SUSPICION_THRESHOLD`] timeouts with no live probe
    /// between them the worker is declared dead. Returns the updated
    /// suspicion count.
    pub fn suspect(&self, w: usize) -> u32 {
        self.mutate(|s| {
            let h = s.worker(w);
            let count = h.suspicion.saturating_add(1);
            let dies = h.alive && count >= SUSPICION_THRESHOLD;
            Some(MetaOp::Suspect {
                w: w as u64,
                count,
                alive: h.alive && !dies,
                epoch: h.epoch + u64::from(dies),
            })
        })
        .state
        .worker(w)
        .suspicion
    }

    /// Grants worker `w` a fresh fencing epoch and revives it — the
    /// rejoin path for a crash-restarted (or newly adopted) worker.
    /// Returns the granted epoch; the caller must install it on the
    /// worker (`Request::SetEpoch`) before routing fenced traffic to
    /// it.
    pub fn register_worker(&self, w: usize) -> u64 {
        self.mutate(|s| {
            Some(MetaOp::RegisterWorker {
                w: w as u64,
                epoch: s.worker(w).epoch + 1,
            })
        })
        .state
        .worker(w)
        .epoch
    }

    /// The fencing epoch table for workers `0..n` (0 = never
    /// registered).
    pub fn worker_epochs(&self, n: usize) -> Vec<u64> {
        let s = self.state.read();
        (0..n).map(|w| s.worker(w).epoch).collect()
    }

    /// Tries to acquire the repair slot for file `id`. Returns `false`
    /// if a repair is already in flight — the caller must NOT heal the
    /// file (the sweep/lazy-repair dedup contract). On `true` the
    /// caller owns the slot and must release it with
    /// [`Master::end_repair`] when the repair completes or aborts.
    pub fn begin_repair(&self, id: u64) -> bool {
        let applied =
            self.mutate(|s| (!s.repairing.contains(&id)).then_some(MetaOp::BeginRepair { id }));
        if applied.changed {
            // Logged under the guard, so the history is acquisition order.
            self.repair_log.lock().push(id);
        }
        applied.changed
    }

    /// Releases the repair slot for file `id`.
    pub fn end_repair(&self, id: u64) {
        self.release_repair(id);
    }

    /// Releases `id`'s repair slot; `false` when it was free.
    fn release_repair(&self, id: u64) -> bool {
        self.mutate(|s| s.repairing.contains(&id).then_some(MetaOp::EndRepair { id }))
            .changed
    }

    /// Releases every in-flight repair slot, journalling an `EndRepair`
    /// for each; returns the released ids, ascending. Takeover hygiene:
    /// the healers holding these slots died with the old master, and a
    /// slot nobody holds would starve the file's repair forever (every
    /// future `begin_repair` would be refused).
    pub fn abandon_repairs(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.state.read().repairing.iter().copied().collect();
        ids.retain(|&id| self.release_repair(id));
        ids
    }

    /// Whether a repair of `id` is currently in flight.
    pub fn repairing(&self, id: u64) -> bool {
        self.state.read().repairing.contains(&id)
    }

    /// Every repair-slot acquisition so far, in order. Each entry is
    /// one actual heal attempt; a file appearing twice means it was
    /// healed twice (sequentially — concurrent duplicates are
    /// impossible by construction).
    pub fn repair_history(&self) -> Vec<u64> {
        self.repair_log.lock().clone()
    }

    /// Whether worker `w` is believed alive (unknown workers are).
    pub fn is_alive(&self, w: usize) -> bool {
        self.state.read().worker(w).alive
    }

    /// Heartbeats observed from worker `w`.
    pub fn heartbeats(&self, w: usize) -> u64 {
        self.last_seen.lock().get(w).copied().unwrap_or(0)
    }

    /// The live subset of workers `0..n`, ascending.
    pub fn live_workers(&self, n: usize) -> Vec<usize> {
        let s = self.state.read();
        (0..n).filter(|&w| s.worker(w).alive).collect()
    }

    /// Ids of files with at least one partition on a dead worker — the
    /// candidates for under-store recovery.
    pub fn degraded_files(&self) -> Vec<u64> {
        let s = self.state.read();
        let mut ids: Vec<u64> = s
            .files
            .iter()
            .filter(|(_, info)| info.servers.iter().any(|&w| !s.worker(w).alive))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Registers a new file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::AlreadyExists`] if the id is taken, and
    /// [`StoreError::Codec`] for an empty placement.
    pub fn register(&self, id: u64, size: usize, servers: Vec<usize>) -> Result<(), StoreError> {
        self.try_mutate(|s| {
            if servers.is_empty() {
                return Err(empty_placement());
            }
            if s.files.contains_key(&id) {
                return Err(StoreError::AlreadyExists(id));
            }
            Ok(Some(MetaOp::RegisterFile {
                id,
                size: size as u64,
                servers,
            }))
        })
        .map(drop)
    }

    /// Removes a file's metadata; returns its former info if present.
    pub fn unregister(&self, id: u64) -> Option<FileInfo> {
        self.mutate(|s| s.files.contains_key(&id).then_some(MetaOp::UnregisterFile { id }))
            .removed
    }

    /// Installs (or, with an empty row, clears) file `id`'s integrity
    /// row: the per-partition checksums a verifying reader checks
    /// received bytes against, plus where the parity partitions live.
    /// Re-installing the stored row changes and journals nothing.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownFile`] if the file is not
    /// registered — a row must never outlive (or predate) its file.
    pub fn set_integrity(&self, id: u64, integrity: FileIntegrity) -> Result<(), StoreError> {
        self.try_mutate(|s| {
            if !s.files.contains_key(&id) {
                return Err(StoreError::UnknownFile(id));
            }
            // Stored rows are never empty: the empty row means "absent".
            let stored = s.integrity.get(&id).map_or(integrity.is_empty(), |row| *row == integrity);
            Ok((!stored).then_some(MetaOp::SetIntegrity { id, integrity }))
        })
        .map(drop)
    }

    /// File `id`'s integrity row, if one was set (and not invalidated by
    /// a placement change since).
    pub fn integrity(&self, id: u64) -> Option<FileIntegrity> {
        self.state.read().integrity.get(&id).cloned()
    }

    /// Looks up a file's partition servers and size, bumping its access
    /// count (the read path, §6.1).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownFile`] if not registered.
    pub fn locate(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        let s = self.state.read();
        let info = s.files.get(&id).ok_or(StoreError::UnknownFile(id))?;
        info.accesses.fetch_add(1, Ordering::Relaxed);
        Ok((info.size, info.servers.clone()))
    }

    /// Adds a batch of `(file, reads)` access counts gathered by a client
    /// that read from its cached placements (§6.1's counters, reported
    /// in bulk instead of one [`Master::locate`] per read). Counts for
    /// files no longer registered are dropped.
    pub fn report_accesses(&self, counts: &[(u64, u64)]) {
        let s = self.state.read();
        for &(id, n) in counts {
            if let Some(info) = s.files.get(&id) {
                info.accesses.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Like [`Master::locate`] but without counting an access (metadata
    /// inspection).
    pub fn peek(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        let s = self.state.read();
        let info = s.files.get(&id).ok_or(StoreError::UnknownFile(id))?;
        Ok((info.size, info.servers.clone()))
    }

    /// Number of registered files.
    pub fn file_count(&self) -> usize {
        self.state.read().files.len()
    }

    /// Access count of one file.
    pub fn accesses(&self, id: u64) -> u64 {
        self.state
            .read()
            .files
            .get(&id)
            .map_or(0, |i| i.accesses.load(Ordering::Relaxed))
    }

    /// Resets all access counters (start of a new measurement window; the
    /// paper repartitions every 12 h on the previous 24 h of counts).
    pub fn reset_accesses(&self) {
        for info in self.state.read().files.values() {
            info.accesses.store(0, Ordering::Relaxed);
        }
    }

    /// A snapshot `(ids, FileSet, PartitionMap)` of the current state with
    /// popularity estimated from access counts (uniform when no accesses
    /// were recorded yet). `n_workers` bounds the partition map.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when no file is registered.
    pub fn snapshot(
        &self,
        n_workers: usize,
    ) -> Result<(Vec<u64>, FileSet, PartitionMap), StoreError> {
        let s = self.state.read();
        let files = &s.files;
        if files.is_empty() {
            return Err(StoreError::Codec("rebalance of an empty master".into()));
        }
        let mut ids: Vec<u64> = files.keys().copied().collect();
        ids.sort_unstable();
        // Reported counts come off the wire: saturate, never overflow.
        let total_acc = files
            .values()
            .map(|i| i.accesses.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add);
        let metas: Vec<FileMeta> = ids
            .iter()
            .map(|id| {
                let info = &files[id];
                let pop = if total_acc == 0 {
                    1.0 / files.len() as f64
                } else {
                    info.accesses.load(Ordering::Relaxed) as f64 / total_acc as f64
                };
                // FileMeta requires a strictly positive popularity-free
                // size; popularity 0 is fine.
                FileMeta::new(info.size.max(1) as f64, pop)
            })
            .collect();
        let placements: Vec<Vec<usize>> = ids.iter().map(|id| files[id].servers.clone()).collect();
        Ok((
            ids,
            FileSet::new(metas),
            PartitionMap::new(placements, n_workers),
        ))
    }

    /// Plans a rebalance: runs Algorithm 1 on the observed popularity,
    /// derives new partition counts, and runs Algorithm 2 against the
    /// current placement. Returns `(ids, plan, tuned)`; apply with
    /// [`Master::apply_placement`] after the repartitioners have moved
    /// the bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when no file is registered or no worker is
    /// alive to plan against.
    pub fn plan_rebalance(
        &self,
        n_workers: usize,
        bandwidth: f64,
        lambda_total: f64,
        cfg: &TunerConfig,
        seed: u64,
    ) -> Result<(Vec<u64>, RepartitionPlan, Tuned), StoreError> {
        let (ids, fileset, map) = self.snapshot(n_workers)?;
        let live = self.live_workers(n_workers);
        if live.is_empty() {
            return Err(StoreError::Codec("rebalance with no live workers".into()));
        }
        let tuned =
            tune_scale_factor_hetero(&fileset, &vec![bandwidth; n_workers], lambda_total, cfg);
        // A file cannot be split across more servers than are alive.
        let new_counts: Vec<usize> = fileset
            .partition_counts(tuned.alpha)
            .into_iter()
            .map(|k| k.min(live.len()))
            .collect();
        let mut rng = Xoshiro256StarStar::seed(seed);
        let mut plan = plan_repartition(&fileset, &map, &new_counts, &mut rng);
        for job in &mut plan.jobs {
            substitute(&live, &mut job.new_servers, None);
        }
        Ok((ids, plan, tuned))
    }

    /// Returns every registered file id with its current servers
    /// (sorted by id) — the health scan used by recovery.
    pub fn placements(&self) -> Vec<(u64, Vec<usize>)> {
        let s = self.state.read();
        let mut out: Vec<(u64, Vec<usize>)> = s
            .files
            .iter()
            .map(|(&id, info)| (id, info.servers.clone()))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Atomically installs a new placement for `id`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownFile`] if not registered, and
    /// [`StoreError::Codec`] for an empty placement.
    pub fn apply_placement(&self, id: u64, servers: Vec<usize>) -> Result<(), StoreError> {
        self.try_mutate(|s| {
            if servers.is_empty() {
                return Err(empty_placement());
            }
            let info = s.files.get(&id).ok_or(StoreError::UnknownFile(id))?;
            Ok(Some(MetaOp::ApplyPlacement {
                id,
                servers,
                version: info.version + 1,
            }))
        })
        .map(drop)
    }

    /// The placement version of file `id` (1 at registration, +1 per
    /// [`Master::apply_placement`]); `None` if unregistered. Sweeps
    /// compare this against the version they captured at enumeration
    /// to detect placements that moved under them.
    pub fn placement_version(&self, id: u64) -> Option<u64> {
        self.state.read().files.get(&id).map(|info| info.version)
    }

    /// Serves one metadata request, fencing aside (see
    /// [`MetaService::call`]).
    ///
    /// # Errors
    ///
    /// The refusal of the method the request names;
    /// [`StoreError::Codec`] for a worker index or fleet size past
    /// [`MAX_WORKERS`] and for `Rebalance`, which only a master server
    /// (owner of a worker transport) runs; [`StoreError::StaleEpoch`]
    /// for a takeover below this master's epoch.
    fn serve(&self, req: MetaRequest) -> Result<MetaReply, StoreError> {
        let fleet = |n: u64| match usize::try_from(n) {
            Ok(n) if n <= MAX_WORKERS => Ok(n),
            _ => Err(StoreError::Codec(format!(
                "a fleet of {n} workers is past MAX_WORKERS ({MAX_WORKERS})"
            ))),
        };
        let worker = |w: u64| fleet(w.saturating_add(1)).map(|_| w as usize);
        let info = |(size, servers): (usize, Vec<usize>)| MetaReply::Info {
            size: size as u64,
            servers,
        };
        let done = |()| MetaReply::Done;
        Ok(match req {
            MetaRequest::Register { id, size, servers } => {
                self.register(id, size as usize, servers).map(done)?
            }
            MetaRequest::Unregister { id } => {
                MetaReply::Maybe(self.unregister(id).map(|f| (f.size as u64, f.servers)))
            }
            MetaRequest::Locate { id } => info(self.locate(id)?),
            MetaRequest::Peek { id } => info(self.peek(id)?),
            MetaRequest::ApplyPlacement { id, servers } => self.apply_placement(id, servers).map(done)?,
            MetaRequest::MarkAlive { w } => {
                self.mark_alive(worker(w)?);
                MetaReply::Done
            }
            MetaRequest::MarkDead { w } => {
                self.mark_dead(worker(w)?);
                MetaReply::Done
            }
            MetaRequest::Suspect { w } => MetaReply::Count(self.suspect(worker(w)?)),
            MetaRequest::IsAlive { w } => MetaReply::Flag(self.is_alive(worker(w)?)),
            MetaRequest::LiveWorkers { n } => MetaReply::Workers(self.live_workers(fleet(n)?)),
            MetaRequest::Degraded => MetaReply::Files(self.degraded_files()),
            MetaRequest::WorkerEpochs { n } => MetaReply::Epochs(self.worker_epochs(fleet(n)?)),
            MetaRequest::RegisterWorker { w } => {
                MetaReply::Epoch(self.register_worker(worker(w)?))
            }
            MetaRequest::BeginRepair { id } => MetaReply::Flag(self.begin_repair(id)),
            MetaRequest::EndRepair { id } => {
                self.end_repair(id);
                MetaReply::Done
            }
            MetaRequest::Rebalance { .. } => {
                return Err(StoreError::Codec(
                    "rebalance needs a master server's worker transport".into(),
                ))
            }
            MetaRequest::Status => MetaReply::Status {
                epoch: self.master_epoch(),
                active: !self.is_fenced(),
                files: self.file_count() as u64,
                next_lsn: self.journal_next_lsn(),
            },
            MetaRequest::LogTail { from } => {
                let (next_lsn, bytes) = self.journal_tail(from);
                MetaReply::Log { next_lsn, bytes }
            }
            MetaRequest::Takeover { epoch, addr } => {
                // A *lower*-epoch "successor" is itself the stale one.
                if epoch < self.master_epoch() {
                    return Err(StoreError::StaleEpoch(MASTER_ENDPOINT));
                }
                self.self_fence(Some(addr));
                MetaReply::Done
            }
            MetaRequest::RegisterBatch { entries } => {
                let rows: Vec<(u64, usize, Vec<usize>)> = entries
                    .into_iter()
                    .map(|(id, size, servers)| (id, size as usize, servers))
                    .collect();
                self.register_batch(&rows).map(done)?
            }
            MetaRequest::SetIntegrity { id, integrity } => {
                self.set_integrity(id, integrity).map(done)?
            }
            MetaRequest::Integrity { id } => MetaReply::IntegrityRow(self.integrity(id)),
            MetaRequest::ReportAccesses { counts } => {
                self.report_accesses(&counts);
                MetaReply::Done
            }
            MetaRequest::Shutdown => MetaReply::Done,
        })
    }
}

impl MetaService for Master {
    /// Serves one metadata request — the arm the wire's master server
    /// runs too. A fenced master answers nothing but probes and
    /// takeover handshakes: every other call is bounced to the
    /// successor, so a client that cached this endpoint re-aims itself
    /// instead of mutating deposed metadata (§4.14).
    fn call(&self, req: MetaRequest) -> MetaReply {
        let probe = matches!(
            req,
            MetaRequest::Status | MetaRequest::Shutdown | MetaRequest::Takeover { .. }
        );
        if self.is_fenced() && !probe {
            return MetaReply::Redirect {
                to: self.successor().unwrap_or_default(),
            };
        }
        self.serve(req).unwrap_or_else(MetaReply::Err)
    }

    fn master_epoch(&self) -> u64 {
        Master::master_epoch(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_locate_roundtrip() {
        let m = Master::new();
        m.register(7, 1000, vec![0, 2]).unwrap();
        let (size, servers) = m.locate(7).unwrap();
        assert_eq!(size, 1000);
        assert_eq!(servers, vec![0, 2]);
        assert_eq!(m.accesses(7), 1);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let m = Master::new();
        m.register(1, 10, vec![0]).unwrap();
        assert_eq!(
            m.register(1, 10, vec![1]),
            Err(StoreError::AlreadyExists(1))
        );
    }

    #[test]
    fn unknown_file_errors() {
        let m = Master::new();
        assert_eq!(m.locate(5).unwrap_err(), StoreError::UnknownFile(5));
        assert_eq!(m.peek(5).unwrap_err(), StoreError::UnknownFile(5));
    }

    #[test]
    fn peek_does_not_count() {
        let m = Master::new();
        m.register(1, 10, vec![0]).unwrap();
        let _ = m.peek(1).unwrap();
        assert_eq!(m.accesses(1), 0);
    }

    #[test]
    fn integrity_rows_follow_the_file_lifecycle() {
        let m = Master::new();
        assert_eq!(
            m.set_integrity(5, FileIntegrity::data_only(vec![1])),
            Err(StoreError::UnknownFile(5)),
            "a row must not predate its file"
        );
        m.register(5, 100, vec![0, 1]).unwrap();
        assert_eq!(m.integrity(5), None);
        let row = FileIntegrity {
            sums: vec![11, 22],
            parity: vec![(2, 33)],
        };
        m.set_integrity(5, row.clone()).unwrap();
        assert_eq!(m.integrity(5), Some(row));
        // A placement swap re-splits the bytes: the row is invalidated.
        m.apply_placement(5, vec![1, 2, 0]).unwrap();
        assert_eq!(m.integrity(5), None, "apply_placement must clear the row");
        // Re-set (the recovery path does this), then clear explicitly.
        m.set_integrity(5, FileIntegrity::data_only(vec![7, 8, 9]))
            .unwrap();
        m.set_integrity(5, FileIntegrity::default()).unwrap();
        assert_eq!(m.integrity(5), None);
        // Unregister drops any row.
        m.set_integrity(5, FileIntegrity::data_only(vec![1, 2, 3]))
            .unwrap();
        m.unregister(5);
        m.register(5, 100, vec![0, 1]).unwrap();
        assert_eq!(m.integrity(5), None, "rows must not survive the file");
    }

    #[test]
    fn integrity_rows_survive_journal_replay_and_snapshot() {
        use crate::backing::UnderStore;
        let tier = Arc::new(UnderStore::new());
        let m = Master::new();
        m.enable_journal(Arc::new(MetaLog::open(Arc::clone(&tier))));
        m.register(1, 64, vec![0, 1]).unwrap();
        m.register(2, 64, vec![1, 0]).unwrap();
        let row = FileIntegrity {
            sums: vec![5, 6],
            parity: vec![(2, 7)],
        };
        m.set_integrity(1, row.clone()).unwrap();
        m.set_integrity(2, FileIntegrity::data_only(vec![8, 9]))
            .unwrap();
        m.apply_placement(2, vec![0, 1]).unwrap(); // invalidates 2's row
        let twin = Master::recover(Arc::clone(&tier));
        assert_eq!(twin.integrity(1), Some(row.clone()));
        assert_eq!(twin.integrity(2), None);
        // And through a snapshot image round-trip.
        let img = m.image();
        let fresh = Master::new();
        fresh.apply_op(&MetaOp::Snapshot(img));
        assert_eq!(fresh.integrity(1), Some(row));
        assert_eq!(fresh.integrity(2), None);
    }

    #[test]
    fn access_counters_accumulate_and_reset() {
        let m = Master::new();
        m.register(1, 10, vec![0]).unwrap();
        for _ in 0..5 {
            let _ = m.locate(1);
        }
        assert_eq!(m.accesses(1), 5);
        m.reset_accesses();
        assert_eq!(m.accesses(1), 0);
    }

    #[test]
    fn reported_accesses_add_up_and_skip_unknown_files() {
        let m = Master::new();
        m.register(1, 10, vec![0]).unwrap();
        m.register(2, 10, vec![0]).unwrap();
        let _ = m.locate(1);
        m.report_accesses(&[(1, 4), (2, 7), (99, 3)]);
        assert_eq!((m.accesses(1), m.accesses(2), m.accesses(99)), (5, 7, 0));
        // Through the trait's one call, a batch adds its counts alike.
        MetaService::report_accesses(&m, &[(1, 3), (99, 2)]);
        assert_eq!((m.accesses(1), m.accesses(99)), (8, 0));
    }

    #[test]
    fn snapshot_estimates_popularity_from_accesses() {
        let m = Master::new();
        m.register(0, 100, vec![0]).unwrap();
        m.register(1, 100, vec![1]).unwrap();
        for _ in 0..9 {
            let _ = m.locate(0);
        }
        let _ = m.locate(1);
        let (ids, fs, map) = m.snapshot(4).unwrap();
        assert_eq!(ids, vec![0, 1]);
        assert!((fs.get(0).popularity - 0.9).abs() < 1e-12);
        assert!((fs.get(1).popularity - 0.1).abs() < 1e-12);
        assert_eq!(map.k_of(0), 1);
    }

    #[test]
    fn snapshot_uniform_when_no_accesses() {
        let m = Master::new();
        m.register(0, 100, vec![0]).unwrap();
        m.register(1, 100, vec![1]).unwrap();
        let (_, fs, _) = m.snapshot(2).unwrap();
        assert!((fs.get(0).popularity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn plan_rebalance_splits_hot_file() {
        let m = Master::new();
        for id in 0..20u64 {
            m.register(id, 50_000_000, vec![(id as usize) % 10]).unwrap();
        }
        // File 3 becomes very hot.
        for _ in 0..1000 {
            let _ = m.locate(3);
        }
        for id in 0..20u64 {
            let _ = m.locate(id);
        }
        let (ids, plan, tuned) =
            m.plan_rebalance(10, 125e6, 8.0, &TunerConfig::default(), 7).unwrap();
        assert!(tuned.alpha > 0.0);
        let idx3 = ids.iter().position(|&i| i == 3).unwrap();
        assert!(
            plan.new_map.k_of(idx3) > 1,
            "hot file should be split, got k = {}",
            plan.new_map.k_of(idx3)
        );
    }

    #[test]
    fn apply_placement_swaps_servers() {
        let m = Master::new();
        m.register(1, 10, vec![0]).unwrap();
        m.apply_placement(1, vec![1, 2]).unwrap();
        assert_eq!(m.peek(1).unwrap().1, vec![1, 2]);
        assert_eq!(
            m.apply_placement(9, vec![0]),
            Err(StoreError::UnknownFile(9))
        );
    }

    #[test]
    fn health_suspicion_threshold_kills_and_mark_alive_revives() {
        let m = Master::new();
        m.ensure_workers(3);
        assert!(m.is_alive(1));
        assert_eq!(m.suspect(1), 1);
        assert_eq!(m.suspect(1), 2);
        assert!(m.is_alive(1), "two timeouts are not death");
        assert_eq!(m.suspect(1), 3);
        assert!(!m.is_alive(1), "third consecutive timeout is");
        m.mark_alive(1);
        assert!(m.is_alive(1));
        assert_eq!(m.suspect(1), 1, "suspicion was reset");
        assert_eq!(m.live_workers(3), vec![0, 1, 2]);
        m.mark_dead(0);
        assert_eq!(m.live_workers(3), vec![1, 2]);
        assert!(m.is_alive(7), "unknown workers are presumed alive");
    }

    #[test]
    fn epochs_fence_death_and_registration() {
        let m = Master::new();
        m.ensure_workers(3);
        assert_eq!(m.worker_epochs(3), vec![0, 0, 0]);
        // Registration grants the first epoch.
        assert_eq!(m.register_worker(0), 1);
        assert_eq!(m.register_worker(1), 1);
        // Death bumps the epoch exactly once, even under repeated
        // mark_dead calls from many error paths.
        m.mark_dead(1);
        m.mark_dead(1);
        m.mark_dead(1);
        assert_eq!(m.worker_epochs(3), vec![1, 2, 0]);
        // The rejoin grants a fresh epoch strictly above every epoch
        // the crashed incarnation could hold, and revives the worker.
        assert!(!m.is_alive(1));
        assert_eq!(m.register_worker(1), 3);
        assert!(m.is_alive(1));
        // Suspicion-ladder death also fences.
        for _ in 0..SUSPICION_THRESHOLD {
            m.suspect(0);
        }
        assert!(!m.is_alive(0));
        assert_eq!(m.worker_epochs(3), vec![2, 3, 0]);
    }

    #[test]
    fn repair_registry_dedups_concurrent_heals() {
        let m = Master::new();
        assert!(m.begin_repair(7), "first acquisition wins");
        assert!(!m.begin_repair(7), "in-flight repair blocks a second");
        assert!(m.repairing(7));
        assert!(m.begin_repair(8), "other files are independent");
        m.end_repair(7);
        assert!(!m.repairing(7));
        assert!(m.begin_repair(7), "released slot can be re-acquired");
        // Only actual acquisitions are logged — the blocked attempt is
        // not a heal.
        assert_eq!(m.repair_history(), vec![7, 8, 7]);
    }

    #[test]
    fn degraded_files_flags_files_on_dead_workers() {
        let m = Master::new();
        m.ensure_workers(4);
        m.register(1, 10, vec![0, 1]).unwrap();
        m.register(2, 10, vec![2]).unwrap();
        m.register(3, 10, vec![3, 1]).unwrap();
        assert!(m.degraded_files().is_empty());
        m.mark_dead(1);
        assert_eq!(m.degraded_files(), vec![1, 3]);
    }

    #[test]
    fn plan_rebalance_avoids_dead_targets() {
        let m = Master::new();
        m.ensure_workers(10);
        for id in 0..20u64 {
            m.register(id, 50_000_000, vec![(id as usize) % 10]).unwrap();
        }
        for _ in 0..1000 {
            let _ = m.locate(3);
        }
        for id in 0..20u64 {
            let _ = m.locate(id);
        }
        m.mark_dead(4);
        m.mark_dead(7);
        let (_, plan, _) = m.plan_rebalance(10, 125e6, 8.0, &TunerConfig::default(), 7).unwrap();
        for job in &plan.jobs {
            assert!(
                job.new_servers.iter().all(|&s| s != 4 && s != 7),
                "job targets a dead worker: {:?}",
                job.new_servers
            );
            let mut uniq = job.new_servers.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), job.new_servers.len(), "duplicate targets");
        }
    }

    #[test]
    fn an_unplannable_rebalance_is_a_typed_error() {
        let m = Master::new();
        m.ensure_workers(2);
        let plan = |m: &Master| m.plan_rebalance(2, 125e6, 8.0, &TunerConfig::default(), 7);
        let codec = |r: Result<(), StoreError>| matches!(r, Err(StoreError::Codec(_)));
        assert!(codec(m.snapshot(2).map(drop)), "snapshot of an empty master");
        assert!(codec(plan(&m).map(drop)), "rebalance of an empty master");
        m.register(1, 100, vec![0]).unwrap();
        m.mark_dead(0);
        m.mark_dead(1);
        assert!(codec(plan(&m).map(drop)), "rebalance with no live workers");
        m.mark_alive(1);
        assert!(plan(&m).is_ok());
    }

    #[test]
    fn placement_version_counts_every_swap() {
        let m = Master::new();
        assert_eq!(m.placement_version(1), None);
        m.register(1, 10, vec![0]).unwrap();
        assert_eq!(m.placement_version(1), Some(1));
        m.apply_placement(1, vec![1]).unwrap();
        m.apply_placement(1, vec![2, 0]).unwrap();
        assert_eq!(m.placement_version(1), Some(3));
        // Reads and peeks do not move the placement version.
        let _ = m.locate(1).unwrap();
        let _ = m.peek(1).unwrap();
        assert_eq!(m.placement_version(1), Some(3));
    }

    #[test]
    fn placements_lists_all_files() {
        let m = Master::new();
        m.register(2, 10, vec![1]).unwrap();
        m.register(1, 20, vec![0, 2]).unwrap();
        assert_eq!(
            m.placements(),
            vec![(1, vec![0, 2]), (2, vec![1])]
        );
    }

    #[test]
    fn journalled_master_recovers_from_the_log() {
        use crate::backing::UnderStore;
        let tier = std::sync::Arc::new(UnderStore::new());
        let m = Master::recover(std::sync::Arc::clone(&tier));
        m.ensure_workers(4);
        assert_eq!(m.register_worker(0), 1);
        m.register(1, 100, vec![0, 1]).unwrap();
        m.register(2, 50, vec![2]).unwrap();
        m.apply_placement(1, vec![2, 3]).unwrap();
        m.mark_dead(2);
        assert!(m.begin_repair(2));
        assert_eq!(m.claim_master_epoch(3, "127.0.0.1:9999"), 3);
        // A twin rebuilt purely from the journal matches exactly.
        let twin = Master::recover(tier);
        assert_eq!(twin.image(), m.image());
        assert_eq!(twin.peek(1).unwrap().1, vec![2, 3]);
        assert_eq!(twin.placement_version(1), Some(2));
        assert!(twin.repairing(2));
        assert!(!twin.is_alive(2));
        assert_eq!(twin.master_epoch(), 3);
        assert_eq!(twin.owner_addr(), "127.0.0.1:9999");
    }

    #[test]
    fn a_call_that_changes_nothing_journals_nothing() {
        use crate::backing::UnderStore;
        let log = Arc::new(MetaLog::open(Arc::new(UnderStore::new())));
        let m = Master::new();
        m.enable_journal(Arc::clone(&log));
        m.register(1, 64, vec![0]).unwrap();
        let row = FileIntegrity::data_only(vec![5]);
        m.set_integrity(1, row.clone()).unwrap();
        m.mark_dead(2);
        m.claim_master_epoch(4, "a");
        let image = m.image();
        let quiet = |what: &str, call: &dyn Fn()| {
            let next = log.next_lsn();
            call();
            assert_eq!(log.next_lsn(), next, "{what} journalled a record");
        };
        quiet("mark_alive on a healthy worker", &|| m.mark_alive(0));
        quiet("mark_dead on a dead worker", &|| m.mark_dead(2));
        quiet("end_repair on a free slot", &|| m.end_repair(9));
        quiet("claim_master_epoch below the current epoch", &|| {
            assert_eq!(m.claim_master_epoch(3, "a"), 4);
        });
        quiet("set_integrity with the stored row", &|| {
            m.set_integrity(1, row.clone()).unwrap();
        });
        assert_eq!(m.image(), image);
    }

    #[test]
    fn compaction_preserves_the_replayed_image() {
        use crate::backing::UnderStore;
        use crate::metalog::MetaLog;
        let tier = std::sync::Arc::new(UnderStore::new());
        let m = Master::new();
        m.enable_journal(std::sync::Arc::new(
            MetaLog::open(std::sync::Arc::clone(&tier)).with_snapshot_every(8),
        ));
        for id in 0..40u64 {
            m.register(id, 64, vec![(id % 3) as usize]).unwrap();
            m.apply_placement(id, vec![((id + 1) % 3) as usize]).unwrap();
            m.maybe_compact();
        }
        // Compaction ran (the tail is bounded) and lost nothing.
        assert!(tier.meta_list("snap-").len() == 1);
        let twin = Master::recover(tier);
        assert_eq!(twin.image(), m.image());
        assert_eq!(twin.file_count(), 40);
    }

    #[test]
    fn fencing_state_machine() {
        let m = Master::new();
        assert_eq!(m.master_epoch(), 1);
        assert!(!m.is_fenced());
        m.self_fence(Some("10.0.0.2:4100".into()));
        assert!(m.is_fenced());
        assert_eq!(m.successor().as_deref(), Some("10.0.0.2:4100"));
        // A stale claim cannot lower the epoch.
        assert_eq!(m.claim_master_epoch(5, "b"), 5);
        assert_eq!(m.claim_master_epoch(2, "a"), 5);
        assert_eq!(m.owner_addr(), "b");
        m.activate();
        assert!(!m.is_fenced());
        assert_eq!(m.successor(), None);
    }

    #[test]
    fn a_fenced_master_redirects_every_call_but_probes_and_handshakes() {
        let m = Master::new();
        m.register(1, 10, vec![0]).unwrap();
        let via_call = |m: &Master| MetaService::locate(m, 1);
        assert_eq!(via_call(&m), Ok((10, vec![0])));
        assert!(matches!(
            m.call(MetaRequest::Rebalance { bandwidth: 1e9, lambda: 1.0, seed: 1 }),
            MetaReply::Err(StoreError::Codec(_))
        ), "only a master server rebalances");
        m.self_fence(Some("10.0.0.2:4100".into()));
        let redirect = MetaReply::Redirect { to: "10.0.0.2:4100".into() };
        assert_eq!(m.call(MetaRequest::Peek { id: 1 }), redirect);
        assert_eq!(m.call(MetaRequest::MarkDead { w: 0 }), redirect);
        assert!(m.is_alive(0), "a fenced master took a health report");
        // Typed callers in process see the master this caller knew as
        // gone, or the documented fallback.
        assert_eq!(via_call(&m), Err(StoreError::Io(MASTER_ENDPOINT)));
        assert_eq!(MetaService::live_workers(&m, 2), vec![0, 1]);
        assert!(matches!(m.call(MetaRequest::Status), MetaReply::Status { active: false, .. }));
        let stale = MetaRequest::Takeover { epoch: 0, addr: "a:1".into() };
        assert_eq!(m.call(stale), MetaReply::Err(StoreError::StaleEpoch(MASTER_ENDPOINT)));
        assert_eq!(m.call(MetaRequest::Shutdown), MetaReply::Done);
    }

    #[test]
    fn concurrent_locates_are_safe() {
        let m = std::sync::Arc::new(Master::new());
        m.register(1, 10, vec![0]).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        let _ = m.locate(1).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.accesses(1), 8000);
    }
}
