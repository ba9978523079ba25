//! The SP-Master: file metadata, access counting and rebalance planning.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spcache_core::file::{FileMeta, FileSet};
use spcache_core::partition::PartitionMap;
use spcache_core::repartition::{plan_repartition, RepartitionPlan};
use spcache_core::tuner::{tune_scale_factor_hetero, Tuned, TunerConfig};
use spcache_sim::Xoshiro256StarStar;

use crate::forkjoin::empty_placement;
use crate::metalog::{FileIntegrity, MasterImage, MetaLog, MetaOp};
use crate::rpc::StoreError;

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
    pub version: AtomicU64,
}

impl FileInfo {
    /// Partition count `k`.
    pub fn k(&self) -> usize {
        self.servers.len()
    }
}

/// Default consecutive-timeout count after which a suspected worker is
/// declared dead; override with [`Master::set_suspicion_threshold`].
const SUSPICION_THRESHOLD: u32 = 3;

/// Liveness bookkeeping for the worker fleet.
#[derive(Debug, Default)]
struct Health {
    /// `alive[w]` — whether worker `w` is believed up. Workers the
    /// master has never heard about are presumed alive.
    alive: Vec<bool>,
    /// Consecutive timeout count per worker; reset on any sign of life.
    suspicion: Vec<u32>,
    /// Heartbeats (successful pings / replies) observed per worker.
    last_seen: Vec<u64>,
    /// Fencing epoch per worker. 0 = never registered. Bumped once on
    /// every alive→dead transition and once more at each registration,
    /// so a worker's pre-crash epoch can never equal any epoch granted
    /// after its death.
    epochs: Vec<u64>,
}

impl Health {
    fn ensure(&mut self, n: usize) {
        if self.alive.len() < n {
            self.alive.resize(n, true);
            self.suspicion.resize(n, 0);
            self.last_seen.resize(n, 0);
            self.epochs.resize(n, 0);
        }
    }
}

/// The metadata service.
///
/// Thread-safe: clients call [`Master::locate`] concurrently; the
/// repartition coordinator takes the write lock only while swapping
/// placements.
///
/// Besides file metadata the master tracks **worker health**: clients
/// and repartitioners report timeouts ([`Master::suspect`]) and closed
/// channels ([`Master::mark_dead`]), and every placement decision
/// ([`Master::plan_rebalance`], recovery target selection) draws only
/// from [`Master::live_workers`].
#[derive(Debug)]
pub struct Master {
    files: RwLock<HashMap<u64, FileInfo>>,
    /// Per-file integrity rows (DESIGN.md §4.15): data-partition
    /// checksums plus parity placement. Cleared whenever the placement
    /// changes shape — a re-split invalidates every sum.
    integrity: RwLock<HashMap<u64, FileIntegrity>>,
    health: RwLock<Health>,
    /// Suspicion-ladder death threshold (see [`Master::suspect`]).
    threshold: AtomicU32,
    /// Files whose under-store repair is currently in flight — the
    /// sweep/lazy-repair dedup registry (DESIGN.md §4.11).
    repairing: Mutex<HashSet<u64>>,
    /// Every file id that ever acquired a repair slot, in acquisition
    /// order; tests derive per-file repair counts from this to assert
    /// zero duplicate heals.
    repair_log: Mutex<Vec<u64>>,
    /// The master epoch (DESIGN.md §4.14): bumped on every takeover,
    /// stamped into `Fenced` envelopes so workers bounce a deposed
    /// master's writes the way they bounce stale workers.
    master_epoch: AtomicU64,
    /// Listen address of the master that owns [`Master::master_epoch`]
    /// ("" when unknown) — a restarted master replaying a journal whose
    /// newest epoch belongs to a *different* address starts fenced.
    owner_addr: Mutex<String>,
    /// Set once a successor deposes this master; a fenced master serves
    /// only redirects.
    fenced: AtomicBool,
    /// The successor's advertised meta address, for redirect replies.
    successor: Mutex<Option<String>>,
    /// The write-ahead op-log, when durability is enabled
    /// ([`Master::enable_journal`]). Mutators append while holding
    /// their state lock, so journal order is mutation order.
    journal: RwLock<Option<Arc<MetaLog>>>,
}

impl Default for Master {
    fn default() -> Self {
        Master {
            files: RwLock::default(),
            integrity: RwLock::default(),
            health: RwLock::default(),
            threshold: AtomicU32::new(SUSPICION_THRESHOLD),
            repairing: Mutex::new(HashSet::new()),
            repair_log: Mutex::new(Vec::new()),
            master_epoch: AtomicU64::new(1),
            owner_addr: Mutex::new(String::new()),
            fenced: AtomicBool::new(false),
            successor: Mutex::new(None),
            journal: RwLock::new(None),
        }
    }
}

impl Master {
    /// An empty master.
    pub fn new() -> Self {
        Master::default()
    }

    /// Appends one op to the journal, when durability is enabled.
    /// Callers hold the state lock the op describes, so journal order
    /// is mutation order (the replay-fidelity invariant).
    fn journal_op(&self, op: &MetaOp) {
        if let Some(log) = self.journal.read().as_ref() {
            log.append(op);
        }
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
        self.master_epoch.load(Ordering::SeqCst)
    }

    /// Listen address of the master that owns the current epoch (""
    /// when unknown — e.g. journalling disabled).
    pub fn owner_addr(&self) -> String {
        self.owner_addr.lock().clone()
    }

    /// Claims master epoch `epoch` for `addr`: applied as `max`, and
    /// journalled so a replayed standby (or a restarted master) learns
    /// who last owned the metadata. Returns the resulting epoch.
    pub fn claim_master_epoch(&self, epoch: u64, addr: &str) -> u64 {
        let mut owner = self.owner_addr.lock();
        let cur = self.master_epoch.load(Ordering::SeqCst);
        let new = cur.max(epoch);
        if epoch >= cur {
            self.master_epoch.store(new, Ordering::SeqCst);
            *owner = addr.to_string();
        }
        self.journal_op(&MetaOp::MasterEpoch {
            epoch: new,
            addr: owner.clone(),
        });
        new
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
        let files = self.files.read();
        let integrity = self.integrity.read();
        let h = self.health.read();
        let owner = self.owner_addr.lock();
        let repairing = self.repairing.lock();
        Self::image_from(
            &files,
            &integrity,
            &h,
            &repairing,
            self.threshold.load(Ordering::Relaxed),
        )
        .with_owner(self.master_epoch.load(Ordering::SeqCst), owner.clone())
    }

    fn image_from(
        files: &HashMap<u64, FileInfo>,
        integrity: &HashMap<u64, FileIntegrity>,
        h: &Health,
        repairing: &HashSet<u64>,
        threshold: u32,
    ) -> MasterImage {
        let mut file_rows: Vec<(u64, u64, Vec<usize>, u64)> = files
            .iter()
            .map(|(&id, info)| {
                (
                    id,
                    info.size as u64,
                    info.servers.clone(),
                    info.version.load(Ordering::Relaxed),
                )
            })
            .collect();
        file_rows.sort_unstable_by_key(|&(id, ..)| id);
        let mut rep: Vec<u64> = repairing.iter().copied().collect();
        rep.sort_unstable();
        let (mut alive, mut suspicion, mut epochs) =
            (h.alive.clone(), h.suspicion.clone(), h.epochs.clone());
        // Canonical form: trim trailing presumed-alive defaults, so a
        // replayed twin (which only learns of workers through ops)
        // images identically to a master whose table was pre-sized.
        while let Some(last) = alive.len().checked_sub(1) {
            if alive[last] && suspicion[last] == 0 && epochs[last] == 0 {
                alive.pop();
                suspicion.pop();
                epochs.pop();
            } else {
                break;
            }
        }
        let mut integrity_rows: Vec<(u64, FileIntegrity)> = integrity
            .iter()
            .map(|(&id, row)| (id, row.clone()))
            .collect();
        integrity_rows.sort_unstable_by_key(|&(id, _)| id);
        MasterImage {
            files: file_rows,
            alive,
            suspicion,
            epochs,
            threshold,
            repairing: rep,
            integrity: integrity_rows,
            ..MasterImage::default()
        }
    }

    /// Installs a full-state image (the snapshot replay path).
    fn load_image(&self, img: &MasterImage) {
        let mut files = self.files.write();
        files.clear();
        for (id, size, servers, version) in &img.files {
            files.insert(
                *id,
                FileInfo {
                    size: *size as usize,
                    servers: servers.clone(),
                    accesses: AtomicU64::new(0),
                    version: AtomicU64::new(*version),
                },
            );
        }
        drop(files);
        *self.integrity.write() = img.integrity.iter().cloned().collect();
        let mut h = self.health.write();
        h.alive = img.alive.clone();
        h.suspicion = img.suspicion.clone();
        h.epochs = img.epochs.clone();
        h.last_seen.resize(img.alive.len(), 0);
        drop(h);
        self.threshold.store(img.threshold.max(1), Ordering::Relaxed);
        *self.repairing.lock() = img.repairing.iter().copied().collect();
        let mut owner = self.owner_addr.lock();
        if img.master_epoch >= self.master_epoch.load(Ordering::SeqCst) {
            self.master_epoch.store(img.master_epoch, Ordering::SeqCst);
            *owner = img.master_addr.clone();
        }
    }

    /// Applies one journalled op to local state **without**
    /// re-journalling — the replay path. Ops carry absolute values, so
    /// applying any op twice (or replaying any prefix twice) is
    /// idempotent.
    pub fn apply_op(&self, op: &MetaOp) {
        match op {
            MetaOp::RegisterFile { id, size, servers } => {
                // Overwrite, not error: replay after a snapshot that
                // already contains the file must converge, not fail.
                self.files.write().insert(
                    *id,
                    FileInfo {
                        size: *size as usize,
                        servers: servers.clone(),
                        accesses: AtomicU64::new(0),
                        version: AtomicU64::new(1),
                    },
                );
            }
            MetaOp::UnregisterFile { id } => {
                self.files.write().remove(id);
                self.integrity.write().remove(id);
            }
            MetaOp::ApplyPlacement { id, servers, version } => {
                if let Some(info) = self.files.write().get_mut(id) {
                    info.servers = servers.clone();
                    info.version.store(*version, Ordering::Relaxed);
                }
                // A placement swap re-splits the bytes: every stored
                // checksum (and parity row) is invalidated. Derived from
                // the op itself, so replay converges without an extra
                // journal record.
                self.integrity.write().remove(id);
            }
            MetaOp::RegisterWorker { w, epoch } => {
                let w = *w as usize;
                let mut h = self.health.write();
                h.ensure(w + 1);
                h.epochs[w] = h.epochs[w].max(*epoch);
                h.alive[w] = true;
                h.suspicion[w] = 0;
            }
            MetaOp::MarkAlive { w } => {
                let w = *w as usize;
                let mut h = self.health.write();
                h.ensure(w + 1);
                h.alive[w] = true;
                h.suspicion[w] = 0;
            }
            MetaOp::MarkDead { w, epoch } => {
                let w = *w as usize;
                let mut h = self.health.write();
                h.ensure(w + 1);
                h.alive[w] = false;
                h.epochs[w] = h.epochs[w].max(*epoch);
            }
            MetaOp::Suspect { w, count, alive, epoch } => {
                let w = *w as usize;
                let mut h = self.health.write();
                h.ensure(w + 1);
                h.suspicion[w] = *count;
                h.alive[w] = *alive;
                h.epochs[w] = h.epochs[w].max(*epoch);
            }
            MetaOp::BeginRepair { id } => {
                // The repair *history* stays replay-local: replayed
                // slots are state, not heal attempts.
                self.repairing.lock().insert(*id);
            }
            MetaOp::EndRepair { id } => {
                self.repairing.lock().remove(id);
            }
            MetaOp::SetThreshold { threshold } => {
                self.threshold.store((*threshold).max(1), Ordering::Relaxed);
            }
            MetaOp::MasterEpoch { epoch, addr } => {
                let mut owner = self.owner_addr.lock();
                if *epoch >= self.master_epoch.load(Ordering::SeqCst) {
                    self.master_epoch.store(*epoch, Ordering::SeqCst);
                    *owner = addr.clone();
                }
            }
            MetaOp::SetIntegrity { id, integrity } => {
                if integrity.is_empty() {
                    self.integrity.write().remove(id);
                } else {
                    self.integrity.write().insert(*id, integrity.clone());
                }
            }
            MetaOp::Snapshot(img) => self.load_image(img),
        }
    }

    /// Writes a compacted snapshot if enough records accumulated since
    /// the last one. Blocks mutators for the duration of the image
    /// capture (read locks + the repair-slot mutex), so no op can slip
    /// between the image and the snapshot record's LSN — the
    /// no-lost-op compaction invariant. Call from a maintenance tick
    /// (the supervisor does), never from inside a mutator.
    pub fn maybe_compact(&self) {
        let Some(log) = self.journal.read().clone() else {
            return;
        };
        if !log.snapshot_due() {
            return;
        }
        let files = self.files.read();
        let integrity = self.integrity.read();
        let h = self.health.read();
        let owner = self.owner_addr.lock();
        let repairing = self.repairing.lock();
        let image = Self::image_from(
            &files,
            &integrity,
            &h,
            &repairing,
            self.threshold.load(Ordering::Relaxed),
        )
        .with_owner(self.master_epoch.load(Ordering::SeqCst), owner.clone());
        log.snapshot(&image);
    }

    /// Registers many files under one lock acquisition (the streaming
    /// seed path for million-file corpora).
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
        let mut files = self.files.write();
        for (id, size, servers) in entries {
            if files.contains_key(id) {
                return Err(StoreError::AlreadyExists(*id));
            }
            files.insert(
                *id,
                FileInfo {
                    size: *size,
                    servers: servers.clone(),
                    accesses: AtomicU64::new(0),
                    version: AtomicU64::new(1),
                },
            );
            self.journal_op(&MetaOp::RegisterFile {
                id: *id,
                size: *size as u64,
                servers: servers.clone(),
            });
        }
        Ok(())
    }

    /// Overrides the suspicion-ladder death threshold (default 3
    /// consecutive timeouts). Clamped to at least 1.
    pub fn set_suspicion_threshold(&self, threshold: u32) {
        // The health lock serializes the store+journal pair against a
        // concurrent compaction's image capture.
        let _h = self.health.write();
        self.threshold.store(threshold.max(1), Ordering::Relaxed);
        self.journal_op(&MetaOp::SetThreshold {
            threshold: threshold.max(1),
        });
    }

    /// Pre-sizes the health table for a fleet of `n` workers, all
    /// presumed alive. Called by the cluster at spawn; growing later
    /// (on first mention of a higher worker id) is also fine.
    pub fn ensure_workers(&self, n: usize) {
        self.health.write().ensure(n);
    }

    /// Records a sign of life from worker `w` (heartbeat reply or any
    /// successful response): clears suspicion and revives the worker.
    pub fn mark_alive(&self, w: usize) {
        let mut h = self.health.write();
        h.ensure(w + 1);
        // Journal only actual transitions — mark_alive fires on every
        // successful reply, and a quiet fleet must not grow the log.
        let changed = !h.alive[w] || h.suspicion[w] != 0;
        h.alive[w] = true;
        h.suspicion[w] = 0;
        h.last_seen[w] += 1;
        if changed {
            self.journal_op(&MetaOp::MarkAlive { w: w as u64 });
        }
    }

    /// Declares worker `w` dead (its request channel is closed — the
    /// definitive signal in this in-process cluster). The first
    /// alive→dead transition bumps the worker's fencing epoch, so any
    /// epoch the worker was granted before its death is now stale.
    pub fn mark_dead(&self, w: usize) {
        let mut h = self.health.write();
        h.ensure(w + 1);
        if h.alive[w] {
            h.epochs[w] += 1;
            h.alive[w] = false;
            self.journal_op(&MetaOp::MarkDead {
                w: w as u64,
                epoch: h.epochs[w],
            });
        }
        h.alive[w] = false;
    }

    /// Records a timeout against worker `w` (it may be hung rather than
    /// dead). After the configured threshold of consecutive timeouts
    /// (default 3, see [`Master::set_suspicion_threshold`]) the worker
    /// is declared dead. Returns the updated suspicion count.
    pub fn suspect(&self, w: usize) -> u32 {
        let threshold = self.threshold.load(Ordering::Relaxed);
        let mut h = self.health.write();
        h.ensure(w + 1);
        h.suspicion[w] += 1;
        if h.suspicion[w] >= threshold {
            if h.alive[w] {
                h.epochs[w] += 1;
            }
            h.alive[w] = false;
        }
        self.journal_op(&MetaOp::Suspect {
            w: w as u64,
            count: h.suspicion[w],
            alive: h.alive[w],
            epoch: h.epochs[w],
        });
        h.suspicion[w]
    }

    /// Grants worker `w` a fresh fencing epoch and revives it — the
    /// rejoin path for a crash-restarted (or newly adopted) worker.
    /// Returns the granted epoch; the caller must install it on the
    /// worker (`Request::SetEpoch`) before routing fenced traffic to
    /// it.
    pub fn register_worker(&self, w: usize) -> u64 {
        let mut h = self.health.write();
        h.ensure(w + 1);
        h.epochs[w] += 1;
        h.alive[w] = true;
        h.suspicion[w] = 0;
        self.journal_op(&MetaOp::RegisterWorker {
            w: w as u64,
            epoch: h.epochs[w],
        });
        h.epochs[w]
    }

    /// The fencing epoch table for workers `0..n` (0 = never
    /// registered).
    pub fn worker_epochs(&self, n: usize) -> Vec<u64> {
        let h = self.health.read();
        (0..n).map(|w| h.epochs.get(w).copied().unwrap_or(0)).collect()
    }

    /// Tries to acquire the repair slot for file `id`. Returns `false`
    /// if a repair is already in flight — the caller must NOT heal the
    /// file (the sweep/lazy-repair dedup contract). On `true` the
    /// caller owns the slot and must release it with
    /// [`Master::end_repair`] when the repair completes or aborts.
    pub fn begin_repair(&self, id: u64) -> bool {
        let mut repairing = self.repairing.lock();
        let acquired = repairing.insert(id);
        if acquired {
            self.repair_log.lock().push(id);
            self.journal_op(&MetaOp::BeginRepair { id });
        }
        acquired
    }

    /// Releases the repair slot for file `id`.
    pub fn end_repair(&self, id: u64) {
        let mut repairing = self.repairing.lock();
        if repairing.remove(&id) {
            self.journal_op(&MetaOp::EndRepair { id });
        }
    }

    /// Releases every in-flight repair slot, journalling an `EndRepair`
    /// for each; returns the released ids, ascending. Takeover hygiene:
    /// the healers holding these slots died with the old master, and a
    /// slot nobody holds would starve the file's repair forever (every
    /// future `begin_repair` would be refused).
    pub fn abandon_repairs(&self) -> Vec<u64> {
        let mut repairing = self.repairing.lock();
        let mut ids: Vec<u64> = repairing.iter().copied().collect();
        ids.sort_unstable();
        for id in &ids {
            self.journal_op(&MetaOp::EndRepair { id: *id });
        }
        repairing.clear();
        ids
    }

    /// Whether a repair of `id` is currently in flight.
    pub fn repairing(&self, id: u64) -> bool {
        self.repairing.lock().contains(&id)
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
        self.health.read().alive.get(w).copied().unwrap_or(true)
    }

    /// Heartbeats observed from worker `w`.
    pub fn heartbeats(&self, w: usize) -> u64 {
        self.health.read().last_seen.get(w).copied().unwrap_or(0)
    }

    /// The live subset of workers `0..n`, ascending.
    pub fn live_workers(&self, n: usize) -> Vec<usize> {
        let h = self.health.read();
        (0..n)
            .filter(|&w| h.alive.get(w).copied().unwrap_or(true))
            .collect()
    }

    /// Ids of files with at least one partition on a dead worker — the
    /// candidates for under-store recovery.
    pub fn degraded_files(&self) -> Vec<u64> {
        let files = self.files.read();
        let h = self.health.read();
        let mut ids: Vec<u64> = files
            .iter()
            .filter(|(_, info)| {
                info.servers
                    .iter()
                    .any(|&s| !h.alive.get(s).copied().unwrap_or(true))
            })
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
        if servers.is_empty() {
            return Err(empty_placement());
        }
        let mut files = self.files.write();
        if files.contains_key(&id) {
            return Err(StoreError::AlreadyExists(id));
        }
        self.journal_op(&MetaOp::RegisterFile {
            id,
            size: size as u64,
            servers: servers.clone(),
        });
        files.insert(
            id,
            FileInfo {
                size,
                servers,
                accesses: AtomicU64::new(0),
                version: AtomicU64::new(1),
            },
        );
        Ok(())
    }

    /// Removes a file's metadata; returns its former info if present.
    pub fn unregister(&self, id: u64) -> Option<FileInfo> {
        let mut files = self.files.write();
        let removed = files.remove(&id);
        if removed.is_some() {
            self.integrity.write().remove(&id);
            self.journal_op(&MetaOp::UnregisterFile { id });
        }
        removed
    }

    /// Installs (or, with an empty row, clears) file `id`'s integrity
    /// row: the per-partition checksums a verifying reader checks
    /// received bytes against, plus where the parity partitions live.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownFile`] if the file is not
    /// registered — a row must never outlive (or predate) its file.
    pub fn set_integrity(&self, id: u64, integrity: FileIntegrity) -> Result<(), StoreError> {
        // The files read lock orders this against a concurrent
        // unregister; the integrity write lock serializes the
        // store+journal pair.
        let files = self.files.read();
        if !files.contains_key(&id) {
            return Err(StoreError::UnknownFile(id));
        }
        let mut rows = self.integrity.write();
        self.journal_op(&MetaOp::SetIntegrity {
            id,
            integrity: integrity.clone(),
        });
        if integrity.is_empty() {
            rows.remove(&id);
        } else {
            rows.insert(id, integrity);
        }
        Ok(())
    }

    /// File `id`'s integrity row, if one was set (and not invalidated by
    /// a placement change since).
    pub fn integrity(&self, id: u64) -> Option<FileIntegrity> {
        self.integrity.read().get(&id).cloned()
    }

    /// Looks up a file's partition servers and size, bumping its access
    /// count (the read path, §6.1).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownFile`] if not registered.
    pub fn locate(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        let files = self.files.read();
        let info = files.get(&id).ok_or(StoreError::UnknownFile(id))?;
        info.accesses.fetch_add(1, Ordering::Relaxed);
        Ok((info.size, info.servers.clone()))
    }

    /// Like [`Master::locate`] but without counting an access (metadata
    /// inspection).
    pub fn peek(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        let files = self.files.read();
        let info = files.get(&id).ok_or(StoreError::UnknownFile(id))?;
        Ok((info.size, info.servers.clone()))
    }

    /// Number of registered files.
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }

    /// Access count of one file.
    pub fn accesses(&self, id: u64) -> u64 {
        self.files
            .read()
            .get(&id)
            .map_or(0, |i| i.accesses.load(Ordering::Relaxed))
    }

    /// Resets all access counters (start of a new measurement window; the
    /// paper repartitions every 12 h on the previous 24 h of counts).
    pub fn reset_accesses(&self) {
        for info in self.files.read().values() {
            info.accesses.store(0, Ordering::Relaxed);
        }
    }

    /// A snapshot `(ids, FileSet, PartitionMap)` of the current state with
    /// popularity estimated from access counts (uniform when no accesses
    /// were recorded yet). `n_workers` bounds the partition map.
    pub fn snapshot(&self, n_workers: usize) -> (Vec<u64>, FileSet, PartitionMap) {
        let files = self.files.read();
        assert!(!files.is_empty(), "snapshot of an empty master");
        let mut ids: Vec<u64> = files.keys().copied().collect();
        ids.sort_unstable();
        let total_acc: u64 = files
            .values()
            .map(|i| i.accesses.load(Ordering::Relaxed))
            .sum();
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
        (
            ids,
            FileSet::new(metas),
            PartitionMap::new(placements, n_workers),
        )
    }

    /// Plans a rebalance: runs Algorithm 1 on the observed popularity,
    /// derives new partition counts, and runs Algorithm 2 against the
    /// current placement. Returns `(ids, plan, tuned)`; apply with
    /// [`Master::apply_placement`] after the repartitioners have moved
    /// the bytes.
    pub fn plan_rebalance(
        &self,
        n_workers: usize,
        bandwidth: f64,
        lambda_total: f64,
        cfg: &TunerConfig,
        seed: u64,
    ) -> (Vec<u64>, RepartitionPlan, Tuned) {
        let (ids, fileset, map) = self.snapshot(n_workers);
        let live = self.live_workers(n_workers);
        assert!(!live.is_empty(), "no live workers to plan against");
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
        if live.len() < n_workers {
            remap_dead_targets(&mut plan, &live);
        }
        (ids, plan, tuned)
    }

    /// Returns every registered file id with its current servers
    /// (sorted by id) — the health scan used by recovery.
    pub fn placements(&self) -> Vec<(u64, Vec<usize>)> {
        let files = self.files.read();
        let mut out: Vec<(u64, Vec<usize>)> = files
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
        if servers.is_empty() {
            return Err(empty_placement());
        }
        let mut files = self.files.write();
        let info = files.get_mut(&id).ok_or(StoreError::UnknownFile(id))?;
        info.servers = servers;
        let version = info.version.fetch_add(1, Ordering::Relaxed) + 1;
        // The new placement re-splits the bytes: every stored checksum
        // is stale. Writers that know the fresh sums (recovery) re-set
        // the row afterwards.
        self.integrity.write().remove(&id);
        self.journal_op(&MetaOp::ApplyPlacement {
            id,
            servers: info.servers.clone(),
            version,
        });
        Ok(())
    }

    /// The placement version of file `id` (1 at registration, +1 per
    /// [`Master::apply_placement`]); `None` if unregistered. Sweeps
    /// compare this against the version they captured at enumeration
    /// to detect placements that moved under them.
    pub fn placement_version(&self, id: u64) -> Option<u64> {
        self.files
            .read()
            .get(&id)
            .map(|info| info.version.load(Ordering::Relaxed))
    }
}

/// The metadata-plane surface a client needs from its master: file
/// registration and lookup, placement swaps, and worker-health
/// reporting.
///
/// Two implementations exist: [`Master`] itself (the in-process
/// metadata service, also what a master *server* wraps) and
/// `spcache_net::MasterClient` (the same calls framed onto a TCP
/// connection). The client and the under-store recovery path are
/// written against this trait, so they work identically in both
/// deployments.
pub trait MetaService: Send + Sync + std::fmt::Debug {
    /// Registers a new file (see [`Master::register`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] if the id is taken; transport
    /// errors over the wire.
    fn register(&self, id: u64, size: usize, servers: Vec<usize>) -> Result<(), StoreError>;

    /// Removes a file's metadata, returning its former `(size, servers)`
    /// if it was registered.
    fn unregister_file(&self, id: u64) -> Option<(usize, Vec<usize>)>;

    /// Looks up `(size, servers)`, counting an access.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownFile`]; transport errors over the wire.
    fn locate(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError>;

    /// Looks up `(size, servers)` without counting an access.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownFile`]; transport errors over the wire.
    fn peek(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError>;

    /// Atomically installs a new placement for `id`.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownFile`]; transport errors over the wire.
    fn apply_placement(&self, id: u64, servers: Vec<usize>) -> Result<(), StoreError>;

    /// Reports a sign of life from worker `w`.
    fn mark_alive(&self, w: usize);

    /// Declares worker `w` dead.
    fn mark_dead(&self, w: usize);

    /// Reports a timeout against worker `w`; returns the suspicion
    /// count (0 when the report could not be delivered).
    fn suspect(&self, w: usize) -> u32;

    /// Whether worker `w` is believed alive.
    fn is_alive(&self, w: usize) -> bool;

    /// The live subset of workers `0..n`, ascending.
    fn live_workers(&self, n: usize) -> Vec<usize>;

    /// Files with at least one partition on a dead worker.
    fn degraded_files(&self) -> Vec<u64>;

    /// The fencing epoch table for workers `0..n` (0 = unregistered;
    /// an empty vector over the wire means "unknown — do not fence").
    fn worker_epochs(&self, n: usize) -> Vec<u64>;

    /// Grants worker `w` a fresh fencing epoch and revives it (the
    /// rejoin path). Returns the granted epoch, or 0 when the grant
    /// could not be delivered over the wire.
    fn register_worker(&self, w: usize) -> u64;

    /// Tries to acquire the repair slot for file `id` (sweep/lazy
    /// dedup). `false` = a repair is already in flight, do not heal.
    /// Implementations that cannot reach the master answer `true`
    /// (availability over strict dedup).
    fn begin_repair(&self, id: u64) -> bool;

    /// Releases the repair slot for file `id`.
    fn end_repair(&self, id: u64);

    /// The master epoch this service acts under. 0 means "unstamped" —
    /// workers skip the master-staleness check, the pre-§4.14 wire
    /// behaviour. Only services that act *for* a master (the
    /// supervisor's) override this.
    fn master_epoch(&self) -> u64 {
        0
    }

    /// Registers a batch of `(id, size, servers)` files in one call —
    /// the streaming seed path. Default: loop over
    /// [`MetaService::register`] (wire implementations batch it into
    /// one frame).
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] on a duplicate id; transport
    /// errors over the wire.
    fn register_batch(&self, entries: &[(u64, usize, Vec<usize>)]) -> Result<(), StoreError> {
        for (id, size, servers) in entries {
            self.register(*id, *size, servers.clone())?;
        }
        Ok(())
    }

    /// Installs file `id`'s integrity row (checksums + parity
    /// placement). Default: accepted and dropped — services without the
    /// integrity tier behave like the pre-integrity store.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownFile`]; transport errors over the wire.
    fn set_integrity(&self, _id: u64, _integrity: FileIntegrity) -> Result<(), StoreError> {
        Ok(())
    }

    /// File `id`'s integrity row, `None` when absent/invalidated — and,
    /// availability-biased, when the service cannot answer (readers
    /// degrade to unverified rather than fail).
    fn integrity(&self, _id: u64) -> Option<FileIntegrity> {
        None
    }
}

impl MetaService for Master {
    fn register(&self, id: u64, size: usize, servers: Vec<usize>) -> Result<(), StoreError> {
        Master::register(self, id, size, servers)
    }

    fn unregister_file(&self, id: u64) -> Option<(usize, Vec<usize>)> {
        Master::unregister(self, id).map(|info| (info.size, info.servers))
    }

    fn locate(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        Master::locate(self, id)
    }

    fn peek(&self, id: u64) -> Result<(usize, Vec<usize>), StoreError> {
        Master::peek(self, id)
    }

    fn apply_placement(&self, id: u64, servers: Vec<usize>) -> Result<(), StoreError> {
        Master::apply_placement(self, id, servers)
    }

    fn mark_alive(&self, w: usize) {
        Master::mark_alive(self, w)
    }

    fn mark_dead(&self, w: usize) {
        Master::mark_dead(self, w)
    }

    fn suspect(&self, w: usize) -> u32 {
        Master::suspect(self, w)
    }

    fn is_alive(&self, w: usize) -> bool {
        Master::is_alive(self, w)
    }

    fn live_workers(&self, n: usize) -> Vec<usize> {
        Master::live_workers(self, n)
    }

    fn degraded_files(&self) -> Vec<u64> {
        Master::degraded_files(self)
    }

    fn worker_epochs(&self, n: usize) -> Vec<u64> {
        Master::worker_epochs(self, n)
    }

    fn register_worker(&self, w: usize) -> u64 {
        Master::register_worker(self, w)
    }

    fn begin_repair(&self, id: u64) -> bool {
        Master::begin_repair(self, id)
    }

    fn end_repair(&self, id: u64) {
        Master::end_repair(self, id)
    }

    fn master_epoch(&self) -> u64 {
        Master::master_epoch(self)
    }

    fn register_batch(&self, entries: &[(u64, usize, Vec<usize>)]) -> Result<(), StoreError> {
        Master::register_batch(self, entries)
    }

    fn set_integrity(&self, id: u64, integrity: FileIntegrity) -> Result<(), StoreError> {
        Master::set_integrity(self, id, integrity)
    }

    fn integrity(&self, id: u64) -> Option<FileIntegrity> {
        Master::integrity(self, id)
    }
}

/// Rewrites a repartition plan so no job targets a dead worker: every
/// dead target is replaced by the lowest-indexed live worker not already
/// serving another partition of the same file, preserving the
/// distinct-server invariant. Deterministic (no RNG), so replanning
/// after the same failure yields the same placement.
///
/// # Panics
///
/// Panics if a job needs more targets than there are live workers —
/// callers must clamp partition counts to the live fleet first (as
/// [`Master::plan_rebalance`] does).
pub fn remap_dead_targets(plan: &mut RepartitionPlan, live: &[usize]) {
    let is_live = |w: usize| live.binary_search(&w).is_ok();
    for job in &mut plan.jobs {
        assert!(
            job.new_servers.len() <= live.len(),
            "job wants {} targets but only {} workers are alive",
            job.new_servers.len(),
            live.len()
        );
        for i in 0..job.new_servers.len() {
            if is_live(job.new_servers[i]) {
                continue;
            }
            let replacement = live
                .iter()
                .copied()
                .find(|w| !job.new_servers.contains(w))
                .expect("live fleet exhausted despite clamp");
            job.new_servers[i] = replacement;
        }
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
    fn snapshot_estimates_popularity_from_accesses() {
        let m = Master::new();
        m.register(0, 100, vec![0]).unwrap();
        m.register(1, 100, vec![1]).unwrap();
        for _ in 0..9 {
            let _ = m.locate(0);
        }
        let _ = m.locate(1);
        let (ids, fs, map) = m.snapshot(4);
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
        let (_, fs, _) = m.snapshot(2);
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
        let (ids, plan, tuned) = m.plan_rebalance(10, 125e6, 8.0, &TunerConfig::default(), 7);
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
        m.set_suspicion_threshold(2);
        m.suspect(0);
        m.suspect(0);
        assert!(!m.is_alive(0));
        assert_eq!(m.worker_epochs(3), vec![2, 3, 0]);
    }

    #[test]
    fn configurable_suspicion_threshold() {
        let m = Master::new();
        m.ensure_workers(2);
        m.set_suspicion_threshold(1);
        m.suspect(0);
        assert!(!m.is_alive(0), "threshold 1 kills on the first miss");
        assert!(m.is_alive(1));
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
        let (_, plan, _) = m.plan_rebalance(10, 125e6, 8.0, &TunerConfig::default(), 7);
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
        m.set_suspicion_threshold(5);
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
