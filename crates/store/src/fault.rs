//! Deterministic fault injection for the real store.
//!
//! SP-Cache is redundancy-free, so its fault story (§8) is the part of
//! the system hardest to trust from reasoning alone: a crashed cache
//! server simply loses partitions and every reader of those files stalls
//! until recovery kicks in. This module lets tests *script* failures so
//! the recovery machinery can be exercised reproducibly:
//!
//! * [`FaultPlan`] — a seed plus a list of [`FaultEvent`]s, each saying
//!   "when worker `w` dequeues its `op`-th data-path request, do X".
//!   Triggers are **operation-indexed**, not wall-clock, so the same
//!   `(seed, plan)` against the same request sequence fires the same
//!   faults in the same places regardless of thread scheduling.
//! * [`FaultAction`] — crash the worker, hang it for a bounded duration,
//!   silently drop one cached partition, or serve a request but lose the
//!   reply (models a one-way network partition).
//! * [`FaultLog`] — a cluster-wide record of every fault that actually
//!   fired. [`FaultLog::snapshot`] returns records sorted by
//!   `(worker, op)` so two runs of the same plan compare byte-equal even
//!   though workers append concurrently.
//!
//! The worker loop consults its [`WorkerScript`] (the per-worker slice of
//! the plan) before serving each data-path request; see
//! [`crate::worker`].

use std::sync::Mutex;
use std::time::Duration;

use rand::Rng;
use spcache_sim::Xoshiro256StarStar;

use crate::rpc::PartKey;

/// What an injected fault does to a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// The worker thread exits immediately; the in-flight request is
    /// dropped unanswered and every cached partition is lost.
    Crash,
    /// The worker sleeps before serving the request — a GC pause or
    /// overloaded machine. Readers with deadlines see a timeout.
    Hang(Duration),
    /// One cached partition silently vanishes (bit rot / eviction bug);
    /// the worker keeps serving everything else.
    DropPartition(PartKey),
    /// The request is served (side effects happen) but the reply never
    /// leaves the worker — a one-way partition between worker and client.
    LoseReply,
    /// **Wire fault.** The request is served but the connection carrying
    /// it is closed before the reply frame is written. Over TCP the
    /// client sees a reset ([`crate::rpc::StoreError::Io`], retryable);
    /// the in-process transport approximates it as a lost reply.
    DropConnection,
    /// **Wire fault.** The reply frame is held back for the given
    /// duration before hitting the socket — switch congestion or a slow
    /// NIC. Readers with deadlines may time out even though the worker
    /// served promptly.
    DelayFrame(Duration),
    /// **Wire fault.** Only a prefix of the reply frame is written
    /// before the connection drops — the classic torn TCP segment. The
    /// client's decoder must surface an incomplete frame as a retryable
    /// I/O error, never as bytes. In-process this degrades to a lost
    /// reply.
    TruncateFrame,
    /// **Heartbeat fault.** The worker swallows one supervisor `Ping`:
    /// the probe times out and the suspicion ladder advances, but the
    /// worker keeps serving data traffic — a one-way control-plane
    /// partition. Trigger indices count *pings received*, not data ops
    /// (see [`FaultPlan::heartbeat_script_for`]).
    DropHeartbeat,
    /// The worker "crashes and restarts" in place: its cached partitions
    /// vanish and its registered epoch resets to the unregistered
    /// sentinel (0), but the thread keeps serving — modelling a fast
    /// process restart with a cold cache. Until the supervisor re-adopts
    /// it (new epoch via `Register` + `SetEpoch`), fenced clients bounce
    /// off it with stale-epoch errors.
    CrashRestart,
    /// The worker answers one data-path request with a stale-epoch
    /// rejection regardless of the stamped epoch — a zombie that missed
    /// its own fencing, or a delayed delivery racing a re-registration.
    /// Clients must treat it as retryable and refresh their epoch cache.
    StaleEpochDelivery,
    /// One byte of a cached partition flips — bit rot. Where the flip
    /// lands is picked by [`CorruptSite`]: the resident copy, the spill
    /// area, or the next reply carrying the partition (an in-flight
    /// flip). The flipped byte index is `byte % len`, so the same event
    /// corrupts the same byte on every run regardless of partition
    /// size. The worker always flips a **copy** — stored `Bytes` may
    /// share the writer's allocation, and bit rot must never reach the
    /// ground-truth bytes a test compares against.
    ///
    /// Not a wire fault: the flip is applied by the worker thread on
    /// both transports (a client checksum catches the `Wire` site), so
    /// fault logs stay identical channel-vs-TCP.
    CorruptPartition {
        /// The partition to corrupt.
        key: PartKey,
        /// Where the flip lands.
        site: CorruptSite,
        /// Byte index to flip, taken modulo the partition length.
        byte: u64,
    },
}

/// Where a [`FaultAction::CorruptPartition`] flip lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptSite {
    /// The worker's resident in-memory copy.
    Resident,
    /// The under-store spill area (bit rot on the slow tier; surfaces on
    /// the next reload of the evicted partition). Falls back to the
    /// resident copy when the worker has no spill area or the key was
    /// never spilled.
    Spill,
    /// The next `Get` reply carrying this partition: the stored bytes
    /// stay clean, but the copy leaving the worker is flipped — a NIC or
    /// switch flipping a bit in flight. Only a client-side checksum can
    /// catch this one.
    Wire,
}

impl FaultAction {
    /// Whether this fault lives in the transport (connection/frame)
    /// rather than in the worker itself. The worker thread fires and
    /// logs wire faults like any other and hands them to the request's
    /// [`crate::rpc::ReplyRoute`]: a socket route cuts or delays the
    /// frame, the in-process route has no frames and *approximates*
    /// them — the fault log of a seeded run stays identical across
    /// transports.
    pub fn is_wire(&self) -> bool {
        matches!(
            self,
            FaultAction::DropConnection
                | FaultAction::DelayFrame(_)
                | FaultAction::TruncateFrame
        )
    }

    /// Whether this fault triggers on the heartbeat (ping) stream rather
    /// than the data-path op stream. Heartbeat faults live in their own
    /// script ([`FaultPlan::heartbeat_script_for`]) with their own
    /// counter, so scripting one can never shift the op indices of data
    /// or wire faults.
    pub fn is_heartbeat(&self) -> bool {
        matches!(self, FaultAction::DropHeartbeat)
    }
}

/// One scripted fault: `action` fires when `worker` dequeues its `op`-th
/// (0-based) data-path request. Control requests (`Stats`, `Ping`,
/// `Shutdown`) do not advance the op counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Target worker index.
    pub worker: usize,
    /// 0-based index of the data-path request that triggers the fault.
    pub op: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A reproducible script of faults for one cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults) — the default for every cluster.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds an event (builder style).
    pub fn with_event(mut self, worker: usize, op: u64, action: FaultAction) -> Self {
        self.events.push(FaultEvent { worker, op, action });
        self
    }

    /// Crashes `worker` at its `op`-th data-path request.
    pub fn crash(self, worker: usize, op: u64) -> Self {
        self.with_event(worker, op, FaultAction::Crash)
    }

    /// Hangs `worker` for `pause` before serving its `op`-th request.
    pub fn hang(self, worker: usize, op: u64, pause: Duration) -> Self {
        self.with_event(worker, op, FaultAction::Hang(pause))
    }

    /// Drops `key` from `worker`'s store at its `op`-th request.
    pub fn drop_partition(self, worker: usize, op: u64, key: PartKey) -> Self {
        self.with_event(worker, op, FaultAction::DropPartition(key))
    }

    /// Serves `worker`'s `op`-th request but loses the reply.
    pub fn lose_reply(self, worker: usize, op: u64) -> Self {
        self.with_event(worker, op, FaultAction::LoseReply)
    }

    /// Serves `worker`'s `op`-th request but drops the connection before
    /// the reply frame leaves.
    pub fn drop_connection(self, worker: usize, op: u64) -> Self {
        self.with_event(worker, op, FaultAction::DropConnection)
    }

    /// Delays `worker`'s `op`-th reply frame by `pause`.
    pub fn delay_frame(self, worker: usize, op: u64, pause: Duration) -> Self {
        self.with_event(worker, op, FaultAction::DelayFrame(pause))
    }

    /// Truncates `worker`'s `op`-th reply frame mid-write.
    pub fn truncate_frame(self, worker: usize, op: u64) -> Self {
        self.with_event(worker, op, FaultAction::TruncateFrame)
    }

    /// Swallows `worker`'s `nth_ping`-th supervisor heartbeat (0-based,
    /// counted over pings received — not data ops).
    pub fn drop_heartbeat(self, worker: usize, nth_ping: u64) -> Self {
        self.with_event(worker, nth_ping, FaultAction::DropHeartbeat)
    }

    /// Crash-restarts `worker` in place at its `op`-th data-path
    /// request: cache cleared, epoch reset to 0, thread keeps serving.
    pub fn crash_restart(self, worker: usize, op: u64) -> Self {
        self.with_event(worker, op, FaultAction::CrashRestart)
    }

    /// Makes `worker` bounce its `op`-th data-path request with a
    /// stale-epoch rejection.
    pub fn stale_epoch(self, worker: usize, op: u64) -> Self {
        self.with_event(worker, op, FaultAction::StaleEpochDelivery)
    }

    /// Flips byte `byte % len` of `key` at `worker`'s `op`-th data-path
    /// request, at the given [`CorruptSite`].
    pub fn corrupt(self, worker: usize, op: u64, key: PartKey, site: CorruptSite, byte: u64) -> Self {
        self.with_event(worker, op, FaultAction::CorruptPartition { key, site, byte })
    }

    /// Generates a random plan from a seed — the chaos-test entry point.
    ///
    /// Draws `n_events` events against `n_workers` workers, each firing
    /// within the first `max_op` data-path operations. `files` seeds the
    /// keys used by `DropPartition` events (an empty slice disables that
    /// action). The result is a pure function of the arguments, so the
    /// same `(seed, shape)` always yields the same plan.
    pub fn random(seed: u64, n_workers: usize, n_events: usize, max_op: u64, files: &[u64]) -> Self {
        assert!(n_workers > 0 && max_op > 0);
        let mut rng = Xoshiro256StarStar::seed(seed);
        let mut plan = FaultPlan::none();
        for _ in 0..n_events {
            let worker = (rng.next_u64() % n_workers as u64) as usize;
            let op = rng.next_u64() % max_op;
            let kinds = if files.is_empty() { 3 } else { 4 };
            let action = match rng.next_u64() % kinds {
                0 => FaultAction::Crash,
                1 => FaultAction::Hang(Duration::from_millis(1 + rng.next_u64() % 20)),
                2 => FaultAction::LoseReply,
                _ => {
                    let file = files[(rng.next_u64() % files.len() as u64) as usize];
                    let part = (rng.next_u64() % 4) as u32;
                    FaultAction::DropPartition(PartKey::new(file, part))
                }
            };
            plan = plan.with_event(worker, op, action);
        }
        plan
    }

    /// Extracts worker `w`'s op-indexed slice of the plan (wire *and*
    /// worker faults; heartbeat faults are excluded — they count pings,
    /// not ops, and live in [`FaultPlan::heartbeat_script_for`]),
    /// ordered by trigger op (ties keep plan order, so `DropPartition`
    /// scripted before `Crash` at the same op fires first).
    pub fn script_for(&self, worker: usize) -> WorkerScript {
        self.script_where(worker, |action| !action.is_heartbeat())
    }

    /// Worker `w`'s **heartbeat** events only, indexed over the pings it
    /// receives (a separate counter from data ops — supervisor cadence
    /// can change without shifting any scripted data fault).
    pub fn heartbeat_script_for(&self, worker: usize) -> WorkerScript {
        self.script_where(worker, FaultAction::is_heartbeat)
    }

    fn script_where(&self, worker: usize, keep: impl Fn(&FaultAction) -> bool) -> WorkerScript {
        let mut events: Vec<(u64, FaultAction)> = self
            .events
            .iter()
            .filter(|e| e.worker == worker && keep(&e.action))
            .map(|e| (e.op, e.action.clone()))
            .collect();
        events.sort_by_key(|&(op, _)| op);
        WorkerScript { events, cursor: 0 }
    }
}

/// The per-worker slice of a [`FaultPlan`], consumed as the worker's op
/// counter advances.
#[derive(Debug, Clone, Default)]
pub struct WorkerScript {
    events: Vec<(u64, FaultAction)>,
    cursor: usize,
}

impl WorkerScript {
    /// A script with no faults.
    pub fn empty() -> Self {
        WorkerScript::default()
    }

    /// Whether anything is left to fire.
    pub fn is_exhausted(&self) -> bool {
        self.cursor >= self.events.len()
    }

    /// Returns the actions due at data-path op `op` (all events with a
    /// trigger index `<= op` that have not fired yet), advancing the
    /// cursor past them.
    pub fn fire(&mut self, op: u64) -> Vec<FaultAction> {
        let mut due = Vec::new();
        while self.cursor < self.events.len() && self.events[self.cursor].0 <= op {
            due.push(self.events[self.cursor].1.clone());
            self.cursor += 1;
        }
        due
    }
}

/// One fault that actually fired, as observed by a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Worker the fault fired on.
    pub worker: usize,
    /// Data-path op index at which it fired.
    pub op: u64,
    /// The action taken.
    pub action: FaultAction,
}

/// Cluster-wide record of fired faults. Workers append concurrently;
/// [`FaultLog::snapshot`] canonicalises the order so identical runs
/// produce identical logs.
#[derive(Debug, Default)]
pub struct FaultLog {
    records: Mutex<Vec<FaultRecord>>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Appends a fired fault.
    pub fn record(&self, worker: usize, op: u64, action: FaultAction) {
        self.records
            .lock()
            .expect("fault log poisoned")
            .push(FaultRecord { worker, op, action });
    }

    /// Number of faults fired so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("fault log poisoned").len()
    }

    /// Whether no fault has fired.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A deterministic snapshot: records sorted by `(worker, op)` with
    /// per-worker firing order preserved (the sort is stable and each
    /// worker appends its own records in op order).
    pub fn snapshot(&self) -> Vec<FaultRecord> {
        let mut records = self.records.lock().expect("fault log poisoned").clone();
        records.sort_by_key(|r| (r.worker, r.op));
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events() {
        let plan = FaultPlan::none()
            .crash(1, 5)
            .hang(0, 2, Duration::from_millis(3))
            .drop_partition(2, 0, PartKey::new(7, 1))
            .lose_reply(1, 3);
        assert_eq!(plan.events().len(), 4);
        assert!(!plan.is_empty());
    }

    #[test]
    fn script_filters_and_sorts_per_worker() {
        let plan = FaultPlan::none()
            .crash(1, 5)
            .lose_reply(1, 3)
            .crash(0, 0);
        let mut s1 = plan.script_for(1);
        assert_eq!(s1.fire(3), vec![FaultAction::LoseReply]);
        assert_eq!(s1.fire(4), vec![]);
        assert_eq!(s1.fire(5), vec![FaultAction::Crash]);
        assert!(s1.is_exhausted());
        let mut s2 = plan.script_for(2);
        assert_eq!(s2.fire(100), vec![]);
    }

    #[test]
    fn fire_catches_up_on_skipped_ops() {
        let plan = FaultPlan::none().lose_reply(0, 1).crash(0, 2);
        let mut s = plan.script_for(0);
        // Op counter jumps straight to 9: both overdue events fire.
        assert_eq!(
            s.fire(9),
            vec![FaultAction::LoseReply, FaultAction::Crash]
        );
    }

    #[test]
    fn random_plan_is_reproducible() {
        let a = FaultPlan::random(42, 8, 16, 100, &[1, 2, 3]);
        let b = FaultPlan::random(42, 8, 16, 100, &[1, 2, 3]);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 8, 16, 100, &[1, 2, 3]);
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.events().len(), 16);
        assert!(a.events().iter().all(|e| e.worker < 8 && e.op < 100));
    }

    #[test]
    fn random_plan_without_files_never_drops_partitions() {
        let plan = FaultPlan::random(7, 4, 64, 50, &[]);
        assert!(plan
            .events()
            .iter()
            .all(|e| !matches!(e.action, FaultAction::DropPartition(_))));
    }

    #[test]
    fn wire_classification() {
        assert!(FaultAction::DropConnection.is_wire());
        assert!(FaultAction::DelayFrame(Duration::ZERO).is_wire());
        assert!(FaultAction::TruncateFrame.is_wire());
        assert!(!FaultAction::Crash.is_wire());
        assert!(!FaultAction::LoseReply.is_wire());
        // Corruption is a *worker* fault even at the Wire site: the
        // worker flips the reply copy itself, so the same plan fires
        // identically over channels and sockets.
        assert!(!FaultAction::CorruptPartition {
            key: PartKey::new(1, 0),
            site: CorruptSite::Wire,
            byte: 3,
        }
        .is_wire());
        assert!(!FaultAction::DropHeartbeat.is_wire());
        assert!(!FaultAction::CrashRestart.is_wire());
        assert!(!FaultAction::StaleEpochDelivery.is_wire());
    }

    #[test]
    fn heartbeat_classification() {
        assert!(FaultAction::DropHeartbeat.is_heartbeat());
        assert!(!FaultAction::CrashRestart.is_heartbeat());
        assert!(!FaultAction::StaleEpochDelivery.is_heartbeat());
        assert!(!FaultAction::Crash.is_heartbeat());
        assert!(!FaultAction::DropConnection.is_heartbeat());
    }

    #[test]
    fn heartbeat_script_is_disjoint_from_op_scripts() {
        let plan = FaultPlan::none()
            .drop_heartbeat(0, 1)
            .crash_restart(0, 4)
            .stale_epoch(0, 2)
            .drop_heartbeat(0, 0)
            .drop_connection(0, 3)
            .lose_reply(0, 5);
        // Heartbeat script sees only the ping-indexed drops, sorted.
        let mut hb = plan.heartbeat_script_for(0);
        assert_eq!(
            hb.fire(100),
            vec![FaultAction::DropHeartbeat, FaultAction::DropHeartbeat]
        );
        // The combined op script excludes heartbeats entirely.
        let mut all = plan.script_for(0);
        assert_eq!(
            all.fire(100),
            vec![
                FaultAction::StaleEpochDelivery,
                FaultAction::DropConnection,
                FaultAction::CrashRestart,
                FaultAction::LoseReply,
            ]
        );
    }

    #[test]
    fn log_snapshot_is_sorted() {
        let log = FaultLog::new();
        log.record(2, 0, FaultAction::Crash);
        log.record(0, 3, FaultAction::LoseReply);
        log.record(0, 1, FaultAction::Crash);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!((snap[0].worker, snap[0].op), (0, 1));
        assert_eq!((snap[1].worker, snap[1].op), (0, 3));
        assert_eq!((snap[2].worker, snap[2].op), (2, 0));
    }
}
