//! The master-side supervisor: an autonomous self-healing loop
//! (DESIGN.md §4.11).
//!
//! PRs 1–3 built every mechanism this module needs — liveness counters,
//! under-store recovery, staged repartition — but left them *manual*: a
//! test had to call `probe_liveness`, and a dead worker degraded every
//! file it held until each was individually read. The supervisor closes
//! the loop:
//!
//! * **Heartbeat failure detector** — [`SupervisorCore::probe`] pings
//!   every worker each tick. A timeout climbs the master's suspicion
//!   ladder (alive → suspect → dead after
//!   [`crate::master::SUSPICION_THRESHOLD`] misses); a closed channel is
//!   definitive death.
//! * **Epoch-fenced rejoin** — a worker answering with an epoch the
//!   master does not expect (0 = unregistered, or a pre-crash grant) is
//!   *adopted*: the master issues a fresh fencing epoch
//!   ([`crate::master::Master::register_worker`]) and installs it with
//!   `Request::SetEpoch`. Until adoption lands, fenced clients bounce
//!   off the zombie with [`crate::rpc::StoreError::StaleEpoch`].
//! * **Proactive recovery sweep** — [`SupervisorCore::sweep`] enumerates
//!   every file with a partition on a dead worker and re-materializes it
//!   from the under-store onto the least-loaded live workers,
//!   deduplicating against in-flight lazy repairs through the master's
//!   repair registry (a file is never healed twice concurrently).
//! * **Deterministic driving** — with
//!   [`crate::config::SupervisorConfig::heartbeat_interval`] set to
//!   zero, no background thread runs and ticks happen only when a test
//!   calls [`Supervisor::tick`], so the same seed yields the same sweep
//!   plan; every sweep is recorded in a [`SweepLog`] whose snapshots
//!   compare byte-equal across transports.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::RecvTimeoutError;
use parking_lot::Mutex;

use crate::backing::{recover_file, UnderStore};
use crate::client::Client;
use crate::config::{RetryPolicy, SupervisorConfig};
use crate::master::Master;
use crate::rpc::{Reply, Request, StoreError};
use crate::transport::Transport;

/// What one recovery sweep did: the dead fleet it observed and the fate
/// of every degraded file it visited.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepRecord {
    /// Workers believed dead when the sweep ran, ascending.
    pub dead: Vec<usize>,
    /// Files re-materialized from the under-store this sweep.
    pub healed: Vec<u64>,
    /// Files whose repair slot was already held (a lazy repair or an
    /// earlier sweep is healing them) — skipped, never healed twice.
    pub skipped: Vec<u64>,
    /// Files that could not be healed (no checkpoint, or the heal
    /// itself failed); they stay degraded for the next sweep.
    pub unrecoverable: Vec<u64>,
}

/// The ordered record of every sweep a supervisor ran. The supervisor
/// is single-threaded, so append order *is* sweep order; snapshots of
/// two identically-seeded runs compare byte-equal.
#[derive(Debug, Default)]
pub struct SweepLog {
    records: Mutex<Vec<SweepRecord>>,
}

impl SweepLog {
    /// An empty log.
    pub fn new() -> Self {
        SweepLog::default()
    }

    /// Appends one sweep's record.
    pub fn record(&self, rec: SweepRecord) {
        self.records.lock().push(rec);
    }

    /// Number of sweeps recorded.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Whether no sweep has run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records, in sweep order.
    pub fn snapshot(&self) -> Vec<SweepRecord> {
        self.records.lock().clone()
    }
}

/// The supervisor's logic, free of any thread: one [`SupervisorCore::tick`]
/// probes the fleet and sweeps degraded files. [`Supervisor`] wraps it
/// in an optional background thread.
#[derive(Debug)]
pub struct SupervisorCore {
    master: Arc<Master>,
    transport: Arc<dyn Transport>,
    client: Client,
    under: Option<Arc<UnderStore>>,
    cfg: SupervisorConfig,
    sweep_log: Arc<SweepLog>,
}

impl SupervisorCore {
    /// Builds the supervisor logic over a master and a worker transport.
    /// `under` enables the recovery sweep (without it the supervisor
    /// only detects failures and fences epochs); `retry` shapes the
    /// deadlines of the sweep's own data traffic.
    pub fn new(
        master: Arc<Master>,
        transport: Arc<dyn Transport>,
        under: Option<Arc<UnderStore>>,
        cfg: SupervisorConfig,
        retry: RetryPolicy,
    ) -> Self {
        // Everything the supervisor pushes is maintenance traffic:
        // stamp it background so recovery sweeps are paced through the
        // workers' background NIC share (§4.4) instead of competing
        // with foreground reads at full rate.
        let client = Client::new(master.clone(), transport.clone())
            .with_retry(retry)
            .with_background(true)
            .with_master_stamp(true);
        SupervisorCore {
            master,
            transport,
            client,
            under,
            cfg,
            sweep_log: Arc::new(SweepLog::new()),
        }
    }

    /// The supervisor's configuration.
    pub fn cfg(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// The sweep record log.
    pub fn sweep_log(&self) -> &Arc<SweepLog> {
        &self.sweep_log
    }

    /// One full supervisor round: probe every worker, then sweep
    /// degraded files, then compact the metadata journal when a
    /// snapshot is due. Returns the sweep's record when one ran.
    ///
    /// A fenced master (deposed by a standby takeover — see
    /// [`Master::self_fence`]) does nothing: mutating the fleet from a
    /// stale master would fight the successor's supervisor.
    pub fn tick(&self) -> Option<SweepRecord> {
        if self.master.is_fenced() {
            return None;
        }
        self.probe();
        // An adopt inside probe may have discovered the deposition (a
        // worker bounced our master-epoch announcement); re-check
        // before mutating placements.
        if self.master.is_fenced() {
            return None;
        }
        let rec = self.sweep();
        self.master.maybe_compact();
        rec
    }

    /// One heartbeat round. For every worker: a `Ping` answered with the
    /// expected epoch is a sign of life; an unexpected epoch (0 =
    /// unregistered, or any stale grant) triggers adoption; a timeout
    /// climbs the suspicion ladder; a closed route is death.
    pub fn probe(&self) {
        let n = self.transport.n_workers();
        let expected = self.master.worker_epochs(n);
        for w in 0..n {
            match self.transport.submit(w, Request::Ping) {
                Err(StoreError::WorkerDown(_)) => self.master.mark_dead(w),
                Err(_) => {
                    self.master.suspect(w);
                }
                Ok(rx) => match rx.recv_timeout(self.cfg.probe_timeout) {
                    Ok(reply) => match reply.pong_epoch() {
                        Ok((_, have)) => {
                            let want = expected.get(w).copied().unwrap_or(0);
                            if have == want && want != 0 {
                                self.master.mark_alive(w);
                            } else {
                                self.adopt(w);
                            }
                        }
                        Err(_) => {
                            self.master.suspect(w);
                        }
                    },
                    Err(RecvTimeoutError::Disconnected) => self.master.mark_dead(w),
                    Err(RecvTimeoutError::Timeout) => {
                        self.master.suspect(w);
                    }
                },
            }
        }
    }

    /// Grants worker `w` a fresh fencing epoch and installs it. If the
    /// install fails the worker keeps bouncing fenced traffic and the
    /// next tick re-registers it with an even fresher epoch — the
    /// fencing invariant (no pre-death epoch is ever accepted again)
    /// holds either way.
    ///
    /// Before granting anything the supervisor announces its **master
    /// epoch** (§4.14). A worker that has already heard from a newer
    /// master bounces the announcement with [`StoreError::StaleEpoch`],
    /// which tells this master it was deposed: it fences itself forever
    /// and adopts nothing — the successor's supervisor owns the fleet.
    fn adopt(&self, w: usize) {
        let announce = Request::SetMasterEpoch(self.master.master_epoch());
        match self.transport.call(w, announce, self.cfg.probe_timeout) {
            Ok(Reply::Err(StoreError::StaleEpoch(_))) | Err(StoreError::StaleEpoch(_)) => {
                self.master.self_fence(None);
                return;
            }
            _ => {}
        }
        let epoch = self.master.register_worker(w);
        let _ = self
            .transport
            .call(w, Request::SetEpoch(epoch), self.cfg.probe_timeout);
    }

    /// One recovery sweep: re-materialize every degraded file from the
    /// under-store onto the least-loaded live workers. Files whose
    /// repair slot is held elsewhere are skipped (the dedup contract —
    /// see [`crate::master::Master::begin_repair`]), as are files whose
    /// placement version moved between enumeration and heal — a lazy
    /// repair, repartition commit or eviction-reload already re-placed
    /// them, and healing from the stale snapshot would re-materialize
    /// partitions the newer placement evicted. Returns `None` when
    /// there is no under-store or nothing is degraded.
    pub fn sweep(&self) -> Option<SweepRecord> {
        self.sweep_from(self.snapshot_degraded())
    }

    /// Enumerates the degraded files as `(id, placement version)`
    /// pairs — the snapshot a sweep dedupes against. Public so tests
    /// can interleave a competing heal between snapshot and sweep.
    pub fn snapshot_degraded(&self) -> Vec<(u64, u64)> {
        self.master
            .degraded_files()
            .into_iter()
            .map(|id| (id, self.master.placement_version(id).unwrap_or(0)))
            .collect()
    }

    /// Runs the heal phase of a sweep against a previously captured
    /// degraded snapshot (see [`SupervisorCore::sweep`]).
    pub fn sweep_from(&self, degraded: Vec<(u64, u64)>) -> Option<SweepRecord> {
        let under = self.under.as_ref()?;
        if degraded.is_empty() {
            return None;
        }
        let n = self.transport.n_workers();
        let live = self.master.live_workers(n);
        let mut rec = SweepRecord {
            dead: (0..n).filter(|&w| !self.master.is_alive(w)).collect(),
            ..SweepRecord::default()
        };
        // Partition count per live worker: the sweep places each heal on
        // the least-loaded targets, updating counts as it assigns so
        // concurrent heals in one sweep spread instead of piling up.
        let mut load: BTreeMap<usize, usize> = live.iter().map(|&w| (w, 0)).collect();
        for (_, servers) in self.master.placements() {
            for s in servers {
                if let Some(l) = load.get_mut(&s) {
                    *l += 1;
                }
            }
        }
        for (id, version) in degraded {
            if live.is_empty() || !under.contains(id) {
                rec.unrecoverable.push(id);
                continue;
            }
            // Version check just before the heal: if the placement
            // moved since enumeration, someone else already
            // re-materialized (or re-homed) the file — do not heal it
            // again from the stale snapshot.
            if self.master.placement_version(id) != Some(version) {
                rec.skipped.push(id);
                continue;
            }
            let k = self.master.peek(id).map(|(_, s)| s.len()).unwrap_or(1);
            let targets = pick_least_loaded(&live, &mut load, k);
            match recover_file(&self.client, &*self.master, under, id, &targets) {
                Ok(()) => rec.healed.push(id),
                Err(StoreError::Degraded(_)) => rec.skipped.push(id),
                Err(_) => rec.unrecoverable.push(id),
            }
        }
        self.sweep_log.record(rec.clone());
        Some(rec)
    }
}

/// Picks `k` (at least one, at most all) distinct least-loaded live
/// workers (ties broken by index), charging each pick back into `load`.
/// Deterministic: the same health state and placement map always yield
/// the same targets.
fn pick_least_loaded(live: &[usize], load: &mut BTreeMap<usize, usize>, k: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k.max(1) {
        let unpicked = live.iter().copied().filter(|w| !picked.contains(w));
        let Some(w) = unpicked.min_by_key(|&w| (load.get(&w).copied().unwrap_or(0), w)) else {
            break;
        };
        picked.push(w);
        *load.entry(w).or_insert(0) += 1;
    }
    picked
}

/// A running supervisor: owns a [`SupervisorCore`] and, when the
/// heartbeat interval is non-zero, the background thread driving it.
/// With a zero interval nothing runs on its own — tests call
/// [`Supervisor::tick`] to advance the loop deterministically.
///
/// Dropping the supervisor stops the thread.
#[derive(Debug)]
pub struct Supervisor {
    core: Arc<SupervisorCore>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Starts the supervisor. Spawns the heartbeat thread only when
    /// `core.cfg().heartbeat_interval > 0`.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses the thread (resource exhaustion; nothing
    /// a request carries reaches here).
    #[allow(clippy::expect_used)]
    pub fn spawn(core: SupervisorCore) -> Self {
        let core = Arc::new(core);
        let stop = Arc::new(AtomicBool::new(false));
        let interval = core.cfg().heartbeat_interval;
        let join = if interval > Duration::ZERO {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            Some(
                std::thread::Builder::new()
                    .name("spcache-supervisor".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            core.tick();
                            std::thread::sleep(interval);
                        }
                    })
                    .expect("failed to spawn supervisor thread"),
            )
        } else {
            None
        };
        Supervisor { core, stop, join }
    }

    /// The supervisor's logic (probe/sweep entry points, sweep log).
    pub fn core(&self) -> &Arc<SupervisorCore> {
        &self.core
    }

    /// The sweep record log.
    pub fn sweep_log(&self) -> &Arc<SweepLog> {
        self.core.sweep_log()
    }

    /// Drives one round manually (the deterministic-test path; also
    /// safe alongside a running heartbeat thread).
    pub fn tick(&self) -> Option<SweepRecord> {
        self.core.tick()
    }

    /// Stops and joins the heartbeat thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::checkpoint;
    use crate::cluster::StoreCluster;
    use crate::config::StoreConfig;
    use crate::fault::FaultPlan;
    use crate::transport::Transport;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 53 + 11) % 256) as u8).collect()
    }

    fn manual_core(cluster: &StoreCluster, under: Option<Arc<UnderStore>>) -> SupervisorCore {
        let transport: Arc<dyn Transport> = cluster.transport().clone();
        SupervisorCore::new(
            cluster.master().clone(),
            transport,
            under,
            SupervisorConfig::enabled()
                .with_interval(Duration::ZERO)
                .with_probe_timeout(Duration::from_millis(30)),
            RetryPolicy::default(),
        )
    }

    #[test]
    fn first_tick_registers_the_fleet_and_death_triggers_a_sweep() {
        let cluster =
            StoreCluster::spawn(StoreConfig::unthrottled(3).with_retry(RetryPolicy::default()));
        let under = Arc::new(UnderStore::new());
        let client = cluster.client().with_under_store(under.clone());
        let data = payload(5_000);
        client.write(1, &data, &[0, 1]).unwrap();
        checkpoint(&client, &under, 1).unwrap();

        let core = manual_core(&cluster, Some(under));
        // Tick 1: every worker is adopted at epoch 1; nothing to sweep.
        assert!(core.tick().is_none());
        assert_eq!(cluster.master().worker_epochs(3), vec![1, 1, 1]);

        cluster.kill_worker(1);
        let rec = core.tick().expect("death must trigger a sweep");
        assert_eq!(rec.dead, vec![1]);
        assert_eq!(rec.healed, vec![1]);
        assert!(rec.skipped.is_empty() && rec.unrecoverable.is_empty());
        // The file is whole again, placed off the dead worker, healed
        // exactly once.
        assert_eq!(client.read_quiet(1).unwrap(), data);
        let (_, servers) = cluster.master().peek(1).unwrap();
        assert!(servers.iter().all(|&s| s != 1));
        assert_eq!(cluster.master().repair_history(), vec![1]);
        // A further tick finds nothing degraded.
        assert!(core.tick().is_none());
        assert_eq!(core.sweep_log().len(), 1);
    }

    #[test]
    fn dropped_heartbeats_climb_the_ladder_and_readoption_fences() {
        let plan = FaultPlan::none()
            .drop_heartbeat(1, 0)
            .drop_heartbeat(1, 1)
            .drop_heartbeat(1, 2);
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2).with_faults(plan));
        let core = manual_core(&cluster, None);
        // Ticks 1–2: worker 1's pings are swallowed — suspicion, not
        // death (worker 0 registers at epoch 1 on the first tick).
        core.tick();
        assert_eq!(cluster.master().worker_epochs(2), vec![1, 0]);
        assert!(cluster.master().is_alive(1));
        core.tick();
        assert!(cluster.master().is_alive(1));
        // Tick 3: the third consecutive miss kills it and bumps the
        // fencing epoch.
        core.tick();
        assert!(!cluster.master().is_alive(1));
        assert_eq!(cluster.master().worker_epochs(2), vec![1, 1]);
        // Tick 4: the script is exhausted, the ping answers with epoch 0
        // — an unexpected epoch — so the worker is re-adopted with a
        // fresh grant and revived.
        core.tick();
        assert!(cluster.master().is_alive(1));
        assert_eq!(cluster.master().worker_epochs(2), vec![1, 2]);
        let reply = cluster
            .transport()
            .call(1, Request::Ping, Duration::from_millis(200))
            .unwrap();
        assert_eq!(reply.pong_epoch().unwrap(), (1, 2));
    }

    #[test]
    fn sweep_skips_files_whose_repair_is_already_in_flight() {
        let cluster =
            StoreCluster::spawn(StoreConfig::unthrottled(3).with_retry(RetryPolicy::default()));
        let under = Arc::new(UnderStore::new());
        let client = cluster.client().with_under_store(under.clone());
        client.write(1, &payload(2_000), &[0, 1]).unwrap();
        client.write(2, &payload(900), &[1]).unwrap();
        checkpoint(&client, &under, 1).unwrap();
        checkpoint(&client, &under, 2).unwrap();
        let core = manual_core(&cluster, Some(under));
        core.tick();
        cluster.kill_worker(1);
        // A lazy repair holds file 1's slot: the sweep must not heal it.
        assert!(cluster.master().begin_repair(1));
        let rec = core.tick().expect("sweep ran");
        assert_eq!(rec.skipped, vec![1]);
        assert_eq!(rec.healed, vec![2]);
        cluster.master().end_repair(1);
        // Next sweep picks up the released file.
        let rec = core.tick().expect("file 1 still degraded");
        assert_eq!(rec.healed, vec![1]);
        // Exactly one actual heal per file, plus the manual acquisition.
        assert_eq!(cluster.master().repair_history(), vec![1, 2, 1]);
    }

    #[test]
    fn sweep_skips_files_replaced_mid_sweep() {
        // The evicted-then-reloaded race: a sweep snapshots its
        // degraded list, but before it reaches file 1 a lazy repair
        // re-places the file (bumping its placement version). The
        // sweep must dedupe on (id, version) and skip, not
        // re-materialize partitions from its stale snapshot.
        let cluster =
            StoreCluster::spawn(StoreConfig::unthrottled(3).with_retry(RetryPolicy::default()));
        let under = Arc::new(UnderStore::new());
        let client = cluster.client().with_under_store(under.clone());
        let data = payload(3_000);
        client.write(1, &data, &[0, 1]).unwrap();
        checkpoint(&client, &under, 1).unwrap();
        let core = manual_core(&cluster, Some(under));
        core.tick();
        cluster.kill_worker(1);
        core.probe();

        // Snapshot the degraded list, then let a lazy heal win the race.
        let snap = core.snapshot_degraded();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, 1);
        assert_eq!(client.read(1).unwrap(), data);
        assert!(cluster.master().placement_version(1).unwrap() > snap[0].1);

        // The stale-snapshot sweep must skip, and must not acquire a
        // second repair slot for the file.
        let heals_before = cluster.master().repair_history().len();
        let rec = core.sweep_from(snap).expect("sweep ran");
        assert_eq!(rec.skipped, vec![1]);
        assert!(rec.healed.is_empty());
        assert_eq!(cluster.master().repair_history().len(), heals_before);
        assert_eq!(client.read_quiet(1).unwrap(), data);
    }

    #[test]
    fn supervisor_heals_are_background_traffic() {
        let cluster =
            StoreCluster::spawn(StoreConfig::unthrottled(3).with_retry(RetryPolicy::default()));
        let under = Arc::new(UnderStore::new());
        let client = cluster.client().with_under_store(under.clone());
        client.write(1, &payload(4_000), &[0, 1]).unwrap();
        checkpoint(&client, &under, 1).unwrap();
        let core = manual_core(&cluster, Some(under));
        core.tick();
        cluster.kill_worker(1);
        let rec = core.tick().expect("sweep ran");
        assert_eq!(rec.healed, vec![1]);
        // Every byte the sweep pushed landed as background traffic.
        let healed_bg: u64 = cluster
            .worker_stats()
            .unwrap()
            .iter()
            .map(|s| s.bytes_background)
            .sum();
        assert!(healed_bg > 0, "sweep pushes must be background-stamped");
    }

    #[test]
    fn least_loaded_picks_are_deterministic_and_distinct() {
        let live = vec![0, 2, 5];
        let mut load: BTreeMap<usize, usize> = [(0, 3), (2, 1), (5, 1)].into_iter().collect();
        let t = pick_least_loaded(&live, &mut load, 2);
        assert_eq!(t, vec![2, 5], "ties break by index");
        // Charges feed back: the next pick sees the updated load.
        let t = pick_least_loaded(&live, &mut load, 3);
        assert_eq!(t, vec![2, 5, 0]);
        // k is clamped to the live fleet.
        let t = pick_least_loaded(&live, &mut load, 9);
        assert_eq!(t.len(), 3);
    }
}
