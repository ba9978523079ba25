//! Cluster assembly: one harness for every fleet.
//!
//! A [`StoreCluster`] owns what every cluster has — the master, the
//! fault log, the under-store, the config and the supervisor — and
//! writes each method over them once. A [`Fleet`] owns the two things
//! that differ: where the workers run, and how a new client reaches the
//! master. This crate's fleet runs worker threads in the process;
//! `spcache-net`'s runs loopback servers behind the same cluster.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::backing::UnderStore;
use crate::client::Client;
use crate::config::StoreConfig;
use crate::fault::FaultLog;
use crate::master::{Master, MetaService};
use crate::rpc::{Reply, Request, StoreError, WorkerStats};
use crate::supervisor::{Supervisor, SupervisorCore};
use crate::transport::{ChannelTransport, Transport};
use crate::worker::{spawn_worker, WorkerHandle};

/// How long a control request to one worker (`Stats`, `Shutdown`) may
/// take before the worker counts as unreachable.
const CONTROL_DEADLINE: Duration = Duration::from_secs(10);

/// Where a cluster's workers run and how a new client reaches its
/// master. Dropping a fleet drains it: every worker serves what it was
/// sent before its `Shutdown`, then exits.
pub trait Fleet: fmt::Debug + Send + Sync {
    /// The transport to the workers, in worker-index order.
    fn transport(&self) -> &Arc<dyn Transport>;

    /// The metadata service a new client of `master` talks to.
    fn meta(&self, master: &Arc<Master>) -> Arc<dyn MetaService>;
}

/// Worker threads in this process, reached over channels.
#[derive(Debug)]
struct Threads {
    // Held for their drop, which shuts each worker down and joins it.
    _workers: Vec<WorkerHandle>,
    transport: Arc<dyn Transport>,
}

impl Threads {
    fn spawn(cfg: &StoreConfig, log: &Arc<FaultLog>, under: Option<&Arc<UnderStore>>) -> Threads {
        let workers: Vec<WorkerHandle> = (0..cfg.n_workers)
            .map(|id| spawn_worker(id, cfg, log.clone(), under.cloned()))
            .collect();
        let senders = workers.iter().map(|w| w.sender().clone()).collect();
        Threads { transport: Arc::new(ChannelTransport::new(senders)), _workers: workers }
    }
}

impl Fleet for Threads {
    fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    fn meta(&self, master: &Arc<Master>) -> Arc<dyn MetaService> {
        master.clone()
    }
}

/// A running store cluster: a master and a [`Fleet`] of workers.
///
/// Dropping the cluster stops the supervisor first, then drains every
/// worker, then whatever serves the master.
///
/// # Examples
///
/// ```
/// use spcache_store::{StoreCluster, StoreConfig};
///
/// let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
/// let client = cluster.client();
/// client.write(1, b"selective partition", &[0, 2]).unwrap();
/// assert_eq!(client.read(1).unwrap(), b"selective partition");
/// ```
#[derive(Debug)]
pub struct StoreCluster {
    // Fields drop in declaration order. The supervisor goes first: one
    // outliving its fleet would mis-record every worker as newly dead
    // on the way out.
    supervisor: Option<Supervisor>,
    fleet: Box<dyn Fleet>,
    master: Arc<Master>,
    fault_log: Arc<FaultLog>,
    under: Option<Arc<UnderStore>>,
    cfg: StoreConfig,
}

impl StoreCluster {
    /// Spawns `cfg.n_workers` worker threads and an empty master. Each
    /// worker receives its slice of `cfg.faults`; fired faults land in
    /// the shared [`StoreCluster::fault_log`]. When
    /// `cfg.supervisor.enabled`, a [`Supervisor`] runs over the cluster
    /// (without an under-store it detects failures and fences epochs
    /// but cannot sweep — use [`StoreCluster::spawn_with_under_store`]
    /// for the full self-healing loop).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0`.
    pub fn spawn(cfg: StoreConfig) -> Self {
        StoreCluster::spawn_with_under_store(cfg, None)
    }

    /// Like [`StoreCluster::spawn`], with a backing under-store that the
    /// supervisor's recovery sweep (and clients created via
    /// [`StoreCluster::client`]) heal from.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0`.
    pub fn spawn_with_under_store(cfg: StoreConfig, under: Option<Arc<UnderStore>>) -> Self {
        let (cluster, ()) = StoreCluster::spawn_on(cfg, under, |cfg, _, log, under| {
            (Box::new(Threads::spawn(cfg, log, under)), ())
        });
        cluster
    }

    /// Assembles a cluster around the fleet `launch` starts from the
    /// config, an empty master sized for `cfg.n_workers`, a fresh fault
    /// log and the under-store; when `cfg.supervisor.enabled`, a
    /// [`Supervisor`] runs over the fleet's transport. Returns the
    /// cluster and whatever else `launch` returned beside its fleet.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0`.
    pub fn spawn_on<T>(
        cfg: StoreConfig,
        under: Option<Arc<UnderStore>>,
        launch: impl FnOnce(
            &StoreConfig,
            &Arc<Master>,
            &Arc<FaultLog>,
            Option<&Arc<UnderStore>>,
        ) -> (Box<dyn Fleet>, T),
    ) -> (Self, T) {
        assert!(cfg.n_workers > 0, "need at least one worker");
        let master = Arc::new(Master::new());
        master.ensure_workers(cfg.n_workers);
        let fault_log = Arc::new(FaultLog::new());
        let (fleet, extra) = launch(&cfg, &master, &fault_log, under.as_ref());
        let supervisor = cfg.supervisor.enabled.then(|| {
            Supervisor::spawn(SupervisorCore::new(
                master.clone(),
                fleet.transport().clone(),
                under.clone(),
                cfg.supervisor,
                cfg.retry,
            ))
        });
        (StoreCluster { supervisor, fleet, master, fault_log, under, cfg }, extra)
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.cfg.n_workers
    }

    /// The configuration the cluster was spawned with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// The metadata master — the same instance every client's requests
    /// mutate, so tests can assert on metadata without another RPC.
    pub fn master(&self) -> &Arc<Master> {
        &self.master
    }

    /// The record of injected faults that have fired so far.
    pub fn fault_log(&self) -> &Arc<FaultLog> {
        &self.fault_log
    }

    /// The transport to the workers (used by the repartitioners and by
    /// tests that poke workers directly).
    pub fn transport(&self) -> &Arc<dyn Transport> {
        self.fleet.transport()
    }

    /// The supervisor, when `cfg.supervisor.enabled` spawned one.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// The attached under-store, when the cluster was spawned with one.
    pub fn under_store(&self) -> Option<&Arc<UnderStore>> {
        self.under.as_ref()
    }

    /// A fresh metadata service for a new client: the master itself in
    /// process, a connection to the master's server over sockets.
    pub fn meta(&self) -> Arc<dyn MetaService> {
        self.fleet.meta(&self.master)
    }

    /// Creates a client carrying the cluster's retry policy.
    /// Under a supervisor the client is additionally **fenced** (stamps
    /// registration epochs onto data requests); the cluster's
    /// under-store, if any, is attached for read-path healing.
    pub fn client(&self) -> Client {
        Client::from_config(self.meta(), self.transport().clone(), &self.cfg, self.under.clone())
    }

    /// Collects per-worker service counters. A worker that does not
    /// answer reports defaults (a killed machine has no counters to
    /// offer).
    pub fn worker_stats(&self) -> Result<Vec<WorkerStats>, StoreError> {
        let stats = |w| {
            let reply = self.transport().call(w, Request::Stats, CONTROL_DEADLINE);
            reply.and_then(Reply::stats).unwrap_or_default()
        };
        Ok((0..self.n_workers()).map(stats).collect())
    }

    /// Pings every worker with `timeout`, updating the master's health
    /// table from the outcome; returns the live worker ids. This is the
    /// heartbeat sweep a real SP-Master would run periodically.
    pub fn probe_liveness(&self, timeout: Duration) -> Vec<usize> {
        let probes: Vec<_> =
            (0..self.n_workers()).map(|w| self.transport().submit(w, Request::Ping)).collect();
        let mut live = Vec::new();
        for (w, probe) in probes.into_iter().enumerate() {
            let alive =
                probe.is_ok_and(|rx| matches!(rx.recv_timeout(timeout), Ok(Reply::Pong { .. })));
            if alive {
                self.master.mark_alive(w);
                live.push(w);
            } else {
                self.master.mark_dead(w);
            }
        }
        live
    }

    /// Stops one worker — a simulated machine failure. It serves what it
    /// was sent before the `Shutdown`, then all its cached partitions are
    /// lost; later requests to it report [`StoreError::WorkerDown`]
    /// (recoverable via [`crate::backing::read_or_recover`] when
    /// checkpoints exist). The master learns of the death immediately.
    pub fn kill_worker(&self, id: usize) {
        let _ = self.transport().call(id, Request::Shutdown, CONTROL_DEADLINE);
        self.master.mark_dead(id);
    }

    /// Bytes served per worker — the load-distribution measurement used by
    /// the store-level imbalance checks.
    pub fn served_bytes(&self) -> Result<Vec<f64>, StoreError> {
        Ok(self.worker_stats()?.iter().map(|s| s.bytes_served as f64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn spawn_and_query_stats() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        assert_eq!(cluster.n_workers(), 3);
        let stats = cluster.worker_stats().unwrap();
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.gets == 0));
    }

    #[test]
    fn served_bytes_tracks_reads() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let c = cluster.client();
        c.write(1, &[7u8; 1000], &[0, 1]).unwrap();
        let _ = c.read(1).unwrap();
        let served = cluster.served_bytes().unwrap();
        assert_eq!(served, vec![500.0, 500.0]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = StoreCluster::spawn(StoreConfig::unthrottled(0));
    }

    #[test]
    fn probe_liveness_tracks_kill() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        assert_eq!(
            cluster.probe_liveness(Duration::from_millis(200)),
            vec![0, 1, 2]
        );
        cluster.kill_worker(1);
        assert_eq!(
            cluster.probe_liveness(Duration::from_millis(200)),
            vec![0, 2]
        );
        assert!(!cluster.master().is_alive(1));
        assert!(cluster.master().is_alive(0));
        assert!(cluster.master().heartbeats(0) >= 2);
        // A killed worker has no counters to offer.
        assert_eq!(cluster.worker_stats().unwrap()[1], WorkerStats::default());
    }

    #[test]
    fn scripted_crash_fires_and_is_logged() {
        let cfg = StoreConfig::unthrottled(2)
            .with_faults(FaultPlan::none().crash(1, 1));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        c.write(1, &[1u8; 100], &[1]).unwrap(); // op 0
        // Op 1 triggers the crash; the read fails.
        assert!(c.read(1).is_err());
        let log = cluster.fault_log().snapshot();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].worker, log[0].op), (1, 1));
        // Worker 0 unaffected.
        assert_eq!(cluster.probe_liveness(Duration::from_millis(200)), vec![0]);
    }
}
