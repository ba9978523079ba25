//! Cluster assembly: master + worker threads + client factory.

use std::sync::Arc;
use std::time::Duration;

use crate::backing::UnderStore;
use crate::client::Client;
use crate::config::StoreConfig;
use crate::fault::FaultLog;
use crate::master::Master;
use crate::rpc::{Request, StoreError, WorkerStats};
use crate::supervisor::{Supervisor, SupervisorCore};
use crate::transport::{ChannelTransport, Transport};
use crate::worker::{spawn_worker_opts, WorkerHandle, WorkerOptions};

/// A running in-process store cluster.
///
/// Dropping the cluster shuts every worker down.
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
    // Declared first so it drops (stopping its heartbeat thread) before
    // the workers shut down — a supervisor outliving its fleet would
    // mis-record every worker as newly dead on the way out.
    supervisor: Option<Supervisor>,
    master: Arc<Master>,
    workers: Vec<WorkerHandle>,
    transport: Arc<ChannelTransport>,
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
        assert!(cfg.n_workers > 0, "need at least one worker");
        let fault_log = Arc::new(FaultLog::new());
        let workers: Vec<WorkerHandle> = (0..cfg.n_workers)
            .map(|id| {
                spawn_worker_opts(WorkerOptions::from_config(
                    id,
                    &cfg,
                    Arc::clone(&fault_log),
                    under.clone(),
                ))
            })
            .collect();
        let transport = Arc::new(ChannelTransport::new(
            workers.iter().map(|w| w.sender().clone()).collect(),
        ));
        let master = Arc::new(Master::new());
        master.ensure_workers(cfg.n_workers);
        let supervisor = cfg.supervisor.enabled.then(|| {
            let t: Arc<dyn Transport> = transport.clone();
            Supervisor::spawn(SupervisorCore::new(
                master.clone(),
                t,
                under.clone(),
                cfg.supervisor,
                cfg.retry,
            ))
        });
        StoreCluster {
            supervisor,
            master,
            workers,
            transport,
            fault_log,
            under,
            cfg,
        }
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// The metadata master.
    pub fn master(&self) -> &Arc<Master> {
        &self.master
    }

    /// The record of injected faults that have fired so far.
    pub fn fault_log(&self) -> &Arc<FaultLog> {
        &self.fault_log
    }

    /// The in-process channel transport over this cluster's workers
    /// (used by the repartitioners and by tests that poke workers
    /// directly).
    pub fn transport(&self) -> &Arc<ChannelTransport> {
        &self.transport
    }

    /// The supervisor, when `cfg.supervisor.enabled` spawned one.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// The attached under-store, when the cluster was spawned with one.
    pub fn under_store(&self) -> Option<&Arc<UnderStore>> {
        self.under.as_ref()
    }

    /// Creates a client carrying the cluster's retry and hedge policies.
    /// Under a supervisor the client is additionally **fenced** (stamps
    /// registration epochs onto data requests) and applies the
    /// configured degraded-mode admission policy; the cluster's
    /// under-store, if any, is attached for read-path healing.
    pub fn client(&self) -> Client {
        Client::from_config(
            self.master.clone(),
            self.transport.clone(),
            &self.cfg,
            self.under.clone(),
        )
    }

    /// Collects per-worker service counters. Dead workers report
    /// defaults (a killed machine has no counters to offer).
    pub fn worker_stats(&self) -> Result<Vec<WorkerStats>, StoreError> {
        Ok(self
            .workers
            .iter()
            .map(|w| w.stats().unwrap_or_default())
            .collect())
    }

    /// Pings every worker with `timeout`, updating the master's health
    /// table from the outcome; returns the live worker ids. This is the
    /// heartbeat sweep a real SP-Master would run periodically.
    pub fn probe_liveness(&self, timeout: Duration) -> Vec<usize> {
        let mut live = Vec::new();
        let probes: Vec<_> = self
            .workers
            .iter()
            .map(|w| (w.id, self.transport.submit(w.id, Request::Ping)))
            .collect();
        for (id, probe) in probes {
            let alive = probe
                .is_ok_and(|rx| {
                    matches!(rx.recv_timeout(timeout), Ok(crate::rpc::Reply::Pong { .. }))
                });
            if alive {
                self.master.mark_alive(id);
                live.push(id);
            } else {
                self.master.mark_dead(id);
            }
        }
        live
    }

    /// Terminates one worker thread — a simulated machine failure. All
    /// its cached partitions are lost; subsequent requests to it report
    /// [`StoreError::WorkerDown`] (recoverable via
    /// [`crate::backing::read_or_recover`] when checkpoints exist). The
    /// master learns of the death immediately.
    pub fn kill_worker(&mut self, id: usize) {
        self.workers[id].shutdown();
        self.master.mark_dead(id);
    }

    /// Bytes served per worker — the load-distribution measurement used by
    /// the store-level imbalance checks.
    pub fn served_bytes(&self) -> Result<Vec<f64>, StoreError> {
        Ok(self
            .worker_stats()?
            .into_iter()
            .map(|s| s.bytes_served as f64)
            .collect())
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
        let mut cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
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
