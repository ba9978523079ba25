//! A full store cluster over loopback TCP: N [`WorkerServer`]s, a
//! [`MasterServer`] and a wire [`Client`] — the drop-in twin of the
//! in-process `StoreCluster`, with every byte crossing a real socket.

use spcache_store::backing::UnderStore;
use spcache_store::client::Client;
use spcache_store::fault::FaultLog;
use spcache_store::master::Master;
use spcache_store::rpc::{Request, StoreError, WorkerStats};
use spcache_store::supervisor::{Supervisor, SupervisorCore};
use spcache_store::transport::Transport;
use spcache_store::StoreConfig;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use crate::master_net::{MasterClient, MasterServer};
use crate::server::WorkerServer;
use crate::tcp::TcpTransport;

/// A running loopback-TCP store cluster.
///
/// # Examples
///
/// ```
/// use spcache_net::TcpCluster;
/// use spcache_store::StoreConfig;
///
/// let cluster = TcpCluster::spawn(StoreConfig::unthrottled(3));
/// let client = cluster.client();
/// client.write(1, b"over real sockets", &[0, 2]).unwrap();
/// assert_eq!(client.read(1).unwrap(), b"over real sockets");
/// cluster.shutdown();
/// ```
#[derive(Debug)]
pub struct TcpCluster {
    // Declared first so it drops (stopping its heartbeat thread) before
    // the worker servers go away — mirrors `StoreCluster`.
    supervisor: Option<Supervisor>,
    workers: Vec<WorkerServer>,
    master_server: MasterServer,
    transport: Arc<TcpTransport>,
    fault_log: Arc<FaultLog>,
    under: Option<Arc<UnderStore>>,
    cfg: StoreConfig,
}

impl TcpCluster {
    /// Spawns `cfg.n_workers` worker servers and a master server, all on
    /// ephemeral loopback ports. Each worker receives its slice of
    /// `cfg.faults`; fired faults land in [`TcpCluster::fault_log`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0` or a listener cannot bind.
    pub fn spawn(cfg: StoreConfig) -> Self {
        TcpCluster::spawn_with_under_store(cfg, None)
    }

    /// Like [`TcpCluster::spawn`], with a backing under-store the
    /// supervisor's recovery sweep (and clients created via
    /// [`TcpCluster::client`]) heal from. When `cfg.supervisor.enabled`,
    /// the [`Supervisor`] runs master-side over this cluster's own wire
    /// transport — the deployment shape of `spcached master`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0` or a listener cannot bind.
    pub fn spawn_with_under_store(cfg: StoreConfig, under: Option<Arc<UnderStore>>) -> Self {
        assert!(cfg.n_workers > 0, "need at least one worker");
        let fault_log = Arc::new(FaultLog::new());
        let io_shards = crate::poll::default_io_shards();
        let workers: Vec<WorkerServer> = (0..cfg.n_workers)
            .map(|id| {
                // Budgeted workers spill into the cluster's shared
                // under-store tier (mirrors `StoreCluster`): whole-file
                // checkpoints there make evictions free drops.
                WorkerServer::spawn(
                    id,
                    "127.0.0.1:0",
                    &cfg,
                    Arc::clone(&fault_log),
                    io_shards,
                    under.clone(),
                )
                .expect("bind worker listener")
            })
            .collect();
        let addrs: Vec<SocketAddr> = workers.iter().map(WorkerServer::addr).collect();
        let master = Arc::new(Master::new());
        master.ensure_workers(cfg.n_workers);
        let master_server = MasterServer::spawn(
            master.clone(),
            "127.0.0.1:0",
            addrs.clone(),
            cfg.executor_deadline,
        )
        .expect("bind master listener");
        let transport =
            Arc::new(TcpTransport::connect(addrs).with_deadline(cfg.retry.deadline));
        let supervisor = cfg.supervisor.enabled.then(|| {
            let t: Arc<dyn Transport> = transport.clone();
            Supervisor::spawn(SupervisorCore::new(
                master,
                t,
                under.clone(),
                cfg.supervisor,
                cfg.retry,
            ))
        });
        TcpCluster {
            supervisor,
            workers,
            master_server,
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

    /// Worker listen addresses, in index order.
    pub fn worker_addrs(&self) -> Vec<SocketAddr> {
        self.workers.iter().map(WorkerServer::addr).collect()
    }

    /// The master's listen address.
    pub fn master_addr(&self) -> SocketAddr {
        self.master_server.addr()
    }

    /// The in-process [`Master`] behind the master server — the same
    /// instance the wire mutates, so tests can assert on metadata
    /// without another RPC layer.
    pub fn master(&self) -> &Arc<Master> {
        self.master_server.master()
    }

    /// The record of injected faults that have fired so far.
    pub fn fault_log(&self) -> &Arc<FaultLog> {
        &self.fault_log
    }

    /// The shared worker transport.
    pub fn transport(&self) -> &Arc<TcpTransport> {
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

    /// A fresh wire-backed [`MasterClient`] for this cluster's master.
    pub fn master_client(&self) -> MasterClient {
        MasterClient::connect(self.master_server.addr()).with_deadline(self.cfg.retry.deadline)
    }

    /// Creates a client whose metadata *and* data paths both run over
    /// TCP, carrying the cluster's retry and hedge policies. Under a
    /// supervisor the client is additionally **fenced** and applies the
    /// configured degraded-mode admission policy; the cluster's
    /// under-store, if any, is attached for read-path healing.
    pub fn client(&self) -> Client {
        Client::from_config(
            Arc::new(self.master_client()),
            self.transport.clone(),
            &self.cfg,
            self.under.clone(),
        )
    }

    /// Collects per-worker service counters over the wire. Workers that
    /// fail to answer report defaults.
    pub fn worker_stats(&self) -> Result<Vec<WorkerStats>, StoreError> {
        Ok(self
            .workers
            .iter()
            .map(|w| {
                self.transport
                    .call(w.id(), Request::Stats, Duration::from_secs(5))
                    .and_then(|r| r.stats())
                    .unwrap_or_default()
            })
            .collect())
    }

    /// Gracefully stops the whole cluster: the supervisor halts first
    /// (so it cannot mis-record the drain as deaths), then each worker
    /// drains its queue and exits (over the wire), then the master
    /// server closes.
    pub fn shutdown(mut self) {
        if let Some(mut s) = self.supervisor.take() {
            s.stop();
        }
        for w in &self.workers {
            let _ = self
                .transport
                .call(w.id(), Request::Shutdown, Duration::from_secs(10));
        }
        let client = self.master_client();
        let _ = client.shutdown_server();
        for w in self.workers {
            w.join();
        }
        self.master_server.join();
    }
}
