//! A store cluster over loopback TCP: N [`WorkerServer`]s and a
//! [`MasterServer`] behind the one `StoreCluster` harness, with every
//! byte crossing a real socket — plus [`twin`], which runs the same test
//! body on an in-process cluster and on this one.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use spcache_store::backing::UnderStore;
use spcache_store::cluster::Fleet;
use spcache_store::fault::FaultLog;
use spcache_store::master::{Master, MetaService};
use spcache_store::transport::Transport;
use spcache_store::{Request, StoreCluster, StoreConfig};
use std::net::SocketAddr;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use crate::master_net::{MasterClient, MasterServer};
use crate::server::WorkerServer;
use crate::tcp::TcpTransport;

/// How long a drained worker may take to acknowledge its `Shutdown`.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Worker and master servers on ephemeral loopback ports.
#[derive(Debug)]
struct Loopback {
    workers: Vec<WorkerServer>,
    /// Taken when the fleet drops, to join its loop.
    master: Option<MasterServer>,
    master_addr: SocketAddr,
    transport: Arc<dyn Transport>,
    deadline: Duration,
}

impl Loopback {
    /// Binds `cfg.n_workers` worker servers and a master server on
    /// ephemeral loopback ports, and connects a transport to the workers.
    ///
    /// # Panics
    ///
    /// Panics if a listener cannot bind, as [`TcpCluster::spawn`]
    /// documents: the cluster harness that calls this has no way to
    /// hand an error back.
    #[allow(clippy::expect_used)]
    fn spawn(
        cfg: &StoreConfig,
        master: &Arc<Master>,
        log: &Arc<FaultLog>,
        under: Option<&Arc<UnderStore>>,
    ) -> Loopback {
        let (bind, io_shards) = ("127.0.0.1:0", crate::poll::default_io_shards());
        let workers: Vec<WorkerServer> = (0..cfg.n_workers)
            .map(|id| WorkerServer::spawn(id, bind, cfg, log.clone(), io_shards, under.cloned()))
            .collect::<Result<_, _>>()
            .expect("bind worker listener");
        let addrs: Vec<SocketAddr> = workers.iter().map(WorkerServer::addr).collect();
        let master =
            MasterServer::spawn(master.clone(), bind, addrs.clone()).expect("bind master listener");
        let deadline = cfg.retry.deadline;
        let transport = Arc::new(TcpTransport::connect(addrs).with_deadline(deadline));
        Loopback { workers, master_addr: master.addr(), master: Some(master), transport, deadline }
    }
}

impl Fleet for Loopback {
    fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    fn meta(&self, _: &Arc<Master>) -> Arc<dyn MetaService> {
        Arc::new(MasterClient::connect(self.master_addr).with_deadline(self.deadline))
    }
}

impl Drop for Loopback {
    /// Each worker drains its queue and exits over the wire, then the
    /// master's server closes — so no listener or I/O loop outlives the
    /// cluster.
    fn drop(&mut self) {
        for w in 0..self.workers.len() {
            let _ = self.transport.call(w, Request::Shutdown, DRAIN_DEADLINE);
        }
        for w in self.workers.drain(..) {
            w.join();
        }
        if let Some(master) = self.master.take() {
            let _ = MasterClient::connect(master.addr()).shutdown_server();
            master.join();
        }
    }
}

/// A running loopback-TCP store cluster. Everything but its addresses
/// is the [`StoreCluster`] it dereferences to.
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
/// ```
#[derive(Debug)]
pub struct TcpCluster {
    cluster: StoreCluster,
    worker_addrs: Vec<SocketAddr>,
    master_addr: SocketAddr,
}

impl TcpCluster {
    /// Spawns `cfg.n_workers` worker servers and a master server, all on
    /// ephemeral loopback ports.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0` or a listener cannot bind.
    pub fn spawn(cfg: StoreConfig) -> Self {
        TcpCluster::spawn_with_under_store(cfg, None)
    }

    /// Like [`TcpCluster::spawn`], with a backing under-store the
    /// supervisor's recovery sweep (and clients of the cluster) heal
    /// from. When `cfg.supervisor.enabled`, the supervisor runs
    /// master-side over the cluster's own wire transport — the
    /// deployment shape of `spcached master`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_workers == 0` or a listener cannot bind.
    pub fn spawn_with_under_store(cfg: StoreConfig, under: Option<Arc<UnderStore>>) -> Self {
        let (cluster, (worker_addrs, master_addr)) =
            StoreCluster::spawn_on(cfg, under, |cfg, master, log, under| {
                let fleet = Loopback::spawn(cfg, master, log, under);
                let workers = fleet.workers.iter().map(WorkerServer::addr).collect();
                let master_addr = fleet.master_addr;
                (Box::new(fleet), (workers, master_addr))
            });
        TcpCluster { cluster, worker_addrs, master_addr }
    }

    /// Worker listen addresses, in index order.
    pub fn worker_addrs(&self) -> Vec<SocketAddr> {
        self.worker_addrs.clone()
    }

    /// The master's listen address.
    pub fn master_addr(&self) -> SocketAddr {
        self.master_addr
    }

    /// A fresh wire-backed [`MasterClient`] for this cluster's master.
    pub fn master_client(&self) -> MasterClient {
        MasterClient::connect(self.master_addr).with_deadline(self.config().retry.deadline)
    }
}

impl Deref for TcpCluster {
    type Target = StoreCluster;

    fn deref(&self) -> &StoreCluster {
        &self.cluster
    }
}

/// Runs `run` on an in-process cluster and then on a loopback-TCP one,
/// each spawned from its own call of `spawn` (so each gets a fresh
/// under-store), and returns both results, in-process first. The first
/// cluster is dropped before the second is spawned. Comparing the two is
/// the caller's business.
pub fn twin<T>(
    spawn: impl Fn() -> (StoreConfig, Option<Arc<UnderStore>>),
    run: impl Fn(&StoreCluster) -> T,
) -> (T, T) {
    let (cfg, under) = spawn();
    let in_process = run(&StoreCluster::spawn_with_under_store(cfg, under));
    let (cfg, under) = spawn();
    let over_tcp = run(&TcpCluster::spawn_with_under_store(cfg, under));
    (in_process, over_tcp)
}
