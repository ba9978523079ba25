//! Failover chaos: the active master dies mid-repartition and a standby
//! takes over from the write-ahead op-log (DESIGN.md §4.14), driven
//! deterministically against a seeded Zipf workload on both transports.
//!
//! The script: master A journals every mutation through a shared meta
//! tier, supervises one read phase, then is killed with a repair slot
//! still open (the mid-repartition crash). Master B recovers from the
//! journal alone, abandons the orphaned repair, claims a bumped master
//! epoch and fences the fleet under it. During B's reign a scripted
//! network partition swallows one worker's heartbeats — ping-indexed,
//! so it fires at the same probe regardless of the workload seed — and
//! B's supervisor must detect the death and re-materialize every file
//! the worker held, including the one A crashed repairing. Finally A's
//! supervisor rejoins as a zombie: its first adoption announcement
//! carries the old master epoch, a worker bounces it with `StaleEpoch`,
//! and A fences itself forever.
//!
//! Every observable — fault log, B's sweep plan, final placements,
//! fencing epochs, read bytes — must be identical across two same-seed
//! runs *and* across the channel and TCP transports.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use spcache::net::loopback::twin;
use spcache::net::{MasterClient, MasterServer, TcpCluster};
use spcache::sim::Xoshiro256StarStar;
use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::client::Client;
use spcache::store::fault::FaultRecord;
use spcache::store::master::{Master, MetaService};
use spcache::store::rpc::{Reply, Request};
use spcache::store::supervisor::{Supervisor, SupervisorCore, SweepRecord};
use spcache::store::{
    FaultPlan, MetaLog, RetryPolicy, StoreCluster, StoreConfig, SupervisorConfig,
};
use spcache::workload::zipf::ZipfSampler;

mod common;
use common::{N_FILES, N_WORKERS, chaos_seed, payload, placement};

const FILE_LEN: usize = 9_000;
/// Reads per phase (one phase under each master).
const PHASE_READS: usize = 150;
/// Reads between supervisor ticks.
const TICK_EVERY: usize = 25;
/// Loses its heartbeats (not its data) once B reigns: B must declare it
/// dead and re-materialize everything it held.
const PARTITIONED_WORKER: usize = 4;
/// The repair master A leaves open when it dies — B must abandon the
/// slot at takeover or the file stays unhealable forever.
const MARKER_FILE: u64 = 3;
const ADDR_A: &str = "10.0.0.1:9000";
const ADDR_B: &str = "10.0.0.2:9000";

/// Files with a partition on [`PARTITIONED_WORKER`] — what B's sweep
/// must heal, ascending (the sweep enumerates degraded ids sorted).
fn partitioned_files() -> Vec<u64> {
    (0..N_FILES)
        .filter(|&id| placement(id).contains(&PARTITIONED_WORKER))
        .collect()
}

/// Master A ticks once at adoption plus once per [`TICK_EVERY`] reads in
/// phase 1, so B's first probe is ping index `1 + PHASE_READS/TICK_EVERY`
/// at every worker — where the partition script starts, independent of
/// the workload seed (heartbeat drops are ping-indexed, not op-indexed).
fn first_b_ping() -> u64 {
    1 + (PHASE_READS as u64).div_ceil(TICK_EVERY as u64)
}

fn chaos_plan() -> FaultPlan {
    let p = first_b_ping();
    FaultPlan::none()
        .drop_heartbeat(PARTITIONED_WORKER, p)
        .drop_heartbeat(PARTITIONED_WORKER, p + 1)
        .drop_heartbeat(PARTITIONED_WORKER, p + 2)
}

fn chaos_config() -> StoreConfig {
    StoreConfig::unthrottled(N_WORKERS)
        .with_faults(chaos_plan())
        .with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(2),
        })
        .with_supervisor(
            SupervisorConfig::enabled()
                .with_interval(Duration::ZERO) // manual ticks only
                .with_probe_timeout(Duration::from_millis(400)),
        )
}

/// Everything a failover run produces that must be reproducible.
#[derive(Debug, PartialEq)]
struct RunTrace {
    faults: Vec<FaultRecord>,
    sweeps: Vec<SweepRecord>,
    placements: Vec<(u64, Vec<usize>)>,
    epochs: Vec<u64>,
}

/// Drives one failover run over `cluster`, whose master is A. `client_b_of`
/// builds the successor's client: in process against the recovered
/// master, or through a wire server of its own.
fn drive(
    cluster: &StoreCluster,
    client_b_of: impl FnOnce(&Arc<Master>) -> Client,
    workload_seed: u64,
) -> RunTrace {
    let master_a = cluster.master();
    let transport = cluster.transport();
    let under = cluster.under_store().expect("under-store attached");
    // The shared meta tier both masters journal through.
    let meta = Arc::new(UnderStore::new());
    let client_a = cluster.client();
    let sup_a = cluster.supervisor().expect("supervisor enabled");

    // --- Master A's reign: durable from the first mutation. ---
    master_a
        .enable_journal(Arc::new(MetaLog::open(Arc::clone(&meta))));
    assert_eq!(
        master_a.claim_master_epoch(master_a.master_epoch(), ADDR_A),
        1,
        "fresh master claims its boot epoch"
    );
    assert!(sup_a.tick().is_none(), "sweep before any file exists");
    assert_eq!(master_a.worker_epochs(N_WORKERS), vec![1; N_WORKERS]);

    for id in 0..N_FILES {
        client_a
            .write(id, &payload(id, FILE_LEN), &placement(id))
            .unwrap();
        checkpoint(&client_a, under, id).unwrap();
    }

    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for i in 0..PHASE_READS {
        if i % TICK_EVERY == 0 {
            sup_a.tick();
        }
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(
            client_a.read_quiet(id).unwrap(),
            payload(id, FILE_LEN),
            "read {i} of file {id} not byte-exact under master A"
        );
    }

    // --- kill -9 mid-repartition: a repair slot is held, the journal
    // linkage dies with the process, no shutdown runs. ---
    assert!(master_a.begin_repair(MARKER_FILE));
    master_a.detach_journal();

    // --- Takeover: B is a pure function of the journal. ---
    let master_b = Arc::new(Master::recover(Arc::clone(&meta)));
    assert_eq!(
        master_b.image(),
        master_a.image(),
        "recovered image must equal the dead master's last state"
    );
    assert!(master_b.repairing(MARKER_FILE), "open repair survives recovery");
    assert_eq!(master_b.abandon_repairs(), vec![MARKER_FILE]);
    let epoch_b = master_b.claim_master_epoch(master_b.master_epoch() + 1, ADDR_B);
    assert_eq!(epoch_b, 2, "takeover bumps the master epoch");
    // Fence the fleet under the new reign (what `spcached --standby`
    // broadcasts at takeover): every worker raises its watermark.
    for w in 0..N_WORKERS {
        let reply = transport
            .call(w, Request::SetMasterEpoch(epoch_b), Duration::from_millis(500))
            .unwrap();
        assert!(matches!(reply, Reply::Done), "worker {w} rejected the new reign");
    }
    let sup_b = Supervisor::spawn(SupervisorCore::new(
        Arc::clone(&master_b),
        Arc::clone(transport),
        Some(Arc::clone(under)),
        SupervisorConfig::enabled()
            .with_interval(Duration::ZERO)
            .with_probe_timeout(Duration::from_millis(400)),
        RetryPolicy::default(),
    ));
    // B's first three probes run back-to-back before it admits client
    // traffic (a successful data reply is a sign of life that would
    // reset the suspicion ladder). The partition script swallows all
    // three heartbeats: two suspicions, then death — and the death
    // tick's sweep re-materializes everything the worker held.
    assert!(sup_b.tick().is_none(), "first miss is suspicion, not death");
    assert!(sup_b.tick().is_none(), "second miss is suspicion, not death");
    let rec = sup_b.tick().expect("third miss kills and sweeps");
    assert_eq!(rec.dead, vec![PARTITIONED_WORKER]);
    assert_eq!(rec.healed, partitioned_files());
    let client_b = client_b_of(&master_b);

    // --- Master B's reign: the partition script fires tick by tick. ---
    for i in 0..PHASE_READS {
        if i % TICK_EVERY == 0 {
            sup_b.tick();
        }
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(
            client_b.read_quiet(id).unwrap(),
            payload(id, FILE_LEN),
            "read {i} of file {id} not byte-exact under master B"
        );
    }

    // Quiesce: tick until two consecutive rounds find nothing degraded.
    let mut idle = 0;
    for _ in 0..12 {
        if sup_b.tick().is_none() {
            idle += 1;
            if idle >= 2 {
                break;
            }
        } else {
            idle = 0;
        }
    }
    assert!(idle >= 2, "successor never quiesced — files stayed degraded");

    // Post-recovery: every file byte-exact, every partitioned file
    // re-homed off the declared-dead worker (its data was never lost,
    // but a dead worker must hold no placements), the orphaned repair
    // healed rather than skipped forever.
    for id in 0..N_FILES {
        assert_eq!(client_b.read_quiet(id).unwrap(), payload(id, FILE_LEN));
    }
    let placements = master_b.placements();
    for &id in &partitioned_files() {
        let (_, servers) = placements
            .iter()
            .find(|(f, _)| *f == id)
            .map(|(f, s)| (*f, s.clone()))
            .expect("file registered");
        assert!(
            !servers.contains(&PARTITIONED_WORKER),
            "file {id} still placed on partitioned worker after B's sweep"
        );
    }
    let sweeps = sup_b.sweep_log().snapshot();
    let healed: Vec<u64> = sweeps.iter().flat_map(|r| r.healed.iter().copied()).collect();
    assert_eq!(
        healed,
        partitioned_files(),
        "B must heal exactly the partitioned worker's files, once each"
    );
    assert!(
        healed.contains(&MARKER_FILE),
        "the abandoned repair slot must not block the marker file's heal"
    );
    for rec in &sweeps {
        assert!(rec.unrecoverable.is_empty(), "checkpointed file unrecoverable: {rec:?}");
    }
    let epochs = master_b.worker_epochs(N_WORKERS);
    assert_eq!(
        epochs[PARTITIONED_WORKER], 3,
        "partitioned worker: boot grant + death bump + re-adoption, got {epochs:?}"
    );

    // --- The zombie rejoins: A's supervisor wakes up, announces master
    // epoch 1 while adopting the re-granted worker, gets bounced, and
    // fences itself forever. ---
    assert!(!master_a.is_fenced());
    assert!(sup_a.tick().is_none(), "a deposed master must not sweep");
    assert!(master_a.is_fenced(), "rejoined stale master must self-fence");
    assert!(sup_a.tick().is_none(), "fenced is forever");
    assert_eq!(master_a.master_epoch(), 1, "fencing does not steal the epoch");

    // --- The journal outlives them both: a third recovery images B
    // exactly, and records B as the owning master — a restarted A would
    // see a foreign owner and boot fenced. ---
    let recovered = Master::recover(Arc::clone(&meta));
    assert_eq!(recovered.image(), master_b.image(), "journal is the system of record");
    assert_eq!(recovered.master_epoch(), 2);
    assert_eq!(recovered.owner_addr(), ADDR_B);

    RunTrace {
        faults: cluster.fault_log().snapshot(),
        sweeps,
        placements,
        epochs,
    }
}

fn spawn() -> (StoreConfig, Option<Arc<UnderStore>>) {
    (chaos_config(), Some(Arc::new(UnderStore::new())))
}

/// The successor's client in process: metadata straight from the
/// recovered master, data over the cluster's own transport.
fn in_process_b(cluster: &StoreCluster) -> impl FnOnce(&Arc<Master>) -> Client + '_ {
    |master_b| {
        Client::new(Arc::clone(master_b) as Arc<dyn MetaService>, cluster.transport().clone())
            .with_retry(chaos_config().retry)
            .with_fencing(true)
            .with_under_store(Arc::clone(cluster.under_store().expect("under-store attached")))
    }
}

fn run_failover(cluster: &StoreCluster, workload_seed: u64) -> RunTrace {
    drive(cluster, in_process_b(cluster), workload_seed)
}

/// One failover run over in-process channels.
fn failover_in_process(workload_seed: u64) -> RunTrace {
    let (cfg, under) = spawn();
    run_failover(&StoreCluster::spawn_with_under_store(cfg, under), workload_seed)
}

/// The run with everything only sockets have: the successor serves
/// metadata through its own wire `MasterServer`, and the deposed
/// master's server is probed for the redirect behaviour.
fn failover_with_a_wire_successor(workload_seed: u64) -> RunTrace {
    let (cfg, under) = spawn();
    let cluster = TcpCluster::spawn_with_under_store(cfg, under);
    let worker_addrs = cluster.worker_addrs();
    let mut server_b = None;
    let trace = drive(
        &cluster,
        |master_b| {
            let server = MasterServer::spawn(Arc::clone(master_b), "127.0.0.1:0", worker_addrs)
                .expect("bind successor master listener");
            let deadline = cluster.config().retry.deadline;
            let meta = MasterClient::connect(server.addr()).with_deadline(deadline);
            server_b = Some(server);
            Client::new(Arc::new(meta) as Arc<dyn MetaService>, cluster.transport().clone())
                .with_retry(chaos_config().retry)
                .with_fencing(true)
                .with_under_store(Arc::clone(cluster.under_store().expect("under-store attached")))
        },
        workload_seed,
    );

    // Wire-level fencing: the deposed master's server still answers
    // Status (active = false) but redirects everything else, and with
    // no recorded successor the redirect dead-ends as an error rather
    // than serving stale metadata.
    let stale = cluster.master_client();
    let (epoch, active, files, _next_lsn) = stale.status().expect("status bypasses the fence");
    assert_eq!((epoch, active), (1, false), "deposed master must report itself fenced");
    assert_eq!(files, N_FILES, "fenced master keeps its last metadata");
    assert!(
        stale.locate(0).is_err(),
        "fenced master must redirect metadata reads, not serve them"
    );

    let server_b = server_b.expect("successor server spawned");
    let _ = MasterClient::connect(server_b.addr()).shutdown_server();
    server_b.join();
    trace
}

#[test]
fn failover_chaos_heals_and_is_reproducible_in_process() {
    let a = failover_in_process(chaos_seed());
    let b = failover_in_process(chaos_seed());
    // The partition script fired exactly thrice, on the scripted worker.
    assert_eq!(a.faults.len(), 3, "expected the three swallowed heartbeats: {:?}", a.faults);
    assert!(a.faults.iter().all(|r| r.worker == PARTITIONED_WORKER));
    assert_eq!(a, b, "same seed must reproduce the whole failover trace");
}

#[test]
fn failover_chaos_is_transport_invariant() {
    // The same `(seed, plan)` over channels and TCP: ping-indexed
    // partitions, journal replay and deterministic heal targeting must
    // agree on every observable — the wire changes the medium, not the
    // succession story.
    let (chan, tcp) = twin(spawn, |c| run_failover(c, chaos_seed()));
    assert_eq!(chan.faults, tcp.faults, "fault logs diverged across transports");
    assert_eq!(chan.sweeps, tcp.sweeps, "sweep plans diverged across transports");
    assert_eq!(chan.epochs, tcp.epochs, "fencing epochs diverged across transports");
    assert_eq!(chan.placements, tcp.placements, "healed placements diverged across transports");

    // A successor serving its own wire endpoint and a deposed master's
    // redirect exist only over sockets, so that run follows the twin on
    // a loopback cluster alone — and must tell the same story.
    assert_eq!(failover_with_a_wire_successor(chaos_seed()), chan, "the wire successor diverged");
}
