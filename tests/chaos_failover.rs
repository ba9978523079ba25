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
use spcache::net::{MasterClient, MasterServer, TcpCluster};
use spcache::sim::Xoshiro256StarStar;
use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::client::Client;
use spcache::store::fault::FaultRecord;
use spcache::store::master::{Master, MetaService};
use spcache::store::rpc::{Reply, Request};
use spcache::store::supervisor::{Supervisor, SupervisorCore, SweepRecord};
use spcache::store::transport::Transport;
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

/// The transport-agnostic pieces one run needs.
struct Pieces {
    master_a: Arc<Master>,
    transport: Arc<dyn Transport>,
    under: Arc<UnderStore>,
    meta: Arc<UnderStore>,
    client_a: Client,
}

/// Drives one failover run. `client_b_of` builds the successor's client
/// (in-process against the recovered master, or over a fresh wire
/// server — the transport-specific part). Returns the trace with
/// `faults` left empty for the caller to snapshot.
fn drive(
    p: &Pieces,
    sup_a: &Supervisor,
    client_b_of: impl FnOnce(&Arc<Master>) -> Client,
    workload_seed: u64,
) -> RunTrace {
    // --- Master A's reign: durable from the first mutation. ---
    p.master_a
        .enable_journal(Arc::new(MetaLog::open(Arc::clone(&p.meta))));
    assert_eq!(
        p.master_a.claim_master_epoch(p.master_a.master_epoch(), ADDR_A),
        1,
        "fresh master claims its boot epoch"
    );
    assert!(sup_a.tick().is_none(), "sweep before any file exists");
    assert_eq!(p.master_a.worker_epochs(N_WORKERS), vec![1; N_WORKERS]);

    for id in 0..N_FILES {
        p.client_a
            .write(id, &payload(id, FILE_LEN), &placement(id))
            .unwrap();
        checkpoint(&p.client_a, &p.under, id).unwrap();
    }

    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for i in 0..PHASE_READS {
        if i % TICK_EVERY == 0 {
            sup_a.tick();
        }
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(
            p.client_a.read_quiet(id).unwrap(),
            payload(id, FILE_LEN),
            "read {i} of file {id} not byte-exact under master A"
        );
    }

    // --- kill -9 mid-repartition: a repair slot is held, the journal
    // linkage dies with the process, no shutdown runs. ---
    assert!(p.master_a.begin_repair(MARKER_FILE));
    p.master_a.detach_journal();

    // --- Takeover: B is a pure function of the journal. ---
    let master_b = Arc::new(Master::recover(Arc::clone(&p.meta)));
    assert_eq!(
        master_b.image(),
        p.master_a.image(),
        "recovered image must equal the dead master's last state"
    );
    assert!(master_b.repairing(MARKER_FILE), "open repair survives recovery");
    assert_eq!(master_b.abandon_repairs(), vec![MARKER_FILE]);
    let epoch_b = master_b.claim_master_epoch(master_b.master_epoch() + 1, ADDR_B);
    assert_eq!(epoch_b, 2, "takeover bumps the master epoch");
    // Fence the fleet under the new reign (what `spcached --standby`
    // broadcasts at takeover): every worker raises its watermark.
    for w in 0..N_WORKERS {
        let reply = p
            .transport
            .call(w, Request::SetMasterEpoch(epoch_b), Duration::from_millis(500))
            .unwrap();
        assert!(matches!(reply, Reply::Done), "worker {w} rejected the new reign");
    }
    let sup_b = Supervisor::spawn(SupervisorCore::new(
        Arc::clone(&master_b),
        Arc::clone(&p.transport),
        Some(Arc::clone(&p.under)),
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
    assert!(!p.master_a.is_fenced());
    assert!(sup_a.tick().is_none(), "a deposed master must not sweep");
    assert!(p.master_a.is_fenced(), "rejoined stale master must self-fence");
    assert!(sup_a.tick().is_none(), "fenced is forever");
    assert_eq!(p.master_a.master_epoch(), 1, "fencing does not steal the epoch");

    // --- The journal outlives them both: a third recovery images B
    // exactly, and records B as the owning master — a restarted A would
    // see a foreign owner and boot fenced. ---
    let recovered = Master::recover(Arc::clone(&p.meta));
    assert_eq!(recovered.image(), master_b.image(), "journal is the system of record");
    assert_eq!(recovered.master_epoch(), 2);
    assert_eq!(recovered.owner_addr(), ADDR_B);

    RunTrace {
        faults: Vec::new(),
        sweeps,
        placements,
        epochs,
    }
}

/// One failover run over in-process channels.
fn run_failover_channel(workload_seed: u64) -> RunTrace {
    let under = Arc::new(UnderStore::new());
    let cluster = StoreCluster::spawn_with_under_store(chaos_config(), Some(Arc::clone(&under)));
    let sup_a = cluster.supervisor().expect("supervisor enabled");
    let pieces = Pieces {
        master_a: Arc::clone(cluster.master()),
        transport: cluster.transport().clone(),
        under,
        meta: Arc::new(UnderStore::new()),
        client_a: cluster.client(),
    };
    let cfg = chaos_config();
    let mut trace = drive(
        &pieces,
        sup_a,
        |master_b| {
            Client::new(Arc::clone(master_b) as Arc<dyn MetaService>, pieces.transport.clone())
                .with_retry(cfg.retry)
                .with_fencing(true)
                .with_under_store(Arc::clone(&pieces.under))
        },
        workload_seed,
    );
    trace.faults = cluster.fault_log().snapshot();
    trace
}

/// The same run with every byte crossing a loopback socket; the
/// successor serves metadata through its own wire `MasterServer`, and
/// the deposed master's server is probed for the redirect behaviour.
fn run_failover_tcp(workload_seed: u64) -> RunTrace {
    let under = Arc::new(UnderStore::new());
    let cluster = TcpCluster::spawn_with_under_store(chaos_config(), Some(Arc::clone(&under)));
    let sup_a = cluster.supervisor().expect("supervisor enabled");
    let pieces = Pieces {
        master_a: Arc::clone(cluster.master()),
        transport: cluster.transport().clone(),
        under,
        meta: Arc::new(UnderStore::new()),
        client_a: cluster.client(),
    };
    let cfg = chaos_config();
    let worker_addrs = cluster.worker_addrs();
    let mut server_b = None;
    let mut trace = drive(
        &pieces,
        sup_a,
        |master_b| {
            let server = MasterServer::spawn(
                Arc::clone(master_b),
                "127.0.0.1:0",
                worker_addrs,
                Duration::from_secs(2),
            )
            .expect("bind successor master listener");
            let meta = MasterClient::connect(server.addr()).with_deadline(cfg.retry.deadline);
            server_b = Some(server);
            Client::new(Arc::new(meta) as Arc<dyn MetaService>, pieces.transport.clone())
                .with_retry(cfg.retry)
                .with_fencing(true)
                .with_under_store(Arc::clone(&pieces.under))
        },
        workload_seed,
    );
    trace.faults = cluster.fault_log().snapshot();

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
    cluster.shutdown();
    trace
}

#[test]
fn failover_chaos_heals_and_is_reproducible_in_process() {
    let a = run_failover_channel(chaos_seed());
    let b = run_failover_channel(chaos_seed());
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
    let chan = run_failover_channel(chaos_seed());
    let tcp = run_failover_tcp(chaos_seed());
    assert_eq!(chan.faults, tcp.faults, "fault logs diverged across transports");
    assert_eq!(chan.sweeps, tcp.sweeps, "sweep plans diverged across transports");
    assert_eq!(chan.epochs, tcp.epochs, "fencing epochs diverged across transports");
    assert_eq!(chan.placements, tcp.placements, "healed placements diverged across transports");
}
