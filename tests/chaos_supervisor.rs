//! Supervised chaos: the autonomous self-healing loop (DESIGN.md §4.11)
//! driven deterministically against a seeded Zipf workload while two
//! scripted faults fire underneath — a **crash-restart** (worker 2 comes
//! back cold with epoch 0: a zombie that must be fenced until the
//! supervisor re-adopts it) and a **hard crash** (worker 4 dies for
//! good: the supervisor's recovery sweep must re-materialize every
//! partition it held from the under-store, exactly once, onto the
//! least-loaded survivors).
//!
//! The supervisor runs with `heartbeat_interval == 0` — no background
//! thread — and is ticked at fixed read indices, so a run is a pure
//! function of `(workload seed, fault plan)`. The test asserts that the
//! fault log, the sweep log, the fencing epochs, the final placements
//! and even the indices of the reads that failed inside the zombie
//! window are identical across two same-seed runs *and* across the
//! channel and TCP transports.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use spcache::net::TcpCluster;
use spcache::sim::Xoshiro256StarStar;
use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::client::Client;
use spcache::store::fault::FaultRecord;
use spcache::store::master::Master;
use spcache::store::supervisor::{Supervisor, SweepRecord};
use spcache::store::{FaultPlan, RetryPolicy, StoreCluster, StoreConfig, SupervisorConfig};
use spcache::workload::zipf::ZipfSampler;

mod common;
use common::{FILE_LEN, N_FILES, N_WORKERS, chaos_seed, payload, placement};

const N_READS: usize = 400;
/// Reads between supervisor ticks.
const TICK_EVERY: usize = 25;
/// Crash-restarts in place: a zombie at epoch 0 until re-adopted.
const ZOMBIE_WORKER: usize = 2;
/// Crashes for good: its partitions only survive in the under-store.
const DOOMED_WORKER: usize = 4;

/// Both victims hold 6 files' partitions and spend 12 data ops in setup
/// (6 puts + 6 checkpoint gets), so both faults fire well into the read
/// phase.
fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .crash_restart(ZOMBIE_WORKER, 30)
        .crash(DOOMED_WORKER, 35)
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
                .with_probe_timeout(Duration::from_millis(500)),
        )
}

/// Everything a supervised run produces that must be reproducible.
#[derive(Debug, PartialEq)]
struct RunTrace {
    faults: Vec<FaultRecord>,
    sweeps: Vec<SweepRecord>,
    placements: Vec<(u64, Vec<usize>)>,
    epochs: Vec<u64>,
    /// `(read index, file id)` of reads that failed in the zombie
    /// window and succeeded after the adoption tick.
    hiccups: Vec<(usize, u64)>,
}

/// Drives one supervised chaos run: register the fleet, load it, read
/// through the faults with a tick every [`TICK_EVERY`] reads, then
/// quiesce. Cluster-agnostic — both transports feed it the same pieces.
/// Returns the trace with `faults` left empty (the caller snapshots the
/// cluster's fault log).
fn drive(
    master: &Arc<Master>,
    supervisor: &Supervisor,
    under: &Arc<UnderStore>,
    client: &Client,
    workload_seed: u64,
) -> RunTrace {
    // Tick 1 adopts every worker at epoch 1; nothing is degraded yet.
    assert!(supervisor.tick().is_none(), "sweep before any file exists");
    assert_eq!(master.worker_epochs(N_WORKERS), vec![1; N_WORKERS]);

    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
        checkpoint(client, under, id).unwrap();
    }

    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    let mut hiccups = Vec::new();
    for i in 0..N_READS {
        if i % TICK_EVERY == 0 {
            supervisor.tick();
        }
        let id = sampler.sample(&mut rng) as u64;
        match client.read_quiet(id) {
            Ok(bytes) => assert_eq!(
                bytes,
                payload(id, FILE_LEN),
                "read {i} of file {id} not byte-exact under supervised chaos"
            ),
            // Only the zombie window may shed a read: the restarted
            // worker bounces fenced requests with `StaleEpoch` until the
            // supervisor re-adopts it. One tick must clear it.
            Err(err) => {
                hiccups.push((i, id));
                supervisor.tick();
                assert_eq!(
                    client.read_quiet(id).expect("read must heal after adoption tick"),
                    payload(id, FILE_LEN),
                    "read {i} of file {id} not byte-exact after adoption (first error: {err:?})"
                );
            }
        }
    }

    // Quiesce: tick until two consecutive rounds find nothing degraded.
    let mut idle = 0;
    for _ in 0..12 {
        if supervisor.tick().is_none() {
            idle += 1;
            if idle >= 2 {
                break;
            }
        } else {
            idle = 0;
        }
    }
    assert!(idle >= 2, "supervisor never quiesced — files stayed degraded");

    // Post-recovery: every file byte-exact, nothing placed on the dead
    // worker, the zombie re-fenced and serving.
    for id in 0..N_FILES {
        assert_eq!(client.read_quiet(id).unwrap(), payload(id, FILE_LEN));
    }
    assert!(!master.is_alive(DOOMED_WORKER), "crashed worker still alive");
    assert!(master.is_alive(ZOMBIE_WORKER), "re-adopted worker not alive");
    let placements = master.placements();
    for (id, servers) in &placements {
        assert!(
            !servers.contains(&DOOMED_WORKER),
            "file {id} still placed on dead worker {DOOMED_WORKER} after quiesce"
        );
    }
    let epochs = master.worker_epochs(N_WORKERS);
    assert!(epochs[ZOMBIE_WORKER] >= 2, "zombie kept its pre-crash epoch: {epochs:?}");
    assert!(epochs[DOOMED_WORKER] >= 2, "death did not bump the fencing epoch: {epochs:?}");

    // The sweep dedup contract: across the whole run no file is healed
    // twice by sweeps, and this run has no competing repairs to skip.
    let sweeps = supervisor.sweep_log().snapshot();
    let healed: Vec<u64> = sweeps.iter().flat_map(|r| r.healed.iter().copied()).collect();
    let mut deduped = healed.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), healed.len(), "a sweep healed some file twice: {sweeps:?}");
    for rec in &sweeps {
        assert!(rec.unrecoverable.is_empty(), "checkpointed file unrecoverable: {rec:?}");
    }
    // The hard crash must have been healed by the *sweep* for at least
    // one file (lazy reads may race it for the hot ones, but a whole
    // tick window of cold files belongs to the supervisor).
    assert!(
        sweeps.iter().any(|r| r.dead.contains(&DOOMED_WORKER) && !r.healed.is_empty()),
        "no sweep proactively healed the dead worker's files: {sweeps:?}"
    );

    RunTrace {
        faults: Vec::new(),
        sweeps,
        placements,
        epochs,
        hiccups,
    }
}

/// One supervised chaos run over in-process channels.
fn run_supervised_channel(workload_seed: u64) -> RunTrace {
    let under = Arc::new(UnderStore::new());
    let cluster = StoreCluster::spawn_with_under_store(chaos_config(), Some(Arc::clone(&under)));
    let supervisor = cluster.supervisor().expect("supervisor enabled");
    let client = cluster.client();
    let mut trace = drive(cluster.master(), supervisor, &under, &client, workload_seed);
    trace.faults = cluster.fault_log().snapshot();
    trace
}

/// The same run with every byte crossing a loopback socket.
fn run_supervised_tcp(workload_seed: u64) -> RunTrace {
    let under = Arc::new(UnderStore::new());
    let cluster = TcpCluster::spawn_with_under_store(chaos_config(), Some(Arc::clone(&under)));
    let supervisor = cluster.supervisor().expect("supervisor enabled");
    let client = cluster.client();
    let mut trace = drive(cluster.master(), supervisor, &under, &client, workload_seed);
    trace.faults = cluster.fault_log().snapshot();
    cluster.shutdown();
    trace
}

#[test]
fn supervised_chaos_heals_and_is_reproducible_in_process() {
    let a = run_supervised_channel(chaos_seed());
    let b = run_supervised_channel(chaos_seed());

    // Both scripted faults fired, in scripted order.
    assert_eq!(
        a.faults.iter().map(|r| r.worker).collect::<Vec<_>>(),
        vec![ZOMBIE_WORKER, DOOMED_WORKER],
        "expected exactly the scripted faults: {:?}",
        a.faults
    );
    assert_eq!(a, b, "same seed must reproduce the whole supervised trace");
}

#[test]
fn supervised_chaos_is_transport_invariant() {
    // The same `(seed, plan)` over channels and TCP: op-indexed faults,
    // tick-indexed probes and deterministic target selection must agree
    // on every observable — the wire changes the medium, not the story.
    let chan = run_supervised_channel(chaos_seed());
    let tcp = run_supervised_tcp(chaos_seed());
    assert_eq!(chan.faults, tcp.faults, "fault logs diverged across transports");
    assert_eq!(chan.sweeps, tcp.sweeps, "sweep plans diverged across transports");
    assert_eq!(chan.epochs, tcp.epochs, "fencing epochs diverged across transports");
    assert_eq!(chan.hiccups, tcp.hiccups, "zombie-window reads diverged across transports");
    assert_eq!(chan.placements, tcp.placements, "healed placements diverged across transports");
}
