//! Chaos harness for the real store: a skewed Zipf read workload runs
//! while a scripted [`FaultPlan`] crashes one worker and silently drops
//! two cached partitions mid-run. Every read must still come back
//! byte-exact — the client retries, marks the dead worker, and re-hydrates
//! lost partitions from the under-store checkpoint tier (the paper's §8
//! fault-tolerance story). Two runs of the same `(seed, plan)` must
//! produce the identical injected-event sequence and final placement.
//!
//! The same run crosses real loopback sockets too, where the crash
//! surfaces as a `WorkerDown` frame: its fault log must come out
//! *identical* to the in-process run's. That equality is the proof that
//! the wire transport preserves the store's fault semantics, not just
//! its bytes.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use spcache::net::loopback::twin;
use spcache::net::TcpCluster;
use spcache::sim::Xoshiro256StarStar;
use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::fault::FaultRecord;
use spcache::store::rpc::PartKey;
use spcache::store::{FaultPlan, RetryPolicy, StoreCluster, StoreConfig};
use spcache::workload::zipf::ZipfSampler;

mod common;
use common::{FILE_LEN, N_FILES, N_WORKERS, chaos_seed, payload, placement};

const N_READS: usize = 400;
const DOOMED_WORKER: usize = 2;

/// The scripted chaos: worker 2 crashes on its 30th data-path request
/// (well into the read phase — setup costs each worker ~14 ops), and two
/// partitions of hot files vanish from their workers' memory shortly
/// after. File 4 lives on workers [4, 5]; file 10 on [4, 5] as well.
fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .crash(DOOMED_WORKER, 30)
        .drop_partition(4, 35, PartKey::new(4, 0))
        .drop_partition(5, 40, PartKey::new(10, 1))
}

fn chaos_config() -> StoreConfig {
    StoreConfig::unthrottled(N_WORKERS)
        .with_faults(chaos_plan())
        .with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(2),
        })
}

/// What one chaos run leaves behind for cross-run comparisons.
struct Run {
    log: Vec<FaultRecord>,
    placements: Vec<(u64, Vec<usize>)>,
    /// Evictions across the fleet.
    evictions: u64,
}

/// One full chaos run over `cluster`.
fn run_chaos(cluster: &StoreCluster, workload_seed: u64) -> Run {
    let under = Arc::new(UnderStore::new());
    let client = cluster.client().with_under_store(Arc::clone(&under));

    // Setup: write + checkpoint every file before any fault can fire.
    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
        checkpoint(&client, &under, id).unwrap();
    }

    // Skewed Zipf reads while the faults fire underneath.
    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for i in 0..N_READS {
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(
            client.read_quiet(id).unwrap(),
            payload(id, FILE_LEN),
            "read {i} of file {id} not byte-exact under chaos"
        );
    }

    // The crash was noticed and the worker excluded from the live fleet.
    assert!(
        !cluster.master().is_alive(DOOMED_WORKER),
        "crashed worker still marked alive after {N_READS} reads"
    );
    // Every file the workload touched on the dead worker was healed off
    // of it; no file placement may still reference a dead server after
    // its post-crash read.
    let placements = cluster.master().placements();
    for (id, servers) in &placements {
        for &s in servers {
            if s == DOOMED_WORKER {
                // Only legal if the workload never read this file after
                // the crash — it must then still be flagged degraded.
                assert!(
                    cluster.master().degraded_files().contains(id),
                    "file {id} placed on dead worker but not degraded"
                );
            }
        }
    }

    let evictions = cluster
        .worker_stats()
        .unwrap()
        .iter()
        .map(|s| s.evictions)
        .sum();
    Run {
        log: cluster.fault_log().snapshot(),
        placements,
        evictions,
    }
}

fn in_process(workload_seed: u64) -> Run {
    run_chaos(&StoreCluster::spawn(chaos_config()), workload_seed)
}

fn over_tcp(workload_seed: u64, cfg: StoreConfig) -> Run {
    run_chaos(&TcpCluster::spawn(cfg), workload_seed)
}

#[test]
fn chaos_reads_stay_byte_exact_and_events_are_reproducible() {
    let a = in_process(chaos_seed());
    let b = in_process(chaos_seed());

    // All three scripted faults fired, in the scripted order.
    assert_eq!(a.log.len(), 3, "expected exactly the scripted faults: {:?}", a.log);
    assert_eq!(
        a.log.iter().map(|r| r.worker).collect::<Vec<_>>(),
        vec![DOOMED_WORKER, 4, 5]
    );

    // Same (seed, plan) ⇒ identical injected-event sequence and final
    // layout. This is the reproducibility contract of the harness.
    assert_eq!(a.log, b.log, "fault injection is not deterministic");
    assert_eq!(a.placements, b.placements, "recovery is not deterministic");
}

#[test]
fn chaos_with_different_seed_still_heals_everything() {
    // A different workload interleaving against the same plan: the event
    // log op-indices are fixed by the plan, so the log is identical even
    // though the read sequence differs.
    let run = in_process(chaos_seed() ^ 0x5eed);
    assert_eq!(
        run.log,
        in_process(chaos_seed()).log,
        "op-indexed triggers must not depend on workload seed"
    );
    // Nothing readable was lost.
    assert_eq!(run.placements.len(), N_FILES as usize);
}

#[test]
fn tcp_chaos_reads_stay_byte_exact_and_events_are_reproducible() {
    let a = over_tcp(chaos_seed(), chaos_config());
    let b = over_tcp(chaos_seed(), chaos_config());

    assert_eq!(a.log.len(), 3, "expected exactly the scripted faults: {:?}", a.log);
    assert_eq!(
        a.log.iter().map(|r| r.worker).collect::<Vec<_>>(),
        vec![DOOMED_WORKER, 4, 5]
    );
    assert_eq!(a.log, b.log, "fault injection is not deterministic over TCP");
    assert_eq!(a.placements, b.placements, "recovery is not deterministic over TCP");
}

#[test]
fn tcp_and_channel_transports_fire_identical_fault_logs() {
    // The same (seed, plan) over both transports: op-indexed triggers
    // depend only on the per-worker request order, which both transports
    // must deliver identically.
    let (channel, tcp) = twin(|| (chaos_config(), None), |c| run_chaos(c, chaos_seed()));
    assert_eq!(
        tcp.log, channel.log,
        "wire transport changed which faults fired — op order diverged"
    );
}

#[test]
fn eviction_under_chaos_is_deterministic_across_transports() {
    // The same twin run with a per-worker budget tight enough that
    // partitions are constantly evicted and reloaded mid-fault-storm.
    // Eviction is keyed only on the per-worker FIFO request order, so
    // it must not perturb which faults fire, the recovery placements,
    // or byte-exactness (every read is asserted inside the run).
    let cfg = || chaos_config().with_memory_budget(Some(FILE_LEN));
    let (channel, tcp) = twin(|| (cfg(), None), |c| run_chaos(c, chaos_seed()));
    let tcp_b = over_tcp(chaos_seed(), cfg());
    assert_eq!(tcp.log, tcp_b.log, "budgeted TCP chaos is not reproducible");
    assert_eq!(tcp.placements, tcp_b.placements);

    assert_eq!(
        tcp.log, channel.log,
        "eviction changed which faults fired across transports"
    );
    assert!(
        channel.evictions > 0,
        "budget of one file must force evictions in this workload"
    );
}
