//! The chaos harness of `chaos_store.rs`, run over real loopback TCP:
//! the same scripted crash and partition drops fire while a Zipf
//! workload reads through retries and under-store recovery — but every
//! request now crosses a socket, the crash surfaces as a `WorkerDown`
//! frame, and the fault log must come out *identical* to an in-process
//! run of the same `(seed, plan)`. That equality is the proof that the
//! wire transport preserves the store's fault semantics, not just its
//! bytes.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
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

/// The identical script to the in-process harness: a crash and two
/// silent partition drops, all data-plane faults keyed on op indices.
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

/// One chaos run over TCP. Structurally the twin of `run_chaos` in
/// `chaos_store.rs`; only the cluster construction differs.
fn run_chaos_tcp(workload_seed: u64) -> (Vec<FaultRecord>, Vec<(u64, Vec<usize>)>) {
    run_chaos_tcp_cfg(workload_seed, chaos_config())
}

fn run_chaos_tcp_cfg(
    workload_seed: u64,
    cfg: StoreConfig,
) -> (Vec<FaultRecord>, Vec<(u64, Vec<usize>)>) {
    let cluster = TcpCluster::spawn(cfg);
    let under = Arc::new(UnderStore::new());
    let client = cluster.client().with_under_store(Arc::clone(&under));

    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
        checkpoint(&client, &under, id).unwrap();
    }

    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for i in 0..N_READS {
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(
            client.read_quiet(id).unwrap(),
            payload(id, FILE_LEN),
            "read {i} of file {id} not byte-exact under chaos over TCP"
        );
    }

    assert!(
        !cluster.master().is_alive(DOOMED_WORKER),
        "crashed worker still marked alive after {N_READS} reads"
    );
    let placements = cluster.master().placements();
    for (id, servers) in &placements {
        for &s in servers {
            if s == DOOMED_WORKER {
                assert!(
                    cluster.master().degraded_files().contains(id),
                    "file {id} placed on dead worker but not degraded"
                );
            }
        }
    }

    (cluster.fault_log().snapshot(), placements)
}

/// The in-process control run, for the cross-transport comparison.
/// Returns the fault log and the fleet-wide eviction count.
fn run_chaos_channel(workload_seed: u64) -> Vec<FaultRecord> {
    run_chaos_channel_cfg(workload_seed, chaos_config()).0
}

fn run_chaos_channel_cfg(workload_seed: u64, cfg: StoreConfig) -> (Vec<FaultRecord>, u64) {
    let cluster = StoreCluster::spawn(cfg);
    let under = Arc::new(UnderStore::new());
    let client = cluster.client().with_under_store(Arc::clone(&under));
    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
        checkpoint(&client, &under, id).unwrap();
    }
    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for _ in 0..N_READS {
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(client.read_quiet(id).unwrap(), payload(id, FILE_LEN));
    }
    let evictions: u64 = cluster
        .worker_stats()
        .unwrap()
        .iter()
        .map(|s| s.evictions)
        .sum();
    (cluster.fault_log().snapshot(), evictions)
}

#[test]
fn tcp_chaos_reads_stay_byte_exact_and_events_are_reproducible() {
    let (log_a, placements_a) = run_chaos_tcp(chaos_seed());
    let (log_b, placements_b) = run_chaos_tcp(chaos_seed());

    assert_eq!(log_a.len(), 3, "expected exactly the scripted faults: {log_a:?}");
    assert_eq!(
        log_a.iter().map(|r| r.worker).collect::<Vec<_>>(),
        vec![DOOMED_WORKER, 4, 5]
    );
    assert_eq!(log_a, log_b, "fault injection is not deterministic over TCP");
    assert_eq!(placements_a, placements_b, "recovery is not deterministic over TCP");
}

#[test]
fn tcp_and_channel_transports_fire_identical_fault_logs() {
    // The same (seed, plan) over both transports: op-indexed triggers
    // depend only on the per-worker request order, which both transports
    // must deliver identically.
    let (tcp_log, _) = run_chaos_tcp(chaos_seed());
    let channel_log = run_chaos_channel(chaos_seed());
    assert_eq!(
        tcp_log, channel_log,
        "wire transport changed which faults fired — op order diverged"
    );
}

#[test]
fn eviction_under_chaos_is_deterministic_across_transports() {
    // The same twin run with a per-worker budget tight enough that
    // partitions are constantly evicted and reloaded mid-fault-storm.
    // Eviction is keyed only on the per-worker FIFO request order, so
    // it must not perturb which faults fire, the recovery placements,
    // or byte-exactness (every read is asserted inside the runners).
    let cfg = || chaos_config().with_memory_budget(Some(FILE_LEN));
    let (tcp_log, tcp_placements) = run_chaos_tcp_cfg(chaos_seed(), cfg());
    let (tcp_log_b, tcp_placements_b) = run_chaos_tcp_cfg(chaos_seed(), cfg());
    assert_eq!(tcp_log, tcp_log_b, "budgeted TCP chaos is not reproducible");
    assert_eq!(tcp_placements, tcp_placements_b);

    let (channel_log, evictions) = run_chaos_channel_cfg(chaos_seed(), cfg());
    assert_eq!(
        tcp_log, channel_log,
        "eviction changed which faults fired across transports"
    );
    assert!(
        evictions > 0,
        "budget of one file must force evictions in this workload"
    );
}
