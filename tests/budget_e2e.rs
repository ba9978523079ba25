//! End-to-end budget/pacing exercise (ISSUE 7's `budget-e2e` gate): a
//! throttled cluster runs with a 50%-of-working-set memory budget and a
//! 50% background NIC fraction; a worker is killed while a Zipf read
//! storm is in flight, and the supervisor's recovery sweep must heal
//! every degraded file while its background traffic stays inside the
//! configured fraction of the NIC — measured, not assumed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use spcache::sim::Xoshiro256StarStar;
use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::supervisor::SupervisorCore;
use spcache::store::transport::Transport;
use spcache::store::{
    RetryPolicy, StoreCluster, StoreConfig, SupervisorConfig,
};
use spcache::workload::zipf::ZipfSampler;

mod common;
use common::payload;

const N_WORKERS: usize = 4;
const N_FILES: u64 = 16;
const FILE_LEN: usize = 100_000;
const BANDWIDTH: f64 = 40e6; // 40 MB/s per worker
const BG_FRACTION: f64 = 0.5;
const DOOMED: usize = 1;

#[test]
fn heal_under_load_stays_inside_the_background_fraction() {
    // Working set: 16 files x 100 KB x 2 partitions over 4 workers
    // = 800 KB resident per worker unbounded; budget it at 50%.
    let budget = (N_FILES as usize * FILE_LEN * 2 / N_WORKERS) / 2;
    let cfg = StoreConfig::throttled(N_WORKERS, BANDWIDTH)
        .with_memory_budget(Some(budget))
        .with_background_fraction(BG_FRACTION)
        .with_retry(RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(5),
        });
    let under = Arc::new(UnderStore::new());
    let cluster = StoreCluster::spawn_with_under_store(cfg, Some(Arc::clone(&under)));
    let client = cluster.client().with_under_store(Arc::clone(&under));
    for id in 0..N_FILES {
        client
            .write(
                id,
                &payload(id, FILE_LEN),
                &[id as usize % N_WORKERS, (id as usize + 1) % N_WORKERS],
            )
            .unwrap();
        checkpoint(&client, &under, id).unwrap();
    }

    let transport: Arc<dyn Transport> = cluster.transport().clone();
    let core = SupervisorCore::new(
        cluster.master().clone(),
        transport,
        Some(Arc::clone(&under)),
        SupervisorConfig::enabled()
            .with_interval(Duration::ZERO)
            .with_probe_timeout(Duration::from_millis(100)),
        RetryPolicy::default(),
    );
    core.tick(); // adopt the fleet

    // Zipf read storm on two client threads for the whole heal window.
    let stop = Arc::new(AtomicBool::new(false));
    let good_reads = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..2u64)
        .map(|t| {
            let client = cluster.client().with_under_store(Arc::clone(&under));
            let stop = Arc::clone(&stop);
            let good = Arc::clone(&good_reads);
            std::thread::spawn(move || {
                let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
                let mut rng = Xoshiro256StarStar::seed_from_u64(7 + t);
                while !stop.load(Ordering::Relaxed) {
                    let id = sampler.sample(&mut rng) as u64;
                    if let Ok(data) = client.read_quiet(id) {
                        assert_eq!(data, payload(id, FILE_LEN), "read of file {id} not byte-exact");
                        good.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // Let the storm warm up, then kill a worker mid-flight and measure
    // the heal window.
    std::thread::sleep(Duration::from_millis(50));
    let bg_before: u64 = cluster
        .worker_stats()
        .unwrap()
        .iter()
        .map(|s| s.bytes_background)
        .sum();
    let t0 = Instant::now();
    cluster.kill_worker(DOOMED);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cluster.master().degraded_files().is_empty() {
        assert!(Instant::now() < deadline, "heal did not complete in 60 s");
        core.tick();
    }
    // The bytes are counted over the same window as the time: spill
    // reloads from the storm's shutdown and the verification reads
    // below fall outside both.
    let elapsed = t0.elapsed().as_secs_f64();
    let bg_after: u64 = cluster
        .worker_stats()
        .unwrap()
        .iter()
        .map(|s| s.bytes_background)
        .sum();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    // Heal completed: nothing degraded, nothing placed on the corpse,
    // every file byte-exact through a fresh client.
    let verify = cluster.client().with_under_store(Arc::clone(&under));
    for (id, servers) in cluster.master().placements() {
        assert!(servers.iter().all(|&s| s != DOOMED), "file {id} on dead worker");
        assert_eq!(verify.read_quiet(id).unwrap(), payload(id, FILE_LEN));
    }
    assert!(good_reads.load(Ordering::Relaxed) > 0, "storm never read anything");

    // The measured background bytes over the heal window stay inside
    // 1.1x the configured fraction of the fleet's NIC, plus one
    // in-flight partition per live worker of slack.
    let bg_bytes = (bg_after - bg_before) as f64;
    let live = (N_WORKERS - 1) as f64;
    let part_len = (FILE_LEN / 2) as f64;
    let cap = 1.1 * BG_FRACTION * BANDWIDTH * elapsed * live + live * part_len;
    assert!(
        bg_bytes <= cap,
        "background traffic broke its fraction: {bg_bytes} bytes in {elapsed:.3} s \
         exceeds cap {cap:.0}"
    );

    // The budget held through the storm.
    let stats = cluster.worker_stats().unwrap();
    for (w, s) in stats.iter().enumerate() {
        assert!(
            s.resident_bytes <= budget as u64,
            "worker {w} resident {} over budget {budget}",
            s.resident_bytes
        );
    }
}
