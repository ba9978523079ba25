//! End-to-end integration: the real store driven through the façade crate
//! — write, skewed reads, Algorithm 1 + 2 rebalance, byte-exact reads
//! after the dust settles.

use rand::SeedableRng;
use spcache::core::tuner::TunerConfig;
use spcache::sim::Xoshiro256StarStar;
use spcache::store::repartitioner::run_parallel;
use spcache::store::{StoreCluster, StoreConfig};
use spcache::workload::zipf::ZipfSampler;

fn payload(id: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(id * 7) % 256) as u8)
        .collect()
}

#[test]
fn full_lifecycle_write_read_rebalance_read() {
    let n_workers = 6;
    let n_files = 30u64;
    let len = 20_000;
    let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
    let client = cluster.client();

    // Write every file whole (the SP-Cache write path).
    for id in 0..n_files {
        client
            .write(id, &payload(id, len), &[(id as usize) % n_workers])
            .unwrap();
    }

    // Skewed reads to build popularity.
    let sampler = ZipfSampler::new(n_files as usize, 1.2);
    let mut rng = Xoshiro256StarStar::seed_from_u64(5);
    for _ in 0..2_000 {
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(client.read(id).unwrap(), payload(id, len));
    }
    client.flush_accesses();

    // Rebalance.
    let (ids, plan, tuned) =
        cluster
            .master()
            .plan_rebalance(n_workers, 1e9, 8.0, &TunerConfig::default(), 9).unwrap();
    assert!(tuned.alpha > 0.0);
    assert!(
        !plan.jobs.is_empty(),
        "skewed accesses must trigger repartitioning"
    );
    run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).unwrap();

    // The hottest file is split; every file still reads byte-for-byte.
    let hottest_k = cluster.master().peek(0).unwrap().1.len();
    assert!(hottest_k > 1, "hottest file should be partitioned");
    for id in 0..n_files {
        assert_eq!(client.read_quiet(id).unwrap(), payload(id, len), "file {id}");
    }

    // Partition bookkeeping is exact: resident partitions = Σ k_i.
    let expected: usize = (0..n_files)
        .map(|id| cluster.master().peek(id).unwrap().1.len())
        .sum();
    let resident: usize = cluster
        .worker_stats()
        .unwrap()
        .iter()
        .map(|s| s.resident_parts)
        .sum();
    assert_eq!(resident, expected, "stale or missing partitions");
}

#[test]
fn rebalance_spreads_served_load() {
    let n_workers = 8;
    let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
    let client = cluster.client();
    let len = 50_000;
    // Everything initially on worker 0 — worst case.
    for id in 0..20u64 {
        client.write(id, &payload(id, len), &[0]).unwrap();
    }
    let sampler = ZipfSampler::new(20, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(6);
    for _ in 0..500 {
        let id = sampler.sample(&mut rng) as u64;
        client.read(id).unwrap();
    }
    client.flush_accesses();
    let before = cluster.served_bytes().unwrap();
    assert!(before[1..].iter().all(|&b| b == 0.0));

    let (ids, plan, _) =
        cluster
            .master()
            .plan_rebalance(n_workers, 1e9, 8.0, &TunerConfig::default(), 10).unwrap();
    run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).unwrap();

    // Drive the same skew again; load must now hit multiple workers.
    for _ in 0..500 {
        let id = sampler.sample(&mut rng) as u64;
        client.read(id).unwrap();
    }
    let after = cluster.served_bytes().unwrap();
    let newly_serving = after
        .iter()
        .zip(&before)
        .filter(|(a, b)| **a > **b + 1.0)
        .count();
    assert!(
        newly_serving >= n_workers / 2,
        "load still concentrated: {after:?}"
    );
}

#[test]
fn concurrent_clients_with_repartition_running() {
    // Readers keep reading while a repartition happens; every read that
    // succeeds must be byte-exact (metadata races may surface as clean
    // errors, never corruption).
    let n_workers = 4;
    let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
    let client = cluster.client();
    let len = 30_000;
    for id in 0..10u64 {
        client.write(id, &payload(id, len), &[(id as usize) % n_workers]).unwrap();
    }
    for _ in 0..50 {
        client.read(0).unwrap();
    }
    client.flush_accesses();
    let (ids, plan, _) =
        cluster
            .master()
            .plan_rebalance(n_workers, 1e9, 8.0, &TunerConfig::default(), 11).unwrap();

    std::thread::scope(|s| {
        let reader_client = cluster.client();
        let reader = s.spawn(move || {
            let mut ok = 0usize;
            for round in 0..200 {
                let id = (round % 10) as u64;
                if let Ok(bytes) = reader_client.read_quiet(id) {
                    assert_eq!(bytes, payload(id, len), "corrupt read of file {id}");
                    ok += 1;
                }
            }
            ok
        });
        run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).unwrap();
        let ok = reader.join().unwrap();
        assert!(ok > 0, "no read succeeded during repartition");
    });
}
