//! Popularity shift end-to-end: the §7.4 scenario on the real store.
//! Ranks get shuffled, the master replans, and the parallel repartitioners
//! race the naive sequential scheme.
//!
//! ```bash
//! cargo run --release --example popularity_shift
//! ```

use rand::SeedableRng;
use spcache::core::placement::random_partition_map;
use spcache::core::repartition::plan_repartition;
use spcache::core::tuner::{tune_scale_factor_with_rate, TunerConfig};
use spcache::core::FileSet;
use spcache::sim::Xoshiro256StarStar;
use spcache::store::repartitioner::{run_parallel, run_sequential};
use spcache::store::{StoreCluster, StoreConfig};
use spcache::workload::PopularityModel;

const N_WORKERS: usize = 10;
const N_FILES: usize = 120;
const FILE_BYTES: usize = 300_000;
const BANDWIDTH: f64 = 120e6;

/// Builds a cluster laid out for `pops`, returns it plus the layout map.
fn build(pops: &PopularityModel, seed: u64) -> (StoreCluster, spcache::core::partition::PartitionMap) {
    let cluster = StoreCluster::spawn(StoreConfig::throttled(N_WORKERS, BANDWIDTH));
    let client = cluster.client();
    let sizes = vec![FILE_BYTES as f64; N_FILES];
    let files = FileSet::from_parts(&sizes, &pops.popularities());
    let tuned = tune_scale_factor_with_rate(&files, N_WORKERS, BANDWIDTH, 8.0, &TunerConfig::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let map = random_partition_map(&files, tuned.alpha, N_WORKERS, &mut rng);
    let payload: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 249) as u8).collect();
    for i in 0..N_FILES {
        client.write(i as u64, &payload, map.servers_of(i)).expect("write");
    }
    (cluster, map)
}

fn main() {
    let mut pops = PopularityModel::zipf(N_FILES, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(4242);

    println!("initial layout tuned for Zipf(1.1) over {N_FILES} files on {N_WORKERS} workers");

    // The shift: shuffle every rank (more drastic than production, per the
    // paper).
    let original = pops.clone();
    pops.shift(&mut rng);
    println!(
        "popularity shift: {:.0}% of files changed rank",
        original.rank_change_fraction(&pops) * 100.0
    );

    // Replan against the shifted popularity.
    let sizes = vec![FILE_BYTES as f64; N_FILES];
    let shifted_files = FileSet::from_parts(&sizes, &pops.popularities());
    let tuned = tune_scale_factor_with_rate(
        &shifted_files,
        N_WORKERS,
        BANDWIDTH,
        8.0,
        &TunerConfig::default(),
    );
    let counts: Vec<usize> = shifted_files
        .partition_counts(tuned.alpha)
        .into_iter()
        .map(|k| k.min(N_WORKERS))
        .collect();

    // Parallel repartition (Algorithm 2).
    let (cluster, map) = build(&original, 1);
    let plan = plan_repartition(&shifted_files, &map, &counts, &mut rng);
    println!(
        "plan: {} files move ({:.0}%), {:.1} MB crosses the network",
        plan.jobs.len(),
        plan.moved_fraction() * 100.0,
        plan.total_network_bytes(&shifted_files) / 1e6
    );
    let ids: Vec<u64> = (0..N_FILES as u64).collect();
    let t0 = std::time::Instant::now();
    run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).expect("parallel");
    let par = t0.elapsed().as_secs_f64();
    println!("parallel repartition (per-worker executors): {par:.3}s");

    // Sequential strawman on an identical cluster.
    let (cluster2, map2) = build(&original, 1);
    let plan2 = plan_repartition(&shifted_files, &map2, &counts, &mut rng);
    let t0 = std::time::Instant::now();
    run_sequential(&plan2, &ids, cluster2.master().as_ref(), cluster2.transport().as_ref()).expect("sequential");
    let seq = t0.elapsed().as_secs_f64();
    println!("sequential strawman (collect everything at one node): {seq:.3}s");
    println!("\nspeedup: {:.0}x (paper: two orders of magnitude at EC2 scale)", seq / par.max(1e-9));

    // Sanity: data survived.
    let client = cluster.client();
    let expect: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 249) as u8).collect();
    for id in 0..N_FILES as u64 {
        assert_eq!(client.read_quiet(id).expect("read"), expect, "file {id}");
    }
    println!("all {N_FILES} files verified byte-for-byte after repartition");
}
