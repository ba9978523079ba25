//! Hot-spot mitigation on the *real* in-process store: write skewed
//! files, watch one worker melt, then let SP-Cache repartition and watch
//! the load even out.
//!
//! ```bash
//! cargo run --release --example hotspot_mitigation
//! ```

use spcache::core::tuner::TunerConfig;
use spcache::store::repartitioner::run_parallel;
use spcache::store::{StoreCluster, StoreConfig};
use spcache::workload::zipf::ZipfSampler;
use rand::SeedableRng;
use spcache::sim::Xoshiro256StarStar;

const N_WORKERS: usize = 8;
const N_FILES: u64 = 40;
const FILE_BYTES: usize = 256 * 1024;
const BANDWIDTH: f64 = 200e6;

fn served_summary(cluster: &StoreCluster) -> (Vec<f64>, f64) {
    let served = cluster.served_bytes().expect("stats");
    let mean = served.iter().sum::<f64>() / served.len() as f64;
    let max = served.iter().cloned().fold(0.0f64, f64::max);
    let eta = if mean > 0.0 { (max - mean) / mean } else { 0.0 };
    (served, eta)
}

fn drive_reads(cluster: &StoreCluster, n_reads: usize, seed: u64) {
    let client = cluster.client();
    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    for _ in 0..n_reads {
        let file = sampler.sample(&mut rng) as u64;
        client.read(file).expect("read");
    }
}

fn main() {
    // A throttled 8-worker cluster holding 40 files, every file whole on
    // one worker (SP-Cache's write path: new files are not split).
    let cluster = StoreCluster::spawn(StoreConfig::throttled(N_WORKERS, BANDWIDTH));
    let client = cluster.client();
    let payload: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 251) as u8).collect();
    for id in 0..N_FILES {
        client
            .write(id, &payload, &[(id as usize) % N_WORKERS])
            .expect("write");
    }

    // Phase 1: skewed reads → hot spots.
    println!("phase 1: 600 Zipf(1.1) reads against unsplit files ...");
    let t0 = std::time::Instant::now();
    drive_reads(&cluster, 600, 1);
    let phase1 = t0.elapsed().as_secs_f64();
    let (served, eta) = served_summary(&cluster);
    println!("  took {phase1:.2}s; per-worker MB served: {:?}",
        served.iter().map(|b| (b / 1e6 * 10.0).round() / 10.0).collect::<Vec<_>>());
    println!("  imbalance factor η = {eta:.2} (hot spot!)");

    // Phase 2: the master replans from observed popularity (Algorithm 1)
    // and the per-worker repartitioners execute Algorithm 2 in parallel.
    println!("\nphase 2: rebalancing (Algorithms 1 + 2) ...");
    let (ids, plan, tuned) = cluster.master().plan_rebalance(
        N_WORKERS,
        BANDWIDTH,
        8.0,
        &TunerConfig::default(),
        42,
    ).expect("plan");
    println!(
        "  tuned α = {:.3e}; {} of {} files repartitioned ({:.0}% moved)",
        tuned.alpha,
        plan.jobs.len(),
        N_FILES,
        plan.moved_fraction() * 100.0
    );
    let t0 = std::time::Instant::now();
    run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).expect("repartition");
    println!("  parallel repartition finished in {:.3}s", t0.elapsed().as_secs_f64());
    let hottest = ids
        .iter()
        .map(|&id| cluster.master().peek(id).expect("meta").1.len())
        .max()
        .unwrap();
    println!("  hottest file now spans {hottest} workers");

    // Phase 3: same skewed reads against the balanced layout.
    println!("\nphase 3: 600 more Zipf(1.1) reads against the balanced layout ...");
    let before = cluster.served_bytes().expect("stats");
    let t0 = std::time::Instant::now();
    drive_reads(&cluster, 600, 2);
    let phase3 = t0.elapsed().as_secs_f64();
    let served_now = cluster.served_bytes().expect("stats");
    let delta: Vec<f64> = served_now
        .iter()
        .zip(&before)
        .map(|(now, past)| now - past)
        .collect();
    let mean = delta.iter().sum::<f64>() / delta.len() as f64;
    let max = delta.iter().cloned().fold(0.0f64, f64::max);
    println!("  took {phase3:.2}s (was {phase1:.2}s before rebalancing)");
    println!(
        "  post-rebalance imbalance factor η = {:.2}",
        if mean > 0.0 { (max - mean) / mean } else { 0.0 }
    );
    println!(
        "\nspeedup from selective partition: {:.1}x",
        phase1 / phase3
    );
}
