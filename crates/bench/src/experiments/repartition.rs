//! Repartition experiments: Figs. 16–18 (resilience to popularity shifts).

use rand::SeedableRng;
use spcache_core::file::FileSet;
use spcache_core::placement::random_partition_map;
use spcache_core::repartition::plan_repartition;
use spcache_core::tuner::{tune_scale_factor_with_rate, TunerConfig};
use spcache_metrics::LoadTracker;
use spcache_sim::Xoshiro256StarStar;
use spcache_store::repartitioner::{run_parallel, run_sequential};
use spcache_store::{StoreCluster, StoreConfig};
use spcache_workload::PopularityModel;

use crate::table::{f2, pct, print_table};
use crate::Scale;

/// Builds a store cluster holding `n_files` files laid out per the tuned
/// α for `pops`, then shifts popularity and returns everything needed to
/// plan the rebalance.
struct ShiftSetup {
    cluster: StoreCluster,
    ids: Vec<u64>,
    plan: spcache_core::repartition::RepartitionPlan,
}

/// File bytes in the *real-bytes* repartition experiments. The paper uses
/// 50 MB files on EC2; moving gigabytes between threads tells us nothing
/// extra, so we scale file size down and the NIC throttle down
/// proportionally — wall-clock ratios (the claim under test) are
/// preserved.
const STORE_FILE_BYTES: usize = 400_000;
const STORE_BANDWIDTH: f64 = 80e6;
const N_WORKERS: usize = 15;

fn shifted_setup(n_files: usize, seed: u64, scale: Scale) -> ShiftSetup {
    let file_bytes = scale.bytes(STORE_FILE_BYTES);
    let cluster = StoreCluster::spawn(StoreConfig::throttled(N_WORKERS, STORE_BANDWIDTH));
    let client = cluster.client();
    let mut pops = PopularityModel::zipf(n_files, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);

    // Initial layout: tuned α on the initial popularity.
    let sizes = vec![file_bytes as f64; n_files];
    let files = FileSet::from_parts(&sizes, &pops.popularities());
    let tuned = tune_scale_factor_with_rate(
        &files,
        N_WORKERS,
        STORE_BANDWIDTH,
        8.0,
        &TunerConfig::default(),
    );
    let map = random_partition_map(&files, tuned.alpha, N_WORKERS, &mut rng);
    let payload: Vec<u8> = (0..file_bytes).map(|i| (i % 253) as u8).collect();
    for i in 0..n_files {
        client
            .write(i as u64, &payload, map.servers_of(i))
            .expect("seed write");
    }

    // Popularity shift: shuffle ranks, retune, replan.
    pops.shift(&mut rng);
    let shifted = FileSet::from_parts(&sizes, &pops.popularities());
    let tuned2 = tune_scale_factor_with_rate(
        &shifted,
        N_WORKERS,
        STORE_BANDWIDTH,
        8.0,
        &TunerConfig::default(),
    );
    let new_counts: Vec<usize> = shifted
        .partition_counts(tuned2.alpha)
        .into_iter()
        .map(|k| k.min(N_WORKERS))
        .collect();
    let plan = plan_repartition(&shifted, &map, &new_counts, &mut rng);
    let ids: Vec<u64> = (0..n_files as u64).collect();
    ShiftSetup { cluster, ids, plan }
}

/// Fig. 16 — parallel vs sequential repartition wall time.
pub fn fig16_repartition_time(scale: Scale) {
    let mut rows = Vec::new();
    for &n_files in &[100usize, 150, 200, 250, 300, 350] {
        // Parallel.
        let setup = shifted_setup(n_files, 16, scale);
        let t0 = std::time::Instant::now();
        run_parallel(
            &setup.plan,
            &setup.ids,
            setup.cluster.master().as_ref(),
            setup.cluster.transport().as_ref(),
        )
        .expect("parallel repartition");
        let par = t0.elapsed().as_secs_f64();

        // Sequential strawman on an identical fresh cluster.
        let setup = shifted_setup(n_files, 16, scale);
        let t0 = std::time::Instant::now();
        run_sequential(
            &setup.plan,
            &setup.ids,
            setup.cluster.master().as_ref(),
            setup.cluster.transport().as_ref(),
        )
        .expect("sequential repartition");
        let seq = t0.elapsed().as_secs_f64();

        rows.push(vec![
            n_files.to_string(),
            f2(par),
            f2(seq),
            format!("{:.0}x", seq / par.max(1e-9)),
        ]);
    }
    print_table(
        "Fig. 16 — repartition wall time, real bytes (paper: parallel < 3 s and flat; sequential ~319 s)",
        &["files", "parallel (s)", "sequential (s)", "speedup"],
        &rows,
    );
    println!(
        "(files scaled to {} KB with a {} MB/s NIC throttle; ratios preserved — DESIGN.md §2)",
        scale.bytes(STORE_FILE_BYTES) / 1000,
        STORE_BANDWIDTH / 1e6
    );
}

/// Fig. 17 — fraction of files repartitioned after a popularity shift.
pub fn fig17_repartition_fraction(scale: Scale) {
    let trials = scale.trials(10);
    let mut rows = Vec::new();
    for &n_files in &[100usize, 150, 200, 250, 300, 350] {
        let mut fractions = Vec::with_capacity(trials);
        for t in 0..trials {
            let mut pops = PopularityModel::zipf(n_files, 1.1);
            let mut rng = Xoshiro256StarStar::seed_from_u64(17_000 + t as u64);
            let sizes = vec![50e6; n_files];
            let files = FileSet::from_parts(&sizes, &pops.popularities());
            let tuned =
                tune_scale_factor_with_rate(&files, 30, 125e6, 8.0, &TunerConfig::default());
            let map = random_partition_map(&files, tuned.alpha, 30, &mut rng);
            pops.shift(&mut rng);
            let shifted = FileSet::from_parts(&sizes, &pops.popularities());
            let tuned2 =
                tune_scale_factor_with_rate(&shifted, 30, 125e6, 8.0, &TunerConfig::default());
            let counts: Vec<usize> = shifted
                .partition_counts(tuned2.alpha)
                .into_iter()
                .map(|k| k.min(30))
                .collect();
            let plan = plan_repartition(&shifted, &map, &counts, &mut rng);
            fractions.push(plan.moved_fraction());
        }
        let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
        let min = fractions.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fractions.iter().cloned().fold(0.0f64, f64::max);
        rows.push(vec![n_files.to_string(), pct(mean), pct(min), pct(max)]);
    }
    print_table(
        "Fig. 17 — fraction of files repartitioned (paper: decreases with population)",
        &["files", "mean", "min", "max"],
        &rows,
    );
}

/// Fig. 18 — load balance after repartition: greedy (Algorithm 2) vs the
/// random placement a sequential full re-layout would use.
pub fn fig18_repartition_balance(_scale: Scale) {
    let n_files = 200;
    let mut pops = PopularityModel::zipf(n_files, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(18);
    let sizes = vec![50e6; n_files];
    let files = FileSet::from_parts(&sizes, &pops.popularities());
    let tuned = tune_scale_factor_with_rate(&files, 30, 125e6, 8.0, &TunerConfig::default());
    let map = random_partition_map(&files, tuned.alpha, 30, &mut rng);

    pops.shift(&mut rng);
    let shifted = FileSet::from_parts(&sizes, &pops.popularities());
    let tuned2 = tune_scale_factor_with_rate(&shifted, 30, 125e6, 8.0, &TunerConfig::default());
    let counts: Vec<usize> = shifted
        .partition_counts(tuned2.alpha)
        .into_iter()
        .map(|k| k.min(30))
        .collect();

    // Greedy (Algorithm 2).
    let plan = plan_repartition(&shifted, &map, &counts, &mut rng);
    // Random full re-layout (what the sequential strawman produces).
    let random_map = random_partition_map(&shifted, tuned2.alpha, 30, &mut rng);

    let eta = |m: &spcache_core::partition::PartitionMap| {
        let mut lt = LoadTracker::new(30);
        for (i, meta) in shifted.iter() {
            let per = meta.load() / m.k_of(i) as f64;
            for &s in m.servers_of(i) {
                lt.add(s, per);
            }
        }
        lt.imbalance_factor()
    };

    let rows = vec![
        vec!["greedy (Algorithm 2)".to_string(), f2(eta(&plan.new_map))],
        vec!["random re-layout".to_string(), f2(eta(&random_map))],
        vec!["stale (pre-shift) layout".to_string(), f2(eta(&map))],
    ];
    print_table(
        "Fig. 18 — post-shift load balance (paper: greedy placement beats random)",
        &["placement", "imbalance factor η"],
        &rows,
    );
}
