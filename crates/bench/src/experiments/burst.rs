//! Extension experiment (§8): short-term popularity bursts handled by
//! online partition adjustment.
//!
//! Periodic (12-hourly) repartition cannot help a file that turns hot
//! *now*. §8 proposes reacting online by splitting the file's existing
//! partitions in place. This experiment stages exactly that on the real
//! store: concurrent clients suddenly converge on one cold file, its
//! worker saturates, the online adjuster splits the file, and latency
//! recovers — with the adjustment itself costing a fraction of the file.

use std::time::Instant;

use rand::SeedableRng;
use spcache_core::online::plan_adjust;
use spcache_metrics::Summary;
use spcache_sim::Xoshiro256StarStar;
use spcache_store::repartitioner::execute_adjust;
use spcache_store::{StoreCluster, StoreConfig};
use spcache_workload::dist::uniform_usize;

use crate::table::{f2, print_table};
use crate::Scale;

const N_WORKERS: usize = 8;
const N_FILES: u64 = 24;
const N_CLIENTS: usize = 6;
const BANDWIDTH: f64 = 100e6;

/// Drives one phase with `N_CLIENTS` concurrent clients; 80% of reads go
/// to `hot` when set, else uniform. Returns per-read latency stats (ms).
fn drive(cluster: &StoreCluster, hot: Option<u64>, reads_per_client: usize, seed: u64) -> Summary {
    let summaries: Vec<Summary> = std::thread::scope(|s| {
        (0..N_CLIENTS)
            .map(|c| {
                let client = cluster.client();
                s.spawn(move || {
                    let mut rng = Xoshiro256StarStar::seed_from_u64(seed + c as u64);
                    let mut stats = Summary::new();
                    for _ in 0..reads_per_client {
                        let id = match hot {
                            Some(h) if uniform_usize(&mut rng, 10) < 8 => h,
                            _ => uniform_usize(&mut rng, N_FILES as usize) as u64,
                        };
                        let t0 = Instant::now();
                        client.read(id).expect("read");
                        stats.record(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    stats
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    let mut total = Summary::new();
    for s in &summaries {
        total.merge(s);
    }
    total
}

/// `ext-burst` — per-phase read latency around a popularity burst.
pub fn ext_burst_reaction(scale: Scale) {
    let file_bytes = scale.bytes(1_000_000);
    let cluster = StoreCluster::spawn(StoreConfig::throttled(N_WORKERS, BANDWIDTH));
    let client = cluster.client();
    let payload: Vec<u8> = (0..file_bytes).map(|i| (i % 251) as u8).collect();
    for id in 0..N_FILES {
        client
            .write(id, &payload, &[(id as usize) % N_WORKERS])
            .expect("seed write");
    }

    let burst_file: u64 = 7;
    let reads_per_client = (scale.requests(600) / N_CLIENTS).clamp(30, 120);

    // Phase 1: calm, uniform reads.
    let calm = drive(&cluster, None, reads_per_client, 1);

    // Phase 2: the burst hits file 7 while it is a single partition.
    let burst = drive(&cluster, Some(burst_file), reads_per_client, 2);

    // React: online-adjust just that file to 6 partitions.
    let (_, servers) = cluster.master().peek(burst_file).expect("meta");
    let served = cluster.served_bytes().expect("stats");
    let plan = plan_adjust(file_bytes as u64, &servers, 6, &served);
    let adjust_t0 = Instant::now();
    execute_adjust(burst_file, &plan, cluster.master().as_ref(), cluster.transport().as_ref())
        .expect("online adjust");
    let adjust_secs = adjust_t0.elapsed().as_secs_f64();

    // Phase 3: the burst continues against the split layout.
    let after = drive(&cluster, Some(burst_file), reads_per_client, 3);

    let rows = vec![
        vec!["calm (uniform reads)".into(), f2(calm.mean()), f2(calm.max())],
        vec![
            "burst, file unsplit".into(),
            f2(burst.mean()),
            f2(burst.max()),
        ],
        vec![
            "burst, after online split".into(),
            f2(after.mean()),
            f2(after.max()),
        ],
    ];
    print_table(
        "§8 extension — burst reaction via online adjustment (6 concurrent clients, read latency ms)",
        &["phase", "mean (ms)", "max (ms)"],
        &rows,
    );
    println!(
        "online split 1 → 6 took {:.1} ms and moved {:.2} MB ({:.0}% of the file); \
         burst mean recovered {:.1}x",
        adjust_secs * 1e3,
        plan.network_bytes() as f64 / 1e6,
        plan.network_bytes() as f64 / file_bytes as f64 * 100.0,
        burst.mean() / after.mean().max(1e-9),
    );
}
