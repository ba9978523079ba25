//! Extension experiment (§8): online partition adjustment vs Algorithm 2's
//! reassembly path.
//!
//! Not a paper figure — the paper sketches this as future work ("SP-Cache
//! can split and combine the existing partitions ... in a distributed
//! manner and incurs only a small amount of data transfer"). This
//! experiment quantifies that claim on the real store: bytes moved and
//! wall time for an online k → k' adjustment vs reassembling through a
//! repartitioner.

use spcache_core::online::plan_adjust;
use spcache_store::repartitioner::execute_adjust;
use spcache_store::{StoreCluster, StoreConfig};

use crate::table::{f2, print_table};
use crate::Scale;

/// `ext-online` — online split/combine vs full reassembly.
pub fn ext_online_adjustment(scale: Scale) {
    let n_workers = 12;
    let file_bytes = scale.bytes(4_000_000);
    let bandwidth = 120e6;
    let payload: Vec<u8> = (0..file_bytes).map(|i| (i % 251) as u8).collect();

    let mut rows = Vec::new();
    for &(old_k, new_k) in &[(1usize, 4usize), (4, 8), (8, 12), (8, 4), (12, 2), (6, 6)] {
        // Fresh throttled cluster holding the file at old_k.
        let cluster = StoreCluster::spawn(StoreConfig::throttled(n_workers, bandwidth));
        let client = cluster.client();
        let servers: Vec<usize> = (0..old_k).collect();
        client.write(1, &payload, &servers).expect("seed write");

        let plan = plan_adjust(file_bytes as u64, &servers, new_k, &vec![0.0; n_workers]);
        let served_before: f64 = cluster.served_bytes().expect("stats").iter().sum();
        let t0 = std::time::Instant::now();
        execute_adjust(1, &plan, cluster.master().as_ref(), cluster.transport().as_ref())
            .expect("online adjust");
        let online_time = t0.elapsed().as_secs_f64();
        let moved: f64 =
            cluster.served_bytes().expect("stats").iter().sum::<f64>() - served_before;
        assert_eq!(client.read_quiet(1).expect("read"), payload);

        // The reassembly alternative, estimated at the same bandwidth.
        let reassembly = plan.reassembly_bytes() as f64;
        rows.push(vec![
            format!("{old_k} → {new_k}"),
            f2(moved / 1e6),
            f2(plan.network_bytes() as f64 / 1e6),
            f2(reassembly / 1e6),
            f2(online_time * 1e3),
            f2(reassembly / bandwidth * 1e3),
        ]);
    }
    print_table(
        "§8 extension — online adjustment vs reassembly (per-file, MB and ms)",
        &[
            "k → k'",
            "bytes served (MB)",
            "planned net (MB)",
            "reassembly (MB)",
            "online time (ms)",
            "reassembly est (ms)",
        ],
        &rows,
    );
    println!(
        "(file {:.1} MB; 'bytes served' includes local pulls, 'planned net' only cross-server)",
        file_bytes as f64 / 1e6
    );
}
