//! Deterministic chaos: a scripted [`FaultPlan`] crashes a worker, hangs
//! another and drops a cached partition while a client keeps reading —
//! every read survives via retries and under-store healing, and the
//! injected-event log replays identically run after run (asserted).
//!
//! ```bash
//! cargo run --release --example chaos_injection
//! ```

use std::sync::Arc;
use std::time::Duration;

use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::rpc::PartKey;
use spcache::store::{FaultPlan, RetryPolicy, StoreCluster, StoreConfig};

fn payload(id: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i as u64 * 131 + id * 17) % 256) as u8).collect()
}

fn run_once() -> Vec<spcache::store::FaultRecord> {
    // Worker 1 crashes on its 4th data-path request, worker 3 stalls
    // 80 ms on its 5th, and worker 4 silently loses file 2's partition 0.
    let plan = FaultPlan::none()
        .crash(1, 4)
        .hang(3, 5, Duration::from_millis(80))
        .drop_partition(4, 5, PartKey::new(2, 0));

    let cluster = StoreCluster::spawn(
        StoreConfig::unthrottled(6)
            .with_faults(plan)
            .with_retry(RetryPolicy::default()),
    );
    let under = Arc::new(UnderStore::new());
    let client = cluster.client().with_under_store(Arc::clone(&under));

    for id in 0..4u64 {
        let servers = vec![id as usize % 6, (id as usize + 2) % 6];
        client.write(id, &payload(id, 64_000), &servers).unwrap();
        checkpoint(&client, &under, id).unwrap();
    }

    // Read everything, repeatedly, while the faults fire underneath.
    for round in 0..4 {
        for id in 0..4u64 {
            let bytes = client.read_quiet(id).expect("read must survive chaos");
            assert_eq!(bytes, payload(id, 64_000), "round {round}, file {id}");
        }
    }

    println!(
        "  all 16 reads byte-exact; worker 1 alive: {}",
        cluster.master().is_alive(1),
    );
    cluster.fault_log().snapshot()
}

fn main() {
    println!("run A:");
    let a = run_once();
    println!("run B:");
    let b = run_once();

    assert_eq!(a, b, "the injected-event log differs between runs");
    println!("\ninjected events (identical across runs):");
    for r in &a {
        println!("  worker {} op {:>2}: {:?}", r.worker, r.op, r.action);
    }
}
