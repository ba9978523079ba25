//! Fault tolerance (§8): SP-Cache is redundancy-free, so a dead cache
//! server loses partitions — and recovers them from the checkpointed
//! under-store, exactly like Alluxio over S3/HDFS.
//!
//! ```bash
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;

use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::{Client, RetryPolicy, StoreCluster, StoreConfig};

fn main() {
    // The cluster's clients retry failed reads and heal from the (slow)
    // stable tier first: a read that meets a lost partition re-splits
    // the file from its checkpoint onto live workers, then retries.
    let under = Arc::new(UnderStore::with_bandwidth(60e6)); // disk-like 60 MB/s
    let cfg = StoreConfig::unthrottled(6).with_retry(RetryPolicy::default());
    let cluster = StoreCluster::spawn_with_under_store(cfg, Some(Arc::clone(&under)));
    let client = cluster.client();
    let data: Vec<u8> = (0..2_000_000).map(|i| ((i * 131 + 7) % 256) as u8).collect();

    // A hot file split across four workers, plus a cold one.
    client.write(1, &data, &[0, 1, 2, 3]).expect("write hot");
    client.write(2, &data[..50_000], &[4]).expect("write cold");
    println!("wrote file 1 (4 partitions) and file 2 (1 partition)");

    // Periodic checkpointing to the stable tier.
    checkpoint(&client, &under, 1).expect("checkpoint 1");
    checkpoint(&client, &under, 2).expect("checkpoint 2");
    println!("checkpointed both files to the under-store");

    // A machine dies, taking file 1's partition 2 with it.
    cluster.kill_worker(2);
    println!("\nworker 2 died");
    let plain = Client::new(cluster.master().clone(), cluster.transport().clone());
    match plain.read(1) {
        Err(e) => println!("a read without the under-store now fails: {e}"),
        Ok(_) => unreachable!("partition 2 is gone"),
    }

    // The cluster's client heals from the under-store and retries.
    let t0 = std::time::Instant::now();
    let recovered = client.read(1).expect("healing read");
    println!(
        "the healing read restored file 1 in {:.3}s ({} bytes, byte-exact: {})",
        t0.elapsed().as_secs_f64(),
        recovered.len(),
        recovered == data
    );

    assert_eq!(recovered, data);

    // Subsequent reads are served from cache again, at cache speed.
    let t0 = std::time::Instant::now();
    let again = client.read(1).expect("cached read");
    println!(
        "next read: {:.4}s from the new layout {:?}",
        t0.elapsed().as_secs_f64(),
        cluster.master().peek(1).expect("meta").1
    );
    assert_eq!(again, data);

    // The file that never touched the dead worker is unaffected.
    assert_eq!(client.read(2).expect("cold"), &data[..50_000]);
    println!("file 2 was never affected — redundancy-free, but nothing lost");
}
