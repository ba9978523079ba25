//! Fault tolerance (§8): SP-Cache is redundancy-free, so a dead cache
//! server loses partitions — and recovers them from the checkpointed
//! under-store, exactly like Alluxio over S3/HDFS.
//!
//! ```bash
//! cargo run --release --example fault_tolerance
//! ```

use spcache::store::backing::{checkpoint, read_or_recover, UnderStore};
use spcache::store::{StoreCluster, StoreConfig};

fn main() {
    let cluster = StoreCluster::spawn(StoreConfig::unthrottled(6));
    let client = cluster.client();
    let data: Vec<u8> = (0..2_000_000).map(|i| ((i * 131 + 7) % 256) as u8).collect();

    // A hot file split across four workers, plus a cold one.
    client.write(1, &data, &[0, 1, 2, 3]).expect("write hot");
    client.write(2, &data[..50_000], &[4]).expect("write cold");
    println!("wrote file 1 (4 partitions) and file 2 (1 partition)");

    // Periodic checkpointing to the (slow) stable tier.
    let under = UnderStore::with_bandwidth(60e6); // disk-like 60 MB/s
    checkpoint(&client, &under, 1).expect("checkpoint 1");
    checkpoint(&client, &under, 2).expect("checkpoint 2");
    println!("checkpointed both files to the under-store");

    // A machine dies, taking file 1's partition 2 with it.
    cluster.kill_worker(2);
    println!("\nworker 2 died");
    match client.read(1) {
        Err(e) => println!("plain read of file 1 now fails: {e}"),
        Ok(_) => unreachable!("partition 2 is gone"),
    }

    // The fault-tolerant read path recovers from the under-store.
    let t0 = std::time::Instant::now();
    let recovered = read_or_recover(&client, cluster.master().as_ref(), &under, 1, &[0, 1, 3, 5])
        .expect("recovery");
    println!(
        "read_or_recover restored file 1 in {:.3}s ({} bytes, byte-exact: {})",
        t0.elapsed().as_secs_f64(),
        recovered.len(),
        recovered == data
    );

    // Subsequent reads are served from cache again, at cache speed.
    let t0 = std::time::Instant::now();
    let again = client.read(1).expect("cached read");
    println!(
        "next plain read: {:.4}s from the new layout {:?}",
        t0.elapsed().as_secs_f64(),
        cluster.master().peek(1).expect("meta").1
    );
    assert_eq!(again, data);

    // The file that never touched the dead worker is unaffected.
    assert_eq!(client.read(2).expect("cold"), &data[..50_000]);
    println!("file 2 was never affected — redundancy-free, but nothing lost");
}
