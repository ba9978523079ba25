//! Corruption-to-erasure recovery end to end over real sockets
//! (DESIGN.md §4.15), SIGKILL-free: the cluster stays up the whole
//! time. Bytes are flipped in a live worker's spill area — the tier
//! where bit rot actually lives — and every read must still come back
//! byte-exact: the always-on reload verification turns the flip into a
//! typed `Corrupt` erasure, and recovery runs through Cauchy-RS parity
//! (no under-store) or the under-store heal path (no parity), all over
//! loopback TCP.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spcache_net::TcpCluster;
use spcache_store::backing::{checkpoint, UnderStore};
use spcache_store::rpc::PartKey;
use spcache_store::StoreConfig;

mod common;
use common::{payload, retry};

const FILE_LEN: usize = 30_000;

/// A one-byte budget spills every partition straight through to the
/// under-store tier, so each read reloads (and therefore re-verifies)
/// its bytes — the deployment shape where spill-area rot surfaces.
fn spilling_config() -> StoreConfig {
    StoreConfig::unthrottled(4)
        .with_memory_budget(Some(1))
        .with_verify_reads(true)
        .with_retry(retry())
}

/// A budget holding ~1.5 partitions per worker: partitions stay
/// resident until a colder neighbour pushes them out, so eviction (and
/// the spill copies rot lands in) follows real LRU pressure instead of
/// spilling everything straight through.
fn evicting_config() -> StoreConfig {
    StoreConfig::unthrottled(4)
        .with_memory_budget(Some(FILE_LEN / 2))
        .with_verify_reads(true)
        .with_retry(retry())
}

/// Flips one bit of a spilled partition in place — rot on the stable
/// tier, landed from outside the worker process while it serves.
fn flip_spill_byte(under: &UnderStore, key: PartKey, byte: usize) {
    let data = under.spill_load(key).expect("partition must be spilled");
    let mut v = data.to_vec();
    let i = byte % v.len();
    v[i] ^= 0x40;
    under.spill_put(key, v.into());
}

fn corruptions_detected(cluster: &TcpCluster) -> u64 {
    cluster
        .worker_stats()
        .unwrap()
        .iter()
        .map(|s| s.corruptions_detected)
        .sum()
}

#[test]
fn spill_rot_heals_from_the_under_store_over_sockets() {
    let under = Arc::new(UnderStore::new());
    let cluster = TcpCluster::spawn_with_under_store(evicting_config(), Some(under.clone()));
    let client = cluster.client();
    let data = payload(1, FILE_LEN);
    client.write(1, &data, &[0, 1, 2]).unwrap();
    // A colder file landing on worker 0 evicts `(1, 0)` — no checkpoint
    // of file 1 exists yet, so the eviction writes it to the spill area.
    let cold = payload(2, FILE_LEN / 3);
    client.write(2, &cold, &[0]).unwrap();
    assert!(
        under.spill_contains(PartKey::new(1, 0)),
        "eviction must have spilled the partition"
    );
    checkpoint(&client, &under, 1).unwrap();
    assert_eq!(corruptions_detected(&cluster), 0);

    flip_spill_byte(&under, PartKey::new(1, 0), 7);
    // Reading the cold file pushes `(1, 0)` out of residency again
    // (clean, so the flipped spill copy survives as the only copy) …
    assert_eq!(client.read_quiet(2).unwrap(), cold, "cold read");
    // … and the next read of file 1 reloads it: the always-on reload
    // verification turns the rot into an erasure and the read heals
    // from the whole-file checkpoint — byte-exact, no restart.
    assert_eq!(client.read_quiet(1).unwrap(), data, "post-flip read");
    assert_eq!(corruptions_detected(&cluster), 1);
    assert_eq!(client.read_quiet(1).unwrap(), data, "post-heal read");
}

#[test]
fn spill_rot_rebuilds_from_parity_over_sockets() {
    // The under-store here is only the shared spill tier — no
    // checkpoint is ever written into it, so the heal path has nothing
    // to heal from and the only recovery is the client-side Cauchy-RS
    // rebuild from the surviving k-of-(k+1) shards: a byte-exact read
    // proves the parity tier alone healed the rot.
    let under = Arc::new(UnderStore::new());
    let cluster =
        TcpCluster::spawn_with_under_store(spilling_config().with_parity(1), Some(under.clone()));
    let client = cluster.client();
    let data = payload(1, FILE_LEN);
    client.write(1, &data, &[0, 1, 2]).unwrap();
    assert_eq!(client.read_quiet(1).unwrap(), data, "pre-flip read");

    flip_spill_byte(&under, PartKey::new(1, 1), 3);
    assert_eq!(client.read_quiet(1).unwrap(), data, "post-flip read");
    assert_eq!(corruptions_detected(&cluster), 1);

    // The fire-and-forget read repair re-lands the rebuilt partition
    // (counted by the worker as a decode reconstruction), after which
    // reads stop paying the decode.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let landed: u64 = cluster
            .worker_stats()
            .unwrap()
            .iter()
            .map(|s| s.decode_reconstructions)
            .sum();
        if landed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "read repair never re-landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(client.read_quiet(1).unwrap(), data, "post-repair read");
}
