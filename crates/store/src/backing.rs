//! Fault tolerance via a backing under-store (the paper's §8 discussion).
//!
//! SP-Cache is redundancy-free, so a *failed* cache server loses
//! partitions — by design. The paper's answer (§8) is Alluxio's layered
//! storage: the cache periodically **checkpoints** files to a stable
//! under-store (S3/HDFS, which replicate internally), and lost data is
//! **recovered** from there on demand. This module provides that layer
//! for the in-process store:
//!
//! * [`UnderStore`] — a thread-safe stand-in for the stable storage tier,
//!   with a configurable per-byte read delay (disks are ~an order of
//!   magnitude slower than the cache tier),
//! * [`checkpoint`] — persist a cached file,
//! * [`recover_file`] — re-split a checkpointed file onto live workers
//!   and fix the metadata,
//! * [`read_or_recover`] — the client-facing read path: serve from cache,
//!   and on lost partitions transparently recover and retry.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::client::{split_rows, Client};
use crate::master::MetaService;
use crate::rpc::{PartKey, StoreError};

/// A stable storage tier holding whole-file copies, plus a **spill
/// area** of individual partitions written back by memory-budgeted
/// workers (see [`crate::config::StoreConfig::memory_budget`]): an
/// evicted partition whose file has no whole-file checkpoint here is
/// spilled so eviction never loses the only copy.
///
/// It also carries a small **metadata region** — named durable blobs
/// used by the master's write-ahead op-log and snapshots
/// ([`crate::metalog`]). The region lives in memory by default (shared
/// `Arc` failover within one process) and mirrors to a directory when
/// built [`UnderStore::with_meta_dir`], which is what lets a standby
/// *process* replay a kill-9'd master's log.
#[derive(Debug, Default)]
pub struct UnderStore {
    files: RwLock<HashMap<u64, Bytes>>,
    spill: RwLock<HashMap<crate::rpc::PartKey, Bytes>>,
    /// Named metadata blobs (op-log segments + snapshots), sorted by
    /// name so lexicographic listing doubles as LSN ordering.
    meta: RwLock<BTreeMap<String, Vec<u8>>>,
    /// Disk mirror of the meta region, when configured.
    meta_dir: Option<PathBuf>,
    /// Seconds of read delay per byte (0 for tests; ~1/60e6 for a
    /// disk-like 60 MB/s tier).
    read_delay_per_byte: f64,
}

impl UnderStore {
    /// An under-store with no read delay.
    pub fn new() -> Self {
        UnderStore::default()
    }

    /// An under-store reading at `bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive bandwidth.
    pub fn with_bandwidth(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        UnderStore {
            read_delay_per_byte: 1.0 / bytes_per_sec,
            ..UnderStore::default()
        }
    }

    /// Mirrors the metadata region to `dir` (created if missing),
    /// loading any blobs already there — a restarted or standby master
    /// process opening the same directory sees its predecessor's op-log
    /// and snapshots.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or reading the directory or one of its
    /// blobs (for one, `dir` names a regular file).
    pub fn with_meta_dir(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut meta = BTreeMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let Some(name) = entry.file_name().to_str().map(String::from) else {
                continue;
            };
            // Skip tmp files from an interrupted atomic replace.
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            meta.insert(name, std::fs::read(entry.path())?);
        }
        self.meta = RwLock::new(meta);
        self.meta_dir = Some(dir);
        Ok(self)
    }

    /// Reloads the metadata region from the mirror directory, discarding
    /// the in-memory view. No-op without a meta dir. A standby taking
    /// over calls this for an authoritative final replay — whatever the
    /// dead master flushed is what counts.
    pub fn meta_reload(&self) {
        let Some(dir) = &self.meta_dir else { return };
        let mut fresh = BTreeMap::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                    continue;
                }
                let Some(name) = entry.file_name().to_str().map(String::from) else {
                    continue;
                };
                if name.ends_with(".tmp") {
                    continue;
                }
                if let Ok(bytes) = std::fs::read(entry.path()) {
                    fresh.insert(name, bytes);
                }
            }
        }
        *self.meta.write() = fresh;
    }

    /// Writes (or atomically replaces) a named metadata blob. On disk
    /// this is a tmp-file + rename, so a crash mid-write never leaves a
    /// torn snapshot under the real name.
    pub fn meta_put(&self, name: &str, bytes: &[u8]) {
        let mut meta = self.meta.write();
        if let Some(dir) = &self.meta_dir {
            let tmp = dir.join(format!("{name}.tmp"));
            if std::fs::write(&tmp, bytes).is_ok() {
                let _ = std::fs::rename(&tmp, dir.join(name));
            }
        }
        meta.insert(name.to_string(), bytes.to_vec());
    }

    /// Appends bytes to a named metadata blob (creating it if absent) —
    /// the O(delta) path op-log records take, one disk append per
    /// record instead of a full rewrite.
    pub fn meta_append(&self, name: &str, bytes: &[u8]) {
        let mut meta = self.meta.write();
        if let Some(dir) = &self.meta_dir {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(name))
            {
                let _ = f.write_all(bytes);
            }
        }
        meta.entry(name.to_string()).or_default().extend_from_slice(bytes);
    }

    /// Reads a named metadata blob.
    pub fn meta_get(&self, name: &str) -> Option<Vec<u8>> {
        self.meta.read().get(name).cloned()
    }

    /// Names of metadata blobs starting with `prefix`, in lexicographic
    /// (= LSN) order.
    pub fn meta_list(&self, prefix: &str) -> Vec<String> {
        self.meta
            .read()
            .keys()
            .filter(|n| n.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Deletes a named metadata blob (compaction of superseded segments
    /// and snapshots). Returns whether it was present.
    pub fn meta_remove(&self, name: &str) -> bool {
        let mut meta = self.meta.write();
        if let Some(dir) = &self.meta_dir {
            let _ = std::fs::remove_file(dir.join(name));
        }
        meta.remove(name).is_some()
    }

    /// Persists (or overwrites) a file copy.
    pub fn persist(&self, id: u64, data: Bytes) {
        self.files.write().insert(id, data);
    }

    /// Loads a file copy, paying the configured read delay.
    pub fn load(&self, id: u64) -> Option<Bytes> {
        let data = self.files.read().get(&id).cloned()?;
        if self.read_delay_per_byte > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(
                data.len() as f64 * self.read_delay_per_byte,
            ));
        }
        Some(data)
    }

    /// Whether a checkpoint exists.
    pub fn contains(&self, id: u64) -> bool {
        self.files.read().contains_key(&id)
    }

    /// Number of checkpointed files.
    pub fn len(&self) -> usize {
        self.files.read().len()
    }

    /// Whether the under-store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.read().is_empty()
    }

    /// Writes an evicted partition into the spill area (overwriting any
    /// previous spill of the same key). Writes pay no modelled delay —
    /// the *worker* paces the writeback through its background NIC
    /// share before calling this.
    pub fn spill_put(&self, key: crate::rpc::PartKey, data: Bytes) {
        self.spill.write().insert(key, data);
    }

    /// Loads a spilled partition, paying the configured read delay —
    /// reloads come off the slow tier.
    pub fn spill_load(&self, key: crate::rpc::PartKey) -> Option<Bytes> {
        let data = self.spill.read().get(&key).cloned()?;
        if self.read_delay_per_byte > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(
                data.len() as f64 * self.read_delay_per_byte,
            ));
        }
        Some(data)
    }

    /// Whether a partition sits in the spill area.
    pub fn spill_contains(&self, key: crate::rpc::PartKey) -> bool {
        self.spill.read().contains_key(&key)
    }

    /// Renames a spilled partition (commit of a staged key that was
    /// evicted before its commit arrived). Returns whether `from` was
    /// present.
    pub fn spill_rename(&self, from: crate::rpc::PartKey, to: crate::rpc::PartKey) -> bool {
        let mut spill = self.spill.write();
        match spill.remove(&from) {
            Some(data) => {
                spill.insert(to, data);
                true
            }
            None => false,
        }
    }

    /// Drops a spilled partition. Returns whether it was present.
    pub fn spill_remove(&self, key: crate::rpc::PartKey) -> bool {
        self.spill.write().remove(&key).is_some()
    }

    /// `(partitions, bytes)` currently held in the spill area.
    pub fn spilled(&self) -> (usize, u64) {
        let spill = self.spill.read();
        let bytes = spill.values().map(|b| b.len() as u64).sum();
        (spill.len(), bytes)
    }
}

/// Checkpoints one cached file into the under-store (Alluxio's periodic
/// persistence). Reads through the cache without bumping popularity.
///
/// # Errors
///
/// Propagates read failures — a file with already-lost partitions cannot
/// be checkpointed.
pub fn checkpoint(client: &Client, under: &UnderStore, id: u64) -> Result<(), StoreError> {
    let bytes = client.read_quiet(id)?;
    under.persist(id, Bytes::from(bytes));
    Ok(())
}

/// Picks `k` distinct recovery targets from the (sorted, ascending)
/// `live` worker list, rotated by the file id so concurrent recoveries
/// spread across the fleet instead of piling onto the lowest-indexed
/// live servers. `k` is clamped to `live.len()`, so two partitions of
/// one file never land on the same server.
pub fn recovery_targets(live: &[usize], k: usize, id: u64) -> Vec<usize> {
    assert!(!live.is_empty(), "no live workers to recover onto");
    let k = k.clamp(1, live.len());
    let offset = (id % live.len() as u64) as usize;
    (0..k).map(|i| live[(offset + i) % live.len()]).collect()
}

/// Recovers a lost file from the under-store: re-splits it into
/// `new_servers.len()` partitions on the given (live) servers, swaps the
/// metadata, then garbage-collects partitions of the old layout.
///
/// The swap is failure-safe: new partitions are fully pushed **before**
/// the metadata changes, so an error part-way (e.g. a recovery target
/// dying too) leaves the old placement — degraded but registered —
/// intact for another attempt.
///
/// Every heal first acquires the file's repair slot in the master's
/// registry ([`MetaService::begin_repair`]) and releases it on exit —
/// the single dedup point shared by the supervisor's sweep, the
/// client's lazy retry heal, and [`heal_degraded`]. A file is never
/// healed twice concurrently.
///
/// # Errors
///
/// [`StoreError::Degraded`] when another repair of this file is already
/// in flight (not retryable — wait it out or shed the op);
/// [`StoreError::UnknownFile`] if no checkpoint exists;
/// [`StoreError::Corrupt`] when the checkpoint's bytes no longer match
/// the file's integrity row (placement and row are left untouched);
/// [`StoreError::Codec`] for an empty `new_servers` or one naming a
/// worker outside the fleet; worker errors if a target is down too.
pub fn recover_file(
    client: &Client,
    master: &dyn MetaService,
    under: &UnderStore,
    id: u64,
    new_servers: &[usize],
) -> Result<(), StoreError> {
    if !master.begin_repair(id) {
        return Err(StoreError::Degraded(id));
    }
    let result = (|| {
        let data = under.load(id).ok_or(StoreError::UnknownFile(id))?;
        let (_, old_servers) = master.peek(id)?;
        let mut rows = Vec::with_capacity(new_servers.len());
        let sums = split_rows(id, &data, new_servers, &mut rows)?;
        // A checkpoint is outside the cache's integrity domain: prove it
        // against the file's recorded sums (a row of this placement's
        // width) before any Put leaves and it becomes the bytes every
        // later read verifies against.
        if let Some(row) = master.integrity(id).filter(|r| r.sums.len() == sums.len()) {
            let rotted = |(&want, &got): (&u64, &u64)| {
                want != spcache_integrity::UNVERIFIED && want != got
            };
            if let Some(j) = row.sums.iter().zip(&sums).position(rotted) {
                return Err(StoreError::Corrupt(PartKey::new(id, j as u32)));
            }
        }
        client.put_all(rows)?;
        master.apply_placement(id, new_servers.to_vec())?;
        // The placement swap invalidated the old integrity row; record
        // a fresh data-only one so verified reads keep working. The heal
        // does not re-encode parity (the checkpoint remains the second
        // copy until the next full write); best-effort, like the GC.
        let _ = master.set_integrity(id, crate::metalog::FileIntegrity::data_only(sums));
        // GC partitions of the old layout that the new one did not
        // overwrite (same index on the same server). Dead holders are
        // skipped silently — their copies died with them.
        let stale = old_servers.iter().enumerate();
        client.discard(
            stale
                .filter(|&(j, server)| new_servers.get(j) != Some(server))
                .map(|(j, &server)| (server, PartKey::new(id, j as u32)))
                .collect(),
        );
        Ok(())
    })();
    master.end_repair(id);
    result
}

/// Scans the master for degraded files (a partition on a dead worker)
/// and recovers each from the under-store onto live servers. Files
/// without a checkpoint are left degraded and reported back; files
/// whose repair slot is held elsewhere (an in-flight sweep or lazy
/// heal) are skipped silently — they are someone else's heal, not a
/// failure.
///
/// Returns `(healed, unrecoverable)` file id lists.
pub fn heal_degraded(
    client: &Client,
    master: &dyn MetaService,
    under: &UnderStore,
    n_workers: usize,
) -> (Vec<u64>, Vec<u64>) {
    let live = master.live_workers(n_workers);
    let mut healed = Vec::new();
    let mut unrecoverable = Vec::new();
    for id in master.degraded_files() {
        if live.is_empty() || !under.contains(id) {
            unrecoverable.push(id);
            continue;
        }
        let k = master.peek(id).map(|(_, s)| s.len()).unwrap_or(1);
        let targets = recovery_targets(&live, k, id);
        match recover_file(client, master, under, id, &targets) {
            Ok(()) => healed.push(id),
            Err(StoreError::Degraded(_)) => {}
            Err(_) => unrecoverable.push(id),
        }
    }
    (healed, unrecoverable)
}

/// The fault-tolerant read path: try the cache; if a partition or worker
/// is gone, recover from the under-store onto `fallback_servers` and
/// serve the recovered bytes. When another repair of the file is
/// already in flight, waits (bounded) for it to land and re-reads
/// instead of healing twice.
///
/// # Errors
///
/// Fails only when the file is neither cached nor checkpointed, or when
/// an in-flight repair does not land within the bounded wait
/// ([`StoreError::Degraded`]).
pub fn read_or_recover(
    client: &Client,
    master: &dyn MetaService,
    under: &UnderStore,
    id: u64,
    fallback_servers: &[usize],
) -> Result<Vec<u8>, StoreError> {
    match client.read(id) {
        Ok(bytes) => Ok(bytes),
        Err(StoreError::NotFound(_)) | Err(StoreError::WorkerDown(_)) => {
            match recover_file(client, master, under, id, fallback_servers) {
                Ok(()) => {}
                Err(StoreError::Degraded(_)) => {
                    // Someone else is healing this file; poll for their
                    // repair to land instead of duplicating it.
                    for _ in 0..50 {
                        std::thread::sleep(Duration::from_millis(10));
                        if let Ok(bytes) = client.read(id) {
                            return Ok(bytes);
                        }
                    }
                    return Err(StoreError::Degraded(id));
                }
                Err(e) => return Err(e),
            }
            client.read(id)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StoreCluster;
    use crate::config::StoreConfig;
    use crate::rpc::{Reply, Request};
    use std::time::Duration;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 97 + 5) % 256) as u8).collect()
    }

    /// Drops one partition directly at a worker (simulating data loss
    /// without killing the thread).
    fn lose_partition(cluster: &StoreCluster, server: usize, key: PartKey) {
        let reply = cluster
            .transport()
            .call(server, Request::Delete { key }, Duration::from_secs(5))
            .unwrap();
        assert_eq!(reply, Reply::Flag(true), "partition was not resident");
    }

    #[test]
    fn checkpoint_and_contains() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        let client = cluster.client();
        let data = payload(4_000);
        client.write(1, &data, &[0, 1]).unwrap();
        let under = UnderStore::new();
        checkpoint(&client, &under, 1).unwrap();
        assert!(under.contains(1));
        assert_eq!(under.load(1).unwrap(), Bytes::from(data));
    }

    #[test]
    fn lost_partition_breaks_plain_reads() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        let client = cluster.client();
        client.write(1, &payload(4_000), &[0, 1]).unwrap();
        lose_partition(&cluster, 1, PartKey::new(1, 1));
        assert!(matches!(
            client.read(1),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn read_or_recover_restores_lost_partition() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        let data = payload(9_001);
        client.write(1, &data, &[0, 1, 2]).unwrap();
        let under = UnderStore::new();
        checkpoint(&client, &under, 1).unwrap();

        lose_partition(&cluster, 2, PartKey::new(1, 2));
        let got = read_or_recover(&client, cluster.master().as_ref(), &under, 1, &[0, 3]).unwrap();
        assert_eq!(got, data);
        // Subsequent plain reads work again from the new layout.
        assert_eq!(client.read(1).unwrap(), data);
        assert_eq!(cluster.master().peek(1).unwrap().1, vec![0, 3]);
    }

    #[test]
    fn recovery_without_checkpoint_fails_cleanly() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let client = cluster.client();
        client.write(1, &payload(100), &[0]).unwrap();
        lose_partition(&cluster, 0, PartKey::new(1, 0));
        let under = UnderStore::new();
        assert_eq!(
            read_or_recover(&client, cluster.master().as_ref(), &under, 1, &[1]).unwrap_err(),
            StoreError::UnknownFile(1)
        );
    }

    #[test]
    fn rotted_checkpoint_is_refused_and_the_clean_one_heals() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client().with_verify(true);
        let data = payload(6_000);
        client.write(1, &data, &[0, 1]).unwrap();
        let under = UnderStore::new();
        checkpoint(&client, &under, 1).unwrap();
        // The checkpoint rots: one flipped bit in partition 1's half.
        let mut rotted = data.clone();
        rotted[4_500] ^= 0x10;
        under.persist(1, Bytes::from(rotted));

        cluster.kill_worker(1);
        let master = cluster.master();
        let before = (master.peek(1).unwrap(), master.integrity(1));
        assert!(before.1.is_some(), "a verifying write records the row");
        assert_eq!(
            recover_file(&client, master.as_ref(), &under, 1, &[0, 2]),
            Err(StoreError::Corrupt(PartKey::new(1, 1)))
        );
        assert_eq!((master.peek(1).unwrap(), master.integrity(1)), before);

        under.persist(1, Bytes::from(data.clone()));
        recover_file(&client, master.as_ref(), &under, 1, &[0, 2]).unwrap();
        assert_eq!(master.peek(1).unwrap().1, vec![0, 2]);
        assert_eq!(client.read(1).unwrap(), data);
    }

    #[test]
    fn dead_worker_recovery() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        let data = payload(6_000);
        client.write(1, &data, &[0, 1]).unwrap();
        let under = UnderStore::new();
        checkpoint(&client, &under, 1).unwrap();

        cluster.kill_worker(1);
        assert!(matches!(client.read(1), Err(StoreError::WorkerDown(1))));
        let got = read_or_recover(&client, cluster.master().as_ref(), &under, 1, &[0, 2, 3]).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn recovery_honors_understore_bandwidth() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let client = cluster.client();
        let data = payload(1_000_000);
        client.write(1, &data, &[0]).unwrap();
        // Disk-like 10 MB/s under-store: loading 1 MB takes ~100 ms.
        let under = UnderStore::with_bandwidth(10e6);
        checkpoint(&client, &under, 1).unwrap();
        let t0 = std::time::Instant::now();
        assert!(under.load(1).is_some());
        assert!(
            t0.elapsed().as_secs_f64() >= 0.08,
            "under-store read should be slow"
        );
    }

    #[test]
    fn recovery_targets_are_distinct_and_rotated() {
        let live = vec![0, 2, 3, 5];
        for id in 0..20u64 {
            for k in 1..=6 {
                let t = recovery_targets(&live, k, id);
                assert_eq!(t.len(), k.min(live.len()));
                let mut uniq = t.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), t.len(), "duplicate target for id {id} k {k}");
                assert!(t.iter().all(|s| live.contains(s)));
            }
        }
        // Rotation spreads the first target across the fleet.
        assert_ne!(recovery_targets(&live, 1, 0), recovery_targets(&live, 1, 1));
    }

    #[test]
    fn failed_recovery_leaves_metadata_intact() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        let client = cluster.client();
        let data = payload(2_000);
        client.write(1, &data, &[0, 1]).unwrap();
        let under = UnderStore::new();
        checkpoint(&client, &under, 1).unwrap();
        cluster.kill_worker(2);
        // Recovery targeting the dead worker fails...
        assert!(recover_file(&client, cluster.master().as_ref(), &under, 1, &[2]).is_err());
        // ...but the file stays registered with its old placement.
        assert_eq!(cluster.master().peek(1).unwrap().1, vec![0, 1]);
        assert_eq!(client.read_quiet(1).unwrap(), data);
    }

    #[test]
    fn heal_degraded_recovers_checkpointed_files_onto_live_workers() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        let data1 = payload(5_000);
        let data2 = payload(1_234);
        client.write(1, &data1, &[0, 1]).unwrap();
        client.write(2, &data2, &[1]).unwrap();
        client.write(3, &payload(100), &[1]).unwrap(); // never checkpointed
        let under = UnderStore::new();
        checkpoint(&client, &under, 1).unwrap();
        checkpoint(&client, &under, 2).unwrap();

        cluster.kill_worker(1);
        let (healed, unrecoverable) =
            heal_degraded(&client, cluster.master().as_ref(), &under, 4);
        assert_eq!(healed, vec![1, 2]);
        assert_eq!(unrecoverable, vec![3]);
        assert_eq!(client.read_quiet(1).unwrap(), data1);
        assert_eq!(client.read_quiet(2).unwrap(), data2);
        // Healed placements avoid the dead worker.
        for id in [1u64, 2] {
            let (_, servers) = cluster.master().peek(id).unwrap();
            assert!(servers.iter().all(|&s| s != 1), "file {id} on dead worker");
        }
    }

    #[test]
    fn checkpoint_does_not_count_as_access() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let client = cluster.client();
        client.write(1, &payload(100), &[0]).unwrap();
        let under = UnderStore::new();
        checkpoint(&client, &under, 1).unwrap();
        assert_eq!(cluster.master().accesses(1), 0);
    }
}
