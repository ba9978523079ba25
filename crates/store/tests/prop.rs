//! Property-based tests of the in-process store.

use bytes::Bytes;
use proptest::prelude::*;

use std::sync::Arc;
use std::time::Duration;

use spcache_core::online::plan_adjust;
use spcache_store::backing::{checkpoint, recovery_targets, UnderStore};
use spcache_store::fault::FaultRecord;
use spcache_store::online::execute_adjust;
use spcache_store::rpc::{PartKey, Reply, Request, StoreError};
use spcache_store::{FaultPlan, RetryPolicy, StoreCluster, StoreConfig};

/// One operation outcome, comparable across runs. Reads carry their
/// *full byte content* so determinism is checked byte-for-byte, not just
/// by length — the select-driven join consumes replies out of order, and
/// this is the proof the reassembly is order-independent.
type Outcome = Result<Vec<u8>, StoreError>;

/// Everything observable from one faulted run: injected-event log,
/// per-operation outcomes, final placements.
type RunTrace = (Vec<FaultRecord>, Vec<Outcome>, Vec<(u64, Vec<usize>)>);

/// Runs a fixed workload under `plan` and returns everything observable:
/// the injected-event log, per-operation outcomes and final placements.
fn run_faulted(plan: &FaultPlan, n_workers: usize, n_files: u64) -> RunTrace {
    let cfg = StoreConfig::unthrottled(n_workers)
        .with_faults(plan.clone())
        .with_retry(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            deadline: Duration::from_secs(2),
        });
    let cluster = StoreCluster::spawn(cfg);
    let under = Arc::new(UnderStore::new());
    let client = cluster.client().with_under_store(Arc::clone(&under));
    let mut outcomes = Vec::new();

    // Setup is itself exposed to the plan (triggers may fire during the
    // writes), so record its outcomes instead of unwrapping.
    for id in 0..n_files {
        let data: Vec<u8> = (0..1_024).map(|i| ((i + id as usize) % 256) as u8).collect();
        let servers = vec![id as usize % n_workers, (id as usize + 1) % n_workers];
        let wrote = client.write(id, &data, &servers);
        outcomes.push(wrote.map(|()| Vec::new()));
        if outcomes.last().unwrap().is_ok() {
            outcomes.push(checkpoint(&client, &under, id).map(|()| Vec::new()));
        }
    }
    // Three sweeps over every file: faults fire underneath, retries and
    // under-store recovery heal what they can.
    for _ in 0..3 {
        for id in 0..n_files {
            outcomes.push(client.read_quiet(id));
        }
    }
    (cluster.fault_log().snapshot(), outcomes, cluster.master().placements())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Write/read round-trips are byte-exact for arbitrary payloads and
    /// partition counts.
    #[test]
    fn write_read_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..8_192),
        k in 1usize..6,
    ) {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(6));
        let client = cluster.client();
        let servers: Vec<usize> = (0..k).collect();
        client.write(1, &data, &servers).unwrap();
        prop_assert_eq!(client.read(1).unwrap(), data);
    }

    /// Any sequence of online adjustments preserves the bytes and the
    /// resident-partition bookkeeping.
    #[test]
    fn online_adjust_sequences_preserve_bytes(
        data in proptest::collection::vec(any::<u8>(), 1..4_096),
        ks in proptest::collection::vec(1usize..8, 1..5),
    ) {
        let n_workers = 8;
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
        let client = cluster.client();
        client.write(1, &data, &[0]).unwrap();
        for &k in &ks {
            let (_, servers) = cluster.master().peek(1).unwrap();
            let plan = plan_adjust(data.len() as u64, &servers, k, &vec![0.0; n_workers]);
            execute_adjust(1, &plan, cluster.master().as_ref(), cluster.transport().as_ref()).unwrap();
            prop_assert_eq!(&client.read_quiet(1).unwrap(), &data);
            prop_assert_eq!(cluster.master().peek(1).unwrap().1.len(), k);
        }
        let resident: usize = cluster
            .worker_stats()
            .unwrap()
            .iter()
            .map(|s| s.resident_parts)
            .sum();
        prop_assert_eq!(resident, *ks.last().unwrap());
    }

    /// Deletes always clear exactly the file's partitions.
    #[test]
    fn delete_clears_everything(
        data in proptest::collection::vec(any::<u8>(), 1..2_048),
        k in 1usize..5,
    ) {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(5));
        let client = cluster.client();
        let servers: Vec<usize> = (0..k).collect();
        client.write(1, &data, &servers).unwrap();
        prop_assert_eq!(client.delete(1).unwrap(), k);
        let resident: usize = cluster
            .worker_stats()
            .unwrap()
            .iter()
            .map(|s| s.resident_parts)
            .sum();
        prop_assert_eq!(resident, 0);
    }

    /// The chaos harness is deterministic: the same `(seed, shape)`
    /// yields the same plan, and running the same plan twice yields the
    /// identical injected-event log, operation outcomes and final
    /// placements — the contract that makes chaos failures replayable.
    #[test]
    fn same_seed_and_plan_reproduce_identical_runs(
        seed in 0u64..10_000,
        n_events in 1usize..5,
    ) {
        let n_workers = 4;
        let files: Vec<u64> = (0..6).collect();
        let plan = FaultPlan::random(seed, n_workers, n_events, 40, &files);
        prop_assert_eq!(&plan, &FaultPlan::random(seed, n_workers, n_events, 40, &files));

        let (log_a, out_a, place_a) = run_faulted(&plan, n_workers, 6);
        let (log_b, out_b, place_b) = run_faulted(&plan, n_workers, 6);
        prop_assert_eq!(log_a, log_b, "event logs diverged for seed {}", seed);
        prop_assert_eq!(out_a, out_b, "outcomes diverged for seed {}", seed);
        prop_assert_eq!(place_a, place_b, "placements diverged for seed {}", seed);
    }

    /// Recovery placement never doubles up: the targets chosen for a
    /// healed file are distinct live servers, so no two partitions of
    /// one file land on the same worker.
    #[test]
    fn recovery_targets_are_distinct_live_servers(
        raw_live in proptest::collection::vec(0usize..16, 1..10),
        k in 1usize..12,
        id in any::<u64>(),
    ) {
        let mut live = raw_live;
        live.sort_unstable();
        live.dedup();
        let targets = recovery_targets(&live, k, id);
        prop_assert_eq!(targets.len(), k.clamp(1, live.len()));
        let mut seen = std::collections::HashSet::new();
        for &t in &targets {
            prop_assert!(live.contains(&t), "target {} is not a live worker", t);
            prop_assert!(seen.insert(t), "target {} chosen twice for one file", t);
        }
    }

    /// Scatter-gather reads are byte-exact for arbitrary (ragged) sizes
    /// and partition counts — `size % k != 0`, `size < k`, `size == 0`
    /// all included — whichever way the file is consumed (scattered
    /// views or the gathered contiguous buffer), and whether or not a
    /// partition (`lost < k`) was erased first and has to be decoded
    /// from the parity set.
    #[test]
    fn scattered_reads_are_byte_exact_for_ragged_shapes(
        data in proptest::collection::vec(any::<u8>(), 0..10_000),
        k in 1usize..9,
        lost in 0usize..16,
    ) {
        // Worker 4 holds no data partition, so it takes the parity.
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(5).with_parity(1));
        let client = cluster.client();
        let servers: Vec<usize> = (0..k).map(|j| j % 4).collect();
        // One file per way of reading, so each read meets the erasure
        // rather than the other's read repair.
        for id in [1, 2] {
            client.write(id, &data, &servers).unwrap();
            if lost < k {
                let key = PartKey::new(id, lost as u32);
                let gone = cluster.transport().call(servers[lost], Request::Delete { key }, Duration::from_secs(5));
                prop_assert_eq!(gone, Ok(Reply::Flag(true)));
            }
        }
        let file = client.read_scattered(1).unwrap();
        prop_assert_eq!(file.size(), data.len());
        prop_assert_eq!(file.parts().len(), k);
        prop_assert_eq!(file.to_vec(), data.clone());
        prop_assert_eq!(client.read_quiet(2).unwrap(), data);
    }

    /// A memory budget is a hard invariant, not a hint: after every
    /// single operation (writes that overflow, reads that reload,
    /// deletes), no worker's resident bytes exceed its budget — and
    /// every read of an evicted partition comes back byte-identical.
    #[test]
    fn budget_bounds_resident_bytes_after_every_op(
        sizes in proptest::collection::vec(512usize..4_096, 4..10),
        budget in 2_048usize..6_144,
    ) {
        let n_workers = 3;
        let cluster = StoreCluster::spawn(
            StoreConfig::unthrottled(n_workers).with_memory_budget(Some(budget)),
        );
        let client = cluster.client();
        let check = || -> Result<(), TestCaseError> {
            for (w, s) in cluster.worker_stats().unwrap().iter().enumerate() {
                prop_assert!(
                    s.resident_bytes <= budget as u64,
                    "worker {} holds {} resident bytes over the {} budget",
                    w, s.resident_bytes, budget
                );
            }
            Ok(())
        };
        let mut datasets = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            let id = i as u64;
            let data: Vec<u8> = (0..len).map(|j| ((j * 7 + i * 13 + 3) % 256) as u8).collect();
            client.write(id, &data, &[i % n_workers, (i + 1) % n_workers]).unwrap();
            datasets.push(data);
            check()?;
        }
        // Two full sweeps: evicted partitions reload transparently and
        // byte-identically, without ever breaching the budget.
        for _ in 0..2 {
            for (i, data) in datasets.iter().enumerate() {
                prop_assert_eq!(&client.read_quiet(i as u64).unwrap(), data);
                check()?;
            }
        }
        // Deletes release their residency.
        for i in 0..datasets.len() {
            client.delete(i as u64).unwrap();
            check()?;
        }
        let resident: u64 = cluster
            .worker_stats()
            .unwrap()
            .iter()
            .map(|s| s.resident_bytes)
            .sum();
        prop_assert_eq!(resident, 0, "deletes must drain residency entirely");
    }

    /// Evict → read → reload is byte-identical under churn for arbitrary
    /// payloads, and the workload genuinely exercises the spill tier
    /// (evictions and reloaded bytes are both non-zero when the dataset
    /// overflows the fleet's total budget).
    #[test]
    fn evicted_partitions_reload_byte_identical(
        seed_byte in any::<u8>(),
        n_files in 6u64..14,
    ) {
        let n_workers = 2;
        let file_len = 4_096usize;
        let budget = file_len; // each worker holds ~2 partitions
        let cluster = StoreCluster::spawn(
            StoreConfig::unthrottled(n_workers).with_memory_budget(Some(budget)),
        );
        let client = cluster.client();
        let mut datasets = Vec::new();
        for id in 0..n_files {
            let data: Vec<u8> = (0..file_len)
                .map(|j| ((j as u64 * 31 + id * 101 + seed_byte as u64) % 256) as u8)
                .collect();
            client.write(id, &data, &[id as usize % n_workers, (id as usize + 1) % n_workers]).unwrap();
            datasets.push(data);
        }
        // Interleaved sweeps front-to-back and back-to-front so both LRU
        // ends churn.
        for _ in 0..2 {
            for id in 0..n_files {
                prop_assert_eq!(&client.read_quiet(id).unwrap(), &datasets[id as usize]);
            }
            for id in (0..n_files).rev() {
                prop_assert_eq!(&client.read_quiet(id).unwrap(), &datasets[id as usize]);
            }
        }
        let stats = cluster.worker_stats().unwrap();
        let evictions: u64 = stats.iter().map(|s| s.evictions).sum();
        let reloaded: u64 = stats.iter().map(|s| s.reloaded_bytes).sum();
        prop_assert!(evictions > 0, "dataset overflows the budget yet nothing evicted");
        prop_assert!(reloaded > 0, "reads of evicted partitions must reload bytes");
    }

    /// The zero-copy write path never copies: every partition view a
    /// subsequent scattered read returns points *into the caller's
    /// original allocation* (checked by pointer range) — one shared
    /// buffer from writer to workers to reader.
    #[test]
    fn zero_copy_write_shares_the_callers_allocation(
        len in 1usize..8_192,
        k in 1usize..6,
    ) {
        let data: Vec<u8> = (0..len).map(|i| ((i * 13 + 5) % 256) as u8).collect();
        let backing = Bytes::from(data.clone());
        let base = backing.as_ptr() as usize;
        let limit = base + backing.len();
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        let client = cluster.client();
        let servers: Vec<usize> = (0..k).map(|j| j % 3).collect();
        client.write_bytes(7, backing.clone(), &servers).unwrap();
        let file = client.read_scattered(7).unwrap();
        for part in file.parts() {
            if !part.is_empty() {
                let p = part.as_ptr() as usize;
                prop_assert!(
                    p >= base && p + part.len() <= limit,
                    "partition bytes were copied somewhere on the write/read path"
                );
            }
        }
        prop_assert_eq!(file.to_vec(), data);
    }
}

/// The ISSUE's named edge shapes, pinned deterministically (proptest
/// above covers the space randomly; these never rotate away).
#[test]
fn scatter_gather_edge_shapes() {
    for &(len, k) in &[
        (0usize, 1usize), // empty file, one partition
        (0, 5),           // empty file, many partitions
        (3, 8),           // size < k: trailing empty partitions
        (17, 4),          // size % k != 0: short tail
        (1, 1),           // minimal
        (64, 8),          // exact tiling
    ] {
        let data: Vec<u8> = (0..len).map(|i| ((i * 31 + 7) % 256) as u8).collect();
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        let servers: Vec<usize> = (0..k).map(|j| j % 4).collect();
        client.write(1, &data, &servers).unwrap();
        let file = client.read_scattered(1).unwrap();
        assert_eq!(file.size(), len, "size mismatch at len={len} k={k}");
        assert_eq!(file.to_vec(), data, "bytes mismatch at len={len} k={k}");
        assert_eq!(client.read_quiet(1).unwrap(), data, "gather mismatch at len={len} k={k}");
    }
}
