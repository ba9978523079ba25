//! Executor for online partition-granularity adjustments
//! ([`spcache_core::online`], the paper's §8 extension).
//!
//! Execution is staged so readers never observe a torn layout:
//!
//! 1. **Build** — every new partition is assembled on its target worker
//!    under a *staged* key (high bit of the partition index set), pulling
//!    only the byte sub-ranges it lacks from their current holders
//!    (`GetRange`), in parallel across target workers.
//! 2. **Commit** — old keys are deleted, staged keys are renamed to their
//!    final indices (an in-worker HashMap move, no bytes), and the master
//!    metadata is swapped.
//!
//! Like the repartitioner, the adjuster speaks only through a
//! [`Transport`], so it works identically over in-process channels and
//! TCP.

use bytes::Bytes;
use spcache_core::online::OnlinePlan;
use std::time::Duration;

use crate::forkjoin::Fanout;
use crate::master::MetaService;
use crate::rpc::{PartKey, Request, StoreError};
use crate::transport::Transport;

/// Upper bound on any single worker wait during an adjustment, so a
/// worker dying mid-build cannot hang the executor.
const ADJUST_DEADLINE: Duration = Duration::from_secs(5);

/// Builds one new partition on its target worker under the staged key.
fn build_partition(
    file: u64,
    part: &spcache_core::online::NewPartition,
    io: Fanout<'_>,
) -> Result<(), StoreError> {
    let mut buf = Vec::with_capacity(part.range.len() as usize);
    for pull in &part.pulls {
        let range = Request::GetRange {
            key: PartKey::new(file, pull.from_part),
            offset: pull.offset_in_part,
            len: pull.len,
        };
        let bytes = io.call(pull.from_server, range, ADJUST_DEADLINE)?.bytes()?;
        debug_assert_eq!(bytes.len() as u64, pull.len, "short range read");
        buf.extend_from_slice(&bytes);
    }
    // Stamp the staged partition's checksum: the file's master-side
    // integrity row dies with the re-split, so the worker-held sum is
    // what keeps verified reads working after the swap.
    let put = Request::Put {
        key: PartKey::new(file, part.index).staged(),
        sum: spcache_integrity::sum(&buf),
        data: Bytes::from(buf),
    };
    io.call(part.server, put, ADJUST_DEADLINE)?.unit()
}

/// Executes an online adjustment for `file`: builds staged partitions in
/// parallel (one thread per target worker), then commits.
///
/// # Errors
///
/// Returns the first worker/metadata error. Dead workers among the
/// plan's pull sources or build targets are rejected up front with
/// [`StoreError::WorkerDown`] — the caller should replan against the
/// live fleet. Before the commit phase the original layout is
/// untouched, so a build-phase error leaves the file fully readable. A
/// staged partition lost before its commit is
/// [`StoreError::NotFound`] of its staged key, with the new placement
/// applied and the file degraded.
pub fn execute_adjust(
    file: u64,
    plan: &OnlinePlan,
    master: &dyn MetaService,
    transport: &dyn Transport,
) -> Result<(), StoreError> {
    let (_, old_servers) = master.peek(file)?;
    assert_eq!(
        old_servers.len(),
        plan.old_k,
        "plan was made for a different layout"
    );
    // Refuse plans that touch dead workers: an adjustment (unlike a
    // recovery) has no second copy to rebuild from, so targets and
    // sources must all be live before any byte moves.
    for part in &plan.parts {
        if !master.is_alive(part.server) {
            return Err(StoreError::WorkerDown(part.server));
        }
        for pull in &part.pulls {
            if !master.is_alive(pull.from_server) {
                return Err(StoreError::WorkerDown(pull.from_server));
            }
        }
    }
    let io = Fanout::plain(master, transport);

    // Phase 1: build, parallel across target servers.
    let results: Vec<Result<(), StoreError>> = std::thread::scope(|s| {
        plan.parts
            .iter()
            .map(|part| s.spawn(move || build_partition(file, part, io)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("build thread panicked"))
            .collect()
    });
    results.into_iter().collect::<Result<(), _>>()?;

    // Phase 2: commit — drop old keys, unstage new ones, swap metadata.
    io.commit_staged(file, &old_servers, &plan.new_servers(), ADJUST_DEADLINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StoreCluster;
    use crate::config::StoreConfig;
    use spcache_core::online::plan_adjust;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 37 + 11) % 256) as u8).collect()
    }

    fn loads(n: usize) -> Vec<f64> {
        vec![0.0; n]
    }

    /// Runs one adjustment and checks byte-exactness + placement.
    fn roundtrip(n_workers: usize, initial: &[usize], new_k: usize, len: usize) {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
        let client = cluster.client();
        let data = payload(len);
        client.write(1, &data, initial).unwrap();

        let plan = plan_adjust(len as u64, initial, new_k, &loads(n_workers));
        execute_adjust(
            1,
            &plan,
            cluster.master().as_ref(),
            cluster.transport().as_ref(),
        )
        .unwrap();

        let (_, servers) = cluster.master().peek(1).unwrap();
        assert_eq!(servers.len(), new_k);
        assert_eq!(client.read_quiet(1).unwrap(), data, "bytes corrupted");
        // No staged or stale partitions left.
        let resident: usize = cluster
            .worker_stats()
            .unwrap()
            .iter()
            .map(|s| s.resident_parts)
            .sum();
        assert_eq!(resident, new_k);
    }

    #[test]
    fn split_whole_file_online() {
        roundtrip(6, &[2], 4, 10_001);
    }

    #[test]
    fn combine_back_to_one() {
        roundtrip(6, &[0, 1, 2, 3], 1, 8_000);
    }

    #[test]
    fn resize_up_and_down() {
        roundtrip(8, &[0, 3, 5], 7, 9_999);
        roundtrip(8, &[0, 1, 2, 3, 4, 5, 6], 3, 9_999);
    }

    #[test]
    fn identity_adjustment_is_noop_on_bytes() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        let data = payload(5_000);
        client.write(1, &data, &[1, 3]).unwrap();
        let plan = plan_adjust(5_000, &[1, 3], 2, &loads(4));
        assert_eq!(plan.network_bytes(), 0);
        execute_adjust(
            1,
            &plan,
            cluster.master().as_ref(),
            cluster.transport().as_ref(),
        )
        .unwrap();
        assert_eq!(client.read_quiet(1).unwrap(), data);
        assert_eq!(cluster.master().peek(1).unwrap().1, vec![1, 3]);
    }

    #[test]
    fn repeated_adjustments_stay_consistent() {
        let n_workers = 8;
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
        let client = cluster.client();
        let len = 12_345;
        let data = payload(len);
        client.write(1, &data, &[0]).unwrap();
        let seq = [3usize, 8, 2, 5, 1, 6];
        for &k in &seq {
            let (_, servers) = cluster.master().peek(1).unwrap();
            let plan = plan_adjust(len as u64, &servers, k, &loads(n_workers));
            execute_adjust(
                1,
                &plan,
                cluster.master().as_ref(),
                cluster.transport().as_ref(),
            )
            .unwrap();
            assert_eq!(client.read_quiet(1).unwrap(), data, "after k={k}");
            assert_eq!(cluster.master().peek(1).unwrap().1.len(), k);
        }
    }

    #[test]
    fn a_staged_partition_lost_before_commit_is_reported_not_a_panic() {
        // File 1 whole on worker 0, split in two online. The new
        // partition's target crash-restarts cold between its staged Put
        // (its op 0) and the commit's Rename (op 1): the rename finds
        // nothing, the new placement is applied all the same (the file
        // is degraded, which the heal owns), and the lost staged key is
        // the error.
        let (n, len) = (4, 10_000);
        let plan = plan_adjust(len as u64, &[0], 2, &loads(n));
        let target = plan.parts[1].server;
        assert_ne!(target, 0, "the new partition lands on a worker holding nothing");
        let cfg = StoreConfig::unthrottled(n)
            .with_faults(crate::fault::FaultPlan::none().crash_restart(target, 1));
        let cluster = StoreCluster::spawn(cfg);
        let client = cluster.client();
        client.write(1, &payload(len), &[0]).unwrap();
        let (master, transport) = (cluster.master().as_ref(), cluster.transport().as_ref());
        assert_eq!(
            execute_adjust(1, &plan, master, transport),
            Err(StoreError::NotFound(PartKey::new(1, 1).staged()))
        );
        assert_eq!(master.peek(1).unwrap().1, plan.new_servers());
        assert_eq!(
            client.read_quiet(1),
            Err(StoreError::NotFound(PartKey::new(1, 1))),
            "the degraded file is a typed erasure"
        );
    }

    #[test]
    fn online_moves_fewer_bytes_than_reassembly() {
        // Measure actual served bytes for a 4 → 6 adjustment and compare
        // against the reassembly estimate.
        let n_workers = 8;
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
        let client = cluster.client();
        let len = 100_000;
        client.write(1, &payload(len), &[0, 1, 2, 3]).unwrap();
        let served_before: f64 = cluster.served_bytes().unwrap().iter().sum();
        let plan = plan_adjust(len as u64, &[0, 1, 2, 3], 6, &loads(n_workers));
        execute_adjust(
            1,
            &plan,
            cluster.master().as_ref(),
            cluster.transport().as_ref(),
        )
        .unwrap();
        let served_after: f64 = cluster.served_bytes().unwrap().iter().sum();
        let moved = served_after - served_before;
        assert!(
            moved < plan.reassembly_bytes() as f64,
            "online moved {moved} vs reassembly {}",
            plan.reassembly_bytes()
        );
        // And matches the plan's own accounting (pulls include local ones
        // in served bytes, so allow that slack).
        let max_expected: u64 = plan.parts.iter().map(|p| p.range.len()).sum();
        assert!(moved <= max_expected as f64 + 1.0);
    }
}
