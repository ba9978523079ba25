//! Algorithm 2's executors: move bytes according to a
//! [`spcache_core::repartition::RepartitionPlan`].
//!
//! [`run_parallel`] is the paper's scheme (§6.2): each job runs on an
//! executor thread standing in for the SP-Repartitioner of the worker that
//! already holds one of the file's partitions; executors handle disjoint
//! file sets concurrently. [`run_sequential`] is the strawman it is
//! compared against in Fig. 16 — every file (changed or not) is collected
//! and re-distributed one at a time through a single node.
//!
//! Executors are transport-agnostic: every byte moves through a
//! [`Transport`], so the same code repartitions an in-process cluster
//! and a fleet of `spcached` processes over TCP.
//!
//! All executor traffic is **background-stamped**
//! ([`Request::background`]): repartition pulls and pushes ride the
//! workers' background NIC share (§4.4), so a rebalance never starves
//! the foreground read path it is trying to improve.

use bytes::Bytes;
use spcache_core::repartition::{RepartitionJob, RepartitionPlan};
use spcache_ec::{join_shards_bytes, split_shards_bytes};
use std::time::Duration;

use crate::forkjoin::Fanout;
use crate::master::MetaService;
use crate::rpc::{PartKey, Reply, Request, StoreError};
use crate::transport::Transport;

/// Default for how long an executor waits on any single worker reply
/// before giving the worker up as hung. Bounds every blocking call in a
/// job, so a worker dying (or hanging) mid-repartition can never
/// deadlock the executor fleet. Override per-cluster with
/// [`crate::config::StoreConfig::with_executor_deadline`] and the
/// `*_with_deadline` entry points.
pub const DEFAULT_EXECUTOR_DEADLINE: Duration = Duration::from_secs(5);

/// Whether an error means "this worker is unavailable" (dead, hung, or
/// unreachable) as opposed to a logic/metadata problem.
fn is_availability(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::WorkerDown(_) | StoreError::Timeout(_) | StoreError::Io(_)
    )
}

/// The background-stamped Put of one shard, carrying its checksum.
fn put(key: PartKey, shard: Bytes) -> Request {
    let sum = spcache_integrity::sum(&shard);
    Request::Put { key, data: shard, sum }.background()
}

/// The background-stamped `Get` of partition `j` of `file`.
fn get(file: u64, j: usize) -> Request {
    let key = PartKey::new(file, j as u32);
    Request::Get { key }.background()
}

/// The background-stamped best-effort deletes of `file`'s partitions
/// (staged or final) on `servers`, index by index.
fn deletes(file: u64, servers: &[usize], staged: bool) -> Vec<(usize, Request)> {
    let holders = servers.iter().enumerate();
    holders
        .map(|(j, &server)| {
            let key = PartKey::new(file, j as u32);
            let key = if staged { key.staged() } else { key };
            (server, Request::Delete { key }.background())
        })
        .collect()
}

/// Executes one repartition job: pull old partitions, reassemble,
/// re-split, push new partitions, delete old ones, and swap the metadata.
///
/// Target workers that die mid-job are skipped: their shard is re-pushed
/// to the lowest-indexed live worker not already holding a partition of
/// this file, and the metadata swap records the substitute. Source
/// failures (an old partition's holder is gone) abort the job with the
/// old placement untouched — the file is degraded and must heal through
/// the under-store, since this cache keeps no second copy.
fn execute_job(
    job: &RepartitionJob,
    file_id: u64,
    io: Fanout<'_>,
    deadline: Duration,
) -> Result<(), StoreError> {
    let master = io.master;
    let (size, _) = master.peek(file_id)?;

    // Pull the old partitions (the executor's own partition needs no
    // network hop in the real system; here every pull goes through the
    // owning worker's throttle, which is also true of Alluxio's local
    // short-circuit-free path).
    let mut shards: Vec<Bytes> = Vec::with_capacity(job.old_servers.len());
    for (j, &server) in job.old_servers.iter().enumerate() {
        shards.push(io.call(server, get(file_id, j), deadline)?.bytes()?);
    }
    let data = join_shards_bytes(&shards, size);

    // Targets may have died since planning; replace dead ones up front,
    // keeping the distinct-server invariant within the file.
    let mut targets = job.new_servers.clone();
    let substitute_targets = |targets: &mut Vec<usize>, failed: Option<usize>| {
        let live = master.live_workers(io.transport.n_workers());
        for i in 0..targets.len() {
            let dead = Some(targets[i]) == failed || !master.is_alive(targets[i]);
            if dead {
                if let Some(sub) = live
                    .iter()
                    .copied()
                    .find(|w| Some(*w) != failed && !targets.contains(w))
                {
                    targets[i] = sub;
                }
                // No substitute available: leave it and let the push
                // surface the error.
            }
        }
    };
    substitute_targets(&mut targets, None);

    // Re-split and push to the target servers in parallel under STAGED
    // keys: nothing in the readable (unstaged) key space changes until
    // commit, so a job aborted here leaves the old layout intact and
    // the file readable. A target failing mid-push gets its shard
    // re-routed to a substitute.
    let data = Bytes::from(data);
    let new_shards: Vec<Bytes> = split_shards_bytes(&data, targets.len());
    let staged = |j: usize| PartKey::new(file_id, j as u32).staged();
    // Re-routes shard `j`, whose target `server` failed with `e`, to a
    // live substitute.
    let reroute = |targets: &mut Vec<usize>, j: usize, server: usize, e: StoreError| {
        substitute_targets(targets, Some(server));
        if targets[j] == server {
            return Err(e); // no live substitute left
        }
        let retry = put(staged(j), new_shards[j].clone());
        io.call(targets[j], retry, deadline)?.unit()
    };
    let push_result = (|| {
        // One fork per shard, so a failed submit names its target.
        let mut pending = Vec::with_capacity(new_shards.len());
        for j in 0..new_shards.len() {
            let server = targets[j];
            match io.fork(vec![(server, put(staged(j), new_shards[j].clone()))]) {
                Ok(push) => pending.push((j, server, push)),
                Err(e) => reroute(&mut targets, j, server, e)?,
            }
        }
        for (j, server, push) in pending {
            match push.one(deadline).and_then(Reply::unit) {
                Err(e) if is_availability(&e) => reroute(&mut targets, j, server, e)?,
                acked => acked?,
            }
        }
        Ok(())
    })();
    if let Err(e) = push_result {
        // Abort: clear any staged keys (best effort) and leave the old
        // layout — still fully readable — in place.
        io.discard(deletes(file_id, &targets, true), deadline);
        return Err(e);
    }

    // Commit: drop old keys, unstage new ones, swap the metadata. (Same
    // sequence as the online adjuster; a target dying inside this window
    // leaves the file degraded, which the under-store heal repairs.)
    io.discard(deletes(file_id, &job.old_servers, false), deadline);
    for (j, &server) in targets.iter().enumerate() {
        let key = PartKey::new(file_id, j as u32);
        let rename = Request::Rename {
            from: key.staged(),
            to: key,
        };
        let renamed = io.call(server, rename.background(), deadline)?.flag()?;
        debug_assert!(renamed, "staged partition vanished before commit");
    }
    master.apply_placement(file_id, targets)
}

/// Runs the plan with one executor thread per involved worker, each
/// processing its disjoint job set (the parallel scheme of §6.2).
/// `ids[i]` maps the plan's dense file indices to store file ids.
///
/// Jobs that hit a dead or hung worker are **skipped**, not fatal: a
/// dead target is substituted inside [`execute_job`], and a dead source
/// leaves the file degraded (recoverable only through the under-store).
/// Every blocking wait is bounded by the executor deadline
/// ([`DEFAULT_EXECUTOR_DEADLINE`] unless overridden), so a worker
/// dying mid-repartition cannot deadlock the sweep. Skipped file ids
/// are returned.
///
/// # Errors
///
/// Returns the first non-availability executor error (metadata
/// inconsistencies and the like).
pub fn run_parallel(
    plan: &RepartitionPlan,
    ids: &[u64],
    master: &dyn MetaService,
    transport: &dyn Transport,
) -> Result<Vec<u64>, StoreError> {
    run_parallel_with_deadline(plan, ids, master, transport, DEFAULT_EXECUTOR_DEADLINE)
}

/// [`run_parallel`] with an explicit per-reply executor deadline
/// (normally [`crate::config::StoreConfig::executor_deadline`]).
///
/// # Errors
///
/// Returns the first non-availability executor error (metadata
/// inconsistencies and the like).
pub fn run_parallel_with_deadline(
    plan: &RepartitionPlan,
    ids: &[u64],
    master: &dyn MetaService,
    transport: &dyn Transport,
    deadline: Duration,
) -> Result<Vec<u64>, StoreError> {
    let io = Fanout::plain(master, transport);
    let by_executor = plan.jobs_by_executor(transport.n_workers());
    let results: Vec<Result<Vec<u64>, StoreError>> = std::thread::scope(|s| {
        let handles: Vec<_> = by_executor
            .into_iter()
            .filter(|jobs| !jobs.is_empty())
            .map(|jobs| {
                s.spawn(move || {
                    let mut skipped = Vec::new();
                    for job in jobs {
                        match execute_job(job, ids[job.file], io, deadline) {
                            Ok(()) => {}
                            Err(e) if is_availability(&e) => {
                                skipped.push(ids[job.file]);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(skipped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor panicked"))
            .collect()
    });
    let mut skipped = Vec::new();
    for r in results {
        skipped.extend(r?);
    }
    skipped.sort_unstable();
    Ok(skipped)
}

/// The naive strawman: a single thread collects **every** file (changed or
/// not) and redistributes it sequentially — the paper measures this at two
/// orders of magnitude slower (Fig. 16).
///
/// # Errors
///
/// Returns the first error encountered.
pub fn run_sequential(
    plan: &RepartitionPlan,
    ids: &[u64],
    master: &dyn MetaService,
    transport: &dyn Transport,
) -> Result<(), StoreError> {
    run_sequential_with_deadline(plan, ids, master, transport, DEFAULT_EXECUTOR_DEADLINE)
}

/// [`run_sequential`] with an explicit per-reply executor deadline.
///
/// # Errors
///
/// Returns the first error encountered.
pub fn run_sequential_with_deadline(
    plan: &RepartitionPlan,
    ids: &[u64],
    master: &dyn MetaService,
    transport: &dyn Transport,
    deadline: Duration,
) -> Result<(), StoreError> {
    // Unchanged files are still collected and re-written in place (that is
    // what makes the strawman slow).
    let io = Fanout::plain(master, transport);
    for &i in &plan.unchanged {
        let file_id = ids[i];
        let (size, servers) = master.peek(file_id)?;
        let mut shards: Vec<Bytes> = Vec::with_capacity(servers.len());
        for (j, &server) in servers.iter().enumerate() {
            shards.push(io.call(server, get(file_id, j), deadline)?.bytes()?);
        }
        let data = Bytes::from(join_shards_bytes(&shards, size));
        for (j, (&server, shard)) in servers
            .iter()
            .zip(split_shards_bytes(&data, servers.len()))
            .enumerate()
        {
            let rewrite = put(PartKey::new(file_id, j as u32), shard);
            io.call(server, rewrite, deadline)?.unit()?;
        }
    }
    for job in &plan.jobs {
        execute_job(job, ids[job.file], io, deadline)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StoreCluster;
    use crate::config::StoreConfig;
    use rand::SeedableRng;
    use spcache_core::repartition::plan_repartition;
    use spcache_sim::Xoshiro256StarStar;

    fn payload(id: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64 * 131 + id * 17 + 7) % 256) as u8)
            .collect()
    }

    /// Builds a cluster with `n_files` single-partition files and returns
    /// everything needed to plan against it.
    fn seeded_cluster(
        n_workers: usize,
        n_files: u64,
        file_len: usize,
    ) -> (StoreCluster, Vec<Vec<u8>>) {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
        let client = cluster.client();
        let mut contents = Vec::new();
        for id in 0..n_files {
            let data = payload(id, file_len);
            client
                .write(id, &data, &[(id as usize) % n_workers])
                .unwrap();
            contents.push(data);
        }
        (cluster, contents)
    }

    #[test]
    fn parallel_repartition_preserves_contents() {
        let (cluster, contents) = seeded_cluster(6, 12, 5_000);
        let client = cluster.client();
        // Make files 0..3 hot.
        for id in 0..3u64 {
            for _ in 0..50 {
                let _ = client.read(id).unwrap();
            }
        }
        let (ids, plan, _) = cluster.master().plan_rebalance(
            6,
            f64::INFINITY.min(1e12),
            8.0,
            &spcache_core::tuner::TunerConfig::default(),
            3,
        );
        assert!(!plan.jobs.is_empty(), "hot files should be repartitioned");
        run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).unwrap();
        for (id, data) in contents.iter().enumerate() {
            assert_eq!(
                client.read_quiet(id as u64).unwrap(),
                *data,
                "file {id} corrupted by repartition"
            );
        }
        // Hot files really are split now.
        assert!(cluster.master().peek(0).unwrap().1.len() > 1);
    }

    #[test]
    fn sequential_repartition_preserves_contents() {
        let (cluster, contents) = seeded_cluster(4, 8, 3_000);
        let client = cluster.client();
        for _ in 0..40 {
            let _ = client.read(0).unwrap();
        }
        for id in 0..8u64 {
            let _ = client.read(id).unwrap();
        }
        let (ids, plan, _) = cluster.master().plan_rebalance(
            4,
            1e12,
            8.0,
            &spcache_core::tuner::TunerConfig::default(),
            5,
        );
        run_sequential(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref())
            .unwrap();
        for (id, data) in contents.iter().enumerate() {
            assert_eq!(client.read_quiet(id as u64).unwrap(), *data, "file {id}");
        }
    }

    #[test]
    fn merge_job_back_to_single_partition() {
        // A file split 3 ways merges back to 1 after going cold.
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        let data = payload(0, 9_001);
        client.write(0, &data, &[0, 1, 2]).unwrap();
        let (ids, fileset, map) = cluster.master().snapshot(4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let plan = plan_repartition(&fileset, &map, &[1], &mut rng);
        assert_eq!(plan.jobs.len(), 1);
        run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).unwrap();
        assert_eq!(cluster.master().peek(0).unwrap().1.len(), 1);
        assert_eq!(client.read_quiet(0).unwrap(), data);
    }

    #[test]
    fn stale_partitions_are_garbage_collected() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        client.write(0, &payload(0, 4_000), &[0, 1]).unwrap();
        let (ids, fileset, map) = cluster.master().snapshot(4);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let plan = plan_repartition(&fileset, &map, &[4], &mut rng);
        run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).unwrap();
        // Total resident partitions must equal the new k (no leftovers).
        let total: usize = cluster
            .worker_stats()
            .unwrap()
            .iter()
            .map(|s| s.resident_parts)
            .sum();
        assert_eq!(total, 4, "stale partitions left behind");
    }

    /// Hand-builds a plan splitting `file` from `old` onto `new` so the
    /// tests control exactly which workers are targeted.
    fn manual_plan(old: Vec<usize>, new: Vec<usize>, n_workers: usize) -> RepartitionPlan {
        use spcache_core::partition::PartitionMap;
        RepartitionPlan {
            jobs: vec![spcache_core::repartition::RepartitionJob {
                file: 0,
                executor: old[0],
                old_servers: old,
                new_servers: new.clone(),
            }],
            new_map: PartitionMap::new(vec![new], n_workers),
            unchanged: vec![],
        }
    }

    #[test]
    fn known_dead_target_is_substituted_before_push() {
        let mut cluster = StoreCluster::spawn(StoreConfig::unthrottled(5));
        let client = cluster.client();
        let data = payload(0, 8_000);
        client.write(0, &data, &[0]).unwrap();
        cluster.kill_worker(3); // master knows
        let plan = manual_plan(vec![0], vec![1, 2, 3], 5);
        let skipped =
            run_parallel(&plan, &[0], cluster.master().as_ref(), cluster.transport().as_ref())
                .unwrap();
        assert!(skipped.is_empty(), "dead target should be substituted");
        let (_, servers) = cluster.master().peek(0).unwrap();
        assert_eq!(servers.len(), 3);
        assert!(servers.iter().all(|&s| s != 3), "placed on dead worker");
        assert_eq!(client.read_quiet(0).unwrap(), data);
    }

    #[test]
    fn unannounced_target_death_mid_repartition_is_remapped_not_deadlocked() {
        // Worker 3 crashes on its first data-path request — which is the
        // repartitioner's staged push, so the death is discovered
        // mid-job. The executor must detect it (bounded wait), mark it
        // dead, re-route the shard to worker 4 and commit.
        let cfg = StoreConfig::unthrottled(5)
            .with_faults(crate::fault::FaultPlan::none().crash(3, 0));
        let cluster = StoreCluster::spawn(cfg);
        let client = cluster.client();
        let data = payload(0, 8_000);
        client.write(0, &data, &[0]).unwrap();
        let plan = manual_plan(vec![0], vec![1, 2, 3], 5);
        let t0 = std::time::Instant::now();
        let skipped =
            run_parallel(&plan, &[0], cluster.master().as_ref(), cluster.transport().as_ref())
                .unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "repartition must not hang on a dead target"
        );
        assert!(skipped.is_empty());
        assert!(!cluster.master().is_alive(3), "death went unnoticed");
        let (_, servers) = cluster.master().peek(0).unwrap();
        assert!(servers.iter().all(|&s| s != 3));
        assert_eq!(client.read_quiet(0).unwrap(), data);
    }

    #[test]
    fn configured_deadline_bounds_waits_on_hung_sources() {
        // Worker 0 (the only source) hangs for 3 s on its first data
        // request. With a 50 ms executor deadline the pull must be
        // abandoned in well under a second — proof the deadline is
        // threaded through, not the 5 s default.
        let cfg = StoreConfig::unthrottled(3)
            .with_faults(crate::fault::FaultPlan::none().hang(0, 0, Duration::from_secs(3)));
        let cluster = StoreCluster::spawn(cfg);
        let client = cluster.client();
        // Bypass the faulted data path for setup: write before spawning
        // faults would still hit op 0, so write through worker 1 instead
        // and plan a job sourced at the hung worker 0 artificially.
        client.write(0, &payload(0, 2_000), &[1]).unwrap();
        // Source the job at worker 0, which holds nothing and hangs.
        let plan = manual_plan(vec![0], vec![1, 2], 3);
        let t0 = std::time::Instant::now();
        let skipped = run_parallel_with_deadline(
            &plan,
            &[0],
            cluster.master().as_ref(),
            cluster.transport().as_ref(),
            Duration::from_millis(50),
        )
        .unwrap();
        assert_eq!(skipped, vec![0], "hung source should skip the job");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "deadline not applied: waited {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn no_live_substitute_skips_job_and_keeps_file_readable() {
        // Both non-source workers die; the job cannot be placed and must
        // be skipped with the original layout untouched.
        let mut cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        let client = cluster.client();
        let data = payload(0, 4_000);
        client.write(0, &data, &[0]).unwrap();
        cluster.kill_worker(1);
        cluster.kill_worker(2);
        let plan = manual_plan(vec![0], vec![1, 2], 3);
        let skipped =
            run_parallel(&plan, &[0], cluster.master().as_ref(), cluster.transport().as_ref())
                .unwrap();
        assert_eq!(skipped, vec![0], "unplaceable job should be reported");
        assert_eq!(cluster.master().peek(0).unwrap().1, vec![0]);
        assert_eq!(client.read_quiet(0).unwrap(), data, "old layout corrupted");
    }

    #[test]
    fn parallel_is_faster_than_sequential_under_throttling() {
        // Fig. 16's shape: with throttled NICs and many files, the
        // parallel scheme finishes much sooner than the collect-everything
        // sequential scheme.
        let n_workers = 8;
        let cluster = StoreCluster::spawn(StoreConfig::throttled(n_workers, 200e6));
        let client = cluster.client();
        let n_files = 40u64;
        let len = 200_000;
        for id in 0..n_files {
            client
                .write(id, &payload(id, len), &[(id as usize) % n_workers])
                .unwrap();
        }
        // Skewed accesses.
        for id in 0..n_files {
            let reps = if id < 4 { 60 } else { 1 };
            for _ in 0..reps {
                let _ = client.read(id).unwrap();
            }
        }
        let (ids, plan, _) = cluster.master().plan_rebalance(
            n_workers,
            200e6,
            8.0,
            &spcache_core::tuner::TunerConfig::default(),
            7,
        );

        let t0 = std::time::Instant::now();
        run_parallel(&plan, &ids, cluster.master().as_ref(), cluster.transport().as_ref()).unwrap();
        let par = t0.elapsed().as_secs_f64();

        // Fresh identical cluster for the sequential run.
        let cluster2 = StoreCluster::spawn(StoreConfig::throttled(n_workers, 200e6));
        let client2 = cluster2.client();
        for id in 0..n_files {
            client2
                .write(id, &payload(id, len), &[(id as usize) % n_workers])
                .unwrap();
        }
        for id in 0..n_files {
            let reps = if id < 4 { 60 } else { 1 };
            for _ in 0..reps {
                let _ = client2.read(id).unwrap();
            }
        }
        let (ids2, plan2, _) = cluster2.master().plan_rebalance(
            n_workers,
            200e6,
            8.0,
            &spcache_core::tuner::TunerConfig::default(),
            7,
        );
        let t1 = std::time::Instant::now();
        run_sequential(&plan2, &ids2, cluster2.master().as_ref(), cluster2.transport().as_ref())
            .unwrap();
        let seq = t1.elapsed().as_secs_f64();

        assert!(
            seq > par * 2.0,
            "sequential {seq}s should be much slower than parallel {par}s"
        );
    }
}
