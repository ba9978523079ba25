//! Every layout move of the store, and Algorithm 2's executors.
//!
//! A file's layout changes in three places: Algorithm 2's repartition
//! ([`run_parallel`], §6.2), the §8 online granularity adjustment
//! ([`execute_adjust`]) and the §8 heal, which re-splits a lost file from
//! the under-store ([`crate::backing::recover_file`]). Each caller only
//! sources the bytes; `relayout` stages and commits the new layout for
//! all three, with one set of failure rules.
//!
//! [`run_parallel`] is the paper's scheme: each job runs on an executor
//! thread standing in for the SP-Repartitioner of the worker that already
//! holds one of the file's partitions; executors handle disjoint file
//! sets concurrently. [`run_sequential`] is the strawman it is compared
//! against in Fig. 16 — every file (changed or not) is collected and
//! re-distributed one at a time through a single node.
//!
//! Every byte moves through a [`Transport`], so the same code moves files
//! on an in-process cluster and on a fleet of `spcached` processes over
//! TCP, and through `Fanout::mover`: moves ride the workers' background
//! NIC share (§4.4), so a rebalance never starves the foreground read
//! path it is trying to improve, and carry the master's epoch, so a
//! deposed master moves nothing.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use bytes::Bytes;
use spcache_core::online::OnlinePlan;
use spcache_core::repartition::{RepartitionJob, RepartitionPlan};
use spcache_ec::{join_shards_bytes, split_shards_bytes};
use std::time::{Duration, Instant};

use crate::forkjoin::{empty_placement, Fanout};
use crate::master::MetaService;
use crate::metalog::FileIntegrity;
use crate::rpc::{PartKey, Reply, Request, StoreError, STAGE_BIT};
use crate::transport::Transport;

/// How long an executor waits on any single worker reply before giving
/// the worker up as hung. Bounds every blocking call in a job, so a
/// worker dying (or hanging) mid-repartition can never deadlock the
/// executor fleet; every worker caps each emulated transfer at it too,
/// so a throttled push never outlives the executor that sent it.
pub const DEFAULT_EXECUTOR_DEADLINE: Duration = Duration::from_secs(5);

/// Whether an error means "this job cannot go ahead now" — a worker is
/// unavailable (dead, hung, unreachable, or restarted cold under a
/// staged partition it had not committed yet), or the file moved since
/// the job was planned — as opposed to a logic/metadata problem.
fn is_availability(e: &StoreError) -> bool {
    match e {
        StoreError::WorkerDown(_)
        | StoreError::Timeout(_)
        | StoreError::Io(_)
        | StoreError::StalePlacement(_) => true,
        StoreError::NotFound(key) => key.part & STAGE_BIT != 0,
        _ => false,
    }
}

/// Forks `reads` as one batch and returns their payloads in order.
///
/// # Errors
///
/// The first failed reply to land, or the deadline's
/// [`StoreError::Timeout`].
fn pull(
    io: Fanout<'_>,
    reads: Vec<(usize, Request)>,
    wait: Duration,
) -> Result<Vec<Bytes>, StoreError> {
    let mut got = vec![Bytes::new(); reads.len()];
    if reads.is_empty() {
        return Ok(got);
    }
    let until = Instant::now() + wait;
    let mut join = io.fork(reads)?;
    while join.pending() > 0 {
        match join.next(until) {
            Some((i, reply)) => got[i] = reply?.bytes()?,
            None => return Err(join.expire()),
        }
    }
    Ok(got)
}

/// Replaces each target that is not in `live` (ascending), or is
/// `failed`, by the lowest live worker neither `failed` nor already a
/// target, keeping a file's partitions on distinct servers. A target with
/// no such substitute is left for its push to fail. The one dead-target
/// rule: a layout move applies it before and during its pushes, and a
/// rebalance plan before it is run. Deterministic, so replanning after
/// the same failure yields the same placement.
pub(crate) fn substitute(live: &[usize], targets: &mut [usize], failed: Option<usize>) {
    for i in 0..targets.len() {
        if Some(targets[i]) == failed || live.binary_search(&targets[i]).is_err() {
            let spare = live.iter().find(|&&w| Some(w) != failed && !targets.contains(&w));
            if let Some(&sub) = spare {
                targets[i] = sub;
            }
        }
    }
}

/// Moves `file` from `old` — the placement the caller read — to a new
/// layout whose partition `j` is `shards[j]` on `targets[j]`. The one
/// routine every layout change goes through:
///
/// 1. the master's placement must still be `old`;
/// 2. each shard is pushed under its staged key, with its checksum —
///    nothing readable changes yet;
/// 3. a target that is dead, or fails its push, hands its shard to a
///    live substitute;
/// 4. a build that aborts discards its staged keys (best effort),
///    leaving the old layout in place;
/// 5. the commit drops `old`'s keys, renames the staged keys to their
///    final names, applies the placement and records the new data-only
///    integrity row (a re-split leaves no parity).
///
/// A staged key can vanish before its commit (its worker crash-restarted
/// cold): the placement is applied all the same — the file is then
/// degraded, which the heal owns — and the first such key is reported.
///
/// # Errors
///
/// [`StoreError::StalePlacement`] when the file moved since the caller
/// read `old`; [`StoreError::Codec`] for no targets or a shard count that
/// does not match them; a push error no substitute could absorb; at
/// commit, [`StoreError::NotFound`] of the first staged key found
/// missing, transport errors of a rename (the placement is then left as
/// it was), and metadata errors of the swap.
pub(crate) fn relayout(
    io: Fanout<'_>,
    file: u64,
    old: &[usize],
    targets: &[usize],
    shards: &[Bytes],
    wait: Duration,
) -> Result<(), StoreError> {
    let master = io.master;
    if master.peek(file)?.1 != old {
        return Err(StoreError::StalePlacement(PartKey::new(file, 0)));
    }
    if targets.is_empty() {
        return Err(empty_placement());
    }
    if shards.len() != targets.len() {
        return Err(StoreError::Codec(format!(
            "{} shards for {} targets of file {file}",
            shards.len(),
            targets.len()
        )));
    }
    let sums = spcache_integrity::sums(shards);
    let staged = |j: usize| PartKey::new(file, j as u32).staged();
    let put = |j: usize| Request::Put { key: staged(j), data: shards[j].clone(), sum: sums[j] };
    let n = io.transport.n_workers();
    let mut targets = targets.to_vec();
    substitute(&master.live_workers(n), &mut targets, None);

    // Pushes shard `j` again, to a substitute for `server`, which failed
    // with `e`.
    let reroute = |targets: &mut Vec<usize>, j: usize, server: usize, e: StoreError| {
        substitute(&master.live_workers(n), targets, Some(server));
        if targets[j] == server {
            return Err(e); // no live substitute left
        }
        io.call(targets[j], put(j), wait)?.unit()
    };
    let pushed = (|| {
        // One fork per shard, so a failed submit names its target.
        let mut pending = Vec::with_capacity(targets.len());
        for j in 0..targets.len() {
            let server = targets[j];
            match io.fork(vec![(server, put(j))]) {
                Ok(push) => pending.push((j, server, push)),
                Err(e) => reroute(&mut targets, j, server, e)?,
            }
        }
        for (j, server, push) in pending {
            match push.one(wait).and_then(Reply::unit) {
                Err(e) if is_availability(&e) => reroute(&mut targets, j, server, e)?,
                acked => acked?,
            }
        }
        Ok(())
    })();
    if let Err(e) = pushed {
        io.discard(each_part(file, &targets, |key| Request::Delete { key: key.staged() }), wait);
        return Err(e);
    }

    io.discard(each_part(file, old, |key| Request::Delete { key }), wait);
    let mut lost = None;
    let renames = each_part(file, &targets, |key| Request::Rename { from: key.staged(), to: key });
    for (j, (server, rename)) in renames.into_iter().enumerate() {
        if !io.call(server, rename, wait)?.flag()? {
            lost = lost.or(Some(staged(j)));
        }
    }
    master.apply_placement(file, targets)?;
    // The swap dropped the old row; best effort, like the GC.
    let _ = master.set_integrity(file, FileIntegrity::data_only(sums));
    lost.map_or(Ok(()), |key| Err(StoreError::NotFound(key)))
}

/// One request per partition of `file`: `req` of partition `j`'s key,
/// to `servers[j]`.
fn each_part(
    file: u64,
    servers: &[usize],
    req: impl Fn(PartKey) -> Request,
) -> Vec<(usize, Request)> {
    let holders = servers.iter().enumerate();
    holders.map(|(j, &s)| (s, req(PartKey::new(file, j as u32)))).collect()
}

/// Executes one repartition job: collects `file` from `old` and moves
/// it, re-split, onto `targets`.
fn execute_job(
    io: Fanout<'_>,
    file: u64,
    old: &[usize],
    targets: &[usize],
    wait: Duration,
) -> Result<(), StoreError> {
    let (size, _) = io.master.peek(file)?;
    let shards = pull(io, each_part(file, old, |key| Request::Get { key }), wait)?;
    let data = Bytes::from(join_shards_bytes(&shards, size));
    let shards = split_shards_bytes(&data, targets.len().max(1));
    relayout(io, file, old, targets, &shards, wait)
}

/// Runs the plan with one executor thread per involved worker, each
/// processing its disjoint job set (the parallel scheme of §6.2): a job
/// forks the `k` old `Get`s, re-splits the file and moves it through
/// `relayout`. `ids[i]` maps the plan's dense file indices to store
/// file ids.
///
/// Jobs that hit a dead or hung worker, or whose file moved since it
/// was planned, are **skipped**, not fatal: a dead target is substituted
/// inside `relayout`, and a dead source leaves the file degraded
/// (recoverable only through the under-store). Every blocking wait is
/// bounded by [`DEFAULT_EXECUTOR_DEADLINE`], so a worker dying
/// mid-repartition cannot deadlock the sweep. Skipped file ids are
/// returned.
///
/// # Errors
///
/// Returns the first other executor error (a stale master epoch,
/// metadata inconsistencies and the like).
pub fn run_parallel(
    plan: &RepartitionPlan,
    ids: &[u64],
    master: &dyn MetaService,
    transport: &dyn Transport,
) -> Result<Vec<u64>, StoreError> {
    run_parallel_with_deadline(plan, ids, master, transport, DEFAULT_EXECUTOR_DEADLINE)
}

/// [`run_parallel`] with an explicit per-reply executor deadline (a
/// test's short one).
fn run_parallel_with_deadline(
    plan: &RepartitionPlan,
    ids: &[u64],
    master: &dyn MetaService,
    transport: &dyn Transport,
    deadline: Duration,
) -> Result<Vec<u64>, StoreError> {
    let io = Fanout::mover(master, transport);
    let by_executor = plan.jobs_by_executor(transport.n_workers());
    let job = |job: &RepartitionJob| {
        execute_job(io, ids[job.file], &job.old_servers, &job.new_servers, deadline)
    };
    let results: Vec<Result<Vec<u64>, StoreError>> = std::thread::scope(|s| {
        let handles: Vec<_> = by_executor
            .into_iter()
            .filter(|jobs| !jobs.is_empty())
            .map(|jobs| {
                s.spawn(move || {
                    let mut skipped = Vec::new();
                    for j in jobs {
                        match job(j) {
                            Ok(()) => {}
                            Err(e) if is_availability(&e) => skipped.push(ids[j.file]),
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(skipped)
                })
            })
            .collect();
        let panicked = || Err(StoreError::Codec("a repartition executor panicked".into()));
        handles.into_iter().map(|h| h.join().unwrap_or_else(|_| panicked())).collect()
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
    let deadline = DEFAULT_EXECUTOR_DEADLINE;
    let io = Fanout::mover(master, transport);
    // Unchanged files are still collected and re-written in place (that is
    // what makes the strawman slow).
    for &i in &plan.unchanged {
        let (_, servers) = master.peek(ids[i])?;
        execute_job(io, ids[i], &servers, &servers, deadline)?;
    }
    for job in &plan.jobs {
        execute_job(io, ids[job.file], &job.old_servers, &job.new_servers, deadline)?;
    }
    Ok(())
}

/// Executes an online adjustment of `file` (the §8 extension,
/// [`spcache_core::online`]): pulls, in one fork, only the byte
/// sub-ranges each new partition needs from their current holders
/// (`GetRange`), and moves the assembled partitions through
/// `relayout` onto the plan's servers.
///
/// # Errors
///
/// [`StoreError::StalePlacement`] when the file's placement is no longer
/// the one of `plan.old_k` partitions the plan was made against, or
/// moved while the ranges were pulled; a pull's error — a dead or hung
/// source fails the adjustment before anything is staged, so the
/// caller should replan against the live fleet;
/// [`StoreError::Corrupt`] of the source partition when a range comes
/// back with the wrong length; otherwise `relayout`'s errors. A staged
/// partition lost before its commit is [`StoreError::NotFound`] of its
/// staged key, with the new placement applied and the file degraded.
pub fn execute_adjust(
    file: u64,
    plan: &OnlinePlan,
    master: &dyn MetaService,
    transport: &dyn Transport,
) -> Result<(), StoreError> {
    let (_, old) = master.peek(file)?;
    if old.len() != plan.old_k {
        return Err(StoreError::StalePlacement(PartKey::new(file, 0)));
    }
    let io = Fanout::mover(master, transport);
    let pulls: Vec<_> = plan.parts.iter().flat_map(|part| &part.pulls).collect();
    let ranges = pulls
        .iter()
        .map(|pull| {
            let (key, offset) = (PartKey::new(file, pull.from_part), pull.offset_in_part);
            (pull.from_server, Request::GetRange { key, offset, len: pull.len })
        })
        .collect();
    let mut pulled = pull(io, ranges, DEFAULT_EXECUTOR_DEADLINE)?.into_iter().zip(pulls);
    let mut shards = Vec::with_capacity(plan.parts.len());
    for part in &plan.parts {
        let mut buf = Vec::with_capacity(part.range.len() as usize);
        for (bytes, pull) in pulled.by_ref().take(part.pulls.len()) {
            if bytes.len() as u64 != pull.len {
                return Err(StoreError::Corrupt(PartKey::new(file, pull.from_part)));
            }
            buf.extend_from_slice(&bytes);
        }
        shards.push(Bytes::from(buf));
    }
    relayout(io, file, &old, &plan.new_servers(), &shards, DEFAULT_EXECUTOR_DEADLINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StoreCluster;
    use crate::config::StoreConfig;
    use rand::SeedableRng;
    use spcache_core::online::plan_adjust;
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
        client.flush_accesses();
        let (ids, plan, _) = cluster.master().plan_rebalance(
            6,
            f64::INFINITY.min(1e12),
            8.0,
            &spcache_core::tuner::TunerConfig::default(),
            3,
        ).unwrap();
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
        client.flush_accesses();
        let (ids, plan, _) = cluster.master().plan_rebalance(
            4,
            1e12,
            8.0,
            &spcache_core::tuner::TunerConfig::default(),
            5,
        ).unwrap();
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
        let (ids, fileset, map) = cluster.master().snapshot(4).unwrap();
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
        let (ids, fileset, map) = cluster.master().snapshot(4).unwrap();
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
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(5));
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
    fn a_staged_partition_lost_before_commit_skips_the_job() {
        // Worker 2 crash-restarts cold between its staged Put (op 0) and
        // the commit's Rename (op 1). The job applies the new placement
        // (the file is degraded, which the heal owns) and is reported
        // skipped, like one that met a dead worker.
        let cfg = StoreConfig::unthrottled(3)
            .with_faults(crate::fault::FaultPlan::none().crash_restart(2, 1));
        let cluster = StoreCluster::spawn(cfg);
        let client = cluster.client();
        client.write(0, &payload(0, 8_000), &[0]).unwrap();
        let plan = manual_plan(vec![0], vec![1, 2], 3);
        let skipped =
            run_parallel(&plan, &[0], cluster.master().as_ref(), cluster.transport().as_ref())
                .unwrap();
        assert_eq!(skipped, vec![0]);
        assert_eq!(cluster.master().peek(0).unwrap().1, vec![1, 2]);
        assert_eq!(client.read_quiet(0), Err(StoreError::NotFound(PartKey::new(0, 1))));
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
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
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
        client.flush_accesses();
        let (ids, plan, _) = cluster.master().plan_rebalance(
            n_workers,
            200e6,
            8.0,
            &spcache_core::tuner::TunerConfig::default(),
            7,
        ).unwrap();

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
        client2.flush_accesses();
        let (ids2, plan2, _) = cluster2.master().plan_rebalance(
            n_workers,
            200e6,
            8.0,
            &spcache_core::tuner::TunerConfig::default(),
            7,
        ).unwrap();
        let t1 = std::time::Instant::now();
        run_sequential(&plan2, &ids2, cluster2.master().as_ref(), cluster2.transport().as_ref())
            .unwrap();
        let seq = t1.elapsed().as_secs_f64();

        assert!(
            seq > par * 2.0,
            "sequential {seq}s should be much slower than parallel {par}s"
        );
    }

    fn loads(n: usize) -> Vec<f64> {
        vec![0.0; n]
    }

    /// Runs one adjustment and checks byte-exactness + placement.
    fn roundtrip(n_workers: usize, initial: &[usize], new_k: usize, len: usize) {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(n_workers));
        let client = cluster.client();
        let data = payload(1, len);
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
        let data = payload(1, 5_000);
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
        let data = payload(1, len);
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
        client.write(1, &payload(1, len), &[0]).unwrap();
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
        client.write(1, &payload(1, len), &[0, 1, 2, 3]).unwrap();
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

    #[test]
    fn an_adjust_planned_for_another_layout_is_refused_not_a_panic() {
        // A plan for a file of 2 partitions against one of 1: the file
        // moved after it was planned.
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        let data = payload(1, 6_000);
        client.write(1, &data, &[0]).unwrap();
        let plan = plan_adjust(6_000, &[0, 1], 3, &loads(4));
        let (master, transport) = (cluster.master().as_ref(), cluster.transport().as_ref());
        assert_eq!(
            execute_adjust(1, &plan, master, transport),
            Err(StoreError::StalePlacement(PartKey::new(1, 0)))
        );
        assert_eq!(master.peek(1).unwrap().1, vec![0]);
        assert_eq!(client.read_quiet(1).unwrap(), data);
    }

    #[test]
    fn a_range_of_the_wrong_length_is_refused_not_a_panic() {
        // Planned for twice the file's size: the second half's range
        // comes back empty, and the adjust stages nothing.
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let client = cluster.client();
        let data = payload(1, 10_000);
        client.write(1, &data, &[0]).unwrap();
        let plan = plan_adjust(20_000, &[0], 2, &loads(4));
        let (master, transport) = (cluster.master().as_ref(), cluster.transport().as_ref());
        assert_eq!(
            execute_adjust(1, &plan, master, transport),
            Err(StoreError::Corrupt(PartKey::new(1, 0)))
        );
        assert_eq!(master.peek(1).unwrap().1, vec![0]);
        let resident: usize =
            cluster.worker_stats().unwrap().iter().map(|s| s.resident_parts).sum();
        assert_eq!(resident, 1);
        assert_eq!(client.read_quiet(1).unwrap(), data);
    }
}
