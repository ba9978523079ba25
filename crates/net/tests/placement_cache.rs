//! A client's cached placements (DESIGN.md §4.7) on both transports: a
//! read served from the cache returns exactly the file's current bytes
//! however the file changed under it — repartitioned, recovered, or
//! deleted and re-created under the same id — and cached reads make no
//! master call, their accesses reaching the master in exact batches.

use crossbeam::channel::{bounded, Receiver};
use spcache_core::partition::PartitionMap;
use spcache_core::repartition::{RepartitionJob, RepartitionPlan};
use spcache_net::loopback::twin;
use spcache_store::backing::{checkpoint, recover_file, UnderStore};
use spcache_store::landing::Region;
use spcache_store::repartitioner::run_parallel;
use spcache_store::rpc::{Reply, Request, StoreError};
use spcache_store::transport::Transport;
use spcache_store::{
    Client, FaultPlan, MetaReply, MetaRequest, MetaService, StoreCluster, StoreConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::{payload, N_WORKERS};

/// A transport that counts the [`StoreError::StalePlacement`] answers
/// passing through it. Each reply is counted before it is handed on, so
/// the count already holds the answer a read just failed on.
#[derive(Debug)]
struct Spy {
    inner: Arc<dyn Transport>,
    stale: Arc<AtomicU64>,
}

impl Spy {
    fn watch(&self, rx: Receiver<Reply>) -> Receiver<Reply> {
        let (tx, out) = bounded(1);
        let stale = Arc::clone(&self.stale);
        // Detached: it cannot panic, and it ends when the route answers
        // or dies (a dead route drops `tx`, so the reader sees it die).
        std::thread::spawn(move || {
            if let Ok(reply) = rx.recv() {
                if matches!(reply, Reply::Err(StoreError::StalePlacement(_))) {
                    stale.fetch_add(1, Ordering::SeqCst);
                }
                let _ = tx.send(reply);
            }
        });
        out
    }
}

impl Transport for Spy {
    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    fn submit(&self, worker: usize, req: Request) -> Result<Receiver<Reply>, StoreError> {
        Ok(self.watch(self.inner.submit(worker, req)?))
    }

    fn submit_landing(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        let routes = self.inner.submit_landing(reqs)?;
        Ok(routes.into_iter().map(|rx| self.watch(rx)).collect())
    }
}

/// A reading client with its own cache (and the cluster's under-store,
/// if any), whose worker traffic passes a [`Spy`]; returns it with the
/// spy's count.
fn spied_reader(cluster: &StoreCluster) -> (Client, Arc<AtomicU64>) {
    let stale = Arc::new(AtomicU64::new(0));
    let spy = Arc::new(Spy {
        inner: cluster.transport().clone(),
        stale: Arc::clone(&stale),
    });
    let under = cluster.under_store().cloned();
    (
        Client::from_config(cluster.meta(), spy, cluster.config(), under),
        stale,
    )
}

/// Case (a): a 10-byte file repartitioned from k = 3 to k = 5 under a
/// reader holding the old placement. Partition 2 is two bytes in both
/// layouts (bytes 8..10, then 4..6): only the checksum tells them apart.
#[test]
fn a_repartition_under_a_cached_placement_is_never_read_through() {
    let (in_process, over_tcp) = twin(
        || (StoreConfig::unthrottled(5), None),
        |cluster| {
            let data = payload(1, 10);
            cluster.client().write(1, &data, &[0, 1, 2]).unwrap();
            let (reader, stale) = spied_reader(cluster);
            assert_eq!(reader.read(1).unwrap(), data, "the located read");
            assert_eq!(reader.read(1).unwrap(), data, "the cached read");
            let plan = RepartitionPlan {
                jobs: vec![RepartitionJob {
                    file: 0,
                    executor: 0,
                    old_servers: vec![0, 1, 2],
                    new_servers: vec![0, 1, 2, 3, 4],
                }],
                new_map: PartitionMap::new(vec![vec![0, 1, 2, 3, 4]], 5),
                unchanged: vec![],
            };
            let skipped = run_parallel(
                &plan,
                &[1],
                cluster.master().as_ref(),
                cluster.transport().as_ref(),
            )
            .unwrap();
            assert!(skipped.is_empty());
            for round in 0..3 {
                assert_eq!(
                    reader.read(1).unwrap(),
                    data,
                    "read {round} after the repartition"
                );
            }
            assert!(stale.load(Ordering::SeqCst) >= 1, "no Get was fenced off");
            cluster.master().peek(1).unwrap().1
        },
    );
    assert_eq!(in_process, vec![0, 1, 2, 3, 4]);
    assert_eq!(over_tcp, in_process);
}

/// Case (b): one partition recovered onto another worker at the same k,
/// with the old holder's copy left behind (its GC `Delete` is refused
/// unserved). The same bytes on a holder the placement no longer names
/// are the file's bytes: cached reads keep returning them.
#[test]
fn a_recovery_under_a_cached_placement_serves_the_same_bytes() {
    // Worker 2's ops: 0 = the write's Put, 1 = the checkpoint's Get,
    // 2 and 3 = the reader's two Gets, 4 = the recovery's GC Delete.
    let faults = FaultPlan::none().stale_epoch(2, 4);
    let (in_process, over_tcp) = twin(
        || {
            let cfg = StoreConfig::unthrottled(N_WORKERS).with_faults(faults.clone());
            (cfg, Some(Arc::new(UnderStore::new())))
        },
        |cluster| {
            let data = payload(2, 9_000);
            let writer = cluster.client();
            writer.write(2, &data, &[0, 1, 2]).unwrap();
            let under = cluster.under_store().expect("an under-store");
            checkpoint(&writer, under, 2).unwrap();
            let (reader, stale) = spied_reader(cluster);
            assert_eq!(reader.read(2).unwrap(), data);
            assert_eq!(reader.read(2).unwrap(), data);
            recover_file(&writer, writer.master().as_ref(), under, 2, &[0, 1, 3]).unwrap();
            for round in 0..3 {
                assert_eq!(
                    reader.read(2).unwrap(),
                    data,
                    "read {round} after the recovery"
                );
            }
            assert_eq!(cluster.client().read(2).unwrap(), data, "a fresh reader");
            let log = cluster.fault_log().snapshot().len();
            (
                cluster.master().peek(2).unwrap().1,
                stale.load(Ordering::SeqCst),
                log,
            )
        },
    );
    assert_eq!(in_process, (vec![0, 1, 3], 0, 1));
    assert_eq!(over_tcp, in_process);
}

/// Case (c): the file is deleted and re-created under the same id, size
/// and k with new bytes, while one old holder keeps its old partition
/// (its `Delete` is refused unserved). Every partition the cached
/// placement names is still there, two new and one old, all of the
/// right length: only the checksum fence keeps the read from mixing
/// them.
#[test]
fn a_re_created_file_under_a_cached_placement_never_mixes_old_and_new() {
    // Worker 2's ops: 0 = the first write's Put, 1 and 2 = the reader's
    // two Gets, 3 = the delete's Delete.
    let faults = FaultPlan::none().stale_epoch(2, 3);
    let (in_process, over_tcp) = twin(
        || {
            (
                StoreConfig::unthrottled(N_WORKERS).with_faults(faults.clone()),
                None,
            )
        },
        |cluster| {
            let (old, new) = (payload(3, 9_000), payload(33, 9_000));
            let writer = cluster.client();
            writer.write(3, &old, &[0, 1, 2]).unwrap();
            let (reader, stale) = spied_reader(cluster);
            assert_eq!(reader.read(3).unwrap(), old);
            assert_eq!(reader.read(3).unwrap(), old);
            // Worker 2's old partition 2 survives the delete; the new
            // partitions 0 and 1 land where the old ones were.
            assert_eq!(writer.delete(3), Ok(2));
            writer.write(3, &new, &[0, 1, 3]).unwrap();
            for round in 0..3 {
                assert_eq!(
                    reader.read(3).unwrap(),
                    new,
                    "read {round} after the re-create"
                );
            }
            assert!(stale.load(Ordering::SeqCst) >= 1, "no Get was fenced off");
            cluster.fault_log().snapshot().len()
        },
    );
    assert_eq!(in_process, 1);
    assert_eq!(over_tcp, in_process);
}

/// A worker whose partition was spilled crash-restarts under a cached
/// reader: the restart loses the worker's recorded sums but not the
/// spilled copy, whose reload records the sum of its bytes. Every
/// cached read after the restart is served by that copy, none is fenced
/// off.
#[test]
fn a_spilled_copy_that_outlives_a_cold_restart_still_serves_cached_reads() {
    const READS: usize = 20;
    // Worker 0: 0 and 1 = the two writes' Puts (the second evicts file
    // 5's partition to the spill area), 2 = the reader's located Get
    // (a reload), 3 = the reader's first cached Get, after the restart.
    let faults = FaultPlan::none().crash_restart(0, 3);
    let (in_process, over_tcp) = twin(
        || {
            let cfg = StoreConfig::unthrottled(N_WORKERS)
                .with_memory_budget(Some(4_000))
                .with_faults(faults.clone());
            (cfg, None)
        },
        |cluster| {
            let (data, other) = (payload(5, 3_000), payload(6, 3_000));
            let writer = cluster.client();
            writer.write(5, &data, &[0]).unwrap();
            writer.write(6, &other, &[0]).unwrap();
            let (reader, stale) = spied_reader(cluster);
            assert_eq!(reader.read(5).unwrap(), data, "the located read");
            for round in 0..READS {
                assert_eq!(reader.read(5).unwrap(), data, "cached read {round}");
            }
            (
                stale.load(Ordering::SeqCst),
                cluster.fault_log().snapshot().len(),
            )
        },
    );
    assert_eq!(in_process, (0, 1));
    assert_eq!(over_tcp, in_process);
}

/// A metadata service that counts the calls a read could make.
#[derive(Debug)]
struct Counting {
    inner: Arc<dyn MetaService>,
    lookups: AtomicU64,
    reports: AtomicU64,
}

impl Counting {
    fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::SeqCst)
    }

    fn reports(&self) -> u64 {
        self.reports.load(Ordering::SeqCst)
    }

    fn look(&self) {
        self.lookups.fetch_add(1, Ordering::SeqCst);
    }
}

impl MetaService for Counting {
    fn call(&self, req: MetaRequest) -> MetaReply {
        match req {
            MetaRequest::Locate { .. } | MetaRequest::Peek { .. } | MetaRequest::Integrity { .. } => {
                self.look()
            }
            MetaRequest::ReportAccesses { .. } => {
                self.reports.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
        self.inner.call(req)
    }
}

/// What an uncached read caches: a small file's placement, summed over
/// the landed bytes; a large file's only when the reader verifies and
/// so holds the file's integrity row. A plain reader of a large file
/// locates on every read, as no sum pass is spent on it.
#[test]
fn an_uncached_read_caches_a_large_file_only_with_its_integrity_row() {
    let (in_process, over_tcp) = twin(
        || (StoreConfig::unthrottled(N_WORKERS), None),
        |cluster| {
            let writer = cluster.client().with_verify(true);
            let files = [(7u64, 3_000usize), (8, 300_000)];
            for &(id, len) in &files {
                writer.write(id, &payload(id, len), &[0, 1, 2]).unwrap();
            }
            let mut lookups = Vec::new();
            for verify in [false, true] {
                for &(id, len) in &files {
                    let meta = Arc::new(Counting {
                        inner: cluster.meta(),
                        lookups: AtomicU64::new(0),
                        reports: AtomicU64::new(0),
                    });
                    let reader = Client::from_config(
                        meta.clone(),
                        cluster.transport().clone(),
                        cluster.config(),
                        None,
                    )
                    .with_verify(verify);
                    for _ in 0..3 {
                        assert_eq!(reader.read(id).unwrap(), payload(id, len));
                    }
                    lookups.push(meta.lookups());
                }
            }
            lookups
        },
    );
    // A plain reader: one locate for the small file, three for the large
    // one. A verifying one: a locate and a row fetch, for either size.
    assert_eq!(in_process, vec![1, 3, 2, 2]);
    assert_eq!(over_tcp, in_process);
}

/// 1 000 cached reads make no `locate`, `peek` or `integrity` call and
/// ⌈1000 / N⌉ access reports, and leave the master counting exactly
/// 1 000 — for a plain client and a verifying one, in process and over
/// the wire. A read that misses the cache is counted once, by its
/// locate.
#[test]
fn cached_reads_make_no_master_call_and_are_counted_exactly() {
    const READS: u64 = 1_000;
    let every = Client::ACCESS_REPORT_EVERY;
    let (in_process, over_tcp) = twin(
        || (StoreConfig::unthrottled(N_WORKERS), None),
        |cluster| {
            let mut seen = Vec::new();
            for (id, verify) in [(5u64, false), (6, true)] {
                let meta = Arc::new(Counting {
                    inner: cluster.meta(),
                    lookups: AtomicU64::new(0),
                    reports: AtomicU64::new(0),
                });
                let client = Client::from_config(
                    meta.clone(),
                    cluster.transport().clone(),
                    cluster.config(),
                    None,
                )
                .with_verify(verify);
                let data = payload(id, 3_000);
                client.write(id, &data, &[1, 2, 3]).unwrap();
                let lookups = meta.lookups();
                for _ in 0..READS {
                    assert_eq!(client.read(id).unwrap(), data);
                }
                assert_eq!(meta.lookups(), lookups, "a cached read asked the master");
                assert_eq!(meta.reports(), READS / every);
                client.flush_accesses();
                client.flush_accesses();
                assert_eq!(meta.reports(), READS.div_ceil(every));
                assert_eq!(cluster.master().accesses(id), READS);
                // A reader with nothing cached locates, and so counts,
                // once; its report then has nothing left to add.
                let fresh = cluster.client();
                assert_eq!(fresh.read(id).unwrap(), data);
                drop(fresh);
                assert_eq!(cluster.master().accesses(id), READS + 1);
                seen.push((
                    verify,
                    meta.lookups() - lookups,
                    cluster.master().accesses(id),
                ));
            }
            seen
        },
    );
    assert_eq!(
        in_process,
        vec![(false, 0, READS + 1), (true, 0, READS + 1)]
    );
    assert_eq!(over_tcp, in_process);
}
