//! Corruption chaos (DESIGN.md §4.15), run as a twin-transport harness:
//! seeded byte flips land in resident partitions and on the wire while
//! a Zipf workload hammers the cluster, and every read must come back
//! byte-exact anyway — resident flips surface as typed `Corrupt`
//! erasures the client rebuilds from Cauchy-RS parity (no under-store
//! in sight), wire flips are caught by the client-side checksum, and
//! without parity the same flip heals from the under-store instead —
//! unless the checkpoint has rotted too, which the heal refuses.
//! The fault log must be *identical* between the in-process channel
//! transport and real loopback TCP, and across same-seed reruns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use spcache::net::TcpCluster;
use spcache::sim::Xoshiro256StarStar;
use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::fault::{CorruptSite, FaultRecord};
use spcache::store::rpc::{PartKey, StoreError, WorkerStats};
use spcache::store::{Client, FaultPlan, Master, RetryPolicy, StoreCluster, StoreConfig};
use spcache::workload::zipf::ZipfSampler;

mod common;
use common::{FILE_LEN, N_FILES, N_WORKERS, chaos_seed, payload, placement};

const N_READS: usize = 400;
/// Parity partitions per file in the parity scenario (`r`).
const PARITY: usize = 2;

/// The parity-scenario script. Op indices are per-worker *data request*
/// counts, which the sequential write phase pins exactly:
///
/// * worker 0, op 1 — its second request is file 3's parity push-back
///   (file 0's partition 0 landed at op 0), so the flip rots the
///   resident copy of `(0, 0)` mid-write-phase,
/// * worker 1, op 2 — after file 0's partition 1 and file 1's
///   partition 0, its third request is file 4's parity shard; the flip
///   rots `(1, 0)`,
/// * worker 4, op 20 — deep in the read phase (its write phase is 13
///   requests); a *wire-site* flip arms on `(3, 1)`, so the next read
///   of file 3 serves flipped bytes off a pristine store — only the
///   client-side checksum can catch that flavour.
fn parity_plan() -> FaultPlan {
    FaultPlan::none()
        .corrupt(0, 1, PartKey::new(0, 0), CorruptSite::Resident, 3)
        .corrupt(1, 2, PartKey::new(1, 0), CorruptSite::Resident, 7)
        .corrupt(4, 20, PartKey::new(3, 1), CorruptSite::Wire, 11)
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2),
        deadline: Duration::from_secs(2),
    }
}

fn parity_config() -> StoreConfig {
    StoreConfig::unthrottled(N_WORKERS)
        .with_verify_reads(true)
        .with_parity(PARITY)
        .with_faults(parity_plan())
        .with_retry(retry())
}

/// The no-parity script: one resident flip on worker 0. Its write-phase
/// ops alternate Put / checkpoint-read Get per file, so op 2 is file
/// 5's partition push — *after* file 0's clean bytes were checkpointed
/// at op 1.
fn heal_plan() -> FaultPlan {
    FaultPlan::none().corrupt(0, 2, PartKey::new(0, 0), CorruptSite::Resident, 9)
}

fn heal_config() -> StoreConfig {
    StoreConfig::unthrottled(N_WORKERS)
        .with_verify_reads(true)
        .with_faults(heal_plan())
        .with_retry(retry())
}

/// Polls worker stats until `pred` holds — the read-repair push-back
/// that re-lands a rebuilt partition is fire-and-forget, so the counter
/// it bumps trails the read that triggered it.
fn eventually<F: Fn() -> Vec<WorkerStats>, P: Fn(&[WorkerStats]) -> bool>(
    stats: F,
    pred: P,
    what: &str,
) -> Vec<WorkerStats> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = stats();
        if pred(&s) {
            return s;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}: {s:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Asserts the invariants every parity run must satisfy and distils the
/// run into its cross-run comparable: the fault log.
fn check_parity_run<S: Fn() -> Vec<WorkerStats>>(
    log: Vec<FaultRecord>,
    stats: S,
    transport: &str,
) -> Vec<FaultRecord> {
    assert_eq!(log.len(), 3, "[{transport}] expected the 3 scripted flips: {log:?}");
    assert_eq!(
        log.iter().map(|r| (r.worker, r.op)).collect::<Vec<_>>(),
        vec![(0, 1), (1, 2), (4, 20)],
        "[{transport}] flips fired out of script order"
    );
    // Exactly the two resident flips are detected worker-side (each
    // erases on first touch and stays a typed erasure until the repair
    // re-lands); the wire flip leaves the store pristine and is caught
    // by the client checksum alone.
    let s = eventually(
        stats,
        |s| s.iter().map(|w| w.decode_reconstructions).sum::<u64>() >= 2,
        "read-repair push-backs to land",
    );
    let detected: u64 = s.iter().map(|w| w.corruptions_detected).sum();
    assert_eq!(detected, 2, "[{transport}] wrong detection count: {s:?}");
    assert!(
        s.iter().map(|w| w.parity_bytes).sum::<u64>() > 0,
        "[{transport}] no parity shards were stored"
    );
    log
}

/// One parity-scenario run over the in-process channel transport. The
/// client has **no under-store attached**: the only way a read of a
/// corrupted partition can come back byte-exact is the client-side
/// Cauchy-RS rebuild from the surviving `k`-of-`k+r` shards.
fn run_parity_channel(workload_seed: u64) -> Vec<FaultRecord> {
    let cluster = StoreCluster::spawn(parity_config());
    let client = cluster.client();
    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
    }
    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for i in 0..N_READS {
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(
            client.read_quiet(id).unwrap(),
            payload(id, FILE_LEN),
            "read {i} of file {id} not byte-exact under corruption (channel)"
        );
    }
    check_parity_run(
        cluster.fault_log().snapshot(),
        || cluster.worker_stats().unwrap(),
        "channel",
    )
}

/// The same run with every byte crossing a loopback socket: `Corrupt`
/// erasures travel as typed error frames, parity shards as `GetParity`
/// frames, and the checksums ride the `Put` frames.
fn run_parity_tcp(workload_seed: u64) -> Vec<FaultRecord> {
    let cluster = TcpCluster::spawn(parity_config());
    let client = cluster.client();
    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
    }
    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for i in 0..N_READS {
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(
            client.read_quiet(id).unwrap(),
            payload(id, FILE_LEN),
            "read {i} of file {id} not byte-exact under corruption (TCP)"
        );
    }
    let log = check_parity_run(
        cluster.fault_log().snapshot(),
        || cluster.worker_stats().unwrap(),
        "tcp",
    );
    cluster.shutdown();
    log
}

/// The write phase the no-parity script counts ops against.
fn write_and_checkpoint(client: &Client, under: &Arc<UnderStore>) {
    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
        checkpoint(client, under, id).unwrap();
    }
}

/// The shared body of a no-parity run: the flip still surfaces as an
/// erasure (never wrong bytes), but with `r = 0` recovery falls back
/// to the under-store heal path instead of a parity rebuild.
fn heal_workload(client: &Client, under: &Arc<UnderStore>, workload_seed: u64) {
    write_and_checkpoint(client, under);
    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for i in 0..N_READS {
        let id = sampler.sample(&mut rng) as u64;
        assert_eq!(
            client.read_quiet(id).unwrap(),
            payload(id, FILE_LEN),
            "read {i} of file {id} not byte-exact during under-store heal"
        );
    }
}

fn check_heal_log(log: Vec<FaultRecord>) -> Vec<FaultRecord> {
    assert_eq!(log.len(), 1, "expected the single scripted flip: {log:?}");
    assert_eq!((log[0].worker, log[0].op), (0, 2));
    log
}

fn run_heal_channel(workload_seed: u64) -> Vec<FaultRecord> {
    let cluster = StoreCluster::spawn(heal_config());
    let under = Arc::new(UnderStore::new());
    let client = cluster.client().with_under_store(Arc::clone(&under));
    heal_workload(&client, &under, workload_seed);
    // The one detection healed back through the under-store.
    assert_eq!(
        cluster
            .worker_stats()
            .unwrap()
            .iter()
            .map(|s| s.corruptions_detected)
            .sum::<u64>(),
        1
    );
    check_heal_log(cluster.fault_log().snapshot())
}

fn run_heal_tcp(workload_seed: u64) -> Vec<FaultRecord> {
    let cluster = TcpCluster::spawn(heal_config());
    let under = Arc::new(UnderStore::new());
    let client = cluster.client().with_under_store(Arc::clone(&under));
    heal_workload(&client, &under, workload_seed);
    let log = check_heal_log(cluster.fault_log().snapshot());
    cluster.shutdown();
    log
}

/// The no-parity script with the second copy rotted as well: the
/// resident flip erases `(0, 0)` and the checkpoint the heal would
/// restore from no longer matches the file's integrity row in `(0, 1)`.
/// The heal refuses it, so the read ends in the typed erasure — never
/// in the checkpoint's bytes — with the placement untouched, and heals
/// byte-exact once a clean checkpoint is back.
fn rotted_checkpoint_run(client: &Client, master: &Master, under: &Arc<UnderStore>) {
    write_and_checkpoint(client, under);
    let clean = payload(0, FILE_LEN);
    let mut rotted = clean.clone();
    rotted[FILE_LEN - 1] ^= 0x20;
    under.persist(0, rotted.into());
    assert_eq!(
        client.read_quiet(0),
        Err(StoreError::Corrupt(PartKey::new(0, 0)))
    );
    assert_eq!(master.peek(0).unwrap().1, placement(0));
    under.persist(0, clean.clone().into());
    assert_eq!(client.read_quiet(0).unwrap(), clean);
}

#[test]
fn corrupted_partitions_rebuild_from_parity_without_the_under_store() {
    let log_a = run_parity_channel(chaos_seed());
    let log_b = run_parity_channel(chaos_seed());
    assert_eq!(log_a, log_b, "corruption injection is not reproducible");
}

#[test]
fn corruption_recovery_is_identical_over_tcp_and_reruns_cleanly() {
    let log_a = run_parity_tcp(chaos_seed());
    let log_b = run_parity_tcp(chaos_seed());
    assert_eq!(log_a, log_b, "corruption injection is not reproducible over TCP");
}

#[test]
fn tcp_and_channel_transports_fire_identical_corruption_logs() {
    let tcp = run_parity_tcp(chaos_seed());
    let channel = run_parity_channel(chaos_seed());
    assert_eq!(
        tcp, channel,
        "wire transport changed which corruptions fired — op order diverged"
    );
}

#[test]
fn without_parity_the_same_flip_heals_from_the_under_store() {
    let channel = run_heal_channel(chaos_seed());
    let tcp = run_heal_tcp(chaos_seed());
    assert_eq!(channel, tcp, "heal-path fault logs diverged across transports");
}

#[test]
fn a_rotted_checkpoint_is_refused_by_the_heal_on_both_transports() {
    let channel = StoreCluster::spawn(heal_config());
    let under = Arc::new(UnderStore::new());
    let client = channel.client().with_under_store(Arc::clone(&under));
    rotted_checkpoint_run(&client, channel.master(), &under);
    let channel = check_heal_log(channel.fault_log().snapshot());

    let tcp = TcpCluster::spawn(heal_config());
    let under = Arc::new(UnderStore::new());
    let client = tcp.client().with_under_store(Arc::clone(&under));
    rotted_checkpoint_run(&client, tcp.master(), &under);
    assert_eq!(channel, check_heal_log(tcp.fault_log().snapshot()));
    tcp.shutdown();
}
