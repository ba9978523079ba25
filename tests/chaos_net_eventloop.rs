//! Chaos twin for the readiness-driven TCP data plane: the same seeded
//! `FaultPlan` — now including the **wire faults** the event loop must
//! reproduce (`drop-connection`, `truncate-frame`, `delay-frame`,
//! `lose-reply`) plus a hard crash — fires under a Zipf read workload on
//! both the in-process channel transport and the batched TCP event
//! loop. The op-indexed fault log must come out *identical* across the
//! two transports and across same-seed reruns, every read must stay
//! byte-exact, and the supervisor's sweep log must be reproducible.
//!
//! A second harness aims the wire faults at the middle of a **pipelined
//! batch**: ≥64 requests multiplexed onto one connection via
//! `Transport::submit_batch`, with a `drop-connection` scripted inside
//! the first batch and a `truncate-frame` inside the second. Every
//! receiver must resolve (no lost or hung replies), every successful
//! reply must carry exactly its own file's bytes (no cross-wired
//! replies), and the split between delivered and failed replies must be
//! the deterministic one the FIFO service order dictates.
//!
//! A third aims a hard `Crash` at the middle of such a burst: the
//! replies computed before it are delivered, every request behind it —
//! queued in the worker or still on the wire — is told `WorkerDown`,
//! identically on both transports, and the server outlives its worker.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use spcache::net::loopback::twin;
use spcache::net::{TcpCluster, TcpTransport};
use spcache::sim::Xoshiro256StarStar;
use spcache::store::backing::{checkpoint, UnderStore};
use spcache::store::fault::FaultRecord;
use spcache::store::rpc::{PartKey, Reply, Request, StoreError};
use spcache::store::supervisor::SweepRecord;
use spcache::store::transport::Transport;
use spcache::store::{FaultPlan, RetryPolicy, StoreCluster, StoreConfig, SupervisorConfig};
use spcache::workload::zipf::ZipfSampler;

mod common;
use common::{FILE_LEN, N_FILES, N_WORKERS, chaos_seed, payload, placement};

const N_READS: usize = 300;
/// Reads between supervisor ticks.
const TICK_EVERY: usize = 50;
/// Crashes for good mid-workload; its partitions survive only in the
/// under-store.
const DOOMED_WORKER: usize = 3;

/// Every wire fault the event loop knows, plus a hard crash — all
/// op-indexed, all past the ~13 setup ops each worker spends on puts and
/// checkpoint gets.
fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .drop_connection(1, 25)
        .truncate_frame(2, 40)
        .delay_frame(4, 45, Duration::from_millis(30))
        .lose_reply(5, 50)
        .crash(DOOMED_WORKER, 60)
}

fn chaos_config() -> StoreConfig {
    StoreConfig::unthrottled(N_WORKERS)
        .with_faults(chaos_plan())
        .with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(2),
        })
        .with_supervisor(
            SupervisorConfig::enabled()
                .with_interval(Duration::ZERO) // manual ticks only
                .with_probe_timeout(Duration::from_millis(500)),
        )
}

/// Everything one supervised wire-chaos run produces that must be
/// reproducible under the same `(seed, plan)`.
#[derive(Debug, PartialEq)]
struct RunTrace {
    faults: Vec<FaultRecord>,
    sweeps: Vec<SweepRecord>,
    placements: Vec<(u64, Vec<usize>)>,
}

/// Drives one run over an already-spawned cluster. Cluster-agnostic:
/// the channel and TCP harnesses run the same body.
fn drive(cluster: &StoreCluster, workload_seed: u64) -> RunTrace {
    let master = cluster.master();
    let supervisor = cluster.supervisor().expect("supervisor enabled");
    let under = cluster.under_store().expect("under-store attached");
    let client = cluster.client();
    // Tick 1 adopts the fleet; nothing to sweep yet.
    assert!(supervisor.tick().is_none(), "sweep before any file exists");

    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
        checkpoint(&client, under, id).unwrap();
    }

    let sampler = ZipfSampler::new(N_FILES as usize, 1.1);
    let mut rng = Xoshiro256StarStar::seed_from_u64(workload_seed);
    for i in 0..N_READS {
        if i % TICK_EVERY == 0 {
            supervisor.tick();
        }
        let id = sampler.sample(&mut rng) as u64;
        match client.read_quiet(id) {
            Ok(bytes) => assert_eq!(
                bytes,
                payload(id, FILE_LEN),
                "read {i} of file {id} not byte-exact under wire chaos"
            ),
            // The retry budget absorbs every scripted wire fault; only
            // a read racing the supervisor's view of the hard crash may
            // shed. One tick must heal it.
            Err(err) => {
                supervisor.tick();
                assert_eq!(
                    client.read_quiet(id).expect("read must heal after a tick"),
                    payload(id, FILE_LEN),
                    "read {i} of file {id} not byte-exact after healing tick \
                     (first error: {err:?})"
                );
            }
        }
    }

    // Quiesce: tick until two consecutive rounds find nothing degraded.
    let mut idle = 0;
    for _ in 0..12 {
        if supervisor.tick().is_none() {
            idle += 1;
            if idle >= 2 {
                break;
            }
        } else {
            idle = 0;
        }
    }
    assert!(idle >= 2, "supervisor never quiesced — files stayed degraded");

    // Post-recovery: every file byte-exact, nothing left on the corpse.
    for id in 0..N_FILES {
        assert_eq!(client.read_quiet(id).unwrap(), payload(id, FILE_LEN));
    }
    assert!(!master.is_alive(DOOMED_WORKER), "crashed worker still alive");
    let placements = master.placements();
    for (id, servers) in &placements {
        assert!(
            !servers.contains(&DOOMED_WORKER),
            "file {id} still placed on dead worker after quiesce"
        );
    }
    RunTrace {
        faults: cluster.fault_log().snapshot(),
        sweeps: supervisor.sweep_log().snapshot(),
        placements,
    }
}

fn spawn() -> (StoreConfig, Option<Arc<UnderStore>>) {
    (chaos_config(), Some(Arc::new(UnderStore::new())))
}

fn wire_chaos_in_process(workload_seed: u64) -> RunTrace {
    let (cfg, under) = spawn();
    drive(&StoreCluster::spawn_with_under_store(cfg, under), workload_seed)
}

fn wire_chaos_over_tcp(workload_seed: u64) -> RunTrace {
    let (cfg, under) = spawn();
    drive(&TcpCluster::spawn_with_under_store(cfg, under), workload_seed)
}

#[test]
fn wire_chaos_fault_logs_are_identical_across_transports() {
    let (channel, tcp) = twin(spawn, |c| drive(c, chaos_seed()));

    // All five scripted faults fired on the scripted workers at the
    // scripted ops, on both transports. (The log's append order is the
    // order the workload reached each worker's trigger — deterministic,
    // but not sorted — so membership is checked sorted and ordering by
    // the cross-transport equality below.)
    let mut fired: Vec<_> = tcp.faults.iter().map(|r| (r.worker, r.op)).collect();
    fired.sort_unstable();
    assert_eq!(
        fired,
        vec![(1, 25), (2, 40), (DOOMED_WORKER, 60), (4, 45), (5, 50)],
        "unexpected fault firing over TCP: {:?}",
        tcp.faults
    );
    assert_eq!(
        tcp.faults, channel.faults,
        "wire transport changed which faults fired — op order diverged"
    );
}

#[test]
fn wire_chaos_runs_are_reproducible_per_transport() {
    let a = wire_chaos_over_tcp(chaos_seed());
    let b = wire_chaos_over_tcp(chaos_seed());
    assert_eq!(a, b, "same-seed TCP wire-chaos runs diverged");

    let c = wire_chaos_in_process(chaos_seed());
    let d = wire_chaos_in_process(chaos_seed());
    assert_eq!(c, d, "same-seed channel wire-chaos runs diverged");
}

// ---------------------------------------------------------------------
// Mid-batch wire faults on one pipelined connection.
// ---------------------------------------------------------------------

/// Files in the pipelined-batch harness, all placed on one worker so
/// every request in a batch multiplexes onto the same connection.
const BATCH_FILES: u64 = 96;
const BATCH_LEN: usize = 4_096;
/// The wire fault fires at the 32nd get of the batch: ops 0..96 are the
/// setup puts, so op 96+32 is the 33rd pipelined get. (Each fault kind
/// gets its own cluster — a killed connection discards requests still
/// unread in the socket, so op indices *after* the first wire fault are
/// not comparable across runs.)
const FAULT_AT: u64 = BATCH_FILES + 32;

/// Issues one pipelined batch of `BATCH_FILES` gets against worker 0
/// and returns, per file, the successful payload (if any). Every
/// receiver must resolve — a lost reply would hang the deadline here.
fn run_batch(transport: &dyn spcache::store::transport::Transport) -> Vec<Option<Vec<u8>>> {
    let reqs = (0..BATCH_FILES)
        .map(|id| {
            (
                0usize,
                Request::Get {
                    key: PartKey::new(id, 0),
                },
            )
        })
        .collect();
    let rxs = transport.submit_batch(reqs).expect("batch submission failed");
    assert_eq!(rxs.len() as u64, BATCH_FILES);
    rxs.into_iter()
        .enumerate()
        .map(|(i, rx)| {
            match rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("reply {i} lost (receiver: {e:?})"))
            {
                Reply::Data(b) => Some(b.to_vec()),
                Reply::Err(e) => {
                    assert!(e.is_retryable(), "reply {i} failed permanently: {e:?}");
                    None
                }
                other => panic!("reply {i} has wrong shape: {other:?}"),
            }
        })
        .collect()
}

/// Runs one mid-batch wire-fault scenario: 96 requests pipelined onto
/// one connection, the scripted fault firing at the 33rd. Returns the
/// delivered-prefix length after asserting the invariants every fault
/// kind shares: every receiver resolves, delivered replies form a
/// byte-exact prefix ending before the fault, the fault log records
/// exactly the scripted firing, and the retrying client heals.
fn run_mid_batch(plan: FaultPlan) -> usize {
    let cfg = StoreConfig::unthrottled(1).with_faults(plan).with_retry(RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2),
        deadline: Duration::from_secs(2),
    });
    let cluster = TcpCluster::spawn(cfg);
    let client = cluster.client();

    for id in 0..BATCH_FILES {
        client.write(id, &payload(id, BATCH_LEN), &[0]).unwrap();
    }

    let results = run_batch(cluster.transport().as_ref());
    let fault_index = (FAULT_AT - BATCH_FILES) as usize;
    let delivered = results.iter().filter(|r| r.is_some()).count();
    // FIFO service order + in-order frame delivery on one stream: the
    // delivered replies are a *prefix* of the batch ending before the
    // faulted frame. (A killed connection may additionally discard
    // replies already queued but not yet flushed, so the prefix can be
    // shorter than the fault index.)
    assert!(
        delivered <= fault_index,
        "a reply at/after the wire fault was delivered ({delivered} > {fault_index})"
    );
    for (id, got) in results.iter().enumerate() {
        match got {
            Some(bytes) => {
                assert!(
                    id < delivered,
                    "delivered replies are not a prefix (gap before {id})"
                );
                assert_eq!(
                    bytes,
                    &payload(id as u64, BATCH_LEN),
                    "pipelined reply {id} cross-wired"
                );
            }
            None => assert!(
                id >= delivered,
                "delivered replies are not a prefix (hole at {id})"
            ),
        }
    }

    // Exactly the scripted fault fired, and the client's retry path
    // (redial on a fresh connection) still reads every byte back.
    let log = cluster.fault_log().snapshot();
    assert_eq!(
        log.iter().map(|r| (r.worker, r.op)).collect::<Vec<_>>(),
        vec![(0, FAULT_AT)],
        "unexpected wire-fault firing: {log:?}"
    );
    for id in 0..BATCH_FILES {
        assert_eq!(
            client.read_quiet(id).unwrap(),
            payload(id, BATCH_LEN),
            "file {id} unreadable after the mid-batch wire fault"
        );
    }
    delivered
}

#[test]
fn mid_batch_drop_connection_never_cross_wires_pipelined_replies() {
    run_mid_batch(FaultPlan::none().drop_connection(0, FAULT_AT));
}

#[test]
fn mid_batch_truncate_frame_never_cross_wires_pipelined_replies() {
    // A truncated frame drains the already-queued replies before the
    // connection closes, so the prefix is exactly the pre-fault window.
    let delivered = run_mid_batch(FaultPlan::none().truncate_frame(0, FAULT_AT));
    assert_eq!(
        delivered,
        (FAULT_AT - BATCH_FILES) as usize,
        "truncate must flush every queued pre-fault reply first"
    );
}

// ---------------------------------------------------------------------
// A hard crash under a pipelined burst.
// ---------------------------------------------------------------------

const BURST: u64 = 64;
const CRASH_AT: u64 = 10;

/// Pipelines [`BURST`] puts at worker 0, none awaited, then resolves
/// every route in submit order. A submission the transport refuses and
/// a route that dies unanswered both read as the `WorkerDown` they are
/// in process.
fn burst_into_a_crash(transport: &dyn Transport) -> Vec<Reply> {
    const WAIT: Duration = Duration::from_secs(10);
    let routes: Vec<_> = (0..BURST)
        .map(|id| {
            let put = Request::Put {
                key: PartKey::new(id, 0),
                data: payload(id, 512).into(),
                sum: 0,
            };
            transport.submit(0, put)
        })
        .collect();
    let t0 = std::time::Instant::now();
    let replies = routes
        .into_iter()
        .map(|route| match route {
            Ok(rx) => rx
                .recv_timeout(WAIT)
                .unwrap_or(Reply::Err(StoreError::WorkerDown(0))),
            Err(e) => Reply::Err(e),
        })
        .collect();
    assert!(t0.elapsed() < WAIT, "a route neither answered nor died");
    replies
}

#[test]
fn a_crash_under_a_pipelined_burst_fails_the_rest_identically_on_both_transports() {
    let cfg = || StoreConfig::unthrottled(1).with_faults(FaultPlan::none().crash(0, CRASH_AT));
    let expected: Vec<Reply> = (0..BURST)
        .map(|op| {
            if op < CRASH_AT {
                Reply::Done
            } else {
                Reply::Err(StoreError::WorkerDown(0))
            }
        })
        .collect();

    let (channel, tcp) = twin(
        || (cfg(), None),
        |c| (burst_into_a_crash(c.transport().as_ref()), c.fault_log().snapshot()),
    );
    assert_eq!(channel.0, expected, "channel");
    assert_eq!(tcp.0, expected, "tcp");
    let fired = tcp.1;
    assert_eq!(fired.iter().map(|r| (r.worker, r.op)).collect::<Vec<_>>(), vec![(0, CRASH_AT)]);
    assert_eq!(fired, channel.1);

    // Only a socket can show this, so it runs on a loopback cluster of
    // its own after the twin: the server outlives its worker, and a
    // fresh connection is accepted and told, definitively, that the
    // worker is down.
    let tcp = TcpCluster::spawn(cfg());
    assert_eq!(burst_into_a_crash(tcp.transport().as_ref()), expected, "tcp");
    let fresh = TcpTransport::connect(tcp.worker_addrs());
    let get = Request::Get { key: PartKey::new(0, 0) };
    assert_eq!(
        fresh.call(0, get, Duration::from_secs(5)),
        Ok(Reply::Err(StoreError::WorkerDown(0)))
    );
}
