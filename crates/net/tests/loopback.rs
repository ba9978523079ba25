//! End-to-end tests of the loopback-TCP cluster: byte-exact parity with
//! the in-process transport, repartition over the wire, wire-level fault
//! injection, graceful drain-then-exit shutdown, and a dropped cluster
//! leaving nothing listening.

use bytes::Bytes;
use spcache_core::online::plan_adjust;
use spcache_ec::ReedSolomon;
use spcache_core::partition::PartitionMap;
use spcache_core::repartition::{RepartitionJob, RepartitionPlan};
use spcache_net::master_net::{MetaReply, MetaRequest};
use spcache_net::loopback::twin;
use spcache_net::{MasterClient, MasterServer, TcpCluster};
use spcache_store::fault::FaultAction;
use spcache_store::landing::Region;
use spcache_store::master::{Master, MetaService};
use spcache_store::repartitioner::{execute_adjust, run_parallel};
use spcache_store::rpc::{PartKey, Reply, Request, Stamp, StoreError};
use spcache_store::throttle::TrafficClass;
use spcache_store::transport::Transport;
use spcache_store::{
    Client, FaultPlan, StoreCluster, StoreConfig, SupervisorConfig, SupervisorCore,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{await_until, chaos_seed, N_WORKERS, payload, retry};

/// The acceptance bar: the same workload against the in-process channel
/// transport and against real loopback sockets returns identical bytes.
#[test]
fn tcp_reads_match_in_process_reads_byte_for_byte() {
    let (chan, tcp) = twin(
        || (StoreConfig::unthrottled(N_WORKERS), None),
        |cluster| {
            let client = cluster.client();
            for id in 0..12u64 {
                // Ragged sizes straddle the partition boundary math.
                let data = payload(id, 3_000 + (id as usize * 997) % 9_000);
                let servers = vec![id as usize % N_WORKERS, (id as usize + 1) % N_WORKERS];
                client.write(id, &data, &servers).unwrap();
            }
            (0..12u64).map(|id| client.read(id).unwrap()).collect::<Vec<_>>()
        },
    );
    for (id, (over_tcp, in_process)) in (0..12u64).zip(tcp.into_iter().zip(chan)) {
        assert_eq!(over_tcp, in_process, "file {id} differs across transports");
        assert_eq!(over_tcp, payload(id, 3_000 + (id as usize * 997) % 9_000));
    }
}

/// A dropped cluster stops the way a drained one does: every worker
/// server and the master's server close their listeners and their I/O
/// loops exit, instead of serving `WorkerDown` for the rest of the
/// process.
#[test]
fn a_dropped_cluster_leaves_nothing_listening() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let (workers, master) = (tcp.worker_addrs(), tcp.master_addr());
    drop(tcp);
    for addr in workers.iter().chain([&master]) {
        assert!(TcpStream::connect(addr).is_err(), "{addr} still accepts connections");
    }
}

/// A full repartition round-trip driven through the master's wire
/// protocol: one `Rebalance` RPC plans with Algorithm 1+2 and executes
/// over the master's own TCP transport; reads stay byte-exact.
#[test]
fn rebalance_rpc_moves_files_and_preserves_bytes() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let client = tcp.client();

    // Large files, all crowded onto worker 0 — exactly what selective
    // partition exists to fix.
    for id in 0..6u64 {
        client.write(id, &payload(id, 40_000), &[0]).unwrap();
    }
    // Skew the access counts so the tuner sees load.
    for _ in 0..5 {
        for id in 0..6u64 {
            client.read(id).unwrap();
        }
    }
    client.flush_accesses();

    let mc = tcp.master_client();
    let (moved, skipped) = mc.rebalance(1e9, 100.0, 42).unwrap();
    assert!(skipped.is_empty(), "no worker failed, nothing may be skipped");
    assert!(moved > 0, "crowded placement must trigger movement");

    // Placement metadata changed under at least one moved file...
    let spread: usize = tcp
        .master()
        .placements()
        .iter()
        .map(|(_, servers)| servers.len())
        .max()
        .unwrap();
    assert!(spread > 1, "rebalance should partition at least one file");
    // ...and every byte survived the move.
    for id in 0..6u64 {
        assert_eq!(client.read(id).unwrap(), payload(id, 40_000), "file {id}");
    }
}

/// Wire faults fire at the TCP layer and the retrying client absorbs
/// them: a dropped connection, a delayed frame and a truncated frame
/// each surface as retryable transport errors, never wrong bytes.
#[test]
fn wire_faults_are_absorbed_by_retries() {
    let delay = Duration::from_millis(120);
    let faults = FaultPlan::none()
        .drop_connection(1, 2)
        .truncate_frame(2, 2)
        .delay_frame(3, 2, delay);
    let cfg = StoreConfig::unthrottled(N_WORKERS)
        .with_faults(faults)
        .with_retry(retry());
    let tcp = TcpCluster::spawn(cfg);
    let client = tcp.client();

    for id in 0..4u64 {
        // One partition per worker: file id lives on worker id.
        client.write(id, &payload(id, 2_000), &[id as usize]).unwrap();
    }
    // Each worker has served 1 put (op 0); reads are ops 1, 2, ... The
    // faults all trigger at op 2, i.e. the second read below.
    let t0 = Instant::now();
    for round in 0..3 {
        for id in 0..4u64 {
            assert_eq!(
                client.read(id).unwrap(),
                payload(id, 2_000),
                "round {round} file {id}"
            );
        }
    }
    assert!(t0.elapsed() >= delay, "the delayed frame must actually stall");

    let log = tcp.fault_log().snapshot();
    let fired: Vec<(usize, FaultAction)> =
        log.iter().map(|r| (r.worker, r.action.clone())).collect();
    assert!(fired.contains(&(1, FaultAction::DropConnection)));
    assert!(fired.contains(&(2, FaultAction::TruncateFrame)));
    assert!(fired.contains(&(3, FaultAction::DelayFrame(delay))));
}

/// Graceful shutdown over the wire: requests already accepted are
/// drained (their effects are durable and their replies delivered)
/// before the ack; requests after the ack fail cleanly.
#[test]
fn shutdown_drains_queued_requests() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(1));
    let transport = tcp.transport().clone();

    // Queue a burst of puts and a shutdown *behind* them, all without
    // awaiting — the server must serve every put before acking.
    let staged: Vec<_> = (0..32u32)
        .map(|i| {
            let key = PartKey::new(7, i).staged();
            let data = payload(u64::from(i), 1_500);
            let rx = transport
                .submit(0, Request::Put { key, data: data.clone().into(), sum: 0 })
                .unwrap();
            (key, data, rx)
        })
        .collect();
    let shutdown_rx = transport.submit(0, Request::Shutdown).unwrap();

    for (i, (_, _, rx)) in staged.iter().enumerate() {
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply, Reply::Done, "queued put {i} must land before the ack");
    }
    assert_eq!(
        shutdown_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        Reply::Done
    );

    // The worker is gone: a new request must fail with a transport
    // error, not hang.
    let err = transport
        .call(0, Request::Ping, Duration::from_secs(1))
        .map(|r| r.pong())
        .and_then(|r| r);
    match err {
        Err(StoreError::Io(0) | StoreError::WorkerDown(0) | StoreError::Timeout(0)) => {}
        other => panic!("post-shutdown request should fail, got {other:?}"),
    }
}

/// A throttled worker over TCP releases each reply at the instant its
/// emulated transfer is paid off, without holding up its loop: a `Ping`
/// behind a transfer is answered at once, while a second read queues
/// behind the first on each worker's NIC.
#[test]
fn a_throttled_worker_paces_reads_and_answers_pings_at_once() {
    let tcp = TcpCluster::spawn(StoreConfig::throttled(2, 1e6));
    let client = tcp.client();
    let data = payload(1, 1_000_000);
    client.write(1, &data, &[0, 1]).unwrap();

    // Each worker streams its 500 kB partition at 1 MB/s.
    let t0 = Instant::now();
    assert_eq!(client.read(1).unwrap(), data);
    assert!(t0.elapsed() >= Duration::from_millis(450), "read took {:?}", t0.elapsed());

    std::thread::scope(|s| {
        let read = s.spawn(|| client.read(1));
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let pong = tcp.transport().call(0, Request::Ping, Duration::from_secs(5));
        let waited = t0.elapsed();
        assert_eq!(pong.and_then(Reply::pong), Ok(0));
        assert!(waited < Duration::from_millis(250), "the ping waited {waited:?}");
        assert_eq!(read.join().unwrap().unwrap(), data);
    });

    let t0 = Instant::now();
    std::thread::scope(|s| {
        let reads: Vec<_> = (0..2).map(|_| s.spawn(|| client.read(1))).collect();
        for read in reads {
            assert_eq!(read.join().unwrap().unwrap(), data);
        }
    });
    assert!(t0.elapsed() >= Duration::from_millis(900), "two reads took {:?}", t0.elapsed());
}

/// A throttled worker streams a reply as its NIC pays it off: the
/// first piece of a 500 kB partition at 1 MB/s leaves after its own
/// share of the transfer, long before the whole is paid off, and the
/// last byte leaves no earlier than the pay-off.
#[test]
fn a_throttled_worker_streams_a_reply_as_its_nic_pays_it_off() {
    let tcp = TcpCluster::spawn(StoreConfig::throttled(1, 1e6));
    let data = payload(1, 500_000);
    tcp.client().write(1, &data, &[0]).unwrap();
    let pay_off = Duration::from_millis(500);

    let mut raw = TcpStream::connect(tcp.worker_addrs()[0]).unwrap();
    raw.set_nodelay(true).unwrap();
    let get = spcache_net::frame::encode_request(&Request::Get { key: PartKey::new(1, 0) }, 7);
    let t0 = Instant::now();
    raw.write_all(&get).unwrap();
    let mut frame = Vec::new();
    let mut first = None;
    let mut buf = vec![0u8; 1 << 20];
    let whole = loop {
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0, "the worker closed mid-frame");
        frame.extend_from_slice(&buf[..n]);
        // The frame's head is a few dozen bytes: past a KiB is payload.
        if frame.len() > 1024 {
            first.get_or_insert_with(|| t0.elapsed());
        }
        let len = frame.first_chunk().map_or(usize::MAX, |p| u32::from_le_bytes(*p) as usize);
        if frame.len() >= 4 + len {
            break t0.elapsed();
        }
    };
    let first = first.unwrap();
    assert!(first < pay_off / 4, "the first payload bytes came after {first:?}");
    assert!(whole + Duration::from_millis(5) >= pay_off, "the reply was whole after {whole:?}");
    let reply = spcache_net::frame::Frame::parse(Bytes::from(frame.split_off(4))).unwrap();
    assert_eq!(spcache_net::frame::decode_reply(&reply).unwrap(), Reply::Data(Bytes::from(data)));
}

/// `Stats` over the wire reflect the served workload.
#[test]
fn stats_travel_the_wire() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(2));
    let client = tcp.client();
    client.write(1, &payload(1, 5_000), &[0, 1]).unwrap();
    client.read(1).unwrap();
    let stats = tcp.worker_stats().unwrap();
    let puts: u64 = stats.iter().map(|s| s.puts).sum();
    let gets: u64 = stats.iter().map(|s| s.gets).sum();
    assert_eq!(puts, 2);
    assert_eq!(gets, 2);
    assert_eq!(stats.iter().map(|s| s.resident_parts).sum::<usize>(), 2);
}

/// A degraded `k = 3, r = 1` read costs exactly `k + r` worker requests:
/// the erasure widens the attempt with the parity fetch instead of
/// starting a second `k + r` fan-out, so each surviving data shard is
/// fetched once. Same count over channels and over sockets.
#[test]
fn degraded_read_costs_k_plus_r_gets_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let (client, transport) = (cluster.client(), cluster.transport());
        let stats = || cluster.worker_stats().unwrap();
        let data = payload(1, 9_000);
        client.write(1, &data, &[0, 1, 2]).unwrap();
        let key = PartKey::new(1, 0);
        let gone = transport.call(0, Request::Delete { key }, Duration::from_secs(5));
        assert_eq!(gone, Ok(Reply::Flag(true)));
        let before = stats();
        assert_eq!(client.read(1).unwrap(), data);
        let moved: Vec<u64> = stats().iter().zip(&before).map(|(a, b)| a.gets - b.gets).collect();
        // Workers 0–2: one Get each (worker 0's is the NotFound); the
        // one GetParity lands on a spare.
        assert_eq!(moved[..3], [1, 1, 1], "a surviving data shard was fetched twice");
        assert_eq!(moved.iter().sum::<u64>(), 4, "k + r = 4 requests, got {moved:?}");
    }
    let cfg = || StoreConfig::unthrottled(5).with_verify_reads(true).with_parity(1);
    twin(|| (cfg(), None), check);
}

/// The parity a writer stores is the codec's, byte for byte, and it
/// rebuilds what was lost. A `k = 3, r = 1` write of each size — empty,
/// one byte, k − 1, k + 1 and a ragged 2 MiB — leaves on the spare
/// worker exactly the parity shard `encode_bytes` makes of the file;
/// after partition 0 is deleted, a read decodes the file byte-exact and
/// re-lands partition 0 on its holder. Same on both transports.
#[test]
fn stored_parity_is_the_codecs_and_rebuilds_a_lost_partition_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let (client, transport) = (cluster.client(), cluster.transport());
        let wait = Duration::from_secs(5);
        for (id, len) in [(1u64, 0usize), (2, 1), (3, 2), (4, 4), (5, 2 << 20)] {
            let data = payload(id, len);
            client.write(id, &data, &[0, 1, 2]).unwrap();
            let row = cluster.master().integrity(id).unwrap();
            assert_eq!(row.parity.len(), 1, "len {len}");
            let (spare, _) = row.parity[0];
            let key = PartKey::parity(id, 0);
            let stored = transport.call(spare, Request::GetParity { key }, wait).unwrap();
            let want = ReedSolomon::new_cauchy(3, 4).encode_bytes(&data).split_off(3);
            assert_eq!(stored.bytes().unwrap()[..], want[0][..], "parity of len {len}");

            let key = PartKey::new(id, 0);
            let part0 = transport.call(0, Request::Get { key }, wait).unwrap().bytes().unwrap();
            let gone = transport.call(0, Request::Delete { key }, wait);
            assert_eq!(gone, Ok(Reply::Flag(true)), "len {len}");
            assert_eq!(client.read(id).unwrap(), data, "degraded read of len {len}");
            await_until("the repair of partition 0", wait, || {
                let held = transport.call(0, Request::Get { key }, wait);
                held.and_then(Reply::bytes).is_ok_and(|b| b == part0)
            });
        }
    }
    let cfg = || StoreConfig::unthrottled(N_WORKERS).with_verify_reads(true).with_parity(1);
    twin(|| (cfg(), None), check);
}

/// A control request inside a stamp is a ~35-byte frame anyone can
/// send. It gets a typed, permanent refusal — from the decoder over a
/// socket, from the worker itself when hand-built in process — fires no
/// fault and counts no op, and the worker keeps serving.
#[test]
fn stamped_control_requests_are_refused_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let (transport, faults) = (cluster.transport(), cluster.fault_log());
        let wait = Duration::from_secs(5);
        let fence = Stamp { epoch: 1, ..Stamp::default() };
        let background = Stamp { class: TrafficClass::Background, ..Stamp::default() };
        for bad in [
            Request::Stamped { stamp: fence, inner: Box::new(Request::Ping) },
            Request::Stamped { stamp: background, inner: Box::new(Request::Stats) },
        ] {
            let refused = transport.call(0, bad.clone(), wait);
            assert!(
                matches!(refused, Ok(Reply::Err(StoreError::Codec(_)))),
                "{bad:?} got {refused:?}"
            );
            // The refusal cuts a TCP connection; a request racing the
            // teardown sees a retryable `Io` and redials.
            let mut pong = transport.call(0, Request::Ping, wait);
            for _ in 0..100 {
                if !matches!(pong, Ok(Reply::Err(StoreError::Io(0))) | Err(StoreError::Io(0))) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                pong = transport.call(0, Request::Ping, wait);
            }
            assert_eq!(pong.and_then(Reply::pong), Ok(0), "worker gone after {bad:?}");
        }
        // Neither refusal was op 0: the fault scripted there is still
        // waiting for the first data request.
        assert!(faults.is_empty(), "a refused request fired {:?}", faults.snapshot());
        let get = Request::Get { key: PartKey::new(1, 0) };
        assert_eq!(transport.call(0, get, wait), Ok(Reply::Err(StoreError::StaleEpoch(0))));
        assert_eq!(faults.len(), 1);
    }
    let cfg = || StoreConfig::unthrottled(1).with_faults(FaultPlan::none().stale_epoch(0, 0));
    twin(|| (cfg(), None), check);
}

/// A swallowed heartbeat is silence, not an answer: the probe's route
/// stays alive in the worker, so no frame — no `Pong`, no `WorkerDown`
/// — ever answers it, while the next `Ping` on the same connection is
/// served. (A `WorkerDown` frame here would turn the supervisor's
/// suspicion ladder into instant death.)
#[test]
fn swallowed_heartbeat_sends_no_frame_over_tcp() {
    let cfg = StoreConfig::unthrottled(1).with_faults(FaultPlan::none().drop_heartbeat(0, 0));
    let tcp = TcpCluster::spawn(cfg);
    let transport = tcp.transport();
    let swallowed = transport.submit(0, Request::Ping).unwrap();
    let answered = transport.call(0, Request::Ping, Duration::from_secs(5));
    assert_eq!(answered.and_then(Reply::pong), Ok(0));
    // Replies leave one connection in the order the worker computed
    // them, so an answer to the first probe would have landed already.
    assert_eq!(swallowed.try_recv(), Err(crossbeam::channel::TryRecvError::Empty));
    assert_eq!(tcp.fault_log().snapshot()[0].action, FaultAction::DropHeartbeat);
}

/// Placements reach the client from callers and from the master over
/// the wire; an empty one, or one naming a worker outside the fleet, is
/// a typed permanent error on every path — never an index panic inside
/// a transport.
#[test]
fn bad_placements_are_typed_errors_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let (client, master) = (cluster.client(), cluster.meta());
        let bad = |r: Result<(), StoreError>| {
            let e = r.expect_err("bad placement accepted");
            assert!(matches!(e, StoreError::Codec(_)) && !e.is_retryable(), "got {e:?}");
        };
        bad(client.write(1, b"nowhere", &[]));
        bad(client.write(1, b"off the end", &[0, N_WORKERS]));
        bad(client.write_many(&[(1, b"batch".to_vec().into(), vec![])]));
        // Metadata naming a worker the fleet does not have.
        master.register(2, 100, vec![1, N_WORKERS + 5]).unwrap();
        bad(client.read(2).map(drop));
        assert_eq!(client.delete(2), Ok(0));
    }
    twin(|| (StoreConfig::unthrottled(N_WORKERS).with_retry(retry()), None), check);
}

/// `Client::write_many` end to end: a corpus streamed in chunks (one
/// put wave and one `register_batch` per chunk) reads back byte-exact,
/// and a chunk carrying an id an earlier chunk registered surfaces
/// `AlreadyExists` without disturbing what already landed.
#[test]
fn write_many_round_trips_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let client = cluster.client();
        const FILES: u64 = 300;
        const CHUNK: usize = 128;
        let file = |id: u64| -> (u64, Bytes, Vec<usize>) {
            let k = 1 + id as usize % 3;
            let servers = (0..k).map(|j| (id as usize + j) % N_WORKERS).collect();
            (id, payload(id, 200 + (id as usize * 37) % 900).into(), servers)
        };
        let corpus: Vec<_> = (0..FILES).map(file).collect();
        for chunk in corpus.chunks(CHUNK) {
            client.write_many(chunk).unwrap();
        }
        let dup = [file(FILES), file(7), file(FILES + 1)];
        assert_eq!(client.write_many(&dup), Err(StoreError::AlreadyExists(7)));
        for (id, data, _) in &corpus {
            assert_eq!(client.read(*id).unwrap(), data[..], "file {id}");
        }
    }
    twin(|| (StoreConfig::unthrottled(N_WORKERS), None), check);
}

/// Nothing a peer can frame may reach an `assert!` on the master: its
/// event loop is one thread, so a panic there ends the metadata plane
/// (and one on the detached rebalance thread strands the caller until
/// its deadline). Each malformed request gets a typed error, and the
/// same server keeps answering afterwards.
#[test]
fn master_outlives_bad_input() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let mc = tcp.master_client();
    let refused = |req: &MetaRequest| {
        let reply = mc.roundtrip(req).unwrap();
        assert!(matches!(reply, MetaReply::Err(StoreError::Codec(_))), "{req:?} got {reply:?}");
    };
    let rebalance = MetaRequest::Rebalance { bandwidth: 1e9, lambda: 100.0, seed: 42 };
    refused(&MetaRequest::Register { id: 1, size: 10, servers: vec![] });
    refused(&MetaRequest::RegisterBatch { entries: vec![(2, 10, vec![0]), (3, 10, vec![])] });
    refused(&MetaRequest::ApplyPlacement { id: 1, servers: vec![] });
    // Nothing is registered (the batch above was refused whole).
    refused(&rebalance);

    let (_, active, files, _) = mc.status().unwrap();
    assert!(active && files == 0);
    mc.register(1, 10, vec![0, 1]).unwrap();
    assert_eq!(mc.locate(1), Ok((10, vec![0, 1])));

    // A registered file but nobody alive to plan against.
    (0..N_WORKERS).for_each(|w| mc.mark_dead(w));
    refused(&rebalance);
    assert_eq!(mc.peek(1), Ok((10, vec![0, 1])));
}

/// A wire client (its own `MasterClient` stub over the cluster's
/// transport) with `files` one-partition files written, file `id` on
/// worker `id % N_WORKERS`.
fn reporting_client(tcp: &TcpCluster, files: u64) -> (Arc<MasterClient>, Client) {
    let meta = Arc::new(tcp.master_client());
    let client = Client::new(meta.clone(), tcp.transport().clone());
    for id in 0..files {
        client.write(id, &payload(id, 1_000), &[id as usize % N_WORKERS]).unwrap();
    }
    (meta, client)
}

fn heartbeats(master: &Master) -> Vec<u64> {
    (0..N_WORKERS).map(|w| master.heartbeats(w)).collect()
}

/// A reply is not a health report: only the supervisor's probe tells
/// the master a worker lives, so a client reading from a healthy fleet
/// sends none.
#[test]
fn a_healthy_fleets_reads_send_no_health_report() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let (_, client) = reporting_client(&tcp, 8);
    for round in 0..25 {
        for id in 0..8u64 {
            assert_eq!(client.read(id).unwrap(), payload(id, 1_000), "round {round} file {id}");
        }
    }
    client.flush_accesses();
    assert_eq!(heartbeats(tcp.master()), vec![0; N_WORKERS]);
    assert!((0..8).all(|id| tcp.master().accesses(id) == 25), "every read is counted once");
}

/// An access report that meets a fenced master follows its redirect:
/// the successor counts the reads and the deposed master counts none.
#[test]
fn flush_accesses_follows_the_redirect_and_the_successor_counts_the_reads() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let (meta, client) = reporting_client(&tcp, 4);
    let successor = Arc::new(Master::new());
    for (id, servers) in tcp.master().placements() {
        successor.register(id, 1_000, servers).unwrap();
    }
    let server = MasterServer::spawn(successor.clone(), "127.0.0.1:0", tcp.worker_addrs()).unwrap();
    tcp.master().self_fence(Some(server.addr().to_string()));

    for _ in 0..5 {
        (0..4u64).for_each(|id| drop(client.read(id).unwrap()));
    }
    // Reads of cached placements call the master only to report their
    // accesses: the report is what meets the redirect.
    client.flush_accesses();
    assert_eq!(meta.addr(), server.addr(), "the stub never followed the redirect");
    assert!((0..4).all(|id| successor.accesses(id) == 5), "the successor lost reads");
    assert!((0..4).all(|id| tcp.master().accesses(id) == 0), "the fenced master counted reads");
    meta.shutdown_server().unwrap();
    server.join();
}

/// A transport that holds every reply it has received until the test
/// lets it go: the order "a worker answered, then it died, then its
/// answer was read" made by hand.
#[derive(Debug)]
struct HeldReplies {
    inner: Arc<dyn Transport>,
    held: Mutex<Vec<(Sender<Reply>, Reply)>>,
}

impl HeldReplies {
    /// Waits until `n` replies are held.
    fn await_held(&self, n: usize) {
        await_until("the held reply", Duration::from_secs(10), || self.held.lock().len() >= n);
    }

    /// Hands every held reply to its reader.
    fn release(&self) {
        for (route, reply) in self.held.lock().drain(..) {
            let _ = route.send(reply);
        }
    }
}

impl Transport for HeldReplies {
    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    fn submit_landing(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        reqs.into_iter()
            .map(|(worker, req, _)| {
                let reply = self.inner.call(worker, req, Duration::from_secs(5))?;
                let (route, rx) = bounded(1);
                self.held.lock().push((route, reply));
                Ok(rx)
            })
            .collect()
    }
}

/// A reply a worker sent before its `Shutdown`, read after the master
/// declared it dead, leaves it dead: clients never revive a worker.
/// Only the supervisor's probe does, and only one that answers it — a
/// worker the master declared dead while it still ran comes back on
/// the next tick, under a fresh epoch.
#[test]
fn a_late_reply_leaves_a_killed_worker_dead_until_a_probe_readopts_it() {
    let killed = chaos_seed() as usize % N_WORKERS;
    let falsely_dead = (killed + 1) % N_WORKERS;
    let check = |cluster: &StoreCluster| {
        let writer = cluster.client();
        for w in [killed, falsely_dead] {
            writer.write(w as u64, &payload(w as u64, 1_000), &[w]).unwrap();
        }
        let held = Arc::new(HeldReplies { inner: cluster.transport().clone(), held: Mutex::default() });
        let reader = Client::new(cluster.meta(), held.clone());
        std::thread::scope(|s| {
            let read = s.spawn(|| reader.read(killed as u64));
            held.await_held(1);
            cluster.kill_worker(killed);
            held.release();
            assert_eq!(read.join().unwrap().unwrap(), payload(killed as u64, 1_000));
        });
        let master = cluster.master();
        assert!(!master.is_alive(killed), "a reply from before the Shutdown revived the worker");

        master.mark_dead(falsely_dead);
        let before = master.worker_epochs(N_WORKERS)[falsely_dead];
        std::thread::scope(|s| {
            let read = s.spawn(|| reader.read(falsely_dead as u64));
            held.await_held(1);
            held.release();
            assert_eq!(read.join().unwrap().unwrap(), payload(falsely_dead as u64, 1_000));
        });
        assert!(!master.is_alive(falsely_dead), "a client's read revived the worker");

        let cfg = cluster.config();
        let supervisor = SupervisorCore::new(
            master.clone(),
            cluster.transport().clone(),
            None,
            SupervisorConfig::enabled(),
            cfg.retry,
        );
        supervisor.tick();
        let after = master.worker_epochs(N_WORKERS)[falsely_dead];
        assert!(master.is_alive(falsely_dead), "the probe did not re-adopt the running worker");
        assert!(after > before, "re-adopted under epoch {after}, not past {before}");
        assert!(!master.is_alive(killed), "the probe revived a worker that never answered");
        (master.live_workers(N_WORKERS).len(), after - before)
    };
    let (in_process, over_tcp) = twin(|| (StoreConfig::unthrottled(N_WORKERS), None), check);
    assert_eq!(in_process, (N_WORKERS - 1, 1));
    assert_eq!(over_tcp, in_process);
}

/// Total resident partitions across the fleet.
fn resident(cluster: &StoreCluster) -> usize {
    cluster.worker_stats().unwrap().iter().map(|s| s.resident_parts).sum()
}

/// A one-job plan moving file index 0 from `old` onto `new`.
fn one_job(old: Vec<usize>, new: Vec<usize>) -> RepartitionPlan {
    RepartitionPlan {
        jobs: vec![RepartitionJob {
            file: 0,
            executor: old[0],
            old_servers: old,
            new_servers: new.clone(),
        }],
        new_map: PartitionMap::new(vec![new], N_WORKERS),
        unchanged: vec![],
    }
}

/// A repartition and an online adjust each leave an integrity row of the
/// new placement's width, so a verifying client verifies the moved file
/// rather than nothing.
#[test]
fn every_layout_move_records_the_new_integrity_row_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let client = cluster.client().with_verify(true);
        let (meta, transport) = (cluster.meta(), cluster.transport());
        client.write(1, &payload(1, 9_000), &[0]).unwrap();
        client.write(2, &payload(2, 7_000), &[1]).unwrap();
        run_parallel(&one_job(vec![0], vec![1, 2, 3]), &[1], meta.as_ref(), transport.as_ref())
            .unwrap();
        let plan = plan_adjust(7_000, &[1], 3, &[0.0; N_WORKERS]);
        execute_adjust(2, &plan, meta.as_ref(), transport.as_ref()).unwrap();
        for (id, len) in [(1, 9_000), (2, 7_000)] {
            let row = cluster.master().integrity(id).expect("a moved file keeps a row");
            assert_eq!(row.sums.len(), 3, "file {id}");
            assert_eq!(client.read_quiet(id).unwrap(), payload(id, len), "file {id}");
        }
    }
    twin(|| (StoreConfig::unthrottled(N_WORKERS), None), check);
}

/// A repartition of a file written with parity leaves no parity
/// partition behind: the new row names none, so the move discards the old
/// ones, and the fleet holds exactly the new layout's partitions.
#[test]
fn a_layout_move_discards_the_files_old_parity_on_both_transports() {
    fn check(cluster: &StoreCluster) -> usize {
        let client = cluster.client().with_parity(1);
        let (meta, transport) = (cluster.meta(), cluster.transport());
        let data = payload(1, 9_000);
        client.write(1, &data, &[0]).unwrap();
        assert_eq!(resident(cluster), 2, "one data and one parity partition");
        run_parallel(&one_job(vec![0], vec![2, 3]), &[1], meta.as_ref(), transport.as_ref())
            .unwrap();
        assert_eq!(client.read_quiet(1).unwrap(), data);
        resident(cluster)
    }
    let (in_process, over_tcp) = twin(|| (StoreConfig::unthrottled(N_WORKERS), None), check);
    assert_eq!(in_process, 2, "old parity partitions outlived the move");
    assert_eq!(over_tcp, in_process);
}

/// A pull source that dies mid-build (its first range reply is lost)
/// fails the adjust with nothing staged: the fleet holds the old
/// `k` partitions and the file reads byte-exact.
#[test]
fn an_adjust_whose_source_dies_mid_build_stages_nothing_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let client = cluster.client();
        let data = payload(1, 10_000);
        client.write(1, &data, &[0]).unwrap();
        let plan = plan_adjust(10_000, &[0], 2, &[0.0; N_WORKERS]);
        let (meta, transport) = (cluster.meta(), cluster.transport());
        // A lost reply is its worker's death to the caller.
        assert_eq!(
            execute_adjust(1, &plan, meta.as_ref(), transport.as_ref()),
            Err(StoreError::WorkerDown(0))
        );
        assert_eq!(resident(cluster), 1, "a staged partition outlived the failed build");
        assert_eq!(cluster.master().peek(1).unwrap().1, vec![0]);
        assert_eq!(client.read_quiet(1).unwrap(), data);
    }
    // Worker 0's op 0 is the write; op 1 is the first range pull.
    let lost = || FaultPlan::none().lose_reply(0, 1);
    let cfg = || StoreConfig::unthrottled(N_WORKERS).with_faults(lost());
    twin(|| (cfg(), None), check);
}

/// An online adjust on a fleet with a background carve-out pays for its
/// moves out of the background share, like every layout mover.
#[test]
fn an_adjust_rides_the_background_share_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let client = cluster.client();
        client.write(1, &payload(1, 100_000), &[0]).unwrap();
        let before = cluster.worker_stats().unwrap();
        let plan = plan_adjust(100_000, &[0], 3, &[0.0; N_WORKERS]);
        execute_adjust(1, &plan, cluster.meta().as_ref(), cluster.transport().as_ref()).unwrap();
        let after = cluster.worker_stats().unwrap();
        let delta = |f: fn(&spcache_store::WorkerStats) -> u64| -> u64 {
            after.iter().zip(&before).map(|(a, b)| f(a) - f(b)).sum()
        };
        let (served, background) = (delta(|s| s.bytes_served), delta(|s| s.bytes_background));
        assert!(served > 0, "the adjust pulled nothing");
        assert!(background >= served, "{background} background bytes for {served} pulled");
    }
    let cfg = || StoreConfig::throttled(N_WORKERS, 1e9).with_background_fraction(0.5);
    twin(|| (cfg(), None), check);
}

/// Workers that heard from a newer master bounce every move of the
/// deposed one: its repartition ends in `StaleEpoch`, and the file keeps
/// its placement and bytes.
#[test]
fn a_deposed_masters_repartition_moves_nothing_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        let client = cluster.client();
        let data = payload(1, 8_000);
        client.write(1, &data, &[0]).unwrap();
        let (master, transport) = (cluster.master(), cluster.transport());
        let successor = Request::SetMasterEpoch(master.master_epoch() + 1);
        for w in 0..N_WORKERS {
            let announced = transport.call(w, successor.clone(), Duration::from_secs(5));
            assert_eq!(announced, Ok(Reply::Done));
        }
        let plan = one_job(vec![0], vec![1, 2]);
        let moved = run_parallel(&plan, &[1], master.as_ref(), transport.as_ref());
        assert!(matches!(moved, Err(StoreError::StaleEpoch(_))), "got {moved:?}");
        assert_eq!(master.peek(1).unwrap().1, vec![0]);
        assert_eq!(client.read_quiet(1).unwrap(), data);
        assert_eq!(resident(cluster), 1);
    }
    twin(|| (StoreConfig::unthrottled(N_WORKERS), None), check);
}

/// A range whose end runs past `u64::MAX` is clamped to the partition,
/// and the worker serves on.
#[test]
fn a_range_running_past_u64_max_is_clamped_on_both_transports() {
    fn check(cluster: &StoreCluster) {
        cluster.client().write(1, b"hello", &[0]).unwrap();
        let transport = cluster.transport();
        let range = Request::GetRange { key: PartKey::new(1, 0), offset: 1, len: u64::MAX };
        let reply = transport.call(0, range, Duration::from_secs(5)).unwrap();
        assert_eq!(reply.bytes().unwrap().as_ref(), b"ello");
        assert!(transport.call(0, Request::Ping, Duration::from_secs(5)).is_ok());
    }
    twin(|| (StoreConfig::unthrottled(N_WORKERS), None), check);
}
