//! End-to-end tests of the loopback-TCP cluster: byte-exact parity with
//! the in-process transport, repartition over the wire, wire-level fault
//! injection, and graceful drain-then-exit shutdown.

use bytes::Bytes;
use spcache_net::master_net::{MetaReply, MetaRequest};
use spcache_net::{MasterClient, MasterServer, TcpCluster};
use spcache_store::backing::UnderStore;
use spcache_store::fault::{FaultAction, FaultLog};
use spcache_store::master::{Master, MetaService};
use spcache_store::metalog::{decode_records, MetaLog};
use spcache_store::rpc::{PartKey, Reply, Request, StoreError, WorkerStats};
use spcache_store::transport::Transport;
use spcache_store::{Client, FaultPlan, StoreCluster, StoreConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{chaos_seed, N_WORKERS, payload, retry};


/// The acceptance bar: the same workload against the in-process channel
/// transport and against real loopback sockets returns identical bytes.
#[test]
fn tcp_reads_match_in_process_reads_byte_for_byte() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let chan = StoreCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let tcp_client = tcp.client();
    let chan_client = chan.client();

    for id in 0..12u64 {
        // Ragged sizes straddle the partition boundary math.
        let data = payload(id, 3_000 + (id as usize * 997) % 9_000);
        let servers = vec![id as usize % N_WORKERS, (id as usize + 1) % N_WORKERS];
        tcp_client.write(id, &data, &servers).unwrap();
        chan_client.write(id, &data, &servers).unwrap();
    }
    for id in 0..12u64 {
        let over_tcp = tcp_client.read(id).unwrap();
        let in_process = chan_client.read(id).unwrap();
        assert_eq!(over_tcp, in_process, "file {id} differs across transports");
        assert_eq!(over_tcp, payload(id, 3_000 + (id as usize * 997) % 9_000));
    }
    tcp.shutdown();
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
    tcp.shutdown();
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
    tcp.shutdown();
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
    tcp.shutdown();
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
    tcp.shutdown();
}

/// A degraded `k = 3, r = 1` read costs exactly `k + r` worker requests:
/// the erasure widens the attempt with the parity fetch instead of
/// starting a second `k + r` fan-out, so each surviving data shard is
/// fetched once. Same count over channels and over sockets.
#[test]
fn degraded_read_costs_k_plus_r_gets_on_both_transports() {
    fn check(client: &Client, transport: &dyn Transport, stats: &dyn Fn() -> Vec<WorkerStats>) {
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
    let chan = StoreCluster::spawn(cfg());
    check(&chan.client(), chan.transport().as_ref(), &|| chan.worker_stats().unwrap());
    let tcp = TcpCluster::spawn(cfg());
    check(&tcp.client(), tcp.transport().as_ref(), &|| tcp.worker_stats().unwrap());
    tcp.shutdown();
}

/// A control request inside a stamp is a ~35-byte frame anyone can
/// send. It gets a typed, permanent refusal — from the decoder over a
/// socket, from the worker itself when hand-built in process — fires no
/// fault and counts no op, and the worker keeps serving.
#[test]
fn stamped_control_requests_are_refused_on_both_transports() {
    fn check(transport: &dyn Transport, faults: &FaultLog) {
        let wait = Duration::from_secs(5);
        for bad in [
            Request::Fenced { epoch: 1, master: 0, inner: Box::new(Request::Ping) },
            Request::Background { inner: Box::new(Request::Stats) },
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
    let chan = StoreCluster::spawn(cfg());
    check(chan.transport().as_ref(), chan.fault_log());
    let tcp = TcpCluster::spawn(cfg());
    check(tcp.transport().as_ref(), tcp.fault_log());
    tcp.shutdown();
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
    tcp.shutdown();
}

/// Placements reach the client from callers and from the master over
/// the wire; an empty one, or one naming a worker outside the fleet, is
/// a typed permanent error on every path — never an index panic inside
/// a transport.
#[test]
fn bad_placements_are_typed_errors_on_both_transports() {
    fn check(client: &Client, master: &dyn MetaService) {
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
        bad(client.read_scattered(2).map(drop));
        assert_eq!(client.delete(2), Ok(0));
    }
    let chan = StoreCluster::spawn(StoreConfig::unthrottled(N_WORKERS).with_retry(retry()));
    check(&chan.client(), chan.master().as_ref());
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS).with_retry(retry()));
    check(&tcp.client(), &tcp.master_client());
    tcp.shutdown();
}

/// `Client::write_many` end to end: a corpus streamed in chunks (one
/// put wave and one `register_batch` per chunk) reads back byte-exact,
/// and a chunk carrying an id an earlier chunk registered surfaces
/// `AlreadyExists` without disturbing what already landed.
#[test]
fn write_many_round_trips_on_both_transports() {
    fn check(client: &Client) {
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
    let chan = StoreCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    check(&chan.client());
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    check(&tcp.client());
    tcp.shutdown();
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
    tcp.shutdown();
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

/// The master's suspicion count of `w` (its image drops trailing
/// all-clear rows).
fn suspicion(master: &Master, w: usize) -> u32 {
    master.image().suspicion.get(w).copied().unwrap_or(0)
}

/// A sign of life is reported when it is news: a client reading from a
/// healthy fleet tells the master about each worker once, not once per
/// reply.
#[test]
fn a_healthy_fleet_is_reported_once_per_worker() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let (_, client) = reporting_client(&tcp, 8);
    for round in 0..25 {
        for id in 0..8u64 {
            assert_eq!(client.read(id).unwrap(), payload(id, 1_000), "round {round} file {id}");
        }
    }
    // 8 acks and 200 replies landed; nothing changed after the first
    // from each worker.
    assert_eq!(heartbeats(tcp.master()), vec![1; N_WORKERS]);
    tcp.shutdown();
}

/// Every health transition a reporter observes still reaches the
/// master: the stub's own suspicion of a worker makes that worker's
/// next good reply news again — once.
#[test]
fn a_suspected_worker_is_cleared_by_its_next_good_reply() {
    const W: usize = 2;
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let (meta, client) = reporting_client(&tcp, 4);
    assert_eq!(heartbeats(tcp.master()), vec![1; N_WORKERS]);

    assert_eq!(meta.suspect(W), 1);
    assert_eq!(suspicion(tcp.master(), W), 1);
    for _ in 0..5 {
        (0..4u64).for_each(|id| drop(client.read(id).unwrap()));
    }
    assert_eq!(suspicion(tcp.master(), W), 0, "the good reply never reached the master");
    let mut expected = vec![1; N_WORKERS];
    expected[W] = 2;
    assert_eq!(heartbeats(tcp.master()), expected, "exactly one MarkAlive, for worker {W}");

    // Dead by this reporter's word, alive again by its next good reply;
    // dead by somebody else's word, found out by asking.
    meta.mark_dead(W);
    assert!(!tcp.master().is_alive(W));
    client.read(W as u64).unwrap();
    assert!(tcp.master().is_alive(W));
    tcp.master().mark_dead(W);
    client.read(W as u64).unwrap();
    assert!(!tcp.master().is_alive(W), "nothing told this reporter; nothing to report");
    assert_eq!(meta.live_workers(N_WORKERS), vec![0, 1, 3]);
    client.read(W as u64).unwrap();
    assert!(tcp.master().is_alive(W));
    tcp.shutdown();
}

/// A successor master has heard nothing from this client: after a
/// redirect the next reply from every worker is reported, once.
#[test]
fn a_redirect_makes_every_worker_news_again() {
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let (meta, client) = reporting_client(&tcp, 4);
    let successor = Arc::new(Master::new());
    for (id, servers) in tcp.master().placements() {
        successor.register(id, 1_000, servers).unwrap();
    }
    let server = MasterServer::spawn(
        successor.clone(),
        "127.0.0.1:0",
        tcp.worker_addrs(),
        Duration::from_secs(2),
    )
    .unwrap();
    tcp.master().self_fence(Some(server.addr().to_string()));

    for _ in 0..5 {
        (0..4u64).for_each(|id| drop(client.read(id).unwrap()));
    }
    assert_eq!(meta.addr(), server.addr(), "the stub never followed the redirect");
    assert_eq!(heartbeats(&successor), vec![1; N_WORKERS]);
    assert_eq!(heartbeats(tcp.master()), vec![1; N_WORKERS], "the fenced master took reports");
    meta.shutdown_server().unwrap();
    server.join();
    tcp.shutdown();
}

/// For a single reporter the filter is invisible in the journal: a
/// script of health calls through the stub journals, record for record,
/// what the same calls applied one by one to a master do.
#[test]
fn one_reporters_journal_is_the_unfiltered_journal() {
    fn journalled(master: &Master) {
        master.ensure_workers(N_WORKERS);
        master.enable_journal(Arc::new(MetaLog::open(Arc::new(UnderStore::new()))));
    }
    fn script(meta: &dyn MetaService) {
        // Replies (`mark_alive`) far outnumber everything else.
        let mut x = chaos_seed();
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let w = (x >> 33) as usize % N_WORKERS;
            match (x >> 40) % 16 {
                0 | 1 => drop(meta.suspect(w)),
                2 => meta.mark_dead(w),
                3 => drop(meta.register_worker(w)),
                4 => drop(meta.is_alive(w)),
                5 => drop(meta.live_workers(N_WORKERS)),
                _ => meta.mark_alive(w),
            }
        }
    }
    let tcp = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    journalled(tcp.master());
    script(&tcp.master_client());
    let unfiltered = Master::new();
    journalled(&unfiltered);
    script(&unfiltered);

    let through_the_stub = decode_records(&tcp.master().journal_tail(0).1);
    assert!(through_the_stub.len() > 100, "the script journalled {through_the_stub:?}");
    assert_eq!(through_the_stub, decode_records(&unfiltered.journal_tail(0).1));
    assert_eq!(tcp.master().image(), unfiltered.image());
    let said: u64 = heartbeats(tcp.master()).iter().sum();
    let meant: u64 = heartbeats(&unfiltered).iter().sum();
    assert!(said * 2 < meant, "{said} of {meant} reports sent: the filter filters nothing");
    tcp.shutdown();
}
