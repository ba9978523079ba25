//! `TcpTransport` driven by the threads that wait on it: a sequential
//! call crosses no thread inside the transport, concurrent callers share
//! a shard byte-exactly, work no caller waits for still completes, a
//! caller whose reply is slow never holds up another's, and replies no
//! caller drives — a wait over two shards, a route received from
//! directly, a follower behind a thread that only submits — are routed
//! at their first event.
//!
//! Every test here runs alone (`serial`): the no-hand-off test counts
//! the context switches of the transport's `spcache-net-io-*` standby
//! thread, and no other transport's may exist meanwhile.

use crossbeam::channel::Receiver;
use spcache_net::{TcpTransport, WorkerServer};
use spcache_store::fault::{FaultLog, FaultPlan};
use spcache_store::rpc::{PartKey, Reply, Request};
use spcache_store::transport::Transport;
use spcache_store::StoreConfig;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

mod common;
use common::{await_until, payload};

const WAIT: Duration = Duration::from_secs(5);

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `n` in-process worker servers of one I/O shard each, scripted by
/// `faults`, and their addresses.
fn workers(n: usize, faults: FaultPlan) -> (Vec<WorkerServer>, Vec<SocketAddr>) {
    let cfg = StoreConfig::unthrottled(n).with_faults(faults);
    let log = Arc::new(FaultLog::new());
    let servers: Vec<WorkerServer> = (0..n)
        .map(|id| WorkerServer::spawn(id, "127.0.0.1:0", &cfg, Arc::clone(&log), 1, None).unwrap())
        .collect();
    let addrs = servers.iter().map(WorkerServer::addr).collect();
    (servers, addrs)
}

fn put(key: PartKey, data: Vec<u8>) -> Request {
    Request::Put {
        key,
        data: data.into(),
        sum: 0,
    }
}

fn get(key: PartKey) -> Request {
    Request::Get { key }
}

/// The bytes of a `Data` reply.
fn data(reply: Reply) -> Vec<u8> {
    match reply {
        Reply::Data(bytes) => bytes.to_vec(),
        other => panic!("expected data, got {other:?}"),
    }
}

/// Voluntary plus involuntary context switches of this process's
/// threads whose name starts with `prefix`.
#[cfg(target_os = "linux")]
fn context_switches(prefix: &str) -> (usize, u64) {
    let mut threads = 0;
    let mut switches = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if !comm.starts_with(prefix) {
            continue;
        }
        threads += 1;
        let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
        switches += status
            .lines()
            .filter(|l| l.contains("ctxt_switches:"))
            .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
            .sum::<u64>();
    }
    (threads, switches)
}

/// A thread name is cut to 15 bytes: `spcache-net-io-0` reads
/// `spcache-net-io-`.
#[cfg(target_os = "linux")]
const STANDBY: &str = "spcache-net-io";

#[cfg(target_os = "linux")]
#[test]
fn sequential_calls_wake_no_standby_thread() {
    let _alone = serial();
    let (_servers, addrs) = workers(1, FaultPlan::none());
    let t = TcpTransport::connect_sharded(addrs, 1);
    let key = PartKey::new(1, 0);
    let want = payload(1, 4096);
    assert_eq!(t.call(0, put(key, want.clone()), WAIT), Ok(Reply::Done));
    // A thread takes its name once it runs.
    await_until("the standby thread runs", WAIT, || context_switches(STANDBY).0 == 1);
    let (_, before) = context_switches(STANDBY);
    for _ in 0..1_000 {
        assert_eq!(data(t.call(0, get(key), WAIT).unwrap()), want);
    }
    let (_, after) = context_switches(STANDBY);
    // A hand-off to a loop thread costs about two switches per call.
    assert!(
        after - before < 50,
        "the standby thread switched {} times over 1 000 calls",
        after - before
    );
}

#[test]
fn four_threads_share_one_shard_byte_exactly() {
    let _alone = serial();
    let (_servers, addrs) = workers(2, FaultPlan::none());
    let t = Arc::new(TcpTransport::connect_sharded(addrs, 1));
    let callers: Vec<_> = (0..4u64)
        .map(|c| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    let id = c * 1_000 + i;
                    let worker = (id % 2) as usize;
                    let key = PartKey::new(id, 0);
                    let want = payload(id, 64 + (i as usize % 7) * 300);
                    assert_eq!(t.call(worker, put(key, want.clone()), WAIT), Ok(Reply::Done));
                    assert_eq!(data(t.call(worker, get(key), WAIT).unwrap()), want, "file {id}");
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().unwrap();
    }
}

#[test]
fn a_put_whose_receiver_is_dropped_still_lands() {
    let _alone = serial();
    let (_servers, addrs) = workers(1, FaultPlan::none());
    let small = PartKey::new(1, 0);
    // More than both socket buffers: the submitter's flush leaves most of
    // it behind, and no caller waits for its reply.
    let large = PartKey::new(2, 0);
    let big = payload(2, 24 << 20);
    let t = TcpTransport::connect_sharded(addrs.clone(), 1);
    drop(t.submit(0, put(small, payload(1, 4096))).unwrap());
    drop(t.submit(0, put(large, big.clone())).unwrap());
    // Read back through a transport of its own: `t` makes no further
    // call.
    let reader = TcpTransport::connect_sharded(addrs, 1);
    await_until("both dropped puts land", WAIT, || {
        matches!(reader.call(0, get(large), WAIT), Ok(Reply::Data(_)))
    });
    assert_eq!(data(reader.call(0, get(small), WAIT).unwrap()), payload(1, 4096));
    assert!(data(reader.call(0, get(large), WAIT).unwrap()) == big);
    drop(t);
}

/// Worker 0 holds its first data reply `slow`; worker 1 answers at once.
/// Both live on the transport's one shard.
fn slow_and_fast(slow: Duration) -> (Vec<WorkerServer>, Arc<TcpTransport>) {
    let (servers, addrs) = workers(2, FaultPlan::none().delay_frame(0, 0, slow));
    let t = TcpTransport::connect_sharded(addrs, 1).with_deadline(Duration::from_secs(2));
    (servers, Arc::new(t))
}

#[test]
fn a_fast_call_does_not_wait_behind_a_slow_driver() {
    let _alone = serial();
    let slow = Duration::from_millis(200);
    let (_servers, t) = slow_and_fast(slow);
    // Connect both workers first, so the timings below hold no dial.
    assert!(matches!(t.call(0, Request::Ping, WAIT), Ok(Reply::Pong { .. })));
    assert!(matches!(t.call(1, Request::Ping, WAIT), Ok(Reply::Pong { .. })));
    let key = PartKey::new(7, 0);
    let driver = {
        let t = Arc::clone(&t);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let reply = t.call(0, put(key, payload(7, 4096)), WAIT);
            (reply, t0.elapsed())
        })
    };
    // Thread A now drives the shard, waiting for its held reply.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    assert_eq!(t.call(1, put(key, payload(8, 4096)), WAIT), Ok(Reply::Done));
    let fast = t0.elapsed();
    let (reply, waited) = driver.join().unwrap();
    assert_eq!(reply, Ok(Reply::Done));
    assert!(waited >= slow, "the slow reply came back after {waited:?}");
    assert!(waited < WAIT, "the slow reply took {waited:?}");
    assert!(fast < slow - Duration::from_millis(50), "the fast call took {fast:?}");
}

#[test]
fn a_follower_whose_driver_returns_first_still_gets_its_reply() {
    let _alone = serial();
    let slow = Duration::from_millis(300);
    let (_servers, t) = slow_and_fast(slow);
    assert!(matches!(t.call(0, Request::Ping, WAIT), Ok(Reply::Pong { .. })));
    assert!(matches!(t.call(1, Request::Ping, WAIT), Ok(Reply::Pong { .. })));
    // A submits its slow request and waits on its channel without ever
    // driving; B's call drives the shard, and returns first.
    let follower = t.submit(0, get(PartKey::new(9, 0))).unwrap();
    let t0 = Instant::now();
    assert!(matches!(t.call(1, Request::Ping, WAIT), Ok(Reply::Pong { .. })));
    let reply = follower.recv_timeout(WAIT).expect("nobody drove the follower's reply");
    assert!(matches!(reply, Reply::Err(_)), "a get of a missing key, got {reply:?}");
    assert!(t0.elapsed() < slow + Duration::from_secs(1));
}

/// The median of `samples`.
fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Waits through `ready` for every route of a fan-out, as a join does,
/// and returns the replies in route order.
fn join(t: &TcpTransport, workers: &[usize], routes: Vec<Receiver<Reply>>) -> Vec<Reply> {
    let until = Instant::now() + WAIT;
    let mut replies: Vec<Option<Reply>> = routes.iter().map(|_| None).collect();
    while replies.iter().any(Option::is_none) {
        let open: Vec<usize> = (0..routes.len()).filter(|&i| replies[i].is_none()).collect();
        let waiting: Vec<(usize, &Receiver<Reply>)> =
            open.iter().map(|&i| (workers[i], &routes[i])).collect();
        let ready = t.ready(&waiting, until).expect("a fan-out reply missed its deadline");
        if let Ok(reply) = routes[open[ready]].try_recv() {
            replies[open[ready]] = Some(reply);
        }
    }
    replies.into_iter().map(Option::unwrap).collect()
}

#[test]
fn a_fan_out_across_two_shards_is_routed_at_its_first_event() {
    let _alone = serial();
    let (_servers, addrs) = workers(2, FaultPlan::none());
    // Reaping, the standby's other wake, would come only after seconds.
    let t = TcpTransport::connect_sharded(addrs, 2).with_deadline(Duration::from_secs(10));
    assert_eq!(t.io_shards(), 2);
    let keys = [PartKey::new(1, 0), PartKey::new(2, 0)];
    let wants = [payload(1, 4096), payload(2, 4096)];
    for w in 0..2 {
        assert_eq!(t.call(w, put(keys[w], wants[w].clone()), WAIT), Ok(Reply::Done));
    }
    let gets = || vec![(0, get(keys[0])), (1, get(keys[1]))];
    let (mut calls, mut joins, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..300 {
        // Each shard driven by this thread in turn.
        let t0 = Instant::now();
        for w in 0..2 {
            assert_eq!(data(t.call(w, get(keys[w]), WAIT).unwrap()), wants[w]);
        }
        calls.push(t0.elapsed());
        // One wait over both shards, submitted and waited on as a
        // fork-join read does.
        let t0 = Instant::now();
        let awaited = gets().into_iter().map(|(w, req)| (w, req, None)).collect();
        let replies = join(&t, &[0, 1], t.submit_awaited(awaited).unwrap());
        joins.push(t0.elapsed());
        assert_eq!(replies.into_iter().map(data).collect::<Vec<_>>(), wants);
        // Received from directly, with no `ready` at all.
        let t0 = Instant::now();
        for (w, route) in t.submit_batch(gets()).unwrap().into_iter().enumerate() {
            assert_eq!(data(route.recv_timeout(WAIT).unwrap()), wants[w]);
        }
        raw.push(t0.elapsed());
    }
    let (calls, joins, raw) = (median(calls), median(joins), median(raw));
    eprintln!(
        "two sequential calls {calls:?}, a two-shard join {joins:?}, two direct receives {raw:?}"
    );
    // The standbys route what no caller drives at the shards' first
    // event: a wait over both shards costs no more than driving each in
    // turn, plus a thread hop — never a timer.
    let hop = Duration::from_micros(100);
    assert!(joins < calls + hop, "a two-shard join took {joins:?}, two calls {calls:?}");
    assert!(raw < calls + hop, "two direct receives took {raw:?}, two calls {calls:?}");
}

#[test]
fn a_follower_behind_a_submitter_that_never_waits_is_still_driven() {
    let _alone = serial();
    let (_servers, addrs) = workers(1, FaultPlan::none());
    // Reaping, the standby's other wake, would come only after the
    // calls' own timeout.
    let t = TcpTransport::connect_sharded(addrs, 1).with_deadline(Duration::from_secs(10));
    let t = Arc::new(t);
    let key = PartKey::new(1, 0);
    let want = payload(1, 4096);
    assert_eq!(t.call(0, put(key, want.clone()), WAIT), Ok(Reply::Done));
    let stop = Arc::new(AtomicBool::new(false));
    // Holds the shard only to queue and flush its puts, and never waits
    // for their replies (a read repair's shape): it drops a route once
    // whoever drives has answered it, and keeps at most 64 in flight so
    // the calls below queue behind no unbounded backlog.
    let submitter = {
        let (t, stop) = (Arc::clone(&t), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut routes = VecDeque::new();
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if routes.len() == 64 {
                    if routes.front().is_some_and(Receiver::is_empty) {
                        std::thread::yield_now();
                        continue;
                    }
                    routes.pop_front();
                }
                n += 1;
                let key = PartKey::new(2 + n % 64, 0);
                routes.push_back(t.submit(0, put(key, payload(n, 4096))).unwrap());
            }
            n
        })
    };
    let mut took = Vec::new();
    for _ in 0..2_000 {
        let t0 = Instant::now();
        assert_eq!(data(t.call(0, get(key), WAIT).unwrap()), want);
        took.push(t0.elapsed());
    }
    stop.store(true, Ordering::Relaxed);
    let puts = submitter.join().unwrap();
    took.sort_unstable();
    let slowest = took[took.len() - 1];
    eprintln!(
        "2 000 calls beside {puts} dropped puts: p50 {:?} p99 {:?} max {slowest:?}",
        took[1000], took[1980]
    );
    assert!(slowest < Duration::from_secs(1), "a call waited {slowest:?}");
}

#[test]
fn an_awaited_request_its_caller_stops_waiting_for_is_handed_over() {
    let _alone = serial();
    let (_servers, addrs) = workers(1, FaultPlan::none());
    // Reaping, the standby's other wake, would come only after the
    // receive below gave up.
    let t = TcpTransport::connect_sharded(addrs, 1).with_deadline(Duration::from_secs(10));
    let key = PartKey::new(3, 0);
    let put = (0, put(key, payload(3, 4096)), None);
    let route = t.submit_awaited(vec![put]).unwrap().pop().unwrap();
    // The caller stops waiting, as a dropped join does: one pass with a
    // deadline already past.
    assert_eq!(t.ready(&[(0, &route)], Instant::now()), None);
    assert_eq!(route.recv_timeout(WAIT), Ok(Reply::Done), "nobody drove the put");
    assert_eq!(data(t.call(0, get(key), WAIT).unwrap()), payload(3, 4096));
}
