//! Smoke test of the real `spcached` binaries: a master and four
//! workers as separate OS processes on loopback, driven by a wire
//! client — write, read, repartition, byte-exact, graceful shutdown.

use spcache_net::{MasterClient, TcpTransport};
use spcache_store::client::Client;
use spcache_store::master::MetaService;
use spcache_store::rpc::{PartKey, Reply, Request, Stamp, StoreError};
use spcache_store::transport::Transport;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{N_WORKERS, await_until, payload};

const N_FILES: u64 = 6;
const FILE_LEN: usize = 40_000;

/// A child `spcached` plus the address it printed. Killed on drop so a
/// panicking test never leaks daemons (a leaked child also inherits the
/// harness's stdout pipe and wedges `cargo test`'s output capture).
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(args: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spcached"))
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn spcached");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTEN line");
    let addr = line
        .trim()
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parse listen addr");
    Daemon { child, addr }
}

/// Waits for a daemon to exit on its own, failing the test if
/// `deadline` passes — the drop guard then reaps it.
fn await_exit(daemon: &mut Daemon, what: &str, deadline: Duration) {
    let t0 = Instant::now();
    loop {
        match daemon.child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "{what} exited with {status}");
                return;
            }
            None => {
                assert!(
                    t0.elapsed() <= deadline,
                    "{what} did not exit within {deadline:?} after shutdown"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Spawns a daemon that may transiently fail to bind (a just-killed
/// predecessor's port): retries until the `LISTEN` banner appears or
/// `deadline` passes.
fn respawn_daemon(args: &[&str], deadline: Duration) -> Daemon {
    let t0 = Instant::now();
    loop {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spcached"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spcached");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        if let Some(addr) = line.trim().strip_prefix("LISTEN ") {
            return Daemon {
                child,
                addr: addr.parse().expect("parse listen addr"),
            };
        }
        let _ = child.kill();
        let _ = child.wait();
        assert!(
            t0.elapsed() <= deadline,
            "daemon {args:?} failed to rebind within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn real_processes_serve_a_cluster() {
    let mut workers: Vec<Daemon> = (0..N_WORKERS)
        .map(|id| {
            spawn_daemon(&[
                "worker",
                "--id",
                &id.to_string(),
                "--bind",
                "127.0.0.1:0",
            ])
        })
        .collect();
    let worker_addrs: Vec<SocketAddr> = workers.iter().map(|d| d.addr).collect();
    let workers_flag = worker_addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut master = spawn_daemon(&["master", "--bind", "127.0.0.1:0", "--workers", &workers_flag]);

    let transport = Arc::new(TcpTransport::connect(worker_addrs));
    let meta = Arc::new(MasterClient::connect(master.addr));
    let client = Client::new(meta.clone(), transport.clone());

    // Large files, all crowded onto worker 0; repeated reads build the
    // access counts the repartition tuner keys on.
    for id in 0..N_FILES {
        client.write(id, &payload(id, FILE_LEN), &[0]).unwrap();
    }
    for sweep in 0..5 {
        for id in 0..N_FILES {
            assert_eq!(
                client.read(id).unwrap(),
                payload(id, FILE_LEN),
                "sweep {sweep} file {id} corrupted over the wire"
            );
        }
    }
    client.flush_accesses();

    // One RPC repartitions the crowded cluster; the master process runs
    // Algorithm 1+2 against the worker processes itself.
    let (moved, skipped) = meta.rebalance(1e9, 100.0, 42).unwrap();
    assert!(moved > 0, "crowded placement must move files");
    assert!(skipped.is_empty(), "healthy cluster, nothing skipped");
    for id in 0..N_FILES {
        assert_eq!(
            client.read(id).unwrap(),
            payload(id, FILE_LEN),
            "file {id} corrupted by repartition"
        );
    }

    // Graceful teardown, workers first, then the master.
    for w in 0..N_WORKERS {
        transport
            .call(w, Request::Shutdown, Duration::from_secs(10))
            .unwrap()
            .unit()
            .unwrap();
    }
    meta.shutdown_server().unwrap();
    for (w, d) in workers.iter_mut().enumerate() {
        await_exit(d, &format!("worker {w}"), Duration::from_secs(10));
    }
    await_exit(&mut master, "master", Duration::from_secs(10));
}

/// A flag the daemon does not know, or one missing its value, is
/// refused with the usage text before anything binds — a misspelt
/// `--memory-budget` must not run the worker unbounded. So is a
/// `--meta-dir` that cannot hold a journal.
#[test]
fn a_misspelt_or_valueless_flag_exits_2_without_serving() {
    let worker = ["worker", "--id", "0", "--bind", "127.0.0.1:0"];
    let mut cases: Vec<Vec<&str>> = [&["--memory-budjet", "4194304"][..], &["--memory-budget"], &["--seed", "7"]]
        .iter()
        .map(|bad| worker.iter().chain(*bad).copied().collect())
        .collect();
    let regular_file = std::env::temp_dir().join(format!("spcached-meta-file-{}", std::process::id()));
    std::fs::write(&regular_file, b"").expect("create a regular file");
    let meta_dir = regular_file.to_str().expect("utf-8 temp path");
    let master = ["master", "--bind", "127.0.0.1:0", "--workers", "127.0.0.1:1"];
    cases.push(master.iter().chain(&["--meta-dir", meta_dir]).copied().collect());
    // Retired flags: the standby polls at --heartbeat-ms and takes over
    // after a constant five misses, and the supervisor always runs.
    for retired in [&["--poll-ms", "40"][..], &["--takeover-after", "3"], &["--no-supervisor"]] {
        cases.push(master.iter().chain(retired).copied().collect());
    }
    for args in &cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spcached"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spcached");
        let mut line = String::new();
        let _ = BufReader::new(child.stdout.take().expect("stdout piped")).read_line(&mut line);
        if line.starts_with("LISTEN") {
            let _ = child.kill();
        }
        let status = child.wait().expect("wait for spcached");
        assert!(!line.starts_with("LISTEN"), "{args:?} served: {line:?}");
        assert_eq!(status.code(), Some(2), "{args:?} exited with {status}");
    }
    let _ = std::fs::remove_file(&regular_file);
}

/// A worker daemon is `io_shards + 2` threads: main, the I/O shards and
/// the worker thread, which answers its own socket — no service or pump
/// thread between them.
#[test]
fn worker_daemon_runs_io_shards_plus_two_threads() {
    let mut worker =
        spawn_daemon(&["worker", "--id", "0", "--bind", "127.0.0.1:0", "--io-shards", "1"]);
    // Every thread is spawned before the LISTEN banner is printed.
    let tasks = std::fs::read_dir(format!("/proc/{}/task", worker.child.id()))
        .expect("list daemon threads")
        .count();
    assert_eq!(tasks, 3, "main + 1 I/O shard + worker");

    let transport = TcpTransport::connect(vec![worker.addr]);
    transport
        .call(0, Request::Shutdown, Duration::from_secs(10))
        .unwrap()
        .unit()
        .unwrap();
    await_exit(&mut worker, "worker", Duration::from_secs(10));
}

/// Peak resident set of process `pid` so far, in bytes (`VmHWM`).
fn vm_hwm(pid: u32) -> usize {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .expect("VmHWM line");
    kb.trim().parse::<usize>().expect("VmHWM in kB") * 1024
}

/// Resident bytes are what the worker holds: a stored partition owns
/// exactly its frame's bytes, so a daemon's memory follows the bytes it
/// was sent — for 4 KiB partitions too. (Sliced out of the 64 KiB chunk
/// it was read into, each pinned all of it: 16 x the budget in memory
/// with `resident_bytes` at the budget.)
#[test]
fn worker_memory_tracks_its_budget_for_small_partitions() {
    const BUDGET: usize = 4 << 20;
    const PART: usize = 4096;
    // Everything that is not partitions: allocator slack and the
    // store's per-partition bookkeeping (~100 B a partition), the loop's
    // read buffer, frames in flight.
    const ALLOWANCE: usize = 2 << 20;
    let mut worker = spawn_daemon(&[
        "worker",
        "--id",
        "0",
        "--bind",
        "127.0.0.1:0",
        "--io-shards",
        "1",
        "--memory-budget",
        &BUDGET.to_string(),
    ]);
    let pid = worker.child.id();
    let idle = vm_hwm(pid);
    let transport = TcpTransport::connect(vec![worker.addr]);
    let wait = Duration::from_secs(10);
    // One at a time, as a client writing small files does: each frame
    // arrives alone in its read.
    let feed = |parts: std::ops::Range<usize>| {
        for i in parts {
            let key = PartKey::new(i as u64, 0);
            let put = Request::Put { key, data: payload(i as u64, PART).into(), sum: 0 };
            transport.call(0, put, wait).unwrap().unit().unwrap();
        }
    };
    let stats = || transport.call(0, Request::Stats, wait).and_then(Reply::stats).unwrap();

    // One budget's worth: all of it resident, and the daemon grew by
    // that much.
    let fits = BUDGET / PART;
    feed(0..fits);
    let s = stats();
    assert_eq!((s.resident_bytes, s.evictions), (BUDGET as u64, 0));
    let grew = vm_hwm(pid) - idle;
    eprintln!("{BUDGET} B resident: daemon grew {grew} B over its idle {idle} B");
    assert!(
        grew <= BUDGET + ALLOWANCE,
        "{BUDGET} resident bytes cost the daemon {grew} bytes of memory"
    );

    // Four budgets' worth: the budget holds, and since a standalone
    // daemon's spill tier is its own memory, what it holds in all is
    // what it was fed.
    feed(fits..4 * fits);
    let s = stats();
    assert!(s.resident_bytes <= BUDGET as u64, "resident {} over budget", s.resident_bytes);
    assert_eq!(s.resident_bytes + s.spilled_bytes, 4 * BUDGET as u64);
    let grew = vm_hwm(pid) - idle;
    eprintln!("{} B fed: daemon grew {grew} B", 4 * BUDGET);
    assert!(
        grew <= 4 * BUDGET + ALLOWANCE,
        "{} bytes fed cost the daemon {grew} bytes of memory",
        4 * BUDGET
    );
    // A spilled partition and a resident one both read back.
    for i in [0, 4 * fits - 1] {
        let get = Request::Get { key: PartKey::new(i as u64, 0) };
        let data = transport.call(0, get, wait).and_then(Reply::bytes).unwrap();
        assert_eq!(data[..], payload(i as u64, PART)[..], "partition {i}");
    }

    transport.call(0, Request::Shutdown, wait).unwrap().unit().unwrap();
    await_exit(&mut worker, "worker", Duration::from_secs(10));
}

/// The supervisor's kill-9 story at the OS-process level: SIGKILL a
/// worker daemon mid-flight, watch the master's heartbeat loop declare
/// it dead and bump its fencing epoch, restart it on the same port, and
/// watch it get re-adopted with a *fresh* epoch. Requests fenced with
/// any pre-crash epoch must bounce forever; the re-registered successor
/// serves normally.
#[test]
fn kill_nine_and_restart_reregisters_with_a_fresh_epoch() {
    const VICTIM: usize = 1;
    let mut workers: Vec<Daemon> = (0..2)
        .map(|id| spawn_daemon(&["worker", "--id", &id.to_string(), "--bind", "127.0.0.1:0"]))
        .collect();
    let worker_addrs: Vec<SocketAddr> = workers.iter().map(|d| d.addr).collect();
    let workers_flag = worker_addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut master = spawn_daemon(&[
        "master",
        "--bind",
        "127.0.0.1:0",
        "--workers",
        &workers_flag,
        "--heartbeat-ms",
        "20",
    ]);

    let transport = Arc::new(TcpTransport::connect(worker_addrs.clone()));
    let meta = Arc::new(MasterClient::connect(master.addr));
    let client = Client::new(meta.clone(), transport.clone());

    // The heartbeat loop adopts the fleet: everyone reaches epoch 1.
    await_until("fleet registration", Duration::from_secs(10), || {
        meta.worker_epochs(2) == vec![1, 1]
    });
    client.write(1, &payload(1, FILE_LEN), &[0, VICTIM]).unwrap();
    assert_eq!(client.read(1).unwrap(), payload(1, FILE_LEN));

    // SIGKILL the victim: no goodbye, no flush — the failure detector
    // must notice on its own, kill it on the master and fence its epoch.
    workers[VICTIM].child.kill().expect("SIGKILL worker");
    let victim_addr = workers[VICTIM].addr.to_string();
    await_until("death detection", Duration::from_secs(10), || {
        !meta.is_alive(VICTIM) && meta.worker_epochs(2)[VICTIM] >= 2
    });
    let dead_epoch = meta.worker_epochs(2)[VICTIM];

    // Restart on the same port (the successor of a kill-9'd daemon
    // inherits its address). The supervisor re-adopts it with a fresh
    // epoch strictly above every pre-crash grant.
    workers[VICTIM] = respawn_daemon(
        &["worker", "--id", &VICTIM.to_string(), "--bind", &victim_addr],
        Duration::from_secs(10),
    );
    await_until("re-registration", Duration::from_secs(10), || {
        meta.is_alive(VICTIM) && meta.worker_epochs(2)[VICTIM] > dead_epoch
    });
    let fresh_epoch = meta.worker_epochs(2)[VICTIM];
    // Wait for the fencing grant to be *installed* on the worker, not
    // just recorded on the master.
    await_until("epoch install", Duration::from_secs(10), || {
        transport
            .call(VICTIM, Request::Ping, Duration::from_secs(2))
            .and_then(Reply::pong_epoch)
            .map(|(_, e)| e == fresh_epoch)
            .unwrap_or(false)
    });

    // Every pre-crash epoch is fenced out forever: a zombie client (or a
    // zombie worker replaying its old grant) can neither read nor write.
    let key = PartKey::new(9, 0);
    let fence = |epoch| Stamp { epoch, ..Stamp::default() };
    for stale in 1..fresh_epoch {
        for req in [
            Request::Get { key },
            Request::Put { key, data: payload(9, 64).into(), sum: 0 },
        ] {
            let stamped = req.stamped(fence(stale));
            match transport.call(VICTIM, stamped, Duration::from_secs(2)).unwrap() {
                Reply::Err(StoreError::StaleEpoch(w)) => assert_eq!(w, VICTIM),
                other => panic!("stale epoch {stale} not fenced: {other:?}"),
            }
        }
    }
    // The current grant is accepted — the successor serves.
    transport
        .call(
            VICTIM,
            Request::Put { key, data: payload(9, 64).into(), sum: 0 }.stamped(fence(fresh_epoch)),
            Duration::from_secs(2),
        )
        .unwrap()
        .unit()
        .unwrap();
    let get = Request::Get { key }.stamped(fence(fresh_epoch));
    match transport.call(VICTIM, get, Duration::from_secs(2)) {
        Ok(Reply::Data(d)) => assert_eq!(&d[..], &payload(9, 64)[..]),
        other => panic!("re-registered worker refused a fenced read: {other:?}"),
    }

    // The cluster converged: fresh writes through the ordinary client
    // path land on the successor and read back byte-exact.
    client.write(2, &payload(2, FILE_LEN), &[VICTIM, 0]).unwrap();
    assert_eq!(client.read(2).unwrap(), payload(2, FILE_LEN));

    for w in 0..2 {
        transport
            .call(w, Request::Shutdown, Duration::from_secs(10))
            .unwrap()
            .unit()
            .unwrap();
    }
    meta.shutdown_server().unwrap();
    for (w, d) in workers.iter_mut().enumerate() {
        await_exit(d, &format!("worker {w}"), Duration::from_secs(10));
    }
    await_exit(&mut master, "master", Duration::from_secs(10));
}
