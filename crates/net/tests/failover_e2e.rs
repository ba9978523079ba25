//! Failover e2e against the real `spcached` binaries: an active master
//! journalling to a shared `--meta-dir`, a `--standby` twin tailing its
//! op-log over the wire, and a `SIGKILL` mid-service. The standby must
//! detect the death, recover the full metadata from the journal, take
//! over under a bumped master epoch, and serve every pre-kill file
//! byte-identically. A restart of the dead master on its old port must
//! come up fenced and redirect clients to the successor.

use spcache_net::{MasterClient, TcpTransport};
use spcache_store::client::Client;
use spcache_store::master::MetaService;
use spcache_store::rpc::Request;
use spcache_store::transport::Transport;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{await_until, payload};

const N_WORKERS: usize = 3;
const N_FILES: u64 = 5;
const FILE_LEN: usize = 30_000;

/// A child `spcached` plus its stdout reader (standbys print more lines
/// after the first). Killed on drop so a panicking test never leaks
/// daemons.
struct Daemon {
    child: Child,
    addr: Option<SocketAddr>,
    lines: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spcached"))
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn spcached");
        let lines = BufReader::new(child.stdout.take().expect("stdout piped"));
        Daemon { child, addr: None, lines }
    }

    /// Reads the next stdout line and asserts its `PREFIX ` tag,
    /// returning the rest.
    fn expect_line(&mut self, prefix: &str) -> String {
        let mut line = String::new();
        self.lines.read_line(&mut line).expect("read banner line");
        line.trim()
            .strip_prefix(prefix)
            .unwrap_or_else(|| panic!("expected {prefix:?} banner, got {line:?}"))
            .trim()
            .to_string()
    }

    /// Reads the `LISTEN <addr>` banner and records the address.
    fn listen(&mut self) -> SocketAddr {
        let addr = self.expect_line("LISTEN").parse().expect("parse listen addr");
        self.addr = Some(addr);
        addr
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a daemon that may transiently fail to bind (a just-killed
/// predecessor's port): retries until the `LISTEN` banner appears.
fn respawn_daemon(args: &[&str], deadline: Duration) -> Daemon {
    let t0 = Instant::now();
    loop {
        let mut child = Command::new(env!("CARGO_BIN_EXE_spcached"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn spcached");
        let mut lines = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        let _ = lines.read_line(&mut line);
        if let Some(addr) = line.trim().strip_prefix("LISTEN ") {
            return Daemon {
                child,
                addr: Some(addr.parse().expect("parse listen addr")),
                lines,
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

fn placement(id: u64) -> Vec<usize> {
    vec![id as usize % N_WORKERS, (id as usize + 1) % N_WORKERS]
}

/// A scratch meta-dir unique to this test process, wiped on entry.
fn scratch_meta_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spcache-failover-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create meta dir");
    dir
}

#[test]
fn standby_takes_over_a_sigkilled_master() {
    let meta_dir = scratch_meta_dir();
    let meta_dir_flag = meta_dir.to_str().expect("utf8 temp path");

    let mut workers: Vec<Daemon> = (0..N_WORKERS)
        .map(|id| {
            let mut d =
                Daemon::spawn(&["worker", "--id", &id.to_string(), "--bind", "127.0.0.1:0"]);
            d.listen();
            d
        })
        .collect();
    let worker_addrs: Vec<SocketAddr> = workers.iter().map(|d| d.addr.unwrap()).collect();
    let workers_flag = worker_addrs
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");

    // Master A: durable, fast heartbeats so adoption and death
    // detection are prompt.
    let mut master_a = Daemon::spawn(&[
        "master",
        "--bind",
        "127.0.0.1:0",
        "--workers",
        &workers_flag,
        "--meta-dir",
        meta_dir_flag,
        "--heartbeat-ms",
        "20",
    ]);
    let addr_a = master_a.listen();

    // Standby B: tails A's op-log, takes over after 3 missed 40 ms polls.
    let mut standby = Daemon::spawn(&[
        "master",
        "--bind",
        "127.0.0.1:0",
        "--workers",
        &workers_flag,
        "--meta-dir",
        meta_dir_flag,
        "--standby",
        "--peer",
        &addr_a.to_string(),
        "--poll-ms",
        "40",
        "--takeover-after",
        "3",
    ]);
    assert_eq!(standby.expect_line("STANDBY"), addr_a.to_string());

    let transport = Arc::new(TcpTransport::connect(worker_addrs.clone()));
    let meta_a = Arc::new(MasterClient::connect(addr_a));
    let client_a = Client::new(meta_a.clone(), transport.clone());

    await_until("fleet registration", Duration::from_secs(10), || {
        meta_a.worker_epochs(N_WORKERS) == vec![1; N_WORKERS]
    });
    let (epoch, active, _, _) = meta_a.status().expect("status of active master");
    assert_eq!((epoch, active), (1, true));

    for id in 0..N_FILES {
        client_a.write(id, &payload(id, FILE_LEN), &placement(id)).unwrap();
    }
    for id in 0..N_FILES {
        assert_eq!(client_a.read(id).unwrap(), payload(id, FILE_LEN));
    }

    // SIGKILL the active master mid-service: no flush, no goodbye. The
    // journal on disk and the standby's tail are all that survive.
    master_a.child.kill().expect("SIGKILL master A");
    let epoch_b: u64 = standby.expect_line("TAKEOVER").parse().expect("takeover epoch");
    assert_eq!(epoch_b, 2, "takeover must bump the master epoch");
    let addr_b = standby.listen();
    assert_ne!(addr_b, addr_a);

    // The successor serves the full pre-kill metadata and every byte.
    let meta_b = Arc::new(MasterClient::connect(addr_b));
    let (epoch, active, files, _) = meta_b.status().expect("status of successor");
    assert_eq!((epoch, active, files), (2, true, N_FILES));
    let client_b = Client::new(meta_b.clone(), transport.clone());
    for id in 0..N_FILES {
        assert_eq!(
            client_b.read(id).unwrap(),
            payload(id, FILE_LEN),
            "file {id} not byte-identical across the failover"
        );
    }
    // And it accepts new writes — the reign is real, not read-only.
    client_b.write(N_FILES, &payload(N_FILES, FILE_LEN), &placement(N_FILES)).unwrap();
    assert_eq!(client_b.read(N_FILES).unwrap(), payload(N_FILES, FILE_LEN));

    // The dead master restarts on its old port with the same journal:
    // the newest master-epoch record names B, so it boots fenced...
    let mut master_a2 = respawn_daemon(
        &[
            "master",
            "--bind",
            &addr_a.to_string(),
            "--workers",
            &workers_flag,
            "--meta-dir",
            meta_dir_flag,
        ],
        Duration::from_secs(10),
    );
    let meta_a2 = MasterClient::connect(addr_a);
    let (epoch, active, _, _) = meta_a2.status().expect("status bypasses the fence");
    assert_eq!((epoch, active), (2, false), "restarted master must boot fenced");
    // ...and a client still pointed at the old address is transparently
    // redirected to the successor.
    let via_old = MasterClient::connect(addr_a);
    let (_, servers) = via_old.locate(0).expect("redirect must land on the successor");
    assert_eq!(servers, placement(0));

    // Graceful teardown: workers, successor, fenced rejoiner.
    for w in 0..N_WORKERS {
        transport
            .call(w, Request::Shutdown, Duration::from_secs(10))
            .unwrap()
            .unit()
            .unwrap();
    }
    meta_b.shutdown_server().unwrap();
    meta_a2.shutdown_server().unwrap();
    let deadline = Duration::from_secs(10);
    for d in workers.iter_mut().chain([&mut standby, &mut master_a2]) {
        let t0 = Instant::now();
        loop {
            match d.child.try_wait().expect("try_wait") {
                Some(_) => break,
                None => {
                    assert!(t0.elapsed() <= deadline, "daemon did not exit after shutdown");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&meta_dir);
}
