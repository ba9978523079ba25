//! Real `spcached` child processes on loopback: one master, N workers.

use spcache_net::{MasterClient, TcpTransport};
use spcache_store::rpc::{Request, WorkerStats};
use spcache_store::transport::Transport;
use spcache_store::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::workload::Spec;

/// How long a daemon may take to print its `LISTEN` banner.
const BANNER_DEADLINE: Duration = Duration::from_secs(10);
/// Deadline of the harness's own control RPCs (stats, pings, deletes).
pub const CONTROL_DEADLINE: Duration = Duration::from_secs(10);
/// `TcpTransport` deadline. The transport arms a reap timer per request
/// at twice this and never cancels it, so from then on every request
/// also pays for the expiry of an older one (`small_read`: 0.070 →
/// 0.101 ms per read). That is the state a long-lived client is in, so
/// it is the one measured: with 1 s (the default is 5 s) it begins 2 s
/// after the first seed write — inside the warm-up, not across the
/// measured windows.
pub const TRANSPORT_DEADLINE: Duration = Duration::from_secs(1);

/// A child `spcached`, killed and reaped on drop so no exit path of the
/// benchmark leaks a daemon.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Drains the daemon's stdout; ends when the daemon does.
    stdout_reader: Option<JoinHandle<()>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

impl Daemon {
    /// Spawns `spcached <args>` and waits for its `LISTEN <addr>` banner.
    fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The banner is read on a helper thread so a daemon that hangs
        // before binding costs BANNER_DEADLINE, not the whole run.
        let (tx, rx) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            let mut line = String::new();
            let _ = out.read_line(&mut line);
            let _ = tx.send(line);
            // Keep the pipe open (and drained) for the daemon's lifetime,
            // so a later print can never block or SIGPIPE it.
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        // From here on every return path reaps the child.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            stdout_reader: Some(stdout_reader),
        };
        let what = format!("spcached {}", args.join(" "));
        let line = rx
            .recv_timeout(BANNER_DEADLINE)
            .map_err(|_| format!("{what}: no LISTEN banner in {BANNER_DEADLINE:?}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("LISTEN ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("{what}: expected a LISTEN banner, got {line:?}"))?;
        Ok(daemon)
    }

    /// Peak resident set size (`VmHWM`) in bytes.
    fn rss_peak(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(parent: &Path) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = parent.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One master and `spec.workers` workers, plus the production client
/// stack connected to them.
pub struct Cluster {
    pub transport: Arc<TcpTransport>,
    pub meta: Arc<MasterClient>,
    // Declared after the connections so those close first; daemons are
    // killed, then the journal directory goes.
    workers: Vec<Daemon>,
    master: Daemon,
    meta_dir: Option<TempDir>,
}

impl Cluster {
    /// Starts the daemons `spec` asks for. Shard counts are pinned to 1
    /// on both sides: the defaults are one per core, which would make
    /// every number a function of `nproc`.
    pub fn spawn(spcached: &Path, out_dir: &Path, spec: &Spec) -> Result<Cluster, String> {
        let mut workers = Vec::with_capacity(spec.workers);
        for id in 0..spec.workers {
            let mut args: Vec<String> =
                ["worker", "--id", &id.to_string(), "--bind", "127.0.0.1:0"]
                    .map(String::from)
                    .to_vec();
            args.extend(["--io-shards".into(), "1".into()]);
            if let Some(bw) = spec.bandwidth {
                args.extend(["--bandwidth".into(), bw.to_string()]);
            }
            if let Some(budget) = spec.memory_budget {
                args.extend(["--memory-budget".into(), budget.to_string()]);
            }
            if spec.integrity {
                args.push("--verify-reads".into());
            }
            workers.push(Daemon::spawn(spcached, &args)?);
        }
        let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
        let list = addrs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut args: Vec<String> = ["master", "--bind", "127.0.0.1:0", "--workers", &list]
            .map(String::from)
            .to_vec();
        let meta_dir = spec.integrity.then(|| TempDir::new(out_dir)).transpose()?;
        if let Some(dir) = &meta_dir {
            args.extend(["--meta-dir".into(), dir.0.display().to_string()]);
        }
        let master = Daemon::spawn(spcached, &args)?;
        Ok(Cluster {
            transport: Arc::new(
                TcpTransport::connect_sharded(addrs, 1).with_deadline(TRANSPORT_DEADLINE),
            ),
            meta: Arc::new(MasterClient::connect(master.addr)),
            workers,
            master,
            meta_dir,
        })
    }

    /// The production client, configured as `spec` asks.
    pub fn client(&self, spec: &Spec) -> Client {
        let client = Client::new(self.meta.clone(), self.transport.clone());
        if spec.integrity {
            client.with_verify(true).with_parity(1)
        } else {
            client
        }
    }

    /// `Request::Stats` of every worker, in worker order.
    pub fn stats(&self) -> Result<Vec<WorkerStats>, String> {
        (0..self.workers.len())
            .map(|w| {
                self.transport
                    .call(w, Request::Stats, CONTROL_DEADLINE)
                    .and_then(|r| r.stats())
                    .map_err(|e| format!("stats of worker {w}: {e}"))
            })
            .collect()
    }

    /// Sum of the daemons' peak resident set sizes, bytes.
    pub fn rss_peak(&self) -> Result<u64, String> {
        self.workers
            .iter()
            .chain([&self.master])
            .map(Daemon::rss_peak)
            .sum()
    }

    /// Fails if any daemon has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        let n = self.workers.len();
        for (i, d) in self
            .workers
            .iter_mut()
            .chain([&mut self.master])
            .enumerate()
        {
            let who = if i < n {
                format!("worker {i}")
            } else {
                "master".into()
            };
            match d.child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) => return Err(format!("{who} exited early: {status}")),
                Err(e) => return Err(format!("{who}: {e}")),
            }
        }
        Ok(())
    }

    /// Bytes under the master's `--meta-dir` (0 without one).
    pub fn journal_bytes(&self) -> u64 {
        fn dir_size(dir: &Path) -> u64 {
            std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_size(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        self.meta_dir.as_ref().map_or(0, |d| dir_size(&d.0))
    }
}
