//! `spcached` — the store's network daemon.
//!
//! ```text
//! spcached worker --id N --bind ADDR [--bandwidth B]
//!                 [--io-shards N] [--memory-budget BYTES]
//!                 [--background-fraction F] [--verify-reads]
//! spcached master --bind ADDR --workers ADDR1,ADDR2,...
//!                 [--heartbeat-ms MS] [--meta-dir DIR] [--force-active]
//!                 [--standby --peer ADDR]
//! ```
//!
//! Both roles print `LISTEN <addr>` on stdout once bound (port 0 picks
//! an ephemeral port), then serve until they receive a shutdown RPC.
//! An unknown flag, or a flag without its value, prints the usage and
//! exits with status 2 before anything binds.
//!
//! `--meta-dir DIR` makes master metadata **durable** (DESIGN.md
//! §4.14): every mutation is journalled to a checksummed op-log under
//! `DIR`, compacted into snapshots, and replayed on restart. A
//! restarted master whose journal records a *different* owner address
//! starts fenced (redirecting to that owner) unless `--force-active`
//! reclaims authority under a bumped master epoch.
//!
//! `--standby` runs the failover twin: it tails the active master's
//! op-log over the wire (`--peer ADDR`), replays it into a shadow
//! master, and after 5 consecutive failed polls (`--heartbeat-ms`
//! apart, default 100) takes over — binding
//! its own meta endpoint, bumping the master epoch, announcing it to
//! the worker fleet, and fencing the old master if it ever answers
//! again. It prints `STANDBY <peer>` when tailing begins and
//! `TAKEOVER <epoch>` + `LISTEN <addr>` once promoted.
//!
//! Workers serve all their connections from readiness event loops —
//! one I/O shard (loop thread) per core by default, each multiplexing
//! N connections; `--io-shards` overrides the shard count.
//!
//! Master mode always runs the self-healing supervisor loop (DESIGN.md
//! §4.11): it heartbeats the worker fleet, fences crash-restarted
//! workers with fresh epochs and marks lost partitions degraded.
//! `--heartbeat-ms` tunes the probe cadence (default 100).
//!
//! `--memory-budget BYTES` caps a worker's resident cache: overflow
//! evicts cold partitions to a spill tier and reads of evicted
//! partitions transparently reload (DESIGN.md §4.13).
//! `--background-fraction F` (in `(0, 1]`, default 1.0) carves out the
//! share of the worker's NIC granted to background traffic — recovery
//! sweeps, repartition moves, spill/reload writebacks.
//!
//! `--verify-reads` makes the worker recompute each partition's CRC-64
//! checksum before serving it (DESIGN.md §4.15); a mismatch erases the
//! local copies and answers a typed `Corrupt` erasure instead of wrong
//! bytes. Spill reloads are *always* verified, flag or no flag. Every
//! detected corruption is logged as `CORRUPT <file> <partition>` on
//! stdout.

use spcache_net::poll::default_io_shards;
use spcache_net::{MasterClient, MasterServer, WorkerServer};
use spcache_store::backing::UnderStore;
use spcache_store::fault::FaultLog;
use spcache_store::master::Master;
use spcache_store::metalog::decode_records;
use spcache_store::supervisor::{Supervisor, SupervisorCore};
use spcache_store::transport::Transport;
use spcache_store::{Request, StoreConfig, SupervisorConfig};
use std::net::SocketAddr;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  spcached worker --id N --bind ADDR [--bandwidth B] \
         [--io-shards N] [--memory-budget BYTES] [--background-fraction F] \
         [--verify-reads]\n  \
         spcached master --bind ADDR --workers ADDR1,ADDR2,... \
         [--heartbeat-ms MS] [--meta-dir DIR] [--force-active] [--standby --peer ADDR]"
    );
    exit(2);
}

/// The flags each role takes a value for, and the ones it takes alone.
type Flags = (&'static [&'static str], &'static [&'static str]);

const WORKER_FLAGS: Flags = (
    &["--id", "--bind", "--bandwidth", "--io-shards", "--memory-budget", "--background-fraction"],
    &["--verify-reads"],
);

const MASTER_FLAGS: Flags = (
    &["--bind", "--workers", "--heartbeat-ms", "--meta-dir", "--peer"],
    &["--force-active", "--standby"],
);

/// Consecutive failed polls after which a standby takes over.
const TAKEOVER_AFTER: u32 = 5;

/// Exits through [`usage`] unless every argument is a flag of `valued`
/// followed by its value, or one of `switches`.
fn check_flags(args: &[String], (valued, switches): Flags) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            if rest.next().is_none_or(|v| v.starts_with("--")) {
                usage();
            }
        } else if !switches.contains(&arg.as_str()) {
            usage();
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(what: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("spcached: bad value for {what}: {v:?}");
        exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => run_worker(&args[1..]),
        Some("master") => run_master(&args[1..]),
        _ => usage(),
    }
}

fn run_worker(args: &[String]) {
    check_flags(args, WORKER_FLAGS);
    let id: usize = parse("--id", &flag_value(args, "--id").unwrap_or_else(|| usage()));
    let bind = flag_value(args, "--bind").unwrap_or_else(|| usage());
    let mut cfg = StoreConfig::unthrottled(id + 1);
    if let Some(bw) = flag_value(args, "--bandwidth") {
        cfg.bandwidth = parse("--bandwidth", &bw);
    }
    if let Some(budget) = flag_value(args, "--memory-budget") {
        cfg = cfg.with_memory_budget(Some(parse("--memory-budget", &budget)));
    }
    if let Some(frac) = flag_value(args, "--background-fraction") {
        let frac: f64 = parse("--background-fraction", &frac);
        if !(frac > 0.0 && frac <= 1.0) {
            eprintln!("spcached: --background-fraction must be in (0, 1], got {frac}");
            exit(2);
        }
        cfg = cfg.with_background_fraction(frac);
    }
    if args.iter().any(|a| a == "--verify-reads") {
        cfg = cfg.with_verify_reads(true);
    }
    let log = Arc::new(FaultLog::new());
    // A standalone worker has no shared under-store to spill into, so a
    // budgeted one backs itself privately (spawn_worker does this).
    let io_shards = flag_value(args, "--io-shards")
        .map_or_else(default_io_shards, |n| parse("--io-shards", &n));
    let server = WorkerServer::spawn(id, &bind, &cfg, log, io_shards, None).unwrap_or_else(|e| {
        eprintln!("spcached: cannot bind {bind}: {e}");
        exit(1);
    });
    println!("LISTEN {}", server.addr());
    server.join();
}

fn run_master(args: &[String]) {
    check_flags(args, MASTER_FLAGS);
    let bind = flag_value(args, "--bind").unwrap_or_else(|| usage());
    let workers_arg = flag_value(args, "--workers").unwrap_or_else(|| usage());
    let worker_addrs: Vec<SocketAddr> = workers_arg
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse("--workers", s))
        .collect();
    if worker_addrs.is_empty() {
        usage();
    }
    let meta_tier = flag_value(args, "--meta-dir").map(|dir| {
        let tier = UnderStore::new().with_meta_dir(&dir).unwrap_or_else(|e| {
            eprintln!("spcached: cannot open --meta-dir {dir}: {e}");
            exit(2);
        });
        Arc::new(tier)
    });
    if args.iter().any(|a| a == "--standby") {
        run_standby(args, &bind, &worker_addrs, meta_tier);
        return;
    }

    // Durable mode replays the journal before serving; volatile mode is
    // the pre-§4.14 master, byte-for-byte.
    let durable = meta_tier.is_some();
    let master = Arc::new(meta_tier.map_or_else(Master::new, Master::recover));
    master.ensure_workers(worker_addrs.len());
    let server = spawn_master_server(master.clone(), &bind, worker_addrs.clone());
    let my_addr = server.addr().to_string();
    // Activation rules (§4.14). A journal whose newest master-epoch
    // record names a different owner means someone took over while we
    // were down: start fenced and redirect to them — a kill -9'd master
    // that restarts can never split the brain. `--force-active`
    // reclaims authority under a bumped epoch instead (operator
    // override for "the successor is the one that died").
    if durable {
        let recorded = master.owner_addr();
        if recorded.is_empty() {
            master.claim_master_epoch(master.master_epoch(), &my_addr);
        } else if recorded != my_addr {
            if args.iter().any(|a| a == "--force-active") {
                master.claim_master_epoch(master.master_epoch() + 1, &my_addr);
            } else {
                eprintln!("spcached: journal owned by {recorded}; starting fenced");
                master.self_fence(Some(recorded));
            }
        }
    }
    // A fenced master's supervisor ticks are no-ops, so spawning it on
    // a fenced rejoin is harmless.
    let transport: Arc<dyn Transport> = Arc::new(spcache_net::TcpTransport::connect(worker_addrs));
    let _supervisor = spawn_supervisor(args, master, transport);
    println!("LISTEN {}", server.addr());
    server.join();
}

/// The supervisor at the `--heartbeat-ms` cadence, with no under-store
/// to sweep from: detection and fencing only.
fn spawn_supervisor(
    args: &[String],
    master: Arc<Master>,
    transport: Arc<dyn Transport>,
) -> Supervisor {
    let (cfg, retry) = (supervisor_config(args), spcache_store::RetryPolicy::default());
    Supervisor::spawn(SupervisorCore::new(master, transport, None, cfg, retry))
}

/// The supervisor's configuration, probing every `--heartbeat-ms`.
fn supervisor_config(args: &[String]) -> SupervisorConfig {
    let sup = SupervisorConfig::enabled();
    match flag_value(args, "--heartbeat-ms") {
        Some(ms) => sup.with_interval(Duration::from_millis(parse("--heartbeat-ms", &ms))),
        None => sup,
    }
}

fn spawn_master_server(master: Arc<Master>, bind: &str, workers: Vec<SocketAddr>) -> MasterServer {
    MasterServer::spawn(master, bind, workers).unwrap_or_else(|e| {
        eprintln!("spcached: cannot bind {bind}: {e}");
        exit(1);
    })
}

/// The standby's life: tail the active master's op-log into a shadow
/// [`Master`], and when the active stops answering, take over (§4.14).
fn run_standby(
    args: &[String],
    bind: &str,
    worker_addrs: &[SocketAddr],
    meta_tier: Option<Arc<UnderStore>>,
) {
    let peer: SocketAddr = parse(
        "--peer",
        &flag_value(args, "--peer").unwrap_or_else(|| usage()),
    );
    // The standby polls at the cadence its own supervisor will probe at.
    let poll = supervisor_config(args).heartbeat_interval;

    let peer_client = MasterClient::connect(peer).with_deadline(poll.max(Duration::from_millis(20)));
    let shadow = Arc::new(Master::new());
    let mut applied: u64 = 1; // first LSN not yet replayed
    let mut misses: u32 = 0;
    println!("STANDBY {peer}");
    loop {
        std::thread::sleep(poll);
        // Status first (cheap, served even by a fenced peer), then pull
        // the delta. One failed poll is a blip; `TAKEOVER_AFTER` in a
        // row is a dead master.
        match peer_client.status() {
            Ok(_) => {
                misses = 0;
                if let Ok((next, bytes)) = peer_client.log_tail(applied) {
                    for (lsn, op) in decode_records(&bytes) {
                        if lsn >= applied {
                            shadow.apply_op(&op);
                        }
                    }
                    applied = applied.max(next);
                }
            }
            Err(_) => {
                misses += 1;
                if misses >= TAKEOVER_AFTER {
                    break;
                }
            }
        }
    }

    // Takeover. With a shared meta-dir the journal on disk is the
    // authority (it has everything, including ops our last poll
    // missed); without one the wire-replayed shadow is the best state
    // in existence.
    let master = match meta_tier {
        Some(tier) => {
            tier.meta_reload();
            Arc::new(Master::recover(tier))
        }
        None => {
            // Give the shadow a journal of its own so the new reign is
            // durable in memory (and replicable to the next standby).
            shadow.enable_journal(Arc::new(spcache_store::MetaLog::open(Arc::new(
                UnderStore::new(),
            ))));
            shadow
        }
    };
    master.ensure_workers(worker_addrs.len());
    let server = spawn_master_server(master.clone(), bind, worker_addrs.to_vec());
    let my_addr = server.addr().to_string();
    let epoch = master.claim_master_epoch(master.master_epoch() + 1, &my_addr);
    // The old master's in-flight repairs died with it; release their
    // slots so the files can be healed again.
    master.abandon_repairs();
    master.activate();
    // Fence the fleet: workers raise their master-epoch watermark and
    // bounce anything the deposed master still sends. Best-effort — a
    // worker that misses the announcement learns the epoch from our
    // supervisor's stamped traffic instead.
    let transport: Arc<dyn Transport> =
        Arc::new(spcache_net::TcpTransport::connect(worker_addrs.to_vec()));
    for w in 0..worker_addrs.len() {
        let _ = transport.call(w, Request::SetMasterEpoch(epoch), Duration::from_millis(200));
    }
    // Tell the old master it is deposed, if it ever answers again.
    let _ = peer_client.takeover(epoch, &my_addr);
    let _supervisor = spawn_supervisor(args, master, transport);
    println!("TAKEOVER {epoch}");
    println!("LISTEN {}", server.addr());
    server.join();
}
