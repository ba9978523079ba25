//! `spcached` — the store's network daemon.
//!
//! ```text
//! spcached worker --id N --bind ADDR [--seed S] [--bandwidth B]
//!                 [--io-shards N] [--memory-budget BYTES]
//!                 [--background-fraction F] [--verify-reads]
//! spcached master --bind ADDR --workers ADDR1,ADDR2,...
//!                 [--no-supervisor] [--heartbeat-ms MS]
//!                 [--meta-dir DIR] [--force-active]
//!                 [--standby --peer ADDR [--poll-ms MS]
//!                  [--takeover-after N]]
//! ```
//!
//! Both roles print `LISTEN <addr>` on stdout once bound (port 0 picks
//! an ephemeral port), then serve until they receive a shutdown RPC.
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
//! master, and after `--takeover-after` consecutive failed polls
//! (default 5, `--poll-ms` apart, default 100) takes over — binding
//! its own meta endpoint, bumping the master epoch, announcing it to
//! the worker fleet, and fencing the old master if it ever answers
//! again. It prints `STANDBY <peer>` when tailing begins and
//! `TAKEOVER <epoch>` + `LISTEN <addr>` once promoted.
//!
//! Workers serve all their connections from readiness event loops —
//! one I/O shard (loop thread) per core by default, each multiplexing
//! N connections; `--io-shards` overrides the shard count.
//!
//! Master mode runs the self-healing supervisor loop (DESIGN.md §4.11)
//! **by default**: it heartbeats the worker fleet, fences crash-restarted
//! workers with fresh epochs and marks lost partitions degraded.
//! `--no-supervisor` disables it entirely; `--heartbeat-ms` tunes the
//! probe cadence (default 100).
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
use spcache_store::repartitioner::DEFAULT_EXECUTOR_DEADLINE;
use spcache_store::supervisor::{Supervisor, SupervisorCore};
use spcache_store::transport::Transport;
use spcache_store::{Request, StoreConfig, SupervisorConfig};
use std::net::SocketAddr;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  spcached worker --id N --bind ADDR [--seed S] [--bandwidth B] \
         [--io-shards N] [--memory-budget BYTES] [--background-fraction F] \
         [--verify-reads]\n  \
         spcached master --bind ADDR --workers ADDR1,ADDR2,... \
         [--no-supervisor] [--heartbeat-ms MS] [--meta-dir DIR] [--force-active] \
         [--standby --peer ADDR [--poll-ms MS] [--takeover-after N]]"
    );
    exit(2);
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
    let id: usize = parse("--id", &flag_value(args, "--id").unwrap_or_else(|| usage()));
    let bind = flag_value(args, "--bind").unwrap_or_else(|| usage());
    let mut cfg = StoreConfig::unthrottled(id + 1);
    if let Some(seed) = flag_value(args, "--seed") {
        cfg.seed = parse("--seed", &seed);
    }
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
    // The daemon always reports corruption events: a bitflip in a cache
    // node is an operator-visible incident, not a silent retry.
    cfg = cfg.with_corruption_log(true);
    let log = Arc::new(FaultLog::new());
    // A standalone worker has no shared under-store to spill into, so a
    // budgeted one backs itself privately (spawn_worker_opts does this).
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
    let meta_dir = flag_value(args, "--meta-dir");
    if args.iter().any(|a| a == "--standby") {
        run_standby(args, &bind, &worker_addrs, meta_dir.as_deref());
        return;
    }

    // Durable mode replays the journal before serving; volatile mode is
    // the pre-§4.14 master, byte-for-byte.
    let master = match &meta_dir {
        Some(dir) => Arc::new(Master::recover(Arc::new(
            UnderStore::new().with_meta_dir(dir),
        ))),
        None => Arc::new(Master::new()),
    };
    master.ensure_workers(worker_addrs.len());
    let server = spawn_master_server(master.clone(), &bind, worker_addrs.clone());
    let my_addr = server.addr().to_string();
    // Activation rules (§4.14). A journal whose newest master-epoch
    // record names a different owner means someone took over while we
    // were down: start fenced and redirect to them — a kill -9'd master
    // that restarts can never split the brain. `--force-active`
    // reclaims authority under a bumped epoch instead (operator
    // override for "the successor is the one that died").
    if meta_dir.is_some() {
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
    // The supervisor is ON by default in master mode; `--no-supervisor`
    // gives the exact pre-supervisor behaviour (manual liveness only).
    // A fenced master's supervisor ticks are no-ops, so spawning it on
    // a fenced rejoin is harmless.
    let _supervisor = (!args.iter().any(|a| a == "--no-supervisor")).then(|| {
        let mut sup = SupervisorConfig::enabled();
        if let Some(ms) = flag_value(args, "--heartbeat-ms") {
            sup = sup.with_interval(Duration::from_millis(parse("--heartbeat-ms", &ms)));
        }
        let transport: Arc<dyn Transport> =
            Arc::new(spcache_net::TcpTransport::connect(worker_addrs));
        Supervisor::spawn(SupervisorCore::new(
            master,
            transport,
            None, // no under-store to sweep from; detection + fencing only
            sup,
            spcache_store::RetryPolicy::default(),
        ))
    });
    println!("LISTEN {}", server.addr());
    server.join();
}

fn spawn_master_server(master: Arc<Master>, bind: &str, workers: Vec<SocketAddr>) -> MasterServer {
    MasterServer::spawn(master, bind, workers, DEFAULT_EXECUTOR_DEADLINE).unwrap_or_else(|e| {
        eprintln!("spcached: cannot bind {bind}: {e}");
        exit(1);
    })
}

/// The standby's life: tail the active master's op-log into a shadow
/// [`Master`], and when the active stops answering, take over (§4.14).
fn run_standby(args: &[String], bind: &str, worker_addrs: &[SocketAddr], meta_dir: Option<&str>) {
    let peer: SocketAddr = parse(
        "--peer",
        &flag_value(args, "--peer").unwrap_or_else(|| usage()),
    );
    let poll = Duration::from_millis(
        flag_value(args, "--poll-ms").map_or(100, |v| parse("--poll-ms", &v)),
    );
    let takeover_after: u32 =
        flag_value(args, "--takeover-after").map_or(5, |v| parse("--takeover-after", &v));

    let peer_client = MasterClient::connect(peer).with_deadline(poll.max(Duration::from_millis(20)));
    let shadow = Arc::new(Master::new());
    let mut applied: u64 = 1; // first LSN not yet replayed
    let mut misses: u32 = 0;
    println!("STANDBY {peer}");
    loop {
        std::thread::sleep(poll);
        // Status first (cheap, served even by a fenced peer), then pull
        // the delta. One failed poll is a blip; `takeover_after` in a
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
                if misses >= takeover_after {
                    break;
                }
            }
        }
    }

    // Takeover. With a shared meta-dir the journal on disk is the
    // authority (it has everything, including ops our last poll
    // missed); without one the wire-replayed shadow is the best state
    // in existence.
    let master = match meta_dir {
        Some(dir) => Arc::new(Master::recover(Arc::new(
            UnderStore::new().with_meta_dir(dir),
        ))),
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
    let mut sup = SupervisorConfig::enabled();
    if let Some(ms) = flag_value(args, "--heartbeat-ms") {
        sup = sup.with_interval(Duration::from_millis(parse("--heartbeat-ms", &ms)));
    }
    let _supervisor = (!args.iter().any(|a| a == "--no-supervisor")).then(|| {
        Supervisor::spawn(SupervisorCore::new(
            master.clone(),
            transport.clone(),
            None,
            sup,
            spcache_store::RetryPolicy::default(),
        ))
    });
    println!("TAKEOVER {epoch}");
    println!("LISTEN {}", server.addr());
    server.join();
}
