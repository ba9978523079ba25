//! One benchmark run: set up real daemons, drive the closed-loop
//! clients, check every byte, and turn the samples into metrics.

use bytes::Bytes;
use spcache_store::rpc::{PartKey, Request};
use spcache_store::transport::Transport;
use spcache_store::Client;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::cluster::{Cluster, CONTROL_DEADLINE};
use crate::stats::{client_mbps, latency_percentile_ms, median, window_median, OpKind, OpSample};
use crate::workload::{FileSpec, Op, OpStream, Spec};

/// Windows the measured time is cut into; timing metrics are medians
/// over them.
pub const WINDOWS: usize = 5;
/// Untimed closed-loop time before the first window: connections are
/// dialled, the LRU reaches its steady state, and the transport's first
/// reap timers fire (see `cluster::TRANSPORT_DEADLINE`).
pub const WARMUP: Duration = Duration::from_millis(2500);
/// Full set-ups (spawn + seed) per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// One fresh write in this many is read back and compared before its
/// delete.
const READ_BACK_EVERY: u64 = 16;

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spcached: PathBuf,
    /// Where traces and the master's journal directory go.
    pub out_dir: PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    /// Client operations issued, seed writes included.
    pub attempted: u64,
    /// Operations that returned an error or the wrong bytes.
    pub failed: u64,
    /// Other checks that did not hold (each also makes the run incorrect).
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// A seeded cluster and what seeding it cost.
pub struct Seeded {
    pub cluster: Cluster,
    pub client: Client,
    /// Daemon spawn → last seed write acked, seconds.
    pub setup_s: f64,
    pub seed_writes: Vec<OpSample>,
    /// Σ worker `bytes_stored` ÷ user bytes, right after seeding.
    pub stored_ratio: f64,
}

pub fn setup(cfg: &RunConfig, spec: &Spec, payloads: &[Bytes]) -> Result<Seeded, String> {
    let t0 = Instant::now();
    let cluster = Cluster::spawn(&cfg.spcached, &cfg.out_dir, spec)?;
    let client = cluster.client(spec);
    let mut seed_writes = Vec::with_capacity(spec.files.len());
    for (f, data) in spec.files.iter().zip(payloads) {
        seed_writes.push(seed_write(&client, f, data, t0)?);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let stored: u64 = cluster.stats()?.iter().map(|s| s.bytes_stored).sum();
    Ok(Seeded {
        cluster,
        client,
        setup_s,
        seed_writes,
        stored_ratio: stored as f64 / spec.user_bytes() as f64,
    })
}

/// A timed `Client::write_bytes` of one seeded file; `at` counts from `t0`.
pub fn seed_write(
    client: &Client,
    f: &FileSpec,
    data: &Bytes,
    t0: Instant,
) -> Result<OpSample, String> {
    let start = Instant::now();
    client
        .write_bytes(f.id, data.clone(), &f.servers)
        .map_err(|e| format!("seeding file {}: {e}", f.id))?;
    Ok(OpSample {
        kind: OpKind::Write,
        at: (start - t0).as_secs_f64(),
        latency: start.elapsed().as_secs_f64(),
        bytes: f.size,
    })
}

/// What one client thread brings back.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<OpSample>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// The production side of a run: executes ops through `Client` and
/// checks their results.
pub struct Driver<'a> {
    pub spec: &'a Spec,
    pub payloads: &'a [Bytes],
    pub fresh: &'a [Bytes],
    pub cluster: &'a Cluster,
    pub client: &'a Client,
    /// Start of the first measured window.
    pub t0: Instant,
}

impl Driver<'_> {
    fn sample(&self, kind: OpKind, start: Instant, latency: Duration, bytes: usize) -> OpSample {
        let at = if start >= self.t0 {
            (start - self.t0).as_secs_f64()
        } else {
            -(self.t0 - start).as_secs_f64()
        };
        OpSample {
            kind,
            at,
            latency: latency.as_secs_f64(),
            bytes,
        }
    }

    /// A timed `Client::read` of seeded file `i`, compared byte for byte
    /// outside the timed span.
    pub fn read(&self, i: usize, kind: OpKind) -> Result<OpSample, String> {
        let f = &self.spec.files[i];
        let start = Instant::now();
        let got = self.client.read(f.id);
        let latency = start.elapsed();
        match got {
            Ok(bytes) if bytes[..] == self.payloads[i][..] => {
                Ok(self.sample(kind, start, latency, f.size))
            }
            Ok(bytes) => Err(format!(
                "read of file {} returned {} wrong bytes",
                f.id,
                bytes.len()
            )),
            Err(e) => Err(format!("read of file {}: {e}", f.id)),
        }
    }

    /// Drops partition 0 of seeded file `i` on its worker (untimed) — the
    /// fault a degraded read then has to decode around.
    pub fn drop_partition(&self, i: usize) -> Result<(), String> {
        let f = &self.spec.files[i];
        let key = PartKey::new(f.id, 0);
        match self
            .cluster
            .transport
            .call(f.servers[0], Request::Delete { key }, CONTROL_DEADLINE)
            .and_then(|r| r.flag())
        {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!(
                "file {}: partition 0 was not resident before its drop",
                f.id
            )),
            Err(e) => Err(format!("file {}: dropping partition 0: {e}", f.id)),
        }
    }

    /// A timed `Client::write_bytes` of a fresh file.
    pub fn write(&self, id: u64, size: usize, servers: &[usize]) -> Result<OpSample, String> {
        let data = self.fresh[OpStream::fresh_slot(id)].clone();
        let start = Instant::now();
        let res = self.client.write_bytes(id, data, servers);
        let latency = start.elapsed();
        res.map_err(|e| format!("write of file {id}: {e}"))?;
        Ok(self.sample(OpKind::Write, start, latency, size))
    }

    /// Untimed end of a fresh file's life: an occasional read-back
    /// check, then the delete that keeps the cluster's footprint flat.
    pub fn retire(&self, id: u64, k: usize, read_back: bool) -> Result<(), String> {
        if read_back {
            match self.client.read(id) {
                Ok(bytes) if bytes[..] == self.fresh[OpStream::fresh_slot(id)][..] => {}
                Ok(_) => return Err(format!("read-back of fresh file {id} returned wrong bytes")),
                Err(e) => return Err(format!("read-back of fresh file {id}: {e}")),
            }
        }
        match self.client.delete(id) {
            Ok(removed) if removed == k => Ok(()),
            Ok(removed) => Err(format!(
                "delete of fresh file {id} removed {removed} of {k} partitions"
            )),
            Err(e) => Err(format!("delete of fresh file {id}: {e}")),
        }
    }

    /// One production op, end to end.
    pub fn execute(&self, op: &Op, nth: u64) -> Result<OpSample, String> {
        match op {
            Op::Read(i) => self.read(*i, OpKind::Read),
            Op::DegradedRead(i) => {
                self.drop_partition(*i)?;
                self.read(*i, OpKind::DegradedRead)
            }
            Op::Write { id, size, servers } => {
                let sample = self.write(*id, *size, servers)?;
                self.retire(*id, servers.len(), nth.is_multiple_of(READ_BACK_EVERY))?;
                Ok(sample)
            }
        }
    }

    /// The closed loop of client `c`: next op only after the previous
    /// one completed, until `end`.
    pub fn client_loop(&self, c: usize, end: Instant) -> ClientLog {
        let mut log = ClientLog::default();
        for op in self.spec.ops(c) {
            if Instant::now() >= end {
                break;
            }
            log.attempted += 1;
            match self.execute(&op, log.attempted) {
                Ok(sample) => log.samples.push(sample),
                Err(e) => log.failures.push(e),
            }
        }
        log
    }
}

/// The kind of read the end-to-end `read_*` metrics are taken over.
/// Where the mix has degraded reads those are the ones that matter (a
/// degraded read runs the plain path first, then the decode), and mixing
/// the two populations would put the median on the gap between them.
pub fn headline_read(spec: &Spec) -> OpKind {
    if spec.mix.degraded > 0 {
        OpKind::DegradedRead
    } else {
        OpKind::Read
    }
}

pub fn report_failures(outcome: &mut Outcome, logs: &[ClientLog]) {
    for log in logs {
        outcome.attempted += log.attempted;
        outcome.failed += log.failures.len() as u64;
        for f in log.failures.iter().take(5) {
            eprintln!("spbench: FAILED op: {f}");
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(cfg: &RunConfig, spec: &Spec) -> Result<Outcome, String> {
    let payloads = spec.seeded_payloads();
    let fresh = spec.fresh_payloads();

    // Set up several times and keep the last cluster: `setup_s` and the
    // write-side numbers of read-only workloads are medians over the
    // set-ups, as the read-side numbers are medians over windows.
    let (mut setups, mut seed_p50, mut seed_mbps) = (Vec::new(), Vec::new(), Vec::new());
    let mut seeded = None;
    for _ in 0..SETUPS {
        drop(seeded.take()); // daemons of the previous round are reaped first
        let s = setup(cfg, spec, &payloads)?;
        setups.push(s.setup_s);
        seed_p50.extend(latency_percentile_ms(50.0)(&s.seed_writes));
        seed_mbps.extend(client_mbps(1)(&s.seed_writes));
        seeded = Some(s);
    }
    let mut seeded = seeded.expect("SETUPS > 0");

    let window_len = cfg.seconds / WINDOWS as f64;
    let t0 = Instant::now() + WARMUP;
    let end = t0 + Duration::from_secs_f64(cfg.seconds);
    let driver = Driver {
        spec,
        payloads: &payloads,
        fresh: &fresh,
        cluster: &seeded.cluster,
        client: &seeded.client,
        t0,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                let driver = &driver;
                s.spawn(move || driver.client_loop(c, end))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut outcome = Outcome {
        attempted: (SETUPS * spec.files.len()) as u64,
        ..Outcome::default()
    };
    report_failures(&mut outcome, &logs);
    if let Err(e) = seeded.cluster.check_alive() {
        outcome.violations.push(e);
    }
    if (seeded.stored_ratio - spec.expected_stored_ratio()).abs() > 1e-9 {
        outcome.violations.push(format!(
            "stored_ratio is {} but this workload stores {} bytes per user byte",
            seeded.stored_ratio,
            spec.expected_stored_ratio()
        ));
    }

    let samples: Vec<OpSample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let over_windows = |kind, f: &dyn Fn(&[OpSample]) -> Option<f64>| {
        window_median(&samples, kind, WINDOWS, window_len, f)
    };
    let read = headline_read(spec);
    let missing = |what: &str| format!("no {what} sample in any window");
    let (write_p50, write_mbps) = if spec.mix.write > 0 {
        (
            over_windows(OpKind::Write, &latency_percentile_ms(50.0)),
            over_windows(OpKind::Write, &client_mbps(spec.clients)),
        )
    } else {
        (median(&seed_p50), median(&seed_mbps))
    };
    outcome.metrics = vec![
        ("setup_s", median(&setups).expect("SETUPS > 0")),
        (
            "read_p50_ms",
            over_windows(read, &latency_percentile_ms(50.0)).ok_or_else(|| missing("read"))?,
        ),
        (
            "read_p95_ms",
            over_windows(read, &latency_percentile_ms(95.0)).ok_or_else(|| missing("read"))?,
        ),
        (
            "read_mbps",
            over_windows(read, &client_mbps(spec.clients)).ok_or_else(|| missing("read"))?,
        ),
        ("write_p50_ms", write_p50.ok_or_else(|| missing("write"))?),
        ("write_mbps", write_mbps.ok_or_else(|| missing("write"))?),
        ("stored_ratio", seeded.stored_ratio),
        ("rss_peak_mb", seeded.cluster.rss_peak()? as f64 / 1e6),
    ];
    Ok(outcome)
}
