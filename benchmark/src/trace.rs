//! The traced run: every per-layer metric.
//!
//! Production calls (`Client::read` / `write_bytes`) alternate with a
//! **staged replay** of the same operation, assembled here from the
//! public pieces the client itself uses — master RPCs, the transport's
//! batch submit, checksum, split/join and parity functions — with a
//! span around each call. What the production call costs beyond the sum
//! of its replayed stages is the client's own residual. Pure-compute
//! layers are also timed alone on the workload's real shards, and the
//! worker is timed without sockets on an in-process twin of the cluster.

use bytes::Bytes;
use crossbeam::channel::{Select, TryRecvError};
use spcache_ec::{join_shards_bytes, split_shards_bytes, ReedSolomon};
use spcache_metrics::LoadTracker;
use spcache_net::frame::{decode_reply, encode_reply, encode_request_parts, Frame};
use spcache_store::backing::UnderStore;
use spcache_store::master::MetaService;
use spcache_store::rpc::{PartKey, Reply, Request, WorkerStats};
use spcache_store::transport::Transport;
use spcache_store::{FileIntegrity, StoreCluster, StoreConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::cluster::{Cluster, CONTROL_DEADLINE};
use crate::run::{
    headline_read, report_failures, seed_write, ClientLog, Driver, Outcome, RunConfig, WARMUP,
};
use crate::stats::{median, percentile, self_times, OpKind, OpSample, Span};
use crate::workload::{Op, OpStream, Spec};

/// Shares of `--seconds` given to the traced loop, to the twin, and to
/// each function timed alone.
const LOOP_SHARE: f64 = 0.6;
const TWIN_SHARE: f64 = 0.2;
const ALONE_SHARE: f64 = 0.01;
/// Deadline of one replayed fan-out (the production client's is 30 s).
const FANOUT_DEADLINE: Duration = Duration::from_secs(30);
/// Replay writes take their ids this far above the production write's.
const REPLAY_ID_OFFSET: u64 = 1 << 23;

/// Spans of one client thread, in memory until the run ends.
struct Recorder {
    origin: Instant,
    client: u64,
    ops: u64,
    spans: Vec<Span>,
    /// Production op beside the replay of the same op.
    pairs: Vec<Pair>,
    /// Bytes the master's journal directory grew by, per production write.
    journal_growth: Vec<f64>,
}

struct Pair {
    kind: OpKind,
    /// Start of the production call, seconds since the origin.
    at: f64,
    /// Seconds inside the production call.
    production: f64,
    replay_op: u64,
}

impl Recorder {
    fn new(origin: Instant, client: usize) -> Recorder {
        Recorder {
            origin,
            client: client as u64,
            ops: 0,
            spans: Vec::new(),
            pairs: Vec::new(),
            journal_growth: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.client << 48 | self.ops
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(name, op, parent, now, now)
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    fn scoped<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, op, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Notes that replay `replay_op` repeated the production op `sample`.
    fn pair(&mut self, sample: &OpSample, replay_op: u64) {
        self.pairs.push(Pair {
            kind: sample.kind,
            at: sample.at,
            production: sample.latency,
            replay_op,
        });
    }

    /// The root span of a production call, from its timed sample.
    fn production(&mut self, name: &'static str, sample: &OpSample) -> u64 {
        let op = self.next_op();
        self.push(name, op, None, sample.at, sample.at + sample.latency);
        op
    }
}

/// The staged side of a traced run: operations replayed stage by stage
/// against the same daemons.
impl Driver<'_> {
    /// `Client::read` of seeded file `i`, taken apart: locate → (integrity
    /// row) → fan-out of k Gets, each reply followed by the `mark_alive`
    /// the client sends the master and (verifying clients) its checksum →
    /// join.
    fn replay_read(&self, rec: &mut Recorder, i: usize) -> Result<u64, String> {
        let spec = self.spec;
        let f = &spec.files[i];
        let (meta, transport) = (&self.cluster.meta, &self.cluster.transport);
        let err = |what: &str, e: &dyn std::fmt::Display| {
            format!("replayed read of file {}: {what}: {e}", f.id)
        };
        let op = rec.next_op();
        let root = rec.open("replay.read", op, None);
        let (size, servers) = rec
            .scoped("net.master_net.locate", op, root, || meta.locate(f.id))
            .map_err(|e| err("locate", &e))?;
        let sums = if spec.integrity {
            rec.scoped("net.master_net.integrity", op, root, || {
                meta.integrity(f.id)
            })
            .map(|row| row.sums)
        } else {
            None
        };
        let k = servers.len();
        let fan = rec.open("net.tcp.fanout", op, Some(root));
        let submitted = rec.now();
        let gets = servers
            .iter()
            .enumerate()
            .map(|(j, &s)| {
                (
                    s,
                    Request::Get {
                        key: PartKey::new(f.id, j as u32),
                    },
                )
            })
            .collect();
        let replies = transport
            .submit_batch(gets)
            .map_err(|e| err("submit", &e))?;
        let deadline = Instant::now() + FANOUT_DEADLINE;
        let mut parts: Vec<Option<Bytes>> = vec![None; k];
        while parts.iter().any(Option::is_none) {
            // The client's own join: a ready-set wait over what is
            // still outstanding.
            let mut sel = Select::new();
            let mut outstanding = Vec::with_capacity(k);
            for (j, rx) in replies.iter().enumerate() {
                if parts[j].is_none() {
                    outstanding.push(j);
                    sel.recv(rx);
                }
            }
            let ready = sel
                .ready_deadline(deadline)
                .map_err(|_| err("join", &"timed out"))?;
            let j = outstanding[ready];
            match replies[j].try_recv() {
                Ok(reply) => {
                    let landed = rec.now();
                    rec.push("net.tcp.reply", op, Some(fan), submitted, landed);
                    rec.scoped("net.master_net.mark_alive", op, fan, || {
                        meta.mark_alive(servers[j])
                    });
                    let data = reply.bytes().map_err(|e| err("get", &e))?;
                    if let Some(sums) = &sums {
                        let ok = rec.scoped("integrity.verify", op, fan, || {
                            spcache_integrity::verify(&data, sums[j])
                        });
                        if !ok {
                            return Err(err(
                                "verify",
                                &format!("partition {j} fails its checksum"),
                            ));
                        }
                    }
                    parts[j] = Some(data);
                }
                Err(TryRecvError::Empty) => {} // spurious readiness
                Err(TryRecvError::Disconnected) => return Err(err("join", &"reply route closed")),
            }
        }
        rec.close(fan);
        let parts: Vec<Bytes> = parts.into_iter().flatten().collect();
        let file = rec.scoped("ec.join", op, root, || join_shards_bytes(&parts, size));
        rec.close(root);
        if file[..] != self.payloads[i][..] {
            return Err(err("check", &"wrong bytes"));
        }
        Ok(op)
    }

    /// One Put fan-out the way `push_partitions` does it: one batch, then
    /// the acks in index order, each followed by a `mark_alive`.
    fn put_fanout(
        &self,
        rec: &mut Recorder,
        op: u64,
        root: usize,
        puts: Vec<(usize, Request)>,
    ) -> Result<(), String> {
        let targets: Vec<usize> = puts.iter().map(|p| p.0).collect();
        let fan = rec.open("net.tcp.put_fanout", op, Some(root));
        let submitted = rec.now();
        let acks = self
            .cluster
            .transport
            .submit_batch(puts)
            .map_err(|e| format!("replayed put: submit: {e}"))?;
        for (rx, server) in acks.iter().zip(targets) {
            let ack = rx.recv_timeout(FANOUT_DEADLINE);
            let landed = rec.now();
            rec.push("net.tcp.reply", op, Some(fan), submitted, landed);
            rec.scoped("net.master_net.mark_alive", op, fan, || {
                self.cluster.meta.mark_alive(server)
            });
            ack.map_err(|e| format!("replayed put to worker {server}: {e:?}"))?
                .unit()
                .map_err(|e| format!("replayed put to worker {server}: {e}"))?;
        }
        rec.close(fan);
        Ok(())
    }

    /// `Client::write_bytes`, taken apart: split → checksums → Put fan-out
    /// → register, and with the integrity tier: parity encode → checksums
    /// → parity Put → integrity row.
    fn replay_write(
        &self,
        rec: &mut Recorder,
        id: u64,
        data: &Bytes,
        servers: &[usize],
    ) -> Result<u64, String> {
        let spec = self.spec;
        let meta = &self.cluster.meta;
        let k = servers.len();
        let op = rec.next_op();
        let root = rec.open("replay.write", op, None);
        let shards = rec.scoped("ec.split", op, root, || split_shards_bytes(data, k));
        let sums = rec.scoped("integrity.sums", op, root, || {
            spcache_integrity::sums(&shards)
        });
        let puts = shards
            .into_iter()
            .zip(servers)
            .enumerate()
            .map(|(j, (shard, &s))| {
                let key = PartKey::new(id, j as u32);
                (
                    s,
                    Request::Put {
                        key,
                        data: shard,
                        sum: sums[j],
                    },
                )
            })
            .collect();
        self.put_fanout(rec, op, root, puts)?;
        rec.scoped("net.master_net.register", op, root, || {
            meta.register(id, data.len(), servers.to_vec())
        })
        .map_err(|e| format!("replayed write of file {id}: register: {e}"))?;
        if spec.integrity {
            // One parity partition on the first spare worker, rotated by
            // file id — `Client::push_parity`'s placement.
            let spare: Vec<usize> = (0..spec.workers).filter(|w| !servers.contains(w)).collect();
            let target = spare[id as usize % spare.len()];
            let parity: Vec<Bytes> = rec.scoped("ec.parity_encode", op, root, || {
                let mut all = ReedSolomon::new_cauchy(k, k + 1).encode_bytes(data);
                all.split_off(k).into_iter().map(Bytes::from).collect()
            });
            let parity_sums = rec.scoped("integrity.sums", op, root, || {
                spcache_integrity::sums(&parity)
            });
            let put = Request::Put {
                key: PartKey::parity(id, 0),
                data: parity[0].clone(),
                sum: parity_sums[0],
            };
            self.put_fanout(rec, op, root, vec![(target, put)])?;
            let row = FileIntegrity {
                sums,
                parity: vec![(target, parity_sums[0])],
            };
            rec.scoped("net.master_net.set_integrity", op, root, || {
                meta.set_integrity(id, row)
            })
            .map_err(|e| format!("replayed write of file {id}: set_integrity: {e}"))?;
        }
        rec.close(root);
        Ok(op)
    }

    /// Seeds the cluster, production writes alternating with replayed
    /// ones, so every workload has a traced write side.
    fn traced_seed(&self, rec: &mut Recorder, log: &mut ClientLog) -> Result<(), String> {
        let d = self;
        for (i, (f, data)) in d.spec.files.iter().zip(d.payloads).enumerate() {
            log.attempted += 1;
            if i % 2 == 0 {
                let sample = seed_write(d.client, f, data, d.t0)?;
                rec.production("store.client.write", &sample);
                log.samples.push(sample);
            } else {
                let replay_op = self.replay_write(rec, f.id, data, &f.servers)?;
                if let Some(previous) = log.samples.last() {
                    rec.pair(previous, replay_op);
                }
            }
        }
        Ok(())
    }

    /// A production read of seeded file `i`, then its replay.
    fn read_twice(&self, rec: &mut Recorder, i: usize) -> Result<OpSample, String> {
        let sample = self.read(i, OpKind::Read)?;
        rec.production("store.client.read", &sample);
        let replay_op = self.replay_read(rec, i)?;
        rec.pair(&sample, replay_op);
        Ok(sample)
    }

    /// A production write of a fresh file, then the replay of the same
    /// write under a second id; both files are retired again.
    fn write_twice(
        &self,
        rec: &mut Recorder,
        id: u64,
        size: usize,
        servers: &[usize],
    ) -> Result<OpSample, String> {
        let d = self;
        let journal = d.cluster.journal_bytes();
        let sample = d.write(id, size, servers)?;
        rec.journal_growth
            .push((d.cluster.journal_bytes() - journal) as f64);
        rec.production("store.client.write", &sample);
        d.retire(id, servers.len(), false)?;

        let twin = id + REPLAY_ID_OFFSET;
        let replay_op =
            self.replay_write(rec, twin, &d.fresh[OpStream::fresh_slot(twin)], servers)?;
        // Read back through the verifying client: a wrong checksum or a
        // misplaced parity partition in the replay cannot hide.
        d.retire(twin, servers.len(), true)?;
        rec.pair(&sample, replay_op);
        Ok(sample)
    }

    /// The traced closed loop of client `c`: each op through the
    /// production client, then (reads and writes) once more staged.
    fn traced_loop(&self, c: usize, end: Instant, rec: &mut Recorder) -> ClientLog {
        let d = self;
        let mut log = ClientLog::default();
        for op in d.spec.ops(c) {
            if Instant::now() >= end {
                break;
            }
            log.attempted += 1;
            let done = match &op {
                Op::Read(i) => self.read_twice(rec, *i),
                Op::DegradedRead(i) => d
                    .drop_partition(*i)
                    .and_then(|()| d.read(*i, OpKind::DegradedRead))
                    .inspect(|sample| {
                        rec.production("store.client.degraded_read", sample);
                    }),
                Op::Write { id, size, servers } => self.write_twice(rec, *id, *size, servers),
            };
            match done {
                Ok(sample) => log.samples.push(sample),
                Err(e) => log.failures.push(e),
            }
        }
        log
    }
}

/// Spans of all recorders, with what the analysis needs precomputed.
struct Analysis<'a> {
    recorders: &'a [Recorder],
    /// Per recorder: root span name of each op.
    roots: Vec<HashMap<u64, &'static str>>,
    /// Per recorder: seconds of each replay op covered by stage spans.
    staged: Vec<HashMap<u64, f64>>,
}

impl<'a> Analysis<'a> {
    fn new(recorders: &'a [Recorder]) -> Analysis<'a> {
        let mut roots = Vec::new();
        let mut staged = Vec::new();
        for rec in recorders {
            let own = self_times(&rec.spans);
            let is_root = |s: &&Span| s.parent.is_none();
            roots.push(
                rec.spans
                    .iter()
                    .filter(is_root)
                    .map(|s| (s.op, s.name))
                    .collect(),
            );
            staged.push(
                rec.spans
                    .iter()
                    .zip(own)
                    .filter(|(s, _)| s.parent.is_none() && s.name.starts_with("replay."))
                    .map(|(s, own)| (s.op, s.duration() - own))
                    .collect(),
            );
        }
        Analysis {
            recorders,
            roots,
            staged,
        }
    }

    /// For every op under a `root` span: `fold` over the durations (s) of
    /// its `name` spans.
    fn per_op(&self, root: &str, name: &str, fold: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        let mut out = Vec::new();
        for (rec, roots) in self.recorders.iter().zip(&self.roots) {
            let mut by_op: HashMap<u64, Vec<f64>> = HashMap::new();
            let under_root =
                |s: &&Span| s.name == name && roots.get(&s.op).is_some_and(|r| *r == root);
            for s in rec.spans.iter().filter(under_root) {
                by_op.entry(s.op).or_default().push(s.duration());
            }
            out.extend(by_op.values().map(|d| fold(d)));
        }
        out
    }

    /// Median µs per op of the summed `name` spans under `root` (0 when
    /// the workload never runs that stage).
    fn stage_us(&self, root: &str, name: &str) -> f64 {
        median(&self.per_op(root, name, |d| d.iter().sum())).unwrap_or(0.0) * 1e6
    }

    /// `(production, staged)` seconds of every pair of `kind` that
    /// started at or after `from`.
    fn pairs(&self, kind: OpKind, from: f64) -> Vec<(f64, f64)> {
        self.recorders
            .iter()
            .zip(&self.staged)
            .flat_map(|(rec, staged)| {
                rec.pairs
                    .iter()
                    .filter(move |p| p.kind == kind && p.at >= from)
                    .filter_map(|p| Some((p.production, *staged.get(&p.replay_op)?)))
            })
            .collect()
    }
}

/// `[production µs, staged µs, residual µs, residual ratio]`, each the
/// median over the pairs.
fn residuals(pairs: &[(f64, f64)]) -> [f64; 4] {
    let med = |f: &dyn Fn(&(f64, f64)) -> f64| {
        median(&pairs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    [
        med(&|p| p.0 * 1e6),
        med(&|p| p.1 * 1e6),
        med(&|p| (p.0 - p.1) * 1e6),
        med(&|p| (p.0 - p.1) / p.0),
    ]
}

/// Median seconds of `f`, repeated for about `budget` (at least 5 times).
fn time_median<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let began = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (began.elapsed() < budget && times.len() < 10_000) {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times).expect("at least five repetitions")
}

/// Pure-compute layers, each timed alone on the shards of the file the
/// workload reads (or writes) most.
fn compute_layers(
    spec: &Spec,
    payloads: &[Bytes],
    fresh: &[Bytes],
    budget: Duration,
) -> Vec<(&'static str, f64)> {
    let (data, k) = match spec.fresh {
        Some((_, k)) => (&fresh[0], k),
        None => (&payloads[0], spec.files[0].servers.len()),
    };
    let size = data.len();
    let mbps = |secs: f64, bytes: usize| bytes as f64 / secs / 1e6;
    let shards = split_shards_bytes(data, k);
    let sums = spcache_integrity::sums(&shards);
    let sums_s = time_median(budget, || spcache_integrity::sums(black_box(&shards)));
    let verify_s = time_median(budget, || {
        spcache_integrity::verify(black_box(&shards[0]), sums[0])
    });
    let split_s = time_median(budget, || split_shards_bytes(black_box(data), k));
    let join_s = time_median(budget, || join_shards_bytes(black_box(&shards), size));
    let mut out = vec![
        ("integrity.sums_us", sums_s * 1e6),
        ("integrity.sums_mbps", mbps(sums_s, size)),
        ("integrity.verify_mbps", mbps(verify_s, shards[0].len())),
        ("ec.split_us", split_s * 1e6),
        ("ec.join_us", join_s * 1e6),
    ];

    let (mut encode_s, mut reconstruct_s) = (0.0, 0.0);
    if spec.integrity {
        encode_s = time_median(budget, || {
            ReedSolomon::new_cauchy(k, k + 1).encode_bytes(black_box(data))
        });
        let coded = ReedSolomon::new_cauchy(k, k + 1).encode_bytes(data);
        reconstruct_s = time_median(budget, || {
            // Partition 0 erased, as in a degraded read. (The copy into
            // the decoder's Option<Vec> slots is the client's too.)
            let mut have: Vec<Option<Vec<u8>>> = coded.iter().cloned().map(Some).collect();
            have[0] = None;
            ReedSolomon::new_cauchy(k, k + 1).reconstruct_data(&mut have)
        });
    }
    let or_zero = |secs: f64| if secs > 0.0 { mbps(secs, size) } else { 0.0 };
    out.extend([
        ("ec.parity_encode_us", encode_s * 1e6),
        ("ec.parity_encode_mbps", or_zero(encode_s)),
        ("ec.reconstruct_us", reconstruct_s * 1e6),
        ("ec.reconstruct_mbps", or_zero(reconstruct_s)),
    ]);

    // One read's worth of frames: k Get requests out, k Data replies in.
    let id = spec.files[0].id;
    let encode_s = time_median(budget, || {
        for j in 0..k as u32 {
            black_box(encode_request_parts(
                &Request::Get {
                    key: PartKey::new(id, j),
                },
                j as u64,
            ));
        }
    });
    let wire: Vec<Bytes> = shards
        .iter()
        .map(|s| {
            // A frame buffer is what follows the 4-byte length prefix.
            let framed = Bytes::from(encode_reply(&Reply::Data(s.clone()), 7));
            framed.slice(4..framed.len())
        })
        .collect();
    let decode_s = time_median(budget, || {
        for buf in &wire {
            let frame = Frame::parse(buf.clone()).expect("a frame this harness encoded");
            black_box(decode_reply(&frame).expect("a reply this harness encoded"));
        }
    });
    out.extend([
        ("net.frame.encode_us", encode_s * 1e6),
        ("net.frame.decode_us", decode_s * 1e6),
    ]);

    let (mut put_s, mut load_s) = (0.0, 0.0);
    if spec.memory_budget.is_some() {
        let under = UnderStore::new();
        let key = PartKey::new(id, 0);
        put_s = time_median(budget, || under.spill_put(key, shards[0].clone()));
        load_s = time_median(budget, || under.spill_load(key));
    }
    out.extend([
        ("store.backing.spill_put_us", put_s * 1e6),
        ("store.backing.spill_load_us", load_s * 1e6),
    ]);
    out
}

/// What the twin measured, µs medians.
struct TwinNumbers {
    channel_read_us: f64,
    get_service_us: f64,
    put_service_us: f64,
    fanout_us: f64,
}

/// The same workers without sockets: an in-process `StoreCluster` with
/// the daemons' settings and the same files, driven for about `budget`.
fn twin(spec: &Spec, payloads: &[Bytes], budget: Duration) -> Result<TwinNumbers, String> {
    let mut cfg = StoreConfig::unthrottled(spec.workers)
        .with_memory_budget(spec.memory_budget)
        .with_verify_reads(spec.integrity)
        .with_parity(usize::from(spec.integrity));
    if let Some(bw) = spec.bandwidth {
        cfg.bandwidth = bw;
    }
    let cluster = StoreCluster::spawn(cfg);
    let client = cluster.client();
    for (f, data) in spec.files.iter().zip(payloads) {
        client
            .write_bytes(f.id, data.clone(), &f.servers)
            .map_err(|e| format!("twin: seeding file {}: {e}", f.id))?;
    }
    let transport = cluster.transport();
    let files = spec.ops(0).filter_map(|op| match op {
        Op::Read(i) | Op::DegradedRead(i) => Some(i),
        Op::Write { .. } => None,
    });
    let (mut reads, mut gets, mut puts, mut fanouts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let began = Instant::now();
    for (n, i) in files.enumerate() {
        if began.elapsed() >= budget {
            break;
        }
        let f = &spec.files[i];
        let t = Instant::now();
        let got = client
            .read(f.id)
            .map_err(|e| format!("twin: read of file {}: {e}", f.id))?;
        reads.push(t.elapsed().as_secs_f64());
        if got[..] != payloads[i][..] {
            return Err(format!("twin: read of file {} returned wrong bytes", f.id));
        }

        let key = |j: usize| PartKey::new(f.id, j as u32);
        let t = Instant::now();
        let replies = transport
            .submit_batch(
                f.servers
                    .iter()
                    .enumerate()
                    .map(|(j, &s)| (s, Request::Get { key: key(j) }))
                    .collect(),
            )
            .map_err(|e| format!("twin: fan-out: {e}"))?;
        for rx in &replies {
            rx.recv_timeout(FANOUT_DEADLINE)
                .map_err(|e| format!("twin: fan-out: {e:?}"))?
                .bytes()
                .map_err(|e| format!("twin: fan-out: {e}"))?;
        }
        fanouts.push(t.elapsed().as_secs_f64());

        let j = n % f.servers.len();
        let t = Instant::now();
        let part = transport
            .call(f.servers[j], Request::Get { key: key(j) }, CONTROL_DEADLINE)
            .and_then(Reply::bytes)
            .map_err(|e| format!("twin: get: {e}"))?;
        gets.push(t.elapsed().as_secs_f64());

        // The same bytes under a scratch key: one Put's service time.
        let scratch = PartKey::new(u64::MAX - n as u64, 0);
        let put = Request::Put {
            key: scratch,
            sum: spcache_integrity::sum(&part),
            data: part,
        };
        let t = Instant::now();
        transport
            .call(f.servers[j], put, CONTROL_DEADLINE)
            .and_then(Reply::unit)
            .map_err(|e| format!("twin: put: {e}"))?;
        puts.push(t.elapsed().as_secs_f64());
        transport
            .call(
                f.servers[j],
                Request::Delete { key: scratch },
                CONTROL_DEADLINE,
            )
            .map_err(|e| format!("twin: delete: {e}"))?;
    }
    let us = |v: &[f64]| median(v).unwrap_or(0.0) * 1e6;
    Ok(TwinNumbers {
        channel_read_us: us(&reads),
        get_service_us: us(&gets),
        put_service_us: us(&puts),
        fanout_us: us(&fanouts),
    })
}

/// Counter deltas of the fleet between two `Stats` snapshots.
fn worker_layers(
    spec: &Spec,
    before: &[WorkerStats],
    after: &[WorkerStats],
    secs: f64,
) -> Vec<(&'static str, f64)> {
    let delta = |f: fn(&WorkerStats) -> u64| -> f64 {
        after
            .iter()
            .zip(before)
            .map(|(a, b)| (f(a) - f(b)) as f64)
            .sum()
    };
    let mut load = LoadTracker::new(spec.workers);
    for (w, (a, b)) in after.iter().zip(before).enumerate() {
        load.add(w, (a.bytes_served - b.bytes_served) as f64);
    }
    let served = delta(|s| s.bytes_served);
    let reloaded = delta(|s| s.reloaded_bytes);
    let rate_secs = spec.bandwidth.map_or(f64::INFINITY, |bw| bw * secs);
    vec![
        ("store.worker.gets", delta(|s| s.gets)),
        ("store.worker.puts", delta(|s| s.puts)),
        ("store.worker.bytes_served", served),
        (
            "store.worker.bytes_background",
            delta(|s| s.bytes_background),
        ),
        ("store.worker.evictions", delta(|s| s.evictions)),
        ("store.worker.spilled_bytes", delta(|s| s.spilled_bytes)),
        ("store.worker.reloaded_bytes", reloaded),
        (
            "store.worker.reload_ratio",
            if served > 0.0 { reloaded / served } else { 0.0 },
        ),
        ("store.worker.imbalance", load.imbalance_factor()),
        (
            "store.throttle.nic_utilization",
            served / (spec.workers as f64 * rate_secs),
        ),
        (
            "store.throttle.max_worker_utilization",
            load.max() / rate_secs,
        ),
    ]
}

fn write_trace(cfg: &RunConfig, recorders: &[Recorder]) -> Result<usize, String> {
    let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut n = 0;
    for rec in recorders {
        for (id, s) in rec.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"client": {}, "op": {}, "id": {id}, "parent": {parent}, "name": "{}", "start_us": {:.3}, "end_us": {:.3}}}"#,
                rec.client,
                s.op,
                s.name,
                s.start * 1e6,
                s.end * 1e6
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
            n += 1;
        }
    }
    out.flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(n)
}

pub fn run_traced(cfg: &RunConfig, spec: &Spec) -> Result<Outcome, String> {
    let payloads = spec.seeded_payloads();
    let fresh = spec.fresh_payloads();
    let origin = Instant::now();
    let mut cluster = Cluster::spawn(&cfg.spcached, &cfg.out_dir, spec)?;
    let client = cluster.client(spec);
    let mut recorders: Vec<Recorder> = (0..=spec.clients)
        .map(|c| Recorder::new(origin, c))
        .collect();
    let mut logs = vec![ClientLog::default()];
    // The driver borrows the cluster; `check_alive` below needs it back.
    let (before, after, loop_from, loop_secs, warm) = {
        let driver = Driver {
            spec,
            payloads: &payloads,
            fresh: &fresh,
            cluster: &cluster,
            client: &client,
            t0: origin,
        };
        let (seeder, clients) = recorders.split_last_mut().expect("clients + 1 recorders");
        driver.traced_seed(seeder, &mut logs[0])?;

        let before = cluster.stats()?;
        let began = Instant::now();
        let warm_end = began + WARMUP;
        let end = warm_end + Duration::from_secs_f64(cfg.seconds * LOOP_SHARE);
        let both: Vec<(ClientLog, ClientLog)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, rec)| {
                    let driver = &driver;
                    s.spawn(move || {
                        (
                            driver.client_loop(c, warm_end),
                            driver.traced_loop(c, end, rec),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let after = cluster.stats()?;
        let (warm, traced): (Vec<_>, Vec<_>) = both.into_iter().unzip();
        logs.extend(traced);
        let loop_from = (warm_end - origin).as_secs_f64();
        (
            before,
            after,
            loop_from,
            began.elapsed().as_secs_f64(),
            warm,
        )
    };

    let mut outcome = Outcome::default();
    report_failures(&mut outcome, &warm);
    report_failures(&mut outcome, &logs);
    if let Err(e) = cluster.check_alive() {
        outcome.violations.push(e);
    }
    let corrupt: u64 = after.iter().map(|s| s.corruptions_detected).sum();
    if corrupt > 0 {
        outcome.violations.push(format!(
            "workers detected {corrupt} corrupt partitions; nothing here corrupts any"
        ));
    }
    let hedged = client.hedged_fetches();
    let mut next_worker = 0;
    let ping_s = time_median(Duration::from_secs_f64(cfg.seconds * ALONE_SHARE), || {
        next_worker = (next_worker + 1) % spec.workers;
        cluster
            .transport
            .call(next_worker, Request::Ping, CONTROL_DEADLINE)
    });
    drop(client);
    drop(cluster);

    let twin = twin(
        spec,
        &payloads,
        Duration::from_secs_f64(cfg.seconds * TWIN_SHARE),
    )?;
    let compute = compute_layers(
        spec,
        &payloads,
        &fresh,
        Duration::from_secs_f64(cfg.seconds * ALONE_SHARE),
    );

    let a = Analysis::new(&recorders);
    let lat_of = |logs: &[ClientLog], kind: OpKind, from: f64| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.kind == kind && s.at >= from)
            .map(|s| s.latency)
            .collect()
    };
    let read_kind = headline_read(spec);
    let traced_reads = lat_of(&logs, OpKind::Read, loop_from);
    // Writes come from the loop where the mix has them, else from seeding.
    let write_from = if spec.mix.write > 0 { loop_from } else { 0.0 };
    let traced_writes = lat_of(&logs, OpKind::Write, write_from);
    let read_res = residuals(&a.pairs(OpKind::Read, loop_from));
    let write_res = residuals(&a.pairs(OpKind::Write, write_from));
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);

    let ks: Vec<f64> = spec.files.iter().map(|f| f.servers.len() as f64).collect();
    let (tune_us, alpha, bound_s) = spec
        .tuned
        .as_ref()
        .map_or((0.0, 0.0, 0.0), |(t, us)| (*us, t.alpha, t.bound));
    let mean_read = traced_reads.iter().sum::<f64>() / traced_reads.len().max(1) as f64;
    outcome.metrics.extend([
        ("core.tuner.tune_us", tune_us),
        ("core.tuner.alpha", alpha),
        (
            "core.partition.k_mean",
            ks.iter().zip(&spec.popularity).map(|(k, p)| k * p).sum(),
        ),
        (
            "core.partition.k_max",
            ks.iter().copied().fold(0.0, f64::max),
        ),
        ("core.forkjoin.bound_ms", bound_s * 1e3),
        (
            "core.forkjoin.bound_ratio",
            if bound_s > 0.0 {
                mean_read / bound_s
            } else {
                0.0
            },
        ),
    ]);
    outcome.metrics.extend(compute);

    let first = a.per_op("replay.read", "net.tcp.reply", |d| {
        d.iter().copied().fold(f64::MAX, f64::min)
    });
    let skew = a.per_op("replay.read", "net.tcp.reply", |d| {
        let (lo, hi) = d
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        (hi - lo) / hi
    });
    let tcp_fanout_us = a.stage_us("replay.read", "net.tcp.fanout");
    outcome.metrics.extend([
        ("net.tcp.ping_rtt_us", ping_s * 1e6),
        ("net.tcp.fanout_us", tcp_fanout_us),
        (
            "net.tcp.first_reply_us",
            median(&first).unwrap_or(0.0) * 1e6,
        ),
        ("net.tcp.join_skew", median(&skew).unwrap_or(0.0)),
        ("net.tcp.wire_overhead_us", tcp_fanout_us - twin.fanout_us),
        (
            "net.master_net.locate_us",
            a.stage_us("replay.read", "net.master_net.locate"),
        ),
        (
            "net.master_net.integrity_us",
            a.stage_us("replay.read", "net.master_net.integrity"),
        ),
        (
            "net.master_net.mark_alive_us",
            a.stage_us("replay.read", "net.master_net.mark_alive"),
        ),
        (
            "net.master_net.register_us",
            a.stage_us("replay.write", "net.master_net.register"),
        ),
        (
            "net.master_net.set_integrity_us",
            a.stage_us("replay.write", "net.master_net.set_integrity"),
        ),
        ("store.client.read_us", read_res[0]),
        ("store.client.read_staged_us", read_res[1]),
        ("store.client.read_residual_us", read_res[2]),
        ("store.client.read_residual_ratio", read_res[3]),
        ("store.client.read_p99_ms", p(&traced_reads, 99.0) * 1e3),
        ("store.client.write_us", write_res[0]),
        ("store.client.write_staged_us", write_res[1]),
        ("store.client.write_residual_us", write_res[2]),
        ("store.client.write_residual_ratio", write_res[3]),
        ("store.client.write_p99_ms", p(&traced_writes, 99.0) * 1e3),
        (
            "store.client.degraded_read_us",
            p(&lat_of(&logs, OpKind::DegradedRead, loop_from), 50.0) * 1e6,
        ),
        ("store.client.channel_read_us", twin.channel_read_us),
        ("store.client.hedged_fetches", hedged as f64),
        ("store.worker.get_service_us", twin.get_service_us),
        ("store.worker.put_service_us", twin.put_service_us),
    ]);
    outcome
        .metrics
        .extend(worker_layers(spec, &before, &after, loop_secs));
    let journal_growth: Vec<f64> = recorders
        .iter()
        .flat_map(|r| r.journal_growth.iter().copied())
        .collect();
    let untraced = p(
        &lat_of(&warm, read_kind, loop_from - WARMUP.as_secs_f64() / 2.0),
        50.0,
    );
    let spans = write_trace(cfg, &recorders)?;
    outcome.metrics.extend([
        (
            "store.metalog.journal_bytes_per_write",
            median(&journal_growth).unwrap_or(0.0),
        ),
        (
            "trace.overhead_ratio",
            if untraced > 0.0 {
                p(&lat_of(&logs, read_kind, loop_from), 50.0) / untraced
            } else {
                0.0
            },
        ),
        (
            "trace.ops",
            logs.iter().map(|l| l.attempted).sum::<u64>() as f64,
        ),
        (
            "trace.replays",
            recorders.iter().map(|r| r.pairs.len()).sum::<usize>() as f64,
        ),
        ("trace.spans", spans as f64),
    ]);
    Ok(outcome)
}
