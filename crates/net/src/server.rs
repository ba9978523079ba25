//! `spcached` worker server: a TCP front end over the store's channel
//! worker, served by readiness event loops.
//!
//! Threading model (chosen for *deterministic op order*, which the
//! fault-injection scripts key on — DESIGN.md §4.12):
//!
//! * **I/O shard loops** (one per core by default) own the sockets:
//!   shard 0 accepts connections and deals them round-robin across the
//!   shards; each loop parses request frames off its non-blocking
//!   sockets with an incremental [`FrameReader`] (zero-copy payloads)
//!   and feeds them into a single service queue. Reply frames are
//!   batch-flushed through per-connection [`WriteQueue`]s, so a burst
//!   of pipelined replies shares one `writev` round,
//! * one **service** thread pops that queue in arrival order, consults
//!   the worker's *wire* fault script, and forwards each request to the
//!   channel worker — so the worker observes exactly one global request
//!   order and the Nth data request over TCP is the same Nth data
//!   request an in-process run would count,
//! * one **reply pump** thread selects over every in-flight worker
//!   reply at once and hands each finished frame back to the owning
//!   shard as a completion — no per-request threads anywhere. Because
//!   clients demultiplex by `req_id`, replies need no ordering and a
//!   slow request never blocks the replies behind it.
//!
//! Wire faults fire here, not in the worker (which runs only the data
//! half of the script):
//!
//! * `DropConnection` — the request is served, then the connection is
//!   closed without the reply frame,
//! * `TruncateFrame` — half the reply frame is written, then the
//!   connection is closed,
//! * `DelayFrame` — the reply frame is written after the pause (a
//!   shard timer, not a sleeping thread).
//!
//! Graceful shutdown: a `Shutdown` request drains through the same
//! queue, so everything submitted before it is already forwarded (and
//! the worker itself serves FIFO before acknowledging). The ack frame
//! is queued on the owning shard, every shard then drains its write
//! queues and closes, and the worker thread is joined.

use crossbeam::channel::{unbounded, Receiver, Select, Sender, TryRecvError};
use mio::{Events, Interest, Poll, Token, Waker};
use spcache_store::backing::UnderStore;
use spcache_store::fault::{FaultAction, FaultLog, WorkerScript};
use spcache_store::rpc::{Envelope, Reply, Request, StoreError};
use spcache_store::worker::{spawn_worker_opts, WorkerOptions};
use spcache_store::StoreConfig;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::frame::{decode_request, encode_reply, encode_reply_parts, Frame};
use crate::poll::{accept_burst, ServerConns, Timers, WireFrame};

/// How long the reply pump waits on the channel worker before treating
/// a request as unanswerable. A `LoseReply` data fault looks exactly
/// like this — the pump then sends *nothing*, so the remote client
/// times out just as an in-process client would.
const FORWARD_DEADLINE: Duration = Duration::from_secs(5);

/// How long a shard keeps flushing unsent replies after `Stop` before
/// giving up on a peer that stopped reading.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Token of the shard's cross-thread waker.
const WAKER_TOK: Token = Token(0);
/// Token of the listener (shard 0 only).
const LISTENER_TOK: Token = Token(1);
/// First token handed to accepted connections.
const CONN_BASE: usize = 2;

/// What to do on a connection once its reply is ready.
enum Action {
    /// Write the frame (header + zero-copy payload).
    Frame(WireFrame),
    /// `DropConnection`: close without writing anything.
    Close,
    /// `TruncateFrame`: write the first half of the materialised
    /// frame, then close.
    Truncate(Vec<u8>),
}

/// Commands into a shard I/O loop.
enum SrvCmd {
    /// Take ownership of an accepted connection.
    Adopt(TcpStream),
    /// Apply `action` to connection `token` after `delay`.
    Complete {
        token: usize,
        action: Action,
        delay: Duration,
    },
    /// Drain write queues and exit.
    Stop,
}

/// Address of one shard loop: its command queue and waker.
#[derive(Clone)]
struct ShardRef {
    tx: Sender<SrvCmd>,
    waker: Arc<Waker>,
}

impl ShardRef {
    fn send(&self, cmd: SrvCmd) {
        if self.tx.send(cmd).is_ok() {
            let _ = self.waker.wake();
        }
    }
}

/// Routes a reply back to the connection its request arrived on.
#[derive(Clone)]
struct ConnRef {
    shard: ShardRef,
    token: usize,
}

impl ConnRef {
    fn complete(&self, action: Action, delay: Duration) {
        self.shard.send(SrvCmd::Complete {
            token: self.token,
            action,
            delay,
        });
    }

    /// Queues a reply frame with no fault behaviour.
    fn reply(&self, reply: &Reply, req_id: u64) {
        self.complete(Action::Frame(encode_reply_parts(reply, req_id)), Duration::ZERO);
    }
}

/// One unit of work for the service thread.
struct Job {
    req: Request,
    req_id: u64,
    conn: ConnRef,
}

/// An in-flight worker reply the pump is waiting on.
struct PendingReply {
    rx: Receiver<Reply>,
    conn: ConnRef,
    req_id: u64,
    worker_id: usize,
    delay: Duration,
    drop_conn: bool,
    truncate: bool,
    deadline: Instant,
}

/// A running worker server. Dropping it abandons the threads; call
/// [`WorkerServer::join`] after a graceful shutdown for a clean exit.
#[derive(Debug)]
pub struct WorkerServer {
    id: usize,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerServer {
    /// Spawns worker `id` of a cluster described by `cfg`, listening on
    /// `bind` (use port 0 for an ephemeral port; the chosen address is
    /// [`WorkerServer::addr`]) with `io_shards` I/O loops (the
    /// `spcached --io-shards` flag lands here; see
    /// [`crate::poll::default_io_shards`]). The worker thread receives
    /// the *data* half of `cfg.faults`; the wire half fires in this
    /// server. Both log into `fault_log`. A budgeted worker's evicted
    /// partitions land in `spill` (normally the deployment's shared
    /// under-store, so whole-file checkpoints there make evictions free
    /// drops); without one it backs itself with a private under-store —
    /// eviction stays a performance event either way.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or creating the pollers.
    pub fn spawn(
        id: usize,
        bind: &str,
        cfg: &StoreConfig,
        fault_log: Arc<FaultLog>,
        io_shards: usize,
        spill: Option<Arc<UnderStore>>,
    ) -> io::Result<WorkerServer> {
        crate::poll::tune_allocator_once();
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        // Accepted sockets inherit the listener's buffer sizes, so the
        // window is already wide during the handshake.
        crate::poll::tune_socket(&listener);
        let addr = listener.local_addr()?;
        let worker = spawn_worker_opts(WorkerOptions::from_config(
            id,
            cfg,
            cfg.faults.data_script_for(id),
            Arc::clone(&fault_log),
            spill,
        ));
        let wire_script = cfg.faults.wire_script_for(id);

        let n = io_shards.max(1);
        let (job_tx, job_rx) = unbounded::<Job>();
        let (pump_tx, pump_rx) = unbounded::<PendingReply>();

        // Build every shard's poller + command channel up front so
        // shard 0 (the acceptor) can deal connections to all of them.
        let mut polls = Vec::with_capacity(n);
        let mut refs: Vec<ShardRef> = Vec::with_capacity(n);
        for _ in 0..n {
            let poll = Poll::new()?;
            let waker = Arc::new(Waker::new(poll.registry(), WAKER_TOK)?);
            let (tx, rx) = unbounded::<SrvCmd>();
            refs.push(ShardRef { tx, waker });
            polls.push((poll, rx));
        }

        let mut threads = Vec::with_capacity(n + 2);
        let mut listener = Some(listener);
        for (i, (poll, rx)) in polls.into_iter().enumerate() {
            let me = refs[i].clone();
            let all = refs.clone();
            let job_tx = job_tx.clone();
            let l = listener.take(); // shard 0 gets the listener
            threads.push(
                std::thread::Builder::new()
                    .name(format!("spcached-{id}-io-{i}"))
                    .spawn(move || srv_shard_loop(poll, rx, l, me, all, &job_tx))
                    .expect("spawn io shard"),
            );
        }
        drop(job_tx);

        let service = {
            let shards = refs.clone();
            std::thread::Builder::new()
                .name(format!("spcached-{id}-service"))
                .spawn(move || {
                    service_loop(id, &job_rx, worker, wire_script, &fault_log, pump_tx, &shards);
                })
                .expect("spawn service thread")
        };
        threads.push(service);

        // The pump is detached: after shutdown it may hold LoseReply
        // entries that only expire at FORWARD_DEADLINE, and join()
        // must not wait on those.
        let _ = std::thread::Builder::new()
            .name(format!("spcached-{id}-pump"))
            .spawn(move || pump_loop(&pump_rx));

        Ok(WorkerServer { id, addr, threads })
    }

    /// Worker index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server threads to finish (they exit after a
    /// `Shutdown` request has been served).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Shard I/O loop
// ---------------------------------------------------------------------------

/// The shard readiness loop: accepts (shard 0), reads request frames
/// into the service queue, applies reply completions (with scripted
/// delays on the timer heap), and batch-flushes write queues.
fn srv_shard_loop(
    mut poll: Poll,
    rx: Receiver<SrvCmd>,
    listener: Option<TcpListener>,
    me: ShardRef,
    all: Vec<ShardRef>,
    job_tx: &Sender<Job>,
) {
    if let Some(l) = &listener {
        let _ = poll
            .registry()
            .register(l, LISTENER_TOK, Interest::READABLE);
    }
    let mut events = Events::with_capacity(256);
    let mut conns = ServerConns::new(CONN_BASE);
    let mut rr = 0usize; // round-robin dealing cursor (shard 0)
    // Scripted reply delays: a timer per delayed completion.
    let mut timers: Timers<u64> = Timers::new();
    let mut delayed: HashMap<u64, (usize, Action)> = HashMap::new();
    let mut delay_seq = 0u64;
    let mut inbound: Vec<Bytes> = Vec::new();

    'run: loop {
        let timeout = timers
            .next_deadline()
            .map(|d| d.saturating_duration_since(Instant::now()));
        if poll.poll(&mut events, timeout).is_err() {
            break 'run;
        }

        // Commands: adoptions and reply completions.
        loop {
            match rx.try_recv() {
                Ok(SrvCmd::Adopt(stream)) => {
                    crate::poll::tune_socket(&stream);
                    conns.adopt(&poll, stream);
                }
                Ok(SrvCmd::Complete {
                    token,
                    action,
                    delay,
                }) => {
                    if delay.is_zero() {
                        apply_action(&mut conns, token, action);
                    } else {
                        timers.insert(Instant::now() + delay, delay_seq);
                        delayed.insert(delay_seq, (token, action));
                        delay_seq += 1;
                    }
                }
                Ok(SrvCmd::Stop) => break 'run,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'run,
            }
        }

        // Socket readiness.
        for ev in &events {
            let Token(t) = ev.token();
            if t == WAKER_TOK.0 {
                continue;
            }
            if t == LISTENER_TOK.0 {
                if let Some(l) = &listener {
                    // Deal round-robin across the shards (self-adoption
                    // also rides the command queue so token assignment
                    // stays in one place).
                    accept_burst(l, |stream| {
                        all[rr % all.len()].send(SrvCmd::Adopt(stream));
                        rr += 1;
                    });
                }
                continue;
            }
            if (ev.is_readable() || ev.is_error()) && conns.is_open(t) {
                read_requests(&mut conns, t, &me, job_tx, &mut inbound);
            }
            if ev.is_writable() {
                conns.touch(t);
            }
        }

        // Expired reply delays.
        let now = Instant::now();
        while let Some(seq) = timers.pop_due(now) {
            if let Some((token, action)) = delayed.remove(&seq) {
                apply_action(&mut conns, token, action);
            }
        }

        conns.flush_dirty(&poll);
    }

    // Stop: drain unsent replies (bounded), then close everything.
    let drain_until = Instant::now() + DRAIN_DEADLINE;
    while Instant::now() < drain_until {
        conns.flush_all(&poll);
        if conns.drained() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    conns.close_all();
}

/// Pumps one readable connection, decoding request frames into jobs.
/// Kills the connection on protocol violations or death.
fn read_requests(
    conns: &mut ServerConns,
    token: usize,
    me: &ShardRef,
    job_tx: &Sender<Job>,
    inbound: &mut Vec<Bytes>,
) {
    let open = conns.pump(token, inbound);
    for buf in inbound.drain(..) {
        match Frame::parse(buf).and_then(|f| decode_request(&f).map(|req| (f.req_id, req))) {
            Ok((req_id, req)) => {
                let job = Job {
                    req,
                    req_id,
                    conn: ConnRef {
                        shard: me.clone(),
                        token,
                    },
                };
                if job_tx.send(job).is_err() {
                    conns.close(token); // post-shutdown: the service is gone
                    return;
                }
            }
            Err(e) => {
                // Answer best effort (the req_id may be unknowable).
                conns.push_last(token, encode_reply_parts(&Reply::Err(e), 0));
                return;
            }
        }
    }
    if !open {
        conns.close(token); // peer closed or died
    }
}

/// Applies a completion action to a connection (no-op if the
/// connection already died).
fn apply_action(conns: &mut ServerConns, token: usize, action: Action) {
    match action {
        Action::Frame(wf) => conns.push(token, wf),
        Action::Close => conns.close(token),
        Action::Truncate(full) => {
            let half = full.len() / 2;
            conns.push_last(token, WireFrame::contiguous(full[..half].to_vec()));
        }
    }
}

// ---------------------------------------------------------------------------
// Service thread
// ---------------------------------------------------------------------------

/// The single-threaded request forwarder; owns the wire fault script
/// and the worker's sender half.
fn service_loop(
    id: usize,
    jobs: &Receiver<Job>,
    mut worker: spcache_store::worker::WorkerHandle,
    mut wire_script: WorkerScript,
    fault_log: &Arc<FaultLog>,
    pump_tx: Sender<PendingReply>,
    shards: &[ShardRef],
) {
    let mut op: u64 = 0;
    while let Ok(Job { req, req_id, conn }) = jobs.recv() {
        if matches!(req, Request::Shutdown) {
            // Everything queued before this job has already been
            // forwarded; the worker drains FIFO and acks.
            let done = forward(&worker, Request::Shutdown);
            let ack = match done.and_then(|rx| rx.recv_timeout(FORWARD_DEADLINE).ok()) {
                Some(reply) => reply,
                None => Reply::Err(StoreError::WorkerDown(id)),
            };
            // The ack rides the conn's own shard queue, so it is
            // applied before that shard sees Stop.
            conn.reply(&ack, req_id);
            for s in shards {
                s.send(SrvCmd::Stop);
            }
            worker.shutdown();
            drop(pump_tx); // pump drains its remaining entries and exits
            return;
        }

        // Control requests bypass fault injection and op counting —
        // mirrored from the in-process worker loop.
        let mut delay = Duration::ZERO;
        let mut drop_conn = false;
        let mut truncate = false;
        if !req.is_control() {
            for action in wire_script.fire(op) {
                fault_log.record(id, op, action.clone());
                match action {
                    FaultAction::DropConnection => drop_conn = true,
                    FaultAction::TruncateFrame => truncate = true,
                    FaultAction::DelayFrame(pause) => delay += pause,
                    // Data actions never reach a wire script.
                    _ => unreachable!("data fault in wire script"),
                }
            }
            op += 1;
        }

        let Some(rx) = forward(&worker, req) else {
            // Worker thread is gone: every further request gets a
            // definitive WorkerDown, same as a closed channel in-process.
            conn.reply(&Reply::Err(StoreError::WorkerDown(id)), req_id);
            continue;
        };

        let _ = pump_tx.send(PendingReply {
            rx,
            conn,
            req_id,
            worker_id: id,
            delay,
            drop_conn,
            truncate,
            deadline: Instant::now() + FORWARD_DEADLINE,
        });
    }
}

// ---------------------------------------------------------------------------
// Reply pump
// ---------------------------------------------------------------------------

/// Waits on every in-flight worker reply at once and turns each into a
/// shard completion: the scripted wire behaviour (delay / drop /
/// truncate) rides along, and entries that outlive [`FORWARD_DEADLINE`]
/// are dropped silently — the `LoseReply` shape, the remote client
/// times out.
///
/// Completions are delivered in **op order**: the pending list keeps
/// submission order and every wake sweeps it front-to-back, delivering
/// all ready entries. The worker serves FIFO, so a ready reply implies
/// every earlier non-lost reply is ready too — the sweep therefore
/// flushes reply frames onto each connection in the same deterministic
/// order the requests were served, even when a pipelined burst makes
/// many replies ready within one wake. Only scripted lost replies are
/// skipped over (they expire in place).
fn pump_loop(inject: &Receiver<PendingReply>) {
    let mut pendings: Vec<PendingReply> = Vec::new();
    let mut inject_open = true;
    loop {
        if !inject_open && pendings.is_empty() {
            return;
        }

        // The select set is rebuilt each round (registration is cheap
        // in the channel shim; the fork-join client does the same).
        let mut sel = Select::new();
        if inject_open {
            sel.recv(inject);
        }
        for p in &pendings {
            sel.recv(&p.rx);
        }
        let next_deadline = pendings.iter().map(|p| p.deadline).min();
        let ready = match next_deadline {
            Some(d) => sel.ready_deadline(d).ok(),
            None => Some(sel.ready()),
        };

        if ready.is_some() {
            if inject_open {
                loop {
                    match inject.try_recv() {
                        Ok(p) => pendings.push(p),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            inject_open = false;
                            break;
                        }
                    }
                }
            }
            // Ordered sweep: deliver every ready reply, oldest first.
            let mut i = 0;
            while i < pendings.len() {
                match pendings[i].rx.try_recv() {
                    Ok(reply) => {
                        let p = pendings.remove(i);
                        deliver(&p, &reply);
                    }
                    Err(TryRecvError::Empty) => i += 1, // not ready yet
                    Err(TryRecvError::Disconnected) => {
                        // Worker crashed mid-request (Crash fault): tell
                        // the client definitively.
                        let p = pendings.remove(i);
                        p.conn
                            .reply(&Reply::Err(StoreError::WorkerDown(p.worker_id)), p.req_id);
                    }
                }
            }
        }

        // LoseReply shape: expired entries vanish without a frame.
        let now = Instant::now();
        pendings.retain(|p| p.deadline > now);
    }
}

/// Turns a worker reply into the scripted completion for its connection.
fn deliver(p: &PendingReply, reply: &Reply) {
    if p.drop_conn {
        p.conn.complete(Action::Close, p.delay);
    } else if p.truncate {
        p.conn
            .complete(Action::Truncate(encode_reply(reply, p.req_id)), p.delay);
    } else {
        p.conn
            .complete(Action::Frame(encode_reply_parts(reply, p.req_id)), p.delay);
    }
}

/// Sends one request into the channel worker; `None` when the worker
/// thread has exited.
fn forward(
    worker: &spcache_store::worker::WorkerHandle,
    req: Request,
) -> Option<Receiver<Reply>> {
    let (tx, rx) = crossbeam::channel::bounded(1);
    worker
        .sender()
        .send(Envelope { req, reply: tx })
        .ok()
        .map(|()| rx)
}
