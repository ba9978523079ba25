//! Client-side TCP transport: [`TcpTransport`] implements the store's
//! [`Transport`] trait over real sockets, driven by readiness-polled
//! event loops instead of per-connection reader threads.
//!
//! One connection per worker, lazily established and pooled.
//! Connections are sharded across a small set of I/O loop threads
//! (worker `w` lives on shard `w % N`, one shard per core by default);
//! each loop multiplexes its sockets with a [`mio::Poll`]er. Each
//! in-flight request gets a fresh `req_id`; the owning loop
//! demultiplexes reply frames back to the waiting [`Receiver`]s, so
//! any number of requests overlap on one socket and replies may arrive
//! out of order (the fork-join read path depends on this).
//!
//! The data path is batched, and zero-copy outbound: submitters encode frames as
//! header + [`bytes::Bytes`] payload parts ([`crate::frame::try_encode_request_parts`]),
//! the loop gathers every frame queued since its last wakeup into
//! shared `writev` calls ([`crate::poll::WriteQueue`]), and inbound
//! frames are decoded incrementally off non-blocking reads
//! ([`crate::poll::FrameReader`]). A burst of pipelined requests —
//! e.g. the fork-join fan-out submitting k partition reads at once via
//! [`Transport::submit_landing`] — shares one syscall round instead of
//! paying one write and one thread handoff each.
//!
//! Inbound, a reply crosses user space once. A partition `Get` of a
//! contiguous read rides with its [`Region`] of the read's output; when
//! the frame header of its `Data` reply shows a payload of exactly the
//! region's length, the loop claims the region, copies in what the read
//! that found the header held, reads the rest from the socket straight
//! into it, lands it, and answers the request with an empty `Data` —
//! the bytes are already where the reader wants them. A reply of any
//! other length, or for a region taken meanwhile, is read into a buffer
//! of its own as before. A request reaped while its payload is half
//! landed stops owning the region: the loop finishes reading the frame
//! off the socket (framing depends on it) and frees the region unlanded.
//!
//! Failure mapping (the wire-level half of the retry story):
//!
//! * connect/write/read failure, connection reset, a frame cut off
//!   mid-stream → [`StoreError::Io`] — *retryable*; the remote may be
//!   healthy and a reconnect can succeed,
//! * protocol violation in a reply → [`StoreError::Codec`] — permanent,
//! * no reply within the deadline → the caller's `recv_timeout` yields
//!   [`StoreError::Timeout`] exactly as with the in-process channel
//!   transport.
//!
//! The configured [`deadline`](TcpTransport::with_deadline) (take it
//! from `RetryPolicy::deadline`) bounds connection establishment, and a
//! request still unanswered `2 * deadline` after its submission is
//! reaped with [`StoreError::Timeout`], so the pending map cannot grow
//! without bound. Each loop keeps its requests' deadlines in submit
//! order and sleeps until the oldest *unanswered* one: a deadline
//! leaves the queue with its reply, and a request that was answered
//! never wakes the loop again.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use spcache_store::landing::{Claim, Region};
use spcache_store::rpc::{Reply, Request, StoreError};
use spcache_store::transport::Transport;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::frame::{data_reply_id, decode_reply, try_encode_request_parts, Frame};
use crate::poll::{FrameReader, Inbound, PumpStatus, ReadBuf, WireFrame, WriteQueue};

/// Token reserved for the shard's cross-thread waker.
const WAKER: Token = Token(0);

/// Socket tokens are the worker index shifted past the waker slot.
fn worker_token(worker: usize) -> Token {
    Token(worker + 1)
}

/// Work handed from submitters to a shard's event loop.
enum Cmd {
    /// Adopt a freshly connected (non-blocking) socket for `worker`.
    Dial { worker: usize, stream: TcpStream },
    /// Queue one encoded request frame on `worker`'s connection.
    Submit {
        worker: usize,
        req_id: u64,
        frame: WireFrame,
        /// Reap the pending entry with `Timeout` at this instant.
        reap_at: Instant,
        waiter: Waiter,
    },
    /// Drain and exit (transport drop).
    Shutdown,
    /// Report how many deadlines the loop still holds.
    #[cfg(test)]
    Deadlines(Sender<usize>),
}

/// Who waits for one request's reply: its one-shot route, and the region
/// its `Data` payload may land in.
struct Waiter {
    reply: Sender<Reply>,
    region: Option<Region>,
}

impl Waiter {
    /// Answers the request. The region handle is dropped first, so a
    /// reader holding every reply of its read finds no loop still holding
    /// its output.
    fn answer(self, reply: Reply) {
        drop(self.region);
        let _ = self.reply.send(reply);
    }
}

/// Peer state shared between submitters and the owning shard: the
/// `connected` flag is the dial gate — set under its lock by the first
/// submitter to find it false, cleared by the loop when the connection
/// dies so the next submit redials.
struct PeerShared {
    addr: SocketAddr,
    connected: Mutex<bool>,
}

/// Handle to one I/O loop thread.
struct Shard {
    tx: Sender<Cmd>,
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

/// A [`Transport`] over real TCP connections, one per worker, served
/// by sharded readiness event loops.
pub struct TcpTransport {
    peers: Arc<Vec<PeerShared>>,
    shards: Vec<Shard>,
    next_id: AtomicU64,
    deadline: Duration,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addrs", &self.addrs())
            .field("io_shards", &self.shards.len())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl TcpTransport {
    /// A transport speaking to workers at `addrs` (worker `i` ↔
    /// `addrs[i]`), with the default 5 s deadline and one I/O shard
    /// per core (capped at the worker count).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or the poller cannot be created.
    pub fn connect(addrs: Vec<SocketAddr>) -> Self {
        let shards = crate::poll::default_io_shards().min(addrs.len().max(1));
        Self::connect_sharded(addrs, shards)
    }

    /// Like [`connect`](TcpTransport::connect) with an explicit I/O
    /// shard count (the `spcached --io-shards` flag lands here).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or the poller cannot be created.
    pub fn connect_sharded(addrs: Vec<SocketAddr>, io_shards: usize) -> Self {
        assert!(!addrs.is_empty(), "need at least one worker address");
        crate::poll::tune_allocator_once();
        let peers: Arc<Vec<PeerShared>> = Arc::new(
            addrs
                .into_iter()
                .map(|addr| PeerShared {
                    addr,
                    connected: Mutex::new(false),
                })
                .collect(),
        );
        let n = io_shards.clamp(1, peers.len());
        let shards = (0..n)
            .map(|i| spawn_shard(i, Arc::clone(&peers)))
            .collect();
        TcpTransport {
            peers,
            shards,
            next_id: AtomicU64::new(1),
            deadline: Duration::from_secs(5),
        }
    }

    /// Sets the socket deadline (builder style). Pass the client's
    /// `RetryPolicy::deadline` so wire-level waits and the retry loop
    /// agree on what "too slow" means.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline.max(Duration::from_millis(1));
        self
    }

    /// The worker address list.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.peers.iter().map(|p| p.addr).collect()
    }

    /// Number of I/O loop threads serving this transport.
    pub fn io_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, worker: usize) -> &Shard {
        &self.shards[worker % self.shards.len()]
    }

    /// Ensures `worker`'s connection is live: if it is not, dials
    /// synchronously and hands the stream to the loop as a `Dial`.
    /// [`StoreError::Io`] when the dial fails or the loop is gone.
    /// Serialises concurrent dial attempts on the peer's lock.
    fn ensure_connected(&self, worker: usize) -> Result<(), StoreError> {
        let peer = &self.peers[worker];
        let mut connected = peer.connected.lock();
        if *connected {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&peer.addr, self.deadline)
            .and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                crate::poll::tune_socket(&s);
                Ok(s)
            })
            .map_err(|_| StoreError::Io(worker))?;
        let shard = self.shard_of(worker);
        shard
            .tx
            .send(Cmd::Dial { worker, stream })
            .map_err(|_| StoreError::Io(worker))?;
        *connected = true;
        Ok(())
    }

    /// Encodes `req` under a fresh `req_id`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for a frame over [`crate::frame::MAX_FRAME`].
    fn encode(&self, req: &Request) -> Result<(u64, WireFrame), StoreError> {
        let req_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Ok((req_id, try_encode_request_parts(req, req_id)?))
    }

    /// Hands one encoded request to `worker`'s shard (with its reap
    /// deadline and landing region) without waking it, and returns the
    /// reply receiver.
    fn enqueue(
        &self,
        worker: usize,
        (req_id, frame): (u64, WireFrame),
        region: Option<Region>,
    ) -> Result<Receiver<Reply>, StoreError> {
        self.ensure_connected(worker)?;
        let (tx, rx) = bounded(1);
        let cmd = Cmd::Submit {
            worker,
            req_id,
            frame,
            reap_at: Instant::now() + self.deadline * 2,
            waiter: Waiter { reply: tx, region },
        };
        self.shard_of(worker)
            .tx
            .send(cmd)
            .map_err(|_| StoreError::Io(worker))?;
        Ok(rx)
    }

    /// How many deadlines the loops still hold once the answered ones
    /// at the front are gone.
    #[cfg(test)]
    fn deadlines_held(&self) -> usize {
        let (tx, rx) = unbounded();
        for shard in &self.shards {
            shard.tx.send(Cmd::Deadlines(tx.clone())).unwrap();
            shard.waker.wake().unwrap();
        }
        self.shards.iter().map(|_| rx.recv().unwrap()).sum()
    }

    /// Worker indices reach the transport from placements the master
    /// sent over the wire: one outside the fleet is a typed, permanent
    /// error, never an index panic.
    fn check_workers(&self, mut workers: impl Iterator<Item = usize>) -> Result<(), StoreError> {
        let n = self.peers.len();
        match workers.find(|&w| w >= n) {
            Some(w) => Err(StoreError::Codec(format!(
                "request names worker {w} of a {n}-worker fleet"
            ))),
            None => Ok(()),
        }
    }
}

impl Transport for TcpTransport {
    fn n_workers(&self) -> usize {
        self.peers.len()
    }

    fn submit(&self, worker: usize, req: Request) -> Result<Receiver<Reply>, StoreError> {
        self.check_workers(std::iter::once(worker))?;
        let rx = self.enqueue(worker, self.encode(&req)?, None)?;
        let _ = self.shard_of(worker).waker.wake();
        Ok(rx)
    }

    fn submit_batch(
        &self,
        reqs: Vec<(usize, Request)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        self.submit_landing(reqs.into_iter().map(|(w, req)| (w, req, None)).collect())
    }

    /// Batched submission: every frame reaches its shard before a
    /// single wake per shard, so the loop flushes the whole burst in
    /// shared `writev` calls — this is what makes a k-way fork-join
    /// read one syscall round instead of k. A request's region travels
    /// with it to the loop that reads its reply. A bad worker index or an
    /// oversized frame anywhere in the batch refuses all of it.
    fn submit_landing(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        self.check_workers(reqs.iter().map(|&(w, ..)| w))?;
        let encoded = reqs
            .into_iter()
            .map(|(worker, req, region)| Ok((worker, self.encode(&req)?, region)))
            .collect::<Result<Vec<_>, StoreError>>()?;
        let mut receivers = Vec::with_capacity(encoded.len());
        let mut woken = vec![false; self.shards.len()];
        for (worker, frame, region) in encoded {
            receivers.push(self.enqueue(worker, frame, region)?);
            woken[worker % self.shards.len()] = true;
        }
        for (i, fire) in woken.into_iter().enumerate() {
            if fire {
                let _ = self.shards[i].waker.wake();
            }
        }
        Ok(receivers)
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            let _ = shard.tx.send(Cmd::Shutdown);
            let _ = shard.waker.wake();
            if let Some(t) = shard.thread.take() {
                let _ = t.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The shard event loop
// ---------------------------------------------------------------------------

/// One live multiplexed connection owned by a shard loop.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    pending: HashMap<u64, Waiter>,
    /// Whether the socket is currently registered for write readiness.
    writable_armed: bool,
}

impl Conn {
    /// Fails every request in flight. The reader goes first: a payload
    /// it was landing never lands, and its claim is released before any
    /// caller hears of the failure.
    fn fail_all(&mut self, err: &StoreError) {
        self.reader = FrameReader::new();
        for (_, waiter) in self.pending.drain() {
            waiter.answer(Reply::Err(err.clone()));
        }
    }
}

/// One pump's view of a connection's replies: frames completed in
/// buffers of their own, and `Data` payloads landed in the regions their
/// requests rode with.
struct Replies<'a> {
    pending: &'a HashMap<u64, Waiter>,
    frames: &'a mut Vec<Bytes>,
    landed: &'a mut Vec<(u64, Claim)>,
}

impl Inbound for Replies<'_> {
    fn frame(&mut self, body: Bytes) {
        self.frames.push(body);
    }

    /// A `Data` reply to a request still waiting with a region of exactly
    /// this payload's length, free, lands there.
    fn offer(&mut self, header: &[u8], len: usize) -> Option<(u64, Claim)> {
        let req_id = data_reply_id(header)?;
        let region = self.pending.get(&req_id)?.region.as_ref()?;
        Some((req_id, region.claim(len)?))
    }

    fn landed(&mut self, req_id: u64, claim: Claim) {
        self.landed.push((req_id, claim));
    }
}

fn spawn_shard(index: usize, peers: Arc<Vec<PeerShared>>) -> Shard {
    let poll = Poll::new().expect("create poller");
    let waker = Waker::new(poll.registry(), WAKER).expect("create waker");
    let (tx, rx) = unbounded();
    let thread = std::thread::Builder::new()
        .name(format!("spcache-net-io-{index}"))
        .spawn(move || shard_loop(poll, rx, &peers))
        .expect("spawn io shard");
    Shard {
        tx,
        waker,
        thread: Some(thread),
    }
}

/// The reap deadlines of one loop's requests, `(reap_at, worker,
/// req_id)` in submit order — which is deadline order, every request of
/// a transport carrying the same `2 * deadline` (submitters racing each
/// other into the queue can swap neighbours by the microseconds between
/// them, which only delays a reap by as much). `req_id`s are unique per
/// transport, so an entry outliving its connection names nothing.
type Deadlines = VecDeque<(Instant, usize, u64)>;

/// Discards the deadlines at the front whose requests were answered (or
/// failed with their connection) and returns the oldest unanswered
/// request's — the only instant the loop has to wake for.
fn next_reap(deadlines: &mut Deadlines, conns: &HashMap<usize, Conn>) -> Option<Instant> {
    while let Some(&(at, worker, req_id)) = deadlines.front() {
        let unanswered = |c: &Conn| c.pending.contains_key(&req_id);
        if conns.get(&worker).is_some_and(unanswered) {
            return Some(at);
        }
        deadlines.pop_front();
    }
    None
}

/// The readiness loop: drains submitter commands, pumps readable
/// sockets through the incremental decoder, batch-flushes write
/// queues, and reaps expired request deadlines — all on one thread,
/// no per-connection threads anywhere.
fn shard_loop(mut poll: Poll, rx: Receiver<Cmd>, peers: &[PeerShared]) {
    let mut events = Events::with_capacity(256);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut deadlines = Deadlines::new();
    let mut buf = ReadBuf::new();
    let mut frames: Vec<Bytes> = Vec::new();
    let mut landed: Vec<(u64, Claim)> = Vec::new();

    'run: loop {
        let timeout = next_reap(&mut deadlines, &conns)
            .map(|at| at.saturating_duration_since(Instant::now()));
        if poll.poll(&mut events, timeout).is_err() {
            break 'run; // poller failure is fatal; drain below
        }

        // Commands first: frames submitted since the last wakeup land
        // in the write queues before the single flush pass below.
        let mut dirty: Vec<usize> = Vec::new();
        loop {
            match rx.try_recv() {
                Ok(Cmd::Dial { worker, stream }) => {
                    let ok = poll
                        .registry()
                        .register(&stream, worker_token(worker), Interest::READABLE)
                        .is_ok();
                    if ok {
                        conns.insert(
                            worker,
                            Conn {
                                stream,
                                reader: FrameReader::new(),
                                wq: WriteQueue::new(),
                                pending: HashMap::new(),
                                writable_armed: false,
                            },
                        );
                    } else {
                        *peers[worker].connected.lock() = false;
                    }
                }
                Ok(Cmd::Submit {
                    worker,
                    req_id,
                    frame,
                    reap_at,
                    waiter,
                }) => match conns.get_mut(&worker) {
                    Some(conn) => {
                        conn.pending.insert(req_id, waiter);
                        conn.wq.push(frame);
                        deadlines.push_back((reap_at, worker, req_id));
                        if !dirty.contains(&worker) {
                            dirty.push(worker);
                        }
                    }
                    // The connection died between submit and delivery;
                    // a retryable error sends the caller back around.
                    None => waiter.answer(Reply::Err(StoreError::Io(worker))),
                },
                Ok(Cmd::Shutdown) | Err(TryRecvError::Disconnected) => break 'run,
                #[cfg(test)]
                Ok(Cmd::Deadlines(held)) => {
                    next_reap(&mut deadlines, &conns);
                    let _ = held.send(deadlines.len());
                }
                Err(TryRecvError::Empty) => break,
            }
        }

        // Socket readiness.
        for ev in &events {
            let Token(t) = ev.token();
            if t == WAKER.0 {
                continue;
            }
            let worker = t - 1;
            let Some(conn) = conns.get_mut(&worker) else {
                continue;
            };
            if ev.is_readable() || ev.is_error() {
                if let Some(death) = pump_replies(conn, worker, &mut buf, &mut frames, &mut landed) {
                    kill_conn(&poll, &mut conns, peers, worker, &death);
                    continue;
                }
            }
            if ev.is_writable() && !dirty.contains(&worker) {
                dirty.push(worker);
            }
        }

        // One flush per touched connection: everything queued above
        // goes out in batched vectored writes.
        for worker in dirty {
            let Some(conn) = conns.get_mut(&worker) else {
                continue;
            };
            if let Err(death) = flush_conn(&poll, conn, worker) {
                kill_conn(&poll, &mut conns, peers, worker, &death);
            }
        }

        // Reap the requests whose deadline passed unanswered.
        let now = Instant::now();
        while let Some(&(at, worker, req_id)) = deadlines.front() {
            if at > now {
                break;
            }
            deadlines.pop_front();
            let waiting = conns
                .get_mut(&worker)
                .and_then(|c| c.pending.remove(&req_id));
            // A payload half landed for it finds no waiter when its frame
            // ends, and frees its region unlanded.
            if let Some(waiter) = waiting {
                waiter.answer(Reply::Err(StoreError::Timeout(worker)));
            }
        }
    }

    // Shutdown (or poller death): fail whatever is still in flight so
    // no caller blocks forever, and mark peers disconnected.
    for (worker, mut conn) in conns.drain() {
        conn.fail_all(&StoreError::Io(worker));
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        *peers[worker].connected.lock() = false;
    }
}

/// Pumps a readable connection and routes every decoded reply to its
/// waiting receiver; a payload that landed in its region publishes the
/// region first and answers with an empty `Data`. Returns the
/// connection's cause of death, if any.
fn pump_replies(
    conn: &mut Conn,
    worker: usize,
    buf: &mut ReadBuf,
    frames: &mut Vec<Bytes>,
    landed: &mut Vec<(u64, Claim)>,
) -> Option<StoreError> {
    frames.clear();
    let mut replies = Replies {
        pending: &conn.pending,
        frames: &mut *frames,
        landed: &mut *landed,
    };
    let status = conn.reader.pump_with(buf, &mut conn.stream, &mut replies);
    for (req_id, claim) in landed.drain(..) {
        // Reaped meanwhile: the claim drops unlanded.
        if let Some(waiter) = conn.pending.remove(&req_id) {
            let reply = if claim.land() {
                Reply::Data(Bytes::new())
            } else {
                Reply::Err(StoreError::Io(worker))
            };
            waiter.answer(reply);
        }
    }
    for buf in frames.drain(..) {
        match Frame::parse(buf).and_then(|f| decode_reply(&f).map(|r| (f.req_id, r))) {
            Ok((req_id, reply)) => {
                if let Some(waiter) = conn.pending.remove(&req_id) {
                    waiter.answer(reply);
                }
            }
            // A malformed reply poisons the whole stream (framing is
            // lost); surface the codec error and drop the connection.
            Err(e) => return Some(e),
        }
    }
    match status {
        Ok(PumpStatus::Open) => None,
        Ok(PumpStatus::Closed) | Err(_) => Some(StoreError::Io(worker)),
    }
}

/// Flushes a connection's write queue, arming or disarming write
/// interest to match whether the socket pushed back.
fn flush_conn(poll: &Poll, conn: &mut Conn, worker: usize) -> Result<(), StoreError> {
    match conn.wq.flush(&mut conn.stream) {
        Ok(drained) => {
            if drained && conn.writable_armed {
                conn.writable_armed = false;
                let _ = poll
                    .registry()
                    .reregister(&conn.stream, worker_token(worker), Interest::READABLE);
            } else if !drained && !conn.writable_armed {
                conn.writable_armed = true;
                let _ = poll.registry().reregister(
                    &conn.stream,
                    worker_token(worker),
                    Interest::READABLE | Interest::WRITABLE,
                );
            }
            Ok(())
        }
        Err(_) => Err(StoreError::Io(worker)),
    }
}

/// Tears down a dead connection: fails its in-flight requests with
/// `death` and clears the peer's connected flag so the next submit
/// redials.
fn kill_conn(
    poll: &Poll,
    conns: &mut HashMap<usize, Conn>,
    peers: &[PeerShared],
    worker: usize,
    death: &StoreError,
) {
    if let Some(mut conn) = conns.remove(&worker) {
        let _ = poll.registry().deregister(&conn.stream);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        conn.fail_all(death);
    }
    *peers[worker].connected.lock() = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_reply, read_frame, write_frame};
    use spcache_store::landing::Landing;
    use spcache_store::rpc::PartKey;
    use std::net::TcpListener;

    #[test]
    fn refused_connection_is_retryable_io() {
        // Bind-then-drop guarantees a port nobody listens on.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t = TcpTransport::connect(vec![addr]).with_deadline(Duration::from_millis(200));
        let err = t
            .submit(0, Request::Get { key: PartKey::new(1, 0) })
            .expect_err("must fail");
        assert_eq!(err, StoreError::Io(0));
        assert!(err.is_retryable());
    }

    #[test]
    fn server_closing_mid_request_fails_pending_with_io() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Read the request frame, then slam the connection shut
            // without replying.
            let mut s = stream.try_clone().unwrap();
            let _ = read_frame(&mut s);
            drop(stream);
        });
        let t = TcpTransport::connect(vec![addr]).with_deadline(Duration::from_millis(300));
        let rx = t
            .submit(0, Request::Get { key: PartKey::new(1, 0) })
            .unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply, Reply::Err(StoreError::Io(0)));
        server.join().unwrap();
    }

    #[test]
    fn garbage_reply_surfaces_codec_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_frame(&mut stream);
            // A frame with a bogus version byte.
            let mut evil = vec![];
            evil.extend_from_slice(&10u32.to_le_bytes());
            evil.extend_from_slice(&[0xBA; 10]);
            use std::io::Write;
            stream.write_all(&evil).unwrap();
            stream.flush().unwrap();
            // Hold the connection open long enough for the client to
            // parse the garbage.
            std::thread::sleep(Duration::from_millis(200));
        });
        let t = TcpTransport::connect(vec![addr]).with_deadline(Duration::from_millis(300));
        let rx = t.submit(0, Request::Ping).unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let Reply::Err(e) = reply else {
            panic!("expected error, got {reply:?}")
        };
        assert!(matches!(e, StoreError::Codec(_)), "got {e:?}");
        assert!(!e.is_retryable(), "codec violations must be permanent");
        server.join().unwrap();
    }

    /// A blocking echo server that answers every request with a `Pong`
    /// carrying the request id in the epoch field, slightly shuffling
    /// reply order to exercise out-of-order demultiplexing.
    fn pong_server(listener: TcpListener) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut held: Option<Vec<u8>> = None;
            while let Ok(Some(buf)) = read_frame(&mut stream) {
                let frame = Frame::parse(buf).unwrap();
                let wire = encode_reply(
                    &Reply::Pong {
                        worker: 0,
                        epoch: frame.req_id,
                    },
                    frame.req_id,
                );
                // Hold every other reply back one frame: replies go out
                // out of order relative to requests.
                match held.take() {
                    None => held = Some(wire),
                    Some(prev) => {
                        write_frame(&mut stream, &wire).unwrap();
                        write_frame(&mut stream, &prev).unwrap();
                    }
                }
            }
            if let Some(prev) = held {
                let _ = write_frame(&mut stream, &prev);
            }
        })
    }

    /// Waits for the `Pong` of every route.
    fn await_pongs(routes: Vec<Receiver<Reply>>) {
        for rx in routes {
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(matches!(reply, Reply::Pong { .. }), "got {reply:?}");
        }
    }

    #[test]
    fn a_worker_index_outside_the_fleet_is_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = pong_server(listener);
        let t = TcpTransport::connect(vec![addr]);
        let refused = |r: Result<(), StoreError>| {
            let e = r.expect_err("index 1 of a 1-worker fleet accepted");
            assert!(
                matches!(e, StoreError::Codec(_)) && !e.is_retryable(),
                "got {e:?}"
            );
        };
        refused(t.submit(1, Request::Ping).map(drop));
        refused(t.submit(usize::MAX, Request::Ping).map(drop));
        // All or nothing: the good request ahead of the bad one was not
        // sent either.
        refused(
            t.submit_batch(vec![(0, Request::Ping), (1, Request::Ping)])
                .map(drop),
        );
        // Two, because the server holds every other reply back.
        await_pongs(
            t.submit_batch(vec![(0, Request::Ping), (0, Request::Ping)])
                .unwrap(),
        );
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn a_put_too_large_for_one_frame_is_refused_before_it_is_queued() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = pong_server(listener);
        let t = TcpTransport::connect(vec![addr]);
        // Zeroed and never touched: the pages are never faulted in.
        let put = Request::Put {
            key: PartKey::new(1, 0),
            data: Bytes::from(vec![0u8; crate::frame::MAX_FRAME as usize]),
            sum: 0,
        };
        let refused = |r: Result<(), StoreError>| {
            let e = r.expect_err("an oversized frame was queued");
            assert!(
                matches!(e, StoreError::Codec(_)) && !e.is_retryable(),
                "got {e:?}"
            );
        };
        refused(t.submit(0, put.clone()).map(drop));
        // All or nothing: the Ping ahead of the Put was not sent either.
        refused(t.submit_batch(vec![(0, Request::Ping), (0, put)]).map(drop));
        // Two, because the server holds every other reply back.
        await_pongs(
            t.submit_batch(vec![(0, Request::Ping), (0, Request::Ping)])
                .unwrap(),
        );
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn a_deadline_leaves_with_its_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = pong_server(listener);
        let t = TcpTransport::connect(vec![addr]).with_deadline(Duration::from_secs(30));
        for _ in 0..50 {
            await_pongs(
                t.submit_batch(vec![(0, Request::Ping), (0, Request::Ping)])
                    .unwrap(),
            );
        }
        assert_eq!(
            t.deadlines_held(),
            0,
            "answered requests still wait to expire"
        );
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn a_hung_worker_behind_ten_thousand_answered_requests_is_still_reaped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = pong_server(listener);
        // Accepts (the kernel does) and never answers.
        let hung = TcpListener::bind("127.0.0.1:0").unwrap();
        let deadline = Duration::from_millis(150);
        let t = TcpTransport::connect_sharded(vec![addr, hung.local_addr().unwrap()], 1)
            .with_deadline(deadline);
        for _ in 0..100 {
            await_pongs(
                t.submit_batch((0..100).map(|_| (0, Request::Ping)).collect())
                    .unwrap(),
            );
        }
        let t0 = Instant::now();
        let rx = t.submit(1, Request::Ping).unwrap();
        // Traffic that is answered while the hung request waits neither
        // hides it nor reaps it early.
        await_pongs(
            t.submit_batch(vec![(0, Request::Ping), (0, Request::Ping)])
                .unwrap(),
        );
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply, Reply::Err(StoreError::Timeout(1)));
        let waited = t0.elapsed();
        assert!(
            waited >= deadline * 2,
            "reaped after {waited:?}, before 2 x {deadline:?}"
        );
        assert!(
            waited < deadline * 2 + Duration::from_secs(1),
            "reaped only after {waited:?}"
        );
        assert_eq!(t.deadlines_held(), 0);
        drop(t);
        server.join().unwrap();
    }

    fn file(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 5) as u8).collect()
    }

    #[test]
    fn a_data_reply_lands_in_its_region_and_arrives_without_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let data = file(200_001);
        let mut landing = Landing::new(data.len(), 2);
        let (r0, r1) = (landing.range(0), landing.range(1));
        // Part 0 comes back exact, part 1 one byte long.
        let replies = [data[r0].to_vec(), [&data[r1.clone()], &[9][..]].concat()];
        let long = replies[1].clone();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for body in replies {
                let get = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
                let wire = encode_reply(&Reply::Data(Bytes::from(body)), get.req_id);
                write_frame(&mut stream, &wire).unwrap();
            }
            let _ = read_frame(&mut stream);
        });
        let t = TcpTransport::connect(vec![addr]);
        let get = |j| Request::Get { key: PartKey::new(1, j) };
        let routes = t
            .submit_landing(vec![(0, get(0), landing.region(0)), (0, get(1), landing.region(1))])
            .unwrap();
        let wait = Duration::from_secs(5);
        assert_eq!(routes[0].recv_timeout(wait).unwrap(), Reply::Data(Bytes::new()));
        assert!(landing.accept(0), "the reply came back empty but its region is not landed");
        assert_eq!(routes[1].recv_timeout(wait).unwrap(), Reply::Data(Bytes::from(long)));
        assert!(!landing.accept(1), "a reply one byte long landed");
        landing.place(1, Bytes::from(data[r1].to_vec()));
        assert_eq!(landing.into_vec(), data);
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn a_reply_reaped_while_half_landed_never_reaches_the_file() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let data = file(300_000);
        let (go, went) = unbounded::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let get = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
            // A reply of the right length with the wrong bytes, torn in
            // two by a stall longer than the reap deadline.
            let wire = encode_reply(&Reply::Data(Bytes::from(vec![0xEE; 300_000])), get.req_id);
            let half = wire.len() / 2;
            write_frame(&mut stream, &wire[..half]).unwrap();
            went.recv().unwrap();
            write_frame(&mut stream, &wire[half..]).unwrap();
            // Answered only after the torn reply's last byte was read.
            let ping = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
            let pong = Reply::Pong { worker: 0, epoch: 0 };
            write_frame(&mut stream, &encode_reply(&pong, ping.req_id)).unwrap();
            let _ = read_frame(&mut stream);
        });
        let t = TcpTransport::connect(vec![addr]).with_deadline(Duration::from_millis(500));
        let mut landing = Landing::new(data.len(), 1);
        let get = Request::Get { key: PartKey::new(1, 0) };
        let route = t.submit_landing(vec![(0, get, landing.region(0))]).unwrap();
        let wait = Duration::from_secs(5);
        assert_eq!(route[0].recv_timeout(wait).unwrap(), Reply::Err(StoreError::Timeout(0)));
        // The true bytes arrive another way (a decode) while the loop
        // still holds the region mid-frame: they are staged beside it.
        landing.place(0, Bytes::from(data.clone()));
        go.send(()).unwrap();
        let pong = t.submit(0, Request::Ping).unwrap().recv_timeout(wait).unwrap();
        assert!(matches!(pong, Reply::Pong { .. }), "got {pong:?}");
        let region = landing.region(0).unwrap();
        assert!(region.claim(data.len()).is_some(), "the reaped payload landed");
        drop(region);
        assert_eq!(landing.into_vec(), data, "later bytes reached the file");
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn pipelined_batch_multiplexes_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = pong_server(listener);

        let t = TcpTransport::connect(vec![addr]).with_deadline(Duration::from_secs(2));
        let reqs: Vec<(usize, Request)> = (0..128).map(|_| (0, Request::Ping)).collect();
        let rxs = t.submit_batch(reqs).unwrap();
        // Every receiver gets the pong for *its* request id, proving
        // the demultiplexer never cross-wires replies under batching.
        let mut epochs = Vec::new();
        for rx in rxs {
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            let Reply::Pong { epoch, .. } = reply else {
                panic!("expected pong, got {reply:?}")
            };
            epochs.push(epoch);
        }
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 128, "every request got a distinct reply");
        assert_eq!(epochs, sorted, "receivers arrived in submit order");
        drop(t);
        server.join().unwrap();
    }
}
