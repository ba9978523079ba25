//! Client-side TCP transport: [`TcpTransport`] implements the store's
//! [`Transport`] trait over real sockets, driven by the threads that
//! wait for their replies instead of by per-connection reader threads.
//!
//! One connection per worker, lazily established and pooled.
//! Connections are sharded across a small set of I/O loops (worker `w`
//! lives on shard `w % N`, one shard per core by default); each loop
//! keeps its sockets in the connection table the server loop uses too
//! (`poll::Conns`: registration, write-interest arming, teardown) and
//! multiplexes them with a [`mio::Poll`]er. Each in-flight request gets
//! a fresh `req_id` and an entry in its loop's one pending map,
//! `req_id → (worker, waiter)`; the loop demultiplexes reply frames back
//! to the waiting [`Receiver`]s, so any number of requests overlap on one
//! socket and replies may arrive out of order (the fork-join read path
//! depends on this). A reply answers a request only if it arrived on the
//! connection the request was sent on. When a connection dies, its
//! reader goes first (so a half-landed payload releases its region) and
//! then its worker's requests fail with the cause of death.
//!
//! **Who drives a loop.** A loop's whole state — poller, connections,
//! pending map, reap deadlines, read buffer — sits behind one lock, and
//! whichever thread holds the lock drives it. A submitter that gets the
//! lock queues its frames and flushes them itself. A caller waiting on
//! its routes ([`Transport::ready`], which `Join::next` and
//! [`Transport::call`] wait through) takes the lock and runs the loop's
//! `poll` itself until one of its routes holds a reply or its deadline
//! passes, handing replies that belong to other callers to their
//! channels on the way. So a sequential request crosses no thread inside
//! the transport: the thread that sent it reads its reply. A thread that
//! finds the lock held queues its frames as a command, wakes the holder
//! and waits on its channel: whoever drives routes the reply.
//!
//! Each shard keeps one standby thread for the work no caller drives —
//! the reply to a dropped receiver (read repair), a partial write left
//! behind, a reap, a follower whose driver returned first, a wait whose
//! routes span shards, a route received from directly. It sleeps on a
//! poller of its own. Whoever lets go of the loop with work in flight
//! arms the shard's poller in the standby's for one event
//! (`EPOLLONESHOT`), and a caller that takes the lock to drive disarms
//! it: so the loop is never left in flight with nobody to drive it, and
//! a reply nobody drives is routed at the loop's first event, by one
//! thread hop as every reply was before callers drove. One submitter
//! arms nothing: one whose caller drives its requests in `ready` next
//! ([`Transport::submit_awaited`], which joins and calls use), so a
//! sequential caller makes no `epoll_ctl` and wakes no thread. A thread
//! that finds the loop held but needs it handed over — the standby
//! woken for it, a caller that follows another's drive, waits on routes
//! of several shards, or stops waiting — raises a flag instead, and the
//! holder drives one non-blocking turn and arms the loop before it lets
//! go. Each standby wake drives one non-blocking turn and lets go as a
//! driver does. The standby also wakes once per transport deadline
//! while work is in flight, to reap.
//!
//! The data path is batched, and zero-copy outbound: submitters encode frames as
//! header + [`bytes::Bytes`] payload parts ([`crate::frame::try_encode_request_parts`]),
//! every frame queued on a connection since its last flush leaves in
//! shared `writev` calls ([`crate::poll::WriteQueue`]), and inbound
//! frames are decoded incrementally off non-blocking reads
//! ([`crate::poll::FrameReader`]). A burst of pipelined requests —
//! e.g. the fork-join fan-out submitting k partition reads at once via
//! [`Transport::submit_landing`] — shares one syscall round instead of
//! paying one write each.
//!
//! Inbound, a reply crosses user space once. A partition `Get` of a
//! read rides with its [`Region`] of the read's output; when
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
//!   for every request in flight on that connection (framing is lost),
//! * no reply within the deadline → the caller's wait yields
//!   [`StoreError::Timeout`] exactly as with the in-process channel
//!   transport,
//! * a worker index outside the fleet — any index, for a transport
//!   built over no address — → [`StoreError::Codec`] before anything is
//!   sent.
//!
//! The configured [`deadline`](TcpTransport::with_deadline) (take it
//! from `RetryPolicy::deadline`) bounds connection establishment, and a
//! request still unanswered `2 * deadline` after its submission is
//! reaped with [`StoreError::Timeout`], so the pending map cannot grow
//! without bound. Each loop keeps its requests' deadlines in submit
//! order and a driver sleeps at most until the oldest *unanswered* one:
//! a deadline leaves the queue with its reply, and a request that was
//! answered never wakes anyone again. With no caller driving, the
//! standby reaps within one deadline of the due time.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use mio::{Events, Poll, Registry, Token, Waker};
use parking_lot::{Mutex, MutexGuard};
use spcache_store::landing::{Claim, Region};
use spcache_store::rpc::{Reply, Request, StoreError};
use spcache_store::transport::{select, Transport};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::frame::{data_reply_id, decode_reply, try_encode_request_parts, Frame};
use crate::poll::{poll_with_waker, Conns, Inbound, ReadBuf, WireFrame, WAKER_TOK};

/// Worker `w`'s socket token is `WORKER_BASE + w`, past the waker's.
const WORKER_BASE: usize = WAKER_TOK + 1;
/// The shard's poller's token in its standby's poller, past the
/// standby's own waker.
const LOOP_TOK: usize = WAKER_TOK + 1;

/// Work for a shard from a thread that found its lock held.
enum Cmd {
    /// Adopt a freshly connected socket for `worker`.
    Dial { worker: usize, stream: TcpStream },
    /// Queue one request on its worker's connection.
    Submit(Sent),
}

/// One encoded request on its way to its worker's connection.
struct Sent {
    worker: usize,
    req_id: u64,
    frame: WireFrame,
    /// Reap the pending entry with `Timeout` at this instant.
    reap_at: Instant,
    waiter: Waiter,
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

/// One I/O shard: its loop behind the lock its driver holds, and what
/// reaches the loop without the lock.
struct Shard {
    io: Mutex<Loop>,
    /// Commands of threads that found `io` held; whoever holds it takes
    /// them.
    tx: Sender<Cmd>,
    rx: Receiver<Cmd>,
    /// Wakes a driver blocked in the loop's `poll`.
    waker: Waker,
    /// The standby's poller, in which the loop's poller is armed for one
    /// event while nobody holds the loop with work in flight.
    standby: Registry,
    /// Whether the loop's poller is armed in `standby`. Changed under
    /// `io`; a standby's wake uses the kernel's arming up but leaves the
    /// flag, since whoever lets go next re-arms anyway.
    armed: AtomicBool,
    /// Someone who found the loop held wants it handed over — the
    /// standby woken for it, or a caller that waits without driving: the
    /// holder, which may be a submitter that never polls, drives a turn
    /// and arms the loop before it lets go.
    wanted: AtomicBool,
    /// The longest the standby sleeps: the transport deadline, in ms.
    tick_ms: AtomicU64,
    /// Set when the transport drops; the standby exits.
    stop: AtomicBool,
}

/// The standby thread of one shard and the waker that stops it.
struct Standby {
    waker: Waker,
    thread: Option<JoinHandle<()>>,
}

/// A [`Transport`] over real TCP connections, one per worker, served by
/// sharded readiness loops that the waiting callers drive.
pub struct TcpTransport {
    peers: Arc<Vec<PeerShared>>,
    shards: Vec<Arc<Shard>>,
    standbys: Vec<Standby>,
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
    /// Panics if the OS refuses a loop its poller, waker or standby
    /// thread.
    pub fn connect(addrs: Vec<SocketAddr>) -> Self {
        let shards = crate::poll::default_io_shards().min(addrs.len().max(1));
        Self::connect_sharded(addrs, shards)
    }

    /// Like [`connect`](TcpTransport::connect) with an explicit I/O
    /// shard count, clamped to `1..=addrs.len()`. (`spcached
    /// --io-shards` sizes only the worker server's loops, see
    /// [`crate::WorkerServer::spawn`]; a daemon's clients connect with
    /// [`connect`](TcpTransport::connect).) A transport over no address refuses every
    /// request as naming a worker outside the fleet.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses a loop its poller, waker or standby
    /// thread.
    pub fn connect_sharded(addrs: Vec<SocketAddr>, io_shards: usize) -> Self {
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
        let deadline = Duration::from_secs(5);
        let n = io_shards.min(peers.len()).max(1);
        let (shards, standbys) = (0..n)
            .map(|i| spawn_shard(i, Arc::clone(&peers), deadline))
            .unzip();
        TcpTransport {
            peers,
            shards,
            standbys,
            next_id: AtomicU64::new(1),
            deadline,
        }
    }

    /// Sets the socket deadline (builder style). Pass the client's
    /// `RetryPolicy::deadline` so wire-level waits and the retry loop
    /// agree on what "too slow" means.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline.max(Duration::from_millis(1));
        for shard in &self.shards {
            shard.tick_ms.store(tick_ms(self.deadline), Ordering::Relaxed);
        }
        self
    }

    /// The worker address list.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.peers.iter().map(|p| p.addr).collect()
    }

    /// Number of I/O loops serving this transport.
    pub fn io_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, worker: usize) -> &Shard {
        &self.shards[worker % self.shards.len()]
    }

    /// Ensures `worker`'s connection is live: if it is not, dials
    /// synchronously and hands the stream to its shard as a `Dial`
    /// command, which the next holder of the shard takes before anything
    /// it queues. [`StoreError::Io`] when the dial fails. Serialises
    /// concurrent dial attempts on the peer's lock (and never waits for
    /// a shard under it: a shard's holder takes peer locks).
    fn ensure_connected(&self, worker: usize) -> Result<(), StoreError> {
        let peer = &self.peers[worker];
        let mut connected = peer.connected.lock();
        if *connected {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&peer.addr, self.deadline)
            .map_err(|_| StoreError::Io(worker))?;
        crate::poll::tune_socket(&stream);
        self.shard_of(worker)
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

    /// How many deadlines the loops still hold once the answered ones
    /// at the front are gone.
    #[cfg(test)]
    fn deadlines_held(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let mut lp = shard.io.lock();
                lp.next_reap();
                lp.deadlines.len()
            })
            .sum()
    }

    /// Batched submission: every frame of a shard is queued before one
    /// flush, so the burst leaves in shared `writev` calls — this is
    /// what makes a k-way fork-join read one syscall round instead of k.
    /// A submitter that gets a shard's lock flushes itself; one that
    /// finds it held queues the frames and wakes the holder. A request's
    /// region travels with it to whoever reads its reply. A shard left
    /// with work in flight is handed to its standby unless the caller
    /// drives the routes in `ready` next (`awaited`). A bad worker index,
    /// an oversized frame or a failed dial anywhere in the batch refuses
    /// all of it.
    fn queue(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
        awaited: bool,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        self.check_workers(reqs.iter().map(|&(w, ..)| w))?;
        let encoded = reqs
            .into_iter()
            .map(|(worker, req, region)| Ok((worker, self.encode(&req)?, region)))
            .collect::<Result<Vec<_>, StoreError>>()?;
        for &(worker, ..) in &encoded {
            self.ensure_connected(worker)?;
        }
        let reap_at = Instant::now() + self.deadline * 2;
        let mut routes = Vec::with_capacity(encoded.len());
        let mut by_shard: Vec<Vec<Sent>> = self.shards.iter().map(|_| Vec::new()).collect();
        for (worker, (req_id, frame), region) in encoded {
            let (reply, route) = bounded(1);
            routes.push(route);
            by_shard[worker % self.shards.len()].push(Sent {
                worker,
                req_id,
                frame,
                reap_at,
                waiter: Waiter { reply, region },
            });
        }
        for (shard, sents) in self.shards.iter().zip(by_shard) {
            if !sents.is_empty() {
                // An awaited batch keeps the loop for whatever it finds.
                shard.send(sents, &self.peers, if awaited { usize::MAX } else { 0 });
            }
        }
        Ok(routes)
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

    /// Batched submission: every frame of a shard leaves in shared
    /// `writev` calls, and a shard left with work in flight is handed to
    /// its standby should nobody drive it.
    fn submit_landing(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        self.queue(reqs, false)
    }

    /// A join's or a call's submission: its caller drives the requests
    /// in `ready` next, so they are handed to no standby meanwhile.
    fn submit_awaited(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        self.queue(reqs, true)
    }

    /// Drives the routes' shard until one of them holds its reply, when
    /// they all live on one shard and no one else drives it. Otherwise
    /// hands each of their shards over — its holder routes the replies,
    /// or the standby does at the shard's first event — and waits on the
    /// routes. A deadline already past hands the shards over and waits
    /// for nothing.
    fn ready(&self, routes: &[(usize, &Receiver<Reply>)], until: Instant) -> Option<usize> {
        let answered = || routes.iter().position(|(_, route)| !route.is_empty());
        let (&(first, _), rest) = routes.split_first()?;
        let shard = self.shard_of(first);
        let late = Instant::now() >= until;
        let one_shard = rest.iter().all(|&(w, _)| std::ptr::eq(self.shard_of(w), shard));
        let drive = if one_shard && !late {
            if let Some(i) = answered() {
                return Some(i);
            }
            shard.claim()
        } else {
            for (i, &(w, _)) in routes.iter().enumerate() {
                let other = self.shard_of(w);
                if routes[..i].iter().any(|&(v, _)| std::ptr::eq(self.shard_of(v), other)) {
                    continue;
                }
                if let Some(lp) = other.claim() {
                    other.let_go(lp, &self.peers, 0);
                }
            }
            None
        };
        let Some(mut lp) = drive else {
            return if late { answered() } else { select(routes, until) };
        };
        shard.arm(&mut lp, false);
        while answered().is_none() && !lp.dead {
            let now = Instant::now();
            if now >= until {
                break;
            }
            let wake = lp.next_reap().map_or(until, |at| at.min(until));
            lp.turn(&shard.rx, &self.peers, Some(wake - now));
        }
        // A join comes back for its unanswered routes at once, or passes
        // them here again with a deadline already past.
        let own = if Instant::now() >= until {
            0
        } else {
            routes.iter().filter(|(_, route)| route.is_empty()).count()
        };
        shard.let_go(lp, &self.peers, own);
        answered().or_else(|| select(routes, until))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.stop.store(true, Ordering::Release);
        }
        for standby in &mut self.standbys {
            let _ = standby.waker.wake();
            if let Some(t) = standby.thread.take() {
                let _ = t.join();
            }
        }
        // Fail whatever is still in flight or queued so no caller blocks
        // forever.
        for shard in &self.shards {
            let mut lp = shard.io.lock();
            lp.die();
            lp.take(&shard.rx, &self.peers);
        }
    }
}

// ---------------------------------------------------------------------------
// The shard loop
// ---------------------------------------------------------------------------

/// A loop's requests in flight: `req_id → (worker, waiter)`. A request is
/// answered only by a reply arriving on the connection it was sent on,
/// and a worker's entries all fail when that connection dies — so an
/// entry always names the worker's live connection.
type Pending = HashMap<u64, (usize, Waiter)>;

/// Takes the waiter of `req_id` if it was sent to `worker`.
fn take_waiter(pending: &mut Pending, worker: usize, req_id: u64) -> Option<Waiter> {
    match pending.entry(req_id) {
        Entry::Occupied(e) if e.get().0 == worker => Some(e.remove().1),
        _ => None,
    }
}

/// One pump's view of a connection's replies: frames completed in
/// buffers of their own, and `Data` payloads landed in the regions their
/// requests rode with.
struct Replies<'a> {
    worker: usize,
    pending: &'a Pending,
    frames: &'a mut Vec<Bytes>,
    landed: &'a mut Vec<(u64, Claim)>,
}

impl Inbound for Replies<'_> {
    fn frame(&mut self, body: Bytes) {
        self.frames.push(body);
    }

    /// A `Data` reply to a request still waiting on this connection with
    /// a region of exactly this payload's length, free, lands there.
    fn offer(&mut self, header: &[u8], len: usize) -> Option<(u64, Claim)> {
        let req_id = data_reply_id(header)?;
        let (_, waiter) = self
            .pending
            .get(&req_id)
            .filter(|(w, _)| *w == self.worker)?;
        Some((req_id, waiter.region.as_ref()?.claim(len)?))
    }

    fn landed(&mut self, req_id: u64, claim: Claim) {
        self.landed.push((req_id, claim));
    }
}

/// The standby's longest sleep for a transport `deadline`.
fn tick_ms(deadline: Duration) -> u64 {
    u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX).max(1)
}

/// Builds one shard over `peers` and starts its standby thread.
///
/// # Panics
///
/// Panics if the OS refuses a poller, a waker or the thread (resource
/// exhaustion; nothing a request carries reaches here), as
/// [`TcpTransport::connect`] documents.
#[allow(clippy::expect_used)]
fn spawn_shard(
    index: usize,
    peers: Arc<Vec<PeerShared>>,
    deadline: Duration,
) -> (Arc<Shard>, Standby) {
    let (poll, waker) = poll_with_waker().expect("create poller and waker");
    let (standby_poll, standby_waker) = poll_with_waker().expect("create poller and waker");
    let (tx, rx) = unbounded();
    let shard = Arc::new(Shard {
        io: Mutex::new(Loop::new(poll)),
        tx,
        rx,
        waker,
        standby: standby_poll.registry().clone(),
        armed: AtomicBool::new(false),
        wanted: AtomicBool::new(false),
        tick_ms: AtomicU64::new(tick_ms(deadline)),
        stop: AtomicBool::new(false),
    });
    let on_standby = Arc::clone(&shard);
    let thread = std::thread::Builder::new()
        .name(format!("spcache-net-io-{index}"))
        .spawn(move || standby(&on_standby, &peers, standby_poll))
        .expect("spawn io shard standby");
    let standby = Standby {
        waker: standby_waker,
        thread: Some(thread),
    };
    (shard, standby)
}

/// The standby thread: sleeps until the armed loop has an event, the
/// oldest unanswered request it saw is due, or one transport deadline
/// passes, and then drives one non-blocking turn if the loop was handed
/// to it and no one drives now.
fn standby(shard: &Shard, peers: &[PeerShared], mut poll: Poll) {
    let mut events = Events::with_capacity(4);
    let mut due: Option<Instant> = None;
    loop {
        let tick = Duration::from_millis(shard.tick_ms.load(Ordering::Relaxed));
        let sleep = due.map_or(tick, |at| at.saturating_duration_since(Instant::now()).min(tick));
        if poll.poll(&mut events, Some(sleep)).is_err() {
            std::thread::sleep(sleep);
        }
        if shard.stop.load(Ordering::Acquire) {
            return;
        }
        due = None;
        let woken = events.iter().any(|e| e.token().0 == LOOP_TOK);
        // A tick with the loop not handed over: its holder minds it.
        if !woken && !shard.armed.load(Ordering::SeqCst) {
            continue;
        }
        // If someone holds the loop, it drives this event before it lets
        // go: it may be a submitter that never polls, and hold the loop
        // again before this thread gets a turn.
        let Some(mut lp) = shard.claim() else {
            continue;
        };
        lp.turn(&shard.rx, peers, Some(Duration::ZERO));
        due = lp.next_reap();
        shard.let_go(lp, peers, 0);
    }
}

impl Shard {
    /// Queues `sents` on their connections: flushed at once if no one
    /// holds the loop, else handed to the holder, which is woken. The
    /// submitter comes back for `keep` requests (see `let_go`).
    fn send(&self, sents: Vec<Sent>, peers: &[PeerShared], keep: usize) {
        if let Some(mut lp) = self.io.try_lock() {
            // Sockets dialled meanwhile are adopted before anything is
            // queued on them.
            lp.take(&self.rx, peers);
            for sent in sents {
                lp.queue(sent);
            }
            self.let_go(lp, peers, keep);
            return;
        }
        for sent in sents {
            // `rx` lives beside `tx`: the send cannot fail.
            let _ = self.tx.send(Cmd::Submit(sent));
        }
        let _ = self.waker.wake();
        // The holder may have let go before the commands were queued.
        if let Some(lp) = self.io.try_lock() {
            self.let_go(lp, peers, keep);
        }
    }

    /// Takes the loop, or, if someone holds it, has the holder hand it
    /// over when it lets go.
    fn claim(&self) -> Option<MutexGuard<'_, Loop>> {
        self.io.try_lock().or_else(|| {
            self.wanted.store(true, Ordering::SeqCst);
            // It may have let go before the flag went up.
            self.io.try_lock()
        })
    }

    /// Lets go of the loop. If someone wanted it meanwhile, a turn drives
    /// what is ready first; then what threads that found it held queued
    /// goes out. Work then left in flight — a request, unsent bytes, a
    /// frame half read — is handed to the standby: the loop is armed in
    /// its poller, and an idle loop disarmed. A thread that comes back
    /// to drive `keep` requests in `ready` at once keeps the loop while
    /// no more than those are in flight: a join's waiter between two of
    /// its replies, or a submitter whose caller drives its batch next
    /// (`usize::MAX`). It never keeps a loop someone wanted or handed
    /// over before: the standby's wake may have used that arming up, and
    /// the turn above may have answered the caller, which then drives
    /// nothing.
    fn let_go<'a>(&'a self, mut lp: MutexGuard<'a, Loop>, peers: &[PeerShared], keep: usize) {
        loop {
            let wanted = self.wanted.swap(false, Ordering::SeqCst);
            if wanted {
                lp.turn(&self.rx, peers, Some(Duration::ZERO));
            }
            lp.take(&self.rx, peers);
            lp.flush(peers);
            if keep == 0
                || wanted
                || lp.pending.len() > keep
                || self.armed.load(Ordering::SeqCst)
            {
                let busy = !lp.idle();
                self.arm(&mut lp, busy);
            }
            drop(lp);
            // A thread that queued a command after the take above, and
            // found the lock held, counts on this one to see it; so does
            // one that wanted the loop while this one held it.
            fence(Ordering::SeqCst);
            if !self.wanted.load(Ordering::SeqCst) && self.rx.is_empty() {
                return;
            }
            let Some(next) = self.io.try_lock() else {
                return; // its holder sees to both when it lets go
            };
            lp = next;
        }
    }

    /// Arms the loop's poller in the standby's (`on`) for one event, or
    /// disarms it. Arming always re-arms, since a standby's wake may have
    /// used the last arming up. The flag is up before an arming and down
    /// only after a disarming, so the standby never reads it down while
    /// the arming may fire. Called with the loop's lock held.
    fn arm(&self, lp: &mut Loop, on: bool) {
        if on {
            self.armed.store(true, Ordering::SeqCst);
            let _ = self.standby.arm_once(&lp.poll, Token(LOOP_TOK), true);
        } else if self.armed.load(Ordering::SeqCst) {
            let _ = self.standby.arm_once(&lp.poll, Token(LOOP_TOK), false);
            self.armed.store(false, Ordering::SeqCst);
        }
    }
}

/// The reap deadlines of one loop's requests, `(reap_at, req_id)` in
/// submit order — which is deadline order, every request of a transport
/// carrying the same `2 * deadline` (submitters racing each other into
/// the queue can swap neighbours by the microseconds between them, which
/// only delays a reap by as much). `req_id`s are unique per transport,
/// so an entry outliving its request names nothing.
type Deadlines = VecDeque<(Instant, u64)>;

/// One shard's loop state, driven by whoever holds its lock.
struct Loop {
    poll: Poll,
    events: Events,
    conns: Conns,
    pending: Pending,
    deadlines: Deadlines,
    buf: ReadBuf,
    frames: Vec<Bytes>,
    landed: Vec<(u64, Claim)>,
    /// The poller failed or the transport dropped: every connection is
    /// closed and every request fails with `Io`.
    dead: bool,
}

impl Loop {
    fn new(poll: Poll) -> Self {
        Loop {
            poll,
            events: Events::with_capacity(256),
            conns: Conns::new(),
            pending: Pending::new(),
            deadlines: Deadlines::new(),
            buf: ReadBuf::new(),
            frames: Vec::new(),
            landed: Vec::new(),
            dead: false,
        }
    }

    /// Takes the commands of threads that found the lock held: dialled
    /// sockets are adopted and requests queued, in the order they came.
    fn take(&mut self, rx: &Receiver<Cmd>, peers: &[PeerShared]) {
        while let Ok(cmd) = rx.try_recv() {
            match cmd {
                Cmd::Dial { worker, stream } => {
                    if self.dead || !self.conns.adopt(&self.poll, WORKER_BASE + worker, stream) {
                        *peers[worker].connected.lock() = false;
                    }
                }
                Cmd::Submit(sent) => self.queue(sent),
            }
        }
    }

    /// Queues one request on its worker's connection and records who
    /// waits for its reply.
    fn queue(&mut self, sent: Sent) {
        let Sent {
            worker,
            req_id,
            frame,
            reap_at,
            waiter,
        } = sent;
        if !self.dead && self.conns.push(WORKER_BASE + worker, frame) {
            self.pending.insert(req_id, (worker, waiter));
            self.deadlines.push_back((reap_at, req_id));
        } else {
            // The connection died between submit and delivery; a
            // retryable error sends the caller back around.
            waiter.answer(Reply::Err(StoreError::Io(worker)));
        }
    }

    /// One flush per touched connection: everything queued since the
    /// last flush goes out in batched vectored writes.
    fn flush(&mut self, peers: &[PeerShared]) {
        for token in self.conns.flush_dirty(&self.poll) {
            let worker = token - WORKER_BASE;
            fail_worker(&mut self.pending, peers, worker, &StoreError::Io(worker));
        }
    }

    /// One turn: waits up to `timeout` for readiness, takes queued
    /// commands, pumps readable sockets through the incremental decoder,
    /// flushes, and reaps the requests whose deadline passed.
    /// Returns how many requests it answered.
    fn turn(&mut self, rx: &Receiver<Cmd>, peers: &[PeerShared], timeout: Option<Duration>) -> usize {
        if self.dead {
            return 0;
        }
        if self.poll.poll(&mut self.events, timeout).is_err() {
            let lost = self.pending.len();
            self.die(); // poller failure is fatal
            return lost;
        }
        // Commands first: frames queued by other threads join the flush
        // below.
        self.take(rx, peers);
        let waiting = self.pending.len();
        let Loop {
            poll,
            events,
            conns,
            pending,
            buf,
            frames,
            landed,
            ..
        } = self;
        for ev in events.iter() {
            let token = ev.token().0;
            let Some(worker) = token.checked_sub(WORKER_BASE) else {
                continue; // the waker
            };
            if (ev.is_readable() || ev.is_error()) && conns.is_open(token) {
                let mut replies = Replies {
                    worker,
                    pending,
                    frames,
                    landed,
                };
                let open = conns.pump(token, buf, &mut replies);
                if let Some(death) = route_replies(pending, worker, open, frames, landed) {
                    conns.close(poll, token);
                    fail_worker(pending, peers, worker, &death);
                    continue;
                }
            }
            if ev.is_writable() {
                conns.touch(token);
            }
        }
        self.flush(peers);
        self.reap(Instant::now());
        waiting - self.pending.len()
    }

    /// Answers the requests whose deadline passed unanswered with
    /// `Timeout`.
    fn reap(&mut self, now: Instant) {
        while let Some(&(at, req_id)) = self.deadlines.front() {
            if at > now {
                break;
            }
            self.deadlines.pop_front();
            // A payload half landed for it finds no waiter when its frame
            // ends, and frees its region unlanded.
            if let Some((worker, waiter)) = self.pending.remove(&req_id) {
                waiter.answer(Reply::Err(StoreError::Timeout(worker)));
            }
        }
    }

    /// Discards the deadlines at the front whose requests were answered
    /// (or failed with their connection) and returns the oldest
    /// unanswered request's — the latest a driver may sleep.
    fn next_reap(&mut self) -> Option<Instant> {
        while let Some(&(at, req_id)) = self.deadlines.front() {
            if self.pending.contains_key(&req_id) {
                return Some(at);
            }
            self.deadlines.pop_front();
        }
        None
    }

    /// Whether the loop holds nothing for a driver: no request in
    /// flight, no unsent byte, no frame half read.
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.conns.quiet()
    }

    /// Closes every connection and fails every request in flight; the
    /// loop sends nothing again.
    fn die(&mut self) {
        self.dead = true;
        self.conns.close_all();
        for (_, (worker, waiter)) in self.pending.drain() {
            waiter.answer(Reply::Err(StoreError::Io(worker)));
        }
    }
}

/// Routes what one pump of `worker`'s connection completed to the
/// waiting receivers; a payload that landed in its region publishes the
/// region first and answers with an empty `Data`. Returns the
/// connection's cause of death, if any: `Codec` for a malformed reply,
/// `Io` when the pump found it closed or broken (`open` false).
fn route_replies(
    pending: &mut Pending,
    worker: usize,
    open: bool,
    frames: &mut Vec<Bytes>,
    landed: &mut Vec<(u64, Claim)>,
) -> Option<StoreError> {
    for (req_id, claim) in landed.drain(..) {
        // Reaped meanwhile: the claim drops unlanded.
        if let Some(waiter) = take_waiter(pending, worker, req_id) {
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
                if let Some(waiter) = take_waiter(pending, worker, req_id) {
                    waiter.answer(reply);
                }
            }
            // A malformed reply poisons the whole stream (framing is
            // lost); surface the codec error and drop the connection.
            Err(e) => return Some(e),
        }
    }
    (!open).then_some(StoreError::Io(worker))
}

/// Fails every request in flight to `worker`, whose connection was
/// closed (its reader, and any claim it held, went first), with `death`,
/// and clears the peer's connected flag so the next submit redials.
fn fail_worker(pending: &mut Pending, peers: &[PeerShared], worker: usize, death: &StoreError) {
    for (_, (_, waiter)) in pending.extract_if(|_, (w, _)| *w == worker) {
        waiter.answer(Reply::Err(death.clone()));
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
    fn a_transport_over_no_address_refuses_every_request() {
        for t in [TcpTransport::connect(vec![]), TcpTransport::connect_sharded(vec![], 4)] {
            assert_eq!((t.n_workers(), t.io_shards()), (0, 1));
            let e = t.submit(0, Request::Ping).expect_err("a request to no worker was queued");
            assert!(matches!(e, StoreError::Codec(_)) && !e.is_retryable(), "got {e:?}");
            let e = t.call(0, Request::Ping, Duration::from_millis(50)).expect_err("answered");
            assert!(matches!(e, StoreError::Codec(_)), "got {e:?}");
        }
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
        let gets = (0..2).map(|j| (0, get(j), Some(landing.region(j as usize)))).collect();
        let routes = t.submit_landing(gets).unwrap();
        let wait = Duration::from_secs(5);
        assert_eq!(routes[0].recv_timeout(wait).unwrap(), Reply::Data(Bytes::new()));
        assert!(landing.accept(0), "the reply came back empty but its region is not landed");
        assert_eq!(routes[1].recv_timeout(wait).unwrap(), Reply::Data(Bytes::from(long)));
        assert!(!landing.accept(1), "a reply one byte long landed");
        landing.place(1, Bytes::from(data[r1].to_vec()));
        assert_eq!(landing.into_vec(), Ok(data));
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
        let route = t.submit_landing(vec![(0, get, Some(landing.region(0)))]).unwrap();
        let wait = Duration::from_secs(5);
        assert_eq!(route[0].recv_timeout(wait).unwrap(), Reply::Err(StoreError::Timeout(0)));
        // The true bytes arrive another way (a decode) while the loop
        // still holds the region mid-frame: they are staged beside it.
        landing.place(0, Bytes::from(data.clone()));
        go.send(()).unwrap();
        let pong = t.submit(0, Request::Ping).unwrap().recv_timeout(wait).unwrap();
        assert!(matches!(pong, Reply::Pong { .. }), "got {pong:?}");
        let region = landing.region(0);
        assert!(region.claim(data.len()).is_some(), "the reaped payload landed");
        drop(region);
        assert_eq!(landing.into_vec(), Ok(data), "later bytes reached the file");
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn a_put_larger_than_both_socket_buffers_finishes_once_the_peer_reads() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // More than the 4 MiB send buffer and the peer's receive buffer
        // together: the loop's flush must stop short and wait for write
        // readiness, then disarm it once the queue drains.
        let data = file(24 << 20);
        let want = data.clone();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(300));
            let put = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
            let Request::Put { data, .. } = crate::frame::decode_request(&put).unwrap() else {
                panic!("expected a put")
            };
            assert!(data[..] == want[..], "the put's payload arrived altered");
            write_frame(&mut stream, &encode_reply(&Reply::Done, put.req_id)).unwrap();
            let ping = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
            let pong = Reply::Pong { worker: 0, epoch: 0 };
            write_frame(&mut stream, &encode_reply(&pong, ping.req_id)).unwrap();
            let _ = read_frame(&mut stream);
        });
        let t = TcpTransport::connect(vec![addr]).with_deadline(Duration::from_secs(5));
        let put = Request::Put {
            key: PartKey::new(1, 0),
            data: Bytes::from(data),
            sum: 0,
        };
        let wait = Duration::from_secs(10);
        let done = t.submit(0, put).unwrap().recv_timeout(wait).unwrap();
        assert_eq!(done, Reply::Done);
        let pong = t.submit(0, Request::Ping).unwrap().recv_timeout(wait).unwrap();
        assert!(matches!(pong, Reply::Pong { .. }), "got {pong:?}");
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn a_reply_answers_only_a_request_sent_on_its_own_connection() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let (sent0, got0) = unbounded::<u64>();
        // Worker 0 reads its request and never answers.
        let server0 = std::thread::spawn(move || {
            let (mut stream, _) = l0.accept().unwrap();
            let get = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
            sent0.send(get.req_id).unwrap();
            let _ = read_frame(&mut stream);
        });
        // Worker 1 answers worker 0's request id first, then its own.
        let server1 = std::thread::spawn(move || {
            let (mut stream, _) = l1.accept().unwrap();
            let own = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
            for req_id in [got0.recv().unwrap(), own.req_id] {
                let pong = Reply::Pong { worker: 1, epoch: req_id };
                write_frame(&mut stream, &encode_reply(&pong, req_id)).unwrap();
            }
            let _ = read_frame(&mut stream);
        });
        // One loop carries both connections.
        let t = TcpTransport::connect_sharded(addrs, 1).with_deadline(Duration::from_millis(150));
        let route0 = t.submit(0, Request::Ping).unwrap();
        let route1 = t.submit(1, Request::Ping).unwrap();
        let wait = Duration::from_secs(5);
        let pong = route1.recv_timeout(wait).unwrap();
        assert!(matches!(pong, Reply::Pong { worker: 1, .. }), "got {pong:?}");
        assert_eq!(route0.recv_timeout(wait).unwrap(), Reply::Err(StoreError::Timeout(0)));
        drop(t);
        server0.join().unwrap();
        server1.join().unwrap();
    }

    #[test]
    fn a_dying_connection_frees_its_landing_region_before_its_waiter_hears() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let len = 300_000;
        // Worker 0 sends half of an exact-length reply, then closes.
        let server0 = std::thread::spawn(move || {
            let (mut stream, _) = l0.accept().unwrap();
            let get = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
            let wire = encode_reply(&Reply::Data(Bytes::from(vec![0xEE; len])), get.req_id);
            write_frame(&mut stream, &wire[..wire.len() / 2]).unwrap();
        });
        // Worker 1, on the same loop, answers only after worker 0's death
        // was heard: a death fails its own connection's requests alone.
        let (go, went) = unbounded::<()>();
        let server1 = std::thread::spawn(move || {
            let (mut stream, _) = l1.accept().unwrap();
            let ping = Frame::parse(read_frame(&mut stream).unwrap().unwrap()).unwrap();
            went.recv().unwrap();
            let pong = Reply::Pong { worker: 1, epoch: 0 };
            write_frame(&mut stream, &encode_reply(&pong, ping.req_id)).unwrap();
            let _ = read_frame(&mut stream);
        });
        let t = TcpTransport::connect_sharded(addrs, 1).with_deadline(Duration::from_secs(5));
        let mut landing = Landing::new(len, 1);
        let get = Request::Get { key: PartKey::new(1, 0) };
        let routes = t
            .submit_landing(vec![(0, get, Some(landing.region(0))), (1, Request::Ping, None)])
            .unwrap();
        let wait = Duration::from_secs(5);
        assert_eq!(routes[0].recv_timeout(wait).unwrap(), Reply::Err(StoreError::Io(0)));
        let region = landing.region(0);
        assert!(region.claim(len).is_some(), "the dead connection still holds the region");
        drop(region);
        assert!(!landing.accept(0), "half a payload landed");
        go.send(()).unwrap();
        let pong = routes[1].recv_timeout(wait).unwrap();
        assert!(matches!(pong, Reply::Pong { worker: 1, .. }), "got {pong:?}");
        drop(t);
        server0.join().unwrap();
        server1.join().unwrap();
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
