//! `spcached` worker server: the store's worker thread answering its
//! own socket (DESIGN.md §4.10, §4.12).
//!
//! A request crosses two threads inside the daemon:
//!
//! * an **I/O shard** of the server loop ([`crate::poll::serve`]; one
//!   per core by default, shard 0 accepts) reads the frame off its
//!   non-blocking socket, decodes it, and sends it straight into the
//!   worker's queue as an [`Envelope`] whose reply route is a sink
//!   around the [`ConnRef`] of the connection it arrived on,
//! * the **worker** thread (`spcache_store::worker`) pops that one queue
//!   in arrival order — the Nth data request over TCP is the same Nth
//!   data request an in-process run would count — fires whatever its
//!   fault script holds for that op, serves the request, and hands the
//!   reply to the route, which encodes the frame and posts it to the
//!   shard that owns the connection. Replies are queued by the thread
//!   that computed them, in the order it computed them, and a burst of
//!   them shares one `writev` round.
//!
//! The worker thread fires the whole fault script on both transports;
//! the sink carries out the wire half:
//!
//! * `DropConnection` — the request is served, then the connection is
//!   closed without the reply frame,
//! * `TruncateFrame` — half the reply frame is written, then the
//!   connection is closed,
//! * `DelayFrame` — the reply frame is written after the pause (a
//!   shard timer, not a sleeping thread).
//!
//! A route dropped unanswered — a `LoseReply`, a `Crash` with requests
//! still queued, a request arriving after the worker thread is gone —
//! answers `WorkerDown` at once, the disconnect an in-process caller
//! would see. A swallowed heartbeat keeps its route alive and so sends
//! no frame at all.
//!
//! Graceful shutdown: a `Shutdown` request rides the same queue, so the
//! worker has served everything submitted before it when it
//! acknowledges. Its sink queues the ack on the owning shard and then
//! stops every shard, which drain their write queues and exit.

use bytes::Bytes;
use crossbeam::channel::Sender;
use spcache_store::backing::UnderStore;
use spcache_store::fault::FaultLog;
use spcache_store::rpc::{Delivery, Envelope, Reply, ReplyRoute, ReplySink, Request, StoreError};
use spcache_store::worker::{spawn_worker, WorkerHandle};
use spcache_store::StoreConfig;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::frame::{decode_request, encode_reply_parts, Frame};
use crate::poll::{serve, Completion, ConnRef, Served};

/// The reply route of one request that arrived over a socket.
#[derive(Debug)]
struct ConnSink {
    conn: ConnRef,
    req_id: u64,
    worker: usize,
    /// The request is `Shutdown`: stop the server behind the answer.
    shutdown: bool,
    answered: bool,
}

impl ConnSink {
    fn post(&mut self, what: Completion, delay: Duration) {
        self.answered = true;
        self.conn.complete(what, delay);
        if self.shutdown {
            self.conn.stop_server();
        }
    }
}

impl ReplySink for ConnSink {
    fn deliver(mut self: Box<Self>, reply: Reply, how: Delivery, delay: Duration) {
        let frame = || encode_reply_parts(&reply, self.req_id);
        let what = match how {
            Delivery::Reply => Completion::Frame(frame()),
            Delivery::Truncate => Completion::Truncate(frame()),
            Delivery::Close => Completion::Close,
        };
        self.post(what, delay);
    }
}

impl Drop for ConnSink {
    fn drop(&mut self) {
        if !self.answered {
            let down = Reply::Err(StoreError::WorkerDown(self.worker));
            let frame = encode_reply_parts(&down, self.req_id);
            self.post(Completion::Frame(frame), Duration::ZERO);
        }
    }
}

/// Decodes one request frame and queues it on the worker.
fn dispatch(id: usize, worker: &Sender<Envelope>, frame: Bytes, conn: &ConnRef) -> Served {
    let frame = Frame::parse(frame);
    // The refusal of a frame whose header parsed names its request.
    let req_id = frame.as_ref().map_or(0, |f| f.req_id);
    match frame.and_then(|f| decode_request(&f)) {
        Ok(req) => {
            let reply = ReplyRoute::Sink(Box::new(ConnSink {
                conn: conn.clone(),
                req_id,
                worker: id,
                shutdown: matches!(req, Request::Shutdown),
                answered: false,
            }));
            // A worker thread that is gone hands the envelope back; the
            // sink dropped with it answers `WorkerDown`.
            let _ = worker.send(Envelope { req, reply });
            Served::Pending
        }
        Err(e) => Served::Violation(encode_reply_parts(&Reply::Err(e), req_id)),
    }
}

/// A running worker server: call [`WorkerServer::join`] after a
/// graceful shutdown for a clean exit. Dropping it stops the worker
/// thread and leaves the I/O shards answering `WorkerDown`.
#[derive(Debug)]
pub struct WorkerServer {
    id: usize,
    addr: SocketAddr,
    shards: Vec<JoinHandle<()>>,
    worker: WorkerHandle,
}

impl WorkerServer {
    /// Spawns worker `id` of a cluster described by `cfg`, listening on
    /// `bind` (use port 0 for an ephemeral port; the chosen address is
    /// [`WorkerServer::addr`]) with `io_shards` I/O loops (the
    /// `spcached --io-shards` flag lands here; see
    /// [`crate::poll::default_io_shards`]). The worker thread consumes
    /// its whole slice of `cfg.faults` and logs into `fault_log`. A
    /// budgeted worker's evicted partitions land in `spill` (normally
    /// the deployment's shared under-store, so whole-file checkpoints
    /// there make evictions free drops); without one it backs itself
    /// with a private under-store — eviction stays a performance event
    /// either way.
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
        // Accepted sockets inherit the listener's buffer sizes: every
        // connection is tuned, and its window is already wide during
        // the handshake.
        crate::poll::tune_socket(&listener);
        let addr = listener.local_addr()?;
        let worker = spawn_worker(id, cfg, fault_log, spill);
        let requests = worker.sender().clone();
        let shards = serve(
            &format!("spcached-{id}-io"),
            listener,
            io_shards,
            move |frame, conn| dispatch(id, &requests, frame, conn),
        )?;
        Ok(WorkerServer {
            id,
            addr,
            shards,
            worker,
        })
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
    pub fn join(self) {
        for t in self.shards {
            let _ = t.join();
        }
        drop(self.worker); // joins the worker thread
    }
}
