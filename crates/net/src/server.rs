//! `spcached` worker server: the store's worker served on its own I/O
//! loops (DESIGN.md §4.10, §4.12).
//!
//! A request never leaves the thread that read it. An **I/O shard** of
//! the server loop ([`crate::poll::serve`]; one per core by default,
//! shard 0 accepts) reads the frame off its non-blocking socket, decodes
//! it and hands it to the worker's state machine
//! ([`spcache_store::worker::WorkerCore`]), which the shards share
//! behind one lock. The core serves requests one at a time in the order
//! the shards take the lock — the Nth data request over TCP is the same
//! Nth data request an in-process run would count — fires whatever its
//! fault script holds for that op, and says what becomes of the reply.
//! The shard carries that out on the connection — before it serves the
//! next frame when it is due, and in release order — so replies and cuts
//! leave each connection in op order:
//!
//! * a reply is written as the emulated NIC sends it: off the shard's
//!   timer heap in [`crate::poll::READ_CHUNK`] pieces along the span
//!   [`Step::Answer`] gives, each once the NIC has paid it off, the last
//!   byte at the transfer's pay-off — so the loopback copy of a partition
//!   overlaps its emulated transfer. A reply of one piece, a control
//!   reply and every reply of an unthrottled worker leave whole, at
//!   once or at their release; a scripted `DelayFrame` pause holds the
//!   reply back whole. A frame that falls due while a reply is part
//!   sent (a `Pong`, a `WorkerDown`) first releases the rest of it,
//! * `DropConnection` — the request is served, then the connection is
//!   closed without the reply frame,
//! * `TruncateFrame` — half the reply frame is written, then the
//!   connection is closed,
//! * `LoseReply`, a `Crash` and every request after one answer a
//!   `WorkerDown` frame, the disconnect an in-process caller would see.
//!
//! A swallowed heartbeat sends no frame at all: the core holds its route
//! until it goes down, and only then does the route post `WorkerDown`
//! through the connection's [`ConnRef`].
//!
//! Graceful shutdown: the `Shutdown` ack is released behind every data
//! reply before it, and then every shard stops, releasing what its timer
//! heap still holds and draining its write queues before it exits.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use bytes::Bytes;
use parking_lot::Mutex;
use spcache_store::backing::UnderStore;
use spcache_store::fault::FaultLog;
use spcache_store::rpc::{Delivery, Reply, Request, StoreError};
use spcache_store::worker::{Step, WorkerCore};
use spcache_store::StoreConfig;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::frame::{decode_request, encode_reply_parts, Frame};
use crate::poll::{serve, Completion, ConnRef, Served, WireFrame};

/// The `WorkerDown` answer to request `req_id` of worker `worker`.
fn down(worker: usize, req_id: u64) -> WireFrame {
    encode_reply_parts(&Reply::Err(StoreError::WorkerDown(worker)), req_id)
}

/// The route of a swallowed heartbeat, held by the core: dropped when
/// the worker goes down, it answers `WorkerDown`.
#[derive(Debug)]
struct HeldPing {
    conn: ConnRef,
    req_id: u64,
    worker: usize,
}

impl Drop for HeldPing {
    fn drop(&mut self) {
        let frame = down(self.worker, self.req_id);
        self.conn.complete(Completion::Frame(frame), Duration::ZERO);
    }
}

/// Decodes one request frame and serves it on the calling shard.
fn dispatch(id: usize, core: &Mutex<WorkerCore>, frame: Bytes, conn: &ConnRef) -> Served {
    let frame = Frame::parse(frame);
    // The refusal of a frame whose header parsed names its request.
    let req_id = frame.as_ref().map_or(0, |f| f.req_id);
    let req = match frame.and_then(|f| decode_request(&f)) {
        Ok(req) => req,
        Err(e) => return Served::Violation(encode_reply_parts(&Reply::Err(e), req_id)),
    };
    let shutdown = matches!(req, Request::Shutdown);
    let step = {
        let mut core = core.lock();
        let step = core.handle(req);
        if let Step::Hold = step {
            core.hold(Box::new(HeldPing { conn: conn.clone(), req_id, worker: id }));
        }
        step
    };
    let (what, release) = match step {
        Step::Answer(reply, how, sent) => {
            let what = match how {
                // Written as the emulated NIC sends it.
                Delivery::Reply => return Served::Paced(encode_reply_parts(&reply, req_id), sent),
                Delivery::Truncate => Completion::Truncate(encode_reply_parts(&reply, req_id)),
                Delivery::Close => Completion::Close,
                Delivery::Lose => Completion::Frame(down(id, req_id)),
            };
            (what, sent.end)
        }
        Step::Hold => return Served::Pending,
        Step::Stop(release) => {
            // Every shard applies the stop after this ack is queued.
            conn.stop_server();
            (Completion::Frame(encode_reply_parts(&Reply::Done, req_id)), release)
        }
        Step::Down => {
            // The server outlives a crashed worker until it is told to
            // stop.
            if shutdown {
                conn.stop_server();
            }
            (Completion::Frame(down(id, req_id)), Instant::now())
        }
    };
    Served::At(what, release)
}

/// A running worker server: call [`WorkerServer::join`] after a
/// graceful shutdown for a clean exit. Dropping it without one leaves
/// its I/O loops serving.
#[derive(Debug)]
pub struct WorkerServer {
    id: usize,
    addr: SocketAddr,
    shards: Vec<JoinHandle<()>>,
}

impl WorkerServer {
    /// Spawns worker `id` of a cluster described by `cfg`, listening on
    /// `bind` (use port 0 for an ephemeral port; the chosen address is
    /// [`WorkerServer::addr`]) with `io_shards` I/O loops (the
    /// `spcached --io-shards` flag lands here; see
    /// [`crate::poll::default_io_shards`]), which serve the worker
    /// themselves. The worker consumes its whole slice of `cfg.faults`
    /// and logs into `fault_log`. A budgeted worker's evicted partitions
    /// land in `spill` (normally the deployment's shared under-store, so
    /// whole-file checkpoints there make evictions free drops); without
    /// one it backs itself with a private under-store — eviction stays a
    /// performance event either way.
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
        let core = Arc::new(Mutex::new(WorkerCore::new(id, cfg, fault_log, spill)));
        let shards = serve(
            &format!("spcached-{id}-io"),
            listener,
            io_shards,
            move |frame, conn| dispatch(id, &core, frame, conn),
        )?;
        Ok(WorkerServer { id, addr, shards })
    }

    /// Worker index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the I/O loops to finish (they exit after a `Shutdown`
    /// request has been served).
    pub fn join(self) {
        for t in self.shards {
            let _ = t.join();
        }
    }
}
