//! The transport abstraction between clients/executors and workers.
//!
//! Every data-plane interaction with a worker goes through
//! [`Transport`]: submit a pure-data [`Request`] to worker `w`, get back
//! a one-shot channel the single [`Reply`] will arrive on. The fork-join
//! read path selects over many such channels at once, so the trait
//! deliberately returns the receiver instead of blocking — a transport
//! is a request router, not an RPC stub.
//!
//! Two implementations exist:
//!
//! * [`ChannelTransport`] (here) — the in-process path: each worker is a
//!   thread behind a crossbeam channel. Submission failure means the
//!   worker thread is gone, which in-process is *definitive* death
//!   ([`StoreError::WorkerDown`]).
//! * `spcache_net::TcpTransport` — real sockets with length-prefixed
//!   frames and per-connection request-id multiplexing. Submission
//!   failure there is an I/O error ([`StoreError::Io`]): the remote may
//!   well be alive, so the error is retryable and feeds suspicion rather
//!   than a death certificate.

use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::landing::Region;
use crate::rpc::{Envelope, Reply, Request, StoreError};

/// A route to a fleet of workers.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Number of workers addressable through this transport.
    fn n_workers(&self) -> usize;

    /// Submits `req` to worker `worker`, returning the channel its
    /// [`Reply`] will arrive on. The call only queues the request; the
    /// caller decides how long to wait (and whether to select over many
    /// receivers).
    ///
    /// # Errors
    ///
    /// [`StoreError::WorkerDown`] when the in-process channel is closed;
    /// [`StoreError::Io`] when a socket transport cannot reach the
    /// worker.
    fn submit(&self, worker: usize, req: Request) -> Result<Receiver<Reply>, StoreError>;

    /// Submits a batch of requests, returning one reply receiver per
    /// request in order. The default is a fail-fast loop of
    /// [`submit`](Transport::submit); socket transports override it to
    /// hand the whole batch to their event loops in one wakeup so the
    /// frames coalesce into shared `writev` calls.
    ///
    /// # Errors
    ///
    /// The first submission error aborts the batch (requests already
    /// submitted stay in flight; their receivers are dropped).
    fn submit_batch(
        &self,
        reqs: Vec<(usize, Request)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        reqs.into_iter()
            .map(|(worker, req)| self.submit(worker, req))
            .collect()
    }

    /// [`submit_batch`](Transport::submit_batch) where the `Data` reply
    /// to a request that rides with a [`Region`] may land its payload in
    /// that region instead of a buffer of its own; the reply then carries
    /// no bytes (see [`crate::landing`]). The default lands nothing: the
    /// in-process transport's replies are zero-copy views already, and
    /// the client places them itself.
    ///
    /// # Errors
    ///
    /// As for [`submit_batch`](Transport::submit_batch).
    fn submit_landing(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        self.submit_batch(reqs.into_iter().map(|(w, req, _)| (w, req)).collect())
    }

    /// Convenience blocking call: submit and wait up to `timeout`.
    ///
    /// # Errors
    ///
    /// Submission errors; [`StoreError::Timeout`] when no reply lands in
    /// time; [`StoreError::WorkerDown`] when the reply route dies
    /// unanswered (in-process: the worker dropped the reply sender).
    fn call(&self, worker: usize, req: Request, timeout: Duration) -> Result<Reply, StoreError> {
        let rx = self.submit(worker, req)?;
        match rx.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(RecvTimeoutError::Disconnected) => Err(StoreError::WorkerDown(worker)),
            Err(RecvTimeoutError::Timeout) => Err(StoreError::Timeout(worker)),
        }
    }
}

/// The in-process transport: one crossbeam channel per worker thread.
///
/// This is the seed system's data path, unchanged in behaviour — only
/// moved behind the [`Transport`] trait so the TCP transport can slot in
/// beside it.
#[derive(Debug, Clone)]
pub struct ChannelTransport {
    senders: Vec<Sender<Envelope>>,
}

impl ChannelTransport {
    /// Wraps the per-worker request channels.
    pub fn new(senders: Vec<Sender<Envelope>>) -> Self {
        assert!(!senders.is_empty(), "need at least one worker");
        ChannelTransport { senders }
    }

    /// The raw channel to one worker (tests that poke workers directly).
    pub fn sender(&self, worker: usize) -> &Sender<Envelope> {
        &self.senders[worker]
    }
}

impl Transport for ChannelTransport {
    fn n_workers(&self) -> usize {
        self.senders.len()
    }

    fn submit(&self, worker: usize, req: Request) -> Result<Receiver<Reply>, StoreError> {
        let (envelope, rx) = Envelope::channel(req);
        self.senders[worker]
            .send(envelope)
            .map_err(|_| StoreError::WorkerDown(worker))?;
        Ok(rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_to_closed_channel_is_worker_down() {
        let (tx, rx) = crossbeam::channel::unbounded::<Envelope>();
        drop(rx);
        let t = ChannelTransport::new(vec![tx]);
        assert_eq!(
            t.submit(0, Request::Ping).unwrap_err(),
            StoreError::WorkerDown(0)
        );
    }

    #[test]
    fn call_round_trips_through_a_responder() {
        let (tx, rx) = crossbeam::channel::unbounded::<Envelope>();
        std::thread::spawn(move || {
            while let Ok(env) = rx.recv() {
                env.reply.send(Reply::Pong { worker: 3, epoch: 0 });
            }
        });
        let t = ChannelTransport::new(vec![tx]);
        let reply = t.call(0, Request::Ping, Duration::from_secs(1)).unwrap();
        assert_eq!(reply.pong().unwrap(), 3);
    }

    #[test]
    fn call_times_out_when_nobody_answers() {
        let (tx, _rx) = crossbeam::channel::unbounded::<Envelope>();
        // Keep _rx alive so the channel stays open but unserved.
        let t = ChannelTransport::new(vec![tx]);
        assert_eq!(
            t.call(0, Request::Ping, Duration::from_millis(20))
                .unwrap_err(),
            StoreError::Timeout(0)
        );
        drop(_rx);
    }
}
