//! The store's one fork-join engine: stamped batch submit → ready-set
//! join under caller-given timers → per-reply failure folding.
//!
//! Every worker interaction of the client, the repartitioner and the
//! online adjuster is a [`Fanout::fork`] followed by reading the
//! resulting [`Join`]: a read is "any `k` of the outstanding shards", a
//! write is "all acks", a synchronous call is a fan-out of one. The
//! placement check, the request stamps, the `Select` over reply routes
//! and the `suspect` / `mark_dead` / epoch-refresh bookkeeping are
//! written here once. A reply is never reported as a sign of life:
//! only the supervisor's epoch-checked probe revives a worker
//! (DESIGN.md §4.7), so a reply a worker sent before it died cannot
//! bring it back.
//!
//! This is the only place live traffic is stamped: each batch's
//! requests get one flat [`Stamp`] apiece — the target's cached
//! registration epoch, the master epoch read once for the batch, and
//! the engine's traffic class. A `Get` the caller already fenced by a
//! checksum ([`Stamp::expect`]) keeps that fence under the new stamp.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crossbeam::channel::{Receiver, Select, TryRecvError};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

use crate::landing::Region;
use crate::master::MetaService;
use crate::rpc::{PartKey, Reply, Request, Stamp, StoreError};
use crate::throttle::TrafficClass;
use crate::transport::Transport;

/// The typed, permanent error for a placement that names no worker.
pub(crate) fn empty_placement() -> StoreError {
    StoreError::Codec("empty placement".into())
}

/// Requests that ride with no landing region.
fn unlanded(reqs: Vec<(usize, Request)>) -> Vec<(usize, Request, Option<Region>)> {
    reqs.into_iter().map(|(w, req)| (w, req, None)).collect()
}

/// Who is talking to the fleet, and how its requests are stamped.
#[derive(Clone, Copy)]
pub(crate) struct Fanout<'a> {
    pub master: &'a dyn MetaService,
    pub transport: &'a dyn Transport,
    /// The caller's per-worker epoch cache when its requests are epoch
    /// fenced ([`Stamp::epoch`]); refreshed from the master on every
    /// stale-epoch bounce. `None` = unfenced.
    pub fence: Option<&'a Mutex<Vec<u64>>>,
    /// The class requests are stamped with ([`Stamp::class`]).
    pub class: TrafficClass,
    /// Stamp requests with the master's master epoch (§4.14).
    pub master_stamp: bool,
    /// Fold failure signals into the master's health table. Off for
    /// best-effort traffic to holders that may already be dead, whose
    /// silence says nothing new.
    pub health: bool,
}

impl<'a> Fanout<'a> {
    /// An engine that stamps nothing and folds health.
    pub fn plain(master: &'a dyn MetaService, transport: &'a dyn Transport) -> Self {
        Fanout {
            master,
            transport,
            fence: None,
            class: TrafficClass::Foreground,
            master_stamp: false,
            health: true,
        }
    }

    /// This engine for best-effort maintenance (GC deletes, read
    /// repair): unfenced — a stale epoch must not block it — and
    /// health-silent.
    pub fn best_effort(self) -> Self {
        Fanout {
            fence: None,
            master_stamp: false,
            health: false,
            ..self
        }
    }

    /// Forks `reqs` (`(worker, request)` pairs) as one stamped batch.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for an empty fan-out or a worker index
    /// outside the fleet; submission errors from the transport.
    pub fn fork(self, reqs: Vec<(usize, Request)>) -> Result<Join<'a>, StoreError> {
        self.fork_landing(unlanded(reqs))
    }

    /// [`fork`](Fanout::fork) where a request may ride with the
    /// [`Region`] its `Data` reply may land in (see
    /// [`Transport::submit_landing`]).
    ///
    /// # Errors
    ///
    /// See [`Fanout::fork`].
    pub fn fork_landing(
        self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Result<Join<'a>, StoreError> {
        let mut join = Join {
            io: self,
            routes: Vec::new(),
        };
        join.submit(reqs)?;
        Ok(join)
    }

    /// One synchronous call: a fan-out of one, joined within `wait`.
    pub fn call(self, worker: usize, req: Request, wait: Duration) -> Result<Reply, StoreError> {
        self.fork(vec![(worker, req)])?.one(wait)
    }

    /// Best-effort fan-out of `Delete` requests (GC): unreachable
    /// holders are skipped and every error is ignored. Returns how many
    /// holders reported the key resident.
    pub fn discard(self, deletes: Vec<(usize, Request)>, wait: Duration) -> usize {
        let io = self.best_effort();
        let until = Instant::now() + wait;
        // One fork per holder: a dead one must not abort the rest.
        let forks: Vec<Join> = deletes
            .into_iter()
            .filter_map(|delete| io.fork(vec![delete]).ok())
            .collect();
        forks
            .into_iter()
            .filter_map(|mut fork| fork.next(until))
            .filter(|(_, reply)| matches!(reply, Ok(Reply::Flag(true))))
            .count()
    }

    /// Commits a layout built under staged keys (the online adjuster's
    /// and the repartitioner's last phase): drops `old_servers`' keys of
    /// `file` best-effort, renames every staged partition `j` on
    /// `new_servers[j]` to its final key, and installs `new_servers` as
    /// the file's placement.
    ///
    /// A staged key can vanish between stage and commit (its worker
    /// crash-restarted cold). The placement is applied all the same —
    /// the file is then degraded, which the heal owns — and the first
    /// such key is reported.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] naming the first staged key that was
    /// missing at commit; transport errors of a rename (the placement is
    /// then left as it was); metadata errors of the swap.
    pub fn commit_staged(
        self,
        file: u64,
        old_servers: &[usize],
        new_servers: &[usize],
        wait: Duration,
    ) -> Result<(), StoreError> {
        let old = old_servers.iter().enumerate();
        let deletes = old.map(|(j, &s)| (s, Request::Delete { key: PartKey::new(file, j as u32) }));
        self.discard(deletes.collect(), wait);
        let mut lost = None;
        for (j, &server) in new_servers.iter().enumerate() {
            let key = PartKey::new(file, j as u32);
            let rename = Request::Rename { from: key.staged(), to: key };
            if !self.call(server, rename, wait)?.flag()? {
                lost = lost.or(Some(key.staged()));
            }
        }
        self.master.apply_placement(file, new_servers.to_vec())?;
        lost.map_or(Ok(()), |key| Err(StoreError::NotFound(key)))
    }

    /// Stamps one batch: the master epoch is read once and the epoch
    /// cache locked once, and the cache is fetched from the master while
    /// no worker has been granted an epoch yet (0 = don't fence).
    fn stamp(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Vec<(usize, Request, Option<Region>)> {
        let master = if self.master_stamp {
            self.master.master_epoch()
        } else {
            0
        };
        let mut epochs = self.fence.map(|cache| cache.lock());
        if let Some(cache) = epochs.as_deref_mut() {
            if cache.iter().all(|&e| e == 0) {
                *cache = self.master.worker_epochs(self.transport.n_workers());
            }
        }
        reqs.into_iter()
            .map(|(w, req, region)| {
                let epoch = epochs.as_ref().and_then(|cache| cache.get(w).copied());
                let expect = match &req {
                    Request::Stamped { stamp, .. } => stamp.expect,
                    _ => 0,
                };
                let stamp = Stamp {
                    epoch: epoch.unwrap_or(0),
                    master,
                    expect,
                    class: self.class,
                };
                (w, req.stamped(stamp), region)
            })
            .collect()
    }

    /// Folds an error's health signal into the master's table. Endpoint
    /// indices outside the worker fleet (e.g. the master sentinel used by
    /// wire transports) carry no worker-health signal and are ignored.
    fn note_error(&self, e: &StoreError) {
        if !self.health {
            return;
        }
        match e {
            StoreError::WorkerDown(w) if *w < self.transport.n_workers() => {
                self.master.mark_dead(*w);
            }
            StoreError::Timeout(w) | StoreError::Io(w) if *w < self.transport.n_workers() => {
                self.master.suspect(*w);
            }
            _ => {}
        }
    }

    /// Interprets one landed reply for the health table: a transport
    /// error a wire transport folded into the reply stream
    /// (`Io`/`Timeout`/`WorkerDown`) is reported, and a stale-epoch
    /// bounce refreshes the epoch cache so the retry stamps current
    /// grants. An answer — an application-level error included — is not
    /// reported at all.
    fn fold(&self, reply: Reply) -> Result<Reply, StoreError> {
        let reply = match reply {
            Reply::Err(e) => Err(e),
            ok => Ok(ok),
        };
        match (&reply, self.fence) {
            (Err(StoreError::StaleEpoch(_)), Some(cache)) if self.health => {
                *cache.lock() = self.master.worker_epochs(self.transport.n_workers());
            }
            (Err(e), _) => self.note_error(e),
            _ => {}
        }
        reply
    }
}

/// The outstanding set of one fork: a reply route per request, in
/// submission order.
pub(crate) struct Join<'a> {
    io: Fanout<'a>,
    /// `(worker, route)`; the route is dropped once it has answered or
    /// been given up on.
    routes: Vec<(usize, Option<Receiver<Reply>>)>,
}

impl Join<'_> {
    /// Widens the outstanding set with another stamped batch; the new
    /// routes take the next indices.
    ///
    /// # Errors
    ///
    /// See [`Fanout::fork`]. A failed batch leaves the set unchanged.
    pub fn widen(&mut self, reqs: Vec<(usize, Request)>) -> Result<(), StoreError> {
        self.submit(unlanded(reqs))
    }

    fn submit(&mut self, reqs: Vec<(usize, Request, Option<Region>)>) -> Result<(), StoreError> {
        let io = self.io;
        let n = io.transport.n_workers();
        // Placements arrive from the master over the wire and from
        // callers: reject what the transports would index out of range.
        if reqs.is_empty() {
            return Err(empty_placement());
        }
        if let Some(&(w, ..)) = reqs.iter().find(|&&(w, ..)| w >= n) {
            return Err(StoreError::Codec(format!(
                "placement names worker {w} of a {n}-worker fleet"
            )));
        }
        let workers: Vec<usize> = reqs.iter().map(|&(w, ..)| w).collect();
        let reqs = io.stamp(reqs);
        // One transport call per batch, so a socket transport coalesces
        // the frames into shared `writev` rounds.
        let routes = io
            .transport
            .submit_landing(reqs)
            .inspect_err(|e| io.note_error(e))?;
        self.routes
            .extend(workers.into_iter().zip(routes.into_iter().map(Some)));
        Ok(())
    }

    /// How many routes are still outstanding.
    pub fn pending(&self) -> usize {
        self.outstanding().count()
    }

    /// Indices of the outstanding routes, ascending.
    fn outstanding(&self) -> impl Iterator<Item = usize> + '_ {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(i, (_, route))| route.as_ref().map(|_| i))
    }

    /// Waits for the next reply to land on any outstanding route and
    /// returns `(route index, folded reply)`; a route whose sender died
    /// unanswered yields [`StoreError::WorkerDown`]. `None` once `until`
    /// passes — or at once when nothing is outstanding.
    pub fn next(&mut self, until: Instant) -> Option<(usize, Result<Reply, StoreError>)> {
        while self.pending() > 0 {
            let ready = {
                let mut sel = Select::new();
                for (_, route) in &self.routes {
                    if let Some(rx) = route {
                        sel.recv(rx);
                    }
                }
                sel.ready_deadline(until).ok()?
            };
            // `ready` indexes the outstanding routes the `Select` was
            // built over, so both lookups succeed.
            let i = self.outstanding().nth(ready)?;
            let (worker, route) = &mut self.routes[i];
            let landed = match route.as_ref()?.try_recv() {
                Ok(reply) => self.io.fold(reply),
                Err(TryRecvError::Disconnected) => {
                    let down = StoreError::WorkerDown(*worker);
                    self.io.note_error(&down);
                    Err(down)
                }
                // Spurious readiness; go wait again.
                Err(TryRecvError::Empty) => continue,
            };
            *route = None;
            return Some((i, landed));
        }
        None
    }

    /// The join's deadline passed with routes outstanding: suspects the
    /// holder of the first one and returns its [`StoreError::Timeout`].
    pub fn expire(&self) -> StoreError {
        let Some(i) = self.outstanding().next() else {
            return StoreError::Codec("a join expired with nothing outstanding".into());
        };
        let late = StoreError::Timeout(self.routes[i].0);
        self.io.note_error(&late);
        late
    }

    /// Joins every route as a unit ack under one deadline.
    ///
    /// # Errors
    ///
    /// The first failed ack to land, or the deadline's
    /// [`StoreError::Timeout`].
    pub fn acks(mut self, wait: Duration) -> Result<(), StoreError> {
        let until = Instant::now() + wait;
        while self.pending() > 0 {
            match self.next(until) {
                Some((_, reply)) => reply?.unit()?,
                None => return Err(self.expire()),
            }
        }
        Ok(())
    }

    /// Joins the first reply to land (the only one, for a fan-out of
    /// one) within `wait`.
    pub fn one(mut self, wait: Duration) -> Result<Reply, StoreError> {
        match self.next(Instant::now() + wait) {
            Some((_, reply)) => reply,
            None => Err(self.expire()),
        }
    }
}
