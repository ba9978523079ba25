//! The SP-Client: parallel fork-join reads and writes over the store's
//! one fork-join engine ([`crate::forkjoin`]) — a zero-copy data path
//! with a single per-attempt deadline, bounded retry and parity decode,
//! all as "obtain any `k` of the outstanding shards".
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use bytes::Bytes;
use parking_lot::Mutex;
use spcache_ec::{split_shards_bytes, ReedSolomon};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::backing::UnderStore;
use crate::config::{RetryPolicy, StoreConfig};
use crate::forkjoin::{empty_placement, Fanout};
use crate::landing::Landing;
use crate::master::MetaService;
use crate::metalog::FileIntegrity;
use crate::placements::{Memory, Placement, REPORT_EVERY, SUMMED_READ_MAX};
use crate::rpc::{PartKey, Reply, Request, Stamp, StoreError};
use crate::throttle::TrafficClass;
use crate::transport::Transport;

/// A client handle onto a running store cluster.
///
/// Cloning is cheap; each clone can issue requests concurrently.
///
/// The client is **transport-agnostic**: it talks to workers through a
/// [`Transport`] (in-process channels or `spcache-net`'s TCP framing)
/// and to its master through a [`MetaService`] (the in-process
/// [`crate::master::Master`] or a wire master client) — the read/write
/// logic below is byte-identical over both.
///
/// Reads are **robust** and **out-of-order**: all `k` partition fetches
/// are issued at once and their replies consumed as they land via a
/// ready-set select over the reply channels — no partition waits
/// behind a slower, lower-indexed one. One [`RetryPolicy::deadline`]
/// covers the whole read attempt (the fork-join of Fig. 9a really is
/// bounded by its slowest partition, not by `k` stacked timeouts). A
/// failed attempt is retried with exponential backoff after re-locating
/// the file (and, when an under-store is attached, after recovering lost
/// partitions onto live workers). An erased partition
/// (`Corrupt`, `NotFound`, a checksum mismatch) widens the same attempt
/// with the file's parity fetches, after which any `k` of the `k + r`
/// shards finish the read (DESIGN.md §4.7).
///
/// Reads move each byte once: [`Client::write_bytes`] slices one backing
/// buffer into partition views, and workers store and reply with views
/// of that same allocation. [`Client::read`] allocates its output once
/// and gives each partition `Get` its region of it ([`crate::landing`]):
/// a socket transport reads the reply payload straight into that region,
/// and bytes that arrive another way (the in-process transport, a
/// decode) are written there by the client — one copy either way, and no
/// join pass after the last reply.
///
/// Reads of a file whose placement the client already knows make **no
/// master call**: the client caches each file's size, holders and
/// partition checksums (filled by its own writes and reads), fences
/// every cached `Get` by the checksum it expects, and reports the access
/// counts of cached reads to the master in batches
/// ([`Client::flush_accesses`]).
#[derive(Debug, Clone)]
pub struct Client {
    master: Arc<dyn MetaService>,
    transport: Arc<dyn Transport>,
    retry: RetryPolicy,
    under: Option<Arc<UnderStore>>,
    /// Whether data requests are stamped with the target worker's
    /// fencing epoch ([`crate::rpc::Stamp::epoch`]); off by default — an
    /// unfenced client is wire-identical to the pre-supervisor store.
    fenced: bool,
    /// Cached per-worker epoch table, shared across clones; refreshed
    /// from the master whenever a worker bounces a stale stamp.
    epochs: Arc<Mutex<Vec<u64>>>,
    /// Whether reads re-verify each landed partition against the
    /// master's checksum row (§4.15). Off by default: workers already
    /// verify when their `verify_reads` knob is on, and the wire adds
    /// its own framing CRCs — this knob adds the end-to-end check.
    verify: bool,
    /// How many Cauchy-RS parity partitions each write fans out (onto
    /// workers outside the file's data placement). 0 = redundancy-free
    /// (the seed behaviour); `r ≥ 1` lets a read rebuild a corrupt or
    /// lost partition from any `k` of the `k + r` partitions without an
    /// under-store round-trip.
    parity: usize,
    /// Cached placements and pending access counts, shared across
    /// clones.
    memory: Arc<Memory>,
}

impl Client {
    /// Builds a client over a metadata service and a worker transport,
    /// with a single-attempt [`RetryPolicy::none`] (the seed behaviour).
    pub fn new(master: Arc<dyn MetaService>, transport: Arc<dyn Transport>) -> Self {
        Client {
            memory: Arc::new(Memory::new(master.clone())),
            master,
            transport,
            retry: RetryPolicy::none(),
            under: None,
            fenced: false,
            epochs: Arc::new(Mutex::new(Vec::new())),
            verify: false,
            parity: 0,
        }
    }

    /// The client a cluster configured by `cfg` hands out: its retry
    /// policy, end-to-end verification and parity width; under a
    /// supervisor additionally **fenced** (stamps registration epochs
    /// onto data requests); `under`, if any, attached for read-path
    /// healing.
    pub fn from_config(
        master: Arc<dyn MetaService>,
        transport: Arc<dyn Transport>,
        cfg: &StoreConfig,
        under: Option<Arc<UnderStore>>,
    ) -> Self {
        Client {
            retry: cfg.retry,
            under,
            fenced: cfg.supervisor.enabled,
            verify: cfg.verify_reads,
            parity: cfg.parity,
            ..Client::new(master, transport)
        }
    }

    /// Sets the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches the under-store used for read-path recovery.
    pub fn with_under_store(mut self, under: Arc<UnderStore>) -> Self {
        self.under = Some(under);
        self
    }

    /// Enables end-to-end read verification (builder style): every
    /// landed partition is checked against the master's checksum row,
    /// and a mismatch surfaces as a [`StoreError::Corrupt`] erasure
    /// instead of wrong bytes. Writes from a verifying client always
    /// record an integrity row.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the per-file parity width `r` (builder style): each write
    /// additionally encodes `r` Cauchy-RS parity partitions placed on
    /// workers *outside* the data placement, enabling the
    /// corruption-to-erasure recovery path of §4.15. Clamped per write
    /// to the number of spare workers.
    pub fn with_parity(mut self, parity: usize) -> Self {
        self.parity = parity;
        self
    }

    /// Number of workers visible to this client.
    pub fn n_workers(&self) -> usize {
        self.transport.n_workers()
    }

    /// The metadata service (for metadata queries).
    pub fn master(&self) -> &Arc<dyn MetaService> {
        &self.master
    }

    /// The worker transport.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Always 0: the client has no hedged reads. Kept only because
    /// spbench still reports `store.client.hedged_fetches` through it;
    /// it goes when the benchmark retires that counter.
    pub fn hedged_fetches(&self) -> u64 {
        0
    }

    /// Writes a file split into `k` partitions on the given `servers`
    /// (`servers.len() == k`). All partitions are pushed in parallel;
    /// returns when the slowest lands (§6.1 writes whole files with
    /// `k = 1`; the split-write mode of §7.8 passes larger `k`).
    ///
    /// Copies `data` once into a shared buffer; use
    /// [`Client::write_bytes`] to skip even that copy.
    ///
    /// # Errors
    ///
    /// Propagates worker failures; metadata registration errors if the id
    /// is taken.
    pub fn write(&self, id: u64, data: &[u8], servers: &[usize]) -> Result<(), StoreError> {
        self.write_bytes(id, Bytes::copy_from_slice(data), servers)
    }

    /// Zero-copy write: `data`'s backing allocation is sliced into
    /// per-partition views that the workers store directly — no byte is
    /// copied anywhere on the write path.
    ///
    /// # Errors
    ///
    /// Propagates worker failures; metadata registration errors if the id
    /// is taken; [`StoreError::Codec`] for an empty placement or one
    /// naming a worker outside the fleet.
    pub fn write_bytes(&self, id: u64, data: Bytes, servers: &[usize]) -> Result<(), StoreError> {
        let size = data.len();
        let sums = self.push_partitions(id, &data, servers)?;
        self.master.register(id, size, servers.to_vec())?;
        let row = if self.verify || self.parity > 0 {
            // Record the integrity row only after the file exists: the
            // checksums describe exactly the partitions just pushed, and
            // the parity map tells readers where the recovery set lives.
            let parity = self.push_parity(id, &data, servers)?;
            let row = FileIntegrity { sums: sums.clone(), parity };
            self.master.set_integrity(id, row.clone())?;
            Some(row)
        } else {
            None
        };
        self.remember(id, size, servers, sums, row);
        Ok(())
    }

    /// Writes a whole batch of files in one wave: every file's
    /// partition pushes are fired as a **single** transport batch
    /// (socket transports coalesce them into shared `writev` rounds),
    /// completions are collected under one shared deadline, and all
    /// metadata rows land through one [`MetaService::register_batch`]
    /// call — one metadata round-trip per wave instead of one per file.
    /// This is the seeding path for million-file corpora (§6.1 at
    /// fleet scale): callers stream chunks of a few thousand files
    /// through here instead of calling [`Client::write_bytes`] a
    /// million times.
    ///
    /// # Errors
    ///
    /// Propagates worker failures and metadata registration errors (a
    /// duplicate id rejects the whole chunk's metadata; already-pushed
    /// partitions are orphaned until GC, matching single-write
    /// semantics on registration failure).
    pub fn write_many(&self, files: &[(u64, Bytes, Vec<usize>)]) -> Result<(), StoreError> {
        if files.is_empty() {
            return Ok(());
        }
        let mut rows = Vec::new();
        let mut placed = Vec::with_capacity(files.len());
        let mut integrity = Vec::with_capacity(files.len());
        for (id, data, servers) in files {
            integrity.push(split_rows(*id, data, servers, &mut rows)?);
            placed.push((*id, data.len(), servers.clone()));
        }
        self.put_all(rows)?;
        self.master.register_batch(&placed)?;
        for ((id, size, servers), sums) in placed.into_iter().zip(integrity) {
            let row = if self.verify || self.parity > 0 {
                // The bulk-seeding path records checksum rows but skips
                // the parity fan-out (seed corpora are re-derivable;
                // parity is for the hot set written through
                // `write_bytes`).
                let row = FileIntegrity::data_only(sums.clone());
                self.master.set_integrity(id, row.clone())?;
                Some(row)
            } else {
                None
            };
            self.remember(id, size, &servers, sums, row);
        }
        Ok(())
    }

    /// Pushes `data` re-split into `servers.len()` partition views under
    /// this file's keys without touching metadata — the two steps
    /// ([`split_rows`], then the Put fan-out) of [`Client::write_bytes`].
    /// The views share `data`'s allocation (see [`split_shards_bytes`]).
    /// Returns the partitions' checksums (each Put is stamped with its
    /// shard's sum, so workers can verify later reads and spill reloads).
    fn push_partitions(
        &self,
        id: u64,
        data: &Bytes,
        servers: &[usize],
    ) -> Result<Vec<u64>, StoreError> {
        let mut rows = Vec::with_capacity(servers.len());
        let sums = split_rows(id, data, servers, &mut rows)?;
        self.put_all(rows)?;
        Ok(sums)
    }

    /// Encodes and pushes this file's Cauchy-RS parity partitions onto
    /// workers *outside* its data placement, so no single worker holds
    /// both a data partition and the parity needed to rebuild it.
    /// Returns the `(server, checksum)` pair per parity index — the
    /// parity half of the master's integrity row. The configured width
    /// is clamped to the number of spare workers (a fleet with no spare
    /// gets no parity; the read path then heals via the under-store).
    fn push_parity(
        &self,
        id: u64,
        data: &Bytes,
        servers: &[usize],
    ) -> Result<Vec<(usize, u64)>, StoreError> {
        let k = servers.len();
        let spare: Vec<usize> = (0..self.transport.n_workers())
            .filter(|w| !servers.contains(w))
            .collect();
        let r = self.parity.min(spare.len());
        if r == 0 {
            return Ok(Vec::new());
        }
        let mut shards = ReedSolomon::new_cauchy(k, k + r).encode_bytes(data);
        let parity: Vec<Bytes> = shards.split_off(k).into_iter().map(Bytes::from).collect();
        let sums = spcache_integrity::sums(&parity);
        // Rotate the spare list by file id so parity load spreads across
        // the fleet instead of piling onto the lowest-indexed workers.
        let rot = (id as usize) % spare.len();
        let row: Vec<(usize, u64)> = (0..r)
            .map(|p| (spare[(rot + p) % spare.len()], sums[p]))
            .collect();
        let rows = parity
            .into_iter()
            .zip(&row)
            .enumerate()
            .map(|(p, (shard, &(server, sum)))| (server, PartKey::parity(id, p as u32), shard, sum))
            .collect();
        self.put_all(rows)?;
        Ok(row)
    }

    /// The one Put fan-out: forks `rows` as a single stamped batch and
    /// joins the acks under one shared deadline (the write is bounded by
    /// its slowest partition, not by the sum of per-partition waits).
    fn put_all(&self, rows: Vec<PutRow>) -> Result<(), StoreError> {
        self.io().fork(puts(rows))?.acks(self.retry.deadline)
    }

    /// Best-effort drop of partitions on their holders (a delete's GC);
    /// returns how many were resident. Errors and dead workers are
    /// ignored. Deliberately unfenced (a stale epoch must not block GC)
    /// and health-silent (a fenced zombie's answer must not revive it).
    fn discard(&self, keys: Vec<(usize, PartKey)>) -> usize {
        let deletes = keys
            .into_iter()
            .map(|(server, key)| (server, Request::Delete { key }))
            .collect();
        self.io().discard(deletes, self.retry.deadline)
    }

    /// This client as a fork-join engine: its master, transport and
    /// request stamps.
    fn io(&self) -> Fanout<'_> {
        Fanout {
            fence: self.fenced.then_some(&*self.epochs),
            ..Fanout::plain(self.master.as_ref(), self.transport.as_ref())
        }
    }

    /// This client as a layout mover ([`Fanout::mover`]) under its own
    /// worker-epoch fence, and the wait of each of its replies — how a
    /// heal moves a file ([`crate::backing::recover_file`]).
    pub(crate) fn mover(&self) -> (Fanout<'_>, Duration) {
        let io = Fanout {
            fence: self.fenced.then_some(&*self.epochs),
            ..Fanout::mover(self.master.as_ref(), self.transport.as_ref())
        };
        (io, self.retry.deadline)
    }

    /// Reads a file: fetches its partitions in parallel and lands each
    /// reply in its region of one output buffer as it arrives (the
    /// fork-join of Fig. 9a, out of order).
    ///
    /// When this client has the file's placement cached (its own write or
    /// an earlier read put it there), the read makes **no master call**:
    /// one attempt sends the `k` `Get`s straight to the cached holders,
    /// each fenced by the checksum the cache recorded for its partition,
    /// and the access is added to a batch the master receives later
    /// ([`Client::flush_accesses`]). If that attempt fails — a stale
    /// placement answers [`StoreError::StalePlacement`] rather than other
    /// bytes — the entry is dropped and the read starts over as an
    /// uncached one, without spending a [`RetryPolicy`] attempt (a
    /// [`StoreError::Timeout`] excepted, which counts as any attempt's).
    ///
    /// An uncached read locates the file through the master (which counts
    /// the access) and retries failed attempts per the [`RetryPolicy`],
    /// recovering from the under-store when one is attached; its success
    /// caches the placement, with the partitions' checksums taken from
    /// the integrity row a verifying client holds or else summed over the
    /// landed bytes — which only a file of at most 64 KiB pays for.
    ///
    /// # Errors
    ///
    /// Propagates unknown files, and — once retries are exhausted —
    /// missing or wrong-length partitions, timeouts, transport I/O
    /// failures and dead workers.
    pub fn read(&self, id: u64) -> Result<Vec<u8>, StoreError> {
        self.read_with(id, true)
    }

    /// Reads without bumping the popularity counter.
    pub fn read_quiet(&self, id: u64) -> Result<Vec<u8>, StoreError> {
        self.read_with(id, false)
    }

    /// Cached reads between two access reports to the master.
    pub const ACCESS_REPORT_EVERY: u64 = REPORT_EVERY;

    /// Reports to the master, now, the access counts of every cached read
    /// not yet reported (across all clones of this client). They also
    /// leave on their own every [`Client::ACCESS_REPORT_EVERY`] cached
    /// reads and when the last clone is dropped; call this before asking
    /// the master for popularity (a rebalance plan, an access count).
    pub fn flush_accesses(&self) {
        self.memory.flush();
    }

    /// The read path: one attempt on the cached placement, if any, then
    /// the retry loop around [`Client::attempt`] — locate → attempt →
    /// (heal, back off, re-locate) until the attempt succeeds, the error
    /// is permanent or the [`RetryPolicy`] is exhausted.
    fn read_with(&self, id: u64, count_access: bool) -> Result<Vec<u8>, StoreError> {
        let mut cached = self.memory.get(id);
        // Whether the master still has to count this read.
        let mut uncounted = count_access;
        let mut attempt = 0u32;
        loop {
            let hit = cached.take();
            let located;
            let (size, servers) = match hit.as_deref() {
                Some(placed) => (placed.size, &placed.servers[..]),
                // Re-locate every attempt: recovery and repartition both
                // change the placement under us.
                None => {
                    located = if std::mem::take(&mut uncounted) {
                        self.master.locate(id)
                    } else {
                        self.master.peek(id)
                    }?;
                    (located.0, &located.1[..])
                }
            };
            let mut asm = Landing::new(size, servers.len());
            let err = match self.attempt(id, servers, hit.as_deref(), &mut asm) {
                Ok(row) => {
                    if hit.is_some() {
                        if count_access {
                            self.memory.count(id);
                        }
                    } else {
                        self.remember_read(id, servers, row, &asm);
                    }
                    // A successful attempt holds every part; were one
                    // missing, the read names it rather than join a hole.
                    let missing = |j: usize| StoreError::NotFound(PartKey::new(id, j as u32));
                    return asm.into_vec().map_err(missing);
                }
                Err(e) => e,
            };
            if hit.is_some() {
                self.memory.forget(id);
                // Any failure but a timeout may be the cached placement
                // itself: hand over to the located loop, which owes this
                // read nothing. A timeout is what the located attempt
                // would have met too, so it counts like one — and the
                // read is counted here, as its locate would have.
                if !matches!(err, StoreError::Timeout(_)) {
                    continue;
                }
                if std::mem::take(&mut uncounted) {
                    self.memory.count(id);
                }
            }
            attempt += 1;
            if !err.is_retryable() || attempt >= self.retry.max_attempts {
                return Err(err);
            }
            self.heal(id, servers.len());
            let backoff = self.retry.base_backoff * 2u32.saturating_pow(attempt - 1);
            if backoff > Duration::ZERO {
                std::thread::sleep(backoff);
            }
        }
    }

    /// Caches file `id`'s placement after a write: `sums` are the pushed
    /// partitions' checksums, `row` the integrity row recorded, if any
    /// (kept only when this client verifies reads).
    fn remember(
        &self,
        id: u64,
        size: usize,
        servers: &[usize],
        sums: Vec<u64>,
        row: Option<FileIntegrity>,
    ) {
        let row = row.filter(|_| self.verify);
        let servers = servers.to_vec();
        self.memory.insert(id, Placement { size, servers, sums, row });
    }

    /// Caches file `id`'s placement after a located read that landed
    /// `asm`: the sums come from the integrity row the attempt held, when
    /// it describes this placement, else from the landed partitions — of
    /// a file no larger than [`SUMMED_READ_MAX`]; a larger one, or one
    /// with a part not in hand, stays uncached.
    fn remember_read(&self, id: u64, servers: &[usize], row: Option<FileIntegrity>, asm: &Landing) {
        let k = servers.len();
        let row = row.filter(|r| r.sums.len() == k);
        let sums = match &row {
            Some(r) => r.sums.clone(),
            None if asm.size() > SUMMED_READ_MAX => return,
            None => {
                let Some(parts) = (0..k).map(|j| asm.part(j)).collect::<Option<Vec<_>>>() else {
                    return;
                };
                spcache_integrity::sums(&parts)
            }
        };
        self.remember(id, asm.size(), servers, sums, row);
    }

    /// Heals before a retry: recovers the file from the under-store onto
    /// live workers, so the next attempt reads a fresh placement instead
    /// of the same hole. A heal that fails leaves the retry loop to
    /// meet the hole again; a denied repair slot means someone else (the
    /// supervisor's sweep or another client) is already healing this
    /// file, and the retry loop waits that repair out. The heal moves the
    /// file as every layout mover does: background- and master-stamped,
    /// under this client's own worker-epoch fence.
    fn heal(&self, id: u64, k: usize) {
        let Some(under) = self.under.as_ref().filter(|u| u.contains(id)) else {
            return;
        };
        let live = self.master.live_workers(self.transport.n_workers());
        let targets = crate::backing::recovery_targets(&live, k, id);
        let _ = crate::backing::recover_file(self, self.master.as_ref(), under, id, &targets);
    }

    /// One fork-join read attempt against a fixed placement: *obtain any
    /// `k` of the outstanding shards* (DESIGN.md §4.7 describes the
    /// states and events). The outstanding set starts as the `k` data
    /// `Get`s, each riding with its region of `asm`, forked as one batch
    /// and joined as they land under a **single deadline**; a data shard
    /// is in `asm` as soon as its reply lands. The first erasure
    /// (`Corrupt`, `NotFound`, a checksum mismatch, a partition of the
    /// wrong length) **widens** the same set once with the file's `r`
    /// `GetParity` fetches, after which any `k` of the `k + r` end the
    /// wait; any other failure before widening fails the attempt (the
    /// retry loop heals). With `k` shards in hand, missing data shards
    /// are decoded in place, proved and re-landed.
    ///
    /// `cached` is the client's cached placement when `servers` came from
    /// it: each `Get` is then fenced by its partition's cached checksum,
    /// and a widening decodes only against the master's current row, and
    /// only while that row still holds those checksums — a stale
    /// placement fails the attempt, it never yields bytes. Returns the
    /// integrity row the attempt held.
    fn attempt(
        &self,
        id: u64,
        servers: &[usize],
        cached: Option<&Placement>,
        asm: &mut Landing,
    ) -> Result<Option<FileIntegrity>, StoreError> {
        let k = servers.len();
        let fence = cached.map(|placed| &placed.sums[..]);
        // The integrity row travels beside the placement: cached with it,
        // or fetched up front when this client verifies, else on the
        // first erasure (workers may verify even when the client
        // doesn't).
        let mut row = cached.and_then(|placed| placed.row.clone());
        if row.is_none() && self.verify {
            row = self.master.integrity(id);
        }
        let deadline = Instant::now() + self.retry.deadline;
        let gets = servers
            .iter()
            .enumerate()
            .map(|(j, &server)| {
                let expect = fence.map_or(0, |sums| sums[j]);
                let get = Request::Get { key: PartKey::new(id, j as u32) };
                (server, get.stamped(Stamp { expect, ..Stamp::default() }), Some(asm.region(j)))
            })
            .collect();
        let mut join = self.io().fork_landing(gets)?;
        // The sum shard `i` must prove against: none unless this client
        // verifies or the attempt has widened. A row whose width ≠ k
        // predates a re-split that has not recorded fresh sums yet —
        // don't verify against it.
        let verify = self.verify;
        let want = |row: &Option<FileIntegrity>, widened: bool, i: usize| {
            row.as_ref()
                .filter(|r| r.sums.len() == k && (verify || widened))
                .map(|r| if i < k { r.sums[i] } else { r.parity[i - k].1 })
        };
        // A parity shard is a whole `ceil(size / k)` slot (at least one
        // byte); the data shards are their exact partition ranges.
        let slot = asm.size().div_ceil(k).max(1);
        // Set by the widening: the erasure that caused it, and the
        // landed parity shards.
        let mut erasure: Option<StoreError> = None;
        let mut parity: Vec<Option<Bytes>> = Vec::new();
        let mut have = 0;

        while have < k {
            let Some((i, landed)) = join.next(deadline) else {
                // Either the deadline passed — the slowest partition
                // really is the read's fate (Eq. 9) — or every route
                // answered with fewer than k usable shards, which only a
                // widened attempt survives: the parity set cannot cover
                // its erasure.
                let late = join.expire();
                return Err(erasure.unwrap_or(late));
            };
            let sum = want(&row, erasure.is_some(), i);
            let shard = landed.and_then(Reply::bytes).and_then(|data| {
                if i < k {
                    take_part(asm, PartKey::new(id, i as u32), data, sum)
                } else {
                    let proved = data.len() == slot
                        && sum.is_none_or(|sum| spcache_integrity::verify(&data, sum));
                    if !proved {
                        return Err(StoreError::Corrupt(PartKey::parity(id, (i - k) as u32)));
                    }
                    parity[i - k] = Some(data);
                    Ok(())
                }
            });
            match shard {
                Ok(()) => have += 1,
                // Widened: a failed shard is just not one of the k.
                Err(_) if erasure.is_some() => {}
                Err(e @ (StoreError::Corrupt(_) | StoreError::NotFound(_))) => {
                    // A cached row is as old as the cached placement: the
                    // decode (and its read repair) needs the current one.
                    if row.is_none() || fence.is_some() {
                        row = self.master.integrity(id);
                    }
                    let current = |r: &&FileIntegrity| fence.is_none_or(|sums| r.sums == sums);
                    let Some(set) = row
                        .as_ref()
                        .filter(|r| !r.parity.is_empty() && r.sums.len() == k)
                        .filter(current)
                    else {
                        return Err(e);
                    };
                    // The decode runs a (k, k + r) Cauchy code, which
                    // GF(2⁸) holds only while 2k + r ≤ 256: a row naming
                    // more parity than that is refused, never decoded.
                    if 2 * k + set.parity.len() > 256 {
                        return Err(StoreError::Codec(format!(
                            "integrity row of file {id} names {} parity partitions for k = {k}",
                            set.parity.len()
                        )));
                    }
                    let gets = set
                        .parity
                        .iter()
                        .enumerate()
                        .map(|(p, &(server, _))| {
                            (server, Request::GetParity { key: PartKey::parity(id, p as u32) })
                        })
                        .collect();
                    if join.widen(gets).is_err() {
                        return Err(e);
                    }
                    parity = vec![None; set.parity.len()];
                    erasure = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        match (erasure, row) {
            (Some(erasure), Some(row)) => match self.rebuild(id, servers, &row, &parity, asm) {
                Some(()) => Ok(Some(row)),
                None => Err(erasure),
            },
            (_, row) => Ok(row),
        }
    }

    /// Decodes each data shard `asm` is missing — and only those — from
    /// the `k` data and parity shards in hand, straight into its region,
    /// proves it against its recorded sum and re-lands it on its holder
    /// (read repair: background-stamped, fire-and-forget; the worker
    /// counts the overwrite of a corrupted-erased key as a decode
    /// reconstruction). The codec reads the ragged data partitions as
    /// they are; their zero padding to the `ceil(size / k)` slot is
    /// virtual. `None` when a decode fails or does not prove.
    fn rebuild(
        &self,
        id: u64,
        servers: &[usize],
        row: &FileIntegrity,
        parity: &[Option<Bytes>],
        asm: &mut Landing,
    ) -> Option<()> {
        let k = servers.len();
        let rs = ReedSolomon::new_cauchy(k, k + parity.len());
        let mut repairs = Vec::new();
        for j in (0..k).filter(|&j| !asm.has(j)).collect::<Vec<_>>() {
            let rebuilt = asm.fill(j, |parts, out| {
                let shards: Vec<Option<&[u8]>> =
                    parts.iter().copied().chain(parity.iter().map(|p| p.as_deref())).collect();
                // The decode is only as good as the integrity row it used.
                rs.decode_shard(&shards, j, out).is_ok()
                    && spcache_integrity::verify(out, row.sums[j])
            });
            if !rebuilt {
                return None;
            }
            let part = Bytes::copy_from_slice(asm.part(j)?);
            repairs.push((servers[j], PartKey::new(id, j as u32), part, row.sums[j]));
        }
        let repair = Fanout {
            class: TrafficClass::Background,
            ..self.io().best_effort()
        };
        let _ = repair.fork(puts(repairs));
        Some(())
    }

    /// Deletes a file's partitions and metadata; returns how many data
    /// partitions were actually resident. Any parity partitions are
    /// dropped too (best-effort, not counted).
    pub fn delete(&self, id: u64) -> Result<usize, StoreError> {
        self.memory.forget(id);
        // Snapshot the integrity row *before* unregistering drops it:
        // the parity map is the only record of where parity lives.
        let integ = self.master.integrity(id);
        let (_, servers) = self
            .master
            .unregister_file(id)
            .ok_or(StoreError::UnknownFile(id))?;
        let data = servers.iter().enumerate();
        let removed = self.discard(data.map(|(j, &s)| (s, PartKey::new(id, j as u32))).collect());
        if let Some(integ) = integ {
            let parity = integ.parity.iter().enumerate();
            self.discard(parity.map(|(p, &(s, _))| (s, PartKey::parity(id, p as u32))).collect());
        }
        Ok(removed)
    }
}

/// One Put of a fan-out: `(target worker, key, shard, checksum)`.
type PutRow = (usize, PartKey, Bytes, u64);

/// Turns Put rows into the requests of one batch.
fn puts(rows: Vec<PutRow>) -> Vec<(usize, Request)> {
    rows.into_iter()
        .map(|(server, key, data, sum)| (server, Request::Put { key, data, sum }))
        .collect()
}

/// Appends the Put rows of `data` split over `servers` (zero-copy views
/// of its allocation) and returns the shards' checksums.
///
/// # Errors
///
/// [`StoreError::Codec`] for an empty placement (nothing to split over).
fn split_rows(
    id: u64,
    data: &Bytes,
    servers: &[usize],
    rows: &mut Vec<PutRow>,
) -> Result<Vec<u64>, StoreError> {
    if servers.is_empty() {
        return Err(empty_placement());
    }
    let shards = split_shards_bytes(data, servers.len());
    let sums = spcache_integrity::sums(&shards);
    let keyed = shards.into_iter().zip(servers).enumerate();
    rows.extend(keyed.map(|(j, (shard, &server))| (server, PartKey::new(id, j as u32), shard, sums[j])));
    Ok(sums)
}

/// Takes data part `key`'s reply into `asm`: in place when the transport
/// landed it there (the reply then carries no bytes), else placed from
/// the reply's bytes. Proves it against `sum` when one is wanted. A part
/// of the wrong length, or one that fails its sum, is an erasure
/// ([`StoreError::Corrupt`]) and leaves the part missing — a short part
/// is never padded and a long one never truncated into the file.
fn take_part(
    asm: &mut Landing,
    key: PartKey,
    data: Bytes,
    sum: Option<u64>,
) -> Result<(), StoreError> {
    let j = key.part as usize;
    if !(data.is_empty() && asm.accept(j)) {
        if data.len() != asm.range(j).len() {
            return Err(StoreError::Corrupt(key));
        }
        asm.place(j, data);
    }
    let Some(part) = asm.part(j) else {
        return Err(StoreError::Corrupt(key));
    };
    if sum.is_some_and(|sum| !spcache_integrity::verify(part, sum)) {
        asm.reset(j);
        return Err(StoreError::Corrupt(key));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StoreCluster;
    use crate::config::StoreConfig;
    use crate::fault::{CorruptSite, FaultPlan};
    use crate::landing::Region;
    use crossbeam::channel::Receiver;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 256) as u8).collect()
    }

    #[test]
    fn write_read_roundtrip_single_partition() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let c = cluster.client();
        let data = payload(10_000);
        c.write(1, &data, &[2]).unwrap();
        assert_eq!(c.read(1).unwrap(), data);
    }

    #[test]
    fn write_read_roundtrip_partitioned() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(8));
        let c = cluster.client();
        for (id, len, servers) in [
            (1u64, 9_999usize, vec![0, 1, 2]),
            (2, 10_000, vec![3, 4]),
            (3, 1, vec![5]),
            (4, 0, vec![6, 7]),
        ] {
            let data = payload(len);
            c.write(id, &data, &servers).unwrap();
            assert_eq!(c.read(id).unwrap(), data, "file {id}");
        }
    }

    #[test]
    fn a_worker_serves_views_of_the_written_allocation() {
        // write_bytes → worker store → reply: one allocation end to end.
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let c = cluster.client();
        let file = Bytes::from(payload(10_000));
        c.write_bytes(1, file.clone(), &[0, 1, 2]).unwrap();
        let base = file.as_ptr() as usize;
        for j in 0..3 {
            let get = Request::Get { key: PartKey::new(1, j as u32) };
            let reply = cluster.transport().call(j, get, Duration::from_secs(5));
            let Ok(Reply::Data(part)) = reply else {
                panic!("worker {j} answered {reply:?}");
            };
            let r = spcache_core::online::partition_range(10_000, 3, j);
            assert_eq!(part, file.slice(r.start as usize..r.end as usize));
            let p = part.as_ptr() as usize;
            assert!(
                p >= base && p + part.len() <= base + file.len(),
                "partition view escaped the file's allocation"
            );
        }
    }

    #[test]
    fn read_unknown_file_errors() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let c = cluster.client();
        assert_eq!(c.read(42).unwrap_err(), StoreError::UnknownFile(42));
    }

    #[test]
    fn duplicate_write_rejected() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let c = cluster.client();
        c.write(1, b"abc", &[0]).unwrap();
        assert_eq!(
            c.write(1, b"xyz", &[1]).unwrap_err(),
            StoreError::AlreadyExists(1)
        );
    }

    #[test]
    fn reads_count_accesses_quiet_reads_do_not() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let c = cluster.client();
        c.write(1, b"abc", &[0]).unwrap();
        let _ = c.read(1).unwrap();
        let _ = c.read(1).unwrap();
        let _ = c.read_quiet(1).unwrap();
        // The reads were served from the placement the write cached:
        // their counts reach the master with the next report.
        c.flush_accesses();
        assert_eq!(cluster.master().accesses(1), 2);
    }

    #[test]
    fn delete_removes_partitions_and_metadata() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        let c = cluster.client();
        c.write(1, &payload(300), &[0, 1, 2]).unwrap();
        assert_eq!(c.delete(1).unwrap(), 3);
        assert_eq!(c.read(1).unwrap_err(), StoreError::UnknownFile(1));
    }

    #[test]
    fn parallel_reads_from_many_clients() {
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(4));
        let c = cluster.client();
        let data = payload(40_000);
        c.write(1, &data, &[0, 1, 2, 3]).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let data = data.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        assert_eq!(c.read(1).unwrap(), data);
                    }
                });
            }
        });
        c.flush_accesses();
        assert_eq!(cluster.master().accesses(1), 160);
    }

    #[test]
    fn parallel_partition_read_is_faster_than_serial_transfer() {
        // 4 MB at 20 MB/s would take 200 ms whole; split 4 ways across
        // 4 throttled workers it should take ~50 ms + overhead.
        let cluster = StoreCluster::spawn(StoreConfig::throttled(4, 20e6));
        let c = cluster.client();
        let data = payload(4_000_000);
        c.write(1, &data, &[0, 1, 2, 3]).unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(c.read(1).unwrap(), data);
        let split_time = t0.elapsed().as_secs_f64();
        assert!(
            split_time < 0.15,
            "parallel read took {split_time}s, expected ~0.05s"
        );
    }

    #[test]
    fn deadline_turns_hang_into_timeout() {
        // Worker 0 hangs for 500 ms on its second data-path op; a 50 ms
        // deadline surfaces Timeout instead of blocking.
        let cfg = StoreConfig::unthrottled(2)
            .with_faults(FaultPlan::none().hang(0, 1, Duration::from_millis(500)))
            .with_retry(RetryPolicy::none().with_deadline(Duration::from_millis(50)));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        c.write(1, &payload(100), &[0]).unwrap();
        assert_eq!(c.read(1).unwrap_err(), StoreError::Timeout(0));
        // The worker recovers after the hang; a later read succeeds.
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(c.read(1).unwrap(), payload(100));
    }

    #[test]
    fn one_deadline_covers_the_whole_read_attempt() {
        // k = 8 partitions, the *last* one straggling 400 ms past a
        // 150 ms deadline. The select-driven join times out after ~one
        // deadline, naming the actual straggler — under the old in-order
        // join each healthy lower index could consume a fresh deadline
        // (up to 8 × 150 ms) before the straggler was even examined.
        let k = 8;
        let hang = Duration::from_millis(400);
        let deadline = Duration::from_millis(150);
        let cfg = StoreConfig::unthrottled(k)
            // Worker 7 serves (put, checkpoint-less) op 0 = its put, so
            // op 1 is its first read.
            .with_faults(FaultPlan::none().hang(7, 1, hang))
            .with_retry(RetryPolicy::none().with_deadline(deadline));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        let servers: Vec<usize> = (0..k).collect();
        c.write(1, &payload(64 * k), &servers).unwrap();
        let t0 = Instant::now();
        assert_eq!(c.read(1).unwrap_err(), StoreError::Timeout(7));
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= deadline && elapsed < deadline * 2,
            "k={k} read with one straggler took {elapsed:?}; the deadline \
             is per read attempt, not per partition (~{deadline:?} expected)"
        );
    }

    #[test]
    fn lost_reply_surfaces_as_worker_down_and_marks_suspicion() {
        let cfg = StoreConfig::unthrottled(2)
            .with_faults(FaultPlan::none().lose_reply(0, 1))
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
                deadline: Duration::from_millis(200),
            });
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        c.write(1, &payload(64), &[0]).unwrap();
        // First read's reply is lost; the retry succeeds.
        assert_eq!(c.read(1).unwrap(), payload(64));
    }

    #[test]
    fn retry_reads_through_crash_with_under_store() {
        let cfg = StoreConfig::unthrottled(4)
            .with_faults(FaultPlan::none().crash(1, 2))
            .with_retry(RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_millis(1),
                deadline: Duration::from_millis(200),
            });
        let cluster = StoreCluster::spawn(cfg);
        let under = Arc::new(UnderStore::new());
        let c = cluster.client().with_under_store(under.clone());
        let data = payload(9_000);
        c.write(1, &data, &[0, 1]).unwrap(); // worker 1 op 0 (put)
        crate::backing::checkpoint(&c, &under, 1).unwrap(); // worker 1 op 1 (get)
        // Next get on worker 1 is op 2 → crash. The retry heals from the
        // under-store onto live workers and succeeds byte-exactly.
        assert_eq!(c.read(1).unwrap(), data);
        assert!(!cluster.master().is_alive(1));
        let (_, servers) = cluster.master().peek(1).unwrap();
        assert!(servers.iter().all(|&s| s != 1), "healed onto dead worker");
    }

    #[test]
    fn io_error_replies_feed_suspicion_and_retry() {
        // A transport that answers every get with Err(Io) until attempt
        // 3: the client must classify Io as retryable, suspect the
        // worker, and keep retrying through the heal path.
        #[derive(Debug)]
        struct Flaky {
            inner: Arc<dyn Transport>,
            failures: AtomicU64,
        }
        impl Transport for Flaky {
            fn n_workers(&self) -> usize {
                self.inner.n_workers()
            }
            fn submit_landing(
                &self,
                reqs: Vec<(usize, Request, Option<Region>)>,
            ) -> Result<Vec<Receiver<Reply>>, StoreError> {
                reqs.into_iter()
                    .map(|(worker, req, _)| {
                        if matches!(req, Request::Get { .. })
                            && self.failures.fetch_add(1, Ordering::Relaxed) < 2
                        {
                            let (tx, rx) = crossbeam::channel::bounded(1);
                            let _ = tx.send(Reply::Err(StoreError::Io(worker)));
                            return Ok(rx);
                        }
                        self.inner.submit(worker, req)
                    })
                    .collect()
            }
        }
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(2));
        let flaky = Arc::new(Flaky {
            inner: cluster.transport().clone(),
            failures: AtomicU64::new(0),
        });
        let c = Client::new(cluster.master().clone(), flaky).with_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
            deadline: Duration::from_millis(200),
        });
        c.write(1, &payload(128), &[0]).unwrap();
        assert_eq!(c.read(1).unwrap(), payload(128));
        // Two Io errors → two suspicion marks, but not death (threshold 3).
        assert!(cluster.master().is_alive(0));
    }

    /// Polls `f` until it holds or ~2 s pass (read repair is
    /// fire-and-forget; the counter lands asynchronously).
    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        for _ in 0..200 {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn parity_write_records_the_integrity_row_off_placement() {
        let cfg = StoreConfig::unthrottled(6).with_parity(2);
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        let data = payload(9_000);
        c.write(1, &data, &[0, 1, 2]).unwrap();
        let row = cluster.master().integrity(1).expect("row recorded");
        assert_eq!(row.sums.len(), 3);
        assert_eq!(row.parity.len(), 2);
        for &(server, _) in &row.parity {
            assert!(
                !(0..=2).contains(&server),
                "parity landed on a data server ({server})"
            );
        }
        assert_eq!(c.read(1).unwrap(), data);
        // Delete drops the parity partitions with the file.
        let stats_before = cluster.worker_stats().unwrap();
        assert!(stats_before.iter().any(|s| s.parity_bytes > 0));
        assert_eq!(c.delete(1).unwrap(), 3);
        assert_eq!(cluster.master().integrity(1), None);
    }

    #[test]
    fn corrupt_partition_rebuilds_from_parity_without_under_store() {
        // Worker 0's resident copy of partition 0 is flipped right
        // before the read's Get. The verifying worker erases it and
        // reports Corrupt; the client rebuilds from the 2 clean data
        // partitions + parity — there is NO under-store to fall back
        // to, so a byte-exact read proves the parity path alone healed
        // it.
        let cfg = StoreConfig::unthrottled(5)
            .with_verify_reads(true)
            .with_parity(2)
            .with_faults(FaultPlan::none().corrupt(
                0,
                1,
                PartKey::new(1, 0),
                CorruptSite::Resident,
                5,
            ));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        let data = payload(9_000);
        c.write(1, &data, &[0, 1, 2]).unwrap(); // worker 0 op 0
        assert_eq!(c.read(1).unwrap(), data); // op 1: flip fires
        let stats = cluster.worker_stats().unwrap();
        assert_eq!(stats[0].corruptions_detected, 1);
        assert_eq!(cluster.fault_log().snapshot().len(), 1);
        // The background read repair re-lands partition 0 on worker 0,
        // which counts the overwrite of a corrupted-erased key.
        assert!(
            eventually(|| cluster.worker_stats().unwrap()[0].decode_reconstructions == 1),
            "read repair never landed"
        );
        assert_eq!(c.read(1).unwrap(), data);
    }

    #[test]
    fn lost_partition_rebuilds_from_parity_without_under_store() {
        // A *lost* partition — deleted out from under the file, no
        // corruption involved — is just as much an erasure as a corrupt
        // one: the read's `NotFound` routes through the same parity
        // rebuild, with no under-store to fall back to.
        let cfg = StoreConfig::unthrottled(5).with_verify_reads(true).with_parity(1);
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client();
        let data = payload(9_000);
        c.write(1, &data, &[0, 1, 2]).unwrap();
        let gone = cluster
            .transport()
            .call(
                0,
                Request::Delete {
                    key: PartKey::new(1, 0),
                },
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(gone, Reply::Flag(true));
        assert_eq!(c.read(1).unwrap(), data);
        // The background read repair re-lands the rebuilt partition, so
        // worker 0 serves it directly again.
        assert!(
            eventually(|| {
                matches!(
                    cluster.transport().call(
                        0,
                        Request::Get {
                            key: PartKey::new(1, 0),
                        },
                        Duration::from_secs(5),
                    ),
                    Ok(Reply::Data(_))
                )
            }),
            "read repair never re-landed the lost partition"
        );
    }

    #[test]
    fn client_side_verify_catches_what_blind_workers_serve() {
        // Workers do NOT verify; the client does, against the master's
        // integrity row. The flipped resident copy is served as-is by
        // worker 0, fails the client's check, and the file still comes
        // back byte-exact via the Cauchy decode.
        let cfg = StoreConfig::unthrottled(5)
            .with_parity(1)
            .with_faults(FaultPlan::none().corrupt(
                0,
                1,
                PartKey::new(1, 0),
                CorruptSite::Resident,
                999,
            ));
        let cluster = StoreCluster::spawn(cfg);
        let c = cluster.client().with_verify(true).with_parity(1);
        let data = payload(10_000);
        c.write(1, &data, &[0, 1, 2]).unwrap();
        assert_eq!(c.read(1).unwrap(), data);
        // The workers never noticed anything.
        let stats = cluster.worker_stats().unwrap();
        assert_eq!(stats[0].corruptions_detected, 0);
    }

    #[test]
    fn corrupt_partition_without_parity_heals_from_under_store() {
        // r = 0: the same flip cannot be decoded around, so the read
        // falls back to the under-store heal — and still never returns
        // wrong bytes.
        let cfg = StoreConfig::unthrottled(4)
            .with_verify_reads(true)
            .with_faults(FaultPlan::none().corrupt(
                0,
                2,
                PartKey::new(1, 0),
                CorruptSite::Resident,
                0,
            ))
            .with_retry(RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_millis(1),
                deadline: Duration::from_millis(200),
            });
        let under = Arc::new(UnderStore::new());
        let cluster = StoreCluster::spawn_with_under_store(cfg, Some(under.clone()));
        let c = cluster.client();
        let data = payload(6_000);
        c.write(1, &data, &[0, 1]).unwrap(); // worker 0 op 0
        crate::backing::checkpoint(&c, &under, 1).unwrap(); // op 1
        assert_eq!(c.read(1).unwrap(), data); // op 2: flip fires → heal
        let stats = cluster.worker_stats().unwrap();
        assert_eq!(stats.iter().map(|s| s.corruptions_detected).sum::<u64>(), 1);
    }

    /// A `k = 3, r = 1` cluster holding `data` as file 1 on workers
    /// 0–2 (parity on a spare), checkpointed into an attached
    /// under-store, with partition 0 then deleted out from under it.
    /// Worker ops so far: 0 = put, 1 = checkpoint get (+ 2 = the delete
    /// on worker 0).
    fn degraded_cluster(faults: FaultPlan, data: &[u8]) -> (StoreCluster, Client) {
        let cfg = StoreConfig::unthrottled(5)
            .with_verify_reads(true)
            .with_parity(1)
            .with_faults(faults)
            .with_retry(RetryPolicy::none().with_deadline(Duration::from_secs(2)));
        let under = Arc::new(UnderStore::new());
        let cluster = StoreCluster::spawn_with_under_store(cfg, Some(under.clone()));
        let c = cluster.client();
        c.write(1, data, &[0, 1, 2]).unwrap();
        crate::backing::checkpoint(&c, &under, 1).unwrap();
        let key = PartKey::new(1, 0);
        let gone = cluster.transport().call(0, Request::Delete { key }, Duration::from_secs(5));
        assert_eq!(gone, Ok(Reply::Flag(true)));
        (cluster, c)
    }

    #[test]
    fn late_erasure_keeps_the_shards_that_already_landed() {
        // Worker 0 answers the read's Get (its op 3) with NotFound only
        // after a 100 ms pause, long after partitions 1 and 2 landed.
        // The attempt widens with the parity fetch and decodes from
        // what it holds: workers 1 and 2 are never asked again.
        let faults = FaultPlan::none().hang(0, 3, Duration::from_millis(100));
        let data = payload(9_000);
        let (cluster, c) = degraded_cluster(faults, &data);
        let before = cluster.worker_stats().unwrap();
        assert_eq!(c.read(1).unwrap(), data);
        let after = cluster.worker_stats().unwrap();
        for w in [1, 2] {
            assert_eq!(after[w].gets - before[w].gets, 1, "worker {w} was asked twice");
        }
    }

    /// A fleet of `n` hand-built workers over the channel transport: each
    /// stores what it is put and answers `Get`s through `serve`, which
    /// may bend the stored bytes.
    fn hand_built_fleet(n: usize, serve: fn(PartKey, Bytes) -> Bytes) -> Client {
        let senders = (0..n)
            .map(|_| {
                let (tx, rx) = crossbeam::channel::unbounded::<crate::rpc::Envelope>();
                std::thread::spawn(move || {
                    let mut held = std::collections::HashMap::new();
                    while let Ok(env) = rx.recv() {
                        let reply = match env.req {
                            Request::Put { key, data, .. } => {
                                held.insert(key, data);
                                Reply::Done
                            }
                            Request::Get { key } | Request::GetParity { key } => match held.get(&key) {
                                Some(data) => Reply::Data(serve(key, data.clone())),
                                None => Reply::Err(StoreError::NotFound(key)),
                            },
                            _ => Reply::Err(StoreError::Codec("not served here".into())),
                        };
                        env.reply.send(reply);
                    }
                });
                tx
            })
            .collect();
        let master = Arc::new(crate::master::Master::new());
        master.ensure_workers(n);
        Client::new(master, Arc::new(crate::transport::ChannelTransport::new(senders)))
    }

    #[test]
    fn a_partition_of_the_wrong_length_is_an_erasure_never_file_bytes() {
        // Partition 0 comes back one byte short, partition 1 one byte
        // long. Without parity the read is a typed erasure, not a file
        // with a zero-padded hole and a truncated tail; with two parity
        // partitions both are decoded around.
        fn bend(key: PartKey, data: Bytes) -> Bytes {
            match key.part {
                0 => data.slice(0..data.len() - 1),
                1 => Bytes::from([&data[..], b"!"].concat()),
                _ => data,
            }
        }
        // Whichever bent part lands first is the erasure reported.
        let bent = |e: StoreError| matches!(e, StoreError::Corrupt(k) if k.file == 1 && k.part < 2);
        let data = payload(9_000);
        let plain = hand_built_fleet(5, bend);
        plain.write(1, &data, &[0, 1, 2]).unwrap();
        let err = plain.read(1).unwrap_err();
        assert!(bent(err.clone()), "got {err:?}");

        let coded = hand_built_fleet(5, bend).with_parity(2);
        coded.write(1, &data, &[0, 1, 2]).unwrap();
        assert_eq!(coded.read(1).unwrap(), data);
    }

    #[test]
    fn an_integrity_row_naming_too_much_parity_is_refused_not_decoded() {
        // k = 2 leaves room for 252 parity rows in GF(2⁸); the row names
        // 253, and the one that exists lands. The read must refuse the
        // row with a typed error instead of building a (2, 255) code.
        let cluster = StoreCluster::spawn(StoreConfig::unthrottled(3));
        let c = cluster.client().with_verify(true);
        let data = payload(4_000);
        c.write(1, &data, &[0, 1]).unwrap();
        let sums = cluster.master().integrity(1).expect("row").sums;
        let shard = Bytes::from(vec![7u8; 2_000]);
        let sum = spcache_integrity::sum(&shard);
        let key = PartKey::parity(1, 0);
        let put = Request::Put { key, data: shard, sum };
        let wait = Duration::from_secs(5);
        assert_eq!(cluster.transport().call(2, put, wait), Ok(Reply::Done));
        let parity = std::iter::once((2, sum)).chain((1..253).map(|_| (2, 1))).collect();
        cluster.master().set_integrity(1, FileIntegrity { sums, parity }).unwrap();
        let gone = Request::Delete { key: PartKey::new(1, 0) };
        assert_eq!(cluster.transport().call(0, gone, wait), Ok(Reply::Flag(true)));
        let err = c.read(1).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "got {err:?}");
    }
}
