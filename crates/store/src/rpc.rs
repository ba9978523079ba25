//! Message types between clients, workers and the master.
//!
//! The request/reply surface is **pure data** ([`Request`], [`Reply`]):
//! no channels, no callbacks — so the same messages can cross an
//! in-process channel or be framed onto a TCP socket by `spcache-net`
//! without translation. The in-process transport pairs a [`Request`]
//! with a [`ReplyRoute`], a one-shot crossbeam sender, in an
//! [`Envelope`]; behind a socket the worker answers on its I/O loop.
//!
//! A data request carries at most one flat [`Stamp`] — worker epoch,
//! master epoch, expected checksum, traffic class — as
//! [`Request::Stamped`]. The fork-join engine ([`crate::forkjoin`])
//! stamps each batch it forks; the only field a caller sets before that
//! is a `Get`'s [`Stamp::expect`], which the engine keeps.

use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};

use crate::throttle::TrafficClass;

/// Identifies one cached partition: `(file, partition index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartKey {
    /// File identifier.
    pub file: u64,
    /// Partition index within the file (0-based).
    pub part: u32,
}

impl PartKey {
    /// Convenience constructor.
    pub fn new(file: u64, part: u32) -> Self {
        PartKey { file, part }
    }

    /// The staged twin of this key (see [`STAGE_BIT`]).
    pub fn staged(self) -> PartKey {
        PartKey::new(self.file, self.part | STAGE_BIT)
    }

    /// The key of parity partition `idx` of `file` (see [`PARITY_BIT`]).
    pub fn parity(file: u64, idx: u32) -> PartKey {
        PartKey::new(file, idx | PARITY_BIT)
    }

    /// Whether this key addresses a parity partition.
    pub fn is_parity(self) -> bool {
        self.part & PARITY_BIT != 0
    }
}

/// Staged-key marker: partition indices with this bit set are invisible
/// to normal reads (clients only address indices < 2³¹). The online
/// adjuster and the repartitioner both build new layouts under staged
/// keys and commit them with a rename, so an executor failing mid-build
/// never corrupts the readable layout.
pub const STAGE_BIT: u32 = 1 << 31;

/// Parity-key marker: partition indices with this bit set hold Cauchy-RS
/// parity shards of the file (the integrity tier's hot-file redundancy).
/// Like staged keys they are invisible to normal data reads — clients
/// fetch them explicitly via [`Request::GetParity`] during
/// corruption-to-erasure recovery.
pub const PARITY_BIT: u32 = 1 << 30;

/// Errors surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The partition is not resident on the addressed worker.
    NotFound(PartKey),
    /// The worker is gone (channel closed / connection refused after the
    /// listener shut down).
    WorkerDown(usize),
    /// The master has no metadata for this file.
    UnknownFile(u64),
    /// A file with this id already exists.
    AlreadyExists(u64),
    /// The worker did not answer within the read deadline (hung or
    /// overloaded; the worker may still be alive).
    Timeout(usize),
    /// Transport-level I/O failure reaching endpoint `w` (connection
    /// refused or reset, broken pipe, a frame cut off mid-stream). The
    /// remote may be perfectly healthy — retrying after re-locating can
    /// succeed, so this is classified retryable.
    Io(usize),
    /// Wire-protocol violation (bad version byte, unknown opcode,
    /// malformed frame). Permanent: resending the same bytes would
    /// produce the same violation.
    Codec(String),
    /// An epoch-fenced request and the worker's registered epoch
    /// disagree: either the client stamped an epoch the worker has
    /// outlived (client metadata stale — refresh and retry) or the
    /// worker itself is a fenced zombie that must not serve. Retryable:
    /// refreshing the epoch table from the master resolves the
    /// client-side case, and the zombie case heals through recovery.
    StaleEpoch(usize),
    /// The partition's bytes failed checksum verification (worker-side
    /// on load/reload, or client-side on receive). The copy has been
    /// dropped — corruption is converted into an **erasure**, never into
    /// wrong bytes. Retryable: the reader falls back to parity decode
    /// (when the file carries parity partitions) or an under-store heal.
    Corrupt(PartKey),
    /// The file is degraded and its recovery is already in flight
    /// elsewhere (sweep or another client's lazy repair): the repair
    /// slot [`crate::backing::recover_file`] asked for was denied.
    /// Not retryable *by the issuing client's inner loop* — callers
    /// decide whether to come back after the repair lands.
    Degraded(u64),
    /// A `Get` fenced by [`Stamp::expect`] found a copy of the key that
    /// is not recorded under the expected checksum (or under none): the
    /// reader's cached placement no longer describes the file. The copy
    /// was not served. Retryable: re-locating through the master
    /// resolves it.
    StalePlacement(PartKey),
}

impl StoreError {
    /// Whether a retry (after re-locating and possibly recovering from
    /// the under-store) could succeed. Metadata errors and protocol
    /// violations are permanent; availability and transport-I/O errors
    /// (connection reset/refused) are retryable.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            StoreError::NotFound(_)
                | StoreError::WorkerDown(_)
                | StoreError::Timeout(_)
                | StoreError::Io(_)
                | StoreError::StaleEpoch(_)
                | StoreError::Corrupt(_)
                | StoreError::StalePlacement(_)
        )
    }

    /// The worker/endpoint index this error implicates, if any.
    /// Endpoints at [`MASTER_ENDPOINT`] (or beyond the fleet) are
    /// reported but must not be fed into the worker health table.
    pub fn endpoint(&self) -> Option<usize> {
        match self {
            StoreError::WorkerDown(w)
            | StoreError::Timeout(w)
            | StoreError::Io(w)
            | StoreError::StaleEpoch(w) => Some(*w),
            _ => None,
        }
    }
}

/// Sentinel endpoint index used by transports for errors talking to the
/// master (which has no slot in the worker health table).
pub const MASTER_ENDPOINT: usize = usize::MAX;

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(k) => write!(f, "partition {k:?} not found"),
            StoreError::WorkerDown(w) => write!(f, "worker {w} is down"),
            StoreError::UnknownFile(id) => write!(f, "unknown file {id}"),
            StoreError::AlreadyExists(id) => write!(f, "file {id} already exists"),
            StoreError::Timeout(w) => write!(f, "worker {w} timed out"),
            StoreError::Io(w) if *w == MASTER_ENDPOINT => {
                write!(f, "i/o failure reaching the master")
            }
            StoreError::Io(w) => write!(f, "i/o failure reaching worker {w}"),
            StoreError::Codec(msg) => write!(f, "wire protocol violation: {msg}"),
            StoreError::StaleEpoch(w) => write!(f, "stale epoch fencing worker {w}"),
            StoreError::Corrupt(k) => {
                write!(f, "partition {k:?} failed checksum verification")
            }
            StoreError::Degraded(id) => {
                write!(f, "file {id} is degraded with recovery in flight")
            }
            StoreError::StalePlacement(k) => {
                write!(f, "partition {k:?} is not the one the reader's placement expects")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Per-worker service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Bytes served by `Get` requests.
    pub bytes_served: u64,
    /// Bytes accepted by `Put` requests.
    pub bytes_stored: u64,
    /// Number of `Get` requests handled.
    pub gets: u64,
    /// Number of `Put` requests handled.
    pub puts: u64,
    /// Partitions currently resident.
    pub resident_parts: usize,
    /// Bytes transferred under the background traffic class (recovery
    /// sweeps, repartition pushes, spill writebacks and refills) — the
    /// numerator of the §4.4 background-fraction bound.
    pub bytes_background: u64,
    /// Partitions evicted by the memory budget (spilled or dropped).
    pub evictions: u64,
    /// Bytes written back to the under-store's spill area on eviction.
    pub spilled_bytes: u64,
    /// Bytes reloaded from the spill area on reads of evicted partitions.
    pub reloaded_bytes: u64,
    /// Bytes currently resident in the partition map.
    pub resident_bytes: u64,
    /// Partitions whose bytes failed checksum verification and were
    /// dropped (corruption-to-erasure conversions).
    pub corruptions_detected: u64,
    /// Bytes currently resident under parity keys (Cauchy-RS shards of
    /// hot files — the integrity tier's redundancy footprint).
    pub parity_bytes: u64,
    /// Erased-as-corrupt partitions later re-admitted by a client's
    /// parity-decode read-repair push-back.
    pub decode_reconstructions: u64,
}

/// A request to a worker — pure data, identical over every transport.
///
/// `Stats`, `Ping` and `Shutdown` are control-plane: they bypass fault
/// injection and do not advance the worker's data-path op counter, so
/// monitoring traffic never perturbs a scripted fault sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Store a partition.
    Put {
        /// Partition key.
        key: PartKey,
        /// Partition bytes.
        data: Bytes,
        /// CRC-64 tree checksum of `data` (`spcache_integrity::sum`),
        /// or `0` when the writer did not checksum (the unverified
        /// sentinel — maintenance paths that re-split bytes, and the
        /// pre-integrity wire behaviour).
        sum: u64,
    },
    /// Fetch a partition.
    Get {
        /// Partition key.
        key: PartKey,
    },
    /// Fetch a **parity** partition (a [`PartKey::parity`] key) during
    /// corruption-to-erasure recovery. Kept distinct from `Get` on the
    /// wire so parity traffic is observable and ordinary reads can never
    /// address a parity slot by accident.
    GetParity {
        /// Parity partition key ([`PARITY_BIT`] set).
        key: PartKey,
    },
    /// Fetch a byte sub-range of a partition (the online-adjustment path:
    /// only the bytes that change servers cross the network).
    GetRange {
        /// Partition key.
        key: PartKey,
        /// Offset within the partition.
        offset: u64,
        /// Bytes wanted.
        len: u64,
    },
    /// Rename a resident partition key in place (no byte movement); used
    /// to commit staged partitions. Replies `Flag(false)` if `from` is
    /// absent.
    Rename {
        /// Current key.
        from: PartKey,
        /// New key (overwrites any existing entry).
        to: PartKey,
    },
    /// Drop a partition; replies whether it was resident.
    Delete {
        /// Partition key.
        key: PartKey,
    },
    /// Snapshot service counters.
    Stats,
    /// Liveness probe: the worker echoes its id and its current epoch.
    Ping,
    /// Graceful termination: the worker finishes every request queued
    /// before this one (FIFO drain), acknowledges with [`Reply::Done`],
    /// and exits. A TCP server closes its listener after the ack.
    Shutdown,
    /// Control-plane epoch grant: the supervisor installs the epoch the
    /// master assigned at registration. The worker adopts it and echoes
    /// it in every subsequent `Pong`.
    SetEpoch(u64),
    /// Control-plane **master**-epoch announcement: a master (booting,
    /// or a standby taking over) tells the worker which master epoch
    /// now rules. The worker raises its watermark and from then on
    /// bounces traffic whose [`Stamp::master`] is any lower epoch.
    /// A worker that has already seen a *higher* epoch answers
    /// [`StoreError::StaleEpoch`] — the deposed sender must self-fence.
    SetMasterEpoch(u64),
    /// A data request under a [`Stamp`]: the epochs it is fenced by and
    /// the traffic class it is paced as. The worker checks the fence,
    /// then serves `inner` under the class. Built by
    /// [`Request::stamped`]; `inner` is a data request, never a control
    /// request or another stamp.
    Stamped {
        /// The stamp.
        stamp: Stamp,
        /// The stamped data request.
        inner: Box<Request>,
    },
}

/// What a data request carries besides itself: the epochs and the
/// checksum it is fenced by and the NIC class it is paced as. The
/// all-zero foreground stamp ([`Stamp::default`]) is the unstamped
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp {
    /// The registration epoch the sender expects the worker to hold
    /// (from the master's epoch table). A worker holding another one
    /// answers [`StoreError::StaleEpoch`] instead of serving, so a
    /// fenced zombie can neither serve pre-crash partitions nor absorb
    /// writes meant for its successor. 0 = not epoch-fenced.
    pub epoch: u64,
    /// The **master epoch** the issuing control plane acts under
    /// (DESIGN.md §4.14). A worker that has seen a higher one answers
    /// [`StoreError::StaleEpoch`] — that is how a deposed master's
    /// writes bounce forever; a higher one raises the worker's
    /// watermark. 0 = unstamped (plain clients).
    pub master: u64,
    /// The checksum a `Get` expects its partition to be recorded under
    /// (the sum the writer's `Put` stamped). A worker whose copy of the
    /// key carries another sum, or none, answers
    /// [`StoreError::StalePlacement`] instead of serving it — how a
    /// reader's cached placement is kept from ever returning another
    /// layout's or another file's bytes (DESIGN.md §4.7). 0 = not
    /// sum-fenced; only a `Get` may carry another value.
    pub expect: u64,
    /// [`TrafficClass::Background`] for maintenance byte streams
    /// (recovery sweeps, repartition traffic, read repair), which the
    /// worker paces through the background share of its NIC
    /// ([`crate::throttle::NicScheduler`]) so they cannot starve
    /// foreground client traffic.
    pub class: TrafficClass,
}

impl Request {
    /// Whether the request is control-plane
    /// (`Stats`/`Ping`/`Shutdown`/`SetEpoch`/`SetMasterEpoch`, stamped
    /// or not): exempt from fault injection and op counting on every
    /// transport.
    pub fn is_control(&self) -> bool {
        match self {
            Request::Stats
            | Request::Ping
            | Request::Shutdown
            | Request::SetEpoch(_)
            | Request::SetMasterEpoch(_) => true,
            Request::Stamped { inner, .. } => inner.is_control(),
            _ => false,
        }
    }

    /// This data request under `stamp`, replacing any stamp it already
    /// carries. A control request, and any request under the all-zero
    /// foreground stamp, is returned as it is.
    pub fn stamped(self, stamp: Stamp) -> Request {
        if self.is_control() || stamp == Stamp::default() {
            return self;
        }
        let inner = match self {
            Request::Stamped { inner, .. } => inner,
            req => Box::new(req),
        };
        Request::Stamped { stamp, inner }
    }
}

/// A worker's answer — pure data, one uniform type per transport stream
/// so fork-join readers can select over many outstanding replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success without payload (`Put`, `Shutdown` ack).
    Done,
    /// Payload bytes (`Get`, `GetRange`). Over TCP the view borrows the
    /// receive frame's buffer (zero-copy).
    Data(Bytes),
    /// Boolean outcome (`Rename`: moved, `Delete`: was resident).
    Flag(bool),
    /// Service counters (`Stats`).
    Stats(WorkerStats),
    /// Liveness echo (`Ping`): the worker id and its current epoch
    /// (0 = not yet registered with the master).
    Pong {
        /// The worker id.
        worker: usize,
        /// The worker's current epoch.
        epoch: u64,
    },
    /// The request failed.
    Err(StoreError),
}

impl Reply {
    /// Interprets the reply as a unit result (`Put`/`Shutdown`).
    ///
    /// # Errors
    ///
    /// The carried error, or [`StoreError::Codec`] on a mismatched
    /// variant (a protocol violation over the wire).
    pub fn unit(self) -> Result<(), StoreError> {
        match self {
            Reply::Done => Ok(()),
            Reply::Err(e) => Err(e),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Interprets the reply as payload bytes (`Get`/`GetRange`).
    ///
    /// # Errors
    ///
    /// The carried error, or [`StoreError::Codec`] on a mismatched
    /// variant.
    pub fn bytes(self) -> Result<Bytes, StoreError> {
        match self {
            Reply::Data(b) => Ok(b),
            Reply::Err(e) => Err(e),
            other => Err(unexpected("Data", &other)),
        }
    }

    /// Interprets the reply as a boolean outcome (`Rename`/`Delete`).
    ///
    /// # Errors
    ///
    /// The carried error, or [`StoreError::Codec`] on a mismatched
    /// variant.
    pub fn flag(self) -> Result<bool, StoreError> {
        match self {
            Reply::Flag(b) => Ok(b),
            Reply::Err(e) => Err(e),
            other => Err(unexpected("Flag", &other)),
        }
    }

    /// Interprets the reply as service counters (`Stats`).
    ///
    /// # Errors
    ///
    /// The carried error, or [`StoreError::Codec`] on a mismatched
    /// variant.
    pub fn stats(self) -> Result<WorkerStats, StoreError> {
        match self {
            Reply::Stats(s) => Ok(s),
            Reply::Err(e) => Err(e),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Interprets the reply as a liveness echo (`Ping`).
    ///
    /// # Errors
    ///
    /// The carried error, or [`StoreError::Codec`] on a mismatched
    /// variant.
    pub fn pong(self) -> Result<usize, StoreError> {
        self.pong_epoch().map(|(w, _)| w)
    }

    /// Interprets the reply as a liveness echo with the worker's epoch.
    ///
    /// # Errors
    ///
    /// The carried error, or [`StoreError::Codec`] on a mismatched
    /// variant.
    pub fn pong_epoch(self) -> Result<(usize, u64), StoreError> {
        match self {
            Reply::Pong { worker, epoch } => Ok((worker, epoch)),
            Reply::Err(e) => Err(e),
            other => Err(unexpected("Pong", &other)),
        }
    }
}

fn unexpected(want: &str, got: &Reply) -> StoreError {
    StoreError::Codec(format!("expected {want} reply, got {got:?}"))
}

/// How a finished reply leaves the worker: the wire half of a scripted
/// fault, decided by the worker and carried out by whoever drives it.
/// Ordered by severity, so the worst fate scripted for one op wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Delivery {
    /// The reply is delivered.
    Reply,
    /// `TruncateFrame`: half the reply frame is written, then the
    /// connection closes.
    Truncate,
    /// `DropConnection`: the connection closes without the reply.
    Close,
    /// `LoseReply`: the request was served, but the requester is told
    /// the worker is down.
    Lose,
}

/// The one-shot channel the single [`Reply`] to an in-process request
/// goes back on. Dropping it unanswered tells the requester the worker
/// is down; keeping it alive unanswered — a swallowed heartbeat — tells
/// it nothing at all.
#[derive(Debug)]
pub struct ReplyRoute(Sender<Reply>);

impl ReplyRoute {
    /// Delivers `reply` with no wire fault.
    pub fn send(self, reply: Reply) {
        let _ = self.0.send(reply);
    }

    /// Delivers `reply` under the scripted wire behaviour at `release`.
    /// A channel has no frames to cut or hold back, so it degrades to
    /// the nearest visible effect: the caller sleeps until `release`,
    /// and anything but [`Delivery::Reply`] drops the sender unsent —
    /// exactly a lost reply.
    pub fn deliver(self, reply: Reply, how: Delivery, release: Instant) {
        let wait = release.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        if how == Delivery::Reply {
            self.send(reply);
        }
    }
}

/// One in-flight request: the request plus its reply route.
#[derive(Debug)]
pub struct Envelope {
    /// The request.
    pub req: Request,
    /// Where the single [`Reply`] goes.
    pub reply: ReplyRoute,
}

impl Envelope {
    /// `req` on a fresh one-shot channel route, with the receiver its
    /// reply will arrive on.
    pub fn channel(req: Request) -> (Envelope, Receiver<Reply>) {
        let (tx, rx) = bounded(1);
        (Envelope { req, reply: ReplyRoute(tx) }, rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partkey_ordering_and_hash() {
        let a = PartKey::new(1, 0);
        let b = PartKey::new(1, 1);
        let c = PartKey::new(2, 0);
        assert!(a < b && b < c);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&PartKey::new(1, 0)));
        assert!(!set.contains(&b));
    }

    #[test]
    fn parity_keys_are_marked_and_disjoint() {
        let data = PartKey::new(7, 2);
        let parity = PartKey::parity(7, 2);
        assert!(!data.is_parity());
        assert!(parity.is_parity());
        assert_ne!(data, parity);
        // Parity and staged markers occupy different bits.
        assert_ne!(parity, data.staged());
        assert!(parity.staged().is_parity());
    }

    #[test]
    fn error_display() {
        let e = StoreError::NotFound(PartKey::new(3, 1));
        assert!(e.to_string().contains("not found"));
        assert!(StoreError::WorkerDown(2).to_string().contains("worker 2"));
        assert!(StoreError::UnknownFile(9).to_string().contains("9"));
        assert!(StoreError::Io(4).to_string().contains("worker 4"));
        assert!(StoreError::Io(MASTER_ENDPOINT).to_string().contains("master"));
        assert!(StoreError::Codec("bad version".into())
            .to_string()
            .contains("bad version"));
        assert!(StoreError::StaleEpoch(3).to_string().contains("worker 3"));
        assert!(StoreError::Degraded(5).to_string().contains("file 5"));
        assert!(StoreError::Corrupt(PartKey::new(4, 2))
            .to_string()
            .contains("checksum"));
        assert!(StoreError::StalePlacement(PartKey::new(4, 2))
            .to_string()
            .contains("placement"));
    }

    #[test]
    fn retryability_classification() {
        assert!(StoreError::NotFound(PartKey::new(1, 0)).is_retryable());
        assert!(StoreError::WorkerDown(0).is_retryable());
        assert!(StoreError::Timeout(0).is_retryable());
        // Connection reset / refused are transient: retryable.
        assert!(StoreError::Io(0).is_retryable());
        // A stale epoch resolves by refreshing the epoch table.
        assert!(StoreError::StaleEpoch(0).is_retryable());
        // Corruption is an erasure: parity decode or heal can succeed.
        assert!(StoreError::Corrupt(PartKey::new(1, 0)).is_retryable());
        assert_eq!(StoreError::Corrupt(PartKey::new(1, 0)).endpoint(), None);
        // A stale cached placement resolves by re-locating.
        assert!(StoreError::StalePlacement(PartKey::new(1, 0)).is_retryable());
        assert_eq!(StoreError::StalePlacement(PartKey::new(1, 0)).endpoint(), None);
        // Metadata and protocol violations are permanent.
        assert!(!StoreError::UnknownFile(1).is_retryable());
        assert!(!StoreError::AlreadyExists(1).is_retryable());
        assert!(!StoreError::Codec("bad opcode".into()).is_retryable());
        // Fast-fail shedding is a terminal answer for this attempt.
        assert!(!StoreError::Degraded(1).is_retryable());
    }

    #[test]
    fn endpoint_extraction() {
        assert_eq!(StoreError::Io(3).endpoint(), Some(3));
        assert_eq!(StoreError::Timeout(1).endpoint(), Some(1));
        assert_eq!(StoreError::UnknownFile(1).endpoint(), None);
    }

    #[test]
    fn reply_accessors_enforce_variants() {
        assert!(Reply::Done.unit().is_ok());
        assert_eq!(Reply::Flag(true).flag(), Ok(true));
        assert_eq!(Reply::Pong { worker: 7, epoch: 2 }.pong(), Ok(7));
        assert_eq!(
            Reply::Pong { worker: 7, epoch: 2 }.pong_epoch(),
            Ok((7, 2))
        );
        assert!(matches!(
            Reply::Done.bytes(),
            Err(StoreError::Codec(_))
        ));
        let e = StoreError::NotFound(PartKey::new(1, 2));
        assert_eq!(Reply::Err(e.clone()).bytes(), Err(e));
    }

    #[test]
    fn control_plane_classification() {
        assert!(Request::Stats.is_control());
        assert!(Request::Ping.is_control());
        assert!(Request::Shutdown.is_control());
        assert!(Request::SetEpoch(3).is_control());
        assert!(!Request::Get { key: PartKey::new(1, 0) }.is_control());
        assert!(!Request::GetParity { key: PartKey::parity(1, 0) }.is_control());
        assert!(!Request::Delete { key: PartKey::new(1, 0) }.is_control());
        // A stamp around a data request stays data-plane.
        let fence = Stamp { epoch: 2, ..Stamp::default() };
        assert!(!Request::Get { key: PartKey::new(1, 0) }.stamped(fence).is_control());
    }

    #[test]
    fn one_stamp_per_request() {
        let get = Request::Get { key: PartKey::new(1, 0) };
        let bg = Stamp { class: TrafficClass::Background, ..Stamp::default() };
        let stamped = get.clone().stamped(bg);
        assert_eq!(stamped, Request::Stamped { stamp: bg, inner: Box::new(get.clone()) });
        // Idempotent: the same stamp again changes nothing.
        assert_eq!(stamped.clone().stamped(bg), stamped);
        // Restamping replaces the stamp in place rather than nesting.
        let all = Stamp { epoch: 5, master: 7, expect: 9, class: TrafficClass::Background };
        assert_eq!(
            stamped.stamped(all),
            Request::Stamped { stamp: all, inner: Box::new(get.clone()) }
        );
        // Control requests are never stamped, and a stamped data
        // request stays data-plane.
        assert_eq!(Request::Ping.stamped(all), Request::Ping);
        assert!(!get.stamped(bg).is_control());
    }

    #[test]
    fn the_foreground_zero_stamp_is_no_stamp() {
        let get = Request::Get { key: PartKey::new(1, 0) };
        let fence = Stamp { epoch: 4, ..Stamp::default() };
        assert_eq!(
            get.clone().stamped(fence),
            Request::Stamped { stamp: fence, inner: Box::new(get.clone()) }
        );
        // Epoch 0, master 0, foreground means "unstamped": no wrapper.
        assert_eq!(get.clone().stamped(Stamp::default()), get);
        // Control requests are never fenced.
        assert_eq!(Request::Ping.stamped(fence), Request::Ping);
    }

    #[test]
    fn master_epoch_stamping() {
        let get = Request::Get { key: PartKey::new(1, 0) };
        // SetMasterEpoch is control-plane: no faults, no op counting,
        // never wrapped.
        assert!(Request::SetMasterEpoch(2).is_control());
        let fence = Stamp { epoch: 3, ..Stamp::default() };
        assert_eq!(
            Request::SetMasterEpoch(2).stamped(fence),
            Request::SetMasterEpoch(2)
        );
        // A master stamp fences even with a zero worker epoch.
        assert!(matches!(
            get.clone().stamped(Stamp { master: 2, ..Stamp::default() }),
            Request::Stamped { stamp: Stamp { epoch: 0, master: 2, .. }, .. }
        ));
    }
}
