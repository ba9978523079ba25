//! Message types between clients, workers and the master.
//!
//! The request/reply surface is **pure data** ([`Request`], [`Reply`]):
//! no channels, no callbacks — so the same messages can cross an
//! in-process channel or be framed onto a TCP socket by `spcache-net`
//! without translation. A transport pairs a [`Request`] with a
//! [`ReplyRoute`] in an [`Envelope`]: a one-shot crossbeam sender in
//! process, a [`ReplySink`] onto the owning connection behind a socket.

use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};

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
    /// elsewhere (sweep or another client's lazy repair); the operation
    /// was shed under [`crate::config::DegradedPolicy::FastFail`].
    /// Not retryable *by the issuing client's inner loop* — callers
    /// decide whether to come back after the repair lands.
    Degraded(u64),
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
    /// bounces `Fenced` traffic stamped with any lower master epoch.
    /// A worker that has already seen a *higher* epoch answers
    /// [`StoreError::StaleEpoch`] — the deposed sender must self-fence.
    SetMasterEpoch(u64),
    /// An epoch-fenced data request: the client stamps the epoch it
    /// believes the worker holds (from the master's epoch table). A
    /// worker whose own epoch differs answers
    /// [`StoreError::StaleEpoch`] instead of serving — a fenced zombie
    /// can neither serve pre-crash partitions nor absorb writes meant
    /// for its successor. `epoch == 0` is never stamped (0 means
    /// "unregistered").
    Fenced {
        /// The epoch the client expects the worker to hold.
        epoch: u64,
        /// The **master epoch** the issuing control plane acts under
        /// (DESIGN.md §4.14). 0 = unstamped (plain clients; the
        /// pre-failover wire behaviour). A worker that has seen a
        /// higher master epoch answers [`StoreError::StaleEpoch`] —
        /// that is how a deposed master's writes bounce forever.
        master: u64,
        /// The wrapped data-path request (never control-plane).
        inner: Box<Request>,
    },
    /// A data request stamped as **background** traffic: maintenance
    /// byte streams (recovery sweeps, repartition pushes, spill
    /// writebacks, refills) that the worker paces through the
    /// background share of its NIC
    /// ([`crate::throttle::NicScheduler`]) so they cannot starve
    /// foreground client traffic. Canonical nesting is
    /// `Fenced { Background { data } }` — the fence is checked first,
    /// the class unwrapped second.
    Background {
        /// The wrapped data-path request (never control-plane, never
        /// another `Background` or `Fenced`).
        inner: Box<Request>,
    },
}

impl Request {
    /// Whether the request is control-plane
    /// (`Stats`/`Ping`/`Shutdown`/`SetEpoch`): exempt from fault
    /// injection and op counting on every transport.
    pub fn is_control(&self) -> bool {
        match self {
            Request::Stats
            | Request::Ping
            | Request::Shutdown
            | Request::SetEpoch(_)
            | Request::SetMasterEpoch(_) => true,
            Request::Fenced { inner, .. } | Request::Background { inner } => inner.is_control(),
            _ => false,
        }
    }

    /// Wraps a data request in an epoch fence (no-op for `epoch == 0`,
    /// the "epoch unknown" sentinel, and for control requests). The
    /// master-epoch stamp stays 0 (unstamped) — plain clients read for
    /// themselves, not for a master.
    pub fn fenced(self, epoch: u64) -> Request {
        self.fenced_master(epoch, 0)
    }

    /// Wraps a data request in an epoch fence carrying a master-epoch
    /// stamp — the supervisor/repartition path, where the request acts
    /// *for* a specific master incarnation and must bounce once that
    /// incarnation is deposed. Restamps an existing fence in place.
    pub fn fenced_master(self, epoch: u64, master: u64) -> Request {
        if self.is_control() {
            return self;
        }
        match self {
            Request::Fenced { inner, .. } => Request::Fenced {
                epoch,
                master,
                inner,
            },
            _ if epoch == 0 && master == 0 => self,
            inner => Request::Fenced {
                epoch,
                master,
                inner: Box::new(inner),
            },
        }
    }

    /// Stamps a data request as background traffic (no-op for control
    /// requests and requests already stamped). Applied *inside* any
    /// epoch fence: `req.background().fenced(e)` yields the canonical
    /// `Fenced { Background { data } }` nesting, and calling this on an
    /// existing fence restamps its interior.
    pub fn background(self) -> Request {
        match self {
            r if r.is_control() => r,
            Request::Background { inner } => Request::Background { inner },
            Request::Fenced { epoch, master, inner } => Request::Fenced {
                epoch,
                master,
                inner: Box::new(inner.background()),
            },
            r => Request::Background { inner: Box::new(r) },
        }
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
/// fault, decided by the worker thread and carried out by the route.
/// Ordered by severity, so the worst cut scripted for one op wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Delivery {
    /// The reply is delivered.
    Reply,
    /// `TruncateFrame`: half the reply frame is written, then the
    /// connection closes.
    Truncate,
    /// `DropConnection`: the connection closes without the reply.
    Close,
}

/// A reply route that is not an in-process channel: `spcache-net`'s
/// worker server supplies one per decoded request, posting the finished
/// frame to the I/O loop that owns the connection.
pub trait ReplySink: Send + std::fmt::Debug {
    /// Carries out `how` with `reply` once `delay` has passed, without
    /// blocking the caller. A sink dropped before this call must answer
    /// [`StoreError::WorkerDown`]: the worker crashed, lost the reply or
    /// was already gone.
    fn deliver(self: Box<Self>, reply: Reply, how: Delivery, delay: Duration);
}

/// Where the single [`Reply`] to a request goes. Dropping a route
/// unanswered tells the requester the worker is down (a disconnected
/// channel in process, a `WorkerDown` frame behind a socket); keeping it
/// alive unanswered — a swallowed heartbeat — tells it nothing at all.
#[derive(Debug)]
pub enum ReplyRoute {
    /// A one-shot in-process channel.
    Channel(Sender<Reply>),
    /// A transport-supplied sink.
    Sink(Box<dyn ReplySink>),
}

impl ReplyRoute {
    /// Delivers `reply` with no wire fault.
    pub fn send(self, reply: Reply) {
        self.deliver(reply, Delivery::Reply, Duration::ZERO);
    }

    /// Delivers `reply` under the scripted wire behaviour. A channel has
    /// no frames to cut or hold back, so it degrades to the nearest
    /// visible effect: the delay stalls the caller, and a cut drops the
    /// sender unsent — exactly a lost reply.
    pub fn deliver(self, reply: Reply, how: Delivery, delay: Duration) {
        match self {
            ReplyRoute::Channel(tx) => {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                if how == Delivery::Reply {
                    let _ = tx.send(reply);
                }
            }
            ReplyRoute::Sink(sink) => sink.deliver(reply, how, delay),
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
        let reply = ReplyRoute::Channel(tx);
        (Envelope { req, reply }, rx)
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
        // A fence around a data request stays data-plane.
        assert!(!Request::Get { key: PartKey::new(1, 0) }.fenced(2).is_control());
    }

    #[test]
    fn background_stamping_nests_inside_fences() {
        let get = Request::Get { key: PartKey::new(1, 0) };
        let bg = get.clone().background();
        assert!(matches!(bg, Request::Background { .. }));
        // Idempotent: restamping changes nothing.
        assert_eq!(bg.clone().background(), bg);
        // Canonical nesting: fence outside, class inside.
        let both = get.clone().background().fenced(3);
        match &both {
            Request::Fenced { epoch: 3, master: 0, inner } => {
                assert!(matches!(**inner, Request::Background { .. }));
            }
            other => panic!("unexpected shape {other:?}"),
        }
        // Stamping an existing fence restamps its interior instead of
        // wrapping the fence.
        assert_eq!(get.clone().fenced(3).background(), both);
        // Control requests are never stamped, and a stamped data
        // request stays data-plane.
        assert_eq!(Request::Ping.background(), Request::Ping);
        assert!(!get.background().is_control());
    }

    #[test]
    fn fencing_wraps_only_data_requests_with_known_epochs() {
        let get = Request::Get { key: PartKey::new(1, 0) };
        assert!(matches!(
            get.clone().fenced(4),
            Request::Fenced { epoch: 4, master: 0, .. }
        ));
        // Epoch 0 means "unknown": no fence, wire-identical to PR 3.
        assert_eq!(get.clone().fenced(0), get);
        // Control requests are never fenced.
        assert_eq!(Request::Ping.fenced(4), Request::Ping);
    }

    #[test]
    fn master_epoch_stamping() {
        let get = Request::Get { key: PartKey::new(1, 0) };
        // SetMasterEpoch is control-plane: no faults, no op counting,
        // never wrapped.
        assert!(Request::SetMasterEpoch(2).is_control());
        assert_eq!(
            Request::SetMasterEpoch(2).fenced(3),
            Request::SetMasterEpoch(2)
        );
        // A master stamp fences even with a zero worker epoch.
        assert!(matches!(
            get.clone().fenced_master(0, 2),
            Request::Fenced { epoch: 0, master: 2, .. }
        ));
        // Restamping an existing fence replaces both stamps in place
        // rather than nesting.
        let restamped = get.clone().fenced(4).fenced_master(5, 7);
        match restamped {
            Request::Fenced { epoch: 5, master: 7, inner } => {
                assert_eq!(*inner, get);
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }
}
