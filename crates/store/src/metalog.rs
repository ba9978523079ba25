//! Durable master metadata: a write-ahead op-log with compacted
//! snapshots (DESIGN.md §4.14).
//!
//! Every master mutation — file registration, placement changes with
//! their version bumps, worker adoption and fencing-epoch grants,
//! repair-registry begin/commit, integrity rows, and master-epoch
//! takeovers — becomes a typed [`MetaOp`] appended as one checksummed
//! record to an op-log persisted through the under-store's metadata
//! region ([`crate::backing::UnderStore::meta_append`]). A standby (or
//! a restarted master) replays snapshot + tail to rebuild the exact
//! [`crate::master::Master`] state.
//!
//! ## Record format
//!
//! ```text
//! | u32 len | u32 crc32 | u64 lsn | u8 tag | body... |
//!   ^ bytes after the crc field (9 + body)
//!            ^ IEEE CRC-32 over lsn|tag|body
//! ```
//!
//! All integers little-endian. The tag and body are [`MetaOp`]'s row in
//! its [`crate::codec`] table, written and read by the same field codec
//! as the wire's; this module adds only the record framing (length,
//! CRC, LSN) and the log. A torn tail (kill -9 mid-append) or a corrupt
//! record fails its length or checksum gate and replay stops at the last
//! valid record — the log's prefix property. A whole record under a
//! retired tag (10, the suspicion threshold the master no longer
//! journals) carries no op: replay skips it and goes on.
//!
//! The length field is the one cap on a record: the reader takes any
//! length the bytes present can back, so every record the writer frames
//! replays, a snapshot of a million files included. A record past the
//! field's 4 GiB is not framed at all, and a snapshot that cannot be
//! framed is not written and deletes nothing.
//!
//! ## Snapshots and compaction
//!
//! A snapshot is itself a record ([`MetaOp::Snapshot`] carrying a full
//! [`MasterImage`]) written under `snap-{lsn}`; it consumes an LSN, so
//! "replay" is uniform: apply the newest snapshot record, then every
//! log record with a later LSN. Writing a snapshot deletes all older
//! segments and snapshots and starts a fresh segment, keeping replay
//! O(delta since last snapshot), not O(history). Ops are
//! **absolute-valued** (placements carry the resulting version, worker
//! records the resulting epoch, applied as `max`), so replaying any
//! prefix twice is idempotent — the property the proptests pin.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::Arc;

use parking_lot::Mutex;

use crate::backing::UnderStore;
use crate::codec::{codec_error, Message, Reader, Shape, Writer};
use crate::rpc::StoreError;

/// Rotate the active log segment after this many bytes.
pub const SEGMENT_BYTES: usize = 64 << 10;
/// Default records between snapshots (compaction cadence).
pub const SNAPSHOT_EVERY: u64 = 512;

/// Retired: the suspicion threshold is a constant now. Journals written
/// before still hold these records, which decode to no op.
const T_RETIRED_SET_THRESHOLD: u8 = 10;
/// The snapshot's tag, which [`MetaLog::snapshot`] writes without
/// building a [`MetaOp`].
const T_SNAPSHOT: u8 = 12;

// The journal: one row per op, naming its record tag and its fields'
// shapes in wire order.
wire! {
    /// One journalled master mutation. Values are **absolute** (the state
    /// after the mutation), never deltas, so replay is idempotent. The
    /// master journals an op only when applying it changes something.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum MetaOp else "unknown journal tag {}" {
        /// `Master::register`: a new file at placement version 1.
        RegisterFile {
            /// File id.
            id: u64,
            /// File size in bytes.
            size: u64,
            /// Placement (one server per partition).
            servers: Vec<usize>,
        } = 1,
        /// `Master::unregister`.
        UnregisterFile {
            /// File id.
            id: u64,
        } = 2,
        /// `Master::apply_placement`, carrying the *resulting* version.
        ApplyPlacement {
            /// File id.
            id: u64,
            /// Placement version after the bump.
            version: u64,
            /// New placement.
            servers: Vec<usize>,
        } = 3,
        /// `Master::register_worker`: adoption with the granted epoch.
        RegisterWorker {
            /// Worker index.
            w: u64,
            /// Granted fencing epoch (applied as `max` on replay).
            epoch: u64,
        } = 4,
        /// `Master::mark_alive` when it changes something: it clears the
        /// worker's suspicion, revives a dead worker, or both.
        MarkAlive {
            /// Worker index.
            w: u64,
        } = 5,
        /// `Master::mark_dead` on an alive→dead transition, carrying the
        /// bumped epoch.
        MarkDead {
            /// Worker index.
            w: u64,
            /// Fencing epoch after the bump.
            epoch: u64,
        } = 6,
        /// `Master::suspect`: the absolute suspicion count plus the
        /// resulting liveness and epoch (a threshold kill bumps both).
        Suspect {
            /// Worker index.
            w: u64,
            /// Suspicion count after the increment.
            count: u32,
            /// Whether the worker is still alive afterwards.
            alive: bool,
            /// Fencing epoch afterwards.
            epoch: u64,
        } = 7,
        /// `Master::begin_repair` (slot acquired).
        BeginRepair {
            /// File id.
            id: u64,
        } = 8,
        /// `Master::end_repair`.
        EndRepair {
            /// File id.
            id: u64,
        } = 9,
        /// A master-epoch transition: boot, takeover, or forced
        /// reactivation. `addr` is the winner's listen address — a
        /// restarted master finding a newer record from a *different*
        /// address starts fenced.
        MasterEpoch {
            /// The new master epoch (applied as `max` on replay).
            epoch: u64,
            /// Listen address of the master that owns this epoch.
            addr: String,
        } = 11,
        /// `Master::set_integrity`: the file's checksum/parity row (absolute
        /// — an empty row clears).
        SetIntegrity {
            /// File id.
            id: u64,
            /// The row after the mutation.
            integrity: FileIntegrity,
        } = 13,
        /// A full-state snapshot (compaction point).
        Snapshot(image: MasterImage) = T_SNAPSHOT,
    }

    /// A file's integrity row (DESIGN.md §4.15): the CRC-64 tree checksum of
    /// each data partition plus where its Cauchy-RS parity partitions live.
    /// Written by the client after a verified write; cleared whenever the
    /// placement changes shape (a re-split invalidates every sum).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct FileIntegrity {
        /// Per-data-partition checksums, index order
        /// ([`spcache_integrity::sum`] of each partition's bytes).
        pub sums: Vec<u64>,
        /// `(server, checksum)` per parity partition, index order. Parity
        /// partition `p` of file `id` lives at `PartKey::parity(id, p)` on
        /// `parity[p].0`.
        pub parity: Vec<(usize, u64)>,
    }
}

impl FileIntegrity {
    /// A data-only row (no parity partitions).
    pub fn data_only(sums: Vec<u64>) -> Self {
        FileIntegrity {
            sums,
            parity: Vec::new(),
        }
    }

    /// Whether the row carries nothing (the clear sentinel).
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty() && self.parity.is_empty()
    }
}

/// A compacted full-state image of the master: everything replay needs,
/// nothing volatile (access counters, heartbeat counts and the repair
/// *history* are deliberately excluded — they are observability, not
/// placement truth).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MasterImage {
    /// `(id, size, servers, placement_version)` sorted by id.
    pub files: Vec<(u64, u64, Vec<usize>, u64)>,
    /// Per-worker liveness.
    pub alive: Vec<bool>,
    /// Per-worker suspicion counts.
    pub suspicion: Vec<u32>,
    /// Per-worker fencing epochs.
    pub epochs: Vec<u64>,
    /// Files with a repair slot held, sorted.
    pub repairing: Vec<u64>,
    /// The master epoch.
    pub master_epoch: u64,
    /// Listen address of the master that owned this state ("" when
    /// unknown).
    pub master_addr: String,
    /// `(id, integrity row)` sorted by id. Encoded as a tail section of
    /// the snapshot record, absent in pre-integrity snapshots (decode
    /// defaults it empty).
    pub integrity: Vec<(u64, FileIntegrity)>,
}

impl Shape for MasterImage {
    type Value = Self;
    const MIN: usize = 28;

    fn put(image: &Self, w: &mut Writer) {
        w.put::<u32>(&(image.files.len() as u32));
        for (id, size, servers, version) in &image.files {
            w.put::<(u64, u64, u64)>(&(*id, *size, *version));
            w.put::<Vec<usize>>(servers);
        }
        let workers = image.alive.len().min(image.suspicion.len()).min(image.epochs.len());
        w.put::<u32>(&(workers as u32));
        for i in 0..workers {
            w.put::<(bool, u32, u64)>(&(image.alive[i], image.suspicion[i], image.epochs[i]));
        }
        // The retired threshold word keeps the layout of every snapshot
        // written before it became a constant.
        w.put::<u32>(&crate::master::SUSPICION_THRESHOLD);
        w.put::<Vec<u64>>(&image.repairing);
        w.put::<u64>(&image.master_epoch);
        w.put::<String>(&image.master_addr);
        w.put::<Vec<(u64, FileIntegrity)>>(&image.integrity);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let mut image = MasterImage::default();
        for _ in 0..r.count(28)? {
            let (id, size, version) = r.get::<(u64, u64, u64)>()?;
            image.files.push((id, size, r.get::<Vec<usize>>()?, version));
        }
        for (alive, suspicion, epoch) in r.get::<Vec<(bool, u32, u64)>>()? {
            image.alive.push(alive);
            image.suspicion.push(suspicion);
            image.epochs.push(epoch);
        }
        r.get::<u32>()?; // the retired threshold word
        image.repairing = r.get::<Vec<u64>>()?;
        image.master_epoch = r.get::<u64>()?;
        image.master_addr = r.get::<String>()?;
        // Snapshots written before the integrity tier end here: their
        // rows default empty.
        if r.remaining() > 0 {
            image.integrity = r.get::<Vec<(u64, FileIntegrity)>>()?;
        }
        Ok(image)
    }
}

/// IEEE CRC-32 (the zlib/Ethernet polynomial), table-driven. Hand-rolled
/// because the container has no crc crate and the log's integrity gate
/// must not depend on one.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One record: `lsn`, `tag` and the body `body` writes, under its length
/// and CRC-32. Empty when the payload is too long for the `u32` length.
fn seal(lsn: u64, tag: u8, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::with_capacity(40);
    w.put::<u64>(&0); // length and crc, patched below
    w.put::<u64>(&lsn);
    w.put::<u8>(&tag);
    body(&mut w);
    let (mut rec, _) = w.into_parts(); // a journal body has no tail
    let Ok(len) = u32::try_from(rec.len() - 8) else {
        return Vec::new();
    };
    let crc = crc32(&rec[8..]);
    rec[..4].copy_from_slice(&len.to_le_bytes());
    rec[4..8].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// Encodes one `(lsn, op)` record, checksummed and length-prefixed —
/// or nothing, for an op whose record would pass the length field's
/// 4 GiB.
pub fn encode_record(lsn: u64, op: &MetaOp) -> Vec<u8> {
    seal(lsn, op.code(), |w| op.put_body(w))
}

/// The next whole record — its LSN, and its op unless the tag is
/// retired — or an error at a truncated or corrupt record (or at the
/// end of the stream).
fn next_record(r: &mut Reader<'_>) -> Result<(u64, Option<MetaOp>), StoreError> {
    let len = r.get::<u32>()? as usize;
    let crc = r.get::<u32>()?;
    let payload = r.take(len)?;
    if crc32(payload) != crc {
        return Err(codec_error("journal record fails its checksum"));
    }
    let mut p = Reader::new(payload);
    let lsn = p.get::<u64>()?;
    match p.get::<u8>()? {
        T_RETIRED_SET_THRESHOLD => Ok((lsn, None)),
        tag => {
            let op = MetaOp::get_body(tag, &mut p)?;
            p.finish()?;
            Ok((lsn, Some(op)))
        }
    }
}

/// Decodes every valid record from a byte stream, stopping at the first
/// truncated or corrupt one (the torn-tail rule) and skipping records
/// under a retired tag. Never panics.
pub fn decode_records(bytes: &[u8]) -> Vec<(u64, MetaOp)> {
    let mut r = Reader::new(bytes);
    std::iter::from_fn(|| next_record(&mut r).ok())
        .filter_map(|(lsn, op)| Some((lsn, op?)))
        .collect()
}

/// The blobs of `tier`'s metadata region whose names start with
/// `prefix`, in name order.
fn blobs<'a>(tier: &'a UnderStore, prefix: &str) -> impl Iterator<Item = Vec<u8>> + 'a {
    tier.meta_list(prefix).into_iter().filter_map(|name| tier.meta_get(&name))
}

fn segment_name(base_lsn: u64) -> String {
    format!("log-{base_lsn:020}")
}

fn snapshot_name(lsn: u64) -> String {
    format!("snap-{lsn:020}")
}

/// State behind the log's mutex: the append cursor.
#[derive(Debug)]
struct LogInner {
    next_lsn: u64,
    active: String,
    active_bytes: usize,
    since_snapshot: u64,
}

/// The write-ahead op-log over an under-store's metadata region.
///
/// Appends are O(delta) (one `meta_append` per record); snapshots
/// rewrite one blob and delete everything older. Thread-safe: one
/// internal mutex orders appends, so journal order is append order.
#[derive(Debug)]
pub struct MetaLog {
    tier: Arc<UnderStore>,
    inner: Mutex<LogInner>,
    snapshot_every: u64,
}

impl MetaLog {
    /// Opens (or creates) the log held by `tier`'s metadata region,
    /// positioning the append cursor after the last valid record.
    pub fn open(tier: Arc<UnderStore>) -> Self {
        let mut next_lsn = blobs(&tier, "snap-")
            .flat_map(|bytes| decode_records(&bytes))
            .fold(1, |next, (lsn, _)| next.max(lsn + 1));
        let segments = tier.meta_list("log-");
        let mut active = None;
        let mut active_bytes = 0;
        let mut records = 0u64;
        for name in &segments {
            if let Some(bytes) = tier.meta_get(name) {
                // Every whole record spends its LSN, a retired one too.
                let (mut r, mut valid) = (Reader::new(&bytes), 0);
                while let Ok((lsn, _)) = next_record(&mut r) {
                    records += 1;
                    next_lsn = next_lsn.max(lsn + 1);
                    valid = bytes.len() - r.remaining();
                }
                // The append cursor sits after the last *valid* byte, so
                // a torn tail is overwritten... it cannot be (appends
                // only): instead a torn-tailed segment is retired and a
                // fresh one opened, so new records never hide behind
                // garbage bytes.
                if valid == bytes.len() {
                    active = Some(name.clone());
                    active_bytes = bytes.len();
                } else {
                    active = None;
                }
            }
        }
        let active = active.unwrap_or_else(|| segment_name(next_lsn));
        MetaLog {
            tier,
            inner: Mutex::new(LogInner {
                next_lsn,
                active,
                active_bytes,
                since_snapshot: records,
            }),
            snapshot_every: SNAPSHOT_EVERY,
        }
    }

    /// Overrides the snapshot cadence (records between compactions).
    #[must_use]
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every.max(1);
        self
    }

    /// Appends one op; returns its LSN. Rotates the active segment past
    /// [`SEGMENT_BYTES`].
    pub fn append(&self, op: &MetaOp) -> u64 {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        let rec = encode_record(lsn, op);
        self.tier.meta_append(&inner.active, &rec);
        inner.active_bytes += rec.len();
        inner.since_snapshot += 1;
        if inner.active_bytes >= SEGMENT_BYTES {
            inner.active = segment_name(inner.next_lsn);
            inner.active_bytes = 0;
        }
        lsn
    }

    /// The LSN the next record will get.
    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// Whether enough records accumulated since the last snapshot that
    /// the owner should compact (call [`MetaLog::snapshot`]).
    pub fn snapshot_due(&self) -> bool {
        self.inner.lock().since_snapshot >= self.snapshot_every
    }

    /// Writes a compacted snapshot of `image` and deletes every older
    /// segment and snapshot — after this, replay is one snapshot record
    /// plus whatever lands later. An image too large for one record
    /// (past the length field's 4 GiB) is not written, and then nothing
    /// is deleted: the log it would have replaced still replays.
    pub fn snapshot(&self, image: &MasterImage) {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        let rec = seal(lsn, T_SNAPSHOT, |w| w.put::<MasterImage>(image));
        if rec.is_empty() {
            return;
        }
        inner.next_lsn += 1;
        let name = snapshot_name(lsn);
        self.tier.meta_put(&name, &rec);
        // Everything older is superseded: all log segments (every record
        // in them has lsn < snapshot lsn) and all previous snapshots.
        for seg in self.tier.meta_list("log-") {
            self.tier.meta_remove(&seg);
        }
        for snap in self.tier.meta_list("snap-") {
            if snap != name {
                self.tier.meta_remove(&snap);
            }
        }
        inner.active = segment_name(inner.next_lsn);
        inner.active_bytes = 0;
        inner.since_snapshot = 0;
    }

    /// Replays the log: the newest snapshot op (if any) followed by
    /// every log record with a later LSN, in LSN order.
    pub fn replay(&self) -> Vec<(u64, MetaOp)> {
        Self::replay_tier(&self.tier)
    }

    /// [`MetaLog::replay`] against a bare tier (no open log needed —
    /// the standby's read-only path).
    pub fn replay_tier(tier: &UnderStore) -> Vec<(u64, MetaOp)> {
        let snap = blobs(tier, "snap-")
            .filter_map(|bytes| decode_records(&bytes).pop())
            .max_by_key(|(lsn, _)| *lsn);
        let snap_lsn = snap.as_ref().map_or(0, |(lsn, _)| *lsn);
        let mut tail: Vec<(u64, MetaOp)> = blobs(tier, "log-")
            .flat_map(|bytes| decode_records(&bytes))
            .filter(|(lsn, _)| *lsn > snap_lsn)
            .collect();
        tail.sort_by_key(|(lsn, _)| *lsn);
        snap.into_iter().chain(tail).collect()
    }

    /// Raw record bytes for every op with `lsn >= from_lsn` (the wire
    /// `LogTail` payload), in LSN order. A follower whose cursor
    /// predates the compaction horizon gets the snapshot record first —
    /// it carries its own LSN, so the follower jumps forward; a
    /// follower past the snapshot never sees it again (re-applying an
    /// old snapshot would wipe newer replayed state). Returns
    /// `(next_lsn, bytes)`.
    pub fn tail_from(&self, from_lsn: u64) -> (u64, Vec<u8>) {
        let next = self.next_lsn();
        let mut bytes = Vec::new();
        for (lsn, op) in self.replay() {
            if lsn >= from_lsn {
                bytes.extend_from_slice(&encode_record(lsn, &op));
            }
        }
        (next, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends one `S` to a hand-built record or body.
    fn put<S: Shape>(buf: &mut Vec<u8>, v: &S::Value) {
        let mut w = Writer::default();
        w.put::<S>(v);
        buf.extend(w.into_parts().0);
    }

    fn put_u32(buf: &mut Vec<u8>, v: u32) {
        put::<u32>(buf, &v);
    }

    fn put_u64(buf: &mut Vec<u8>, v: u64) {
        put::<u64>(buf, &v);
    }

    fn put_servers(buf: &mut Vec<u8>, servers: &[usize]) {
        put::<Vec<usize>>(buf, &servers.to_vec());
    }

    fn put_str(buf: &mut Vec<u8>, s: &str) {
        put::<String>(buf, &s.to_string());
    }

    fn ops() -> Vec<MetaOp> {
        vec![
            MetaOp::RegisterFile {
                id: 7,
                size: 4096,
                servers: vec![0, 3, 5],
            },
            MetaOp::ApplyPlacement {
                id: 7,
                servers: vec![1, 2],
                version: 2,
            },
            MetaOp::RegisterWorker { w: 3, epoch: 4 },
            MetaOp::MarkAlive { w: 1 },
            MetaOp::MarkDead { w: 2, epoch: 9 },
            MetaOp::Suspect {
                w: 0,
                count: 2,
                alive: true,
                epoch: 1,
            },
            MetaOp::BeginRepair { id: 7 },
            MetaOp::EndRepair { id: 7 },
            MetaOp::UnregisterFile { id: 7 },
            MetaOp::MasterEpoch {
                epoch: 2,
                addr: "127.0.0.1:4100".into(),
            },
            MetaOp::SetIntegrity {
                id: 1,
                integrity: FileIntegrity {
                    sums: vec![0xDEAD_BEEF, 0xFEED_FACE],
                    parity: vec![(2, 0xABAD_1DEA)],
                },
            },
            MetaOp::SetIntegrity {
                id: 9,
                integrity: FileIntegrity::default(),
            },
            MetaOp::Snapshot(MasterImage {
                files: vec![(1, 100, vec![0, 1], 3), (2, 50, vec![2], 1)],
                alive: vec![true, false, true],
                suspicion: vec![0, 3, 1],
                epochs: vec![1, 2, 1],
                repairing: vec![2],
                master_epoch: 4,
                master_addr: "127.0.0.1:4100".into(),
                integrity: vec![(
                    1,
                    FileIntegrity {
                        sums: vec![7, 8],
                        parity: vec![(0, 9)],
                    },
                )],
            }),
        ]
    }

    #[test]
    fn pre_integrity_snapshot_decodes_with_empty_rows() {
        // A snapshot record written before the integrity tier existed
        // ends right after master_addr. Re-encode one and truncate the
        // tail section: decode must still succeed with empty rows.
        let img = MasterImage {
            files: vec![(3, 64, vec![0], 1)],
            master_epoch: 2,
            master_addr: "a:1".into(),
            ..MasterImage::default()
        };
        let rec = encode_record(5, &MetaOp::Snapshot(img.clone()));
        // Strip the 4-byte empty-integrity count from payload and refit
        // the length/crc header.
        let payload = &rec[8..rec.len() - 4];
        let mut old = Vec::new();
        put_u32(&mut old, payload.len() as u32);
        put_u32(&mut old, crc32(payload));
        old.extend_from_slice(payload);
        let decoded = decode_records(&old);
        assert_eq!(decoded.len(), 1);
        let MetaOp::Snapshot(got) = &decoded[0].1 else {
            panic!("expected snapshot");
        };
        assert_eq!(got, &img);
    }

    /// One record as any build writes it: `tag` over `body`, under its
    /// length and CRC-32.
    fn raw_record(lsn: u64, tag: u8, body: &[u8]) -> Vec<u8> {
        let mut payload = lsn.to_le_bytes().to_vec();
        payload.push(tag);
        payload.extend_from_slice(body);
        let mut rec = Vec::new();
        put_u32(&mut rec, payload.len() as u32);
        put_u32(&mut rec, crc32(&payload));
        rec.extend_from_slice(&payload);
        rec
    }

    /// A snapshot body field by field, carrying `threshold` in the word
    /// between the worker rows and the repair registry.
    fn snapshot_body(threshold: u32) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, 1); // one file: id, size, version, servers
        put_u64(&mut b, 1);
        put_u64(&mut b, 100);
        put_u64(&mut b, 2);
        put_servers(&mut b, &[0, 1]);
        put_u32(&mut b, 2); // two workers: alive, suspicion, epoch
        b.push(1);
        put_u32(&mut b, 2);
        put_u64(&mut b, 1);
        b.push(0);
        put_u32(&mut b, 0);
        put_u64(&mut b, 2);
        put_u32(&mut b, threshold);
        put_u32(&mut b, 0); // no repair slots held
        put_u64(&mut b, 2); // master epoch and its owner
        put_str(&mut b, "127.0.0.1:4100");
        put_u32(&mut b, 0); // no integrity rows
        b
    }

    /// A journal written while the suspicion threshold was still a
    /// setting recovers to the state it recorded: its snapshot's
    /// threshold word (5 here) is read past, and a tag-10 record between
    /// two ordinary ones is skipped without ending the replay.
    #[test]
    fn journals_that_carry_a_threshold_still_recover() {
        use crate::master::{Master, SUSPICION_THRESHOLD};
        let tier = Arc::new(UnderStore::new());
        tier.meta_put(&snapshot_name(4), &raw_record(4, T_SNAPSHOT, &snapshot_body(5)));
        let mut log = encode_record(5, &MetaOp::RegisterFile { id: 2, size: 50, servers: vec![1] });
        log.extend_from_slice(&raw_record(6, T_RETIRED_SET_THRESHOLD, &4u32.to_le_bytes()));
        log.extend_from_slice(&encode_record(7, &MetaOp::RegisterWorker { w: 1, epoch: 3 }));
        tier.meta_put(&segment_name(5), &log);

        let ordinary = decode_records(&log);
        assert_eq!(ordinary.iter().map(|(lsn, _)| *lsn).collect::<Vec<_>>(), vec![5, 7]);
        let recovered = Master::recover(Arc::clone(&tier));
        assert_eq!(
            recovered.image(),
            MasterImage {
                files: vec![(1, 100, vec![0, 1], 2), (2, 50, vec![1], 1)],
                // Worker 1 was dead in the snapshot: the record after the
                // skipped one revived it under epoch 3.
                alive: vec![true, true],
                suspicion: vec![2, 0],
                epochs: vec![1, 3],
                repairing: Vec::new(),
                master_epoch: 2,
                master_addr: "127.0.0.1:4100".into(),
                integrity: Vec::new(),
            }
        );
        // The skipped record's LSN stays spent, and the segment it sits
        // in stays the one new records append to.
        let reopened = MetaLog::open(Arc::clone(&tier));
        assert_eq!(reopened.next_lsn(), 8);
        assert_eq!(reopened.append(&MetaOp::EndRepair { id: 1 }), 8);
        assert_eq!(tier.meta_list("log-"), vec![segment_name(5)]);
        // Snapshots written now keep the same layout, the word set to the
        // constant.
        let MetaOp::Snapshot(image) = &decode_records(&tier.meta_get(&snapshot_name(4)).unwrap())[0].1
        else {
            panic!("expected snapshot");
        };
        assert_eq!(
            encode_record(4, &MetaOp::Snapshot(image.clone())),
            raw_record(4, T_SNAPSHOT, &snapshot_body(SUSPICION_THRESHOLD))
        );
    }

    /// A snapshot past 64 MiB — about a million files' worth — replays
    /// after it has replaced the log: what the writer frames, the reader
    /// takes.
    #[test]
    fn an_oversize_snapshot_replays() {
        let tier = Arc::new(UnderStore::new());
        let log = MetaLog::open(Arc::clone(&tier));
        log.append(&MetaOp::UnregisterFile { id: 1 });
        let image = MasterImage { master_addr: "x".repeat((64 << 20) + 1), ..MasterImage::default() };
        log.snapshot(&image);
        let replayed = MetaLog::open(Arc::clone(&tier)).replay();
        assert_eq!(replayed.len(), 1, "the snapshot no longer replays");
        assert!(matches!(&replayed[0], (2, MetaOp::Snapshot(got)) if *got == image));
    }

    #[test]
    fn records_roundtrip() {
        for (i, op) in ops().into_iter().enumerate() {
            let rec = encode_record(i as u64 + 1, &op);
            let decoded = decode_records(&rec);
            assert_eq!(decoded, vec![(i as u64 + 1, op)]);
        }
    }

    #[test]
    fn concatenated_records_decode_in_order() {
        let mut stream = Vec::new();
        let expect: Vec<(u64, MetaOp)> = ops()
            .into_iter()
            .enumerate()
            .map(|(i, op)| (i as u64 + 1, op))
            .collect();
        for (lsn, op) in &expect {
            stream.extend_from_slice(&encode_record(*lsn, op));
        }
        assert_eq!(decode_records(&stream), expect);
    }

    #[test]
    fn torn_tail_stops_at_last_valid_record() {
        let a = encode_record(1, &MetaOp::MarkAlive { w: 0 });
        let b = encode_record(2, &MetaOp::MarkDead { w: 1, epoch: 2 });
        let mut stream = a.clone();
        stream.extend_from_slice(&b[..b.len() - 3]); // torn mid-record
        assert_eq!(decode_records(&stream), vec![(1, MetaOp::MarkAlive { w: 0 })]);
    }

    #[test]
    fn corrupt_record_fails_its_checksum() {
        let mut rec = encode_record(1, &MetaOp::BeginRepair { id: 42 });
        let last = rec.len() - 1;
        rec[last] ^= 0x40;
        assert!(decode_records(&rec).is_empty());
        // And a flipped byte mid-stream cuts the tail, keeps the prefix.
        let mut stream = encode_record(1, &MetaOp::EndRepair { id: 1 });
        let tail_start = stream.len();
        stream.extend_from_slice(&encode_record(2, &MetaOp::EndRepair { id: 2 }));
        stream[tail_start + 10] ^= 1;
        assert_eq!(decode_records(&stream), vec![(1, MetaOp::EndRepair { id: 1 })]);
    }

    #[test]
    fn log_appends_rotate_and_replay_in_order() {
        let tier = Arc::new(UnderStore::new());
        let log = MetaLog::open(Arc::clone(&tier));
        let mut expect = Vec::new();
        for i in 0..5000u64 {
            let op = MetaOp::BeginRepair { id: i };
            let lsn = log.append(&op);
            expect.push((lsn, op));
        }
        // Enough volume to rotate segments.
        assert!(tier.meta_list("log-").len() > 1, "no rotation happened");
        assert_eq!(log.replay(), expect);
        // Reopening resumes after the last record.
        let reopened = MetaLog::open(Arc::clone(&tier));
        assert_eq!(reopened.next_lsn(), 5001);
        assert_eq!(reopened.replay(), expect);
    }

    #[test]
    fn snapshot_compacts_to_o_delta() {
        let tier = Arc::new(UnderStore::new());
        let log = MetaLog::open(Arc::clone(&tier)).with_snapshot_every(10);
        for i in 0..100u64 {
            log.append(&MetaOp::BeginRepair { id: i });
            if log.snapshot_due() {
                log.snapshot(&MasterImage {
                    repairing: (0..=i).collect(),
                    ..MasterImage::default()
                });
            }
        }
        // One snapshot + at most the uncompacted tail.
        assert_eq!(tier.meta_list("snap-").len(), 1);
        let replayed = log.replay();
        assert!(
            replayed.len() <= 11,
            "replay is O(history), not O(delta): {} records",
            replayed.len()
        );
        assert!(matches!(replayed[0], (_, MetaOp::Snapshot(_))));
        // The snapshot + tail cover all 100 repairs.
        let MetaOp::Snapshot(img) = &replayed[0].1 else {
            panic!("first replayed op must be the snapshot")
        };
        let mut seen: Vec<u64> = img.repairing.clone();
        for (_, op) in &replayed[1..] {
            if let MetaOp::BeginRepair { id } = op {
                seen.push(*id);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn tail_from_covers_a_cold_follower_via_the_snapshot() {
        let tier = Arc::new(UnderStore::new());
        let log = MetaLog::open(Arc::clone(&tier));
        for i in 0..20u64 {
            log.append(&MetaOp::BeginRepair { id: i });
        }
        log.snapshot(&MasterImage::default());
        log.append(&MetaOp::EndRepair { id: 3 });
        // A follower from LSN 0: gets the snapshot plus the tail, not
        // the compacted-away history.
        let (next, bytes) = log.tail_from(0);
        assert_eq!(next, 23, "20 appends + snapshot (21) + 1 append (22)");
        let recs = decode_records(&bytes);
        assert!(matches!(recs[0].1, MetaOp::Snapshot(_)));
        assert_eq!(recs[1].1, MetaOp::EndRepair { id: 3 });
        // A warm follower past the tail gets nothing — in particular
        // NOT the old snapshot, which would wipe its newer state.
        let (_, bytes) = log.tail_from(23);
        assert!(decode_records(&bytes).is_empty());
        // One sitting exactly on the tail record gets just the delta.
        let (_, bytes) = log.tail_from(22);
        assert_eq!(
            decode_records(&bytes),
            vec![(22, MetaOp::EndRepair { id: 3 })]
        );
    }

    #[test]
    fn disk_mirror_survives_a_new_process_view() {
        let dir = std::env::temp_dir().join(format!(
            "spcache-metalog-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let tier = Arc::new(UnderStore::new().with_meta_dir(&dir).unwrap());
            let log = MetaLog::open(Arc::clone(&tier));
            for i in 0..50u64 {
                log.append(&MetaOp::RegisterWorker { w: i % 4, epoch: i });
            }
            log.snapshot(&MasterImage {
                master_epoch: 3,
                ..MasterImage::default()
            });
            log.append(&MetaOp::MarkAlive { w: 0 });
        }
        // A different "process": fresh tier over the same directory.
        let tier = Arc::new(UnderStore::new().with_meta_dir(&dir).unwrap());
        let log = MetaLog::open(Arc::clone(&tier));
        let replayed = log.replay();
        assert_eq!(replayed.len(), 2, "snapshot + 1 tail record: {replayed:?}");
        let MetaOp::Snapshot(img) = &replayed[0].1 else {
            panic!("expected snapshot first");
        };
        assert_eq!(img.master_epoch, 3);
        assert_eq!(replayed[1].1, MetaOp::MarkAlive { w: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
