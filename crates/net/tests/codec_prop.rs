//! Property tests of the wire codec: every message round-trips through
//! its frame byte-for-byte, and *no* corruption of those bytes — flips,
//! cuts, length lies — can make the decoder panic or over-read.

use bytes::Bytes;
use proptest::prelude::*;
use spcache_net::frame::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, Frame, HEADER_LEN,
};
use spcache_net::poll::{FrameReader, Inbound, PumpStatus, Source};
use spcache_store::landing::{Claim, Landing, Region};
use std::collections::HashMap;
use spcache_net::master_net::{
    decode_meta_reply, decode_meta_request, encode_meta_reply, encode_meta_request, MetaReply,
    MetaRequest,
};
use spcache_store::rpc::{PartKey, Reply, Request, StoreError, WorkerStats};
use spcache_store::FileIntegrity;

/// Strips the 4-byte length prefix off an `encode_*` result, yielding
/// the frame buffer `read_frame` would hand to `Frame::parse`.
fn strip_prefix(wire: Vec<u8>) -> Bytes {
    Bytes::from(wire[4..].to_vec())
}

/// Decodes one encoded frame back into a `Request`.
fn req_roundtrip(req: &Request, req_id: u64) -> (u64, Request) {
    let frame = Frame::parse(strip_prefix(encode_request(req, req_id))).expect("parse");
    let decoded = decode_request(&frame).expect("decode");
    (frame.req_id, decoded)
}

fn reply_roundtrip(reply: &Reply, req_id: u64) -> (u64, Reply) {
    let frame = Frame::parse(strip_prefix(encode_reply(reply, req_id))).expect("parse");
    let decoded = decode_reply(&frame).expect("decode");
    (frame.req_id, decoded)
}

/// Builds a key exercising the edges the codec must preserve: part
/// indices up to `u32::MAX` and the staged bit.
fn key_from(file: u64, part: u32, staged: bool) -> PartKey {
    let k = PartKey::new(file, part);
    if staged {
        k.staged()
    } else {
        k
    }
}

proptest! {
    #[test]
    fn put_roundtrips_ragged_sizes(
        file in 0u64..u64::MAX,
        part in 0u32..=u32::MAX,
        staged: bool,
        req_id in 0u64..u64::MAX,
        data in proptest::collection::vec(0u8..=255, 0..4_096),
        sum in 0u64..u64::MAX,
    ) {
        let key = key_from(file, part, staged);
        let req = Request::Put { key, data: Bytes::from(data.clone()), sum };
        let (rid, decoded) = req_roundtrip(&req, req_id);
        prop_assert_eq!(rid, req_id);
        match decoded {
            Request::Put { key: k, data: d, sum: s } => {
                prop_assert_eq!(k, key);
                prop_assert_eq!(&d[..], &data[..]);
                prop_assert_eq!(s, sum);
            }
            other => prop_assert!(false, "wrong variant: {:?}", other),
        }
    }

    #[test]
    fn control_requests_roundtrip(
        file in 0u64..u64::MAX,
        part in 0u32..=u32::MAX,
        staged: bool,
        offset in 0u64..u64::MAX,
        len in 0u64..u64::MAX,
        req_id in 0u64..u64::MAX,
    ) {
        let key = key_from(file, part, staged);
        let to = key_from(file.wrapping_add(1), part ^ 1, !staged);
        for req in [
            Request::Get { key },
            Request::GetRange { key, offset, len },
            Request::Rename { from: key, to },
            Request::Delete { key },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
            Request::SetEpoch(offset),
            Request::SetMasterEpoch(len),
            Request::Fenced {
                epoch: len,
                master: 0,
                inner: Box::new(Request::Get { key }),
            },
            Request::Fenced {
                epoch: len,
                master: offset,
                inner: Box::new(Request::Get { key }),
            },
            Request::Background {
                inner: Box::new(Request::Get { key }),
            },
            Request::Fenced {
                epoch: len,
                master: offset,
                inner: Box::new(Request::Background {
                    inner: Box::new(Request::Delete { key }),
                }),
            },
        ] {
            let (rid, decoded) = req_roundtrip(&req, req_id);
            prop_assert_eq!(rid, req_id);
            prop_assert_eq!(decoded, req);
        }
        // A stamp holds a data request: a control request inside a
        // fence or a background stamp is refused, not decoded.
        for control in [
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
            Request::SetEpoch(offset),
            Request::SetMasterEpoch(len),
        ] {
            for stamped in [
                Request::Fenced { epoch: len, master: offset, inner: Box::new(control.clone()) },
                Request::Background { inner: Box::new(control) },
            ] {
                let frame = Frame::parse(strip_prefix(encode_request(&stamped, req_id))).unwrap();
                prop_assert!(
                    matches!(decode_request(&frame), Err(StoreError::Codec(_))),
                    "{:?} decoded", stamped
                );
            }
        }
    }

    #[test]
    fn replies_roundtrip(
        file in 0u64..u64::MAX,
        part in 0u32..=u32::MAX,
        w in 0usize..1_000_000,
        flag: bool,
        req_id in 0u64..u64::MAX,
        data in proptest::collection::vec(0u8..=255, 0..2_048),
        served in 0u64..u64::MAX,
        bytes_out in 0u64..u64::MAX,
    ) {
        let key = key_from(file, part, true);
        for reply in [
            Reply::Done,
            Reply::Data(Bytes::from(data.clone())),
            Reply::Flag(flag),
            Reply::Stats(WorkerStats {
                bytes_served: served,
                bytes_stored: bytes_out,
                gets: served / 2,
                puts: served / 3,
                resident_parts: w,
                bytes_background: bytes_out / 2,
                evictions: served / 5,
                spilled_bytes: bytes_out / 3,
                reloaded_bytes: bytes_out / 4,
                resident_bytes: bytes_out / 5,
                corruptions_detected: served / 7,
                parity_bytes: bytes_out / 6,
                decode_reconstructions: served / 9,
            }),
            Reply::Pong { worker: w, epoch: served },
            Reply::Err(StoreError::NotFound(key)),
            Reply::Err(StoreError::Corrupt(key)),
            Reply::Err(StoreError::WorkerDown(w)),
            Reply::Err(StoreError::UnknownFile(file)),
            Reply::Err(StoreError::AlreadyExists(file)),
            Reply::Err(StoreError::Timeout(w)),
            Reply::Err(StoreError::Io(w)),
            Reply::Err(StoreError::Codec(format!("bad byte {part}"))),
            Reply::Err(StoreError::StaleEpoch(w)),
            Reply::Err(StoreError::Degraded(file)),
        ] {
            let (rid, decoded) = reply_roundtrip(&reply, req_id);
            prop_assert_eq!(rid, req_id);
            prop_assert_eq!(decoded, reply);
        }
    }

    #[test]
    fn meta_messages_roundtrip(
        file in 0u64..u64::MAX,
        size in 0u64..u64::MAX,
        w in 0usize..1_000_000,
        n in 0u64..10_000,
        flag: bool,
        req_id in 0u64..u64::MAX,
        servers in proptest::collection::vec(0usize..64, 0..12),
        files in proptest::collection::vec(0u64..u64::MAX, 0..12),
        bandwidth in 0f64..1e12,
        lambda in 0f64..1e9,
        seed in 0u64..u64::MAX,
    ) {
        for req in [
            MetaRequest::Register { id: file, size, servers: servers.clone() },
            MetaRequest::Unregister { id: file },
            MetaRequest::Locate { id: file },
            MetaRequest::Peek { id: file },
            MetaRequest::ApplyPlacement { id: file, servers: servers.clone() },
            MetaRequest::MarkAlive { w: w as u64 },
            MetaRequest::MarkDead { w: w as u64 },
            MetaRequest::Suspect { w: w as u64 },
            MetaRequest::IsAlive { w: w as u64 },
            MetaRequest::LiveWorkers { n },
            MetaRequest::Degraded,
            MetaRequest::Rebalance { bandwidth, lambda, seed },
            MetaRequest::WorkerEpochs { n },
            MetaRequest::RegisterWorker { w: w as u64 },
            MetaRequest::BeginRepair { id: file },
            MetaRequest::EndRepair { id: file },
            MetaRequest::Status,
            MetaRequest::LogTail { from: size },
            MetaRequest::Takeover { epoch: size, addr: format!("127.0.0.1:{}", n % 65_536) },
            MetaRequest::RegisterBatch {
                entries: files.iter().map(|&f| (f, size, servers.clone())).collect(),
            },
            MetaRequest::SetIntegrity {
                id: file,
                integrity: FileIntegrity {
                    sums: files.clone(),
                    parity: servers.iter().map(|&sv| (sv, seed ^ sv as u64)).collect(),
                },
            },
            MetaRequest::Integrity { id: file },
            MetaRequest::Shutdown,
        ] {
            let frame =
                Frame::parse(strip_prefix(encode_meta_request(&req, req_id))).expect("parse");
            prop_assert_eq!(frame.req_id, req_id);
            prop_assert_eq!(decode_meta_request(&frame).expect("decode"), req);
        }
        for reply in [
            MetaReply::Done,
            MetaReply::Info { size, servers: servers.clone() },
            MetaReply::Maybe(None),
            MetaReply::Maybe(Some((size, servers.clone()))),
            MetaReply::Count(n as u32),
            MetaReply::Flag(flag),
            MetaReply::Workers(servers.clone()),
            MetaReply::Files(files.clone()),
            MetaReply::Rebalanced { moved: n, skipped: files.clone() },
            MetaReply::Epochs(files.clone()),
            MetaReply::Epoch(size),
            MetaReply::Redirect { to: format!("10.0.0.{}:{}", n % 256, w % 65_536) },
            MetaReply::Redirect { to: String::new() },
            MetaReply::Status { epoch: size, active: flag, files: n, next_lsn: seed },
            MetaReply::Log { next_lsn: size, bytes: files.iter().flat_map(|f| f.to_le_bytes()).collect() },
            MetaReply::IntegrityRow(None),
            MetaReply::IntegrityRow(Some(FileIntegrity {
                sums: files.clone(),
                parity: servers.iter().map(|&sv| (sv, seed ^ sv as u64)).collect(),
            })),
            MetaReply::Err(StoreError::UnknownFile(file)),
        ] {
            let frame =
                Frame::parse(strip_prefix(encode_meta_reply(&reply, req_id))).expect("parse");
            prop_assert_eq!(frame.req_id, req_id);
            prop_assert_eq!(decode_meta_reply(&frame).expect("decode"), reply);
        }
    }

    /// Any single-byte corruption of a valid frame must decode cleanly,
    /// error out, or fail to parse — never panic, never read outside the
    /// buffer (the `Bytes` shim bounds-checks every slice).
    #[test]
    fn flipped_bytes_never_panic(
        file in 0u64..u64::MAX,
        part in 0u32..=u32::MAX,
        req_id in 0u64..u64::MAX,
        data in proptest::collection::vec(0u8..=255, 0..512),
        pos_seed in 0usize..usize::MAX,
        flip in 1u8..=255,
    ) {
        let wire =
            encode_request(&Request::Put { key: PartKey::new(file, part), data: Bytes::from(data), sum: 7 }, req_id);
        let mut bytes = wire[4..].to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        if let Ok(frame) = Frame::parse(Bytes::from(bytes)) {
            let _ = decode_request(&frame); // must not panic
            let _ = decode_reply(&frame);
            let _ = decode_meta_request(&frame);
            let _ = decode_meta_reply(&frame);
        }
    }

    /// Every §4.14 failover-protocol frame — master-epoch stamps on the
    /// worker wire, log-tail/takeover/redirect/batch on the meta wire —
    /// survives arbitrary single-byte corruption *and* truncation at
    /// any offset without panicking or over-reading. (The happy-path
    /// roundtrips live in `control_requests_roundtrip` and
    /// `meta_messages_roundtrip`; this is the adversarial half.)
    #[test]
    fn failover_frames_survive_corruption_and_truncation(
        epoch in 0u64..u64::MAX,
        master in 0u64..u64::MAX,
        req_id in 0u64..u64::MAX,
        entries in proptest::collection::vec(
            (0u64..u64::MAX, 0u64..1u64 << 40, proptest::collection::vec(0usize..64, 0..6)),
            0..6,
        ),
        raw in proptest::collection::vec(0u8..=255, 0..256),
        pos_seed in 0usize..usize::MAX,
        cut_seed in 0usize..usize::MAX,
        flip in 1u8..=255,
    ) {
        let wires = [
            encode_request(&Request::SetMasterEpoch(master), req_id),
            encode_request(&Request::Fenced {
                epoch,
                master,
                inner: Box::new(Request::Get { key: PartKey::new(epoch, 7) }),
            }, req_id),
            encode_meta_request(&MetaRequest::Status, req_id),
            encode_meta_request(&MetaRequest::LogTail { from: epoch }, req_id),
            encode_meta_request(&MetaRequest::Takeover {
                epoch,
                addr: format!("127.0.0.1:{}", master % 65_536),
            }, req_id),
            encode_meta_request(&MetaRequest::RegisterBatch { entries: entries.clone() }, req_id),
            encode_meta_reply(&MetaReply::Redirect {
                to: format!("10.1.2.3:{}", epoch % 65_536),
            }, req_id),
            encode_meta_reply(&MetaReply::Status {
                epoch, active: flip & 1 == 1, files: master, next_lsn: epoch ^ master,
            }, req_id),
            encode_meta_reply(&MetaReply::Log { next_lsn: epoch, bytes: raw.clone() }, req_id),
        ];
        for wire in wires {
            // Single-byte flip: decode may fail, must not panic.
            let mut bytes = wire[4..].to_vec();
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= flip;
            if let Ok(frame) = Frame::parse(Bytes::from(bytes)) {
                let _ = decode_request(&frame);
                let _ = decode_meta_request(&frame);
                let _ = decode_meta_reply(&frame);
            }
            // Truncation mid-frame: the length prefix catches it.
            let cut = 1 + cut_seed % (wire.len() - 1);
            let mut stream = std::io::Cursor::new(wire[..cut].to_vec());
            prop_assert!(read_frame(&mut stream).is_err(), "cut at {cut} accepted");
        }
    }

    /// A connection cut anywhere inside a frame must surface as an I/O
    /// error from `read_frame` — the length prefix makes truncation
    /// detectable *before* the decoder ever sees short bytes. (Payloads
    /// are the frame remainder, so this is the only truncation guard.)
    #[test]
    fn truncated_streams_are_io_errors(
        file in 0u64..u64::MAX,
        part in 0u32..=u32::MAX,
        req_id in 0u64..u64::MAX,
        data in proptest::collection::vec(0u8..=255, 1..512),
        cut_seed in 0usize..usize::MAX,
    ) {
        let wire =
            encode_request(&Request::Put { key: PartKey::new(file, part), data: Bytes::from(data), sum: 7 }, req_id);
        // Cut strictly inside the message (cut = 0 is a clean close,
        // covered by the unit tests as `Ok(None)`).
        let cut = 1 + cut_seed % (wire.len() - 1);
        let mut stream = std::io::Cursor::new(wire[..cut].to_vec());
        let got = read_frame(&mut stream);
        prop_assert!(got.is_err(), "cut at {} of {} accepted: {:?}", cut, wire.len(), got);
    }

    /// Truncation *below the header* is also rejected at the parse
    /// layer, for receivers handed a raw short buffer.
    #[test]
    fn short_buffers_fail_parse(
        req_id in 0u64..u64::MAX,
        cut in 0usize..HEADER_LEN,
    ) {
        let wire = encode_request(&Request::Ping, req_id);
        let short = wire[4..4 + cut].to_vec();
        match Frame::parse(Bytes::from(short)) {
            Err(StoreError::Codec(_)) => {}
            other => prop_assert!(false, "short header accepted: {:?}", other),
        }
    }

    /// `read_frame` against a stream whose *length prefix lies* (larger
    /// than the payload, or absurdly large) returns an error — it never
    /// blocks forever on this finite input and never allocates the lie.
    #[test]
    fn lying_length_prefix_is_io_error(
        declared in 10u32..u32::MAX,
        actual in 0usize..64,
    ) {
        let mut stream = Vec::new();
        stream.extend_from_slice(&declared.to_le_bytes());
        stream.extend_from_slice(&vec![0u8; actual]);
        let mut r = std::io::Cursor::new(stream);
        // Either InvalidData (over MAX_FRAME) or UnexpectedEof (honest
        // lengths with missing bytes).
        prop_assert!(read_frame(&mut r).is_err());
    }
}

// ---------------------------------------------------------------------
// Batched frames through the event loop's `FrameReader`.
// ---------------------------------------------------------------------

/// A reader that hands back a byte stream in arbitrary chunk sizes —
/// the adversarial schedule of `read(2)` returns a non-blocking socket
/// can produce — optionally interleaving `WouldBlock` between chunks
/// the way a drained socket would.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    cuts: Vec<usize>,
    ci: usize,
    block_between: bool,
    pending_block: bool,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, cuts: Vec<usize>, block_between: bool) -> Self {
        ChunkedReader { data, pos: 0, cuts, ci: 0, block_between, pending_block: false }
    }
}

impl std::io::Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending_block {
            self.pending_block = false;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let chunk = self.cuts.get(self.ci).copied().unwrap_or(usize::MAX).max(1);
        self.ci += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        if self.block_between {
            self.pending_block = true;
        }
        Ok(n)
    }
}

impl Source for ChunkedReader {}

/// Builds a batched wire stream of `Put` frames plus the frame-boundary
/// offsets (cumulative encoded lengths) and the expected decodes.
fn batched_stream(msgs: &[(u64, Vec<u8>)]) -> (Vec<u8>, Vec<usize>, Vec<(u64, Request)>) {
    let mut stream = Vec::new();
    let mut boundaries = vec![0];
    let mut expect = Vec::new();
    for (req_id, data) in msgs {
        let req = Request::Put {
            key: PartKey::new(req_id ^ 0xABCD, (*req_id % 7_919) as u32),
            data: Bytes::from(data.clone()),
            sum: *req_id ^ 0x5A5A,
        };
        stream.extend_from_slice(&encode_request(&req, *req_id));
        boundaries.push(stream.len());
        expect.push((*req_id, req));
    }
    (stream, boundaries, expect)
}

/// Drives `FrameReader::pump` to completion over a chunked reader,
/// failing the case if it spins without consuming.
fn pump_all(
    r: &mut ChunkedReader,
    frames: &mut impl Inbound,
) -> Result<std::io::Result<()>, TestCaseError> {
    let mut fr = FrameReader::new();
    for _ in 0..(2 * r.data.len() + 64) {
        match fr.pump(r, frames) {
            Ok(PumpStatus::Closed) => return Ok(Ok(())),
            Ok(PumpStatus::Open) => {}
            Err(e) => return Ok(Err(e)),
        }
    }
    Err(TestCaseError::from("pump never reached EOF"))
}

proptest! {
    /// A pipelined batch of frames split at *any* syscall boundaries —
    /// including one-byte reads and interleaved `WouldBlock` — re-parses
    /// to exactly the original frame sequence: nothing lost, nothing
    /// duplicated, no byte attributed to the wrong frame, and the
    /// reader consumes the stream exactly once (no over-read).
    #[test]
    fn batched_frames_reparse_across_any_split_points(
        msgs in proptest::collection::vec(
            (0u64..u64::MAX, proptest::collection::vec(0u8..=255, 0..2_048)),
            1..10,
        ),
        cuts in proptest::collection::vec(1usize..97, 0..64),
        block: bool,
    ) {
        let (stream, _, expect) = batched_stream(&msgs);
        let total = stream.len();
        let mut r = ChunkedReader::new(stream, cuts, block);
        let mut frames = Vec::new();
        pump_all(&mut r, &mut frames)?.expect("clean batch errored");
        prop_assert_eq!(r.pos, total, "reader stopped early or over-read");
        prop_assert_eq!(frames.len(), expect.len(), "frame count diverged");
        for (bytes, (req_id, req)) in frames.iter().zip(&expect) {
            let frame = Frame::parse(bytes.clone()).expect("parse pumped frame");
            prop_assert_eq!(frame.req_id, *req_id);
            prop_assert_eq!(&decode_request(&frame).expect("decode pumped frame"), req);
        }
    }

    /// The same batch torn at a random byte: everything before the tear
    /// re-parses as a strict prefix of the original sequence, and the
    /// tear itself surfaces as a clean close (frame boundary) or an
    /// `UnexpectedEof` (mid-frame) — never a panic, never a fabricated
    /// frame from the torn tail.
    #[test]
    fn torn_batched_streams_yield_a_clean_prefix(
        msgs in proptest::collection::vec(
            (0u64..u64::MAX, proptest::collection::vec(0u8..=255, 0..512)),
            1..8,
        ),
        cuts in proptest::collection::vec(1usize..53, 0..48),
        cut_seed in 0usize..usize::MAX,
        block: bool,
    ) {
        let (stream, boundaries, expect) = batched_stream(&msgs);
        let cut = 1 + cut_seed % (stream.len() - 1);
        let on_boundary = boundaries.contains(&cut);
        let mut r = ChunkedReader::new(stream[..cut].to_vec(), cuts, block);
        let mut frames = Vec::new();
        let outcome = pump_all(&mut r, &mut frames)?;
        if on_boundary {
            prop_assert!(outcome.is_ok(), "boundary cut errored: {:?}", outcome);
        } else {
            let err = outcome.expect_err("mid-frame tear decoded cleanly");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        // Exactly the frames wholly before the tear, byte-for-byte.
        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(frames.len(), complete, "torn tail fabricated or ate a frame");
        for (bytes, (req_id, req)) in frames.iter().zip(&expect) {
            let frame = Frame::parse(bytes.clone()).expect("parse pumped frame");
            prop_assert_eq!(frame.req_id, *req_id);
            prop_assert_eq!(&decode_request(&frame).expect("decode pumped frame"), req);
        }
    }
}

// ---------------------------------------------------------------------
// The same schedules with reply payloads landing in place.
// ---------------------------------------------------------------------

/// A client's side of a pump: a `Data` reply whose `req_id` has a
/// region lands in it; every other frame completes whole.
#[derive(Default)]
struct Lands {
    regions: HashMap<u64, Region>,
    frames: Vec<Bytes>,
    landed: Vec<u64>,
}

impl Inbound for Lands {
    fn frame(&mut self, body: Bytes) {
        self.frames.push(body);
    }

    fn offer(&mut self, header: &[u8], len: usize) -> Option<(u64, Claim)> {
        let id = spcache_net::frame::data_reply_id(header)?;
        Some((id, self.regions.get(&id)?.claim(len)?))
    }

    fn landed(&mut self, id: u64, claim: Claim) {
        assert!(claim.land(), "an unfinished payload handed out");
        self.landed.push(id);
    }
}

/// A read's replies on one connection: part `j` of `file` as a `Data`
/// reply to request `j` (one byte long for `long`), each followed by a
/// `Put` ack, in the order `seed` shuffles the `k` parts into. Returns
/// the wire and its frame boundaries.
fn landed_stream(
    file: &[u8],
    landing: &Landing,
    k: usize,
    long: usize,
    seed: u64,
) -> (Vec<u8>, Vec<usize>) {
    let mut order: Vec<usize> = (0..k).collect();
    let mut s = seed;
    for i in (1..order.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    let (mut wire, mut boundaries) = (Vec::new(), vec![0]);
    for j in order {
        let mut part = file[landing.range(j)].to_vec();
        if j == long {
            part.push(0x77);
        }
        wire.extend(encode_reply(&Reply::Data(Bytes::from(part)), j as u64));
        boundaries.push(wire.len());
        wire.extend(encode_reply(&Reply::Done, 1_000 + j as u64));
        boundaries.push(wire.len());
    }
    (wire, boundaries)
}

proptest! {
    /// The batched split schedules — one-byte reads, cuts inside every
    /// length prefix, header and payload, interleaved `WouldBlock` —
    /// with each `Data` payload landing in its region of a read's
    /// output: every right-length payload lands whole in its own
    /// region, the one-byte-long one does not land and comes out whole
    /// as a frame, the acks come out whole in order, and the stream is
    /// consumed exactly once.
    #[test]
    fn landed_frames_reassemble_across_any_split_points(
        size in 0usize..20_000,
        k in 1usize..9,
        long in 0usize..12,
        seed: u64,
        cuts in proptest::collection::vec(1usize..97, 0..64),
        block: bool,
    ) {
        let file: Vec<u8> = (0..size).map(|i| (i as u64 ^ seed) as u8).collect();
        let mut landing = Landing::new(size, k);
        let (stream, _) = landed_stream(&file, &landing, k, long, seed);
        let total = stream.len();
        let mut lands = Lands::default();
        for j in 0..k {
            lands.regions.insert(j as u64, landing.region(j).unwrap());
        }
        let mut r = ChunkedReader::new(stream, cuts, block);
        pump_all(&mut r, &mut lands)?.expect("clean batch errored");
        prop_assert_eq!(r.pos, total, "reader stopped early or over-read");
        let mut landed = lands.landed.clone();
        landed.sort_unstable();
        let want: Vec<u64> = (0..k as u64).filter(|&j| j as usize != long).collect();
        prop_assert_eq!(landed, want);
        let frames: Vec<Reply> = lands
            .frames
            .iter()
            .map(|b| decode_reply(&Frame::parse(b.clone()).unwrap()).unwrap())
            .collect();
        prop_assert_eq!(frames.len(), k + usize::from(long < k));
        for reply in &frames {
            match reply {
                Reply::Done => {}
                Reply::Data(d) => prop_assert_eq!(d.len(), landing.range(long).len() + 1),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        drop(lands);
        for j in 0..k {
            if j == long {
                prop_assert!(!landing.accept(j));
                landing.place(j, Bytes::from(file[landing.range(j)].to_vec()));
            } else {
                prop_assert!(landing.accept(j), "part {} did not land", j);
            }
        }
        prop_assert_eq!(landing.into_vec(), file);
    }

    /// The landed stream torn at any byte: exactly the payloads whose
    /// frames ended before the tear land, the tear is a clean close or
    /// `UnexpectedEof`, and the payload it cut never lands.
    #[test]
    fn torn_landed_streams_land_exactly_the_frames_before_the_tear(
        size in 1usize..6_000,
        k in 1usize..6,
        seed: u64,
        cuts in proptest::collection::vec(1usize..53, 0..48),
        cut_seed in 0usize..usize::MAX,
        block: bool,
    ) {
        let file: Vec<u8> = (0..size).map(|i| (i as u64 ^ seed) as u8).collect();
        let mut landing = Landing::new(size, k);
        let (stream, boundaries) = landed_stream(&file, &landing, k, usize::MAX, seed);
        let cut = 1 + cut_seed % (stream.len() - 1);
        let mut lands = Lands::default();
        for j in 0..k {
            lands.regions.insert(j as u64, landing.region(j).unwrap());
        }
        let mut r = ChunkedReader::new(stream[..cut].to_vec(), cuts, block);
        let outcome = pump_all(&mut r, &mut lands)?;
        if boundaries.contains(&cut) {
            prop_assert!(outcome.is_ok(), "boundary cut errored: {:?}", outcome);
        } else {
            let err = outcome.expect_err("mid-frame tear decoded cleanly");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        // Frames alternate Data, Done: the Data frames before the tear
        // are the even boundaries.
        let done = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(lands.landed.len(), done.div_ceil(2));
        prop_assert_eq!(lands.frames.len(), done / 2);
        let landed = lands.landed.clone();
        drop(lands);
        for j in 0..k as u64 {
            prop_assert_eq!(landing.accept(j as usize), landed.contains(&j), "part {}", j);
        }
        for &j in &landed {
            let j = j as usize;
            prop_assert_eq!(landing.part(j).unwrap(), &file[landing.range(j)]);
        }
    }
}

/// Deterministic edge cases worth pinning outside the generators.
#[test]
fn codec_edges() {
    // Size-0 payload.
    let (_, decoded) = req_roundtrip(
        &Request::Put {
            key: PartKey::new(0, 0),
            data: Bytes::from(Vec::new()),
            sum: 0,
        },
        0,
    );
    assert!(matches!(decoded, Request::Put { data, .. } if data.is_empty()));

    // Max u32 part index survives, staged and plain.
    let k = PartKey::new(u64::MAX, u32::MAX);
    let (_, decoded) = req_roundtrip(&Request::Get { key: k.staged() }, u64::MAX);
    assert_eq!(decoded, Request::Get { key: k.staged() });

    // The empty buffer and a bare header are rejected, not panics.
    assert!(Frame::parse(Bytes::from(Vec::new())).is_err());
    let bare = encode_request(&Request::Ping, 7);
    assert_eq!(bare.len(), HEADER_LEN + 4); // length prefix + header, no body
    assert!(Frame::parse(Bytes::from(bare[4..4 + HEADER_LEN - 1].to_vec())).is_err());
}
