//! Length-prefixed binary framing for the store's RPC surface
//! (DESIGN.md §4.10).
//!
//! Every message on a connection — request or reply, worker or master
//! protocol — is one frame:
//!
//! ```text
//! | u32 LE: len | u8: version | u8: opcode | u64 LE: req_id | body... |
//! ```
//!
//! `len` counts everything after the length field itself (version byte
//! through end of body), so a reader pulls 4 bytes, then exactly `len`
//! more. `req_id` is a per-connection sequence number chosen by the
//! requester and echoed verbatim in the reply, which lets one connection
//! multiplex any number of in-flight requests with out-of-order replies.
//!
//! A stamped data request is one flat body under one header, never a
//! frame inside a frame:
//!
//! ```text
//! | u64 LE: epoch | u64 LE: master | u64 LE: expect | u8: class | u8: inner opcode | inner body... |
//! ```
//!
//! so a stamped `Put`'s payload is the frame's tail exactly as a plain
//! one's is, and both leave zero-copy ([`encode_request_parts`]).
//!
//! Decoding is zero-copy on the receive side: a frame is read into one
//! [`Bytes`] buffer and every payload (`Put` data, `Get` reply bytes)
//! is a [`Bytes::slice`] view borrowing that buffer — no per-payload
//! allocation or memcpy.
//!
//! Malformed input never panics and never over-reads: every decode path
//! returns [`StoreError::Codec`] (a *permanent* error — resending the
//! same bytes reproduces the violation) with bounds-checked cursors.

use crate::poll::WireFrame;
use bytes::Bytes;
use spcache_store::rpc::{PartKey, Reply, Request, Stamp, StoreError, WorkerStats};
use spcache_store::throttle::TrafficClass;
use std::io::{self, Read, Write};

/// Protocol version stamped into every frame. Peers reject frames with
/// any other value, so incompatible protocol revisions fail loudly at
/// the first message instead of corrupting state.
///
/// v2: `Put` carries a per-partition checksum, `GetParity` and the
/// `Corrupt` error kind exist, and the stats frame grew the integrity
/// counters (§4.15).
///
/// v3: a stamped data request is one flat opcode (`0x09`) whose body is
/// `u64 epoch | u64 master | u8 class | u8 inner opcode | inner body`;
/// the nested fence and background envelopes (`0x09` embedding a whole
/// inner frame, `0x0B`) are gone.
///
/// v4: the stamp grows a `u64 expect` after the master epoch — the
/// checksum a sum-fenced `Get` must find recorded (0 = no fence, and
/// the only value any other inner request may carry) — and the
/// `StalePlacement` error kind exists.
pub const WIRE_VERSION: u8 = 4;

/// Hard ceiling on `len` (1 GiB). A corrupt or hostile length prefix
/// must not make a reader allocate unbounded memory.
pub const MAX_FRAME: u32 = 1 << 30;

/// Bytes of header counted by `len`: version (1) + opcode (1) +
/// req_id (8).
pub const HEADER_LEN: usize = 10;

// Worker-protocol opcodes. Requests sit in 0x01.., replies in 0x41..;
// the master protocol (see `master_net`) uses 0x81../0xC1.. so a frame
// arriving on the wrong port is an immediate codec error, not a
// misinterpretation.
pub(crate) const OP_PUT: u8 = 0x01;
pub(crate) const OP_GET: u8 = 0x02;
pub(crate) const OP_GET_RANGE: u8 = 0x03;
pub(crate) const OP_RENAME: u8 = 0x04;
pub(crate) const OP_DELETE: u8 = 0x05;
pub(crate) const OP_STATS: u8 = 0x06;
pub(crate) const OP_PING: u8 = 0x07;
pub(crate) const OP_SHUTDOWN: u8 = 0x08;
pub(crate) const OP_STAMPED: u8 = 0x09;
pub(crate) const OP_SET_EPOCH: u8 = 0x0A;
pub(crate) const OP_SET_MASTER_EPOCH: u8 = 0x0C;
pub(crate) const OP_GET_PARITY: u8 = 0x0D;
pub(crate) const OP_R_DONE: u8 = 0x41;
pub(crate) const OP_R_DATA: u8 = 0x42;
pub(crate) const OP_R_FLAG: u8 = 0x43;
pub(crate) const OP_R_STATS: u8 = 0x44;
pub(crate) const OP_R_PONG: u8 = 0x45;
pub(crate) const OP_R_ERR: u8 = 0x46;

// Traffic-class bytes of a stamp.
const CLASS_FOREGROUND: u8 = 0;
const CLASS_BACKGROUND: u8 = 1;

// StoreError wire kinds (body of `OP_R_ERR` / `MOP_R_ERR`).
const ERR_NOT_FOUND: u8 = 1;
const ERR_WORKER_DOWN: u8 = 2;
const ERR_UNKNOWN_FILE: u8 = 3;
const ERR_ALREADY_EXISTS: u8 = 4;
const ERR_TIMEOUT: u8 = 5;
const ERR_IO: u8 = 6;
const ERR_CODEC: u8 = 7;
const ERR_STALE_EPOCH: u8 = 8;
const ERR_DEGRADED: u8 = 9;
const ERR_CORRUPT: u8 = 10;
const ERR_STALE_PLACEMENT: u8 = 11;

fn codec(msg: impl Into<String>) -> StoreError {
    StoreError::Codec(msg.into())
}

/// A parsed frame: header fields plus a zero-copy handle on the raw
/// buffer (everything after the length prefix).
#[derive(Debug, Clone)]
pub struct Frame {
    /// Operation code.
    pub opcode: u8,
    /// Requester-chosen id, echoed in the reply.
    pub req_id: u64,
    buf: Bytes,
}

impl Frame {
    /// Parses a frame buffer (the `len` bytes following the length
    /// prefix).
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] on a short header or wrong version byte.
    pub fn parse(buf: Bytes) -> Result<Frame, StoreError> {
        if buf.len() < HEADER_LEN {
            return Err(codec(format!("frame too short: {} bytes", buf.len())));
        }
        if buf[0] != WIRE_VERSION {
            return Err(codec(format!(
                "unsupported wire version {} (want {WIRE_VERSION})",
                buf[0]
            )));
        }
        let opcode = buf[1];
        let req_id = u64::from_le_bytes(buf[2..10].try_into().expect("8 bytes"));
        Ok(Frame {
            opcode,
            req_id,
            buf,
        })
    }

    /// Cursor over the body (bytes after the header), for decoding.
    pub(crate) fn body_cursor(&self) -> Cursor<'_> {
        Cursor {
            buf: &self.buf,
            pos: HEADER_LEN,
        }
    }
}

/// The `req_id` of a frame whose header (the [`HEADER_LEN`] bytes after
/// the length prefix) announces a worker `Data` reply of this wire
/// version — the one reply whose payload may land in place; `None` for
/// any other header.
pub fn data_reply_id(header: &[u8]) -> Option<u64> {
    let header: &[u8; HEADER_LEN] = header.try_into().ok()?;
    (header[0] == WIRE_VERSION && header[1] == OP_R_DATA)
        .then(|| u64::from_le_bytes(header[2..].try_into().expect("8 bytes")))
}

/// Bounds-checked reader over a frame buffer. Payload reads return
/// [`Bytes::slice`] views (zero-copy); every accessor fails with a
/// codec error instead of reading past the end.
pub(crate) struct Cursor<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| codec("truncated frame body"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn key(&mut self) -> Result<PartKey, StoreError> {
        let file = self.u64()?;
        let part = self.u32()?;
        Ok(PartKey { file, part })
    }

    /// Remaining body as a zero-copy view of the frame buffer.
    pub(crate) fn rest(&mut self) -> Bytes {
        let s = self.buf.slice(self.pos..self.buf.len());
        self.pos = self.buf.len();
        s
    }

    pub(crate) fn string(&mut self) -> Result<String, StoreError> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| codec("invalid utf-8 in string field"))
    }

    pub(crate) fn usize_list(&mut self) -> Result<Vec<usize>, StoreError> {
        let n = self.u32()? as usize;
        // A length claim larger than the bytes actually present is a lie;
        // reject before reserving memory for it.
        if n.saturating_mul(4) > self.buf.len() - self.pos {
            return Err(codec("list length exceeds frame"));
        }
        (0..n).map(|_| Ok(self.u32()? as usize)).collect()
    }

    /// Reads a `u32` element count for a list whose entries occupy at
    /// least `min_entry_bytes` each, rejecting counts that could not
    /// possibly fit in the remaining body (a length lie).
    pub(crate) fn guarded_count(&mut self, min_entry_bytes: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_entry_bytes) > self.buf.len() - self.pos {
            return Err(codec("list length exceeds frame"));
        }
        Ok(n)
    }

    pub(crate) fn u64_list(&mut self) -> Result<Vec<u64>, StoreError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(8) > self.buf.len() - self.pos {
            return Err(codec("list length exceeds frame"));
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Asserts the body was fully consumed (trailing garbage is a
    /// protocol violation).
    pub(crate) fn finish(self) -> Result<(), StoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(codec(format!(
                "{} trailing bytes after message body",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Builder for an encoded frame; finishes into the full on-wire byte
/// string (length prefix included).
pub(crate) struct FrameBuilder {
    out: Vec<u8>,
}

impl FrameBuilder {
    pub(crate) fn new(opcode: u8, req_id: u64) -> Self {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&[0u8; 4]); // length patched in finish()
        out.push(WIRE_VERSION);
        out.push(opcode);
        out.extend_from_slice(&req_id.to_le_bytes());
        FrameBuilder { out }
    }

    pub(crate) fn u8(mut self, v: u8) -> Self {
        self.out.push(v);
        self
    }

    pub(crate) fn u32(mut self, v: u32) -> Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub(crate) fn u64(mut self, v: u64) -> Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub(crate) fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    pub(crate) fn key(self, k: PartKey) -> Self {
        self.u64(k.file).u32(k.part)
    }

    pub(crate) fn bytes(mut self, b: &[u8]) -> Self {
        self.out.extend_from_slice(b);
        self
    }

    pub(crate) fn string(self, s: &str) -> Self {
        self.u32(s.len() as u32).bytes(s.as_bytes())
    }

    pub(crate) fn usize_list(mut self, v: &[usize]) -> Self {
        self = self.u32(v.len() as u32);
        for &x in v {
            self = self.u32(x as u32);
        }
        self
    }

    pub(crate) fn u64_list(mut self, v: &[u64]) -> Self {
        self = self.u32(v.len() as u32);
        for &x in v {
            self = self.u64(x);
        }
        self
    }

    /// Bytes counted by the length prefix so far.
    fn len(&self) -> usize {
        self.out.len() - 4
    }

    /// Writes the length prefix for a frame of `len` counted bytes.
    fn patch_len(&mut self, len: usize) {
        assert!(len <= MAX_FRAME as usize, "frame exceeds MAX_FRAME");
        self.out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    }

    pub(crate) fn finish(mut self) -> Vec<u8> {
        self.patch_len(self.len());
        self.out
    }

    /// Finishes into a [`WireFrame`] whose payload tail is the given
    /// zero-copy `Bytes` — the length prefix counts the payload but
    /// the bytes are never appended to the header buffer, so bulk
    /// data rides to the socket via `writev` without a memcpy.
    pub(crate) fn finish_parts(mut self, payload: Bytes) -> WireFrame {
        self.patch_len(self.len() + payload.len());
        WireFrame {
            header: self.out,
            payload: Some(payload),
        }
    }
}

/// The opcode of a worker-protocol request.
fn request_opcode(req: &Request) -> u8 {
    match req {
        Request::Put { .. } => OP_PUT,
        Request::Get { .. } => OP_GET,
        Request::GetParity { .. } => OP_GET_PARITY,
        Request::GetRange { .. } => OP_GET_RANGE,
        Request::Rename { .. } => OP_RENAME,
        Request::Delete { .. } => OP_DELETE,
        Request::Stats => OP_STATS,
        Request::Ping => OP_PING,
        Request::Shutdown => OP_SHUTDOWN,
        Request::SetEpoch(_) => OP_SET_EPOCH,
        Request::SetMasterEpoch(_) => OP_SET_MASTER_EPOCH,
        Request::Stamped { .. } => OP_STAMPED,
    }
}

/// Writes `req`'s body after the header in `b`, all but a `Put`'s
/// payload, which is returned to go last: the zero-copy `rest()` decode
/// needs it there. A stamp is flat: its four fields, then the inner
/// request's opcode and body.
fn request_body(b: FrameBuilder, req: &Request) -> (FrameBuilder, Option<&Bytes>) {
    let b = match req {
        Request::Put { key, data, sum } => return (b.key(*key).u64(*sum), Some(data)),
        Request::Get { key } | Request::GetParity { key } | Request::Delete { key } => b.key(*key),
        Request::GetRange { key, offset, len } => b.key(*key).u64(*offset).u64(*len),
        Request::Rename { from, to } => b.key(*from).key(*to),
        Request::Stats | Request::Ping | Request::Shutdown => b,
        Request::SetEpoch(e) | Request::SetMasterEpoch(e) => b.u64(*e),
        Request::Stamped { stamp, inner } => {
            let class = match stamp.class {
                TrafficClass::Foreground => CLASS_FOREGROUND,
                TrafficClass::Background => CLASS_BACKGROUND,
            };
            let b = b.u64(stamp.epoch).u64(stamp.master).u64(stamp.expect).u8(class);
            return request_body(b.u8(request_opcode(inner)), inner);
        }
    };
    (b, None)
}

/// `req`'s frame up to its payload tail, and the tail.
fn request_head(req: &Request, req_id: u64) -> (FrameBuilder, Option<&Bytes>) {
    request_body(FrameBuilder::new(request_opcode(req), req_id), req)
}

/// Encodes a request as a [`WireFrame`] for the vectored write path:
/// every `Put` payload, stamped or not, becomes a zero-copy `Bytes`
/// tail; every other request is contiguous (their bodies are a few
/// fixed fields, not bulk data).
///
/// # Panics
///
/// If the frame would exceed [`MAX_FRAME`]; [`try_encode_request_parts`]
/// refuses such a request instead.
pub fn encode_request_parts(req: &Request, req_id: u64) -> WireFrame {
    match try_encode_request_parts(req, req_id) {
        Ok(frame) => frame,
        Err(e) => panic!("{e}"),
    }
}

/// [`encode_request_parts`] for a caller that must not panic.
///
/// # Errors
///
/// [`StoreError::Codec`] for a request whose frame would exceed
/// [`MAX_FRAME`] (a `Put` of a partition too large for one frame).
pub fn try_encode_request_parts(req: &Request, req_id: u64) -> Result<WireFrame, StoreError> {
    let (head, tail) = request_head(req, req_id);
    let len = head.len() + tail.map_or(0, Bytes::len);
    if len > MAX_FRAME as usize {
        return Err(codec(format!(
            "a {len}-byte request frame exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    Ok(match tail {
        Some(data) => head.finish_parts(data.clone()),
        None => WireFrame::contiguous(head.finish()),
    })
}

/// Encodes a reply as a [`WireFrame`]: `Data` payloads become
/// zero-copy `Bytes` tails, everything else is contiguous.
pub fn encode_reply_parts(reply: &Reply, req_id: u64) -> WireFrame {
    match reply {
        Reply::Data(d) => FrameBuilder::new(OP_R_DATA, req_id).finish_parts(d.clone()),
        _ => WireFrame::contiguous(encode_reply(reply, req_id)),
    }
}

/// Encodes one worker-protocol request into a wire frame.
pub fn encode_request(req: &Request, req_id: u64) -> Vec<u8> {
    match request_head(req, req_id) {
        (head, Some(data)) => head.bytes(data).finish(),
        (head, None) => head.finish(),
    }
}

/// Decodes a worker-protocol request frame. `Put` payloads are zero-copy
/// views of the frame buffer.
///
/// # Errors
///
/// [`StoreError::Codec`] on unknown opcodes, truncated bodies or
/// trailing garbage, and on a stamp whose class byte is unknown, whose
/// inner request is a control request or another stamp, or whose
/// checksum fence sits on anything but a `Get`.
pub fn decode_request(frame: &Frame) -> Result<Request, StoreError> {
    let mut c = frame.body_cursor();
    let req = decode_request_body(frame.opcode, &mut c)?;
    c.finish()?;
    Ok(req)
}

/// Decodes the body of a request with opcode `op` at the cursor.
fn decode_request_body(op: u8, c: &mut Cursor) -> Result<Request, StoreError> {
    Ok(match op {
        OP_PUT => {
            let key = c.key()?;
            let sum = c.u64()?;
            let data = c.rest();
            Request::Put { key, data, sum }
        }
        OP_GET => Request::Get { key: c.key()? },
        OP_GET_PARITY => Request::GetParity { key: c.key()? },
        OP_GET_RANGE => Request::GetRange {
            key: c.key()?,
            offset: c.u64()?,
            len: c.u64()?,
        },
        OP_RENAME => Request::Rename {
            from: c.key()?,
            to: c.key()?,
        },
        OP_DELETE => Request::Delete { key: c.key()? },
        OP_STATS => Request::Stats,
        OP_PING => Request::Ping,
        OP_SHUTDOWN => Request::Shutdown,
        OP_SET_EPOCH => Request::SetEpoch(c.u64()?),
        OP_SET_MASTER_EPOCH => Request::SetMasterEpoch(c.u64()?),
        OP_STAMPED => {
            let epoch = c.u64()?;
            let master = c.u64()?;
            let expect = c.u64()?;
            let class = match c.u8()? {
                CLASS_FOREGROUND => TrafficClass::Foreground,
                CLASS_BACKGROUND => TrafficClass::Background,
                b => return Err(codec(format!("unknown traffic class {b}"))),
            };
            // One stamp per request, which also bounds decode recursion
            // at one level.
            let inner_op = c.u8()?;
            if inner_op == OP_STAMPED {
                return Err(codec("stamp inside a stamp"));
            }
            let inner = decode_request_body(inner_op, c)?;
            // The worker serves control requests before it reads stamps,
            // so a stamped one has no meaning.
            if inner.is_control() {
                return Err(codec("control request inside a stamp"));
            }
            // Only a read has a recorded sum to be fenced by.
            if expect != 0 && !matches!(inner, Request::Get { .. }) {
                return Err(codec("a checksum fence on a request that is not a Get"));
            }
            Request::Stamped {
                stamp: Stamp { epoch, master, expect, class },
                inner: Box::new(inner),
            }
        }
        op => return Err(codec(format!("unknown request opcode {op:#04x}"))),
    })
}

fn encode_err(b: FrameBuilder, e: &StoreError) -> FrameBuilder {
    match e {
        StoreError::NotFound(k) => b.u8(ERR_NOT_FOUND).key(*k),
        StoreError::WorkerDown(w) => b.u8(ERR_WORKER_DOWN).u64(*w as u64),
        StoreError::UnknownFile(id) => b.u8(ERR_UNKNOWN_FILE).u64(*id),
        StoreError::AlreadyExists(id) => b.u8(ERR_ALREADY_EXISTS).u64(*id),
        StoreError::Timeout(w) => b.u8(ERR_TIMEOUT).u64(*w as u64),
        StoreError::Io(w) => b.u8(ERR_IO).u64(*w as u64),
        StoreError::Codec(msg) => b.u8(ERR_CODEC).string(msg),
        StoreError::StaleEpoch(w) => b.u8(ERR_STALE_EPOCH).u64(*w as u64),
        StoreError::Degraded(id) => b.u8(ERR_DEGRADED).u64(*id),
        StoreError::Corrupt(k) => b.u8(ERR_CORRUPT).key(*k),
        StoreError::StalePlacement(k) => b.u8(ERR_STALE_PLACEMENT).key(*k),
    }
}

impl Cursor<'_> {
    /// Decodes a wire-encoded [`StoreError`] at the cursor.
    pub(crate) fn store_error(&mut self) -> Result<StoreError, StoreError> {
        decode_err(self)
    }
}

/// Encodes a [`StoreError`]-bearing reply frame under `opcode`; shared
/// with the master protocol so both error bodies stay byte-compatible.
pub(crate) fn encode_err_frame(opcode: u8, req_id: u64, e: &StoreError) -> Vec<u8> {
    encode_err(FrameBuilder::new(opcode, req_id), e).finish()
}

fn decode_err(c: &mut Cursor) -> Result<StoreError, StoreError> {
    Ok(match c.u8()? {
        ERR_NOT_FOUND => StoreError::NotFound(c.key()?),
        ERR_WORKER_DOWN => StoreError::WorkerDown(c.u64()? as usize),
        ERR_UNKNOWN_FILE => StoreError::UnknownFile(c.u64()?),
        ERR_ALREADY_EXISTS => StoreError::AlreadyExists(c.u64()?),
        ERR_TIMEOUT => StoreError::Timeout(c.u64()? as usize),
        ERR_IO => StoreError::Io(c.u64()? as usize),
        ERR_CODEC => StoreError::Codec(c.string()?),
        ERR_STALE_EPOCH => StoreError::StaleEpoch(c.u64()? as usize),
        ERR_DEGRADED => StoreError::Degraded(c.u64()?),
        ERR_CORRUPT => StoreError::Corrupt(c.key()?),
        ERR_STALE_PLACEMENT => StoreError::StalePlacement(c.key()?),
        k => return Err(codec(format!("unknown error kind {k}"))),
    })
}

/// Encodes one worker-protocol reply into a wire frame.
pub fn encode_reply(reply: &Reply, req_id: u64) -> Vec<u8> {
    match reply {
        Reply::Done => FrameBuilder::new(OP_R_DONE, req_id).finish(),
        Reply::Data(d) => FrameBuilder::new(OP_R_DATA, req_id).bytes(d).finish(),
        Reply::Flag(f) => FrameBuilder::new(OP_R_FLAG, req_id).u8(*f as u8).finish(),
        Reply::Stats(s) => FrameBuilder::new(OP_R_STATS, req_id)
            .u64(s.bytes_served)
            .u64(s.bytes_stored)
            .u64(s.gets)
            .u64(s.puts)
            .u64(s.resident_parts as u64)
            .u64(s.bytes_background)
            .u64(s.evictions)
            .u64(s.spilled_bytes)
            .u64(s.reloaded_bytes)
            .u64(s.resident_bytes)
            .u64(s.corruptions_detected)
            .u64(s.parity_bytes)
            .u64(s.decode_reconstructions)
            .finish(),
        Reply::Pong { worker, epoch } => FrameBuilder::new(OP_R_PONG, req_id)
            .u64(*worker as u64)
            .u64(*epoch)
            .finish(),
        Reply::Err(e) => encode_err_frame(OP_R_ERR, req_id, e),
    }
}

/// Decodes a worker-protocol reply frame. `Data` payloads are zero-copy
/// views of the frame buffer.
///
/// # Errors
///
/// [`StoreError::Codec`] on unknown opcodes, truncated bodies or
/// trailing garbage.
pub fn decode_reply(frame: &Frame) -> Result<Reply, StoreError> {
    let mut c = frame.body_cursor();
    let reply = match frame.opcode {
        OP_R_DONE => Reply::Done,
        OP_R_DATA => Reply::Data(c.rest()),
        OP_R_FLAG => Reply::Flag(c.u8()? != 0),
        OP_R_STATS => Reply::Stats(WorkerStats {
            bytes_served: c.u64()?,
            bytes_stored: c.u64()?,
            gets: c.u64()?,
            puts: c.u64()?,
            resident_parts: c.u64()? as usize,
            bytes_background: c.u64()?,
            evictions: c.u64()?,
            spilled_bytes: c.u64()?,
            reloaded_bytes: c.u64()?,
            resident_bytes: c.u64()?,
            corruptions_detected: c.u64()?,
            parity_bytes: c.u64()?,
            decode_reconstructions: c.u64()?,
        }),
        OP_R_PONG => Reply::Pong {
            worker: c.u64()? as usize,
            epoch: c.u64()?,
        },
        OP_R_ERR => Reply::Err(decode_err(&mut c)?),
        op => return Err(codec(format!("unknown reply opcode {op:#04x}"))),
    };
    c.finish()?;
    Ok(reply)
}

/// Reads one frame (the bytes after the length prefix) from `r`.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary — the peer closed
/// the connection between messages. EOF mid-frame is an error: the
/// stream died with a message in flight.
///
/// # Errors
///
/// I/O errors from the underlying stream; `InvalidData` when the length
/// prefix is shorter than a header or exceeds [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Bytes>> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read so clean EOF before any byte is Ok(None),
    // not an error.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len < HEADER_LEN as u32 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid frame length {len}"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(Some(Bytes::from(buf)))
}

/// Writes one encoded frame (as produced by the `encode_*` functions)
/// to `w` and flushes.
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let wire = encode_request(&req, 77);
        let frame = Frame::parse(Bytes::from(wire[4..].to_vec())).unwrap();
        assert_eq!(frame.req_id, 77);
        assert_eq!(decode_request(&frame).unwrap(), req);
    }

    fn roundtrip_reply(reply: Reply) {
        let wire = encode_reply(&reply, u64::MAX);
        let frame = Frame::parse(Bytes::from(wire[4..].to_vec())).unwrap();
        assert_eq!(frame.req_id, u64::MAX);
        assert_eq!(decode_reply(&frame).unwrap(), reply);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Put {
            key: PartKey::new(9, 3),
            data: Bytes::from(vec![1, 2, 3]),
            sum: 0,
        });
        roundtrip_req(Request::Put {
            key: PartKey::parity(9, 1),
            data: Bytes::from(vec![1, 2, 3]),
            sum: u64::MAX,
        });
        roundtrip_req(Request::Get {
            key: PartKey::new(0, u32::MAX),
        });
        roundtrip_req(Request::GetParity {
            key: PartKey::parity(7, 0),
        });
        roundtrip_req(Request::GetRange {
            key: PartKey::new(5, 1).staged(),
            offset: 1 << 40,
            len: 0,
        });
        roundtrip_req(Request::Rename {
            from: PartKey::new(1, 2).staged(),
            to: PartKey::new(1, 2),
        });
        roundtrip_req(Request::Delete {
            key: PartKey::new(u64::MAX, 0),
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::SetEpoch(0));
        roundtrip_req(Request::SetEpoch(u64::MAX));
        roundtrip_req(Request::SetMasterEpoch(0));
        roundtrip_req(Request::SetMasterEpoch(u64::MAX));
        let stamped = |epoch, master, class, inner| Request::Stamped {
            stamp: Stamp { epoch, master, class, ..Stamp::default() },
            inner: Box::new(inner),
        };
        let put = Request::Put {
            key: PartKey::new(9, 0),
            data: Bytes::from(vec![5, 6, 7]),
            sum: 42,
        };
        let get = Request::Get {
            key: PartKey::new(4, 2),
        };
        roundtrip_req(stamped(7, 0, TrafficClass::Foreground, get.clone()));
        roundtrip_req(stamped(u64::MAX, u64::MAX, TrafficClass::Foreground, put.clone()));
        roundtrip_req(stamped(0, 3, TrafficClass::Foreground, Request::Delete {
            key: PartKey::new(1, 1),
        }));
        roundtrip_req(stamped(0, 0, TrafficClass::Background, get));
        roundtrip_req(stamped(0, 0, TrafficClass::Background, put.clone()));
        roundtrip_req(stamped(3, 5, TrafficClass::Background, put));
        let fenced = Stamp { epoch: 2, master: 0, expect: u64::MAX, class: TrafficClass::Foreground };
        roundtrip_req(Request::Get { key: PartKey::new(4, 2) }.stamped(fenced));
    }

    /// A stamped `Put` on the wire, byte for byte (DESIGN.md §4.10).
    #[test]
    fn a_stamped_put_frame_is_pinned() {
        let req = Request::Stamped {
            stamp: Stamp {
                epoch: 2,
                master: 1,
                expect: 0,
                class: TrafficClass::Background,
            },
            inner: Box::new(Request::Put {
                key: PartKey::new(7, 1),
                data: Bytes::copy_from_slice(b"hi"),
                sum: 0xAB,
            }),
        };
        #[rustfmt::skip]
        let want: Vec<u8> = vec![
            0x3A, 0, 0, 0,              // len = 58
            4, 0x09,                    // version 4, stamped
            5, 0, 0, 0, 0, 0, 0, 0,     // req_id
            2, 0, 0, 0, 0, 0, 0, 0,     // worker epoch
            1, 0, 0, 0, 0, 0, 0, 0,     // master epoch
            0, 0, 0, 0, 0, 0, 0, 0,     // expect: no checksum fence
            1,                          // class: background
            0x01,                       // inner opcode: Put
            7, 0, 0, 0, 0, 0, 0, 0,     // key.file
            1, 0, 0, 0,                 // key.part
            0xAB, 0, 0, 0, 0, 0, 0, 0,  // sum
            b'h', b'i',                 // payload
        ];
        assert_eq!(encode_request(&req, 5), want);
        assert_eq!(encode_request_parts(&req, 5).to_contiguous(), want);
        roundtrip_req(req);
    }

    /// A checksum fence is a `Get`'s alone: the same stamp on a `Put`
    /// encodes, but never decodes.
    #[test]
    fn a_fence_on_a_put_is_refused() {
        let key = PartKey::new(7, 1);
        let fence = Stamp { expect: 0x5EED, ..Stamp::default() };
        roundtrip_req(Request::Get { key }.stamped(fence));
        let put = Request::Put { key, data: Bytes::copy_from_slice(b"hi"), sum: 0x5EED };
        let wire = encode_request(&put.stamped(fence), 5);
        let frame = Frame::parse(Bytes::from(wire[4..].to_vec())).unwrap();
        let want = "a checksum fence on a request that is not a Get".to_string();
        assert_eq!(decode_request(&frame), Err(StoreError::Codec(want)));
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_reply(Reply::Done);
        roundtrip_reply(Reply::Data(Bytes::from(vec![0u8; 0])));
        roundtrip_reply(Reply::Data(Bytes::from(vec![9u8; 1000])));
        roundtrip_reply(Reply::Flag(true));
        roundtrip_reply(Reply::Flag(false));
        roundtrip_reply(Reply::Pong {
            worker: 31,
            epoch: 0,
        });
        roundtrip_reply(Reply::Pong {
            worker: 0,
            epoch: u64::MAX,
        });
        roundtrip_reply(Reply::Stats(WorkerStats {
            bytes_served: 1,
            bytes_stored: 2,
            gets: 3,
            puts: 4,
            resident_parts: 5,
            bytes_background: 6,
            evictions: 7,
            spilled_bytes: 8,
            reloaded_bytes: 9,
            resident_bytes: 10,
            corruptions_detected: 11,
            parity_bytes: 12,
            decode_reconstructions: 13,
        }));
        roundtrip_reply(Reply::Err(StoreError::NotFound(PartKey::new(3, 1))));
        roundtrip_reply(Reply::Err(StoreError::Corrupt(PartKey::parity(3, 1))));
        roundtrip_reply(Reply::Err(StoreError::WorkerDown(2)));
        roundtrip_reply(Reply::Err(StoreError::UnknownFile(7)));
        roundtrip_reply(Reply::Err(StoreError::AlreadyExists(7)));
        roundtrip_reply(Reply::Err(StoreError::Timeout(0)));
        roundtrip_reply(Reply::Err(StoreError::Io(usize::MAX)));
        roundtrip_reply(Reply::Err(StoreError::Codec("bad".into())));
        roundtrip_reply(Reply::Err(StoreError::StaleEpoch(3)));
        roundtrip_reply(Reply::Err(StoreError::Degraded(u64::MAX)));
        roundtrip_reply(Reply::Err(StoreError::StalePlacement(PartKey::new(3, 2))));
    }

    #[test]
    fn put_decode_is_zero_copy() {
        let data = Bytes::from(vec![42u8; 4096]);
        let wire = encode_request(
            &Request::Put {
                key: PartKey::new(1, 0),
                data: data.clone(),
                sum: 99,
            },
            1,
        );
        let buf = Bytes::from(wire[4..].to_vec());
        let frame = Frame::parse(buf.clone()).unwrap();
        let Request::Put { data: got, .. } = decode_request(&frame).unwrap() else {
            panic!("wrong variant");
        };
        // Same backing allocation: the payload view starts inside the
        // frame buffer.
        let buf_range = buf.as_ref().as_ptr() as usize..buf.as_ref().as_ptr() as usize + buf.len();
        assert!(buf_range.contains(&(got.as_ref().as_ptr() as usize)));
        assert_eq!(got, data);
    }

    #[test]
    fn parts_encoders_match_contiguous_encoders_byte_for_byte() {
        let key = PartKey::new(11, 4);
        let data = Bytes::from(vec![0xEE; 9000]);
        let requests = [
            Request::Put {
                key,
                data: data.clone(),
                sum: 0xDEAD_BEEF,
            },
            Request::Get { key },
            Request::GetParity {
                key: PartKey::parity(11, 0),
            },
            Request::Stamped {
                stamp: Stamp {
                    epoch: 42,
                    master: 6,
                    expect: 0,
                    class: TrafficClass::Background,
                },
                inner: Box::new(Request::Put {
                    key,
                    data: data.clone(),
                    sum: 0xFEED_FACE,
                }),
            },
            Request::Stamped {
                stamp: Stamp {
                    epoch: 42,
                    master: 0,
                    expect: 0,
                    class: TrafficClass::Foreground,
                },
                inner: Box::new(Request::Delete { key }),
            },
            Request::Get { key }.stamped(Stamp { expect: 0xC0FFEE, ..Stamp::default() }),
            Request::Shutdown,
        ];
        for req in &requests {
            let parts = encode_request_parts(req, 123);
            assert_eq!(parts.to_contiguous(), encode_request(req, 123), "{req:?}");
        }
        let replies = [
            Reply::Data(data.clone()),
            Reply::Data(Bytes::from(Vec::new())),
            Reply::Done,
            Reply::Err(StoreError::Timeout(3)),
        ];
        for reply in &replies {
            let parts = encode_reply_parts(reply, 9);
            assert_eq!(parts.to_contiguous(), encode_reply(reply, 9), "{reply:?}");
        }
        // Bulk payloads really are zero-copy: same backing allocation.
        let parts = encode_reply_parts(&Reply::Data(data.clone()), 9);
        assert_eq!(
            parts.payload.as_ref().unwrap().as_ref().as_ptr(),
            data.as_ref().as_ptr()
        );
    }

    /// Every `Put`, stamped or not, leaves with the caller's `Bytes` as
    /// its payload tail: the same allocation, never a copy.
    #[test]
    fn a_stamped_put_leaves_zero_copy() {
        let data = Bytes::from(vec![0x5A; 4096]);
        let put = Request::Put {
            key: PartKey::new(3, 1),
            data: data.clone(),
            sum: 9,
        };
        let classes = [TrafficClass::Foreground, TrafficClass::Background];
        for class in classes {
            for (epoch, master) in [(0, 0), (4, 0), (0, 2), (4, 2)] {
                let req = put.clone().stamped(Stamp { epoch, master, class, expect: 0 });
                let parts = encode_request_parts(&req, 1);
                let tail = parts.payload.as_ref().expect("a payload tail");
                assert_eq!(tail.as_ref().as_ptr(), data.as_ref().as_ptr(), "{req:?}");
                assert_eq!(tail.len(), data.len());
            }
        }
    }

    #[test]
    fn another_wire_version_is_refused_by_name() {
        for version in [3, 9] {
            let mut wire = encode_request(&Request::Ping, 0);
            wire[4] = version;
            let err = Frame::parse(Bytes::from(wire[4..].to_vec())).unwrap_err();
            let want = format!("unsupported wire version {version} (want {WIRE_VERSION})");
            assert_eq!(err, StoreError::Codec(want));
        }
        assert_eq!(WIRE_VERSION, 4);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut wire = encode_request(&Request::Ping, 0);
        wire.push(0xFF);
        let frame = Frame::parse(Bytes::from(wire[4..].to_vec())).unwrap();
        assert!(matches!(
            decode_request(&frame),
            Err(StoreError::Codec(_))
        ));
    }

    #[test]
    fn read_frame_rejects_oversized_length() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn read_frame_clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &*empty).unwrap().is_none());
    }

    #[test]
    fn read_frame_mid_frame_eof_is_error() {
        let wire = encode_request(&Request::Get { key: PartKey::new(1, 1) }, 3);
        let cut = &wire[..wire.len() - 2];
        let err = read_frame(&mut &*cut).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
