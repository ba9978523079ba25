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
use spcache_store::rpc::{PartKey, Reply, Request, StoreError, WorkerStats};
use std::io::{self, Read, Write};

/// Protocol version stamped into every frame. Peers reject frames with
/// any other value, so incompatible protocol revisions fail loudly at
/// the first message instead of corrupting state.
///
/// v2: `Put` carries a per-partition checksum, `GetParity` and the
/// `Corrupt` error kind exist, and the stats frame grew the integrity
/// counters (§4.15).
pub const WIRE_VERSION: u8 = 2;

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
pub(crate) const OP_FENCED: u8 = 0x09;
pub(crate) const OP_SET_EPOCH: u8 = 0x0A;
pub(crate) const OP_BACKGROUND: u8 = 0x0B;
pub(crate) const OP_SET_MASTER_EPOCH: u8 = 0x0C;
pub(crate) const OP_GET_PARITY: u8 = 0x0D;
pub(crate) const OP_R_DONE: u8 = 0x41;
pub(crate) const OP_R_DATA: u8 = 0x42;
pub(crate) const OP_R_FLAG: u8 = 0x43;
pub(crate) const OP_R_STATS: u8 = 0x44;
pub(crate) const OP_R_PONG: u8 = 0x45;
pub(crate) const OP_R_ERR: u8 = 0x46;

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

    pub(crate) fn finish(mut self) -> Vec<u8> {
        let len = (self.out.len() - 4) as u32;
        assert!(len <= MAX_FRAME, "frame exceeds MAX_FRAME");
        self.out[..4].copy_from_slice(&len.to_le_bytes());
        self.out
    }

    /// Finishes into a [`WireFrame`] whose payload tail is the given
    /// zero-copy `Bytes` — the length prefix counts the payload but
    /// the bytes are never appended to the header buffer, so bulk
    /// data rides to the socket via `writev` without a memcpy.
    pub(crate) fn finish_parts(mut self, payload: Bytes) -> WireFrame {
        let len = (self.out.len() - 4 + payload.len()) as u32;
        assert!(len <= MAX_FRAME, "frame exceeds MAX_FRAME");
        self.out[..4].copy_from_slice(&len.to_le_bytes());
        WireFrame {
            header: self.out,
            payload: Some(payload),
        }
    }
}

/// Encodes a request as a [`WireFrame`] for the vectored write path:
/// `Put` payloads (plain or fenced) become zero-copy `Bytes` tails;
/// every other request is contiguous (their bodies are a few fixed
/// fields, not bulk data).
pub fn encode_request_parts(req: &Request, req_id: u64) -> WireFrame {
    match req {
        Request::Put { key, data, sum } => FrameBuilder::new(OP_PUT, req_id)
            .key(*key)
            .u64(*sum)
            .finish_parts(data.clone()),
        Request::Fenced { epoch, master, inner } => match &**inner {
            // The fenced body embeds the inner frame minus its length
            // prefix; for a fenced Put the inner header is appended to
            // the outer one and the payload still rides zero-copy.
            Request::Put { key, data, sum } => FrameBuilder::new(OP_FENCED, req_id)
                .u64(*epoch)
                .u64(*master)
                .u8(WIRE_VERSION)
                .u8(OP_PUT)
                .u64(req_id)
                .key(*key)
                .u64(*sum)
                .finish_parts(data.clone()),
            _ => WireFrame::contiguous(encode_request(req, req_id)),
        },
        _ => WireFrame::contiguous(encode_request(req, req_id)),
    }
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
    match req {
        // The checksum rides between the key and the payload tail (the
        // payload must stay last for the zero-copy `rest()` decode).
        Request::Put { key, data, sum } => FrameBuilder::new(OP_PUT, req_id)
            .key(*key)
            .u64(*sum)
            .bytes(data)
            .finish(),
        Request::Get { key } => FrameBuilder::new(OP_GET, req_id).key(*key).finish(),
        Request::GetParity { key } => {
            FrameBuilder::new(OP_GET_PARITY, req_id).key(*key).finish()
        }
        Request::GetRange { key, offset, len } => FrameBuilder::new(OP_GET_RANGE, req_id)
            .key(*key)
            .u64(*offset)
            .u64(*len)
            .finish(),
        Request::Rename { from, to } => FrameBuilder::new(OP_RENAME, req_id)
            .key(*from)
            .key(*to)
            .finish(),
        Request::Delete { key } => FrameBuilder::new(OP_DELETE, req_id).key(*key).finish(),
        Request::Stats => FrameBuilder::new(OP_STATS, req_id).finish(),
        Request::Ping => FrameBuilder::new(OP_PING, req_id).finish(),
        Request::Shutdown => FrameBuilder::new(OP_SHUTDOWN, req_id).finish(),
        Request::SetEpoch(e) => FrameBuilder::new(OP_SET_EPOCH, req_id).u64(*e).finish(),
        Request::SetMasterEpoch(m) => {
            FrameBuilder::new(OP_SET_MASTER_EPOCH, req_id).u64(*m).finish()
        }
        // The fenced body embeds the inner request as a headered frame
        // minus its length prefix (version | opcode | req_id | body), so
        // the inner message reuses the whole codec unchanged. The two
        // stamps (worker epoch, master epoch) precede it.
        Request::Fenced { epoch, master, inner } => FrameBuilder::new(OP_FENCED, req_id)
            .u64(*epoch)
            .u64(*master)
            .bytes(&encode_request(inner, req_id)[4..])
            .finish(),
        // Background mirrors the fenced embedding (sans epoch): the body
        // is the inner frame minus its length prefix.
        Request::Background { inner } => FrameBuilder::new(OP_BACKGROUND, req_id)
            .bytes(&encode_request(inner, req_id)[4..])
            .finish(),
    }
}

/// Decodes a worker-protocol request frame. `Put` payloads are zero-copy
/// views of the frame buffer.
///
/// # Errors
///
/// [`StoreError::Codec`] on unknown opcodes, truncated bodies or
/// trailing garbage.
pub fn decode_request(frame: &Frame) -> Result<Request, StoreError> {
    let mut c = frame.body_cursor();
    let req = match frame.opcode {
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
        OP_FENCED => {
            let epoch = c.u64()?;
            let master = c.u64()?;
            let inner = Frame::parse(c.rest())?;
            if inner.opcode == OP_FENCED {
                // One fence per request; unbounded nesting would let a
                // hostile frame drive decode recursion arbitrarily deep.
                return Err(codec("nested fenced request"));
            }
            Request::Fenced {
                epoch,
                master,
                inner: decode_stamped(frame, &inner)?,
            }
        }
        OP_BACKGROUND => {
            let inner = Frame::parse(c.rest())?;
            // Canonical nesting is Fenced { Background { data } }: a
            // fence inside a background stamp (or a double stamp) is a
            // protocol violation, which also bounds decode recursion.
            if inner.opcode == OP_BACKGROUND || inner.opcode == OP_FENCED {
                return Err(codec("invalid nesting inside background request"));
            }
            Request::Background {
                inner: decode_stamped(frame, &inner)?,
            }
        }
        op => return Err(codec(format!("unknown request opcode {op:#04x}"))),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes the request embedded in a fence or background stamp, which
/// must be a data request under the outer frame's id: the worker
/// serves control requests before it looks at stamps, so a stamped one
/// has no meaning.
fn decode_stamped(outer: &Frame, inner: &Frame) -> Result<Box<Request>, StoreError> {
    if inner.req_id != outer.req_id {
        return Err(codec("stamped inner req_id mismatch"));
    }
    let req = decode_request(inner)?;
    if req.is_control() {
        return Err(codec("control request inside a stamp"));
    }
    Ok(Box::new(req))
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
        roundtrip_req(Request::Fenced {
            epoch: 7,
            master: 0,
            inner: Box::new(Request::Get {
                key: PartKey::new(4, 2),
            }),
        });
        roundtrip_req(Request::Fenced {
            epoch: u64::MAX,
            master: u64::MAX,
            inner: Box::new(Request::Put {
                key: PartKey::new(9, 0),
                data: Bytes::from(vec![5, 6, 7]),
                sum: 42,
            }),
        });
        roundtrip_req(Request::Fenced {
            epoch: 0,
            master: 3,
            inner: Box::new(Request::Delete {
                key: PartKey::new(1, 1),
            }),
        });
        roundtrip_req(Request::Background {
            inner: Box::new(Request::Get {
                key: PartKey::new(4, 2),
            }),
        });
        roundtrip_req(Request::Background {
            inner: Box::new(Request::Put {
                key: PartKey::new(9, 0),
                data: Bytes::from(vec![5, 6, 7]),
                sum: 7,
            }),
        });
        // The canonical full nesting: fence outside, class inside.
        roundtrip_req(
            Request::Put {
                key: PartKey::new(9, 0),
                data: Bytes::from(vec![8, 9]),
                sum: 1,
            }
            .background()
            .fenced(3),
        );
    }

    #[test]
    fn invalid_background_nesting_rejected() {
        let fenced = |inner| Request::Fenced {
            epoch: 2,
            master: 0,
            inner: Box::new(inner),
        };
        let background = |inner| Request::Background {
            inner: Box::new(inner),
        };
        let get = Request::Get {
            key: PartKey::new(1, 0),
        };
        for bad in [
            // Background { Background { .. } } and Background { Fenced
            // { .. } } violate the canonical nesting.
            background(background(get.clone())),
            background(fenced(get)),
            // A stamp holds a data request, never a control one.
            fenced(Request::Ping),
            background(Request::Stats),
            fenced(background(Request::Shutdown)),
        ] {
            let wire = encode_request(&bad, 5);
            let frame = Frame::parse(Bytes::from(wire[4..].to_vec())).unwrap();
            assert!(
                matches!(decode_request(&frame), Err(StoreError::Codec(_))),
                "{bad:?} decoded"
            );
        }
    }

    #[test]
    fn nested_fenced_request_rejected() {
        let wire = encode_request(
            &Request::Fenced {
                epoch: 1,
                master: 0,
                inner: Box::new(Request::Fenced {
                    epoch: 2,
                    master: 0,
                    inner: Box::new(Request::Get {
                        key: PartKey::new(1, 0),
                    }),
                }),
            },
            5,
        );
        let frame = Frame::parse(Bytes::from(wire[4..].to_vec())).unwrap();
        assert!(matches!(decode_request(&frame), Err(StoreError::Codec(_))));
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
            Request::Fenced {
                epoch: 42,
                master: 6,
                inner: Box::new(Request::Put {
                    key,
                    data: data.clone(),
                    sum: 0xFEED_FACE,
                }),
            },
            Request::Fenced {
                epoch: 42,
                master: 0,
                inner: Box::new(Request::Delete { key }),
            },
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

    #[test]
    fn wrong_version_rejected() {
        let mut wire = encode_request(&Request::Ping, 0);
        wire[4] = 9;
        let err = Frame::parse(Bytes::from(wire[4..].to_vec())).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)));
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
