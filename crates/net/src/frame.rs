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
//! This module is the framing only. The opcode and the body are the
//! message's own row in its plane's table — `spcache_store::rpc`'s
//! `Request`/`Reply` here, `spcache_store::meta`'s for the master
//! protocol — written and read by the store's one field codec
//! (`spcache_store::codec`). A `Put`'s payload and a `Data` reply's are
//! the body's [`Tail`](spcache_store::codec::Tail): they leave as a
//! zero-copy [`WireFrame`] payload ([`encode_request_parts`],
//! [`encode_reply_parts`]) and decode as [`Bytes::slice`] views of the
//! frame buffer — no per-payload allocation or memcpy. A stamped
//! request is one flat body, the stamp then the inner request, so a
//! stamped `Put`'s payload is the frame's tail exactly as a plain one's
//! is.
//!
//! Malformed input never panics and never over-reads: every decode path
//! returns [`StoreError::Codec`] (a *permanent* error — resending the
//! same bytes reproduces the violation).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::poll::WireFrame;
use bytes::Bytes;
use spcache_store::codec::{codec_error, Message, Reader, Writer};
use spcache_store::rpc::{Reply, Request, StoreError, DATA_REPLY};
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
            return Err(codec_error(format!("frame too short: {} bytes", buf.len())));
        }
        let mut r = Reader::new(&buf);
        let [version, opcode] = r.array()?;
        if version != WIRE_VERSION {
            return Err(codec_error(format!(
                "unsupported wire version {version} (want {WIRE_VERSION})"
            )));
        }
        let req_id = r.get::<u64>()?;
        Ok(Frame { opcode, req_id, buf })
    }

    /// Decodes the body as the `M` its opcode names; the whole body,
    /// trailing bytes refused.
    pub(crate) fn decode<M: Message>(&self) -> Result<M, StoreError> {
        let mut r = Reader::shared(&self.buf, HEADER_LEN);
        let msg = M::get_body(self.opcode, &mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

/// The `req_id` of a frame whose header (the [`HEADER_LEN`] bytes after
/// the length prefix) announces a worker `Data` reply of this wire
/// version — the one reply whose payload may land in place; `None` for
/// any other header.
pub fn data_reply_id(header: &[u8]) -> Option<u64> {
    let mut r = Reader::new(header);
    let [version, opcode] = r.array().ok()?;
    let req_id = r.get::<u64>().ok()?;
    (r.remaining() == 0 && version == WIRE_VERSION && opcode == DATA_REPLY).then_some(req_id)
}

/// `msg`'s frame under `req_id`, its tail (a `Put`'s or a `Data`
/// reply's payload) left apart as the zero-copy payload.
///
/// # Errors
///
/// [`StoreError::Codec`] for a frame that would exceed [`MAX_FRAME`].
pub(crate) fn encode<M: Message>(msg: &M, req_id: u64) -> Result<WireFrame, StoreError> {
    let mut w = Writer::with_capacity(32);
    w.put::<u32>(&0); // the length, patched below
    w.put::<u8>(&WIRE_VERSION);
    w.put::<u8>(&msg.code());
    w.put::<u64>(&req_id);
    msg.put_body(&mut w);
    let (mut header, payload) = w.into_parts();
    let len = header.len() - 4 + payload.as_ref().map_or(0, Bytes::len);
    let Some(n) = u32::try_from(len).ok().filter(|&n| n <= MAX_FRAME) else {
        return Err(codec_error(format!("a {len}-byte frame exceeds the {MAX_FRAME}-byte limit")));
    };
    header[..4].copy_from_slice(&n.to_le_bytes());
    Ok(WireFrame { header, payload })
}

/// A reply's frame. A reply too large for one frame is answered by the
/// error that says so, through `err`, so the peer learns why.
pub(crate) fn encode_answer<M: Message>(
    reply: &M,
    req_id: u64,
    err: fn(StoreError) -> M,
) -> WireFrame {
    match encode(reply, req_id) {
        Ok(frame) => frame,
        // An error's frame is a few dozen bytes: it always fits, and an
        // empty frame would only cost the peer its deadline.
        Err(e) => encode(&err(e), req_id).unwrap_or_else(|_| WireFrame::contiguous(Vec::new())),
    }
}

/// [`encode`] for the encoders whose public signatures cannot refuse.
///
/// # Panics
///
/// If the frame would exceed [`MAX_FRAME`].
// The panic is the documented contract of `encode_request_parts`,
// `encode_request` and `encode_meta_request`, whose infallible
// signatures callers outside the workspace compile against; the
// transports encode through `try_encode_request_parts` and `encode`,
// which refuse instead.
#[allow(clippy::panic)]
pub(crate) fn encode_or_panic<M: Message>(msg: &M, req_id: u64) -> WireFrame {
    match encode(msg, req_id) {
        Ok(frame) => frame,
        Err(e) => panic!("{e}"),
    }
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
    encode_or_panic(req, req_id)
}

/// [`encode_request_parts`] for a caller that must not panic.
///
/// # Errors
///
/// [`StoreError::Codec`] for a request whose frame would exceed
/// [`MAX_FRAME`] (a `Put` of a partition too large for one frame).
pub fn try_encode_request_parts(req: &Request, req_id: u64) -> Result<WireFrame, StoreError> {
    encode(req, req_id)
}

/// Encodes a reply as a [`WireFrame`]: `Data` payloads become
/// zero-copy `Bytes` tails, everything else is contiguous. A reply too
/// large for one frame leaves as the [`StoreError::Codec`] that says
/// so.
pub fn encode_reply_parts(reply: &Reply, req_id: u64) -> WireFrame {
    encode_answer(reply, req_id, Reply::Err)
}

/// Encodes one worker-protocol request into a wire frame.
///
/// # Panics
///
/// As [`encode_request_parts`].
pub fn encode_request(req: &Request, req_id: u64) -> Vec<u8> {
    encode_or_panic(req, req_id).to_contiguous()
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
    frame.decode()
}

/// Encodes one worker-protocol reply into a wire frame.
pub fn encode_reply(reply: &Reply, req_id: u64) -> Vec<u8> {
    encode_reply_parts(reply, req_id).to_contiguous()
}

/// Decodes a worker-protocol reply frame. `Data` payloads are zero-copy
/// views of the frame buffer.
///
/// # Errors
///
/// [`StoreError::Codec`] on unknown opcodes, truncated bodies or
/// trailing garbage.
pub fn decode_reply(frame: &Frame) -> Result<Reply, StoreError> {
    frame.decode()
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
    // Clean EOF before the first byte is `Ok(None)`; after it, the
    // length must be finished.
    let first = loop {
        match r.read(&mut len_buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => break read?,
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len_buf[first..])?;
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
    use spcache_store::rpc::{PartKey, Stamp, WorkerStats};
    use spcache_store::throttle::TrafficClass;

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
