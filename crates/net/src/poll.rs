//! Event-loop plumbing shared by the TCP client and servers: an
//! incremental frame decoder for non-blocking sockets, a vectored
//! write queue that batches many frames into one `writev` syscall, the
//! one connection table both event loops keep their sockets in, and the
//! server event loop itself.
//!
//! The decoder and the write queue are deliberately free of any socket
//! ownership or threading policy, which makes them testable against
//! plain in-memory readers/writers (the codec proptests drive
//! [`FrameReader`] with adversarial split points without a socket in
//! sight). The connection table, `Conns`, composes them around sockets
//! registered with a [`mio::Poll`]: it adopts a socket under the
//! caller's token, queues frames, flushes the connections touched since
//! its last pass (arming write interest only while a queue holds unsent
//! bytes) and tears connections down — the one copy of that bookkeeping.
//! The client loop in [`crate::tcp`] keeps its worker connections in one,
//! and so does every shard of [`serve`], the one server loop:
//! [`crate::server`] and [`crate::master_net`] each hand it a frame
//! handler and nothing else. The server's delayed completions wait on a
//! timer heap private to it, and so do the pieces of a paced frame: a
//! reply the emulated NIC sends over a span of time leaves in
//! [`READ_CHUNK`] pieces, each once the NIC has paid it off, so the
//! loopback copy of its bytes overlaps the emulated transfer instead of
//! following it.
//!
//! The raw-FFI `sys` module holds this crate's `unsafe`: `read(2)` into
//! a frame body's uninitialised memory (the one way a body is filled
//! from a socket), `writev(2)`, and the socket and allocator tuning.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::{AsFd, BorrowedFd};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use mio::{Events, Interest, Poll, Token, Waker};
use spcache_store::landing::Claim;

use crate::frame::{HEADER_LEN, MAX_FRAME};

/// Read granularity of [`FrameReader`] and the size of a [`ReadBuf`]:
/// one between-frames `read` syscall fills at most this many bytes.
pub const READ_CHUNK: usize = 64 * 1024;

/// One event loop's receive buffer: [`READ_CHUNK`] bytes, allocated and
/// zeroed once, that every [`FrameReader::pump_with`] on the loop's
/// thread reads into. It belongs to the loop, not to a connection — a
/// thousand idle sockets cost one buffer — and nothing a pump hands out
/// points into it, so the next read may overwrite it freely.
pub struct ReadBuf(Box<[u8]>);

impl ReadBuf {
    /// A zeroed buffer of [`READ_CHUNK`] bytes.
    pub fn new() -> Self {
        ReadBuf(vec![0u8; READ_CHUNK].into_boxed_slice())
    }
}

impl Default for ReadBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// Upper bound on iovecs handed to a single `writev` call. Linux
/// accepts up to `IOV_MAX` (1024); 64 keeps the stack array small
/// while still coalescing dozens of pipelined frames per syscall.
const MAX_IOV: usize = 64;

// ---------------------------------------------------------------------------
// FrameReader: incremental non-blocking frame decoder
// ---------------------------------------------------------------------------

/// What [`FrameReader::pump`] observed about the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpStatus {
    /// The socket would block (or the pump budget was exhausted); more
    /// frames may arrive later.
    Open,
    /// Clean EOF at a frame boundary — the peer closed between
    /// messages.
    Closed,
}

/// A byte stream a [`FrameReader`] drains. Between frames it is read
/// through the loop's [`ReadBuf`]; the body of a frame that outlasts a
/// read is filled by one routine, `read(2)` from [`fd`](Source::fd)
/// straight into the body's own uninitialised memory. A source without
/// a descriptor (an in-memory script) fills bodies through the
/// `ReadBuf` instead, one copy more.
pub trait Source: Read {
    /// The descriptor frame bodies are read from, if any.
    fn fd(&self) -> Option<BorrowedFd<'_>> {
        None
    }
}

impl Source for TcpStream {
    fn fd(&self) -> Option<BorrowedFd<'_>> {
        cfg!(unix).then(|| self.as_fd())
    }
}

/// Where a pump's completed frames go — and, for a client, which reply
/// payloads land in place instead of in a buffer of their own.
pub trait Inbound {
    /// A frame completed in a buffer of exactly its length (the bytes
    /// after the length prefix).
    fn frame(&mut self, body: Bytes);

    /// Offers a place for the `len`-byte payload of the frame whose
    /// header (the [`HEADER_LEN`] bytes after the length prefix) is
    /// `header`: a claim on exactly `len` bytes and a tag handed back
    /// with it to [`landed`](Inbound::landed), or `None` for a buffer of
    /// its own. The default lands nothing.
    fn offer(&mut self, header: &[u8], len: usize) -> Option<(u64, Claim)> {
        let _ = (header, len);
        None
    }

    /// A payload completed in the claim [`offer`](Inbound::offer) gave
    /// with `tag`; the frame's header was read and dropped.
    fn landed(&mut self, tag: u64, claim: Claim) {
        let _ = (tag, claim);
    }
}

impl Inbound for Vec<Bytes> {
    fn frame(&mut self, body: Bytes) {
        self.push(body);
    }
}

/// The body of a frame whose head is read and whose remaining bytes are
/// still arriving.
enum Body {
    /// An ordinary frame: header and payload in one buffer that ends at
    /// exactly `len` bytes; its unfilled rest is uninitialised capacity.
    Frame { buf: Vec<u8>, len: usize },
    /// A reply payload landing in place.
    Landing { tag: u64, claim: Claim },
}

impl Body {
    fn remaining(&self) -> usize {
        match self {
            Body::Frame { buf, len } => len - buf.len(),
            Body::Landing { claim, .. } => claim.remaining(),
        }
    }

    /// Appends the next bytes, from a read of the loop's buffer.
    fn put(&mut self, src: &[u8]) {
        match self {
            Body::Frame { buf, .. } => buf.extend_from_slice(src),
            Body::Landing { claim, .. } => claim.put(src),
        }
    }

    /// Reads the next bytes from `fd` straight into the unfilled rest.
    fn read_from(&mut self, fd: BorrowedFd<'_>) -> io::Result<usize> {
        match self {
            Body::Frame { buf, len } => sys::read_to_vec(fd, buf, *len),
            Body::Landing { claim, .. } => sys::read_to_claim(fd, claim),
        }
    }

    /// Hands the completed body on.
    fn finish(self, out: &mut impl Inbound) {
        match self {
            Body::Frame { buf, .. } => out.frame(Bytes::from(buf)),
            Body::Landing { tag, claim } => out.landed(tag, claim),
        }
    }
}

/// A frame's head: its length prefix and header — what the reader must
/// see before it decides where the frame's body goes.
const HEAD: usize = 4 + HEADER_LEN;

/// Incremental decoder for the length-prefixed wire framing, built for
/// non-blocking sockets: each [`pump`](FrameReader::pump) call drains
/// whatever the kernel has buffered and hands every completed frame (the
/// bytes *after* the length prefix, same contract as
/// [`crate::frame::read_frame`]) to the caller's [`Inbound`].
///
/// Copy discipline: every byte crosses from the kernel once. Once a
/// frame's head is in hand its body has its final place — a buffer of
/// the frame's length (a large one rounded up to whole pages, see
/// `body_capacity`), so whoever keeps it (a worker stores `Put` payloads
/// for as long as they are resident) keeps those bytes and next to
/// nothing else; or, for a reply payload the caller offers a
/// [`Claim`] for, the caller's own memory (a client read's output). What
/// the read that found the head held of the body is copied there out of
/// the loop's [`ReadBuf`]; the rest is read straight into it by `read(2)`
/// over uninitialised memory — never zeroed first. A head split across
/// reads (< `HEAD` bytes at a read's tail) is buffered until the rest
/// arrives.
#[derive(Default)]
pub struct FrameReader {
    /// The first bytes (fewer than [`HEAD`]) of a frame whose head a
    /// read cut.
    head: Vec<u8>,
    /// The body of a frame that outlasted the read that found its head.
    body: Option<Body>,
}

impl FrameReader {
    /// New decoder with no buffered state.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if a frame (or its head) is partially read — EOF now would
    /// be mid-message, not a clean close.
    pub fn mid_frame(&self) -> bool {
        !self.head.is_empty() || self.body.is_some()
    }

    /// [`pump_with`](FrameReader::pump_with) through a buffer made for
    /// this one call — for a reader with no event loop around it.
    ///
    /// # Errors
    ///
    /// See [`pump_with`](FrameReader::pump_with).
    pub fn pump(
        &mut self,
        r: &mut impl Source,
        out: &mut impl Inbound,
    ) -> io::Result<PumpStatus> {
        self.pump_with(&mut ReadBuf::new(), r, out)
    }

    /// Reads from `r` through the calling loop's `buf` until it would
    /// block (or EOF), handing every completed frame to `out`.
    ///
    /// `WouldBlock` is not an error — it ends the pump with
    /// [`PumpStatus::Open`]. `Interrupted` reads are retried. The pump
    /// always reads until one of the two. Readiness is level-triggered,
    /// so bytes left behind would wake the loop again, but that costs a
    /// poll round per read, and the read that finds nothing is also the
    /// one that finds EOF.
    ///
    /// # Errors
    ///
    /// `InvalidData` when a length prefix is below the minimum header
    /// size or above [`MAX_FRAME`]; `UnexpectedEof` when the stream
    /// ends mid-frame (a payload landing in a claim then never lands);
    /// any other I/O error from `r`.
    pub fn pump_with(
        &mut self,
        buf: &mut ReadBuf,
        r: &mut impl Source,
        out: &mut impl Inbound,
    ) -> io::Result<PumpStatus> {
        loop {
            // A frame that outlasted its first read: the rest goes
            // straight into its body.
            if let Some(body) = &mut self.body {
                let read = match r.fd() {
                    Some(fd) => body.read_from(fd),
                    None => {
                        let want = body.remaining().min(READ_CHUNK);
                        r.read(&mut buf.0[..want]).inspect(|&n| body.put(&buf.0[..n]))
                    }
                };
                match read {
                    Ok(0) => return Err(eof_mid_frame()),
                    Ok(_) => {
                        if let Some(done) = self.body.take_if(|b| b.remaining() == 0) {
                            done.finish(out);
                        }
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(PumpStatus::Open)
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }

            let n = match r.read(&mut buf.0) {
                Ok(0) => {
                    return if self.mid_frame() {
                        Err(eof_mid_frame())
                    } else {
                        Ok(PumpStatus::Closed)
                    }
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(PumpStatus::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.scan_chunk(&buf.0[..n], out)?;
        }
    }

    /// Splits one freshly read chunk into frames: each starts once its
    /// head is in hand and completes from the chunk if it can; the
    /// chunk's last frame may leave as the body still arriving, or — cut
    /// inside its head — as buffered head bytes.
    fn scan_chunk(&mut self, chunk: &[u8], out: &mut impl Inbound) -> io::Result<()> {
        let mut pos = 0;

        // A head cut by the previous read comes first.
        if !self.head.is_empty() {
            pos = (HEAD - self.head.len()).min(chunk.len());
            self.head.extend_from_slice(&chunk[..pos]);
            if self.head.len() < HEAD {
                return check_len(&self.head);
            }
            // Copied out, so the buffer keeps its capacity for the next cut.
            let mut head = [0u8; HEAD];
            head.copy_from_slice(&self.head);
            self.head.clear();
            pos += self.begin(&head, &chunk[pos..], out)?;
        }

        while chunk.len() - pos >= HEAD {
            let (head, rest) = chunk[pos..].split_at(HEAD);
            pos += HEAD + self.begin(head, rest, out)?;
        }
        self.head.extend_from_slice(&chunk[pos..]);
        check_len(&self.head)
    }

    /// Starts the frame whose head is `head`: its body goes where `out`
    /// offers (a claim of exactly its payload's length) or into a buffer
    /// of its own, takes what `rest` holds of it, and completes or waits.
    /// Returns how many bytes of `rest` it took.
    fn begin(&mut self, head: &[u8], rest: &[u8], out: &mut impl Inbound) -> io::Result<usize> {
        let len = frame_len(head)?;
        let (header, payload) = (&head[4..], len - HEADER_LEN);
        let offered = out.offer(header, payload);
        let mut body = match offered.filter(|(_, claim)| claim.remaining() == payload) {
            Some((tag, claim)) => Body::Landing { tag, claim },
            None => {
                let mut buf = Vec::with_capacity(body_capacity(len));
                buf.extend_from_slice(header);
                Body::Frame { buf, len }
            }
        };
        let take = payload.min(rest.len());
        body.put(&rest[..take]);
        if body.remaining() == 0 {
            body.finish(out);
        } else {
            self.body = Some(body);
        }
        Ok(take)
    }
}

/// The allocation for a frame of `len` bytes. One of [`READ_CHUNK`] or
/// more is rounded up to whole 4 KiB pages (under 1/16 more), so writes
/// of one partition whose headers differ by a few bytes — a plain `Put`
/// and the 18-byte-longer stamped `Put` of its read repair — fit each
/// other's freed block, where exact sizes would fragment the heap a
/// worker keeps its partitions on.
fn body_capacity(len: usize) -> usize {
    if len >= READ_CHUNK {
        len.next_multiple_of(4096)
    } else {
        len
    }
}

/// Checks the length prefix of a cut head as soon as all four bytes are
/// in: a lying length poisons the connection at once.
fn check_len(head: &[u8]) -> io::Result<()> {
    if head.len() >= 4 {
        frame_len(head)?;
    }
    Ok(())
}

/// The length a frame's prefix declares (a cut prefix declares 0, which
/// is invalid).
fn frame_len(prefix: &[u8]) -> io::Result<usize> {
    let len = prefix.first_chunk().map_or(0, |b| u32::from_le_bytes(*b));
    if len < HEADER_LEN as u32 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid frame length {len}"),
        ));
    }
    Ok(len as usize)
}

fn eof_mid_frame() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame")
}

// ---------------------------------------------------------------------------
// WireFrame + WriteQueue: batched vectored writes
// ---------------------------------------------------------------------------

/// An encoded frame split for vectored writing: a small owned header
/// (length prefix, wire header and fixed body fields) plus an optional
/// zero-copy payload tail ([`Bytes`] shared with the store — `Put`
/// data and `Reply::Data` bodies are never memcpy'd onto the wire).
#[derive(Debug, Clone)]
pub struct WireFrame {
    /// Length prefix + everything before the payload.
    pub header: Vec<u8>,
    /// Zero-copy payload tail, if the frame carries bulk data.
    pub payload: Option<Bytes>,
}

impl WireFrame {
    /// Wraps a fully contiguous encoded frame (no separate payload).
    pub fn contiguous(frame: Vec<u8>) -> Self {
        WireFrame {
            header: frame,
            payload: None,
        }
    }

    /// Total on-wire size in bytes (prefix included).
    pub fn len(&self) -> usize {
        self.header.len() + self.payload.as_ref().map_or(0, |p| p.len())
    }

    /// True when the frame is empty (never the case for well-formed
    /// frames, which carry at least a prefix and header).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises the full contiguous wire bytes (one copy); used by
    /// the fault injector to truncate a frame mid-body.
    pub fn to_contiguous(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(&self.header);
        if let Some(p) = &self.payload {
            v.extend_from_slice(p);
        }
        v
    }

    /// Bytes `range` of the frame as a frame of their own: a copy of
    /// what they hold of the header, a view of what they hold of the
    /// payload.
    fn piece(&self, range: Range<usize>) -> WireFrame {
        let head = self.header.len();
        let header = self.header[range.start.min(head)..range.end.min(head)].to_vec();
        let payload = self.payload.as_ref().and_then(|p| {
            let body = range.start.saturating_sub(head)..range.end.saturating_sub(head);
            (!body.is_empty()).then(|| p.slice(body))
        });
        WireFrame { header, payload }
    }

    /// The two wire slices in order, skipping the first `offset`
    /// already-written bytes. Returns up to two entries.
    fn slices(&self, offset: usize) -> impl Iterator<Item = &[u8]> {
        let h = &self.header[offset.min(self.header.len())..];
        let poff = offset.saturating_sub(self.header.len());
        let p = self
            .payload
            .as_deref()
            .map(|p| &p[poff.min(p.len())..])
            .unwrap_or(&[]);
        [h, p].into_iter().filter(|s| !s.is_empty())
    }
}

/// Outbound frame queue for one non-blocking socket. Frames accumulate
/// between poll wakeups and [`flush`](WriteQueue::flush) pushes as
/// many as fit into batched `writev` calls, so a burst of pipelined
/// replies shares one syscall round instead of one `write` each.
#[derive(Default)]
pub struct WriteQueue {
    queue: VecDeque<WireFrame>,
    /// Bytes of `queue[0]` already written by a previous short write.
    offset: usize,
}

impl WriteQueue {
    /// New empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a frame to the tail of the queue.
    pub fn push(&mut self, frame: WireFrame) {
        self.queue.push_back(frame);
    }

    /// True when every queued byte has been written.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of frames still (fully or partially) unwritten.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Writes queued frames until the queue drains or the socket would
    /// block. Returns `true` when fully drained (deregister write
    /// interest), `false` when the socket pushed back (keep write
    /// interest armed).
    ///
    /// # Errors
    ///
    /// Any I/O error from the socket other than `WouldBlock` (which is
    /// flow control, not failure) or `Interrupted` (retried).
    pub fn flush<W: Write + AsFd>(&mut self, w: &mut W) -> io::Result<bool> {
        while !self.queue.is_empty() {
            let written = match self.writev_front(w) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if written == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ));
            }
            self.advance(written);
        }
        Ok(true)
    }

    /// One gather-write over the first [`MAX_IOV`] slices of the queue.
    fn writev_front<W: Write + AsFd>(&self, w: &mut W) -> io::Result<usize> {
        let mut offset = self.offset;
        let slices = self.queue.iter().flat_map(|f| f.slices(std::mem::take(&mut offset)));
        sys::writev(w, slices)
    }

    /// Pops fully written frames and tracks the partial offset into
    /// the new front.
    fn advance(&mut self, mut written: usize) {
        while written > 0 {
            let front_left = self.queue[0].len() - self.offset;
            if written >= front_left {
                written -= front_left;
                self.offset = 0;
                self.queue.pop_front();
            } else {
                self.offset += written;
                written = 0;
            }
        }
    }
}

#[cfg(unix)]
mod sys {
    //! Raw `read` / `writev` / `setsockopt` bindings — std reads only
    //! into initialised `&mut [u8]`, exposes no vectored-write API for
    //! `TcpStream` slices without the `io-slice` adaptors allocating, and
    //! no socket-buffer control at all; the build has no libc crate, but
    //! std already links libc so the symbols resolve.
    use std::io::{self, Write};
    use std::mem::MaybeUninit;
    use std::os::fd::{AsFd, AsRawFd, BorrowedFd};

    use spcache_store::landing::Claim;

    use super::MAX_IOV;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        iov_base: *const u8,
        iov_len: usize,
    }

    extern "C" {
        #[link_name = "read"]
        fn c_read(fd: i32, buf: *mut u8, count: usize) -> isize;
        #[link_name = "writev"]
        fn c_writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
        #[link_name = "setsockopt"]
        fn c_setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32)
            -> i32;
    }

    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;

    extern "C" {
        #[link_name = "mallopt"]
        fn c_mallopt(param: i32, value: i32) -> i32;
    }

    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;

    /// Keeps multi-megabyte frame buffers on the reusable heap.
    ///
    /// glibc serves large allocations via `mmap` and returns them with
    /// `munmap`, so every received multi-megabyte frame body would
    /// fault in each of its pages from scratch (~16k minor faults per
    /// 64 MB read — measured as the difference between a ~40 ms and a
    /// ~70 ms read). Its *dynamic* mmap threshold sometimes adapts
    /// past the frame size on its own; pinning the threshold makes the
    /// fast path deterministic. The threshold must sit *above* (not
    /// at) the largest buffer the data path assembles — glibc mmaps
    /// any request `>= threshold`, and whole-file joins reach 64 MB —
    /// so it is pinned at 128 MB, with the trim threshold above that
    /// so freed blocks stay on the heap. Best-effort no-op on
    /// non-glibc.
    pub(super) fn tune_allocator() {
        // SAFETY: mallopt only writes process-global malloc parameters.
        unsafe {
            let _ = c_mallopt(M_MMAP_THRESHOLD, 128 << 20);
            let _ = c_mallopt(M_TRIM_THRESHOLD, 192 << 20);
        }
    }

    /// Best-effort: grow `s`'s kernel send/receive buffers to `bytes`
    /// (the kernel clamps to `net.core.{w,r}mem_max`). Failure is
    /// ignored — the socket still works, just with default buffers.
    pub(super) fn set_buffers<F: AsFd>(s: &F, bytes: i32) {
        let fd = s.as_fd().as_raw_fd();
        let val = bytes.to_ne_bytes();
        for opt in [SO_SNDBUF, SO_RCVBUF] {
            // SAFETY: optval points at a live 4-byte int; optlen matches.
            unsafe {
                let _ = c_setsockopt(fd, SOL_SOCKET, opt, val.as_ptr(), val.len() as u32);
            }
        }
    }

    /// `read(2)` into possibly uninitialised memory — the one routine
    /// that fills a frame body from a socket.
    fn read_uninit(fd: BorrowedFd<'_>, dst: &mut [MaybeUninit<u8>]) -> io::Result<usize> {
        // SAFETY: `dst` is a live, exclusively borrowed buffer of
        // `dst.len()` bytes; read(2) writes at most that many bytes into
        // it and touches nothing else.
        let rc = unsafe { c_read(fd.as_raw_fd(), dst.as_mut_ptr().cast(), dst.len()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let n = rc as usize;
        assert!(n <= dst.len(), "read(2) reported more than it was given");
        Ok(n)
    }

    /// Reads the next bytes of a frame buffer that ends at `len` bytes
    /// into its spare capacity.
    pub(super) fn read_to_vec(fd: BorrowedFd<'_>, buf: &mut Vec<u8>, len: usize) -> io::Result<usize> {
        let want = len - buf.len();
        let n = read_uninit(fd, &mut buf.spare_capacity_mut()[..want])?;
        // SAFETY: read(2) initialised the first `n` (≤ `want`) bytes of
        // the spare capacity, which starts at `buf.len()`.
        unsafe { buf.set_len(buf.len() + n) };
        Ok(n)
    }

    /// Reads the next bytes of a landing payload straight into its
    /// region.
    pub(super) fn read_to_claim(fd: BorrowedFd<'_>, claim: &mut Claim) -> io::Result<usize> {
        let n = read_uninit(fd, claim.spare())?;
        // SAFETY: read(2) initialised the first `n` bytes of the spare
        // region `claim.spare()` returned just above.
        unsafe { claim.advance(n) };
        Ok(n)
    }

    /// Gather-writes the first [`MAX_IOV`] of `slices` to `w`'s file
    /// descriptor in one syscall, from an iovec array on the stack.
    pub(super) fn writev<'a, W: Write + AsFd>(
        w: &mut W,
        slices: impl Iterator<Item = &'a [u8]>,
    ) -> io::Result<usize> {
        let mut iov = [IoVec { iov_base: std::ptr::null(), iov_len: 0 }; MAX_IOV];
        let mut n: i32 = 0;
        for (slot, s) in iov.iter_mut().zip(slices) {
            *slot = IoVec { iov_base: s.as_ptr(), iov_len: s.len() };
            n += 1;
        }
        let fd = w.as_fd().as_raw_fd();
        // SAFETY: the first `n` iovecs point into live borrowed slices
        // for the duration of the call; iovcnt is `n`.
        let rc = unsafe { c_writev(fd, iov.as_ptr(), n) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

#[cfg(not(unix))]
mod sys {
    //! Portable fallback: sequential `write` calls (one per slice,
    //! stopping at the first short write to preserve writev semantics),
    //! no socket-buffer tuning, and no raw reads — a `TcpStream` offers
    //! no descriptor here, so frame bodies fill through the read buffer.
    use std::io::{self, Write};
    use std::os::fd::{AsFd, BorrowedFd};

    use spcache_store::landing::Claim;

    pub(super) fn read_to_vec(_: BorrowedFd<'_>, _: &mut Vec<u8>, _: usize) -> io::Result<usize> {
        Err(io::ErrorKind::Unsupported.into())
    }

    pub(super) fn read_to_claim(_: BorrowedFd<'_>, _: &mut Claim) -> io::Result<usize> {
        Err(io::ErrorKind::Unsupported.into())
    }

    pub(super) fn writev<'a, W: Write + AsFd>(
        w: &mut W,
        slices: impl Iterator<Item = &'a [u8]>,
    ) -> io::Result<usize> {
        let mut total = 0;
        for s in slices.take(super::MAX_IOV) {
            let n = w.write(s)?;
            total += n;
            if n < s.len() {
                break;
            }
        }
        Ok(total)
    }

    pub(super) fn set_buffers<F: AsFd>(_s: &F, _bytes: i32) {}

    pub(super) fn tune_allocator() {}
}

/// Kernel socket buffer size the data plane asks for on every
/// connection: big enough that a multi-megabyte partition transfer
/// fits in flight, so a 1-core loopback exchange ping-pongs between
/// producer and consumer a handful of times instead of once per
/// default-sized (hundreds of KiB) buffer fill.
pub const SOCK_BUF_BYTES: i32 = 4 << 20;

/// Best-effort socket tuning for a data-plane connection: grow both
/// kernel buffers to [`SOCK_BUF_BYTES`]. A failure (platform cap,
/// exotic fd) is silently ignored.
pub fn tune_socket<F: AsFd>(s: &F) {
    sys::set_buffers(s, SOCK_BUF_BYTES);
}

/// Process-wide, once-only allocator tuning for data-plane endpoints:
/// pins glibc's mmap threshold above the largest common frame size so
/// received frame bodies recycle heap blocks instead of faulting in
/// fresh `mmap` pages on every read (see `sys::tune_allocator`).
/// Called by `TcpTransport` and the servers on startup; safe to call
/// from multiple threads.
pub fn tune_allocator_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(sys::tune_allocator);
}

/// One I/O shard per core by default (this machine's parallelism).
pub fn default_io_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Conns: the connection table of one event loop
// ---------------------------------------------------------------------------

/// A frame written in [`READ_CHUNK`] pieces along a span, the way a
/// NIC sends it: each piece leaves once the span's share of the frame up
/// to the piece's last byte has passed, so the last byte leaves at the
/// span's end and none before the bytes ahead of it are paid off.
struct Paced {
    frame: WireFrame,
    /// Bytes of the frame already queued.
    sent: usize,
    span: Range<Instant>,
}

impl Paced {
    /// When the first `end` bytes of the frame are paid off.
    fn due(&self, end: usize) -> Instant {
        let len = self.frame.len();
        if end >= len {
            return self.span.end;
        }
        let span = self.span.end.saturating_duration_since(self.span.start);
        self.span.start + span.mul_f64(end as f64 / len as f64)
    }

    /// The end of the next piece.
    fn next_end(&self) -> usize {
        (self.sent + READ_CHUNK).min(self.frame.len())
    }

    /// When the next piece falls due; `None` once every byte is queued.
    fn next_due(&self) -> Option<Instant> {
        (self.sent < self.frame.len()).then(|| self.due(self.next_end()))
    }

    /// The pieces due by `now` — every unsent byte when `now` is `None`
    /// — as one frame of their own, marked sent.
    fn take_due(&mut self, now: Option<Instant>) -> Option<WireFrame> {
        let from = self.sent;
        while self.sent < self.frame.len() && now.is_none_or(|now| self.due(self.next_end()) <= now) {
            self.sent = self.next_end();
        }
        (self.sent > from).then(|| self.frame.piece(from..self.sent))
    }
}

/// One non-blocking connection owned by an event loop.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    /// Whether the socket is currently registered for write readiness.
    writable_armed: bool,
    /// Close the socket once the write queue drains (fault injection
    /// or protocol violation).
    closing: bool,
    /// The frame being written piece by piece, once its first piece
    /// has left: nothing else is queued until it is whole.
    paced: Option<Paced>,
    /// How many paced frames the connection has begun; the number of
    /// the current one tags its piece timers.
    paced_frames: u64,
}

impl Conn {
    /// Queues what the paced frame has due by `now` — all of it when
    /// `now` is `None`, ahead of a frame that must follow it whole — and
    /// says when its next piece falls due, if any is left.
    fn pace(&mut self, now: Option<Instant>) -> Option<Instant> {
        let paced = self.paced.as_mut()?;
        if let Some(piece) = paced.take_due(now) {
            self.wq.push(piece);
        }
        let next = paced.next_due();
        if next.is_none() {
            self.paced = None;
        }
        next
    }
}

/// The connections of one event loop — the client's and the server's
/// alike — keyed by poll token, plus the set touched since the last
/// flush pass, so a burst of frames to one connection shares one
/// `writev` round. A connection is registered for READABLE, and for
/// WRITABLE only while its write queue holds unsent bytes, so an idle
/// one costs no wakeups.
pub(crate) struct Conns {
    conns: HashMap<usize, Conn>,
    dirty: Vec<usize>,
}

impl Conns {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Conns {
            conns: HashMap::new(),
            dirty: Vec::new(),
        }
    }

    /// Takes ownership of a connected socket and registers it for read
    /// readiness under `token`. `false` when the socket cannot be set up;
    /// it is dropped.
    pub(crate) fn adopt(&mut self, poll: &Poll, token: usize, stream: TcpStream) -> bool {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err()
            || poll
                .registry()
                .register(&stream, Token(token), Interest::READABLE)
                .is_err()
        {
            return false;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                reader: FrameReader::new(),
                wq: WriteQueue::new(),
                writable_armed: false,
                closing: false,
                paced: None,
                paced_frames: 0,
            },
        );
        true
    }

    /// Whether `token` names a live connection that still takes input
    /// and output (not closing).
    pub(crate) fn is_open(&self, token: usize) -> bool {
        self.conns.get(&token).is_some_and(|c| !c.closing)
    }

    /// Marks `token` for the next [`flush_dirty`](Self::flush_dirty).
    pub(crate) fn touch(&mut self, token: usize) {
        if self.conns.contains_key(&token) && !self.dirty.contains(&token) {
            self.dirty.push(token);
        }
    }

    /// Reads whatever `token` has buffered, handing what completes to
    /// `inbound`. `false` when the peer closed or died: the caller serves
    /// what `inbound` got, then [`close`](Self::close)s.
    pub(crate) fn pump(
        &mut self,
        token: usize,
        buf: &mut ReadBuf,
        inbound: &mut impl Inbound,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        matches!(
            conn.reader.pump_with(buf, &mut conn.stream, inbound),
            Ok(PumpStatus::Open)
        )
    }

    /// Queues `frame` on `token`, behind every byte of a paced frame
    /// begun before it; `false` (and the frame dropped) if the
    /// connection is gone or closing: a closing stream ends at its last
    /// queued byte, and appending a full frame behind a torn one would
    /// let the peer misparse those bytes as the torn frame's body.
    pub(crate) fn push(&mut self, token: usize, frame: WireFrame) -> bool {
        let Some(conn) = self.conns.get_mut(&token).filter(|c| !c.closing) else {
            return false;
        };
        conn.pace(None);
        conn.wq.push(frame);
        self.touch(token);
        true
    }

    /// Begins writing `paced` on `token` — behind every byte of a paced
    /// frame begun before it — and queues what it has due by `now`.
    /// Returns when its next piece falls due and the frame's number, for
    /// [`pace`](Self::pace); `None` once it is whole, or if the
    /// connection is gone or closing.
    fn begin_paced(&mut self, token: usize, paced: Paced, now: Instant) -> Option<(Instant, u64)> {
        let conn = self.conns.get_mut(&token).filter(|c| !c.closing)?;
        conn.pace(None);
        conn.paced = Some(paced);
        conn.paced_frames += 1;
        let number = conn.paced_frames;
        let next = conn.pace(Some(now));
        self.touch(token);
        Some((next?, number))
    }

    /// Queues the pieces of `token`'s paced frame `number` due by `now`
    /// and says when its next piece falls due. A frame that was
    /// completed early — a frame queued behind it — has nothing left.
    fn pace(&mut self, token: usize, number: u64, now: Instant) -> Option<Instant> {
        let conn = self.conns.get_mut(&token).filter(|c| c.paced_frames == number)?;
        let next = conn.pace(Some(now));
        self.touch(token);
        next
    }

    /// Queues `last` as the final bytes `token` will ever carry and cuts
    /// the connection once they flush — the answer to a protocol
    /// violation (framing can no longer be trusted), or a scripted torn
    /// frame.
    fn push_last(&mut self, token: usize, last: WireFrame) {
        self.push(token, last);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.closing = true;
        }
    }

    /// Deregisters, shuts down and drops `token` without flushing
    /// anything. Its reader goes with it: a payload it was landing never
    /// lands, and its claim is released.
    pub(crate) fn close(&mut self, poll: &Poll, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = poll.registry().deregister(&conn.stream);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Carries out one completion (a no-op if the connection already
    /// died).
    fn complete(&mut self, poll: &Poll, token: usize, what: Completion) {
        match what {
            Completion::Frame(frame) => {
                self.push(token, frame);
            }
            Completion::Close => self.close(poll, token),
            Completion::Truncate(frame) => {
                let mut torn = frame.to_contiguous();
                torn.truncate(torn.len() / 2);
                self.push_last(token, WireFrame::contiguous(torn));
            }
        }
    }

    /// One flush per touched connection: everything queued since the
    /// last pass goes out in batched vectored writes. Returns the tokens
    /// it closed — a write failed, or a closing connection drained.
    pub(crate) fn flush_dirty(&mut self, poll: &Poll) -> Vec<usize> {
        let mut closed = Vec::new();
        for token in std::mem::take(&mut self.dirty) {
            if !self.flush(poll, token) {
                closed.push(token);
            }
        }
        closed
    }

    /// Flushes every connection (the shutdown drain).
    fn flush_all(&mut self, poll: &Poll) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.flush(poll, token);
        }
    }

    /// Whether no connection holds unsent bytes.
    fn drained(&self) -> bool {
        self.conns.values().all(|c| c.wq.is_empty() && c.paced.is_none())
    }

    /// Whether no connection holds unsent bytes or a frame half read.
    pub(crate) fn quiet(&self) -> bool {
        self.conns
            .values()
            .all(|c| c.wq.is_empty() && c.paced.is_none() && !c.reader.mid_frame())
    }

    /// Shuts every connection down and drops it.
    pub(crate) fn close_all(&mut self) {
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Flushes one connection's write queue, arming write interest while
    /// it holds unsent bytes; closes it on error or once a closing queue
    /// drains. `false` when it closed it.
    fn flush(&mut self, poll: &Poll, token: usize) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        let interest = match conn.wq.flush(&mut conn.stream) {
            Ok(true) if !conn.closing => Interest::READABLE,
            Ok(false) => Interest::READABLE | Interest::WRITABLE,
            Ok(true) | Err(_) => {
                self.close(poll, token);
                return false;
            }
        };
        let armed = interest != Interest::READABLE;
        if armed != conn.writable_armed {
            conn.writable_armed = armed;
            let _ = poll
                .registry()
                .reregister(&conn.stream, Token(token), interest);
        }
        true
    }
}

// ---------------------------------------------------------------------------
// serve: the server event loop
// ---------------------------------------------------------------------------

/// How long a stopping shard keeps flushing unsent replies before
/// giving up on a peer that stopped reading.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Token of a loop's cross-thread waker, client and server alike.
pub(crate) const WAKER_TOK: usize = 0;
/// Token of the listener (shard 0 only).
const LISTENER_TOK: usize = 1;
/// First token handed to accepted connections.
const CONN_BASE: usize = 2;

/// What a connection does with one finished reply.
#[derive(Debug)]
pub enum Completion {
    /// Write the frame.
    Frame(WireFrame),
    /// Close without writing anything (a scripted dropped connection).
    Close,
    /// Write the first half of the frame, then close (a scripted torn
    /// frame).
    Truncate(WireFrame),
}

/// What a frame handler made of one inbound frame.
pub enum Served {
    /// Carry out `what` on the connection at the given instant, in
    /// deadline order with every other delayed completion of the shard:
    /// before the next frame is served when it is due already, off the
    /// shard's timer heap otherwise.
    At(Completion, Instant),
    /// Write the frame in [`READ_CHUNK`] pieces along the span, as the
    /// emulated NIC sends it: each piece once the span's pro-rata share
    /// of the frame up to the piece's last byte has passed, the last
    /// byte at the span's end. The frame takes its place in deadline
    /// order when its first piece falls due: a frame due before that
    /// goes ahead of it, and one due after it first releases every byte
    /// the paced frame has left. A frame of one piece, or an empty
    /// span, is [`Served::At`] the span's end.
    Paced(WireFrame, Range<Instant>),
    /// The reply will arrive through a clone of the frame's [`ConnRef`].
    Pending,
    /// Protocol violation: these are the last bytes the connection
    /// carries (framing can no longer be trusted).
    Violation(WireFrame),
}

/// Commands into a shard loop.
#[derive(Debug)]
enum Cmd {
    /// Take ownership of an accepted connection.
    Adopt(TcpStream),
    /// Carry out `what` on connection `token` after `delay`.
    Complete {
        token: usize,
        what: Completion,
        delay: Duration,
    },
    /// Drain write queues and exit.
    Stop,
}

/// Address of one shard loop: its command queue and waker.
#[derive(Debug)]
struct ShardRef {
    tx: Sender<Cmd>,
    waker: Waker,
}

impl ShardRef {
    fn send(&self, cmd: Cmd) {
        if self.tx.send(cmd).is_ok() {
            let _ = self.waker.wake();
        }
    }
}

/// The cross-thread address of one accepted connection: how a reply
/// computed off the loop thread gets back to the socket its request
/// arrived on. Tokens are never reused, so a completion that outlives
/// its connection lands nowhere.
#[derive(Debug, Clone)]
pub struct ConnRef {
    shards: Arc<[ShardRef]>,
    shard: usize,
    token: usize,
}

impl ConnRef {
    /// Posts `what` to the owning shard, which carries it out once
    /// `delay` has passed (a timer on the loop, not a sleeping thread).
    /// Completions posted from one thread apply in the order posted.
    pub fn complete(&self, what: Completion, delay: Duration) {
        self.shards[self.shard].send(Cmd::Complete {
            token: self.token,
            what,
            delay,
        });
    }

    /// Stops the whole server: every shard applies what was posted to
    /// it before this call, drains its write queues (bounded by a
    /// deadline, so a peer that stopped reading cannot hold shutdown)
    /// and exits.
    pub fn stop_server(&self) {
        for shard in self.shards.iter() {
            shard.send(Cmd::Stop);
        }
    }
}

/// A loop's poller and the waker that nudges it from other threads,
/// registered under [`WAKER_TOK`].
pub(crate) fn poll_with_waker() -> io::Result<(Poll, Waker)> {
    let poll = Poll::new()?;
    let waker = Waker::new(poll.registry(), Token(WAKER_TOK))?;
    Ok((poll, waker))
}

/// Serves `listener` from `io_shards` readiness loops (threads named
/// `{name}-{i}`): shard 0 accepts and deals connections round-robin,
/// every shard reads request frames off its sockets and hands each to
/// its clone of `handler` with the [`ConnRef`] of the connection it
/// arrived on. Returns the loop threads, which exit after
/// [`ConnRef::stop_server`].
///
/// # Errors
///
/// I/O errors creating the pollers or spawning a loop thread.
pub fn serve<H>(
    name: &str,
    listener: TcpListener,
    io_shards: usize,
    handler: H,
) -> io::Result<Vec<JoinHandle<()>>>
where
    H: FnMut(Bytes, &ConnRef) -> Served + Clone + Send + 'static,
{
    listener.set_nonblocking(true)?;
    // Build every shard's poller + command queue up front so shard 0
    // (the acceptor) can deal connections to all of them.
    let mut polls = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..io_shards.max(1) {
        let (poll, waker) = poll_with_waker()?;
        let (tx, rx) = unbounded();
        refs.push(ShardRef { tx, waker });
        polls.push((poll, rx));
    }
    let shards: Arc<[ShardRef]> = refs.into();
    let mut listener = Some(listener);
    let threads = polls.into_iter().enumerate().map(|(shard, (poll, rx))| {
        let me = ConnRef {
            shards: Arc::clone(&shards),
            shard,
            token: 0,
        };
        let (listener, handler) = (listener.take(), handler.clone());
        std::thread::Builder::new()
            .name(format!("{name}-{shard}"))
            .spawn(move || shard_loop(poll, &rx, listener, me, handler))
    });
    let threads = threads.collect::<io::Result<Vec<_>>>();
    if threads.is_err() {
        // The shards already running would otherwise serve forever.
        for shard in shards.iter() {
            shard.send(Cmd::Stop);
        }
    }
    threads
}

/// One shard's readiness loop: accepts (shard 0), feeds inbound frames
/// to the handler, applies posted completions (delayed ones off the
/// timer heap), and batch-flushes write queues.
fn shard_loop<H: FnMut(Bytes, &ConnRef) -> Served>(
    mut poll: Poll,
    rx: &Receiver<Cmd>,
    listener: Option<TcpListener>,
    mut conn: ConnRef,
    mut handler: H,
) {
    if let Some(l) = &listener {
        let _ = poll
            .registry()
            .register(l, Token(LISTENER_TOK), Interest::READABLE);
    }
    let mut events = Events::with_capacity(256);
    let mut conns = Conns::new();
    let mut next_token = CONN_BASE;
    // Shard 0's round-robin dealing cursor.
    let mut dealt = 0usize;
    // Delayed completions and paced frames' pieces wait on the timer
    // heap.
    let mut timers: Timers<(usize, Timed)> = Timers::new();
    let mut buf = ReadBuf::new();
    let mut inbound: Vec<Bytes> = Vec::new();

    'run: loop {
        let now = timers.settle(Instant::now());
        let timeout = poll_timeout(timers.next_deadline(), now);
        if poll.poll(&mut events, timeout).is_err() {
            break 'run;
        }

        loop {
            match rx.try_recv() {
                Ok(Cmd::Adopt(stream)) => {
                    conns.adopt(&poll, next_token, stream);
                    next_token += 1;
                }
                Ok(Cmd::Complete { token, what, delay }) if delay.is_zero() => {
                    conns.complete(&poll, token, what);
                }
                Ok(Cmd::Complete { token, what, delay }) => {
                    timers.insert(Instant::now() + delay, (token, Timed::Complete(what)));
                }
                Ok(Cmd::Stop) | Err(TryRecvError::Disconnected) => break 'run,
                Err(TryRecvError::Empty) => break,
            }
        }

        for ev in &events {
            match ev.token().0 {
                WAKER_TOK => {}
                LISTENER_TOK => {
                    let Some(l) = &listener else { continue };
                    // `WouldBlock` ends the burst; any other failure
                    // leaves the listener readable for the next poll.
                    while let Ok((stream, _)) = l.accept() {
                        let to = dealt % conn.shards.len();
                        dealt += 1;
                        if to == conn.shard {
                            conns.adopt(&poll, next_token, stream);
                            next_token += 1;
                        } else {
                            conn.shards[to].send(Cmd::Adopt(stream));
                        }
                    }
                }
                token => {
                    if (ev.is_readable() || ev.is_error()) && conns.is_open(token) {
                        conn.token = token;
                        read_frames(
                            &poll,
                            &mut conns,
                            &mut timers,
                            &conn,
                            &mut buf,
                            &mut inbound,
                            &mut handler,
                        );
                    }
                    if ev.is_writable() {
                        conns.touch(token);
                    }
                }
            }
        }

        release_due(&poll, &mut conns, &mut timers, Instant::now());
        conns.flush_dirty(&poll);
    }

    // What the timer heap still holds is released on time, and every
    // write queue drains — all of it within the deadline.
    let drain_until = Instant::now() + DRAIN_DEADLINE;
    while Instant::now() < drain_until {
        release_due(&poll, &mut conns, &mut timers, Instant::now());
        conns.flush_all(&poll);
        if timers.next_deadline().is_none() && conns.drained() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    conns.close_all();
}

/// Pumps one readable connection through the handler. A protocol
/// violation cuts the connection after its answer; a peer that closed
/// or died is dropped once what it sent has been served.
fn read_frames(
    poll: &Poll,
    conns: &mut Conns,
    timers: &mut Timers<(usize, Timed)>,
    conn: &ConnRef,
    buf: &mut ReadBuf,
    inbound: &mut Vec<Bytes>,
    handler: &mut impl FnMut(Bytes, &ConnRef) -> Served,
) {
    inbound.clear();
    let open = conns.pump(conn.token, buf, inbound);
    for frame in inbound.drain(..) {
        let (at, what) = match handler(frame, conn) {
            Served::At(what, at) => (at, Timed::Complete(what)),
            Served::Paced(frame, span) if frame.len() <= READ_CHUNK || span.is_empty() => {
                (span.end, Timed::Complete(Completion::Frame(frame)))
            }
            Served::Paced(frame, span) => {
                let paced = Paced { frame, sent: 0, span };
                (paced.due(paced.next_end()), Timed::Begin(paced))
            }
            Served::Pending => continue,
            Served::Violation(last) => return conns.push_last(conn.token, last),
        };
        // Through the heap, so an answer due now still leaves behind
        // every completion that fell due before it.
        timers.insert(at, (conn.token, what));
        release_due(poll, conns, timers, Instant::now());
    }
    if !open {
        conns.close(poll, conn.token);
    }
}

/// What a shard's timer heap carries out on a connection.
enum Timed {
    /// A delayed completion.
    Complete(Completion),
    /// A paced frame whose first piece falls due.
    Begin(Paced),
    /// The next piece of the connection's paced frame of this number.
    Piece(u64),
}

/// Carries out, in deadline order, every delayed completion and paced
/// piece due by `now`; a paced frame's next piece goes back on the heap.
fn release_due(poll: &Poll, conns: &mut Conns, timers: &mut Timers<(usize, Timed)>, now: Instant) {
    while let Some((token, what)) = timers.pop_due(now) {
        let next = match what {
            Timed::Complete(what) => {
                conns.complete(poll, token, what);
                None
            }
            Timed::Begin(paced) => conns.begin_paced(token, paced, now),
            Timed::Piece(number) => conns.pace(token, number, now).map(|at| (at, number)),
        };
        if let Some((at, number)) = next {
            timers.insert(at, (token, Timed::Piece(number)));
        }
    }
}

// ---------------------------------------------------------------------------
// Timers: deadline min-heap
// ---------------------------------------------------------------------------

/// The poll timeout that wakes a loop for a timer due at `due`: whole
/// milliseconds, rounded down. epoll counts in milliseconds, and a
/// sub-millisecond wait handed to it comes back a whole one late — a
/// reply held past its release time; [`Timers::settle`] sleeps out what
/// the floor leaves. `None` (no timer) waits for readiness alone.
fn poll_timeout(due: Option<Instant>, now: Instant) -> Option<Duration> {
    let wait = due?.saturating_duration_since(now);
    Some(Duration::from_millis(wait.as_millis() as u64))
}

/// Min-heap of timers driving a server shard's poll timeout: the loop
/// waits until [`next_deadline`](Timers::next_deadline) and carries out
/// every delayed completion and paced piece [`pop_due`](Timers::pop_due)
/// yields. Timers
/// due at the same instant fire in the order they were set.
///
/// There is no cancel operation — nothing it holds is ever called off:
/// a delayed completion whose connection died finds nothing to write
/// to, and the piece timer of a paced frame a later frame completed
/// early finds nothing left to write. It belongs to the server loop alone; the client loop's request
/// deadlines, which a reply does call off, are a queue in
/// [`crate::tcp`].
struct Timers<T> {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    items: HashMap<u64, T>,
    seq: u64,
}

impl<T> Timers<T> {
    /// New empty timer heap.
    fn new() -> Self {
        Timers {
            heap: BinaryHeap::new(),
            items: HashMap::new(),
            seq: 0,
        }
    }

    /// Schedules `item` to fire at `at`.
    fn insert(&mut self, at: Instant, item: T) {
        self.heap.push(Reverse((at, self.seq)));
        self.items.insert(self.seq, item);
        self.seq += 1;
    }

    /// Earliest pending deadline, if any — the poll timeout bound.
    fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    /// Sleeps out the sub-millisecond rest of a wait for the next timer
    /// that [`poll_timeout`] left, and returns the time after it.
    fn settle(&self, now: Instant) -> Instant {
        match self.next_deadline() {
            Some(due) if due > now && due - now < Duration::from_millis(1) => {
                std::thread::sleep(due - now);
                Instant::now()
            }
            _ => now,
        }
    }

    /// Pops the next timer whose deadline is at or before `now`.
    fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.next_deadline()? > now {
            return None;
        }
        let Reverse((_, seq)) = self.heap.pop()?;
        self.items.remove(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_reply, encode_reply, encode_reply_parts, encode_request, Frame};
    use spcache_store::landing::{Landing, Region};
    use spcache_store::rpc::{PartKey, Reply, Request};
    use std::time::Duration;

    /// Reader that serves a byte script in caller-chosen segment sizes
    /// and then reports WouldBlock (like an idle non-blocking socket).
    struct Script {
        data: Vec<u8>,
        cuts: Vec<usize>, // segment lengths; after the last, WouldBlock
        pos: usize,
        cut_idx: usize,
        eof_at_end: bool,
    }

    impl Script {
        fn new(data: Vec<u8>, cuts: Vec<usize>, eof_at_end: bool) -> Self {
            Script {
                data,
                cuts,
                pos: 0,
                cut_idx: 0,
                eof_at_end,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return if self.eof_at_end {
                    Ok(0)
                } else {
                    Err(io::ErrorKind::WouldBlock.into())
                };
            }
            let seg = if self.cut_idx < self.cuts.len() {
                self.cuts[self.cut_idx]
            } else {
                self.data.len() - self.pos
            };
            self.cut_idx += 1;
            let n = seg.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Source for Script {}

    impl Source for &[u8] {}

    /// A socket pair fills bodies the way a TCP connection does.
    impl Source for std::os::unix::net::UnixStream {
        fn fd(&self) -> Option<BorrowedFd<'_>> {
            Some(self.as_fd())
        }
    }

    fn sample_frames() -> (Vec<u8>, Vec<Bytes>) {
        let key = PartKey { file: 9, part: 3 };
        let frames = vec![
            encode_request(&Request::Get { key }, 1),
            encode_reply(&Reply::Data(Bytes::from(vec![0xAB; 5000])), 2),
            encode_request(&Request::Ping, 3),
            encode_reply(&Reply::Data(Bytes::from(vec![0xCD; 200_000])), 4),
            encode_request(&Request::Delete { key }, 5),
        ];
        let mut wire = Vec::new();
        let mut bodies = Vec::new();
        for f in &frames {
            wire.extend_from_slice(f);
            bodies.push(Bytes::from(f[4..].to_vec()));
        }
        (wire, bodies)
    }

    fn pump_all(script: Script) -> (Vec<Bytes>, PumpStatus) {
        let mut r = FrameReader::new();
        let mut out = Vec::new();
        let mut s = script;
        let status = r.pump(&mut s, &mut out).expect("pump");
        (out, status)
    }

    #[test]
    fn whole_stream_in_one_read_parses_every_frame() {
        let (wire, bodies) = sample_frames();
        let (out, status) = pump_all(Script::new(wire, vec![], true));
        assert_eq!(status, PumpStatus::Closed);
        assert_eq!(out, bodies);
    }

    #[test]
    fn adversarial_split_points_reassemble_identically() {
        let (wire, bodies) = sample_frames();
        // One-byte reads: every header and payload boundary is split.
        let cuts = vec![1; wire.len()];
        let (out, status) = pump_all(Script::new(wire.clone(), cuts, true));
        assert_eq!(status, PumpStatus::Closed);
        assert_eq!(out, bodies);

        // Split mid-length-prefix, mid-header, and mid-payload.
        let (out, status) = pump_all(Script::new(wire, vec![2, 3, 7, 4999, 1, 65536], true));
        assert_eq!(status, PumpStatus::Closed);
        assert_eq!(out, bodies);
    }

    #[test]
    fn would_block_pauses_and_resumes() {
        let (wire, bodies) = sample_frames();
        let half = wire.len() / 2;
        let mut reader = FrameReader::new();
        let mut out = Vec::new();

        let mut first = Script::new(wire[..half].to_vec(), vec![], false);
        assert_eq!(
            reader.pump(&mut first, &mut out).unwrap(),
            PumpStatus::Open
        );

        let mut second = Script::new(wire[half..].to_vec(), vec![], true);
        assert_eq!(
            reader.pump(&mut second, &mut out).unwrap(),
            PumpStatus::Closed
        );
        assert_eq!(out, bodies);
    }

    #[test]
    fn eof_mid_frame_is_unexpected_eof() {
        let (wire, _) = sample_frames();
        let mut truncated = Script::new(wire[..wire.len() - 3].to_vec(), vec![], true);
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let err = reader.pump(&mut truncated, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn lying_length_prefix_is_invalid_data() {
        for bad in [3u32, MAX_FRAME + 1] {
            let mut wire = bad.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 16]);
            let mut s = Script::new(wire, vec![], true);
            let mut reader = FrameReader::new();
            let mut out = Vec::new();
            let err = reader.pump(&mut s, &mut out).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    /// One length-prefixed frame whose body is `HEADER_LEN + len` bytes
    /// of `fill`.
    fn filled_frame(fill: u8, len: usize) -> Vec<u8> {
        let body = vec![fill; HEADER_LEN + len];
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        wire
    }

    #[test]
    fn a_frame_keeps_its_own_bytes_after_the_buffer_is_read_over() {
        let mut buf = ReadBuf::new();
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for fill in [0x11u8, 0x22] {
            let mut s = Script::new(filled_frame(fill, 4096), vec![], false);
            let status = reader.pump_with(&mut buf, &mut s, &mut out).unwrap();
            assert_eq!(status, PumpStatus::Open);
        }
        // The second read landed on the bytes the first frame was cut
        // from; the first frame must not have been looking at them.
        assert_eq!(buf.0[4], 0x22);
        assert_eq!(out.len(), 2);
        assert!(
            out[0].iter().all(|&b| b == 0x11),
            "frame 0 aliases the buffer"
        );
        assert!(out[1].iter().all(|&b| b == 0x22));
        let held = buf.0.as_ptr_range();
        for frame in &out {
            assert_eq!(frame.len(), HEADER_LEN + 4096);
            assert!(
                !held.contains(&frame.as_ptr()),
                "a frame points into the buffer"
            );
        }
    }

    #[test]
    fn one_buffer_serves_every_connection_and_pump_of_a_loop() {
        let mut buf = ReadBuf::new();
        let at = buf.0.as_ptr();
        let [mut whole, mut halved] = [FrameReader::new(), FrameReader::new()];
        let [mut wholes, mut halves] = [Vec::new(), Vec::new()];
        let mut feed = |reader: &mut FrameReader, bytes: &[u8], out: &mut Vec<Bytes>| {
            let mut s = Script::new(bytes.to_vec(), vec![], false);
            reader.pump_with(&mut buf, &mut s, out).unwrap();
        };
        // Two connections take turns on the loop's buffer, and one of
        // them is mid-frame every time the other reads over it.
        for round in 0..500usize {
            let a = filled_frame(round as u8, 100 + round);
            let b = filled_frame(!(round as u8), 100 + round);
            let cut = b.len() / 2;
            feed(&mut halved, &b[..cut], &mut halves);
            feed(&mut whole, &a, &mut wholes);
            feed(&mut halved, &b[cut..], &mut halves);
        }
        assert_eq!((buf.0.as_ptr(), buf.0.len()), (at, READ_CHUNK));
        assert_eq!((wholes.len(), halves.len()), (500, 500));
        for (round, (a, b)) in wholes.iter().zip(&halves).enumerate() {
            assert_eq!((a.len(), b.len()), (HEADER_LEN + 100 + round, a.len()));
            assert!(a.iter().all(|&x| x == round as u8), "round {round}");
            assert!(b.iter().all(|&x| x == !(round as u8)), "round {round}");
        }
    }

    /// A client's view of its replies: a `Data` reply whose `req_id`
    /// has a region here lands in it.
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
            let id = crate::frame::data_reply_id(header)?;
            Some((id, self.regions.get(&id)?.claim(len)?))
        }

        fn landed(&mut self, id: u64, claim: Claim) {
            assert!(claim.land(), "an unfinished payload handed out");
            self.landed.push(id);
        }
    }

    fn data_reply(bytes: &[u8], req_id: u64) -> Vec<u8> {
        encode_reply(&Reply::Data(Bytes::from(bytes.to_vec())), req_id)
    }

    #[test]
    fn a_landed_payload_is_read_from_the_socket_into_its_region() {
        use std::os::unix::net::UnixStream;
        // Bodies far larger than a read: every byte past the first read
        // of each frame goes through `read(2)` — into the region for the
        // landed reply, into the exact-size buffer for the others.
        let file: Vec<u8> = (0..700_000u32).map(|i| (i * 13) as u8).collect();
        let landing = Landing::new(file.len(), 2);
        let (a, b) = (landing.range(0), landing.range(1));
        let mut wire = data_reply(&file[a.clone()], 1);
        let long = [&file[b.clone()], &[0][..]].concat();
        wire.extend(data_reply(&long, 2));
        let put = Request::Put { key: PartKey::new(4, 0), data: Bytes::from(file[b].to_vec()), sum: 9 };
        wire.extend(encode_request(&put, 3));

        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let writer = std::thread::spawn(move || tx.write_all(&wire));
        let mut lands = Lands::default();
        for j in 0..2 {
            lands.regions.insert(j as u64 + 1, landing.region(j));
        }
        let (mut reader, mut buf) = (FrameReader::new(), ReadBuf::new());
        // The writer closes its end after the last frame.
        while reader.pump_with(&mut buf, &mut rx, &mut lands).unwrap() == PumpStatus::Open {
            std::thread::sleep(Duration::from_millis(1));
        }
        writer.join().unwrap().unwrap();
        assert_eq!(lands.landed, vec![1], "only the right-length reply lands");
        let long_reply = Frame::parse(lands.frames[0].clone()).unwrap();
        assert_eq!(decode_reply(&long_reply).unwrap(), Reply::Data(Bytes::from(long)));
        let put_frame = Frame::parse(lands.frames[1].clone()).unwrap();
        assert_eq!(crate::frame::decode_request(&put_frame).unwrap(), put);
        drop(lands);
        let mut landing = landing;
        assert!(landing.accept(0));
        assert!(!landing.accept(1), "a 1-byte-long reply landed");
        landing.place(1, Bytes::from(file[landing.range(1)].to_vec()));
        assert_eq!(landing.into_vec(), Ok(file));
    }

    #[test]
    fn eof_inside_a_landing_payload_is_unexpected_eof_and_never_lands() {
        let mut landing = Landing::new(100_000, 1);
        let wire = data_reply(&vec![5; 100_000], 7);
        for cut in [HEAD - 1, HEAD, HEAD + 1, 70_000, wire.len() - 1] {
            let mut lands = Lands::default();
            lands.regions.insert(7, landing.region(0));
            let mut s = Script::new(wire[..cut].to_vec(), vec![], true);
            let mut reader = FrameReader::new();
            let err = reader.pump(&mut s, &mut lands).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            drop(reader);
            assert!(lands.landed.is_empty() && lands.frames.is_empty());
            assert!(!landing.accept(0), "a torn payload landed (cut at {cut})");
        }
        // The torn claims were released: the whole reply lands.
        let mut lands = Lands::default();
        lands.regions.insert(7, landing.region(0));
        let status = FrameReader::new().pump(&mut &wire[..], &mut lands).unwrap();
        assert_eq!((status, lands.landed), (PumpStatus::Closed, vec![7]));
    }

    #[test]
    fn a_data_reply_of_the_wrong_length_does_not_land() {
        let mut landing = Landing::new(100, 1);
        for len in [0, 99, 101] {
            let wire = data_reply(&vec![1; len], 3);
            let mut lands = Lands::default();
            lands.regions.insert(3, landing.region(0));
            FrameReader::new().pump(&mut &wire[..], &mut lands).unwrap();
            assert!(lands.landed.is_empty(), "a {len}-byte reply landed in 100 bytes");
            assert_eq!(lands.frames, vec![Bytes::from(wire[4..].to_vec())]);
            assert!(!landing.accept(0));
        }
    }

    #[test]
    fn write_queue_batches_and_drains_over_a_socket() {
        use std::io::Read as _;
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();

        let payload = Bytes::from(vec![0x5A; 100_000]);
        let mut wq = WriteQueue::new();
        let mut expected = Vec::new();
        for i in 0..80u8 {
            let f = WireFrame {
                header: vec![i; 9],
                payload: Some(payload.clone()),
            };
            expected.extend_from_slice(&f.to_contiguous());
            wq.push(f);
        }

        // Drain concurrently: flush until empty while the peer reads.
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            rx.read_to_end(&mut got).unwrap();
            got
        });
        loop {
            match wq.flush(&mut tx) {
                Ok(true) => break,
                Ok(false) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("flush failed: {e}"),
            }
        }
        drop(tx);
        assert_eq!(reader.join().unwrap(), expected);
    }

    #[test]
    fn wire_frame_slices_respect_partial_offsets() {
        let f = WireFrame {
            header: vec![1, 2, 3],
            payload: Some(Bytes::from(vec![4, 5])),
        };
        let flat = |off: usize| -> Vec<u8> {
            f.slices(off).flat_map(|s| s.iter().copied()).collect()
        };
        assert_eq!(flat(0), vec![1, 2, 3, 4, 5]);
        assert_eq!(flat(2), vec![3, 4, 5]);
        assert_eq!(flat(3), vec![4, 5]);
        assert_eq!(flat(4), vec![5]);
        assert_eq!(flat(5), Vec::<u8>::new());
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let base = Instant::now();
        let mut t = Timers::new();
        t.insert(base + Duration::from_millis(30), 3u64);
        t.insert(base + Duration::from_millis(10), 1u64);
        t.insert(base + Duration::from_millis(20), 2u64);
        assert_eq!(t.next_deadline(), Some(base + Duration::from_millis(10)));
        assert_eq!(t.pop_due(base), None);
        let later = base + Duration::from_millis(25);
        assert_eq!(t.pop_due(later), Some(1));
        assert_eq!(t.pop_due(later), Some(2));
        assert_eq!(t.pop_due(later), None);
        assert_eq!(t.next_deadline(), Some(base + Duration::from_millis(30)));
    }

    #[test]
    fn timers_due_together_fire_in_the_order_set() {
        let at = Instant::now();
        let mut t = Timers::new();
        for key in [3u64, 1, 2] {
            t.insert(at, key);
        }
        let order: Vec<u64> = std::iter::from_fn(|| t.pop_due(at)).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn a_poll_timeout_never_outlasts_its_timer() {
        let now = Instant::now();
        let after = |us| Some(now + Duration::from_micros(us));
        assert_eq!(poll_timeout(after(2_400), now), Some(Duration::from_millis(2)));
        assert_eq!(poll_timeout(after(1_000), now), Some(Duration::from_millis(1)));
        assert_eq!(poll_timeout(after(999), now), Some(Duration::ZERO));
        // A due time already passed polls without waiting.
        assert_eq!(poll_timeout(Some(now), now + Duration::from_millis(3)), Some(Duration::ZERO));
        assert_eq!(poll_timeout(None, now), None);
    }

    #[test]
    fn a_sub_millisecond_remainder_is_slept_out_before_timers_pop() {
        let mut t = Timers::new();
        let due = Instant::now() + Duration::from_micros(400);
        t.insert(due, 1u64);
        let now = t.settle(Instant::now());
        assert!(now >= due, "settled {:?} early", due - now);
        assert_eq!(t.pop_due(now), Some(1));
        // A timer a millisecond or more away is left to the poll.
        let far = Instant::now() + Duration::from_millis(5);
        t.insert(far, 2);
        let now = t.settle(Instant::now());
        assert!(now < far, "slept out a whole-millisecond wait");
        assert_eq!(t.pop_due(now), None);
    }

    #[test]
    fn an_answer_due_now_leaves_behind_the_reply_due_before_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (poll, waker) = poll_with_waker().unwrap();
        let mut conns = Conns::new();
        assert!(conns.adopt(&poll, CONN_BASE, stream));
        let (tx, _rx) = unbounded();
        let conn = ConnRef { shards: Arc::from([ShardRef { tx, waker }]), shard: 0, token: CONN_BASE };
        // Reply N-1 fell due on the heap, and the loop has not popped it
        // yet when the frame of op N is served and cut at once.
        let mut timers = Timers::new();
        let reply = WireFrame::contiguous(vec![1; 8]);
        timers.insert(Instant::now(), (CONN_BASE, Timed::Complete(Completion::Frame(reply))));
        peer.write_all(&encode_request(&Request::Ping, 7)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let mut cut = |_: Bytes, _: &ConnRef| {
            let torn = Completion::Truncate(WireFrame::contiguous(vec![2; 8]));
            Served::At(torn, Instant::now())
        };
        let (mut buf, mut inbound) = (ReadBuf::new(), Vec::new());
        read_frames(&poll, &mut conns, &mut timers, &conn, &mut buf, &mut inbound, &mut cut);
        conns.flush_dirty(&poll);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert_eq!(got, [vec![1u8; 8], vec![2; 4]].concat(), "the cut overtook reply N-1");
    }

    /// The bytes `peer` holds for reading once what was flushed has
    /// crossed the loopback.
    fn available(peer: &mut TcpStream) -> Vec<u8> {
        std::thread::sleep(Duration::from_millis(20));
        peer.set_nonblocking(true).unwrap();
        let mut got = Vec::new();
        let err = peer.read_to_end(&mut got).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        peer.set_nonblocking(false).unwrap();
        got
    }

    #[test]
    fn a_frame_due_mid_pace_leaves_after_the_paced_frames_last_byte() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (poll, waker) = poll_with_waker().unwrap();
        let mut conns = Conns::new();
        assert!(conns.adopt(&poll, CONN_BASE, stream));
        let (tx, _rx) = unbounded();
        let conn = ConnRef { shards: Arc::from([ShardRef { tx, waker }]), shard: 0, token: CONN_BASE };
        // Five pieces over 100 ms, an hour out, so only the instants the
        // test hands `release_due` move the schedule.
        let base = Instant::now() + Duration::from_secs(3600);
        let at = |ms| base + Duration::from_millis(ms);
        let data = Bytes::from((0..300_000u32).map(|i| (i * 7) as u8).collect::<Vec<_>>());
        let reply = encode_reply_parts(&Reply::Data(data.clone()), 1);
        assert_eq!(reply.len().div_ceil(READ_CHUNK), 5);
        peer.write_all(&encode_request(&Request::Get { key: PartKey::new(1, 0) }, 1)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let mut paced = |_: Bytes, _: &ConnRef| Served::Paced(reply.clone(), at(0)..at(100));
        let (mut timers, mut buf, mut inbound) = (Timers::new(), ReadBuf::new(), Vec::new());
        read_frames(&poll, &mut conns, &mut timers, &conn, &mut buf, &mut inbound, &mut paced);

        // A frame due before the first piece (at 21.8 ms) goes ahead.
        let early = encode_reply_parts(&Reply::Done, 2);
        timers.insert(at(10), (CONN_BASE, Timed::Complete(Completion::Frame(early))));
        release_due(&poll, &mut conns, &mut timers, at(10));
        conns.flush_dirty(&poll);
        let mut got = available(&mut peer);
        assert_eq!(got, encode_reply(&Reply::Done, 2), "the early frame waited");
        // Two pieces are paid off at 50 ms, and only they leave.
        release_due(&poll, &mut conns, &mut timers, at(50));
        conns.flush_dirty(&poll);
        let two = available(&mut peer);
        assert_eq!(two.len(), 2 * READ_CHUNK, "not two pieces by 50 ms");
        got.extend(two);
        // A frame due now, mid-transfer, leaves behind the rest at once.
        let pong = encode_reply_parts(&Reply::Pong { worker: 0, epoch: 3 }, 3);
        timers.insert(at(50), (CONN_BASE, Timed::Complete(Completion::Frame(pong))));
        release_due(&poll, &mut conns, &mut timers, at(50));
        conns.flush_dirty(&poll);
        // The stale piece timers of the finished frame queue nothing.
        release_due(&poll, &mut conns, &mut timers, at(200));
        conns.flush_dirty(&poll);
        assert_eq!(timers.next_deadline(), None);
        conns.close(&poll, CONN_BASE);
        peer.read_to_end(&mut got).unwrap();

        let frames = pump_all(Script::new(got, vec![], true)).0;
        let replies: Vec<Reply> =
            frames.into_iter().map(|f| decode_reply(&Frame::parse(f).unwrap()).unwrap()).collect();
        let pong = Reply::Pong { worker: 0, epoch: 3 };
        assert_eq!(replies, vec![Reply::Done, Reply::Data(data), pong]);
    }
}
