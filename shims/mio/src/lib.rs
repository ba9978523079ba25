//! Offline stand-in for the `mio` crate: readiness-driven I/O polling.
//!
//! Provides the subset of the real mio API the workspace's event loops
//! use — [`Poll`] / [`Events`] / [`Token`] / [`Interest`] / [`Waker`] —
//! backed directly by Linux `epoll(7)` and `eventfd(2)` through raw
//! `extern "C"` declarations (std already links libc, so no external
//! crate is needed; the same pattern as the other `shims/*`).
//!
//! Differences from real mio, chosen for simplicity:
//!
//! * registration is **level-triggered** (no `EPOLLET`): a loop that
//!   does not drain a socket is woken again, which is the forgiving
//!   behaviour the workspace's frame pumps rely on;
//! * sources are registered by [`AsRawFd`] instead of an `event::Source`
//!   trait — std's `TcpStream`/`TcpListener` qualify directly;
//! * [`Registry`] is a cheap clonable handle rather than a borrow.
//!
//! On non-Linux targets the API compiles but every constructor returns
//! `ErrorKind::Unsupported` — mirroring how the workspace's other shims
//! gate platform features (the event-loop tests only run on Linux).

use std::io;
use std::os::fd::RawFd;
#[cfg(unix)]
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Identifies a registered event source in delivered [`Event`]s. A
/// token is below 2⁶³: the top bit of an event's data marks a waker's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Readiness interests for registration: readable, writable or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interest in read readiness.
    pub const READABLE: Interest = Interest(0b01);
    /// Interest in write readiness.
    pub const WRITABLE: Interest = Interest(0b10);

    /// Combines two interests.
    #[must_use]
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Whether this interest includes read readiness.
    pub const fn is_readable(self) -> bool {
        self.0 & 0b01 != 0
    }

    /// Whether this interest includes write readiness.
    pub const fn is_writable(self) -> bool {
        self.0 & 0b10 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    error: bool,
    read_closed: bool,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Whether the source is ready for reading (includes HUP/error so
    /// the reader observes EOF/failure instead of sleeping on it).
    pub fn is_readable(&self) -> bool {
        self.readable || self.error || self.read_closed
    }

    /// Whether the source is ready for writing.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// Whether the source reported an error condition.
    pub fn is_error(&self) -> bool {
        self.error
    }

    /// Whether the peer closed its write half (EPOLLHUP/EPOLLRDHUP).
    pub fn is_read_closed(&self) -> bool {
        self.read_closed
    }
}

/// A buffer of events filled by [`Poll::poll`]. It also keeps the
/// kernel's event array, so a loop that polls with one `Events`
/// allocates nothing per poll.
#[derive(Debug)]
pub struct Events {
    capacity: usize,
    events: Vec<Event>,
    #[cfg(target_os = "linux")]
    raw: Vec<sys::EpollEvent>,
}

impl Events {
    /// An event buffer holding up to `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events {
            capacity,
            events: Vec::with_capacity(capacity),
            #[cfg(target_os = "linux")]
            raw: Vec::with_capacity(capacity),
        }
    }

    /// Iterates the events delivered by the last poll.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Whether the last poll delivered no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events delivered by the last poll.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

// ---------------------------------------------------------------------
// Linux backend: epoll + eventfd via extern "C" (std links libc).
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::*;

    // x86_64 declares epoll_event packed in the kernel ABI.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub(crate) const EPOLL_CLOEXEC: i32 = 0x80000;
    pub(crate) const EPOLL_CTL_ADD: i32 = 1;
    pub(crate) const EPOLL_CTL_DEL: i32 = 2;
    pub(crate) const EPOLL_CTL_MOD: i32 = 3;
    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;
    pub(crate) const EPOLLONESHOT: u32 = 1 << 30;
    pub(crate) const ENOENT: i32 = 2;
    pub(crate) const EFD_CLOEXEC: i32 = 0x80000;
    pub(crate) const EFD_NONBLOCK: i32 = 0x800;
    /// Set in the event data of a waker's eventfd, above its token.
    pub(crate) const WAKER_BIT: u64 = 1 << 63;

    extern "C" {
        pub(crate) fn epoll_create1(flags: i32) -> i32;
        pub(crate) fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub(crate) fn epoll_wait(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub(crate) fn eventfd(initval: u32, flags: i32) -> i32;
        pub(crate) fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub(crate) fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub(crate) fn close(fd: i32) -> i32;
    }

    pub(crate) fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }
}

#[derive(Debug)]
struct RegistryInner {
    epfd: RawFd,
    /// Tokens registered by wakers; their eventfds are drained inside
    /// [`Poll::poll`] so a level-triggered registration fires once per
    /// wake batch instead of spinning.
    waker_fds: Mutex<Vec<(usize, RawFd)>>,
}

impl Drop for RegistryInner {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        unsafe {
            let _ = sys::close(self.epfd);
        }
    }
}

/// Handle for registering event sources with a [`Poll`]. Cheap to clone
/// and shareable across threads (wakers hold one).
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    #[cfg(target_os = "linux")]
    fn ctl(&self, op: i32, fd: RawFd, token: Token, interests: Interest) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if interests.is_readable() {
            events |= sys::EPOLLIN;
        }
        if interests.is_writable() {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token.0 as u64,
        };
        sys::cvt(unsafe { sys::epoll_ctl(self.inner.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `source` for `interests` under `token` (level-triggered).
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure; `Unsupported` off Linux.
    #[cfg(target_os = "linux")]
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interests: Interest,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, source.as_raw_fd(), token, interests)
    }

    /// Changes the interests (and/or token) of a registered source.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure; `Unsupported` off Linux.
    #[cfg(target_os = "linux")]
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interests: Interest,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, source.as_raw_fd(), token, interests)
    }

    /// Removes a source from the poller.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure; `Unsupported` off Linux.
    #[cfg(target_os = "linux")]
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, source.as_raw_fd(), Token(0), Interest(0))
    }

    /// Arms `source` for one readable event under `token` (`armed`), or
    /// for none: a one-shot registration (`EPOLLONESHOT`), added on first
    /// use, that reports at most one event per arming and then stays
    /// quiet until armed again. Beyond mio's API: it nests one poller in
    /// another, where a level-triggered registration taken out with
    /// `deregister` while the outer poller reports it can go on reporting
    /// until the inner one is drained.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure; `Unsupported` off Linux.
    #[cfg(target_os = "linux")]
    pub fn arm_once(&self, source: &impl AsRawFd, token: Token, armed: bool) -> io::Result<()> {
        let events = if armed { sys::EPOLLIN | sys::EPOLLONESHOT } else { 0 };
        let fd = source.as_raw_fd();
        let ctl = |op| {
            let mut ev = sys::EpollEvent {
                events,
                data: token.0 as u64,
            };
            sys::cvt(unsafe { sys::epoll_ctl(self.inner.epfd, op, fd, &mut ev) })
        };
        match ctl(sys::EPOLL_CTL_MOD) {
            Err(e) if e.raw_os_error() == Some(sys::ENOENT) => ctl(sys::EPOLL_CTL_ADD).map(|_| ()),
            r => r.map(|_| ()),
        }
    }

    #[cfg(not(target_os = "linux"))]
    #[allow(missing_docs, clippy::missing_errors_doc)]
    pub fn arm_once<S>(&self, _s: &S, _t: Token, _armed: bool) -> io::Result<()> {
        Err(io::Error::from(io::ErrorKind::Unsupported))
    }

    #[cfg(not(target_os = "linux"))]
    #[allow(missing_docs, clippy::missing_errors_doc)]
    pub fn register<S>(&self, _s: &S, _t: Token, _i: Interest) -> io::Result<()> {
        Err(io::Error::from(io::ErrorKind::Unsupported))
    }

    #[cfg(not(target_os = "linux"))]
    #[allow(missing_docs, clippy::missing_errors_doc)]
    pub fn reregister<S>(&self, _s: &S, _t: Token, _i: Interest) -> io::Result<()> {
        Err(io::Error::from(io::ErrorKind::Unsupported))
    }

    #[cfg(not(target_os = "linux"))]
    #[allow(missing_docs, clippy::missing_errors_doc)]
    pub fn deregister<S>(&self, _s: &S) -> io::Result<()> {
        Err(io::Error::from(io::ErrorKind::Unsupported))
    }
}

/// The readiness poller: wraps one epoll instance.
#[derive(Debug)]
pub struct Poll {
    registry: Registry,
}

impl Poll {
    /// A fresh poller.
    ///
    /// # Errors
    ///
    /// `epoll_create1` failures; `Unsupported` off Linux.
    pub fn new() -> io::Result<Poll> {
        #[cfg(target_os = "linux")]
        {
            let epfd = sys::cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
            Ok(Poll {
                registry: Registry {
                    inner: Arc::new(RegistryInner {
                        epfd,
                        waker_fds: Mutex::new(Vec::new()),
                    }),
                },
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }
    }

    /// The registration handle.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Blocks until an event arrives or `timeout` elapses (`None` waits
    /// indefinitely), filling `events`. Waker eventfds are drained here,
    /// so one [`Waker::wake`] burst delivers one event.
    ///
    /// # Errors
    ///
    /// `epoll_wait` failures (EINTR is retried internally).
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            events.events.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => {
                    // Round up so a 0 < d < 1ms wait does not busy-spin.
                    let ms = d.as_millis();
                    if ms == 0 && !d.is_zero() {
                        1
                    } else {
                        ms.min(i32::MAX as u128) as i32
                    }
                }
            };
            let raw = &mut events.raw;
            raw.clear();
            let n = loop {
                let r = unsafe {
                    sys::epoll_wait(
                        self.registry.inner.epfd,
                        raw.as_mut_ptr(),
                        events.capacity as i32,
                        timeout_ms,
                    )
                };
                if r >= 0 {
                    break r as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
                // EINTR: retry. (A shortened timeout on retry is
                // acceptable for the loop's callers, all of which treat
                // poll timeouts as routine ticks.)
            };
            // SAFETY: epoll_wait initialized the first `n` entries.
            unsafe { raw.set_len(n) };
            // Taken at the first waker's event, if the poll has one.
            let mut wakers = None;
            for ev in raw.iter() {
                let (data, bits) = (ev.data, ev.events);
                let token = Token((data & !sys::WAKER_BIT) as usize);
                if data & sys::WAKER_BIT != 0 {
                    let wakers = wakers.get_or_insert_with(|| {
                        self.registry.inner.waker_fds.lock().expect("waker registry")
                    });
                    if let Some(&(_, wfd)) = wakers.iter().find(|&&(t, _)| t == token.0) {
                        // Drain the eventfd so the level-triggered
                        // registration goes quiet until the next wake.
                        let mut buf = [0u8; 8];
                        unsafe {
                            let _ = sys::read(wfd, buf.as_mut_ptr(), 8);
                        }
                    }
                }
                events.events.push(Event {
                    token,
                    readable: bits & sys::EPOLLIN != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    error: bits & sys::EPOLLERR != 0,
                    read_closed: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (events, timeout);
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }
    }
}

/// A poller is itself pollable: registered in another [`Poll`], it
/// reads as ready while it holds events (epoll nests).
#[cfg(unix)]
impl AsRawFd for Poll {
    fn as_raw_fd(&self) -> RawFd {
        self.registry.inner.epfd
    }
}

/// Wakes a [`Poll`] blocked in [`Poll::poll`] from another thread —
/// an eventfd registered on the same epoll instance.
#[derive(Debug)]
pub struct Waker {
    #[allow(dead_code)]
    registry: Registry,
    efd: RawFd,
}

impl Waker {
    /// A waker delivering `token` to `registry`'s poller.
    ///
    /// # Errors
    ///
    /// `eventfd`/`epoll_ctl` failures; `Unsupported` off Linux.
    pub fn new(registry: &Registry, token: Token) -> io::Result<Waker> {
        #[cfg(target_os = "linux")]
        {
            let efd = sys::cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
            let mut ev = sys::EpollEvent {
                events: sys::EPOLLIN,
                data: token.0 as u64 | sys::WAKER_BIT,
            };
            if let Err(e) =
                sys::cvt(unsafe { sys::epoll_ctl(registry.inner.epfd, sys::EPOLL_CTL_ADD, efd, &mut ev) })
            {
                unsafe {
                    let _ = sys::close(efd);
                }
                return Err(e);
            }
            registry
                .inner
                .waker_fds
                .lock()
                .expect("waker registry")
                .push((token.0, efd));
            Ok(Waker {
                registry: registry.clone(),
                efd,
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (registry, token);
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }
    }

    /// Delivers (at least) one readiness event to the poller. Safe to
    /// call from any thread; coalesces with outstanding wakes.
    ///
    /// # Errors
    ///
    /// `write(2)` failures other than `EAGAIN` (a saturated counter
    /// still wakes the poller, so `EAGAIN` is success).
    pub fn wake(&self) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            let one: u64 = 1;
            let r = unsafe { sys::write(self.efd, (&raw const one).cast::<u8>(), 8) };
            if r == 8 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::WouldBlock {
                Ok(()) // counter saturated: the poller is already waking
            } else {
                Err(err)
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        {
            self.registry
                .inner
                .waker_fds
                .lock()
                .expect("waker registry")
                .retain(|&(_, fd)| fd != self.efd);
            unsafe {
                let _ = sys::close(self.efd);
            }
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poll_times_out_when_idle() {
        let mut poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let t0 = std::time::Instant::now();
        poll.poll(&mut events, Some(Duration::from_millis(30))).unwrap();
        assert!(events.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn readable_socket_delivers_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poll = Poll::new().unwrap();
        poll.registry()
            .register(&server, Token(7), Interest::READABLE)
            .unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token() == Token(7) && e.is_readable()));
    }

    #[test]
    fn waker_wakes_a_blocked_poll_once_per_burst() {
        let mut poll = Poll::new().unwrap();
        let waker = Arc::new(Waker::new(poll.registry(), Token(0)).unwrap());

        // A burst of wakes that all land before the poll coalesces into
        // one delivered event. (The wakes happen on this thread so the
        // burst is provably complete before the drain — wakes racing a
        // concurrent drain may legitimately re-arm the waker.)
        waker.wake().unwrap();
        waker.wake().unwrap();
        waker.wake().unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events.iter().next().unwrap().token(), Token(0));
        // Drained by delivery: the next poll times out instead of re-firing.
        poll.poll(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());

        // And a wake from another thread unblocks a sleeping poll.
        let w = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake().unwrap();
        });
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token() == Token(0)));
        t.join().unwrap();
    }

    #[test]
    fn one_events_buffer_serves_many_polls_without_growing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut poll = Poll::new().unwrap();
        poll.registry().register(&server, Token(7), Interest::READABLE).unwrap();
        let waker = Waker::new(poll.registry(), Token(0)).unwrap();
        let mut events = Events::with_capacity(4);
        let (raw, delivered) = (events.raw.as_ptr(), events.events.as_ptr());
        let mut byte = [0u8; 1];
        for round in 0..200 {
            // Each round delivers what it made ready, and nothing of the
            // round before.
            let want: &[usize] = match round % 3 {
                0 => &[0],
                1 => &[7],
                _ => &[0, 7],
            };
            if want.contains(&0) {
                waker.wake().unwrap();
            }
            if want.contains(&7) {
                client.write_all(b"x").unwrap();
            }
            let mut got: Vec<usize> = Vec::new();
            while got.len() < want.len() {
                poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
                assert!(!events.is_empty(), "round {round} timed out");
                got.extend(events.iter().map(|e| e.token().0));
            }
            got.sort_unstable();
            assert_eq!(got, want, "round {round}");
            if want.contains(&7) {
                assert_eq!(std::io::Read::read(&mut &server, &mut byte).unwrap(), 1);
            }
        }
        assert_eq!((events.raw.as_ptr(), events.events.as_ptr()), (raw, delivered));
        assert_eq!((events.raw.capacity(), events.events.capacity()), (4, 4));
    }

    #[test]
    fn a_poller_armed_once_in_another_reports_one_event_per_arming() {
        let mut inner = Poll::new().unwrap();
        let waker = Waker::new(inner.registry(), Token(0)).unwrap();
        let mut outer = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        waker.wake().unwrap();
        // Added disarmed: the inner poller's event wakes nobody outside.
        outer.registry().arm_once(&inner, Token(5), false).unwrap();
        outer.poll(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());
        outer.registry().arm_once(&inner, Token(5), true).unwrap();
        outer.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token() == Token(5) && e.is_readable()));
        // One event per arming, though the inner poller is still ready.
        outer.poll(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());
        outer.registry().arm_once(&inner, Token(5), true).unwrap();
        outer.registry().arm_once(&inner, Token(5), false).unwrap();
        outer.poll(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());
        // The event was the inner poller's all along.
        inner.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token() == Token(0)));
    }

    #[test]
    fn write_interest_fires_and_reregister_silences_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut poll = Poll::new().unwrap();
        poll.registry()
            .register(&client, Token(3), Interest::READABLE.add(Interest::WRITABLE))
            .unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token() == Token(3) && e.is_writable()));
        // Drop write interest: an idle connected socket goes quiet.
        poll.registry()
            .reregister(&client, Token(3), Interest::READABLE)
            .unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(30))).unwrap();
        assert!(events.is_empty());
    }
}
