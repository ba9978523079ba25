//! Offline stand-in for the `crossbeam` crate.
//!
//! Only [`channel`] is provided — the workspace uses crossbeam for its
//! MPMC-flavoured channels and, since the select-driven fork-join read
//! path, for [`channel::Select`]: a ready-set wait over many receivers.
//!
//! Unlike the original shim (a thin wrapper over `std::sync::mpsc`,
//! which offers no selection), channels here are built on a small
//! `Mutex<VecDeque> + Condvar` core so that a receiver can also signal an
//! externally registered [`channel::Select`] waiter when it becomes
//! ready. Semantics preserved from the previous shim and relied on by the
//! store's worker/RPC layer:
//!
//! * `Sender` is `Clone + Send + Sync`; a dropped receiver surfaces as a
//!   send error (how clients detect dead workers),
//! * a dropped last sender surfaces as `Disconnected` on the receive
//!   side (how clients detect crashed workers mid-request),
//! * [`channel::bounded`] does not enforce a capacity — every channel is
//!   unbounded. The workspace only uses `bounded(1)` for single-shot
//!   reply channels, where capacity is irrelevant.

/// Multi-producer channels with disconnect detection and readiness
/// selection.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, TryRecvError};

    /// Error returned when sending on a channel whose receiver is gone.
    /// Carries the unsent message like `crossbeam::channel::SendError`.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Select::ready_timeout`] when no operation
    /// became ready within the timeout.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReadyTimeoutError;

    impl std::fmt::Display for ReadyTimeoutError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("timed out waiting on `ready`")
        }
    }

    impl std::error::Error for ReadyTimeoutError {}

    /// Wake-up flag shared between a blocked [`Select`] and the channels
    /// it watches. Channels fire it on every state change that could make
    /// a `try_recv` non-blocking (message arrival, last sender dropped).
    #[derive(Debug, Default)]
    pub struct SelectSignal {
        fired: Mutex<bool>,
        cv: Condvar,
    }

    impl SelectSignal {
        fn notify(&self) {
            *self.fired.lock().expect("select signal poisoned") = true;
            self.cv.notify_all();
        }

        /// Waits until fired or `deadline`; returns whether it fired.
        fn wait_until(&self, deadline: Option<Instant>) -> bool {
            let mut fired = self.fired.lock().expect("select signal poisoned");
            loop {
                if *fired {
                    return true;
                }
                match deadline {
                    None => fired = self.cv.wait(fired).expect("select signal poisoned"),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return false;
                        }
                        let (guard, _) = self
                            .cv
                            .wait_timeout(fired, d - now)
                            .expect("select signal poisoned");
                        fired = guard;
                    }
                }
            }
        }
    }

    #[derive(Debug)]
    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
        /// Receivers blocked in `recv`/`recv_timeout`: only they need
        /// the condvar's wake-up (a notify is a syscall).
        blocked: usize,
        /// Select waiters to wake on the next readiness change.
        waiters: Vec<Arc<SelectSignal>>,
    }

    #[derive(Debug)]
    struct Core<T> {
        inner: Mutex<Inner<T>>,
        recv_cv: Condvar,
    }

    impl<T> Core<T> {
        fn new() -> Self {
            Core {
                inner: Mutex::new(Inner {
                    queue: VecDeque::new(),
                    senders: 1,
                    receiver_alive: true,
                    blocked: 0,
                    waiters: Vec::new(),
                }),
                recv_cv: Condvar::new(),
            }
        }

        fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
            self.inner.lock().expect("channel poisoned")
        }

        /// Wakes blocked receivers and any registered select waiters.
        fn announce(inner: &mut Inner<T>, recv_cv: &Condvar) {
            if inner.blocked > 0 {
                recv_cv.notify_all();
            }
            for w in inner.waiters.drain(..) {
                w.notify();
            }
        }
    }

    /// The sending half of a channel.
    #[derive(Debug)]
    pub struct Sender<T> {
        core: Arc<Core<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.core.lock().senders += 1;
            Sender {
                core: Arc::clone(&self.core),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.core.lock();
            inner.senders -= 1;
            if inner.senders == 0 {
                // Disconnect: blocked receivers and selects must observe it.
                Core::announce(&mut inner, &self.core.recv_cv);
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, failing if the receiver was dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut inner = self.core.lock();
            if !inner.receiver_alive {
                return Err(SendError(msg));
            }
            inner.queue.push_back(msg);
            Core::announce(&mut inner, &self.core.recv_cv);
            Ok(())
        }
    }

    /// The receiving half of a channel.
    #[derive(Debug)]
    pub struct Receiver<T> {
        core: Arc<Core<T>>,
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // Match real crossbeam: dropping the receiver discards every
            // queued message. Anything nested inside them (e.g. a reply
            // `Sender` in a queued request envelope) is dropped too, so
            // parties blocked on those nested channels observe a
            // disconnect instead of waiting forever. The messages are
            // dropped *outside* the lock — their `Drop` impls may take
            // other channel locks.
            let discarded = {
                let mut inner = self.core.lock();
                inner.receiver_alive = false;
                std::mem::take(&mut inner.queue)
            };
            drop(discarded);
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.core.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.blocked += 1;
                inner = self
                    .core
                    .recv_cv
                    .wait(inner)
                    .expect("channel poisoned");
                inner.blocked -= 1;
            }
        }

        /// Blocks with a deadline; distinguishes timeout from disconnect.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.core.lock();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.blocked += 1;
                let (guard, _) = self
                    .core
                    .recv_cv
                    .wait_timeout(inner, deadline - now)
                    .expect("channel poisoned");
                inner = guard;
                inner.blocked -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.core.lock();
            if let Some(v) = inner.queue.pop_front() {
                Ok(v)
            } else if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Whether no message is queued (a disconnected channel with
        /// nothing queued is empty too).
        pub fn is_empty(&self) -> bool {
            self.core.lock().queue.is_empty()
        }

        /// Iterates over messages until the channel disconnects.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        /// Whether a `try_recv` right now would not block: a message is
        /// queued or the channel is disconnected.
        fn is_ready(&self) -> bool {
            let inner = self.core.lock();
            !inner.queue.is_empty() || inner.senders == 0
        }

        /// Registers a select waiter, or returns `true` if already ready
        /// (in which case nothing is registered).
        fn register(&self, signal: &Arc<SelectSignal>) -> bool {
            let mut inner = self.core.lock();
            if !inner.queue.is_empty() || inner.senders == 0 {
                return true;
            }
            inner.waiters.push(Arc::clone(signal));
            false
        }

        /// Removes a previously registered select waiter.
        fn unregister(&self, signal: &Arc<SelectSignal>) {
            self.core
                .lock()
                .waiters
                .retain(|w| !Arc::ptr_eq(w, signal));
        }
    }

    /// An unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let core = Arc::new(Core::new());
        (
            Sender {
                core: Arc::clone(&core),
            },
            Receiver { core },
        )
    }

    /// A "bounded" channel — see the module docs: capacity is not
    /// enforced by the shim.
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }

    /// Type-erased handle to a receiver registered with a [`Select`].
    trait Selectable {
        fn sel_ready(&self) -> bool;
        fn sel_register(&self, signal: &Arc<SelectSignal>) -> bool;
        fn sel_unregister(&self, signal: &Arc<SelectSignal>);
    }

    impl<T> Selectable for Receiver<T> {
        fn sel_ready(&self) -> bool {
            self.is_ready()
        }

        fn sel_register(&self, signal: &Arc<SelectSignal>) -> bool {
            self.register(signal)
        }

        fn sel_unregister(&self, signal: &Arc<SelectSignal>) {
            self.unregister(signal)
        }
    }

    /// A ready-set wait over multiple receivers — the subset of
    /// `crossbeam::channel::Select` the store's fork-join read path
    /// needs. Register receivers with [`Select::recv`]; each returns an
    /// operation index. [`Select::ready`] / [`Select::ready_timeout`] /
    /// [`Select::ready_deadline`] block until *some* registered receiver
    /// would not block (a message is queued or it disconnected) and
    /// return its index; the caller then completes the operation with
    /// `try_recv` on that receiver. Spurious readiness is possible (a
    /// raced-away message); callers must treat `TryRecvError::Empty` as
    /// "go wait again".
    #[derive(Default)]
    pub struct Select<'a> {
        handles: Vec<&'a dyn Selectable>,
        /// Rotating scan offset so one hot low-index receiver cannot
        /// starve the others.
        next_start: usize,
    }

    impl std::fmt::Debug for Select<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Select({} ops)", self.handles.len())
        }
    }

    impl<'a> Select<'a> {
        /// An empty selector.
        pub fn new() -> Self {
            Select {
                handles: Vec::new(),
                next_start: 0,
            }
        }

        /// Registers a receive operation; returns its operation index.
        pub fn recv<T>(&mut self, rx: &'a Receiver<T>) -> usize {
            self.handles.push(rx);
            self.handles.len() - 1
        }

        /// Number of registered operations.
        pub fn len(&self) -> usize {
            self.handles.len()
        }

        /// Whether no operation is registered.
        pub fn is_empty(&self) -> bool {
            self.handles.is_empty()
        }

        fn scan_ready(&mut self) -> Option<usize> {
            let n = self.handles.len();
            let start = self.next_start % n.max(1);
            for off in 0..n {
                let i = (start + off) % n;
                if self.handles[i].sel_ready() {
                    self.next_start = i + 1;
                    return Some(i);
                }
            }
            None
        }

        /// Blocks until some operation is ready; returns its index.
        ///
        /// # Panics
        ///
        /// Panics if no operation is registered (it would block forever).
        pub fn ready(&mut self) -> usize {
            self.wait(None).expect("ready() cannot time out")
        }

        /// Blocks until some operation is ready or `timeout` elapses.
        ///
        /// # Errors
        ///
        /// [`ReadyTimeoutError`] if nothing became ready in time.
        pub fn ready_timeout(&mut self, timeout: Duration) -> Result<usize, ReadyTimeoutError> {
            self.wait(Some(Instant::now() + timeout))
        }

        /// Blocks until some operation is ready or `deadline` passes.
        ///
        /// # Errors
        ///
        /// [`ReadyTimeoutError`] if nothing became ready in time.
        pub fn ready_deadline(&mut self, deadline: Instant) -> Result<usize, ReadyTimeoutError> {
            self.wait(Some(deadline))
        }

        fn wait(&mut self, deadline: Option<Instant>) -> Result<usize, ReadyTimeoutError> {
            assert!(
                !self.handles.is_empty(),
                "selecting over zero operations would block forever"
            );
            loop {
                if let Some(i) = self.scan_ready() {
                    return Ok(i);
                }
                // Register a fresh signal with every handle; a handle
                // that became ready during registration short-circuits.
                let signal = Arc::new(SelectSignal::default());
                let mut became_ready = false;
                let mut registered = 0;
                for (idx, h) in self.handles.iter().enumerate() {
                    if h.sel_register(&signal) {
                        became_ready = true;
                        registered = idx;
                        break;
                    }
                    registered = idx + 1;
                }
                let fired = became_ready || signal.wait_until(deadline);
                for h in &self.handles[..registered.min(self.handles.len())] {
                    h.sel_unregister(&signal);
                }
                if !fired {
                    return Err(ReadyTimeoutError);
                }
                // Loop: re-scan to find which operation is ready (the
                // message may have been consumed elsewhere — spurious
                // wake-ups fall through to another registration round).
                if let Some(i) = self.scan_ready() {
                    return Ok(i);
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(ReadyTimeoutError);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::{Duration, Instant};

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = bounded(1);
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn is_empty_tracks_the_queue() {
        let (tx, rx) = bounded(1);
        assert!(rx.is_empty());
        tx.send(1u8).unwrap();
        assert!(!rx.is_empty());
        rx.recv().unwrap();
        drop(tx);
        assert!(rx.is_empty(), "a disconnected channel with nothing queued");
    }

    #[test]
    fn dropped_receiver_fails_send() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1u8).is_err());
    }

    #[test]
    fn dropped_sender_fails_recv() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert!(rx.recv().is_err());
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)).unwrap_err(),
            RecvTimeoutError::Disconnected
        );
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Empty);
        tx.send(3).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 3);
        drop(tx);
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);
    }

    #[test]
    fn sender_is_shareable_across_threads() {
        let (tx, rx) = unbounded();
        std::thread::scope(|s| {
            for i in 0..4u64 {
                let tx = tx.clone();
                s.spawn(move || tx.send(i).unwrap());
            }
        });
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn receiver_drop_discards_queued_messages() {
        // Crossbeam semantics: dropping the receiver destroys what was
        // queued. A reply sender nested in a queued message must
        // disconnect its receiver — the pattern behind request
        // envelopes whose serving loop exits with requests still queued.
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = bounded::<u8>(1);
        tx.send(reply_tx).unwrap();
        drop(rx);
        assert_eq!(
            reply_rx.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            RecvTimeoutError::Disconnected,
            "queued reply sender must be dropped with the receiver"
        );
    }

    #[test]
    fn queued_messages_survive_sender_drop() {
        let (tx, rx) = unbounded();
        tx.send(1u8).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn select_returns_the_ready_receiver() {
        let (tx1, rx1) = unbounded::<u8>();
        let (_tx2, rx2) = unbounded::<u8>();
        tx1.send(9).unwrap();
        let mut sel = Select::new();
        let i1 = sel.recv(&rx1);
        let _i2 = sel.recv(&rx2);
        assert_eq!(sel.ready(), i1);
        assert_eq!(rx1.try_recv().unwrap(), 9);
    }

    #[test]
    fn select_times_out_when_nothing_ready() {
        let (_tx1, rx1) = unbounded::<u8>();
        let (_tx2, rx2) = unbounded::<u8>();
        let mut sel = Select::new();
        sel.recv(&rx1);
        sel.recv(&rx2);
        let t0 = Instant::now();
        assert_eq!(
            sel.ready_timeout(Duration::from_millis(30)),
            Err(ReadyTimeoutError)
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn select_wakes_on_concurrent_send() {
        let (tx, rx1) = unbounded::<u8>();
        let (_keep, rx2) = unbounded::<u8>();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(5).unwrap();
            });
            let mut sel = Select::new();
            let i1 = sel.recv(&rx1);
            sel.recv(&rx2);
            let t0 = Instant::now();
            let ready = sel.ready_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(ready, i1);
            assert!(t0.elapsed() < Duration::from_secs(1));
            assert_eq!(rx1.try_recv().unwrap(), 5);
        });
    }

    #[test]
    fn select_sees_disconnect_as_ready() {
        let (tx, rx) = unbounded::<u8>();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(15));
                drop(tx);
            });
            let mut sel = Select::new();
            sel.recv(&rx);
            assert_eq!(sel.ready_timeout(Duration::from_secs(2)), Ok(0));
            assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);
        });
    }

    #[test]
    fn select_drains_multiple_out_of_order() {
        // Replies land in arbitrary order; select consumes each as it
        // arrives — the fork-join pattern the store uses.
        let n = 8usize;
        let chans: Vec<_> = (0..n).map(|_| unbounded::<usize>()).collect();
        std::thread::scope(|s| {
            for (j, (tx, _)) in chans.iter().enumerate() {
                let tx = tx.clone();
                s.spawn(move || {
                    // Later indices reply sooner.
                    std::thread::sleep(Duration::from_millis(5 * (n - j) as u64));
                    tx.send(j).unwrap();
                });
            }
            let mut got = vec![false; n];
            let mut remaining = n;
            let deadline = Instant::now() + Duration::from_secs(5);
            while remaining > 0 {
                let mut sel = Select::new();
                let mut idx = Vec::new();
                for (j, (_, rx)) in chans.iter().enumerate() {
                    if !got[j] {
                        idx.push(j);
                        sel.recv(rx);
                    }
                }
                let i = sel.ready_deadline(deadline).unwrap();
                let j = idx[i];
                match chans[j].1.try_recv() {
                    Ok(v) => {
                        assert_eq!(v, j);
                        got[j] = true;
                        remaining -= 1;
                    }
                    Err(TryRecvError::Empty) => continue,
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        });
    }
}
