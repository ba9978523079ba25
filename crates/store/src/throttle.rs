//! Token-bucket bandwidth throttling and the two-class NIC scheduler.
//!
//! Workers emulate a NIC of a configured bandwidth: before replying with
//! `b` bytes, the worker sleeps until the bucket has accumulated `b`
//! tokens. This is what turns the in-process store into a believable
//! cluster — parallel partition reads genuinely overlap their "transfers"
//! across worker threads, while one worker serving two clients halves
//! each one's throughput.
//!
//! On top of the raw bucket sits [`NicScheduler`], the §4.4-derived
//! two-class scheduler (DESIGN.md §4.13): *foreground* traffic (client
//! reads and writes) pays only the total-rate bucket, while *background*
//! traffic (recovery sweeps, repartition pushes, spill writebacks and
//! refills) additionally pays a bucket capped at
//! `background_fraction × rate`. Both constraints apply simultaneously —
//! the wait ends when the slower of the two buckets has paid out — so
//! background streams can never take more than their fraction of the
//! NIC, and a supervisor sweep cannot starve foreground Zipf traffic.
//!
//! Waits are deadline-aware: [`TokenBucket::consume_within`] and
//! [`NicScheduler::consume_within`] *refuse* (without charging the
//! buckets) a transfer whose projected completion would overrun the
//! caller's deadline, instead of sleeping through it. Workers use this
//! to bound every emulated transfer by the executor deadline, so a
//! throttled push can no longer outlive
//! [`crate::repartitioner::DEFAULT_EXECUTOR_DEADLINE`].

use std::time::{Duration, Instant};

/// Which class of traffic a transfer belongs to (see [`NicScheduler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficClass {
    /// Client-facing data path: reads and writes.
    #[default]
    Foreground,
    /// Maintenance byte streams: recovery sweeps, repartition pushes,
    /// spill writebacks, refills of evicted partitions.
    Background,
}

/// A token bucket paying out `rate` bytes per second.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    /// Time at which all previously granted tokens are paid off.
    paid_until: Instant,
}

impl TokenBucket {
    /// A bucket with the given rate in bytes/s; `f64::INFINITY` disables
    /// throttling.
    ///
    /// # Panics
    ///
    /// Panics on non-positive rate.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        TokenBucket {
            rate,
            paid_until: Instant::now(),
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The instant a `bytes`-sized transfer would finish if granted
    /// `now`, without charging the bucket.
    fn projected_finish(&self, bytes: usize, now: Instant) -> Instant {
        if self.rate.is_infinite() {
            return now;
        }
        let cost = Duration::from_secs_f64(bytes as f64 / self.rate);
        let start = if self.paid_until > now {
            self.paid_until
        } else {
            now
        };
        start + cost
    }

    /// Charges the bucket for `bytes` granted at `now` and returns the
    /// instant the transfer is paid off (the caller sleeps).
    fn charge(&mut self, bytes: usize, now: Instant) -> Instant {
        if self.rate.is_infinite() {
            return now;
        }
        self.paid_until = self.projected_finish(bytes, now);
        self.paid_until
    }

    /// Blocks until `bytes` of bandwidth have been "transferred".
    ///
    /// Consecutive calls serialize: the NIC streams one partition at a
    /// time (matching the FIFO queue of the analytic model).
    pub fn consume(&mut self, bytes: usize) {
        let now = Instant::now();
        let finish = self.charge(bytes, now);
        let wait = finish.saturating_duration_since(now);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    /// Like [`TokenBucket::consume`], but refuses the transfer — leaving
    /// the bucket **uncharged** — when its projected completion lies
    /// beyond `deadline`. Returns whether the transfer was performed.
    ///
    /// This is the deadline-respecting wait: a throttled worker answers
    /// `Timeout` instead of sleeping past the executor deadline, and the
    /// unpaid tokens stay available for requests that can still make
    /// their deadlines.
    pub fn consume_within(&mut self, bytes: usize, deadline: Instant) -> bool {
        let now = Instant::now();
        if self.projected_finish(bytes, now) > deadline {
            return false;
        }
        let finish = self.charge(bytes, now);
        let wait = finish.saturating_duration_since(now);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        true
    }
}

/// The per-worker two-class NIC: one bucket at the full configured rate
/// that **all** traffic pays, plus (when `background_fraction < 1`) a
/// second bucket at `background_fraction × rate` that only background
/// traffic pays. Background transfers complete when the slower of the
/// two buckets has paid out, bounding the background share of the NIC
/// at the configured fraction while foreground traffic keeps the full
/// rate to itself.
#[derive(Debug)]
pub struct NicScheduler {
    total: TokenBucket,
    background: Option<TokenBucket>,
    fg_bytes: u64,
    bg_bytes: u64,
}

impl NicScheduler {
    /// A scheduler over a NIC of `rate` bytes/s where background
    /// traffic may use at most `background_fraction` of it.
    /// `rate = f64::INFINITY` disables throttling entirely;
    /// `background_fraction = 1.0` collapses to the single-bucket
    /// behaviour (background indistinguishable from foreground).
    ///
    /// # Panics
    ///
    /// Panics on non-positive rate or a fraction outside `(0, 1]`.
    pub fn new(rate: f64, background_fraction: f64) -> Self {
        assert!(
            background_fraction > 0.0 && background_fraction <= 1.0,
            "background fraction must be in (0, 1]"
        );
        let background = (background_fraction < 1.0 && rate.is_finite())
            .then(|| TokenBucket::new(rate * background_fraction));
        NicScheduler {
            total: TokenBucket::new(rate),
            background,
            fg_bytes: 0,
            bg_bytes: 0,
        }
    }

    /// The full NIC rate.
    pub fn rate(&self) -> f64 {
        self.total.rate()
    }

    /// `(foreground, background)` bytes transferred so far.
    pub fn class_bytes(&self) -> (u64, u64) {
        (self.fg_bytes, self.bg_bytes)
    }

    fn account(&mut self, bytes: usize, class: TrafficClass) {
        match class {
            TrafficClass::Foreground => self.fg_bytes += bytes as u64,
            TrafficClass::Background => self.bg_bytes += bytes as u64,
        }
    }

    /// The instant a transfer would finish, without charging anything.
    fn projected_finish(&self, bytes: usize, class: TrafficClass, now: Instant) -> Instant {
        let mut finish = self.total.projected_finish(bytes, now);
        if class == TrafficClass::Background {
            if let Some(bg) = &self.background {
                finish = finish.max(bg.projected_finish(bytes, now));
            }
        }
        finish
    }

    /// Charges every applicable bucket and returns the pay-off instant.
    fn charge(&mut self, bytes: usize, class: TrafficClass, now: Instant) -> Instant {
        let mut finish = self.total.charge(bytes, now);
        if class == TrafficClass::Background {
            if let Some(bg) = &mut self.background {
                finish = finish.max(bg.charge(bytes, now));
            }
        }
        self.account(bytes, class);
        finish
    }

    /// Blocks until `bytes` have been "transferred" under `class`.
    pub fn consume(&mut self, bytes: usize, class: TrafficClass) {
        let now = Instant::now();
        let finish = self.charge(bytes, class, now);
        let wait = finish.saturating_duration_since(now);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    /// Deadline-aware transfer: refuses (charging nothing) when the
    /// projected completion would overrun `deadline`; otherwise performs
    /// the transfer and returns `true`.
    pub fn consume_within(
        &mut self,
        bytes: usize,
        class: TrafficClass,
        deadline: Instant,
    ) -> bool {
        let now = Instant::now();
        if self.projected_finish(bytes, class, now) > deadline {
            return false;
        }
        let finish = self.charge(bytes, class, now);
        let wait = finish.saturating_duration_since(now);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_rate_never_sleeps() {
        let mut tb = TokenBucket::new(f64::INFINITY);
        let t0 = Instant::now();
        tb.consume(usize::MAX / 2);
        assert!(t0.elapsed() < Duration::from_millis(10));
    }

    #[test]
    fn rate_is_enforced() {
        // 10 MB/s, transfer 2 MB → ~200 ms.
        let mut tb = TokenBucket::new(10e6);
        let t0 = Instant::now();
        tb.consume(2_000_000);
        let dt = t0.elapsed().as_secs_f64();
        assert!((0.18..0.4).contains(&dt), "took {dt}s, expected ~0.2s");
    }

    #[test]
    fn consecutive_transfers_serialize() {
        // Two 1 MB transfers at 10 MB/s → ~200 ms total.
        let mut tb = TokenBucket::new(10e6);
        let t0 = Instant::now();
        tb.consume(1_000_000);
        tb.consume(1_000_000);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.18, "took {dt}s, expected >= 0.2s");
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut tb = TokenBucket::new(1.0); // 1 byte/s
        let t0 = Instant::now();
        tb.consume(0);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(0.0);
    }

    #[test]
    fn consume_within_refuses_past_deadline_without_charging() {
        // 1 MB/s: a 1 MB transfer takes 1 s, far past a 50 ms deadline.
        let mut tb = TokenBucket::new(1e6);
        let t0 = Instant::now();
        assert!(!tb.consume_within(1_000_000, Instant::now() + Duration::from_millis(50)));
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "refusal must not sleep"
        );
        // The refused transfer left the bucket uncharged: a small
        // transfer that fits its own deadline still goes through now.
        assert!(tb.consume_within(10_000, Instant::now() + Duration::from_millis(500)));
    }

    #[test]
    fn consume_within_performs_transfers_that_fit() {
        let mut tb = TokenBucket::new(10e6);
        let t0 = Instant::now();
        assert!(tb.consume_within(1_000_000, Instant::now() + Duration::from_secs(1)));
        assert!(t0.elapsed().as_secs_f64() >= 0.08, "the transfer is still paced");
    }

    #[test]
    fn background_class_is_paced_to_its_fraction() {
        // 10 MB/s NIC, background capped at 25% = 2.5 MB/s:
        // 1 MB of background takes ~400 ms, not ~100 ms.
        let mut nic = NicScheduler::new(10e6, 0.25);
        let t0 = Instant::now();
        nic.consume(1_000_000, TrafficClass::Background);
        let dt = t0.elapsed().as_secs_f64();
        assert!(dt >= 0.35, "background took {dt}s, expected ~0.4s");
        assert_eq!(nic.class_bytes(), (0, 1_000_000));
    }

    #[test]
    fn foreground_keeps_the_full_rate() {
        let mut nic = NicScheduler::new(10e6, 0.25);
        let t0 = Instant::now();
        nic.consume(1_000_000, TrafficClass::Foreground);
        let dt = t0.elapsed().as_secs_f64();
        assert!(
            (0.08..0.3).contains(&dt),
            "foreground took {dt}s, expected ~0.1s"
        );
        assert_eq!(nic.class_bytes(), (1_000_000, 0));
    }

    #[test]
    fn full_fraction_collapses_to_single_bucket() {
        let mut nic = NicScheduler::new(10e6, 1.0);
        let t0 = Instant::now();
        nic.consume(1_000_000, TrafficClass::Background);
        let dt = t0.elapsed().as_secs_f64();
        assert!(
            (0.08..0.3).contains(&dt),
            "fraction 1.0 background took {dt}s, expected the full rate"
        );
    }

    #[test]
    fn background_bytes_stay_under_the_fraction_over_a_window() {
        // Saturating background load for ~300 ms on a 10 MB/s NIC with a
        // 30% fraction must move ≈ 0.9 MB, never more than the fraction
        // plus one in-flight transfer.
        let mut nic = NicScheduler::new(10e6, 0.3);
        let chunk = 50_000usize;
        let t0 = Instant::now();
        let mut moved = 0u64;
        while t0.elapsed() < Duration::from_millis(300) {
            nic.consume(chunk, TrafficClass::Background);
            moved += chunk as u64;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let cap = 0.3 * 10e6 * elapsed + chunk as f64;
        assert!(
            (moved as f64) <= cap * 1.05,
            "background moved {moved} bytes in {elapsed}s, cap {cap}"
        );
    }

    #[test]
    fn scheduler_consume_within_respects_deadlines() {
        let mut nic = NicScheduler::new(1e6, 0.5);
        // 1 MB background at 0.5 MB/s = 2 s, refused under a 100 ms cap.
        let t0 = Instant::now();
        assert!(!nic.consume_within(
            1_000_000,
            TrafficClass::Background,
            Instant::now() + Duration::from_millis(100)
        ));
        assert!(t0.elapsed() < Duration::from_millis(80));
        // Nothing was charged or accounted.
        assert_eq!(nic.class_bytes(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_background_fraction_rejected() {
        let _ = NicScheduler::new(10e6, 0.0);
    }
}
