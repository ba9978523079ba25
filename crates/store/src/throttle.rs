//! Token-bucket bandwidth throttling and the two-class NIC scheduler.
//!
//! Workers emulate a NIC of a configured bandwidth: a `b`-byte transfer
//! is paid off once the bucket has accumulated `b` tokens, and the
//! worker releases its reply at that instant instead of sleeping until
//! it. This is what turns the in-process store into a believable
//! cluster — parallel partition reads genuinely overlap their "transfers"
//! across workers, while one worker serving two clients halves each
//! one's throughput.
//!
//! On top of the raw bucket sits [`NicScheduler`], the §4.4-derived
//! two-class scheduler (DESIGN.md §4.13): *foreground* traffic (client
//! reads and writes) pays only the total-rate bucket, while *background*
//! traffic (recovery sweeps, repartition pushes, spill writebacks and
//! refills) additionally pays a bucket capped at
//! `background_fraction × rate`. Both constraints apply simultaneously —
//! the transfer is paid off when the slower of the two buckets has paid
//! out — so background streams can never take more than their fraction
//! of the NIC, and a supervisor sweep cannot starve foreground Zipf
//! traffic.
//!
//! Reservations are deadline-aware: [`NicScheduler::reserve_within`]
//! *refuses* (without charging the buckets) a transfer whose projected
//! completion would overrun the caller's deadline. Workers use this to
//! bound every emulated transfer by the executor deadline, so a
//! throttled push can no longer outlive
//! [`crate::repartitioner::DEFAULT_EXECUTOR_DEADLINE`].
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::time::{Duration, Instant};

wire! {
    /// Which class of traffic a transfer belongs to (see [`NicScheduler`]).
    /// On the wire it is a stamp's class byte.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum TrafficClass else "unknown traffic class {}" {
        /// Client-facing data path: reads and writes.
        #[default]
        Foreground = 0,
        /// Maintenance byte streams: recovery sweeps, repartition pushes,
        /// spill writebacks, refills of evicted partitions.
        Background = 1,
    }
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
    /// instant the transfer is paid off.
    fn charge(&mut self, bytes: usize, now: Instant) -> Instant {
        if self.rate.is_infinite() {
            return now;
        }
        self.paid_until = self.projected_finish(bytes, now);
        self.paid_until
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

    /// Charges `bytes` under `class` from now on and returns the instant
    /// the transfer is paid off. Consecutive reservations serialize: the
    /// NIC streams one partition at a time (the FIFO queue of the
    /// analytic model).
    pub fn reserve(&mut self, bytes: usize, class: TrafficClass) -> Instant {
        self.charge(bytes, class, Instant::now())
    }

    /// Like [`NicScheduler::reserve`], but refuses — charging and
    /// counting nothing — when the transfer would be paid off after
    /// `deadline`. The unpaid tokens stay available for transfers that
    /// can still make their deadlines.
    pub fn reserve_within(
        &mut self,
        bytes: usize,
        class: TrafficClass,
        deadline: Instant,
    ) -> Option<Instant> {
        let now = Instant::now();
        (self.projected_finish(bytes, class, now) <= deadline)
            .then(|| self.charge(bytes, class, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seconds from `t0` until `paid`.
    fn secs(t0: Instant, paid: Instant) -> f64 {
        paid.duration_since(t0).as_secs_f64()
    }

    #[test]
    fn infinite_rate_is_paid_off_at_once() {
        let mut tb = TokenBucket::new(f64::INFINITY);
        let now = Instant::now();
        assert_eq!(tb.charge(usize::MAX / 2, now), now);
    }

    #[test]
    fn rate_is_enforced() {
        // 10 MB/s, transfer 2 MB → paid off 200 ms out.
        let mut tb = TokenBucket::new(10e6);
        let now = Instant::now();
        let dt = secs(now, tb.charge(2_000_000, now));
        assert!((dt - 0.2).abs() < 1e-6, "paid off after {dt}s, expected 0.2s");
    }

    #[test]
    fn consecutive_transfers_serialize() {
        // Two 1 MB transfers at 10 MB/s granted at once → 200 ms.
        let mut tb = TokenBucket::new(10e6);
        let now = Instant::now();
        tb.charge(1_000_000, now);
        let dt = secs(now, tb.charge(1_000_000, now));
        assert!((dt - 0.2).abs() < 1e-6, "paid off after {dt}s, expected 0.2s");
    }

    #[test]
    fn an_idle_bucket_starts_from_now() {
        let mut tb = TokenBucket::new(10e6);
        let t0 = Instant::now();
        tb.charge(1_000_000, t0);
        // Granted after the first transfer was paid off: no backlog.
        let later = t0 + Duration::from_secs(1);
        let dt = secs(later, tb.charge(1_000_000, later));
        assert!((dt - 0.1).abs() < 1e-6, "paid off after {dt}s, expected 0.1s");
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut tb = TokenBucket::new(1.0); // 1 byte/s
        let now = Instant::now();
        assert_eq!(tb.charge(0, now), now);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(0.0);
    }

    #[test]
    fn reserve_within_refuses_past_deadline_without_charging() {
        // 1 MB/s: a 1 MB transfer takes 1 s, far past a 50 ms deadline.
        let mut nic = NicScheduler::new(1e6, 1.0);
        let t0 = Instant::now();
        assert_eq!(
            nic.reserve_within(1_000_000, TrafficClass::Foreground, t0 + Duration::from_millis(50)),
            None
        );
        assert_eq!(nic.class_bytes(), (0, 0), "a refusal counts nothing");
        // The refused transfer left the bucket uncharged: a small one
        // that fits its own deadline is paid off 10 ms out, not 1 s.
        let paid = nic
            .reserve_within(10_000, TrafficClass::Foreground, t0 + Duration::from_millis(500))
            .expect("fits its deadline");
        assert!(secs(t0, paid) < 0.1, "paid off after {}s", secs(t0, paid));
    }

    #[test]
    fn reserve_within_grants_transfers_that_fit() {
        let mut nic = NicScheduler::new(10e6, 1.0);
        let t0 = Instant::now();
        let paid = nic
            .reserve_within(1_000_000, TrafficClass::Foreground, t0 + Duration::from_secs(1))
            .expect("fits its deadline");
        assert!(secs(t0, paid) >= 0.1, "the transfer is still paced");
        assert_eq!(nic.class_bytes(), (1_000_000, 0));
    }

    #[test]
    fn reserving_never_sleeps() {
        let mut nic = NicScheduler::new(1e6, 0.5);
        let t0 = Instant::now();
        let paid = nic.reserve(1_000_000, TrafficClass::Background);
        assert!(t0.elapsed() < Duration::from_millis(50), "the caller was held up");
        assert!(secs(t0, paid) >= 2.0, "1 MB at 0.5 MB/s is paid off 2 s out");
    }

    #[test]
    fn background_class_is_paced_to_its_fraction() {
        // 10 MB/s NIC, background capped at 25% = 2.5 MB/s:
        // 1 MB of background is paid off at ~400 ms, not ~100 ms.
        let mut nic = NicScheduler::new(10e6, 0.25);
        let t0 = Instant::now();
        let dt = secs(t0, nic.reserve(1_000_000, TrafficClass::Background));
        assert!((0.4..0.45).contains(&dt), "background paid off after {dt}s, expected ~0.4s");
        assert_eq!(nic.class_bytes(), (0, 1_000_000));
    }

    #[test]
    fn foreground_keeps_the_full_rate() {
        let mut nic = NicScheduler::new(10e6, 0.25);
        let t0 = Instant::now();
        let dt = secs(t0, nic.reserve(1_000_000, TrafficClass::Foreground));
        assert!((0.1..0.15).contains(&dt), "foreground paid off after {dt}s, expected ~0.1s");
        assert_eq!(nic.class_bytes(), (1_000_000, 0));
    }

    #[test]
    fn full_fraction_collapses_to_single_bucket() {
        let mut nic = NicScheduler::new(10e6, 1.0);
        let t0 = Instant::now();
        let dt = secs(t0, nic.reserve(1_000_000, TrafficClass::Background));
        assert!(
            (0.1..0.15).contains(&dt),
            "fraction 1.0 background paid off after {dt}s, expected the full rate"
        );
    }

    #[test]
    fn background_bytes_stay_under_the_fraction_over_a_window() {
        // A saturating background stream on a 10 MB/s NIC with a 30%
        // fraction: 40 chunks of 50 kB are paid off no sooner than the
        // fraction allows, less the one chunk in flight.
        let mut nic = NicScheduler::new(10e6, 0.3);
        let chunk = 50_000usize;
        let t0 = Instant::now();
        let mut paid = t0;
        for _ in 0..40 {
            paid = nic.reserve(chunk, TrafficClass::Background);
        }
        let moved = 40.0 * chunk as f64;
        let cap = 0.3 * 10e6 * secs(t0, paid) + chunk as f64;
        assert!(moved <= cap * 1.05, "background moved {moved} bytes, cap {cap}");
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_background_fraction_rejected() {
        let _ = NicScheduler::new(10e6, 0.0);
    }
}
