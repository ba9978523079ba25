//! Store configuration.

use std::time::Duration;

use spcache_workload::StragglerModel;

use crate::fault::FaultPlan;

/// Client-side retry behaviour for reads (the robust read path).
///
/// Each attempt re-locates the file through the master, so a retry after
/// an under-store recovery observes the healed placement. Backoff is
/// exponential: attempt `i` (1-based) sleeps `base_backoff * 2^(i-1)`
/// before retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total read attempts (1 = no retries).
    pub max_attempts: u32,
    /// First backoff; doubles per attempt.
    pub base_backoff: Duration,
    /// Deadline for one whole **read attempt** (or one write fan-out) —
    /// *not* per partition. All `k` partition fetches of a fork-join read
    /// run under this single window: the select-driven join consumes
    /// replies as they land, so a `k = 8` read with one straggler fails
    /// (or hedges) after ~one deadline, never eight. A worker whose reply
    /// is still outstanding when the window closes counts as timed out
    /// (it may be hung, not dead — the master tracks the distinction via
    /// suspicion counts).
    pub deadline: Duration,
}

impl RetryPolicy {
    /// A single attempt with a generous deadline — the seed behaviour.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            deadline: Duration::from_secs(30),
        }
    }

    /// Sets the per-partition deadline (builder style).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }
}

impl Default for RetryPolicy {
    /// Four attempts, 5 ms initial backoff, 2 s partition deadline.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            deadline: Duration::from_secs(2),
        }
    }
}

/// Hedged-request mode: EC-Cache's late binding adapted to a
/// redundancy-free cache. There is no replica to duplicate the fetch to,
/// so after `straggler_threshold` of silence the client reads the
/// partition's byte range from the under-store checkpoint instead and
/// uses whichever copy it has first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// Whether hedging is active (needs an attached under-store).
    pub enabled: bool,
    /// Silence after which the hedge fires.
    pub straggler_threshold: Duration,
}

impl HedgePolicy {
    /// Hedging off (the default).
    pub fn disabled() -> Self {
        HedgePolicy {
            enabled: false,
            straggler_threshold: Duration::from_millis(50),
        }
    }

    /// Hedging after `threshold` of per-partition silence.
    pub fn after(threshold: Duration) -> Self {
        HedgePolicy {
            enabled: true,
            straggler_threshold: threshold,
        }
    }
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy::disabled()
    }
}

/// What a supervised client does with an operation on a file whose
/// recovery is currently in flight elsewhere (sweep or another client's
/// lazy repair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// Keep the operation in the retry loop (bounded by the client's
    /// [`RetryPolicy`]): back off and re-locate until the repair lands
    /// or the retry budget runs out. The default.
    Queue,
    /// Fail the operation immediately with
    /// [`crate::rpc::StoreError::Degraded`] so callers can shed load
    /// instead of stampeding the under-store.
    FastFail,
}

/// Configuration of the master-side supervisor: the autonomous
/// heartbeat → suspicion → death → recovery-sweep loop (DESIGN.md
/// §4.11). Disabled by default — with `enabled == false` nothing is
/// spawned and the store behaves exactly as it did without a
/// supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Whether a supervisor runs at all.
    pub enabled: bool,
    /// Period between heartbeat rounds. `Duration::ZERO` spawns the
    /// supervisor without a background thread: ticks only happen when
    /// driven explicitly (deterministic tests).
    pub heartbeat_interval: Duration,
    /// How long one `Ping` may take before it counts as a miss.
    pub probe_timeout: Duration,
    /// Consecutive misses after which a suspect worker is declared
    /// dead (the master's suspicion ladder threshold).
    pub suspicion_threshold: u32,
    /// Admission policy for operations on files whose repair is in
    /// flight.
    pub degraded: DegradedPolicy,
}

impl SupervisorConfig {
    /// Supervisor off — zero behavior change.
    pub fn disabled() -> Self {
        SupervisorConfig {
            enabled: false,
            heartbeat_interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(50),
            suspicion_threshold: 3,
            degraded: DegradedPolicy::Queue,
        }
    }

    /// Supervisor on with the default cadence (100 ms heartbeats, 50 ms
    /// probe timeout, 3-miss suspicion ladder, queueing admission).
    pub fn enabled() -> Self {
        SupervisorConfig {
            enabled: true,
            ..SupervisorConfig::disabled()
        }
    }

    /// Sets the heartbeat period (builder style). `Duration::ZERO`
    /// means manual ticks only.
    #[must_use]
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Sets the per-probe timeout (builder style).
    #[must_use]
    pub fn with_probe_timeout(mut self, timeout: Duration) -> Self {
        self.probe_timeout = timeout;
        self
    }

    /// Sets the suspicion threshold (builder style).
    #[must_use]
    pub fn with_threshold(mut self, threshold: u32) -> Self {
        self.suspicion_threshold = threshold.max(1);
        self
    }

    /// Sets the degraded-mode admission policy (builder style).
    #[must_use]
    pub fn with_degraded(mut self, policy: DegradedPolicy) -> Self {
        self.degraded = policy;
        self
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig::disabled()
    }
}

/// Static configuration of an in-process store cluster.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of worker (cache-server) threads.
    pub n_workers: usize,
    /// Emulated NIC bandwidth per worker, bytes/s (`f64::INFINITY` for
    /// full speed — the default for unit tests).
    pub bandwidth: f64,
    /// Straggler injection applied per partition transfer.
    pub stragglers: StragglerModel,
    /// RNG seed for straggler draws.
    pub seed: u64,
    /// Scripted faults injected into the workers (empty by default).
    pub faults: FaultPlan,
    /// Read retry policy handed to clients created via
    /// [`crate::cluster::StoreCluster::client`].
    pub retry: RetryPolicy,
    /// Hedged-read policy handed to clients.
    pub hedge: HedgePolicy,
    /// Master-side supervisor (heartbeats, epoch fencing, recovery
    /// sweeps). Off by default.
    pub supervisor: SupervisorConfig,
    /// Deadline for one repartition-executor exchange (pull / staged
    /// push / commit step) — `repartitioner`'s former hardcoded 5 s,
    /// now tunable so chaos tests and the recovery sweep can tighten
    /// it.
    pub executor_deadline: Duration,
    /// Per-worker memory budget in bytes (`None` = unbounded, the seed
    /// behaviour). With a budget, each worker runs a partition-granular
    /// LRU: overflow spills cold partitions to the under-store tier and
    /// reads of evicted partitions transparently reload (DESIGN.md
    /// §4.13).
    pub memory_budget: Option<usize>,
    /// Fraction of each worker's NIC granted to background traffic
    /// (recovery sweeps, repartition moves, spill/reload), in `(0, 1]`.
    /// `1.0` (the default) disables the second bucket — background
    /// shares the full rate like any other traffic.
    pub background_fraction: f64,
    /// Checksum verification on the read path (DESIGN.md §4.15): workers
    /// verify resident partitions on the first read after every byte
    /// movement (landing, reload, rename), and clients verify received
    /// partitions against the master's integrity metadata. Off by
    /// default — spill *reloads* are always verified regardless (a
    /// reload crosses the slow tier, where bit rot lives).
    pub verify_reads: bool,
    /// Number of Cauchy-RS parity partitions written per file (`r` in a
    /// `k + r` layout). `0` (the default) writes none; corruption then
    /// heals via the under-store instead of a client-side decode.
    pub parity: usize,
    /// Whether workers print a `CORRUPT <file> <partition>` line on each
    /// checksum failure (the `spcached` deployment behaviour; off in
    /// tests to keep output deterministic).
    pub log_corruptions: bool,
}

impl StoreConfig {
    /// Full-speed cluster with `n_workers` workers (unit-test default).
    pub fn unthrottled(n_workers: usize) -> Self {
        StoreConfig {
            n_workers,
            bandwidth: f64::INFINITY,
            stragglers: StragglerModel::none(),
            seed: 1,
            faults: FaultPlan::none(),
            retry: RetryPolicy::none(),
            hedge: HedgePolicy::disabled(),
            supervisor: SupervisorConfig::disabled(),
            executor_deadline: Duration::from_secs(5),
            memory_budget: None,
            background_fraction: 1.0,
            verify_reads: false,
            parity: 0,
            log_corruptions: false,
        }
    }

    /// Throttled cluster: `bandwidth` bytes/s per worker (experiments).
    pub fn throttled(n_workers: usize, bandwidth: f64) -> Self {
        StoreConfig {
            bandwidth,
            ..StoreConfig::unthrottled(n_workers)
        }
    }

    /// Sets the straggler model (builder style).
    pub fn with_stragglers(mut self, s: StragglerModel) -> Self {
        self.stragglers = s;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the client retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the client hedge policy.
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = hedge;
        self
    }

    /// Sets the supervisor configuration.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Sets the repartition-executor deadline.
    pub fn with_executor_deadline(mut self, deadline: Duration) -> Self {
        self.executor_deadline = deadline.max(Duration::from_millis(1));
        self
    }

    /// Sets the per-worker memory budget in bytes (`None` = unbounded).
    pub fn with_memory_budget(mut self, budget: Option<usize>) -> Self {
        self.memory_budget = budget;
        self
    }

    /// Enables read-path checksum verification (builder style).
    pub fn with_verify_reads(mut self, verify: bool) -> Self {
        self.verify_reads = verify;
        self
    }

    /// Sets the number of Cauchy-RS parity partitions per file
    /// (builder style).
    pub fn with_parity(mut self, r: usize) -> Self {
        self.parity = r;
        self
    }

    /// Enables `CORRUPT` log lines on checksum failures (builder style).
    pub fn with_corruption_log(mut self, log: bool) -> Self {
        self.log_corruptions = log;
        self
    }

    /// Sets the background NIC fraction (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction <= 1.0`.
    pub fn with_background_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "background fraction must be in (0, 1], got {fraction}"
        );
        self.background_fraction = fraction;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let c = StoreConfig::unthrottled(4);
        assert_eq!(c.n_workers, 4);
        assert!(c.bandwidth.is_infinite());
        assert!(c.faults.is_empty());
        let t = StoreConfig::throttled(8, 50e6).with_seed(9);
        assert_eq!(t.n_workers, 8);
        assert_eq!(t.bandwidth, 50e6);
        assert_eq!(t.seed, 9);
    }

    #[test]
    fn fault_and_policy_builders() {
        let c = StoreConfig::unthrottled(2)
            .with_faults(FaultPlan::none().crash(0, 3))
            .with_retry(RetryPolicy::default())
            .with_hedge(HedgePolicy::after(Duration::from_millis(10)));
        assert_eq!(c.faults.events().len(), 1);
        assert_eq!(c.retry.max_attempts, 4);
        assert!(c.hedge.enabled);
    }

    #[test]
    fn supervisor_defaults_are_off_and_builders_apply() {
        let c = StoreConfig::unthrottled(4);
        assert!(!c.supervisor.enabled, "supervisor must default off");
        assert_eq!(c.executor_deadline, Duration::from_secs(5));
        let c = c
            .with_supervisor(
                SupervisorConfig::enabled()
                    .with_interval(Duration::from_millis(20))
                    .with_probe_timeout(Duration::from_millis(10))
                    .with_threshold(2)
                    .with_degraded(DegradedPolicy::FastFail),
            )
            .with_executor_deadline(Duration::from_millis(500));
        assert!(c.supervisor.enabled);
        assert_eq!(c.supervisor.heartbeat_interval, Duration::from_millis(20));
        assert_eq!(c.supervisor.suspicion_threshold, 2);
        assert_eq!(c.supervisor.degraded, DegradedPolicy::FastFail);
        assert_eq!(c.executor_deadline, Duration::from_millis(500));
    }

    #[test]
    fn budget_defaults_off_and_builders_apply() {
        let c = StoreConfig::unthrottled(2);
        assert_eq!(c.memory_budget, None, "budget must default unbounded");
        assert_eq!(c.background_fraction, 1.0);
        let c = c
            .with_memory_budget(Some(1 << 20))
            .with_background_fraction(0.25);
        assert_eq!(c.memory_budget, Some(1 << 20));
        assert_eq!(c.background_fraction, 0.25);
    }

    #[test]
    fn integrity_defaults_off_and_builders_apply() {
        let c = StoreConfig::unthrottled(2);
        assert!(!c.verify_reads, "verification must default off");
        assert_eq!(c.parity, 0, "parity must default off");
        assert!(!c.log_corruptions);
        let c = c.with_verify_reads(true).with_parity(2).with_corruption_log(true);
        assert!(c.verify_reads);
        assert_eq!(c.parity, 2);
        assert!(c.log_corruptions);
    }

    #[test]
    #[should_panic(expected = "background fraction")]
    fn out_of_range_background_fraction_rejected() {
        let _ = StoreConfig::unthrottled(1).with_background_fraction(0.0);
    }

    #[test]
    fn retry_policy_none_is_single_attempt() {
        let r = RetryPolicy::none();
        assert_eq!(r.max_attempts, 1);
        assert_eq!(r.base_backoff, Duration::ZERO);
        let r = r.with_deadline(Duration::from_millis(100));
        assert_eq!(r.deadline, Duration::from_millis(100));
    }
}
