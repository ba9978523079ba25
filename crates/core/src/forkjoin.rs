//! The fork-join mean-latency upper bound (paper Eq. 9, after Xiang et al.
//! \[45\], Lemma 2).
//!
//! A read of file `i` forks into `k_i` partition reads and joins on the
//! slowest, so `T̄_i = E[max_s Q_{i,s}]` — intractable exactly, but upper
//! bounded by
//!
//! ```text
//! T̂_i = min_z  z + Σ_s ½(E[Q_{i,s}] − z) + ½ √((E[Q_{i,s}] − z)² + Var[Q_{i,s}])
//! ```
//!
//! which is a 1-D *convex* minimization in the auxiliary variable `z`
//! (each summand is a convex "softplus-like" function of `z`). The paper
//! solves it with CVXPY; a derivative-free golden-section search over an
//! adaptively expanded bracket reaches the same minimum to tolerance in
//! microseconds, which is what makes tuning over 10k files cheap
//! (Fig. 10).

use spcache_workload::StragglerModel;

use crate::file::FileSet;
use crate::goodput::Goodput;
use crate::mg1::ClusterModel;
use crate::partition::PartitionMap;

/// Golden-section search settings for the inner minimization.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Absolute tolerance on `z` (seconds).
    pub tol: f64,
    /// Hard cap on iterations (the bracket shrinks by ~0.618 per step).
    pub max_iters: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            tol: 1e-9,
            max_iters: 200,
        }
    }
}

/// Parameters of the system-level bound.
#[derive(Debug)]
pub struct BoundConfig {
    /// Inner convex-solver settings.
    pub solver: SolverConfig,
    /// Client-NIC goodput decay: reading `k` partitions in parallel
    /// funnels through one client link at `client_bandwidth · g(k)`,
    /// flooring each file's latency at `S_i / (B · g(k_i))`. Set to
    /// [`Goodput::ideal`] with `client_bandwidth = ∞` to recover the
    /// paper's pure fork-join model.
    pub goodput: Goodput,
    /// Client NIC bandwidth (bytes/s). `f64::INFINITY` disables the floor.
    pub client_bandwidth: f64,
    /// Straggler exposure: a fork-join read of `k` partitions is delayed
    /// by the *maximum* straggler factor among them, so each file's floor
    /// is inflated by `E[max of k draws]` (§5's "small enough to restrain
    /// the impact of stragglers"). Defaults to no stragglers — the paper's
    /// pure model.
    pub stragglers: StragglerModel,
}

impl BoundConfig {
    /// The paper's pure queueing model: no client floor at all.
    pub fn pure_forkjoin() -> Self {
        BoundConfig {
            solver: SolverConfig::default(),
            goodput: Goodput::ideal(),
            client_bandwidth: f64::INFINITY,
            stragglers: StragglerModel::none(),
        }
    }

    /// The default: fork-join bound plus a client-NIC floor at the given
    /// bandwidth with Fig. 6's 1 Gbps goodput decay.
    pub fn with_client_bandwidth(bandwidth: f64) -> Self {
        BoundConfig {
            solver: SolverConfig::default(),
            goodput: Goodput::gbps1(),
            client_bandwidth: bandwidth,
            stragglers: StragglerModel::none(),
        }
    }
}

impl Clone for BoundConfig {
    fn clone(&self) -> Self {
        BoundConfig {
            solver: self.solver,
            goodput: self.goodput,
            client_bandwidth: self.client_bandwidth,
            stragglers: self.stragglers.clone(),
        }
    }
}

/// Eq. 9's objective at a given `z` for one file's sojourn moments.
#[inline]
fn objective(z: f64, moments: &[(f64, f64)]) -> f64 {
    let mut acc = z;
    for &(mean, var) in moments {
        let d = mean - z;
        acc += 0.5 * (d + (d * d + var).sqrt());
    }
    acc
}

/// Upper-bounds the mean read latency of one file given the
/// `(E[Q_{i,s}], Var[Q_{i,s}])` pairs of its partition servers.
///
/// Returns `f64::INFINITY` if any queue is unstable.
///
/// # Panics
///
/// Panics if `moments` is empty.
pub fn file_latency_bound(moments: &[(f64, f64)], cfg: &SolverConfig) -> f64 {
    assert!(!moments.is_empty(), "file must have at least one partition");
    if moments
        .iter()
        .any(|&(m, v)| !m.is_finite() || !v.is_finite())
    {
        return f64::INFINITY;
    }
    // Single partition: no fork-join max — the bound tightens to E[Q]
    // (the minimization's infimum as z → −∞).
    if moments.len() == 1 {
        return moments[0].0;
    }

    // Bracket the minimizer. The optimum satisfies
    // Σ (E_s − z)/√((E_s−z)² + V_s) = 2 − k, which for k ≥ 2 lies below
    // max(E); expand left until the derivative is negative.
    let max_mean = moments.iter().map(|&(m, _)| m).fold(f64::MIN, f64::max);
    let max_sd = moments
        .iter()
        .map(|&(_, v)| v.sqrt())
        .fold(0.0f64, f64::max);
    let hi = max_mean + max_sd + 1e-12;
    let mut lo = max_mean - (max_sd + 1.0);
    // Expand the left edge until f(lo) is decreasing toward the minimum
    // (guaranteed to terminate: derivative → 1 − (k−1) < 0 as z → −∞ for
    // k ≥ 2 only up to the point where the sqrt terms saturate).
    let mut guard = 0;
    while objective(lo, moments) < objective(lo + 1e-6, moments) && guard < 128 {
        let width = hi - lo;
        lo -= width;
        guard += 1;
    }

    // Golden-section search.
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let mut fc = objective(c, moments);
    let mut fd = objective(d, moments);
    for _ in 0..cfg.max_iters {
        if (b - a).abs() < cfg.tol {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = objective(c, moments);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = objective(d, moments);
        }
    }
    let z = 0.5 * (a + b);
    objective(z, moments)
}

/// The popularity-weighted system bound `T̂ = Σ_i P_i · T̂_i` (Eq. 8 with
/// each `T̄_i` replaced by its bound), with each file's bound additionally
/// floored by the client-NIC transfer time `S_i / (B_client · g(k_i))`
/// (see [`BoundConfig`]).
///
/// Returns `f64::INFINITY` if any server queue is unstable.
pub fn system_latency_bound(
    files: &FileSet,
    rates: &[f64],
    map: &PartitionMap,
    bandwidths: &[f64],
    cfg: &BoundConfig,
) -> f64 {
    let model = ClusterModel::build(files, rates, map, bandwidths);
    if !model.all_stable() {
        return f64::INFINITY;
    }
    let mut total = 0.0;
    for (i, meta) in files.iter() {
        let moments = model.sojourn_moments(files, map, i);
        let mut t_i = file_latency_bound(&moments, &cfg.solver);
        if !t_i.is_finite() {
            return f64::INFINITY;
        }
        if cfg.client_bandwidth.is_finite() {
            let k = map.k_of(i);
            let floor = meta.size_bytes / (cfg.client_bandwidth * cfg.goodput.factor(k))
                * cfg.stragglers.expected_max_factor(k);
            t_i = t_i.max(floor);
        }
        total += meta.popularity * t_i;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileSet;
    use crate::partition::PartitionMap;

    #[test]
    fn single_partition_bound_is_exact_mean() {
        let cfg = SolverConfig::default();
        assert_eq!(file_latency_bound(&[(0.3, 0.09)], &cfg), 0.3);
    }

    #[test]
    fn bound_dominates_max_of_means() {
        // E[max] >= max(E), and the bound dominates E[max].
        let cfg = SolverConfig::default();
        let moments = vec![(0.2, 0.04), (0.5, 0.25), (0.3, 0.09)];
        let b = file_latency_bound(&moments, &cfg);
        assert!(b >= 0.5, "bound {b} below max mean");
    }

    #[test]
    fn zero_variance_bound_equals_max_mean() {
        // Deterministic sojourns: max is deterministic, bound is tight.
        let cfg = SolverConfig::default();
        let moments = vec![(0.2, 0.0), (0.5, 0.0), (0.3, 0.0)];
        let b = file_latency_bound(&moments, &cfg);
        assert!((b - 0.5).abs() < 1e-6, "bound {b} should equal 0.5");
    }

    #[test]
    fn bound_tight_against_exponential_forkjoin() {
        // k iid exponential(1) sojourns: E[max] = H_k (harmonic number).
        // The Xiang et al. bound is known to be within ~15% for small k.
        let cfg = SolverConfig::default();
        for k in [2usize, 4, 8] {
            let moments = vec![(1.0, 1.0); k];
            let b = file_latency_bound(&moments, &cfg);
            let h_k: f64 = (1..=k).map(|j| 1.0 / j as f64).sum();
            assert!(b >= h_k - 1e-9, "k={k}: bound {b} below E[max] = {h_k}");
            assert!(
                b <= h_k * 1.35,
                "k={k}: bound {b} too loose vs E[max] = {h_k}"
            );
        }
    }

    #[test]
    fn bound_increases_with_variance() {
        let cfg = SolverConfig::default();
        let lo = file_latency_bound(&[(1.0, 0.1), (1.0, 0.1)], &cfg);
        let hi = file_latency_bound(&[(1.0, 1.0), (1.0, 1.0)], &cfg);
        assert!(hi > lo);
    }

    #[test]
    fn infinite_moments_propagate() {
        let cfg = SolverConfig::default();
        let b = file_latency_bound(&[(f64::INFINITY, 1.0), (1.0, 1.0)], &cfg);
        assert!(b.is_infinite());
    }

    #[test]
    fn system_bound_weights_by_popularity() {
        // Two files, both single-partition on separate idle-ish servers:
        // the system bound is the popularity-weighted mean of the E[Q].
        let files = FileSet::from_parts(&[1e8, 1e8], &[0.8, 0.2]);
        let rates = files.request_rates(2.0);
        let map = PartitionMap::new(vec![vec![0], vec![1]], 2);
        let bw = [1e9, 1e9];
        let cfg = BoundConfig::pure_forkjoin();
        let total = system_latency_bound(&files, &rates, &map, &bw, &cfg);
        // Per-file E[Q] from the M/M/1 closed form: t = 0.1s.
        let t = 0.1;
        let e0 = 1.0 / (1.0 / t - rates[0]);
        let e1 = 1.0 / (1.0 / t - rates[1]);
        let expect = 0.8 * e0 + 0.2 * e1;
        assert!(
            (total - expect).abs() < 1e-9,
            "system bound {total} vs {expect}"
        );
    }

    #[test]
    fn system_bound_infinite_when_overloaded() {
        // One server, service 1 s, arrivals 2/s → unstable.
        let files = FileSet::uniform_size(1e9, &[1.0]);
        let map = PartitionMap::new(vec![vec![0]], 1);
        let cfg = BoundConfig::pure_forkjoin();
        let b = system_latency_bound(&files, &[2.0], &map, &[1e9], &cfg);
        assert!(b.is_infinite());
    }

    #[test]
    fn splitting_hot_file_lowers_system_bound() {
        // The core SP-Cache claim in miniature: splitting the hot file
        // across servers reduces the bound.
        let files = FileSet::uniform_size(5e8, &[0.9, 0.1]);
        let rates = files.request_rates(3.0);
        let bw = [1e9; 4];
        let cfg = BoundConfig::pure_forkjoin();
        let unsplit = PartitionMap::new(vec![vec![0], vec![1]], 4);
        let split = PartitionMap::new(vec![vec![0, 1, 2, 3], vec![1]], 4);
        let b_unsplit = system_latency_bound(&files, &rates, &unsplit, &bw, &cfg);
        let b_split = system_latency_bound(&files, &rates, &split, &bw, &cfg);
        assert!(
            b_split < b_unsplit,
            "split {b_split} should beat unsplit {b_unsplit}"
        );
    }
}
