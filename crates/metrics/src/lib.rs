#![warn(missing_docs)]

//! Statistics for SP-Cache experiments.
//!
//! Every number the paper reports is produced by one of these primitives:
//!
//! * [`summary::Summary`] — streaming mean / variance / coefficient of
//!   variation (Welford's algorithm), used for every "mean latency" and
//!   "CV" row (Tables 1–3),
//! * [`percentile::Samples`] — exact percentiles from retained samples
//!   (the tail-latency curves) and [`percentile::P2Quantile`], a constant
//!   memory streaming estimator for long simulations,
//! * [`histogram::LogHistogram`] — log-bucketed latency histogram with CDF
//!   export (Fig. 21's latency distributions),
//! * [`imbalance::LoadTracker`] — per-server byte accounting and the
//!   imbalance factor `η = (L_max − L_avg)/L_avg` (Eq. 15, Figs. 12/18).

pub mod histogram;
pub mod imbalance;
pub mod percentile;
pub mod summary;

pub use histogram::LogHistogram;
pub use imbalance::LoadTracker;
pub use percentile::{P2Quantile, Samples};
pub use summary::Summary;
