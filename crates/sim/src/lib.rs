#![warn(missing_docs)]

//! Discrete-event simulation kernel for the SP-Cache reproduction.
//!
//! This crate provides the small, deterministic substrate on which the
//! cluster-cache simulator (`spcache-cluster`) is built:
//!
//! * [`SimTime`] — a totally-ordered simulated clock in seconds,
//! * [`EventQueue`] — a deterministic time-ordered event heap (ties broken
//!   by insertion order so runs are exactly reproducible),
//! * [`FifoQueue`] — an analytic single-server FIFO queue that turns an
//!   (arrival time, service time) pair into (start, finish) times, which is
//!   all an open-loop M/G/1 latency simulation needs,
//! * [`rng::Xoshiro256StarStar`] — a from-scratch, seedable, splittable PRNG
//!   implementing [`rand::Rng`] so every experiment is reproducible
//!   independent of the `rand` crate's internal algorithms.
//!
//! The kernel is intentionally free of any caching semantics; it knows about
//! time, events, queues and randomness only.

pub mod engine;
pub mod event;
pub mod queue;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use queue::FifoQueue;
pub use rng::Xoshiro256StarStar;
pub use time::SimTime;
