//! Timeout-aware first-principles queue simulator (§2.2, Algorithm 1).
//!
//! This is the paper's G/G/k queuing simulator: queries arrive, wait
//! FIFO, and depart after their (sampled) service time. A timeout
//! relative to each query's arrival triggers sprinting — before
//! dispatch it marks the query to sprint from the start; after dispatch
//! it accelerates the remaining work immediately, budget permitting.
//! Sprinting applies a *uniform* linear speedup to remaining work
//! (Equation 1): the simulator deliberately knows nothing about phases,
//! toggle overheads, or interference. Feeding it the machine-learned
//! *effective sprint rate* µe instead of the profiled marginal rate µm
//! is what closes that gap (§2.3).
//!
//! The paper's pseudo-code steps a microsecond clock; we schedule
//! events instead, with identical semantics at microsecond resolution
//! but O(events) cost — this is what makes the Fig. 11 throughput
//! numbers (hundreds of predictions per minute, scaling with cores)
//! easy to reproduce.
//!
//! # Examples
//!
//! An M/M/1 queue at 50% load with a 60-second mean service time has a
//! closed-form mean response time of 120 seconds:
//!
//! ```
//! use qsim::{Qsim, QsimConfig};
//! use simcore::dist::Dist;
//! use simcore::time::{Rate, SimDuration};
//!
//! let mut cfg = QsimConfig::mm1(
//!     Rate::per_hour(30.0),
//!     Dist::exponential(SimDuration::from_secs(60)),
//!     7,
//! );
//! cfg.num_queries = 20_000;
//! cfg.warmup = 2_000;
//! let rt = Qsim::new(cfg).unwrap().run().unwrap().mean_response_secs();
//! assert!((rt - 120.0).abs() / 120.0 < 0.1);
//! ```
//!
//! Constructors validate their configuration and return
//! [`simcore::SprintError`] instead of panicking, and
//! [`parallel::run_batch`] survives worker panics by converting them to
//! typed errors.
//!
//! The prediction fast path is three pieces, each bit-identical to the
//! engine it replaces: the heap-free direct recurrence that
//! [`Qsim::run`] takes at one slot (the binary-heap event calendar
//! serves every other slot count), common-random-number trace replay
//! ([`trace`]), and the capped memo map ([`shared::CappedMap`]) behind
//! the trace cache and the sprint-core prediction memo, one of each per
//! model. Batches and replications fan out over [`simcore::par::map`].

pub mod cloning;
pub mod config;
mod direct;
pub mod multiclass;
pub mod parallel;
pub mod shared;
pub mod sim;
pub mod trace;

pub use cloning::{results_bit_identical, Cloning, CloningConfig, CloningFaults, CloningResult};
pub use config::{QsimConfig, QsimResult};
pub use multiclass::{ClassSpec, MultiClassConfig, MultiClassQsim, MultiClassResult};
pub use parallel::{
    predict_mean_response, predict_mean_response_reference, predict_mean_response_traced,
    replication_seed, run_batch, run_batch_with, Backend,
};
pub use shared::CappedMap;
pub use sim::Qsim;
pub use trace::{SimTrace, TraceCache};
