//! Simulation substrate shared by every crate in the workspace.
//!
//! `simcore` provides the building blocks that both the ground-truth
//! testbed simulator and the first-principles queue simulator are built
//! on:
//!
//! - [`time`]: microsecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) and throughput rates in queries per hour ([`Rate`]).
//! - [`rng`]: deterministic, splittable random number generation
//!   ([`SimRng`]) so every experiment is reproducible from a single seed.
//! - [`dist`]: the arrival/service distributions the paper evaluates
//!   (exponential, Pareto, deterministic) plus empirical resampling of
//!   profiled service times, and the one hashable encoding of a shape
//!   ([`DistKind::key`]) that cache keys use.
//! - [`event`]: a generic discrete-event calendar with stable FIFO
//!   ordering for simultaneous events.
//! - [`stats`]: streaming moments and percentile estimation used
//!   throughout the evaluation harness.
//! - [`table`]: plain-text table rendering for the experiment binaries.
//! - [`error`]: the workspace-wide typed error ([`SprintError`]) returned
//!   by config validation across the stack.
//! - [`json`]: a minimal JSON reader/writer used for offline persistence.
//! - [`par`]: the ordered parallel map over scoped threads behind every
//!   fan-out in the workspace.
//! - [`budget`]: the sprint budget ([`Budget`]) and the one rule that
//!   drains and refills it, shared by the testbed, the queue simulator
//!   and the cloning race.
//!
//! Apart from that budget rule, which both simulators must share so the
//! gap between them stays in their runtime effects, everything here is
//! free of workload or policy semantics; those live in the
//! `workloads`, `mechanisms`, `testbed` and `qsim` crates.
//!
//! # Examples
//!
//! ```
//! use simcore::{Dist, EventQueue, SimDuration, SimRng, SimTime};
//!
//! // A deterministic, seeded event loop.
//! let mut rng = SimRng::new(42);
//! let service = Dist::exponential(SimDuration::from_secs(60));
//! let mut calendar = EventQueue::new();
//! calendar.schedule(SimTime::ZERO + service.sample(&mut rng), "depart");
//! let (at, what) = calendar.pop().unwrap();
//! assert_eq!(what, "depart");
//! assert!(at > SimTime::ZERO);
//! ```

pub mod budget;
pub mod dist;
pub mod error;
pub mod event;
pub mod json;
pub mod par;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use budget::Budget;
pub use dist::{Dist, DistKind};
pub use error::SprintError;
pub use event::EventQueue;
pub use json::Json;
pub use rng::SimRng;
pub use stats::StreamingStats;
pub use time::{Rate, SimDuration, SimTime};
