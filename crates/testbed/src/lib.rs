//! Ground-truth server simulator (the paper's profiling testbed, §2.1).
//!
//! This crate plays the role of the physical cluster in the paper: a
//! query generator feeding a FIFO queue manager that detects timeouts,
//! triggers sprinting against a shared budget, and dispatches queries to
//! an execution engine (Fig. 3). The budget is [`simcore::Budget`], the
//! same drain and refill rule the first-principles `qsim` simulator
//! runs. Unlike `qsim`, the testbed models the *runtime* effects that
//! make sprinting hard to predict:
//!
//! - per-phase sprint speedups (a sprint that starts late in an
//!   execution hits different phases than one covering the whole run),
//! - mechanism toggle overhead,
//! - queue-manager dispatch overhead that grows with queue length,
//! - cache/bandwidth interference between kinds in a query mix,
//! - stochastic service times per workload.
//!
//! The gap between this behaviour and `qsim`'s clean model is exactly
//! what the paper's machine-learned *effective sprint rate* captures.
//! Model code never reads testbed internals — only the per-query
//! timestamps a real profiler would log.
//!
//! The server optionally runs under a [`faults::FaultPlan`] (built
//! with [`Server::with_faults`]): seeded, deterministic injection of
//! sprint-engage failures, stuck sprints, budget-sensor drift,
//! execution crashes with bounded retry, arrival storms and thermal
//! emergencies. An all-off plan is bit-identical to running without
//! one.
//!
//! A [`supervision::Supervisor`] (built with
//! [`Server::with_supervision`]) closes the loop from detecting those
//! faults to recovering from them: a sprint watchdog force-disengages
//! stuck sprints, crashed slots restart with capped exponential backoff
//! and are quarantined after repeated crashes, and a queue-depth
//! admission ladder sheds or rejects arrivals under overload. Every
//! intervention is counted in [`supervision::RecoveryCounters`].
//!
//! Every run takes one path: build a [`Server`] ([`Server::new`],
//! [`Server::with_faults`] or [`Server::with_supervision`]), attach
//! observers ([`Server::attach_recorder`] for a flight recorder,
//! [`Server::enable_tracing`] for causal spans), then call
//! [`Server::run`] (or [`Server::run_journaled`] for the decision
//! journal, whose entries are typed [`NodeRecord`]s). Observers are
//! byte-invisible: records and counters are bit-identical with or
//! without them. Each decision reaches every attached observer, and
//! the metrics registry, through one call, and
//! [`delivery_observation`] maps a control message's routing verdict to
//! its recorder event and cause reason for this server and the fleet
//! control plane alike.

pub mod engine;
pub mod metrics;
pub mod policy;
pub mod query;
pub mod server;
pub mod spec;
pub mod supervision;
pub mod trace;

pub use faults::{FaultCounters, FaultPlan, StormWindow};
pub use metrics::RunResult;
pub use policy::{ArrivalSpec, BudgetSpec, RateSegment, ServerConfig, SprintPolicy};
pub use query::QueryRecord;
pub use reactor::Journal;
pub use server::{delivery_observation, NodeRecord, Server};
pub use spec::{run_journaled, RunSpec};
pub use supervision::{RecoveryCounters, Supervisor, SupervisorConfig};
