//! Cloud-provider use case: burstable instances (§4.4).
//!
//! Amazon's T-class burstable instances throttle CPU to a baseline
//! share, sprint at a fixed multiplier and earn a fixed budget of
//! sprint-seconds per hour. Every instance of a class gets the same
//! policy regardless of workload; model-driven sprinting instead
//! searches per-workload (multiplier, budget, timeout) combinations
//! that still meet the SLO (response time within 1.15X of unthrottled)
//! while reserving less peak CPU — letting more workloads colocate on
//! a node and increasing revenue per node.
//!
//! - [`burstable`]: the policy model and AWS T2.small defaults.
//! - [`slo`]: response-time prediction for throttled workloads and the
//!   SLO admission check.
//! - [`colocate`](mod@colocate): packing workloads onto a node under the three
//!   strategies of Fig. 13.
//! - [`revenue`]: revenue per node and the profiling-cost break-even
//!   timeline of Fig. 14.

pub mod burstable;
pub mod colocate;
pub mod revenue;
pub mod slo;

pub use burstable::{BurstablePolicy, PRICE_PER_WORKLOAD_HOUR};
pub use colocate::{colocate, ColocationResult, Strategy, WorkloadDemand};
pub use revenue::{break_even_timeline, RevenuePoint};
pub use slo::{meets_slo, predict_response_secs, unthrottled_response_secs, SloOptions};
