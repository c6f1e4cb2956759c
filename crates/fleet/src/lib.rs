//! Fleet-scale sprinting with a fault-tolerant sprint coordinator.
//!
//! The paper's computational-sprinting model certifies a *per-node*
//! power budget; this crate scales that contract to a fleet. N
//! [`testbed::Server`] instances run behind a cluster load balancer,
//! and a **sprint coordinator** arbitrates a shared sprint budget —
//! derived from [`cloud::BurstablePolicy::fleet_sprint_budget`] — by
//! handing out **time-bounded leases**. A node may sprint only while it
//! holds an unexpired lease, so every control-plane failure mode fails
//! safe: the lease lapses and the node force-unsprints.
//!
//! All lease traffic (request/grant/renew/release, heartbeats) flows
//! through a simulated control-plane network with retry, timeout, and
//! capped exponential backoff with seeded jitter, perturbed by the same
//! message-fault classes as the single-node testbed (delay, drop,
//! duplicate, partition). Coordinators fail over by heartbeat-timeout
//! election with unique-by-construction epoch numbers fencing stale
//! grants; nodes cut off from every coordinator degrade to `NoSprint`
//! and re-admit once connectivity heals.
//!
//! Each control-plane decision is one typed journal note, and its
//! recorder event, trace spans and lease metric follow from that note,
//! so the journal, the flight recorder, the tracer and the metrics see
//! the same decisions.
//!
//! Everything descends from one root seed through the reactor's entropy
//! tower, so a fleet of hundreds of nodes replays bit-identically from
//! its [`FleetSpec`] — the run's one journal, holding control-plane and
//! per-node entries in the order the interleave executed them, is the
//! proof.

pub mod cluster;
pub mod spec;

pub use cluster::{
    run_fleet, run_fleet_journaled, run_fleet_traced, FleetDegradation, FleetRecord, FleetResult,
    FleetViolation, LeaseStats,
};
pub use spec::{CoordinatorCrash, FleetFaults, FleetPartition, FleetSpec};
