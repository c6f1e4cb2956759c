//! # model-sprint
//!
//! A from-scratch Rust reproduction of *Model-Driven Computational
//! Sprinting* (Morris et al., EuroSys 2018).
//!
//! Computational sprinting speeds up query execution by briefly
//! spending power/CPU reserves; a *sprinting policy* decides when and
//! how long to sprint. This library builds the paper's full system:
//!
//! - a ground-truth **testbed** server simulator with phase-aware
//!   sprinting mechanisms (DVFS, core scaling, CPU throttling, EC2
//!   P-states) standing in for the paper's physical cluster,
//! - the **timeout-aware G/G/k queue simulator** of Algorithm 1,
//! - the **hybrid performance model**: offline profiling → effective
//!   sprint rate calibration → random decision forest → first-
//!   principles simulation, plus ANN and No-ML baselines,
//! - **policy exploration** (simulated annealing, Few-to-Many and
//!   Adrenaline baselines), and
//! - the **cloud burstable-instance** use case: SLO-aware colocation,
//!   revenue per node and profiling break-even.
//!
//! ## Quickstart
//!
//! ```no_run
//! use model_sprint::prelude::*;
//!
//! // Profile Jacobi on the DVFS platform over a few conditions.
//! let mech = Dvfs::new();
//! let mix = QueryMix::single(WorkloadKind::Jacobi);
//! let conditions = SamplingGrid::paper().sample_conditions(20, 7);
//! let data = Profiler::default().profile(&mix, &mech, &conditions);
//!
//! // Train the hybrid model and predict response time.
//! let model = train_hybrid(&data, &TrainOptions::default())?;
//! let rt = model.predict_response_secs(&conditions[0]);
//! println!("expected response time: {rt:.1}s");
//! # Ok::<(), model_sprint::simcore::SprintError>(())
//! ```
//!
//! Public constructors and entry points validate their configuration
//! and return [`simcore::SprintError`] instead of panicking; the
//! [`testbed`] can additionally inject runtime faults (see
//! [`faults`]) and [`sprint_core::ModelHealthMonitor`] degrades
//! sprinting safely when observed response times diverge from the
//! model's predictions.
//!
//! See `examples/` for runnable end-to-end scenarios and the `bench`
//! crate for the binaries that regenerate every table and figure in
//! the paper.

pub use ann;
pub use chaos;
pub use cloud;
pub use faults;
pub use fleet;
pub use forest;
pub use mechanisms;
pub use mlcore;
pub use obs;
pub use policy;
pub use profiler;
pub use qsim;
pub use reactor;
pub use simcore;
pub use sprint_core;
pub use testbed;
pub use workloads;

/// Commonly used types, re-exported for convenient glob import.
pub mod prelude {
    pub use ann::{AnnConfig, Mlp};
    pub use chaos::random_plan;
    pub use cloud::{
        colocate, meets_slo, BurstablePolicy, Strategy, WorkloadDemand, PRICE_PER_WORKLOAD_HOUR,
    };
    pub use faults::{FaultCounters, FaultPlan, StormWindow};
    pub use fleet::{run_fleet, run_fleet_journaled, FleetResult, FleetSpec};
    pub use forest::{ForestConfig, RandomForest};
    pub use mechanisms::{CoreScale, CpuThrottle, Dvfs, Ec2Dvfs, Mechanism, MechanismKind};
    pub use obs::{Event, EventKind, FlightRecorder, MetricsRegistry, RunTelemetry};
    pub use policy::{explore_timeout, AnnealingConfig};
    pub use profiler::{Condition, ProfileData, Profiler, SamplingGrid, WorkloadProfile};
    pub use qsim::{ClassSpec, MultiClassConfig, MultiClassQsim, Qsim, QsimConfig};
    pub use simcore::{Rate, SimDuration, SimTime, SprintError};
    pub use sprint_core::{
        train_ann, train_hybrid, ArrivalRateEstimator, BreakerConfig, DegradationLevel,
        HybridModel, ModelHealthMonitor, OnlineModel, ResponseTimeModel, SimOptions, TrainOptions,
    };
    pub use testbed::{
        RateSegment, RecoveryCounters, ServerConfig, SprintPolicy, SupervisorConfig,
    };
    pub use workloads::{QueryMix, Workload, WorkloadKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compile_and_link() {
        let mech = Dvfs::new();
        assert_eq!(mech.sustained_rate(WorkloadKind::Jacobi).qph(), 51.0);
        let grid = SamplingGrid::paper();
        assert!(grid.num_combinations() > 100);
    }
}
