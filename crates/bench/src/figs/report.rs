//! The observability report workloads behind `sprint_report`: a
//! faulted, supervised flight-recorder run and a prediction workload
//! that drives every registered metric family, plus the completeness
//! gate over the resulting snapshot.

use forest::{ForestConfig, RandomForest};
use mechanisms::{Dvfs, Mechanism};
use mlcore::Dataset;
use obs::FAMILY_NAMES;
use policy::{explore_timeout, AnnealingConfig};
use profiler::{Condition, WorkloadProfile};
use qsim::TraceCache;
use simcore::dist::DistKind;
use simcore::time::{Rate, SimDuration};
use simcore::SprintError;
use sprint_core::throughput::measure_throughput_with;
use sprint_core::{NoMlModel, ResponseTimeModel, SimOptions};
use testbed::{
    run_supervised_recorded, run_supervised_traced, ArrivalSpec, BudgetSpec, ServerConfig,
    SprintPolicy, SupervisorConfig,
};
use workloads::{QueryMix, WorkloadKind};

/// The synthetic Jacobi/DVFS profile the prediction workload uses.
pub fn profile() -> WorkloadProfile {
    WorkloadProfile {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        mechanism: "DVFS".into(),
        mu: Rate::per_hour(50.0),
        mu_m: Rate::per_hour(75.0),
        service_samples_secs: (0..100).map(|i| 60.0 + (i % 21) as f64).collect(),
        profiling_hours: 1.0,
    }
}

/// The fixed 0.75-utilization prediction condition.
pub fn cond() -> Condition {
    Condition {
        utilization: 0.75,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 80.0,
        budget_frac: 0.4,
        refill_secs: 200.0,
    }
}

/// The (config, fault plan) behind [`recorded_run`], shared with the
/// traced variant and the tracing-overhead perf leg.
pub fn recorded_setup(seed: u64) -> (ServerConfig, testbed::FaultPlan) {
    let mech = Dvfs::new();
    let sustained = mech.sustained_rate(WorkloadKind::Jacobi);
    let mean_service_secs = sustained.mean_interval().as_secs_f64();
    let utilization = 0.6;
    let num_queries = 140;
    let scfg = ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(sustained.scale(utilization)),
        policy: SprintPolicy::new(
            SimDuration::from_secs_f64(mean_service_secs * 0.5),
            BudgetSpec::FractionOfRefill(0.3),
            SimDuration::from_secs_f64(mean_service_secs * 10.0),
        ),
        slots: 2,
        num_queries,
        warmup: 0,
        seed,
    };
    let horizon_secs = num_queries as f64 * mean_service_secs / utilization;
    let plan = chaos::random_plan(seed ^ 0xFA17, 2, horizon_secs);
    (scfg, plan)
}

/// The faulted, supervised flight-recorder scenario.
///
/// # Errors
///
/// Propagates testbed or fault-plan failures.
pub fn recorded_run(seed: u64) -> Result<testbed::RunResult, SprintError> {
    let (scfg, plan) = recorded_setup(seed);
    run_supervised_recorded(
        scfg,
        &Dvfs::new(),
        Some(plan),
        SupervisorConfig::default(),
        obs::FlightRecorder::DEFAULT_CAPACITY,
    )
}

/// [`recorded_run`] with causal tracing enabled: identical scenario,
/// identical ring capacity, plus sprint-episode spans and cause links
/// in the telemetry.
///
/// # Errors
///
/// Propagates testbed or fault-plan failures.
pub fn traced_run(seed: u64) -> Result<testbed::RunResult, SprintError> {
    let (scfg, plan) = recorded_setup(seed);
    run_supervised_traced(
        scfg,
        &Dvfs::new(),
        Some(plan),
        SupervisorConfig::default(),
        obs::FlightRecorder::DEFAULT_CAPACITY,
    )
}

/// Drives every registered metric family at least once: an annealing
/// search, a guaranteed memo hit, a guaranteed trace-cache hit, pooled
/// batch predictions, forest inference, and a fleet planning pass
/// (per-node prediction timings).
///
/// # Errors
///
/// Propagates search/measurement failures; [`SprintError::Runtime`]
/// when a transparency contract (memo, CRN replay) is violated.
pub fn prediction_workload() -> Result<(), SprintError> {
    let p = profile();
    let c = cond();

    // Annealing search through a simulator-backed model: anneal_*,
    // sim_evals, memo_misses, trace_cache_misses.
    let model = NoMlModel::new(p.clone(), SimOptions::default());
    explore_timeout(&model, &c, &AnnealingConfig::default())?;

    // A repeated prediction is a guaranteed memo hit.
    let first = model.predict_response_secs(&c);
    let again = model.predict_response_secs(&c);
    if first.to_bits() != again.to_bits() {
        return Err(SprintError::runtime(
            "report::prediction",
            "memo must be transparent",
        ));
    }

    // A repeated cached simulation is a guaranteed trace-cache hit.
    let opts = SimOptions::default();
    let cache = TraceCache::new();
    let one = opts.simulate_cached(&p, &c, 1.2, &cache);
    let two = opts.simulate_cached(&p, &c, 1.2, &cache);
    if one.to_bits() != two.to_bits() {
        return Err(SprintError::runtime(
            "report::prediction",
            "CRN replay must be stable",
        ));
    }

    // Pooled batch predictions: pool_batches/tasks and both pool
    // histograms.
    measure_throughput_with(&p, &c, 500, 2, 4, qsim::Backend::Pool)?;

    // Forest inference timings.
    let mut data = Dataset::new(vec!["mu_m", "lambda", "budget"]);
    for i in 0..200 {
        let x = (i % 40) as f64;
        data.push(
            vec![x, ((i * 7) % 10) as f64, ((i * 13) % 5) as f64],
            0.9 * x + 1.0,
        );
    }
    let forest = RandomForest::train(&data, 0, ForestConfig::default());
    for i in 0..50 {
        forest.predict(&[(i % 40) as f64, (i % 10) as f64, (i % 5) as f64]);
    }

    // Fleet planning pass: per-node prediction-path timings
    // (fleet_predict_us).
    fleet::plan_fleet(&fleet::FleetSpec::small(181, 2)?)?;

    // Faulted fleet run: a partition strands three nodes away from
    // both coordinators, so leases are granted, renewed on the healthy
    // side and lapsed on the stranded one — firing sprints_engaged,
    // lease_renewals and lease_expiries on the live registry.
    let mut spec = fleet::FleetSpec::small(47, 4)?;
    spec.queries_total = 24;
    spec.faults.partitions.push(fleet::FleetPartition {
        coords_a: vec![0, 1],
        nodes_a_lo: 0,
        nodes_a_hi: 0,
        start_secs: 70.0,
        duration_secs: 200.0,
    });
    fleet::run_fleet(&spec)?;
    Ok(())
}

/// Checks snapshot completeness: every registered metric family must
/// be present AND have fired. Returns `(missing, dead)` family names.
pub fn completeness(snap: &obs::MetricsSnapshot) -> (Vec<&'static str>, Vec<&'static str>) {
    let names = snap.family_names();
    let missing: Vec<&str> = FAMILY_NAMES
        .iter()
        .filter(|f| !names.contains(f))
        .copied()
        .collect();
    let dead: Vec<&str> = snap
        .counters
        .iter()
        .filter(|c| c.value == 0)
        .map(|c| c.name)
        .chain(
            snap.histograms
                .iter()
                .filter(|h| h.count == 0)
                .map(|h| h.name),
        )
        .collect();
    (missing, dead)
}
