//! Topology dispatch: build runtime configurations from a
//! [`ScenarioPlan`] and execute them.
//!
//! Each topology maps to an existing simulator — nothing here simulates
//! anything itself:
//!
//! - `single-node` → a [`Server::with_supervision`] run (watchdog
//!   attached unless `[run] supervised = false`, faults injected when
//!   the plan has any, a flight recorder when `[run] recorder_events`
//!   is set);
//! - `fleet` → [`fleet::run_fleet`] over a [`FleetSpec::small`] cluster
//!   with the plan's arrivals, policy, mix and control-plane faults;
//! - `cloning` → [`qsim::Cloning`] (processor-sharing clone races).
//!
//! [`trace_graph`] reruns a single-node or fleet plan with causal
//! tracing on and reconstructs its span graph; the `root-cause`
//! invariant and `scenario_run --trace` both read it. [`journal`]
//! reruns one with the decision journal on; `scenario_run
//! --record` and `--replay` write and check it.
//!
//! The module also owns the flat *metric namespace* that `metric`
//! invariants assert over; [`metric`] resolves a name against an
//! executed outcome.

use faults::FaultPlan;
use fleet::{run_fleet, run_fleet_journaled, run_fleet_traced, FleetResult, FleetSpec};
use obs::{RunTelemetry, TraceGraph};
use qsim::{Cloning, CloningConfig, CloningResult};
use simcore::dist::Dist;
use simcore::time::{Rate, SimDuration};
use simcore::SprintError;
use testbed::{
    ArrivalSpec, Journal, QueryRecord, RunResult, RunSpec, Server, ServerConfig, SprintPolicy,
    SupervisorConfig,
};

use crate::plan::{ArrivalKind, CloningPlan, ScenarioPlan, Topology};

/// Flight-recorder ring capacity for traced single-node runs: large
/// enough that no span event of a catalog-sized run is evicted, so the
/// reconstructed graph is complete.
pub const TRACE_CAPACITY: usize = 16_384;

/// The executed scenario, by topology.
#[derive(Debug, Clone)]
pub enum ScenarioOutcome {
    /// A supervised single-node run.
    SingleNode(Box<RunResult>),
    /// A coordinated fleet run.
    Fleet(Box<FleetResult>),
    /// A cloning-race run.
    Cloning(Box<CloningResult>),
}

/// Builds the plan's arrival spec (base rate, distribution, diurnal or
/// flash-crowd modulation).
///
/// # Errors
///
/// Returns [`SprintError::InvalidConfig`] on invalid modulation.
pub fn build_arrivals(plan: &ScenarioPlan) -> Result<ArrivalSpec, SprintError> {
    let rate = Rate::per_hour(plan.arrivals.rate_per_hour);
    if let Some(f) = &plan.arrivals.flash {
        if !matches!(plan.arrivals.kind, ArrivalKind::Poisson) {
            return Err(SprintError::invalid(
                "ScenarioPlan::arrivals.flash",
                "flash crowds require poisson arrivals",
            ));
        }
        return ArrivalSpec::poisson_with_spike(
            rate,
            f.spike_multiplier,
            f.spike_secs,
            f.period_secs,
        );
    }
    let base = match plan.arrivals.kind {
        ArrivalKind::Poisson => ArrivalSpec::poisson(rate),
        ArrivalKind::Pareto { alpha } => ArrivalSpec::pareto(rate, alpha),
    };
    if plan.arrivals.segments.is_empty() {
        Ok(base)
    } else {
        base.with_modulation(plan.arrivals.segments.clone())
    }
}

/// Builds the plan's sprint policy.
pub fn build_policy(plan: &ScenarioPlan) -> SprintPolicy {
    if !plan.policy.enabled {
        return SprintPolicy::never();
    }
    SprintPolicy::new(
        SimDuration::from_secs_f64(plan.policy.timeout_secs),
        plan.policy.budget,
        SimDuration::from_secs_f64(plan.policy.refill_secs),
    )
}

/// Builds the single-node run at the given seed: the plan's server
/// configuration under its supervisor (none when `supervised` is
/// off), with its fault plan unless the plan injects nothing.
///
/// # Errors
///
/// Returns [`SprintError::InvalidConfig`] on unresolvable sections.
pub fn build_run_spec(plan: &ScenarioPlan, seed: u64) -> Result<RunSpec, SprintError> {
    let cfg = ServerConfig {
        mix: plan.workload.query_mix()?,
        arrivals: build_arrivals(plan)?,
        policy: build_policy(plan),
        slots: plan.run.slots,
        num_queries: plan.run.queries,
        warmup: plan.run.warmup,
        seed,
    };
    Ok(RunSpec {
        cfg,
        mechanism: plan.workload.mechanism,
        plan: (!plan.faults.is_noop()).then(|| plan.faults.clone()),
        supervisor: plan.run.supervised.then(|| SupervisorConfig {
            watchdog_secs: plan.run.watchdog_secs,
            ..SupervisorConfig::default()
        }),
    })
}

/// Which fault plan [`with_server`] builds the server with.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Faults {
    /// The plan's own (none when it injects nothing).
    Planned,
    /// None at all: the clean twin.
    Off,
    /// An all-off [`FaultPlan`], which must cost nothing.
    AllOff,
}

/// Builds the single-node plan's server at `seed`, with the plan's
/// flight recorder attached, and hands it to `run`. [`execute`],
/// [`trace_graph`], [`journal`] and the clean-twin and noop-faults
/// invariants all build their server here.
pub(crate) fn with_server<T>(
    plan: &ScenarioPlan,
    seed: u64,
    faults: Faults,
    run: impl FnOnce(Server<'_>) -> Result<T, SprintError>,
) -> Result<T, SprintError> {
    let mut spec = build_run_spec(plan, seed)?;
    match faults {
        Faults::Planned => {}
        Faults::Off => spec.plan = None,
        Faults::AllOff => spec.plan = Some(FaultPlan::default()),
    }
    let mech = spec.mechanism.build();
    let mut server = spec.into_server(mech.as_ref())?;
    if plan.run.recorder_events > 0 {
        server.attach_recorder(plan.run.recorder_events);
    }
    run(server)
}

/// Builds the fleet spec at the given seed: a [`FleetSpec::small`]
/// cluster with the plan's arrivals, policy, mix, sizing and
/// control-plane faults. Arrival modulation set on the template
/// survives the per-node rate split, so diurnal curves and flash
/// crowds are *correlated across nodes* in virtual time.
///
/// # Errors
///
/// Returns [`SprintError::InvalidConfig`] on unresolvable sections.
pub fn build_fleet_spec(plan: &ScenarioPlan, seed: u64) -> Result<FleetSpec, SprintError> {
    let f = plan.fleet.as_ref().ok_or_else(|| {
        SprintError::invalid(
            "ScenarioPlan::fleet",
            "fleet topology without [fleet] section",
        )
    })?;
    let mut spec = FleetSpec::small(seed, f.nodes)?;
    spec.arrivals_per_hour = plan.arrivals.rate_per_hour;
    spec.queries_total = u32::try_from(plan.run.queries)
        .map_err(|_| SprintError::invalid("ScenarioPlan::run.queries", "out of range for fleet"))?;
    spec.template.cfg.mix = plan.workload.query_mix()?;
    spec.template.cfg.policy = build_policy(plan);
    spec.template.cfg.slots = plan.run.slots;
    spec.template.cfg.arrivals = build_arrivals(plan)?;
    spec.template.mechanism = plan.workload.mechanism;
    spec.faults.messages = f.messages.clone();
    spec.faults.partitions = f.partitions.clone();
    spec.faults.coordinator_crashes = f.crashes.clone();
    Ok(spec)
}

/// Builds the cloning configuration at the given seed.
///
/// # Errors
///
/// Returns [`SprintError::InvalidConfig`] on unresolvable sections.
pub fn build_cloning(plan: &ScenarioPlan, seed: u64) -> Result<CloningConfig, SprintError> {
    let c: &CloningPlan = plan.cloning.as_ref().ok_or_else(|| {
        SprintError::invalid(
            "ScenarioPlan::cloning",
            "cloning topology without [cloning] section",
        )
    })?;
    let timeout = if c.timeout_secs.is_finite() {
        SimDuration::from_secs_f64(c.timeout_secs)
    } else {
        SimDuration::MAX
    };
    Ok(CloningConfig {
        arrival_rate: Rate::per_hour(plan.arrivals.rate_per_hour),
        service: Dist::exponential(SimDuration::from_secs_f64(c.mean_service_secs)),
        clones: c.clones,
        slots: c.slots,
        sprint_speedup: c.sprint_speedup,
        timeout,
        budget_capacity_secs: c.budget_secs,
        refill_secs: c.refill_secs,
        num_queries: plan.run.queries,
        warmup: plan.run.warmup,
        seed,
        faults: c.faults,
    })
}

/// Executes the scenario at the given seed (normally `plan.seed`; the
/// seed-matrix sweep passes offsets).
///
/// # Errors
///
/// Returns any typed simulator or configuration error — a scenario
/// that cannot run is a harness failure, not a verdict.
pub fn execute(plan: &ScenarioPlan, seed: u64) -> Result<ScenarioOutcome, SprintError> {
    match plan.topology {
        Topology::SingleNode => {
            let run = with_server(plan, seed, Faults::Planned, |server| server.run())?;
            Ok(ScenarioOutcome::SingleNode(Box::new(run)))
        }
        Topology::Fleet => {
            let spec = build_fleet_spec(plan, seed)?;
            Ok(ScenarioOutcome::Fleet(Box::new(run_fleet(&spec)?)))
        }
        Topology::Cloning => {
            let cfg = build_cloning(plan, seed)?;
            Ok(ScenarioOutcome::Cloning(Box::new(
                Cloning::new(cfg)?.run()?,
            )))
        }
    }
}

/// Runs the plan at `seed` with causal tracing on and reconstructs its
/// span graph: a single-node plan traces its supervised server as node
/// 0 into a [`TRACE_CAPACITY`] recorder; a fleet plan traces the
/// control plane and every node server. Tracing is observation-only,
/// so the traced run is the same run [`execute`] makes. Returns `None`
/// for cloning plans, which carry no trace.
///
/// # Errors
///
/// Returns any typed simulator or configuration error.
pub fn trace_graph(plan: &ScenarioPlan, seed: u64) -> Result<Option<TraceGraph>, SprintError> {
    match plan.topology {
        Topology::SingleNode => {
            let run = with_server(plan, seed, Faults::Planned, |mut server| {
                server.attach_recorder(TRACE_CAPACITY);
                server.enable_tracing(0);
                server.run()
            })?;
            let telemetry = run.telemetry().cloned().unwrap_or_default();
            Ok(Some(TraceGraph::from_telemetry(&[&telemetry])))
        }
        Topology::Fleet => {
            let run = run_fleet_traced(&build_fleet_spec(plan, seed)?)?;
            let mut parts: Vec<&RunTelemetry> = vec![&run.telemetry];
            parts.extend(run.node_telemetries.iter());
            Ok(Some(TraceGraph::from_telemetry(&parts)))
        }
        Topology::Cloning => Ok(None),
    }
}

/// Runs the plan at `seed` with the decision journal on and returns
/// the journal as text: a single-node plan journals its supervised
/// server; a fleet plan journals its control plane and every node into
/// one journal, in the order the run executed them. The run journals
/// typed records and they are rendered here, once, at the boundary
/// where the journal leaves for a file or a diff against one.
/// Journaling is observation-only, so the journaled run is the same run
/// [`execute`] makes, and the same plan and seed always give the same
/// journal, byte for byte. Returns `None` for cloning plans, whose
/// simulator has no reactor.
///
/// # Errors
///
/// Returns any typed simulator or configuration error.
pub fn journal(plan: &ScenarioPlan, seed: u64) -> Result<Option<Journal>, SprintError> {
    match plan.topology {
        Topology::SingleNode => {
            let (_, journal) =
                with_server(plan, seed, Faults::Planned, |server| server.run_journaled())?;
            Ok(Some(journal.rendered()))
        }
        Topology::Fleet => {
            let (_, journal) = run_fleet_journaled(&build_fleet_spec(plan, seed)?)?;
            Ok(Some(journal.rendered()))
        }
        Topology::Cloning => Ok(None),
    }
}

/// Longest per-query sprint engagement in a record set, seconds — the
/// watchdog overrun signal.
pub fn max_sprint_secs(records: &[QueryRecord]) -> f64 {
    records.iter().map(|r| r.sprint_seconds).fold(0.0, f64::max)
}

/// Resolves a metric name against an executed outcome. Returns `None`
/// for a name outside the topology's namespace (a `metric` invariant
/// then fails with an explicit violation, not a panic).
///
/// Single-node: `arrived`, `served`, `mean_response_secs`,
/// `p50/p95/p99_response_secs`, `sprint_fraction`, `max_sprint_secs`,
/// `slo_attainment_60s`, every fault counter (`msgs_dropped`,
/// `msgs_delayed`, `msgs_duplicated`, `partition_drops`,
/// `stuck_sprints`, `engage_failures`, `slot_crashes`,
/// `storm_arrivals`, `thermal_unsprints`, `lockout_refusals`) and
/// recovery counter (`forced_unsprints`, `slot_restarts`,
/// `quarantines`, `shed_queries`, `rejected_queries`,
/// `degraded_secs`).
///
/// Fleet: `served`, `mean_response_secs`, `sprint_fraction`,
/// `budget_utilization`, `budget_power`, `peak_held_power`,
/// `forced_unsprints`, `horizon_secs`, `violations`, lease stats
/// (`grants`, `renewals`, `denials`, `expiries`, `releases`,
/// `retries`, `elections`, `step_downs`, `max_epoch`), degradation
/// (`sprintable`, `stale`, `no_sprint`), and the fleet fault counters
/// (`msgs_dropped`, `msgs_delayed`, `msgs_duplicated`,
/// `partition_drops`).
///
/// Cloning: `mean_response_secs`, `p50/p95/p99_response_secs`,
/// `sprint_fraction`, `starved_fraction`, `winners`, `spawned`,
/// `cancelled`, `ghosts`, `spawn_failed`, `stragglers`, `wasted_secs`,
/// `predicted_low_load_mean_secs`, `model_rel_error`.
pub fn metric(plan: &ScenarioPlan, outcome: &ScenarioOutcome, name: &str) -> Option<f64> {
    match outcome {
        ScenarioOutcome::SingleNode(run) => single_node_metric(run, name),
        ScenarioOutcome::Fleet(fr) => fleet_metric(fr, name),
        ScenarioOutcome::Cloning(cr) => cloning_metric(plan, cr, name),
    }
}

#[allow(clippy::cast_precision_loss)]
fn single_node_metric(run: &RunResult, name: &str) -> Option<f64> {
    let fc = run.fault_counters();
    let rc = run.recovery_counters();
    Some(match name {
        "arrived" => run.arrived() as f64,
        "served" => run.served() as f64,
        "mean_response_secs" => run
            .try_response_quantile_secs(0.5)
            .ok()
            .map(|_| run.mean_response_secs())?,
        "p50_response_secs" => run.try_response_quantile_secs(0.50).ok()?,
        "p95_response_secs" => run.try_response_quantile_secs(0.95).ok()?,
        "p99_response_secs" => run.try_response_quantile_secs(0.99).ok()?,
        "sprint_fraction" => run.sprint_fraction(),
        "max_sprint_secs" => max_sprint_secs(run.records()),
        "slo_attainment_60s" => run.slo_attainment(60.0),
        "msgs_dropped" => fc.msgs_dropped as f64,
        "msgs_delayed" => fc.msgs_delayed as f64,
        "msgs_duplicated" => fc.msgs_duplicated as f64,
        "partition_drops" => fc.partition_drops as f64,
        "stuck_sprints" => fc.stuck_sprints as f64,
        "engage_failures" => fc.engage_failures as f64,
        "slot_crashes" => fc.slot_crashes as f64,
        "storm_arrivals" => fc.storm_arrivals as f64,
        "thermal_unsprints" => fc.thermal_unsprints as f64,
        "lockout_refusals" => fc.lockout_refusals as f64,
        "forced_unsprints" => rc.forced_unsprints as f64,
        "slot_restarts" => rc.slot_restarts as f64,
        "quarantines" => rc.quarantines as f64,
        "shed_queries" => rc.shed_queries as f64,
        "rejected_queries" => rc.rejected_queries as f64,
        "degraded_secs" => rc.degraded_secs,
        _ => return None,
    })
}

#[allow(clippy::cast_precision_loss)]
fn fleet_metric(fr: &FleetResult, name: &str) -> Option<f64> {
    Some(match name {
        "served" => fr.served as f64,
        "mean_response_secs" => fr.mean_response_secs,
        "sprint_fraction" => fr.sprint_fraction,
        "budget_utilization" => fr.budget_utilization,
        "budget_power" => f64::from(fr.budget_power),
        "peak_held_power" => f64::from(fr.peak_held_power),
        "forced_unsprints" => fr.forced_unsprints as f64,
        "horizon_secs" => fr.horizon_secs,
        "violations" => fr.violations.len() as f64,
        "grants" => fr.stats.grants as f64,
        "renewals" => fr.stats.renewals as f64,
        "denials" => fr.stats.denials as f64,
        "expiries" => fr.stats.expiries as f64,
        "releases" => fr.stats.releases as f64,
        "retries" => fr.stats.retries as f64,
        "elections" => fr.stats.elections as f64,
        "step_downs" => fr.stats.step_downs as f64,
        "max_epoch" => fr.stats.max_epoch as f64,
        "sprintable" => f64::from(fr.degradation.sprintable),
        "stale" => f64::from(fr.degradation.stale),
        "no_sprint" => f64::from(fr.degradation.no_sprint),
        "degradation_total" => {
            f64::from(fr.degradation.sprintable)
                + f64::from(fr.degradation.stale)
                + f64::from(fr.degradation.no_sprint)
        }
        "msgs_dropped" => fr.counters.msgs_dropped as f64,
        "msgs_delayed" => fr.counters.msgs_delayed as f64,
        "msgs_duplicated" => fr.counters.msgs_duplicated as f64,
        "partition_drops" => fr.counters.partition_drops as f64,
        _ => return None,
    })
}

#[allow(clippy::cast_precision_loss)]
fn cloning_metric(plan: &ScenarioPlan, cr: &CloningResult, name: &str) -> Option<f64> {
    Some(match name {
        "mean_response_secs" => cr.mean_response_secs(),
        "p50_response_secs" => cr.response_quantile_secs(0.50),
        "p95_response_secs" => cr.response_quantile_secs(0.95),
        "p99_response_secs" => cr.response_quantile_secs(0.99),
        "sprint_fraction" => cr.sprint_fraction(),
        "starved_fraction" => cr.starved_fraction(),
        "winners" => cr.winners as f64,
        "spawned" => cr.spawned as f64,
        "cancelled" => cr.cancelled as f64,
        "ghosts" => cr.ghosts as f64,
        "spawn_failed" => cr.spawn_failed as f64,
        "stragglers" => cr.stragglers as f64,
        "wasted_secs" => cr.wasted_secs,
        "predicted_low_load_mean_secs" => build_cloning(plan, plan.seed)
            .ok()?
            .predicted_low_load_mean_secs(),
        "model_rel_error" => {
            let predicted = build_cloning(plan, plan.seed)
                .ok()?
                .predicted_low_load_mean_secs();
            (cr.mean_response_secs() - predicted).abs() / predicted
        }
        _ => return None,
    })
}
