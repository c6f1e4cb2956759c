//! Chaos-sweep harness for the supervised sprinting testbed.
//!
//! The supervision layer (PR 2) claims the testbed *recovers* from the
//! faults PR 1 taught it to suffer. This crate turns that claim into
//! machine-checked invariants: it generates randomized-but-seeded
//! [`FaultPlan`]s, sweeps them across a (workload, mechanism, policy,
//! plan) grid, and asserts for every run that
//!
//! 1. **Conservation** — no query is lost:
//!    `served + shed + rejected == arrived`;
//! 2. **No stuck sprint** — the run terminates and no query sprints
//!    longer than the watchdog deadline plus slack;
//! 3. **Replay** — rerunning the identical (config, plan, supervisor)
//!    triple reproduces bit-identical records and counters;
//! 4. **No-op plans are free** — an all-off [`FaultPlan`] under
//!    supervision is bit-identical to running with no plan at all;
//! 5. **Bounded degradation** — the supervised P99 under faults stays
//!    within a configured factor of the fault-free P99;
//! 6. **No silent degradation** — a cell whose supervised SLO
//!    attainment fell measurably below the fault-free baseline must
//!    show at least one recorded intervention (supervisor recovery,
//!    flight-recorder intervention event, or breaker transition).
//!
//! Alongside the invariants it measures *recovery efficacy*: SLO
//! attainment with supervision on versus off under the same fault
//! plans, reported per (workload, mechanism) cell. Every supervised
//! run carries an [`obs`] flight recorder; a model-health breaker
//! ([`sprint_core::ModelHealthMonitor`]) is driven from each run's
//! observed response times against the fault-free mean, yielding
//! per-cell breaker dwell times, and the last few recorder events of a
//! violating run are attached to its cell. The `chaos_sweep` binary
//! emits the whole report as JSON.
//!
//! This crate owns only the randomized sweep. The fixed-seed scenarios
//! (lost, delayed and partitioned control messages on one node; the
//! fleet's coordinator crash, split-brain and lease-renewal storm) are
//! TOML plans in the scenario catalog (`scenarios/*.toml`), executed
//! and checked by the `scenario` crate.

#![deny(unreachable_pub)]

use faults::FaultPlan;
use mechanisms::{Mechanism, MechanismKind};
use obs::{Event, FlightRecorder, RunTelemetry};
use simcore::rng::SimRng;
use simcore::time::{Rate, SimDuration, SimTime};
use simcore::SprintError;
use sprint_core::{BreakerConfig, ModelHealthMonitor};
use testbed::{
    ArrivalSpec, RecoveryCounters, RunResult, Server, ServerConfig, SprintPolicy, SupervisorConfig,
};
use workloads::{QueryMix, WorkloadKind};

mod plan;
mod replay;
mod report;

pub use plan::random_plan;
pub use replay::{replay_case, CaseReplay};
pub use report::{CellReport, SweepReport, Violation};

/// Everything a sweep needs: grid axes, run sizing, and invariant
/// tolerances.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Base seed; per-run seeds derive from it deterministically.
    pub seed: u64,
    /// Randomized fault plans (and runs) per grid cell.
    pub seeds_per_cell: u64,
    /// Queries per run.
    pub num_queries: usize,
    /// Arrival rate as a fraction of one slot's sustained service rate.
    /// Kept below 1.0 so a single healthy slot can drain the queue even
    /// after a quarantine halves capacity.
    pub utilization: f64,
    /// Execution slots per run (the flaky-slot fault needs at least 2).
    pub slots: usize,
    /// SLO expressed as a multiple of the mean sustained service time.
    pub slo_service_multiple: f64,
    /// Invariant 5 bound: supervised P99 under faults must stay within
    /// this factor of the fault-free P99.
    pub p99_degradation_factor: f64,
    /// Workloads on the grid.
    pub workloads: Vec<WorkloadKind>,
    /// Mechanisms on the grid.
    pub mechanisms: Vec<MechanismKind>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0xC4A0_5EED,
            seeds_per_cell: 16,
            num_queries: 140,
            utilization: 0.6,
            slots: 2,
            slo_service_multiple: 3.0,
            p99_degradation_factor: 15.0,
            workloads: WorkloadKind::ALL.to_vec(),
            mechanisms: MechanismKind::ALL.to_vec(),
        }
    }
}

impl SweepConfig {
    /// Validates the sweep parameters.
    pub fn validate(&self) -> Result<(), SprintError> {
        SprintError::require_nonzero("SweepConfig::seeds_per_cell", self.seeds_per_cell as usize)?;
        SprintError::require_nonzero("SweepConfig::num_queries", self.num_queries)?;
        SprintError::require_positive("SweepConfig::utilization", self.utilization)?;
        if self.utilization >= 1.0 {
            return Err(SprintError::invalid(
                "SweepConfig::utilization",
                format!(
                    "must stay below 1.0 so one slot can drain after a quarantine, got {}",
                    self.utilization
                ),
            ));
        }
        if self.slots < 2 {
            return Err(SprintError::invalid(
                "SweepConfig::slots",
                "the flaky-slot fault and quarantine need at least 2 slots",
            ));
        }
        SprintError::require_positive(
            "SweepConfig::slo_service_multiple",
            self.slo_service_multiple,
        )?;
        SprintError::require_positive(
            "SweepConfig::p99_degradation_factor",
            self.p99_degradation_factor,
        )?;
        if self.workloads.is_empty() || self.mechanisms.is_empty() {
            return Err(SprintError::invalid(
                "SweepConfig::grid",
                "need at least one workload and one mechanism",
            ));
        }
        Ok(())
    }
}

/// The two sprinting policies each cell is swept under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Timeout-triggered sprinting with a fractional budget.
    Sprint,
    /// Never sprint — recovery must still hold without sprinting.
    Never,
}

impl PolicyKind {
    /// Both grid policies.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Sprint, PolicyKind::Never];

    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Sprint => "sprint",
            PolicyKind::Never => "never",
        }
    }

    fn build(self, mean_service_secs: f64) -> SprintPolicy {
        match self {
            PolicyKind::Sprint => SprintPolicy::new(
                SimDuration::from_secs_f64(mean_service_secs * 0.5),
                testbed::BudgetSpec::FractionOfRefill(0.3),
                SimDuration::from_secs_f64(mean_service_secs * 10.0),
            ),
            PolicyKind::Never => SprintPolicy::never(),
        }
    }
}

fn server_config(
    cfg: &SweepConfig,
    workload: WorkloadKind,
    sustained: Rate,
    policy: PolicyKind,
    seed: u64,
) -> ServerConfig {
    let mean_service_secs = sustained.mean_interval().as_secs_f64();
    ServerConfig {
        mix: QueryMix::single(workload),
        arrivals: ArrivalSpec::poisson(sustained.scale(cfg.utilization)),
        policy: policy.build(mean_service_secs),
        slots: cfg.slots,
        num_queries: cfg.num_queries,
        warmup: 0,
        seed,
    }
}

/// Expected simulated length of a run, used to place storm windows.
fn horizon_secs(cfg: &SweepConfig, sustained: Rate) -> f64 {
    let mean_gap = sustained.mean_interval().as_secs_f64() / cfg.utilization;
    cfg.num_queries as f64 * mean_gap
}

fn check_invariants(
    cfg: &SweepConfig,
    sup: &SupervisorConfig,
    label: &str,
    supervised: &RunResult,
    p99_ref_secs: f64,
    violations: &mut Vec<Violation>,
) {
    if !supervised.conserves_queries() {
        violations.push(Violation {
            case: label.to_string(),
            invariant: "conservation",
            details: format!(
                "served {} + turned away {} != arrived {}",
                supervised.served(),
                supervised.recovery_counters().turned_away(),
                supervised.arrived()
            ),
        });
    }
    let slack_secs = 2.0;
    let max_sprint = supervised
        .records()
        .iter()
        .map(|q| q.sprint_seconds)
        .fold(0.0_f64, f64::max);
    if max_sprint > sup.watchdog_secs + slack_secs {
        violations.push(Violation {
            case: label.to_string(),
            invariant: "stuck-sprint",
            details: format!(
                "a query sprinted {max_sprint:.1}s, past the {:.1}s watchdog",
                sup.watchdog_secs
            ),
        });
    }
    if p99_ref_secs > 0.0 && supervised.served() > 0 {
        let p99 = supervised.response_quantile_secs(0.99);
        if p99 > cfg.p99_degradation_factor * p99_ref_secs {
            violations.push(Violation {
                case: label.to_string(),
                invariant: "bounded-degradation",
                details: format!(
                    "P99 {p99:.1}s exceeds {:.1}x the fault-free P99 {p99_ref_secs:.1}s",
                    cfg.p99_degradation_factor
                ),
            });
        }
    }
}

/// One supervised sweep run of `cfg` under `plan`, with a
/// [`RECORDER_CAPACITY`] flight recorder attached. The sweep, its replay
/// check and `replay_case` all run cases through here, so a replayed
/// case is the same run the sweep made.
pub(crate) fn recorded_run(
    cfg: ServerConfig,
    mech: &dyn Mechanism,
    plan: FaultPlan,
    sup: SupervisorConfig,
) -> Result<RunResult, SprintError> {
    let mut server = Server::with_supervision(cfg, mech, Some(plan), sup)?;
    server.attach_recorder(RECORDER_CAPACITY);
    server.run()
}

pub(crate) fn runs_identical(a: &RunResult, b: &RunResult) -> bool {
    a.records() == b.records()
        && a.fault_counters() == b.fault_counters()
        && a.recovery_counters() == b.recovery_counters()
        && a.arrived() == b.arrived()
        && a.telemetry() == b.telemetry()
}

/// Flight-recorder ring size for supervised sweep runs.
const RECORDER_CAPACITY: usize = 256;

/// How many trailing recorder events a violating run attaches to its
/// cell report.
const VIOLATION_EVENT_TAIL: usize = 12;

/// Attainment drop below the fault-free baseline (absolute) past which
/// a cell counts as SLO-degraded and must show an intervention.
const SILENT_DEGRADATION_SLACK: f64 = 0.02;

/// Drives the model-health breaker from a finished run: each served
/// query's observed response time is compared against the fault-free
/// mean response (standing in for the model's prediction), and level
/// changes are logged into a fresh flight recorder. Returns the breaker
/// telemetry and the dwell clock's end instant (the last departure).
fn drive_breaker(
    clean_mean_secs: f64,
    run: &RunResult,
) -> Result<(RunTelemetry, SimTime), SprintError> {
    let mut monitor = ModelHealthMonitor::new(BreakerConfig::default())?;
    let mut rec = FlightRecorder::default();
    let mut end = SimTime::ZERO;
    for q in run.records() {
        let observed = q.depart.since(q.arrival).as_secs_f64();
        end = end.max(q.depart);
        monitor.observe_with_recorder(clean_mean_secs, observed, q.depart, &mut rec);
    }
    Ok((rec.finish(), end))
}

/// Sweeps one (workload, mechanism) cell: `seeds_per_cell` randomized
/// fault plans, each run under both grid policies with supervision on
/// and off, plus per-cell reference runs for invariants 4 and 5.
///
/// # Errors
///
/// Returns an error if any run fails validation or breaks a simulator
/// invariant outright (a typed error is itself a harness failure, so it
/// propagates rather than being swallowed).
pub fn run_cell(
    cfg: &SweepConfig,
    workload: WorkloadKind,
    mechanism: MechanismKind,
) -> Result<CellReport, SprintError> {
    cfg.validate()?;
    let mech = mechanism.build();
    let sustained = mech.sustained_rate(workload);
    let slo_secs = cfg.slo_service_multiple * sustained.mean_interval().as_secs_f64();
    let sup = SupervisorConfig::default();
    let horizon = horizon_secs(cfg, sustained);
    let mut violations = Vec::new();

    // Per-cell seed stream: decorrelated from other cells but stable
    // for a fixed SweepConfig::seed.
    let mut cell_rng = SimRng::new(cfg.seed)
        .split(1 + workload as u64)
        .split(101 + mechanism as u64);

    // Fault-free reference runs per policy: invariant 5's baseline P99,
    // invariant 4's no-op-plan comparison, and the baseline attainment
    // and mean response that invariant 6 and the breaker drive against.
    let mut p99_ref = [0.0_f64; PolicyKind::ALL.len()];
    let mut clean_mean = [0.0_f64; PolicyKind::ALL.len()];
    let mut clean_attainment = [0.0_f64; PolicyKind::ALL.len()];
    for (i, policy) in PolicyKind::ALL.iter().enumerate() {
        let base_seed = cell_rng.next_u64();
        let clean_cfg = server_config(cfg, workload, sustained, *policy, base_seed);
        let clean = Server::with_supervision(clean_cfg.clone(), mech.as_ref(), None, sup)?.run()?;
        p99_ref[i] = clean.response_quantile_secs(0.99);
        clean_mean[i] = clean.mean_response_secs();
        clean_attainment[i] = clean.slo_attainment(slo_secs);
        let noop =
            Server::with_supervision(clean_cfg, mech.as_ref(), Some(FaultPlan::default()), sup)?
                .run()?;
        if !runs_identical(&clean, &noop) {
            violations.push(Violation {
                case: format!("{}/{}/{}", workload.name(), mechanism.name(), policy.name()),
                invariant: "noop-plan",
                details: "an all-off fault plan diverged from the no-plan run".to_string(),
            });
        }
    }

    let mut attainment_on = 0.0;
    let mut attainment_off = 0.0;
    let mut runs = 0u64;
    let mut recovery = RecoveryCounters::default();
    let mut fault_events = 0u64;
    let mut breaker_dwell = [0.0_f64; 3];
    let mut breaker_transitions = 0u64;
    let mut recorded_interventions = 0u64;
    let mut violation_events: Vec<Event> = Vec::new();
    for s in 0..cfg.seeds_per_cell {
        let run_seed = cell_rng.next_u64();
        let plan_seed = cell_rng.next_u64();
        let plan = random_plan(plan_seed, cfg.slots, horizon);
        for (i, policy) in PolicyKind::ALL.iter().enumerate() {
            let label = format!(
                "{}/{}/{}/seed{}",
                workload.name(),
                mechanism.name(),
                policy.name(),
                s
            );
            let scfg = server_config(cfg, workload, sustained, *policy, run_seed);
            let on = recorded_run(scfg.clone(), mech.as_ref(), plan.clone(), sup)?;
            let before_violations = violations.len();
            check_invariants(cfg, &sup, &label, &on, p99_ref[i], &mut violations);
            let replay = recorded_run(scfg.clone(), mech.as_ref(), plan.clone(), sup)?;
            if !runs_identical(&on, &replay) {
                violations.push(Violation {
                    case: label.clone(),
                    invariant: "replay",
                    details: "identical seeds produced diverging runs".to_string(),
                });
            }
            // A violating run attaches the tail of its event log so the
            // report shows what the server was doing when it went wrong.
            if violations.len() > before_violations && violation_events.is_empty() {
                if let Some(t) = on.telemetry() {
                    violation_events = t.last(VIOLATION_EVENT_TAIL).to_vec();
                }
            }
            let off = Server::with_faults(scfg, mech.as_ref(), plan.clone())?.run()?;
            let (breaker, breaker_end) = drive_breaker(clean_mean[i], &on)?;
            let dwell = breaker.breaker_dwell_secs(breaker_end);
            for (acc, d) in breaker_dwell.iter_mut().zip(dwell) {
                *acc += d;
            }
            breaker_transitions += breaker.breaker_transitions() as u64;
            recorded_interventions += on.telemetry().map_or(0, RunTelemetry::interventions) as u64;
            attainment_on += on.slo_attainment(slo_secs);
            attainment_off += off.slo_attainment(slo_secs);
            runs += 1;
            recovery = recovery.merged(on.recovery_counters());
            fault_events += on.fault_counters().total();
        }
    }
    attainment_on /= runs as f64;
    attainment_off /= runs as f64;

    // Invariant 6: degraded attainment must leave a trace. A cell whose
    // supervised attainment fell measurably below the fault-free
    // baseline with zero supervisor recoveries, zero recorded
    // interventions and zero breaker transitions degraded *silently* —
    // exactly what the telemetry layer exists to rule out.
    let clean_attainment_mean =
        clean_attainment.iter().sum::<f64>() / clean_attainment.len() as f64;
    if attainment_on < clean_attainment_mean - SILENT_DEGRADATION_SLACK
        && recovery.total() + recorded_interventions + breaker_transitions == 0
    {
        violations.push(Violation {
            case: format!("{}/{}", workload.name(), mechanism.name()),
            invariant: "silent-degradation",
            details: format!(
                "attainment {attainment_on:.3} fell below fault-free \
                 {clean_attainment_mean:.3} with zero recorded interventions"
            ),
        });
    }

    Ok(CellReport {
        workload,
        mechanism,
        runs,
        slo_secs,
        attainment_on,
        attainment_off,
        clean_attainment: clean_attainment_mean,
        recovery,
        fault_events,
        breaker_dwell_secs: breaker_dwell,
        breaker_transitions,
        recorded_interventions,
        violation_events,
        violations,
    })
}

/// Runs the full sweep over the configured grid.
///
/// # Errors
///
/// Propagates the first validation or simulator error from any cell.
pub fn sweep(cfg: &SweepConfig) -> Result<SweepReport, SprintError> {
    cfg.validate()?;
    let mut cells = Vec::new();
    for &workload in &cfg.workloads {
        for &mechanism in &cfg.mechanisms {
            cells.push(run_cell(cfg, workload, mechanism)?);
        }
    }
    Ok(SweepReport::new(cfg, cells))
}

// Re-exported so the binary can print without depending on the facade.
pub use simcore::json;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            seeds_per_cell: 2,
            num_queries: 60,
            workloads: vec![WorkloadKind::Jacobi],
            mechanisms: vec![MechanismKind::Dvfs],
            ..SweepConfig::default()
        }
    }

    #[test]
    fn config_validation_rejects_bad_grids() {
        let mut c = tiny();
        c.utilization = 1.2;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.slots = 1;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.workloads.clear();
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.seeds_per_cell = 0;
        assert!(c.validate().is_err());
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn tiny_sweep_has_no_violations() {
        let report = sweep(&tiny()).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(
            report.violations().next().is_none(),
            "tiny sweep must be invariant-clean: {:?}",
            report.violations().collect::<Vec<_>>()
        );
        let cell = &report.cells[0];
        assert_eq!(cell.runs, 4, "2 seeds x 2 policies");
        assert!(cell.fault_events > 0, "random plans must inject faults");
    }

    #[test]
    fn cells_report_breaker_dwell() {
        let report = sweep(&tiny()).unwrap();
        let cell = &report.cells[0];
        let total: f64 = cell.breaker_dwell_secs.iter().sum();
        assert!(
            total > 0.0,
            "breaker dwell must cover the cell's runs: {:?}",
            cell.breaker_dwell_secs
        );
        assert!(
            cell.recorded_interventions > 0,
            "supervised faulted runs must retain intervention events"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(&tiny()).unwrap();
        let b = sweep(&tiny()).unwrap();
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    #[test]
    fn supervision_improves_attainment_on_the_tiny_cell() {
        let mut c = tiny();
        c.seeds_per_cell = 6;
        // Full-length runs: short horizons underplay the repair outages
        // supervision exists to absorb.
        c.num_queries = 140;
        let report = sweep(&c).unwrap();
        let cell = &report.cells[0];
        assert!(
            cell.attainment_on > cell.attainment_off,
            "supervision must pay for itself: on {} vs off {}",
            cell.attainment_on,
            cell.attainment_off
        );
    }
}
