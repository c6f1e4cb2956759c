//! The chaos sweep: randomized fault plans across the (workload,
//! mechanism, policy) grid, run as scenario plans.
//!
//! Every run of the sweep is a single-node [`ScenarioPlan`] executed
//! by [`scenario::execute`] and checked by
//! [`scenario::check_invariants`], the same path a written
//! `scenarios/*.toml` file takes. Per (workload, mechanism) cell and
//! policy, a fault-free reference plan at the policy's base seed
//! carries `noop-faults`: an all-off fault plan must be bit-identical
//! to no plan at all. Then each of `seeds_per_cell` seeded
//! [`random_plan`]s becomes one case per policy, supervised, with a
//! 256-event flight recorder and four invariants:
//!
//! 1. `conservation` — `served + shed + rejected == arrived`;
//! 2. `max_sprint_secs <= 242` — no sprint outlives the watchdog by
//!    more than 2 s;
//! 3. `p99_response_secs <= p99_degradation_factor × the clean P99`,
//!    written as a literal, since the reference is the cell's clean
//!    run at the base seed, not a same-seed twin;
//! 4. `replay` — the same plan reproduces the run bit for bit,
//!    telemetry included.
//!
//! The same case with `supervised = false` is executed for the
//! efficacy comparison. What aggregates over a cell stays here: SLO
//! attainment with supervision on against off, the model-health
//! breaker driven from each supervised run, and *no silent
//! degradation* — a cell whose supervised attainment fell measurably
//! below the clean runs' must show a recorded intervention.
//!
//! A case is named `workload/mechanism/policy/seedN`, and [`emit`]
//! rebuilds its plan from that label, for `scenario_run` to run,
//! trace or record.

use chaos::random_plan;
use faults::FaultPlan;
use mechanisms::MechanismKind;
use obs::{Event, FlightRecorder, RunTelemetry};
use scenario::plan::{ArrivalKind, ArrivalsPlan, MetricOp, PolicyPlan, RunPlan, WorkloadPlan};
use scenario::{
    check_invariants, execute, InvariantSpec, ScenarioOutcome, ScenarioPlan, Topology, Violation,
};
use simcore::json::Json;
use simcore::rng::SimRng;
use simcore::time::{Rate, SimTime};
use simcore::SprintError;
use sprint_core::{BreakerConfig, ModelHealthMonitor};
use testbed::{BudgetSpec, RecoveryCounters, RunResult};
use workloads::WorkloadKind;

/// Execution slots per run (the flaky-slot fault and quarantine need
/// at least 2).
const SLOTS: usize = 2;

/// SLO as a multiple of the mean sustained service time.
const SLO_SERVICE_MULTIPLE: f64 = 3.0;

/// Supervisor watchdog interval, seconds.
const WATCHDOG_SECS: f64 = 240.0;

/// How far past the watchdog a sprint may run: a delayed unsprint
/// command arrives at most 1.5 s late.
const STUCK_SPRINT_SLACK_SECS: f64 = 2.0;

/// Flight-recorder ring size for supervised sweep runs.
const RECORDER_EVENTS: usize = 256;

/// How many trailing recorder events a violating run attaches to its
/// cell report.
const VIOLATION_EVENT_TAIL: usize = 12;

/// Attainment drop below the fault-free baseline (absolute) past which
/// a cell counts as SLO-degraded and must show an intervention.
const SILENT_DEGRADATION_SLACK: f64 = 0.02;

/// Grid axes, run sizing and the P99 bound of a sweep.
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
    /// Supervised P99 under faults must stay within this factor of the
    /// fault-free P99.
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
            p99_degradation_factor: 15.0,
            workloads: WorkloadKind::ALL.to_vec(),
            mechanisms: MechanismKind::ALL.to_vec(),
        }
    }
}

impl SweepConfig {
    /// Validates the sweep parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] naming the first bad field.
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

/// The two sprinting policies each cell is swept under, in the order
/// the sweep runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PolicyKind {
    /// Timeout-triggered sprinting with a fractional budget.
    Sprint,
    /// Never sprint — recovery must still hold without sprinting.
    Never,
}

impl PolicyKind {
    const ALL: [PolicyKind; 2] = [PolicyKind::Sprint, PolicyKind::Never];

    fn name(self) -> &'static str {
        match self {
            PolicyKind::Sprint => "sprint",
            PolicyKind::Never => "never",
        }
    }
}

/// One (workload, mechanism) cell: its fault-free reference run per
/// policy and the per-seed `(run seed, fault-plan seed)` pairs, drawn
/// from one seed stream in a fixed order.
struct Cell {
    workload: WorkloadKind,
    mechanism: MechanismKind,
    sustained: Rate,
    /// Reference runs, indexed by [`PolicyKind`].
    clean: Vec<RunResult>,
    seeds: Vec<(u64, u64)>,
}

impl Cell {
    /// Draws the cell's seeds and runs its reference plans, returning
    /// what their `noop-faults` checks found too.
    fn new(
        cfg: &SweepConfig,
        workload: WorkloadKind,
        mechanism: MechanismKind,
    ) -> Result<(Cell, Vec<Violation>), SprintError> {
        // Decorrelated from other cells but stable for a fixed
        // `SweepConfig::seed`: one base seed per policy, then the
        // per-seed pairs.
        let mut rng = SimRng::new(cfg.seed)
            .split(1 + workload as u64)
            .split(101 + mechanism as u64);
        let mut cell = Cell {
            workload,
            mechanism,
            sustained: mechanism.build().sustained_rate(workload),
            clean: Vec::new(),
            seeds: Vec::new(),
        };
        let mut violations = Vec::new();
        for policy in PolicyKind::ALL {
            let name = format!("{}/{}/{}", workload.name(), mechanism.name(), policy.name());
            let mut plan = cell.plan(cfg, name, policy, rng.next_u64());
            plan.invariants = vec![InvariantSpec::NoopFaults];
            let (run, found) = run_checked(&plan)?;
            cell.clean.push(run);
            violations.extend(found);
        }
        cell.seeds = (0..cfg.seeds_per_cell)
            .map(|_| (rng.next_u64(), rng.next_u64()))
            .collect();
        Ok((cell, violations))
    }

    /// The cell's fault-free, unrecorded, supervised plan for `policy`
    /// at `seed`, with no invariants yet.
    fn plan(&self, cfg: &SweepConfig, name: String, policy: PolicyKind, seed: u64) -> ScenarioPlan {
        let mean_service_secs = self.sustained.mean_interval().as_secs_f64();
        ScenarioPlan {
            name,
            description: format!(
                "chaos_sweep case (--seed {} --seeds {} --queries {} --util {} --p99-factor {})",
                cfg.seed,
                cfg.seeds_per_cell,
                cfg.num_queries,
                cfg.utilization,
                cfg.p99_degradation_factor
            ),
            seed,
            cross_seed: false,
            topology: Topology::SingleNode,
            workload: WorkloadPlan {
                mix: self.workload.name().to_ascii_lowercase(),
                mechanism: self.mechanism,
            },
            arrivals: ArrivalsPlan {
                rate_per_hour: self.sustained.scale(cfg.utilization).qph(),
                kind: ArrivalKind::Poisson,
                segments: Vec::new(),
                flash: None,
            },
            policy: PolicyPlan {
                enabled: policy == PolicyKind::Sprint,
                timeout_secs: mean_service_secs * 0.5,
                budget: BudgetSpec::FractionOfRefill(0.3),
                refill_secs: mean_service_secs * 10.0,
            },
            run: RunPlan {
                queries: cfg.num_queries,
                warmup: 0,
                slots: SLOTS,
                watchdog_secs: WATCHDOG_SECS,
                supervised: true,
                recorder_events: 0,
            },
            faults: FaultPlan::default(),
            fleet: None,
            cloning: None,
            invariants: Vec::new(),
        }
    }

    /// The supervised, recorded case `policy`/`seed{s}` under its
    /// seeded random fault plan, with the four per-run invariants.
    fn case(&self, cfg: &SweepConfig, policy: PolicyKind, s: u64) -> ScenarioPlan {
        let (run_seed, plan_seed) = self.seeds[s as usize];
        let name = format!(
            "{}/{}/{}/seed{s}",
            self.workload.name(),
            self.mechanism.name(),
            policy.name()
        );
        // Expected simulated length of a run, used to place storm
        // windows.
        let mean_gap = self.sustained.mean_interval().as_secs_f64() / cfg.utilization;
        let horizon_secs = cfg.num_queries as f64 * mean_gap;
        let p99_ref = self.clean[policy as usize].response_quantile_secs(0.99);
        let bound = |metric: &str, value: f64| InvariantSpec::Metric {
            metric: metric.to_string(),
            op: MetricOp::Le,
            value,
        };
        let mut plan = self.plan(cfg, name, policy, run_seed);
        plan.faults = random_plan(plan_seed, SLOTS, horizon_secs);
        plan.run.recorder_events = RECORDER_EVENTS;
        plan.invariants = vec![
            InvariantSpec::Conservation,
            bound("max_sprint_secs", WATCHDOG_SECS + STUCK_SPRINT_SLACK_SECS),
            bound("p99_response_secs", cfg.p99_degradation_factor * p99_ref),
            InvariantSpec::Replay,
        ];
        plan
    }
}

/// Executes a sweep plan at its seed and evaluates its invariants.
fn run_checked(plan: &ScenarioPlan) -> Result<(RunResult, Vec<Violation>), SprintError> {
    let outcome = execute(plan, plan.seed)?;
    let violations = check_invariants(plan, &outcome, plan.seed)?;
    match outcome {
        ScenarioOutcome::SingleNode(run) => Ok((*run, violations)),
        _ => unreachable!("sweep plans are single-node"),
    }
}

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

/// Sweeps one (workload, mechanism) cell.
fn sweep_cell(
    cfg: &SweepConfig,
    workload: WorkloadKind,
    mechanism: MechanismKind,
) -> Result<CellReport, SprintError> {
    let (cell, mut violations) = Cell::new(cfg, workload, mechanism)?;
    let slo_secs = SLO_SERVICE_MULTIPLE * cell.sustained.mean_interval().as_secs_f64();
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
        for (policy, clean) in PolicyKind::ALL.into_iter().zip(&cell.clean) {
            let mut plan = cell.case(cfg, policy, s);
            let (on, found) = run_checked(&plan)?;
            // A violating run attaches the tail of its event log so the
            // report shows what the server was doing when it went wrong.
            if !found.is_empty() && violation_events.is_empty() {
                if let Some(t) = on.telemetry() {
                    violation_events = t.last(VIOLATION_EVENT_TAIL).to_vec();
                }
            }
            violations.extend(found);
            plan.run.supervised = false;
            plan.invariants.clear();
            let (off, _) = run_checked(&plan)?;
            let (breaker, breaker_end) = drive_breaker(clean.mean_response_secs(), &on)?;
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

    // No silent degradation: a cell whose supervised attainment fell
    // measurably below the fault-free baseline with zero supervisor
    // recoveries, zero recorded interventions and zero breaker
    // transitions degraded without a trace — exactly what the
    // telemetry layer exists to rule out.
    let clean_attainment = cell
        .clean
        .iter()
        .map(|r| r.slo_attainment(slo_secs))
        .sum::<f64>()
        / cell.clean.len() as f64;
    if attainment_on < clean_attainment - SILENT_DEGRADATION_SLACK
        && recovery.total() + recorded_interventions + breaker_transitions == 0
    {
        violations.push(Violation {
            scenario: format!("{}/{}", workload.name(), mechanism.name()),
            invariant: "silent-degradation",
            details: format!(
                "attainment {attainment_on:.3} fell below fault-free \
                 {clean_attainment:.3} with zero recorded interventions"
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
        clean_attainment,
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
/// Returns an error if the configuration is invalid or any run fails
/// outright (a typed error is itself a harness failure, so it
/// propagates rather than being swallowed).
pub fn sweep(cfg: &SweepConfig) -> Result<SweepReport, SprintError> {
    cfg.validate()?;
    let mut cells = Vec::new();
    for &workload in &cfg.workloads {
        for &mechanism in &cfg.mechanisms {
            cells.push(sweep_cell(cfg, workload, mechanism)?);
        }
    }
    Ok(SweepReport {
        seed: cfg.seed,
        seeds_per_cell: cfg.seeds_per_cell,
        num_queries: cfg.num_queries,
        cells,
    })
}

/// Rebuilds the plan of the sweep case named `label`
/// (`workload/mechanism/policy/seedN`, as reported in a violation).
/// Every per-run seed derives from `cfg`, so the label names the same
/// run only under the `cfg` of the sweep that reported it.
///
/// # Errors
///
/// Returns an error if the label does not parse, its seed index is out
/// of range for `cfg.seeds_per_cell`, or a reference run fails.
pub fn emit(cfg: &SweepConfig, label: &str) -> Result<ScenarioPlan, SprintError> {
    cfg.validate()?;
    let bad = |what: &str| {
        SprintError::invalid(
            "chaos_sweep --emit",
            format!("{what} in case `{label}` (expected workload/mechanism/policy/seedN)"),
        )
    };
    let parts: Vec<&str> = label.split('/').collect();
    let [w, m, p, s] = parts[..] else {
        return Err(bad("wrong number of segments"));
    };
    let workload = WorkloadKind::parse(w).ok_or_else(|| bad("unknown workload"))?;
    let mechanism = MechanismKind::parse(m).ok_or_else(|| bad("unknown mechanism"))?;
    let policy = PolicyKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(p))
        .ok_or_else(|| bad("unknown policy"))?;
    let seed_idx = s
        .strip_prefix("seed")
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| bad("bad seed index"))?;
    if seed_idx >= cfg.seeds_per_cell {
        return Err(bad(&format!(
            "seed index {seed_idx} out of range for {} seeds per cell",
            cfg.seeds_per_cell
        )));
    }
    let (cell, _) = Cell::new(cfg, workload, mechanism)?;
    Ok(cell.case(cfg, policy, seed_idx))
}

/// Aggregated outcome of one (workload, mechanism) grid cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Workload of this cell.
    pub workload: WorkloadKind,
    /// Mechanism of this cell.
    pub mechanism: MechanismKind,
    /// Fault-injected runs aggregated into the attainment averages.
    pub runs: u64,
    /// SLO used for attainment, in seconds.
    pub slo_secs: f64,
    /// Mean SLO attainment with supervision on (shed/rejected arrivals
    /// count as misses).
    pub attainment_on: f64,
    /// Mean SLO attainment with supervision off, same fault plans.
    pub attainment_off: f64,
    /// Mean fault-free SLO attainment — the baseline the
    /// silent-degradation check compares against.
    pub clean_attainment: f64,
    /// Summed supervisor intervention counters across the cell's
    /// supervised runs.
    pub recovery: RecoveryCounters,
    /// Total injected fault events across the cell's supervised runs.
    pub fault_events: u64,
    /// Summed seconds at each model-health breaker level (full-model,
    /// stale-model, no-sprint) across the cell's supervised runs.
    pub breaker_dwell_secs: [f64; 3],
    /// Total breaker level transitions across the cell's supervised
    /// runs.
    pub breaker_transitions: u64,
    /// Flight-recorder intervention events retained across the cell's
    /// supervised runs.
    pub recorded_interventions: u64,
    /// Tail of the event log from the first violating run, if any.
    pub violation_events: Vec<Event>,
    /// Invariant violations in this cell; `scenario` names the case.
    pub violations: Vec<Violation>,
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn count(n: u64) -> Json {
    Json::Num(n as f64)
}

impl CellReport {
    /// Whether supervision strictly improved SLO attainment here.
    pub fn improved(&self) -> bool {
        self.attainment_on > self.attainment_off
    }

    fn to_json(&self) -> Json {
        let r = &self.recovery;
        let [full, stale, no_sprint] = self.breaker_dwell_secs;
        obj([
            ("workload", Json::Str(self.workload.name().to_string())),
            ("mechanism", Json::Str(self.mechanism.name().to_string())),
            ("runs", count(self.runs)),
            ("slo_secs", Json::Num(self.slo_secs)),
            ("slo_attainment_supervised", Json::Num(self.attainment_on)),
            (
                "slo_attainment_unsupervised",
                Json::Num(self.attainment_off),
            ),
            ("supervision_improves", Json::Bool(self.improved())),
            ("clean_attainment", Json::Num(self.clean_attainment)),
            ("recovery_events", count(r.total())),
            (
                "recovery",
                obj([
                    ("slot_restarts", count(r.slot_restarts)),
                    ("quarantines", count(r.quarantines)),
                    ("forced_unsprints", count(r.forced_unsprints)),
                    ("shed_queries", count(r.shed_queries)),
                    ("rejected_queries", count(r.rejected_queries)),
                    ("requeued_queries", count(r.requeued_queries)),
                    ("degraded_secs", Json::Num(r.degraded_secs)),
                ]),
            ),
            ("fault_events", count(self.fault_events)),
            (
                "breaker_dwell_secs",
                obj([
                    ("full_model", Json::Num(full)),
                    ("stale_model", Json::Num(stale)),
                    ("no_sprint", Json::Num(no_sprint)),
                ]),
            ),
            ("breaker_transitions", count(self.breaker_transitions)),
            ("recorded_interventions", count(self.recorded_interventions)),
            (
                "violation_events",
                Json::Arr(self.violation_events.iter().map(Event::to_json).collect()),
            ),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            obj([
                                ("case", Json::Str(v.scenario.clone())),
                                ("invariant", Json::Str(v.invariant.to_string())),
                                ("details", Json::Str(v.details.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Full sweep outcome: every cell plus top-level verdicts.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Base seed the sweep derives from.
    pub seed: u64,
    /// Randomized plans per cell.
    pub seeds_per_cell: u64,
    /// Queries per run.
    pub num_queries: usize,
    /// All grid cells.
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// All invariant violations across the sweep.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.cells.iter().flat_map(|c| c.violations.iter())
    }

    /// Whether supervision strictly improved SLO attainment in every
    /// cell — the sweep's recovery-efficacy verdict.
    pub fn all_cells_improved(&self) -> bool {
        self.cells.iter().all(CellReport::improved)
    }

    /// Whether the sweep is fully clean: zero violations and strict
    /// improvement everywhere.
    pub fn passed(&self) -> bool {
        self.violations().next().is_none() && self.all_cells_improved()
    }

    /// The report as the `chaos_sweep` bin prints it.
    pub fn to_json(&self) -> Json {
        obj([
            ("seed", count(self.seed)),
            ("seeds_per_cell", count(self.seeds_per_cell)),
            ("num_queries", count(self.num_queries as u64)),
            (
                "invariant_violations",
                count(self.violations().count() as u64),
            ),
            ("all_cells_improved", Json::Bool(self.all_cells_improved())),
            ("passed", Json::Bool(self.passed())),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ])
    }
}

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

    #[test]
    fn emitted_case_matches_the_sweeps_verdict() {
        // The tiny sweep is invariant-clean, so its emitted cases must
        // come back clean too — and deterministically.
        let a = emit(&tiny(), "Jacobi/DVFS/sprint/seed1").unwrap();
        let b = emit(&tiny(), "Jacobi/DVFS/sprint/seed1").unwrap();
        let (run_a, violations) = run_checked(&a).unwrap();
        let (run_b, _) = run_checked(&b).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(run_a.fault_counters().total() > 0, "the plan must inject");
        assert!(
            run_a
                .telemetry()
                .is_some_and(|t| !t.last(VIOLATION_EVENT_TAIL).is_empty()),
            "recorder tail must be attached"
        );
        assert_eq!(a.faults, b.faults);
        assert_eq!(
            run_a.fault_counters().total(),
            run_b.fault_counters().total()
        );
    }

    #[test]
    fn bad_labels_are_rejected() {
        let cfg = tiny();
        assert!(emit(&cfg, "Jacobi/DVFS/sprint").is_err());
        assert!(emit(&cfg, "NoSuch/DVFS/sprint/seed0").is_err());
        assert!(emit(&cfg, "Jacobi/NoSuch/sprint/seed0").is_err());
        assert!(emit(&cfg, "Jacobi/DVFS/nosuch/seed0").is_err());
        assert!(emit(&cfg, "Jacobi/DVFS/sprint/seed99").is_err());
        assert!(emit(&cfg, "Jacobi/DVFS/sprint/0").is_err());
    }

    /// Every case of a small full-grid sweep, emitted from its label as
    /// TOML, parses back to the plan the sweep runs for it, round-trips
    /// through the canonical serializer, and executes to the sweep's run
    /// of that plan — records, counters and recorder telemetry alike.
    #[test]
    fn emitted_cases_reproduce_the_sweeps_runs() {
        let cfg = SweepConfig {
            seeds_per_cell: 1,
            num_queries: 40,
            ..SweepConfig::default()
        };
        let mut cases = Vec::new();
        for &workload in &cfg.workloads {
            for &mechanism in &cfg.mechanisms {
                let (cell, _) = Cell::new(&cfg, workload, mechanism).unwrap();
                for policy in PolicyKind::ALL {
                    // The sweep's own steps for this case.
                    let plan = cell.case(&cfg, policy, 0);
                    let (run, _) = run_checked(&plan).unwrap();
                    cases.push((plan, run));
                }
            }
        }
        assert_eq!(
            cases.len(),
            7 * 4 * 2,
            "every (workload, mechanism, policy)"
        );
        for (plan, run) in &cases {
            let text = emit(&cfg, &plan.name).unwrap().to_toml_string().unwrap();
            let parsed = ScenarioPlan::from_toml_str(&text).unwrap();
            assert_eq!(&parsed, plan, "{} emits another plan:\n{text}", plan.name);
            assert_eq!(parsed.to_toml_string().unwrap(), text, "{}", plan.name);
            let ScenarioOutcome::SingleNode(rerun) = execute(&parsed, parsed.seed).unwrap() else {
                panic!("{} is not single-node", plan.name)
            };
            assert!(run.telemetry().is_some(), "{} ran unrecorded", plan.name);
            assert_eq!(
                format!("{rerun:?}"),
                format!("{run:?}"),
                "{} diverged from the sweep's run",
                plan.name
            );
        }
    }
}
