//! Machine-checked invariant evaluation.
//!
//! Every [`InvariantSpec`] in a scenario file is evaluated against the
//! executed outcome; a failed assertion becomes a [`Violation`] (the
//! scenario's verdict), while an invariant that cannot even be
//! evaluated — simulator error on a replay, say — propagates as a
//! typed [`SprintError`] (a harness failure). Some invariants trigger
//! extra runs: `replay` re-executes the plan, `clean-twin-bounded`
//! runs a fault-free twin, `noop-faults` runs an all-off fault plan,
//! `root-cause` re-runs traced, and `bit-identity` runs the cloning
//! reference engine.

use fleet::FleetResult;
use obs::CauseReason;
use qsim::{results_bit_identical, Cloning};
use simcore::SprintError;
use testbed::RunResult;

use crate::exec::{
    self, build_cloning, execute, max_sprint_secs, metric, trace_graph, with_server, Faults,
    ScenarioOutcome,
};
use crate::plan::{InvariantSpec, ScenarioPlan, Topology};

/// One failed invariant assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Scenario name.
    pub scenario: String,
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable context.
    pub details: String,
}

/// Evaluates every invariant of the plan against the executed outcome
/// (which must have been produced by [`execute`] at `seed`).
///
/// # Errors
///
/// Returns [`SprintError`] if an invariant's auxiliary run (replay,
/// clean twin, traced rerun, reference engine) fails to execute.
pub fn check_invariants(
    plan: &ScenarioPlan,
    outcome: &ScenarioOutcome,
    seed: u64,
) -> Result<Vec<Violation>, SprintError> {
    let mut violations = Vec::new();
    let mut fail = |invariant: &'static str, details: String| {
        violations.push(Violation {
            scenario: plan.name.clone(),
            invariant,
            details,
        });
    };
    for inv in &plan.invariants {
        match inv {
            InvariantSpec::Conservation => check_conservation(plan, outcome, &mut fail),
            InvariantSpec::Replay => check_replay(plan, outcome, seed, &mut fail)?,
            InvariantSpec::CleanTwinBounded { slack_secs } => {
                check_clean_twin(plan, seed, *slack_secs, &mut fail)?;
            }
            InvariantSpec::NoopFaults => check_noop_faults(plan, outcome, seed, &mut fail)?,
            InvariantSpec::Metric {
                metric: m,
                op,
                value,
            } => match metric(plan, outcome, m) {
                None => fail(
                    "metric",
                    format!("unknown metric `{m}` for {} topology", plan.topology.name()),
                ),
                Some(actual) => {
                    if !op.holds(actual, *value) {
                        fail(
                            "metric",
                            format!("{m} = {actual} violates {m} {} {value}", op.name()),
                        );
                    }
                }
            },
            InvariantSpec::RootCause { expect } => {
                check_root_cause(plan, seed, expect, &mut fail)?;
            }
            InvariantSpec::FleetClean => {
                if let ScenarioOutcome::Fleet(fr) = outcome {
                    if !fr.violations.is_empty() {
                        fail(
                            "fleet-clean",
                            format!(
                                "{} fleet invariant violations: {:?}",
                                fr.violations.len(),
                                fr.violations
                            ),
                        );
                    }
                }
            }
            InvariantSpec::BudgetConservation { slack_secs } => {
                check_budget(plan, outcome, *slack_secs, &mut fail);
            }
            InvariantSpec::BitIdentity => {
                if let ScenarioOutcome::Cloning(cr) = outcome {
                    let reference = Cloning::new(build_cloning(plan, seed)?)?.run_reference()?;
                    if !results_bit_identical(cr, &reference) {
                        fail(
                            "bit-identity",
                            "incremental engine diverged from the reference engine".to_string(),
                        );
                    }
                }
            }
        }
    }
    Ok(violations)
}

fn check_conservation(
    plan: &ScenarioPlan,
    outcome: &ScenarioOutcome,
    fail: &mut impl FnMut(&'static str, String),
) {
    match outcome {
        ScenarioOutcome::SingleNode(run) => {
            if !run.conserves_queries() {
                fail(
                    "conservation",
                    format!("arrived {} != served {}", run.arrived(), run.served()),
                );
            }
        }
        ScenarioOutcome::Fleet(fr) => {
            let expected = plan.run.queries as u64;
            if fr.served != expected {
                fail(
                    "conservation",
                    format!("fleet served {} of {expected} queries", fr.served),
                );
            }
        }
        ScenarioOutcome::Cloning(cr) => {
            if !cr.conserves_clones() {
                fail(
                    "conservation",
                    format!(
                        "spawned {} != winners {} + cancelled {} + ghosts {}",
                        cr.spawned, cr.winners, cr.cancelled, cr.ghosts
                    ),
                );
            }
            let expected = plan.run.queries as u64;
            if cr.winners != expected {
                fail(
                    "conservation",
                    format!(
                        "{} winners for {expected} requests (double-counted or lost completions)",
                        cr.winners
                    ),
                );
            }
        }
    }
}

fn single_runs_identical(a: &RunResult, b: &RunResult) -> bool {
    a.records() == b.records()
        && a.fault_counters() == b.fault_counters()
        && a.recovery_counters() == b.recovery_counters()
        && a.arrived() == b.arrived()
        && a.telemetry() == b.telemetry()
}

/// Whether two fleet runs agree on every field of the result: floats
/// by bits, counters, lease stats, degradation census, in-run
/// violations, and (for traced runs) every recorder's telemetry.
fn fleet_runs_identical(a: &FleetResult, b: &FleetResult) -> bool {
    a.nodes == b.nodes
        && a.served == b.served
        && a.horizon_secs.to_bits() == b.horizon_secs.to_bits()
        && a.mean_response_secs.to_bits() == b.mean_response_secs.to_bits()
        && a.sprint_fraction.to_bits() == b.sprint_fraction.to_bits()
        && a.budget_power == b.budget_power
        && a.peak_held_power == b.peak_held_power
        && a.budget_utilization.to_bits() == b.budget_utilization.to_bits()
        && a.forced_unsprints == b.forced_unsprints
        && a.stats == b.stats
        && a.degradation == b.degradation
        && a.counters == b.counters
        && a.violations == b.violations
        && a.telemetry == b.telemetry
        && a.node_telemetries == b.node_telemetries
}

fn check_replay(
    plan: &ScenarioPlan,
    outcome: &ScenarioOutcome,
    seed: u64,
    fail: &mut impl FnMut(&'static str, String),
) -> Result<(), SprintError> {
    let twin = execute(plan, seed)?;
    let identical = match (outcome, &twin) {
        (ScenarioOutcome::SingleNode(a), ScenarioOutcome::SingleNode(b)) => {
            single_runs_identical(a, b)
        }
        (ScenarioOutcome::Fleet(a), ScenarioOutcome::Fleet(b)) => fleet_runs_identical(a, b),
        (ScenarioOutcome::Cloning(a), ScenarioOutcome::Cloning(b)) => results_bit_identical(a, b),
        _ => false,
    };
    if !identical {
        fail(
            "replay",
            "identical plan and seed produced a diverging run".to_string(),
        );
    }
    Ok(())
}

/// Runs a fault-free twin of a single-node scenario and checks the
/// watchdog reaction bound: without injected faults no sprint may
/// overrun the watchdog interval by more than the slack, and no
/// message-fault counter may tick.
fn check_clean_twin(
    plan: &ScenarioPlan,
    seed: u64,
    slack_secs: f64,
    fail: &mut impl FnMut(&'static str, String),
) -> Result<(), SprintError> {
    if plan.topology != Topology::SingleNode {
        return Ok(());
    }
    let clean = with_server(plan, seed, Faults::Off, |server| server.run())?;
    let bound = plan.run.watchdog_secs + slack_secs;
    let max_sprint = max_sprint_secs(clean.records());
    if max_sprint > bound {
        fail(
            "clean-twin-bounded",
            format!("fault-free twin sprinted {max_sprint:.1}s, watchdog bound is {bound:.1}s"),
        );
    }
    if clean.fault_counters().total() != 0 {
        fail(
            "clean-twin-bounded",
            format!(
                "fault-free twin counted {} injected faults",
                clean.fault_counters().total()
            ),
        );
    }
    Ok(())
}

/// Runs the single-node plan with an all-off fault plan and checks it
/// against the same server with no plan, which is the executed run
/// itself when the plan injects nothing: an armed-but-empty injector
/// must draw nothing and change nothing.
fn check_noop_faults(
    plan: &ScenarioPlan,
    outcome: &ScenarioOutcome,
    seed: u64,
    fail: &mut impl FnMut(&'static str, String),
) -> Result<(), SprintError> {
    let ScenarioOutcome::SingleNode(run) = outcome else {
        return Ok(());
    };
    let unplanned = if plan.faults.is_noop() {
        None
    } else {
        Some(with_server(plan, seed, Faults::Off, |server| server.run())?)
    };
    let noop = with_server(plan, seed, Faults::AllOff, |server| server.run())?;
    if !single_runs_identical(unplanned.as_ref().unwrap_or(run), &noop) {
        fail(
            "noop-faults",
            "an all-off fault plan diverged from the no-plan run".to_string(),
        );
    }
    Ok(())
}

/// Maps a schema root-cause name to the trace vocabulary.
fn parse_cause(name: &str) -> Option<CauseReason> {
    [
        CauseReason::MessageDrop,
        CauseReason::MessageDelay,
        CauseReason::Partition,
        CauseReason::LeaseLapse,
        CauseReason::RenewalTimeout,
    ]
    .into_iter()
    .find(|c| c.name() == name)
}

fn check_root_cause(
    plan: &ScenarioPlan,
    seed: u64,
    expect: &str,
    fail: &mut impl FnMut(&'static str, String),
) -> Result<(), SprintError> {
    let Some(expected) = parse_cause(expect) else {
        fail("root-cause", format!("unknown cause name `{expect}`"));
        return Ok(());
    };
    let dominant = trace_graph(plan, seed)?.and_then(|g| g.dominant_root_cause());
    if dominant != Some(expected) {
        fail(
            "root-cause",
            format!(
                "expected dominant root cause {}, trace says {}",
                expected.name(),
                dominant.map_or("none", CauseReason::name)
            ),
        );
    }
    Ok(())
}

/// Budget conservation: sprint-seconds spent must not exceed the
/// initial capacity plus what the refill could add over the run's
/// horizon, within the slack.
fn check_budget(
    plan: &ScenarioPlan,
    outcome: &ScenarioOutcome,
    slack_secs: f64,
    fail: &mut impl FnMut(&'static str, String),
) {
    let (spent, capacity, refill_secs, horizon) = match outcome {
        ScenarioOutcome::SingleNode(run) => {
            let spent: f64 = run.records().iter().map(|r| r.sprint_seconds).sum();
            let capacity = exec::build_policy(plan).budget_capacity();
            let horizon = run
                .records()
                .iter()
                .map(|r| r.depart.as_secs_f64())
                .fold(0.0, f64::max);
            (spent, capacity, plan.policy.refill_secs, horizon)
        }
        ScenarioOutcome::Cloning(cr) => {
            let c = plan.cloning.as_ref().expect("validated cloning section");
            let spent: f64 = cr.queries.iter().map(|q| q.sprint_secs).sum();
            let horizon = cr.queries.iter().map(|q| q.depart_secs).fold(0.0, f64::max);
            (spent, c.budget_secs, c.refill_secs, horizon)
        }
        ScenarioOutcome::Fleet(_) => return,
    };
    if !capacity.is_finite() {
        return;
    }
    let allowed = capacity + capacity * (horizon / refill_secs) + slack_secs;
    if spent > allowed {
        fail(
            "budget-conservation",
            format!(
                "spent {spent:.1} sprint-seconds, budget admits at most {allowed:.1} \
                 (capacity {capacity:.1}, refill every {refill_secs:.0}s over {horizon:.0}s)"
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{run_fleet, FleetSpec};

    /// The fleet replay check compares the whole result: a copy that
    /// differs only in one lease counter is a divergence.
    #[test]
    fn fleet_replay_compares_lease_stats() {
        let run = run_fleet(&FleetSpec::small(7, 3).unwrap()).unwrap();
        assert!(fleet_runs_identical(&run, &run.clone()));
        let mut diverged = run.clone();
        diverged.stats.grants += 1;
        assert!(!fleet_runs_identical(&run, &diverged));
    }
}
