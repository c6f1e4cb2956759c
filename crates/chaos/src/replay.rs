//! Single-case replay: re-run one sweep cell run by its case label.
//!
//! A sweep violation names its run as `workload/mechanism/policy/seedN`
//! (e.g. `Jacobi/DVFS/sprint/seed3`). Because every per-run seed is
//! derived deterministically from [`SweepConfig::seed`], that label is
//! enough to reconstruct the exact `(config, plan)` pair and re-execute
//! just the one run — with the flight recorder attached — instead of
//! the whole sweep. `chaos_sweep --replay <case>` exposes this for
//! debugging: it re-checks the invariants and prints the recorder tail.

use faults::{FaultCounters, FaultPlan};
use mechanisms::MechanismKind;
use obs::Event;
use simcore::rng::SimRng;
use simcore::SprintError;
use testbed::{Server, SupervisorConfig};
use workloads::WorkloadKind;

use crate::plan::random_plan;
use crate::report::Violation;
use crate::{
    check_invariants, horizon_secs, recorded_run, runs_identical, server_config, PolicyKind,
    SweepConfig, VIOLATION_EVENT_TAIL,
};

/// Outcome of replaying one case.
#[derive(Debug, Clone)]
pub struct CaseReplay {
    /// The case label as parsed back (canonical form).
    pub label: String,
    /// The regenerated fault plan the run executed under.
    pub plan: FaultPlan,
    /// Invariant violations observed on the re-run (empty = clean).
    pub violations: Vec<Violation>,
    /// Tail of the run's flight-recorder event log.
    pub events: Vec<Event>,
    /// Total injected fault events.
    pub fault_events: u64,
    /// Full fault counters, for per-class message breakdowns.
    pub counters: FaultCounters,
}

fn parse_label(case: &str) -> Result<(WorkloadKind, MechanismKind, PolicyKind, u64), SprintError> {
    let bad = |what: &str| {
        SprintError::invalid(
            "replay_case",
            format!("{what} in case `{case}` (expected workload/mechanism/policy/seedN)"),
        )
    };
    let parts: Vec<&str> = case.split('/').collect();
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
    Ok((workload, mechanism, policy, seed_idx))
}

/// Re-runs the single sweep run named by `case` under `cfg`, with the
/// flight recorder attached, re-checking the per-run invariants.
///
/// `cfg` must match the sweep that reported the case (same `seed`,
/// `seeds_per_cell`, sizing), or the derived per-run seeds will name a
/// different run.
///
/// # Errors
///
/// Returns an error if the label does not parse, the seed index is out
/// of range for `cfg.seeds_per_cell`, or the run itself fails.
pub fn replay_case(cfg: &SweepConfig, case: &str) -> Result<CaseReplay, SprintError> {
    cfg.validate()?;
    let (workload, mechanism, policy, seed_idx) = parse_label(case)?;
    if seed_idx >= cfg.seeds_per_cell {
        return Err(SprintError::invalid(
            "replay_case",
            format!(
                "seed index {seed_idx} out of range: the sweep ran {} seeds per cell",
                cfg.seeds_per_cell
            ),
        ));
    }
    let mech = mechanism.build();
    let sustained = mech.sustained_rate(workload);
    let sup = SupervisorConfig::default();
    let horizon = horizon_secs(cfg, sustained);

    // Replicate run_cell's draw order exactly: one base seed per policy
    // for the clean reference runs, then (run_seed, plan_seed) pairs.
    let mut cell_rng = SimRng::new(cfg.seed)
        .split(1 + workload as u64)
        .split(101 + mechanism as u64);
    let mut p99_ref = [0.0_f64; PolicyKind::ALL.len()];
    for (i, pol) in PolicyKind::ALL.iter().enumerate() {
        let base_seed = cell_rng.next_u64();
        let clean_cfg = server_config(cfg, workload, sustained, *pol, base_seed);
        let clean = Server::with_supervision(clean_cfg, mech.as_ref(), None, sup)?.run()?;
        p99_ref[i] = clean.response_quantile_secs(0.99);
    }
    let mut run_seed = 0;
    let mut plan_seed = 0;
    for _ in 0..=seed_idx {
        run_seed = cell_rng.next_u64();
        plan_seed = cell_rng.next_u64();
    }
    let plan = random_plan(plan_seed, cfg.slots, horizon);
    let policy_idx = PolicyKind::ALL
        .iter()
        .position(|k| *k == policy)
        .unwrap_or(0);

    let label = format!(
        "{}/{}/{}/seed{}",
        workload.name(),
        mechanism.name(),
        policy.name(),
        seed_idx
    );
    let scfg = server_config(cfg, workload, sustained, policy, run_seed);
    let run = recorded_run(scfg.clone(), mech.as_ref(), plan.clone(), sup)?;
    let mut violations = Vec::new();
    check_invariants(
        cfg,
        &sup,
        &label,
        &run,
        p99_ref[policy_idx],
        &mut violations,
    );
    let rerun = recorded_run(scfg, mech.as_ref(), plan.clone(), sup)?;
    if !runs_identical(&run, &rerun) {
        violations.push(Violation {
            case: label.clone(),
            invariant: "replay",
            details: "identical seeds produced diverging runs".to_string(),
        });
    }
    let events = run
        .telemetry()
        .map(|t| t.last(VIOLATION_EVENT_TAIL).to_vec())
        .unwrap_or_default();
    Ok(CaseReplay {
        label,
        plan,
        violations,
        events,
        fault_events: run.fault_counters().total(),
        counters: *run.fault_counters(),
    })
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
    fn replayed_case_matches_the_sweeps_verdict() {
        // The tiny sweep is invariant-clean, so replaying any of its
        // cases must also come back clean — and deterministically.
        let a = replay_case(&tiny(), "Jacobi/DVFS/sprint/seed1").unwrap();
        let b = replay_case(&tiny(), "Jacobi/DVFS/sprint/seed1").unwrap();
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert!(a.fault_events > 0, "the regenerated plan must inject");
        assert!(!a.events.is_empty(), "recorder tail must be attached");
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.fault_events, b.fault_events);
    }

    #[test]
    fn bad_labels_are_rejected() {
        let cfg = tiny();
        assert!(replay_case(&cfg, "Jacobi/DVFS/sprint").is_err());
        assert!(replay_case(&cfg, "NoSuch/DVFS/sprint/seed0").is_err());
        assert!(replay_case(&cfg, "Jacobi/NoSuch/sprint/seed0").is_err());
        assert!(replay_case(&cfg, "Jacobi/DVFS/nosuch/seed0").is_err());
        assert!(replay_case(&cfg, "Jacobi/DVFS/sprint/seed99").is_err());
        assert!(replay_case(&cfg, "Jacobi/DVFS/sprint/0").is_err());
    }
}
