//! `catalog`: the scenario catalog as `scenario_run --smoke` runs it.
//!
//! The twelve plans are pinned: this package keeps its own frozen copy
//! (`perfbench/scenarios/`), compiled in, so adding or editing files in
//! the repository's `scenarios/` does not change the workload. Set-up
//! parses them and fails loudly if one no longer parses. One op makes
//! [`PASSES`] identical passes over the catalog on the run's worker
//! threads, each running every plan at its committed seed —
//! `scenario::execute`, then `scenario::check_invariants`, the two calls
//! `run_plan` makes — and every scenario must pass. It is the only
//! workload that runs `qsim::cloning` and scenario invariant checking.
//!
//! Several passes per op, because a single ~90 ms pass sat wholly in
//! either of the host's fast and slow states (see `fleet_replay`), so
//! the median op time flipped between them from run to run.

use scenario::{check_invariants, execute, metric, ScenarioPlan, Topology};

use crate::harness::{par_map, Digest, Workload};
use crate::layers::{EXECUTE, INVARIANTS, PARSE};
use crate::trace::Ctx;

macro_rules! pin {
    ($name:literal) => {
        (
            $name,
            include_str!(concat!("../scenarios/", $name, ".toml")),
        )
    };
}

/// `(file stem, TOML text)` of every pinned plan.
const PINNED: [(&str, &str); 12] = [
    pin!("cloning-cancel-loss-storm"),
    pin!("cloning-race-low-load"),
    pin!("cloning-sprint-budget"),
    pin!("delayed-budget-telemetry"),
    pin!("diurnal-budget-pressure"),
    pin!("flash-crowd-single"),
    pin!("fleet-flash-crowd"),
    pin!("fleet-renewal-storm"),
    pin!("fleet-split-brain"),
    pin!("lost-unsprint-command"),
    pin!("pareto-heavy-tail"),
    pin!("watchdog-partition"),
];

/// Passes over the catalog per op.
const PASSES: usize = 8;

/// The parsed pinned plans, and the workers an op runs them on.
pub struct Catalog {
    plans: Vec<ScenarioPlan>,
    threads: usize,
}

fn topology_index(t: Topology) -> usize {
    match t {
        Topology::SingleNode => 0,
        Topology::Fleet => 1,
        Topology::Cloning => 2,
    }
}

/// Parses the pinned texts; every one must parse and carry its name.
fn parse(pinned: &[(&str, &str)], ctx: Ctx<'_>) -> Result<Vec<ScenarioPlan>, String> {
    pinned
        .iter()
        .map(|&(name, text)| {
            let plan = ctx
                .span(PARSE, |_| ScenarioPlan::from_toml_str(text))
                .map_err(|e| format!("pinned scenario {name} no longer parses: {e}"))?;
            if plan.name != name {
                return Err(format!("pinned scenario {name} is named {}", plan.name));
            }
            Ok(plan)
        })
        .collect()
}

/// One scenario run at the plan's committed seed; a digest of what it
/// served.
fn run(plan: &ScenarioPlan, ctx: Ctx<'_>) -> Result<Digest, String> {
    let t = topology_index(plan.topology);
    let outcome = ctx
        .span(EXECUTE[t], |_| execute(plan, plan.seed))
        .map_err(|e| format!("{}: {e}", plan.name))?;
    let violations = ctx
        .span(INVARIANTS[t], |_| {
            check_invariants(plan, &outcome, plan.seed)
        })
        .map_err(|e| format!("{}: {e}", plan.name))?;
    if let Some(v) = violations.first() {
        return Err(format!(
            "{} failed {}: {}",
            plan.name, v.invariant, v.details
        ));
    }
    let mut d = Digest::default();
    d.str(&plan.name);
    for m in ["served", "mean_response_secs"] {
        d.f64(metric(plan, &outcome, m).unwrap_or(f64::NAN));
    }
    Ok(d)
}

impl Workload for Catalog {
    fn setup(_: u64, threads: usize, ctx: Ctx<'_>) -> Result<Self, String> {
        Ok(Catalog {
            plans: parse(&PINNED, ctx)?,
            threads,
        })
    }

    fn op(&self, ctx: Ctx<'_>) -> Result<Digest, String> {
        let runs: Vec<&ScenarioPlan> = std::iter::repeat_n(&self.plans, PASSES).flatten().collect();
        let mut d = Digest::default();
        for r in par_map(&runs, self.threads, |plan| run(plan, ctx)) {
            d.digest(r?);
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_plan_parses_under_its_own_name() {
        let plans = parse(&PINNED, Ctx::off()).unwrap();
        assert_eq!(plans.len(), 12);
    }

    #[test]
    fn a_pinned_plan_that_no_longer_parses_fails_loudly() {
        let broken = [(
            "fleet-split-brain",
            "name = \"fleet-split-brain\"\nbogus = 1\n",
        )];
        let err = parse(&broken, Ctx::off()).err().unwrap();
        assert!(
            err.starts_with("pinned scenario fleet-split-brain no longer parses"),
            "{err}"
        );
        let renamed = [(
            "flash-crowd-single",
            PINNED[5].1.replace("flash-crowd-single", "x"),
        )];
        let renamed: Vec<(&str, &str)> = renamed.iter().map(|(n, t)| (*n, t.as_str())).collect();
        assert!(parse(&renamed, Ctx::off()).is_err());
    }
}
