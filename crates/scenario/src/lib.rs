//! TOML-driven scenario catalog with machine-checked invariants.
//!
//! The paper validates sprinting against a handful of hand-picked
//! workloads; this crate makes scenario coverage *declarative* so it
//! scales past what anyone hand-writes. A scenario is one TOML file
//! (`scenarios/*.toml`) naming a workload mix, an arrival trace
//! (constant, diurnal curve, flash crowd, or a correlated multi-node
//! storm), a fault plan, a policy, a topology — single supervised
//! node, lease-coordinated fleet, or request-cloning races — and a
//! list of invariant assertions the executed run must satisfy: SLO
//! bounds, query/clone conservation, budget conservation, replay
//! bit-identity, free no-op fault plans, and root-cause expectations
//! recovered from `obs::trace`. The chaos sweep (`bench::sweep`) runs
//! its generated cases as plans through the same pipeline.
//!
//! Pipeline: file → [`ScenarioPlan`] (strict parse, unknown keys
//! rejected) → [`execute`] (topology dispatch) → [`check_invariants`]
//! (pass/fail verdict). The `scenario_run` bench bin executes the
//! whole catalog with a JSON report and an exit-code verdict; it is a
//! standing gate in `scripts/check.sh`. See `DESIGN.md` §13 for the
//! schema reference.
//!
//! The plan is also the run description of record/replay: a journal
//! file ([`journal_file`]) carries the plan in its header and the
//! decision journal of the plan's run ([`journal`]) in its body.

pub mod exec;
pub mod journal_file;
pub mod plan;
pub mod toml;

mod invariant;

use std::fs;
use std::path::Path;

use simcore::json::Json;
use simcore::SprintError;

pub use exec::{execute, journal, metric, trace_graph, ScenarioOutcome};
pub use invariant::{check_invariants, Violation};
pub use journal_file::{journal_file_text, parse_journal_file};
pub use plan::{InvariantSpec, ScenarioPlan, Topology};

/// Verdict of one scenario at one seed.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Topology name.
    pub topology: &'static str,
    /// Seed the scenario ran at.
    pub seed: u64,
    /// Invariants evaluated.
    pub checked: usize,
    /// Failed assertions (empty = pass).
    pub violations: Vec<Violation>,
}

impl ScenarioReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("topology".to_string(), Json::Str(self.topology.to_string())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("invariants".to_string(), Json::Num(self.checked as f64)),
            ("passed".to_string(), Json::Bool(self.passed())),
            (
                "violations".to_string(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("invariant".to_string(), Json::Str(v.invariant.to_string())),
                                ("details".to_string(), Json::Str(v.details.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Verdict of a whole catalog run.
#[derive(Debug, Clone, Default)]
pub struct CatalogReport {
    /// Per-scenario (per-seed) verdicts, in execution order.
    pub scenarios: Vec<ScenarioReport>,
}

impl CatalogReport {
    /// Whether every scenario at every seed passed.
    pub fn all_passed(&self) -> bool {
        self.scenarios.iter().all(ScenarioReport::passed)
    }

    /// Scenario verdicts rendered as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "scenarios".to_string(),
                Json::Num(self.scenarios.len() as f64),
            ),
            (
                "failed".to_string(),
                Json::Num(self.scenarios.iter().filter(|s| !s.passed()).count() as f64),
            ),
            (
                "results".to_string(),
                Json::Arr(self.scenarios.iter().map(ScenarioReport::to_json).collect()),
            ),
        ])
    }
}

/// Loads and validates every `*.toml` file in a catalog directory,
/// sorted by file name for deterministic execution order.
///
/// # Errors
///
/// Returns [`SprintError::Io`] on unreadable paths and
/// [`SprintError::Parse`] / [`SprintError::InvalidConfig`] on invalid
/// files (the file name is prefixed to the message).
pub fn load_catalog(dir: &Path) -> Result<Vec<ScenarioPlan>, SprintError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| SprintError::Io(format!("reading catalog dir {}: {e}", dir.display())))?;
    let mut files: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    let mut plans = Vec::with_capacity(files.len());
    for f in files {
        let text = fs::read_to_string(&f)
            .map_err(|e| SprintError::Io(format!("reading {}: {e}", f.display())))?;
        let plan = ScenarioPlan::from_toml_str(&text).map_err(|e| match e {
            SprintError::Parse(msg) => SprintError::Parse(format!("{}: {msg}", f.display())),
            other => other,
        })?;
        plans.push(plan);
    }
    if plans.is_empty() {
        return Err(SprintError::invalid(
            "scenario::load_catalog",
            format!("no *.toml scenarios in {}", dir.display()),
        ));
    }
    Ok(plans)
}

/// Executes one plan at one seed and evaluates its invariants.
///
/// # Errors
///
/// Returns any typed simulator error — a scenario that cannot run is a
/// harness failure, not a failed verdict.
pub fn run_plan(plan: &ScenarioPlan, seed: u64) -> Result<ScenarioReport, SprintError> {
    let outcome = execute(plan, seed)?;
    let violations = check_invariants(plan, &outcome, seed)?;
    Ok(ScenarioReport {
        name: plan.name.clone(),
        topology: plan.topology.name(),
        seed,
        checked: plan.invariants.len(),
        violations,
    })
}

/// Runs every plan at its own seed, plus — for plans marked
/// `cross_seed` — at `seeds - 1` additional offset seeds
/// (`seed + 1`, `seed + 2`, …, wrapping past `u64::MAX`), mirroring
/// `paper_parity --seeds`. `seeds == 1` is the plain catalog run.
///
/// # Errors
///
/// Propagates the first harness failure.
pub fn run_catalog(plans: &[ScenarioPlan], seeds: u64) -> Result<CatalogReport, SprintError> {
    let mut report = CatalogReport::default();
    for plan in plans {
        report.scenarios.push(run_plan(plan, plan.seed)?);
        if seeds > 1 && plan.cross_seed {
            for off in 1..seeds {
                report
                    .scenarios
                    .push(run_plan(plan, plan.seed.wrapping_add(off))?);
            }
        }
    }
    Ok(report)
}

/// The committed catalog directory, resolved relative to this crate so
/// tests work from any working directory.
pub fn catalog_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::MetricOp;
    use obs::{CauseReason, SpanKind};
    use simcore::rng::SimRng;
    use testbed::BudgetSpec;

    fn sample_plan_toml() -> String {
        r#"
name = "sample"
description = "round-trip sample"
seed = 42
cross_seed = true
topology = "single-node"

[workload]
mix = "jacobi"
mechanism = "CpuThrottle"

[arrivals]
rate_per_hour = 3.0
kind = "poisson"

[policy]
timeout_secs = 0.0
budget_secs = 10.0
refill_secs = 1000000.0

[run]
queries = 12
warmup = 0
slots = 1
watchdog_secs = 20.0

[faults]
seed = 7
stuck_sprint_prob = 1.0
drop_prob = 1.0

[[invariant]]
kind = "conservation"

[[invariant]]
kind = "metric"
metric = "msgs_dropped"
op = ">"
value = 0.0
"#
        .to_string()
    }

    /// `supervised` and `recorder_events` parse and round-trip, and the
    /// encoder leaves them out at their defaults, so a plan that does not
    /// set them keeps its canonical text.
    #[test]
    fn run_keys_round_trip_and_are_omitted_at_defaults() {
        let base = ScenarioPlan::from_toml_str(&sample_plan_toml()).unwrap();
        assert!(base.run.supervised);
        assert_eq!(base.run.recorder_events, 0);
        let text = base.to_toml_string().unwrap();
        assert!(
            !text.contains("supervised") && !text.contains("recorder_events"),
            "{text}"
        );
        let doc = sample_plan_toml().replace(
            "watchdog_secs = 20.0\n",
            "watchdog_secs = 20.0\nsupervised = false\nrecorder_events = 64\n",
        );
        let plan = ScenarioPlan::from_toml_str(&doc).unwrap();
        assert!(!plan.run.supervised);
        assert_eq!(plan.run.recorder_events, 64);
        let text = plan.to_toml_string().unwrap();
        assert!(
            text.contains("supervised = false\n") && text.contains("recorder_events = 64\n"),
            "{text}"
        );
        assert_eq!(ScenarioPlan::from_toml_str(&text).unwrap(), plan);
    }

    fn single_node_run(plan: &ScenarioPlan) -> Box<testbed::RunResult> {
        match execute(plan, plan.seed).unwrap() {
            ScenarioOutcome::SingleNode(run) => run,
            _ => panic!("{} is not single-node", plan.name),
        }
    }

    /// Without a supervisor a faulted plan runs unrepaired: no recovery
    /// counter moves, and the run differs from its supervised twin,
    /// whose watchdog force-unsprints the stuck sprints.
    #[test]
    fn unsupervised_faulted_plans_run_without_recovery() {
        let doc = sample_plan_toml().replace("drop_prob = 1.0\n", "");
        let supervised = ScenarioPlan::from_toml_str(&doc).unwrap();
        let mut unsupervised = supervised.clone();
        unsupervised.run.supervised = false;
        let on = single_node_run(&supervised);
        let off = single_node_run(&unsupervised);
        assert!(off.fault_counters().total() > 0, "the plan must inject");
        assert_eq!(
            *off.recovery_counters(),
            testbed::RecoveryCounters::default()
        );
        assert!(on.recovery_counters().total() > 0, "the watchdog must act");
        assert_ne!(on.records(), off.records());
    }

    /// An all-off fault plan costs nothing, whether the plan injects
    /// faults or not, and with or without a supervisor and recorder.
    #[test]
    fn noop_faults_holds_on_faulted_and_clean_plans() {
        let faulted = ScenarioPlan::from_toml_str(&sample_plan_toml()).unwrap();
        let mut clean = faulted.clone();
        clean.faults = faults::FaultPlan::default();
        let mut bare = clean.clone();
        bare.run.supervised = false;
        bare.run.recorder_events = 32;
        for mut plan in [faulted, clean, bare] {
            plan.invariants = vec![InvariantSpec::NoopFaults];
            let report = run_plan(&plan, plan.seed).unwrap();
            assert!(report.passed(), "{:?}", report.violations);
        }
    }

    #[test]
    fn single_node_only_keys_are_rejected_on_fleet_and_cloning_plans() {
        let fleet = "name = \"f\"\ntopology = \"fleet\"\n[fleet]\nnodes = 3\n[run]\nqueries = 8\n";
        let cloning = "name = \"c\"\ntopology = \"cloning\"\n\
                       [cloning]\nclones = 2\nslots = 2\nmean_service_secs = 10.0\n\
                       [run]\nqueries = 8\n";
        let conservation = "[[invariant]]\nkind = \"conservation\"\n";
        for doc in [fleet, cloning] {
            assert!(ScenarioPlan::from_toml_str(&format!("{doc}{conservation}")).is_ok());
            for extra in [
                "[[invariant]]\nkind = \"noop-faults\"\n".to_string(),
                format!("recorder_events = 16\n{conservation}"),
                format!("supervised = false\n{conservation}"),
            ] {
                let text = format!("{doc}{extra}");
                assert!(
                    matches!(
                        ScenarioPlan::from_toml_str(&text),
                        Err(SprintError::InvalidConfig { .. })
                    ),
                    "accepted:\n{text}"
                );
            }
        }
    }

    #[test]
    fn plan_round_trips_through_toml() {
        let plan = ScenarioPlan::from_toml_str(&sample_plan_toml()).unwrap();
        let text = plan.to_toml_string().unwrap();
        let back = ScenarioPlan::from_toml_str(&text).unwrap();
        assert_eq!(plan, back, "plan -> TOML -> plan changed the plan:\n{text}");
    }

    #[test]
    fn committed_catalog_round_trips() {
        let plans = load_catalog(catalog_dir()).unwrap();
        assert!(plans.len() >= 10, "catalog has {} scenarios", plans.len());
        for plan in &plans {
            let text = plan.to_toml_string().unwrap();
            let back = ScenarioPlan::from_toml_str(&text).unwrap();
            assert_eq!(*plan, back, "{} does not round-trip", plan.name);
        }
    }

    #[test]
    fn committed_catalog_covers_required_scenarios() {
        let plans = load_catalog(catalog_dir()).unwrap();
        let names: Vec<&str> = plans.iter().map(|p| p.name.as_str()).collect();
        for required in [
            "lost-unsprint-command",
            "delayed-budget-telemetry",
            "watchdog-partition",
            "fleet-split-brain",
            "fleet-coordinator-crash",
            "fleet-renewal-storm",
            "message-fault-mix",
            "fleet-100-node-failover",
        ] {
            assert!(names.contains(&required), "missing scenario {required}");
        }
        assert!(
            plans.iter().any(|p| p.topology == Topology::Cloning),
            "catalog needs a request-cloning scenario"
        );
        assert!(
            plans
                .iter()
                .any(|p| p.topology == Topology::Fleet && p.arrivals.flash.is_some()),
            "catalog needs a fleet flash-crowd scenario"
        );
        let mut sorted = names.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate scenario names");
    }

    /// The committed split-brain plan, traced at its seed, tells the
    /// whole fleet story: a chain anchored in the scheduled partition
    /// window that walks a lease lapse back through timed-out renewals.
    #[test]
    fn split_brain_trace_walks_lease_lapse_back_to_the_partition_window() {
        let plans = load_catalog(catalog_dir()).unwrap();
        let plan = plans
            .iter()
            .find(|p| p.name == "fleet-split-brain")
            .expect("committed split-brain plan");
        let graph = trace_graph(plan, plan.seed)
            .unwrap()
            .expect("fleet plans carry a trace");
        assert_eq!(graph.dominant_root_cause(), Some(CauseReason::Partition));
        let full_story = graph.chains().iter().any(|c| {
            c.anchor_kind == Some(SpanKind::PartitionWindow)
                && c.steps.iter().any(|s| s.reason == CauseReason::LeaseLapse)
                && c.steps
                    .iter()
                    .any(|s| s.reason == CauseReason::RenewalTimeout)
        });
        assert!(
            full_story,
            "no chain tells lease-lapse <- renewal-timeout <- partition-window:\n{}",
            graph.root_cause_table()
        );
    }

    /// Cross-seed offsets wrap past `u64::MAX` instead of overflowing:
    /// the schema accepts string-encoded seeds up to the maximum.
    #[test]
    fn cross_seed_offsets_wrap_past_the_largest_seed() {
        let doc = "name = \"max-seed\"\nseed = \"18446744073709551615\"\n\
                   cross_seed = true\ntopology = \"cloning\"\n\
                   [cloning]\nclones = 2\nslots = 2\nmean_service_secs = 10.0\n\
                   [run]\nqueries = 4\nwarmup = 0\n\
                   [[invariant]]\nkind = \"conservation\"\n";
        let plan = ScenarioPlan::from_toml_str(doc).unwrap();
        assert_eq!(plan.seed, u64::MAX);
        let report = run_catalog(&[plan], 2).unwrap();
        let seeds: Vec<u64> = report.scenarios.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, [u64::MAX, 0]);
    }

    #[test]
    fn unknown_keys_are_rejected_everywhere() {
        let base = sample_plan_toml();
        for (section, bad) in [
            ("top level", "typo_key = 1\n"),
            ("[workload]", "[workload]\nmix = \"jacobi\"\nbogus = 2\n"),
            ("[policy]", "[policy]\nnot_a_knob = true\n"),
            (
                "[[invariant]]",
                "[[invariant]]\nkind = \"replay\"\nextra = 1\n",
            ),
        ] {
            let doc = if bad.starts_with('[') {
                // Replace the section wholesale by appending a duplicate
                // is invalid; instead append the bad section to a minimal doc.
                format!("name = \"x\"\ntopology = \"single-node\"\n[run]\nqueries = 2\n{bad}")
            } else {
                format!("{bad}{base}")
            };
            let err = ScenarioPlan::from_toml_str(&doc);
            assert!(err.is_err(), "{section}: unknown key accepted");
            let msg = format!("{}", err.unwrap_err());
            assert!(
                msg.contains("unknown key") || msg.contains("duplicate"),
                "{section}: wrong error: {msg}"
            );
        }
    }

    /// A well-formed cloning plan sized past the engine's bounds (too
    /// many requests or slots) parses, then `execute` returns a typed
    /// error instead of aborting on an allocation of hundreds of
    /// gigabytes.
    #[test]
    fn oversized_cloning_plans_fail_typed_in_execute() {
        for (queries, slots, what) in [
            (10_000_000_000_u64, 4_u64, "CloningConfig::num_queries"),
            (2_000, 100_000_000_000, "CloningConfig::slots"),
        ] {
            let doc = format!(
                "name = \"oversized\"\ntopology = \"cloning\"\n\
                 [cloning]\nclones = 2\nslots = {slots}\nmean_service_secs = 60.0\n\
                 [run]\nqueries = {queries}\nwarmup = 0\n\
                 [[invariant]]\nkind = \"conservation\"\n"
            );
            let plan = ScenarioPlan::from_toml_str(&doc).expect("plan is well-formed");
            let case = format!("{queries} requests on {slots} slots");
            match execute(&plan, plan.seed) {
                Err(SprintError::InvalidConfig { what: got, .. }) => {
                    assert_eq!(got, what, "{case}")
                }
                Err(e) => panic!("{case}: wrong error {e}"),
                Ok(_) => panic!("{case} ran"),
            }
        }
    }

    /// Committed single-node and fleet plans resized past the server's
    /// slot bound and the fleet's node bound parse, then `execute`
    /// returns a typed error instead of aborting on the up-front
    /// allocation.
    #[test]
    fn oversized_server_and_fleet_plans_fail_typed_in_execute() {
        let committed = |file: &str| {
            fs::read_to_string(catalog_dir().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
        };
        let single = committed("lost-unsprint-command.toml")
            .replace("\nslots = 1\n", "\nslots = 1000000000000\n");
        let fleet = committed("fleet-coordinator-crash.toml")
            .replace("\nnodes = 8\n", "\nnodes = 2000000000\n")
            .replace("\nqueries = 32 ", "\nqueries = 2000000000 ");
        assert!(single.contains("\nslots = 1000000000000\n"));
        assert!(
            fleet.contains("\nnodes = 2000000000\n") && fleet.contains("\nqueries = 2000000000 ")
        );
        for (doc, what) in [(single, "ServerConfig::slots"), (fleet, "FleetSpec::nodes")] {
            let plan = ScenarioPlan::from_toml_str(&doc).expect("plan is well-formed");
            match execute(&plan, plan.seed) {
                Err(SprintError::InvalidConfig { what: got, .. }) => {
                    assert_eq!(got, what, "{}", plan.name)
                }
                Err(e) => panic!("{}: wrong error {e}", plan.name),
                Ok(_) => panic!("{} ran", plan.name),
            }
        }
    }

    /// Seeded random-plan fuzzing: generate randomized plans (valid
    /// ranges and garbage alike); every one must either decode+run or
    /// return a typed `SprintError` — never panic.
    #[test]
    fn fuzzed_plans_run_or_error_typed() {
        let mut rng = SimRng::new(0x5CE7A210);
        for round in 0..40 {
            let topology = ["single-node", "fleet", "cloning"][rng.index(3)];
            let queries = 1 + rng.index(8);
            let warmup = rng.index(queries + 1);
            let rate = if rng.chance(0.1) {
                0.0
            } else {
                rng.uniform(1.0, 200.0)
            };
            let timeout = if rng.chance(0.2) {
                -1.0
            } else {
                rng.uniform(0.0, 100.0)
            };
            let clones = 1 + rng.index(4);
            let slots = 1 + rng.index(4);
            let inv = ["conservation", "replay", "fleet-clean", "bit-identity"][rng.index(4)];
            let doc = format!(
                "name = \"fuzz-{round}\"\nseed = {seed}\ntopology = \"{topology}\"\n\
                 [arrivals]\nrate_per_hour = {rate}\n\
                 [policy]\ntimeout_secs = {timeout}\nbudget_secs = 5.0\nrefill_secs = 100.0\n\
                 [run]\nqueries = {queries}\nwarmup = {warmup}\nslots = 1\nwatchdog_secs = 20.0\n\
                 [fleet]\nnodes = 3\n\
                 [cloning]\nclones = {clones}\nslots = {slots}\nmean_service_secs = 10.0\n\
                 [[invariant]]\nkind = \"{inv}\"\n",
                seed = rng.next_u64() % 1_000_000,
            );
            match ScenarioPlan::from_toml_str(&doc) {
                Err(_) => {} // typed rejection is a valid outcome
                Ok(plan) => match run_plan(&plan, plan.seed) {
                    Ok(_) | Err(_) => {} // ran, or failed with a typed error
                },
            }
        }
    }

    #[test]
    fn metric_op_semantics() {
        assert!(MetricOp::Le.holds(1.0, 1.0));
        assert!(!MetricOp::Lt.holds(1.0, 1.0));
        assert!(MetricOp::Ge.holds(2.0, 1.0));
        assert!(MetricOp::Eq.holds(0.0, 0.0));
        assert_eq!(MetricOp::parse("<="), Some(MetricOp::Le));
        assert_eq!(MetricOp::parse("!="), None);
    }

    #[test]
    fn budget_plan_decodes_all_variants() {
        for (frag, expected) in [
            ("budget_secs = 5.0", BudgetSpec::Seconds(5.0)),
            ("budget_fraction = 0.25", BudgetSpec::FractionOfRefill(0.25)),
            ("unlimited = true", BudgetSpec::Unlimited),
        ] {
            let doc = format!(
                "name = \"b\"\ntopology = \"single-node\"\n[policy]\n{frag}\n\
                 [run]\nqueries = 2\n[[invariant]]\nkind = \"conservation\"\n"
            );
            let plan = ScenarioPlan::from_toml_str(&doc).unwrap();
            assert_eq!(plan.policy.budget, expected, "{frag}");
        }
        let conflict = "name = \"b\"\ntopology = \"single-node\"\n\
             [policy]\nbudget_secs = 5.0\nunlimited = true\n\
             [run]\nqueries = 2\n[[invariant]]\nkind = \"conservation\"\n";
        assert!(ScenarioPlan::from_toml_str(conflict).is_err());
    }

    /// The full catalog at 5 seeds: every cross-seed scenario's verdict
    /// must be stable across the seed matrix (mirrors
    /// `paper_parity --seeds`).
    #[test]
    fn catalog_verdicts_are_seed_stable() {
        let plans = load_catalog(catalog_dir()).unwrap();
        assert!(
            plans.iter().any(|p| p.cross_seed),
            "catalog needs cross-seed scenarios for the matrix to exercise"
        );
        let report = run_catalog(&plans, 5).unwrap();
        for s in &report.scenarios {
            assert!(
                s.passed(),
                "{} failed at seed {}: {:?}",
                s.name,
                s.seed,
                s.violations
            );
        }
    }
}
