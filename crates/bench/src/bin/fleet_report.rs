//! Fixed-seed fleet smoke report: coordinator-crash failover summary.
//!
//! Runs one canonical fleet — N Jacobi servers behind the cluster load
//! balancer, two sprint coordinators, the shared budget from the AWS
//! T2.small policy — with the initial primary crashing at 90s and
//! repairing 400s later, then prints a column-aligned summary of the
//! lease/failover counters and the run's invariant verdicts. The exit
//! code *is* the verdict: zero only if all four fleet invariants
//! (bounded power, epoch fencing, fail-safe sprinting, convergence)
//! held and every query was served.
//!
//! ```text
//! cargo run --release -p bench --bin fleet_report            # 24 nodes, seed 42
//! cargo run --release -p bench --bin fleet_report -- --nodes 100 --seed 7
//! cargo run --release -p bench --bin fleet_report -- --json  # raw FleetResult
//! ```

use bench::Args;
use fleet::{plan_fleet, run_fleet, CoordinatorCrash, FleetSpec};
use simcore::table::TextTable;
use simcore::SprintError;

/// When the initial primary dies, seconds.
const CRASH_AT_SECS: f64 = 90.0;

/// How long until it rejoins as a standby, seconds.
const REPAIR_SECS: f64 = 400.0;

fn build_spec(seed: u64, nodes: u32) -> Result<FleetSpec, SprintError> {
    let mut spec = FleetSpec::small(seed, nodes)?;
    spec.faults.coordinator_crashes.push(CoordinatorCrash {
        coordinator: 0,
        at_secs: CRASH_AT_SECS,
        repair_secs: REPAIR_SECS,
    });
    Ok(spec)
}

fn run() -> Result<bool, SprintError> {
    let args = Args::parse();
    let seed = args.get_usize("seed", 42)? as u64;
    let nodes = args.get_usize("nodes", 24)?;
    let nodes = u32::try_from(nodes).map_err(|_| {
        SprintError::invalid(
            "fleet_report --nodes",
            format!("{nodes} nodes is out of range"),
        )
    })?;
    let spec = build_spec(seed, nodes)?;
    eprintln!(
        "fleet_report: {nodes} nodes, seed {seed}, budget {} sprinters, \
         coordinator 0 crashes at {CRASH_AT_SECS:.0}s (repair +{REPAIR_SECS:.0}s) ...",
        spec.budget_power
    );
    // Planning pass first: per-node model predictions on the pooled
    // fast path, timed into the fleet_predict_us histogram. Metrics
    // stay enabled through the run itself so each node's server fills
    // its per-node scoped registry (sprints, renewals, expiries).
    obs::set_enabled(true);
    obs::reset_scoped();
    let plan = plan_fleet(&spec)?;
    let predict_snap = obs::global()
        .snapshot()
        .histograms
        .into_iter()
        .find(|h| h.name == "fleet_predict_us");
    let result = run_fleet(&spec)?;
    let per_node = obs::scoped_snapshots();
    obs::set_enabled(false);

    if args.has_flag("json") {
        println!("{}", result.to_json().to_string_pretty());
    }

    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["nodes".to_string(), result.nodes.to_string()]);
    t.row(vec![
        "queries served".to_string(),
        format!("{} / {}", result.served, spec.queries_total),
    ]);
    t.row(vec![
        "horizon".to_string(),
        format!("{:.1}s", result.horizon_secs),
    ]);
    t.row(vec![
        "mean response".to_string(),
        format!("{:.2}s", result.mean_response_secs),
    ]);
    t.row(vec![
        "planned response".to_string(),
        format!(
            "{:.2}s predicted per node (util {:.2})",
            plan.nodes[0].predicted_response_secs, plan.condition.utilization
        ),
    ]);
    t.row(vec![
        "prediction path".to_string(),
        match &predict_snap {
            Some(h) if h.count > 0 => format!(
                "{} node predictions, mean {:.0}us, p50 {}us, p99 {}us, slowest {:.0}us",
                h.count,
                h.mean(),
                h.p50(),
                h.p99(),
                plan.max_predict_us()
            ),
            _ => "no fleet_predict_us samples recorded".to_string(),
        },
    ]);
    t.row(vec![
        "sprint fraction".to_string(),
        format!("{:.3}", result.sprint_fraction),
    ]);
    t.row(vec![
        "budget power".to_string(),
        format!("{} concurrent sprinters", result.budget_power),
    ]);
    t.row(vec![
        "peak held power".to_string(),
        result.peak_held_power.to_string(),
    ]);
    t.row(vec![
        "budget utilization".to_string(),
        format!("{:.3}", result.budget_utilization),
    ]);
    let s = &result.stats;
    t.row(vec![
        "leases".to_string(),
        format!(
            "{} grants, {} renewals, {} denials, {} releases",
            s.grants, s.renewals, s.denials, s.releases
        ),
    ]);
    t.row(vec![
        "lease expiries".to_string(),
        format!(
            "{} ({} forced unsprints)",
            s.expiries, result.forced_unsprints
        ),
    ]);
    t.row(vec!["rpc retries".to_string(), s.retries.to_string()]);
    t.row(vec![
        "failover".to_string(),
        format!(
            "{} elections, {} step-downs, max epoch {}",
            s.elections, s.step_downs, s.max_epoch
        ),
    ]);
    let classes: Vec<String> = result
        .counters
        .message_classes()
        .iter()
        .map(|(label, n)| format!("{label} {n}"))
        .collect();
    t.row(vec!["message faults".to_string(), classes.join(", ")]);
    let clean = result.invariants_clean();
    t.row(vec![
        "invariants".to_string(),
        if clean {
            "clean (bounded power, epoch fencing, fail-safe, conservation)".to_string()
        } else {
            format!("{} VIOLATION(S)", result.violations.len())
        },
    ]);
    print!("{}", t.render());

    // Per-node breakdown from the scoped registries (replaces the old
    // single aggregate degradation row): how each node's sprinting and
    // lease traffic actually went, plus its final degradation state.
    let d = &result.degradation;
    println!(
        "\nper-node breakdown (fleet-wide: {} sprintable, {} stale, {} no-sprint):",
        d.sprintable, d.stale, d.no_sprint
    );
    let counter = |snap: &obs::MetricsSnapshot, name: &str| -> u64 {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let mut pn = TextTable::new(vec![
        "node",
        "sprints engaged",
        "lease renewals",
        "lease expiries",
    ]);
    for node in 0..result.nodes {
        let snap = per_node.iter().find(|(n, _)| *n == node).map(|(_, s)| s);
        let val = |name| snap.map_or(0, |s| counter(s, name)).to_string();
        pn.row(vec![
            node.to_string(),
            val("sprints_engaged"),
            val("lease_renewals"),
            val("lease_expiries"),
        ]);
    }
    print!("{}", pn.render());
    for v in &result.violations {
        eprintln!("violation [{}]: {}", v.invariant, v.details);
    }

    let converged = result.served == u64::from(spec.queries_total);
    if !converged {
        eprintln!(
            "FAIL: fleet finished with {} of {} queries served",
            result.served, spec.queries_total
        );
    }
    if s.elections == 0 {
        eprintln!("FAIL: the standby never took over from the crashed primary");
    }
    Ok(clean && converged && s.elections > 0)
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fleet_report failed: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
