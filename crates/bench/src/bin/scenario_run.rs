//! Scenario catalog runner: execute every TOML scenario and verdict.
//!
//! Loads every `scenarios/*.toml` file (strict parse — unknown keys
//! are errors), executes each at its committed seed, evaluates its
//! machine-checked invariants (conservation, replay bit-identity,
//! SLO/metric bounds, budget conservation, root-cause recovery), and
//! prints one verdict line per scenario. `--seeds N` additionally
//! sweeps every `cross_seed` scenario over `N - 1` offset seeds,
//! mirroring `paper_parity --seeds`, so verdicts are demonstrably not
//! seed-lottery wins. `--json` emits the full report as a JSON
//! document on stdout instead of tables.
//!
//! The exit code *is* the catalog verdict: zero only if every
//! scenario at every seed passes every invariant. `--smoke` prints
//! just the verdict lines (the `check.sh` gate).
//!
//! `--trace <name>` runs the one named single-node or fleet scenario
//! traced at its committed seed instead, reconstructs its causal span
//! graph, and prints:
//!
//! 1. the **root-cause table** — one row per cause chain, walked
//!    backwards from its final effect (`force-unsprint <- lease-lapse
//!    <- 3x renewal-timeout <- partition <- partition-window`);
//! 2. the **virtual-latency table** — exact p50/p99/max per span kind
//!    (sprint episodes, lease lifecycles, control RPCs, coordinator
//!    terms, partition windows);
//! 3. the **critical path** — the slowest sprint episodes and the
//!    chain that explains each.
//!
//! Its exit code is zero unless the scenario's `root-cause` invariant
//! names a cause the trace does not recover; an unknown name or a
//! cloning scenario (which carries no trace) exits non-zero.
//!
//! ```text
//! cargo run --release -p bench --bin scenario_run                # catalog
//! cargo run --release -p bench --bin scenario_run -- --seeds 5   # seed matrix
//! cargo run --release -p bench --bin scenario_run -- --json      # JSON report
//! cargo run --release -p bench --bin scenario_run -- --trace fleet-split-brain
//! ```

use std::path::Path;
use std::process::ExitCode;

use bench::Args;
use obs::{CauseReason, TraceGraph};
use scenario::{load_catalog, run_catalog, trace_graph, CatalogReport, InvariantSpec};
use simcore::table::TextTable;
use simcore::SprintError;

/// Slowest sprint episodes shown in the critical-path panel.
const CRITICAL_PATH_TOP: usize = 5;

fn run(args: &Args) -> Result<CatalogReport, SprintError> {
    let dir = args.get("dir").unwrap_or("scenarios");
    let seeds = args.get_usize("seeds", 1)? as u64;
    let plans = load_catalog(Path::new(dir))?;
    eprintln!(
        "scenario_run: {} scenarios from {dir}{} ...",
        plans.len(),
        if seeds > 1 {
            format!(", cross-seed x{seeds}")
        } else {
            String::new()
        }
    );
    run_catalog(&plans, seeds)
}

/// Prints the causal report of the named scenario traced at its
/// committed seed. Returns whether the trace recovered the root cause
/// the scenario's `root-cause` invariant expects, if it has one.
fn trace(args: &Args, name: &str) -> Result<bool, SprintError> {
    let dir = args.get("dir").unwrap_or("scenarios");
    let plans = load_catalog(Path::new(dir))?;
    let plan = plans.iter().find(|p| p.name == name).ok_or_else(|| {
        SprintError::invalid(
            "scenario_run --trace",
            format!("no scenario named `{name}` in {dir}"),
        )
    })?;
    eprintln!("scenario_run: tracing {name} at seed {} ...", plan.seed);
    let graph = trace_graph(plan, plan.seed)?.ok_or_else(|| {
        SprintError::invalid(
            "scenario_run --trace",
            format!(
                "{name} is a {} scenario, which carries no trace",
                plan.topology.name()
            ),
        )
    })?;
    let dominant = graph
        .dominant_root_cause()
        .map_or("none", CauseReason::name);
    let expected = plan.invariants.iter().find_map(|inv| match inv {
        InvariantSpec::RootCause { expect } => Some(expect.as_str()),
        _ => None,
    });
    let ok = expected.is_none_or(|e| e == dominant);
    println!("=== {name} ===");
    println!(
        "trace: {} spans, {} cause links, {} chains, horizon {:.1}s{}",
        graph.len(),
        graph.links().len(),
        graph.chains().len(),
        graph.end_us as f64 / 1e6,
        if graph.dropped > 0 {
            format!(" ({} events evicted)", graph.dropped)
        } else {
            String::new()
        }
    );
    match expected {
        Some(e) => println!(
            "root cause: expected {e}, trace says {dominant} -> {}",
            if ok { "ok" } else { "FAIL" }
        ),
        None => println!("root cause: trace says {dominant}"),
    }
    println!("\nroot-cause table:");
    print!("{}", graph.root_cause_table());
    println!("\nvirtual latency by span kind:");
    print!("{}", graph.latency_table());
    println!("\ncritical path (slowest {CRITICAL_PATH_TOP} sprint episodes):");
    print!("{}", critical_path(&graph));
    println!();
    Ok(ok)
}

/// The slowest sprint episodes with the chain that explains each.
fn critical_path(graph: &TraceGraph) -> String {
    let mut t = TextTable::new(vec!["span", "node", "duration", "outcome", "why"]);
    for e in graph.critical_path(CRITICAL_PATH_TOP) {
        t.row(vec![
            format!("#{}", e.span.id),
            e.span.node.to_string(),
            format!("{:.3}s", e.span.duration_us() as f64 / 1e6),
            e.span.outcome.name().to_string(),
            e.chain
                .as_ref()
                .map_or("-".to_string(), |c| c.render(e.span.outcome)),
        ]);
    }
    t.render()
}

fn main() -> ExitCode {
    let args = Args::parse();
    if args.has_flag("trace") {
        eprintln!("scenario_run: --trace needs a scenario name");
        return ExitCode::FAILURE;
    }
    if let Some(name) = args.get("trace") {
        return match trace(&args, name) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("FAIL: {name} did not recover its documented root cause");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("scenario_run failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scenario_run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.has_flag("json") {
        println!("{}", report.to_json().to_string_pretty());
    } else {
        for s in &report.scenarios {
            println!(
                "{:<28} {:<12} seed {:<20} {:>2} invariants  {}",
                s.name,
                s.topology,
                s.seed,
                s.checked,
                if s.passed() { "ok" } else { "FAIL" }
            );
            for v in &s.violations {
                eprintln!("  violation [{}]: {}", v.invariant, v.details);
            }
        }
    }
    if report.all_passed() {
        if !args.has_flag("smoke") && !args.has_flag("json") {
            println!(
                "all {} scenario runs passed every invariant",
                report.scenarios.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: a scenario violated a machine-checked invariant");
        ExitCode::FAILURE
    }
}
