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
//! just the verdict lines (the `check.sh` gate). `--dir <dir>` reads
//! the plans from another directory instead, such as one holding a
//! case printed by `chaos_sweep --emit`; every mode below takes it.
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
//! `--record <name>` runs the one named single-node or fleet scenario
//! with the decision journal on, at its committed seed, and
//! writes a journal file to stdout: a one-line JSON header carrying the
//! plan as canonical TOML, then one journal entry per line (see
//! `scenario::journal_file`). To record at another seed, copy the plan
//! and edit its `seed`. `--replay <path>` parses such a file, re-runs
//! its plan journaled and diffs the fresh journal against the recorded
//! one; it exits non-zero on the first divergence and prints it with
//! the [`DIFF_CONTEXT`] entries before it. An unknown name, a cloning
//! scenario (which has no journal) or an unknown file header exit
//! non-zero too.
//!
//! ```text
//! cargo run --release -p bench --bin scenario_run                # catalog
//! cargo run --release -p bench --bin scenario_run -- --seeds 5   # seed matrix
//! cargo run --release -p bench --bin scenario_run -- --json      # JSON report
//! cargo run --release -p bench --bin scenario_run -- --trace fleet-split-brain
//! cargo run --release -p bench --bin scenario_run -- --record message-fault-mix > run.jsonl
//! cargo run --release -p bench --bin scenario_run -- --replay run.jsonl
//! cargo run --release -p bench --bin scenario_run -- --dir case   # an emitted chaos case
//! ```

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use bench::Args;
use obs::{CauseReason, TraceGraph};
use scenario::{
    journal, journal_file_text, load_catalog, parse_journal_file, run_catalog, trace_graph,
    CatalogReport, InvariantSpec, ScenarioPlan,
};
use simcore::table::TextTable;
use simcore::SprintError;
use testbed::Journal;

/// Slowest sprint episodes shown in the critical-path panel.
const CRITICAL_PATH_TOP: usize = 5;

/// Journal entries printed before a replay divergence.
const DIFF_CONTEXT: usize = 8;

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

/// The catalog plan named `name`; `mode` names the flag in errors.
fn find_plan(args: &Args, mode: &'static str, name: &str) -> Result<ScenarioPlan, SprintError> {
    let dir = args.get("dir").unwrap_or("scenarios");
    load_catalog(Path::new(dir))?
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| SprintError::invalid(mode, format!("no scenario named `{name}` in {dir}")))
}

/// Prints the causal report of the named scenario traced at its
/// committed seed. Returns whether the trace recovered the root cause
/// the scenario's `root-cause` invariant expects, if it has one.
fn trace(args: &Args, name: &str) -> Result<bool, SprintError> {
    let plan = &find_plan(args, "scenario_run --trace", name)?;
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

/// The plan's journal at its committed seed; `mode` names the flag in
/// errors.
fn committed_journal(mode: &'static str, plan: &ScenarioPlan) -> Result<Journal, SprintError> {
    journal(plan, plan.seed)?.ok_or_else(|| {
        SprintError::invalid(
            mode,
            format!(
                "{} is a {} scenario, which has no journal",
                plan.name,
                plan.topology.name()
            ),
        )
    })
}

/// Writes the named scenario's journal file to stdout.
fn record(args: &Args, name: &str) -> Result<(), SprintError> {
    let plan = find_plan(args, "scenario_run --record", name)?;
    eprintln!("scenario_run: recording {name} at seed {} ...", plan.seed);
    let recorded = committed_journal("scenario_run --record", &plan)?;
    let mut out = io::stdout().lock();
    out.write_all(journal_file_text(&plan, &recorded)?.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| SprintError::Io(format!("writing the journal file: {e}")))?;
    eprintln!("scenario_run: recorded {} journal entries", recorded.len());
    Ok(())
}

/// Re-runs the journal file's plan and diffs it against the recorded
/// journal. Returns whether the two are identical.
fn replay(path: &str) -> Result<bool, SprintError> {
    let text =
        fs::read_to_string(path).map_err(|e| SprintError::Io(format!("reading {path}: {e}")))?;
    let (plan, recorded) = parse_journal_file(&text)?;
    eprintln!(
        "scenario_run: replaying {} at seed {} against {path} ...",
        plan.name, plan.seed
    );
    let fresh = committed_journal("scenario_run --replay", &plan)?;
    match recorded.diff(&fresh) {
        None => {
            println!(
                "replay ok: {} at seed {}, {} entries bit-identical to {path}",
                plan.name,
                plan.seed,
                fresh.len()
            );
            Ok(true)
        }
        Some(d) => {
            eprintln!(
                "replay DIVERGED: {} at seed {} against {path}\n{}",
                plan.name,
                plan.seed,
                d.render(&recorded, DIFF_CONTEXT)
            );
            Ok(false)
        }
    }
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

/// Exit code of a one-plan mode: success only on `Ok(true)`; on
/// `Ok(false)` prints `failure()` as the verdict.
fn verdict(result: Result<bool, SprintError>, failure: impl FnOnce() -> String) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAIL: {}", failure());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("scenario_run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    for (flag, needs) in [
        ("trace", "a scenario name"),
        ("record", "a scenario name"),
        ("replay", "a journal file path"),
    ] {
        if args.has_flag(flag) {
            eprintln!("scenario_run: --{flag} needs {needs}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(name) = args.get("trace") {
        return verdict(trace(&args, name), || {
            format!("{name} did not recover its documented root cause")
        });
    }
    if let Some(name) = args.get("record") {
        return verdict(record(&args, name).map(|()| true), String::new);
    }
    if let Some(path) = args.get("replay") {
        return verdict(replay(path), || {
            format!("the replayed journal diverged from {path}")
        });
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
