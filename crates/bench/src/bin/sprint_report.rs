//! One-stop observability report for the sprint stack.
//!
//! Runs two instrumented workloads and renders what the telemetry
//! layer saw:
//!
//! 1. **Flight recorder** — a faulted, supervised testbed run with the
//!    bounded event ring attached; the report prints the tail of the
//!    event timeline (sprint engages/ends, watchdog firings, slot
//!    crashes/restarts, admission changes, queue-depth samples).
//! 2. **Metrics registry** — a model-driven prediction workload
//!    (annealing search, memoized predictions, CRN trace replay,
//!    pooled batch throughput, forest inference and a faulted fleet
//!    run) with the registry enabled; the report prints every metric
//!    family.
//!
//! ```text
//! cargo run --release -p bench --bin sprint_report [-- --seed N] [--jsonl]
//! ```
//!
//! Exits non-zero if any registered metric family is missing from the
//! report or never fired — the completeness gate `check.sh` relies on
//! to catch dead instrumentation hooks.

use bench::figs::report;
use bench::Args;
use obs::FAMILY_NAMES;
use simcore::SprintError;

/// Trailing recorder events shown in the timeline panel.
const TIMELINE_TAIL: usize = 24;

fn main() -> Result<(), SprintError> {
    let args = Args::parse();
    let seed = args.get_usize("seed", 0xB5)? as u64;
    let jsonl = args.has_flag("jsonl");

    obs::set_enabled(true);
    obs::global().reset();

    let run = report::recorded_run(seed)?;
    let telemetry = run.telemetry().ok_or_else(|| {
        SprintError::runtime("sprint_report", "recorded run carried no telemetry")
    })?;

    println!("sprint_report: faulted supervised run, seed {seed}");
    println!(
        "flight recorder: {} events recorded, {} retained, {} dropped, \
         {} interventions",
        telemetry.recorded(),
        telemetry.events().len(),
        telemetry.dropped(),
        telemetry.interventions(),
    );
    println!(
        "run: {} arrived, {} served, SLO-relevant faults visible below\n",
        run.arrived(),
        run.served(),
    );
    println!("event timeline (last {TIMELINE_TAIL}):");
    println!("{}", obs::render_timeline(telemetry.last(TIMELINE_TAIL)));

    report::prediction_workload()?;
    let snap = obs::global().snapshot();
    println!("metrics registry (prediction workload):");
    println!("{}", snap.render_table());

    let candidates = snap
        .counters
        .iter()
        .find(|c| c.name == "anneal_candidates")
        .map_or(0, |c| c.value);
    let evals = snap
        .counters
        .iter()
        .find(|c| c.name == "sim_evals")
        .map_or(0, |c| c.value);
    if candidates > 0 {
        println!(
            "annealing evals per candidate: {:.2} (memo absorbs the rest)\n",
            evals as f64 / candidates as f64
        );
    }

    if jsonl {
        println!("--- events.jsonl ---");
        print!("{}", telemetry.to_jsonl());
        println!("--- metrics.json ---");
        println!("{}", snap.to_json().to_string_pretty());
    }

    // Completeness gate: every registered family must be present in the
    // snapshot AND have fired during the workload above. A family that
    // never fired means an instrumentation hook went dead.
    let (missing, dead) = report::completeness(&snap);
    if !missing.is_empty() || !dead.is_empty() {
        eprintln!("FAIL: missing families {missing:?}, silent families {dead:?}");
        std::process::exit(1);
    }
    println!(
        "all {} metric families present and live",
        FAMILY_NAMES.len()
    );
    Ok(())
}
