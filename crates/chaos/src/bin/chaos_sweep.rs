//! Chaos sweep: randomized fault plans across the (workload, mechanism,
//! policy) grid, with machine-checked recovery invariants.
//!
//! ```text
//! chaos_sweep [--seeds N] [--queries N] [--util F] [--seed N]
//!             [--workload NAME] [--p99-factor F]
//!             [--replay workload/mechanism/policy/seedN]
//! ```
//!
//! Prints a JSON report to stdout — including per-cell model-health
//! breaker dwell times and the flight-recorder tail of any violating
//! run — and exits non-zero if any invariant was violated or
//! supervision failed to improve SLO attainment in every cell. The
//! fixed-seed scenarios — the single-node message-fault ones and the
//! fleet coordinator crash, split-brain and renewal storm — live in
//! the TOML catalog (`scenarios/*.toml`); `scenario_run --seeds N`
//! sweeps them across seeds.
//!
//! `--replay` skips the sweep and re-runs the single case a violation
//! named (under the same `--seed`/`--seeds`/sizing flags as the sweep
//! that reported it), re-checking its invariants and printing the
//! run's flight-recorder tail.

use chaos::{replay_case, sweep, SweepConfig};
use faults::FaultCounters;
use workloads::WorkloadKind;

/// One-line per-class message-fault breakdown for human reports.
fn message_class_line(counters: &FaultCounters) -> String {
    let classes: Vec<String> = counters
        .message_classes()
        .iter()
        .map(|(label, n)| format!("{label} {n}"))
        .collect();
    format!(
        "messages: {} ({} total)",
        classes.join(", "),
        counters.messages_total()
    )
}

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Reads flag `name` as a number, or `default` when the flag is absent.
/// A value that is not a number is reported and exits with status 1.
fn numeric<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_value(name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{name} expects a number, got {v:?}");
            std::process::exit(1)
        }),
        None => default,
    }
}

fn replay(cfg: &SweepConfig, case: &str) -> std::process::ExitCode {
    let outcome = match replay_case(cfg, case) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!(
        "replayed {} ({} fault events)",
        outcome.label, outcome.fault_events
    );
    println!("{}", message_class_line(&outcome.counters));
    println!("plan: {:?}", outcome.plan);
    println!("recorder tail ({} events):", outcome.events.len());
    for e in &outcome.events {
        println!(
            "  [{:>4}] {:>12}us  {}  {}",
            e.seq,
            e.at.0,
            e.kind.name(),
            e.kind.detail()
        );
    }
    if outcome.violations.is_empty() {
        println!("invariants clean on replay");
        std::process::ExitCode::SUCCESS
    } else {
        for v in &outcome.violations {
            eprintln!("violation [{}] {}: {}", v.case, v.invariant, v.details);
        }
        std::process::ExitCode::FAILURE
    }
}

fn main() -> std::process::ExitCode {
    let mut cfg = SweepConfig {
        seeds_per_cell: numeric("--seeds", 16),
        num_queries: numeric("--queries", 140),
        utilization: numeric("--util", 0.6),
        p99_degradation_factor: numeric("--p99-factor", 15.0),
        ..SweepConfig::default()
    };
    cfg.seed = numeric("--seed", cfg.seed);
    if let Some(w) = arg_value("--workload") {
        match WorkloadKind::parse(&w) {
            Some(kind) => cfg.workloads = vec![kind],
            None => {
                eprintln!("unknown workload {w:?}");
                return std::process::ExitCode::FAILURE;
            }
        }
    }

    if let Some(case) = arg_value("--replay") {
        return replay(&cfg, &case);
    }

    let report = match sweep(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos sweep failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    println!("{}", report.to_json().to_string_pretty());
    for c in &report.cells {
        eprintln!(
            "{}/{}: breaker dwell full={:.0}s stale={:.0}s no-sprint={:.0}s \
             ({} transitions, {} recorded interventions)",
            c.workload.name(),
            c.mechanism.name(),
            c.breaker_dwell_secs[0],
            c.breaker_dwell_secs[1],
            c.breaker_dwell_secs[2],
            c.breaker_transitions,
            c.recorded_interventions,
        );
    }
    let n = report.violations().count();
    if n > 0 {
        eprintln!("{n} invariant violation(s)");
        return std::process::ExitCode::FAILURE;
    }
    if !report.all_cells_improved() {
        eprintln!("supervision did not improve SLO attainment in every cell");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
