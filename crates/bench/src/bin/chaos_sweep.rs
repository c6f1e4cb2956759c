//! Chaos sweep: randomized fault plans across the (workload, mechanism,
//! policy) grid, each run a scenario plan checked by the catalog's
//! invariants (see `bench::sweep`).
//!
//! ```text
//! chaos_sweep [--seeds N] [--queries N] [--util F] [--seed N]
//!             [--workload NAME] [--p99-factor F]
//!             [--emit workload/mechanism/policy/seedN]
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
//! `--emit` skips the sweep and prints the canonical TOML plan of the
//! one case a violation named (under the same `--seed`/`--seeds`/sizing
//! flags as the sweep that reported it). Saved alone in a directory,
//! `scenario_run --dir <dir>` runs and checks it, and `--trace` and
//! `--record` take its name.

use std::process::ExitCode;

use bench::sweep::{emit, sweep, SweepConfig};
use bench::Args;
use simcore::SprintError;
use workloads::WorkloadKind;

fn config(args: &Args) -> Result<SweepConfig, SprintError> {
    let d = SweepConfig::default();
    let mut cfg = SweepConfig {
        seed: args.get_usize("seed", d.seed as usize)? as u64,
        seeds_per_cell: args.get_usize("seeds", d.seeds_per_cell as usize)? as u64,
        num_queries: args.get_usize("queries", d.num_queries)?,
        utilization: args.get_f64("util", d.utilization)?,
        p99_degradation_factor: args.get_f64("p99-factor", d.p99_degradation_factor)?,
        ..d
    };
    if let Some(w) = args.get("workload") {
        let kind = WorkloadKind::parse(w).ok_or_else(|| {
            SprintError::invalid("chaos_sweep --workload", format!("unknown workload {w:?}"))
        })?;
        cfg.workloads = vec![kind];
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args = Args::parse();
    if args.has_flag("emit") {
        eprintln!("chaos_sweep: --emit needs a case label");
        return ExitCode::FAILURE;
    }
    let cfg = match config(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("chaos_sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(label) = args.get("emit") {
        return match emit(&cfg, label).and_then(|plan| plan.to_toml_string()) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("chaos_sweep --emit failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let report = match sweep(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos sweep failed: {e}");
            return ExitCode::FAILURE;
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
        return ExitCode::FAILURE;
    }
    if !report.all_cells_improved() {
        eprintln!("supervision did not improve SLO attainment in every cell");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
