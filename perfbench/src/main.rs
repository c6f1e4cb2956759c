//! End-to-end and per-layer benchmark of the model-sprint workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload per process as a closed loop with one client for
//! `--seconds`, checks every op's output, prints human-readable notes
//! and then, as the last line, one JSON object: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `README.md` beside this package for the workloads and metrics.

mod catalog;
mod fleet_replay;
mod harness;
mod layers;
mod model_build;
mod policy_search;
mod stats;
mod trace;

use harness::{Outcome, RunConfig, Workload};

/// Worker threads given to the workloads, capped by `nproc`.
const MAX_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if workload.is_none() => workload = Some(value.clone()),
            "--seed" if seed.is_none() => seed = Some(number()?),
            "--seconds" if seconds.is_none() => seconds = Some(number()?),
            "--trace" if trace.is_none() => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unexpected or repeated argument {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn run<W: Workload>(cfg: &RunConfig, trace: bool) -> Result<Outcome, String> {
    if trace {
        harness::run_traced::<W>(cfg)
    } else {
        harness::run::<W>(cfg)
    }
}

fn main_inner() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        threads: MAX_THREADS.min(nproc),
    };
    let outcome = match args.workload.as_str() {
        "model-build" => run::<model_build::ModelBuild>(&cfg, args.trace),
        "policy-search" => run::<policy_search::PolicySearch>(&cfg, args.trace),
        "fleet-replay" => run::<fleet_replay::FleetReplay>(&cfg, args.trace),
        "catalog" => run::<catalog::Catalog>(&cfg, args.trace),
        other => Err(format!(
            "unknown workload {other}; one of model-build, policy-search, fleet-replay, catalog"
        )),
    }?;
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is {}", m.name, m.value));
    }
    println!(
        "{} seed {} on {} of {nproc} CPUs, closed loop, one client",
        args.workload, args.seed, cfg.threads
    );
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.json());
    Ok(())
}

fn main() {
    if let Err(e) = main_inner() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_four_flags_in_any_order() {
        let a = args("--trace 1 --seconds 10 --seed 7 --workload catalog").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("catalog", 7, 10, true)
        );
    }

    #[test]
    fn rejects_missing_repeated_and_malformed_flags() {
        assert!(args("--workload catalog --seed 1 --seconds 1").is_err());
        assert!(args("--workload a --workload b --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload a --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload a --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload a --seed 1 --seconds 1 --trace").is_err());
    }
}
