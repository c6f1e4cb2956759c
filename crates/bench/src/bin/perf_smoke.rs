//! Fast-path performance smoke test.
//!
//! Measures, at small fixed-seed sizes, the legs of the prediction
//! fast path against their frozen pre-fast-path counterparts:
//!
//! 1. **Explorer**: one default `explore_timeout` annealing search
//!    through a simulator-backed model, fast path (direct engine +
//!    common-random-number trace replay + prediction memo) vs the
//!    reference path (event calendar, live sampling, no memo), both
//!    from cold private caches. Same seeds; the best timeout must
//!    agree bit-for-bit.
//! 2. **Batch throughput**: cold-batch predictions/minute at one thread
//!    on the fast backend vs the event-calendar reference backend
//!    (recorded as `pool_1t` and `spawn_1t`), plus the gated
//!    *warm* leg — steady-state model predictions through a CRN trace
//!    cache warmed by one prediction (distinct policy conditions
//!    replaying one cached trace), the rate that bounds candidate
//!    evaluation in policy search. Each measurement gets its own
//!    trace cache and memo, so a re-measurement simulates as much as
//!    the first. Gate: >= 1M preds/min.
//! 3. **Forest inference**: `RandomForest::predict`, the boxed-tree
//!    walk `HybridModel` calls, one row per call (nanoseconds per
//!    call; min-of-K). Gated by its baseline band only.
//! 4. **Telemetry overhead**: the same explorer search with the
//!    metrics registry enabled vs disabled, interleaved, scored as
//!    the ratio of the per-side minima clamped at zero (overhead
//!    cannot truly be negative). The results must agree bit-for-bit
//!    and the overhead may be at most 5%.
//! 5. **Tracing overhead**: the faulted recorder run with causal
//!    tracing enabled vs the identically-recorded untraced run, scored
//!    as the ratio of summed per-seed minima with the same 5% ceiling;
//!    records and counters must agree bit-for-bit.
//!
//! Methodology: everything is synthetic and seeded — a fixed workload
//! profile (µ = 50 qph, µₘ = 75 qph, 100 empirical service samples),
//! a fixed 0.75-utilization condition, and the default annealing and
//! simulation options — so reruns measure the same work. Wall-clock
//! numbers are machine-dependent; the committed `BENCH_qsim.json`
//! (schema 2) records this container's baseline, and reruns print a
//! per-leg regression table against it with per-leg tolerance bands —
//! 10% on the gated warm throughput leg, wider on the noisier
//! cold/ns-scale legs — and exit non-zero on any band violation.
//! Because the container's wall clock suffers multi-second slow
//! windows (CPU steal, frequency scaling) that a single in-process
//! min-of-K cannot escape, a leg that lands outside its band is
//! re-measured — up to three attempts total, keeping the best value
//! per sub-leg — before the gate declares a regression: noise dips
//! recover on a retry, real code regressions never do. `--baseline`
//! points the gate elsewhere; `--write` refreshes the baseline (no
//! retries, so the committed numbers stay single-run representative).
//!
//! ```text
//! cargo run --release -p bench --bin perf_smoke            # measure + check
//! cargo run --release -p bench --bin perf_smoke -- --write # refresh baseline
//! ```

use bench::eval::num_threads;
use bench::figs::perf;
use bench::Args;
use policy::AnnealingConfig;
use simcore::json::Json;
use simcore::SprintError;
use sprint_core::throughput::ThroughputPoint;

/// The baseline schema this binary writes and diffs against.
const SCHEMA_VERSION: f64 = 2.0;

/// One row of the regression table: a measured value, its committed
/// baseline, and the per-leg tolerance band.
struct LegDiff {
    name: &'static str,
    current: f64,
    baseline: f64,
    /// Fraction of the baseline the current value may degrade by
    /// before the gate fails (0.10 = fail beyond 10% regression).
    band: f64,
    /// `true` when larger is better (throughput, speedup); `false`
    /// when smaller is better (ns per call, seconds).
    higher_is_better: bool,
}

impl LegDiff {
    fn regressed(&self) -> bool {
        if self.higher_is_better {
            self.current < self.baseline * (1.0 - self.band)
        } else {
            self.current > self.baseline * (1.0 + self.band)
        }
    }

    fn delta_percent(&self) -> f64 {
        if self.baseline.abs() < 1e-12 {
            return 0.0;
        }
        (self.current / self.baseline - 1.0) * 100.0
    }
}

/// Prints the per-leg regression table; returns the failing leg names.
fn regression_table(diffs: &[LegDiff]) -> Vec<&'static str> {
    println!(
        "{:<38} {:>14} {:>14} {:>8} {:>8}  verdict",
        "leg", "current", "baseline", "delta", "band"
    );
    let mut failed = Vec::new();
    for d in diffs {
        let verdict = if d.regressed() {
            failed.push(d.name);
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{:<38} {:>14.1} {:>14.1} {:>+7.1}% {:>7.0}%  {verdict}",
            d.name,
            d.current,
            d.baseline,
            d.delta_percent(),
            d.band * 100.0
        );
    }
    failed
}

fn main() -> Result<(), SprintError> {
    let args = Args::parse();
    let baseline_path = args
        .get("baseline")
        .unwrap_or("BENCH_qsim.json")
        .to_string();
    let write = args.has_flag("write");
    let cores = args.get_usize("cores", num_threads().min(12))?;
    let p = perf::profile();
    let c = perf::cond();

    eprintln!("perf_smoke: explorer leg (default annealing search, fast vs reference) ...");
    let mut explorer = perf::bench_explorer(&p)?;
    println!(
        "explorer: fast {:.3}s  reference {:.3}s  speedup {:.2}X  (best timeout {:.1}s)",
        explorer.fast_secs, explorer.slow_secs, explorer.speedup, explorer.best_timeout_secs
    );
    explorer.check()?;

    eprintln!("perf_smoke: throughput leg (warm model path + cold fast vs reference) ...");
    let queries = args.get_usize("queries", 5_000)?;
    let predictions = args.get_usize("predictions", 24)?;
    let mut t = perf::bench_throughput(&p, &c, queries, predictions, cores)?;
    let fmt = |t: &ThroughputPoint| format!("{:.0} preds/min", t.predictions_per_minute);
    println!(
        "throughput: cold @{queries} q/pred fast(1t) {}  reference(1t) {}  warm @{} q/pred {}",
        fmt(&t.pool_1t),
        fmt(&t.spawn_1t),
        perf::WARM_QUERIES_PER_PREDICTION,
        fmt(&t.pool_warm)
    );
    t.check()?;

    eprintln!("perf_smoke: forest leg (boxed-tree inference) ...");
    let mut forest_leg = perf::bench_forest();
    println!("forest: {:.0} ns/pred", forest_leg.pointer_ns);

    eprintln!("perf_smoke: telemetry leg (explorer with metrics enabled vs disabled) ...");
    let telemetry = perf::bench_telemetry(&p)?;
    println!(
        "telemetry: disabled {:.3}s  enabled {:.3}s  overhead {:.1}% (ratio of per-side minima)",
        telemetry.disabled_secs,
        telemetry.enabled_secs,
        telemetry.overhead_frac * 100.0
    );
    telemetry.check()?;

    eprintln!("perf_smoke: tracing leg (faulted recorder run, traced vs untraced) ...");
    let tracing = perf::bench_tracing()?;
    println!(
        "tracing: untraced {:.3}s  traced {:.3}s  overhead {:.1}% (ratio of per-seed minima)",
        tracing.disabled_secs,
        tracing.enabled_secs,
        tracing.overhead_frac * 100.0
    );
    tracing.check()?;

    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            let baseline = Json::parse(&text)?;
            let version = baseline
                .field("schema_version")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            if (version - SCHEMA_VERSION).abs() > 1e-9 {
                println!(
                    "baseline at {baseline_path} has schema {version}, expected \
                     {SCHEMA_VERSION}; skipping regression gate (refresh with --write)"
                );
            } else {
                let base_field = |leg: &str, field: &str| -> Result<f64, SprintError> {
                    baseline.field(leg)?.field(field)?.as_f64()
                };
                let base_pool_multi = base_field("throughput", "pool_multi_preds_per_min")?;
                let base_pool_1t = base_field("throughput", "pool_1t_preds_per_min")?;
                let base_spawn_1t = base_field("throughput", "spawn_1t_preds_per_min")?;
                let base_speedup = base_field("explorer", "speedup")?;
                let base_pointer_ns = base_field("forest", "pointer_ns_per_pred")?;
                /// Measurement rounds before a band violation is
                /// believed: the first pass plus two retries.
                const MAX_ATTEMPTS: usize = 3;
                let mut attempt = 1;
                loop {
                    let diffs = [
                        // The gated warm leg: min-of-K steady-state
                        // work, tight 10% band — this is the
                        // throughput win the gate exists to protect.
                        LegDiff {
                            name: "throughput.pool_multi_preds_per_min",
                            current: t.pool_warm.predictions_per_minute,
                            baseline: base_pool_multi,
                            band: 0.10,
                            higher_is_better: true,
                        },
                        // Cold batch legs: one measurement each,
                        // dominated by first-touch costs; container
                        // load swings them far more than any plausible
                        // code regression.
                        LegDiff {
                            name: "throughput.pool_1t_preds_per_min",
                            current: t.pool_1t.predictions_per_minute,
                            baseline: base_pool_1t,
                            band: 0.30,
                            higher_is_better: true,
                        },
                        LegDiff {
                            name: "throughput.spawn_1t_preds_per_min",
                            current: t.spawn_1t.predictions_per_minute,
                            baseline: base_spawn_1t,
                            band: 0.40,
                            higher_is_better: true,
                        },
                        // Explorer speedup is a ratio of two
                        // same-process measurements, so load mostly
                        // cancels.
                        LegDiff {
                            name: "explorer.speedup",
                            current: explorer.speedup,
                            baseline: base_speedup,
                            band: 0.40,
                            higher_is_better: true,
                        },
                        // ns-scale forest leg: min-of-K but sensitive
                        // to frequency scaling.
                        LegDiff {
                            name: "forest.pointer_ns_per_pred",
                            current: forest_leg.pointer_ns,
                            baseline: base_pointer_ns,
                            band: 0.50,
                            higher_is_better: false,
                        },
                    ];
                    let failed = regression_table(&diffs);
                    if failed.is_empty() {
                        break;
                    }
                    if write || attempt >= MAX_ATTEMPTS {
                        eprintln!(
                            "FAIL: {} leg(s) regressed beyond their tolerance band vs {}: {}",
                            failed.len(),
                            baseline_path,
                            failed.join(", ")
                        );
                        if !write {
                            std::process::exit(1);
                        }
                        eprintln!("(--write given: refreshing baseline instead of failing)");
                        break;
                    }
                    attempt += 1;
                    eprintln!(
                        "perf_smoke: band violation on {}; re-measuring (attempt \
                         {attempt}/{MAX_ATTEMPTS}) to separate container noise from a \
                         real regression ...",
                        failed.join(", ")
                    );
                    if failed.iter().any(|n| n.starts_with("throughput.")) {
                        let fresh = perf::bench_throughput(&p, &c, queries, predictions, cores)?;
                        fresh.check()?;
                        let better = |a: &ThroughputPoint, b: &ThroughputPoint| {
                            a.predictions_per_minute > b.predictions_per_minute
                        };
                        if better(&fresh.pool_warm, &t.pool_warm) {
                            t.pool_warm = fresh.pool_warm;
                        }
                        if better(&fresh.pool_1t, &t.pool_1t) {
                            t.pool_1t = fresh.pool_1t;
                        }
                        if better(&fresh.spawn_1t, &t.spawn_1t) {
                            t.spawn_1t = fresh.spawn_1t;
                        }
                    }
                    if failed.iter().any(|n| n.starts_with("explorer.")) {
                        let fresh = perf::bench_explorer(&p)?;
                        fresh.check()?;
                        if fresh.speedup > explorer.speedup {
                            explorer = fresh;
                        }
                    }
                    if failed.iter().any(|n| n.starts_with("forest.")) {
                        let fresh = perf::bench_forest();
                        if fresh.pointer_ns < forest_leg.pointer_ns {
                            forest_leg.pointer_ns = fresh.pointer_ns;
                        }
                    }
                }
            }
        }
        Err(_) => {
            println!("no committed baseline at {baseline_path}; skipping regression gate");
        }
    }

    let json = Json::Obj(vec![
        ("bench".to_string(), Json::Str("qsim_fastpath".to_string())),
        ("schema_version".to_string(), Json::Num(SCHEMA_VERSION)),
        (
            "explorer".to_string(),
            Json::Obj(vec![
                ("fast_secs".to_string(), Json::Num(explorer.fast_secs)),
                ("reference_secs".to_string(), Json::Num(explorer.slow_secs)),
                ("speedup".to_string(), Json::Num(explorer.speedup)),
                (
                    "best_timeout_secs".to_string(),
                    Json::Num(explorer.best_timeout_secs),
                ),
                (
                    "iterations".to_string(),
                    Json::Num(AnnealingConfig::default().iterations as f64),
                ),
            ]),
        ),
        (
            "throughput".to_string(),
            Json::Obj(vec![
                (
                    "queries_per_prediction".to_string(),
                    Json::Num(queries as f64),
                ),
                (
                    "pool_1t_preds_per_min".to_string(),
                    Json::Num(t.pool_1t.predictions_per_minute),
                ),
                (
                    "spawn_1t_preds_per_min".to_string(),
                    Json::Num(t.spawn_1t.predictions_per_minute),
                ),
                (
                    "warm_queries_per_prediction".to_string(),
                    Json::Num(perf::WARM_QUERIES_PER_PREDICTION as f64),
                ),
                (
                    "pool_multi_preds_per_min".to_string(),
                    Json::Num(t.pool_warm.predictions_per_minute),
                ),
                ("multi_threads".to_string(), Json::Num(t.cores as f64)),
            ]),
        ),
        (
            "forest".to_string(),
            Json::Obj(vec![(
                "pointer_ns_per_pred".to_string(),
                Json::Num(forest_leg.pointer_ns),
            )]),
        ),
        (
            "telemetry".to_string(),
            Json::Obj(vec![
                (
                    "disabled_secs".to_string(),
                    Json::Num(telemetry.disabled_secs),
                ),
                (
                    "enabled_secs".to_string(),
                    Json::Num(telemetry.enabled_secs),
                ),
                (
                    "overhead_frac".to_string(),
                    Json::Num(telemetry.overhead_frac),
                ),
            ]),
        ),
        (
            "tracing".to_string(),
            Json::Obj(vec![
                (
                    "disabled_secs".to_string(),
                    Json::Num(tracing.disabled_secs),
                ),
                ("enabled_secs".to_string(), Json::Num(tracing.enabled_secs)),
                (
                    "overhead_frac".to_string(),
                    Json::Num(tracing.overhead_frac),
                ),
            ]),
        ),
    ]);

    if write {
        std::fs::write(&baseline_path, json.to_string_pretty() + "\n").map_err(|e| {
            SprintError::invalid(
                "perf_smoke::baseline",
                format!("write {baseline_path}: {e}"),
            )
        })?;
        println!("wrote {baseline_path}");
    }
    Ok(())
}
