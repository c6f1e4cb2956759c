//! Fast-path performance smoke measurements: the explorer, batch
//! throughput, forest inference, telemetry and tracing legs that back
//! the `perf_smoke` gate, each returning typed results instead of
//! aborting the process on violation.

use forest::{ForestConfig, RandomForest};
use mechanisms::{Dvfs, Mechanism};
use mlcore::Dataset;
use policy::{explore_timeout, AnnealingConfig};
use profiler::{Condition, WorkloadProfile};
use simcore::dist::DistKind;
use simcore::time::{Rate, SimDuration};
use simcore::SprintError;
use sprint_core::throughput::{measure_model_throughput, measure_throughput_with, ThroughputPoint};
use sprint_core::{NoMlModel, ResponseTimeModel, SimOptions};
use std::time::Instant;
use testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig, SprintPolicy, SupervisorConfig};
use workloads::{QueryMix, WorkloadKind};

/// The explorer fast path must beat the pre-fast-path reference by at
/// least this factor.
pub const MIN_EXPLORER_SPEEDUP: f64 = 3.0;

/// Enabled-mode telemetry may slow the explorer leg by at most this
/// fraction over a disabled-mode run of the identical search.
pub const MAX_TELEMETRY_OVERHEAD: f64 = 0.05;

/// Causal tracing may slow the faulted recorder run by at most this
/// fraction over an identically-recorded untraced run.
pub const MAX_TRACING_OVERHEAD: f64 = 0.05;

/// The synthetic, seeded workload profile every leg measures against
/// (µ = 50 qph, µₘ = 75 qph, 100 empirical service samples).
pub fn profile() -> WorkloadProfile {
    WorkloadProfile {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        mechanism: "DVFS".into(),
        mu: Rate::per_hour(50.0),
        mu_m: Rate::per_hour(75.0),
        service_samples_secs: (0..100).map(|i| 60.0 + (i % 21) as f64).collect(),
        profiling_hours: 1.0,
    }
}

/// The fixed 0.75-utilization measurement condition.
pub fn cond() -> Condition {
    Condition {
        utilization: 0.75,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 80.0,
        budget_frac: 0.4,
        refill_secs: 200.0,
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The explorer leg: fast path vs frozen reference, same seeds.
#[derive(Debug, Clone, Copy)]
pub struct ExplorerLeg {
    /// Min-of-K fast-path search wall-clock (seconds).
    pub fast_secs: f64,
    /// Min-of-K reference search wall-clock (seconds).
    pub slow_secs: f64,
    /// Reference over fast-path wall-clock.
    pub speedup: f64,
    /// The agreed best timeout (seconds).
    pub best_timeout_secs: f64,
}

impl ExplorerLeg {
    /// Checks the headline >= [`MIN_EXPLORER_SPEEDUP`] criterion.
    ///
    /// # Errors
    ///
    /// [`SprintError::Runtime`] when the fast path is too slow.
    pub fn check(&self) -> Result<(), SprintError> {
        if self.speedup < MIN_EXPLORER_SPEEDUP {
            return Err(SprintError::runtime(
                "perf::explorer",
                format!(
                    "fast path must be >= {MIN_EXPLORER_SPEEDUP}X over the pre-fast-path \
                     reference, measured {:.2}X",
                    self.speedup
                ),
            ));
        }
        Ok(())
    }
}

/// Runs the explorer leg: one default annealing search through a
/// simulator-backed model, fast path vs reference backend. The best
/// timeout and the full (t, RT) trace must agree bit-for-bit.
///
/// # Errors
///
/// Propagates search failures; [`SprintError::Runtime`] when the fast
/// and reference searches diverge.
pub fn bench_explorer(p: &WorkloadProfile) -> Result<ExplorerLeg, SprintError> {
    let accfg = AnnealingConfig::default();
    let base = cond();
    // One throwaway evaluation first so one-time process costs
    // (first-touch allocations, the metrics registry's creation) don't
    // land in either timed search.
    let _ = NoMlModel::new(p.clone(), SimOptions::default()).predict_response_secs(&base);
    // Min-of-K with a FRESH model per repetition: each model owns its
    // trace cache and prediction memo, so every timed search pays the
    // full cost of a first search from cold caches (warm caches would
    // make fast reps nearly free, which is not the scenario the 3X
    // criterion describes — the warm steady state is measured by the
    // throughput leg instead). Min-of-K only filters scheduler noise,
    // which swings this container by ~20%.
    const REPS: usize = 3;
    let mut fast_secs = f64::MAX;
    let mut slow_secs = f64::MAX;
    let mut best_timeout_secs = 0.0;
    for _ in 0..REPS {
        let slow_model = NoMlModel::new(
            p.clone(),
            SimOptions {
                fast_path: false,
                ..SimOptions::default()
            },
        );
        let fast_model = NoMlModel::new(p.clone(), SimOptions::default());
        let (slow, s_secs) = time(|| explore_timeout(&slow_model, &base, &accfg));
        let (fast, f_secs) = time(|| explore_timeout(&fast_model, &base, &accfg));
        let (fast, slow) = (fast?, slow?);
        if fast.best_timeout_secs.to_bits() != slow.best_timeout_secs.to_bits() {
            return Err(SprintError::runtime(
                "perf::explorer",
                format!(
                    "fast and reference searches must find the identical best timeout \
                     (fast {}, reference {})",
                    fast.best_timeout_secs, slow.best_timeout_secs
                ),
            ));
        }
        if fast.trace != slow.trace {
            return Err(SprintError::runtime(
                "perf::explorer",
                "fast and reference searches must evaluate identical (t, RT) pairs",
            ));
        }
        fast_secs = fast_secs.min(f_secs);
        slow_secs = slow_secs.min(s_secs);
        best_timeout_secs = fast.best_timeout_secs;
    }
    Ok(ExplorerLeg {
        fast_secs,
        slow_secs,
        speedup: slow_secs / fast_secs.max(1e-12),
        best_timeout_secs,
    })
}

/// The telemetry leg: the explorer search with metrics enabled vs
/// disabled.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryLeg {
    /// Min-of-K disabled-mode wall-clock (seconds).
    pub disabled_secs: f64,
    /// Min-of-K enabled-mode wall-clock (seconds).
    pub enabled_secs: f64,
    /// Ratio of the per-side minima across the interleaved
    /// repetitions, minus one, clamped at zero. Container noise only
    /// ever adds wall-clock, so each side's minimum is the stable
    /// estimator of its true cost; the clamp encodes that telemetry
    /// cost cannot be negative, so a lucky enabled-side minimum
    /// reports as 0 instead of a nonsensical negative overhead.
    pub overhead_frac: f64,
}

impl TelemetryLeg {
    /// Checks the <= [`MAX_TELEMETRY_OVERHEAD`] criterion.
    ///
    /// # Errors
    ///
    /// [`SprintError::Runtime`] when telemetry costs too much.
    pub fn check(&self) -> Result<(), SprintError> {
        if self.overhead_frac > MAX_TELEMETRY_OVERHEAD {
            return Err(SprintError::runtime(
                "perf::telemetry",
                format!(
                    "enabled-mode telemetry overhead must stay <= {:.0}%, measured {:+.1}%",
                    MAX_TELEMETRY_OVERHEAD * 100.0,
                    self.overhead_frac * 100.0
                ),
            ));
        }
        Ok(())
    }
}

/// Runs the telemetry leg. Telemetry is a pure observer: results with
/// metrics enabled and disabled must agree bit-for-bit.
///
/// # Errors
///
/// Propagates search failures; [`SprintError::Runtime`] when telemetry
/// perturbs the search result.
pub fn bench_telemetry(p: &WorkloadProfile) -> Result<TelemetryLeg, SprintError> {
    let accfg = AnnealingConfig::default();
    let base = cond();
    // Interleaved off/on repetitions over fresh cold-cache models
    // (mirroring the explorer leg), scored as the ratio of the
    // per-side minima. Noise only ever adds wall-clock, so the minimum
    // across repetitions converges on each side's true cost even when
    // most repetitions land in a slow-machine epoch (a median of
    // per-repetition ratios does not — three noisy repetitions out of
    // five corrupt it). The final clamp at zero encodes that telemetry
    // cost cannot be negative, so a lucky enabled-side minimum cannot
    // report a nonsensical negative overhead.
    const REPS: usize = 7;
    let mut disabled_secs = f64::MAX;
    let mut enabled_secs = f64::MAX;
    for _ in 0..REPS {
        let off_model = NoMlModel::new(p.clone(), SimOptions::default());
        obs::set_enabled(false);
        let (off, off_t) = time(|| explore_timeout(&off_model, &base, &accfg));
        let on_model = NoMlModel::new(p.clone(), SimOptions::default());
        obs::set_enabled(true);
        let (on, on_t) = time(|| explore_timeout(&on_model, &base, &accfg));
        obs::set_enabled(false);
        let (off, on) = (off?, on?);
        if off.best_timeout_secs.to_bits() != on.best_timeout_secs.to_bits() {
            return Err(SprintError::runtime(
                "perf::telemetry",
                "telemetry must not perturb the search result",
            ));
        }
        disabled_secs = disabled_secs.min(off_t);
        enabled_secs = enabled_secs.min(on_t);
    }
    let ratio = enabled_secs / disabled_secs.max(1e-12);
    Ok(TelemetryLeg {
        disabled_secs,
        enabled_secs,
        overhead_frac: (ratio - 1.0).max(0.0),
    })
}

/// The tracing leg: the faulted supervised recorder run with causal
/// tracing enabled vs disabled.
#[derive(Debug, Clone, Copy)]
pub struct TracingLeg {
    /// Summed per-seed minimum untraced wall-clock (seconds).
    pub disabled_secs: f64,
    /// Summed per-seed minimum traced wall-clock (seconds).
    pub enabled_secs: f64,
    /// Ratio of summed per-seed minima, traced over untraced, minus
    /// one, clamped at zero. Container noise only ever adds
    /// wall-clock, so each seed's minimum across repetitions is the
    /// stable estimator of its true cost; a noise burst would have to
    /// hit the same seed in every repetition to survive into the sum.
    pub overhead_frac: f64,
}

impl TracingLeg {
    /// Checks the <= [`MAX_TRACING_OVERHEAD`] criterion.
    ///
    /// # Errors
    ///
    /// [`SprintError::Runtime`] when tracing costs too much.
    pub fn check(&self) -> Result<(), SprintError> {
        if self.overhead_frac > MAX_TRACING_OVERHEAD {
            return Err(SprintError::runtime(
                "perf::tracing",
                format!(
                    "causal tracing overhead must stay <= {:.0}%, measured {:+.1}%",
                    MAX_TRACING_OVERHEAD * 100.0,
                    self.overhead_frac * 100.0
                ),
            ));
        }
        Ok(())
    }
}

/// The faulted, supervised flight-recorder run the tracing leg times:
/// a two-slot Jacobi server at 60% load under a seeded random fault
/// plan, with a default-capacity recorder attached, plus causal
/// tracing (as node 0) when `traced`.
fn recorded_run(seed: u64, traced: bool) -> Result<testbed::RunResult, SprintError> {
    let mech = Dvfs::new();
    let sustained = mech.sustained_rate(WorkloadKind::Jacobi);
    let mean_service_secs = sustained.mean_interval().as_secs_f64();
    let utilization = 0.6;
    let num_queries = 140;
    let scfg = ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(sustained.scale(utilization)),
        policy: SprintPolicy::new(
            SimDuration::from_secs_f64(mean_service_secs * 0.5),
            BudgetSpec::FractionOfRefill(0.3),
            SimDuration::from_secs_f64(mean_service_secs * 10.0),
        ),
        slots: 2,
        num_queries,
        warmup: 0,
        seed,
    };
    let horizon_secs = num_queries as f64 * mean_service_secs / utilization;
    let plan = chaos::random_plan(seed ^ 0xFA17, 2, horizon_secs);
    let mut server =
        Server::with_supervision(scfg, &mech, Some(plan), SupervisorConfig::default())?;
    server.attach_recorder(obs::FlightRecorder::DEFAULT_CAPACITY);
    if traced {
        server.enable_tracing(0);
    }
    server.run()
}

/// Runs the tracing leg: interleaved repetitions of a faulted,
/// supervised recorder run, untraced vs traced, alternating per seed inside
/// each repetition so scheduler noise and thermal drift land on both
/// sides equally. Tracing is a pure observer: records and counters of
/// every paired run must agree bit-for-bit.
///
/// # Errors
///
/// Propagates testbed failures; [`SprintError::Runtime`] when tracing
/// perturbs a run.
pub fn bench_tracing() -> Result<TracingLeg, SprintError> {
    const REPS: usize = 7;
    /// Testbed runs per timed side per repetition: a single faulted
    /// run is well under a millisecond, too short to time against
    /// container noise, so each side sums a seed batch.
    const RUNS_PER_SIDE: u64 = 64;
    let mut off_min = [f64::MAX; RUNS_PER_SIDE as usize];
    let mut on_min = [f64::MAX; RUNS_PER_SIDE as usize];
    for _ in 0..REPS {
        for s in 0..RUNS_PER_SIDE {
            let (off, t) = time(|| recorded_run(0xB5 + s, false));
            off_min[s as usize] = off_min[s as usize].min(t);
            let (on, t) = time(|| recorded_run(0xB5 + s, true));
            on_min[s as usize] = on_min[s as usize].min(t);
            let (a, b) = (off?, on?);
            if a.records() != b.records()
                || a.fault_counters() != b.fault_counters()
                || a.recovery_counters() != b.recovery_counters()
                || a.arrived() != b.arrived()
            {
                return Err(SprintError::runtime(
                    "perf::tracing",
                    "tracing must not perturb the run it observes",
                ));
            }
        }
    }
    let disabled_secs: f64 = off_min.iter().sum();
    let enabled_secs: f64 = on_min.iter().sum();
    let ratio = enabled_secs / disabled_secs.max(1e-12);
    Ok(TracingLeg {
        disabled_secs,
        enabled_secs,
        overhead_frac: (ratio - 1.0).max(0.0),
    })
}

/// The forest leg: boxed-tree inference through
/// [`RandomForest::predict`], the path `HybridModel` calls.
#[derive(Debug, Clone, Copy)]
pub struct ForestLeg {
    /// Inference cost (nanoseconds per prediction), recorded as
    /// `forest.pointer_ns_per_pred` in the baseline.
    pub pointer_ns: f64,
}

/// Runs the forest leg: trains a 400-row forest and times one
/// `predict` call per row over 2 001 fixed rows. The timing is
/// min-of-K over identical passes, so one scheduler hiccup cannot
/// inflate it.
pub fn bench_forest() -> ForestLeg {
    let mut data = Dataset::new(vec!["mu_m", "lambda", "budget"]);
    for i in 0..400 {
        let x = (i % 40) as f64;
        let l = ((i * 7) % 10) as f64;
        let b = ((i * 13) % 5) as f64;
        let noise = ((i as f64 * 12.9898).sin() * 43_758.547).fract();
        data.push(vec![x, l, b], 0.9 * x + 1.0 + noise);
    }
    let forest = RandomForest::train(&data, 0, ForestConfig::default());
    let rows: Vec<[f64; 3]> = (0..2_001)
        .map(|i| {
            [
                (i % 47) as f64 * 0.9,
                ((i * 3) % 11) as f64,
                ((i * 5) % 7) as f64,
            ]
        })
        .collect();
    const PASSES: usize = 5;
    const REPS: usize = 10;
    let mut pointer_secs = f64::MAX;
    for _ in 0..PASSES {
        let (sink, secs) = time(|| {
            let mut acc = 0.0;
            for _ in 0..REPS {
                for row in &rows {
                    acc += forest.predict(row);
                }
            }
            acc
        });
        std::hint::black_box(sink);
        pointer_secs = pointer_secs.min(secs);
    }
    let calls = (REPS * rows.len()) as f64;
    ForestLeg {
        pointer_ns: pointer_secs / calls * 1e9,
    }
}

/// Queries per prediction for the warm model leg (the gated
/// `pool_multi_preds_per_min` number).
pub const WARM_QUERIES_PER_PREDICTION: usize = 1_000;

/// Predictions timed per pass of the warm model leg.
pub const WARM_PREDICTIONS: usize = 400;

/// Min-of-K passes for the warm model leg.
pub const WARM_REPS: usize = 5;

/// Gate: the warm model leg must sustain at least this many
/// predictions per minute.
pub const MIN_WARM_PREDS_PER_MIN: f64 = 1_000_000.0;

/// The batch-throughput leg: warm model predictions, plus cold
/// batches on the fast and reference backends at one thread. The
/// field names match the committed baseline's keys.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputLeg {
    /// Fast backend at 1 thread (cold batch, distinct seeds).
    pub pool_1t: ThroughputPoint,
    /// Reference (event-calendar) backend at 1 thread (cold batch).
    pub spawn_1t: ThroughputPoint,
    /// Steady-state model predictions through a warmed CRN trace
    /// cache (distinct policy conditions, one replayed trace) —
    /// the rate that bounds candidate evaluation in policy search and
    /// per-node evaluation at fleet scale.
    pub pool_warm: ThroughputPoint,
    /// The `--cores` value, recorded as the baseline's
    /// `multi_threads`; every leg above runs on one thread.
    pub cores: usize,
}

impl ThroughputLeg {
    /// Checks the >= [`MIN_WARM_PREDS_PER_MIN`] criterion on the warm
    /// model leg.
    ///
    /// # Errors
    ///
    /// [`SprintError::Runtime`] when warm throughput is too low.
    pub fn check(&self) -> Result<(), SprintError> {
        if self.pool_warm.predictions_per_minute < MIN_WARM_PREDS_PER_MIN {
            return Err(SprintError::runtime(
                "perf::throughput",
                format!(
                    "warm model prediction throughput must be >= {MIN_WARM_PREDS_PER_MIN} \
                     preds/min, measured {:.0}",
                    self.pool_warm.predictions_per_minute
                ),
            ));
        }
        Ok(())
    }
}

/// Runs the throughput leg: the cold batch points at `queries`
/// simulated queries/prediction, and the warm model point
/// at [`WARM_QUERIES_PER_PREDICTION`].
///
/// # Errors
///
/// Propagates measurement failures.
pub fn bench_throughput(
    p: &WorkloadProfile,
    c: &Condition,
    queries: usize,
    predictions: usize,
    cores: usize,
) -> Result<ThroughputLeg, SprintError> {
    Ok(ThroughputLeg {
        pool_1t: measure_throughput_with(p, c, queries, 1, predictions, qsim::Backend::Fast)?,
        spawn_1t: measure_throughput_with(p, c, queries, 1, predictions, qsim::Backend::Reference)?,
        pool_warm: measure_model_throughput(
            p,
            c,
            WARM_QUERIES_PER_PREDICTION,
            WARM_PREDICTIONS,
            WARM_REPS,
        )?,
        cores,
    })
}
