//! Per-model cache tests: each [`model_sprint::sprint_core::NoMlModel`]
//! owns its CRN trace cache and prediction memo. A repeated prediction
//! on one model is a memo hit, a clone shares its original's caches,
//! `with_private_caches()` starts cold, two separately built models
//! share nothing, and the caches are bit-invisible in results at any
//! replication thread count.
//!
//! These tests live in their own integration binary because they read
//! the process-wide obs counters; sharing a binary with unrelated
//! tests would race on the global registry.

use std::sync::Mutex;

use model_sprint::obs;
use model_sprint::profiler::{Condition, WorkloadProfile};
use model_sprint::simcore::dist::DistKind;
use model_sprint::simcore::time::Rate;
use model_sprint::sprint_core::throughput::measure_model_throughput;
use model_sprint::sprint_core::{NoMlModel, ResponseTimeModel, SimOptions};
use model_sprint::workloads::{QueryMix, WorkloadKind};

/// Serializes the tests in this binary: all of them touch the global
/// metrics registry.
static GATE: Mutex<()> = Mutex::new(());

fn profile() -> WorkloadProfile {
    WorkloadProfile {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        mechanism: "DVFS".into(),
        mu: Rate::per_hour(50.0),
        mu_m: Rate::per_hour(75.0),
        service_samples_secs: (0..100).map(|i| 60.0 + (i % 21) as f64).collect(),
        profiling_hours: 1.0,
    }
}

fn cond(timeout_secs: f64) -> Condition {
    Condition {
        utilization: 0.7,
        arrival_kind: DistKind::Exponential,
        timeout_secs,
        budget_frac: 0.4,
        refill_secs: 200.0,
    }
}

fn sim_options(threads: usize) -> SimOptions {
    SimOptions {
        sim_queries: 400,
        warmup: 40,
        replications: 2,
        threads,
        ..SimOptions::default()
    }
}

/// Same seed ⇒ byte-identical predictions with replications fanned
/// out over 1, 2 and 8 threads: the workers of one model share its
/// trace cache and memo, and neither the sharing nor the thread count
/// may leak into results.
#[test]
fn predictions_are_bit_identical_across_pool_sizes() {
    let _gate = GATE.lock().unwrap();
    let conds: Vec<Condition> = (0..6).map(|i| cond(40.0 + 12.0 * f64::from(i))).collect();
    let predict_all = |threads: usize| -> Vec<u64> {
        // Private caches per run so the 2- and 8-thread runs genuinely
        // recompute instead of memo-hitting the 1-thread run's results.
        let model = NoMlModel::new(profile(), sim_options(threads)).with_private_caches();
        conds
            .iter()
            .map(|c| model.predict_response_secs(c).to_bits())
            .collect()
    };
    let one = predict_all(1);
    assert_eq!(one, predict_all(2), "2 threads diverged from 1 thread");
    assert_eq!(one, predict_all(8), "8 threads diverged from 1 thread");
}

/// What one step did to the caches, read from the obs counters.
#[derive(Debug, PartialEq)]
struct CacheCounts {
    memo_hits: u64,
    memo_misses: u64,
    trace_misses: u64,
}

/// Runs `step` with the counters enabled and returns what it counted.
/// Callers hold [`GATE`].
fn counted(step: impl FnOnce()) -> CacheCounts {
    obs::set_enabled(true);
    obs::global().reset();
    step();
    let m = obs::global();
    let counts = CacheCounts {
        memo_hits: m.memo_hits.get(),
        memo_misses: m.memo_misses.get(),
        trace_misses: m.trace_cache_misses.get(),
    };
    obs::set_enabled(false);
    counts
}

/// A prediction the model has made before, on the model itself, on a
/// clone, and on a model that may not see the first one's caches.
fn repeat_on(model: &NoMlModel, again: &NoMlModel) -> CacheCounts {
    model.predict_response_secs(&cond(80.0));
    counted(|| {
        again.predict_response_secs(&cond(80.0));
    })
}

const HIT: CacheCounts = CacheCounts {
    memo_hits: 1,
    memo_misses: 0,
    trace_misses: 0,
};

/// Two replications, each materializing its own trace.
const COLD: CacheCounts = CacheCounts {
    memo_hits: 0,
    memo_misses: 1,
    trace_misses: 2,
};

#[test]
fn a_repeated_prediction_on_one_model_is_a_memo_hit() {
    let _gate = GATE.lock().unwrap();
    let model = NoMlModel::new(profile(), sim_options(1));
    assert_eq!(repeat_on(&model, &model), HIT);
}

#[test]
fn a_clone_shares_its_originals_caches() {
    let _gate = GATE.lock().unwrap();
    let model = NoMlModel::new(profile(), sim_options(1));
    assert_eq!(repeat_on(&model, &model.clone()), HIT);
}

#[test]
fn with_private_caches_starts_cold() {
    let _gate = GATE.lock().unwrap();
    let model = NoMlModel::new(profile(), sim_options(1));
    let private = model.clone().with_private_caches();
    assert_eq!(repeat_on(&model, &private), COLD);
}

#[test]
fn models_built_from_one_profile_share_no_entry() {
    let _gate = GATE.lock().unwrap();
    let first = NoMlModel::new(profile(), sim_options(1));
    let second = NoMlModel::new(profile(), sim_options(1));
    assert_eq!(repeat_on(&first, &second), COLD);
}

/// The warm throughput measurement must simulate as much on a repeat
/// call as on the first: its timeouts repeat from call to call, so a
/// measurement whose memo outlived the call would time memo hits the
/// second time round (a re-measurement that cannot fail).
#[test]
fn warm_throughput_remeasurement_runs_the_simulator_again() {
    let _gate = GATE.lock().unwrap();
    obs::set_enabled(true);
    let sim_evals_of_one_measurement = || {
        let before = obs::global().sim_evals.get();
        measure_model_throughput(&profile(), &cond(80.0), 100, 8, 2).unwrap();
        obs::global().sim_evals.get() - before
    };
    let first = sim_evals_of_one_measurement();
    let second = sim_evals_of_one_measurement();
    obs::set_enabled(false);
    assert!(first > 0, "the first measurement must run the simulator");
    assert_eq!(
        second, first,
        "a repeat measurement ran {second} simulator evaluations, the first {first}"
    );
}
