//! Cross-worker cache-sharing tests: the process-wide CRN trace cache
//! and prediction memo behind [`model_sprint::sprint_core::NoMlModel`]
//! must be bit-invisible in results across pool sizes, and must
//! actually raise the cache hit rate over per-model private caches.
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
/// metrics registry and the shared caches.
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

/// Same seed ⇒ byte-identical predictions at pool sizes 1, 2 and 8:
/// the workers inside each pool share one trace cache and memo, and
/// neither the sharing nor the worker count may leak into results.
#[test]
fn predictions_are_bit_identical_across_pool_sizes() {
    let _gate = GATE.lock().unwrap();
    let conds: Vec<Condition> = (0..6).map(|i| cond(40.0 + 12.0 * f64::from(i))).collect();
    let predict_all = |threads: usize| -> Vec<u64> {
        // Private caches per run so pools 2 and 8 genuinely recompute
        // instead of memo-hitting pool 1's results.
        let model = NoMlModel::new(profile(), sim_options(threads)).with_private_caches();
        conds
            .iter()
            .map(|c| model.predict_response_secs(c).to_bits())
            .collect()
    };
    let one = predict_all(1);
    assert_eq!(one, predict_all(2), "pool of 2 diverged from pool of 1");
    assert_eq!(one, predict_all(8), "pool of 8 diverged from pool of 1");
}

/// Shared caches must beat the per-model private baseline: a second
/// model over the same conditions resolves whole predictions from the
/// shared memo (no private-cache run ever memo-hits across models) and
/// re-materializes fewer CRN traces.
#[test]
fn shared_caches_raise_hit_rate_over_private_baseline() {
    let _gate = GATE.lock().unwrap();
    let conds: Vec<Condition> = (0..4).map(|i| cond(55.0 + 15.0 * f64::from(i))).collect();
    // Distinct seed from every other test in this binary so the
    // process-wide shared caches start cold for this workload.
    let opts = SimOptions {
        seed: 0x5AFE_CAFE,
        ..sim_options(1)
    };
    let run = |shared: bool| -> (u64, u64) {
        obs::set_enabled(true);
        obs::global().reset();
        for _ in 0..2 {
            let model = if shared {
                NoMlModel::new(profile(), opts)
            } else {
                NoMlModel::new(profile(), opts).with_private_caches()
            };
            for c in &conds {
                model.predict_response_secs(c);
            }
        }
        let m = obs::global();
        let out = (m.memo_hits.get(), m.trace_cache_misses.get());
        obs::set_enabled(false);
        out
    };
    let (private_memo_hits, private_trace_misses) = run(false);
    let (shared_memo_hits, shared_trace_misses) = run(true);
    assert!(
        shared_memo_hits > private_memo_hits,
        "shared memo hits {shared_memo_hits} must strictly exceed the per-worker \
         baseline {private_memo_hits}"
    );
    assert!(
        shared_trace_misses < private_trace_misses,
        "shared caches must re-materialize fewer traces: {shared_trace_misses} \
         vs private {private_trace_misses}"
    );
}

/// The warm throughput measurement must simulate as much on a repeat
/// call as on the first: its timeouts repeat from call to call, so a
/// measurement sharing the process-wide memo would time memo hits the
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
