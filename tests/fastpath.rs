//! End-to-end determinism and variance-reduction tests for the
//! prediction fast path: the thread count, common-random-number (CRN)
//! trace reuse, and the direct k = 1 engine must be invisible in
//! results — only in wall-clock.

use model_sprint::policy::{explore_timeout, AnnealingConfig};
use model_sprint::profiler::{Condition, WorkloadProfile};
use model_sprint::qsim::{
    predict_mean_response, predict_mean_response_traced, run_batch_with, Backend, QsimConfig,
    TraceCache,
};
use model_sprint::simcore::dist::{Dist, DistKind};
use model_sprint::simcore::time::{Rate, SimDuration};
use model_sprint::sprint_core::{NoMlModel, SimOptions};
use model_sprint::workloads::{QueryMix, WorkloadKind};

fn batch_cfg(seed: u64) -> QsimConfig {
    let mut c = QsimConfig::mm1(
        Rate::per_hour(45.0),
        Dist::exponential(SimDuration::from_secs(60)),
        seed,
    );
    c.num_queries = 1_200;
    c.warmup = 120;
    c.timeout = SimDuration::from_secs(80);
    c.budget_capacity_secs = 80.0;
    c.refill_secs = 200.0;
    c.sprint_speedup = 1.5;
    c
}

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
        utilization: 0.75,
        arrival_kind: DistKind::Exponential,
        timeout_secs,
        budget_frac: 0.4,
        refill_secs: 200.0,
    }
}

/// Small-but-real simulation sizes so the whole suite stays fast.
fn sim_options(fast_path: bool) -> SimOptions {
    SimOptions {
        sim_queries: 500,
        warmup: 50,
        replications: 2,
        threads: 1,
        fast_path,
        ..SimOptions::default()
    }
}

/// Batches are bit-identical across thread counts and across the fast
/// and reference backends.
#[test]
fn run_batch_is_bit_identical_across_threads_and_backends() {
    let configs: Vec<QsimConfig> = (0..6).map(|i| batch_cfg(100 + i)).collect();
    let baseline = run_batch_with(configs.clone(), 1, Backend::Fast).unwrap();
    for threads in [2, 8] {
        for backend in [Backend::Fast, Backend::Reference] {
            let out = run_batch_with(configs.clone(), threads, backend).unwrap();
            for (i, (a, b)) in baseline.iter().zip(out.iter()).enumerate() {
                assert_eq!(
                    a.queries, b.queries,
                    "config {i} diverged at {threads} threads on {backend:?}"
                );
            }
        }
    }
}

/// Trace-replayed predictions equal live-RNG predictions bit for bit,
/// and repeated traced predictions reuse the cache without drifting.
#[test]
fn traced_predictions_match_live_bitwise() {
    let cfg = batch_cfg(7);
    let cache = TraceCache::new();
    let live = predict_mean_response(&cfg, 3, 1).unwrap();
    let traced = predict_mean_response_traced(&cfg, 3, 1, &cache).unwrap();
    assert_eq!(live.to_bits(), traced.to_bits());
    let again = predict_mean_response_traced(&cfg, 3, 1, &cache).unwrap();
    assert_eq!(traced.to_bits(), again.to_bits());
}

/// CRN variance reduction: comparing two candidate timeouts on shared
/// traces gives a lower-variance estimate of their response-time
/// *difference* than comparing them on independent randomness — the
/// property that makes annealing comparisons trustworthy at small
/// replication counts.
#[test]
fn shared_traces_reduce_comparison_variance() {
    let t_a = 40.0;
    let t_b = 120.0;
    let groups = 12u64;
    let spread = |diffs: &[f64]| {
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        (diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / diffs.len() as f64).sqrt()
    };

    // CRN: both timeouts replay the identical per-seed traces (the
    // trace key excludes the timeout), so the difference isolates the
    // policy change.
    let crn: Vec<f64> = (0..groups)
        .map(|g| {
            let cache = TraceCache::new();
            let mut a = batch_cfg(1_000 + g);
            a.timeout = SimDuration::from_secs_f64(t_a);
            let mut b = a.clone();
            b.timeout = SimDuration::from_secs_f64(t_b);
            predict_mean_response_traced(&a, 2, 1, &cache).unwrap()
                - predict_mean_response_traced(&b, 2, 1, &cache).unwrap()
        })
        .collect();

    // Independent: the second timeout sees different randomness, so
    // arrival/service noise leaks into the difference.
    let indep: Vec<f64> = (0..groups)
        .map(|g| {
            let mut a = batch_cfg(1_000 + g);
            a.timeout = SimDuration::from_secs_f64(t_a);
            let mut b = batch_cfg(5_000 + g);
            b.timeout = SimDuration::from_secs_f64(t_b);
            predict_mean_response(&a, 2, 1).unwrap() - predict_mean_response(&b, 2, 1).unwrap()
        })
        .collect();

    let (s_crn, s_indep) = (spread(&crn), spread(&indep));
    assert!(
        s_crn <= s_indep,
        "CRN comparison spread {s_crn:.3} should not exceed independent spread {s_indep:.3}"
    );
}

/// One annealing search, run twice at the same seed on fresh models,
/// reproduces its evaluation trace byte for byte — and the fast path
/// (traces + direct engine + memo) agrees bitwise with the reference
/// path.
#[test]
fn annealing_trace_is_reproducible_and_backend_invariant() {
    let base = cond(80.0);
    let accfg = AnnealingConfig {
        iterations: 30,
        ..AnnealingConfig::default()
    };
    let search = |fast_path: bool| {
        let model = NoMlModel::new(profile(), sim_options(fast_path));
        explore_timeout(&model, &base, &accfg).unwrap()
    };
    let a = search(true);
    let b = search(true);
    assert_eq!(a.trace, b.trace, "same-seed reruns must be byte-stable");
    assert_eq!(a.best_timeout_secs.to_bits(), b.best_timeout_secs.to_bits());

    let reference = search(false);
    assert_eq!(
        a.trace, reference.trace,
        "fast and reference searches must evaluate identical (t, RT) pairs"
    );
    assert_eq!(
        a.best_timeout_secs.to_bits(),
        reference.best_timeout_secs.to_bits()
    );
}
