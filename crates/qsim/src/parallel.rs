//! Parallel batch execution of queue simulations.
//!
//! §2.2: the simulator "executes quickly, parallelizing execution
//! across multiple cores and servers easily", and Fig. 11 measures
//! prediction throughput scaling from 1 to 12 cores. A *prediction*
//! averages a handful of replicated runs with different seeds; a batch
//! fans independent configurations out over workers.
//!
//! Two interchangeable backends execute a batch:
//!
//! - [`Backend::Pool`] (the default) reuses the process-wide
//!   [`SimPool`](crate::pool::SimPool) — no thread spawns per call, and
//!   configurations are shared by `Arc` instead of deep-cloned per
//!   task.
//! - [`Backend::Reference`] is the frozen pre-fast-path code: scoped
//!   threads, a deep `QsimConfig` clone per task (including any
//!   empirical service table), and the event-calendar engine. It exists
//!   as the perf baseline and bit-identity oracle for `perf_smoke`.
//!
//! Both return input-ordered, bit-identical results for any thread
//! count.

use crate::config::{QsimConfig, QsimResult};
use crate::pool::SimPool;
use crate::sim::Qsim;
use crate::trace::TraceCache;
use simcore::SprintError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Which execution strategy a batch uses. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Persistent process-wide worker pool, `Arc`-shared configs.
    #[default]
    Pool,
    /// Pre-fast-path baseline: scoped threads, deep config clone per
    /// task, event-calendar engine. Slow on purpose — do not use
    /// outside benchmarks and oracle tests.
    Reference,
}

/// The golden-ratio seed stride used to derive per-replication seeds
/// from a prediction's base seed.
const SEED_STRIDE: u64 = 0x9E37_79B9;

/// Derives replication `i`'s simulator seed from a prediction's base
/// seed. Exposed so trace-driven and live-RNG predictions agree on the
/// randomness they (re)use.
pub fn replication_seed(base: u64, i: usize) -> u64 {
    base.wrapping_add(SEED_STRIDE * (i as u64 + 1))
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Simulates one shared config, converting a worker panic into a typed
/// error instead of unwinding into shared batch state.
fn run_one_shared(cfg: Arc<QsimConfig>, index: usize) -> Result<QsimResult, SprintError> {
    match catch_unwind(AssertUnwindSafe(|| Qsim::shared(cfg).and_then(Qsim::run))) {
        Ok(result) => result,
        Err(payload) => Err(SprintError::WorkerPanic {
            index,
            message: panic_message(payload),
        }),
    }
}

/// The frozen baseline worker: deep config clone, event-calendar
/// engine.
fn run_one_reference(cfg: QsimConfig, index: usize) -> Result<QsimResult, SprintError> {
    match catch_unwind(AssertUnwindSafe(|| {
        Qsim::new(cfg).and_then(Qsim::run_event_driven)
    })) {
        Ok(result) => result,
        Err(payload) => Err(SprintError::WorkerPanic {
            index,
            message: panic_message(payload),
        }),
    }
}

/// Runs each configuration to completion on the default backend (the
/// persistent pool), fanning out over `threads` concurrent executors
/// (1 = sequential). Results keep input order and are identical
/// regardless of thread count or backend.
///
/// A panicking worker does not abort the batch: the panic is caught,
/// the failing config's slot is marked with
/// [`SprintError::WorkerPanic`], and every other configuration still
/// runs to completion. The first failure (by input order) is then
/// returned as the batch error.
///
/// # Errors
///
/// Returns [`SprintError::InvalidConfig`] if `threads` is zero or a
/// config fails validation, and [`SprintError::WorkerPanic`] if a
/// worker panicked mid-simulation.
pub fn run_batch(configs: Vec<QsimConfig>, threads: usize) -> Result<Vec<QsimResult>, SprintError> {
    run_batch_with(configs, threads, Backend::Pool)
}

/// [`run_batch`] with an explicit [`Backend`].
///
/// # Errors
///
/// Same contract as [`run_batch`].
pub fn run_batch_with(
    configs: Vec<QsimConfig>,
    threads: usize,
    backend: Backend,
) -> Result<Vec<QsimResult>, SprintError> {
    SprintError::require_nonzero("run_batch::threads", threads)?;
    match backend {
        Backend::Pool => {
            if threads == 1 {
                // Sequential fast path: skip the batch bookkeeping
                // entirely. Same per-task code, same order.
                return configs
                    .into_iter()
                    .map(Arc::new)
                    .enumerate()
                    .map(|(i, cfg)| run_one_shared(cfg, i))
                    .collect();
            }
            let tasks: Vec<_> = configs
                .into_iter()
                .map(Arc::new)
                .enumerate()
                .map(|(i, cfg)| move || run_one_shared(cfg, i))
                .collect();
            SimPool::global()
                .run_ordered(tasks, threads)
                .into_iter()
                .enumerate()
                .map(|(i, slot)| {
                    slot.unwrap_or_else(|| {
                        Err(SprintError::WorkerPanic {
                            index: i,
                            message: "pool task panicked".to_string(),
                        })
                    })
                })
                .collect()
        }
        Backend::Reference => run_batch_reference(configs, threads),
    }
}

/// The frozen pre-fast-path batch: deep clones and the event calendar.
fn run_batch_reference(
    configs: Vec<QsimConfig>,
    threads: usize,
) -> Result<Vec<QsimResult>, SprintError> {
    if threads == 1 || configs.len() <= 1 {
        return configs
            .into_iter()
            .enumerate()
            .map(|(i, c)| run_one_reference(c, i))
            .collect();
    }
    let n = configs.len();
    let slots: Vec<Mutex<Option<Result<QsimResult, SprintError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let configs = &configs;
    let slots_ref = &slots;
    let next_ref = &next;
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let out = run_one_reference(configs[i].clone(), i);
                let mut slot = slots_ref[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                *slot = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .unwrap_or_else(|| {
                    Err(SprintError::runtime(
                        "qsim::run_batch_reference",
                        "worker exited before filling its result slot",
                    ))
                })
        })
        .collect()
}

/// Predicts mean response time by averaging `replications` simulator
/// runs with derived seeds — one "prediction" in the Fig. 11 sense.
///
/// # Errors
///
/// Returns an error if `replications` or `threads` is zero, or if any
/// replication fails.
pub fn predict_mean_response(
    cfg: &QsimConfig,
    replications: usize,
    threads: usize,
) -> Result<f64, SprintError> {
    SprintError::require_nonzero("predict_mean_response::replications", replications)?;
    SprintError::require_nonzero("predict_mean_response::threads", threads)?;
    let tasks: Vec<_> = (0..replications)
        .map(|i| {
            let c = cfg.with_seed(replication_seed(cfg.seed, i));
            move || match catch_unwind(AssertUnwindSafe(|| {
                Qsim::new(c).and_then(Qsim::run_mean_response)
            })) {
                Ok(result) => result,
                Err(payload) => Err(SprintError::WorkerPanic {
                    index: i,
                    message: panic_message(payload),
                }),
            }
        })
        .collect();
    average_pool_tasks(tasks, threads, replications)
}

/// [`predict_mean_response`] on the frozen pre-fast-path baseline.
/// Bit-identical output, pre-PR cost profile; exists for `perf_smoke`
/// and oracle tests.
///
/// # Errors
///
/// Same contract as [`predict_mean_response`].
pub fn predict_mean_response_reference(
    cfg: &QsimConfig,
    replications: usize,
    threads: usize,
) -> Result<f64, SprintError> {
    SprintError::require_nonzero("predict_mean_response::replications", replications)?;
    let configs: Vec<QsimConfig> = (0..replications)
        .map(|i| cfg.with_seed(replication_seed(cfg.seed, i)))
        .collect();
    let results = run_batch_with(configs, threads, Backend::Reference)?;
    Ok(average_mean_response(&results, replications))
}

/// [`predict_mean_response`] with common-random-number traces: each
/// replication's inputs are materialized once per seed (via `cache`)
/// and replayed, so repeated predictions at the same arrival/service
/// process — e.g. the ~150 candidate timeouts of one annealing search —
/// skip all distribution sampling *and* share identical randomness
/// (CRN). Bit-identical to [`predict_mean_response`] at equal seeds:
/// the trace replays exactly the draws the live RNG would make, and the
/// simulator never consumes randomness elsewhere.
///
/// # Errors
///
/// Returns an error if `replications` or `threads` is zero, or if any
/// replication fails.
pub fn predict_mean_response_traced(
    cfg: &QsimConfig,
    replications: usize,
    threads: usize,
    cache: &TraceCache,
) -> Result<f64, SprintError> {
    SprintError::require_nonzero("predict_mean_response::replications", replications)?;
    SprintError::require_nonzero("predict_mean_response::threads", threads)?;
    // One shared config for every replication: in trace mode the
    // simulator never reads `cfg.seed`, so the deep per-replication
    // `with_seed` clone of the live path is unnecessary.
    let shared = Arc::new(cfg.clone());
    let tasks: Vec<_> = (0..replications)
        .map(|i| {
            let trace = cache.trace_for(cfg, replication_seed(cfg.seed, i));
            let cfg = Arc::clone(&shared);
            move || match catch_unwind(AssertUnwindSafe(|| {
                Qsim::with_trace(cfg, trace).and_then(Qsim::run_mean_response)
            })) {
                Ok(result) => result,
                Err(payload) => Err(SprintError::WorkerPanic {
                    index: i,
                    message: panic_message(payload),
                }),
            }
        })
        .collect();
    average_pool_tasks(tasks, threads, replications)
}

/// Runs per-replication mean-response tasks on the global pool and
/// averages them in input order — the summation order every prediction
/// variant shares, so their floating-point results can be compared
/// bitwise.
fn average_pool_tasks(
    tasks: Vec<impl FnOnce() -> Result<f64, SprintError> + Send + 'static>,
    threads: usize,
    replications: usize,
) -> Result<f64, SprintError> {
    if threads == 1 {
        // Sequential fast path: no boxing, no batch bookkeeping. Same
        // task order, so the sum is bitwise the pooled result.
        let mut sum = 0.0;
        for task in tasks {
            sum += task()?;
        }
        return Ok(sum / replications as f64);
    }
    let means: Vec<f64> = SimPool::global()
        .run_ordered(tasks, threads)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(SprintError::WorkerPanic {
                    index: i,
                    message: "pool task panicked".to_string(),
                })
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(means.into_iter().sum::<f64>() / replications as f64)
}

/// Input-order average of full batch results; keeps the same summation
/// order as [`average_pool_tasks`].
fn average_mean_response(results: &[QsimResult], replications: usize) -> f64 {
    results
        .iter()
        .map(QsimResult::mean_response_secs)
        .sum::<f64>()
        / replications as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::Dist;
    use simcore::time::{Rate, SimDuration};

    fn small_cfg(seed: u64) -> QsimConfig {
        let mut c = QsimConfig::mm1(
            Rate::per_hour(30.0),
            Dist::exponential(SimDuration::from_secs(60)),
            seed,
        );
        c.num_queries = 2_000;
        c.warmup = 200;
        c
    }

    #[test]
    fn batch_preserves_order_and_determinism() {
        let configs: Vec<QsimConfig> = (0..8).map(small_cfg).collect();
        let seq = run_batch(configs.clone(), 1).unwrap();
        let par = run_batch(configs, 4).unwrap();
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.queries, b.queries);
        }
    }

    #[test]
    fn backends_are_bit_identical() {
        let configs: Vec<QsimConfig> = (0..6).map(small_cfg).collect();
        let pool = run_batch_with(configs.clone(), 4, Backend::Pool).unwrap();
        let reference = run_batch_with(configs, 4, Backend::Reference).unwrap();
        for (p, r) in pool.iter().zip(reference.iter()) {
            assert_eq!(p.queries, r.queries, "pool vs reference");
        }
    }

    #[test]
    fn predict_averages_replications() {
        let cfg = small_cfg(5);
        let p1 = predict_mean_response(&cfg, 4, 1).unwrap();
        let p2 = predict_mean_response(&cfg, 4, 4).unwrap();
        assert_eq!(p1, p2, "thread count must not change the estimate");
        // Sanity: near the M/M/1 closed form 1/(µ-λ) = 120 s at 50% load.
        assert!((p1 - 120.0).abs() / 120.0 < 0.15, "estimate {p1}");
    }

    #[test]
    fn traced_prediction_is_bit_identical_to_live() {
        let cfg = small_cfg(5);
        let cache = TraceCache::new();
        let live = predict_mean_response(&cfg, 4, 2).unwrap();
        let traced = predict_mean_response_traced(&cfg, 4, 2, &cache).unwrap();
        let reference = predict_mean_response_reference(&cfg, 4, 2).unwrap();
        assert_eq!(live.to_bits(), traced.to_bits());
        assert_eq!(live.to_bits(), reference.to_bits());
        assert_eq!(cache.len(), 4, "one trace per replication");
        // Second traced call hits the cache and stays identical.
        assert_eq!(
            traced.to_bits(),
            predict_mean_response_traced(&cfg, 4, 2, &cache)
                .unwrap()
                .to_bits()
        );
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn single_job_batch() {
        let r = run_batch(vec![small_cfg(1)], 8).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(run_batch(vec![], 0).is_err());
        assert!(predict_mean_response(&small_cfg(1), 0, 4).is_err());
        assert!(predict_mean_response_traced(&small_cfg(1), 0, 4, &TraceCache::new()).is_err());
    }

    #[test]
    fn invalid_config_marks_slot_without_aborting_batch() {
        let mut bad = small_cfg(2);
        bad.slots = 0;
        let configs = vec![small_cfg(1), bad, small_cfg(3)];
        let err = run_batch(configs, 4).expect_err("bad config must surface");
        assert!(matches!(err, SprintError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn worker_panic_is_caught_and_typed() {
        // An empty empirical distribution panics when sampled — a
        // mid-run worker panic, not a config-validation failure. The
        // batch must finish the healthy configs and report the panic as
        // a typed error instead of poisoning shared state.
        for backend in [Backend::Pool, Backend::Reference] {
            let mut poisoned = small_cfg(2);
            poisoned.service = Dist::Empirical { samples: vec![] };
            let configs = vec![small_cfg(1), poisoned, small_cfg(3)];
            let err = run_batch_with(configs, 4, backend).expect_err("worker panic must surface");
            match err {
                SprintError::WorkerPanic { index, .. } => assert_eq!(index, 1),
                other => panic!("expected WorkerPanic, got {other} ({backend:?})"),
            }
        }
    }
}
