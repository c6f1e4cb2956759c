//! Figure 11: prediction throughput (predictions/minute) and estimate
//! variance (CoV) of the timeout-aware simulator as the number of
//! simulated queries per prediction grows. Each size is measured on
//! the fast backend (the direct k = 1 engine) and the event-calendar
//! reference backend at one thread, and on the fast backend fanned out
//! over `cores` threads.

use mechanisms::Dvfs;
use profiler::{Condition, Profiler, WorkloadProfile};
use qsim::Backend;
use simcore::dist::DistKind;
use simcore::SprintError;
use sprint_core::throughput::{measure_throughput, measure_throughput_with};
use workloads::{QueryMix, WorkloadKind};

/// Sizing knobs for the Fig. 11 measurement.
#[derive(Debug, Clone)]
pub struct Fig11Config {
    /// Worker threads for the fan-out column.
    pub cores: usize,
    /// Predictions timed per cell.
    pub predictions: usize,
    /// Simulated queries per prediction, one table row each.
    pub sizes: Vec<usize>,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Fig11Config {
            cores: crate::eval::num_threads().min(12),
            predictions: 24,
            sizes: vec![1_000, 10_000, 100_000, 1_000_000],
        }
    }
}

/// One measured simulation size.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Row {
    /// Simulated queries per prediction.
    pub queries: usize,
    /// Fast backend, 1 thread (preds/min).
    pub fast_single: f64,
    /// Reference (event-calendar) backend, 1 thread (preds/min).
    pub reference_single: f64,
    /// Fast backend at `cores` threads (preds/min).
    pub fast_multi: f64,
    /// Estimate coefficient of variation at `cores` threads (%).
    pub cov_percent: f64,
}

impl Fig11Row {
    /// Fast-backend gain over the reference backend (1t).
    pub fn fast_gain(&self) -> f64 {
        self.fast_single / self.reference_single
    }

    /// Multi-thread over single-thread throughput scaling.
    pub fn scaling(&self) -> f64 {
        self.fast_multi / self.fast_single
    }
}

/// The Figure 11 result.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// Cores used for the fan-out column.
    pub cores: usize,
    /// One row per simulation size, smallest first.
    pub rows: Vec<Fig11Row>,
    /// The profiled service profile the measurements used.
    pub profile: WorkloadProfile,
}

/// The Fig. 11 measurement condition (a mid-grid operating point).
pub fn condition() -> Condition {
    Condition {
        utilization: 0.75,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 80.0,
        budget_frac: 0.4,
        refill_secs: 200.0,
    }
}

/// Profiles Jacobi and measures throughput/CoV at every size.
///
/// # Errors
///
/// Propagates profiling or measurement failures.
pub fn compute(cfg: &Fig11Config) -> Result<Fig11Result, SprintError> {
    let mech = Dvfs::new();
    let profile = Profiler::default().measure_rates(&QueryMix::single(WorkloadKind::Jacobi), &mech);
    let cond = condition();

    let mut rows = Vec::new();
    for &q in &cfg.sizes {
        let single = measure_throughput(&profile, &cond, q, 1, cfg.predictions)?;
        let reference =
            measure_throughput_with(&profile, &cond, q, 1, cfg.predictions, Backend::Reference)?;
        let multi = measure_throughput(&profile, &cond, q, cfg.cores, cfg.predictions)?;
        rows.push(Fig11Row {
            queries: q,
            fast_single: single.predictions_per_minute,
            reference_single: reference.predictions_per_minute,
            fast_multi: multi.predictions_per_minute,
            cov_percent: multi.cov_percent,
        });
    }
    Ok(Fig11Result {
        cores: cfg.cores,
        rows,
        profile,
    })
}
