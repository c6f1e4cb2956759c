//! Figure 10: impact of service rate, arrival rate, timeout, budget
//! and cluster sampling on Hybrid prediction accuracy.

use crate::eval::{default_train_options, EvalPoint, EvalSettings};
use crate::stats::{median_error, summarize, ErrorSummary};
use crate::{evaluate_model, profile_single, split_runs};
use mechanisms::Dvfs;
use profiler::{Profiler, SamplingGrid};
use simcore::SprintError;
use sprint_core::train_hybrid;
use workloads::{QueryMix, WorkloadKind};

/// One binary-split row: group label plus its error summary (absent
/// when no test points landed in the group).
#[derive(Debug, Clone)]
pub struct FactorRow {
    /// Group label (e.g. "util hi (>60%)").
    pub label: &'static str,
    /// Median / quartile summary of the group's errors.
    pub summary: Option<ErrorSummary>,
}

/// The Figure 10 result.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// The paper's binary splits, in display order.
    pub rows: Vec<FactorRow>,
    /// Held-out centroid points pooled across workloads.
    pub in_cluster: Vec<EvalPoint>,
    /// Off-centroid points the training grid never saw.
    pub out_cluster: Vec<EvalPoint>,
    /// Median error on centroid conditions.
    pub in_median: f64,
    /// Median error on off-centroid conditions.
    pub out_median: f64,
}

impl Fig10Result {
    /// Off-centroid over centroid median-error ratio (the paper's
    /// cluster-sampling penalty, ~2.5X).
    pub fn cluster_ratio(&self) -> f64 {
        self.out_median / self.in_median
    }
}

/// Profiles `num_workloads` workloads, trains Hybrid models, and pools
/// held-out errors into the paper's binary design-factor splits plus
/// the centroid-vs-off-centroid comparison.
///
/// # Errors
///
/// Propagates profiling or training failures, or an empty pooled set.
pub fn compute(settings: &EvalSettings, num_workloads: usize) -> Result<Fig10Result, SprintError> {
    let num_workloads = num_workloads.clamp(1, WorkloadKind::ALL.len());
    let opts = default_train_options(settings);
    let mech = Dvfs::new();
    let grid = SamplingGrid::paper();

    let mut in_cluster: Vec<(EvalPoint, f64)> = Vec::new(); // (point, mu_qph)
    let mut out_cluster: Vec<EvalPoint> = Vec::new();

    for &kind in WorkloadKind::ALL.iter().take(num_workloads) {
        let mix = QueryMix::single(kind);
        let data = profile_single(&mix, &mech, &grid, settings);
        let (train, test) = split_runs(&data, settings.train_frac, settings.seed ^ 0xA0);
        let hybrid = train_hybrid(&train, &opts)?;
        let mu = data.profile.mu.qph();
        for p in evaluate_model(&hybrid, &test) {
            in_cluster.push((p, mu));
        }

        // Off-centroid conditions: profiled but never trainable.
        let off = grid.off_centroid_conditions(settings.conditions / 5, settings.seed ^ 0xB0);
        let profiler = Profiler {
            queries_per_run: settings.queries_per_run,
            warmup: settings.queries_per_run / 10,
            replays: 1,
            threads: settings.threads,
            seed: settings.seed ^ 0xC0FF,
        };
        let off_runs = profiler.run_conditions(&data.profile, &mech, &off);
        let off_data = profiler::ProfileData {
            profile: data.profile.clone(),
            runs: off_runs.into_iter().map(|(r, _)| r).collect(),
        };
        out_cluster.extend(evaluate_model(&hybrid, &off_data));
    }

    let pts = |f: &dyn Fn(&EvalPoint, f64) -> bool| -> Vec<EvalPoint> {
        in_cluster
            .iter()
            .filter(|(p, mu)| f(p, *mu))
            .map(|(p, _)| *p)
            .collect()
    };
    let splits: [(&'static str, Vec<EvalPoint>); 8] = [
        ("service hi (>40 qph)", pts(&|_, mu| mu > 40.0)),
        ("service lo (<40 qph)", pts(&|_, mu| mu <= 40.0)),
        (
            "util hi (>60%)",
            pts(&|p, _| p.run.condition.utilization > 0.60),
        ),
        (
            "util lo (<60%)",
            pts(&|p, _| p.run.condition.utilization <= 0.60),
        ),
        (
            "timeout hi (>100 s)",
            pts(&|p, _| p.run.condition.timeout_secs > 100.0),
        ),
        (
            "timeout lo (<100 s)",
            pts(&|p, _| p.run.condition.timeout_secs <= 100.0),
        ),
        (
            "budget hi (>40%)",
            pts(&|p, _| p.run.condition.budget_frac > 0.40),
        ),
        (
            "budget lo (<40%)",
            pts(&|p, _| p.run.condition.budget_frac <= 0.40),
        ),
    ];
    let rows = splits
        .into_iter()
        .map(|(label, points)| FactorRow {
            label,
            summary: summarize(&points),
        })
        .collect();

    let all_in: Vec<EvalPoint> = in_cluster.iter().map(|(p, _)| *p).collect();
    let in_median = median_error(&all_in)?;
    let out_median = median_error(&out_cluster)?;
    Ok(Fig10Result {
        rows,
        in_cluster: all_in,
        out_cluster,
        in_median,
        out_median,
    })
}
