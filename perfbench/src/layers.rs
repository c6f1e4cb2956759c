//! The metric names `BENCHMARK.json` declares, and the per-layer
//! metrics computed from a traced run's spans and counts.
//!
//! Every workload prints every metric; a layer a workload does not
//! exercise reads 0.

use crate::harness::Metric;
use crate::trace::Summary;

/// End-to-end metrics of an untraced run, in print order.
#[cfg(test)]
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "op_ms_p50",
    "op_ms_tail",
    "ops_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics of a traced run, in print order: [`metrics`] and
/// then `bench.trace_overhead_frac`.
#[cfg(test)]
pub const PER_LAYER: [&str; 32] = [
    "profiler.busy_ms",
    "testbed.sim_queries_per_s",
    "sprint-core.calibrate_ms",
    "sprint-core.sim_evals",
    "qsim.live_pred_us",
    "forest.fit_ms",
    "sprint-core.eval_ms",
    "sprint-core.model_err_p50",
    "policy.search_ms",
    "policy.candidates",
    "sprint-core.predict_us",
    "sprint-core.memo_hit_frac",
    "qsim.traced_pred_us",
    "qsim.trace_hit_frac",
    "forest.infer_ns",
    "fleet.run_ms",
    "reactor.journal_entries",
    "reactor.entries_per_s",
    "obs.journal_overhead_frac",
    "obs.journal_diff_ms",
    "fleet.lease_grants",
    "fleet.elections",
    "fleet.lease_expiries",
    "faults.injected",
    "scenario.parse_ms",
    "scenario.execute_ms.single-node",
    "scenario.execute_ms.fleet",
    "scenario.execute_ms.cloning",
    "scenario.invariants_ms.single-node",
    "scenario.invariants_ms.fleet",
    "scenario.invariants_ms.cloning",
    "bench.trace_overhead_frac",
];

// Span names: the public call each span wraps.
/// `profiler::Profiler::profile`.
pub const PROFILE: &str = "profiler::Profiler::profile";
/// `sprint_core::train_hybrid`, decomposed into its public steps.
pub const TRAIN: &str = "sprint_core::train_hybrid";
/// `sprint_core::effective_sprint_rate` (Eq. 2 calibration).
pub const CALIBRATE: &str = "sprint_core::effective_sprint_rate";
/// `forest::RandomForest::train`.
pub const FOREST_FIT: &str = "forest::RandomForest::train";
/// `bench::evaluate_model`.
pub const EVALUATE: &str = "bench::evaluate_model";
/// `policy::explore_timeout`.
pub const SEARCH: &str = "policy::explore_timeout";
/// `sprint_core::HybridModel::predict_response_secs`.
pub const PREDICT: &str = "sprint_core::HybridModel::predict_response_secs";
/// `sprint_core::HybridModel::effective_rate_qph`.
pub const INFER: &str = "sprint_core::HybridModel::effective_rate_qph";
/// `fleet::run_fleet`.
pub const FLEET_RUN: &str = "fleet::run_fleet";
/// `fleet::run_fleet_journaled`.
pub const FLEET_JOURNALED: &str = "fleet::run_fleet_journaled";
/// `reactor::Journal::diff`.
pub const JOURNAL_DIFF: &str = "reactor::Journal::diff";
/// `scenario::ScenarioPlan::from_toml_str`.
pub const PARSE: &str = "scenario::ScenarioPlan::from_toml_str";
/// `scenario::execute`, per topology.
pub const EXECUTE: [&str; 3] = [
    "scenario::execute[single-node]",
    "scenario::execute[fleet]",
    "scenario::execute[cloning]",
];
/// `scenario::check_invariants`, per topology.
pub const INVARIANTS: [&str; 3] = [
    "scenario::check_invariants[single-node]",
    "scenario::check_invariants[fleet]",
    "scenario::check_invariants[cloning]",
];

// Count names the workloads record beside the obs registry deltas.
/// Candidate timeouts one search evaluated.
pub const CANDIDATES: &str = "policy.candidates";
/// Testbed queries simulated by profiling.
pub const TESTBED_QUERIES: &str = "testbed.queries";
/// obs `sim_evals` moved by calibration alone.
pub const CALIBRATION_EVALS: &str = "sprint-core.calibration_sim_evals";
/// Held-out median relative error of the models an op built.
pub const MODEL_ERR: &str = "sprint-core.model_err_p50";
/// Entries in one fleet journal.
pub const JOURNAL_ENTRIES: &str = "reactor.journal_entries";
/// Lease grants of one fleet run.
pub const LEASE_GRANTS: &str = "fleet.lease_grants";
/// Coordinator elections of one fleet run.
pub const ELECTIONS: &str = "fleet.elections";
/// Lease expiries of one fleet run.
pub const LEASE_EXPIRIES: &str = "fleet.lease_expiries";
/// Faults injected into one fleet run.
pub const FAULTS_INJECTED: &str = "faults.injected";

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics (all but `bench.trace_overhead_frac`, which
/// the harness measures) from a traced run's summary.
///
/// Times and counts are per call of the public function they name, not
/// per op, because an op makes several builds, searches, fleet runs or
/// catalog passes.
pub fn metrics(s: &Summary) -> Vec<Metric> {
    let calls = |span: &str| s.spans.get(span).map_or(0.0, |t| t.calls as f64);
    let total = |count: &str| s.counts.get(count).copied().unwrap_or(0.0);
    let ms = |span: &str| s.mean_ns(span) / 1e6;
    let total_ms = |span: &str| s.spans.get(span).map_or(0.0, |t| t.total_ns / 1e6);
    // Calibration per model trained.
    let calibrate_ms = ratio(total_ms(CALIBRATE), calls(TRAIN));
    let calibration_evals = ratio(total(CALIBRATION_EVALS), calls(TRAIN));
    // Prediction-path simulations: obs `sim_evals` moved inside
    // `count_obs` (evaluation and search), not calibration's.
    let sim_evals = total("obs.sim_evals");
    let per_fleet = |count: &str| ratio(total(count), calls(FLEET_RUN));
    let journaled_ns = s.mean_ns(FLEET_JOURNALED);
    let journal_overhead = if journaled_ns > 0.0 {
        journaled_ns / s.mean_ns(FLEET_RUN) - 1.0
    } else {
        0.0
    };
    // Parsing happens once, in set-up.
    let setup_ms = |name: &str| s.setup_spans.get(name).map_or(0.0, |t| t.total_ns / 1e6);
    let hit_frac = |hits: &str, misses: &str| ratio(total(hits), total(hits) + total(misses));
    [
        ("profiler.busy_ms", ms(PROFILE), "ms"),
        (
            "testbed.sim_queries_per_s",
            ratio(total(TESTBED_QUERIES), total_ms(PROFILE) / 1e3),
            "1/s",
        ),
        ("sprint-core.calibrate_ms", calibrate_ms, "ms"),
        ("sprint-core.sim_evals", calibration_evals, "count"),
        (
            "qsim.live_pred_us",
            ratio(calibrate_ms * 1e3, calibration_evals),
            "us",
        ),
        ("forest.fit_ms", ms(FOREST_FIT), "ms"),
        ("sprint-core.eval_ms", ms(EVALUATE), "ms"),
        // One op's value, not a mean: every op's digest folds it in
        // and must equal the warm-up op's, and it then repeats exactly.
        (
            "sprint-core.model_err_p50",
            s.last.get(MODEL_ERR).copied().unwrap_or(0.0),
            "frac",
        ),
        ("policy.search_ms", ms(SEARCH), "ms"),
        (
            "policy.candidates",
            ratio(total(CANDIDATES), calls(SEARCH)),
            "count",
        ),
        ("sprint-core.predict_us", s.mean_ns(PREDICT) / 1e3, "us"),
        (
            "sprint-core.memo_hit_frac",
            hit_frac("obs.memo_hits", "obs.memo_misses"),
            "frac",
        ),
        (
            "qsim.traced_pred_us",
            ratio(total_ms(PREDICT) * 1e3, sim_evals),
            "us",
        ),
        (
            "qsim.trace_hit_frac",
            hit_frac("obs.trace_cache_hits", "obs.trace_cache_misses"),
            "frac",
        ),
        ("forest.infer_ns", s.mean_ns(INFER), "ns"),
        ("fleet.run_ms", ms(FLEET_RUN), "ms"),
        (
            "reactor.journal_entries",
            per_fleet(JOURNAL_ENTRIES),
            "count",
        ),
        (
            "reactor.entries_per_s",
            ratio(per_fleet(JOURNAL_ENTRIES), journaled_ns / 1e9),
            "1/s",
        ),
        ("obs.journal_overhead_frac", journal_overhead, "frac"),
        ("obs.journal_diff_ms", ms(JOURNAL_DIFF), "ms"),
        ("fleet.lease_grants", per_fleet(LEASE_GRANTS), "count"),
        ("fleet.elections", per_fleet(ELECTIONS), "count"),
        ("fleet.lease_expiries", per_fleet(LEASE_EXPIRIES), "count"),
        ("faults.injected", per_fleet(FAULTS_INJECTED), "count"),
        ("scenario.parse_ms", setup_ms(PARSE), "ms"),
        ("scenario.execute_ms.single-node", ms(EXECUTE[0]), "ms"),
        ("scenario.execute_ms.fleet", ms(EXECUTE[1]), "ms"),
        ("scenario.execute_ms.cloning", ms(EXECUTE[2]), "ms"),
        (
            "scenario.invariants_ms.single-node",
            ms(INVARIANTS[0]),
            "ms",
        ),
        ("scenario.invariants_ms.fleet", ms(INVARIANTS[1]), "ms"),
        ("scenario.invariants_ms.cloning", ms(INVARIANTS[2]), "ms"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric { name, value, unit })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::json::Json;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under
    /// `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        doc.field(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.field(k).unwrap().as_str().unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_declaration() {
        let mut printed: Vec<(String, String)> = metrics(&Summary::default())
            .into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        printed.push(("bench.trace_overhead_frac".into(), "frac".into()));
        assert_eq!(printed, declared("per_layer"));
        let names: Vec<&str> = printed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, PER_LAYER);
        let e2e: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, END_TO_END);
    }

    #[test]
    fn an_empty_trace_reads_zero_everywhere() {
        assert!(metrics(&Summary::default()).iter().all(|m| m.value == 0.0));
    }
}
