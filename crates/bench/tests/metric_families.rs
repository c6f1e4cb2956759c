//! Dead-hook gate for the metrics registry: a workload that drives
//! every registered metric family must leave each one present in the
//! snapshot and fired. A family that never fires means an
//! instrumentation hook went dead (or the workload stopped reaching
//! it).
//!
//! This test has its own integration binary because the registry is
//! process-global: a test running beside it could reset or disable it
//! midway.

use bench::figs::perf::{cond, profile};
use forest::{ForestConfig, RandomForest};
use mlcore::Dataset;
use obs::{MetricsSnapshot, FAMILY_NAMES};
use policy::{explore_timeout, AnnealingConfig};
use qsim::TraceCache;
use sprint_core::{NoMlModel, ResponseTimeModel, SimOptions};

/// Drives every registered metric family at least once: an annealing
/// search, a guaranteed memo hit, a guaranteed trace-cache hit, forest
/// inference, and a faulted fleet run.
fn prediction_workload() {
    let p = profile();
    let c = cond();

    // Annealing search through a simulator-backed model: anneal_*,
    // sim_evals, memo_misses, trace_cache_misses.
    let model = NoMlModel::new(p.clone(), SimOptions::default());
    explore_timeout(&model, &c, &AnnealingConfig::default()).expect("annealing search");

    // A repeated prediction is a guaranteed memo hit.
    let first = model.predict_response_secs(&c);
    let again = model.predict_response_secs(&c);
    assert_eq!(first.to_bits(), again.to_bits(), "memo must be transparent");

    // A repeated cached simulation is a guaranteed trace-cache hit.
    let opts = SimOptions::default();
    let cache = TraceCache::new();
    let one = opts.simulate(&p, &c, 1.2, &cache);
    let two = opts.simulate(&p, &c, 1.2, &cache);
    assert_eq!(one.to_bits(), two.to_bits(), "CRN replay must be stable");

    // Forest inference timings.
    let mut data = Dataset::new(vec!["mu_m", "lambda", "budget"]);
    for i in 0..200 {
        let x = (i % 40) as f64;
        data.push(
            vec![x, ((i * 7) % 10) as f64, ((i * 13) % 5) as f64],
            0.9 * x + 1.0,
        );
    }
    let forest = RandomForest::train(&data, 0, ForestConfig::default());
    for i in 0..50 {
        forest.predict(&[(i % 40) as f64, (i % 10) as f64, (i % 5) as f64]);
    }

    // Faulted fleet run: a partition strands three nodes away from
    // both coordinators, so leases are granted, renewed on the healthy
    // side and lapsed on the stranded one — firing sprints_engaged,
    // lease_renewals and lease_expiries.
    let mut spec = fleet::FleetSpec::small(47, 4).expect("fleet spec");
    spec.queries_total = 24;
    spec.faults.partitions.push(fleet::FleetPartition {
        coords_a: vec![0, 1],
        nodes_a_lo: 0,
        nodes_a_hi: 0,
        start_secs: 70.0,
        duration_secs: 200.0,
    });
    fleet::run_fleet(&spec).expect("fleet run");
}

/// The registered families missing from `snap`, and the families that
/// never fired.
fn completeness(snap: &MetricsSnapshot) -> (Vec<&'static str>, Vec<&'static str>) {
    let names = snap.family_names();
    let missing = FAMILY_NAMES
        .iter()
        .filter(|f| !names.contains(f))
        .copied()
        .collect();
    let silent = snap
        .counters
        .iter()
        .filter(|c| c.value == 0)
        .map(|c| c.name)
        .chain(
            snap.histograms
                .iter()
                .filter(|h| h.count == 0)
                .map(|h| h.name),
        )
        .collect();
    (missing, silent)
}

#[test]
fn every_metric_family_is_present_and_fires() {
    obs::set_enabled(true);
    obs::global().reset();
    prediction_workload();
    let snap = obs::global().snapshot();
    obs::set_enabled(false);
    let (missing, silent) = completeness(&snap);
    assert!(
        missing.is_empty() && silent.is_empty(),
        "missing families {missing:?}, silent families {silent:?}\n{}",
        snap.render_table()
    );
    assert_eq!(snap.family_names().len(), FAMILY_NAMES.len());
}
