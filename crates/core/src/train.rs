//! Training pipelines: profiling campaign → response-time models.

use crate::calibrate::{effective_sprint_rate, CalibrationOptions};
use crate::model::{AnnModel, HybridModel, NoMlModel, SimOptions};
use ann::{AnnConfig, Mlp};
use forest::{ForestConfig, RandomForest};
use mlcore::Dataset;
use profiler::features::MU_M_FEATURE;
use profiler::{ProfileData, FEATURE_NAMES};
use simcore::{par, SprintError};

/// Options shared by the training pipelines.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Calibration settings for effective-sprint-rate extraction.
    pub calibration: CalibrationOptions,
    /// Forest hyper-parameters.
    pub forest: ForestConfig,
    /// ANN hyper-parameters.
    pub ann: AnnConfig,
    /// Simulation settings embedded in the trained models.
    pub sim: SimOptions,
    /// Worker threads for calibration.
    pub threads: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            calibration: CalibrationOptions::default(),
            forest: ForestConfig::default(),
            ann: AnnConfig::default(),
            sim: SimOptions::default(),
            threads: 8,
        }
    }
}

/// Trains the paper's hybrid model: calibrate µe for every profiling
/// run (in parallel, on `opts.threads` workers), then fit the random
/// forest over the calibrated rates.
///
/// # Errors
///
/// Returns [`SprintError::InvalidConfig`] if the campaign has no runs
/// or `opts.threads` is zero, and [`SprintError::WorkerPanic`] if a
/// calibration panicked (naming the run by its index).
pub fn train_hybrid(data: &ProfileData, opts: &TrainOptions) -> Result<HybridModel, SprintError> {
    if data.runs.is_empty() {
        return Err(SprintError::invalid(
            "ProfileData::runs",
            "no profiling runs to train on",
        ));
    }
    SprintError::require_nonzero("TrainOptions::threads", opts.threads)?;
    let rates = par::map(data.runs.iter().collect(), opts.threads, |run| {
        effective_sprint_rate(&data.profile, run, &opts.calibration)
            .0
            .qph()
    });
    let mut train = Dataset::new(FEATURE_NAMES.to_vec());
    for (run, rate) in data.runs.iter().zip(rates) {
        train.push(
            run.condition.features(data.profile.mu, data.profile.mu_m),
            rate?,
        );
    }
    let forest = RandomForest::train(&train, MU_M_FEATURE, opts.forest);
    Ok(HybridModel::new(data.profile.clone(), forest, opts.sim))
}

/// Trains the ANN baseline: conditions map directly to observed
/// response time. Three independently seeded networks are averaged.
///
/// # Errors
///
/// Returns [`SprintError::InvalidConfig`] if the campaign has no runs
/// or `opts.ann` has zero epochs or a zero batch size.
pub fn train_ann(data: &ProfileData, opts: &TrainOptions) -> Result<AnnModel, SprintError> {
    if data.runs.is_empty() {
        return Err(SprintError::invalid(
            "ProfileData::runs",
            "no profiling runs to train on",
        ));
    }
    let mut train = Dataset::new(FEATURE_NAMES.to_vec());
    for run in &data.runs {
        // Regress ln(RT): response times span orders of magnitude
        // across utilizations, and raw-space MSE would let heavy-load
        // examples dominate.
        train.push(
            run.condition.features(data.profile.mu, data.profile.mu_m),
            run.observed_response_secs.max(1e-6).ln(),
        );
    }
    let ensemble = (0..3)
        .map(|i| {
            let mut cfg = opts.ann.clone();
            cfg.seed = cfg.seed.wrapping_add(i * 0x9E37);
            Mlp::train(&train, &cfg)
        })
        .collect::<Result<_, _>>()?;
    Ok(AnnModel::new(data.profile.clone(), ensemble, true))
}

/// Builds the No-ML baseline (no training required).
pub fn no_ml(data: &ProfileData, opts: &TrainOptions) -> NoMlModel {
    NoMlModel::new(data.profile.clone(), opts.sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ResponseTimeModel;
    use mechanisms::Dvfs;
    use profiler::{Condition, Profiler};
    use simcore::dist::DistKind;
    use workloads::{QueryMix, WorkloadKind};

    fn small_campaign() -> ProfileData {
        let mech = Dvfs::new();
        let mix = QueryMix::single(WorkloadKind::Jacobi);
        let profiler = Profiler {
            queries_per_run: 200,
            warmup: 20,
            replays: 1,
            threads: 4,
            seed: 7,
        };
        let conditions: Vec<Condition> = [0.4, 0.6, 0.8]
            .iter()
            .flat_map(|&u| {
                [60.0, 120.0].iter().map(move |&t| Condition {
                    utilization: u,
                    arrival_kind: DistKind::Exponential,
                    timeout_secs: t,
                    budget_frac: 0.4,
                    refill_secs: 200.0,
                })
            })
            .collect();
        profiler.profile(&mix, &mech, &conditions)
    }

    #[test]
    fn hybrid_training_produces_sane_model() {
        let data = small_campaign();
        let mut opts = TrainOptions::default();
        opts.calibration.max_steps = 25;
        opts.calibration.sim.sim_queries = 800;
        let model = train_hybrid(&data, &opts).unwrap();
        // The effective rate must sit between µ and a bit above µm.
        for run in &data.runs {
            let mu_e = model.effective_rate_qph(&run.condition);
            assert!(mu_e >= data.profile.mu.qph() - 1e-9);
            assert!(mu_e <= data.profile.mu_m.qph() * 1.5 + 1e-9);
        }
        // Predictions should be in the right ballpark of observations.
        let run = &data.runs[0];
        let pred = model.predict_response_secs(&run.condition);
        let err = (pred - run.observed_response_secs).abs() / run.observed_response_secs;
        assert!(err < 0.5, "hybrid error {err} on training condition");
    }

    #[test]
    fn a_panicking_calibration_is_a_typed_error() {
        // With no service samples the simulator's empirical service
        // distribution is empty, and sampling it panics mid-calibration.
        let mut data = small_campaign();
        data.profile.service_samples_secs.clear();
        let mut opts = TrainOptions::default();
        opts.calibration.max_steps = 2;
        match train_hybrid(&data, &opts) {
            Err(SprintError::WorkerPanic { index, message }) => {
                assert_eq!(index, 0, "the first run by input order: {message}");
            }
            Err(other) => panic!("expected WorkerPanic, got {other}"),
            Ok(_) => panic!("expected WorkerPanic, training succeeded"),
        }
    }

    #[test]
    fn ann_training_fits_training_set_roughly() {
        let data = small_campaign();
        let mut opts = TrainOptions::default();
        opts.ann.epochs = 200;
        let model = train_ann(&data, &opts).unwrap();
        let run = &data.runs[2];
        let pred = model.predict_response_secs(&run.condition);
        let err = (pred - run.observed_response_secs).abs() / run.observed_response_secs;
        assert!(err < 0.6, "ann error {err} on training condition");
    }

    #[test]
    fn ann_training_rejects_degenerate_configs() {
        let data = small_campaign();
        for (what, epochs, batch_size) in [
            ("AnnConfig::epochs", 0, 32),
            ("AnnConfig::batch_size", 1, 0),
        ] {
            let mut opts = TrainOptions::default();
            opts.ann.epochs = epochs;
            opts.ann.batch_size = batch_size;
            match train_ann(&data, &opts) {
                Err(SprintError::InvalidConfig { what: got, .. }) => assert_eq!(got, what),
                other => panic!("{what}: trained = {}", other.is_ok()),
            }
        }
    }

    #[test]
    fn no_ml_requires_no_training() {
        let data = small_campaign();
        let m = no_ml(&data, &TrainOptions::default());
        assert_eq!(m.name(), "No-ML");
        assert!(m.predict_response_secs(&data.runs[0].condition) > 0.0);
    }
}
