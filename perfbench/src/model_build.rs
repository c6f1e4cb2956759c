//! `model-build`: the paper's offline phase, as every accuracy figure
//! (Figs. 7–10) runs it.
//!
//! One op makes [`BUILDS`] builds. Each profiles a fixed batch of
//! (mix, mechanism) pairs over `SamplingGrid::paper()` conditions on
//! the testbed, trains the hybrid model on three quarters of each
//! campaign (Eq. 2 calibration, then the forest, seeded from `--seed`)
//! and evaluates it on the held-out quarter. Calibration's
//! live-sampling queue simulations do most of the work. Several builds
//! per op, because the tail op time is set by the ten slowest ops of a
//! run: with one build (~75 ms) or three (~0.25 s) an op, a single slow
//! spell of the host lasting a few seconds held all ten.
//!
//! The campaign itself (condition sample, testbed replays, split) is
//! fixed. Calibration cost per condition is heavy-tailed — its standard
//! deviation is about its mean, and the profiled µm moves every
//! condition's cost at once — so a seeded campaign moved op time by
//! ±20% between seeds, which is input mix, not the code under test.
//!
//! Traced ops run `train_hybrid` as its public steps so each gets a
//! span; the digest check proves they build the identical model.

use bench::eval::{default_train_options, EvalSettings};
use bench::{evaluate_model, split_runs, EvalPoint};
use forest::RandomForest;
use mechanisms::{CpuThrottle, Dvfs, Mechanism};
use mlcore::Dataset;
use profiler::features::MU_M_FEATURE;
use profiler::{Condition, ProfileData, Profiler, SamplingGrid, FEATURE_NAMES};
use sprint_core::{effective_sprint_rate, train_hybrid, HybridModel, TrainOptions};
use workloads::{QueryMix, WorkloadKind};

use crate::harness::{check_threads, par_map, Digest, Workload};
use crate::layers::{
    CALIBRATE, CALIBRATION_EVALS, EVALUATE, FOREST_FIT, MODEL_ERR, PROFILE, TESTBED_QUERIES, TRAIN,
};
use crate::trace::{Ctx, TracedModel};

/// Profiled conditions per (mix, mechanism) pair.
const CONDITIONS: usize = 32;
/// Testbed queries per profiling run (and per simulated window).
const QUERIES_PER_RUN: usize = 400;
/// Share of each campaign used for training; the rest is held out.
const TRAIN_FRAC: f64 = 0.75;
/// Seed of the profiled campaign (the accuracy experiments' default).
const CAMPAIGN_SEED: u64 = 0xE7A1;
/// Builds per op, each with its own forest seed.
const BUILDS: u64 = 6;

/// Inputs and settings of one model-build op.
pub struct ModelBuild {
    pairs: Vec<(QueryMix, Box<dyn Mechanism>)>,
    conditions: Vec<Condition>,
    profiler: Profiler,
    /// Training options of each build.
    builds: Vec<TrainOptions>,
}

/// The campaign shared with `policy-search`'s model set-up: profiler,
/// training options (forest seeded by `forest_seed`) and conditions.
pub fn campaign(
    forest_seed: u64,
    threads: usize,
) -> Result<(Profiler, TrainOptions, Vec<Condition>), String> {
    let settings = EvalSettings {
        conditions: CONDITIONS,
        queries_per_run: QUERIES_PER_RUN,
        replays: 1,
        train_frac: TRAIN_FRAC,
        seed: CAMPAIGN_SEED,
        threads,
    };
    let profiler = Profiler {
        queries_per_run: QUERIES_PER_RUN,
        warmup: QUERIES_PER_RUN / 10,
        replays: 1,
        threads,
        seed: CAMPAIGN_SEED,
    };
    let mut opts = default_train_options(&settings);
    opts.forest.seed = forest_seed;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    check_threads("Profiler::threads", profiler.threads, nproc)?;
    check_threads("TrainOptions::threads", opts.threads, nproc)?;
    check_threads("TrainOptions::sim.threads", opts.sim.threads, nproc)?;
    check_threads(
        "TrainOptions::calibration.sim.threads",
        opts.calibration.sim.threads,
        nproc,
    )?;
    let conditions = SamplingGrid::paper().sample_conditions(CONDITIONS, CAMPAIGN_SEED ^ 0xC0);
    Ok((profiler, opts, conditions))
}

/// The campaign's training and held-out runs.
pub fn split(data: &ProfileData) -> (ProfileData, ProfileData) {
    split_runs(data, TRAIN_FRAC, CAMPAIGN_SEED ^ 0x5917)
}

/// The (mix, mechanism) pairs both model-building workloads profile.
pub fn pairs() -> Vec<(QueryMix, Box<dyn Mechanism>)> {
    vec![
        (
            QueryMix::single(WorkloadKind::Jacobi),
            Box::new(Dvfs::new()),
        ),
        (
            QueryMix::single(WorkloadKind::Jacobi),
            Box::new(CpuThrottle::new(0.2)),
        ),
    ]
}

/// Profiles one pair; the span carries the testbed query count.
pub fn profile(
    profiler: &Profiler,
    mix: &QueryMix,
    mech: &dyn Mechanism,
    conditions: &[Condition],
    ctx: Ctx<'_>,
) -> ProfileData {
    // Two rate-measurement runs plus one replay per condition.
    let runs = 2 + conditions.len() * profiler.replays.max(1);
    ctx.count(TESTBED_QUERIES, (runs * profiler.queries_per_run) as f64);
    ctx.span(PROFILE, |_| profiler.profile(mix, mech, conditions))
}

/// `train_hybrid`'s steps as separate public calls: calibrate every
/// run on `opts.threads` workers, then fit the forest.
fn train_traced(data: &ProfileData, opts: &TrainOptions, ctx: Ctx<'_>) -> HybridModel {
    ctx.span(TRAIN, |ctx| {
        let evals = obs::global().sim_evals.get();
        let rates = par_map(&data.runs, opts.threads, |run| {
            let (rate, _) = ctx.span(CALIBRATE, |_| {
                effective_sprint_rate(&data.profile, run, &opts.calibration)
            });
            rate.qph()
        });
        ctx.count(
            CALIBRATION_EVALS,
            (obs::global().sim_evals.get() - evals) as f64,
        );
        let mut train = Dataset::new(FEATURE_NAMES.to_vec());
        for (run, mu_e) in data.runs.iter().zip(rates) {
            train.push(
                run.condition.features(data.profile.mu, data.profile.mu_m),
                mu_e,
            );
        }
        let forest = ctx.span(FOREST_FIT, |_| {
            RandomForest::train(&train, MU_M_FEATURE, opts.forest)
        });
        HybridModel::new(data.profile.clone(), forest, opts.sim)
    })
}

/// Trains the hybrid model on `train`, through `train_hybrid` or, when
/// traced, its steps. The model gets private caches.
pub fn train(data: &ProfileData, opts: &TrainOptions, ctx: Ctx<'_>) -> Result<HybridModel, String> {
    let model = if ctx.on() {
        train_traced(data, opts, ctx)
    } else {
        train_hybrid(data, opts).map_err(|e| e.to_string())?
    };
    Ok(model.with_private_caches())
}

/// Evaluates on held-out runs; every prediction must be finite and
/// positive.
fn evaluate(
    model: &HybridModel,
    test: &ProfileData,
    ctx: Ctx<'_>,
) -> Result<Vec<EvalPoint>, String> {
    let points = ctx.span(EVALUATE, |ctx| {
        ctx.count_obs(|| {
            if ctx.on() {
                evaluate_model(&TracedModel::new(model, ctx), test)
            } else {
                evaluate_model(model, test)
            }
        })
    });
    match points
        .iter()
        .find(|p| !(p.predicted.is_finite() && p.predicted > 0.0))
    {
        Some(p) => Err(format!(
            "prediction {} for {:?}",
            p.predicted, p.run.condition
        )),
        None => Ok(points),
    }
}

impl Workload for ModelBuild {
    fn setup(seed: u64, threads: usize, _: Ctx<'_>) -> Result<Self, String> {
        let (profiler, opts, conditions) = campaign(seed, threads)?;
        let builds = (0..BUILDS)
            .map(|i| {
                let mut o = opts.clone();
                o.forest.seed = seed.wrapping_mul(BUILDS).wrapping_add(i);
                o
            })
            .collect();
        Ok(ModelBuild {
            pairs: pairs(),
            conditions,
            profiler,
            builds,
        })
    }

    fn op(&self, ctx: Ctx<'_>) -> Result<Digest, String> {
        let mut digest = Digest::default();
        let mut points = Vec::new();
        for opts in &self.builds {
            for (mix, mech) in &self.pairs {
                let data = profile(&self.profiler, mix, mech.as_ref(), &self.conditions, ctx);
                let (train_set, test) = split(&data);
                let model = train(&train_set, opts, ctx)?;
                for p in evaluate(&model, &test, ctx)? {
                    digest.f64(p.predicted);
                    points.push(p);
                }
            }
        }
        let err = bench::stats::median_error(&points).map_err(|e| e.to_string())?;
        ctx.count(MODEL_ERR, err);
        digest.f64(err);
        Ok(digest)
    }
}
