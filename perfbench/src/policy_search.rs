//! `policy-search`: the paper's online phase (§4.2).
//!
//! Set-up profiles and trains one hybrid model per (mix, mechanism)
//! pair as a `model-build` op does. One op is a fixed batch of cold
//! simulated-annealing timeout searches over seeded base conditions
//! that vary utilization, budget, refill and arrival kind, run on the
//! run's worker threads. Each search gets its own copy of the model
//! with private caches, so no op is served from an earlier op's memo or
//! CRN traces; CRN trace replay in `qsim` does almost all the work.

use policy::{explore_timeout, AnnealingConfig, AnnealingResult};
use profiler::{Condition, SamplingGrid};
use simcore::dist::DistKind;
use simcore::rng::SimRng;
use sprint_core::{HybridModel, ResponseTimeModel, SimOptions};

use crate::harness::{par_map, Digest, Workload};
use crate::layers::{CANDIDATES, SEARCH};
use crate::model_build::{campaign, pairs, profile, split, train};
use crate::trace::{Ctx, TracedModel};

/// Searches per op: twelve utilization bins × four arrival kinds. With
/// sixteen (~0.14 s an op on two workers) one of the host's slow spells
/// of a few seconds held the ten slowest ops of a run, which set its
/// tail.
const SEARCHES: usize = 48;
/// Arrival kinds the searches cycle through.
const ARRIVALS: [DistKind; 4] = [
    DistKind::Exponential,
    DistKind::Hyperexponential { cov: 2.0 },
    DistKind::Lognormal { cov: 1.5 },
    DistKind::Pareto { alpha: 2.5 },
];

/// Models and the batch of searches one op runs, and the workers it
/// runs them on.
pub struct PolicySearch {
    models: Vec<HybridModel>,
    /// `(model index, base condition, annealing settings)`.
    searches: Vec<(usize, Condition, AnnealingConfig)>,
    threads: usize,
}

/// Seeded base conditions on a balanced design, so that every seed
/// loads the simulator alike: each (utilization bin of 0.3–0.95,
/// arrival kind) cell once, both models in every bin, budgets and
/// refills cycled through the paper's centroids from a seeded offset.
/// The seed jitters utilization within its bin, picks the offsets and
/// seeds each search.
fn batch(seed: u64, models: usize) -> Vec<(usize, Condition, AnnealingConfig)> {
    let grid = SamplingGrid::paper();
    let mut rng = SimRng::new(seed ^ 0x5EA4C4);
    let (budget0, refill0) = (
        rng.index(grid.budget_fracs.len()),
        rng.index(grid.refills_secs.len()),
    );
    let kinds = ARRIVALS.len();
    (0..SEARCHES)
        .map(|i| {
            let bin = (i / kinds) as f64 + rng.uniform(0.0, 1.0);
            let base = Condition {
                utilization: 0.3 + 0.65 * bin / (SEARCHES / kinds) as f64,
                arrival_kind: ARRIVALS[i % kinds],
                timeout_secs: 0.0,
                budget_frac: grid.budget_fracs[(budget0 + 3 * i) % grid.budget_fracs.len()],
                refill_secs: grid.refills_secs[(refill0 + i) % grid.refills_secs.len()],
            };
            let cfg = AnnealingConfig {
                seed: rng.next_u64(),
                ..AnnealingConfig::default()
            };
            ((i + i / kinds) % models, base, cfg)
        })
        .collect()
}

fn digest_search(d: &mut Digest, r: &AnnealingResult) -> Result<(), String> {
    if !(r.best_response_secs.is_finite() && r.best_response_secs > 0.0) {
        return Err(format!("best response {}", r.best_response_secs));
    }
    d.f64(r.best_timeout_secs);
    d.f64(r.best_response_secs);
    for &(t, rt) in &r.trace {
        d.f64(t);
        d.f64(rt);
    }
    Ok(())
}

impl PolicySearch {
    fn search(&self, i: usize, ctx: Ctx<'_>) -> Result<AnnealingResult, String> {
        let (m, base, cfg) = &self.searches[i];
        let model = self.models[*m].clone().with_private_caches();
        let r = ctx.span(SEARCH, |ctx| {
            if ctx.on() {
                explore_timeout(&TracedModel::new(&model, ctx), base, cfg)
            } else {
                explore_timeout(&model, base, cfg)
            }
        });
        let r = r.map_err(|e| e.to_string())?;
        ctx.count(CANDIDATES, r.trace.len() as f64);
        Ok(r)
    }
}

impl Workload for PolicySearch {
    fn setup(seed: u64, threads: usize, _: Ctx<'_>) -> Result<Self, String> {
        let (profiler, opts, conditions) = campaign(seed, threads)?;
        let mut models = Vec::new();
        for (mix, mech) in pairs() {
            let data = profile(&profiler, &mix, mech.as_ref(), &conditions, Ctx::off());
            models.push(train(&split(&data).0, &opts, Ctx::off())?);
        }
        let w = PolicySearch {
            searches: batch(seed, models.len()),
            models,
            threads,
        };
        // The frozen reference backend must find the identical search.
        let fast = w.search(0, Ctx::off())?;
        let m = &w.models[w.searches[0].0];
        let reference = HybridModel::new(
            m.profile().clone(),
            m.forest().clone(),
            SimOptions {
                fast_path: false,
                ..opts.sim
            },
        );
        let (_, base, cfg) = &w.searches[0];
        let slow = explore_timeout(&reference, base, cfg).map_err(|e| e.to_string())?;
        let (mut a, mut b) = (Digest::default(), Digest::default());
        digest_search(&mut a, &fast)?;
        digest_search(&mut b, &slow)?;
        if a != b {
            return Err("reference backend search differs from the fast path".into());
        }
        Ok(w)
    }

    fn op(&self, ctx: Ctx<'_>) -> Result<Digest, String> {
        let indices: Vec<usize> = (0..self.searches.len()).collect();
        // Around the whole batch: the searches run side by side, and the
        // obs counters are process-wide.
        let results = ctx.count_obs(|| par_map(&indices, self.threads, |&i| self.search(i, ctx)));
        let mut d = Digest::default();
        for r in results {
            digest_search(&mut d, &r?)?;
        }
        Ok(d)
    }
}
