//! Response-time models (Table 1A) and the simulator bridge.

use ann::Mlp;
use forest::RandomForest;
use profiler::{Condition, WorkloadProfile};
use qsim::{
    predict_mean_response, predict_mean_response_reference, predict_mean_response_traced,
    AtomicTable, QsimConfig, TraceCache,
};
use simcore::dist::{Dist, DistKind};
use simcore::time::SimDuration;
use std::sync::{Arc, OnceLock};

/// Queue-simulation settings used when a model predicts response time.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Queries per simulated run; fewer is faster but noisier
    /// (Fig. 11's knee is around 100K for tight variance; a few
    /// thousand suffices for mean-response prediction).
    pub sim_queries: usize,
    /// Leading queries excluded from statistics.
    pub warmup: usize,
    /// Replicated runs averaged per prediction.
    pub replications: usize,
    /// Worker threads for replications.
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
    /// Use the prediction fast path (persistent pool, direct k = 1
    /// engine, and — through the models' trace caches — common-random-
    /// number trace replay). `false` routes every simulation through
    /// the frozen pre-fast-path reference backend; outputs are
    /// bit-identical either way, only the cost profile changes, so this
    /// exists for benchmarks and oracle tests.
    pub fast_path: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            sim_queries: 2_000,
            warmup: 200,
            replications: 3,
            threads: 1,
            seed: 0x51B,
            fast_path: true,
        }
    }
}

impl SimOptions {
    /// Builds the simulator configuration for a condition with the
    /// given sprint speedup (µx/µ).
    pub fn config(
        &self,
        profile: &WorkloadProfile,
        cond: &Condition,
        sprint_speedup: f64,
    ) -> QsimConfig {
        let service = Dist::empirical(
            profile
                .service_samples_secs
                .iter()
                .map(|&s| SimDuration::from_secs_f64(s))
                .collect(),
        );
        QsimConfig {
            arrival_rate: cond.arrival_rate(profile.mu),
            arrival_kind: cond.arrival_kind,
            service,
            // Effective rates below µ are legal (Eq. 2's correction can
            // be negative); guard only against nonsense.
            sprint_speedup: sprint_speedup.max(0.1),
            timeout: cond.timeout(),
            budget_capacity_secs: cond.budget_capacity_secs(),
            refill_secs: cond.refill_secs,
            slots: 1,
            num_queries: self.sim_queries,
            warmup: self.warmup,
            seed: self.seed,
        }
    }

    /// Simulated mean response time for a condition at the given
    /// sprint speedup. Zero `replications`/`threads` are lifted to one
    /// so a default-ish `SimOptions` never aborts a prediction.
    pub fn simulate(
        &self,
        profile: &WorkloadProfile,
        cond: &Condition,
        sprint_speedup: f64,
    ) -> f64 {
        let cfg = self.config(profile, cond, sprint_speedup);
        let (replications, threads) = (self.replications.max(1), self.threads.max(1));
        obs::global().sim_evals.incr();
        if self.fast_path {
            predict_mean_response(&cfg, replications, threads)
        } else {
            predict_mean_response_reference(&cfg, replications, threads)
        }
        .expect("config derived from a validated profile simulates")
    }

    /// [`SimOptions::simulate`] with a trace cache: replications replay
    /// pre-materialized common-random-number traces, so repeated
    /// predictions over the same arrival/service process (every
    /// candidate timeout of an annealing search, say) skip all
    /// distribution sampling and share identical randomness.
    /// Bit-identical to [`SimOptions::simulate`].
    pub fn simulate_cached(
        &self,
        profile: &WorkloadProfile,
        cond: &Condition,
        sprint_speedup: f64,
        cache: &TraceCache,
    ) -> f64 {
        let cfg = self.config(profile, cond, sprint_speedup);
        let (replications, threads) = (self.replications.max(1), self.threads.max(1));
        obs::global().sim_evals.incr();
        if self.fast_path {
            predict_mean_response_traced(&cfg, replications, threads, cache)
        } else {
            predict_mean_response_reference(&cfg, replications, threads)
        }
        .expect("config derived from a validated profile simulates")
    }
}

/// Everything that determines a simulator-backed prediction: the
/// condition's fields, the sprint speedup fed to the simulator (which,
/// for the hybrid model, is itself a deterministic function of the
/// condition), and a fingerprint of the *model context* — the profile
/// fields and simulation options that [`SimOptions::config`] folds
/// into the simulator configuration. The fingerprint is what makes the
/// memo safely shareable across models and workers: two models agree
/// on a key only if they would compute bit-identical predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    context_fp: u64,
    utilization: u64,
    arrival_kind: (u8, u64),
    timeout: u64,
    budget_frac: u64,
    refill: u64,
    speedup: u64,
}

impl MemoKey {
    fn new(cond: &Condition, speedup: f64, context_fp: u64) -> MemoKey {
        let kind = match cond.arrival_kind {
            DistKind::Exponential => (0, 0),
            DistKind::Pareto { alpha } => (1, alpha.to_bits()),
            DistKind::Deterministic => (2, 0),
            DistKind::Lognormal { cov } => (3, cov.to_bits()),
            DistKind::Hyperexponential { cov } => (4, cov.to_bits()),
        };
        MemoKey {
            context_fp,
            utilization: cond.utilization.to_bits(),
            arrival_kind: kind,
            timeout: cond.timeout_secs.to_bits(),
            budget_frac: cond.budget_frac.to_bits(),
            refill: cond.refill_secs.to_bits(),
            speedup: speedup.to_bits(),
        }
    }
}

/// FNV-1a fold of everything a model feeds the simulator beyond the
/// condition and speedup: the profile fields [`SimOptions::config`]
/// reads (base rate µ, the empirical service table) and the simulation
/// options that shape the result (query count, warmup, replication
/// count, base seed). `threads` and `fast_path` are deliberately
/// excluded — both are bit-invisible by contract (asserted by the
/// backend oracles).
fn context_fingerprint(profile: &WorkloadProfile, sim: &SimOptions) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(profile.mu.qph().to_bits());
    mix(profile.service_samples_secs.len() as u64);
    for &s in &profile.service_samples_secs {
        mix(s.to_bits());
    }
    mix(sim.sim_queries as u64);
    mix(sim.warmup as u64);
    mix(sim.replications as u64);
    mix(sim.seed);
    h
}

/// Slot capacity of the memo table. Inserts beyond capacity are
/// dropped (the caller keeps its computed value), so a pathological
/// workload degrades to re-simulating, never to unbounded growth. An
/// annealing search revisits a few dozen distinct conditions at most.
const MEMO_TABLE_SLOTS: usize = 131_072;

/// Memo of fast-path predictions with a lock-free read path
/// ([`AtomicTable`]): a warm hit is a hash plus a few atomic loads, so
/// the explorer's workers and fleet-scale model evaluations never
/// contend on a mutex.
///
/// Sound because a fast-path prediction is a *pure* function of
/// (model context, condition, speedup): common-random-number traces
/// pin the randomness to the replication seeds, so re-evaluating a
/// condition — e.g. an annealing proposal clamped to the same bound
/// twice — reproduces the identical bits. Returning the memoized value
/// is therefore observationally indistinguishable from re-simulating,
/// just ~3 simulation runs cheaper. The context fingerprint in
/// [`MemoKey`] extends that guarantee across models, so the
/// process-global [`PredictionMemo::shared`] instance is safe.
/// Reference-path (`fast_path = false`) predictions bypass the memo so
/// benchmarks measure real work.
///
/// Clones share storage (`Arc`), mirroring [`TraceCache`].
#[derive(Clone)]
struct PredictionMemo {
    inner: Arc<AtomicTable<MemoKey, f64>>,
}

impl Default for PredictionMemo {
    fn default() -> Self {
        PredictionMemo {
            inner: Arc::new(AtomicTable::new(MEMO_TABLE_SLOTS)),
        }
    }
}

impl PredictionMemo {
    /// The process-global shared memo (see type docs for why sharing
    /// across models is sound).
    fn shared() -> PredictionMemo {
        static SHARED: OnceLock<PredictionMemo> = OnceLock::new();
        SHARED.get_or_init(PredictionMemo::default).clone()
    }

    fn get_or_insert_with(&self, key: MemoKey, compute: impl FnOnce() -> f64) -> f64 {
        if let Some(&v) = self.inner.get(&key) {
            obs::global().memo_hits.incr();
            return v;
        }
        obs::global().memo_misses.incr();
        let v = compute();
        // A racer that computed the same key first published an
        // identical value (purity); either copy is the answer. A full
        // table drops the insert and we return our own computation.
        self.inner.insert(key, v);
        v
    }
}

impl std::fmt::Debug for PredictionMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionMemo")
            .field("len", &self.inner.len())
            .finish()
    }
}

/// A model that maps workload conditions and sprinting policies to
/// expected response time for one profiled (mix, mechanism) pair.
pub trait ResponseTimeModel: Send + Sync {
    /// Short identifier matching Table 1(A).
    fn name(&self) -> &'static str;

    /// Expected mean response time (seconds) under `cond`.
    fn predict_response_secs(&self, cond: &Condition) -> f64;

    /// The profile this model was built from.
    fn profile(&self) -> &WorkloadProfile;
}

/// Table 1(A) *No-ML*: the timeout-aware simulator driven by the
/// profiled marginal sprint rate.
#[derive(Debug, Clone)]
pub struct NoMlModel {
    profile: WorkloadProfile,
    sim: SimOptions,
    traces: TraceCache,
    memo: PredictionMemo,
    context_fp: u64,
}

impl NoMlModel {
    /// Builds the model from a profile. Joins the process-global
    /// shared trace cache and prediction memo (sound: see
    /// [`PredictionMemo`]); use [`NoMlModel::with_private_caches`] to
    /// opt out for cold-path measurement.
    pub fn new(profile: WorkloadProfile, sim: SimOptions) -> NoMlModel {
        let context_fp = context_fingerprint(&profile, &sim);
        NoMlModel {
            profile,
            sim,
            traces: TraceCache::shared(),
            memo: PredictionMemo::shared(),
            context_fp,
        }
    }

    /// Detaches the model from the process-global caches, giving it
    /// fresh private ones. Predictions are bit-identical either way;
    /// only the cost profile changes (benchmarks measuring cold-cache
    /// work use this).
    #[must_use]
    pub fn with_private_caches(mut self) -> NoMlModel {
        self.traces = TraceCache::new();
        self.memo = PredictionMemo::default();
        self
    }
}

impl ResponseTimeModel for NoMlModel {
    fn name(&self) -> &'static str {
        "No-ML"
    }

    fn predict_response_secs(&self, cond: &Condition) -> f64 {
        let speedup = self.profile.marginal_speedup();
        let simulate = || {
            self.sim
                .simulate_cached(&self.profile, cond, speedup, &self.traces)
        };
        if !self.sim.fast_path {
            return simulate();
        }
        self.memo
            .get_or_insert_with(MemoKey::new(cond, speedup, self.context_fp), simulate)
    }

    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }
}

/// Table 1(A) *Hybrid*: random forest → effective sprint rate →
/// timeout-aware simulation. The paper's approach.
#[derive(Debug, Clone)]
pub struct HybridModel {
    profile: WorkloadProfile,
    forest: RandomForest,
    sim: SimOptions,
    traces: TraceCache,
    memo: PredictionMemo,
    context_fp: u64,
}

impl HybridModel {
    /// Builds the model from a profile and a forest trained on
    /// calibrated effective sprint rates (see [`crate::train`]).
    /// Joins the process-global shared trace cache and prediction memo
    /// (sound: the memo key folds in the speedup the forest produces,
    /// so two models sharing a profile but not a forest can never
    /// collide — see [`PredictionMemo`]); use
    /// [`HybridModel::with_private_caches`] to opt out.
    pub fn new(profile: WorkloadProfile, forest: RandomForest, sim: SimOptions) -> HybridModel {
        let context_fp = context_fingerprint(&profile, &sim);
        HybridModel {
            profile,
            forest,
            sim,
            traces: TraceCache::shared(),
            memo: PredictionMemo::shared(),
            context_fp,
        }
    }

    /// Detaches the model from the process-global caches, giving it
    /// fresh private ones. Predictions are bit-identical either way;
    /// only the cost profile changes (benchmarks measuring cold-cache
    /// work use this).
    #[must_use]
    pub fn with_private_caches(mut self) -> HybridModel {
        self.traces = TraceCache::new();
        self.memo = PredictionMemo::default();
        self
    }

    /// Effective sprint rate (qph) inferred for a condition.
    pub fn effective_rate_qph(&self, cond: &Condition) -> f64 {
        let features = cond.features(self.profile.mu, self.profile.mu_m);
        self.forest
            .predict(&features)
            // The effective rate may dip below µ (negative runtime
            // correction) but never wildly outside the physical band.
            .clamp(self.profile.mu.qph() * 0.6, self.profile.mu_m.qph() * 1.5)
    }

    /// The forest the model was built with.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }
}

impl ResponseTimeModel for HybridModel {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    fn predict_response_secs(&self, cond: &Condition) -> f64 {
        let mu_e = self.effective_rate_qph(cond);
        let speedup = mu_e / self.profile.mu.qph();
        let simulate = || {
            self.sim
                .simulate_cached(&self.profile, cond, speedup, &self.traces)
        };
        if !self.sim.fast_path {
            return simulate();
        }
        self.memo
            .get_or_insert_with(MemoKey::new(cond, speedup, self.context_fp), simulate)
    }

    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }
}

/// Table 1(A) *ANN*: a neural network mapping conditions directly to
/// response time, no simulation. A small ensemble (averaged
/// predictions of independently initialized networks) tames the
/// initialization variance that dominates at profiling-sized training
/// sets.
#[derive(Debug, Clone)]
pub struct AnnModel {
    profile: WorkloadProfile,
    ensemble: Vec<Mlp>,
    log_space: bool,
}

impl AnnModel {
    /// Builds the model from a profile and one or more trained MLPs.
    /// `log_space` indicates the networks regress `ln(RT)` — the
    /// treatment response times need because they span orders of
    /// magnitude across utilizations.
    ///
    /// # Panics
    ///
    /// Panics if `ensemble` is empty.
    pub fn new(profile: WorkloadProfile, ensemble: Vec<Mlp>, log_space: bool) -> AnnModel {
        assert!(!ensemble.is_empty(), "ANN ensemble needs a network");
        AnnModel {
            profile,
            ensemble,
            log_space,
        }
    }

    /// Number of networks in the ensemble.
    pub fn ensemble_size(&self) -> usize {
        self.ensemble.len()
    }
}

impl ResponseTimeModel for AnnModel {
    fn name(&self) -> &'static str {
        "ANN"
    }

    fn predict_response_secs(&self, cond: &Condition) -> f64 {
        let features = cond.features(self.profile.mu, self.profile.mu_m);
        let mean = self
            .ensemble
            .iter()
            .map(|m| m.predict(&features))
            .sum::<f64>()
            / self.ensemble.len() as f64;
        let rt = if self.log_space { mean.exp() } else { mean };
        // Response time cannot be faster than a fully sprinted service.
        let floor = 3_600.0 / self.profile.mu_m.qph();
        rt.max(floor)
    }

    fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::DistKind;
    use simcore::time::Rate;
    use workloads::{QueryMix, WorkloadKind};

    fn fake_profile() -> WorkloadProfile {
        WorkloadProfile {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            mechanism: "DVFS".into(),
            mu: Rate::per_hour(50.0),
            mu_m: Rate::per_hour(75.0),
            service_samples_secs: (0..100).map(|i| 60.0 + (i % 21) as f64).collect(),
            profiling_hours: 1.0,
        }
    }

    fn cond(util: f64) -> Condition {
        Condition {
            utilization: util,
            arrival_kind: DistKind::Exponential,
            timeout_secs: 80.0,
            budget_frac: 0.4,
            refill_secs: 200.0,
        }
    }

    #[test]
    fn no_ml_predicts_reasonable_response() {
        let m = NoMlModel::new(fake_profile(), SimOptions::default());
        let rt = m.predict_response_secs(&cond(0.5));
        // Service ~70 s; with sprinting and 50% load the response must
        // be between the sprinted service time and a loaded no-sprint
        // M/G/1 response.
        assert!(rt > 40.0, "rt {rt}");
        assert!(rt < 300.0, "rt {rt}");
    }

    #[test]
    fn higher_utilization_increases_prediction() {
        let m = NoMlModel::new(fake_profile(), SimOptions::default());
        let low = m.predict_response_secs(&cond(0.3));
        let high = m.predict_response_secs(&cond(0.9));
        assert!(high > low, "{high} !> {low}");
    }

    #[test]
    fn sim_options_config_uses_empirical_service() {
        let p = fake_profile();
        let cfg = SimOptions::default().config(&p, &cond(0.5), 1.5);
        assert!(matches!(cfg.service, Dist::Empirical { .. }));
        assert!((cfg.arrival_rate.qph() - 25.0).abs() < 1e-9);
        assert_eq!(cfg.budget_capacity_secs, 80.0);
        assert_eq!(cfg.sprint_speedup, 1.5);
    }

    #[test]
    fn speedup_floor_guards_against_nonsense() {
        let p = fake_profile();
        let cfg = SimOptions::default().config(&p, &cond(0.5), 0.01);
        assert_eq!(cfg.sprint_speedup, 0.1);
        // Sub-unit (negative-correction) speedups pass through.
        let cfg = SimOptions::default().config(&p, &cond(0.5), 0.8);
        assert_eq!(cfg.sprint_speedup, 0.8);
    }

    #[test]
    fn fast_and_reference_paths_are_bit_identical() {
        let p = fake_profile();
        let fast = SimOptions::default();
        let slow = SimOptions {
            fast_path: false,
            ..SimOptions::default()
        };
        let c = cond(0.7);
        let speedup = p.marginal_speedup();
        let cache = TraceCache::new();
        let a = fast.simulate(&p, &c, speedup);
        let b = slow.simulate(&p, &c, speedup);
        let d = fast.simulate_cached(&p, &c, speedup, &cache);
        assert_eq!(a.to_bits(), b.to_bits(), "fast vs reference");
        assert_eq!(a.to_bits(), d.to_bits(), "fast vs traced");
    }

    #[test]
    fn hybrid_effective_rate_clamped() {
        use forest::{ForestConfig, RandomForest};
        use mlcore::Dataset;
        // Train a forest that predicts an absurdly low rate.
        let mut d = Dataset::new(profiler::FEATURE_NAMES.to_vec());
        let p = fake_profile();
        for i in 0..20 {
            let c = cond(0.3 + 0.03 * i as f64);
            d.push(c.features(p.mu, p.mu_m), 1.0); // 1 qph — nonsense.
        }
        let f = RandomForest::train(
            &d,
            profiler::features::MU_M_FEATURE,
            ForestConfig::default(),
        );
        let m = HybridModel::new(p, f, SimOptions::default());
        // Clamp must lift it to at least 0.6 µ.
        assert!(m.effective_rate_qph(&cond(0.5)) >= 0.6 * 50.0);
    }
}
