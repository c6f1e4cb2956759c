//! Figure 12: model-driven timeout/budget exploration for cloud
//! workloads under CPU throttling (§4.3) — annealed model-driven
//! policies vs Few-to-Many and Adrenaline, plus the budget/timeout
//! trade-off panel.

use crate::eval::{default_train_options, EvalSettings};
use mechanisms::{CpuThrottle, Mechanism};
use policy::{adrenaline_timeout, explore_timeout, few_to_many_timeout, AnnealingConfig};
use profiler::{Condition, ProfileData, SamplingGrid};
use simcore::dist::DistKind;
use simcore::time::Rate;
use simcore::SprintError;
use sprint_core::{train_hybrid, HybridModel, ResponseTimeModel, SimOptions};
use testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig, SprintPolicy};
use workloads::{QueryMix, WorkloadKind};

/// Throttling grid: long refills and small budget fractions match the
/// burstable-instance regime of §4.
pub fn throttle_grid() -> SamplingGrid {
    SamplingGrid {
        utilizations: vec![0.50, 0.65, 0.80, 0.95],
        timeouts_secs: vec![0.0, 30.0, 60.0, 100.0, 150.0, 220.0, 300.0],
        refills_secs: vec![1_800.0, 3_600.0],
        budget_fracs: vec![0.05, 0.10, 0.20, 0.30],
        arrival_kinds: vec![DistKind::Exponential],
    }
}

/// One (mix, throttle mechanism, budget) scenario of Fig. 12 A/B.
pub struct Setup {
    /// Display label ("big-burst" / "small-burst").
    pub label: &'static str,
    /// Workload composition.
    pub mix: QueryMix,
    /// The throttling mechanism.
    pub mech: CpuThrottle,
    /// Budget capacity in sprint-seconds.
    pub budget_secs: f64,
}

impl Setup {
    /// The §4.3 big-burst Jacobi setup (5X sprint, ~5 full sprints).
    pub fn big_burst_jacobi() -> Setup {
        Setup {
            label: "big-burst",
            mix: QueryMix::single(WorkloadKind::Jacobi),
            mech: CpuThrottle::new(0.2),
            budget_secs: 243.0,
        }
    }

    /// The §4.3 small-burst Jacobi setup (3X sprint at 44 qph).
    pub fn small_burst_jacobi() -> Setup {
        Setup {
            label: "small-burst",
            mix: QueryMix::single(WorkloadKind::Jacobi),
            mech: CpuThrottle::with_sprint_multiplier(0.2, 44.0 / 14.8),
            budget_secs: 818.0,
        }
    }

    /// The Mix I big-burst setup (panel B).
    pub fn big_burst_mix_i() -> Setup {
        Setup {
            label: "big-burst",
            mix: QueryMix::mix_i(),
            mech: CpuThrottle::new(0.2),
            budget_secs: 243.0,
        }
    }

    /// The Mix I small-burst setup (panel B).
    pub fn small_burst_mix_i() -> Setup {
        Setup {
            label: "small-burst",
            mix: QueryMix::mix_i(),
            mech: CpuThrottle::with_sprint_multiplier(0.2, 3.0),
            budget_secs: 818.0,
        }
    }
}

/// A burstable-instance operating point with a given sprint budget.
pub fn base_condition(utilization: f64, budget_secs: f64) -> Condition {
    Condition {
        utilization,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 0.0,
        budget_frac: budget_secs / 3_600.0,
        refill_secs: 3_600.0,
    }
}

/// Trains a hybrid model for one (mix, throttle) setup.
///
/// # Errors
///
/// Propagates profiling or training failures.
pub fn train_model(
    setup: &Setup,
    settings: &EvalSettings,
) -> Result<(HybridModel, ProfileData), SprintError> {
    let data = crate::profile_single(&setup.mix, &setup.mech, &throttle_grid(), settings);
    let opts = default_train_options(settings);
    Ok((train_hybrid(&data, &opts)?, data))
}

/// Ground-truth response time on the testbed for a condition,
/// averaged over three independent replays.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn observe(setup: &Setup, cond: &Condition, mu: Rate, seed: u64) -> Result<f64, SprintError> {
    let mut total = 0.0;
    for r in 0..3u64 {
        let cfg = ServerConfig {
            mix: setup.mix.clone(),
            arrivals: ArrivalSpec::poisson(mu.scale(cond.utilization)),
            policy: SprintPolicy::new(
                cond.timeout(),
                BudgetSpec::FractionOfRefill(cond.budget_frac),
                cond.refill(),
            ),
            slots: 1,
            num_queries: 400,
            warmup: 40,
            seed: seed.wrapping_add(r * 0x9E37),
        };
        total += Server::new(cfg, &setup.mech)?.run()?.mean_response_secs();
    }
    Ok(total / 3.0)
}

/// One point of the predicted-vs-observed timeout sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The swept timeout (seconds).
    pub timeout_secs: f64,
    /// Model-predicted mean response (seconds).
    pub predicted_secs: f64,
    /// Testbed-observed mean response (seconds).
    pub observed_secs: f64,
}

/// One competing policy, evaluated on the testbed.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy name.
    pub name: &'static str,
    /// The timeout the policy chose (seconds).
    pub timeout_secs: f64,
    /// Testbed-observed mean response at that timeout (seconds).
    pub observed_secs: f64,
}

/// A timeout-exploration panel (one Fig. 12 A/B scenario).
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// Scenario label.
    pub label: &'static str,
    /// Sprint rate the mechanism provides for Jacobi (qph).
    pub sprint_qph: f64,
    /// Budget capacity (sprint-seconds).
    pub budget_secs: f64,
    /// The predicted-vs-observed timeout sweep.
    pub sweep: Vec<SweepPoint>,
    /// Competing policies: burst, model-driven, few-to-many,
    /// adrenaline (in that order).
    pub policies: Vec<PolicyRow>,
}

impl ExplorationResult {
    /// A named policy row.
    pub fn policy(&self, name: &str) -> Option<&PolicyRow> {
        self.policies.iter().find(|p| p.name == name)
    }

    /// A named policy's observed response over the model-driven one's
    /// (the paper's headline speedups).
    pub fn ratio_over_model(&self, name: &str) -> Option<f64> {
        let md = self.policy("model-driven (annealed)")?;
        Some(self.policy(name)?.observed_secs / md.observed_secs)
    }
}

/// Explores timeouts for one setup: the predicted/observed sweep plus
/// the annealed, Few-to-Many and Adrenaline policies evaluated on the
/// ground-truth testbed.
///
/// # Errors
///
/// Propagates profiling, training, exploration or testbed failures.
pub fn panel_timeout_exploration(
    setup: &Setup,
    settings: &EvalSettings,
    utilization: f64,
) -> Result<ExplorationResult, SprintError> {
    let (model, data) = train_model(setup, settings)?;
    let base = base_condition(utilization, setup.budget_secs);

    let mut sweep = Vec::new();
    for t in [0.0, 40.0, 80.0, 120.0, 160.0, 200.0, 260.0, 320.0] {
        let mut c = base;
        c.timeout_secs = t;
        sweep.push(SweepPoint {
            timeout_secs: t,
            predicted_secs: model.predict_response_secs(&c),
            observed_secs: observe(setup, &c, data.profile.mu, settings.seed ^ 0xD0)?,
        });
    }

    let sim = SimOptions::default();
    let annealed = explore_timeout(
        &model,
        &base,
        &AnnealingConfig {
            iterations: 120,
            bounds_secs: (0.0, 350.0),
            seed: settings.seed ^ 0xA11,
            ..AnnealingConfig::default()
        },
    )?;
    let ftm = few_to_many_timeout(&data.profile, &base, &sim, (0.0, 2_000.0), 25.0)?;
    let adr = adrenaline_timeout(&data.profile, &base, &sim)?;

    let mut policies = Vec::new();
    let eval_policy = |name: &'static str, t: f64| -> Result<PolicyRow, SprintError> {
        let mut c = base;
        c.timeout_secs = t;
        Ok(PolicyRow {
            name,
            timeout_secs: t,
            observed_secs: observe(setup, &c, data.profile.mu, settings.seed ^ 0xD0)?,
        })
    };
    policies.push(eval_policy("burst (timeout 0)", 0.0)?);
    policies.push(eval_policy(
        "model-driven (annealed)",
        annealed.best_timeout_secs,
    )?);
    policies.push(eval_policy("few-to-many", ftm)?);
    policies.push(eval_policy("adrenaline", adr.min(2_000.0))?);

    Ok(ExplorationResult {
        label: setup.label,
        sprint_qph: setup.mech.marginal_rate(WorkloadKind::Jacobi).qph(),
        budget_secs: setup.budget_secs,
        sweep,
        policies,
    })
}

/// One Panel C row: a budget fraction and the predicted response at
/// each fixed timeout.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Budget as a fraction of the hour.
    pub budget_frac: f64,
    /// Predicted response (seconds) per timeout in
    /// [`PanelCResult::timeouts_secs`].
    pub predicted_secs: Vec<f64>,
}

/// Panel C: predicted response time vs budget at fixed timeouts.
#[derive(Debug, Clone)]
pub struct PanelCResult {
    /// The fixed timeouts (columns).
    pub timeouts_secs: Vec<f64>,
    /// One row per budget fraction, smallest budget first.
    pub rows: Vec<BudgetRow>,
}

impl PanelCResult {
    /// Predicted response at (budget fraction, timeout), if present.
    pub fn predicted_at(&self, budget_frac: f64, timeout_secs: f64) -> Option<f64> {
        let col = self.timeouts_secs.iter().position(|&t| t == timeout_secs)?;
        self.rows
            .iter()
            .find(|r| (r.budget_frac - budget_frac).abs() < 1e-9)
            .map(|r| r.predicted_secs[col])
    }
}

/// Computes Panel C with the big-burst Jacobi model at 80% load.
///
/// # Errors
///
/// Propagates profiling or training failures.
pub fn panel_c(settings: &EvalSettings) -> Result<PanelCResult, SprintError> {
    let setup = Setup::big_burst_jacobi();
    let (model, _) = train_model(&setup, settings)?;
    let timeouts = vec![50.0, 80.0, 130.0];
    let mut rows = Vec::new();
    for frac in [0.03, 0.05, 0.08, 0.12, 0.18, 0.25] {
        let predicted = timeouts
            .iter()
            .map(|&t| {
                let mut c = base_condition(0.8, frac * 3_600.0);
                c.timeout_secs = t;
                model.predict_response_secs(&c)
            })
            .collect();
        rows.push(BudgetRow {
            budget_frac: frac,
            predicted_secs: predicted,
        });
    }
    Ok(PanelCResult {
        timeouts_secs: timeouts,
        rows,
    })
}
