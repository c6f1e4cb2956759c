//! Figure 13: revenue per node when colocating burstable workloads
//! under {AWS fixed policy, model-driven budgeting, model-driven
//! sprinting}, plus §4.4's tail-latency comparison.

use cloud::colocate::{combo, strategy_commitment};
use cloud::slo::demand_rate;
use cloud::{colocate, BurstablePolicy, SloOptions, Strategy, PRICE_PER_WORKLOAD_HOUR};
use mechanisms::CpuThrottle;
use simcore::time::SimDuration;
use simcore::SprintError;
use testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig, SprintPolicy};
use workloads::{QueryMix, WorkloadKind};

/// One colocation outcome row.
#[derive(Debug, Clone)]
pub struct RevenueRow {
    /// Workload combo (1..=3).
    pub combo: usize,
    /// The admission strategy.
    pub strategy: Strategy,
    /// Workloads hosted under SLO.
    pub hosted: usize,
    /// Workloads offered.
    pub offered: usize,
    /// CPU share committed.
    pub committed_cpu: f64,
    /// Revenue per hour ($).
    pub revenue_per_hour: f64,
}

/// The Figure 13 result.
#[derive(Debug, Clone)]
pub struct Fig13Result {
    /// One row per (combo, strategy), combos ascending, strategies in
    /// {Aws, ModelDrivenBudgeting, ModelDrivenSprinting} order.
    pub rows: Vec<RevenueRow>,
}

impl Fig13Result {
    /// The row for a (combo, strategy) pair.
    pub fn row(&self, combo: usize, strategy: Strategy) -> Option<&RevenueRow> {
        self.rows
            .iter()
            .find(|r| r.combo == combo && r.strategy == strategy)
    }

    /// Maximum attainable revenue for a combo (every workload hosted).
    pub fn max_revenue(&self, combo: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.combo == combo)
            .map(|r| PRICE_PER_WORKLOAD_HOUR * r.offered as f64)
    }
}

/// Runs the colocation study over `combos` (each 1..=3) under all
/// three strategies.
///
/// # Errors
///
/// Propagates SLO-simulation failures and invalid combo numbers.
pub fn compute(combos: &[usize], opts: &SloOptions) -> Result<Fig13Result, SprintError> {
    let mut rows = Vec::new();
    for &c in combos {
        let demands = combo(c)?;
        for strategy in [
            Strategy::Aws,
            Strategy::ModelDrivenBudgeting,
            Strategy::ModelDrivenSprinting,
        ] {
            let r = colocate(&demands, strategy, opts)?;
            rows.push(RevenueRow {
                combo: c,
                strategy,
                hosted: r.hosted.len(),
                offered: demands.len(),
                committed_cpu: r.committed_cpu,
                revenue_per_hour: r.revenue_per_hour(),
            });
        }
    }
    Ok(Fig13Result { rows })
}

/// §4.4's tail study result.
#[derive(Debug, Clone)]
pub struct TailResult {
    /// The model-selected timeout (seconds).
    pub md_timeout_secs: f64,
    /// Predicted mean response at that timeout (seconds).
    pub md_predicted_secs: f64,
    /// CPU commitment of the model-driven policy (identical to AWS's).
    pub commitment: f64,
    /// The burst policy's p99 / p99.9 thresholds (seconds).
    pub thresholds_secs: (f64, f64),
    /// AWS tail fractions above the two thresholds.
    pub aws_tails: (f64, f64),
    /// Model-driven tail fractions above the two thresholds.
    pub md_tails: (f64, f64),
    /// Mean responses: (AWS, model-driven), seconds.
    pub mean_secs: (f64, f64),
}

impl TailResult {
    /// Tail reduction factors (`None` when the tail emptied — an
    /// infinite reduction).
    pub fn reductions(&self) -> (Option<f64>, Option<f64>) {
        let r = |aws: f64, md: f64| (md > 0.0).then(|| aws / md);
        (
            r(self.aws_tails.0, self.md_tails.0),
            r(self.aws_tails.1, self.md_tails.1),
        )
    }
}

/// §4.4's tail study: 99th/99.9th-percentile behaviour of Jacobi under
/// a fixed burst-on-arrival policy vs a model-driven timeout policy
/// with the *same* sprint rate and budget, on the testbed.
///
/// The comparison only bites when the budget binds: heavily loaded
/// Jacobi whose sprint demand exceeds the hourly budget, so bursting
/// every arrival drains credits on queries that were never at risk.
///
/// # Errors
///
/// Propagates prediction or testbed failures.
pub fn tail_comparison(seed: u64, queries: usize) -> Result<TailResult, SprintError> {
    let demand = demand_rate(WorkloadKind::Jacobi, 0.9);
    // A binding budget: ~10.6 sprints/hour of ~48.6 s each would need
    // ~650 s/h; grant 300 s/h.
    let budget = BurstablePolicy {
        budget_secs_per_hour: 300.0,
        ..BurstablePolicy::aws_t2_small()
    };

    // Model-driven timeout selection over a grid, using the
    // first-principles simulator.
    let opts = SloOptions {
        sim_queries: 2_000,
        warmup: 200,
        replications: 3,
        ..SloOptions::default()
    };
    let mut best = (0.0, f64::INFINITY);
    for t in [0.0, 60.0, 120.0, 180.0, 240.0, 320.0, 420.0, 560.0] {
        let candidate = BurstablePolicy {
            timeout_secs: t,
            ..budget
        };
        let rt = cloud::predict_response_secs(WorkloadKind::Jacobi, demand, &candidate, &opts)?;
        if rt < best.1 {
            best = (t, rt);
        }
    }
    let md = BurstablePolicy {
        timeout_secs: best.0,
        ..budget
    };

    // Ground truth: long testbed replays; tail thresholds follow the
    // paper's structure (the burst policy's p99 / p99.9).
    let observe = |p: &BurstablePolicy| {
        let mech = CpuThrottle::with_sprint_multiplier(p.share, p.sprint_multiplier);
        let cfg = ServerConfig {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            arrivals: ArrivalSpec::poisson(demand),
            policy: SprintPolicy::new(
                SimDuration::from_secs_f64(p.timeout_secs),
                BudgetSpec::Seconds(p.budget_secs_per_hour),
                SimDuration::from_secs(3_600),
            ),
            slots: 1,
            num_queries: queries,
            warmup: queries / 10,
            seed,
        };
        Server::new(cfg, &mech)?.run()
    };
    let aws_run = observe(&budget)?;
    let md_run = observe(&md)?;
    let t99 = aws_run.response_quantile_secs(0.99);
    let t999 = aws_run.response_quantile_secs(0.999);

    Ok(TailResult {
        md_timeout_secs: md.timeout_secs,
        md_predicted_secs: best.1,
        commitment: strategy_commitment(Strategy::ModelDrivenSprinting, &md),
        thresholds_secs: (t99, t999),
        aws_tails: (aws_run.tail_fraction(t99), aws_run.tail_fraction(t999)),
        md_tails: (md_run.tail_fraction(t99), md_run.tail_fraction(t999)),
        mean_secs: (aws_run.mean_response_secs(), md_run.mean_response_secs()),
    })
}
