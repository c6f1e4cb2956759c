//! Differential oracles: pairs of code paths that promise *identical*
//! answers, checked bit-for-bit on shared seeds.
//!
//! Unlike anchors — which pin measured values against committed
//! goldens — an oracle needs no golden file: the reference
//! implementation rides along in the binary, so drift between the fast
//! and reference paths is caught even when both move together relative
//! to the paper.

use qsim::{
    predict_mean_response, predict_mean_response_reference, predict_mean_response_traced, Backend,
    Qsim, QsimConfig, TraceCache,
};
use simcore::dist::{Dist, DistKind};
use simcore::time::{Rate, SimDuration};
use simcore::SprintError;
use testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig, SprintPolicy};
use workloads::{QueryMix, WorkloadKind};

/// One differential check's outcome.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// Stable identifier, `oracle/...`.
    pub id: &'static str,
    /// The bit-identity contract being checked.
    pub description: &'static str,
    /// Whether the contract held.
    pub passed: bool,
    /// Where it held or what diverged.
    pub detail: String,
}

impl OracleOutcome {
    fn from(
        id: &'static str,
        description: &'static str,
        r: Result<String, SprintError>,
    ) -> OracleOutcome {
        match r {
            Ok(detail) => OracleOutcome {
                id,
                description,
                passed: true,
                detail,
            },
            Err(e) => OracleOutcome {
                id,
                description,
                passed: false,
                detail: e.to_string(),
            },
        }
    }
}

fn diverged(what: &'static str, detail: String) -> SprintError {
    SprintError::runtime(what, detail)
}

/// A spread of simulator configurations covering the engine's feature
/// matrix: single and multi slot, light and heavy tails, sprinting on
/// and off.
fn config_matrix(seed: u64) -> Vec<QsimConfig> {
    let mean = SimDuration::from_secs_f64(90.0);
    let base = QsimConfig {
        arrival_rate: Rate::per_hour(30.0),
        arrival_kind: DistKind::Exponential,
        service: Dist::lognormal(mean, 0.3),
        sprint_speedup: 1.5,
        timeout: SimDuration::from_secs_f64(60.0),
        budget_capacity_secs: 300.0,
        refill_secs: 1_200.0,
        slots: 1,
        num_queries: 300,
        warmup: 30,
        seed,
    };
    vec![
        base.clone(),
        QsimConfig {
            slots: 2,
            seed: seed ^ 0x02,
            ..base.clone()
        },
        QsimConfig {
            arrival_kind: DistKind::Pareto { alpha: 1.5 },
            service: Dist::hyperexponential(mean, 1.2),
            seed: seed ^ 0x03,
            ..base.clone()
        },
        QsimConfig {
            // No sprinting at all: the budget/timeout machinery idle.
            sprint_speedup: 1.0,
            timeout: SimDuration::MAX,
            budget_capacity_secs: 0.0,
            seed: seed ^ 0x04,
            ..base.clone()
        },
        QsimConfig {
            // Burst-on-arrival under pressure.
            arrival_rate: Rate::per_hour(38.0),
            timeout: SimDuration::from_secs_f64(0.0),
            slots: 3,
            seed: seed ^ 0x05,
            ..base.clone()
        },
        QsimConfig {
            service: Dist::exponential(mean),
            budget_capacity_secs: 60.0,
            refill_secs: 400.0,
            seed: seed ^ 0x06,
            ..base
        },
    ]
}

fn check_backend_identity(seed: u64) -> Result<String, SprintError> {
    let configs = config_matrix(seed);
    let n = configs.len();
    let pool = qsim::run_batch_with(configs.clone(), 2, Backend::Pool)?;
    let reference = qsim::run_batch_with(configs, 2, Backend::Reference)?;
    for (i, (p, r)) in pool.iter().zip(&reference).enumerate() {
        if p.queries != r.queries {
            return Err(diverged(
                "oracle::backends",
                format!("config {i}: Pool and Reference disagree"),
            ));
        }
    }
    Ok(format!("{n} configs bit-identical across both backends"))
}

fn check_direct_vs_calendar(seed: u64) -> Result<String, SprintError> {
    // Every config in the matrix at every k in the direct grid: k = 1
    // exercises the heap-free recurrence engine, k ∈ {2, 4, 8} the
    // DirectCalendar (arrival slot + monotone timeout queue + per-slot
    // latest event); `run_event_driven` pins the binary-heap calendar
    // either way.
    let mut checked = 0usize;
    for k in [1usize, 2, 4, 8] {
        for (i, mut cfg) in config_matrix(seed).into_iter().enumerate() {
            cfg.slots = k;
            let direct = Qsim::new(cfg.clone())?.run()?;
            let calendar = Qsim::new(cfg)?.run_event_driven()?;
            if direct.queries != calendar.queries {
                return Err(diverged(
                    "oracle::direct_engine",
                    format!("k={k} config {i}: direct and event-calendar engines disagree"),
                ));
            }
            checked += 1;
        }
    }
    Ok(format!(
        "{checked} configs bit-identical, direct vs event calendar, k in {{1, 2, 4, 8}}"
    ))
}

fn check_traced_vs_live(seed: u64) -> Result<String, SprintError> {
    let cache = TraceCache::new();
    let mut checked = 0usize;
    for (i, cfg) in config_matrix(seed)
        .into_iter()
        .filter(|c| c.slots == 1)
        .enumerate()
    {
        let live = predict_mean_response(&cfg, 3, 2)?;
        let traced = predict_mean_response_traced(&cfg, 3, 2, &cache)?;
        let reference = predict_mean_response_reference(&cfg, 3, 2)?;
        if live.to_bits() != traced.to_bits() {
            return Err(diverged(
                "oracle::crn_traces",
                format!("config {i}: live {live} vs traced {traced}"),
            ));
        }
        if live.to_bits() != reference.to_bits() {
            return Err(diverged(
                "oracle::crn_traces",
                format!("config {i}: live {live} vs reference {reference}"),
            ));
        }
        checked += 1;
    }
    Ok(format!(
        "{checked} configs: live, CRN-traced and reference predictions bit-identical"
    ))
}

fn check_recorder_purity(seed: u64) -> Result<String, SprintError> {
    let mech = mechanisms::Dvfs::new();
    let cfg = ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(Rate::per_hour(30.0)),
        policy: SprintPolicy::new(
            SimDuration::from_secs_f64(60.0),
            BudgetSpec::FractionOfRefill(0.3),
            SimDuration::from_secs_f64(1_000.0),
        ),
        slots: 2,
        num_queries: 200,
        warmup: 20,
        seed,
    };
    let pristine = Server::new(cfg.clone(), &mech)?.run()?;
    let mut observed = Server::new(cfg, &mech)?;
    observed.attach_recorder(obs::FlightRecorder::DEFAULT_CAPACITY);
    let observed = observed.run()?;
    if pristine.records() != observed.records() {
        return Err(diverged(
            "oracle::recorder",
            "attaching the flight recorder changed per-query records".to_string(),
        ));
    }
    let events = observed.telemetry().map_or(0, |t| t.events().len());
    Ok(format!(
        "{} query records bit-identical with recorder attached ({events} events captured)",
        pristine.records().len()
    ))
}

/// Runs every differential oracle at `seed`.
pub fn run_all(seed: u64) -> Vec<OracleOutcome> {
    vec![
        OracleOutcome::from(
            "oracle/backend_identity",
            "the Pool and Reference batch backends produce bit-identical \
             per-query results on shared seeds",
            check_backend_identity(seed),
        ),
        OracleOutcome::from(
            "oracle/direct_vs_calendar",
            "the heap-free direct engines (k=1 recurrence and the k<=8 \
             DirectCalendar) match the event-calendar engine bit-for-bit \
             across k in {1, 2, 4, 8}",
            check_direct_vs_calendar(seed),
        ),
        OracleOutcome::from(
            "oracle/traced_vs_live",
            "CRN trace replay and the frozen reference path reproduce live \
             predictions bit-for-bit",
            check_traced_vs_live(seed),
        ),
        OracleOutcome::from(
            "oracle/recorder_purity",
            "the flight recorder is a pure observer: identical per-query \
             records with and without it",
            check_recorder_purity(seed),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracles_pass_on_a_fresh_seed() {
        for o in run_all(0x0BAC1E) {
            assert!(o.passed, "{} failed: {}", o.id, o.detail);
        }
    }
}
