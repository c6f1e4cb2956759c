//! Model-driven policy tuning (§4.3): pick the timeout for a
//! CPU-throttled Jacobi service by simulated annealing over the hybrid
//! model, and compare against the Few-to-Many and Adrenaline
//! baselines — all validated on the ground-truth testbed.
//!
//! ```text
//! cargo run --release --example policy_tuning
//! ```

use model_sprint::policy::{adrenaline_timeout, explore_timeout, few_to_many_timeout};
use model_sprint::prelude::*;
use model_sprint::profiler::Condition;
use model_sprint::simcore::dist::DistKind;
use model_sprint::testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig};

fn main() -> Result<(), model_sprint::simcore::SprintError> {
    // §4.3's setup: Jacobi throttled to 20% (sustained 14.8 qph,
    // sprint 74 qph), λ = 11.8 qph, budget for ~5 full sprints.
    let mech = CpuThrottle::new(0.2);
    let mix = QueryMix::single(WorkloadKind::Jacobi);
    let base = Condition {
        utilization: 0.8,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 0.0,
        budget_frac: 243.0 / 3_600.0,
        refill_secs: 3_600.0,
    };

    println!("profiling the throttled service ...");
    let grid = SamplingGrid {
        utilizations: vec![0.5, 0.65, 0.8, 0.95],
        timeouts_secs: vec![0.0, 30.0, 60.0, 100.0, 150.0, 220.0, 300.0],
        refills_secs: vec![1_800.0, 3_600.0],
        budget_fracs: vec![0.05, 0.1, 0.2, 0.3],
        arrival_kinds: vec![DistKind::Exponential],
    };
    let conditions = grid.sample_conditions(48, 7);
    let data = Profiler::default().profile(&mix, &mech, &conditions);
    let model = train_hybrid(&data, &TrainOptions::default())?;

    println!("exploring timeouts with simulated annealing ...");
    let annealed = explore_timeout(
        &model,
        &base,
        &AnnealingConfig {
            iterations: 120,
            bounds_secs: (0.0, 350.0),
            ..AnnealingConfig::default()
        },
    )?;
    let sim = SimOptions::default();
    let ftm = few_to_many_timeout(&data.profile, &base, &sim, (0.0, 2_000.0), 25.0)?;
    let adr = adrenaline_timeout(&data.profile, &base, &sim)?;

    let observe = |timeout_secs: f64| -> f64 {
        let mut c = base;
        c.timeout_secs = timeout_secs;
        Server::new(
            ServerConfig {
                mix: mix.clone(),
                arrivals: ArrivalSpec::poisson(data.profile.mu.scale(c.utilization)),
                policy: SprintPolicy::new(
                    c.timeout(),
                    BudgetSpec::FractionOfRefill(c.budget_frac),
                    c.refill(),
                ),
                slots: 1,
                num_queries: 500,
                warmup: 50,
                seed: 99,
            },
            &mech,
        )
        .and_then(Server::run)
        .expect("validation config is valid")
        .mean_response_secs()
    };

    println!("\npolicy                    timeout   observed mean RT");
    for (name, t) in [
        ("model-driven (annealed)", annealed.best_timeout_secs),
        ("few-to-many", ftm),
        ("adrenaline", adr),
        ("burst-everything", 0.0),
    ] {
        println!("{name:<25} {t:>6.0} s   {:>8.1} s", observe(t));
    }
    Ok(())
}
