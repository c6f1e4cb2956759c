//! Quickstart: profile a workload, train the hybrid model, predict
//! response time under a sprinting policy, and check the prediction
//! against the ground-truth testbed.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use model_sprint::prelude::*;
use model_sprint::profiler::Condition;
use model_sprint::simcore::dist::DistKind;
use model_sprint::testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig};

fn main() -> Result<(), model_sprint::simcore::SprintError> {
    // 1. The system under study: Jacobi on the DVFS platform.
    let mech = Dvfs::new();
    let mix = QueryMix::single(WorkloadKind::Jacobi);

    // 2. Offline profiling over cluster-sampled conditions (§2.1).
    println!("profiling Jacobi over 30 sampled conditions ...");
    let conditions = SamplingGrid::paper().sample_conditions(30, 42);
    let data = Profiler::default().profile(&mix, &mech, &conditions);
    println!(
        "  measured service rate µ = {:.1} qph, marginal sprint rate µm = {:.1} qph",
        data.profile.mu.qph(),
        data.profile.mu_m.qph()
    );

    // 3. Train the hybrid model: calibrate effective sprint rates
    //    (Eq. 2) and fit the random decision forest (§2.3-2.4).
    println!("training the hybrid model ...");
    let model = train_hybrid(&data, &TrainOptions::default())?;

    // 4. Ask a policy question: 75% load, 90-second timeout, a budget
    //    of 20% of a 500-second refill window.
    let question = Condition {
        utilization: 0.75,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 90.0,
        budget_frac: 0.2,
        refill_secs: 500.0,
    };
    let predicted = model.predict_response_secs(&question);
    println!(
        "predicted mean response time at 75% load, timeout 90 s: {predicted:.1} s \
         (effective sprint rate {:.1} qph)",
        model.effective_rate_qph(&question)
    );

    // 5. Validate against the ground truth (normally unavailable —
    //    that is the point of the model).
    let observed = Server::new(
        ServerConfig {
            mix,
            arrivals: ArrivalSpec::poisson(data.profile.mu.scale(question.utilization)),
            policy: SprintPolicy::new(
                question.timeout(),
                BudgetSpec::FractionOfRefill(question.budget_frac),
                question.refill(),
            ),
            slots: 1,
            num_queries: 600,
            warmup: 60,
            seed: 777,
        },
        &mech,
    )?
    .run()?
    .mean_response_secs();
    println!(
        "observed on the testbed: {observed:.1} s  ->  error {:.1}%",
        (predicted - observed).abs() / observed * 100.0
    );
    Ok(())
}
