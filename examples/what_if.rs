//! What-if exploration (§1): "what would response time have been if
//! the sprinting budget had doubled during last week's spike?" —
//! answered entirely from the trained model, without touching the
//! production system.
//!
//! ```text
//! cargo run --release --example what_if
//! ```

use model_sprint::prelude::*;
use model_sprint::profiler::Condition;
use model_sprint::qsim::TraceCache;
use model_sprint::simcore::dist::DistKind;

fn main() -> Result<(), model_sprint::simcore::SprintError> {
    let mech = Dvfs::new();
    let mix = QueryMix::single(WorkloadKind::SparkKmeans);

    println!("profiling Spark K-means on DVFS ...");
    let conditions = SamplingGrid::paper().sample_conditions(40, 123);
    let data = Profiler::default().profile(&mix, &mech, &conditions);
    let model = train_hybrid(&data, &TrainOptions::default())?;

    // "Last week's spike": 95% utilization with the production policy.
    let spike = Condition {
        utilization: 0.95,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 80.0,
        budget_frac: 0.16,
        refill_secs: 500.0,
    };
    let actual = model.predict_response_secs(&spike);
    println!("\nresponse time during the spike (as configured): {actual:.0} s");

    // What-if 1: double the sprinting budget.
    let mut doubled = spike;
    doubled.budget_frac *= 2.0;
    let rt = model.predict_response_secs(&doubled);
    println!(
        "what if the budget had doubled?            {rt:.0} s ({:+.0}%)",
        (rt - actual) / actual * 100.0
    );

    // What-if 2: buy hardware with a better sprinting mechanism. The
    // model's first-principles core lets us swap in a hypothetical
    // 1.3X-faster marginal sprint rate.
    let upgraded = {
        let mut profile = data.profile.clone();
        profile.mu_m = profile.mu_m.scale(1.3);
        let better = Profiler::default();
        let _ = better; // Profiling a hypothetical machine is exactly
                        // what the simulator replaces.
        let sim = SimOptions::default();
        sim.simulate(
            &profile,
            &spike,
            profile.mu_m.qph() / profile.mu.qph(),
            &TraceCache::new(),
        )
    };
    println!(
        "what if the sprint rate were 1.3X faster?  {upgraded:.0} s ({:+.0}%)",
        (upgraded - actual) / actual * 100.0
    );

    // What-if 3: sweep the timeout to find the spike-optimal setting.
    let mut best = (spike.timeout_secs, actual);
    for t in [0.0, 20.0, 40.0, 60.0, 100.0, 140.0, 200.0] {
        let mut c = spike;
        c.timeout_secs = t;
        let rt = model.predict_response_secs(&c);
        if rt < best.1 {
            best = (t, rt);
        }
    }
    println!(
        "best timeout for spikes like this:         {:.0} s -> {:.0} s ({:+.0}%)",
        best.0,
        best.1,
        (best.1 - actual) / actual * 100.0
    );
    Ok(())
}
