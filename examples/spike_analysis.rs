//! Spike analysis: time-varying load, online load estimation, and
//! trace export — three deployment-facing extensions around the
//! paper's core (§1's what-if spikes, §5's online estimation).
//!
//! A Jacobi service under CPU throttling sees a 3X arrival spike for
//! ten minutes of every hour. We replay it on the testbed, watch a
//! sliding-window estimator track the load, and ask the first-
//! principles simulator what a doubled budget would have done for the
//! spike windows.
//!
//! ```text
//! cargo run --release --example spike_analysis
//! ```

use model_sprint::prelude::*;
use model_sprint::profiler::Condition;
use model_sprint::qsim::TraceCache;
use model_sprint::simcore::dist::DistKind;
use model_sprint::sprint_core::ArrivalRateEstimator;
use model_sprint::testbed::trace;
use model_sprint::testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig};

fn main() -> Result<(), model_sprint::simcore::SprintError> {
    let mech = CpuThrottle::new(0.2);
    let mix = QueryMix::single(WorkloadKind::Jacobi);
    let base_rate = Rate::per_hour(14.8 * 0.6);

    // 3X spike for 600 s out of every 3600 s.
    let cfg = ServerConfig {
        mix: mix.clone(),
        arrivals: ArrivalSpec::poisson_with_spike(base_rate, 3.0, 600.0, 3_600.0)?,
        policy: SprintPolicy::new(
            SimDuration::from_secs(120),
            BudgetSpec::Seconds(240.0),
            SimDuration::from_secs(3_600),
        ),
        slots: 1,
        num_queries: 600,
        warmup: 50,
        seed: 2718,
    };
    println!("replaying a spiky hour-long pattern on the testbed ...");
    let result = Server::new(cfg, &mech)?.run()?;
    println!(
        "overall mean response {:.0} s; p99 {:.0} s; {} queries sprinted",
        result.mean_response_secs(),
        result.response_quantile_secs(0.99),
        result.records().iter().filter(|q| q.sprinted).count(),
    );

    // Online estimation: feed arrivals through the sliding window and
    // report what the estimator saw in calm vs spike segments.
    let mut calm_est = ArrivalRateEstimator::new(1_800.0, 5);
    let mut spike_samples = 0usize;
    for q in result.records() {
        calm_est.record(q.arrival);
        let phase = q.arrival.as_secs_f64() % 3_600.0;
        if phase >= 3_000.0 {
            spike_samples += 1;
        }
    }
    if let Some(rate) = calm_est.rate() {
        println!(
            "sliding-window estimate at the end of the replay: {:.1} qph \
             (base {:.1} qph; {spike_samples} arrivals landed in spikes)",
            rate.qph(),
            base_rate.qph()
        );
    }

    // Export the first spike window as a trace for offline inspection.
    let spike_queries: Vec<_> = result
        .records()
        .iter()
        .filter(|q| {
            let t = q.arrival.as_secs_f64();
            (3_000.0..4_200.0).contains(&t)
        })
        .cloned()
        .collect();
    if !spike_queries.is_empty() {
        println!("\nfirst spike window, Fig.1-style timeline:");
        println!("{}", trace::ascii_timeline(&spike_queries, 12, 64)?);
        let dir = std::env::temp_dir().join("model_sprint_spike_trace.csv");
        if trace::write_csv(&spike_queries, &dir).is_ok() {
            println!("full trace written to {}", dir.display());
        }
    }

    // What-if: would doubling the budget have tamed the spike? Answer
    // with the first-principles simulator at spike-level load.
    let profile = Profiler::default().measure_rates(&mix, &mech);
    // A 3X spike on a 60%-utilized throttled service is a transient
    // overload; ask the steady-state question just below saturation.
    let spike_util = (0.6 * 3.0 * (14.8 / profile.mu.qph())).min(0.95);
    let spike_cond = Condition {
        utilization: spike_util,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 120.0,
        budget_frac: 240.0 / 3_600.0,
        refill_secs: 3_600.0,
    };
    let sim = SimOptions {
        sim_queries: 600,
        warmup: 60,
        replications: 5,
        ..SimOptions::default()
    };
    let traces = TraceCache::new();
    let as_is = sim.simulate(&profile, &spike_cond, profile.marginal_speedup(), &traces);
    let mut doubled = spike_cond;
    doubled.budget_frac *= 2.0;
    let better = sim.simulate(&profile, &doubled, profile.marginal_speedup(), &traces);
    println!(
        "\nwhat-if at spike load: budget 240 s -> {as_is:.0} s mean RT; \
         budget 480 s -> {better:.0} s ({:+.0}%)",
        (better - as_is) / as_is * 100.0
    );
    Ok(())
}
