//! Integration tests for the §5 extensions: multi-class simulation,
//! online load estimation, time-varying arrivals and trace export —
//! exercised together, end to end.

use model_sprint::prelude::*;
use model_sprint::qsim::TraceCache;
use model_sprint::simcore::dist::{Dist, DistKind};
use model_sprint::testbed::{trace, ArrivalSpec, BudgetSpec, Server, ServerConfig};

#[test]
fn multiclass_prefers_sprinting_the_elastic_class() {
    // Two classes share a binding budget. Spending it on the class with
    // the larger speedup must beat spending it on the weak class:
    // compare per-class-timeout configurations that gate one class out.
    let base = MultiClassConfig {
        arrival_rate: Rate::per_hour(28.0),
        arrival_kind: DistKind::Exponential,
        classes: vec![
            ClassSpec {
                weight: 0.5,
                service: Dist::lognormal(SimDuration::from_secs(100), 0.15),
                sprint_speedup: 1.3,
                timeout: SimDuration::from_secs(0),
            },
            ClassSpec {
                weight: 0.5,
                service: Dist::lognormal(SimDuration::from_secs(45), 0.4),
                sprint_speedup: 2.5,
                timeout: SimDuration::from_secs(0),
            },
        ],
        budget_capacity_secs: 100.0,
        refill_secs: 2_000.0,
        slots: 1,
        num_queries: 25_000,
        warmup: 2_500,
        seed: 99,
    };

    // Gate the weak class out of sprinting entirely.
    let mut strong_only = base.clone();
    strong_only.classes[0].timeout = SimDuration::MAX;
    // Gate the strong class out instead.
    let mut weak_only = base.clone();
    weak_only.classes[1].timeout = SimDuration::MAX;

    let strong_rt = MultiClassQsim::new(strong_only)
        .unwrap()
        .run()
        .unwrap()
        .mean_response_secs();
    let weak_rt = MultiClassQsim::new(weak_only)
        .unwrap()
        .run()
        .unwrap()
        .mean_response_secs();
    assert!(
        strong_rt < weak_rt,
        "budget on the elastic class should win: {strong_rt:.1} !< {weak_rt:.1}"
    );
}

#[test]
fn online_estimator_tracks_a_spiky_testbed_run() {
    // Replay a spiky pattern on the testbed and confirm the sliding
    // window's estimate lands between the calm and spike rates.
    let mech = Dvfs::new();
    let base = Rate::per_hour(51.0 * 0.4);
    let cfg = ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson_with_spike(base, 2.5, 900.0, 3_600.0)
            .expect("spike fits inside the period"),
        policy: SprintPolicy::never(),
        slots: 1,
        num_queries: 400,
        warmup: 0,
        seed: 41,
    };
    let result = Server::new(cfg, &mech)
        .and_then(Server::run)
        .expect("valid spiky config");

    let mut est = ArrivalRateEstimator::new(7_200.0, 10);
    for q in result.records() {
        est.record(q.arrival);
    }
    let rate = est.rate().expect("warm estimator").qph();
    let calm = base.qph();
    let spike = base.qph() * 2.5;
    assert!(
        rate > calm * 0.95 && rate < spike,
        "estimate {rate:.1} should sit between calm {calm:.1} and spike {spike:.1}"
    );
}

#[test]
fn trace_export_round_trips_a_real_run() {
    let mech = CpuThrottle::new(0.2);
    let cfg = ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(Rate::per_hour(10.0)),
        policy: SprintPolicy::new(
            SimDuration::from_secs(60),
            BudgetSpec::Seconds(200.0),
            SimDuration::from_secs(1_000),
        ),
        slots: 1,
        num_queries: 60,
        warmup: 0,
        seed: 31,
    };
    let result = Server::new(cfg, &mech)
        .and_then(Server::run)
        .expect("valid trace config");
    let csv = trace::to_csv(result.records());
    assert_eq!(csv.lines().count(), 61, "header + one row per query");
    // Sanity on content: ids sequential, responses positive.
    for (i, line) in csv.lines().skip(1).enumerate() {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[0], i.to_string());
        let arrival: f64 = fields[2].parse().unwrap();
        let depart: f64 = fields[4].parse().unwrap();
        assert!(depart > arrival);
    }
    let timeline = trace::ascii_timeline(result.records(), 8, 72).expect("records exist");
    assert_eq!(timeline.lines().count(), 9);
}

#[test]
fn what_if_budget_doubling_helps_under_binding_budget() {
    // The intro's what-if, asked through the public API: doubling a
    // binding budget at heavy load must lower simulated response time.
    let profile = model_sprint::profiler::WorkloadProfile {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        mechanism: "CPUThrottle".into(),
        mu: Rate::per_hour(14.8),
        mu_m: Rate::per_hour(74.0),
        service_samples_secs: (0..150).map(|i| 230.0 + (i % 27) as f64).collect(),
        profiling_hours: 0.0,
    };
    let cond = model_sprint::profiler::Condition {
        utilization: 0.9,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 120.0,
        budget_frac: 0.05,
        refill_secs: 3_600.0,
    };
    let sim = SimOptions {
        sim_queries: 3_000,
        warmup: 300,
        replications: 3,
        ..SimOptions::default()
    };
    let speedup = profile.mu_m.qph() / profile.mu.qph();
    let traces = TraceCache::new();
    let tight = sim.simulate(&profile, &cond, speedup, &traces);
    let mut doubled = cond;
    doubled.budget_frac *= 2.0;
    let loose = sim.simulate(&profile, &doubled, speedup, &traces);
    assert!(
        loose < tight * 0.95,
        "doubling a binding budget should help: {loose:.0} !< {tight:.0}"
    );
}
