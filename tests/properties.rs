//! Property-style tests on core invariants: hand-rolled randomized
//! sweeps (seeded, deterministic) over distributions, the queue
//! simulator, the testbed, fault injection, the budget, and the
//! model-health breaker.

use model_sprint::prelude::*;
use model_sprint::simcore::dist::{Dist, DistKind};
use model_sprint::simcore::stats::StreamingStats;
use model_sprint::simcore::{Budget, SimRng};
use model_sprint::testbed::{ArrivalSpec, BudgetSpec, Server, ServerConfig};

/// Every distribution's sample mean tracks its configured mean.
#[test]
fn distribution_sample_means_track_config() {
    let mut rng = SimRng::new(0xD157);
    for which in 0..4usize {
        for _ in 0..4 {
            let mean_secs = rng.uniform(10.0, 500.0);
            let mean = SimDuration::from_secs_f64(mean_secs);
            let dist = match which {
                0 => Dist::exponential(mean),
                1 => Dist::deterministic(mean),
                2 => Dist::lognormal(mean, 0.5),
                _ => Dist::hyperexponential(mean, 1.5),
            };
            let mut sample_rng = SimRng::new(rng.next_u64());
            let n = 40_000;
            let total: f64 = (0..n)
                .map(|_| dist.sample(&mut sample_rng).as_secs_f64())
                .sum();
            let sample_mean = total / n as f64;
            assert!(
                (sample_mean - mean_secs).abs() / mean_secs < 0.08,
                "dist {which}: mean {sample_mean} vs configured {mean_secs}"
            );
        }
    }
}

/// The queue simulator conserves queries, keeps FIFO order on a
/// single slot, and never reports negative response times.
#[test]
fn qsim_conservation_and_fifo() {
    let mut rng = SimRng::new(0x51F0);
    for _ in 0..12 {
        let util = rng.uniform(0.1, 0.9);
        let mu = 3_600.0 / 60.0;
        let mut cfg = QsimConfig::mm1(
            Rate::per_hour(mu * util),
            Dist::exponential(SimDuration::from_secs(60)),
            rng.next_u64() % 500,
        );
        cfg.num_queries = 400;
        cfg.warmup = 0;
        cfg.sprint_speedup = rng.uniform(1.0, 4.0);
        cfg.timeout = SimDuration::from_secs_f64(rng.uniform(10.0, 400.0));
        cfg.budget_capacity_secs = rng.uniform(0.0, 500.0);
        cfg.refill_secs = 800.0;
        let r = Qsim::new(cfg)
            .expect("randomized config is valid")
            .run()
            .expect("randomized run completes");
        assert_eq!(r.queries.len(), 400);
        let mut sorted = r.queries.clone();
        sorted.sort_by(|a, b| a.arrival_secs.total_cmp(&b.arrival_secs));
        let mut prev_depart = 0.0;
        for q in &sorted {
            assert!(q.depart_secs >= q.arrival_secs);
            // Single slot FIFO: departures follow arrival order.
            assert!(q.depart_secs >= prev_depart);
            prev_depart = q.depart_secs;
            // Sprint time cannot exceed time in system.
            assert!(q.sprint_secs <= q.depart_secs - q.arrival_secs + 1e-6);
        }
    }
}

/// Testbed runs conserve queries, respect FIFO dispatch, and never
/// spend more sprint-seconds than the budget could supply.
#[test]
fn testbed_budget_and_fifo_invariants() {
    let mech = Dvfs::new();
    let mut rng = SimRng::new(0x7E57);
    for _ in 0..8 {
        let util = rng.uniform(0.2, 0.9);
        let timeout = rng.uniform(20.0, 300.0);
        let budget_frac = rng.uniform(0.05, 0.8);
        let refill = rng.uniform(100.0, 1_000.0);
        let cfg = ServerConfig {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            arrivals: ArrivalSpec::poisson(Rate::per_hour(51.0 * util)),
            policy: SprintPolicy::new(
                SimDuration::from_secs_f64(timeout),
                BudgetSpec::FractionOfRefill(budget_frac),
                SimDuration::from_secs_f64(refill),
            ),
            slots: 1,
            num_queries: 150,
            warmup: 0,
            seed: rng.next_u64() % 200,
        };
        let r = Server::new(cfg, &mech)
            .and_then(Server::run)
            .expect("randomized config is valid");
        assert_eq!(r.records().len(), 150);

        let mut by_arrival: Vec<_> = r.records().to_vec();
        by_arrival.sort_by_key(|q| q.arrival);
        let mut prev_dispatch = SimTime::ZERO;
        for q in &by_arrival {
            assert!(q.dispatch >= q.arrival);
            assert!(q.depart > q.dispatch);
            assert!(q.dispatch >= prev_dispatch, "FIFO dispatch violated");
            prev_dispatch = q.dispatch;
            assert!(q.sprint_seconds >= 0.0);
            assert!(
                q.sprint_seconds <= q.processing_time().as_secs_f64() + 1e-6,
                "sprinted longer than processing"
            );
            if q.sprinted {
                assert!(q.timed_out, "sprinting requires a timeout");
            }
        }

        // Budget conservation: total sprint-seconds cannot exceed the
        // initial capacity plus the maximum possible refill over the
        // whole span.
        let capacity = budget_frac * refill;
        let span = by_arrival
            .last()
            .unwrap()
            .depart
            .since(by_arrival[0].arrival)
            .as_secs_f64();
        let max_supply = capacity + capacity / refill * span + 1.0;
        let consumed: f64 = r.records().iter().map(|q| q.sprint_seconds).sum();
        assert!(
            consumed <= max_supply,
            "consumed {consumed} sprint-seconds, supply bound {max_supply}"
        );
    }
}

/// The budget pool never goes negative, never exceeds capacity, and
/// refills monotonically while idle — under randomized interleavings
/// of engage, disengage, and time advance.
#[test]
fn budget_invariants_under_random_usage() {
    let mut rng = SimRng::new(0xB0D9);
    for trial in 0..25 {
        let capacity = rng.uniform(0.0, 300.0);
        let refill = rng.uniform(10.0, 1_000.0);
        let mut b = Budget::new(capacity, refill);
        let mut now = SimTime::ZERO;
        let mut active = 0usize;
        for step in 0..300 {
            now += SimDuration::from_secs_f64(rng.uniform(0.0, 40.0));
            let before = b.level();
            let idle = active == 0;
            b.update(now);
            assert!(
                b.level() >= 0.0,
                "trial {trial} step {step}: negative level"
            );
            assert!(
                b.level() <= capacity + 1e-9,
                "trial {trial} step {step}: level {} above capacity {capacity}",
                b.level()
            );
            if idle {
                assert!(
                    b.level() >= before - 1e-9,
                    "trial {trial} step {step}: refill not monotone while idle"
                );
            }
            if rng.chance(0.4) {
                b.start_sprint();
                active += 1;
            } else if active > 0 && rng.chance(0.5) {
                b.end_sprint();
                active -= 1;
            }
            assert_eq!(b.sprinting(), active);
        }
    }
}

/// A sprinting server config shared by the fault-injection tests.
fn sprint_cfg(num_queries: usize, seed: u64) -> ServerConfig {
    ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(Rate::per_hour(51.0 * 0.7)),
        policy: SprintPolicy::new(
            SimDuration::from_secs(30),
            BudgetSpec::FractionOfRefill(0.3),
            SimDuration::from_secs(600),
        ),
        slots: 1,
        num_queries,
        warmup: 0,
        seed,
    }
}

/// The same server with sprinting disabled entirely.
fn no_sprint_cfg(num_queries: usize, seed: u64) -> ServerConfig {
    ServerConfig {
        policy: SprintPolicy::never(),
        ..sprint_cfg(num_queries, seed)
    }
}

/// Same (config seed, fault plan) ⇒ the exact same run, down to every
/// record and fault counter — with every fault class armed at once.
#[test]
fn faulted_runs_replay_bit_identically() {
    let mech = Dvfs::new();
    let plan = FaultPlan {
        seed: 11,
        engage_failure_prob: 0.3,
        stuck_sprint_prob: 0.1,
        budget_drift_secs: 5.0,
        crash_prob: 0.05,
        bad_slot: Some(0),
        bad_slot_crash_prob: 0.1,
        max_retries: 2,
        crash_repair_secs: 0.0,
        storms: vec![StormWindow {
            start_secs: 500.0,
            duration_secs: 2_000.0,
            multiplier: 2.5,
        }],
        thermal_period_secs: 1_500.0,
        thermal_lockout_secs: 90.0,
        messages: faults::MessageFaults {
            delay_prob: 0.3,
            delay_secs: 20.0,
            drop_prob: 0.1,
            dup_prob: 0.1,
            partitions: Vec::new(),
        },
    };
    let a = Server::with_faults(sprint_cfg(250, 17), &mech, plan.clone())
        .and_then(Server::run)
        .unwrap();
    let b = Server::with_faults(sprint_cfg(250, 17), &mech, plan.clone())
        .and_then(Server::run)
        .unwrap();
    assert_eq!(a.records(), b.records());
    assert_eq!(a.fault_counters(), b.fault_counters());
    assert!(
        a.fault_counters().total() > 0,
        "an armed plan should inject something: {:?}",
        a.fault_counters()
    );
    // A different fault seed on the same config must diverge — the
    // counters are real, not replayed coincidence.
    let other = Server::with_faults(sprint_cfg(250, 17), &mech, FaultPlan { seed: 12, ..plan })
        .and_then(Server::run)
        .unwrap();
    assert_ne!(a.records(), other.records());
}

/// An empty fault plan is a no-op: records are byte-identical to a
/// run without any fault machinery.
#[test]
fn empty_fault_plan_output_is_byte_identical() {
    let mech = Dvfs::new();
    let clean = Server::new(sprint_cfg(200, 41), &mech)
        .and_then(Server::run)
        .unwrap();
    let noop = Server::with_faults(sprint_cfg(200, 41), &mech, FaultPlan::default())
        .and_then(Server::run)
        .unwrap();
    assert_eq!(clean.records(), noop.records());
    // Byte-level: the rendered record streams match exactly.
    assert_eq!(
        format!("{:?}", clean.records()),
        format!("{:?}", noop.records())
    );
    assert_eq!(noop.fault_counters().total(), 0);
}

/// Injected budget-sensor drift starves sprinting; the health monitor
/// must trip into the no-sprint fallback, whose tail latency stays
/// within 2X of an honest no-sprint baseline.
#[test]
fn budget_drift_trips_breaker_and_fallback_tail_is_bounded() {
    let mech = Dvfs::new();
    // Predictions: what a healthy sprinting server delivers.
    let predicted = Server::new(sprint_cfg(400, 21), &mech)
        .and_then(Server::run)
        .unwrap();
    // Observations: the same server, but the budget sensor reads
    // empty, so it never sprints and responses inflate.
    let plan = FaultPlan {
        seed: 3,
        budget_drift_secs: -1e9,
        ..FaultPlan::default()
    };
    let observed = Server::with_faults(sprint_cfg(400, 21), &mech, plan)
        .and_then(Server::run)
        .unwrap();

    let mut monitor = ModelHealthMonitor::new(BreakerConfig {
        window: 64,
        min_samples: 16,
        warn_divergence: 0.1,
        trip_divergence: 0.25,
        recalibration_tolerance: 0.1,
    })
    .unwrap();
    for (p, o) in predicted.records().iter().zip(observed.records()) {
        monitor.observe(
            p.response_time().as_secs_f64(),
            o.response_time().as_secs_f64(),
        );
        if monitor.level() == DegradationLevel::NoSprint {
            break;
        }
    }
    assert!(
        monitor.trips() >= 1,
        "drift-starved sprinting must trip the breaker (divergence {:?})",
        monitor.divergence()
    );
    assert!(!monitor.sprint_allowed());

    // The tripped breaker's fallback is the no-sprint policy: its tail
    // must stay within 2X of an honest no-sprint baseline.
    let fallback = Server::new(no_sprint_cfg(400, 33), &mech)
        .and_then(Server::run)
        .unwrap();
    let baseline = Server::new(no_sprint_cfg(400, 77), &mech)
        .and_then(Server::run)
        .unwrap();
    let fallback_p99 = fallback.response_quantile_secs(0.99);
    let baseline_p99 = baseline.response_quantile_secs(0.99);
    assert!(
        fallback_p99 <= 2.0 * baseline_p99,
        "fallback p99 {fallback_p99} vs no-sprint baseline p99 {baseline_p99}"
    );
}

/// The random forest returns finite predictions inside and slightly
/// outside the training range.
#[test]
fn forest_predictions_finite() {
    use model_sprint::mlcore::Dataset;
    let mut rng = SimRng::new(0xF03E);
    for _ in 0..6 {
        let slope = rng.uniform(0.5, 3.0);
        let mut d = Dataset::new(vec!["x", "z"]);
        for i in 0..80 {
            let x = i as f64;
            let z = ((i * 13) % 7) as f64;
            d.push(vec![x, z], slope * x + z);
        }
        let cfg = ForestConfig {
            seed: rng.next_u64() % 100,
            ..ForestConfig::default()
        };
        let f = RandomForest::train(&d, 0, cfg);
        for probe in [[-5.0, 0.0], [0.0, 3.0], [40.0, 6.0], [90.0, 1.0]] {
            assert!(f.predict(&probe).is_finite());
        }
    }
}

/// Welford merge equals sequential accumulation.
#[test]
fn welford_merge_matches_sequential() {
    let mut rng = SimRng::new(0x3E1F);
    for _ in 0..20 {
        let n = 2 + (rng.next_u64() % 198) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-1e3, 1e3)).collect();
        let split = (rng.next_u64() as usize) % n;
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-6);
        assert!((a.variance() - whole.variance()).abs() < 1e-3);
    }
}

/// Simulated annealing never evaluates outside its bounds and its
/// best value is consistent with its trace.
#[test]
fn annealing_respects_bounds() {
    use model_sprint::profiler::{Condition, WorkloadProfile};

    struct Quad(WorkloadProfile);
    impl ResponseTimeModel for Quad {
        fn name(&self) -> &'static str {
            "quad"
        }
        fn predict_response_secs(&self, c: &Condition) -> f64 {
            100.0 + (c.timeout_secs - 77.0).powi(2) / 100.0
        }
        fn profile(&self) -> &WorkloadProfile {
            &self.0
        }
    }
    let profile = WorkloadProfile {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        mechanism: "x".into(),
        mu: Rate::per_hour(50.0),
        mu_m: Rate::per_hour(75.0),
        service_samples_secs: vec![70.0],
        profiling_hours: 0.0,
    };
    let base = Condition {
        utilization: 0.5,
        arrival_kind: DistKind::Exponential,
        timeout_secs: 0.0,
        budget_frac: 0.2,
        refill_secs: 200.0,
    };
    let mut rng = SimRng::new(0xA213);
    for _ in 0..8 {
        let lo = rng.uniform(0.0, 50.0);
        let width = rng.uniform(10.0, 300.0);
        let cfg = AnnealingConfig {
            iterations: 60,
            bounds_secs: (lo, lo + width),
            seed: rng.next_u64() % 50,
            ..AnnealingConfig::default()
        };
        let r = explore_timeout(&Quad(profile.clone()), &base, &cfg).unwrap();
        let hi = lo + width;
        assert!(r
            .trace
            .iter()
            .all(|&(t, _)| t >= lo - 1e-9 && t <= hi + 1e-9));
        let trace_best = r
            .trace
            .iter()
            .map(|&(_, rt)| rt)
            .fold(f64::INFINITY, f64::min);
        assert!((r.best_response_secs - trace_best).abs() < 1e-9);
    }
}

/// The watchdog bounds sprint duration: with every sprint stuck on,
/// the supervisor force-unsprints past the deadline, while the same
/// plan unsupervised lets sprints run arbitrarily long.
#[test]
fn watchdog_force_unsprints_stuck_sprints() {
    let mech = Dvfs::new();
    let plan = FaultPlan {
        seed: 9,
        stuck_sprint_prob: 1.0,
        ..FaultPlan::default()
    };
    let sup = SupervisorConfig {
        watchdog_secs: 15.0,
        ..SupervisorConfig::default()
    };
    let supervised = Server::with_supervision(sprint_cfg(300, 5), &mech, Some(plan.clone()), sup)
        .and_then(Server::run)
        .unwrap();
    let slack = 2.0;
    let max_sprint = |r: &model_sprint::testbed::RunResult| {
        r.records()
            .iter()
            .map(|q| q.sprint_seconds)
            .fold(0.0_f64, f64::max)
    };
    assert!(
        supervised.recovery_counters().forced_unsprints > 0,
        "stuck sprints must trip the watchdog"
    );
    assert!(
        max_sprint(&supervised) <= sup.watchdog_secs + slack,
        "supervised sprints stay under the watchdog deadline"
    );
    let unsupervised = Server::with_faults(sprint_cfg(300, 5), &mech, plan)
        .and_then(Server::run)
        .unwrap();
    assert!(
        max_sprint(&unsupervised) > sup.watchdog_secs + slack,
        "the same plan unsupervised must exceed the deadline, or the \
         watchdog assertion above is vacuous"
    );
}

/// A persistently crashing slot is quarantined after the configured
/// number of crashes, and crashes stop once it leaves the rotation.
#[test]
fn flaky_slot_is_quarantined_after_configured_crashes() {
    let mech = Dvfs::new();
    let cfg = ServerConfig {
        slots: 2,
        ..sprint_cfg(250, 13)
    };
    let plan = FaultPlan {
        seed: 21,
        bad_slot: Some(0),
        bad_slot_crash_prob: 0.95,
        max_retries: 10,
        ..FaultPlan::default()
    };
    // Watermarks far above any queue this run builds, so admission
    // control stays out of the picture and only slot supervision acts.
    let sup = SupervisorConfig {
        quarantine_after: 3,
        shed_watermark: 500,
        reject_watermark: 1_000,
        drain_watermark: 250,
        ..SupervisorConfig::default()
    };
    let r = Server::with_supervision(cfg, &mech, Some(plan), sup)
        .and_then(Server::run)
        .unwrap();
    let rec = r.recovery_counters();
    assert_eq!(rec.quarantines, 1, "exactly the bad slot is quarantined");
    assert!(
        r.fault_counters().slot_crashes <= sup.quarantine_after as u64,
        "crashes stop at the quarantine threshold, got {}",
        r.fault_counters().slot_crashes
    );
    assert_eq!(rec.requeued_queries, r.fault_counters().slot_crashes);
    assert!(r.conserves_queries());
    assert_eq!(r.served(), r.arrived(), "nothing shed at these watermarks");
}

/// Crash-requeued queries re-enter at the *head* of the queue: on a
/// single slot, service order (and thus departure order) still follows
/// arrival order even when queries crash mid-service.
#[test]
fn crash_requeue_preserves_fifo_order() {
    let mech = Dvfs::new();
    let plan = FaultPlan {
        seed: 31,
        crash_prob: 0.3,
        max_retries: 3,
        ..FaultPlan::default()
    };
    let sup = SupervisorConfig {
        shed_watermark: 500,
        reject_watermark: 1_000,
        drain_watermark: 250,
        ..SupervisorConfig::default()
    };
    let r = Server::with_supervision(sprint_cfg(200, 3), &mech, Some(plan), sup)
        .and_then(Server::run)
        .unwrap();
    assert!(
        r.records().iter().any(|q| q.retries > 0),
        "crash_prob 0.3 must requeue something"
    );
    let mut by_arrival: Vec<_> = r.records().to_vec();
    by_arrival.sort_by(|a, b| a.arrival.as_secs_f64().total_cmp(&b.arrival.as_secs_f64()));
    let mut prev_depart = 0.0;
    for q in &by_arrival {
        let depart = q.depart.as_secs_f64();
        assert!(
            depart >= prev_depart,
            "head requeue keeps single-slot FIFO: query {} departed early",
            q.id
        );
        prev_depart = depart;
    }
}

/// Under a sustained arrival storm with tight watermarks, the ladder
/// both sheds (every other arrival) and rejects (drain mode), and the
/// two buckets plus served queries exactly account for every arrival.
#[test]
fn admission_ladder_shed_and_reject_accounting() {
    let mech = Dvfs::new();
    let plan = FaultPlan {
        seed: 47,
        storms: vec![StormWindow {
            start_secs: 0.0,
            duration_secs: 50_000.0,
            multiplier: 6.0,
        }],
        ..FaultPlan::default()
    };
    let sup = SupervisorConfig {
        shed_watermark: 4,
        reject_watermark: 8,
        drain_watermark: 2,
        ..SupervisorConfig::default()
    };
    let r = Server::with_supervision(sprint_cfg(400, 29), &mech, Some(plan), sup)
        .and_then(Server::run)
        .unwrap();
    let rec = r.recovery_counters();
    assert!(
        rec.shed_queries > 0,
        "the storm must push past the shed mark"
    );
    assert!(rec.rejected_queries > 0, "and into drain mode");
    assert!(rec.degraded_secs > 0.0);
    assert_eq!(
        r.served() as u64 + rec.shed_queries + rec.rejected_queries,
        r.arrived() as u64,
        "every arrival is served, shed, or rejected"
    );
    assert!(r.conserves_queries());
    assert_eq!(r.served(), r.records().len());
}
