//! End-to-end contracts for the telemetry layer: attaching the flight
//! recorder (and enabling the metrics registry) must be invisible in
//! results, the recorder must stay bounded under load, histogram
//! buckets must be well-ordered, and a recorded run must replay its
//! event log bit-for-bit from the seed.

use model_sprint::faults::{FaultPlan, StormWindow};
use model_sprint::mechanisms::{Dvfs, Mechanism};
use model_sprint::obs::{Histogram, HISTOGRAM_BUCKETS};
use model_sprint::simcore::time::SimDuration;
use model_sprint::testbed::{
    ArrivalSpec, BudgetSpec, RunResult, Server, ServerConfig, SprintPolicy, SupervisorConfig,
};
use model_sprint::workloads::{QueryMix, WorkloadKind};

/// A supervised, faulted scenario busy enough to exercise sprints,
/// crashes, and queue-depth sampling.
fn scenario(seed: u64, num_queries: usize) -> (ServerConfig, FaultPlan) {
    let mech = Dvfs::new();
    let sustained = mech.sustained_rate(WorkloadKind::Jacobi);
    let mean_secs = sustained.mean_interval().as_secs_f64();
    let cfg = ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(sustained.scale(0.7)),
        policy: SprintPolicy::new(
            SimDuration::from_secs_f64(mean_secs * 0.5),
            BudgetSpec::FractionOfRefill(0.3),
            SimDuration::from_secs_f64(mean_secs * 10.0),
        ),
        slots: 2,
        num_queries,
        warmup: 0,
        seed,
    };
    let plan = FaultPlan {
        seed: seed ^ 0x0b5,
        crash_prob: 0.05,
        engage_failure_prob: 0.1,
        storms: vec![StormWindow {
            start_secs: mean_secs * 5.0,
            duration_secs: mean_secs * 30.0,
            multiplier: 3.0,
        }],
        ..FaultPlan::default()
    };
    (cfg, plan)
}

/// Runs the scenario supervised with a flight recorder of `capacity`
/// events attached.
fn recorded_run(
    cfg: ServerConfig,
    mech: &Dvfs,
    plan: FaultPlan,
    capacity: usize,
) -> Result<RunResult, model_sprint::simcore::SprintError> {
    let mut server = Server::with_supervision(cfg, mech, Some(plan), SupervisorConfig::default())?;
    server.attach_recorder(capacity);
    server.run()
}

/// Attaching the recorder — with the metrics registry enabled on top —
/// must not perturb a single bit of the run's results: telemetry is a
/// pure observer.
#[test]
fn recorded_run_is_byte_identical_to_pristine() {
    for seed in [3u64, 17, 91] {
        let mech = Dvfs::new();
        let (cfg, plan) = scenario(seed, 120);
        let pristine = Server::with_supervision(
            cfg.clone(),
            &mech,
            Some(plan.clone()),
            SupervisorConfig::default(),
        )
        .and_then(Server::run)
        .expect("pristine run");
        model_sprint::obs::set_enabled(true);
        let recorded = recorded_run(cfg, &mech, plan, 1024).expect("recorded run");
        model_sprint::obs::set_enabled(false);

        assert_eq!(pristine.records(), recorded.records(), "seed {seed}");
        assert_eq!(pristine.arrived(), recorded.arrived());
        assert_eq!(pristine.served(), recorded.served());
        assert_eq!(
            pristine.mean_response_secs().to_bits(),
            recorded.mean_response_secs().to_bits(),
            "summary statistics must agree bit-for-bit (seed {seed})"
        );
        assert!(pristine.telemetry().is_none());
        let t = recorded.telemetry().expect("recorded run has telemetry");
        assert!(!t.events().is_empty(), "busy run must log events");
    }
}

/// Under an arrival storm the recorder ring must cap its memory:
/// retained events never exceed capacity, overflow is counted, and
/// nothing is silently lost (recorded == retained + dropped).
#[test]
fn recorder_stays_bounded_under_arrival_storm() {
    let mech = Dvfs::new();
    let (cfg, plan) = scenario(7, 260);
    let capacity = 32;
    let run = recorded_run(cfg, &mech, plan, capacity).expect("stormy run");
    let t = run.telemetry().expect("telemetry attached");
    assert_eq!(t.capacity(), capacity);
    assert!(t.events().len() <= capacity);
    assert!(
        t.dropped() > 0,
        "260 stormy queries must overflow a 32-slot ring (recorded {})",
        t.recorded()
    );
    assert_eq!(t.recorded(), t.events().len() as u64 + t.dropped());
    // The ring keeps the most recent events: sequence numbers are
    // contiguous and end at recorded - 1.
    let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
    for w in seqs.windows(2) {
        assert_eq!(w[1], w[0] + 1, "retained tail must stay contiguous");
    }
    assert_eq!(seqs.last().copied(), Some(t.recorded() - 1));
}

/// Histogram buckets are strictly ordered and every value lands in the
/// unique bucket whose bounds contain it.
#[test]
fn histogram_buckets_are_monotone() {
    let bounds: Vec<u64> = (0..HISTOGRAM_BUCKETS)
        .map(Histogram::bucket_bound)
        .collect();
    for w in bounds.windows(2) {
        assert!(w[0] < w[1], "bucket bounds must strictly increase: {w:?}");
    }
    let probes: Vec<u64> = (0..63)
        .flat_map(|p| {
            let v = 1u64 << p;
            [v - 1, v, v + 1]
        })
        .chain([0, u64::MAX])
        .collect();
    let mut last_index = 0;
    let mut last_value = 0;
    for &v in &probes {
        let i = Histogram::bucket_index(v);
        assert!(i < HISTOGRAM_BUCKETS);
        if v >= last_value {
            assert!(i >= last_index, "bucket index must be monotone in value");
        }
        if i < HISTOGRAM_BUCKETS - 1 {
            assert!(v < Histogram::bucket_bound(i), "v={v} above bucket {i}");
        }
        if i > 0 {
            assert!(
                v >= Histogram::bucket_bound(i - 1),
                "v={v} below bucket {i}"
            );
        }
        last_index = i;
        last_value = v;
    }
}

/// Replaying a seed reproduces the *event log* bit-for-bit, not just
/// the per-query records — the recorder inherits the stack's
/// determinism contract.
#[test]
fn replay_reproduces_identical_event_log() {
    let mech = Dvfs::new();
    let run = |seed| {
        let (cfg, plan) = scenario(seed, 150);
        recorded_run(cfg, &mech, plan, 512).expect("recorded run")
    };
    for seed in [5u64, 41] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.records(), b.records(), "seed {seed}");
        assert_eq!(
            a.telemetry(),
            b.telemetry(),
            "event log must replay bit-for-bit (seed {seed})"
        );
        assert!(!a.telemetry().expect("telemetry").events().is_empty());
    }
    // Different seeds must not accidentally share a log.
    assert_ne!(run(5).telemetry(), run(41).telemetry());
}
