//! House rules for causal tracing on the single-node testbed:
//!
//! 1. **Byte-invisible when disabled** — a plain supervised run, a
//!    recorded run, and a traced run of the same faulted scenario must
//!    agree bit-for-bit on every query record and counter. Tracing is
//!    an observer, never a participant.
//! 2. **Bit-identical across replay** — two traced runs from the same
//!    seed must produce identical telemetry, span for span, because
//!    span ids are derived from the run's own counters rather than any
//!    ambient state.

use faults::{FaultPlan, MessageFaults};
use mechanisms::Dvfs;
use obs::{FlightRecorder, SpanKind, TraceGraph};
use simcore::time::{Rate, SimDuration};
use testbed::{
    ArrivalSpec, BudgetSpec, RunResult, Server, ServerConfig, SprintPolicy, SupervisorConfig,
};
use workloads::{QueryMix, WorkloadKind};

/// A faulted scenario busy enough to open sprint spans and link
/// message-fault causes: every sprint sticks on (watchdog recovery),
/// and the control channel both drops and delays messages.
fn setup(seed: u64) -> (ServerConfig, FaultPlan, SupervisorConfig) {
    let cfg = ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(Rate::per_hour(3.0)),
        policy: SprintPolicy::new(
            SimDuration::ZERO,
            BudgetSpec::Seconds(10.0),
            SimDuration::from_secs(1_000_000),
        ),
        slots: 1,
        num_queries: 60,
        warmup: 0,
        seed,
    };
    let plan = FaultPlan {
        seed: seed ^ 0x7AC3,
        stuck_sprint_prob: 1.0,
        messages: MessageFaults {
            drop_prob: 0.3,
            delay_prob: 0.3,
            delay_secs: 30.0,
            ..MessageFaults::default()
        },
        ..FaultPlan::default()
    };
    let sup = SupervisorConfig {
        watchdog_secs: 20.0,
        ..SupervisorConfig::default()
    };
    (cfg, plan, sup)
}

/// Runs `setup(seed)` supervised, with a flight recorder attached when
/// `recorded` is set and causal tracing (as node 0) when `traced` is.
fn observed_run(seed: u64, recorded: bool, traced: bool) -> RunResult {
    let (cfg, plan, sup) = setup(seed);
    let mech = Dvfs::new();
    let mut server = Server::with_supervision(cfg, &mech, Some(plan), sup).unwrap();
    if recorded {
        server.attach_recorder(FlightRecorder::DEFAULT_CAPACITY);
    }
    if traced {
        server.enable_tracing(0);
    }
    server.run().unwrap()
}

#[test]
fn disabled_tracing_is_byte_invisible() {
    for seed in [3u64, 17, 91] {
        let plain = observed_run(seed, false, false);
        let recorded = observed_run(seed, true, false);
        let traced = observed_run(seed, true, true);
        for (label, run) in [("recorded", &recorded), ("traced", &traced)] {
            assert_eq!(
                plain.records(),
                run.records(),
                "{label} records, seed {seed}"
            );
            assert_eq!(
                plain.fault_counters(),
                run.fault_counters(),
                "{label} fault counters, seed {seed}"
            );
            assert_eq!(
                plain.recovery_counters(),
                run.recovery_counters(),
                "{label} recovery counters, seed {seed}"
            );
            assert_eq!(
                plain.arrived(),
                run.arrived(),
                "{label} arrivals, seed {seed}"
            );
        }
    }
}

#[test]
fn traced_replay_is_bit_identical_and_carries_spans() {
    let run = observed_run(17, true, true);
    let replay = observed_run(17, true, true);
    assert_eq!(
        run.telemetry(),
        replay.telemetry(),
        "span ids derive from run counters, so replayed traces must match"
    );

    let telemetry = run.telemetry().expect("traced run carries telemetry");
    let graph = TraceGraph::from_telemetry(&[telemetry]);
    assert!(
        graph.spans().any(|s| s.kind == SpanKind::SprintEpisode),
        "stuck sprints must open sprint-episode spans"
    );
    assert!(
        !graph.links().is_empty(),
        "dropped/delayed control messages must record cause links"
    );
}
