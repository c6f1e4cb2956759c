//! Integration tests for the deterministic reactor runtime: journal
//! bit-identity under message-level faults, the promise that an empty
//! message plan is behaviorally invisible, and the fleet layer's
//! fail-safe lease protocol (partition → lease lapse → forced
//! unsprint, all seed-replayable).

use faults::{FaultPlan, LinkPartition, MessageFaults, Peer};
use fleet::{run_fleet, run_fleet_journaled, FleetPartition, FleetSpec};
use mechanisms::MechanismKind;
use obs::EventKind;
use simcore::time::{Rate, SimDuration};
use testbed::spec::{run_journaled, RunSpec};
use testbed::{ArrivalSpec, BudgetSpec, ServerConfig, SprintPolicy, SupervisorConfig};
use workloads::{QueryMix, WorkloadKind};

fn base_cfg(seed: u64) -> ServerConfig {
    ServerConfig {
        mix: QueryMix::single(WorkloadKind::Jacobi),
        arrivals: ArrivalSpec::poisson(Rate::per_hour(25.0)),
        policy: SprintPolicy::new(
            SimDuration::from_secs(40),
            BudgetSpec::Seconds(60.0),
            SimDuration::from_secs(3600),
        ),
        slots: 1,
        num_queries: 70,
        warmup: 7,
        seed,
    }
}

fn supervised(seed: u64, messages: MessageFaults) -> RunSpec {
    RunSpec {
        cfg: base_cfg(seed),
        mechanism: MechanismKind::CpuThrottle,
        plan: Some(FaultPlan {
            seed: seed.wrapping_mul(0x2545_F491_4F6C_DD1D),
            stuck_sprint_prob: 0.5,
            messages,
            ..FaultPlan::default()
        }),
        supervisor: Some(SupervisorConfig {
            watchdog_secs: 25.0,
            ..SupervisorConfig::default()
        }),
    }
}

fn delay_plan() -> MessageFaults {
    MessageFaults {
        delay_prob: 0.6,
        delay_secs: 20.0,
        ..MessageFaults::default()
    }
}

fn drop_plan() -> MessageFaults {
    MessageFaults {
        drop_prob: 0.5,
        ..MessageFaults::default()
    }
}

fn partition_plan() -> MessageFaults {
    MessageFaults {
        partitions: vec![LinkPartition {
            a: Peer::Watchdog,
            b: Peer::Controller,
            start_secs: 500.0,
            duration_secs: 4000.0,
        }],
        ..MessageFaults::default()
    }
}

#[test]
fn same_seed_same_journal_under_every_message_fault_class() {
    for (label, messages) in [
        ("delay", delay_plan()),
        ("drop", drop_plan()),
        ("partition", partition_plan()),
    ] {
        let spec = supervised(0xABCD, messages);
        let (r1, j1) = run_journaled(&spec).expect("first run");
        let (r2, j2) = run_journaled(&spec).expect("second run");
        assert!(!j1.is_empty(), "{label}: journal must have entries");
        assert!(
            j1.diff(&j2).is_none(),
            "{label}: same seed diverged: {:?}",
            j1.diff(&j2)
        );
        assert_eq!(
            j1.to_jsonl(),
            j2.to_jsonl(),
            "{label}: serialized journals must match byte for byte"
        );
        assert_eq!(r1.records(), r2.records(), "{label}: records must match");
        assert_eq!(
            r1.fault_counters(),
            r2.fault_counters(),
            "{label}: counters must match"
        );
    }
}

#[test]
fn different_seeds_produce_different_journals() {
    let (_, j1) = run_journaled(&supervised(1, delay_plan())).expect("seed 1");
    let (_, j2) = run_journaled(&supervised(2, delay_plan())).expect("seed 2");
    assert!(
        j1.diff(&j2).is_some(),
        "different seeds must not share a journal"
    );
}

#[test]
fn empty_message_plan_is_invisible_in_journal_and_records() {
    // A plan whose message faults are all off must behave exactly like
    // the same plan before the reactor refactor existed: identical
    // journal, records, and counters to the plan with a default
    // MessageFaults (which is itself the pre-reactor code path, since
    // Inline delivery is a synchronous call at the send site).
    let with_empty = supervised(77, MessageFaults::default());
    let (r1, j1) = run_journaled(&with_empty).expect("empty-messages run");
    // Same plan, constructed independently — guards against hidden
    // state leaking between runs.
    let (r2, j2) = run_journaled(&with_empty.clone()).expect("clone run");
    assert!(j1.diff(&j2).is_none());
    assert_eq!(r1.records(), r2.records());
    // The journal of an empty-message run must contain no routing
    // entries at all: no message faults means no simulated network.
    assert!(
        !j1.to_jsonl().contains("route "),
        "empty message plans must not route messages"
    );
    assert_eq!(r1.fault_counters().msgs_delayed, 0);
    assert_eq!(r1.fault_counters().msgs_dropped, 0);
    assert_eq!(r1.fault_counters().msgs_duplicated, 0);
    assert_eq!(r1.fault_counters().partition_drops, 0);
}

#[test]
fn message_faults_actually_change_the_run() {
    let clean = supervised(77, MessageFaults::default());
    let faulted = supervised(77, drop_plan());
    let (rc, jc) = run_journaled(&clean).expect("clean");
    let (rf, jf) = run_journaled(&faulted).expect("faulted");
    assert!(
        jc.diff(&jf).is_some(),
        "dropping every other control message must alter the journal"
    );
    assert!(rf.fault_counters().msgs_dropped > 0);
    assert_eq!(rc.fault_counters().msgs_dropped, 0);
    // Faulted journals carry the routing verdicts for the divergence
    // hunt the replay tool performs.
    assert!(jf.to_jsonl().contains("route "));
}

fn window_partition_plan(start_secs: f64, duration_secs: f64) -> MessageFaults {
    MessageFaults {
        partitions: vec![LinkPartition {
            a: Peer::Watchdog,
            b: Peer::Controller,
            start_secs,
            duration_secs,
        }],
        ..MessageFaults::default()
    }
}

#[test]
fn healed_partition_resumes_delivery_deterministically() {
    // A partition window that closes mid-run: messages crossing the
    // link during the window drop, and delivery resumes once it heals.
    let healed = supervised(0x4EA1, window_partition_plan(400.0, 800.0));
    // The same run with the window left open forever.
    let permanent = supervised(0x4EA1, window_partition_plan(400.0, 4.0e6));

    let (rh1, jh1) = run_journaled(&healed).expect("healed run");
    let (rh2, jh2) = run_journaled(&healed).expect("healed replay");
    let (rp, _) = run_journaled(&permanent).expect("permanent run");

    // The window actually bit.
    assert!(
        rh1.fault_counters().partition_drops > 0,
        "the partition window must drop at least one crossing message"
    );
    // Healing is observable: once the window closes, crossing messages
    // deliver again, so the permanent partition drops strictly more.
    assert!(
        rp.fault_counters().partition_drops > rh1.fault_counters().partition_drops,
        "healing must stop the drops ({} healed vs {} permanent)",
        rh1.fault_counters().partition_drops,
        rp.fault_counters().partition_drops
    );
    // And the heal itself is deterministic: same seed, same journal,
    // byte for byte.
    assert!(
        jh1.diff(&jh2).is_none(),
        "healed-partition replay diverged: {:?}",
        jh1.diff(&jh2)
    );
    assert_eq!(jh1.to_jsonl(), jh2.to_jsonl());
    assert_eq!(rh1.records(), rh2.records());
}

/// A fleet of eight nodes whose coordinators are both cut off from
/// every node for `duration_secs` starting at `start_secs`: side A is
/// the two coordinators, side B is every node.
fn stranded_fleet(seed: u64, start_secs: f64, duration_secs: f64) -> FleetSpec {
    let mut spec = FleetSpec::small(seed, 8).expect("spec");
    spec.faults.partitions.push(FleetPartition {
        coords_a: vec![0, 1],
        nodes_a_lo: 0,
        nodes_a_hi: 0,
        start_secs,
        duration_secs,
    });
    spec
}

#[test]
fn lease_expiry_under_partition_force_unsprints_within_one_lease() {
    const START: f64 = 100.0;
    const DURATION: f64 = 200.0;
    let mut total_expiries = 0u64;
    let mut total_forced = 0u64;
    // Seeds chosen so at least one catches the lease holder mid-sprint
    // (whether the sole budget-1 holder happens to be sprinting at the
    // lapse instant is seed-dependent).
    for seed in [2_u64, 6, 14, 16] {
        let spec = stranded_fleet(seed, START, DURATION);
        let lease = spec.lease_secs;
        let result = run_fleet(&spec).expect("fleet run");
        assert!(
            result.invariants_clean(),
            "seed {seed:#x}: {:?}",
            result.violations
        );
        total_expiries += result.stats.expiries;
        total_forced += result.forced_unsprints;

        let mut lapses_in_window = 0u32;
        for ev in result.telemetry.events() {
            let t = ev.at.as_secs_f64();
            match ev.kind {
                // Any lease alive when the partition cut the nodes off
                // was granted before START, so it lapses no later than
                // START + lease_secs: the fail-safe window is one lease
                // duration, the fleet analogue of a watchdog period.
                EventKind::LeaseExpired { .. } if (START..START + DURATION).contains(&t) => {
                    assert!(
                        t <= START + lease,
                        "seed {seed:#x}: lease lapsed at {t:.1}s, after the \
                         one-lease fail-safe bound ({:.1}s)",
                        START + lease
                    );
                    lapses_in_window += 1;
                }
                // With every node cut off from every coordinator, no
                // grant can be delivered inside the window.
                EventKind::LeaseGranted { .. } => {
                    assert!(
                        !(t > START && t < START + DURATION),
                        "seed {seed:#x}: grant delivered at {t:.1}s inside a \
                         total partition [{START:.1}, {:.1})",
                        START + DURATION
                    );
                }
                _ => {}
            }
        }
        assert!(
            lapses_in_window > 0,
            "seed {seed:#x}: stranded nodes must lose their leases"
        );
    }
    assert!(total_expiries > 0);
    // Across the seeds, at least one node is mid-sprint when its lease
    // lapses, and the lapse force-ends the sprint immediately.
    assert!(
        total_forced > 0,
        "a lapse caught mid-sprint must force-unsprint the node"
    );
}

#[test]
fn hundred_node_fleet_replays_bit_identically() {
    let spec = FleetSpec::small(0xF1EE7, 100).expect("spec");
    let (r1, j1) = run_fleet_journaled(&spec).expect("first run");
    let (r2, j2) = run_fleet_journaled(&spec).expect("replay");
    assert!(!j1.is_empty());
    assert!(
        j1.diff(&j2).is_none(),
        "100-node fleet replay diverged: {:?}",
        j1.diff(&j2)
    );
    assert_eq!(j1.to_jsonl(), j2.to_jsonl());
    // Entries land in the order the interleave ran them, and it never
    // steps back in virtual time.
    let backward = j1.entries().windows(2).position(|w| w[1].t_us < w[0].t_us);
    assert_eq!(backward, None, "fleet journal steps back in time");
    assert_eq!(r1.served, r2.served);
    assert_eq!(r1.served, u64::from(spec.queries_total));
    assert!(r1.invariants_clean(), "{:?}", r1.violations);
}

#[test]
fn journal_survives_a_file_style_round_trip() {
    use reactor::Journal;
    let (_, j) = run_journaled(&supervised(5, partition_plan())).expect("run");
    let text = j.to_jsonl();
    let back = Journal::parse_jsonl(&text).expect("parse");
    assert!(j.rendered().diff(&back).is_none());
    // Tampering with one entry must be caught by the diff.
    let tampered = text.replacen("\"t_us\": ", "\"t_us\": 9", 1);
    let bad = Journal::parse_jsonl(&tampered).expect("still well-formed");
    assert!(j.rendered().diff(&bad).is_some());
}
