//! `fleet-replay`: the 100-node record/replay loop, with supervised,
//! faulted nodes and a faulted control plane.
//!
//! One op runs a batch of [`FLEETS`] fleets seeded from `--seed` on the
//! run's worker threads; each is a plain `run_fleet`, then a
//! `run_fleet_journaled` record and a second one as the replay, then
//! `Journal::diff`. It is the only workload where the reactor, the
//! testbed server and its supervisor, fault injection and the fleet
//! control plane do most of the work, and the only one that journals.
//!
//! A batch rather than one fleet per op: the host this was tuned on
//! switches every few seconds between a fast and a ~1.5× slower state
//! for memory-heavy code, so the median of ~80 ms ops flipped between
//! the two states from run to run; an op of several fleets averages
//! over them, and over the fleets' seeds.

use faults::{FaultPlan, MessageFaults};
use fleet::{
    run_fleet, run_fleet_journaled, CoordinatorCrash, FleetPartition, FleetResult, FleetSpec,
};
use testbed::SupervisorConfig;

use crate::harness::{par_map, Digest, Workload};
use crate::layers::{
    ELECTIONS, FAULTS_INJECTED, FLEET_JOURNALED, FLEET_RUN, JOURNAL_DIFF, JOURNAL_ENTRIES,
    LEASE_EXPIRIES, LEASE_GRANTS,
};
use crate::trace::Ctx;

/// Fleet size.
const NODES: u32 = 100;
/// Fleets one op runs.
const FLEETS: u64 = 8;
/// Queries per node. `FleetSpec::small` asks for 4, which puts a
/// fleet's journal at 30–37 thousand entries, around the 2^15 at which
/// its entry vector doubles its capacity: whether any journal of a
/// batch crossed it moved `peak_rss_mb` by a quarter between seeds.
/// With 5, every batch's longest journal is past it.
const QUERIES_PER_NODE: u32 = 5;

/// The fleets one op runs, and the workers it runs them on.
pub struct FleetReplay {
    specs: Vec<FleetSpec>,
    threads: usize,
}

/// `FleetSpec::small` at `seed`, with [`QUERIES_PER_NODE`] queries per
/// node and faults at every level: per node, stuck sprints, slot
/// crashes and controller message faults under a supervisor; on the
/// control plane, message faults, a crash of the primary coordinator
/// and a partition that splits the fleet.
fn spec(seed: u64) -> Result<FleetSpec, String> {
    let mut spec = FleetSpec::small(seed, NODES).map_err(|e| e.to_string())?;
    spec.queries_total = QUERIES_PER_NODE * NODES;
    spec.template.plan = Some(FaultPlan {
        seed: seed ^ 0xFA17,
        stuck_sprint_prob: 0.1,
        crash_prob: 0.05,
        max_retries: 2,
        messages: MessageFaults {
            delay_prob: 0.1,
            delay_secs: 2.0,
            drop_prob: 0.05,
            dup_prob: 0.05,
            ..MessageFaults::default()
        },
        ..FaultPlan::default()
    });
    spec.template.supervisor = Some(SupervisorConfig::default());
    spec.faults.messages = MessageFaults {
        delay_prob: 0.2,
        delay_secs: 3.0,
        drop_prob: 0.05,
        dup_prob: 0.05,
        ..MessageFaults::default()
    };
    spec.faults.coordinator_crashes.push(CoordinatorCrash {
        coordinator: 0,
        at_secs: 90.0,
        repair_secs: 400.0,
    });
    spec.faults.partitions.push(FleetPartition {
        coords_a: vec![1],
        nodes_a_lo: 0,
        nodes_a_hi: NODES / 2,
        start_secs: 200.0,
        duration_secs: 120.0,
    });
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Everything a fleet run reports that replay must reproduce.
fn fingerprint(r: &FleetResult) -> Digest {
    let mut d = Digest::default();
    for v in [
        u64::from(r.nodes),
        r.served,
        u64::from(r.peak_held_power),
        r.forced_unsprints,
        r.violations.len() as u64,
        r.counters.total(),
    ] {
        d.u64(v);
    }
    for v in [
        r.horizon_secs,
        r.mean_response_secs,
        r.sprint_fraction,
        r.budget_utilization,
    ] {
        d.f64(v);
    }
    d.str(&format!("{:?} {:?}", r.stats, r.degradation));
    d
}

fn check(spec: &FleetSpec, what: &str, r: &FleetResult) -> Result<(), String> {
    if r.served != u64::from(spec.queries_total) {
        return Err(format!(
            "{what}: served {} of {} queries",
            r.served, spec.queries_total
        ));
    }
    if !r.invariants_clean() {
        return Err(format!("{what}: fleet invariants {:?}", r.violations));
    }
    Ok(())
}

/// Plain run, record, replay and diff of one fleet; a digest of the
/// result.
fn replay(spec: &FleetSpec, ctx: Ctx<'_>) -> Result<Digest, String> {
    let e = |e: simcore::SprintError| format!("fleet seed {}: {e}", spec.seed);
    let plain = ctx.span(FLEET_RUN, |_| run_fleet(spec)).map_err(e)?;
    let (recorded, journal) = ctx
        .span(FLEET_JOURNALED, |_| run_fleet_journaled(spec))
        .map_err(e)?;
    let (replayed, replay) = ctx
        .span(FLEET_JOURNALED, |_| run_fleet_journaled(spec))
        .map_err(e)?;
    if let Some(diff) = ctx.span(JOURNAL_DIFF, |_| journal.diff(&replay)) {
        return Err(format!(
            "fleet seed {}: replay diverged: {diff:?}",
            spec.seed
        ));
    }
    check(spec, "plain run", &plain)?;
    check(spec, "recorded run", &recorded)?;
    let digest = fingerprint(&plain);
    if fingerprint(&recorded) != digest || fingerprint(&replayed) != digest {
        return Err(format!(
            "fleet seed {}: journaled result differs from the plain run",
            spec.seed
        ));
    }
    ctx.count(JOURNAL_ENTRIES, journal.len() as f64);
    ctx.count(LEASE_GRANTS, plain.stats.grants as f64);
    ctx.count(ELECTIONS, plain.stats.elections as f64);
    ctx.count(LEASE_EXPIRIES, plain.stats.expiries as f64);
    ctx.count(FAULTS_INJECTED, plain.counters.total() as f64);
    let mut d = digest;
    d.u64(journal.len() as u64);
    Ok(d)
}

impl Workload for FleetReplay {
    fn setup(seed: u64, threads: usize, _: Ctx<'_>) -> Result<Self, String> {
        let specs = (0..FLEETS)
            .map(|i| spec(seed.wrapping_mul(FLEETS).wrapping_add(i)))
            .collect::<Result<_, _>>()?;
        Ok(FleetReplay { specs, threads })
    }

    fn op(&self, ctx: Ctx<'_>) -> Result<Digest, String> {
        let mut d = Digest::default();
        for r in par_map(&self.specs, self.threads, |spec| replay(spec, ctx)) {
            d.digest(r?);
        }
        Ok(d)
    }
}
