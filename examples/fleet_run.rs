//! Fleet quickstart: run a ten-node sprinting fleet under a
//! coordinator crash, watch failover happen, and replay the whole run
//! bit-identically from the same seed.
//!
//! ```text
//! cargo run --release --example fleet_run
//! ```
//!
//! The fleet layer puts N testbed servers behind a cluster load
//! balancer and arbitrates the shared sprint budget with time-bounded
//! leases: a node may sprint only while it holds an unexpired lease,
//! and every failure fails safe — if the lease lapses, the node
//! force-unsprints. To record a fleet scenario's journal to a file
//! that carries its TOML plan, then re-run and diff it:
//!
//! ```text
//! cargo run --release -p bench --bin scenario_run -- --record fleet-100-node-failover > /tmp/fleet.jsonl
//! cargo run --release -p bench --bin scenario_run -- --replay /tmp/fleet.jsonl
//! ```
//!
//! To record another fleet, copy a plan under `scenarios/`, edit it
//! (its `seed`, `[fleet] nodes`, faults) and record the copy with
//! `--dir`.

use model_sprint::fleet::{run_fleet_journaled, CoordinatorCrash, FleetSpec};
use model_sprint::simcore::SprintError;

fn main() -> Result<(), SprintError> {
    // 1. A canonical small fleet: ten Jacobi servers, two sprint
    //    coordinators, and the shared budget certified by the AWS
    //    T2.small policy (ten T2.smalls admit two concurrent
    //    sprinters).
    let mut spec = FleetSpec::small(7, 10)?;
    println!(
        "fleet: {} nodes, {} coordinators, budget {} concurrent sprinters, lease {:.0}s",
        spec.nodes, spec.coordinators, spec.budget_power, spec.lease_secs
    );

    // 2. Kill the initial primary a minute in. The standby must elect
    //    itself within election_secs and start granting in a fresh,
    //    fenced epoch; the dead coordinator rejoins as a standby later.
    spec.faults.coordinator_crashes.push(CoordinatorCrash {
        coordinator: 0,
        at_secs: 60.0,
        repair_secs: 300.0,
    });

    // 3. Run it, journaled. Every fleet run machine-checks four
    //    invariants as it goes: aggregate sprint power stays within
    //    budget (+ one lease-duration of slack around epoch changes),
    //    no two coordinators grant in the same epoch, lease lapses
    //    force-unsprint immediately, and the run converges.
    let (result, journal) = run_fleet_journaled(&spec)?;
    println!(
        "served {}/{} queries in {:.0}s, sprint fraction {:.3}, budget utilization {:.3}",
        result.served,
        spec.queries_total,
        result.horizon_secs,
        result.sprint_fraction,
        result.budget_utilization
    );
    let s = &result.stats;
    println!(
        "leases: {} grants, {} renewals, {} expiries; failover: {} elections, max epoch {}",
        s.grants, s.renewals, s.expiries, s.elections, s.max_epoch
    );
    assert!(s.elections > 0, "the standby must take over");
    assert!(result.invariants_clean(), "{:?}", result.violations);

    // 4. Same seed, same spec — same run, bit for bit. The journal is
    //    the proof: one event queue, one clock, one seed.
    let (_, replayed) = run_fleet_journaled(&spec)?;
    assert!(journal.diff(&replayed).is_none(), "replay diverged");
    println!(
        "replay: {} journal entries, bit-identical from seed {}",
        journal.len(),
        spec.seed
    );
    Ok(())
}
