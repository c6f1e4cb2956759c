//! Run specifications: everything that determines a testbed run.
//!
//! A [`RunSpec`] captures the [`ServerConfig`], the mechanism, and the
//! optional fault plan and supervisor. Every run is a pure function of
//! its spec (one root seed, one event queue, one virtual clock), so two
//! runs of one spec journal byte for byte alike. A spec is what a
//! scenario plan's single-node run and every fleet node compile to;
//! the plan, not the spec, is what a journal file stores.

use crate::server::{NodeRecord, Server};
use crate::RunResult;
use faults::FaultPlan;
use mechanisms::{Mechanism, MechanismKind};
use reactor::Journal;
use simcore::SprintError;

use crate::policy::ServerConfig;
use crate::supervision::SupervisorConfig;

/// A complete description of one testbed run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Server configuration (workload mix, arrivals, policy, seed).
    pub cfg: ServerConfig,
    /// Sprinting mechanism under test (default-configured).
    pub mechanism: MechanismKind,
    /// Optional fault plan, including message-level faults.
    pub plan: Option<FaultPlan>,
    /// Optional supervisor configuration.
    pub supervisor: Option<SupervisorConfig>,
}

impl RunSpec {
    /// A plain run: no faults, no supervision.
    pub fn new(cfg: ServerConfig, mechanism: MechanismKind) -> RunSpec {
        RunSpec {
            cfg,
            mechanism,
            plan: None,
            supervisor: None,
        }
    }

    /// Builds the spec's server on `mech`: supervised when the spec
    /// names a supervisor, fault-injecting when it carries a plan,
    /// plain otherwise. Every server built from a spec is built here.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration, fault plan or supervisor
    /// fails validation.
    pub fn into_server(self, mech: &dyn Mechanism) -> Result<Server<'_>, SprintError> {
        match (self.plan, self.supervisor) {
            (None, None) => Server::new(self.cfg, mech),
            (Some(plan), None) => Server::with_faults(self.cfg, mech, plan),
            (plan, Some(sup)) => Server::with_supervision(self.cfg, mech, plan, sup),
        }
    }
}

/// Runs a spec to completion with the decision journal enabled.
///
/// The same spec always produces the same `(RunResult, Journal)` pair,
/// entry for entry.
///
/// # Errors
///
/// Returns an error if any configuration fails validation or a
/// simulation invariant breaks mid-run.
pub fn run_journaled(spec: &RunSpec) -> Result<(RunResult, Journal<NodeRecord>), SprintError> {
    let mech = spec.mechanism.build();
    spec.clone().into_server(&*mech)?.run_journaled()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BudgetSpec, SprintPolicy};
    use faults::MessageFaults;
    use simcore::time::{Rate, SimDuration};
    use workloads::WorkloadKind;

    #[test]
    fn same_spec_same_journal() {
        let spec = RunSpec::new(
            ServerConfig::single(
                WorkloadKind::Jacobi,
                Rate::per_hour(49.0),
                0.6,
                SprintPolicy::new(
                    SimDuration::from_secs(60),
                    BudgetSpec::Seconds(30.0),
                    SimDuration::from_secs(3600),
                ),
                11,
            ),
            MechanismKind::Dvfs,
        );
        let (r1, j1) = run_journaled(&spec).expect("runs");
        let (r2, j2) = run_journaled(&spec).expect("runs");
        assert_eq!(r1.records(), r2.records());
        assert!(!j1.is_empty());
        assert_eq!(j1.to_jsonl(), j2.to_jsonl());
    }

    /// Journaling is off unless asked for: a plain server records no
    /// journal entries, and its run is the journaled run, routing
    /// verdicts and all.
    #[test]
    fn unjournaled_server_finishes_without_a_journal() {
        let mut spec = RunSpec::new(
            ServerConfig::single(
                WorkloadKind::Jacobi,
                Rate::per_hour(25.0),
                0.6,
                SprintPolicy::new(
                    SimDuration::from_secs(40),
                    BudgetSpec::Seconds(60.0),
                    SimDuration::from_secs(3600),
                ),
                77,
            ),
            MechanismKind::CpuThrottle,
        );
        spec.plan = Some(FaultPlan {
            seed: 77,
            stuck_sprint_prob: 0.5,
            messages: MessageFaults {
                drop_prob: 0.3,
                delay_prob: 0.3,
                delay_secs: 20.0,
                ..MessageFaults::default()
            },
            ..FaultPlan::default()
        });
        spec.supervisor = Some(SupervisorConfig {
            watchdog_secs: 25.0,
            ..SupervisorConfig::default()
        });
        let mech = spec.mechanism.build();
        let mut server = spec.clone().into_server(&*mech).expect("builds");
        server.prime();
        while !server.is_done() && server.step().expect("steps") {}
        assert!(
            server.drain_journal().next().is_none(),
            "journaling must be off by default"
        );
        let plain = server.finish().expect("finishes");

        let (journaled, j) = run_journaled(&spec).expect("runs");
        assert!(j.to_jsonl().contains("route "), "no routing verdict fired");
        assert_eq!(plain.records(), journaled.records());
        assert_eq!(plain.fault_counters(), journaled.fault_counters());
        assert_eq!(plain.recovery_counters(), journaled.recovery_counters());
    }
}
