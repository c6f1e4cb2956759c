//! Fleet specifications.
//!
//! A [`FleetSpec`] captures everything that determines a fleet run: the
//! cluster shape (nodes, coordinators, shared sprint budget), the lease
//! and failover timing, the per-node [`RunSpec`] template, and the
//! control-plane fault model. Like the single-node [`RunSpec`], a fleet
//! run is a pure function of its spec — one root seed fans out through
//! the entropy tower to the load balancer, the control-plane network,
//! every node agent, and every embedded server — so the same spec
//! always replays the whole fleet bit-identically. A fleet scenario
//! plan compiles to a spec; a journal file stores the plan.

use faults::MessageFaults;
use simcore::rng::SimRng;
use simcore::time::{Rate, SimDuration};
use simcore::SprintError;
use testbed::policy::ArrivalSpec;
use testbed::{BudgetSpec, RunSpec, ServerConfig, SprintPolicy};

use mechanisms::MechanismKind;
use reactor::entropy::{ns, EntropyTower};
use workloads::{QueryMix, WorkloadKind};

/// Most nodes one fleet takes: a hundred times the largest fleet the
/// workspace runs. Every node's server is allocated up front, so a
/// larger count read from a scenario file must fail typed instead of
/// aborting the process on the allocation.
pub const MAX_NODES: u32 = 10_000;

/// Rejects an empty fleet and one past [`MAX_NODES`].
fn require_node_count(nodes: u32) -> Result<(), SprintError> {
    SprintError::require_nonzero("FleetSpec::nodes", nodes as usize)?;
    if nodes > MAX_NODES {
        return Err(SprintError::invalid(
            "FleetSpec::nodes",
            format!("at most {MAX_NODES} nodes, got {nodes}"),
        ));
    }
    Ok(())
}

/// A scheduled coordinator crash (and optional repair).
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorCrash {
    /// Which coordinator dies.
    pub coordinator: u32,
    /// Virtual time of the crash, seconds.
    pub at_secs: f64,
    /// Seconds until the coordinator rejoins as a standby; `0` means it
    /// never comes back.
    pub repair_secs: f64,
}

/// A fleet-level network partition: side A is a set of coordinators
/// plus a contiguous node range, side B is everyone else. While the
/// window is active, messages crossing sides are dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPartition {
    /// Coordinators on side A.
    pub coords_a: Vec<u32>,
    /// First node index on side A (inclusive).
    pub nodes_a_lo: u32,
    /// One past the last node index on side A (exclusive).
    pub nodes_a_hi: u32,
    /// Window start, seconds.
    pub start_secs: f64,
    /// Window length, seconds.
    pub duration_secs: f64,
}

impl FleetPartition {
    /// Whether the partition window is active at `now_secs`.
    pub fn active(&self, now_secs: f64) -> bool {
        now_secs >= self.start_secs && now_secs < self.start_secs + self.duration_secs
    }
}

/// Control-plane fault model for a fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetFaults {
    /// Probabilistic delay/drop/duplication applied to every
    /// control-plane message (the `partitions` field inside is unused
    /// at fleet scope and must stay empty — use
    /// [`FleetFaults::partitions`] instead).
    pub messages: MessageFaults,
    /// Scheduled fleet-level partitions.
    pub partitions: Vec<FleetPartition>,
    /// Scheduled coordinator crashes.
    pub coordinator_crashes: Vec<CoordinatorCrash>,
}

/// A complete description of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Root seed; every stream in the run derives from it.
    pub seed: u64,
    /// Number of server nodes behind the load balancer.
    pub nodes: u32,
    /// Number of sprint coordinators (first is the initial primary).
    pub coordinators: u32,
    /// Shared sprint budget: how many nodes may sprint concurrently.
    pub budget_power: u32,
    /// Lease duration, seconds. Also bounds the fail-safe window: a
    /// node cut off from every coordinator stops sprinting within one
    /// lease duration.
    pub lease_secs: f64,
    /// How long before expiry a holder starts renewing, seconds.
    pub renew_lead_secs: f64,
    /// Primary heartbeat period, seconds.
    pub heartbeat_secs: f64,
    /// Primary self-fencing: step down after this long without hearing
    /// any peer acknowledgement. Must be below `election_secs` so the
    /// old primary stops granting before a standby takes over.
    pub step_down_secs: f64,
    /// Standby election threshold: take over after this long without
    /// hearing a primary heartbeat, seconds.
    pub election_secs: f64,
    /// Node-side RPC retry timeout, seconds.
    pub retry_timeout_secs: f64,
    /// Base of the node-side capped exponential retry backoff, seconds.
    pub backoff_base_secs: f64,
    /// Backoff cap, seconds.
    pub backoff_cap_secs: f64,
    /// Cluster-wide arrival rate, queries per hour, split evenly across
    /// nodes by the load balancer.
    pub arrivals_per_hour: f64,
    /// Total queries across the cluster, split evenly (remainder to
    /// low-index nodes).
    pub queries_total: u32,
    /// Per-node run template. Arrivals, query count, and seed are
    /// overridden per node by the load balancer; mix, policy, slots,
    /// fault plan, and supervisor apply to every node as-is.
    pub template: RunSpec,
    /// Control-plane fault model.
    pub faults: FleetFaults,
}

impl FleetSpec {
    /// A small canonical fleet: `nodes` Jacobi servers, two
    /// coordinators, and a shared budget from the AWS T2.small policy
    /// via [`cloud::BurstablePolicy::fleet_sprint_budget`]. The
    /// timing constants keep failover well inside a lease duration.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] on zero nodes or more
    /// than [`MAX_NODES`].
    pub fn small(seed: u64, nodes: u32) -> Result<FleetSpec, SprintError> {
        require_node_count(nodes)?;
        let aws = cloud::BurstablePolicy::aws_t2_small();
        let budget_power = aws.fleet_sprint_budget(nodes as usize)? as u32;
        let cfg = ServerConfig {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            // Placeholder rate/count; the load balancer overrides both.
            arrivals: ArrivalSpec::poisson(Rate::per_hour(1.0)),
            policy: SprintPolicy::new(
                SimDuration::from_secs(30),
                BudgetSpec::Seconds(aws.budget_secs_per_hour),
                SimDuration::from_secs(3_600),
            ),
            slots: 1,
            num_queries: 1,
            warmup: 0,
            seed: 0,
        };
        Ok(FleetSpec {
            seed,
            nodes,
            coordinators: 2,
            budget_power,
            lease_secs: 60.0,
            renew_lead_secs: 20.0,
            heartbeat_secs: 5.0,
            step_down_secs: 15.0,
            election_secs: 25.0,
            retry_timeout_secs: 4.0,
            backoff_base_secs: 2.0,
            backoff_cap_secs: 30.0,
            arrivals_per_hour: 30.0 * nodes as f64,
            queries_total: 4 * nodes,
            template: RunSpec::new(cfg, MechanismKind::CpuThrottle),
            faults: FleetFaults::default(),
        })
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] on an empty cluster or
    /// one past [`MAX_NODES`], a zero budget, timing constants that
    /// break the failover ordering (`step_down_secs < election_secs`,
    /// `renew_lead_secs < lease_secs`, `heartbeat_secs <
    /// election_secs`), out-of-range fault windows, or message faults
    /// carrying peer-level partitions.
    pub fn validate(&self) -> Result<(), SprintError> {
        require_node_count(self.nodes)?;
        SprintError::require_nonzero("FleetSpec::coordinators", self.coordinators as usize)?;
        SprintError::require_nonzero("FleetSpec::budget_power", self.budget_power as usize)?;
        SprintError::require_positive("FleetSpec::lease_secs", self.lease_secs)?;
        SprintError::require_positive("FleetSpec::heartbeat_secs", self.heartbeat_secs)?;
        SprintError::require_positive("FleetSpec::retry_timeout_secs", self.retry_timeout_secs)?;
        SprintError::require_positive("FleetSpec::backoff_base_secs", self.backoff_base_secs)?;
        SprintError::require_positive("FleetSpec::arrivals_per_hour", self.arrivals_per_hour)?;
        SprintError::require_nonzero("FleetSpec::queries_total", self.queries_total as usize)?;
        if !(self.renew_lead_secs > 0.0 && self.renew_lead_secs < self.lease_secs) {
            return Err(SprintError::invalid(
                "FleetSpec::renew_lead_secs",
                format!(
                    "renew lead {} must sit inside the lease duration {}",
                    self.renew_lead_secs, self.lease_secs
                ),
            ));
        }
        if !(self.step_down_secs > 0.0 && self.step_down_secs < self.election_secs) {
            return Err(SprintError::invalid(
                "FleetSpec::step_down_secs",
                format!(
                    "step-down {} must precede election threshold {} so a deposed \
                     primary fences itself before its successor starts granting",
                    self.step_down_secs, self.election_secs
                ),
            ));
        }
        if self.heartbeat_secs >= self.election_secs {
            return Err(SprintError::invalid(
                "FleetSpec::heartbeat_secs",
                format!(
                    "heartbeat period {} must beat the election threshold {}",
                    self.heartbeat_secs, self.election_secs
                ),
            ));
        }
        if self.backoff_cap_secs < self.backoff_base_secs {
            return Err(SprintError::invalid(
                "FleetSpec::backoff_cap_secs",
                format!(
                    "cap {} below base {}",
                    self.backoff_cap_secs, self.backoff_base_secs
                ),
            ));
        }
        if (self.queries_total as u64) < self.nodes as u64 {
            return Err(SprintError::invalid(
                "FleetSpec::queries_total",
                format!(
                    "{} queries cannot cover {} nodes (every node needs at least one)",
                    self.queries_total, self.nodes
                ),
            ));
        }
        self.faults.messages.validate()?;
        if !self.faults.messages.partitions.is_empty() {
            return Err(SprintError::invalid(
                "FleetFaults::messages",
                "peer-level partitions are meaningless at fleet scope; \
                 use FleetFaults::partitions",
            ));
        }
        for p in &self.faults.partitions {
            if p.nodes_a_lo > p.nodes_a_hi || p.nodes_a_hi > self.nodes {
                return Err(SprintError::invalid(
                    "FleetPartition::nodes",
                    format!(
                        "node range [{}, {}) outside fleet of {}",
                        p.nodes_a_lo, p.nodes_a_hi, self.nodes
                    ),
                ));
            }
            if p.coords_a.iter().any(|&c| c >= self.coordinators) {
                return Err(SprintError::invalid(
                    "FleetPartition::coords_a",
                    format!("coordinator index outside fleet of {}", self.coordinators),
                ));
            }
            SprintError::require_non_negative("FleetPartition::start_secs", p.start_secs)?;
            SprintError::require_positive("FleetPartition::duration_secs", p.duration_secs)?;
        }
        for c in &self.faults.coordinator_crashes {
            if c.coordinator >= self.coordinators {
                return Err(SprintError::invalid(
                    "CoordinatorCrash::coordinator",
                    format!(
                        "coordinator {} outside fleet of {}",
                        c.coordinator, self.coordinators
                    ),
                ));
            }
            SprintError::require_non_negative("CoordinatorCrash::at_secs", c.at_secs)?;
            SprintError::require_non_negative("CoordinatorCrash::repair_secs", c.repair_secs)?;
        }
        Ok(())
    }

    /// Derives node `i`'s [`RunSpec`] from the template: the load
    /// balancer splits the cluster arrival rate and query count evenly
    /// (remainder queries to low-index nodes) and hands each node a
    /// seed drawn from the fleet entropy tower's `FLEET_LB` stream.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] if `i` is out of range.
    pub fn node_spec(&self, i: u32) -> Result<RunSpec, SprintError> {
        if i >= self.nodes {
            return Err(SprintError::invalid(
                "FleetSpec::node_spec",
                format!("node {i} outside fleet of {}", self.nodes),
            ));
        }
        let mut spec = self.template.clone();
        let n = self.nodes as u64;
        let total = self.queries_total as u64;
        let base = total / n;
        let extra = u64::from((i as u64) < total % n);
        spec.cfg.num_queries = (base + extra) as usize;
        spec.cfg.warmup = 0;
        spec.cfg.arrivals = ArrivalSpec {
            rate: Rate::per_hour(self.arrivals_per_hour / self.nodes as f64),
            ..self.template.cfg.arrivals.clone()
        };
        spec.cfg.seed = self.node_seed(i);
        Ok(spec)
    }

    /// The load balancer's per-node seed: one `FLEET_LB` stream off the
    /// root, split once per node index.
    pub fn node_seed(&self, i: u32) -> u64 {
        let mut tower = EntropyTower::new(self.seed);
        let mut lb = tower.stream(ns::FLEET_LB);
        lb.split(u64::from(i)).next_u64()
    }

    /// The control-plane network RNG stream.
    pub(crate) fn net_rng(&self) -> SimRng {
        let mut tower = EntropyTower::new(self.seed);
        let _ = tower.stream(ns::FLEET_LB);
        tower.stream(ns::FLEET_NET)
    }

    /// Node agent `i`'s jitter RNG stream.
    pub(crate) fn node_rng(&self, i: u32) -> SimRng {
        let mut tower = EntropyTower::new(self.seed);
        let _ = tower.stream(ns::FLEET_LB);
        let _ = tower.stream(ns::FLEET_NET);
        tower.stream(ns::FLEET_NODE).split(u64::from(i))
    }

    /// Coordinator `c`'s jitter RNG stream.
    pub(crate) fn coord_rng(&self, c: u32) -> SimRng {
        let mut tower = EntropyTower::new(self.seed);
        let _ = tower.stream(ns::FLEET_LB);
        let _ = tower.stream(ns::FLEET_NET);
        let _ = tower.stream(ns::FLEET_NODE);
        tower.stream(ns::FLEET_COORD).split(u64::from(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_spec_validates() {
        let mut spec = FleetSpec::small(42, 8).expect("small fleet");
        spec.faults.messages.drop_prob = 0.25;
        spec.faults.messages.delay_prob = 0.25;
        spec.faults.messages.delay_secs = 3.0;
        spec.faults.partitions.push(FleetPartition {
            coords_a: vec![0],
            nodes_a_lo: 0,
            nodes_a_hi: 4,
            start_secs: 100.0,
            duration_secs: 120.0,
        });
        spec.faults.coordinator_crashes.push(CoordinatorCrash {
            coordinator: 0,
            at_secs: 200.0,
            repair_secs: 300.0,
        });
        spec.validate().expect("valid");
    }

    #[test]
    fn load_balancer_split_covers_all_queries() {
        let spec = FleetSpec::small(7, 5).expect("small fleet");
        let total: usize = (0..5)
            .map(|i| spec.node_spec(i).expect("node spec").cfg.num_queries)
            .sum();
        assert_eq!(total, spec.queries_total as usize);
        // Per-node seeds are distinct and stable.
        let seeds: Vec<u64> = (0..5).map(|i| spec.node_seed(i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
        assert_eq!(seeds, (0..5).map(|i| spec.node_seed(i)).collect::<Vec<_>>());
    }

    #[test]
    fn validation_rejects_broken_failover_ordering() {
        let mut spec = FleetSpec::small(1, 4).expect("small fleet");
        spec.step_down_secs = spec.election_secs + 1.0;
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::small(1, 4).expect("small fleet");
        spec.renew_lead_secs = spec.lease_secs;
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::small(1, 4).expect("small fleet");
        spec.heartbeat_secs = spec.election_secs;
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::small(1, 4).expect("small fleet");
        spec.queries_total = 2;
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::small(1, 4).expect("small fleet");
        spec.faults.partitions.push(FleetPartition {
            coords_a: vec![9],
            nodes_a_lo: 0,
            nodes_a_hi: 1,
            start_secs: 0.0,
            duration_secs: 1.0,
        });
        assert!(spec.validate().is_err());
    }

    /// Both constructors take [`MAX_NODES`] and reject one more; `small`
    /// checks before sizing the query count, which would overflow `u32`
    /// past 1,073,741,823 nodes.
    #[test]
    fn node_count_is_bounded() {
        let mut spec = FleetSpec::small(1, MAX_NODES).expect("largest fleet");
        spec.validate().expect("largest fleet validates");
        for nodes in [MAX_NODES + 1, 2_000_000_000, u32::MAX] {
            match FleetSpec::small(1, nodes) {
                Err(SprintError::InvalidConfig { what, .. }) => {
                    assert_eq!(what, "FleetSpec::nodes")
                }
                other => panic!("{nodes} nodes: {other:?}"),
            }
        }
        spec.nodes = MAX_NODES + 1;
        spec.queries_total = 4 * spec.nodes;
        match spec.validate() {
            Err(SprintError::InvalidConfig { what, .. }) => assert_eq!(what, "FleetSpec::nodes"),
            other => panic!("validate: {other:?}"),
        }
    }

    #[test]
    fn budget_comes_from_cloud_policy() {
        // AWS T2.small certifies 0.36 of a core per node against a 0.8
        // per-sprinter draw: a 10-node fleet admits exactly 2
        // concurrent sprinters.
        let spec = FleetSpec::small(3, 10).expect("small fleet");
        assert_eq!(spec.budget_power, 2);
    }
}
