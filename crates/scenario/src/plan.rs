//! The declarative scenario schema: TOML ⇄ [`ScenarioPlan`].
//!
//! A scenario file names *what* to run (workload mix, arrival trace,
//! policy, fault plan, topology) and *what must hold* (a list of
//! invariant assertions). Decoding is strict: unknown keys anywhere in
//! the document are rejected, every error is a typed
//! [`SprintError`] with context, and `decode(encode(plan)) == plan`
//! (the round-trip property test in this crate pins that).
//!
//! See `DESIGN.md` §13 for the schema reference.

use faults::{FaultPlan, LinkPartition, MessageFaults, Peer, StormWindow};
use fleet::{CoordinatorCrash, FleetPartition};
use mechanisms::MechanismKind;
use qsim::CloningFaults;
use simcore::SprintError;
use testbed::{BudgetSpec, RateSegment};
use workloads::{QueryMix, WorkloadKind};

use crate::toml::{parse, to_string, TableReader, TomlValue};

/// Which simulator executes the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One supervised server (`testbed::Server::with_supervision`).
    SingleNode,
    /// A lease-coordinated fleet (`fleet::run_fleet`).
    Fleet,
    /// Request cloning with processor-sharing slots (`qsim::cloning`).
    Cloning,
}

impl Topology {
    /// Canonical schema name.
    pub fn name(self) -> &'static str {
        match self {
            Topology::SingleNode => "single-node",
            Topology::Fleet => "fleet",
            Topology::Cloning => "cloning",
        }
    }

    /// Parses a schema name.
    pub fn parse(s: &str) -> Option<Topology> {
        match s {
            "single-node" => Some(Topology::SingleNode),
            "fleet" => Some(Topology::Fleet),
            "cloning" => Some(Topology::Cloning),
            _ => None,
        }
    }
}

/// Workload section: which queries run and which sprint mechanism
/// serves them.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    /// Mix name: a workload kind (`"jacobi"`), `"mix-i"`, or
    /// `"mix-ii"`.
    pub mix: String,
    /// Sprint mechanism.
    pub mechanism: MechanismKind,
}

impl WorkloadPlan {
    /// Resolves the mix name to a [`QueryMix`].
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] on an unknown name.
    pub fn query_mix(&self) -> Result<QueryMix, SprintError> {
        match self.mix.as_str() {
            "mix-i" => Ok(QueryMix::mix_i()),
            "mix-ii" => Ok(QueryMix::mix_ii()),
            other => WorkloadKind::parse(other)
                .map(QueryMix::single)
                .ok_or_else(|| {
                    SprintError::invalid(
                        "ScenarioPlan::workload.mix",
                        format!("unknown mix `{other}` (workload kind, mix-i, or mix-ii)"),
                    )
                }),
        }
    }
}

/// Inter-arrival distribution selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Poisson arrivals (exponential gaps).
    Poisson,
    /// Heavy-tailed Pareto gaps with the given α.
    Pareto {
        /// Pareto shape parameter.
        alpha: f64,
    },
}

/// Flash-crowd shorthand: a periodic rate spike
/// (`ArrivalSpec::poisson_with_spike`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashSpec {
    /// Rate multiplier inside the spike window.
    pub spike_multiplier: f64,
    /// Spike window length, seconds.
    pub spike_secs: f64,
    /// Repetition period, seconds.
    pub period_secs: f64,
}

/// Arrival-trace section: base rate plus an optional diurnal curve
/// (`[[arrivals.segment]]`) or flash crowd (`[arrivals.flash]`).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalsPlan {
    /// Mean arrival rate, queries per hour. For a fleet this is the
    /// *cluster-wide* rate, split evenly across nodes.
    pub rate_per_hour: f64,
    /// Inter-arrival distribution.
    pub kind: ArrivalKind,
    /// Repeating diurnal modulation segments (duration, multiplier).
    pub segments: Vec<RateSegment>,
    /// Flash-crowd shorthand; mutually exclusive with `segments`.
    pub flash: Option<FlashSpec>,
}

/// Sprint-policy section.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPlan {
    /// `false` disables sprinting entirely (`SprintPolicy::never`).
    pub enabled: bool,
    /// Timeout after arrival that triggers sprinting, seconds.
    pub timeout_secs: f64,
    /// Budget capacity: `budget_secs`, `budget_fraction` (of the refill
    /// interval) or `unlimited`.
    pub budget: BudgetSpec,
    /// Budget refill interval, seconds.
    pub refill_secs: f64,
}

/// Run-sizing section.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Queries to simulate (cluster-wide for a fleet).
    pub queries: usize,
    /// Leading queries excluded from statistics.
    pub warmup: usize,
    /// Execution slots per server.
    pub slots: usize,
    /// Supervisor watchdog interval, seconds (single-node only).
    pub watchdog_secs: f64,
    /// `false` runs the server without a supervisor (single-node only).
    pub supervised: bool,
    /// Flight-recorder ring size; `0` attaches none (single-node only).
    pub recorder_events: usize,
}

/// Fleet-topology section.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Number of server nodes.
    pub nodes: u32,
    /// Scheduled fleet-level partitions.
    pub partitions: Vec<FleetPartition>,
    /// Scheduled coordinator crashes.
    pub crashes: Vec<CoordinatorCrash>,
    /// Probabilistic control-plane message faults.
    pub messages: MessageFaults,
}

/// Cloning-topology section.
#[derive(Debug, Clone, PartialEq)]
pub struct CloningPlan {
    /// Clones per request.
    pub clones: usize,
    /// PS execution slots.
    pub slots: usize,
    /// Mean exponential per-clone service requirement, seconds.
    pub mean_service_secs: f64,
    /// Sprint speedup multiplier.
    pub sprint_speedup: f64,
    /// Sprint timeout, seconds; `inf` disables sprinting.
    pub timeout_secs: f64,
    /// Sprint budget capacity, sprint-seconds.
    pub budget_secs: f64,
    /// Budget refill interval, seconds.
    pub refill_secs: f64,
    /// Cloning fault classes.
    pub faults: CloningFaults,
}

/// Comparison operator for metric invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricOp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `==` (exact)
    Eq,
}

impl MetricOp {
    /// Schema spelling.
    pub fn name(self) -> &'static str {
        match self {
            MetricOp::Le => "<=",
            MetricOp::Ge => ">=",
            MetricOp::Lt => "<",
            MetricOp::Gt => ">",
            MetricOp::Eq => "==",
        }
    }

    /// Parses a schema spelling.
    pub fn parse(s: &str) -> Option<MetricOp> {
        match s {
            "<=" => Some(MetricOp::Le),
            ">=" => Some(MetricOp::Ge),
            "<" => Some(MetricOp::Lt),
            ">" => Some(MetricOp::Gt),
            "==" => Some(MetricOp::Eq),
            _ => None,
        }
    }

    /// Applies the comparison.
    pub fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            MetricOp::Le => lhs <= rhs,
            MetricOp::Ge => lhs >= rhs,
            MetricOp::Lt => lhs < rhs,
            MetricOp::Gt => lhs > rhs,
            MetricOp::Eq => lhs == rhs,
        }
    }
}

/// One machine-checked assertion over the executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantSpec {
    /// Query/clone conservation (nothing lost, nothing double-counted).
    Conservation,
    /// Rerunning the identical plan reproduces the identical outcome.
    Replay,
    /// A fault-free twin differs only within the watchdog reaction
    /// bound (single-node).
    CleanTwinBounded {
        /// Extra allowance beyond the watchdog interval, seconds.
        slack_secs: f64,
    },
    /// `metric op value` over the executed run's metric namespace.
    Metric {
        /// Metric name (see `exec::metric_names`).
        metric: String,
        /// Comparison operator.
        op: MetricOp,
        /// Right-hand side.
        value: f64,
    },
    /// The traced run's dominant root cause must match
    /// (`obs::CauseReason` name).
    RootCause {
        /// Expected cause name, e.g. `"message-drop"`.
        expect: String,
    },
    /// The fleet's machine-checked invariants must all hold.
    FleetClean,
    /// Sprint-seconds spent must not exceed capacity plus refill over
    /// the horizon.
    BudgetConservation {
        /// Slack in sprint-seconds.
        slack_secs: f64,
    },
    /// Cloning only: the incremental engine must be bit-identical to
    /// the reference engine.
    BitIdentity,
    /// Single-node only: the plan's server with an all-off fault plan
    /// must be bit-identical to the same server with no plan.
    NoopFaults,
}

/// A parsed, validated scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPlan {
    /// Unique catalog name (matches the file stem by convention).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Root seed.
    pub seed: u64,
    /// Whether the verdict is expected to be seed-independent; the
    /// seed-matrix sweep re-runs only these at extra seeds (mirrors
    /// `paper_parity --seeds`).
    pub cross_seed: bool,
    /// Which simulator runs it.
    pub topology: Topology,
    /// Workload section (ignored by the cloning topology).
    pub workload: WorkloadPlan,
    /// Arrival-trace section.
    pub arrivals: ArrivalsPlan,
    /// Sprint-policy section.
    pub policy: PolicyPlan,
    /// Run sizing.
    pub run: RunPlan,
    /// Single-node fault plan.
    pub faults: FaultPlan,
    /// Fleet section (required iff topology is `fleet`).
    pub fleet: Option<FleetPlan>,
    /// Cloning section (required iff topology is `cloning`).
    pub cloning: Option<CloningPlan>,
    /// Machine-checked assertions, evaluated in order.
    pub invariants: Vec<InvariantSpec>,
}

impl ScenarioPlan {
    /// Parses and validates a TOML document.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] on syntax or schema errors and
    /// [`SprintError::InvalidConfig`] on semantic ones.
    pub fn from_toml_str(input: &str) -> Result<ScenarioPlan, SprintError> {
        let doc = parse(input)?;
        let plan = decode(&doc)?;
        plan.validate()?;
        Ok(plan)
    }

    /// Serializes back to canonical TOML.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Parse`] if the plan is not representable
    /// (cannot happen for a decoded plan).
    pub fn to_toml_string(&self) -> Result<String, SprintError> {
        to_string(&encode(self))
    }

    /// Semantic validation beyond the schema: section/topology
    /// agreement and invariant applicability.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), SprintError> {
        let ctx = |what: &str, details: String| {
            Err(SprintError::invalid(
                "ScenarioPlan",
                format!("{}: {what}: {details}", self.name),
            ))
        };
        if self.name.is_empty() {
            return ctx("name", "must not be empty".to_string());
        }
        SprintError::require_positive(
            "ScenarioPlan::arrivals.rate_per_hour",
            self.arrivals.rate_per_hour,
        )?;
        if let ArrivalKind::Pareto { alpha } = self.arrivals.kind {
            SprintError::require_positive("ScenarioPlan::arrivals.alpha", alpha)?;
        }
        if self.arrivals.flash.is_some() && !self.arrivals.segments.is_empty() {
            return ctx(
                "arrivals",
                "flash and segment modulation are mutually exclusive".to_string(),
            );
        }
        SprintError::require_non_negative(
            "ScenarioPlan::policy.timeout_secs",
            self.policy.timeout_secs,
        )?;
        SprintError::require_positive("ScenarioPlan::policy.refill_secs", self.policy.refill_secs)?;
        match self.policy.budget {
            BudgetSpec::Seconds(s) => {
                SprintError::require_non_negative("ScenarioPlan::policy.budget_secs", s)?;
            }
            BudgetSpec::FractionOfRefill(f) => {
                SprintError::require_non_negative("ScenarioPlan::policy.budget_fraction", f)?;
            }
            BudgetSpec::Unlimited => {}
        }
        SprintError::require_nonzero("ScenarioPlan::run.queries", self.run.queries)?;
        SprintError::require_nonzero("ScenarioPlan::run.slots", self.run.slots)?;
        if self.run.warmup >= self.run.queries {
            return ctx(
                "run.warmup",
                format!(
                    "{} must stay below queries {}",
                    self.run.warmup, self.run.queries
                ),
            );
        }
        SprintError::require_positive("ScenarioPlan::run.watchdog_secs", self.run.watchdog_secs)?;
        self.workload.query_mix()?;
        match self.topology {
            Topology::Fleet => {
                let Some(f) = &self.fleet else {
                    return ctx(
                        "fleet",
                        "fleet topology needs a [fleet] section".to_string(),
                    );
                };
                if f.nodes == 0 {
                    return ctx("fleet.nodes", "must be positive".to_string());
                }
                if self.cloning.is_some() {
                    return ctx("cloning", "not valid for fleet topology".to_string());
                }
            }
            Topology::Cloning => {
                let Some(c) = &self.cloning else {
                    return ctx(
                        "cloning",
                        "cloning topology needs a [cloning] section".to_string(),
                    );
                };
                if self.fleet.is_some() {
                    return ctx("fleet", "not valid for cloning topology".to_string());
                }
                SprintError::require_nonzero("ScenarioPlan::cloning.clones", c.clones)?;
                SprintError::require_nonzero("ScenarioPlan::cloning.slots", c.slots)?;
                SprintError::require_positive(
                    "ScenarioPlan::cloning.mean_service_secs",
                    c.mean_service_secs,
                )?;
                c.faults.validate()?;
            }
            Topology::SingleNode => {
                if self.fleet.is_some() {
                    return ctx("fleet", "not valid for single-node topology".to_string());
                }
                if self.cloning.is_some() {
                    return ctx("cloning", "not valid for single-node topology".to_string());
                }
            }
        }
        if self.topology != Topology::SingleNode
            && (!self.run.supervised || self.run.recorder_events > 0)
        {
            return ctx(
                "run",
                format!(
                    "supervised and recorder_events do not apply to {} topology",
                    self.topology.name()
                ),
            );
        }
        if self.invariants.is_empty() {
            return ctx(
                "invariant",
                "a scenario must assert at least one invariant".to_string(),
            );
        }
        for inv in &self.invariants {
            let ok = match inv {
                InvariantSpec::Conservation
                | InvariantSpec::Replay
                | InvariantSpec::Metric { .. } => true,
                InvariantSpec::CleanTwinBounded { .. } | InvariantSpec::NoopFaults => {
                    self.topology == Topology::SingleNode
                }
                InvariantSpec::RootCause { .. } => self.topology != Topology::Cloning,
                InvariantSpec::FleetClean => self.topology == Topology::Fleet,
                InvariantSpec::BudgetConservation { .. } => self.topology != Topology::Fleet,
                InvariantSpec::BitIdentity => self.topology == Topology::Cloning,
            };
            if !ok {
                return ctx(
                    "invariant",
                    format!(
                        "{inv:?} does not apply to {} topology",
                        self.topology.name()
                    ),
                );
            }
            if let InvariantSpec::RootCause { expect } = inv {
                if !matches!(
                    expect.as_str(),
                    "message-drop"
                        | "message-delay"
                        | "partition"
                        | "lease-lapse"
                        | "renewal-timeout"
                ) {
                    return ctx("invariant.expect", format!("unknown root cause `{expect}`"));
                }
            }
        }
        Ok(())
    }
}

fn semantic(what: &'static str, details: impl Into<String>) -> SprintError {
    SprintError::invalid(what, details)
}

fn decode(doc: &TomlValue) -> Result<ScenarioPlan, SprintError> {
    let mut top = TableReader::new("scenario", doc)?;
    let name = top.str("name")?;
    let description = top.opt_str("description")?.unwrap_or_default();
    let seed = top.u64_or("seed", 0)?;
    let cross_seed = top.bool_or("cross_seed", false)?;
    let topology_name = top.str("topology")?;
    let topology = Topology::parse(&topology_name).ok_or_else(|| {
        semantic(
            "ScenarioPlan::topology",
            format!("unknown topology `{topology_name}` (single-node, fleet, or cloning)"),
        )
    })?;

    let workload = match top.opt("workload") {
        Some(v) => {
            let mut w = TableReader::new("workload", v)?;
            let mix = w.str("mix")?;
            let mech_name = w
                .opt_str("mechanism")?
                .unwrap_or_else(|| "CpuThrottle".to_string());
            let mechanism = MechanismKind::parse(&mech_name).ok_or_else(|| {
                semantic(
                    "ScenarioPlan::workload.mechanism",
                    format!("unknown mechanism `{mech_name}`"),
                )
            })?;
            w.finish()?;
            WorkloadPlan { mix, mechanism }
        }
        None => WorkloadPlan {
            mix: "jacobi".to_string(),
            mechanism: MechanismKind::CpuThrottle,
        },
    };

    let arrivals = match top.opt("arrivals") {
        Some(v) => decode_arrivals(v)?,
        None => ArrivalsPlan {
            rate_per_hour: 3.0,
            kind: ArrivalKind::Poisson,
            segments: Vec::new(),
            flash: None,
        },
    };

    let policy = match top.opt("policy") {
        Some(v) => decode_policy(v)?,
        None => PolicyPlan {
            enabled: false,
            timeout_secs: 0.0,
            budget: BudgetSpec::Unlimited,
            refill_secs: 3_600.0,
        },
    };

    let run = match top.opt("run") {
        Some(v) => {
            let mut r = TableReader::new("run", v)?;
            let plan = RunPlan {
                queries: r.usize("queries")?,
                warmup: r.usize_or("warmup", 0)?,
                slots: r.usize_or("slots", 1)?,
                watchdog_secs: r.f64_or("watchdog_secs", 240.0)?,
                supervised: r.bool_or("supervised", true)?,
                recorder_events: r.usize_or("recorder_events", 0)?,
            };
            r.finish()?;
            plan
        }
        None => {
            return Err(SprintError::Parse(
                "scenario: missing [run] section".to_string(),
            ))
        }
    };

    let faults = match top.opt("faults") {
        Some(v) => decode_faults(v)?,
        None => FaultPlan::default(),
    };
    let fleet = match top.opt("fleet") {
        Some(v) => Some(decode_fleet(v)?),
        None => None,
    };
    let cloning = match top.opt("cloning") {
        Some(v) => Some(decode_cloning(v)?),
        None => None,
    };

    let mut invariants = Vec::new();
    for inv in top.tables("invariant")? {
        invariants.push(decode_invariant(inv)?);
    }
    top.finish()?;

    Ok(ScenarioPlan {
        name,
        description,
        seed,
        cross_seed,
        topology,
        workload,
        arrivals,
        policy,
        run,
        faults,
        fleet,
        cloning,
        invariants,
    })
}

fn decode_arrivals(v: &TomlValue) -> Result<ArrivalsPlan, SprintError> {
    let mut a = TableReader::new("arrivals", v)?;
    let rate_per_hour = a.f64("rate_per_hour")?;
    let kind_name = a.opt_str("kind")?.unwrap_or_else(|| "poisson".to_string());
    let kind = match kind_name.as_str() {
        "poisson" => ArrivalKind::Poisson,
        "pareto" => ArrivalKind::Pareto {
            alpha: a.f64("alpha")?,
        },
        other => {
            return Err(semantic(
                "ScenarioPlan::arrivals.kind",
                format!("unknown kind `{other}` (poisson or pareto)"),
            ))
        }
    };
    let flash = match a.opt("flash") {
        Some(fv) => {
            let mut f = TableReader::new("arrivals.flash", fv)?;
            let spec = FlashSpec {
                spike_multiplier: f.f64("spike_multiplier")?,
                spike_secs: f.f64("spike_secs")?,
                period_secs: f.f64("period_secs")?,
            };
            f.finish()?;
            Some(spec)
        }
        None => None,
    };
    let mut segments = Vec::new();
    for sv in a.tables("segment")? {
        let mut s = TableReader::new("arrivals.segment", sv)?;
        segments.push(RateSegment {
            duration_secs: s.f64("duration_secs")?,
            rate_multiplier: s.f64("rate_multiplier")?,
        });
        s.finish()?;
    }
    a.finish()?;
    Ok(ArrivalsPlan {
        rate_per_hour,
        kind,
        segments,
        flash,
    })
}

fn decode_policy(v: &TomlValue) -> Result<PolicyPlan, SprintError> {
    let mut p = TableReader::new("policy", v)?;
    let enabled = p.bool_or("enabled", true)?;
    let timeout_secs = p.f64_or("timeout_secs", 0.0)?;
    let refill_secs = p.f64_or("refill_secs", 3_600.0)?;
    let budget_secs = p.opt_f64("budget_secs")?;
    let budget_fraction = p.opt_f64("budget_fraction")?;
    let unlimited = p.bool_or("unlimited", false)?;
    let budget = match (budget_secs, budget_fraction, unlimited) {
        (Some(s), None, false) => BudgetSpec::Seconds(s),
        (None, Some(f), false) => BudgetSpec::FractionOfRefill(f),
        (None, None, _) => BudgetSpec::Unlimited,
        _ => {
            return Err(semantic(
                "ScenarioPlan::policy",
                "budget_secs, budget_fraction and unlimited are mutually exclusive",
            ))
        }
    };
    p.finish()?;
    Ok(PolicyPlan {
        enabled,
        timeout_secs,
        budget,
        refill_secs,
    })
}

fn decode_faults(v: &TomlValue) -> Result<FaultPlan, SprintError> {
    let mut f = TableReader::new("faults", v)?;
    let mut plan = FaultPlan {
        seed: f.u64_or("seed", 0)?,
        engage_failure_prob: f.f64_or("engage_failure_prob", 0.0)?,
        stuck_sprint_prob: f.f64_or("stuck_sprint_prob", 0.0)?,
        budget_drift_secs: f.f64_or("budget_drift_secs", 0.0)?,
        crash_prob: f.f64_or("crash_prob", 0.0)?,
        bad_slot: f.opt_usize("bad_slot")?,
        bad_slot_crash_prob: f.f64_or("bad_slot_crash_prob", 0.0)?,
        max_retries: u32::try_from(f.usize_or("max_retries", 1)?)
            .map_err(|_| semantic("ScenarioPlan::faults.max_retries", "out of range"))?,
        crash_repair_secs: f.f64_or("crash_repair_secs", 0.0)?,
        storms: Vec::new(),
        thermal_period_secs: f.f64_or("thermal_period_secs", 0.0)?,
        thermal_lockout_secs: f.f64_or("thermal_lockout_secs", 0.0)?,
        messages: MessageFaults {
            delay_prob: f.f64_or("delay_prob", 0.0)?,
            delay_secs: f.f64_or("delay_secs", 0.0)?,
            drop_prob: f.f64_or("drop_prob", 0.0)?,
            dup_prob: f.f64_or("dup_prob", 0.0)?,
            partitions: Vec::new(),
        },
    };
    for sv in f.tables("storm")? {
        let mut s = TableReader::new("faults.storm", sv)?;
        plan.storms.push(StormWindow {
            start_secs: s.f64("start_secs")?,
            duration_secs: s.f64("duration_secs")?,
            multiplier: s.f64("multiplier")?,
        });
        s.finish()?;
    }
    for pv in f.tables("partition")? {
        let mut p = TableReader::new("faults.partition", pv)?;
        let a_name = p.str("a")?;
        let b_name = p.str("b")?;
        let peer = |n: &str| {
            Peer::parse(n).ok_or_else(|| {
                semantic(
                    "ScenarioPlan::faults.partition",
                    format!("unknown peer `{n}`"),
                )
            })
        };
        plan.messages.partitions.push(LinkPartition {
            a: peer(&a_name)?,
            b: peer(&b_name)?,
            start_secs: p.f64("start_secs")?,
            duration_secs: p.f64("duration_secs")?,
        });
        p.finish()?;
    }
    f.finish()?;
    Ok(plan)
}

fn decode_fleet(v: &TomlValue) -> Result<FleetPlan, SprintError> {
    let mut f = TableReader::new("fleet", v)?;
    let nodes = u32::try_from(f.usize("nodes")?)
        .map_err(|_| semantic("ScenarioPlan::fleet.nodes", "out of range"))?;
    let messages = match f.opt("messages") {
        Some(mv) => {
            let mut m = TableReader::new("fleet.messages", mv)?;
            let msgs = MessageFaults {
                delay_prob: m.f64_or("delay_prob", 0.0)?,
                delay_secs: m.f64_or("delay_secs", 0.0)?,
                drop_prob: m.f64_or("drop_prob", 0.0)?,
                dup_prob: m.f64_or("dup_prob", 0.0)?,
                partitions: Vec::new(),
            };
            m.finish()?;
            msgs
        }
        None => MessageFaults::default(),
    };
    let mut partitions = Vec::new();
    for pv in f.tables("partition")? {
        let mut p = TableReader::new("fleet.partition", pv)?;
        let coords = match p.opt("coords_a") {
            Some(av) => av
                .as_arr()
                .ok_or_else(|| {
                    semantic("ScenarioPlan::fleet.partition.coords_a", "must be an array")
                })?
                .iter()
                .map(|c| {
                    c.as_int()
                        .and_then(|i| u32::try_from(i).ok())
                        .ok_or_else(|| {
                            semantic(
                                "ScenarioPlan::fleet.partition.coords_a",
                                "entries must be non-negative integers",
                            )
                        })
                })
                .collect::<Result<Vec<u32>, SprintError>>()?,
            None => Vec::new(),
        };
        partitions.push(FleetPartition {
            coords_a: coords,
            nodes_a_lo: u32::try_from(p.usize_or("nodes_a_lo", 0)?).map_err(|_| {
                semantic("ScenarioPlan::fleet.partition.nodes_a_lo", "out of range")
            })?,
            nodes_a_hi: u32::try_from(p.usize_or("nodes_a_hi", 0)?).map_err(|_| {
                semantic("ScenarioPlan::fleet.partition.nodes_a_hi", "out of range")
            })?,
            start_secs: p.f64("start_secs")?,
            duration_secs: p.f64("duration_secs")?,
        });
        p.finish()?;
    }
    let mut crashes = Vec::new();
    for cv in f.tables("crash")? {
        let mut c = TableReader::new("fleet.crash", cv)?;
        crashes.push(CoordinatorCrash {
            coordinator: u32::try_from(c.usize("coordinator")?)
                .map_err(|_| semantic("ScenarioPlan::fleet.crash.coordinator", "out of range"))?,
            at_secs: c.f64("at_secs")?,
            repair_secs: c.f64_or("repair_secs", 0.0)?,
        });
        c.finish()?;
    }
    f.finish()?;
    Ok(FleetPlan {
        nodes,
        partitions,
        crashes,
        messages,
    })
}

fn decode_cloning(v: &TomlValue) -> Result<CloningPlan, SprintError> {
    let mut c = TableReader::new("cloning", v)?;
    let plan = CloningPlan {
        clones: c.usize("clones")?,
        slots: c.usize("slots")?,
        mean_service_secs: c.f64("mean_service_secs")?,
        sprint_speedup: c.f64_or("sprint_speedup", 1.0)?,
        timeout_secs: c.f64_or("timeout_secs", f64::INFINITY)?,
        budget_secs: c.f64_or("budget_secs", 0.0)?,
        refill_secs: c.f64_or("refill_secs", 1.0)?,
        faults: CloningFaults {
            spawn_fail_prob: c.f64_or("spawn_fail_prob", 0.0)?,
            cancel_loss_prob: c.f64_or("cancel_loss_prob", 0.0)?,
            straggler_prob: c.f64_or("straggler_prob", 0.0)?,
            straggler_factor: c.f64_or("straggler_factor", 1.0)?,
        },
    };
    c.finish()?;
    Ok(plan)
}

fn decode_invariant(v: &TomlValue) -> Result<InvariantSpec, SprintError> {
    let mut i = TableReader::new("invariant", v)?;
    let kind = i.str("kind")?;
    let spec = match kind.as_str() {
        "conservation" => InvariantSpec::Conservation,
        "replay" => InvariantSpec::Replay,
        "clean-twin-bounded" => InvariantSpec::CleanTwinBounded {
            slack_secs: i.f64_or("slack_secs", 2.0)?,
        },
        "metric" => {
            let metric = i.str("metric")?;
            let op_name = i.str("op")?;
            let op = MetricOp::parse(&op_name).ok_or_else(|| {
                semantic(
                    "ScenarioPlan::invariant.op",
                    format!("unknown operator `{op_name}`"),
                )
            })?;
            InvariantSpec::Metric {
                metric,
                op,
                value: i.f64("value")?,
            }
        }
        "root-cause" => InvariantSpec::RootCause {
            expect: i.str("expect")?,
        },
        "fleet-clean" => InvariantSpec::FleetClean,
        "budget-conservation" => InvariantSpec::BudgetConservation {
            slack_secs: i.f64_or("slack_secs", 1.0)?,
        },
        "bit-identity" => InvariantSpec::BitIdentity,
        "noop-faults" => InvariantSpec::NoopFaults,
        other => {
            return Err(semantic(
                "ScenarioPlan::invariant.kind",
                format!("unknown invariant kind `{other}`"),
            ))
        }
    };
    i.finish()?;
    Ok(spec)
}

/// Seeds above `i64::MAX` don't fit a TOML integer and are encoded as
/// decimal strings (see `TableReader::u64_or`).
fn encode_u64(v: u64) -> TomlValue {
    match i64::try_from(v) {
        Ok(i) => TomlValue::Int(i),
        Err(_) => TomlValue::Str(v.to_string()),
    }
}

fn encode(plan: &ScenarioPlan) -> TomlValue {
    let mut root: Vec<(String, TomlValue)> = vec![
        ("name".to_string(), TomlValue::Str(plan.name.clone())),
        (
            "description".to_string(),
            TomlValue::Str(plan.description.clone()),
        ),
        ("seed".to_string(), encode_u64(plan.seed)),
        ("cross_seed".to_string(), TomlValue::Bool(plan.cross_seed)),
        (
            "topology".to_string(),
            TomlValue::Str(plan.topology.name().to_string()),
        ),
    ];
    root.push((
        "workload".to_string(),
        TomlValue::Table(vec![
            ("mix".to_string(), TomlValue::Str(plan.workload.mix.clone())),
            (
                "mechanism".to_string(),
                TomlValue::Str(plan.workload.mechanism.name().to_string()),
            ),
        ]),
    ));
    root.push(("arrivals".to_string(), encode_arrivals(&plan.arrivals)));
    root.push(("policy".to_string(), encode_policy(&plan.policy)));
    root.push(("run".to_string(), encode_run(&plan.run)));
    root.push(("faults".to_string(), encode_faults(&plan.faults)));
    if let Some(f) = &plan.fleet {
        root.push(("fleet".to_string(), encode_fleet(f)));
    }
    if let Some(c) = &plan.cloning {
        root.push(("cloning".to_string(), encode_cloning(c)));
    }
    root.push((
        "invariant".to_string(),
        TomlValue::Arr(plan.invariants.iter().map(encode_invariant).collect()),
    ));
    TomlValue::Table(root)
}

fn encode_arrivals(a: &ArrivalsPlan) -> TomlValue {
    let mut t = vec![(
        "rate_per_hour".to_string(),
        TomlValue::Float(a.rate_per_hour),
    )];
    match a.kind {
        ArrivalKind::Poisson => t.push(("kind".to_string(), TomlValue::Str("poisson".to_string()))),
        ArrivalKind::Pareto { alpha } => {
            t.push(("kind".to_string(), TomlValue::Str("pareto".to_string())));
            t.push(("alpha".to_string(), TomlValue::Float(alpha)));
        }
    }
    if let Some(f) = &a.flash {
        t.push((
            "flash".to_string(),
            TomlValue::Table(vec![
                (
                    "spike_multiplier".to_string(),
                    TomlValue::Float(f.spike_multiplier),
                ),
                ("spike_secs".to_string(), TomlValue::Float(f.spike_secs)),
                ("period_secs".to_string(), TomlValue::Float(f.period_secs)),
            ]),
        ));
    }
    if !a.segments.is_empty() {
        t.push((
            "segment".to_string(),
            TomlValue::Arr(
                a.segments
                    .iter()
                    .map(|s| {
                        TomlValue::Table(vec![
                            (
                                "duration_secs".to_string(),
                                TomlValue::Float(s.duration_secs),
                            ),
                            (
                                "rate_multiplier".to_string(),
                                TomlValue::Float(s.rate_multiplier),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    TomlValue::Table(t)
}

/// Keys added after the catalog was written are left out at their
/// defaults, so the canonical text of every plan that does not set
/// them, and the journal-file headers that carry it, stay as they were.
fn encode_run(r: &RunPlan) -> TomlValue {
    let mut t = vec![
        ("queries".to_string(), TomlValue::Int(r.queries as i64)),
        ("warmup".to_string(), TomlValue::Int(r.warmup as i64)),
        ("slots".to_string(), TomlValue::Int(r.slots as i64)),
        (
            "watchdog_secs".to_string(),
            TomlValue::Float(r.watchdog_secs),
        ),
    ];
    if !r.supervised {
        t.push(("supervised".to_string(), TomlValue::Bool(false)));
    }
    if r.recorder_events > 0 {
        t.push((
            "recorder_events".to_string(),
            TomlValue::Int(r.recorder_events as i64),
        ));
    }
    TomlValue::Table(t)
}

fn encode_policy(p: &PolicyPlan) -> TomlValue {
    let mut t = vec![
        ("enabled".to_string(), TomlValue::Bool(p.enabled)),
        ("timeout_secs".to_string(), TomlValue::Float(p.timeout_secs)),
        ("refill_secs".to_string(), TomlValue::Float(p.refill_secs)),
    ];
    match p.budget {
        BudgetSpec::Seconds(s) => t.push(("budget_secs".to_string(), TomlValue::Float(s))),
        BudgetSpec::FractionOfRefill(f) => {
            t.push(("budget_fraction".to_string(), TomlValue::Float(f)))
        }
        BudgetSpec::Unlimited => t.push(("unlimited".to_string(), TomlValue::Bool(true))),
    }
    TomlValue::Table(t)
}

fn encode_faults(f: &FaultPlan) -> TomlValue {
    let mut t = vec![
        ("seed".to_string(), encode_u64(f.seed)),
        (
            "engage_failure_prob".to_string(),
            TomlValue::Float(f.engage_failure_prob),
        ),
        (
            "stuck_sprint_prob".to_string(),
            TomlValue::Float(f.stuck_sprint_prob),
        ),
        (
            "budget_drift_secs".to_string(),
            TomlValue::Float(f.budget_drift_secs),
        ),
        ("crash_prob".to_string(), TomlValue::Float(f.crash_prob)),
        (
            "bad_slot_crash_prob".to_string(),
            TomlValue::Float(f.bad_slot_crash_prob),
        ),
        (
            "max_retries".to_string(),
            TomlValue::Int(i64::from(f.max_retries)),
        ),
        (
            "crash_repair_secs".to_string(),
            TomlValue::Float(f.crash_repair_secs),
        ),
        (
            "thermal_period_secs".to_string(),
            TomlValue::Float(f.thermal_period_secs),
        ),
        (
            "thermal_lockout_secs".to_string(),
            TomlValue::Float(f.thermal_lockout_secs),
        ),
        (
            "delay_prob".to_string(),
            TomlValue::Float(f.messages.delay_prob),
        ),
        (
            "delay_secs".to_string(),
            TomlValue::Float(f.messages.delay_secs),
        ),
        (
            "drop_prob".to_string(),
            TomlValue::Float(f.messages.drop_prob),
        ),
        (
            "dup_prob".to_string(),
            TomlValue::Float(f.messages.dup_prob),
        ),
    ];
    if let Some(b) = f.bad_slot {
        t.push(("bad_slot".to_string(), TomlValue::Int(b as i64)));
    }
    if !f.storms.is_empty() {
        t.push((
            "storm".to_string(),
            TomlValue::Arr(
                f.storms
                    .iter()
                    .map(|s| {
                        TomlValue::Table(vec![
                            ("start_secs".to_string(), TomlValue::Float(s.start_secs)),
                            (
                                "duration_secs".to_string(),
                                TomlValue::Float(s.duration_secs),
                            ),
                            ("multiplier".to_string(), TomlValue::Float(s.multiplier)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !f.messages.partitions.is_empty() {
        t.push((
            "partition".to_string(),
            TomlValue::Arr(
                f.messages
                    .partitions
                    .iter()
                    .map(|p| {
                        TomlValue::Table(vec![
                            ("a".to_string(), TomlValue::Str(p.a.name().to_string())),
                            ("b".to_string(), TomlValue::Str(p.b.name().to_string())),
                            ("start_secs".to_string(), TomlValue::Float(p.start_secs)),
                            (
                                "duration_secs".to_string(),
                                TomlValue::Float(p.duration_secs),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    TomlValue::Table(t)
}

fn encode_fleet(f: &FleetPlan) -> TomlValue {
    let mut t = vec![("nodes".to_string(), TomlValue::Int(i64::from(f.nodes)))];
    t.push((
        "messages".to_string(),
        TomlValue::Table(vec![
            (
                "delay_prob".to_string(),
                TomlValue::Float(f.messages.delay_prob),
            ),
            (
                "delay_secs".to_string(),
                TomlValue::Float(f.messages.delay_secs),
            ),
            (
                "drop_prob".to_string(),
                TomlValue::Float(f.messages.drop_prob),
            ),
            (
                "dup_prob".to_string(),
                TomlValue::Float(f.messages.dup_prob),
            ),
        ]),
    ));
    if !f.partitions.is_empty() {
        t.push((
            "partition".to_string(),
            TomlValue::Arr(
                f.partitions
                    .iter()
                    .map(|p| {
                        TomlValue::Table(vec![
                            (
                                "coords_a".to_string(),
                                TomlValue::Arr(
                                    p.coords_a
                                        .iter()
                                        .map(|c| TomlValue::Int(i64::from(*c)))
                                        .collect(),
                                ),
                            ),
                            (
                                "nodes_a_lo".to_string(),
                                TomlValue::Int(i64::from(p.nodes_a_lo)),
                            ),
                            (
                                "nodes_a_hi".to_string(),
                                TomlValue::Int(i64::from(p.nodes_a_hi)),
                            ),
                            ("start_secs".to_string(), TomlValue::Float(p.start_secs)),
                            (
                                "duration_secs".to_string(),
                                TomlValue::Float(p.duration_secs),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !f.crashes.is_empty() {
        t.push((
            "crash".to_string(),
            TomlValue::Arr(
                f.crashes
                    .iter()
                    .map(|c| {
                        TomlValue::Table(vec![
                            (
                                "coordinator".to_string(),
                                TomlValue::Int(i64::from(c.coordinator)),
                            ),
                            ("at_secs".to_string(), TomlValue::Float(c.at_secs)),
                            ("repair_secs".to_string(), TomlValue::Float(c.repair_secs)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    TomlValue::Table(t)
}

fn encode_cloning(c: &CloningPlan) -> TomlValue {
    TomlValue::Table(vec![
        ("clones".to_string(), TomlValue::Int(c.clones as i64)),
        ("slots".to_string(), TomlValue::Int(c.slots as i64)),
        (
            "mean_service_secs".to_string(),
            TomlValue::Float(c.mean_service_secs),
        ),
        (
            "sprint_speedup".to_string(),
            TomlValue::Float(c.sprint_speedup),
        ),
        ("timeout_secs".to_string(), TomlValue::Float(c.timeout_secs)),
        ("budget_secs".to_string(), TomlValue::Float(c.budget_secs)),
        ("refill_secs".to_string(), TomlValue::Float(c.refill_secs)),
        (
            "spawn_fail_prob".to_string(),
            TomlValue::Float(c.faults.spawn_fail_prob),
        ),
        (
            "cancel_loss_prob".to_string(),
            TomlValue::Float(c.faults.cancel_loss_prob),
        ),
        (
            "straggler_prob".to_string(),
            TomlValue::Float(c.faults.straggler_prob),
        ),
        (
            "straggler_factor".to_string(),
            TomlValue::Float(c.faults.straggler_factor),
        ),
    ])
}

fn encode_invariant(i: &InvariantSpec) -> TomlValue {
    let kv = |k: &str| ("kind".to_string(), TomlValue::Str(k.to_string()));
    match i {
        InvariantSpec::Conservation => TomlValue::Table(vec![kv("conservation")]),
        InvariantSpec::Replay => TomlValue::Table(vec![kv("replay")]),
        InvariantSpec::CleanTwinBounded { slack_secs } => TomlValue::Table(vec![
            kv("clean-twin-bounded"),
            ("slack_secs".to_string(), TomlValue::Float(*slack_secs)),
        ]),
        InvariantSpec::Metric { metric, op, value } => TomlValue::Table(vec![
            kv("metric"),
            ("metric".to_string(), TomlValue::Str(metric.clone())),
            ("op".to_string(), TomlValue::Str(op.name().to_string())),
            ("value".to_string(), TomlValue::Float(*value)),
        ]),
        InvariantSpec::RootCause { expect } => TomlValue::Table(vec![
            kv("root-cause"),
            ("expect".to_string(), TomlValue::Str(expect.clone())),
        ]),
        InvariantSpec::FleetClean => TomlValue::Table(vec![kv("fleet-clean")]),
        InvariantSpec::BudgetConservation { slack_secs } => TomlValue::Table(vec![
            kv("budget-conservation"),
            ("slack_secs".to_string(), TomlValue::Float(*slack_secs)),
        ]),
        InvariantSpec::BitIdentity => TomlValue::Table(vec![kv("bit-identity")]),
        InvariantSpec::NoopFaults => TomlValue::Table(vec![kv("noop-faults")]),
    }
}
