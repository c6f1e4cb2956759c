//! Deterministic fault injection for the sprinting testbed.
//!
//! The paper's argument (§3) is that sprinting policies must survive
//! *runtime deviations*: mechanism toggles that fail or stick, budget
//! sensors that drift, execution slots that crash, load that spikes,
//! and thermal envelopes that force an emergency unsprint. This crate
//! provides a seedable, off-by-default [`FaultPlan`] describing those
//! failures plus a [`FaultInjector`] the testbed event loop consults at
//! its decision points.
//!
//! Two invariants make the subsystem safe to leave compiled in:
//!
//! 1. **Empty plan ⇒ no-op.** [`FaultPlan::default`] injects nothing
//!    and the injector draws no randomness, so a faultless run is
//!    bit-identical to a build without fault hooks.
//! 2. **Determinism.** All fault decisions come from a dedicated
//!    [`SimRng`] stream derived from [`FaultPlan::seed`], so the same
//!    `(config seed, fault plan)` pair replays the exact same run, and
//!    the server's own arrival/service streams are never perturbed.

#![deny(unreachable_pub)]

use reactor::Delivery;
use simcore::error::SprintError;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// A control-plane actor in the testbed's reactor: an endpoint of the
/// simulated network that [`MessageFaults`] perturb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// The sprint controller (the queue manager's decision loop).
    Controller,
    /// The budget sensor reporting the reserve pool level.
    BudgetSensor,
    /// The watchdog that force-unsprints stuck mechanisms.
    Watchdog,
    /// The execution slots (addressed collectively).
    Slots,
}

impl Peer {
    /// Stable integer id used in telemetry events.
    pub fn index(self) -> u32 {
        match self {
            Peer::Controller => 0,
            Peer::BudgetSensor => 1,
            Peer::Watchdog => 2,
            Peer::Slots => 3,
        }
    }

    /// All control-plane peers.
    pub const ALL: [Peer; 4] = [
        Peer::Controller,
        Peer::BudgetSensor,
        Peer::Watchdog,
        Peer::Slots,
    ];

    /// Human-readable name for replay/debug output.
    pub fn name(self) -> &'static str {
        match self {
            Peer::Controller => "controller",
            Peer::BudgetSensor => "budget-sensor",
            Peer::Watchdog => "watchdog",
            Peer::Slots => "slots",
        }
    }

    /// Parses a [`Peer::name`] back to the peer, for replay tooling
    /// that round-trips fault plans through text.
    pub fn parse(name: &str) -> Option<Peer> {
        Peer::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
    }
}

/// A window during which *all* messages between two peers are dropped,
/// in both directions — the classic network partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPartition {
    /// One endpoint of the severed link.
    pub a: Peer,
    /// The other endpoint.
    pub b: Peer,
    /// Partition start, in simulated seconds.
    pub start_secs: f64,
    /// Partition length, in simulated seconds (half-open window).
    pub duration_secs: f64,
}

impl LinkPartition {
    /// Whether this partition severs the `from -> to` link at `now_secs`.
    fn cuts(&self, now_secs: f64, from: Peer, to: Peer) -> bool {
        let on_link = (self.a == from && self.b == to) || (self.a == to && self.b == from);
        on_link && now_secs >= self.start_secs && now_secs < self.start_secs + self.duration_secs
    }
}

/// Message-level faults on the control plane: per-message delay, drop
/// and duplication probabilities plus scheduled link partitions.
///
/// Reordering needs no knob of its own: delays are drawn independently
/// per message, so two delayed messages on the same link can overtake
/// each other.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageFaults {
    /// Per-message probability of an in-flight delay.
    pub delay_prob: f64,
    /// Maximum delay in seconds; each delayed message draws uniformly
    /// from `(0, delay_secs]`. Also bounds the duplicate echo latency.
    pub delay_secs: f64,
    /// Per-message probability of silent loss.
    pub drop_prob: f64,
    /// Per-message probability of duplication (delivered inline *and*
    /// echoed once after a random positive delay).
    pub dup_prob: f64,
    /// Scheduled link partitions (checked before any random fault, and
    /// without drawing randomness).
    pub partitions: Vec<LinkPartition>,
}

impl Default for MessageFaults {
    fn default() -> Self {
        MessageFaults {
            delay_prob: 0.0,
            delay_secs: 0.0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            partitions: Vec::new(),
        }
    }
}

impl MessageFaults {
    /// Whether no message fault can ever fire.
    pub fn is_noop(&self) -> bool {
        self.delay_prob == 0.0
            && self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.partitions.is_empty()
    }

    /// Draws the fate of one message already known to be unpartitioned,
    /// counting whichever fault class fires into `counters`.
    ///
    /// This is the single source of truth for the per-class draw order
    /// (drop, then duplicate, then delay) shared by the testbed's
    /// [`FaultInjector`] and the fleet control plane: each draw happens
    /// only when its probability is non-zero, so a no-op plan consumes
    /// no randomness and perturbs nothing.
    pub fn draw_delivery(&self, rng: &mut SimRng, counters: &mut FaultCounters) -> Delivery {
        if self.drop_prob > 0.0 && rng.chance(self.drop_prob) {
            counters.msgs_dropped += 1;
            return Delivery::Dropped { partitioned: false };
        }
        if self.dup_prob > 0.0 && rng.chance(self.dup_prob) {
            counters.msgs_duplicated += 1;
            let extra = rng.uniform(0.0, self.delay_secs);
            return Delivery::Duplicated {
                // At least one microsecond so the echo is a distinct
                // event rather than a same-instant double delivery.
                extra_delay: SimDuration(((extra * 1e6) as u64).max(1)),
            };
        }
        if self.delay_prob > 0.0 && rng.chance(self.delay_prob) {
            counters.msgs_delayed += 1;
            let delay = rng.uniform(0.0, self.delay_secs);
            return Delivery::Delayed {
                delay: SimDuration(((delay * 1e6) as u64).max(1)),
            };
        }
        Delivery::Inline
    }

    /// Validates every field, returning the first violation.
    pub fn validate(&self) -> Result<(), SprintError> {
        for (name, p) in [
            ("messages.delay_prob", self.delay_prob),
            ("messages.drop_prob", self.drop_prob),
            ("messages.dup_prob", self.dup_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!("{name} must be in [0, 1], got {p}"),
                });
            }
        }
        if !self.delay_secs.is_finite() || self.delay_secs < 0.0 {
            return Err(SprintError::InvalidFaultPlan {
                details: format!(
                    "messages.delay_secs must be finite and >= 0, got {}",
                    self.delay_secs
                ),
            });
        }
        if (self.delay_prob > 0.0 || self.dup_prob > 0.0) && self.delay_secs == 0.0 {
            return Err(SprintError::InvalidFaultPlan {
                details: "messages.delay_secs must be > 0 when delay_prob or dup_prob is set"
                    .to_string(),
            });
        }
        for (i, p) in self.partitions.iter().enumerate() {
            if p.a == p.b {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!("partition {i}: endpoints must differ, got {:?}", p.a),
                });
            }
            if !p.start_secs.is_finite() || p.start_secs < 0.0 {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!("partition {i}: start_secs must be finite and >= 0"),
                });
            }
            if !p.duration_secs.is_finite() || p.duration_secs <= 0.0 {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!("partition {i}: duration_secs must be finite and > 0"),
                });
            }
        }
        Ok(())
    }
}

/// A window of time during which arrivals are compressed by a burst
/// multiplier — an injected load storm on top of whatever modulation
/// the arrival spec already carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormWindow {
    /// Window start, in simulated seconds.
    pub start_secs: f64,
    /// Window length, in simulated seconds.
    pub duration_secs: f64,
    /// Arrival-rate multiplier inside the window (e.g. `3.0` = 3X).
    pub multiplier: f64,
}

/// Declarative description of every fault the testbed can inject.
///
/// All fields default to "off"; construct with struct-update syntax:
///
/// ```
/// use faults::FaultPlan;
/// let plan = FaultPlan {
///     seed: 7,
///     engage_failure_prob: 0.2,
///     ..FaultPlan::default()
/// };
/// assert!(!plan.is_noop());
/// assert!(FaultPlan::default().is_noop());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG streams.
    pub seed: u64,
    /// Probability that a sprint engage attempt fails (the DVFS/core
    /// toggle is issued but the platform stays at sustained speed).
    pub engage_failure_prob: f64,
    /// Probability that an *engaged* sprint sticks on: the mechanism
    /// cannot toggle back until the query completes (or a thermal
    /// emergency force-unsprints it).
    pub stuck_sprint_prob: f64,
    /// Additive budget-sensor drift in sprint-seconds: the queue
    /// manager *senses* `true_level + drift` (clamped at zero) while
    /// the real pool drains truthfully. Positive drift makes the
    /// server sprint blind past exhaustion; negative drift starves
    /// sprinting while budget is actually available.
    pub budget_drift_secs: f64,
    /// Per-dispatch probability that the execution slot crashes partway
    /// through the query, losing all progress.
    pub crash_prob: f64,
    /// A slot with correlated failures (flaky hardware): dispatches on
    /// this slot crash with [`bad_slot_crash_prob`] instead of
    /// [`crash_prob`]. `None` means every slot crashes uniformly.
    ///
    /// [`bad_slot_crash_prob`]: FaultPlan::bad_slot_crash_prob
    /// [`crash_prob`]: FaultPlan::crash_prob
    pub bad_slot: Option<usize>,
    /// Per-dispatch crash probability on the [`bad_slot`] — the fault a
    /// supervisor can actually repair by quarantining the slot.
    ///
    /// [`bad_slot`]: FaultPlan::bad_slot
    pub bad_slot_crash_prob: f64,
    /// Maximum number of crash-requeue retries per query; after the
    /// limit, the slot is considered quarantined-then-replaced and the
    /// query runs crash-free.
    pub max_retries: u32,
    /// How long a crashed slot stays down when *no supervisor* is
    /// attached, modeling out-of-band repair (an operator noticing and
    /// restarting the process). `0.0` keeps the legacy instant-restart
    /// behavior. Supervised runs ignore this: the supervisor's own
    /// backoff/quarantine ladder governs the slot instead.
    pub crash_repair_secs: f64,
    /// Arrival-burst windows multiplying the configured arrival rate.
    pub storms: Vec<StormWindow>,
    /// Period of injected thermal emergencies in seconds (`0.0` = off).
    /// At each emergency every sprinting slot is forced back to
    /// sustained speed and the budget drain stops.
    pub thermal_period_secs: f64,
    /// Engage lockout after a thermal emergency: sprint engage attempts
    /// within this many seconds of an emergency are refused.
    pub thermal_lockout_secs: f64,
    /// Message-level faults on the control plane (delay, drop,
    /// duplication, link partitions).
    pub messages: MessageFaults,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            engage_failure_prob: 0.0,
            stuck_sprint_prob: 0.0,
            budget_drift_secs: 0.0,
            crash_prob: 0.0,
            bad_slot: None,
            bad_slot_crash_prob: 0.0,
            max_retries: 1,
            crash_repair_secs: 0.0,
            storms: Vec::new(),
            thermal_period_secs: 0.0,
            thermal_lockout_secs: 0.0,
            messages: MessageFaults::default(),
        }
    }
}

impl FaultPlan {
    /// Whether this plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.engage_failure_prob == 0.0
            && self.stuck_sprint_prob == 0.0
            && self.budget_drift_secs == 0.0
            && self.crash_prob == 0.0
            && self.bad_slot_crash_prob == 0.0
            && self.storms.is_empty()
            && self.thermal_period_secs == 0.0
            && self.messages.is_noop()
    }

    /// Validates every field, returning the first violation.
    pub fn validate(&self) -> Result<(), SprintError> {
        for (name, p) in [
            ("engage_failure_prob", self.engage_failure_prob),
            ("stuck_sprint_prob", self.stuck_sprint_prob),
            ("crash_prob", self.crash_prob),
            ("bad_slot_crash_prob", self.bad_slot_crash_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!("{name} must be in [0, 1], got {p}"),
                });
            }
        }
        if !self.crash_repair_secs.is_finite() || self.crash_repair_secs < 0.0 {
            return Err(SprintError::InvalidFaultPlan {
                details: format!(
                    "crash_repair_secs must be finite and >= 0, got {}",
                    self.crash_repair_secs
                ),
            });
        }
        if !self.budget_drift_secs.is_finite() {
            return Err(SprintError::InvalidFaultPlan {
                details: format!(
                    "budget_drift_secs must be finite, got {}",
                    self.budget_drift_secs
                ),
            });
        }
        for (i, w) in self.storms.iter().enumerate() {
            if !w.start_secs.is_finite() || w.start_secs < 0.0 {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!("storm {i}: start_secs must be finite and >= 0"),
                });
            }
            if !w.duration_secs.is_finite() || w.duration_secs <= 0.0 {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!("storm {i}: duration_secs must be finite and > 0"),
                });
            }
            if !w.multiplier.is_finite() || w.multiplier <= 0.0 {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!("storm {i}: multiplier must be finite and > 0"),
                });
            }
        }
        // Overlapping windows would compound multiplicatively into an
        // ambiguous rate; require disjoint windows so a plan means the
        // same thing however the list is ordered.
        let mut spans: Vec<(f64, f64, usize)> = self
            .storms
            .iter()
            .enumerate()
            .map(|(i, w)| (w.start_secs, w.start_secs + w.duration_secs, i))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in spans.windows(2) {
            let (_, prev_end, prev_i) = pair[0];
            let (start, _, i) = pair[1];
            if start < prev_end {
                return Err(SprintError::InvalidFaultPlan {
                    details: format!(
                        "storms {prev_i} and {i} overlap: window {i} starts at {start}s \
                         before window {prev_i} ends at {prev_end}s"
                    ),
                });
            }
        }
        if self.thermal_period_secs != 0.0
            && (!self.thermal_period_secs.is_finite() || self.thermal_period_secs <= 0.0)
        {
            return Err(SprintError::InvalidFaultPlan {
                details: format!(
                    "thermal_period_secs must be 0 (off) or finite and > 0, got {}",
                    self.thermal_period_secs
                ),
            });
        }
        if !self.thermal_lockout_secs.is_finite() || self.thermal_lockout_secs < 0.0 {
            return Err(SprintError::InvalidFaultPlan {
                details: format!(
                    "thermal_lockout_secs must be finite and >= 0, got {}",
                    self.thermal_lockout_secs
                ),
            });
        }
        self.messages.validate()?;
        Ok(())
    }
}

/// Per-fault occurrence counters reported in run metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Sprint engage attempts that failed (toggle fault).
    pub engage_failures: u64,
    /// Sprints that engaged but stuck on until completion/thermal.
    pub stuck_sprints: u64,
    /// Execution-slot crashes (each loses one in-flight query's work).
    pub slot_crashes: u64,
    /// Queries whose crash-retry budget was exhausted (ran crash-free
    /// afterwards on a replacement slot).
    pub retries_exhausted: u64,
    /// Sprinting executions force-unsprinted by thermal emergencies.
    pub thermal_unsprints: u64,
    /// Sprint engage attempts refused during a thermal lockout.
    pub lockout_refusals: u64,
    /// Arrivals whose inter-arrival gap was compressed by a storm.
    pub storm_arrivals: u64,
    /// Control messages delivered late.
    pub msgs_delayed: u64,
    /// Control messages lost to random drop.
    pub msgs_dropped: u64,
    /// Control messages duplicated (inline copy plus a delayed echo).
    pub msgs_duplicated: u64,
    /// Control messages eaten by a scheduled link partition.
    pub partition_drops: u64,
}

impl FaultCounters {
    /// Total injected fault events of any kind.
    pub fn total(&self) -> u64 {
        self.engage_failures
            + self.stuck_sprints
            + self.slot_crashes
            + self.retries_exhausted
            + self.thermal_unsprints
            + self.lockout_refusals
            + self.storm_arrivals
            + self.msgs_delayed
            + self.msgs_dropped
            + self.msgs_duplicated
            + self.partition_drops
    }

    /// Total message-level faults across every class.
    pub fn messages_total(&self) -> u64 {
        self.msgs_delayed + self.msgs_dropped + self.msgs_duplicated + self.partition_drops
    }

    /// Field-wise sum, for aggregating counters across runs.
    #[must_use]
    pub fn merged(&self, other: &FaultCounters) -> FaultCounters {
        FaultCounters {
            engage_failures: self.engage_failures + other.engage_failures,
            stuck_sprints: self.stuck_sprints + other.stuck_sprints,
            slot_crashes: self.slot_crashes + other.slot_crashes,
            retries_exhausted: self.retries_exhausted + other.retries_exhausted,
            thermal_unsprints: self.thermal_unsprints + other.thermal_unsprints,
            lockout_refusals: self.lockout_refusals + other.lockout_refusals,
            storm_arrivals: self.storm_arrivals + other.storm_arrivals,
            msgs_delayed: self.msgs_delayed + other.msgs_delayed,
            msgs_dropped: self.msgs_dropped + other.msgs_dropped,
            msgs_duplicated: self.msgs_duplicated + other.msgs_duplicated,
            partition_drops: self.partition_drops + other.partition_drops,
        }
    }
}

/// Outcome of one sprint engage attempt under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngageOutcome {
    /// Sprint engaged normally.
    Engaged,
    /// Sprint engaged but the mechanism is stuck on — it cannot toggle
    /// back until the query completes or a thermal emergency fires.
    EngagedStuck,
    /// The toggle failed; the execution continues at sustained speed.
    Failed,
}

/// Stateful fault decision engine for one testbed run.
///
/// Owns private RNG streams (derived from the plan seed) so decisions
/// are deterministic and never perturb the server's own streams.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    engage_rng: SimRng,
    crash_rng: SimRng,
    msg_rng: SimRng,
    locked_until_secs: f64,
    counters: FaultCounters,
}

impl FaultInjector {
    /// Validates the plan and builds an injector.
    pub fn new(plan: FaultPlan) -> Result<FaultInjector, SprintError> {
        plan.validate()?;
        let mut root = SimRng::new(plan.seed);
        // Derivation order is part of the replay contract: the message
        // stream was added after engage/crash, so it splits last and the
        // historical streams are untouched.
        let engage_rng = root.split(0xFA01);
        let crash_rng = root.split(0xFA02);
        let msg_rng = root.split(0xFA03);
        Ok(FaultInjector {
            plan,
            engage_rng,
            crash_rng,
            msg_rng,
            locked_until_secs: f64::NEG_INFINITY,
            counters: FaultCounters::default(),
        })
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the injector can never fire.
    pub fn is_noop(&self) -> bool {
        self.plan.is_noop()
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Decides the outcome of a sprint engage attempt at `now_secs`.
    ///
    /// Draws from the engage stream only when the relevant probability
    /// is non-zero, so a no-op plan consumes no randomness.
    pub fn engage_outcome(&mut self, now_secs: f64) -> EngageOutcome {
        if now_secs < self.locked_until_secs {
            self.counters.lockout_refusals += 1;
            return EngageOutcome::Failed;
        }
        if self.plan.engage_failure_prob > 0.0
            && self.engage_rng.chance(self.plan.engage_failure_prob)
        {
            self.counters.engage_failures += 1;
            return EngageOutcome::Failed;
        }
        if self.plan.stuck_sprint_prob > 0.0 && self.engage_rng.chance(self.plan.stuck_sprint_prob)
        {
            self.counters.stuck_sprints += 1;
            return EngageOutcome::EngagedStuck;
        }
        EngageOutcome::Engaged
    }

    /// The budget level the queue manager *senses* given the true level.
    ///
    /// With zero drift this is exactly `true_level`.
    pub fn sensed_level(&self, true_level: f64) -> f64 {
        (true_level + self.plan.budget_drift_secs).max(0.0)
    }

    /// Decides whether dispatching on `slot` a query with
    /// `retries_so_far` crash-requeues will crash, and if so at what
    /// fraction of its service time. Returns `None` when the query runs
    /// to completion. The [`FaultPlan::bad_slot`], if configured, uses
    /// its own (typically much higher) crash probability.
    pub fn crash_point_frac(&mut self, slot: usize, retries_so_far: u32) -> Option<f64> {
        let prob = if self.plan.bad_slot == Some(slot) {
            self.plan.bad_slot_crash_prob
        } else {
            self.plan.crash_prob
        };
        if prob == 0.0 {
            return None;
        }
        if retries_so_far >= self.plan.max_retries {
            return None;
        }
        if !self.crash_rng.chance(prob) {
            return None;
        }
        // Crash somewhere in (5%, 95%) of the service time so the
        // requeue always loses meaningful progress and the crash never
        // races the completion event at the exact same instant.
        Some(self.crash_rng.uniform(0.05, 0.95))
    }

    /// Records that a crash actually happened (the query was still
    /// in-flight when its crash point arrived).
    pub fn record_crash(&mut self, was_final_retry: bool) {
        self.counters.slot_crashes += 1;
        if was_final_retry {
            self.counters.retries_exhausted += 1;
        }
    }

    /// Storm multiplier active at `now_secs` (product of all matching
    /// windows; `1.0` outside every window).
    pub fn storm_multiplier(&self, now_secs: f64) -> f64 {
        let mut m = 1.0;
        for w in &self.plan.storms {
            if now_secs >= w.start_secs && now_secs < w.start_secs + w.duration_secs {
                m *= w.multiplier;
            }
        }
        m
    }

    /// Records an arrival sampled under an active storm window.
    pub fn record_storm_arrival(&mut self) {
        self.counters.storm_arrivals += 1;
    }

    /// Time of the first thermal emergency, if the plan schedules any.
    pub fn first_thermal_secs(&self) -> Option<f64> {
        (self.plan.thermal_period_secs > 0.0).then_some(self.plan.thermal_period_secs)
    }

    /// Handles a thermal emergency at `now_secs`: starts the engage
    /// lockout, counts `unsprinted` forced unsprints, and returns when
    /// the next emergency fires.
    pub fn on_thermal(&mut self, now_secs: f64, unsprinted: u64) -> f64 {
        self.counters.thermal_unsprints += unsprinted;
        self.locked_until_secs = now_secs + self.plan.thermal_lockout_secs;
        now_secs + self.plan.thermal_period_secs
    }

    /// Maximum crash-requeue retries per query.
    pub fn max_retries(&self) -> u32 {
        self.plan.max_retries
    }

    /// Unsupervised out-of-band repair time for a crashed slot.
    pub fn crash_repair_secs(&self) -> f64 {
        self.plan.crash_repair_secs
    }

    /// Whether the plan carries any message-level fault (if not, the
    /// testbed skips routing entirely and delivers every control
    /// message inline, drawing no randomness).
    pub fn has_message_faults(&self) -> bool {
        !self.plan.messages.is_noop()
    }

    /// Routes one control message sent at `now_secs` from `from` to
    /// `to`, deciding its fate and counting any injected fault.
    ///
    /// Partitions are checked first and consume no randomness; the
    /// drop/duplicate/delay draws each happen only when the matching
    /// probability is non-zero, so a plan without message faults leaves
    /// the message stream untouched.
    pub fn route_message(&mut self, now_secs: f64, from: Peer, to: Peer) -> Delivery {
        let m = &self.plan.messages;
        if m.partitions.iter().any(|p| p.cuts(now_secs, from, to)) {
            self.counters.partition_drops += 1;
            return Delivery::Dropped { partitioned: true };
        }
        m.draw_delivery(&mut self.msg_rng, &mut self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(plan.validate().is_ok());
        let mut inj = FaultInjector::new(plan).unwrap();
        // A no-op injector never alters decisions.
        assert_eq!(inj.engage_outcome(0.0), EngageOutcome::Engaged);
        assert_eq!(inj.crash_point_frac(0, 0), None);
        assert_eq!(inj.sensed_level(5.0), 5.0);
        assert_eq!(inj.storm_multiplier(123.0), 1.0);
        assert_eq!(inj.first_thermal_secs(), None);
        assert_eq!(inj.counters().total(), 0);
    }

    #[test]
    fn noop_plan_draws_no_randomness() {
        // Engage decisions on a no-op plan must not consume the stream:
        // two injectors stay in lockstep regardless of call counts.
        let mut a = FaultInjector::new(FaultPlan::default()).unwrap();
        let mut b = FaultInjector::new(FaultPlan::default()).unwrap();
        for _ in 0..10 {
            let _ = a.engage_outcome(1.0);
            let _ = a.crash_point_frac(0, 0);
        }
        let _ = b.engage_outcome(1.0);
        assert_eq!(a.engage_rng.next_u64(), b.engage_rng.next_u64());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let bad = |f: fn(&mut FaultPlan)| {
            let mut p = FaultPlan::default();
            f(&mut p);
            p.validate()
        };
        assert!(bad(|p| p.engage_failure_prob = 1.5).is_err());
        assert!(bad(|p| p.stuck_sprint_prob = -0.1).is_err());
        assert!(bad(|p| p.crash_prob = f64::NAN).is_err());
        assert!(bad(|p| p.bad_slot_crash_prob = 2.0).is_err());
        assert!(bad(|p| p.budget_drift_secs = f64::INFINITY).is_err());
        assert!(bad(|p| p.thermal_period_secs = -5.0).is_err());
        assert!(bad(|p| p.thermal_lockout_secs = f64::NAN).is_err());
        assert!(bad(|p| {
            p.storms.push(StormWindow {
                start_secs: 0.0,
                duration_secs: 0.0,
                multiplier: 2.0,
            })
        })
        .is_err());
        assert!(bad(|p| {
            p.storms.push(StormWindow {
                start_secs: 10.0,
                duration_secs: 5.0,
                multiplier: -1.0,
            })
        })
        .is_err());
    }

    #[test]
    fn engage_failures_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 99,
            engage_failure_prob: 0.5,
            ..FaultPlan::default()
        };
        let mut a = FaultInjector::new(plan.clone()).unwrap();
        let mut b = FaultInjector::new(plan).unwrap();
        let xs: Vec<_> = (0..64).map(|_| a.engage_outcome(0.0)).collect();
        let ys: Vec<_> = (0..64).map(|_| b.engage_outcome(0.0)).collect();
        assert_eq!(xs, ys);
        assert!(xs.contains(&EngageOutcome::Failed));
        assert!(xs.contains(&EngageOutcome::Engaged));
    }

    #[test]
    fn sensed_level_drifts_and_clamps() {
        let plan = FaultPlan {
            budget_drift_secs: 20.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan).unwrap();
        assert_eq!(inj.sensed_level(0.0), 20.0); // Sprinting blind.
        let neg = FaultInjector::new(FaultPlan {
            budget_drift_secs: -50.0,
            ..FaultPlan::default()
        })
        .unwrap();
        assert_eq!(neg.sensed_level(30.0), 0.0); // Starved, clamped.
    }

    #[test]
    fn crash_respects_retry_budget() {
        let plan = FaultPlan {
            seed: 4,
            crash_prob: 1.0,
            max_retries: 2,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan).unwrap();
        let f0 = inj.crash_point_frac(0, 0).expect("first dispatch crashes");
        assert!((0.05..0.95).contains(&f0));
        assert!(inj.crash_point_frac(0, 1).is_some());
        assert!(inj.crash_point_frac(0, 2).is_none(), "retries exhausted");
    }

    #[test]
    fn bad_slot_crashes_only_on_its_slot() {
        let plan = FaultPlan {
            seed: 11,
            bad_slot: Some(1),
            bad_slot_crash_prob: 1.0,
            max_retries: 10,
            ..FaultPlan::default()
        };
        assert!(!plan.is_noop());
        let mut inj = FaultInjector::new(plan).unwrap();
        // Healthy slots never crash (crash_prob is still 0)...
        assert!(inj.crash_point_frac(0, 0).is_none());
        assert!(inj.crash_point_frac(2, 0).is_none());
        // ...while the bad slot always does.
        assert!(inj.crash_point_frac(1, 0).is_some());
        assert!(inj.crash_point_frac(1, 3).is_some());
    }

    #[test]
    fn storms_apply_inside_their_windows() {
        let plan = FaultPlan {
            storms: vec![
                StormWindow {
                    start_secs: 100.0,
                    duration_secs: 50.0,
                    multiplier: 3.0,
                },
                StormWindow {
                    start_secs: 200.0,
                    duration_secs: 100.0,
                    multiplier: 2.0,
                },
            ],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan).unwrap();
        assert_eq!(inj.storm_multiplier(90.0), 1.0);
        assert_eq!(inj.storm_multiplier(110.0), 3.0);
        assert_eq!(inj.storm_multiplier(150.0), 1.0); // Half-open end.
        assert_eq!(inj.storm_multiplier(250.0), 2.0);
        assert_eq!(inj.storm_multiplier(300.0), 1.0);
    }

    #[test]
    fn overlapping_storms_are_rejected() {
        // Declared out of order on purpose: validation must sort first.
        let plan = FaultPlan {
            storms: vec![
                StormWindow {
                    start_secs: 120.0,
                    duration_secs: 100.0,
                    multiplier: 2.0,
                },
                StormWindow {
                    start_secs: 100.0,
                    duration_secs: 50.0,
                    multiplier: 3.0,
                },
            ],
            ..FaultPlan::default()
        };
        let err = plan.validate().unwrap_err();
        assert!(err.to_string().contains("overlap"), "got: {err}");
        assert!(FaultInjector::new(plan).is_err());

        // Back-to-back windows (end == next start) are fine.
        let adjacent = FaultPlan {
            storms: vec![
                StormWindow {
                    start_secs: 100.0,
                    duration_secs: 50.0,
                    multiplier: 3.0,
                },
                StormWindow {
                    start_secs: 150.0,
                    duration_secs: 50.0,
                    multiplier: 2.0,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(adjacent.validate().is_ok());
    }

    #[test]
    fn message_faults_default_is_noop_and_inline() {
        let mut inj = FaultInjector::new(FaultPlan::default()).unwrap();
        assert!(!inj.has_message_faults());
        for i in 0..8 {
            assert_eq!(
                inj.route_message(i as f64, Peer::Watchdog, Peer::Controller),
                Delivery::Inline
            );
        }
        assert_eq!(inj.counters().total(), 0);
    }

    #[test]
    fn noop_message_plan_draws_no_randomness() {
        // Routing under a no-op plan must not consume the message
        // stream: two injectors stay in lockstep regardless of call
        // counts (the same contract engage/crash already honour).
        let mut a = FaultInjector::new(FaultPlan::default()).unwrap();
        let mut b = FaultInjector::new(FaultPlan::default()).unwrap();
        for _ in 0..10 {
            let _ = a.route_message(1.0, Peer::BudgetSensor, Peer::Controller);
        }
        let _ = b.route_message(1.0, Peer::BudgetSensor, Peer::Controller);
        assert_eq!(a.msg_rng.next_u64(), b.msg_rng.next_u64());
    }

    #[test]
    fn message_stream_never_perturbs_engage_or_crash_streams() {
        let plan = FaultPlan {
            seed: 5,
            engage_failure_prob: 0.5,
            crash_prob: 0.5,
            max_retries: 100,
            ..FaultPlan::default()
        };
        let chatty_plan = FaultPlan {
            messages: MessageFaults {
                delay_prob: 0.5,
                delay_secs: 10.0,
                drop_prob: 0.2,
                dup_prob: 0.2,
                ..MessageFaults::default()
            },
            ..plan.clone()
        };
        let mut quiet = FaultInjector::new(plan).unwrap();
        let mut chatty = FaultInjector::new(chatty_plan).unwrap();
        for i in 0..64 {
            let _ = chatty.route_message(i as f64, Peer::Watchdog, Peer::Controller);
        }
        for i in 0..64 {
            assert_eq!(quiet.engage_outcome(0.0), chatty.engage_outcome(0.0));
            assert_eq!(
                quiet.crash_point_frac(0, 0),
                chatty.crash_point_frac(0, 0),
                "{i}"
            );
        }
    }

    #[test]
    fn message_routing_is_deterministic_and_covers_every_fate() {
        let plan = FaultPlan {
            seed: 21,
            messages: MessageFaults {
                delay_prob: 0.4,
                delay_secs: 30.0,
                drop_prob: 0.2,
                dup_prob: 0.2,
                ..MessageFaults::default()
            },
            ..FaultPlan::default()
        };
        assert!(!plan.is_noop());
        let mut a = FaultInjector::new(plan.clone()).unwrap();
        let mut b = FaultInjector::new(plan).unwrap();
        let route = |inj: &mut FaultInjector| -> Vec<Delivery> {
            (0..256)
                .map(|i| inj.route_message(i as f64, Peer::BudgetSensor, Peer::Controller))
                .collect()
        };
        let xs = route(&mut a);
        assert_eq!(xs, route(&mut b));
        assert!(xs.iter().any(|d| matches!(d, Delivery::Inline)));
        assert!(xs.iter().any(|d| matches!(d, Delivery::Delayed { .. })));
        assert!(xs
            .iter()
            .any(|d| matches!(d, Delivery::Dropped { partitioned: false })));
        assert!(xs.iter().any(|d| matches!(d, Delivery::Duplicated { .. })));
        for d in &xs {
            match d {
                Delivery::Delayed { delay } => {
                    assert!(delay.0 >= 1 && delay.as_secs_f64() <= 30.0)
                }
                Delivery::Duplicated { extra_delay } => assert!(extra_delay.0 >= 1),
                _ => {}
            }
        }
        let c = a.counters();
        assert!(c.msgs_delayed > 0 && c.msgs_dropped > 0 && c.msgs_duplicated > 0);
        assert_eq!(c.partition_drops, 0);
    }

    #[test]
    fn partitions_cut_both_directions_inside_the_window_only() {
        let plan = FaultPlan {
            messages: MessageFaults {
                partitions: vec![LinkPartition {
                    a: Peer::Watchdog,
                    b: Peer::Controller,
                    start_secs: 100.0,
                    duration_secs: 50.0,
                }],
                ..MessageFaults::default()
            },
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan).unwrap();
        assert_eq!(
            inj.route_message(99.0, Peer::Watchdog, Peer::Controller),
            Delivery::Inline
        );
        assert_eq!(
            inj.route_message(110.0, Peer::Watchdog, Peer::Controller),
            Delivery::Dropped { partitioned: true }
        );
        assert_eq!(
            inj.route_message(110.0, Peer::Controller, Peer::Watchdog),
            Delivery::Dropped { partitioned: true },
            "partition is bidirectional"
        );
        assert_eq!(
            inj.route_message(110.0, Peer::BudgetSensor, Peer::Controller),
            Delivery::Inline,
            "other links are unaffected"
        );
        assert_eq!(
            inj.route_message(150.0, Peer::Watchdog, Peer::Controller),
            Delivery::Inline,
            "half-open window end"
        );
        assert_eq!(inj.counters().partition_drops, 2);
    }

    #[test]
    fn message_fault_validation_rejects_bad_fields() {
        let bad = |f: fn(&mut MessageFaults)| {
            let mut p = FaultPlan::default();
            f(&mut p.messages);
            p.validate()
        };
        assert!(bad(|m| m.delay_prob = 1.5).is_err());
        assert!(bad(|m| m.drop_prob = f64::NAN).is_err());
        assert!(bad(|m| m.dup_prob = -0.1).is_err());
        assert!(bad(|m| m.delay_secs = -1.0).is_err());
        // delay_prob without a positive delay bound is meaningless.
        assert!(bad(|m| m.delay_prob = 0.5).is_err());
        assert!(bad(|m| {
            m.dup_prob = 0.5;
            m.delay_secs = 0.0;
        })
        .is_err());
        assert!(bad(|m| {
            m.partitions.push(LinkPartition {
                a: Peer::Controller,
                b: Peer::Controller,
                start_secs: 0.0,
                duration_secs: 10.0,
            })
        })
        .is_err());
        assert!(bad(|m| {
            m.partitions.push(LinkPartition {
                a: Peer::Watchdog,
                b: Peer::Controller,
                start_secs: 0.0,
                duration_secs: 0.0,
            })
        })
        .is_err());
        let ok = FaultPlan {
            messages: MessageFaults {
                delay_prob: 0.5,
                delay_secs: 10.0,
                ..MessageFaults::default()
            },
            ..FaultPlan::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn thermal_schedule_and_lockout() {
        let plan = FaultPlan {
            thermal_period_secs: 500.0,
            thermal_lockout_secs: 60.0,
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan).unwrap();
        assert_eq!(inj.first_thermal_secs(), Some(500.0));
        let next = inj.on_thermal(500.0, 3);
        assert_eq!(next, 1000.0);
        assert_eq!(inj.counters().thermal_unsprints, 3);
        // Engage refused during lockout, allowed after.
        assert_eq!(inj.engage_outcome(530.0), EngageOutcome::Failed);
        assert_eq!(inj.counters().lockout_refusals, 1);
        assert_eq!(inj.engage_outcome(561.0), EngageOutcome::Engaged);
    }
}
