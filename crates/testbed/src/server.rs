//! The queue manager + execution engine event loop (Fig. 3).
//!
//! Queries arrive at the queue manager, which timestamps them, holds
//! them FIFO, schedules a timeout interrupt per query, dispatches to a
//! free execution-engine slot, and accounts sprint time against the
//! shared budget. All transitions happen at discrete events popped from
//! a single deterministic [`Reactor`] — one event queue, one virtual
//! clock, every RNG stream derived from one root seed — so the
//! simulation is exact and deterministic for a given seed, and a
//! journaled run replays bit-identically from `(seed, plan)`.
//!
//! Control traffic between the actors (sprint controller, budget
//! sensor, watchdog) travels through a simulated network the fault
//! plan's [`faults::MessageFaults`] can perturb: budget telemetry and
//! watchdog force-unsprint commands can be delayed, dropped, duplicated
//! or partitioned away. Without message faults every control message
//! delivers inline at the send site — bit-identical to the direct
//! method calls the server used before the reactor refactor.

use crate::engine::{ExecMode, ExecutionState};
use crate::metrics::RunResult;
use crate::policy::ServerConfig;
use crate::query::QueryRecord;
use crate::supervision::{AdmitOutcome, SlotDirective, Supervisor, SupervisorConfig};
use faults::{EngageOutcome, FaultInjector, FaultPlan, Peer};
use mechanisms::Mechanism;
use obs::{CauseReason, EventKind, FlightRecorder, SpanKind, SpanOutcome, UnsprintReason};
use reactor::entropy::ns;
use reactor::{Delivery, EntropyTower, Journal, JournalEntry, Reactor};
use simcore::budget::{Budget, EMPTY_SECS};
use simcore::dist::Dist;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::SprintError;
use std::collections::VecDeque;
use std::fmt;
use workloads::{Workload, WorkloadKind};

/// Fixed queue-manager dispatch overhead (HTTP hand-off, bookkeeping).
pub const DISPATCH_BASE_SECS: f64 = 0.05;

/// Additional dispatch overhead per query currently waiting — the
/// queue manager slows down as its queue grows. One of the
/// load-dependent runtime effects the first-principles simulator does
/// not model.
pub const DISPATCH_PER_QUEUED_SECS: f64 = 0.01;

/// Cost of servicing one timeout interrupt: the queue manager wakes,
/// checks the budget and round-trips to the execution engine over
/// HTTP. The work accumulates as "manager debt" paid at the next
/// dispatch — at high utilization nearly every query's timer fires, so
/// this is a load-dependent drag the first-principles simulator does
/// not model (the paper's runtime factor "queue length when sprinting
/// begins").
pub const INTERRUPT_COST_SECS: f64 = 1.0;

/// Fraction of the mechanism toggle paid when a sprint engages at
/// dispatch (the transition overlaps the dispatch hand-off); mid-run
/// sprints pay the full toggle.
pub const DISPATCH_SPRINT_TOGGLE_FRAC: f64 = 0.25;

/// Execution slowdown per queued query: each waiting query adds
/// manager polling, timer bookkeeping and HTTP chatter that steal CPU
/// from the execution engine. Long queues therefore drag processing —
/// the queueing/processing interdependence (§1) that the
/// first-principles simulator cannot see and the effective sprint rate
/// must absorb.
pub const QUEUE_DRAG_PER_QUERY: f64 = 0.006;

/// Queue length beyond which the drag saturates: the manager's own
/// time slice bounds how much CPU its chatter can steal, so the
/// slowdown cannot grow without limit (unbounded drag would also push
/// a 95%-utilized server into runaway instability that no finite
/// replay could characterize).
pub const QUEUE_DRAG_SATURATION: usize = 12;

/// Most execution slots one server takes, the bound the cloning
/// simulator also sets. Every slot is allocated up front, so a larger
/// count read from a scenario file must fail typed instead of aborting
/// the process on the allocation.
pub const MAX_SLOTS: usize = 1024;

/// Events driving the server.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A new query reaches the queue manager.
    Arrival,
    /// The timeout interrupt for query `id` fires.
    Timeout(u64),
    /// Something about slot `slot` needs resolving (stall end, budget
    /// exhaustion, or completion); stale generations are ignored.
    Slot { slot: usize, gen: u64 },
    /// Fault injection: the execution in `slot` crashes while running
    /// `query`. Matched by query id, so the event goes stale if the
    /// query completed first.
    Crash { slot: usize, query: u64 },
    /// Fault injection: a thermal emergency forces every sprinting
    /// execution back to the sustained rate.
    Thermal,
    /// Supervision: slot `slot` finishes its restart backoff and comes
    /// back into rotation.
    SlotUp { slot: usize },
    /// Supervision: the watchdog armed by the sprint engage that issued
    /// `token` on `slot` fires; if that same sprint is still engaged it
    /// is forcibly disengaged. Stale tokens are ignored.
    Watchdog { slot: usize, token: u64 },
    /// A control message reaches its destination after in-flight delay
    /// (scheduled only when the fault plan delays or duplicates it;
    /// inline deliveries never become events). The endpoints are read
    /// only through the journal, whose text labels which link the
    /// delivery crossed.
    Msg { from: Peer, to: Peer, msg: CtrlMsg },
}

/// Typed control-plane messages the actors exchange through the
/// simulated network.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CtrlMsg {
    /// Watchdog -> controller: force the sprint armed with `token` off
    /// `slot`. Stale tokens are ignored on receipt, which also makes
    /// duplicated commands idempotent.
    ForceUnsprint { slot: usize, token: u64 },
    /// Budget sensor -> controller: the sensed reserve level, in
    /// integer microseconds of sprint time (integer so journal entries
    /// compare exactly).
    BudgetReport { level_us: u64 },
}

/// One entry of a server's decision journal: an event the server
/// popped, or the routing verdict for a control message it sent.
/// Stored by value, so journaling costs one push of a small `Copy`
/// value; its text — the event's `Debug` form, or
/// `route <from>-><to>: <verdict>` — is produced only when the journal
/// is printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRecord(NodeItem);

// A journaled fleet holds one of these per node decision.
const _: () = assert!(std::mem::size_of::<NodeRecord>() <= 32);

#[derive(Debug, Clone, Copy, PartialEq)]
enum NodeItem {
    Event(Ev),
    Route {
        from: Peer,
        to: Peer,
        delivery: Delivery,
    },
}

impl fmt::Display for NodeRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            NodeItem::Event(ev) => write!(f, "{ev:?}"),
            NodeItem::Route { from, to, delivery } => {
                write!(f, "route {}->{}: {delivery:?}", from.name(), to.name())
            }
        }
    }
}

/// Where a query currently is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum QueryState {
    Queued,
    Running(usize),
    Done,
}

#[derive(Debug)]
struct QueryInfo {
    kind: WorkloadKind,
    arrival: SimTime,
    service_secs: f64,
    timed_out: bool,
    state: QueryState,
    dispatch: SimTime,
    /// Crash-requeue count (fault injection).
    retries: u32,
}

#[derive(Debug)]
struct Slot {
    query: u64,
    engine: ExecutionState,
    gen: u64,
    /// Fault injection: the sprint latch is stuck on — budget
    /// exhaustion no longer disengages it (only completion or a thermal
    /// emergency does).
    stuck: bool,
    /// Token of the sprint engage currently active on this slot; `0`
    /// when the slot has never engaged. Watchdog events carry the token
    /// they were armed with so they go stale once the sprint ends.
    sprint_token: u64,
}

/// The testbed server simulator.
pub struct Server<'m> {
    cfg: ServerConfig,
    mech: &'m dyn Mechanism,
    reactor: Reactor<Ev>,
    queue: VecDeque<u64>,
    slots: Vec<Option<Slot>>,
    budget: Budget,
    queries: Vec<QueryInfo>,
    records: Vec<QueryRecord>,
    arrivals_left: usize,
    next_arrival_gap: Dist,
    arrival_rng: SimRng,
    service_rng: SimRng,
    mix_rng: SimRng,
    next_gen: u64,
    /// Accumulated interrupt-servicing time the queue manager owes;
    /// paid as extra overhead at the next dispatch.
    manager_debt_secs: f64,
    /// The controller's last *delivered* budget reading, in seconds.
    /// Fresh readings travel as [`CtrlMsg::BudgetReport`] messages; when
    /// the fault plan delays or drops a report, the controller keeps
    /// acting on this stale cache — sprinting blind past exhaustion or
    /// starving while budget is actually available.
    budget_cache_secs: f64,
    /// Fault injector; `None` runs the pristine server. A no-op plan
    /// threads through the same code paths without consuming any
    /// randomness, so its output is bit-identical to `None`.
    faults: Option<FaultInjector>,
    /// Recovery engine; `None` runs the unsupervised server (the
    /// pre-supervision behaviour, bit for bit).
    supervisor: Option<Supervisor>,
    /// External sprint permit (fleet lease gate). `true` by default;
    /// when revoked, new sprint engages are forbidden. Already-running
    /// sprints are not disengaged by the flag alone — callers pair a
    /// revocation with [`Server::force_unsprint_all`] when fail-safe
    /// demands it.
    sprint_permit: bool,
    /// Whether [`Server::prime`] has scheduled the initial events.
    primed: bool,
    /// Events processed so far (the event-storm safety valve).
    iterations: u64,
    /// Virtual time of the most recently processed event.
    end: SimTime,
    /// Slots knocked offline by an *unsupervised* crash, awaiting the
    /// fault plan's out-of-band repair. Supervised runs track downness
    /// in the supervisor instead and never set these flags.
    down: Vec<bool>,
    /// Where each decision is reported: recorder, tracer, journal and
    /// metrics.
    obs: Observers,
}

/// A server's observers, each `None` (the default) until attached: the
/// flight recorder, the causal tracer that writes spans into it, and
/// the decision journal. Each decision reaches all of them, and the
/// metrics registry, through one call. They draw no randomness and
/// schedule no events, so an observed run is bit-identical to an
/// unobserved one.
#[derive(Debug, Default)]
struct Observers {
    recorder: Option<FlightRecorder>,
    tracer: Option<NodeTracer>,
    journal: Option<Journal<NodeRecord>>,
}

impl Observers {
    fn journal(&mut self, at: SimTime, item: NodeItem) {
        if let Some(j) = self.journal.as_mut() {
            j.push(at, NodeRecord(item));
        }
    }

    /// A decision only the recorder sees.
    fn record(&mut self, at: SimTime, kind: EventKind) {
        note(&mut self.recorder, at, kind);
    }

    /// The routing verdict for a control message: journaled, recorded,
    /// and a delayed or lost message linked as a cause of the sprint
    /// episode on `slot` (of any open episode when `None`).
    fn routed(
        &mut self,
        at: SimTime,
        from: Peer,
        to: Peer,
        delivery: Delivery,
        slot: Option<usize>,
    ) {
        self.journal(at, NodeItem::Route { from, to, delivery });
        let Some((kind, cause)) = delivery_observation(from.index(), to.index(), delivery) else {
            return;
        };
        self.record(at, kind);
        if let (Some(t), Some(reason)) = (self.tracer.as_mut(), cause) {
            t.fault(&mut self.recorder, at, slot, reason);
        }
    }

    /// A sprint engaged on `slot`: recorded, its episode span opened,
    /// and counted.
    fn sprint_engaged(&mut self, at: SimTime, slot: usize, stuck: bool) {
        let kind = EventKind::SprintEngaged {
            slot: slot as u32,
            stuck,
        };
        self.record(at, kind);
        if let Some(t) = self.tracer.as_mut() {
            t.open_sprint(&mut self.recorder, at, slot);
        }
        obs::global().sprints_engaged.incr();
    }

    /// The sprint on `slot` ended for `reason`: recorded, then its
    /// episode span closed with the matching outcome.
    fn sprint_ended(&mut self, at: SimTime, slot: usize, reason: UnsprintReason) {
        let kind = EventKind::SprintEnded {
            slot: slot as u32,
            reason,
        };
        self.record(at, kind);
        if let Some(t) = self.tracer.as_mut() {
            let outcome = SpanOutcome::from_unsprint(reason);
            t.close_sprint(&mut self.recorder, at, slot, outcome);
        }
    }
}

/// What the flight recorder and the causal tracer make of one routing
/// verdict for a message from peer `from` to peer `to`: the event that
/// records it and, for a delayed or lost message, the reason it is a
/// cause of what follows. An inline delivery is not observed. The
/// testbed server and the fleet control plane both report their
/// verdicts through this one mapping.
pub fn delivery_observation(
    from: u32,
    to: u32,
    delivery: Delivery,
) -> Option<(EventKind, Option<CauseReason>)> {
    match delivery {
        Delivery::Inline => None,
        Delivery::Delayed { delay } => Some((
            EventKind::MessageDelayed {
                from,
                to,
                delay_micros: delay.0,
            },
            Some(CauseReason::MessageDelay),
        )),
        Delivery::Dropped { partitioned } => Some((
            EventKind::MessageDropped {
                from,
                to,
                partitioned,
            },
            Some(if partitioned {
                CauseReason::Partition
            } else {
                CauseReason::MessageDrop
            }),
        )),
        Delivery::Duplicated { extra_delay } => Some((
            EventKind::MessageDuplicated {
                from,
                to,
                delay_micros: extra_delay.0,
            },
            None,
        )),
    }
}

/// Pending-cause list bound: fault links observed before any sprint
/// span is open are held for the next engage; the bound keeps a
/// never-engaging run from growing the list without limit.
const MAX_PENDING_CAUSES: usize = 16;

/// Causal-span emitter for one server (one fleet node, or a standalone
/// run as node 0). Span ids are `(node+1) << 32 | seq` with `seq`
/// assigned in engage order, so they are bit-identical across replays
/// and never collide across nodes sharing a trace. A pure observer:
/// writes [`EventKind::SpanOpened`]/[`EventKind::SpanClosed`]/
/// [`EventKind::CauseLinked`] into the attached recorder and draws no
/// randomness.
#[derive(Debug)]
struct NodeTracer {
    node: u32,
    next_seq: u64,
    /// Parent span for sprint episodes (the node's lease span in a
    /// fleet run; 0 standalone).
    parent: u64,
    /// Open sprint-episode span per slot (0 = none).
    open: Vec<u64>,
    /// Fault causes sensed before the affected sprint span opened
    /// (e.g. a dropped budget report while idle); attached to the next
    /// opened span.
    pending: Vec<CauseReason>,
}

impl NodeTracer {
    fn new(node: u32, slots: usize) -> NodeTracer {
        NodeTracer {
            node,
            next_seq: 0,
            parent: 0,
            open: vec![0; slots],
            pending: Vec::new(),
        }
    }

    /// Opens a sprint-episode span on `slot`, attaching any causes
    /// sensed while no span was open.
    fn open_sprint(&mut self, rec: &mut Option<FlightRecorder>, at: SimTime, slot: usize) {
        self.next_seq += 1;
        let span = ((self.node as u64 + 1) << 32) | self.next_seq;
        self.open[slot] = span;
        note(
            rec,
            at,
            EventKind::SpanOpened {
                span,
                parent: self.parent,
                kind: SpanKind::SprintEpisode,
                node: self.node,
            },
        );
        for reason in self.pending.drain(..) {
            note(
                rec,
                at,
                EventKind::CauseLinked {
                    effect: span,
                    cause: 0,
                    reason,
                },
            );
        }
    }

    /// Closes the sprint-episode span open on `slot`, if any. A lease
    /// lapse additionally links the episode back to the lease span that
    /// lapsed (the trace parent), so fleet traces connect the forced
    /// unsprint to its lease lifecycle.
    fn close_sprint(
        &mut self,
        rec: &mut Option<FlightRecorder>,
        at: SimTime,
        slot: usize,
        outcome: SpanOutcome,
    ) {
        let span = std::mem::take(&mut self.open[slot]);
        if span == 0 {
            return;
        }
        if outcome == SpanOutcome::LeaseLapsed && self.parent != 0 {
            note(
                rec,
                at,
                EventKind::CauseLinked {
                    effect: span,
                    cause: self.parent,
                    reason: CauseReason::LeaseLapse,
                },
            );
        }
        note(rec, at, EventKind::SpanClosed { span, outcome });
    }

    /// Records a control-plane fault as a cause of the sprint episode
    /// on `slot` (or of any open episode, else the next one opened,
    /// when the fault is not slot-addressed).
    fn fault(
        &mut self,
        rec: &mut Option<FlightRecorder>,
        at: SimTime,
        slot: Option<usize>,
        reason: CauseReason,
    ) {
        let effect = match slot {
            Some(s) => self.open[s],
            None => self.open.iter().copied().find(|&s| s != 0).unwrap_or(0),
        };
        if effect != 0 {
            note(
                rec,
                at,
                EventKind::CauseLinked {
                    effect,
                    cause: 0,
                    reason,
                },
            );
        } else if self.pending.len() < MAX_PENDING_CAUSES {
            self.pending.push(reason);
        }
    }
}

/// Records an event if a recorder is attached.
fn note(recorder: &mut Option<FlightRecorder>, at: SimTime, kind: EventKind) {
    if let Some(r) = recorder.as_mut() {
        r.record(at, kind);
    }
}

/// Looks up a slot the event logic requires to be occupied, turning a
/// broken invariant into a typed error instead of a panic.
fn occupied<'s>(
    slots: &'s mut [Option<Slot>],
    slot: usize,
    ctx: &'static str,
) -> Result<&'s mut Slot, SprintError> {
    slots
        .get_mut(slot)
        .and_then(Option::as_mut)
        .ok_or_else(|| SprintError::runtime(ctx, format!("slot {slot} unexpectedly empty")))
}

impl<'m> Server<'m> {
    /// Builds a server for the given configuration and mechanism.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] if the configuration has
    /// zero slots or more than [`MAX_SLOTS`], zero queries, or a
    /// budget/refill the policy cannot realize.
    pub fn new(cfg: ServerConfig, mech: &'m dyn Mechanism) -> Result<Server<'m>, SprintError> {
        SprintError::require_nonzero("ServerConfig::slots", cfg.slots)?;
        if cfg.slots > MAX_SLOTS {
            return Err(SprintError::invalid(
                "ServerConfig::slots",
                format!("at most {MAX_SLOTS} slots, got {}", cfg.slots),
            ));
        }
        SprintError::require_nonzero("ServerConfig::num_queries", cfg.num_queries)?;
        // All server entropy descends from one root seed through the
        // tower; the namespace order matches the historical split(1..=3)
        // sequence, so existing golden runs are unchanged.
        let mut tower = EntropyTower::new(cfg.seed);
        let arrival_rng = tower.stream(ns::ARRIVALS);
        let service_rng = tower.stream(ns::SERVICE);
        let mix_rng = tower.stream(ns::MIX);
        let capacity = cfg.policy.budget_capacity();
        let refill_secs = cfg.policy.refill.as_secs_f64();
        // Infinite capacity is legal: the unlimited budget.
        SprintError::require_non_negative("Budget::capacity", capacity)?;
        SprintError::require_positive("Budget::refill_secs", refill_secs)?;
        let budget = Budget::new(capacity, refill_secs);
        let next_arrival_gap = Dist::Parametric {
            kind: cfg.arrivals.kind,
            mean: cfg.arrivals.rate.mean_interval(),
        };
        let slots = (0..cfg.slots).map(|_| None).collect();
        let down = vec![false; cfg.slots];
        Ok(Server {
            arrivals_left: cfg.num_queries,
            cfg,
            mech,
            reactor: Reactor::new(),
            queue: VecDeque::new(),
            slots,
            budget_cache_secs: budget.level(),
            budget,
            queries: Vec::new(),
            records: Vec::new(),
            next_arrival_gap,
            arrival_rng,
            service_rng,
            mix_rng,
            next_gen: 0,
            manager_debt_secs: 0.0,
            faults: None,
            supervisor: None,
            sprint_permit: true,
            primed: false,
            iterations: 0,
            end: SimTime::ZERO,
            down,
            obs: Observers::default(),
        })
    }

    /// Attaches a flight recorder keeping the last `capacity` events.
    /// Recording is observation-only: the run's records, counters and
    /// RNG streams are bit-identical with or without it.
    pub fn attach_recorder(&mut self, capacity: usize) {
        self.obs.recorder = Some(FlightRecorder::new(capacity));
    }

    /// Turns on causal tracing: sprint episodes become spans and
    /// control-plane faults become cause links, written as events into
    /// the attached recorder (attach one first — without a recorder the
    /// tracer emits nowhere). `node` labels the spans and picks the
    /// span-id namespace (`(node+1) << 32 | seq`); standalone runs use
    /// node 0. Observation-only: records, counters and RNG streams are
    /// bit-identical to an untraced run.
    pub fn enable_tracing(&mut self, node: u32) {
        if self.obs.tracer.is_none() {
            self.obs.tracer = Some(NodeTracer::new(node, self.cfg.slots));
        }
    }

    /// Sets the parent span for subsequently opened sprint-episode
    /// spans (a fleet driver passes the node's lease span here). No-op
    /// unless tracing is enabled.
    pub fn set_trace_parent(&mut self, span: u64) {
        if let Some(t) = self.obs.tracer.as_mut() {
            t.parent = span;
        }
    }

    /// Builds a server that injects the faults described by `plan`.
    ///
    /// The injector draws from its own RNG streams (derived from
    /// `plan.seed`, not `cfg.seed`), so the arrival/service processes
    /// are identical with and without faults, and a given
    /// `(cfg, plan)` pair is fully deterministic.
    ///
    /// # Errors
    ///
    /// Returns an error if the server configuration or the fault plan
    /// fails validation.
    pub fn with_faults(
        cfg: ServerConfig,
        mech: &'m dyn Mechanism,
        plan: FaultPlan,
    ) -> Result<Server<'m>, SprintError> {
        let mut server = Server::new(cfg, mech)?;
        server.faults = Some(FaultInjector::new(plan)?);
        Ok(server)
    }

    /// Builds a server that runs under a [`Supervisor`], optionally
    /// with a fault plan active. Supervision is deterministic (it draws
    /// no randomness), so a supervised run replays bit-identically for
    /// the same `(cfg, plan, sup)` triple.
    ///
    /// # Errors
    ///
    /// Returns an error if the server configuration, fault plan, or
    /// supervisor configuration fails validation.
    pub fn with_supervision(
        cfg: ServerConfig,
        mech: &'m dyn Mechanism,
        plan: Option<FaultPlan>,
        sup: SupervisorConfig,
    ) -> Result<Server<'m>, SprintError> {
        let mut server = Server::new(cfg, mech)?;
        if let Some(plan) = plan {
            server.faults = Some(FaultInjector::new(plan)?);
        }
        server.supervisor = Some(Supervisor::new(sup, server.cfg.slots)?);
        Ok(server)
    }

    /// Every arrival the run has fully accounted for: served to
    /// completion, or turned away by the admission ladder.
    fn accounted(&self) -> usize {
        let turned_away = self
            .supervisor
            .as_ref()
            .map(|s| s.counters().turned_away())
            .unwrap_or(0);
        self.records.len() + turned_away as usize
    }

    /// Runs the configured number of queries to completion and returns
    /// the per-query records.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Runtime`] if a simulation invariant
    /// breaks mid-run (same-instant event livelock, drained calendar
    /// with queries outstanding, or inconsistent slot state).
    pub fn run(self) -> Result<RunResult, SprintError> {
        Ok(self.run_inner()?.0)
    }

    /// Runs with the decision journal enabled, returning the journal
    /// alongside the result. Journaling is observation-only: the
    /// records, counters and RNG streams are bit-identical to an
    /// unjournaled run, and two runs of the same `(cfg, plan, sup)`
    /// produce identical journals.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Server::run`].
    pub fn run_journaled(mut self) -> Result<(RunResult, Journal<NodeRecord>), SprintError> {
        self.enable_journal();
        let (result, journal) = self.run_inner()?;
        Ok((result, journal.unwrap_or_default()))
    }

    fn run_inner(mut self) -> Result<(RunResult, Option<Journal<NodeRecord>>), SprintError> {
        self.prime();
        while !self.is_done() {
            if !self.step()? {
                break;
            }
        }
        let journal = self.obs.journal.take();
        Ok((self.finish()?, journal))
    }

    /// Schedules the run's initial events (first arrival, first thermal
    /// emergency). Idempotent; called automatically by [`Server::run`],
    /// or explicitly by a fleet driver before step-wise execution.
    pub fn prime(&mut self) {
        if self.primed {
            return;
        }
        self.primed = true;
        // Seed the first arrival.
        let gap = self.sample_arrival_gap(SimTime::ZERO);
        self.reactor.schedule(SimTime::ZERO + gap, Ev::Arrival);
        if let Some(at) = self.faults.as_ref().and_then(|f| f.first_thermal_secs()) {
            self.reactor
                .schedule(SimTime::from_secs_f64(at), Ev::Thermal);
        }
    }

    /// The instant of the server's next pending event, if any. A fleet
    /// driver interleaves many servers by always stepping the one whose
    /// next event is earliest.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.reactor.peek_time()
    }

    /// Whether every arrival has been fully accounted for (served or
    /// turned away) — the run's termination condition.
    pub fn is_done(&self) -> bool {
        self.accounted() == self.cfg.num_queries
    }

    /// Pops and handles exactly one event, returning `false` when no
    /// event is pending. [`Server::prime`] must have run first.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Runtime`] if a simulation invariant
    /// breaks (same-instant event livelock or inconsistent slot state).
    pub fn step(&mut self) -> Result<bool, SprintError> {
        let Some((now, ev)) = self.reactor.pop() else {
            return Ok(false);
        };
        self.obs.journal(now, NodeItem::Event(ev));
        self.iterations += 1;
        self.end = now;
        // Safety valve: a healthy run needs a small constant number
        // of events per query; hitting this bound means a
        // same-instant event livelock.
        if self.iterations >= 10_000 * (self.cfg.num_queries as u64 + 1) {
            return Err(SprintError::runtime(
                "Server::run",
                format!(
                    "event storm at {now}: ev {ev:?}, budget level {:.3e}, sprinting {}, \
                     records {}/{}",
                    self.budget.level(),
                    self.budget.sprinting(),
                    self.records.len(),
                    self.cfg.num_queries
                ),
            ));
        }
        match ev {
            Ev::Arrival => self.on_arrival(now)?,
            Ev::Timeout(id) => self.on_timeout(now, id)?,
            Ev::Slot { slot, gen } => self.on_slot_event(now, slot, gen)?,
            Ev::Crash { slot, query } => self.on_crash(now, slot, query)?,
            Ev::Thermal => self.on_thermal(now)?,
            Ev::SlotUp { slot } => self.on_slot_up(now, slot)?,
            Ev::Watchdog { slot, token } => self.on_watchdog(now, slot, token)?,
            Ev::Msg { msg, .. } => self.on_msg(now, msg)?,
        }
        Ok(true)
    }

    /// Seals the run: verifies every query was accounted for, sorts the
    /// records, and assembles the [`RunResult`]. In-flight control
    /// messages (e.g. a duplicate echo of the last force-unsprint) still
    /// pending when the final query completes are dropped with the
    /// reactor — receipt is idempotent, so delivering them could not
    /// change the outcome anyway.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Runtime`] if the calendar drained with
    /// queries outstanding.
    pub fn finish(mut self) -> Result<RunResult, SprintError> {
        let end = self.end;
        if self.accounted() != self.cfg.num_queries {
            return Err(SprintError::runtime(
                "Server::run",
                format!(
                    "calendar drained with queries outstanding: served {} + turned away {} \
                     != {} arrived",
                    self.records.len(),
                    self.accounted() - self.records.len(),
                    self.cfg.num_queries
                ),
            ));
        }
        self.records.sort_by_key(|r| r.id);
        let counters = self
            .faults
            .as_ref()
            .map(|f| f.counters())
            .unwrap_or_default();
        // Unsupervised runs serve every arrival.
        let (recovery, arrived) = match self.supervisor.as_mut() {
            Some(sup) => (sup.finalize(end.as_secs_f64()), self.cfg.num_queries),
            None => (Default::default(), self.records.len()),
        };
        Ok(RunResult {
            records: self.records,
            warmup: self.cfg.warmup,
            faults: counters,
            recovery,
            arrived,
            telemetry: self.obs.recorder.take().map(FlightRecorder::finish),
        })
    }

    fn on_arrival(&mut self, now: SimTime) -> Result<(), SprintError> {
        // Admission control runs before the query materializes: a shed
        // or rejected arrival consumes no service randomness and never
        // enters the queue (the client sees an immediate busy signal).
        let decision = self.supervisor.as_mut().map(|sup| {
            let before = sup.admission_mode();
            let outcome = sup.admit(self.queue.len(), now.as_secs_f64());
            (outcome, before, sup.admission_mode())
        });
        let admitted = match decision {
            None => true,
            Some((outcome, before, after)) => {
                if before != after {
                    self.obs.record(
                        now,
                        EventKind::AdmissionModeChanged {
                            from: before,
                            to: after,
                        },
                    );
                }
                let arrival_idx = (self.cfg.num_queries - self.arrivals_left) as u64;
                let depth = self.queue.len() as u32;
                match outcome {
                    AdmitOutcome::Admit => true,
                    AdmitOutcome::Shed => {
                        self.obs.record(
                            now,
                            EventKind::QueryShed {
                                query: arrival_idx,
                                queue_depth: depth,
                            },
                        );
                        false
                    }
                    AdmitOutcome::Reject => {
                        self.obs.record(
                            now,
                            EventKind::QueryRejected {
                                query: arrival_idx,
                                queue_depth: depth,
                            },
                        );
                        false
                    }
                }
            }
        };
        if admitted {
            let id = self.queries.len() as u64;
            let kind = self.cfg.mix.sample_kind(&mut self.mix_rng);
            let workload = Workload::get(kind);
            let mean = self
                .mech
                .sustained_rate(kind)
                .mean_interval()
                .mul_f64(self.cfg.mix.interference_inflation(kind));
            let service_secs = workload
                .service_dist(mean)
                .sample(&mut self.service_rng)
                .as_secs_f64()
                .max(1e-6);
            self.queries.push(QueryInfo {
                kind,
                arrival: now,
                service_secs,
                timed_out: false,
                state: QueryState::Queued,
                dispatch: SimTime::ZERO,
                retries: 0,
            });

            if self.cfg.policy.sprint_enabled && self.cfg.policy.timeout < SimDuration::MAX {
                let at = now.saturating_add(self.cfg.policy.timeout);
                if at < SimTime::MAX {
                    self.reactor.schedule(at, Ev::Timeout(id));
                }
            }

            if let Some(slot) = self.free_slot() {
                self.dispatch(now, id, slot)?;
            } else {
                self.queue.push_back(id);
                self.update_drag(now)?;
            }
            self.obs.record(
                now,
                EventKind::QueueDepth {
                    depth: self.queue.len() as u32,
                },
            );
        }

        self.arrivals_left -= 1;
        if self.arrivals_left > 0 {
            let gap = self.sample_arrival_gap(now);
            self.reactor.schedule(now + gap, Ev::Arrival);
        }
        Ok(())
    }

    /// Samples the next inter-arrival gap, honouring any time-varying
    /// rate modulation: the segment active *now* sets the rate. An
    /// active fault-plan storm window compounds multiplicatively on top
    /// of the configured modulation.
    fn sample_arrival_gap(&mut self, now: SimTime) -> SimDuration {
        let gap = self.next_arrival_gap.sample(&mut self.arrival_rng);
        let mut multiplier = self.cfg.arrivals.multiplier_at(now.as_secs_f64());
        if let Some(f) = self.faults.as_mut() {
            let storm = f.storm_multiplier(now.as_secs_f64());
            if storm != 1.0 {
                f.record_storm_arrival();
                multiplier *= storm;
            }
        }
        if (multiplier - 1.0).abs() < 1e-12 {
            gap
        } else {
            gap.mul_f64(1.0 / multiplier)
        }
    }

    /// The budget level the sprint controller acts on, in seconds.
    ///
    /// The fresh (possibly drifted) sensor reading travels from the
    /// budget sensor to the controller as a [`CtrlMsg::BudgetReport`]
    /// over the simulated network. Without message faults the report
    /// delivers inline — a synchronous call at the send site, exactly
    /// the pre-reactor behaviour. Under message faults a delayed or
    /// dropped report leaves the controller acting on its last
    /// *delivered* reading instead.
    fn sensed_level_now(&mut self, now: SimTime) -> f64 {
        let Some(f) = self.faults.as_mut() else {
            return self.budget.level();
        };
        let fresh = f.sensed_level(self.budget.level());
        let report = Ev::Msg {
            from: Peer::BudgetSensor,
            to: Peer::Controller,
            msg: CtrlMsg::BudgetReport {
                level_us: (fresh * 1e6).round() as u64,
            },
        };
        match self.route(now, Peer::BudgetSensor, Peer::Controller, None) {
            Delivery::Inline => {
                self.budget_cache_secs = fresh;
                fresh
            }
            Delivery::Delayed { delay } => {
                self.reactor.schedule(now + delay, report);
                self.budget_cache_secs
            }
            Delivery::Dropped { .. } => self.budget_cache_secs,
            Delivery::Duplicated { extra_delay } => {
                self.reactor.schedule(now + extra_delay, report);
                self.budget_cache_secs = fresh;
                fresh
            }
        }
    }

    /// Budget availability as the controller perceives it. Without an
    /// injector this is exactly [`Budget::available`].
    fn sensed_available(&mut self, now: SimTime) -> bool {
        if self.budget.capacity().is_infinite() {
            return true;
        }
        match &self.faults {
            Some(_) => self.sensed_level_now(now) > EMPTY_SECS,
            None => self.budget.available(),
        }
    }

    /// Seconds until the *perceived* budget level empties at the
    /// current drain rate. Drift (and stale message-fault caches) shift
    /// the horizon the same way they shift the level, so
    /// sprint-disengage events follow the controller's view.
    fn sensed_seconds_to_exhaustion(&mut self, now: SimTime) -> Option<f64> {
        let horizon = self.budget.seconds_to_exhaustion()?;
        match &self.faults {
            Some(_) => Some(self.sensed_level_now(now) / self.budget.sprinting() as f64),
            None => Some(horizon),
        }
    }

    /// Routes a control message from `from` to `to` through the fault
    /// plan's network and reports the verdict, `slot` naming the sprint
    /// the message concerns. Without message faults every message
    /// delivers inline, unrouted and unobserved.
    fn route(&mut self, now: SimTime, from: Peer, to: Peer, slot: Option<usize>) -> Delivery {
        match self.faults.as_mut() {
            Some(f) if f.has_message_faults() => {
                let delivery = f.route_message(now.as_secs_f64(), from, to);
                self.obs.routed(now, from, to, delivery, slot);
                delivery
            }
            _ => Delivery::Inline,
        }
    }

    /// Handles a control message reaching its destination.
    fn on_msg(&mut self, now: SimTime, msg: CtrlMsg) -> Result<(), SprintError> {
        match msg {
            CtrlMsg::ForceUnsprint { slot, token } => self.force_unsprint(now, slot, token),
            CtrlMsg::BudgetReport { level_us } => {
                // Overwrite on arrival: a report that was delayed past a
                // fresher one is the *reorder* fault — the controller
                // regresses to the older reading until the next report
                // lands.
                self.budget_cache_secs = level_us as f64 / 1e6;
                Ok(())
            }
        }
    }

    fn on_timeout(&mut self, now: SimTime, id: u64) -> Result<(), SprintError> {
        let state = self.queries[id as usize].state;
        // Every live interrupt costs the queue manager service time,
        // paid at the next dispatch.
        if state != QueryState::Done {
            self.manager_debt_secs += INTERRUPT_COST_SECS;
        }
        match state {
            QueryState::Done => {} // Completed before the timer fired.
            QueryState::Queued => {
                // Sprint will be initiated when the query is dispatched.
                self.queries[id as usize].timed_out = true;
            }
            QueryState::Running(slot) => {
                self.queries[id as usize].timed_out = true;
                self.budget.update(now);
                let can_sprint = self.sensed_available(now) && self.sprint_permit;
                let toggle = self.mech.toggle_overhead();
                let slot_ref = occupied(&mut self.slots, slot, "Server::on_timeout")?;
                match slot_ref.engine.mode() {
                    // §2.1: "if the callback executes after the query is
                    // dispatched, the queue manager initiates sprinting
                    // right away — provided the budget is not empty."
                    ExecMode::Normal if can_sprint => {
                        slot_ref.engine.advance(now, self.mech);
                        slot_ref.engine.set_mode(ExecMode::Stalled {
                            until: now + toggle,
                            then_sprint: true,
                        });
                        self.reschedule_slot(now, slot)?;
                    }
                    // Still inside the dispatch stall: upgrade it to
                    // engage a sprint when it ends (the toggle may
                    // lengthen the stall).
                    ExecMode::Stalled {
                        until,
                        then_sprint: false,
                    } if can_sprint => {
                        let until = until.max(now + toggle);
                        slot_ref.engine.set_mode(ExecMode::Stalled {
                            until,
                            then_sprint: true,
                        });
                        self.reschedule_slot(now, slot)?;
                    }
                    // Already sprinting/engaging, or the budget is dry:
                    // the interrupt is a no-op.
                    _ => {}
                }
            }
        }
        Ok(())
    }

    fn on_slot_event(&mut self, now: SimTime, slot: usize, gen: u64) -> Result<(), SprintError> {
        let Some(s) = self.slots[slot].as_ref() else {
            return Ok(());
        };
        if s.gen != gen {
            return Ok(()); // Stale event.
        }
        self.budget.update(now);
        let mode = s.engine.mode();
        let stuck = s.stuck;
        match mode {
            ExecMode::Stalled { until, then_sprint } if now >= until => {
                let wants_sprint = then_sprint && self.sensed_available(now) && self.sprint_permit;
                // The injector only sees engages that would otherwise
                // succeed; it can fail them or latch them stuck on.
                let outcome = if !wants_sprint {
                    EngageOutcome::Failed
                } else {
                    match self.faults.as_mut() {
                        Some(f) => f.engage_outcome(now.as_secs_f64()),
                        None => EngageOutcome::Engaged,
                    }
                };
                let s = occupied(&mut self.slots, slot, "Server::on_slot_event")?;
                s.engine.advance(now, self.mech);
                match outcome {
                    EngageOutcome::Engaged | EngageOutcome::EngagedStuck => {
                        s.stuck = matches!(outcome, EngageOutcome::EngagedStuck);
                        s.engine.set_mode(ExecMode::Sprinting);
                        self.obs.sprint_engaged(now, slot, s.stuck);
                        self.budget.start_sprint();
                        // Arm the sprint watchdog: if this same engage
                        // is still sprinting when the deadline passes,
                        // it is presumed stuck and forced off.
                        if let Some(sup) = self.supervisor.as_mut() {
                            let token = sup.next_sprint_token();
                            let deadline = now + SimDuration::from_secs_f64(sup.watchdog_secs());
                            occupied(&mut self.slots, slot, "Server::on_slot_event")?
                                .sprint_token = token;
                            self.reactor
                                .schedule(deadline, Ev::Watchdog { slot, token });
                        }
                        self.reschedule_all_sprinting(now)?;
                    }
                    EngageOutcome::Failed => {
                        s.engine.set_mode(ExecMode::Normal);
                        // Only an engage the injector vetoed is a
                        // failure; a stall that never wanted to sprint
                        // (or lost its budget) is normal operation.
                        if wants_sprint {
                            let kind = EventKind::SprintEngageFailed { slot: slot as u32 };
                            self.obs.record(now, kind);
                        }
                        self.reschedule_slot(now, slot)?;
                    }
                }
            }
            ExecMode::Sprinting | ExecMode::Normal => {
                let s = occupied(&mut self.slots, slot, "Server::on_slot_event")?;
                s.engine.advance(now, self.mech);
                if s.engine.is_complete() {
                    self.complete(now, slot)?;
                } else if matches!(mode, ExecMode::Sprinting)
                    && !stuck
                    && !self.sensed_available(now)
                {
                    // Budget ran dry mid-sprint: fall back to sustained.
                    // A stuck sprint ignores exhaustion — it keeps
                    // draining until completion or a thermal emergency.
                    let s = occupied(&mut self.slots, slot, "Server::on_slot_event")?;
                    s.engine.set_mode(ExecMode::Normal);
                    self.obs.sprint_ended(now, slot, UnsprintReason::BudgetDry);
                    self.budget.end_sprint();
                    self.reschedule_all_sprinting(now)?;
                    self.reschedule_slot(now, slot)?;
                } else {
                    // Spurious wake-up; recompute.
                    self.reschedule_slot(now, slot)?;
                }
            }
            ExecMode::Stalled { .. } => {
                // Stall not over yet (event raced a reschedule); the
                // newer event will resolve it.
            }
        }
        Ok(())
    }

    /// Whether the sprint armed with `token` is still engaged on `slot`
    /// (stale tokens mean the sprint already disengaged, the query
    /// completed, or the slot re-engaged).
    fn watchdog_live(&self, slot: usize, token: u64) -> bool {
        matches!(
            self.slots[slot].as_ref(),
            Some(s) if s.sprint_token == token && matches!(s.engine.mode(), ExecMode::Sprinting)
        )
    }

    /// Supervision: the sprint watchdog fires. If the engage that armed
    /// it is still sprinting (token matches), the watchdog sends the
    /// controller a [`CtrlMsg::ForceUnsprint`] command through the
    /// simulated network. Without message faults the command delivers
    /// inline (pre-reactor behaviour, bit for bit); under them the
    /// command can arrive late — the stuck sprint overruns until the
    /// delayed command lands — or be lost outright, leaving the budget
    /// sensor's exhaustion horizon as the only backstop.
    fn on_watchdog(&mut self, now: SimTime, slot: usize, token: u64) -> Result<(), SprintError> {
        if !self.watchdog_live(slot, token) {
            return Ok(());
        }
        let command = Ev::Msg {
            from: Peer::Watchdog,
            to: Peer::Controller,
            msg: CtrlMsg::ForceUnsprint { slot, token },
        };
        match self.route(now, Peer::Watchdog, Peer::Controller, Some(slot)) {
            Delivery::Inline => self.force_unsprint(now, slot, token),
            Delivery::Delayed { delay } => {
                self.reactor.schedule(now + delay, command);
                Ok(())
            }
            // The unsprint command is lost: nobody retries it, so the
            // stuck sprint keeps draining until completion or budget
            // exhaustion.
            Delivery::Dropped { .. } => Ok(()),
            Delivery::Duplicated { extra_delay } => {
                self.reactor.schedule(now + extra_delay, command);
                // The echo goes stale on receipt (the token no longer
                // matches a live sprint), so double delivery is safe.
                self.force_unsprint(now, slot, token)
            }
        }
    }

    /// Controller receipt of a force-unsprint command: if the sprint
    /// armed with `token` is still engaged, it is forced off, budget
    /// drain stops, and the execution continues at the sustained rate.
    /// Stale tokens are ignored, making delayed and duplicated commands
    /// harmless.
    fn force_unsprint(&mut self, now: SimTime, slot: usize, token: u64) -> Result<(), SprintError> {
        if !self.watchdog_live(slot, token) {
            return Ok(());
        }
        self.budget.update(now);
        let s = occupied(&mut self.slots, slot, "Server::force_unsprint")?;
        s.engine.advance(now, self.mech);
        s.engine.set_mode(ExecMode::Normal);
        s.stuck = false;
        let fired = EventKind::WatchdogFired { slot: slot as u32 };
        self.obs.record(now, fired);
        self.obs.sprint_ended(now, slot, UnsprintReason::Watchdog);
        self.budget.end_sprint();
        if let Some(sup) = self.supervisor.as_mut() {
            sup.record_forced_unsprint();
        }
        self.reschedule_all_sprinting(now)?;
        self.reschedule_slot(now, slot)?;
        Ok(())
    }

    /// Supervision: a restarted slot rejoins the pool and immediately
    /// pulls queued work if any is waiting.
    fn on_slot_up(&mut self, now: SimTime, slot: usize) -> Result<(), SprintError> {
        self.down[slot] = false;
        if let Some(sup) = self.supervisor.as_mut() {
            sup.on_slot_up(slot);
        }
        self.obs
            .record(now, EventKind::SlotUp { slot: slot as u32 });
        let available = self
            .supervisor
            .as_ref()
            .map(|s| s.slot_available(slot))
            .unwrap_or(true);
        if available && self.slots[slot].is_none() {
            if let Some(next) = self.queue.pop_front() {
                self.dispatch(now, next, slot)?;
                self.update_drag(now)?;
            }
        }
        Ok(())
    }

    /// Fault injection: the execution in `slot` crashes. The query is
    /// pushed back to the head of the queue (preserving FIFO order) and
    /// redispatched with fresh dispatch overhead; its timestamps keep
    /// the original arrival but move `dispatch` to the retry hand-off.
    fn on_crash(&mut self, now: SimTime, slot: usize, query: u64) -> Result<(), SprintError> {
        let stale = match self.slots[slot].as_ref() {
            Some(s) => s.query != query,
            None => true,
        };
        if stale || self.queries[query as usize].state != QueryState::Running(slot) {
            return Ok(()); // The query completed before its crash point.
        }
        self.budget.update(now);
        let s = self.slots[slot].take().ok_or_else(|| {
            SprintError::runtime("Server::on_crash", format!("crashing slot {slot} empty"))
        })?;
        self.obs.record(
            now,
            EventKind::SlotCrashed {
                slot: slot as u32,
                query,
            },
        );
        if matches!(s.engine.mode(), ExecMode::Sprinting) {
            self.obs.sprint_ended(now, slot, UnsprintReason::Crash);
            self.budget.end_sprint();
            self.reschedule_all_sprinting(now)?;
        }
        let info = &mut self.queries[query as usize];
        info.state = QueryState::Queued;
        info.retries += 1;
        let retries = info.retries;
        let f = self.faults.as_mut().ok_or_else(|| {
            SprintError::runtime(
                "Server::on_crash",
                "crash event without injector".to_string(),
            )
        })?;
        f.record_crash(retries >= f.max_retries());
        let repair_secs = f.crash_repair_secs();
        // All progress is lost; the crashed query re-enters at the head
        // of the queue.
        self.queue.push_front(query);
        match self.supervisor.as_mut().map(|sup| sup.on_crash(slot)) {
            // Supervised: the crashed slot goes offline for a backoff
            // (or for good); the requeued query redispatches on any
            // other available slot, or waits its turn at the head.
            Some(directive) => {
                match directive {
                    SlotDirective::Restart { delay_secs } => {
                        let delay = SimDuration::from_secs_f64(delay_secs);
                        self.obs.record(
                            now,
                            EventKind::SlotRestartScheduled {
                                slot: slot as u32,
                                delay_micros: delay.0,
                            },
                        );
                        self.reactor.schedule(now + delay, Ev::SlotUp { slot });
                    }
                    SlotDirective::Quarantine => {
                        self.obs
                            .record(now, EventKind::SlotQuarantined { slot: slot as u32 });
                    }
                }
                if let Some(other) = self.free_slot() {
                    if let Some(next) = self.queue.pop_front() {
                        self.dispatch(now, next, other)?;
                    }
                }
                self.update_drag(now)?;
            }
            // Unsupervised: nobody restarts the slot. With a repair
            // time in the plan it stays down until out-of-band repair;
            // the legacy 0.0 default restarts it instantly and
            // redispatches the crashed query.
            None => {
                if repair_secs > 0.0 {
                    self.down[slot] = true;
                    let repair = SimDuration::from_secs_f64(repair_secs);
                    self.obs.record(
                        now,
                        EventKind::SlotRestartScheduled {
                            slot: slot as u32,
                            delay_micros: repair.0,
                        },
                    );
                    self.reactor.schedule(now + repair, Ev::SlotUp { slot });
                    if let Some(other) = self.free_slot() {
                        if let Some(next) = self.queue.pop_front() {
                            self.dispatch(now, next, other)?;
                        }
                    }
                    self.update_drag(now)?;
                } else if let Some(next) = self.queue.pop_front() {
                    self.dispatch(now, next, slot)?;
                    self.update_drag(now)?;
                }
            }
        }
        Ok(())
    }

    /// Forces every sprinting execution (stuck ones included) back to
    /// the sustained rate, recording one `SprintEnded` per slot with the
    /// given reason. Shared by the thermal-emergency fault and the fleet
    /// lease-lapse fail-safe.
    fn unsprint_all(&mut self, now: SimTime, reason: UnsprintReason) -> Result<u64, SprintError> {
        let sprinting: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .filter(|s| matches!(s.engine.mode(), ExecMode::Sprinting))
                    .map(|_| i)
            })
            .collect();
        let mut unsprinted = 0u64;
        for i in sprinting {
            let s = occupied(&mut self.slots, i, "Server::unsprint_all")?;
            s.engine.advance(now, self.mech);
            s.engine.set_mode(ExecMode::Normal);
            s.stuck = false;
            self.obs.sprint_ended(now, i, reason);
            self.budget.end_sprint();
            unsprinted += 1;
            self.reschedule_slot(now, i)?;
        }
        Ok(unsprinted)
    }

    /// Fleet fail-safe: revokes nothing by itself but forces every
    /// sprinting execution back to the sustained rate *now*, recording
    /// the disengages as lease lapses. Called by a fleet node agent the
    /// moment its sprint lease expires unrenewed; pair with
    /// [`Server::set_sprint_permit`]`(false)` so no new sprint engages
    /// until a fresh lease is granted.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Runtime`] on inconsistent slot state.
    pub fn force_unsprint_all(&mut self, now: SimTime) -> Result<u64, SprintError> {
        self.budget.update(now);
        self.unsprint_all(now, UnsprintReason::LeaseLapsed)
    }

    /// Sets the external sprint permit (the fleet lease gate). While
    /// revoked, sprint engages are forbidden exactly as under a tripped
    /// model-health breaker; the admission/recovery ladder is untouched.
    pub fn set_sprint_permit(&mut self, allowed: bool) {
        self.sprint_permit = allowed;
    }

    /// Number of executions currently sprinting (draining the budget).
    pub fn sprinting(&self) -> usize {
        self.budget.sprinting()
    }

    /// Queries currently waiting in the manager's queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Queries served to completion so far.
    pub fn served(&self) -> usize {
        self.records.len()
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Turns on the decision journal (observation-only; idempotent,
    /// keeping any entries already recorded).
    pub fn enable_journal(&mut self) {
        self.obs.journal.get_or_insert_with(Journal::new);
    }

    /// Hands over the journal entries recorded since the last call, in
    /// decision order (none while journaling is off), so a fleet can
    /// journal its nodes in the order it ran them.
    pub fn drain_journal(&mut self) -> impl Iterator<Item = JournalEntry<NodeRecord>> + '_ {
        self.obs.journal.iter_mut().flat_map(Journal::drain)
    }

    /// Fault injection: a thermal emergency forces every sprinting
    /// execution (stuck ones included) back to the sustained rate and
    /// starts the injector's engage lockout.
    fn on_thermal(&mut self, now: SimTime) -> Result<(), SprintError> {
        self.budget.update(now);
        let unsprinted = self.unsprint_all(now, UnsprintReason::Thermal)?;
        self.obs.record(
            now,
            EventKind::ThermalEmergency {
                unsprinted: unsprinted as u32,
            },
        );
        let f = self.faults.as_mut().ok_or_else(|| {
            SprintError::runtime(
                "Server::on_thermal",
                "thermal event without injector".to_string(),
            )
        })?;
        let next = f.on_thermal(now.as_secs_f64(), unsprinted);
        self.reactor
            .schedule(SimTime::from_secs_f64(next), Ev::Thermal);
        Ok(())
    }

    fn complete(&mut self, now: SimTime, slot: usize) -> Result<(), SprintError> {
        let s = self.slots[slot].take().ok_or_else(|| {
            SprintError::runtime("Server::complete", format!("completing empty slot {slot}"))
        })?;
        if matches!(s.engine.mode(), ExecMode::Sprinting) {
            self.obs.sprint_ended(now, slot, UnsprintReason::Completed);
            self.budget.end_sprint();
            self.reschedule_all_sprinting(now)?;
        }
        let info = &mut self.queries[s.query as usize];
        info.state = QueryState::Done;
        self.records.push(QueryRecord {
            id: s.query,
            kind: info.kind,
            arrival: info.arrival,
            dispatch: info.dispatch,
            depart: now,
            timed_out: info.timed_out,
            sprinted: s.engine.ever_sprinted(),
            sprint_seconds: s.engine.sprint_seconds(),
            retries: info.retries,
        });
        if let Some(next) = self.queue.pop_front() {
            self.dispatch(now, next, slot)?;
            self.update_drag(now)?;
        }
        Ok(())
    }

    /// Re-applies the queue-length drag to every running execution
    /// after the queue changed.
    fn update_drag(&mut self, now: SimTime) -> Result<(), SprintError> {
        let effective_queue = self.queue.len().min(QUEUE_DRAG_SATURATION);
        let drag = 1.0 + QUEUE_DRAG_PER_QUERY * effective_queue as f64;
        for i in 0..self.slots.len() {
            if self.slots[i].is_some() {
                let s = occupied(&mut self.slots, i, "Server::update_drag")?;
                s.engine.advance(now, self.mech);
                s.engine.set_drag(drag);
                self.reschedule_slot(now, i)?;
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, now: SimTime, id: u64, slot: usize) -> Result<(), SprintError> {
        let overhead = DISPATCH_BASE_SECS
            + DISPATCH_PER_QUEUED_SECS * self.queue.len() as f64
            + std::mem::take(&mut self.manager_debt_secs);
        let sprint_allowed = self.sprint_permit;
        let info = &mut self.queries[id as usize];
        info.state = QueryState::Running(slot);
        info.dispatch = now;
        // A timeout that fired while queued initiates sprinting at
        // dispatch (§2.1); the toggle partially overlaps the dispatch
        // hand-off.
        let sprint_now = info.timed_out && self.cfg.policy.sprint_enabled && sprint_allowed;
        let mut ready = now + SimDuration::from_secs_f64(overhead);
        if sprint_now {
            ready += self
                .mech
                .toggle_overhead()
                .mul_f64(DISPATCH_SPRINT_TOGGLE_FRAC);
        }
        let engine = ExecutionState::new(info.kind, info.service_secs, now, ready, sprint_now)?;
        self.slots[slot] = Some(Slot {
            query: id,
            engine,
            gen: 0,
            stuck: false,
            sprint_token: 0,
        });
        // Fault injection: decide at dispatch whether this execution
        // will crash, and when. The event is matched by query id, so it
        // goes stale harmlessly if the query completes first (e.g. a
        // sprint compresses the service time past the crash point).
        if let Some(f) = self.faults.as_mut() {
            let retries = self.queries[id as usize].retries;
            if let Some(frac) = f.crash_point_frac(slot, retries) {
                let at =
                    now + SimDuration::from_secs_f64(frac * self.queries[id as usize].service_secs);
                self.reactor.schedule(at, Ev::Crash { slot, query: id });
            }
        }
        self.reschedule_slot(now, slot)
    }

    /// First slot that is both empty and not down — whether downed by
    /// the supervisor's restart/quarantine ladder or by an unsupervised
    /// crash awaiting out-of-band repair.
    fn free_slot(&self) -> Option<usize> {
        (0..self.slots.len()).find(|&i| {
            self.slots[i].is_none()
                && !self.down[i]
                && self
                    .supervisor
                    .as_ref()
                    .map(|s| s.slot_available(i))
                    .unwrap_or(true)
        })
    }

    /// Schedules the next event for `slot`: stall end, completion, or
    /// budget exhaustion, whichever comes first.
    fn reschedule_slot(&mut self, now: SimTime, slot: usize) -> Result<(), SprintError> {
        self.next_gen += 1;
        let gen = self.next_gen;
        let exhaust = self.sensed_seconds_to_exhaustion(now);
        let s = occupied(&mut self.slots, slot, "Server::reschedule_slot")?;
        s.gen = gen;
        let at = match s.engine.mode() {
            ExecMode::Stalled { until, .. } => until,
            ExecMode::Normal => {
                now + SimDuration::from_secs_f64_ceil(s.engine.remaining_secs(self.mech))
            }
            ExecMode::Sprinting => {
                let complete = s.engine.remaining_secs(self.mech);
                // A stuck sprint never disengages on exhaustion, so
                // only the completion horizon matters for it.
                let horizon = match exhaust {
                    Some(exhaust) if !s.stuck => complete.min(exhaust),
                    _ => complete,
                };
                now + SimDuration::from_secs_f64_ceil(horizon)
            }
        };
        self.reactor.schedule(at.max(now), Ev::Slot { slot, gen });
        Ok(())
    }

    /// Refreshes exhaustion events for every sprinting slot after the
    /// shared drain rate changed.
    fn reschedule_all_sprinting(&mut self, now: SimTime) -> Result<(), SprintError> {
        let sprinting: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .filter(|s| matches!(s.engine.mode(), ExecMode::Sprinting))
                    .map(|_| i)
            })
            .collect();
        for i in sprinting {
            let s = occupied(&mut self.slots, i, "Server::reschedule_all_sprinting")?;
            s.engine.advance(now, self.mech);
            self.reschedule_slot(now, i)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ArrivalSpec, BudgetSpec, ServerConfig, SprintPolicy};
    use mechanisms::{CpuThrottle, Dvfs};
    use simcore::time::Rate;
    use workloads::QueryMix;

    fn base_cfg(policy: SprintPolicy, util: f64, n: usize, seed: u64) -> ServerConfig {
        ServerConfig {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            arrivals: ArrivalSpec::poisson(Rate::per_hour(51.0 * util)),
            policy,
            slots: 1,
            num_queries: n,
            warmup: n / 10,
            seed,
        }
    }

    /// Slots are allocated up front: the constructor takes
    /// [`MAX_SLOTS`] and rejects one more with a typed error.
    #[test]
    fn slot_count_is_bounded() {
        let mech = Dvfs::new();
        let mut cfg = base_cfg(SprintPolicy::never(), 0.3, 10, 1);
        cfg.slots = MAX_SLOTS;
        assert!(Server::new(cfg.clone(), &mech).is_ok());
        cfg.slots = MAX_SLOTS + 1;
        match Server::new(cfg, &mech) {
            Err(SprintError::InvalidConfig { what, .. }) => assert_eq!(what, "ServerConfig::slots"),
            Err(e) => panic!("wrong error {e}"),
            Ok(_) => panic!("{} slots accepted", MAX_SLOTS + 1),
        }
    }

    #[test]
    fn no_sprint_run_matches_service_rate() {
        let mech = Dvfs::new();
        let r = Server::new(base_cfg(SprintPolicy::never(), 0.3, 300, 11), &mech)
            .and_then(Server::run)
            .unwrap();
        // Mean processing time should be near 1/µ = 70.6 s (plus small
        // dispatch overhead).
        let proc = r.mean_processing_secs();
        assert!((proc - 70.6).abs() < 5.0, "processing {proc:.1}s");
        assert_eq!(r.records().len(), 300);
        assert!(r.records().iter().all(|q| !q.sprinted));
    }

    #[test]
    fn always_sprint_approaches_marginal_rate() {
        let mech = Dvfs::new();
        let r = Server::new(base_cfg(SprintPolicy::always(), 0.3, 300, 12), &mech)
            .and_then(Server::run)
            .unwrap();
        let speedup = mech.marginal_speedup(WorkloadKind::Jacobi);
        let expect = 70.6 / speedup;
        let proc = r.mean_processing_secs();
        assert!(
            (proc - expect).abs() < 5.0,
            "processing {proc:.1}s vs {expect:.1}s"
        );
        assert!(r.records().iter().all(|q| q.sprinted));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mech = Dvfs::new();
        let p = SprintPolicy::new(
            SimDuration::from_secs(60),
            BudgetSpec::FractionOfRefill(0.2),
            SimDuration::from_secs(200),
        );
        let a = Server::new(base_cfg(p, 0.7, 200, 99), &mech)
            .and_then(Server::run)
            .unwrap();
        let b = Server::new(base_cfg(p, 0.7, 200, 99), &mech)
            .and_then(Server::run)
            .unwrap();
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn different_seeds_differ() {
        let mech = Dvfs::new();
        let a = Server::new(base_cfg(SprintPolicy::never(), 0.7, 100, 1), &mech)
            .and_then(Server::run)
            .unwrap();
        let b = Server::new(base_cfg(SprintPolicy::never(), 0.7, 100, 2), &mech)
            .and_then(Server::run)
            .unwrap();
        assert_ne!(a.records(), b.records());
    }

    #[test]
    fn fifo_order_preserved() {
        let mech = Dvfs::new();
        let r = Server::new(base_cfg(SprintPolicy::never(), 0.9, 200, 5), &mech)
            .and_then(Server::run)
            .unwrap();
        let mut dispatches: Vec<(SimTime, SimTime)> = r
            .records()
            .iter()
            .map(|q| (q.arrival, q.dispatch))
            .collect();
        dispatches.sort_by_key(|&(a, _)| a);
        for w in dispatches.windows(2) {
            assert!(w[0].1 <= w[1].1, "dispatch order violates FIFO");
        }
    }

    #[test]
    fn tight_budget_limits_sprinting() {
        let mech = CpuThrottle::new(0.2);
        // Budget for ~1 fully-sprinted query, slow refill.
        let policy = SprintPolicy::new(
            SimDuration::ZERO,
            BudgetSpec::Seconds(60.0),
            SimDuration::from_secs(100_000),
        );
        let mut cfg = base_cfg(policy, 0.8, 150, 21);
        cfg.arrivals = ArrivalSpec::poisson(Rate::per_hour(14.8 * 0.8));
        let r = Server::new(cfg, &mech).and_then(Server::run).unwrap();
        // Count *meaningful* sprints: after the 60-second budget drains,
        // later queries can only grab the trickle the slow refill
        // provides, so few queries get substantial sprint time.
        let substantial = r
            .records()
            .iter()
            .filter(|q| q.sprint_seconds > 10.0)
            .count();
        assert!(substantial > 0, "at least one query should sprint");
        assert!(
            substantial < 20,
            "budget should cap sprints, got {substantial} of 150"
        );
        let total_sprint: f64 = r.records().iter().map(|q| q.sprint_seconds).sum();
        // Total sprint seconds bounded by capacity plus everything the
        // slow refill can trickle in over the run.
        assert!(
            total_sprint < 60.0 + 150.0 * 304.0 * (60.0 / 100_000.0) + 60.0,
            "total sprint {total_sprint}"
        );
    }

    #[test]
    fn budget_exhaustion_mid_query_falls_back() {
        let mech = CpuThrottle::new(0.2);
        // 10 seconds of budget: the first sprint must cut off mid-run.
        let policy = SprintPolicy::new(
            SimDuration::ZERO,
            BudgetSpec::Seconds(10.0),
            SimDuration::from_secs(1_000_000),
        );
        let mut cfg = base_cfg(policy, 0.2, 50, 31);
        cfg.arrivals = ArrivalSpec::poisson(Rate::per_hour(3.0));
        let r = Server::new(cfg, &mech).and_then(Server::run).unwrap();
        let first = r.records().iter().find(|q| q.sprinted).expect("a sprint");
        assert!(
            (first.sprint_seconds - 10.0).abs() < 0.5,
            "first sprint should drain ~10 s, got {}",
            first.sprint_seconds
        );
        // Its processing must take longer than a full sprint would.
        let full_sprint = 243.0 / 5.0; // 14.8 qph -> 243 s; 5X sprint.
        assert!(first.processing_time().as_secs_f64() > full_sprint);
    }

    #[test]
    fn timeouts_fire_only_for_slow_queries() {
        let mech = Dvfs::new();
        let policy = SprintPolicy::new(
            SimDuration::from_secs(120),
            BudgetSpec::Unlimited,
            SimDuration::from_secs(100),
        );
        let r = Server::new(base_cfg(policy, 0.75, 300, 41), &mech)
            .and_then(Server::run)
            .unwrap();
        for q in r.records() {
            if q.response_time().as_secs_f64() < 119.0 {
                assert!(!q.timed_out, "fast query {} marked timed out", q.id);
            }
            if q.timed_out {
                assert!(q.response_time().as_secs_f64() >= 119.0);
            }
        }
        let timed: usize = r.records().iter().filter(|q| q.timed_out).count();
        assert!(timed > 0, "some queries should time out at 75% load");
    }

    #[test]
    fn sprinting_improves_response_time_under_load() {
        let mech = CpuThrottle::new(0.2);
        let mut no_sprint = base_cfg(SprintPolicy::never(), 0.8, 300, 55);
        no_sprint.arrivals = ArrivalSpec::poisson(Rate::per_hour(14.8 * 0.8));
        let mut sprint = no_sprint.clone();
        sprint.policy = SprintPolicy::new(
            SimDuration::from_secs(60),
            BudgetSpec::FractionOfRefill(0.4),
            SimDuration::from_secs(200),
        );
        let mech2 = CpuThrottle::new(0.2);
        let base = Server::new(no_sprint, &mech)
            .and_then(Server::run)
            .unwrap()
            .mean_response_secs();
        let fast = Server::new(sprint, &mech2)
            .and_then(Server::run)
            .unwrap()
            .mean_response_secs();
        assert!(
            fast < base * 0.9,
            "sprinting should help: {fast:.0}s vs {base:.0}s"
        );
    }

    #[test]
    fn multi_slot_server_runs() {
        let mech = Dvfs::new();
        let mut cfg = base_cfg(SprintPolicy::always(), 0.5, 200, 61);
        cfg.slots = 4;
        cfg.arrivals = ArrivalSpec::poisson(Rate::per_hour(51.0 * 2.0));
        let r = Server::new(cfg, &mech).and_then(Server::run).unwrap();
        assert_eq!(r.records().len(), 200);
        // With 4 slots at 2X the single-server service rate, queueing
        // should be modest: mean response near processing time.
        assert!(r.mean_response_secs() < 4.0 * r.mean_processing_secs());
    }

    #[test]
    fn spike_modulation_compresses_arrivals() {
        // 3X spike in the second half of every 2000 s period: the
        // spike windows should hold roughly 3X the arrivals per second
        // of the calm windows.
        let mech = Dvfs::new();
        let mut cfg = base_cfg(SprintPolicy::never(), 0.3, 600, 77);
        cfg.arrivals = ArrivalSpec::poisson(Rate::per_hour(51.0 * 0.3))
            .with_modulation(vec![
                crate::policy::RateSegment {
                    duration_secs: 1_000.0,
                    rate_multiplier: 1.0,
                },
                crate::policy::RateSegment {
                    duration_secs: 1_000.0,
                    rate_multiplier: 3.0,
                },
            ])
            .unwrap();
        let r = Server::new(cfg, &mech).and_then(Server::run).unwrap();
        let (mut calm, mut spike) = (0usize, 0usize);
        for q in r.records() {
            let t = q.arrival.as_secs_f64() % 2_000.0;
            if t < 1_000.0 {
                calm += 1;
            } else {
                spike += 1;
            }
        }
        let ratio = spike as f64 / calm.max(1) as f64;
        assert!(
            (2.0..4.5).contains(&ratio),
            "spike/calm arrival ratio {ratio} should be near 3"
        );
    }

    #[test]
    fn pareto_arrivals_run_to_completion() {
        let mech = Dvfs::new();
        let mut cfg = base_cfg(SprintPolicy::never(), 0.5, 200, 71);
        cfg.arrivals = ArrivalSpec::pareto(Rate::per_hour(25.0), 0.5);
        let r = Server::new(cfg, &mech).and_then(Server::run).unwrap();
        assert_eq!(r.records().len(), 200);
    }

    #[test]
    fn rejects_invalid_config() {
        let mech = Dvfs::new();
        let mut cfg = base_cfg(SprintPolicy::never(), 0.5, 100, 1);
        cfg.slots = 0;
        assert!(Server::new(cfg, &mech).is_err());
        let mut cfg = base_cfg(SprintPolicy::never(), 0.5, 100, 1);
        cfg.num_queries = 0;
        assert!(Server::new(cfg, &mech).is_err());
        let secs = SimDuration::from_secs;
        for (capacity, refill, rejected_as) in [
            (f64::NAN, 200, Some("Budget::capacity")),
            (-1.0, 200, Some("Budget::capacity")),
            (9.0, 0, Some("Budget::refill_secs")),
            // Zero capacity is a legal, always-empty budget.
            (0.0, 200, None),
        ] {
            let mut cfg = base_cfg(SprintPolicy::never(), 0.5, 100, 1);
            let budget = BudgetSpec::Seconds(capacity);
            cfg.policy = SprintPolicy::new(secs(60), budget, secs(refill));
            let what = Server::new(cfg, &mech).err().map(|e| match e {
                SprintError::InvalidConfig { what, .. } => what,
                other => panic!("{other}"),
            });
            assert_eq!(what, rejected_as, "{budget:?} refilled over {refill} s");
        }
    }

    fn sprint_cfg(n: usize, seed: u64) -> ServerConfig {
        let policy = SprintPolicy::new(
            SimDuration::from_secs(60),
            BudgetSpec::FractionOfRefill(0.2),
            SimDuration::from_secs(200),
        );
        base_cfg(policy, 0.7, n, seed)
    }

    #[test]
    fn noop_plan_is_bit_identical_to_no_plan() {
        let mech = Dvfs::new();
        let clean = Server::new(sprint_cfg(200, 99), &mech)
            .and_then(Server::run)
            .unwrap();
        let faulted = Server::with_faults(sprint_cfg(200, 99), &mech, FaultPlan::default())
            .and_then(Server::run)
            .unwrap();
        assert_eq!(clean.records(), faulted.records());
        assert_eq!(faulted.fault_counters().total(), 0);
    }

    #[test]
    fn crashes_requeue_and_retry() {
        let mech = Dvfs::new();
        let plan = FaultPlan {
            crash_prob: 0.3,
            max_retries: 2,
            ..FaultPlan::default()
        };
        let r = Server::with_faults(sprint_cfg(150, 7), &mech, plan)
            .and_then(Server::run)
            .unwrap();
        assert_eq!(r.records().len(), 150, "every query still completes");
        let c = r.fault_counters();
        assert!(c.slot_crashes > 0, "crash_prob 0.3 must fire");
        let retried = r.records().iter().filter(|q| q.retries > 0).count();
        assert!(retried > 0, "some queries must record retries");
        assert!(
            r.records().iter().all(|q| q.retries <= 2),
            "retries bounded by max_retries"
        );
        // Retried queries lose progress, so their processing time spans
        // at least the crash fraction extra.
        assert!(r.records().iter().all(|q| q.depart > q.arrival));
    }

    #[test]
    fn engage_failures_suppress_sprints() {
        let mech = Dvfs::new();
        let plan = FaultPlan {
            engage_failure_prob: 1.0,
            ..FaultPlan::default()
        };
        let r = Server::with_faults(sprint_cfg(200, 13), &mech, plan)
            .and_then(Server::run)
            .unwrap();
        assert!(r.records().iter().all(|q| !q.sprinted));
        assert!(r.fault_counters().engage_failures > 0);
    }

    #[test]
    fn stuck_sprints_overrun_the_budget() {
        let mech = CpuThrottle::new(0.2);
        // Tiny budget, slow refill: a healthy server can only sprint
        // ~10 s total, so a stuck latch visibly overruns it.
        let policy = SprintPolicy::new(
            SimDuration::ZERO,
            BudgetSpec::Seconds(10.0),
            SimDuration::from_secs(1_000_000),
        );
        let mut cfg = base_cfg(policy, 0.2, 60, 31);
        cfg.arrivals = ArrivalSpec::poisson(Rate::per_hour(3.0));
        let plan = FaultPlan {
            stuck_sprint_prob: 1.0,
            ..FaultPlan::default()
        };
        let r = Server::with_faults(cfg, &mech, plan)
            .and_then(Server::run)
            .unwrap();
        assert!(r.fault_counters().stuck_sprints > 0);
        let max_sprint = r
            .records()
            .iter()
            .map(|q| q.sprint_seconds)
            .fold(0.0, f64::max);
        assert!(
            max_sprint > 15.0,
            "a stuck sprint should blow through the 10 s budget, got {max_sprint:.1}"
        );
    }

    #[test]
    fn thermal_emergencies_force_unsprint() {
        let mech = CpuThrottle::new(0.2);
        let mut cfg = base_cfg(SprintPolicy::always(), 0.8, 150, 43);
        cfg.arrivals = ArrivalSpec::poisson(Rate::per_hour(14.8 * 0.8));
        let plan = FaultPlan {
            thermal_period_secs: 500.0,
            thermal_lockout_secs: 100.0,
            ..FaultPlan::default()
        };
        let r = Server::with_faults(cfg, &mech, plan)
            .and_then(Server::run)
            .unwrap();
        let c = r.fault_counters();
        assert!(c.thermal_unsprints > 0, "thermal events must fire");
        assert!(c.lockout_refusals > 0, "lockout must refuse engages");
    }

    #[test]
    fn arrival_storms_compress_gaps() {
        let mech = Dvfs::new();
        let cfg = base_cfg(SprintPolicy::never(), 0.3, 300, 17);
        let plan = FaultPlan {
            storms: vec![faults::StormWindow {
                start_secs: 0.0,
                duration_secs: 1e9,
                multiplier: 4.0,
            }],
            ..FaultPlan::default()
        };
        let clean = Server::new(base_cfg(SprintPolicy::never(), 0.3, 300, 17), &mech)
            .and_then(Server::run)
            .unwrap();
        let stormy = Server::with_faults(cfg, &mech, plan)
            .and_then(Server::run)
            .unwrap();
        let clean_span = clean.records().last().unwrap().arrival.as_secs_f64();
        let stormy_span = stormy.records().last().unwrap().arrival.as_secs_f64();
        assert!(
            stormy_span < clean_span / 2.0,
            "4X storm should compress arrivals: {stormy_span:.0}s vs {clean_span:.0}s"
        );
        assert!(stormy.fault_counters().storm_arrivals > 0);
    }

    #[test]
    fn idle_supervision_is_bit_identical_to_none() {
        // A supervisor that never intervenes (no faults, watermarks
        // never reached, watchdog never exceeded) must not perturb the
        // run: its extra watchdog events are pure observers.
        let mech = Dvfs::new();
        let clean = Server::new(sprint_cfg(200, 99), &mech)
            .and_then(Server::run)
            .unwrap();
        let supervised = Server::with_supervision(
            sprint_cfg(200, 99),
            &mech,
            None,
            crate::supervision::SupervisorConfig::default(),
        )
        .and_then(Server::run)
        .unwrap();
        assert_eq!(clean.records(), supervised.records());
        assert_eq!(supervised.recovery_counters().total(), 0);
        assert!(supervised.conserves_queries());
    }

    #[test]
    fn watchdog_bounds_stuck_sprint_overrun() {
        let mech = CpuThrottle::new(0.2);
        let policy = SprintPolicy::new(
            SimDuration::ZERO,
            BudgetSpec::Seconds(10.0),
            SimDuration::from_secs(1_000_000),
        );
        let mut cfg = base_cfg(policy, 0.2, 60, 31);
        cfg.arrivals = ArrivalSpec::poisson(Rate::per_hour(3.0));
        let plan = FaultPlan {
            stuck_sprint_prob: 1.0,
            ..FaultPlan::default()
        };
        let sup = crate::supervision::SupervisorConfig {
            watchdog_secs: 20.0,
            ..Default::default()
        };
        let r = Server::with_supervision(cfg, &mech, Some(plan), sup)
            .and_then(Server::run)
            .unwrap();
        assert!(r.recovery_counters().forced_unsprints > 0);
        let max_sprint = r
            .records()
            .iter()
            .map(|q| q.sprint_seconds)
            .fold(0.0, f64::max);
        // Without the watchdog the same plan overruns the 10 s budget
        // past 15 s (see stuck_sprints_overrun_the_budget); with it, no
        // sprint survives much past the 20 s deadline.
        assert!(
            max_sprint < 21.0,
            "watchdog must cap stuck sprints, got {max_sprint:.1}"
        );
    }

    #[test]
    fn bad_slot_is_quarantined_and_stops_crashing() {
        let mech = Dvfs::new();
        let mut cfg = sprint_cfg(200, 23);
        cfg.slots = 2;
        cfg.arrivals = ArrivalSpec::poisson(Rate::per_hour(51.0 * 1.4));
        let plan = FaultPlan {
            seed: 9,
            bad_slot: Some(0),
            bad_slot_crash_prob: 0.9,
            max_retries: 10,
            ..FaultPlan::default()
        };
        // Watermarks high enough that crash turbulence never trips
        // admission control — this test isolates slot supervision.
        let sup = crate::supervision::SupervisorConfig {
            quarantine_after: 3,
            shed_watermark: 200,
            reject_watermark: 400,
            drain_watermark: 100,
            ..Default::default()
        };
        let r = Server::with_supervision(cfg, &mech, Some(plan), sup)
            .and_then(Server::run)
            .unwrap();
        let rec = r.recovery_counters();
        assert_eq!(rec.quarantines, 1, "the bad slot must be quarantined");
        assert_eq!(
            r.fault_counters().slot_crashes,
            3,
            "crashes stop once the bad slot is out of rotation"
        );
        assert_eq!(rec.requeued_queries, 3);
        assert!(r.conserves_queries());
        assert_eq!(r.served(), 200, "nothing was shed, everything completes");
    }

    #[test]
    fn storm_overload_sheds_and_conserves_queries() {
        let mech = Dvfs::new();
        let cfg = sprint_cfg(300, 61);
        let plan = FaultPlan {
            storms: vec![faults::StormWindow {
                start_secs: 0.0,
                duration_secs: 1e9,
                multiplier: 8.0,
            }],
            ..FaultPlan::default()
        };
        let sup = crate::supervision::SupervisorConfig::default();
        let r = Server::with_supervision(cfg, &mech, Some(plan), sup)
            .and_then(Server::run)
            .unwrap();
        let rec = r.recovery_counters();
        assert!(
            rec.turned_away() > 0,
            "an 8X storm on a 70% utilized server must trip admission control"
        );
        assert!(rec.shed_queries > 0, "the ladder sheds before it rejects");
        assert!(rec.degraded_secs > 0.0);
        assert!(r.conserves_queries());
        assert_eq!(r.arrived(), 300);
        assert!(r.served() < 300);
    }

    #[test]
    fn supervised_runs_replay_bit_identically() {
        let mech = Dvfs::new();
        let plan = FaultPlan {
            seed: 5,
            stuck_sprint_prob: 0.3,
            bad_slot: Some(0),
            bad_slot_crash_prob: 0.4,
            max_retries: 4,
            storms: vec![faults::StormWindow {
                start_secs: 1_000.0,
                duration_secs: 5_000.0,
                multiplier: 5.0,
            }],
            ..FaultPlan::default()
        };
        let mut cfg = sprint_cfg(250, 3);
        cfg.slots = 2;
        let sup = crate::supervision::SupervisorConfig {
            watchdog_secs: 60.0,
            ..Default::default()
        };
        let a = Server::with_supervision(cfg.clone(), &mech, Some(plan.clone()), sup)
            .and_then(Server::run)
            .unwrap();
        let b = Server::with_supervision(cfg, &mech, Some(plan), sup)
            .and_then(Server::run)
            .unwrap();
        assert_eq!(a.records(), b.records());
        assert_eq!(a.recovery_counters(), b.recovery_counters());
        assert_eq!(a.fault_counters(), b.fault_counters());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let mech = Dvfs::new();
        let plan = FaultPlan {
            seed: 5,
            engage_failure_prob: 0.2,
            stuck_sprint_prob: 0.1,
            crash_prob: 0.15,
            max_retries: 2,
            budget_drift_secs: -5.0,
            thermal_period_secs: 800.0,
            thermal_lockout_secs: 60.0,
            ..FaultPlan::default()
        };
        let a = Server::with_faults(sprint_cfg(200, 3), &mech, plan.clone())
            .and_then(Server::run)
            .unwrap();
        let b = Server::with_faults(sprint_cfg(200, 3), &mech, plan)
            .and_then(Server::run)
            .unwrap();
        assert_eq!(a.records(), b.records());
        assert_eq!(a.fault_counters().total(), b.fault_counters().total());
    }
}
