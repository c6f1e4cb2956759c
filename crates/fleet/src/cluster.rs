//! The fleet runtime: N testbed servers behind a load balancer,
//! coordinated by a lease-granting sprint coordinator with heartbeat
//! failover, all driven by one interleaved virtual clock.
//!
//! # Protocol
//!
//! Sprinting is gated by **time-bounded leases**. A node may only
//! sprint while it holds an unexpired lease from the coordinator; the
//! permit is wired straight into the server's supervision gate via
//! [`testbed::Server::set_sprint_permit`]. Every failure mode — a
//! dropped grant, a crashed coordinator, a partition, a lost renewal —
//! converges to the same safe outcome: the lease lapses and the node
//! force-unsprints within one watchdog period of expiry. Nothing in the
//! control plane can *start* power draw; it can only permit it for a
//! bounded window.
//!
//! Coordinators run a heartbeat-timeout election. Epochs are unique by
//! construction (`epoch = term × coordinators + id`), so two
//! coordinators can never mint the same epoch, and a deposed primary
//! fences itself (`step_down_secs < election_secs`) before its
//! successor starts granting. The worst-case overshoot is therefore
//! bounded: stale leases from the old epoch coexist with fresh grants
//! for at most one lease duration — the "budget plus one lease of
//! slack" invariant checked by the cluster's private `Tracker`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use faults::FaultCounters;
use obs::{CauseReason, EventKind, FlightRecorder, RunTelemetry, SpanKind, SpanOutcome, TraceCtx};
use reactor::{Delivery, Journal, Reactor};
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use simcore::SprintError;
use testbed::{delivery_observation, NodeRecord, RunResult, Server};

use crate::spec::{FleetPartition, FleetSpec};

/// Control-plane address: a coordinator or a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// Coordinator `c`.
    Coordinator(u32),
    /// Node `n`.
    Node(u32),
}

impl Addr {
    /// Flattened index for telemetry: coordinators first, then nodes.
    fn flat(self, coordinators: u32) -> u32 {
        match self {
            Addr::Coordinator(c) => c,
            Addr::Node(n) => coordinators + n,
        }
    }
}

/// Control-plane messages. All lease state transitions ride on these;
/// there is no side channel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FleetMsg {
    /// Acquire or renew a lease. `held_epoch` is the epoch of a lease
    /// the node still holds (0 = none) so a fresh primary can observe
    /// stale grants during re-registration.
    LeaseRequest { node: u32, held_epoch: u64 },
    /// The coordinator grants (or renews) a lease until `expires_us`.
    LeaseGrant { epoch: u64, expires_us: u64 },
    /// The coordinator has no budget for this node right now.
    LeaseDeny { epoch: u64 },
    /// The node is done and returns its lease early.
    LeaseRelease { node: u32 },
    /// Primary liveness beacon to peer coordinators.
    Heartbeat { from: u32, epoch: u64 },
    /// Peer acknowledgement of a heartbeat.
    HeartbeatAck { epoch: u64 },
}

/// Node-side timers. `seq` fences request/timeout pairs against state
/// changes; `gen` fences renew/expiry timers against lease turnover.
#[derive(Debug, Clone, Copy, PartialEq)]
enum NodeTimer {
    Request { seq: u64 },
    RequestTimeout { seq: u64 },
    Renew { gen: u64 },
    Expiry { gen: u64 },
}

/// Coordinator-side timers; each event carries the coordinator's
/// incarnation `gen` so timers from before a crash are dead on arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CoordTimer {
    Heartbeat,
    StepDownCheck,
    ElectionCheck,
    Sweep,
}

/// Fleet reactor events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FleetEv {
    Deliver {
        from: Addr,
        to: Addr,
        msg: FleetMsg,
    },
    Node {
        node: u32,
        timer: NodeTimer,
    },
    Coord {
        coord: u32,
        timer: CoordTimer,
        gen: u64,
    },
    CoordCrash {
        coord: u32,
    },
    CoordRepair {
        coord: u32,
    },
    Health,
}

/// A control-plane decision: a network fault verdict or a lease-protocol
/// step. It is the one observation of that decision: journaled beside
/// the popped events, and the recorder event, span moves and metric
/// follow from it ([`FleetObservers::note`]). Stored by value, floats as
/// the inputs they are printed from; `Display` is the journal text.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Note {
    /// A message from flat address `from` to `to` was delayed, dropped
    /// or duplicated (inline deliveries are not noted). `rpc` is the
    /// node whose lease RPC the message carries, for the tracer; it is
    /// not printed.
    Net {
        from: u32,
        to: u32,
        rpc: Option<u32>,
        delivery: Delivery,
    },
    NetCoordDown {
        coord: u32,
    },
    RequestTimeout {
        node: u32,
        attempt: u32,
        backoff: f64,
    },
    FencedGrant {
        node: u32,
        epoch: u64,
    },
    Leased {
        node: u32,
        epoch: u64,
        expires: SimTime,
    },
    Lapsed {
        node: u32,
        epoch: u64,
    },
    /// The node finished and returned its lease; `epoch` is recorded,
    /// not printed.
    Released {
        node: u32,
        epoch: u64,
    },
    StandbyIgnores {
        coord: u32,
        node: u32,
    },
    Deny {
        coord: u32,
        node: u32,
    },
    Grant {
        coord: u32,
        renew: bool,
        node: u32,
        epoch: u64,
        expires: SimTime,
        held_epoch: u64,
    },
    StepDown {
        coord: u32,
        why: &'static str,
    },
    Elected {
        coord: u32,
        epoch: u64,
    },
    Swept {
        coord: u32,
        reclaimed: u32,
    },
    Crashed {
        coord: u32,
    },
    Repaired {
        coord: u32,
    },
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Note::Net {
                from, to, delivery, ..
            } => match delivery {
                Delivery::Inline => write!(f, "fleet net: deliver {from}->{to}"),
                Delivery::Delayed { delay } => {
                    write!(f, "fleet net: delay {from}->{to} by {}us", delay.0)
                }
                Delivery::Dropped { partitioned } => write!(
                    f,
                    "fleet net: drop {from}->{to}{}",
                    if partitioned { " (partitioned)" } else { "" }
                ),
                Delivery::Duplicated { extra_delay } => {
                    write!(f, "fleet net: dup {from}->{to} +{}us", extra_delay.0)
                }
            },
            Note::NetCoordDown { coord } => {
                write!(f, "fleet net: coord {coord} down, message lost")
            }
            Note::RequestTimeout {
                node,
                attempt,
                backoff,
            } => write!(
                f,
                "node {node}: request timeout, retry #{attempt} in {backoff:.2}s"
            ),
            Note::FencedGrant { node, epoch } => {
                write!(f, "node {node}: fenced stale grant epoch {epoch}")
            }
            Note::Leased {
                node,
                epoch,
                expires,
            } => write!(
                f,
                "node {node}: lease epoch {epoch} until {:.1}s",
                expires.as_secs_f64()
            ),
            Note::Lapsed { node, epoch } => write!(f, "node {node}: lease epoch {epoch} lapsed"),
            Note::Released { node, .. } => write!(f, "node {node}: done, lease released"),
            Note::StandbyIgnores { coord, node } => write!(
                f,
                "coord {coord}: standby ignores lease request from node {node}"
            ),
            Note::Deny { coord, node } => {
                write!(f, "coord {coord}: deny node {node} (budget full)")
            }
            Note::Grant {
                coord,
                renew,
                node,
                epoch,
                expires,
                held_epoch,
            } => {
                let verb = if renew { "renew" } else { "grant" };
                write!(
                    f,
                    "coord {coord}: {verb} node {node} epoch {epoch} until {:.1}s \
                     (held_epoch {held_epoch})",
                    expires.as_secs_f64()
                )
            }
            Note::StepDown { coord, why } => write!(f, "coord {coord}: steps down ({why})"),
            Note::Elected { coord, epoch } => {
                write!(f, "coord {coord}: elected primary, epoch {epoch}")
            }
            Note::Swept { coord, reclaimed } => {
                write!(f, "coord {coord}: swept {reclaimed} expired leases")
            }
            Note::Crashed { coord } => write!(f, "coord {coord}: crashed"),
            Note::Repaired { coord } => {
                write!(f, "coord {coord}: repaired, rejoining as standby")
            }
        }
    }
}

impl Note {
    /// The flight-recorder event this decision writes, if any.
    fn event(self) -> Option<EventKind> {
        match self {
            Note::Net {
                from, to, delivery, ..
            } => delivery_observation(from, to, delivery).map(|(kind, _)| kind),
            Note::Leased { node, epoch, .. } => Some(EventKind::LeaseGranted {
                node,
                epoch,
                power: 1,
            }),
            Note::Lapsed { node, epoch } => Some(EventKind::LeaseExpired { node, epoch }),
            Note::Released { node, epoch } => Some(EventKind::LeaseReleased { node, epoch }),
            Note::Elected { coord, epoch } => Some(EventKind::CoordinatorElected {
                coordinator: coord,
                epoch,
            }),
            Note::Crashed { coord } => Some(EventKind::CoordinatorCrashed { coordinator: coord }),
            _ => None,
        }
    }
}

/// One entry of a fleet's decision journal: a control-plane event or
/// decision, or an entry of one node server's journal, in the order the
/// interleave ran them. Stored by value; its text is the source's own,
/// prefixed by `f ` for the control plane or `n<i> ` for node `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRecord(FleetItem);

// A large fleet's journal is most of its replay's memory.
const _: () = assert!(std::mem::size_of::<FleetRecord>() <= 48);

#[derive(Debug, Clone, Copy, PartialEq)]
enum FleetItem {
    Event(FleetEv),
    Note(Note),
    Node(u32, NodeRecord),
}

impl fmt::Display for FleetRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            FleetItem::Event(ev) => write!(f, "f {ev:?}"),
            FleetItem::Note(note) => write!(f, "f {note}"),
            FleetItem::Node(i, record) => write!(f, "n{i} {record}"),
        }
    }
}

/// A lease as held by a node.
#[derive(Debug, Clone, Copy)]
struct HeldLease {
    epoch: u64,
    expires: SimTime,
}

/// Per-node control-plane agent.
#[derive(Debug)]
struct NodeAgent {
    id: u32,
    rng: SimRng,
    lease: Option<HeldLease>,
    /// Highest epoch observed; grants from lower epochs are fenced off.
    highest_epoch: u64,
    /// Coordinator currently targeted; rotates on timeout.
    target: u32,
    /// Consecutive failed request rounds (drives backoff; `> 0` while
    /// holding a lease means renewals are failing — the node is stale).
    attempt: u32,
    /// Fences Request/RequestTimeout timers.
    seq: u64,
    /// Fences Renew/Expiry timers.
    gen: u64,
    done: bool,
}

/// Coordinator role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Primary,
    Standby,
}

/// A lease as recorded by a coordinator.
#[derive(Debug, Clone, Copy)]
struct LeaseRec {
    expires: SimTime,
}

/// One sprint coordinator.
#[derive(Debug)]
struct Coordinator {
    id: u32,
    rng: SimRng,
    role: Role,
    up: bool,
    /// Incarnation counter; bumped on crash and repair.
    gen: u64,
    /// Epoch this coordinator last held the primaryship under.
    epoch: u64,
    /// Highest epoch seen anywhere (own grants, heartbeats, requests).
    highest_seen: u64,
    /// Lease table, indexed by node. Only meaningful while primary.
    leases: Vec<Option<LeaseRec>>,
    /// Live granted power (leases counted in `leases`).
    granted: u32,
    /// Last primary heartbeat heard (standby election input).
    last_hb_heard: SimTime,
    /// Last peer ack heard (primary self-fencing input).
    last_ack: SimTime,
}

/// Lease/failover counters for one fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Fresh leases granted.
    pub grants: u64,
    /// Renewals of live leases.
    pub renewals: u64,
    /// Requests denied for lack of budget.
    pub denials: u64,
    /// Leases that lapsed at their holder (fail-safe trips).
    pub expiries: u64,
    /// Leases returned early by finished nodes.
    pub releases: u64,
    /// Node-side request retries (timeout + backoff + rotation).
    pub retries: u64,
    /// Standby takeovers.
    pub elections: u64,
    /// Primary self-demotions (ack starvation or higher-epoch fencing).
    pub step_downs: u64,
    /// Highest epoch minted.
    pub max_epoch: u64,
}

/// How the fleet's sprint capability is degraded right now: nodes
/// holding a live lease and renewing cleanly (`sprintable`), holding a
/// lease but failing renewals (`stale` — will lapse within one lease),
/// and holding nothing (`no_sprint` — failed safe).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetDegradation {
    /// Nodes with a live lease and healthy renewal.
    pub sprintable: u32,
    /// Nodes with a live lease but failing renewals.
    pub stale: u32,
    /// Nodes with no lease (sprinting forbidden).
    pub no_sprint: u32,
}

/// A machine-checked fleet invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetViolation {
    /// Which invariant broke (`power-overrun`, `epoch-overlap`,
    /// `unleased-sprint`, `fail-safe`).
    pub invariant: &'static str,
    /// Human-readable context.
    pub details: String,
}

/// Aggregated outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Fleet size.
    pub nodes: u32,
    /// Total queries served across the fleet.
    pub served: u64,
    /// Virtual horizon of the run, seconds.
    pub horizon_secs: f64,
    /// Served-weighted mean response time, seconds.
    pub mean_response_secs: f64,
    /// Served-weighted sprint fraction.
    pub sprint_fraction: f64,
    /// The shared concurrent-sprint budget.
    pub budget_power: u32,
    /// Peak concurrently-held lease power observed (node view).
    pub peak_held_power: u32,
    /// Time-weighted mean held power divided by the budget.
    pub budget_utilization: f64,
    /// Slots force-unsprinted by lease lapses.
    pub forced_unsprints: u64,
    /// Lease/failover counters.
    pub stats: LeaseStats,
    /// Last degradation sample taken while nodes were live.
    pub degradation: FleetDegradation,
    /// Control-plane fault counters (message classes + partitions).
    pub counters: FaultCounters,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<FleetViolation>,
    /// Control-plane telemetry.
    pub telemetry: RunTelemetry,
    /// Per-node telemetry, indexed by node id. Empty unless the run was
    /// traced (see [`run_fleet_traced`]): tracing attaches a recorder to
    /// every node server so sprint-episode spans can be reconstructed
    /// alongside the control-plane spans.
    pub node_telemetries: Vec<RunTelemetry>,
}

impl FleetResult {
    /// Whether all four fleet invariants held.
    pub fn invariants_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// In-run invariant tracker: aggregate held power versus budget (with
/// the one-lease failover slack), and one-granter-per-epoch.
#[derive(Debug)]
struct Tracker {
    budget: u32,
    lease_secs: f64,
    /// Live lease power, node view (what can actually sprint).
    held: u32,
    peak_held: u32,
    /// Time-weighted integral of `held`, power-seconds.
    held_integral: f64,
    last_t: SimTime,
    /// When the newest epoch first granted (failover slack window).
    last_epoch_change: SimTime,
    max_epoch: u64,
    /// epoch → the single coordinator allowed to grant in it.
    epoch_owners: BTreeMap<u64, u32>,
    violations: Vec<FleetViolation>,
}

impl Tracker {
    fn new(budget: u32, lease_secs: f64) -> Tracker {
        Tracker {
            budget,
            lease_secs,
            held: 0,
            peak_held: 0,
            held_integral: 0.0,
            last_t: SimTime::ZERO,
            last_epoch_change: SimTime::ZERO,
            max_epoch: 0,
            epoch_owners: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, invariant: &'static str, details: String) {
        if self.violations.len() < 64 {
            self.violations.push(FleetViolation { invariant, details });
        }
    }

    fn advance(&mut self, now: SimTime) {
        if now > self.last_t {
            self.held_integral +=
                f64::from(self.held) * (now.as_secs_f64() - self.last_t.as_secs_f64());
            self.last_t = now;
        }
    }

    /// A node's live lease count rose (fresh grant applied).
    fn on_node_acquire(&mut self, now: SimTime) {
        self.advance(now);
        self.held += 1;
        self.peak_held = self.peak_held.max(self.held);
        if self.held > self.budget {
            let since_change = now.as_secs_f64() - self.last_epoch_change.as_secs_f64();
            // Failover slack: stale leases from the previous epoch may
            // coexist with fresh grants for at most one lease duration,
            // and never beyond double the budget.
            if since_change > self.lease_secs || self.held > 2 * self.budget {
                self.violation(
                    "power-overrun",
                    format!(
                        "held power {} exceeds budget {} at t={:.1}s \
                         ({:.1}s after last epoch change)",
                        self.held,
                        self.budget,
                        now.as_secs_f64(),
                        since_change
                    ),
                );
            }
        }
    }

    /// A node's live lease ended (expiry or release).
    fn on_node_drop(&mut self, now: SimTime) {
        self.advance(now);
        self.held = self.held.saturating_sub(1);
    }

    /// A coordinator granted (or renewed) under `epoch`.
    fn on_coord_grant(&mut self, now: SimTime, epoch: u64, coord: u32) {
        if epoch > self.max_epoch {
            self.max_epoch = epoch;
            self.last_epoch_change = now;
        }
        match self.epoch_owners.get(&epoch) {
            None => {
                self.epoch_owners.insert(epoch, coord);
            }
            Some(&owner) if owner != coord => self.violation(
                "epoch-overlap",
                format!(
                    "coordinators {owner} and {coord} both granted in epoch {epoch} \
                     at t={:.1}s",
                    now.as_secs_f64()
                ),
            ),
            Some(_) => {}
        }
    }
}

/// The fleet control-plane network: fleet partitions first (no
/// randomness drawn), then the probabilistic message-fault classes via
/// [`faults::MessageFaults::draw_delivery`].
#[derive(Debug)]
struct FleetNet {
    rng: SimRng,
    counters: FaultCounters,
}

impl FleetNet {
    fn route(&mut self, spec: &FleetSpec, now: SimTime, from: Addr, to: Addr) -> Delivery {
        let now_secs = now.as_secs_f64();
        if spec
            .faults
            .partitions
            .iter()
            .any(|p| p.active(now_secs) && side_a(p, from) != side_a(p, to))
        {
            self.counters.partition_drops += 1;
            return Delivery::Dropped { partitioned: true };
        }
        self.spec_messages_draw(spec)
    }

    fn spec_messages_draw(&mut self, spec: &FleetSpec) -> Delivery {
        spec.faults
            .messages
            .draw_delivery(&mut self.rng, &mut self.counters)
    }
}

/// Which side of a fleet partition an address falls on.
fn side_a(p: &FleetPartition, addr: Addr) -> bool {
    match addr {
        Addr::Coordinator(c) => p.coords_a.contains(&c),
        Addr::Node(n) => n >= p.nodes_a_lo && n < p.nodes_a_hi,
    }
}

/// Iteration valve multiplier, mirroring the testbed's event-storm
/// guard.
const ITER_VALVE_PER_UNIT: u64 = 10_000;

/// Span-id namespace for fleet-level spans (leases, control RPCs,
/// coordinator terms, partition windows). Node-level sprint-episode
/// spans live at `(node+1) << 32 | seq`, far below this base, so the
/// two namespaces never collide in a merged trace.
const FLEET_SPAN_BASE: u64 = 1 << 48;

/// Causal-span emitter for the fleet control plane. Like the node-side
/// tracer it is a pure observer: span ids are minted from a sequence
/// counter (bit-identical across replays), events go into the
/// control-plane recorder, and no randomness is drawn.
///
/// [`TraceCtx`] propagation: every message scheduled through the
/// simulated network registers the sender's context in `in_flight`,
/// keyed by the reactor-assigned event id; [`Cluster::dispatch`] takes
/// it back out at delivery, so a grant opens the node's lease span with
/// the carrying RPC as its parent even when the envelope crossed a
/// delayed or duplicated link.
#[derive(Debug)]
struct FleetTracer {
    trace: u64,
    next_seq: u64,
    /// Open control-RPC span per node (0 = none).
    rpc_span: Vec<u64>,
    /// Open lease-lifecycle span per node (0 = none).
    lease_span: Vec<u64>,
    /// Open coordinator-term span per coordinator (0 = none).
    term_span: Vec<u64>,
    /// Partition-window spans: `(span, start_secs, end_secs)`.
    partitions: Vec<(u64, f64, f64)>,
    /// Trace contexts of in-flight messages, keyed by reactor event id.
    in_flight: BTreeMap<u64, TraceCtx>,
    /// Context of the message currently being delivered, if any.
    current: Option<TraceCtx>,
    /// Term span closed by the most recent coordinator crash; the next
    /// election links its fresh term back to it.
    crashed_term: u64,
}

impl FleetTracer {
    /// A tracer for `spec`'s fleet. Partition windows are spec-defined
    /// time spans, so their open and close events are recorded up
    /// front, and the initial primary's term opens at time zero.
    fn new(rec: &mut FlightRecorder, spec: &FleetSpec) -> FleetTracer {
        let mut t = FleetTracer {
            trace: spec.seed,
            next_seq: 0,
            rpc_span: vec![0; spec.nodes as usize],
            lease_span: vec![0; spec.nodes as usize],
            term_span: vec![0; spec.coordinators as usize],
            partitions: Vec::new(),
            in_flight: BTreeMap::new(),
            current: None,
            crashed_term: 0,
        };
        for p in &spec.faults.partitions {
            let start = SimTime::from_secs_f64(p.start_secs);
            let span = t.open(rec, start, SpanKind::PartitionWindow, 0, 0);
            let end = p.start_secs + p.duration_secs;
            Self::close(rec, SimTime::from_secs_f64(end), span, SpanOutcome::Healed);
            t.partitions.push((span, p.start_secs, end));
        }
        t.term_span[0] = t.open(rec, SimTime::ZERO, SpanKind::CoordinatorTerm, 0, 0);
        t
    }

    fn mint(&mut self) -> u64 {
        self.next_seq += 1;
        FLEET_SPAN_BASE | self.next_seq
    }

    fn open(
        &mut self,
        rec: &mut FlightRecorder,
        at: SimTime,
        kind: SpanKind,
        node: u32,
        parent: u64,
    ) -> u64 {
        let span = self.mint();
        rec.record(
            at,
            EventKind::SpanOpened {
                span,
                parent,
                kind,
                node,
            },
        );
        span
    }

    fn close(rec: &mut FlightRecorder, at: SimTime, span: u64, outcome: SpanOutcome) {
        if span != 0 {
            rec.record(at, EventKind::SpanClosed { span, outcome });
        }
    }

    fn link(rec: &mut FlightRecorder, at: SimTime, effect: u64, cause: u64, reason: CauseReason) {
        if effect != 0 {
            rec.record(
                at,
                EventKind::CauseLinked {
                    effect,
                    cause,
                    reason,
                },
            );
        }
    }

    /// Moves the spans a decision implies. Returns the node's lease span
    /// after a [`Note::Leased`], else 0.
    fn on_note(&mut self, rec: &mut FlightRecorder, at: SimTime, note: Note) -> u64 {
        match note {
            // A delayed or dropped message is a cause of the control RPC
            // it was carrying, and a partition drop is caused in turn by
            // the partition window that swallowed it.
            Note::Net {
                from,
                to,
                rpc: Some(n),
                delivery,
            } => {
                if let Some((_, Some(reason))) = delivery_observation(from, to, delivery) {
                    let cause = if reason == CauseReason::Partition {
                        self.active_partition(at.as_secs_f64())
                    } else {
                        0
                    };
                    Self::link(rec, at, self.rpc_span[n as usize], cause, reason);
                }
            }
            Note::RequestTimeout { node, .. } => {
                let n = node as usize;
                let rpc = std::mem::take(&mut self.rpc_span[n]);
                if rpc != 0 {
                    // A timed-out round while holding a lease is a failed
                    // renewal: link the lease's eventual fate back to it.
                    Self::link(
                        rec,
                        at,
                        self.lease_span[n],
                        rpc,
                        CauseReason::RenewalTimeout,
                    );
                    Self::close(rec, at, rpc, SpanOutcome::TimedOut);
                }
            }
            Note::Leased { node, .. } => {
                let n = node as usize;
                let rpc = std::mem::take(&mut self.rpc_span[n]);
                Self::close(rec, at, rpc, SpanOutcome::Granted);
                if self.lease_span[n] == 0 {
                    // Parent the lease under the RPC that carried the
                    // grant (the propagated context survives delays and
                    // duplication).
                    let parent = self
                        .current
                        .map(|c| c.span)
                        .filter(|&s| s != 0)
                        .unwrap_or(rpc);
                    self.lease_span[n] = self.open(rec, at, SpanKind::LeaseLifecycle, node, parent);
                }
                return self.lease_span[n];
            }
            Note::Lapsed { node, .. } => {
                let span = std::mem::take(&mut self.lease_span[node as usize]);
                Self::close(rec, at, span, SpanOutcome::Lapsed);
            }
            Note::Released { node, .. } => {
                let span = std::mem::take(&mut self.lease_span[node as usize]);
                Self::close(rec, at, span, SpanOutcome::Released);
            }
            Note::StepDown { coord, .. } => {
                let span = std::mem::take(&mut self.term_span[coord as usize]);
                Self::close(rec, at, span, SpanOutcome::SteppedDown);
            }
            Note::Elected { coord, .. } => {
                let span = self.open(rec, at, SpanKind::CoordinatorTerm, coord, 0);
                self.term_span[coord as usize] = span;
                // The fresh term exists because the previous primary died.
                let crashed = std::mem::take(&mut self.crashed_term);
                if crashed != 0 {
                    Self::link(rec, at, span, crashed, CauseReason::CoordinatorCrash);
                }
            }
            Note::Crashed { coord } => {
                // Only a primary holds an open term.
                let span = std::mem::take(&mut self.term_span[coord as usize]);
                if span != 0 {
                    self.crashed_term = span;
                }
                Self::close(rec, at, span, SpanOutcome::Crashed);
            }
            _ => {}
        }
        0
    }

    /// Opens node `node`'s control-RPC span for a lease request, under
    /// its lease span, unless one is already open.
    fn request(&mut self, rec: &mut FlightRecorder, at: SimTime, node: u32) {
        let n = node as usize;
        if self.rpc_span[n] == 0 {
            let parent = self.lease_span[n];
            self.rpc_span[n] = self.open(rec, at, SpanKind::ControlRpc, node, parent);
        }
    }

    /// Closes node `n`'s control-RPC span on a denial.
    fn denied(&mut self, rec: &mut FlightRecorder, at: SimTime, n: usize) {
        let rpc = std::mem::take(&mut self.rpc_span[n]);
        Self::close(rec, at, rpc, SpanOutcome::Denied);
    }

    /// Carries the sender's context beside the message scheduled as
    /// reactor event `id`.
    fn carry(&mut self, id: u64, from: Addr, msg: &FleetMsg, to: Addr) {
        let span = match Self::rpc_node(msg, to) {
            Some(n) => self.rpc_span[n as usize],
            None => match from {
                Addr::Coordinator(c) => self.term_span[c as usize],
                Addr::Node(_) => 0,
            },
        };
        let ctx = TraceCtx {
            trace: self.trace,
            span,
        };
        self.in_flight.insert(id, ctx);
    }

    /// The partition-window span active at `now_secs`, if any.
    fn active_partition(&self, now_secs: f64) -> u64 {
        self.partitions
            .iter()
            .find(|&&(_, start, end)| now_secs >= start && now_secs < end)
            .map_or(0, |&(span, _, _)| span)
    }

    /// The node whose control RPC a message concerns, if any.
    fn rpc_node(msg: &FleetMsg, to: Addr) -> Option<u32> {
        match (msg, to) {
            (FleetMsg::LeaseRequest { node, .. }, _) => Some(*node),
            (FleetMsg::LeaseGrant { .. } | FleetMsg::LeaseDeny { .. }, Addr::Node(n)) => Some(n),
            _ => None,
        }
    }
}

/// The control plane's observers: the flight recorder (always on), the
/// causal tracer that writes spans into it, and the decision journal.
/// Each decision is one [`Note`] and reaches all of them, and the
/// metrics registry, through [`FleetObservers::note`]. They draw no
/// randomness and schedule no events, so an observed run is
/// bit-identical to an unobserved one.
struct FleetObservers {
    recorder: FlightRecorder,
    tracer: Option<FleetTracer>,
    journal: Option<Journal<FleetRecord>>,
}

impl FleetObservers {
    fn new(spec: &FleetSpec, journaled: bool, traced: bool) -> FleetObservers {
        let mut recorder = FlightRecorder::new(16_384);
        let tracer = traced.then(|| FleetTracer::new(&mut recorder, spec));
        FleetObservers {
            recorder,
            tracer,
            journal: journaled.then(Journal::new),
        }
    }

    fn journal(&mut self, at: SimTime, item: FleetItem) {
        if let Some(j) = self.journal.as_mut() {
            j.push(at, FleetRecord(item));
        }
    }

    /// Reports one decision: journals the note, records its event, moves
    /// the spans it implies and counts the lease renewal or expiry it
    /// is. Returns the node's lease span after a traced
    /// [`Note::Leased`], else 0.
    fn note(&mut self, at: SimTime, note: Note) -> u64 {
        self.journal(at, FleetItem::Note(note));
        if let Some(kind) = note.event() {
            self.recorder.record(at, kind);
        }
        match note {
            Note::Grant { renew: true, .. } => obs::global().lease_renewals.incr(),
            Note::Lapsed { .. } => obs::global().lease_expiries.incr(),
            _ => {}
        }
        match self.tracer.as_mut() {
            Some(t) => t.on_note(&mut self.recorder, at, note),
            None => 0,
        }
    }
}

struct Cluster<'m> {
    spec: FleetSpec,
    reactor: Reactor<FleetEv>,
    net: FleetNet,
    agents: Vec<NodeAgent>,
    servers: Vec<Option<Server<'m>>>,
    /// Next event time of each live server, refreshed by
    /// [`Cluster::on_server`] after every access that can change it;
    /// `None` once the node completed.
    next_t: Vec<Option<SimTime>>,
    /// Min-heap of `(time, node)` over the live nodes' next event
    /// times: [`Cluster::on_server`] pushes a node's time whenever it
    /// changes, and [`Cluster::run_next`] drops top entries that no longer
    /// match `next_t`. An entry that matches is live; duplicates of a
    /// live entry are harmless. Each change costs O(log N), and finding
    /// the earliest node event costs O(1) amortized.
    node_times: BinaryHeap<Reverse<(SimTime, usize)>>,
    results: Vec<Option<RunResult>>,
    coords: Vec<Coordinator>,
    tracker: Tracker,
    /// Where each control-plane decision is reported. The run's one
    /// decision journal there holds control plane and nodes in
    /// execution order.
    obs: FleetObservers,
    stats: LeaseStats,
    forced_unsprints: u64,
    last_degradation: FleetDegradation,
    sampled_degradation: bool,
    done_count: u32,
    /// Time of the last event run; [`Cluster::advance`] refuses an
    /// earlier one.
    horizon: SimTime,
    iterations: u64,
}

impl<'m> Cluster<'m> {
    fn new(
        spec: &FleetSpec,
        mech: &'m dyn mechanisms::Mechanism,
        journaled: bool,
        traced: bool,
    ) -> Result<Cluster<'m>, SprintError> {
        spec.validate()?;
        let n = spec.nodes;
        let c = spec.coordinators;
        let mut servers = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut server = spec.node_spec(i)?.into_server(mech)?;
            if journaled {
                server.enable_journal();
            }
            if traced {
                server.attach_recorder(16_384);
                server.enable_tracing(i);
            }
            // Fail safe from the very first instant: no sprint without
            // a lease.
            server.set_sprint_permit(false);
            servers.push(Some(server));
        }
        let agents = (0..n)
            .map(|i| NodeAgent {
                id: i,
                rng: spec.node_rng(i),
                lease: None,
                highest_epoch: 0,
                target: 0,
                attempt: 0,
                seq: 0,
                gen: 0,
                done: false,
            })
            .collect();
        let coords = (0..c)
            .map(|id| Coordinator {
                id,
                rng: spec.coord_rng(id),
                role: if id == 0 {
                    Role::Primary
                } else {
                    Role::Standby
                },
                up: true,
                gen: 0,
                // Unique-by-construction epochs: term × C + id. The
                // initial primary holds term 1.
                epoch: if id == 0 { u64::from(c) } else { 0 },
                highest_seen: u64::from(c),
                leases: vec![None; n as usize],
                granted: 0,
                last_hb_heard: SimTime::ZERO,
                last_ack: SimTime::ZERO,
            })
            .collect();
        Ok(Cluster {
            net: FleetNet {
                rng: spec.net_rng(),
                counters: FaultCounters::default(),
            },
            tracker: Tracker::new(spec.budget_power, spec.lease_secs),
            obs: FleetObservers::new(spec, journaled, traced),
            agents,
            servers,
            next_t: vec![None; n as usize],
            node_times: BinaryHeap::with_capacity(n as usize),
            results: (0..n).map(|_| None).collect(),
            coords,
            reactor: Reactor::new(),
            stats: LeaseStats::default(),
            forced_unsprints: 0,
            last_degradation: FleetDegradation {
                sprintable: 0,
                stale: 0,
                no_sprint: n,
            },
            sampled_degradation: false,
            done_count: 0,
            horizon: SimTime::ZERO,
            iterations: 0,
            spec: spec.clone(),
        })
    }

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    fn init(&mut self) {
        let nodes = self.spec.nodes as usize;
        let coordinators = self.spec.coordinators;
        let backoff_base = self.spec.backoff_base_secs;
        let heartbeat_secs = self.spec.heartbeat_secs;
        let step_down_secs = self.spec.step_down_secs;
        let election_secs = self.spec.election_secs;
        let lease_secs = self.spec.lease_secs;
        // Nodes: prime the servers and stagger first lease requests.
        for i in 0..nodes {
            self.on_server(i, Server::prime);
            let jitter = self.agents[i].rng.uniform(0.0, backoff_base);
            let seq = self.agents[i].seq;
            self.reactor.schedule(
                SimTime::ZERO.saturating_add(Self::secs(jitter)),
                FleetEv::Node {
                    node: i as u32,
                    timer: NodeTimer::Request { seq },
                },
            );
        }
        // Coordinators: heartbeats + self-fencing on the primary,
        // election checks on standbys, sweeps everywhere.
        for c in 0..coordinators {
            let gen = 0;
            if c == 0 {
                self.schedule_coord(Self::secs(heartbeat_secs), c, CoordTimer::Heartbeat, gen);
                if coordinators > 1 {
                    self.schedule_coord(
                        Self::secs(step_down_secs),
                        c,
                        CoordTimer::StepDownCheck,
                        gen,
                    );
                }
            } else {
                let jitter = self.coords[c as usize].rng.uniform(1.0, 1.25);
                self.schedule_coord(
                    Self::secs(election_secs * jitter),
                    c,
                    CoordTimer::ElectionCheck,
                    gen,
                );
            }
            self.schedule_coord(Self::secs(lease_secs / 4.0), c, CoordTimer::Sweep, gen);
        }
        // Scheduled coordinator crashes and repairs.
        let crashes = self.spec.faults.coordinator_crashes.clone();
        for crash in &crashes {
            self.reactor.schedule(
                SimTime::from_secs_f64(crash.at_secs),
                FleetEv::CoordCrash {
                    coord: crash.coordinator,
                },
            );
            if crash.repair_secs > 0.0 {
                self.reactor.schedule(
                    SimTime::from_secs_f64(crash.at_secs + crash.repair_secs),
                    FleetEv::CoordRepair {
                        coord: crash.coordinator,
                    },
                );
            }
        }
        // Periodic degradation sampling.
        self.reactor
            .schedule(SimTime::from_secs_f64(lease_secs), FleetEv::Health);
    }

    fn schedule_coord(&mut self, after: SimDuration, coord: u32, timer: CoordTimer, gen: u64) {
        let at = self.reactor.now().saturating_add(after);
        self.reactor
            .schedule(at, FleetEv::Coord { coord, timer, gen });
    }

    fn schedule_node(&mut self, at: SimTime, node: u32, timer: NodeTimer) {
        self.reactor.schedule(at, FleetEv::Node { node, timer });
    }

    fn all_done(&self) -> bool {
        self.done_count == self.spec.nodes
    }

    /// Runs `f` on node `n`'s server while the node is live, then
    /// refreshes the node's cached next-event time (pushing a changed
    /// time onto the interleave's heap) and moves the node's new journal
    /// entries into the run's journal. Every `&mut Server` access goes
    /// through here, so the interleave's cache cannot go stale and the
    /// journal holds every entry in execution order.
    fn on_server<T>(&mut self, n: usize, f: impl FnOnce(&mut Server<'m>) -> T) -> Option<T> {
        let server = self.servers[n].as_mut()?;
        let out = f(server);
        let t = server.peek_time();
        if t != self.next_t[n] {
            self.next_t[n] = t;
            if let Some(t) = t {
                self.node_times.push(Reverse((t, n)));
            }
        }
        if let Some(journal) = self.obs.journal.as_mut() {
            for e in server.drain_journal() {
                let record = FleetRecord(FleetItem::Node(n as u32, e.what));
                journal.push(SimTime(e.t_us), record);
            }
        }
        Some(out)
    }

    /// Pops the control plane's next event, journaling it.
    fn pop(&mut self) -> Option<(SimTime, FleetEv)> {
        let (at, ev) = self.reactor.pop()?;
        self.obs.journal(at, FleetItem::Event(ev));
        Some((at, ev))
    }

    // -----------------------------------------------------------------
    // Network

    fn send(&mut self, now: SimTime, from: Addr, to: Addr, msg: FleetMsg) {
        let delivery = self.net.route(&self.spec, now, from, to);
        if delivery != Delivery::Inline {
            let c = self.spec.coordinators;
            let note = Note::Net {
                from: from.flat(c),
                to: to.flat(c),
                rpc: FleetTracer::rpc_node(&msg, to),
                delivery,
            };
            self.obs.note(now, note);
        }
        let (copy, echo) = match delivery {
            Delivery::Inline => (Some(now), None),
            Delivery::Delayed { delay } => (Some(now.saturating_add(delay)), None),
            Delivery::Dropped { .. } => (None, None),
            Delivery::Duplicated { extra_delay } => {
                (Some(now), Some(now.saturating_add(extra_delay)))
            }
        };
        for at in [copy, echo].into_iter().flatten() {
            let id = self
                .reactor
                .schedule(at, FleetEv::Deliver { from, to, msg });
            if let Some(t) = self.obs.tracer.as_mut() {
                t.carry(id, from, &msg, to);
            }
        }
    }

    // -----------------------------------------------------------------
    // Node agent

    fn node_request(&mut self, now: SimTime, n: usize, seq: u64) {
        let (done, cur_seq, held_epoch, target, node) = {
            let a = &self.agents[n];
            (
                a.done,
                a.seq,
                a.lease.map_or(0, |l| l.epoch),
                a.target,
                a.id,
            )
        };
        if done || seq != cur_seq {
            return;
        }
        if let Some(t) = self.obs.tracer.as_mut() {
            t.request(&mut self.obs.recorder, now, node);
        }
        self.send(
            now,
            Addr::Node(node),
            Addr::Coordinator(target % self.spec.coordinators),
            FleetMsg::LeaseRequest { node, held_epoch },
        );
        let at = now.saturating_add(Self::secs(self.spec.retry_timeout_secs));
        self.schedule_node(at, node, NodeTimer::RequestTimeout { seq });
    }

    fn node_request_timeout(&mut self, now: SimTime, n: usize, seq: u64) {
        let backoff_base = self.spec.backoff_base_secs;
        let backoff_cap = self.spec.backoff_cap_secs;
        let coords = self.spec.coordinators;
        let (node, attempt, backoff) = {
            let a = &mut self.agents[n];
            if a.done || seq != a.seq {
                return;
            }
            a.attempt += 1;
            a.target = (a.target + 1) % coords;
            // Capped exponential backoff with seeded jitter.
            let exp = backoff_base * 2f64.powi((a.attempt.saturating_sub(1)).min(16) as i32);
            (
                a.id,
                a.attempt,
                exp.min(backoff_cap) * a.rng.uniform(0.5, 1.0),
            )
        };
        self.stats.retries += 1;
        self.obs.note(
            now,
            Note::RequestTimeout {
                node,
                attempt,
                backoff,
            },
        );
        let at = now.saturating_add(Self::secs(backoff));
        self.schedule_node(at, node, NodeTimer::Request { seq });
    }

    fn node_on_grant(&mut self, now: SimTime, n: usize, epoch: u64, expires_us: u64) {
        let renew_lead = self.spec.renew_lead_secs;
        let node = n as u32;
        let expires = SimTime(expires_us);
        let (done, highest, target) = {
            let a = &self.agents[n];
            (a.done, a.highest_epoch, a.target)
        };
        if epoch < highest {
            self.obs.note(now, Note::FencedGrant { node, epoch });
            return;
        }
        if done {
            // Race: the grant landed after the node finished.
            self.send(
                now,
                Addr::Node(node),
                Addr::Coordinator(target % self.spec.coordinators),
                FleetMsg::LeaseRelease { node },
            );
            return;
        }
        if expires <= now {
            // In-flight so long the lease is already dead.
            return;
        }
        let (had, gen) = {
            let a = &mut self.agents[n];
            let had = a.lease.is_some();
            a.highest_epoch = epoch;
            a.lease = Some(HeldLease { epoch, expires });
            a.seq += 1;
            a.gen += 1;
            a.attempt = 0;
            (had, a.gen)
        };
        if !had {
            self.tracker.on_node_acquire(now);
        }
        let lease_span = self.obs.note(
            now,
            Note::Leased {
                node,
                epoch,
                expires,
            },
        );
        self.on_server(n, |server| {
            server.set_trace_parent(lease_span);
            server.set_sprint_permit(true);
        });
        let renew_at = if expires > now.saturating_add(Self::secs(renew_lead)) {
            expires - Self::secs(renew_lead)
        } else {
            now
        };
        self.schedule_node(renew_at, node, NodeTimer::Renew { gen });
        self.schedule_node(expires, node, NodeTimer::Expiry { gen });
    }

    fn node_renew(&mut self, now: SimTime, n: usize, gen: u64) {
        let a = &mut self.agents[n];
        if a.done || gen != a.gen || a.lease.is_none() {
            return;
        }
        let seq = a.seq;
        self.node_request(now, n, seq);
    }

    fn node_expiry(&mut self, now: SimTime, n: usize, gen: u64) -> Result<(), SprintError> {
        let backoff_base = self.spec.backoff_base_secs;
        let node = n as u32;
        let epoch = {
            let a = &mut self.agents[n];
            if gen != a.gen {
                return Ok(());
            }
            let Some(lease) = a.lease.take() else {
                return Ok(());
            };
            a.gen += 1;
            a.seq += 1;
            lease.epoch
        };
        self.tracker.on_node_drop(now);
        self.stats.expiries += 1;
        self.obs.note(now, Note::Lapsed { node, epoch });
        // Fail safe: the permit dies with the lease and any in-flight
        // sprint is force-ended immediately.
        let unsprinted = self.on_server(n, |server| {
            server.set_sprint_permit(false);
            let forced = server.force_unsprint_all(now)?;
            Ok::<_, SprintError>((forced, server.sprinting()))
        });
        if let Some((forced, sprinting)) = unsprinted.transpose()? {
            self.forced_unsprints += forced;
            if sprinting > 0 {
                self.tracker.violation(
                    "fail-safe",
                    format!(
                        "node {node} still sprinting after lease lapse at t={:.1}s",
                        now.as_secs_f64()
                    ),
                );
            }
        }
        // Keep trying to re-acquire (re-admission after partitions).
        let jitter = self.agents[n].rng.uniform(0.0, backoff_base);
        let seq = self.agents[n].seq;
        self.schedule_node(
            now.saturating_add(Self::secs(jitter)),
            node,
            NodeTimer::Request { seq },
        );
        Ok(())
    }

    fn node_on_deny(&mut self, now: SimTime, n: usize, epoch: u64) {
        let lease_secs = self.spec.lease_secs;
        if self.agents[n].done {
            return;
        }
        if let Some(t) = self.obs.tracer.as_mut() {
            t.denied(&mut self.obs.recorder, now, n);
        }
        let a = &mut self.agents[n];
        a.highest_epoch = a.highest_epoch.max(epoch);
        a.seq += 1;
        a.attempt = 0;
        let seq = a.seq;
        let node = a.id;
        // The coordinator is alive but out of budget: back off half a
        // lease so freed budget finds a taker quickly without a storm.
        let wait = lease_secs / 2.0 * a.rng.uniform(0.5, 1.0);
        self.schedule_node(
            now.saturating_add(Self::secs(wait)),
            node,
            NodeTimer::Request { seq },
        );
    }

    fn node_done(&mut self, now: SimTime, n: usize) {
        let node = n as u32;
        let held = {
            let a = &mut self.agents[n];
            a.done = true;
            a.seq += 1;
            a.gen += 1;
            a.lease.take()
        };
        if let Some(lease) = held {
            self.tracker.on_node_drop(now);
            self.stats.releases += 1;
            let epoch = lease.epoch;
            self.obs.note(now, Note::Released { node, epoch });
            let target = self.agents[n].target % self.spec.coordinators;
            self.send(
                now,
                Addr::Node(node),
                Addr::Coordinator(target),
                FleetMsg::LeaseRelease { node },
            );
        }
    }

    // -----------------------------------------------------------------
    // Coordinator

    fn coord_on_request(&mut self, now: SimTime, c: usize, node: u32, held_epoch: u64) {
        let lease_secs = self.spec.lease_secs;
        let budget = self.spec.budget_power;
        let coord = c as u32;
        let (role, epoch) = {
            let co = &mut self.coords[c];
            co.highest_seen = co.highest_seen.max(held_epoch);
            (co.role, co.epoch)
        };
        if role != Role::Primary {
            self.obs.note(now, Note::StandbyIgnores { coord, node });
            return;
        }
        let expires = now.saturating_add(Self::secs(lease_secs));
        let ni = node as usize;
        let decision = {
            let co = &mut self.coords[c];
            // Lazy reclaim of this node's expired record.
            if co.leases[ni].is_some_and(|r| r.expires <= now) {
                co.leases[ni] = None;
                co.granted = co.granted.saturating_sub(1);
            }
            if co.leases[ni].is_some() {
                co.leases[ni] = Some(LeaseRec { expires });
                "renew"
            } else if co.granted < budget {
                co.leases[ni] = Some(LeaseRec { expires });
                co.granted += 1;
                "grant"
            } else {
                "deny"
            }
        };
        match decision {
            "deny" => {
                self.stats.denials += 1;
                self.obs.note(now, Note::Deny { coord, node });
                self.send(
                    now,
                    Addr::Coordinator(coord),
                    Addr::Node(node),
                    FleetMsg::LeaseDeny { epoch },
                );
            }
            verb => {
                if verb == "renew" {
                    self.stats.renewals += 1;
                } else {
                    self.stats.grants += 1;
                }
                self.stats.max_epoch = self.stats.max_epoch.max(epoch);
                self.tracker.on_coord_grant(now, epoch, coord);
                self.obs.note(
                    now,
                    Note::Grant {
                        coord,
                        renew: verb == "renew",
                        node,
                        epoch,
                        expires,
                        held_epoch,
                    },
                );
                self.send(
                    now,
                    Addr::Coordinator(coord),
                    Addr::Node(node),
                    FleetMsg::LeaseGrant {
                        epoch,
                        expires_us: expires.0,
                    },
                );
            }
        }
    }

    fn coord_on_heartbeat(&mut self, now: SimTime, c: usize, from: u32, epoch: u64) {
        let coord = c as u32;
        let mut step_down = false;
        {
            let co = &mut self.coords[c];
            co.highest_seen = co.highest_seen.max(epoch);
            if co.role == Role::Primary && epoch > co.epoch {
                // A higher-epoch primary exists: fence ourselves.
                step_down = true;
            }
            if epoch >= co.highest_seen {
                co.last_hb_heard = now;
            }
        }
        if step_down {
            self.coord_step_down(now, c, "higher-epoch heartbeat");
        } else if self.coords[c].role == Role::Standby && epoch == self.coords[c].highest_seen {
            self.coords[c].last_hb_heard = now;
        }
        self.send(
            now,
            Addr::Coordinator(coord),
            Addr::Coordinator(from),
            FleetMsg::HeartbeatAck { epoch },
        );
    }

    fn coord_step_down(&mut self, now: SimTime, c: usize, why: &'static str) {
        let coord = c as u32;
        {
            let co = &mut self.coords[c];
            if co.role != Role::Primary {
                return;
            }
            co.role = Role::Standby;
            // The lease table survives: it records this coordinator's
            // own outstanding grants, which stay live on the nodes
            // regardless of who is primary. Forgetting them here would
            // let a later re-election re-grant the same budget while
            // the old leases still authorise sprints.
            co.last_hb_heard = now;
        }
        self.stats.step_downs += 1;
        self.obs.note(now, Note::StepDown { coord, why });
        let gen = self.coords[c].gen;
        let jitter = self.coords[c].rng.uniform(1.0, 1.25);
        self.schedule_coord(
            Self::secs(self.spec.election_secs * jitter),
            coord,
            CoordTimer::ElectionCheck,
            gen,
        );
    }

    fn coord_elect(&mut self, now: SimTime, c: usize) {
        let n_coords = u64::from(self.spec.coordinators);
        let coord = c as u32;
        let epoch = {
            let co = &mut self.coords[c];
            // Unique by construction: term × C + id.
            let term = co.highest_seen / n_coords + 1;
            let epoch = term * n_coords + u64::from(co.id);
            co.role = Role::Primary;
            co.epoch = epoch;
            co.highest_seen = epoch;
            // Keep unexpired entries from any previous primaryship —
            // those leases are still held out there and still count
            // against the budget — but reclaim the expired ones so the
            // fresh term starts from an accurate granted count.
            for l in co.leases.iter_mut() {
                if l.is_some_and(|r| r.expires <= now) {
                    *l = None;
                }
            }
            co.granted = co.leases.iter().filter(|l| l.is_some()).count() as u32;
            co.last_ack = now;
            epoch
        };
        self.stats.elections += 1;
        self.stats.max_epoch = self.stats.max_epoch.max(epoch);
        self.obs.note(now, Note::Elected { coord, epoch });
        let gen = self.coords[c].gen;
        // Announce immediately, then settle into the periodic beat.
        self.coord_heartbeat_now(now, c);
        self.schedule_coord(
            Self::secs(self.spec.heartbeat_secs),
            coord,
            CoordTimer::Heartbeat,
            gen,
        );
        if self.spec.coordinators > 1 {
            self.schedule_coord(
                Self::secs(self.spec.step_down_secs),
                coord,
                CoordTimer::StepDownCheck,
                gen,
            );
        }
    }

    fn coord_heartbeat_now(&mut self, now: SimTime, c: usize) {
        let coord = c as u32;
        let epoch = self.coords[c].epoch;
        for peer in 0..self.spec.coordinators {
            if peer != coord {
                self.send(
                    now,
                    Addr::Coordinator(coord),
                    Addr::Coordinator(peer),
                    FleetMsg::Heartbeat { from: coord, epoch },
                );
            }
        }
    }

    fn coord_timer(&mut self, now: SimTime, c: usize, timer: CoordTimer, gen: u64) {
        let coord = c as u32;
        {
            let co = &self.coords[c];
            if !co.up || gen != co.gen {
                return;
            }
        }
        match timer {
            CoordTimer::Heartbeat => {
                if self.coords[c].role != Role::Primary {
                    return;
                }
                self.coord_heartbeat_now(now, c);
                self.schedule_coord(
                    Self::secs(self.spec.heartbeat_secs),
                    coord,
                    CoordTimer::Heartbeat,
                    gen,
                );
            }
            CoordTimer::StepDownCheck => {
                if self.coords[c].role != Role::Primary {
                    return;
                }
                let silent = now.as_secs_f64() - self.coords[c].last_ack.as_secs_f64();
                if silent > self.spec.step_down_secs {
                    // Self-fencing: no peer has acked for a whole
                    // step-down window — assume we are partitioned and
                    // stop granting before a successor is elected.
                    self.coord_step_down(now, c, "peer-ack starvation");
                } else {
                    self.schedule_coord(
                        Self::secs(self.spec.heartbeat_secs),
                        coord,
                        CoordTimer::StepDownCheck,
                        gen,
                    );
                }
            }
            CoordTimer::ElectionCheck => {
                if self.coords[c].role == Role::Primary {
                    return;
                }
                let silent = now.as_secs_f64() - self.coords[c].last_hb_heard.as_secs_f64();
                if silent > self.spec.election_secs {
                    self.coord_elect(now, c);
                } else {
                    let jitter = self.coords[c].rng.uniform(0.2, 0.35);
                    self.schedule_coord(
                        Self::secs(self.spec.election_secs * jitter),
                        coord,
                        CoordTimer::ElectionCheck,
                        gen,
                    );
                }
            }
            CoordTimer::Sweep => {
                let mut reclaimed = 0u32;
                {
                    let co = &mut self.coords[c];
                    for lease in co.leases.iter_mut() {
                        if lease.is_some_and(|r| r.expires <= now) {
                            *lease = None;
                            co.granted = co.granted.saturating_sub(1);
                            reclaimed += 1;
                        }
                    }
                }
                if reclaimed > 0 {
                    self.obs.note(now, Note::Swept { coord, reclaimed });
                }
                self.schedule_coord(
                    Self::secs(self.spec.lease_secs / 4.0),
                    coord,
                    CoordTimer::Sweep,
                    gen,
                );
            }
        }
    }

    fn coord_crash(&mut self, now: SimTime, c: usize) {
        let coord = c as u32;
        let co = &mut self.coords[c];
        if !co.up {
            return;
        }
        co.up = false;
        co.gen += 1;
        self.obs.note(now, Note::Crashed { coord });
    }

    fn coord_repair(&mut self, now: SimTime, c: usize) {
        let coord = c as u32;
        let gen = {
            let co = &mut self.coords[c];
            if co.up {
                return;
            }
            co.up = true;
            co.gen += 1;
            co.role = Role::Standby;
            co.leases.iter_mut().for_each(|l| *l = None);
            co.granted = 0;
            // Grace: don't immediately contest a live primary.
            co.last_hb_heard = now;
            co.gen
        };
        self.obs.note(now, Note::Repaired { coord });
        let jitter = self.coords[c].rng.uniform(1.0, 1.25);
        self.schedule_coord(
            Self::secs(self.spec.election_secs * jitter),
            coord,
            CoordTimer::ElectionCheck,
            gen,
        );
        self.schedule_coord(
            Self::secs(self.spec.lease_secs / 4.0),
            coord,
            CoordTimer::Sweep,
            gen,
        );
    }

    // -----------------------------------------------------------------
    // Degradation sampling (invariant (d)'s teeth)

    fn sample_health(&mut self, now: SimTime) {
        let mut d = FleetDegradation::default();
        for (n, a) in self.agents.iter().enumerate() {
            if a.done {
                continue;
            }
            match (&a.lease, a.attempt) {
                // A lease at its expiry instant no longer authorises
                // sprinting even if the expiry event hasn't fired yet.
                (Some(l), _) if l.expires <= now => d.stale += 1,
                (Some(_), 0) => d.sprintable += 1,
                (Some(_), _) => d.stale += 1,
                (None, _) => d.no_sprint += 1,
            }
            if a.lease.is_none() {
                if let Some(server) = self.servers[n].as_ref() {
                    if server.sprinting() > 0 {
                        self.tracker.violation(
                            "unleased-sprint",
                            format!(
                                "node {n} sprinting without a lease at t={:.1}s",
                                now.as_secs_f64()
                            ),
                        );
                    }
                }
            }
        }
        if !self.all_done() {
            self.last_degradation = d;
            self.sampled_degradation = true;
            self.obs.recorder.record(
                now,
                EventKind::FleetDegradationSample {
                    sprintable: d.sprintable,
                    stale: d.stale,
                    no_sprint: d.no_sprint,
                },
            );
            self.reactor.schedule(
                now.saturating_add(Self::secs(self.spec.lease_secs)),
                FleetEv::Health,
            );
        }
    }

    // -----------------------------------------------------------------
    // Dispatch + driver

    fn dispatch(&mut self, now: SimTime, ev: FleetEv) -> Result<(), SprintError> {
        self.advance(now)?;
        if let Some(t) = self.obs.tracer.as_mut() {
            // The context the in-flight envelope carried, if this event
            // is a delivery (keyed by the reactor-assigned event id).
            t.current = t.in_flight.remove(&self.reactor.current_event_id());
        }
        match ev {
            FleetEv::Deliver { from, to, msg } => match to {
                Addr::Coordinator(c) => {
                    if !self.coords[c as usize].up {
                        self.obs.note(now, Note::NetCoordDown { coord: c });
                        return Ok(());
                    }
                    match msg {
                        FleetMsg::LeaseRequest { node, held_epoch } => {
                            self.coord_on_request(now, c as usize, node, held_epoch);
                        }
                        FleetMsg::LeaseRelease { node } => {
                            let co = &mut self.coords[c as usize];
                            if co.role == Role::Primary && co.leases[node as usize].is_some() {
                                co.leases[node as usize] = None;
                                co.granted = co.granted.saturating_sub(1);
                            }
                        }
                        FleetMsg::Heartbeat {
                            from: hb_from,
                            epoch,
                        } => {
                            self.coord_on_heartbeat(now, c as usize, hb_from, epoch);
                        }
                        FleetMsg::HeartbeatAck { epoch } => {
                            let co = &mut self.coords[c as usize];
                            if co.role == Role::Primary && epoch == co.epoch {
                                co.last_ack = now;
                            }
                        }
                        FleetMsg::LeaseGrant { .. } | FleetMsg::LeaseDeny { .. } => {}
                    }
                }
                Addr::Node(n) => match msg {
                    FleetMsg::LeaseGrant { epoch, expires_us } => {
                        self.node_on_grant(now, n as usize, epoch, expires_us);
                    }
                    FleetMsg::LeaseDeny { epoch } => {
                        self.node_on_deny(now, n as usize, epoch);
                    }
                    _ => {
                        let _ = from;
                    }
                },
            },
            FleetEv::Node { node, timer } => match timer {
                NodeTimer::Request { seq } => self.node_request(now, node as usize, seq),
                NodeTimer::RequestTimeout { seq } => {
                    self.node_request_timeout(now, node as usize, seq);
                }
                NodeTimer::Renew { gen } => self.node_renew(now, node as usize, gen),
                NodeTimer::Expiry { gen } => self.node_expiry(now, node as usize, gen)?,
            },
            FleetEv::Coord { coord, timer, gen } => {
                self.coord_timer(now, coord as usize, timer, gen)
            }
            FleetEv::CoordCrash { coord } => self.coord_crash(now, coord as usize),
            FleetEv::CoordRepair { coord } => self.coord_repair(now, coord as usize),
            FleetEv::Health => self.sample_health(now),
        }
        Ok(())
    }

    fn tick_valve(&mut self) -> Result<(), SprintError> {
        self.iterations += 1;
        let cap = ITER_VALVE_PER_UNIT
            * (u64::from(self.spec.queries_total)
                + u64::from(self.spec.nodes)
                + u64::from(self.spec.coordinators)
                + 10);
        if self.iterations > cap {
            return Err(SprintError::invalid(
                "fleet::iterations",
                format!("fleet event storm: more than {cap} events processed"),
            ));
        }
        Ok(())
    }

    fn complete_node(&mut self, now: SimTime, n: usize) -> Result<(), SprintError> {
        let Some(server) = self.servers[n].take() else {
            return Ok(());
        };
        // Invariant (d): a finishing node must be leased or safely
        // unsprinted.
        if self.agents[n].lease.is_none() && server.sprinting() > 0 {
            self.tracker.violation(
                "unleased-sprint",
                format!(
                    "node {n} finished while sprinting without a lease at t={:.1}s",
                    now.as_secs_f64()
                ),
            );
        }
        self.next_t[n] = None;
        self.node_done(now, n);
        self.results[n] = Some(server.finish()?);
        self.done_count += 1;
        Ok(())
    }

    fn run(mut self) -> Result<(FleetResult, Option<Journal<FleetRecord>>), SprintError> {
        self.init();
        while !self.all_done() {
            self.run_next()?;
        }
        // Drain in-flight control traffic (released leases, final
        // heartbeats) for one delay bound past the last node event.
        let drain_end = self
            .horizon
            .saturating_add(Self::secs(self.spec.faults.messages.delay_secs + 1.0));
        while let Some(t) = self.reactor.peek_time() {
            if t > drain_end {
                break;
            }
            if let Some((t, ev)) = self.pop() {
                self.dispatch(t, ev)?;
            }
            self.tick_valve()?;
        }
        self.finalize()
    }

    /// Runs the earliest event across the control plane's reactor and
    /// every live node server's own queue. Ties go to the control
    /// plane, then the lowest node index, which the heap's
    /// `(time, node)` order gives.
    fn run_next(&mut self) -> Result<(), SprintError> {
        let fleet_t = self.reactor.peek_time();
        while let Some(&Reverse((t, i))) = self.node_times.peek() {
            if self.next_t[i] == Some(t) {
                break;
            }
            self.node_times.pop();
        }
        let node_next = self.node_times.peek().map(|&Reverse(top)| top);
        match (fleet_t, node_next) {
            (None, None) => {
                return Err(SprintError::invalid(
                    "fleet::run",
                    format!(
                        "fleet stalled with {}/{} nodes done",
                        self.done_count, self.spec.nodes
                    ),
                ));
            }
            (Some(ft), Some((nt, i))) if ft > nt => self.step_node(i)?,
            (Some(_), _) => {
                if let Some((t, ev)) = self.pop() {
                    self.dispatch(t, ev)?;
                }
            }
            (None, Some((_, i))) => self.step_node(i)?,
        }
        self.tick_valve()
    }

    /// Moves the run's clock to `t`, the time of the event about to
    /// run. The interleave runs events in time order, so an event
    /// earlier than the last one run means it broke.
    fn advance(&mut self, t: SimTime) -> Result<(), SprintError> {
        if t < self.horizon {
            return Err(SprintError::runtime(
                "fleet::run",
                format!(
                    "event at t={}us runs after one at t={}us",
                    t.0, self.horizon.0
                ),
            ));
        }
        self.horizon = t;
        Ok(())
    }

    /// Runs node `i`'s next event, at the time the node's own queue
    /// holds it (the heap entry that picked the node only ranks it).
    fn step_node(&mut self, i: usize) -> Result<(), SprintError> {
        let Some(t) = self.next_t[i] else {
            return Ok(());
        };
        self.advance(t)?;
        let Some(stepped) = self.on_server(i, |server| server.step().map(|_| server.is_done()))
        else {
            return Ok(());
        };
        if stepped? {
            self.complete_node(t, i)?;
        }
        Ok(())
    }

    fn finalize(mut self) -> Result<(FleetResult, Option<Journal<FleetRecord>>), SprintError> {
        self.tracker.advance(self.horizon);
        let horizon_secs = self.horizon.as_secs_f64();
        let mut served = 0u64;
        let mut resp_weighted = 0.0;
        let mut sprint_weighted = 0.0;
        for result in self.results.iter().flatten() {
            let s = result.served() as u64;
            served += s;
            resp_weighted += result.mean_response_secs() * s as f64;
            sprint_weighted += result.sprint_fraction() * s as f64;
        }
        let utilization = if horizon_secs > 0.0 && self.tracker.budget > 0 {
            self.tracker.held_integral / (f64::from(self.tracker.budget) * horizon_secs)
        } else {
            0.0
        };
        let mut violations = std::mem::take(&mut self.tracker.violations);
        if served != u64::from(self.spec.queries_total) {
            violations.push(FleetViolation {
                invariant: "conservation",
                details: format!(
                    "fleet served {served} of {} queries",
                    self.spec.queries_total
                ),
            });
        }
        let node_telemetries = if self.obs.tracer.is_some() {
            self.results
                .iter()
                .map(|r| {
                    r.as_ref()
                        .and_then(|r| r.telemetry().cloned())
                        .unwrap_or_default()
                })
                .collect()
        } else {
            Vec::new()
        };
        let result = FleetResult {
            nodes: self.spec.nodes,
            served,
            horizon_secs,
            mean_response_secs: if served > 0 {
                resp_weighted / served as f64
            } else {
                0.0
            },
            sprint_fraction: if served > 0 {
                sprint_weighted / served as f64
            } else {
                0.0
            },
            budget_power: self.spec.budget_power,
            peak_held_power: self.tracker.peak_held,
            budget_utilization: utilization,
            forced_unsprints: self.forced_unsprints,
            stats: self.stats,
            degradation: self.last_degradation,
            counters: self.net.counters,
            violations,
            telemetry: self.obs.recorder.finish(),
            node_telemetries,
        };
        Ok((result, self.obs.journal.take()))
    }
}

/// Runs a fleet spec to completion.
///
/// # Errors
///
/// Returns [`SprintError::InvalidConfig`] on a bad spec or a broken
/// simulation invariant mid-run (protocol-level invariant *violations*
/// are reported in [`FleetResult::violations`], not as errors).
pub fn run_fleet(spec: &FleetSpec) -> Result<FleetResult, SprintError> {
    let mech = spec.template.mechanism.build();
    let cluster = Cluster::new(spec, &*mech, false, false)?;
    cluster.run().map(|(result, _)| result)
}

/// Runs a fleet spec with causal tracing enabled: lease lifecycles,
/// control RPCs, coordinator terms, partition windows and per-node
/// sprint episodes become spans in the control-plane and node
/// telemetry ([`FleetResult::telemetry`] /
/// [`FleetResult::node_telemetries`]), connected by cause links.
/// Tracing is observation-only — served counts, lease stats and
/// invariant verdicts are bit-identical to [`run_fleet`], and two
/// traced runs of the same spec produce bit-identical traces.
///
/// # Errors
///
/// Returns an error under the same conditions as [`run_fleet`].
pub fn run_fleet_traced(spec: &FleetSpec) -> Result<FleetResult, SprintError> {
    let mech = spec.template.mechanism.build();
    let cluster = Cluster::new(spec, &*mech, false, true)?;
    cluster.run().map(|(result, _)| result)
}

/// Runs a fleet spec with journaling enabled on the control plane and
/// every node, returning the run's one journal: every control-plane and
/// node entry in the order the interleave executed them. The same spec
/// always produces the same `(FleetResult, Journal)` pair.
///
/// # Errors
///
/// Returns an error under the same conditions as [`run_fleet`].
pub fn run_fleet_journaled(
    spec: &FleetSpec,
) -> Result<(FleetResult, Journal<FleetRecord>), SprintError> {
    let mech = spec.template.mechanism.build();
    let cluster = Cluster::new(spec, &*mech, true, false)?;
    let (result, journal) = cluster.run()?;
    journal
        .map(|j| (result, j))
        .ok_or_else(|| SprintError::invalid("fleet::journal", "journaled run produced no journal"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CoordinatorCrash, FleetPartition};
    use simcore::dist::DistKind;

    #[test]
    fn fault_free_fleet_serves_everything_cleanly() {
        let spec = FleetSpec::small(11, 6).expect("small fleet");
        let result = run_fleet(&spec).expect("fleet runs");
        assert_eq!(result.served, u64::from(spec.queries_total));
        assert!(
            result.invariants_clean(),
            "violations: {:?}",
            result.violations
        );
        assert!(result.peak_held_power <= spec.budget_power);
        assert!(result.stats.grants >= u64::from(spec.budget_power.min(spec.nodes)));
        assert_eq!(result.stats.elections, 0);
        assert_eq!(result.counters.messages_total(), 0);
    }

    #[test]
    fn fleet_runs_are_bit_identical() {
        let spec = FleetSpec::small(23, 5).expect("small fleet");
        let (r1, j1) = run_fleet_journaled(&spec).expect("fleet runs");
        let (r2, j2) = run_fleet_journaled(&spec).expect("fleet runs");
        assert!(!j1.is_empty());
        assert_eq!(j1.to_jsonl(), j2.to_jsonl());
        assert_eq!(r1.served, r2.served);
        assert_eq!(r1.stats, r2.stats);
        // A different seed genuinely changes the run.
        let spec2 = FleetSpec::small(24, 5).expect("small fleet");
        let (_, j3) = run_fleet_journaled(&spec2).expect("fleet runs");
        assert_ne!(j1.to_jsonl(), j3.to_jsonl());
    }

    /// A node event earlier than the last event run is a typed error,
    /// not a run that passes its invariants out of time order.
    #[test]
    fn an_event_earlier_than_the_last_one_run_is_a_runtime_error() {
        let spec = FleetSpec::small(11, 4).expect("small fleet");
        let mech = spec.template.mechanism.build();
        let mut cluster = Cluster::new(&spec, &*mech, false, false).expect("cluster");
        cluster.init();
        while cluster.horizon == SimTime::ZERO {
            cluster.run_next().expect("in-order events run");
        }
        // Plant node 0's next event one microsecond before the last
        // event run.
        let early = SimTime(cluster.horizon.0 - 1);
        cluster.next_t[0] = Some(early);
        cluster.node_times.push(Reverse((early, 0)));
        match cluster.run_next() {
            Err(SprintError::Runtime { what, details }) => {
                assert_eq!(what, "fleet::run");
                assert!(details.contains(&format!("t={}us", early.0)), "{details}");
            }
            other => panic!("expected a Runtime error, got {other:?}"),
        }
    }

    /// With deterministic arrivals every node's first query lands at the
    /// same instant, so the interleave has to break a tie between nodes.
    /// It runs the lowest node index first, and the journal, which holds
    /// entries in execution order, shows exactly that order.
    #[test]
    fn same_instant_node_events_journal_in_node_index_order() {
        let mut spec = FleetSpec::small(23, 3).expect("small fleet");
        spec.template.cfg.arrivals.kind = DistKind::Deterministic;
        let (_, journal) = run_fleet_journaled(&spec).expect("fleet runs");
        let text = journal.rendered();
        let first: Vec<(u64, &str)> = text
            .entries()
            .iter()
            .filter(|e| e.what.ends_with(" Arrival"))
            .take(3)
            .map(|e| (e.t_us, e.what.as_str()))
            .collect();
        let t = first[0].0;
        assert_eq!(
            first,
            [(t, "n0 Arrival"), (t, "n1 Arrival"), (t, "n2 Arrival")]
        );
    }

    /// FNV-1a 64 of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins the tie order across whole runs. With deterministic arrivals
    /// every node's queries arrive at the same instants, so the
    /// interleave breaks a tie between nodes at every arrival, and
    /// between nodes and the control plane wherever a timer or message
    /// lands on one: through a failover, and through a partition with a
    /// lossy control plane. The journal holds entries in execution
    /// order, so a change to which source runs first at a shared instant
    /// changes its digest. No catalog plan has such ties, so the
    /// scenario crate's digests cannot see this.
    #[test]
    fn tied_fleet_journals_match_committed_digests() {
        let tied = |seed, nodes| {
            let mut spec = FleetSpec::small(seed, nodes).expect("small fleet");
            spec.template.cfg.arrivals.kind = DistKind::Deterministic;
            spec
        };
        let plain = tied(23, 8);
        let mut crash = tied(31, 12);
        crash.faults.coordinator_crashes.push(CoordinatorCrash {
            coordinator: 0,
            at_secs: 90.0,
            repair_secs: 120.0,
        });
        let mut lossy = tied(47, 16);
        lossy.faults.partitions.push(FleetPartition {
            coords_a: vec![0],
            nodes_a_lo: 0,
            nodes_a_hi: 8,
            start_secs: 70.0,
            duration_secs: 150.0,
        });
        lossy.faults.messages.drop_prob = 0.1;
        lossy.faults.messages.delay_prob = 0.2;
        lossy.faults.messages.delay_secs = 3.0;
        lossy.faults.messages.dup_prob = 0.1;
        let cases = [
            ("plain", plain, 3273, 0xa987_aa91_2015_e787),
            ("coordinator-crash", crash, 4188, 0x88b8_b9c6_d0a4_9492),
            ("partition-lossy", lossy, 6035, 0x72a9_b7bd_0497_d006),
        ];
        let mut mismatches = Vec::new();
        let mut results = Vec::new();
        for (name, spec, entries, want) in cases {
            let (result, journal) = run_fleet_journaled(&spec).expect("fleet runs");
            assert!(result.invariants_clean(), "{name}: {:?}", result.violations);
            results.push(result);
            let got = fnv1a(journal.to_jsonl().as_bytes());
            if got != want || journal.len() != entries {
                mismatches.push(format!(
                    "{name}: digest {got:#018x} over {} entries, committed {want:#018x} \
                     over {entries}",
                    journal.len()
                ));
            }
        }
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
        // Each faulted fleet meets the fault it is named for.
        assert!(results[1].stats.elections >= 1, "{:?}", results[1].stats);
        let lossy = &results[2].counters;
        assert!(
            lossy.partition_drops > 0 && lossy.msgs_dropped > 0,
            "{lossy:?}"
        );
        assert!(
            lossy.msgs_delayed > 0 && lossy.msgs_duplicated > 0,
            "{lossy:?}"
        );
    }

    #[test]
    fn coordinator_crash_fails_over_without_violations() {
        let mut spec = FleetSpec::small(31, 6).expect("small fleet");
        // Crash the initial primary once leases are circulating.
        spec.faults.coordinator_crashes.push(CoordinatorCrash {
            coordinator: 0,
            at_secs: 90.0,
            repair_secs: 0.0,
        });
        let result = run_fleet(&spec).expect("fleet runs");
        assert_eq!(result.served, u64::from(spec.queries_total));
        assert!(
            result.invariants_clean(),
            "violations: {:?}",
            result.violations
        );
        assert!(result.stats.elections >= 1, "standby must take over");
        assert!(result.stats.max_epoch > u64::from(spec.coordinators));
    }

    #[test]
    fn traced_fleet_is_bit_identical_and_carries_spans() {
        let mut spec = FleetSpec::small(47, 4).expect("small fleet");
        spec.queries_total = 24;
        spec.faults.partitions.push(FleetPartition {
            coords_a: vec![0, 1],
            nodes_a_lo: 0,
            nodes_a_hi: 0,
            start_secs: 70.0,
            duration_secs: 200.0,
        });
        let plain = run_fleet(&spec).expect("plain run");
        let traced = run_fleet_traced(&spec).expect("traced run");
        // Tracing is observation-only: the run's outcome is unchanged.
        assert_eq!(plain.served, traced.served);
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.forced_unsprints, traced.forced_unsprints);
        assert!(plain.node_telemetries.is_empty());
        // The traced run carries spans on both planes.
        assert_eq!(traced.node_telemetries.len(), 4);
        assert!(traced
            .telemetry
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::SpanOpened { .. })));
        // Replays of the same spec trace bit-identically.
        let again = run_fleet_traced(&spec).expect("traced replay");
        assert_eq!(traced.telemetry, again.telemetry);
        assert_eq!(traced.node_telemetries, again.node_telemetries);
    }

    #[test]
    fn full_partition_forces_unsprint_and_readmits() {
        let mut spec = FleetSpec::small(47, 4).expect("small fleet");
        spec.queries_total = 24;
        // Cut every node off from every coordinator for several leases.
        spec.faults.partitions.push(FleetPartition {
            coords_a: vec![0, 1],
            nodes_a_lo: 0,
            nodes_a_hi: 0,
            start_secs: 70.0,
            duration_secs: 200.0,
        });
        let result = run_fleet(&spec).expect("fleet runs");
        assert_eq!(result.served, u64::from(spec.queries_total));
        assert!(
            result.invariants_clean(),
            "violations: {:?}",
            result.violations
        );
        // Leases lapse during the cut (fail-safe degradation to
        // NoSprint), and nodes re-acquire after it heals.
        assert!(result.stats.expiries > 0, "stats: {:?}", result.stats);
        assert!(result.stats.retries > 0);
        assert!(result.counters.partition_drops > 0);
        let relock = result.stats.grants;
        assert!(
            relock > u64::from(spec.budget_power),
            "nodes must re-acquire leases after the partition heals: {:?}",
            result.stats
        );
    }
}
