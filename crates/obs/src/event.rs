//! Structured flight-recorder events.
//!
//! Every event carries only integers (slot indexes, query ids,
//! microsecond durations) so equality is exact and a replayed run
//! reproduces the identical log bit-for-bit. Rendering to JSON or a
//! text timeline happens after the run, never on the recording path.

use crate::trace::{CauseReason, SpanKind, SpanOutcome};
use simcore::json::Json;
use simcore::table::TextTable;
use simcore::time::SimTime;

/// Why a sprint ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsprintReason {
    /// The sprinted query completed normally.
    Completed,
    /// The budget ran dry mid-sprint and the engine fell back.
    BudgetDry,
    /// The supervision watchdog force-unsprinted a stuck sprint.
    Watchdog,
    /// A thermal emergency unsprinted every active slot.
    Thermal,
    /// The executing slot crashed.
    Crash,
    /// The node's fleet sprint lease lapsed (coordinator unreachable or
    /// renewal lost), so it failed safe to the sustained rate.
    LeaseLapsed,
}

impl UnsprintReason {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            UnsprintReason::Completed => "completed",
            UnsprintReason::BudgetDry => "budget-dry",
            UnsprintReason::Watchdog => "watchdog",
            UnsprintReason::Thermal => "thermal",
            UnsprintReason::Crash => "crash",
            UnsprintReason::LeaseLapsed => "lease-lapsed",
        }
    }
}

/// Model-health breaker level as seen by the recorder (mirrors
/// `sprint_core::DegradationLevel` without a dependency cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerLevel {
    /// Predictions trusted; sprinting unrestricted.
    FullModel,
    /// Model divergence observed; conservative operation.
    StaleModel,
    /// Breaker tripped; sprinting forbidden.
    NoSprint,
}

impl BreakerLevel {
    /// Stable name matching the paper's FullModel→StaleModel→NoSprint
    /// ladder.
    pub fn name(self) -> &'static str {
        match self {
            BreakerLevel::FullModel => "full-model",
            BreakerLevel::StaleModel => "stale-model",
            BreakerLevel::NoSprint => "no-sprint",
        }
    }

    /// Dense index (0, 1, 2) for dwell-time accumulators.
    pub fn index(self) -> usize {
        match self {
            BreakerLevel::FullModel => 0,
            BreakerLevel::StaleModel => 1,
            BreakerLevel::NoSprint => 2,
        }
    }
}

/// Admission-ladder mode as seen by the recorder (mirrors the
/// supervisor's shed→reject→drain ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Every arrival admitted.
    Normal,
    /// Parity shedding above the shed watermark.
    Shedding,
    /// All arrivals rejected above the reject watermark.
    Draining,
}

impl AdmissionMode {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            AdmissionMode::Normal => "normal",
            AdmissionMode::Shedding => "shedding",
            AdmissionMode::Draining => "draining",
        }
    }
}

/// What happened. Variants carry only integers so the log is exactly
/// reproducible and cheap to store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A sprint engaged on a slot (`stuck` marks an injected
    /// stuck-sprint that will not unsprint on its own).
    SprintEngaged {
        /// Executing slot index.
        slot: u32,
        /// Whether the fault injector wedged this sprint.
        stuck: bool,
    },
    /// A sprint was requested but the engage failed (injected fault or
    /// engage lockout).
    SprintEngageFailed {
        /// Slot that failed to engage.
        slot: u32,
    },
    /// A sprint ended.
    SprintEnded {
        /// Slot that was sprinting.
        slot: u32,
        /// Why it ended.
        reason: UnsprintReason,
    },
    /// The supervision watchdog fired on a live (stuck) sprint.
    WatchdogFired {
        /// Slot the watchdog force-unsprinted.
        slot: u32,
    },
    /// A slot crashed while executing a query.
    SlotCrashed {
        /// Crashed slot index.
        slot: u32,
        /// Query that was executing (requeued or lost).
        query: u64,
    },
    /// A crashed slot was scheduled to restart after a backoff.
    SlotRestartScheduled {
        /// Restarting slot index.
        slot: u32,
        /// Backoff delay in microseconds.
        delay_micros: u64,
    },
    /// A slot came back up and rejoined dispatch.
    SlotUp {
        /// Restored slot index.
        slot: u32,
    },
    /// A slot was quarantined after repeated crashes.
    SlotQuarantined {
        /// Quarantined slot index.
        slot: u32,
    },
    /// An arrival was shed by the admission ladder.
    QueryShed {
        /// Shed query id.
        query: u64,
        /// Queue depth at the decision.
        queue_depth: u32,
    },
    /// An arrival was rejected by the admission ladder.
    QueryRejected {
        /// Rejected query id.
        query: u64,
        /// Queue depth at the decision.
        queue_depth: u32,
    },
    /// The admission ladder changed mode.
    AdmissionModeChanged {
        /// Previous mode.
        from: AdmissionMode,
        /// New mode.
        to: AdmissionMode,
    },
    /// Queue-depth sample taken at an admitted arrival.
    QueueDepth {
        /// Number of queries waiting (after the arrival was handled).
        depth: u32,
    },
    /// The model-health breaker changed level.
    BreakerTransition {
        /// Previous level.
        from: BreakerLevel,
        /// New level.
        to: BreakerLevel,
    },
    /// A thermal emergency unsprinted every active slot.
    ThermalEmergency {
        /// Number of slots that were sprinting when it struck.
        unsprinted: u32,
    },
    /// A control message was delivered late (injected network delay).
    MessageDelayed {
        /// Sending peer index (see `faults::Peer::index`).
        from: u32,
        /// Receiving peer index.
        to: u32,
        /// In-flight delay in microseconds.
        delay_micros: u64,
    },
    /// A control message was lost (random drop or link partition).
    MessageDropped {
        /// Sending peer index.
        from: u32,
        /// Receiving peer index.
        to: u32,
        /// Whether a scheduled link partition (rather than random loss)
        /// ate it.
        partitioned: bool,
    },
    /// A control message was duplicated: delivered inline plus a
    /// delayed echo copy.
    MessageDuplicated {
        /// Sending peer index.
        from: u32,
        /// Receiving peer index.
        to: u32,
        /// Echo latency in microseconds.
        delay_micros: u64,
    },
    /// A fleet coordinator granted (or renewed) a sprint lease.
    LeaseGranted {
        /// Node the lease was granted to.
        node: u32,
        /// Coordinator epoch the grant was stamped with.
        epoch: u64,
        /// Power units the lease reserves against the shared budget.
        power: u32,
    },
    /// A node's sprint lease expired unrenewed; the node force-unsprints.
    LeaseExpired {
        /// Node whose lease lapsed.
        node: u32,
        /// Epoch the lapsed lease was granted in.
        epoch: u64,
    },
    /// A node released its sprint lease back to the coordinator.
    LeaseReleased {
        /// Node that released.
        node: u32,
        /// Epoch the released lease was granted in.
        epoch: u64,
    },
    /// A fleet coordinator crashed (stops granting and heartbeating).
    CoordinatorCrashed {
        /// Crashed coordinator index.
        coordinator: u32,
    },
    /// A standby coordinator won the heartbeat-timeout election and
    /// took over at a new epoch, fencing stale grants.
    CoordinatorElected {
        /// Elected coordinator index.
        coordinator: u32,
        /// New (strictly higher) epoch.
        epoch: u64,
    },
    /// Periodic fleet-health sample: how many nodes sit at each rung of
    /// the degradation ladder.
    FleetDegradationSample {
        /// Nodes holding a live lease (sprintable).
        sprintable: u32,
        /// Nodes holding a lease but failing to renew (stale).
        stale: u32,
        /// Nodes without a lease (forced to the sustained rate).
        no_sprint: u32,
    },
    /// A causal span opened (tracing enabled only).
    SpanOpened {
        /// Span id, unique within the trace.
        span: u64,
        /// Parent span id (0 = root).
        parent: u64,
        /// Activity kind.
        kind: SpanKind,
        /// Owning node (`u32::MAX` for fleet-global spans).
        node: u32,
    },
    /// A causal span closed.
    SpanClosed {
        /// Span id.
        span: u64,
        /// How the activity ended.
        outcome: SpanOutcome,
    },
    /// A causal edge: the `effect` span was perturbed for `reason`,
    /// traced back to the `cause` span (0 = no recorded cause span).
    CauseLinked {
        /// Span that was perturbed.
        effect: u64,
        /// Span that caused it (0 = none recorded).
        cause: u64,
        /// Typed reason on the edge.
        reason: CauseReason,
    },
}

impl EventKind {
    /// Stable kebab-case event name used in JSON and timelines.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SprintEngaged { .. } => "sprint-engaged",
            EventKind::SprintEngageFailed { .. } => "sprint-engage-failed",
            EventKind::SprintEnded { .. } => "sprint-ended",
            EventKind::WatchdogFired { .. } => "watchdog-fired",
            EventKind::SlotCrashed { .. } => "slot-crashed",
            EventKind::SlotRestartScheduled { .. } => "slot-restart-scheduled",
            EventKind::SlotUp { .. } => "slot-up",
            EventKind::SlotQuarantined { .. } => "slot-quarantined",
            EventKind::QueryShed { .. } => "query-shed",
            EventKind::QueryRejected { .. } => "query-rejected",
            EventKind::AdmissionModeChanged { .. } => "admission-mode-changed",
            EventKind::QueueDepth { .. } => "queue-depth",
            EventKind::BreakerTransition { .. } => "breaker-transition",
            EventKind::ThermalEmergency { .. } => "thermal-emergency",
            EventKind::MessageDelayed { .. } => "message-delayed",
            EventKind::MessageDropped { .. } => "message-dropped",
            EventKind::MessageDuplicated { .. } => "message-duplicated",
            EventKind::LeaseGranted { .. } => "lease-granted",
            EventKind::LeaseExpired { .. } => "lease-expired",
            EventKind::LeaseReleased { .. } => "lease-released",
            EventKind::CoordinatorCrashed { .. } => "coordinator-crashed",
            EventKind::CoordinatorElected { .. } => "coordinator-elected",
            EventKind::FleetDegradationSample { .. } => "fleet-degradation",
            EventKind::SpanOpened { .. } => "span-opened",
            EventKind::SpanClosed { .. } => "span-closed",
            EventKind::CauseLinked { .. } => "cause-linked",
        }
    }

    /// Whether the event records a supervisory *intervention* (the
    /// system actively changing course, as opposed to a sample or a
    /// fault symptom). Chaos sweeps use this to prove no cell degrades
    /// silently.
    pub fn is_intervention(&self) -> bool {
        matches!(
            self,
            EventKind::WatchdogFired { .. }
                | EventKind::SlotRestartScheduled { .. }
                | EventKind::SlotQuarantined { .. }
                | EventKind::QueryShed { .. }
                | EventKind::QueryRejected { .. }
                | EventKind::AdmissionModeChanged { .. }
                | EventKind::BreakerTransition { .. }
                | EventKind::LeaseExpired { .. }
                | EventKind::CoordinatorElected { .. }
        )
    }

    /// The event's fields in the order [`Event::to_json`] writes them.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        let n = |v: u64| Json::Num(v as f64);
        match *self {
            EventKind::SprintEngaged { slot, stuck } => {
                vec![("slot", n(slot as u64)), ("stuck", Json::Bool(stuck))]
            }
            EventKind::SprintEngageFailed { slot } => vec![("slot", n(slot as u64))],
            EventKind::SprintEnded { slot, reason } => vec![
                ("slot", n(slot as u64)),
                ("reason", Json::Str(reason.name().to_string())),
            ],
            EventKind::WatchdogFired { slot } => vec![("slot", n(slot as u64))],
            EventKind::SlotCrashed { slot, query } => {
                vec![("slot", n(slot as u64)), ("query", n(query))]
            }
            EventKind::SlotRestartScheduled { slot, delay_micros } => {
                vec![("slot", n(slot as u64)), ("delay_micros", n(delay_micros))]
            }
            EventKind::SlotUp { slot } => vec![("slot", n(slot as u64))],
            EventKind::SlotQuarantined { slot } => vec![("slot", n(slot as u64))],
            EventKind::QueryShed { query, queue_depth } => {
                vec![("query", n(query)), ("queue_depth", n(queue_depth as u64))]
            }
            EventKind::QueryRejected { query, queue_depth } => {
                vec![("query", n(query)), ("queue_depth", n(queue_depth as u64))]
            }
            EventKind::AdmissionModeChanged { from, to } => vec![
                ("from", Json::Str(from.name().to_string())),
                ("to", Json::Str(to.name().to_string())),
            ],
            EventKind::QueueDepth { depth } => vec![("depth", n(depth as u64))],
            EventKind::BreakerTransition { from, to } => vec![
                ("from", Json::Str(from.name().to_string())),
                ("to", Json::Str(to.name().to_string())),
            ],
            EventKind::ThermalEmergency { unsprinted } => {
                vec![("unsprinted", n(unsprinted as u64))]
            }
            EventKind::MessageDelayed {
                from,
                to,
                delay_micros,
            } => vec![
                ("from", n(from as u64)),
                ("to", n(to as u64)),
                ("delay_micros", n(delay_micros)),
            ],
            EventKind::MessageDropped {
                from,
                to,
                partitioned,
            } => vec![
                ("from", n(from as u64)),
                ("to", n(to as u64)),
                ("partitioned", Json::Bool(partitioned)),
            ],
            EventKind::MessageDuplicated {
                from,
                to,
                delay_micros,
            } => vec![
                ("from", n(from as u64)),
                ("to", n(to as u64)),
                ("delay_micros", n(delay_micros)),
            ],
            EventKind::LeaseGranted { node, epoch, power } => vec![
                ("node", n(node as u64)),
                ("epoch", n(epoch)),
                ("power", n(power as u64)),
            ],
            EventKind::LeaseExpired { node, epoch } => {
                vec![("node", n(node as u64)), ("epoch", n(epoch))]
            }
            EventKind::LeaseReleased { node, epoch } => {
                vec![("node", n(node as u64)), ("epoch", n(epoch))]
            }
            EventKind::CoordinatorCrashed { coordinator } => {
                vec![("coordinator", n(coordinator as u64))]
            }
            EventKind::CoordinatorElected { coordinator, epoch } => {
                vec![("coordinator", n(coordinator as u64)), ("epoch", n(epoch))]
            }
            EventKind::FleetDegradationSample {
                sprintable,
                stale,
                no_sprint,
            } => vec![
                ("sprintable", n(sprintable as u64)),
                ("stale", n(stale as u64)),
                ("no_sprint", n(no_sprint as u64)),
            ],
            EventKind::SpanOpened {
                span,
                parent,
                kind,
                node,
            } => vec![
                ("span", n(span)),
                ("parent", n(parent)),
                ("kind", Json::Str(kind.name().to_string())),
                ("node", n(node as u64)),
            ],
            EventKind::SpanClosed { span, outcome } => vec![
                ("span", n(span)),
                ("outcome", Json::Str(outcome.name().to_string())),
            ],
            EventKind::CauseLinked {
                effect,
                cause,
                reason,
            } => vec![
                ("effect", n(effect)),
                ("cause", n(cause)),
                ("reason", Json::Str(reason.name().to_string())),
            ],
        }
    }
}

/// One recorded occurrence: a virtual timestamp, a monotone sequence
/// number (global over the run, surviving ring eviction), and the
/// structured kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual (simulated) time of the occurrence.
    pub at: SimTime,
    /// Monotone per-run sequence number, 0-based.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// JSON object for JSONL export: `{"t_us":…,"seq":…,"event":…,…}`.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("t_us".to_string(), Json::Num(self.at.0 as f64)),
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("event".to_string(), Json::Str(self.kind.name().to_string())),
        ];
        for (k, v) in self.kind.fields() {
            obj.push((k.to_string(), v));
        }
        Json::Obj(obj)
    }
}

/// Renders events as an aligned text timeline (`t`, `seq`, `event`,
/// `detail`), the detail being the event's JSON fields as `key=value`
/// pairs (`slot=0 reason=budget-dry`). Callers slice to taste — e.g.
/// the first 16 events for a run prologue or the last 32 of a
/// violating chaos cell.
pub fn render_timeline(events: &[Event]) -> String {
    let mut t = TextTable::new(vec!["t", "seq", "event", "detail"]);
    for e in events {
        let detail: Vec<String> = e
            .kind
            .fields()
            .into_iter()
            .map(|(k, v)| match v {
                Json::Str(s) => format!("{k}={s}"),
                v => format!("{k}={}", v.to_string_pretty()),
            })
            .collect();
        t.row(vec![
            format!("{:.3}s", e.at.as_secs_f64()),
            e.seq.to_string(),
            e.kind.name().to_string(),
            detail.join(" "),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_carries_name_and_fields() {
        let e = Event {
            at: SimTime::from_secs(3),
            seq: 7,
            kind: EventKind::SlotCrashed { slot: 1, query: 42 },
        };
        let j = e.to_json();
        assert_eq!(j.field("event").unwrap().as_str().unwrap(), "slot-crashed");
        assert_eq!(j.field("slot").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(j.field("query").unwrap().as_f64().unwrap(), 42.0);
        assert_eq!(j.field("t_us").unwrap().as_f64().unwrap(), 3_000_000.0);
    }

    #[test]
    fn interventions_are_classified() {
        assert!(EventKind::WatchdogFired { slot: 0 }.is_intervention());
        assert!(EventKind::QueryShed {
            query: 1,
            queue_depth: 9
        }
        .is_intervention());
        assert!(!EventKind::QueueDepth { depth: 3 }.is_intervention());
        assert!(!EventKind::SlotCrashed { slot: 0, query: 1 }.is_intervention());
    }

    #[test]
    fn timeline_renders_every_row() {
        let mut events: Vec<Event> = (0..4)
            .map(|i| Event {
                at: SimTime::from_secs(i),
                seq: i,
                kind: EventKind::QueueDepth { depth: i as u32 },
            })
            .collect();
        events.push(Event {
            at: SimTime::from_secs(4),
            seq: 4,
            kind: EventKind::SprintEnded {
                slot: 1,
                reason: UnsprintReason::BudgetDry,
            },
        });
        let text = render_timeline(&events);
        assert_eq!(text.lines().count(), 2 + 5);
        assert!(text.contains("queue-depth"));
        assert!(text.contains("depth=3"));
        assert!(text.contains("slot=1 reason=budget-dry"));
    }
}
