//! Deterministic causal spans and trace reconstruction.
//!
//! A *span* is a long-lived activity with a virtual-time start and end:
//! a sprint episode on one slot, a lease lifecycle (grant → renew →
//! lapse/release), one control-RPC round trip, a coordinator's term in
//! office, or a scheduled partition window. Spans are recorded through
//! the ordinary [`FlightRecorder`](crate::FlightRecorder) as [`EventKind::SpanOpened`] /
//! [`EventKind::SpanClosed`] events, and causal edges between them as
//! [`EventKind::CauseLinked`] — so tracing inherits every house rule of
//! the recorder: it is off by default, draws no randomness, schedules
//! nothing, and stores only integers. Span ids are derived from the
//! run's root seed plus per-emitter sequence counters, so a replay of
//! the same spec produces a bit-identical trace.
//!
//! A [`TraceCtx`] (trace id + parent span id) rides *beside* simulated
//! network envelopes — correlation state only, never consulted by the
//! simulation — so a dropped renewal on node 7 links back to the
//! partition window that ate it and forward to the force-unsprint it
//! triggered.
//!
//! After a run, [`TraceGraph::from_telemetry`] reconstructs the span
//! tree and cause chains from one or more recorded telemetry parts
//! (the fleet recorder plus every per-node recorder). Reconstruction
//! is total: spans whose close event was evicted from the bounded ring
//! (or never emitted) are closed at the trace horizon with a
//! `truncated` marker, orphan closes are counted and skipped, and
//! cycles in the cause links are broken by a visited set — a trace
//! storm can lose data but can never panic the reader.

use crate::event::EventKind;
use crate::recorder::RunTelemetry;
use simcore::table::TextTable;
use std::collections::{BTreeMap, BTreeSet};

/// What kind of long-lived activity a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One sprint on one slot, engage → unsprint.
    SprintEpisode,
    /// One lease held by a node, grant → renewals → lapse/release.
    LeaseLifecycle,
    /// One control-plane RPC round trip, send → grant/deny/timeout.
    ControlRpc,
    /// One coordinator's term as primary, election → step-down/crash.
    CoordinatorTerm,
    /// One scheduled fleet partition window, start → heal.
    PartitionWindow,
}

impl SpanKind {
    /// All kinds, in rendering order.
    pub const ALL: [SpanKind; 5] = [
        SpanKind::SprintEpisode,
        SpanKind::LeaseLifecycle,
        SpanKind::ControlRpc,
        SpanKind::CoordinatorTerm,
        SpanKind::PartitionWindow,
    ];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::SprintEpisode => "sprint-episode",
            SpanKind::LeaseLifecycle => "lease-lifecycle",
            SpanKind::ControlRpc => "control-rpc",
            SpanKind::CoordinatorTerm => "coordinator-term",
            SpanKind::PartitionWindow => "partition-window",
        }
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Sprint episode: the sprinted query completed normally.
    Completed,
    /// Sprint episode: the budget ran dry mid-sprint.
    BudgetDry,
    /// Sprint episode: the watchdog force-unsprinted it.
    Watchdog,
    /// Sprint episode: a thermal emergency unsprinted it.
    Thermal,
    /// Sprint episode: the executing slot crashed.
    Crash,
    /// Sprint episode: the node's fleet lease lapsed mid-sprint.
    LeaseLapsed,
    /// Control RPC: the coordinator granted (or renewed) the lease.
    Granted,
    /// Control RPC: the coordinator denied the request.
    Denied,
    /// Control RPC: no reply before the retry timeout.
    TimedOut,
    /// Lease lifecycle: released voluntarily at node completion.
    Released,
    /// Lease lifecycle: expired unrenewed (fail-safe unsprint).
    Lapsed,
    /// Coordinator term: self-fenced on peer-ack starvation.
    SteppedDown,
    /// Coordinator term: the coordinator crashed in office.
    Crashed,
    /// Partition window: the scheduled window elapsed.
    Healed,
    /// Synthesized at reconstruction: the close event was never seen
    /// (still open at the horizon, or evicted from the bounded ring).
    Truncated,
}

impl SpanOutcome {
    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Completed => "completed",
            SpanOutcome::BudgetDry => "budget-dry",
            SpanOutcome::Watchdog => "watchdog",
            SpanOutcome::Thermal => "thermal",
            SpanOutcome::Crash => "crash",
            SpanOutcome::LeaseLapsed => "lease-lapsed",
            SpanOutcome::Granted => "granted",
            SpanOutcome::Denied => "denied",
            SpanOutcome::TimedOut => "timed-out",
            SpanOutcome::Released => "released",
            SpanOutcome::Lapsed => "lapsed",
            SpanOutcome::SteppedDown => "stepped-down",
            SpanOutcome::Crashed => "crashed",
            SpanOutcome::Healed => "healed",
            SpanOutcome::Truncated => "truncated",
        }
    }

    /// Maps an unsprint reason onto the sprint-episode outcome.
    pub fn from_unsprint(reason: crate::event::UnsprintReason) -> SpanOutcome {
        use crate::event::UnsprintReason as R;
        match reason {
            R::Completed => SpanOutcome::Completed,
            R::BudgetDry => SpanOutcome::BudgetDry,
            R::Watchdog => SpanOutcome::Watchdog,
            R::Thermal => SpanOutcome::Thermal,
            R::Crash => SpanOutcome::Crash,
            R::LeaseLapsed => SpanOutcome::LeaseLapsed,
        }
    }

    /// Whether this outcome is a *forced* unsprint — the control plane
    /// stopped the sprint rather than the sprint finishing on its own.
    pub fn is_forced_unsprint(self) -> bool {
        matches!(
            self,
            SpanOutcome::Watchdog | SpanOutcome::Thermal | SpanOutcome::LeaseLapsed
        )
    }
}

/// Why one span (the effect) was perturbed: the typed label on a
/// [`EventKind::CauseLinked`] edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CauseReason {
    /// A control message was randomly dropped.
    MessageDrop,
    /// A control message was delivered late.
    MessageDelay,
    /// A partition (link- or fleet-level) ate the message.
    Partition,
    /// A lease-RPC round trip hit its retry timeout.
    RenewalTimeout,
    /// A lease lapsed, forcing the dependent sprint down.
    LeaseLapse,
    /// A coordinator crash triggered the effect.
    CoordinatorCrash,
}

impl CauseReason {
    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            CauseReason::MessageDrop => "message-drop",
            CauseReason::MessageDelay => "message-delay",
            CauseReason::Partition => "partition",
            CauseReason::RenewalTimeout => "renewal-timeout",
            CauseReason::LeaseLapse => "lease-lapse",
            CauseReason::CoordinatorCrash => "coordinator-crash",
        }
    }
}

/// Trace correlation state carried *beside* a simulated message: the
/// run's trace id plus the span the message belongs to. Pure
/// observation — the simulation never reads it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Run-wide trace id (derived from the root seed).
    pub trace: u64,
    /// Parent span the message is part of (0 = none).
    pub span: u64,
}

/// One reconstructed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id (unique within the trace).
    pub id: u64,
    /// Activity kind.
    pub kind: SpanKind,
    /// Node the span belongs to (coordinator index for terms,
    /// `u32::MAX` for fleet-global spans like partition windows).
    pub node: u32,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Virtual open time, microseconds.
    pub open_us: u64,
    /// Virtual close time, microseconds (>= `open_us`).
    pub close_us: u64,
    /// How it ended ([`SpanOutcome::Truncated`] when synthesized).
    pub outcome: SpanOutcome,
    /// Whether the close was synthesized at reconstruction.
    pub truncated: bool,
}

impl Span {
    /// Virtual duration, microseconds.
    pub fn duration_us(&self) -> u64 {
        self.close_us.saturating_sub(self.open_us)
    }
}

/// One reconstructed causal edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CauseLink {
    /// Virtual time the edge was recorded, microseconds.
    pub at_us: u64,
    /// Span that was perturbed.
    pub effect: u64,
    /// Span that caused it (0 = no recorded cause span; the reason is
    /// the root).
    pub cause: u64,
    /// Typed reason.
    pub reason: CauseReason,
}

/// One step of a rendered cause chain: a reason plus how many
/// consecutive links of that reason hit the same effect span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStep {
    /// The reason on this hop.
    pub reason: CauseReason,
    /// Consecutive same-reason links collapsed into this step.
    pub count: usize,
}

/// A cause chain walked backwards from a final effect span to its
/// root: `force-unsprint <- lease-lapse <- 3x renewal-timeout <-
/// partition`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CauseChain {
    /// The final effect span (chain head).
    pub effect: u64,
    /// The head span's kind.
    pub kind: SpanKind,
    /// Node the head span belongs to.
    pub node: u32,
    /// Steps, effect-first.
    pub steps: Vec<ChainStep>,
    /// The deepest cause span reached (0 = chain roots in a reason
    /// with no recorded span).
    pub anchor: u64,
    /// Kind of the anchor span, when present.
    pub anchor_kind: Option<SpanKind>,
}

impl CauseChain {
    /// The root cause: the reason on the deepest step.
    pub fn root_cause(&self) -> Option<CauseReason> {
        self.steps.last().map(|s| s.reason)
    }

    /// Renders the chain head label: forced unsprints read as
    /// `force-unsprint`, everything else as `kind:outcome`.
    pub fn head_label(&self, head_outcome: SpanOutcome) -> String {
        if self.kind == SpanKind::SprintEpisode && head_outcome.is_forced_unsprint() {
            "force-unsprint".to_string()
        } else {
            format!("{}:{}", self.kind.name(), head_outcome.name())
        }
    }

    /// Renders `head <- step <- ... <- anchor-kind`.
    pub fn render(&self, head_outcome: SpanOutcome) -> String {
        let mut parts = vec![self.head_label(head_outcome)];
        for s in &self.steps {
            if s.count > 1 {
                parts.push(format!("{}x {}", s.count, s.reason.name()));
            } else {
                parts.push(s.reason.name().to_string());
            }
        }
        if let Some(k) = self.anchor_kind {
            parts.push(k.name().to_string());
        }
        parts.join(" <- ")
    }
}

/// Exact per-kind duration statistics over the reconstructed spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKindStats {
    /// Span kind.
    pub kind: SpanKind,
    /// Spans of this kind.
    pub count: usize,
    /// Median virtual duration, microseconds.
    pub p50_us: u64,
    /// 99th-percentile virtual duration, microseconds.
    pub p99_us: u64,
    /// Longest virtual duration, microseconds.
    pub max_us: u64,
    /// Total virtual duration, microseconds.
    pub sum_us: u64,
}

/// One entry of the critical-path breakdown: a slow sprint decision and
/// the cause chain that explains it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPathEntry {
    /// The slow sprint-episode span.
    pub span: Span,
    /// Its cause chain, when any link targets it (directly or through
    /// its lease parent).
    pub chain: Option<CauseChain>,
}

/// The reconstructed causal graph of one run.
#[derive(Debug, Clone, Default)]
pub struct TraceGraph {
    spans: BTreeMap<u64, Span>,
    links: Vec<CauseLink>,
    /// Events evicted from the source rings (spans may be missing).
    pub dropped: u64,
    /// Close events whose open was never seen (evicted), skipped.
    pub orphan_closes: u64,
    /// Latest event time seen, microseconds (the truncation horizon).
    pub end_us: u64,
}

impl TraceGraph {
    /// Reconstructs the graph from recorded telemetry parts (e.g. the
    /// fleet recorder plus every per-node recorder). Total: never
    /// panics on truncated or disordered input.
    pub fn from_telemetry(parts: &[&RunTelemetry]) -> TraceGraph {
        let mut g = TraceGraph::default();
        for t in parts {
            g.dropped += t.dropped();
            for e in t.events() {
                g.end_us = g.end_us.max(e.at.0);
                match e.kind {
                    EventKind::SpanOpened {
                        span,
                        parent,
                        kind,
                        node,
                    } => {
                        g.spans.insert(
                            span,
                            Span {
                                id: span,
                                kind,
                                node,
                                parent,
                                open_us: e.at.0,
                                close_us: e.at.0,
                                outcome: SpanOutcome::Truncated,
                                truncated: true,
                            },
                        );
                    }
                    EventKind::SpanClosed { span, outcome } => match g.spans.get_mut(&span) {
                        Some(s) => {
                            s.close_us = s.open_us.max(e.at.0);
                            s.outcome = outcome;
                            s.truncated = false;
                        }
                        None => g.orphan_closes += 1,
                    },
                    EventKind::CauseLinked {
                        effect,
                        cause,
                        reason,
                    } => g.links.push(CauseLink {
                        at_us: e.at.0,
                        effect,
                        cause,
                        reason,
                    }),
                    _ => {}
                }
            }
        }
        // Spans never closed (still open, or close evicted): close at
        // the horizon with the truncated marker.
        let end = g.end_us;
        for s in g.spans.values_mut() {
            if s.truncated {
                s.close_us = end.max(s.open_us);
            }
        }
        g
    }

    /// All spans, id-ascending.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.values()
    }

    /// Number of reconstructed spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the graph holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Looks up one span.
    pub fn span(&self, id: u64) -> Option<&Span> {
        self.spans.get(&id)
    }

    /// All cause links, in recording order.
    pub fn links(&self) -> &[CauseLink] {
        &self.links
    }

    fn incoming(&self, span: u64) -> Vec<&CauseLink> {
        self.links.iter().filter(|l| l.effect == span).collect()
    }

    /// Walks one chain backwards from `head`. Cycles are broken by a
    /// visited set; a missing cause span terminates the walk.
    fn walk(&self, head: u64) -> CauseChain {
        let (kind, node) = self
            .spans
            .get(&head)
            .map_or((SpanKind::SprintEpisode, u32::MAX), |s| (s.kind, s.node));
        let mut chain = CauseChain {
            effect: head,
            kind,
            node,
            steps: Vec::new(),
            anchor: 0,
            anchor_kind: None,
        };
        let mut visited = BTreeSet::new();
        visited.insert(head);
        let mut current = head;
        loop {
            let incoming = self.incoming(current);
            if incoming.is_empty() {
                break;
            }
            // Collapse consecutive same-reason links into counted steps.
            for l in &incoming {
                match chain.steps.last_mut() {
                    Some(step) if step.reason == l.reason => step.count += 1,
                    _ => chain.steps.push(ChainStep {
                        reason: l.reason,
                        count: 1,
                    }),
                }
            }
            // Descend into the deepest recorded cause span not yet
            // visited. Prefer a cause that itself has recorded causes
            // (it explains further back), and among those the latest:
            // e.g. of five timed-out renewals, follow one whose drop
            // was attributed to a partition, not one the coordinator
            // merely ignored. Fall back to the latest cause span.
            let explains = |span: u64| self.links.iter().any(|l| l.effect == span);
            let candidates: Vec<u64> = incoming
                .iter()
                .rev()
                .filter(|l| l.cause != 0 && !visited.contains(&l.cause))
                .map(|l| l.cause)
                .collect();
            let next = candidates
                .iter()
                .find(|&&c| explains(c))
                .or_else(|| candidates.first())
                .copied();
            match next {
                Some(c) => {
                    visited.insert(c);
                    chain.anchor = c;
                    chain.anchor_kind = self.spans.get(&c).map(|s| s.kind);
                    current = c;
                }
                None => break,
            }
        }
        chain
    }

    /// All cause chains: one per *head* span — a span that appears as
    /// an effect but never as a cause — id-ascending.
    pub fn chains(&self) -> Vec<CauseChain> {
        let causes: BTreeSet<u64> = self.links.iter().map(|l| l.cause).collect();
        let heads: BTreeSet<u64> = self
            .links
            .iter()
            .map(|l| l.effect)
            .filter(|e| !causes.contains(e))
            .collect();
        heads.into_iter().map(|h| self.walk(h)).collect()
    }

    /// The most frequent root cause across all chains (ties broken by
    /// reason order, so the answer is deterministic).
    pub fn dominant_root_cause(&self) -> Option<CauseReason> {
        let mut counts: BTreeMap<CauseReason, usize> = BTreeMap::new();
        for chain in self.chains() {
            if let Some(r) = chain.root_cause() {
                *counts.entry(r).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(r, n)| (n, std::cmp::Reverse(r)))
            .map(|(r, _)| r)
    }

    /// Exact duration statistics per span kind (kinds with no spans are
    /// omitted), in [`SpanKind::ALL`] order.
    pub fn kind_stats(&self) -> Vec<SpanKindStats> {
        let mut out = Vec::new();
        for kind in SpanKind::ALL {
            let mut durs: Vec<u64> = self
                .spans
                .values()
                .filter(|s| s.kind == kind)
                .map(Span::duration_us)
                .collect();
            if durs.is_empty() {
                continue;
            }
            durs.sort_unstable();
            let q = |p: f64| -> u64 {
                let idx = ((p * durs.len() as f64).ceil() as usize).clamp(1, durs.len()) - 1;
                durs[idx]
            };
            out.push(SpanKindStats {
                kind,
                count: durs.len(),
                p50_us: q(0.50),
                p99_us: q(0.99),
                max_us: durs[durs.len() - 1],
                sum_us: durs.iter().sum(),
            });
        }
        out
    }

    /// The `top` slowest sprint episodes with the chain that explains
    /// each (directly, or through the episode's parent span).
    pub fn critical_path(&self, top: usize) -> Vec<CriticalPathEntry> {
        let mut episodes: Vec<&Span> = self
            .spans
            .values()
            .filter(|s| s.kind == SpanKind::SprintEpisode)
            .collect();
        episodes.sort_by_key(|s| (std::cmp::Reverse(s.duration_us()), s.id));
        episodes
            .into_iter()
            .take(top)
            .map(|s| {
                let direct = !self.incoming(s.id).is_empty();
                let via_parent = s.parent != 0 && !self.incoming(s.parent).is_empty();
                let chain = if direct {
                    Some(self.walk(s.id))
                } else if via_parent {
                    Some(self.walk(s.parent))
                } else {
                    None
                };
                CriticalPathEntry { span: *s, chain }
            })
            .collect()
    }

    /// Renders the root-cause table: one row per chain, head-span
    /// label, node, and the rendered chain.
    pub fn root_cause_table(&self) -> String {
        let mut t = TextTable::new(vec!["span", "node", "root cause", "chain"]);
        for chain in self.chains() {
            let outcome = self
                .span(chain.effect)
                .map_or(SpanOutcome::Truncated, |s| s.outcome);
            t.row(vec![
                format!("#{}", chain.effect),
                if chain.node == u32::MAX {
                    "-".to_string()
                } else {
                    chain.node.to_string()
                },
                chain
                    .root_cause()
                    .map_or("-", CauseReason::name)
                    .to_string(),
                chain.render(outcome),
            ]);
        }
        t.render()
    }

    /// Renders the per-span-kind virtual-latency table.
    pub fn latency_table(&self) -> String {
        let mut t = TextTable::new(vec!["span kind", "count", "p50", "p99", "max"]);
        for s in self.kind_stats() {
            t.row(vec![
                s.kind.name().to_string(),
                s.count.to_string(),
                format!("{:.3}s", s.p50_us as f64 / 1e6),
                format!("{:.3}s", s.p99_us as f64 / 1e6),
                format!("{:.3}s", s.max_us as f64 / 1e6),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use simcore::time::SimTime;

    fn open(rec: &mut FlightRecorder, t: u64, span: u64, parent: u64, kind: SpanKind, node: u32) {
        rec.record(
            SimTime(t),
            EventKind::SpanOpened {
                span,
                parent,
                kind,
                node,
            },
        );
    }

    fn close(rec: &mut FlightRecorder, t: u64, span: u64, outcome: SpanOutcome) {
        rec.record(SimTime(t), EventKind::SpanClosed { span, outcome });
    }

    fn link(rec: &mut FlightRecorder, t: u64, effect: u64, cause: u64, reason: CauseReason) {
        rec.record(
            SimTime(t),
            EventKind::CauseLinked {
                effect,
                cause,
                reason,
            },
        );
    }

    #[test]
    fn reconstructs_the_split_brain_shape() {
        let mut rec = FlightRecorder::new(64);
        // partition window -> rpc timeouts -> lease lapse -> unsprint.
        open(&mut rec, 10, 900, 0, SpanKind::PartitionWindow, u32::MAX);
        open(&mut rec, 20, 100, 0, SpanKind::LeaseLifecycle, 7);
        open(&mut rec, 25, 500, 100, SpanKind::SprintEpisode, 7);
        for i in 0..3u64 {
            let rpc = 200 + i;
            open(&mut rec, 30 + i, rpc, 100, SpanKind::ControlRpc, 7);
            link(&mut rec, 31 + i, rpc, 900, CauseReason::Partition);
            close(&mut rec, 32 + i, rpc, SpanOutcome::TimedOut);
            link(&mut rec, 32 + i, 100, rpc, CauseReason::RenewalTimeout);
        }
        close(&mut rec, 80, 100, SpanOutcome::Lapsed);
        link(&mut rec, 80, 500, 100, CauseReason::LeaseLapse);
        close(&mut rec, 80, 500, SpanOutcome::LeaseLapsed);
        close(&mut rec, 160, 900, SpanOutcome::Healed);
        let t = rec.finish();
        let g = TraceGraph::from_telemetry(&[&t]);
        assert_eq!(g.len(), 6);
        let chains = g.chains();
        assert_eq!(chains.len(), 1, "one head: the sprint episode");
        let c = &chains[0];
        assert_eq!(c.effect, 500);
        assert_eq!(c.root_cause(), Some(CauseReason::Partition));
        assert_eq!(c.anchor, 900);
        assert_eq!(c.anchor_kind, Some(SpanKind::PartitionWindow));
        let rendered = c.render(SpanOutcome::LeaseLapsed);
        assert_eq!(
            rendered,
            "force-unsprint <- lease-lapse <- 3x renewal-timeout <- partition <- partition-window"
        );
        assert_eq!(g.dominant_root_cause(), Some(CauseReason::Partition));
    }

    #[test]
    fn chains_without_cause_spans_root_in_the_reason() {
        let mut rec = FlightRecorder::new(16);
        open(&mut rec, 5, 42, 0, SpanKind::SprintEpisode, 0);
        link(&mut rec, 6, 42, 0, CauseReason::MessageDrop);
        link(&mut rec, 7, 42, 0, CauseReason::MessageDrop);
        close(&mut rec, 9, 42, SpanOutcome::Watchdog);
        let t = rec.finish();
        let g = TraceGraph::from_telemetry(&[&t]);
        let chains = g.chains();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].root_cause(), Some(CauseReason::MessageDrop));
        assert_eq!(
            chains[0].render(SpanOutcome::Watchdog),
            "force-unsprint <- 2x message-drop"
        );
        assert_eq!(g.dominant_root_cause(), Some(CauseReason::MessageDrop));
    }

    #[test]
    fn open_spans_truncate_at_the_horizon() {
        let mut rec = FlightRecorder::new(16);
        open(&mut rec, 10, 1, 0, SpanKind::SprintEpisode, 0);
        open(&mut rec, 20, 2, 0, SpanKind::LeaseLifecycle, 0);
        close(&mut rec, 50, 2, SpanOutcome::Released);
        let t = rec.finish();
        let g = TraceGraph::from_telemetry(&[&t]);
        let s = g.span(1).unwrap();
        assert!(s.truncated);
        assert_eq!(s.outcome, SpanOutcome::Truncated);
        assert_eq!(s.close_us, 50, "truncated spans close at the horizon");
        assert!(!g.span(2).unwrap().truncated);
    }

    #[test]
    fn cyclic_links_terminate() {
        let mut rec = FlightRecorder::new(16);
        open(&mut rec, 1, 1, 0, SpanKind::ControlRpc, 0);
        open(&mut rec, 2, 2, 0, SpanKind::ControlRpc, 0);
        link(&mut rec, 3, 1, 2, CauseReason::MessageDrop);
        link(&mut rec, 4, 2, 1, CauseReason::MessageDrop);
        let t = rec.finish();
        let g = TraceGraph::from_telemetry(&[&t]);
        // Both spans are causes, so neither is a head; the walk itself
        // must terminate if invoked directly.
        assert!(g.chains().is_empty());
        let c = g.walk(1);
        assert!(c.steps.len() <= 2);
    }

    /// Satellite: a 100-node trace storm through a tiny ring. Oldest
    /// events evict first, spans whose close was evicted come back
    /// truncated, reconstruction never panics and stays bounded.
    #[test]
    fn hundred_node_trace_storm_truncates_cleanly() {
        let mut rec = FlightRecorder::new(64);
        let nodes = 100u64;
        for n in 0..nodes {
            let span = (n + 1) << 32;
            open(&mut rec, n * 10, span, 0, SpanKind::SprintEpisode, n as u32);
            // Only even nodes ever close; odd spans stay open forever.
            if n % 2 == 0 {
                close(&mut rec, n * 10 + 5, span, SpanOutcome::Completed);
            }
        }
        let t = rec.finish();
        assert!(t.dropped() > 0, "the storm must overflow the ring");
        assert_eq!(t.events().len(), 64);
        let g = TraceGraph::from_telemetry(&[&t]);
        assert!(g.dropped > 0);
        assert!(g.len() <= 64, "reconstruction is bounded by the ring");
        // Closes whose open was evicted are counted, not resurrected.
        assert!(g.orphan_closes > 0 || g.spans.values().all(|s| s.open_us > 0));
        // Every surviving odd-node span is truncated at the horizon.
        for s in g.spans() {
            if s.node % 2 == 1 {
                assert!(s.truncated);
                assert_eq!(s.outcome, SpanOutcome::Truncated);
                assert_eq!(s.close_us, g.end_us);
            }
            assert!(s.close_us >= s.open_us);
        }
    }

    #[test]
    fn kind_stats_and_tables_render() {
        let mut rec = FlightRecorder::new(64);
        for i in 0..10u64 {
            open(&mut rec, i * 100, i + 1, 0, SpanKind::SprintEpisode, 0);
            close(
                &mut rec,
                i * 100 + (i + 1) * 10,
                i + 1,
                SpanOutcome::Completed,
            );
        }
        let t = rec.finish();
        let g = TraceGraph::from_telemetry(&[&t]);
        let stats = g.kind_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].count, 10);
        assert_eq!(stats[0].max_us, 100);
        assert_eq!(stats[0].p50_us, 50);
        assert_eq!(stats[0].p99_us, 100);
        let cp = g.critical_path(3);
        assert_eq!(cp.len(), 3);
        assert_eq!(cp[0].span.duration_us(), 100);
        assert!(cp[0].chain.is_none());
        assert!(g.latency_table().contains("sprint-episode"));
        assert!(g.root_cause_table().lines().count() >= 2);
    }
}
