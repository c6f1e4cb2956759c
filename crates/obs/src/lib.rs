//! Zero-dependency telemetry for the sprint stack.
//!
//! Two independent instruments, both off by default:
//!
//! - [`FlightRecorder`]: a bounded, virtual-time-stamped structured
//!   event log ([`Event`]) of control-plane decisions — sprint
//!   engage/abort/unsprint, breaker transitions, watchdog
//!   force-unsprints, slot crash/restart/quarantine, shed/reject
//!   admissions, queue-depth samples. The recorder is a pure
//!   *observer*: it never draws randomness, never schedules events,
//!   and only stores integers, so a recorded run is bit-identical to
//!   an unrecorded one and the log itself replays bit-for-bit from a
//!   seed. A finished recorder snapshots into [`RunTelemetry`].
//! - [`metrics`]: a process-wide registry of hand-rolled atomic
//!   counters and log₂-bucketed histograms (no floats on the
//!   increment path). Its 11 families ([`FAMILY_NAMES`]) cover the
//!   prediction fast path — trace-cache and prediction-memo hit
//!   rates, simulator evaluations, annealing evaluation counts,
//!   forest inference timings — plus sprint engages and fleet lease
//!   renewals and expiries. Disabled (the default), every increment is
//!   a single relaxed atomic load; wall-clock timers are only started
//!   when enabled. The `bench` crate's `metric_families` test fails if
//!   a family goes missing or stops firing.
//!
//! Export goes through `simcore::json`: [`RunTelemetry::to_jsonl`]
//! dumps one event per line, [`metrics::MetricsSnapshot::to_json`]
//! serializes the registry, and [`render_timeline`] renders the text
//! timeline the `fig1_timeline` bin prints.

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use event::{render_timeline, AdmissionMode, BreakerLevel, Event, EventKind, UnsprintReason};
pub use metrics::{
    global, is_enabled, set_enabled, start_timer, Counter, CounterSnapshot, Histogram,
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, FAMILY_NAMES, HISTOGRAM_BUCKETS,
};
pub use recorder::{FlightRecorder, RunTelemetry};
pub use trace::{
    CauseChain, CauseLink, CauseReason, CriticalPathEntry, Span, SpanKind, SpanKindStats,
    SpanOutcome, TraceCtx, TraceGraph,
};
