//! Schema snapshot: pins the exact JSONL/JSON shapes the telemetry
//! export emits (event lines, telemetry envelope, metrics snapshot) against
//! committed fixtures. Any field rename, reorder, or format change
//! fails here first, making export-schema drift a reviewed decision
//! instead of an accident.

use obs::{
    AdmissionMode, BreakerLevel, CauseReason, CounterSnapshot, EventKind, FlightRecorder,
    HistogramSnapshot, MetricsSnapshot, SpanKind, SpanOutcome, UnsprintReason,
};
use simcore::json::Json;
use simcore::time::SimTime;

/// One event of every [`EventKind`] variant, with fixed field values.
///
/// Keep in sync with [`every_variant_is_constructed`] below — that
/// match statement fails to compile when a variant is added, forcing
/// both this list and the committed fixture to be extended.
fn all_kinds() -> Vec<EventKind> {
    vec![
        EventKind::SprintEngaged {
            slot: 0,
            stuck: false,
        },
        EventKind::SprintEngageFailed { slot: 1 },
        EventKind::SprintEnded {
            slot: 0,
            reason: UnsprintReason::BudgetDry,
        },
        EventKind::WatchdogFired { slot: 2 },
        EventKind::SlotCrashed { slot: 1, query: 42 },
        EventKind::SlotRestartScheduled {
            slot: 1,
            delay_micros: 250_000,
        },
        EventKind::SlotUp { slot: 1 },
        EventKind::SlotQuarantined { slot: 3 },
        EventKind::QueryShed {
            query: 43,
            queue_depth: 9,
        },
        EventKind::QueryRejected {
            query: 44,
            queue_depth: 12,
        },
        EventKind::AdmissionModeChanged {
            from: AdmissionMode::Normal,
            to: AdmissionMode::Shedding,
        },
        EventKind::QueueDepth { depth: 5 },
        EventKind::BreakerTransition {
            from: BreakerLevel::FullModel,
            to: BreakerLevel::StaleModel,
        },
        EventKind::ThermalEmergency { unsprinted: 2 },
        EventKind::MessageDelayed {
            from: 1,
            to: 0,
            delay_micros: 30_000_000,
        },
        EventKind::MessageDropped {
            from: 2,
            to: 0,
            partitioned: true,
        },
        EventKind::MessageDuplicated {
            from: 2,
            to: 0,
            delay_micros: 1_500_000,
        },
        EventKind::LeaseGranted {
            node: 7,
            epoch: 2,
            power: 1,
        },
        EventKind::LeaseExpired { node: 7, epoch: 2 },
        EventKind::LeaseReleased { node: 8, epoch: 2 },
        EventKind::CoordinatorCrashed { coordinator: 0 },
        EventKind::CoordinatorElected {
            coordinator: 1,
            epoch: 3,
        },
        EventKind::FleetDegradationSample {
            sprintable: 5,
            stale: 1,
            no_sprint: 2,
        },
        EventKind::SpanOpened {
            span: 4_294_967_297,
            parent: 17,
            kind: SpanKind::LeaseLifecycle,
            node: 7,
        },
        EventKind::SpanClosed {
            span: 4_294_967_297,
            outcome: SpanOutcome::Lapsed,
        },
        EventKind::CauseLinked {
            effect: 4_294_967_297,
            cause: 17,
            reason: CauseReason::RenewalTimeout,
        },
    ]
}

/// Compile-time tripwire: adding an [`EventKind`] variant makes this
/// match non-exhaustive, pointing whoever adds it at [`all_kinds`] and
/// the fixture.
#[allow(dead_code)]
fn every_variant_is_constructed(kind: &EventKind) {
    match kind {
        EventKind::SprintEngaged { .. }
        | EventKind::SprintEngageFailed { .. }
        | EventKind::SprintEnded { .. }
        | EventKind::WatchdogFired { .. }
        | EventKind::SlotCrashed { .. }
        | EventKind::SlotRestartScheduled { .. }
        | EventKind::SlotUp { .. }
        | EventKind::SlotQuarantined { .. }
        | EventKind::QueryShed { .. }
        | EventKind::QueryRejected { .. }
        | EventKind::AdmissionModeChanged { .. }
        | EventKind::QueueDepth { .. }
        | EventKind::BreakerTransition { .. }
        | EventKind::ThermalEmergency { .. }
        | EventKind::MessageDelayed { .. }
        | EventKind::MessageDropped { .. }
        | EventKind::MessageDuplicated { .. }
        | EventKind::LeaseGranted { .. }
        | EventKind::LeaseExpired { .. }
        | EventKind::LeaseReleased { .. }
        | EventKind::CoordinatorCrashed { .. }
        | EventKind::CoordinatorElected { .. }
        | EventKind::FleetDegradationSample { .. }
        | EventKind::SpanOpened { .. }
        | EventKind::SpanClosed { .. }
        | EventKind::CauseLinked { .. } => {}
    }
}

fn telemetry_with_all_kinds() -> obs::RunTelemetry {
    let mut rec = FlightRecorder::new(64);
    for (i, kind) in all_kinds().into_iter().enumerate() {
        rec.record(SimTime::from_secs(i as u64), kind);
    }
    rec.finish()
}

#[test]
fn event_jsonl_matches_committed_fixture() {
    let actual = telemetry_with_all_kinds().to_jsonl();
    if std::env::var("UPDATE_FIXTURES").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/events.jsonl");
        std::fs::write(path, &actual).expect("write fixture");
        return;
    }
    let expected = include_str!("fixtures/events.jsonl");
    assert_eq!(
        actual, expected,
        "event JSONL schema drifted from tests/fixtures/events.jsonl; \
         if the change is intentional, regenerate with UPDATE_FIXTURES=1"
    );
}

#[test]
fn fixture_covers_every_event_name_once() {
    let fixture = include_str!("fixtures/events.jsonl");
    assert_eq!(fixture.lines().count(), all_kinds().len());
    for kind in all_kinds() {
        let needle = format!("\"event\": \"{}\"", kind.name());
        assert_eq!(
            fixture.matches(&needle).count(),
            1,
            "fixture must contain exactly one {} line",
            kind.name()
        );
    }
}

#[test]
fn telemetry_envelope_keys_are_pinned() {
    let t = telemetry_with_all_kinds();
    let json = t.to_json();
    for key in ["capacity", "dropped", "events"] {
        assert!(json.get(key).is_some(), "telemetry envelope lost `{key}`");
    }
    let events = json.field("events").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), all_kinds().len());
    // Every event line is parseable JSON with the three required keys.
    for line in t.to_jsonl().lines() {
        let parsed = Json::parse(line).unwrap();
        for key in ["t_us", "seq", "event"] {
            assert!(parsed.get(key).is_some(), "event line lost `{key}`");
        }
    }
}

#[test]
fn metrics_snapshot_json_shape_is_pinned() {
    // Hand-built snapshot: wall-clock timer values never appear, only
    // the structure is pinned.
    let snap = MetricsSnapshot {
        counters: vec![CounterSnapshot {
            name: "qsim_runs",
            value: 3,
        }],
        histograms: vec![HistogramSnapshot {
            name: "predict_us",
            count: 2,
            sum: 300,
            buckets: vec![(128, 1), (256, 1)],
        }],
    };
    let expected = include_str!("fixtures/metrics.json");
    assert_eq!(
        snap.to_json().to_string_pretty() + "\n",
        expected,
        "metrics snapshot JSON shape drifted from tests/fixtures/metrics.json; \
         if the change is intentional, update the fixture"
    );
}
