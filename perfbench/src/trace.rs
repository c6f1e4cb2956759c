//! In-memory spans around the benchmark's own calls into each crate.
//!
//! A span records its name, start, end, parent and the op it belongs
//! to. Spans stay in memory until the run ends; [`Summary`] then folds
//! them into per-name totals and self times (a span's duration minus
//! the part of it that its children cover).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use profiler::{Condition, WorkloadProfile};
use sprint_core::{HybridModel, ResponseTimeModel};

use crate::layers::{INFER, PREDICT};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The public call the span wraps.
    pub name: &'static str,
    /// Op the span belongs to; 0 is set-up.
    pub op: u32,
    /// Unique within the run.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Span and count store for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: AtomicU32,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<(u32, &'static str, f64)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            op: AtomicU32::new(0),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Starts op `op` (1-based); later spans and counts belong to it.
    pub fn begin_op(&self, op: u32) {
        self.op.store(op, Ordering::Relaxed);
    }

    /// A context for recording top-level spans of the current op.
    pub fn ctx(&self) -> Ctx<'_> {
        Ctx {
            tracer: Some(self),
            parent: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Folds everything recorded so far.
    pub fn summary(&self) -> Summary {
        let spans = self.spans.lock().expect("span store poisoned").clone();
        let counts = self.counts.lock().expect("count store poisoned").clone();
        Summary::new(&spans, &counts)
    }
}

/// Where a span or count is recorded: the tracer (or none, when the
/// run is untraced) and the enclosing span. `Copy`, so scoped worker
/// threads can each take one.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'t> {
    tracer: Option<&'t Tracer>,
    parent: Option<u32>,
}

impl Ctx<'static> {
    /// A context that records nothing.
    pub fn off() -> Ctx<'static> {
        Ctx {
            tracer: None,
            parent: None,
        }
    }
}

impl<'t> Ctx<'t> {
    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs `f` inside a span named `name`; `f` gets the context for
    /// child spans.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Ctx<'t>) -> R) -> R {
        let Some(t) = self.tracer else {
            return f(self);
        };
        let id = t.next_id.fetch_add(1, Ordering::Relaxed);
        let op = t.op.load(Ordering::Relaxed);
        let start_ns = t.now_ns();
        let out = f(Ctx {
            tracer: Some(t),
            parent: Some(id),
        });
        let end_ns = t.now_ns();
        t.spans.lock().expect("span store poisoned").push(Span {
            name,
            op,
            id,
            parent: self.parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Adds `value` to the count `name` of the current op.
    pub fn count(self, name: &'static str, value: f64) {
        if let Some(t) = self.tracer {
            let op = t.op.load(Ordering::Relaxed);
            t.counts
                .lock()
                .expect("count store poisoned")
                .push((op, name, value));
        }
    }

    /// Runs `f`, recording the deltas of the obs registry counters it
    /// moves (the registry is enabled only in traced runs).
    pub fn count_obs<R>(self, f: impl FnOnce() -> R) -> R {
        if !self.on() {
            return f();
        }
        let before = obs_counters();
        let out = f();
        let after = obs_counters();
        for (i, name) in OBS_COUNTERS.into_iter().enumerate() {
            self.count(name, (after[i] - before[i]) as f64);
        }
        out
    }
}

/// The obs registry counters the per-layer metrics read, in
/// [`obs_counters`] order.
const OBS_COUNTERS: [&str; 5] = [
    "obs.sim_evals",
    "obs.memo_hits",
    "obs.memo_misses",
    "obs.trace_cache_hits",
    "obs.trace_cache_misses",
];

fn obs_counters() -> [u64; 5] {
    let g = obs::global();
    [
        g.sim_evals.get(),
        g.memo_hits.get(),
        g.memo_misses.get(),
        g.trace_cache_hits.get(),
        g.trace_cache_misses.get(),
    ]
}

/// Per-name totals over a run's spans and counts.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Ops (excluding set-up) that recorded anything.
    pub ops: usize,
    /// Per span name: calls, total ns, self ns — over ops only.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Per span name, set-up (op 0) only.
    pub setup_spans: BTreeMap<&'static str, SpanTotals>,
    /// Per count name, summed over ops.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per count name, the value the last op recorded.
    pub last: BTreeMap<&'static str, f64>,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: f64,
    /// Sum of self times, ns.
    pub self_ns: f64,
}

impl Summary {
    fn new(spans: &[Span], counts: &[(u32, &'static str, f64)]) -> Summary {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = Summary::default();
        let mut ops = std::collections::BTreeSet::new();
        for s in spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            let dur = s.end_ns - s.start_ns;
            let map = if s.op == 0 {
                &mut out.setup_spans
            } else {
                ops.insert(s.op);
                &mut out.spans
            };
            let t = map.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += dur as f64;
            t.self_ns += (dur - covered) as f64;
        }
        for &(op, name, v) in counts {
            if op != 0 {
                ops.insert(op);
                *out.counts.entry(name).or_default() += v;
                out.last.insert(name, v);
            }
        }
        out.ops = ops.len();
        out
    }

    /// Mean duration of one `name` span, ns (0 when never recorded).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |t| t.total_ns / t.calls.max(1) as f64)
    }

    /// Share of all self time spent in each span name, largest first.
    pub fn self_shares(&self) -> Vec<(&'static str, f64)> {
        let total: f64 = self.spans.values().map(|t| t.self_ns).sum();
        let mut shares: Vec<_> = self
            .spans
            .iter()
            .map(|(&n, t)| (n, if total > 0.0 { t.self_ns / total } else { 0.0 }))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let (mut covered, mut cur) = (0, None::<(u64, u64)>);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    covered + cur.map_or(0, |(s, e)| e - s)
}

/// A [`HybridModel`] whose predictions are timed: one span around
/// `effective_rate_qph` (the forest inference) and one around
/// `predict_response_secs` (memo, CRN trace and queue simulation).
pub struct TracedModel<'a> {
    inner: &'a HybridModel,
    ctx: Ctx<'a>,
}

impl<'a> TracedModel<'a> {
    /// Wraps `inner`, recording spans under `ctx`.
    pub fn new(inner: &'a HybridModel, ctx: Ctx<'a>) -> TracedModel<'a> {
        TracedModel { inner, ctx }
    }
}

impl ResponseTimeModel for TracedModel<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict_response_secs(&self, cond: &Condition) -> f64 {
        self.ctx.span(INFER, |_| {
            std::hint::black_box(self.inner.effective_rate_qph(cond))
        });
        self.ctx
            .span(PREDICT, |_| self.inner.predict_response_secs(cond))
    }

    fn profile(&self) -> &WorkloadProfile {
        self.inner.profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: if parent.is_none() { "root" } else { "child" },
            op: 1,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100; children 10..40 and 30..60 (two threads) and
        // 90..120 (clipped to 90..100): 60 ns covered, 40 ns self.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 90, 120),
        ];
        let s = Summary::new(&spans, &[]);
        assert_eq!(s.spans["root"].self_ns, 40.0);
        assert_eq!(s.spans["child"].calls, 3);
        assert_eq!(s.spans["child"].total_ns, 90.0);
        assert_eq!(s.spans["child"].self_ns, 90.0);
        let shares = s.self_shares();
        assert_eq!(shares[0].0, "child");
        assert!((shares[0].1 - 90.0 / 130.0).abs() < 1e-12);
    }

    #[test]
    fn setup_spans_and_counts_stay_out_of_per_op_figures() {
        let mut setup = span(0, None, 0, 50);
        setup.op = 0;
        let s = Summary::new(
            &[setup, span(1, None, 0, 2_000_000)],
            &[(0, "n", 7.0), (1, "n", 3.0), (2, "n", 5.0)],
        );
        assert_eq!(s.ops, 2);
        assert_eq!(s.setup_spans["root"].total_ns, 50.0);
        assert_eq!(s.mean_ns("root"), 2_000_000.0);
        assert_eq!(s.counts["n"], 8.0);
        assert_eq!(s.last["n"], 5.0);
    }

    #[test]
    fn spans_nest_across_scoped_threads_and_off_records_nothing() {
        let t = Tracer::default();
        t.begin_op(1);
        t.ctx().span("root", |ctx| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(move || ctx.span("child", |_| ()));
                }
            });
            ctx.count("n", 1.0);
        });
        let spans = t.spans.lock().unwrap().clone();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "child")
            .all(|s| s.parent == Some(root.id) && s.op == 1));
        assert_eq!(t.summary().counts["n"], 1.0);
        assert!(!Ctx::off().span("x", |c| c.on()));
    }
}
