//! Hand-rolled process-wide metrics: atomic counters and
//! log₂-bucketed histograms.
//!
//! The registry is **disabled by default**: every increment first does
//! one relaxed atomic load and returns, so instrumented hot paths cost
//! one predictable branch when telemetry is off, and wall-clock timers
//! ([`start_timer`]) are only created when it is on. Increments are
//! pure integer operations — histogram values are microseconds /
//! nanoseconds / counts as `u64`, bucketed by leading-zero count — so
//! no float math ever runs on the increment path.
//!
//! Metric values are *observational* (some record wall-clock
//! durations) and are deliberately kept out of every determinism
//! contract: nothing in the simulators reads them back.

use simcore::json::Json;
use simcore::table::TextTable;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on or off process-wide (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric collection is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a wall-clock timer if metrics are enabled; `None` otherwise.
/// Pair with [`Histogram::record_elapsed_ns`].
pub fn start_timer() -> Option<Instant> {
    if is_enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// A monotone event counter. Increments are relaxed atomics gated on
/// the global enable flag.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets: bucket 0 holds exactly zero, bucket `i ≥ 1`
/// holds `2^(i-1) ≤ v < 2^i`, and the last bucket absorbs overflow.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A histogram over `u64` values with logarithmic (power-of-two)
/// buckets. Recording a value is an integer leading-zeros computation
/// plus two relaxed atomic adds — no floats.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 for 0, `floor(log2(v)) + 1`
    /// otherwise, saturating at the last bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Exclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            1
        } else if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if !is_enabled() {
            return;
        }
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since a [`start_timer`] call
    /// (no-op when the timer was never started, i.e. metrics were off).
    #[inline]
    pub fn record_elapsed_ns(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &'static str) -> HistogramSnapshot {
        HistogramSnapshot {
            name,
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let c = b.load(Ordering::Relaxed);
                    (c > 0).then_some((Self::bucket_bound(i), c))
                })
                .collect(),
        }
    }
}

/// The fixed set of metric families the stack registers. The `bench`
/// crate's `metric_families` test runs a workload that must make every
/// family appear in the snapshot and fire, so the list, the registry
/// and the instrumentation hooks cannot drift apart.
pub const FAMILY_NAMES: &[&str] = &[
    "trace_cache_hits",
    "trace_cache_misses",
    "memo_hits",
    "memo_misses",
    "sim_evals",
    "anneal_searches",
    "anneal_candidates",
    "forest_infer_ns",
    "sprints_engaged",
    "lease_renewals",
    "lease_expiries",
];

/// The process-wide registry of prediction-path metrics. All fields
/// are lock-free; reach it through [`global`].
#[derive(Debug)]
pub struct MetricsRegistry {
    /// CRN trace-cache lookups served from cache.
    pub trace_cache_hits: Counter,
    /// CRN trace-cache lookups that materialized a fresh trace.
    pub trace_cache_misses: Counter,
    /// Prediction-memo lookups served from the memo.
    pub memo_hits: Counter,
    /// Prediction-memo lookups that ran the simulator.
    pub memo_misses: Counter,
    /// Full simulator evaluations (each is `replications` runs).
    pub sim_evals: Counter,
    /// Annealing searches started.
    pub anneal_searches: Counter,
    /// Candidate timeouts evaluated across all searches;
    /// `sim_evals / anneal_candidates` is the evals-per-candidate rate
    /// (below 1.0 once the memo starts hitting).
    pub anneal_candidates: Counter,
    /// Random-forest inference time (ns per call).
    pub forest_infer_ns: Histogram,
    /// Sprints engaged by the testbed server.
    pub sprints_engaged: Counter,
    /// Fleet lease renewals granted.
    pub lease_renewals: Counter,
    /// Fleet lease expiries — each one a fail-safe unsprint window.
    pub lease_expiries: Counter,
}

impl MetricsRegistry {
    fn new() -> MetricsRegistry {
        MetricsRegistry {
            trace_cache_hits: Counter::default(),
            trace_cache_misses: Counter::default(),
            memo_hits: Counter::default(),
            memo_misses: Counter::default(),
            sim_evals: Counter::default(),
            anneal_searches: Counter::default(),
            anneal_candidates: Counter::default(),
            forest_infer_ns: Histogram::new(),
            sprints_engaged: Counter::default(),
            lease_renewals: Counter::default(),
            lease_expiries: Counter::default(),
        }
    }

    /// Zeroes every family (benchmark/test hygiene).
    pub fn reset(&self) {
        self.trace_cache_hits.reset();
        self.trace_cache_misses.reset();
        self.memo_hits.reset();
        self.memo_misses.reset();
        self.sim_evals.reset();
        self.anneal_searches.reset();
        self.anneal_candidates.reset();
        self.forest_infer_ns.reset();
        self.sprints_engaged.reset();
        self.lease_renewals.reset();
        self.lease_expiries.reset();
    }

    /// A point-in-time copy of every family, in [`FAMILY_NAMES`] order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                CounterSnapshot {
                    name: "trace_cache_hits",
                    value: self.trace_cache_hits.get(),
                },
                CounterSnapshot {
                    name: "trace_cache_misses",
                    value: self.trace_cache_misses.get(),
                },
                CounterSnapshot {
                    name: "memo_hits",
                    value: self.memo_hits.get(),
                },
                CounterSnapshot {
                    name: "memo_misses",
                    value: self.memo_misses.get(),
                },
                CounterSnapshot {
                    name: "sim_evals",
                    value: self.sim_evals.get(),
                },
                CounterSnapshot {
                    name: "anneal_searches",
                    value: self.anneal_searches.get(),
                },
                CounterSnapshot {
                    name: "anneal_candidates",
                    value: self.anneal_candidates.get(),
                },
                CounterSnapshot {
                    name: "sprints_engaged",
                    value: self.sprints_engaged.get(),
                },
                CounterSnapshot {
                    name: "lease_renewals",
                    value: self.lease_renewals.get(),
                },
                CounterSnapshot {
                    name: "lease_expiries",
                    value: self.lease_expiries.get(),
                },
            ],
            histograms: vec![self.forest_infer_ns.snapshot("forest_infer_ns")],
        }
    }
}

/// The process-wide metrics registry, created on first use.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Frozen value of one counter family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Family name.
    pub name: &'static str,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// Frozen state of one histogram family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Family name.
    pub name: &'static str,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty buckets as `(exclusive upper bound, count)`, bound-
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate as a bucket bound: the exclusive upper bound
    /// of the first bucket whose cumulative count reaches `q` of the
    /// total (0 when empty). **Caveat**: buckets are powers of two, so
    /// the true quantile lies somewhere below the returned bound —
    /// within a factor of two for values past the first bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = 0u64;
        for &(bound, n) in &self.buckets {
            acc += n;
            if acc >= target {
                return bound;
            }
        }
        self.buckets.last().map_or(0, |&(bound, _)| bound)
    }

    /// Median bucket bound (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile bucket bound (see
    /// [`HistogramSnapshot::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A frozen copy of the whole registry, renderable as a text table or
/// JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter families.
    pub counters: Vec<CounterSnapshot>,
    /// Histogram families.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Family names present in this snapshot (counters then
    /// histograms).
    pub fn family_names(&self) -> Vec<&'static str> {
        self.counters
            .iter()
            .map(|c| c.name)
            .chain(self.histograms.iter().map(|h| h.name))
            .collect()
    }

    /// Aligned text table with one row per family. Histogram `p50`/
    /// `p99` columns are bucket upper bounds (within 2x of the true
    /// quantile — see [`HistogramSnapshot::quantile`]).
    pub fn render_table(&self) -> String {
        let mut t = TextTable::new(vec!["metric", "kind", "count", "sum", "mean", "p50", "p99"]);
        for c in &self.counters {
            t.row(vec![
                c.name.to_string(),
                "counter".to_string(),
                c.value.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for h in &self.histograms {
            t.row(vec![
                h.name.to_string(),
                "histogram".to_string(),
                h.count.to_string(),
                h.sum.to_string(),
                format!("{:.1}", h.mean()),
                h.p50().to_string(),
                h.p99().to_string(),
            ]);
        }
        t.render()
    }

    /// JSON object keyed by family name; histograms carry their
    /// non-empty buckets.
    pub fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = Vec::new();
        for c in &self.counters {
            obj.push((c.name.to_string(), Json::Num(c.value as f64)));
        }
        for h in &self.histograms {
            obj.push((
                h.name.to_string(),
                Json::Obj(vec![
                    ("count".to_string(), Json::Num(h.count as f64)),
                    ("sum".to_string(), Json::Num(h.sum as f64)),
                    (
                        "buckets".to_string(),
                        Json::Arr(
                            h.buckets
                                .iter()
                                .map(|&(bound, n)| {
                                    Json::Arr(vec![Json::Num(bound as f64), Json::Num(n as f64)])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        Json::Obj(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that set the process-wide `ENABLED` flag: the
    /// harness runs tests on parallel threads, and one test turning
    /// counting off midway through another would break its counts.
    static FLAG_GATE: Mutex<()> = Mutex::new(());

    /// Holds [`FLAG_GATE`] with the flag set to `on`; dropping it
    /// restores the previous value before releasing the gate, also when
    /// the test panics.
    struct FlagGuard {
        was: bool,
        _gate: MutexGuard<'static, ()>,
    }

    impl FlagGuard {
        fn set(on: bool) -> FlagGuard {
            // The gate guards no data, and a panicking test's guard has
            // already restored the flag, so a poisoned gate is fine.
            let gate = FLAG_GATE.lock().unwrap_or_else(PoisonError::into_inner);
            let was = is_enabled();
            set_enabled(on);
            FlagGuard { was, _gate: gate }
        }
    }

    impl Drop for FlagGuard {
        fn drop(&mut self) {
            set_enabled(self.was);
        }
    }

    #[test]
    fn disabled_counters_do_not_move() {
        let _flag = FlagGuard::set(false);
        let c = Counter::default();
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = Histogram::new();
        h.record(5);
        assert_eq!(h.count(), 0);
        assert!(start_timer().is_none());
    }

    #[test]
    fn enabled_counters_accumulate() {
        let _flag = FlagGuard::set(true);
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_bounds_are_strictly_monotone() {
        let bounds: Vec<u64> = (0..HISTOGRAM_BUCKETS)
            .map(Histogram::bucket_bound)
            .collect();
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bounds must strictly increase: {w:?}");
        }
    }

    #[test]
    fn values_land_below_their_bucket_bound() {
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_bound(i).saturating_sub(0));
            assert!(
                v < Histogram::bucket_bound(i) || i == HISTOGRAM_BUCKETS - 1,
                "v={v} bucket={i}"
            );
            if i > 0 {
                assert!(v >= Histogram::bucket_bound(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn histogram_records_count_and_sum() {
        let _flag = FlagGuard::set(true);
        let h = Histogram::new();
        for v in [1u64, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1006);
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 4);
        assert!((snap.mean() - 251.5).abs() < 1e-9);
        let total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn quantiles_return_bucket_bounds() {
        let _flag = FlagGuard::set(true);
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot("t");
        // Median of 1..=100 is ~50, bucket bound 64; p99 is ~99,
        // bound 128.
        assert_eq!(snap.p50(), 64);
        assert_eq!(snap.p99(), 128);
        let empty = Histogram::new().snapshot("e");
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p99(), 0);
    }

    #[test]
    fn snapshot_covers_every_registered_family() {
        let snap = global().snapshot();
        let names = snap.family_names();
        for fam in FAMILY_NAMES {
            assert!(names.contains(fam), "family {fam} missing from snapshot");
        }
        assert_eq!(names.len(), FAMILY_NAMES.len());
        // And the rendered table mentions each family by name.
        let table = snap.render_table();
        for fam in FAMILY_NAMES {
            assert!(table.contains(fam), "family {fam} missing from table");
        }
    }
}
