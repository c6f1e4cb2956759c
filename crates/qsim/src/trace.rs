//! Common-random-number traces: pre-materialized simulation inputs.
//!
//! Every replication of the queue simulator consumes exactly two
//! random streams — inter-arrival gaps and service demands. A
//! [`SimTrace`] materializes both once per seed, in the exact order the
//! live-RNG simulator would draw them, so that
//!
//! 1. reruns skip all distribution sampling (and, for empirical
//!    service distributions, all table lookups), and
//! 2. *different* candidate policies replay *identical* randomness —
//!    the classic common-random-numbers (CRN) variance reduction. The
//!    annealing explorer (§4.2) evaluates ~150 candidate timeouts per
//!    search; with shared traces the difference between two candidates
//!    is purely the policy, never the noise.
//!
//! Timeout, budget, and sprint speedup do not affect the draws (they
//! only change how the simulator *consumes* work), so a trace is
//! reusable across every candidate policy at a fixed arrival process,
//! service distribution, and replication seed. [`TraceCache`] keys on
//! exactly that tuple.

use crate::config::QsimConfig;
use crate::shared::CappedMap;
use crate::sim::Inputs;
use simcore::dist::{Dist, DistKind};
use simcore::rng::SimRng;
use simcore::time::SimDuration;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Pre-drawn inputs for one simulation run: `num_queries` arrival gaps
/// and service demands, in draw order.
///
/// Materialization reproduces the live simulator's stream derivation
/// bit-for-bit (`SimRng::new(seed)` split into arrival and service
/// streams), so a trace-driven run is bit-identical to a live-RNG run
/// of the same configuration and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    seed: u64,
    arrival_gaps: Vec<SimDuration>,
    service_secs: Vec<f64>,
}

impl SimTrace {
    /// Materializes the trace a live run of `cfg` would draw.
    pub fn materialize(cfg: &QsimConfig) -> SimTrace {
        Self::materialize_with_seed(cfg, cfg.seed)
    }

    /// Materializes the trace a live run of `cfg.with_seed(seed)` would
    /// draw. The draw-order contract with [`crate::sim::Qsim`]: the
    /// trace draws through the simulator's own live inputs (one root
    /// RNG split into an arrival stream, label 1, and a service stream,
    /// label 2), gaps and services each sequentially within their
    /// stream, with service demands floored at 1 µs.
    pub fn materialize_with_seed(cfg: &QsimConfig, seed: u64) -> SimTrace {
        let mut live = Inputs::live(&mut SimRng::new(seed), cfg.arrival_kind, cfg.arrival_rate);
        let n = cfg.num_queries;
        let arrival_gaps = (0..n).map(|_| live.next_gap()).collect();
        let service_secs = (0..n)
            .map(|_| live.next_service_secs(&cfg.service))
            .collect();
        SimTrace {
            seed,
            arrival_gaps,
            service_secs,
        }
    }

    /// The seed the trace was drawn with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of queries the trace covers.
    pub fn len(&self) -> usize {
        self.arrival_gaps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrival_gaps.is_empty()
    }

    /// The `i`-th inter-arrival gap.
    #[inline]
    pub fn gap(&self, i: usize) -> SimDuration {
        self.arrival_gaps[i]
    }

    /// All inter-arrival gaps, in draw order.
    pub(crate) fn gaps(&self) -> &[SimDuration] {
        &self.arrival_gaps
    }

    /// All service demands (sustained-rate seconds), in draw order.
    pub(crate) fn services(&self) -> &[f64] {
        &self.service_secs
    }

    /// The `i`-th service demand in sustained-rate seconds (already
    /// floored at 1 µs).
    #[inline]
    pub fn service_secs(&self, i: usize) -> f64 {
        self.service_secs[i]
    }
}

/// Everything that determines the drawn values. The service
/// distribution is folded in as a fingerprint (variant, parameters,
/// and a hash of empirical samples) rather than a deep comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TraceKey {
    seed: u64,
    num_queries: usize,
    arrival_rate_bits: u64,
    arrival_kind: (u8, u64),
    service_fp: u64,
}

fn kind_key(kind: DistKind) -> (u8, u64) {
    match kind {
        DistKind::Exponential => (0, 0),
        DistKind::Pareto { alpha } => (1, alpha.to_bits()),
        DistKind::Deterministic => (2, 0),
        DistKind::Lognormal { cov } => (3, cov.to_bits()),
        DistKind::Hyperexponential { cov } => (4, cov.to_bits()),
    }
}

/// FNV-1a fold of the fields that determine service draws.
pub(crate) fn service_fingerprint(service: &Dist) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    match service {
        Dist::Parametric { kind, mean } => {
            let (tag, param) = kind_key(*kind);
            mix(1);
            mix(tag as u64);
            mix(param);
            mix(mean.0);
        }
        Dist::Empirical { samples } => {
            mix(2);
            mix(samples.len() as u64);
            for s in samples {
                mix(s.0);
            }
        }
    }
    h
}

/// Entry cap of a trace cache. At the intended load (an annealing
/// search touches `replications` traces per condition, a fleet run a
/// few hundred) the cache stays far below it; if it ever fills,
/// inserts are dropped and runs keep materializing uncached — a leak
/// guard, not a tuning knob.
const TRACE_CACHE_CAP: usize = 8_192;

/// A shareable, thread-safe memo of materialized traces, held in a
/// [`CappedMap`].
///
/// Clones share the underlying cache (it is an `Arc`), so a model can
/// hand the same cache to every prediction it makes. The key
/// fingerprints *everything* that determines the drawn values (seed,
/// query count, arrival process, service distribution), so sharing a
/// cache across profiles — including the process-global
/// [`TraceCache::shared`] instance — is sound: a hit on a trace
/// another model materialized is bit-identical to a local
/// materialization.
#[derive(Clone)]
pub struct TraceCache {
    inner: Arc<CappedMap<TraceKey, Arc<SimTrace>>>,
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache {
            inner: Arc::new(CappedMap::new(TRACE_CACHE_CAP)),
        }
    }
}

impl TraceCache {
    /// Creates an empty private cache.
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    /// The process-global shared cache. All models built with default
    /// options share this instance, so repeated model constructions
    /// over the same profile reuse each other's materializations
    /// instead of redrawing identical traces.
    pub fn shared() -> TraceCache {
        static SHARED: OnceLock<TraceCache> = OnceLock::new();
        SHARED.get_or_init(TraceCache::new).clone()
    }

    /// Returns the trace a live run of `cfg.with_seed(seed)` would
    /// draw, materializing and caching it on first use.
    pub fn trace_for(&self, cfg: &QsimConfig, seed: u64) -> Arc<SimTrace> {
        self.trace_with_fingerprint(cfg, seed, service_fingerprint(&cfg.service))
    }

    /// [`TraceCache::trace_for`] with `cfg.service`'s fingerprint
    /// already computed, so the replications of one prediction hash the
    /// service table once between them.
    pub(crate) fn trace_with_fingerprint(
        &self,
        cfg: &QsimConfig,
        seed: u64,
        service_fp: u64,
    ) -> Arc<SimTrace> {
        let key = TraceKey {
            seed,
            num_queries: cfg.num_queries,
            arrival_rate_bits: cfg.arrival_rate.qph().to_bits(),
            arrival_kind: kind_key(cfg.arrival_kind),
            service_fp,
        };
        if let Some(t) = self.inner.get(&key) {
            obs::global().trace_cache_hits.incr();
            return t;
        }
        obs::global().trace_cache_misses.incr();
        // The stored entry: ours, or a racer's bit-identical one (the
        // key pins every drawn value); ours alone when the cache is
        // full.
        self.inner
            .insert(key, Arc::new(SimTrace::materialize_with_seed(cfg, seed)))
    }

    /// Number of traces currently cached.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCache")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::Rate;

    fn cfg(seed: u64) -> QsimConfig {
        let mut c = QsimConfig::mm1(
            Rate::per_hour(30.0),
            Dist::exponential(SimDuration::from_secs(60)),
            seed,
        );
        c.num_queries = 500;
        c.warmup = 50;
        c
    }

    #[test]
    fn materialization_is_deterministic() {
        let a = SimTrace::materialize(&cfg(7));
        let b = SimTrace::materialize(&cfg(7));
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SimTrace::materialize(&cfg(7));
        let b = SimTrace::materialize(&cfg(8));
        assert_ne!(a, b);
    }

    #[test]
    fn policy_knobs_do_not_change_the_trace() {
        let base = SimTrace::materialize(&cfg(7));
        let mut c = cfg(7);
        c.timeout = SimDuration::from_secs(80);
        c.sprint_speedup = 1.5;
        c.budget_capacity_secs = 100.0;
        c.refill_secs = 300.0;
        assert_eq!(SimTrace::materialize(&c), base);
    }

    #[test]
    fn cache_hits_on_repeat_and_misses_on_rate_change() {
        let cache = TraceCache::new();
        let a = cache.trace_for(&cfg(7), 7);
        let b = cache.trace_for(&cfg(7), 7);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        assert_eq!(cache.len(), 1);
        let mut faster = cfg(7);
        faster.arrival_rate = Rate::per_hour(40.0);
        let c = cache.trace_for(&faster, 7);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_distinguishes_service_tables() {
        let cache = TraceCache::new();
        let mut e1 = cfg(7);
        e1.service = Dist::empirical(vec![SimDuration::from_secs(10), SimDuration::from_secs(30)]);
        let mut e2 = cfg(7);
        e2.service = Dist::empirical(vec![SimDuration::from_secs(15), SimDuration::from_secs(25)]);
        // Same mean, same length — only the sample values differ.
        let a = cache.trace_for(&e1, 7);
        let b = cache.trace_for(&e2, 7);
        assert_ne!(a.service_secs(0), b.service_secs(0));
    }

    #[test]
    fn clones_share_storage() {
        let cache = TraceCache::new();
        let clone = cache.clone();
        let _ = cache.trace_for(&cfg(1), 1);
        assert_eq!(clone.len(), 1);
    }
}
