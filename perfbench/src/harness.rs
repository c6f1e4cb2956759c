//! The closed loop: one client runs one op at a time, and the next op
//! starts when the previous one returns.
//!
//! Steadiness rules every workload follows:
//! - every timed op repeats the identical batch built from the seed,
//!   and its digest must equal the untimed warm-up op's;
//! - set-up (inputs, models, one warm-up op) is timed several times,
//!   spread over the run, and reported as a median, so work moved into
//!   set-up shows;
//! - no file I/O inside a timed op; thread counts are at most `nproc`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bench::stats::median;

use crate::layers;
use crate::stats;
use crate::trace::{Ctx, Tracer};

/// Set-ups an untraced run makes: one before the timed loop, the rest
/// evenly spaced inside it (their time is not op time). `setup_s` is
/// the median of all of them; on a host whose speed shifts every few
/// seconds, set-ups bunched at one moment would sample a single state.
pub const SETUPS: usize = 5;

/// Fewest timed ops per run (per side in a traced run), so that a tail
/// percentile with [`stats::TAIL_BEYOND`] ops beyond it exists.
pub const MIN_OPS: usize = stats::TAIL_BEYOND + 1;

/// FNV-1a digest of everything an op produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in an integer.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in a float, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds in another digest.
    pub fn digest(&mut self, other: Digest) {
        self.u64(other.0);
    }

    /// Folds in a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the inputs and models the ops need from `seed`. Runs no
    /// op; the harness adds the warm-up op to set-up time.
    fn setup(seed: u64, threads: usize, ctx: Ctx<'_>) -> Result<Self, String>;

    /// One op: the identical batch every time. Returns a digest of its
    /// outputs, or why a check failed or a call returned an error.
    fn op(&self, ctx: Ctx<'_>) -> Result<Digest, String>;
}

/// Where and how long to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured wall time, seconds.
    pub seconds: f64,
    /// Worker threads handed to the workload (at most `nproc`).
    pub threads: usize,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured and how many ops passed their checks.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Timed ops.
    pub attempted: u64,
    /// Timed ops whose check failed or that returned an error.
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every op passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Running tally of timed ops against the warm-up digest.
struct Tally {
    expected: Digest,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn new(expected: Digest) -> Tally {
        Tally {
            expected,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn record(&mut self, result: Result<Digest, String>) {
        self.attempted += 1;
        let why = match result {
            Ok(d) if d == self.expected => return,
            Ok(d) => format!(
                "digest {d:?} differs from the warm-up op's {:?}",
                self.expected
            ),
            Err(e) => e,
        };
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// Builds the workload and runs the untimed warm-up op; returns the
/// warm-up digest and the set-up time in seconds.
fn setup_once<W: Workload>(cfg: &RunConfig, ctx: Ctx<'_>) -> Result<(W, Digest, f64), String> {
    let t = Instant::now();
    let w = W::setup(cfg.seed, cfg.threads, ctx)?;
    let warm = w
        .op(Ctx::off())
        .map_err(|e| format!("warm-up op failed: {e}"))?;
    Ok((w, warm, t.elapsed().as_secs_f64()))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Untraced run: the end-to-end metrics.
///
/// # Errors
///
/// Set-up or the warm-up op failed, or set-up is not deterministic.
pub fn run<W: Workload>(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let (w, warm, secs) = setup_once::<W>(cfg, Ctx::off())?;
    setup_secs.push(secs);
    let mut tally = Tally::new(warm);

    let mut op_ms = Vec::new();
    let mut op_secs = 0.0;
    let mut peak_rss_mb = None;
    let start = Instant::now();
    while op_secs < cfg.seconds || op_ms.len() < MIN_OPS {
        let t = Instant::now();
        let r = w.op(Ctx::off());
        op_ms.push(ms_since(t));
        tally.record(r);
        let done = setup_secs.len() as f64 / SETUPS as f64;
        if setup_secs.len() < SETUPS && op_secs >= cfg.seconds * done {
            if peak_rss_mb.is_none() {
                peak_rss_mb = Some(vm_hwm_mb()?);
            }
            let (_, d, secs) = setup_once::<W>(cfg, Ctx::off())?;
            if d != warm {
                return Err("two set-ups from one seed gave different warm-up digests".into());
            }
            setup_secs.push(secs);
        }
        op_secs = start.elapsed().as_secs_f64() - setup_secs[1..].iter().sum::<f64>();
    }
    let peak_rss_mb = match peak_rss_mb {
        Some(mb) => mb,
        None => vm_hwm_mb()?,
    };

    let tail = stats::tail(&op_ms).expect("MIN_OPS ops give a tail");
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_secs).expect("at least one set-up"),
            unit: "s",
        },
        Metric {
            name: "op_ms_p50",
            value: median(&op_ms).expect("MIN_OPS > 0"),
            unit: "ms",
        },
        Metric {
            name: "op_ms_tail",
            value: tail.value,
            unit: "ms",
        },
        Metric {
            name: "ops_per_s",
            value: (tally.attempted - tally.failed) as f64 / op_secs,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
    ];
    let notes = vec![
        format!(
            "op_ms_tail is p{:.1}: {} of {} ops beyond it",
            tail.percentile, tail.beyond, tail.count
        ),
        format!(
            "failed_frac {} ({} of {} ops failed)",
            tally.failed as f64 / tally.attempted as f64,
            tally.failed,
            tally.attempted
        ),
    ];
    Ok(finish(tally, metrics, notes))
}

/// Traced run: untraced and traced ops alternate (which goes first
/// flips every pair) for `cfg.seconds`; traced ops record spans and
/// run with the obs registry on. Reports the per-layer metrics, and
/// the median over pairs of traced over untraced op time, minus one,
/// as `bench.trace_overhead_frac`.
///
/// # Errors
///
/// Set-up or the warm-up op failed.
pub fn run_traced<W: Workload>(cfg: &RunConfig) -> Result<Outcome, String> {
    let tracer = Tracer::default();
    let (w, warm, _) = setup_once::<W>(cfg, tracer.ctx())?;
    let mut tally = Tally::new(warm);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pair = 0u32;
    while start.elapsed().as_secs_f64() < cfg.seconds || traced_ms.len() < MIN_OPS {
        pair += 1;
        let traced_first = pair.is_multiple_of(2);
        for traced in [traced_first, !traced_first] {
            if traced {
                tracer.begin_op(pair);
                obs::set_enabled(true);
                let t = Instant::now();
                let r = tracer.ctx().span("bench::op", |ctx| w.op(ctx));
                traced_ms.push(ms_since(t));
                obs::set_enabled(false);
                tally.record(r);
            } else {
                let t = Instant::now();
                let r = w.op(Ctx::off());
                plain_ms.push(ms_since(t));
                tally.record(r);
            }
        }
    }
    let summary = tracer.summary();
    // Per pair, so that the host's speed, which drifts over seconds,
    // cancels: the two ops of a pair run back to back.
    let ratios: Vec<f64> = traced_ms
        .iter()
        .zip(&plain_ms)
        .map(|(t, p)| t / p)
        .collect();
    let overhead = median(&ratios).expect("MIN_OPS > 0") - 1.0;
    let mut metrics = layers::metrics(&summary);
    metrics.push(Metric {
        name: "bench.trace_overhead_frac",
        value: overhead,
        unit: "frac",
    });
    let mut notes = vec![format!(
        "{} traced and {} untraced ops; self-time shares of the traced ops:",
        traced_ms.len(),
        plain_ms.len()
    )];
    for (name, share) in summary.self_shares() {
        let t = summary.spans[name];
        notes.push(format!(
            "  {:>5.1}%  {name}  ({:.1} calls/op, {:.3} ms/op)",
            100.0 * share,
            t.calls as f64 / summary.ops as f64,
            t.total_ns / 1e6 / summary.ops as f64
        ));
    }
    Ok(finish(tally, metrics, notes))
}

fn finish(tally: Tally, metrics: Vec<Metric>, mut notes: Vec<String>) -> Outcome {
    if let Some(why) = &tally.first_failure {
        notes.push(format!("first failed op: {why}"));
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// High-water resident set of this process (`VmHWM`), MB.
///
/// A run reads it just before its first set-up inside the timed loop,
/// so it covers the set-up before the loop, the warm-up op and the
/// first fifth of the ops. Each later set-up builds a second workload
/// while the first is alive, which no op does, and leaves the heap laid
/// out differently for the ops after it: with the high-water mark
/// restarted after each set-up, the readings that followed still moved
/// by a sixth between runs of one seed.
fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs `f` on every item on `threads` scoped workers that take the
/// next item as they finish one. Results come back in item order, so a
/// digest folded over them does not depend on which worker ran what.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        *slots[i].lock().expect("no worker panics") = Some(f(item));
    };
    std::thread::scope(|s| {
        for _ in 1..threads.clamp(1, items.len().max(1)) {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panics")
                .expect("every item ran")
        })
        .collect()
}

/// Checks a thread count handed to a library call against `nproc`.
///
/// # Errors
///
/// `threads` is zero or exceeds the machine's parallelism.
pub fn check_threads(what: &str, threads: usize, nproc: usize) -> Result<(), String> {
    if threads == 0 || threads > nproc {
        return Err(format!("{what} = {threads}; must be 1..={nproc} (nproc)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Every op returns the same digest, except that call `BAD` returns
    /// a wrong one and call `ERR` an error (call 1 is the warm-up).
    struct Fake<const BAD: u32, const ERR: u32> {
        calls: Cell<u32>,
    }

    impl<const BAD: u32, const ERR: u32> Workload for Fake<BAD, ERR> {
        fn setup(_: u64, _: usize, _: Ctx<'_>) -> Result<Self, String> {
            Ok(Fake {
                calls: Cell::new(0),
            })
        }

        fn op(&self, _: Ctx<'_>) -> Result<Digest, String> {
            let n = self.calls.get() + 1;
            self.calls.set(n);
            std::thread::sleep(std::time::Duration::from_micros(200));
            if n == ERR {
                return Err("planted error".into());
            }
            let mut d = Digest::default();
            d.u64(u64::from(n == BAD));
            Ok(d)
        }
    }

    const CFG: RunConfig = RunConfig {
        seed: 1,
        seconds: 0.0,
        threads: 1,
    };

    fn names(o: &Outcome) -> Vec<&'static str> {
        o.metrics.iter().map(|m| m.name).collect()
    }

    #[test]
    fn wrong_digest_counts_as_one_failed_op_and_every_metric_prints() {
        let o = run::<Fake<3, 0>>(&CFG).unwrap();
        assert_eq!((o.attempted, o.failed), (MIN_OPS as u64, 1));
        assert!(!o.correct());
        assert!(o
            .notes
            .last()
            .unwrap()
            .contains("differs from the warm-up op's"));
        assert_eq!(names(&o), layers::END_TO_END);
        let line = o.json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1, "));
        for name in layers::END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
        }
    }

    #[test]
    fn op_error_counts_as_one_failed_op() {
        let o = run::<Fake<0, 4>>(&CFG).unwrap();
        assert_eq!(o.failed, 1);
        assert_eq!(o.notes.last().unwrap(), "first failed op: planted error");
        let clean = run::<Fake<0, 0>>(&CFG).unwrap();
        assert!(clean.correct());
        assert_eq!(clean.attempted, MIN_OPS as u64);
    }

    /// Every set-up after the first touches 64 MiB and frees it.
    struct Hungry;

    static HUNGRY_SETUPS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    impl Workload for Hungry {
        fn setup(_: u64, _: usize, _: Ctx<'_>) -> Result<Self, String> {
            if HUNGRY_SETUPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed) > 0 {
                std::hint::black_box(vec![1u8; 64 << 20]);
            }
            Ok(Hungry)
        }

        fn op(&self, _: Ctx<'_>) -> Result<Digest, String> {
            Ok(Digest::default())
        }
    }

    #[test]
    fn set_ups_inside_the_loop_stay_out_of_peak_rss() {
        let o = run::<Hungry>(&CFG).unwrap();
        assert_eq!(
            HUNGRY_SETUPS.load(std::sync::atomic::Ordering::Relaxed),
            SETUPS as u32
        );
        let peak = o.metrics.iter().find(|m| m.name == "peak_rss_mb").unwrap();
        assert!(peak.value > 0.0 && peak.value < 64.0, "{}", peak.value);
    }

    #[test]
    fn failing_warm_up_fails_the_run() {
        assert!(run::<Fake<0, 1>>(&CFG).is_err());
    }

    #[test]
    fn traced_run_prints_every_layer_metric() {
        let o = run_traced::<Fake<0, 0>>(&CFG).unwrap();
        assert!(o.correct());
        assert_eq!(names(&o), layers::PER_LAYER);
        assert!(o.metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn par_map_returns_every_result_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 3] {
            let out = par_map(&items, threads, |&i| {
                std::thread::sleep(std::time::Duration::from_micros(100 - i));
                i * i
            });
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map(&[] as &[u64], 2, |&i| i).is_empty());
    }

    #[test]
    fn thread_counts_above_nproc_are_refused() {
        assert!(check_threads("Profiler::threads", 2, 2).is_ok());
        assert!(check_threads("Profiler::threads", 8, 2).is_err());
        assert!(check_threads("TrainOptions::threads", 0, 2).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "op_ms_p50",
                value: 1.25,
                unit: "ms",
            }],
            notes: Vec::new(),
        };
        let parsed = simcore::json::Json::parse(&o.json()).unwrap();
        assert_eq!(parsed.field("attempted").unwrap().as_f64().unwrap(), 3.0);
        let m = parsed.field("metrics").unwrap().field("op_ms_p50").unwrap();
        assert_eq!(m.field("value").unwrap().as_f64().unwrap(), 1.25);
        assert_eq!(m.field("unit").unwrap().as_str().unwrap(), "ms");
    }
}
