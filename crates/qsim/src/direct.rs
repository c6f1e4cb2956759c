//! The heap-free direct engine for single-slot simulations.
//!
//! The entire prediction path simulates one-class G/G/1 queues (the
//! paper's conditions fix one execution slot), yet the event loop of
//! [`crate::sim`] pays for a binary-heap calendar, a query table, a
//! timeout event per arrival, and stale-generation slot events on every
//! sprint transition. For k = 1 none of that machinery is needed:
//! service is FIFO and serial, so each query's departure follows from
//! `start = max(arrival, previous departure)` plus a tiny per-query
//! state machine with at most four instants of interest — dispatch,
//! the query's own timeout, a budget-exhaustion wake-up, and
//! completion. It reads the same one-class table entry (`Class`) and
//! drains the same [`Budget`] as the event loop, and allocates nothing
//! per query beyond the records it returns.
//!
//! **Bit-identity contract.** This engine reproduces the event
//! calendar's one-class results exactly, not approximately. That
//! requires replicating three details:
//!
//! - *Quantization*: event times are microsecond-ceiled
//!   ([`SimDuration::from_secs_f64_ceil`]) and work is integrated over
//!   the quantized intervals, in the same floating-point operation
//!   order as the event loop's `RunningQuery::advance`, at the speedup
//!   of the query's class (here the configuration's one class).
//! - *Budget arithmetic*: the budget level is a running float sum, so
//!   [`Budget::update`] must be called at exactly the calendar's update
//!   instants (dispatch of a timed-out query, a running query's
//!   timeout, and every live slot event) — splitting or merging the
//!   intervals would change the bits.
//! - *Tie order*: at equal instants the calendar pops the event with
//!   the smaller sequence number. A query's timeout event is always
//!   scheduled before its completion event, so at a tie the timeout
//!   wins — which is why the timeout check below uses `<=` against the
//!   pending slot event. (The one genuinely order-dependent tie —
//!   timeout vs. the *predecessor's* completion at the dispatch
//!   instant — converges: both orders perform one budget update at that
//!   instant and start the sprint from dispatch.)
//!
//! A randomized sweep in the tests below holds the engines bitwise
//! equal across utilizations, timeouts, budgets, speedups, and
//! arrival shapes.

use crate::config::{QsimConfig, QsimResult, SimQuery};
use crate::sim::{full_budget, Class, Inputs};
use simcore::time::{SimDuration, SimTime};
use simcore::{Budget, SprintError};

/// Runs a single-slot simulation to completion without an event heap.
///
/// # Errors
///
/// Never fails today (the config is validated by the caller and the
/// direct recurrence has no calendar to drain early); the `Result`
/// mirrors the event engine's signature.
pub(crate) fn run_direct(cfg: &QsimConfig, inputs: &mut Inputs) -> Result<QsimResult, SprintError> {
    let mut queries = Vec::with_capacity(cfg.num_queries.saturating_sub(cfg.warmup));
    drive(
        cfg,
        inputs,
        |arrival, depart, timed_out, sprinted, sprint_secs| {
            queries.push(SimQuery {
                arrival_secs: arrival.as_secs_f64(),
                depart_secs: depart.as_secs_f64(),
                timed_out,
                sprinted,
                sprint_secs,
            });
        },
    );
    Ok(QsimResult { queries })
}

/// Runs a single-slot simulation and streams the steady-state mean
/// response time without materializing per-query records —
/// bit-identical to `run_direct(..)` followed by
/// [`QsimResult::mean_response_secs`] (same values summed in the same
/// order), minus the allocation. This is the prediction hot path.
///
/// # Errors
///
/// See [`run_direct`].
///
/// # Panics
///
/// Panics if the run produced no steady-state queries, mirroring
/// [`QsimResult::mean_response_secs`].
pub(crate) fn run_direct_mean(cfg: &QsimConfig, inputs: &mut Inputs) -> Result<f64, SprintError> {
    let mut sum = 0.0f64;
    let mut count = 0usize;
    drive(cfg, inputs, |arrival, depart, _, _, _| {
        sum += depart.as_secs_f64() - arrival.as_secs_f64();
        count += 1;
    });
    assert!(count > 0, "empty simulation result");
    Ok(sum / count as f64)
}

/// Dispatches to a monomorphized core per input source, so the trace
/// path iterates raw slices (no per-query enum match or bounds check)
/// and the live path samples inline.
fn drive(
    cfg: &QsimConfig,
    inputs: &mut Inputs,
    emit: impl FnMut(SimTime, SimTime, bool, bool, f64),
) {
    debug_assert_eq!(cfg.slots, 1, "direct engine is single-slot only");
    let n = cfg.num_queries;
    match inputs {
        Inputs::Trace { trace, .. } => {
            // Length >= n is checked at construction.
            let feed = trace.gaps()[..n]
                .iter()
                .copied()
                .zip(trace.services()[..n].iter().copied());
            run_core(cfg, feed, emit);
        }
        Inputs::Live {
            arrival_dist,
            arrival_rng,
            service_rng,
        } => {
            // Per-query draw order (gap, then service) matches the
            // event engine; the two streams are independent RNGs, so
            // interleaving within a query is immaterial.
            let service = &cfg.service;
            let feed = std::iter::from_fn(|| {
                Some((
                    arrival_dist.sample(arrival_rng),
                    service.sample(service_rng).as_secs_f64().max(1e-6),
                ))
            });
            run_core(cfg, feed, emit);
        }
    }
}

#[inline(always)]
fn run_core(
    cfg: &QsimConfig,
    feed: impl Iterator<Item = (SimDuration, f64)>,
    mut emit: impl FnMut(SimTime, SimTime, bool, bool, f64),
) {
    let n = cfg.num_queries;
    let class = Class::of(cfg);
    let mut budget = full_budget(cfg.budget_capacity_secs, cfg.refill_secs);
    let mut arrival = SimTime::ZERO;
    let mut prev_depart = SimTime::ZERO;
    for (i, (gap, w)) in feed.take(n).enumerate() {
        arrival += gap;
        let start = if arrival > prev_depart {
            arrival
        } else {
            prev_depart
        };
        let (depart, timed_out, sprinted, sprint_secs) = if class.sprints {
            serve_sprintable(&class, &mut budget, arrival, start, w)
        } else {
            // No sprinting: one completion event at the ceiled horizon.
            (
                start + SimDuration::from_secs_f64_ceil(w),
                false,
                false,
                0.0,
            )
        };
        prev_depart = depart;
        if i >= cfg.warmup {
            emit(arrival, depart, timed_out, sprinted, sprint_secs);
        }
    }
}

/// Serves one query on the (single) slot, mirroring the event
/// calendar's transitions: returns `(depart, timed_out, sprinted,
/// sprint_secs)`.
fn serve_sprintable(
    class: &Class<'_>,
    budget: &mut Budget,
    arrival: SimTime,
    start: SimTime,
    w: f64,
) -> (SimTime, bool, bool, f64) {
    let speedup = class.speedup;
    let t_to = arrival.saturating_add(class.timeout);
    // The calendar only schedules timeouts strictly before the sentinel.
    let has_to = t_to < SimTime::MAX;
    let mut timed_out = false;
    let mut sprinted = false;
    let mut sprint_secs = 0.0f64;
    let mut sprinting = false;
    let mut remaining = w;
    let mut last = start;
    if has_to && t_to <= start {
        // Timeout fired while queued (or at the dispatch instant):
        // sprint from dispatch, budget permitting.
        timed_out = true;
        budget.update(start);
        if budget.available() {
            sprinting = true;
            sprinted = true;
            budget.start_sprint();
        }
    }
    loop {
        // The pending slot event: completion, or the budget-exhaustion
        // horizon while sprinting — exactly `reschedule`'s arithmetic
        // (`remaining / 1.0` is bitwise `remaining`, so the sustained
        // branch skips the division).
        let mut horizon = if sprinting {
            remaining / speedup
        } else {
            remaining
        };
        if sprinting {
            if let Some(exhaust) = budget.seconds_to_exhaustion() {
                horizon = horizon.min(exhaust);
            }
        }
        let t_next = last + SimDuration::from_secs_f64_ceil(horizon);
        if has_to && !timed_out && t_to <= t_next {
            // The query's own timeout pops first (`<=`: its sequence
            // number is older than any of its slot events).
            timed_out = true;
            budget.update(t_to);
            if budget.available() {
                // advance() at the pre-sprint speed, then switch.
                let dt = t_to.since(last).as_secs_f64();
                last = t_to;
                remaining = (remaining - dt).max(0.0);
                sprinting = true;
                sprinted = true;
                budget.start_sprint();
            }
            // Budget empty: the timeout is recorded but the pending
            // slot event stands unchanged — starved, like the calendar.
            continue;
        }
        // Live slot event at `t_next`.
        budget.update(t_next);
        let was_sprinting = sprinting;
        let dt = t_next.since(last).as_secs_f64();
        last = t_next;
        if sprinting {
            sprint_secs += dt;
        }
        // `dt * 1.0` is bitwise `dt`: only the sprint branch multiplies.
        let done = if sprinting { dt * speedup } else { dt };
        remaining = (remaining - done).max(0.0);
        // Two microseconds of slack, as in the calendar: completion
        // horizons are ceiled to microsecond resolution.
        if remaining <= 2e-6 {
            if sprinting {
                budget.end_sprint();
            }
            return (t_next, timed_out, sprinted, sprint_secs);
        }
        if was_sprinting && !budget.available() {
            // Budget ran dry mid-sprint: fall back to sustained speed.
            sprinting = false;
            budget.end_sprint();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::QsimConfig;
    use crate::sim::Qsim;
    use simcore::dist::{Dist, DistKind};
    use simcore::rng::SimRng;
    use simcore::time::{Rate, SimDuration};

    fn base(util: f64, seed: u64) -> QsimConfig {
        let mu = 3_600.0 / 60.0;
        let mut c = QsimConfig::mm1(
            Rate::per_hour(mu * util),
            Dist::exponential(SimDuration::from_secs(60)),
            seed,
        );
        c.num_queries = 800;
        c.warmup = 80;
        c
    }

    fn assert_engines_agree(cfg: &QsimConfig, label: &str) {
        let direct = Qsim::new(cfg.clone()).unwrap().run().unwrap();
        let event = Qsim::new(cfg.clone()).unwrap().run_event_driven().unwrap();
        assert_eq!(
            direct.queries.len(),
            event.queries.len(),
            "{label}: length mismatch"
        );
        for (i, (d, e)) in direct.queries.iter().zip(event.queries.iter()).enumerate() {
            assert_eq!(d, e, "{label}: query {i} diverged");
        }
    }

    #[test]
    fn matches_event_engine_without_sprinting() {
        for util in [0.3, 0.7, 0.95] {
            let c = base(util, 11);
            assert_engines_agree(&c, &format!("plain M/M/1 util {util}"));
        }
    }

    #[test]
    fn matches_event_engine_with_sprinting() {
        for (timeout, budget, refill, speedup) in [
            (0.0, f64::INFINITY, 1.0, 2.0),
            (80.0, 80.0, 200.0, 1.5),
            (100.0, 20.0, 2_000.0, 2.5),
            (300.0, 5.0, 50.0, 1.8),
            (90.0, f64::INFINITY, 1.0, 0.8), // Sub-unit effective speedup.
        ] {
            let mut c = base(0.8, 17);
            c.timeout = SimDuration::from_secs_f64(timeout);
            c.budget_capacity_secs = budget;
            c.refill_secs = refill;
            c.sprint_speedup = speedup;
            assert_engines_agree(&c, &format!("sprint t={timeout} b={budget} s={speedup}"));
        }
    }

    #[test]
    fn matches_event_engine_randomized_sweep() {
        // Seeded fuzz over the whole configuration space the direct
        // engine claims: any divergence from the calendar fails here.
        let mut rng = SimRng::new(0xD1EC7);
        for trial in 0..40 {
            let mut c = base(rng.uniform(0.2, 1.05), 1_000 + trial);
            c.num_queries = 400;
            c.warmup = 40;
            c.sprint_speedup = rng.uniform(0.7, 3.0);
            c.timeout = match trial % 4 {
                0 => SimDuration::MAX,
                1 => SimDuration::ZERO,
                _ => SimDuration::from_secs_f64(rng.uniform(1.0, 400.0)),
            };
            c.budget_capacity_secs = match trial % 5 {
                0 => 0.0,
                1 => f64::INFINITY,
                _ => rng.uniform(1.0, 300.0),
            };
            c.refill_secs = rng.uniform(0.0, 1_000.0);
            c.arrival_kind = match trial % 3 {
                0 => DistKind::Exponential,
                1 => DistKind::Pareto { alpha: 1.5 },
                _ => DistKind::Hyperexponential { cov: 2.0 },
            };
            if trial % 6 == 0 {
                c.service = Dist::deterministic(SimDuration::from_secs(60));
            }
            assert_engines_agree(&c, &format!("fuzz trial {trial}"));
        }
    }

    #[test]
    fn trace_replay_matches_live_run_bitwise() {
        use crate::trace::SimTrace;
        use std::sync::Arc;
        let mut c = base(0.85, 23);
        c.timeout = SimDuration::from_secs(90);
        c.budget_capacity_secs = 60.0;
        c.refill_secs = 400.0;
        c.sprint_speedup = 1.6;
        let live = Qsim::new(c.clone()).unwrap().run().unwrap();
        let cfg = Arc::new(c);
        let trace = Arc::new(SimTrace::materialize(&cfg));
        let replay = Qsim::with_trace(Arc::clone(&cfg), Arc::clone(&trace))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(live.queries, replay.queries);
        // And on the event engine too.
        let replay_ev = Qsim::with_trace(cfg, trace)
            .unwrap()
            .run_event_driven()
            .unwrap();
        assert_eq!(live.queries, replay_ev.queries);
    }

    #[test]
    fn short_trace_rejected() {
        use crate::trace::SimTrace;
        use std::sync::Arc;
        let c = base(0.5, 29);
        let mut short = c.clone();
        short.num_queries = 10;
        let trace = Arc::new(SimTrace::materialize(&short));
        assert!(Qsim::with_trace(Arc::new(c), trace).is_err());
    }
}
