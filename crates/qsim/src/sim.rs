//! The timeout-aware G/G/k event loop (Algorithm 1, generalized) and
//! the [`Qsim`] simulator that runs it.
//!
//! Compared to the ground-truth testbed, this simulator is
//! deliberately *clean*: service is a single sampled duration, a sprint
//! multiplies the speed of all remaining work uniformly (Equation 1),
//! and toggling is free. Runtime effects the model cannot see are
//! folded into the effective sprint rate supplied via
//! [`QsimConfig::sprint_speedup`].
//!
//! The loop runs over a table of query classes, each with its own
//! service distribution, sprint speedup and timeout, sharing one sprint
//! budget. [`Qsim::run_event_driven`] is the one-class case and draws no
//! class; [`crate::multiclass::MultiClassQsim`] hands the same loop its
//! classes and a weighted class stream (§5's "small modifications").
//! The loop builds its calendar, FIFO, slots, budget pool and query
//! table only when it runs, so a [`Qsim`] that takes the single-slot
//! direct engine never allocates them.

use crate::config::{QsimConfig, QsimResult, SimQuery};
use crate::trace::SimTrace;
use simcore::dist::{Dist, DistKind};
use simcore::event::EventQueue;
use simcore::rng::SimRng;
use simcore::time::{Rate, SimDuration, SimTime};
use simcore::SprintError;
use std::collections::VecDeque;
use std::sync::Arc;

/// The simulator's randomness source: live distribution sampling or a
/// pre-materialized [`SimTrace`] replay (common random numbers).
///
/// Both engines (event-driven and direct) consume inputs exclusively
/// through this enum, which is what guarantees a trace-driven run is
/// bit-identical to a live run of the same seed: the trace was drawn
/// with the same stream derivation and draw order.
#[derive(Debug)]
pub(crate) enum Inputs {
    /// Draw from distributions as the simulation progresses.
    Live {
        arrival_dist: Dist,
        arrival_rng: SimRng,
        service_rng: SimRng,
    },
    /// Replay pre-drawn gaps and service demands by index.
    Trace {
        trace: Arc<SimTrace>,
        gaps_used: usize,
        services_used: usize,
    },
}

impl Inputs {
    /// Live inputs on `root`'s arrival (label 1) and service (label 2)
    /// streams, split in that order.
    pub(crate) fn live(root: &mut SimRng, arrival_kind: DistKind, arrival_rate: Rate) -> Inputs {
        let arrival_rng = root.split(1);
        let service_rng = root.split(2);
        Inputs::Live {
            arrival_dist: Dist::Parametric {
                kind: arrival_kind,
                mean: arrival_rate.mean_interval(),
            },
            arrival_rng,
            service_rng,
        }
    }

    /// Next inter-arrival gap.
    #[inline]
    pub(crate) fn next_gap(&mut self) -> SimDuration {
        match self {
            Inputs::Live {
                arrival_dist,
                arrival_rng,
                ..
            } => arrival_dist.sample(arrival_rng),
            Inputs::Trace {
                trace, gaps_used, ..
            } => {
                let g = trace.gap(*gaps_used);
                *gaps_used += 1;
                g
            }
        }
    }

    /// Next service demand in sustained-rate seconds, floored at 1 µs
    /// (sub-microsecond work would strand zero-length events).
    #[inline]
    pub(crate) fn next_service_secs(&mut self, service: &Dist) -> f64 {
        match self {
            Inputs::Live { service_rng, .. } => service.sample(service_rng).as_secs_f64().max(1e-6),
            Inputs::Trace {
                trace,
                services_used,
                ..
            } => {
                let s = trace.service_secs(*services_used);
                *services_used += 1;
                s
            }
        }
    }
}

/// One query class as the event loop sees it.
#[derive(Debug)]
pub(crate) struct Class<'a> {
    /// Service-time distribution at the sustained rate.
    pub(crate) service: &'a Dist,
    /// Speedup applied to remaining work while sprinting (µe/µ).
    pub(crate) speedup: f64,
    /// Timeout after arrival that triggers sprinting.
    pub(crate) timeout: SimDuration,
    /// Whether this class's timeout can start a sprint at all: a real
    /// speedup, a non-empty budget, and a finite timeout.
    pub(crate) sprints: bool,
}

impl<'a> Class<'a> {
    /// A class under a shared budget of `budget_capacity_secs`.
    pub(crate) fn new(
        service: &'a Dist,
        speedup: f64,
        timeout: SimDuration,
        budget_capacity_secs: f64,
    ) -> Class<'a> {
        Class {
            service,
            speedup,
            timeout,
            sprints: (speedup - 1.0).abs() > 1e-12
                && (budget_capacity_secs > 0.0 || budget_capacity_secs.is_infinite())
                && timeout < SimDuration::MAX,
        }
    }

    /// The single class of `cfg`.
    pub(crate) fn of(cfg: &'a QsimConfig) -> Class<'a> {
        Class::new(
            &cfg.service,
            cfg.sprint_speedup,
            cfg.timeout,
            cfg.budget_capacity_secs,
        )
    }
}

/// Event-calendar payloads.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    Timeout(u64),
    Slot { slot: usize, gen: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum QState {
    Queued,
    Running(usize),
    Done,
}

/// One query's record in the event loop's table.
#[derive(Debug)]
pub(crate) struct QInfo {
    /// Index of the query's class in the class table.
    pub(crate) class: usize,
    arrival: SimTime,
    depart: SimTime,
    service_secs: f64,
    timed_out: bool,
    sprinted: bool,
    sprint_secs: f64,
    state: QState,
}

impl QInfo {
    /// The query's outcome as the simulators report it.
    pub(crate) fn outcome(&self) -> SimQuery {
        SimQuery {
            arrival_secs: self.arrival.as_secs_f64(),
            depart_secs: self.depart.as_secs_f64(),
            timed_out: self.timed_out,
            sprinted: self.sprinted,
            sprint_secs: self.sprint_secs,
        }
    }
}

#[derive(Debug)]
struct RunningQuery {
    query: u64,
    /// Work remaining, measured in sustained-rate seconds.
    remaining_work: f64,
    /// The query's class's sprint speedup.
    speedup: f64,
    sprinting: bool,
    sprint_secs: f64,
    last_update: SimTime,
    gen: u64,
}

impl RunningQuery {
    /// Integrates remaining work up to `now` at the current speed.
    fn advance(&mut self, now: SimTime) {
        let dt = now.since(self.last_update).as_secs_f64();
        self.last_update = now;
        let speed = if self.sprinting { self.speedup } else { 1.0 };
        if self.sprinting {
            self.sprint_secs += dt;
        }
        self.remaining_work = (self.remaining_work - dt * speed).max(0.0);
    }
}

/// Lazy sprint-budget pool (drains while sprinting, refills when idle).
#[derive(Debug)]
pub(crate) struct Pool {
    pub(crate) capacity: f64,
    pub(crate) level: f64,
    pub(crate) refill_secs: f64,
    pub(crate) sprinting: usize,
    pub(crate) last: SimTime,
}

impl Pool {
    /// A full pool of `capacity` sprint-seconds that refills from empty
    /// in `refill_secs` (zero means instant, clamped to 1 ns), last
    /// updated at time zero.
    pub(crate) fn new(capacity: f64, refill_secs: f64) -> Pool {
        Pool {
            capacity,
            level: capacity,
            refill_secs: refill_secs.max(1e-9),
            sprinting: 0,
            last: SimTime::ZERO,
        }
    }

    pub(crate) fn update(&mut self, now: SimTime) {
        let dt = now.since(self.last).as_secs_f64();
        self.last = now;
        if self.capacity.is_infinite() {
            return;
        }
        if self.sprinting == 0 {
            self.level = (self.level + self.capacity / self.refill_secs * dt).min(self.capacity);
        } else {
            self.level = (self.level - self.sprinting as f64 * dt).max(0.0);
        }
    }

    pub(crate) fn available(&self) -> bool {
        // Levels below one microsecond count as empty so exhaustion
        // horizons never round to zero-length events.
        self.level > 1e-6 || self.capacity.is_infinite()
    }

    pub(crate) fn seconds_to_exhaustion(&self) -> Option<f64> {
        if self.sprinting == 0 || self.capacity.is_infinite() {
            None
        } else {
            Some(self.level / self.sprinting as f64)
        }
    }
}

/// Looks up a slot that the event logic requires to be occupied,
/// surfacing a typed runtime error (instead of a panic) if it is not.
fn occupied<'s>(
    slots: &'s mut [Option<RunningQuery>],
    slot: usize,
    ctx: &'static str,
) -> Result<&'s mut RunningQuery, SprintError> {
    slots
        .get_mut(slot)
        .and_then(Option::as_mut)
        .ok_or_else(|| SprintError::runtime(ctx, format!("slot {slot} unexpectedly empty")))
}

/// Validates a configuration; shared by every constructor and engine.
pub(crate) fn validate(cfg: &QsimConfig) -> Result<(), SprintError> {
    SprintError::require_nonzero("QsimConfig::slots", cfg.slots)?;
    SprintError::require_nonzero("QsimConfig::num_queries", cfg.num_queries)?;
    // Effective sprint rates below the service rate are permitted:
    // Eq. 2's calibration may push µe under µ when runtime drag
    // (interrupt servicing, toggles) slows loaded systems beyond
    // what any sprint speedup explains.
    SprintError::require_positive("QsimConfig::sprint_speedup", cfg.sprint_speedup)?;
    SprintError::require_non_negative(
        "QsimConfig::budget_capacity_secs",
        cfg.budget_capacity_secs,
    )?;
    // Zero refill means "instant" (clamped at use).
    SprintError::require_non_negative("QsimConfig::refill_secs", cfg.refill_secs)
}

/// The queue simulator: a validated configuration and its inputs. The
/// engine that runs it builds its own state.
pub struct Qsim {
    cfg: Arc<QsimConfig>,
    inputs: Inputs,
}

impl Qsim {
    /// Builds a simulator for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] on zero slots/queries, a
    /// non-positive sprint speedup, or an invalid budget.
    pub fn new(cfg: QsimConfig) -> Result<Qsim, SprintError> {
        validate(&cfg)?;
        let inputs = Inputs::live(
            &mut SimRng::new(cfg.seed),
            cfg.arrival_kind,
            cfg.arrival_rate,
        );
        Ok(Qsim {
            cfg: Arc::new(cfg),
            inputs,
        })
    }

    /// Builds a simulator that replays a pre-materialized trace instead
    /// of drawing live randomness (`cfg.seed` is ignored; the trace
    /// carries its own). See [`crate::trace`] for why: trace reuse
    /// eliminates redundant sampling and gives candidate policies
    /// common random numbers.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] if the config is invalid
    /// or the trace is shorter than `cfg.num_queries`.
    pub fn with_trace(cfg: Arc<QsimConfig>, trace: Arc<SimTrace>) -> Result<Qsim, SprintError> {
        validate(&cfg)?;
        if trace.len() < cfg.num_queries {
            return Err(SprintError::invalid(
                "Qsim::with_trace",
                format!(
                    "trace covers {} queries, config needs {}",
                    trace.len(),
                    cfg.num_queries
                ),
            ));
        }
        Ok(Qsim {
            cfg,
            inputs: Inputs::Trace {
                trace,
                gaps_used: 0,
                services_used: 0,
            },
        })
    }

    /// Runs to completion and returns steady-state per-query outcomes.
    ///
    /// Single-slot configurations (k = 1, the entire prediction path)
    /// take the heap-free direct recurrence of the crate-private
    /// `direct` module; every other slot count runs the binary-heap
    /// event calendar ([`Qsim::run_event_driven`]). The two are
    /// bit-identical at k = 1 — the direct engine replicates the
    /// calendar's microsecond quantization, floating-point operation
    /// order and event tie order exactly, and randomized regression
    /// tests hold that line.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Runtime`] if the event calendar drains
    /// with queries outstanding or a slot invariant is violated — both
    /// indicate a simulator bug, surfaced as a typed error rather than
    /// a panic so batch sweeps can report and continue.
    pub fn run(mut self) -> Result<QsimResult, SprintError> {
        if self.cfg.slots == 1 {
            crate::direct::run_direct(&self.cfg, &mut self.inputs)
        } else {
            self.run_event_driven()
        }
    }

    /// Runs to completion and returns only the steady-state mean
    /// response time — bit-identical to
    /// `run()?.mean_response_secs()` (same values summed in the same
    /// order) but without materializing per-query records on the
    /// single-slot fast path. Prediction batches use this.
    ///
    /// # Errors
    ///
    /// As [`Qsim::run`].
    ///
    /// # Panics
    ///
    /// Panics if the run produced no steady-state queries, mirroring
    /// [`QsimResult::mean_response_secs`].
    pub fn run_mean_response(mut self) -> Result<f64, SprintError> {
        if self.cfg.slots == 1 {
            crate::direct::run_direct_mean(&self.cfg, &mut self.inputs)
        } else {
            Ok(self.run()?.mean_response_secs())
        }
    }

    /// Runs to completion on the binary-heap event calendar regardless
    /// of slot count, as the one-class case of the event loop — the
    /// reference implementation the direct engine is tested against.
    ///
    /// # Errors
    ///
    /// As [`Qsim::run`].
    pub fn run_event_driven(mut self) -> Result<QsimResult, SprintError> {
        let cfg = &*self.cfg;
        let queries = run_calendar(
            cfg.slots,
            cfg.num_queries,
            Pool::new(cfg.budget_capacity_secs, cfg.refill_secs),
            &[Class::of(cfg)],
            || 0,
            &mut self.inputs,
        )?;
        Ok(QsimResult {
            queries: queries
                .iter()
                .skip(cfg.warmup)
                .map(QInfo::outcome)
                .collect(),
        })
    }
}

/// Runs `num_queries` queries on `slots` execution slots over the
/// binary-heap event calendar and returns every query's record in
/// arrival order, warmup included.
///
/// Each arrival draws its class from `draw_class` (an index into
/// `classes`) before its service demand; `pool` is the budget all
/// classes share.
///
/// # Errors
///
/// Returns [`SprintError::Runtime`] if the calendar drains with queries
/// outstanding or a slot invariant is violated — both indicate a
/// simulator bug, surfaced as a typed error rather than a panic so
/// batch sweeps can report and continue.
pub(crate) fn run_calendar(
    slots: usize,
    num_queries: usize,
    pool: Pool,
    classes: &[Class<'_>],
    draw_class: impl FnMut() -> usize,
    inputs: &mut Inputs,
) -> Result<Vec<QInfo>, SprintError> {
    let mut cal = Calendar {
        classes,
        draw_class,
        inputs,
        events: EventQueue::new(),
        fifo: VecDeque::new(),
        slots: (0..slots).map(|_| None).collect(),
        pool,
        queries: Vec::with_capacity(num_queries),
        done: 0,
        arrivals_left: num_queries,
        next_gen: 0,
    };
    let gap = cal.inputs.next_gap();
    cal.events.schedule(SimTime::ZERO + gap, Ev::Arrival);
    while cal.done < num_queries {
        let Some((now, ev)) = cal.events.pop() else {
            return Err(SprintError::runtime(
                "qsim::sim::run_calendar",
                format!(
                    "event queue drained with {} of {num_queries} queries outstanding",
                    num_queries - cal.done
                ),
            ));
        };
        match ev {
            Ev::Arrival => cal.on_arrival(now)?,
            Ev::Timeout(id) => cal.on_timeout(now, id)?,
            Ev::Slot { slot, gen } => cal.on_slot(now, slot, gen)?,
        }
    }
    Ok(cal.queries)
}

/// The event loop's state for one run.
struct Calendar<'r, D> {
    classes: &'r [Class<'r>],
    draw_class: D,
    inputs: &'r mut Inputs,
    events: EventQueue<Ev>,
    fifo: VecDeque<u64>,
    slots: Vec<Option<RunningQuery>>,
    pool: Pool,
    queries: Vec<QInfo>,
    done: usize,
    arrivals_left: usize,
    next_gen: u64,
}

impl<D: FnMut() -> usize> Calendar<'_, D> {
    fn on_arrival(&mut self, now: SimTime) -> Result<(), SprintError> {
        let id = self.queries.len() as u64;
        let class = (self.draw_class)();
        let spec = &self.classes[class];
        let service_secs = self.inputs.next_service_secs(spec.service);
        self.queries.push(QInfo {
            class,
            arrival: now,
            depart: SimTime::ZERO,
            service_secs,
            timed_out: false,
            sprinted: false,
            sprint_secs: 0.0,
            state: QState::Queued,
        });
        if spec.sprints {
            let at = now.saturating_add(spec.timeout);
            if at < SimTime::MAX {
                self.events.schedule(at, Ev::Timeout(id));
            }
        }
        if let Some(slot) = self.slots.iter().position(Option::is_none) {
            self.dispatch(now, id, slot)?;
        } else {
            self.fifo.push_back(id);
        }
        self.arrivals_left -= 1;
        if self.arrivals_left > 0 {
            let gap = self.inputs.next_gap();
            self.events.schedule(now + gap, Ev::Arrival);
        }
        Ok(())
    }

    fn on_timeout(&mut self, now: SimTime, id: u64) -> Result<(), SprintError> {
        match self.queries[id as usize].state {
            QState::Done => {}
            QState::Queued => {
                self.queries[id as usize].timed_out = true;
            }
            QState::Running(slot) => {
                self.queries[id as usize].timed_out = true;
                self.pool.update(now);
                if !self.pool.available() {
                    return Ok(());
                }
                let r = occupied(&mut self.slots, slot, "Calendar::on_timeout")?;
                if !r.sprinting {
                    r.advance(now);
                    r.sprinting = true;
                    self.queries[id as usize].sprinted = true;
                    self.pool.sprinting += 1;
                    self.reschedule_all_sprinting(now)?;
                }
            }
        }
        Ok(())
    }

    fn on_slot(&mut self, now: SimTime, slot: usize, gen: u64) -> Result<(), SprintError> {
        let Some(r) = self.slots[slot].as_ref() else {
            return Ok(());
        };
        if r.gen != gen {
            return Ok(());
        }
        self.pool.update(now);
        let r = occupied(&mut self.slots, slot, "Calendar::on_slot")?;
        let was_sprinting = r.sprinting;
        r.advance(now);
        // Two microseconds of slack: completion events are scheduled at
        // microsecond resolution and may round down by up to half a
        // microsecond.
        if r.remaining_work <= 2e-6 {
            self.complete(now, slot)?;
        } else if was_sprinting && !self.pool.available() {
            // Budget ran dry mid-sprint: fall back to sustained speed.
            r.sprinting = false;
            self.pool.sprinting -= 1;
            self.reschedule_all_sprinting(now)?;
            self.reschedule(now, slot)?;
        } else {
            self.reschedule(now, slot)?;
        }
        Ok(())
    }

    fn complete(&mut self, now: SimTime, slot: usize) -> Result<(), SprintError> {
        let r = self.slots[slot].take().ok_or_else(|| {
            SprintError::runtime(
                "Calendar::complete",
                format!("slot {slot} unexpectedly empty"),
            )
        })?;
        if r.sprinting {
            self.pool.sprinting -= 1;
            self.reschedule_all_sprinting(now)?;
        }
        let info = &mut self.queries[r.query as usize];
        info.state = QState::Done;
        info.depart = now;
        info.sprint_secs = r.sprint_secs;
        self.done += 1;
        if let Some(next) = self.fifo.pop_front() {
            self.dispatch(now, next, slot)?;
        }
        Ok(())
    }

    fn dispatch(&mut self, now: SimTime, id: u64, slot: usize) -> Result<(), SprintError> {
        let info = &mut self.queries[id as usize];
        info.state = QState::Running(slot);
        let remaining_work = info.service_secs;
        let speedup = self.classes[info.class].speedup;
        let mut sprinting = false;
        // Only a class that can sprint arms a timeout, so a timed-out
        // query's class can.
        if info.timed_out {
            self.pool.update(now);
            if self.pool.available() {
                sprinting = true;
                info.sprinted = true;
                self.pool.sprinting += 1;
            }
        }
        self.slots[slot] = Some(RunningQuery {
            query: id,
            remaining_work,
            speedup,
            sprinting,
            sprint_secs: 0.0,
            last_update: now,
            gen: 0,
        });
        if sprinting {
            // Drain rate changed for every other sprinting slot too.
            self.reschedule_all_sprinting(now)?;
        } else {
            self.reschedule(now, slot)?;
        }
        Ok(())
    }

    fn reschedule(&mut self, now: SimTime, slot: usize) -> Result<(), SprintError> {
        self.next_gen += 1;
        let gen = self.next_gen;
        let r = occupied(&mut self.slots, slot, "Calendar::reschedule")?;
        r.gen = gen;
        let speed = if r.sprinting { r.speedup } else { 1.0 };
        let mut horizon = r.remaining_work / speed;
        if r.sprinting {
            if let Some(exhaust) = self.pool.seconds_to_exhaustion() {
                horizon = horizon.min(exhaust);
            }
        }
        self.events.schedule(
            now + SimDuration::from_secs_f64_ceil(horizon),
            Ev::Slot { slot, gen },
        );
        Ok(())
    }

    fn reschedule_all_sprinting(&mut self, now: SimTime) -> Result<(), SprintError> {
        for i in 0..self.slots.len() {
            let needs = matches!(&self.slots[i], Some(r) if r.sprinting);
            if needs {
                occupied(&mut self.slots, i, "Calendar::reschedule_all_sprinting")?.advance(now);
                self.reschedule(now, i)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::DistKind;
    use simcore::time::Rate;

    fn cfg_mm1(util: f64, mean_service_secs: f64, seed: u64) -> QsimConfig {
        let mu = 3_600.0 / mean_service_secs;
        QsimConfig::mm1(
            Rate::per_hour(mu * util),
            Dist::exponential(SimDuration::from_secs_f64(mean_service_secs)),
            seed,
        )
    }

    /// M/M/1 mean response time: 1 / (µ - λ).
    fn mm1_expected(util: f64, mean_service_secs: f64) -> f64 {
        mean_service_secs / (1.0 - util)
    }

    #[test]
    fn mm1_matches_closed_form_low_load() {
        let mut c = cfg_mm1(0.3, 60.0, 7);
        c.num_queries = 40_000;
        c.warmup = 2_000;
        let r = Qsim::new(c).unwrap().run().unwrap();
        let expect = mm1_expected(0.3, 60.0);
        let got = r.mean_response_secs();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "M/M/1 at 30%: {got:.1} vs {expect:.1}"
        );
    }

    #[test]
    fn mm1_matches_closed_form_high_load() {
        let mut c = cfg_mm1(0.8, 60.0, 11);
        c.num_queries = 200_000;
        c.warmup = 20_000;
        let r = Qsim::new(c).unwrap().run().unwrap();
        let expect = mm1_expected(0.8, 60.0);
        let got = r.mean_response_secs();
        assert!(
            (got - expect).abs() / expect < 0.08,
            "M/M/1 at 80%: {got:.1} vs {expect:.1}"
        );
    }

    #[test]
    fn md1_waiting_time_half_of_mm1() {
        // M/D/1 mean wait = ρ/(2(1-ρ)) * s — half the M/M/1 wait.
        let util = 0.7;
        let s = 60.0;
        let mut c = cfg_mm1(util, s, 13);
        c.service = Dist::deterministic(SimDuration::from_secs_f64(s));
        c.num_queries = 100_000;
        c.warmup = 10_000;
        let r = Qsim::new(c).unwrap().run().unwrap();
        let expect = s + util * s / (2.0 * (1.0 - util));
        let got = r.mean_response_secs();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "M/D/1: {got:.1} vs {expect:.1}"
        );
    }

    #[test]
    fn mmk_runs_and_beats_mm1_wait() {
        let mut c = cfg_mm1(0.8, 60.0, 17);
        c.slots = 4;
        c.arrival_rate = Rate::per_hour(4.0 * 0.8 * 60.0);
        c.num_queries = 50_000;
        c.warmup = 5_000;
        let r = Qsim::new(c).unwrap().run().unwrap();
        // With 4 servers at the same per-server utilization, waiting is
        // much shorter than M/M/1; response must be below M/M/1's 300 s.
        assert!(r.mean_response_secs() < 300.0 * 0.7);
        assert!(r.mean_response_secs() > 60.0);
    }

    #[test]
    fn always_sprint_with_unlimited_budget_scales_service() {
        let mut c = cfg_mm1(0.3, 60.0, 19);
        c.sprint_speedup = 2.0;
        c.timeout = SimDuration::ZERO;
        c.budget_capacity_secs = f64::INFINITY;
        c.num_queries = 30_000;
        c.warmup = 3_000;
        let r = Qsim::new(c).unwrap().run().unwrap();
        // Every query sprints from dispatch: service effectively 30 s,
        // λ unchanged -> utilization 0.15.
        let expect = 30.0 / (1.0 - 0.15);
        let got = r.mean_response_secs();
        assert!(
            (got - expect).abs() / expect < 0.06,
            "sprinted M/M/1: {got:.1} vs {expect:.1}"
        );
        assert!((r.sprint_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_never_sprints() {
        let mut c = cfg_mm1(0.5, 60.0, 23);
        c.sprint_speedup = 3.0;
        c.timeout = SimDuration::ZERO;
        c.budget_capacity_secs = 0.0;
        c.num_queries = 5_000;
        c.warmup = 500;
        let r = Qsim::new(c).unwrap().run().unwrap();
        assert_eq!(r.sprint_fraction(), 0.0);
    }

    #[test]
    fn tight_budget_sprints_some_not_all() {
        let mut c = cfg_mm1(0.9, 60.0, 29);
        c.sprint_speedup = 2.0;
        c.timeout = SimDuration::from_secs(90);
        c.budget_capacity_secs = 120.0;
        c.refill_secs = 2_000.0;
        c.num_queries = 20_000;
        c.warmup = 2_000;
        let r = Qsim::new(c).unwrap().run().unwrap();
        let f = r.sprint_fraction();
        assert!(f > 0.0, "some queries must sprint");
        assert!(f < 0.9, "budget must throttle sprinting, got {f}");
    }

    #[test]
    fn sprinting_reduces_response_time_under_load() {
        let base_cfg = {
            let mut c = cfg_mm1(0.85, 60.0, 31);
            c.num_queries = 30_000;
            c.warmup = 3_000;
            c
        };
        let base = Qsim::new(base_cfg.clone())
            .unwrap()
            .run()
            .unwrap()
            .mean_response_secs();
        let mut sprint_cfg = base_cfg;
        sprint_cfg.sprint_speedup = 2.0;
        sprint_cfg.timeout = SimDuration::from_secs(120);
        sprint_cfg.budget_capacity_secs = 400.0;
        sprint_cfg.refill_secs = 800.0;
        let fast = Qsim::new(sprint_cfg)
            .unwrap()
            .run()
            .unwrap()
            .mean_response_secs();
        assert!(
            fast < base * 0.85,
            "sprinting should cut response time: {fast:.0} vs {base:.0}"
        );
    }

    #[test]
    fn deterministic_replay() {
        let mut c = cfg_mm1(0.7, 60.0, 37);
        c.sprint_speedup = 1.8;
        c.timeout = SimDuration::from_secs(100);
        c.budget_capacity_secs = 100.0;
        c.refill_secs = 500.0;
        c.num_queries = 3_000;
        c.warmup = 300;
        let a = Qsim::new(c.clone()).unwrap().run().unwrap();
        let b = Qsim::new(c).unwrap().run().unwrap();
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn timeout_marks_only_slow_queries() {
        let mut c = cfg_mm1(0.8, 60.0, 41);
        c.sprint_speedup = 2.0;
        c.timeout = SimDuration::from_secs(100);
        c.budget_capacity_secs = f64::INFINITY;
        c.num_queries = 10_000;
        c.warmup = 1_000;
        let r = Qsim::new(c).unwrap().run().unwrap();
        for q in &r.queries {
            if q.timed_out {
                assert!(q.response_secs() >= 100.0 - 1e-6);
            } else {
                assert!(q.response_secs() < 100.0 + 1e-6);
            }
        }
    }

    #[test]
    fn pareto_arrivals_heavier_queueing_than_poisson() {
        let mut pois = cfg_mm1(0.6, 60.0, 43);
        pois.num_queries = 40_000;
        pois.warmup = 4_000;
        let mut par = pois.clone();
        par.arrival_kind = DistKind::Pareto { alpha: 0.5 };
        par.seed = 44;
        let rp = Qsim::new(pois).unwrap().run().unwrap().mean_response_secs();
        let rr = Qsim::new(par).unwrap().run().unwrap().mean_response_secs();
        assert!(
            rr > rp,
            "heavy-tailed arrivals should queue worse: {rr:.0} !> {rp:.0}"
        );
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut c = cfg_mm1(0.5, 60.0, 47);
        c.sprint_speedup = 0.0;
        assert!(Qsim::new(c).is_err());
        let mut c = cfg_mm1(0.5, 60.0, 47);
        c.slots = 0;
        assert!(Qsim::new(c).is_err());
        let mut c = cfg_mm1(0.5, 60.0, 47);
        c.budget_capacity_secs = f64::NAN;
        assert!(Qsim::new(c).is_err());
        let mut c = cfg_mm1(0.5, 60.0, 47);
        c.refill_secs = -1.0;
        assert!(Qsim::new(c).is_err());
    }

    #[test]
    fn sub_unit_speedup_slows_timed_out_queries() {
        // A negative effective correction (µe < µ) makes sprinted
        // queries slower — Eq. 2's way of absorbing runtime drag.
        let mut c = cfg_mm1(0.5, 60.0, 53);
        c.num_queries = 20_000;
        c.warmup = 2_000;
        let base = Qsim::new(c.clone())
            .unwrap()
            .run()
            .unwrap()
            .mean_response_secs();
        c.sprint_speedup = 0.8;
        c.timeout = SimDuration::from_secs(90);
        c.budget_capacity_secs = f64::INFINITY;
        let slowed = Qsim::new(c).unwrap().run().unwrap().mean_response_secs();
        assert!(slowed > base, "{slowed} !> {base}");
    }
}
