//! Request cloning with processor-sharing service.
//!
//! "Modeling of Request Cloning in Cloud Server Systems using
//! Processor Sharing" studies a workload class the sprint testbed never
//! exercised: every request is *cloned* to several execution slots, the
//! clones race, the first finisher wins, and the siblings are cancelled
//! (cancel-on-first-complete). Each slot serves its resident clones
//! processor-sharing — n residents each progress at `1/n` of the slot's
//! speed — so cloning trades lower low-load latency (the race) against
//! extra service pressure at high load (the siblings occupy capacity
//! until cancelled).
//!
//! The engine composes that semantics with the paper's sprinting model:
//! a request whose timeout fires engages a sprint (budget permitting),
//! multiplying the PS share of *its* clones by the sprint speedup until
//! the request departs or the shared budget runs dry.
//!
//! Cloning-specific fault classes ride along, each drawn from the seed
//! up-front so replay is bit-identical regardless of dynamics:
//!
//! - **spawn-fail** — a secondary clone fails to launch (the request
//!   always keeps its primary clone);
//! - **straggler** — a clone's service requirement is inflated by a
//!   fixed factor;
//! - **cancel-loss** — a cancellation message is lost, leaving a
//!   *ghost* clone that runs to completion, wasting capacity; a ghost
//!   finishing must never double-count as a request departure.
//!
//! Two engines share every arithmetic expression but keep state
//! differently. Their outputs must match bit-for-bit — the differential
//! oracle that guards the incremental bookkeeping (the scenario
//! catalog's `bit-identity` invariant and the tests below).
//!
//! - [`Cloning::run`] maintains per-slot resident counts and the set of
//!   sprinting requests across events. An event costs O(live clones),
//!   and an arrival also sorts the slots.
//! - [`Cloning::run_reference`] recounts slot occupancy from the live
//!   table, and finds sprint drain and charging by scanning every
//!   arrived request, at every event; it reads neither the resident
//!   counts nor the sprinting set. That keeps it O(requests so far +
//!   live clones + slots) per event on purpose: an oracle that trusted
//!   the incremental state could not catch its bugs.
//!
//! Both engines find the next completion in one scan of the live table,
//! copy each clone's pre-drawn cancel-loss flag into its live entry at
//! spawn, so cancelling siblings needs no lookup in the plan, and cancel
//! in place, keeping the live table's order.

use simcore::dist::Dist;
use simcore::stats::Percentiles;
use simcore::time::{Rate, SimDuration};
use simcore::{Budget, SprintError};

use crate::config::SimQuery;

/// Service requirements below this floor are clamped, mirroring the
/// G/G/k engine's guard against zero-length service draws.
const MIN_SERVICE_SECS: f64 = 1e-6;

/// Hard cap on processed events; exceeding it means the simulation is
/// stuck and a typed error is returned instead of looping forever.
const MAX_EVENTS: u64 = 50_000_000;

/// Most clones a run plans (`num_queries × clones`, so also most
/// requests): half the 50M-event cap. Every request needs its own
/// arrival and winning-completion events, so a run of more requests
/// exhausts the cap before its last departure, and the pre-drawn plan
/// holds every clone before the first event, so bounding the product
/// bounds what a run allocates up front.
pub const MAX_QUERIES: usize = (MAX_EVENTS / 2) as usize;

/// Widest slot pool a run accepts. Every arrival sorts the slots by
/// occupancy and the reference engine recounts every slot at each
/// event, so the slot count is part of the per-event cost; a thousand
/// processor-sharing slots is far past the racing regime this engine
/// models.
pub const MAX_SLOTS: usize = 1024;

/// Cloning-specific fault classes. All probabilities are per-clone and
/// drawn up-front from the seed, so a plan's randomness is independent
/// of the run's dynamics (bit-identical replay under every class).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloningFaults {
    /// Probability that a *secondary* clone fails to spawn (the primary
    /// clone always launches, so every request keeps at least one).
    pub spawn_fail_prob: f64,
    /// Probability that a clone's cancellation is lost when its sibling
    /// wins, leaving a ghost that runs to completion.
    pub cancel_loss_prob: f64,
    /// Probability that a clone is a straggler.
    pub straggler_prob: f64,
    /// Service-requirement inflation applied to stragglers (≥ 1).
    pub straggler_factor: f64,
}

impl Default for CloningFaults {
    fn default() -> Self {
        CloningFaults {
            spawn_fail_prob: 0.0,
            cancel_loss_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
        }
    }
}

impl CloningFaults {
    /// Whether every fault class is disabled.
    pub fn is_noop(&self) -> bool {
        self.spawn_fail_prob == 0.0 && self.cancel_loss_prob == 0.0 && self.straggler_prob == 0.0
    }

    /// Validates probabilities and the straggler factor.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] on a probability outside
    /// `[0, 1]` or a straggler factor below 1.
    pub fn validate(&self) -> Result<(), SprintError> {
        for (what, p) in [
            ("CloningFaults::spawn_fail_prob", self.spawn_fail_prob),
            ("CloningFaults::cancel_loss_prob", self.cancel_loss_prob),
            ("CloningFaults::straggler_prob", self.straggler_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(SprintError::invalid(
                    what,
                    format!("probability must be in [0, 1], got {p}"),
                ));
            }
        }
        if !self.straggler_factor.is_finite() || self.straggler_factor < 1.0 {
            return Err(SprintError::invalid(
                "CloningFaults::straggler_factor",
                format!("must be finite and >= 1, got {}", self.straggler_factor),
            ));
        }
        Ok(())
    }
}

/// Configuration for one cloning run.
#[derive(Debug, Clone)]
pub struct CloningConfig {
    /// Mean request arrival rate λ (Poisson arrivals).
    pub arrival_rate: Rate,
    /// Per-clone service-requirement distribution (clones draw i.i.d.).
    pub service: Dist,
    /// Clones spawned per request, racing on distinct slots.
    pub clones: usize,
    /// Execution slots, each serving its residents processor-sharing.
    pub slots: usize,
    /// Speedup multiplying a sprinting request's PS shares.
    pub sprint_speedup: f64,
    /// Timeout after arrival that triggers sprinting;
    /// [`SimDuration::MAX`] disables sprinting.
    pub timeout: SimDuration,
    /// Sprint budget capacity in sprint-seconds.
    pub budget_capacity_secs: f64,
    /// Time for an empty budget to refill while nothing sprints.
    pub refill_secs: f64,
    /// Requests to simulate.
    pub num_queries: usize,
    /// Leading requests excluded from statistics.
    pub warmup: usize,
    /// RNG seed; arrivals, service draws and fault draws all derive
    /// from it.
    pub seed: u64,
    /// Cloning fault plan.
    pub faults: CloningFaults,
}

impl CloningConfig {
    /// A fault-free low-load racing setup: `clones` clones over twice
    /// as many slots, exponential service, no sprinting.
    pub fn low_load(
        arrival_rate: Rate,
        mean_service: SimDuration,
        clones: usize,
        seed: u64,
    ) -> CloningConfig {
        CloningConfig {
            arrival_rate,
            service: Dist::exponential(mean_service),
            clones,
            slots: clones.max(1) * 2,
            sprint_speedup: 1.0,
            timeout: SimDuration::MAX,
            budget_capacity_secs: 0.0,
            refill_secs: 1.0,
            num_queries: 2_000,
            warmup: 200,
            seed,
            faults: CloningFaults::default(),
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(&self, seed: u64) -> CloningConfig {
        CloningConfig {
            seed,
            ..self.clone()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] on out-of-range sizing
    /// (including `num_queries × clones` above [`MAX_QUERIES`] or
    /// `slots` above [`MAX_SLOTS`]), rates, probabilities, or
    /// `clones > slots`.
    pub fn validate(&self) -> Result<(), SprintError> {
        SprintError::require_positive("CloningConfig::arrival_rate", self.arrival_rate.qps())?;
        SprintError::require_nonzero("CloningConfig::clones", self.clones)?;
        SprintError::require_nonzero("CloningConfig::slots", self.slots)?;
        if self.slots > MAX_SLOTS {
            return Err(SprintError::invalid(
                "CloningConfig::slots",
                format!("at most {MAX_SLOTS} slots, got {}", self.slots),
            ));
        }
        if self.num_queries.saturating_mul(self.clones) > MAX_QUERIES {
            return Err(SprintError::invalid(
                "CloningConfig::num_queries",
                format!(
                    "{} requests x {} clones: a run plans at most {MAX_QUERIES} clones, \
                     and at most {MAX_QUERIES} requests fit the {MAX_EVENTS}-event budget",
                    self.num_queries, self.clones
                ),
            ));
        }
        if self.clones > self.slots {
            return Err(SprintError::invalid(
                "CloningConfig::clones",
                format!(
                    "clones race on distinct slots: {} clones need {} slots, have {}",
                    self.clones, self.clones, self.slots
                ),
            ));
        }
        if !self.sprint_speedup.is_finite() || self.sprint_speedup < 1.0 {
            return Err(SprintError::invalid(
                "CloningConfig::sprint_speedup",
                format!("must be finite and >= 1, got {}", self.sprint_speedup),
            ));
        }
        SprintError::require_non_negative(
            "CloningConfig::budget_capacity_secs",
            self.budget_capacity_secs,
        )?;
        SprintError::require_positive("CloningConfig::refill_secs", self.refill_secs)?;
        SprintError::require_nonzero("CloningConfig::num_queries", self.num_queries)?;
        if self.warmup >= self.num_queries {
            return Err(SprintError::invalid(
                "CloningConfig::warmup",
                format!(
                    "warmup {} must stay below num_queries {}",
                    self.warmup, self.num_queries
                ),
            ));
        }
        let mean = self.service.mean().as_secs_f64();
        SprintError::require_positive("CloningConfig::service", mean)?;
        self.faults.validate()
    }

    /// First-order model of the cloning dynamics at *low load*: clones
    /// race on otherwise-idle slots, so with exponential service of
    /// mean `m` the winner of `d` i.i.d. clones departs after `m / d`
    /// on average; a from-arrival sprint (zero timeout, unlimited
    /// budget) further divides by the sprint speedup. The sprint model
    /// predicting the cloning dynamics is anchored against this value
    /// in the conformance suite.
    pub fn predicted_low_load_mean_secs(&self) -> f64 {
        let base = self.service.mean().as_secs_f64() / self.clones as f64;
        if self.timeout.is_zero() && self.budget_capacity_secs.is_infinite() {
            base / self.sprint_speedup
        } else {
            base
        }
    }
}

/// Aggregated outcome of one cloning run.
#[derive(Debug, Clone, PartialEq)]
pub struct CloningResult {
    /// Steady-state per-request outcomes (warmup removed), in arrival
    /// order. A request departs exactly once — when its first clone
    /// completes.
    pub queries: Vec<SimQuery>,
    /// Clones actually launched.
    pub spawned: u64,
    /// Requests completed by a winning clone (equals the configured
    /// request count on a conserving run).
    pub winners: u64,
    /// Sibling clones cancelled when their request's winner finished.
    pub cancelled: u64,
    /// Clones whose cancellation was lost and kept running (ghosts).
    pub ghosts: u64,
    /// Secondary clones that failed to spawn.
    pub spawn_failed: u64,
    /// Clones whose service requirement was straggler-inflated.
    pub stragglers: u64,
    /// Service work consumed by clones that did not win, in seconds at
    /// sustained speed.
    pub wasted_secs: f64,
}

impl CloningResult {
    /// Mean response time over steady-state requests, seconds.
    ///
    /// # Panics
    ///
    /// Panics if the run produced no steady-state requests.
    pub fn mean_response_secs(&self) -> f64 {
        assert!(!self.queries.is_empty(), "empty cloning result");
        self.queries
            .iter()
            .map(SimQuery::response_secs)
            .sum::<f64>()
            / self.queries.len() as f64
    }

    /// Response-time quantile over steady-state requests, seconds.
    pub fn response_quantile_secs(&self, q: f64) -> f64 {
        Percentiles::from_samples(self.queries.iter().map(SimQuery::response_secs).collect())
            .quantile(q)
    }

    /// Fraction of steady-state requests that sprinted.
    pub fn sprint_fraction(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().filter(|q| q.sprinted).count() as f64 / self.queries.len() as f64
    }

    /// Fraction of steady-state requests whose timeout fired but that
    /// never sprinted (budget starvation).
    pub fn starved_fraction(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .filter(|q| q.timed_out && !q.sprinted)
            .count() as f64
            / self.queries.len() as f64
    }

    /// Cancel-on-first-complete conservation: every launched clone is
    /// accounted exactly once as a winner, a cancelled sibling, or a
    /// ghost — no double-counted completions.
    pub fn conserves_clones(&self) -> bool {
        self.spawned == self.winners + self.cancelled + self.ghosts
    }
}

/// One pre-drawn clone: its service requirement and fault draws. All
/// randomness lives here, fixed before the first event.
#[derive(Debug, Clone, Copy)]
struct ClonePlan {
    work_secs: f64,
    spawn_fails: bool,
    straggler: bool,
    cancel_lost: bool,
}

/// The complete pre-drawn run: request `r` arrives at `arrivals[r]`
/// and races clones `clones[r * k .. (r + 1) * k]`, `k` clones per
/// request.
#[derive(Debug)]
struct RunPlan {
    arrivals: Vec<f64>,
    clones: Vec<ClonePlan>,
}

/// Draws the complete run plan from the seed: arrival times, per-clone
/// service requirements and fault coin flips, in a fixed order that
/// does not depend on simulation dynamics.
fn draw_plan(cfg: &CloningConfig) -> RunPlan {
    let mut root = simcore::rng::SimRng::new(cfg.seed);
    let mut arrival_rng = root.split(1);
    let mut service_rng = root.split(2);
    let mut fault_rng = root.split(3);
    let arrival_dist = Dist::exponential(cfg.arrival_rate.mean_interval());
    let mut at = 0.0_f64;
    let mut arrivals = Vec::with_capacity(cfg.num_queries);
    let mut clones = Vec::with_capacity(cfg.num_queries * cfg.clones);
    for _ in 0..cfg.num_queries {
        at += arrival_dist.sample(&mut arrival_rng).as_secs_f64();
        arrivals.push(at);
        for c in 0..cfg.clones {
            let mut work = cfg
                .service
                .sample(&mut service_rng)
                .as_secs_f64()
                .max(MIN_SERVICE_SECS);
            let spawn_fails = c > 0 && fault_rng.chance(cfg.faults.spawn_fail_prob);
            let straggler = fault_rng.chance(cfg.faults.straggler_prob);
            if straggler {
                work *= cfg.faults.straggler_factor;
            }
            let cancel_lost = fault_rng.chance(cfg.faults.cancel_loss_prob);
            clones.push(ClonePlan {
                work_secs: work,
                spawn_fails,
                straggler,
                cancel_lost,
            });
        }
    }
    RunPlan { arrivals, clones }
}

/// Live clone state.
#[derive(Debug, Clone, Copy)]
struct LiveClone {
    /// Owning request index; `usize::MAX`-free — ghosts keep it for
    /// accounting but no longer affect the request.
    req: usize,
    slot: usize,
    remaining_secs: f64,
    initial_secs: f64,
    /// The clone's pre-drawn cancel-loss flag, copied from its plan at
    /// spawn: whether it ghosts on when a sibling wins.
    cancel_lost: bool,
    /// A ghost's request already departed; it drains at sustained speed
    /// and its completion is not a departure.
    ghost: bool,
}

/// Per-request dynamic state.
#[derive(Debug, Clone, Copy)]
struct ReqState {
    arrival_secs: f64,
    timed_out: bool,
    sprinting: bool,
    sprinted: bool,
    sprint_secs: f64,
    departed: bool,
}

/// The next event the engine will process, in deterministic priority
/// order on time ties.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A clone (by live-table key) finishes its remaining work.
    Completion(u64),
    /// The draining budget pool hits empty.
    BudgetEmpty,
    /// A request's sprint timeout fires.
    Timeout(usize),
    /// The next request arrives.
    Arrival,
}

impl Ev {
    /// Priority on exact time ties (lower wins): completions resolve
    /// before budget/timeout bookkeeping, arrivals last.
    fn rank(self) -> u8 {
        match self {
            Ev::Completion(_) => 0,
            Ev::BudgetEmpty => 1,
            Ev::Timeout(_) => 2,
            Ev::Arrival => 3,
        }
    }
}

/// The PS share progress rate of a clone: its slot speed split over the
/// residents, multiplied by the sprint factor. Both engines call this
/// one expression so candidate times agree bit-for-bit.
#[inline]
fn clone_rate(factor: f64, residents: usize) -> f64 {
    factor / residents as f64
}

/// The sprint factor of a clone: the speedup while its request sprints,
/// sustained speed otherwise (ghosts always drain at sustained speed).
#[inline]
fn sprint_factor(c: &LiveClone, reqs: &[ReqState], speedup: f64) -> f64 {
    if !c.ghost && reqs[c.req].sprinting {
        speedup
    } else {
        1.0
    }
}

/// Request-cloning simulator with processor-sharing slots.
#[derive(Debug, Clone)]
pub struct Cloning {
    cfg: CloningConfig,
}

impl Cloning {
    /// Validates the configuration and builds a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] on an invalid
    /// configuration.
    pub fn new(cfg: CloningConfig) -> Result<Cloning, SprintError> {
        cfg.validate()?;
        Ok(Cloning { cfg })
    }

    /// Runs the incremental engine.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Runtime`] if the event budget is
    /// exhausted (a stuck simulation).
    pub fn run(&self) -> Result<CloningResult, SprintError> {
        simulate(&self.cfg, false)
    }

    /// Runs the reference engine: identical arithmetic, but slot
    /// occupancy, sprint drain and candidate completions are recomputed
    /// from scratch at every event instead of being maintained
    /// incrementally. Output must be bit-identical to [`Cloning::run`].
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Runtime`] if the event budget is
    /// exhausted (a stuck simulation).
    pub fn run_reference(&self) -> Result<CloningResult, SprintError> {
        simulate(&self.cfg, true)
    }
}

/// Whether two results are bit-identical (floats compared by bits, so
/// `-0.0 != 0.0` and NaNs never sneak through an equality).
pub fn results_bit_identical(a: &CloningResult, b: &CloningResult) -> bool {
    let f = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.queries.len() == b.queries.len()
        && a.queries.iter().zip(&b.queries).all(|(x, y)| {
            f(x.arrival_secs, y.arrival_secs)
                && f(x.depart_secs, y.depart_secs)
                && x.timed_out == y.timed_out
                && x.sprinted == y.sprinted
                && f(x.sprint_secs, y.sprint_secs)
        })
        && a.spawned == b.spawned
        && a.winners == b.winners
        && a.cancelled == b.cancelled
        && a.ghosts == b.ghosts
        && a.spawn_failed == b.spawn_failed
        && a.stragglers == b.stragglers
        && f(a.wasted_secs, b.wasted_secs)
}

#[allow(clippy::too_many_lines)]
fn simulate(cfg: &CloningConfig, reference: bool) -> Result<CloningResult, SprintError> {
    let plan = draw_plan(cfg);
    let sprint_on = cfg.timeout != SimDuration::MAX && cfg.budget_capacity_secs > 0.0;
    let timeout_secs = cfg.timeout.as_secs_f64();

    let mut reqs: Vec<ReqState> = Vec::with_capacity(cfg.num_queries);
    // Live clones keyed by a monotonically increasing id; the map stays
    // insertion-ordered via a Vec of (key, clone) pairs so both engines
    // iterate identically.
    let mut live: Vec<(u64, LiveClone)> = Vec::new();
    let mut next_key: u64 = 0;
    // Incremental state (the fast path's bookkeeping under test): both
    // engines keep it current, only the incremental engine reads it.
    let mut slot_residents = vec![0usize; cfg.slots];
    let mut sprinting: Vec<usize> = Vec::new();
    // Scratch reused by every event: the reference's recounted
    // occupancy and the least-loaded slot order of an arrival.
    let mut recount = vec![0usize; cfg.slots];
    let mut order: Vec<usize> = Vec::with_capacity(cfg.slots);

    let mut depart_secs = vec![0.0_f64; cfg.num_queries];
    // Both engines move the budget by the drain count they find, so it
    // keeps no sprint count of its own.
    let mut budget = Budget::new(cfg.budget_capacity_secs, cfg.refill_secs);
    let mut now = 0.0_f64;
    let mut next_arrival = 0usize;
    let mut departed = 0usize;
    // Timeouts fire in arrival order (constant offset), so a cursor
    // suffices; departed requests are skipped when it advances.
    let mut timeout_cursor = 0usize;

    let mut spawned = 0u64;
    let mut winners = 0u64;
    let mut cancelled = 0u64;
    let mut ghosts = 0u64;
    let mut spawn_failed = 0u64;
    let mut stragglers = 0u64;
    let mut wasted = 0.0_f64;
    let mut events = 0u64;

    while departed < cfg.num_queries {
        events += 1;
        if events > MAX_EVENTS {
            return Err(SprintError::runtime(
                "cloning::simulate",
                format!("event budget exhausted after {MAX_EVENTS} events"),
            ));
        }

        // The reference engine recomputes occupancy and drain from
        // scratch; the incremental engine trusts its own state.
        let residents_of: &[usize] = if reference {
            recount.fill(0);
            for (_, c) in &live {
                recount[c.slot] += 1;
            }
            &recount
        } else {
            &slot_residents
        };
        let drain_reqs = if reference {
            reqs.iter().filter(|r| r.sprinting && !r.departed).count()
        } else {
            sprinting.len()
        };

        // Candidate: next completion, the earliest (time, key) over the
        // live table; on equal times the lower key wins.
        let mut best: Option<(f64, u64)> = None;
        for (key, c) in &live {
            let factor = sprint_factor(c, &reqs, cfg.sprint_speedup);
            let t = now + c.remaining_secs / clone_rate(factor, residents_of[c.slot]);
            match best {
                Some((bt, bk)) if (bt, bk) <= (t, *key) => {}
                _ => best = Some((t, *key)),
            }
        }

        let mut next: Option<(f64, Ev)> = best.map(|(t, k)| (t, Ev::Completion(k)));
        let mut offer = |t: f64, ev: Ev| match next {
            Some((nt, nev)) if (nt, nev.rank()) <= (t, ev.rank()) => {}
            _ => next = Some((t, ev)),
        };
        if drain_reqs > 0 && budget.available() {
            offer(now + budget.level() / drain_reqs as f64, Ev::BudgetEmpty);
        }
        if sprint_on {
            // Advance the cursor past departed/handled requests, then
            // offer the next pending timeout.
            while timeout_cursor < reqs.len()
                && (reqs[timeout_cursor].departed || reqs[timeout_cursor].timed_out)
            {
                timeout_cursor += 1;
            }
            if timeout_cursor < reqs.len() {
                offer(
                    reqs[timeout_cursor].arrival_secs + timeout_secs,
                    Ev::Timeout(timeout_cursor),
                );
            }
        }
        if next_arrival < plan.arrivals.len() {
            offer(plan.arrivals[next_arrival], Ev::Arrival);
        }

        let Some((at, ev)) = next else {
            return Err(SprintError::runtime(
                "cloning::simulate",
                format!(
                    "no next event with {} of {} requests departed",
                    departed, cfg.num_queries
                ),
            ));
        };
        let dt = at - now;

        // Advance every live clone by its PS progress over dt, charge
        // sprinting requests, and move the budget. The incremental
        // engine charges its sprinting set; the reference finds the
        // sprinting requests by scanning every arrived one.
        if dt > 0.0 {
            for (_, c) in &mut live {
                let factor = sprint_factor(c, &reqs, cfg.sprint_speedup);
                c.remaining_secs -= dt * clone_rate(factor, residents_of[c.slot]);
                if c.remaining_secs < 0.0 {
                    c.remaining_secs = 0.0;
                }
            }
            if reference {
                for r in reqs.iter_mut().filter(|r| r.sprinting && !r.departed) {
                    r.sprint_secs += dt;
                }
            } else {
                for &i in &sprinting {
                    reqs[i].sprint_secs += dt;
                }
            }
            budget.advance(dt, drain_reqs);
        }
        now = at;

        match ev {
            Ev::Arrival => {
                let req_idx = reqs.len();
                reqs.push(ReqState {
                    arrival_secs: plan.arrivals[next_arrival],
                    timed_out: false,
                    sprinting: false,
                    sprinted: false,
                    sprint_secs: 0.0,
                    departed: false,
                });
                // Clones race on the least-loaded distinct slots
                // (lowest index on ties) — chosen once, at spawn.
                order.clear();
                order.extend(0..cfg.slots);
                order.sort_unstable_by_key(|&s| (residents_of[s], s));
                let mut placed = 0usize;
                let first = next_arrival * cfg.clones;
                for cp in &plan.clones[first..first + cfg.clones] {
                    if cp.straggler {
                        stragglers += 1;
                    }
                    if cp.spawn_fails {
                        spawn_failed += 1;
                        continue;
                    }
                    let slot = order[placed.min(cfg.slots - 1)];
                    placed += 1;
                    live.push((
                        next_key,
                        LiveClone {
                            req: req_idx,
                            slot,
                            remaining_secs: cp.work_secs,
                            initial_secs: cp.work_secs,
                            cancel_lost: cp.cancel_lost,
                            ghost: false,
                        },
                    ));
                    next_key += 1;
                    spawned += 1;
                    slot_residents[slot] += 1;
                }
                next_arrival += 1;
            }
            Ev::Timeout(idx) => {
                let r = &mut reqs[idx];
                r.timed_out = true;
                if budget.available() {
                    r.sprinting = true;
                    r.sprinted = true;
                    sprinting.push(idx);
                }
            }
            Ev::BudgetEmpty => {
                budget.exhaust();
                // Force-unsprint everyone; starved requests never
                // re-engage (the pool refills only once nothing
                // sprints, and sprint engagement is at-timeout-only).
                if reference {
                    for r in reqs.iter_mut().filter(|r| r.sprinting) {
                        r.sprinting = false;
                    }
                } else {
                    for &i in &sprinting {
                        reqs[i].sprinting = false;
                    }
                }
                sprinting.clear();
            }
            Ev::Completion(key) => {
                let pos = live
                    .iter()
                    .position(|(k, _)| *k == key)
                    .expect("completion key must be live");
                let (_, done) = live.remove(pos);
                slot_residents[done.slot] -= 1;
                if done.ghost {
                    wasted += done.initial_secs;
                    continue;
                }
                let req_idx = done.req;
                winners += 1;
                departed += 1;
                depart_secs[req_idx] = now;
                let r = &mut reqs[req_idx];
                r.departed = true;
                if r.sprinting {
                    r.sprinting = false;
                    sprinting.retain(|&i| i != req_idx);
                }
                // Cancel-on-first-complete: siblings either leave now
                // or ghost on if their pre-drawn cancellation was lost.
                // `retain_mut` keeps the live table in spawn order, and
                // with it the order `wasted` is summed in.
                live.retain_mut(|(_, c)| {
                    if c.req != req_idx {
                        true
                    } else if c.cancel_lost {
                        c.ghost = true;
                        ghosts += 1;
                        true
                    } else {
                        cancelled += 1;
                        wasted += c.initial_secs - c.remaining_secs;
                        slot_residents[c.slot] -= 1;
                        false
                    }
                });
            }
        }
    }

    // Ghosts still draining when the last request departs were already
    // counted at conversion; charge the work they consumed so far.
    for (_, c) in &live {
        wasted += c.initial_secs - c.remaining_secs;
    }

    let queries = reqs
        .iter()
        .enumerate()
        .skip(cfg.warmup)
        .map(|(i, r)| SimQuery {
            arrival_secs: r.arrival_secs,
            depart_secs: depart_secs[i],
            timed_out: r.timed_out,
            sprinted: r.sprinted,
            sprint_secs: r.sprint_secs,
        })
        .collect();
    Ok(CloningResult {
        queries,
        spawned,
        winners,
        cancelled,
        ghosts,
        spawn_failed,
        stragglers,
        wasted_secs: wasted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(seed: u64) -> CloningConfig {
        CloningConfig::low_load(Rate::per_hour(30.0), SimDuration::from_secs(60), 2, seed)
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = base(1);
        c.clones = 5;
        c.slots = 2;
        assert!(Cloning::new(c).is_err());
        let mut c = base(1);
        c.sprint_speedup = 0.5;
        assert!(Cloning::new(c).is_err());
        let mut c = base(1);
        c.faults.cancel_loss_prob = 1.5;
        assert!(Cloning::new(c).is_err());
        let mut c = base(1);
        c.warmup = c.num_queries;
        assert!(Cloning::new(c).is_err());
        assert!(Cloning::new(base(1)).is_ok());
    }

    /// Sizes that could never finish, or whose pre-drawn plan would take
    /// hundreds of gigabytes, fail validation with a typed error; the
    /// bounds themselves are accepted (`new` allocates nothing, so
    /// probing them is cheap).
    #[test]
    fn validation_bounds_run_sizes() {
        let rejected = |c: CloningConfig| match Cloning::new(c) {
            Err(SprintError::InvalidConfig { what, .. }) => what,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        for (queries, clones, slots, what) in [
            (10_000_000_000, 2, 4, "CloningConfig::num_queries"),
            (MAX_QUERIES + 1, 1, 4, "CloningConfig::num_queries"),
            (MAX_QUERIES / 4 + 1, 4, 8, "CloningConfig::num_queries"),
            (2_000, 2, 100_000_000_000, "CloningConfig::slots"),
            (2_000, 2, MAX_SLOTS + 1, "CloningConfig::slots"),
        ] {
            let mut c = base(1);
            c.num_queries = queries;
            c.clones = clones;
            c.slots = slots;
            assert_eq!(
                rejected(c),
                what,
                "{queries} requests x {clones} clones on {slots} slots"
            );
        }
        for (queries, clones, slots) in [(MAX_QUERIES, 1, MAX_SLOTS), (MAX_QUERIES / 4, 4, 8)] {
            let mut c = base(1);
            c.num_queries = queries;
            c.clones = clones;
            c.slots = slots;
            assert!(Cloning::new(c).is_ok(), "{queries} x {clones} on {slots}");
        }
    }

    #[test]
    fn fault_free_run_conserves_and_races() {
        let mut c = base(7);
        c.num_queries = 500;
        c.warmup = 50;
        let r = Cloning::new(c.clone()).unwrap().run().unwrap();
        assert_eq!(r.winners, c.num_queries as u64);
        assert!(r.conserves_clones());
        assert_eq!(r.ghosts, 0);
        assert_eq!(r.spawn_failed, 0);
        assert_eq!(r.queries.len(), c.num_queries - c.warmup);
        for q in &r.queries {
            assert!(q.depart_secs > q.arrival_secs);
        }
    }

    #[test]
    fn cloning_beats_no_cloning_at_low_load() {
        // min of two i.i.d. exponentials halves the mean; queueing at
        // 5% utilization barely moves it.
        let mut solo = base(11);
        solo.clones = 1;
        solo.slots = 2;
        solo.num_queries = 4_000;
        solo.warmup = 400;
        let mut duo = base(11);
        duo.clones = 2;
        duo.slots = 4;
        duo.num_queries = 4_000;
        duo.warmup = 400;
        let rs = Cloning::new(solo).unwrap().run().unwrap();
        let rd = Cloning::new(duo).unwrap().run().unwrap();
        assert!(
            rd.mean_response_secs() < rs.mean_response_secs(),
            "cloning must win at low load: {} vs {}",
            rd.mean_response_secs(),
            rs.mean_response_secs()
        );
    }

    #[test]
    fn low_load_mean_tracks_the_model() {
        let mut c = base(13);
        c.num_queries = 6_000;
        c.warmup = 600;
        let r = Cloning::new(c.clone()).unwrap().run().unwrap();
        let predicted = c.predicted_low_load_mean_secs();
        let measured = r.mean_response_secs();
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.15,
            "model {predicted:.1}s vs measured {measured:.1}s (rel {rel:.3})"
        );
    }

    #[test]
    fn sprinting_speeds_up_the_race() {
        let mut slow = base(17);
        slow.num_queries = 2_000;
        slow.warmup = 200;
        let mut fast = slow.clone();
        fast.timeout = SimDuration::ZERO;
        fast.budget_capacity_secs = f64::INFINITY;
        fast.sprint_speedup = 2.0;
        let rs = Cloning::new(slow).unwrap().run().unwrap();
        let rf = Cloning::new(fast.clone()).unwrap().run().unwrap();
        assert!(rf.sprint_fraction() > 0.99);
        assert!(
            rf.mean_response_secs() < rs.mean_response_secs() * 0.7,
            "sprint {} vs sustained {}",
            rf.mean_response_secs(),
            rs.mean_response_secs()
        );
        let predicted = fast.predicted_low_load_mean_secs();
        let rel = (rf.mean_response_secs() - predicted).abs() / predicted;
        assert!(rel < 0.15, "sprinting model off by {rel:.3}");
    }

    #[test]
    fn budget_exhaustion_starves_late_requests() {
        let mut c = base(19);
        c.timeout = SimDuration::ZERO;
        c.sprint_speedup = 3.0;
        c.budget_capacity_secs = 30.0;
        c.refill_secs = 1e9;
        c.num_queries = 400;
        c.warmup = 0;
        let r = Cloning::new(c).unwrap().run().unwrap();
        assert!(r.sprint_fraction() > 0.0, "someone must sprint");
        assert!(
            r.starved_fraction() > 0.0,
            "a 30 s budget with no refill must starve later timeouts"
        );
    }

    fn fault_grid() -> Vec<CloningFaults> {
        vec![
            CloningFaults::default(),
            CloningFaults {
                spawn_fail_prob: 0.4,
                ..CloningFaults::default()
            },
            CloningFaults {
                cancel_loss_prob: 0.5,
                ..CloningFaults::default()
            },
            CloningFaults {
                straggler_prob: 0.3,
                straggler_factor: 4.0,
                ..CloningFaults::default()
            },
            CloningFaults {
                spawn_fail_prob: 0.25,
                cancel_loss_prob: 0.25,
                straggler_prob: 0.25,
                straggler_factor: 3.0,
            },
        ]
    }

    #[test]
    fn replay_is_bit_identical_under_every_fault_class() {
        for (i, faults) in fault_grid().into_iter().enumerate() {
            let mut c = base(23 + i as u64);
            c.num_queries = 600;
            c.warmup = 60;
            c.timeout = SimDuration::from_secs(30);
            c.budget_capacity_secs = 100.0;
            c.sprint_speedup = 2.0;
            c.faults = faults;
            let sim = Cloning::new(c).unwrap();
            let a = sim.run().unwrap();
            let b = sim.run().unwrap();
            assert!(
                results_bit_identical(&a, &b),
                "fault class {i} replay diverged"
            );
        }
    }

    #[test]
    fn reference_engine_is_bit_identical_under_every_fault_class() {
        for (i, faults) in fault_grid().into_iter().enumerate() {
            let mut c = base(101 + i as u64);
            c.num_queries = 600;
            c.warmup = 60;
            c.timeout = SimDuration::from_secs(45);
            c.budget_capacity_secs = 80.0;
            c.sprint_speedup = 2.5;
            c.faults = faults;
            let sim = Cloning::new(c).unwrap();
            let fast = sim.run().unwrap();
            let reference = sim.run_reference().unwrap();
            assert!(
                results_bit_identical(&fast, &reference),
                "fault class {i}: incremental vs reference diverged"
            );
        }
    }

    /// A seeded random configuration for the differential test. The
    /// per-slot offered load `λ · clones · m / slots` spans 5%–90%, so at
    /// the top many clones share a processor-sharing slot, and each
    /// fault class is on or off at random. Even-numbered configs sprint
    /// with timeouts below the mean service time and a budget of a few
    /// service times that refills slowly: it runs dry while several
    /// requests sprint, then refills and lets later timeouts sprint.
    fn generated_config(rng: &mut simcore::rng::SimRng, i: usize) -> CloningConfig {
        let mean_secs = 60.0;
        let mut prob = |hi: f64| {
            if rng.chance(0.5) {
                rng.uniform(0.0, hi)
            } else {
                0.0
            }
        };
        let faults = CloningFaults {
            spawn_fail_prob: prob(0.5),
            cancel_loss_prob: prob(0.8),
            straggler_prob: prob(0.5),
            straggler_factor: rng.uniform(1.0, 5.0),
        };
        let clones = 1 + rng.index(4);
        let slots = clones + rng.index(9 - clones);
        let load = rng.uniform(0.05, 0.9);
        let num_queries = 200 + rng.index(201);
        let mut c = CloningConfig {
            arrival_rate: Rate::per_sec(load * slots as f64 / (clones as f64 * mean_secs)),
            service: Dist::exponential(SimDuration::from_secs_f64(mean_secs)),
            clones,
            slots,
            sprint_speedup: 1.0,
            timeout: SimDuration::MAX,
            budget_capacity_secs: 0.0,
            refill_secs: 1.0,
            num_queries,
            warmup: rng.index(num_queries / 5),
            seed: rng.next_u64(),
            faults,
        };
        if i.is_multiple_of(2) {
            c.sprint_speedup = rng.uniform(1.5, 3.0);
            c.timeout = SimDuration::from_secs_f64(rng.uniform(0.0, 0.5) * mean_secs);
            c.budget_capacity_secs = rng.uniform(0.5, 3.0) * mean_secs;
            c.refill_secs = rng.uniform(2.0, 10.0) * mean_secs;
        }
        c
    }

    /// Most requests sprinting at one instant. A sprint engages when its
    /// request's timeout fires and runs unbroken until the request
    /// departs or the budget runs dry, so it spans
    /// `[arrival + timeout, arrival + timeout + sprint_secs]`.
    fn peak_concurrent_sprints(r: &CloningResult, timeout_secs: f64) -> i32 {
        let mut edges: Vec<(f64, i32)> = Vec::new();
        for q in r.queries.iter().filter(|q| q.sprinted) {
            let start = q.arrival_secs + timeout_secs;
            edges.push((start, 1));
            edges.push((start + q.sprint_secs, -1));
        }
        // Ends sort before starts at equal instants.
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut sprinting = 0;
        let mut peak = 0;
        for (_, step) in edges {
            sprinting += step;
            peak = peak.max(sprinting);
        }
        peak
    }

    /// Whether the budget ran dry and then refilled: some sprint ended
    /// before its request departed (the pool emptied and unsprinted
    /// everyone), and a later sprint engaged after that instant.
    fn ran_dry_and_refilled(r: &CloningResult, timeout_secs: f64) -> bool {
        let start = |q: &SimQuery| q.arrival_secs + timeout_secs;
        let dry_at = r
            .queries
            .iter()
            .filter(|q| q.sprinted && start(q) + q.sprint_secs < q.depart_secs - 1e-6)
            .map(|q| start(q) + q.sprint_secs)
            .reduce(f64::min);
        dry_at.is_some_and(|t| r.queries.iter().any(|q| q.sprinted && start(q) > t))
    }

    /// The differential oracle on generated inputs rather than the
    /// hand-picked grid above: every generated config must be
    /// bit-identical between the engines and conserve clones, and enough
    /// of the sprinting half must drain the budget under concurrent
    /// sprints and refill it, the bookkeeping the sprinting set carries.
    #[test]
    fn reference_engine_is_bit_identical_on_generated_configs() {
        let mut rng = simcore::rng::SimRng::new(0xC10E_D1FF);
        let mut stressed_budgets = 0;
        for i in 0..64 {
            let c = generated_config(&mut rng, i);
            let sim = Cloning::new(c.clone()).unwrap();
            let fast = sim.run().unwrap();
            let reference = sim.run_reference().unwrap();
            assert!(
                results_bit_identical(&fast, &reference),
                "config {i}: incremental vs reference diverged: {c:?}"
            );
            assert!(fast.conserves_clones(), "config {i}: {c:?}");
            let t = c.timeout.as_secs_f64();
            if peak_concurrent_sprints(&fast, t) >= 3 && ran_dry_and_refilled(&fast, t) {
                stressed_budgets += 1;
            }
        }
        assert!(
            stressed_budgets >= 16,
            "only {stressed_budgets} of 32 sprinting configs ran the budget dry under \
             three or more concurrent sprints and refilled it"
        );
    }

    #[test]
    fn cancel_loss_produces_ghosts_but_conserves() {
        let mut c = base(31);
        c.num_queries = 800;
        c.warmup = 0;
        c.faults.cancel_loss_prob = 0.6;
        let r = Cloning::new(c.clone()).unwrap().run().unwrap();
        assert!(r.ghosts > 0, "60% cancel loss must leave ghosts");
        assert_eq!(r.winners, c.num_queries as u64, "one departure per request");
        assert!(r.conserves_clones());
        assert!(r.wasted_secs > 0.0);
    }

    #[test]
    fn spawn_failures_never_kill_the_primary() {
        let mut c = base(37);
        c.num_queries = 500;
        c.warmup = 0;
        c.faults.spawn_fail_prob = 1.0;
        let r = Cloning::new(c.clone()).unwrap().run().unwrap();
        // Every secondary failed: requests degrade to solo execution
        // but every one of them still departs.
        assert_eq!(r.winners, c.num_queries as u64);
        assert_eq!(r.spawn_failed, c.num_queries as u64);
        assert_eq!(r.spawned, c.num_queries as u64);
        assert!(r.conserves_clones());
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv(h: &mut u64, words: impl IntoIterator<Item = u64>) {
        for b in words.into_iter().flat_map(u64::to_le_bytes) {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The bits of every field of `q`.
    fn bits(q: &SimQuery) -> [u64; 4] {
        let [a, d, s] = [q.arrival_secs, q.depart_secs, q.sprint_secs].map(f64::to_bits);
        [a, d, s, u64::from(q.timed_out) | u64::from(q.sprinted) << 1]
    }

    /// Pins every engine that drains and refills a sprint budget: qsim's
    /// direct engine (k = 1) and event calendar (k = 2) on budgets that
    /// run dry and refill, zero refill included, and both cloning
    /// engines on the catalog's three cloning plans at their committed
    /// seed and the next two, and on the generated configs above. Each
    /// entry is an FNV-1a digest of every result field's bits, so a
    /// change to the budget rule, or to when an engine applies it, shows
    /// as a changed digest.
    #[test]
    fn budget_runs_match_committed_digests() {
        use crate::config::QsimConfig;
        use crate::sim::Qsim;
        const EXPECTED: [(&str, u64); 6] = [
            ("qsim direct k=1", 0x60F3_A0D8_2875_528E),
            ("qsim calendar k=2", 0xA2E2_1533_8C78_677A),
            ("cloning catalog run", 0xC4F4_54EE_32C8_2FB4),
            ("cloning catalog reference", 0xC4F4_54EE_32C8_2FB4),
            ("cloning generated run", 0x1AB7_8D1B_D8DD_BE28),
            ("cloning generated reference", 0x1AB7_8D1B_D8DD_BE28),
        ];
        let mut got = EXPECTED.map(|(label, _)| (label, 0xCBF2_9CE4_8422_2325u64));
        for (slots, seed) in [(1, 1), (1, 2), (2, 3), (2, 4)] {
            for timeout in [0, 30, 120] {
                for (budget, refill) in [(30.0, 0.0), (60.0, 600.0), (240.0, 3_000.0)] {
                    let service = Dist::exponential(SimDuration::from_secs(60));
                    let mut c = QsimConfig::mm1(Rate::per_hour(54.0 * slots as f64), service, seed);
                    c.slots = slots;
                    c.num_queries = 1_000;
                    c.warmup = 100;
                    c.sprint_speedup = 2.0;
                    c.timeout = SimDuration::from_secs(timeout);
                    c.budget_capacity_secs = budget;
                    c.refill_secs = refill;
                    let run = if slots == 1 {
                        Qsim::run
                    } else {
                        Qsim::run_event_driven
                    };
                    let r = run(Qsim::new(c).unwrap()).unwrap();
                    fnv(&mut got[slots - 1].1, r.queries.iter().flat_map(bits));
                }
            }
        }
        let mut digest_cloning = |at: usize, c: CloningConfig| {
            let sim = Cloning::new(c).unwrap();
            for (h, r) in [(at, sim.run()), (at + 1, sim.run_reference())] {
                let r = r.unwrap();
                let counts = [
                    r.spawned,
                    r.winners,
                    r.cancelled,
                    r.ghosts,
                    r.spawn_failed,
                    r.stragglers,
                ];
                let words = r.queries.iter().flat_map(bits).chain(counts);
                fnv(&mut got[h].1, words.chain([r.wasted_secs.to_bits()]));
            }
        };
        let storm = CloningFaults {
            spawn_fail_prob: 0.2,
            cancel_loss_prob: 0.5,
            straggler_prob: 0.2,
            straggler_factor: 4.0,
        };
        let none = CloningFaults::default();
        for (clones, seed, queries, warmup, faults, sprints) in [
            (2, 1001, 2_000, 200, none, false),
            (3, 2002, 1_200, 100, storm, false),
            (2, 3003, 800, 80, none, true),
        ] {
            for seed in seed..seed + 3 {
                let mut c = base(seed);
                c.arrival_rate = Rate::per_hour(3.0);
                c.clones = clones;
                c.slots = 2 * clones;
                c.num_queries = queries;
                c.warmup = warmup;
                c.faults = faults;
                if sprints {
                    c.sprint_speedup = 2.0;
                    c.timeout = SimDuration::ZERO;
                    c.budget_capacity_secs = 400.0;
                    c.refill_secs = 2_000.0;
                }
                digest_cloning(2, c);
            }
        }
        let mut rng = simcore::rng::SimRng::new(0xC10E_D1FF);
        for i in 0..64 {
            digest_cloning(4, generated_config(&mut rng, i));
        }
        assert_eq!(
            got, EXPECTED,
            "budget-run digests {got:#x?} differ from the committed table"
        );
    }
}
