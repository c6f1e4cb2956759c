//! Multi-class timeout-aware simulation (§5 extension).
//!
//! The paper notes that its simulator assumes one sprint rate and one
//! timeout for all queries, and that "only small modifications to the
//! simulator are needed to support multiple sprint rates and timeouts"
//! assigned across workloads. This module is that modification: each
//! query draws a *class* (weighted), and every class carries its own
//! service distribution, effective sprint speedup and timeout. The
//! sprint budget stays shared — that is the whole point of
//! whole-system sprinting policies.
//!
//! The modification is small because the event loop of [`crate::sim`]
//! already runs over a class table: this module validates its
//! configuration, builds the table and the class stream, and hands
//! both to that loop. A one-class run is therefore
//! [`Qsim::run_event_driven`](crate::Qsim::run_event_driven) query for
//! query, and multi-class runs stay on the event calendar at every slot
//! count.
//!
//! Per-class policies matter for mixes: a class with a large sprint
//! speedup (e.g. SparkStream under DVFS) is worth sprinting eagerly,
//! while a sync-bound class wastes budget; see the `ablation_multiclass`
//! experiment binary.

use crate::config::SimQuery;
use crate::sim::{run_calendar, Class, Inputs, Pool};
use simcore::dist::{Dist, DistKind};
use simcore::rng::SimRng;
use simcore::time::{Rate, SimDuration};
use simcore::SprintError;

/// Policy and service description for one query class.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Relative weight of this class in the arrival stream.
    pub weight: f64,
    /// Service-time distribution at the sustained rate.
    pub service: Dist,
    /// Effective sprint speedup for this class (µe/µ).
    pub sprint_speedup: f64,
    /// Timeout after arrival that triggers sprinting for this class.
    pub timeout: SimDuration,
}

/// Configuration for a multi-class run.
#[derive(Debug, Clone)]
pub struct MultiClassConfig {
    /// Mean arrival rate λ of the merged stream.
    pub arrival_rate: Rate,
    /// Inter-arrival distribution shape.
    pub arrival_kind: DistKind,
    /// Query classes; weights are normalized internally.
    pub classes: Vec<ClassSpec>,
    /// Shared sprint budget capacity in sprint-seconds.
    pub budget_capacity_secs: f64,
    /// Full-refill time while nothing sprints.
    pub refill_secs: f64,
    /// Execution slots.
    pub slots: usize,
    /// Queries to simulate.
    pub num_queries: usize,
    /// Leading queries excluded from statistics.
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Per-class and overall outcomes.
#[derive(Debug, Clone)]
pub struct MultiClassResult {
    /// Steady-state queries with their class index.
    pub queries: Vec<(usize, SimQuery)>,
}

impl MultiClassResult {
    /// Overall mean response time in seconds.
    ///
    /// # Panics
    ///
    /// Panics if no steady-state queries were produced.
    pub fn mean_response_secs(&self) -> f64 {
        assert!(!self.queries.is_empty(), "empty result");
        self.queries
            .iter()
            .map(|(_, q)| q.response_secs())
            .sum::<f64>()
            / self.queries.len() as f64
    }
}

/// The multi-class simulator: a validated configuration and its
/// normalized class weights.
pub struct MultiClassQsim {
    cfg: MultiClassConfig,
    weights: Vec<f64>,
}

impl MultiClassQsim {
    /// Builds a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] on empty classes,
    /// negative or non-finite weights, weights summing to zero,
    /// non-positive speedups, invalid budget/refill parameters, or zero
    /// slots/queries.
    pub fn new(cfg: MultiClassConfig) -> Result<MultiClassQsim, SprintError> {
        if cfg.classes.is_empty() {
            return Err(SprintError::invalid(
                "MultiClassConfig::classes",
                "need at least one class",
            ));
        }
        SprintError::require_nonzero("MultiClassConfig::slots", cfg.slots)?;
        SprintError::require_nonzero("MultiClassConfig::num_queries", cfg.num_queries)?;
        SprintError::require_non_negative(
            "MultiClassConfig::budget_capacity_secs",
            cfg.budget_capacity_secs,
        )?;
        SprintError::require_non_negative("MultiClassConfig::refill_secs", cfg.refill_secs)?;
        for (i, c) in cfg.classes.iter().enumerate() {
            if !(c.weight >= 0.0 && c.weight.is_finite()) {
                return Err(SprintError::invalid(
                    "ClassSpec::weight",
                    format!(
                        "class {i}: weight must be finite and >= 0, got {}",
                        c.weight
                    ),
                ));
            }
            if !(c.sprint_speedup > 0.0 && c.sprint_speedup.is_finite()) {
                return Err(SprintError::invalid(
                    "ClassSpec::sprint_speedup",
                    format!(
                        "class {i}: speedup must be finite and > 0, got {}",
                        c.sprint_speedup
                    ),
                ));
            }
        }
        let total: f64 = cfg.classes.iter().map(|c| c.weight).sum();
        if total.is_nan() || total <= 0.0 {
            return Err(SprintError::invalid(
                "MultiClassConfig::classes",
                "class weights sum to zero",
            ));
        }
        let weights = cfg.classes.iter().map(|c| c.weight / total).collect();
        Ok(MultiClassQsim { cfg, weights })
    }

    /// Runs to completion on the event loop of [`crate::sim`], with one
    /// class table entry per [`ClassSpec`] and a class stream that is
    /// the root's third split (after the arrival and service streams),
    /// drawn before each arrival's service demand.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::Runtime`] if the event calendar drains
    /// with queries outstanding or a slot invariant is violated — both
    /// indicate a simulator bug, surfaced as a typed error rather than
    /// a panic so batch sweeps can report and continue.
    pub fn run(self) -> Result<MultiClassResult, SprintError> {
        let cfg = &self.cfg;
        let mut root = SimRng::new(cfg.seed);
        let mut inputs = Inputs::live(&mut root, cfg.arrival_kind, cfg.arrival_rate);
        let mut class_rng = root.split(3);
        let classes: Vec<Class<'_>> = cfg
            .classes
            .iter()
            .map(|c| {
                Class::new(
                    &c.service,
                    c.sprint_speedup,
                    c.timeout,
                    cfg.budget_capacity_secs,
                )
            })
            .collect();
        let draw_class = || {
            let mut u = class_rng.next_f64();
            for (i, &w) in self.weights.iter().enumerate() {
                if u < w {
                    return i;
                }
                u -= w;
            }
            self.weights.len() - 1
        };
        let queries = run_calendar(
            cfg.slots,
            cfg.num_queries,
            Pool::new(cfg.budget_capacity_secs, cfg.refill_secs),
            &classes,
            draw_class,
            &mut inputs,
        )?;
        Ok(MultiClassResult {
            queries: queries
                .iter()
                .skip(cfg.warmup)
                .map(|q| (q.class, q.outcome()))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QsimConfig;
    use crate::sim::Qsim;

    fn two_class_cfg(seed: u64) -> MultiClassConfig {
        MultiClassConfig {
            arrival_rate: Rate::per_hour(30.0),
            arrival_kind: DistKind::Exponential,
            classes: vec![
                ClassSpec {
                    weight: 0.5,
                    service: Dist::exponential(SimDuration::from_secs(40)),
                    sprint_speedup: 2.5,
                    timeout: SimDuration::from_secs(60),
                },
                ClassSpec {
                    weight: 0.5,
                    service: Dist::exponential(SimDuration::from_secs(120)),
                    sprint_speedup: 1.2,
                    timeout: SimDuration::from_secs(200),
                },
            ],
            budget_capacity_secs: 200.0,
            refill_secs: 600.0,
            slots: 1,
            num_queries: 6_000,
            warmup: 600,
            seed,
        }
    }

    #[test]
    fn classes_get_distinct_response_times() {
        let r = MultiClassQsim::new(two_class_cfg(1))
            .unwrap()
            .run()
            .unwrap();
        let class_mean = |class| {
            let (n, sum) = r
                .queries
                .iter()
                .filter(|(c, _)| *c == class)
                .fold((0, 0.0), |(n, sum), (_, q)| {
                    (n + 1, sum + q.response_secs())
                });
            assert!(n > 0, "class {class} saw no steady-state queries");
            sum / f64::from(n)
        };
        let fast = class_mean(0);
        let slow = class_mean(1);
        assert!(slow > fast, "slow class {slow} !> fast class {fast}");
        assert!(r.mean_response_secs() > fast);
        assert!(r.mean_response_secs() < slow);
    }

    /// Both simulators hold refill to one rule, each naming its own
    /// field: zero (instant) and infinity pass, negative and NaN fail.
    #[test]
    fn refill_rule_matches_the_base_simulator() {
        for refill in [0.0, f64::INFINITY, -1.0, f64::NAN] {
            let want = |what| {
                (refill.is_nan() || refill < 0.0).then(|| {
                    SprintError::invalid(what, format!("must be >= 0 and not NaN, got {refill}"))
                })
            };
            let mut multi = two_class_cfg(5);
            multi.refill_secs = refill;
            let got = MultiClassQsim::new(multi).err();
            assert_eq!(got, want("MultiClassConfig::refill_secs"));
            let mut base = QsimConfig::mm1(
                Rate::per_hour(30.0),
                Dist::exponential(SimDuration::from_secs(40)),
                5,
            );
            base.refill_secs = refill;
            assert_eq!(Qsim::new(base).err(), want("QsimConfig::refill_secs"));
        }
    }

    /// Runs `classes` with `c`'s arrivals, budget, slots, sizes and
    /// seed; `c`'s own service, speedup and timeout go unused.
    fn run_classes(c: &QsimConfig, classes: Vec<ClassSpec>) -> MultiClassResult {
        let cfg = MultiClassConfig {
            arrival_rate: c.arrival_rate,
            arrival_kind: c.arrival_kind,
            classes,
            budget_capacity_secs: c.budget_capacity_secs,
            refill_secs: c.refill_secs,
            slots: c.slots,
            num_queries: c.num_queries,
            warmup: c.warmup,
            seed: c.seed,
        };
        MultiClassQsim::new(cfg).unwrap().run().unwrap()
    }

    fn class(service: Dist, sprint_speedup: f64, timeout: SimDuration) -> ClassSpec {
        ClassSpec {
            weight: 1.0,
            service,
            sprint_speedup,
            timeout,
        }
    }

    #[test]
    fn one_class_runs_match_the_event_calendar_query_for_query() {
        // The class stream is the root's third split, so a one-class run
        // draws the base simulator's arrival and service streams and must
        // reproduce its event calendar bit for bit at every slot count,
        // zero refill included.
        let mut rng = SimRng::new(0x0C1A_5500);
        for trial in 0..64u64 {
            let slots = 1 + (trial % 4) as usize;
            let mut c = QsimConfig::mm1(
                Rate::per_hour(slots as f64 * 60.0 * rng.uniform(0.3, 1.05)),
                Dist::exponential(SimDuration::from_secs(60)),
                2_000 + trial,
            );
            c.slots = slots;
            c.num_queries = 500;
            c.warmup = 50;
            c.sprint_speedup = rng.uniform(0.7, 3.0);
            c.timeout = match trial % 3 {
                0 => SimDuration::MAX,
                1 => SimDuration::ZERO,
                _ => SimDuration::from_secs_f64(rng.uniform(1.0, 300.0)),
            };
            c.budget_capacity_secs = match trial % 5 {
                0 => 0.0,
                1 => f64::INFINITY,
                _ => rng.uniform(1.0, 300.0),
            };
            c.refill_secs = if trial % 7 < 2 {
                0.0
            } else {
                rng.uniform(1.0, 1_000.0)
            };
            if trial % 6 == 0 {
                c.service = Dist::deterministic(SimDuration::from_secs(60));
            }
            let multi = run_classes(
                &c,
                vec![class(c.service.clone(), c.sprint_speedup, c.timeout)],
            );
            let single = Qsim::new(c.clone()).unwrap().run_event_driven().unwrap();
            assert_eq!(multi.queries.len(), single.queries.len(), "trial {trial}");
            for (i, (m, s)) in multi.queries.iter().zip(&single.queries).enumerate() {
                assert_eq!(
                    *m,
                    (0, *s),
                    "trial {trial} (k={slots}, refill {}): query {i} diverged",
                    c.refill_secs
                );
            }
        }
    }

    #[test]
    fn two_class_runs_match_committed_digests() {
        // The ablation's two classes (a long, weakly sprinting class and
        // a short, strongly sprinting one) over a grid of per-class
        // timeouts: pins each class's own speedup, timeout and the
        // class stream, which a one-class run cannot see, and with them
        // run-to-run determinism. FNV-1a over every field of every query.
        const EXPECTED: [(usize, u64); 3] = [
            (1, 0x8545_7CAE_3742_F6D0),
            (2, 0x028B_3CED_D86D_C897),
            (3, 0xE887_F5C4_B926_829B),
        ];
        let secs = SimDuration::from_secs;
        let grid = [secs(0), secs(50), secs(150), SimDuration::MAX];
        let mut got = Vec::new();
        for (slots, _) in EXPECTED {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            };
            for tj in grid {
                for ts in grid {
                    for seed in [1, 2] {
                        let mut c = QsimConfig::mm1(
                            Rate::per_hour(26.0 * slots as f64),
                            Dist::exponential(secs(1)),
                            seed,
                        );
                        c.slots = slots;
                        c.num_queries = 600;
                        c.warmup = 60;
                        c.budget_capacity_secs = 120.0;
                        c.refill_secs = 1_000.0;
                        let jacobi = class(Dist::lognormal(secs(103), 0.15), 1.4, tj);
                        let stream = class(Dist::lognormal(secs(41), 0.45), 2.4, ts);
                        for (k, q) in run_classes(&c, vec![jacobi, stream]).queries {
                            eat(&(k as u64).to_le_bytes());
                            eat(&q.arrival_secs.to_bits().to_le_bytes());
                            eat(&q.depart_secs.to_bits().to_le_bytes());
                            eat(&[u8::from(q.timed_out), u8::from(q.sprinted)]);
                            eat(&q.sprint_secs.to_bits().to_le_bytes());
                        }
                    }
                }
            }
            got.push((slots, h));
        }
        assert_eq!(
            got, EXPECTED,
            "two-class digests (k, digest) {got:#x?} differ from the committed table"
        );
    }

    #[test]
    fn per_class_timeouts_fire_independently() {
        let r = MultiClassQsim::new(two_class_cfg(5))
            .unwrap()
            .run()
            .unwrap();
        // The fast class (short timeout, big speedup) should sprint
        // much more often than the slow class (long timeout, tiny
        // speedup).
        let frac = |class: usize| {
            let (s, n) = r
                .queries
                .iter()
                .filter(|(c, _)| *c == class)
                .fold((0usize, 0usize), |(s, n), (_, q)| {
                    (s + q.sprinted as usize, n + 1)
                });
            s as f64 / n as f64
        };
        assert!(frac(0) > frac(1), "{} !> {}", frac(0), frac(1));
    }

    #[test]
    fn shared_budget_couples_classes() {
        // Draining the budget with class 0 sprints leaves less for
        // class 1: with a tighter budget, total sprint seconds shrink.
        let mut tight = two_class_cfg(7);
        tight.budget_capacity_secs = 20.0;
        tight.refill_secs = 5_000.0;
        let mut loose = two_class_cfg(7);
        loose.budget_capacity_secs = 2_000.0;
        loose.refill_secs = 5_000.0;
        let t: f64 = MultiClassQsim::new(tight)
            .unwrap()
            .run()
            .unwrap()
            .queries
            .iter()
            .map(|(_, q)| q.sprint_secs)
            .sum();
        let l: f64 = MultiClassQsim::new(loose)
            .unwrap()
            .run()
            .unwrap()
            .queries
            .iter()
            .map(|(_, q)| q.sprint_secs)
            .sum();
        assert!(t < l, "tight {t} !< loose {l}");
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut empty = two_class_cfg(1);
        empty.classes.clear();
        assert!(MultiClassQsim::new(empty).is_err());

        let mut zero_weights = two_class_cfg(1);
        for c in &mut zero_weights.classes {
            c.weight = 0.0;
        }
        assert!(MultiClassQsim::new(zero_weights).is_err());

        let mut bad_speedup = two_class_cfg(1);
        bad_speedup.classes[0].sprint_speedup = 0.0;
        assert!(MultiClassQsim::new(bad_speedup).is_err());

        let mut nan_weight = two_class_cfg(1);
        nan_weight.classes[1].weight = f64::NAN;
        assert!(MultiClassQsim::new(nan_weight).is_err());

        let mut no_slots = two_class_cfg(1);
        no_slots.slots = 0;
        assert!(MultiClassQsim::new(no_slots).is_err());

        let mut bad_budget = two_class_cfg(1);
        bad_budget.budget_capacity_secs = -1.0;
        assert!(MultiClassQsim::new(bad_budget).is_err());
    }
}
