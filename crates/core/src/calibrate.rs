//! Effective sprint rate calibration (§2.3, Equation 2).
//!
//! For each profiling run, the effective sprint rate µe is the rate
//! closest to the profiled marginal rate µm that, when fed to the
//! timeout-aware simulator, reproduces the *observed* response time
//! within tolerance. The search expands outward from µm in one-qph
//! steps ("we increment and decrement the marginal rate by 1 unit"),
//! preferring the smallest |µe − µm| that achieves tolerable error, and
//! falls back to the best candidate seen if none tolerates.
//!
//! Two things keep the search from redoing work, and neither changes a
//! bit of its result:
//!
//! - **Candidates replay one set of traces.** A call keeps a private
//!   [`TraceCache`], and every candidate is scored through
//!   [`SimOptions::simulate_cached`]. The speedup is not part of a
//!   trace's key, so each replication's arrival and service draws are
//!   made once per call, not once per candidate (common random
//!   numbers; bit-identical to live sampling).
//! - **Speedup 1.0 is simulated once.** A candidate is fed to the
//!   simulator as the speedup `(rate / µ).max(1.0)`, so every
//!   candidate at or below µ simulates at 1.0 and scores the same
//!   error. The first such candidate either tolerates, and the search
//!   returns it, or sets a best error no later one can beat, since
//!   only a strictly smaller error replaces the best; so the rest are
//!   skipped.
//!
//! The clamp also bounds the result. The walk starts at µm, which is
//! above µ for every profiled mechanism, so the first candidate at or
//! below µ lies within one step of µ, and no later one can replace
//! it: calibration never returns a µe more than one step below µ.
//! That holds although the search floor is 0.6µ and
//! [`SimOptions::config`] accepts effective rates below µ (Eq. 2's
//! correction may be negative); lifting the clamp would move the
//! calibrated rates, and with them the golden anchors.

use crate::model::SimOptions;
use profiler::{ProfilingRun, WorkloadProfile};
use qsim::TraceCache;
use simcore::time::Rate;

/// Calibration search parameters.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationOptions {
    /// Relative response-time error accepted as "aligned" (the paper's
    /// tolerance threshold T in Eq. 2).
    pub tolerance: f64,
    /// Search step in qph (the paper's "1 unit").
    pub step_qph: f64,
    /// Maximum steps explored in each direction.
    pub max_steps: usize,
    /// Simulation settings for candidate evaluation.
    pub sim: SimOptions,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            tolerance: 0.02,
            step_qph: 1.0,
            max_steps: 60,
            sim: SimOptions {
                sim_queries: 1_500,
                warmup: 150,
                replications: 2,
                ..SimOptions::default()
            },
        }
    }
}

/// Calibrates the effective sprint rate for one profiling run (Eq. 2).
///
/// Returns the rate and the relative error its simulation achieves
/// against the observed response time.
pub fn effective_sprint_rate(
    profile: &WorkloadProfile,
    run: &ProfilingRun,
    opts: &CalibrationOptions,
) -> (Rate, f64) {
    let observed = run.observed_response_secs;
    let mu = profile.mu.qph();
    let mu_m = profile.mu_m.qph();
    debug_assert!(observed > 0.0);

    // One set of traces for every candidate (module docs).
    let traces = TraceCache::new();
    let eval = |speedup: f64| -> f64 {
        let predicted = opts
            .sim
            .simulate_cached(profile, &run.condition, speedup, &traces);
        (predicted - observed).abs() / observed
    };

    // Candidate offsets in order of increasing |x|: 0, -1, +1, -2, ...
    // (ties resolved toward slower rates, which runtime effects
    // usually produce).
    let mut best_rate = mu_m;
    let mut best_err = f64::INFINITY;
    let mut no_speedup_scored = false;
    for k in 0..=opts.max_steps {
        let offsets: &[f64] = if k == 0 {
            &[0.0]
        } else {
            &[-(k as f64), k as f64]
        };
        for &o in offsets {
            let candidate = mu_m + o * opts.step_qph;
            if candidate < 0.6 * mu {
                // Corrections far below the sustained rate stop being
                // meaningful; bound the search.
                continue;
            }
            // Candidates at or below µ all simulate at speedup 1.0;
            // only the first can change the result (module docs).
            let speedup = (candidate / mu).max(1.0);
            if speedup == 1.0 {
                if no_speedup_scored {
                    continue;
                }
                no_speedup_scored = true;
            }
            let err = eval(speedup);
            if err < best_err {
                best_err = err;
                best_rate = candidate;
            }
            if err <= opts.tolerance {
                return (Rate::per_hour(candidate), err);
            }
        }
    }
    (Rate::per_hour(best_rate), best_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mechanisms::{CpuThrottle, Dvfs, Mechanism};
    use profiler::{Condition, Profiler};
    use simcore::dist::DistKind;
    use workloads::{QueryMix, WorkloadKind};

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            mix: QueryMix::single(WorkloadKind::Jacobi),
            mechanism: "DVFS".into(),
            mu: Rate::per_hour(50.0),
            mu_m: Rate::per_hour(75.0),
            service_samples_secs: (0..200).map(|i| 62.0 + (i % 17) as f64).collect(),
            profiling_hours: 0.5,
        }
    }

    fn cond() -> Condition {
        Condition {
            utilization: 0.75,
            arrival_kind: DistKind::Exponential,
            timeout_secs: 70.0,
            budget_frac: 0.4,
            refill_secs: 200.0,
        }
    }

    /// Observed RT generated by the simulator itself at a known rate
    /// must calibrate back to (nearly) that rate.
    #[test]
    fn recovers_known_effective_rate() {
        let p = profile();
        let opts = CalibrationOptions::default();
        let true_rate = 63.0; // Well below µm = 75.
        let observed = opts.sim.simulate(&p, &cond(), true_rate / 50.0);
        let run = ProfilingRun {
            condition: cond(),
            observed_response_secs: observed,
        };
        let (rate, err) = effective_sprint_rate(&p, &run, &opts);
        assert!(err <= opts.tolerance, "calibration error {err}");
        assert!(
            (rate.qph() - true_rate).abs() <= 4.0,
            "calibrated {} vs true {true_rate}",
            rate.qph()
        );
    }

    #[test]
    fn exact_marginal_rate_returns_immediately() {
        let p = profile();
        let opts = CalibrationOptions::default();
        let observed = opts.sim.simulate(&p, &cond(), 1.5);
        let run = ProfilingRun {
            condition: cond(),
            observed_response_secs: observed,
        };
        let (rate, err) = effective_sprint_rate(&p, &run, &opts);
        assert!(err <= opts.tolerance);
        assert_eq!(rate.qph(), 75.0, "µm itself tolerates, so µe = µm");
    }

    /// Pins every `(µe, err)` of a seeded campaign on each mechanism.
    /// The campaign holds runs that tolerate at µm, runs several steps
    /// away, and runs whose observed RT no candidate reaches, so that
    /// search walks to `max_steps`, crossing below µ, where every
    /// candidate simulates at speedup 1.0.
    #[test]
    fn calibrated_rates_match_committed_digests() {
        let mechanisms: [(Box<dyn Mechanism>, u64); 2] = [
            (Box::new(Dvfs::new()), 0x8937_ecf2_1444_826a),
            (Box::new(CpuThrottle::new(0.2)), 0x5c9a_2736_c7ec_ade0),
        ];
        let profiler = Profiler {
            queries_per_run: 200,
            warmup: 20,
            replays: 1,
            threads: 2,
            seed: 11,
        };
        let conditions: Vec<Condition> = [
            (0.3, 60.0, 0.4, 200.0),
            (0.5, 120.0, 0.2, 400.0),
            (0.7, 30.0, 0.6, 100.0),
            (0.9, 90.0, 0.3, 300.0),
            (0.6, 10.0, 0.8, 150.0),
            (0.8, 20.0, 0.1, 600.0),
            (0.95, 45.0, 0.5, 250.0),
            (0.4, 200.0, 0.9, 50.0),
            (0.85, 5.0, 0.05, 900.0),
        ]
        .iter()
        .map(
            |&(utilization, timeout_secs, budget_frac, refill_secs)| Condition {
                utilization,
                arrival_kind: DistKind::Exponential,
                timeout_secs,
                budget_frac,
                refill_secs,
            },
        )
        .collect();
        let mut opts = CalibrationOptions::default();
        opts.sim.sim_queries = 300;
        opts.sim.warmup = 30;
        for (mech, want) in &mechanisms {
            let mix = QueryMix::single(WorkloadKind::Jacobi);
            let mut data = profiler.profile(&mix, mech.as_ref(), &conditions);
            data.runs.push(ProfilingRun {
                condition: conditions[0],
                observed_response_secs: 100_000.0,
            });
            let (mu, mu_m) = (data.profile.mu.qph(), data.profile.mu_m.qph());
            assert!(
                mu_m - opts.max_steps as f64 * opts.step_qph < mu,
                "{}: the search must cross below µ",
                data.profile.mechanism
            );
            let results: Vec<(f64, f64)> = data
                .runs
                .iter()
                .map(|run| {
                    let (rate, err) = effective_sprint_rate(&data.profile, run, &opts);
                    (rate.qph(), err)
                })
                .collect();
            let tolerated = |r: &&(f64, f64)| r.1 <= opts.tolerance;
            assert!(
                results.iter().filter(tolerated).any(|r| r.0 == mu_m),
                "{}: a run tolerates at µm: {results:?}",
                data.profile.mechanism
            );
            assert!(
                results
                    .iter()
                    .filter(tolerated)
                    .any(|r| (r.0 - mu_m).abs() >= 3.0 * opts.step_qph),
                "{}: a run needs several steps: {results:?}",
                data.profile.mechanism
            );
            assert!(
                results.iter().any(|r| r.1 > opts.tolerance && r.0 <= mu),
                "{}: a run no candidate reaches ends at or below µ: {results:?}",
                data.profile.mechanism
            );
            let got = crate::fnv1a_bits(results.iter().flat_map(|&(rate, err)| [rate, err]));
            assert_eq!(
                got, *want,
                "{}: calibration digest {got:#018x}, committed {want:#018x}: {results:?}",
                data.profile.mechanism
            );
        }
    }

    #[test]
    fn never_returns_rate_below_search_floor() {
        let p = profile();
        let opts = CalibrationOptions::default();
        // Observed far slower than any simulation can produce.
        let run = ProfilingRun {
            condition: cond(),
            observed_response_secs: 100_000.0,
        };
        let (rate, err) = effective_sprint_rate(&p, &run, &opts);
        assert!(rate.qph() >= 0.6 * 50.0);
        // The speedup clamp keeps µe within a step of µ (module docs).
        assert!(rate.qph() > 50.0 - opts.step_qph, "µe {}", rate.qph());
        assert!(err > opts.tolerance, "impossible target cannot tolerate");
    }
}
