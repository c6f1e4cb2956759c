//! Profiling campaigns: measuring µ, µm and observed response times.

use crate::features::Condition;
use mechanisms::Mechanism;
use simcore::par;
use simcore::time::Rate;
use testbed::{ArrivalSpec, BudgetSpec, RunResult, Server, ServerConfig, SprintPolicy};
use workloads::QueryMix;

/// Per-(mix, mechanism) measurements the models consume.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// The query mix profiled.
    pub mix: QueryMix,
    /// Display name of the sprinting mechanism profiled on.
    pub mechanism: String,
    /// Measured sustained service rate µ.
    pub mu: Rate,
    /// Measured marginal sprint rate µm.
    pub mu_m: Rate,
    /// Empirical service-time samples (seconds) at the sustained rate;
    /// the queue simulator resamples these (§2.2).
    pub service_samples_secs: Vec<f64>,
    /// Simulated wall-clock hours consumed by profiling so far (for
    /// the Fig. 14 opportunity-cost analysis).
    pub profiling_hours: f64,
}

impl WorkloadProfile {
    /// Marginal sprint speedup µm/µ.
    pub fn marginal_speedup(&self) -> f64 {
        self.mu_m.qph() / self.mu.qph()
    }
}

/// One replayed condition and its observed steady-state response time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingRun {
    /// The condition replayed.
    pub condition: Condition,
    /// Observed mean response time (seconds).
    pub observed_response_secs: f64,
}

/// A complete profiling campaign: rates plus per-condition runs.
#[derive(Debug, Clone)]
pub struct ProfileData {
    /// Rate measurements and empirical service samples.
    pub profile: WorkloadProfile,
    /// Replayed conditions with observed response times.
    pub runs: Vec<ProfilingRun>,
}

/// Drives testbed replays for a profiling campaign.
#[derive(Debug, Clone, Copy)]
pub struct Profiler {
    /// Queries replayed per condition.
    pub queries_per_run: usize,
    /// Leading queries excluded from statistics.
    pub warmup: usize,
    /// Independent replays averaged per condition (§2.1: "we replay
    /// the mix many times"); more replays cut observation noise, at
    /// proportional profiling cost.
    pub replays: usize,
    /// Worker threads for the campaign.
    pub threads: usize,
    /// Campaign seed.
    pub seed: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            queries_per_run: 400,
            warmup: 40,
            replays: 1,
            threads: 8,
            seed: 0xbeef,
        }
    }
}

impl Profiler {
    /// Measures µ, µm and service samples for `(mix, mech)` with two
    /// dedicated runs: sprinting disabled, and sprint-everything
    /// (timeout 0, unlimited budget).
    pub fn measure_rates(&self, mix: &QueryMix, mech: &dyn Mechanism) -> WorkloadProfile {
        // Prior estimate of the sustained rate to set a sane arrival
        // rate for the measurement runs.
        let prior_mu = mix.sustained_rate(|k| mech.sustained_rate(k));

        let base = ServerConfig {
            mix: mix.clone(),
            arrivals: ArrivalSpec::poisson(prior_mu.scale(0.5)),
            policy: SprintPolicy::never(),
            slots: 1,
            num_queries: self.queries_per_run,
            warmup: self.warmup,
            seed: self.seed ^ 0x5151,
        };
        let sustained = Server::new(base.clone(), mech)
            .and_then(Server::run)
            .expect("rate-measurement config is valid");
        let mu = sustained
            .measured_service_rate()
            .expect("no-sprint run has non-sprinted queries");

        let mut sprint_cfg = base;
        sprint_cfg.policy = SprintPolicy::always();
        sprint_cfg.arrivals = ArrivalSpec::poisson(prior_mu.scale(0.3));
        sprint_cfg.seed = self.seed ^ 0xACED;
        let sprinted = Server::new(sprint_cfg, mech)
            .and_then(Server::run)
            .expect("rate-measurement config is valid");
        let mu_m = sprinted
            .measured_sprinted_rate()
            .expect("always-sprint run has sprinted queries");

        let hours = run_hours(&sustained) + run_hours(&sprinted);
        WorkloadProfile {
            mix: mix.clone(),
            mechanism: mech.kind().name().to_string(),
            mu,
            mu_m,
            service_samples_secs: sustained.processing_times_secs(),
            profiling_hours: hours,
        }
    }

    /// Replays a single condition (averaging `replays` independent
    /// replays) and returns the observed response plus simulated hours
    /// spent.
    pub fn run_condition(
        &self,
        profile: &WorkloadProfile,
        mech: &dyn Mechanism,
        condition: Condition,
        seed: u64,
    ) -> (ProfilingRun, f64) {
        let replays = self.replays.max(1);
        let mut total_rt = 0.0;
        let mut hours = 0.0;
        for r in 0..replays {
            let cfg = ServerConfig {
                mix: profile.mix.clone(),
                arrivals: ArrivalSpec {
                    rate: condition.arrival_rate(profile.mu),
                    kind: condition.arrival_kind,
                    modulation: None,
                },
                policy: SprintPolicy::new(
                    condition.timeout(),
                    BudgetSpec::FractionOfRefill(condition.budget_frac),
                    condition.refill(),
                ),
                slots: 1,
                num_queries: self.queries_per_run,
                warmup: self.warmup,
                seed: seed.wrapping_add(r as u64 * 0x9E37_79B9),
            };
            let result = Server::new(cfg, mech)
                .and_then(Server::run)
                .expect("replay config is valid");
            total_rt += result.mean_response_secs();
            hours += run_hours(&result);
        }
        (
            ProfilingRun {
                condition,
                observed_response_secs: total_rt / replays as f64,
            },
            hours,
        )
    }

    /// Runs a full campaign over `conditions`, fanning out across
    /// worker threads. Results keep input order.
    ///
    /// # Panics
    ///
    /// Panics if a replay panics, naming the condition by its index
    /// (see [`Profiler::run_conditions`]).
    pub fn profile(
        &self,
        mix: &QueryMix,
        mech: &dyn Mechanism,
        conditions: &[Condition],
    ) -> ProfileData {
        let mut profile = self.measure_rates(mix, mech);
        let runs_with_hours = self.run_conditions(&profile, mech, conditions);
        let mut runs = Vec::with_capacity(conditions.len());
        for (run, hours) in runs_with_hours {
            profile.profiling_hours += hours;
            runs.push(run);
        }
        ProfileData { profile, runs }
    }

    /// Replays many conditions in parallel (on [`Profiler::threads`]
    /// workers) against an existing profile. Results keep input order.
    ///
    /// # Panics
    ///
    /// Panics if a replay panics; the message names the condition by
    /// its index and carries the replay's own panic message.
    pub fn run_conditions(
        &self,
        profile: &WorkloadProfile,
        mech: &dyn Mechanism,
        conditions: &[Condition],
    ) -> Vec<(ProfilingRun, f64)> {
        par::map((0..conditions.len()).collect(), self.threads, |i| {
            let seed = derive_seed(self.seed, i as u64);
            self.run_condition(profile, mech, conditions[i], seed)
        })
        .into_iter()
        .map(|run| run.unwrap_or_else(|e| panic!("{e}")))
        .collect()
    }
}

/// Simulated hours a run occupied the server (arrival of first record
/// to departure of last).
fn run_hours(result: &RunResult) -> f64 {
    let records = result.records();
    let first = records.iter().map(|r| r.arrival).min().unwrap_or_default();
    let last = records.iter().map(|r| r.depart).max().unwrap_or_default();
    last.since(first).as_hours_f64()
}

fn derive_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mechanisms::{CpuThrottle, Dvfs};
    use simcore::dist::DistKind;
    use workloads::WorkloadKind;

    fn quick_profiler() -> Profiler {
        Profiler {
            queries_per_run: 150,
            warmup: 15,
            replays: 1,
            threads: 4,
            seed: 42,
        }
    }

    #[test]
    fn measures_jacobi_rates_on_dvfs() {
        let mech = Dvfs::new();
        let mix = QueryMix::single(WorkloadKind::Jacobi);
        let p = quick_profiler().measure_rates(&mix, &mech);
        // Table 1C: 51 qph sustained, 74 qph burst (within sampling
        // noise and dispatch overhead).
        assert!((p.mu.qph() - 51.0).abs() < 4.0, "mu {}", p.mu);
        assert!((p.mu_m.qph() - 74.0).abs() < 6.0, "mu_m {}", p.mu_m);
        assert!(p.marginal_speedup() > 1.3 && p.marginal_speedup() < 1.6);
        assert!(!p.service_samples_secs.is_empty());
        assert!(p.profiling_hours > 0.0);
    }

    #[test]
    fn measures_throttle_rates_like_section_4_3() {
        let mech = CpuThrottle::new(0.2);
        let mix = QueryMix::single(WorkloadKind::Jacobi);
        let p = quick_profiler().measure_rates(&mix, &mech);
        assert!((p.mu.qph() - 14.8).abs() < 1.5, "mu {}", p.mu);
        assert!((p.mu_m.qph() - 74.0).abs() < 7.0, "mu_m {}", p.mu_m);
    }

    #[test]
    fn campaign_profiles_all_conditions_in_order() {
        let mech = Dvfs::new();
        let mix = QueryMix::single(WorkloadKind::Jacobi);
        let conditions = vec![
            Condition {
                utilization: 0.5,
                arrival_kind: DistKind::Exponential,
                timeout_secs: 60.0,
                budget_frac: 0.2,
                refill_secs: 200.0,
            },
            Condition {
                utilization: 0.75,
                arrival_kind: DistKind::Exponential,
                timeout_secs: 120.0,
                budget_frac: 0.4,
                refill_secs: 500.0,
            },
        ];
        let data = quick_profiler().profile(&mix, &mech, &conditions);
        assert_eq!(data.runs.len(), 2);
        assert_eq!(data.runs[0].condition, conditions[0]);
        assert_eq!(data.runs[1].condition, conditions[1]);
        for r in &data.runs {
            assert!(r.observed_response_secs > 0.0);
        }
        // Higher utilization queues more.
        assert!(data.runs[1].observed_response_secs > data.runs[0].observed_response_secs * 0.8);
    }

    #[test]
    fn campaign_is_deterministic() {
        let mech = Dvfs::new();
        let mix = QueryMix::single(WorkloadKind::Knn);
        let conditions = SamplingGridStub::few();
        let a = quick_profiler().profile(&mix, &mech, &conditions);
        let b = quick_profiler().profile(&mix, &mech, &conditions);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.observed_response_secs, y.observed_response_secs);
        }
    }

    /// Tiny fixed condition set for tests.
    struct SamplingGridStub;
    impl SamplingGridStub {
        fn few() -> Vec<Condition> {
            vec![Condition {
                utilization: 0.5,
                arrival_kind: DistKind::Exponential,
                timeout_secs: 80.0,
                budget_frac: 0.2,
                refill_secs: 200.0,
            }]
        }
    }
}
