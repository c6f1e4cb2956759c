//! Arrival- and service-time distributions.
//!
//! The paper's simulator "can consider a wide range of queuing
//! parameters including exponential, Pareto, and deterministic
//! distributions of arrival, service, and sprint rates" (§2.2), and
//! service times are resampled from empirical profiling data. [`Dist`]
//! covers those plus lognormal and two-phase hyperexponential shapes
//! used to give workloads distinct service-time variance (§3.2 notes
//! Jacobi/Leuk have low variance while others do not).
//!
//! Distributions are specified by their *mean duration*; shape
//! parameters control the coefficient of variation. This keeps rate
//! bookkeeping (µ, λ) independent of distributional shape, exactly as
//! queueing notation does.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Distribution shape, independent of its mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistKind {
    /// Memoryless (M in Kendall notation); CoV = 1.
    Exponential,
    /// Heavy-tailed Pareto with shape `alpha` (the paper uses α = 0.5 for
    /// arrival processes in §3.4, which we truncate; see [`Dist::sample`]).
    Pareto {
        /// Tail index; smaller is heavier.
        alpha: f64,
    },
    /// Constant (D in Kendall notation); CoV = 0.
    Deterministic,
    /// Lognormal with the given coefficient of variation.
    Lognormal {
        /// Target coefficient of variation (σ/µ).
        cov: f64,
    },
    /// Balanced two-phase hyperexponential with the given coefficient of
    /// variation (must be ≥ 1).
    Hyperexponential {
        /// Target coefficient of variation (σ/µ); values below 1 are
        /// clamped to 1 (plain exponential).
        cov: f64,
    },
}

impl DistKind {
    /// A hashable encoding of the shape: the variant's tag and the bits
    /// of its parameter (0 when it has none). Two kinds share a key
    /// exactly when they have the same variant and bit-identical
    /// parameters, so they draw identical samples from one RNG stream.
    pub fn key(self) -> (u8, u64) {
        match self {
            DistKind::Exponential => (0, 0),
            DistKind::Pareto { alpha } => (1, alpha.to_bits()),
            DistKind::Deterministic => (2, 0),
            DistKind::Lognormal { cov } => (3, cov.to_bits()),
            DistKind::Hyperexponential { cov } => (4, cov.to_bits()),
        }
    }
}

/// A sampling distribution over durations with a configured mean.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Parametric distribution: a shape plus a mean duration.
    Parametric {
        /// Distribution shape.
        kind: DistKind,
        /// Mean of the distribution.
        mean: SimDuration,
    },
    /// Empirical distribution: i.i.d. resampling from observed durations
    /// (how the paper sets µ̄ from profiling data, §2.2).
    Empirical {
        /// Observed samples; must be non-empty.
        samples: Vec<SimDuration>,
    },
}

/// Cap applied to Pareto draws, as a multiple of the mean.
///
/// With α ≤ 1 the raw Pareto mean is infinite, so like any finite replay
/// the effective process is a truncated Pareto; we truncate explicitly so
/// the configured mean is meaningful (and document it here rather than
/// hiding it in replay length). The cap is chosen so that response-time
/// statistics converge within profiling-sized replay windows — a replay
/// of a few hundred queries cannot observe inter-arrival gaps hundreds
/// of times the mean anyway.
const PARETO_TRUNCATION_FACTOR: f64 = 50.0;

impl Dist {
    /// Exponential distribution with the given mean.
    pub fn exponential(mean: SimDuration) -> Dist {
        Dist::Parametric {
            kind: DistKind::Exponential,
            mean,
        }
    }

    /// Deterministic distribution concentrated at `mean`.
    pub fn deterministic(mean: SimDuration) -> Dist {
        Dist::Parametric {
            kind: DistKind::Deterministic,
            mean,
        }
    }

    /// Truncated Pareto distribution with the given mean and tail index.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    pub fn pareto(mean: SimDuration, alpha: f64) -> Dist {
        assert!(alpha.is_finite() && alpha > 0.0, "invalid alpha: {alpha}");
        Dist::Parametric {
            kind: DistKind::Pareto { alpha },
            mean,
        }
    }

    /// Lognormal distribution with the given mean and coefficient of
    /// variation.
    ///
    /// # Panics
    ///
    /// Panics if `cov` is negative or not finite.
    pub fn lognormal(mean: SimDuration, cov: f64) -> Dist {
        assert!(cov.is_finite() && cov >= 0.0, "invalid cov: {cov}");
        Dist::Parametric {
            kind: DistKind::Lognormal { cov },
            mean,
        }
    }

    /// Balanced hyperexponential distribution with the given mean and
    /// coefficient of variation (≥ 1; smaller values degrade to
    /// exponential).
    pub fn hyperexponential(mean: SimDuration, cov: f64) -> Dist {
        Dist::Parametric {
            kind: DistKind::Hyperexponential { cov },
            mean,
        }
    }

    /// Empirical distribution resampling the given observations.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn empirical(samples: Vec<SimDuration>) -> Dist {
        assert!(!samples.is_empty(), "empirical distribution needs samples");
        Dist::Empirical { samples }
    }

    /// The configured (or empirical) mean duration.
    pub fn mean(&self) -> SimDuration {
        match self {
            Dist::Parametric { mean, .. } => *mean,
            Dist::Empirical { samples } => {
                let total: u128 = samples.iter().map(|d| d.0 as u128).sum();
                SimDuration((total / samples.len() as u128) as u64)
            }
        }
    }

    /// Draws one duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            Dist::Parametric { kind, mean } => {
                let m = mean.as_secs_f64();
                let secs = match *kind {
                    DistKind::Deterministic => m,
                    DistKind::Exponential => sample_exponential(rng, m),
                    DistKind::Pareto { alpha } => sample_truncated_pareto(rng, m, alpha),
                    DistKind::Lognormal { cov } => sample_lognormal(rng, m, cov),
                    DistKind::Hyperexponential { cov } => sample_hyperexp(rng, m, cov),
                };
                SimDuration::from_secs_f64(secs)
            }
            Dist::Empirical { samples } => samples[rng.index(samples.len())],
        }
    }
}

fn sample_exponential(rng: &mut SimRng, mean: f64) -> f64 {
    // Inverse CDF; 1 - u avoids ln(0).
    -mean * (1.0 - rng.next_f64()).ln()
}

/// Truncated Pareto on `[x_min, cap]`, parameterized so the *truncated*
/// mean equals `mean`.
fn sample_truncated_pareto(rng: &mut SimRng, mean: f64, alpha: f64) -> f64 {
    if mean == 0.0 {
        return 0.0;
    }
    let cap = mean * PARETO_TRUNCATION_FACTOR;
    // Solve for x_min such that E[truncated Pareto(x_min, alpha, cap)] =
    // mean, by bisection; the truncated mean is monotone in x_min.
    let mut lo = mean * 1e-6;
    let mut hi = mean;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if truncated_pareto_mean(mid, alpha, cap) < mean {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let x_min = 0.5 * (lo + hi);
    // Inverse-CDF sampling on the truncated support.
    let u = rng.next_f64();
    let ratio = (x_min / cap).powf(alpha);
    let x = x_min / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
    x.min(cap)
}

/// Mean of a Pareto(x_min, alpha) truncated at `cap`.
fn truncated_pareto_mean(x_min: f64, alpha: f64, cap: f64) -> f64 {
    let r = x_min / cap;
    let denom = 1.0 - r.powf(alpha);
    if denom <= 0.0 {
        return x_min;
    }
    if (alpha - 1.0).abs() < 1e-9 {
        // α = 1: E = x_min * ln(cap/x_min) / (1 - x_min/cap).
        x_min * (cap / x_min).ln() / denom
    } else {
        alpha * x_min / (alpha - 1.0) * (1.0 - r.powf(alpha - 1.0)) / denom
    }
}

fn sample_lognormal(rng: &mut SimRng, mean: f64, cov: f64) -> f64 {
    if cov == 0.0 || mean == 0.0 {
        return mean;
    }
    let sigma2 = (1.0 + cov * cov).ln();
    let mu = mean.ln() - 0.5 * sigma2;
    (mu + sigma2.sqrt() * rng.normal()).exp()
}

/// Balanced hyperexponential: two exponential branches with equal
/// probability-weighted rates chosen to hit the requested CoV.
fn sample_hyperexp(rng: &mut SimRng, mean: f64, cov: f64) -> f64 {
    let c2 = (cov * cov).max(1.0);
    if (c2 - 1.0).abs() < 1e-12 {
        return sample_exponential(rng, mean);
    }
    // Balanced means: p1*m1 = p2*m2 = mean/2 with p1 + p2 = 1.
    let x = ((c2 - 1.0) / (c2 + 1.0)).sqrt();
    let p1 = 0.5 * (1.0 + x);
    let (p, m) = if rng.chance(p1) {
        (p1, mean)
    } else {
        (1.0 - p1, mean)
    };
    sample_exponential(rng, m * 0.5 / p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean_cov(d: &Dist, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = SimRng::new(seed);
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng).as_secs_f64();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = (sq / n as f64 - mean * mean).max(0.0);
        (mean, var.sqrt() / mean)
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Dist::deterministic(SimDuration::from_secs(7));
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), SimDuration::from_secs(7));
        }
    }

    #[test]
    fn exponential_mean_and_cov() {
        let d = Dist::exponential(SimDuration::from_secs(100));
        let (mean, cov) = empirical_mean_cov(&d, 100_000, 2);
        assert!((mean - 100.0).abs() / 100.0 < 0.02, "mean {mean}");
        assert!((cov - 1.0).abs() < 0.03, "cov {cov}");
    }

    #[test]
    fn pareto_truncated_mean_close() {
        // Even at α = 0.5 (infinite raw mean) the truncated sampler must
        // deliver the configured mean.
        let d = Dist::pareto(SimDuration::from_secs(50), 0.5);
        let (mean, _) = empirical_mean_cov(&d, 400_000, 3);
        assert!((mean - 50.0).abs() / 50.0 < 0.10, "mean {mean}");
    }

    #[test]
    fn pareto_tamer_alpha_mean_close() {
        let d = Dist::pareto(SimDuration::from_secs(50), 2.5);
        let (mean, cov) = empirical_mean_cov(&d, 200_000, 4);
        assert!((mean - 50.0).abs() / 50.0 < 0.03, "mean {mean}");
        assert!(cov > 0.5, "pareto should be bursty, cov {cov}");
    }

    #[test]
    fn lognormal_mean_and_cov() {
        let d = Dist::lognormal(SimDuration::from_secs(30), 0.4);
        let (mean, cov) = empirical_mean_cov(&d, 200_000, 5);
        assert!((mean - 30.0).abs() / 30.0 < 0.02, "mean {mean}");
        assert!((cov - 0.4).abs() < 0.03, "cov {cov}");
    }

    #[test]
    fn hyperexponential_mean_and_cov() {
        let d = Dist::hyperexponential(SimDuration::from_secs(60), 2.0);
        let (mean, cov) = empirical_mean_cov(&d, 400_000, 6);
        assert!((mean - 60.0).abs() / 60.0 < 0.03, "mean {mean}");
        assert!((cov - 2.0).abs() < 0.15, "cov {cov}");
    }

    #[test]
    fn hyperexponential_degenerates_to_exponential() {
        let d = Dist::hyperexponential(SimDuration::from_secs(10), 0.5);
        let (mean, cov) = empirical_mean_cov(&d, 100_000, 7);
        assert!((mean - 10.0).abs() / 10.0 < 0.03);
        assert!((cov - 1.0).abs() < 0.05);
    }

    #[test]
    fn empirical_resamples_observations() {
        let samples = vec![
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
        ];
        let d = Dist::empirical(samples.clone());
        assert_eq!(d.mean(), SimDuration::from_secs(2));
        let mut rng = SimRng::new(8);
        for _ in 0..100 {
            assert!(samples.contains(&d.sample(&mut rng)));
        }
    }

    #[test]
    #[should_panic(expected = "needs samples")]
    fn empirical_rejects_empty() {
        let _ = Dist::empirical(vec![]);
    }
}
