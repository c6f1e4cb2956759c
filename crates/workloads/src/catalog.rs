//! The seven cloud-server workloads of Table 1(C).
//!
//! Each entry pairs the paper's published sustained/burst throughput on
//! the DVFS platform (the calibration targets for the `mechanisms`
//! crate) with the intrinsic characteristics that drive queueing and
//! sprinting behaviour: phase structure, service-time variability and
//! power hunger.

use crate::phase::{validate_phases, Phase};
use simcore::dist::Dist;
use simcore::time::{Rate, SimDuration};

/// Identifier for one of the paper's workloads (Table 1C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Spark streaming: continuously process data from a source.
    SparkStream,
    /// Spark K-means: cluster analysis in data mining.
    SparkKmeans,
    /// Jacobi: solve the Helmholtz equation (MPI kernel).
    Jacobi,
    /// K-nearest neighbors (MPI kernel).
    Knn,
    /// Breadth-first search (MPI kernel).
    Bfs,
    /// Memory bandwidth stress (MPI kernel).
    Mem,
    /// Leukocyte tracking in medical images (MPI kernel).
    Leuk,
}

impl WorkloadKind {
    /// All workloads in Table 1(C) order.
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::SparkStream,
        WorkloadKind::SparkKmeans,
        WorkloadKind::Jacobi,
        WorkloadKind::Knn,
        WorkloadKind::Bfs,
        WorkloadKind::Mem,
        WorkloadKind::Leuk,
    ];

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SparkStream => "SparkStream",
            WorkloadKind::SparkKmeans => "SparkKmeans",
            WorkloadKind::Jacobi => "Jacobi",
            WorkloadKind::Knn => "KNN",
            WorkloadKind::Bfs => "BFS",
            WorkloadKind::Mem => "Mem",
            WorkloadKind::Leuk => "Leuk",
        }
    }

    /// Parses a (case-insensitive) workload name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        let s = s.to_ascii_lowercase();
        WorkloadKind::ALL
            .into_iter()
            .find(|k| k.name().to_ascii_lowercase() == s)
    }

    /// The static description of this workload.
    pub fn workload(self) -> &'static Workload {
        Workload::get(self)
    }
}

/// Shape family for a workload's service-time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceShape {
    /// Lognormal with the workload's coefficient of variation.
    Lognormal,
    /// Hyperexponential (bursty) with the workload's coefficient of
    /// variation; used for irregular kernels such as BFS.
    Hyperexponential,
}

/// Static description of one workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload this is.
    pub kind: WorkloadKind,
    /// Execution phases in order; work fractions sum to 1.
    pub phases: Vec<Phase>,
    /// Published sustained throughput on the DVFS platform (Table 1C).
    pub dvfs_sustained: Rate,
    /// Published burst throughput on the DVFS platform (Table 1C).
    pub dvfs_burst: Rate,
    /// Coefficient of variation of service time at a fixed processing
    /// rate (§3.2 notes Jacobi and Leuk have low variance).
    pub service_cov: f64,
    /// Shape family for service-time sampling.
    pub service_shape: ServiceShape,
    /// Relative dynamic-power hunger (W/GHz³ scale hint); power-hungry
    /// workloads are throttled harder by a sustained power cap and thus
    /// see larger DVFS sprint ratios.
    pub power_hunger: f64,
    /// How much this workload suffers when co-located behind a
    /// cache/bandwidth-aggressive neighbour (`[0, 1]`).
    pub cache_sensitivity: f64,
    /// How aggressively this workload pollutes shared cache/bandwidth
    /// for its neighbours (`[0, 1]`).
    pub cache_aggression: f64,
}

impl Workload {
    /// Looks up the static catalog entry for `kind`.
    pub fn get(kind: WorkloadKind) -> &'static Workload {
        let idx = WorkloadKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind is in ALL");
        &catalog()[idx]
    }

    /// All catalog entries, Table 1(C) order.
    pub fn all() -> &'static [Workload] {
        catalog()
    }

    /// Published DVFS marginal sprint speedup (burst / sustained).
    pub fn dvfs_speedup(&self) -> f64 {
        self.dvfs_burst.qph() / self.dvfs_sustained.qph()
    }

    /// Mean service duration at the given processing rate.
    pub fn mean_service(&self, rate: Rate) -> SimDuration {
        rate.mean_interval()
    }

    /// Service-time distribution with the given mean.
    pub fn service_dist(&self, mean: SimDuration) -> Dist {
        match self.service_shape {
            ServiceShape::Lognormal => Dist::lognormal(mean, self.service_cov),
            ServiceShape::Hyperexponential => Dist::hyperexponential(mean, self.service_cov),
        }
    }

    /// The phase active at work progress `tau` in `[0, 1]`, and the
    /// fraction of that phase already completed.
    pub fn phase_at(&self, tau: f64) -> (&Phase, f64) {
        let tau = tau.clamp(0.0, 1.0);
        let mut done = 0.0;
        for p in &self.phases {
            if tau < done + p.frac || p.frac == 0.0 {
                let within = if p.frac > 0.0 {
                    (tau - done) / p.frac
                } else {
                    0.0
                };
                return (p, within.clamp(0.0, 1.0));
            }
            done += p.frac;
        }
        (self.phases.last().expect("phases non-empty"), 1.0)
    }
}

fn catalog() -> &'static [Workload; 7] {
    use std::sync::OnceLock;
    static CATALOG: OnceLock<[Workload; 7]> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

fn build_catalog() -> [Workload; 7] {
    let entries = [
        // SparkStream: compute-heavy streaming; the most power-hungry
        // workload, so a sustained power cap throttles it hardest and
        // its burst ratio is the largest in Table 1C (2.57X).
        Workload {
            kind: WorkloadKind::SparkStream,
            phases: vec![
                Phase::new(0.25, 0.03, 0.95, 0.01),
                Phase::new(0.25, 0.02, 0.95, 0.01),
                Phase::new(0.25, 0.03, 0.95, 0.01),
                Phase::new(0.25, 0.04, 0.90, 0.02),
            ],
            dvfs_sustained: Rate::per_hour(87.0),
            dvfs_burst: Rate::per_hour(224.0),
            service_cov: 0.45,
            service_shape: ServiceShape::Lognormal,
            power_hunger: 1.0,
            cache_sensitivity: 0.05,
            cache_aggression: 0.95,
        },
        // SparkKmeans: iterative ML; DVFS speedup 1.97X (the intro's
        // "97% faster" example).
        Workload {
            kind: WorkloadKind::SparkKmeans,
            phases: vec![
                Phase::new(0.10, 0.30, 0.70, 0.05),
                Phase::new(0.70, 0.05, 0.95, 0.02),
                Phase::new(0.20, 0.10, 0.60, 0.15),
            ],
            dvfs_sustained: Rate::per_hour(73.0),
            dvfs_burst: Rate::per_hour(144.0),
            service_cov: 0.50,
            service_shape: ServiceShape::Lognormal,
            power_hunger: 0.75,
            cache_sensitivity: 0.40,
            cache_aggression: 0.50,
        },
        // Jacobi: stencil kernel with good cache locality; the tail
        // phase carries a lower parallel fraction so that core-scaling
        // a full run yields ~1.87X but sprinting only the tail yields
        // ~1.5X (§3.3).
        Workload {
            kind: WorkloadKind::Jacobi,
            phases: vec![
                Phase::new(0.08, 0.15, 0.85, 0.02),
                Phase::new(0.81, 0.30, 0.98, 0.00),
                Phase::new(0.11, 0.25, 0.74, 0.10),
            ],
            dvfs_sustained: Rate::per_hour(51.0),
            dvfs_burst: Rate::per_hour(74.0),
            service_cov: 0.12,
            service_shape: ServiceShape::Lognormal,
            power_hunger: 0.45,
            cache_sensitivity: 0.80,
            cache_aggression: 0.35,
        },
        // KNN: compute-intensive with good locality; 1.78X DVFS burst.
        Workload {
            kind: WorkloadKind::Knn,
            phases: vec![
                Phase::new(0.15, 0.10, 0.80, 0.02),
                Phase::new(0.70, 0.12, 0.90, 0.02),
                Phase::new(0.15, 0.20, 0.70, 0.05),
            ],
            dvfs_sustained: Rate::per_hour(40.0),
            dvfs_burst: Rate::per_hour(71.0),
            service_cov: 0.30,
            service_shape: ServiceShape::Lognormal,
            power_hunger: 0.65,
            cache_sensitivity: 0.35,
            cache_aggression: 0.20,
        },
        // BFS: bandwidth-bound, irregular access; bursty service times.
        Workload {
            kind: WorkloadKind::Bfs,
            phases: vec![
                Phase::new(0.30, 0.55, 0.60, 0.05),
                Phase::new(0.70, 0.60, 0.65, 0.05),
            ],
            dvfs_sustained: Rate::per_hour(28.0),
            dvfs_burst: Rate::per_hour(41.0),
            service_cov: 0.60,
            service_shape: ServiceShape::Hyperexponential,
            power_hunger: 0.50,
            cache_sensitivity: 0.20,
            cache_aggression: 0.75,
        },
        // Mem: memory-bandwidth stress; DVFS barely helps (1.32X).
        Workload {
            kind: WorkloadKind::Mem,
            phases: vec![
                Phase::new(0.50, 0.75, 0.70, 0.03),
                Phase::new(0.50, 0.75, 0.70, 0.03),
            ],
            dvfs_sustained: Rate::per_hour(28.0),
            dvfs_burst: Rate::per_hour(37.0),
            service_cov: 0.20,
            service_shape: ServiceShape::Lognormal,
            power_hunger: 0.40,
            cache_sensitivity: 0.05,
            cache_aggression: 0.95,
        },
        // Leuk: synchronization-limited with strong execution phases;
        // the final sync-heavy phase is what makes late timeouts hard
        // to model (§3.2). DVFS speedup only 1.16X.
        Workload {
            kind: WorkloadKind::Leuk,
            phases: vec![
                Phase::new(0.35, 0.10, 0.75, 0.10),
                Phase::new(0.45, 0.10, 0.60, 0.35),
                Phase::new(0.20, 0.05, 0.30, 0.60),
            ],
            dvfs_sustained: Rate::per_hour(25.0),
            dvfs_burst: Rate::per_hour(29.0),
            service_cov: 0.10,
            service_shape: ServiceShape::Lognormal,
            power_hunger: 0.35,
            cache_sensitivity: 0.30,
            cache_aggression: 0.15,
        },
    ];
    for w in &entries {
        validate_phases(&w.phases);
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_seven_workloads_in_table_order() {
        let all = Workload::all();
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].kind, WorkloadKind::SparkStream);
        assert_eq!(all[6].kind, WorkloadKind::Leuk);
    }

    #[test]
    fn table_1c_throughputs() {
        let j = Workload::get(WorkloadKind::Jacobi);
        assert_eq!(j.dvfs_sustained.qph(), 51.0);
        assert_eq!(j.dvfs_burst.qph(), 74.0);
        let l = Workload::get(WorkloadKind::Leuk);
        assert!((l.dvfs_speedup() - 1.16).abs() < 0.01);
    }

    #[test]
    fn spark_kmeans_matches_intro_example() {
        // §1: DVFS sprinting speeds up Spark K-means by 97%.
        let k = Workload::get(WorkloadKind::SparkKmeans);
        assert!((k.dvfs_speedup() - 1.97).abs() < 0.01);
    }

    #[test]
    fn all_phases_validate() {
        for w in Workload::all() {
            validate_phases(&w.phases);
            for p in &w.phases {
                assert!(p.mem_frac + p.sync_frac <= 1.0);
            }
        }
    }

    #[test]
    fn jacobi_and_leuk_have_low_service_variance() {
        // §3.2: low service-time variance for these two workloads.
        assert!(Workload::get(WorkloadKind::Jacobi).service_cov < 0.2);
        assert!(Workload::get(WorkloadKind::Leuk).service_cov < 0.2);
        assert!(Workload::get(WorkloadKind::Bfs).service_cov > 0.4);
    }

    #[test]
    fn jacobi_core_scaling_matches_paper_example() {
        // §3.3: full-run core-scaling speedup ~1.87X; sprinting only the
        // last ~11% of work gives a tail-phase speedup of ~1.5X.
        let j = Workload::get(WorkloadKind::Jacobi);
        let agg = crate::phase::aggregate_speedup(&j.phases, |p| p.core_speedup(2.0));
        assert!((agg - 1.87).abs() < 0.03, "aggregate {agg}");
        let (tail, _) = j.phase_at(0.95);
        let tail_speedup = tail.core_speedup(2.0);
        assert!((tail_speedup - 1.5).abs() < 0.05, "tail {tail_speedup}");
    }

    #[test]
    fn phase_at_walks_phases() {
        let j = Workload::get(WorkloadKind::Jacobi);
        let (p0, w0) = j.phase_at(0.0);
        assert_eq!(p0.frac, 0.08);
        assert_eq!(w0, 0.0);
        let (p1, _) = j.phase_at(0.5);
        assert_eq!(p1.frac, 0.81);
        let (p2, w2) = j.phase_at(1.0);
        assert_eq!(p2.frac, 0.11);
        assert_eq!(w2, 1.0);
    }

    #[test]
    fn parse_names_roundtrip() {
        for k in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(k.name()), Some(k));
            assert_eq!(WorkloadKind::parse(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(WorkloadKind::parse("nope"), None);
    }

    #[test]
    fn service_dist_mean_matches() {
        let w = Workload::get(WorkloadKind::Knn);
        let mean = SimDuration::from_secs(90);
        let d = w.service_dist(mean);
        assert_eq!(d.mean(), mean);
    }

    #[test]
    fn speedups_ordered_as_in_table() {
        // Stream has the largest DVFS speedup, Leuk the smallest.
        let speedups: Vec<f64> = Workload::all().iter().map(|w| w.dvfs_speedup()).collect();
        let max = speedups.iter().cloned().fold(f64::MIN, f64::max);
        let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(max, Workload::get(WorkloadKind::SparkStream).dvfs_speedup());
        assert_eq!(min, Workload::get(WorkloadKind::Leuk).dvfs_speedup());
    }
}
