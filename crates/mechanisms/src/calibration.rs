//! Per-workload DVFS calibration against Table 1(C).
//!
//! Two free parameters tie the physical models to the paper's published
//! throughputs:
//!
//! 1. the dynamic-power coefficient `κ_w` (seeded from the workload's
//!    `power_hunger` and scaled up until the sustained→burst frequency
//!    ratio can reach the published speedup), and
//! 2. a frequency *elasticity* `e_w ∈ [0, 1]` that shades each phase's
//!    compute share toward frequency-insensitive work, bisected so the
//!    aggregate full-execution speedup matches Table 1(C) exactly.
//!
//! The calibration runs once per process and is cached; both
//! [`Dvfs`](crate::Dvfs) and [`Ec2Dvfs`](crate::Ec2Dvfs) consume it, so a
//! workload's frequency elasticity is a single intrinsic property.

use crate::power::{pupil_search, uncore_ratio};
use std::collections::HashMap;
use std::sync::OnceLock;
use workloads::{Phase, Workload, WorkloadKind};

/// Default sustained power cap (W); the paper's sustained caps span
/// 44–70 W.
pub const SUSTAINED_CAP_WATTS: f64 = 50.0;

/// Default burst power cap (W); the paper's burst caps span 90–190 W.
pub const BURST_CAP_WATTS: f64 = 150.0;

/// Base dynamic-power coefficient (W/GHz³) scaled by each workload's
/// `power_hunger`.
pub const KAPPA_BASE: f64 = 22.0;

/// Calibrated DVFS parameters for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCalibration {
    /// Dynamic-power coefficient actually used (W/GHz³).
    pub kappa: f64,
    /// Frequency elasticity in `[0, 1]`.
    pub elasticity: f64,
    /// Effective sustained frequency under the sustained cap (GHz).
    pub f_sustained_ghz: f64,
    /// Effective burst frequency under the burst cap (GHz).
    pub f_burst_ghz: f64,
    /// Core-frequency ratio burst/sustained.
    pub freq_ratio: f64,
    /// Uncore/memory boost accompanying the burst.
    pub uncore_ratio: f64,
    /// Aggregate full-execution speedup achieved by the calibration.
    pub achieved_speedup: f64,
}

/// Phase speedup under a frequency ratio with elasticity shading.
///
/// A fraction `e` of the phase's compute share scales with frequency;
/// the remainder behaves like synchronization (frequency-insensitive).
pub fn elastic_phase_speedup(p: &Phase, freq_ratio: f64, uncore: f64, e: f64) -> f64 {
    let c = p.compute_frac();
    let scaled = e * c;
    let unscaled = (1.0 - e) * c + p.sync_frac;
    let t = scaled / freq_ratio + p.mem_frac / uncore + unscaled;
    1.0 / t.max(f64::MIN_POSITIVE)
}

/// Aggregate full-execution speedup for a workload at the given
/// frequency/uncore ratios and elasticity.
pub fn elastic_aggregate_speedup(w: &Workload, freq_ratio: f64, uncore: f64, e: f64) -> f64 {
    workloads::phase::aggregate_speedup(&w.phases, |p| {
        elastic_phase_speedup(p, freq_ratio, uncore, e)
    })
}

/// Returns the calibration for `kind`, computing and caching the whole
/// table on first use.
pub fn dvfs_calibration(kind: WorkloadKind) -> WorkloadCalibration {
    static TABLE: OnceLock<HashMap<WorkloadKind, WorkloadCalibration>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        WorkloadKind::ALL
            .into_iter()
            .map(|k| (k, calibrate(Workload::get(k))))
            .collect()
    });
    table[&kind]
}

/// Solves (κ, e) for one workload.
fn calibrate(w: &Workload) -> WorkloadCalibration {
    let target = w.dvfs_speedup();
    let mut kappa = KAPPA_BASE * w.power_hunger;

    // Grow kappa until the published speedup is reachable at e = 1.
    // Bigger kappa widens the sustained→burst frequency ratio because
    // the sustained cap bites harder (eventually duty-cycling).
    for _ in 0..32 {
        let (ratio, unc) = freq_ratios(kappa);
        if elastic_aggregate_speedup(w, ratio, unc, 1.0) >= target {
            break;
        }
        kappa *= 1.2;
    }

    let (freq_ratio, unc) = freq_ratios(kappa);
    let max_speedup = elastic_aggregate_speedup(w, freq_ratio, unc, 1.0);

    // Bisect elasticity; speedup is monotone increasing in e.
    let mut lo = 0.0;
    let mut hi = 1.0;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if elastic_aggregate_speedup(w, freq_ratio, unc, mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let elasticity = if max_speedup < target { 1.0 } else { hi };
    let sus = pupil_search(kappa, SUSTAINED_CAP_WATTS);
    let burst = pupil_search(kappa, BURST_CAP_WATTS);
    WorkloadCalibration {
        kappa,
        elasticity,
        f_sustained_ghz: sus.freq_ghz,
        f_burst_ghz: burst.freq_ghz,
        freq_ratio,
        uncore_ratio: unc,
        achieved_speedup: elastic_aggregate_speedup(w, freq_ratio, unc, elasticity),
    }
}

fn freq_ratios(kappa: f64) -> (f64, f64) {
    let sus = pupil_search(kappa, SUSTAINED_CAP_WATTS);
    let burst = pupil_search(kappa, BURST_CAP_WATTS);
    let ratio = (burst.freq_ghz / sus.freq_ghz).max(1.0);
    (ratio, uncore_ratio(ratio))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reproduces_table_1c_speedups() {
        for w in Workload::all() {
            let c = dvfs_calibration(w.kind);
            let target = w.dvfs_speedup();
            let rel = (c.achieved_speedup - target).abs() / target;
            assert!(
                rel < 0.02,
                "{}: achieved {:.3} vs target {:.3} (kappa {:.1}, e {:.3}, R {:.2})",
                w.kind.name(),
                c.achieved_speedup,
                target,
                c.kappa,
                c.elasticity,
                c.freq_ratio
            );
        }
    }

    #[test]
    fn elasticity_within_bounds() {
        for w in Workload::all() {
            let c = dvfs_calibration(w.kind);
            assert!((0.0..=1.0).contains(&c.elasticity), "{:?}", w.kind);
        }
    }

    #[test]
    fn power_hungry_stream_gets_widest_ratio() {
        let stream = dvfs_calibration(WorkloadKind::SparkStream);
        for k in WorkloadKind::ALL {
            if k != WorkloadKind::SparkStream {
                assert!(
                    stream.freq_ratio >= dvfs_calibration(k).freq_ratio - 1e-9,
                    "{k:?}"
                );
            }
        }
    }

    #[test]
    fn elastic_speedup_monotone_in_e() {
        let w = Workload::get(WorkloadKind::Jacobi);
        let mut prev = 0.0;
        for i in 0..=10 {
            let s = elastic_aggregate_speedup(w, 2.0, 1.25, i as f64 / 10.0);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn zero_elasticity_still_gets_uncore_boost() {
        let w = Workload::get(WorkloadKind::Mem);
        let s = elastic_aggregate_speedup(w, 2.0, 1.25, 0.0);
        assert!(s > 1.0, "memory share still speeds up: {s}");
        assert!(s < 1.3);
    }

    #[test]
    fn sustained_frequency_below_burst() {
        for w in Workload::all() {
            let c = dvfs_calibration(w.kind);
            assert!(
                c.f_sustained_ghz < c.f_burst_ghz,
                "{}: {} !< {}",
                w.kind.name(),
                c.f_sustained_ghz,
                c.f_burst_ghz
            );
        }
    }
}
