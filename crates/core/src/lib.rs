//! Model-driven computational sprinting — the paper's contribution.
//!
//! This crate ties the substrates together into the modeling pipeline
//! of Fig. 2:
//!
//! ```text
//! profiling data ──► effective-sprint-rate calibration (Eq. 2)
//!        │                      │
//!        │                      ▼
//!        │            random decision forest  ──► µe
//!        │                                         │
//!        ▼                                         ▼
//!   service samples ─────────► timeout-aware queue simulator ──► RT
//! ```
//!
//! Three [`ResponseTimeModel`]s are provided, matching Table 1(A):
//!
//! - [`HybridModel`] — the paper's approach: a random forest maps
//!   conditions to *effective sprint rate* µe, which drives the
//!   first-principles simulator.
//! - [`NoMlModel`] — the simulator fed the profiled *marginal* sprint
//!   rate µm (no machine learning).
//! - [`AnnModel`] — an MLP mapping conditions directly to response
//!   time.
//!
//! [`throughput`] measures predictions per minute (Fig. 11), and
//! [`train`] builds models from a profiling campaign.
//!
//! For deployment, [`online`] adds a model-health circuit breaker
//! ([`ModelHealthMonitor`]): when observed response times diverge from
//! predictions it walks the degradation ladder full model → stale
//! model → no-sprint, and re-closes only after an Eq. 2 recalibration
//! succeeds.

pub mod calibrate;
pub mod model;
pub mod online;
pub mod throughput;
pub mod train;

pub use calibrate::{effective_sprint_rate, CalibrationOptions};
pub use model::{AnnModel, HybridModel, NoMlModel, ResponseTimeModel, SimOptions};
pub use online::{
    ArrivalRateEstimator, BreakerConfig, DegradationLevel, ModelHealthMonitor, OnlineModel,
};
pub use train::{train_ann, train_hybrid, TrainOptions};

/// FNV-1a 64 over the bits of `values`, for tests that pin float
/// outputs bit for bit.
#[cfg(test)]
fn fnv1a_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}
