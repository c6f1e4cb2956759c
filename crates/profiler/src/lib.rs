//! Offline workload profiling (§2.1, Fig. 2 left).
//!
//! The profiler replays a representative workload on the testbed many
//! times, varying arrival patterns and sprinting policies over a
//! cluster-sampled grid (§3's centroids), and extracts the three
//! outputs the modeling pipeline needs:
//!
//! 1. **Service rate µ** — inverse mean processing time of executions
//!    that never sprint,
//! 2. **Marginal sprint rate µm** — mean processing rate when whole
//!    executions are sprinted (timeout 0, unlimited budget),
//! 3. **Observed response times** — one per replayed condition, the
//!    ground truth that effective-sprint-rate calibration aligns
//!    against.
//!
//! A campaign is a seeded function of its grid, so re-running it
//! reproduces the same [`ProfileData`] bit for bit.

pub mod features;
pub mod grid;
pub mod profile;

pub use features::{Condition, FEATURE_NAMES};
pub use grid::SamplingGrid;
pub use profile::{ProfileData, Profiler, ProfilingRun, WorkloadProfile};
