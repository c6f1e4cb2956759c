//! Shared machinery for the experiment binaries.
//!
//! Every table and figure in the paper's evaluation has a binary in
//! `src/bin/` that regenerates it; this library holds the pieces they
//! share: a tiny flag parser, the profile → train → evaluate pipeline,
//! shared summary statistics, and — in [`figs`] — the full figure
//! computations themselves, returning typed result structs that both
//! the binaries and the `conformance` crate consume. [`sweep`] drives
//! the `chaos_sweep` bin.

pub mod args;
pub mod eval;
pub mod figs;
pub mod stats;
pub mod sweep;

pub use args::Args;
pub use eval::{evaluate_model, profile_single, split_runs, EvalPoint, EvalSettings, TrainedSet};
