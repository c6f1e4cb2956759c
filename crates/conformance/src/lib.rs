//! Machine-checked paper parity.
//!
//! This crate turns "the repo reproduces the paper" from a claim into
//! a gate. Three layers:
//!
//! - [`measure`] — one shared measurement pass per seed over the
//!   `bench::figs` library (Fig 1, Table 1, Figs 7–14, the forest
//!   ablation) at conformance-sized settings.
//! - [`anchors`] — ~40 scalar claims extracted from that pass, each
//!   compared against a committed golden value within a per-anchor
//!   tolerance band (`golden/anchors.json`; regenerate with
//!   `UPDATE_GOLDEN=1`).
//! - [`oracles`] — differential bit-identity checks between fast and
//!   reference code paths (the qsim batch backends, the direct
//!   engines, CRN traces, the flight recorder), which need no golden
//!   file at all.
//!
//! The `paper_parity` bin runs all three, prints a JSON report, and
//! exits nonzero on any drift — `scripts/check.sh` runs it after the
//! perf smoke.

pub mod anchors;
pub mod measure;
pub mod oracles;
pub mod report;

pub use anchors::{catalogue, Anchor, Band};
pub use measure::{collect, Measurements, DEFAULT_SEED};
pub use oracles::{run_all, OracleOutcome};
pub use report::{check_anchors, AnchorOutcome, Golden, ParityReport, SCHEMA_VERSION};
