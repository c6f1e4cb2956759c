//! Randomized-but-seeded fault plans for the supervised testbed.
//!
//! [`random_plan`] draws a [`faults::FaultPlan`] from a seed: it always
//! arms the flaky slot, which quarantine decisively repairs, plus a
//! random subset of the other fault classes, with storm windows in
//! disjoint thirds of the horizon. The chaos sweep (`bench::sweep`, the
//! `chaos_sweep` bin) puts one such plan into each generated scenario
//! plan and runs it through the scenario catalog's executor and
//! invariants, the same path as a written `scenarios/*.toml` file.

#![deny(unreachable_pub)]

mod plan;

pub use plan::random_plan;
