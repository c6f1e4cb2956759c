//! Library implementations of every paper figure and table the bench
//! binaries print.
//!
//! Each module computes one figure/table as a typed result struct; the
//! `bin/` entry points are thin printers over these functions, and the
//! `conformance` crate extracts machine-checked anchors from the same
//! structs — both always agree because they share the computation.

pub mod ablation;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod perf;
pub mod table1;
