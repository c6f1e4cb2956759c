//! Machine-learning plumbing shared by the forest and ANN models.
//!
//! The modeling pipeline (§2.3–2.4, §3) needs tabular datasets over
//! workload conditions and sprinting policies, seeded train/test
//! splits and feature normalization. This crate provides those pieces
//! without any model-specific logic; the learners live in the `forest`
//! and `ann` crates, and the figures compute their prediction errors in
//! `bench::stats`.

pub mod dataset;

pub use dataset::{Dataset, Normalizer};
