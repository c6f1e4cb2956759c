//! Random decision forest regression (§2.4, Fig. 5).
//!
//! The paper infers *effective sprint rate* with a random decision
//! forest: bootstrap subsamples of profiling runs, a random subset of
//! predictive features per tree, deep ID3-style trees split by variance
//! reduction (Equation 3), and **linear-regression leaves** of the form
//! `µe = a · µm + b` over the samples that reach them. Tree votes are
//! combined by averaging the leaf regression parameters — equivalent
//! to averaging the per-tree predictions, which is how
//! [`RandomForest::predict`] is implemented.
//!
//! Deep unpruned trees are deliberate: pruning would erase the complex
//! effects of some policy parameters, while bagging across trees with
//! different feature subsets limits the variance cost (the paper's
//! "Why Random Decision Forests?" discussion).
//!
//! # Examples
//!
//! ```
//! use forest::{ForestConfig, RandomForest};
//! use mlcore::Dataset;
//!
//! // µe depends linearly on µm with a regime shift on load.
//! let mut data = Dataset::new(vec!["mu_m", "lambda"]);
//! for i in 0..200 {
//!     let mu_m = 40.0 + (i % 40) as f64;
//!     let lambda = (i % 10) as f64;
//!     let mu_e = if lambda > 5.0 { 0.8 * mu_m } else { 0.95 * mu_m };
//!     data.push(vec![mu_m, lambda], mu_e);
//! }
//! // With only two features, give every tree both (the default 0.7
//! // subsample would leave some trees µm-only).
//! let cfg = ForestConfig {
//!     feature_frac: 1.0,
//!     ..ForestConfig::default()
//! };
//! let forest = RandomForest::train(&data, 0, cfg);
//! let light = forest.predict(&[60.0, 2.0]);
//! let heavy = forest.predict(&[60.0, 8.0]);
//! assert!(light > heavy, "heavy load lowers the effective rate");
//! ```

pub mod forest;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use tree::{RegressionTree, TreeConfig};
