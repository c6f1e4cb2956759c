//! Bagged ensemble of regression trees.

use crate::tree::{RegressionTree, TreeConfig};
use mlcore::Dataset;
use simcore::SimRng;

/// Forest construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees; the paper uses 10 (Table 1A).
    pub num_trees: usize,
    /// Fraction of features offered to each tree (the base feature is
    /// always included so every leaf can regress on it).
    pub feature_frac: f64,
    /// Per-tree construction parameters.
    pub tree: TreeConfig,
    /// RNG seed for bagging and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            num_trees: 10,
            feature_frac: 0.7,
            tree: TreeConfig::default(),
            seed: 0x5eed,
        }
    }
}

/// A trained random decision forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    base_feature: usize,
}

impl RandomForest {
    /// Trains the forest: each tree sees a bootstrap sample of the data
    /// and a random feature subset (Fig. 5's subsampling).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, the config requests zero trees, or
    /// `base_feature` is out of range.
    pub fn train(data: &Dataset, base_feature: usize, cfg: ForestConfig) -> RandomForest {
        assert!(!data.is_empty(), "cannot train on empty data");
        assert!(cfg.num_trees > 0, "need at least one tree");
        assert!(
            base_feature < data.num_features(),
            "base feature out of range"
        );
        let mut rng = SimRng::new(cfg.seed);
        let d = data.num_features();
        let subset_size = ((d as f64 * cfg.feature_frac).round() as usize).clamp(1, d);
        let trees = (0..cfg.num_trees)
            .map(|_| {
                let bag = data.bootstrap(data.len(), rng.next_u64());
                let features = feature_subset(&mut rng, d, subset_size, base_feature);
                RegressionTree::train(&bag, &features, base_feature, cfg.tree)
            })
            .collect();
        RandomForest {
            trees,
            base_feature,
        }
    }

    /// Predicts by averaging tree outputs. Because each tree's output
    /// is a leaf-linear function `a_i · x + b_i` of the base feature,
    /// this equals evaluating the averaged regression parameters
    /// `(mean a, mean b)` — the paper's vote-combining rule.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let timer = obs::start_timer();
        let out = self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64;
        obs::global().forest_infer_ns.record_elapsed_ns(timer);
        out
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// The base feature index leaves regress on.
    pub fn base_feature(&self) -> usize {
        self.base_feature
    }

    /// Normalized feature importance averaged across trees (impurity
    /// decrease); sums to 1 unless no tree ever split.
    pub fn feature_importance(&self) -> Vec<f64> {
        let n = self
            .trees
            .first()
            .map_or(0, |t| t.feature_importance().len());
        let mut total = vec![0.0; n];
        for t in &self.trees {
            for (acc, &v) in total.iter_mut().zip(t.feature_importance()) {
                *acc += v;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for v in &mut total {
                *v /= sum;
            }
        }
        total
    }
}

/// Draws a distinct feature subset of `size` that always contains
/// `base_feature`.
fn feature_subset(
    rng: &mut SimRng,
    num_features: usize,
    size: usize,
    base_feature: usize,
) -> Vec<usize> {
    let mut all: Vec<usize> = (0..num_features).filter(|&f| f != base_feature).collect();
    // Fisher–Yates prefix shuffle.
    for i in (1..all.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        all.swap(i, j);
    }
    let mut subset: Vec<usize> = all.into_iter().take(size.saturating_sub(1)).collect();
    subset.push(base_feature);
    subset.sort_unstable();
    subset
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_linear(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["mu_m", "lambda", "budget"]);
        for i in 0..n {
            let x = (i % 40) as f64;
            let l = ((i * 7) % 10) as f64;
            let b = ((i * 13) % 5) as f64;
            // Mostly linear in x with a regime shift on lambda.
            let y = if l > 5.0 {
                1.4 * x + 2.0
            } else {
                0.9 * x + 1.0
            };
            d.push(vec![x, l, b], y);
        }
        d
    }

    #[test]
    fn forest_beats_single_leaf_on_regime_data() {
        let d = noisy_linear(400);
        // Offer every tree all features: with subsampling, whether a
        // tree can separate the lambda regimes depends on the RNG
        // stream, and this test is about leaf structure, not bagging.
        let cfg = ForestConfig {
            feature_frac: 1.0,
            ..ForestConfig::default()
        };
        let f = RandomForest::train(&d, 0, cfg);
        assert_eq!(f.num_trees(), 10);
        // Check both regimes.
        let hi = f.predict(&[20.0, 8.0, 2.0]);
        let lo = f.predict(&[20.0, 2.0, 2.0]);
        assert!((hi - 30.0).abs() < 2.5, "high regime {hi}");
        assert!((lo - 19.0).abs() < 2.5, "low regime {lo}");
    }

    #[test]
    fn deterministic_given_seed() {
        let d = noisy_linear(200);
        let a = RandomForest::train(&d, 0, ForestConfig::default());
        let b = RandomForest::train(&d, 0, ForestConfig::default());
        for row in [[5.0, 1.0, 0.0], [35.0, 9.0, 4.0]] {
            assert_eq!(a.predict(&row), b.predict(&row));
        }
    }

    #[test]
    fn different_seeds_differ() {
        // Add irregular noise so bootstrap samples actually disagree.
        let mut d = Dataset::new(vec!["mu_m", "lambda", "budget"]);
        for i in 0..200 {
            let x = (i % 40) as f64;
            let l = ((i * 7) % 10) as f64;
            let b = ((i * 13) % 5) as f64;
            let noise = ((i as f64 * 12.9898).sin() * 43_758.547).fract() * 4.0;
            d.push(vec![x, l, b], x + noise);
        }
        let a = RandomForest::train(&d, 0, ForestConfig::default());
        let cfg = ForestConfig {
            seed: 99,
            ..ForestConfig::default()
        };
        let b = RandomForest::train(&d, 0, cfg);
        let probes = [[17.0, 6.0, 1.0], [3.0, 1.0, 4.0], [39.0, 9.0, 0.0]];
        assert!(
            probes.iter().any(|row| a.predict(row) != b.predict(row)),
            "different seeds should yield different ensembles"
        );
    }

    #[test]
    fn feature_subset_always_has_base() {
        let mut rng = SimRng::new(1);
        for _ in 0..50 {
            let s = feature_subset(&mut rng, 8, 4, 3);
            assert!(s.contains(&3));
            assert_eq!(s.len(), 4);
            let mut d = s.clone();
            d.dedup();
            assert_eq!(d.len(), s.len(), "duplicates in {s:?}");
        }
    }

    #[test]
    fn extrapolates_linearly_through_leaves() {
        // Leaf linear models let the forest extrapolate along µm a bit
        // beyond the training range — unlike mean leaves.
        let mut d = Dataset::new(vec!["x"]);
        for i in 0..100 {
            let x = i as f64 / 10.0;
            d.push(vec![x], 3.0 * x);
        }
        let cfg = ForestConfig {
            tree: TreeConfig {
                min_leaf: 10,
                ..TreeConfig::default()
            },
            ..ForestConfig::default()
        };
        let f = RandomForest::train(&d, 0, cfg);
        let p = f.predict(&[12.0]); // 20% beyond max x = 9.9.
        assert!((p - 36.0).abs() < 4.0, "extrapolation {p}");
    }

    #[test]
    fn feature_importance_identifies_the_driver() {
        // Target depends on feature 1 (lambda); features 0 and 2 are
        // decoys. Importance must concentrate on feature 1.
        let mut d = Dataset::new(vec!["mu_m", "lambda", "budget"]);
        for i in 0..300 {
            let x = (i % 40) as f64;
            let l = ((i * 7) % 10) as f64;
            let b = ((i * 13) % 5) as f64;
            d.push(vec![x, l, b], 10.0 * l);
        }
        // Give every tree all features: with subsampling, trees denied
        // `lambda` are forced to split on decoys, diluting importance.
        let cfg = ForestConfig {
            feature_frac: 1.0,
            ..ForestConfig::default()
        };
        let f = RandomForest::train(&d, 0, cfg);
        let imp = f.feature_importance();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[1] > 0.9, "lambda should dominate importance: {imp:?}");
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_rejected() {
        let d = noisy_linear(10);
        let cfg = ForestConfig {
            num_trees: 0,
            ..ForestConfig::default()
        };
        let _ = RandomForest::train(&d, 0, cfg);
    }
}
