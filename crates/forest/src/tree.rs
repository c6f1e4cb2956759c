//! A single regression tree with variance-gain splits and linear
//! leaves.

use mlcore::Dataset;

/// Tree construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth; the paper builds deep trees and eschews pruning.
    pub max_depth: usize,
    /// Minimum examples per leaf.
    pub min_leaf: usize,
    /// Maximum split-threshold candidates evaluated per feature
    /// (quantile-spaced); bounds training cost on large leaves.
    pub max_candidates: usize,
    /// Fit linear leaf models over the base feature (the paper's
    /// `µe = a·µm + b`, Fig. 5); `false` uses constant-mean leaves —
    /// kept as an ablation knob.
    pub linear_leaves: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 32,
            min_leaf: 3,
            max_candidates: 32,
            linear_leaves: true,
        }
    }
}

/// Leaf model `y = slope · x_base + intercept` (Fig. 5's
/// `µe = a · µm + b`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafModel {
    /// Regression slope over the base feature.
    pub slope: f64,
    /// Regression intercept.
    pub intercept: f64,
}

impl LeafModel {
    fn fit(xs: &[f64], ys: &[f64]) -> LeafModel {
        debug_assert_eq!(xs.len(), ys.len());
        debug_assert!(!xs.is_empty());
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|&x| (x - mx) * (x - mx)).sum();
        let sxy: f64 = xs.iter().zip(ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
        if sxx < 1e-12 {
            // Degenerate base feature within the leaf: constant model.
            return LeafModel {
                slope: 0.0,
                intercept: my,
            };
        }
        let slope = sxy / sxx;
        LeafModel {
            slope,
            intercept: my - slope * mx,
        }
    }

    /// Evaluates the leaf model at base-feature value `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(LeafModel),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    root: Node,
    base_feature: usize,
    num_features: usize,
    importance: Vec<f64>,
}

impl RegressionTree {
    /// Trains a tree on `data`, splitting only on `features` (a random
    /// subset per tree in a forest) and fitting leaves over
    /// `base_feature`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, `features` is empty, or any index is
    /// out of range.
    pub fn train(
        data: &Dataset,
        features: &[usize],
        base_feature: usize,
        cfg: TreeConfig,
    ) -> RegressionTree {
        assert!(!data.is_empty(), "cannot train on empty data");
        assert!(!features.is_empty(), "need at least one split feature");
        assert!(
            features.iter().all(|&f| f < data.num_features()),
            "split feature out of range"
        );
        assert!(
            base_feature < data.num_features(),
            "base feature out of range"
        );
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut importance = vec![0.0; data.num_features()];
        let root = build(data, &idx, features, base_feature, cfg, 0, &mut importance);
        RegressionTree {
            root,
            base_feature,
            num_features: data.num_features(),
            importance,
        }
    }

    /// Total variance reduction attributed to each feature by this
    /// tree's splits (unnormalized). Features never split on score 0.
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training data.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.num_features, "row width mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(m) => return m.predict(row[self.base_feature]),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Tree depth (1 for a single leaf).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        fn c(n: &Node) -> usize {
            match n {
                Node::Leaf(_) => 1,
                Node::Split { left, right, .. } => c(left) + c(right),
            }
        }
        c(&self.root)
    }
}

fn variance(data: &Dataset, idx: &[usize]) -> f64 {
    if idx.len() < 2 {
        return 0.0;
    }
    let n = idx.len() as f64;
    let mean = idx.iter().map(|&i| data.target(i)).sum::<f64>() / n;
    idx.iter()
        .map(|&i| {
            let d = data.target(i) - mean;
            d * d
        })
        .sum::<f64>()
        / n
}

fn make_leaf(data: &Dataset, idx: &[usize], base_feature: usize, linear: bool) -> Node {
    let ys: Vec<f64> = idx.iter().map(|&i| data.target(i)).collect();
    if !linear {
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        return Node::Leaf(LeafModel {
            slope: 0.0,
            intercept: mean,
        });
    }
    let xs: Vec<f64> = idx.iter().map(|&i| data.row(i)[base_feature]).collect();
    Node::Leaf(LeafModel::fit(&xs, &ys))
}

fn build(
    data: &Dataset,
    idx: &[usize],
    features: &[usize],
    base_feature: usize,
    cfg: TreeConfig,
    depth: usize,
    importance: &mut [f64],
) -> Node {
    let parent_var = variance(data, idx);
    if depth >= cfg.max_depth || idx.len() < 2 * cfg.min_leaf || parent_var < 1e-15 {
        return make_leaf(data, idx, base_feature, cfg.linear_leaves);
    }

    // Best split by variance gain: VS - (VS_left + VS_right)/2 in the
    // paper's Equation 3; we use the standard weighted-child variance,
    // which orders candidate splits the same way for balanced children
    // and behaves better for skewed ones.
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, child_var)
    for &f in features {
        let mut vals: Vec<f64> = idx.iter().map(|&i| data.row(i)[f]).collect();
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        if vals.len() < 2 {
            continue;
        }
        let step = (vals.len() - 1).div_ceil(cfg.max_candidates).max(1);
        for w in (0..vals.len() - 1).step_by(step) {
            let threshold = 0.5 * (vals[w] + vals[w + 1]);
            let (l, r): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| data.row(i)[f] <= threshold);
            if l.len() < cfg.min_leaf || r.len() < cfg.min_leaf {
                continue;
            }
            let child = (variance(data, &l) * l.len() as f64 + variance(data, &r) * r.len() as f64)
                / idx.len() as f64;
            if best.is_none_or(|(_, _, b)| child < b) {
                best = Some((f, threshold, child));
            }
        }
    }

    match best {
        Some((feature, threshold, child_var)) if child_var < parent_var - 1e-15 => {
            let (l, r): (Vec<usize>, Vec<usize>) = idx
                .iter()
                .partition(|&&i| data.row(i)[feature] <= threshold);
            // Attribute the (weighted) variance reduction to the split
            // feature — the usual impurity-decrease importance.
            importance[feature] += (parent_var - child_var) * idx.len() as f64;
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(
                    data,
                    &l,
                    features,
                    base_feature,
                    cfg,
                    depth + 1,
                    importance,
                )),
                right: Box::new(build(
                    data,
                    &r,
                    features,
                    base_feature,
                    cfg,
                    depth + 1,
                    importance,
                )),
            }
        }
        _ => make_leaf(data, idx, base_feature, cfg.linear_leaves),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> Dataset {
        // Target depends linearly on feature 0 only.
        let mut d = Dataset::new(vec!["x", "noise"]);
        for i in 0..50 {
            let x = i as f64;
            d.push(vec![x, (i % 7) as f64], 2.0 * x + 5.0);
        }
        d
    }

    #[test]
    fn leaf_model_fits_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0];
        let m = LeafModel::fit(&xs, &ys);
        assert!((m.slope - 2.0).abs() < 1e-9);
        assert!((m.intercept - 1.0).abs() < 1e-9);
        assert!((m.predict(10.0) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_model_degenerate_x_uses_mean() {
        let m = LeafModel::fit(&[2.0, 2.0, 2.0], &[1.0, 3.0, 5.0]);
        assert_eq!(m.slope, 0.0);
        assert!((m.intercept - 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_leaf_tree_is_global_regression() {
        let d = linear_data();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let t = RegressionTree::train(&d, &[0, 1], 0, cfg);
        assert_eq!(t.num_leaves(), 1);
        assert!((t.predict(&[30.0, 0.0]) - 65.0).abs() < 1e-6);
    }

    #[test]
    fn tree_fits_piecewise_function() {
        // Step function of feature 1, linear in feature 0 within steps.
        let mut d = Dataset::new(vec!["mu_m", "regime"]);
        for i in 0..100 {
            let x = (i % 20) as f64;
            let regime = if i < 50 { 0.0 } else { 1.0 };
            let y = if regime == 0.0 {
                x + 1.0
            } else {
                3.0 * x + 10.0
            };
            d.push(vec![x, regime], y);
        }
        let t = RegressionTree::train(&d, &[0, 1], 0, TreeConfig::default());
        assert!((t.predict(&[5.0, 0.0]) - 6.0).abs() < 0.5);
        assert!((t.predict(&[5.0, 1.0]) - 25.0).abs() < 1.5);
        assert!(t.depth() > 1);
    }

    #[test]
    fn respects_min_leaf() {
        let d = linear_data();
        let cfg = TreeConfig {
            min_leaf: 26,
            ..TreeConfig::default()
        };
        let t = RegressionTree::train(&d, &[0, 1], 0, cfg);
        assert_eq!(
            t.num_leaves(),
            1,
            "50 samples cannot split with min_leaf 26"
        );
    }

    #[test]
    fn constant_target_single_leaf() {
        let mut d = Dataset::new(vec!["x"]);
        for i in 0..20 {
            d.push(vec![i as f64], 7.0);
        }
        let t = RegressionTree::train(&d, &[0], 0, TreeConfig::default());
        assert_eq!(t.num_leaves(), 1);
        assert!((t.predict(&[100.0]) - 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn predict_rejects_wrong_width() {
        let d = linear_data();
        let t = RegressionTree::train(&d, &[0], 0, TreeConfig::default());
        let _ = t.predict(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn train_rejects_empty() {
        let d = Dataset::new(vec!["x"]);
        let _ = RegressionTree::train(&d, &[0], 0, TreeConfig::default());
    }
}
