//! Tabular regression datasets.

use simcore::SimRng;

/// A dense tabular dataset: rows of features plus one regression
/// target per row.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature columns.
    ///
    /// # Panics
    ///
    /// Panics if `feature_names` is empty or has duplicates.
    pub fn new<S: Into<String>>(feature_names: Vec<S>) -> Dataset {
        let names: Vec<String> = feature_names.into_iter().map(Into::into).collect();
        assert!(!names.is_empty(), "dataset needs at least one feature");
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate feature names");
        Dataset {
            feature_names: names,
            rows: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Appends one example.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the feature count or any
    /// value is not finite.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "row width mismatch"
        );
        assert!(
            features.iter().all(|x| x.is_finite()) && target.is_finite(),
            "non-finite value in example"
        );
        self.rows.push(features);
        self.targets.push(target);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of feature columns.
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Feature column names in order.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Index of a named feature column.
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.feature_names.iter().position(|n| n == name)
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// Target of example `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Splits into `(train, test)` with `train_frac` of examples in the
    /// training set, shuffled deterministically by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `train_frac` is outside `(0, 1]`.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            train_frac > 0.0 && train_frac <= 1.0,
            "train fraction {train_frac} out of (0, 1]"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = rand_pcg_like(seed);
        // Fisher–Yates.
        for i in (1..idx.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            idx.swap(i, j);
        }
        let n_train = ((self.len() as f64 * train_frac).round() as usize).min(self.len());
        let mut train = Dataset::new(self.feature_names.clone());
        let mut test = Dataset::new(self.feature_names.clone());
        for (k, &i) in idx.iter().enumerate() {
            let dst = if k < n_train { &mut train } else { &mut test };
            dst.push(self.rows[i].clone(), self.targets[i]);
        }
        (train, test)
    }

    /// Bootstrap sample of `n` examples drawn with replacement.
    pub fn bootstrap(&self, n: usize, seed: u64) -> Dataset {
        let mut rng = rand_pcg_like(seed);
        let mut out = Dataset::new(self.feature_names.clone());
        if self.is_empty() {
            return out;
        }
        for _ in 0..n {
            let i = (rng.next_u64() % self.len() as u64) as usize;
            out.push(self.rows[i].clone(), self.targets[i]);
        }
        out
    }

    /// Keeps only the first `n` examples (e.g. to study training-set
    /// size effects, §3.1).
    pub fn truncated(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        Dataset {
            feature_names: self.feature_names.clone(),
            rows: self.rows[..n].to_vec(),
            targets: self.targets[..n].to_vec(),
        }
    }
}

fn rand_pcg_like(seed: u64) -> SimRng {
    SimRng::new(seed)
}

/// Per-column z-score normalizer fit on a training set.
#[derive(Debug, Clone)]
pub struct Normalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
    target_mean: f64,
    target_std: f64,
}

impl Normalizer {
    /// Fits means and standard deviations on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset) -> Normalizer {
        assert!(!data.is_empty(), "cannot fit normalizer on empty data");
        let d = data.num_features();
        let n = data.len() as f64;
        let mut means = vec![0.0; d];
        for i in 0..data.len() {
            for (m, &x) in means.iter_mut().zip(data.row(i)) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for i in 0..data.len() {
            for ((s, &m), &x) in stds.iter_mut().zip(&means).zip(data.row(i)) {
                *s += (x - m) * (x - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt().max(1e-12);
        }
        let target_mean = data.targets().iter().sum::<f64>() / n;
        let target_var = data
            .targets()
            .iter()
            .map(|&t| (t - target_mean) * (t - target_mean))
            .sum::<f64>()
            / n;
        Normalizer {
            means,
            stds,
            target_mean,
            target_std: target_var.sqrt().max(1e-12),
        }
    }

    /// Normalizes one feature row.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect()
    }

    /// Normalizes a target value.
    pub fn transform_target(&self, t: f64) -> f64 {
        (t - self.target_mean) / self.target_std
    }

    /// Maps a normalized prediction back to target units.
    pub fn inverse_target(&self, z: f64) -> f64 {
        z * self.target_std + self.target_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(vec!["a", "b"]);
        for i in 0..10 {
            let x = i as f64;
            d.push(vec![x, 2.0 * x], 3.0 * x + 1.0);
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.row(3), &[3.0, 6.0]);
        assert_eq!(d.target(3), 10.0);
        assert_eq!(d.feature_index("b"), Some(1));
        assert_eq!(d.feature_index("z"), None);
    }

    #[test]
    fn split_partitions_all_examples() {
        let d = toy();
        let (train, test) = d.split(0.8, 42);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        let mut all: Vec<f64> = train
            .targets()
            .iter()
            .chain(test.targets())
            .cloned()
            .collect();
        all.sort_by(f64::total_cmp);
        let mut expect: Vec<f64> = d.targets().to_vec();
        expect.sort_by(f64::total_cmp);
        assert_eq!(all, expect);
    }

    #[test]
    fn split_is_deterministic() {
        let d = toy();
        let (a, _) = d.split(0.5, 7);
        let (b, _) = d.split(0.5, 7);
        assert_eq!(a.targets(), b.targets());
        let (c, _) = d.split(0.5, 8);
        assert_ne!(a.targets(), c.targets());
    }

    #[test]
    fn bootstrap_draws_existing_rows() {
        let d = toy();
        let b = d.bootstrap(30, 3);
        assert_eq!(b.len(), 30);
        for i in 0..b.len() {
            let t = b.target(i);
            assert!(d.targets().contains(&t));
        }
    }

    #[test]
    fn truncated_keeps_prefix() {
        let d = toy();
        let t = d.truncated(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.target(3), 10.0);
        assert_eq!(d.truncated(100).len(), 10);
    }

    #[test]
    fn normalizer_round_trips() {
        let d = toy();
        let n = Normalizer::fit(&d);
        let z = n.transform_target(d.target(5));
        assert!((n.inverse_target(z) - d.target(5)).abs() < 1e-9);
        // Normalized column means ~0.
        let mut mean0 = 0.0;
        for i in 0..d.len() {
            mean0 += n.transform(d.row(i))[0];
        }
        assert!((mean0 / d.len() as f64).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut d = Dataset::new(vec!["a"]);
        d.push(vec![1.0, 2.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let mut d = Dataset::new(vec!["a"]);
        d.push(vec![f64::NAN], 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate feature")]
    fn duplicate_names_rejected() {
        let _ = Dataset::new(vec!["a", "a"]);
    }
}
