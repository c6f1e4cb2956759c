//! Multi-layer perceptron with Adam training.

use mlcore::{Dataset, Normalizer};
use simcore::{SimRng, SprintError};

/// MLP architecture and training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnConfig {
    /// Hidden layer widths, in order.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed for initialization and batch shuffling.
    pub seed: u64,
}

impl Default for AnnConfig {
    /// A compact architecture that trains reliably on profiling-sized
    /// datasets; see [`AnnConfig::paper`] for the paper's exact shape.
    fn default() -> Self {
        AnnConfig {
            hidden: vec![64, 64, 64],
            learning_rate: 3e-3,
            epochs: 400,
            batch_size: 32,
            seed: 0xA11,
        }
    }
}

impl AnnConfig {
    /// The paper's architecture: 10 hidden layers of 100 neurons
    /// (Table 1A).
    pub fn paper() -> AnnConfig {
        AnnConfig {
            hidden: vec![100; 10],
            epochs: 600,
            learning_rate: 1e-3,
            ..AnnConfig::default()
        }
    }
}

/// One dense layer.
#[derive(Debug, Clone)]
struct Layer {
    /// Row-major `out × in` weight matrix.
    w: Vec<f64>,
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut SimRng) -> Layer {
        // He initialization for ReLU stacks.
        let scale = (2.0 / inputs as f64).sqrt();
        let w = (0..inputs * outputs)
            .map(|_| scale * rng.normal())
            .collect();
        Layer {
            w,
            b: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.outputs {
            let row = &self.w[o * self.inputs..(o + 1) * self.inputs];
            let z: f64 = row.iter().zip(x).map(|(&w, &xi)| w * xi).sum::<f64>() + self.b[o];
            out.push(z);
        }
    }
}

/// Adam state for one parameter tensor.
#[derive(Debug, Clone, Default)]
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    fn new(n: usize) -> Adam {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64, t: usize) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            let mh = self.m[i] / bc1;
            let vh = self.v[i] / bc2;
            params[i] -= lr * mh / (vh.sqrt() + EPS);
        }
    }
}

/// A trained MLP regressor (features → scalar target).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    normalizer: Normalizer,
    num_features: usize,
}

impl Mlp {
    /// Trains on `data` with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SprintError::InvalidConfig`] if `data` is empty or the
    /// config has zero epochs or a zero batch size.
    pub fn train(data: &Dataset, cfg: &AnnConfig) -> Result<Mlp, SprintError> {
        SprintError::require_nonzero("Mlp::train data rows", data.len())?;
        SprintError::require_nonzero("AnnConfig::epochs", cfg.epochs)?;
        SprintError::require_nonzero("AnnConfig::batch_size", cfg.batch_size)?;
        let normalizer = Normalizer::fit(data);
        let rows: Vec<Vec<f64>> = (0..data.len())
            .map(|i| normalizer.transform(data.row(i)))
            .collect();
        let targets: Vec<f64> = (0..data.len())
            .map(|i| normalizer.transform_target(data.target(i)))
            .collect();

        let mut rng = SimRng::new(cfg.seed);
        let mut sizes = vec![data.num_features()];
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(1);
        let mut layers: Vec<Layer> = sizes
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        let mut adam_w: Vec<Adam> = layers.iter().map(|l| Adam::new(l.w.len())).collect();
        let mut adam_b: Vec<Adam> = layers.iter().map(|l| Adam::new(l.b.len())).collect();

        let n = rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut t = 0;
        for _epoch in 0..cfg.epochs {
            // Shuffle example order each epoch.
            rng.shuffle(&mut order);
            for batch in order.chunks(cfg.batch_size) {
                t += 1;
                let (gw, gb) = batch_gradients(&layers, &rows, &targets, batch);
                for (l, layer) in layers.iter_mut().enumerate() {
                    adam_w[l].step(&mut layer.w, &gw[l], cfg.learning_rate, t);
                    adam_b[l].step(&mut layer.b, &gb[l], cfg.learning_rate, t);
                }
            }
        }
        Ok(Mlp {
            layers,
            normalizer,
            num_features: data.num_features(),
        })
    }

    /// Predicts the target for one raw (unnormalized) feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training data.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.num_features, "row width mismatch");
        let mut x = self.normalizer.transform(row);
        let mut buf = Vec::new();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward(&x, &mut buf);
            if i < last {
                for z in &mut buf {
                    *z = z.max(0.0); // ReLU.
                }
            }
            std::mem::swap(&mut x, &mut buf);
        }
        self.normalizer.inverse_target(x[0])
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }
}

/// Mean gradients over a mini-batch (weights and biases per layer).
fn batch_gradients(
    layers: &[Layer],
    rows: &[Vec<f64>],
    targets: &[f64],
    batch: &[usize],
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
    let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
    let last = layers.len() - 1;
    for &i in batch {
        // Forward pass, caching pre-activations and activations.
        let mut acts: Vec<Vec<f64>> = vec![rows[i].clone()];
        let mut pre: Vec<Vec<f64>> = Vec::with_capacity(layers.len());
        for (l, layer) in layers.iter().enumerate() {
            let mut z = Vec::new();
            layer.forward(acts.last().expect("input present"), &mut z);
            pre.push(z.clone());
            if l < last {
                for v in &mut z {
                    *v = v.max(0.0);
                }
            }
            acts.push(z);
        }
        // Backward pass: d MSE/2 = (pred - y).
        let pred = acts.last().expect("output present")[0];
        let mut delta = vec![pred - targets[i]];
        for l in (0..layers.len()).rev() {
            let input = &acts[l];
            for (o, &d) in delta.iter().enumerate() {
                gb[l][o] += d;
                let row = &mut gw[l][o * layers[l].inputs..(o + 1) * layers[l].inputs];
                for (g, &xi) in row.iter_mut().zip(input) {
                    *g += d * xi;
                }
            }
            if l > 0 {
                // Propagate through weights and the previous ReLU.
                let mut next = vec![0.0; layers[l].inputs];
                for (o, &d) in delta.iter().enumerate() {
                    let row = &layers[l].w[o * layers[l].inputs..(o + 1) * layers[l].inputs];
                    for (nx, &w) in next.iter_mut().zip(row) {
                        *nx += d * w;
                    }
                }
                for (nx, &z) in next.iter_mut().zip(&pre[l - 1]) {
                    if z <= 0.0 {
                        *nx = 0.0;
                    }
                }
                delta = next;
            }
        }
    }
    let scale = 1.0 / batch.len() as f64;
    for g in gw.iter_mut().flat_map(|v| v.iter_mut()) {
        *g *= scale;
    }
    for g in gb.iter_mut().flat_map(|v| v.iter_mut()) {
        *g *= scale;
    }
    (gw, gb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_dataset(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x1", "x2"]);
        for i in 0..n {
            let a = (i % 17) as f64 / 4.0;
            let b = ((i * 5) % 13) as f64 / 3.0;
            d.push(vec![a, b], 3.0 * a - 2.0 * b + 1.0);
        }
        d
    }

    #[test]
    fn learns_linear_function() {
        let d = linear_dataset(200);
        let cfg = AnnConfig {
            hidden: vec![16],
            epochs: 300,
            ..AnnConfig::default()
        };
        let m = Mlp::train(&d, &cfg).unwrap();
        let p = m.predict(&[2.0, 1.0]);
        assert!((p - 5.0).abs() < 0.5, "prediction {p}");
    }

    #[test]
    fn learns_nonlinear_function() {
        let mut d = Dataset::new(vec!["x"]);
        for i in 0..300 {
            let x = i as f64 / 50.0 - 3.0;
            d.push(vec![x], x * x);
        }
        let cfg = AnnConfig {
            hidden: vec![32, 32],
            epochs: 600,
            ..AnnConfig::default()
        };
        let m = Mlp::train(&d, &cfg).unwrap();
        for (x, y) in [(0.0, 0.0), (2.0, 4.0), (-2.0, 4.0)] {
            let p = m.predict(&[x]);
            assert!((p - y).abs() < 0.7, "f({x}) = {p}, want {y}");
        }
    }

    #[test]
    fn deterministic_training() {
        let d = linear_dataset(100);
        let cfg = AnnConfig {
            hidden: vec![8],
            epochs: 50,
            ..AnnConfig::default()
        };
        let a = Mlp::train(&d, &cfg).unwrap();
        let b = Mlp::train(&d, &cfg).unwrap();
        assert_eq!(a.predict(&[1.0, 1.0]), b.predict(&[1.0, 1.0]));
    }

    #[test]
    fn deep_paper_architecture_trains() {
        // The paper's 10 × 100 stack must at least fit the training
        // data roughly (it is over-parameterized for this toy set).
        let d = linear_dataset(100);
        let mut cfg = AnnConfig::paper();
        cfg.epochs = 60;
        let m = Mlp::train(&d, &cfg).unwrap();
        assert!(m.num_params() > 90_000);
        let p = m.predict(&[2.0, 1.0]);
        assert!((p - 5.0).abs() < 2.0, "deep prediction {p}");
    }

    #[test]
    fn num_params_counts_all_layers() {
        let d = linear_dataset(20);
        let cfg = AnnConfig {
            hidden: vec![4],
            epochs: 1,
            ..AnnConfig::default()
        };
        let m = Mlp::train(&d, &cfg).unwrap();
        // 2*4 + 4 weights+biases, then 4*1 + 1.
        assert_eq!(m.num_params(), (2 * 4 + 4) + (4 + 1));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn predict_rejects_wrong_width() {
        let d = linear_dataset(20);
        let cfg = AnnConfig {
            hidden: vec![4],
            epochs: 1,
            ..AnnConfig::default()
        };
        let m = Mlp::train(&d, &cfg).unwrap();
        let _ = m.predict(&[1.0]);
    }

    #[test]
    fn train_rejects_empty() {
        let d = Dataset::new(vec!["x"]);
        let err = Mlp::train(&d, &AnnConfig::default()).unwrap_err();
        assert!(matches!(err, SprintError::InvalidConfig { .. }), "{err}");
    }
}
