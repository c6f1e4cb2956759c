//! Deterministic, splittable random number generation.
//!
//! Every stochastic component in the workspace draws from a [`SimRng`]
//! seeded explicitly by the caller, so whole experiments replay
//! bit-identically from a single `u64` seed. Streams for independent
//! subsystems (arrivals, service times, policy search, tree bagging) are
//! derived with [`SimRng::split`] so adding draws to one subsystem never
//! perturbs another.
//!
//! The generator is a self-contained PCG-64-MCG (128-bit multiplicative
//! congruential state, XSL-RR output permutation) so the workspace has
//! no external RNG dependency and remains buildable fully offline.

/// PCG-64-MCG multiplier (from the PCG reference implementation).
const PCG_MULTIPLIER: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

/// A seeded PCG-based random number generator.
///
/// A PCG-64-MCG core (128-bit MCG state, XSL-RR output) with labeled
/// stream splitting and a few sampling helpers the simulators need.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u128,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed to 128 bits with two splitmix64 steps;
        // an MCG state must be odd, so force the low bit.
        let lo = splitmix64(seed);
        let hi = splitmix64(lo);
        SimRng {
            state: (((hi as u128) << 64) | lo as u128) | 1,
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The derivation mixes the label through splitmix64 so different
    /// labels produce uncorrelated streams, and the parent state is not
    /// advanced — `split` is a pure function of `(parent seed draws,
    /// label)` only via one `next_u64` call.
    pub fn split(&mut self, label: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(splitmix64(base ^ splitmix64(label)))
    }

    /// Next raw 64-bit output (XSL-RR permutation of the advanced state).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MULTIPLIER);
        let rot = (self.state >> 122) as u32;
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        xored.rotate_right(rot)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Lemire's widening-multiply method with rejection to debias.
        let n = n as u64;
        let threshold = n.wrapping_neg() % n;
        loop {
            let wide = (self.next_u64() as u128) * (n as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as usize;
            }
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        // Box–Muller: avoid u1 == 0 so the log is finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Draws `k` distinct indices from `[0, n)` (simple reservoir
    /// sampling); returns all of `[0, n)` when `k >= n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.index(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// splitmix64 finalizer used to decorrelate derived seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_later_parent_use() {
        let mut parent1 = SimRng::new(7);
        let mut child1 = parent1.split(3);
        let _ = parent1.next_u64(); // Extra parent draw after split.

        let mut parent2 = SimRng::new(7);
        let mut child2 = parent2.split(3);

        for _ in 0..32 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn split_labels_decorrelate() {
        let mut p = SimRng::new(9);
        let mut a = p.clone().split(1);
        let mut b = p.split(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(23);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn index_covers_small_range_uniformly() {
        let mut r = SimRng::new(29);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[r.index(8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 800 && c < 1200, "bucket {i} count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(11);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = SimRng::new(13);
        let mut ix = r.sample_indices(100, 20);
        ix.sort_unstable();
        ix.dedup();
        assert_eq!(ix.len(), 20);
        assert!(ix.iter().all(|&i| i < 100));
        assert_eq!(r.sample_indices(5, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(19);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // Clamped.
    }
}
