//! Order statistics and the benchmark's own deterministic random numbers.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between closest ranks (position `q·(n−1)` in the sorted sample). Values
/// are ordered with `total_cmp`, so a stray NaN sorts last instead of
/// panicking a comparator. Returns NaN for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: a small, fast, seedable generator. The benchmark derives all
/// of its own choices (keys, request mix) from it so the inputs depend only
/// on `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf(s) sampler over `n` keys. Rank `r` (0-based) has probability
/// proportional to `1/(r+1)^s`; ranks map to keys through a seeded
/// permutation so the hot keys are scattered over the id space.
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<u32>,
    rng: SplitMix64,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf needs at least one key");
        let mut rng = SplitMix64::new(seed);
        let keys = rng.permutation(n);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, keys, rng }
    }

    /// The next rank (0 = hottest).
    pub fn next_rank(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// The next key.
    pub fn next_key(&mut self) -> u32 {
        let r = self.next_rank();
        self.keys[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_known_values() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        // Interpolates between ranks and ignores input order.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[10.0, 0.0], 0.25), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quantile_sorts_nan_last_instead_of_panicking() {
        assert_eq!(quantile(&[f64::NAN, 1.0, 2.0], 0.0), 1.0);
        assert!(quantile(&[f64::NAN, 1.0, 2.0], 1.0).is_nan());
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let a: Vec<u32> = {
            let mut z = Zipf::new(1000, 1.0, 42);
            (0..500).map(|_| z.next_key()).collect()
        };
        let b: Vec<u32> = {
            let mut z = Zipf::new(1000, 1.0, 42);
            (0..500).map(|_| z.next_key()).collect()
        };
        let c: Vec<u32> = {
            let mut z = Zipf::new(1000, 1.0, 43);
            (0..500).map(|_| z.next_key()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&k| k < 1000));
    }

    #[test]
    fn zipf_head_share_matches_harmonic_numbers() {
        let n = 20_000;
        let harmonic = |m: usize| (1..=m).map(|r| 1.0 / r as f64).sum::<f64>();
        let expected_top10 = harmonic(10) / harmonic(n);
        let mut z = Zipf::new(n, 1.0, 7);
        let draws = 200_000;
        let top10 = (0..draws).filter(|_| z.next_rank() < 10).count();
        let share = top10 as f64 / draws as f64;
        assert!(
            (share - expected_top10).abs() < 0.01,
            "top-10 share {share} vs expected {expected_top10}"
        );
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = SplitMix64::new(3).permutation(257);
        p.sort_unstable();
        assert_eq!(p, (0..257).collect::<Vec<u32>>());
    }
}
