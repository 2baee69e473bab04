//! Seeded input generation. Every input of a run derives from the
//! workload seed, so the same seed gives bit-identical inputs.

/// SplitMix64: a small, fast, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for stream `stream` of seed `seed`; distinct streams
    /// of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// `n` coefficients uniform in `[-1, 1)`.
pub fn f64s(seed: u64, n: usize) -> Vec<f64> {
    let mut r = Rng::new(seed, 1);
    (0..n).map(|_| 2.0 * r.unit() - 1.0).collect()
}

/// `n` integers uniform in `[0, 2^40)`: never negative, so a negative
/// needle is absent unless placed.
pub fn i64s(seed: u64, n: usize) -> Vec<i64> {
    let mut r = Rng::new(seed, 2);
    (0..n).map(|_| r.below(1 << 40) as i64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(f64s(7, 1024), f64s(7, 1024));
        assert_eq!(i64s(7, 1024), i64s(7, 1024));
        assert_ne!(f64s(7, 1024), f64s(8, 1024));
        assert_ne!(i64s(7, 1024), i64s(8, 1024));
    }

    #[test]
    fn streams_are_independent_and_in_range() {
        let a: Vec<u64> = (0..64)
            .map({
                let mut r = Rng::new(1, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..64)
            .map({
                let mut r = Rng::new(1, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, b);
        assert!(f64s(3, 4096).iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(i64s(3, 4096).iter().all(|&v| (0..1 << 40).contains(&v)));
    }
}
