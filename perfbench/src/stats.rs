//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples a tail percentile must have beyond its rank to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `xs`, reported only when
/// at least [`MIN_BEYOND`] samples lie beyond its rank — so p90 needs
/// 100 samples.
pub fn tail(xs: &[f64], q: f64) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    let beyond = s.len() - rank;
    (beyond >= MIN_BEYOND).then(|| Tail {
        value: s[rank - 1],
        samples: s.len(),
        beyond,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.9), None, "99 samples leave only 9 beyond p90");

        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!(t.value, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));

        let xs: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        let t = tail(&xs, 0.9).unwrap();
        assert_eq!((t.value, t.samples, t.beyond), (225.0, 250, 25));
    }
}
