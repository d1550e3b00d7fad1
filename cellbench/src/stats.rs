//! Order statistics over benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(xs, n=4)` (the default
//! "exclusive" method), so the spreads printed here match the ones an
//! outside script computes from the same samples.

/// The median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(p25, median, p75)`; all three equal the sample for one sample, and 0
/// for none.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    // Python's loop, including its extrapolation past the ends for n < 3.
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A tail percentile and the rank it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the rank.
    pub value: f64,
    /// The rank, in percent of samples at or below `value`.
    pub pct: f64,
}

/// The highest percentile with at least ten samples beyond it. With fewer
/// than twenty samples that percentile would sit below the median, so the
/// median (rank 50) is reported instead. `None` for no samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    if n < 20 {
        return Some(Tail {
            value: median(xs),
            pct: 50.0,
        });
    }
    let s = sorted(xs);
    Some(Tail {
        value: s[n - 11],
        pct: 100.0 * (n - 10) as f64 / n as f64,
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
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("samples");
        assert_eq!((t.value, t.pct), (90.0, 90.0));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).expect("samples");
        assert_eq!((t.value, t.pct), (10.0, 50.0));
    }

    #[test]
    fn tail_falls_back_to_the_median_below_twenty_samples() {
        let t = tail(&[5.0, 1.0, 9.0]).expect("samples");
        assert_eq!((t.value, t.pct), (5.0, 50.0));
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.value), Some(5.0));
        assert_eq!(tail(&[]), None);
    }
}
