//! Order statistics the report is built from.

/// Sorted copy (NaN-free inputs: every value here is a measured duration,
/// rate or share).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median; the mean of the middle two for an even count. 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive" method),
/// which is what the acceptance rule for this benchmark is written in.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Negative when `j` was clamped: CPython extrapolates there too.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `num/den` (e.g. 99/100), in exact integer
/// arithmetic so a rank never moves by one through rounding.
pub fn percentile(values: &[f64], num: usize, den: usize) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), num, den) - 1]
}

fn rank(n: usize, num: usize, den: usize) -> usize {
    (n * num).div_ceil(den).clamp(1, n)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [(usize, usize); 5] =
    [(9999, 10000), (999, 1000), (99, 100), (95, 100), (90, 100)];
/// A percentile is only trusted with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder that still has at least
/// [`MIN_BEYOND`] samples beyond it, and its value, as `(percentile,
/// value)`. Falls back to the median when even the 90th has too few.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let (num, den) = TAIL_LADDER
        .into_iter()
        .find(|&(num, den)| n > 0 && n - rank(n, num, den) >= MIN_BEYOND)
        .unwrap_or((50, 100));
    (
        100.0 * num as f64 / den as f64,
        percentile(values, num, den),
    )
}

/// Mean after dropping the lowest and highest `share` of the values.
pub fn trimmed_mean(values: &[f64], share: f64) -> f64 {
    let v = sorted(values);
    let cut = (v.len() as f64 * share).floor() as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return median(values);
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in [5usize, 99, 100, 101, 250, 1_000, 10_000, 100_000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, value) = tail(&v);
            let beyond = v.iter().filter(|&&x| x > value).count();
            if p > 50.0 {
                assert!(beyond >= MIN_BEYOND, "n={n} p={p} leaves {beyond} beyond");
            }
        }
        assert_eq!(tail(&(0..1_000).map(f64::from).collect::<Vec<_>>()).0, 99.0);
        assert_eq!(
            tail(&(0..100_000).map(f64::from).collect::<Vec<_>>()).0,
            99.99
        );
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 50.0);
    }

    #[test]
    fn median_and_trimmed_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v[9] = 1_000.0;
        assert_eq!(trimmed_mean(&v, 0.1), 5.5); // mean of 2..=9
    }
}
