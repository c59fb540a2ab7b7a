//! Order statistics over per-pass samples.

/// The median of `values` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method); needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let at = |k: f64| {
        let pos = k * (n + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1.0), at(3.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
