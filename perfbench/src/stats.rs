//! Order statistics, the tail-percentile rule, geometric mean and the metric
//! name grammar shared by every workload.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
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

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the spread the benchmark reports matches the one its bounds are checked
/// with.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's formula: on the scale m = n + 1, cut point i of 4 sits
    // between sorted samples j and j + 1 (1-based), extrapolating at the ends.
    let len = v.len() as i64;
    let m = len + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest percentile (at most 99) that still has at least ten samples
/// above it, and the value at that percentile (nearest rank). Returns `None`
/// when fewer than eleven samples exist, since then no percentile qualifies.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the p-th percentile is the sample at 1-based rank
    // ceil(p * n / 100); everything above that rank lies beyond it.
    let mut p = 99u32;
    loop {
        let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
        if n - rank >= 10 {
            return Some((p, v[rank - 1]));
        }
        p -= 1;
    }
}

/// Geometric mean of positive ratios.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive ratio.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no ratios");
    assert!(
        values.iter().all(|&x| x > 0.0),
        "geometric mean needs positive ratios: {values:?}"
    );
    let log_sum: f64 = values.iter().map(|x| x.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: at most 16 characters of letters, digits, `_`, `/`, `%`, `.` and
/// `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        // 11 samples: only a percentile whose rank is 1 leaves ten above.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((9, 1.0)));
        // 100 samples: p90 is rank 90, leaving exactly ten beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90, 90.0)));
        // 1000 samples: the full p99 qualifies.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 990.0)));
        // Capped at p99 even with far more samples.
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 4950.0)));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "e2e_ms",
            "rawcc.schedule_ms",
            "sim-dense",
            "req_ms_p99",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "req/s", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "milliseconds-long", "ms!"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
