//! Small descriptive-statistics helpers used by the experiment harness and
//! by the strategies' own bookkeeping (means over windows, medians over
//! repetitions, boxplot quartiles for the figures).

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation. Returns `NaN` for an empty slice.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median (linear-interpolation free: the classic midpoint-of-two rule).
/// Returns `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile `q ∈ [0, 1]` using linear interpolation between order statistics
/// (type-7 quantile, the R/NumPy default). Returns `NaN` for an empty slice.
///
/// NaN policy: NaN samples carry no ordering information, so they are
/// *filtered out* and the quantile is computed over the remaining values
/// (matching NumPy's `nanquantile`). An input that is empty or all-NaN
/// yields `NaN`. A single bad sample therefore degrades one number in a
/// report instead of aborting the whole experiment run.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(f64::total_cmp);
    let h = q * (sorted.len() as f64 - 1.0);
    // Re-clamp both order-statistic indices after the float round-trip:
    // NaN filtering shrinks the slice under the caller's nominal length,
    // and `ceil` on the rank must never be trusted to land inside the
    // *filtered* window — on 1–3 element windows one step past the end is
    // an out-of-bounds read, not a rounding nit.
    let hi = (h.ceil() as usize).min(sorted.len() - 1);
    let lo = (h.floor() as usize).min(hi);
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// The five numbers a boxplot needs: min, first quartile, median, third
/// quartile, max. Mirrors the boxplots of Figures 1, 4 and 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl FiveNumber {
    /// Compute the summary. Returns `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<FiveNumber> {
        if xs.is_empty() {
            return None;
        }
        Some(FiveNumber {
            min: quantile(xs, 0.0),
            q1: quantile(xs, 0.25),
            median: quantile(xs, 0.5),
            q3: quantile(xs, 0.75),
            max: quantile(xs, 1.0),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Transpose a ragged matrix of per-repetition iteration series into
/// per-iteration sample vectors, then reduce each with `f`. This is exactly
/// how the paper's per-iteration median/mean curves (Figures 2, 3, 6, 7) are
/// produced from 100 experiment repetitions.
pub fn per_iteration_reduce(series: &[Vec<f64>], f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let max_len = series.iter().map(Vec::len).max().unwrap_or(0);
    (0..max_len)
        .map(|i| {
            let column: Vec<f64> = series.iter().filter_map(|s| s.get(i).copied()).collect();
            f(&column)
        })
        .collect()
}

/// The rolling-median settle scan: the first `i ≥ window` at which the
/// median of `series[i − window..i]` lies within `tolerance · target` of
/// `target` — how many samples a series takes to reach a regime. `None`
/// if it never does.
pub fn settled_after(series: &[f64], window: usize, target: f64, tolerance: f64) -> Option<usize> {
    (window..=series.len())
        .find(|&i| (median(&series[i - window..i]) - target).abs() <= target * tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_give_nan() {
        assert!(mean(&[]).is_nan());
        assert!(stddev(&[]).is_nan());
        assert!(median(&[]).is_nan());
        assert!(FiveNumber::of(&[]).is_none());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_single_element() {
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
        assert!((quantile(&xs, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_order_invariant() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
    }

    #[test]
    fn five_number_summary() {
        let s = FiveNumber::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.iqr(), 2.0);
    }

    #[test]
    fn per_iteration_reduce_handles_ragged_series() {
        let series = vec![
            vec![1.0, 2.0, 3.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0, 7.0, 8.0],
        ];
        let medians = per_iteration_reduce(&series, median);
        assert_eq!(medians, vec![3.0, 4.0, 5.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_bad_q() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn quantile_filters_nan_samples() {
        // One bad sample must not abort report generation: NaNs are dropped
        // and the quantile is taken over what remains.
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(median(&xs), 2.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
    }

    #[test]
    fn quantile_short_nan_heavy_windows_stay_in_bounds() {
        // Regression: with NaNs filtered the slice is shorter than the
        // caller's window, and the `ceil`-derived upper index must be
        // re-clamped to the filtered length. 1–3 element windows, every
        // quartile a boxplot asks for.
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(quantile(&[f64::NAN, 7.0], q), 7.0);
            assert_eq!(quantile(&[7.0, f64::NAN, f64::NAN], q), 7.0);
        }
        let two = [f64::NAN, 1.0, 3.0];
        assert_eq!(quantile(&two, 0.0), 1.0);
        assert_eq!(quantile(&two, 0.5), 2.0);
        assert_eq!(quantile(&two, 1.0), 3.0);
        let three = [2.0, f64::NAN, 1.0, 3.0];
        assert_eq!(quantile(&three, 1.0), 3.0);
        assert_eq!(quantile(&three, 0.75), 2.5);
        assert!(FiveNumber::of(&[f64::NAN, 5.0]).is_some());
    }

    #[test]
    fn quantile_all_nan_is_nan() {
        assert!(quantile(&[f64::NAN, f64::NAN], 0.5).is_nan());
        assert!(median(&[f64::NAN]).is_nan());
    }

    #[test]
    fn quantile_handles_infinities_and_negative_zero() {
        let xs = [f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        assert_eq!(quantile(&xs, 0.0), f64::NEG_INFINITY);
        assert_eq!(quantile(&xs, 1.0), f64::INFINITY);
        assert_eq!(median(&xs), 0.0);
    }

    #[test]
    fn settled_after_finds_the_first_window_within_tolerance() {
        let series = [10.0, 9.0, 8.0, 2.2, 2.0, 1.9, 2.0];
        assert_eq!(settled_after(&series, 3, 2.0, 0.05), Some(6));
        assert_eq!(settled_after(&series, 1, 2.0, 0.05), Some(5));
        assert_eq!(settled_after(&series, 3, 0.5, 0.05), None);
        assert_eq!(settled_after(&series[..2], 3, 10.0, 0.05), None);
    }
}
