//! Order statistics over raw samples, and the A/B verdict rule.
//!
//! Quantiles use the "exclusive" method that Python's
//! `statistics.quantiles` applies by default, so quartiles printed by
//! `compare` match the ones a script computes from the same result files.

/// Median: the middle value, or the mean of the two middle values for an
/// even count (Python's `statistics.median`). `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of ascending `sorted` samples: position `q · (n + 1)`
/// (1-based), linearly interpolated between its neighbours, with the
/// neighbour pair clamped to the ends exactly as Python does. Every sample
/// counts; nothing is bucketed.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n + 1) as f64;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
        }
    }
}

/// `(first quartile, median, third quartile)` of `xs`, as
/// `statistics.quantiles(xs, n=4)` gives them.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (
        quantile_sorted(&v, 0.25),
        quantile_sorted(&v, 0.50),
        quantile_sorted(&v, 0.75),
    )
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn improves(self, from: f64, to: f64) -> bool {
        match self {
            Better::Lower => to < from,
            Better::Higher => to > from,
        }
    }
}

/// Outcome of comparing a change's runs against its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of `to` against `from`, signed so that a positive value
/// is a regression. A zero base reads as no change when both are zero and
/// as an infinite change otherwise.
pub fn worsening(from: f64, to: f64, better: Better) -> f64 {
    let rel = if from == 0.0 {
        if to == from {
            0.0
        } else {
            (to - from).signum() * f64::INFINITY
        }
    } else {
        (to - from) / from.abs()
    };
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// How far a gated metric may worsen: `rel` times the parent's median, or
/// `abs` in the metric's own unit when that is larger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub abs: f64,
}

impl Bound {
    /// The allowed change, in the metric's unit, around a median `m`.
    pub fn allowed(self, m: f64) -> f64 {
        (self.rel * m.abs()).max(self.abs)
    }

    /// Whether the interquartile range of `xs` is wider than the bound
    /// allows around their median.
    fn too_spread(self, xs: &[f64]) -> bool {
        let (q1, m, q3) = quartiles(xs);
        q3 - q1 > self.allowed(m)
    }
}

/// The A/B rule. `parent[i]` and `change[i]` are the i-th alternated pair.
///
/// * **better** — the change wins at least 9 in 10 pairs (ties count for
///   neither side) and its median differs from the parent's by more than
///   the parent's interquartile range;
/// * **worse** — the change's median is worse than the parent's by more
///   than the bound allows;
/// * **unresolved** — either side's interquartile range is wider than the
///   bound allows, unless every run of the change beats every run of the
///   parent;
/// * **within bound** — everything else.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: Bound) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let wins = (0..pairs)
        .filter(|&i| better.improves(parent[i], change[i]))
        .count();
    let (q1, parent_median, q3) = quartiles(parent);
    let change_median = median(change);
    // In the metric's unit; positive is a regression.
    let worse_by = match better {
        Better::Lower => change_median - parent_median,
        Better::Higher => parent_median - change_median,
    };
    if wins * 10 >= pairs * 9 && worse_by.abs() > q3 - q1 && worse_by < 0.0 {
        return Verdict::Better;
    }
    if worse_by > bound.allowed(parent_median) {
        return Verdict::Worse;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better.improves(p, c)));
    if (bound.too_spread(parent) || bound.too_spread(change)) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::WithinBound
}

/// Failed and attempted operations of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub failed: u64,
    pub attempted: u64,
}

impl Counts {
    fn rate(self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Failures over attempts of `runs` together.
pub fn pooled_error_rate(runs: &[Counts]) -> f64 {
    let failed: u64 = runs.iter().map(|c| c.failed).sum();
    let attempted: u64 = runs.iter().map(|c| c.attempted).sum();
    failed as f64 / attempted.max(1) as f64
}

/// The rule for `error_rate`, which is gated on any rise: the change is
/// worse when its pooled rate, or the rate of its worst run, exceeds the
/// parent's. One failing run among ten is enough; medians would hide it.
pub fn error_verdict(parent: &[Counts], change: &[Counts]) -> Verdict {
    let worst = |runs: &[Counts]| runs.iter().map(|c| c.rate()).fold(0.0, f64::max);
    if pooled_error_rate(change) > pooled_error_rate(parent) || worst(change) > worst(parent) {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: Bound = Bound { rel: 0.1, abs: 0.0 };

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // Two samples extrapolate like Python: quantiles([1, 2]) ==
        // [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn exact_quantiles_use_every_sample() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile_sorted(&xs, 0.5), 500.0);
        assert_eq!(quantile_sorted(&xs, 0.9), 900.0);
        assert_eq!(quantile_sorted(&xs, 0.99), 990.0);
        // Adjacent latencies a histogram bucket would merge stay apart.
        assert_eq!(quantile_sorted(&[172.0, 174.0, 176.0], 0.5), 174.0);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        // Four 1000-request windows; the third stalls for a whole second.
        let rates: Vec<f64> = [0.5, 0.5, 1.0, 0.5].iter().map(|s| 1000.0 / s).collect();
        assert_eq!(median(&rates), 2000.0);
    }

    #[test]
    fn verdict_calls_a_consistent_win_better() {
        let parent = [
            100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, TEN),
            Verdict::Better
        );
        assert_eq!(
            verdict(&parent, &change, Better::Higher, TEN),
            Verdict::Worse
        );
    }

    #[test]
    fn verdict_needs_nine_in_ten_pairs_for_a_gain() {
        let parent = [100.0; 10];
        // Eight wins, two losses: faster median, but not a claimable gain.
        let mut change = [90.0; 10];
        change[3] = 101.0;
        change[7] = 101.0;
        assert_eq!(
            verdict(&parent, &change, Better::Lower, TEN),
            Verdict::WithinBound
        );
    }

    #[test]
    fn verdict_flags_regressions_beyond_the_bound_only() {
        let parent = [100.0, 101.0, 99.0, 100.0, 100.0];
        let slightly = [104.0, 105.0, 103.0, 104.0, 104.0];
        assert_eq!(
            verdict(&parent, &slightly, Better::Lower, TEN),
            Verdict::WithinBound
        );
        let clearly = [115.0, 116.0, 114.0, 115.0, 115.0];
        assert_eq!(
            verdict(&parent, &clearly, Better::Lower, TEN),
            Verdict::Worse
        );
    }

    #[test]
    fn verdict_is_unresolved_when_spread_exceeds_the_bound() {
        let parent = [60.0, 140.0, 80.0, 120.0, 100.0];
        let change = [100.0, 60.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, TEN),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let change = [10.0, 12.0, 11.0, 13.0, 9.0];
        assert_eq!(
            verdict(&parent, &change, Better::Lower, TEN),
            Verdict::Better
        );
    }

    #[test]
    fn an_absolute_floor_widens_a_small_bound() {
        // Set-up times of about 1 ms: 1.5 ms is 50% worse, but within a
        // 5 ms floor; their 0.3 ms spread is too.
        let parent = [1.0e-3, 1.1e-3, 0.9e-3, 1.3e-3, 1.0e-3];
        let change = [1.5e-3, 1.6e-3, 1.4e-3, 1.5e-3, 1.5e-3];
        let floored = Bound {
            rel: 0.1,
            abs: 5e-3,
        };
        assert_eq!(
            verdict(&parent, &change, Better::Lower, floored),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&parent, &change, Better::Lower, TEN),
            Verdict::Worse
        );
        let slow = [7.0e-3, 7.1e-3, 6.9e-3, 7.0e-3, 7.2e-3];
        assert_eq!(
            verdict(&parent, &slow, Better::Lower, floored),
            Verdict::Worse
        );
    }

    fn counts(failed: &[u64]) -> Vec<Counts> {
        failed
            .iter()
            .map(|&failed| Counts {
                failed,
                attempted: 1000,
            })
            .collect()
    }

    #[test]
    fn one_failing_run_in_ten_makes_the_error_rate_worse() {
        let clean = counts(&[0; 10]);
        assert_eq!(error_verdict(&clean, &clean), Verdict::WithinBound);
        let mut one = [0; 10];
        one[6] = 1;
        assert_eq!(error_verdict(&clean, &counts(&one)), Verdict::Worse);
        // The same failures in both is no rise; fewer is none either.
        assert_eq!(
            error_verdict(&counts(&one), &counts(&one)),
            Verdict::WithinBound
        );
        assert_eq!(error_verdict(&counts(&one), &clean), Verdict::WithinBound);
        // A worse run counts even when the pooled rate does not rise.
        let mut spread = [0; 10];
        spread[2] = 1;
        let mut bunched = [0; 10];
        bunched[2] = 2;
        spread[3] = 1;
        assert_eq!(
            error_verdict(&counts(&spread), &counts(&bunched)),
            Verdict::Worse
        );
    }
}
