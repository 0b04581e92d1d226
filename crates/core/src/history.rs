//! Per-algorithm sample history.
//!
//! The weighted phase-2 strategies of Section III all derive their weights
//! from the runtime samples observed for each algorithm: the Gradient
//! Weighted and Sliding-Window AUC strategies look at the latest *iteration
//! window* `[i0, i1]` of an algorithm's own samples, and Optimum Weighted at
//! the best sample seen so far. This module centralizes that bookkeeping.
//! A history keeps only what those decisions read — the latest window of
//! values in a fixed ring, plus the all-time best, worst and count — so its
//! size is fixed when it is built, however long the tuner runs.

use crate::robust::{MAX_MEASUREMENT_MS, RESOLUTION_FLOOR_MS};

/// Inverse of a runtime sample, clamped to the timer-resolution floor so
/// the result is always finite and positive — the primitive under every
/// `1/m` weight in the phase-2 strategies. A `0.0` ms sample (fast kernel,
/// coarse timer) inverts to `1/RESOLUTION_FLOOR_MS`, not `inf`.
#[inline]
pub fn clamped_inverse(value: f64) -> f64 {
    1.0 / value.clamp(RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS)
}

/// History of runtime samples for one algorithm: the latest
/// [`window`](AlgorithmHistory::window) values in a fixed ring, plus the
/// all-time best, worst and count.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmHistory {
    /// Sample `k` of this algorithm's own sequence lives at
    /// `ring[k % ring.len()]` until sample `k + ring.len()` overwrites it.
    ring: Box<[f64]>,
    count: usize,
    best: Option<f64>,
    worst: Option<f64>,
}

impl AlgorithmHistory {
    /// An empty history whose window functions read the latest `window`
    /// values. Strategies that read only the best value keep a window of 1.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        AlgorithmHistory {
            ring: vec![0.0; window].into_boxed_slice(),
            count: 0,
            best: None,
            worst: None,
        }
    }

    /// Record a new measured value.
    ///
    /// Recording is *total*: degenerate values are sanitized instead of
    /// panicking, because in online tuning they are produced by the live
    /// application, not by the tuner. Finite values are clamped into
    /// `[RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS]`; non-finite values
    /// (which the robust measurement layer should already have converted to
    /// failures) are recorded as `MAX_MEASUREMENT_MS`, the worst
    /// representable runtime.
    pub fn record(&mut self, value: f64) {
        debug_assert!(
            value.is_finite(),
            "non-finite measurement {value} reached record(); \
             route failures through report_failure instead"
        );
        let value = if value.is_finite() {
            value.clamp(RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS)
        } else {
            MAX_MEASUREMENT_MS
        };
        if self.best.is_none_or(|b| value < b) {
            self.best = Some(value);
        }
        if self.worst.is_none_or(|w| value > w) {
            self.worst = Some(value);
        }
        let slot = self.count % self.ring.len();
        self.ring[slot] = value;
        self.count += 1;
    }

    /// Number of samples observed for this algorithm.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// How many of the latest values the window functions read.
    pub fn window(&self) -> usize {
        self.ring.len()
    }

    /// Best (minimal) measured value so far.
    pub fn best_value(&self) -> Option<f64> {
        self.best
    }

    /// Worst (maximal) measured value so far — the scale the failure
    /// penalty is derived from.
    pub fn worst_value(&self) -> Option<f64> {
        self.worst
    }

    /// The last measured value.
    pub fn last_value(&self) -> Option<f64> {
        let last = self.count.checked_sub(1)?;
        Some(self.ring[last % self.ring.len()])
    }

    /// The latest iteration window, the paper's `[i0, i1]` over *this
    /// algorithm's own* sample sequence: its last `min(len, window)`
    /// values, oldest first.
    pub fn latest_window(&self) -> impl Iterator<Item = f64> + '_ {
        let (older, newer) = if self.count <= self.ring.len() {
            (&self.ring[..self.count], &self.ring[..0])
        } else {
            let (newer, older) = self.ring.split_at(self.count % self.ring.len());
            (older, newer)
        };
        older.iter().chain(newer).copied()
    }

    /// The paper's gradient over the latest window:
    /// `G_A = (1/m_{A,i1} − 1/m_{A,i0}) / (i1 − i0)`
    /// where indices are positions in this algorithm's own sample sequence.
    /// Performance is interpreted inversely to time, so a *positive* gradient
    /// means the algorithm is getting faster. Returns `None` with fewer than
    /// two samples (no gradient is defined yet).
    pub fn window_gradient(&self) -> Option<f64> {
        let len = self.count.min(self.ring.len());
        if len < 2 {
            return None;
        }
        let first = self.ring[(self.count - len) % self.ring.len()];
        let last = self.last_value().expect("len >= 2");
        let span = (len - 1) as f64;
        Some((clamped_inverse(last) - clamped_inverse(first)) / span)
    }

    /// The paper's sliding-window area under the (inverse) performance curve:
    /// `w_A = (Σ_{i=i0}^{i1} 1/m_{A,i}) / (i1 − i0)`.
    ///
    /// With a single sample the denominator `i1 − i0` would be zero; we fall
    /// back to the single inverse value, which keeps the weight finite and
    /// strictly positive as the definition requires.
    pub fn window_auc(&self) -> Option<f64> {
        let len = self.count.min(self.ring.len());
        if len == 0 {
            return None;
        }
        let sum: f64 = self.latest_window().map(clamped_inverse).sum();
        if len == 1 {
            Some(sum)
        } else {
            Some(sum / (len - 1) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn hist_w(window: usize, values: &[f64]) -> AlgorithmHistory {
        let mut h = AlgorithmHistory::new(window);
        for &v in values {
            h.record(v);
        }
        h
    }

    fn hist(values: &[f64]) -> AlgorithmHistory {
        hist_w(16, values)
    }

    #[test]
    fn best_tracks_minimum() {
        let h = hist(&[5.0, 3.0, 4.0, 3.5]);
        assert_eq!(h.best_value(), Some(3.0));
    }

    #[test]
    fn latest_window_clamps_to_available() {
        let values = [1.0, 2.0, 3.0];
        assert_eq!(hist_w(16, &values).latest_window().count(), 3);
        let w: Vec<f64> = hist_w(2, &values).latest_window().collect();
        assert_eq!(w, [2.0, 3.0]);
    }

    #[test]
    fn gradient_positive_when_improving() {
        // Runtime falling 4 -> 2 means inverse performance rising: G > 0.
        let h = hist(&[4.0, 2.0]);
        let g = h.window_gradient().unwrap();
        assert!((g - (0.5 - 0.25)).abs() < 1e-12);
    }

    #[test]
    fn gradient_negative_when_degrading() {
        let h = hist(&[2.0, 4.0]);
        assert!(h.window_gradient().unwrap() < 0.0);
    }

    #[test]
    fn gradient_zero_when_flat() {
        let h = hist(&[3.0, 3.0, 3.0, 3.0]);
        assert_eq!(h.window_gradient(), Some(0.0));
    }

    #[test]
    fn gradient_uses_window_endpoints_only() {
        // Values inside the window do not matter, only the endpoints.
        let a = hist(&[4.0, 100.0, 2.0]);
        let b = hist(&[4.0, 0.001, 2.0]);
        assert_eq!(a.window_gradient(), b.window_gradient());
    }

    #[test]
    fn gradient_undefined_for_single_sample() {
        assert_eq!(hist(&[2.0]).window_gradient(), None);
        assert_eq!(hist(&[]).window_gradient(), None);
    }

    #[test]
    fn auc_matches_definition() {
        let h = hist(&[2.0, 4.0, 2.0]);
        // (1/2 + 1/4 + 1/2) / 2 = 0.625
        assert!((h.window_auc().unwrap() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn auc_single_sample_is_inverse_value() {
        let h = hist(&[4.0]);
        assert_eq!(h.window_auc(), Some(0.25));
    }

    #[test]
    fn auc_respects_window() {
        let h = hist_w(2, &[1000.0, 2.0, 2.0]);
        // Window of 2 drops the slow first sample: (1/2 + 1/2) / 1 = 1.0.
        assert!((h.window_auc().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_tracks_maximum() {
        let h = hist(&[5.0, 30.0, 4.0]);
        assert_eq!(h.worst_value(), Some(30.0));
        assert_eq!(hist(&[]).worst_value(), None);
    }

    #[test]
    fn zero_sample_keeps_weights_finite() {
        // The degenerate case that used to poison the 1/m weights: a 0.0 ms
        // sample from a fast kernel under a coarse timer.
        let h = hist(&[2.0, 0.0]);
        let g = h.window_gradient().unwrap();
        assert!(g.is_finite());
        let auc = h.window_auc().unwrap();
        assert!(auc.is_finite() && auc > 0.0);
    }

    #[test]
    fn subnormal_and_extreme_samples_keep_weights_finite() {
        for stream in [
            &[5e-324, 5e-324][..],
            &[1e308, 1e308],
            &[0.0, 1e308, 5e-324, 1.0],
            &[-7.0, 3.0],
        ] {
            let h = hist(stream);
            assert!(h.window_gradient().unwrap().is_finite(), "{stream:?}");
            let auc = h.window_auc().unwrap();
            assert!(auc.is_finite() && auc > 0.0, "{stream:?}");
            assert!(h.best_value().unwrap() >= RESOLUTION_FLOOR_MS);
        }
    }

    #[test]
    fn record_clamps_into_representable_band() {
        let h = hist(&[0.0, 1e308, -4.0]);
        let recorded: Vec<f64> = h.latest_window().collect();
        assert_eq!(
            recorded,
            [RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS, RESOLUTION_FLOOR_MS]
        );
        assert_eq!(h.last_value(), Some(RESOLUTION_FLOOR_MS));
    }

    #[test]
    fn ring_matches_the_definition_over_the_full_stream() {
        let mut rng = Rng::new(0x416);
        let special = [0.0, 5e-324, 1e308, -2.5, 1e-7];
        for window in [1, 2, 16, 64] {
            let mut h = AlgorithmHistory::new(window);
            let mut all = Vec::new();
            // Five windows' worth, checked after every value: every fill
            // level and every wrap position of the ring.
            for i in 0..5 * window {
                let v = if i % 3 == 0 {
                    special[rng.pick_index(special.len())]
                } else {
                    rng.next_range_f64(0.001, 50.0)
                };
                h.record(v);
                all.push(v.clamp(RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS));
                // The definitions, computed from the full stream.
                let w = &all[all.len().saturating_sub(window)..];
                let span = (w.len() - 1) as f64;
                let gradient = (w.len() >= 2)
                    .then(|| (clamped_inverse(w[w.len() - 1]) - clamped_inverse(w[0])) / span);
                let sum: f64 = w.iter().map(|&v| clamped_inverse(v)).sum();
                let auc = if w.len() == 1 { sum } else { sum / span };
                let at = format!("window {window}, after {} values", all.len());
                assert_eq!(h.len(), all.len(), "{at}");
                assert_eq!(h.latest_window().collect::<Vec<_>>(), w, "{at}");
                assert_eq!(h.window_gradient(), gradient, "{at}");
                assert_eq!(h.window_auc(), Some(auc), "{at}");
                assert_eq!(h.best_value(), all.iter().copied().reduce(f64::min), "{at}");
                assert_eq!(
                    h.worst_value(),
                    all.iter().copied().reduce(f64::max),
                    "{at}"
                );
                assert_eq!(h.last_value(), all.last().copied(), "{at}");
            }
        }
    }

    #[test]
    fn clamped_inverse_is_always_finite_and_positive() {
        for v in [0.0, -1.0, 5e-324, 1e-308, 1.0, 1e308, f64::MAX] {
            let inv = clamped_inverse(v);
            assert!(inv.is_finite() && inv > 0.0, "inverse of {v} was {inv}");
        }
    }
}
