//! The Sliding Window Area-Under-The-Curve strategy (Section III-D).
//!
//! Assigns each algorithm a weight based on the area under its inverse-
//! runtime curve within a sliding iteration window `[i0, i1]` of its own
//! samples:
//!
//! ```text
//! w_A = (Σ_{i=i0}^{i1} 1/m_{A,i}) / (i1 − i0)
//! ```
//!
//! Motivated by the AUC bandit meta-heuristic of OpenTuner (Ansel et al.,
//! PACT 2014). Like Optimum Weighted it decides on *absolute* windowed
//! performance, so algorithms of similar speed are selected with similar
//! frequency.

use crate::history::AlgorithmHistory;
use crate::nominal::{fill_unseen_optimistic, NominalStrategy, SelectionState};

/// Default window size used in the paper's case studies.
pub const DEFAULT_WINDOW: usize = 16;

/// Sliding-window AUC probabilistic algorithm selection.
#[derive(Debug, Clone)]
pub struct SlidingWindowAuc {
    state: SelectionState,
}

impl SlidingWindowAuc {
    /// `window`: how many of each algorithm's latest samples contribute to
    /// its AUC weight (the paper uses 16).
    pub fn new(num_algorithms: usize, window: usize, seed: u64) -> Self {
        SlidingWindowAuc {
            state: SelectionState::new(num_algorithms, window, seed),
        }
    }
}

impl NominalStrategy for SlidingWindowAuc {
    fn num_algorithms(&self) -> usize {
        self.state.histories.len()
    }

    fn select(&mut self) -> usize {
        let weights = self.weights();
        self.state.rng.pick_weighted(&weights)
    }

    fn weights_into(&self, out: &mut [f64]) {
        let n = self.num_algorithms().min(out.len());
        for (w, h) in out[..n].iter_mut().zip(&self.state.histories) {
            *w = h.window_auc().unwrap_or(f64::NAN);
        }
        fill_unseen_optimistic(&mut out[..n]);
    }

    fn report(&mut self, algorithm: usize, value: f64) {
        self.state.record(algorithm, value);
    }

    fn best(&self) -> Option<usize> {
        self.state.best()
    }

    fn histories(&self) -> &[AlgorithmHistory] {
        &self.state.histories
    }

    fn name(&self) -> String {
        format!("sliding-window-auc(w={})", self.state.window())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nominal::test_util::drive;

    #[test]
    fn weight_matches_definition() {
        let mut s = SlidingWindowAuc::new(1, 16, 1);
        s.report(0, 2.0);
        s.report(0, 4.0);
        s.report(0, 2.0);
        // (1/2 + 1/4 + 1/2) / 2
        assert!((s.weights()[0] - 0.625).abs() < 1e-12);
    }

    #[test]
    fn window_forgets_old_samples() {
        let mut s = SlidingWindowAuc::new(1, 2, 1);
        s.report(0, 1000.0);
        s.report(0, 2.0);
        s.report(0, 2.0);
        // Only the last two samples count: (1/2 + 1/2) / 1 = 1.
        assert!((s.weights()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faster_algorithm_selected_more_often() {
        let costs = [1.0, 3.0];
        let mut s = SlidingWindowAuc::new(2, DEFAULT_WINDOW, 59);
        let n = 30_000;
        let counts = drive(&mut s, &costs, n);
        let frac0 = counts[0] as f64 / n as f64;
        assert!((frac0 - 0.75).abs() < 0.03, "expected ~3:1, got {counts:?}");
    }

    #[test]
    fn similar_runtimes_are_not_discriminated() {
        let costs = [10.0, 10.5, 11.0];
        let mut s = SlidingWindowAuc::new(3, DEFAULT_WINDOW, 61);
        let n = 30_000;
        let counts = drive(&mut s, &costs, n);
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.25, "{counts:?}");
    }

    #[test]
    fn adapts_to_regime_change() {
        // Arm 0 fast then slow; the sliding window must shift preference to
        // arm 1 once the regime flips (Optimum Weighted cannot do this).
        let mut s = SlidingWindowAuc::new(2, 8, 67);
        let mut late_counts = [0usize; 2];
        for i in 0..3000 {
            let a = s.select();
            let v = match (a, i < 500) {
                (0, true) => 1.0,
                (0, false) => 50.0,
                (1, _) => 5.0,
                _ => unreachable!(),
            };
            s.report(a, v);
            if i >= 2000 {
                late_counts[a] += 1;
            }
        }
        assert!(
            late_counts[1] > late_counts[0] * 3,
            "window should adapt: {late_counts:?}"
        );
    }

    #[test]
    fn no_algorithm_excluded() {
        let costs = [1.0, 500.0];
        let mut s = SlidingWindowAuc::new(2, DEFAULT_WINDOW, 71);
        let counts = drive(&mut s, &costs, 20_000);
        assert!(counts[1] > 0);
    }

    #[test]
    fn unseen_algorithms_get_optimistic_weight() {
        let mut s = SlidingWindowAuc::new(2, 16, 73);
        s.report(0, 4.0);
        assert_eq!(s.weights(), vec![0.25, 0.25]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_window() {
        SlidingWindowAuc::new(2, 0, 0);
    }
}
