//! Lock-free per-algorithm metric registers.
//!
//! Every event recorded through [`super::Recorder::record`] also updates
//! these registers, so aggregate statistics (selection counts, failure
//! counts, weight gauges, runtime histograms) survive ring-buffer
//! overwriting: the ring keeps the most recent events, the registers keep
//! totals for the whole run.
//!
//! All counters are [`AtomicU64`]s updated with relaxed ordering — the
//! registers are statistically consistent, not transactionally so, which
//! is all an observability surface needs.

use super::{EventKind, MeasureStatus, MAX_TRACKED_ALGORITHMS};
use crate::json::Json;
use crate::robust::RESOLUTION_FLOOR_MS;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of runtime-histogram buckets: one underflow bucket, then
/// [`BUCKETS_PER_DECADE`] log-spaced buckets per decade from
/// [`RESOLUTION_FLOOR_MS`] upward, with the last bucket catching
/// everything larger.
pub const HIST_BUCKETS: usize = 50;

/// Log-spaced histogram resolution: buckets per decade of runtime.
pub const BUCKETS_PER_DECADE: usize = 4;

/// Map a runtime in milliseconds to its histogram bucket index.
///
/// Bucket 0 holds runtimes at or below [`RESOLUTION_FLOOR_MS`] (and any
/// non-finite values); the last bucket holds everything beyond the
/// covered range (~12 decades).
pub fn bucket_index(runtime_ms: f64) -> usize {
    if !runtime_ms.is_finite() || runtime_ms <= RESOLUTION_FLOOR_MS {
        return 0;
    }
    let decades = (runtime_ms / RESOLUTION_FLOOR_MS).log10();
    let idx = (decades * BUCKETS_PER_DECADE as f64).floor();
    if !idx.is_finite() || idx >= (HIST_BUCKETS - 2) as f64 {
        return HIST_BUCKETS - 1;
    }
    1 + idx as usize
}

/// Lower bound (inclusive), in milliseconds, of histogram bucket `i`.
pub fn bucket_lower_bound(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        RESOLUTION_FLOOR_MS * 10f64.powf((i - 1) as f64 / BUCKETS_PER_DECADE as f64)
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of a histogram of [`bucket_index`]
/// counts, in milliseconds: the geometric middle of the bucket holding
/// that sample, so within a factor of `10^(1/(2·BUCKETS_PER_DECADE))`
/// ≈ 1.33 of the true value; [`RESOLUTION_FLOOR_MS`] for the underflow
/// bucket and `NaN` for an empty histogram.
pub fn bucket_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    // The rank of the quantile sample, 1-based.
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return if i == 0 {
                RESOLUTION_FLOOR_MS
            } else {
                bucket_lower_bound(i) * 10f64.powf(0.5 / BUCKETS_PER_DECADE as f64)
            };
        }
    }
    unreachable!("the rank never exceeds the total")
}

/// Atomic registers for one algorithm.
#[derive(Debug)]
struct AlgoRegister {
    selections: AtomicU64,
    ok: AtomicU64,
    failures: AtomicU64,
    /// Most recent phase-2 weight, stored as `f64` bits.
    last_weight: AtomicU64,
    /// Log-spaced histogram of successful runtimes.
    hist: [AtomicU64; HIST_BUCKETS],
}

impl AlgoRegister {
    fn new() -> Self {
        Self {
            selections: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            last_weight: AtomicU64::new(f64::NAN.to_bits()),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn reset(&self) {
        self.selections.store(0, Ordering::Relaxed);
        self.ok.store(0, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        self.last_weight
            .store(f64::NAN.to_bits(), Ordering::Relaxed);
        for b in &self.hist {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// The full set of metric registers behind a [`super::Recorder`].
///
/// Updated on every recorded event; snapshot with [`Metrics::report`].
#[derive(Debug)]
pub struct Metrics {
    algos: [AlgoRegister; MAX_TRACKED_ALGORITHMS],
    /// One past the highest algorithm index touched so far.
    algo_count: AtomicU64,
    iterations: AtomicU64,
    spans: AtomicU64,
    max_queue_depth: AtomicU64,
    last_queue_depth: AtomicU64,
    drift_events: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero registers.
    pub fn new() -> Self {
        Self {
            algos: std::array::from_fn(|_| AlgoRegister::new()),
            algo_count: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
            spans: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            last_queue_depth: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
        }
    }

    fn algo(&self, index: u16) -> Option<&AlgoRegister> {
        let i = index as usize;
        if i < MAX_TRACKED_ALGORITHMS {
            self.algo_count.fetch_max(i as u64 + 1, Ordering::Relaxed);
            Some(&self.algos[i])
        } else {
            None
        }
    }

    /// Update the registers for one event. Lock-free and allocation-free.
    pub fn observe(&self, kind: &EventKind) {
        match kind {
            EventKind::Iteration {
                algorithm,
                status,
                runtime_ms,
                weights,
                ..
            } => {
                self.iterations.fetch_add(1, Ordering::Relaxed);
                if let Some(a) = self.algo(*algorithm) {
                    a.selections.fetch_add(1, Ordering::Relaxed);
                }
                for (i, w) in weights.as_slice().iter().enumerate() {
                    self.algo_count.fetch_max(i as u64 + 1, Ordering::Relaxed);
                    self.algos[i]
                        .last_weight
                        .store((*w as f64).to_bits(), Ordering::Relaxed);
                }
                self.outcome(*algorithm, *status, *runtime_ms);
            }
            EventKind::MeasureOutcome {
                algorithm,
                status,
                runtime_ms,
            } => self.outcome(*algorithm, *status, *runtime_ms),
            EventKind::SpanBegin { .. } => {
                self.spans.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::PenaltyApplied { .. } | EventKind::SpanEnd { .. } => {}
            EventKind::QueueDepth { depth, .. } => {
                let d = *depth as u64;
                self.max_queue_depth.fetch_max(d, Ordering::Relaxed);
                self.last_queue_depth.store(d, Ordering::Relaxed);
            }
            EventKind::DriftDetected { .. } => {
                self.drift_events.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Count one measurement outcome of `algorithm`; a successful one also
    /// lands in its runtime histogram.
    fn outcome(&self, algorithm: u16, status: MeasureStatus, runtime_ms: f64) {
        if let Some(a) = self.algo(algorithm) {
            match status {
                MeasureStatus::Ok => {
                    a.ok.fetch_add(1, Ordering::Relaxed);
                    a.hist[bucket_index(runtime_ms)].fetch_add(1, Ordering::Relaxed);
                }
                MeasureStatus::Failed | MeasureStatus::TimedOut => {
                    a.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Zero every register.
    pub fn reset(&self) {
        for a in &self.algos {
            a.reset();
        }
        self.algo_count.store(0, Ordering::Relaxed);
        self.iterations.store(0, Ordering::Relaxed);
        self.spans.store(0, Ordering::Relaxed);
        self.max_queue_depth.store(0, Ordering::Relaxed);
        self.last_queue_depth.store(0, Ordering::Relaxed);
        self.drift_events.store(0, Ordering::Relaxed);
    }

    /// Take a plain-data snapshot of every register.
    pub fn report(&self) -> MetricsReport {
        let n = self.algo_count.load(Ordering::Relaxed) as usize;
        let algorithms = self.algos[..n]
            .iter()
            .map(|a| {
                let histogram: Vec<(f64, u64)> = a
                    .hist
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let count = b.load(Ordering::Relaxed);
                        (count > 0).then(|| (bucket_lower_bound(i), count))
                    })
                    .collect();
                AlgoMetrics {
                    selections: a.selections.load(Ordering::Relaxed),
                    ok: a.ok.load(Ordering::Relaxed),
                    failures: a.failures.load(Ordering::Relaxed),
                    last_weight: f64::from_bits(a.last_weight.load(Ordering::Relaxed)),
                    histogram,
                }
            })
            .collect();
        MetricsReport {
            iterations: self.iterations.load(Ordering::Relaxed),
            spans: self.spans.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            last_queue_depth: self.last_queue_depth.load(Ordering::Relaxed),
            drift_events: self.drift_events.load(Ordering::Relaxed),
            algorithms,
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data snapshot of one algorithm's registers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlgoMetrics {
    /// Times phase 2 selected this algorithm.
    pub selections: u64,
    /// Successful measurements.
    pub ok: u64,
    /// Failed or timed-out measurements.
    pub failures: u64,
    /// Most recent phase-2 weight (NaN if never observed).
    pub last_weight: f64,
    /// Non-empty runtime-histogram buckets as `(lower_bound_ms, count)`.
    pub histogram: Vec<(f64, u64)>,
}

/// Plain-data snapshot of all metric registers; see [`Metrics::report`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsReport {
    /// Tuning iterations recorded.
    pub iterations: u64,
    /// Workload measurement spans opened.
    pub spans: u64,
    /// Highest pool queue depth observed.
    pub max_queue_depth: u64,
    /// Most recent pool queue depth observed.
    pub last_queue_depth: u64,
    /// Drift-restart events recorded (see [`EventKind::DriftDetected`]).
    pub drift_events: u64,
    /// Per-algorithm registers, indexed by algorithm id (trimmed to the
    /// highest index touched).
    pub algorithms: Vec<AlgoMetrics>,
}

impl MetricsReport {
    /// Serialize the snapshot for `results/*.json` artifacts.
    pub fn to_json(&self) -> Json {
        let algos = self
            .algorithms
            .iter()
            .map(|a| {
                let hist = a
                    .histogram
                    .iter()
                    .map(|(lo, n)| {
                        Json::obj(vec![
                            ("ge_ms", Json::Num(*lo)),
                            ("count", Json::Num(*n as f64)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("selections", Json::Num(a.selections as f64)),
                    ("ok", Json::Num(a.ok as f64)),
                    ("failures", Json::Num(a.failures as f64)),
                    ("last_weight", Json::Num(a.last_weight)),
                    ("runtime_hist", Json::Arr(hist)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("iterations", Json::Num(self.iterations as f64)),
            ("spans", Json::Num(self.spans as f64)),
            ("max_queue_depth", Json::Num(self.max_queue_depth as f64)),
            ("last_queue_depth", Json::Num(self.last_queue_depth as f64)),
            ("drift_events", Json::Num(self.drift_events as f64)),
            ("algorithms", Json::Arr(algos)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::super::WeightSet;
    use super::*;

    #[test]
    fn buckets_are_log_spaced_and_monotone() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e308), HIST_BUCKETS - 1);
        let mut prev = 0;
        for exp in -5..6 {
            let ms = 10f64.powi(exp);
            let b = bucket_index(ms);
            assert!(b >= prev, "bucket index must grow with runtime");
            prev = b;
        }
        // Each decade spans BUCKETS_PER_DECADE buckets.
        assert_eq!(
            bucket_index(1.0) - bucket_index(0.1),
            BUCKETS_PER_DECADE,
            "one decade apart"
        );
        // Lower bounds bracket their bucket.
        for i in 1..HIST_BUCKETS - 1 {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo * 1.0001), i);
        }
    }

    #[test]
    fn bucket_quantile_finds_the_bucket_of_the_ranked_sample() {
        let mut counts = [0u64; HIST_BUCKETS];
        assert!(bucket_quantile(&counts, 0.5).is_nan());
        counts[bucket_index(50e-6)] = 90;
        counts[bucket_index(2e-3)] = 10;
        let p50 = bucket_quantile(&counts, 0.5);
        let p99 = bucket_quantile(&counts, 0.99);
        assert_eq!(bucket_index(p50), bucket_index(50e-6));
        assert_eq!(bucket_index(p99), bucket_index(2e-3));
        assert!((p50 / 50e-6 - 1.0).abs() < 0.8, "{p50}");
        assert_eq!(bucket_quantile(&counts, 0.0), p50);
        counts = [0; HIST_BUCKETS];
        counts[0] = 3;
        assert_eq!(bucket_quantile(&counts, 1.0), RESOLUTION_FLOOR_MS);
    }

    #[test]
    fn observe_updates_registers() {
        let m = Metrics::new();
        let record = |status, runtime_ms| EventKind::Iteration {
            iteration: 0,
            algorithm: 1,
            status,
            runtime_ms,
            weights: WeightSet::from_slice(&[0.25, 0.75]),
            traffic: None,
        };
        m.observe(&record(MeasureStatus::Ok, 5.0));
        m.observe(&record(MeasureStatus::Failed, 100.0));
        let r = m.report();
        assert_eq!(r.iterations, 2);
        assert_eq!(r.algorithms.len(), 2);
        assert_eq!(r.algorithms[1].selections, 2);
        assert_eq!(r.algorithms[1].ok, 1);
        assert_eq!(r.algorithms[1].failures, 1);
        assert_eq!(r.algorithms[0].last_weight, 0.25);
        assert_eq!(r.algorithms[1].histogram.len(), 1);
        assert_eq!(r.algorithms[1].histogram[0].1, 1);
        m.reset();
        assert_eq!(m.report(), MetricsReport::default());
    }

    #[test]
    fn out_of_range_algorithms_are_ignored() {
        let m = Metrics::new();
        m.observe(&EventKind::PenaltyApplied {
            algorithm: u16::MAX,
            penalty_ms: 0.0,
        });
        m.observe(&EventKind::MeasureOutcome {
            algorithm: MAX_TRACKED_ALGORITHMS as u16 + 3,
            status: MeasureStatus::Failed,
            runtime_ms: f64::NAN,
        });
        assert!(m.report().algorithms.is_empty());
    }
}
