//! Fault-tolerant measurement: outcomes, robust wrappers, fault injection.
//!
//! The paper's setting is *online* tuning — measurements come from live
//! production runs, where failed, hung, or degenerate samples are the norm,
//! not the exception: a fast SIMD kernel under a coarse timer legitimately
//! reads `0.0` ms, a builder can panic on a degenerate input, and a shared
//! machine can stall a measurement arbitrarily long. Willemsen et al.
//! (*Constraint-aware Optimization in Auto-Tuning*) observe that invalid and
//! failed configurations dominate real tuning spaces and need first-class
//! handling. This module provides it:
//!
//! * [`Measure`] — the measurement function `m` a tuner minimizes — and
//!   [`time_ms`] / [`duration_ms`], wall-clock timing in the paper's unit.
//! * [`MeasureOutcome`] — the three-valued result of one measurement
//!   attempt: `Ok(value)`, `Failed(reason)` or `TimedOut`.
//! * [`RobustOptions`] / [`robust_call`] — run a measurement closure under a
//!   panic guard (`catch_unwind`), a wall-clock deadline, bounded
//!   retry-with-backoff, and optional median-of-k outlier rejection.
//!   Returned values are clamped to the timer-resolution floor
//!   [`RESOLUTION_FLOOR_MS`] so the `1/m` weight math of the phase-2
//!   strategies stays finite.
//! * [`batched_time_ms`] / [`robust_time`] — µs-scale timing. A call
//!   cheaper than one timer tick reads as `0.0` and the floor clamp then
//!   flattens *every* such configuration to the same value, so the tuner
//!   cannot rank them (a 1 µs and a 2 µs config look identical under a
//!   5 µs clock). Batched timing restores the signal: time `k`
//!   back-to-back calls — `k` grown adaptively until the batch spans
//!   [`BATCH_TARGET_QUANTA`] ticks of the *measured* resolution
//!   ([`timer_resolution_ms`]) — and divide by `k`, bounding per-call
//!   quantization error to ~1/[`BATCH_TARGET_QUANTA`].
//! * [`RobustMeasure`] — the same machinery as a [`FallibleMeasure`]
//!   adapter around any ordinary [`Measure`].
//! * [`FaultyMeasure`] / [`FaultPlan`] — a deterministic fault-injection
//!   decorator (NaN, zero, panic, latency spikes at a configured rate) used
//!   by the `experiments faults` study and the regression suite.
//!
//! The **penalty policy** (Section III's "never exclude an algorithm",
//! weakened just enough to survive production): a failed measurement is
//! reported to the strategies as [`failure_penalty`] — a finite value
//! [`FAILURE_PENALTY_FACTOR`]× the worst runtime observed so far — so a
//! failing algorithm is strongly deprioritized but keeps a strictly
//! positive selection probability and can recover.

use crate::rng::Rng;
use crate::space::Configuration;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Minimum representable measurement, in milliseconds. One nanosecond —
/// below `Instant`'s practical resolution on every supported platform.
/// Values are clamped *up* to this floor before any `1/m` inversion, which
/// keeps every strategy weight finite even for `0.0` or subnormal samples.
pub const RESOLUTION_FLOOR_MS: f64 = 1e-6;

/// Maximum representable measurement, in milliseconds. Finite values above
/// this are clamped down so sums of inverse-floor penalties cannot reach
/// `inf` in downstream accumulation.
pub const MAX_MEASUREMENT_MS: f64 = 1e300;

/// Penalty multiplier applied to the worst observed runtime when a
/// measurement fails: large enough to strongly deprioritize the failing
/// algorithm, small enough that a handful of failures cannot push weights
/// into denormal territory.
pub const FAILURE_PENALTY_FACTOR: f64 = 4.0;

/// Penalty reported for a failure before *any* successful measurement
/// exists to scale from (milliseconds).
pub const DEFAULT_FAILURE_PENALTY_MS: f64 = 1e3;

/// Clamp a raw measurement into the representable band
/// `[RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS]`. Non-finite input is the
/// caller's bug at this layer; use [`MeasureOutcome::from_value`] to
/// classify untrusted values first.
#[inline]
pub fn clamp_measurement(value: f64) -> f64 {
    value.clamp(RESOLUTION_FLOOR_MS, MAX_MEASUREMENT_MS)
}

/// A measurement function `m_K : T → ℝ`: the paper minimizes it over the
/// configurations `T` for a fixed context `K` (application and system).
/// Implemented by the application being tuned, or by a synthetic cost
/// model in tests.
pub trait Measure {
    /// Evaluate one configuration and return its measured value. Lower is
    /// better. The value must be finite; strategies treat non-finite values
    /// as a contract violation.
    fn measure(&mut self, config: &Configuration) -> f64;
}

impl<F: FnMut(&Configuration) -> f64> Measure for F {
    fn measure(&mut self, config: &Configuration) -> f64 {
        self(config)
    }
}

/// Run a closure and return its wall-clock duration in milliseconds — the
/// unit used throughout the paper's figures.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, duration_ms(start.elapsed()))
}

/// Convert a [`Duration`] to fractional milliseconds.
pub fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Target span of one batched measurement, in ticks of the measured timer
/// resolution: [`batched_time_ms`] doubles the batch until `k` back-to-back
/// calls cover at least this many ticks, so the ±1-tick quantization error
/// on the whole batch is at most ~1/32 ≈ 3% of each per-call value.
pub const BATCH_TARGET_QUANTA: f64 = 32.0;

/// Upper bound on the adaptive batch size. A call so cheap that even this
/// many repetitions stay under the target span is timed as the whole batch
/// anyway — per-call resolution degrades gracefully instead of the loop
/// running away on a sub-nanosecond closure.
pub const MAX_BATCH: usize = 1024;

/// The measured resolution of `Instant` on this host, in milliseconds:
/// the smallest positive delta between consecutive clock reads, sampled
/// once and cached, floored at [`RESOLUTION_FLOOR_MS`]. This — not the
/// 1 ns representational floor — is the granularity below which two
/// single-shot measurements are indistinguishable, and therefore the
/// quantum [`batched_time_ms`] batches against and the minimum regression
/// [`crate::drift::DriftMonitor`] will treat as signal.
pub fn timer_resolution_ms() -> f64 {
    static RESOLUTION: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *RESOLUTION.get_or_init(|| {
        let mut min_delta = f64::INFINITY;
        for _ in 0..8 {
            let start = Instant::now();
            let mut next = start;
            // Spin until the clock visibly advances (bounded, in case the
            // platform clock is frozen under emulation).
            for _ in 0..1_000_000 {
                next = Instant::now();
                if next > start {
                    break;
                }
            }
            let delta = (next - start).as_secs_f64() * 1e3;
            if delta > 0.0 {
                min_delta = min_delta.min(delta);
            }
        }
        if min_delta.is_finite() {
            min_delta.max(RESOLUTION_FLOOR_MS)
        } else {
            RESOLUTION_FLOOR_MS
        }
    })
}

/// What timing one call costs on this host, in milliseconds: a clock read
/// before the call and an elapsed-time read after it, measured back to
/// back (the minimum over a few batches, so a preempted batch does not
/// count) and cached like [`timer_resolution_ms`]. The resolution is no
/// substitute: on a coarse clock it is the tick, not the read. A site
/// sizes its timing stride for untuned calls by it ([`crate::site`]).
pub fn clock_pair_ms() -> f64 {
    static COST: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        const PAIRS: u32 = 64;
        let mut best = f64::INFINITY;
        for _ in 0..8 {
            let t0 = Instant::now();
            for _ in 0..PAIRS {
                std::hint::black_box(std::hint::black_box(Instant::now()).elapsed());
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e3 / f64::from(PAIRS));
        }
        best.max(RESOLUTION_FLOOR_MS)
    })
}

/// Core of [`batched_time_ms`], parameterized over the clock so a
/// deliberately quantized clock can drive the regression tests: time `k`
/// back-to-back calls of `f` until one batch spans
/// [`BATCH_TARGET_QUANTA`] × `resolution_ms` (or `k` hits
/// [`MAX_BATCH`]), and return `(per_call_ms, k)`. `k` doubles from 1
/// until a batch spans an eighth of the target; that batch is the probe
/// the next one is sized from, with a 25% margin, and `k` doubles again
/// only if the sized batch falls short. So the calls run before the
/// accepted batch are a fifth to a half as many as it holds, where
/// doubling alone runs as many as it keeps. `clock_ms` must be
/// monotonic; `resolution_ms` is its tick size.
pub fn batched_time_ms_with(
    resolution_ms: f64,
    clock_ms: &mut impl FnMut() -> f64,
    f: &mut impl FnMut(),
) -> (f64, usize) {
    let target_ms = resolution_ms * BATCH_TARGET_QUANTA;
    let mut batch = 1usize;
    let mut sized = false;
    loop {
        let t0 = clock_ms();
        for _ in 0..batch {
            f();
        }
        let elapsed = clock_ms() - t0;
        if elapsed >= target_ms || batch >= MAX_BATCH {
            return (elapsed / batch as f64, batch);
        }
        batch = if !sized && elapsed >= target_ms / 8.0 {
            sized = true;
            let k = (1.25 * target_ms / elapsed * batch as f64).ceil() as usize;
            k.clamp(batch + 1, MAX_BATCH)
        } else {
            (2 * batch).min(MAX_BATCH)
        };
    }
}

/// Time `f`, batching adaptively when one call is cheaper than the clock
/// can resolve: a single call whose wall time already spans
/// [`BATCH_TARGET_QUANTA`] ticks of [`timer_resolution_ms`] is returned
/// as-is (batch size 1 — ms-scale workloads pay nothing), while cheaper
/// calls are re-run back-to-back and the batch wall time divided by the
/// batch size. Returns the per-call milliseconds.
///
/// This is the timing primitive µs-scale workloads must use on the tuning
/// path: under a coarse timer, single-shot values collapse onto the clock
/// grid (and then onto [`RESOLUTION_FLOOR_MS`]), erasing the very
/// differences the tuner exists to rank.
pub fn batched_time_ms(mut f: impl FnMut()) -> f64 {
    let resolution = timer_resolution_ms();
    let origin = Instant::now();
    let mut clock = || origin.elapsed().as_secs_f64() * 1e3;
    batched_time_ms_with(resolution, &mut clock, &mut f).0
}

/// [`robust_call`] over [`batched_time_ms`]: the full robust pipeline
/// (panic guard, deadline, retries, median-of-k) where each "attempt" is
/// one adaptively batched timing of `f` rather than one raw call. The
/// natural entry point for workloads whose single invocation is cheaper
/// than the timer tick.
pub fn robust_time(opts: &RobustOptions, mut f: impl FnMut()) -> MeasureOutcome {
    robust_call(opts, || batched_time_ms(&mut f))
}

/// The result of one measurement attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureOutcome {
    /// A valid sample: finite, clamped to the representable band.
    Ok(f64),
    /// The measurement produced no usable value (panic, non-finite result,
    /// application-level error). The reason is for logs, not control flow.
    Failed(String),
    /// The measurement exceeded the configured wall-clock deadline.
    TimedOut,
}

impl MeasureOutcome {
    /// Classify an untrusted raw value: finite values are clamped into the
    /// representable band and become `Ok`; NaN and ±∞ become `Failed`.
    pub fn from_value(value: f64) -> MeasureOutcome {
        if value.is_finite() {
            MeasureOutcome::Ok(clamp_measurement(value))
        } else {
            MeasureOutcome::Failed(format!("non-finite measurement: {value}"))
        }
    }

    /// The sample value, if the measurement succeeded.
    pub fn ok(&self) -> Option<f64> {
        match self {
            MeasureOutcome::Ok(v) => Some(*v),
            _ => None,
        }
    }

    /// True if the measurement succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self, MeasureOutcome::Ok(_))
    }

    /// Short label for logs and result files.
    pub fn label(&self) -> &'static str {
        match self {
            MeasureOutcome::Ok(_) => "ok",
            MeasureOutcome::Failed(_) => "failed",
            MeasureOutcome::TimedOut => "timed-out",
        }
    }
}

/// A measurement function that can fail. The fallible analogue of
/// [`Measure`]; implemented by [`RobustMeasure`] and by closures returning
/// [`MeasureOutcome`].
pub trait FallibleMeasure {
    /// Measure `config` once, classifying any failure.
    fn measure(&mut self, config: &Configuration) -> MeasureOutcome;
}

impl<F: FnMut(&Configuration) -> MeasureOutcome> FallibleMeasure for F {
    fn measure(&mut self, config: &Configuration) -> MeasureOutcome {
        self(config)
    }
}

/// Knobs of the robust measurement pipeline. The default is the cheapest
/// safe configuration: panic guard + validation + floor clamp, no deadline,
/// no retries, single repetition.
#[derive(Debug, Clone)]
pub struct RobustOptions {
    /// Wall-clock deadline per attempt, in milliseconds. Enforcement is
    /// post-hoc: the attempt runs to completion, and its value is discarded
    /// as [`MeasureOutcome::TimedOut`] if it took longer. (In-process
    /// measurement cannot be preempted without moving it to a sacrificial
    /// thread; the tuner only needs the *sample* suppressed.)
    pub deadline_ms: Option<f64>,
    /// Additional attempts after a failed or timed-out one.
    pub retries: usize,
    /// Sleep before retry `n` is `backoff * 2^(n-1)`. Zero (default)
    /// disables sleeping, which is what tuning loops embedded in a serving
    /// path want — the next iteration is the natural backoff.
    pub backoff: Duration,
    /// Take the median of this many successful repetitions (outlier
    /// rejection). `1` disables repetition.
    pub repetitions: usize,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            deadline_ms: None,
            retries: 0,
            backoff: Duration::ZERO,
            repetitions: 1,
        }
    }
}

impl RobustOptions {
    /// Set the per-attempt deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: f64) -> Self {
        assert!(ms > 0.0, "deadline must be positive");
        self.deadline_ms = Some(ms);
        self
    }

    /// Set the retry count and exponential-backoff base.
    pub fn with_retries(mut self, retries: usize, backoff: Duration) -> Self {
        self.retries = retries;
        self.backoff = backoff;
        self
    }

    /// Set the median-of-`k` repetition count.
    pub fn with_repetitions(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one repetition");
        self.repetitions = k;
        self
    }
}

/// Render a panic payload into a log-friendly reason string.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// One guarded attempt: catch panics, enforce the deadline, classify the
/// value.
fn guarded_attempt(opts: &RobustOptions, f: &mut impl FnMut() -> f64) -> MeasureOutcome {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(&mut *f));
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    match result {
        Err(payload) => MeasureOutcome::Failed(panic_reason(payload)),
        Ok(value) => {
            if opts.deadline_ms.is_some_and(|d| elapsed_ms > d) {
                MeasureOutcome::TimedOut
            } else {
                MeasureOutcome::from_value(value)
            }
        }
    }
}

/// Run one attempt with retry/backoff until it succeeds or the retry
/// budget is exhausted.
fn attempt_with_retries(opts: &RobustOptions, f: &mut impl FnMut() -> f64) -> MeasureOutcome {
    let mut outcome = guarded_attempt(opts, f);
    let mut backoff = opts.backoff;
    for _ in 0..opts.retries {
        if outcome.is_ok() {
            break;
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
            backoff *= 2;
        }
        outcome = guarded_attempt(opts, f);
    }
    outcome
}

/// Run a measurement closure through the full robust pipeline: panic guard,
/// deadline, retry/backoff, median-of-k repetitions, resolution-floor
/// clamping. This is the closure-level primitive; [`RobustMeasure`] adapts
/// it to the [`Measure`]/[`FallibleMeasure`] traits and
/// [`crate::two_phase::TwoPhaseTuner::step_fallible`] is the natural
/// consumer.
pub fn robust_call(opts: &RobustOptions, mut f: impl FnMut() -> f64) -> MeasureOutcome {
    if opts.repetitions <= 1 {
        return attempt_with_retries(opts, &mut f);
    }
    let mut values = Vec::with_capacity(opts.repetitions);
    let mut last_failure = None;
    for _ in 0..opts.repetitions {
        match attempt_with_retries(opts, &mut f) {
            MeasureOutcome::Ok(v) => values.push(v),
            other => last_failure = Some(other),
        }
    }
    if values.is_empty() {
        last_failure.expect("no successes implies a recorded failure")
    } else {
        MeasureOutcome::Ok(crate::stats::median(&values))
    }
}

/// [`FallibleMeasure`] adapter: any plain [`Measure`] (including ones that
/// panic or return garbage) becomes a total function into
/// [`MeasureOutcome`].
pub struct RobustMeasure<M> {
    inner: M,
    opts: RobustOptions,
}

impl<M: Measure> RobustMeasure<M> {
    /// Wrap `inner` with the given pipeline options.
    pub fn new(inner: M, opts: RobustOptions) -> Self {
        RobustMeasure { inner, opts }
    }

    /// The pipeline options in effect.
    pub fn options(&self) -> &RobustOptions {
        &self.opts
    }

    /// Unwrap, returning the inner measure.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Measure> FallibleMeasure for RobustMeasure<M> {
    fn measure(&mut self, config: &Configuration) -> MeasureOutcome {
        let inner = &mut self.inner;
        robust_call(&self.opts, || inner.measure(config))
    }
}

/// The penalty reported in place of a failed measurement:
/// [`FAILURE_PENALTY_FACTOR`] × the worst runtime observed across all
/// algorithms, or [`DEFAULT_FAILURE_PENALTY_MS`] before any observation.
/// Always finite and within the representable band, so it can be recorded
/// as a regular (bad) sample — deprioritizing without excluding.
pub fn failure_penalty(histories: &[crate::history::AlgorithmHistory]) -> f64 {
    let worst = histories
        .iter()
        .filter_map(|h| h.worst_value())
        .fold(f64::NEG_INFINITY, f64::max);
    if worst.is_finite() {
        clamp_measurement(worst * FAILURE_PENALTY_FACTOR)
    } else {
        DEFAULT_FAILURE_PENALTY_MS
    }
}

// ------------------------------------------------------------------
// Fault injection
// ------------------------------------------------------------------

/// The kinds of measurement faults seen in production tuning loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The measurement reads NaN (broken timer arithmetic, 0/0 rates).
    Nan,
    /// The measurement reads exactly `0.0` ms (fast kernel + coarse timer).
    Zero,
    /// The measured code panics.
    Panic,
    /// A latency spike: the true value multiplied by the plan's
    /// `spike_factor` (interference from co-located work).
    Spike,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Nan,
        FaultKind::Zero,
        FaultKind::Panic,
        FaultKind::Spike,
    ];

    /// Short label for logs and result files.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Nan => "nan",
            FaultKind::Zero => "zero",
            FaultKind::Panic => "panic",
            FaultKind::Spike => "spike",
        }
    }
}

/// Deterministic fault schedule: each measurement is independently faulty
/// with probability `rate`, the kind drawn uniformly from `kinds`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Per-measurement fault probability.
    pub rate: f64,
    /// The fault kinds to draw from (uniformly).
    pub kinds: Vec<FaultKind>,
    /// Multiplier applied to the true value for [`FaultKind::Spike`].
    pub spike_factor: f64,
}

impl FaultPlan {
    /// All four fault kinds at the given rate, 20× spikes.
    pub fn all(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        FaultPlan {
            rate,
            kinds: FaultKind::ALL.to_vec(),
            spike_factor: 20.0,
        }
    }

    /// Restrict the plan to the given fault kinds.
    pub fn with_kinds(mut self, kinds: Vec<FaultKind>) -> Self {
        assert!(!kinds.is_empty(), "need at least one fault kind");
        self.kinds = kinds;
        self
    }
}

/// Tally of injected faults, for reporting recovery rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// NaN measurements injected.
    pub nan: usize,
    /// Zero measurements injected.
    pub zero: usize,
    /// Panics injected.
    pub panic: usize,
    /// Latency spikes injected.
    pub spike: usize,
}

impl FaultCounts {
    /// Total injected faults of all kinds.
    pub fn total(&self) -> usize {
        self.nan + self.zero + self.panic + self.spike
    }
}

/// Fault-injecting [`Measure`] decorator. Sits *under* [`RobustMeasure`]
/// (or [`robust_call`]) in tests and the `experiments faults` study: the
/// decorated measure misbehaves exactly like a production one would, and
/// the robust layer above must contain it.
pub struct FaultyMeasure<M> {
    inner: M,
    plan: FaultPlan,
    rng: Rng,
    counts: FaultCounts,
}

impl<M: Measure> FaultyMeasure<M> {
    /// Wrap `inner` so it misbehaves per `plan`, deterministically from
    /// `seed`.
    pub fn new(inner: M, plan: FaultPlan, seed: u64) -> Self {
        FaultyMeasure {
            inner,
            plan,
            rng: Rng::new(seed),
            counts: FaultCounts::default(),
        }
    }

    /// How many faults of each kind have been injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Decide the fault (if any) for the next measurement and tally it.
    fn next_fault(&mut self) -> Option<FaultKind> {
        if !self.rng.next_bool(self.plan.rate) {
            return None;
        }
        let kind = self.plan.kinds[self.rng.pick_index(self.plan.kinds.len())];
        match kind {
            FaultKind::Nan => self.counts.nan += 1,
            FaultKind::Zero => self.counts.zero += 1,
            FaultKind::Panic => self.counts.panic += 1,
            FaultKind::Spike => self.counts.spike += 1,
        }
        Some(kind)
    }
}

impl<M: Measure> Measure for FaultyMeasure<M> {
    fn measure(&mut self, config: &Configuration) -> f64 {
        match self.next_fault() {
            None => self.inner.measure(config),
            Some(FaultKind::Nan) => f64::NAN,
            Some(FaultKind::Zero) => 0.0,
            Some(FaultKind::Panic) => panic!("injected measurement fault"),
            Some(FaultKind::Spike) => self.inner.measure(config) * self.plan.spike_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Configuration;

    fn cfg() -> Configuration {
        Configuration::empty()
    }

    #[test]
    fn closure_is_a_measure() {
        let mut calls = 0usize;
        {
            let mut m = |_c: &Configuration| {
                calls += 1;
                1.5
            };
            assert_eq!(m.measure(&cfg()), 1.5);
            assert_eq!(m.measure(&cfg()), 1.5);
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn time_ms_is_nonnegative_and_returns_value() {
        let (v, ms) = time_ms(|| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
    }

    #[test]
    fn time_ms_measures_sleep() {
        let (_, ms) = time_ms(|| std::thread::sleep(Duration::from_millis(20)));
        assert!(ms >= 15.0, "expected >= 15ms, got {ms}");
    }

    #[test]
    fn duration_conversion() {
        assert_eq!(duration_ms(Duration::from_millis(250)), 250.0);
        assert!((duration_ms(Duration::from_micros(1500)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn from_value_classifies() {
        assert_eq!(MeasureOutcome::from_value(2.5), MeasureOutcome::Ok(2.5));
        assert_eq!(
            MeasureOutcome::from_value(0.0),
            MeasureOutcome::Ok(RESOLUTION_FLOOR_MS)
        );
        assert_eq!(
            MeasureOutcome::from_value(-3.0),
            MeasureOutcome::Ok(RESOLUTION_FLOOR_MS)
        );
        assert_eq!(
            MeasureOutcome::from_value(1e308),
            MeasureOutcome::Ok(MAX_MEASUREMENT_MS)
        );
        assert!(!MeasureOutcome::from_value(f64::NAN).is_ok());
        assert!(!MeasureOutcome::from_value(f64::INFINITY).is_ok());
    }

    #[test]
    fn timer_resolution_is_sane_and_cached() {
        let r = timer_resolution_ms();
        assert!(r >= RESOLUTION_FLOOR_MS, "resolution {r} below the floor");
        assert!(r < 10.0, "resolution {r} ms is not a usable clock");
        assert_eq!(r, timer_resolution_ms(), "must be cached");
    }

    /// Regression for the µs-scale flattening bug: under a coarse timer,
    /// single-shot timing reads 0 for any sub-tick call and the floor
    /// clamp then maps *both* of two configs 2× apart at ~1µs onto
    /// RESOLUTION_FLOOR_MS — indistinguishable. Batched timing must still
    /// tell them apart.
    #[test]
    fn batched_timing_distinguishes_sub_tick_configs() {
        use std::cell::Cell;
        const QUANTUM_NS: u64 = 5_000; // a 5µs clock: coarser than the work

        // Pre-fix pipeline: one call, one quantized read, floor clamp.
        let single_shot = |cost_ns: u64| {
            let now = Cell::new(0u64);
            let read = || ((now.get() / QUANTUM_NS) * QUANTUM_NS) as f64 * 1e-6;
            let t0 = read();
            now.set(now.get() + cost_ns);
            clamp_measurement(read() - t0)
        };
        let a = single_shot(1_000); // config A: 1µs
        let b = single_shot(2_000); // config B: 2µs, twice as slow
        assert_eq!(a, RESOLUTION_FLOOR_MS);
        assert_eq!(
            a, b,
            "single-shot timing flattens both configs to the floor — the bug"
        );

        // Fixed pipeline: adaptive batching against the same quantized clock.
        let batched = |cost_ns: u64| {
            let now = Cell::new(0u64);
            let mut clock = || ((now.get() / QUANTUM_NS) * QUANTUM_NS) as f64 * 1e-6;
            let mut f = || now.set(now.get() + cost_ns);
            batched_time_ms_with(QUANTUM_NS as f64 * 1e-6, &mut clock, &mut f)
        };
        let (a_ms, a_batch) = batched(1_000);
        let (b_ms, b_batch) = batched(2_000);
        assert!(a_batch > 1 && b_batch > 1, "sub-tick calls must batch");
        let ratio = b_ms / a_ms;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "batched timing must recover the 2x separation, got {ratio} \
             ({a_ms} ms @ batch {a_batch} vs {b_ms} ms @ batch {b_batch})"
        );
    }

    #[test]
    fn batched_timing_leaves_slow_calls_unbatched() {
        use std::cell::Cell;
        let now = Cell::new(0u64);
        let mut clock = || now.get() as f64 * 1e-6;
        // One call already spans far more than 32 ticks of a 1ns clock.
        let mut f = || now.set(now.get() + 3_000_000); // 3ms
        let (ms, batch) = batched_time_ms_with(1e-6, &mut clock, &mut f);
        assert_eq!(batch, 1, "ms-scale calls must not pay batching");
        assert!((ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn batched_timing_caps_runaway_batches() {
        use std::cell::Cell;
        let now = Cell::new(0u64);
        let mut clock = || now.get() as f64 * 1e-6;
        let mut f = || (); // free call: never reaches the target span
        let (ms, batch) = batched_time_ms_with(1.0, &mut clock, &mut f);
        assert_eq!(batch, MAX_BATCH);
        assert_eq!(ms, 0.0, "caller clamps via MeasureOutcome::from_value");
    }

    /// On a 50 ns clock (the reference host's tick is 28–66 ns), calls
    /// from 2 ns to 3 µs each: the accepted sample is one back-to-back
    /// batch spanning at least 32 ticks, and the calls run before it are
    /// at most half as many as it holds. Doubling alone runs `2k − 1`
    /// calls to keep `k`: a 55 ns call (a class-4 sort) ran 63 to keep
    /// 32.
    #[test]
    fn batched_timing_sizes_its_last_batch_from_a_probe() {
        use std::cell::Cell;
        const QUANTUM_NS: u64 = 50;
        let target_ns = BATCH_TARGET_QUANTA * QUANTUM_NS as f64;
        for cost_ns in (2..3_000).step_by(7) {
            let (now, calls) = (Cell::new(0u64), Cell::new(0usize));
            let mut clock = || ((now.get() / QUANTUM_NS) * QUANTUM_NS) as f64 * 1e-6;
            let mut f = || {
                now.set(now.get() + cost_ns);
                calls.set(calls.get() + 1);
            };
            let (ms, batch) = batched_time_ms_with(QUANTUM_NS as f64 * 1e-6, &mut clock, &mut f);
            let span_ns = (ms * 1e6 * batch as f64).round();
            assert!(span_ns >= target_ns, "{cost_ns} ns: a short batch");
            let before = calls.get() - batch;
            assert!(
                before <= batch / 2,
                "{cost_ns} ns: {before} calls run to keep a batch of {batch}"
            );
        }
    }

    #[test]
    fn robust_time_times_real_work() {
        let mut acc = 0u64;
        let out = robust_time(&RobustOptions::default(), || {
            for i in 0..64u64 {
                acc = acc.wrapping_add(std::hint::black_box(i * i));
            }
        });
        let v = out.ok().expect("timing real work succeeds");
        assert!((RESOLUTION_FLOOR_MS..1.0).contains(&v), "per-call ms: {v}");
        std::hint::black_box(acc);
    }

    #[test]
    fn robust_call_passes_clean_values() {
        let out = robust_call(&RobustOptions::default(), || 7.25);
        assert_eq!(out, MeasureOutcome::Ok(7.25));
    }

    #[test]
    fn robust_call_clamps_zero_to_floor() {
        let out = robust_call(&RobustOptions::default(), || 0.0);
        assert_eq!(out, MeasureOutcome::Ok(RESOLUTION_FLOOR_MS));
    }

    #[test]
    fn robust_call_converts_panic_to_failure() {
        let out = robust_call(&RobustOptions::default(), || -> f64 {
            panic!("kernel exploded")
        });
        match out {
            MeasureOutcome::Failed(reason) => assert!(reason.contains("kernel exploded")),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn robust_call_converts_nan_to_failure() {
        let out = robust_call(&RobustOptions::default(), || f64::NAN);
        assert!(matches!(out, MeasureOutcome::Failed(_)));
    }

    #[test]
    fn deadline_discards_slow_samples() {
        let opts = RobustOptions::default().with_deadline_ms(5.0);
        let out = robust_call(&opts, || {
            std::thread::sleep(Duration::from_millis(20));
            1.0
        });
        assert_eq!(out, MeasureOutcome::TimedOut);
    }

    #[test]
    fn retries_recover_transient_failures() {
        let mut calls = 0;
        let opts = RobustOptions::default().with_retries(2, Duration::ZERO);
        let out = robust_call(&opts, || {
            calls += 1;
            if calls < 3 {
                panic!("transient")
            }
            4.0
        });
        assert_eq!(out, MeasureOutcome::Ok(4.0));
        assert_eq!(calls, 3);
    }

    #[test]
    fn retries_exhaust_to_last_failure() {
        let opts = RobustOptions::default().with_retries(2, Duration::ZERO);
        let out = robust_call(&opts, || f64::NAN);
        assert!(matches!(out, MeasureOutcome::Failed(_)));
    }

    #[test]
    fn median_of_k_rejects_outliers() {
        let mut calls = 0;
        let opts = RobustOptions::default().with_repetitions(3);
        let out = robust_call(&opts, || {
            calls += 1;
            if calls == 2 {
                500.0
            } else {
                10.0
            }
        });
        assert_eq!(out, MeasureOutcome::Ok(10.0));
    }

    #[test]
    fn median_of_k_uses_successes_only() {
        let mut calls = 0;
        let opts = RobustOptions::default().with_repetitions(3);
        let out = robust_call(&opts, || {
            calls += 1;
            if calls == 1 {
                f64::NAN
            } else {
                6.0
            }
        });
        assert_eq!(out, MeasureOutcome::Ok(6.0));
    }

    #[test]
    fn robust_measure_adapts_plain_measures() {
        let mut m = RobustMeasure::new(|_: &Configuration| 3.0, RobustOptions::default());
        assert_eq!(m.measure(&cfg()), MeasureOutcome::Ok(3.0));
    }

    #[test]
    fn failure_penalty_scales_worst_observed() {
        let mut h = crate::history::AlgorithmHistory::new(1);
        h.record(10.0);
        h.record(25.0);
        let hs = [h, crate::history::AlgorithmHistory::new(1)];
        assert_eq!(failure_penalty(&hs), 100.0);
    }

    #[test]
    fn failure_penalty_default_without_samples() {
        let hs = [crate::history::AlgorithmHistory::new(1)];
        assert_eq!(failure_penalty(&hs), DEFAULT_FAILURE_PENALTY_MS);
    }

    #[test]
    fn faulty_measure_injects_at_the_configured_rate() {
        let mut m = FaultyMeasure::new(
            |_: &Configuration| 5.0,
            FaultPlan::all(0.25).with_kinds(vec![FaultKind::Zero, FaultKind::Nan]),
            11,
        );
        let n = 4000;
        for _ in 0..n {
            let _ = m.measure(&cfg());
        }
        let rate = m.counts().total() as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed fault rate {rate}");
        assert_eq!(m.counts().panic, 0);
        assert_eq!(m.counts().spike, 0);
    }

    #[test]
    fn faulty_under_robust_never_escapes() {
        let faulty = FaultyMeasure::new(|_: &Configuration| 5.0, FaultPlan::all(0.5), 13);
        let mut robust = RobustMeasure::new(faulty, RobustOptions::default());
        let mut oks = 0;
        let mut fails = 0;
        for _ in 0..500 {
            match robust.measure(&cfg()) {
                MeasureOutcome::Ok(v) => {
                    assert!(v.is_finite() && v >= RESOLUTION_FLOOR_MS);
                    oks += 1;
                }
                _ => fails += 1,
            }
        }
        assert!(oks > 0 && fails > 0, "both paths must be exercised");
    }
}
