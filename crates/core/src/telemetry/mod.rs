//! Zero-cost-when-disabled tracing and metrics for the two-phase tuner.
//!
//! The paper's whole evaluation is built from per-iteration traces —
//! which algorithm phase 2 selected, what weight each strategy assigned,
//! how runtime converged. This module records exactly those traces from a
//! live tuner without slowing the hot path it is tuning:
//!
//! * **Typed events** ([`Event`] / [`EventKind`]) — one
//!   [`EventKind::Iteration`] record per tuning iteration (the selected
//!   algorithm, its outcome and runtime, the phase-2 weight vector, and a
//!   site's traffic counters), plus untuned-call failures, degenerate
//!   proposals, workload spans, pool queue depths and drift restarts.
//! * **A fixed-capacity ring buffer** ([`ring::EventRing`]) — allocated
//!   once at [`enable`] time; recording an event never allocates and the
//!   oldest events are overwritten at capacity.
//! * **Per-algorithm metric registers** ([`metrics::Metrics`]) — lock-free
//!   atomic selection / failure counters, last-weight gauges and
//!   log-spaced runtime histograms, updated on every recorded event.
//! * **Exporters** ([`export`]) — JSONL (one event per line, round-trips
//!   through [`crate::json`]) and Chrome `trace_event` JSON that loads
//!   directly in Perfetto / `chrome://tracing`.
//!
//! # Cost model
//!
//! Instrumentation sites call [`emit`] with a *closure* that builds the
//! event, so when telemetry is off the event is never constructed:
//!
//! ```
//! use autotune::telemetry::{self, EventKind, SpanKind};
//! telemetry::emit(|| EventKind::SpanBegin { span: SpanKind::Search });
//! ```
//!
//! Two switches stack:
//!
//! * **Compile time** — the `telemetry` cargo feature (on by default).
//!   Without it, [`emit`] is an empty inline function and the whole call
//!   disappears; the data structures in this module still compile so
//!   exporters and tests keep working.
//! * **Run time** — [`enable`] / [`disable`] flip a relaxed [`AtomicBool`].
//!   The disabled path is a single predictable branch (< 2 ns/event,
//!   enforced by the `telemetry_overhead` bench).
//!
//! Recording is process-global: the tuner, pool and workloads all write to
//! one [`Recorder`] so a trace interleaves phase-2 decisions with the
//! measurements they caused. Use [`drain`] between runs to split a
//! recording into per-run logs.

pub mod export;
pub mod metrics;
pub mod ring;

pub use metrics::{AlgoMetrics, MetricsReport};

use crate::robust::MeasureOutcome;
use metrics::Metrics;
use ring::EventRing;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Maximum number of algorithms tracked per event/metric register.
///
/// Phase-2 weight vectors are recorded inline (no allocation) in a
/// [`WeightSet`], which caps how many algorithms a single tuner can have
/// *traced*. Tuners with more algorithms still work — excess weights are
/// simply not recorded.
pub const MAX_TRACKED_ALGORITHMS: usize = 16;

/// Default event capacity used by [`enable`] (65 536 events of 144 B ≈
/// 9 MiB, whose pages are touched only as the rings fill).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Number of independent ring shards the *global* recorder uses.
///
/// Under the multi-site runtime many request threads record concurrently;
/// a single `Mutex<EventRing>` would serialize them all. The global
/// recorder therefore stripes events across [`RING_SHARDS`] cache-line-
/// aligned rings — keyed by the emitting site (so one site's events stay
/// in recorded order within a shard) or, for untagged events, by a
/// per-thread hint — and merges them by timestamp at export time.
/// Standalone [`Recorder::new`] recorders stay single-shard so unit tests
/// observe exact FIFO eviction semantics.
pub const RING_SHARDS: usize = 8;

/// The `site` value carried by events not attributed to any tuning site.
pub const NO_SITE: u16 = u16::MAX;

/// The `context` value carried by events not attributed to any context
/// key ([`crate::context::ContextSites`] assigns real ids).
pub const NO_CONTEXT: u32 = u32::MAX;

#[cfg(feature = "telemetry")]
thread_local! {
    /// The site the current thread is presently working for (see
    /// [`with_site`]). Read on every recorded event to stamp
    /// [`Event::site`].
    static CURRENT_SITE: std::cell::Cell<u16> = const { std::cell::Cell::new(NO_SITE) };
    /// The context key id the current thread is presently working for
    /// (see [`with_context`]). Read on every recorded event to stamp
    /// [`Event::context`].
    static CURRENT_CONTEXT: std::cell::Cell<u32> = const { std::cell::Cell::new(NO_CONTEXT) };
    /// Lazily assigned ring-shard hint for events with no site tag.
    static SHARD_HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Round-robin source for [`SHARD_HINT`] assignment.
#[cfg(feature = "telemetry")]
static NEXT_SHARD_HINT: AtomicUsize = AtomicUsize::new(0);

/// Run `f` with every event recorded by this thread tagged as belonging
/// to tuning site `site` (see [`Event::site`]). Scopes nest; the previous
/// tag is restored on exit, including on panic. Without the `telemetry`
/// feature this is a plain call to `f`.
pub fn with_site<R, F: FnOnce() -> R>(site: u16, f: F) -> R {
    #[cfg(feature = "telemetry")]
    {
        struct Restore(u16);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT_SITE.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(CURRENT_SITE.with(|c| c.replace(site)));
        f()
    }
    #[cfg(not(feature = "telemetry"))]
    f()
}

/// The site tag the current thread's events are stamped with ([`NO_SITE`]
/// outside any [`with_site`] scope or without the `telemetry` feature).
pub fn current_site() -> u16 {
    #[cfg(feature = "telemetry")]
    {
        CURRENT_SITE.with(|c| c.get())
    }
    #[cfg(not(feature = "telemetry"))]
    NO_SITE
}

/// Run `f` with every event recorded by this thread tagged as belonging
/// to context key `context` (see [`Event::context`] and
/// [`crate::context::ContextSites`], which assigns the ids). Scopes
/// nest; the previous tag is restored on exit, including on panic.
/// Orthogonal to [`with_site`]: the site tag names the registry slot
/// (recycled across bindings), the context tag names the logical key —
/// splitting a trace by `(site, context)` separates the bindings that
/// shared a slot. Without the `telemetry` feature this is a plain call
/// to `f`.
pub fn with_context<R, F: FnOnce() -> R>(context: u32, f: F) -> R {
    #[cfg(feature = "telemetry")]
    {
        struct Restore(u32);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT_CONTEXT.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(CURRENT_CONTEXT.with(|c| c.replace(context)));
        f()
    }
    #[cfg(not(feature = "telemetry"))]
    f()
}

/// The context tag the current thread's events are stamped with
/// ([`NO_CONTEXT`] outside any [`with_context`] scope or without the
/// `telemetry` feature).
pub fn current_context() -> u32 {
    #[cfg(feature = "telemetry")]
    {
        CURRENT_CONTEXT.with(|c| c.get())
    }
    #[cfg(not(feature = "telemetry"))]
    NO_CONTEXT
}

/// The ring-shard index for an event tagged `site`, recorded from the
/// current thread: site-keyed when tagged (one site's events stay ordered
/// within their shard), thread-keyed otherwise.
fn shard_index(site: u16, num_shards: usize) -> usize {
    if num_shards == 1 {
        return 0;
    }
    if site != NO_SITE {
        return site as usize % num_shards;
    }
    #[cfg(feature = "telemetry")]
    {
        SHARD_HINT.with(|h| {
            let mut hint = h.get();
            if hint == usize::MAX {
                hint = NEXT_SHARD_HINT.fetch_add(1, Ordering::Relaxed);
                h.set(hint);
            }
            hint % num_shards
        })
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// A fixed-size, heap-free snapshot of a phase-2 weight vector.
///
/// Weights are stored as `f32` (exactly round-trippable through JSON via
/// `f64`) and truncated to [`MAX_TRACKED_ALGORITHMS`] entries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightSet {
    len: u8,
    values: [f32; MAX_TRACKED_ALGORITHMS],
}

impl WeightSet {
    /// An empty weight set.
    pub const fn empty() -> Self {
        Self {
            len: 0,
            values: [0.0; MAX_TRACKED_ALGORITHMS],
        }
    }

    /// Capture the first [`MAX_TRACKED_ALGORITHMS`] weights from a slice.
    pub fn from_slice(weights: &[f64]) -> Self {
        let mut set = Self::empty();
        for (i, w) in weights.iter().take(MAX_TRACKED_ALGORITHMS).enumerate() {
            set.values[i] = *w as f32;
        }
        set.len = weights.len().min(MAX_TRACKED_ALGORITHMS) as u8;
        set
    }

    /// Number of recorded weights.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no weights were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The weight at algorithm index `i`, if recorded.
    pub fn get(&self, i: usize) -> Option<f32> {
        self.as_slice().get(i).copied()
    }

    /// The recorded weights as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.values[..self.len as usize]
    }
}

/// Outcome class of a measurement, as recorded in telemetry.
///
/// This is the telemetry-side mirror of [`crate::robust::MeasureOutcome`],
/// flattened to a `Copy` tag (the failure message is not recorded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasureStatus {
    /// The measurement produced a usable runtime.
    Ok,
    /// The measurement failed (panic, degenerate value, workload error).
    Failed,
    /// The measurement exceeded its deadline.
    TimedOut,
}

impl MeasureStatus {
    /// Stable kebab-case name used by the JSONL exporter.
    pub fn label(self) -> &'static str {
        match self {
            MeasureStatus::Ok => "ok",
            MeasureStatus::Failed => "failed",
            MeasureStatus::TimedOut => "timed-out",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => MeasureStatus::Ok,
            "failed" => MeasureStatus::Failed,
            "timed-out" => MeasureStatus::TimedOut,
            _ => return None,
        })
    }

    /// Classify a [`MeasureOutcome`].
    pub fn of(outcome: &MeasureOutcome) -> Self {
        match outcome {
            MeasureOutcome::Ok(_) => MeasureStatus::Ok,
            MeasureOutcome::Failed(_) => MeasureStatus::Failed,
            MeasureOutcome::TimedOut => MeasureStatus::TimedOut,
        }
    }
}

/// What a [`EventKind::SpanBegin`] / [`EventKind::SpanEnd`] pair brackets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One `measure_search` call in the string-matching workload.
    Search,
    /// One `measure_frame` call in the raytracing workload.
    Frame,
}

impl SpanKind {
    /// Stable kebab-case name used by the JSONL exporter.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Search => "search",
            SpanKind::Frame => "frame",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "search" => SpanKind::Search,
            "frame" => SpanKind::Frame,
            _ => return None,
        })
    }
}

/// A site's cumulative traffic counters ([`crate::site::Site::calls`] and
/// its siblings) as one of its tuning iterations resolves, that call
/// included. Untuned calls push no event of their own, so this is how a
/// trace sees the exploit traffic between tuning calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Completed calls.
    pub calls: u64,
    /// Calls the tuning-rate controller backed off.
    pub backed_off: u64,
    /// Calls that found the claim held.
    pub contended: u64,
    /// Untuned calls that were timed ([`crate::site::Site::timed`]).
    pub timed: u64,
}

/// The payload of a recorded [`Event`]. All variants are `Copy` and
/// heap-free so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// One tuning iteration, recorded once when it resolves (reported,
    /// failed or penalized) by `TwoPhaseTuner`.
    Iteration {
        /// Zero-based iteration counter of the emitting tuner.
        iteration: u64,
        /// Index of the algorithm phase 2 selected.
        algorithm: u16,
        /// Whether the measurement succeeded, failed or timed out.
        status: MeasureStatus,
        /// The reported runtime; for a failed iteration, the penalty the
        /// tuner recorded instead.
        runtime_ms: f64,
        /// Phase-2 weights over all algorithms at selection time.
        weights: WeightSet,
        /// The site's traffic, when the iteration resolved through a
        /// [`crate::site::SiteGuard`]; `None` for a directly driven tuner
        /// and for a proposal a site penalized in [`crate::site::Site::pre`].
        traffic: Option<Traffic>,
    },
    /// An untuned site call that failed or timed out, or one that ran the
    /// published decision in place of a penalized proposal (successful
    /// untuned calls only count; see [`Traffic`]).
    MeasureOutcome {
        /// Index of the algorithm that was measured.
        algorithm: u16,
        /// Whether the measurement succeeded, failed or timed out.
        status: MeasureStatus,
        /// The measured runtime (`NaN` for failures).
        runtime_ms: f64,
    },
    /// A phase-1 searcher proposed non-finite coordinates, which
    /// [`crate::space::SearchSpace::clamp`] projected to the box minimum.
    PenaltyApplied {
        /// Always `u16::MAX`, outside every tracked algorithm index.
        algorithm: u16,
        /// Always 0.
        penalty_ms: f64,
    },
    /// A workload measurement span opened.
    SpanBegin {
        /// What the span brackets.
        span: SpanKind,
    },
    /// A workload measurement span closed.
    SpanEnd {
        /// What the span brackets.
        span: SpanKind,
    },
    /// Work-stealing pool queue depth observed at region dispatch.
    QueueDepth {
        /// Number of parallel regions queued (including the new one).
        depth: u32,
        /// Number of live worker threads in the pool.
        workers: u32,
    },
    /// A drift monitor ([`crate::drift`]) detected sustained regression
    /// against the converged baseline and triggered a tuner restart. The
    /// event's `site` tag names the restarted site.
    DriftDetected {
        /// The frozen baseline runtime (window median at convergence).
        baseline_ms: f64,
        /// The recent window median that breached the drift threshold.
        observed_ms: f64,
    },
}

/// One recorded telemetry event: a timestamp, the tuning site it belongs
/// to, and a typed payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the recorder's epoch ([`enable`] time).
    pub t_us: u64,
    /// The tuning site this event was recorded for ([`NO_SITE`] when the
    /// emitting code was not running inside a [`with_site`] scope — e.g.
    /// a directly driven single tuner).
    pub site: u16,
    /// The context key this event was recorded for ([`NO_CONTEXT`] when
    /// the emitting code was not running inside a [`with_context`] scope
    /// — i.e. outside any [`crate::context::ContextSites`] dispatch).
    /// Together with [`Event::site`] this splits a trace per *binding*:
    /// the site names the recycled registry slot, the context names the
    /// logical key bound to it at the time.
    pub context: u32,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// An event not attributed to any tuning site or context key.
    pub fn untagged(t_us: u64, kind: EventKind) -> Self {
        Event {
            t_us,
            site: NO_SITE,
            context: NO_CONTEXT,
            kind,
        }
    }
}

/// One ring shard, padded to its own cache line so request threads
/// recording into different shards never contend on the same line.
#[derive(Debug)]
#[repr(align(64))]
struct RingShard {
    ring: Mutex<EventRing>,
}

/// An event sink: sharded ring buffers of typed events plus always-on
/// metric registers, sharing one clock.
///
/// Most code uses the process-global recorder through [`enable`] /
/// [`emit`] / [`drain`]; standalone recorders exist for tests.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    shards: Box<[RingShard]>,
    metrics: Metrics,
}

impl Recorder {
    /// Create a single-shard recorder whose ring holds `capacity` events.
    /// All event storage is allocated here. Single-shard recorders keep
    /// exact FIFO eviction order; the global recorder uses
    /// [`Recorder::sharded`] instead.
    pub fn new(capacity: usize) -> Self {
        Self::sharded(1, capacity)
    }

    /// Create a recorder with `shards` independent cache-line-aligned
    /// rings of `per_shard_capacity` events each. Events recorded for the
    /// same site always land in the same shard (stays ordered); events
    /// from different sites or threads spread out and do not contend.
    pub fn sharded(shards: usize, per_shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        Self {
            epoch: Instant::now(),
            shards: (0..shards)
                .map(|_| RingShard {
                    ring: Mutex::new(EventRing::with_capacity(per_shard_capacity)),
                })
                .collect(),
            metrics: Metrics::new(),
        }
    }

    /// Number of ring shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn ring(&self, shard: usize) -> MutexGuard<'_, EventRing> {
        // A panic while holding the lock cannot leave the ring in a
        // broken state (push/clear are trivially atomic), so poisoning
        // is safe to ignore.
        self.shards[shard]
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Record one event: stamp it with the recorder clock and the current
    /// thread's site tag, update the metric registers and append it to
    /// the site's (or thread's) ring shard. Never allocates.
    pub fn record(&self, kind: EventKind) {
        let t_us = self.epoch.elapsed().as_micros() as u64;
        let site = current_site();
        let context = current_context();
        self.metrics.observe(&kind);
        self.ring(shard_index(site, self.shards.len())).push(Event {
            t_us,
            site,
            context,
            kind,
        });
    }

    /// Replace `events` with every shard's stored events, merged
    /// oldest-first by timestamp (a stable sort: events within one shard
    /// keep their recorded order), clearing each ring on the way when
    /// `clear`.
    fn merge_shards_into(&self, events: &mut Vec<Event>, clear: bool) {
        events.clear();
        for i in 0..self.shards.len() {
            let mut ring = self.ring(i);
            events.extend(ring.iter().copied());
            if clear {
                ring.clear();
            }
        }
        events.sort_by_key(|e| e.t_us);
    }

    /// Copy out the currently stored events across all shards, merged
    /// oldest-first by timestamp.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut events = Vec::new();
        self.merge_shards_into(&mut events, false);
        events
    }

    /// Drain every ring into `events` (cleared and reused as the merge
    /// scratch) and append the JSONL rendering of the drained events to
    /// `out`. Returns the number of events drained.
    ///
    /// This is the incremental flavor of [`Recorder::drain`] +
    /// [`export::to_jsonl`]: both buffers are caller-owned, so a streaming
    /// consumer (the [`crate::serve`] telemetry subscription path) drains
    /// the ring repeatedly with zero per-drain allocations once its
    /// buffers have warmed up.
    pub fn drain_jsonl_into(&self, events: &mut Vec<Event>, out: &mut String) -> usize {
        self.merge_shards_into(events, true);
        for e in events.iter() {
            export::append_event_jsonl(e, out);
        }
        events.len()
    }

    /// Copy out the stored events (merged by timestamp) and clear every
    /// ring (metrics are kept).
    pub fn drain(&self) -> Vec<Event> {
        let mut events = Vec::new();
        self.merge_shards_into(&mut events, true);
        events
    }

    /// Clear every ring and zero all metric registers.
    pub fn reset(&self) {
        for i in 0..self.shards.len() {
            self.ring(i).clear();
        }
        self.metrics.reset();
    }

    /// Total number of events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.ring(i).total_pushed())
            .sum()
    }

    /// Number of events lost to ring overwriting.
    pub fn overwritten(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.ring(i).overwritten())
            .sum()
    }

    /// Snapshot the metric registers.
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.report()
    }
}

/// Runtime switch. Checked with a relaxed load on every [`emit`]; this is
/// the entire cost of an instrumentation site while disabled.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global recorder, allocated on first [`enable`].
static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// True if the crate was built with the `telemetry` feature.
pub const fn compiled() -> bool {
    cfg!(feature = "telemetry")
}

/// Turn on global recording with [`DEFAULT_RING_CAPACITY`].
///
/// The first call allocates the ring; later calls just flip the runtime
/// switch (the capacity argument of the *first* enabling call wins).
/// No-op without the `telemetry` feature.
pub fn enable() {
    enable_with_capacity(DEFAULT_RING_CAPACITY);
}

/// Turn on global recording with an explicit ring capacity. See
/// [`enable`].
pub fn enable_with_capacity(capacity: usize) {
    if !compiled() {
        return;
    }
    // The global recorder is sharded so concurrent tuning sites never
    // serialize on one ring lock; `capacity` stays the *total* event
    // budget, split evenly across the shards.
    GLOBAL.get_or_init(|| Recorder::sharded(RING_SHARDS, capacity.div_ceil(RING_SHARDS)));
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn off global recording. Already-recorded events and metrics stay
/// available to [`snapshot`] / [`drain`] / [`metrics()`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// True if telemetry is compiled in *and* currently enabled.
pub fn is_enabled() -> bool {
    compiled() && ENABLED.load(Ordering::Relaxed)
}

/// Record an event into the global recorder, if enabled.
///
/// The closure runs only when recording is on, so instrumentation sites
/// pay nothing to build the event while telemetry is off. With the
/// `telemetry` feature disabled this function is empty and calls to it
/// compile away entirely.
#[inline(always)]
pub fn emit<F: FnOnce() -> EventKind>(f: F) {
    #[cfg(feature = "telemetry")]
    if ENABLED.load(Ordering::Relaxed) {
        if let Some(recorder) = GLOBAL.get() {
            recorder.record(f());
        }
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = f;
}

/// Copy out the global recorder's stored events, oldest-first. Empty if
/// recording was never enabled.
pub fn snapshot() -> Vec<Event> {
    GLOBAL.get().map(Recorder::snapshot).unwrap_or_default()
}

/// Copy out and clear the global recorder's events (metrics are kept).
/// Use between runs to split a recording into per-run logs.
pub fn drain() -> Vec<Event> {
    GLOBAL.get().map(Recorder::drain).unwrap_or_default()
}

/// Incrementally drain the global recorder as JSONL into caller-owned,
/// reused buffers; see [`Recorder::drain_jsonl_into`]. Returns 0 if
/// recording was never enabled.
pub fn drain_jsonl_into(events: &mut Vec<Event>, out: &mut String) -> usize {
    GLOBAL
        .get()
        .map(|r| r.drain_jsonl_into(events, out))
        .unwrap_or(0)
}

/// Clear the global ring and zero all global metric registers.
pub fn reset() {
    if let Some(r) = GLOBAL.get() {
        r.reset();
    }
}

/// Snapshot the global metric registers. Empty report if recording was
/// never enabled.
pub fn metrics() -> MetricsReport {
    GLOBAL.get().map(Recorder::metrics).unwrap_or_default()
}

/// Total events ever recorded globally, including overwritten ones.
pub fn total_recorded() -> u64 {
    GLOBAL.get().map(Recorder::total_recorded).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_set_truncates_and_round_trips() {
        let w: Vec<f64> = (0..20).map(|i| i as f64 * 0.25).collect();
        let set = WeightSet::from_slice(&w);
        assert_eq!(set.len(), MAX_TRACKED_ALGORITHMS);
        assert_eq!(set.get(3), Some(0.75));
        assert_eq!(set.get(MAX_TRACKED_ALGORITHMS), None);
        let small = WeightSet::from_slice(&[0.5, 0.25]);
        assert_eq!(small.as_slice(), &[0.5, 0.25]);
    }

    #[test]
    fn labels_round_trip() {
        for st in [
            MeasureStatus::Ok,
            MeasureStatus::Failed,
            MeasureStatus::TimedOut,
        ] {
            assert_eq!(MeasureStatus::from_label(st.label()), Some(st));
        }
        for sp in [SpanKind::Search, SpanKind::Frame] {
            assert_eq!(SpanKind::from_label(sp.label()), Some(sp));
        }
    }

    #[test]
    fn recorder_records_and_drains() {
        let r = Recorder::new(8);
        r.record(EventKind::Iteration {
            iteration: 0,
            algorithm: 0,
            status: MeasureStatus::Ok,
            runtime_ms: 1.0,
            weights: WeightSet::empty(),
            traffic: None,
        });
        r.record(EventKind::QueueDepth {
            depth: 2,
            workers: 4,
        });
        let events = r.drain();
        assert_eq!(events.len(), 2);
        assert!(r.snapshot().is_empty());
        assert_eq!(r.total_recorded(), 0);
        let m = r.metrics();
        assert_eq!(m.iterations, 1);
        assert_eq!(m.max_queue_depth, 2);
    }
}
