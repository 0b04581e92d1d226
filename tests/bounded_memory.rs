//! Bounded memory: a tuner remembers only what its decisions read — the
//! latest window of values per algorithm, plus best, worst and count — so
//! an always-on tuner's heap does not grow with its call count. Each leg
//! warms up until every buffer has reached its working size, then asserts
//! that the live heap grows by at most [`BOUND`] bytes over a run long
//! enough that one stored sample per tuned iteration would exceed it many
//! times over:
//!
//! * a direct three-algorithm tuner under ε-Greedy, Gradient Weighted and
//!   Sliding-Window AUC;
//! * one plateaued site over ten million calls, tuned and backed off;
//! * a 2-slot context table cycling through 4 keys, so every dispatch
//!   parks one key's tuner and reinstates another's.
//!
//! The global allocator below counts live heap bytes (allocated minus
//! freed) per thread, because the tests of one binary run on parallel
//! threads.

use autotune::context::{ContextKey, ContextSites};
use autotune::param::Parameter;
use autotune::robust::MeasureOutcome;
use autotune::site::{register, site, Site, SiteSpec};
use autotune::space::{Configuration, SearchSpace};
use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live-heap growth a leg may show after its warm-up, whatever its length.
const BOUND: i64 = 64 * 1024;

struct CountingAlloc;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes the current thread has allocated and not yet freed.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Run `step` `n` times after a baseline taken now; returns the largest
/// live-heap growth seen at any of ten evenly spaced checkpoints.
fn peak_growth(n: usize, mut step: impl FnMut()) -> i64 {
    let baseline = live_bytes();
    let mut peak = i64::MIN;
    for chunk in 0..10 {
        for _ in chunk * n / 10..(chunk + 1) * n / 10 {
            step();
        }
        peak = peak.max(live_bytes() - baseline);
    }
    peak
}

/// Three algorithms; "tiled" has a two-parameter space.
fn specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::untunable("plain"),
        AlgorithmSpec::new(
            "tiled",
            SearchSpace::new(vec![
                Parameter::ratio("tile", 1, 64),
                Parameter::interval("unroll", 0, 8),
            ]),
        ),
        AlgorithmSpec::new(
            "blocked",
            SearchSpace::new(vec![Parameter::interval("block", 1, 32)]),
        ),
    ]
}

/// Deterministic cost in ms: "tiled" is fastest near tile 24, unroll 4.
fn cost(algorithm: usize, config: &Configuration) -> f64 {
    let shape: f64 = config
        .values()
        .iter()
        .zip([24.0, 4.0])
        .map(|(v, best)| (v.as_f64() - best).abs() * 1e-4)
        .sum();
    [2e-3, 1e-3, 1.5e-3][algorithm] + shape
}

#[test]
fn a_direct_tuner_stays_flat_under_every_strategy() {
    const WARM_UP: usize = 20_000;
    const ITERATIONS: usize = 200_000;
    let growths: Vec<(String, i64)> = [
        NominalKind::EpsilonGreedy(0.10),
        NominalKind::GradientWeighted(16),
        NominalKind::SlidingWindowAuc(16),
    ]
    .into_iter()
    .map(|kind| {
        let mut tuner = TwoPhaseTuner::new(specs(), kind, 7);
        for _ in 0..WARM_UP {
            tuner.step(cost);
        }
        let growth = peak_growth(ITERATIONS, || {
            tuner.step(cost);
        });
        (tuner.strategy_name(), growth)
    })
    .collect();
    assert!(
        growths.iter().all(|&(_, growth)| growth <= BOUND),
        "live heap growth in bytes over {ITERATIONS} iterations: {growths:?}"
    );
}

/// One call through `s`: a tuning call reports [`cost`], an untuned call
/// runs the published decision.
fn call(s: Site) {
    let g = s.pre();
    if g.is_tuning() {
        let ms = cost(g.algorithm(), g.config());
        g.post_outcome(MeasureOutcome::Ok(ms));
    } else {
        std::hint::black_box(g.config());
        g.post();
    }
}

#[test]
fn a_plateaued_site_stays_flat_over_ten_million_calls() {
    const WARM_UP: usize = 200_000;
    const CALLS: usize = 10_000_000;
    let s = site(register(SiteSpec::algorithms(
        "bounded/site",
        specs(),
        NominalKind::EpsilonGreedy(0.10),
        11,
    )));
    for _ in 0..WARM_UP {
        call(s);
    }
    let tuned_before = s.tuned_iterations();
    let growth = peak_growth(CALLS, || call(s));
    let tuned = s.tuned_iterations() - tuned_before;
    assert!(
        s.backed_off() > 0 && tuned > 100_000,
        "{tuned} tuned iterations"
    );
    assert!(
        growth <= BOUND,
        "live heap grew {growth} B over {CALLS} calls, {tuned} of them tuned ({:.1} B each)",
        growth as f64 / tuned as f64
    );
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key(i64);

impl ContextKey for Key {
    fn features(&self) -> Vec<i64> {
        vec![self.0]
    }
    fn label(&self) -> String {
        format!("k{}", self.0)
    }
}

#[test]
fn parking_and_reinstating_tuners_stays_flat() {
    const KEYS: i64 = 4;
    const WARM_UP: usize = 4_000;
    const DISPATCHES: usize = 400_000;
    let table = ContextSites::register("bounded/ctx", 2, |k: &Key| {
        SiteSpec::algorithms(
            format!("bounded/ctx/{}", k.label()),
            specs(),
            NominalKind::SlidingWindowAuc(16),
            0xB0 ^ k.0 as u64,
        )
    });
    let mut next = 0;
    let mut dispatch = || {
        let key = Key(next % KEYS);
        next += 1;
        let g = table.dispatch(&key);
        let ms = cost(g.algorithm(), g.config()) * (1.0 + key.0 as f64 / 8.0);
        g.post_outcome(MeasureOutcome::Ok(ms));
    };
    for _ in 0..WARM_UP {
        dispatch();
    }
    let tuned = |table: &ContextSites<Key>| -> u64 {
        (0..KEYS)
            .filter_map(|k| table.key_stats(&Key(k)))
            .map(|s| s.tuned_iterations)
            .sum()
    };
    let (reinstated_before, tuned_before) = (table.stats().reinstatements, tuned(&table));
    let growth = peak_growth(DISPATCHES, &mut dispatch);
    assert_eq!(
        table.stats().reinstatements - reinstated_before,
        DISPATCHES as u64,
        "every dispatch reinstates a parked tuner"
    );
    let tuned = tuned(&table) - tuned_before;
    assert!(tuned > 1_000, "{tuned} tuned iterations");
    assert!(
        growth <= BOUND,
        "live heap grew {growth} B over {DISPATCHES} dispatches, {tuned} of them tuned \
         ({:.1} B per tuned iteration)",
        growth as f64 / tuned as f64
    );
}
