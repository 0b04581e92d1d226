//! The converged call: once a site has plateaued, almost every call is
//! untuned — backed off by the tuning-rate controller, or contended
//! because another thread holds the claim. Such a call must not allocate,
//! and the site times it only once per timing stride: often enough for a
//! µs-scale kernel's drift monitor to see every call, rarely enough that
//! a ns-scale kernel does not pay for clock reads nobody needs.
//!
//! The global allocator below counts allocations per thread, because the
//! tests of one binary run on parallel threads.

use autotune::drift::{observe_and_restart, DriftConfig, DriftMonitor, Verdict};
use autotune::param::Parameter;
use autotune::robust::MeasureOutcome;
use autotune::site::{register, site, Site, SiteSpec};
use autotune::space::SearchSpace;
use autotune::telemetry::{self, EventKind, Traffic, NO_SITE};
use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the current thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A site whose exploit algorithm, "tiled", has two parameters: fed
/// constant costs, it plateaus onto "tiled" and backs off to one tuning
/// call in 64.
fn two_parameter_site(name: &str, seed: u64) -> Site {
    let tiled = SearchSpace::new(vec![
        Parameter::ratio("tile", 1, 64),
        Parameter::interval("unroll", 0, 8),
    ]);
    site(register(SiteSpec::algorithms(
        name,
        vec![
            AlgorithmSpec::new("tiled", tiled),
            AlgorithmSpec::untunable("plain"),
        ],
        NominalKind::EpsilonGreedy(0.10),
        seed,
    )))
}

/// Cost fed to the tuner for `algorithm`: "tiled" is 10 ns, "plain" 1 µs.
fn cost_ms(algorithm: usize) -> f64 {
    [1e-5, 1e-3][algorithm]
}

/// One call through `s`; tuning calls report [`cost_ms`]. Returns whether
/// the call tuned and the allocations it made.
fn call(s: Site) -> (bool, u64) {
    let before = allocations();
    let g = s.pre();
    let tuning = g.is_tuning();
    if tuning {
        let ms = cost_ms(g.algorithm());
        g.post_outcome(MeasureOutcome::Ok(ms));
    } else {
        assert_eq!(
            g.config().len(),
            2,
            "the exploit algorithm has two parameters"
        );
        std::hint::black_box(g.config());
        g.post();
    }
    (tuning, allocations() - before)
}

/// After warm-up, 10,000 backed-off calls and 1,000 contended calls
/// through a fresh site allocate nothing. Returns the site.
fn converged_calls_allocate_nothing(name: &str, seed: u64) -> Site {
    let s = two_parameter_site(name, seed);
    for _ in 0..20_000 {
        call(s);
    }
    assert_eq!(
        s.timing_stride(),
        64,
        "a 10 ns incumbent is timed 1 call in 64"
    );

    let mut backed_off = 0;
    while backed_off < 10_000 {
        let (tuning, allocated) = call(s);
        if !tuning {
            assert_eq!(allocated, 0, "backed-off call {backed_off} allocated");
            backed_off += 1;
        }
    }

    // Hold the claim with a tuning call, then call from another thread:
    // every one of those calls is contended.
    let holder = loop {
        let g = s.pre();
        if g.is_tuning() {
            break g;
        }
        g.post();
    };
    let contended_before = s.contended();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..10 {
                call(s);
            }
            for i in 0..1_000 {
                let (tuning, allocated) = call(s);
                assert!(!tuning, "the claim is held elsewhere");
                assert_eq!(allocated, 0, "contended call {i} allocated");
            }
        });
    });
    assert_eq!(s.contended() - contended_before, 1_010);
    let ms = cost_ms(holder.algorithm());
    holder.post_outcome(MeasureOutcome::Ok(ms));
    s
}

#[test]
fn untuned_calls_allocate_nothing_with_telemetry_off_and_on() {
    converged_calls_allocate_nothing("converged/alloc-off", 1);

    telemetry::enable();
    let s = converged_calls_allocate_nothing("converged/alloc-on", 2);
    // The site's trace is one iteration record per tuned iteration, in
    // order, each with the site's traffic, and no other event: a
    // successful untuned call pushes none.
    let tag = s.id().tag();
    let events: Vec<_> = telemetry::snapshot()
        .into_iter()
        .filter(|e| e.site == tag)
        .collect();
    assert_eq!(events.len() as u64, s.tuned_iterations());
    for (i, e) in events.iter().enumerate() {
        let EventKind::Iteration {
            iteration,
            traffic:
                Some(Traffic {
                    calls,
                    backed_off,
                    contended,
                    timed,
                }),
            ..
        } = e.kind
        else {
            panic!("event {i} is not a site's iteration record: {e:?}");
        };
        assert_eq!(iteration, i as u64);
        assert!(timed <= backed_off + contended && backed_off + contended <= calls);
    }
    assert!(s.timed() <= s.contended() + s.backed_off());

    a_direct_tuner_traces_one_record_per_step();
}

/// A direct tuner's `N` steps trace `N` records numbered `0..N`, without
/// site or traffic, each with the weights phase 2 selected by: under
/// ε-Greedy, `1 − ε + ε/|𝒜|` on the exploitation target at selection
/// (the next unseen algorithm, then the best-known one) and `ε/|𝒜|` on
/// the others. Weights taken after the sample was recorded would move
/// the target on every initialization step.
fn a_direct_tuner_traces_one_record_per_step() {
    const EPSILON: f64 = 0.10;
    const STEPS: u64 = 200;
    // A context id no table of this binary assigns marks the records.
    const CONTEXT: u32 = 0xD1_EC7;
    let specs = ["slow", "fast", "mid"]
        .iter()
        .map(|name| AlgorithmSpec::untunable(*name))
        .collect();
    let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(EPSILON), 5);
    let targets: Vec<usize> = telemetry::with_context(CONTEXT, || {
        (0..STEPS)
            .map(|_| {
                let counts = tuner.selection_counts();
                let unseen = counts.iter().position(|&c| c == 0);
                let target = unseen.or(tuner.best_algorithm()).unwrap();
                tuner.step(|a, _| [3.0, 1.0, 2.0][a]);
                target
            })
            .collect()
    });
    let records: Vec<_> = telemetry::snapshot()
        .into_iter()
        .filter(|e| e.context == CONTEXT)
        .collect();
    assert_eq!(records.len() as u64, STEPS);
    let explore = EPSILON / 3.0;
    for (i, (e, &target)) in records.iter().zip(&targets).enumerate() {
        let EventKind::Iteration {
            iteration,
            weights,
            traffic,
            ..
        } = e.kind
        else {
            panic!("event {i} is not an iteration record: {e:?}");
        };
        assert_eq!((e.site, iteration, traffic), (NO_SITE, i as u64, None));
        let expected: Vec<f32> = (0..3)
            .map(|a| {
                let exploit = if a == target { 1.0 - EPSILON } else { 0.0 };
                (explore + exploit) as f32
            })
            .collect();
        assert_eq!(weights.as_slice(), expected, "iteration {i}");
    }
}

/// A body of roughly 50 ns.
fn fifty_ns_kernel() {
    let mut x = 1u64;
    for i in 0..40 {
        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
    }
    std::hint::black_box(x);
}

#[test]
fn a_fifty_ns_site_times_exactly_every_kth_untuned_call() {
    let s = site(register(SiteSpec::algorithms(
        "converged/stride",
        vec![AlgorithmSpec::untunable("a"), AlgorithmSpec::untunable("b")],
        NominalKind::EpsilonGreedy(0.10),
        7,
    )));
    let (mut tuned, mut untuned, mut timed) = (0u64, 0u64, 0u64);
    for _ in 0..30_000 {
        let k = u64::from(s.timing_stride());
        let completed_untuned = s.contended() + s.backed_off();
        let g = s.pre();
        let tuning = g.is_tuning();
        fifty_ns_kernel();
        let ms = g.post();
        if tuning {
            assert!(ms.is_finite(), "every tuned call is timed");
            tuned += 1;
        } else {
            let expect_timed = completed_untuned.is_multiple_of(k);
            assert_eq!(
                !ms.is_nan(),
                expect_timed,
                "untuned call {completed_untuned}, k = {k}"
            );
            untuned += 1;
            timed += u64::from(expect_timed);
        }
    }
    let k = s.timing_stride();
    assert!(
        k > 1,
        "a ~50 ns incumbent is not worth a clock pair per call"
    );
    assert!(k.is_power_of_two() && k <= 64);
    assert_eq!(s.tuned_iterations(), tuned);
    assert_eq!(s.contended() + s.backed_off(), untuned);
    assert_eq!(s.timed(), timed);
    assert!(timed > 0 && timed < untuned);
    let p50 = s.untuned_quantile_ms(0.5);
    assert!(p50 > 0.0 && p50 < 1.0, "{p50}");
}

fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[test]
fn a_microsecond_site_is_timed_on_every_call_and_drift_is_caught_as_before() {
    let s = site(register(SiteSpec::algorithms(
        "converged/drift",
        vec![AlgorithmSpec::untunable("a"), AlgorithmSpec::untunable("b")],
        NominalKind::EpsilonGreedy(0.10),
        11,
    )));
    // The site's monitor is fed what `post()` returns. The reference
    // monitor is fed the call's own span, what the site reported for
    // every call before untuned calls had a stride: both must see the
    // 4× regression at the same request.
    let mut monitor = DriftMonitor::new(DriftConfig::default());
    let mut reference = DriftMonitor::new(DriftConfig::default());
    let (base, step_at) = (Duration::from_micros(10), 600);
    let mut detected = None;
    let mut reference_detected = None;
    for i in 0..step_at + 400 {
        let work = if i < step_at { base } else { 4 * base };
        let t0 = Instant::now();
        let g = s.pre();
        spin(work);
        let ms = g.post();
        let span_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            ms.is_finite(),
            "call {i} went untimed at stride {}",
            s.timing_stride()
        );
        if i == step_at {
            assert_eq!(
                s.timing_stride(),
                1,
                "a 10 µs incumbent is timed on every call"
            );
            assert!(s.backed_off() > 0, "the site has converged before the step");
        }
        if observe_and_restart(s, &mut monitor, ms) && detected.is_none() {
            detected = Some(i);
        }
        if reference_detected.is_none() && reference.observe(span_ms) == Verdict::Drifted {
            reference_detected = Some(i);
        }
        if detected.is_some() && reference_detected.is_some() {
            break;
        }
    }
    let detected = detected.expect("the 4x regression is detected");
    assert!(detected >= step_at, "no false alarm before the step");
    assert_eq!(Some(detected), reference_detected);
}

#[test]
fn at_the_widest_gap_backed_off_calls_of_sites_called_in_turn_still_get_timed() {
    // Two ~1 ns sites, one thread calling them in turn. At the 64-call
    // gap only 63 of 64 calls are untuned; the stride counts those, so
    // with k = 64 the timed calls walk through the gap instead of
    // landing on the tuning calls every time.
    let make = |name: &str, seed| {
        site(register(SiteSpec::algorithms(
            name,
            vec![AlgorithmSpec::untunable("a"), AlgorithmSpec::untunable("b")],
            NominalKind::EpsilonGreedy(0.10),
            seed,
        )))
    };
    let sites = [make("converged/turn-a", 13), make("converged/turn-b", 17)];
    let mut timed = [0u64; 2];
    for _ in 0..64 * 64 * 4 {
        for (s, timed) in sites.iter().zip(&mut timed) {
            let g = s.pre();
            if g.is_tuning() {
                g.post_outcome(MeasureOutcome::Ok(1e-6));
            } else {
                *timed += u64::from(!g.post().is_nan());
            }
        }
    }
    for (s, timed) in sites.iter().zip(timed) {
        assert_eq!(s.timing_stride(), 64);
        let untuned = s.contended() + s.backed_off();
        // 38 tuned calls reach the 64-call gap; the rest are 1 in 64.
        assert!(
            s.tuned_iterations() * 50 < s.calls(),
            "the site reached the widest gap: {s:?}"
        );
        assert!(timed > 0, "backed-off calls got timed samples: {s:?}");
        assert_eq!(s.timed(), timed);
        assert_eq!(timed, untuned.div_ceil(64), "one untuned call in 64: {s:?}");
    }
}
