//! Two threads on one plateaued site. Each thread counts its calls in
//! cells only it writes and serves untuned calls from a back-off
//! countdown of its own (DESIGN.md §12), so:
//!
//! * the site's counts are exact for a thread reading them right after
//!   its own calls, for both threads once they meet at a barrier (no
//!   join), and at quiescence;
//! * each thread tunes about once per 64 of its own calls, so the tuned
//!   calls of both stay within 1/128–1/32 of all calls;
//! * `tuned_iterations()` never underflows under a racing reader;
//! * after a restart, each thread's next call tunes.

use autotune::robust::MeasureOutcome;
use autotune::site::{register, site, Site, SiteSpec};
use autotune::two_phase::{AlgorithmSpec, NominalKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// One call; a tuning call reports a constant per-algorithm cost, so the
/// site plateaus. Returns whether the call tuned.
fn call(s: Site) -> bool {
    let g = s.pre();
    let tuning = g.is_tuning();
    if tuning {
        let ms = [1e-3, 2e-3][g.algorithm()];
        g.post_outcome(MeasureOutcome::Ok(ms));
    } else {
        g.post();
    }
    tuning
}

/// `calls` calls, each tuned, contended or backed off, and a tuner that
/// ran `tuner_iterations` of them.
fn assert_accounted(s: Site, calls: u64, tuner_iterations: u64) {
    assert_eq!(s.calls(), calls);
    assert_eq!(s.tuned_iterations() + s.contended() + s.backed_off(), calls);
    s.with_tuner(|t| {
        assert_eq!(
            t.as_two_phase().unwrap().iterations() as u64,
            tuner_iterations
        );
    });
}

#[test]
fn two_threads_on_a_plateaued_site_count_exactly_and_back_off_on_their_own() {
    const SOLO: u64 = 100;
    const CONCURRENT: u64 = 64_000;
    let s = site(register(SiteSpec::algorithms(
        "plateaued/two-threads",
        vec![AlgorithmSpec::untunable("a"), AlgorithmSpec::untunable("b")],
        NominalKind::EpsilonGreedy(0.10),
        3,
    )));
    // 38 stagnant tuned iterations reach the widest gap.
    for _ in 0..5_000 {
        call(s);
    }
    assert!(s.backed_off() > 0, "the site plateaued");
    let warm = s.calls();

    let barrier = Barrier::new(2);
    let racing = AtomicBool::new(true);
    let tuned_concurrently: u64 = std::thread::scope(|scope| {
        // A reader racing both threads: every read of the tuned count
        // stays below a later read of the call count.
        let reader = scope.spawn(|| {
            let mut reads = 0u64;
            while racing.load(Ordering::Relaxed) {
                let tuned = s.tuned_iterations();
                assert!(
                    tuned <= s.calls(),
                    "tuned_iterations() underflowed: {tuned}"
                );
                reads += 1;
            }
            reads
        });
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    // In turn, each thread alone: the count includes each
                    // of its calls the moment it returns.
                    for turn in 0..2 {
                        if turn == t {
                            let base = s.calls();
                            for i in 1..=SOLO {
                                call(s);
                                assert_eq!(s.calls(), base + i, "thread {t}, solo call {i}");
                            }
                        }
                        barrier.wait();
                    }
                    // Both at once, then exact once both have finished.
                    let tuned = (0..CONCURRENT).filter(|_| call(s)).count() as u64;
                    barrier.wait();
                    assert_accounted(s, warm + 2 * SOLO + 2 * CONCURRENT, s.tuned_iterations());
                    barrier.wait();
                    // A restart voids both countdowns: each thread's next
                    // call tunes.
                    if t == 0 {
                        s.restart();
                    }
                    for turn in 0..2 {
                        barrier.wait();
                        if turn == t {
                            assert!(call(s), "thread {t}'s first call after a restart");
                        }
                    }
                    tuned
                })
            })
            .collect();
        let tuned = workers.into_iter().map(|w| w.join().unwrap()).sum();
        racing.store(false, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0);
        tuned
    });

    // Each thread tunes about once per 64 of its own calls.
    let all = 2 * CONCURRENT;
    assert!(
        (all / 128..=all / 32).contains(&tuned_concurrently),
        "{tuned_concurrently} of {all} concurrent calls tuned"
    );
    // Quiescent: the threads are gone, their counts are not. The
    // rebuilt tuner ran the two calls after the restart.
    assert_accounted(s, warm + 2 * SOLO + 2 * CONCURRENT + 2, 2);
}
