//! The smallsort context dimension under the multi-site runtime:
//!
//! 1. **Bucketing properties** — `size_class` is total (every `n`,
//!    including 0 and `usize::MAX`, maps to exactly one class in range),
//!    stable (a pure function of `n`), monotone, and splits exactly at
//!    powers of two (`2^k` and `2^k + 1` land in adjacent classes).
//! 2. **Exact per-key call accounting under 8-thread stress** — like
//!    `tests/site_runtime.rs`, but across the whole [`SortSites`] context
//!    table: concurrent sort requests of mixed sizes *and mixed
//!    presortedness* must be counted exactly once at exactly the key
//!    their `(size class, presort class)` pair owns, with every completed
//!    call exactly one of a tuning iteration, a contended exploit or a
//!    call the key's tuning-rate controller backed off. The presort
//!    class is a pure function of the data, so the test regenerates the
//!    per-thread input streams afterward to replay the exact dispatch
//!    schedule.

use autotune::rng::Rng;
use autotune::two_phase::NominalKind;
use smallsort::{
    nearly_sorted_input, size_class, sort_request_keyed, SortKey, SortSites, MAX_CLASS_LOG2,
    MIN_CLASS_LOG2,
};

#[test]
fn size_class_is_total_and_in_range() {
    let mut rng = Rng::new(0x517E);
    let exhaustive = 0..=(1usize << 16);
    let random = (0..10_000).map(|_| rng.next_u64() as usize);
    for n in exhaustive.chain(random).chain([0, 1, usize::MAX]) {
        let c = size_class(n);
        assert!(
            (MIN_CLASS_LOG2..=MAX_CLASS_LOG2).contains(&c),
            "n={n} escaped the class range: {c}"
        );
    }
}

#[test]
fn size_class_is_stable_and_monotone() {
    let mut prev = size_class(0);
    for n in 1..=(1usize << 15) {
        let c = size_class(n);
        assert_eq!(c, size_class(n), "same n must always bucket identically");
        assert!(c >= prev, "bucketing must be monotone in n ({n})");
        assert!(c - prev <= 1, "no class may be skipped walking n upward");
        prev = c;
    }
}

#[test]
fn size_class_boundaries_land_in_adjacent_classes() {
    for k in MIN_CLASS_LOG2..MAX_CLASS_LOG2 {
        assert_eq!(size_class(1usize << k), k, "2^{k} caps class {k}");
        assert_eq!(
            size_class((1usize << k) + 1),
            k + 1,
            "2^{k}+1 opens class {}",
            k + 1
        );
    }
    // Everything past the top boundary shares the top class.
    assert_eq!(size_class((1usize << MAX_CLASS_LOG2) + 1), MAX_CLASS_LOG2);
    assert_eq!(size_class(usize::MAX), MAX_CLASS_LOG2);
}

/// One thread's deterministic input stream: mixed sizes (both boundary
/// shapes of every class), alternating random and nearly-sorted shapes.
/// A pure function of `(thread, iteration)`, so the accounting pass can
/// regenerate the exact same inputs — and therefore the exact same
/// [`SortKey`] schedule — the worker threads dispatched.
fn stress_input(sizes: &[usize], t: usize, i: usize) -> Vec<u64> {
    // Phase-shift per thread so threads collide on the same key often.
    let n = sizes[(i + t * 3) % sizes.len()];
    let mut rng = Rng::new(0x5EED_0000 + (t * 1_000 + i) as u64);
    if i.is_multiple_of(3) {
        nearly_sorted_input(n, &mut rng)
    } else {
        (0..n).map(|_| rng.next_u64()).collect()
    }
}

#[test]
fn stress_exact_per_key_accounting_across_eight_threads() {
    const THREADS: usize = 8;
    const ITERS: usize = 150;
    // A request size in every class, hitting both boundary shapes: the
    // class's cap 2^c and its opening size 2^(c-1) + 1.
    let sizes: Vec<usize> = (MIN_CLASS_LOG2..=MAX_CLASS_LOG2)
        .flat_map(|c| [1usize << c, (1usize << (c - 1)) + 1])
        .collect();
    let sites = SortSites::register("stress", NominalKind::EpsilonGreedy(0.10), 4242);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sizes = &sizes;
            let sites = &sites;
            scope.spawn(move || {
                for i in 0..ITERS {
                    let mut data = stress_input(sizes, t, i);
                    let want_key = SortKey::of(&data);
                    let (key, _ms) = sort_request_keyed(sites, &mut data);
                    assert_eq!(key, want_key);
                    assert_eq!(key.class, size_class(data.len()));
                    assert!(data.windows(2).all(|w| w[0] <= w[1]), "unsorted output");
                }
            });
        }
    });

    // Replay the input streams to rebuild the exact dispatch schedule
    // and hold every context key to it.
    let mut per_key = std::collections::HashMap::new();
    for t in 0..THREADS {
        for i in 0..ITERS {
            *per_key
                .entry(SortKey::of(&stress_input(&sizes, t, i)))
                .or_insert(0u64) += 1;
        }
    }
    assert!(
        per_key
            .keys()
            .map(|k| k.presort)
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1,
        "stress stream must exercise more than one presort class"
    );
    let mut total = 0;
    for (key, want) in &per_key {
        let stats = sites
            .table()
            .key_stats(key)
            .unwrap_or_else(|| panic!("key {key:?} was dispatched but never admitted"));
        assert_eq!(
            stats.calls, *want,
            "key {key:?} must count exactly its own dispatches"
        );
        let s = sites.key_site(*key);
        assert!(
            stats.tuned_iterations > 0,
            "key {key:?}: at least one tuning iteration ran"
        );
        assert_eq!(
            s.tuned_iterations() + s.contended() + s.backed_off(),
            s.calls(),
            "key {key:?}: every call is tuned, contended or backed off"
        );
        assert_eq!(
            stats.tuned_iterations,
            s.tuned_iterations(),
            "key {key:?}: per-key and site tuned counts agree"
        );
        s.with_tuner(|t| {
            assert_eq!(
                t.as_two_phase().unwrap().log().len() as u64,
                stats.tuned_iterations,
                "key {key:?}: tuner log must match the tuned-iteration count"
            );
        });
        total += stats.calls;
    }
    assert_eq!(
        total,
        (THREADS * ITERS) as u64,
        "no call lost or duplicated"
    );
    // Full-coverage table: every key stayed resident, nothing was evicted.
    assert_eq!(sites.table().stats().evictions, 0);
    assert_eq!(sites.table().resident_len(), per_key.len());
}
