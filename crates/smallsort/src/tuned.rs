//! Context-keyed, site-dispatched sorting: input size **and
//! presortedness** as context dimensions of the tuning problem.
//!
//! One tuner for "sorting" would learn a single global compromise — but
//! the whole point of this workload is that the winner *flips with the
//! input class*: insertion at n ≲ 64, comparison sorts in the middle,
//! radix at large integer n — and at a fixed size, a nearly-sorted input
//! favors adaptive variants while a random one favors radix. So every
//! request is described by a [`SortKey`] — its [`size_class`] (the
//! power-of-two ceiling of `n`, clamped to
//! `[2^MIN_CLASS_LOG2, 2^MAX_CLASS_LOG2]`) × its [`presort_class`]
//! (bucketed ascending-runs count) — and a [`SortSites`] table maps keys
//! to tuning sites through [`autotune::context::ContextSites`]. Every
//! key converges independently to its own winner; nothing about the
//! tuner itself changes — context is just more sites, allocated on
//! demand and warm-started from the nearest already-learned key.
//!
//! Measurement is the second novelty: a single small-array sort is cheaper
//! than a timer tick, so a tuning iteration times `k` back-to-back sorts
//! of copies of the same unsorted input and divides
//! ([`autotune::robust::batched_time_ms`]), while every other call pays
//! exactly one sort and the site guard's ordinary single-shot clock — see
//! [`sort_request`]. Most calls are such exploit calls: a key that won
//! its claim every time (single-threaded serving) still backs off once
//! its tuner has plateaued, so the batched measurement is paid only while
//! the key is still learning.

use crate::{heap, insertion, merge, pdq, radix};
use autotune::context::{ContextKey, ContextSites};
use autotune::param::{Parameter, Value};
use autotune::rng::Rng;
use autotune::robust::{batched_time_ms, MeasureOutcome};
use autotune::site::{Site, SiteSpec};
use autotune::space::{Configuration, Constraint, SearchSpace};
use autotune::two_phase::{AlgorithmSpec, NominalKind};
use std::cell::RefCell;

/// Names of the five sort variants, index-aligned with the algorithm
/// indices of every site built from [`sort_site_spec`] and with
/// [`sort_with`].
pub const ALGORITHM_NAMES: [&str; 5] = ["insertion", "heap", "merge", "introsort", "radix-lsd"];

/// Smallest size-class exponent: arrays of up to `2^MIN_CLASS_LOG2`
/// elements share the bottom class.
pub const MIN_CLASS_LOG2: u32 = 3;

/// Largest size-class exponent: arrays beyond `2^MAX_CLASS_LOG2` elements
/// share the top class.
pub const MAX_CLASS_LOG2: u32 = 14;

/// Number of size classes, and the number of sites a [`SortSites`] table
/// registers.
pub const NUM_CLASSES: usize = (MAX_CLASS_LOG2 - MIN_CLASS_LOG2 + 1) as usize;

/// The size class of an `n`-element sort request: the power-of-two ceiling
/// exponent `⌈log₂ n⌉`, clamped into
/// `[MIN_CLASS_LOG2, MAX_CLASS_LOG2]` = `[3, 14]`. Total (every `n`,
/// including 0, maps to exactly one class) and stable (a pure function of
/// `n`); boundary sizes `2^k` and `2^k + 1` land in adjacent classes `k`
/// and `k + 1`.
///
/// This table is the **canonical class → bucket reference** (EXPERIMENTS.md
/// links here rather than restating it):
///
/// | class | request sizes `n`  | | class | request sizes `n` |
/// |------:|--------------------|-|------:|-------------------|
/// |     3 | 0 – 8              | |     9 | 257 – 512         |
/// |     4 | 9 – 16             | |    10 | 513 – 1024        |
/// |     5 | 17 – 32            | |    11 | 1025 – 2048       |
/// |     6 | 33 – 64            | |    12 | 2049 – 4096       |
/// |     7 | 65 – 128           | |    13 | 4097 – 8192       |
/// |     8 | 129 – 256          | |    14 | 8193 and up       |
pub fn size_class(n: usize) -> u32 {
    let n = n.max(1) as u64;
    let ceil_log2 = if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    };
    ceil_log2.clamp(MIN_CLASS_LOG2, MAX_CLASS_LOG2)
}

/// Names of the three presortedness classes, index-aligned with
/// [`presort_class`].
pub const PRESORT_NAMES: [&str; 3] = ["nearly-sorted", "partial", "random"];

/// Number of presortedness classes.
pub const NUM_PRESORT_CLASSES: usize = PRESORT_NAMES.len();

/// Presort class of inputs produced by random key generation.
pub const PRESORT_RANDOM: u32 = 2;

/// Presort class of inputs produced by [`nearly_sorted_input`].
pub const PRESORT_NEARLY_SORTED: u32 = 0;

/// Number of ascending runs in `data`: maximal non-descending stretches
/// (1 for sorted or empty input, up to `n` for a descending one). The raw
/// presortedness feature, bucketed by [`presort_class`].
pub fn runs(data: &[u64]) -> usize {
    if data.is_empty() {
        return 1;
    }
    1 + data.windows(2).filter(|w| w[0] > w[1]).count()
}

/// The presortedness class of a sort request, bucketing [`runs`] relative
/// to the input length: `0` (nearly-sorted, runs ≤ max(1, n/16)), `1`
/// (partially sorted, runs ≤ max(2, n/4)) or `2` (random). Like
/// [`size_class`] it is total and a pure function of the data — tests can
/// regenerate an input stream and replay its exact dispatch schedule.
/// The scan stops once the runs pass max(2, n/4), so a random input is
/// classed after about half of it.
pub fn presort_class(data: &[u64]) -> u32 {
    let n = data.len();
    let partial = (n / 4).max(2);
    let mut r = 1;
    for w in data.windows(2) {
        if w[0] > w[1] {
            r += 1;
            if r > partial {
                return 2;
            }
        }
    }
    if r <= (n / 16).max(1) {
        0
    } else {
        1
    }
}

/// A sorted-ascending array of `n` random values with `n/32` random
/// adjacent swaps applied — guaranteed to land in presort class 0
/// (each adjacent swap adds at most one run, so
/// [`runs`] ≤ 1 + n/32 ≤ max(1, n/16)). The workload generator for the
/// nearly-sorted half of the `contexts` study and bench.
pub fn nearly_sorted_input(n: usize, rng: &mut Rng) -> Vec<u64> {
    let mut data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    data.sort_unstable();
    for _ in 0..n / 32 {
        let i = rng.pick_index(n - 1);
        if data[i] < data[i + 1] {
            data.swap(i, i + 1);
        }
    }
    data
}

/// The context key of a sort request: [`size_class`] × [`presort_class`].
/// The winner flips along both axes — insertion → introsort → radix with
/// growing size, and adaptive variants overtake radix on nearly-sorted
/// inputs at sizes where radix wins on random ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SortKey {
    /// The [`size_class`] bucket exponent.
    pub class: u32,
    /// The [`presort_class`] bucket.
    pub presort: u32,
}

impl SortKey {
    /// The key of a concrete input: `(size_class(len), presort_class)`.
    pub fn of(data: &[u64]) -> SortKey {
        SortKey {
            class: size_class(data.len()),
            presort: presort_class(data),
        }
    }

    /// A key from raw bucket indices (clamped into range).
    pub fn new(class: u32, presort: u32) -> SortKey {
        SortKey {
            class: class.clamp(MIN_CLASS_LOG2, MAX_CLASS_LOG2),
            presort: presort.min(NUM_PRESORT_CLASSES as u32 - 1),
        }
    }
}

impl ContextKey for SortKey {
    fn features(&self) -> Vec<i64> {
        vec![self.class as i64, self.presort as i64]
    }

    fn label(&self) -> String {
        format!(
            "c{:02}/{}",
            self.class, PRESORT_NAMES[self.presort as usize]
        )
    }
}

fn cutoff_space() -> SearchSpace {
    SearchSpace::new(vec![Parameter::interval("insertion_cutoff", 1, 64)])
}

fn radix_space() -> SearchSpace {
    SearchSpace::new(vec![Parameter::interval("chunk_bits", 1, 16)]).with_constraint(
        Constraint::new("pass-aligned", |c| {
            let bits = c.get(0).as_i64();
            (1..=16).contains(&bits) && 64 % bits == 0
        })
        .with_repair(|c| {
            let mut bits = c.get(0).as_i64().clamp(1, 16);
            while 64 % bits != 0 {
                bits -= 1;
            }
            Configuration::new(vec![Value::Int(bits)])
        }),
    )
}

/// Algorithm specs for the five sort variants, index-aligned with
/// [`ALGORITHM_NAMES`]. Insertion and heapsort expose no parameters; merge
/// and introsort tune their `insertion_cutoff ∈ [1, 64]`; radix tunes
/// `chunk_bits ∈ [1, 16]` under a `pass-aligned` constraint (the width
/// must divide 64, repaired by rounding down — only {1, 2, 4, 8, 16} are
/// feasible pass schedules).
pub fn sort_algorithm_specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::untunable(ALGORITHM_NAMES[0]),
        AlgorithmSpec::untunable(ALGORITHM_NAMES[1]),
        AlgorithmSpec::new(ALGORITHM_NAMES[2], cutoff_space()),
        AlgorithmSpec::new(ALGORITHM_NAMES[3], cutoff_space()),
        AlgorithmSpec::new(ALGORITHM_NAMES[4], radix_space()),
    ]
}

/// A site blueprint selecting over the five sort variants
/// ([`sort_algorithm_specs`]) — one of these per size class makes up a
/// [`SortSites`] table.
pub fn sort_site_spec(name: impl Into<String>, nominal: NominalKind, seed: u64) -> SiteSpec {
    SiteSpec::algorithms(name, sort_algorithm_specs(), nominal, seed)
}

thread_local! {
    /// The array each batched tuning run sorts; `data` itself keeps the
    /// unsorted input the runs restore from.
    static SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn cutoff_of(config: &Configuration) -> usize {
    config.get(0).as_i64().clamp(1, 64) as usize
}

fn chunk_bits_of(config: &Configuration) -> u32 {
    config.get(0).as_i64().clamp(1, 16) as u32
}

/// Run sort variant `algorithm` (an index into [`ALGORITHM_NAMES`]) on
/// `data` with its parameters drawn from `config`. Panics on an
/// out-of-range algorithm index.
pub fn sort_with(algorithm: usize, config: &Configuration, data: &mut [u64]) {
    match algorithm {
        0 => insertion::sort(data),
        1 => heap::sort(data),
        2 => merge::sort(data, cutoff_of(config)),
        3 => pdq::sort(data, cutoff_of(config)),
        4 => radix::sort(data, chunk_bits_of(config)),
        other => panic!(
            "smallsort has {} algorithms, got index {other}",
            ALGORITHM_NAMES.len()
        ),
    }
}

/// The context table of the sort workload: one tuning site per
/// [`SortKey`], allocated through [`autotune::context::ContextSites`].
///
/// [`SortSites::register`] sizes the table to cover the whole key space
/// (size classes × presort classes), so no binding is ever evicted and
/// the raw [`Site`] handles returned by [`SortSites::class_site`] /
/// [`SortSites::key_site`] stay stable — the configuration studies and
/// the serving loop rely on that. [`SortSites::register_bounded`]
/// exposes the LRU-bounded flavor for churn experiments.
#[derive(Debug)]
pub struct SortSites {
    table: ContextSites<SortKey>,
}

impl SortSites {
    /// Register a full-coverage table: capacity for every
    /// `size class × presort class` key, sites named `{prefix}/slotNN`
    /// and allocated lazily on first dispatch of each key. Each key's
    /// site selects over [`sort_algorithm_specs`] with the given phase-2
    /// strategy and a per-key seed derived from `seed`.
    pub fn register(prefix: &str, nominal: NominalKind, seed: u64) -> SortSites {
        Self::register_bounded(prefix, NUM_CLASSES * NUM_PRESORT_CLASSES, nominal, seed)
    }

    /// Register a table owning at most `capacity` concurrent sites —
    /// the LRU-bounded flavor ([`autotune::context`] module docs). With
    /// `capacity` below the live key count, raw site handles are only
    /// valid until the next eviction; prefer [`sort_request`] /
    /// [`SortSites::table`] accessors then.
    pub fn register_bounded(
        prefix: &str,
        capacity: usize,
        nominal: NominalKind,
        seed: u64,
    ) -> SortSites {
        SortSites {
            table: ContextSites::register(prefix, capacity, move |k: &SortKey| {
                sort_site_spec(
                    k.label(),
                    nominal,
                    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(((k.class as u64) << 2) | k.presort as u64),
                )
            }),
        }
    }

    /// Disable nearest-neighbor warm-starting (the cold baseline the
    /// `contexts` study compares against).
    pub fn without_warm_start(self) -> SortSites {
        SortSites {
            table: self.table.with_warm_start(false),
        }
    }

    /// The underlying context table, for stats and key enumeration.
    pub fn table(&self) -> &ContextSites<SortKey> {
        &self.table
    }

    /// The site owning `key`, admitted on demand.
    pub fn key_site(&self, key: SortKey) -> Site {
        self.table.resident_site(&key)
    }

    /// The site owning size class `class` (clamped into the class range)
    /// for **random** inputs — the presort axis' default bucket, and the
    /// per-class site of the pre-presortedness table layout.
    pub fn class_site(&self, class: u32) -> Site {
        self.key_site(SortKey::new(class, PRESORT_RANDOM))
    }

    /// The site an `n`-element random-input request dispatches to.
    pub fn site_for(&self, n: usize) -> Site {
        self.class_site(size_class(n))
    }

    /// Every class exponent, smallest first.
    pub fn classes() -> impl Iterator<Item = u32> {
        MIN_CLASS_LOG2..=MAX_CLASS_LOG2
    }
}

/// Sort `data` ascending through its context key's tuning site; the
/// serving entry point. Returns `(key, per_call_ms)`, where
/// `per_call_ms` is `NaN` for an untuned call the key's timing stride
/// left untimed.
///
/// The key ([`SortKey::of`]: size class × presortedness) is computed
/// from the data *before* sorting — one O(n) runs scan, the price of the
/// context dispatch. The key's site picks the variant and configuration.
/// A tuning iteration ([`ContextGuard::is_tuning`](autotune::context::ContextGuard::is_tuning))
/// needs a sample the tuner can rank by, and one small sort is cheaper
/// than a timer tick — so it is timed by [`batched_time_ms`]: `k`
/// back-to-back sorts of fresh copies of the *unsorted* input
/// (re-sorting the already-sorted output would hand insertion sort its
/// O(n) best case), divided by `k`. The copies go to a thread-local
/// scratch buffer that is reused across calls, so a tuned call allocates
/// only when its input outgrows every earlier one on its thread. The
/// per-batch memcpy restoring the input is inside the timed region; its
/// cost is identical across variants, a constant per-key offset that
/// cannot reorder them. Every other call — a contended one, or one the
/// key's tuning-rate controller backed off once the key plateaued — pays
/// exactly one sort, and the guard's single-shot clock only once per
/// timing stride (a sort of tens of ns is timed 1 call in up to 64);
/// those quantized samples feed the site's counters, never the tuner.
pub fn sort_request_keyed(sites: &SortSites, data: &mut [u64]) -> (SortKey, f64) {
    let key = SortKey::of(data);
    let guard = sites.table.dispatch(&key);
    let algorithm = guard.algorithm();
    if guard.is_tuning() {
        let config = guard.config();
        let ms = SCRATCH.with_borrow_mut(|scratch| {
            scratch.clear();
            scratch.extend_from_slice(data);
            let ms = batched_time_ms(|| {
                scratch.copy_from_slice(data);
                sort_with(algorithm, config, scratch);
            });
            data.copy_from_slice(scratch);
            ms
        });
        guard.post_outcome(MeasureOutcome::from_value(ms));
        (key, ms)
    } else {
        sort_with(algorithm, guard.config(), data);
        let ms = guard.post();
        (key, ms)
    }
}

/// [`sort_request_keyed`], reporting only the size class — the wire- and
/// study-facing shape predating the presortedness axis. The milliseconds
/// are `NaN` when the call went untimed.
pub fn sort_request(sites: &SortSites, data: &mut [u64]) -> (u32, f64) {
    let (key, ms) = sort_request_keyed(sites, data);
    (key.class, ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_boundaries_are_adjacent() {
        for k in MIN_CLASS_LOG2..MAX_CLASS_LOG2 {
            assert_eq!(size_class(1 << k), k, "2^{k} belongs to class {k}");
            assert_eq!(size_class((1 << k) + 1), k + 1, "2^{k}+1 spills over");
        }
        assert_eq!(size_class(0), MIN_CLASS_LOG2);
        assert_eq!(size_class(1), MIN_CLASS_LOG2);
        assert_eq!(size_class(usize::MAX), MAX_CLASS_LOG2);
    }

    #[test]
    fn specs_declare_the_pass_alignment_constraint() {
        let specs = sort_algorithm_specs();
        assert_eq!(specs.len(), ALGORITHM_NAMES.len());
        let radix = &specs[4];
        assert!(radix.space.is_constrained());
        for bits in 1..=16i64 {
            let feasible = radix
                .space
                .is_feasible(&Configuration::new(vec![Value::Int(bits)]));
            assert_eq!(feasible, 64 % bits == 0, "chunk_bits {bits}");
        }
        let repaired = radix
            .space
            .repair(&Configuration::new(vec![Value::Int(7)]))
            .expect("repairable");
        assert_eq!(repaired.get(0).as_i64(), 4);
    }

    #[test]
    fn sort_request_sorts_and_tunes_per_key() {
        let sites = SortSites::register("tuned-test", NominalKind::EpsilonGreedy(0.10), 23);
        let mut rng = autotune::rng::Rng::new(7);
        let mut expected: std::collections::HashMap<SortKey, u64> =
            std::collections::HashMap::new();
        for n in [5usize, 70, 300] {
            for round in 0..4 {
                let mut data: Vec<u64> = if round % 2 == 0 {
                    (0..n).map(|_| rng.next_u64()).collect()
                } else {
                    nearly_sorted_input(n, &mut rng)
                };
                let mut want = data.clone();
                let key = SortKey::of(&data);
                assert_eq!(key.class, size_class(n));
                let (got_key, ms) = sort_request_keyed(&sites, &mut data);
                want.sort_unstable();
                assert_eq!(data, want);
                assert_eq!(got_key, key);
                assert!(ms >= 0.0);
                *expected.entry(key).or_insert(0) += 1;
            }
        }
        for (key, count) in expected {
            assert_eq!(
                sites.table().key_stats(&key).unwrap().calls,
                count,
                "exact per-key accounting for {key:?}"
            );
        }
    }

    #[test]
    fn runs_counts_ascending_stretches() {
        assert_eq!(runs(&[]), 1);
        assert_eq!(runs(&[5]), 1);
        assert_eq!(runs(&[1, 2, 3]), 1);
        assert_eq!(runs(&[1, 1, 2]), 1); // non-descending, not strict
        assert_eq!(runs(&[3, 2, 1]), 3);
        assert_eq!(runs(&[1, 3, 2, 4]), 2);
    }

    #[test]
    fn presort_class_buckets_by_relative_runs() {
        let sorted: Vec<u64> = (0..256).collect();
        assert_eq!(presort_class(&sorted), PRESORT_NEARLY_SORTED);
        let descending: Vec<u64> = (0..256).rev().collect();
        assert_eq!(presort_class(&descending), PRESORT_RANDOM);
        // 256 elements, 32 runs: above n/16 = 16, at or below n/4 = 64.
        let sawtooth: Vec<u64> = (0..256u64).map(|i| (i % 8) * 1000 + i / 8).collect();
        assert!(matches!(presort_class(&sawtooth), 1));
    }

    #[test]
    fn nearly_sorted_input_lands_in_class_zero() {
        let mut rng = autotune::rng::Rng::new(99);
        for n in [2usize, 8, 31, 32, 100, 1000, 5000] {
            let data = nearly_sorted_input(n, &mut rng);
            assert_eq!(data.len(), n);
            assert_eq!(
                presort_class(&data),
                PRESORT_NEARLY_SORTED,
                "n = {n}, runs = {}",
                runs(&data)
            );
        }
    }

    #[test]
    fn sort_key_features_and_distance() {
        let a = SortKey::new(5, PRESORT_RANDOM);
        let b = SortKey::new(8, PRESORT_NEARLY_SORTED);
        assert_eq!(a.features(), vec![5, 2]);
        assert_eq!(a.distance(&b), 5); // |5-8| + |2-0|
        assert_eq!(a.label(), "c05/random");
        assert_eq!(b.label(), "c08/nearly-sorted");
        // Out-of-range inputs clamp.
        assert_eq!(SortKey::new(0, 9), SortKey::new(MIN_CLASS_LOG2, 2));
    }
}
