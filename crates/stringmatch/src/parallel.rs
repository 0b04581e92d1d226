//! Parallel string matching by text partitioning.
//!
//! "The parallelization of the algorithms is based around partitioning the
//! input text. In all algorithms, each partition is processed by one
//! thread." Partitions overlap by `m − 1` bytes so occurrences spanning a
//! boundary are seen by exactly one thread: each thread reports only
//! occurrences *starting* inside its own partition.
//!
//! Partitions are dispatched onto the shared persistent executor
//! ([`autotune::pool::Pool`]) — the Rust analogue of the original
//! `#pragma omp parallel for` over partitions, but without per-call thread
//! spawn latency polluting the tuner's measurements. The thread count is an
//! explicit argument because, unlike in a fixed-size OpenMP pool, the
//! autotuner treats it as a ratio-class tuning parameter: it caps how many
//! workers participate in this one dispatch.

use autotune::pool::Pool;
use autotune::robust::time_ms;
use autotune::robust::{robust_call, MeasureOutcome, RobustOptions};
use std::cell::Cell;

use crate::Matcher;

/// A [`Matcher`] run in parallel over text partitions.
pub struct ParallelMatcher<'a> {
    inner: &'a dyn Matcher,
    threads: usize,
}

impl<'a> ParallelMatcher<'a> {
    /// Wrap `inner` to search with `threads` partitions. `threads == 1` is
    /// the sequential algorithm.
    pub fn new(inner: &'a dyn Matcher, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        ParallelMatcher { inner, threads }
    }

    /// The number of partitions/threads used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Search all partitions and merge the sorted results.
    pub fn find_all(&self, pattern: &[u8], text: &[u8]) -> Vec<usize> {
        let m = pattern.len();
        let n = text.len();
        if m == 0 || m > n {
            return Vec::new();
        }
        let threads = self.threads.min(n); // never more partitions than bytes
        if threads <= 1 {
            return self.inner.find_all(pattern, text);
        }

        // Partition boundaries: partition i owns starts in [lo_i, hi_i) and
        // searches the slice [lo_i, min(hi_i + m - 1, n)). Partitions are
        // claimed dynamically from the shared pool; `par_map` keys results
        // by partition index, so the merge below is deterministic and
        // sorted no matter which worker finished first.
        let chunk = n.div_ceil(threads);
        let parts = n.div_ceil(chunk);
        let inner = self.inner;
        let results = Pool::global().par_map(threads, parts, &|i| {
            let lo = i * chunk;
            let hi = ((i + 1) * chunk).min(n);
            let end = (hi + m - 1).min(n);
            let mut hits = inner.find_all(pattern, &text[lo..end]);
            // Keep only occurrences starting inside [lo, hi); the overlap
            // tail belongs to the next partition.
            hits.retain(|&p| lo + p < hi);
            for p in &mut hits {
                *p += lo;
            }
            hits
        });
        // Partitions are disjoint in start positions, individually sorted,
        // and merged in partition order.
        results.concat()
    }

    /// Count occurrences.
    pub fn count(&self, pattern: &[u8], text: &[u8]) -> usize {
        self.find_all(pattern, text).len()
    }

    /// The tuning loop's measurement entry point: time one full search
    /// (precomputation + parallel match) under the robust pipeline. A
    /// matcher that panics yields [`MeasureOutcome::Failed`] instead of
    /// tearing down the tuner; when `require_match` is set, finding zero
    /// occurrences of a pattern known to be present is likewise classified
    /// as a failed measurement (a broken matcher must not record a
    /// flattering runtime).
    pub fn measure_search(
        &self,
        pattern: &[u8],
        text: &[u8],
        require_match: bool,
        opts: &RobustOptions,
    ) -> MeasureOutcome {
        use autotune::telemetry::{self, EventKind, SpanKind};
        telemetry::emit(|| EventKind::SpanBegin {
            span: SpanKind::Search,
        });
        let hits_found = Cell::new(usize::MAX);
        let outcome = robust_call(opts, || {
            let (hits, ms) = time_ms(|| self.find_all(pattern, text));
            hits_found.set(hits.len());
            ms
        });
        telemetry::emit(|| EventKind::SpanEnd {
            span: SpanKind::Search,
        });
        match outcome {
            MeasureOutcome::Ok(_) if require_match && hits_found.get() == 0 => {
                MeasureOutcome::Failed(format!("{}: pattern not found", self.inner.name()))
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, BoyerMoore, Ebom, Fsbndm, Hash3, Hybrid, Kmp, ShiftOr, Ssef};

    fn text() -> Vec<u8> {
        // Periodic-ish English with boundary-straddling occurrences.
        let mut t = Vec::new();
        for i in 0..400 {
            t.extend_from_slice(b"and the spirit moved ");
            if i % 37 == 0 {
                t.extend_from_slice(b"the spirit to a great and high mountain ");
            }
        }
        t
    }

    #[test]
    fn all_algorithms_match_naive_across_thread_counts() {
        let text = text();
        let pattern = crate::PAPER_QUERY;
        let expected = naive::find_all(pattern, &text);
        assert!(!expected.is_empty());
        let matchers: Vec<Box<dyn Matcher>> = vec![
            Box::new(BoyerMoore),
            Box::new(Ebom),
            Box::new(Fsbndm),
            Box::new(Hash3),
            Box::new(Hybrid),
            Box::new(Kmp),
            Box::new(ShiftOr),
            Box::new(Ssef),
        ];
        for m in &matchers {
            for threads in [1, 2, 3, 4, 8] {
                let pm = ParallelMatcher::new(m.as_ref(), threads);
                assert_eq!(
                    pm.find_all(pattern, &text),
                    expected,
                    "{} with {threads} threads",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn boundary_straddling_occurrence_found_exactly_once() {
        // Place an occurrence exactly across a 2-partition boundary.
        let pattern = b"BOUNDARY";
        let n = 1000;
        let mut text = vec![b'.'; n];
        let mid = n / 2;
        text[mid - 4..mid + 4].copy_from_slice(pattern);
        let pm = ParallelMatcher::new(&Kmp, 2);
        assert_eq!(pm.find_all(pattern, &text), vec![mid - 4]);
    }

    #[test]
    fn occurrence_at_partition_start_not_duplicated() {
        let pattern = b"xx";
        // chunk boundary at 5 with 2 threads over 10 bytes
        let text = b"....xx....";
        for threads in [1, 2, 5, 10] {
            let pm = ParallelMatcher::new(&Kmp, threads);
            assert_eq!(pm.find_all(pattern, text), vec![4], "threads={threads}");
        }
    }

    #[test]
    fn overlap_tail_spanning_multiple_partition_boundaries() {
        // Regression guard: with tiny partitions and a long pattern,
        // m − 1 ≥ chunk, so the overlap tail of each partition covers more
        // than one partition boundary. Every occurrence must still be
        // reported exactly once, by the partition owning its start.
        let pattern = b"aabaaabaa"; // m = 9, self-overlapping
        let mut text = Vec::new();
        for _ in 0..13 {
            text.extend_from_slice(b"aabaaabaaab"); // dense occurrences
        }
        let expected = naive::find_all(pattern, &text);
        assert!(!expected.is_empty());
        for threads in [1, 2, 3, 7, 16, 40, text.len()] {
            let chunk = text.len().div_ceil(threads.min(text.len()));
            let pm = ParallelMatcher::new(&Kmp, threads);
            assert_eq!(
                pm.find_all(pattern, &text),
                expected,
                "threads={threads} chunk={chunk} (m-1={})",
                pattern.len() - 1
            );
        }
        // The interesting cases above include chunk < m - 1; make sure the
        // loop really exercised one.
        assert!(text.len().div_ceil(40) < pattern.len() - 1);
    }

    #[test]
    fn more_threads_than_bytes() {
        let pm = ParallelMatcher::new(&Kmp, 64);
        assert_eq!(pm.find_all(b"ab", b"abab"), vec![0, 2]);
    }

    #[test]
    fn results_are_sorted() {
        let text = text();
        let pm = ParallelMatcher::new(&Hash3, 7);
        let hits = pm.find_all(b"spirit", &text);
        let mut sorted = hits.clone();
        sorted.sort_unstable();
        assert_eq!(hits, sorted);
        assert!(!hits.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ParallelMatcher::new(&Kmp, 0);
    }

    #[test]
    fn measure_search_times_a_successful_search() {
        let text = text();
        let pm = ParallelMatcher::new(&Kmp, 2);
        let out = pm.measure_search(crate::PAPER_QUERY, &text, true, &RobustOptions::default());
        let ms = out.ok().expect("clean search must be Ok");
        assert!(ms > 0.0);
    }

    #[test]
    fn measure_search_flags_missing_required_pattern() {
        let pm = ParallelMatcher::new(&Kmp, 2);
        let out = pm.measure_search(b"NOT-IN-TEXT", b"....", true, &RobustOptions::default());
        match out {
            MeasureOutcome::Failed(reason) => assert!(reason.contains("not found")),
            other => panic!("expected Failed, got {other:?}"),
        }
        // Without the requirement, an empty result is a valid (fast) sample.
        let out = pm.measure_search(b"NOT-IN-TEXT", b"....", false, &RobustOptions::default());
        assert!(out.is_ok());
    }

    #[test]
    fn measure_search_contains_matcher_panics() {
        struct Exploding;
        impl Matcher for Exploding {
            fn name(&self) -> &'static str {
                "Exploding"
            }
            fn find_all(&self, _pattern: &[u8], _text: &[u8]) -> Vec<usize> {
                panic!("simulated matcher bug")
            }
        }
        let pm = ParallelMatcher::new(&Exploding, 1);
        let out = pm.measure_search(b"x", b"xx", true, &RobustOptions::default());
        match out {
            MeasureOutcome::Failed(reason) => assert!(reason.contains("simulated matcher bug")),
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}
