//! Integration: the full case-study-1 stack — autotuner over the real
//! parallel string matchers on a generated corpus.

use algochoice::autotune::prelude::*;
use algochoice::autotune::robust::time_ms;
use algochoice::stringmatch::{all_matchers, corpus, naive, ParallelMatcher, PAPER_QUERY};

fn small_corpus() -> Vec<u8> {
    corpus::bible_like_with(11, 128 << 10, 3_000)
}

#[test]
fn every_matcher_finds_the_query_phrase_in_the_corpus() {
    let text = small_corpus();
    let expected = naive::find_all(PAPER_QUERY, &text);
    assert!(!expected.is_empty(), "corpus must embed the phrase");
    for m in all_matchers() {
        assert_eq!(
            m.find_all(PAPER_QUERY, &text),
            expected,
            "{} disagrees with the reference",
            m.name()
        );
    }
}

#[test]
fn parallel_matchers_agree_with_sequential_on_the_corpus() {
    let text = small_corpus();
    let expected = naive::find_all(PAPER_QUERY, &text);
    for m in all_matchers() {
        for threads in [2, 5] {
            let pm = ParallelMatcher::new(m.as_ref(), threads);
            assert_eq!(
                pm.find_all(PAPER_QUERY, &text),
                expected,
                "{} × {threads} threads",
                m.name()
            );
        }
    }
}

#[test]
fn online_tuner_converges_onto_a_correct_fast_matcher() {
    let text = small_corpus();
    let matchers = all_matchers();
    let specs: Vec<AlgorithmSpec> = matchers
        .iter()
        .map(|m| AlgorithmSpec::untunable(m.name()))
        .collect();
    let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.10), 5);
    for _ in 0..80 {
        let (alg, _) = tuner.next();
        let (hits, ms) = time_ms(|| matchers[alg].find_all(PAPER_QUERY, &text));
        assert!(!hits.is_empty());
        tuner.report(ms);
    }
    let best = tuner.best_algorithm().expect("tuned");
    // The slow group (Boyer-Moore, KMP, ShiftOr — indices 0, 5, 6) is an
    // order of magnitude slower on this workload and must not win.
    assert!(
        ![0usize, 5, 6].contains(&best),
        "converged to slow algorithm {}",
        matchers[best].name()
    );
    // Exploitation dominates: the winner has the majority of selections.
    let counts = tuner.selection_counts();
    assert!(counts[best] > 40, "counts: {counts:?}");
}

#[test]
fn all_six_strategies_run_the_real_workload_without_starving_any_algorithm() {
    let text = corpus::bible_like_with(13, 32 << 10, 1_500);
    let matchers = all_matchers();
    let specs: Vec<AlgorithmSpec> = matchers
        .iter()
        .map(|m| AlgorithmSpec::untunable(m.name()))
        .collect();
    for kind in NominalKind::paper_set() {
        let mut tuner = TwoPhaseTuner::new(specs.clone(), kind, 17);
        for _ in 0..64 {
            let (alg, _) = tuner.next();
            let (_, ms) = time_ms(|| matchers[alg].find_all(PAPER_QUERY, &text));
            tuner.report(ms);
        }
        let counts = tuner.selection_counts();
        assert_eq!(
            counts.iter().sum::<usize>(),
            64,
            "{}",
            tuner.strategy_name()
        );
        // "We never exclude an algorithm": everything was tried at least
        // once within the first 64 iterations for every paper strategy.
        assert!(
            counts.iter().all(|&c| c > 0),
            "{} starved an algorithm: {counts:?}",
            tuner.strategy_name()
        );
    }
}

#[test]
fn tuning_different_queries_can_prefer_different_algorithms() {
    // Sanity check of the premise of algorithmic choice: the best matcher
    // depends on the input (here, pattern length regimes exist at all).
    let text = small_corpus();
    let short = b"the";
    let long = PAPER_QUERY;
    for m in all_matchers() {
        // Every matcher must stay correct across both regimes …
        assert_eq!(
            m.find_all(short, &text),
            naive::find_all(short, &text),
            "{} short",
            m.name()
        );
        assert_eq!(
            m.find_all(long, &text),
            naive::find_all(long, &text),
            "{} long",
            m.name()
        );
    }
}
