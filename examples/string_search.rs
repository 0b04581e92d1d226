//! Case study 1 as a runnable application: online-autotuning the choice of
//! parallel string matching algorithm.
//!
//! ```sh
//! cargo run --release --example string_search -- [corpus_kb] [iterations]
//! ```
//!
//! Mirrors the paper's setup: the query pattern and the corpus are fixed
//! at invocation; every tuning iteration repeats the search (including the
//! matcher's pattern precomputation); the only tunable is *which* of the
//! eight algorithms to run.

use algochoice::autotune::prelude::*;
use algochoice::autotune::robust::time_ms;
use algochoice::stringmatch::{all_matchers, corpus, ParallelMatcher, PAPER_QUERY};

fn main() {
    let mut args = std::env::args().skip(1);
    let corpus_kb: usize = args.next().map_or(1024, |a| a.parse().expect("corpus_kb"));
    let iterations: usize = args.next().map_or(100, |a| a.parse().expect("iterations"));
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    println!("generating {corpus_kb} KiB bible-like corpus…");
    let text = corpus::bible_like_with(2017, corpus_kb << 10, 20_000);
    let query = String::from_utf8_lossy(PAPER_QUERY);
    println!("query: \"{query}\" ({} threads)\n", threads);

    let matchers = all_matchers();
    let specs: Vec<AlgorithmSpec> = matchers
        .iter()
        .map(|m| AlgorithmSpec::untunable(m.name()))
        .collect();
    let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.10), 1);

    let mut match_count = 0usize;
    for i in 0..iterations {
        let (alg, _config) = tuner.next();
        let (hits, ms) = time_ms(|| {
            ParallelMatcher::new(matchers[alg].as_ref(), threads).find_all(PAPER_QUERY, &text)
        });
        match_count = hits.len();
        tuner.report(ms);
        if i < 10 || i % 20 == 0 {
            println!(
                "iter {i:3}: {:<18} {ms:8.3} ms  ({match_count} matches)",
                matchers[alg].name()
            );
        }
    }

    println!("\nselection counts after {iterations} iterations:");
    for (m, count) in matchers.iter().zip(tuner.selection_counts()) {
        let bar = "#".repeat(count * 50 / iterations.max(1));
        println!("  {:<18} {count:4}  {bar}", m.name());
    }
    let best = tuner.best_algorithm().expect("tuned");
    println!(
        "\nbest algorithm: {} (best observed {:.3} ms, {match_count} matches)",
        matchers[best].name(),
        tuner.best().unwrap().2
    );
}
