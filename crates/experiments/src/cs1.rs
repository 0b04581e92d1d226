//! Case study 1: parallel string matching (Section IV-A, Figures 1-4).
//!
//! Online scenario: the query pattern and the text corpus are fixed at
//! program invocation; each tuning iteration repeats the search for the
//! query phrase, timing precomputation + search. The tunable parameter is
//! purely the algorithmic choice — the matchers expose no parameters of
//! their own, so every algorithm's phase-1 space is empty.

use crate::report::{BoxFigure, Boxed, GroupedBoxFigure, SeriesFigure};
use autotune::robust::time_ms;
use autotune::robust::{MeasureOutcome, RobustOptions};
use autotune::stats::{self, FiveNumber};
use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};
use stringmatch::{
    all_matchers, all_matchers_with_kernels, corpus, Matcher, ParallelMatcher, PAPER_QUERY,
};

/// Experiment scale knobs. Defaults are the *quick* profile (minutes, not
/// hours); `Cs1Config::paper()` reproduces the paper's scale.
#[derive(Debug, Clone)]
pub struct Cs1Config {
    /// Corpus size in bytes (the KJV Bible is ~4.2 MB).
    pub corpus_bytes: usize,
    /// Embed the query phrase roughly every this-many words.
    pub query_spacing_words: usize,
    /// Experiment repetitions (paper: 100).
    pub reps: usize,
    /// Tuning-loop iterations per experiment (paper: 200).
    pub iterations: usize,
    /// Search threads per matcher invocation (paper machine: 8).
    pub threads: usize,
    pub seed: u64,
}

impl Default for Cs1Config {
    fn default() -> Self {
        Cs1Config {
            corpus_bytes: 1 << 20, // 1 MiB
            query_spacing_words: 20_000,
            reps: 10,
            iterations: 60,
            threads: available_threads(),
            seed: 20170529,
        }
    }
}

impl Cs1Config {
    /// The paper's scale: 4 MiB corpus, 100 repetitions, 200 iterations.
    pub fn paper() -> Self {
        Cs1Config {
            corpus_bytes: 4 << 20,
            reps: 100,
            iterations: 200,
            ..Default::default()
        }
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(8, |n| n.get())
}

/// One timed search: precomputation + parallel match, in milliseconds.
pub fn timed_search(matcher: &dyn Matcher, threads: usize, text: &[u8]) -> f64 {
    let pm = ParallelMatcher::new(matcher, threads);
    let (hits, ms) = time_ms(|| pm.find_all(PAPER_QUERY, text));
    // The phrase is embedded in the corpus; a zero count would mean a
    // broken matcher, which must not silently corrupt the benchmark.
    assert!(
        !hits.is_empty(),
        "query phrase not found by {}",
        matcher.name()
    );
    ms
}

/// Fallible variant of [`timed_search`] for fault-tolerant tuning loops:
/// the search runs under the robust pipeline, so a matcher panic — or a
/// matcher silently missing the embedded query phrase — becomes
/// [`MeasureOutcome::Failed`] instead of aborting the experiment process.
pub fn timed_search_outcome(
    matcher: &dyn Matcher,
    threads: usize,
    text: &[u8],
    opts: &RobustOptions,
) -> MeasureOutcome {
    ParallelMatcher::new(matcher, threads).measure_search(PAPER_QUERY, text, true, opts)
}

/// All eight matcher names in figure order.
pub fn algorithm_names() -> Vec<String> {
    all_matchers()
        .iter()
        .map(|m| m.name().to_string())
        .collect()
}

/// Raw data for Figure 1: per-algorithm single-search times over `reps`
/// repetitions (no tuning).
pub fn untuned_times(cfg: &Cs1Config) -> Vec<(String, Vec<f64>)> {
    let text = corpus::bible_like_with(cfg.seed, cfg.corpus_bytes, cfg.query_spacing_words);
    all_matchers()
        .iter()
        .map(|m| {
            let times: Vec<f64> = (0..cfg.reps)
                .map(|_| timed_search(m.as_ref(), cfg.threads, &text))
                .collect();
            (m.name().to_string(), times)
        })
        .collect()
}

/// Figure 1: boxplot of untuned per-algorithm performance.
pub fn fig1(cfg: &Cs1Config) -> BoxFigure {
    let boxes = untuned_times(cfg)
        .into_iter()
        .map(|(name, times)| (name, Boxed::from(FiveNumber::of(&times).expect("reps > 0"))))
        .collect();
    BoxFigure {
        id: "fig1".into(),
        title: "String Matching: untuned algorithm performance".into(),
        ylabel: "time [ms]".into(),
        boxes,
    }
}

/// The six paper strategies with their labels.
pub fn strategies() -> Vec<(String, NominalKind)> {
    NominalKind::paper_set()
        .into_iter()
        .map(|k| (k.label(), k))
        .collect()
}

/// Run the full tuning experiment: for every strategy, `reps` repetitions
/// of `iterations` tuning iterations. Returns, per strategy, the
/// per-repetition iteration-time series and selection counts.
pub struct Cs1Runs {
    /// `[strategy][rep][iteration]` runtime samples.
    pub times: Vec<Vec<Vec<f64>>>,
    /// `[strategy][rep][algorithm]` selection counts.
    pub counts: Vec<Vec<Vec<usize>>>,
    pub strategy_labels: Vec<String>,
    pub algorithm_labels: Vec<String>,
}

pub fn run_tuning(cfg: &Cs1Config) -> Cs1Runs {
    run_tuning_with(cfg, all_matchers())
}

/// The paper experiment over the *kernel-extended* algorithm set: scalar
/// matchers compete against their SWAR/SIMD variants and the phase-2
/// strategies pick the winner online — algorithmic choice doing the job
/// of a compile-time SIMD switch.
pub fn run_tuning_with_kernels(cfg: &Cs1Config) -> Cs1Runs {
    run_tuning_with(cfg, all_matchers_with_kernels())
}

/// [`run_tuning`] over an arbitrary nominal set `𝒜`.
pub fn run_tuning_with(cfg: &Cs1Config, matchers: Vec<Box<dyn Matcher>>) -> Cs1Runs {
    let text = corpus::bible_like_with(cfg.seed, cfg.corpus_bytes, cfg.query_spacing_words);
    let specs: Vec<AlgorithmSpec> = matchers
        .iter()
        .map(|m| AlgorithmSpec::untunable(m.name()))
        .collect();

    let mut times = Vec::new();
    let mut counts = Vec::new();
    for (si, (_, kind)) in strategies().iter().enumerate() {
        let mut strat_times = Vec::with_capacity(cfg.reps);
        let mut strat_counts = Vec::with_capacity(cfg.reps);
        for rep in 0..cfg.reps {
            let seed = cfg
                .seed
                .wrapping_add(rep as u64 * 1009)
                .wrapping_add(si as u64 * 7919);
            let mut tuner = TwoPhaseTuner::new(specs.clone(), *kind, seed);
            let mut series = Vec::with_capacity(cfg.iterations);
            for _ in 0..cfg.iterations {
                let sample =
                    tuner.step(|alg, _| timed_search(matchers[alg].as_ref(), cfg.threads, &text));
                series.push(sample.value);
            }
            strat_times.push(series);
            strat_counts.push(tuner.selection_counts());
        }
        times.push(strat_times);
        counts.push(strat_counts);
    }
    Cs1Runs {
        times,
        counts,
        strategy_labels: strategies().into_iter().map(|(l, _)| l).collect(),
        algorithm_labels: matchers.iter().map(|m| m.name().to_string()).collect(),
    }
}

/// Kernel-variant timeline: [`fig3`]-style mean per-iteration series over
/// the extended set, showing whether strategies settle on a vectorized
/// matcher.
pub fn kernels_timeline(runs: &Cs1Runs) -> SeriesFigure {
    let mut f = per_iteration_figure(runs, "kernels_timeline", "mean", stats::mean, 50);
    f.title = "Kernels: tuning over scalar + SWAR/SIMD matcher variants".into();
    f
}

/// Kernel-variant selection histogram ([`fig4`]-style, extended set).
pub fn kernels_selection(runs: &Cs1Runs) -> GroupedBoxFigure {
    selection_histogram(runs, "kernels_selection", "Kernels")
}

/// Figure 2: median per-iteration time of every strategy (capped at 25
/// iterations, as in the paper — all curves are converged by then).
pub fn fig2(runs: &Cs1Runs) -> SeriesFigure {
    per_iteration_figure(runs, "fig2", "median", stats::median, 25)
}

/// Figure 3: mean per-iteration time (capped at 50 iterations).
pub fn fig3(runs: &Cs1Runs) -> SeriesFigure {
    per_iteration_figure(runs, "fig3", "mean", stats::mean, 50)
}

fn per_iteration_figure(
    runs: &Cs1Runs,
    id: &str,
    reducer_name: &str,
    reducer: fn(&[f64]) -> f64,
    cap: usize,
) -> SeriesFigure {
    let series = runs
        .strategy_labels
        .iter()
        .zip(&runs.times)
        .map(|(label, reps)| {
            let mut reduced = stats::per_iteration_reduce(reps, reducer);
            reduced.truncate(cap);
            (label.clone(), reduced)
        })
        .collect();
    SeriesFigure {
        id: id.into(),
        title: format!("String Matching: {reducer_name} performance per iteration"),
        xlabel: "iteration".into(),
        ylabel: "time [ms]".into(),
        series,
    }
}

/// Figure 4: per-strategy histogram of how often each algorithm was
/// chosen, as a boxplot over repetitions.
pub fn fig4(runs: &Cs1Runs) -> GroupedBoxFigure {
    selection_histogram(runs, "fig4", "String Matching")
}

/// Extension study: per-algorithm performance across pattern *lengths* —
/// the regime structure the `Hybrid` matcher's thresholds (and the paper's
/// premise that the optimal algorithm depends on the input) rest on.
/// Patterns are sampled from the corpus itself so every search has real
/// matches. Groups are algorithms; categories are pattern lengths.
pub fn pattern_length_study(cfg: &Cs1Config) -> GroupedBoxFigure {
    let text = corpus::bible_like_with(cfg.seed, cfg.corpus_bytes, cfg.query_spacing_words);
    let lengths = [3usize, 6, 12, 24, 39, 64, 128];
    let mut rng = autotune::rng::Rng::new(cfg.seed ^ 0x9A77);
    let groups = all_matchers()
        .iter()
        .map(|m| {
            let boxes = lengths
                .iter()
                .map(|&len| {
                    let times: Vec<f64> = (0..cfg.reps)
                        .map(|_| {
                            let start = rng.pick_index(text.len() - len);
                            let pattern = &text[start..start + len];
                            let pm = ParallelMatcher::new(m.as_ref(), cfg.threads);
                            let (hits, ms) = time_ms(|| pm.find_all(pattern, &text));
                            assert!(!hits.is_empty(), "sampled pattern must occur");
                            ms
                        })
                        .collect();
                    Boxed::from(FiveNumber::of(&times).expect("reps > 0"))
                })
                .collect();
            (m.name().to_string(), boxes)
        })
        .collect();
    GroupedBoxFigure {
        id: "pattern_lengths".into(),
        title: "Extension: algorithm performance by pattern length".into(),
        ylabel: "time [ms]".into(),
        categories: lengths.iter().map(|l| format!("m={l}")).collect(),
        groups,
    }
}

pub(crate) fn selection_histogram(runs: &Cs1Runs, id: &str, what: &str) -> GroupedBoxFigure {
    let groups = runs
        .strategy_labels
        .iter()
        .zip(&runs.counts)
        .map(|(label, reps)| {
            let boxes = (0..runs.algorithm_labels.len())
                .map(|alg| {
                    let per_rep: Vec<f64> = reps.iter().map(|counts| counts[alg] as f64).collect();
                    Boxed::from(FiveNumber::of(&per_rep).expect("reps > 0"))
                })
                .collect();
            (label.clone(), boxes)
        })
        .collect();
    GroupedBoxFigure {
        id: id.into(),
        title: format!("{what}: algorithm selection frequency by strategy"),
        ylabel: "count".into(),
        categories: runs.algorithm_labels.clone(),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cs1Config {
        Cs1Config {
            corpus_bytes: 64 << 10,
            query_spacing_words: 2_000,
            reps: 2,
            iterations: 20,
            threads: 2,
            seed: 7,
        }
    }

    #[test]
    fn untuned_times_cover_all_algorithms() {
        let data = untuned_times(&tiny());
        assert_eq!(data.len(), 8);
        for (name, times) in &data {
            assert_eq!(times.len(), 2, "{name}");
            assert!(times.iter().all(|&t| t > 0.0), "{name}");
        }
    }

    #[test]
    fn fig1_produces_eight_boxes() {
        let f = fig1(&tiny());
        assert_eq!(f.boxes.len(), 8);
        for (_, b) in &f.boxes {
            assert!(b.min <= b.median && b.median <= b.max);
        }
    }

    #[test]
    fn tuning_runs_have_expected_shape() {
        let cfg = tiny();
        let runs = run_tuning(&cfg);
        assert_eq!(runs.times.len(), 6, "six strategies");
        assert_eq!(runs.counts.len(), 6);
        for (st, sc) in runs.times.iter().zip(&runs.counts) {
            assert_eq!(st.len(), cfg.reps);
            for series in st {
                assert_eq!(series.len(), cfg.iterations);
            }
            for counts in sc {
                assert_eq!(counts.len(), 8);
                assert_eq!(counts.iter().sum::<usize>(), cfg.iterations);
            }
        }
    }

    #[test]
    fn figures_2_3_4_from_shared_runs() {
        let runs = run_tuning(&tiny());
        let f2 = fig2(&runs);
        assert_eq!(f2.series.len(), 6);
        assert!(f2.series[0].1.len() <= 25);
        let f3 = fig3(&runs);
        assert!(f3.series[0].1.len() <= 50);
        let f4 = fig4(&runs);
        assert_eq!(f4.categories.len(), 8);
        assert_eq!(f4.groups.len(), 6);
    }

    #[test]
    fn pattern_length_study_shape() {
        let cfg = Cs1Config {
            corpus_bytes: 32 << 10,
            reps: 2,
            ..tiny()
        };
        let f = pattern_length_study(&cfg);
        assert_eq!(f.groups.len(), 8, "one group per algorithm");
        assert_eq!(f.categories.len(), 7, "seven pattern lengths");
        for (name, boxes) in &f.groups {
            for b in boxes {
                assert!(b.median > 0.0, "{name}");
            }
        }
    }

    #[test]
    fn kernel_extended_runs_cover_twelve_algorithms() {
        let cfg = Cs1Config {
            reps: 1,
            iterations: 14,
            ..tiny()
        };
        let runs = run_tuning_with_kernels(&cfg);
        assert_eq!(runs.algorithm_labels.len(), 12);
        assert!(runs
            .algorithm_labels
            .iter()
            .any(|n| n == "Boyer-Moore-SIMD"));
        for sc in &runs.counts {
            for counts in sc {
                assert_eq!(counts.len(), 12);
                assert_eq!(counts.iter().sum::<usize>(), cfg.iterations);
            }
        }
        let f = kernels_timeline(&runs);
        assert_eq!(f.series.len(), 6);
        let h = kernels_selection(&runs);
        assert_eq!(h.categories.len(), 12);
    }

    #[test]
    fn epsilon_greedy_converges_to_a_fast_algorithm() {
        // The headline result of case study 1, at miniature scale: after
        // tuning, ε-Greedy's median iteration time approaches the fastest
        // algorithm's untuned time.
        let cfg = Cs1Config {
            iterations: 40,
            ..tiny()
        };
        let runs = run_tuning(&cfg);
        let untuned = untuned_times(&cfg);
        let best_untuned = untuned
            .iter()
            .map(|(_, t)| stats::median(t))
            .fold(f64::INFINITY, f64::min);
        // Strategy 1 is ε-Greedy(10%). Take the median of its last 10
        // iterations across reps.
        let eps10 = &runs.times[1];
        let tail: Vec<f64> = eps10
            .iter()
            .flat_map(|series| series[series.len() - 10..].to_vec())
            .collect();
        let tail_median = stats::median(&tail);
        assert!(
            tail_median < best_untuned * 4.0,
            "converged median {tail_median} vs best untuned {best_untuned}"
        );
    }
}
