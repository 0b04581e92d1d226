//! Telemetry-backed run recording and post-hoc convergence reporting — the
//! `record` and `report` targets.
//!
//! `record` runs one repetition of each case study's tuning loop per
//! phase-2 strategy with the global [`autotune::telemetry`] recorder
//! enabled, then drains the event ring into one JSONL file per run
//! (`trace_<cs>_<strategy>.jsonl`, each starting with a `"run-meta"`
//! header line) plus one Chrome `trace_event` file per case study
//! (`trace_<cs>.trace.json`, loadable in Perfetto / `chrome://tracing`).
//!
//! `report` is deliberately decoupled: it reconstructs per-strategy
//! convergence summaries — iterations to come within 5% of the best
//! observed runtime, selection entropy over time, failure counts — from
//! the JSONL files *alone*, without rerunning anything. The recorded
//! trace is the interface; anything the report needs that the trace
//! can't answer is a telemetry gap to fix, not a reason to re-measure.

use crate::{cs1, cs2};
use autotune::robust::RobustOptions;
use autotune::stats;
use autotune::telemetry::{
    self,
    export::{chrome_trace, parse_run_log, write_run_log, RunMeta},
    Event, EventKind, MeasureStatus, DEFAULT_RING_CAPACITY,
};
use autotune::two_phase::TwoPhaseTuner;
use raytrace::tunable;
use std::io;
use std::path::{Path, PathBuf};
use stringmatch::{all_matchers, corpus};

/// Make a strategy label file-name safe: lowercase alphanumerics with
/// single dashes (`"e-Greedy(10%)"` → `"e-greedy-10"`).
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

fn write_text(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, contents)
}

/// Write one run's JSONL log, and (for the first strategy of a case
/// study) the Chrome trace alongside it. Returns the files written.
fn save_run(
    dir: &Path,
    meta: &RunMeta,
    events: &[Event],
    with_chrome: bool,
) -> io::Result<Vec<PathBuf>> {
    let mut written = Vec::new();
    let jsonl = dir.join(format!(
        "trace_{}_{}.jsonl",
        meta.case_study,
        slug(&meta.strategy)
    ));
    write_text(&jsonl, &write_run_log(meta, events))?;
    written.push(jsonl);
    if with_chrome {
        let trace = dir.join(format!("trace_{}.trace.json", meta.case_study));
        write_text(&trace, &chrome_trace(events).to_string())?;
        written.push(trace);
    }
    Ok(written)
}

/// Record one telemetry-instrumented repetition of the case-study-1
/// tuning loop per strategy. Measurements run through the robust
/// pipeline ([`cs1::timed_search_outcome`]) so the traces carry
/// `span-begin`/`span-end` pairs and failure outcomes, exactly like a
/// production deployment would.
pub fn record_cs1(cfg: &cs1::Cs1Config, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let text = corpus::bible_like_with(cfg.seed, cfg.corpus_bytes, cfg.query_spacing_words);
    let matchers = all_matchers();
    let specs: Vec<_> = matchers
        .iter()
        .map(|m| autotune::two_phase::AlgorithmSpec::untunable(m.name()))
        .collect();
    let opts = RobustOptions::default();
    let mut written = Vec::new();

    telemetry::enable_with_capacity(DEFAULT_RING_CAPACITY);
    for (si, (label, kind)) in cs1::strategies().into_iter().enumerate() {
        telemetry::reset();
        let seed = cfg.seed.wrapping_add(si as u64 * 7919);
        let mut tuner = TwoPhaseTuner::new(specs.clone(), kind, seed);
        for _ in 0..cfg.iterations {
            let (alg, _config) = tuner.next();
            let outcome =
                cs1::timed_search_outcome(matchers[alg].as_ref(), cfg.threads, &text, &opts);
            tuner.report_outcome(outcome);
        }
        let events = telemetry::drain();
        let meta = RunMeta {
            case_study: "cs1".into(),
            strategy: label,
            algorithms: cs1::algorithm_names(),
            iterations: cfg.iterations as u64,
        };
        written.extend(save_run(dir, &meta, &events, si == 0)?);
    }
    telemetry::disable();
    Ok(written)
}

/// Record one telemetry-instrumented repetition of the case-study-2
/// rendering loop per strategy, via [`tunable::measure_frame`] (frame
/// spans, kD-build faults, pool queue-depth gauges all land in the
/// trace).
pub fn record_cs2(cfg: &cs2::Cs2Config, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let scene = cfg.scene();
    let base = cfg.render_options();
    let builders = raytrace::all_builders();
    let specs = tunable::algorithm_specs();
    let opts = RobustOptions::default();
    let mut written = Vec::new();

    telemetry::enable_with_capacity(DEFAULT_RING_CAPACITY);
    for (si, (label, kind)) in cs1::strategies().into_iter().enumerate() {
        telemetry::reset();
        let seed = cfg.seed.wrapping_add(si as u64 * 104729);
        let mut tuner = TwoPhaseTuner::new(specs.clone(), kind, seed);
        for _ in 0..cfg.frames {
            let (alg, config) = tuner.next();
            let outcome =
                tunable::measure_frame(&scene, builders[alg].as_ref(), &config, &base, &opts);
            tuner.report_outcome(outcome);
        }
        let events = telemetry::drain();
        let meta = RunMeta {
            case_study: "cs2".into(),
            strategy: label,
            algorithms: cs2::algorithm_names(),
            iterations: cfg.frames as u64,
        };
        written.extend(save_run(dir, &meta, &events, si == 0)?);
    }
    telemetry::disable();
    Ok(written)
}

/// Per-strategy convergence summary, reconstructed from a recorded
/// trace alone.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// `"cs1"` / `"cs2"` (from the run-meta header).
    pub case_study: String,
    /// Strategy label (from the run-meta header).
    pub strategy: String,
    /// Algorithm names in selection order (from the run-meta header).
    pub algorithms: Vec<String>,
    /// Number of `iteration` records in the trace.
    pub iterations: u64,
    /// Successful measurements.
    pub ok: u64,
    /// Failed + timed-out measurements (absorbed as penalties).
    pub failures: u64,
    /// Best successful runtime in the run, in milliseconds.
    pub best_ms: f64,
    /// First iteration whose runtime came within 5% of [`best_ms`]
    /// (`None` if the run had no successful measurement).
    ///
    /// [`best_ms`]: RunSummary::best_ms
    pub within_5pct_at: Option<u64>,
    /// Selection counts per algorithm index.
    pub selections: Vec<u64>,
    /// Shannon entropy (bits) of the selection distribution in each
    /// quarter of the run — converging strategies decay toward 0.
    pub entropy_per_quarter: Vec<f64>,
    /// The phase-2 weight vector at the last selection.
    pub final_weights: Vec<f64>,
}

/// Shannon entropy in bits of a selection-count histogram.
pub fn entropy_bits(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total as f64;
            h -= p * p.log2();
        }
    }
    h
}

/// Reduce one recorded run (meta + events) to its [`RunSummary`].
pub fn summarize(meta: &RunMeta, events: &[Event]) -> RunSummary {
    let num_algorithms = meta.algorithms.len().max(1);
    let mut iterations = 0u64;
    let mut ok = 0u64;
    let mut failures = 0u64;
    let mut runtimes: Vec<(u64, f64)> = Vec::new();
    let mut picks: Vec<usize> = Vec::new();
    let mut final_weights = Vec::new();
    for e in events {
        if let EventKind::Iteration {
            iteration,
            algorithm,
            status,
            runtime_ms,
            weights,
            ..
        } = &e.kind
        {
            iterations += 1;
            picks.push(*algorithm as usize);
            final_weights = weights.as_slice().iter().map(|&w| w as f64).collect();
            match status {
                MeasureStatus::Ok => {
                    ok += 1;
                    runtimes.push((*iteration, *runtime_ms));
                }
                MeasureStatus::Failed | MeasureStatus::TimedOut => failures += 1,
            }
        }
    }

    let best_ms = runtimes
        .iter()
        .map(|&(_, r)| r)
        .fold(f64::INFINITY, f64::min);
    let within_5pct_at = if runtimes.is_empty() {
        None
    } else {
        runtimes
            .iter()
            .find(|&&(_, r)| r <= best_ms * 1.05)
            .map(|&(i, _)| i)
    };

    let mut selections = vec![0u64; num_algorithms];
    for &p in &picks {
        if p < num_algorithms {
            selections[p] += 1;
        }
    }
    let entropy_per_quarter = quarters(&picks)
        .into_iter()
        .map(|q| {
            let mut counts = vec![0u64; num_algorithms];
            for &p in q {
                if p < num_algorithms {
                    counts[p] += 1;
                }
            }
            entropy_bits(&counts)
        })
        .collect();

    RunSummary {
        case_study: meta.case_study.clone(),
        strategy: meta.strategy.clone(),
        algorithms: meta.algorithms.clone(),
        iterations,
        ok,
        failures,
        best_ms: if best_ms.is_finite() {
            best_ms
        } else {
            f64::NAN
        },
        within_5pct_at,
        selections,
        entropy_per_quarter,
        final_weights,
    }
}

/// Split a slice into (up to) four contiguous, near-equal quarters.
fn quarters(picks: &[usize]) -> Vec<&[usize]> {
    if picks.is_empty() {
        return Vec::new();
    }
    let n = picks.len();
    let q = n.div_ceil(4);
    picks.chunks(q).collect()
}

/// Load and summarize every `trace_*.jsonl` in `dir`, sorted by
/// (case study, strategy). Files that fail to parse are reported on
/// stderr and skipped — one corrupt trace must not hide the others.
pub fn load_summaries(dir: &Path) -> io::Result<Vec<RunSummary>> {
    let mut summaries = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("trace_") && name.ends_with(".jsonl")
        })
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path)?;
        match parse_run_log(&text) {
            Ok(log) => {
                let meta = log.meta.unwrap_or_else(|| RunMeta {
                    case_study: "?".into(),
                    strategy: path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or("?")
                        .to_string(),
                    algorithms: Vec::new(),
                    iterations: 0,
                });
                summaries.push(summarize(&meta, &log.events));
            }
            Err(e) => eprintln!("skipping {}: {e:?}", path.display()),
        }
    }
    summaries.sort_by(|a, b| {
        (a.case_study.as_str(), a.strategy.as_str())
            .cmp(&(b.case_study.as_str(), b.strategy.as_str()))
    });
    Ok(summaries)
}

/// Render the per-strategy convergence tables (one per case study).
pub fn render_report(summaries: &[RunSummary]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut case_studies: Vec<&str> = summaries.iter().map(|s| s.case_study.as_str()).collect();
    case_studies.dedup();
    for cs in case_studies {
        let rows: Vec<&RunSummary> = summaries.iter().filter(|s| s.case_study == cs).collect();
        let _ = writeln!(out, "=== {cs}: per-strategy convergence ===");
        let _ = writeln!(
            out,
            "{:<24} {:>5} {:>4} {:>5} {:>10} {:>8}  {:<20} selections",
            "strategy", "iters", "ok", "fail", "best[ms]", "5%@iter", "entropy/quarter[bit]"
        );
        for s in rows {
            let entropy = s
                .entropy_per_quarter
                .iter()
                .map(|h| format!("{h:.2}"))
                .collect::<Vec<_>>()
                .join(" ");
            let picks = s
                .selections
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let at = s
                .within_5pct_at
                .map(|i| i.to_string())
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:<24} {:>5} {:>4} {:>5} {:>10.4} {:>8}  {:<20} {}",
                s.strategy, s.iterations, s.ok, s.failures, s.best_ms, at, entropy, picks
            );
        }
        out.push('\n');
    }
    out
}

/// The machine-readable form of the report, written to `report.json`.
pub fn report_json(summaries: &[RunSummary]) -> autotune::json::Json {
    use autotune::json::Json;
    Json::obj(vec![(
        "runs",
        Json::Arr(
            summaries
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("case-study", Json::Str(s.case_study.clone())),
                        ("strategy", Json::Str(s.strategy.clone())),
                        (
                            "algorithms",
                            Json::Arr(s.algorithms.iter().map(|a| Json::Str(a.clone())).collect()),
                        ),
                        ("iterations", Json::Num(s.iterations as f64)),
                        ("ok", Json::Num(s.ok as f64)),
                        ("failures", Json::Num(s.failures as f64)),
                        ("best-ms", Json::Num(s.best_ms)),
                        (
                            "within-5pct-at",
                            s.within_5pct_at
                                .map(|i| Json::Num(i as f64))
                                .unwrap_or(Json::Null),
                        ),
                        (
                            "selections",
                            Json::Arr(s.selections.iter().map(|&c| Json::Num(c as f64)).collect()),
                        ),
                        (
                            "entropy-per-quarter",
                            Json::Arr(
                                s.entropy_per_quarter
                                    .iter()
                                    .map(|&h| Json::Num(h))
                                    .collect(),
                            ),
                        ),
                        (
                            "final-weights",
                            Json::Arr(s.final_weights.iter().map(|&w| Json::Num(w)).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Run the full `report` target: summarize `dir`, print the tables, and
/// write `<dir>/report.json`. Sanity-checks against `stats` so a
/// mis-parsed trace fails loudly rather than printing nonsense.
pub fn report(dir: &Path) -> io::Result<Vec<RunSummary>> {
    let summaries = load_summaries(dir)?;
    if summaries.is_empty() {
        eprintln!(
            "no trace_*.jsonl files in {} — run `experiments record` first",
            dir.display()
        );
    } else {
        print!("{}", render_report(&summaries));
        debug_assert!(summaries
            .iter()
            .filter(|s| s.ok > 0)
            .all(|s| s.best_ms > 0.0 && stats::mean(&[s.best_ms]).is_finite()));
        let path = dir.join("report.json");
        write_text(&path, &report_json(&summaries).to_string_pretty())?;
        println!("→ {}", path.display());
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune::telemetry::WeightSet;

    /// An untagged iteration record of a direct tuner.
    fn record(iteration: u64, algorithm: u16, status: MeasureStatus, runtime_ms: f64) -> Event {
        Event::untagged(
            iteration,
            EventKind::Iteration {
                iteration,
                algorithm,
                status,
                runtime_ms,
                weights: WeightSet::from_slice(&[0.25, 0.75]),
                traffic: None,
            },
        )
    }

    fn meta() -> RunMeta {
        RunMeta {
            case_study: "cs1".into(),
            strategy: "e-greedy(10%)".into(),
            algorithms: vec!["A".into(), "B".into()],
            iterations: 3,
        }
    }

    #[test]
    fn slug_is_file_safe() {
        assert_eq!(slug("e-Greedy(10%)"), "e-greedy-10");
        assert_eq!(slug("sliding-window-auc(16)"), "sliding-window-auc-16");
        assert_eq!(slug("optimum weighted"), "optimum-weighted");
    }

    #[test]
    fn summarize_reconstructs_convergence() {
        let events = vec![
            record(0, 0, MeasureStatus::Ok, 10.0),
            record(1, 1, MeasureStatus::Failed, 40.0),
            record(2, 1, MeasureStatus::Ok, 5.0),
        ];
        let s = summarize(&meta(), &events);
        assert_eq!(s.iterations, 3);
        assert_eq!(s.ok, 2);
        assert_eq!(s.failures, 1);
        assert_eq!(s.best_ms, 5.0);
        assert_eq!(s.within_5pct_at, Some(2), "10ms is not within 5% of 5ms");
        assert_eq!(s.selections, vec![1, 2]);
        assert_eq!(s.final_weights.len(), 2);
        assert!((s.final_weights[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn entropy_is_zero_when_converged_and_max_when_uniform() {
        assert_eq!(entropy_bits(&[10, 0, 0, 0]), 0.0);
        assert!((entropy_bits(&[5, 5, 5, 5]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy_bits(&[]), 0.0);
    }

    #[test]
    fn quarters_split_contiguously() {
        let picks = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let qs = quarters(&picks);
        assert_eq!(qs.len(), 3, "9 picks → chunks of ceil(9/4)=3 → 3+3+3");
        let total: usize = qs.iter().map(|q| q.len()).sum();
        assert_eq!(total, picks.len());
    }

    #[test]
    fn report_round_trips_through_files() {
        let dir = std::env::temp_dir().join(format!("record_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let events = vec![record(0, 0, MeasureStatus::Ok, 2.5)];
        let m = RunMeta {
            case_study: "cs1".into(),
            strategy: "solo".into(),
            algorithms: vec!["A".into()],
            iterations: 1,
        };
        save_run(&dir, &m, &events, true).unwrap();
        assert!(dir.join("trace_cs1_solo.jsonl").exists());
        assert!(dir.join("trace_cs1.trace.json").exists());
        let summaries = load_summaries(&dir).unwrap();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].strategy, "solo");
        assert_eq!(summaries[0].best_ms, 2.5);
        let j = report_json(&summaries);
        let parsed = autotune::json::Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed.get("runs").unwrap().as_arr().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
