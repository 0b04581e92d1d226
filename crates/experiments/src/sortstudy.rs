//! The `smallsort` study: input size as a first-class context dimension.
//!
//! A single sort site would learn one compromise algorithm for every
//! request size. The [`smallsort`] workload instead buckets requests
//! into power-of-two size classes, binds each class to its own tuning
//! site ([`smallsort::SortSites`]), and lets the tuner learn a
//! *per-size-class* winner — insertion sort for the near-register
//! classes, a cache-friendly recursive sort in the middle, LSD radix
//! once the array amortizes its counting passes.
//!
//! The study drives an interleaved request stream across the classes
//! with telemetry recording on, then rebuilds everything reported here
//! **from the exported JSONL trace** (serialize → parse → aggregate, so
//! the numbers exercise the wire schema, not private state): one
//! convergence table per class — measured tuning iterations, per-
//! algorithm selection counts, the converged winner, the final runtime
//! regime, and the iterations until a rolling median first lands within
//! 5% of it. Artifacts: `results/smallsort.json` plus the raw trace in
//! `results/smallsort_trace.jsonl`.
//!
//! Because every request in the lower classes finishes far under the
//! timer tick, the tuning path's measurements come from
//! [`autotune::robust::batched_time_ms`]; the `measured_floor_ms` field
//! records the host's measured tick so consumers can judge how many
//! quanta the reported medians actually span.
//!
//! Every request the study drives is a tuning iteration
//! ([`tuning_iteration`]). Once a class site has plateaued, its tuning-
//! rate controller would serve most calls from the published decision,
//! timed once on the guard's clock; those calls teach the tuner nothing,
//! so the driver abandons them before any sort runs. A class's N
//! requests are therefore its first N tuning iterations, back to back,
//! and every `iteration` record in the trace is a batched measurement
//! the tuner itself read.

use autotune::json::Json;
use autotune::rng::Rng;
use autotune::robust::{batched_time_ms, MeasureOutcome};
use autotune::stats;
use autotune::telemetry::{self, export, Event, EventKind, MeasureStatus};
use autotune::two_phase::NominalKind;
use smallsort::{sort_with, SortKey, SortSites, ALGORITHM_NAMES};

/// Scale knobs. Defaults are the *quick* profile.
#[derive(Debug, Clone)]
pub struct SortStudyConfig {
    /// Size classes to drive (log2 of the class cap); defaults to the
    /// whole [`smallsort`] class range.
    pub classes: Vec<u32>,
    /// Sort requests per class (interleaved round-robin across classes,
    /// like a real mixed request stream), each one a tuning iteration
    /// ([`tuning_iteration`]).
    pub requests_per_class: usize,
    /// Seed for request sizes, keys, and the per-class tuners.
    pub seed: u64,
}

impl Default for SortStudyConfig {
    fn default() -> Self {
        SortStudyConfig {
            classes: SortSites::classes().collect(),
            requests_per_class: 300,
            seed: 20170609,
        }
    }
}

impl SortStudyConfig {
    /// The full-scale profile: a longer stream per class.
    pub fn paper() -> Self {
        SortStudyConfig {
            requests_per_class: 2000,
            ..Default::default()
        }
    }
}

/// Rolling-median window for the convergence scan.
pub const CONV_WINDOW: usize = 15;
/// "Within 5% of the converged regime" — the convergence criterion.
pub const CONV_TOLERANCE: f64 = 0.05;

/// One size class's convergence table, rebuilt from the JSONL trace.
#[derive(Debug, Clone)]
pub struct ClassTable {
    /// The class (log2 of its size cap): requests of `2^(class-1)+1 ..=
    /// 2^class` elements land here.
    pub class: u32,
    /// The class site's telemetry tag — the `site` field its trace lines
    /// carry in `smallsort_trace.jsonl`.
    pub tag: u16,
    /// Sort requests dispatched to this class.
    pub requests: u64,
    /// Measured tuning iterations (successful `iteration` records).
    pub measured: u64,
    /// Per-algorithm measurement counts, indexed like
    /// [`smallsort::ALGORITHM_NAMES`].
    pub selections: Vec<u64>,
    /// The converged winner: the algorithm the trace's last
    /// [`CONV_WINDOW`] measurements select most often.
    pub winner: usize,
    /// Median measured runtime of the converged tail, in milliseconds.
    pub final_median_ms: f64,
    /// Measured iterations until a rolling median first lands within
    /// [`CONV_TOLERANCE`] of `final_median_ms` (`None`: never settled).
    pub converged_after: Option<usize>,
}

/// Results of the full study.
#[derive(Debug, Clone)]
pub struct SortStudy {
    pub config: SortStudyConfig,
    /// One table per driven class, in class order.
    pub tables: Vec<ClassTable>,
    /// The host's measured timer tick ([`autotune::robust::timer_resolution_ms`]).
    pub measured_floor_ms: f64,
    /// The full telemetry trace, already serialized to JSONL.
    pub trace_jsonl: String,
}

impl SortStudy {
    /// Number of distinct winners across the per-class tables — the
    /// study's headline: `> 1` means one global choice would lose to the
    /// context-split sites somewhere.
    pub fn distinct_winners(&self) -> usize {
        let mut seen = [false; ALGORITHM_NAMES.len()];
        for t in &self.tables {
            seen[t.winner] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }
}

/// Drive the interleaved request stream and leave the trace in the
/// telemetry ring. Returns the sites and per-class request counts.
fn drive(cfg: &SortStudyConfig, sites: &SortSites) -> Vec<(u32, u64)> {
    let mut rng = Rng::new(cfg.seed ^ 0x50B7);
    let mut counts: Vec<(u32, u64)> = cfg.classes.iter().map(|&c| (c, 0)).collect();
    for _round in 0..cfg.requests_per_class {
        for (slot, &class) in cfg.classes.iter().enumerate() {
            // A size drawn uniformly from the class's range, so the site
            // tunes over the class, not one fixed length.
            let hi = 1usize << class;
            let lo = (hi / 2) + 1;
            let n = lo + rng.next_below((hi - lo + 1) as u64) as usize;
            let mut data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let got = tuning_iteration(sites, &mut data);
            debug_assert_eq!(got.class, class);
            counts[slot].1 += 1;
        }
    }
    counts
}

/// Run exactly one tuning iteration for `data`'s context key and leave
/// `data` sorted: the tuning branch of [`smallsort::sort_request_keyed`],
/// a batched measurement of the proposed sort on copies of the input.
///
/// A call the key's site would serve from its published decision (backed
/// off by its tuning-rate controller, or contended) is dropped before
/// anything runs. It would teach the tuner nothing, and an abandoned
/// backed-off call still uses up its place in the controller's gap, so
/// the next tuning call comes within 64 dispatches (DESIGN.md §12).
pub fn tuning_iteration(sites: &SortSites, data: &mut [u64]) -> SortKey {
    let key = SortKey::of(data);
    let guard = loop {
        let guard = sites.table().dispatch(&key);
        if guard.is_tuning() {
            break guard;
        }
    };
    let (algorithm, config) = (guard.algorithm(), guard.config());
    let mut scratch = data.to_vec();
    let ms = batched_time_ms(|| {
        scratch.copy_from_slice(data);
        sort_with(algorithm, config, &mut scratch);
    });
    data.copy_from_slice(&scratch);
    guard.post_outcome(MeasureOutcome::from_value(ms));
    key
}

/// The algorithm picks and measured runtimes of the successful tuning
/// iterations among the `keep` events, in trace order.
pub(crate) fn measurements(events: &[Event], keep: impl Fn(&Event) -> bool) -> Vec<(usize, f64)> {
    events
        .iter()
        .filter(|e| keep(e))
        .filter_map(|e| match e.kind {
            EventKind::Iteration {
                algorithm,
                status: MeasureStatus::Ok,
                runtime_ms,
                ..
            } => Some((algorithm as usize, runtime_ms)),
            _ => None,
        })
        .collect()
}

/// Build one class's table from its trace measurements.
fn table_for(class: u32, tag: u16, requests: u64, measurements: &[(usize, f64)]) -> ClassTable {
    let mut selections = vec![0u64; ALGORITHM_NAMES.len()];
    for &(a, _) in measurements {
        selections[a] += 1;
    }
    let tail_len = measurements.len().min(CONV_WINDOW);
    let tail = &measurements[measurements.len() - tail_len..];
    // The winner is what the converged tail actually runs, not the raw
    // majority (early exploration measures every algorithm).
    let winner = (0..ALGORITHM_NAMES.len())
        .max_by_key(|&a| tail.iter().filter(|&&(sel, _)| sel == a).count())
        .unwrap_or(0);
    let runtimes: Vec<f64> = measurements.iter().map(|&(_, ms)| ms).collect();
    let final_median_ms = if tail.is_empty() {
        f64::NAN
    } else {
        stats::median(&runtimes[runtimes.len() - tail_len..])
    };
    let converged_after = (runtimes.len() >= 2 * CONV_WINDOW)
        .then(|| stats::settled_after(&runtimes, CONV_WINDOW, final_median_ms, CONV_TOLERANCE));
    ClassTable {
        class,
        tag,
        requests,
        measured: measurements.len() as u64,
        selections,
        winner,
        final_median_ms,
        converged_after: converged_after.flatten(),
    }
}

/// Run the full study: drive the stream, export the trace, and rebuild
/// the per-class tables from the serialized JSONL (round-tripping
/// through [`export::parse_jsonl`] so the tables certify the schema).
pub fn run_study(cfg: &SortStudyConfig) -> SortStudy {
    telemetry::enable();
    telemetry::drain(); // start from a clean ring
    let sites = SortSites::register(
        &format!("study/smallsort/{}", cfg.seed),
        NominalKind::EpsilonGreedy(0.10),
        cfg.seed,
    );
    let counts = drive(cfg, &sites);
    let trace_jsonl = export::to_jsonl(&telemetry::drain());
    let events = export::parse_jsonl(&trace_jsonl).expect("own trace must round-trip");
    let tables = counts
        .iter()
        .map(|&(class, requests)| {
            let tag = sites.class_site(class).id().tag();
            table_for(
                class,
                tag,
                requests,
                &measurements(&events, |e| e.site == tag),
            )
        })
        .collect();
    SortStudy {
        config: cfg.clone(),
        tables,
        measured_floor_ms: autotune::robust::timer_resolution_ms(),
        trace_jsonl,
    }
}

/// Human-readable per-class convergence table.
pub fn summary(study: &SortStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "smallsort study: {} classes x {} requests, timer tick {:.0}ns\n",
        study.tables.len(),
        study.config.requests_per_class,
        study.measured_floor_ms * 1e6,
    ));
    out.push_str("class  n-range        requests  measured  winner     conv@   median[us]\n");
    for t in &study.tables {
        let hi = 1u64 << t.class;
        let conv = t.converged_after.map_or("-".into(), |i| i.to_string());
        out.push_str(&format!(
            "{:>5}  {:>6}-{:<6}  {:>8}  {:>8}  {:<9}  {:>5}  {:>11.2}\n",
            t.class,
            hi / 2 + 1,
            hi,
            t.requests,
            t.measured,
            ALGORITHM_NAMES[t.winner],
            conv,
            t.final_median_ms * 1e3,
        ));
    }
    out.push_str(&format!(
        "distinct per-class winners: {}\n",
        study.distinct_winners()
    ));
    out
}

/// Write `smallsort.json` and `smallsort_trace.jsonl` into `out`.
pub fn save(study: &SortStudy, out: &std::path::Path) -> std::io::Result<()> {
    let tables: Vec<Json> = study
        .tables
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("class", Json::Num(t.class as f64)),
                ("tag", Json::Num(t.tag as f64)),
                ("n_max", Json::Num((1u64 << t.class) as f64)),
                ("requests", Json::Num(t.requests as f64)),
                ("measured", Json::Num(t.measured as f64)),
                (
                    "selections",
                    Json::Arr(t.selections.iter().map(|&c| Json::Num(c as f64)).collect()),
                ),
                ("winner", Json::Str(ALGORITHM_NAMES[t.winner].into())),
                ("final_median_ms", Json::Num(t.final_median_ms)),
                (
                    "converged_after",
                    t.converged_after
                        .map_or(Json::Null, |i| Json::Num(i as f64)),
                ),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("id", Json::Str("smallsort".into())),
        (
            "requests_per_class",
            Json::Num(study.config.requests_per_class as f64),
        ),
        ("seed", Json::Num(study.config.seed as f64)),
        ("measured_floor_ms", Json::Num(study.measured_floor_ms)),
        (
            "algorithms",
            Json::Arr(
                ALGORITHM_NAMES
                    .iter()
                    .map(|&n| Json::Str(n.into()))
                    .collect(),
            ),
        ),
        ("classes", Json::Arr(tables)),
        (
            "distinct_winners",
            Json::Num(study.distinct_winners() as f64),
        ),
    ]);
    std::fs::write(out.join("smallsort.json"), doc.to_string_pretty() + "\n")?;
    std::fs::write(out.join("smallsort_trace.jsonl"), &study.trace_jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SortStudyConfig {
        SortStudyConfig {
            classes: vec![4, 10],
            requests_per_class: 60,
            seed: 77001,
        }
    }

    #[test]
    fn study_tables_come_from_the_trace() {
        let _g = crate::ring_lock();
        let study = run_study(&tiny());
        assert_eq!(study.tables.len(), 2);
        for t in &study.tables {
            assert_eq!(t.requests, 60);
            assert!(t.measured > 0, "class {} never measured", t.class);
            assert!(
                t.measured <= t.requests,
                "class {}: more measurements than requests",
                t.class
            );
            assert_eq!(t.selections.iter().sum::<u64>(), t.measured);
            assert!(t.final_median_ms.is_finite() && t.final_median_ms > 0.0);
        }
        assert!(study.measured_floor_ms > 0.0);
        // The trace itself must hold the events the tables were built from.
        let events = export::parse_jsonl(&study.trace_jsonl).unwrap();
        assert!(!events.is_empty());
    }

    #[test]
    fn interleaved_classes_stay_isolated() {
        let _g = crate::ring_lock();
        // Each class's table counts exactly its own site's events: the
        // tags are distinct, and recounting the trace per tag reproduces
        // each table's `measured` (other tests' concurrent events carry
        // foreign tags and must not leak in).
        let study = run_study(&SortStudyConfig {
            seed: 77003,
            ..tiny()
        });
        assert_ne!(study.tables[0].tag, study.tables[1].tag);
        let events = export::parse_jsonl(&study.trace_jsonl).unwrap();
        for t in &study.tables {
            let ok_for_tag = events
                .iter()
                .filter(|e| e.site == t.tag)
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::Iteration {
                            status: MeasureStatus::Ok,
                            ..
                        }
                    )
                })
                .count() as u64;
            assert_eq!(
                t.measured, ok_for_tag,
                "class {}: table and trace must agree",
                t.class
            );
            // Every measured call was a tuning iteration, even after the
            // class site plateaued and started backing off.
            let iterations_for_tag = events
                .iter()
                .filter(|e| e.site == t.tag)
                .filter(|e| matches!(e.kind, EventKind::Iteration { .. }))
                .count() as u64;
            assert_eq!(
                t.measured, iterations_for_tag,
                "class {}: a measurement without a tuning iteration",
                t.class
            );
        }
    }

    #[test]
    fn save_writes_table_and_trace() {
        let _g = crate::ring_lock();
        let dir = std::env::temp_dir().join("smallsort_study_test");
        std::fs::create_dir_all(&dir).unwrap();
        let study = run_study(&SortStudyConfig {
            seed: 77005,
            requests_per_class: 40,
            ..tiny()
        });
        save(&study, &dir).unwrap();
        let doc =
            Json::parse(&std::fs::read_to_string(dir.join("smallsort.json")).unwrap()).unwrap();
        assert_eq!(doc.get("classes").and_then(Json::as_arr).unwrap().len(), 2);
        let trace = std::fs::read_to_string(dir.join("smallsort_trace.jsonl")).unwrap();
        assert!(export::parse_jsonl(&trace).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
