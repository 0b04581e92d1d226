//! Shared fixtures and the in-repo benchmark harness.
//!
//! Each bench target regenerates the timing side of one paper artifact
//! (see `crates/bench/benches/`); the full statistical experiments — 100
//! repetitions, medians over iterations — live in the `experiments`
//! binary, which produces the actual figure data.
//!
//! The build environment is fully offline, so `criterion` is replaced by
//! [`harness`]: a deliberately small measured-loop runner with the same
//! group/bench_function surface, median-of-samples reporting, and a
//! `BENCH_QUICK=1` smoke mode for CI.

use autotune::json::Json;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// A 256 KiB bible-like corpus, built once per bench process.
pub fn bench_corpus() -> &'static [u8] {
    static CORPUS: OnceLock<Vec<u8>> = OnceLock::new();
    CORPUS.get_or_init(|| stringmatch::corpus::bible_like_with(99, 256 << 10, 4_000))
}

/// A detail-1 cathedral scene, built once per bench process.
pub fn bench_scene() -> &'static raytrace::Scene {
    static SCENE: OnceLock<raytrace::Scene> = OnceLock::new();
    SCENE.get_or_init(|| raytrace::cathedral(99, 1))
}

/// Write `BENCH_<bench>.json` at the workspace root and print its path.
/// The file starts with a header that every bench shares, so files
/// written on different commits and hosts can be compared: `bench`,
/// `commit` (`git rev-parse HEAD`, or `unknown` outside git),
/// `host_cores` (`available_parallelism`), `quick` (`BENCH_QUICK`) and
/// `timer_resolution_ms`. The bench's own `fields` follow.
pub fn write_bench_json(bench: &str, fields: Vec<(&str, Json)>) {
    let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, bench_doc(bench, fields).to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\n→ {path}");
}

/// The document [`write_bench_json`] writes: the header, then `fields`.
fn bench_doc(bench: &str, fields: Vec<(&str, Json)>) -> Json {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut pairs = vec![
        ("bench", Json::Str(bench.into())),
        ("commit", Json::Str(git_commit())),
        ("host_cores", Json::Num(host_cores as f64)),
        ("quick", Json::Bool(harness::quick_mode())),
        (
            "timer_resolution_ms",
            Json::Num(autotune::robust::timer_resolution_ms()),
        ),
    ];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// `git rev-parse HEAD` of the workspace, or `unknown` when it is not a
/// git checkout (an enclosing repository's commit would be wrong).
fn git_commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["-C", root, "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub mod harness {
    //! A minimal benchmark runner mirroring the subset of the criterion
    //! API the bench targets use: calibrated iteration batches, a fixed
    //! number of timed samples, and median/min reporting per bench.

    use std::time::{Duration, Instant};

    /// Batching hint, kept for criterion-API familiarity. The harness
    /// re-runs setup before every routine invocation either way.
    #[derive(Debug, Clone, Copy)]
    pub enum BatchSize {
        SmallInput,
    }

    /// Top-level runner: owns the collected results for a final summary.
    #[derive(Default)]
    pub struct Criterion {
        results: Vec<BenchResult>,
    }

    /// One bench's timing summary, in nanoseconds per iteration.
    #[derive(Debug, Clone)]
    pub struct BenchResult {
        pub group: String,
        pub name: String,
        pub median_ns: f64,
        pub min_ns: f64,
        pub samples: usize,
    }

    /// Is `BENCH_QUICK` set (to anything but `0`)?
    pub fn quick_mode() -> bool {
        std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
    }

    impl Criterion {
        pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
            BenchmarkGroup {
                criterion: self,
                group: name.into(),
                sample_size: 20,
                measurement_time: Duration::from_secs(2),
            }
        }

        /// Print a one-line-per-bench summary of everything measured.
        pub fn final_summary(&self) {
            println!();
            println!("{:<58} {:>14} {:>14}", "benchmark", "median", "min");
            for r in &self.results {
                println!(
                    "{:<58} {:>14} {:>14}",
                    format!("{}/{}", r.group, r.name),
                    format_ns(r.median_ns),
                    format_ns(r.min_ns),
                );
            }
        }

        /// All collected results (used by tests and comparison benches).
        pub fn results(&self) -> &[BenchResult] {
            &self.results
        }
    }

    fn format_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.1} ns")
        }
    }

    /// A named group of benches sharing sample/time settings.
    pub struct BenchmarkGroup<'a> {
        criterion: &'a mut Criterion,
        group: String,
        sample_size: usize,
        measurement_time: Duration,
    }

    impl BenchmarkGroup<'_> {
        pub fn sample_size(&mut self, n: usize) -> &mut Self {
            self.sample_size = n.max(2);
            self
        }

        pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
            self.measurement_time = t;
            self
        }

        /// Measure one bench: calibrate the per-sample iteration count so
        /// the whole bench fits the group's measurement time, collect the
        /// samples, and record median/min nanoseconds per iteration.
        pub fn bench_function(
            &mut self,
            name: impl Into<String>,
            mut f: impl FnMut(&mut Bencher),
        ) -> &mut Self {
            let name = name.into();
            let (samples, budget) = if quick_mode() {
                (2, Duration::from_millis(50))
            } else {
                (self.sample_size, self.measurement_time)
            };

            // Calibration pass: one measured iteration (also the warmup).
            let mut bencher = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            f(&mut bencher);
            let per_iter = bencher.elapsed.max(Duration::from_nanos(1));
            let per_sample = budget.div_duration_f64(per_iter) / samples as f64;
            let iters = (per_sample as u64).clamp(1, 1 << 24);

            let mut ns_per_iter: Vec<f64> = (0..samples)
                .map(|_| {
                    let mut b = Bencher {
                        iters,
                        elapsed: Duration::ZERO,
                    };
                    f(&mut b);
                    b.elapsed.as_secs_f64() * 1e9 / iters as f64
                })
                .collect();
            ns_per_iter.sort_by(f64::total_cmp);
            let result = BenchResult {
                group: self.group.clone(),
                name: name.clone(),
                median_ns: ns_per_iter[ns_per_iter.len() / 2],
                min_ns: ns_per_iter[0],
                samples,
            };
            println!(
                "{:<58} {:>14} (min {:>12}, {} samples x {} iters)",
                format!("{}/{}", self.group, name),
                format_ns(result.median_ns),
                format_ns(result.min_ns),
                samples,
                iters,
            );
            self.criterion.results.push(result);
            self
        }

        pub fn finish(&mut self) {}
    }

    /// Passed to the bench closure; `iter`/`iter_batched` run the measured
    /// loop for the harness-chosen iteration count.
    pub struct Bencher {
        iters: u64,
        elapsed: Duration,
    }

    impl Bencher {
        /// Time `routine` over the calibrated iteration count.
        pub fn iter<T>(&mut self, mut routine: impl FnMut() -> T) {
            let start = Instant::now();
            for _ in 0..self.iters {
                std::hint::black_box(routine());
            }
            self.elapsed = start.elapsed();
        }

        /// Time `routine` on fresh `setup()` output each iteration; setup
        /// time is excluded from the measurement.
        pub fn iter_batched<S, T>(
            &mut self,
            mut setup: impl FnMut() -> S,
            mut routine: impl FnMut(S) -> T,
            _size: BatchSize,
        ) {
            let mut total = Duration::ZERO;
            for _ in 0..self.iters {
                let input = setup();
                let start = Instant::now();
                std::hint::black_box(routine(input));
                total += start.elapsed();
            }
            self.elapsed = total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fixtures_are_cached_and_nonempty() {
        let a = bench_corpus().as_ptr();
        let b = bench_corpus().as_ptr();
        assert_eq!(a, b, "corpus built once");
        assert!(bench_corpus().len() >= 256 << 10);
        assert!(!bench_scene().triangles.is_empty());
    }

    #[test]
    fn bench_files_start_with_the_shared_header() {
        let doc = bench_doc("unit", vec![("id", Json::Str("unit".into()))]);
        let Json::Obj(pairs) = &doc else {
            panic!("a bench file is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let header = [
            "bench",
            "commit",
            "host_cores",
            "quick",
            "timer_resolution_ms",
        ];
        assert_eq!((&keys[..5], &keys[5..]), (&header[..], &["id"][..]));
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("unit"));
        assert!(!doc.get("commit").and_then(Json::as_str).unwrap().is_empty());
        let num = |key| doc.get(key).and_then(Json::as_f64).unwrap();
        assert!(num("host_cores") >= 1.0 && num("timer_resolution_ms") > 0.0);
    }

    #[test]
    fn harness_measures_and_records() {
        std::env::set_var("BENCH_QUICK", "1");
        let mut c = harness::Criterion::default();
        let mut g = c.benchmark_group("unit");
        g.sample_size(3).measurement_time(Duration::from_millis(30));
        g.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.iter().sum::<u64>(),
                harness::BatchSize::SmallInput,
            )
        });
        g.finish();
        let results = c.results();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.median_ns > 0.0));
        assert!(results.iter().all(|r| r.min_ns <= r.median_ns));
        c.final_summary();
    }
}
