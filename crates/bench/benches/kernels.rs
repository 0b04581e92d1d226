//! Kernel layer (timing side): scalar matcher inner loops vs their
//! SWAR/SSE2/AVX2 pair-scan variants on the paper's long query, and
//! single-ray vs packet raycasting through the kd-tree.
//!
//! Besides the console summary, this bench persists a machine-readable
//! `BENCH_kernels.json` at the workspace root (via the in-repo JSON
//! writer): per-variant timings, scalar-relative speedups, and an
//! ε-Greedy(10%) two-phase run over the kernel-extended algorithm set
//! showing whether online algorithmic choice discovers the vectorized
//! variant on this host.

use autotune::json::Json;
use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};
use bench::harness::{BenchResult, Criterion};
use raytrace::all_builders;
use raytrace::render::{render, RenderOptions};
use std::hint::black_box;
use std::time::Duration;
use stringmatch::scan::Kernel;
use stringmatch::{
    all_matchers_with_kernels, BoyerMoore, BoyerMooreSimd, Hash3, Hash3Simd, Horspool,
    HorspoolSimd, Hybrid, HybridSimd, Matcher, PAPER_QUERY,
};

const MATCHER_GROUP: &str = "kernels_matcher";
const RENDER_GROUP: &str = "kernels_render";

type VariantCtor = fn(Kernel) -> Box<dyn Matcher>;

/// The four matcher families, each as (scalar baseline, per-kernel SIMD
/// variant constructor).
fn families() -> Vec<(Box<dyn Matcher>, VariantCtor)> {
    vec![
        (Box::new(Horspool), |k| {
            Box::new(HorspoolSimd::with_kernel(k))
        }),
        (Box::new(BoyerMoore), |k| {
            Box::new(BoyerMooreSimd::with_kernel(k))
        }),
        (Box::new(Hash3), |k| Box::new(Hash3Simd::with_kernel(k))),
        (Box::new(Hybrid), |k| Box::new(HybridSimd::with_kernel(k))),
    ]
}

fn bench_matcher_kernels(c: &mut Criterion) {
    let text = bench::bench_corpus();
    let mut group = c.benchmark_group(MATCHER_GROUP);
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for (scalar, variant) in families() {
        group.bench_function(format!("{}/scalar", scalar.name()), |b| {
            b.iter(|| black_box(scalar.find_all(black_box(PAPER_QUERY), black_box(text))))
        });
        for k in Kernel::all_available() {
            let m = variant(k);
            group.bench_function(format!("{}/{}", scalar.name(), k.name()), |b| {
                b.iter(|| black_box(m.find_all(black_box(PAPER_QUERY), black_box(text))))
            });
        }
    }
    group.finish();
}

fn bench_packet_render(c: &mut Criterion) {
    let scene = bench::bench_scene();
    let builder = all_builders()
        .into_iter()
        .find(|b| b.name() == "Wald-Havran")
        .expect("reference builder exists");
    let accel = builder.build(&scene.triangles, &Default::default());
    let mut group = c.benchmark_group(RENDER_GROUP);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for packet_width in [1usize, 2, 4] {
        let opts = RenderOptions {
            width: 160,
            height: 120,
            threads: 1,
            packet_width,
        };
        group.bench_function(format!("packet_width={packet_width}"), |b| {
            b.iter(|| black_box(render(scene, accel.as_ref(), &opts)))
        });
    }
    group.finish();
}

/// ε-Greedy(10%) over the kernel-extended nominal set: the strategy must
/// *discover* a vectorized matcher online if one wins on this host.
fn tuner_convergence(iterations: usize) -> Json {
    let text = bench::bench_corpus();
    let matchers = all_matchers_with_kernels();
    let specs: Vec<AlgorithmSpec> = matchers
        .iter()
        .map(|m| AlgorithmSpec::untunable(m.name()))
        .collect();
    let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.10), 1701);
    for _ in 0..iterations {
        tuner.step(|alg, _| {
            let (hits, ms) =
                autotune::robust::time_ms(|| matchers[alg].find_all(PAPER_QUERY, text));
            assert!(!hits.is_empty(), "query must occur in the bench corpus");
            ms
        });
    }
    let counts = tuner.selection_counts();
    let winner = tuner.best_algorithm().expect("tuner has run");
    let winner_name = matchers[winner].name();
    Json::obj(vec![
        ("strategy", Json::Str("eps-greedy(10%)".into())),
        ("iterations", Json::Num(iterations as f64)),
        (
            "labels",
            Json::Arr(
                matchers
                    .iter()
                    .map(|m| Json::Str(m.name().into()))
                    .collect(),
            ),
        ),
        (
            "counts",
            Json::Arr(counts.iter().map(|&n| Json::Num(n as f64)).collect()),
        ),
        ("winner", Json::Str(winner_name.into())),
        (
            "winner_is_vectorized",
            Json::Bool(winner_name.ends_with("-SIMD")),
        ),
    ])
}

fn result_json(r: &BenchResult) -> Json {
    Json::obj(vec![
        ("group", Json::Str(r.group.clone())),
        ("name", Json::Str(r.name.clone())),
        ("median_ns", Json::Num(r.median_ns)),
        ("min_ns", Json::Num(r.min_ns)),
        ("samples", Json::Num(r.samples as f64)),
    ])
}

fn median_of(results: &[BenchResult], group: &str, name: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.group == group && r.name == name)
        .map(|r| r.median_ns)
}

/// Scalar-relative speedups, one entry per (family, kernel) and one per
/// packet width: `> 1` means the vectorized side wins.
fn speedups(results: &[BenchResult]) -> Vec<Json> {
    let mut out = Vec::new();
    for (scalar, _) in families() {
        let family = scalar.name();
        let Some(base) = median_of(results, MATCHER_GROUP, &format!("{family}/scalar")) else {
            continue;
        };
        for k in Kernel::all_available() {
            if let Some(v) = median_of(results, MATCHER_GROUP, &format!("{family}/{}", k.name())) {
                out.push(Json::obj(vec![
                    ("family", Json::Str(family.into())),
                    ("kernel", Json::Str(k.name().into())),
                    ("speedup", Json::Num(base / v)),
                ]));
            }
        }
    }
    if let Some(base) = median_of(results, RENDER_GROUP, "packet_width=1") {
        for w in [2usize, 4] {
            if let Some(v) = median_of(results, RENDER_GROUP, &format!("packet_width={w}")) {
                out.push(Json::obj(vec![
                    ("family", Json::Str("render".into())),
                    ("kernel", Json::Str(format!("packet_width={w}"))),
                    ("speedup", Json::Num(base / v)),
                ]));
            }
        }
    }
    out
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    let mut c = Criterion::default();
    bench_matcher_kernels(&mut c);
    bench_packet_render(&mut c);
    c.final_summary();

    let tuner = tuner_convergence(if quick { 30 } else { 150 });
    bench::write_bench_json(
        "kernels",
        vec![
            ("id", Json::Str("kernels".into())),
            (
                "corpus_bytes",
                Json::Num(bench::bench_corpus().len() as f64),
            ),
            ("pattern_len", Json::Num(PAPER_QUERY.len() as f64)),
            (
                "host_kernels",
                Json::Arr(
                    Kernel::all_available()
                        .into_iter()
                        .map(|k| Json::Str(k.name().into()))
                        .collect(),
                ),
            ),
            (
                "results",
                Json::Arr(c.results().iter().map(result_json).collect()),
            ),
            ("speedups", Json::Arr(speedups(c.results()))),
            ("tuner", tuner),
        ],
    );
}
