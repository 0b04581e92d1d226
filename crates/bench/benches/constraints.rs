//! Constraint handling under tuning: repair vs reject-and-retry.
//!
//! Two comparisons, both over the workloads' real constrained spaces
//! (the raytrace thread/lane budget of [`tunable::algorithm_specs_with_budget`]
//! and a budget-capped thread-count space shaped like the string-matching
//! deployment):
//!
//! 1. **Convergence** (scored, not timed): with a *deterministic* cost
//!    model — so the comparison is noise-free — how many tuning
//!    iterations does each paper strategy need until its running best is
//!    within 5% of the best value either mode ever reaches? Rejected
//!    proposals burn an iteration without a measurement; repaired ones
//!    measure a projected feasible point. The headline claim recorded in
//!    `BENCH_constraints.json`: repair needs no more iterations than
//!    reject-and-retry on both workloads.
//! 2. **Overhead** (timed): one full tuning loop per mode, measuring what
//!    feasibility checks and repairs cost on top of the loop itself.
//!
//! Persists `BENCH_constraints.json` at the workspace root.

use autotune::json::Json;
use autotune::param::{Parameter, Value};
use autotune::space::{Configuration, Constraint, SearchSpace};
use autotune::stats;
use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};
use bench::harness::Criterion;
use raytrace::tunable;
use std::hint::black_box;
use std::time::Duration;

/// Core budget shared by both workload models: small enough that the
/// greedy corner of every space is infeasible, so the constraints bind.
const BUDGET: usize = 2;

/// A deterministic per-algorithm cost function: `(algorithm index, config) -> cost`.
type CostFn = Box<dyn Fn(usize, &Configuration) -> f64>;

/// Deterministic per-algorithm cost model over a constrained space.
struct Workload {
    name: &'static str,
    specs: Vec<AlgorithmSpec>,
    cost: CostFn,
}

/// String-matching shape: four fixed-cost "matchers", each tunable over a
/// 1..=32 thread count that a `thread-budget` constraint caps at
/// [`BUDGET`]. Cost scales inversely with granted threads, so the optimum
/// sits exactly on the constraint boundary.
fn strings_workload() -> Workload {
    const BASES: [f64; 4] = [9.0, 5.0, 7.0, 12.0];
    let cap = BUDGET as i64;
    let specs = (0..BASES.len())
        .map(|i| {
            let space = SearchSpace::new(vec![Parameter::ratio("threads", 1, 32)]).with_constraint(
                Constraint::new("thread-budget", move |c: &Configuration| {
                    c.get(0).as_i64() <= cap
                })
                .with_repair(move |_c| Configuration::new(vec![Value::Int(cap)])),
            );
            AlgorithmSpec::new(format!("matcher-{i}"), space)
        })
        .collect();
    Workload {
        name: "strings-threads",
        specs,
        cost: Box::new(move |alg, c| {
            let threads = c.get(0).as_i64().clamp(1, cap) as f64;
            BASES[alg] / threads
        }),
    }
}

/// Raytracing shape: the four kD builders over their real budgeted spaces
/// ([`tunable::algorithm_specs_with_budget`]). Cost falls with the lane
/// count `2^depth × packet_width` (capped by the lane budget) and pays a
/// quadratic penalty for off-center SAH constants — again placing the
/// optimum on the constraint boundary.
fn raytrace_workload() -> Workload {
    const BASES: [f64; 4] = [7.0, 6.0, 8.0, 5.0];
    let specs = tunable::algorithm_specs_with_budget(BUDGET);
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let lane_budget = (4 * BUDGET) as f64;
    Workload {
        name: "raytrace-budget",
        specs,
        cost: Box::new(move |alg, c| {
            let bc = tunable::decode(&names[alg], c);
            let lanes = (1u64 << bc.parallel_depth) as f64 * tunable::decode_packet_width(c) as f64;
            let sah_pen = 1.0
                + ((bc.sah.traversal_cost - 12.0) / 30.0).powi(2) as f64
                + ((bc.sah.intersection_cost - 20.0) / 40.0).powi(2) as f64;
            BASES[alg] * sah_pen / lanes.min(lane_budget).sqrt()
        }),
    }
}

/// Strip the repairs off every spec: the reject-and-retry baseline.
fn without_repairs(specs: &[AlgorithmSpec]) -> Vec<AlgorithmSpec> {
    specs
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.space = s.space.without_repairs();
            s
        })
        .collect()
}

/// One tuning run: per-iteration values (NaN where the proposal was
/// rejected) plus the rejected-proposal count.
fn run_tuning(
    specs: &[AlgorithmSpec],
    cost: &dyn Fn(usize, &Configuration) -> f64,
    kind: NominalKind,
    seed: u64,
    iters: usize,
) -> (Vec<f64>, usize) {
    let mut tuner = TwoPhaseTuner::new(specs.to_vec(), kind, seed);
    let mut series = Vec::with_capacity(iters);
    for _ in 0..iters {
        let sample = tuner.step(|alg, c| cost(alg, c));
        series.push(if sample.failed {
            f64::NAN
        } else {
            sample.value
        });
    }
    (series, tuner.failure_counts().iter().sum())
}

/// 1-based iteration at which the running best first reaches `target`
/// (`iters + 1` when it never does — worse than any converged run).
fn iterations_to_target(series: &[f64], target: f64) -> usize {
    let mut running = f64::INFINITY;
    for (i, &v) in series.iter().enumerate() {
        if v.is_finite() && v < running {
            running = v;
        }
        if running <= target {
            return i + 1;
        }
    }
    series.len() + 1
}

fn finite_min(series: &[f64]) -> f64 {
    series
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(f64::INFINITY, f64::min)
}

/// Per-strategy convergence comparison on one workload.
struct StrategyVerdict {
    label: String,
    repair_iters: f64,
    reject_iters: f64,
    repair_rejected: usize,
    reject_rejected: usize,
}

/// Score every paper strategy on `workload`: median over `reps` seeds of
/// iterations-to-within-5%-of-pair-best, for both modes.
fn score_workload(workload: &Workload, reps: usize, iters: usize) -> Vec<StrategyVerdict> {
    let reject_specs = without_repairs(&workload.specs);
    let mut verdicts = Vec::new();
    for kind in NominalKind::paper_set() {
        let mut repair_iters = Vec::with_capacity(reps);
        let mut reject_iters = Vec::with_capacity(reps);
        let mut repair_rejected = 0usize;
        let mut reject_rejected = 0usize;
        for rep in 0..reps {
            let seed = 0xC0DE + rep as u64 * 7919;
            let (rp, rp_rej) = run_tuning(&workload.specs, &workload.cost, kind, seed, iters);
            let (rj, rj_rej) = run_tuning(&reject_specs, &workload.cost, kind, seed, iters);
            repair_rejected += rp_rej;
            reject_rejected += rj_rej;
            // Shared target: within 5% of the best value either mode found
            // with this seed. A self-referential per-mode target would let
            // the reject run "converge" quickly onto a worse best.
            let target = finite_min(&rp).min(finite_min(&rj)) * 1.05;
            repair_iters.push(iterations_to_target(&rp, target) as f64);
            reject_iters.push(iterations_to_target(&rj, target) as f64);
        }
        verdicts.push(StrategyVerdict {
            label: kind.label(),
            repair_iters: stats::median(&repair_iters),
            reject_iters: stats::median(&reject_iters),
            repair_rejected,
            reject_rejected,
        });
    }
    verdicts
}

/// Timed leg: a full tuning loop per mode, so the cost of feasibility
/// checks + repair projection is pinned against the reject path.
fn bench_tuning_overhead(c: &mut Criterion, workload: &Workload, iters: usize) {
    let reject_specs = without_repairs(&workload.specs);
    let mut group = c.benchmark_group(format!("constraints_{}", workload.name));
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for (mode, specs) in [("repair", &workload.specs), ("reject", &reject_specs)] {
        group.bench_function(mode, |b| {
            b.iter(|| {
                let (series, _) = run_tuning(
                    specs,
                    &workload.cost,
                    NominalKind::EpsilonGreedy(0.10),
                    7,
                    iters,
                );
                black_box(finite_min(&series))
            })
        });
    }
    group.finish();
}

fn result_json(r: &bench::harness::BenchResult) -> Json {
    Json::obj(vec![
        ("group", Json::Str(r.group.clone())),
        ("name", Json::Str(r.name.clone())),
        ("median_ns", Json::Num(r.median_ns)),
        ("min_ns", Json::Num(r.min_ns)),
        ("samples", Json::Num(r.samples as f64)),
    ])
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    let (reps, iters) = if quick { (3, 60) } else { (9, 150) };

    let workloads = [strings_workload(), raytrace_workload()];
    let mut workload_docs = Vec::new();
    let mut everywhere = true;
    for w in &workloads {
        let verdicts = score_workload(w, reps, iters);
        println!(
            "\n{} (budget {BUDGET}, {reps} reps × {iters} iters):",
            w.name
        );
        for v in &verdicts {
            let ok = v.repair_iters <= v.reject_iters;
            everywhere &= ok;
            println!(
                "  {:<24} repair {:>6.1} iters  reject {:>6.1} iters  ({} vs {} rejected){}",
                v.label,
                v.repair_iters,
                v.reject_iters,
                v.repair_rejected,
                v.reject_rejected,
                if ok { "" } else { "  REPAIR SLOWER" }
            );
        }
        workload_docs.push(Json::obj(vec![
            ("workload", Json::Str(w.name.to_string())),
            ("budget", Json::Num(BUDGET as f64)),
            ("reps", Json::Num(reps as f64)),
            ("iterations", Json::Num(iters as f64)),
            (
                "strategies",
                Json::Arr(
                    verdicts
                        .iter()
                        .map(|v| {
                            Json::obj(vec![
                                ("label", Json::Str(v.label.clone())),
                                ("repair_iters", Json::Num(v.repair_iters)),
                                ("reject_iters", Json::Num(v.reject_iters)),
                                ("repair_rejected", Json::Num(v.repair_rejected as f64)),
                                ("reject_rejected", Json::Num(v.reject_rejected as f64)),
                                (
                                    "repair_le_reject",
                                    Json::Bool(v.repair_iters <= v.reject_iters),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }

    let mut c = Criterion::default();
    for w in &workloads {
        bench_tuning_overhead(&mut c, w, iters);
    }
    c.final_summary();

    bench::write_bench_json(
        "constraints",
        vec![
            ("id", Json::Str("constraints".to_string())),
            ("budget", Json::Num(BUDGET as f64)),
            ("repair_le_reject_everywhere", Json::Bool(everywhere)),
            ("workloads", Json::Arr(workload_docs)),
            (
                "results",
                Json::Arr(c.results().iter().map(result_json).collect()),
            ),
        ],
    );
}
