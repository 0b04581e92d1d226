//! The bridge between the raytracer and the autotuner: each construction
//! algorithm's tuning space `T_A`, its hand-crafted starting configuration,
//! and the decoding of tuner configurations into [`BuildConfig`]s.
//!
//! Per the paper: "The parallelization depth as well as the parameters of
//! the SAH heuristic are tunable parameters in all algorithms. The Lazy
//! algorithm adds another parameter, controlling the eager construction
//! cutoff."

use crate::kdtree::{BuildConfig, KdBuilder};
use crate::render::{frame, RenderOptions};
use crate::sah::SahParams;
use crate::scene::Scene;
use autotune::param::{Parameter, Value};
use autotune::robust::{robust_call, MeasureOutcome, RobustOptions};
use autotune::space::{Configuration, Constraint, SearchSpace};
use autotune::two_phase::AlgorithmSpec;

/// Parameter order inside each algorithm's configuration: thread-tree
/// depth first.
pub const PARAM_PARALLEL_DEPTH: usize = 0;
/// SAH traversal-cost constant.
pub const PARAM_TRAVERSAL_COST: usize = 1;
/// SAH intersection-cost constant.
pub const PARAM_INTERSECTION_COST: usize = 2;
/// Ray-packet width exponent of the raycasting stage (width `2^e`).
pub const PARAM_PACKET_EXP: usize = 3;
/// Lazy only.
pub const PARAM_EAGER_CUTOFF: usize = 4;

/// The common tunable parameters of every builder.
fn common_params() -> Vec<Parameter> {
    vec![
        // Ratio: thread-tree depth has a natural zero (sequential).
        Parameter::ratio("parallel_depth", 0, 6),
        // Interval: SAH costs are relative weights without a natural zero
        // in their useful range.
        Parameter::interval("sah_traversal_cost", 1, 60),
        Parameter::interval("sah_intersection_cost", 1, 60),
        // Stage-2 ray-packet width, as the exponent of a power of two
        // (1, 2, or 4 rays per packet). Interval: the Nelder-Mead simplex
        // walks it like any other integer knob; whether wider packets pay
        // off depends on scene coherence, which only measuring can tell.
        Parameter::interval("packet_exp", 0, 2),
    ]
}

/// The host's core budget the default tuning spaces are constrained to:
/// [`std::thread::available_parallelism`], or 1 when detection fails.
pub fn default_core_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Deepest thread-tree depth a `cores`-wide host can fill without
/// oversubscribing: `ceil(log2(cores))` (depth 0 — sequential — on a
/// single core).
pub fn max_depth_for_budget(cores: usize) -> i64 {
    cores.max(1).next_power_of_two().trailing_zeros() as i64
}

/// The feasibility constraints a `cores`-wide host imposes on every
/// builder's space:
///
/// * `thread-budget` — `2^parallel_depth` worker subtrees must not exceed
///   the core budget; repair clamps the depth down.
/// * `lane-budget` — build parallelism times ray-packet width must stay
///   within 4× the core budget (packets beyond that only add masked-lane
///   waste); repair narrows the packet first, preserving the depth the
///   thread budget allows.
fn budget_constraints(cores: usize) -> Vec<Constraint> {
    let cores = cores.max(1);
    let max_depth = max_depth_for_budget(cores);
    let thread = Constraint::new("thread-budget", move |c: &Configuration| {
        c.get(PARAM_PARALLEL_DEPTH).as_i64() <= max_depth
    })
    .with_repair(move |c: &Configuration| {
        let mut values = c.values().to_vec();
        let depth = c.get(PARAM_PARALLEL_DEPTH).as_i64().min(max_depth);
        values[PARAM_PARALLEL_DEPTH] = Value::Int(depth);
        Configuration::new(values)
    });
    let lane_budget = 4 * cores as i64;
    let lanes_of = |c: &Configuration| {
        let depth = c.get(PARAM_PARALLEL_DEPTH).as_i64().clamp(0, 30);
        let exp = c.get(PARAM_PACKET_EXP).as_i64().clamp(0, 2);
        (1i64 << depth) * (1i64 << exp)
    };
    let lanes = Constraint::new("lane-budget", move |c: &Configuration| {
        lanes_of(c) <= lane_budget
    })
    .with_repair(move |c: &Configuration| {
        let depth = c.get(PARAM_PARALLEL_DEPTH).as_i64().clamp(0, 30);
        let mut exp = c.get(PARAM_PACKET_EXP).as_i64().clamp(0, 2);
        while exp > 0 && (1i64 << depth) * (1i64 << exp) > lane_budget {
            exp -= 1;
        }
        let mut values = c.values().to_vec();
        values[PARAM_PACKET_EXP] = Value::Int(exp);
        Configuration::new(values)
    });
    vec![thread, lanes]
}

/// The tuning space of a builder under an explicit core budget: the box of
/// [`space_for`] plus `thread-budget`/`lane-budget` constraints. The
/// experiments' repair-vs-reject study sweeps this over 1/2/8-core budgets.
pub fn space_for_with_budget(builder: &str, cores: usize) -> SearchSpace {
    let mut params = common_params();
    if builder == "Lazy" {
        params.push(Parameter::ratio("eager_cutoff", 0, 16));
    }
    SearchSpace::new(params).with_constraints(budget_constraints(cores))
}

/// The tuning space of a builder, by its figure name, constrained to the
/// host's core budget ([`default_core_budget`]).
pub fn space_for(builder: &str) -> SearchSpace {
    space_for_with_budget(builder, default_core_budget())
}

/// [`start_for`] under an explicit core budget: the hand-crafted depth 3
/// is clamped to what the budget's thread constraint allows, so the start
/// is feasible (not merely inside the box) on any host.
pub fn start_for_with_budget(builder: &str, cores: usize) -> Configuration {
    // packet_exp starts at 0 (single-ray): the conservative hand-crafted
    // baseline; the tuner must *discover* that packets pay off.
    let depth = 3i64.min(max_depth_for_budget(cores));
    let mut values = vec![
        Value::Int(depth),
        Value::Int(15),
        Value::Int(20),
        Value::Int(0),
    ];
    if builder == "Lazy" {
        values.push(Value::Int(8));
    }
    space_for_with_budget(builder, cores)
        .configuration(values)
        .expect("start configuration is in the space")
}

/// The hand-crafted best-practice starting configuration the paper's
/// tuner begins from (Wald-Havran SAH constants, moderate parallelism),
/// clamped to the host's core budget.
pub fn start_for(builder: &str) -> Configuration {
    start_for_with_budget(builder, default_core_budget())
}

/// Decode a tuner configuration for `builder` into a [`BuildConfig`].
pub fn decode(builder: &str, config: &Configuration) -> BuildConfig {
    let mut out = BuildConfig {
        sah: SahParams {
            traversal_cost: config.get(PARAM_TRAVERSAL_COST).as_i64() as f32,
            intersection_cost: config.get(PARAM_INTERSECTION_COST).as_i64() as f32,
        },
        parallel_depth: config.get(PARAM_PARALLEL_DEPTH).as_i64() as u32,
        ..Default::default()
    };
    if builder == "Lazy" {
        out.eager_cutoff = config.get(PARAM_EAGER_CUTOFF).as_i64() as u32;
    }
    out
}

/// Ray-packet width encoded in a configuration: `2^packet_exp ∈ {1, 2, 4}`.
pub fn decode_packet_width(config: &Configuration) -> usize {
    1usize << config.get(PARAM_PACKET_EXP).as_i64().clamp(0, 2)
}

/// Apply a configuration's raycasting parameters on top of base raster
/// options (the raster size and thread budget stay the caller's choice).
pub fn decode_render(config: &Configuration, base: &RenderOptions) -> RenderOptions {
    RenderOptions {
        packet_width: decode_packet_width(config),
        ..*base
    }
}

/// The tuning loop's measurement entry point: decode the configuration,
/// render one frame, and return its total time through the robust pipeline.
/// A builder or raycaster panic on a degenerate configuration becomes
/// [`MeasureOutcome::Failed`] (and a configured deadline in `opts` turns a
/// runaway build into [`MeasureOutcome::TimedOut`]) instead of crashing the
/// rendering loop the tuner is embedded in.
pub fn measure_frame(
    scene: &Scene,
    builder: &dyn KdBuilder,
    config: &Configuration,
    base: &RenderOptions,
    opts: &RobustOptions,
) -> MeasureOutcome {
    use autotune::telemetry::{self, EventKind, SpanKind};
    let build_config = decode(builder.name(), config);
    let render_opts = decode_render(config, base);
    telemetry::emit(|| EventKind::SpanBegin {
        span: SpanKind::Frame,
    });
    let outcome = robust_call(opts, || {
        frame(scene, builder, &build_config, &render_opts).total_ms()
    });
    telemetry::emit(|| EventKind::SpanEnd {
        span: SpanKind::Frame,
    });
    outcome
}

/// The four algorithms as [`AlgorithmSpec`]s for the two-phase tuner, in
/// figure order, each with its hand-crafted start and the budget
/// constraints of an explicit core budget.
pub fn algorithm_specs_with_budget(cores: usize) -> Vec<AlgorithmSpec> {
    crate::kdtree::all_builders()
        .iter()
        .map(|b| {
            AlgorithmSpec::new(b.name(), space_for_with_budget(b.name(), cores))
                .with_start(start_for_with_budget(b.name(), cores))
        })
        .collect()
}

/// The four algorithms as [`AlgorithmSpec`]s for the two-phase tuner, in
/// figure order, each with its hand-crafted start, constrained to the
/// host's core budget.
pub fn algorithm_specs() -> Vec<AlgorithmSpec> {
    algorithm_specs_with_budget(default_core_budget())
}

/// A site blueprint selecting over the four builders with their full
/// per-algorithm tuning spaces — case study 2 as one entry in the
/// concurrent multi-site runtime ([`autotune::site`]).
pub fn frame_site_spec(
    name: impl Into<String>,
    nominal: autotune::two_phase::NominalKind,
    seed: u64,
) -> autotune::site::SiteSpec {
    autotune::site::SiteSpec::algorithms(name, algorithm_specs(), nominal, seed)
}

/// One site-dispatched frame: the site picks the builder and its
/// configuration, [`measure_frame`] renders under the robust pipeline, and
/// the outcome feeds back into the site's tuner (claim winner) or is
/// recorded as exploit traffic.
///
/// `builders` must be index-aligned with the site's algorithm set —
/// normally [`crate::kdtree::all_builders`] matching [`frame_site_spec`].
pub fn measure_frame_site(
    site: autotune::site::Site,
    builders: &[Box<dyn KdBuilder>],
    scene: &Scene,
    base: &RenderOptions,
    opts: &RobustOptions,
) -> MeasureOutcome {
    let guard = site.pre();
    let outcome = measure_frame(
        scene,
        builders[guard.algorithm()].as_ref(),
        guard.config(),
        base,
        opts,
    );
    guard.post_outcome(outcome.clone());
    outcome
}

/// One request-sized, site-dispatched render: the serving entry point
/// ([`autotune::serve`]). The site picks the builder and configuration,
/// one (small) frame renders, and the guard's wall time feeds the tuner.
/// Returns `(mean_luminance, elapsed_ms)` — the luminance is a cheap
/// image fingerprint for the response payload, the runtime is what the
/// server's per-site drift monitor ([`autotune::drift`]) observes. It is
/// `NaN` for an untuned call the site's timing stride left untimed,
/// which a ms-scale frame's stride of 1 never does
/// ([`autotune::site::Site::timing_stride`]).
pub fn render_request(
    site: autotune::site::Site,
    builders: &[Box<dyn KdBuilder>],
    scene: &Scene,
    base: &RenderOptions,
) -> (f32, f64) {
    let guard = site.pre();
    let builder = builders[guard.algorithm()].as_ref();
    let build_config = decode(builder.name(), guard.config());
    let render_opts = decode_render(guard.config(), base);
    let result = frame(scene, builder, &build_config, &render_opts);
    let ms = guard.post();
    (result.mean_luminance(), ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_has_the_extra_parameter() {
        assert_eq!(space_for("Inplace").dims(), 4);
        assert_eq!(space_for("Nested").dims(), 4);
        assert_eq!(space_for("Wald-Havran").dims(), 4);
        assert_eq!(space_for("Lazy").dims(), 5);
    }

    #[test]
    fn start_config_is_wald_havran_best_practice() {
        let c = start_for("Wald-Havran");
        let bc = decode("Wald-Havran", &c);
        assert_eq!(bc.sah.traversal_cost, 15.0);
        assert_eq!(bc.sah.intersection_cost, 20.0);
        // Depth 3 unless the host's core budget can't fill it.
        let expected = 3i64.min(max_depth_for_budget(default_core_budget()));
        assert_eq!(bc.parallel_depth as i64, expected);
        // Hand-crafted baseline renders single-ray.
        assert_eq!(decode_packet_width(&c), 1);
    }

    #[test]
    fn budget_constraints_cap_depth_and_packets() {
        for cores in [1usize, 2, 8] {
            let max_depth = max_depth_for_budget(cores);
            for builder in ["Inplace", "Lazy", "Nested", "Wald-Havran"] {
                let space = space_for_with_budget(builder, cores);
                assert!(space.is_constrained());
                // The start is feasible on every budget, not just in the box.
                let start = start_for_with_budget(builder, cores);
                assert!(space.is_feasible(&start), "{builder} @ {cores} cores");
                // An oversubscribed proposal repairs into the budget.
                let mut greedy: Vec<Value> = start.values().to_vec();
                greedy[PARAM_PARALLEL_DEPTH] = Value::Int(6);
                greedy[PARAM_PACKET_EXP] = Value::Int(2);
                let repaired = space
                    .repair(&Configuration::new(greedy))
                    .expect("budget constraints are always repairable");
                assert!(space.is_feasible(&repaired));
                let depth = repaired.get(PARAM_PARALLEL_DEPTH).as_i64();
                assert!(depth <= max_depth, "{depth} > {max_depth} @ {cores}");
                let lanes = (1i64 << depth) * decode_packet_width(&repaired) as i64;
                assert!(lanes <= 4 * cores as i64);
            }
        }
    }

    #[test]
    fn single_core_budget_forces_sequential_builds() {
        let space = space_for_with_budget("Inplace", 1);
        let mut rng = autotune::rng::Rng::new(11);
        for _ in 0..50 {
            let c = space.random_feasible(&mut rng);
            assert_eq!(c.get(PARAM_PARALLEL_DEPTH).as_i64(), 0, "{c:?}");
        }
    }

    #[test]
    fn lazy_start_has_cutoff() {
        let c = start_for("Lazy");
        let bc = decode("Lazy", &c);
        assert_eq!(bc.eager_cutoff, 8);
    }

    #[test]
    fn decode_round_trips_random_configs() {
        let mut rng = autotune::rng::Rng::new(3);
        for builder in ["Inplace", "Lazy", "Nested", "Wald-Havran"] {
            let space = space_for(builder);
            for _ in 0..50 {
                let c = space.random(&mut rng);
                let bc = decode(builder, &c);
                assert!((0..=6).contains(&bc.parallel_depth));
                assert!((1.0..=60.0).contains(&bc.sah.traversal_cost));
                assert!((1.0..=60.0).contains(&bc.sah.intersection_cost));
                assert!([1, 2, 4].contains(&decode_packet_width(&c)));
                let opts = decode_render(&c, &RenderOptions::default());
                assert_eq!(opts.packet_width, decode_packet_width(&c));
                assert_eq!(opts.width, RenderOptions::default().width);
                if builder == "Lazy" {
                    assert!(bc.eager_cutoff <= 16);
                }
            }
        }
    }

    #[test]
    fn measure_frame_returns_a_positive_sample() {
        let scene = crate::scene::cathedral(3, 1);
        let builders = crate::kdtree::all_builders();
        let base = RenderOptions {
            width: 16,
            height: 12,
            threads: 2,
            packet_width: 1,
        };
        let opts = RobustOptions::default();
        for b in &builders {
            let c = start_for(b.name());
            let out = measure_frame(&scene, b.as_ref(), &c, &base, &opts);
            let ms = out.ok().unwrap_or_else(|| panic!("{}: {out:?}", b.name()));
            assert!(ms > 0.0, "{}", b.name());
        }
    }

    #[test]
    fn site_dispatch_renders_and_tunes() {
        use autotune::two_phase::NominalKind;
        let site = autotune::site::site(autotune::site::register(frame_site_spec(
            "rt-test",
            NominalKind::EpsilonGreedy(0.10),
            19,
        )));
        assert_eq!(site.num_algorithms(), 4);
        let scene = crate::scene::cathedral(3, 1);
        let builders = crate::kdtree::all_builders();
        let base = RenderOptions {
            width: 16,
            height: 12,
            threads: 2,
            packet_width: 1,
        };
        let opts = RobustOptions::default();
        for _ in 0..4 {
            let out = measure_frame_site(site, &builders, &scene, &base, &opts);
            assert!(out.is_ok(), "{out:?}");
        }
        assert_eq!(site.calls(), 4);
        site.with_tuner(|t| {
            assert_eq!(t.as_two_phase().unwrap().iterations(), 4);
        });
    }

    #[test]
    fn render_request_returns_fingerprint_and_time() {
        use autotune::two_phase::NominalKind;
        let site = autotune::site::site(autotune::site::register(frame_site_spec(
            "rt-req",
            NominalKind::EpsilonGreedy(0.10),
            23,
        )));
        let scene = crate::scene::cathedral(3, 1);
        let builders = crate::kdtree::all_builders();
        let base = RenderOptions {
            width: 16,
            height: 12,
            threads: 1,
            packet_width: 1,
        };
        let (lum, ms) = render_request(site, &builders, &scene, &base);
        assert!((0.0..=1.0).contains(&lum), "{lum}");
        assert!(ms > 0.0);
        assert_eq!(site.calls(), 1);
    }

    #[test]
    fn specs_cover_all_builders_in_figure_order() {
        let specs = algorithm_specs();
        let names: Vec<_> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["Inplace", "Lazy", "Nested", "Wald-Havran"]);
        for s in &specs {
            assert!(s.start.is_some(), "{} needs a hand-crafted start", s.name);
        }
    }
}
