//! Case study 2: raytracing with tunable SAH kD-tree construction
//! (Section IV-B, Figures 5-8).
//!
//! The tuning loop *is* the rendering loop: each frame, the online tuner
//! selects a construction algorithm and a parameter configuration for it,
//! the frame is rendered through the two-stage pipeline, and the frame
//! time is reported back. Each builder starts from the hand-crafted
//! best-practice configuration, which is why Figure 5 shows a leap on the
//! very first tuning iteration.

use crate::cs1::Cs1Runs;
use crate::report::{GroupedBoxFigure, SeriesFigure};
use autotune::stats;
use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};
use raytrace::render::{frame, RenderOptions};
use raytrace::scene::{cathedral, Scene};
use raytrace::tunable;

/// Experiment scale knobs; defaults are the quick profile.
#[derive(Debug, Clone)]
pub struct Cs2Config {
    /// Cathedral detail (3 ≈ Sibenik's ~75k triangles).
    pub detail: u32,
    /// Frames per experiment (paper: 100).
    pub frames: usize,
    /// Experiment repetitions (paper: 100).
    pub reps: usize,
    pub width: usize,
    pub height: usize,
    pub render_threads: usize,
    pub seed: u64,
}

impl Default for Cs2Config {
    fn default() -> Self {
        Cs2Config {
            detail: 1,
            frames: 40,
            reps: 5,
            width: 96,
            height: 72,
            render_threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            seed: 20160523,
        }
    }
}

impl Cs2Config {
    /// The paper's scale: Sibenik-sized scene, 100 frames × 100 reps.
    pub fn paper() -> Self {
        Cs2Config {
            detail: 3,
            frames: 100,
            reps: 100,
            width: 256,
            height: 192,
            ..Default::default()
        }
    }

    pub fn scene(&self) -> Scene {
        cathedral(self.seed, self.detail)
    }

    pub(crate) fn render_options(&self) -> RenderOptions {
        RenderOptions {
            width: self.width,
            height: self.height,
            threads: self.render_threads,
            packet_width: 1,
        }
    }
}

/// The four builder names in figure order.
pub fn algorithm_names() -> Vec<String> {
    raytrace::all_builders()
        .iter()
        .map(|b| b.name().to_string())
        .collect()
}

/// Figure 5: per-algorithm Nelder-Mead tuning timelines. Each builder is
/// tuned alone (a one-algorithm tuner: no algorithmic choice) for `frames`
/// iterations; the series are frame times averaged over repetitions.
pub fn fig5(cfg: &Cs2Config) -> SeriesFigure {
    let scene = cfg.scene();
    let opts = cfg.render_options();
    let builders = raytrace::all_builders();
    let mut series = Vec::new();
    for b in &builders {
        let mut reps: Vec<Vec<f64>> = Vec::with_capacity(cfg.reps);
        for _rep in 0..cfg.reps {
            let spec = AlgorithmSpec::new(b.name(), tunable::space_for(b.name()))
                .with_start(tunable::start_for(b.name()));
            let mut tuner = TwoPhaseTuner::new(vec![spec], NominalKind::OptimumWeighted, cfg.seed);
            let mut m = |_: usize, c: &autotune::space::Configuration| {
                let config = tunable::decode(b.name(), c);
                let ropts = tunable::decode_render(c, &opts);
                frame(&scene, b.as_ref(), &config, &ropts).total_ms()
            };
            let mut run = Vec::with_capacity(cfg.frames);
            for _ in 0..cfg.frames {
                run.push(tuner.step(&mut m).value);
            }
            reps.push(run);
        }
        series.push((
            b.name().to_string(),
            stats::per_iteration_reduce(&reps, stats::mean),
        ));
    }
    SeriesFigure {
        id: "fig5".into(),
        title: "Raytracing: per-algorithm Nelder-Mead tuning timeline".into(),
        xlabel: "iteration".into(),
        ylabel: "time [ms]".into(),
        series,
    }
}

/// Run the combined experiment (algorithmic choice + per-algorithm tuning)
/// for all six strategies. Reuses the [`Cs1Runs`] container shape.
pub fn run_tuning(cfg: &Cs2Config) -> Cs1Runs {
    let scene = cfg.scene();
    let opts = cfg.render_options();
    let builders = raytrace::all_builders();
    let specs = tunable::algorithm_specs();

    let mut times = Vec::new();
    let mut counts = Vec::new();
    for (si, (_, kind)) in crate::cs1::strategies().iter().enumerate() {
        let mut strat_times = Vec::with_capacity(cfg.reps);
        let mut strat_counts = Vec::with_capacity(cfg.reps);
        for rep in 0..cfg.reps {
            let seed = cfg
                .seed
                .wrapping_add(rep as u64 * 6007)
                .wrapping_add(si as u64 * 104729);
            let mut tuner = TwoPhaseTuner::new(specs.clone(), *kind, seed);
            let mut run = Vec::with_capacity(cfg.frames);
            for _ in 0..cfg.frames {
                let sample = tuner.step(|alg, c| {
                    let name = builders[alg].name();
                    let config = tunable::decode(name, c);
                    let ropts = tunable::decode_render(c, &opts);
                    frame(&scene, builders[alg].as_ref(), &config, &ropts).total_ms()
                });
                run.push(sample.value);
            }
            strat_times.push(run);
            strat_counts.push(tuner.selection_counts());
        }
        times.push(strat_times);
        counts.push(strat_counts);
    }
    Cs1Runs {
        times,
        counts,
        strategy_labels: crate::cs1::strategies()
            .into_iter()
            .map(|(l, _)| l)
            .collect(),
        algorithm_labels: algorithm_names(),
    }
}

/// Figure 6: median per-iteration frame time of every strategy.
pub fn fig6(runs: &Cs1Runs) -> SeriesFigure {
    reduce_figure(runs, "fig6", "median", stats::median)
}

/// Figure 7: mean per-iteration frame time.
pub fn fig7(runs: &Cs1Runs) -> SeriesFigure {
    reduce_figure(runs, "fig7", "mean", stats::mean)
}

fn reduce_figure(runs: &Cs1Runs, id: &str, name: &str, reducer: fn(&[f64]) -> f64) -> SeriesFigure {
    let series = runs
        .strategy_labels
        .iter()
        .zip(&runs.times)
        .map(|(label, reps)| (label.clone(), stats::per_iteration_reduce(reps, reducer)))
        .collect();
    SeriesFigure {
        id: id.into(),
        title: format!("Raytracing: {name} performance per iteration"),
        xlabel: "iteration".into(),
        ylabel: "time [ms]".into(),
        series,
    }
}

/// Figure 8: per-strategy histogram of construction-algorithm choices.
pub fn fig8(runs: &Cs1Runs) -> GroupedBoxFigure {
    crate::cs1::selection_histogram(runs, "fig8", "Raytracing")
}

/// Extension: per-builder frame time across *scene types* (enclosed
/// cathedral vs. open forest) at the hand-crafted configuration. The
/// premise of algorithmic choice is that the best algorithm depends on the
/// input; this table shows whether (and how) the builder ranking moves
/// between geometry regimes.
pub fn scene_comparison(cfg: &Cs2Config) -> crate::report::GroupedBoxFigure {
    use crate::report::Boxed;
    use autotune::stats::FiveNumber;
    use raytrace::kdtree::BuildConfig;
    use raytrace::scene::forest;

    let scenes: Vec<(String, Scene)> = vec![
        ("cathedral".into(), cathedral(cfg.seed, cfg.detail)),
        ("forest".into(), forest(cfg.seed, cfg.detail)),
    ];
    let opts = cfg.render_options();
    let builders = raytrace::all_builders();
    let groups = builders
        .iter()
        .map(|b| {
            let boxes = scenes
                .iter()
                .map(|(_, scene)| {
                    let times: Vec<f64> = (0..cfg.reps)
                        .map(|_| {
                            frame(scene, b.as_ref(), &BuildConfig::default(), &opts).total_ms()
                        })
                        .collect();
                    Boxed::from(FiveNumber::of(&times).expect("reps > 0"))
                })
                .collect();
            (b.name().to_string(), boxes)
        })
        .collect();
    crate::report::GroupedBoxFigure {
        id: "scene_comparison".into(),
        title: "Extension: builder frame time by scene type (default config)".into(),
        ylabel: "time [ms]".into(),
        categories: scenes.into_iter().map(|(n, _)| n).collect(),
        groups,
    }
}

/// Extension: a *dynamic* workload — the scene's triangle count jumps
/// mid-run (detail 1 → detail 2), the situation that motivates *online*
/// over offline tuning ("this variation can occur during application
/// runtime", Section I). Windowed strategies must re-adapt; ε-Greedy's
/// best-observed memory predates the change and can mislead it.
pub fn dynamic_scene_study(cfg: &Cs2Config) -> SeriesFigure {
    let scene_small = cathedral(cfg.seed, cfg.detail);
    let scene_big = cathedral(cfg.seed, cfg.detail + 1);
    let opts = cfg.render_options();
    let builders = raytrace::all_builders();
    let specs = tunable::algorithm_specs();
    let flip = cfg.frames / 2;

    let kinds = [
        crate::cs1::strategies()[1].clone(), // e-greedy(10%)
        crate::cs1::strategies()[5].clone(), // sliding-window-auc(16)
    ];
    let mut series = Vec::new();
    for (label, kind) in kinds {
        let mut per_rep: Vec<Vec<f64>> = Vec::with_capacity(cfg.reps);
        for rep in 0..cfg.reps {
            let seed = cfg.seed.wrapping_add(rep as u64 * 13007);
            let mut tuner = TwoPhaseTuner::new(specs.clone(), kind, seed);
            let mut run = Vec::with_capacity(cfg.frames);
            for i in 0..cfg.frames {
                let scene = if i < flip { &scene_small } else { &scene_big };
                let sample = tuner.step(|alg, c| {
                    let name = builders[alg].name();
                    let config = tunable::decode(name, c);
                    let ropts = tunable::decode_render(c, &opts);
                    frame(scene, builders[alg].as_ref(), &config, &ropts).total_ms()
                });
                run.push(sample.value);
            }
            per_rep.push(run);
        }
        series.push((label, stats::per_iteration_reduce(&per_rep, stats::median)));
    }
    SeriesFigure {
        id: "dynamic_scene".into(),
        title: format!(
            "Extension: scene size jump at frame {flip} (detail {} → {})",
            cfg.detail,
            cfg.detail + 1
        ),
        xlabel: "frame".into(),
        ylabel: "median time [ms]".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cs2Config {
        Cs2Config {
            detail: 1,
            frames: 8,
            reps: 1,
            width: 32,
            height: 24,
            render_threads: 2,
            seed: 3,
        }
    }

    #[test]
    fn fig5_has_four_series_of_frame_length() {
        let f = fig5(&tiny());
        assert_eq!(f.series.len(), 4);
        for (name, s) in &f.series {
            assert_eq!(s.len(), 8, "{name}");
            assert!(s.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn scene_comparison_covers_builders_and_scene_types() {
        let f = scene_comparison(&tiny());
        assert_eq!(f.groups.len(), 4);
        assert_eq!(
            f.categories,
            vec!["cathedral".to_string(), "forest".to_string()]
        );
        for (name, boxes) in &f.groups {
            assert!(boxes.iter().all(|b| b.median > 0.0), "{name}");
        }
    }

    #[test]
    fn dynamic_scene_study_has_two_series_spanning_the_flip() {
        let cfg = Cs2Config {
            frames: 6,
            ..tiny()
        };
        let f = dynamic_scene_study(&cfg);
        assert_eq!(f.series.len(), 2);
        for (name, s) in &f.series {
            assert_eq!(s.len(), 6, "{name}");
            // Bigger scene after the flip: later frames cost more.
            let before = autotune::stats::mean(&s[..3]);
            let after = autotune::stats::mean(&s[3..]);
            assert!(after > before, "{name}: {before} -> {after}");
        }
    }

    #[test]
    fn combined_runs_have_expected_shape() {
        let cfg = tiny();
        let runs = run_tuning(&cfg);
        assert_eq!(runs.times.len(), 6);
        assert_eq!(runs.algorithm_labels.len(), 4);
        for sc in &runs.counts {
            for counts in sc {
                assert_eq!(counts.iter().sum::<usize>(), cfg.frames);
            }
        }
        let f6 = fig6(&runs);
        assert_eq!(f6.series.len(), 6);
        let f8 = fig8(&runs);
        assert_eq!(f8.categories.len(), 4);
    }
}
