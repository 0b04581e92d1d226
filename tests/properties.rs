//! Cross-crate property-based tests: the correctness invariants that the
//! paper's evaluation silently relies on.
//!
//! The build environment is fully offline, so instead of `proptest` these
//! use the in-repo xoshiro [`Rng`] to drive randomized cases from fixed
//! seeds — deterministic, shrink-free property tests.

use algochoice::autotune::param::Parameter;
use algochoice::autotune::prelude::*;
use algochoice::autotune::rng::Rng;
use algochoice::autotune::search::run_loop;
use algochoice::stringmatch::{all_matchers, naive};

// -------------------------------------------------------------------
// String matching: every algorithm ≡ the reference on arbitrary inputs.
// -------------------------------------------------------------------

/// Texts over a small alphabet provoke periodicity edge cases; patterns
/// are either arbitrary or sampled from the text (guaranteeing matches).
fn small_alphabet_text(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"abAB \n.";
    let len = rng.next_below(max_len as u64) as usize;
    (0..len)
        .map(|_| ALPHABET[rng.pick_index(ALPHABET.len())])
        .collect()
}

#[test]
fn all_matchers_agree_with_naive_on_arbitrary_input() {
    const PAT_ALPHABET: &[u8] = b"abAB ";
    let mut rng = Rng::new(0xc0de_0001);
    for _ in 0..64 {
        let text = small_alphabet_text(&mut rng, 600);
        let len = 1 + rng.pick_index(39);
        let pattern: Vec<u8> = (0..len)
            .map(|_| PAT_ALPHABET[rng.pick_index(PAT_ALPHABET.len())])
            .collect();
        let expected = naive::find_all(&pattern, &text);
        for m in all_matchers() {
            assert_eq!(
                m.find_all(&pattern, &text),
                expected,
                "{} disagrees",
                m.name()
            );
        }
    }
}

#[test]
fn all_matchers_find_planted_occurrences() {
    let mut rng = Rng::new(0xc0de_0002);
    let mut cases = 0;
    while cases < 64 {
        let text = small_alphabet_text(&mut rng, 600);
        if text.len() < 50 {
            continue;
        }
        cases += 1;
        let len = 1 + rng.pick_index(49);
        let start = rng.next_below((text.len() - len) as u64) as usize;
        let pattern = text[start..start + len].to_vec();
        for m in all_matchers() {
            let hits = m.find_all(&pattern, &text);
            assert!(
                hits.contains(&start),
                "{} missed the planted occurrence at {start}",
                m.name()
            );
            assert_eq!(hits, naive::find_all(&pattern, &text));
        }
    }
}

// -------------------------------------------------------------------
// Search spaces and searchers.
// -------------------------------------------------------------------

fn arb_space(rng: &mut Rng) -> SearchSpace {
    let dims = 1 + rng.pick_index(3);
    let params = (0..dims)
        .map(|_| {
            let kind = rng.pick_index(3);
            let lo = -20 + rng.next_below(20) as i64;
            let hi = 1 + rng.next_below(19) as i64;
            match kind {
                0 => Parameter::ratio("p", lo, lo + hi),
                1 => Parameter::interval("p", lo, lo + hi),
                _ => Parameter::ordinal("p", (0..=hi as usize).map(|i| format!("l{i}")).collect()),
            }
        })
        .collect();
    SearchSpace::new(params)
}

#[test]
fn searchers_only_propose_members_of_the_space() {
    let mut outer = Rng::new(0xc0de_0003);
    for _ in 0..48 {
        let space = arb_space(&mut outer);
        let seed = outer.next_below(1000);
        let searchers: Vec<Box<dyn Searcher>> = vec![
            Box::new(NelderMead::new(space.clone(), NelderMeadOptions::default())),
            Box::new(HillClimbing::new(space.clone(), seed)),
            Box::new(RandomSearch::new(space.clone(), seed)),
            Box::new(GeneticAlgorithm::new(
                space.clone(),
                seed,
                Default::default(),
            )),
            Box::new(DifferentialEvolution::new(
                space.clone(),
                seed,
                Default::default(),
            )),
            Box::new(ParticleSwarm::new(space.clone(), seed, Default::default())),
            Box::new(SimulatedAnnealing::new(
                space.clone(),
                seed,
                Default::default(),
            )),
        ];
        for mut s in searchers {
            for i in 0..60 {
                let c = s.propose();
                assert!(
                    space.contains(&c),
                    "{} proposed {c:?} at iter {i}",
                    s.name()
                );
                // Arbitrary but deterministic cost.
                let v = c.values().iter().map(|v| v.as_f64().abs()).sum::<f64>() + 1.0;
                s.report(v);
            }
            assert!(s.best().is_some());
        }
    }
}

#[test]
fn best_never_regresses() {
    let mut outer = Rng::new(0xc0de_0004);
    for _ in 0..48 {
        let space = arb_space(&mut outer);
        let seed = outer.next_below(1000);
        let mut s = RandomSearch::new(space.clone(), seed);
        let mut f = |c: &Configuration| c.values().iter().map(|v| v.as_f64()).sum::<f64>();
        let mut prev = f64::INFINITY;
        for _ in 0..5 {
            run_loop(&mut s, &mut f, 20);
            let (_, best) = s.best().unwrap();
            assert!(best <= prev);
            prev = best;
        }
    }
}

// -------------------------------------------------------------------
// Constraints: repair projects into the feasible region.
// -------------------------------------------------------------------

/// For every workload search space — the raytrace builders under 1/2/8-core
/// budgets and the string-matcher specs — repairing a random box point must
/// land inside the box AND satisfy every declared constraint; searchers'
/// feasible samplers must do the same. This is the tentpole guarantee:
/// nothing a repaired proposal produces can violate a constraint.
#[test]
fn repair_of_random_coordinates_is_always_feasible() {
    use algochoice::raytrace::tunable::space_for_with_budget;
    use algochoice::stringmatch::tuned::matcher_algorithm_specs;

    let mut spaces: Vec<(String, SearchSpace)> = Vec::new();
    for cores in [1usize, 2, 8] {
        for builder in ["Inplace", "Lazy", "Nested", "Wald-Havran"] {
            spaces.push((
                format!("{builder}@{cores}c"),
                space_for_with_budget(builder, cores),
            ));
        }
    }
    for spec in matcher_algorithm_specs() {
        spaces.push((spec.name.clone(), spec.space));
    }

    let mut rng = Rng::new(0xc0de_0008);
    for (name, space) in &spaces {
        // Irreparably infeasible spaces (e.g. SIMD matchers on a scalar-only
        // host) are exercised through the penalty path, not repair.
        let repairable = space.repair(&space.min_corner()).is_some();
        for _ in 0..100 {
            let raw = space.random(&mut rng);
            if repairable {
                let repaired = space
                    .repair(&raw)
                    .unwrap_or_else(|| panic!("{name}: {raw:?} must be repairable"));
                assert!(space.contains(&repaired), "{name}: {repaired:?} left box");
                assert!(
                    space.is_feasible(&repaired),
                    "{name}: repair left {repaired:?} infeasible"
                );
                let clamped = space.clamp_feasible(&raw.as_coords());
                assert!(space.is_feasible(&clamped), "{name}: clamp_feasible");
                let sampled = space.random_feasible(&mut rng);
                assert!(space.is_feasible(&sampled), "{name}: random_feasible");
            } else {
                assert!(
                    !space.is_feasible(&raw) || space.constraints().is_empty(),
                    "{name}: irreparable space with feasible points"
                );
            }
        }
    }
}

// -------------------------------------------------------------------
// Nominal strategies: probabilistic invariants.
// -------------------------------------------------------------------

#[test]
fn strategies_select_valid_indices_and_track_best() {
    let mut outer = Rng::new(0xc0de_0005);
    for _ in 0..32 {
        let arms = 2 + outer.pick_index(6);
        let costs: Vec<f64> = (0..arms)
            .map(|_| outer.next_range_f64(0.5, 100.0))
            .collect();
        let seed = outer.next_below(1000);
        for kind in NominalKind::paper_set() {
            let mut s = kind.build(costs.len(), seed);
            for _ in 0..120 {
                let a = s.select();
                assert!(a < costs.len(), "{} out of range", s.name());
                s.report(a, costs[a]);
            }
            let best = s.best().expect("samples exist");
            // The reported best must be an arm whose cost is minimal among
            // *sampled* arms — with fixed costs that is the global argmin
            // as soon as it was sampled once.
            let sampled_min = s
                .histories()
                .iter()
                .filter_map(|h| h.best_value())
                .fold(f64::INFINITY, f64::min);
            assert_eq!(s.histories()[best].best_value().unwrap(), sampled_min);
        }
    }
}

#[test]
fn two_phase_tuner_conserves_iterations() {
    let mut outer = Rng::new(0xc0de_0006);
    for _ in 0..32 {
        let num_algs = 1 + outer.pick_index(4);
        let iters = 1 + outer.pick_index(59);
        let seed = outer.next_below(1000);
        let specs: Vec<AlgorithmSpec> = (0..num_algs)
            .map(|i| AlgorithmSpec::untunable(format!("a{i}")))
            .collect();
        let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.10), seed);
        for _ in 0..iters {
            tuner.step(|alg, _| 1.0 + alg as f64);
        }
        assert_eq!(tuner.selection_counts().iter().sum::<usize>(), iters);
        assert_eq!(tuner.iterations(), iters);
        assert_eq!(tuner.best().unwrap().0, tuner.best_algorithm().unwrap());
    }
}

// -------------------------------------------------------------------
// Raytracing: geometric invariants on random scenes.
// -------------------------------------------------------------------

#[test]
fn kdtree_builders_agree_with_brute_force_on_random_scenes() {
    use algochoice::raytrace::kdtree::BruteForce;
    use algochoice::raytrace::{all_builders, random_blobs, Accel, Ray, Vec3};

    let mut outer = Rng::new(0xc0de_0007);
    for _ in 0..12 {
        let seed = outer.next_below(500);
        let n = 10 + outer.pick_index(140);
        let scene = random_blobs(seed, n);
        let brute = BruteForce;
        let mut rng = Rng::new(seed ^ 0xABCD);
        for b in all_builders() {
            let accel = b.build(&scene.triangles, &Default::default());
            for _ in 0..40 {
                let origin = Vec3::new(
                    rng.next_range_f64(-8.0, 8.0) as f32,
                    rng.next_range_f64(-8.0, 8.0) as f32,
                    rng.next_range_f64(-3.0, 12.0) as f32,
                );
                let dir = Vec3::new(
                    rng.next_range_f64(-1.0, 1.0) as f32,
                    rng.next_range_f64(-1.0, 1.0) as f32,
                    rng.next_range_f64(-1.0, 1.0) as f32,
                );
                if dir.length_squared() < 1e-6 {
                    continue;
                }
                let ray = Ray::new(origin, dir);
                let expected = brute.intersect(&scene.triangles, &ray);
                let got = accel.intersect(&scene.triangles, &ray);
                match (expected, got) {
                    (None, None) => {}
                    (Some(e), Some(g)) => {
                        assert!((e.t - g.t).abs() < 1e-2, "{}: {e:?} vs {g:?}", b.name())
                    }
                    (e, g) => panic!("{}: {e:?} vs {g:?}", b.name()),
                }
            }
        }
    }
}

// -------------------------------------------------------------------
// Sort context keys: the early-exit presort scan classes like `runs`.
// -------------------------------------------------------------------

/// The presort class by its definition: the whole input's [`runs`]
/// bucketed relative to its length.
///
/// [`runs`]: smallsort::runs
fn presort_class_by_runs(data: &[u64]) -> u32 {
    let (n, r) = (data.len(), smallsort::runs(data));
    if r <= (n / 16).max(1) {
        0
    } else if r <= (n / 4).max(2) {
        1
    } else {
        2
    }
}

#[test]
fn presort_class_matches_its_runs_definition() {
    use smallsort::{nearly_sorted_input, presort_class};
    let mut rng = Rng::new(0xc0de_0003);
    for n in 0..=300usize {
        let random: Vec<u64> = (0..n).map(|_| rng.next_below(1000)).collect();
        let nearly = nearly_sorted_input(n, &mut rng);
        let descending: Vec<u64> = (0..n as u64).rev().collect();
        let equal = vec![7u64; n];
        // Sorted stretches with random breaks: every class occurs.
        let breaks = 1 + rng.pick_index(n.max(1));
        let mut stepped: Vec<u64> = (0..n as u64).collect();
        for _ in 0..breaks {
            if n > 1 {
                let i = rng.pick_index(n - 1);
                stepped.swap(i, i + 1);
            }
        }
        for (name, data) in [
            ("random", random),
            ("nearly sorted", nearly),
            ("descending", descending),
            ("all equal", equal),
            ("stepped", stepped),
        ] {
            assert_eq!(
                presort_class(&data),
                presort_class_by_runs(&data),
                "{name} input of {n}"
            );
        }
    }
}
