//! Integration tests of the autotune crate: serialization round-trips,
//! behaviour under measurement noise, and cross-strategy agreement.

use autotune::prelude::*;
use autotune::rng::Rng;
use autotune::search::run_loop;
use autotune::stats;

fn noisy_bowl(rng: &mut Rng, c: &Configuration) -> f64 {
    let x = c.get(0).as_f64();
    let y = c.get(1).as_f64();
    let base = 5.0 + 0.5 * (x - 4.0).powi(2) + 0.5 * (y + 6.0).powi(2);
    base * (1.0 + 0.05 * rng.next_gaussian())
}

fn bowl_space() -> SearchSpace {
    SearchSpace::new(vec![
        Parameter::interval("x", -15, 15),
        Parameter::interval("y", -15, 15),
    ])
}

#[test]
fn parameters_and_configurations_round_trip_through_json() {
    let space = SearchSpace::new(vec![
        Parameter::nominal("alg", vec!["a".into(), "b".into()]),
        Parameter::ordinal("size", vec!["s".into(), "m".into(), "l".into()]),
        Parameter::interval("pct", 0, 100),
        Parameter::ratio_f64("scale", 0.5, 4.0),
    ]);
    let json = space.to_json().to_string();
    let back = SearchSpace::from_json(&autotune::json::Json::parse(&json).expect("space parses"))
        .expect("space deserializes");
    assert_eq!(space, back);

    let mut rng = Rng::new(4);
    for _ in 0..50 {
        let c = space.random(&mut rng);
        let json = c.to_json().to_string();
        let back =
            Configuration::from_json(&autotune::json::Json::parse(&json).expect("config parses"))
                .expect("config deserializes");
        // Discrete values are exact; floats may differ in the last ulp
        // through the JSON text representation.
        for (a, b) in c.values().iter().zip(back.values()) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => {
                    assert!(
                        (x - y).abs() <= f64::EPSILON * x.abs().max(1.0),
                        "{x} vs {y}"
                    )
                }
                _ => assert_eq!(a, b),
            }
        }
        assert!(space.contains(&back));
    }
}

#[test]
fn nelder_mead_tolerates_five_percent_noise() {
    // The paper's online requirement: "approximative search techniques
    // tend to be vulnerable to measurement noise" — Nelder-Mead must still
    // land near the optimum basin under realistic jitter.
    let mut hits = 0;
    for seed in 0..8 {
        let mut rng = Rng::new(seed);
        let mut s = NelderMead::new(bowl_space(), NelderMeadOptions::default());
        let mut f = |c: &Configuration| noisy_bowl(&mut rng, c);
        run_loop(&mut s, &mut f, 250);
        let (c, _) = s.best().unwrap();
        let dist = (c.get(0).as_f64() - 4.0).abs() + (c.get(1).as_f64() + 6.0).abs();
        if dist <= 4.0 {
            hits += 1;
        }
    }
    assert!(hits >= 6, "near-optimal in only {hits}/8 noisy runs");
}

#[test]
fn exhaustive_and_nelder_mead_agree_on_a_tiny_space() {
    let space = SearchSpace::new(vec![
        Parameter::ratio("a", 0, 6),
        Parameter::ratio("b", 0, 6),
    ]);
    let f =
        |c: &Configuration| (c.get(0).as_f64() - 2.0).powi(2) + (c.get(1).as_f64() - 5.0).powi(2);
    let mut ex = ExhaustiveSearch::new(space.clone());
    while !ex.converged() {
        let c = ex.propose();
        let v = f(&c);
        ex.report(v);
    }
    let mut nm = NelderMead::new(space, NelderMeadOptions::default());
    let mut fn_ = f;
    run_loop(&mut nm, &mut fn_, 250);
    let (ec, ev) = ex.best().unwrap();
    let (nc, nv) = nm.best().unwrap();
    assert_eq!(ev, 0.0, "exhaustive finds the exact optimum");
    assert_eq!(ec.values(), nc.values(), "NM should match on a 7×7 grid");
    assert_eq!(nv, ev);
}

#[test]
fn online_tuner_amortizes_worse_than_exhaustive_on_slow_arms() {
    // Section II-B's argument for nominal strategies over exhaustive
    // search: exhaustive "will also always select the worst configuration".
    // On a space with one catastrophic arm, ε-Greedy's *total* spent time
    // over the horizon beats a full exhaustive sweep loop.
    let costs = [1.0f64, 1.0, 200.0, 1.2];
    let horizon = 64;

    // Exhaustive over the nominal-only space (the textbook-legal choice).
    let space = SearchSpace::new(vec![Parameter::nominal(
        "alg",
        (0..4).map(|i| format!("a{i}")).collect(),
    )]);
    let mut ex = ExhaustiveSearch::new(space);
    let mut ex_total = 0.0;
    for _ in 0..horizon {
        let c = ex.propose();
        let v = costs[c.get(0).as_index()];
        ex.report(v);
        ex_total += v;
    }

    let specs: Vec<AlgorithmSpec> = (0..4)
        .map(|i| AlgorithmSpec::untunable(format!("a{i}")))
        .collect();
    let mut greedy = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.05), 5);
    let mut greedy_total = 0.0;
    for _ in 0..horizon {
        let s = greedy.step(|alg, _| costs[alg]);
        greedy_total += s.value;
    }
    // Exhaustive pays the 200ms arm exactly once, then exploits; ε-Greedy
    // pays it once during init plus ~ε/4 of the time. Over a short horizon
    // both are close; the test pins that neither pathologically regresses
    // and that both identified the best arm.
    assert_eq!(ex.best().unwrap().0.get(0).as_index(), 0);
    assert_eq!(greedy.best_algorithm(), Some(0));
    assert!(greedy_total < ex_total * 1.5);
}

#[test]
fn strategies_rank_arms_identically_given_identical_samples() {
    // Feed every strategy the same deterministic sample stream (bypassing
    // selection); their `best()` must coincide.
    let stream = [
        (0usize, 9.0),
        (1, 3.0),
        (2, 7.0),
        (0, 8.5),
        (1, 2.9),
        (2, 7.2),
    ];
    for kind in NominalKind::paper_set() {
        let mut s = kind.build(3, 1);
        for &(arm, v) in &stream {
            s.report(arm, v);
        }
        assert_eq!(s.best(), Some(1), "{}", s.name());
    }
}

#[test]
fn two_phase_median_convergence_curve_is_decreasing_overall() {
    // The shape behind Figures 2 and 6: median-over-reps per-iteration
    // cost decreases from the initialization phase to the tail.
    let specs = || {
        vec![
            AlgorithmSpec::untunable("slow"),
            AlgorithmSpec::untunable("fast"),
            AlgorithmSpec::untunable("mid"),
        ]
    };
    let costs = [30.0, 5.0, 15.0];
    let mut reps: Vec<Vec<f64>> = Vec::new();
    for rep in 0..20 {
        let mut t = TwoPhaseTuner::new(specs(), NominalKind::EpsilonGreedy(0.10), rep);
        let mut series = Vec::new();
        for _ in 0..40 {
            series.push(t.step(|a, _| costs[a]).value);
        }
        reps.push(series);
    }
    let medians = stats::per_iteration_reduce(&reps, stats::median);
    let head = stats::mean(&medians[..5]);
    let tail = stats::mean(&medians[30..]);
    assert!(
        tail < head * 0.5,
        "median curve should fall substantially: head {head}, tail {tail}"
    );
    assert_eq!(tail, 5.0, "tail exploits the fast arm");
}

#[test]
fn mixed_tuner_equals_two_phase_on_explicit_algorithm_parameter() {
    // A space whose only nominal parameter is "the algorithm" must make
    // MixedTuner behave exactly like the hand-built TwoPhaseTuner.
    let space = SearchSpace::new(vec![
        Parameter::nominal("algorithm", vec!["a".into(), "b".into()]),
        Parameter::ratio("x", 0, 20),
    ]);
    let cost = |c: &Configuration| {
        let x = c.get(1).as_f64();
        match c.get(0).as_index() {
            0 => 10.0 + (x - 3.0).powi(2),
            _ => 4.0 + (x - 15.0).powi(2),
        }
    };
    let mut mixed = MixedTuner::new(space, NominalKind::EpsilonGreedy(0.20), 9);
    for _ in 0..400 {
        mixed.step(cost);
    }
    let (best, v) = mixed.best().unwrap();
    assert_eq!(best.get(0).as_index(), 1);
    assert!((best.get(1).as_i64() - 15).abs() <= 2, "{best:?}");
    assert!(v < 5.0);
}

#[test]
fn one_algorithm_tuner_runs_exactly_its_phase1_searcher() {
    // Single-space tuning is a one-algorithm TwoPhaseTuner whose phase 2
    // is never consulted: it must propose and record exactly what the bare
    // Nelder-Mead searcher does when driven by `run_loop`.
    let cost = |c: &Configuration| {
        5.0 + 0.5 * (c.get(0).as_f64() - 4.0).powi(2) + (c.get(1).as_f64() + 6.0).abs()
    };
    let mut searched = Vec::new();
    let mut searcher = NelderMead::new(bowl_space(), NelderMeadOptions::default());
    let mut measure = |c: &Configuration| {
        searched.push(c.clone());
        cost(c)
    };
    let values = run_loop(&mut searcher, &mut measure, 200);

    let specs = vec![AlgorithmSpec::new("bowl", bowl_space())];
    let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.5), 3);
    for (i, (config, value)) in searched.iter().zip(&values).enumerate() {
        let s = tuner.step(|_, c| cost(c));
        assert_eq!(
            (s.algorithm, &s.config, s.value),
            (0, config, *value),
            "iteration {i}"
        );
    }
    assert_eq!(tuner.iterations(), 200);
}
