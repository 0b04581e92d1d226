//! The two-phase online tuner (Section III).
//!
//! Given a set of algorithms `𝒜`, the tuning problem
//!
//! ```text
//! C_opt = argmin_{A ∈ 𝒜, C ∈ T_A} m_A(C)
//! ```
//!
//! is split into per-algorithm phase-1 problems (`C_opt,A = argmin m_A(C)`)
//! and a phase-2 problem selecting among the `C_opt,A`. Online, the phases
//! are applied *in reverse order every iteration*: first a phase-2
//! [`NominalStrategy`] selects algorithm `A_i`, then `A_i`'s own phase-1
//! [`Searcher`] proposes a parameter configuration `C_i`, and the observed
//! runtime sample `m_{A,i}` is reported back to both.

use crate::nominal::{
    EpsilonGradient, EpsilonGreedy, GradientWeighted, NominalStrategy, OptimumWeighted,
    SlidingWindowAuc,
};
use crate::robust::{failure_penalty, MeasureOutcome};
use crate::search::{HillClimbing, NelderMead, NelderMeadOptions, RandomSearch, Searcher};
use crate::space::{Configuration, SearchSpace};
use crate::telemetry::{
    self, EventKind, MeasureStatus, Traffic, WeightSet, MAX_TRACKED_ALGORITHMS,
};

/// Description of one tunable algorithm: its name, its own parameter space
/// `T_A`, and an optional hand-crafted starting configuration (the paper's
/// raytracing case study starts every builder from a best-practice config).
#[derive(Debug, Clone)]
pub struct AlgorithmSpec {
    /// Display name of the algorithm.
    pub name: String,
    /// The algorithm's own parameter space `T_A`.
    pub space: SearchSpace,
    /// Optional hand-crafted starting configuration for phase 1.
    pub start: Option<Configuration>,
}

impl AlgorithmSpec {
    /// An algorithm with tunable parameters.
    pub fn new(name: impl Into<String>, space: SearchSpace) -> Self {
        AlgorithmSpec {
            name: name.into(),
            space,
            start: None,
        }
    }

    /// An algorithm without tunable parameters (case study 1: the string
    /// matchers expose none).
    pub fn untunable(name: impl Into<String>) -> Self {
        Self::new(name, SearchSpace::empty())
    }

    /// Set the hand-crafted starting configuration.
    pub fn with_start(mut self, start: Configuration) -> Self {
        assert!(
            self.space.contains(&start),
            "start configuration not in algorithm's space"
        );
        self.start = Some(start);
        self
    }
}

/// Phase-2 strategy selector, mirroring the paper's evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NominalKind {
    /// ε-Greedy with the given exploration probability.
    EpsilonGreedy(f64),
    /// Gradient Weighted with the given window.
    GradientWeighted(usize),
    /// Optimum Weighted (best inverse runtime per algorithm).
    OptimumWeighted,
    /// Sliding-Window AUC with the given window.
    SlidingWindowAuc(usize),
    /// Combined ε-Greedy with gradient-weighted exploration (ε, window) —
    /// the paper's future-work mitigation for crossover scenarios.
    EpsilonGradient(f64, usize),
}

impl NominalKind {
    /// The six strategies of the paper's figures, in legend order.
    pub fn paper_set() -> Vec<NominalKind> {
        vec![
            NominalKind::EpsilonGreedy(0.05),
            NominalKind::EpsilonGreedy(0.10),
            NominalKind::EpsilonGreedy(0.20),
            NominalKind::GradientWeighted(16),
            NominalKind::OptimumWeighted,
            NominalKind::SlidingWindowAuc(16),
        ]
    }

    /// Instantiate the strategy.
    pub fn build(self, num_algorithms: usize, seed: u64) -> Box<dyn NominalStrategy> {
        match self {
            NominalKind::EpsilonGreedy(eps) => {
                Box::new(EpsilonGreedy::new(num_algorithms, eps, seed))
            }
            NominalKind::GradientWeighted(w) => {
                Box::new(GradientWeighted::new(num_algorithms, w, seed))
            }
            NominalKind::OptimumWeighted => Box::new(OptimumWeighted::new(num_algorithms, seed)),
            NominalKind::SlidingWindowAuc(w) => {
                Box::new(SlidingWindowAuc::new(num_algorithms, w, seed))
            }
            NominalKind::EpsilonGradient(eps, w) => {
                Box::new(EpsilonGradient::new(num_algorithms, eps, w, seed))
            }
        }
    }

    /// Display name matching the strategy's own `name()`.
    pub fn label(self) -> String {
        // Build a throwaway instance to keep names in one place.
        self.build(1, 0).name()
    }
}

/// Phase-1 searcher selector (for the `phase1_swap` ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase1Kind {
    /// Nelder-Mead downhill simplex — the paper's choice.
    NelderMead,
    /// Steepest-descent hill climbing.
    HillClimbing,
    /// Uniform random sampling (ablation baseline).
    Random,
}

impl Phase1Kind {
    /// Instantiate a searcher for one algorithm's parameter space.
    pub fn build(self, spec: &AlgorithmSpec, seed: u64) -> Box<dyn Searcher> {
        let start = spec
            .start
            .clone()
            .unwrap_or_else(|| spec.space.min_corner());
        match self {
            Phase1Kind::NelderMead => Box::new(NelderMead::from_start(
                spec.space.clone(),
                &start,
                NelderMeadOptions::default(),
            )),
            Phase1Kind::HillClimbing => {
                Box::new(HillClimbing::from_start(spec.space.clone(), start, seed))
            }
            Phase1Kind::Random => Box::new(RandomSearch::new(spec.space.clone(), seed)),
        }
    }
}

/// One completed tuning iteration of the two-phase tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPhaseSample {
    /// Global tuning iteration index.
    pub iteration: usize,
    /// Selected algorithm.
    pub algorithm: usize,
    /// Phase-1 configuration the algorithm ran with.
    pub config: Configuration,
    /// Measured runtime — or the failure penalty if the measurement failed.
    pub value: f64,
    /// Whether this iteration's measurement failed (the recorded value is
    /// the penalty, not an observation).
    pub failed: bool,
}

/// The two-phase online tuner: a phase-2 [`NominalStrategy`] over `|𝒜|`
/// algorithms, each with its own phase-1 [`Searcher`].
pub struct TwoPhaseTuner {
    specs: Vec<AlgorithmSpec>,
    strategy: Box<dyn NominalStrategy>,
    searchers: Vec<Box<dyn Searcher>>,
    iteration: usize,
    /// Algorithm and configuration proposed by the last `next()`, awaiting
    /// their `report()`.
    pending: Option<(usize, Configuration)>,
    best: Option<(usize, Configuration, f64)>,
    /// Per-algorithm count of failed measurements.
    failures: Vec<usize>,
}

impl TwoPhaseTuner {
    /// Build a tuner with the paper's defaults: the given phase-2 strategy
    /// and Nelder-Mead as every algorithm's phase-1 searcher.
    pub fn new(specs: Vec<AlgorithmSpec>, nominal: NominalKind, seed: u64) -> Self {
        Self::with_phase1(specs, nominal, Phase1Kind::NelderMead, seed)
    }

    /// Build a tuner with an explicit phase-1 searcher kind.
    pub fn with_phase1(
        specs: Vec<AlgorithmSpec>,
        nominal: NominalKind,
        phase1: Phase1Kind,
        seed: u64,
    ) -> Self {
        let strategy = nominal.build(specs.len(), seed);
        Self::with_strategy(specs, strategy, phase1, seed)
    }

    /// Build a tuner around a *custom* phase-2 strategy implementation
    /// (anything implementing [`NominalStrategy`] — e.g. a UCB bandit).
    /// The strategy must have been constructed for `specs.len()`
    /// algorithms.
    pub fn with_strategy(
        specs: Vec<AlgorithmSpec>,
        strategy: Box<dyn NominalStrategy>,
        phase1: Phase1Kind,
        seed: u64,
    ) -> Self {
        assert!(!specs.is_empty(), "need at least one algorithm");
        assert_eq!(
            strategy.num_algorithms(),
            specs.len(),
            "strategy arity must match the algorithm count"
        );
        let searchers = specs
            .iter()
            .enumerate()
            .map(|(i, s)| phase1.build(s, seed.wrapping_add(i as u64 + 1)))
            .collect();
        let failures = vec![0; specs.len()];
        TwoPhaseTuner {
            specs,
            strategy,
            searchers,
            iteration: 0,
            pending: None,
            best: None,
            failures,
        }
    }

    /// Number of algorithms `|𝒜|`.
    pub fn num_algorithms(&self) -> usize {
        self.specs.len()
    }

    /// Display name of algorithm `i`.
    pub fn algorithm_name(&self, i: usize) -> &str {
        &self.specs[i].name
    }

    /// Phase-2 strategy display name.
    pub fn strategy_name(&self) -> String {
        self.strategy.name()
    }

    /// One tuning iteration, phases applied in reverse order: select the
    /// algorithm (phase 2), then its parameter configuration (phase 1).
    ///
    /// With a single algorithm there is nothing to select: phase 2 is not
    /// consulted, so the iteration draws no RNG — single-space tuning is
    /// phase 1 alone. The iteration's trace record is emitted when it
    /// resolves, by the report.
    ///
    /// Named `next` for the ask/tell protocol; not an `Iterator`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> (usize, Configuration) {
        assert!(
            self.pending.is_none(),
            "next() called twice without report()"
        );
        let algorithm = if self.specs.len() == 1 {
            0
        } else {
            self.strategy.select()
        };
        let config = self.searchers[algorithm].propose();
        self.pending = Some((algorithm, config.clone()));
        (algorithm, config)
    }

    /// [`TwoPhaseTuner::next`] behind the feasibility gate — the one place
    /// a driver checks a proposal against its algorithm's constraints. A
    /// proposal the phase-1 searcher could not repair into the constrained
    /// region is never handed out for measurement: it takes the penalty
    /// path at once ([`TwoPhaseTuner::report_failure`]) and the recorded
    /// sample comes back as the `Err`, boxed: the penalty path is rare,
    /// and a sample with its inline configuration is large.
    pub fn next_feasible(&mut self) -> Result<(usize, Configuration), Box<TwoPhaseSample>> {
        let (algorithm, config) = self.next();
        if self.specs[algorithm].space.is_feasible(&config) {
            Ok((algorithm, config))
        } else {
            Err(Box::new(self.report_failure()))
        }
    }

    /// Report the measured runtime of the configuration returned by the
    /// last [`TwoPhaseTuner::next`]. Returns the completed sample.
    ///
    /// A non-finite value is treated as a measurement failure and routed
    /// through [`TwoPhaseTuner::report_failure`].
    pub fn report(&mut self, value: f64) -> TwoPhaseSample {
        self.report_outcome_with(MeasureOutcome::Ok(value), None)
    }

    /// Report that the measurement of the last proposal *failed* (panic,
    /// timeout, non-finite value). Both phases record the failure penalty
    /// — a finite multiple of the worst observed runtime — so the failing
    /// algorithm is deprioritized without ever being excluded, and the
    /// phase-1 searcher steers away from the failing configuration.
    pub fn report_failure(&mut self) -> TwoPhaseSample {
        self.report_outcome_with(MeasureOutcome::Failed(String::new()), None)
    }

    /// Abandon the last proposal without reporting anything — the
    /// measurement never ran (e.g. the request it was embedded in was
    /// cancelled). Neither phase records a sample; the phase-1 searcher
    /// rolls back so its next proposal is well-defined. Returns the
    /// abandoned proposal, or `None` if nothing was pending (making
    /// cleanup paths idempotent).
    pub fn abandon(&mut self) -> Option<(usize, Configuration)> {
        let (algorithm, config) = self.pending.take()?;
        self.searchers[algorithm].abandon();
        Some((algorithm, config))
    }

    /// Report a [`MeasureOutcome`]: `Ok` values follow the normal path,
    /// failures and timeouts the penalty path.
    pub fn report_outcome(&mut self, outcome: MeasureOutcome) -> TwoPhaseSample {
        self.report_outcome_with(outcome, None)
    }

    /// [`TwoPhaseTuner::report_outcome`] for a site, whose iteration record
    /// also carries the site's `traffic`. Every report resolves here, and
    /// emits the iteration's one trace record.
    pub(crate) fn report_outcome_with(
        &mut self,
        outcome: MeasureOutcome,
        traffic: Option<Traffic>,
    ) -> TwoPhaseSample {
        let (algorithm, config) = self.pending.take().expect("report() without next()");
        let (status, value) = match outcome {
            MeasureOutcome::Ok(v) if v.is_finite() => (MeasureStatus::Ok, v),
            MeasureOutcome::Ok(_) | MeasureOutcome::Failed(_) => (
                MeasureStatus::Failed,
                failure_penalty(self.strategy.histories()),
            ),
            MeasureOutcome::TimedOut => (
                MeasureStatus::TimedOut,
                failure_penalty(self.strategy.histories()),
            ),
        };
        // Before the strategy records the sample, so the weights are the
        // ones phase 2 selected by: `select` changes only the RNG, which
        // `weights_into` does not read.
        telemetry::emit(|| {
            // A stack buffer: recording must not allocate.
            let mut weights = [0.0f64; MAX_TRACKED_ALGORITHMS];
            let n = self.strategy.num_algorithms().min(MAX_TRACKED_ALGORITHMS);
            self.strategy.weights_into(&mut weights[..n]);
            EventKind::Iteration {
                iteration: self.iteration as u64,
                algorithm: algorithm as u16,
                status,
                runtime_ms: value,
                weights: WeightSet::from_slice(&weights[..n]),
                traffic,
            }
        });
        self.searchers[algorithm].report(value);
        let failed = status != MeasureStatus::Ok;
        if failed {
            self.strategy.report_failure(algorithm);
            self.failures[algorithm] += 1;
            // The penalty is deliberately *not* a candidate for `best`.
        } else {
            self.strategy.report(algorithm, value);
            // Track the global optimum over (A, C) pairs.
            if self.best.as_ref().is_none_or(|(_, _, b)| value < *b) {
                self.best = Some((algorithm, config.clone(), value));
            }
        }
        let sample = TwoPhaseSample {
            iteration: self.iteration,
            algorithm,
            config,
            value,
            failed,
        };
        self.iteration += 1;
        sample
    }

    /// Convenience: run one full iteration against a measurement function
    /// `m(algorithm, config) -> runtime`.
    ///
    /// An infeasible proposal is *never* passed to `m` (see
    /// [`TwoPhaseTuner::next_feasible`]), so no real measurement is burned
    /// on a configuration that violates a declared constraint.
    pub fn step<F: FnMut(usize, &Configuration) -> f64>(&mut self, mut m: F) -> TwoPhaseSample {
        self.step_fallible(|a, c| MeasureOutcome::Ok(m(a, c)))
    }

    /// Convenience: run one full iteration against a *fallible* measurement
    /// function `m(algorithm, config) -> MeasureOutcome` (typically
    /// [`crate::robust::robust_call`] around the real measurement).
    ///
    /// Like [`TwoPhaseTuner::step`], infeasible proposals are penalized
    /// without invoking `m`.
    pub fn step_fallible<F: FnMut(usize, &Configuration) -> MeasureOutcome>(
        &mut self,
        mut m: F,
    ) -> TwoPhaseSample {
        match self.next_feasible() {
            Ok((a, c)) => {
                let outcome = m(a, &c);
                self.report_outcome(outcome)
            }
            Err(penalized) => *penalized,
        }
    }

    /// Per-algorithm count of failed measurements.
    pub fn failure_counts(&self) -> &[usize] {
        &self.failures
    }

    /// Best-known (configuration, value) of algorithm `i`'s phase-1
    /// searcher — the per-algorithm incumbent `C_opt,A` the context layer
    /// ([`crate::context`]) extracts when warm-starting a neighboring
    /// context's tuner.
    pub fn searcher_best(&self, i: usize) -> Option<(&Configuration, f64)> {
        self.searchers[i].best()
    }

    /// Prime the phase-2 strategy with one *synthetic* observation for
    /// algorithm `i` — the warm-start seeding hook used by
    /// [`crate::context`] to transplant a neighboring context's posterior.
    ///
    /// The sample enters the strategy's per-algorithm history (so the
    /// algorithm counts as "seen", carries a selection weight, and the
    /// initial round-robin exploration of unseen algorithms is skipped),
    /// but it is **not** a tuning iteration
    /// ([`TwoPhaseTuner::iterations`]): seeded knowledge is prior belief,
    /// not a measurement of this context. Non-finite values are ignored.
    ///
    /// Panics if called between [`TwoPhaseTuner::next`] and its report —
    /// seeding is a construction-time operation.
    pub fn seed_algorithm(&mut self, i: usize, value: f64) {
        assert!(
            self.pending.is_none(),
            "seed_algorithm() must not interrupt an iteration"
        );
        if value.is_finite() {
            self.strategy.report(i, value);
        }
    }

    /// The (algorithm, configuration) pair the tuner would run if asked to
    /// purely *exploit* right now: the phase-2 strategy's current best
    /// algorithm with its phase-1 searcher's best-known configuration.
    /// Falls back to algorithm 0 with its hand-crafted start (or the
    /// space's minimum corner) before any sample has been observed.
    ///
    /// The concurrent site runtime ([`crate::site`]) publishes this pair
    /// after every tuned iteration so request threads that lose the claim
    /// race can run a sensible choice without touching tuner state.
    pub fn exploit_choice(&self) -> (usize, Configuration) {
        let (algorithm, config, _) = self.exploit_incumbent();
        (algorithm, config)
    }

    /// [`TwoPhaseTuner::exploit_choice`] with the configuration's value:
    /// the best value its phase-1 searcher has recorded for it, `NaN`
    /// before that searcher's first sample. A site sizes the timing stride
    /// of its untuned calls by this value.
    pub fn exploit_incumbent(&self) -> (usize, Configuration, f64) {
        let algorithm = self.strategy.best().unwrap_or(0);
        match self.searchers[algorithm].best() {
            Some((c, v)) => (algorithm, c.clone(), v),
            None => {
                let spec = &self.specs[algorithm];
                let start = spec.start.clone();
                let config = start.unwrap_or_else(|| spec.space.min_corner());
                (algorithm, config, f64::NAN)
            }
        }
    }

    /// Globally best observed (algorithm, configuration, value).
    pub fn best(&self) -> Option<(usize, &Configuration, f64)> {
        self.best.as_ref().map(|(a, c, v)| (*a, c, *v))
    }

    /// The algorithm the phase-2 strategy currently believes best.
    pub fn best_algorithm(&self) -> Option<usize> {
        self.strategy.best()
    }

    /// Tuning iterations completed so far (measured or penalized) — the
    /// `iteration` the next [`TwoPhaseSample`] will carry. The tuner keeps
    /// no log of them: a caller that plots convergence keeps the samples
    /// [`TwoPhaseTuner::report`] and [`TwoPhaseTuner::step`] return.
    pub fn iterations(&self) -> usize {
        self.iteration
    }

    /// Per-algorithm histories from the phase-2 strategy.
    pub fn histories(&self) -> &[crate::history::AlgorithmHistory] {
        self.strategy.histories()
    }

    /// How often each algorithm has been selected so far — the data behind
    /// the choice histograms of Figures 4 and 8.
    pub fn selection_counts(&self) -> Vec<usize> {
        self.strategy.histories().iter().map(|h| h.len()).collect()
    }
}

impl std::fmt::Debug for TwoPhaseTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoPhaseTuner")
            .field("strategy", &self.strategy.name())
            .field(
                "algorithms",
                &self.specs.iter().map(|s| &s.name).collect::<Vec<_>>(),
            )
            .field("iteration", &self.iteration)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;

    /// Three untunable algorithms with fixed costs.
    fn untunable_specs() -> Vec<AlgorithmSpec> {
        vec![
            AlgorithmSpec::untunable("slow"),
            AlgorithmSpec::untunable("fast"),
            AlgorithmSpec::untunable("mid"),
        ]
    }

    fn fixed_costs(a: usize, _c: &Configuration) -> f64 {
        [30.0, 5.0, 15.0][a]
    }

    #[test]
    fn untunable_algorithms_epsilon_greedy_finds_best() {
        let mut t = TwoPhaseTuner::new(untunable_specs(), NominalKind::EpsilonGreedy(0.10), 1);
        for _ in 0..200 {
            t.step(fixed_costs);
        }
        assert_eq!(t.best_algorithm(), Some(1));
        assert_eq!(t.best().unwrap().0, 1);
        let counts = t.selection_counts();
        assert!(counts[1] > counts[0] + counts[2], "{counts:?}");
    }

    #[test]
    fn all_paper_strategies_identify_best_untunable_algorithm() {
        for kind in NominalKind::paper_set() {
            let mut t = TwoPhaseTuner::new(untunable_specs(), kind, 9);
            for _ in 0..300 {
                t.step(fixed_costs);
            }
            assert_eq!(
                t.best_algorithm(),
                Some(1),
                "strategy {} failed",
                t.strategy_name()
            );
        }
    }

    /// Two tunable algorithms: a parabola each, with different optima.
    fn tunable_specs() -> Vec<AlgorithmSpec> {
        let space_a = SearchSpace::new(vec![Parameter::ratio("x", 0, 40)]);
        let space_b = SearchSpace::new(vec![Parameter::ratio("y", 0, 40)]);
        vec![
            AlgorithmSpec::new("alg-a", space_a),
            AlgorithmSpec::new("alg-b", space_b),
        ]
    }

    /// alg-a bottoms out at 20 (runtime 10), alg-b at 5 (runtime 4):
    /// b is globally better once tuned.
    fn tunable_costs(a: usize, c: &Configuration) -> f64 {
        let x = c.get(0).as_f64();
        match a {
            0 => 10.0 + 0.2 * (x - 20.0).powi(2),
            1 => 4.0 + 0.2 * (x - 5.0).powi(2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn combined_tuning_finds_best_algorithm_and_config() {
        let mut t = TwoPhaseTuner::new(tunable_specs(), NominalKind::EpsilonGreedy(0.20), 5);
        for _ in 0..600 {
            t.step(tunable_costs);
        }
        let (alg, config, value) = t.best().unwrap();
        assert_eq!(alg, 1, "algorithm b is globally optimal");
        assert!((config.get(0).as_i64() - 5).abs() <= 2, "config {config:?}");
        assert!(value < 5.5, "tuned value {value}");
    }

    #[test]
    fn phase1_tuning_progresses_on_all_algorithms_under_weighted_strategy() {
        // Weighted strategies "achieve tuning progress on all algorithms
        // more or less simultaneously" (Section IV-B).
        let mut t = TwoPhaseTuner::new(tunable_specs(), NominalKind::SlidingWindowAuc(16), 7);
        let mut first = [None; 2];
        for _ in 0..600 {
            let s = t.step(tunable_costs);
            first[s.algorithm].get_or_insert(s.value);
        }
        let hists = t.histories();
        for (i, h) in hists.iter().enumerate() {
            assert!(h.len() > 100, "algorithm {i} starved: {} samples", h.len());
            let best = h.best_value().unwrap();
            assert!(
                best < first[i].unwrap(),
                "algorithm {i} made no tuning progress"
            );
        }
    }

    #[test]
    fn hand_crafted_start_is_used_first() {
        let space = SearchSpace::new(vec![Parameter::ratio("x", 0, 100)]);
        let start = space
            .configuration(vec![crate::param::Value::Int(42)])
            .unwrap();
        let specs = vec![AlgorithmSpec::new("a", space).with_start(start.clone())];
        let mut t = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.0), 3);
        let (_, c) = t.next();
        assert_eq!(c, start, "first proposal must be the hand-crafted config");
        t.report(1.0);
    }

    #[test]
    fn phase1_swap_random_still_finds_best_algorithm() {
        let mut t = TwoPhaseTuner::with_phase1(
            tunable_specs(),
            NominalKind::EpsilonGreedy(0.20),
            Phase1Kind::Random,
            11,
        );
        for _ in 0..800 {
            t.step(tunable_costs);
        }
        assert_eq!(t.best().unwrap().0, 1);
    }

    #[test]
    fn samples_number_every_iteration_in_order() {
        let mut t = TwoPhaseTuner::new(untunable_specs(), NominalKind::OptimumWeighted, 13);
        for i in 0..50 {
            assert_eq!(t.iterations(), i);
            let s = t.step(fixed_costs);
            assert_eq!(s.iteration, i);
            assert!(s.algorithm < 3);
        }
        assert_eq!(t.iterations(), 50);
    }

    #[test]
    #[should_panic(expected = "without report")]
    fn double_next_panics() {
        let mut t = TwoPhaseTuner::new(untunable_specs(), NominalKind::OptimumWeighted, 1);
        t.next();
        t.next();
    }

    #[test]
    #[should_panic(expected = "start configuration not in")]
    fn with_start_validates_membership() {
        let space = SearchSpace::new(vec![Parameter::ratio("x", 0, 10)]);
        AlgorithmSpec::new("a", space)
            .with_start(Configuration::new(vec![crate::param::Value::Int(99)]));
    }

    #[test]
    fn abandon_recovers_the_ask_tell_protocol() {
        let mut t = TwoPhaseTuner::new(tunable_specs(), NominalKind::EpsilonGreedy(0.10), 19);
        let (a, c) = t.next();
        assert_eq!(t.abandon(), Some((a, c)));
        // The tuner is not poisoned: the next full iteration works.
        let s = t.step(tunable_costs);
        assert_eq!(s.iteration, 0, "abandoned proposals consume no iteration");
        assert!(t.abandon().is_none(), "abandon is idempotent");
    }

    #[test]
    fn report_failure_penalizes_without_excluding() {
        let mut t = TwoPhaseTuner::new(untunable_specs(), NominalKind::SlidingWindowAuc(16), 23);
        for i in 0..300 {
            let (alg, _) = t.next();
            if alg == 2 && i % 2 == 0 {
                t.report_failure();
            } else {
                t.report(fixed_costs(alg, &Configuration::empty()));
            }
        }
        assert!(t.failure_counts()[2] > 0);
        assert_eq!(t.failure_counts()[0], 0);
        // The flaky algorithm is still sampled (never excluded)...
        assert!(t.selection_counts()[2] > 0);
        // ...but the fast reliable one dominates.
        assert_eq!(t.best_algorithm(), Some(1));
        assert_eq!(t.best().unwrap().0, 1);
    }

    #[test]
    fn report_failure_never_becomes_best() {
        let mut t = TwoPhaseTuner::new(untunable_specs(), NominalKind::EpsilonGreedy(0.10), 29);
        t.next();
        let s = t.report_failure();
        assert!(s.failed);
        assert!(t.best().is_none(), "penalties are not observations");
        t.next();
        t.report(5.0);
        assert_eq!(t.best().unwrap().2, 5.0);
    }

    #[test]
    fn non_finite_report_is_a_failure() {
        let mut t = TwoPhaseTuner::new(untunable_specs(), NominalKind::OptimumWeighted, 31);
        t.next();
        let s = t.report(f64::NAN);
        assert!(s.failed);
        assert!(s.value.is_finite());
        t.next();
        let s = t.report(f64::INFINITY);
        assert!(s.failed);
        assert_eq!(t.failure_counts().iter().sum::<usize>(), 2);
    }

    #[test]
    fn step_fallible_survives_mixed_outcomes() {
        use crate::robust::MeasureOutcome;
        let mut t = TwoPhaseTuner::new(tunable_specs(), NominalKind::GradientWeighted(16), 37);
        for i in 0..400 {
            t.step_fallible(|alg, c| match i % 10 {
                0 => MeasureOutcome::Failed("injected".into()),
                1 => MeasureOutcome::TimedOut,
                _ => MeasureOutcome::Ok(tunable_costs(alg, c)),
            });
        }
        assert_eq!(t.iterations(), 400);
        assert!(t.failure_counts().iter().sum::<usize>() > 40);
        assert!(t.best().is_some());
    }

    #[test]
    fn infeasible_proposals_are_penalized_without_measuring() {
        use crate::space::Constraint;
        // An unsatisfiable constraint with no repair: every proposal is
        // irreparably infeasible, so the measurement closure must never run.
        let space = SearchSpace::new(vec![Parameter::ratio("x", 0, 10)])
            .with_constraint(Constraint::new("never", |_| false));
        let specs = vec![AlgorithmSpec::new("blocked", space)];
        let mut t = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.0), 41);
        let mut measured = 0usize;
        for _ in 0..20 {
            let s = t.step(|_, _| {
                measured += 1;
                1.0
            });
            assert!(s.failed, "infeasible proposals must take the penalty path");
        }
        assert_eq!(measured, 0, "measure must never see an infeasible config");
        assert_eq!(t.failure_counts()[0], 20);
        assert!(t.best().is_none(), "penalties never become best");
    }

    #[test]
    fn repairable_constraints_keep_measurements_feasible() {
        use crate::space::Constraint;
        // x must be even; repair rounds down. Every measured configuration
        // satisfies the constraint and the search still makes progress.
        let space = SearchSpace::new(vec![Parameter::ratio("x", 0, 40)]).with_constraint(
            Constraint::new("even", |c: &Configuration| c.get(0).as_i64() % 2 == 0).with_repair(
                |c: &Configuration| {
                    let x = c.get(0).as_i64();
                    Configuration::new(vec![crate::param::Value::Int(x - x % 2)])
                },
            ),
        );
        let specs = vec![AlgorithmSpec::new("even-only", space)];
        let mut t = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.0), 43);
        for _ in 0..200 {
            let s = t.step(|_, c| {
                let x = c.get(0).as_i64();
                assert_eq!(x % 2, 0, "measured an odd x: {x}");
                10.0 + 0.2 * ((x - 20) as f64).powi(2)
            });
            assert!(!s.failed, "repairable proposals must be measured");
        }
        let (_, config, _) = t.best().unwrap();
        let x = config.get(0).as_i64();
        assert_eq!(x % 2, 0, "best configuration violates the constraint");
        assert!((x - 20).abs() <= 2, "should approach the optimum, got {x}");
    }

    #[test]
    fn nominal_kind_labels_are_unique() {
        let labels: Vec<String> = NominalKind::paper_set()
            .into_iter()
            .map(NominalKind::label)
            .collect();
        for i in 0..labels.len() {
            for j in 0..i {
                assert_ne!(labels[i], labels[j]);
            }
        }
    }
}
