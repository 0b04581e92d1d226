//! Phase-1 search strategies (Section II-A of the paper).
//!
//! These are the classical approximative techniques used to tune *numeric*
//! (ordinal/interval/ratio) parameter spaces: hill climbing, the Nelder-Mead
//! downhill simplex, particle swarm, genetic algorithms, differential
//! evolution, simulated annealing, plus exhaustive and random search.
//!
//! All strategies implement the ask/tell [`Searcher`] interface so they can
//! drive an *online* tuning loop: the application asks for the next
//! configuration, runs its hot operation, and tells the searcher the
//! measured value. No strategy ever calls the measurement function itself —
//! that inversion of control is what makes online tuning possible.
//!
//! ## Nominal parameters
//!
//! Per Section II-B, all of these except genetic algorithms, exhaustive and
//! random search require order, distance, or direction, and therefore
//! *cannot* legally manipulate nominal parameters. The constructors of those
//! strategies reject spaces containing a nominal parameter; the dedicated
//! strategies in [`crate::nominal`] handle algorithmic choice instead.

mod differential_evolution;
mod exhaustive;
mod genetic;
mod hill_climbing;
mod nelder_mead;
mod particle_swarm;
mod random;
mod simulated_annealing;

pub use differential_evolution::{DifferentialEvolution, DifferentialEvolutionOptions};
pub use exhaustive::ExhaustiveSearch;
pub use genetic::{GeneticAlgorithm, GeneticOptions};
pub use hill_climbing::HillClimbing;
pub use nelder_mead::{NelderMead, NelderMeadOptions};
pub use particle_swarm::{ParticleSwarm, ParticleSwarmOptions};
pub use random::RandomSearch;
pub use simulated_annealing::{SimulatedAnnealing, SimulatedAnnealingOptions};

use crate::space::{Configuration, SearchSpace};

/// Ask/tell interface of a phase-1 search strategy.
///
/// Protocol: alternate [`Searcher::propose`] and [`Searcher::report`]. Every
/// proposed configuration must be reported before the next proposal; values
/// must be finite and lower-is-better.
///
/// `Send` is a supertrait so searcher state can live inside the concurrent
/// multi-site runtime ([`crate::site`]), where any request thread may claim
/// a site and drive its tuner; every searcher in this crate owns plain data
/// and is `Send` automatically.
pub trait Searcher: Send {
    /// The space being searched.
    fn space(&self) -> &SearchSpace;

    /// Propose the next configuration to evaluate.
    fn propose(&mut self) -> Configuration;

    /// Report the measured value of the most recently proposed
    /// configuration.
    fn report(&mut self, value: f64);

    /// Abandon the most recently proposed configuration without reporting a
    /// value: the measurement failed and produced nothing usable. The
    /// search state rolls back so the next [`Searcher::propose`] behaves as
    /// if the abandoned proposal never happened (the same point may be
    /// re-proposed). A no-op when nothing is pending.
    ///
    /// The default suits stateless searchers; every implementation that
    /// asserts propose/report pairing must override it to clear (and where
    /// necessary re-queue) its pending state.
    fn abandon(&mut self) {}

    /// Best configuration and value observed so far.
    fn best(&self) -> Option<(&Configuration, f64)>;

    /// Has the strategy converged? A converged strategy keeps proposing its
    /// best-known configuration, which is the correct behaviour inside an
    /// indefinitely running online loop.
    fn converged(&self) -> bool {
        false
    }

    /// Strategy name for reports and plots.
    fn name(&self) -> &'static str;
}

impl Searcher for Box<dyn Searcher> {
    fn space(&self) -> &SearchSpace {
        (**self).space()
    }

    fn propose(&mut self) -> Configuration {
        (**self).propose()
    }

    fn report(&mut self, value: f64) {
        (**self).report(value)
    }

    fn abandon(&mut self) {
        (**self).abandon()
    }

    fn best(&self) -> Option<(&Configuration, f64)> {
        (**self).best()
    }

    fn converged(&self) -> bool {
        (**self).converged()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Shared best-so-far bookkeeping for searcher implementations.
#[derive(Debug, Clone, Default)]
pub(crate) struct BestTracker {
    best: Option<(Configuration, f64)>,
    evaluations: usize,
}

impl BestTracker {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn observe(&mut self, config: &Configuration, value: f64) {
        assert!(value.is_finite(), "measurement must be finite, got {value}");
        self.evaluations += 1;
        if self.best.as_ref().is_none_or(|(_, b)| value < *b) {
            self.best = Some((config.clone(), value));
        }
    }

    pub fn best(&self) -> Option<(&Configuration, f64)> {
        self.best.as_ref().map(|(c, v)| (c, *v))
    }

    #[allow(dead_code)] // used by tests and kept for diagnostics
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// Panic helper used by numeric strategies that cannot handle nominal
/// parameters (Section II-B's central observation).
pub(crate) fn reject_nominal(space: &SearchSpace, strategy: &str) {
    assert!(
        !space.has_nominal(),
        "{strategy} requires ordered parameters and cannot manipulate a \
         nominal parameter; use the strategies in autotune::nominal for \
         algorithmic choice"
    );
}

/// Run a searcher against a measurement function for `iterations` steps and
/// return the per-iteration measured values. This is the offline-style
/// driver used by tests and benchmarks; online applications embed the
/// ask/tell calls in their own loop instead.
pub fn run_loop<S: Searcher, M: crate::robust::Measure>(
    searcher: &mut S,
    measure: &mut M,
    iterations: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let config = searcher.propose();
        let value = measure.measure(&config);
        searcher.report(value);
        out.push(value);
    }
    out
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::param::Parameter;
    use crate::space::{Configuration, SearchSpace};

    /// A smooth convex bowl over two integer ratio parameters, minimum at
    /// (7, -3) with value 1.0.
    pub fn bowl_space() -> SearchSpace {
        SearchSpace::new(vec![
            Parameter::ratio("x", -20, 20),
            Parameter::interval("y", -20, 20),
        ])
    }

    pub fn bowl(c: &Configuration) -> f64 {
        let x = c.get(0).as_f64();
        let y = c.get(1).as_f64();
        1.0 + (x - 7.0).powi(2) + (y + 3.0).powi(2)
    }

    /// A multimodal 1-D function with a deep global minimum at x = 13 and a
    /// shallow local minimum at x = -11.
    pub fn two_wells_space() -> SearchSpace {
        SearchSpace::new(vec![Parameter::interval("x", -30, 30)])
    }

    pub fn two_wells(c: &Configuration) -> f64 {
        let x = c.get(0).as_f64();
        let global = 2.0 + 0.05 * (x - 13.0).powi(2);
        let local = 6.0 + 0.05 * (x + 11.0).powi(2);
        global.min(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Configuration;

    #[test]
    fn best_tracker_keeps_minimum() {
        let mut t = BestTracker::new();
        t.observe(&Configuration::empty(), 4.0);
        t.observe(&Configuration::empty(), 2.0);
        t.observe(&Configuration::empty(), 3.0);
        assert_eq!(t.best().unwrap().1, 2.0);
        assert_eq!(t.evaluations(), 3);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn best_tracker_rejects_nan() {
        let mut t = BestTracker::new();
        t.observe(&Configuration::empty(), f64::NAN);
    }
}
