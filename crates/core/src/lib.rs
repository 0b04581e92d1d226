//! # autotune — online autotuning with first-class algorithmic choice
//!
//! A from-scratch Rust implementation of the system described in
//! *"Online-Autotuning in the Presence of Algorithmic Choice"* (Pfaffe,
//! Tillmann, Walter, Tichy — IEEE IPDPSW 2017).
//!
//! The crate provides:
//!
//! * **Parameter classes** ([`param`]) following Stevens' typology — the
//!   paper's Table I — with the type system enforcing which search
//!   operations are legal on which class.
//! * **Search spaces and configurations** ([`space`]).
//! * **Eight classical phase-1 search strategies** ([`search`]): hill
//!   climbing, Nelder-Mead downhill simplex, particle swarm, genetic
//!   algorithms, differential evolution, simulated annealing, exhaustive and
//!   random search — all as ask/tell state machines suitable for online
//!   tuning. Strategies that require order/distance reject nominal spaces at
//!   construction, mechanizing the paper's Section II-B analysis.
//! * **Four nominal phase-2 strategies** ([`nominal`]): ε-Greedy, Gradient
//!   Weighted, Optimum Weighted, and Sliding-Window AUC.
//! * **The two-phase online tuner** ([`two_phase`]): per-iteration algorithm
//!   selection (phase 2) combined with per-algorithm parameter tuning
//!   (phase 1, Nelder-Mead by default). It is the one tuning-loop driver:
//!   a single parameter space is tuned as one algorithm, whose phase 2 is
//!   never consulted.
//! * **Measurement** ([`robust`]): the measurement-function trait and
//!   timing, inside a fault-tolerant pipeline — panics, timeouts, and
//!   degenerate (NaN/infinite/zero) measurements become
//!   [`robust::MeasureOutcome`] values that the tuners absorb as penalties
//!   instead of crashing, so no algorithm is ever excluded outright.
//! * **A persistent work-stealing executor** ([`pool`]): the shared
//!   execution substrate for every parallel kernel in the workspace, with
//!   dispatch-time thread caps so parallelism stays a tunable ratio
//!   parameter.
//!
//! ## Quick example
//!
//! ```
//! use autotune::prelude::*;
//!
//! // Two algorithms: one untunable, one with a thread-count parameter.
//! let specs = vec![
//!     AlgorithmSpec::untunable("baseline"),
//!     AlgorithmSpec::new(
//!         "parallel",
//!         SearchSpace::new(vec![Parameter::ratio("threads", 1, 8)]),
//!     ),
//! ];
//! let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.10), 42);
//!
//! // The online tuning loop: the application measures, the tuner decides.
//! for _ in 0..100 {
//!     let (alg, config) = tuner.next();
//!     let runtime_ms = match alg {
//!         0 => 20.0,
//!         _ => 32.0 / config.get(0).as_f64(), // scales with threads
//!     };
//!     tuner.report(runtime_ms);
//! }
//! assert_eq!(tuner.best().unwrap().0, 1); // "parallel" with 8 threads wins
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod drift;
pub mod history;
pub mod json;
pub mod mixed;
pub mod nominal;
pub mod param;
pub mod pool;
pub mod rng;
pub mod robust;
pub mod search;
pub mod serve;
pub mod site;
pub mod space;
pub mod stats;
pub mod telemetry;
pub mod two_phase;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::context::{ContextGuard, ContextKey, ContextSites, ContextStats, KeyStats};
    pub use crate::drift::{DriftConfig, DriftMonitor, Verdict};
    pub use crate::mixed::MixedTuner;
    pub use crate::nominal::{
        EpsilonGradient, EpsilonGreedy, GradientWeighted, NominalStrategy, OptimumWeighted,
        SlidingWindowAuc,
    };
    pub use crate::param::{Domain, ParamClass, Parameter, Value};
    pub use crate::pool::Pool;
    pub use crate::rng::Rng;
    pub use crate::robust::{
        batched_time_ms, duration_ms, robust_call, robust_time, time_ms, timer_resolution_ms,
        FallibleMeasure, FaultKind, FaultPlan, FaultyMeasure, Measure, MeasureOutcome,
        RobustMeasure, RobustOptions,
    };
    pub use crate::search::{
        DifferentialEvolution, ExhaustiveSearch, GeneticAlgorithm, HillClimbing, NelderMead,
        NelderMeadOptions, ParticleSwarm, RandomSearch, Searcher, SimulatedAnnealing,
    };
    pub use crate::serve::{Client, RequestHandler, ServeConfig, ServeReport, StopFlag};
    pub use crate::site::{Site, SiteGuard, SiteId, SiteSpec};
    pub use crate::space::{Configuration, Constraint, SearchSpace};
    pub use crate::telemetry::{
        self, Event, EventKind, MeasureStatus, MetricsReport, SpanKind, Traffic, WeightSet,
    };
    pub use crate::two_phase::{
        AlgorithmSpec, NominalKind, Phase1Kind, TwoPhaseSample, TwoPhaseTuner,
    };
}
