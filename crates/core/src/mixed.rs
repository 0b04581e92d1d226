//! Tuning *mixed* spaces: arbitrary nominal parameters combined with
//! numeric ones — the paper's stated future work, implemented.
//!
//! Section VI: "In the future we will expand on this work by generalizing
//! from the problem of algorithmic choice towards arbitrary nominal
//! parameters." The generalization is a direct corollary of the two-phase
//! model: every *combination* of nominal parameter values is an "algorithm"
//! in the sense of Section III, and the remaining (ordered) parameters form
//! that combination's phase-1 space. [`MixedTuner`] performs exactly this
//! factorization:
//!
//! 1. split the space `T` into its nominal dimensions `N` and its ordered
//!    dimensions `O`,
//! 2. enumerate the nominal sub-lattice `Π N` (each point is an arm),
//! 3. run the two-phase tuner with a phase-2 strategy over the arms and one
//!    phase-1 searcher per arm over `O`.
//!
//! The nominal cross product grows multiplicatively, so construction
//! rejects lattices above [`MAX_ARMS`] — at that size a per-arm searcher
//! would never receive enough samples to make progress, and the honest
//! answer is to restructure the space, not to hide the explosion.
//!
//! Construction also rejects a space that carries constraints: the arms'
//! ordered spaces are rebuilt from the parameters alone, so a constraint
//! over the full configuration would silently go unchecked.

use crate::param::{ParamClass, Value};
use crate::space::{Configuration, SearchSpace};
use crate::two_phase::{AlgorithmSpec, NominalKind, Phase1Kind, TwoPhaseSample, TwoPhaseTuner};

/// Upper bound on the enumerated nominal cross product.
pub const MAX_ARMS: usize = 512;

/// A tuner for spaces mixing nominal and ordered parameters.
///
/// ```
/// use autotune::prelude::*;
///
/// let space = SearchSpace::new(vec![
///     Parameter::nominal("algo", vec!["a".into(), "b".into()]),
///     Parameter::ratio("block", 1, 16),
/// ]);
/// let mut tuner = MixedTuner::new(space, NominalKind::EpsilonGreedy(0.2), 7);
/// assert_eq!(tuner.num_arms(), 2);
/// for _ in 0..200 {
///     tuner.step(|c| match c.get(0).as_index() {
///         0 => 9.0,
///         _ => 3.0 + (c.get(1).as_f64() - 12.0).abs(),
///     });
/// }
/// let (best, _) = tuner.best().unwrap();
/// assert_eq!(best.get(0).as_index(), 1);
/// ```
pub struct MixedTuner {
    space: SearchSpace,
    /// Indices of the nominal dimensions within the full space.
    nominal_dims: Vec<usize>,
    /// Indices of the ordered dimensions within the full space.
    ordered_dims: Vec<usize>,
    /// One entry per arm: the nominal values of that combination.
    arms: Vec<Vec<Value>>,
    inner: TwoPhaseTuner,
}

impl MixedTuner {
    /// Factor `space` and build the tuner. Panics if the nominal lattice
    /// exceeds [`MAX_ARMS`] or `space` carries constraints.
    pub fn new(space: SearchSpace, strategy: NominalKind, seed: u64) -> Self {
        Self::with_phase1(space, strategy, Phase1Kind::NelderMead, seed)
    }

    /// As [`MixedTuner::new`] with an explicit phase-1 searcher.
    pub fn with_phase1(
        space: SearchSpace,
        strategy: NominalKind,
        phase1: Phase1Kind,
        seed: u64,
    ) -> Self {
        assert!(
            !space.is_constrained(),
            "MixedTuner cannot enforce the space's constraints ({}): its arms \
             tune unconstrained ordered spaces",
            space
                .constraints()
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let nominal_dims: Vec<usize> = space
            .params()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.class() == ParamClass::Nominal)
            .map(|(i, _)| i)
            .collect();
        let ordered_dims: Vec<usize> = (0..space.dims())
            .filter(|i| !nominal_dims.contains(i))
            .collect();

        // Enumerate the nominal sub-lattice.
        let nominal_space = SearchSpace::new(
            nominal_dims
                .iter()
                .map(|&i| space.params()[i].clone())
                .collect(),
        );
        let arm_count = nominal_space
            .cardinality()
            .expect("nominal parameters are finite") as usize;
        assert!(
            arm_count <= MAX_ARMS,
            "nominal cross product has {arm_count} combinations (> {MAX_ARMS}); \
             restructure the space instead of enumerating it"
        );
        let arms: Vec<Vec<Value>> = nominal_space
            .enumerate()
            .into_iter()
            .map(|c| c.values().to_vec())
            .collect();

        let ordered_space = SearchSpace::new(
            ordered_dims
                .iter()
                .map(|&i| space.params()[i].clone())
                .collect(),
        );
        let specs: Vec<AlgorithmSpec> = arms
            .iter()
            .map(|vals| {
                let label = nominal_dims
                    .iter()
                    .zip(vals)
                    .map(|(&d, v)| {
                        let p = &space.params()[d];
                        let lbl = p
                            .labels()
                            .map(|ls| ls[v.as_index()].clone())
                            .unwrap_or_else(|| format!("{v:?}"));
                        format!("{}={}", p.name(), lbl)
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                AlgorithmSpec::new(label, ordered_space.clone())
            })
            .collect();
        let inner = TwoPhaseTuner::with_phase1(specs, strategy, phase1, seed);
        MixedTuner {
            space,
            nominal_dims,
            ordered_dims,
            arms,
            inner,
        }
    }

    /// The full (mixed) space being tuned.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Number of enumerated nominal combinations.
    pub fn num_arms(&self) -> usize {
        self.arms.len()
    }

    /// Human-readable label of arm `i` (e.g. `algo=fft,layout=SoA`).
    pub fn arm_label(&self, i: usize) -> &str {
        self.inner.algorithm_name(i)
    }

    /// Reassemble a full-space configuration from an arm index and its
    /// phase-1 (ordered-dims) configuration.
    fn assemble(&self, arm: usize, ordered: &Configuration) -> Configuration {
        let mut values = vec![Value::Int(0); self.space.dims()];
        for (&dim, &v) in self.nominal_dims.iter().zip(&self.arms[arm]) {
            values[dim] = v;
        }
        for (&dim, &v) in self.ordered_dims.iter().zip(ordered.values()) {
            values[dim] = v;
        }
        Configuration::new(values)
    }

    /// Propose the next full-space configuration.
    ///
    /// Named for symmetry with [`TwoPhaseTuner::next`]; this is an ask/tell
    /// protocol step, not an `Iterator`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Configuration {
        let (arm, ordered) = self.inner.next();
        self.assemble(arm, &ordered)
    }

    /// Report the measurement for the last proposal.
    pub fn report(&mut self, value: f64) -> TwoPhaseSample {
        self.inner.report(value)
    }

    /// One full iteration against a measurement function over the *mixed*
    /// configuration.
    pub fn step<F: FnMut(&Configuration) -> f64>(&mut self, mut m: F) -> TwoPhaseSample {
        let config = self.next();
        let v = m(&config);
        self.report(v)
    }

    /// Best observed full-space configuration and value.
    pub fn best(&self) -> Option<(Configuration, f64)> {
        self.inner
            .best()
            .map(|(arm, ordered, v)| (self.assemble(arm, ordered), v))
    }

    /// Selection counts per nominal combination.
    pub fn selection_counts(&self) -> Vec<usize> {
        self.inner.selection_counts()
    }
}

impl std::fmt::Debug for MixedTuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixedTuner")
            .field("arms", &self.arms.len())
            .field("nominal_dims", &self.nominal_dims)
            .field("ordered_dims", &self.ordered_dims)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;

    /// algo ∈ {sort-a, sort-b}, layout ∈ {aos, soa}, block ∈ [1, 32].
    fn mixed_space() -> SearchSpace {
        SearchSpace::new(vec![
            Parameter::nominal("algo", vec!["sort-a".into(), "sort-b".into()]),
            Parameter::ratio("block", 1, 32),
            Parameter::nominal("layout", vec!["aos".into(), "soa".into()]),
        ])
    }

    /// Optimum: sort-b + soa + block 24 → 2.0.
    fn cost(c: &Configuration) -> f64 {
        let algo = c.get(0).as_index();
        let block = c.get(1).as_f64();
        let layout = c.get(2).as_index();
        let base = match (algo, layout) {
            (1, 1) => 2.0,
            (1, 0) => 6.0,
            (0, 1) => 9.0,
            _ => 14.0,
        };
        base + 0.05 * (block - 24.0).powi(2)
    }

    #[test]
    fn factors_dimensions_correctly() {
        let t = MixedTuner::new(mixed_space(), NominalKind::EpsilonGreedy(0.1), 1);
        assert_eq!(t.num_arms(), 4, "2 × 2 nominal combinations");
        assert_eq!(t.nominal_dims, vec![0, 2]);
        assert_eq!(t.ordered_dims, vec![1]);
    }

    #[test]
    fn arm_labels_are_descriptive() {
        let t = MixedTuner::new(mixed_space(), NominalKind::EpsilonGreedy(0.1), 1);
        let labels: Vec<&str> = (0..4).map(|i| t.arm_label(i)).collect();
        assert!(labels.contains(&"algo=sort-a,layout=aos"));
        assert!(labels.contains(&"algo=sort-b,layout=soa"));
    }

    #[test]
    fn proposals_are_members_of_the_full_space() {
        let space = mixed_space();
        let mut t = MixedTuner::new(space.clone(), NominalKind::SlidingWindowAuc(16), 2);
        for _ in 0..100 {
            let c = t.next();
            assert!(space.contains(&c), "{c:?}");
            t.report(cost(&c));
        }
    }

    #[test]
    fn finds_the_global_optimum_across_the_mixed_space() {
        let mut t = MixedTuner::new(mixed_space(), NominalKind::EpsilonGreedy(0.20), 3);
        for _ in 0..800 {
            t.step(cost);
        }
        let (best, v) = t.best().unwrap();
        assert_eq!(best.get(0).as_index(), 1, "sort-b");
        assert_eq!(best.get(2).as_index(), 1, "soa");
        assert!(
            (best.get(1).as_i64() - 24).abs() <= 2,
            "block ≈ 24: {best:?}"
        );
        assert!(v < 3.0, "near the optimum of 2.0, got {v}");
    }

    #[test]
    fn purely_nominal_space_works_like_bandit() {
        let space = SearchSpace::new(vec![Parameter::nominal(
            "alg",
            (0..5).map(|i| format!("a{i}")).collect(),
        )]);
        let mut t = MixedTuner::new(space, NominalKind::EpsilonGreedy(0.1), 7);
        assert_eq!(t.num_arms(), 5);
        for _ in 0..200 {
            t.step(|c| [9.0, 3.0, 7.0, 8.0, 5.0][c.get(0).as_index()]);
        }
        assert_eq!(t.best().unwrap().0.get(0).as_index(), 1);
    }

    #[test]
    fn purely_numeric_space_is_single_armed() {
        let space = SearchSpace::new(vec![Parameter::ratio("x", 0, 50)]);
        let mut t = MixedTuner::new(space, NominalKind::EpsilonGreedy(0.1), 9);
        assert_eq!(t.num_arms(), 1);
        for _ in 0..150 {
            t.step(|c| (c.get(0).as_f64() - 33.0).powi(2));
        }
        assert!((t.best().unwrap().0.get(0).as_i64() - 33).abs() <= 1);
    }

    #[test]
    fn counts_cover_all_arms_eventually() {
        let mut t = MixedTuner::new(mixed_space(), NominalKind::OptimumWeighted, 11);
        for _ in 0..100 {
            t.step(cost);
        }
        let counts = t.selection_counts();
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }

    #[test]
    #[should_panic(expected = "combinations")]
    fn rejects_exploding_nominal_lattices() {
        let space = SearchSpace::new(
            (0..4)
                .map(|i| {
                    Parameter::nominal(format!("n{i}"), (0..6).map(|j| format!("v{j}")).collect())
                })
                .collect(),
        );
        // 6^4 = 1296 > MAX_ARMS.
        MixedTuner::new(space, NominalKind::EpsilonGreedy(0.1), 0);
    }

    #[test]
    #[should_panic(expected = "constraints (block-even)")]
    fn rejects_constrained_spaces() {
        let even = |c: &Configuration| c.get(1).as_i64() % 2 == 0;
        let space =
            mixed_space().with_constraint(crate::space::Constraint::new("block-even", even));
        MixedTuner::new(space, NominalKind::EpsilonGreedy(0.1), 0);
    }
}
