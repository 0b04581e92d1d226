//! Search spaces and configurations.
//!
//! Following the paper's formalization, a search space `T` is the Cartesian
//! product of a finite set of tuning parameters `τ_0 × τ_1 × … × τ_J`; a
//! configuration `C ∈ T` is one point in that product.
//!
//! Real spaces are rarely pure products: threads must not exceed cores,
//! packet widths interact with thread-tree depth, SIMD variants need CPU
//! features. [`Constraint`]s capture those cross-parameter rules as named
//! predicates with optional *repair* functions, and the `*_feasible`
//! projection family ([`SearchSpace::clamp_feasible`],
//! [`SearchSpace::random_feasible`], …) projects points into the feasible
//! region instead of merely into the box, so searchers never hand the
//! measurement pipeline a configuration the application cannot run.

use crate::json::{Json, JsonError};
use crate::param::{Domain, ParamClass, Parameter, Value};
use crate::rng::Rng;
use crate::telemetry::{self, EventKind};
use std::sync::Arc;

/// Most parameter values a [`Configuration`] holds — and so the most
/// parameters a [`SearchSpace`] may have. Values are stored inline, so
/// creating, cloning and comparing a configuration never touches the heap,
/// and a site publishes its decision as a fixed-size payload
/// ([`crate::site`]).
pub const MAX_PUBLISHED_PARAMS: usize = 8;

/// A point in a [`SearchSpace`]: one [`Value`] per parameter, in parameter
/// order, stored inline (at most [`MAX_PUBLISHED_PARAMS`]).
#[derive(Clone)]
pub struct Configuration {
    /// `values[..len]` are the parameter values; the rest stay
    /// `Value::Int(0)`.
    values: [Value; MAX_PUBLISHED_PARAMS],
    len: u8,
}

impl Configuration {
    /// Wrap a raw value vector. Prefer [`SearchSpace::configuration`] which
    /// validates against the space. Panics on more than
    /// [`MAX_PUBLISHED_PARAMS`] values.
    pub fn new(values: Vec<Value>) -> Self {
        Self::from_slice(&values)
    }

    /// A configuration holding a copy of `values`, without allocating.
    /// Panics on more than [`MAX_PUBLISHED_PARAMS`] values.
    pub fn from_slice(values: &[Value]) -> Self {
        Self::try_from_slice(values).unwrap_or_else(|| {
            panic!(
                "a configuration holds at most {MAX_PUBLISHED_PARAMS} values, got {}",
                values.len()
            )
        })
    }

    /// [`Configuration::from_slice`], or `None` when `values` does not fit.
    fn try_from_slice(values: &[Value]) -> Option<Self> {
        let mut c = Self::empty();
        c.values.get_mut(..values.len())?.copy_from_slice(values);
        c.len = values.len() as u8;
        Some(c)
    }

    /// An empty configuration for a zero-parameter space (used by case
    /// study 1, where the string matchers expose no tunables).
    pub fn empty() -> Self {
        Configuration {
            values: [Value::Int(0); MAX_PUBLISHED_PARAMS],
            len: 0,
        }
    }

    /// All parameter values, in space order.
    pub fn values(&self) -> &[Value] {
        &self.values[..self.len as usize]
    }

    /// Number of parameter values (the space's dimensionality).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the zero-parameter configuration.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of the `i`-th parameter.
    pub fn get(&self, i: usize) -> Value {
        self.values()[i]
    }

    /// Continuous coordinates of this configuration, for numeric searchers.
    pub fn as_coords(&self) -> Vec<f64> {
        self.values().iter().map(|v| v.as_f64()).collect()
    }

    /// JSON encoding: `{"values": [...]}` with externally-tagged values.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "values",
            Json::Arr(self.values().iter().map(|v| v.to_json()).collect()),
        )])
    }

    /// Inverse of [`Configuration::to_json`]. More than
    /// [`MAX_PUBLISHED_PARAMS`] values is an error.
    pub fn from_json(json: &Json) -> Result<Configuration, JsonError> {
        let values = json
            .get("values")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError {
                message: "configuration needs a values array".to_string(),
                offset: 0,
            })?
            .iter()
            .map(Value::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Configuration::try_from_slice(&values).ok_or_else(|| JsonError {
            message: format!(
                "configuration has {} values; at most {MAX_PUBLISHED_PARAMS} fit",
                values.len()
            ),
            offset: 0,
        })
    }
}

/// Collects at most [`MAX_PUBLISHED_PARAMS`] values without allocating;
/// panics on more.
impl FromIterator<Value> for Configuration {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut c = Configuration::empty();
        for v in iter {
            assert!(
                c.len() < MAX_PUBLISHED_PARAMS,
                "a configuration holds at most {MAX_PUBLISHED_PARAMS} values"
            );
            c.values[c.len()] = v;
            c.len += 1;
        }
        c
    }
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl std::fmt::Debug for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Configuration")
            .field("values", &self.values())
            .finish()
    }
}

/// A named feasibility rule over whole configurations: a predicate that
/// decides membership in the feasible region, plus an optional *repair*
/// function that projects a violating configuration back into it.
///
/// Constraints express what the box product cannot: cross-parameter rules
/// (threads × packet width vs a core budget) and host-dependent
/// availability (a SIMD kernel that needs AVX2). A constraint without a
/// repair function makes violating proposals *irreparable* — the tuners
/// route those through the failure-penalty path instead of measuring them.
#[derive(Clone)]
pub struct Constraint {
    name: String,
    predicate: Arc<dyn Fn(&Configuration) -> bool + Send + Sync>,
    repair: Option<RepairFn>,
}

/// A shared repair function: projects a violating configuration back into
/// the feasible region.
type RepairFn = Arc<dyn Fn(&Configuration) -> Configuration + Send + Sync>;

impl Constraint {
    /// A constraint from a name and a feasibility predicate.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(&Configuration) -> bool + Send + Sync + 'static,
    ) -> Self {
        Constraint {
            name: name.into(),
            predicate: Arc::new(predicate),
            repair: None,
        }
    }

    /// Attach a repair function. It is only invoked on configurations that
    /// violate the predicate, and must return a configuration inside the
    /// space's box (per-parameter domains); [`SearchSpace::repair`] rejects
    /// repairs that leave the box.
    pub fn with_repair(
        mut self,
        repair: impl Fn(&Configuration) -> Configuration + Send + Sync + 'static,
    ) -> Self {
        self.repair = Some(Arc::new(repair));
        self
    }

    /// The constraint's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Does `c` satisfy this constraint?
    pub fn is_satisfied(&self, c: &Configuration) -> bool {
        (self.predicate)(c)
    }

    /// Does this constraint carry a repair function?
    pub fn has_repair(&self) -> bool {
        self.repair.is_some()
    }

    /// Apply the repair function, if any.
    pub fn repair(&self, c: &Configuration) -> Option<Configuration> {
        self.repair.as_ref().map(|r| r(c))
    }

    /// This constraint with its repair function stripped — the
    /// reject-and-retry baseline of the `constraints` study.
    pub fn without_repair(&self) -> Constraint {
        Constraint {
            name: self.name.clone(),
            predicate: self.predicate.clone(),
            repair: None,
        }
    }
}

impl std::fmt::Debug for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Constraint")
            .field("name", &self.name)
            .field("has_repair", &self.repair.is_some())
            .finish()
    }
}

/// Telemetry tag for degenerate-coordinate events emitted below any
/// algorithm context (e.g. from [`SearchSpace::clamp`]); deliberately
/// outside `MAX_TRACKED_ALGORITHMS` so metrics ignore it.
const DEGENERATE_PROPOSAL: u16 = u16::MAX;

/// How many uniform draws [`SearchSpace::random_feasible`] attempts before
/// falling back to the repaired minimum corner.
const RANDOM_FEASIBLE_ATTEMPTS: usize = 16;

/// The product of a finite list of [`Parameter`]s, optionally restricted
/// by [`Constraint`]s.
///
/// Equality compares parameters and constraint *names* (predicates are
/// opaque closures); JSON round-trips encode parameters only — constraints
/// are host-dependent runtime objects and must be re-attached by the code
/// that declared them.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    params: Vec<Parameter>,
    constraints: Vec<Constraint>,
}

impl PartialEq for SearchSpace {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
            && self.constraints.len() == other.constraints.len()
            && self
                .constraints
                .iter()
                .zip(&other.constraints)
                .all(|(a, b)| a.name == b.name)
    }
}

impl SearchSpace {
    /// A space over the given parameters, in order. Panics on more than
    /// [`MAX_PUBLISHED_PARAMS`] parameters.
    pub fn new(params: Vec<Parameter>) -> Self {
        assert!(
            params.len() <= MAX_PUBLISHED_PARAMS,
            "a search space has at most {MAX_PUBLISHED_PARAMS} parameters, got {}",
            params.len()
        );
        SearchSpace {
            params,
            constraints: Vec::new(),
        }
    }

    /// The space with no parameters; its only configuration is
    /// [`Configuration::empty`].
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// Attach one constraint (builder style).
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Attach several constraints (builder style).
    pub fn with_constraints(mut self, constraints: impl IntoIterator<Item = Constraint>) -> Self {
        self.constraints.extend(constraints);
        self
    }

    /// The attached constraints, in declaration order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Does this space carry any constraints?
    pub fn is_constrained(&self) -> bool {
        !self.constraints.is_empty()
    }

    /// This space with every repair function stripped: the same feasible
    /// region, but violating proposals become irreparable (penalized, not
    /// projected) — the reject-and-retry baseline of the `constraints`
    /// study.
    pub fn without_repairs(&self) -> SearchSpace {
        SearchSpace {
            params: self.params.clone(),
            constraints: self
                .constraints
                .iter()
                .map(Constraint::without_repair)
                .collect(),
        }
    }

    /// The parameters, in order.
    pub fn params(&self) -> &[Parameter] {
        &self.params
    }

    /// Dimensionality `J` of the space.
    pub fn dims(&self) -> usize {
        self.params.len()
    }

    /// True for the zero-parameter space.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Does the space contain any nominal parameter? Numeric searchers call
    /// this to reject spaces they cannot legally manipulate (Section II-B).
    pub fn has_nominal(&self) -> bool {
        self.params.iter().any(|p| p.class() == ParamClass::Nominal)
    }

    /// Total number of configurations, or `None` if any domain is continuous
    /// (or the product overflows `u64`).
    pub fn cardinality(&self) -> Option<u64> {
        let mut total: u64 = 1;
        for p in &self.params {
            total = total.checked_mul(p.cardinality()?)?;
        }
        Some(total)
    }

    /// Validate and wrap a value vector into a [`Configuration`].
    pub fn configuration(&self, values: Vec<Value>) -> Result<Configuration, SpaceError> {
        if values.len() != self.params.len() {
            return Err(SpaceError::WrongArity {
                expected: self.params.len(),
                got: values.len(),
            });
        }
        for (i, (p, &v)) in self.params.iter().zip(&values).enumerate() {
            if !p.contains(v) {
                return Err(SpaceError::OutOfDomain {
                    param: p.name().to_string(),
                    index: i,
                    value: v,
                });
            }
        }
        Ok(Configuration::from_slice(&values))
    }

    /// Is `c` a member of this space?
    ///
    /// Box membership only: every value inside its parameter's domain.
    /// Constraint satisfaction is [`SearchSpace::is_feasible`].
    pub fn contains(&self, c: &Configuration) -> bool {
        c.len() == self.params.len()
            && self
                .params
                .iter()
                .zip(c.values())
                .all(|(p, &v)| p.contains(v))
    }

    /// Is `c` inside the box *and* does it satisfy every constraint?
    pub fn is_feasible(&self, c: &Configuration) -> bool {
        self.contains(c) && self.constraints.iter().all(|k| k.is_satisfied(c))
    }

    /// The first violated constraint of an in-box configuration, if any.
    pub fn violated(&self, c: &Configuration) -> Option<&Constraint> {
        self.constraints.iter().find(|k| !k.is_satisfied(c))
    }

    /// Project `c` into the feasible region by applying the repair
    /// functions of violated constraints, first-violated first, until a
    /// fixed point. Returns `None` when the configuration is irreparable:
    /// a violated constraint carries no repair, a repair leaves the box,
    /// or the repairs do not reach a feasible fixed point (constraints
    /// fighting each other). Feasible inputs come back unchanged.
    pub fn repair(&self, c: &Configuration) -> Option<Configuration> {
        if c.len() != self.params.len() {
            return None;
        }
        // Box-project first: repair predicates may assume in-box values
        // (this also sanitizes non-finite coordinates to parameter minima).
        let mut current = if self.contains(c) {
            c.clone()
        } else {
            self.clamp(&c.as_coords())
        };
        // Each pass fixes the first violated constraint; allow every
        // constraint a couple of interactions before declaring a cycle.
        for _ in 0..=(2 * self.constraints.len()) {
            match self.violated(&current) {
                None => return Some(current),
                Some(k) => {
                    let repaired = k.repair(&current)?;
                    if !self.contains(&repaired) {
                        return None;
                    }
                    current = repaired;
                }
            }
        }
        None
    }

    /// A uniformly random configuration (box only; see
    /// [`SearchSpace::random_feasible`] for the constraint-aware variant).
    pub fn random(&self, rng: &mut Rng) -> Configuration {
        self.params.iter().map(|p| p.random_value(rng)).collect()
    }

    /// A random configuration projected into the feasible region: draw
    /// uniformly, accept feasible points, repair violating ones, and after
    /// a bounded number of irreparable draws fall back to the (repaired)
    /// minimum corner. The result can still be infeasible when the
    /// feasible region is unreachable by repair — the tuners detect that
    /// and charge the failure penalty instead of measuring.
    pub fn random_feasible(&self, rng: &mut Rng) -> Configuration {
        for _ in 0..RANDOM_FEASIBLE_ATTEMPTS {
            let c = self.random(rng);
            if self.is_feasible(&c) {
                return c;
            }
            if let Some(repaired) = self.repair(&c) {
                return repaired;
            }
        }
        self.min_corner_feasible()
    }

    /// The deterministic "lowest corner" configuration — the paper's
    /// strategies "start with a deterministic configuration".
    pub fn min_corner(&self) -> Configuration {
        self.params.iter().map(|p| p.min_value()).collect()
    }

    /// The minimum corner projected into the feasible region (repaired if
    /// a constraint rejects the raw corner; unchanged when irreparable).
    pub fn min_corner_feasible(&self) -> Configuration {
        let c = self.min_corner();
        self.repair(&c).unwrap_or(c)
    }

    /// Project continuous coordinates onto the nearest legal configuration
    /// (box only). Non-finite coordinates — a collapsed Nelder-Mead
    /// simplex can produce NaN — project to the parameter's minimum value
    /// and emit a telemetry [`EventKind::PenaltyApplied`] (tagged with an
    /// out-of-range algorithm index) instead of panicking.
    pub fn clamp(&self, coords: &[f64]) -> Configuration {
        assert_eq!(coords.len(), self.params.len(), "coordinate arity mismatch");
        if coords.iter().any(|x| !x.is_finite()) {
            telemetry::emit(|| EventKind::PenaltyApplied {
                algorithm: DEGENERATE_PROPOSAL,
                penalty_ms: 0.0,
            });
        }
        self.params
            .iter()
            .zip(coords)
            .map(|(p, &x)| p.clamp_continuous(x))
            .collect()
    }

    /// Project continuous coordinates into the *feasible* region: box-clamp,
    /// then repair. Irreparable points come back merely box-clamped — the
    /// tuners recognize them as infeasible and penalize without measuring.
    pub fn clamp_feasible(&self, coords: &[f64]) -> Configuration {
        let boxed = self.clamp(coords);
        self.repair(&boxed).unwrap_or(boxed)
    }

    /// All configurations of a finite space, in lexicographic order.
    /// Panics on continuous domains; intended for exhaustive search and
    /// tests on small spaces.
    pub fn enumerate(&self) -> Vec<Configuration> {
        let card = self
            .cardinality()
            .expect("enumerate requires a finite space");
        assert!(card <= 1 << 22, "space too large to enumerate ({card})");
        let mut out = Vec::with_capacity(card as usize);
        let mut current: Vec<Value> = self.params.iter().map(|p| p.min_value()).collect();
        loop {
            out.push(Configuration::from_slice(&current));
            // Odometer increment, most-significant parameter first.
            let mut k = self.params.len();
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                if let Some(next) = self.successor(k, current[k]) {
                    current[k] = next;
                    break;
                }
                current[k] = self.params[k].min_value();
            }
        }
    }

    fn successor(&self, k: usize, v: Value) -> Option<Value> {
        match (self.params[k].domain(), v) {
            (Domain::Labels(ls), Value::Index(i)) => {
                (i + 1 < ls.len()).then_some(Value::Index(i + 1))
            }
            (Domain::IntRange { hi, .. }, Value::Int(x)) => (x < *hi).then_some(Value::Int(x + 1)),
            (Domain::FloatRange { .. }, _) => panic!("cannot enumerate a continuous domain"),
            _ => unreachable!("value/domain mismatch"),
        }
    }

    /// JSON encoding: `{"params": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "params",
            Json::Arr(self.params.iter().map(|p| p.to_json()).collect()),
        )])
    }

    /// Inverse of [`SearchSpace::to_json`]. More than
    /// [`MAX_PUBLISHED_PARAMS`] parameters is an error.
    pub fn from_json(json: &Json) -> Result<SearchSpace, JsonError> {
        let params: Vec<Parameter> = json
            .get("params")
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError {
                message: "search space needs a params array".to_string(),
                offset: 0,
            })?
            .iter()
            .map(Parameter::from_json)
            .collect::<Result<_, _>>()?;
        if params.len() > MAX_PUBLISHED_PARAMS {
            return Err(JsonError {
                message: format!(
                    "search space has {} parameters; at most {MAX_PUBLISHED_PARAMS} fit",
                    params.len()
                ),
                offset: 0,
            });
        }
        Ok(SearchSpace::new(params))
    }

    /// The full neighborhood of `c`: all configurations differing in exactly
    /// one parameter by one step. Empty for purely-nominal spaces.
    pub fn neighbors(&self, c: &Configuration) -> Vec<Configuration> {
        let mut out = Vec::new();
        for (i, p) in self.params.iter().enumerate() {
            for n in p.neighbors(c.get(i)) {
                let mut neighbor = c.clone();
                neighbor.values[i] = n;
                out.push(neighbor);
            }
        }
        out
    }

    /// The feasible subset of [`SearchSpace::neighbors`]. An empty result
    /// on a non-nominal space means `c` sits alone in its feasible
    /// component — hill climbing and simulated annealing treat that as
    /// convergence, exactly like a nominal space's empty neighborhood.
    pub fn neighbors_feasible(&self, c: &Configuration) -> Vec<Configuration> {
        let mut ns = self.neighbors(c);
        ns.retain(|n| self.is_feasible(n));
        ns
    }

    /// The feasible subset of [`SearchSpace::enumerate`], in the same
    /// lexicographic order.
    pub fn enumerate_feasible(&self) -> Vec<Configuration> {
        let mut all = self.enumerate();
        all.retain(|c| self.is_feasible(c));
        all
    }
}

/// Errors from configuration validation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// The value vector length does not match the space dimensionality.
    WrongArity {
        /// The space's dimensionality.
        expected: usize,
        /// The configuration's length.
        got: usize,
    },
    /// A value is outside its parameter's domain.
    OutOfDomain {
        /// Name of the offending parameter.
        param: String,
        /// Index of the offending parameter in the space.
        index: usize,
        /// The rejected value.
        value: Value,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::WrongArity { expected, got } => {
                write!(
                    f,
                    "configuration has {got} values, space has {expected} parameters"
                )
            }
            SpaceError::OutOfDomain {
                param,
                index,
                value,
            } => {
                write!(
                    f,
                    "value {value:?} out of domain for parameter '{param}' (index {index})"
                )
            }
        }
    }
}

impl std::error::Error for SpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![
            Parameter::ratio("threads", 1, 4),
            Parameter::interval("cutoff", 0, 2),
        ])
    }

    #[test]
    fn empty_space_has_one_config() {
        let s = SearchSpace::empty();
        assert_eq!(s.cardinality(), Some(1));
        assert_eq!(s.enumerate(), vec![Configuration::empty()]);
        assert!(s.contains(&Configuration::empty()));
    }

    #[test]
    fn cardinality_is_product() {
        assert_eq!(space().cardinality(), Some(12));
    }

    #[test]
    fn continuous_space_has_no_cardinality() {
        let s = SearchSpace::new(vec![Parameter::ratio_f64("x", 0.0, 1.0)]);
        assert_eq!(s.cardinality(), None);
    }

    #[test]
    fn enumerate_yields_every_config_once() {
        let all = space().enumerate();
        assert_eq!(all.len(), 12);
        for i in 0..all.len() {
            for j in 0..i {
                assert_ne!(all[i], all[j], "duplicate configuration");
            }
        }
        for c in &all {
            assert!(space().contains(c));
        }
    }

    #[test]
    fn validation_rejects_wrong_arity() {
        let err = space().configuration(vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            err,
            SpaceError::WrongArity {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn validation_rejects_out_of_domain() {
        let err = space()
            .configuration(vec![Value::Int(9), Value::Int(0)])
            .unwrap_err();
        assert!(matches!(err, SpaceError::OutOfDomain { index: 0, .. }));
    }

    #[test]
    fn clamp_projects_into_space() {
        let c = space().clamp(&[-5.0, 7.3]);
        assert_eq!(c.values(), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn random_configs_are_members() {
        let mut rng = Rng::new(1);
        let s = space();
        for _ in 0..200 {
            assert!(s.contains(&s.random(&mut rng)));
        }
    }

    #[test]
    fn neighbors_differ_in_one_coordinate() {
        let s = space();
        let c = s.configuration(vec![Value::Int(2), Value::Int(1)]).unwrap();
        let ns = s.neighbors(&c);
        assert_eq!(ns.len(), 4);
        for n in &ns {
            let diff = n
                .values()
                .iter()
                .zip(c.values())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diff, 1);
            assert!(s.contains(n));
        }
    }

    #[test]
    fn nominal_space_has_no_neighbors() {
        let s = SearchSpace::new(vec![Parameter::nominal(
            "alg",
            vec!["a".into(), "b".into(), "c".into()],
        )]);
        let c = s.min_corner();
        assert!(s.neighbors(&c).is_empty());
        assert!(s.has_nominal());
    }

    #[test]
    fn min_corner_is_member_and_deterministic() {
        let s = space();
        assert!(s.contains(&s.min_corner()));
        assert_eq!(s.min_corner(), s.min_corner());
        assert_eq!(s.min_corner().values(), &[Value::Int(1), Value::Int(0)]);
    }

    /// threads × 2^cutoff ≤ 4, repaired by lowering the cutoff.
    fn budget_constraint() -> Constraint {
        Constraint::new("budget", |c| c.get(0).as_i64() << c.get(1).as_i64() <= 4).with_repair(
            |c| {
                let threads = c.get(0).as_i64();
                let mut cutoff = c.get(1).as_i64();
                while cutoff > 0 && threads << cutoff > 4 {
                    cutoff -= 1;
                }
                Configuration::new(vec![Value::Int(threads.min(4)), Value::Int(cutoff)])
            },
        )
    }

    fn constrained() -> SearchSpace {
        space().with_constraint(budget_constraint())
    }

    #[test]
    fn feasibility_distinguishes_box_from_constraints() {
        let s = constrained();
        let ok = Configuration::new(vec![Value::Int(2), Value::Int(1)]);
        let bad = Configuration::new(vec![Value::Int(4), Value::Int(2)]);
        assert!(s.contains(&ok) && s.is_feasible(&ok));
        assert!(s.contains(&bad) && !s.is_feasible(&bad));
        assert_eq!(s.violated(&bad).unwrap().name(), "budget");
        assert!(s.violated(&ok).is_none());
    }

    #[test]
    fn repair_is_identity_on_feasible_and_projects_violations() {
        let s = constrained();
        let ok = Configuration::new(vec![Value::Int(2), Value::Int(1)]);
        assert_eq!(s.repair(&ok), Some(ok.clone()));
        let bad = Configuration::new(vec![Value::Int(4), Value::Int(2)]);
        let fixed = s.repair(&bad).expect("repairable");
        assert!(s.is_feasible(&fixed));
        assert_eq!(fixed.values(), &[Value::Int(4), Value::Int(0)]);
    }

    #[test]
    fn stripped_repairs_make_violations_irreparable() {
        let s = constrained().without_repairs();
        let bad = Configuration::new(vec![Value::Int(4), Value::Int(2)]);
        assert_eq!(s.repair(&bad), None);
        // The feasible region itself is unchanged.
        let ok = Configuration::new(vec![Value::Int(2), Value::Int(1)]);
        assert_eq!(s.repair(&ok), Some(ok));
    }

    #[test]
    fn clamp_feasible_projects_into_the_feasible_region() {
        let s = constrained();
        let c = s.clamp_feasible(&[99.0, 99.0]);
        assert!(s.is_feasible(&c), "{c:?}");
        // Without repairs the projection stops at the box.
        let stripped = constrained().without_repairs();
        let boxed = stripped.clamp_feasible(&[99.0, 99.0]);
        assert!(stripped.contains(&boxed) && !stripped.is_feasible(&boxed));
    }

    #[test]
    fn random_feasible_always_satisfies_constraints() {
        let s = constrained();
        let mut rng = Rng::new(7);
        for _ in 0..300 {
            let c = s.random_feasible(&mut rng);
            assert!(s.is_feasible(&c), "{c:?}");
        }
    }

    #[test]
    fn enumerate_and_neighbors_feasible_filter() {
        let s = constrained();
        let all = s.enumerate();
        let feasible = s.enumerate_feasible();
        assert!(feasible.len() < all.len());
        assert!(feasible.iter().all(|c| s.is_feasible(c)));
        // (4, 0) is feasible but both its in-box neighbors up the cutoff
        // or down the threads: only the feasible ones survive.
        let c = Configuration::new(vec![Value::Int(4), Value::Int(0)]);
        for n in s.neighbors_feasible(&c) {
            assert!(s.is_feasible(&n), "{n:?}");
        }
        assert!(s.neighbors_feasible(&c).len() < s.neighbors(&c).len());
    }

    #[test]
    fn min_corner_feasible_repairs_a_rejected_corner() {
        // A constraint the raw corner violates: threads must be ≥ 2.
        let s = space().with_constraint(
            Constraint::new("min-threads", |c| c.get(0).as_i64() >= 2)
                .with_repair(|c| Configuration::new(vec![Value::Int(2), c.get(1)])),
        );
        assert!(!s.is_feasible(&s.min_corner()));
        let fixed = s.min_corner_feasible();
        assert!(s.is_feasible(&fixed));
        assert_eq!(fixed.values(), &[Value::Int(2), Value::Int(0)]);
    }

    #[test]
    fn clamp_projects_non_finite_coordinates_to_minima() {
        let s = space();
        let c = s.clamp(&[f64::NAN, f64::INFINITY]);
        assert_eq!(c.values(), &[Value::Int(1), Value::Int(0)]);
        let c = s.clamp(&[f64::NEG_INFINITY, f64::NAN]);
        assert_eq!(c.values(), &[Value::Int(1), Value::Int(0)]);
    }

    #[test]
    fn configuration_json_with_more_values_than_fit_is_an_error() {
        let values = |n: usize| {
            Json::obj(vec![(
                "values",
                Json::Arr((0..n).map(|i| Value::Int(i as i64).to_json()).collect()),
            )])
        };
        let full = Configuration::from_json(&values(MAX_PUBLISHED_PARAMS)).unwrap();
        assert_eq!(full.len(), MAX_PUBLISHED_PARAMS);
        assert_eq!(Configuration::from_json(&full.to_json()), Ok(full));
        let err = Configuration::from_json(&values(MAX_PUBLISHED_PARAMS + 1)).unwrap_err();
        assert!(err.message.contains("at most"), "{}", err.message);
        assert!(Configuration::from_json(&values(1000)).is_err());
    }

    #[test]
    fn search_space_json_with_more_params_than_fit_is_an_error() {
        let params = |n: usize| {
            Json::obj(vec![(
                "params",
                Json::Arr(
                    (0..n)
                        .map(|i| Parameter::ratio(format!("p{i}"), 0, 3).to_json())
                        .collect(),
                ),
            )])
        };
        let full = SearchSpace::from_json(&params(MAX_PUBLISHED_PARAMS)).unwrap();
        assert_eq!(full.dims(), MAX_PUBLISHED_PARAMS);
        assert_eq!(full.min_corner().len(), MAX_PUBLISHED_PARAMS);
        let err = SearchSpace::from_json(&params(MAX_PUBLISHED_PARAMS + 1)).unwrap_err();
        assert!(err.message.contains("at most"), "{}", err.message);
    }

    #[test]
    fn inline_configurations_compare_and_print_their_values_only() {
        let a = Configuration::new(vec![Value::Int(3), Value::Float(0.5)]);
        let b: Configuration = [Value::Int(3), Value::Float(0.5)].into_iter().collect();
        assert_eq!(a, b);
        assert_ne!(a, Configuration::new(vec![Value::Int(3)]));
        assert_eq!(
            format!("{a:?}"),
            "Configuration { values: [Int(3), Float(0.5)] }"
        );
        assert_eq!(Configuration::from_slice(a.values()), a);
    }

    #[test]
    fn equality_compares_constraint_names() {
        assert_eq!(constrained(), constrained());
        assert_ne!(constrained(), space());
        assert_ne!(
            space().with_constraint(Constraint::new("a", |_| true)),
            space().with_constraint(Constraint::new("b", |_| true))
        );
        // JSON round-trips carry parameters only.
        let round = SearchSpace::from_json(&constrained().to_json()).unwrap();
        assert_eq!(round, space());
    }
}
