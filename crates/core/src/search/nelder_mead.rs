//! The Nelder-Mead downhill simplex method (Section II-A-2), restructured as
//! an ask/tell state machine so it can drive an *online* tuning loop.
//!
//! This is the phase-1 strategy the paper uses in both case studies: "In our
//! case studies we rely on the Nelder-Mead downhill simplex method in this
//! step." The method maintains `n + 1` points in an `n`-dimensional search
//! space and moves/contracts the simplex towards an extremum via a small
//! state machine of simplex transitions (reflection, expansion, contraction,
//! shrink). It needs a measure of direction and distance, so it rejects
//! nominal parameters.
//!
//! Integer and label-index dimensions are searched in continuous coordinates
//! and projected onto the nearest legal configuration at evaluation time —
//! the standard treatment for integer-lattice simplex search.

use crate::search::{reject_nominal, BestTracker, Searcher};
use crate::space::{Configuration, SearchSpace};

/// Simplex transition coefficients and convergence tolerances.
#[derive(Debug, Clone, Copy)]
pub struct NelderMeadOptions {
    /// Reflection coefficient α (> 0). Standard: 1.
    pub alpha: f64,
    /// Expansion coefficient γ (> 1). Standard: 2.
    pub gamma: f64,
    /// Contraction coefficient ρ (0 < ρ ≤ 0.5). Standard: 0.5.
    pub rho: f64,
    /// Shrink coefficient σ (0 < σ < 1). Standard: 0.5.
    pub sigma: f64,
    /// Converged when the simplex' value spread falls below this.
    pub value_tolerance: f64,
    /// Converged when the simplex' maximal coordinate extent falls below
    /// this.
    pub coord_tolerance: f64,
    /// Relative size of the initial simplex: each dimension's step is
    /// `initial_step_fraction × span`, at least 1 for discrete dimensions.
    pub initial_step_fraction: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
            value_tolerance: 1e-9,
            coord_tolerance: 0.25,
            initial_step_fraction: 0.15,
        }
    }
}

#[derive(Debug, Clone)]
enum State {
    /// Evaluating the `n + 1` initial simplex vertices, one per iteration.
    Init { next: usize },
    /// Awaiting the measurement of the reflection point.
    Reflect,
    /// Awaiting the expansion point; carries the reflection result.
    Expand { xr: Vec<f64>, fr: f64 },
    /// Awaiting the outside-contraction point; carries the reflection result.
    ContractOutside { fr: f64 },
    /// Awaiting the inside-contraction point.
    ContractInside,
    /// Shrinking: re-evaluating vertices `1..=n` pulled towards the best.
    Shrink { next: usize },
    /// Converged — keep proposing (and re-measuring) the best vertex.
    Exploit,
}

/// Online Nelder-Mead downhill simplex.
///
/// ```
/// use autotune::prelude::*;
///
/// let space = SearchSpace::new(vec![Parameter::ratio("threads", 1, 32)]);
/// let mut nm = NelderMead::new(space, NelderMeadOptions::default());
/// for _ in 0..60 {
///     let config = nm.propose();                       // ask
///     let t = config.get(0).as_f64();
///     nm.report(64.0 / t + 0.5 * t);                   // tell (measured cost)
/// }
/// let (best, _) = nm.best().unwrap();
/// assert!((best.get(0).as_i64() - 11).abs() <= 2);     // optimum ≈ √128
/// ```
#[derive(Debug, Clone)]
pub struct NelderMead {
    space: SearchSpace,
    opts: NelderMeadOptions,
    /// Simplex vertices: continuous coordinates plus measured value.
    simplex: Vec<(Vec<f64>, f64)>,
    state: State,
    tracker: BestTracker,
    /// Coordinates of the point whose measurement we are waiting for.
    pending: Option<Vec<f64>>,
    /// Next proposal, precomputed by the transition logic in `report()`.
    queued: Option<Vec<f64>>,
    centroid: Vec<f64>,
    /// Initial vertex coordinates (kept until init completes).
    init_points: Vec<Vec<f64>>,
}

impl NelderMead {
    /// Start from the deterministic minimum corner of the space (repaired
    /// into the feasible region when constraints reject it).
    pub fn new(space: SearchSpace, opts: NelderMeadOptions) -> Self {
        let start = space.min_corner_feasible();
        Self::from_start(space, &start, opts)
    }

    /// Start from an explicit configuration — both case studies begin from a
    /// hand-crafted best-practice configuration.
    pub fn from_start(space: SearchSpace, start: &Configuration, opts: NelderMeadOptions) -> Self {
        reject_nominal(&space, "Nelder-Mead");
        assert!(space.contains(start), "start configuration not in space");
        assert!(
            opts.alpha > 0.0 && opts.gamma > 1.0,
            "bad reflection/expansion"
        );
        assert!(
            opts.rho > 0.0 && opts.rho <= 0.5,
            "bad contraction coefficient"
        );
        assert!(
            opts.sigma > 0.0 && opts.sigma < 1.0,
            "bad shrink coefficient"
        );

        let n = space.dims();
        let x0 = start.as_coords();
        let mut init_points = Vec::with_capacity(n + 1);
        init_points.push(x0.clone());
        for d in 0..n {
            let span = space.params()[d].span();
            let mut step = opts.initial_step_fraction * span;
            if span > 0.0 {
                step = step.max(1.0_f64.min(span));
            }
            let mut xi = x0.clone();
            // Step towards the interior if stepping up would leave the
            // domain entirely (projection would collapse the vertex onto
            // x0 and degenerate the simplex).
            let upper = match space.params()[d].domain() {
                crate::param::Domain::Labels(ls) => (ls.len() - 1) as f64,
                crate::param::Domain::IntRange { hi, .. } => *hi as f64,
                crate::param::Domain::FloatRange { hi, .. } => *hi,
            };
            if xi[d] + step > upper {
                xi[d] -= step;
            } else {
                xi[d] += step;
            }
            init_points.push(xi);
        }

        NelderMead {
            space,
            opts,
            simplex: Vec::with_capacity(n + 1),
            state: State::Init { next: 0 },
            tracker: BestTracker::new(),
            pending: None,
            queued: None,
            centroid: vec![0.0; n],
            init_points,
        }
    }

    /// Current number of evaluated simplex vertices (for diagnostics).
    pub fn simplex_len(&self) -> usize {
        self.simplex.len()
    }

    fn n(&self) -> usize {
        self.space.dims()
    }

    /// Sort the simplex, test convergence, and compute the next reflection
    /// point; transitions into `Reflect` or `Exploit`.
    fn start_iteration(&mut self) -> Vec<f64> {
        // total_cmp, not partial_cmp: a NaN measurement smuggled past the
        // robust layer must sort as worst-possible, not kill the tuning
        // thread mid-simplex.
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));

        // Convergence: simplex collapsed in value and in space.
        let f_best = self.simplex[0].1;
        let f_worst = self.simplex[self.n()].1;
        let value_spread = f_worst - f_best;
        let coord_extent = (0..self.n())
            .map(|d| {
                let lo = self
                    .simplex
                    .iter()
                    .map(|(x, _)| x[d])
                    .fold(f64::INFINITY, f64::min);
                let hi = self
                    .simplex
                    .iter()
                    .map(|(x, _)| x[d])
                    .fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .fold(0.0, f64::max);
        if value_spread <= self.opts.value_tolerance && coord_extent <= self.opts.coord_tolerance {
            self.state = State::Exploit;
            return self.simplex[0].0.clone();
        }

        // Centroid of all vertices except the worst.
        let n = self.n();
        for d in 0..n {
            self.centroid[d] = self.simplex[..n].iter().map(|(x, _)| x[d]).sum::<f64>() / n as f64;
        }
        let worst = &self.simplex[n].0;
        let xr: Vec<f64> = (0..n)
            .map(|d| self.centroid[d] + self.opts.alpha * (self.centroid[d] - worst[d]))
            .collect();
        self.state = State::Reflect;
        xr
    }

    fn replace_worst(&mut self, x: Vec<f64>, f: f64) -> Vec<f64> {
        let n = self.n();
        self.simplex[n] = (x, f);
        self.start_iteration()
    }

    fn begin_shrink(&mut self) -> Vec<f64> {
        let best = self.simplex[0].0.clone();
        for (x, _) in self.simplex.iter_mut().skip(1) {
            for d in 0..best.len() {
                x[d] = best[d] + self.opts.sigma * (x[d] - best[d]);
            }
        }
        self.state = State::Shrink { next: 1 };
        self.simplex[1].0.clone()
    }
}

impl Searcher for NelderMead {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn propose(&mut self) -> Configuration {
        assert!(
            self.pending.is_none(),
            "propose() called twice without report()"
        );
        let coords = match self.queued.take() {
            Some(q) => q,
            None => match &self.state {
                State::Init { next } => self.init_points[*next].clone(),
                State::Shrink { next } => self.simplex[*next].0.clone(),
                State::Exploit => self.simplex[0].0.clone(),
                // Transition states always queue their proposal in report().
                State::Reflect
                | State::Expand { .. }
                | State::ContractOutside { .. }
                | State::ContractInside => {
                    unreachable!("transition states always queue a proposal")
                }
            },
        };
        self.pending = Some(coords.clone());
        self.space.clamp_feasible(&coords)
    }

    fn abandon(&mut self) {
        // Re-queue the abandoned point: transition states (Reflect, Expand,
        // ...) propose exactly one specific point, which must be re-proposed
        // for the simplex update to stay well-defined.
        if let Some(p) = self.pending.take() {
            self.queued = Some(p);
        }
    }

    fn report(&mut self, value: f64) {
        let coords = self.pending.take().expect("report() without propose()");
        let config = self.space.clamp_feasible(&coords);
        self.tracker.observe(&config, value);

        // Zero-dimensional spaces: the single empty configuration is all
        // there is; stay in Exploit forever, with the one vertex updated
        // in place.
        if self.n() == 0 {
            self.simplex.truncate(1);
            match self.simplex.first_mut() {
                Some(vertex) => vertex.1 = value,
                None => self.simplex.push((coords, value)),
            }
            self.state = State::Exploit;
            return;
        }

        let next_coords: Option<Vec<f64>> = match std::mem::replace(&mut self.state, State::Exploit)
        {
            State::Init { next } => {
                self.simplex.push((coords, value));
                if next + 1 < self.init_points.len() {
                    self.state = State::Init { next: next + 1 };
                    None
                } else {
                    Some(self.start_iteration())
                }
            }
            State::Reflect => {
                let fr = value;
                let xr = coords;
                let f_best = self.simplex[0].1;
                let f_second_worst = self.simplex[self.n() - 1].1;
                let f_worst = self.simplex[self.n()].1;
                if fr < f_best {
                    // Try to expand further in the same direction.
                    let xe: Vec<f64> = (0..self.n())
                        .map(|d| self.centroid[d] + self.opts.gamma * (xr[d] - self.centroid[d]))
                        .collect();
                    self.state = State::Expand { xr, fr };
                    self.queued = Some(xe);
                    return;
                } else if fr < f_second_worst {
                    Some(self.replace_worst(xr, fr))
                } else if fr < f_worst {
                    // Outside contraction between centroid and reflection.
                    let xc: Vec<f64> = (0..self.n())
                        .map(|d| self.centroid[d] + self.opts.rho * (xr[d] - self.centroid[d]))
                        .collect();
                    self.state = State::ContractOutside { fr };
                    self.queued = Some(xc);
                    return;
                } else {
                    // Inside contraction towards the worst vertex.
                    let worst = &self.simplex[self.n()].0;
                    let xc: Vec<f64> = (0..self.n())
                        .map(|d| self.centroid[d] + self.opts.rho * (worst[d] - self.centroid[d]))
                        .collect();
                    self.state = State::ContractInside;
                    self.queued = Some(xc);
                    return;
                }
            }
            State::Expand { xr, fr } => {
                if value < fr {
                    Some(self.replace_worst(coords, value))
                } else {
                    Some(self.replace_worst(xr, fr))
                }
            }
            State::ContractOutside { fr } => {
                if value <= fr {
                    Some(self.replace_worst(coords, value))
                } else {
                    Some(self.begin_shrink())
                }
            }
            State::ContractInside => {
                let f_worst = self.simplex[self.n()].1;
                if value < f_worst {
                    Some(self.replace_worst(coords, value))
                } else {
                    Some(self.begin_shrink())
                }
            }
            State::Shrink { next } => {
                self.simplex[next].1 = value;
                if next < self.n() {
                    self.state = State::Shrink { next: next + 1 };
                    None
                } else {
                    Some(self.start_iteration())
                }
            }
            State::Exploit => {
                self.state = State::Exploit;
                None
            }
        };

        // Queue the next proposal where the new state needs one. `Shrink`
        // and `Exploit` recompute their proposal from state in `propose()`.
        if let Some(coords) = next_coords {
            match self.state {
                State::Reflect => self.queued = Some(coords),
                State::Exploit | State::Shrink { .. } => {}
                _ => unreachable!("transitions yield Reflect, Shrink, or Exploit"),
            }
        }
    }

    fn best(&self) -> Option<(&Configuration, f64)> {
        self.tracker.best()
    }

    fn converged(&self) -> bool {
        matches!(self.state, State::Exploit)
    }

    fn name(&self) -> &'static str {
        "nelder-mead"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;
    use crate::search::run_loop;
    use crate::search::test_util::{bowl, bowl_space};
    use crate::space::Configuration;

    fn default_nm(space: SearchSpace) -> NelderMead {
        NelderMead::new(space, NelderMeadOptions::default())
    }

    #[test]
    fn converges_on_convex_bowl() {
        let mut s = default_nm(bowl_space());
        let mut f = |c: &Configuration| bowl(c);
        run_loop(&mut s, &mut f, 300);
        let (c, v) = s.best().unwrap();
        assert!(v <= 2.0, "expected near-optimal value, got {v}");
        assert!((c.get(0).as_i64() - 7).abs() <= 1);
        assert!((c.get(1).as_i64() + 3).abs() <= 1);
    }

    #[test]
    fn quick_convergence_is_quick() {
        // The paper picks Nelder-Mead "because it often shows very quick
        // convergence": it should be within 10% of optimal well inside 100
        // evaluations on a smooth bowl.
        let mut s = default_nm(bowl_space());
        let mut f = |c: &Configuration| bowl(c);
        run_loop(&mut s, &mut f, 100);
        assert!(s.best().unwrap().1 <= 2.5);
    }

    #[test]
    fn continuous_space_high_precision() {
        let space = SearchSpace::new(vec![
            Parameter::ratio_f64("x", -10.0, 10.0),
            Parameter::ratio_f64("y", -10.0, 10.0),
        ]);
        let mut s = NelderMead::new(
            space,
            NelderMeadOptions {
                coord_tolerance: 1e-6,
                value_tolerance: 1e-12,
                ..Default::default()
            },
        );
        let mut f = |c: &Configuration| {
            let x = c.get(0).as_f64();
            let y = c.get(1).as_f64();
            (x - 1.5).powi(2) + (y + 2.5).powi(2)
        };
        run_loop(&mut s, &mut f, 500);
        let (c, v) = s.best().unwrap();
        assert!(v < 1e-6, "got {v}");
        assert!((c.get(0).as_f64() - 1.5).abs() < 1e-3);
        assert!((c.get(1).as_f64() + 2.5).abs() < 1e-3);
    }

    #[test]
    fn proposals_always_in_space() {
        let space = bowl_space();
        let mut s = default_nm(space.clone());
        let mut rngish = 0u64;
        for _ in 0..200 {
            let c = s.propose();
            assert!(space.contains(&c), "proposed {c:?}");
            // Adversarial noisy values to push the simplex around.
            rngish = rngish.wrapping_mul(6364136223846793005).wrapping_add(1);
            s.report((rngish >> 33) as f64 / 1e6 + bowl(&c));
        }
    }

    #[test]
    fn zero_dimensional_space_is_trivially_converged() {
        let mut s = default_nm(SearchSpace::empty());
        let c = s.propose();
        assert!(c.is_empty());
        s.report(5.0);
        assert!(s.converged());
        let c2 = s.propose();
        assert!(c2.is_empty());
        s.report(5.0);
        assert_eq!(s.best().unwrap().1, 5.0);
    }

    #[test]
    fn one_dimensional_space() {
        let space = SearchSpace::new(vec![Parameter::interval("x", -50, 50)]);
        let mut s = default_nm(space);
        let mut f = |c: &Configuration| (c.get(0).as_f64() - 17.0).powi(2);
        run_loop(&mut s, &mut f, 200);
        assert!((s.best().unwrap().0.get(0).as_i64() - 17).abs() <= 1);
    }

    #[test]
    fn start_config_near_upper_bound_does_not_degenerate() {
        let space = SearchSpace::new(vec![Parameter::ratio("x", 0, 10)]);
        let start = space
            .configuration(vec![crate::param::Value::Int(10)])
            .unwrap();
        let mut s = NelderMead::from_start(space, &start, NelderMeadOptions::default());
        let mut f = |c: &Configuration| (c.get(0).as_f64() - 2.0).powi(2);
        run_loop(&mut s, &mut f, 150);
        assert!((s.best().unwrap().0.get(0).as_i64() - 2).abs() <= 1);
    }

    #[test]
    fn exploit_state_keeps_proposing_best() {
        let space = SearchSpace::new(vec![Parameter::ratio("x", 0, 4)]);
        let mut s = default_nm(space);
        let mut f = |c: &Configuration| (c.get(0).as_f64() - 2.0).powi(2);
        run_loop(&mut s, &mut f, 300);
        assert!(s.converged(), "tiny space should converge in 300 iters");
        let a = s.propose();
        s.report(f(&a));
        let b = s.propose();
        s.report(f(&b));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "nominal")]
    fn rejects_nominal_spaces() {
        let space = SearchSpace::new(vec![Parameter::nominal(
            "alg",
            vec!["a".into(), "b".into()],
        )]);
        default_nm(space);
    }

    #[test]
    fn ordinal_spaces_are_searchable_by_index() {
        // Ordinal levels expose order; NM treats level indices as distances,
        // which is a pragmatic (documented) extension.
        let space = SearchSpace::new(vec![Parameter::ordinal(
            "size",
            (0..9).map(|i| format!("s{i}")).collect(),
        )]);
        let mut s = default_nm(space);
        let mut f = |c: &Configuration| (c.get(0).as_index() as f64 - 6.0).abs();
        run_loop(&mut s, &mut f, 100);
        assert_eq!(s.best().unwrap().0.get(0).as_index(), 6);
    }
}
