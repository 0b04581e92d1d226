//! The decision oracle: every tuner decision on a fixed synthetic stream,
//! folded into one digest per leg and pinned to a constant.
//!
//! Each leg drives the tuners with deterministic synthetic costs (no
//! clock) and folds every call's path, algorithm, configuration bits and
//! reported value bits into a 64-bit FNV-1a digest:
//!
//! 1. **Direct tuners** — a [`TwoPhaseTuner`] under each of the five
//!    phase-2 strategies (ε 0.10, window 16), over an untunable
//!    algorithm, a 2-parameter space with an irreparably infeasible
//!    region, and a 1-parameter real space. The stream mixes in
//!    failures, timeouts, non-finite values, and the values 0.0, a
//!    subnormal and 1e308.
//! 2. **Sites** — a 3-algorithm site under each strategy, driven by
//!    [`Site::pre`] and [`SiteGuard::post_outcome`] until its tuning-rate
//!    controller has backed off.
//! 3. **Context table** — a 2-slot [`ContextSites`] over 4 keys with
//!    warm start on, so the stream sees warm starts, evictions and
//!    reinstatements.
//!
//! Nothing the host's clock decides is folded in: not a site's timing
//! stride, not its `timed` count, and no untimed `NaN` (every call
//! reports through `post_outcome`). The digests are therefore the same in
//! debug and release builds and on every host. A change that alters a
//! tuning decision on purpose updates the constant and says why; any
//! other change must leave all three untouched.

use autotune::context::{ContextKey, ContextSites};
use autotune::param::{Parameter, Value};
use autotune::robust::MeasureOutcome;
use autotune::site::{register, site, Site, SiteGuard, SiteSpec};
use autotune::space::{Configuration, Constraint, SearchSpace};
use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};

/// Digest of leg 1 (direct tuners).
const DIRECT_DIGEST: u64 = 0xd0da_3e06_6425_1f97;
/// Digest of leg 2 (sites).
const SITES_DIGEST: u64 = 0x6113_9bb5_2baa_8c20;
/// Digest of leg 3 (context table).
const CONTEXTS_DIGEST: u64 = 0xe664_e194_8ba9_34e4;

/// The five phase-2 strategies, each with ε 0.10 and window 16.
const STRATEGIES: [NominalKind; 5] = [
    NominalKind::EpsilonGreedy(0.10),
    NominalKind::GradientWeighted(16),
    NominalKind::OptimumWeighted,
    NominalKind::SlidingWindowAuc(16),
    NominalKind::EpsilonGradient(0.10, 16),
];

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn value(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn config(&mut self, c: &Configuration) {
        self.word(c.len() as u64);
        for v in c.values() {
            match *v {
                Value::Index(i) => {
                    self.word(0);
                    self.word(i as u64);
                }
                Value::Int(i) => {
                    self.word(1);
                    self.word(i as u64);
                }
                Value::Float(f) => {
                    self.word(2);
                    self.value(f);
                }
            }
        }
    }

    fn outcome(&mut self, o: &MeasureOutcome) {
        match o {
            MeasureOutcome::Ok(v) => {
                self.word(0);
                self.value(*v);
            }
            MeasureOutcome::Failed(_) => self.word(1),
            MeasureOutcome::TimedOut => self.word(2),
        }
    }
}

/// An untunable algorithm; a 2-parameter one whose optimum lies past an
/// irreparable constraint, so phase 1 keeps proposing infeasible points;
/// and a 1-parameter real one that starts at its optimum.
fn specs() -> Vec<AlgorithmSpec> {
    let budget = Constraint::new("budget", |c: &Configuration| {
        4 * c.get(0).as_i64() + c.get(1).as_i64() <= 24
    });
    vec![
        AlgorithmSpec::untunable("plain"),
        AlgorithmSpec::new(
            "tiled",
            SearchSpace::new(vec![
                Parameter::ratio("threads", 1, 8),
                Parameter::interval("cutoff", -20, 20),
            ])
            .with_constraint(budget),
        ),
        AlgorithmSpec::new(
            "blocked",
            SearchSpace::new(vec![Parameter::interval_f64("x", 7.5, 30.0)]),
        ),
    ]
}

/// Deterministic cost of `(algorithm, config)`, rounded to a quarter.
/// The best of `blocked` ties with `plain` at 1.5 from their first
/// measurements on, so the tie-break between equal minima decides what
/// is exploited.
fn cost(algorithm: usize, config: &Configuration) -> f64 {
    let shape: f64 = match algorithm {
        0 => 0.0,
        1 => {
            let (t, c) = (config.get(0).as_f64(), config.get(1).as_f64());
            (t - 7.0).abs() * 0.5 + (c - 16.0).abs() * 0.125
        }
        _ => (config.get(0).as_f64() - 7.5).abs() * 0.2,
    };
    let v = [1.5, 1.0, 1.5][algorithm] + shape;
    (v * 4.0).round() / 4.0
}

/// The `n`-th measurement of `(algorithm, config)` in a stream: its cost
/// plus a jitter of 0, 0.25 or 0.5 that steps every third measurement
/// (0 for the first three, so initialization ties), which makes a
/// window's weight depend on its length. Failures, timeouts and a
/// non-finite value are mixed in.
/// With `extremes`, so are the values 0.0, the smallest subnormal and
/// 1e308. The first two clamp to the same floor and outrank every cost
/// from then on, so they come rarely.
fn outcome(n: u64, algorithm: usize, config: &Configuration, extremes: bool) -> MeasureOutcome {
    match (n % 97, n % 499) {
        (_, 250) if extremes => MeasureOutcome::Ok(0.0),
        (_, 400) if extremes => MeasureOutcome::Ok(f64::from_bits(1)),
        (37, _) if extremes => MeasureOutcome::Ok(1e308),
        (13 | 71, _) => MeasureOutcome::Failed("injected".into()),
        (29, _) => MeasureOutcome::TimedOut,
        (41, _) => MeasureOutcome::Ok(f64::NAN),
        _ => MeasureOutcome::Ok(cost(algorithm, config) + 0.25 * (n / 3 % 3) as f64),
    }
}

/// Fold a tuner's end state: its exploit choice, selection and failure
/// counts, and iteration count.
fn fold_tuner(d: &mut Digest, t: &TwoPhaseTuner) {
    let (algorithm, config) = t.exploit_choice();
    d.word(algorithm as u64);
    d.config(&config);
    for n in t.selection_counts() {
        d.word(n as u64);
    }
    for &n in t.failure_counts() {
        d.word(n as u64);
    }
    d.word(t.iterations() as u64);
}

#[test]
fn direct_tuners_decide_as_pinned() {
    const STEPS: u64 = 3_000;
    let mut d = Digest::new();
    let mut penalized = 0;
    for (k, &kind) in STRATEGIES.iter().enumerate() {
        let mut t = TwoPhaseTuner::new(specs(), kind, 0xD1EC_0000 + k as u64);
        for n in 0..STEPS {
            let sample = match t.next_feasible() {
                Ok((algorithm, config)) => {
                    let o = outcome(n, algorithm, &config, true);
                    d.word(0);
                    d.outcome(&o);
                    t.report_outcome(o)
                }
                Err(sample) => {
                    penalized += 1;
                    d.word(1);
                    *sample
                }
            };
            d.word(sample.iteration as u64);
            d.word(sample.algorithm as u64);
            d.config(&sample.config);
            d.value(sample.value);
            d.word(u64::from(sample.failed));
        }
        fold_tuner(&mut d, &t);
    }
    assert!(penalized > 0, "no proposal hit the infeasible region");
    assert_eq!(
        d.0, DIRECT_DIGEST,
        "direct-tuner decisions changed: got {:#018x}",
        d.0
    );
}

/// One call through a site guard: fold its path, algorithm and
/// configuration, report the `n`-th measurement, and fold that.
fn drive(d: &mut Digest, n: u64, guard: SiteGuard) {
    d.word(u64::from(guard.is_tuning()));
    d.word(guard.algorithm() as u64);
    d.config(guard.config());
    let o = outcome(n, guard.algorithm(), guard.config(), true);
    d.outcome(&o);
    guard.post_outcome(o);
}

/// Fold a site's single-threaded traffic counters (not `timed`, which
/// follows the clock-derived timing stride).
fn fold_site(d: &mut Digest, s: Site) {
    for count in [
        s.calls(),
        s.backed_off(),
        s.contended(),
        s.tuned_iterations(),
    ] {
        d.word(count);
    }
    s.with_tuner(|t| fold_tuner(d, t.as_two_phase().unwrap()));
}

#[test]
fn sites_decide_as_pinned() {
    const CALLS: u64 = 4_000;
    let mut d = Digest::new();
    for (k, &kind) in STRATEGIES.iter().enumerate() {
        let s = site(register(SiteSpec::algorithms(
            format!("oracle/site/{k}"),
            specs(),
            kind,
            0x517E_0000 + k as u64,
        )));
        for n in 0..CALLS {
            drive(&mut d, n, s.pre());
        }
        assert!(s.backed_off() > 0, "{kind:?}: the site never backed off");
        fold_site(&mut d, s);
    }
    assert_eq!(
        d.0, SITES_DIGEST,
        "site decisions changed: got {:#018x}",
        d.0
    );
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key(i64);

impl ContextKey for Key {
    fn features(&self) -> Vec<i64> {
        vec![self.0]
    }
    fn label(&self) -> String {
        format!("k{}", self.0)
    }
}

#[test]
fn a_context_table_decides_as_pinned() {
    const CALLS: u64 = 60_000;
    const KEYS: i64 = 4;
    // Two ε strategies and two windowed ones.
    const KEY_STRATEGIES: [usize; KEYS as usize] = [0, 4, 3, 1];
    let table = ContextSites::register("oracle/ctx", 2, |k: &Key| {
        SiteSpec::algorithms(
            format!("oracle/ctx/{}", k.label()),
            specs(),
            STRATEGIES[KEY_STRATEGIES[k.0 as usize]],
            0xC0_0000 + k.0 as u64,
        )
    });
    let mut d = Digest::new();
    // Bursts of one key, so each key both learns and is evicted.
    let mut rng = autotune::rng::Rng::new(0x0AC1E);
    let (mut key, mut left) = (Key(0), 0u64);
    for n in 0..CALLS {
        if left == 0 {
            key = Key(rng.next_below(KEYS as u64) as i64);
            left = 1 + rng.next_below(64);
        }
        left -= 1;
        d.word(key.0 as u64);
        let guard = table.dispatch(&key);
        d.word(u64::from(guard.is_tuning()));
        d.word(guard.algorithm() as u64);
        d.config(guard.config());
        // Keys differ in scale, so a warm start's prior is off. Values
        // are tens of µs, where the windowed weights (read from inverse
        // values) spread widely. Extreme values would decide each key's
        // exploit choice on their own, so they are left out.
        let o = match outcome(n, guard.algorithm(), guard.config(), false) {
            MeasureOutcome::Ok(v) => MeasureOutcome::Ok(v * (1 + key.0) as f64 / 64.0),
            other => other,
        };
        d.outcome(&o);
        guard.post_outcome(o);
    }
    let stats = table.stats();
    assert!(stats.warm_starts > 0, "{stats:?}");
    assert!(stats.evictions > 0 && stats.reinstatements > 0, "{stats:?}");
    for count in [
        stats.admissions,
        stats.cold_starts,
        stats.warm_starts,
        stats.reinstatements,
        stats.evictions,
        stats.overflows,
    ] {
        d.word(count);
    }
    for k in 0..KEYS {
        let key = Key(k);
        let ks = table.key_stats(&key).expect("every key was admitted");
        for count in [ks.calls, ks.tuned_iterations, ks.admissions] {
            d.word(count);
        }
        table.with_tuner_for(&key, |t| fold_tuner(&mut d, t.as_two_phase().unwrap()));
    }
    assert_eq!(
        d.0, CONTEXTS_DIGEST,
        "context-table decisions changed: got {:#018x}",
        d.0
    );
}
