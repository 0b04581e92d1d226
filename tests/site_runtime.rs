//! Integration tests for the concurrent multi-site runtime
//! (`autotune::site`):
//!
//! 1. **Single-thread equivalence** — a site driven from one thread is
//!    *bit-identical* to driving the underlying tuner directly with the
//!    same seeds: every claim CAS succeeds, the tuned calls' sample log
//!    equals the direct tuner's, and every call the tuning-rate controller
//!    backs off runs the direct tuner's exploit choice at that point. Both
//!    the two-phase and the single-space tuner flavors are checked
//!    sample-by-sample.
//! 2. **Multi-thread stress** — counters never lose updates, every
//!    completed call is exactly one of a tuned iteration, a contended
//!    exploit call or a backed-off call, and the tuner's log length equals
//!    the tuned-iteration count exactly (the claim discipline keeps the
//!    ask/tell protocol serialized).
//! 3. **Seqlock validity under fire** — concurrent exploit readers only
//!    ever observe configurations inside the search space while a writer
//!    publishes continuously.
//! 4. **Tuning rate** — on deterministic measurements the tuned calls
//!    follow the documented back-off schedule exactly, a >5% improvement
//!    or a restart returns the site to tuning every call, and a context
//!    key evicted mid-gap resumes the same gap when it is reinstated.

use autotune::context::{ContextKey, ContextSites};
use autotune::param::Parameter;
use autotune::robust::MeasureOutcome;
use autotune::site::{register, site, Site, SiteSpec};
use autotune::space::{Configuration, SearchSpace};
use autotune::tuner::{OnlineTuner, Termination};
use autotune::two_phase::{AlgorithmSpec, NominalKind, Phase1Kind, TwoPhaseTuner};

fn specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::untunable("plain"),
        AlgorithmSpec::new(
            "tuned-a",
            SearchSpace::new(vec![
                Parameter::ratio("threads", 1, 8),
                Parameter::interval("cutoff", -20, 20),
            ]),
        ),
        AlgorithmSpec::new(
            "tuned-b",
            SearchSpace::new(vec![Parameter::interval("x", -30, 30)]),
        ),
    ]
}

/// Deterministic synthetic cost: depends on the algorithm and every
/// configuration value, so any divergence in either phase shows up.
fn cost(algorithm: usize, config: &Configuration) -> f64 {
    let base = [12.0, 9.0, 10.0][algorithm];
    let shape: f64 = config
        .values()
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_f64() - [3.0, -7.0][i.min(1)]).abs() * 0.25)
        .sum();
    base + shape
}

/// Drive `s` single-threaded with deterministic costs until its tuner has
/// logged `iters` samples. `exploits[k]` is the direct tuner's exploit
/// choice after `k` samples: every call that does not tune must run
/// exactly that. Checks the count identities and returns the number of
/// backed-off calls.
fn drive_until_logged(
    s: Site,
    iters: usize,
    exploits: &[(usize, Configuration)],
    cost: impl Fn(usize, &Configuration) -> f64,
) -> u64 {
    let mut tuned = 0;
    while tuned < iters {
        let guard = s.pre();
        let v = cost(guard.algorithm(), guard.config());
        if guard.is_tuning() {
            tuned += 1;
        } else {
            assert_eq!(
                (guard.algorithm(), guard.config()),
                (exploits[tuned].0, &exploits[tuned].1),
                "a backed-off call after {tuned} samples must run the direct exploit choice"
            );
        }
        guard.post_outcome(MeasureOutcome::Ok(v));
    }
    assert_eq!(s.contended(), 0, "single-threaded claims always win");
    assert_eq!(s.tuned_iterations(), iters as u64);
    assert_eq!(
        s.calls(),
        s.tuned_iterations() + s.contended() + s.backed_off()
    );
    s.backed_off()
}

#[test]
fn single_thread_two_phase_equivalence() {
    const SEED: u64 = 0x5EED;
    const ITERS: usize = 250;

    let mut direct = TwoPhaseTuner::with_phase1(
        specs(),
        NominalKind::EpsilonGreedy(0.10),
        Phase1Kind::NelderMead,
        SEED,
    );
    let mut exploits = vec![direct.exploit_choice()];
    for _ in 0..ITERS {
        let (alg, config) = direct.next();
        let v = cost(alg, &config);
        direct.report_outcome(MeasureOutcome::Ok(v));
        exploits.push(direct.exploit_choice());
    }

    let s = site(register(SiteSpec::algorithms(
        "equiv-two-phase",
        specs(),
        NominalKind::EpsilonGreedy(0.10),
        SEED,
    )));
    let backed_off = drive_until_logged(s, ITERS, &exploits, cost);
    assert!(backed_off > 0, "the plateaued site must back off");

    s.with_tuner(|t| {
        let site_log = t.as_two_phase().unwrap().log();
        assert_eq!(site_log.len(), ITERS);
        assert_eq!(
            site_log,
            direct.log(),
            "site dispatch must be bit-identical to the direct tuner"
        );
    });
}

#[test]
fn single_thread_single_space_equivalence() {
    const SEED: u64 = 77;
    const ITERS: usize = 150;
    let space = SearchSpace::new(vec![
        Parameter::ratio("a", 0, 40),
        Parameter::interval("b", -15, 15),
    ]);

    let searcher = Phase1Kind::NelderMead.build(&AlgorithmSpec::new("equiv", space.clone()), SEED);
    let mut direct = OnlineTuner::new(searcher, Termination::Never);
    // A single-space site exploits its best configuration, or the space's
    // minimum corner before any sample.
    let exploit = |t: &OnlineTuner<_>| {
        let best = t.best().map(|(c, _): (&Configuration, f64)| c.clone());
        (0, best.unwrap_or_else(|| space.min_corner()))
    };
    let mut exploits = vec![exploit(&direct)];
    for _ in 0..ITERS {
        let config = direct.ask();
        let v = cost(1, &config);
        direct.tell_outcome(MeasureOutcome::Ok(v));
        exploits.push(exploit(&direct));
    }

    let s = site(register(SiteSpec::space("equiv-space", space, SEED)));
    let backed_off = drive_until_logged(s, ITERS, &exploits, |algorithm, config| {
        assert_eq!(algorithm, 0, "single-space sites have one arm");
        cost(1, config)
    });
    assert!(backed_off > 0, "the plateaued site must back off");

    s.with_tuner(|t| {
        let site_log = t.as_single().unwrap().log();
        assert_eq!(site_log.len(), ITERS);
        assert_eq!(site_log, direct.log());
    });
}

#[test]
fn stress_no_lost_updates_across_eight_threads() {
    const THREADS: usize = 8;
    const SITES: usize = 32;
    const CALLS_PER_THREAD_PER_SITE: usize = 50;

    let sites: Vec<_> = (0..SITES)
        .map(|i| {
            site(register(SiteSpec::algorithms(
                format!("stress-{i}"),
                specs(),
                NominalKind::EpsilonGreedy(0.10),
                1000 + i as u64,
            )))
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sites = &sites;
            scope.spawn(move || {
                for round in 0..CALLS_PER_THREAD_PER_SITE {
                    for k in 0..SITES {
                        // Phase-shift per thread so threads collide on
                        // different sites at different times.
                        let i = (k + t * SITES / THREADS) % SITES;
                        sites[i].tuned(|alg, config| {
                            std::hint::black_box(cost(alg, config));
                            std::hint::black_box(round);
                        });
                    }
                }
            });
        }
    });

    let expected_per_site = (THREADS * CALLS_PER_THREAD_PER_SITE) as u64;
    for (i, s) in sites.iter().enumerate() {
        assert_eq!(
            s.calls(),
            expected_per_site,
            "site {i}: lost or duplicated call counts"
        );
        let tuned = s.tuned_iterations();
        assert_eq!(
            tuned + s.contended() + s.backed_off(),
            expected_per_site,
            "site {i}: every call is tuned, contended or backed off"
        );
        assert!(tuned > 0, "site {i}: at least one tuning iteration ran");
        s.with_tuner(|t| {
            assert_eq!(
                t.as_two_phase().unwrap().log().len() as u64,
                tuned,
                "site {i}: tuner log must match the tuned-iteration count"
            );
        });
    }
}

#[test]
fn exploit_readers_only_see_valid_configurations() {
    const READERS: usize = 4;
    const WRITER_ITERS: usize = 400;
    let space = SearchSpace::new(vec![
        Parameter::ratio("p", 0, 100),
        Parameter::interval("q", -50, 50),
        Parameter::interval("r", 1, 9),
    ]);
    let s = site(register(SiteSpec::space("seqlock-fire", space.clone(), 5)));

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let space = &space;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let guard = s.pre();
                    if !guard.is_tuning() {
                        assert!(
                            space.contains(guard.config()),
                            "torn or invalid published configuration: {:?}",
                            guard.config()
                        );
                    }
                    guard.post();
                }
            });
        }
        // Writer: drives the site; each of its tuning iterations
        // republishes the exploit decision through the seqlock.
        for _ in 0..WRITER_ITERS {
            let guard = s.pre();
            if guard.is_tuning() {
                let v = cost(1, guard.config());
                guard.post_outcome(MeasureOutcome::Ok(v));
            } else {
                guard.post();
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert!(s.calls() >= WRITER_ITERS as u64);
}

/// The back-off rule of DESIGN.md §12, restated independently of the
/// runtime: fed the value of every tuned call in order, it says which
/// call must tune next.
struct Schedule {
    best: f64,
    stagnant: usize,
    next_tuned_call: u64,
}

impl Schedule {
    fn new() -> Self {
        Schedule {
            best: f64::INFINITY,
            stagnant: 0,
            next_tuned_call: 0,
        }
    }

    /// Call `call` tuned and measured `value`: schedule the next tuned call.
    fn tuned(&mut self, call: u64, value: f64) {
        if value < self.best * 0.95 {
            self.best = value;
            self.stagnant = 0;
        } else {
            self.stagnant += 1;
        }
        let gap = match self.stagnant.checked_sub(32) {
            None => 1,
            Some(extra) => 1u64 << extra.min(6),
        };
        self.next_tuned_call = call + gap;
    }
}

fn one_dim_site(name: &str, seed: u64) -> Site {
    site(register(SiteSpec::space(
        name,
        SearchSpace::new(vec![Parameter::interval("x", 1, 64)]),
        seed,
    )))
}

/// One call through `s` that reports `value` if it tunes; returns
/// whether it tuned.
fn call_with(s: Site, value: f64) -> bool {
    let guard = s.pre();
    let tuned = guard.is_tuning();
    guard.post_outcome(MeasureOutcome::Ok(value));
    tuned
}

#[test]
fn tuned_calls_follow_the_documented_gap_schedule() {
    const CALLS: u64 = 3000;
    let s = one_dim_site("rate-schedule", 0xBAC0);
    let mut schedule = Schedule::new();
    let mut tuned_calls = Vec::new();
    for call in 0..CALLS {
        let guard = s.pre();
        let x = guard.config().get(0).as_f64();
        let v = 1.0 + (x - 37.0).abs() / 4.0;
        assert_eq!(
            guard.is_tuning(),
            call == schedule.next_tuned_call,
            "call {call}: tuning decision off the schedule"
        );
        if guard.is_tuning() {
            schedule.tuned(call, v);
            tuned_calls.push(call);
        }
        guard.post_outcome(MeasureOutcome::Ok(v));
    }
    assert_eq!(s.tuned_iterations(), tuned_calls.len() as u64);
    assert_eq!(s.backed_off(), CALLS - tuned_calls.len() as u64);
    s.with_tuner(|t| assert_eq!(t.as_single().unwrap().log().len(), tuned_calls.len()));
    // The gaps double once per plateaued iteration and cap at 64.
    let gaps: Vec<u64> = tuned_calls.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        gaps.windows(7).any(|w| w == [1, 2, 4, 8, 16, 32, 64]),
        "{gaps:?}"
    );
    assert_eq!(gaps.iter().max(), Some(&64));
    assert!(tuned_calls.len() < 200, "{} tuned calls", tuned_calls.len());
}

#[test]
fn improvement_and_restart_return_the_site_to_full_rate() {
    let s = one_dim_site("rate-reset", 0x5E7);
    // Plateau on a constant value until the gap has reached 64.
    while s.backed_off() < 200 {
        call_with(s, 1.0);
    }
    // At the next tuning call, a 4% improvement changes nothing ...
    while !call_with(s, 0.96) {}
    assert!(!call_with(s, 0.96), "a 4% improvement keeps the gap");
    // ... but a >5% improvement makes the next call tune, and the site
    // then needs 33 more stagnant iterations before it backs off again.
    while !call_with(s, 0.5) {}
    for i in 0..33 {
        assert!(call_with(s, 0.5), "call {i} after an improvement must tune");
    }
    assert!(!call_with(s, 0.5), "33 stagnant iterations open a gap");

    while s.backed_off() < 400 {
        call_with(s, 0.5);
    }
    s.restart();
    for i in 0..34 {
        assert!(call_with(s, 0.5), "call {i} after a restart must tune");
    }
    assert!(!call_with(s, 0.5));
    assert_eq!(
        s.calls(),
        s.tuned_iterations() + s.contended() + s.backed_off()
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
fn evicted_key_resumes_its_gap_when_reinstated() {
    let spec = |prefix: &'static str| {
        move |k: &Key| {
            SiteSpec::space(
                format!("{prefix}/{}", k.label()),
                SearchSpace::new(vec![Parameter::interval("x", 1, 64)]),
                0x6A9 ^ k.0 as u64,
            )
        }
    };
    // Key 0 stays resident in `roomy`; in `tight` every switch of key
    // evicts the other one.
    let roomy = ContextSites::register("rate/roomy", 2, spec("rate/roomy")).with_warm_start(false);
    let tight = ContextSites::register("rate/tight", 1, spec("rate/tight")).with_warm_start(false);
    let call = |table: &ContextSites<Key>, key: Key| {
        let guard = table.dispatch(&key);
        let tuned = guard.is_tuning();
        guard.post_outcome(MeasureOutcome::Ok(1.0));
        tuned
    };

    // Plateau key 0 deep into its back-off, stopping mid-gap.
    let mut before = Vec::new();
    while roomy.key_stats(&Key(0)).map_or(0, |st| st.calls) < 300 {
        before.push((call(&roomy, Key(0)), call(&tight, Key(0))));
    }
    assert!(before.iter().all(|(r, t)| r == t));
    assert!(!before.last().unwrap().0, "key 0 must be backed off");

    // Key 1 evicts key 0 from `tight`; key 0 then comes back.
    call(&roomy, Key(1));
    call(&tight, Key(1));
    let after: Vec<(bool, bool)> = (0..200)
        .map(|_| (call(&roomy, Key(0)), call(&tight, Key(0))))
        .collect();
    assert_eq!(tight.stats().reinstatements, 1);
    assert!(
        !after[0].1,
        "the reinstated key must resume its gap, not restart at full rate"
    );
    assert!(after.iter().all(|(r, t)| r == t), "{after:?}");
    let tuned = before.iter().chain(&after).filter(|(r, _)| *r).count() as u64;
    for (table, admissions) in [(&roomy, 1), (&tight, 2)] {
        let st = table.key_stats(&Key(0)).unwrap();
        assert_eq!(st.calls, (before.len() + after.len()) as u64);
        assert_eq!(st.tuned_iterations, tuned);
        assert_eq!(st.admissions, admissions);
    }
}
