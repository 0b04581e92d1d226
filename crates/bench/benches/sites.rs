//! The concurrent multi-site runtime under the microscope:
//!
//! * **Dispatch overhead** — a tuning iteration through one site driven
//!   single-threaded vs the same two-phase tuner driven directly, around
//!   identical spin work, each call timed on its own. The site adds a
//!   countdown check, a claim CAS, a seqlock publication, and a
//!   registry-slot indirection per tuning iteration; the acceptance bar
//!   is ≤ 10% overhead. Both legs see a cost that keeps improving, so the
//!   site never plateaus and every call of either tunes. A plateaued
//!   site's tuning calls and backed-off calls are timed and reported
//!   beside them.
//! * **Aggregate throughput** — 1000+ independent sites swept by 1..N
//!   request threads; the sharded registry and per-slot cache-line
//!   isolation should scale near-linearly up to the core count. Every
//!   leg restarts the sites and shares a fixed number of sweeps among its
//!   threads, so no site runs enough tuning iterations to plateau and
//!   every leg measures tuning calls (the bench checks that none backed
//!   off).
//! * **The converged call** — a site whose exploit algorithm has two
//!   parameters plateaus around a ~1 ns kernel, and the backed-off calls
//!   in the 63-call stretches between its tuning calls are timed as one
//!   stretch each: what an untuned call costs (heap-free decision read,
//!   thread-owned counters instead of a claim or a trace event, one clock
//!   pair per 64 calls).
//!   Run with telemetry off and on; on may cost at most 1.25× off.
//! * **Convergence parity** — a sample of sites re-driven with synthetic
//!   deterministic costs through N tuning iterations must run and report
//!   the *bit-identical* (algorithm, configuration, value) sequence of
//!   direct tuners with the same seeds and end in the same tuner state,
//!   and every call the tuning-rate controller backed off must have run
//!   the direct tuner's exploit choice at that point.
//!
//! Persists `BENCH_sites.json` at the workspace root. Thread counts for
//! the throughput sweep can be overridden with
//! `SITES_BENCH_THREADS=1,8` (comma-separated), which CI uses to pin its
//! 1-thread and 8-thread smoke legs.

use autotune::json::Json;
use autotune::param::Parameter;
use autotune::robust::MeasureOutcome;
use autotune::site::{register, site, Site, SiteSpec};
use autotune::space::{Configuration, SearchSpace};
use autotune::telemetry;
use autotune::two_phase::{AlgorithmSpec, NominalKind, Phase1Kind, TwoPhaseTuner};
use std::time::Instant;

const NUM_SITES: usize = 1024;
const WORK_US: u64 = 5;

fn specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::untunable("a0"),
        AlgorithmSpec::untunable("a1"),
        AlgorithmSpec::untunable("a2"),
    ]
}

fn spin_for_us(us: u64) {
    let start = Instant::now();
    while start.elapsed().as_micros() < us as u128 {
        std::hint::spin_loop();
    }
}

/// Median wall time of `samples` single calls, in nanoseconds. `call`
/// runs one call and says whether it is of the kind being sampled; calls
/// of the other kind run but are not recorded.
fn median_call_ns(samples: usize, mut call: impl FnMut() -> bool) -> f64 {
    let mut ns = Vec::with_capacity(samples);
    while ns.len() < samples {
        let start = Instant::now();
        let sampled = call();
        let elapsed = start.elapsed();
        if sampled {
            ns.push(elapsed.as_nanos() as f64);
        }
    }
    ns.sort_by(f64::total_cmp);
    ns[samples / 2]
}

/// Median per-call costs of the dispatch legs, in nanoseconds.
struct DispatchNs {
    /// A directly driven tuner's iteration.
    direct: f64,
    /// A site's tuning iteration at full rate.
    site: f64,
    /// A plateaued site's tuning iteration, after a back-off gap.
    site_after_gap: f64,
    /// A call a plateaued site backed off.
    backed_off: f64,
}

/// (a) Per-call cost with ~WORK_US µs of real work inside, single-
/// threaded. Like for like, the direct tuner and the gated site leg see a
/// cost that improves by more than 5% on every call, so the site never
/// plateaus and every call of either is a tuning iteration. A second site
/// on constant per-algorithm costs plateaus and backs off; its tuning
/// calls, which find a tuner that sat idle through the gap, and its
/// backed-off calls are timed apart.
fn bench_dispatch(samples: usize) -> DispatchNs {
    // 6% better per call; stays a normal float for over 20 000 calls.
    let improving = |k: i32| 1e300 * 0.94f64.powi(k);
    let register_site = |name: &str| {
        site(register(SiteSpec::algorithms(
            name,
            specs(),
            NominalKind::EpsilonGreedy(0.10),
            42,
        )))
    };

    let mut tuner = TwoPhaseTuner::new(specs(), NominalKind::EpsilonGreedy(0.10), 42);
    let mut k = 0;
    let direct = median_call_ns(samples, || {
        tuner.next();
        spin_for_us(WORK_US);
        tuner.report(improving(k));
        k += 1;
        true
    });

    let s = register_site("bench-dispatch");
    let mut k = 0;
    let site_ns = median_call_ns(samples, || {
        let guard = s.pre();
        let tuning = guard.is_tuning();
        spin_for_us(WORK_US);
        guard.post_outcome(MeasureOutcome::Ok(improving(k)));
        k += 1;
        tuning
    });
    assert_eq!(s.tuned_iterations(), s.calls(), "every call must tune");

    let p = register_site("bench-dispatch-plateau");
    let plateaued_call = |want_tuning: bool| {
        move || {
            let guard = p.pre();
            let tuning = guard.is_tuning();
            let alg = guard.algorithm();
            spin_for_us(WORK_US);
            guard.post_outcome(MeasureOutcome::Ok((1 + alg) as f64));
            tuning == want_tuning
        }
    };
    let site_after_gap = median_call_ns(samples, plateaued_call(true));
    let backed_off = median_call_ns(samples, plateaued_call(false));
    assert_eq!(p.contended(), 0, "a single thread never loses the claim");
    DispatchNs {
        direct,
        site: site_ns,
        site_after_gap,
        backed_off,
    }
}

/// Backed-off calls per stretch: the 63 calls between two tuning calls at
/// the widest gap.
const STRETCH: u32 = 63;

/// (d) Median cost of a backed-off call around a ~1 ns kernel, in
/// nanoseconds, with telemetry off and on. Each leg has a fresh site
/// choosing between "tiled" (two parameters, reported at 1 ns) and
/// "plain" (1 µs), which plateaus onto "tiled" and backs off to one
/// tuning call in 64. Each sample times the stretch of backed-off calls
/// that follows a tuning call, as one span divided by its length, so the
/// bench's own clock pair is spread over the stretch. The two legs take
/// their stretches in turn, so a burst of host noise hits both.
fn bench_converged_call(stretches: usize) -> (f64, f64) {
    let register_leg = |name: &str| {
        let tiled = SearchSpace::new(vec![
            Parameter::ratio("tile", 1, 64),
            Parameter::interval("unroll", 0, 8),
        ]);
        site(register(SiteSpec::algorithms(
            name,
            vec![
                AlgorithmSpec::new("tiled", tiled),
                AlgorithmSpec::untunable("plain"),
            ],
            NominalKind::EpsilonGreedy(0.10),
            77,
        )))
    };
    // One call; a tuning call reports its algorithm's cost.
    let call = |s: Site| {
        let guard = s.pre();
        let tuning = guard.is_tuning();
        let sum: i64 = guard.config().values().iter().map(|v| v.as_i64()).sum();
        std::hint::black_box(sum);
        if tuning {
            let ms = [1e-6, 1e-3][guard.algorithm()];
            guard.post_outcome(MeasureOutcome::Ok(ms));
        } else {
            guard.post();
        }
        tuning
    };
    // Per-call ns of the backed-off stretch after `s`'s next tuning call.
    let stretch = |s: Site| {
        while !call(s) {}
        let tuned_before = s.tuned_iterations();
        let start = Instant::now();
        for _ in 0..STRETCH {
            call(s);
        }
        let elapsed = start.elapsed();
        assert_eq!(s.tuned_iterations(), tuned_before, "a stretch tuned");
        elapsed.as_nanos() as f64 / f64::from(STRETCH)
    };
    let legs = [
        register_leg("bench-converged-off"),
        register_leg("bench-converged-on"),
    ];
    let mut ns = [Vec::with_capacity(stretches), Vec::with_capacity(stretches)];
    for (i, &s) in legs.iter().enumerate() {
        set_telemetry(i == 1);
        // 38 tuned iterations reach the widest gap.
        for _ in 0..20_000 {
            call(s);
        }
        assert_eq!(
            s.timing_stride(),
            64,
            "a 1 ns incumbent is timed 1 call in 64"
        );
    }
    for _ in 0..stretches {
        for (i, &s) in legs.iter().enumerate() {
            set_telemetry(i == 1);
            ns[i].push(stretch(s));
        }
    }
    set_telemetry(false);
    let [off, on] = ns.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[stretches / 2]
    });
    (off, on)
}

fn set_telemetry(on: bool) {
    if on {
        telemetry::enable();
    } else {
        telemetry::disable();
    }
}

fn register_population(n: usize) -> Vec<Site> {
    (0..n)
        .map(|i| {
            site(register(SiteSpec::algorithms(
                format!("bench-pop-{i}"),
                specs(),
                NominalKind::EpsilonGreedy(0.10),
                9000 + i as u64,
            )))
        })
        .collect()
}

/// (b) One throughput leg: restart every site, then `threads` threads
/// share `sweeps` sweeps of the population (each thread sweeps it
/// `sweeps / threads` times, rounded up); returns (total calls, contended
/// calls, backed-off calls, wall ms).
fn throughput_leg(sites: &[Site], threads: usize, sweeps: usize) -> (u64, u64, u64, f64) {
    for s in sites {
        s.restart();
    }
    let rounds = sweeps.div_ceil(threads);
    let calls_before: u64 = sites.iter().map(|s| s.calls()).sum();
    let contended_before: u64 = sites.iter().map(|s| s.contended()).sum();
    let backed_off_before: u64 = sites.iter().map(|s| s.backed_off()).sum();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let sites = &sites;
            scope.spawn(move || {
                for _ in 0..rounds {
                    for k in 0..sites.len() {
                        let i = (k + t * sites.len() / threads.max(1)) % sites.len();
                        sites[i].tuned(|alg, _| {
                            spin_for_us(WORK_US.min(1 + alg as u64));
                        });
                    }
                }
            });
        }
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let calls: u64 = sites.iter().map(|s| s.calls()).sum::<u64>() - calls_before;
    let contended: u64 = sites.iter().map(|s| s.contended()).sum::<u64>() - contended_before;
    let backed_off: u64 = sites.iter().map(|s| s.backed_off()).sum::<u64>() - backed_off_before;
    (calls, contended, backed_off, wall_ms)
}

fn thread_counts() -> Vec<usize> {
    if let Ok(v) = std::env::var("SITES_BENCH_THREADS") {
        let parsed: Vec<usize> = v
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1];
    let mut n = 2;
    while n <= cores.min(8) {
        counts.push(n);
        n *= 2;
    }
    counts
}

/// (c) Convergence parity: drive a fresh site and a direct tuner with the
/// same seed over the same deterministic synthetic costs until both have
/// run `iterations` tuning iterations. Every tuned call's (algorithm,
/// configuration, value) must be bit-identical on both sides, the two
/// tuners must end in the same state, and every backed-off call must have
/// run the direct tuner's exploit choice after as many iterations.
fn convergence_parity(iterations: usize) -> bool {
    fn cost(alg: usize, config: &Configuration) -> f64 {
        [14.0, 8.0, 11.0][alg]
            + config
                .values()
                .iter()
                .map(|v| v.as_f64().abs())
                .sum::<f64>()
    }
    (0..4).all(|rep| {
        let seed = 31_337 + rep;
        let mut direct = TwoPhaseTuner::with_phase1(
            specs(),
            NominalKind::EpsilonGreedy(0.10),
            Phase1Kind::NelderMead,
            seed,
        );
        let mut exploits = vec![direct.exploit_choice()];
        let mut direct_tuned = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let (alg, config) = direct.next();
            let v = cost(alg, &config);
            let sample = direct.report_outcome(MeasureOutcome::Ok(v));
            direct_tuned.push((sample.algorithm, sample.config, sample.value));
            exploits.push(direct.exploit_choice());
        }
        let s = site(register(SiteSpec::algorithms(
            format!("bench-parity-{rep}"),
            specs(),
            NominalKind::EpsilonGreedy(0.10),
            seed,
        )));
        let mut site_tuned = Vec::with_capacity(iterations);
        let mut exploits_match = true;
        while site_tuned.len() < iterations {
            let guard = s.pre();
            let v = cost(guard.algorithm(), guard.config());
            if guard.is_tuning() {
                site_tuned.push((guard.algorithm(), guard.config().clone(), v));
            } else {
                let (alg, config) = &exploits[site_tuned.len()];
                exploits_match &= guard.algorithm() == *alg && guard.config() == config;
            }
            guard.post_outcome(MeasureOutcome::Ok(v));
        }
        exploits_match
            && site_tuned == direct_tuned
            && s.contended() == 0
            && s.tuned_iterations() == iterations as u64
            && s.with_tuner(|t| {
                let t = t.as_two_phase().unwrap();
                t.histories() == direct.histories()
                    && t.best() == direct.best()
                    && t.exploit_choice() == direct.exploit_choice()
                    && t.iterations() == direct.iterations()
            })
    })
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let samples = if quick { 200 } else { 4000 };
    let d = bench_dispatch(samples);
    let overhead = d.site / d.direct;
    println!(
        "dispatch overhead per tuning iteration: {overhead:.4}x \
         (site {:.0}ns vs direct {:.0}ns, median of {samples} calls each)",
        d.site, d.direct
    );
    println!(
        "plateaued site: tuning call after a gap {:.0}ns, backed-off call {:.0}ns",
        d.site_after_gap, d.backed_off
    );

    let stretches = if quick { 1000 } else { 4000 };
    let (converged_off, converged_on) = bench_converged_call(stretches);
    let converged_ratio = converged_on / converged_off;
    println!(
        "converged call (~1 ns kernel, two parameters): backed-off {converged_off:.1}ns \
         with telemetry off, {converged_on:.1}ns on ({converged_ratio:.2}x), \
         median of {stretches} stretches of {STRETCH}"
    );

    let sites = register_population(NUM_SITES);
    let sweeps = if quick { 5 } else { 20 };
    let counts = thread_counts();
    let mut legs = Vec::new();
    println!(
        "\nthroughput sweep: {NUM_SITES} sites x {sweeps} sweeps per leg, {host_cores} host cores"
    );
    for &threads in &counts {
        let (calls, contended, backed_off, wall_ms) = throughput_leg(&sites, threads, sweeps);
        let cps = calls as f64 / (wall_ms / 1e3);
        println!(
            "  {threads:>2} threads: {calls:>8} calls ({contended:>7} contended) in {wall_ms:>8.1}ms = {cps:>10.0} calls/s"
        );
        legs.push((threads, calls, contended, backed_off, wall_ms, cps));
    }
    let scaling = match (legs.first(), legs.last()) {
        (Some(first), Some(last)) if last.0 > first.0 => last.5 / first.5,
        _ => 1.0,
    };
    if let Some(last) = legs.last() {
        println!("aggregate scaling 1 -> {} threads: {scaling:.2}x", last.0);
    }

    let parity_iters = if quick { 60 } else { 200 };
    let parity = convergence_parity(parity_iters);
    println!("convergence parity (site vs direct, {parity_iters} iters x 4 seeds): {parity}");

    bench::write_bench_json(
        "sites",
        vec![
            ("id", Json::Str("sites".into())),
            ("num_sites", Json::Num(NUM_SITES as f64)),
            ("work_us", Json::Num(WORK_US as f64)),
            ("dispatch_direct_ns", Json::Num(d.direct)),
            ("dispatch_site_ns", Json::Num(d.site)),
            ("dispatch_overhead", Json::Num(overhead)),
            ("dispatch_site_after_gap_ns", Json::Num(d.site_after_gap)),
            ("dispatch_backed_off_ns", Json::Num(d.backed_off)),
            ("converged_call_off_ns", Json::Num(converged_off)),
            ("converged_call_on_ns", Json::Num(converged_on)),
            ("converged_call_on_off_ratio", Json::Num(converged_ratio)),
            (
                "throughput",
                Json::Arr(
                    legs.iter()
                        .map(|&(threads, calls, contended, backed_off, wall_ms, cps)| {
                            Json::obj(vec![
                                ("threads", Json::Num(threads as f64)),
                                ("calls", Json::Num(calls as f64)),
                                ("contended", Json::Num(contended as f64)),
                                ("backed_off", Json::Num(backed_off as f64)),
                                ("wall_ms", Json::Num(wall_ms)),
                                ("calls_per_sec", Json::Num(cps)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("aggregate_scaling", Json::Num(scaling)),
            ("convergence_parity", Json::Bool(parity)),
        ],
    );

    assert!(parity, "site dispatch diverged from the direct tuner");
    // Untuned calls push no trace event, so telemetry barely touches them.
    assert!(
        converged_on <= 1.25 * converged_off,
        "a backed-off call costs {converged_on:.1}ns with telemetry on vs {converged_off:.1}ns off"
    );
    // Every leg must compare tuning calls: a leg whose sites plateaued
    // would measure the cheaper backed-off path instead.
    for &(threads, _, _, backed_off, _, _) in &legs {
        assert_eq!(backed_off, 0, "{threads}-thread leg backed off");
    }
    // The overhead bar only means something on a full (non-quick) run on
    // an otherwise idle machine; quick CI legs just record the number.
    if !quick {
        assert!(
            overhead < 1.10,
            "site dispatch overhead {overhead:.3}x exceeds the 10% bar"
        );
    }
    // The 1 -> 8 thread scaling bar requires 8 real cores to be physical.
    if !quick && host_cores >= 8 && counts.first() == Some(&1) && counts.last() >= Some(&8) {
        assert!(
            scaling >= 6.0,
            "aggregate throughput scaled only {scaling:.2}x from 1 to 8 threads"
        );
    }
}
