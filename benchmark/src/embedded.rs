//! `sort-embedded`: `smallsort::sort_request` called in-process by two
//! threads sharing one `SortSites` table; no sockets, no handler.

use crate::pin;
use crate::served::{sort_table_sites, Failures, SiteCounts};
use crate::speed::{self, Clock, Meter};
use crate::workload::{check_sorted, checksum, Phases, Workload, EMBEDDED_THREADS, SORT_N};
use autotune::context::ContextStats;
use autotune::rng::Rng;
use autotune::two_phase::NominalKind;
use smallsort::{SortKey, SortSites};
use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The shared table: ε-greedy(0.10) per key, as the served sort path uses.
pub fn sort_sites(prefix: &str) -> SortSites {
    SortSites::register(prefix, NominalKind::EpsilonGreedy(0.10), 53)
}

/// Thread `t`'s input stream for `seed`.
pub fn input_stream(seed: u64, t: usize) -> Rng {
    Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t as u64)
}

/// Append the stream's next input, random keys with a length uniform in
/// [`SORT_N`]; returns its length.
pub fn next_input(rng: &mut Rng, into: &mut Vec<u64>) -> usize {
    let n = rng.next_range_i64(*SORT_N.start() as i64, *SORT_N.end() as i64) as usize;
    into.extend((0..n).map(|_| rng.next_u64()));
    n
}

pub struct EmbeddedRun {
    pub warmup_s: f64,
    /// Calls per second of each throughput window, both threads together,
    /// in wall time and scaled to the reference host at rest.
    pub window_rates: Vec<f64>,
    pub scaled_rates: Vec<f64>,
    /// One call each, microseconds scaled to the reference host at rest,
    /// sorted.
    pub latency_us: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    pub keys: BTreeSet<SortKey>,
    pub sites: SiteCounts,
    pub context: ContextStats,
}

#[derive(Default)]
struct WorkerOut {
    warmup_s: f64,
    /// Time of each throughput window.
    windows: Vec<Clock>,
    latency_us: Vec<f64>,
    calls: u64,
    failures: Failures,
    keys: BTreeSet<SortKey>,
}

/// Run the three phases on [`EMBEDDED_THREADS`] threads, each pinned to a
/// CPU of its own; `phases` counts calls per thread. With `announce`, one
/// call precedes them and `announce` runs as soon as it returns.
pub fn run(phases: Phases, seed: u64, announce: Option<&dyn Fn()>) -> Result<EmbeddedRun, String> {
    let sites = sort_sites("bench/embedded");
    let mut first = WorkerOut::default();
    if let Some(announce) = announce {
        let mut data = Vec::new();
        next_input(&mut input_stream(seed, EMBEDDED_THREADS), &mut data);
        let sum = checksum(&data);
        first.keys.insert(SortKey::of(&data));
        smallsort::sort_request(&sites, &mut data);
        announce();
        if let Err(m) = check_sorted(&data, sum) {
            first.failures.record(m);
        }
        first.calls = 1;
    }
    let meters = (0..EMBEDDED_THREADS)
        .map(|_| Meter::new())
        .collect::<std::io::Result<Vec<Meter>>>()
        .map_err(|e| format!("speed meter: {e}"))?;
    let barrier = Barrier::new(EMBEDDED_THREADS);
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = meters
            .into_iter()
            .enumerate()
            .map(|(t, meter)| {
                let (sites, barrier) = (&sites, &barrier);
                s.spawn(move || worker(t, meter, sites, barrier, phases, seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("embedded worker panicked"))
            .collect()
    });

    // The threads start each sub-window together, so the rate of both is
    // the sum of their own.
    let window = phases.window as f64;
    let rates = |time: fn(&Clock) -> f64| -> Vec<f64> {
        (0..phases.windows as usize)
            .map(|w| outs.iter().map(|o| window / time(&o.windows[w])).sum())
            .collect()
    };
    let mut run = EmbeddedRun {
        warmup_s: outs.iter().map(|o| o.warmup_s).fold(0.0, f64::max),
        window_rates: rates(|c| c.wall),
        scaled_rates: rates(|c| c.scaled),
        latency_us: Vec::new(),
        attempted: first.calls,
        failures: first.failures,
        keys: first.keys,
        sites: SiteCounts::of(sort_table_sites(&sites)),
        context: sites.table().stats(),
    };
    for o in outs {
        run.latency_us.extend(o.latency_us);
        run.attempted += o.calls;
        run.failures.absorb(o.failures);
        run.keys.extend(o.keys);
    }
    run.latency_us.sort_by(f64::total_cmp);
    Ok(run)
}

fn worker(
    t: usize,
    mut meter: Meter,
    sites: &SortSites,
    barrier: &Barrier,
    phases: Phases,
    seed: u64,
) -> WorkerOut {
    pin::pin(t);
    let mut rng = input_stream(seed, t);
    let mut out = WorkerOut::default();
    let mut data = Vec::new();
    let mut one_call = |rng: &mut Rng, out: &mut WorkerOut| -> Duration {
        data.clear();
        next_input(rng, &mut data);
        let sum = checksum(&data);
        out.keys.insert(SortKey::of(&data));
        let t0 = Instant::now();
        smallsort::sort_request(sites, &mut data);
        let took = t0.elapsed();
        if let Err(m) = check_sorted(&data, sum) {
            out.failures.record(m);
        }
        out.calls += 1;
        took
    };

    barrier.wait();
    let t0 = Instant::now();
    for _ in 0..phases.warmup {
        one_call(&mut rng, &mut out);
    }
    out.warmup_s = t0.elapsed().as_secs_f64();

    // Each window's inputs are generated before its clock starts, so the
    // window times the tuned sort calls alone. Both threads start each
    // sub-window together, and after it both measure their CPU's speed
    // while neither sorts.
    let (mut flat, mut lens, mut sums) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..phases.windows {
        flat.clear();
        lens.clear();
        sums.clear();
        for _ in 0..phases.window {
            let start = flat.len();
            lens.push(next_input(&mut rng, &mut flat));
            sums.push(checksum(&flat[start..]));
            out.keys.insert(SortKey::of(&flat[start..]));
        }
        barrier.wait();
        let mut slowdown = meter.slowdown();
        let mut clock = Clock::new(Workload::SortEmbedded.host_sensitivity());
        let mut rest = flat.as_mut_slice();
        for sub in lens.chunks(phases.sub() as usize) {
            barrier.wait();
            let t = Instant::now();
            for &n in sub {
                let (head, tail) = rest.split_at_mut(n);
                smallsort::sort_request(sites, head);
                rest = tail;
            }
            let seconds = t.elapsed().as_secs_f64();
            barrier.wait();
            let after = meter.slowdown();
            clock.add(seconds, slowdown, after);
            slowdown = after;
        }
        out.windows.push(clock);
        let mut off = 0;
        for (&n, &sum) in lens.iter().zip(&sums) {
            if let Err(m) = check_sorted(&flat[off..off + n], sum) {
                out.failures.record(m);
            }
            off += n;
        }
        out.calls += phases.window;
    }

    // The latency phase is short enough for one measurement of the
    // CPU's speed on each side.
    barrier.wait();
    let before = meter.slowdown();
    barrier.wait();
    let took: Vec<Duration> = (0..phases.latency)
        .map(|_| one_call(&mut rng, &mut out))
        .collect();
    barrier.wait();
    let sensitivity = Workload::SortEmbedded.host_sensitivity();
    let divisor = speed::divisor(sensitivity, before, meter.slowdown());
    out.latency_us = took
        .iter()
        .map(|d| d.as_secs_f64() * 1e6 / divisor)
        .collect();
    out
}
