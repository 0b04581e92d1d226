//! The traced pass's per-layer parts, timed from outside the program
//! around calls to the layers' `pub` functions:
//!
//! * (b) the workload's requests through a replica of `AppHandler` that
//!   makes the same calls in the same order with a span around each — on
//!   the server thread of a served pass, beside a real `AppHandler` that
//!   answers the same requests, so the replica's spans and the real call
//!   meet the same host conditions and the two answers can be compared;
//!   `sort-embedded` replays its calls on its own two threads, each beside
//!   a real `sort_request`;
//! * (c) a standalone `TwoPhaseTuner` fed the replayed outcomes.

use crate::embedded::{input_stream, next_input, sort_sites};
use crate::served::Failures;
use crate::workload::{
    check_sorted, checksum, serve_options, sort_payload_keys, Corpora, Traffic, Workload,
    EMBEDDED_THREADS,
};
use autotune::drift::{observe_and_restart, DriftMonitor};
use autotune::rng::Rng;
use autotune::robust::{batched_time_ms, MeasureOutcome};
use autotune::serve::protocol::{self, OP_MATCH, OP_MORPH, OP_SORT};
use autotune::serve::{serve, RequestHandler, ServeConfig, StopFlag};
use autotune::site::{register, site, Site};
use autotune::space::Configuration;
use autotune::two_phase::{NominalKind, TwoPhaseTuner};
use experiments::serve::{AppHandler, MORPH_LEVELS};
use smallsort::{SortKey, SortSites};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use stringmatch::Matcher;

/// Recorded requests whose inputs are kept to time the kernel alone.
const KERNEL_SAMPLE: usize = 50_000;

/// Total and count of one span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    pub ns: f64,
    pub n: u64,
}

impl Acc {
    fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as f64;
        self.n += 1;
    }

    /// Mean ns per call, 0 when never called.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns / self.n as f64
        }
    }

    fn merge(&mut self, other: Acc) {
        self.ns += other.ns;
        self.n += other.n;
    }
}

/// Run `f` with a span around it added to `acc`.
#[inline(always)]
pub fn span<R>(acc: &mut Acc, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    acc.add(t0.elapsed());
    r
}

/// Spans of the replayed layers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    pub keygen: Acc,
    pub verify: Acc,
    pub key: Acc,
    pub dispatch: Acc,
    pub pre: Acc,
    pub kernel: Acc,
    pub batched: Acc,
    /// Σ over tuned sort calls of the `batched_time_ms` span ÷ the
    /// per-call time it returned.
    pub batch_k: f64,
    pub post: Acc,
    pub observe: Acc,
    pub write: Acc,
}

impl Spans {
    fn merge(&mut self, other: &Spans) {
        let mut other = *other;
        for (a, b) in self.accs_mut().into_iter().zip(other.accs_mut()) {
            a.merge(*b);
        }
        self.batch_k += other.batch_k;
    }

    fn accs_mut(&mut self) -> [&mut Acc; 10] {
        [
            &mut self.keygen,
            &mut self.verify,
            &mut self.key,
            &mut self.dispatch,
            &mut self.pre,
            &mut self.kernel,
            &mut self.batched,
            &mut self.post,
            &mut self.observe,
            &mut self.write,
        ]
    }

    /// Σ ns of every span.
    pub fn total_ns(&self) -> f64 {
        let mut all = *self;
        all.accs_mut().iter().map(|a| a.ns).sum()
    }

    /// Spans taken.
    pub fn count(&self) -> u64 {
        let mut all = *self;
        all.accs_mut().iter().map(|a| a.n).sum()
    }

    /// Σ ns of the spans that enter the tuning runtime, where telemetry
    /// is emitted: context dispatch, `Site::pre`, the post, the drift
    /// monitor.
    pub fn runtime_ns(&self) -> f64 {
        self.dispatch.ns + self.pre.ns + self.post.ns + self.observe.ns
    }
}

/// The cost of one span around an empty call, timed over many.
pub fn span_ns() -> f64 {
    const N: u32 = 1_000_000;
    let mut acc = Acc::default();
    let t0 = Instant::now();
    for _ in 0..N {
        span(&mut acc, || std::hint::black_box(0));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// What one replay pass measured.
#[derive(Default)]
pub struct Replay {
    pub spans: Spans,
    /// Span of the whole decomposed call: `RequestHandler::handle` of the
    /// replica, or one replayed `sort_request`.
    pub handle: Acc,
    /// Span of the real call made beside each replayed one:
    /// `AppHandler::handle`, or `smallsort::sort_request` on a table of
    /// its own.
    pub real: Acc,
    /// Requests the replica answered otherwise than the real call.
    pub mismatches: Failures,
    /// Measured values the sites' tuners were fed, in order.
    pub outcomes: Vec<f64>,
    /// Mean kernel time per request with each key's final exploit choice.
    pub kernel_ns: f64,
    /// `ContextSites::resident_site` on the recorded sort keys, timed
    /// apart from the calls above because the handler does not make it.
    pub lookup: Acc,
}

/// `smallsort::sort_request_keyed`, layer by layer. Returns the key and
/// the value fed to the tuner on a tuning call.
fn tuned_sort(sites: &SortSites, data: &mut [u64], s: &mut Spans) -> (SortKey, Option<f64>) {
    let key = span(&mut s.key, || SortKey::of(data));
    let guard = span(&mut s.dispatch, || sites.table().dispatch(&key));
    let algorithm = guard.algorithm();
    if guard.is_tuning() {
        // The measurement: the input copies it needs, then the batch.
        let mut batch_ns = 0.0;
        let ms = span(&mut s.batched, || {
            let config = guard.config().clone();
            let original = data.to_vec();
            let mut scratch = original.clone();
            let t0 = Instant::now();
            let ms = batched_time_ms(|| {
                scratch.copy_from_slice(&original);
                smallsort::sort_with(algorithm, &config, &mut scratch);
            });
            batch_ns = t0.elapsed().as_nanos() as f64;
            data.copy_from_slice(&scratch);
            ms
        });
        s.batch_k += batch_ns / (ms * 1e6);
        span(&mut s.post, || {
            guard.post_outcome(MeasureOutcome::from_value(ms))
        });
        (key, Some(ms))
    } else {
        span(&mut s.kernel, || {
            smallsort::sort_with(algorithm, guard.config(), data)
        });
        span(&mut s.post, || guard.post());
        (key, None)
    }
}

/// Context keys of `flat`'s arrays, of lengths `lens`.
fn sort_keys_of(flat: &[u64], lens: &[usize]) -> Vec<SortKey> {
    let mut keys = Vec::with_capacity(lens.len());
    let mut off = 0;
    for &n in lens {
        keys.push(SortKey::of(&flat[off..off + n]));
        off += n;
    }
    keys
}

/// Spans of `ContextSites::resident_site` over `keys`, one after another.
fn lookup_spans(sites: &SortSites, keys: &[SortKey]) -> Acc {
    let mut acc = Acc::default();
    for key in keys {
        std::hint::black_box(span(&mut acc, || sites.table().resident_site(key)));
    }
    acc
}

/// Mean ns per sort of `flat`'s arrays (lengths `lens`) with each key's
/// final exploit choice, timed as one loop.
fn sort_kernel_ns(sites: &SortSites, mut flat: Vec<u64>, lens: &[usize]) -> f64 {
    let keys = sort_keys_of(&flat, lens);
    let choices: BTreeMap<SortKey, (usize, Configuration)> = keys
        .iter()
        .map(|&k| {
            let choice = sites.table().with_tuner_for(&k, |t| {
                t.as_two_phase()
                    .expect("sort sites choose between algorithms")
                    .exploit_choice()
            });
            (k, choice)
        })
        .collect();
    let plan: Vec<&(usize, Configuration)> = keys.iter().map(|k| &choices[k]).collect();
    let t0 = Instant::now();
    let mut rest = flat.as_mut_slice();
    for (&n, (algorithm, config)) in lens.iter().zip(plan) {
        let (head, tail) = rest.split_at_mut(n);
        smallsort::sort_with(*algorithm, config, head);
        rest = tail;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(&flat);
    ns / lens.len().max(1) as f64
}

/// `AppHandler` rebuilt from its recipe for the served configuration
/// (same specs, seeds and drift knobs), making its calls with a span
/// around each while `recording` is set.
struct Replica {
    corpora: Corpora,
    match_site: Site,
    matchers: Vec<Box<dyn Matcher>>,
    level: usize,
    monitor: DriftMonitor,
    sort_sites: SortSites,
    recording: Arc<AtomicBool>,
    replay: Replay,
    /// Unsorted inputs of recorded sort requests, and their lengths.
    sort_inputs: (Vec<u64>, Vec<usize>),
    /// Corpus levels of recorded match requests.
    match_levels: Vec<usize>,
}

impl Replica {
    fn new(pass: usize, recording: Arc<AtomicBool>) -> Self {
        let opts = serve_options();
        Replica {
            corpora: Corpora::default(),
            match_site: site(register(stringmatch::tuned::search_site_spec(
                format!("bench/replica{pass}/match"),
                NominalKind::EpsilonGreedy(0.10),
                opts.seed,
            ))),
            matchers: stringmatch::tuned::site_matchers(),
            level: 0,
            monitor: DriftMonitor::new(opts.drift),
            sort_sites: SortSites::register(
                &format!("bench/replica{pass}/sort"),
                NominalKind::EpsilonGreedy(0.10),
                opts.seed + 11,
            ),
            recording,
            replay: Replay::default(),
            sort_inputs: (Vec::new(), Vec::new()),
            match_levels: Vec::new(),
        }
    }

    /// The handler's calls for one request; returns the value fed to the
    /// tuner, if any.
    fn calls(
        &mut self,
        op: u8,
        payload: &[u8],
        out: &mut Vec<u8>,
        s: &mut Spans,
    ) -> Option<Option<f64>> {
        match op {
            // The benchmark's sort requests always carry a key seed.
            OP_SORT if payload.len() >= 12 => {
                // AppHandler's key generation: decode the payload, derive
                // the keys from its seed.
                let mut data = span(&mut s.keygen, || sort_payload_keys(payload));
                let sum_in = span(&mut s.verify, || checksum(&data));
                let (key, ms) = tuned_sort(&self.sort_sites, &mut data, s);
                let (ok, sum_out) = span(&mut s.verify, || {
                    let sum_out = checksum(&data);
                    (
                        sum_out == sum_in && data.windows(2).all(|w| w[0] <= w[1]),
                        sum_out,
                    )
                });
                span(&mut s.write, || {
                    let mark = protocol::begin_frame(out, OP_SORT);
                    out.push(ok as u8);
                    out.extend_from_slice(&key.class.to_le_bytes());
                    out.extend_from_slice(&sum_out.to_le_bytes());
                    protocol::end_frame(out, mark);
                });
                Some(ms)
            }
            OP_MATCH => {
                // stringmatch::tuned::match_request, layer by layer, then
                // the drift monitor.
                let guard = span(&mut s.pre, || self.match_site.pre());
                let text = self.corpora.text(self.level);
                let matcher = &self.matchers[guard.algorithm()];
                let count = span(&mut s.kernel, || matcher.count(payload, text));
                let ms = span(&mut s.post, || guard.post());
                let (site, monitor) = (self.match_site, &mut self.monitor);
                span(&mut s.observe, || observe_and_restart(site, monitor, ms));
                span(&mut s.write, || {
                    protocol::write_frame(out, OP_MATCH, &(count as u32).to_le_bytes())
                });
                Some(Some(ms))
            }
            OP_MORPH if payload.len() >= 2 => {
                self.level = (payload[1] as usize).min(MORPH_LEVELS - 1);
                span(&mut s.write, || {
                    protocol::write_frame(out, OP_MORPH, &[payload[0], self.level as u8])
                });
                Some(None)
            }
            _ => None,
        }
    }

    /// Keep a recorded request's input for the kernel-alone timing.
    fn keep(&mut self, op: u8, payload: &[u8]) {
        let (flat, lens) = &mut self.sort_inputs;
        if lens.len() + self.match_levels.len() >= KERNEL_SAMPLE {
            return;
        }
        match op {
            OP_SORT => {
                let keys = sort_payload_keys(payload);
                lens.push(keys.len());
                flat.extend(keys);
            }
            OP_MATCH => self.match_levels.push(self.level),
            _ => {}
        }
    }

    /// The spans, and on the kept inputs the table lookup and the kernel
    /// alone with the final exploit choices.
    fn finish(mut self) -> Replay {
        let (flat, lens) = std::mem::take(&mut self.sort_inputs);
        self.replay.kernel_ns = if !lens.is_empty() {
            let keys = sort_keys_of(&flat, &lens);
            self.replay.lookup = lookup_spans(&self.sort_sites, &keys);
            sort_kernel_ns(&self.sort_sites, flat, &lens)
        } else {
            let algorithm = self.match_site.with_tuner(|t| {
                t.as_two_phase()
                    .expect("the match site chooses between algorithms")
                    .exploit_choice()
                    .0
            });
            let matcher = &self.matchers[algorithm];
            let t0 = Instant::now();
            for &level in &self.match_levels {
                let text = self.corpora.text(level);
                std::hint::black_box(matcher.count(stringmatch::PAPER_QUERY, text));
            }
            t0.elapsed().as_nanos() as f64 / self.match_levels.len().max(1) as f64
        };
        self.replay
    }
}

impl RequestHandler for Replica {
    fn handle(&mut self, op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
        let mut s = Spans::default();
        let t0 = Instant::now();
        let outcome = self.calls(op, payload, out, &mut s);
        let took = t0.elapsed();
        if self.recording.load(Ordering::Relaxed) {
            self.replay.handle.add(took);
            self.replay.spans.merge(&s);
            self.replay.outcomes.extend(outcome.flatten());
            self.keep(op, payload);
        }
        outcome.is_some()
    }
}

/// The replica beside a real `AppHandler`: each request goes to both, the
/// handler's answer to the client and the replica's into a buffer that
/// must match it byte for byte.
struct Paired {
    app: AppHandler,
    replica: Replica,
    answer: Vec<u8>,
}

impl Paired {
    fn new(pass: usize, recording: Arc<AtomicBool>) -> Self {
        Paired {
            app: AppHandler::new(&serve_options()),
            replica: Replica::new(pass, recording),
            answer: Vec::new(),
        }
    }
}

impl RequestHandler for Paired {
    fn handle(&mut self, op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
        let start = out.len();
        let t0 = Instant::now();
        let handled = self.app.handle(op, payload, out);
        let took = t0.elapsed();
        self.answer.clear();
        let replica_handled = self.replica.handle(op, payload, &mut self.answer);
        let replay = &mut self.replica.replay;
        if self.replica.recording.load(Ordering::Relaxed) {
            replay.real.add(took);
        }
        if replica_handled != handled || self.answer[..] != out[start..] {
            replay
                .mismatches
                .record(format!("replica answered op {op:#x} unlike AppHandler"));
        }
        handled
    }
}

/// The server thread of a replica pass; `pass` keeps its sites apart from
/// other passes'.
pub fn replica_server(
    recording: Arc<AtomicBool>,
    pass: usize,
) -> impl FnOnce(TcpListener, &StopFlag) -> std::io::Result<Replay> + Send + 'static {
    move |listener, stop| {
        let mut paired = Paired::new(pass, recording);
        serve(listener, &mut paired, &ServeConfig::default(), stop)?;
        Ok(paired.replica.finish())
    }
}

/// Mean ns of `protocol::parse_frame` over `n` frames of the workload.
pub fn parse_ns(workload: Workload, seed: u64, n: u64) -> f64 {
    let mut traffic = Traffic::new(workload, seed);
    let (mut frames, mut starts) = (Vec::new(), Vec::new());
    for _ in 0..n {
        starts.push(frames.len());
        traffic.next(&mut frames);
    }
    let mut acc = Acc::default();
    for &start in &starts {
        std::hint::black_box(span(&mut acc, || protocol::parse_frame(&frames[start..])));
    }
    acc.mean()
}

/// (b) for `sort-embedded`: each thread replays `warmup` calls of its own
/// stream, then `n` under spans, on one shared table; before each, the
/// real `sort_request` sorts a copy of the input on a second shared table.
/// A second pass over the same inputs times the table lookup.
pub fn replay_embedded(seed: u64, warmup: u64, n: u64, pass: usize) -> (Replay, Failures) {
    let sites = sort_sites(&format!("bench/replay{pass}/embedded"));
    let real = sort_sites(&format!("bench/replay{pass}/real"));
    let barrier = Barrier::new(EMBEDDED_THREADS);
    let threads: Vec<ThreadReplay> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..EMBEDDED_THREADS)
            .map(|t| {
                let tables = [&sites, &real];
                let (rng, barrier) = (input_stream(seed, t), &barrier);
                s.spawn(move || replay_thread(tables, barrier, rng, warmup, n))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });

    let mut replay = Replay::default();
    let mut failures = Failures::default();
    let (mut inputs, mut lens) = (Vec::new(), Vec::new());
    for t in threads {
        replay.spans.merge(&t.spans);
        replay.lookup.merge(t.lookup);
        replay.handle.merge(t.handle);
        replay.real.merge(t.real);
        replay.outcomes.extend(t.outcomes);
        failures.absorb(t.failures);
        inputs.extend(t.inputs);
        lens.extend(t.lens);
    }
    replay.kernel_ns = sort_kernel_ns(&sites, inputs, &lens);
    (replay, failures)
}

struct ThreadReplay {
    spans: Spans,
    handle: Acc,
    real: Acc,
    lookup: Acc,
    outcomes: Vec<f64>,
    /// The spanned calls' unsorted inputs, concatenated, and their lengths.
    inputs: Vec<u64>,
    lens: Vec<usize>,
    failures: Failures,
}

/// One replay thread; `tables` are the replica's and the real calls'.
fn replay_thread(
    [sites, real_sites]: [&SortSites; 2],
    barrier: &Barrier,
    mut rng: Rng,
    warmup: u64,
    n: u64,
) -> ThreadReplay {
    let mut spans = Spans::default();
    let (mut data, mut copy) = (Vec::new(), Vec::new());
    for _ in 0..warmup {
        data.clear();
        next_input(&mut rng, &mut data);
        copy.clone_from(&data);
        smallsort::sort_request(real_sites, &mut copy);
        tuned_sort(sites, &mut data, &mut spans);
    }
    let (mut flat, mut lens) = (Vec::new(), Vec::new());
    for _ in 0..n {
        lens.push(next_input(&mut rng, &mut flat));
    }
    let inputs = flat.clone();
    let mut outcomes = Vec::new();
    let (mut handle, mut real) = (Acc::default(), Acc::default());
    let mut failures = Failures::default();
    spans = Spans::default();
    barrier.wait();
    let mut rest = flat.as_mut_slice();
    for &len in &lens {
        let (head, tail) = rest.split_at_mut(len);
        copy.clear();
        copy.extend_from_slice(head);
        span(&mut real, || smallsort::sort_request(real_sites, &mut copy));
        let (_, outcome) = span(&mut handle, || tuned_sort(sites, head, &mut spans));
        outcomes.extend(outcome);
        if copy[..] != head[..] {
            failures.record(format!("replayed sort of {len} keys unlike sort_request"));
        }
        rest = tail;
    }
    // The lookup probe: the same calls again through `sort_request`, each
    // after a `resident_site` span, so the lookup meets the contention the
    // dispatch met.
    let mut again = inputs.clone();
    let mut lookup = Acc::default();
    barrier.wait();
    let mut rest = again.as_mut_slice();
    for &len in &lens {
        let (head, tail) = rest.split_at_mut(len);
        let key = SortKey::of(head);
        std::hint::black_box(span(&mut lookup, || sites.table().resident_site(&key)));
        smallsort::sort_request(sites, head);
        rest = tail;
    }
    let mut off = 0;
    for &len in &lens {
        let sum = checksum(&inputs[off..off + len]);
        if let Err(m) = check_sorted(&flat[off..off + len], sum) {
            failures.record(m);
        }
        off += len;
    }
    ThreadReplay {
        spans,
        handle,
        real,
        lookup,
        outcomes,
        inputs,
        lens,
        failures,
    }
}

/// (c): a standalone `TwoPhaseTuner` over the workload's algorithm specs,
/// fed `outcomes`; spans of `next` and `report`.
pub fn standalone_tuner(workload: Workload, outcomes: &[f64]) -> (Acc, Acc) {
    let specs = if workload.sorts() {
        smallsort::sort_algorithm_specs()
    } else {
        stringmatch::tuned::matcher_algorithm_specs()
    };
    let mut tuner = TwoPhaseTuner::new(
        specs,
        NominalKind::EpsilonGreedy(0.10),
        serve_options().seed,
    );
    let (mut next, mut report) = (Acc::default(), Acc::default());
    for &v in outcomes {
        span(&mut next, || tuner.next());
        span(&mut report, || tuner.report(v));
    }
    (next, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::check;
    use autotune::serve::protocol::Parse;

    #[test]
    fn spans_merge_and_sum() {
        let mut a = Spans::default();
        a.keygen.add(Duration::from_nanos(100));
        a.key.add(Duration::from_nanos(9));
        let mut b = Spans::default();
        b.write.add(Duration::from_nanos(50));
        b.keygen.add(Duration::from_nanos(300));
        a.merge(&b);
        assert_eq!(a.keygen.n, 2);
        assert_eq!(a.keygen.mean(), 200.0);
        assert_eq!(a.total_ns(), 459.0);
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn the_replica_answers_like_the_handler() {
        let corpora = Corpora::default();
        for w in [Workload::SortSmall, Workload::MatchDrift] {
            let recording = Arc::new(AtomicBool::new(true));
            let mut paired = Paired::new(900, recording);
            let mut traffic = Traffic::new(w, 3);
            let (mut req, mut out) = (Vec::new(), Vec::new());
            for _ in 0..2100 {
                req.clear();
                out.clear();
                let expect = traffic.next(&mut req);
                let Parse::Ready(f) = protocol::parse_frame(&req) else {
                    panic!("request frame parses")
                };
                assert!(paired.handle(f.op, &req[f.payload.0..f.payload.1], &mut out));
                let Parse::Ready(r) = protocol::parse_frame(&out) else {
                    panic!("response frame parses")
                };
                check(expect, r.op, &out[r.payload.0..r.payload.1], &corpora).unwrap();
            }
            let replay = paired.replica.finish();
            assert_eq!(replay.mismatches.count, 0, "{:?}", replay.mismatches.first);
            assert_eq!(replay.handle.n, 2100);
            assert_eq!(replay.real.n, 2100);
            assert!(replay.kernel_ns > 0.0 && !replay.outcomes.is_empty());
            assert!(replay.spans.total_ns() <= replay.handle.ns);
            assert_eq!(replay.lookup.n > 0, w == Workload::SortSmall);
        }
    }

    #[test]
    fn a_replica_out_of_step_with_the_handler_is_caught() {
        let mut paired = Paired::new(902, Arc::new(AtomicBool::new(true)));
        // As if the replica had missed a morph to the larger corpus.
        paired.replica.level = 1;
        let mut out = Vec::new();
        assert!(paired.handle(OP_MATCH, stringmatch::PAPER_QUERY, &mut out));
        assert_eq!(paired.replica.replay.mismatches.count, 1);
    }

    #[test]
    fn embedded_replay_sorts_every_call() {
        let (r, failures) = replay_embedded(5, 100, 500, 901);
        assert_eq!(failures.count, 0, "{:?}", failures.first);
        assert_eq!(r.handle.n, 1000);
        assert_eq!(r.real.n, 1000);
        assert_eq!(r.spans.key.n, 1000);
        assert_eq!(r.spans.post.n, 1000);
        assert_eq!(r.lookup.n, 1000);
    }
}
