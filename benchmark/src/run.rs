//! One run of one workload: the end-to-end rounds, or with `--trace` the
//! traced passes that break a run down by layer.

use crate::embedded::{self, EmbeddedRun};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::round::{self, RoundOut};
use crate::served::{self, Failures, ServedRun, ServerEnd, SiteCounts};
use crate::stats::{median, quantile_sorted};
use crate::trace::{self, Replay};
use crate::workload::{Corpora, Phases, Workload, BATCH, EMBEDDED_THREADS, SUBS};
use autotune::context::ContextStats;
use autotune::json::Json;
use autotune::telemetry;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Requests replayed under spans per second of `--seconds`.
const REPLAY_PER_SECOND: u64 = 4_000;

/// Largest `ledger.residual_frac`, either way, of a replica that still
/// makes the handler's calls.
const RESIDUAL_LIMIT: f64 = 0.10;

/// What one run measured.
pub struct RunResult {
    /// End-to-end rounds; 1 for a traced run.
    pub rounds: u64,
    pub attempted: u64,
    pub failures: Failures,
    /// The reported metrics: end-to-end, or per-layer with `--trace`.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Diagnostics kept in the run's result file.
    pub extra: Vec<(&'static str, Json)>,
}

/// One untraced pass of either loop, in this process.
pub enum E2e {
    Served(ServedRun<ServerEnd>),
    Embedded(EmbeddedRun),
}

impl E2e {
    pub fn measure(
        w: Workload,
        phases: Phases,
        seed: u64,
        corpora: &Corpora,
        announce: Option<&dyn Fn()>,
    ) -> Result<E2e, String> {
        Ok(if w.served() {
            telemetry::enable();
            let server = served::app_server(w, None);
            E2e::Served(served::run(
                w, seed, corpora, phases, announce, None, server,
            )?)
        } else {
            E2e::Embedded(embedded::run(phases, seed, announce)?)
        })
    }

    /// Rates of the throughput windows in wall time.
    pub fn window_rates(&self) -> &[f64] {
        match self {
            E2e::Served(r) => &r.window_rates,
            E2e::Embedded(r) => &r.window_rates,
        }
    }

    /// Rates of the throughput windows on the reference host at rest.
    pub fn scaled_rates(&self) -> &[f64] {
        match self {
            E2e::Served(r) => &r.scaled_rates,
            E2e::Embedded(r) => &r.scaled_rates,
        }
    }

    pub fn latency_us(&self) -> &[f64] {
        match self {
            E2e::Served(r) => &r.latency_us,
            E2e::Embedded(r) => &r.latency_us,
        }
    }

    pub fn sites(&self) -> SiteCounts {
        match self {
            E2e::Served(r) => r.end.sites,
            E2e::Embedded(r) => r.sites,
        }
    }

    fn context(&self) -> Option<ContextStats> {
        match self {
            E2e::Served(r) => r.end.context,
            E2e::Embedded(r) => Some(r.context),
        }
    }

    pub fn warmup_s(&self) -> f64 {
        match self {
            E2e::Served(r) => r.warmup_s,
            E2e::Embedded(r) => r.warmup_s,
        }
    }

    /// Requests sent and failures, with the context-table count check:
    /// one admission per distinct key the requests carried, no overflow.
    pub fn outcome(&mut self) -> (u64, Failures) {
        let context = self.context();
        let (attempted, mut failures, keys) = match self {
            E2e::Served(r) => (r.attempted, std::mem::take(&mut r.failures), r.keys.len()),
            E2e::Embedded(r) => (r.attempted, std::mem::take(&mut r.failures), r.keys.len()),
        };
        if let Some(c) = context {
            if c.admissions != keys as u64 || c.overflows != 0 {
                failures.record(format!(
                    "context table: {} admissions and {} overflows for {keys} distinct keys",
                    c.admissions, c.overflows
                ));
            }
        }
        (attempted, failures)
    }
}

/// Numbers as a JSON array.
pub fn nums(xs: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(xs.into_iter().map(Json::Num).collect())
}

/// Measure one workload.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: u64,
    quick: bool,
    traced: bool,
) -> Result<RunResult, String> {
    let (rounds, (attempted, failures, values, extra)) = if traced {
        let div = if quick { 10 } else { 1 };
        let replay_n = REPLAY_PER_SECOND * seconds / div;
        (1, layers(w, w.traced(seconds, quick), seed, replay_n)?)
    } else {
        let rounds = round::run_rounds(w, seed, seconds, quick)?;
        (rounds.len() as u64, end_to_end(rounds))
    };
    let catalogue: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|m| {
            let v = values.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
            (*m, v.unwrap_or_else(|| panic!("{} not measured", m.name)))
        })
        .collect();
    Ok(RunResult {
        rounds,
        attempted,
        failures,
        metrics,
        extra,
    })
}

type Measured = (
    u64,
    Failures,
    Vec<(&'static str, f64)>,
    Vec<(&'static str, Json)>,
);

/// Pool the rounds: the median of every round's windows on the reference
/// host at rest, exact quantiles of every round's latency samples, medians
/// of per-round set-up and memory. The call latencies of `sort-embedded`
/// are scaled too; served round trips are mostly the server's idle sleep,
/// which the host's speed does not stretch, so they are not.
fn end_to_end(rounds: Vec<RoundOut>) -> Measured {
    let pooled = |f: fn(&RoundOut) -> &[f64]| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let rates = pooled(|r| &r.scaled_rates);
    let mut latency = pooled(|r| &r.latency_us);
    latency.sort_by(f64::total_cmp);
    let per_round = |f: fn(&RoundOut) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let setup = per_round(|r| r.setup_s);
    let rss = per_round(|r| r.peak_rss_mb);
    let values = vec![
        ("throughput_rps", median(&rates)),
        ("latency_p50_us", quantile_sorted(&latency, 0.50)),
        ("latency_p90_us", quantile_sorted(&latency, 0.90)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", median(&rss)),
    ];
    let extra = vec![
        ("scaled_window_rates", nums(rates)),
        ("wall_window_rates", nums(pooled(|r| &r.window_rates))),
        ("latency_p99_us", Json::Num(quantile_sorted(&latency, 0.99))),
        ("latency_samples", Json::Num(latency.len() as f64)),
        ("round_setup_s", nums(setup)),
        ("round_peak_rss_mb", nums(rss)),
        ("round_warmup_s", nums(per_round(|r| r.warmup_s))),
        (
            "round_timer_resolution_ms",
            nums(per_round(|r| r.timer_resolution_ms)),
        ),
        ("round_restarts", nums(per_round(|r| r.restarts))),
    ];
    let mut failures = Failures::default();
    let mut attempted = 0;
    for r in rounds {
        attempted += r.attempted;
        failures.absorb(r.failures);
    }
    (attempted, failures, values, extra)
}

/// Mean ns per request over equal-request windows of the given rates.
fn mean_ns(rates: &[f64]) -> f64 {
    1e9 * rates.iter().map(|r| 1.0 / r).sum::<f64>() / rates.len().max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of one field over the drift episodes of the match site.
fn episode_median(drift: Option<&Json>, field: &str) -> f64 {
    let values: Vec<f64> = drift
        .and_then(|d| d.get("match"))
        .and_then(|m| m.get("episodes"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| e.get(field).and_then(Json::as_f64))
        .collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// (b) with telemetry on, then off: the replica served beside the real
/// handler (or, for `sort-embedded`, replayed in-process), `n` requests
/// after the warm-up.
fn replays(
    w: Workload,
    phases: Phases,
    seed: u64,
    corpora: &Corpora,
    n: u64,
) -> Result<[(Replay, u64, Failures); 2], String> {
    let replay = |pass: usize| -> Result<(Replay, u64, Failures), String> {
        if w.served() {
            let recording = Arc::new(AtomicBool::new(false));
            let server = trace::replica_server(recording.clone(), pass);
            let phases = Phases {
                windows: 1,
                window: (n / (SUBS * BATCH)).max(1) * SUBS * BATCH,
                latency: 0,
                ..phases
            };
            let mut r = served::run(w, seed, corpora, phases, None, Some(&recording), server)?;
            r.failures.absorb(std::mem::take(&mut r.end.mismatches));
            Ok((r.end, r.attempted, r.failures))
        } else {
            let per_thread = n / EMBEDDED_THREADS as u64;
            let (r, failures) = trace::replay_embedded(seed, phases.warmup, per_thread, pass);
            Ok((r, n + phases.warmup * EMBEDDED_THREADS as u64, failures))
        }
    };
    telemetry::enable();
    let on = replay(0)?;
    telemetry::disable();
    let off = replay(1);
    // Back to the setting of the untraced pass.
    if w.served() {
        telemetry::enable();
    }
    Ok([on, off?])
}

/// The traced passes, all in this process so that they share one timer
/// resolution sample: an untraced pass (the base of every ratio), (a) the
/// served pass with a span around `AppHandler::handle`, (b) the replicas
/// with telemetry on and off, and (c) the standalone tuner.
fn layers(w: Workload, phases: Phases, seed: u64, replay_n: u64) -> Result<Measured, String> {
    let corpora = Corpora::default();
    let mut base = E2e::measure(w, phases, seed, &corpora, None)?;
    let (mut attempted, mut failures) = base.outcome();
    // ns of one request on the thread that serves it, at the pass's
    // throughput (the median window).
    let threads = if w.served() {
        1.0
    } else {
        EMBEDDED_THREADS as f64
    };
    let e2e_ns = threads * 1e9 / median(base.window_rates());
    let sites = base.sites();
    let context = base.context().unwrap_or_default();

    // (a): the mean ns per request, of which the mean handle call is a
    // part, and that call.
    let wrapped = if w.served() {
        let recording = Arc::new(AtomicBool::new(false));
        let server = served::app_server(w, Some(recording.clone()));
        let phases = Phases {
            latency: 0,
            ..phases
        };
        let a = served::run(w, seed, &corpora, phases, None, Some(&recording), server)?;
        attempted += a.attempted;
        failures.absorb(a.failures);
        Some((mean_ns(&a.window_rates), a.end.handle.mean()))
    } else {
        None
    };
    let [(on, sent_on, failed_on), (off, sent_off, failed_off)] =
        replays(w, phases, seed, &corpora, replay_n)?;
    attempted += sent_on + sent_off;
    failures.absorb(failed_on);
    failures.absorb(failed_off);
    // The replay whose telemetry matches the untraced pass: on for served
    // workloads, off for the embedded one.
    let main = if w.served() { &on } else { &off };
    let (next, report) = trace::standalone_tuner(w, &main.outcomes);
    let s = &main.spans;
    let kernel_ns = main.kernel_ns;
    // What no replayed span covers of the real call made beside each
    // replayed one: `AppHandler::handle`, or `sort_request`. A replica
    // that drifts from the code it copies shows here.
    let spans_per_call = s.total_ns() / main.handle.n.max(1) as f64;
    let residual_frac = (main.real.mean() - spans_per_call) / e2e_ns;
    if w.served() && residual_frac.abs() >= RESIDUAL_LIMIT {
        eprintln!(
            "{}: ledger.residual_frac {residual_frac:.3}: the replica's spans do not add up to AppHandler::handle",
            w.name()
        );
    }
    let parse_ns = if w.served() {
        trace::parse_ns(w, seed, replay_n)
    } else {
        0.0
    };

    let mut v = vec![
        ("serve.parse_ns", parse_ns),
        ("serve.write_ns", s.write.mean()),
        ("app.keygen_ns", s.keygen.mean()),
        ("app.verify_ns", ratio(s.verify.ns, s.keygen.n as f64)),
        ("context.key_ns", s.key.mean()),
        ("context.lookup_ns", main.lookup.mean()),
        ("context.dispatch_ns", s.dispatch.mean()),
        ("context.admissions", context.admissions as f64),
        ("context.overflows", context.overflows as f64),
        (
            "site.pre_ns",
            if w.sorts() {
                // Site::pre runs inside the context dispatch.
                (s.dispatch.mean() - main.lookup.mean()).max(0.0)
            } else {
                s.pre.mean()
            },
        ),
        ("site.post_ns", s.post.mean()),
        (
            "site.tuned_frac",
            ratio(sites.tuned as f64, sites.calls as f64),
        ),
        (
            "site.contended_frac",
            ratio(sites.contended as f64, sites.calls as f64),
        ),
        ("two_phase.next_ns", next.mean()),
        ("two_phase.report_ns", report.mean()),
        (
            "two_phase.exploit_frac",
            ratio(sites.top_picks as f64, sites.picks as f64),
        ),
        ("two_phase.warmup_s", base.warmup_s()),
        ("robust.batched_ns", s.batched.mean()),
        ("robust.batch_k", ratio(s.batch_k, s.batched.n as f64)),
        ("smallsort.sort_ns", if w.sorts() { kernel_ns } else { 0.0 }),
        (
            "stringmatch.count_ns",
            if w.sorts() { 0.0 } else { kernel_ns },
        ),
        ("drift.observe_ns", s.observe.mean()),
        (
            "telemetry.cost_ns",
            ratio(on.spans.runtime_ns(), on.handle.n as f64)
                - ratio(off.spans.runtime_ns(), off.handle.n as f64),
        ),
        ("ledger.tax_x", ratio(e2e_ns, kernel_ns)),
        ("ledger.residual_frac", residual_frac),
        // The spans' own cost: a ±20% window-to-window spread swamps it
        // in any traced-against-untraced comparison of throughput.
        (
            "ledger.trace_overhead_frac",
            s.count() as f64 / main.handle.n.max(1) as f64 * trace::span_ns() / e2e_ns,
        ),
    ];
    match (&base, wrapped) {
        (E2e::Served(r), Some((a_ns, handle_ns))) => {
            let wall = r.throughput_wall_ns as f64;
            let requests = r.throughput_requests as f64;
            let drift = r.end.drift.as_ref();
            v.extend([
                ("serve.loop_ns", a_ns - handle_ns),
                (
                    "serve.wake_us",
                    quantile_sorted(&r.latency_us, 0.50) - r.end.report.p50_us,
                ),
                ("serve.service_p50_us", r.end.report.p50_us),
                ("serve.rtt_p99_us", quantile_sorted(&r.latency_us, 0.99)),
                (
                    "serve.cpu_us_per_req",
                    r.server_cpu_ns as f64 / requests / 1e3,
                ),
                ("serve.runq_wait_frac", r.server_wait_ns as f64 / wall),
                ("loadgen.cpu_frac", r.client_cpu_ns as f64 / wall),
                ("app.handle_ns", handle_ns),
                ("drift.restarts", sites.restarts as f64),
                (
                    "drift.detect_lag_requests",
                    episode_median(drift, "detect_lag_requests"),
                ),
                (
                    "drift.reconverge_requests",
                    episode_median(drift, "reconverged_after_iters"),
                ),
                ("telemetry.events_per_req", r.events as f64 / requests),
            ]);
        }
        _ => {
            let absent = [
                "serve.loop_ns",
                "serve.wake_us",
                "serve.service_p50_us",
                "serve.rtt_p99_us",
                "serve.cpu_us_per_req",
                "serve.runq_wait_frac",
                "loadgen.cpu_frac",
                "app.handle_ns",
                "drift.restarts",
                "drift.detect_lag_requests",
                "drift.reconverge_requests",
                "telemetry.events_per_req",
            ];
            v.extend(absent.map(|name| (name, 0.0)));
        }
    }
    let extra = vec![
        ("base_window_rates", nums(base.window_rates().to_vec())),
        ("replica_handle_ns", Json::Num(main.handle.mean())),
        ("paired_real_ns", Json::Num(main.real.mean())),
        (
            "timer_resolution_ms",
            Json::Num(autotune::robust::timer_resolution_ms()),
        ),
        ("peak_rss_mb", Json::Num(round::peak_rss_mb())),
    ];
    Ok((attempted, failures, v, extra))
}
