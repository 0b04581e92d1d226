//! The `serve` target: both case studies stood up as an always-on tuning
//! service ([`autotune::serve`]).
//!
//! The server owns one tuning site per workload — `serve/match`
//! (case-study-1 algorithmic choice over the kernel-extended matcher set)
//! and `serve/render` (case-study-2 choice over the four kd-tree builders
//! with their parameter spaces) — and dispatches every `OP_MATCH` /
//! `OP_RENDER` request through them. Because the poll loop is
//! single-threaded, every request wins its site's claim: each one is a
//! tuning iteration until the site's tuner plateaus, after which the
//! site's tuning-rate controller backs off to one tuning call in up to 64
//! and serves the rest from the converged decision. The service
//! converges while it serves, and stops paying for tuning once it has.
//!
//! The third workload is size-classed: `OP_SORT` requests carry an array
//! length, and dispatch lands on one of the [`smallsort::SortSites`]
//! class sites (`serve/sort/{seed}/cNN`), so the service learns a
//! *per-size-class* winner instead of one compromise sort. Because a
//! small-array sort finishes in microseconds — under the timer tick —
//! the sort path times tuning iterations with
//! [`autotune::robust::batched_time_ms`] rather than a single
//! `Instant` read; a backed-off sort request runs one sort.
//!
//! Each site is paired with a [`DriftMonitor`]. `OP_MORPH` requests
//! switch the served workload mid-run (a 4× bigger corpus, a
//! higher-detail scene); the sustained regression trips the monitor,
//! which emits a `DriftDetected` telemetry event, rebuilds the site's
//! tuner from its recipe ([`autotune::site::Site::restart`]), and
//! re-baselines. Per-request runtime logs make the episode measurable:
//! `drift_json` reports, for every restart, the time-to-reconvergence
//! (iterations until a rolling median lands within 5% of the new
//! optimum) — written to `results/serve_drift.json`.
//!
//! On graceful shutdown (`OP_QUIT`, or a signetted stop flag) the run's
//! [`autotune::serve::ServeReport`], the application counters, and a
//! per-site convergence summary land in `results/serve.json`, and
//! whatever telemetry the live subscribers did not drain is exported to
//! `results/serve_trace.jsonl`.
//!
//! ## Request payloads (on top of the frame protocol)
//!
//! | Opcode | Request payload | Response payload |
//! |---|---|---|
//! | `OP_MATCH` | pattern bytes | `u32` LE occurrence count |
//! | `OP_RENDER` | empty, or `u16 LE w, u16 LE h` | `f32` LE mean luminance |
//! | `OP_SORT` | `u32` LE n, optionally `u64` LE key seed, optionally `u8` presort hint | `u8` ok, `u32` LE size class, `u64` LE key checksum |
//! | `OP_MORPH` | `u8` target (0=corpus, 1=scene), `u8` level | the two bytes, echoed |
//!
//! `OP_SORT` generates its `n` keys server-side from the seed (the wire
//! stays cheap while the sort is real); the response's checksum is the
//! wrapping sum of the sorted keys, which a client holding the seed can
//! verify independently. `ok` is the server's own sortedness +
//! key-conservation check.

use autotune::context::ContextKey;
use autotune::drift::{observe_and_restart, DriftConfig, DriftMonitor};
use autotune::json::Json;
use autotune::rng::Rng;
use autotune::serve::protocol::{self, OP_MATCH, OP_MORPH, OP_RENDER, OP_SORT};
use autotune::serve::{serve, RequestHandler, ServeConfig, ServeReport, StopFlag};
use autotune::site::{register, site, Site};
use autotune::stats;
use autotune::telemetry;
use autotune::two_phase::NominalKind;
use raytrace::kdtree::KdBuilder;
use raytrace::render::RenderOptions;
use raytrace::scene::Scene;
use smallsort::SortSites;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use stringmatch::Matcher;

/// Workload levels each morph target can switch between.
pub const MORPH_LEVELS: usize = 2;
/// The level-1 corpus is this many times the level-0 size — a clean
/// step regression for the drift monitor to catch.
pub const MORPH_CORPUS_FACTOR: usize = 4;

/// Configuration of the `serve` target.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Level-0 corpus size for the match workload, in KiB.
    pub corpus_kb: usize,
    /// Level-0 cathedral detail for the render workload (≥ 1; level 1
    /// adds one).
    pub detail: u32,
    /// Seed for corpora, scenes and site tuners.
    pub seed: u64,
    /// Drift-monitor knobs (shared by both sites).
    pub drift: DriftConfig,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7070".into(),
            corpus_kb: 16,
            detail: 1,
            seed: 42,
            // More deliberate than the monitor's general default: served
            // request runtimes see multi-hundred-request environmental
            // stalls (frequency scaling, noisy neighbors) of ~2x that a
            // 1.5x/patience-3 monitor restarts on. The morph regressions
            // this service must catch are 3-4x, so a higher bar loses
            // nothing and keeps environmental restarts rare.
            drift: DriftConfig {
                threshold: 2.0,
                patience: 5,
                ..DriftConfig::default()
            },
        }
    }
}

/// Per-site request log: runtimes in arrival order plus the indices where
/// morphs and drift restarts happened — the raw material of
/// [`drift_json`].
#[derive(Debug, Default, Clone)]
struct SiteLog {
    runtimes: Vec<f64>,
    morphs: Vec<usize>,
    restarts: Vec<usize>,
}

impl SiteLog {
    fn push(&mut self, ms: f64) -> usize {
        self.runtimes.push(ms);
        self.runtimes.len() - 1
    }
}

/// The application half of the server: both workloads, their sites, drift
/// monitors, and counters. Also usable without any socket (the `serve`
/// bench drives [`RequestHandler::handle`] directly for its
/// direct-dispatch baseline).
pub struct AppHandler {
    match_site: Site,
    matchers: Vec<Box<dyn Matcher>>,
    corpora: Vec<Vec<u8>>,
    corpus_level: usize,
    match_monitor: DriftMonitor,
    match_log: SiteLog,

    render_site: Site,
    builders: Vec<Box<dyn KdBuilder>>,
    scenes: Vec<Scene>,
    scene_level: usize,
    render_monitor: DriftMonitor,
    render_log: SiteLog,
    render_base: RenderOptions,

    sort_sites: SortSites,
    sort_rng: Rng,

    matches: u64,
    renders: u64,
    sorts: u64,
    morphs: u64,
    rejected: u64,
}

/// Hard cap on a served sort request's length: one past the top size
/// class, so a client can exercise the "everything above the boundary
/// shares the top class" clamp but not bloat the server.
pub const MAX_SORT_N: usize = (1 << smallsort::MAX_CLASS_LOG2) + 1;

impl AppHandler {
    /// Build both workloads and register their sites. Site names carry a
    /// `serve/` prefix plus the seed so repeated constructions (tests,
    /// benches) coexist in the process-global registry.
    pub fn new(opts: &ServeOptions) -> AppHandler {
        let corpora = (0..MORPH_LEVELS)
            .map(|level| {
                let bytes = (opts.corpus_kb << 10) * MORPH_CORPUS_FACTOR.pow(level as u32);
                // Dense query spacing (vs the default ~40k words) so even
                // a small served corpus contains occurrences to count.
                stringmatch::corpus::bible_like_with(opts.seed + level as u64, bytes, 250)
            })
            .collect();
        let scenes = (0..MORPH_LEVELS as u32)
            .map(|level| raytrace::scene::cathedral(opts.seed + 3, opts.detail + level))
            .collect();
        let match_site = site(register(stringmatch::tuned::search_site_spec(
            format!("serve/match/{}", opts.seed),
            NominalKind::EpsilonGreedy(0.10),
            opts.seed,
        )));
        let render_site = site(register(raytrace::tunable::frame_site_spec(
            format!("serve/render/{}", opts.seed),
            NominalKind::EpsilonGreedy(0.10),
            opts.seed + 7,
        )));
        let sort_sites = SortSites::register(
            &format!("serve/sort/{}", opts.seed),
            NominalKind::EpsilonGreedy(0.10),
            opts.seed + 11,
        );
        AppHandler {
            match_site,
            matchers: stringmatch::tuned::site_matchers(),
            corpora,
            corpus_level: 0,
            match_monitor: DriftMonitor::new(opts.drift),
            match_log: SiteLog::default(),
            render_site,
            builders: raytrace::kdtree::all_builders(),
            scenes,
            scene_level: 0,
            render_monitor: DriftMonitor::new(opts.drift),
            render_log: SiteLog::default(),
            render_base: RenderOptions {
                width: 16,
                height: 12,
                threads: 1,
                packet_width: 1,
            },
            sort_sites,
            sort_rng: Rng::new(opts.seed ^ 0x5047),
            matches: 0,
            renders: 0,
            sorts: 0,
            morphs: 0,
            rejected: 0,
        }
    }

    /// The two single-site workloads, for post-run convergence reporting.
    pub fn sites(&self) -> [(&'static str, Site); 2] {
        [("match", self.match_site), ("render", self.render_site)]
    }

    /// The size-classed sort sites (one per class), for per-class
    /// convergence reporting. Only classes that actually served a
    /// request are interesting; the caller filters on `calls()`.
    pub fn sort_sites(&self) -> &SortSites {
        &self.sort_sites
    }

    /// Requests handled per opcode: `(matches, renders, morphs)`.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.matches, self.renders, self.morphs)
    }

    /// Sort requests handled.
    pub fn sort_count(&self) -> u64 {
        self.sorts
    }

    /// The drift report over both sites (`drift_json`), or `None` if
    /// the run never morphed.
    pub fn drift_report(&self) -> Option<Json> {
        if self.match_log.morphs.is_empty() && self.render_log.morphs.is_empty() {
            return None;
        }
        Some(Json::obj(vec![
            ("match", drift_json(&self.match_log)),
            ("render", drift_json(&self.render_log)),
        ]))
    }
}

impl RequestHandler for AppHandler {
    fn handle(&mut self, op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
        match op {
            OP_MATCH => {
                let (count, ms) = stringmatch::tuned::match_request(
                    self.match_site,
                    &self.matchers,
                    payload,
                    &self.corpora[self.corpus_level],
                );
                let idx = self.match_log.push(ms);
                if observe_and_restart(self.match_site, &mut self.match_monitor, ms) {
                    self.match_log.restarts.push(idx);
                }
                self.matches += 1;
                protocol::write_frame(out, OP_MATCH, &(count as u32).to_le_bytes());
                true
            }
            OP_RENDER => {
                let base = if payload.len() >= 4 {
                    RenderOptions {
                        width: u16::from_le_bytes([payload[0], payload[1]]).clamp(1, 256) as usize,
                        height: u16::from_le_bytes([payload[2], payload[3]]).clamp(1, 256) as usize,
                        ..self.render_base
                    }
                } else {
                    self.render_base
                };
                let (lum, ms) = raytrace::tunable::render_request(
                    self.render_site,
                    &self.builders,
                    &self.scenes[self.scene_level],
                    &base,
                );
                let idx = self.render_log.push(ms);
                if observe_and_restart(self.render_site, &mut self.render_monitor, ms) {
                    self.render_log.restarts.push(idx);
                }
                self.renders += 1;
                protocol::write_frame(out, OP_RENDER, &lum.to_le_bytes());
                true
            }
            OP_SORT => {
                let Some(n_bytes) = payload.get(0..4) else {
                    self.rejected += 1;
                    protocol::write_frame(out, protocol::OP_ERR, b"sort needs u32 LE n");
                    return true;
                };
                let n = (u32::from_le_bytes(n_bytes.try_into().unwrap()) as usize).min(MAX_SORT_N);
                // Keys are derived server-side: from the client's seed if
                // it sent one (reproducible requests), else from the
                // server's own stream. A trailing presort hint byte of 1
                // asks for a nearly-sorted input instead of a random one,
                // steering the request onto a different context key at
                // the same size.
                let seed = payload
                    .get(4..12)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or_else(|| self.sort_rng.next_u64());
                let mut keys = Rng::new(seed);
                let mut data: Vec<u64> = if payload.get(12) == Some(&1) {
                    smallsort::nearly_sorted_input(n, &mut keys)
                } else {
                    (0..n).map(|_| keys.next_u64()).collect()
                };
                let sum_in = data.iter().copied().fold(0u64, u64::wrapping_add);
                let (class, _ms) = smallsort::sort_request(&self.sort_sites, &mut data);
                let sum_out = data.iter().copied().fold(0u64, u64::wrapping_add);
                let ok = sum_in == sum_out && data.windows(2).all(|w| w[0] <= w[1]);
                self.sorts += 1;
                let mark = protocol::begin_frame(out, OP_SORT);
                out.push(ok as u8);
                out.extend_from_slice(&class.to_le_bytes());
                out.extend_from_slice(&sum_out.to_le_bytes());
                protocol::end_frame(out, mark);
                true
            }
            OP_MORPH => {
                let (Some(&target), Some(&level)) = (payload.first(), payload.get(1)) else {
                    self.rejected += 1;
                    protocol::write_frame(out, protocol::OP_ERR, b"morph needs [target, level]");
                    return true;
                };
                let level = (level as usize).min(MORPH_LEVELS - 1);
                match target {
                    0 => {
                        self.corpus_level = level;
                        self.match_log.morphs.push(self.match_log.runtimes.len());
                    }
                    _ => {
                        self.scene_level = level;
                        self.render_log.morphs.push(self.render_log.runtimes.len());
                    }
                }
                self.morphs += 1;
                protocol::write_frame(out, OP_MORPH, &[target, level as u8]);
                true
            }
            _ => false,
        }
    }

    fn stats_json(&self) -> Option<Json> {
        Some(Json::obj(vec![
            ("matches", Json::Num(self.matches as f64)),
            ("renders", Json::Num(self.renders as f64)),
            ("sorts", Json::Num(self.sorts as f64)),
            ("morphs", Json::Num(self.morphs as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("corpus_level", Json::Num(self.corpus_level as f64)),
            ("scene_level", Json::Num(self.scene_level as f64)),
            (
                "match_restarts",
                Json::Num(self.match_site.restarts() as f64),
            ),
            (
                "render_restarts",
                Json::Num(self.render_site.restarts() as f64),
            ),
        ]))
    }
}

/// Rolling-median window for the reconvergence scan.
const RECONV_WINDOW: usize = 15;
/// "Within 5% of the new optimum" — the acceptance criterion's bound.
const RECONV_TOLERANCE: f64 = 0.05;

/// Iterations from `start` until the rolling median of `runtimes[start..]`
/// first lands within [`RECONV_TOLERANCE`] of the converged (final)
/// median, or `None` if it never does.
fn reconvergence_iterations(runtimes: &[f64], start: usize) -> Option<(usize, f64)> {
    let tail = &runtimes[start..];
    if tail.len() < 2 * RECONV_WINDOW {
        return None;
    }
    // The "new optimum": the converged end of the post-restart regime.
    let settled = stats::median(&tail[tail.len() - tail.len().min(4 * RECONV_WINDOW)..]);
    for i in RECONV_WINDOW..=tail.len() {
        let m = stats::median(&tail[i - RECONV_WINDOW..i]);
        if (m - settled).abs() <= settled * RECONV_TOLERANCE {
            return Some((i, settled));
        }
    }
    None
}

/// The drift episode of one site as JSON: per restart, where the morph
/// and the restart happened, the runtime regime before and after, and the
/// time-to-reconvergence (iterations until a [`RECONV_WINDOW`]-wide
/// rolling median is within 5% of the new optimum).
fn drift_json(log: &SiteLog) -> Json {
    let episodes = log
        .restarts
        .iter()
        .map(|&r| {
            // Attribute a morph only if it is the nearest event before this
            // restart — an episode after an intervening restart was
            // triggered by something else (an environmental regression),
            // and claiming the stale morph would fake its detection lag.
            let morph = log
                .morphs
                .iter()
                .rev()
                .find(|&&m| m <= r)
                .copied()
                .filter(|&m| !log.restarts.iter().any(|&r2| r2 >= m && r2 < r));
            let pre = morph.filter(|&m| m > 0).map(|m| {
                let lo = m.saturating_sub(64);
                stats::median(&log.runtimes[lo..m])
            });
            let (reconv, settled) = match reconvergence_iterations(&log.runtimes, r + 1) {
                Some((i, s)) => (Json::Num(i as f64), Json::Num(s)),
                None => (Json::Null, Json::Null),
            };
            Json::obj(vec![
                (
                    "morph_at",
                    morph.map_or(Json::Null, |m| Json::Num(m as f64)),
                ),
                ("restart_at", Json::Num(r as f64)),
                (
                    "detect_lag_requests",
                    morph.map_or(Json::Null, |m| Json::Num((r - m) as f64)),
                ),
                ("median_before_ms", pre.map_or(Json::Null, Json::Num)),
                ("new_optimum_ms", settled),
                ("reconverged_after_iters", reconv),
            ])
        })
        .collect();
    Json::obj(vec![
        ("requests", Json::Num(log.runtimes.len() as f64)),
        (
            "morphs",
            Json::Arr(log.morphs.iter().map(|&m| Json::Num(m as f64)).collect()),
        ),
        ("restarts", Json::Num(log.restarts.len() as f64)),
        ("episodes", Json::Arr(episodes)),
    ])
}

/// Post-run convergence summary of one site, for `serve.json`.
fn site_json(name: &str, s: Site) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(name.into())),
        ("calls", Json::Num(s.calls() as f64)),
        ("tuned_iterations", Json::Num(s.tuned_iterations() as f64)),
        ("contended", Json::Num(s.contended() as f64)),
        ("backed_off", Json::Num(s.backed_off() as f64)),
        ("restarts", Json::Num(s.restarts() as f64)),
    ];
    s.with_tuner(|t| {
        if let Some(tp) = t.as_two_phase() {
            let (exploit, _) = tp.exploit_choice();
            pairs.push(("algorithms", Json::Num(tp.num_algorithms() as f64)));
            pairs.push((
                "exploit_algorithm",
                Json::Str(tp.algorithm_name(exploit).into()),
            ));
            pairs.push(("log_len", Json::Num(tp.log().len() as f64)));
            pairs.push((
                "selection_counts",
                Json::Arr(
                    tp.selection_counts()
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ));
        }
    });
    Json::obj(pairs)
}

/// `results/serve.json`: the server report, the application counters, and
/// the per-site convergence summaries.
pub fn serve_json(report: &ServeReport, handler: &AppHandler) -> Json {
    Json::obj(vec![
        ("id", Json::Str("serve".into())),
        ("server", report.to_json()),
        ("app", handler.stats_json().unwrap_or(Json::Null)),
        (
            "sites",
            Json::Arr(
                handler
                    .sites()
                    .iter()
                    .map(|&(name, s)| site_json(name, s))
                    // Sort context sites ride along, but only the keys
                    // this run actually served. Keys sort so the report
                    // order is stable across runs.
                    .chain({
                        let mut keys: Vec<_> = handler.sort_sites().table().keys();
                        keys.sort_unstable();
                        keys.into_iter().filter_map(|(key, context)| {
                            let s = handler.sort_sites().key_site(key);
                            (s.calls() > 0).then(|| {
                                let mut j = site_json(&format!("sort/{}", key.label()), s);
                                if let Json::Obj(pairs) = &mut j {
                                    pairs.insert(1, ("context".into(), Json::Num(context as f64)));
                                }
                                j
                            })
                        })
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Run the service until a client sends `OP_QUIT` (or `stop` is raised),
/// then write `serve.json`, `serve_drift.json` (if the run morphed) and
/// `serve_trace.jsonl` into `out`. Returns the written paths.
pub fn run_serve(
    opts: &ServeOptions,
    out: &Path,
    stop: &StopFlag,
) -> std::io::Result<Vec<PathBuf>> {
    run_serve_on(TcpListener::bind(&opts.addr)?, opts, out, stop)
}

/// [`run_serve`] on an already-bound listener — lets tests bind port 0
/// and learn the ephemeral port before the server starts.
pub fn run_serve_on(
    listener: TcpListener,
    opts: &ServeOptions,
    out: &Path,
    stop: &StopFlag,
) -> std::io::Result<Vec<PathBuf>> {
    telemetry::enable();
    let local = listener.local_addr()?;
    eprintln!(
        "[serve] listening on {local} (corpus {}KiB ×{MORPH_CORPUS_FACTOR}, detail {}..{}; \
         quit with OP_QUIT or GET /stats to peek)",
        opts.corpus_kb,
        opts.detail,
        opts.detail + MORPH_LEVELS as u32 - 1,
    );
    let mut handler = AppHandler::new(opts);
    let report = serve(listener, &mut handler, &ServeConfig::default(), stop)?;

    let mut written = Vec::new();
    let serve_path = out.join("serve.json");
    std::fs::write(
        &serve_path,
        serve_json(&report, &handler).to_string_pretty() + "\n",
    )?;
    written.push(serve_path);
    if let Some(drift) = handler.drift_report() {
        let drift_path = out.join("serve_drift.json");
        std::fs::write(&drift_path, drift.to_string_pretty() + "\n")?;
        written.push(drift_path);
    }
    // Whatever live subscribers did not drain is still in the ring:
    // export it so the run's tail is never lost.
    let residue = telemetry::drain();
    let trace_path = out.join("serve_trace.jsonl");
    std::fs::write(&trace_path, telemetry::export::to_jsonl(&residue))?;
    written.push(trace_path);

    let (matches, renders, morphs) = handler.counts();
    let sorts = handler.sort_count();
    eprintln!(
        "[serve] done: {} requests ({matches} match, {renders} render, {sorts} sort, \
         {morphs} morph) in {:.1}s = {:.0} req/s, p99 {:.1}µs, {} drift restarts",
        report.requests,
        report.elapsed_s,
        report.throughput_rps,
        report.p99_us,
        handler.match_site.restarts() + handler.render_site.restarts(),
    );
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(seed: u64) -> ServeOptions {
        ServeOptions {
            corpus_kb: 4,
            seed,
            drift: DriftConfig {
                baseline_window: 16,
                recent_window: 8,
                threshold: 1.5,
                patience: 2,
                stride: 4,
                min_delta_ms: 0.0,
            },
            ..ServeOptions::default()
        }
    }

    #[test]
    fn match_requests_count_and_tune() {
        let mut h = AppHandler::new(&tiny_opts(1001));
        let mut out = Vec::new();
        for _ in 0..10 {
            out.clear();
            assert!(h.handle(OP_MATCH, stringmatch::PAPER_QUERY, &mut out));
        }
        // Response frame: count > 0 (the corpus embeds the paper query).
        let count = u32::from_le_bytes(out[5..9].try_into().unwrap());
        assert!(count > 0);
        assert_eq!(h.match_site.calls(), 10);
        assert_eq!(h.counts().0, 10);
    }

    #[test]
    fn render_requests_produce_luminance() {
        let mut h = AppHandler::new(&tiny_opts(1003));
        let mut out = Vec::new();
        assert!(h.handle(OP_RENDER, &[], &mut out));
        let lum = f32::from_le_bytes(out[5..9].try_into().unwrap());
        assert!((0.0..=1.0).contains(&lum), "{lum}");
        assert_eq!(h.render_site.calls(), 1);
    }

    #[test]
    fn sort_requests_land_on_their_size_class_site() {
        let mut h = AppHandler::new(&tiny_opts(1009));
        let mut out = Vec::new();
        // 96-key requests bucket into class 7 (2^6 < 96 ≤ 2^7); a fixed
        // key seed makes the expected checksum computable client-side.
        let mut req = 96u32.to_le_bytes().to_vec();
        req.extend_from_slice(&77u64.to_le_bytes());
        for _ in 0..10 {
            out.clear();
            assert!(h.handle(OP_SORT, &req, &mut out));
        }
        assert_eq!(out[5], 1, "server-side sortedness check must pass");
        let class = u32::from_le_bytes(out[6..10].try_into().unwrap());
        assert_eq!(class, smallsort::size_class(96));
        let mut keys = Rng::new(77);
        let want: u64 = (0..96)
            .map(|_| keys.next_u64())
            .fold(0u64, u64::wrapping_add);
        let sum = u64::from_le_bytes(out[10..18].try_into().unwrap());
        assert_eq!(sum, want, "checksum must be reproducible from the seed");
        // Every request hit exactly the class-7 site; its neighbors idle.
        assert_eq!(h.sort_sites().class_site(class).calls(), 10);
        assert_eq!(h.sort_sites().class_site(class + 1).calls(), 0);
        assert_eq!(h.sort_count(), 10);
        // Truncated payloads are rejected without killing the connection.
        out.clear();
        assert!(h.handle(OP_SORT, &[1, 2], &mut out));
        assert_eq!(out[4], protocol::OP_ERR);
    }

    #[test]
    fn sort_presort_hint_steers_requests_to_the_nearly_sorted_key() {
        use smallsort::{SortKey, PRESORT_NEARLY_SORTED, PRESORT_RANDOM};
        let mut h = AppHandler::new(&tiny_opts(1013));
        let mut out = Vec::new();
        let mut req = 96u32.to_le_bytes().to_vec();
        req.extend_from_slice(&77u64.to_le_bytes());
        req.push(1); // presort hint: nearly-sorted input
        for _ in 0..5 {
            out.clear();
            assert!(h.handle(OP_SORT, &req, &mut out));
        }
        assert_eq!(out[5], 1, "server-side sortedness check must pass");
        let class = u32::from_le_bytes(out[6..10].try_into().unwrap());
        assert_eq!(class, smallsort::size_class(96));
        // Same size, different context key than the random-input path.
        let table = h.sort_sites().table();
        let near = SortKey::new(class, PRESORT_NEARLY_SORTED);
        assert_eq!(table.key_stats(&near).unwrap().calls, 5);
        assert!(table
            .key_stats(&SortKey::new(class, PRESORT_RANDOM))
            .is_none());
    }

    #[test]
    fn serve_json_includes_active_sort_classes() {
        let mut h = AppHandler::new(&tiny_opts(1011));
        let mut out = Vec::new();
        for n in [16u32, 4096] {
            for _ in 0..3 {
                out.clear();
                h.handle(OP_SORT, &n.to_le_bytes(), &mut out);
            }
        }
        let doc = serve_json(&ServeReport::default(), &h);
        let sites = doc.get("sites").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = sites
            .iter()
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"sort/c04/random"), "{names:?}");
        assert!(names.contains(&"sort/c12/random"), "{names:?}");
        // Idle context keys stay out of the report.
        assert!(
            !names.iter().any(|n| n.starts_with("sort/c08")),
            "{names:?}"
        );
        // Sort sites carry their context id next to the slot counters.
        assert!(sites
            .iter()
            .filter(|s| {
                s.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("sort/"))
            })
            .all(|s| s.get("context").and_then(Json::as_f64).is_some()));
        assert_eq!(
            doc.get("app").unwrap().get("sorts").and_then(Json::as_f64),
            Some(6.0)
        );
    }

    #[test]
    fn corpus_morph_drives_drift_restart() {
        let mut h = AppHandler::new(&tiny_opts(1005));
        let mut out = Vec::new();
        // Converge a baseline on the small corpus...
        for _ in 0..64 {
            out.clear();
            h.handle(OP_MATCH, stringmatch::PAPER_QUERY, &mut out);
        }
        assert_eq!(h.match_site.restarts(), 0);
        // ...switch to the 4× corpus mid-run...
        out.clear();
        assert!(h.handle(OP_MORPH, &[0, 1], &mut out));
        assert_eq!(&out[5..7], &[0, 1]);
        // ...and keep serving: the sustained regression must fire.
        for _ in 0..256 {
            out.clear();
            h.handle(OP_MATCH, stringmatch::PAPER_QUERY, &mut out);
            if h.match_site.restarts() > 0 {
                break;
            }
        }
        assert_eq!(h.match_site.restarts(), 1, "drift restart must fire");
        let report = h.drift_report().expect("morphed run has a drift report");
        let m = report.get("match").unwrap();
        assert_eq!(m.get("restarts").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn reconvergence_scan_finds_the_settled_regime() {
        // 30 slow samples, then 100 settled fast ones.
        let mut runtimes = vec![9.0; 30];
        runtimes.extend(vec![1.0; 100]);
        let (iters, settled) = reconvergence_iterations(&runtimes, 0).expect("reconverges");
        assert_eq!(settled, 1.0);
        // The rolling median crosses once the window is majority-fast.
        assert!((30..60).contains(&iters), "{iters}");
    }

    #[test]
    fn serve_json_reports_site_convergence() {
        let mut h = AppHandler::new(&tiny_opts(1007));
        let mut out = Vec::new();
        for _ in 0..12 {
            out.clear();
            h.handle(OP_MATCH, b"and", &mut out);
        }
        let doc = serve_json(&ServeReport::default(), &h);
        let sites = doc.get("sites").and_then(Json::as_arr).unwrap();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].get("calls").and_then(Json::as_f64), Some(12.0));
        assert!(sites[0]
            .get("exploit_algorithm")
            .and_then(Json::as_str)
            .is_some());
    }
}
