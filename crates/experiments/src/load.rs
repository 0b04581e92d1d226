//! The `load` target: a multi-threaded loopback load generator for
//! `experiments serve`.
//!
//! Throughput comes from pipelining: each worker frames a whole batch of
//! requests into one buffer, writes it with a single syscall, then drains
//! the batch's responses ([`Client::send_raw`] + [`Client::recv_into`]).
//! Latency is measured honestly on the side: before the pipelined phase,
//! worker 0 runs a ping-pong warm-up (one request in flight) and records
//! every round trip in a [`LatencyHist`], so the reported p99 is a true
//! request→response time rather than a batch artifact.
//!
//! Optional extras exercise the rest of the service:
//!
//! * `--drift` sends `OP_MORPH` frames mid-run — corpus→level 1 at 50%
//!   of the run, scene→level 1 at 55% — so the server's drift monitors
//!   have something to detect and `serve_drift.json` has episodes.
//! * `--subscribe` attaches one extra connection that `OP_SUBSCRIBE`s and
//!   accumulates the streamed telemetry; after the run the complete-line
//!   prefix must parse with [`telemetry::export::parse_jsonl`] (the smoke
//!   test's proof that live streaming is byte-compatible with the batch
//!   JSONL schema).
//! * `--quit` sends `OP_QUIT` when done, shutting the server down
//!   gracefully so it writes its own result files.

use autotune::json::Json;
use autotune::serve::protocol::{
    self, OP_EVENTS, OP_MATCH, OP_MORPH, OP_PING, OP_QUIT, OP_RENDER, OP_SUBSCRIBE,
};
use autotune::serve::{Client, LatencyHist};
use autotune::telemetry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Configuration of one load run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Server address.
    pub addr: String,
    /// Total application requests across all workers.
    pub requests: u64,
    /// Worker connections, each on its own thread.
    pub threads: usize,
    /// Frames pipelined per write.
    pub batch: usize,
    /// Every Nth request is an `OP_RENDER` instead of an `OP_MATCH`
    /// (0 disables renders; they are ~1000× more expensive).
    pub render_every: u64,
    /// Inject the morph schedule (corpus at 50%, scene at 55%).
    pub drift: bool,
    /// Attach a telemetry subscriber and validate the streamed JSONL.
    pub subscribe: bool,
    /// Send `OP_QUIT` after the run.
    pub quit: bool,
    /// Pattern for match requests.
    pub pattern: Vec<u8>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            addr: "127.0.0.1:7070".into(),
            requests: 100_000,
            threads: 2,
            batch: 64,
            render_every: 0,
            drift: false,
            subscribe: false,
            quit: false,
            pattern: stringmatch::PAPER_QUERY.to_vec(),
        }
    }
}

/// What one load run measured — the substance of `results/load.json`.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Requests sent (matches + renders + morphs, all workers).
    pub sent: u64,
    /// Non-error responses received.
    pub ok: u64,
    /// `OP_ERR` responses (or response/request opcode mismatches).
    pub errors: u64,
    /// Ping-pong round trips timed for the latency histogram.
    pub latency_samples: u64,
    /// Client-observed round-trip p50, microseconds (ping-pong phase).
    pub p50_us: f64,
    /// Client-observed round-trip p99, microseconds (ping-pong phase).
    pub p99_us: f64,
    /// Wall-clock seconds over the pipelined phase.
    pub elapsed_s: f64,
    /// Pipelined-phase throughput, requests per second.
    pub throughput_rps: f64,
    /// Telemetry JSONL lines streamed to the subscriber that parsed
    /// cleanly (`--subscribe` only).
    pub streamed_lines: u64,
    /// Raw bytes the subscriber received.
    pub streamed_bytes: u64,
    /// Did every complete streamed line round-trip through the JSONL
    /// parser? `true` when `--subscribe` was off.
    pub stream_valid: bool,
}

impl LoadReport {
    /// The report as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Str("load".into())),
            ("sent", Json::Num(self.sent as f64)),
            ("ok", Json::Num(self.ok as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("latency_samples", Json::Num(self.latency_samples as f64)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
            ("streamed_lines", Json::Num(self.streamed_lines as f64)),
            ("streamed_bytes", Json::Num(self.streamed_bytes as f64)),
            ("stream_valid", Json::Bool(self.stream_valid)),
        ])
    }
}

/// One worker's pipelined request loop: `share` requests in batches of
/// `opts.batch`, every `render_every`th a render. Returns `(sent, ok,
/// errors)`.
fn run_worker(
    opts: &LoadOptions,
    share: u64,
    progress: &AtomicU64,
    morphs_due: &[(u64, [u8; 2])],
) -> std::io::Result<(u64, u64, u64)> {
    let mut client = Client::connect(&opts.addr)?;
    client.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut frames = Vec::with_capacity(opts.batch * (opts.pattern.len() + 8));
    let mut ops = Vec::with_capacity(opts.batch);
    let mut response = Vec::new();
    let (mut sent, mut ok, mut errors) = (0u64, 0u64, 0u64);
    let mut next_morph = 0usize;
    while sent < share {
        frames.clear();
        ops.clear();
        let n = opts.batch.min((share - sent) as usize);
        for i in 0..n {
            let global = progress.fetch_add(1, Ordering::Relaxed);
            // The morph schedule keys off run-wide progress so it lands
            // mid-run regardless of how threads interleave.
            while next_morph < morphs_due.len() && global >= morphs_due[next_morph].0 {
                protocol::write_frame(&mut frames, OP_MORPH, &morphs_due[next_morph].1);
                ops.push(OP_MORPH);
                next_morph += 1;
            }
            let seq = sent + i as u64;
            if opts.render_every > 0 && seq % opts.render_every == opts.render_every - 1 {
                protocol::write_frame(&mut frames, OP_RENDER, &[]);
                ops.push(OP_RENDER);
            } else {
                protocol::write_frame(&mut frames, OP_MATCH, &opts.pattern);
                ops.push(OP_MATCH);
            }
        }
        client.send_raw(&frames)?;
        for &op in &ops {
            let got = client.recv_into(&mut response)?;
            if got == op {
                ok += 1;
            } else {
                errors += 1;
            }
        }
        sent += n as u64;
    }
    sent += (next_morph) as u64; // morphs ride on top of the share
    Ok((sent, ok, errors))
}

/// The ping-pong latency phase: `n` single-in-flight round trips, each
/// timed into `hist`.
fn run_latency_probe(opts: &LoadOptions, n: u64, hist: &mut LatencyHist) -> std::io::Result<u64> {
    let mut client = Client::connect(&opts.addr)?;
    client.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut response = Vec::new();
    let mut ok = 0u64;
    for _ in 0..n {
        let t = Instant::now();
        let got = client.request_into(OP_MATCH, &opts.pattern, &mut response)?;
        hist.record(t.elapsed().as_nanos() as u64);
        ok += u64::from(got == OP_MATCH);
    }
    Ok(ok)
}

/// The telemetry subscriber: `OP_SUBSCRIBE`, then accumulate `OP_EVENTS`
/// payloads until `done` is raised and the stream idles. Returns the raw
/// accumulated bytes.
fn run_subscriber(addr: &str, done: &AtomicBool) -> std::io::Result<Vec<u8>> {
    let mut client = Client::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_millis(200)))?;
    client.send(OP_SUBSCRIBE, &[])?;
    let mut streamed = Vec::new();
    let mut chunk = Vec::new();
    loop {
        match client.recv_into(&mut chunk) {
            Ok(op) => {
                if op == OP_EVENTS {
                    streamed.extend_from_slice(&chunk);
                } else if op == OP_SUBSCRIBE {
                    // The subscription ack; nothing to keep.
                } else {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Ok(streamed)
}

/// Validate a streamed telemetry prefix: every complete line (through the
/// last `\n`) must round-trip through the JSONL parser. Returns
/// `(parsed_lines, valid)`.
pub fn validate_stream(streamed: &[u8]) -> (u64, bool) {
    if streamed.is_empty() {
        return (0, true);
    }
    let Ok(text) = std::str::from_utf8(streamed) else {
        return (0, false);
    };
    // A subscriber can disconnect mid-line; only the complete prefix must
    // parse.
    let prefix = match text.rfind('\n') {
        Some(i) => &text[..=i],
        None => return (0, true), // no complete line yet
    };
    match telemetry::export::parse_jsonl(prefix) {
        Ok(events) => (events.len() as u64, true),
        Err(_) => (0, false),
    }
}

/// Drive a full load run against a live server and write
/// `results/load.json`. Exits with an error if the subscriber's stream
/// fails validation.
pub fn run_load(opts: &LoadOptions, out: &Path) -> std::io::Result<PathBuf> {
    let report = generate(opts)?;
    eprintln!(
        "[load] {} sent, {} ok, {} errors in {:.1}s = {:.0} req/s; \
         round-trip p50 {:.1}µs p99 {:.1}µs ({} samples); streamed {} lines ({} bytes), valid={}",
        report.sent,
        report.ok,
        report.errors,
        report.elapsed_s,
        report.throughput_rps,
        report.p50_us,
        report.p99_us,
        report.latency_samples,
        report.streamed_lines,
        report.streamed_bytes,
        report.stream_valid,
    );
    let path = out.join("load.json");
    std::fs::write(&path, report.to_json().to_string_pretty() + "\n")?;
    if !report.stream_valid {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "streamed telemetry failed JSONL validation",
        ));
    }
    Ok(path)
}

/// The load run itself, returning the report (file-free; used by
/// [`run_load`], the smoke tests and the bench).
pub fn generate(opts: &LoadOptions) -> std::io::Result<LoadReport> {
    let mut report = LoadReport {
        stream_valid: true,
        ..LoadReport::default()
    };

    // Phase 1 — ping-pong latency probe (single in-flight request).
    let probe_n = 1_000.min(opts.requests / 10).max(16);
    let mut hist = LatencyHist::new();
    let probe_ok = run_latency_probe(opts, probe_n, &mut hist)?;
    report.latency_samples = hist.count();
    report.p50_us = hist.quantile(0.50) / 1_000.0;
    report.p99_us = hist.quantile(0.99) / 1_000.0;
    report.sent += probe_n;
    report.ok += probe_ok;
    report.errors += probe_n - probe_ok;

    // Phase 2 — pipelined throughput phase across workers, with the
    // optional morph schedule and telemetry subscriber alongside.
    let threads = opts.threads.max(1);
    let share = opts.requests / threads as u64;
    let morph_schedule: Vec<(u64, [u8; 2])> = if opts.drift {
        vec![
            (opts.requests / 2, [0, 1]),        // corpus → level 1 at 50%
            (opts.requests * 55 / 100, [1, 1]), // scene → level 1 at 55%
        ]
    } else {
        Vec::new()
    };
    let progress = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (worker_results, streamed) = std::thread::scope(|scope| {
        let subscriber = opts
            .subscribe
            .then(|| scope.spawn(|| run_subscriber(&opts.addr, &done)));
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let extra = if i == 0 {
                    opts.requests % threads as u64
                } else {
                    0
                };
                let schedule = if i == 0 { &morph_schedule[..] } else { &[] };
                let progress = &progress;
                scope.spawn(move || run_worker(opts, share + extra, progress, schedule))
            })
            .collect();
        let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        done.store(true, Ordering::Release);
        let streamed = subscriber.map(|s| s.join().unwrap());
        (results, streamed)
    });
    report.elapsed_s = start.elapsed().as_secs_f64();
    for r in worker_results {
        let (sent, ok, errors) = r?;
        report.sent += sent;
        report.ok += ok;
        report.errors += errors;
    }
    report.throughput_rps = if report.elapsed_s > 0.0 {
        (report.sent - probe_n) as f64 / report.elapsed_s
    } else {
        0.0
    };
    if let Some(streamed) = streamed {
        let bytes = streamed?;
        report.streamed_bytes = bytes.len() as u64;
        let (lines, valid) = validate_stream(&bytes);
        report.streamed_lines = lines;
        report.stream_valid = valid;
    }

    // Phase 3 — optional graceful shutdown.
    if opts.quit {
        let mut client = Client::connect(&opts.addr)?;
        client.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut ack = Vec::new();
        let op = client.request_into(OP_QUIT, &[], &mut ack)?;
        if op != OP_QUIT {
            report.errors += 1;
        }
    }
    Ok(report)
}

/// Quick reachability check used by the CLI before a long run: one ping.
pub fn ping(addr: &str) -> std::io::Result<()> {
    let mut client = Client::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(5)))?;
    let (op, payload) = client.request(OP_PING, b"hello")?;
    if op == OP_PING && payload == b"hello" {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "ping came back wrong",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_validation_accepts_complete_prefix() {
        use autotune::telemetry::{Event, EventKind, MeasureStatus, Traffic, WeightSet};
        let events = vec![
            Event {
                t_us: 10,
                site: 3,
                context: u32::MAX,
                kind: EventKind::Iteration {
                    iteration: 1,
                    algorithm: 0,
                    status: MeasureStatus::Ok,
                    runtime_ms: 0.5,
                    weights: WeightSet::from_slice(&[0.5, 0.5]),
                    traffic: Some(Traffic {
                        calls: 9,
                        backed_off: 7,
                        contended: 0,
                        timed: 7,
                    }),
                },
            },
            Event {
                t_us: 20,
                site: 3,
                context: u32::MAX,
                kind: EventKind::DriftDetected {
                    baseline_ms: 1.0,
                    observed_ms: 2.5,
                },
            },
        ];
        let text = telemetry::export::to_jsonl(&events);
        let (lines, valid) = validate_stream(text.as_bytes());
        assert!(valid);
        assert_eq!(lines, events.len() as u64);
        // Cut mid-line: the complete prefix still parses.
        let cut = &text.as_bytes()[..text.len() - 5];
        let (lines, valid) = validate_stream(cut);
        assert!(valid);
        assert_eq!(lines, events.len() as u64 - 1);
    }

    #[test]
    fn stream_validation_rejects_garbage() {
        let (_, valid) = validate_stream(b"{\"not\": \"an event\"}\n");
        assert!(!valid);
        let (lines, valid) = validate_stream(b"no newline yet");
        assert!(valid);
        assert_eq!(lines, 0);
    }

    #[test]
    fn morph_schedule_lands_mid_run() {
        let opts = LoadOptions {
            drift: true,
            requests: 1_000,
            ..LoadOptions::default()
        };
        assert!(opts.drift);
        // The schedule used by generate(): 50% and 55% of the run.
        assert_eq!(opts.requests / 2, 500);
        assert_eq!(opts.requests * 55 / 100, 550);
    }
}
