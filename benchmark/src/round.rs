//! End-to-end rounds. A run is rounds in turn, each a fresh child process
//! that sets the workload's program up, answers a first request, then
//! runs the warm-up, throughput and latency phases. Every round does the
//! same, fixed work; rounds start until `--seconds` have passed, so a run
//! lasts about that long however fast the host is. The parent times each
//! child from its start to its first answered request (`setup_s`) and
//! pools what the rounds measured.
//!
//! Rounds are processes because the program samples its timer resolution
//! once per process and sizes every batched tuning measurement by it, and
//! because its tuners' early choices differ from process to process: one
//! process's throughput can sit 20% off another's. Pooling dozens of short
//! processes averages that out.

use crate::run::{nums, E2e};
use crate::served::Failures;
use crate::workload::{round_seed, Corpora, Workload, MIN_ROUNDS, QUICK_ROUNDS};
use autotune::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The line a round prints once its first request is answered.
const ANSWERED: &str = "answered";

/// What one round measured.
pub struct RoundOut {
    pub setup_s: f64,
    pub warmup_s: f64,
    pub window_rates: Vec<f64>,
    pub scaled_rates: Vec<f64>,
    pub latency_us: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    pub peak_rss_mb: f64,
    pub timer_resolution_ms: f64,
    /// Drift restarts of the round's sites.
    pub restarts: f64,
}

/// Peak resident set of this process so far, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num_list(doc: &Json, key: &str) -> Vec<f64> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// The child side: run round `round` and print its result as the last
/// line of standard output.
pub fn child(w: Workload, seed: u64, round: u64, quick: bool) -> Result<(), String> {
    let corpora = Corpora::default();
    let announce = || {
        println!("{ANSWERED}");
        let _ = std::io::stdout().flush();
    };
    let mut e2e = E2e::measure(
        w,
        w.round(quick),
        round_seed(seed, round),
        &corpora,
        Some(&announce),
    )?;
    let (attempted, failures) = e2e.outcome();
    let doc = Json::obj(vec![
        ("restarts", Json::Num(e2e.sites().restarts as f64)),
        ("warmup_s", Json::Num(e2e.warmup_s())),
        ("window_rates", nums(e2e.window_rates().to_vec())),
        ("scaled_rates", nums(e2e.scaled_rates().to_vec())),
        ("latency_us", nums(e2e.latency_us().iter().copied())),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failures.count as f64)),
        (
            "failures",
            Json::Arr(failures.first.into_iter().map(Json::Str).collect()),
        ),
        ("peak_rss_mb", Json::Num(peak_rss_mb())),
        (
            "timer_resolution_ms",
            Json::Num(autotune::robust::timer_resolution_ms()),
        ),
    ]);
    println!("{doc}");
    Ok(())
}

/// The parent side: every round of the run, one child after another:
/// [`MIN_ROUNDS`], then more until `seconds` have passed since the first
/// started; [`QUICK_ROUNDS`] with `quick`.
pub fn run_rounds(
    w: Workload,
    seed: u64,
    seconds: u64,
    quick: bool,
) -> Result<Vec<RoundOut>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rounds = Vec::new();
    loop {
        let round = rounds.len() as u64;
        let more = if quick {
            round < QUICK_ROUNDS
        } else {
            round < MIN_ROUNDS || Instant::now() < deadline
        };
        if !more {
            return Ok(rounds);
        }
        let mut cmd = Command::new(&exe);
        cmd.args(["--round", &round.to_string(), "--workload", w.name()])
            .args(["--seed", &seed.to_string()]);
        if quick {
            cmd.arg("--quick");
        }
        let t0 = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start round {round}: {e}"))?;
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let first = lines.next();
        let setup_s = t0.elapsed().as_secs_f64();
        let last = lines.map_while(Result::ok).last();
        let status = child
            .wait()
            .map_err(|e| format!("wait for round {round}: {e}"))?;
        let doc = match (first, last) {
            (Some(Ok(line)), Some(last)) if line == ANSWERED && status.success() => {
                Json::parse(&last).map_err(|e| format!("round {round}: {e}"))?
            }
            _ => return Err(format!("round {round} failed ({status})")),
        };
        let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let mut failures = Failures::default();
        for m in doc.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            failures.record(m.as_str().unwrap_or("").to_string());
        }
        failures.count = num("failed") as u64;
        rounds.push(RoundOut {
            setup_s,
            warmup_s: num("warmup_s"),
            window_rates: num_list(&doc, "window_rates"),
            scaled_rates: num_list(&doc, "scaled_rates"),
            latency_us: num_list(&doc, "latency_us"),
            attempted: num("attempted") as u64,
            failures,
            peak_rss_mb: num("peak_rss_mb"),
            timer_resolution_ms: num("timer_resolution_ms"),
            restarts: num("restarts"),
        });
    }
}
