//! Benchmark of the tuned serving path: four workloads, end-to-end
//! metrics, and a traced per-layer ledger. See `README.md`.

mod compare;
mod embedded;
mod metrics;
mod pin;
mod round;
mod run;
mod served;
mod speed;
mod stats;
mod trace;
mod workload;

use autotune::json::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};
use workload::{Workload, EMBEDDED_THREADS};

const USAGE: &str = "\
usage: algochoice-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                            [--quick] [--out DIR]
       algochoice-benchmark compare DIR_A DIR_B

Without --workload, every workload runs in a child process of its own.
Workloads: sort-small, match, match-drift, sort-embedded.
--seconds S  start fixed-work rounds until S seconds have passed (default 25)
--trace 1    report the per-layer metrics instead of the end-to-end ones
--quick      divide every request count by 10; smoke runs only, never compared
--out DIR    result files go here (default: benchmark/out)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    /// Set in the child processes a run starts: the round to run.
    round: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25,
        trace: false,
        quick: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        round: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds takes a positive whole number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--round" => {
                args.round = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--round takes a whole number")?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&argv[1..]));
    }
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match (args.workload, args.round) {
        (Some(w), Some(round)) => match round::child(w, args.seed, round, args.quick) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("{} round {round}: {e}", w.name());
                1
            }
        },
        (Some(w), None) => run_one(w, &args),
        (None, _) => run_all(&args),
    };
    std::process::exit(code);
}

fn unix_ms() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_millis() as f64)
}

/// The commit the benchmark was built from, when built in a git checkout.
fn commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["-C", root, "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every result file carries; `rounds` is how many the run
/// made (a traced run makes its passes in one process).
fn header(w: Workload, args: &Args, started_ms: f64, rounds: u64) -> Json {
    let phases = if args.trace {
        w.traced(args.seconds, args.quick)
    } else {
        w.round(args.quick)
    };
    let counted = if w.served() {
        "requests"
    } else {
        "calls per thread"
    };
    Json::obj(vec![
        ("bench", Json::Str("algochoice-benchmark".into())),
        ("commit", Json::Str(commit())),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("quick", Json::Bool(args.quick)),
        (
            "timer_resolution_ms",
            Json::Num(autotune::robust::timer_resolution_ms()),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("started_unix_ms", Json::Num(started_ms)),
        (
            "phases",
            Json::obj(vec![
                ("counted", Json::Str(counted.into())),
                ("rounds", Json::Num(rounds as f64)),
                ("warmup", Json::Num(phases.warmup as f64)),
                ("windows", Json::Num(phases.windows as f64)),
                ("window", Json::Num(phases.window as f64)),
                ("sub_window", Json::Num(phases.sub() as f64)),
                ("latency", Json::Num(phases.latency as f64)),
                (
                    "threads",
                    Json::Num(if w.served() { 1 } else { EMBEDDED_THREADS } as f64),
                ),
            ]),
        ),
    ])
}

/// Run one workload in this process. Prints one line per metric, then the
/// result object as the last line; writes the result file.
fn run_one(w: Workload, args: &Args) -> i32 {
    let started_ms = unix_ms();
    let result = match run::measure(w, args.seed, args.seconds, args.quick, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            return 1;
        }
    };
    let failed = result.failures.count;
    let correct = failed == 0;
    let error_rate = failed as f64 / result.attempted.max(1) as f64;
    for (m, v) in &result.metrics {
        println!("{} {} {} {}", w.name(), m.name, v, m.unit);
    }
    println!("{} error_rate {error_rate} fraction", w.name());
    for m in &result.failures.first {
        eprintln!("{}: FAILED {m}", w.name());
    }

    let metrics = Json::Obj(
        result
            .metrics
            .iter()
            .map(|(m, v)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(*v)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    );
    let counts = vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ];
    let mut file = vec![
        ("header", header(w, args, started_ms, result.rounds)),
        ("workload", Json::Str(w.name().into())),
        ("error_rate", Json::Num(error_rate)),
        (
            "failures",
            Json::Arr(
                result
                    .failures
                    .first
                    .iter()
                    .map(|m| Json::Str(m.clone()))
                    .collect(),
            ),
        ),
        ("extra", Json::obj(result.extra)),
    ];
    file.extend(counts.iter().cloned());
    let name = format!(
        "{started_ms}-{}-seed{}{}.json",
        w.name(),
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let written = std::fs::create_dir_all(&args.out).and_then(|_| {
        std::fs::write(
            args.out.join(name),
            Json::obj(file).to_string_pretty() + "\n",
        )
    });
    if let Err(e) = written {
        eprintln!(
            "{}: result file not written to {}: {e}",
            w.name(),
            args.out.display()
        );
    }
    println!("{}", Json::obj(counts));
    if correct {
        0
    } else {
        1
    }
}

/// Run every workload, each in a fresh child process: the site registry
/// and the telemetry ring are process-global.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.quick {
            cmd.arg("--quick");
        }
        match cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output() {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                for line in text.lines().filter(|l| !l.starts_with('{')) {
                    println!("{line}");
                }
                if !out.status.success() {
                    eprintln!("{}: {}", w.name(), out.status);
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                code = 1;
            }
        }
    }
    code
}
