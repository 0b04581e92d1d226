//! `compare DIR_A DIR_B`: the runs of a parent (A) against a change (B).
//!
//! Runs pair up in the order they started, so alternated runs form the
//! pairs of the A/B rule ([`crate::stats::verdict`]).

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{
    error_verdict, median, pooled_error_rate, quartiles, verdict, worsening, Better, Counts,
    Verdict,
};
use crate::workload::Workload;
use autotune::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Minimum alternated pairs the rule asks for.
const MIN_PAIRS: usize = 10;

struct Run {
    started: f64,
    workload: String,
    metrics: BTreeMap<String, f64>,
    /// Failed and attempted operations, for untraced runs.
    counts: Option<Counts>,
}

fn load_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = doc
        .get("header")
        .ok_or(format!("{}: no header", path.display()))?;
    if header.get("quick") != Some(&Json::Bool(false)) {
        return Err(format!("{}: quick runs are never compared", path.display()));
    }
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = doc.get("metrics") {
        for (name, entry) in pairs {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or(format!("{}: no {key}", path.display()))
    };
    let counts = if header.get("trace") == Some(&Json::Bool(false)) {
        Some(Counts {
            failed: count("failed")?,
            attempted: count("attempted")?,
        })
    } else {
        None
    };
    Ok(Run {
        started: header
            .get("started_unix_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        metrics,
        counts,
    })
}

fn load_dir(dir: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        if path.extension().is_some_and(|x| x == "json") {
            runs.push(load_run(&path)?);
        }
    }
    runs.sort_by(|a, b| a.started.total_cmp(&b.started));
    Ok(runs)
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn counts(runs: &[Run], workload: &str) -> Vec<Counts> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.counts)
        .collect()
}

fn summary(xs: &[f64]) -> String {
    let (q1, m, q3) = quartiles(xs);
    format!("{m:.6} [{q1:.6}, {q3:.6}]")
}

fn row(workload: &str, metric: &str, runs: usize, a: &str, b: &str, change: f64, label: &str) {
    println!(
        "{workload:<14} {metric:<28} {runs:>4} {a:>42} {b:>42} {:>+8.2}%  {label}",
        change * 100.0
    );
}

pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: algochoice-benchmark compare DIR_A DIR_B");
        return 2;
    };
    let (runs_a, runs_b) = match (load_dir(a), load_dir(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let catalogue: Vec<MetricDef> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    println!("A = {a}\nB = {b}");
    println!(
        "{:<14} {:<28} {:>4} {:>42} {:>42} {:>9}  verdict",
        "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let mut flagged = 0;
    let mut fewest = usize::MAX;
    for w in Workload::ALL {
        for m in &catalogue {
            let (va, vb) = (
                values(&runs_a, w.name(), m.name),
                values(&runs_b, w.name(), m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            // The plain relative change of B's median against A's.
            let change = worsening(median(&va), median(&vb), Better::Lower);
            fewest = fewest.min(va.len().min(vb.len()));
            let label = match m.bound {
                Some(bound) => {
                    let v = verdict(&va, &vb, m.better, bound);
                    if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                        flagged += 1;
                    }
                    v.label()
                }
                None => "-",
            };
            let runs = va.len().min(vb.len());
            row(
                w.name(),
                m.name,
                runs,
                &summary(&va),
                &summary(&vb),
                change,
                label,
            );
        }
        // Failures over attempts, pooled over each side's runs, gated on
        // any rise.
        let (ca, cb) = (counts(&runs_a, w.name()), counts(&runs_b, w.name()));
        if ca.is_empty() || cb.is_empty() {
            continue;
        }
        let v = error_verdict(&ca, &cb);
        if v == Verdict::Worse {
            flagged += 1;
        }
        let (ra, rb) = (pooled_error_rate(&ca), pooled_error_rate(&cb));
        let change = worsening(ra, rb, Better::Lower);
        let runs = ca.len().min(cb.len());
        let pooled = |r: f64| format!("{r:.6} pooled");
        row(
            w.name(),
            "error_rate",
            runs,
            &pooled(ra),
            &pooled(rb),
            change,
            v.label(),
        );
    }
    if fewest < MIN_PAIRS {
        println!("note: the rule asks for at least {MIN_PAIRS} alternated pairs; some rows have {fewest}");
    }
    if flagged > 0 {
        println!("{flagged} gated (workload, metric) pairs are worse or unresolved");
        1
    } else {
        0
    }
}
