//! Trace exporters: JSONL and Chrome `trace_event` JSON.
//!
//! This module is the single encode/decode point of the trace schema:
//!
//! * **JSONL** — one flat JSON object per line, keyed by a kebab-case
//!   `"kind"` tag, written by [`append_event_jsonl`] and read back by
//!   [`event_from_json`]. A run log starts with one `"run-meta"` line
//!   ([`RunMeta`]) describing the run, followed by one line per
//!   [`Event`]. Every event round-trips losslessly (a non-finite value
//!   comes back as `NaN`).
//! * **Chrome trace** — a `{"traceEvents": [...]}` document loadable in
//!   Perfetto or `chrome://tracing`: workload spans become `B`/`E`
//!   duration events, queue depths and each iteration's phase-2 weights
//!   and site traffic become `C` counter tracks, everything else becomes
//!   instant events.

use super::{Event, EventKind, MeasureStatus, SpanKind, Traffic, WeightSet, NO_CONTEXT, NO_SITE};
use crate::json::{Json, JsonError};

fn semantic_err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
        offset: 0,
    })
}

fn get_f64(j: &Json, key: &str) -> Result<f64, JsonError> {
    match j.get(key) {
        // The writer renders a non-finite value (a failed call's runtime)
        // as `null`.
        Some(Json::Null) => Ok(f64::NAN),
        Some(v) => v.as_f64().ok_or(()),
        None => Err(()),
    }
    .or_else(|_| semantic_err(format!("missing or non-numeric field '{key}'")))
}

fn get_u64(j: &Json, key: &str) -> Result<u64, JsonError> {
    let v = get_f64(j, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return semantic_err(format!("field '{key}' is not a non-negative integer"));
    }
    Ok(v as u64)
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, JsonError> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or(())
        .or_else(|_| semantic_err(format!("missing or non-string field '{key}'")))
}

/// Append one event as a compact JSONL line (including the trailing
/// newline) to a caller-owned buffer. No `Json` tree is built, so
/// repeatedly draining a live recorder into one reused `String` (see
/// [`crate::telemetry::Recorder::drain_jsonl_into`]) costs no per-event
/// allocations.
///
/// Events recorded inside a tuning-site scope carry a `"site"` field and
/// events recorded inside a context scope carry a `"context"` field;
/// untagged events ([`NO_SITE`] / [`NO_CONTEXT`]) omit them, as an
/// iteration record without [`Traffic`] omits its four counters.
pub fn append_event_jsonl(event: &Event, out: &mut String) {
    use crate::json::{write_escaped, write_number};

    fn key(out: &mut String, k: &str) {
        out.push(',');
        write_escaped(out, k);
        out.push(':');
    }
    fn num(out: &mut String, k: &str, v: f64) {
        key(out, k);
        write_number(out, v);
    }
    fn str_field(out: &mut String, k: &str, v: &str) {
        key(out, k);
        write_escaped(out, v);
    }

    out.push_str("{\"t_us\":");
    write_number(out, event.t_us as f64);
    if event.site != NO_SITE {
        num(out, "site", event.site as f64);
    }
    if event.context != NO_CONTEXT {
        num(out, "context", event.context as f64);
    }
    match &event.kind {
        EventKind::Iteration {
            iteration,
            algorithm,
            status,
            runtime_ms,
            weights,
            traffic,
        } => {
            str_field(out, "kind", "iteration");
            num(out, "iteration", *iteration as f64);
            num(out, "algorithm", *algorithm as f64);
            str_field(out, "status", status.label());
            num(out, "runtime_ms", *runtime_ms);
            key(out, "weights");
            out.push('[');
            for (i, w) in weights.as_slice().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_number(out, *w as f64);
            }
            out.push(']');
            if let Some(t) = traffic {
                num(out, "calls", t.calls as f64);
                num(out, "backed_off", t.backed_off as f64);
                num(out, "contended", t.contended as f64);
                num(out, "timed", t.timed as f64);
            }
        }
        EventKind::MeasureOutcome {
            algorithm,
            status,
            runtime_ms,
        } => {
            str_field(out, "kind", "measure-outcome");
            num(out, "algorithm", *algorithm as f64);
            str_field(out, "status", status.label());
            num(out, "runtime_ms", *runtime_ms);
        }
        EventKind::PenaltyApplied {
            algorithm,
            penalty_ms,
        } => {
            str_field(out, "kind", "penalty-applied");
            num(out, "algorithm", *algorithm as f64);
            num(out, "penalty_ms", *penalty_ms);
        }
        EventKind::SpanBegin { span } => {
            str_field(out, "kind", "span-begin");
            str_field(out, "span", span.label());
        }
        EventKind::SpanEnd { span } => {
            str_field(out, "kind", "span-end");
            str_field(out, "span", span.label());
        }
        EventKind::QueueDepth { depth, workers } => {
            str_field(out, "kind", "queue-depth");
            num(out, "depth", *depth as f64);
            num(out, "workers", *workers as f64);
        }
        EventKind::DriftDetected {
            baseline_ms,
            observed_ms,
        } => {
            str_field(out, "kind", "drift-detected");
            num(out, "baseline_ms", *baseline_ms);
            num(out, "observed_ms", *observed_ms);
        }
    }
    out.push_str("}\n");
}

/// Parse one event back from its [`append_event_jsonl`] line.
pub fn event_from_json(j: &Json) -> Result<Event, JsonError> {
    let t_us = get_u64(j, "t_us")?;
    let site = match j.get("site") {
        Some(_) => {
            let s = get_u64(j, "site")?;
            if s >= NO_SITE as u64 {
                return semantic_err(format!("site {s} out of range"));
            }
            s as u16
        }
        None => NO_SITE,
    };
    let context = match j.get("context") {
        Some(_) => {
            let c = get_u64(j, "context")?;
            if c >= NO_CONTEXT as u64 {
                return semantic_err(format!("context {c} out of range"));
            }
            c as u32
        }
        None => NO_CONTEXT,
    };
    let status = || {
        MeasureStatus::from_label(get_str(j, "status")?)
            .ok_or(())
            .or_else(|_| semantic_err("unknown measure status"))
    };
    let span = || {
        SpanKind::from_label(get_str(j, "span")?)
            .ok_or(())
            .or_else(|_| semantic_err("unknown span kind"))
    };
    let kind = match get_str(j, "kind")? {
        "iteration" => {
            let arr = j
                .get("weights")
                .and_then(Json::as_arr)
                .ok_or(())
                .or_else(|_| semantic_err("missing or non-array field 'weights'"))?;
            let mut weights: Vec<f64> = Vec::with_capacity(arr.len());
            for w in arr {
                weights.push(
                    w.as_f64()
                        .ok_or(())
                        .or_else(|_| semantic_err("non-numeric weight"))?,
                );
            }
            let traffic = match j.get("calls") {
                Some(_) => Some(Traffic {
                    calls: get_u64(j, "calls")?,
                    backed_off: get_u64(j, "backed_off")?,
                    contended: get_u64(j, "contended")?,
                    timed: get_u64(j, "timed")?,
                }),
                None => None,
            };
            EventKind::Iteration {
                iteration: get_u64(j, "iteration")?,
                algorithm: get_u64(j, "algorithm")? as u16,
                status: status()?,
                runtime_ms: get_f64(j, "runtime_ms")?,
                weights: WeightSet::from_slice(&weights),
                traffic,
            }
        }
        "measure-outcome" => EventKind::MeasureOutcome {
            algorithm: get_u64(j, "algorithm")? as u16,
            status: status()?,
            runtime_ms: get_f64(j, "runtime_ms")?,
        },
        "penalty-applied" => EventKind::PenaltyApplied {
            algorithm: get_u64(j, "algorithm")? as u16,
            penalty_ms: get_f64(j, "penalty_ms")?,
        },
        "span-begin" => EventKind::SpanBegin { span: span()? },
        "span-end" => EventKind::SpanEnd { span: span()? },
        "queue-depth" => EventKind::QueueDepth {
            depth: get_u64(j, "depth")? as u32,
            workers: get_u64(j, "workers")? as u32,
        },
        "drift-detected" => EventKind::DriftDetected {
            baseline_ms: get_f64(j, "baseline_ms")?,
            observed_ms: get_f64(j, "observed_ms")?,
        },
        other => return semantic_err(format!("unknown event kind '{other}'")),
    };
    Ok(Event {
        t_us,
        site,
        context,
        kind,
    })
}

/// Serialize events as JSONL: one compact JSON object per line
/// (the batch wrapper around [`append_event_jsonl`]).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        append_event_jsonl(e, &mut out);
    }
    out
}

/// Parse a JSONL document of events (no [`RunMeta`] line); blank lines
/// are skipped.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, JsonError> {
    let mut events = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(event_from_json(&Json::parse(line)?)?);
    }
    Ok(events)
}

/// Metadata header for a recorded run: the first line of a run-log JSONL
/// file, tagged `"kind": "run-meta"`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Which case study produced the run (e.g. `"cs1"`).
    pub case_study: String,
    /// Phase-2 strategy label (e.g. `"e-greedy(10%)"`).
    pub strategy: String,
    /// Algorithm names, indexed by the `algorithm` field of events.
    pub algorithms: Vec<String>,
    /// Tuning iterations the run was configured for.
    pub iterations: u64,
}

impl RunMeta {
    /// Serialize as the `"run-meta"` header object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("run-meta".into())),
            ("case_study", Json::Str(self.case_study.clone())),
            ("strategy", Json::Str(self.strategy.clone())),
            (
                "algorithms",
                Json::Arr(
                    self.algorithms
                        .iter()
                        .map(|a| Json::Str(a.clone()))
                        .collect(),
                ),
            ),
            ("iterations", Json::Num(self.iterations as f64)),
        ])
    }

    /// Parse a `"run-meta"` header object.
    pub fn from_json(j: &Json) -> Result<Self, JsonError> {
        if get_str(j, "kind")? != "run-meta" {
            return semantic_err("not a run-meta object");
        }
        let arr = j
            .get("algorithms")
            .and_then(Json::as_arr)
            .ok_or(())
            .or_else(|_| semantic_err("missing or non-array field 'algorithms'"))?;
        let mut algorithms = Vec::with_capacity(arr.len());
        for a in arr {
            algorithms.push(
                a.as_str()
                    .ok_or(())
                    .or_else(|_| semantic_err("non-string algorithm name"))?
                    .to_string(),
            );
        }
        Ok(Self {
            case_study: get_str(j, "case_study")?.to_string(),
            strategy: get_str(j, "strategy")?.to_string(),
            algorithms,
            iterations: get_u64(j, "iterations")?,
        })
    }
}

/// A parsed run log: optional metadata header plus the event stream.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLog {
    /// The `"run-meta"` header, if the file had one.
    pub meta: Option<RunMeta>,
    /// All events, in recorded order.
    pub events: Vec<Event>,
}

/// Serialize a complete run log: one `"run-meta"` line, then one line
/// per event.
pub fn write_run_log(meta: &RunMeta, events: &[Event]) -> String {
    let mut out = meta.to_json().to_string();
    out.push('\n');
    out.push_str(&to_jsonl(events));
    out
}

/// Parse a run-log JSONL document. A leading `"run-meta"` line becomes
/// [`RunLog::meta`]; every other non-blank line must be an event.
pub fn parse_run_log(text: &str) -> Result<RunLog, JsonError> {
    let mut meta = None;
    let mut events = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let j = Json::parse(line)?;
        if j.get("kind").and_then(Json::as_str) == Some("run-meta") {
            meta = Some(RunMeta::from_json(&j)?);
        } else {
            events.push(event_from_json(&j)?);
        }
    }
    Ok(RunLog { meta, events })
}

fn trace_row(name: &str, ph: &str, ts_us: f64, tid: f64, args: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(name.into())),
        ("ph", Json::Str(ph.into())),
        ("ts", Json::Num(ts_us)),
        ("pid", Json::Num(1.0)),
        ("tid", Json::Num(tid)),
    ];
    if !args.is_empty() {
        pairs.push(("args", Json::obj(args)));
    }
    Json::obj(pairs)
}

/// Convert an event stream to Chrome `trace_event` JSON, loadable in
/// Perfetto or `chrome://tracing`.
///
/// Workload spans map to `B`/`E` duration events; [`EventKind::QueueDepth`]
/// and each iteration record's phase-2 weights and site [`Traffic`] map to
/// `C` counter tracks (so queue depth, weight evolution and site traffic
/// plot as graphs); every event also maps to an instant event carrying its
/// scalar payload in `args`, spans and queue depths aside.
pub fn chrome_trace(events: &[Event]) -> Json {
    let mut rows = Vec::with_capacity(events.len() + 1);
    rows.push(trace_row(
        "process_name",
        "M",
        0.0,
        1.0,
        vec![("name", Json::Str("autotune".into()))],
    ));
    for e in events {
        let ts = e.t_us as f64;
        // Each tuning site gets its own Perfetto track; untagged events
        // (single-tuner runs) stay on track 1.
        let tid = if e.site == NO_SITE {
            1.0
        } else {
            e.site as f64 + 2.0
        };
        match &e.kind {
            EventKind::Iteration {
                iteration,
                algorithm,
                status,
                runtime_ms,
                weights,
                traffic,
            } => {
                rows.push(trace_row(
                    "iteration",
                    "i",
                    ts,
                    tid,
                    vec![
                        ("iteration", Json::Num(*iteration as f64)),
                        ("algorithm", Json::Num(*algorithm as f64)),
                        ("status", Json::Str(status.label().into())),
                        ("runtime_ms", Json::Num(*runtime_ms)),
                    ],
                ));
                let args: Vec<(String, Json)> = weights
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (format!("alg{i}"), Json::Num(*w as f64)))
                    .collect();
                if !args.is_empty() {
                    rows.push(Json::Obj(vec![
                        ("name".into(), Json::Str("weights".into())),
                        ("ph".into(), Json::Str("C".into())),
                        ("ts".into(), Json::Num(ts)),
                        ("pid".into(), Json::Num(1.0)),
                        ("tid".into(), Json::Num(tid)),
                        ("args".into(), Json::Obj(args)),
                    ]));
                }
                if let Some(t) = traffic {
                    rows.push(trace_row(
                        "site-traffic",
                        "C",
                        ts,
                        tid,
                        vec![
                            ("calls", Json::Num(t.calls as f64)),
                            ("backed_off", Json::Num(t.backed_off as f64)),
                            ("contended", Json::Num(t.contended as f64)),
                            ("timed", Json::Num(t.timed as f64)),
                        ],
                    ));
                }
            }
            EventKind::MeasureOutcome {
                algorithm,
                status,
                runtime_ms,
            } => rows.push(trace_row(
                "measure",
                "i",
                ts,
                tid,
                vec![
                    ("algorithm", Json::Num(*algorithm as f64)),
                    ("status", Json::Str(status.label().into())),
                    ("runtime_ms", Json::Num(*runtime_ms)),
                ],
            )),
            EventKind::PenaltyApplied {
                algorithm,
                penalty_ms,
            } => rows.push(trace_row(
                "penalty",
                "i",
                ts,
                tid,
                vec![
                    ("algorithm", Json::Num(*algorithm as f64)),
                    ("penalty_ms", Json::Num(*penalty_ms)),
                ],
            )),
            EventKind::SpanBegin { span } => {
                rows.push(trace_row(span.label(), "B", ts, tid, vec![]));
            }
            EventKind::SpanEnd { span } => {
                rows.push(trace_row(span.label(), "E", ts, tid, vec![]));
            }
            EventKind::QueueDepth { depth, workers } => rows.push(trace_row(
                "queue-depth",
                "C",
                ts,
                tid,
                vec![
                    ("depth", Json::Num(*depth as f64)),
                    ("workers", Json::Num(*workers as f64)),
                ],
            )),
            EventKind::DriftDetected {
                baseline_ms,
                observed_ms,
            } => rows.push(trace_row(
                "drift",
                "i",
                ts,
                tid,
                vec![
                    ("baseline_ms", Json::Num(*baseline_ms)),
                    ("observed_ms", Json::Num(*observed_ms)),
                ],
            )),
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(rows)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let iteration = |status, traffic| EventKind::Iteration {
            iteration: 3,
            algorithm: 1,
            status,
            runtime_ms: 0.0831,
            weights: WeightSet::from_slice(&[0.25, 0.75]),
            traffic,
        };
        let traffic = Traffic {
            calls: 4096,
            backed_off: 3969,
            contended: 62,
            timed: 126,
        };
        vec![
            Event::untagged(
                7,
                EventKind::SpanBegin {
                    span: SpanKind::Search,
                },
            ),
            Event::untagged(
                90,
                EventKind::SpanEnd {
                    span: SpanKind::Search,
                },
            ),
            Event::untagged(95, iteration(MeasureStatus::Ok, None)),
            Event::untagged(
                96,
                EventKind::PenaltyApplied {
                    algorithm: u16::MAX,
                    penalty_ms: 0.0,
                },
            ),
            Event {
                t_us: 99,
                site: NO_SITE,
                context: 9,
                kind: EventKind::QueueDepth {
                    depth: 3,
                    workers: 8,
                },
            },
            Event {
                t_us: 103,
                site: 7,
                context: 3,
                kind: iteration(MeasureStatus::TimedOut, Some(traffic)),
            },
            Event {
                t_us: 104,
                site: 7,
                context: NO_CONTEXT,
                kind: EventKind::MeasureOutcome {
                    algorithm: 0,
                    status: MeasureStatus::Ok,
                    runtime_ms: 2.5,
                },
            },
            Event {
                t_us: 105,
                site: 7,
                context: 3,
                kind: EventKind::DriftDetected {
                    baseline_ms: 0.5,
                    observed_ms: 1.375,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let parsed = parse_jsonl(&text).expect("parse back");
        assert_eq!(parsed, events);
    }

    #[test]
    fn run_log_round_trips_with_meta() {
        let meta = RunMeta {
            case_study: "cs1".into(),
            strategy: "e-greedy(10%)".into(),
            algorithms: vec!["naive".into(), "boyer-moore".into()],
            iterations: 600,
        };
        let events = sample_events();
        let text = write_run_log(&meta, &events);
        let log = parse_run_log(&text).expect("parse back");
        assert_eq!(log.meta.as_ref(), Some(&meta));
        assert_eq!(log.events, events);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let doc = chrome_trace(&sample_events());
        let rows = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // metadata row + at least one row per event
        assert!(rows.len() > sample_events().len());
        for row in rows {
            assert!(row.get("ph").and_then(Json::as_str).is_some());
            assert!(row.get("ts").and_then(Json::as_f64).is_some());
            assert!(row.get("pid").is_some() && row.get("tid").is_some());
        }
        // Spans come as balanced B/E pairs.
        let b = rows
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some("B"))
            .count();
        let e = rows
            .iter()
            .filter(|r| r.get("ph").and_then(Json::as_str) == Some("E"))
            .count();
        assert_eq!(b, e);
        // Round-trips through the parser (valid JSON).
        let reparsed = Json::parse(&doc.to_string()).expect("valid JSON");
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn parse_rejects_unknown_kind() {
        assert!(parse_jsonl("{\"t_us\":0,\"kind\":\"bogus\"}").is_err());
        assert!(parse_jsonl("{\"t_us\":0,\"kind\":\"site-traffic\"}").is_err());
    }

    #[test]
    fn a_failed_calls_nan_runtime_round_trips() {
        let failed = Event::untagged(
            1,
            EventKind::MeasureOutcome {
                algorithm: 0,
                status: MeasureStatus::Failed,
                runtime_ms: f64::NAN,
            },
        );
        let parsed = parse_jsonl(&to_jsonl(&[failed])).expect("parse back");
        match parsed[..] {
            [Event {
                kind: EventKind::MeasureOutcome { runtime_ms, .. },
                ..
            }] => assert!(runtime_ms.is_nan()),
            _ => panic!("{parsed:?}"),
        }
    }
}
