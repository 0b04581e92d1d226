//! Trace exporters: JSONL and Chrome `trace_event` JSON.
//!
//! Both formats are produced with the in-repo [`crate::json`] module:
//!
//! * **JSONL** — one flat JSON object per line, keyed by a kebab-case
//!   `"kind"` tag. A run log starts with one `"run-meta"` line
//!   ([`RunMeta`]) describing the run, followed by one line per
//!   [`Event`]. Every event round-trips losslessly:
//!   [`event_from_json`]`(`[`event_to_json`]`(e)) == e`.
//! * **Chrome trace** — a `{"traceEvents": [...]}` document loadable in
//!   Perfetto or `chrome://tracing`: workload spans become `B`/`E`
//!   duration events, queue depths, phase-2 weights and site traffic
//!   become `C` counter tracks, everything else becomes instant events.

use super::{Event, EventKind, MeasureStatus, SimplexOp, SpanKind, WeightSet, NO_CONTEXT, NO_SITE};
use crate::json::{Json, JsonError};

fn semantic_err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
        offset: 0,
    })
}

fn get_f64(j: &Json, key: &str) -> Result<f64, JsonError> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or(())
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

/// Serialize one event as a flat JSON object (one JSONL line).
///
/// Events recorded inside a tuning-site scope carry a `"site"` field and
/// events recorded inside a context scope carry a `"context"` field;
/// untagged events ([`NO_SITE`] / [`NO_CONTEXT`]) omit them, keeping
/// single-tuner trace files byte-compatible with the pre-site schema.
pub fn event_to_json(event: &Event) -> Json {
    let mut j = event_kind_to_json(event);
    if let Json::Obj(pairs) = &mut j {
        // Keep `site` then `context` right after `t_us` so lines stay
        // human-scannable.
        let mut at = 1;
        if event.site != NO_SITE {
            pairs.insert(at, ("site".into(), Json::Num(event.site as f64)));
            at += 1;
        }
        if event.context != NO_CONTEXT {
            pairs.insert(at, ("context".into(), Json::Num(event.context as f64)));
        }
    }
    j
}

fn event_kind_to_json(event: &Event) -> Json {
    let t = ("t_us", Json::Num(event.t_us as f64));
    match &event.kind {
        EventKind::IterationStart { iteration } => Json::obj(vec![
            t,
            ("kind", Json::Str("iteration-start".into())),
            ("iteration", Json::Num(*iteration as f64)),
        ]),
        EventKind::AlgorithmSelected { algorithm, weights } => {
            let w = weights
                .as_slice()
                .iter()
                .map(|v| Json::Num(*v as f64))
                .collect();
            Json::obj(vec![
                t,
                ("kind", Json::Str("algorithm-selected".into())),
                ("algorithm", Json::Num(*algorithm as f64)),
                ("weights", Json::Arr(w)),
            ])
        }
        EventKind::Phase1Step { op } => Json::obj(vec![
            t,
            ("kind", Json::Str("phase1-step".into())),
            ("op", Json::Str(op.label().into())),
        ]),
        EventKind::MeasureOutcome {
            algorithm,
            status,
            runtime_ms,
        } => Json::obj(vec![
            t,
            ("kind", Json::Str("measure-outcome".into())),
            ("algorithm", Json::Num(*algorithm as f64)),
            ("status", Json::Str(status.label().into())),
            ("runtime_ms", Json::Num(*runtime_ms)),
        ]),
        EventKind::PenaltyApplied {
            algorithm,
            penalty_ms,
        } => Json::obj(vec![
            t,
            ("kind", Json::Str("penalty-applied".into())),
            ("algorithm", Json::Num(*algorithm as f64)),
            ("penalty_ms", Json::Num(*penalty_ms)),
        ]),
        EventKind::WindowEvicted {
            algorithm,
            evicted_sample,
        } => Json::obj(vec![
            t,
            ("kind", Json::Str("window-evicted".into())),
            ("algorithm", Json::Num(*algorithm as f64)),
            ("evicted_sample", Json::Num(*evicted_sample as f64)),
        ]),
        EventKind::SpanBegin { span } => Json::obj(vec![
            t,
            ("kind", Json::Str("span-begin".into())),
            ("span", Json::Str(span.label().into())),
        ]),
        EventKind::SpanEnd { span } => Json::obj(vec![
            t,
            ("kind", Json::Str("span-end".into())),
            ("span", Json::Str(span.label().into())),
        ]),
        EventKind::QueueDepth { depth, workers } => Json::obj(vec![
            t,
            ("kind", Json::Str("queue-depth".into())),
            ("depth", Json::Num(*depth as f64)),
            ("workers", Json::Num(*workers as f64)),
        ]),
        EventKind::SiteTraffic {
            calls,
            backed_off,
            contended,
            timed,
        } => Json::obj(vec![
            t,
            ("kind", Json::Str("site-traffic".into())),
            ("calls", Json::Num(*calls as f64)),
            ("backed_off", Json::Num(*backed_off as f64)),
            ("contended", Json::Num(*contended as f64)),
            ("timed", Json::Num(*timed as f64)),
        ]),
        EventKind::DriftDetected {
            baseline_ms,
            observed_ms,
        } => Json::obj(vec![
            t,
            ("kind", Json::Str("drift-detected".into())),
            ("baseline_ms", Json::Num(*baseline_ms)),
            ("observed_ms", Json::Num(*observed_ms)),
        ]),
    }
}

/// Append one event as a compact JSONL line (including the trailing
/// newline) directly into a caller-owned buffer.
///
/// This is the incremental, allocation-free flavor of [`event_to_json`]:
/// no `Json` tree is built, so repeatedly draining a live recorder into a
/// single reused `String` (see
/// [`crate::telemetry::Recorder::drain_jsonl_into`]) costs no per-event
/// allocations. The rendering is byte-identical to
/// `event_to_json(event).to_string() + "\n"` — pinned by a test so the
/// streamed and the batch-exported JSONL schemas can never diverge.
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
        EventKind::IterationStart { iteration } => {
            str_field(out, "kind", "iteration-start");
            num(out, "iteration", *iteration as f64);
        }
        EventKind::AlgorithmSelected { algorithm, weights } => {
            str_field(out, "kind", "algorithm-selected");
            num(out, "algorithm", *algorithm as f64);
            key(out, "weights");
            out.push('[');
            for (i, w) in weights.as_slice().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_number(out, *w as f64);
            }
            out.push(']');
        }
        EventKind::Phase1Step { op } => {
            str_field(out, "kind", "phase1-step");
            str_field(out, "op", op.label());
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
        EventKind::WindowEvicted {
            algorithm,
            evicted_sample,
        } => {
            str_field(out, "kind", "window-evicted");
            num(out, "algorithm", *algorithm as f64);
            num(out, "evicted_sample", *evicted_sample as f64);
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
        EventKind::SiteTraffic {
            calls,
            backed_off,
            contended,
            timed,
        } => {
            str_field(out, "kind", "site-traffic");
            num(out, "calls", *calls as f64);
            num(out, "backed_off", *backed_off as f64);
            num(out, "contended", *contended as f64);
            num(out, "timed", *timed as f64);
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

/// Parse one event back from its [`event_to_json`] representation.
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
    let kind = match get_str(j, "kind")? {
        "iteration-start" => EventKind::IterationStart {
            iteration: get_u64(j, "iteration")?,
        },
        "algorithm-selected" => {
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
            EventKind::AlgorithmSelected {
                algorithm: get_u64(j, "algorithm")? as u16,
                weights: WeightSet::from_slice(&weights),
            }
        }
        "phase1-step" => EventKind::Phase1Step {
            op: SimplexOp::from_label(get_str(j, "op")?)
                .ok_or(())
                .or_else(|_| semantic_err("unknown simplex op"))?,
        },
        "measure-outcome" => EventKind::MeasureOutcome {
            algorithm: get_u64(j, "algorithm")? as u16,
            status: MeasureStatus::from_label(get_str(j, "status")?)
                .ok_or(())
                .or_else(|_| semantic_err("unknown measure status"))?,
            runtime_ms: get_f64(j, "runtime_ms")?,
        },
        "penalty-applied" => EventKind::PenaltyApplied {
            algorithm: get_u64(j, "algorithm")? as u16,
            penalty_ms: get_f64(j, "penalty_ms")?,
        },
        "window-evicted" => EventKind::WindowEvicted {
            algorithm: get_u64(j, "algorithm")? as u16,
            evicted_sample: get_u64(j, "evicted_sample")?,
        },
        "span-begin" => EventKind::SpanBegin {
            span: SpanKind::from_label(get_str(j, "span")?)
                .ok_or(())
                .or_else(|_| semantic_err("unknown span kind"))?,
        },
        "span-end" => EventKind::SpanEnd {
            span: SpanKind::from_label(get_str(j, "span")?)
                .ok_or(())
                .or_else(|_| semantic_err("unknown span kind"))?,
        },
        "queue-depth" => EventKind::QueueDepth {
            depth: get_u64(j, "depth")? as u32,
            workers: get_u64(j, "workers")? as u32,
        },
        "site-traffic" => EventKind::SiteTraffic {
            calls: get_u64(j, "calls")?,
            backed_off: get_u64(j, "backed_off")?,
            contended: get_u64(j, "contended")?,
            timed: get_u64(j, "timed")?,
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
/// Workload spans map to `B`/`E` duration events; [`EventKind::QueueDepth`],
/// [`EventKind::SiteTraffic`] and the phase-2 weight vector map to `C`
/// counter tracks (so queue depth, site traffic and weight evolution plot
/// as graphs); everything else maps to instant events carrying its
/// payload in `args`.
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
            EventKind::IterationStart { iteration } => rows.push(trace_row(
                "iteration",
                "i",
                ts,
                tid,
                vec![("iteration", Json::Num(*iteration as f64))],
            )),
            EventKind::AlgorithmSelected { algorithm, weights } => {
                rows.push(trace_row(
                    "select",
                    "i",
                    ts,
                    tid,
                    vec![("algorithm", Json::Num(*algorithm as f64))],
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
            }
            EventKind::Phase1Step { op } => {
                rows.push(trace_row(
                    "simplex",
                    "i",
                    ts,
                    tid,
                    vec![("op", Json::Str(op.label().into()))],
                ));
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
            EventKind::WindowEvicted {
                algorithm,
                evicted_sample,
            } => rows.push(trace_row(
                "evict",
                "i",
                ts,
                tid,
                vec![
                    ("algorithm", Json::Num(*algorithm as f64)),
                    ("evicted_sample", Json::Num(*evicted_sample as f64)),
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
            EventKind::SiteTraffic {
                calls,
                backed_off,
                contended,
                timed,
            } => rows.push(trace_row(
                "site-traffic",
                "C",
                ts,
                tid,
                vec![
                    ("calls", Json::Num(*calls as f64)),
                    ("backed_off", Json::Num(*backed_off as f64)),
                    ("contended", Json::Num(*contended as f64)),
                    ("timed", Json::Num(*timed as f64)),
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
        vec![
            Event {
                t_us: 0,
                site: NO_SITE,
                context: NO_CONTEXT,
                kind: EventKind::IterationStart { iteration: 3 },
            },
            Event {
                t_us: 5,
                site: NO_SITE,
                context: NO_CONTEXT,
                kind: EventKind::AlgorithmSelected {
                    algorithm: 1,
                    weights: WeightSet::from_slice(&[0.25, 0.75]),
                },
            },
            Event {
                t_us: 6,
                site: NO_SITE,
                context: NO_CONTEXT,
                kind: EventKind::Phase1Step {
                    op: SimplexOp::Reflect,
                },
            },
            Event {
                t_us: 7,
                site: NO_SITE,
                context: NO_CONTEXT,
                kind: EventKind::SpanBegin {
                    span: SpanKind::Search,
                },
            },
            Event {
                t_us: 90,
                site: NO_SITE,
                context: NO_CONTEXT,
                kind: EventKind::SpanEnd {
                    span: SpanKind::Search,
                },
            },
            Event {
                t_us: 95,
                site: NO_SITE,
                context: NO_CONTEXT,
                kind: EventKind::MeasureOutcome {
                    algorithm: 1,
                    status: MeasureStatus::Ok,
                    runtime_ms: 0.0831,
                },
            },
            Event {
                t_us: 96,
                site: NO_SITE,
                context: NO_CONTEXT,
                kind: EventKind::PenaltyApplied {
                    algorithm: 0,
                    penalty_ms: 12.5,
                },
            },
            Event {
                t_us: 97,
                site: NO_SITE,
                context: NO_CONTEXT,
                kind: EventKind::WindowEvicted {
                    algorithm: 0,
                    evicted_sample: 14,
                },
            },
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
                kind: EventKind::SiteTraffic {
                    calls: 4096,
                    backed_off: 3969,
                    contended: 62,
                    timed: 126,
                },
            },
            Event {
                t_us: 104,
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

    /// The incremental writer must stay byte-identical to the `Json`-tree
    /// path, or live-streamed telemetry would drift from batch exports.
    #[test]
    fn append_event_jsonl_matches_json_tree_rendering() {
        for e in sample_events() {
            let mut incremental = String::new();
            append_event_jsonl(&e, &mut incremental);
            let batch = event_to_json(&e).to_string() + "\n";
            assert_eq!(incremental, batch, "divergent rendering for {e:?}");
        }
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
    }
}
