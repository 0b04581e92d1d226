//! Integration tests for the telemetry layer: the JSONL schema must be a
//! lossless encoding of the event model (property-tested over randomized
//! events), the ring must overwrite rather than grow, and a real tuning
//! run must survive the full record → export → parse → summarize cycle.

use autotune::rng::Rng;
use autotune::telemetry::export::{
    chrome_trace, parse_jsonl, parse_run_log, to_jsonl, write_run_log, RunMeta,
};
use autotune::telemetry::ring::EventRing;
use autotune::telemetry::{
    Event, EventKind, MeasureStatus, Recorder, SpanKind, Traffic, WeightSet,
};

/// Draw one arbitrary event. Weights use a dyadic grid so the f64 → f32
/// → JSON → f32 journey is exact by construction, as the schema promises.
fn arbitrary_event(rng: &mut Rng) -> Event {
    let t_us = rng.next_below(1 << 40);
    // Half the events are tagged with a site id (the multi-site runtime's
    // stamp), half are untagged — both forms must round-trip.
    let site = if rng.next_bool(0.5) {
        rng.next_below(8192) as u16
    } else {
        autotune::telemetry::NO_SITE
    };
    // Likewise for the context tag (the context layer's stamp): tagged
    // and untagged events must both round-trip, independently of `site`.
    let context = if rng.next_bool(0.5) {
        rng.next_below(1 << 20) as u32
    } else {
        autotune::telemetry::NO_CONTEXT
    };
    let algorithm = rng.next_below(16) as u16;
    let statuses = [
        MeasureStatus::Ok,
        MeasureStatus::Failed,
        MeasureStatus::TimedOut,
    ];
    let span = if rng.next_bool(0.5) {
        SpanKind::Search
    } else {
        SpanKind::Frame
    };
    let kind = match rng.next_below(7) {
        0 => {
            let n = rng.pick_index(17);
            let weights: Vec<f64> = (0..n)
                .map(|_| rng.next_below(1 << 20) as f64 / 1024.0)
                .collect();
            // Records with and without a site's traffic counters.
            let traffic = rng.next_bool(0.5).then(|| Traffic {
                calls: rng.next_below(1 << 50),
                backed_off: rng.next_below(1 << 50),
                contended: rng.next_below(1 << 50),
                timed: rng.next_below(1 << 50),
            });
            EventKind::Iteration {
                iteration: rng.next_below(1 << 32),
                algorithm,
                status: statuses[rng.pick_index(statuses.len())],
                runtime_ms: rng.next_below(1 << 50) as f64 / 1024.0,
                weights: WeightSet::from_slice(&weights),
                traffic,
            }
        }
        1 => EventKind::MeasureOutcome {
            algorithm,
            status: statuses[rng.pick_index(statuses.len())],
            runtime_ms: rng.next_below(1 << 50) as f64 / 1024.0,
        },
        2 => EventKind::PenaltyApplied {
            algorithm,
            penalty_ms: rng.next_below(1 << 50) as f64 / 1024.0,
        },
        3 => EventKind::SpanBegin { span },
        4 => EventKind::SpanEnd { span },
        5 => EventKind::DriftDetected {
            baseline_ms: rng.next_below(1 << 50) as f64 / 1024.0,
            observed_ms: rng.next_below(1 << 50) as f64 / 1024.0,
        },
        _ => EventKind::QueueDepth {
            depth: rng.next_below(1 << 20) as u32,
            workers: rng.next_below(256) as u32,
        },
    };
    Event {
        t_us,
        site,
        context,
        kind,
    }
}

#[test]
fn jsonl_round_trip_property() {
    let mut rng = Rng::new(0xDEC0DE);
    for trial in 0..200 {
        let events: Vec<Event> = (0..rng.pick_index(64))
            .map(|_| arbitrary_event(&mut rng))
            .collect();
        let text = to_jsonl(&events);
        let parsed = parse_jsonl(&text)
            .unwrap_or_else(|e| panic!("trial {trial}: failed to parse own output: {e:?}\n{text}"));
        assert_eq!(parsed, events, "trial {trial} round-trip mismatch");
    }
}

#[test]
fn run_log_round_trip_preserves_meta_and_order() {
    let mut rng = Rng::new(0xBEEF);
    let events: Vec<Event> = (0..100).map(|_| arbitrary_event(&mut rng)).collect();
    let meta = RunMeta {
        case_study: "cs1".into(),
        strategy: "e-greedy(10%)".into(),
        algorithms: vec!["Boyer-Moore".into(), "KMP".into()],
        iterations: 100,
    };
    let text = write_run_log(&meta, &events);
    let log = parse_run_log(&text).unwrap();
    assert_eq!(log.meta.as_ref(), Some(&meta));
    assert_eq!(log.events, events);
}

#[test]
fn ring_overwrites_oldest_without_reallocating() {
    let mut ring = EventRing::with_capacity(128);
    let base = ring.as_ptr();
    for i in 0..10_000u64 {
        ring.push(Event::untagged(
            i,
            EventKind::QueueDepth {
                depth: i as u32,
                workers: 1,
            },
        ));
    }
    assert_eq!(ring.as_ptr(), base, "ring storage moved");
    assert_eq!(ring.len(), 128);
    assert_eq!(ring.overwritten(), 10_000 - 128);
    let events = ring.to_vec();
    // Oldest-first iteration over exactly the newest `capacity` events.
    let timestamps: Vec<u64> = events.iter().map(|e| e.t_us).collect();
    let expected: Vec<u64> = (10_000 - 128..10_000).collect();
    assert_eq!(timestamps, expected);
}

#[test]
fn recorded_tuning_run_survives_export_parse_cycle() {
    use autotune::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};

    // A standalone recorder mirrors what the global one stores, without
    // competing with other tests for the process-global switch.
    let recorder = Recorder::new(4096);
    let specs = vec![
        AlgorithmSpec::untunable("fast"),
        AlgorithmSpec::untunable("slow"),
    ];
    let mut tuner = TwoPhaseTuner::new(specs, NominalKind::EpsilonGreedy(0.10), 9);
    for i in 0..50u64 {
        let (alg, _config) = tuner.next();
        let runtime = if alg == 0 { 1.0 } else { 4.0 };
        recorder.record(EventKind::Iteration {
            iteration: i,
            algorithm: alg as u16,
            status: MeasureStatus::Ok,
            runtime_ms: runtime,
            weights: WeightSet::from_slice(&[0.5, 0.5]),
            traffic: None,
        });
        tuner.report(runtime);
    }
    let events = recorder.drain();
    assert_eq!(events.len(), 50);

    let meta = RunMeta {
        case_study: "test".into(),
        strategy: "e-greedy(10%)".into(),
        algorithms: vec!["fast".into(), "slow".into()],
        iterations: 50,
    };
    let log = parse_run_log(&write_run_log(&meta, &events)).unwrap();
    assert_eq!(log.events, events);

    // The Chrome export of the same run must be a valid, reparseable
    // trace: the process-name metadata row, then per record one instant
    // row and one "weights" counter row (a record without traffic has no
    // traffic counter row).
    let trace = chrome_trace(&events);
    let reparsed = autotune::json::Json::parse(&trace.to_string()).unwrap();
    let rows = reparsed.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 1 + 2 * events.len());
}
