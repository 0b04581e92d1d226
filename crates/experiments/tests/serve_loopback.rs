//! End-to-end loopback test of the always-on tuning service: a real
//! server on an ephemeral port, the real load generator against it —
//! pipelined workers, a morph schedule, a live telemetry subscriber, and
//! a graceful `OP_QUIT` shutdown — then the written result files are
//! parsed back and checked.

use autotune::drift::DriftConfig;
use autotune::json::Json;
use autotune::serve::StopFlag;
use experiments::load::{self, LoadOptions};
use experiments::serve::{run_serve_on, ServeOptions};
use std::net::TcpListener;

fn fresh_out_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-loopback-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read_json(path: &std::path::Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn serve_and_load_end_to_end() {
    let out = fresh_out_dir("e2e");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let opts = ServeOptions {
        addr: addr.clone(),
        corpus_kb: 8,
        seed: 7001,
        // Hair-trigger monitor so the morph restarts within a small run.
        drift: DriftConfig {
            baseline_window: 16,
            recent_window: 8,
            threshold: 1.5,
            patience: 2,
            stride: 4,
            min_delta_ms: 0.0,
        },
        ..ServeOptions::default()
    };
    let server = {
        let (opts, out) = (opts.clone(), out.clone());
        std::thread::spawn(move || run_serve_on(listener, &opts, &out, &StopFlag::new()))
    };

    let report = load::generate(&LoadOptions {
        addr,
        requests: 6_000,
        threads: 2,
        batch: 64,
        drift: true,
        subscribe: true,
        quit: true,
        ..LoadOptions::default()
    })
    .expect("load run");
    let files = server.join().unwrap().expect("server run");

    // The load generator saw a clean run and a valid telemetry stream.
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.ok, report.sent);
    assert!(report.stream_valid, "streamed JSONL must parse");
    assert!(report.streamed_lines > 0, "subscriber saw live events");
    assert!(report.p99_us > 0.0 && report.throughput_rps > 0.0);

    // serve.json: server totals line up, both sites converged.
    assert!(files.iter().any(|f| f.ends_with("serve.json")));
    let doc = read_json(&out.join("serve.json"));
    let requests = doc.get("server").unwrap().get("requests").unwrap();
    assert!(requests.as_f64().unwrap() >= report.sent as f64 - 1.0);
    let sites = doc.get("sites").and_then(Json::as_arr).unwrap();
    assert_eq!(sites.len(), 2);
    let match_site = &sites[0];
    assert!(match_site.get("calls").unwrap().as_f64().unwrap() > 0.0);
    assert!(
        match_site
            .get("tuned_iterations")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0,
        "per-site convergence must be nonzero"
    );
    assert!(match_site
        .get("exploit_algorithm")
        .unwrap()
        .as_str()
        .is_some());

    // serve_drift.json: the corpus morph produced at least one restart
    // episode with a measured time-to-reconvergence or detection lag.
    let drift = read_json(&out.join("serve_drift.json"));
    let m = drift.get("match").unwrap();
    assert!(
        m.get("restarts").unwrap().as_f64().unwrap() >= 1.0,
        "morph must trip the drift monitor: {drift}"
    );
    let episodes = m.get("episodes").and_then(Json::as_arr).unwrap();
    assert!(!episodes.is_empty());

    // serve_trace.jsonl: whatever the subscriber did not drain still
    // parses under the batch schema (byte-compatible stream).
    let trace = std::fs::read_to_string(out.join("serve_trace.jsonl")).unwrap();
    let events = autotune::telemetry::export::parse_jsonl(&trace).expect("trace parses");
    // Subscriber was attached the whole run, so the residue can be small
    // — but parseability (not volume) is the contract here.
    let _ = events;

    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn sort_requests_round_trip_over_the_wire() {
    use autotune::serve::protocol::{OP_QUIT, OP_SORT};
    let out = fresh_out_dir("sort");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let opts = ServeOptions {
        addr: addr.to_string(),
        corpus_kb: 4,
        seed: 7005,
        ..ServeOptions::default()
    };
    let server = {
        let (opts, out) = (opts.clone(), out.clone());
        std::thread::spawn(move || run_serve_on(listener, &opts, &out, &StopFlag::new()))
    };

    let mut client = autotune::serve::Client::connect(addr).unwrap();
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // Two size classes, interleaved, each with a client-chosen key seed
    // so the returned checksum is independently verifiable.
    for round in 0..20u64 {
        for (n, class) in [(24u32, 5u32), (700, 10)] {
            let mut req = n.to_le_bytes().to_vec();
            let seed = 0xC0FFEE + round;
            req.extend_from_slice(&seed.to_le_bytes());
            let (op, resp) = client.request(OP_SORT, &req).unwrap();
            assert_eq!(op, OP_SORT);
            assert_eq!(resp.len(), 13, "ok + class + checksum");
            assert_eq!(resp[0], 1, "server-side sortedness check");
            assert_eq!(u32::from_le_bytes(resp[1..5].try_into().unwrap()), class);
            let mut keys = autotune::rng::Rng::new(seed);
            let want = (0..n)
                .map(|_| keys.next_u64())
                .fold(0u64, u64::wrapping_add);
            assert_eq!(u64::from_le_bytes(resp[5..13].try_into().unwrap()), want);
        }
    }
    let (op, _) = client.request(OP_QUIT, &[]).unwrap();
    assert_eq!(op, OP_QUIT);
    server.join().unwrap().expect("server run");

    // serve.json carries the two active sort class sites and the counter.
    let doc = read_json(&out.join("serve.json"));
    assert_eq!(
        doc.get("app").unwrap().get("sorts").and_then(Json::as_f64),
        Some(40.0)
    );
    let sites = doc.get("sites").and_then(Json::as_arr).unwrap();
    for class in ["sort/c05/random", "sort/c10/random"] {
        let site = sites
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(class))
            .unwrap_or_else(|| panic!("{class} missing from serve.json"));
        assert_eq!(site.get("calls").and_then(Json::as_f64), Some(20.0));
        assert!(site
            .get("exploit_algorithm")
            .and_then(Json::as_str)
            .is_some());
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn http_fallback_answers_stats() {
    use std::io::{Read, Write};
    let out = fresh_out_dir("http");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let opts = ServeOptions {
        addr: addr.to_string(),
        corpus_kb: 4,
        seed: 7003,
        ..ServeOptions::default()
    };
    let server = {
        let (opts, out) = (opts.clone(), out.clone());
        std::thread::spawn(move || run_serve_on(listener, &opts, &out, &StopFlag::new()))
    };

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("has body");
    let stats = Json::parse(body).expect("stats body is JSON");
    assert!(stats.get("uptime_s").is_some(), "{stats}");

    // Shut down via the wire.
    let mut quit = autotune::serve::Client::connect(addr).unwrap();
    let (op, _) = quit
        .request(autotune::serve::protocol::OP_QUIT, &[])
        .unwrap();
    assert_eq!(op, autotune::serve::protocol::OP_QUIT);
    server.join().unwrap().expect("server run");
    let _ = std::fs::remove_dir_all(&out);
}

/// One `AppHandler::handle` call behind `prefix` (what the connection
/// already owes): a rejected opcode writes nothing, a handled one exactly
/// one well-formed frame. Returns whether the handler took the opcode.
fn handle_checked(
    handler: &mut experiments::serve::AppHandler,
    op: u8,
    payload: &[u8],
    prefix: &[u8],
) -> bool {
    use autotune::serve::protocol::{self, Parse, OP_ERR, OP_MORPH, OP_SORT};
    use autotune::serve::RequestHandler;
    let mut out = prefix.to_vec();
    if !handler.handle(op, payload, &mut out) {
        assert_eq!(out, prefix, "op {op:#x}: rejected, yet wrote");
        return false;
    }
    let frame = match protocol::parse_frame(&out[prefix.len()..]) {
        Parse::Ready(f) => f,
        other => panic!("op {op:#x}, payload {payload:?}: {other:?}"),
    };
    assert_eq!(
        prefix.len() + frame.wire_len,
        out.len(),
        "op {op:#x}: one frame"
    );
    let body = &out[prefix.len() + frame.payload.0..prefix.len() + frame.payload.1];
    if frame.op == OP_ERR {
        assert!(std::str::from_utf8(body).is_ok(), "op {op:#x}: {body:?}");
        return true;
    }
    assert_eq!(frame.op, op, "the answer reuses the request's opcode");
    let want = match op {
        OP_SORT => 13,
        OP_MORPH => 2,
        _ => 4, // match count, render luminance
    };
    assert_eq!(body.len(), want, "op {op:#x}, payload {payload:?}");
    if op == OP_SORT {
        assert_eq!(body[0], 1, "the sort checks itself: {payload:?}");
    }
    true
}

/// `AppHandler::handle` on seeded random payloads for every opcode it
/// owns and for 8 it does not: it never panics, and it appends exactly
/// one well-formed frame when it returns `true` and nothing when it
/// returns `false`.
#[test]
fn app_handler_answers_seeded_random_payloads_with_one_frame() {
    use autotune::rng::Rng;
    use autotune::serve::protocol::{OP_MATCH, OP_MORPH, OP_RENDER, OP_SORT};
    use experiments::serve::AppHandler;

    const UNKNOWN: [u8; 8] = [0x00, 0x0A, 0x0B, 0x10, 0x42, 0x7E, 0x80, 0xFF];
    let mut handler = AppHandler::new(&ServeOptions {
        corpus_kb: 4,
        seed: 7007,
        ..ServeOptions::default()
    });
    let mut rng = Rng::new(0x0F02_2A99);
    let random_bytes = |rng: &mut Rng, n: u64| -> Vec<u8> {
        (0..rng.next_below(n + 1))
            .map(|_| rng.next_u64() as u8)
            .collect()
    };
    for case in 0..600u32 {
        let (op, payload) = match case % 5 {
            0 => {
                // Mostly n < 300; one in 16 keeps a random n, which the
                // handler caps at `MAX_SORT_N`.
                let mut p = random_bytes(&mut rng, 16);
                if p.len() >= 4 && rng.next_below(16) > 0 {
                    p[..4].copy_from_slice(&(rng.next_below(300) as u32).to_le_bytes());
                }
                (OP_SORT, p)
            }
            1 => (OP_MATCH, random_bytes(&mut rng, 48)),
            // Render builds a kD-tree per request, the slow opcode: six
            // cases, each on the level-0 scene (a morph may have left
            // the larger one) and at most 8x8 pixels when the payload
            // names a size.
            2 if case % 100 == 2 => {
                assert!(handle_checked(&mut handler, OP_MORPH, &[1, 0], &[]));
                let mut p = random_bytes(&mut rng, 8);
                if p.len() >= 4 {
                    p[0] = 1 + (p[0] % 8);
                    p[1] = 0;
                    p[2] = 1 + (p[2] % 8);
                    p[3] = 0;
                }
                (OP_RENDER, p)
            }
            3 => (OP_MORPH, random_bytes(&mut rng, 4)),
            _ => (
                UNKNOWN[rng.pick_index(UNKNOWN.len())],
                random_bytes(&mut rng, 64),
            ),
        };
        let prefix = random_bytes(&mut rng, 12);
        let handled = handle_checked(&mut handler, op, &payload, &prefix);
        assert_eq!(handled, !UNKNOWN.contains(&op), "op {op:#x}");
    }
}
