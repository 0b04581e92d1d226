//! The serving path under the microscope: what does putting a tuning
//! site behind a socket cost?
//!
//! Three legs, all running the same per-request work (a site-dispatched
//! pattern count over a 64 KiB corpus):
//!
//! * **direct** — `match_request` called in a loop: site dispatch with no
//!   serving machinery at all. The baseline.
//! * **handler** — `AppHandler::handle` driven in-process: adds request
//!   framing, payload routing, drift monitoring and response
//!   serialization, but no sockets.
//! * **served** — the real thing: `autotune::serve` on a loopback TCP
//!   socket, driven by a deeply pipelined client. p99 comes from a
//!   separate ping-pong phase (one request in flight) so the tail is a
//!   true round trip, not a batch artifact.
//!
//! The three legs take their stretches of requests in turn, each stretch
//! timed as one span, and each leg reports the median of its stretches:
//! a burst of host noise then hits every leg, not whichever one ran
//! during it. Served throughput is the served stretches' requests over
//! their summed time.
//! * **co-located ping-pong** — a second server and client, both threads
//!   pinned to one CPU (`sched_setaffinity`, Linux only), so every round
//!   trip hands that CPU from the client to the server and back, and a
//!   poll loop in its spin window must yield the CPU to the client.
//!   Reported, not gated.
//!
//! The acceptance bar: served per-request cost ≤ 1.15x direct dispatch.
//! Serving overhead (frame parse, buffer management, syscalls amortized
//! across the pipeline batch) must stay a thin veneer on the tuned work.
//!
//! Persists `BENCH_serve.json` at the workspace root. `BENCH_QUICK=1`
//! shrinks the stretches and skips the overhead assertion (shared CI
//! machines cannot hold a 15% bar).

use autotune::json::Json;
use autotune::serve::protocol::{self, OP_MATCH};
use autotune::serve::{Client, LatencyHist, RequestHandler, ServeConfig, ServeReport, StopFlag};
use autotune::site::{register, site};
use autotune::two_phase::NominalKind;
use experiments::serve::{AppHandler, ServeOptions};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const CORPUS_KB: usize = 64;

fn opts(seed: u64) -> ServeOptions {
    ServeOptions {
        corpus_kb: CORPUS_KB,
        seed,
        ..ServeOptions::default()
    }
}

/// Pipelined requests per batch on the served leg and its warm-up.
const BATCH: usize = 64;

/// Send `n` `OP_MATCH` requests in pipelined batches, checking every
/// answer's opcode.
fn run_batches(client: &mut Client, n: u64) {
    let mut frames = Vec::new();
    let mut response = Vec::new();
    let mut left = n;
    while left > 0 {
        let k = BATCH.min(left as usize);
        frames.clear();
        for _ in 0..k {
            protocol::write_frame(&mut frames, OP_MATCH, stringmatch::PAPER_QUERY);
        }
        client.send_raw(&frames).expect("send batch");
        for _ in 0..k {
            let op = client.recv_into(&mut response).expect("recv");
            assert_eq!(op, OP_MATCH, "server answered {op:#x}");
        }
        left -= k as u64;
    }
}

/// Median ns per request of each leg, from stretches taken in turn.
struct Legs {
    direct_ns: f64,
    handler_ns: f64,
    served_ns: f64,
    served_throughput_rps: f64,
}

/// The three legs, `rounds` stretches of `stretch` requests each, taken
/// in turn after a warm-up past the exploration phase (so every leg
/// measures the converged regime). The served leg's client stays
/// connected for the ping-pong phase.
fn bench_legs(client: &mut Client, rounds: usize, stretch: u64) -> Legs {
    // The same work the serve handler performs per OP_MATCH, minus every
    // serving layer: the honest baseline.
    let s = site(register(stringmatch::tuned::search_site_spec(
        "bench-serve-direct",
        NominalKind::EpsilonGreedy(0.10),
        5001,
    )));
    let matchers = stringmatch::tuned::site_matchers();
    let corpus = stringmatch::corpus::bible_like_with(5001, CORPUS_KB << 10, 250);
    let direct = || {
        std::hint::black_box(stringmatch::tuned::match_request(
            s,
            &matchers,
            stringmatch::PAPER_QUERY,
            &corpus,
        ));
    };
    // Handler dispatch: framing + routing + drift monitor, no sockets.
    let mut handler = AppHandler::new(&opts(5002));
    let mut out = Vec::new();
    let mut handle = || {
        out.clear();
        std::hint::black_box(handler.handle(OP_MATCH, stringmatch::PAPER_QUERY, &mut out));
    };

    let warmup = stretch * rounds as u64 / 10 + 512;
    for _ in 0..warmup {
        direct();
        handle();
    }
    run_batches(client, warmup);

    let ns_per_request = |start: Instant| start.elapsed().as_nanos() as f64 / stretch as f64;
    let mut ns = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..rounds {
        let start = Instant::now();
        (0..stretch).for_each(|_| direct());
        ns[0].push(ns_per_request(start));
        let start = Instant::now();
        (0..stretch).for_each(|_| handle());
        ns[1].push(ns_per_request(start));
        let start = Instant::now();
        run_batches(client, stretch);
        ns[2].push(ns_per_request(start));
    }
    let served_total_ns: f64 = ns[2].iter().sum::<f64>() * stretch as f64;
    let [direct_ns, handler_ns, served_ns] = ns.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[rounds / 2]
    });
    Legs {
        direct_ns,
        handler_ns,
        served_ns,
        served_throughput_rps: (rounds as u64 * stretch) as f64 / (served_total_ns * 1e-9),
    }
}

/// `n` round trips with one request in flight: honest tail latency.
fn ping_pong(client: &mut Client, n: u64) -> LatencyHist {
    let mut response = Vec::new();
    let mut hist = LatencyHist::new();
    for _ in 0..n {
        let t0 = Instant::now();
        let op = client
            .request_into(OP_MATCH, stringmatch::PAPER_QUERY, &mut response)
            .expect("ping-pong");
        hist.record(t0.elapsed().as_nanos() as u64);
        assert_eq!(op, OP_MATCH);
    }
    hist
}

/// A served `AppHandler` (seeded `seed`) on a loopback port, on a thread
/// that first runs `setup` (the co-located leg pins it there).
fn spawn_server(
    seed: u64,
    setup: impl FnOnce() + Send + 'static,
) -> (
    std::net::SocketAddr,
    StopFlag,
    std::thread::JoinHandle<std::io::Result<ServeReport>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let stop = StopFlag::new();
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            setup();
            let mut handler = AppHandler::new(&opts(seed));
            autotune::serve::serve(listener, &mut handler, &ServeConfig::default(), &stop)
        })
    };
    (addr, stop, server)
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

/// Pins this bench's own threads to one CPU.
#[cfg(target_os = "linux")]
mod affinity {
    /// A `cpu_set_t` of 1024 CPUs, the glibc size.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The lowest CPU the calling thread may run on.
    pub fn first_allowed_cpu() -> Option<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread, and `set` is a writable
        // buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) } != 0 {
            return None;
        }
        (0..set.len() * 64).find(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
    }

    /// Pin the calling thread to `cpu`, one the process may run on.
    pub fn pin(cpu: usize) {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: pid 0 names the calling thread, and `set` is a valid
        // cpu set of exactly the size passed.
        let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), &set) } == 0;
        assert!(ok, "could not pin a thread to CPU {cpu}");
    }
}

/// The co-located leg: a fresh server and a client, both pinned to one
/// CPU, warmed up like the served leg, then `pingpong` round trips.
/// Returns `(p50_us, p99_us)`, or `None` off Linux.
#[cfg(target_os = "linux")]
fn bench_colocated(warmup: u64, pingpong: u64) -> Option<(f64, f64)> {
    let cpu = affinity::first_allowed_cpu()?;
    let (addr, stop, server) = spawn_server(5004, move || affinity::pin(cpu));
    let client = std::thread::spawn(move || {
        affinity::pin(cpu);
        let mut client = connect(addr);
        run_batches(&mut client, warmup);
        ping_pong(&mut client, pingpong)
    });
    let hist = client.join().expect("client thread");
    stop.stop();
    server.join().expect("server thread").expect("serve ok");
    Some((hist.quantile(0.50) / 1e3, hist.quantile(0.99) / 1e3))
}

#[cfg(not(target_os = "linux"))]
fn bench_colocated(_warmup: u64, _pingpong: u64) -> Option<(f64, f64)> {
    None
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");

    let (rounds, stretch): (usize, u64) = if quick { (10, 500) } else { (100, 5_000) };
    let pingpong: u64 = if quick { 500 } else { 5_000 };
    let sustained = rounds as u64 * stretch;
    println!(
        "direct, handler and served legs in turn: {rounds} stretches of {stretch} requests \
         each, then {pingpong} ping-pong probes…"
    );
    let (addr, stop, server) = spawn_server(5003, || {});
    let mut client = connect(addr);
    let Legs {
        direct_ns,
        handler_ns,
        served_ns,
        served_throughput_rps: throughput,
    } = bench_legs(&mut client, rounds, stretch);
    let hist = ping_pong(&mut client, pingpong);
    let (p50_us, p99_us) = (hist.quantile(0.50) / 1e3, hist.quantile(0.99) / 1e3);
    stop.stop();
    let report = server.join().expect("server thread").expect("serve ok");
    let server_requests = report.requests;
    assert!(server_requests > sustained, "server saw the whole run");
    println!("co-located leg: client and server pinned to one CPU, {pingpong} ping-pong probes…");
    let colocated = bench_colocated(sustained / 10 + 512, pingpong);

    let handler_overhead = handler_ns / direct_ns;
    let served_overhead = served_ns / direct_ns;
    println!("direct   {direct_ns:>9.0} ns/req");
    println!("handler  {handler_ns:>9.0} ns/req  ({handler_overhead:.4}x)");
    println!("served   {served_ns:>9.0} ns/req  ({served_overhead:.4}x)");
    println!("served throughput: {throughput:.0} req/s sustained ({server_requests} total at the server)");
    println!("served round-trip: p50 {p50_us:.1}µs  p99 {p99_us:.1}µs");
    let (colocated_p50, colocated_p99) = match colocated {
        Some((p50, p99)) => {
            println!("co-located round-trip: p50 {p50:.1}µs  p99 {p99:.1}µs");
            (Json::Num(p50), Json::Num(p99))
        }
        None => {
            println!("co-located round-trip: skipped (no CPU to pin to)");
            (Json::Null, Json::Null)
        }
    };

    bench::write_bench_json(
        "serve",
        vec![
            ("id", Json::Str("serve".into())),
            ("corpus_kb", Json::Num(CORPUS_KB as f64)),
            ("sustained_requests", Json::Num(sustained as f64)),
            ("direct_ns_per_req", Json::Num(direct_ns)),
            ("handler_ns_per_req", Json::Num(handler_ns)),
            ("served_ns_per_req", Json::Num(served_ns)),
            ("handler_overhead", Json::Num(handler_overhead)),
            ("served_overhead", Json::Num(served_overhead)),
            ("served_throughput_rps", Json::Num(throughput)),
            ("pingpong_p50_us", Json::Num(p50_us)),
            ("pingpong_p99_us", Json::Num(p99_us)),
            ("pingpong_colocated_p50_us", colocated_p50),
            ("pingpong_colocated_p99_us", colocated_p99),
        ],
    );

    assert!(throughput > 0.0 && p99_us > 0.0);
    // The 15% bar only means something on a full run on an otherwise idle
    // machine; quick CI legs just record the numbers.
    if !quick {
        assert!(
            served_overhead < 1.15,
            "serving overhead {served_overhead:.3}x exceeds the 15% bar"
        );
    }
}
