//! The served loop: `autotune::serve::serve` on loopback in its own
//! thread, by default over `AppHandler` as `experiments serve` runs it,
//! driven by one client connection from the calling thread.

use crate::pin;
use crate::speed::{Clock, Probe};
use crate::trace::{span, Acc};
use crate::workload::{
    check, serve_options, Corpora, Expect, Phases, Traffic, Workload, BATCH, SUBS,
};
use autotune::context::ContextStats;
use autotune::json::Json;
use autotune::serve::protocol::OP_QUIT;
use autotune::serve::{serve, Client, RequestHandler, ServeConfig, ServeReport, StopFlag};
use autotune::site::Site;
use autotune::telemetry;
use experiments::serve::AppHandler;
use smallsort::SortKey;
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Summed counters of a workload's tuning sites.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteCounts {
    pub calls: u64,
    pub tuned: u64,
    pub contended: u64,
    pub restarts: u64,
    /// Σ over sites of the most-selected algorithm's selection count.
    pub top_picks: u64,
    /// Σ over sites of all selection counts.
    pub picks: u64,
}

impl SiteCounts {
    pub fn of(sites: impl IntoIterator<Item = Site>) -> SiteCounts {
        let mut c = SiteCounts::default();
        for s in sites {
            c.calls += s.calls();
            c.tuned += s.tuned_iterations();
            c.contended += s.contended();
            c.restarts += s.restarts();
            let counts = s.with_tuner(|t| t.as_two_phase().map(|tp| tp.selection_counts()));
            if let Some(counts) = counts {
                c.top_picks += counts.iter().copied().max().unwrap_or(0) as u64;
                c.picks += counts.iter().sum::<usize>() as u64;
            }
        }
        c
    }
}

/// Sites of a sort table that served at least one call.
pub fn sort_table_sites(sites: &smallsort::SortSites) -> Vec<Site> {
    let mut keys: Vec<SortKey> = sites.table().keys().into_iter().map(|(k, _)| k).collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| sites.key_site(k))
        .filter(|s| s.calls() > 0)
        .collect()
}

/// What an `AppHandler` server thread hands back once `serve` returns.
pub struct ServerEnd {
    pub report: ServeReport,
    pub sites: SiteCounts,
    pub context: Option<ContextStats>,
    pub drift: Option<Json>,
    /// Spans around `RequestHandler::handle` while recording was on.
    pub handle: Acc,
}

/// A handler with a span around every `RequestHandler::handle` call made
/// while `recording` is set.
struct TimedHandler<'a, H> {
    inner: &'a mut H,
    recording: &'a AtomicBool,
    handle: Acc,
}

impl<H: RequestHandler> RequestHandler for TimedHandler<'_, H> {
    fn handle(&mut self, op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
        if !self.recording.load(Ordering::Relaxed) {
            return self.inner.handle(op, payload, out);
        }
        span(&mut self.handle, || self.inner.handle(op, payload, out))
    }

    fn stats_json(&self) -> Option<Json> {
        self.inner.stats_json()
    }
}

/// Serve on `listener` with `handler` until stopped; with `recording`, a
/// span around each handle call while the flag is set. Returns the
/// report and the handle spans.
fn serve_with(
    listener: TcpListener,
    handler: &mut impl RequestHandler,
    recording: Option<&AtomicBool>,
    stop: &StopFlag,
) -> std::io::Result<(ServeReport, Acc)> {
    let config = ServeConfig::default();
    match recording {
        Some(recording) => {
            let mut timed = TimedHandler {
                inner: handler,
                recording,
                handle: Acc::default(),
            };
            let report = serve(listener, &mut timed, &config, stop)?;
            Ok((report, timed.handle))
        }
        None => Ok((serve(listener, handler, &config, stop)?, Acc::default())),
    }
}

/// The server thread of `experiments serve`: `AppHandler` with the served
/// configuration. With `recording`, handle calls are spanned while it is
/// set.
pub fn app_server(
    workload: Workload,
    recording: Option<Arc<AtomicBool>>,
) -> impl FnOnce(TcpListener, &StopFlag) -> std::io::Result<ServerEnd> + Send + 'static {
    move |listener, stop| {
        let mut app = AppHandler::new(&serve_options());
        let (report, handle) = serve_with(listener, &mut app, recording.as_deref(), stop)?;
        let (sites, context, drift) = if workload.sorts() {
            let table = app.sort_sites();
            (
                SiteCounts::of(sort_table_sites(table)),
                Some(table.table().stats()),
                None,
            )
        } else {
            let [(_, match_site), _] = app.sites();
            (SiteCounts::of([match_site]), None, app.drift_report())
        };
        Ok(ServerEnd {
            report,
            sites,
            context,
            drift,
            handle,
        })
    }
}

/// A running server thread. Dropping it stops and joins the thread.
pub struct Server<T> {
    pub addr: SocketAddr,
    /// Kernel thread id of the server thread, for its scheduler counters.
    pub tid: Option<String>,
    stop: StopFlag,
    thread: Option<JoinHandle<std::io::Result<T>>>,
}

impl<T: Send + 'static> Server<T> {
    /// Start a server thread on a loopback port; `body` builds the
    /// handler, serves until stopped, and reports.
    pub fn start(
        body: impl FnOnce(TcpListener, &StopFlag) -> std::io::Result<T> + Send + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = StopFlag::new();
        let (tid_tx, tid_rx) = mpsc::channel();
        let thread = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("serve".into())
                .spawn(move || {
                    pin::pin(pin::SERVER);
                    let _ = tid_tx.send(thread_id());
                    body(listener, &stop)
                })?
        };
        Ok(Server {
            addr,
            tid: tid_rx.recv().ok().flatten(),
            stop,
            thread: Some(thread),
        })
    }

    /// Ask the server to quit over the wire and wait for its thread.
    pub fn finish(mut self, client: &mut Client) -> Result<T, String> {
        let (op, _) = client
            .request(OP_QUIT, b"")
            .map_err(|e| format!("quit: {e}"))?;
        if op != OP_QUIT {
            return Err(format!("quit answered with op {op:#x}"));
        }
        let thread = self.thread.take().expect("server joined once");
        match thread.join() {
            Ok(Ok(end)) => Ok(end),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl<T> Drop for Server<T> {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.stop();
            let _ = thread.join();
        }
    }
}

/// The calling thread's kernel thread id, from `/proc/thread-self`.
fn thread_id() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_string_lossy().into_owned())
}

/// `(on-CPU ns, run-queue wait ns)` of a thread of this process, or of
/// the calling thread when `tid` is `None`.
pub fn schedstat(tid: Option<&str>) -> Option<(u64, u64)> {
    let path = match tid {
        Some(tid) => format!("/proc/self/task/{tid}/schedstat"),
        None => "/proc/thread-self/schedstat".into(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// Failed checks of a run: the count and the first few messages.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn record(&mut self, message: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(message);
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        for m in other.first {
            if self.first.len() < 8 {
                self.first.push(m);
            }
        }
    }
}

/// One client connection generating, sending and checking requests.
pub struct Loadgen<'a> {
    client: Client,
    pub traffic: Traffic,
    corpora: &'a Corpora,
    /// Frames and expectations of the two batches in flight.
    frames: [Vec<u8>; 2],
    expects: [Vec<Expect>; 2],
    body: Vec<u8>,
    pub failures: Failures,
}

impl<'a> Loadgen<'a> {
    pub fn connect(
        addr: SocketAddr,
        traffic: Traffic,
        corpora: &'a Corpora,
    ) -> std::io::Result<Self> {
        let mut client = Client::connect(addr)?;
        client.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Loadgen {
            client,
            traffic,
            corpora,
            frames: [Vec::new(), Vec::new()],
            expects: [Vec::new(), Vec::new()],
            body: Vec::new(),
            failures: Failures::default(),
        })
    }

    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    /// Generate the next batch into `slot` and send it.
    fn send_batch(&mut self, slot: usize) -> std::io::Result<()> {
        self.frames[slot].clear();
        self.expects[slot].clear();
        for _ in 0..BATCH {
            let e = self.traffic.next(&mut self.frames[slot]);
            self.expects[slot].push(e);
        }
        self.client.send_raw(&self.frames[slot])
    }

    /// Closed loop: `n` requests in pipelined batches of [`BATCH`], two
    /// batches in flight, so the server always has the next batch queued
    /// while it answers one and its poll loop never sleeps between them.
    pub fn pipelined(&mut self, n: u64) -> std::io::Result<()> {
        assert!(n.is_multiple_of(BATCH));
        let batches = n / BATCH;
        let mut sent = 0;
        while sent < batches.min(2) {
            self.send_batch(sent as usize)?;
            sent += 1;
        }
        for b in 0..batches {
            let slot = (b % 2) as usize;
            for i in 0..self.expects[slot].len() {
                let e = self.expects[slot][i];
                let op = self.client.recv_into(&mut self.body)?;
                if let Err(m) = check(e, op, &self.body, self.corpora) {
                    self.failures.record(m);
                }
            }
            if sent < batches {
                self.send_batch(slot)?;
                sent += 1;
            }
        }
        Ok(())
    }

    /// One round trip; `announce` runs as soon as it is answered, before
    /// the answer is checked.
    pub fn first(&mut self, announce: &dyn Fn()) -> std::io::Result<()> {
        self.frames[0].clear();
        let e = self.traffic.next(&mut self.frames[0]);
        self.client.send_raw(&self.frames[0])?;
        let op = self.client.recv_into(&mut self.body)?;
        announce();
        if let Err(m) = check(e, op, &self.body, self.corpora) {
            self.failures.record(m);
        }
        Ok(())
    }

    /// Closed loop with one request in flight: `n` round trips. Returns
    /// each round trip in microseconds, sorted.
    pub fn ping_pong(&mut self, n: u64) -> std::io::Result<Vec<f64>> {
        let mut samples = Vec::with_capacity(n as usize);
        for _ in 0..n {
            self.frames[0].clear();
            let e = self.traffic.next(&mut self.frames[0]);
            let t0 = Instant::now();
            self.client.send_raw(&self.frames[0])?;
            let op = self.client.recv_into(&mut self.body)?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Err(m) = check(e, op, &self.body, self.corpora) {
                self.failures.record(m);
            }
        }
        samples.sort_by(f64::total_cmp);
        Ok(samples)
    }
}

/// Everything one served pass measured, and what its server thread
/// reported.
pub struct ServedRun<T> {
    pub warmup_s: f64,
    /// Requests per second of each throughput window, in wall time and
    /// scaled to the reference host at rest by the server CPU's speed.
    pub window_rates: Vec<f64>,
    pub scaled_rates: Vec<f64>,
    /// Requests of the throughput phase.
    pub throughput_requests: u64,
    /// Round trips of the latency phase, microseconds, sorted.
    pub latency_us: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    pub keys: BTreeSet<SortKey>,
    /// Scheduler counters over the throughput phase.
    pub server_cpu_ns: u64,
    pub server_wait_ns: u64,
    pub client_cpu_ns: u64,
    pub throughput_wall_ns: u64,
    /// Telemetry events recorded over the throughput phase.
    pub events: u64,
    pub end: T,
}

/// Run one served pass: warm-up, windowed throughput, ping-pong latency,
/// against a server thread running `body`. With `announce`, one round
/// trip precedes the warm-up and `announce` runs as soon as it is
/// answered. `recording` is set for the throughput phase only, whose
/// sub-windows a speed probe on the server's CPU separates.
pub fn run<T: Send + 'static>(
    workload: Workload,
    seed: u64,
    corpora: &Corpora,
    phases: Phases,
    announce: Option<&dyn Fn()>,
    recording: Option<&AtomicBool>,
    body: impl FnOnce(TcpListener, &StopFlag) -> std::io::Result<T> + Send + 'static,
) -> Result<ServedRun<T>, String> {
    fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
        move |e| format!("{what}: {e}")
    }
    let server = Server::start(body).map_err(io("start server"))?;
    pin::pin(pin::CLIENT);
    let mut load = Loadgen::connect(server.addr, Traffic::new(workload, seed), corpora)
        .map_err(io("connect"))?;

    if let Some(announce) = announce {
        load.first(announce).map_err(io("first request"))?;
    }
    let t0 = Instant::now();
    load.pipelined(phases.warmup).map_err(io("warm-up"))?;
    let warmup_s = t0.elapsed().as_secs_f64();

    let probe = Probe::start(pin::SERVER).map_err(io("speed probe"))?;
    let mut slowdown = probe.slowdown().map_err(io("speed probe"))?;
    let tid = server.tid.as_deref();
    let server0 = schedstat(tid).unwrap_or_default();
    let client0 = schedstat(None).unwrap_or_default();
    let events0 = telemetry::total_recorded();
    let set_recording = |on: bool| {
        if let Some(flag) = recording {
            flag.store(on, Ordering::Relaxed);
        }
    };
    set_recording(true);
    let mut clocks = Vec::new();
    for _ in 0..phases.windows {
        let mut clock = Clock::new(workload.host_sensitivity());
        for _ in 0..SUBS {
            let t = Instant::now();
            load.pipelined(phases.sub()).map_err(io("throughput"))?;
            let seconds = t.elapsed().as_secs_f64();
            let after = probe.slowdown().map_err(io("speed probe"))?;
            clock.add(seconds, slowdown, after);
            slowdown = after;
        }
        clocks.push(clock);
    }
    set_recording(false);
    let events = telemetry::total_recorded() - events0;
    let server1 = schedstat(tid).unwrap_or_default();
    let client1 = schedstat(None).unwrap_or_default();
    drop(probe);

    let latency_us = load.ping_pong(phases.latency).map_err(io("latency"))?;
    let end = server.finish(load.client())?;
    let window = phases.window as f64;
    Ok(ServedRun {
        warmup_s,
        window_rates: clocks.iter().map(|c| window / c.wall).collect(),
        scaled_rates: clocks.iter().map(|c| window / c.scaled).collect(),
        throughput_requests: phases.windows * phases.window,
        latency_us,
        attempted: load.traffic.sent(),
        keys: std::mem::take(&mut load.traffic.keys),
        failures: load.failures,
        server_cpu_ns: server1.0 - server0.0,
        server_wait_ns: server1.1 - server0.1,
        client_cpu_ns: client1.0 - client0.0,
        throughput_wall_ns: (clocks.iter().map(|c| c.wall).sum::<f64>() * 1e9) as u64,
        events,
        end,
    })
}
