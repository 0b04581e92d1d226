//! The serving poll loop: nonblocking accept/read/dispatch/flush over
//! plain `std::net`, engineered so the steady-state per-request cost is a
//! frame parse, the site-dispatched work itself, and an amortized share
//! of one `read`/`write` syscall per pipelined batch. For 50 µs after it
//! answers a request, a pass that moves no bytes yields its CPU and looks
//! again, so a closed-loop client's next request finds the loop running.
//! Past that window such a pass blocks in `poll(2)` until a socket is
//! ready, so an idle server is off the CPU and a request that arrives
//! wakes it at once. The window costs at most 50 µs of yielding spin per
//! answered request.

use super::protocol::{self, Frame, Parse};
use super::{LatencyHist, RequestHandler};
use crate::json::Json;
use crate::telemetry::{self, Event};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Limits for [`serve`]: connections, drain time and output backlog.
/// How an idle loop waits is fixed, not configured (see [`serve`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connections beyond this are accepted and immediately closed.
    pub max_connections: usize,
    /// How long the graceful-shutdown drain may spend flushing pending
    /// response bytes before connections are dropped.
    pub drain_timeout: Duration,
    /// Disconnect a connection whose un-flushed output exceeds this
    /// (a subscriber that stopped reading must not hold the server's
    /// memory hostage).
    pub max_backlog: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_connections: 64,
            drain_timeout: Duration::from_secs(2),
            max_backlog: 64 << 20,
        }
    }
}

/// Cooperative stop signal for [`serve`]: cloneable, settable from any
/// thread (or from the wire via `OP_QUIT`).
#[derive(Clone, Default)]
pub struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    /// A fresh, unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask the server to shut down gracefully.
    pub fn stop(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has a shutdown been requested?
    pub fn is_stopped(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// What a completed [`serve`] run did — the substance of
/// `results/serve.json`.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Frames dispatched (all opcodes, including pings and stats).
    pub requests: u64,
    /// Frames delegated to the [`RequestHandler`] (match/render/morph).
    pub app_requests: u64,
    /// Error frames sent (malformed input, unknown opcodes, handler
    /// rejections).
    pub errors: u64,
    /// Connections accepted over the run.
    pub connections: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Telemetry events streamed to live subscribers.
    pub events_streamed: u64,
    /// Wall-clock seconds from first poll to shutdown.
    pub elapsed_s: f64,
    /// Requests per second over the whole run.
    pub throughput_rps: f64,
    /// Median per-request service time (dispatch entry to response
    /// serialized), microseconds.
    pub p50_us: f64,
    /// 99th-percentile service time, microseconds.
    pub p99_us: f64,
    /// Worst service time, microseconds.
    pub max_us: f64,
    /// Blocking waits of the main loop (`poll(2)`, or the nap on targets
    /// other than Linux): passes that moved no bytes past the spin window
    /// that follows each answered request. Roughly how many requests paid
    /// the server's wake-up. The shutdown drain's waits do not count.
    pub idle_waits: u64,
}

impl ServeReport {
    /// The report as a JSON object (the `"server"` section of
    /// `results/serve.json`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::Num(self.requests as f64)),
            ("app_requests", Json::Num(self.app_requests as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("connections", Json::Num(self.connections as f64)),
            ("bytes_in", Json::Num(self.bytes_in as f64)),
            ("bytes_out", Json::Num(self.bytes_out as f64)),
            ("events_streamed", Json::Num(self.events_streamed as f64)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("max_us", Json::Num(self.max_us)),
            ("idle_waits", Json::Num(self.idle_waits as f64)),
        ])
    }
}

/// Read-buffer chunk size: one `read` call tries to pull this much.
const READ_CHUNK: usize = 64 << 10;

/// Longest an idle pass blocks before the loop looks again at what no
/// socket signals: an external [`StopFlag::stop`], and telemetry that
/// other threads recorded for live subscribers.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// How long after answering a request an idle pass spins (yielding its
/// CPU each time) instead of blocking. A closed-loop client that sends
/// its next request within the window finds the loop still running, so
/// its round trip no longer pays the server's wake-up (~10 µs on a
/// 2-core VM). The client's turnaround is under 20 µs there: a 20 µs
/// window already gave the whole round-trip gain, and 200 µs gave no
/// more. The cost is at most 50 µs of yielding spin per answered request.
const SPIN: Duration = Duration::from_micros(50);

struct Conn {
    stream: TcpStream,
    /// Reused receive buffer; `rlen` bytes valid, parsed frames are
    /// compacted away once per read batch.
    rbuf: Vec<u8>,
    rlen: usize,
    /// Reused send buffer; `wpos..` is pending. Cleared (capacity kept)
    /// once fully flushed.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Live telemetry subscriber (binary `OP_EVENTS` frames)?
    subscribed: bool,
    /// Detected as HTTP; `http_stream` marks the ndjson `/stream` route.
    http: bool,
    http_stream: bool,
    /// Close once `wbuf` drains.
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            rlen: 0,
            wbuf: Vec::new(),
            wpos: 0,
            subscribed: false,
            http: false,
            http_stream: false,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Nonblocking read into the reused buffer; returns bytes read.
    fn fill(&mut self) -> usize {
        let mut total = 0;
        loop {
            if self.rbuf.len() < self.rlen + READ_CHUNK {
                self.rbuf.resize(self.rlen + READ_CHUNK, 0);
            }
            match self.stream.read(&mut self.rbuf[self.rlen..]) {
                Ok(0) => {
                    // Peer closed its write side; flush what we owe, then go.
                    self.close_after_flush = true;
                    return total;
                }
                Ok(n) => {
                    self.rlen += n;
                    total += n;
                    if self.rlen < self.rbuf.len() {
                        return total; // short read: socket drained
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return total,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return total;
                }
            }
        }
    }

    /// Flush pending output; returns bytes written.
    fn flush(&mut self) -> usize {
        let mut total = 0;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.close_after_flush {
                self.dead = true;
            }
        }
        total
    }
}

/// Run the serving loop until `stop` is raised (externally or by an
/// `OP_QUIT` frame). The listener is switched to nonblocking; everything
/// — accepts, reads, request dispatch through `handler`, telemetry
/// streaming, writes — happens on the calling thread. Returns the run's
/// [`ServeReport`] after the graceful drain.
///
/// A pass that moves no bytes within 50 µs of the last answered request
/// (a dispatched frame or an HTTP request) calls
/// [`std::thread::yield_now`] and passes again: a client that sends its
/// next request within that window finds the loop still running and does
/// not pay its wake-up, and any other runnable thread on the loop's CPU
/// (a co-located client, a pool worker) runs first. Bytes that answer no
/// request do not open the window, so a slow reader or a dribbling
/// writer never keeps the loop spinning. The window costs at most 50 µs
/// of yielding spin per answered request.
///
/// Past the window, a pass that moves no bytes waits for readiness: on
/// the listener, for input on every connection that has not reached EOF,
/// and for room to write on every connection with unflushed output
/// ([`ServeReport::idle_waits`] counts these waits). The wait ends after
/// at most 10 ms, which bounds how late an external `stop` or a live
/// subscriber's telemetry from other threads is noticed. The drain waits
/// the same way for room to write, up to `drain_timeout`. On targets
/// other than Linux both waits are a fixed 100 µs nap instead.
pub fn serve(
    listener: TcpListener,
    handler: &mut dyn RequestHandler,
    config: &ServeConfig,
    stop: &StopFlag,
) -> std::io::Result<ServeReport> {
    listener.set_nonblocking(true)?;
    let start = Instant::now();
    let mut conns: Vec<Conn> = Vec::new();
    let mut report = ServeReport::default();
    let mut hist = LatencyHist::new();
    // Telemetry-streaming scratch, reused across the whole run.
    let mut ev_scratch: Vec<Event> = Vec::new();
    let mut jsonl_scratch = String::new();
    let mut readiness = Readiness::default();
    // When the loop last answered a request: the start of its spin window.
    let mut answered_at: Option<Instant> = None;

    while !stop.is_stopped() {
        let mut moved = 0usize;
        let answered_before = report.requests;

        // Accept everything pending.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    moved += 1;
                    if conns.len() >= config.max_connections {
                        drop(stream); // at capacity: refuse by closing
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    conns.push(Conn::new(stream));
                    report.connections += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }

        // Read + dispatch per connection.
        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            let got = conn.fill();
            moved += got;
            report.bytes_in += got as u64;
            if conn.rlen == 0 || conn.dead {
                continue;
            }
            if !conn.http && looks_like_http(&conn.rbuf[..conn.rlen]) {
                conn.http = true;
            }
            if conn.http {
                handle_http(conn, handler, &hist, &mut report, start);
            } else {
                dispatch_frames(conn, handler, &mut hist, &mut report, start, stop);
            }
        }

        // Stream freshly recorded telemetry to subscribers (only drained
        // while someone is listening, so an unsubscribed server keeps its
        // ring intact for the shutdown export).
        if conns
            .iter()
            .any(|c| !c.dead && (c.subscribed || c.http_stream))
        {
            jsonl_scratch.clear();
            let n = telemetry::drain_jsonl_into(&mut ev_scratch, &mut jsonl_scratch);
            if n > 0 {
                report.events_streamed += n as u64;
                for conn in conns.iter_mut().filter(|c| !c.dead) {
                    if conn.subscribed {
                        protocol::write_frame(
                            &mut conn.wbuf,
                            protocol::OP_EVENTS,
                            jsonl_scratch.as_bytes(),
                        );
                    } else if conn.http_stream {
                        conn.wbuf.extend_from_slice(jsonl_scratch.as_bytes());
                    }
                }
            }
        }

        // Batched flush.
        for conn in conns.iter_mut() {
            if !conn.dead {
                let wrote = conn.flush();
                moved += wrote;
                report.bytes_out += wrote as u64;
                if conn.wbuf.len() - conn.wpos > config.max_backlog {
                    conn.dead = true;
                }
            }
        }
        conns.retain(|c| !c.dead);

        // Only an answered request opens the spin window: bytes that
        // complete no request (a slow reader, a dribbling writer) never
        // keep the loop on its CPU.
        if report.requests > answered_before {
            answered_at = Some(Instant::now());
        } else if moved == 0 {
            if answered_at.is_some_and(|t| t.elapsed() < SPIN) {
                // Let any other runnable thread on this CPU (a co-located
                // client, a pool worker) go first.
                std::thread::yield_now();
            } else {
                report.idle_waits += 1;
                readiness.wait(Some(&listener), &conns, IDLE_WAIT);
            }
        }
    }

    // Graceful drain: give pending responses (quit acks, final telemetry
    // chunks) a bounded window to reach their clients.
    let deadline = Instant::now() + config.drain_timeout;
    loop {
        let mut pending = false;
        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            report.bytes_out += conn.flush() as u64;
            pending |= !conn.dead && conn.wpos < conn.wbuf.len();
        }
        let now = Instant::now();
        if !pending || now >= deadline {
            break;
        }
        readiness.wait(None, &conns, deadline - now);
    }

    report.elapsed_s = start.elapsed().as_secs_f64();
    report.throughput_rps = if report.elapsed_s > 0.0 {
        report.requests as f64 / report.elapsed_s
    } else {
        0.0
    };
    report.p50_us = hist.quantile(0.50) / 1_000.0;
    report.p99_us = hist.quantile(0.99) / 1_000.0;
    report.max_us = hist.max_ns() as f64 / 1_000.0;
    Ok(report)
}

/// The loop's wait for socket readiness: one `poll(2)` on Linux, a fixed
/// nap elsewhere.
#[derive(Default)]
struct Readiness {
    /// The `pollfd` set, rebuilt by every wait; it keeps its capacity, so
    /// the steady state allocates nothing.
    #[cfg(target_os = "linux")]
    fds: Vec<sys::PollFd>,
}

impl Readiness {
    /// Block until a watched socket is ready or `timeout` has passed. With
    /// a `listener` (an idle pass) the set is the listener, input on every
    /// connection that has not reached EOF, and room to write on every
    /// connection with unflushed output. Without one (the drain) it is
    /// room to write only. A socket at EOF stays readable for good, so
    /// watching one for input would end every wait at once.
    #[cfg(target_os = "linux")]
    fn wait(&mut self, listener: Option<&TcpListener>, conns: &[Conn], timeout: Duration) {
        use std::os::fd::AsRawFd;
        self.fds.clear();
        if let Some(listener) = listener {
            self.fds
                .push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
        }
        for conn in conns.iter().filter(|c| !c.dead) {
            let mut events = 0;
            if listener.is_some() && !conn.close_after_flush {
                events |= sys::POLLIN;
            }
            if conn.wpos < conn.wbuf.len() {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                self.fds
                    .push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
            }
        }
        // Round up, so a sub-millisecond remainder still blocks.
        let ms = timeout.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32;
        // SAFETY: `fds` points to `fds.len()` initialized `pollfd`s that
        // stay alive and unaliased for the call. The result is not read:
        // an error (EINTR) only ends the wait early, and the loop then
        // polls its sockets again.
        unsafe { sys::poll(self.fds.as_mut_ptr(), self.fds.len() as _, ms) };
    }

    #[cfg(not(target_os = "linux"))]
    fn wait(&mut self, _listener: Option<&TcpListener>, _conns: &[Conn], timeout: Duration) {
        /// The nap that stands in for readiness where `poll` is not declared.
        const NAP: Duration = Duration::from_micros(100);
        std::thread::sleep(NAP.min(timeout));
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        pub fn new(fd: c_int, events: c_short) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Parse and dispatch every complete frame in the connection's buffer,
/// then compact the leftovers to the front.
fn dispatch_frames(
    conn: &mut Conn,
    handler: &mut dyn RequestHandler,
    hist: &mut LatencyHist,
    report: &mut ServeReport,
    start: Instant,
    stop: &StopFlag,
) {
    let mut off = 0usize;
    loop {
        match protocol::parse_frame(&conn.rbuf[off..conn.rlen]) {
            Parse::Incomplete => break,
            Parse::Malformed => {
                protocol::write_frame(&mut conn.wbuf, protocol::OP_ERR, b"malformed frame");
                report.errors += 1;
                conn.close_after_flush = true;
                off = conn.rlen; // discard the rest; the stream is garbage
                break;
            }
            Parse::Ready(frame) => {
                let t0 = Instant::now();
                dispatch_one(conn, frame, off, handler, report, start, stop);
                hist.record(t0.elapsed().as_nanos() as u64);
                report.requests += 1;
                off += frame.wire_len;
            }
        }
    }
    if off > 0 {
        conn.rbuf.copy_within(off..conn.rlen, 0);
        conn.rlen -= off;
    }
}

fn dispatch_one(
    conn: &mut Conn,
    frame: Frame,
    off: usize,
    handler: &mut dyn RequestHandler,
    report: &mut ServeReport,
    start: Instant,
    stop: &StopFlag,
) {
    let (p0, p1) = frame.payload;
    match frame.op {
        protocol::OP_PING => {
            // Echo straight out of the receive buffer (disjoint fields,
            // so the borrow splits without a staging copy).
            let mark = protocol::begin_frame(&mut conn.wbuf, protocol::OP_PING);
            conn.wbuf.extend_from_slice(&conn.rbuf[off + p0..off + p1]);
            protocol::end_frame(&mut conn.wbuf, mark);
        }
        protocol::OP_STATS => {
            let json = stats_json(handler, report, start).to_string();
            protocol::write_frame(&mut conn.wbuf, protocol::OP_STATS, json.as_bytes());
        }
        protocol::OP_SUBSCRIBE => {
            conn.subscribed = true;
            protocol::write_frame(&mut conn.wbuf, protocol::OP_SUBSCRIBE, b"");
        }
        protocol::OP_QUIT => {
            protocol::write_frame(&mut conn.wbuf, protocol::OP_QUIT, b"");
            stop.stop();
        }
        op => {
            // Payload borrows rbuf, the response goes to wbuf — disjoint
            // fields, so the handler sees the bytes in place (no copy).
            let handled = handler.handle(op, &conn.rbuf[off + p0..off + p1], &mut conn.wbuf);
            if handled {
                report.app_requests += 1;
            } else {
                protocol::write_frame(&mut conn.wbuf, protocol::OP_ERR, b"unknown opcode");
                report.errors += 1;
            }
        }
    }
}

fn stats_json(handler: &dyn RequestHandler, report: &ServeReport, start: Instant) -> Json {
    let mut pairs = vec![
        ("uptime_s", Json::Num(start.elapsed().as_secs_f64())),
        ("requests", Json::Num(report.requests as f64)),
        ("app_requests", Json::Num(report.app_requests as f64)),
        ("errors", Json::Num(report.errors as f64)),
        ("connections", Json::Num(report.connections as f64)),
        ("events_streamed", Json::Num(report.events_streamed as f64)),
        ("idle_waits", Json::Num(report.idle_waits as f64)),
        ("telemetry", telemetry::metrics().to_json()),
    ];
    if let Some(app) = handler.stats_json() {
        pairs.push(("app", app));
    }
    Json::obj(pairs)
}

// ---------------------------------------------------------------------
// HTTP/1.1 fallback
// ---------------------------------------------------------------------

fn looks_like_http(buf: &[u8]) -> bool {
    buf.len() >= 4 && (&buf[..4] == b"GET " || &buf[..4] == b"HEAD")
}

/// Serve one HTTP request once its header block is complete. One request
/// per connection (`Connection: close`), except `/stream` which stays
/// open and is closed by server shutdown.
fn handle_http(
    conn: &mut Conn,
    handler: &mut dyn RequestHandler,
    hist: &LatencyHist,
    report: &mut ServeReport,
    start: Instant,
) {
    if conn.http_stream {
        conn.rlen = 0; // a streaming client has nothing more to say
        return;
    }
    let head = &conn.rbuf[..conn.rlen];
    let Some(end) = find_header_end(head) else {
        if conn.rlen > 16 << 10 {
            conn.dead = true; // header flood
        }
        return;
    };
    let line = head.split(|&b| b == b'\r').next().unwrap_or(b"");
    let path = line
        .split(|&b| b == b' ')
        .nth(1)
        .map(|p| String::from_utf8_lossy(p).into_owned())
        .unwrap_or_default();
    let _ = end;
    conn.rlen = 0;
    report.requests += 1;
    match path.as_str() {
        "/stats" => {
            let body = stats_json(handler, report, start).to_string();
            http_response(
                &mut conn.wbuf,
                "200 OK",
                "application/json",
                body.as_bytes(),
            );
            conn.close_after_flush = true;
        }
        "/stream" => {
            conn.wbuf.extend_from_slice(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                  Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
            );
            conn.http_stream = true;
        }
        "/" => {
            let p99 = hist.quantile(0.99) / 1_000.0;
            let body = format!(
                "autotune serve\n\nrequests: {}\napp_requests: {}\np99_us: {:.1}\n\n\
                 endpoints:\n  GET /stats   server + app counters (JSON)\n  \
                 GET /stream  live telemetry (ndjson)\n",
                report.requests, report.app_requests, p99
            );
            http_response(&mut conn.wbuf, "200 OK", "text/plain", body.as_bytes());
            conn.close_after_flush = true;
        }
        _ => {
            http_response(
                &mut conn.wbuf,
                "404 Not Found",
                "text/plain",
                b"not found\n",
            );
            report.errors += 1;
            conn.close_after_flush = true;
        }
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn http_response(out: &mut Vec<u8>, status: &str, content_type: &str, body: &[u8]) {
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Client;

    /// Test handler: `OP_MATCH` reverses the payload; everything else is
    /// unknown.
    struct Reverser;
    impl RequestHandler for Reverser {
        fn handle(&mut self, op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
            if op != protocol::OP_MATCH {
                return false;
            }
            let mark = protocol::begin_frame(out, protocol::OP_MATCH);
            out.extend(payload.iter().rev());
            protocol::end_frame(out, mark);
            true
        }
        fn stats_json(&self) -> Option<Json> {
            Some(Json::obj(vec![("handler", Json::Str("reverser".into()))]))
        }
    }

    fn spawn_server() -> (String, std::thread::JoinHandle<ServeReport>, StopFlag) {
        let (addr, handle, stop, _) = spawn_server_with_tid();
        (addr, handle, stop)
    }

    /// Like `spawn_server`, plus the server thread's kernel thread id
    /// (from `/proc/thread-self`; `None` where that does not exist), whose
    /// scheduler counters the readiness-wait tests read.
    fn spawn_server_with_tid() -> (
        String,
        std::thread::JoinHandle<ServeReport>,
        StopFlag,
        Option<String>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = StopFlag::new();
        let stop2 = stop.clone();
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let tid = std::fs::read_link("/proc/thread-self")
                .ok()
                .and_then(|link| Some(link.file_name()?.to_string_lossy().into_owned()));
            tid_tx.send(tid).unwrap();
            serve(listener, &mut Reverser, &ServeConfig::default(), &stop2).unwrap()
        });
        (addr, handle, stop, tid_rx.recv().unwrap())
    }

    /// `voluntary_ctxt_switches` of a thread of this process: how often
    /// it blocked.
    #[cfg(target_os = "linux")]
    fn voluntary_switches(tid: &str) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("status reports voluntary_ctxt_switches")
    }

    /// On-CPU nanoseconds of a thread of this process (the first field of
    /// its `schedstat`).
    #[cfg(target_os = "linux")]
    fn on_cpu_ns(tid: &str) -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).unwrap();
        stat.split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .expect("schedstat starts with on-CPU ns")
    }

    #[test]
    fn ping_match_stats_quit_round_trip() {
        let (addr, handle, _stop) = spawn_server();
        let mut c = Client::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        let (op, body) = c.request(protocol::OP_PING, b"hello").unwrap();
        assert_eq!((op, body.as_slice()), (protocol::OP_PING, &b"hello"[..]));

        let (op, body) = c.request(protocol::OP_MATCH, b"abc").unwrap();
        assert_eq!((op, body.as_slice()), (protocol::OP_MATCH, &b"cba"[..]));

        let (op, body) = c.request(protocol::OP_STATS, b"").unwrap();
        assert_eq!(op, protocol::OP_STATS);
        let stats = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(stats.get("app_requests").and_then(Json::as_f64), Some(1.0));
        assert!(stats.get("idle_waits").and_then(Json::as_f64).is_some());
        assert_eq!(
            stats
                .get("app")
                .and_then(|a| a.get("handler"))
                .and_then(Json::as_str),
            Some("reverser")
        );

        let (op, _) = c.request(protocol::OP_QUIT, b"").unwrap();
        assert_eq!(op, protocol::OP_QUIT);
        let report = handle.join().unwrap();
        assert_eq!(report.app_requests, 1);
        assert_eq!(report.errors, 0);
        assert_eq!(report.requests, 4);
        assert!(report.p99_us > 0.0);
    }

    #[test]
    fn pipelined_batches_come_back_in_order() {
        let (addr, handle, _stop) = spawn_server();
        let mut c = Client::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut batch = Vec::new();
        for i in 0..500u32 {
            protocol::write_frame(&mut batch, protocol::OP_MATCH, &i.to_le_bytes());
        }
        c.send_raw(&batch).unwrap();
        let mut body = Vec::new();
        for i in 0..500u32 {
            let op = c.recv_into(&mut body).unwrap();
            assert_eq!(op, protocol::OP_MATCH);
            let mut expect = i.to_le_bytes();
            expect.reverse();
            assert_eq!(body, expect);
        }
        c.request(protocol::OP_QUIT, b"").unwrap();
        assert_eq!(handle.join().unwrap().app_requests, 500);
    }

    #[test]
    fn unknown_opcode_gets_an_error_frame() {
        let (addr, handle, _stop) = spawn_server();
        let mut c = Client::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (op, body) = c.request(0x66, b"").unwrap();
        assert_eq!(op, protocol::OP_ERR);
        assert_eq!(body, b"unknown opcode");
        c.request(protocol::OP_QUIT, b"").unwrap();
        assert_eq!(handle.join().unwrap().errors, 1);
    }

    #[test]
    fn http_stats_fallback_works_on_the_same_port() {
        let (addr, handle, stop) = spawn_server();
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        s.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        let stats = Json::parse(body).unwrap();
        assert!(stats.get("uptime_s").and_then(Json::as_f64).is_some());
        stop.stop();
        handle.join().unwrap();
    }

    #[test]
    fn external_stop_flag_shuts_the_server_down() {
        let (addr, handle, stop) = spawn_server();
        let mut c = Client::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.request(protocol::OP_PING, b"x").unwrap();
        stop.stop();
        let report = handle.join().unwrap();
        assert_eq!(report.requests, 1);
    }

    /// An idle server blocks until a socket is ready or the wait's timeout
    /// passes; it does not wake every few hundred microseconds.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_idle_connection_does_not_wake_the_server() {
        let (addr, handle, stop, tid) = spawn_server_with_tid();
        let tid = tid.expect("the server thread has a tid");
        let mut c = Client::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.request(protocol::OP_PING, b"x").unwrap();
        let (before, cpu_before) = (voluntary_switches(&tid), on_cpu_ns(&tid));
        std::thread::sleep(Duration::from_millis(300));
        let woke = voluntary_switches(&tid) - before;
        let busy_ms = (on_cpu_ns(&tid) - cpu_before) as f64 / 1e6;
        stop.stop();
        handle.join().unwrap();
        assert!(woke <= 100, "the idle server woke {woke} times in 300 ms");
        // The spin window after the answer is 50 µs; the rest of the
        // 300 ms is spent blocked.
        assert!(
            busy_ms < 30.0,
            "the idle server spent {busy_ms:.1} ms on-CPU in 300 ms"
        );
    }

    /// Back-to-back round trips find the loop inside its spin window, so
    /// few of them pay a blocking wait.
    #[test]
    fn back_to_back_round_trips_skip_the_blocking_wait() {
        const ROUND_TRIPS: u64 = 2_000;
        let (addr, handle, _stop) = spawn_server();
        let mut c = Client::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut body = Vec::new();
        for i in 0..ROUND_TRIPS {
            let op = c
                .request_into(protocol::OP_MATCH, &i.to_le_bytes(), &mut body)
                .unwrap();
            assert_eq!(op, protocol::OP_MATCH);
        }
        c.request(protocol::OP_QUIT, b"").unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.app_requests, ROUND_TRIPS);
        assert!(
            report.idle_waits <= 400,
            "{} blocking waits over {ROUND_TRIPS} round trips",
            report.idle_waits
        );
    }

    /// A client that pipelines more echoes than the socket buffers hold,
    /// half-closes, and stops reading: the server, at EOF on that socket
    /// and unable to write, must wait for room to write rather than spin
    /// on the EOF's standing readability. Every byte still arrives in
    /// order once the client reads.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_half_closed_slow_reader_does_not_spin_the_server() {
        const FRAMES: usize = 150;
        const PAYLOAD: usize = 60_000;
        let (addr, handle, stop, tid) = spawn_server_with_tid();
        let tid = tid.expect("the server thread has a tid");
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut frames = Vec::with_capacity(FRAMES * (PAYLOAD + 5));
        for i in 0..FRAMES {
            protocol::write_frame(&mut frames, protocol::OP_PING, &[i as u8; PAYLOAD]);
        }
        s.write_all(&frames).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();

        // Much of the input is still in the socket buffers when the write
        // returns. Ask a second connection for the server's request count
        // until every ping is in, so the window below measures the stall
        // alone. A stats answer counts the stats requests before it.
        let mut probe = Client::connect(&addr).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut probes = 0u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, body) = probe.request(protocol::OP_STATS, b"").unwrap();
            let stats = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            let requests = stats.get("requests").and_then(Json::as_f64).unwrap() as u64;
            probes += 1;
            if requests - (probes - 1) == FRAMES as u64 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the server never took in every ping"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let before = on_cpu_ns(&tid);
        std::thread::sleep(Duration::from_millis(200));
        let busy_ms = (on_cpu_ns(&tid) - before) as f64 / 1e6;

        let mut echoed = Vec::new();
        s.read_to_end(&mut echoed).unwrap();
        assert_eq!(echoed, frames, "every echo arrives, in order");
        stop.stop();
        assert_eq!(handle.join().unwrap().requests, FRAMES as u64 + probes);
        assert!(
            busy_ms < 20.0,
            "the server spent {busy_ms:.1} ms on-CPU in 200 ms of a stalled reader"
        );
    }

    /// Readiness wakes the loop for every byte of a frame that arrives
    /// slowly; the frame is answered once, when it is complete.
    #[test]
    fn a_dribbled_frame_gets_exactly_one_answer() {
        let (addr, handle, _stop) = spawn_server();
        let mut c = Client::connect(&addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut frame = Vec::new();
        protocol::write_frame(&mut frame, protocol::OP_MATCH, b"dribble");
        for byte in &frame {
            c.send_raw(std::slice::from_ref(byte)).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut body = Vec::new();
        assert_eq!(c.recv_into(&mut body).unwrap(), protocol::OP_MATCH);
        assert_eq!(body, b"elbbird");
        // The next frame back answers the next request: nothing else was
        // sent in between.
        let (op, _) = c.request(protocol::OP_QUIT, b"").unwrap();
        assert_eq!(op, protocol::OP_QUIT);
        let report = handle.join().unwrap();
        assert_eq!((report.app_requests, report.requests), (1, 2));
    }
}
