//! Seeded fuzzing of the serve wire format and the poll loop.
//!
//! 1. **Frame parser** — `protocol::parse_frame` on 120,000 seeded
//!    buffers whose length prefixes include 0, `MAX_FRAME_LEN`,
//!    `MAX_FRAME_LEN + 1` and `u32::MAX`: it never panics, a `Ready`
//!    frame lies inside the buffer, and `Malformed` comes back exactly
//!    for the zero and oversized prefixes.
//! 2. **Live server** — 240 seeded connections to a real `serve` loop.
//!    Each sends valid frames (built-in, handled and unknown opcodes,
//!    payloads of 0–4 KiB), then at most one hostile tail: a zero or
//!    oversized prefix, a truncated frame followed by a close, a `GET`
//!    of `/`, `/stats` or `/nope`, or a header over 16 KiB. Bytes go out
//!    in random chunks with pauses of 0, 10 µs, 100 µs or 2 ms, so
//!    partial input meets both the loop's spin window and its blocking
//!    wait. Every complete frame gets one well-formed answer, in order; a
//!    malformed prefix gets an `OP_ERR` and then the connection closes; an
//!    HTTP request gets a status line and then the connection closes. The
//!    server's totals match what was sent, it shuts down cleanly, and a
//!    fresh connection is still served.

use autotune::json::Json;
use autotune::rng::Rng;
use autotune::serve::protocol::{
    self, Parse, HEADER_LEN, MAX_FRAME_LEN, OP_ERR, OP_MATCH, OP_PING, OP_QUIT, OP_STATS,
    OP_SUBSCRIBE,
};
use autotune::serve::{serve, Client, RequestHandler, ServeConfig, StopFlag};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

#[test]
fn parse_frame_holds_its_contract_on_seeded_buffers() {
    const BUFFERS: usize = 120_000;
    let prefixes = [
        0u32,
        1,
        2,
        MAX_FRAME_LEN as u32,
        MAX_FRAME_LEN as u32 + 1,
        u32::MAX,
    ];
    let mut rng = Rng::new(0xF7A3E);
    let mut buf = Vec::new();
    let (mut ready, mut malformed) = (0, 0);
    for _ in 0..BUFFERS {
        buf.clear();
        let len = match rng.next_below(4) {
            0 => prefixes[rng.pick_index(prefixes.len())],
            1 => rng.next_u64() as u32,
            _ => rng.next_below(48) as u32,
        };
        if rng.next_below(8) > 0 {
            buf.extend_from_slice(&len.to_le_bytes());
        }
        // Short of, exactly at, or past the frame the prefix announces.
        let body = match rng.next_below(3) {
            0 => (len as usize).min(64),
            _ => rng.next_below(64) as usize,
        };
        let cut = rng.next_below(HEADER_LEN as u64 + 1) as usize;
        buf.extend((0..body).map(|_| rng.next_u64() as u8));
        if buf.len() > HEADER_LEN && rng.next_below(8) == 0 {
            buf.truncate(cut);
        }

        let announced = (buf.len() >= HEADER_LEN)
            .then(|| u32::from_le_bytes(buf[..HEADER_LEN].try_into().unwrap()) as usize);
        match protocol::parse_frame(&buf) {
            Parse::Ready(f) => {
                ready += 1;
                let n = announced.expect("a ready frame has a prefix");
                assert!((1..=MAX_FRAME_LEN).contains(&n), "ready on prefix {n}");
                assert_eq!(f.wire_len, HEADER_LEN + n);
                assert!(f.wire_len <= buf.len(), "frame past the buffer");
                assert_eq!(f.payload, (HEADER_LEN + 1, f.wire_len));
                assert_eq!(f.op, buf[HEADER_LEN]);
            }
            Parse::Malformed => {
                malformed += 1;
                let n = announced.expect("a malformed frame has a prefix");
                assert!(n == 0 || n > MAX_FRAME_LEN, "malformed on prefix {n}");
            }
            Parse::Incomplete => {
                if let Some(n) = announced {
                    assert!((1..=MAX_FRAME_LEN).contains(&n), "incomplete on prefix {n}");
                    assert!(buf.len() < HEADER_LEN + n);
                }
            }
        }
    }
    assert!(
        ready > 10_000 && malformed > 10_000,
        "{ready} / {malformed}"
    );
}

/// Test handler: `OP_MATCH` reverses the payload; every other opcode the
/// server hands over is unknown.
struct Reverser;

impl RequestHandler for Reverser {
    fn handle(&mut self, op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool {
        if op != OP_MATCH {
            return false;
        }
        let mark = protocol::begin_frame(out, OP_MATCH);
        out.extend(payload.iter().rev());
        protocol::end_frame(out, mark);
        true
    }
}

/// Wait `d`: spun below a millisecond, since a sleep that short
/// oversleeps by the timer slack.
fn pause(d: Duration) {
    if d >= Duration::from_millis(1) {
        std::thread::sleep(d);
    } else {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }
}

/// Write `bytes` in random chunks with random pauses in between. Returns
/// the write error if the server has already closed the connection.
fn write_chunked(s: &mut TcpStream, bytes: &[u8], rng: &mut Rng) -> std::io::Result<()> {
    const PAUSES_US: [u64; 4] = [0, 10, 100, 2_000];
    let mut off = 0;
    while off < bytes.len() {
        let left = (bytes.len() - off) as u64;
        let n = match rng.next_below(3) {
            0 => 1 + rng.next_below(left.min(7)),
            1 => 1 + rng.next_below(left.min(1_500)),
            _ => left,
        } as usize;
        s.write_all(&bytes[off..off + n])?;
        off += n;
        pause(Duration::from_micros(PAUSES_US[rng.pick_index(4)]));
    }
    Ok(())
}

/// Everything the server sends until it closes the connection. A reset
/// (the server closed with input still unread) ends it too.
fn read_rest(s: &mut TcpStream) -> Vec<u8> {
    let mut rest = Vec::new();
    match s.read_to_end(&mut rest) {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("reading to the close: {e}"),
    }
    rest
}

/// Read one frame from `s`, buffering in `buf`.
fn read_frame(s: &mut TcpStream, buf: &mut Vec<u8>) -> (u8, Vec<u8>) {
    loop {
        if let Parse::Ready(f) = protocol::parse_frame(buf) {
            let frame = (f.op, buf[f.payload.0..f.payload.1].to_vec());
            buf.drain(..f.wire_len);
            return frame;
        }
        let mut chunk = [0u8; 8192];
        let n = s.read(&mut chunk).expect("the server answers every frame");
        assert!(n > 0, "the server closed before answering every frame");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The last thing a connection sends.
#[derive(Debug, Clone, Copy)]
enum Tail {
    None,
    ZeroPrefix,
    OversizedPrefix,
    Truncated,
    Get(&'static str),
    HeaderFlood,
}

/// What the server's report must total.
#[derive(Default)]
struct Expected {
    requests: u64,
    app_requests: u64,
    errors: u64,
}

/// Run one seeded connection against the server at `addr`.
fn fuzz_connection(addr: &str, rng: &mut Rng, expected: &mut Expected) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Valid frames: built-in, handled and unknown opcodes. Subscribe and
    // quit change the connection or the server and are left out.
    let mut frames = Vec::new();
    let mut sent = Vec::new();
    for _ in 0..rng.next_below(9) {
        let op = match rng.next_below(4) {
            0 => OP_PING,
            1 => OP_MATCH,
            2 if rng.next_below(4) == 0 => OP_STATS,
            _ => loop {
                let op = rng.next_u64() as u8;
                if op != OP_SUBSCRIBE && op != OP_QUIT {
                    break op;
                }
            },
        };
        let len = if rng.next_below(4) == 0 {
            0
        } else {
            rng.next_below(4097) as usize
        };
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        protocol::write_frame(&mut frames, op, &payload);
        sent.push((op, payload));
    }
    write_chunked(&mut s, &frames, rng).unwrap();

    // One well-formed answer per frame, in order.
    let mut buf = Vec::new();
    for (op, payload) in &sent {
        let (got, body) = read_frame(&mut s, &mut buf);
        expected.requests += 1;
        match *op {
            OP_PING => assert_eq!((got, &body), (OP_PING, payload)),
            OP_MATCH => {
                expected.app_requests += 1;
                let reversed: Vec<u8> = payload.iter().rev().copied().collect();
                assert_eq!((got, body), (OP_MATCH, reversed));
            }
            OP_STATS => {
                assert_eq!(got, OP_STATS);
                let stats = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
                assert!(stats.get("requests").is_some(), "{stats}");
            }
            _ => {
                expected.errors += 1;
                assert_eq!((got, body.as_slice()), (OP_ERR, &b"unknown opcode"[..]));
            }
        }
    }
    assert!(buf.is_empty(), "an answer nobody asked for");

    // Every frame has been answered, so the tail starts a fresh buffer
    // at the server: a `GET` is taken for HTTP, a bad prefix for a frame.
    let tail = match rng.next_below(8) {
        0 | 1 => Tail::None,
        2 => Tail::ZeroPrefix,
        3 => Tail::OversizedPrefix,
        4 => Tail::Truncated,
        5 | 6 => Tail::Get(["/", "/stats", "/nope"][rng.pick_index(3)]),
        _ => Tail::HeaderFlood,
    };
    match tail {
        Tail::None => {
            s.shutdown(Shutdown::Write).unwrap();
            assert!(read_rest(&mut s).is_empty(), "{tail:?}");
        }
        Tail::ZeroPrefix | Tail::OversizedPrefix => {
            // The prefix is the last thing sent: the server answers once
            // it has all four bytes, and no input is left unread.
            let len = match tail {
                Tail::ZeroPrefix => 0,
                _ if rng.next_below(2) == 0 => u32::MAX,
                _ => MAX_FRAME_LEN as u32 + 1 + rng.next_below(1 << 20) as u32,
            };
            write_chunked(&mut s, &len.to_le_bytes(), rng).unwrap();
            expected.errors += 1;
            let mut rest = read_rest(&mut s);
            let (op, body) = read_frame(&mut s, &mut rest);
            assert_eq!((op, body.as_slice()), (OP_ERR, &b"malformed frame"[..]));
            assert!(rest.is_empty(), "{tail:?}: bytes after the error");
        }
        Tail::Truncated => {
            let mut frame = Vec::new();
            protocol::write_frame(&mut frame, OP_PING, &[7; 100]);
            let cut = 1 + rng.next_below(frame.len() as u64 - 1) as usize;
            write_chunked(&mut s, &frame[..cut], rng).unwrap();
            s.shutdown(Shutdown::Write).unwrap();
            assert!(read_rest(&mut s).is_empty(), "{tail:?}");
        }
        Tail::Get(path) => {
            let request = format!("GET {path} HTTP/1.1\r\nHost: fuzz\r\n\r\n");
            write_chunked(&mut s, request.as_bytes(), rng).unwrap();
            expected.requests += 1;
            let status = if path == "/nope" {
                expected.errors += 1;
                "HTTP/1.1 404 Not Found\r\n"
            } else {
                "HTTP/1.1 200 OK\r\n"
            };
            let response = String::from_utf8(read_rest(&mut s)).unwrap();
            assert!(response.starts_with(status), "{path}: {response}");
        }
        Tail::HeaderFlood => {
            // No end of header within 16 KiB: the server drops the
            // connection unanswered, possibly while this side still writes.
            let mut flood = b"GET / HTTP/1.1\r\n".to_vec();
            while flood.len() <= 20 << 10 {
                flood.extend_from_slice(b"X-Fuzz: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
            }
            let _ = write_chunked(&mut s, &flood, rng);
            assert!(read_rest(&mut s).is_empty(), "{tail:?}");
        }
    }
}

#[test]
fn a_live_server_survives_seeded_hostile_connections() {
    const CONNECTIONS: usize = 240;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stop = StopFlag::new();
    let server = {
        let stop = stop.clone();
        std::thread::spawn(move || serve(listener, &mut Reverser, &ServeConfig::default(), &stop))
    };

    let mut rng = Rng::new(0x5E2E_F022);
    let mut expected = Expected::default();
    for _ in 0..CONNECTIONS {
        fuzz_connection(&addr, &mut rng, &mut expected);
    }

    // Still serving after all of that.
    let mut c = Client::connect(&addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (op, body) = c.request(OP_PING, b"still here").unwrap();
    assert_eq!((op, body.as_slice()), (OP_PING, &b"still here"[..]));
    expected.requests += 1;

    stop.stop();
    let report = server
        .join()
        .expect("the server thread does not panic")
        .expect("serve returns Ok");
    assert_eq!(report.requests, expected.requests);
    assert_eq!(report.app_requests, expected.app_requests);
    assert_eq!(report.errors, expected.errors);
    assert_eq!(report.connections, CONNECTIONS as u64 + 1);
}
