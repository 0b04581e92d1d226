//! The always-on tuning service: a zero-dependency TCP server that
//! dispatches requests through live tuning sites.
//!
//! The paper's pitch — and this repo's north star — is autotuning as a
//! property of a *running application*, not a batch experiment. This
//! module turns the multi-site runtime ([`crate::site`]) into exactly
//! that: a long-lived server whose request handlers call through tuning
//! sites, so every request both benefits from and feeds the optimization.
//!
//! # Pieces
//!
//! * [`protocol`] — the length-prefixed binary wire format (`[u32 LE
//!   len][u8 op][payload]`) plus allocation-free parse/serialize helpers.
//! * [`serve`] — the poll loop: nonblocking sockets, per-connection
//!   reused read/write buffers, in-place frame parsing, batched response
//!   writes. Single-threaded by design: one thread owns every socket, so
//!   each request's site call wins the claim CAS — the serving loop *is*
//!   the tuning loop, at the rate each site's tuning-rate controller sets
//!   ([`crate::site`]): every request while a site learns, one in up to
//!   64 once it has plateaued.
//! * [`RequestHandler`] — the application hook. The server owns transport
//!   and the built-in opcodes (ping, stats, subscribe, quit); match /
//!   render / morph payloads are delegated to the handler, which is where
//!   the workload crates' tuned entry points get wired in (see
//!   `experiments serve`).
//! * [`Client`] — a small blocking client used by the load generator,
//!   the benches and the tests; supports deep pipelining (many frames per
//!   write) which is how the throughput target is met.
//! * Live telemetry: a connection that sends `OP_SUBSCRIBE` (or GETs
//!   `/stream`) receives the global telemetry ring incrementally as JSONL
//!   chunks — concatenated chunks are byte-identical to a batch export.
//!
//! A minimal HTTP/1.1 fallback answers `GET /stats` (JSON), `GET /stream`
//! (ndjson), and `GET /` (a plain-text index) on the same port, detected
//! by the first bytes of the connection, so a browser or `curl` can peek
//! at a live server without a custom client.

mod client;
pub mod protocol;
mod server;

pub use client::Client;
pub use server::{serve, ServeConfig, ServeReport, StopFlag};

use crate::json::Json;

/// Application-side request dispatch for [`serve`].
///
/// The server calls [`RequestHandler::handle`] for every frame whose
/// opcode it does not own (anything but ping/stats/subscribe/quit —
/// notably [`protocol::OP_MATCH`], [`protocol::OP_RENDER`] and
/// [`protocol::OP_MORPH`]). The handler must append **exactly one**
/// response frame to `out` (via [`protocol::write_frame`] or
/// [`protocol::begin_frame`]/[`protocol::end_frame`], serializing straight
/// into the connection's output buffer) and return `true`, or return
/// `false` to make the server answer with an [`protocol::OP_ERR`] frame.
///
/// Handlers run on the poll-loop thread, so a site call inside `handle`
/// always wins the site's claim: every served request is a full tuning
/// iteration. This is also where drift detection lives — the handler owns
/// one [`crate::drift::DriftMonitor`] per site and feeds it the measured
/// runtime of each call (see [`crate::drift::observe_and_restart`]).
pub trait RequestHandler {
    /// Handle one application frame; see the trait docs for the contract.
    fn handle(&mut self, op: u8, payload: &[u8], out: &mut Vec<u8>) -> bool;

    /// Application counters merged into the `OP_STATS` / `GET /stats`
    /// response under `"app"`. Default: absent.
    fn stats_json(&self) -> Option<Json> {
        None
    }
}

/// A log-scale latency histogram: power-of-two nanosecond octaves, eight
/// sub-buckets each (relative quantile error ≤ ~9%), fixed 512-slot
/// footprint, O(1) record. Used for the server's per-request service-time
/// percentiles and reused by the `serve` bench for client-side p99.
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Box<[u64; 512]>,
    count: u64,
    max_ns: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            buckets: Box::new([0; 512]),
            count: 0,
            max_ns: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 8 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros() as usize;
        (msb * 8 + ((ns >> (msb - 3)) & 7) as usize).min(511)
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds — the representative
    /// (geometric-mid) value of the bucket containing that rank, clamped
    /// to the observed maximum. Returns 0.0 while empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let rep = if i < 8 {
                    i as f64
                } else {
                    let msb = i / 8;
                    let sub = (i % 8) as f64;
                    // Low edge of the sub-bucket plus half a sub-bucket.
                    (1u64 << msb) as f64 * (1.0 + (sub + 0.5) / 8.0)
                };
                return rep.min(self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_hist_quantiles_are_log_accurate() {
        let mut h = LatencyHist::new();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max_ns(), 100_000);
        for (q, expect) in [(0.5, 50_000.0), (0.99, 99_000.0), (1.0, 100_000.0)] {
            let got = h.quantile(q);
            let err = (got - expect).abs() / expect;
            assert!(err < 0.10, "q={q}: got {got}, want ~{expect}");
        }
    }

    #[test]
    fn latency_hist_merge_matches_combined() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut all = LatencyHist::new();
        for i in 0..1000u64 {
            let ns = 17 + i * 13;
            if i % 2 == 0 {
                a.record(ns);
            } else {
                b.record(ns);
            }
            all.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile(0.99), all.quantile(0.99));
        assert_eq!(a.max_ns(), all.max_ns());
    }

    #[test]
    fn latency_hist_handles_tiny_and_huge() {
        let mut h = LatencyHist::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }
}
