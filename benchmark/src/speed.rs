//! Host speed. The reference host is a shared VM. Each of its CPUs runs
//! the same code up to ~1.5× slower while a neighbour keeps the physical
//! core's other hardware thread busy; that state comes and goes within
//! tens of milliseconds, and how much of the time it holds drifts over
//! minutes. A rate timed in wall time spreads 15–35% from run to run with
//! the program unchanged.
//!
//! So the timed phases are cut into sub-windows of tens of milliseconds.
//! Between two sub-windows the work stops, and a [`Meter`] on each CPU
//! that does the work times a fixed reference kernel. A sub-window's time
//! is divided by `s^β`, where `s` is the mean slowdown measured on its two
//! sides and `β` how strongly the workload's own speed follows the
//! kernel's (`Workload::host_sensitivity`). Rates and call times so scaled
//! are those of the reference host at rest.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Chunks of each kernel a measurement times; their median counts.
const CHUNKS: usize = 64;

/// Median ns of one chunk of each kernel (sort, scan, round trip) on the
/// reference host at rest (Xeon at 2.1 GHz, 2 vCPUs of a shared VM).
const REFERENCE_NS: [f64; 3] = [2_400.0, 4_350.0, 820.0];

/// The reference kernel's state on one thread. It mixes what the program
/// spends its time on: sorting short arrays between clock reads, scanning
/// text, and a socket round trip through the kernel.
pub struct Meter {
    rng: u64,
    keys: [u64; 32],
    text: Vec<u8>,
    offset: usize,
    pair: (UnixStream, UnixStream),
}

impl Meter {
    pub fn new() -> std::io::Result<Meter> {
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let text = (0..64 << 10)
            .map(|_| b"etaoin shrdlu "[(xorshift(&mut rng) % 14) as usize])
            .collect();
        Ok(Meter {
            rng,
            keys: [0; 32],
            text,
            offset: 0,
            pair: UnixStream::pair()?,
        })
    }

    /// Eight sorts of 32 pseudo-random keys, each followed by a clock read.
    fn sort(&mut self) {
        for _ in 0..8 {
            for k in self.keys.iter_mut() {
                *k = xorshift(&mut self.rng);
            }
            self.keys.sort_unstable();
            std::hint::black_box((&self.keys, Instant::now()));
        }
    }

    /// Occurrences of a two-byte pattern in the next 4 KiB of the text.
    fn scan(&mut self) {
        self.offset = (self.offset + 4096) % (self.text.len() - 4096);
        let slice = &self.text[self.offset..self.offset + 4096];
        std::hint::black_box(
            slice
                .windows(2)
                .filter(|w| w[0] == b'e' && w[1] == b' ')
                .count(),
        );
    }

    /// 48 bytes through a Unix socket pair and back out.
    fn round_trip(&mut self) {
        let mut buf = [0u8; 48];
        let moved = self.pair.0.write_all(&buf);
        moved
            .and_then(|()| self.pair.1.read_exact(&mut buf))
            .expect("a connected socket pair carries 48 bytes");
    }

    /// This thread's CPU against the reference host at rest: the geometric
    /// mean over the kernels of their median chunk time over the
    /// reference's. 1 at rest, larger when slower.
    pub fn slowdown(&mut self) -> f64 {
        let mut log_sum = 0.0;
        for (kernel, reference) in REFERENCE_NS.iter().enumerate() {
            let mut ns = [0.0; CHUNKS];
            for sample in ns.iter_mut() {
                let t0 = Instant::now();
                match kernel {
                    0 => self.sort(),
                    1 => self.scan(),
                    _ => self.round_trip(),
                }
                *sample = t0.elapsed().as_nanos() as f64;
            }
            ns.sort_by(f64::total_cmp);
            log_sum += (ns[CHUNKS / 2] / reference).ln();
        }
        (log_sum / REFERENCE_NS.len() as f64).exp()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A [`Meter`] on a thread of its own, pinned to the `slot`-th allowed
/// CPU, that measures when asked. Dropping it stops and joins the thread.
pub struct Probe {
    ask: Option<mpsc::Sender<()>>,
    answers: mpsc::Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Probe {
    pub fn start(slot: usize) -> std::io::Result<Probe> {
        let mut meter = Meter::new()?;
        let (ask, asked) = mpsc::channel();
        let (answer, answers) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("speed-probe".into())
            .spawn(move || {
                crate::pin::pin(slot);
                while asked.recv().is_ok() {
                    if answer.send(meter.slowdown()).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Probe {
            ask: Some(ask),
            answers,
            thread: Some(thread),
        })
    }

    /// The probed CPU's slowdown now; blocks while the kernel runs.
    pub fn slowdown(&self) -> std::io::Result<f64> {
        let gone = || std::io::Error::other("speed probe thread ended");
        self.ask
            .as_ref()
            .expect("asked before drop")
            .send(())
            .map_err(|_| gone())?;
        self.answers.recv().map_err(|_| gone())
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.ask.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What a time measured between slowdowns `before` and `after` is divided
/// by to read as on the reference host at rest, for work whose speed
/// follows the kernel's with exponent `sensitivity`.
pub fn divisor(sensitivity: f64, before: f64, after: f64) -> f64 {
    ((before + after) / 2.0).powf(sensitivity)
}

/// Time summed over sub-windows, in wall seconds and in seconds of the
/// reference host at rest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Clock {
    pub wall: f64,
    pub scaled: f64,
    sensitivity: f64,
}

impl Clock {
    pub fn new(sensitivity: f64) -> Clock {
        Clock {
            wall: 0.0,
            scaled: 0.0,
            sensitivity,
        }
    }

    /// Add a sub-window of `seconds` with slowdowns `before` and `after`.
    pub fn add(&mut self, seconds: f64, before: f64, after: f64) {
        self.wall += seconds;
        self.scaled += seconds / divisor(self.sensitivity, before, after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clock_scales_each_sub_window_by_its_mean_slowdown() {
        let mut c = Clock::new(1.0);
        c.add(1.0, 1.0, 1.0);
        c.add(3.0, 1.4, 1.6);
        assert_eq!((c.wall, c.scaled), (4.0, 3.0));
        // Work half as sensitive to the host: 4 s at a slowdown of 4.
        let mut c = Clock::new(0.5);
        c.add(4.0, 3.0, 5.0);
        assert_eq!((c.wall, c.scaled), (4.0, 2.0));
    }

    #[test]
    fn a_probe_reports_a_plausible_slowdown() {
        let probe = Probe::start(0).expect("probe starts");
        for _ in 0..2 {
            let s = probe.slowdown().expect("probe measures");
            assert!(s > 0.1 && s < 10.0, "{s}");
        }
    }
}
