//! The four workloads: their sizes, their request streams, and the checks
//! every response must pass.
//!
//! `--seed` drives only the request generators; the program's own
//! configuration (corpus, site seeds, drift knobs) is fixed, so two
//! commits run on one seed see the same inputs.

use autotune::rng::Rng;
use autotune::serve::protocol::{self, OP_ERR, OP_MATCH, OP_MORPH, OP_SORT};
use experiments::serve::{ServeOptions, MAX_SORT_N, MORPH_CORPUS_FACTOR, MORPH_LEVELS};
use smallsort::SortKey;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Requests per pipelined batch on the served loops.
pub const BATCH: u64 = 64;
/// Sub-windows per throughput window. Between two, the work stops and the
/// host's speed is measured (see `speed`).
pub const SUBS: u64 = 8;
/// Fewest rounds of an end-to-end run; after these, rounds start until
/// `--seconds` have passed.
pub const MIN_ROUNDS: u64 = 8;
/// Rounds of a `--quick` run.
pub const QUICK_ROUNDS: u64 = 4;
/// Threads driving `sort-embedded`, each on its own input stream.
pub const EMBEDDED_THREADS: usize = 2;
/// Level-0 corpus size the served match workloads run on.
pub const CORPUS_KB: usize = 64;
/// `match-drift` flips the corpus level with every this many requests.
pub const MORPH_EVERY: u64 = 2048;
/// Sort request lengths are uniform in this range: size classes 3 to 6.
pub const SORT_N: std::ops::RangeInclusive<u64> = 8..=64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SortSmall,
    Match,
    MatchDrift,
    SortEmbedded,
}

/// Request counts of the phases of one pass: a warm-up, `windows`
/// throughput windows of `window` requests each, cut into [`SUBS`]
/// sub-windows, then `latency` single round trips. Served passes count
/// requests; `sort-embedded` counts calls per thread.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warmup: u64,
    pub windows: u64,
    pub window: u64,
    pub latency: u64,
}

impl Phases {
    /// Requests of one sub-window.
    pub fn sub(&self) -> u64 {
        self.window / SUBS
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SortSmall,
        Workload::Match,
        Workload::MatchDrift,
        Workload::SortEmbedded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SortSmall => "sort-small",
            Workload::Match => "match",
            Workload::MatchDrift => "match-drift",
            Workload::SortEmbedded => "sort-embedded",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn served(self) -> bool {
        self != Workload::SortEmbedded
    }

    pub fn sorts(self) -> bool {
        matches!(self, Workload::SortSmall | Workload::SortEmbedded)
    }

    /// How strongly the workload's speed follows the host's, as measured
    /// by `speed::Meter`: the exponent β in rate ∝ slowdown^−β, fitted
    /// as the value that leaves the least run-to-run spread over two sets
    /// of ten runs per workload on the reference host. The sort workloads
    /// sit below 1 because their tuned calls time batches to a span of
    /// timer ticks, sampled once per process, which a slower CPU fills
    /// with fewer sorts; the matcher's vector loads suffer more than the
    /// reference kernel from a busy sibling thread.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::SortSmall | Workload::SortEmbedded => 0.8,
            Workload::Match | Workload::MatchDrift => 1.3,
        }
    }

    /// Warm-up, throughput-window and latency counts of one round. A
    /// window lasts 0.15–0.35 s on the reference host, so its sub-windows
    /// last 20–45 ms.
    fn sizing(self) -> (u64, u64, u64) {
        match self {
            Workload::SortSmall => (8_192, 16_384, 100),
            Workload::Match | Workload::MatchDrift => (4_096, 8_192, 100),
            Workload::SortEmbedded => (8_192, 32_768, 2_048),
        }
    }

    /// The unit of the warm-up and of a window: whole batches, and for
    /// `match-drift` whole morph cycles, so that every latency phase
    /// starts on the level-0 corpus.
    fn granule(self) -> u64 {
        match self {
            Workload::MatchDrift => 2 * MORPH_EVERY,
            _ => BATCH,
        }
    }

    /// The phases of one end-to-end round, the same however long the run;
    /// `--quick` divides every count by 10.
    pub fn round(self, quick: bool) -> Phases {
        let (warmup, window, latency) = self.sizing();
        let div = if quick { 10 } else { 1 };
        let g = self.granule();
        // Whole granules, in sub-windows of whole batches.
        let unit = g.max(SUBS * BATCH);
        Phases {
            warmup: (warmup / div).div_ceil(g) * g,
            windows: 1,
            window: (window / div / unit).max(1) * unit,
            latency: (latency / div).max(1),
        }
    }

    /// The phases of a traced pass for a run of `seconds`: a round's
    /// warm-up and window size, a window for every 4 seconds, and 400
    /// latency samples a second.
    pub fn traced(self, seconds: u64, quick: bool) -> Phases {
        let div = if quick { 10 } else { 1 };
        Phases {
            windows: (seconds / 4).max(1),
            latency: (400 * seconds / div).max(1),
            ..self.round(quick)
        }
    }
}

/// The program configuration every served workload runs: the handler of
/// `experiments serve` with a 64 KiB level-0 corpus.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        corpus_kb: CORPUS_KB,
        ..ServeOptions::default()
    }
}

/// What a response must say.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    Sort { class: u32, checksum: u64 },
    Match { level: usize },
    Morph { level: u8 },
}

/// The keys an `OP_SORT` payload of this benchmark asks for: its length
/// `n`, key seed and presort hint, decoded as the handler decodes them
/// (`n` capped at `experiments::serve::MAX_SORT_N`).
pub fn sort_payload_keys(payload: &[u8]) -> Vec<u64> {
    let n = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let seed = u64::from_le_bytes(payload[4..12].try_into().unwrap());
    sort_keys(n.min(MAX_SORT_N), seed, payload.get(12) == Some(&1))
}

/// Keys of a sort request regenerated from its seed, exactly as the
/// handler derives them.
pub fn sort_keys(n: usize, seed: u64, nearly_sorted: bool) -> Vec<u64> {
    let mut keys = Rng::new(seed);
    if nearly_sorted {
        smallsort::nearly_sorted_input(n, &mut keys)
    } else {
        (0..n).map(|_| keys.next_u64()).collect()
    }
}

pub fn checksum(data: &[u64]) -> u64 {
    data.iter().copied().fold(0u64, u64::wrapping_add)
}

/// The request-stream seed of round `round` of a run on `seed`.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_add(round << 32)
}

/// The request stream of a served workload.
pub struct Traffic {
    workload: Workload,
    rng: Rng,
    sent: u64,
    level: usize,
    /// Context keys of every sort request generated so far.
    pub keys: BTreeSet<SortKey>,
}

impl Traffic {
    pub fn new(workload: Workload, seed: u64) -> Traffic {
        assert!(workload.served(), "{} is not served", workload.name());
        Traffic {
            workload,
            rng: Rng::new(seed),
            sent: 0,
            level: 0,
            keys: BTreeSet::new(),
        }
    }

    /// Requests generated so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Append the next request frame to `frames` and return what its
    /// response must say.
    pub fn next(&mut self, frames: &mut Vec<u8>) -> Expect {
        let index = self.sent;
        self.sent += 1;
        match self.workload {
            Workload::SortSmall => {
                let n = self
                    .rng
                    .next_range_i64(*SORT_N.start() as i64, *SORT_N.end() as i64)
                    as usize;
                let seed = self.rng.next_u64();
                let nearly_sorted = self.rng.next_bool(0.5);
                let mark = protocol::begin_frame(frames, OP_SORT);
                frames.extend_from_slice(&(n as u32).to_le_bytes());
                frames.extend_from_slice(&seed.to_le_bytes());
                frames.push(nearly_sorted as u8);
                protocol::end_frame(frames, mark);
                let data = sort_keys(n, seed, nearly_sorted);
                self.keys.insert(SortKey::of(&data));
                Expect::Sort {
                    class: smallsort::size_class(n),
                    checksum: checksum(&data),
                }
            }
            Workload::MatchDrift if index > 0 && index.is_multiple_of(MORPH_EVERY) => {
                self.level = (self.level + 1) % MORPH_LEVELS;
                protocol::write_frame(frames, OP_MORPH, &[0, self.level as u8]);
                Expect::Morph {
                    level: self.level as u8,
                }
            }
            _ => {
                protocol::write_frame(frames, OP_MATCH, stringmatch::PAPER_QUERY);
                Expect::Match { level: self.level }
            }
        }
    }
}

/// The corpora the handler serves, rebuilt from its recipe on first use,
/// and the occurrence count of the query in each, found by a naive scan.
#[derive(Default)]
pub struct Corpora(OnceLock<(Vec<Vec<u8>>, Vec<u32>)>);

impl Corpora {
    fn get(&self) -> &(Vec<Vec<u8>>, Vec<u32>) {
        self.0.get_or_init(|| {
            let opts = serve_options();
            let texts: Vec<Vec<u8>> = (0..MORPH_LEVELS)
                .map(|level| {
                    let bytes = (opts.corpus_kb << 10) * MORPH_CORPUS_FACTOR.pow(level as u32);
                    stringmatch::corpus::bible_like_with(opts.seed + level as u64, bytes, 250)
                })
                .collect();
            let counts = texts
                .iter()
                .map(|t| naive_count(stringmatch::PAPER_QUERY, t))
                .collect();
            (texts, counts)
        })
    }

    pub fn text(&self, level: usize) -> &[u8] {
        &self.get().0[level]
    }

    pub fn count(&self, level: usize) -> u32 {
        self.get().1[level]
    }
}

/// Occurrences of `pattern` in `text`, overlapping ones included.
pub fn naive_count(pattern: &[u8], text: &[u8]) -> u32 {
    text.windows(pattern.len())
        .filter(|w| *w == pattern)
        .count() as u32
}

/// Check one response frame against its expectation.
pub fn check(expect: Expect, op: u8, body: &[u8], corpora: &Corpora) -> Result<(), String> {
    if op == OP_ERR {
        return Err(format!("error reply: {}", String::from_utf8_lossy(body)));
    }
    match expect {
        Expect::Sort { class, checksum } => {
            if op != OP_SORT || body.len() != 13 {
                return Err(format!("sort: op {op:#x}, {} payload bytes", body.len()));
            }
            let got_class = u32::from_le_bytes(body[1..5].try_into().unwrap());
            let got_sum = u64::from_le_bytes(body[5..13].try_into().unwrap());
            if body[0] != 1 || got_class != class || got_sum != checksum {
                return Err(format!(
                    "sort: ok {} class {got_class} (want {class}) checksum {got_sum:#x} (want {checksum:#x})",
                    body[0]
                ));
            }
        }
        Expect::Match { level } => {
            let want = corpora.count(level);
            if op != OP_MATCH || body.len() != 4 {
                return Err(format!("match: op {op:#x}, {} payload bytes", body.len()));
            }
            let got = u32::from_le_bytes(body.try_into().unwrap());
            if got != want {
                return Err(format!("match: count {got} at level {level}, want {want}"));
            }
        }
        Expect::Morph { level } => {
            if op != OP_MORPH || body != [0, level] {
                return Err(format!("morph: op {op:#x}, payload {body:?}"));
            }
        }
    }
    Ok(())
}

/// Check a sorted array against the sum of its input.
pub fn check_sorted(data: &[u64], sum_in: u64) -> Result<(), String> {
    if checksum(data) != sum_in {
        return Err(format!("sort: {} keys lost or changed", data.len()));
    }
    if !data.windows(2).all(|w| w[0] <= w[1]) {
        return Err(format!("sort: {} keys out of order", data.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_whole_sub_windows_of_whole_batches() {
        for w in Workload::ALL {
            for quick in [false, true] {
                for p in [w.round(quick), w.traced(28, quick), w.traced(1, quick)] {
                    assert!(p.sub() > 0 && p.sub() % BATCH == 0, "{w:?} {p:?}");
                    assert_eq!(p.window, SUBS * p.sub());
                    assert_eq!(p.warmup % BATCH, 0);
                    assert!(p.windows > 0 && p.latency > 0);
                }
            }
        }
        let full = Workload::SortSmall.round(false);
        let quick = Workload::SortSmall.round(true);
        assert!(quick.window * 9 < full.window);
        assert_eq!(Workload::Match.traced(28, false).windows, 7);
    }

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        for w in [Workload::SortSmall, Workload::MatchDrift] {
            let (mut a, mut b) = (Traffic::new(w, 7), Traffic::new(w, 7));
            let (mut fa, mut fb) = (Vec::new(), Vec::new());
            for _ in 0..3000 {
                a.next(&mut fa);
                b.next(&mut fb);
            }
            assert_eq!(fa, fb);
            let mut c = Traffic::new(w, 8);
            let mut fc = Vec::new();
            for _ in 0..3000 {
                c.next(&mut fc);
            }
            assert_eq!(
                fa != fc,
                w == Workload::SortSmall,
                "only sorts draw from the seed"
            );
        }
    }

    #[test]
    fn sort_requests_cover_the_size_classes_and_both_presort_kinds() {
        let mut t = Traffic::new(Workload::SortSmall, 1);
        let mut frames = Vec::new();
        for _ in 0..5000 {
            t.next(&mut frames);
        }
        let classes: BTreeSet<u32> = t.keys.iter().map(|k| k.class).collect();
        assert_eq!(classes, BTreeSet::from([3, 4, 5, 6]));
        let presorts: BTreeSet<u32> = t.keys.iter().map(|k| k.presort).collect();
        assert!(presorts.contains(&smallsort::PRESORT_RANDOM));
        assert!(presorts.contains(&smallsort::PRESORT_NEARLY_SORTED));
    }

    #[test]
    fn drift_latency_phases_run_on_the_base_corpus() {
        let w = Workload::MatchDrift;
        for p in [w.round(false), w.round(true)] {
            for first in [1, 0] {
                // A round's first request (none in a traced pass), its
                // warm-up and its throughput windows, then its latency phase.
                let mut t = Traffic::new(w, 1);
                let mut frames = Vec::new();
                for _ in 0..first + p.warmup + p.windows * p.window {
                    t.next(&mut frames);
                }
                for _ in 0..p.latency {
                    let e = t.next(&mut frames);
                    assert!(
                        matches!(e, Expect::Match { level: 0 } | Expect::Morph { level: 0 }),
                        "{p:?}: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn drift_traffic_morphs_on_schedule() {
        let mut t = Traffic::new(Workload::MatchDrift, 1);
        let mut frames = Vec::new();
        let morphs: Vec<u64> = (0..3 * MORPH_EVERY + 1)
            .filter(|_| matches!(t.next(&mut frames), Expect::Morph { .. }))
            .collect();
        assert_eq!(morphs.len(), 3);
    }

    #[test]
    fn checks_reject_wrong_answers() {
        let corpora = Corpora::default();
        let (small, large) = (corpora.count(0), corpora.count(1));
        assert!(small > 0 && large > small, "{small} {large}");
        let ok = Expect::Match { level: 1 };
        assert!(check(ok, OP_MATCH, &large.to_le_bytes(), &corpora).is_ok());
        assert!(check(ok, OP_MATCH, &small.to_le_bytes(), &corpora).is_err());
        assert!(check(ok, OP_ERR, b"unknown opcode", &corpora).is_err());
        let sort = Expect::Sort {
            class: 4,
            checksum: 9,
        };
        let mut body = vec![1];
        body.extend_from_slice(&4u32.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        assert!(check(sort, OP_SORT, &body, &corpora).is_ok());
        body[0] = 0;
        assert!(check(sort, OP_SORT, &body, &corpora).is_err());
        assert!(check_sorted(&[1, 2, 2, 5], 10).is_ok());
        assert!(check_sorted(&[2, 1], 3).is_err());
        assert!(check_sorted(&[1, 2], 4).is_err());
        assert_eq!(naive_count(b"ana", b"banana"), 2);
    }
}
