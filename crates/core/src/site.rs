//! The concurrent multi-site tuning runtime: a process-global, sharded
//! registry of long-lived tuning sites.
//!
//! The paper's tuner ([`crate::two_phase::TwoPhaseTuner`]) owns one call
//! site on one thread. Production workloads look different: *thousands*
//! of independent tuned call sites (one per hot function, per input-size
//! bucket, per endpoint) hit concurrently by many request threads. This
//! module makes that a first-class, near-zero-overhead capability. Every
//! site embeds a `TwoPhaseTuner`, a one-algorithm one when it has no
//! algorithmic choice ([`SiteSpec::space`]). The API mirrors the shape of
//! Tuna's `tuna_site`/`tuna_pre`/`tuna_post` around
//! semantically-interchangeable chunks of code:
//!
//! ```
//! use autotune::site::SiteSpec;
//! use autotune::tune_site;
//! use autotune::two_phase::{AlgorithmSpec, NominalKind};
//!
//! fn smallsort(a: &mut [u32]) {
//!     tune_site!(
//!         SiteSpec::algorithms(
//!             "smallsort",
//!             vec![
//!                 AlgorithmSpec::untunable("insertion"),
//!                 AlgorithmSpec::untunable("std-sort"),
//!             ],
//!             NominalKind::EpsilonGreedy(0.10),
//!             42,
//!         ),
//!         |algorithm, _config| match algorithm {
//!             0 => insertion_sort(a),
//!             _ => a.sort_unstable(),
//!         }
//!     );
//! }
//! # fn insertion_sort(a: &mut [u32]) {
//! #     for i in 1..a.len() {
//! #         let mut j = i;
//! #         while j > 0 && a[j - 1] > a[j] { a.swap(j - 1, j); j -= 1; }
//! #     }
//! # }
//! # let mut v = vec![3u32, 1, 2]; smallsort(&mut v); assert_eq!(v, [1, 2, 3]);
//! ```
//!
//! # Architecture
//!
//! **Slab layout.** Sites live in a fixed-capacity, process-global
//! [`SiteRegistry`] of [`MAX_SITES`] slots, striped round-robin across
//! [`NUM_SHARDS`] shards. Each shard owns an independently allocated table
//! of `AtomicPtr` slot pointers, and every `SiteSlot` is a separate
//! cache-line-aligned heap allocation — threads hitting *different* sites
//! never share a cache line, and registration in one shard never invalidates
//! another shard's table. Slot pointers are written once (`Release`) at
//! registration and only read (`Acquire`) afterwards, so lookup is two
//! dependent loads with no locks.
//!
//! **The claim CAS.** All tuner state (the phase-2 strategy, per-algorithm
//! phase-1 searchers, logs, the tuning-rate controller) sits in an
//! `UnsafeCell` guarded by a single claim word. Only a thread whose
//! back-off countdown has run out (below) tries the claim: a plain load
//! first, then one `compare_exchange(0 → 1, Acquire)` if it read 0.
//!
//! * **Winner** — drives a real tuning iteration: `next()` on the
//!   embedded tuner, runs the chosen algorithm, `report()`s the measured
//!   time, then publishes the tuner's current exploit choice, takes its
//!   countdown from the rate controller and releases the claim with a
//!   `Release` store. The Acquire/Release pairing on the claim word makes
//!   all tuner mutations happen-before the next winner's accesses — the
//!   same discipline as a spinlock, except nobody ever spins.
//! * **Loser** — finds the claim held and does *not* wait. It reads the
//!   most recently *published* decision (best algorithm + its best-known
//!   configuration) through a seqlock and runs that; the tuner never sees
//!   its time. Its countdown stays run out, so its next call looks at the
//!   claim again. A held claim is seen by the plain load, so a contended
//!   call writes nothing shared, and the measurement stream feeding the
//!   tuner stays serialized per site — no torn or interleaved ask/tell
//!   protocols, no lost updates.
//!
//! **Tuning rate.** The paper tunes until convergence and then exploits;
//! an always-on site has to notice convergence itself. Once a site's best
//! value has not improved by more than 5% for 32 tuned iterations, the
//! gap between tuning calls doubles with each further plateaued
//! iteration, up to one tuning call in 64. The gap counts each thread's
//! own calls: after its own tuning call a thread takes a countdown of
//! `gap − 1` calls, kept in a cell only it writes, and serves them from
//! the published decision without touching the claim (no RNG draw, no
//! tuner change), counted by [`Site::backed_off`]. With one thread this
//! is the gap call for call. A >5% improvement, or a freshly built tuner
//! ([`Site::restart`], a context key's first admission), returns the site
//! to tuning every call. The controller lives in the claim-guarded
//! [`SiteTuner`], so it travels with the tuner when
//! [`crate::context::ContextSites`] parks and reinstates it. DESIGN.md
//! §12 explains the constants.
//!
//! **Countdown epochs.** A restart, a rebind and a penalized proposal
//! start a new *epoch* of the published decision, which voids every
//! thread's countdown: a thread whose countdown belongs to an older epoch
//! (or that has none yet) starts from the countdown published with the
//! epoch — 0, so its next call tries the claim, except for a reinstated
//! tuner, which publishes the unspent countdown it was parked with. A
//! rebind parks the calling thread's unspent countdown with the outgoing
//! tuner.
//!
//! **The seqlock.** The published decision is a fixed-size, heap-free
//! encoding (algorithm index + up to [`MAX_PUBLISHED_PARAMS`] tagged
//! parameter values, each an `AtomicU64`, plus the epoch and its starting
//! countdown). The writer (always the claim holder, so writers never race
//! each other) bumps the sequence word to odd (`Relaxed` store, then a
//! `Release` fence orders it before the data stores), writes the payload
//! with `Relaxed` stores, and bumps to even with a `Release` store that
//! orders the payload before it. Readers load the sequence (`Acquire`),
//! copy the payload (`Relaxed`), issue an `Acquire` fence, and re-check
//! the sequence: an odd or changed sequence means a concurrent publish,
//! so the read retries. Every word is an atomic, so even a torn
//! read-in-progress is well-defined — the retry just discards it.
//!
//! **Timing stride.** A contended or backed-off call is *untuned*: its
//! time feeds no tuner, only the caller (a drift monitor) and the site's
//! runtime histogram. Each publish therefore also stores a timing stride
//! `k`, the smallest power of two up to 64 for which one clock pair
//! ([`crate::robust::clock_pair_ms`]) costs at most 5% of `k` runs of
//! the published incumbent, and a thread times an untuned call only when
//! its own count of completed untuned calls at the site is a multiple of
//! `k` ([`Site::timing_stride`]); an untimed [`SiteGuard::post`] returns
//! `NaN`. µs-scale kernels keep `k = 1`; tuning iterations are always
//! timed. DESIGN.md §12 explains the budget.
//!
//! **Counters.** Each thread counts its completed calls at a site — all
//! calls, contended, backed off, timed — and the timed calls' runtimes
//! in a log-spaced histogram, in cells only it writes: a count goes up by
//! a plain load and store, with no read-modify-write and on no cache line
//! another thread writes. [`Site::calls`] and its siblings sum the
//! threads' cells, reading each cell's counts before its calls, so the
//! sums are exact once the calls have completed (at quiescence, and for a
//! thread reading right after its own calls) and `tuned_iterations()`
//! never underflows under racing readers; the stress tests in
//! `tests/site_runtime.rs` and `tests/plateaued_threads.rs` pin this.
//! Every completed call is exactly one of tuned, contended or backed off.
//! A retiring thread hands its cells back to their sites, counts
//! included, for the next thread to adopt, so a site holds at most as
//! many cells as threads ever called it at once. A guard bumps the cells
//! of the thread that took it, so [`SiteGuard`] is not `Send`.
//!
//! **Telemetry.** Every event a site's tuner emits is stamped with the
//! site's id via [`crate::telemetry::with_site`], so one global trace
//! interleaves thousands of sites and can still be split per site at
//! export time. A tuned iteration emits one [`EventKind::Iteration`]
//! record, which carries the site's cumulative [`Traffic`] counters
//! (that call included). An untuned call pushes no event unless it
//! failed or timed out, so its traffic reaches the trace through the next
//! record's counters and the global metric registers count tuned-path
//! outcomes only.
//!
//! Single-threaded use drives the embedded tuner exactly as a direct
//! caller would: the claim is always free when the countdown runs out, so
//! the tuned calls run
//! the *bit-identical* (algorithm, configuration) sequence a direct tuner
//! proposes under the same seeds and measurements, both tuners end in
//! the same state, and every backed-off call runs the direct tuner's
//! exploit choice at that point — property-tested in
//! `tests/site_runtime.rs`.

use crate::param::Value;
use crate::robust::{clock_pair_ms, duration_ms, MeasureOutcome};
use crate::space::{Configuration, Constraint, SearchSpace};
use crate::telemetry::metrics::{bucket_index, bucket_quantile, HIST_BUCKETS};
use crate::telemetry::{self, EventKind, MeasureStatus, Traffic};
use crate::two_phase::{AlgorithmSpec, NominalKind, TwoPhaseTuner};
use std::cell::{RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Capacity of the process-global site registry.
pub const MAX_SITES: usize = 8192;

/// Number of registry shards; site ids stripe across shards round-robin.
pub const NUM_SHARDS: usize = 64;

const SITES_PER_SHARD: usize = MAX_SITES / NUM_SHARDS;

/// The published exploit decision inlines every parameter value into a
/// fixed, heap-free seqlock payload, so it holds as many values as a
/// [`Configuration`] does.
pub use crate::space::MAX_PUBLISHED_PARAMS;

/// Identifier of a registered tuning site: a dense index into the global
/// registry, cheap to store in a `static` (see [`crate::tune_site!`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(u32);

impl SiteId {
    /// The dense registry index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The site tag recorded into telemetry events
    /// ([`crate::telemetry::Event::site`]).
    pub fn tag(self) -> u16 {
        self.0 as u16
    }
}

/// Blueprint of a tuning site: what it tunes and with which strategy and
/// seed. Consumed by [`register`]; the slot keeps a clone as the recipe
/// for [`Site::restart`].
#[derive(Clone)]
pub struct SiteSpec {
    name: String,
    specs: Vec<AlgorithmSpec>,
    nominal: NominalKind,
    seed: u64,
}

impl SiteSpec {
    /// A site with algorithmic choice: a phase-2 `nominal` strategy over
    /// `specs`, each algorithm with its own Nelder-Mead phase-1 searcher.
    /// Equivalent to a dedicated [`TwoPhaseTuner`] with the same arguments.
    pub fn algorithms(
        name: impl Into<String>,
        specs: Vec<AlgorithmSpec>,
        nominal: NominalKind,
        seed: u64,
    ) -> Self {
        SiteSpec {
            name: name.into(),
            specs,
            nominal,
            seed,
        }
    }

    /// A site tuning a single parameter space with no algorithmic choice:
    /// a one-algorithm [`TwoPhaseTuner`] (the algorithm takes the site's
    /// name). Its phase 2 is never consulted, so its samples are those of
    /// the space's Nelder-Mead searcher alone; a plateaued site backs off
    /// its tuning rate instead of stopping.
    pub fn space(name: impl Into<String>, space: SearchSpace, seed: u64) -> Self {
        let name = name.into();
        let spec = AlgorithmSpec::new(name.clone(), space);
        SiteSpec::algorithms(name, vec![spec], NominalKind::OptimumWeighted, seed)
    }

    /// The site's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replace the display name — used by [`crate::context::ContextSites`]
    /// to give its recycled pool slots stable `{prefix}/slot{NN}` registry
    /// names independent of which context key is currently bound.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// A copy of this blueprint whose per-algorithm starting
    /// configurations are replaced by the given incumbents — the
    /// phase-1 half of cross-context warm-starting
    /// ([`crate::context::ContextSites`]).
    ///
    /// `incumbents` is index-aligned with the algorithm order. An
    /// incumbent is adopted only where it lies inside — and is feasible
    /// in — the matching algorithm's space; missing or infeasible entries
    /// leave that algorithm's start untouched, so a neighbor's posterior
    /// can never smuggle an invalid configuration past the constraints.
    pub fn with_incumbent_starts(
        mut self,
        incumbents: &[Option<(Configuration, f64)>],
    ) -> SiteSpec {
        for (s, inc) in self.specs.iter_mut().zip(incumbents) {
            if let Some((c, _)) = inc {
                if s.space.contains(c) && s.space.is_feasible(c) {
                    s.start = Some(c.clone());
                }
            }
        }
        self
    }

    /// Attach a feasibility [`Constraint`] to *every* algorithm's space
    /// (declare constraints on the individual [`AlgorithmSpec`] spaces for
    /// per-algorithm rules). Proposals the constraint rejects and cannot
    /// repair are penalized by the site's tuner without ever reaching the
    /// interchangeable code.
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        for s in self.specs.iter_mut() {
            s.space = s.space.clone().with_constraint(constraint.clone());
        }
        self
    }
}

/// Consecutive tuned iterations without a meaningful improvement after
/// which a site is plateaued and starts backing off.
const PLATEAU_WINDOW: usize = 32;

/// Relative improvement of the best value that counts as meaningful.
const PLATEAU_TOLERANCE: f64 = 0.05;

/// The widest gap between tuning calls is `2^MAX_GAP_LOG2` = 64 calls.
const MAX_GAP_LOG2: usize = 6;

/// Share of an untuned call's runtime that timing it may cost: an
/// untuned call is timed once per stride `k`, the smallest power of two
/// for which one clock pair costs at most this share of `k` runs of the
/// published incumbent.
const TIMING_BUDGET: f64 = 0.05;

/// The widest timing stride is `2^MAX_STRIDE_LOG2` = 64 untuned calls.
const MAX_STRIDE_LOG2: u32 = 6;

/// The timing stride for a published incumbent worth `value_ms`, when
/// timing one call costs `clock_pair_ms`: the smallest power of two
/// `k ≤ 64` with `clock_pair_ms ≤ TIMING_BUDGET · k · value_ms`. An
/// incumbent without a value yet (`NaN`) is timed on every call.
fn timing_stride(value_ms: f64, clock_pair_ms: f64) -> u32 {
    let mut k = 1u32;
    if value_ms > 0.0 {
        while k < 1 << MAX_STRIDE_LOG2 && clock_pair_ms > TIMING_BUDGET * f64::from(k) * value_ms {
            k *= 2;
        }
    }
    k
}

/// A site's tuning-rate controller (see the module docs and DESIGN.md
/// §12): a plateau counter over the tuned iterations' values, and the
/// gap it schedules after each of them.
struct TuningRate {
    /// Best value as of the last meaningful improvement.
    best: f64,
    /// Tuned iterations since that improvement.
    plateau: usize,
    /// Calls to serve from the published decision before the next
    /// tuning call: the countdown a thread takes after its own tuned
    /// iteration, and the unspent countdown a parked tuner carries.
    skip: u32,
}

impl TuningRate {
    fn new() -> Self {
        TuningRate {
            best: f64::INFINITY,
            plateau: 0,
            skip: 0,
        }
    }

    /// Calls from one tuning call to the next: 1 until the site has
    /// plateaued, then doubling with each further plateaued iteration up
    /// to 64. The `n`-th consecutive non-improving tuned iteration is
    /// followed by a gap of `2^min(n − 32, 6)` for `n ≥ 32`.
    fn gap(&self) -> u32 {
        match self.plateau.checked_sub(PLATEAU_WINDOW) {
            None => 1,
            Some(extra) => 1 << extra.min(MAX_GAP_LOG2),
        }
    }

    /// Feed one tuned iteration's value and schedule the next tuning call.
    /// An improvement of more than the tolerance resets the plateau;
    /// anything else (NaN included) extends it.
    fn record(&mut self, value: f64) {
        if value < self.best * (1.0 - PLATEAU_TOLERANCE) {
            self.best = value;
            self.plateau = 0;
        } else {
            self.plateau += 1;
        }
        self.skip = self.gap() - 1;
    }
}

/// The tuner embedded in a site — the same [`TwoPhaseTuner`] applications
/// drive directly, plus the site's tuning-rate controller — made shareable
/// by the slot's claim discipline. Moving a `SiteTuner` (parking it on
/// eviction, reinstating it on re-admission) carries the controller with
/// it; building one starts the site at full rate.
pub struct SiteTuner {
    tuner: TwoPhaseTuner,
    rate: TuningRate,
}

impl SiteTuner {
    fn build(spec: SiteSpec) -> (SiteTuner, String) {
        let SiteSpec {
            name,
            specs,
            nominal,
            seed,
        } = spec;
        let tuner = SiteTuner {
            tuner: TwoPhaseTuner::new(specs, nominal, seed),
            rate: TuningRate::new(),
        };
        (tuner, name)
    }

    /// Complete the pending iteration, tracing it with the site's
    /// `traffic`; its recorded value (measurement or failure penalty)
    /// also feeds the tuning-rate controller.
    fn report_outcome(&mut self, outcome: MeasureOutcome, traffic: Traffic) {
        let value = self.tuner.report_outcome_with(outcome, Some(traffic)).value;
        self.rate.record(value);
    }

    /// Build a *warm-started* tuner from a blueprint and a neighboring
    /// context's posterior: every phase-1 searcher starts from the
    /// neighbor's incumbent configuration for its algorithm (where
    /// feasible — see [`SiteSpec::with_incumbent_starts`]), and with more
    /// than one algorithm the phase-2 strategy is pre-seeded with one
    /// synthetic sample per observed algorithm
    /// ([`TwoPhaseTuner::seed_algorithm`]), so selection weights start
    /// from the neighbor's ranking instead of uniform ignorance. A
    /// one-algorithm tuner's phase 2 is never consulted, so it is not
    /// seeded.
    ///
    /// This is the seeding rule behind [`crate::context::ContextSites`]
    /// cross-context warm-starting; DESIGN.md §11 motivates it.
    pub fn build_warm(spec: SiteSpec, incumbents: &[Option<(Configuration, f64)>]) -> SiteTuner {
        let (mut tuner, _name) = SiteTuner::build(spec.with_incumbent_starts(incumbents));
        let t = &mut tuner.tuner;
        if t.num_algorithms() > 1 {
            for (i, inc) in incumbents.iter().enumerate().take(t.num_algorithms()) {
                if let Some((_, v)) = inc {
                    t.seed_algorithm(i, *v);
                }
            }
        }
        tuner
    }

    /// Snapshot the per-algorithm incumbents — each algorithm's
    /// best-known (configuration, value), `None` where nothing has been
    /// observed yet. Index-aligned with the algorithm order. This is the
    /// "posterior" a neighboring context is warm-started from.
    pub fn incumbents(&self) -> Vec<Option<(Configuration, f64)>> {
        (0..self.tuner.num_algorithms())
            .map(|i| self.tuner.searcher_best(i).map(|(c, v)| (c.clone(), v)))
            .collect()
    }

    /// The embedded two-phase tuner. Always `Some`: single-space sites
    /// embed a one-algorithm tuner.
    pub fn as_two_phase(&self) -> Option<&TwoPhaseTuner> {
        Some(&self.tuner)
    }
}

/// 2-bit value-kind tags for the published decision payload.
const TAG_INT: u64 = 0;
const TAG_FLOAT: u64 = 1;
const TAG_INDEX: u64 = 2;

fn encode_value(v: Value) -> (u64, u64) {
    match v {
        Value::Int(i) => (i as u64, TAG_INT),
        Value::Float(f) => (f.to_bits(), TAG_FLOAT),
        Value::Index(i) => (i as u64, TAG_INDEX),
    }
}

fn decode_value(bits: u64, tag: u64) -> Value {
    match tag {
        TAG_FLOAT => Value::Float(f64::from_bits(bits)),
        TAG_INDEX => Value::Index(bits as usize),
        _ => Value::Int(bits as i64),
    }
}

/// One thread's traffic counters and untuned-runtime histogram at one
/// site, and its countdown there: the untuned call's bookkeeping. Only
/// the thread that owns the cell
/// writes it, so a count goes up by a plain load and store, with no
/// read-modify-write, on cache lines no other thread writes; readers sum
/// the site's cells ([`SiteSlot::traffic`]). A cell is allocated once per
/// (thread, site), on the thread's first call, and never freed: a
/// retiring thread hands its cells back to their sites, counts included,
/// and the next thread to enter a site adopts a free cell before it
/// allocates one, so a site holds at most as many cells as threads ever
/// called it at once.
#[repr(align(64))]
struct Cells {
    /// Set while a thread owns the cell.
    owned: AtomicBool,
    /// The next cell in the site's list, fixed before the cell is
    /// published.
    next: Option<&'static Cells>,
    /// Calls the owner still serves from the published decision before
    /// it tries the claim (DESIGN.md §12).
    countdown: AtomicU32,
    /// The epoch the countdown belongs to (see [`SiteSlot::publish`]).
    epoch: AtomicU32,
    /// Completed calls: tuned and untuned.
    calls: AtomicU64,
    /// Completed calls that found the claim held and ran the published
    /// decision.
    contended: AtomicU64,
    /// Completed calls served from the countdown.
    backed_off: AtomicU64,
    /// Completed untuned calls that were timed.
    timed: AtomicU64,
    /// Runtimes of the timed, successful untuned calls, counted per
    /// [`bucket_index`] bucket.
    runtimes: [AtomicU64; HIST_BUCKETS],
}

impl Cells {
    /// Count one more in `cell`, as its only writer.
    fn bump(cell: &AtomicU64, order: Ordering) {
        cell.store(cell.load(Ordering::Relaxed) + 1, order);
    }

    /// Should the owner's untuned call starting now be timed? Yes when
    /// its completed untuned calls at this site are a multiple of the
    /// power-of-two `stride`. Counting the owner's own calls at this site
    /// keeps the timed calls from aliasing with the gap between its
    /// tuning calls or with calls it makes to other sites in turn.
    fn times_untuned_call(&self, stride: u32) -> bool {
        let untuned =
            self.contended.load(Ordering::Relaxed) + self.backed_off.load(Ordering::Relaxed);
        untuned & (u64::from(stride) - 1) == 0
    }

    /// Give the cell up for the next thread to adopt.
    fn release(&self) {
        // `Release`: the adopter's `Acquire` sees the final counts.
        self.owned.store(false, Ordering::Release);
    }
}

/// A thread's cells, indexed by site; each one is returned to its site
/// when the thread exits.
struct Ledger(RefCell<Vec<Option<&'static Cells>>>);

impl Drop for Ledger {
    fn drop(&mut self) {
        for cells in self.0.get_mut().iter().flatten() {
            cells.release();
        }
    }
}

thread_local! {
    static LEDGER: Ledger = const { Ledger(RefCell::new(Vec::new())) };
}

/// The published exploit decision, as a seqlock read returns it.
struct Published {
    algorithm: usize,
    config: Configuration,
    /// The epoch it belongs to, and the countdown a thread joining that
    /// epoch starts from.
    epoch: u32,
    countdown: u32,
}

/// One registered tuning site: claim word, the seqlock-published exploit
/// decision, the embedded tuner, and the list of its threads' traffic
/// cells. Each slot is its own cache-line-aligned allocation so
/// independent sites never false-share.
#[repr(align(64))]
struct SiteSlot {
    /// Claim word: 0 = free, 1 = a thread holds the tuner (a tuning
    /// iteration, or a restart, rebind or inspection).
    claim: AtomicU32,
    /// Timing stride of the published decision (see [`timing_stride`]):
    /// a thread times an untuned call when its count of completed
    /// untuned calls here is a multiple of it.
    stride: AtomicU32,
    /// Times the tuner was rebuilt from the recipe ([`Site::restart`]).
    restarts: AtomicU64,
    /// Seqlock sequence word for the published decision (even = stable).
    seq: AtomicU32,
    /// Published decision: algorithm index.
    pub_algo: AtomicU32,
    /// Published decision: number of configuration parameters.
    pub_len: AtomicU32,
    /// Published decision: 2-bit value-kind tags, parameter `i` at bits
    /// `2i..2i+2`.
    pub_tags: AtomicU64,
    /// Published decision: parameter value bits.
    pub_vals: [AtomicU64; MAX_PUBLISHED_PARAMS],
    /// Published: the current countdown epoch, and the countdown a
    /// thread whose own belongs to an older epoch starts it from.
    pub_epoch: AtomicU32,
    pub_countdown: AtomicU32,
    /// Head of the list of threads' [`Cells`]; cells are only ever
    /// pushed.
    cells: AtomicPtr<Cells>,
    id: SiteId,
    name: String,
    /// Algorithm count of the current binding; atomic because
    /// [`Site::rebind`] may install a tuner with a different algorithm
    /// set while readers inspect the site.
    num_algorithms: AtomicU32,
    /// Tuner state plus its blueprint; accessed only by the claim holder
    /// (see module docs).
    state: UnsafeCell<SlotState>,
}

/// Releases the slot's claim on drop. Armed while claim-holding code
/// runs tuner code or caller closures that may panic, so one poisoned
/// call cannot wedge the site into exploit-forever; dropping it is also
/// the normal-path release.
struct ReleaseClaim<'a>(&'a SiteSlot);

impl Drop for ReleaseClaim<'_> {
    fn drop(&mut self) {
        self.0.claim.store(0, Ordering::Release);
    }
}

/// The claim-guarded mutable state of a slot: the live tuner and the
/// blueprint it was built from. Both travel together because
/// [`Site::rebind`] swaps them as a unit — the recipe must always
/// describe the installed tuner, or [`Site::restart`] would rebuild the
/// wrong binding.
struct SlotState {
    tuner: SiteTuner,
    /// The binding blueprint, kept so [`Site::restart`] can rebuild a
    /// fresh tuner (same spec, same seed) after workload drift.
    recipe: SiteSpec,
}

// SAFETY: `state` is only accessed between a successful
// `claim.compare_exchange(0, 1, Acquire, _)` and the subsequent
// `claim.store(0, Release)`, giving mutual exclusion plus a happens-before
// edge from each claim holder's mutations to the next holder's reads.
// `SiteTuner` is `Send` (enforced below), so migrating that exclusive
// access across threads is sound. All other fields are atomics or
// immutable after construction.
unsafe impl Sync for SiteSlot {}
unsafe impl Send for SiteSlot {}

/// Compile-time proof that the claim discipline may hand the tuner to any
/// thread.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SiteTuner>();
};

impl SiteSlot {
    fn new(id: SiteId, spec: SiteSpec) -> Self {
        let recipe = spec.clone();
        let (tuner, name) = SiteTuner::build(spec);
        let num_algorithms = tuner.tuner.num_algorithms();
        let slot = SiteSlot {
            claim: AtomicU32::new(0),
            stride: AtomicU32::new(1),
            restarts: AtomicU64::new(0),
            seq: AtomicU32::new(0),
            pub_algo: AtomicU32::new(0),
            pub_len: AtomicU32::new(0),
            pub_tags: AtomicU64::new(0),
            pub_vals: Default::default(),
            pub_epoch: AtomicU32::new(0),
            pub_countdown: AtomicU32::new(0),
            cells: AtomicPtr::new(std::ptr::null_mut()),
            id,
            name,
            num_algorithms: AtomicU32::new(num_algorithms as u32),
            state: UnsafeCell::new(SlotState { tuner, recipe }),
        };
        // Publish the initial exploit decision (the hand-crafted start or
        // the space's minimum corner) so the exploit fast path is valid
        // from the very first contended call. Single-threaded here: the
        // slot is not yet visible to the registry.
        slot.publish(unsafe { &(*slot.state.get()).tuner.tuner }, None);
        slot
    }

    /// Publish `tuner`'s exploit choice as the decision untuned calls
    /// run, and the timing stride of its incumbent's value; returns the
    /// choice. With `Some(countdown)`, also start a new epoch: every
    /// thread's countdown is void, and a thread starts the new epoch
    /// from `countdown`. Caller must hold the claim (or be constructing
    /// the slot), so there is exactly one writer at a time.
    fn publish(&self, tuner: &TwoPhaseTuner, new_epoch: Option<u32>) -> (usize, Configuration) {
        let (algo, config, value) = tuner.exploit_incumbent();
        self.stride
            .store(timing_stride(value, clock_pair_ms()), Ordering::Relaxed);
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        // Order the odd sequence before the payload stores.
        fence(Ordering::Release);
        self.pub_algo.store(algo as u32, Ordering::Relaxed);
        let values = config.values();
        self.pub_len.store(values.len() as u32, Ordering::Relaxed);
        let mut tags = 0u64;
        for (i, v) in values.iter().enumerate() {
            let (bits, tag) = encode_value(*v);
            self.pub_vals[i].store(bits, Ordering::Relaxed);
            tags |= tag << (2 * i);
        }
        self.pub_tags.store(tags, Ordering::Relaxed);
        if let Some(countdown) = new_epoch {
            let epoch = self.pub_epoch.load(Ordering::Relaxed);
            self.pub_epoch
                .store(epoch.wrapping_add(1), Ordering::Relaxed);
            self.pub_countdown.store(countdown, Ordering::Relaxed);
        }
        // Order the payload stores before the even sequence.
        self.seq.store(s.wrapping_add(2), Ordering::Release);
        (algo, config)
    }

    /// Seqlock read of the published decision. Lock-free and heap-free:
    /// retries only while a concurrent publish is mid-flight.
    fn read_decision(&self) -> Published {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let algorithm = self.pub_algo.load(Ordering::Relaxed) as usize;
                let len = (self.pub_len.load(Ordering::Relaxed) as usize).min(MAX_PUBLISHED_PARAMS);
                let tags = self.pub_tags.load(Ordering::Relaxed);
                let config = self.pub_vals[..len]
                    .iter()
                    .enumerate()
                    .map(|(i, v)| decode_value(v.load(Ordering::Relaxed), (tags >> (2 * i)) & 0b11))
                    .collect();
                let epoch = self.pub_epoch.load(Ordering::Relaxed);
                let countdown = self.pub_countdown.load(Ordering::Relaxed);
                // Order the payload loads before the sequence re-check.
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return Published {
                        algorithm,
                        config,
                        epoch,
                        countdown,
                    };
                }
            }
            std::hint::spin_loop();
        }
    }

    /// The claim, if no thread holds it. A held claim is seen by a plain
    /// load, so a call that finds it held writes nothing shared.
    fn try_claim(&self) -> bool {
        self.claim.load(Ordering::Relaxed) == 0
            && self
                .claim
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Spin until this thread holds the claim.
    fn wait_for_claim(&self) {
        while !self.try_claim() {
            std::hint::spin_loop();
        }
    }

    /// The threads' cells, newest first.
    fn cells(&self) -> impl Iterator<Item = &'static Cells> {
        // SAFETY: the list holds only leaked, never-freed cells.
        let mut next = unsafe { self.cells.load(Ordering::Acquire).as_ref() };
        std::iter::from_fn(move || {
            let cells = next?;
            next = cells.next;
            Some(cells)
        })
    }

    /// Own a cell of this site: a free one, or a new one pushed onto the
    /// list. Its countdown belongs to no epoch, so the first call takes
    /// the published one.
    fn adopt_cells(&self) -> &'static Cells {
        let adopted = self.cells().find(|c| {
            !c.owned.load(Ordering::Relaxed)
                && c.owned
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
        });
        let cells = adopted.unwrap_or_else(|| {
            let cells = Box::into_raw(Box::new(Cells {
                owned: AtomicBool::new(true),
                next: None,
                countdown: AtomicU32::new(0),
                epoch: AtomicU32::new(0),
                calls: AtomicU64::new(0),
                contended: AtomicU64::new(0),
                backed_off: AtomicU64::new(0),
                timed: AtomicU64::new(0),
                runtimes: std::array::from_fn(|_| AtomicU64::new(0)),
            }));
            let mut head = self.cells.load(Ordering::Acquire);
            loop {
                // SAFETY: `cells` is not yet shared, and `head` is null or
                // a leaked, never-freed cell.
                unsafe { (*cells).next = head.as_ref() };
                match self.cells.compare_exchange_weak(
                    head,
                    cells,
                    Ordering::Release,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(current) => head = current,
                }
            }
            // SAFETY: published cells are never freed.
            unsafe { &*cells }
        });
        let epoch = self.pub_epoch.load(Ordering::Relaxed);
        cells.epoch.store(epoch.wrapping_sub(1), Ordering::Relaxed);
        cells
    }

    /// The calling thread's cells for this site, adopted on its first
    /// call; `None` once the thread's ledger is torn down at exit.
    fn own_cells(&self) -> Option<&'static Cells> {
        let i = self.id.index();
        LEDGER
            .try_with(|ledger| {
                if let Some(&Some(cells)) = ledger.0.borrow().get(i) {
                    return cells;
                }
                let cells = self.adopt_cells();
                let mut owned = ledger.0.borrow_mut();
                if owned.len() <= i {
                    owned.resize(i + 1, None);
                }
                owned[i] = Some(cells);
                cells
            })
            .ok()
    }

    /// The calling thread's countdown here, if it belongs to the current
    /// epoch. Caller must hold the claim, so the epoch cannot move.
    fn own_countdown(&self) -> Option<u32> {
        let i = self.id.index();
        let cells = LEDGER
            .try_with(|ledger| ledger.0.borrow().get(i).copied().flatten())
            .ok()
            .flatten()?;
        let current = cells.epoch.load(Ordering::Relaxed) == self.pub_epoch.load(Ordering::Relaxed);
        current.then(|| cells.countdown.load(Ordering::Relaxed))
    }

    /// The traffic counters summed over the threads' cells. Each cell is
    /// read in the reverse of the order `SiteGuard::finish` bumps it —
    /// timed, the path counts, then calls — so a read racing live calls
    /// keeps `timed ≤ backed_off + contended ≤ calls`.
    fn traffic(&self) -> Traffic {
        let mut t = Traffic::default();
        for cells in self.cells() {
            t.timed += cells.timed.load(Ordering::Acquire);
            t.backed_off += cells.backed_off.load(Ordering::Acquire);
            t.contended += cells.contended.load(Ordering::Acquire);
            t.calls += cells.calls.load(Ordering::Relaxed);
        }
        t
    }
}

/// A handle to a registered tuning site — `Copy`, so it can be passed
/// around freely; all state lives in the global registry.
#[derive(Clone, Copy)]
pub struct Site {
    slot: &'static SiteSlot,
}

impl Site {
    /// The site's id.
    pub fn id(self) -> SiteId {
        self.slot.id
    }

    /// The site's display name.
    pub fn name(self) -> &'static str {
        &self.slot.name
    }

    /// Number of algorithms this site selects between (1 for single-space
    /// sites). Tracks the current binding across [`Site::rebind`]s.
    pub fn num_algorithms(self) -> usize {
        self.slot.num_algorithms.load(Ordering::Relaxed) as usize
    }

    /// Completed calls through this site (tuned iterations + exploit fast
    /// path), summed over the threads' cells. Exact once the calls have
    /// completed: at quiescence, and for a thread reading right after its
    /// own calls — the stress tests pin both.
    pub fn calls(self) -> u64 {
        self.slot.traffic().calls
    }

    /// Calls that found the claim held by another thread and ran the
    /// published decision instead of a tuning iteration.
    pub fn contended(self) -> u64 {
        self.slot.traffic().contended
    }

    /// Calls served from the calling thread's back-off countdown: they
    /// ran the published decision instead of a tuning iteration (see the
    /// module docs).
    pub fn backed_off(self) -> u64 {
        self.slot.traffic().backed_off
    }

    /// Untuned (contended or backed-off) calls that were timed, by the
    /// guard's clock at the published [`Site::timing_stride`] or by the
    /// caller ([`SiteGuard::post_outcome`]). Their runtimes make up
    /// [`Site::untuned_quantile_ms`].
    pub fn timed(self) -> u64 {
        self.slot.traffic().timed
    }

    /// The published decision's timing stride `k`: a thread times an
    /// untuned call when its own count of completed untuned calls at this
    /// site is a multiple of `k`. The smallest power of two, at most 64, for which
    /// one clock pair costs at most 5% of `k` runs of the published
    /// incumbent (DESIGN.md §12); 1 before the incumbent has a value.
    pub fn timing_stride(self) -> u32 {
        self.slot.stride.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) of the timed untuned calls'
    /// runtimes in milliseconds, from a log-spaced histogram
    /// ([`crate::telemetry::metrics::bucket_quantile`]); `NaN` before the
    /// first one.
    pub fn untuned_quantile_ms(self, q: f64) -> f64 {
        let mut counts = [0u64; HIST_BUCKETS];
        for cells in self.slot.cells() {
            for (count, cell) in counts.iter_mut().zip(&cells.runtimes) {
                *count += cell.load(Ordering::Relaxed);
            }
        }
        bucket_quantile(&counts, q)
    }

    /// Calls that ran a full tuning iteration: `calls − contended −
    /// backed_off`, from one read of the cells that loads each cell's
    /// path counts before its calls, so a read racing live traffic never
    /// underflows.
    pub fn tuned_iterations(self) -> u64 {
        let t = self.slot.traffic();
        t.calls - t.contended - t.backed_off
    }

    /// Times this site's tuner was rebuilt from its recipe
    /// ([`Site::restart`]) — normally in response to detected workload
    /// drift ([`crate::drift`]).
    pub fn restarts(self) -> u64 {
        self.slot.restarts.load(Ordering::Relaxed)
    }

    /// Throw away all learned state and rebuild the tuner from the
    /// registration recipe (same algorithm set, same strategies, same
    /// seed), re-widening the search after workload drift. The rebuilt
    /// tuner's rate controller starts fresh, and every thread's countdown
    /// is void, so each thread's next call tries the claim and the site
    /// tunes every call again until it re-plateaus.
    ///
    /// Spins for the claim like [`Site::with_tuner`], so it must not be
    /// called from a thread that already holds it (e.g. inside
    /// [`Site::tuned`]'s closure). The fresh tuner's exploit choice is
    /// published before the claim is released, so concurrent exploit
    /// traffic never observes stale decisions. Counters (`calls`,
    /// `contended`, `backed_off`) are *not* reset — they count traffic,
    /// not learning.
    pub fn restart(self) {
        let slot = self.slot;
        slot.wait_for_claim();
        let _release = ReleaseClaim(slot);
        // SAFETY: this thread holds the claim (see `Sync` impl).
        let state = unsafe { &mut *slot.state.get() };
        let (tuner, _name) = SiteTuner::build(state.recipe.clone());
        state.tuner = tuner;
        slot.publish(&state.tuner.tuner, Some(0));
        slot.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Rebind this site to a new blueprint, returning the outgoing tuner:
    /// the slot-recycling primitive behind
    /// [`crate::context::ContextSites`]. Install `tuner` verbatim if
    /// `Some` (a previously parked state, so an evicted context's
    /// re-admission is bit-identical) or a cold build from `spec`
    /// otherwise; `spec` becomes the new [`Site::restart`] recipe either
    /// way, and the incoming tuner's exploit choice is published before
    /// the claim is released so concurrent exploit traffic never sees the
    /// old binding's decision.
    ///
    /// Spins for the claim like [`Site::restart`], so it must not be
    /// called from a thread that already holds it. The caller must ensure
    /// no in-flight [`SiteGuard`] from the *previous* binding is still
    /// outstanding — a late `post()` would be counted (and traced)
    /// against the new binding; [`crate::context::ContextSites`] enforces
    /// this with per-slot in-flight accounting. Traffic counters
    /// (`calls`, `contended`, `backed_off`) are not reset: they count the
    /// slot, not the binding. The outgoing tuner takes the calling
    /// thread's unspent countdown along, and every thread's countdown is
    /// void: each starts from the incoming tuner's unspent countdown, so
    /// a reinstated tuner resumes its gap and a cold build starts at full
    /// rate.
    pub fn rebind(self, spec: SiteSpec, tuner: Option<SiteTuner>) -> SiteTuner {
        let slot = self.slot;
        // Cold builds happen outside the claim: registration cost must
        // not extend the window in which callers are forced onto the
        // (stale) exploit path.
        let incoming = match tuner {
            Some(t) => t,
            None => SiteTuner::build(spec.clone()).0,
        };
        slot.wait_for_claim();
        let _release = ReleaseClaim(slot);
        let unspent = slot.own_countdown();
        // SAFETY: this thread holds the claim (see `Sync` impl).
        let state = unsafe { &mut *slot.state.get() };
        let mut outgoing = std::mem::replace(&mut state.tuner, incoming);
        if let Some(countdown) = unspent {
            outgoing.rate.skip = countdown;
        }
        state.recipe = spec;
        slot.num_algorithms
            .store(state.tuner.tuner.num_algorithms() as u32, Ordering::Relaxed);
        slot.publish(&state.tuner.tuner, Some(state.tuner.rate.skip));
        outgoing
    }

    /// Enter the site (Tuna's `tuna_pre`): pick the algorithm and
    /// configuration to run. While the calling thread's back-off
    /// countdown here runs, the call runs the published exploit decision
    /// and takes no claim. Once it has run out, the call tries the claim:
    /// a thread that wins runs a fresh tuner proposal, and one that finds
    /// the claim held runs the published decision and tries again on its
    /// next call. Pair with [`SiteGuard::post`] /
    /// [`SiteGuard::post_outcome`] around the interchangeable code, or
    /// drop the guard to abandon the call.
    pub fn pre(self) -> SiteGuard {
        let slot = self.slot;
        let (cells, leased) = match slot.own_cells() {
            Some(cells) => (cells, false),
            // A thread tearing down its locals borrows a cell for this
            // call.
            None => (slot.adopt_cells(), true),
        };
        let published = slot.read_decision();
        if cells.epoch.load(Ordering::Relaxed) != published.epoch {
            cells.epoch.store(published.epoch, Ordering::Relaxed);
            cells
                .countdown
                .store(published.countdown, Ordering::Relaxed);
        }
        let countdown = cells.countdown.load(Ordering::Relaxed);
        let (path, algorithm, config) = if countdown > 0 {
            cells.countdown.store(countdown - 1, Ordering::Relaxed);
            (CallPath::BackedOff, published.algorithm, published.config)
        } else if slot.try_claim() {
            // Releases the claim on every path but a tuning iteration's,
            // including a panic mid-proposal.
            let bomb = ReleaseClaim(slot);
            // SAFETY: this thread holds the claim (see `Sync` impl).
            let tuner = unsafe { &mut (*slot.state.get()).tuner };
            match telemetry::with_site(slot.id.tag(), || tuner.tuner.next_feasible()) {
                Ok((algorithm, config)) => {
                    std::mem::forget(bomb);
                    (CallPath::Tuning, algorithm, config)
                }
                // An irreparable proposal took the penalty path inside
                // the claim instead of letting the caller run (and time)
                // an invalid configuration: re-publish the exploit
                // decision, which the caller runs instead, in a new
                // epoch.
                Err(penalized) => {
                    tuner.rate.record(penalized.value);
                    let (algorithm, config) = slot.publish(&tuner.tuner, Some(0));
                    cells
                        .epoch
                        .store(slot.pub_epoch.load(Ordering::Relaxed), Ordering::Relaxed);
                    cells.countdown.store(tuner.rate.skip, Ordering::Relaxed);
                    (CallPath::Penalized, algorithm, config)
                }
            }
        } else {
            (CallPath::Contended, published.algorithm, published.config)
        };
        let timed = match path {
            CallPath::Tuning | CallPath::Penalized => true,
            CallPath::BackedOff | CallPath::Contended => {
                cells.times_untuned_call(slot.stride.load(Ordering::Relaxed))
            }
        };
        SiteGuard {
            site: self,
            algorithm,
            config,
            start: timed.then(Instant::now),
            path,
            finished: false,
            cells,
            leased,
            _owner_thread: PhantomData,
        }
    }

    /// Run `f(algorithm, config)` as one timed call through the site:
    /// [`Site::pre`], the closure, then [`SiteGuard::post`] with the
    /// closure's wall time. If `f` panics the call is abandoned (no sample
    /// is recorded, the claim is released) and the panic propagates.
    pub fn tuned<R>(self, f: impl FnOnce(usize, &Configuration) -> R) -> R {
        let guard = self.pre();
        let r = f(guard.algorithm(), guard.config());
        guard.post();
        r
    }

    /// Run `f` with exclusive access to the site's tuner, spinning until
    /// the claim is free. For analysis, reporting and tests — **not** for
    /// hot paths (this is the one knowingly blocking entry point), and
    /// never while holding a lock a claim holder might take. The claim is
    /// released even if `f` panics (`f` gets a shared reference, so an
    /// unwound closure cannot leave the tuner half-mutated).
    pub fn with_tuner<R>(self, f: impl FnOnce(&SiteTuner) -> R) -> R {
        let slot = self.slot;
        slot.wait_for_claim();
        let _release = ReleaseClaim(slot);
        // SAFETY: this thread holds the claim (see `Sync` impl).
        f(unsafe { &(*slot.state.get()).tuner })
    }

    /// Non-blocking [`Site::with_tuner`]: run `f` with exclusive access
    /// to the site's tuner if the claim is free *right now*, or return
    /// `None` without waiting. For callers that hold other locks while
    /// inspecting a site — the claim is held across a claim winner's
    /// entire measured call, so spinning on it from inside a lock (as
    /// [`crate::context::ContextSites`] warm-starting would otherwise do
    /// from inside its table lock) can stall or deadlock.
    pub fn try_with_tuner<R>(self, f: impl FnOnce(&SiteTuner) -> R) -> Option<R> {
        let slot = self.slot;
        if !slot.try_claim() {
            return None;
        }
        let _release = ReleaseClaim(slot);
        // SAFETY: this thread holds the claim (see `Sync` impl).
        Some(f(unsafe { &(*slot.state.get()).tuner }))
    }
}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Site")
            .field("id", &self.slot.id.index())
            .field("name", &self.slot.name)
            .field("calls", &self.calls())
            .field("contended", &self.contended())
            .field("backed_off", &self.backed_off())
            .field("timed", &self.timed())
            .finish()
    }
}

/// How [`Site::pre`] decided a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallPath {
    /// A tuning iteration: the guard holds the claim until it resolves.
    Tuning,
    /// A tuning iteration whose proposal was infeasible: penalized inside
    /// `pre`, so the call runs the exploit decision.
    Penalized,
    /// Served from the thread's back-off countdown: runs the published
    /// decision.
    BackedOff,
    /// Found the claim held: runs the published decision.
    Contended,
}

/// In-flight call through a [`Site`]: carries the chosen algorithm and
/// configuration from [`Site::pre`] to [`SiteGuard::post`] (Tuna's
/// `tuna_stack`). Dropping the guard without calling a `post` method
/// abandons the call: the tuner rolls back its proposal and no sample or
/// call is recorded. A guard is resolved on the thread that took it,
/// whose counters it bumps, so it is not `Send`.
pub struct SiteGuard {
    site: Site,
    algorithm: usize,
    config: Configuration,
    /// When the call started, if it is timed: always on the tuning path,
    /// once per timing stride on the untuned paths.
    start: Option<Instant>,
    path: CallPath,
    finished: bool,
    /// The calling thread's cells at this site.
    cells: &'static Cells,
    /// The cells were borrowed for this call only (see [`Site::pre`]).
    leased: bool,
    _owner_thread: PhantomData<*const ()>,
}

impl SiteGuard {
    /// The algorithm to run (always 0 for single-space sites).
    pub fn algorithm(&self) -> usize {
        self.algorithm
    }

    /// The configuration to run it with.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Is this call a tuning iteration whose measurement feeds the tuner?
    /// False on the exploit fast path: a call that found the claim held,
    /// one served from the thread's back-off countdown, or one whose
    /// infeasible proposal was penalized in [`Site::pre`]. Callers use it
    /// to spend careful measurement (e.g. batched timing) only where it
    /// is read.
    pub fn is_tuning(&self) -> bool {
        self.path == CallPath::Tuning
    }

    /// Complete the call (Tuna's `tuna_post`): report the elapsed wall
    /// time since [`Site::pre`] to the site's tuner (tuning iterations)
    /// or just record the call (exploit fast path). Returns the elapsed
    /// milliseconds, or `NaN` for an untuned call the site's timing
    /// stride left untimed ([`Site::timing_stride`]); tuning iterations
    /// are always timed.
    pub fn post(mut self) -> f64 {
        let ms = self.start.map_or(f64::NAN, |t| duration_ms(t.elapsed()));
        self.finish(MeasureOutcome::Ok(ms));
        ms
    }

    /// Complete the call with an explicit measurement outcome — for
    /// callers timing through the robust pipeline
    /// ([`crate::robust::robust_call`]) instead of the guard's own clock.
    /// Failures and timeouts feed the tuner's penalty path.
    pub fn post_outcome(mut self, outcome: MeasureOutcome) {
        self.finish(outcome);
    }

    fn finish(&mut self, outcome: MeasureOutcome) {
        self.finished = true;
        let (slot, cells) = (self.site.slot, self.cells);
        let sample = match (self.path, &outcome) {
            (CallPath::Tuning, _) => {
                // The site's traffic with this call counted.
                let mut traffic = slot.traffic();
                traffic.calls += 1;
                telemetry::with_site(slot.id.tag(), || {
                    // SAFETY: this thread holds the claim (see `Sync` impl).
                    let tuner = unsafe { &mut (*slot.state.get()).tuner };
                    tuner.report_outcome(outcome, traffic);
                    slot.publish(&tuner.tuner, None);
                    // The thread's own tuned call starts its countdown.
                    cells
                        .epoch
                        .store(slot.pub_epoch.load(Ordering::Relaxed), Ordering::Relaxed);
                    cells.countdown.store(tuner.rate.skip, Ordering::Relaxed);
                });
                slot.claim.store(0, Ordering::Release);
                None
            }
            // A successful untuned call feeds the thread's counters and
            // runtime histogram below, not the trace; an untimed one
            // (`NaN`) only counts.
            (CallPath::BackedOff | CallPath::Contended, MeasureOutcome::Ok(ms)) => {
                (!ms.is_nan()).then_some(*ms)
            }
            // Failures and timeouts on the exploit path, and calls whose
            // proposal was penalized in `pre`, stay visible in the trace.
            _ => {
                let algorithm = self.algorithm as u16;
                telemetry::with_site(slot.id.tag(), || {
                    telemetry::emit(|| EventKind::MeasureOutcome {
                        algorithm,
                        status: MeasureStatus::of(&outcome),
                        runtime_ms: outcome.ok().unwrap_or(f64::NAN),
                    });
                });
                None
            }
        };
        Cells::bump(&cells.calls, Ordering::Relaxed);
        // After `calls`, with `Release`: a reader that sees a path count
        // also sees its call (see `SiteSlot::traffic`).
        match self.path {
            CallPath::Contended => Cells::bump(&cells.contended, Ordering::Release),
            CallPath::BackedOff => Cells::bump(&cells.backed_off, Ordering::Release),
            CallPath::Tuning | CallPath::Penalized => {}
        }
        if let Some(ms) = sample {
            Cells::bump(&cells.runtimes[bucket_index(ms)], Ordering::Relaxed);
            Cells::bump(&cells.timed, Ordering::Release);
        }
    }
}

impl Drop for SiteGuard {
    fn drop(&mut self) {
        if !self.finished && self.path == CallPath::Tuning {
            // Abandoned: not counted, since nothing ran to completion.
            let slot = self.site.slot;
            // SAFETY: this thread holds the claim (see `Sync` impl).
            unsafe { &mut (*slot.state.get()).tuner.tuner }.abandon();
            slot.claim.store(0, Ordering::Release);
        }
        if self.leased {
            self.cells.release();
        }
    }
}

/// One registry shard: an independently allocated, cache-line-aligned
/// table of slot pointers (written once at registration, read-only after).
#[repr(align(64))]
struct RegistryShard {
    slots: Box<[AtomicPtr<SiteSlot>]>,
}

/// The process-global, sharded site table. Use the free functions
/// [`register`] / [`site`] (or [`crate::tune_site!`]); the type is public
/// so its capacity and occupancy can be inspected.
pub struct SiteRegistry {
    shards: Box<[RegistryShard]>,
    next: AtomicU32,
}

impl SiteRegistry {
    fn new() -> Self {
        SiteRegistry {
            shards: (0..NUM_SHARDS)
                .map(|_| RegistryShard {
                    slots: (0..SITES_PER_SHARD)
                        .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                        .collect(),
                })
                .collect(),
            next: AtomicU32::new(0),
        }
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(MAX_SITES)
    }

    /// True before the first registration.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register(&self, spec: SiteSpec) -> SiteId {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            (id as usize) < MAX_SITES,
            "site registry exhausted ({MAX_SITES} sites)"
        );
        let site_id = SiteId(id);
        let slot = Box::into_raw(Box::new(SiteSlot::new(site_id, spec)));
        let shard = &self.shards[id as usize % NUM_SHARDS];
        shard.slots[id as usize / NUM_SHARDS].store(slot, Ordering::Release);
        site_id
    }

    fn get(&self, id: SiteId) -> Site {
        let i = id.index();
        assert!(i < MAX_SITES, "site id {i} out of range");
        let ptr = self.shards[i % NUM_SHARDS].slots[i / NUM_SHARDS].load(Ordering::Acquire);
        assert!(!ptr.is_null(), "site id {i} is not registered");
        Site {
            // SAFETY: slots are created by `Box::into_raw` and never freed
            // while the process-global registry lives (i.e. forever).
            slot: unsafe { &*ptr },
        }
    }
}

static REGISTRY: OnceLock<SiteRegistry> = OnceLock::new();

/// The process-global site registry.
pub fn registry() -> &'static SiteRegistry {
    REGISTRY.get_or_init(SiteRegistry::new)
}

/// Register a new long-lived tuning site. Typically called once per call
/// site through [`crate::tune_site!`]; panics after [`MAX_SITES`]
/// registrations.
pub fn register(spec: SiteSpec) -> SiteId {
    registry().register(spec)
}

/// Look up a registered site by id. Panics on an unregistered id.
pub fn site(id: SiteId) -> Site {
    registry().get(id)
}

/// Declare a static tuning site and (optionally) run one call through it.
///
/// The one-argument form evaluates `$spec` on the first execution only,
/// registers the site, and evaluates to the [`Site`] handle — Tuna's
/// `static tuna_site` in a macro:
///
/// ```
/// use autotune::param::Parameter;
/// use autotune::site::SiteSpec;
/// use autotune::space::SearchSpace;
/// use autotune::tune_site;
///
/// let site = tune_site!(SiteSpec::space(
///     "chunk-size",
///     SearchSpace::new(vec![Parameter::ratio("log2_chunk", 4, 16)]),
///     7,
/// ));
/// let guard = site.pre();
/// let _chunk = 1usize << guard.config().get(0).as_i64();
/// // ... do the chunked work ...
/// guard.post();
/// ```
///
/// The two-argument form additionally runs `$body` as one timed call
/// (see [`Site::tuned`]).
#[macro_export]
macro_rules! tune_site {
    ($spec:expr) => {{
        static SITE: ::std::sync::OnceLock<$crate::site::SiteId> = ::std::sync::OnceLock::new();
        $crate::site::site(*SITE.get_or_init(|| $crate::site::register($spec)))
    }};
    ($spec:expr, $body:expr) => {
        $crate::tune_site!($spec).tuned($body)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;

    fn three_algo_spec(name: &str, seed: u64) -> SiteSpec {
        SiteSpec::algorithms(
            name,
            vec![
                AlgorithmSpec::untunable("slow"),
                AlgorithmSpec::untunable("fast"),
                AlgorithmSpec::untunable("mid"),
            ],
            NominalKind::EpsilonGreedy(0.10),
            seed,
        )
    }

    #[test]
    fn value_encoding_round_trips() {
        for v in [
            Value::Int(-40),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::Index(7),
        ] {
            let (bits, tag) = encode_value(v);
            assert_eq!(decode_value(bits, tag), v);
        }
    }

    #[test]
    fn timing_stride_spends_at_most_five_percent_on_the_clock() {
        let clock = 90e-6; // a 90 ns clock pair
        assert_eq!(timing_stride(2e-3, clock), 1, "a 2 µs kernel: every call");
        assert_eq!(timing_stride(1.5e-3, clock), 2);
        assert_eq!(timing_stride(500e-6, clock), 4);
        assert_eq!(timing_stride(50e-6, clock), 64, "50 ns: capped at 64");
        assert_eq!(timing_stride(1e-6, clock), 64);
        assert_eq!(timing_stride(f64::NAN, clock), 1, "no incumbent value yet");
        assert_eq!(timing_stride(f64::INFINITY, clock), 1);
        for v in [3e-6, 40e-6, 700e-6, 1.7e-3] {
            let k = timing_stride(v, clock);
            assert!(
                k == 64 || clock <= TIMING_BUDGET * f64::from(k) * v,
                "{v}: k = {k}"
            );
            assert!(
                k == 1 || clock > TIMING_BUDGET * f64::from(k / 2) * v,
                "{v}: k = {k}"
            );
        }
    }

    #[test]
    fn single_site_converges_like_a_two_phase_tuner() {
        let id = register(three_algo_spec("converges", 3));
        let s = site(id);
        // Drive until the tuner has 300 samples; once the site plateaus,
        // calls inside the rate controller's gap are backed off instead.
        while s.tuned_iterations() < 300 {
            s.tuned(|alg, _| {
                std::hint::black_box([30u64, 5, 15][alg]);
            });
        }
        assert_eq!(s.contended(), 0, "single-threaded runs never contend");
        assert_eq!(s.calls(), 300 + s.backed_off());
        // The cheap algorithm wins on wall time (index 1 only by cost
        // model; here all bodies are ~equal, so just check the protocol).
        s.with_tuner(|t| assert_eq!(t.as_two_phase().unwrap().iterations(), 300));
    }

    #[test]
    fn abandoned_contended_and_backed_off_calls_are_not_counted() {
        let id = register(three_algo_spec("abandon-paths", 47));
        let s = site(id);
        let holder = s.pre();
        assert!(holder.is_tuning());
        // A contended call, abandoned.
        std::thread::spawn(move || drop(site(id).pre()))
            .join()
            .unwrap();
        holder.post_outcome(MeasureOutcome::Ok(1.0));
        // Plateau the site on constant measurements: the 34th tuned
        // iteration is the 33rd stagnant one and opens a gap of 2.
        let mut tuned = 1;
        loop {
            let g = s.pre();
            if !g.is_tuning() {
                drop(g); // a backed-off call, abandoned
                break;
            }
            g.post_outcome(MeasureOutcome::Ok(1.0));
            tuned += 1;
        }
        assert_eq!(tuned, 34);
        assert_eq!(s.calls(), 34);
        assert_eq!(s.contended(), 0);
        assert_eq!(s.backed_off(), 0);
        assert_eq!(s.tuned_iterations(), 34);
        // The abandoned call still used up its place in the gap.
        assert!(s.pre().is_tuning());
    }

    #[test]
    fn published_decision_is_always_valid() {
        let space = SearchSpace::new(vec![
            Parameter::ratio("threads", 1, 8),
            Parameter::interval("cutoff", -10, 50),
        ]);
        let id = register(SiteSpec::space("published", space.clone(), 11));
        let s = site(id);
        // Fresh site: the published decision decodes into the space.
        let Published {
            algorithm, config, ..
        } = s.slot.read_decision();
        assert_eq!(algorithm, 0);
        assert!(space.contains(&config), "{config:?}");
        for _ in 0..50 {
            s.tuned(|_, c| {
                assert!(space.contains(c), "{c:?}");
            });
        }
        let config = s.slot.read_decision().config;
        assert!(space.contains(&config), "{config:?}");
    }

    #[test]
    fn constrained_site_never_runs_infeasible_tuning_proposals() {
        // Threads must be even; repair rounds down. Claim-winning calls are
        // real measurements, so they must always satisfy the constraint.
        let space = SearchSpace::new(vec![Parameter::ratio("threads", 1, 8)]).with_constraint(
            Constraint::new("even", |c: &Configuration| c.get(0).as_i64() % 2 == 0).with_repair(
                |c: &Configuration| {
                    let t = c.get(0).as_i64();
                    Configuration::new(vec![Value::Int((t - t % 2).max(2))])
                },
            ),
        );
        let id = register(SiteSpec::space("constrained", space, 31));
        let s = site(id);
        for _ in 0..100 {
            let g = s.pre();
            if g.is_tuning() {
                assert_eq!(g.config().get(0).as_i64() % 2, 0, "{:?}", g.config());
            }
            g.post();
        }
        assert_eq!(s.calls(), 100);
    }

    #[test]
    fn irreparable_site_penalizes_and_serves_the_exploit_path() {
        // Unsatisfiable constraint: every proposal is irreparably
        // infeasible, so the tuner absorbs penalties and callers are served
        // the published decision — the site never wedges and the body is
        // never timed as a measurement.
        let spec = SiteSpec::space(
            "blocked",
            SearchSpace::new(vec![Parameter::ratio("x", 0, 4)]),
            37,
        )
        .with_constraint(Constraint::new("never", |_| false));
        let id = register(spec);
        let s = site(id);
        for _ in 0..20 {
            let g = s.pre();
            assert!(!g.is_tuning(), "infeasible proposals must not be timed");
            g.post();
        }
        assert_eq!(s.calls(), 20);
        s.with_tuner(|t| {
            let tuner = t.as_two_phase().unwrap();
            assert_eq!(tuner.failure_counts(), [20], "each call penalized once");
        });
    }

    #[test]
    fn contended_calls_take_the_exploit_path() {
        let id = register(three_algo_spec("contended", 17));
        let s = site(id);
        // Hold the claim on this thread, then drive calls from another:
        // every one of them must take the exploit path.
        let guard = s.pre();
        assert!(guard.is_tuning());
        let handle = std::thread::spawn(move || {
            let s = site(id);
            for _ in 0..25 {
                let g = s.pre();
                assert!(!g.is_tuning());
                g.post();
            }
        });
        handle.join().unwrap();
        guard.post();
        assert_eq!(s.calls(), 26);
        assert_eq!(s.contended(), 25);
        assert_eq!(s.tuned_iterations(), 1);
    }

    #[test]
    fn dropping_the_guard_abandons_the_call() {
        let id = register(three_algo_spec("abandon", 23));
        let s = site(id);
        drop(s.pre());
        assert_eq!(s.calls(), 0, "abandoned calls are not counted");
        // The site is not wedged: a full call still works.
        s.tuned(|_, _| {});
        assert_eq!(s.calls(), 1);
        assert_eq!(s.tuned_iterations(), 1);
    }

    #[test]
    fn panicking_body_releases_the_claim() {
        let id = register(three_algo_spec("panics", 29));
        let s = site(id);
        let r = std::panic::catch_unwind(|| {
            site(id).tuned(|_, _| panic!("kernel exploded"));
        });
        assert!(r.is_err());
        assert_eq!(s.calls(), 0);
        // Next call wins the claim again (the site is not stuck in
        // exploit-forever).
        let g = s.pre();
        assert!(g.is_tuning());
        g.post();
    }

    #[test]
    fn panicking_with_tuner_closure_releases_the_claim() {
        let id = register(three_algo_spec("with-tuner-panics", 41));
        let s = site(id);
        let r = std::panic::catch_unwind(|| site(id).with_tuner(|_| -> () { panic!("boom") }));
        assert!(r.is_err());
        // The claim was released on unwind: the next call still tunes.
        let g = s.pre();
        assert!(g.is_tuning());
        g.post();
    }

    #[test]
    fn try_with_tuner_declines_while_the_claim_is_held() {
        let id = register(three_algo_spec("try-tuner", 43));
        let s = site(id);
        assert!(s.try_with_tuner(|_| ()).is_some(), "free claim succeeds");
        let g = s.pre();
        assert!(g.is_tuning());
        assert!(
            s.try_with_tuner(|_| ()).is_none(),
            "held claim declines instead of spinning"
        );
        g.post();
        assert!(s.try_with_tuner(|_| ()).is_some());
    }

    #[test]
    fn tune_site_macro_registers_once() {
        fn hot_function() -> Site {
            tune_site!(SiteSpec::space(
                "macro-static",
                SearchSpace::new(vec![Parameter::ratio("x", 0, 10)]),
                5,
            ))
        }
        let a = hot_function();
        let b = hot_function();
        assert_eq!(a.id(), b.id(), "one static site per call site");
        a.tuned(|_, _| {});
        b.tuned(|_, _| {});
        assert_eq!(a.calls(), 2);
    }

    #[test]
    fn restart_rebuilds_the_tuner_and_republishes() {
        let id = register(three_algo_spec("restart", 37));
        let s = site(id);
        while s.tuned_iterations() < 40 {
            s.tuned(|_, _| {});
        }
        s.with_tuner(|t| assert_eq!(t.as_two_phase().unwrap().iterations(), 40));
        let calls = s.calls();
        assert_eq!(calls, 40 + s.backed_off());
        assert_eq!(s.restarts(), 0);
        s.restart();
        assert_eq!(s.restarts(), 1);
        // Learned state is gone; traffic counters are not.
        s.with_tuner(|t| assert_eq!(t.as_two_phase().unwrap().iterations(), 0));
        assert_eq!(s.calls(), calls);
        // The published decision is still valid, and the rebuilt tuner
        // tunes the very next call.
        assert!(s.slot.read_decision().algorithm < 3);
        let g = s.pre();
        assert!(g.is_tuning(), "a restart returns the site to full rate");
        g.post();
        s.with_tuner(|t| assert_eq!(t.as_two_phase().unwrap().iterations(), 1));
    }

    #[test]
    fn a_retired_threads_cells_pass_to_the_next_thread_with_their_counts() {
        let id = register(three_algo_spec("retire", 53));
        let calls = |n| move || (0..n).for_each(|_| site(id).tuned(|_, _| {}));
        // `join` returns after the thread's locals are torn down.
        std::thread::spawn(calls(3)).join().unwrap();
        let s = site(id);
        assert_eq!(s.slot.cells().count(), 1);
        std::thread::spawn(calls(2)).join().unwrap();
        assert_eq!(
            s.slot.cells().count(),
            1,
            "the second thread adopted the cell"
        );
        assert_eq!(s.calls(), 5);
    }

    #[test]
    fn a_call_from_a_thread_local_destructor_is_counted() {
        struct CallOnDrop(SiteId);
        impl Drop for CallOnDrop {
            fn drop(&mut self) {
                site(self.0).tuned(|_, _| {});
            }
        }
        thread_local! {
            static LATE: RefCell<Option<CallOnDrop>> = const { RefCell::new(None) };
        }
        let id = register(three_algo_spec("late-call", 59));
        std::thread::spawn(move || {
            LATE.with(|late| *late.borrow_mut() = Some(CallOnDrop(id)));
            site(id).tuned(|_, _| {});
        })
        .join()
        .unwrap();
        let s = site(id);
        assert_eq!(s.calls(), 2);
        assert!(s.slot.cells().all(|c| !c.owned.load(Ordering::Relaxed)));
    }

    #[test]
    fn registry_lookup_matches_registration() {
        let before = registry().len();
        let id = register(three_algo_spec("lookup", 31));
        assert!(registry().len() > before);
        assert_eq!(site(id).id(), id);
        assert_eq!(site(id).num_algorithms(), 3);
        assert_eq!(site(id).name(), "lookup");
    }
}
