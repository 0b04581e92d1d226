//! The concurrent multi-site tuning runtime: a process-global, sharded
//! registry of long-lived tuning sites.
//!
//! The paper's tuners ([`crate::tuner::OnlineTuner`],
//! [`crate::two_phase::TwoPhaseTuner`]) each own one call site on one
//! thread. Production workloads look different: *thousands* of independent
//! tuned call sites (one per hot function, per input-size bucket, per
//! endpoint) hit concurrently by many request threads. This module makes
//! that a first-class, near-zero-overhead capability, mirroring the shape
//! of Tuna's `tuna_site`/`tuna_pre`/`tuna_post` API around
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
//! `UnsafeCell` guarded by a single claim word. A thread entering a site
//! tries one `compare_exchange(0 → 1, Acquire)`:
//!
//! * **Winner** — asks the site's tuning-rate controller whether this call
//!   tunes. Normally it does, and the winner drives a real tuning
//!   iteration: `next()` on the embedded tuner, runs the chosen algorithm,
//!   `report()`s the measured time, then publishes the tuner's current
//!   exploit choice and releases the claim with a `Release` store. The
//!   Acquire/Release pairing on the claim word makes all tuner mutations
//!   happen-before the next winner's accesses — the same discipline as a
//!   spinlock, except nobody ever spins. A call the controller *backs
//!   off* releases the claim inside [`Site::pre`] and continues like a
//!   loser.
//! * **Loser** — does *not* wait. It reads the most recently *published*
//!   decision (best algorithm + its best-known configuration) through a
//!   seqlock and runs that; the tuner never sees its time. Contended
//!   calls therefore cost one failed CAS plus a seqlock read, and the
//!   measurement stream feeding the tuner stays serialized per site — no
//!   torn or interleaved ask/tell protocols, no lost updates.
//!
//! **Tuning rate.** The paper tunes until convergence and then exploits;
//! an always-on site has to notice convergence itself. Once a site's best
//! value has not improved by more than 5% for 32 tuned iterations, the
//! gap between tuning calls doubles with each further plateaued
//! iteration, up to one tuning call in 64. A claim-winning call inside the
//! gap is served the published decision like a contended call (no RNG
//! draw, no tuner change) and counted by [`Site::backed_off`]. A >5%
//! improvement, or a freshly built tuner ([`Site::restart`], a context
//! key's first admission), returns the site to tuning every call. The
//! controller lives in the claim-guarded [`SiteTuner`], so it travels with
//! the tuner when [`crate::context::ContextSites`] parks and reinstates
//! it. DESIGN.md §12 explains the constants.
//!
//! **The seqlock.** The published decision is a fixed-size, heap-free
//! encoding (algorithm index + up to [`MAX_PUBLISHED_PARAMS`] tagged
//! parameter values, each an `AtomicU64`). The writer (always the claim
//! holder, so writers never race each other) bumps the sequence word to odd
//! (`Relaxed` store, then a `Release` fence orders it before the data
//! stores), writes the payload with `Relaxed` stores, and bumps to even with
//! a `Release` store that orders the payload before it. Readers load the
//! sequence (`Acquire`), copy the payload (`Relaxed`), issue an `Acquire`
//! fence, and re-check the sequence: an odd or changed sequence means a
//! concurrent publish, so the read retries. Every word is an atomic, so
//! even a torn read-in-progress is well-defined — the retry just discards
//! it.
//!
//! **Counters.** Per-site call, contention and back-off counters are
//! `fetch_add`s on the slot, bumped when a call completes — monotonic and
//! exact (no lost updates), which the 8-thread stress test in
//! `tests/site_runtime.rs` pins. Every completed call is exactly one of
//! tuned, contended or backed off.
//!
//! **Telemetry.** Every event a site's tuner emits is stamped with the
//! site's id via [`crate::telemetry::with_site`], so one global trace
//! interleaves thousands of sites and can still be split per site at
//! export time.
//!
//! Single-threaded use drives the embedded tuner exactly as a direct
//! caller would: the claim CAS always succeeds, so the tuned calls'
//! sample log is *bit-identical* to a direct tuner's with the same seeds
//! and measurements, and every backed-off call runs the direct tuner's
//! exploit choice at that point — property-tested in
//! `tests/site_runtime.rs`.

use crate::measure::duration_ms;
use crate::param::Value;
use crate::robust::MeasureOutcome;
use crate::search::Searcher;
use crate::space::{Configuration, Constraint, SearchSpace};
use crate::telemetry::{self, EventKind, MeasureStatus};
use crate::tuner::{OnlineTuner, Plateau, Termination};
use crate::two_phase::{AlgorithmSpec, NominalKind, Phase1Kind, TwoPhaseTuner};
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Capacity of the process-global site registry.
pub const MAX_SITES: usize = 8192;

/// Number of registry shards; site ids stripe across shards round-robin.
pub const NUM_SHARDS: usize = 64;

const SITES_PER_SHARD: usize = MAX_SITES / NUM_SHARDS;

/// Maximum number of parameters a site's per-algorithm configuration may
/// have: the published exploit decision inlines every parameter value into
/// a fixed, heap-free seqlock payload. Checked at registration.
pub const MAX_PUBLISHED_PARAMS: usize = 8;

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

/// What a site tunes: algorithmic choice (two-phase) or a single numeric
/// parameter space.
#[derive(Clone)]
enum SpecKind {
    /// Phase-2 selection over algorithms, each with its own phase-1 space.
    Algorithms(Vec<AlgorithmSpec>, NominalKind),
    /// A single parameter space with no algorithmic choice, plus an
    /// optional starting configuration (set by warm-starting).
    Space(SearchSpace, Option<Configuration>),
}

/// Blueprint of a tuning site: what it tunes and with which strategies and
/// seed. Consumed by [`register`]; the slot keeps a clone as the recipe
/// for [`Site::restart`].
#[derive(Clone)]
pub struct SiteSpec {
    name: String,
    kind: SpecKind,
    phase1: Phase1Kind,
    seed: u64,
}

impl SiteSpec {
    /// A site with algorithmic choice: a phase-2 `nominal` strategy over
    /// `specs`, each algorithm with its own phase-1 searcher (Nelder-Mead
    /// unless overridden via [`SiteSpec::with_phase1`]). Equivalent to a
    /// dedicated [`TwoPhaseTuner`] with the same arguments.
    pub fn algorithms(
        name: impl Into<String>,
        specs: Vec<AlgorithmSpec>,
        nominal: NominalKind,
        seed: u64,
    ) -> Self {
        SiteSpec {
            name: name.into(),
            kind: SpecKind::Algorithms(specs, nominal),
            phase1: Phase1Kind::NelderMead,
            seed,
        }
    }

    /// A site tuning a single parameter space with no algorithmic choice.
    /// Equivalent to a dedicated [`OnlineTuner`] with [`Termination::Never`]:
    /// a plateaued site backs off its tuning rate instead of stopping.
    pub fn space(name: impl Into<String>, space: SearchSpace, seed: u64) -> Self {
        SiteSpec {
            name: name.into(),
            kind: SpecKind::Space(space, None),
            phase1: Phase1Kind::NelderMead,
            seed,
        }
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
    /// `incumbents` is index-aligned with the algorithm order
    /// (single-space sites read index 0). An incumbent is adopted only
    /// where it lies inside — and is feasible in — the matching
    /// algorithm's space; missing or infeasible entries leave that
    /// algorithm's start untouched, so a neighbor's posterior can never
    /// smuggle an invalid configuration past the constraints.
    pub fn with_incumbent_starts(
        mut self,
        incumbents: &[Option<(Configuration, f64)>],
    ) -> SiteSpec {
        match &mut self.kind {
            SpecKind::Algorithms(specs, _) => {
                for (s, inc) in specs.iter_mut().zip(incumbents) {
                    if let Some((c, _)) = inc {
                        if s.space.contains(c) && s.space.is_feasible(c) {
                            s.start = Some(c.clone());
                        }
                    }
                }
            }
            SpecKind::Space(space, start) => {
                if let Some(Some((c, _))) = incumbents.first() {
                    if space.contains(c) && space.is_feasible(c) {
                        *start = Some(c.clone());
                    }
                }
            }
        }
        self
    }

    /// Override the phase-1 searcher kind.
    pub fn with_phase1(mut self, phase1: Phase1Kind) -> Self {
        self.phase1 = phase1;
        self
    }

    /// Attach a feasibility [`Constraint`] to the site's search space.
    /// Single-space sites attach it to their space; algorithmic-choice
    /// sites attach it to *every* algorithm's space (declare constraints on
    /// the individual [`AlgorithmSpec`] spaces for per-algorithm rules).
    /// Proposals the constraint rejects and cannot repair are penalized by
    /// the site's tuner without ever reaching the interchangeable code.
    pub fn with_constraint(mut self, constraint: Constraint) -> Self {
        match &mut self.kind {
            SpecKind::Algorithms(specs, _) => {
                for s in specs.iter_mut() {
                    s.space = s.space.clone().with_constraint(constraint.clone());
                }
            }
            SpecKind::Space(space, _) => {
                *space = space.clone().with_constraint(constraint.clone());
            }
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

/// A site's tuning-rate controller (see the module docs and DESIGN.md
/// §12): a plateau counter over the tuned iterations' values, and the
/// number of claim-winning calls still to serve from the published
/// decision before the next tuning call.
struct TuningRate {
    plateau: Plateau,
    skip: u32,
}

impl TuningRate {
    fn new() -> Self {
        TuningRate {
            plateau: Plateau::new(PLATEAU_TOLERANCE),
            skip: 0,
        }
    }

    /// Calls from one tuning call to the next: 1 until the site has
    /// plateaued, then doubling with each further plateaued iteration up
    /// to 64. The `n`-th consecutive non-improving tuned iteration is
    /// followed by a gap of `2^min(n − 32, 6)` for `n ≥ 32`.
    fn gap(&self) -> u32 {
        match self.plateau.len().checked_sub(PLATEAU_WINDOW) {
            None => 1,
            Some(extra) => 1 << extra.min(MAX_GAP_LOG2),
        }
    }

    /// Feed one tuned iteration's value and schedule the next tuning call.
    fn record(&mut self, value: f64) {
        self.plateau.observe(value);
        self.skip = self.gap() - 1;
    }

    /// Should this claim-winning call back off? Consumes one place in
    /// the gap when it does.
    fn back_off(&mut self) -> bool {
        let skip = self.skip > 0;
        if skip {
            self.skip -= 1;
        }
        skip
    }
}

/// The state machine a site drives: the same tuners applications drive
/// directly.
enum Engine {
    /// Algorithmic choice: a full two-phase tuner.
    TwoPhase(TwoPhaseTuner),
    /// Single parameter space: an online tuning loop.
    Single(OnlineTuner<Box<dyn Searcher>>),
}

/// The tuner embedded in a site — a two-phase tuner or a single-space
/// online loop, plus the site's tuning-rate controller — made shareable
/// by the slot's claim discipline. Moving a `SiteTuner` (parking it on
/// eviction, reinstating it on re-admission) carries the controller with
/// it; building one starts the site at full rate.
pub struct SiteTuner {
    engine: Engine,
    rate: TuningRate,
}

impl SiteTuner {
    fn build(spec: SiteSpec) -> (SiteTuner, String) {
        let SiteSpec {
            name,
            kind,
            phase1,
            seed,
        } = spec;
        let engine = match kind {
            SpecKind::Algorithms(specs, nominal) => {
                for s in &specs {
                    assert!(
                        s.space.dims() <= MAX_PUBLISHED_PARAMS,
                        "algorithm '{}' has {} parameters; sites publish at most {}",
                        s.name,
                        s.space.dims(),
                        MAX_PUBLISHED_PARAMS
                    );
                }
                Engine::TwoPhase(TwoPhaseTuner::with_phase1(specs, nominal, phase1, seed))
            }
            SpecKind::Space(space, start) => {
                assert!(
                    space.dims() <= MAX_PUBLISHED_PARAMS,
                    "space has {} parameters; sites publish at most {}",
                    space.dims(),
                    MAX_PUBLISHED_PARAMS
                );
                let mut aspec = AlgorithmSpec::new(name.clone(), space);
                aspec.start = start;
                let searcher = phase1.build(&aspec, seed);
                Engine::Single(OnlineTuner::new(searcher, Termination::Never))
            }
        };
        let tuner = SiteTuner {
            engine,
            rate: TuningRate::new(),
        };
        (tuner, name)
    }

    fn next(&mut self) -> (usize, Configuration) {
        match &mut self.engine {
            Engine::TwoPhase(t) => t.next(),
            Engine::Single(t) => (0, t.ask()),
        }
    }

    fn is_feasible(&self, algorithm: usize, config: &Configuration) -> bool {
        match &self.engine {
            Engine::TwoPhase(t) => t.space(algorithm).is_feasible(config),
            Engine::Single(t) => t.searcher().space().is_feasible(config),
        }
    }

    /// Complete the pending iteration; its recorded value (measurement
    /// or failure penalty) also feeds the tuning-rate controller.
    fn report_outcome(&mut self, outcome: MeasureOutcome) {
        let value = match &mut self.engine {
            Engine::TwoPhase(t) => t.report_outcome(outcome).value,
            Engine::Single(t) => t.tell_outcome(outcome).value,
        };
        self.rate.record(value);
    }

    fn abandon(&mut self) {
        match &mut self.engine {
            Engine::TwoPhase(t) => {
                t.abandon();
            }
            Engine::Single(t) => {
                t.abandon();
            }
        }
    }

    fn exploit_choice(&self) -> (usize, Configuration) {
        match &self.engine {
            Engine::TwoPhase(t) => t.exploit_choice(),
            Engine::Single(t) => (
                0,
                t.best()
                    .map(|(c, _)| c.clone())
                    .unwrap_or_else(|| t.searcher().space().min_corner()),
            ),
        }
    }

    fn algorithm_count(&self) -> usize {
        match &self.engine {
            Engine::TwoPhase(t) => t.num_algorithms(),
            Engine::Single(_) => 1,
        }
    }

    /// Build a *warm-started* tuner from a blueprint and a neighboring
    /// context's posterior: every phase-1 searcher starts from the
    /// neighbor's incumbent configuration for its algorithm (where
    /// feasible — see [`SiteSpec::with_incumbent_starts`]), and for
    /// algorithmic-choice sites the phase-2 strategy is pre-seeded with
    /// one synthetic sample per observed algorithm
    /// ([`TwoPhaseTuner::seed_algorithm`]), so selection weights start
    /// from the neighbor's ranking instead of uniform ignorance.
    ///
    /// This is the seeding rule behind [`crate::context::ContextSites`]
    /// cross-context warm-starting; DESIGN.md §11 motivates it.
    pub fn build_warm(spec: SiteSpec, incumbents: &[Option<(Configuration, f64)>]) -> SiteTuner {
        let (mut tuner, _name) = SiteTuner::build(spec.with_incumbent_starts(incumbents));
        if let Engine::TwoPhase(t) = &mut tuner.engine {
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
    /// observed yet. Index-aligned with the algorithm order
    /// (single-space tuners return one entry). This is the "posterior"
    /// a neighboring context is warm-started from.
    pub fn incumbents(&self) -> Vec<Option<(Configuration, f64)>> {
        match &self.engine {
            Engine::TwoPhase(t) => (0..t.num_algorithms())
                .map(|i| t.searcher_best(i).map(|(c, v)| (c.clone(), v)))
                .collect(),
            Engine::Single(t) => vec![t.best().map(|(c, v)| (c.clone(), v))],
        }
    }

    /// The embedded two-phase tuner, if this site has algorithmic choice.
    pub fn as_two_phase(&self) -> Option<&TwoPhaseTuner> {
        match &self.engine {
            Engine::TwoPhase(t) => Some(t),
            Engine::Single(_) => None,
        }
    }

    /// The embedded single-space tuner, if this site has none.
    pub fn as_single(&self) -> Option<&OnlineTuner<Box<dyn Searcher>>> {
        match &self.engine {
            Engine::TwoPhase(_) => None,
            Engine::Single(t) => Some(t),
        }
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

/// One registered tuning site: claim word, counters, the seqlock-published
/// exploit decision, and the embedded tuner. Each slot is its own
/// cache-line-aligned allocation so independent sites never false-share.
#[repr(align(64))]
struct SiteSlot {
    /// Claim word: 0 = free, 1 = a thread holds the tuner (a tuning
    /// iteration, or a rate decision inside [`Site::pre`]).
    claim: AtomicU32,
    /// Completed calls through this site (tuned + exploit fast path).
    calls: AtomicU64,
    /// Completed calls that lost the claim race and took the exploit
    /// fast path.
    contended: AtomicU64,
    /// Completed calls the tuning-rate controller served from the
    /// published decision.
    backed_off: AtomicU64,
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
        let num_algorithms = tuner.algorithm_count();
        let slot = SiteSlot {
            claim: AtomicU32::new(0),
            calls: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            backed_off: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            seq: AtomicU32::new(0),
            pub_algo: AtomicU32::new(0),
            pub_len: AtomicU32::new(0),
            pub_tags: AtomicU64::new(0),
            pub_vals: Default::default(),
            id,
            name,
            num_algorithms: AtomicU32::new(num_algorithms as u32),
            state: UnsafeCell::new(SlotState { tuner, recipe }),
        };
        // Publish the initial exploit decision (the hand-crafted start or
        // the space's minimum corner) so the exploit fast path is valid
        // from the very first contended call. Single-threaded here: the
        // slot is not yet visible to the registry.
        let (algo, config) = unsafe { &(*slot.state.get()).tuner }.exploit_choice();
        slot.publish(algo, &config);
        slot
    }

    /// Publish `(algo, config)` as the decision contended callers run.
    /// Caller must hold the claim (or be constructing the slot), so there
    /// is exactly one writer at a time.
    fn publish(&self, algo: usize, config: &Configuration) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        // Order the odd sequence before the payload stores.
        fence(Ordering::Release);
        self.pub_algo.store(algo as u32, Ordering::Relaxed);
        let values = config.values();
        self.pub_len.store(values.len() as u32, Ordering::Relaxed);
        let mut tags = 0u64;
        for (i, v) in values.iter().take(MAX_PUBLISHED_PARAMS).enumerate() {
            let (bits, tag) = encode_value(*v);
            self.pub_vals[i].store(bits, Ordering::Relaxed);
            tags |= tag << (2 * i);
        }
        self.pub_tags.store(tags, Ordering::Relaxed);
        // Order the payload stores before the even sequence.
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Seqlock read of the published decision. Lock-free: retries only
    /// while a concurrent publish is mid-flight.
    fn read_decision(&self) -> (usize, Configuration) {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let algo = self.pub_algo.load(Ordering::Relaxed) as usize;
                let len = (self.pub_len.load(Ordering::Relaxed) as usize).min(MAX_PUBLISHED_PARAMS);
                let tags = self.pub_tags.load(Ordering::Relaxed);
                let mut values = Vec::with_capacity(len);
                for (i, slot) in self.pub_vals.iter().take(len).enumerate() {
                    values.push(decode_value(
                        slot.load(Ordering::Relaxed),
                        (tags >> (2 * i)) & 0b11,
                    ));
                }
                // Order the payload loads before the sequence re-check.
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return (algo, Configuration::new(values));
                }
            }
            std::hint::spin_loop();
        }
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
    /// path). Exact under concurrency — the stress tests pin this.
    pub fn calls(self) -> u64 {
        self.slot.calls.load(Ordering::Relaxed)
    }

    /// Calls that lost the claim race and ran the published decision
    /// instead of a tuning iteration.
    pub fn contended(self) -> u64 {
        // `Acquire` pairs with the `Release` bump in `SiteGuard::finish`,
        // which follows the call's `calls` bump.
        self.slot.contended.load(Ordering::Acquire)
    }

    /// Calls that won the claim inside the tuning-rate controller's gap
    /// and ran the published decision instead of a tuning iteration (see
    /// the module docs).
    pub fn backed_off(self) -> u64 {
        self.slot.backed_off.load(Ordering::Acquire)
    }

    /// Calls that ran a full tuning iteration: `calls − contended −
    /// backed_off`. Loading the two path counters first means every call
    /// they count is already in `calls`, so a read racing live traffic
    /// never underflows.
    pub fn tuned_iterations(self) -> u64 {
        let untuned = self.contended() + self.backed_off();
        self.calls() - untuned
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
    /// tuner's rate controller starts fresh, so the site tunes every call
    /// again until it re-plateaus.
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
        while slot
            .claim
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // SAFETY: this thread holds the claim (see `Sync` impl).
        let state = unsafe { &mut *slot.state.get() };
        let (tuner, _name) = SiteTuner::build(state.recipe.clone());
        state.tuner = tuner;
        let (algo, config) = state.tuner.exploit_choice();
        slot.publish(algo, &config);
        slot.restarts.fetch_add(1, Ordering::Relaxed);
        slot.claim.store(0, Ordering::Release);
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
    /// slot, not the binding. A reinstated tuner brings its rate
    /// controller along; a cold build starts at full rate.
    pub fn rebind(self, spec: SiteSpec, tuner: Option<SiteTuner>) -> SiteTuner {
        let slot = self.slot;
        // Cold builds happen outside the claim: registration cost must
        // not extend the window in which callers are forced onto the
        // (stale) exploit path.
        let incoming = match tuner {
            Some(t) => t,
            None => SiteTuner::build(spec.clone()).0,
        };
        while slot
            .claim
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // SAFETY: this thread holds the claim (see `Sync` impl).
        let state = unsafe { &mut *slot.state.get() };
        let outgoing = std::mem::replace(&mut state.tuner, incoming);
        state.recipe = spec;
        slot.num_algorithms
            .store(state.tuner.algorithm_count() as u32, Ordering::Relaxed);
        let (algo, config) = state.tuner.exploit_choice();
        slot.publish(algo, &config);
        slot.claim.store(0, Ordering::Release);
        outgoing
    }

    /// Enter the site (Tuna's `tuna_pre`): pick the algorithm and
    /// configuration to run. A thread that wins the claim CAS asks the
    /// tuning-rate controller first: inside the controller's gap it
    /// releases the claim and runs the published exploit decision,
    /// otherwise it keeps the claim and runs a fresh tuner proposal. A
    /// thread that loses the CAS runs the published decision. Pair with
    /// [`SiteGuard::post`] / [`SiteGuard::post_outcome`] around the
    /// interchangeable code, or drop the guard to abandon the call.
    pub fn pre(self) -> SiteGuard {
        let slot = self.slot;
        let (path, (algorithm, config)) = if slot
            .claim
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // Releases the claim on every path but a tuning iteration's,
            // including a panic mid-proposal.
            let bomb = ReleaseClaim(slot);
            // SAFETY: this thread holds the claim (see `Sync` impl).
            let tuner = unsafe { &mut (*slot.state.get()).tuner };
            if tuner.rate.back_off() {
                // The tuner is untouched, so the published decision is its
                // exploit choice; no writer can race this read.
                (CallPath::BackedOff, slot.read_decision())
            } else {
                let proposal = telemetry::with_site(slot.id.tag(), || {
                    let (a, c) = tuner.next();
                    if tuner.is_feasible(a, &c) {
                        return Ok((a, c));
                    }
                    // The searcher could not repair its proposal into the
                    // constrained region: take the penalty path inside the
                    // claim instead of letting the caller run (and time) an
                    // invalid configuration, and re-publish the exploit
                    // decision, which the caller runs instead.
                    tuner.report_outcome(MeasureOutcome::Failed("infeasible proposal".into()));
                    let exploit = tuner.exploit_choice();
                    slot.publish(exploit.0, &exploit.1);
                    Err(exploit)
                });
                match proposal {
                    Ok(p) => {
                        std::mem::forget(bomb);
                        (CallPath::Tuning, p)
                    }
                    Err(exploit) => (CallPath::Penalized, exploit),
                }
            }
        } else {
            (CallPath::Contended, slot.read_decision())
        };
        SiteGuard {
            site: self,
            algorithm,
            config,
            start: Instant::now(),
            path,
            finished: false,
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
        while slot
            .claim
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
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
        if slot
            .claim
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
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
    /// Inside the tuning-rate controller's gap: runs the published
    /// decision.
    BackedOff,
    /// Lost the claim race: runs the published decision.
    Contended,
}

/// In-flight call through a [`Site`]: carries the chosen algorithm and
/// configuration from [`Site::pre`] to [`SiteGuard::post`] (Tuna's
/// `tuna_stack`). Dropping the guard without calling a `post` method
/// abandons the call: the tuner rolls back its proposal and no sample or
/// call is recorded.
pub struct SiteGuard {
    site: Site,
    algorithm: usize,
    config: Configuration,
    start: Instant,
    path: CallPath,
    finished: bool,
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
    /// False on the exploit fast path: a call that lost the claim race,
    /// one the tuning-rate controller backed off, or one whose infeasible
    /// proposal was penalized in [`Site::pre`]. Callers use it to spend
    /// careful measurement (e.g. batched timing) only where it is read.
    pub fn is_tuning(&self) -> bool {
        self.path == CallPath::Tuning
    }

    /// Complete the call (Tuna's `tuna_post`): report the elapsed wall
    /// time since [`Site::pre`] to the site's tuner (tuning iterations)
    /// or just record the call (exploit fast path). Returns the elapsed
    /// milliseconds either way.
    pub fn post(mut self) -> f64 {
        let ms = duration_ms(self.start.elapsed());
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
        let slot = self.site.slot;
        if self.path == CallPath::Tuning {
            telemetry::with_site(slot.id.tag(), || {
                // SAFETY: this thread holds the claim (see `Sync` impl).
                let tuner = unsafe { &mut (*slot.state.get()).tuner };
                tuner.report_outcome(outcome);
                let (algo, config) = tuner.exploit_choice();
                slot.publish(algo, &config);
            });
            slot.claim.store(0, Ordering::Release);
        } else {
            // Exploit fast path: the tuner never sees this sample, but the
            // trace still shows the site's activity.
            let algorithm = self.algorithm as u16;
            telemetry::with_site(slot.id.tag(), || {
                telemetry::emit(|| EventKind::MeasureOutcome {
                    algorithm,
                    status: match &outcome {
                        MeasureOutcome::Ok(_) => MeasureStatus::Ok,
                        MeasureOutcome::Failed(_) => MeasureStatus::Failed,
                        MeasureOutcome::TimedOut => MeasureStatus::TimedOut,
                    },
                    runtime_ms: match &outcome {
                        MeasureOutcome::Ok(v) => *v,
                        _ => f64::NAN,
                    },
                });
            });
        }
        slot.calls.fetch_add(1, Ordering::Relaxed);
        // After `calls`, with `Release`: a reader that sees a path count
        // also sees its call (see `Site::tuned_iterations`).
        let path_count = match self.path {
            CallPath::Contended => Some(&slot.contended),
            CallPath::BackedOff => Some(&slot.backed_off),
            CallPath::Tuning | CallPath::Penalized => None,
        };
        if let Some(count) = path_count {
            count.fetch_add(1, Ordering::Release);
        }
    }
}

impl Drop for SiteGuard {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let slot = self.site.slot;
        if self.path == CallPath::Tuning {
            // SAFETY: this thread holds the claim (see `Sync` impl).
            unsafe { &mut (*slot.state.get()).tuner }.abandon();
            slot.claim.store(0, Ordering::Release);
        }
        // Abandoned calls are not counted: nothing ran to completion.
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
        s.with_tuner(|t| {
            let tp = t.as_two_phase().unwrap();
            assert_eq!(tp.log().len(), 300);
        });
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
        let (algo, config) = s.slot.read_decision();
        assert_eq!(algo, 0);
        assert!(space.contains(&config), "{config:?}");
        for _ in 0..50 {
            s.tuned(|_, c| {
                assert!(space.contains(c), "{c:?}");
            });
        }
        let (_, config) = s.slot.read_decision();
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
            let tuner = t.as_single().unwrap();
            assert_eq!(tuner.failure_count(), 20, "each call penalized once");
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
        s.with_tuner(|t| assert_eq!(t.as_two_phase().unwrap().log().len(), 40));
        let calls = s.calls();
        assert_eq!(calls, 40 + s.backed_off());
        assert_eq!(s.restarts(), 0);
        s.restart();
        assert_eq!(s.restarts(), 1);
        // Learned state is gone; traffic counters are not.
        s.with_tuner(|t| assert_eq!(t.as_two_phase().unwrap().log().len(), 0));
        assert_eq!(s.calls(), calls);
        // The published decision is still valid, and the rebuilt tuner
        // tunes the very next call.
        let (algo, _) = s.slot.read_decision();
        assert!(algo < 3);
        let g = s.pre();
        assert!(g.is_tuning(), "a restart returns the site to full rate");
        g.post();
        s.with_tuner(|t| assert_eq!(t.as_two_phase().unwrap().log().len(), 1));
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
