//! Context dimensions: keyed families of tuning sites.
//!
//! The paper's central claim is that algorithmic choice should be
//! re-decided per *input context* — the best sort for 20 elements is not
//! the best sort for 20,000, and the best matcher for DNA text is not the
//! best for English. A [`crate::site::Site`] learns one decision; this
//! module learns one decision *per context key*.
//!
//! A [`ContextKey`] is a small, hashable description of the input class
//! (size class, presortedness, alphabet, …) that also exposes an ordered
//! feature vector so keys have a notion of *nearness*. A
//! [`ContextSites`] table maps keys to sites dynamically:
//!
//! * **Lock-free resident dispatch** — a dispatch whose key is already
//!   bound finds its binding through a hash index, pins it and validates
//!   it without taking the table lock, so threads dispatching into one
//!   table do not serialize. Admission, eviction and the inspection
//!   methods take the lock; a lookup that misses falls back to it.
//! * **LRU-bounded allocation** — the table holds at most `capacity`
//!   registry slots in steady state (named `{prefix}/slotNN`). Unbounded
//!   key spaces are safe: when every slot is bound and a new key arrives,
//!   the least recently used *idle* binding is evicted and its slot is
//!   recycled via [`crate::site::Site::rebind`]. Only idle bindings are
//!   ever recycled — if every binding has a call in flight the table
//!   grows by one overflow slot ([`ContextStats::overflows`]) instead of
//!   waiting, so no table method ever blocks on an in-flight guard and
//!   dispatching while already holding a [`ContextGuard`] cannot
//!   deadlock. Registry slots are never leaked per key: the footprint is
//!   `capacity` plus at most the peak number of concurrently in-flight
//!   calls, not the number of distinct keys ever seen.
//! * **Parking** — an evicted key's tuner is parked in a side map, not
//!   destroyed. If the key returns, its tuner is reinstated verbatim:
//!   re-admission round-trips learned state bit-identically (pinned by
//!   `tests/context_runtime.rs`).
//! * **Warm-starting** — a key seen for the first time seeds its tuner
//!   from the nearest neighbor's posterior (per-algorithm incumbents →
//!   phase-1 starting configurations and phase-2 selection weights, see
//!   [`crate::site::SiteTuner::build_warm`]) instead of starting from
//!   uniform ignorance. Neighbors are ranked by L1 distance over
//!   [`ContextKey::features`]; incumbents that fall outside or violate
//!   the new key's space are ignored, so warm-starting can never smuggle
//!   an infeasible configuration across contexts.
//!
//! Every dispatched call runs inside a [`crate::telemetry::with_context`]
//! scope, so exported JSONL lines carry a `"context"` field naming the
//! logical key next to the `"site"` field naming the (recycled) slot.
//!
//! DESIGN.md §11 documents the contract, the eviction handshake that lets
//! resident dispatch skip the lock, and the seeding rule;
//! `smallsort::SortKey` (size class × presortedness) is the worked
//! example.

use std::cell::{Cell, UnsafeCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::robust::MeasureOutcome;
use crate::site::{self, Site, SiteGuard, SiteSpec, SiteTuner};
use crate::space::Configuration;
use crate::telemetry;

/// A context key: a hashable description of an input class, with an
/// ordered feature vector so keys have a notion of *nearness* for
/// cross-context warm-starting.
///
/// Implementations should be cheap to clone and compare — the table
/// hashes and compares keys on every dispatch, from many threads at once
/// and without a lock (hence `Sync`). Derive `Clone + PartialEq + Eq +
/// Hash` and keep the payload to a few integers. Bucket raw features
/// (e.g. ceil-log2 of an input length) rather than hashing them raw:
/// every distinct key gets its own tuner, so the key space must be coarse
/// enough that each class sees repeated traffic (DESIGN.md §11 discusses
/// the trade-off).
///
/// ```
/// use autotune::context::ContextKey;
///
/// /// Input class for a sort: ceil-log2 size bucket × presortedness.
/// #[derive(Clone, Copy, PartialEq, Eq, Hash)]
/// struct SortClass { size_class: u32, presorted: bool }
///
/// impl ContextKey for SortClass {
///     fn features(&self) -> Vec<i64> {
///         vec![self.size_class as i64, self.presorted as i64]
///     }
///     fn label(&self) -> String {
///         format!("c{:02}/{}", self.size_class,
///                 if self.presorted { "sorted" } else { "random" })
///     }
/// }
///
/// let a = SortClass { size_class: 5, presorted: false };
/// let b = SortClass { size_class: 7, presorted: true };
/// assert_eq!(a.distance(&b), 3); // |5-7| + |0-1|
/// assert_eq!(a.label(), "c05/random");
/// ```
pub trait ContextKey: Clone + Eq + Hash + Send + Sync + 'static {
    /// The ordered feature vector nearness is measured over. Every key
    /// of one type should return the same length; features should be on
    /// comparable scales (bucket indices, not raw byte counts) since
    /// [`ContextKey::distance`] weighs dimensions equally.
    fn features(&self) -> Vec<i64>;

    /// A short human-readable label, used in traces and study output.
    fn label(&self) -> String;

    /// L1 distance between two keys' feature vectors — the neighbor
    /// metric for warm-starting. Vectors of unequal length treat missing
    /// entries as 0. Override only if the default metric misranks
    /// neighbors for your key type.
    fn distance(&self, other: &Self) -> u64 {
        let (a, b) = (self.features(), other.features());
        let n = a.len().max(b.len());
        (0..n)
            .map(|i| {
                let x = a.get(i).copied().unwrap_or(0);
                let y = b.get(i).copied().unwrap_or(0);
                x.abs_diff(y)
            })
            .sum()
    }
}

/// Process-global context-id allocator: ids are dense, stable for the
/// life of a key (parked keys keep theirs) and never reused, so a trace
/// can always be split by `(site, context)` unambiguously.
static NEXT_CONTEXT_ID: AtomicU32 = AtomicU32::new(0);

fn alloc_context_id() -> u32 {
    let id = NEXT_CONTEXT_ID.fetch_add(1, Ordering::Relaxed);
    assert!(id != telemetry::NO_CONTEXT, "context id space exhausted");
    id
}

/// The hash the index is probed by, computed once per dispatch.
fn hash_key<K: Hash>(key: &K) -> u64 {
    let mut h = KeyHasher(0);
    key.hash(&mut h);
    h.finish()
}

/// FxHash's multiply-rotate step, one word per integer the key hashes:
/// ~3 ns per `smallsort::SortKey` where SipHash takes 8–11 ns (Xeon VM,
/// 2 vCPUs). Keys are bucketed input classes, and a collision only
/// lengthens a probe: validation compares whole keys.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The shift folds the high bits, which the multiplies mix best,
        // into the low bits the index masks.
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (self.0 >> 29)
    }
}

/// Per-key traffic counters, exact under concurrency (the stress test in
/// `tests/context_runtime.rs` pins them). Survive eviction: counts carry
/// across park / re-admit cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KeyStats {
    /// Completed calls dispatched for this key.
    pub calls: u64,
    /// Calls that ran a full tuning iteration (the rest took the
    /// published exploit decision, contended or backed off).
    pub tuned_iterations: u64,
    /// Times this key was admitted to a slot (first admission + every
    /// reinstatement after an eviction).
    pub admissions: u64,
}

/// Table-level counters for admission / eviction churn.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Total admissions (cold + warm + reinstated).
    pub admissions: u64,
    /// First-time admissions that started from scratch.
    pub cold_starts: u64,
    /// First-time admissions seeded from a neighbor's posterior.
    pub warm_starts: u64,
    /// Re-admissions that reinstated a parked tuner verbatim.
    pub reinstatements: u64,
    /// Evictions (each parks the outgoing tuner).
    pub evictions: u64,
    /// Admissions that grew the pool past `capacity` because every
    /// binding had a call in flight — the non-blocking alternative to
    /// waiting out a guard that (if its holder is the admitting thread
    /// itself) might never resolve.
    pub overflows: u64,
}

/// The half of a pool slot that dispatch reads without the table lock:
/// the key its site serves and the accounting that decides when it may
/// serve another. Allocated once per registry slot and never freed, like
/// the slot it wraps (so at most [`site::MAX_SITES`] per process): guards
/// and the index hold plain `&'static` references.
struct Binding<K> {
    site: Site,
    /// Even while the binding is stable, odd while an eviction is
    /// retiring it ([`Binding::try_retire`]); a rebind advances it by 2.
    generation: AtomicU64,
    context: AtomicU32,
    /// [`hash_key`] of `key`.
    hash: AtomicU64,
    /// Written only by an eviction that won the handshake.
    key: UnsafeCell<K>,
    /// What every dispatch writes, on a cache line of its own so the
    /// writes do not evict the fields above, which every lookup reads.
    hot: Hot,
}

/// The fields of a [`Binding`] that dispatch writes.
#[repr(align(64))]
struct Hot {
    /// Calls pinned to the binding: every dispatch's guard, and every
    /// lock-free lookup while it validates. A pinned binding is never
    /// rebound — the table grows instead (see [`ContextStats::overflows`]).
    in_flight: AtomicUsize,
    /// Recency stamp of the last dispatch ([`stamp_after`]).
    last_used: AtomicU64,
}

// SAFETY: every field but `key` is an atomic or immutable. `key` is
// written only under the table lock, by an eviction that won the
// handshake in `Binding::try_retire`: it stored an odd generation
// (`SeqCst`), then read an in-flight count of 0 (`SeqCst`). A lock-free
// reader pins first (`SeqCst` `fetch_add`) and reads the key only after
// loading an even generation (`SeqCst`). In the single total order of
// those four operations, either the reader's pin comes before the
// evictor's count read — then the evictor sees the pin and backs off, or
// reads the reader's `Release` unpin, which orders the reader's key read
// before the write — or the evictor's odd store comes before the
// reader's generation load, which then sees the odd generation (and
// reads no key) or the even one the evictor stores with `Release` after
// the write (and reads the new key in full). Readers that hold the table
// lock never overlap a write at all. Readers on many threads share `&K`,
// hence `K: Sync`.
unsafe impl<K: Send + Sync> Sync for Binding<K> {}

impl<K: ContextKey> Binding<K> {
    /// The bound key.
    ///
    /// # Safety
    ///
    /// The caller holds the table lock, or has pinned this binding and
    /// then loaded an even generation (see the `Sync` impl).
    unsafe fn key(&self) -> &K {
        unsafe { &*self.key.get() }
    }

    fn context(&self) -> u32 {
        self.context.load(Ordering::Relaxed)
    }

    /// Steps 1–2 of the eviction handshake, under the table lock: make
    /// the generation odd, then check that no call is pinned. On success
    /// the generation stays odd until the rebind completes; a binding
    /// found busy gets its even generation back.
    fn try_retire(&self) -> bool {
        if self.hot.in_flight.load(Ordering::Relaxed) != 0 {
            return false; // visibly busy: not a candidate
        }
        let generation = self.generation.load(Ordering::Relaxed);
        self.generation.store(generation + 1, Ordering::SeqCst);
        if self.hot.in_flight.load(Ordering::SeqCst) == 0 {
            return true;
        }
        self.generation.store(generation, Ordering::Release);
        false
    }
}

/// The lock-only half of a pool slot: this key's share of the slot's
/// traffic counters.
struct PoolSlot<K: 'static> {
    binding: &'static Binding<K>,
    /// `site.calls()` / `site.tuned_iterations()` at bind time — the
    /// slot counters count the slot, these bases carve out this key's
    /// share.
    calls_base: u64,
    tuned_base: u64,
    /// Stats accumulated by this key's *previous* bindings.
    carried: KeyStats,
}

impl<K: 'static> PoolSlot<K> {
    fn stats_now(&self) -> KeyStats {
        let site = self.binding.site;
        KeyStats {
            calls: self.carried.calls + (site.calls() - self.calls_base),
            tuned_iterations: self.carried.tuned_iterations
                + (site.tuned_iterations() - self.tuned_base),
            admissions: self.carried.admissions,
        }
    }
}

/// RAII pin on a binding's in-flight count, released on drop — including
/// panic unwinds (a leaked count would permanently mark the binding busy,
/// forcing every later admission that targets it onto the overflow path).
struct InFlight(&'static AtomicUsize);

impl InFlight {
    fn enter(counter: &'static AtomicUsize) -> InFlight {
        // `SeqCst`: ordered before the generation load that validates a
        // lock-free lookup (see the `Sync` impl on `Binding`).
        counter.fetch_add(1, Ordering::SeqCst);
        InFlight(counter)
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        // `Release` pairs with the evictor's `SeqCst` idleness check:
        // everything this call did to the site, and a lookup's key read,
        // happens-before a later rebind of its slot.
        self.0.fetch_sub(1, Ordering::Release);
    }
}

thread_local! {
    /// The latest recency stamp this thread has issued or read.
    static STAMP: Cell<u64> = const { Cell::new(0) };
}

/// A recency stamp for a binding this thread uses now: later than `seen`
/// and than every stamp the thread issued before. Stamps are a Lamport
/// clock per thread, so a dispatch writes only its binding's stamp and
/// no table-wide clock. One thread's stamps strictly increase, so its
/// eviction order is exactly LRU; threads that use the same bindings
/// keep their clocks together, and every admission stamps past the
/// whole pool.
fn stamp_after(seen: u64) -> u64 {
    STAMP.with(|stamp| {
        let next = stamp.get().max(seen) + 1;
        stamp.set(next);
        next
    })
}

/// Binding pointers by key hash, with linear probing: the lookup hint the
/// lock-free path probes. Written only under the table lock and kept at
/// most half full, so a probe under the lock always ends at an empty slot
/// and finds every resident key.
struct Index<K> {
    slots: Box<[AtomicPtr<Binding<K>>]>,
}

impl<K: ContextKey> Index<K> {
    /// An empty index with room for `bindings`.
    fn for_pool(bindings: usize) -> Self {
        let len = (2 * bindings).next_power_of_two();
        Index {
            slots: (0..len).map(|_| AtomicPtr::default()).collect(),
        }
    }

    fn fits(&self, bindings: usize) -> bool {
        2 * bindings <= self.slots.len()
    }

    /// The bindings along `hash`'s probe sequence, up to the first empty
    /// slot. Bounded by the index length: a reader racing a rebuild may
    /// find no empty slot at all.
    fn probe(&self, hash: u64) -> impl Iterator<Item = &'static Binding<K>> + '_ {
        let mask = self.slots.len() - 1;
        (0..self.slots.len())
            .map(move |d| {
                self.slots[(hash as usize).wrapping_add(d) & mask].load(Ordering::Acquire)
            })
            .take_while(|p| !p.is_null())
            // SAFETY: only pointers to leaked, never-freed bindings are stored.
            .map(|p| unsafe { &*p })
    }

    /// Lay `bindings` out afresh, under the table lock. Only the slots
    /// that change are stored, so a key whose place did not move stays
    /// visible to lock-free readers throughout.
    fn rebuild(&self, bindings: impl Iterator<Item = &'static Binding<K>>) {
        let mask = self.slots.len() - 1;
        let mut layout: Vec<*mut Binding<K>> = vec![std::ptr::null_mut(); self.slots.len()];
        for b in bindings {
            let mut i = b.hash.load(Ordering::Relaxed) as usize & mask;
            while !layout[i].is_null() {
                i = (i + 1) & mask;
            }
            layout[i] = std::ptr::from_ref(b).cast_mut();
        }
        for (slot, p) in self.slots.iter().zip(layout) {
            if slot.load(Ordering::Relaxed) != p {
                slot.store(p, Ordering::Release);
            }
        }
    }
}

/// An evicted key's state, held for re-admission.
struct Parked {
    tuner: SiteTuner,
    context: u32,
    stats: KeyStats,
}

struct Inner<K: 'static> {
    /// Every pool slot is bound to a key.
    pool: Vec<PoolSlot<K>>,
    parked: HashMap<K, Parked>,
    /// Every index the table has published, the current one last. One
    /// outgrown by the pool is kept for readers that may still probe it.
    indexes: Vec<Arc<Index<K>>>,
    stats: ContextStats,
}

impl<K: ContextKey> Inner<K> {
    /// `key`'s pool slot, if it is bound.
    fn resident(&self, key: &K) -> Option<&PoolSlot<K>> {
        // SAFETY: `&self` comes from the table lock.
        self.pool.iter().find(|s| unsafe { s.binding.key() } == key)
    }
}

/// A keyed family of tuning sites with LRU-bounded slot allocation,
/// eviction parking and nearest-neighbor warm-starting (see the
/// [module docs](crate::context)).
///
/// The table is `Sync`. A dispatch whose key is resident takes no lock:
/// it finds and pins the key's binding through a hash index, then runs
/// the measured call through the site's lock-free claim/exploit
/// protocol. Admissions, evictions and the inspection methods
/// ([`ContextSites::stats`], [`ContextSites::key_stats`], …) take an
/// internal lock.
///
/// ```
/// use autotune::context::{ContextKey, ContextSites};
/// use autotune::param::Parameter;
/// use autotune::robust::MeasureOutcome;
/// use autotune::site::SiteSpec;
/// use autotune::space::SearchSpace;
///
/// #[derive(Clone, Copy, PartialEq, Eq, Hash)]
/// struct SizeClass(u32);
/// impl ContextKey for SizeClass {
///     fn features(&self) -> Vec<i64> { vec![self.0 as i64] }
///     fn label(&self) -> String { format!("c{:02}", self.0) }
/// }
///
/// // At most 2 live sites, however many size classes show up.
/// let table = ContextSites::register("doc/sort", 2, |k: &SizeClass| {
///     SiteSpec::space(
///         k.label(),
///         SearchSpace::new(vec![Parameter::interval("cutoff", 1, 64)]),
///         0xC0FFEE,
///     )
/// });
///
/// for size_class in [4u32, 9, 4, 12, 4] {
///     let guard = table.dispatch(&SizeClass(size_class));
///     // ... run the chosen algorithm/configuration here ...
///     guard.post_outcome(MeasureOutcome::from_value(1.0));
/// }
/// // 3 distinct keys through 2 slots: the LRU binding was recycled.
/// assert_eq!(table.resident_len(), 2);
/// assert_eq!(table.stats().evictions, 1);
/// assert_eq!(table.key_stats(&SizeClass(4)).unwrap().calls, 3);
/// ```
pub struct ContextSites<K: ContextKey> {
    prefix: String,
    capacity: usize,
    warm_start: bool,
    spec_for: Box<dyn Fn(&K) -> SiteSpec + Send + Sync>,
    /// The current index, the last of `Inner::indexes`.
    index: AtomicPtr<Index<K>>,
    inner: Mutex<Inner<K>>,
}

impl<K: ContextKey> ContextSites<K> {
    /// Create a table owning at most `capacity` registry slots, named
    /// `{prefix}/slotNN`. `spec_for` is the per-key blueprint factory:
    /// called once per admission (its name is replaced by the slot
    /// name; use a key-derived seed if per-key determinism matters).
    ///
    /// Registry slots are claimed lazily — a table over a key space that
    /// only ever shows `n < capacity` keys registers `n` slots.
    pub fn register(
        prefix: impl Into<String>,
        capacity: usize,
        spec_for: impl Fn(&K) -> SiteSpec + Send + Sync + 'static,
    ) -> Self {
        assert!(capacity > 0, "context table needs at least one slot");
        let index = Arc::new(Index::for_pool(capacity));
        ContextSites {
            prefix: prefix.into(),
            capacity,
            warm_start: true,
            spec_for: Box::new(spec_for),
            index: AtomicPtr::new(Arc::as_ptr(&index).cast_mut()),
            inner: Mutex::new(Inner {
                pool: Vec::new(),
                parked: HashMap::new(),
                indexes: vec![index],
                stats: ContextStats::default(),
            }),
        }
    }

    /// Enable or disable nearest-neighbor warm-starting (on by default).
    /// With it off every first admission is a cold start — the baseline
    /// the `contexts` study and bench compare against.
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Steady-state bound on concurrently bound keys. An admission that
    /// finds every binding with a call in flight grows the pool past
    /// this instead of waiting ([`ContextStats::overflows`]); once those
    /// calls resolve, the extra slots are recycled like any other.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Dispatch one call for `key`: admit the key if necessary (evicting
    /// the least recently used *idle* binding when the pool is full, or
    /// growing the pool when every binding is busy — dispatch never
    /// waits on another call's guard), then enter its site. A resident
    /// key takes no lock. The returned guard mirrors
    /// [`crate::site::SiteGuard`]: call [`ContextGuard::post`] /
    /// [`ContextGuard::post_outcome`] around the interchangeable code, or
    /// drop it to abandon the call. The proposal and the report both run
    /// inside a [`telemetry::with_context`] scope tagged with the key's
    /// context id.
    pub fn dispatch(&self, key: &K) -> ContextGuard {
        let (site, context, in_flight) = self.bind(key);
        let guard = telemetry::with_context(context, || site.pre());
        ContextGuard {
            guard: Some(guard),
            _in_flight: in_flight,
            context,
        }
    }

    /// Run `f(algorithm, config)` as one timed call for `key`:
    /// [`ContextSites::dispatch`], the closure, then
    /// [`ContextGuard::post`] with the closure's wall time.
    pub fn tuned<R>(&self, key: &K, f: impl FnOnce(usize, &Configuration) -> R) -> R {
        let guard = self.dispatch(key);
        let r = f(guard.algorithm(), guard.config());
        guard.post();
        r
    }

    /// Run `f` with exclusive access to `key`'s tuner, admitting the key
    /// first if necessary. For analysis and tests — blocking, like
    /// [`crate::site::Site::with_tuner`].
    pub fn with_tuner_for<R>(&self, key: &K, f: impl FnOnce(&SiteTuner) -> R) -> R {
        let (site, context, _in_flight) = self.bind(key);
        telemetry::with_context(context, || site.with_tuner(f))
    }

    /// The raw [`Site`] handle currently bound to `key`, admitting the
    /// key first if necessary.
    ///
    /// The handle names the *slot*, not the key: after a later eviction
    /// it serves whatever key is bound then. Only hold on to it when the
    /// table cannot evict — i.e. `capacity` covers the whole key space
    /// (how `smallsort::SortSites` uses it).
    pub fn resident_site(&self, key: &K) -> Site {
        let (site, _context, _in_flight) = self.bind(key);
        site
    }

    /// The stable context id assigned to `key`, if it was ever admitted.
    /// This is the value of the `"context"` field on the key's telemetry
    /// events.
    pub fn context_id(&self, key: &K) -> Option<u32> {
        let inner = self.inner.lock().unwrap();
        match inner.resident(key) {
            Some(slot) => Some(slot.binding.context()),
            None => inner.parked.get(key).map(|p| p.context),
        }
    }

    /// Per-key traffic counters (resident or parked), `None` for keys
    /// never admitted. Exact: counts are snapshotted under the same
    /// in-flight accounting that gates eviction.
    pub fn key_stats(&self, key: &K) -> Option<KeyStats> {
        let inner = self.inner.lock().unwrap();
        match inner.resident(key) {
            Some(slot) => Some(slot.stats_now()),
            None => inner.parked.get(key).map(|p| p.stats),
        }
    }

    /// Table-level admission / eviction counters.
    pub fn stats(&self) -> ContextStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of currently bound keys (≤ [`ContextSites::capacity`]).
    pub fn resident_len(&self) -> usize {
        self.inner.lock().unwrap().pool.len()
    }

    /// Number of evicted keys whose tuners are parked for re-admission.
    pub fn parked_len(&self) -> usize {
        self.inner.lock().unwrap().parked.len()
    }

    /// All keys ever admitted (resident first, then parked), with their
    /// context ids — iteration order is unspecified.
    pub fn keys(&self) -> Vec<(K, u32)> {
        let inner = self.inner.lock().unwrap();
        let resident = inner.pool.iter().map(|s| {
            // SAFETY: under the table lock.
            let key = unsafe { s.binding.key() };
            (key.clone(), s.binding.context())
        });
        let parked = inner.parked.iter().map(|(k, p)| (k.clone(), p.context));
        resident.chain(parked).collect()
    }

    /// Look up or admit `key`; returns its site, context id and the
    /// caller's [`InFlight`] pin on the binding.
    fn bind(&self, key: &K) -> (Site, u32, InFlight) {
        let hash = hash_key(key);
        if let Some(hit) = self.lookup(key, hash) {
            return hit;
        }
        let mut inner = self.inner.lock().unwrap();
        // Under the lock the index is exact and every generation even,
        // so a second miss means the key is not resident.
        match self.lookup(key, hash) {
            Some(hit) => hit,
            None => self.admit(&mut inner, key, hash),
        }
    }

    /// Find `key`'s binding through the index and pin it, without the
    /// lock. A hit counts only after the pin, an even generation and
    /// equal keys, in that order (see the `Sync` impl on `Binding`);
    /// `None` when the key is not resident or an admission is moving
    /// its binding.
    fn lookup(&self, key: &K, hash: u64) -> Option<(Site, u32, InFlight)> {
        // SAFETY: `index` points into an `Arc` that `Inner::indexes` keeps
        // for as long as the table lives.
        let index = unsafe { &*self.index.load(Ordering::Acquire) };
        index
            .probe(hash)
            .filter(|b| b.hash.load(Ordering::Relaxed) == hash)
            .find_map(|b| {
                let pin = InFlight::enter(&b.hot.in_flight);
                // SAFETY: the key is read only after the pin and an even
                // generation.
                let hit = b.generation.load(Ordering::SeqCst) & 1 == 0 && unsafe { b.key() } == key;
                hit.then(|| {
                    let last_used = &b.hot.last_used;
                    last_used.store(
                        stamp_after(last_used.load(Ordering::Relaxed)),
                        Ordering::Relaxed,
                    );
                    (b.site, b.context(), pin)
                })
            })
    }

    /// Admit `key`, not resident, under the lock.
    fn admit(&self, inner: &mut Inner<K>, key: &K, hash: u64) -> (Site, u32, InFlight) {
        let latest = inner
            .pool
            .iter()
            .map(|s| s.binding.hot.last_used.load(Ordering::Relaxed));
        let now = stamp_after(latest.max().unwrap_or(0));
        // Build the incoming binding first: a parked tuner is reinstated
        // verbatim; a first-time key is warm-started from its nearest
        // neighbor's posterior when one exists (and warm-starting is on);
        // otherwise it starts cold.
        let spec = (self.spec_for)(key);
        let (incoming, context, carried) = match inner.parked.remove(key) {
            Some(p) => {
                inner.stats.reinstatements += 1;
                (Some(p.tuner), p.context, p.stats)
            }
            None => {
                let warm = if self.warm_start {
                    Self::neighbor_incumbents(inner, key)
                } else {
                    None
                };
                let tuner = warm.map(|incumbents| SiteTuner::build_warm(spec.clone(), &incumbents));
                if tuner.is_some() {
                    inner.stats.warm_starts += 1;
                } else {
                    inner.stats.cold_starts += 1;
                }
                (tuner, alloc_context_id(), KeyStats::default())
            }
        };
        inner.stats.admissions += 1;

        // A binding may only be recycled while no call is pinned to it;
        // the handshake in `Binding::try_retire` makes that check
        // race-free against lock-free lookups. When every binding is
        // busy the pool *grows* instead of waiting — blocking here (with
        // the table lock held) would deadlock a thread that dispatches
        // while holding a ContextGuard on one of the busy bindings.
        let victim = if inner.pool.len() < self.capacity {
            None
        } else {
            Self::retire_idle_lru(&inner.pool)
        };
        let i = match victim {
            None => {
                // Claim a fresh registry slot.
                if inner.pool.len() >= self.capacity {
                    inner.stats.overflows += 1;
                }
                let name = format!("{}/slot{:02}", self.prefix, inner.pool.len());
                let spec = spec.with_name(name);
                let site = site::site(site::register(spec.clone()));
                if let Some(t) = incoming {
                    // The fresh slot was registered cold; install the warm /
                    // reinstated tuner (no guard can be in flight yet).
                    site.rebind(spec, Some(t));
                }
                let binding = Box::leak(Box::new(Binding {
                    site,
                    generation: AtomicU64::new(0),
                    context: AtomicU32::new(context),
                    hash: AtomicU64::new(hash),
                    key: UnsafeCell::new(key.clone()),
                    hot: Hot {
                        in_flight: AtomicUsize::new(0),
                        last_used: AtomicU64::new(now),
                    },
                }));
                inner.pool.push(PoolSlot {
                    binding,
                    calls_base: site.calls(),
                    tuned_base: site.tuned_iterations(),
                    carried,
                });
                inner.pool.len() - 1
            }
            Some(victim) => {
                // Recycle the retired binding in place (step 3 of the
                // handshake), then make its generation even again.
                let name = format!("{}/slot{:02}", self.prefix, victim);
                let spec = spec.with_name(name);
                let new_key = key.clone();
                let slot = &mut inner.pool[victim];
                let b = slot.binding;
                let evicted_stats = slot.stats_now();
                let outgoing = b.site.rebind(spec, incoming);
                // SAFETY: `retire_idle_lru` won the handshake for `b`, and
                // its generation stays odd until the store below.
                let old_key = std::mem::replace(unsafe { &mut *b.key.get() }, new_key);
                let old_context = b.context.swap(context, Ordering::Relaxed);
                b.hash.store(hash, Ordering::Relaxed);
                b.hot.last_used.store(now, Ordering::Relaxed);
                slot.calls_base = b.site.calls();
                slot.tuned_base = b.site.tuned_iterations();
                slot.carried = carried;
                b.generation.fetch_add(1, Ordering::Release);
                inner.stats.evictions += 1;
                inner.parked.insert(
                    old_key,
                    Parked {
                        tuner: outgoing,
                        context: old_context,
                        stats: evicted_stats,
                    },
                );
                victim
            }
        };
        self.reindex(inner);

        let slot = &mut inner.pool[i];
        slot.carried.admissions += 1;
        let b = slot.binding;
        (b.site, context, InFlight::enter(&b.hot.in_flight))
    }

    /// The least recently used binding with no call in flight, retired
    /// for rebinding by [`Binding::try_retire`] (its generation left
    /// odd), or `None` when every binding is busy. The handshake's
    /// `SeqCst` load of 0 acquires every resolved call's `Release` unpin,
    /// so everything those calls did to the victim site happens-before
    /// the eviction's stats snapshot and rebind.
    fn retire_idle_lru(pool: &[PoolSlot<K>]) -> Option<usize> {
        // Snapshot the stamps: lock-free hits keep writing them.
        let mut lru: Vec<(u64, usize)> = pool
            .iter()
            .enumerate()
            .map(|(i, s)| (s.binding.hot.last_used.load(Ordering::Relaxed), i))
            .collect();
        lru.sort_unstable();
        lru.into_iter()
            .map(|(_, i)| i)
            .find(|&i| pool[i].binding.try_retire())
    }

    /// Point the index at the pool's bindings, under the lock. When the
    /// pool has outgrown it (overflow slots), publish a larger index and
    /// keep the old one for readers that may still probe it.
    fn reindex(&self, inner: &mut Inner<K>) {
        let bindings = inner.pool.iter().map(|s| s.binding);
        let current = inner.indexes.last().expect("registered with an index");
        if current.fits(inner.pool.len()) {
            current.rebuild(bindings);
        } else {
            let grown = Arc::new(Index::for_pool(inner.pool.len()));
            grown.rebuild(bindings);
            self.index
                .store(Arc::as_ptr(&grown).cast_mut(), Ordering::Release);
            inner.indexes.push(grown);
        }
    }

    /// The nearest admitted key's incumbents, or `None` when no admitted
    /// key has an observable posterior. Neighbors (resident and parked)
    /// are ranked by `(L1 distance, resident-before-parked, context id)`
    /// so the choice is deterministic, and walked in rank order: one
    /// whose posterior is unavailable — a resident site mid-measurement,
    /// or a tuner with no incumbents yet — is skipped for the
    /// next-nearest. A resident neighbor's site claim is only *tried*
    /// ([`Site::try_with_tuner`]), never spun on: this runs under the
    /// table lock, and the claim is held across the neighbor's entire
    /// measured call — waiting here would stall every admission on the
    /// table and deadlocks outright if the claim holder re-enters it.
    fn neighbor_incumbents(inner: &Inner<K>, key: &K) -> Option<Vec<Option<(Configuration, f64)>>> {
        let resident = inner.pool.iter().map(|s| {
            let b = s.binding;
            // SAFETY: under the table lock.
            (unsafe { b.key() }, 0u8, b.context(), Some(b.site))
        });
        let parked = inner.parked.iter().map(|(k, p)| (k, 1u8, p.context, None));
        let mut ranked: Vec<_> = resident
            .chain(parked)
            .map(|(k, tier, ctx, site)| ((key.distance(k), tier, ctx), k, site))
            .collect();
        ranked.sort_by_key(|&(rank, ..)| rank);
        for (_, neighbor, site) in ranked {
            let incumbents = match site {
                Some(site) => match site.try_with_tuner(|t| t.incumbents()) {
                    Some(inc) => inc,
                    None => continue, // claim busy right now: don't wait
                },
                None => inner.parked[neighbor].tuner.incumbents(),
            };
            if incumbents.iter().any(Option::is_some) {
                return Some(incumbents);
            }
        }
        None
    }
}

impl<K: ContextKey> std::fmt::Debug for ContextSites<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("ContextSites")
            .field("prefix", &self.prefix)
            .field("capacity", &self.capacity)
            .field("resident", &inner.pool.len())
            .field("parked", &inner.parked.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

/// In-flight call through a [`ContextSites`] table: a
/// [`crate::site::SiteGuard`] plus the binding's in-flight accounting
/// (which gates eviction) and the context id its telemetry is tagged
/// with. Dropping the guard without a `post` abandons the call.
pub struct ContextGuard {
    guard: Option<SiteGuard>,
    /// Dropped (also on panic unwind) after the site guard resolves,
    /// releasing the binding for eviction.
    _in_flight: InFlight,
    context: u32,
}

impl ContextGuard {
    /// Index of the algorithm to run.
    pub fn algorithm(&self) -> usize {
        self.guard
            .as_ref()
            .expect("guard not yet resolved")
            .algorithm()
    }

    /// The configuration to run it with.
    pub fn config(&self) -> &Configuration {
        self.guard
            .as_ref()
            .expect("guard not yet resolved")
            .config()
    }

    /// True when this call runs a tuning iteration whose measurement
    /// feeds the key's tuner; false when it runs the published exploit
    /// decision — because it found the claim held, or because the key's
    /// tuning-rate controller backed it off (see
    /// [`crate::site::SiteGuard::is_tuning`]).
    pub fn is_tuning(&self) -> bool {
        self.guard
            .as_ref()
            .expect("guard not yet resolved")
            .is_tuning()
    }

    /// The dispatched key's context id (the `"context"` telemetry tag).
    pub fn context(&self) -> u32 {
        self.context
    }

    /// Report the elapsed wall time since dispatch as the call's
    /// measurement; returns the measured milliseconds, or `NaN` for an
    /// untuned call the key's timing stride left untimed (see
    /// [`crate::site::SiteGuard::post`]).
    pub fn post(mut self) -> f64 {
        let guard = self.guard.take().expect("guard posted twice");
        telemetry::with_context(self.context, || guard.post())
        // Dropping `self` releases the in-flight share.
    }

    /// Report an explicit [`MeasureOutcome`] (an externally batched
    /// timing, or a failure) instead of the guard's own wall clock.
    pub fn post_outcome(mut self, outcome: MeasureOutcome) {
        let guard = self.guard.take().expect("guard posted twice");
        telemetry::with_context(self.context, || guard.post_outcome(outcome));
        // Dropping `self` releases the in-flight share.
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(guard) = self.guard.take() {
            // Abandon: roll back the proposal under the context tag.
            telemetry::with_context(self.context, || drop(guard));
        }
        // `_in_flight` drops after this body, releasing the binding.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Parameter;
    use crate::space::SearchSpace;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Key(i64);

    impl ContextKey for Key {
        fn features(&self) -> Vec<i64> {
            vec![self.0]
        }
        fn label(&self) -> String {
            format!("k{}", self.0)
        }
    }

    fn table(prefix: &str, capacity: usize) -> ContextSites<Key> {
        ContextSites::register(prefix, capacity, |k: &Key| {
            SiteSpec::space(
                k.label(),
                SearchSpace::new(vec![Parameter::interval("x", 1, 32)]),
                0xBEEF ^ k.0 as u64,
            )
        })
    }

    fn drive(t: &ContextSites<Key>, key: Key, calls: usize) {
        for i in 0..calls {
            let g = t.dispatch(&key);
            g.post_outcome(MeasureOutcome::from_value(1.0 + (i % 7) as f64));
        }
    }

    #[test]
    fn resident_until_capacity_then_evicts_lru() {
        let t = table("test/ctx/lru", 2);
        drive(&t, Key(1), 3);
        drive(&t, Key(2), 3);
        assert_eq!(t.resident_len(), 2);
        assert_eq!(t.stats().evictions, 0);
        // Key(1) is LRU — touching Key(3) must evict it, not Key(2).
        drive(&t, Key(3), 1);
        assert_eq!(t.resident_len(), 2);
        assert_eq!(t.parked_len(), 1);
        assert_eq!(t.stats().evictions, 1);
        assert!(t.key_stats(&Key(1)).is_some());
        drive(&t, Key(2), 1); // still resident: no new admission
        assert_eq!(t.stats().admissions, 3);
    }

    #[test]
    fn per_key_stats_survive_eviction_and_reinstatement() {
        let t = table("test/ctx/stats", 1);
        drive(&t, Key(1), 5);
        let ctx1 = t.context_id(&Key(1)).unwrap();
        drive(&t, Key(2), 2); // evicts Key(1)
        drive(&t, Key(1), 4); // evicts Key(2), reinstates Key(1)
        let s1 = t.key_stats(&Key(1)).unwrap();
        assert_eq!(s1.calls, 9);
        assert_eq!(s1.admissions, 2);
        assert_eq!(t.key_stats(&Key(2)).unwrap().calls, 2);
        // Context id is stable across park / re-admit.
        assert_eq!(t.context_id(&Key(1)), Some(ctx1));
        let st = t.stats();
        assert_eq!(st.reinstatements, 1);
        assert_eq!(st.evictions, 2);
        assert_eq!(st.admissions, 3);
    }

    #[test]
    fn warm_start_counts_and_first_key_is_cold() {
        let t = table("test/ctx/warm", 4);
        drive(&t, Key(0), 10); // first key: nothing to seed from
        drive(&t, Key(1), 1);
        let st = t.stats();
        assert_eq!(st.cold_starts, 1);
        assert_eq!(st.warm_starts, 1);

        let cold = table("test/ctx/cold", 4).with_warm_start(false);
        drive(&cold, Key(0), 10);
        drive(&cold, Key(1), 1);
        assert_eq!(cold.stats().warm_starts, 0);
        assert_eq!(cold.stats().cold_starts, 2);
    }

    #[test]
    fn distinct_keys_get_distinct_stable_context_ids() {
        let t = table("test/ctx/ids", 2);
        drive(&t, Key(1), 1);
        drive(&t, Key(2), 1);
        let (c1, c2) = (
            t.context_id(&Key(1)).unwrap(),
            t.context_id(&Key(2)).unwrap(),
        );
        assert_ne!(c1, c2);
        drive(&t, Key(3), 1); // churn
        drive(&t, Key(1), 1);
        assert_eq!(t.context_id(&Key(1)), Some(c1));
        assert_eq!(t.context_id(&Key(2)), Some(c2));
    }

    #[test]
    fn dispatch_while_holding_a_guard_grows_instead_of_deadlocking() {
        let t = table("test/ctx/reentrant", 1);
        let g1 = t.dispatch(&Key(1));
        // Every binding is busy (this thread holds the guard): the table
        // must grow, not wait for a guard that can never resolve here.
        let g2 = t.dispatch(&Key(2));
        assert_eq!(t.resident_len(), 2);
        assert_eq!(t.stats().overflows, 1);
        assert_eq!(t.stats().evictions, 0);
        // Table inspection while holding guards is safe too.
        assert_eq!(t.key_stats(&Key(1)).unwrap().calls, 0);
        g1.post_outcome(MeasureOutcome::from_value(1.0));
        g2.post_outcome(MeasureOutcome::from_value(1.0));
        // Both bindings idle again: the next admission recycles one
        // instead of growing further.
        drive(&t, Key(3), 1);
        assert_eq!(t.resident_len(), 2);
        assert_eq!(t.stats().evictions, 1);
        assert_eq!(t.stats().overflows, 1);
        assert_eq!(t.key_stats(&Key(1)).unwrap().calls, 1);
        assert_eq!(t.key_stats(&Key(2)).unwrap().calls, 1);
    }

    #[test]
    fn panicking_tuner_closure_unwinds_in_flight_accounting() {
        let t = table("test/ctx/panic", 1);
        drive(&t, Key(1), 2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.with_tuner_for(&Key(1), |_| -> () { panic!("analysis exploded") })
        }));
        assert!(r.is_err());
        // The binding is idle again: a new key evicts it. A leaked
        // in-flight count would mark it busy forever and force every
        // later admission onto the overflow path instead.
        drive(&t, Key(2), 1);
        let st = t.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.overflows, 0);
    }

    #[test]
    fn overflow_regrows_the_index_and_resident_keys_still_skip_the_lock() {
        let t = table("test/ctx/regrow", 1);
        // Guards on five keys at once: four overflow slots, more than the
        // index registered for one slot has room for.
        let guards: Vec<_> = (0..5).map(|k| t.dispatch(&Key(k))).collect();
        assert_eq!(t.stats().overflows, 4);
        drop(guards);

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let inner = t.inner.lock().unwrap();
            assert!(inner.indexes.len() > 1, "the index never grew");
            let t = &t;
            scope.spawn(move || {
                for k in 0..5 {
                    drive(t, Key(k), 1);
                }
                tx.send(()).unwrap();
            });
            let done = rx.recv_timeout(std::time::Duration::from_secs(5)).is_ok();
            drop(inner);
            assert!(done, "a resident dispatch waited for the table lock");
        });
        for k in 0..5 {
            assert_eq!(t.key_stats(&Key(k)).unwrap().calls, 1);
        }
    }

    #[test]
    fn abandoned_dispatch_counts_no_call() {
        let t = table("test/ctx/abandon", 1);
        drop(t.dispatch(&Key(1)));
        assert_eq!(t.key_stats(&Key(1)).unwrap().calls, 0);
        // The slot is idle again: a different key can be admitted.
        drive(&t, Key(2), 1);
        assert_eq!(t.key_stats(&Key(2)).unwrap().calls, 1);
    }
}
