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
//! DESIGN.md §11 documents the contract, the eviction semantics and the
//! seeding rule; `smallsort::SortKey` (size class × presortedness) is the
//! worked example.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
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
/// hashes keys on every dispatch. Derive `Clone + PartialEq + Eq + Hash`
/// and keep the payload to a few integers. Bucket raw features (e.g.
/// ceil-log2 of an input length) rather than hashing them raw: every
/// distinct key gets its own tuner, so the key space must be coarse
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
pub trait ContextKey: Clone + Eq + Hash + Send + 'static {
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

/// One recycled registry slot owned by the table.
struct PoolSlot<K> {
    site: Site,
    key: K,
    context: u32,
    /// LRU clock value at last dispatch.
    last_used: u64,
    /// Dispatches currently in flight through this binding. Incremented
    /// under the table lock at dispatch, decremented with `Release` when
    /// the [`InFlight`] share drops; the evictor's `Acquire` load of 0
    /// therefore orders every posted call's counter bump before the
    /// eviction's stats snapshot. A busy binding is never evicted — the
    /// table grows instead (see [`ContextStats::overflows`]).
    in_flight: Arc<AtomicUsize>,
    /// `site.calls()` / `site.tuned_iterations()` at bind time — the
    /// slot counters count the slot, these bases carve out this key's
    /// share.
    calls_base: u64,
    tuned_base: u64,
    /// Stats accumulated by this key's *previous* bindings.
    carried: KeyStats,
}

impl<K> PoolSlot<K> {
    fn stats_now(&self) -> KeyStats {
        KeyStats {
            calls: self.carried.calls + (self.site.calls() - self.calls_base),
            tuned_iterations: self.carried.tuned_iterations
                + (self.site.tuned_iterations() - self.tuned_base),
            admissions: self.carried.admissions,
        }
    }
}

/// RAII share of a binding's in-flight count: taken under the table
/// lock at bind, released on drop — including panic unwinds (a leaked
/// count would permanently mark the binding busy, forcing every later
/// admission that targets it onto the overflow path).
struct InFlight(Arc<AtomicUsize>);

impl InFlight {
    fn enter(counter: &Arc<AtomicUsize>) -> InFlight {
        counter.fetch_add(1, Ordering::Relaxed);
        InFlight(Arc::clone(counter))
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        // `Release` pairs with the evictor's `Acquire` idleness check:
        // everything this call did to the site happens-before a later
        // rebind of its slot.
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// An evicted key's state, held for re-admission.
struct Parked {
    tuner: SiteTuner,
    context: u32,
    stats: KeyStats,
}

struct Inner<K> {
    pool: Vec<PoolSlot<K>>,
    /// key → index into `pool`, for currently bound keys.
    resident: HashMap<K, usize>,
    parked: HashMap<K, Parked>,
    /// LRU clock: bumped on every dispatch.
    tick: u64,
    stats: ContextStats,
}

/// A keyed family of tuning sites with LRU-bounded slot allocation,
/// eviction parking and nearest-neighbor warm-starting (see the
/// [module docs](crate::context)).
///
/// The table is `Sync`: dispatches from many threads serialize briefly on
/// an internal lock for the key → slot lookup, then run the measured
/// call itself through the site's lock-free claim/exploit protocol.
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
        ContextSites {
            prefix: prefix.into(),
            capacity,
            warm_start: true,
            spec_for: Box::new(spec_for),
            inner: Mutex::new(Inner {
                pool: Vec::new(),
                resident: HashMap::new(),
                parked: HashMap::new(),
                tick: 0,
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
    /// waits on another call's guard), then enter its site. The returned
    /// guard mirrors
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
        if let Some(&i) = inner.resident.get(key) {
            return Some(inner.pool[i].context);
        }
        inner.parked.get(key).map(|p| p.context)
    }

    /// Per-key traffic counters (resident or parked), `None` for keys
    /// never admitted. Exact: counts are snapshotted under the same
    /// in-flight accounting that gates eviction.
    pub fn key_stats(&self, key: &K) -> Option<KeyStats> {
        let inner = self.inner.lock().unwrap();
        if let Some(&i) = inner.resident.get(key) {
            return Some(inner.pool[i].stats_now());
        }
        inner.parked.get(key).map(|p| p.stats)
    }

    /// Table-level admission / eviction counters.
    pub fn stats(&self) -> ContextStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of currently bound keys (≤ [`ContextSites::capacity`]).
    pub fn resident_len(&self) -> usize {
        self.inner.lock().unwrap().resident.len()
    }

    /// Number of evicted keys whose tuners are parked for re-admission.
    pub fn parked_len(&self) -> usize {
        self.inner.lock().unwrap().parked.len()
    }

    /// All keys ever admitted (resident first, then parked), with their
    /// context ids — iteration order is unspecified.
    pub fn keys(&self) -> Vec<(K, u32)> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<(K, u32)> = inner
            .resident
            .keys()
            .map(|k| (k.clone(), inner.pool[inner.resident[k]].context))
            .collect();
        out.extend(inner.parked.iter().map(|(k, p)| (k.clone(), p.context)));
        out
    }

    /// Look up or admit `key`; returns its site, context id and the
    /// caller's [`InFlight`] share of the binding.
    fn bind(&self, key: &K) -> (Site, u32, InFlight) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(&i) = inner.resident.get(key) {
            let slot = &mut inner.pool[i];
            slot.last_used = tick;
            return (slot.site, slot.context, InFlight::enter(&slot.in_flight));
        }

        // Admission. Build the incoming binding first: a parked tuner is
        // reinstated verbatim; a first-time key is warm-started from its
        // nearest neighbor's posterior when one exists (and warm-starting
        // is on); otherwise it starts cold.
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

        // A binding may only be recycled while no call is in flight
        // through it, and the idleness check is race-free: counts are
        // incremented only under this lock, so an idle binding stays
        // idle until we release it. When every binding is busy the pool
        // *grows* instead of waiting — blocking here (with the table
        // lock held) would deadlock a thread that dispatches while
        // holding a ContextGuard on one of the busy bindings.
        let victim = if inner.pool.len() < self.capacity {
            None
        } else {
            Self::pick_idle_victim(&inner.pool)
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
                inner.pool.push(PoolSlot {
                    site,
                    key: key.clone(),
                    context,
                    last_used: tick,
                    in_flight: Arc::new(AtomicUsize::new(0)),
                    calls_base: site.calls(),
                    tuned_base: site.tuned_iterations(),
                    carried,
                });
                inner.resident.insert(key.clone(), inner.pool.len() - 1);
                inner.pool.len() - 1
            }
            Some(victim) => {
                // Recycle the least recently used idle binding in place.
                let name = format!("{}/slot{:02}", self.prefix, victim);
                let spec = spec.with_name(name);
                let slot = &mut inner.pool[victim];
                let evicted_stats = slot.stats_now();
                let outgoing = slot.site.rebind(spec, incoming);
                inner.stats.evictions += 1;
                let old_key = std::mem::replace(&mut slot.key, key.clone());
                inner.resident.remove(&old_key);
                inner.parked.insert(
                    old_key,
                    Parked {
                        tuner: outgoing,
                        context: slot.context,
                        stats: evicted_stats,
                    },
                );
                slot.context = context;
                slot.last_used = tick;
                slot.calls_base = slot.site.calls();
                slot.tuned_base = slot.site.tuned_iterations();
                slot.carried = carried;
                inner.resident.insert(key.clone(), victim);
                victim
            }
        };

        let slot = &mut inner.pool[i];
        slot.carried.admissions += 1;
        (slot.site, slot.context, InFlight::enter(&slot.in_flight))
    }

    /// Least-recently-used binding with no calls in flight, or `None`
    /// when every binding is busy. The `Acquire` load pairs with the
    /// [`InFlight`] `Release` decrement, so everything a resolved call
    /// did to the victim site happens-before the eviction's stats
    /// snapshot and rebind.
    fn pick_idle_victim(pool: &[PoolSlot<K>]) -> Option<usize> {
        (0..pool.len())
            .filter(|&i| pool[i].in_flight.load(Ordering::Acquire) == 0)
            .min_by_key(|&i| (pool[i].last_used, i))
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
    /// measured call — waiting here would stall every dispatch on the
    /// table and deadlocks outright if the claim holder re-enters it.
    fn neighbor_incumbents(inner: &Inner<K>, key: &K) -> Option<Vec<Option<(Configuration, f64)>>> {
        let resident = inner
            .resident
            .iter()
            .map(|(k, &i)| (k, 0u8, inner.pool[i].context));
        let parked = inner.parked.iter().map(|(k, p)| (k, 1u8, p.context));
        let mut ranked: Vec<(K, (u64, u8, u32))> = resident
            .chain(parked)
            .map(|(k, tier, ctx)| (k.clone(), (key.distance(k), tier, ctx)))
            .collect();
        ranked.sort_by_key(|(_, rank)| *rank);
        for (neighbor, _) in ranked {
            let incumbents = match inner.resident.get(&neighbor) {
                Some(&i) => match inner.pool[i].site.try_with_tuner(|t| t.incumbents()) {
                    Some(inc) => inc,
                    None => continue, // claim busy right now: don't wait
                },
                None => inner.parked[&neighbor].tuner.incumbents(),
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
            .field("resident", &inner.resident.len())
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
    /// decision — because it lost the claim race, or because the key's
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
    /// measurement; returns the measured milliseconds.
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
    fn abandoned_dispatch_counts_no_call() {
        let t = table("test/ctx/abandon", 1);
        drop(t.dispatch(&Key(1)));
        assert_eq!(t.key_stats(&Key(1)).unwrap().calls, 0);
        // The slot is idle again: a different key can be admitted.
        drive(&t, Key(2), 1);
        assert_eq!(t.key_stats(&Key(2)).unwrap().calls, 1);
    }
}
