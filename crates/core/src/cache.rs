//! The shared-structure cache, epoch-aware for dynamic graphs and safe
//! under concurrent readers.
//!
//! Algorithm 1 lines 9–11: "If the RTC for R exists, we reuse \[it\].
//! Otherwise, we compute and store \[it\] to share." The cache key is the
//! *closure body* `R` (canonicalized), not the closure itself — `R+` and
//! `R*` share one entry, which is how Example 7's `(a·b)*` reuses the RTC
//! computed for `a·(a·b)+·b`. RTCSharing and FullSharing run that one
//! step over the same entries, lookup, insert and eviction; they differ
//! only in which [`Shared`] structure an entry holds, and each
//! [`SharingKind`] has its own key namespace.
//!
//! The engine runs **two instances** of this one type. The structural
//! instance holds closure structures as above. The result instance holds
//! whole materialized results ([`Shared::Result`]) for pinned
//! [`crate::EpochView`] readers, keyed by epoch + canonical query — the
//! epoch is part of the key, so a probe there is `Fresh` or `Miss`, never
//! `Stale` — never pinned, and built `SharedCache::beside` the
//! structural one: the two tiers are **one budget account**, settled by
//! evicting results only. Lookup, insert, budget, victim order and
//! counters are the same code for both.
//!
//! For dynamic graphs every structural entry additionally records the
//! **epoch** it was built at and the [`Footprint`] of its body: the edge
//! rows of the labels the body names, plus the vertex count when the body
//! is nullable. The cache itself tracks the graph's current epoch
//! (advanced by `Engine::apply_delta`); a lookup whose entry is older than
//! the current epoch returns [`Lookup::Stale`] — the old structure and its
//! footprint, so the caller can re-stamp it if the footprint did not move
//! and rebuild it otherwise — instead of silently serving a closure of a
//! graph that no longer exists. No entry holds an `R_G`. A stale entry of
//! any kind is handed out shared and stays cached until the refreshed
//! insert displaces it.
//!
//! ## Concurrency
//!
//! Every method takes `&self`: entries live in one hash map per
//! [`SharingKind`], each behind its own `RwLock`, and the hit/miss/stale
//! counters and the epoch are atomics. A fresh-entry hit only ever takes
//! its kind's *read* lock, so the serving front-end's concurrent `query`
//! connections all read one cache simultaneously; an insert holds the
//! write lock for one map operation (structures are built before it is
//! taken). Two threads racing to fill the same miss both compute and
//! insert; the structures are deterministic per `(key, epoch)`, so
//! whichever insert lands last is immaterial.
//!
//! ## Budgets and eviction
//!
//! By default the cache is unbounded — every closure body keeps its
//! structures and every query its result at each reachable epoch. A
//! [`CacheBudget`] ([`crate::EngineConfig::cache_budget`], which the
//! `rpq --cache-budget` flag sets) caps both tiers' retained
//! footprint: every entry records its bytes (payload, key and map slot —
//! no entry is free), the wall-clock nanos spent building it (the cost to
//! rebuild) and a last-hit tick, and whenever an insert pushes the account over
//! `max_bytes`/`max_entries` the entry with the lowest
//! `cost_to_rebuild / bytes` score is evicted. Scores are compared by
//! order of magnitude (power-of-8 buckets): measured build times jitter
//! from run to run, so raw float scores would never tie and a hot entry
//! whose build happened to measure fast would thrash; entries of
//! comparable rebuild density instead *tie* and the least-recently-hit
//! one goes (then key order, so eviction is deterministic). Entries
//! whose epoch is pinned by a live [`EpochPin`] — i.e. retained by an
//! [`crate::EpochView`] — are never evicted; if pinned entries alone
//! exceed the budget, enforcement is best-effort until the pins drop.
//! Eviction never affects results — an evicted structure is rebuilt on
//! its next miss (counted in
//! [`EvictionCounters::rebuilds_after_evict`]) — it only trades memory
//! for rebuild time.
//!
//! Independently of any budget, a memoized result whose epoch is neither
//! the live one nor pinned by a live [`EpochPin`] can never be asked for
//! again: `Engine::apply_delta` drops those from the result instance
//! ([`SharedCache::retain_epochs`]). Stale *structural* entries stay —
//! their recorded footprint lets an untouched body be re-stamped.

use rpq_graph::{LabeledMultigraph, PairSet, VertexId};
use rpq_reduction::{FullTc, Rtc};
use rpq_regex::Regex;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Bound on the evicted-key set behind the rebuild-after-evict counter.
/// Purely accounting state; when it fills up it is dropped wholesale
/// rather than growing without limit (the counter becomes best-effort).
const EVICTED_KEYS_CAP: usize = 4096;

/// Retention budget for the engine's caches. `Default` is unbounded on
/// every axis — the pre-budget behavior.
///
/// Parsed from specs like `64k`, `bytes=1m,entries=128` (sizes
/// take `k`/`m`/`g` binary suffixes; a bare size means `max_bytes`). The
/// one place a budget is set is [`crate::EngineConfig::cache_budget`];
/// the server's `--cache-budget` flag parses into that field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum retained bytes (every entry's payload, base relation, key
    /// and map slot, structures and results combined); `None` =
    /// unbounded.
    pub max_bytes: Option<usize>,
    /// Maximum number of retained entries, both tiers combined; `None` =
    /// unbounded.
    pub max_entries: Option<usize>,
}

impl CacheBudget {
    /// Whether no axis is bounded (the default).
    pub fn is_unbounded(&self) -> bool {
        *self == Self::default()
    }

    /// Parses a budget spec: comma-separated `bytes=SIZE`, `entries=N`
    /// parts, a bare `SIZE` (meaning `bytes=SIZE`), or the word
    /// `unbounded`. Sizes accept `k`/`m`/`g` binary suffixes
    /// (case-insensitive). Returns `None` on anything malformed.
    pub fn parse(spec: &str) -> Option<Self> {
        fn size(s: &str) -> Option<usize> {
            let s = s.trim();
            let (digits, mult) = match s.as_bytes().last()? {
                b'k' | b'K' => (&s[..s.len() - 1], 1usize << 10),
                b'm' | b'M' => (&s[..s.len() - 1], 1usize << 20),
                b'g' | b'G' => (&s[..s.len() - 1], 1usize << 30),
                _ => (s, 1usize),
            };
            digits.trim().parse::<usize>().ok()?.checked_mul(mult)
        }
        if spec.trim().eq_ignore_ascii_case("unbounded") {
            return Some(Self::default());
        }
        let mut budget = Self::default();
        let mut any = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => ("bytes", part),
            };
            match key {
                "bytes" => budget.max_bytes = Some(size(value)?),
                "entries" => budget.max_entries = Some(value.parse().ok()?),
                _ => return None,
            }
            any = true;
        }
        any.then_some(budget)
    }
}

impl std::fmt::Display for CacheBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_unbounded() {
            return write!(f, "unbounded");
        }
        let mut parts = Vec::new();
        if let Some(b) = self.max_bytes {
            parts.push(format!("bytes={b}"));
        }
        if let Some(e) = self.max_entries {
            parts.push(format!("entries={e}"));
        }
        write!(f, "{}", parts.join(","))
    }
}

/// Point-in-time copy of the eviction counters, by reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictionCounters {
    /// Entries evicted because the byte budget overflowed.
    pub by_bytes: u64,
    /// Entries evicted because the entry budget overflowed.
    pub by_entries: u64,
    /// Entries dropped because no live view can reach their epoch
    /// ([`SharedCache::retain_epochs`]).
    pub by_unreachable: u64,
    /// Stale entries displaced by a newer-epoch insert under their key.
    pub by_stale: u64,
    /// Misses on keys that were previously evicted under budget pressure
    /// — each one is a rebuild the budget caused.
    pub rebuilds_after_evict: u64,
}

impl EvictionCounters {
    /// Total evictions across every reason.
    pub fn total(&self) -> u64 {
        self.by_bytes + self.by_entries + self.by_unreachable + self.by_stale
    }
}

/// RAII pin on an epoch: while any pin for epoch `E` is alive, budget
/// eviction never removes entries stamped `E`, so an
/// [`crate::EpochView`] retained by the serving layer keeps getting
/// fresh hits for the structures it already paid for. Dropping the last
/// pin makes the epoch's entries evictable again.
pub struct EpochPin {
    cache: Arc<SharedCache>,
    epoch: u64,
}

impl EpochPin {
    /// Pins `epoch` in `cache` until the returned guard drops.
    pub fn new(cache: Arc<SharedCache>, epoch: u64) -> Self {
        *lock(&cache.pinned).entry(epoch).or_insert(0) += 1;
        Self { cache, epoch }
    }

    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        let mut pinned = lock(&self.cache.pinned);
        if let Some(count) = pinned.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                pinned.remove(&self.epoch);
            }
        }
    }
}
/// What a closure body's `R_G` is a function of: the edge rows of the
/// labels the body names, in the order it names them, and the vertex count
/// when the body is nullable (a new vertex adds a `(v, v)` step). A
/// structural entry keeps its body's footprint as its stale witness: equal
/// footprints mean an equal `R_G`, so a structure whose footprint did not
/// move is re-stamped rather than rebuilt. Rows are compared by pointer
/// first — a row the graph never wrote is the very `Arc` kept here — then
/// by value, so a delete and a re-insert of the same edge also re-stamp.
#[derive(Debug)]
pub struct Footprint {
    rows: Vec<Arc<Vec<(VertexId, VertexId)>>>,
    vertices: Option<usize>,
}

impl Footprint {
    /// `body`'s footprint on `graph`. A label the graph does not have reads
    /// as an empty row.
    pub fn of(graph: &LabeledMultigraph, body: &Regex) -> Footprint {
        let row = |name: &str| {
            graph.labels().get(name).map_or_else(Arc::default, |l| {
                Arc::clone(graph.shared_edges_with_label(l))
            })
        };
        Footprint {
            rows: body.labels().into_iter().map(row).collect(),
            vertices: body.nullable().then(|| graph.vertex_count()),
        }
    }

    /// Heap bytes the footprint keeps alive: its edge rows, and its own
    /// list of them.
    pub fn heap_bytes(&self) -> usize {
        let edges: usize = self.rows.iter().map(|row| row.capacity()).sum();
        edges * std::mem::size_of::<(VertexId, VertexId)>()
            + self.rows.capacity() * std::mem::size_of::<Arc<Vec<(VertexId, VertexId)>>>()
    }
}

impl PartialEq for Footprint {
    fn eq(&self, other: &Footprint) -> bool {
        self.vertices == other.vertices
            && self.rows.len() == other.rows.len()
            && (self.rows.iter().zip(&other.rows)).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

/// Per-entry retention metadata: everything eviction scores on.
struct EntryMeta {
    /// Retained bytes: the structure, its recorded footprint, its key and
    /// [`SLOT_BYTES`] — so an empty result costs something too.
    bytes: usize,
    /// Wall-clock nanos spent building the structure — the cost a future
    /// miss would pay again. 0 when the insert path measured none, which
    /// scores the entry cheapest-to-rebuild (evicted first).
    build_nanos: u64,
    /// Tick of the most recent fresh hit (insert counts as one); updated
    /// under the map's *read* lock, hence atomic.
    last_hit: AtomicU64,
}

impl EntryMeta {
    /// The eviction score's power-of-8 bucket, used for victim comparison.
    /// The score is nanos of rebuild work bought per retained byte; lowest
    /// goes first. Build times are measured wall-clock and jitter between
    /// runs, so comparing raw float scores never produces the tie the recency
    /// rule needs — a hot entry whose build happened to measure fast
    /// would be re-evicted on every round of tail churn. Bucketing by
    /// order of magnitude makes entries of comparable rebuild density
    /// tie, and recency picks among them. Unmeasured entries (cost 0)
    /// sort below every bucket and go first.
    fn score_class(&self) -> i32 {
        let density = self.build_nanos as f64 / self.bytes.max(1) as f64;
        if density <= 0.0 {
            return i32::MIN;
        }
        (density.log2() / 3.0).floor() as i32
    }
}

/// Which payload an entry holds — the one axis RTCSharing and FullSharing
/// differ on, plus the memoized results of the result instance. The
/// discriminant indexes the kind's map, which keeps the key namespaces
/// independent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SharingKind {
    /// A reduced transitive closure ([`Rtc`]).
    Rtc = 0,
    /// A materialized `R⁺_G` ([`FullTc`]).
    Full = 1,
    /// A whole materialized query result.
    Result = 2,
}

const KINDS: [SharingKind; 3] = [SharingKind::Rtc, SharingKind::Full, SharingKind::Result];

/// A shared structure as the cache stores it: what Algorithm 1 lines 9–11
/// look up, compute and store for a closure body `R`.
#[derive(Clone)]
pub enum Shared {
    /// RTCSharing's reduced closure.
    Rtc(Arc<Rtc>),
    /// FullSharing's materialized `R⁺_G`.
    Full(Arc<FullTc>),
    /// A memoized query result, `Arc`-shared so a hit costs one reference
    /// bump however large the result set is.
    Result(Arc<PairSet>),
}

impl Shared {
    pub(crate) fn kind(&self) -> SharingKind {
        match self {
            Shared::Rtc(_) => SharingKind::Rtc,
            Shared::Full(_) => SharingKind::Full,
            Shared::Result(_) => SharingKind::Result,
        }
    }

    /// Heap bytes the payload keeps alive: a structure's id tables and
    /// closure rows, or a result's pairs.
    fn heap_bytes(&self) -> usize {
        match self {
            Shared::Rtc(rtc) => rtc.heap_bytes(),
            Shared::Full(full) => full.heap_bytes(),
            Shared::Result(pairs) => pairs.heap_bytes(),
        }
    }
}

/// A cached structure with its provenance.
struct Entry {
    shared: Shared,
    /// The footprint of the body the structure was built for; `None` when
    /// the entry was stored without one — such an entry can only be
    /// refreshed by rebuild.
    footprint: Option<Arc<Footprint>>,
    epoch: u64,
    meta: EntryMeta,
}

/// Result of the epoch-aware [`SharedCache::lookup`].
pub enum Lookup {
    /// A structure built at the looked-up epoch.
    Fresh(Shared),
    /// A structure from an older epoch (still correct for the epoch it
    /// was built at), with the state needed to refresh it.
    Stale {
        /// The stale structure.
        shared: Shared,
        /// The footprint of its body when it was built, if recorded.
        footprint: Option<Arc<Footprint>>,
    },
    /// No entry under this key.
    Miss,
}

/// One fresh entry as [`SharedCache::fresh_entries`] reports it.
pub struct FreshEntry {
    /// Which structure the entry holds.
    pub kind: SharingKind,
    /// The canonical closure body the structure is cached under.
    pub key: String,
}

/// Aggregates over one kind's cached entries ([`SharedCache::totals`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Cached structures, fresh or stale.
    pub entries: usize,
    /// Pairs held: `Σ |TC(Ḡ_R)|` over RTCs, `Σ |R⁺_G|` over full closures —
    /// the shared-data size of Fig. 12.
    pub shared_pairs: usize,
    /// `Σ |V̄_R|` (SCC counts) over RTCs, `Σ |V_R|` over full closures — the
    /// vertex-count metric of Fig. 13.
    pub vertices: usize,
    /// Heap bytes of the closure rows alone, dense and sparse rows alike —
    /// the server's `memory:` lines.
    pub heap_bytes: usize,
    /// Closure rows stored as dense bitsets — how many rows the density
    /// rule promoted.
    pub dense_rows: usize,
}

type Map = FxHashMap<String, Entry>;

/// What one map slot costs beyond the heap its key and payload own: the
/// `(String, Entry)` pair inline, plus the hash table's control byte.
const SLOT_BYTES: usize = std::mem::size_of::<(String, Entry)>() + 1;

/// Cache of shared structures keyed by the canonical form of `R`.
///
/// Structures are held behind [`Arc`] and all methods take `&self`
/// (one lock-protected map per kind, atomic counters — see the module docs),
/// so one cache can be read and filled by any number of threads at once:
/// this is what lets the engine evaluate queries under a shared reference
/// and the TCP front-end serve concurrent clients from one epoch-aware
/// cache.
#[derive(Default)]
pub struct SharedCache {
    /// One map per [`SharingKind`], indexed by its discriminant.
    maps: [RwLock<Map>; 3],
    /// The retention budget; immutable after construction.
    budget: CacheBudget,
    /// The graph epoch this cache serves; entries with an older epoch are
    /// stale.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_hits: AtomicU64,
    /// Monotone logical clock stamped into entries' `last_hit` — the
    /// recency axis of the eviction tie-break.
    tick: AtomicU64,
    /// Retained footprint across every namespace, maintained on every
    /// map mutation so budget checks are O(1).
    occ_bytes: AtomicU64,
    occ_entries: AtomicU64,
    ev_bytes: AtomicU64,
    ev_entries: AtomicU64,
    ev_unreachable: AtomicU64,
    ev_stale: AtomicU64,
    rebuilds_after_evict: AtomicU64,
    /// Epoch → number of live [`EpochPin`] guards.
    pinned: Mutex<FxHashMap<u64, usize>>,
    /// Keys evicted under budget pressure, consumed by the first
    /// subsequent miss to count a rebuild-after-evict.
    evicted_keys: Mutex<FxHashSet<(SharingKind, String)>>,
    /// The instance this one sits [`SharedCache::beside`], whose
    /// occupancy is charged to this one's budget too.
    beside: Option<Arc<SharedCache>>,
}

/// Acquires a read lock, clearing poisoning: a panicked evaluation
/// elsewhere leaves entries consistent (inserts are whole-entry), so
/// serving continues.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a write lock, clearing poisoning (see [`read`]).
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires a mutex, clearing poisoning (see [`read`]).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SharedCache {
    /// An empty, **unbounded** cache at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache at epoch 0 enforcing `budget` on every insert.
    pub fn with_budget(budget: CacheBudget) -> Self {
        Self {
            budget,
            ..Self::default()
        }
    }

    /// An empty cache at epoch 0 sharing `structures`' budget as one
    /// account: its checks count both instances' occupancy, and only its
    /// own entries are evicted to settle them (the engine's result tier).
    pub(crate) fn beside(structures: Arc<SharedCache>) -> Self {
        Self {
            budget: structures.budget,
            beside: Some(structures),
            ..Self::default()
        }
    }

    /// The retention budget this cache enforces.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// The map of `kind`'s namespace.
    fn map(&self, kind: SharingKind) -> &RwLock<Map> {
        &self.maps[kind as usize]
    }

    /// The graph epoch this cache currently serves.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Moves the cache to a newer graph epoch; existing entries become
    /// stale and will be refreshed on their next lookup. Epochs are
    /// monotone — moving backward panics (it would un-stale entries).
    pub fn advance_epoch(&self, epoch: u64) {
        // fetch_max (not check-then-store) so racing callers can never
        // move the epoch backward even transiently; the assert then
        // reports the caller that *tried* to.
        let previous = self.epoch.fetch_max(epoch, Ordering::AcqRel);
        assert!(epoch >= previous, "cache epoch must be monotone");
    }

    /// Stamps a fresh hit: bumps the counter and the entry's recency
    /// tick. Safe under a read lock (the tick is atomic).
    fn note_fresh_hit(&self, meta: &EntryMeta) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        meta.last_hit
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Counts a miss, and a rebuild-after-evict when the key was
    /// previously evicted under budget pressure.
    fn note_miss(&self, kind: SharingKind, key: &str) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if self.budget.is_unbounded() {
            return;
        }
        let mut evicted = lock(&self.evicted_keys);
        if !evicted.is_empty() && evicted.remove(&(kind, key.to_owned())) {
            self.rebuilds_after_evict.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `key` as budget-evicted so its next miss counts as a
    /// rebuild. The set is accounting state only and bounded.
    fn remember_evicted(&self, kind: SharingKind, key: &str) {
        let mut evicted = lock(&self.evicted_keys);
        if evicted.len() >= EVICTED_KEYS_CAP {
            evicted.clear();
        }
        evicted.insert((kind, key.to_owned()));
    }

    /// Occupancy bookkeeping for a removal (eviction, unreachable, clear).
    fn note_remove(&self, meta: &EntryMeta) {
        self.occ_bytes
            .fetch_sub(meta.bytes as u64, Ordering::AcqRel);
        self.occ_entries.fetch_sub(1, Ordering::AcqRel);
    }

    /// The epoch-aware lookup (Algorithm 1 line 9), pinned to an explicit
    /// `epoch` — the live one on the engine's own path, an older one for
    /// an [`crate::EpochView`] reader. Counts a hit for `Fresh`, a stale
    /// hit for `Stale` and a miss otherwise.
    ///
    /// An entry stamped exactly `epoch` is a fresh hit regardless of where
    /// the live epoch has moved since. A stale entry is only handed out
    /// (shared; it stays cached until the refreshed insert displaces it)
    /// when `epoch` **is** the live epoch: it exists to refresh the entry
    /// forward, which only makes sense at the front. A reader pinned to an
    /// older epoch treats any other-epoch entry as a plain miss and
    /// recomputes from its frozen graph, leaving the entry in place for
    /// live readers.
    pub fn lookup(&self, kind: SharingKind, key: &str, epoch: u64) -> Lookup {
        match read(self.map(kind)).get(key) {
            Some(entry) if entry.epoch == epoch => {
                self.note_fresh_hit(&entry.meta);
                Lookup::Fresh(entry.shared.clone())
            }
            Some(entry) if epoch == self.epoch() => {
                self.stale_hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Stale {
                    shared: entry.shared.clone(),
                    footprint: entry.footprint.clone(),
                }
            }
            _ => {
                self.note_miss(kind, key);
                Lookup::Miss
            }
        }
    }

    /// Stores `shared` under `key` (Algorithm 1 line 11), stamped with
    /// `epoch` — the live one, or the older one a reader pinned to an
    /// [`crate::EpochView`] evaluated at. The newest epoch wins: an entry
    /// from a **newer** epoch is never displaced, so a pinned reader's
    /// recomputed structure cannot clobber what live readers are sharing;
    /// ties overwrite (structures are deterministic per `(key, epoch)`).
    ///
    /// `footprint` is what the structure was built from; without one a
    /// later staleness can only be resolved by rebuild. `build` —
    /// the wall clock spent constructing the structure — becomes the
    /// entry's cost-to-rebuild; `Duration::ZERO` scores it cheapest
    /// (evicted first). The budget is enforced before returning.
    pub fn insert(
        &self,
        key: String,
        shared: Shared,
        footprint: Option<Arc<Footprint>>,
        epoch: u64,
        build: Duration,
    ) {
        let payload = shared.heap_bytes() + footprint.as_ref().map_or(0, |f| f.heap_bytes());
        let bytes = payload + key.capacity() + SLOT_BYTES;
        let meta = EntryMeta {
            bytes,
            build_nanos: build.as_nanos() as u64,
            last_hit: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
        };
        {
            let mut map = write(self.map(shared.kind()));
            if map.get(&key).is_some_and(|existing| existing.epoch > epoch) {
                return;
            }
            let entry = Entry {
                shared,
                footprint,
                epoch,
                meta,
            };
            self.occ_bytes.fetch_add(bytes as u64, Ordering::AcqRel);
            match map.insert(key, entry) {
                Some(old) => {
                    self.occ_bytes
                        .fetch_sub(old.meta.bytes as u64, Ordering::AcqRel);
                    if old.epoch < epoch {
                        self.ev_stale.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    self.occ_entries.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
        self.enforce_budget();
    }

    /// Whether a fresh (current-epoch) structure of `kind` exists for
    /// `key`, without touching the hit/miss counters.
    pub fn contains_fresh(&self, kind: SharingKind, key: &str) -> bool {
        let epoch = self.epoch();
        read(self.map(kind))
            .get(key)
            .is_some_and(|entry| entry.epoch == epoch)
    }

    /// Collects the **fresh** (current-epoch) entries of every kind — the
    /// persistence surface used by the engine snapshot
    /// ([`crate::snapshot`]). Stale entries are skipped: they would need
    /// a refresh before being served anyway, so a snapshot simply drops
    /// them. Returns an owned point-in-time copy of kinds and keys, since
    /// the interior is lock-protected.
    pub fn fresh_entries(&self) -> Vec<FreshEntry> {
        let epoch = self.epoch();
        let mut fresh = Vec::new();
        for map in &self.maps {
            fresh.extend(
                read(map)
                    .iter()
                    .filter(|(_, e)| e.epoch == epoch)
                    .map(|(key, e)| FreshEntry {
                        kind: e.shared.kind(),
                        key: key.clone(),
                    }),
            );
        }
        fresh
    }

    /// Aggregates over every cached entry of `kind`, fresh or stale, in one
    /// pass under the kind's read lock.
    pub fn totals(&self, kind: SharingKind) -> KindTotals {
        let mut totals = KindTotals::default();
        for entry in read(self.map(kind)).values() {
            let (pairs, vertices, heap, dense) = match &entry.shared {
                Shared::Rtc(rtc) => (
                    rtc.closure_pair_count(),
                    rtc.scc_count(),
                    rtc.closure_heap_bytes(),
                    rtc.dense_closure_rows(),
                ),
                Shared::Full(full) => (
                    full.pair_count(),
                    full.vertex_count(),
                    full.closure_heap_bytes(),
                    full.dense_rows(),
                ),
                Shared::Result(pairs) => (pairs.len(), 0, pairs.heap_bytes(), 0),
            };
            totals.entries += 1;
            totals.shared_pairs += pairs;
            totals.vertices += vertices;
            totals.heap_bytes += heap;
            totals.dense_rows += dense;
        }
        totals
    }

    /// Cache hits since creation/clear (fresh entries only).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since creation/clear.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that found an entry from an older epoch (each one leads to
    /// a refresh, not a recompute-from-nothing).
    pub fn stale_hits(&self) -> u64 {
        self.stale_hits.load(Ordering::Relaxed)
    }

    /// Resets the hit/miss/stale and eviction counters while
    /// **preserving** every cached structure — the metric-reset half of
    /// [`SharedCache::clear`], used by `Engine::reset_metrics`.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.stale_hits.store(0, Ordering::Relaxed);
        self.ev_bytes.store(0, Ordering::Relaxed);
        self.ev_entries.store(0, Ordering::Relaxed);
        self.ev_unreachable.store(0, Ordering::Relaxed);
        self.ev_stale.store(0, Ordering::Relaxed);
        self.rebuilds_after_evict.store(0, Ordering::Relaxed);
        lock(&self.evicted_keys).clear();
    }

    /// Point-in-time copy of the eviction counters.
    pub fn eviction_counters(&self) -> EvictionCounters {
        EvictionCounters {
            by_bytes: self.ev_bytes.load(Ordering::Relaxed),
            by_entries: self.ev_entries.load(Ordering::Relaxed),
            by_unreachable: self.ev_unreachable.load(Ordering::Relaxed),
            by_stale: self.ev_stale.load(Ordering::Relaxed),
            rebuilds_after_evict: self.rebuilds_after_evict.load(Ordering::Relaxed),
        }
    }

    /// Retained bytes across every namespace (payloads, base relations,
    /// keys and map slots — the footprint the byte
    /// budget governs; [`KindTotals::heap_bytes`] measures the closure
    /// rows alone).
    pub fn occupancy_bytes(&self) -> usize {
        self.occ_bytes.load(Ordering::Acquire) as usize
    }

    /// Retained entries across every namespace.
    pub fn occupancy_entries(&self) -> usize {
        self.occ_entries.load(Ordering::Acquire) as usize
    }

    /// The epochs currently covered by a live pin.
    pub(crate) fn pinned_epochs(&self) -> FxHashSet<u64> {
        lock(&self.pinned).keys().copied().collect()
    }

    /// Retained heap bytes held by entries whose epoch is currently
    /// pinned — the part of the footprint eviction cannot reclaim.
    pub fn pinned_occupancy_bytes(&self) -> usize {
        let pinned = self.pinned_epochs();
        if pinned.is_empty() {
            return 0;
        }
        let pinned_bytes = |map: &Map| -> usize {
            let held = map.values().filter(|e| pinned.contains(&e.epoch));
            held.map(|e| e.meta.bytes).sum()
        };
        self.maps.iter().map(|map| pinned_bytes(&read(map))).sum()
    }

    /// Whether any live pin covers `epoch`.
    pub fn is_pinned(&self, epoch: u64) -> bool {
        lock(&self.pinned).contains_key(&epoch)
    }

    /// Evicts this instance's lowest-score entries until the byte/entry
    /// budget holds over it plus the instance it sits beside (or only
    /// pinned entries remain — best-effort under pins). [`SharedCache::insert`]
    /// calls this itself; it is public for callers that want the budget
    /// re-settled after a pin drops or the instance beside grew, and for tests.
    pub fn enforce_budget(&self) {
        let (max_bytes, max_entries) = (self.budget.max_bytes, self.budget.max_entries);
        if max_bytes.is_none() && max_entries.is_none() {
            return;
        }
        let beside = self.beside.as_deref();
        loop {
            let bytes = self.occupancy_bytes() + beside.map_or(0, Self::occupancy_bytes);
            let entries = self.occupancy_entries() + beside.map_or(0, Self::occupancy_entries);
            let over_bytes = max_bytes.is_some_and(|b| bytes > b);
            let over_entries = max_entries.is_some_and(|e| entries > e);
            if !over_bytes && !over_entries {
                return;
            }
            if !self.evict_one(over_bytes) {
                return;
            }
        }
    }

    /// Removes the unpinned entry with the lowest
    /// `cost_to_rebuild / bytes` score class (ties — entries within the
    /// same order of magnitude: least-recently-hit, then key order, then
    /// kind — fully deterministic for a given cache state).
    /// Returns `false` when nothing is evictable. `for_bytes` selects
    /// which reason counter the eviction lands in.
    fn evict_one(&self, for_bytes: bool) -> bool {
        let pinned = self.pinned_epochs();
        // (score class, last hit, key, kind) is the eviction order; the
        // epoch re-validates the winner.
        let mut victim: Option<(i32, u64, String, SharingKind, u64)> = None;
        for kind in KINDS {
            for (key, entry) in read(self.map(kind)).iter() {
                if pinned.contains(&entry.epoch) {
                    continue;
                }
                let class = entry.meta.score_class();
                let last_hit = entry.meta.last_hit.load(Ordering::Relaxed);
                if victim.as_ref().is_none_or(|(c, l, k, n, _)| {
                    (class, last_hit, key.as_str(), kind) < (*c, *l, k.as_str(), *n)
                }) {
                    victim = Some((class, last_hit, key.clone(), kind, entry.epoch));
                }
            }
        }
        let Some((_, _, key, kind, epoch)) = victim else {
            return false;
        };
        // Re-check under the write lock: the entry may have been evicted,
        // replaced or re-pinned since the scan. A lost race still returns
        // `true` — the caller loops and re-reads occupancy.
        let mut map = write(self.map(kind));
        let still_there = map
            .get(&key)
            .is_some_and(|e| e.epoch == epoch && !self.is_pinned(epoch));
        if !still_there {
            return true;
        }
        if let Some(entry) = map.remove(&key) {
            self.note_remove(&entry.meta);
            let reason = if for_bytes {
                &self.ev_bytes
            } else {
                &self.ev_entries
            };
            reason.fetch_add(1, Ordering::Relaxed);
            self.remember_evicted(kind, &key);
        }
        true
    }

    /// Drops every entry whose epoch fails `keep`, counted as
    /// [`EvictionCounters::by_unreachable`]. The caller's claim is that
    /// such an epoch can never be looked up again, so the dropped keys are
    /// not remembered for the rebuild-after-evict counter.
    pub fn retain_epochs(&self, keep: impl Fn(u64) -> bool) {
        for map in &self.maps {
            write(map).retain(|_, entry| {
                if keep(entry.epoch) {
                    return true;
                }
                self.note_remove(&entry.meta);
                self.ev_unreachable.fetch_add(1, Ordering::Relaxed);
                false
            });
        }
    }

    /// Drops all cached structures and resets counters (the epoch is
    /// preserved — it tracks the graph, not the contents). Each map is
    /// drained under its write lock and every drained entry debited, so an
    /// insert racing the clear is either drained with its map or stays
    /// counted.
    pub fn clear(&self) {
        for map in &self.maps {
            for (_, entry) in write(map).drain() {
                self.note_remove(&entry.meta);
            }
        }
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SharingKind::{Full, Result as ResultKind, Rtc as RtcKind};

    fn sample_pairs() -> PairSet {
        [(0u32, 1u32), (1, 0)].into_iter().collect()
    }

    fn sample_rtc() -> Arc<Rtc> {
        Arc::new(Rtc::from_pairs(&sample_pairs()))
    }

    fn sample(kind: SharingKind) -> Shared {
        match kind {
            RtcKind => Shared::Rtc(sample_rtc()),
            Full => Shared::Full(Arc::new(FullTc::from_pairs(&sample_pairs()))),
            ResultKind => Shared::Result(Arc::new(sample_pairs())),
        }
    }

    /// Runs `test` once per payload kind: every policy below is the same
    /// code for RTCs, full closures and memoized results, and must behave
    /// the same.
    fn for_all_kinds(test: impl Fn(SharingKind)) {
        KINDS.into_iter().for_each(test);
    }

    /// The footprint of `b·c` on the paper graph.
    fn sample_footprint() -> Footprint {
        let body = Regex::parse("b.c").unwrap();
        Footprint::of(&rpq_graph::fixtures::paper_graph(), &body)
    }

    /// Inserts a sample structure with a footprint.
    fn insert_costed(c: &SharedCache, kind: SharingKind, key: &str, epoch: u64, nanos: u64) {
        c.insert(
            key.into(),
            sample(kind),
            Some(Arc::new(sample_footprint())),
            epoch,
            Duration::from_nanos(nanos),
        );
    }

    /// Inserts a sample structure at the live epoch with neither a
    /// footprint nor a measured cost.
    fn insert_bare(c: &SharedCache, kind: SharingKind, key: &str) {
        c.insert(key.into(), sample(kind), None, c.epoch(), Duration::ZERO);
    }

    /// A counted live-epoch lookup: whether it was a fresh hit.
    fn hit(c: &SharedCache, kind: SharingKind, key: &str) -> bool {
        matches!(c.lookup(kind, key, c.epoch()), Lookup::Fresh(_))
    }

    fn count(c: &SharedCache, kind: SharingKind) -> usize {
        c.totals(kind).entries
    }

    /// Bytes one costed sample entry of `kind` under `key` occupies.
    fn unit_bytes(kind: SharingKind, key: &str) -> usize {
        let probe = SharedCache::new();
        insert_costed(&probe, kind, key, 0, 1);
        probe.occupancy_bytes()
    }

    #[test]
    fn hit_miss_accounting() {
        for_all_kinds(|kind| {
            let c = SharedCache::new();
            assert!(!hit(&c, kind, "a.b"));
            assert_eq!(c.misses(), 1);
            insert_bare(&c, kind, "a.b");
            assert!(hit(&c, kind, "a.b"));
            assert_eq!(c.hits(), 1);
            assert_eq!(count(&c, kind), 1);
        });
    }

    #[test]
    fn shared_pair_totals() {
        let c = SharedCache::new();
        insert_bare(&c, RtcKind, "a.b");
        // One 2-cycle SCC with a self-reach: closure has 1 pair.
        assert_eq!(c.totals(RtcKind).shared_pairs, 1);
        insert_bare(&c, Full, "a.b");
        // Full closure: both vertices reach both → 4 pairs.
        assert_eq!(c.totals(Full).shared_pairs, 4);
    }

    #[test]
    fn clear_resets_everything() {
        for_all_kinds(|kind| {
            let c = SharedCache::new();
            insert_bare(&c, kind, "x");
            assert!(hit(&c, kind, "x"));
            c.clear();
            assert_eq!(count(&c, kind), 0);
            assert_eq!(c.hits(), 0);
            assert_eq!(c.misses(), 0);
        });
    }

    /// `reset cache` clears the instances while views on other connections
    /// keep inserting into them. `clear` debits what it drains: zeroing the
    /// account after wiping the maps would miss an insert landing between
    /// the two, and removing that entry later would wrap the counters.
    #[test]
    fn clear_racing_inserts_keeps_the_account_exact() {
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;
        let c = SharedCache::new();
        let stop = AtomicBool::new(false);
        let mut wrapped = 0;
        std::thread::scope(|s| {
            for t in 0..2 {
                let (c, stop) = (&c, &stop);
                s.spawn(move || {
                    for i in 0.. {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        insert_bare(c, ResultKind, &format!("0@q{t}-{}", i % 64));
                    }
                });
            }
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(500) {
                c.clear();
                c.retain_epochs(|_| false);
                wrapped += usize::from(c.occupancy_entries() > usize::MAX / 2);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(wrapped, 0, "the entry count wrapped below zero");
        c.clear();
        assert_eq!((c.occupancy_bytes(), c.occupancy_entries()), (0, 0));
    }

    #[test]
    fn reset_counters_preserves_structures() {
        let c = SharedCache::new();
        insert_bare(&c, RtcKind, "x");
        assert!(hit(&c, RtcKind, "x"));
        assert!(!hit(&c, RtcKind, "missing"));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        c.reset_counters();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert_eq!(count(&c, RtcKind), 1);
        assert_eq!(c.totals(RtcKind).shared_pairs, 1);
    }

    #[test]
    fn rtc_and_full_are_independent_namespaces() {
        let c = SharedCache::new();
        insert_bare(&c, RtcKind, "k");
        assert!(matches!(c.lookup(Full, "k", 0), Lookup::Miss));
        assert_eq!(count(&c, Full), 0);
    }

    /// A stale entry is handed out shared with its footprint, stays
    /// cached for every live lookup until the refreshed insert displaces
    /// it, and that displacement counts once.
    #[test]
    fn stale_entries_are_shared_until_the_refresh_displaces_them() {
        for_all_kinds(|kind| {
            let c = SharedCache::new();
            insert_costed(&c, kind, "k", 0, 0);
            let bytes = c.occupancy_bytes();
            c.advance_epoch(3);
            assert!(!c.contains_fresh(kind, "k"));
            for _ in 0..2 {
                match c.lookup(kind, "k", 3) {
                    Lookup::Stale { footprint, .. } => {
                        assert_eq!(*footprint.unwrap(), sample_footprint())
                    }
                    _ => panic!("expected a stale entry"),
                }
            }
            assert_eq!((c.stale_hits(), count(&c, kind)), (2, 1));
            assert_eq!(c.occupancy_bytes(), bytes);
            insert_costed(&c, kind, "k", 3, 0);
            assert!(matches!(c.lookup(kind, "k", 3), Lookup::Fresh(_)));
            assert_eq!((count(&c, kind), c.occupancy_bytes()), (1, bytes));
            assert_eq!(c.eviction_counters().by_stale, 1);
        });
    }

    #[test]
    fn pinned_lookup_hits_its_own_epoch_after_the_front_moves() {
        for_all_kinds(|kind| {
            let c = SharedCache::new();
            insert_bare(&c, kind, "k");
            c.advance_epoch(2);
            // Live lookups see a stale entry; a reader pinned to epoch 0
            // still gets a fresh hit.
            assert!(matches!(c.lookup(kind, "k", 0), Lookup::Fresh(_)));
            assert_eq!(count(&c, kind), 1);
            assert_eq!((c.hits(), c.stale_hits()), (1, 0));
        });
    }

    #[test]
    fn pinned_lookup_misses_other_epochs() {
        for_all_kinds(|kind| {
            let c = SharedCache::new();
            insert_bare(&c, kind, "k");
            c.advance_epoch(5);
            // Pinned to epoch 3: the epoch-0 entry is neither fresh (wrong
            // epoch) nor stale (3 is not the live epoch) — a plain miss
            // that leaves the entry for the live readers to refresh.
            assert!(matches!(c.lookup(kind, "k", 3), Lookup::Miss));
            assert_eq!(count(&c, kind), 1);
            assert_eq!(c.misses(), 1);
            assert!(matches!(c.lookup(kind, "missing", 3), Lookup::Miss));
        });
    }

    #[test]
    fn pinned_insert_never_displaces_newer_entries() {
        for_all_kinds(|kind| {
            let c = SharedCache::new();
            c.advance_epoch(4);
            insert_costed(&c, kind, "k", 4, 7); // stamped 4 (live)
            let bytes = c.occupancy_bytes();
            insert_bare(&c, kind, "k"); // tie: overwrites, base relation gone
            assert!(c.occupancy_bytes() < bytes);
            let bytes = c.occupancy_bytes();
            insert_costed(&c, kind, "k", 1, 7); // old view: ignored
            assert!(c.contains_fresh(kind, "k"));
            assert_eq!(c.occupancy_bytes(), bytes); // the epoch-4 entry survived
            assert_eq!(c.eviction_counters().by_stale, 0);
            // An old-epoch insert under a *new* key does land (epoch 1).
            insert_costed(&c, kind, "old-only", 1, 7);
            assert!(matches!(c.lookup(kind, "old-only", 1), Lookup::Fresh(_)));
            assert!(!c.contains_fresh(kind, "old-only"));
        });
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn epoch_cannot_move_backward() {
        let c = SharedCache::new();
        c.advance_epoch(2);
        c.advance_epoch(1);
    }

    #[test]
    fn fresh_entries_are_point_in_time_copies() {
        let c = SharedCache::new();
        insert_costed(&c, RtcKind, "k", 0, 0);
        insert_bare(&c, Full, "stale-after-advance");
        let mut fresh: Vec<_> = c
            .fresh_entries()
            .into_iter()
            .map(|e| (e.kind, e.key))
            .collect();
        fresh.sort();
        assert_eq!(
            fresh,
            [
                (RtcKind, "k".to_owned()),
                (Full, "stale-after-advance".to_owned())
            ]
        );
        c.advance_epoch(1);
        assert!(c.fresh_entries().is_empty());
        // The earlier copy is unaffected by the advance.
        assert_eq!(fresh.len(), 2);
    }

    /// The counters are atomics precisely so `metrics`/`reset_metrics`
    /// stay correct while concurrent readers hammer the cache — this
    /// pins the accounting under real threads (ISSUE 5 satellite).
    #[test]
    fn counters_are_exact_under_concurrent_readers() {
        const THREADS: usize = 8;
        const LOOKUPS: u64 = 200;
        let c = SharedCache::new();
        insert_bare(&c, RtcKind, "warm");
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = &c;
                s.spawn(move || {
                    for i in 0..LOOKUPS {
                        // Every thread alternates one guaranteed hit and
                        // one guaranteed miss (a key nobody inserts).
                        assert!(hit(c, RtcKind, "warm"));
                        assert!(!hit(c, RtcKind, &format!("missing-{t}-{i}")));
                    }
                });
            }
        });
        assert_eq!(c.hits(), THREADS as u64 * LOOKUPS);
        assert_eq!(c.misses(), THREADS as u64 * LOOKUPS);
        c.reset_counters();
        assert_eq!((c.hits(), c.misses(), c.stale_hits()), (0, 0, 0));
        assert_eq!(count(&c, RtcKind), 1);
    }

    /// Concurrent fillers racing on the same and different keys leave the
    /// cache consistent: every key present, every entry fresh.
    #[test]
    fn concurrent_inserts_and_lookups_stay_consistent() {
        const THREADS: usize = 8;
        let c = SharedCache::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = &c;
                s.spawn(move || {
                    for round in 0..50 {
                        let contended = format!("key-{}", round % 4);
                        let private = format!("key-{t}-{round}");
                        insert_bare(c, RtcKind, &contended);
                        insert_bare(c, RtcKind, &private);
                        assert!(hit(c, RtcKind, &contended));
                        assert!(hit(c, RtcKind, &private));
                    }
                });
            }
        });
        // 4 contended keys + one private key per (thread, round).
        assert_eq!(count(&c, RtcKind), 4 + THREADS * 50);
        assert_eq!(c.fresh_entries().len(), count(&c, RtcKind));
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn budget_specs_parse() {
        assert_eq!(CacheBudget::parse(""), None);
        assert_eq!(CacheBudget::parse("nope=3"), None);
        assert_eq!(CacheBudget::parse("bytes=abc"), None);
        assert_eq!(
            CacheBudget::parse("unbounded"),
            Some(CacheBudget::default())
        );
        assert_eq!(
            CacheBudget::parse("64k"),
            Some(CacheBudget {
                max_bytes: Some(64 << 10),
                ..Default::default()
            })
        );
        let full = CacheBudget::parse("bytes=1M, entries=128").unwrap();
        assert_eq!(full.max_bytes, Some(1 << 20));
        assert_eq!(full.max_entries, Some(128));
        assert_eq!(full.to_string(), "bytes=1048576,entries=128");
        // The TTL axis is gone: a spec carrying it is malformed.
        assert_eq!(CacheBudget::parse("ttl=4"), None);
        assert_eq!(CacheBudget::parse("bytes=1M, entries=128, ttl=4"), None);
        assert_eq!(CacheBudget::default().to_string(), "unbounded");
        assert!(CacheBudget::default().is_unbounded());
        assert!(!full.is_unbounded());
    }

    #[test]
    fn occupancy_tracks_every_mutation() {
        for_all_kinds(|kind| {
            let c = SharedCache::new();
            assert_eq!((c.occupancy_bytes(), c.occupancy_entries()), (0, 0));
            insert_costed(&c, kind, "a", 0, 10);
            let unit = c.occupancy_bytes();
            assert!(unit > 0);
            assert_eq!(c.occupancy_entries(), 1);
            // Replacement at the same key does not double-count.
            insert_costed(&c, kind, "a", 0, 20);
            assert_eq!((c.occupancy_bytes(), c.occupancy_entries()), (unit, 1));
            insert_costed(&c, kind, "b", 0, 10);
            assert_eq!(c.occupancy_entries(), 2);
            // A stale lookup leaves the entry and its footprint in place.
            c.advance_epoch(1);
            assert!(matches!(c.lookup(kind, "a", 1), Lookup::Stale { .. }));
            assert_eq!((c.occupancy_bytes(), c.occupancy_entries()), (2 * unit, 2));
            c.clear();
            assert_eq!((c.occupancy_bytes(), c.occupancy_entries()), (0, 0));
        });
    }

    #[test]
    fn byte_budget_evicts_lowest_score_first() {
        for_all_kinds(|kind| {
            let room = unit_bytes(kind, "expensive") + unit_bytes(kind, "middling");
            let c = SharedCache::with_budget(CacheBudget {
                max_bytes: Some(room),
                ..Default::default()
            });
            insert_costed(&c, kind, "expensive", 0, 30_000);
            insert_costed(&c, kind, "cheap", 0, 1_000);
            insert_costed(&c, kind, "middling", 0, 20_000);
            // Near-equal bytes, so the lowest build cost scores lowest and goes.
            assert_eq!(c.occupancy_entries(), 2);
            assert!(c.occupancy_bytes() <= room);
            assert!(c.contains_fresh(kind, "expensive"));
            assert!(c.contains_fresh(kind, "middling"));
            assert!(!c.contains_fresh(kind, "cheap"));
            assert_eq!(c.eviction_counters().by_bytes, 1);
            // The miss that rebuilds the evicted key is counted once, and
            // only in the namespace it was evicted from.
            let other = if kind == RtcKind { Full } else { RtcKind };
            assert!(!hit(&c, other, "cheap"));
            assert_eq!(c.eviction_counters().rebuilds_after_evict, 0);
            assert!(!hit(&c, kind, "cheap"));
            assert!(!hit(&c, kind, "cheap"));
            assert_eq!(c.eviction_counters().rebuilds_after_evict, 1);
        });
    }

    /// A structure is charged for its id tables as well as its rows (here
    /// `V_R` is `0..v`). An RTC's are its SCC table over original ids (4 B
    /// an id up to the largest in `V_R`) and its member rows (4 B a member,
    /// 4 B an SCC). A full TC's are the `V_R` vertex list (4 B a vertex)
    /// and its rank table (4 B an original id up to the largest in `V_R`).
    /// The totals still count the rows alone.
    #[test]
    fn structures_are_charged_for_their_id_tables() {
        let rtc = sample_rtc();
        let full = FullTc::from_pairs(&sample_pairs());
        let (v, s) = (rtc.stats().vr_vertices, rtc.scc_count());
        for (kind, rows, tables) in [
            (RtcKind, rtc.closure_heap_bytes(), 8 * v + 4 * s),
            (Full, full.closure_heap_bytes(), 8 * v),
        ] {
            let c = SharedCache::new();
            insert_bare(&c, kind, "k");
            let floor = "k".len() + SLOT_BYTES + rows + tables;
            assert!(c.occupancy_bytes() >= floor, "{kind:?}");
            assert_eq!(c.totals(kind).heap_bytes, rows, "{kind:?}");
        }
    }

    #[test]
    fn entry_budget_evicts_with_recency_tie_break() {
        for_all_kinds(|kind| {
            let c = SharedCache::with_budget(CacheBudget {
                max_entries: Some(2),
                ..Default::default()
            });
            // Identical scores: the least-recently-hit entry goes.
            insert_costed(&c, kind, "old", 0, 5_000);
            insert_costed(&c, kind, "warm", 0, 5_000);
            assert!(hit(&c, kind, "old")); // "old" now most recent
            insert_costed(&c, kind, "new", 0, 5_000);
            assert_eq!(c.occupancy_entries(), 2);
            assert!(c.contains_fresh(kind, "old"));
            assert!(!c.contains_fresh(kind, "warm"));
            assert!(c.contains_fresh(kind, "new"));
            assert_eq!(c.eviction_counters().by_entries, 1);
        });
    }

    /// Scores within the same order of magnitude count as a tie —
    /// measured build times jitter, and a raw float comparison would let
    /// a hot entry lose to a cold one over measurement noise.
    #[test]
    fn comparable_scores_tie_and_recency_decides() {
        for_all_kinds(|kind| {
            let c = SharedCache::with_budget(CacheBudget {
                max_entries: Some(2),
                ..Default::default()
            });
            // "hot" measured slightly cheaper than "cold" (same power-of-8
            // bucket): under a raw float comparison "hot" would be the
            // victim; under class comparison they tie and recency keeps it.
            insert_costed(&c, kind, "hot", 0, 5_000);
            insert_costed(&c, kind, "cold", 0, 6_000);
            assert!(hit(&c, kind, "hot")); // "hot" now most recent
            insert_costed(&c, kind, "new", 0, 5_500);
            assert!(c.contains_fresh(kind, "hot"));
            assert!(!c.contains_fresh(kind, "cold"));
            // An order-of-magnitude gap is *not* a tie: the far cheaper
            // rebuild goes first no matter how recently it arrived — here
            // the newcomer itself, evicted by its own insert's enforcement.
            insert_costed(&c, kind, "trivial", 0, 5_500 / 100);
            assert!(!c.contains_fresh(kind, "trivial"));
            assert!(c.contains_fresh(kind, "hot"));
            assert!(c.contains_fresh(kind, "new"));
        });
    }

    /// One budget governs both namespaces: the victim is the lowest score
    /// across RTCs and full closures alike.
    #[test]
    fn eviction_ranks_both_kinds_together() {
        let c = SharedCache::with_budget(CacheBudget {
            max_entries: Some(2),
            ..Default::default()
        });
        insert_costed(&c, Full, "k", 0, 1_000);
        insert_costed(&c, RtcKind, "k", 0, 900_000);
        insert_costed(&c, RtcKind, "j", 0, 900_000);
        assert!(!c.contains_fresh(Full, "k"));
        assert_eq!((count(&c, RtcKind), count(&c, Full)), (2, 0));
        insert_costed(&c, Full, "j", 0, 90_000_000);
        assert_eq!((count(&c, RtcKind), count(&c, Full)), (1, 1));
    }

    #[test]
    fn pinned_epochs_survive_eviction() {
        for_all_kinds(|kind| {
            let c = Arc::new(SharedCache::with_budget(CacheBudget {
                max_entries: Some(1),
                ..Default::default()
            }));
            insert_costed(&c, kind, "a", 0, 100);
            let pin = EpochPin::new(Arc::clone(&c), 0);
            assert_eq!(pin.epoch(), 0);
            assert!(c.is_pinned(0));
            assert_eq!(c.pinned_occupancy_bytes(), c.occupancy_bytes());
            c.advance_epoch(1);
            // Over budget, but only the unpinned newcomer is evictable — the
            // pinned epoch-0 entry keeps serving its view.
            insert_costed(&c, kind, "b", 1, 1_000_000);
            assert_eq!(c.occupancy_entries(), 1);
            assert!(matches!(c.lookup(kind, "a", 0), Lookup::Fresh(_)));
            // Dropping the pin makes epoch 0 evictable again.
            drop(pin);
            assert!(!c.is_pinned(0));
            insert_costed(&c, kind, "b", 1, 1_000_000);
            assert_eq!(c.occupancy_entries(), 1);
            assert!(matches!(c.lookup(kind, "a", 0), Lookup::Miss));
            assert!(c.contains_fresh(kind, "b"));
        });
    }

    /// `retain_epochs` drops exactly the entries whose epoch fails the
    /// predicate — and, unlike a budget eviction, leaves no trace in the
    /// rebuild-after-evict set: nobody can ask for a dropped epoch again.
    #[test]
    fn retain_epochs_drops_exactly_the_unreachable() {
        for_all_kinds(|kind| {
            let unit = unit_bytes(kind, "0@q");
            // Bounded (but roomy), so `note_miss` does consult the set.
            let c = SharedCache::with_budget(CacheBudget {
                max_entries: Some(16),
                ..Default::default()
            });
            for epoch in 0..4 {
                insert_costed(&c, kind, &format!("{epoch}@q"), epoch, 100);
            }
            c.advance_epoch(3);
            c.retain_epochs(|e| e == 1 || e == 3);
            assert_eq!((c.occupancy_entries(), c.occupancy_bytes()), (2, 2 * unit));
            assert_eq!(count(&c, kind), 2);
            let ev = c.eviction_counters();
            assert_eq!((ev.by_unreachable, ev.total()), (2, 2));
            for epoch in [1, 3] {
                let key = format!("{epoch}@q");
                assert!(matches!(c.lookup(kind, &key, epoch), Lookup::Fresh(_)));
            }
            for epoch in [0, 2] {
                let key = format!("{epoch}@q");
                assert!(matches!(c.lookup(kind, &key, epoch), Lookup::Miss));
            }
            assert_eq!(c.eviction_counters().rebuilds_after_evict, 0);
        });
    }

    /// The result tier's traffic: a Zipf(1.0) stream over 400 equal-cost
    /// keys through 64 slots. Equal costs put every entry in one score
    /// class, so the victim is the least-recently-hit one — which must
    /// beat evicting in insertion order (FIFO) on the same stream.
    #[test]
    fn recency_beats_fifo_on_a_zipf_result_stream() {
        const KEYS: usize = 400;
        const SLOTS: usize = 64;
        const DRAWS: usize = 20_000;
        // Cumulative Zipf(1.0) weights and a fixed LCG: fully deterministic.
        let mut cumulative = Vec::with_capacity(KEYS);
        let mut total = 0.0f64;
        for rank in 1..=KEYS {
            total += 1.0 / rank as f64;
            cumulative.push(total);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
            cumulative.partition_point(|&c| c <= u).min(KEYS - 1)
        };

        let cache = SharedCache::with_budget(CacheBudget {
            max_entries: Some(SLOTS),
            ..Default::default()
        });
        let mut fifo = std::collections::VecDeque::with_capacity(SLOTS + 1);
        let mut fifo_hits = 0u64;
        for _ in 0..DRAWS {
            let k = draw();
            let key = format!("0@q{k}");
            if !hit(&cache, ResultKind, &key) {
                insert_costed(&cache, ResultKind, &key, 0, 5_000);
            }
            if fifo.contains(&k) {
                fifo_hits += 1;
            } else {
                fifo.push_back(k);
                if fifo.len() > SLOTS {
                    fifo.pop_front();
                }
            }
        }
        assert_eq!(cache.occupancy_entries(), SLOTS);
        assert_eq!(cache.hits() + cache.misses(), DRAWS as u64);
        assert!(
            cache.hits() > fifo_hits,
            "recency {} hits vs FIFO {fifo_hits}",
            cache.hits()
        );
    }

    /// A result instance beside a structural one is one account: its
    /// checks count both tiers, it only ever evicts its own entries, and a
    /// structure never yields to a result — however cheap the structure.
    #[test]
    fn results_beside_structures_are_one_account() {
        let structures = Arc::new(SharedCache::with_budget(CacheBudget {
            max_entries: Some(3),
            ..Default::default()
        }));
        let results = SharedCache::beside(Arc::clone(&structures));
        assert_eq!(results.budget(), structures.budget());
        insert_costed(&results, ResultKind, "0@r1", 0, 5_000);
        insert_costed(&results, ResultKind, "0@r2", 0, 5_000);
        // The cheapest entries of all, and unpinned.
        insert_costed(&structures, RtcKind, "s1", 0, 1);
        insert_costed(&structures, RtcKind, "s2", 0, 1);
        // The structural instance is within budget on its own…
        let tiers = || (structures.occupancy_entries(), results.occupancy_entries());
        assert_eq!(tiers(), (2, 2));
        // …and the result side settles the account from its own entries.
        results.enforce_budget();
        assert_eq!(tiers(), (2, 1));
        assert!(!results.contains_fresh(ResultKind, "0@r1"));
        insert_costed(&results, ResultKind, "0@r3", 0, 90_000_000);
        assert_eq!(tiers(), (2, 1));
        assert!(results.contains_fresh(ResultKind, "0@r3"));
        // Structures filling the budget leave results nothing, even one
        // that just arrived: it is evicted by its own insert.
        insert_costed(&structures, RtcKind, "s3", 0, 1);
        results.enforce_budget();
        insert_costed(&results, ResultKind, "0@r4", 0, 90_000_000);
        assert_eq!(tiers(), (3, 0));
        assert_eq!(structures.eviction_counters().total(), 0);
        assert_eq!(results.eviction_counters().by_entries, 4);
    }

    /// No entry is free: an empty result still charges its key and map
    /// slot, so a stream of distinct empty results under a byte budget
    /// stays within it, and the oldest of them go first even though their
    /// cost per byte is the highest in the cache.
    #[test]
    fn empty_results_are_charged_and_evicted() {
        let budget = 64 << 10;
        let results = SharedCache::beside(Arc::new(SharedCache::with_budget(CacheBudget {
            max_bytes: Some(budget),
            ..Default::default()
        })));
        let empty = || Shared::Result(Arc::new(PairSet::new()));
        let build = Duration::from_micros(10);
        for i in 0..10_000 {
            results.insert(format!("0@q{i}"), empty(), None, 0, build);
            assert!(results.occupancy_bytes() <= budget);
        }
        let held = results.occupancy_entries();
        assert!(held > 0 && held <= budget / SLOT_BYTES, "{held} entries");
        let evicted = results.eviction_counters().by_bytes;
        assert_eq!(evicted as usize, 10_000 - held);
        assert!(!results.contains_fresh(ResultKind, "0@q0"));
        assert!(results.contains_fresh(ResultKind, "0@q9999"));
    }

    /// The engine settles the account inside the call that broke it: a
    /// query whose new structure pushes structures + results over the byte
    /// budget returns with results trimmed and the structure resident. With
    /// each tier enforcing only its own occupancy, the sum could reach
    /// twice the budget.
    #[test]
    fn a_structure_over_the_budget_is_settled_by_the_next_enter() {
        use crate::{Engine, EngineConfig};
        use rpq_graph::fixtures::paper_graph;
        // Closure-free queries memoize results and build no structure.
        const PLAIN: [&str; 6] = ["a", "b", "c", "d", "a.b", "b.c"];
        let g = paper_graph();
        let engine_with = |cache_budget| {
            let config = EngineConfig {
                cache_budget,
                ..EngineConfig::default()
            };
            Engine::with_config(&g, config)
        };
        let fill = |engine: &Engine| {
            let view = engine.pin();
            for q in PLAIN {
                view.evaluate_str(q).unwrap();
            }
            engine.evaluate_str("(b.c)+").unwrap();
            (
                engine.cache().occupancy_bytes(),
                engine.results().occupancy_bytes(),
            )
        };
        let (structure, results) = fill(&engine_with(CacheBudget::default()));
        assert!(structure > 0 && results > 0);
        // Room for either tier alone, not for both.
        let budget = structure + results - 1;
        let engine = engine_with(CacheBudget {
            max_bytes: Some(budget),
            ..Default::default()
        });
        let (held_structure, held_results) = fill(&engine);
        assert_eq!(held_structure, structure);
        assert!(held_structure + held_results <= budget);
        assert!(engine.cache().contains_fresh(SharingKind::Rtc, "b.c"));
        assert_eq!(engine.cache().eviction_counters().total(), 0);
        assert!(engine.results().eviction_counters().by_bytes > 0);
    }
}
