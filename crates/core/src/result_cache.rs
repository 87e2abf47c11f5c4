//! The bounded per-(epoch, query) result cache layered **above** the
//! structural [`crate::SharedCache`].
//!
//! The structural cache shares closure *ingredients* (RTCs, full
//! closures) across queries; this cache memoizes whole materialized
//! result sets. That is only sound when the graph the result was computed
//! against can never change underneath the entry — which is exactly what
//! an [`crate::EpochView`] guarantees, so the key is `(epoch, canonical
//! query text)` and the serving layer's pinned readers are the only
//! writers. Results are identical across strategies and thread counts
//! (property-tested), so the key deliberately omits the evaluation
//! configuration: a result computed by one connection's overlay is a hit
//! for every other connection pinned to the same epoch.
//!
//! The cache is bounded — by entry count ([`ResultCache::capacity`])
//! and optionally by heap bytes — because materialized results can dwarf
//! the structures they were computed from, and epochs keep coming.
//! Eviction uses the same cost-aware scoring as the structural cache
//! (see [`crate::CacheBudget`]): the entry with the lowest
//! `cost_to_rebuild / bytes` goes first, oldest-inserted among ties — so
//! uncosted entries of equal size degrade to exactly the old FIFO
//! behavior, and re-inserting an existing key never extends its
//! eviction lifetime. Counters distinguish the serving
//! layer's hit tiers: a **view hit** here short-circuits the whole
//! evaluation; a miss falls through to the structural cache (whose own
//! hit/miss counters make up the second tier).

use crate::cache::score;
use rpq_graph::PairSet;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Default bound on memoized results (see [`ResultCache::with_capacity`]).
pub const DEFAULT_RESULT_CACHE_ENTRIES: usize = 256;

/// One memoized result with its retention metadata.
struct Entry {
    result: Arc<PairSet>,
    /// Heap bytes of the materialized result.
    bytes: usize,
    /// Nanos the evaluation took — the cost a future miss pays again.
    build_nanos: u64,
    /// Insertion sequence — the tie-break among equal scores; preserved
    /// on re-insert so replacing a value never extends the entry's
    /// eviction lifetime.
    seq: u64,
}

/// The lock-protected interior.
#[derive(Default)]
struct Inner {
    map: FxHashMap<(u64, String), Entry>,
    /// Retained result bytes (maintained incrementally).
    bytes: usize,
    /// Next insertion sequence number.
    seq: u64,
}

/// Bounded map from `(epoch, canonical query)` to a materialized result.
///
/// All methods take `&self` (one mutex around the map, atomic counters):
/// concurrent pinned readers look up and fill one cache. Entries are
/// `Arc`-shared, so a hit costs one reference bump however large the
/// result set is.
pub struct ResultCache {
    capacity: usize,
    /// Optional heap-byte bound on retained results (the result-cache
    /// half of [`crate::CacheBudget::max_bytes`]).
    max_bytes: Option<usize>,
    inner: Mutex<Inner>,
    view_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// An empty cache with the default capacity
    /// ([`DEFAULT_RESULT_CACHE_ENTRIES`]) and no byte bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RESULT_CACHE_ENTRIES)
    }

    /// An empty cache bounded to `capacity` entries (0 disables
    /// memoization: every insert is immediately evicted).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_budget(capacity, None)
    }

    /// [`ResultCache::with_capacity`] with an additional heap-byte bound
    /// on retained results.
    pub fn with_capacity_and_budget(capacity: usize, max_bytes: Option<usize>) -> Self {
        Self {
            capacity,
            max_bytes,
            inner: Mutex::new(Inner::default()),
            view_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized result under `key` — `(epoch, canonical query)` —
    /// counting a view hit or a miss. The key is borrowed so a caller
    /// builds it once, outside the lock, for both the probe and the
    /// insert that follows a miss.
    pub fn get(&self, key: &(u64, String)) -> Option<Arc<PairSet>> {
        let hit = self
            .lock()
            .map
            .get(key)
            .map(|entry| Arc::clone(&entry.result));
        match &hit {
            Some(_) => self.view_hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Memoizes `result` under `key`, recording `build` — the wall clock
    /// the evaluation took — as its cost-to-rebuild (`Duration::ZERO`
    /// scores cheapest; uncosted entries of equal size evict in insertion
    /// order), then evicts lowest-score entries past the capacity and
    /// byte bounds. Re-inserting an existing key replaces the value
    /// without extending its eviction lifetime.
    pub fn insert_costed(&self, key: (u64, String), result: Arc<PairSet>, build: Duration) {
        let bytes = result.heap_bytes();
        let mut inner = self.lock();
        let seq = match inner.map.get(&key) {
            // Keep the original insertion point: replacement must not
            // push the entry back in the eviction order.
            Some(existing) => existing.seq,
            None => {
                inner.seq += 1;
                inner.seq
            }
        };
        let entry = Entry {
            result,
            bytes,
            build_nanos: build.as_nanos() as u64,
            seq,
        };
        inner.bytes += bytes;
        if let Some(old) = inner.map.insert(key, entry) {
            inner.bytes -= old.bytes;
        }
        let mut evicted = 0u64;
        while inner.map.len() > self.capacity || self.max_bytes.is_some_and(|b| inner.bytes > b) {
            let victim = inner
                .map
                .iter()
                .min_by(|(ka, a), (kb, b)| {
                    // The shared score, raw (not bucketed): ties fall to
                    // the insertion sequence here, not to recency.
                    (score(a.build_nanos, a.bytes), a.seq, ka)
                        .partial_cmp(&(score(b.build_nanos, b.bytes), b.seq, kb))
                        .expect("scores are finite")
                })
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                break;
            };
            let old = inner.map.remove(&victim).expect("victim present");
            inner.bytes -= old.bytes;
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Number of memoized results currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether no results are memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry-count eviction bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The heap-byte eviction bound, if one is set.
    pub fn max_bytes(&self) -> Option<usize> {
        self.max_bytes
    }

    /// Retained heap bytes across every memoized result.
    pub fn occupancy_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Lookups answered from a memoized result since the last reset.
    pub fn view_hits(&self) -> u64 {
        self.view_hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to evaluation since the last reset.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Results evicted past the capacity/byte bounds since the last reset.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Resets the hit/miss/eviction counters, preserving memoized results
    /// — the result-cache half of `Engine::reset_metrics`.
    pub fn reset_counters(&self) {
        self.view_hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drops every memoized result and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
        drop(inner);
        self.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(n: u32) -> Arc<PairSet> {
        Arc::new((0..n).map(|i| (i, i + 1)).collect())
    }

    fn key(epoch: u64, query: &str) -> (u64, String) {
        (epoch, query.to_owned())
    }

    /// An uncosted insert at epoch 0.
    fn insert(c: &ResultCache, query: &str, result: Arc<PairSet>) {
        c.insert_costed(key(0, query), result, Duration::ZERO);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = ResultCache::new();
        assert!(c.get(&key(0, "q")).is_none());
        assert_eq!((c.view_hits(), c.misses()), (0, 1));
        insert(&c, "q", pairs(3));
        let hit = c.get(&key(0, "q")).unwrap();
        assert_eq!(hit.len(), 3);
        assert_eq!((c.view_hits(), c.misses()), (1, 1));
        // Same query at another epoch is a different entry.
        assert!(c.get(&key(1, "q")).is_none());
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let c = ResultCache::with_capacity(2);
        insert(&c, "a", pairs(1));
        insert(&c, "b", pairs(1));
        insert(&c, "c", pairs(1));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(0, "a")).is_none(), "oldest entry evicted");
        assert!(c.get(&key(0, "b")).is_some());
        assert!(c.get(&key(0, "c")).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinsert_replaces_without_duplicating_order() {
        let c = ResultCache::with_capacity(2);
        insert(&c, "a", pairs(1));
        insert(&c, "a", pairs(5));
        insert(&c, "b", pairs(1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(0, "a")).unwrap().len(), 5);
        // A third key still only evicts one entry ("a", the oldest).
        insert(&c, "c", pairs(1));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(0, "a")).is_none());
    }

    #[test]
    fn reset_counters_preserves_entries() {
        let c = ResultCache::new();
        insert(&c, "q", pairs(2));
        let _ = c.get(&key(0, "q"));
        let _ = c.get(&key(0, "other"));
        c.reset_counters();
        assert_eq!((c.view_hits(), c.misses()), (0, 0));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let c = ResultCache::with_capacity(0);
        insert(&c, "q", pairs(1));
        assert_eq!(c.len(), 0);
        assert!(c.get(&key(0, "q")).is_none());
    }

    #[test]
    fn costly_results_outlive_cheap_ones() {
        let c = ResultCache::with_capacity(2);
        c.insert_costed(key(0, "slow"), pairs(1), Duration::from_millis(50));
        c.insert_costed(key(0, "fast"), pairs(1), Duration::from_micros(10));
        c.insert_costed(key(0, "medium"), pairs(1), Duration::from_millis(5));
        assert_eq!(c.len(), 2);
        // Equal sizes: the cheapest-to-rebuild result goes, not the oldest.
        assert!(c.get(&key(0, "fast")).is_none());
        assert!(c.get(&key(0, "slow")).is_some());
        assert!(c.get(&key(0, "medium")).is_some());
    }

    #[test]
    fn byte_budget_bounds_retained_results() {
        let unit = pairs(8).heap_bytes();
        let c = ResultCache::with_capacity_and_budget(1024, Some(2 * unit));
        c.insert_costed(key(0, "a"), pairs(8), Duration::from_millis(9));
        c.insert_costed(key(0, "b"), pairs(8), Duration::from_millis(1));
        assert_eq!(c.occupancy_bytes(), 2 * unit);
        c.insert_costed(key(0, "c"), pairs(8), Duration::from_millis(5));
        assert!(c.occupancy_bytes() <= 2 * unit);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(0, "b")).is_none(), "lowest score evicted");
        assert_eq!(c.evictions(), 1);
    }
}
