//! Generic concurrent memoization, shared by every layer that caches
//! optimization results.
//!
//! [`MemoCache`] lives in this bottom-of-the-stack crate so that both the
//! searching baseline (`fusecu-search`, which depends on `fusecu-fusion`)
//! and the fusion planner (`fusecu-fusion`) can memoize without a
//! dependency cycle. `fusecu_search::cache` re-exports these types.
//!
//! Beyond in-process memoization, [`MemoCache::snapshot`] and
//! [`MemoCache::preload`] expose the completed entries for the disk
//! persistence layer ([`crate::persist`]): a figure binary snapshots its
//! caches on exit and preloads them on the next launch, so repeated
//! *processes* — not just repeated points within one process — skip
//! recomputation.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hit/miss counters of a cache, taken at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (including waits on a concurrent
    /// computation of the same key).
    pub hits: u64,
    /// Lookups that ran the underlying computation.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter-wise difference, for measuring one phase of a run.
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }

    /// Counter-wise sum, for aggregating several caches into one summary.
    pub fn plus(&self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate)",
            self.hits,
            self.misses,
            100.0 * self.hit_rate()
        )
    }
}

/// One named cache's counters at one instant, for machine-readable stats
/// (`--stats-json`, the serve daemon's `stats` verb): lifetime hit/miss
/// counters, the current entry count, and lifetime evictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionCounters {
    /// The cache section's name (e.g. `"principle"`, `"operators"`).
    pub name: &'static str,
    /// Lifetime hit/miss counters.
    pub stats: CacheStats,
    /// Entries currently cached.
    pub entries: usize,
    /// Lifetime entries dropped by [`MemoCache::evict_all`].
    pub evictions: u64,
}

impl SectionCounters {
    /// One JSON object (no trailing newline) for this section, e.g.
    /// `{"hits":3,"misses":1,"entries":4,"evictions":0}`.
    pub fn json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"entries\":{},\"evictions\":{}}}",
            self.stats.hits, self.stats.misses, self.entries, self.evictions
        )
    }
}

/// Number of independently locked shards; a small power of two is plenty
/// for the worker counts `std::thread::scope` sweeps run with.
const SHARDS: usize = 16;

/// A sharded, thread-safe memoization map.
///
/// Each key owns a [`OnceLock`] cell, so concurrent lookups of the same
/// key serialize on that cell alone: exactly one caller computes, the rest
/// block and then read — the shard lock is never held during computation.
/// Values are cloned out, so `V` should be cheap to clone (the dataflow
/// results cached here are `Copy` or small `Vec`s).
pub struct MemoCache<K, V> {
    shards: Vec<Mutex<HashMap<K, Arc<OnceLock<V>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> MemoCache<K, V> {
    /// An empty cache.
    pub fn new() -> MemoCache<K, V> {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The shard of `key`. A borrowed form of a key hashes as the key
    /// does (the [`Borrow`] contract), so it finds the same shard.
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<HashMap<K, Arc<OnceLock<V>>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the cached value for `key`, computing it with `f` on a miss.
    ///
    /// A key being computed by another thread counts as a hit: the caller
    /// waits for that computation instead of duplicating it.
    pub fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> V {
        let cell = {
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            Arc::clone(shard.entry(key).or_default())
        };
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                f()
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Reads the cached value for `key` through `read` and counts a hit,
    /// or returns `None` and counts nothing when no value is there yet
    /// (absent, or still being computed by another thread). The miss is
    /// left to the [`MemoCache::get_or_compute`] that follows, so a `get`
    /// then `get_or_compute` pair counts exactly what `get_or_compute`
    /// alone would. `read` runs without the shard lock held. `key` may be
    /// any borrowed form of `K`, as in [`HashMap::get`], so a lookup need
    /// not build an owned key.
    pub fn get<Q, R>(&self, key: &Q, read: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let cell = {
            let shard = self.shard(key).lock().expect("cache shard poisoned");
            Arc::clone(shard.get(key)?)
        };
        let value = cell.get()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(read(value))
    }

    /// Stores `value`, computed by the caller after a [`MemoCache::get`]
    /// found nothing, under `key` and counts the miss. Returns `false`, with
    /// nothing stored or counted, when `key` already has a value or one is
    /// being computed.
    pub fn insert(&self, key: K, value: V) -> bool {
        let cell = {
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            Arc::clone(shard.entry(key).or_default())
        };
        let inserted = cell.set(value).is_ok();
        if inserted {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Drops all entries while *keeping* the hit/miss counters, recording
    /// the removed entries as evictions. This is the long-running daemon's
    /// memory-cap escape hatch ([`MemoCache::evictions`] feeds the
    /// per-section cache stats): unlike [`MemoCache::clear`], the
    /// lifetime counters keep accumulating across the eviction. Returns
    /// the number of entries evicted.
    pub fn evict_all(&self) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut guard = shard.lock().expect("cache shard poisoned");
            evicted += guard.len();
            guard.clear();
        }
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Lifetime count of entries dropped by [`MemoCache::evict_all`]
    /// (reset only by [`MemoCache::clear`]).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// This cache's [`SectionCounters`] under `name`.
    pub fn counters(&self, name: &'static str) -> SectionCounters {
        SectionCounters {
            name,
            stats: self.stats(),
            entries: self.len(),
            evictions: self.evictions(),
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Every completed `(key, value)` entry, for the disk persistence
    /// layer. Cells still being computed by another thread are skipped;
    /// iteration order is unspecified (persistence sorts its own records).
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock().expect("cache shard poisoned");
            for (key, cell) in guard.iter() {
                if let Some(value) = cell.get() {
                    out.push((key.clone(), value.clone()));
                }
            }
        }
        out
    }

    /// Inserts pre-computed entries (a disk snapshot from an earlier
    /// process) without touching the hit/miss counters. Keys already
    /// present keep their existing value. Returns the number of entries
    /// actually inserted.
    pub fn preload(&self, entries: impl IntoIterator<Item = (K, V)>) -> usize {
        let mut inserted = 0;
        for (key, value) in entries {
            let cell = {
                let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
                Arc::clone(shard.entry(key).or_default())
            };
            if cell.set(value).is_ok() {
                inserted += 1;
            }
        }
        inserted
    }
}

impl<K, V> fmt::Debug for MemoCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoCache")
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("evictions", &self.evictions)
            .finish_non_exhaustive()
    }
}

impl<K: Eq + Hash, V: Clone> Default for MemoCache<K, V> {
    fn default() -> MemoCache<K, V> {
        MemoCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn memo_computes_once_and_counts() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            let v = cache.get_or_compute(7, || {
                calls.fetch_add(1, Ordering::Relaxed);
                49
            });
            assert_eq!(v, 49);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().lookups(), 0);
    }

    #[test]
    fn get_counts_hits_and_leaves_misses_to_get_or_compute() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        assert_eq!(cache.get(&7, |v| *v), None);
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.get_or_compute(7, || 49), 49);
        assert_eq!(cache.get(&7, |v| v + 1), Some(50));
        assert_eq!(cache.get(&8, |v| *v), None);
        // The same counts as `get_or_compute` twice on 7 and not yet on 8.
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn get_by_borrowed_key_counts_as_get_by_owned_key() {
        let keys = ["ping", "score 8 8 8 mkl 1 1 1 rw", ""];
        let owned: MemoCache<Box<str>, usize> = MemoCache::new();
        let borrowed: MemoCache<Box<str>, usize> = MemoCache::new();
        for cache in [&owned, &borrowed] {
            for (i, key) in keys.iter().enumerate() {
                cache.get_or_compute(Box::from(*key), || i);
            }
        }
        for (want, key) in [Some(0), Some(1), Some(2), None, None]
            .into_iter()
            .zip(keys.into_iter().chain(["pong", "score"]))
        {
            assert_eq!(owned.get(&Box::<str>::from(key), |v| *v), want, "{key:?}");
            assert_eq!(borrowed.get(key, |v| *v), want, "{key:?}");
        }
        // Three hits each; a lookup that finds nothing counts nothing.
        assert_eq!(owned.stats(), CacheStats { hits: 3, misses: 3 });
        assert_eq!(borrowed.stats(), owned.stats());
    }

    #[test]
    fn insert_counts_a_miss_once_per_key() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        assert_eq!(cache.get(&3, |v| *v), None);
        assert!(cache.insert(3, 9));
        assert!(!cache.insert(3, 10), "a stored value is kept");
        assert_eq!(cache.get(&3, |v| *v), Some(9));
        assert_eq!(cache.get_or_compute(3, || unreachable!()), 9);
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache.get_or_compute(42, || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        1
                    })
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1, "raced key computed twice");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn snapshot_and_preload_round_trip() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        for k in 0..40u64 {
            cache.get_or_compute(k, || k * k);
        }
        let mut snap = cache.snapshot();
        snap.sort_unstable();
        assert_eq!(snap.len(), 40);
        assert_eq!(snap[7], (7, 49));

        let warm: MemoCache<u64, u64> = MemoCache::new();
        assert_eq!(warm.preload(snap.clone()), 40);
        assert_eq!(warm.len(), 40);
        // Preloading does not perturb the counters...
        assert_eq!(warm.stats(), CacheStats::default());
        // ...and every preloaded key is now a hit, never recomputed.
        for k in 0..40u64 {
            let v = warm.get_or_compute(k, || unreachable!("preloaded key recomputed"));
            assert_eq!(v, k * k);
        }
        assert_eq!(warm.stats(), CacheStats { hits: 40, misses: 0 });
        // Re-preloading the same entries is a no-op.
        assert_eq!(warm.preload(snap), 0);
    }

    #[test]
    fn preload_does_not_overwrite_existing_values() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        cache.get_or_compute(1, || 10);
        assert_eq!(cache.preload([(1, 99)]), 0);
        assert_eq!(cache.get_or_compute(1, || 99), 10);
    }

    #[test]
    fn evict_all_keeps_counters_and_counts_evictions() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        for k in 0..5u64 {
            cache.get_or_compute(k, || k + 1);
        }
        cache.get_or_compute(0, || unreachable!());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 5 });
        assert_eq!(cache.evict_all(), 5);
        assert!(cache.is_empty());
        // Hit/miss history survives the eviction; the drop is counted.
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 5 });
        assert_eq!(cache.evictions(), 5);
        // An evicted key recomputes (a miss), it does not resurrect.
        assert_eq!(cache.get_or_compute(0, || 77), 77);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 6 });
        let c = cache.counters("unit");
        assert_eq!((c.name, c.entries, c.evictions), ("unit", 1, 5));
        assert_eq!(c.json(), "{\"hits\":1,\"misses\":6,\"entries\":1,\"evictions\":5}");
        // `clear` resets everything, including the eviction counter.
        cache.clear();
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn stats_arithmetic() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert_eq!(s.to_string(), "3 hits / 1 misses (75.0% hit rate)");
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let t = CacheStats { hits: 2, misses: 2 };
        assert_eq!(s.plus(t), CacheStats { hits: 5, misses: 3 });
        assert_eq!(s.plus(t).since(t), s);
    }
}
