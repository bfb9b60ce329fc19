//! A sharded, concurrent, content-addressed memo map with a bounded
//! segmented-LRU replacement policy and in-flight request coalescing.
//!
//! The pipeline cache that backs the `.fv` front end memoizes
//! parse → analyze → vectorize → bytecode-compile results keyed by a
//! stable AST hash (see [`crate::program_hash`]). This module provides
//! the generic storage layer: a fixed number of independently locked
//! shards, values shared out behind `Arc`, and exact hit/miss counters
//! so drivers can report cache effectiveness.
//!
//! Two compute disciplines are offered:
//!
//! * [`ShardedCache::get_or_try_insert`] runs the compute closure while
//!   the key's shard is locked: a batch that submits the same kernel
//!   from many threads compiles it exactly once, and everyone else
//!   blocks only on that shard (keys hashing to the other shards
//!   proceed in parallel). This is the right discipline for short
//!   computations.
//! * [`ShardedCache::get_or_insert_coalesced`] runs the compute closure
//!   with **no shard lock held**: the key is registered in an in-flight
//!   table, concurrent submitters of the *same* key park on a condvar
//!   until the one compilation finishes, and submitters of *different*
//!   keys — even ones landing on the same shard — proceed unblocked.
//!   This is the discipline a resident server wants: one slow compile
//!   must not stall unrelated traffic.
//!
//! **Bounding.** A cache built with [`ShardedCache::with_capacity`]
//! evicts under a segmented-LRU policy: new entries enter a probation
//! segment; a hit promotes the entry to a protected segment (bounded to
//! ~80% of the shard); eviction removes the least-recently-used
//! probation entry first, so one burst of distinct keys cannot flush
//! the hot working set. Capacity is enforced per shard
//! (`ceil(capacity / SHARDS)`, minimum 1), so the total resident count
//! is bounded by `SHARDS * ceil(capacity / SHARDS)`. Evictions are
//! counted in [`CacheStats::evictions`].
//!
//! Counters live *inside* each shard, guarded by the same mutex as the
//! map. An earlier revision kept struct-level atomics bumped with
//! relaxed ordering next to the locked lookup; a concurrent
//! [`ShardedCache::stats`] could then observe a map update whose counter
//! increment had not landed yet (or the reverse), so parallel drivers
//! reported hit rates that did not add up to the number of lookups.
//! With the counters under the lock, `hits + misses` equals the exact
//! number of counted lookups at every quiescent point, and each shard's
//! snapshot is internally consistent even mid-run.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};

/// Shard count — a power of two so the selector is a mask. 16 shards
/// keep contention negligible for the batch sizes the drivers see
/// (dozens to hundreds of kernels) without bloating the struct.
const SHARDS: usize = 16;

/// Fraction of a shard's capacity reserved for the protected segment
/// (numerator / denominator): hits promote entries here, and one scan
/// of cold keys can only churn the remaining probation fraction.
const PROTECTED_NUM: usize = 4;
const PROTECTED_DEN: usize = 5;

/// Snapshot of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that had to compute (and insert) the value.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Entries evicted by the segmented-LRU bound (0 for unbounded
    /// caches).
    pub evictions: u64,
    /// Lookups that parked behind an in-flight computation of the same
    /// key instead of starting their own
    /// (see [`ShardedCache::get_or_insert_coalesced`]).
    pub coalesced: u64,
    /// Entries currently pinned (evict-exempt; see
    /// [`ShardedCache::pin`]).
    pub pinned: u64,
}

impl CacheStats {
    /// Hits over total lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Which segmented-LRU segment an entry currently lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seg {
    Probation,
    Protected,
    /// Outside the order books entirely: never an eviction victim and
    /// never aged. Used for a kernel's *active* plan variant, which
    /// must not be flushed by a burst of distinct keys while its stale
    /// sibling variants stay ordinarily evictable.
    Pinned,
}

#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    seg: Seg,
    /// Recency stamp; the key's position in its segment's LRU order.
    stamp: u64,
}

/// One lock domain: the entry map, the LRU order books, and the
/// counters for lookups that landed on it. Guarded together so a
/// snapshot can never tear.
#[derive(Debug)]
struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    /// `stamp → key`, ascending stamp = least recently used first.
    probation: BTreeMap<u64, u64>,
    protected: BTreeMap<u64, u64>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            probation: BTreeMap::new(),
            protected: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<V> Shard<V> {
    /// Records a hit on `key`: promotes probation entries to the
    /// protected segment and refreshes recency, demoting the protected
    /// LRU back to probation when the segment outgrows its share of
    /// `cap`.
    fn touch(&mut self, key: u64, cap: Option<usize>) {
        let entry = self.map.get_mut(&key).expect("touched key is resident");
        match entry.seg {
            Seg::Probation => {
                self.probation.remove(&entry.stamp);
            }
            Seg::Protected => {
                self.protected.remove(&entry.stamp);
            }
            // Pinned entries live outside the order books; a hit needs
            // no recency bookkeeping.
            Seg::Pinned => return,
        }
        self.clock += 1;
        entry.seg = Seg::Protected;
        entry.stamp = self.clock;
        self.protected.insert(entry.stamp, key);

        if let Some(cap) = cap {
            let protected_cap = (cap * PROTECTED_NUM / PROTECTED_DEN).max(1);
            while self.protected.len() > protected_cap {
                let (&stamp, &victim) = self.protected.iter().next().expect("nonempty");
                self.protected.remove(&stamp);
                let e = self.map.get_mut(&victim).expect("LRU key is resident");
                e.seg = Seg::Probation;
                self.probation.insert(e.stamp, victim);
            }
        }
    }

    /// Inserts `key` into the probation segment, evicting down to `cap`
    /// (probation LRU first, protected LRU only when probation is
    /// empty).
    fn insert(&mut self, key: u64, value: Arc<V>, cap: Option<usize>) {
        self.clock += 1;
        let stamp = self.clock;
        let mut seg = Seg::Probation;
        if let Some(old) = self.map.get(&key) {
            // Same key re-inserted (a coalesced race, or a refreshed
            // plan variant): drop the stale order-book entry and keep a
            // pinned key pinned.
            match old.seg {
                Seg::Probation => {
                    self.probation.remove(&old.stamp);
                }
                Seg::Protected => {
                    self.protected.remove(&old.stamp);
                }
                Seg::Pinned => seg = Seg::Pinned,
            }
        }
        self.map.insert(key, Entry { value, seg, stamp });
        if seg == Seg::Probation {
            self.probation.insert(stamp, key);
        }
        if let Some(cap) = cap {
            while self.map.len() > cap {
                let victim = if let Some((&s, &k)) = self.probation.iter().next() {
                    self.probation.remove(&s);
                    k
                } else if let Some((&s, &k)) = self.protected.iter().next() {
                    self.protected.remove(&s);
                    k
                } else {
                    // Every resident entry is pinned: tolerate the
                    // over-capacity rather than evict an active plan.
                    break;
                };
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
    }

    /// Moves `key` to the pinned segment (no-op if absent or already
    /// pinned). Returns whether the key was resident.
    fn pin(&mut self, key: u64) -> bool {
        let Some(entry) = self.map.get_mut(&key) else {
            return false;
        };
        match entry.seg {
            Seg::Probation => {
                self.probation.remove(&entry.stamp);
            }
            Seg::Protected => {
                self.protected.remove(&entry.stamp);
            }
            Seg::Pinned => return true,
        }
        entry.seg = Seg::Pinned;
        true
    }

    /// Returns a pinned `key` to the probation segment as the most
    /// recently used entry (no-op if absent or not pinned). Returns
    /// whether the key was resident.
    fn unpin(&mut self, key: u64) -> bool {
        self.clock += 1;
        let stamp = self.clock;
        let Some(entry) = self.map.get_mut(&key) else {
            return false;
        };
        if entry.seg != Seg::Pinned {
            return true;
        }
        entry.seg = Seg::Probation;
        entry.stamp = stamp;
        self.probation.insert(stamp, key);
        true
    }
}

/// The in-flight table for coalesced computes: keys currently being
/// computed by some thread. Waiters park on the condvar; the `u64`
/// counts park events (exact, under the same lock).
#[derive(Debug, Default)]
struct Inflight {
    keys: HashMap<u64, ()>,
    coalesced: u64,
}

/// A concurrent `u64 → Arc<V>` map sharded across `SHARDS` mutexes,
/// optionally bounded by a segmented-LRU policy.
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard entry bound (`None` = unbounded).
    shard_cap: Option<usize>,
    inflight: Mutex<Inflight>,
    inflight_cv: Condvar,
}

impl<V> Default for ShardedCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Removes `key` from the in-flight table and wakes waiters, even if
/// the compute closure panicked (otherwise coalesced waiters of a
/// panicking compute would park forever).
struct InflightGuard<'a, V> {
    cache: &'a ShardedCache<V>,
    key: u64,
}

impl<V> Drop for InflightGuard<'_, V> {
    fn drop(&mut self) {
        let mut inflight = self.cache.inflight.lock().expect("inflight table");
        inflight.keys.remove(&self.key);
        self.cache.inflight_cv.notify_all();
    }
}

impl<V> ShardedCache<V> {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        ShardedCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: None,
            inflight: Mutex::new(Inflight::default()),
            inflight_cv: Condvar::new(),
        }
    }

    /// Creates an empty cache bounded to roughly `capacity` entries
    /// with segmented-LRU eviction. The bound is enforced per shard
    /// (`ceil(capacity / SHARDS)`, minimum 1), so the resident total
    /// never exceeds `SHARDS * ceil(capacity / SHARDS)`.
    pub fn with_capacity(capacity: usize) -> Self {
        ShardedCache {
            shard_cap: Some(capacity.div_ceil(SHARDS).max(1)),
            ..Self::new()
        }
    }

    /// The configured total capacity bound, if any (the per-shard bound
    /// times the shard count).
    pub fn capacity(&self) -> Option<usize> {
        self.shard_cap.map(|c| c * SHARDS)
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        // The low bits of an FNV hash are well mixed.
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Looks `key` up without counting it as a hit or a miss (and
    /// without refreshing its LRU recency).
    pub fn peek(&self, key: u64) -> Option<Arc<V>> {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .map
            .get(&key)
            .map(|e| Arc::clone(&e.value))
    }

    /// Returns the cached value for `key`, or computes, inserts, and
    /// returns it. The boolean is `true` for a cache hit. The compute
    /// closure runs under the shard lock, so concurrent submitters of
    /// the same key compute once.
    ///
    /// # Errors
    ///
    /// Propagates the compute closure's error; nothing is inserted and
    /// the lookup is still counted as a miss.
    pub fn get_or_try_insert<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let mut shard = self.shard(key).lock().expect("cache shard");
        if let Some(e) = shard.map.get(&key) {
            let v = Arc::clone(&e.value);
            shard.hits += 1;
            shard.touch(key, self.shard_cap);
            return Ok((v, true));
        }
        shard.misses += 1;
        let value = Arc::new(compute()?);
        shard.insert(key, Arc::clone(&value), self.shard_cap);
        Ok((value, false))
    }

    /// Infallible [`ShardedCache::get_or_try_insert`].
    pub fn get_or_insert_with(&self, key: u64, compute: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let Ok(r) = self.get_or_try_insert::<core::convert::Infallible>(key, || Ok(compute()));
        r
    }

    /// Like [`ShardedCache::get_or_insert_with`], but the compute
    /// closure runs with **no shard lock held**: concurrent submitters
    /// of the same key park until the one in-flight computation
    /// finishes (counted in [`CacheStats::coalesced`]), while lookups
    /// of other keys — including keys on the same shard — proceed
    /// unblocked. This is the admission discipline for a resident
    /// server, where one slow compile must not stall unrelated traffic.
    ///
    /// The parked waiters re-check the map when woken and count as
    /// ordinary hits. If the in-flight computation panics, one waiter
    /// takes over the compute; if the value is evicted between insert
    /// and wake-up (a pathologically small cache), the waiter simply
    /// recomputes.
    pub fn get_or_insert_coalesced(&self, key: u64, compute: impl Fn() -> V) -> (Arc<V>, bool) {
        loop {
            if let Some(v) = self.hit(key) {
                return (v, true);
            }
            #[cfg(test)]
            tests::pause_after_map_miss();
            {
                let mut inflight = self.inflight.lock().expect("inflight table");
                if inflight.keys.contains_key(&key) {
                    inflight.coalesced += 1;
                    while inflight.keys.contains_key(&key) {
                        inflight = self
                            .inflight_cv
                            .wait(inflight)
                            .expect("inflight table poisoned");
                    }
                    // Re-check the map from the top: the computer has
                    // inserted (or panicked; then we take over).
                    continue;
                }
                // A computer may have inserted and left the in-flight
                // table since the miss above; it inserts before it
                // leaves, so under this lock the map has the value.
                // (The shard lock nests inside the in-flight lock here
                // and nowhere the other way round.)
                if let Some(v) = self.hit(key) {
                    return (v, true);
                }
                inflight.keys.insert(key, ());
            }
            let guard = InflightGuard { cache: self, key };
            let value = Arc::new(compute());
            {
                let mut shard = self.shard(key).lock().expect("cache shard");
                shard.misses += 1;
                shard.insert(key, Arc::clone(&value), self.shard_cap);
            }
            drop(guard); // removes the in-flight entry and wakes waiters
            return (value, false);
        }
    }

    /// A counted hit on `key`, refreshing its recency.
    fn hit(&self, key: u64) -> Option<Arc<V>> {
        let mut shard = self.shard(key).lock().expect("cache shard");
        let v = Arc::clone(&shard.map.get(&key)?.value);
        shard.hits += 1;
        shard.touch(key, self.shard_cap);
        Some(v)
    }

    /// Pins `key`: the entry leaves the LRU order books and becomes
    /// exempt from eviction until [`ShardedCache::unpin`]. Pinning is
    /// sticky across re-insertion of the same key. Returns whether the
    /// key was resident. At most a handful of keys should be pinned at
    /// a time (one active plan variant per served kernel): every pinned
    /// entry shrinks the evictable pool, and a shard whose residents
    /// are all pinned is allowed to exceed its capacity bound.
    pub fn pin(&self, key: u64) -> bool {
        self.shard(key).lock().expect("cache shard").pin(key)
    }

    /// Reverses [`ShardedCache::pin`]: the entry re-enters the
    /// probation segment as most recently used, becoming ordinarily
    /// evictable again. Returns whether the key was resident.
    pub fn unpin(&self, key: u64) -> bool {
        self.shard(key).lock().expect("cache shard").unpin(key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock().expect("cache shard");
            shard.map.clear();
            shard.probation.clear();
            shard.protected.clear();
        }
    }

    /// Resets the hit/miss counters (entries, eviction and coalescing
    /// tallies are preserved), so drivers can measure one submission
    /// wave in isolation.
    pub fn reset_counters(&self) {
        for s in &self.shards {
            let mut shard = s.lock().expect("cache shard");
            shard.hits = 0;
            shard.misses = 0;
        }
    }

    /// Counter snapshot, summed shard by shard under each shard's lock.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for s in &self.shards {
            let shard = s.lock().expect("cache shard");
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.entries += shard.map.len() as u64;
            stats.evictions += shard.evictions;
            stats.pinned += shard.map.values().filter(|e| e.seg == Seg::Pinned).count() as u64;
        }
        stats.coalesced = self.inflight.lock().expect("inflight table").coalesced;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn computes_once_then_hits() {
        let cache: ShardedCache<String> = ShardedCache::new();
        let (v, hit) = cache.get_or_insert_with(7, || "seven".to_owned());
        assert!(!hit);
        assert_eq!(*v, "seven");
        let (v2, hit2) = cache.get_or_insert_with(7, || unreachable!("cached"));
        assert!(hit2);
        assert_eq!(*v2, "seven");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn errors_do_not_insert() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        let r: Result<_, &str> = cache.get_or_try_insert(1, || Err("nope"));
        assert!(r.is_err());
        assert!(cache.peek(1).is_none());
        let (_, hit) = cache.get_or_insert_with(1, || 5);
        assert!(!hit, "failed compute must not poison the key");
    }

    #[test]
    fn concurrent_submitters_share_one_compute() {
        let cache: ShardedCache<u64> = ShardedCache::new();
        let computes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for key in 0..64u64 {
                        let (v, _) = cache.get_or_insert_with(key, || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            key * 3
                        });
                        assert_eq!(*v, key * 3);
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 64);
        let stats = cache.stats();
        assert_eq!(stats.misses, 64);
        assert_eq!(stats.hits, 8 * 64 - 64);
        cache.reset_counters();
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().entries, 64);
    }

    #[test]
    fn counters_are_exact_under_contention() {
        // Hammer a handful of keys (so every shard sees both hits and
        // misses) while other threads poll `stats()` mid-run; every
        // snapshot must satisfy hits + misses ≤ total lookups issued,
        // and the final tallies must be exact.
        const THREADS: u64 = 8;
        const LOOKUPS: u64 = 4000;
        const KEYS: u64 = 32;
        let cache: ShardedCache<u64> = ShardedCache::new();
        let cache = &cache;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for n in 0..LOOKUPS {
                        let key = (n * 7 + t) % KEYS;
                        cache.get_or_insert_with(key, || key);
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let s = cache.stats();
                        assert!(
                            s.hits + s.misses <= THREADS * LOOKUPS,
                            "snapshot overcounts: {s:?}"
                        );
                        std::thread::yield_now();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, THREADS * LOOKUPS);
        assert_eq!(stats.misses, KEYS, "one miss per distinct key");
        assert_eq!(stats.entries, KEYS);
    }

    /// Keys `0, SHARDS, 2*SHARDS, ...` all land on shard 0, making the
    /// per-shard bound (and the LRU order within it) fully observable.
    fn shard0_key(i: usize) -> u64 {
        (i * SHARDS) as u64
    }

    #[test]
    fn capacity_bounds_residency_and_counts_evictions() {
        let cache: ShardedCache<u64> = ShardedCache::with_capacity(8);
        // 8 total → 1 per shard: every second insert on shard 0 evicts.
        for i in 0..10 {
            cache.get_or_insert_with(shard0_key(i), || i as u64);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "shard 0 holds exactly its bound");
        assert_eq!(stats.evictions, 9);
        assert!(cache.peek(shard0_key(9)).is_some(), "newest survives");
    }

    #[test]
    fn hit_protects_entries_from_a_cold_scan() {
        // Shard capacity 4 (capacity 64 / 16 shards). Make `hot` a
        // protected entry by hitting it, then scan three times as many
        // cold keys through the shard: the probation segment churns,
        // the protected entry survives.
        let cache: ShardedCache<u64> = ShardedCache::with_capacity(64);
        let hot = shard0_key(0);
        cache.get_or_insert_with(hot, || 111);
        cache.get_or_insert_with(hot, || unreachable!("resident"));
        for i in 1..=12 {
            cache.get_or_insert_with(shard0_key(i), || i as u64);
        }
        assert_eq!(
            cache.peek(hot).as_deref(),
            Some(&111),
            "protected entry survives a cold scan"
        );
        assert!(cache.stats().evictions > 0, "the scan did churn");
    }

    #[test]
    fn protected_segment_is_bounded() {
        // Shard capacity 4 → protected bound 3: promote four entries,
        // then insert fresh keys; at most `cap` entries stay resident
        // and the cache still answers every key correctly.
        let cache: ShardedCache<u64> = ShardedCache::with_capacity(64);
        for i in 0..4 {
            cache.get_or_insert_with(shard0_key(i), || i as u64);
            cache.get_or_insert_with(shard0_key(i), || unreachable!("resident"));
        }
        for i in 4..8 {
            let (v, _) = cache.get_or_insert_with(shard0_key(i), || i as u64);
            assert_eq!(*v, i as u64);
        }
        assert!(cache.stats().entries <= 4);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        // Shard capacity 1 (8 total / 16 shards): every insert on shard
        // 0 would evict the previous resident — unless it is pinned.
        let cache: ShardedCache<u64> = ShardedCache::with_capacity(8);
        let hot = shard0_key(0);
        cache.get_or_insert_with(hot, || 111);
        assert!(cache.pin(hot));
        for i in 1..6 {
            cache.get_or_insert_with(shard0_key(i), || i as u64);
        }
        assert_eq!(cache.peek(hot).as_deref(), Some(&111), "pinned survives");
        assert_eq!(cache.stats().pinned, 1);
        // Unpinning makes it an ordinary (most-recent) probation entry:
        // the next two inserts churn it out of the cap-1 shard.
        assert!(cache.unpin(hot));
        assert_eq!(cache.stats().pinned, 0);
        for i in 6..8 {
            cache.get_or_insert_with(shard0_key(i), || i as u64);
        }
        assert!(cache.peek(hot).is_none(), "unpinned entry evicts again");
    }

    #[test]
    fn pin_is_sticky_across_reinsert_and_all_pinned_overflows() {
        let cache: ShardedCache<u64> = ShardedCache::with_capacity(8);
        let k = shard0_key(0);
        cache.get_or_insert_with(k, || 1);
        cache.pin(k);
        // Re-inserting the same key (a refreshed plan variant) must not
        // silently lose the pin.
        {
            let mut shard = cache.shard(k).lock().unwrap();
            shard.insert(k, Arc::new(2), Some(1));
        }
        assert_eq!(cache.peek(k).as_deref(), Some(&2));
        assert_eq!(cache.stats().pinned, 1);
        // A second pinned key on the cap-1 shard (inserted without the
        // capacity trim, as a freshly-pinned respecialized variant
        // would be): nothing is evictable, so the shard runs over
        // capacity instead of dropping a pin.
        let k2 = shard0_key(1);
        {
            let mut shard = cache.shard(k2).lock().unwrap();
            shard.insert(k2, Arc::new(3), None);
            shard.pin(k2);
        }
        cache.get_or_insert_with(shard0_key(2), || 4);
        assert!(cache.peek(k).is_some());
        assert!(cache.peek(k2).is_some());
        assert_eq!(cache.stats().pinned, 2);
        assert!(!cache.pin(999), "absent keys report non-resident");
        assert!(!cache.unpin(999));
    }

    #[test]
    fn coalesced_compute_runs_once_and_parks_waiters() {
        let cache: ShardedCache<u64> = ShardedCache::new();
        let computes = AtomicUsize::new(0);
        let key = 42u64;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = cache.get_or_insert_coalesced(key, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        // Hold the computation long enough that the
                        // other submitters arrive while it is in
                        // flight.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        7
                    });
                    assert_eq!(*v, 7);
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1, "one compute total");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
        assert!(stats.coalesced >= 1, "{stats:?}");
    }

    thread_local! {
        /// Barrier a submitter on this thread meets twice right after
        /// its first map miss (see `pause_after_map_miss`).
        static MAP_MISS_PAUSE: std::cell::RefCell<Option<Arc<std::sync::Barrier>>> =
            const { std::cell::RefCell::new(None) };
    }

    /// Test seam in `get_or_insert_coalesced`: a thread that armed
    /// `MAP_MISS_PAUSE` stops between its map miss and the in-flight
    /// check until the test has done its interleaving (once).
    pub(super) fn pause_after_map_miss() {
        if let Some(barrier) = MAP_MISS_PAUSE.with(|p| p.borrow_mut().take()) {
            barrier.wait();
            barrier.wait();
        }
    }

    #[test]
    fn submitter_missing_just_before_an_insert_does_not_recompute() {
        let cache: ShardedCache<u64> = ShardedCache::new();
        let computes = AtomicUsize::new(0);
        let compute = || {
            computes.fetch_add(1, Ordering::Relaxed);
            7
        };
        let pause = Arc::new(std::sync::Barrier::new(2));
        let key = 42u64;
        std::thread::scope(|scope| {
            let late = scope.spawn(|| {
                MAP_MISS_PAUSE.with(|p| *p.borrow_mut() = Some(Arc::clone(&pause)));
                cache.get_or_insert_coalesced(key, compute)
            });
            // The late submitter has missed the map. Another submitter
            // now computes, inserts, and leaves the in-flight table
            // before the late one looks at it.
            pause.wait();
            let (_, hit) = cache.get_or_insert_coalesced(key, compute);
            assert!(!hit);
            pause.wait();
            let (v, hit) = late.join().unwrap();
            assert_eq!(*v, 7);
            assert!(hit, "the late submitter finds the inserted value");
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1, "one compute total");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (1, 1, 0));
    }

    #[test]
    fn coalesced_does_not_block_other_keys() {
        // While key A's compute sleeps, key B on the *same shard* must
        // complete. A deadline bounds the test: under the old
        // compute-under-shard-lock discipline B would wait ~200ms; here
        // it finishes orders of magnitude sooner.
        let cache: ShardedCache<u64> = ShardedCache::new();
        let a = shard0_key(1);
        let b = shard0_key(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                cache.get_or_insert_coalesced(a, || {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    1
                });
            });
            // Give the A-compute a moment to register in flight.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let started = std::time::Instant::now();
            let (v, _) = cache.get_or_insert_coalesced(b, || 2);
            assert_eq!(*v, 2);
            assert!(
                started.elapsed() < std::time::Duration::from_millis(100),
                "same-shard key must not wait behind the in-flight compute"
            );
        });
    }

    #[test]
    fn coalesced_survives_a_panicking_compute() {
        let cache: ShardedCache<u64> = ShardedCache::new();
        let key = 5u64;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_coalesced(key, || panic!("compute failed"));
        }));
        assert!(r.is_err());
        // The in-flight entry must have been cleaned up: a later
        // submitter computes normally instead of parking forever.
        let (v, hit) = cache.get_or_insert_coalesced(key, || 9);
        assert!(!hit);
        assert_eq!(*v, 9);
    }
}
