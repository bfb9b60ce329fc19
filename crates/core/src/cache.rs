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
//! * [`ShardedCache::get_or_insert_with`] runs the compute closure while
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
//! ~80% of the shard, so a shard bounded to one entry is plain LRU);
//! eviction removes the least-recently-used probation entry first, so
//! one burst of distinct keys cannot flush the hot working set.
//! Capacity is enforced per shard
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
            Seg::Probation => self.probation.remove(&entry.stamp),
            Seg::Protected => self.protected.remove(&entry.stamp),
        };
        self.clock += 1;
        entry.seg = Seg::Protected;
        entry.stamp = self.clock;
        self.protected.insert(entry.stamp, key);

        if let Some(cap) = cap {
            // 0 for a bound-1 shard, which is then plain LRU: a hit must
            // not protect its one entry from the next insert.
            let protected_cap = cap * PROTECTED_NUM / PROTECTED_DEN;
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
        let entry = Entry {
            value,
            seg: Seg::Probation,
            stamp,
        };
        if let Some(old) = self.map.insert(key, entry) {
            // Same key re-inserted (a coalesced race): drop the stale
            // order-book entry.
            match old.seg {
                Seg::Probation => self.probation.remove(&old.stamp),
                Seg::Protected => self.protected.remove(&old.stamp),
            };
        }
        self.probation.insert(stamp, key);
        if let Some(cap) = cap {
            while self.map.len() > cap {
                // Every resident entry is in one of the two order books,
                // so an over-capacity shard always has a victim.
                let Some((_, victim)) = self
                    .probation
                    .pop_first()
                    .or_else(|| self.protected.pop_first())
                else {
                    break;
                };
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
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
    pub fn get_or_insert_with(&self, key: u64, compute: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let mut shard = self.shard(key).lock().expect("cache shard");
        if let Some(e) = shard.map.get(&key) {
            let v = Arc::clone(&e.value);
            shard.hits += 1;
            shard.touch(key, self.shard_cap);
            return (v, true);
        }
        shard.misses += 1;
        let value = Arc::new(compute());
        shard.insert(key, Arc::clone(&value), self.shard_cap);
        (value, false)
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

    /// Every resident `(key, value)` pair, collected shard by shard
    /// without counting a lookup or refreshing recency.
    pub fn entries(&self) -> Vec<(u64, Arc<V>)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.lock().expect("cache shard");
            out.extend(shard.map.iter().map(|(&k, e)| (k, Arc::clone(&e.value))));
        }
        out
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
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].0, entries[0].1.as_str()), (7, "seven"));
        assert_eq!(cache.stats(), stats, "a snapshot counts no lookup");
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
    fn a_bound_one_shard_keeps_the_key_it_inserts() {
        // Capacity 16 → 1 per shard. A hit on the resident key must not
        // make the next insert into the shard evict the new key.
        let cache: ShardedCache<u64> = ShardedCache::with_capacity(16);
        cache.get_or_insert_with(shard0_key(0), || 0);
        cache.get_or_insert_with(shard0_key(0), || unreachable!("resident"));
        cache.get_or_insert_with(shard0_key(1), || 1);
        assert_eq!(cache.peek(shard0_key(1)).as_deref(), Some(&1));
        assert!(
            cache.peek(shard0_key(0)).is_none(),
            "plain LRU evicts the old key"
        );
        assert_eq!(cache.stats().entries, 1);
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
