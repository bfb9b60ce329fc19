//! Cache-hierarchy timing model.
//!
//! Implements the memory side of the paper's Table 1 configuration:
//!
//! | Level  | Size  | Assoc | Latency (cycles)      |
//! |--------|-------|-------|-----------------------|
//! | L1 D   | 32 K  | 8     | 4 (load to use)       |
//! | L2     | 256 K | 8     | 12                    |
//! | L3     | 8 M   | 32    | 25                    |
//! | Memory | —     | —     | 200                   |
//!
//! The model is a classic set-associative LRU lookup: an access probes
//! L1 → L2 → L3 → memory, fills all levels on the way back, and returns
//! the load-to-use latency of the level that hit. A simple next-line
//! stream prefetcher (which, like real hardware, does **not** cross page
//! boundaries — the paper calls this out as hurting gathered big-stride
//! loads) can be enabled per configuration.

use crate::PAGE_BYTES;

/// Cache line size in bytes (x86).
pub const LINE_BYTES: u64 = 64;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Hit latency in cycles (load-to-use).
    pub latency: u32,
}

/// Full hierarchy configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheLevelConfig,
    /// Unified L2.
    pub l2: CacheLevelConfig,
    /// Shared L3.
    pub l3: CacheLevelConfig,
    /// Main-memory latency in cycles.
    pub memory_latency: u32,
    /// Lines prefetched ahead on a miss (0 disables the prefetcher).
    pub prefetch_degree: u32,
}

impl HierarchyConfig {
    /// The paper's Table 1 memory subsystem.
    pub fn table1() -> Self {
        HierarchyConfig {
            l1: CacheLevelConfig {
                size_bytes: 32 << 10,
                ways: 8,
                latency: 4,
            },
            l2: CacheLevelConfig {
                size_bytes: 256 << 10,
                ways: 8,
                latency: 12,
            },
            l3: CacheLevelConfig {
                size_bytes: 8 << 20,
                ways: 32,
                latency: 25,
            },
            memory_latency: 200,
            prefetch_degree: 2,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// Kind of memory access, for statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// A load.
    Read,
    /// A store (write-allocate, write-back).
    Write,
}

#[derive(Clone, Debug)]
struct Level {
    config: CacheLevelConfig,
    sets: usize,
    /// `tags[set]` holds at most `ways` tags, most recently used first,
    /// so the back of a full set is its LRU victim.
    tags: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Level {
    fn new(config: CacheLevelConfig) -> Self {
        let sets = (config.size_bytes / LINE_BYTES) as usize / config.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Level {
            config,
            sets,
            tags: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    /// The set `line` maps to, and its tag there.
    fn locate(&mut self, line: u64) -> (&mut Vec<u64>, u64) {
        let set = (line as usize) & (self.sets - 1);
        (&mut self.tags[set], line >> self.sets.trailing_zeros())
    }

    /// Probes the line; a hit moves it to the front of its set.
    fn probe(&mut self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        match set.iter().position(|&t| t == tag) {
            Some(way) => {
                set[..=way].rotate_right(1);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts an absent line at the front, evicting the LRU line from
    /// a full set; a line already present keeps its place.
    fn fill(&mut self, line: u64) {
        let ways = self.config.ways;
        let (set, tag) = self.locate(line);
        if set.contains(&tag) {
            return;
        }
        if set.len() == ways {
            set.pop();
        }
        set.insert(0, tag);
    }
}

/// Per-level hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 hits/misses.
    pub l1: (u64, u64),
    /// L2 hits/misses.
    pub l2: (u64, u64),
    /// L3 hits/misses.
    pub l3: (u64, u64),
    /// Lines prefetched.
    pub prefetches: u64,
}

/// The three-level cache timing simulator.
///
/// # Examples
///
/// ```
/// use flexvec_mem::{Access, CacheSim, HierarchyConfig};
///
/// let mut cache = CacheSim::new(HierarchyConfig::table1());
/// let cold = cache.access(0x10000, Access::Read);
/// let warm = cache.access(0x10000, Access::Read);
/// assert!(cold > warm);
/// assert_eq!(warm, 4); // L1 hit
/// ```
#[derive(Clone, Debug)]
pub struct CacheSim {
    config: HierarchyConfig,
    l1: Level,
    l2: Level,
    l3: Level,
    prefetches: u64,
}

impl CacheSim {
    /// Creates a hierarchy with the given configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        CacheSim {
            config,
            l1: Level::new(config.l1),
            l2: Level::new(config.l2),
            l3: Level::new(config.l3),
            prefetches: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Simulates one access and returns its load-to-use latency in cycles.
    pub fn access(&mut self, addr: u64, _kind: Access) -> u32 {
        let line = addr / LINE_BYTES;
        let latency = self.lookup(line);
        if latency > self.config.l1.latency {
            self.prefetch(addr);
        }
        latency
    }

    fn lookup(&mut self, line: u64) -> u32 {
        if self.l1.probe(line) {
            return self.config.l1.latency;
        }
        if self.l2.probe(line) {
            self.l1.fill(line);
            return self.config.l2.latency;
        }
        if self.l3.probe(line) {
            self.l1.fill(line);
            self.l2.fill(line);
            return self.config.l3.latency;
        }
        self.l1.fill(line);
        self.l2.fill(line);
        self.l3.fill(line);
        self.config.memory_latency
    }

    /// Next-line stream prefetch on a miss, clamped at the page boundary
    /// (hardware prefetchers do not cross pages).
    fn prefetch(&mut self, addr: u64) {
        let page = addr / PAGE_BYTES;
        for ahead in 1..=self.config.prefetch_degree as u64 {
            let next = addr + ahead * LINE_BYTES;
            if next / PAGE_BYTES != page {
                break;
            }
            let line = next / LINE_BYTES;
            if !self.l1.probe(line) {
                self.l1.fill(line);
                self.l2.fill(line);
                self.l3.fill(line);
                self.prefetches += 1;
            }
        }
    }

    /// Hit/miss statistics per level.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            l1: (self.l1.hits, self.l1.misses),
            l2: (self.l2.hits, self.l2.misses),
            l3: (self.l3.hits, self.l3.misses),
            prefetches: self.prefetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> CacheSim {
        CacheSim::new(HierarchyConfig::table1())
    }

    #[test]
    fn cold_then_hot() {
        let mut c = sim();
        assert_eq!(c.access(4096, Access::Read), 200);
        assert_eq!(c.access(4096, Access::Read), 4);
        assert_eq!(c.access(4100, Access::Read), 4); // same line
    }

    #[test]
    fn prefetcher_pulls_next_lines() {
        let mut c = sim();
        let _ = c.access(8192, Access::Read); // miss, prefetch next 2 lines
        assert_eq!(c.access(8192 + 64, Access::Read), 4);
        assert_eq!(c.access(8192 + 128, Access::Read), 4);
        assert!(c.access(8192 + 192, Access::Read) > 4);
    }

    #[test]
    fn prefetcher_stops_at_page_boundary() {
        let mut c = sim();
        // Access the last line of a page: prefetch must not cross.
        let last_line = 2 * PAGE_BYTES - LINE_BYTES;
        let _ = c.access(last_line, Access::Read);
        assert_eq!(c.access(2 * PAGE_BYTES, Access::Read), 200);
    }

    #[test]
    fn no_prefetch_when_disabled() {
        let mut cfg = HierarchyConfig::table1();
        cfg.prefetch_degree = 0;
        let mut c = CacheSim::new(cfg);
        let _ = c.access(8192, Access::Read);
        assert_eq!(c.access(8192 + 64, Access::Read), 200);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut cfg = HierarchyConfig::table1();
        cfg.prefetch_degree = 0;
        let mut c = CacheSim::new(cfg);
        // L1: 32K/64B = 512 lines, 8 ways, 64 sets. Touch 9 lines mapping
        // to the same set (stride = 64 sets * 64 B = 4096 B).
        for i in 0..9u64 {
            let _ = c.access(i * 4096, Access::Read);
        }
        // The first line was evicted from L1 but still hits in L2.
        assert_eq!(c.access(0, Access::Read), 12);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = sim();
        let _ = c.access(4096, Access::Read);
        let _ = c.access(4096, Access::Write);
        let s = c.stats();
        assert_eq!(s.l1.0, 1); // one hit
        assert!(s.l1.1 >= 1); // at least one miss
    }

    #[test]
    fn distinct_pages_do_not_alias() {
        let mut c = sim();
        let _ = c.access(1 << 20, Access::Read);
        assert_eq!(c.access(1 << 21, Access::Read), 200);
        assert_eq!(c.access(1 << 20, Access::Read), 4);
    }
}
