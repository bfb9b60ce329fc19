//! Property tests for the memory substrate: the address space behaves
//! like a (partial) map with fault boundaries, and like the page-table
//! reference model below on any operation sequence; transactions are
//! atomic (commit = apply all, abort = apply none); the cache simulator is
//! deterministic, monotone in locality, and evicts exactly like the
//! stamp-LRU reference model below.

use std::collections::BTreeMap;

use flexvec_mem::{
    Access, AddressSpace, ArrayId, CacheLevelConfig, CacheSim, CacheStats, HierarchyConfig,
    MemFault, Transaction, LINE_BYTES, PAGE_BYTES, PAGE_ELEMS,
};
use proptest::prelude::*;

/// Reference model of the address space's semantics: a page table from
/// page number to frame, pages handed out upward from page 1 with a guard
/// and a slack page after each array, and spans that fault at their first
/// misaligned or unmapped element in address order.
struct Model {
    pages: BTreeMap<u64, Vec<i64>>,
    next_page: u64,
    arrays: Vec<(u64, u64)>,
}

impl Model {
    fn new() -> Self {
        Model {
            pages: BTreeMap::new(),
            next_page: 1,
            arrays: Vec::new(),
        }
    }

    fn alloc(&mut self, len: u64) -> u64 {
        let pages = len.div_ceil(PAGE_ELEMS as u64);
        for p in self.next_page..self.next_page + pages {
            self.pages.insert(p, vec![0; PAGE_ELEMS]);
        }
        let base = self.next_page * PAGE_BYTES;
        self.next_page += pages + 2;
        self.arrays.push((base, len));
        base
    }

    fn slot(&mut self, addr: u64) -> Result<&mut i64, MemFault> {
        let frame = self.pages.get_mut(&(addr / PAGE_BYTES));
        let frame = frame.filter(|_| addr.is_multiple_of(8));
        frame
            .map(|f| &mut f[(addr % PAGE_BYTES / 8) as usize])
            .ok_or(MemFault { addr })
    }

    fn read_span(&mut self, base: u64, dst: &mut [i64]) -> Result<(), MemFault> {
        if !base.is_multiple_of(8) {
            return Err(MemFault { addr: base });
        }
        for (i, d) in dst.iter_mut().enumerate() {
            *d = *self.slot(base.wrapping_add(i as u64 * 8))?;
        }
        Ok(())
    }

    fn write_span(&mut self, base: u64, src: &[i64]) -> Result<(), MemFault> {
        if !base.is_multiple_of(8) {
            return Err(MemFault { addr: base });
        }
        for (i, &v) in src.iter().enumerate() {
            *self.slot(base.wrapping_add(i as u64 * 8))? = v;
        }
        Ok(())
    }

    /// Whether every page under array `a`'s elements is still mapped
    /// (`snapshot_array` and `load_array` panic otherwise).
    fn interior_mapped(&self, a: usize) -> bool {
        let (base, len) = self.arrays[a];
        let first = base / PAGE_BYTES;
        (first..first + len.div_ceil(PAGE_ELEMS as u64)).all(|p| self.pages.contains_key(&p))
    }
}

/// One step of a random operation sequence. Addresses are `(kind, array,
/// element, skew)` recipes resolved against the arrays allocated so far
/// (see [`resolve`]).
#[derive(Clone, Debug)]
enum Op {
    Alloc(u64),
    AllocFrom(Vec<i64>),
    Read(Addr),
    Write(Addr, i64),
    ReadSpan(Addr, usize),
    WriteSpan(Addr, Vec<i64>),
    Unmap(Addr),
    Snapshot(usize),
    Load(usize, Vec<i64>),
}

type Addr = (u8, usize, i64, u64);

/// Element `elem` of an allocated array (page 0 before the first
/// allocation), shifted by `skew` bytes for kind 1 so the access is
/// misaligned; kind 2 counts down from the top of the address space, so
/// spans from there wrap past `u64::MAX`.
fn resolve(s: &AddressSpace, (kind, array, elem, skew): Addr) -> u64 {
    if kind == 2 {
        return 0u64.wrapping_sub(8 * elem.unsigned_abs() % 512 + 8);
    }
    let base = match s.array_count() {
        0 => 0,
        n => s.base(ArrayId((array % n) as u32)),
    };
    let addr = base.wrapping_add_signed(elem * 8);
    if kind == 1 {
        addr.wrapping_add(skew)
    } else {
        addr
    }
}

/// One level of the reference cache: every line carries the stamp of its
/// last use (a probe hit or a fill of an absent line), and a full set
/// evicts its smallest stamp. Stamps are unique within a level, so the
/// victim is always the least recently used line.
struct StampLevel {
    config: CacheLevelConfig,
    sets: u64,
    tags: Vec<Vec<(u64, u64)>>,
    hits: u64,
    misses: u64,
}

impl StampLevel {
    fn new(config: CacheLevelConfig) -> Self {
        let sets = config.size_bytes / LINE_BYTES / config.ways as u64;
        StampLevel {
            config,
            sets,
            tags: vec![Vec::new(); sets as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn probe(&mut self, line: u64, stamp: u64) -> bool {
        let set = &mut self.tags[(line % self.sets) as usize];
        match set.iter_mut().find(|(tag, _)| *tag == line / self.sets) {
            Some(entry) => {
                entry.1 = stamp;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Fills an absent line; a present one keeps its stamp.
    fn fill(&mut self, line: u64, stamp: u64) {
        let (tag, ways) = (line / self.sets, self.config.ways);
        let set = &mut self.tags[(line % self.sets) as usize];
        if set.iter().any(|(t, _)| *t == tag) {
            return;
        }
        if set.len() >= ways {
            let lru = (0..set.len()).min_by_key(|&i| set[i].1).expect("full set");
            set.swap_remove(lru);
        }
        set.push((tag, stamp));
    }
}

/// The stamp-LRU hierarchy [`CacheSim`] must match access for access:
/// one stamp per access and per prefetched line, an L1 → L2 → L3 →
/// memory walk that fills every level it missed, and a next-line
/// prefetcher that stops at the page boundary.
struct StampCache {
    config: HierarchyConfig,
    levels: [StampLevel; 3],
    stamp: u64,
    prefetches: u64,
}

impl StampCache {
    fn new(config: HierarchyConfig) -> Self {
        StampCache {
            config,
            levels: [config.l1, config.l2, config.l3].map(StampLevel::new),
            stamp: 0,
            prefetches: 0,
        }
    }

    fn access(&mut self, addr: u64) -> u32 {
        self.stamp += 1;
        let (line, stamp) = (addr / LINE_BYTES, self.stamp);
        let hit = (0..3).find(|&l| self.levels[l].probe(line, stamp));
        for level in &mut self.levels[..hit.unwrap_or(3)] {
            level.fill(line, stamp);
        }
        let latency = hit.map_or(self.config.memory_latency, |l| {
            self.levels[l].config.latency
        });
        if latency > self.config.l1.latency {
            for ahead in 1..=u64::from(self.config.prefetch_degree) {
                let next = addr + ahead * LINE_BYTES;
                if next / PAGE_BYTES != addr / PAGE_BYTES {
                    break;
                }
                self.stamp += 1;
                let (line, stamp) = (next / LINE_BYTES, self.stamp);
                if !self.levels[0].probe(line, stamp) {
                    for level in &mut self.levels {
                        level.fill(line, stamp);
                    }
                    self.prefetches += 1;
                }
            }
        }
        latency
    }

    fn stats(&self) -> CacheStats {
        let [l1, l2, l3] = &self.levels;
        CacheStats {
            l1: (l1.hits, l1.misses),
            l2: (l2.hits, l2.misses),
            l3: (l3.hits, l3.misses),
            prefetches: self.prefetches,
        }
    }
}

/// A hierarchy for the reference-model test: Table 1 (`kind` 0), or
/// small levels of `sets` × `ways` lines that evict all the time.
fn hierarchy(kind: u8, geometry: [(u8, u8); 3], prefetch_degree: u32) -> HierarchyConfig {
    let mut config = HierarchyConfig::table1();
    config.prefetch_degree = prefetch_degree;
    if kind != 0 {
        let [l1, l2, l3] = geometry.map(|(sets, ways)| (1u64 << (sets % 5), 1usize << (ways % 4)));
        let level = |(sets, ways): (u64, usize), latency| CacheLevelConfig {
            size_bytes: sets * ways as u64 * LINE_BYTES,
            ways,
            latency,
        };
        config.l1 = level(l1, 4);
        config.l2 = level(l2, 12);
        config.l3 = level(l3, 25);
    }
    config
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let addr = (0u8..6, 0usize..8, -1100i64..1700, 1u64..8);
    let data = prop::collection::vec(any::<i64>(), 0..600);
    (0u8..9, 0u64..1300, addr, 0usize..3, data).prop_map(|(op, len, addr, scale, mut data)| {
        // A third of the spans stay under 4 elements (empty ones
        // included), a third under 40, the rest under 600.
        data.truncate(data.len() % [4, 40, 600][scale]);
        let n = data.len();
        match op {
            0 => Op::Alloc(len),
            1 => Op::AllocFrom(data),
            2 => Op::Read(addr),
            3 => Op::Write(addr, len as i64 - 650),
            4 => Op::ReadSpan(addr, n),
            5 => Op::WriteSpan(addr, data),
            6 => Op::Unmap(addr),
            7 => Op::Snapshot(addr.1 % 4),
            _ => Op::Load(addr.1 % 4, data),
        }
    })
}

proptest! {
    #[test]
    fn write_then_read_roundtrip(
        len in 1u64..2000,
        writes in prop::collection::vec((0u64..2000, any::<i64>()), 0..64),
    ) {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", len);
        let mut model: std::collections::HashMap<u64, i64> = Default::default();
        for (idx, v) in writes {
            let in_mapped_region =
                idx < len.div_ceil(PAGE_ELEMS as u64).max(1) * PAGE_ELEMS as u64;
            let r = s.write_elem(a, idx as i64, v);
            prop_assert_eq!(r.is_ok(), in_mapped_region, "idx {} len {}", idx, len);
            if r.is_ok() {
                model.insert(idx, v);
            }
        }
        for (idx, v) in &model {
            prop_assert_eq!(s.read_elem(a, *idx as i64).unwrap(), *v);
        }
    }

    #[test]
    fn arrays_never_alias(
        len_a in 1u64..1500,
        len_b in 1u64..1500,
        idx in 0u64..1500,
        value in any::<i64>(),
    ) {
        let mut s = AddressSpace::new();
        let a = s.alloc("a", len_a);
        let b = s.alloc("b", len_b);
        if idx < len_a && s.write_elem(a, idx as i64, value).is_ok() {
            // No write to `a` may be visible through `b`.
            for j in 0..len_b.min(64) {
                prop_assert_eq!(s.read_elem(b, j as i64).unwrap(), 0);
            }
        }
    }

    #[test]
    fn transaction_commit_equals_direct_writes(
        writes in prop::collection::vec((0i64..256, any::<i64>()), 1..40),
    ) {
        let mut direct = AddressSpace::new();
        let da = direct.alloc("a", 256);
        for (idx, v) in &writes {
            direct.write_elem(da, *idx, *v).unwrap();
        }

        let mut txed = AddressSpace::new();
        let ta = txed.alloc("a", 256);
        let base = txed.base(ta);
        {
            let mut txn = Transaction::begin(&mut txed);
            for (idx, v) in &writes {
                txn.write(base + (*idx as u64) * 8, *v).unwrap();
            }
            txn.commit();
        }
        prop_assert_eq!(direct.snapshot_array(da), txed.snapshot_array(ta));
    }

    #[test]
    fn transaction_abort_is_invisible(
        init in prop::collection::vec(any::<i64>(), 32),
        writes in prop::collection::vec((0i64..32, any::<i64>()), 1..20),
    ) {
        let mut s = AddressSpace::new();
        let a = s.alloc_from("a", &init);
        let before = s.snapshot_array(a);
        let base = s.base(a);
        {
            let mut txn = Transaction::begin(&mut s);
            for (idx, v) in &writes {
                txn.write(base + (*idx as u64) * 8, *v).unwrap();
                // Reads inside see the speculative value.
                prop_assert_eq!(txn.read(base + (*idx as u64) * 8).unwrap(), *v);
            }
            txn.abort();
        }
        prop_assert_eq!(s.snapshot_array(a), before);
    }

    #[test]
    fn address_space_agrees_with_the_page_table_model(
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let mut s = AddressSpace::new();
        let mut m = Model::new();
        for op in ops {
            match op {
                Op::Alloc(len) => {
                    let a = s.alloc("a", len);
                    prop_assert_eq!(s.base(a), m.alloc(len));
                }
                Op::AllocFrom(data) => {
                    let a = s.alloc_from("a", &data);
                    let base = m.alloc(data.len() as u64);
                    prop_assert_eq!(s.base(a), base);
                    m.write_span(base, &data).unwrap();
                }
                Op::Read(addr) => {
                    let addr = resolve(&s, addr);
                    prop_assert_eq!(s.read(addr), m.slot(addr).map(|v| *v));
                }
                Op::Write(addr, v) => {
                    let addr = resolve(&s, addr);
                    prop_assert_eq!(s.write(addr, v), m.slot(addr).map(|slot| *slot = v));
                }
                Op::ReadSpan(addr, n) => {
                    let addr = resolve(&s, addr);
                    let (mut got, mut want) = (vec![i64::MIN; n], vec![i64::MIN; n]);
                    prop_assert_eq!(s.read_span(addr, &mut got), m.read_span(addr, &mut want));
                    prop_assert_eq!(got, want);
                }
                Op::WriteSpan(addr, data) => {
                    let addr = resolve(&s, addr);
                    prop_assert_eq!(s.write_span(addr, &data), m.write_span(addr, &data));
                }
                Op::Unmap(addr) => {
                    let addr = resolve(&s, addr);
                    s.unmap_page_of(addr);
                    m.pages.remove(&(addr / PAGE_BYTES));
                }
                Op::Snapshot(a) if a < m.arrays.len() && m.interior_mapped(a) => {
                    let (base, len) = m.arrays[a];
                    let mut want = vec![0; len as usize];
                    m.read_span(base, &mut want).unwrap();
                    prop_assert_eq!(s.array_slice(ArrayId(a as u32)), &want[..]);
                    prop_assert_eq!(s.snapshot_array(ArrayId(a as u32)), want);
                }
                Op::Load(a, mut data) if a < m.arrays.len() && m.interior_mapped(a) => {
                    let (base, len) = m.arrays[a];
                    data.truncate(len as usize);
                    s.load_array(ArrayId(a as u32), &data);
                    m.write_span(base, &data).unwrap();
                }
                Op::Snapshot(_) | Op::Load(..) => {}
            }
        }
        // Every page below the frontier: same mapping, same contents.
        for page in 0..m.next_page + 4 {
            let addr = page * PAGE_BYTES;
            let mut want = vec![0; PAGE_ELEMS];
            let (mut got, mapped) = (vec![0; PAGE_ELEMS], m.read_span(addr, &mut want).is_ok());
            prop_assert_eq!(s.is_mapped(addr), mapped, "page {}", page);
            prop_assert_eq!(s.read_span(addr, &mut got).is_ok(), mapped);
            prop_assert_eq!(got, want, "page {}", page);
        }
    }

    #[test]
    fn cache_is_deterministic(addrs in prop::collection::vec(0u64..(1 << 22), 1..200)) {
        let run = |addrs: &[u64]| -> Vec<u32> {
            let mut c = CacheSim::new(HierarchyConfig::table1());
            addrs.iter().map(|a| c.access(a & !7, Access::Read)).collect()
        };
        prop_assert_eq!(run(&addrs), run(&addrs));
    }

    #[test]
    fn repeat_access_is_l1_hit(addr in 0u64..(1 << 30)) {
        let mut c = CacheSim::new(HierarchyConfig::table1());
        let aligned = addr & !7;
        let _ = c.access(aligned, Access::Read);
        prop_assert_eq!(c.access(aligned, Access::Read), 4);
        prop_assert_eq!(c.access(aligned, Access::Write), 4);
    }

    #[test]
    fn cache_matches_the_stamp_lru_reference(
        kind in 0u8..3,
        geometry in ((0u8..8, 0u8..8), (0u8..8, 0u8..8), (0u8..8, 0u8..8)),
        prefetch_degree in 0u32..5,
        scale in 0usize..5,
        addrs in prop::collection::vec(0u64..256, 1..400),
    ) {
        // Dense words, lines across four pages, and one-set storms on
        // Table 1's L1, L2 and L3.
        let scale = [8, LINE_BYTES, 4096, 32 << 10, 256 << 10][scale];
        let config = hierarchy(kind, [geometry.0, geometry.1, geometry.2], prefetch_degree);
        let mut cache = CacheSim::new(config);
        let mut reference = StampCache::new(config);
        for (i, a) in addrs.iter().enumerate() {
            let addr = a * scale;
            prop_assert_eq!(cache.access(addr, Access::Read), reference.access(addr), "access {}", i);
            prop_assert_eq!(cache.stats(), reference.stats(), "access {}", i);
        }
    }

    #[test]
    fn latencies_are_from_the_hierarchy(addrs in prop::collection::vec(0u64..(1 << 22), 1..100)) {
        let mut c = CacheSim::new(HierarchyConfig::table1());
        for a in addrs {
            let lat = c.access(a & !7, Access::Read);
            prop_assert!(
                [4, 12, 25, 200].contains(&lat),
                "latency {} not a hierarchy level",
                lat
            );
        }
    }
}
