//! The trace-driven out-of-order pipeline model.
//!
//! [`OooSim`] consumes a µop stream (it implements
//! [`TraceSink`], so the `flexvec-vm` executors can feed it directly
//! without materializing the trace) and models:
//!
//! * **widths** — dispatch/issue/commit instructions per cycle (Table 1:
//!   5/8/5);
//! * **windows** — ROB, reservation stations, load and store queues as
//!   occupancy constraints (an instruction cannot dispatch until the
//!   entry of the instruction `N` slots ahead of it has been released);
//! * **dependences** — a register scoreboard over the trace's abstract
//!   tokens (one direct-mapped table per token class, holding only the
//!   entries that can still delay a µop, see [`Table`]); an instruction
//!   issues when its sources are ready;
//! * **ports** — 2 load ports, 1 store port, 4 ALU/vector ports, each
//!   held for the class's inverse throughput (gathers occupy the load
//!   ports at 2 lanes per cycle, per the paper's FF-instruction row);
//! * **memory** — per-line latency from the Table 1 cache hierarchy;
//! * **branches** — a 2-bit-counter predictor; a mispredict stalls the
//!   front end until the branch resolves plus the refetch penalty.
//!
//! The model is a structural-hazard trace simulator, not an RTL-level
//! core; it reproduces the *relative* throughput effects Figure 8 depends
//! on (ILP extraction limits, dependence chains, gather costs,
//! mispredicts) rather than absolute cycle counts.
//!
//! The model's state is sized by its configuration, never by the trace's
//! length: the windows are rings as long as the ROB and the queues, the
//! cache keeps each set's tags in recency order, and a scoreboard table
//! grows only while a ROB window's worth of live entries collide in it.
//! Processing a µop allocates nothing beyond that growth, and the cache
//! walk reads the µop's addresses in place.

use flexvec_mem::{Access, CacheSim, CacheStats, LINE_BYTES};
use flexvec_vm::{Tok, TraceSink, Uop, UopClass, TEMP_BASE};

use crate::config::{OpTiming, SimConfig};

/// Final statistics of a simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Total cycles (commit time of the last µop).
    pub cycles: u64,
    /// µops simulated.
    pub uops: u64,
    /// Conditional branches seen.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cache statistics.
    pub cache: CacheStats,
    /// µops per cycle.
    pub ipc: f64,
    /// µop counts by category.
    pub classes: ClassCounts,
}

/// Dynamic µop counts grouped by category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Scalar ALU/mul/div µops.
    pub scalar: u64,
    /// Vector ALU/mul/div/shuffle/broadcast/reduce µops.
    pub vector: u64,
    /// Mask-register µops.
    pub mask: u64,
    /// The FlexVec instructions (KFTM, VPSLCTLAST, VPCONFLICTM).
    pub flexvec: u64,
    /// Memory µops (loads, stores, gathers, scatters, FF forms).
    pub memory: u64,
    /// Transaction begin/end µops.
    pub txn: u64,
}

/// A saturating 2-bit branch predictor table.
#[derive(Clone, Debug)]
struct Predictor {
    counters: Vec<u8>,
}

impl Predictor {
    fn new() -> Self {
        Predictor {
            counters: vec![2; 4096],
        } // weakly taken
    }

    fn slot(&mut self, id: u64) -> &mut u8 {
        let idx = (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as usize % self.counters.len();
        &mut self.counters[idx]
    }

    /// Predicts and updates; returns whether the prediction was correct.
    fn predict_and_update(&mut self, id: u64, taken: bool) -> bool {
        let c = self.slot(id);
        let predicted = *c >= 2;
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        predicted == taken
    }
}

/// Release times of a window resource's entries: a ring as long as the
/// window. Slots not yet used read 0.
#[derive(Clone, Debug)]
struct Window {
    times: Vec<u64>,
    next: usize,
}

impl Window {
    fn new(capacity: usize) -> Self {
        Window {
            times: vec![0; capacity],
            next: 0,
        }
    }

    /// Earliest cycle a new entry may allocate: the release of the entry
    /// `capacity` allocations before it.
    fn available_at(&self) -> u64 {
        self.times[self.next]
    }

    fn push(&mut self, release: u64) {
        self.times[self.next] = release;
        self.next += 1;
        if self.next == self.times.len() {
            self.next = 0;
        }
    }
}

/// Slots a token table starts with, as a power of two.
const MIN_BITS: u32 = 4;

/// Ready cycles of one token class: a direct-mapped table of `(id,
/// ready)` slots that keeps only the entries that can still delay a µop.
///
/// A µop issues no earlier than `max(ready of its sources, dispatch)`,
/// and dispatch cycles never decrease. So an entry ready at or before
/// the dispatch of the µop being processed is *spent*: it can delay no
/// later µop, and reading it as 0 (never written) is exact. A write
/// takes its slot if the slot holds the same id or a spent entry; only a
/// collision with a live entry doubles the table, and the rehash drops
/// every spent entry. An entry written `rob_entries` or more µops before
/// is spent, because a µop dispatches no earlier than the commit of the
/// µop `rob_entries` before it and commits are in order. So at most a
/// ROB window of entries is live, and the size follows the window, never
/// the trace's length. Slots are indexed by a multiplicative hash, so
/// ids that share their low bits (strided or jumping temporaries) spread
/// out too. An empty slot reads ready 0 and so is spent, whatever its
/// id: no id is reserved, and the sentinels `K(u32::MAX)` and
/// `S(u32::MAX - 1)` are ordinary ids.
#[derive(Clone, Debug)]
struct Table {
    slots: Vec<(u32, u64)>,
    /// `slots.len()` is `1 << bits`.
    bits: u32,
}

impl Default for Table {
    fn default() -> Self {
        Table {
            slots: vec![(0, 0); 1 << MIN_BITS],
            bits: MIN_BITS,
        }
    }
}

impl Table {
    fn index(&self, id: u32) -> usize {
        (u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.bits)) as usize
    }

    /// The ready cycle of `id`; 0 if it was never written or its spent
    /// entry has given up the slot.
    fn get(&self, id: u32) -> u64 {
        match self.slots[self.index(id)] {
            (slot_id, ready) if slot_id == id => ready,
            _ => 0,
        }
    }

    /// Records `id` ready at `ready`; entries ready by `spent` are spent.
    fn set(&mut self, id: u32, ready: u64, spent: u64) {
        loop {
            let i = self.index(id);
            let slot = &mut self.slots[i];
            if slot.0 == id || slot.1 <= spent {
                *slot = (id, ready);
                return;
            }
            // Entries in distinct slots stay apart when the index gains a
            // bit, so the rehash loses no live entry.
            self.bits += 1;
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); 1 << self.bits]);
            for (id, ready) in old.into_iter().filter(|&(_, ready)| ready > spent) {
                let i = self.index(id);
                self.slots[i] = (id, ready);
            }
        }
    }
}

/// Where the register scoreboard keeps `tok`: the index of its class's
/// [`Table`] in [`OooSim`]'s four, and its id there. Scalar temporaries
/// (ids from [`TEMP_BASE`] up) have a table of their own, apart from the
/// program variables below them, so the two never share slots.
fn scoreboard_slot(tok: Tok) -> (usize, u32) {
    match tok {
        Tok::V(id) => (0, id),
        Tok::K(id) => (1, id),
        Tok::S(id) if id < TEMP_BASE => (2, id),
        Tok::S(id) => (3, id),
    }
}

/// Per-cycle bandwidth limiter.
#[derive(Clone, Copy, Debug, Default)]
struct Bandwidth {
    cycle: u64,
    used: u32,
}

impl Bandwidth {
    /// Returns the earliest cycle ≥ `at` with a free slot and consumes it.
    fn take(&mut self, at: u64, width: u32) -> u64 {
        if at > self.cycle {
            self.cycle = at;
            self.used = 0;
        }
        if self.used < width {
            self.used += 1;
            self.cycle
        } else {
            self.cycle += 1;
            self.used = 1;
            self.cycle
        }
    }
}

/// The out-of-order core model. Feed it µops via [`TraceSink::emit`] and
/// read the result with [`OooSim::result`].
#[derive(Clone, Debug)]
pub struct OooSim {
    config: SimConfig,
    cache: CacheSim,
    predictor: Predictor,
    /// The register scoreboard: the cycle each token's value is ready.
    ready: [Table; 4],
    rob: Window,
    rs: Window,
    lq: Window,
    sq: Window,
    load_ports: Vec<u64>,
    store_ports: Vec<u64>,
    alu_ports: Vec<u64>,
    dispatch_bw: Bandwidth,
    issue_bw: Bandwidth,
    commit_bw: Bandwidth,
    fetch_stall_until: u64,
    last_commit: u64,
    uops: u64,
    branches: u64,
    mispredicts: u64,
    classes: ClassCounts,
}

impl OooSim {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        let cache = CacheSim::new(config.memory);
        OooSim {
            cache,
            predictor: Predictor::new(),
            ready: Default::default(),
            rob: Window::new(config.rob_entries),
            rs: Window::new(config.rs_entries),
            lq: Window::new(config.load_queue),
            sq: Window::new(config.store_queue),
            load_ports: vec![0; config.load_ports],
            store_ports: vec![0; config.store_ports],
            alu_ports: vec![0; config.alu_ports],
            dispatch_bw: Bandwidth::default(),
            issue_bw: Bandwidth::default(),
            commit_bw: Bandwidth::default(),
            fetch_stall_until: 0,
            last_commit: 0,
            uops: 0,
            branches: 0,
            mispredicts: 0,
            classes: ClassCounts::default(),
            config,
        }
    }

    /// Simulator with the paper's Table 1 configuration.
    pub fn table1() -> Self {
        Self::new(SimConfig::table1())
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    fn timing(&self, class: &UopClass) -> OpTiming {
        let c = &self.config;
        match class {
            UopClass::ScalarAlu => c.scalar_alu,
            UopClass::ScalarMul => c.scalar_mul,
            UopClass::ScalarDiv => c.scalar_div,
            UopClass::Branch { .. } => c.scalar_alu,
            UopClass::VecAlu => c.vec_alu,
            UopClass::VecMul => c.vec_mul,
            UopClass::VecDiv => c.vec_div,
            UopClass::VecShuffle => c.vec_shuffle,
            UopClass::Broadcast => c.broadcast,
            UopClass::MaskOp => c.mask_op,
            UopClass::Kftm => c.kftm,
            UopClass::SelectLast => c.vpslctlast,
            UopClass::Conflict => c.vpconflictm,
            UopClass::Reduce => c.reduce,
            UopClass::TxBegin | UopClass::TxEnd => OpTiming::new(c.tx_overhead, c.tx_overhead),
            // Memory classes: the latency is computed from the cache; the
            // table entry only carries the port occupancy.
            UopClass::Load | UopClass::VecLoad | UopClass::VecLoadFF => OpTiming::new(0, 1),
            UopClass::Gather | UopClass::GatherFF => OpTiming::new(0, 1),
            UopClass::Store | UopClass::VecStore | UopClass::Scatter => OpTiming::new(1, 1),
        }
    }

    fn earliest_port(ports: &mut [u64], at: u64, busy: u64) -> u64 {
        let (idx, &free) = ports
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one port");
        let start = at.max(free);
        ports[idx] = start + busy;
        start
    }

    fn srcs_ready(&self, uop: &Uop) -> u64 {
        uop.srcs
            .iter()
            .map(|&tok| {
                let (table, id) = scoreboard_slot(tok);
                self.ready[table].get(id)
            })
            .max()
            .unwrap_or(0)
    }

    /// Looks up every cache access of a memory µop, in trace order, and
    /// passes each one's index and latency to `f`: one access per
    /// distinct run of same-line addresses for the unit-stride forms,
    /// one per address otherwise (scalar accesses, gather/scatter
    /// lanes). Returns the number of accesses.
    fn walk_accesses(
        cache: &mut CacheSim,
        uop: &Uop,
        kind: Access,
        mut f: impl FnMut(u64, u32),
    ) -> u64 {
        let unit_stride = matches!(
            uop.class,
            UopClass::VecLoad | UopClass::VecLoadFF | UopClass::VecStore
        );
        let mut n = 0;
        let mut last_line = None;
        for &addr in &uop.addrs {
            let addr = if unit_stride {
                let line = addr / LINE_BYTES;
                if last_line == Some(line) {
                    continue;
                }
                last_line = Some(line);
                line * LINE_BYTES
            } else {
                addr
            };
            f(n, cache.access(addr, kind));
            n += 1;
        }
        n
    }

    fn process(&mut self, uop: &Uop) {
        self.uops += 1;
        match &uop.class {
            UopClass::ScalarAlu
            | UopClass::ScalarMul
            | UopClass::ScalarDiv
            | UopClass::Branch { .. } => self.classes.scalar += 1,
            UopClass::VecAlu
            | UopClass::VecMul
            | UopClass::VecDiv
            | UopClass::VecShuffle
            | UopClass::Broadcast
            | UopClass::Reduce => self.classes.vector += 1,
            UopClass::MaskOp => self.classes.mask += 1,
            UopClass::Kftm | UopClass::SelectLast | UopClass::Conflict => self.classes.flexvec += 1,
            UopClass::Load
            | UopClass::Store
            | UopClass::VecLoad
            | UopClass::VecStore
            | UopClass::Gather
            | UopClass::Scatter
            | UopClass::VecLoadFF
            | UopClass::GatherFF => self.classes.memory += 1,
            UopClass::TxBegin | UopClass::TxEnd => self.classes.txn += 1,
        }
        let cfg_dispatch = self.config.dispatch_width;
        let cfg_issue = self.config.issue_width;
        let cfg_commit = self.config.commit_width;

        // --- dispatch -----------------------------------------------------
        let window_free = self
            .rob
            .available_at()
            .max(self.rs.available_at())
            .max(if uop.class.is_load() {
                self.lq.available_at()
            } else {
                0
            })
            .max(if uop.class.is_store() {
                self.sq.available_at()
            } else {
                0
            })
            .max(self.fetch_stall_until);
        let dispatch = self.dispatch_bw.take(window_free, cfg_dispatch);

        // --- issue ----------------------------------------------------------
        let ready = self.srcs_ready(uop).max(dispatch);
        let timing = self.timing(&uop.class);
        let (issue, complete) = if uop.class.is_load() {
            // One cache access per touched line for unit-stride forms, one
            // per lane for gathers; the load ports sustain 2 per cycle.
            let agu = match uop.class {
                UopClass::Gather | UopClass::GatherFF | UopClass::VecLoadFF => {
                    self.config.gather_agu_latency as u64
                }
                _ => 0,
            };
            let start = self.issue_bw.take(ready, cfg_issue);
            let mut done = start + agu;
            let load_ports = &mut self.load_ports;
            let accesses = Self::walk_accesses(&mut self.cache, uop, Access::Read, |i, lat| {
                // Two loads per cycle across the load ports.
                let slot = Self::earliest_port(load_ports, start + agu + i / 2, 1);
                done = done.max(slot + lat as u64);
            });
            if accesses == 0 {
                done = start + 1;
            }
            (start, done)
        } else if uop.class.is_store() {
            let start = self.issue_bw.take(ready, cfg_issue);
            let mut done = start + 1;
            let store_ports = &mut self.store_ports;
            Self::walk_accesses(&mut self.cache, uop, Access::Write, |i, _lat| {
                // Stores retire through the store port; the data latency
                // is hidden by the store buffer, so only occupancy counts.
                let slot = Self::earliest_port(store_ports, start + i, 1);
                done = done.max(slot + 1);
            });
            (start, done)
        } else {
            let port_start =
                Self::earliest_port(&mut self.alu_ports, ready, timing.inverse_throughput as u64);
            let start = self.issue_bw.take(port_start, cfg_issue);
            (start, start + timing.latency as u64)
        };
        self.rs.push(issue);

        // --- branches ---------------------------------------------------
        if let UopClass::Branch { id, taken } = uop.class {
            self.branches += 1;
            if !self.predictor.predict_and_update(id, taken) {
                self.mispredicts += 1;
                self.fetch_stall_until = complete + self.config.mispredict_penalty as u64;
            }
        }

        // --- writeback / commit -------------------------------------------
        if let Some(dst) = uop.dst {
            let (table, id) = scoreboard_slot(dst);
            self.ready[table].set(id, complete, dispatch);
        }
        let commit = self
            .commit_bw
            .take(complete.max(self.last_commit), cfg_commit);
        self.last_commit = commit;
        self.rob.push(commit);
        if uop.class.is_load() {
            self.lq.push(complete);
        }
        if uop.class.is_store() {
            self.sq.push(commit);
        }
    }

    /// Final statistics.
    pub fn result(&self) -> SimResult {
        let cycles = self.last_commit.max(1);
        SimResult {
            cycles,
            uops: self.uops,
            branches: self.branches,
            mispredicts: self.mispredicts,
            cache: self.cache.stats(),
            ipc: self.uops as f64 / cycles as f64,
            classes: self.classes,
        }
    }
}

impl TraceSink for OooSim {
    fn observe(&mut self, uop: &Uop) {
        self.process(uop);
    }
    fn len(&self) -> u64 {
        self.uops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(dst: u32, srcs: &[u32]) -> Uop {
        Uop::reg(
            UopClass::ScalarAlu,
            srcs.iter().map(|s| Tok::S(*s)).collect(),
            Some(Tok::S(dst)),
        )
    }

    #[test]
    fn independent_ops_superscalar() {
        // 1000 independent ALU ops on a 4-wide ALU: ~250 cycles, not 1000.
        let mut sim = OooSim::table1();
        for i in 0..1000u32 {
            sim.emit(alu(i + 1, &[]));
        }
        let r = sim.result();
        assert!(r.cycles < 400, "cycles = {}", r.cycles);
        assert!(r.ipc > 2.5, "ipc = {}", r.ipc);
    }

    #[test]
    fn dependence_chain_serializes() {
        // A 1000-deep chain: at least 1000 cycles.
        let mut sim = OooSim::table1();
        for i in 0..1000u32 {
            sim.emit(alu(i + 1, &[i]));
        }
        let r = sim.result();
        assert!(r.cycles >= 1000, "cycles = {}", r.cycles);
        assert!(r.ipc <= 1.05);
    }

    #[test]
    fn multiply_chain_has_higher_latency() {
        let chain = |class: UopClass| {
            let mut sim = OooSim::table1();
            for i in 0..500u32 {
                sim.emit(Uop::reg(
                    class.clone(),
                    vec![Tok::S(i)],
                    Some(Tok::S(i + 1)),
                ));
            }
            sim.result().cycles
        };
        let mul = chain(UopClass::ScalarMul);
        let add = chain(UopClass::ScalarAlu);
        assert!(mul > 2 * add, "mul={mul} add={add}");
    }

    #[test]
    fn cold_loads_cost_memory_latency() {
        let mut sim = OooSim::table1();
        // A chain of dependent loads to distinct cold lines.
        for i in 0..50u32 {
            sim.emit(Uop::mem(
                UopClass::Load,
                vec![Tok::S(i)],
                Some(Tok::S(i + 1)),
                vec![(i as u64) * 8192 + (1 << 24)],
            ));
        }
        let r = sim.result();
        assert!(r.cycles >= 50 * 200, "cycles = {}", r.cycles);
    }

    #[test]
    fn warm_loads_hit_l1() {
        let mut sim = OooSim::table1();
        let addr = 1 << 20;
        sim.emit(Uop::mem(
            UopClass::Load,
            vec![],
            Some(Tok::S(1)),
            vec![addr],
        ));
        for i in 1..100u32 {
            sim.emit(Uop::mem(
                UopClass::Load,
                vec![Tok::S(i)],
                Some(Tok::S(i + 1)),
                vec![addr],
            ));
        }
        let r = sim.result();
        // ~4 cycles per dependent L1 hit.
        assert!(r.cycles < 200 + 99 * 6, "cycles = {}", r.cycles);
    }

    #[test]
    fn mispredicted_branches_stall() {
        // Alternating outcome defeats the 2-bit counters roughly half the
        // time; a predictable branch costs almost nothing.
        let run = |pattern: fn(u32) -> bool| {
            let mut sim = OooSim::table1();
            for i in 0..2000u32 {
                sim.emit(Uop {
                    class: UopClass::Branch {
                        id: 7,
                        taken: pattern(i),
                    },
                    srcs: vec![],
                    dst: None,
                    addrs: vec![],
                });
            }
            sim.result()
        };
        let predictable = run(|_| true);
        let alternating = run(|i| (i / 2) % 2 == 0); // period-4 pattern
        assert!(predictable.mispredicts < 5);
        assert!(alternating.mispredicts > 500);
        assert!(alternating.cycles > 3 * predictable.cycles);
    }

    #[test]
    fn gather_charges_per_lane() {
        // A 16-lane gather to 16 distinct warm lines vs a unit-stride load
        // of one line: the gather takes noticeably longer.
        let warm = |sim: &mut OooSim, addrs: &[u64]| {
            for a in addrs {
                sim.emit(Uop::mem(UopClass::Load, vec![], None, vec![*a]));
            }
        };
        let addrs: Vec<u64> = (0..16).map(|i| (1 << 20) + i * 4096).collect();

        let mut g = OooSim::table1();
        warm(&mut g, &addrs);
        let warm_cycles = g.result().cycles;
        for rep in 0..100u32 {
            g.emit(Uop::mem(
                UopClass::Gather,
                vec![Tok::V(rep)],
                Some(Tok::V(rep + 1)),
                addrs.clone(),
            ));
        }
        let gather_cycles = g.result().cycles - warm_cycles;

        let mut u = OooSim::table1();
        warm(&mut u, &[1 << 20]);
        let warm2 = u.result().cycles;
        for rep in 0..100u32 {
            u.emit(Uop::mem(
                UopClass::VecLoad,
                vec![Tok::V(rep)],
                Some(Tok::V(rep + 1)),
                vec![1 << 20, (1 << 20) + 64],
            ));
        }
        let unit_cycles = u.result().cycles - warm2;
        assert!(
            gather_cycles > 3 * unit_cycles,
            "gather={gather_cycles} unit={unit_cycles}"
        );
    }

    #[test]
    fn store_port_is_a_bottleneck() {
        // Independent stores limited by the single store port: ~1/cycle.
        let mut sim = OooSim::table1();
        for i in 0..500u32 {
            sim.emit(Uop::mem(
                UopClass::Store,
                vec![Tok::S(0)],
                None,
                vec![(1 << 20) + (i as u64 % 8) * 64],
            ));
        }
        let r = sim.result();
        assert!(r.cycles >= 480, "cycles = {}", r.cycles);
    }

    #[test]
    fn rob_limits_outstanding_window() {
        // A 400-cycle-latency op (cold load) followed by thousands of
        // independent ALU ops: the ROB (224) caps how far ahead the core
        // runs, so commit stalls behind the load.
        let mut sim = OooSim::table1();
        sim.emit(Uop::mem(
            UopClass::Load,
            vec![],
            Some(Tok::S(1)),
            vec![1 << 26],
        ));
        sim.emit(alu(2, &[1])); // depends on the load
        for i in 10..2000u32 {
            sim.emit(alu(i, &[]));
        }
        let r = sim.result();
        // In-order commit behind the 200-cycle load pushes total cycles
        // well past the pure-ALU throughput bound.
        assert!(r.cycles > 400, "cycles = {}", r.cycles);
    }

    #[test]
    fn result_counts() {
        let mut sim = OooSim::table1();
        sim.emit(alu(1, &[]));
        sim.emit(Uop {
            class: UopClass::Branch { id: 1, taken: true },
            srcs: vec![Tok::S(1)],
            dst: None,
            addrs: vec![],
        });
        let r = sim.result();
        assert_eq!(r.uops, 2);
        assert_eq!(r.branches, 1);
        assert!(r.cycles >= 1);
    }

    #[test]
    fn class_counts_are_categorized() {
        let mut sim = OooSim::table1();
        sim.emit(alu(1, &[]));
        sim.emit(Uop::reg(UopClass::Kftm, vec![Tok::K(1)], Some(Tok::K(2))));
        sim.emit(Uop::reg(
            UopClass::SelectLast,
            vec![Tok::K(2)],
            Some(Tok::V(1)),
        ));
        sim.emit(Uop::reg(UopClass::MaskOp, vec![Tok::K(2)], Some(Tok::K(3))));
        sim.emit(Uop::mem(
            UopClass::Gather,
            vec![Tok::V(1)],
            Some(Tok::V(2)),
            vec![4096],
        ));
        sim.emit(Uop::reg(UopClass::TxBegin, vec![], None));
        let c = sim.result().classes;
        assert_eq!(c.scalar, 1);
        assert_eq!(c.flexvec, 2);
        assert_eq!(c.mask, 1);
        assert_eq!(c.memory, 1);
        assert_eq!(c.txn, 1);
    }

    /// A 100-round chain S → K → V → S through the given ids.
    fn token_chain(s: u32, k: u32, v: u32) -> SimResult {
        let mut sim = OooSim::table1();
        for _ in 0..100 {
            sim.emit(Uop::reg(
                UopClass::ScalarAlu,
                vec![Tok::V(v)],
                Some(Tok::S(s)),
            ));
            sim.emit(Uop::reg(UopClass::MaskOp, vec![Tok::S(s)], Some(Tok::K(k))));
            sim.emit(Uop::reg(UopClass::VecAlu, vec![Tok::K(k)], Some(Tok::V(v))));
        }
        sim.result()
    }

    #[test]
    fn sentinel_token_ids_time_like_small_ids() {
        // The vector executor's loop-control sentinel, the optimizer's
        // dead-mask sentinel and the largest vector id must neither size
        // an allocation nor change the timing of a chain through them.
        let small = token_chain(3, 3, 3);
        let sentinel = token_chain(u32::MAX - 1, u32::MAX, u32::MAX);
        assert!(small.cycles >= 300, "the chain serializes: {small:?}");
        assert_eq!(sentinel, small);
    }

    #[test]
    fn unwritten_sources_are_ready_at_cycle_zero() {
        let mut board: [Table; 4] = Default::default();
        for (tok, ready) in [(Tok::S(4), 9), (Tok::S(TEMP_BASE + 1), 11)] {
            let (table, id) = scoreboard_slot(tok);
            board[table].set(id, ready, 0);
        }
        let get = |tok| {
            let (table, id) = scoreboard_slot(tok);
            board[table].get(id)
        };
        for tok in [
            Tok::S(3),
            Tok::S(5),
            Tok::S(TEMP_BASE),
            Tok::S(TEMP_BASE + 2),
            Tok::S(u32::MAX - 1),
            Tok::K(u32::MAX),
            Tok::V(0),
        ] {
            assert_eq!(get(tok), 0, "{tok:?}");
        }
        assert_eq!(get(Tok::S(4)), 9);
        assert_eq!(get(Tok::S(TEMP_BASE + 1)), 11);

        // In the pipeline, a µop reading only unwritten tokens issues
        // exactly as one with no sources at all.
        let run = |srcs: Vec<Tok>| {
            let mut sim = OooSim::table1();
            sim.emit(alu(1, &[]));
            sim.emit(Uop::reg(UopClass::VecMul, srcs, Some(Tok::V(2))));
            sim.result()
        };
        let unwritten = vec![
            Tok::S(2),
            Tok::K(7),
            Tok::V(u32::MAX),
            Tok::S(TEMP_BASE + 9),
        ];
        assert_eq!(run(unwritten), run(vec![]));
    }

    #[test]
    fn live_entries_keep_their_slots_and_spent_ones_give_them_up() {
        let mut table = Table::default();
        let small = table.slots.len();
        // Two live ids that share a slot: the table grows to keep both.
        let b = (1..).find(|&id| table.index(id) == table.index(0)).unwrap();
        table.set(0, 50, 10);
        table.set(b, 60, 10);
        assert!(table.slots.len() > small);
        assert_eq!((table.get(0), table.get(b)), (50, 60));
        // The sentinels are ids like any other.
        table.set(u32::MAX, 70, 10);
        table.set(u32::MAX - 1, 80, 10);
        assert_eq!((table.get(u32::MAX), table.get(u32::MAX - 1)), (70, 80));
        // Once every entry is spent, a chain that keeps one entry live
        // at a time reuses the slots it finds: no growth.
        let len = table.slots.len();
        for id in 0..10_000 {
            table.set(id, 100 + u64::from(id), 99 + u64::from(id));
        }
        assert_eq!(table.slots.len(), len);
        assert_eq!(table.get(9_999), 10_099);
    }

    #[test]
    fn scoreboard_size_follows_the_rob_window_not_the_trace() {
        // A 5M-µop dependence chain through fresh temporaries, the shape
        // of a long scalar run: dense tables indexed by id held 5M
        // entries here.
        let mut sim = OooSim::table1();
        let mut uop = alu(0, &[0]);
        for id in TEMP_BASE..TEMP_BASE + 5_000_000 {
            uop.srcs[0] = Tok::S(id);
            uop.dst = Some(Tok::S(id + 1));
            sim.observe(&uop);
        }
        assert!(sim.result().cycles >= 5_000_000, "the chain serializes");
        let slots: usize = sim.ready.iter().map(|table| table.slots.len()).sum();
        assert!(slots <= 4096, "{slots} scoreboard slots");
    }
}
