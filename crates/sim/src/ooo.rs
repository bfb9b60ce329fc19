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
//!   tokens (dense tables indexed by token id, see [`Scoreboard`]); an
//!   instruction issues when its sources are ready;
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
//! Processing a µop does no hashing, and no heap allocation beyond the
//! scoreboard tables' amortized growth: the scoreboard is a set of dense
//! tables indexed by token id, and the cache walk reads the µop's
//! addresses in place.

use std::collections::VecDeque;

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

/// Ring buffer recording the release times of a window resource.
#[derive(Clone, Debug)]
struct Window {
    times: VecDeque<u64>,
    capacity: usize,
}

impl Window {
    fn new(capacity: usize) -> Self {
        Window {
            times: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Earliest cycle a new entry may allocate.
    fn available_at(&self) -> u64 {
        if self.times.len() < self.capacity {
            0
        } else {
            self.times[0]
        }
    }

    fn push(&mut self, release: u64) {
        if self.times.len() == self.capacity {
            self.times.pop_front();
        }
        self.times.push_back(release);
    }
}

/// Size a token table may grow to regardless of its current length.
const MIN_TABLE: usize = 256;

/// Ready cycles of one token class, indexed by token id.
///
/// Ids are expected to be small and dense (virtual registers, program
/// variables, temporaries numbered upward). An id that would more than
/// double the table — a sentinel such as `Tok::S(u32::MAX - 1)` — lives
/// on a short side list instead, and is folded back into the table if
/// the table ever grows past it. So no id alone sets an allocation size.
#[derive(Clone, Debug, Default)]
struct Table {
    dense: Vec<u64>,
    /// `(id, ready)` pairs for ids at or past `dense.len()`.
    side: Vec<(u32, u64)>,
}

impl Table {
    /// The ready cycle of `id`; 0 if it was never written.
    fn get(&self, id: u32) -> u64 {
        match self.dense.get(id as usize) {
            Some(&ready) => ready,
            None => self
                .side
                .iter()
                .find(|&&(i, _)| i == id)
                .map_or(0, |&(_, ready)| ready),
        }
    }

    fn set(&mut self, id: u32, ready: u64) {
        let idx = id as usize;
        if let Some(slot) = self.dense.get_mut(idx) {
            *slot = ready;
            return;
        }
        let limit = (2 * self.dense.len()).max(MIN_TABLE);
        if idx < limit {
            self.dense.resize(limit, 0);
            let dense = &mut self.dense;
            self.side.retain(|&(i, r)| match dense.get_mut(i as usize) {
                Some(slot) => {
                    *slot = r;
                    false
                }
                None => true,
            });
            self.dense[idx] = ready;
        } else if let Some(entry) = self.side.iter_mut().find(|(i, _)| *i == id) {
            entry.1 = ready;
        } else {
            self.side.push((id, ready));
        }
    }
}

/// The register scoreboard: the cycle each token's value is ready, one
/// [`Table`] per token class. Scalar temporaries (ids from
/// [`TEMP_BASE`] up) get their own table, offset by `TEMP_BASE`, so the
/// program variables below it and the temporaries above it both index
/// from 0.
#[derive(Clone, Debug, Default)]
struct Scoreboard {
    v: Table,
    k: Table,
    s: Table,
    temp: Table,
}

impl Scoreboard {
    fn get(&self, tok: Tok) -> u64 {
        match tok {
            Tok::V(id) => self.v.get(id),
            Tok::K(id) => self.k.get(id),
            Tok::S(id) if id < TEMP_BASE => self.s.get(id),
            Tok::S(id) => self.temp.get(id - TEMP_BASE),
        }
    }

    fn set(&mut self, tok: Tok, ready: u64) {
        match tok {
            Tok::V(id) => self.v.set(id, ready),
            Tok::K(id) => self.k.set(id, ready),
            Tok::S(id) if id < TEMP_BASE => self.s.set(id, ready),
            Tok::S(id) => self.temp.set(id - TEMP_BASE, ready),
        }
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
    ready: Scoreboard,
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
            ready: Scoreboard::default(),
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
            .map(|&t| self.ready.get(t))
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
            self.ready.set(dst, complete);
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
        let mut board = Scoreboard::default();
        board.set(Tok::S(4), 9);
        board.set(Tok::S(TEMP_BASE + 1), 11);
        for tok in [
            Tok::S(3),
            Tok::S(5),
            Tok::S(TEMP_BASE),
            Tok::S(TEMP_BASE + 2),
            Tok::S(u32::MAX - 1),
            Tok::K(u32::MAX),
            Tok::V(0),
        ] {
            assert_eq!(board.get(tok), 0, "{tok:?}");
        }
        assert_eq!(board.get(Tok::S(4)), 9);
        assert_eq!(board.get(Tok::S(TEMP_BASE + 1)), 11);

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
    fn side_list_folds_back_when_the_table_grows_past_it() {
        let mut table = Table::default();
        table.set(1000, 7);
        assert!(table.dense.is_empty(), "a far id must not size the table");
        assert_eq!(table.get(1000), 7);
        table.set(1000, 8);
        assert_eq!(table.side, vec![(1000, 8)]);
        // Ids numbered upward, as scalar temporaries are, grow the table
        // by doubling until it covers the side-list id.
        for id in 0..600 {
            table.set(id, u64::from(id) + 1);
        }
        assert!(table.side.is_empty());
        assert_eq!(table.get(1000), 8);
        assert_eq!(table.get(599), 600);
        assert_eq!(table.get(600), 0);
    }
}
