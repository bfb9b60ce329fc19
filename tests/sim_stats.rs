//! Pins every statistic of the cycle model, not just its cycle count.
//!
//! `tests/golden/sim_stats.txt` holds the full `SimResult` (cycles,
//! µops, branches, mispredicts, hits and misses per cache level,
//! prefetches and the six µop class counts) of
//!
//! * both sides of every Table 2 workload, under `auto` and `rtm:192`,
//!   with the prefetcher on and off;
//! * ~200 seeded adversarial µop traces aimed at the model's bounded
//!   state: tokens re-read long after a ROB window, temporaries whose
//!   ids jump by 256, 1024, 65536 and 2^20 or restart, reorder buffers
//!   of 1 and 4–12 entries, the sentinel ids the executors use, storms
//!   on one cache set, streams that cross pages, and small hierarchies
//!   where prefetches land on lines L2 and L3 already hold.
//!
//! On an intentional model change, update the golden file from the
//! `actual` text in the failure message.

use std::fmt::Write as _;
use std::path::Path;

use flexvec::{vectorize, SpecRequest};
use flexvec_fuzz::Rng;
use flexvec_mem::CacheLevelConfig;
use flexvec_sim::{OooSim, SimConfig, SimResult};
use flexvec_vm::{Engine, Kernel, Tok, TraceSink, Uop, UopClass, VectorCode, TEMP_BASE};
use flexvec_workloads::all;

/// The statistics of one simulation, in the golden file's column order.
fn stats(r: &SimResult) -> String {
    let (c, k) = (&r.cache, &r.classes);
    [
        r.cycles,
        r.uops,
        r.branches,
        r.mispredicts,
        c.l1.0,
        c.l1.1,
        c.l2.0,
        c.l2.1,
        c.l3.0,
        c.l3.1,
        c.prefetches,
        k.scalar,
        k.vector,
        k.mask,
        k.flexvec,
        k.memory,
        k.txn,
    ]
    .map(|n| n.to_string())
    .join(" ")
}

fn workload_lines(actual: &mut String) {
    for w in all() {
        for (label, spec) in [
            ("auto", SpecRequest::Auto),
            ("rtm192", SpecRequest::Rtm { tile: 192 }),
        ] {
            let vectorized = vectorize(&w.program, spec).expect("vectorizes");
            let code = VectorCode::new(&vectorized.vprog, Engine::Compiled);
            let kernel = Kernel::new(&w.program, &w.arrays, w.invocations);
            for degree in [2, 0] {
                let mut config = SimConfig::table1();
                config.memory.prefetch_degree = degree;
                let mut scalar = OooSim::new(config.clone());
                let mut vector = OooSim::new(config);
                kernel
                    .check(&code, &mut scalar, &mut vector, None)
                    .unwrap_or_else(|e| panic!("{} {label}: {e}", w.name));
                for (side, sim) in [("scalar", &scalar), ("vector", &vector)] {
                    let r = stats(&sim.result());
                    writeln!(actual, "{} {label} pf{degree} {side} {r}", w.name).unwrap();
                }
            }
        }
    }
}

/// One of `options`, uniformly.
fn pick<T: Clone>(rng: &mut Rng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize].clone()
}

const SENTINELS: [Tok; 3] = [Tok::S(u32::MAX - 1), Tok::K(u32::MAX), Tok::V(u32::MAX)];

/// Generates one adversarial trace and its configuration.
struct Adversary {
    rng: Rng,
    rob: usize,
    /// Every destination written so far, in order.
    written: Vec<Tok>,
    next_temp: u32,
    /// Cursor of the page-crossing stream.
    stream: u64,
    /// Set stride of the one-set storm (one cache level's sets × line).
    storm_stride: u64,
}

impl Adversary {
    fn config(&mut self, seed: u64) -> SimConfig {
        let mut c = SimConfig::table1();
        c.rob_entries = self.rob;
        c.rs_entries = pick(&mut self.rng, &[1, 3, 8, 97]);
        c.load_queue = pick(&mut self.rng, &[1, 2, 80]);
        c.store_queue = pick(&mut self.rng, &[1, 2, 56]);
        c.memory.prefetch_degree = pick(&mut self.rng, &[0, 1, 2, 4]);
        if seed.is_multiple_of(3) {
            // A small hierarchy: evictions at every level, and
            // prefetches into L2 and L3 lines that are still resident.
            let level = |sets: u64, ways: usize, latency| CacheLevelConfig {
                size_bytes: sets * ways as u64 * 64,
                ways,
                latency,
            };
            c.memory.l1 = level(
                pick(&mut self.rng, &[1, 2, 4]),
                pick(&mut self.rng, &[1, 2]),
                4,
            );
            c.memory.l2 = level(
                pick(&mut self.rng, &[2, 4, 8]),
                pick(&mut self.rng, &[2, 4]),
                12,
            );
            c.memory.l3 = level(
                pick(&mut self.rng, &[8, 16]),
                pick(&mut self.rng, &[2, 4, 8]),
                25,
            );
        }
        let l = &c.memory;
        let sets = |level: &CacheLevelConfig| level.size_bytes / level.ways as u64;
        self.storm_stride = pick(&mut self.rng, &[sets(&l.l1), sets(&l.l2), sets(&l.l3)]);
        c
    }

    fn temp(&mut self) -> Tok {
        let id = self.next_temp;
        self.next_temp = if self.rng.chance(1) {
            TEMP_BASE + 1 // a fallback restarts the numbering
        } else if self.rng.chance(1) {
            let jump = pick(&mut self.rng, &[256, 1024, 65536, 1 << 20]);
            id.checked_add(jump).unwrap_or(TEMP_BASE)
        } else {
            id.wrapping_add(1).max(TEMP_BASE)
        };
        Tok::S(id)
    }

    fn src(&mut self) -> Tok {
        let n = self.written.len();
        match self.rng.below(20) {
            0..=8 if n > 0 => self.written[n - 1 - self.rng.below(n.min(8) as u64) as usize],
            // Written more than a ROB window ago.
            9..=11 if n > self.rob => {
                let back = self.rob + 1 + self.rng.below((n - self.rob) as u64) as usize;
                self.written[n - back]
            }
            12 | 13 => Tok::S(self.rng.below(16) as u32),
            14 => Tok::V(self.rng.below(32) as u32),
            15 => Tok::K(self.rng.below(8) as u32),
            16 => pick(&mut self.rng, &SENTINELS),
            // Never written, most likely.
            17 => Tok::S(TEMP_BASE + self.rng.below(1 << 24) as u32),
            18 => Tok::V(self.rng.next_u64() as u32),
            _ => Tok::K(self.rng.next_u64() as u32),
        }
    }

    fn scalar_dst(&mut self) -> Tok {
        match self.rng.below(20) {
            0..=11 => self.temp(),
            12..=17 => Tok::S(self.rng.below(16) as u32),
            _ => Tok::S(u32::MAX - 1),
        }
    }

    fn vector_dst(&mut self) -> Tok {
        if self.rng.chance(10) {
            Tok::V(u32::MAX)
        } else {
            Tok::V(self.rng.below(32) as u32)
        }
    }

    fn mask_dst(&mut self) -> Tok {
        if self.rng.chance(10) {
            Tok::K(u32::MAX)
        } else {
            Tok::K(self.rng.below(8) as u32)
        }
    }

    /// One address: a random line of a 64-KB region, a line of the
    /// one-set storm, or the next step of the page-crossing stream.
    fn addr(&mut self) -> u64 {
        match self.rng.below(3) {
            0 => (1 << 20) + self.rng.below(1 << 16) / 8 * 8,
            1 => (1 << 24) + self.rng.below(40) * self.storm_stride,
            _ => {
                self.stream += pick(&mut self.rng, &[8, 64, 120]);
                self.stream
            }
        }
    }

    /// Lane addresses: unit stride from one base for the unit-stride
    /// forms, one [`Self::addr`] per lane otherwise; sometimes no lane
    /// is active.
    fn lanes(&mut self, unit_stride: bool) -> Vec<u64> {
        if self.rng.chance(5) {
            return Vec::new();
        }
        let vl = pick(&mut self.rng, &[1, 8, 16, 32, 64]);
        let base = self.addr();
        (0..vl)
            .map(|i| {
                if unit_stride {
                    base + 8 * i
                } else {
                    self.addr()
                }
            })
            .collect()
    }

    fn uop(&mut self) -> Uop {
        use UopClass as C;
        let srcs: Vec<Tok> = (0..self.rng.below(4)).map(|_| self.src()).collect();
        let (class, dst, addrs) = match self.rng.below(24) {
            0..=3 => (C::ScalarAlu, Some(self.scalar_dst()), vec![]),
            4 => (C::ScalarMul, Some(self.scalar_dst()), vec![]),
            5 => (C::ScalarDiv, Some(self.scalar_dst()), vec![]),
            6 | 7 => {
                let taken = match self.rng.below(3) {
                    0 => true,
                    1 => self.written.len() % 4 < 2,
                    _ => self.rng.chance(50),
                };
                let id = pick(&mut self.rng, &[1, 2, 3, u64::MAX]);
                (C::Branch { id, taken }, None, vec![])
            }
            8 => (C::Load, Some(self.scalar_dst()), vec![self.addr()]),
            9 => (C::Store, None, vec![self.addr()]),
            10 => (C::VecAlu, Some(self.vector_dst()), vec![]),
            11 => (C::VecMul, Some(self.vector_dst()), vec![]),
            12 => (C::VecDiv, Some(self.vector_dst()), vec![]),
            13 => (
                pick(&mut self.rng, &[C::VecShuffle, C::Broadcast, C::Reduce]),
                Some(self.vector_dst()),
                vec![],
            ),
            14 => (C::MaskOp, Some(self.mask_dst()), vec![]),
            15 => (C::Kftm, Some(self.mask_dst()), vec![]),
            16 => (C::SelectLast, Some(self.vector_dst()), vec![]),
            17 => (C::Conflict, Some(self.mask_dst()), vec![]),
            18 => {
                let class = pick(&mut self.rng, &[C::VecLoad, C::VecLoadFF]);
                (class, Some(self.vector_dst()), self.lanes(true))
            }
            19 => (C::VecStore, None, self.lanes(true)),
            20 => {
                let class = pick(&mut self.rng, &[C::Gather, C::GatherFF]);
                (class, Some(self.vector_dst()), self.lanes(false))
            }
            21 => (C::Scatter, None, self.lanes(false)),
            22 => (pick(&mut self.rng, &[C::TxBegin, C::TxEnd]), None, vec![]),
            _ => (C::ScalarAlu, Some(self.temp()), vec![]),
        };
        self.written.extend(dst);
        Uop {
            class,
            srcs,
            dst,
            addrs,
        }
    }
}

fn adversarial_lines(actual: &mut String) {
    const ROBS: [usize; 12] = [1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 32, 224];
    for seed in 0..200u64 {
        let mut rng = Rng::new(seed);
        let rob = ROBS[seed as usize % ROBS.len()];
        let next_temp = TEMP_BASE + pick(&mut rng, &[0, 1, 4000, (1 << 30)]);
        let mut adversary = Adversary {
            rng,
            rob,
            written: Vec::new(),
            next_temp,
            stream: (1 << 22) - 512,
            storm_stride: 0,
        };
        let mut sim = OooSim::new(adversary.config(seed));
        for _ in 0..1500 + adversary.rng.below(2500) {
            sim.observe(&adversary.uop());
        }
        let r = stats(&sim.result());
        writeln!(actual, "adversarial{seed:03} rob{rob} {r}").unwrap();
    }
}

#[test]
fn simulated_statistics_match_the_golden_file() {
    let mut actual = String::new();
    workload_lines(&mut actual);
    adversarial_lines(&mut actual);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_stats.txt");
    let golden = std::fs::read_to_string(&path).expect("tests/golden/sim_stats.txt exists");
    let expected: String = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .find(|(a, e)| a != e)
            .map_or("(line counts differ)".to_string(), |(a, e)| {
                format!("expected {e}\n  actual {a}")
            });
        panic!(
            "simulated statistics drifted from sim_stats.txt: {first}\n--- actual ---\n{actual}"
        );
    }
}
