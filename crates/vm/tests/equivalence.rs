//! End-to-end correctness: for every loop pattern the paper vectorizes,
//! the FlexVec vector execution must agree with the scalar reference
//! interpreter on every fact `Kernel::check` compares (live-outs, the
//! induction exit value, the break flag, the iteration count and final
//! memory) — under first-faulting speculation and under the RTM code
//! path. A
//! vector access that really faults must fault where the scalar loop
//! does, on every engine.

use flexvec::{vectorize, SpecRequest, VectorizedKind};
use flexvec_ir::build::*;
use flexvec_ir::{Program, ProgramBuilder, VarId};
use flexvec_mem::{AddressSpace, ArrayId, MemFault};
use flexvec_vm::{
    run_scalar, run_vector_with_engine, Bindings, CountingSink, Engine, ExecError, Kernel,
    RunResult, UopClass, VecSink, VectorCode, VectorStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `program` both ways on identical memory images through the
/// checked execution, which compares live-outs, the induction exit
/// value, the break flag, the iteration count and every array element.
/// Returns the vector run's result and stats for extra assertions.
fn assert_equivalent(
    program: &Program,
    arrays: &[Vec<i64>],
    spec: SpecRequest,
) -> (RunResult, VectorStats, VectorizedKind) {
    let vectorized = vectorize(program, spec).expect("vectorizes");
    let kernel = Kernel::new(program, arrays, 1);
    let (_, vector) = kernel
        .check(
            &VectorCode::new(&vectorized.vprog, Engine::default()),
            &mut CountingSink::default(),
            &mut CountingSink::default(),
            None,
        )
        .unwrap_or_else(|e| panic!("{} ({spec:?}): {e}", program.name));
    (vector.result, vector.stats, vectorized.kind)
}

// ---------------------------------------------------------------------------
// Pattern 1: conditional scalar update (the Section 1.1 h264ref loop).
// ---------------------------------------------------------------------------

fn h264_loop(n: i64) -> Program {
    let mut b = ProgramBuilder::new("h264_motion");
    let pos = b.var("pos", 0);
    let max_pos = b.var("max_pos", n);
    let mcost = b.var("mcost", 0);
    let cand = b.var("cand", 0);
    let min_mcost = b.var("min_mcost", 1 << 20);
    let block_sad = b.array("block_sad");
    let spiral = b.array("spiral_srch");
    let mv = b.array("mv");
    b.live_out(min_mcost);
    b.build_loop(
        pos,
        c(0),
        var(max_pos),
        vec![if_(
            lt(ld(block_sad, var(pos)), var(min_mcost)),
            vec![
                assign(mcost, ld(block_sad, var(pos))),
                assign(cand, ld(spiral, var(pos))),
                assign(mcost, add(var(mcost), ld(mv, var(cand)))),
                if_(
                    lt(var(mcost), var(min_mcost)),
                    vec![assign(min_mcost, var(mcost))],
                ),
            ],
        )],
    )
    .unwrap()
}

fn h264_inputs(n: usize, seed: u64, update_rate: f64) -> Vec<Vec<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    // block_sad mostly large (above min_mcost threshold path), occasional
    // small values that trigger the conditional update.
    let block_sad: Vec<i64> = (0..n)
        .map(|_| {
            if rng.gen_bool(update_rate) {
                rng.gen_range(0..1000)
            } else {
                rng.gen_range(1 << 20..1 << 21)
            }
        })
        .collect();
    let spiral: Vec<i64> = (0..n).map(|_| rng.gen_range(0..n as i64)).collect();
    let mv: Vec<i64> = (0..n).map(|_| rng.gen_range(0..500)).collect();
    vec![block_sad, spiral, mv]
}

#[test]
fn h264_conditional_update_ff() {
    for (n, seed, rate) in [(64, 1, 0.1), (100, 2, 0.3), (256, 3, 0.02), (33, 4, 0.9)] {
        let p = h264_loop(n as i64);
        let (_r, stats, kind) =
            assert_equivalent(&p, &h264_inputs(n, seed, rate), SpecRequest::Auto);
        assert_eq!(kind, VectorizedKind::FlexVec);
        assert!(stats.vpl_iterations >= stats.chunks, "VPL ran each chunk");
    }
}

#[test]
fn h264_conditional_update_rtm() {
    for tile in [16, 64, 128, 256] {
        let p = h264_loop(200);
        let (_r, stats, _) =
            assert_equivalent(&p, &h264_inputs(200, 7, 0.15), SpecRequest::Rtm { tile });
        assert!(stats.rtm_commits > 0);
    }
}

#[test]
fn h264_every_lane_updates() {
    // Descending SAD: every iteration updates min_mcost — the worst case,
    // 16 partitions per chunk.
    let n = 64usize;
    let p = h264_loop(n as i64);
    let block_sad: Vec<i64> = (0..n).map(|i| 100_000 - 100 * i as i64).collect();
    let spiral: Vec<i64> = (0..n).map(|i| i as i64).collect();
    let mv: Vec<i64> = vec![1; n];
    let (_r, stats, _) = assert_equivalent(&p, &[block_sad, spiral, mv], SpecRequest::Auto);
    assert_eq!(stats.max_partitions, 16);
}

#[test]
fn h264_no_lane_updates() {
    // All SADs above the initial minimum: steady state, one partition.
    let n = 64usize;
    let p = h264_loop(n as i64);
    let block_sad: Vec<i64> = vec![1 << 21; n];
    let spiral: Vec<i64> = (0..n).map(|i| i as i64).collect();
    let mv: Vec<i64> = vec![1; n];
    let (_r, stats, _) = assert_equivalent(&p, &[block_sad, spiral, mv], SpecRequest::Auto);
    assert_eq!(stats.max_partitions, 1);
    assert_eq!(stats.ff_fallbacks, 0);
}

#[test]
fn h264_speculative_gather_faults_fall_back() {
    // Lanes whose guard is true under the *stale* minimum but false under
    // the real one execute the candidate gather speculatively. Give those
    // lanes wild spiral indices: the speculative gather faults, the FF
    // clip triggers the scalar fallback, and results must still agree
    // (scalar execution never touches those addresses).
    let n = 48usize;
    let p = h264_loop(n as i64);
    // Lane 0 updates the minimum to 10 (sad 10 + mv[0] = 0). Every other
    // lane has sad 100: stale-true (100 < 2^20), real-false (100 > 10),
    // and a wild candidate index.
    let mut block_sad = vec![100i64; n];
    block_sad[0] = 10;
    let mut spiral = vec![1i64 << 40; n];
    spiral[0] = 0;
    let mut mv = vec![0i64; n];
    mv[0] = 0;
    mv[1] = 0;
    let (_r, stats, _) = assert_equivalent(&p, &[block_sad, spiral, mv], SpecRequest::Auto);
    assert!(
        stats.ff_fallbacks > 0,
        "expected FF fallbacks, got {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Pattern 2: runtime memory conflicts (Figure 2).
// ---------------------------------------------------------------------------

fn figure2_loop(hits: i64) -> Program {
    let mut b = ProgramBuilder::new("figure2");
    let i = b.var("i", 0);
    let hits_v = b.var("hits", hits);
    let q = b.var("q", 0);
    let s = b.var("s", 0);
    let coord = b.var("coord", 0);
    let pairs_q = b.array("pairs_q");
    let pairs_s = b.array("pairs_s");
    let d_arr = b.array("d_arr");
    b.build_loop(
        i,
        c(0),
        var(hits_v),
        vec![
            assign(q, ld(pairs_q, var(i))),
            assign(s, ld(pairs_s, var(i))),
            assign(coord, sub(var(q), var(s))),
            if_(
                ge(var(s), ld(d_arr, var(coord))),
                vec![store(d_arr, var(coord), var(s))],
            ),
        ],
    )
    .unwrap()
}

fn figure2_inputs(hits: usize, coords: usize, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs_s: Vec<i64> = (0..hits).map(|_| rng.gen_range(0..1000)).collect();
    // q = s + coord so that coord = q - s lands in [0, coords).
    let pairs_q: Vec<i64> = pairs_s
        .iter()
        .map(|s| s + rng.gen_range(0..coords as i64))
        .collect();
    let d_arr = vec![0i64; coords];
    vec![pairs_q, pairs_s, d_arr]
}

#[test]
fn memory_conflict_sparse() {
    // Large coordinate space: conflicts rare.
    let p = figure2_loop(128);
    let (_r, stats, kind) =
        assert_equivalent(&p, &figure2_inputs(128, 4096, 11), SpecRequest::Auto);
    assert_eq!(kind, VectorizedKind::FlexVec);
    assert!(stats.vpl_iterations >= stats.chunks);
}

#[test]
fn memory_conflict_dense() {
    // Tiny coordinate space: heavy conflicts, many partitions.
    let p = figure2_loop(96);
    let (_r, stats, _) = assert_equivalent(&p, &figure2_inputs(96, 3, 13), SpecRequest::Auto);
    assert!(
        stats.max_partitions > 1,
        "expected partitioning, got {stats:?}"
    );
}

#[test]
fn memory_conflict_all_same_coordinate() {
    // Every iteration hits the same cell: fully serialized chunks.
    let hits = 48usize;
    let p = figure2_loop(hits as i64);
    let pairs_s: Vec<i64> = (0..hits as i64).map(|i| (i * 37) % 100).collect();
    let pairs_q: Vec<i64> = pairs_s.iter().map(|s| s + 5).collect(); // coord = 5 always
    let d_arr = vec![0i64; 16];
    let (_r, stats, _) = assert_equivalent(&p, &[pairs_q, pairs_s, d_arr], SpecRequest::Auto);
    assert_eq!(stats.max_partitions, 16);
}

#[test]
fn memory_conflict_rtm() {
    let p = figure2_loop(128);
    let (_r, stats, _) = assert_equivalent(
        &p,
        &figure2_inputs(128, 64, 17),
        SpecRequest::Rtm { tile: 64 },
    );
    assert!(stats.rtm_commits > 0);
    assert_eq!(stats.rtm_aborts, 0);
}

// ---------------------------------------------------------------------------
// Pattern 3: early loop termination (Figure 5).
// ---------------------------------------------------------------------------

fn search_loop(n: i64) -> Program {
    let mut b = ProgramBuilder::new("early_exit_search");
    let i = b.var("i", 0);
    let n_v = b.var("n", n);
    let key = b.var("key", 777);
    let best_pos = b.var("best_pos", -1);
    let t1 = b.var("t1", 0);
    let lnk = b.array("lnk");
    let val = b.array("val");
    b.live_out(best_pos);
    b.build_loop(
        i,
        c(0),
        var(n_v),
        vec![
            assign(t1, ld(val, ld(lnk, var(i)))),
            if_(eq(var(t1), var(key)), vec![assign(best_pos, var(i)), brk()]),
        ],
    )
    .unwrap()
}

fn search_inputs(n: usize, hit_at: Option<usize>, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lnk: Vec<i64> = (0..n).map(|_| rng.gen_range(0..n as i64)).collect();
    let mut val: Vec<i64> = (0..n).map(|_| rng.gen_range(0..500)).collect();
    if let Some(pos) = hit_at {
        val[lnk[pos] as usize] = 777;
        // Ensure no earlier hit.
        for (i, l) in lnk.iter().enumerate() {
            if i < pos && val[*l as usize] == 777 && *l != lnk[pos] {
                val[*l as usize] = 778;
            }
        }
    }
    vec![lnk, val]
}

#[test]
fn early_exit_hits_mid_stream() {
    for hit in [0usize, 5, 16, 17, 63, 200] {
        let p = search_loop(256);
        let inputs = search_inputs(256, Some(hit), hit as u64 + 100);
        let (r, stats, kind) = assert_equivalent(&p, &inputs, SpecRequest::Auto);
        assert_eq!(kind, VectorizedKind::FlexVec);
        assert!(r.broke);
        assert!(stats.broke);
    }
}

#[test]
fn early_exit_never_hits() {
    let p = search_loop(128);
    let mut inputs = search_inputs(128, None, 5);
    // Scrub any accidental hits.
    for v in inputs[1].iter_mut() {
        if *v == 777 {
            *v = 778;
        }
    }
    let (r, _stats, _) = assert_equivalent(&p, &inputs, SpecRequest::Auto);
    assert!(!r.broke);
    assert_eq!(r.var(VarId(3)), -1);
}

#[test]
fn early_exit_rtm() {
    let p = search_loop(256);
    let inputs = search_inputs(256, Some(90), 21);
    let (r, _stats, _) = assert_equivalent(&p, &inputs, SpecRequest::Rtm { tile: 128 });
    assert!(r.broke);
}

// ---------------------------------------------------------------------------
// Early exit with stores before the break (deferred-store machinery).
// ---------------------------------------------------------------------------

#[test]
fn early_exit_with_prior_store() {
    let mut b = ProgramBuilder::new("copy_until_sentinel");
    let i = b.var("i", 0);
    let n = b.var("n", 200);
    let t = b.var("t", 0);
    let src = b.array("src");
    let dst = b.array("dst");
    let p = b
        .build_loop(
            i,
            c(0),
            var(n),
            vec![
                assign(t, ld(src, var(i))),
                store(dst, var(i), var(t)),
                if_(eq(var(t), c(-99)), vec![brk()]),
            ],
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let mut src_data: Vec<i64> = (0..200).map(|_| rng.gen_range(0..100)).collect();
    src_data[77] = -99;
    let dst_data = vec![0i64; 200];
    let (r, _stats, _) = assert_equivalent(&p, &[src_data, dst_data], SpecRequest::Auto);
    assert!(r.broke);
}

// ---------------------------------------------------------------------------
// Traditional loops (baseline vectorizer) and reductions.
// ---------------------------------------------------------------------------

#[test]
fn traditional_elementwise() {
    let mut b = ProgramBuilder::new("saxpy_like");
    let i = b.var("i", 0);
    let x = b.array("x");
    let y = b.array("y");
    let t = b.var("t", 0);
    let p = b
        .build_loop(
            i,
            c(0),
            c(133),
            vec![
                assign(t, add(mul(ld(x, var(i)), c(3)), ld(y, var(i)))),
                store(y, var(i), var(t)),
            ],
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let x_data: Vec<i64> = (0..133).map(|_| rng.gen_range(-50..50)).collect();
    let y_data: Vec<i64> = (0..133).map(|_| rng.gen_range(-50..50)).collect();
    let (_r, _stats, kind) = assert_equivalent(&p, &[x_data, y_data], SpecRequest::Auto);
    assert_eq!(kind, VectorizedKind::Traditional);
}

#[test]
fn traditional_sum_reduction() {
    let mut b = ProgramBuilder::new("sum");
    let i = b.var("i", 0);
    let acc = b.var("acc", 100);
    let a = b.array("a");
    b.live_out(acc);
    let p = b
        .build_loop(
            i,
            c(0),
            c(77),
            vec![assign(acc, add(var(acc), ld(a, var(i))))],
        )
        .unwrap();
    let data: Vec<i64> = (0..77).map(|v| v * 3 - 50).collect();
    let (r, _stats, kind) = assert_equivalent(&p, std::slice::from_ref(&data), SpecRequest::Auto);
    assert_eq!(kind, VectorizedKind::Traditional);
    assert_eq!(r.var(acc), 100 + data.iter().sum::<i64>());
}

#[test]
fn traditional_max_reduction_with_guard() {
    // Guarded accumulation is fine as long as the reduction var is not
    // read elsewhere: acc = max(acc, a[i]) unconditionally.
    let mut b = ProgramBuilder::new("max");
    let i = b.var("i", 0);
    let acc = b.var("acc", i64::MIN);
    let a = b.array("a");
    b.live_out(acc);
    let p = b
        .build_loop(
            i,
            c(0),
            c(50),
            vec![assign(acc, max2(var(acc), ld(a, var(i))))],
        )
        .unwrap();
    let data: Vec<i64> = (0..50).map(|v| (v * 7919) % 1000 - 300).collect();
    let (r, _stats, _) = assert_equivalent(&p, std::slice::from_ref(&data), SpecRequest::Auto);
    assert_eq!(r.var(acc), *data.iter().max().unwrap());
}

// ---------------------------------------------------------------------------
// Combined pattern: conditional update + memory conflict in one loop.
// ---------------------------------------------------------------------------

#[test]
fn combined_update_and_conflict() {
    // Histogram-max: bins[idx[i]] = max(bins[idx[i]], w[i]) with a running
    // conditionally-updated global maximum... the global max is a
    // conditional update, the bins are a memory conflict.
    let mut b = ProgramBuilder::new("combined");
    let i = b.var("i", 0);
    let n = b.var("n", 96);
    let t = b.var("t", 0);
    let gmax = b.var("gmax", 0);
    let idx = b.array("idx");
    let w = b.array("w");
    let bins = b.array("bins");
    b.live_out(gmax);
    let p = b
        .build_loop(
            i,
            c(0),
            var(n),
            vec![
                assign(t, ld(w, var(i))),
                if_(
                    ge(var(t), ld(bins, ld(idx, var(i)))),
                    vec![store(bins, ld(idx, var(i)), var(t))],
                ),
                if_(gt(var(t), var(gmax)), vec![assign(gmax, var(t))]),
            ],
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(51);
    let idx_data: Vec<i64> = (0..96).map(|_| rng.gen_range(0..8)).collect();
    let w_data: Vec<i64> = (0..96).map(|_| rng.gen_range(0..1000)).collect();
    let bins_data = vec![0i64; 8];
    let (r, stats, kind) = assert_equivalent(&p, &[idx_data, w_data, bins_data], SpecRequest::Auto);
    assert_eq!(kind, VectorizedKind::FlexVec);
    assert!(
        stats.vpl_iterations > stats.chunks,
        "dense conflicts partition"
    );
    assert!(r.var(gmax) > 0);
}

// ---------------------------------------------------------------------------
// Randomized equivalence sweep over the h264 shape.
// ---------------------------------------------------------------------------

#[test]
fn randomized_sweep() {
    for seed in 0..20 {
        let n = 17 + (seed as usize * 13) % 120;
        let p = h264_loop(n as i64);
        let rate = [0.0, 0.05, 0.5, 1.0][seed as usize % 4];
        assert_equivalent(&p, &h264_inputs(n, seed, rate), SpecRequest::Auto);
        assert_equivalent(
            &p,
            &h264_inputs(n, seed, rate),
            SpecRequest::Rtm { tile: 64 },
        );
    }
}

// ---------------------------------------------------------------------------
// Faulting vector accesses: the fault order of the memory instructions.
// ---------------------------------------------------------------------------

/// A fresh address space holding `arrays`, allocated in order: the
/// fault tests read memory after the fault, which a checked run does
/// not leave behind.
fn memory(arrays: &[Vec<i64>]) -> (AddressSpace, Vec<ArrayId>) {
    let mut mem = AddressSpace::new();
    let ids = arrays
        .iter()
        .enumerate()
        .map(|(i, data)| mem.alloc_from(&format!("a{i}"), data))
        .collect();
    (mem, ids)
}

/// Runs `program` to its fault on fresh memory holding `arrays`, on the
/// scalar oracle (`engine` is `None`) or on one vector engine. Returns
/// the fault, the arrays the run left behind and its µop trace.
fn run_to_fault(
    program: &Program,
    arrays: &[Vec<i64>],
    engine: Option<Engine>,
) -> (MemFault, Vec<Vec<i64>>, VecSink) {
    let (mut mem, ids) = memory(arrays);
    let bindings = Bindings::new(ids.clone());
    let mut trace = VecSink::default();
    let result = match engine {
        None => run_scalar(program, &mut mem, bindings, &mut trace).map(|_| ()),
        Some(engine) => {
            let vprog = vectorize(program, SpecRequest::Auto)
                .expect("vectorizes")
                .vprog;
            run_vector_with_engine(program, &vprog, &mut mem, bindings, &mut trace, engine)
                .map(|_| ())
        }
    };
    let Err(ExecError::Fault(fault)) = result else {
        panic!("{engine:?}: expected a fault, got {result:?}");
    };
    let left = ids.iter().map(|id| mem.snapshot_array(*id)).collect();
    (fault, left, trace)
}

const ENGINES: [Engine; 3] = [Engine::TreeWalking, Engine::Compiled, Engine::Native];

#[test]
fn plain_gather_faults_at_its_first_faulting_lane() {
    // dst[i] = src[idx[i]] has no guard, so its gather is a plain one:
    // every lane is non-speculative and any fault is an exception.
    let mut b = ProgramBuilder::new("gather_copy");
    let i = b.var("i", 0);
    let src = b.array("src");
    let idx = b.array("idx");
    let dst = b.array("dst");
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![store(dst, var(i), ld(src, ld(idx, var(i))))],
        )
        .unwrap();
    let mix = vectorize(&p, SpecRequest::Auto).unwrap().vprog.inst_mix();
    assert_eq!((mix.gather, mix.vpgatherff), (1, 0), "{mix:?}");
    // Two indices past the last mapped page in the first chunk. Lane 3
    // comes first in lane order, lane 9 has the lower address.
    let mut idx_data: Vec<i64> = (0..64).collect();
    idx_data[3] = 1 << 40;
    idx_data[9] = 1 << 36;
    let arrays = [vec![7; 64], idx_data, vec![0; 64]];
    let (mem, ids) = memory(&arrays);
    let (want, _, _) = run_to_fault(&p, &arrays, None);
    assert_eq!(want.addr, mem.elem_addr(ids[0], 1 << 40));
    for engine in ENGINES {
        let (fault, _, trace) = run_to_fault(&p, &arrays, Some(engine));
        assert_eq!(fault, want, "{engine:?}");
        assert!(!trace.uops.is_empty(), "{engine:?}: empty trace");
        assert!(
            trace.uops.iter().all(|u| u.class != UopClass::Gather),
            "{engine:?}: the faulting gather emitted its µop"
        );
    }
}

#[test]
fn unit_stride_store_faults_at_the_guard_page_mid_vector() {
    // dst is one page long. Chunks start at i = 5 + 16k, so the chunk
    // at 501 stores lanes 0..=10 to dst's last elements and lane 11 to
    // the guard page after it.
    let mut b = ProgramBuilder::new("copy_past_end");
    let i = b.var("i", 0);
    let src = b.array("src");
    let dst = b.array("dst");
    let p = b
        .build_loop(i, c(5), c(600), vec![store(dst, var(i), ld(src, var(i)))])
        .unwrap();
    let mix = vectorize(&p, SpecRequest::Auto).unwrap().vprog.inst_mix();
    assert_eq!((mix.unit_mem, mix.scatter), (2, 0), "{mix:?}");
    let arrays = [(0..600).map(|x| 3 * x + 1).collect(), vec![0; 512]];
    let (mem, ids) = memory(&arrays);
    let (want, scalar_left, _) = run_to_fault(&p, &arrays, None);
    assert_eq!(want.addr, mem.elem_addr(ids[1], 512));
    for engine in ENGINES {
        let (fault, left, _) = run_to_fault(&p, &arrays, Some(engine));
        assert_eq!(fault, want, "{engine:?}");
        assert!(
            left == scalar_left,
            "{engine:?}: arrays differ from the scalar run's"
        );
    }
}
