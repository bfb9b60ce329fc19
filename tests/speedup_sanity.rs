//! End-to-end sanity: FlexVec-vectorized candidate loops must beat their
//! scalar baseline on the Table 1 out-of-order model when the relaxed
//! dependencies are dynamically infrequent, and degrade gracefully when
//! they are frequent. Every measurement is a checked execution, so the
//! vector code must also agree with the scalar loop.

use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::{Program, ProgramBuilder};
use flexvec_sim::OooSim;
use flexvec_vm::{Engine, Kernel, VectorCode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Returns (scalar_cycles, vector_cycles) for the program on fresh
/// memory images, once the checked execution has found the two runs
/// equivalent.
fn measure(program: &Program, arrays: &[Vec<i64>], spec: SpecRequest) -> (u64, u64) {
    let vectorized = vectorize(program, spec).expect("vectorizes");
    let kernel = Kernel::new(program, arrays, 1);
    let (mut sim_s, mut sim_v) = (OooSim::table1(), OooSim::table1());
    if let Err(e) = kernel.check(
        &VectorCode::new(&vectorized.vprog, Engine::default()),
        &mut sim_s,
        &mut sim_v,
        None,
    ) {
        panic!("{}: {e}", program.name);
    }
    (sim_s.result().cycles, sim_v.result().cycles)
}

fn h264_inputs(n: usize, update_rate: f64, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Elements flagged by `update_rate` draw from a steeply decreasing
    // envelope, so every flagged element is a fresh running minimum (the
    // 1000-per-position step dominates the ±400 mv noise added to mcost).
    // That makes `update_rate` directly control how often the loop-carried
    // min_mcost dependence fires — i.i.d. small values would collapse to
    // ~ln(n) total updates no matter the rate, hiding the erosion the
    // dense case is meant to exercise.
    let block_sad: Vec<i64> = (0..n)
        .map(|pos| {
            if rng.gen_bool(update_rate) {
                (1 << 19) - 1000 * pos as i64 + rng.gen_range(0..100)
            } else {
                rng.gen_range(1 << 20..1 << 21)
            }
        })
        .collect();
    let spiral: Vec<i64> = (0..n).map(|_| rng.gen_range(0..n as i64)).collect();
    let mv: Vec<i64> = (0..n).map(|_| rng.gen_range(0..400)).collect();
    vec![block_sad, spiral, mv]
}

#[test]
fn flexvec_beats_scalar_on_infrequent_updates() {
    let n = 2048;
    let p = h264_loop(n as i64);
    let (scalar, vector) = measure(&p, &h264_inputs(n, 0.02, 3), SpecRequest::Auto);
    let speedup = scalar as f64 / vector as f64;
    assert!(
        speedup > 1.15,
        "expected a clear win on a 2% update rate, got {speedup:.2} ({scalar} vs {vector})"
    );
}

#[test]
fn frequent_updates_erode_the_win() {
    let n = 2048;
    let p = h264_loop(n as i64);
    let (s_rare, v_rare) = measure(&p, &h264_inputs(n, 0.02, 5), SpecRequest::Auto);
    let (s_dense, v_dense) = measure(&p, &h264_inputs(n, 0.9, 5), SpecRequest::Auto);
    let rare = s_rare as f64 / v_rare as f64;
    let dense = s_dense as f64 / v_dense as f64;
    assert!(
        rare > dense,
        "speedup should shrink as updates get frequent: rare={rare:.2} dense={dense:.2}"
    );
}
