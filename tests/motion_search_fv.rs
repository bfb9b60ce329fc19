//! The builder-API motion-search loop (`examples/motion_search.rs`) and
//! its `.fv` port (`examples/motion_search.fv`) must be the same
//! program: structurally identical ASTs, the same vectorization
//! verdict, and the same live-outs when executed scalar and vector.

use std::path::Path;

use flexvec::{analyze, vectorize, SpecRequest};
use flexvec_front::{parse_file, verdict_summary, ParsedKernel};
use flexvec_ir::build::*;
use flexvec_ir::{Program, ProgramBuilder};
use flexvec_vm::{CountingSink, Engine, Kernel, VectorCode};

/// The builder-API version, mirroring `examples/motion_search.rs` at
/// `n = 512` (the trip count the `.fv` file declares).
fn builder_version() -> Program {
    let mut b = ProgramBuilder::new("h264_motion_search");
    let pos = b.var("pos", 0);
    let max_pos = b.var("max_pos", 512);
    let mcost = b.var("mcost", 0);
    let cand = b.var("cand", 0);
    let min_mcost = b.var("min_mcost", 1 << 24);
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
    .expect("valid program")
}

fn fv_version() -> ParsedKernel {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/motion_search.fv");
    parse_file(&path)
        .unwrap_or_else(|d| panic!("examples/motion_search.fv must parse: {}", d.summary()))
}

/// Runs a program scalar and vector on the given arrays through the
/// checked execution and returns the live-out values (verified equal).
fn live_outs(program: &Program, arrays: &[Vec<i64>]) -> Vec<i64> {
    let vectorized = vectorize(program, SpecRequest::Auto).expect("motion search vectorizes");
    let kernel = Kernel::new(program, arrays, 1);
    let (scalar, _) = kernel
        .check(
            &VectorCode::new(&vectorized.vprog, Engine::default()),
            &mut CountingSink::default(),
            &mut CountingSink::default(),
            None,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", program.name));
    scalar
        .live_outs(program)
        .into_iter()
        .map(|(_, v)| v)
        .collect()
}

#[test]
fn fv_port_is_the_same_program() {
    let kernel = fv_version();
    assert_eq!(kernel.program, builder_version(), "ASTs must be identical");
}

#[test]
fn fv_port_gets_the_same_verdict() {
    let kernel = fv_version();
    let fv_verdict = verdict_summary(&analyze(&kernel.program).verdict);
    let builder_verdict = verdict_summary(&analyze(&builder_version()).verdict);
    assert_eq!(fv_verdict, builder_verdict);
    assert!(
        fv_verdict.contains("flexvec"),
        "motion search must be FlexVec-vectorizable, got: {fv_verdict}"
    );
}

#[test]
fn fv_port_computes_the_same_live_outs() {
    let kernel = fv_version();
    // Use the `.fv` file's declared (seeded) inputs for both versions so
    // the comparison is apples-to-apples.
    let arrays = kernel.materialize_arrays();
    let from_fv = live_outs(&kernel.program, &arrays);
    let from_builder = live_outs(&builder_version(), &arrays);
    assert_eq!(from_fv, from_builder);
    // min_mcost must actually have been improved from its 1<<24 init by
    // the seeded data, otherwise the kernel exercises nothing.
    assert!(from_fv[0] < 1 << 24, "min_mcost never updated: {from_fv:?}");
}
