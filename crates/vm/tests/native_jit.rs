//! Native-tier specific checks: the JIT must actually engage on
//! x86_64-linux (not silently fall back), and a natively-executed
//! program must agree with the scalar loop, like the tree walker, and
//! be bit-identical to the tree walker in stats and the full µop trace.

use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::{Program, ProgramBuilder};
use flexvec_vm::{
    native_supported, CompiledVProg, CountingSink, Engine, Kernel, VecSink, VectorCode, VectorStats,
};

const LEN: usize = 64;

/// A straight-line-heavy loop: a long chain of vector arithmetic, a
/// compare-guarded update, and a store — the shape the JIT targets.
fn straight_line_program() -> Program {
    let mut b = ProgramBuilder::new("straight_line");
    let i = b.var("i", 0);
    let acc = b.var("acc", 0);
    let t = b.var("t", 0);
    let data = b.array("data");
    let out = b.array("out");
    b.live_out(acc);
    let body = vec![
        assign(
            t,
            add(mul(ld(data, band(var(i), c(63))), c(3)), sub(var(i), c(7))),
        ),
        assign(t, band(var(t), c(0xffff))),
        if_(gt(var(t), var(acc)), vec![assign(acc, var(t))]),
        store(out, band(var(i), c(63)), var(t)),
    ];
    b.build_loop(i, c(0), c(200), body).unwrap()
}

/// Runs the program on `engine`, checked against the scalar loop
/// (live-outs, induction exit, break flag, iteration count, memory);
/// returns the vector run's stats and µop trace.
fn run(program: &Program, engine: Engine) -> (VectorStats, VecSink) {
    let vprog = vectorize(program, SpecRequest::Auto)
        .expect("vectorizes")
        .vprog;
    let data: Vec<i64> = (0..LEN as i64).map(|x| x * 17 % 1000).collect();
    let arrays = [data, vec![0i64; LEN]];
    let kernel = Kernel::new(program, &arrays, 1);
    let mut sink = VecSink::default();
    let code = VectorCode::new(&vprog, engine);
    let (_, vector) = kernel
        .check(&code, &mut CountingSink::default(), &mut sink, None)
        .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
    (vector.stats, sink)
}

#[test]
fn native_tier_engages_on_supported_hosts() {
    let program = straight_line_program();
    let vectorized = vectorize(&program, SpecRequest::Auto).expect("vectorizes");
    let mut compiled = CompiledVProg::compile(&vectorized.vprog);
    let enabled = compiled.enable_native();
    assert_eq!(enabled, native_supported());
    assert_eq!(compiled.has_native(), native_supported());
    if native_supported() {
        let (segments, inline_ops, helper_ops, code_bytes) = compiled.native_info();
        assert!(segments > 0, "straight-line body must yield segments");
        assert!(
            inline_ops > 0,
            "arithmetic must compile inline, not via helpers (inline={inline_ops}, helper={helper_ops})"
        );
        assert!(code_bytes > 0);
    }
}

#[test]
fn native_matches_tree_walker_exactly() {
    let program = straight_line_program();
    let (tree_stats, tree_sink) = run(&program, Engine::TreeWalking);
    let (nat_stats, nat_sink) = run(&program, Engine::Native);
    assert_eq!(tree_stats, nat_stats, "stats differ");
    assert_eq!(
        tree_sink.uops.len(),
        nat_sink.uops.len(),
        "trace length differs"
    );
    for (i, (a, b)) in tree_sink.uops.iter().zip(&nat_sink.uops).enumerate() {
        assert_eq!(a, b, "µop {i} differs");
    }
}

#[test]
fn enable_native_is_idempotent() {
    let program = straight_line_program();
    let vectorized = vectorize(&program, SpecRequest::Auto).expect("vectorizes");
    let mut compiled = CompiledVProg::compile(&vectorized.vprog);
    let first = compiled.enable_native();
    let second = compiled.enable_native();
    assert_eq!(first, second);
}
