//! Directed tests for the all-or-nothing speculative-vectorization
//! baseline (`VectorCode::all_or_nothing`), the Section 2 PACT'13
//! comparator: clean chunks execute as vector code, any detected
//! dependency rolls the whole chunk back to scalar code, and loops whose
//! VPL commits stores are rejected up front. Every run is checked
//! against the scalar loop.

use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::{Program, ProgramBuilder, VarId};
use flexvec_vm::{
    CheckError, CountingSink, Engine, ExecError, Kernel, RunResult, TraceSink, VectorCode,
    VectorStats,
};

fn cond_min(n: i64) -> Program {
    let mut b = ProgramBuilder::new("cond_min");
    let i = b.var("i", 0);
    let best = b.var("best", 1 << 20);
    let a = b.array("a");
    b.live_out(best);
    b.build_loop(
        i,
        c(0),
        c(n),
        vec![if_(
            lt(ld(a, var(i)), var(best)),
            vec![assign(best, ld(a, var(i)))],
        )],
    )
    .unwrap()
}

/// Runs `program` on the default engine, in all-or-nothing mode when
/// `aon` is set and FlexVec mode otherwise, checked against the scalar
/// loop. Returns the vector run, its stats and its µop count.
fn run_checked(
    program: &Program,
    arrays: &[Vec<i64>],
    aon: bool,
) -> Result<(RunResult, VectorStats, u64), CheckError> {
    let vprog = vectorize(program, SpecRequest::Auto)
        .expect("vectorizes")
        .vprog;
    let mut code = VectorCode::new(&vprog, Engine::default());
    if aon {
        code = code.all_or_nothing();
    }
    let kernel = Kernel::new(program, arrays, 1);
    let mut sink = CountingSink::default();
    let (_, vector) = kernel.check(&code, &mut CountingSink::default(), &mut sink, None)?;
    Ok((vector.result, vector.stats, sink.len()))
}

#[test]
fn clean_chunks_run_vectorized() {
    // Minimum in the first element: after chunk 0 no further updates, so
    // chunks 1.. are clean and never fall back.
    let n = 160usize;
    let mut data = vec![900i64; n];
    data[0] = 1;
    let (_, stats, _) = run_checked(&cond_min(n as i64), &[data], true).unwrap();
    assert_eq!(stats.chunks as usize, n / 16);
    // Only the first chunk (containing the single update) falls back.
    assert_eq!(stats.ff_fallbacks, 1, "{stats:?}");
}

#[test]
fn every_dirty_chunk_falls_back() {
    // One update per 16-iteration chunk: the baseline falls back on every
    // chunk — the paper's "constant rollbacks" regime.
    let n = 128usize;
    let mut data = vec![1 << 18; n];
    for chunk in 0..n / 16 {
        data[chunk * 16 + 7] = 1000 - chunk as i64; // strictly improving
    }
    let (_, stats, _) = run_checked(&cond_min(n as i64), &[data], true).unwrap();
    assert_eq!(stats.ff_fallbacks as usize, n / 16, "{stats:?}");
}

#[test]
fn early_exit_rolls_back_to_scalar() {
    let mut b = ProgramBuilder::new("find");
    let i = b.var("i", 0);
    let t = b.var("t", 0);
    let pos = b.var("pos", -1);
    let a = b.array("a");
    b.live_out(pos);
    let p = b
        .build_loop(
            i,
            c(0),
            c(96),
            vec![
                assign(t, ld(a, var(i))),
                if_(eq(var(t), c(-3)), vec![assign(pos, var(i)), brk()]),
            ],
        )
        .unwrap();
    let mut data = vec![5i64; 96];
    data[40] = -3;
    let (r, stats, _) = run_checked(&p, &[data], true).unwrap();
    assert!(r.broke);
    assert_eq!(r.var(VarId(2)), 40);
    assert_eq!(r.var(VarId(0)), 40);
    // The exit chunk (chunk 2) rolled back to scalar.
    assert!(stats.ff_fallbacks >= 1, "{stats:?}");
}

#[test]
fn vpl_stores_are_rejected() {
    // A memory-conflict loop commits stores inside its VPL; the baseline
    // cannot roll those back and must refuse.
    let mut b = ProgramBuilder::new("conflict");
    let i = b.var("i", 0);
    let s = b.var("s", 0);
    let idx = b.array("idx");
    let acc = b.array("acc");
    let p = b
        .build_loop(
            i,
            c(0),
            c(32),
            vec![
                assign(s, ld(idx, var(i))),
                store(acc, var(s), add(ld(acc, var(s)), c(1))),
            ],
        )
        .unwrap();
    let err = run_checked(&p, &[vec![0; 32], vec![0; 4]], true).unwrap_err();
    assert!(
        matches!(err, CheckError::Vector(ExecError::Internal(_))),
        "{err}"
    );
}

#[test]
fn aon_is_never_faster_than_flexvec_on_dirty_data() {
    // Same trace fed to the timing model: with one update per chunk the
    // baseline's rollbacks must cost µops (vector attempt + scalar redo).
    let n = 256usize;
    let mut data = vec![1 << 18; n];
    for chunk in 0..n / 16 {
        data[chunk * 16 + 3] = 5000 - chunk as i64;
    }
    let p = cond_min(n as i64);
    let count_uops = |aon| run_checked(&p, std::slice::from_ref(&data), aon).unwrap().2;
    let aon_uops = count_uops(true);
    let flexvec_uops = count_uops(false);
    assert!(
        aon_uops > flexvec_uops,
        "rollbacks must cost µops: aon {aon_uops} vs flexvec {flexvec_uops}"
    );
}
