//! Randomized crosscheck of the compiled bytecode engine against the
//! tree-walking reference executor: for random `VProg`s drawn from the
//! supported pattern grammar (conditional updates, guarded speculative
//! loads, indirect read-modify-writes, early exits) and random inputs,
//! the two engines must agree on *everything* observable — live-outs,
//! the final induction value, `VectorStats`, every byte of memory, and
//! the exact µop trace — under plain, first-faulting, and RTM
//! speculation.

use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::{Expr, Program, ProgramBuilder, Stmt, VarId};
use flexvec_vm::{CountingSink, Engine, ExecError, Execution, Kernel, VecSink, VectorCode};
use proptest::prelude::*;

const ARRAY_LEN: usize = 64;
const IDX_MASK: i64 = 63;

#[derive(Debug, Clone)]
struct Case {
    program: Program,
    arrays: Vec<Vec<i64>>,
}

fn leaf(vars: &[VarId], pick: u8, konst: i64) -> Expr {
    if vars.is_empty() || pick.is_multiple_of(3) {
        c(konst % 100)
    } else {
        var(vars[(pick as usize / 3) % vars.len()])
    }
}

fn arith(vars: &[VarId], seed: &[u8], konst: i64) -> Expr {
    match seed.first().copied().unwrap_or(0) % 5 {
        0 => leaf(vars, seed.get(1).copied().unwrap_or(0), konst),
        1 => add(
            leaf(vars, seed.get(1).copied().unwrap_or(0), konst),
            leaf(vars, seed.get(2).copied().unwrap_or(1), konst + 1),
        ),
        2 => sub(
            leaf(vars, seed.get(1).copied().unwrap_or(0), konst),
            leaf(vars, seed.get(2).copied().unwrap_or(1), konst + 3),
        ),
        3 => mul(
            leaf(vars, seed.get(1).copied().unwrap_or(0), konst),
            c(konst % 7 + 1),
        ),
        _ => max2(
            leaf(vars, seed.get(1).copied().unwrap_or(0), konst),
            leaf(vars, seed.get(2).copied().unwrap_or(1), konst - 5),
        ),
    }
}

#[derive(Debug, Clone)]
struct CaseSpec {
    n: i64,
    with_update: bool,
    with_guarded_load: bool,
    with_conflict: bool,
    with_break: bool,
    expr_seed: Vec<u8>,
    data_seed: u64,
    update_threshold: i64,
    break_threshold: i64,
}

fn case_spec() -> impl Strategy<Value = CaseSpec> {
    (
        17i64..120,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(any::<u8>(), 8),
        any::<u64>(),
        0i64..2000,
        0i64..2000,
    )
        .prop_map(
            |(n, upd, gl, cf, br, expr_seed, data_seed, ut, bt)| CaseSpec {
                n,
                with_update: upd,
                with_guarded_load: gl && !cf, // FF + VPL stores is rejected by design
                with_conflict: cf,
                with_break: br,
                expr_seed,
                data_seed,
                update_threshold: ut,
                break_threshold: bt,
            },
        )
}

fn build_case(spec: &CaseSpec) -> Option<Case> {
    let mut b = ProgramBuilder::new("crosscheck");
    let i = b.var("i", 0);
    let n = b.var("n", spec.n);
    let t = b.var("t", 0);
    let data = b.array("data");
    let aux = b.array("aux");
    let mut body: Vec<Stmt> = Vec::new();

    body.push(assign(
        t,
        add(
            ld(data, band(var(i), c(IDX_MASK))),
            arith(&[i], &spec.expr_seed, spec.update_threshold),
        ),
    ));

    if spec.with_break {
        body.push(if_(
            gt(var(t), c(100_000 + spec.break_threshold * 50)),
            vec![brk()],
        ));
    }

    let mut live_outs = vec![t];
    if spec.with_update {
        let best_v = b.var("best", 1 << 20);
        live_outs.push(best_v);
        if spec.with_guarded_load {
            let u = b.var("u", 0);
            body.push(if_(
                lt(var(t), var(best_v)),
                vec![
                    assign(u, add(var(t), ld(aux, band(var(t), c(IDX_MASK))))),
                    if_(lt(var(u), var(best_v)), vec![assign(best_v, var(u))]),
                ],
            ));
        } else {
            body.push(if_(lt(var(t), var(best_v)), vec![assign(best_v, var(t))]));
        }
    }

    if spec.with_conflict {
        let k = b.var("k", 0);
        body.push(assign(
            k,
            band(ld(data, band(var(i), c(IDX_MASK))), c(IDX_MASK)),
        ));
        body.push(store(aux, var(k), add(ld(aux, var(k)), var(t))));
    }

    for v in live_outs {
        b.live_out(v);
    }
    let program = b.build_loop(i, c(0), var(n), body).ok()?;

    let mut state = spec.data_seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64) % 1000
    };
    let data_arr: Vec<i64> = (0..ARRAY_LEN).map(|_| next().abs()).collect();
    let aux_arr: Vec<i64> = (0..ARRAY_LEN).map(|_| next().abs() % 500).collect();
    Some(Case {
        program,
        arrays: vec![data_arr, aux_arr],
    })
}

fn kernel(case: &Case) -> Kernel<'_> {
    Kernel::new(&case.program, &case.arrays, 1)
}

/// Runs one engine on a fresh memory image; returns the execution and
/// its µop trace.
fn run_engine(
    case: &Case,
    vprog: &flexvec::VProg,
    engine: Engine,
) -> Result<(Execution, VecSink), ExecError> {
    let mut sink = VecSink::default();
    let run = kernel(case).run_vector(&VectorCode::new(vprog, engine), &mut sink, None)?;
    Ok((run, sink))
}

fn check_engines_agree(case: &Case, spec_req: SpecRequest) -> Result<(), TestCaseError> {
    let Ok(vectorized) = vectorize(&case.program, spec_req) else {
        // Some generated combinations are legitimately rejected
        // (documented Unsupported shapes); that is not a failure.
        return Ok(());
    };

    let (tree, tree_sink) =
        run_engine(case, &vectorized.vprog, Engine::TreeWalking).expect("vector execution");

    // On non-x86_64 hosts `Engine::Native` silently runs the bytecode
    // tier, so including it is at worst a duplicate of `Compiled`.
    for engine in [Engine::Compiled, Engine::Native] {
        let (comp, comp_sink) =
            run_engine(case, &vectorized.vprog, engine).expect("vector execution");
        // The five checked facts, with the tree walker as the reference.
        if let Err(m) = kernel(case).compare(&tree, &comp) {
            prop_assert!(false, "{m}: tree vs {engine:?}\n{}", case.program);
        }
        prop_assert_eq!(
            tree.stats,
            comp.stats,
            "VectorStats differ between tree and {:?}\n{}",
            engine,
            case.program
        );
        prop_assert_eq!(
            tree_sink.uops.len(),
            comp_sink.uops.len(),
            "trace length differs between tree and {:?}\n{}",
            engine,
            case.program
        );
        for (i, (a, b)) in tree_sink.uops.iter().zip(&comp_sink.uops).enumerate() {
            prop_assert_eq!(
                a,
                b,
                "µop {} differs between tree and {:?}\n{}",
                i,
                engine,
                case.program
            );
        }
    }
    Ok(())
}

/// Forces every VPL in `vprog` to stall: the repeat mask is pinned to
/// all-ones at the end of each partition, modeling codegen whose `kftm`
/// EXC produced an empty safe prefix (stop bit in lane 0) so `k_todo`
/// never shrinks. With `drop_stores`, VPL-interior stores are removed
/// first, so the stalled chunk has committed nothing to memory.
fn stall_vpls(nodes: &mut [flexvec::VNode], drop_stores: bool) -> bool {
    use flexvec::{VNode, VOp};
    let mut found = false;
    for node in nodes.iter_mut() {
        if let VNode::Vpl { body, repeat_if } = node {
            found = true;
            stall_vpls(body, drop_stores);
            if drop_stores {
                body.retain(|n| !matches!(n, VNode::Op(VOp::MemWrite { .. })));
            }
            body.push(VNode::Op(VOp::KConst {
                dst: *repeat_if,
                bits: 0xffff,
            }));
        }
    }
    found
}

/// A fully conflicting read-modify-write: every lane of the chunk hits
/// `aux[0]`, so the VPL serializes to one lane per partition — the
/// shape whose degenerate (stalled) variant the forward-progress fix
/// covers.
fn serialized_rmw_case() -> Case {
    let mut b = ProgramBuilder::new("serialized_rmw");
    let i = b.var("i", 0);
    let t = b.var("t", 0);
    let k = b.var("k", 0);
    let data = b.array("data");
    let aux = b.array("aux");
    b.live_out(t);
    // The index is data-dependent (invisible to static analysis), but
    // the input data pins every lane to `aux[0]`.
    let body = vec![
        assign(t, add(ld(data, band(var(i), c(IDX_MASK))), var(i))),
        assign(k, band(ld(data, band(var(i), c(IDX_MASK))), c(IDX_MASK))),
        store(aux, var(k), add(ld(aux, var(k)), var(t))),
    ];
    let program = b.build_loop(i, c(0), c(40), body).unwrap();
    let data_arr = vec![64i64; ARRAY_LEN];
    let aux_arr = vec![0i64; ARRAY_LEN];
    Case {
        program,
        arrays: vec![data_arr, aux_arr],
    }
}

#[test]
fn stalled_vpl_without_stores_falls_back_to_scalar() {
    // A VPL whose partitions retire no lanes must not spin or
    // hard-error when the chunk has not touched memory: both engines
    // take the chunk-level scalar fallback, which reproduces the exact
    // scalar semantics of the original loop.
    let case = serialized_rmw_case();
    let vectorized = vectorize(&case.program, SpecRequest::Auto).expect("vectorizes");
    let mut stalled = vectorized.vprog.clone();
    assert!(
        stall_vpls(&mut stalled.body, true),
        "shape must contain a VPL"
    );

    let reference = kernel(&case)
        .run_scalar(&mut CountingSink::default(), None)
        .expect("scalar reference");
    let (tree, tree_sink) = run_engine(&case, &stalled, Engine::TreeWalking).expect("runs");
    let (comp, comp_sink) = run_engine(&case, &stalled, Engine::Native).expect("runs");
    for run in [&tree, &comp] {
        assert_eq!(kernel(&case).compare(&reference, run), Ok(()));
    }
    let (tree_stats, comp_stats) = (tree.stats, comp.stats);
    assert_eq!(tree_stats, comp_stats, "engines must agree on stats");
    assert!(
        tree_stats.ff_fallbacks >= 1,
        "the stalled chunk must fall back: {tree_stats:?}"
    );
    assert_eq!(
        tree_stats.max_partitions, 0,
        "no VPL ever completes, so no partition count is recorded"
    );
    assert_eq!(
        tree_sink.uops, comp_sink.uops,
        "engines must agree on the trace"
    );
}

#[test]
fn stalled_vpl_with_committed_stores_is_a_hard_error_under_ff() {
    // Once a store from the stalled chunk has reached real memory the
    // scalar re-run would double-commit it, so first-faulting execution
    // must surface VplDivergence instead — identically in both engines.
    let case = serialized_rmw_case();
    let vectorized = vectorize(&case.program, SpecRequest::Auto).expect("vectorizes");
    let mut stalled = vectorized.vprog.clone();
    assert!(stall_vpls(&mut stalled.body, false));

    for engine in [Engine::TreeWalking, Engine::Compiled, Engine::Native] {
        let err = run_engine(&case, &stalled, engine)
            .err()
            .expect("stalled VPL with committed stores cannot be replayed");
        assert!(
            matches!(err, ExecError::VplDivergence),
            "{engine:?}: {err:?}"
        );
    }
}

#[test]
fn stalled_vpl_under_rtm_falls_back_to_scalar_tiles() {
    // RTM aborts the transaction before falling back, so even a stalled
    // VPL *with* stores re-runs safely as a scalar tile.
    let case = serialized_rmw_case();
    let vectorized = vectorize(&case.program, SpecRequest::Rtm { tile: 64 }).expect("vectorizes");
    let mut stalled = vectorized.vprog.clone();
    assert!(stall_vpls(&mut stalled.body, false));

    let reference = kernel(&case)
        .run_scalar(&mut CountingSink::default(), None)
        .expect("scalar reference");
    let (tree, tree_sink) = run_engine(&case, &stalled, Engine::TreeWalking).expect("runs");
    let (comp, comp_sink) = run_engine(&case, &stalled, Engine::Native).expect("runs");
    // The scalar-tile fallback must match the reference on every fact.
    for run in [&tree, &comp] {
        assert_eq!(kernel(&case).compare(&reference, run), Ok(()));
    }
    let (tree_stats, comp_stats) = (tree.stats, comp.stats);
    assert_eq!(tree_stats, comp_stats);
    assert!(
        tree_stats.rtm_aborts >= 1,
        "stalled tiles must abort to scalar: {tree_stats:?}"
    );
    assert_eq!(tree_sink.uops, comp_sink.uops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // `SpecRequest::Auto` lowers to `SpecMode::None` or
    // `SpecMode::FirstFaulting` depending on the generated shape, so this
    // single strategy covers both non-speculative and FF compiled paths.
    #[test]
    fn engines_agree_under_auto_speculation(spec in case_spec()) {
        if let Some(case) = build_case(&spec) {
            check_engines_agree(&case, SpecRequest::Auto)?;
        }
    }

    #[test]
    fn engines_agree_under_rtm(spec in case_spec(), tile in 16u32..512) {
        if let Some(case) = build_case(&spec) {
            check_engines_agree(&case, SpecRequest::Rtm { tile })?;
        }
    }
}
