//! A zoo of tricky loop shapes, each checked for exact scalar/vector
//! equivalence under both speculation mechanisms. These stress corners
//! the paper's three clean patterns do not: updates in `else` branches,
//! two interacting conditionally-updated scalars, deeply nested guards,
//! degenerate trip counts, non-zero loop starts, expression bounds,
//! multiple conflicting arrays, and the totalized division/shift
//! semantics.

use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::{Expr, Program, ProgramBuilder, Stmt, VarId};
use flexvec_vm::{CountingSink, Engine, Kernel, VectorCode};

/// Checks observable equivalence (live-outs, induction exit value,
/// break flag, iteration count, memory) through the checked execution
/// for both FF and RTM code paths; silently skips shapes the code
/// generator documents as unsupported.
fn check(program: &Program, arrays: &[Vec<i64>]) {
    for spec in [SpecRequest::Auto, SpecRequest::Rtm { tile: 64 }] {
        let vectorized = match vectorize(program, spec) {
            Ok(v) => v,
            Err(flexvec::VectorizeError::Unsupported(_)) => continue,
            Err(e) => panic!("{}: {e}", program.name),
        };
        let kernel = Kernel::new(program, arrays, 1);
        if let Err(e) = kernel.check(
            &VectorCode::new(&vectorized.vprog, Engine::default()),
            &mut CountingSink::default(),
            &mut CountingSink::default(),
            None,
        ) {
            panic!("{} [{spec:?}]: {e}", program.name);
        }
    }
}

fn data(n: usize, f: impl Fn(usize) -> i64) -> Vec<i64> {
    (0..n).map(f).collect()
}

#[test]
fn update_in_else_branch() {
    // The conditional update sits in the *false* arm: the negative-polarity
    // condition mask path must drive the VPL.
    let mut b = ProgramBuilder::new("else_update");
    let i = b.var("i", 0);
    let worst = b.var("worst", i64::MIN);
    let a = b.array("a");
    b.live_out(worst);
    let p = b
        .build_loop(
            i,
            c(0),
            c(100),
            vec![if_else(
                lt(ld(a, var(i)), c(50)),
                vec![],
                vec![if_(
                    gt(ld(a, var(i)), var(worst)),
                    vec![assign(worst, ld(a, var(i)))],
                )],
            )],
        )
        .unwrap();
    check(&p, &[data(100, |k| ((k * 37) % 200) as i64)]);
}

#[test]
fn two_interacting_updated_scalars() {
    // lo and hi both conditionally updated; the hi guard reads lo, so a
    // lo update in an older lane changes hi's guard in younger lanes.
    let mut b = ProgramBuilder::new("lo_hi");
    let i = b.var("i", 0);
    let lo = b.var("lo", 1 << 20);
    let hi = b.var("hi", 0);
    let a = b.array("a");
    b.live_out(lo);
    b.live_out(hi);
    let p = b
        .build_loop(
            i,
            c(0),
            c(120),
            vec![
                if_(lt(ld(a, var(i)), var(lo)), vec![assign(lo, ld(a, var(i)))]),
                if_(
                    gt(add(ld(a, var(i)), var(lo)), var(hi)),
                    vec![assign(hi, add(ld(a, var(i)), var(lo)))],
                ),
            ],
        )
        .unwrap();
    check(&p, &[data(120, |k| ((k * 7919) % 1000) as i64)]);
}

#[test]
fn three_deep_nested_guards() {
    let mut b = ProgramBuilder::new("nested3");
    let i = b.var("i", 0);
    let best = b.var("best", 1 << 20);
    let a = b.array("a");
    let q = b.array("q");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            c(0),
            c(90),
            vec![if_(
                gt(ld(a, var(i)), c(10)),
                vec![if_(
                    lt(ld(q, var(i)), c(500)),
                    vec![if_(
                        lt(ld(a, var(i)), var(best)),
                        vec![assign(best, ld(a, var(i)))],
                    )],
                )],
            )],
        )
        .unwrap();
    check(
        &p,
        &[
            data(90, |k| ((k * 13) % 300) as i64),
            data(90, |k| ((k * 101) % 900) as i64),
        ],
    );
}

#[test]
fn degenerate_trip_counts() {
    for n in [0i64, 1, 2, 15, 16, 17, 31, 32, 33] {
        let mut b = ProgramBuilder::new("tiny");
        let i = b.var("i", 0);
        let best = b.var("best", 1 << 20);
        let a = b.array("a");
        b.live_out(best);
        let p = b
            .build_loop(
                i,
                c(0),
                c(n),
                vec![if_(
                    lt(ld(a, var(i)), var(best)),
                    vec![assign(best, ld(a, var(i)))],
                )],
            )
            .unwrap();
        check(&p, &[data(40, |k| (40 - k as i64) * 3)]);
    }
}

#[test]
fn nonzero_and_negative_starts() {
    for (start, end) in [(5i64, 60i64), (-16, 16), (-40, -8)] {
        let mut b = ProgramBuilder::new("offset_start");
        let i = b.var("i", start);
        let acc_max = b.var("acc_max", i64::MIN);
        let a = b.array("a");
        b.live_out(acc_max);
        // Index shifted into range: a[i - start].
        let idx = sub(var(i), c(start));
        let p = b
            .build_loop(
                i,
                c(start),
                c(end),
                vec![if_(
                    gt(ld(a, idx.clone()), var(acc_max)),
                    vec![assign(acc_max, ld(a, idx))],
                )],
            )
            .unwrap();
        check(&p, &[data(128, |k| ((k * 271) % 777) as i64)]);
    }
}

#[test]
fn expression_bounds() {
    // end = (n - 3), start = n / 8 with n a live-in: bounds are evaluated
    // once, loop-invariantly.
    let mut b = ProgramBuilder::new("expr_bounds");
    let i = b.var("i", 0);
    let n = b.var("n", 97);
    let best = b.var("best", 1 << 20);
    let a = b.array("a");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            div(var(n), c(8)),
            sub(var(n), c(3)),
            vec![if_(
                lt(ld(a, var(i)), var(best)),
                vec![assign(best, ld(a, var(i)))],
            )],
        )
        .unwrap();
    check(&p, &[data(128, |k| ((k * 911) % 4000) as i64)]);
}

#[test]
fn two_conflicting_arrays() {
    // Two separate indirect accumulations in one loop: two conflict
    // checks OR-ed into one k_stop.
    let mut b = ProgramBuilder::new("two_conflicts");
    let i = b.var("i", 0);
    let x = b.var("x", 0);
    let y = b.var("y", 0);
    let ia = b.array("ia");
    let ib = b.array("ib");
    let acca = b.array("acca");
    let accb = b.array("accb");
    let p = b
        .build_loop(
            i,
            c(0),
            c(80),
            vec![
                assign(x, ld(ia, var(i))),
                assign(y, ld(ib, var(i))),
                store(acca, var(x), add(ld(acca, var(x)), c(1))),
                store(accb, var(y), add(ld(accb, var(y)), var(x))),
            ],
        )
        .unwrap();
    check(
        &p,
        &[
            data(80, |k| ((k * 5) % 7) as i64),
            data(80, |k| ((k * 11) % 5) as i64),
            vec![0; 8],
            vec![0; 8],
        ],
    );
}

#[test]
fn conflict_index_expression_differs_between_load_and_store() {
    // Load a[j], store a[j] where j comes through a temp — the conflict
    // check compares the two index expressions (same value here, but
    // lowered separately).
    let mut b = ProgramBuilder::new("split_index");
    let i = b.var("i", 0);
    let j = b.var("j", 0);
    let t = b.var("t", 0);
    let map = b.array("map");
    let acc = b.array("acc");
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![
                assign(j, band(ld(map, var(i)), c(7))),
                assign(t, ld(acc, var(j))),
                store(acc, var(j), add(var(t), mul(var(j), c(2)))),
            ],
        )
        .unwrap();
    check(&p, &[data(64, |k| (k * 3) as i64), vec![0; 8]]);
}

#[test]
fn totalized_division_and_shifts() {
    // x86-style totalization (x/0 == 0, oversized shifts saturate) must
    // agree between the scalar interpreter and the vector ALU model.
    let mut b = ProgramBuilder::new("weird_arith");
    let i = b.var("i", 0);
    let s = b.var("s", 0);
    let best = b.var("best", i64::MAX);
    let num = b.array("num");
    let den = b.array("den");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            c(0),
            c(100),
            vec![
                assign(
                    s,
                    add(
                        div(ld(num, var(i)), ld(den, var(i))),
                        shr(shl(ld(num, var(i)), c(70)), c(65)),
                    ),
                ),
                if_(lt(var(s), var(best)), vec![assign(best, var(s))]),
            ],
        )
        .unwrap();
    check(
        &p,
        &[
            data(100, |k| (k as i64 * 77) % 1000 - 500),
            data(100, |k| (k as i64 % 5) - 2), // includes zero denominators
        ],
    );
}

#[test]
fn unconditional_break_single_trip() {
    let mut b = ProgramBuilder::new("uncond_break");
    let i = b.var("i", 0);
    let x = b.var("x", 0);
    b.live_out(x);
    let p = b
        .build_loop(i, c(0), c(10), vec![assign(x, add(var(i), c(7))), brk()])
        .unwrap();
    check(&p, &[]);
}

#[test]
fn break_on_first_iteration() {
    let mut b = ProgramBuilder::new("break_at_zero");
    let i = b.var("i", 0);
    let t = b.var("t", 0);
    let found = b.var("found", -1);
    let a = b.array("a");
    b.live_out(found);
    let p = b
        .build_loop(
            i,
            c(0),
            c(50),
            vec![
                assign(t, ld(a, var(i))),
                if_(ge(var(t), c(0)), vec![assign(found, var(t)), brk()]),
            ],
        )
        .unwrap();
    check(&p, &[data(50, |k| k as i64)]); // a[0] = 0 >= 0: break at once
}

#[test]
fn break_never_taken_matches_plain_loop() {
    let mut b = ProgramBuilder::new("break_never");
    let i = b.var("i", 0);
    let t = b.var("t", 0);
    let count_max = b.var("count_max", 0);
    let a = b.array("a");
    b.live_out(count_max);
    let p = b
        .build_loop(
            i,
            c(0),
            c(77),
            vec![
                assign(t, ld(a, var(i))),
                if_(gt(var(t), c(1 << 30)), vec![brk()]),
                if_(gt(var(t), var(count_max)), vec![assign(count_max, var(t))]),
            ],
        )
        .unwrap();
    check(&p, &[data(77, |k| ((k * 997) % 10_000) as i64)]);
}

#[test]
fn guarded_store_with_else_store() {
    // Stores in both arms of an if, affine indices (traditional codegen):
    // the if-converted masks must be exact complements.
    let mut b = ProgramBuilder::new("if_else_stores");
    let i = b.var("i", 0);
    let src = b.array("src");
    let hot = b.array("hot");
    let cold = b.array("cold");
    let t = b.var("t", 0);
    let p = b
        .build_loop(
            i,
            c(0),
            c(96),
            vec![
                assign(t, ld(src, var(i))),
                if_else(
                    gt(var(t), c(100)),
                    vec![store(hot, var(i), var(t))],
                    vec![store(cold, var(i), var(t))],
                ),
            ],
        )
        .unwrap();
    check(
        &p,
        &[
            data(96, |k| ((k * 31) % 200) as i64),
            vec![0; 96],
            vec![0; 96],
        ],
    );
}

#[test]
fn update_value_is_an_expression_of_the_updated_var() {
    // best = best/2 + a[i]/2 under a guard reading best: the RHS itself
    // reads the updated scalar (broadcast view inside the VPL).
    let mut b = ProgramBuilder::new("self_referencing_update");
    let i = b.var("i", 0);
    let best = b.var("best", 1000);
    let a = b.array("a");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![if_(
                lt(ld(a, var(i)), var(best)),
                vec![assign(
                    best,
                    add(div(var(best), c(2)), div(ld(a, var(i)), c(2))),
                )],
            )],
        )
        .unwrap();
    check(&p, &[data(64, |k| ((k * 37) % 1200) as i64)]);
}

#[test]
fn whole_zoo_vectorizes_deterministically() {
    // Vectorizing the same program twice yields identical code (no
    // hidden iteration-order nondeterminism in the passes).
    let mut b = ProgramBuilder::new("determinism");
    let i = b.var("i", 0);
    let best = b.var("best", 1 << 20);
    let a = b.array("a");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![if_(
                lt(ld(a, var(i)), var(best)),
                vec![assign(best, ld(a, var(i)))],
            )],
        )
        .unwrap();
    let v1 = vectorize(&p, SpecRequest::Auto).unwrap();
    let v2 = vectorize(&p, SpecRequest::Auto).unwrap();
    assert_eq!(v1.vprog.to_string(), v2.vprog.to_string());
}

/// A tiny structural helper so the zoo file also guards the builder API.
#[test]
fn builder_shapes_roundtrip_through_display() {
    let mut b = ProgramBuilder::new("display");
    let i = b.var("i", 0);
    let x = b.var("x", 0);
    let a = b.array("a");
    let body: Vec<Stmt> = vec![
        assign(x, not(eq(ld(a, var(i)), c(0)))),
        if_(var(x).into_cond(), vec![brk()]),
    ];
    let p = b.build_loop(i, c(0), c(8), body).unwrap();
    let text = p.to_string();
    assert!(text.contains("break;"));
    assert!(text.contains('!'));
}

/// Local extension trait keeping the zoo self-contained.
trait IntoCond {
    fn into_cond(self) -> Expr;
}

impl IntoCond for Expr {
    fn into_cond(self) -> Expr {
        ne(self, c(0))
    }
}

/// Regression guard: the zoo's variable ids stay stable (documented
/// builder behavior — ids are allocation-ordered).
#[test]
fn builder_ids_are_allocation_ordered() {
    let mut b = ProgramBuilder::new("ids");
    assert_eq!(b.var("a", 0), VarId(0));
    assert_eq!(b.var("b", 0), VarId(1));
    assert_eq!(b.var("c", 0), VarId(2));
}
