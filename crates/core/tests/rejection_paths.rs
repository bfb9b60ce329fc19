//! Every documented rejection path must fire with a precise reason —
//! unsupported shapes produce errors, never silently wrong code.

use flexvec::{vectorize, SpecRequest, VectorizeError};
use flexvec_ir::build::*;
use flexvec_ir::ProgramBuilder;

fn expect_not_vectorizable(p: &flexvec_ir::Program, needle: &str) {
    match vectorize(p, SpecRequest::Auto) {
        Err(VectorizeError::NotVectorizable(reason)) => {
            assert!(
                reason.contains(needle),
                "{}: reason {reason:?} missing {needle:?}",
                p.name
            );
        }
        other => panic!("{}: expected NotVectorizable, got {other:?}", p.name),
    }
}

fn expect_unsupported(p: &flexvec_ir::Program, needle: &str) {
    match vectorize(p, SpecRequest::Auto) {
        Err(VectorizeError::Unsupported(reason)) => {
            assert!(
                reason.contains(needle),
                "{}: reason {reason:?} missing {needle:?}",
                p.name
            );
        }
        other => panic!("{}: expected Unsupported, got {other:?}", p.name),
    }
}

#[test]
fn dynamic_waw_between_distinct_stores() {
    // Two different statements scatter to runtime-aliasing addresses:
    // vectorization would reorder them across iterations.
    let mut b = ProgramBuilder::new("waw");
    let i = b.var("i", 0);
    let x = b.var("x", 0);
    let y = b.var("y", 0);
    let ia = b.array("ia");
    let ib = b.array("ib");
    let out = b.array("out");
    let p = b
        .build_loop(
            i,
            c(0),
            c(32),
            vec![
                assign(x, ld(ia, var(i))),
                assign(y, ld(ib, var(i))),
                store(out, var(x), c(1)),
                store(out, var(y), c(2)),
            ],
        )
        .unwrap();
    expect_not_vectorizable(&p, "output dependence");
}

#[test]
fn dynamic_store_lexically_before_dependent_load() {
    // store a[f(i)] then load a[g(i)]: needs in-lane store-to-load
    // forwarding this code generator does not emit.
    let mut b = ProgramBuilder::new("stl");
    let i = b.var("i", 0);
    let x = b.var("x", 0);
    let t = b.var("t", 0);
    let idx = b.array("idx");
    let a = b.array("a");
    b.live_out(t);
    let p = b
        .build_loop(
            i,
            c(0),
            c(32),
            vec![
                assign(x, ld(idx, var(i))),
                store(a, var(x), var(i)),
                assign(t, ld(a, add(var(x), c(1)))),
            ],
        )
        .unwrap();
    expect_not_vectorizable(&p, "store-to-load forwarding");
}

#[test]
fn break_after_vpl_region() {
    // The conditional update precedes the break: a later exit would
    // invalidate lanes the VPL already committed.
    let mut b = ProgramBuilder::new("late_break");
    let i = b.var("i", 0);
    let best = b.var("best", 1 << 20);
    let a = b.array("a");
    let stop = b.array("stop");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![
                if_(
                    lt(ld(a, var(i)), var(best)),
                    vec![assign(best, ld(a, var(i)))],
                ),
                if_(gt(ld(stop, var(i)), c(100)), vec![brk()]),
            ],
        )
        .unwrap();
    expect_unsupported(&p, "lexically after the VPL");
}

#[test]
fn exit_guard_depends_on_relaxed_update() {
    // The break condition reads the conditionally-updated scalar: the exit
    // would sit inside the VPL.
    let mut b = ProgramBuilder::new("exit_in_vpl");
    let i = b.var("i", 0);
    let best = b.var("best", 1 << 20);
    let a = b.array("a");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![
                if_(
                    lt(ld(a, var(i)), var(best)),
                    vec![assign(best, ld(a, var(i)))],
                ),
                if_(lt(var(best), c(10)), vec![brk()]),
            ],
        )
        .unwrap();
    // Either shape restriction may fire first (guard inside the VPL range
    // or break after it); both are Unsupported.
    match vectorize(&p, SpecRequest::Auto) {
        Err(VectorizeError::Unsupported(_)) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn unconditional_break_without_vpl_vectorizes() {
    // A top-level break makes the loop single-trip; the generated code
    // carries the exit machinery (execution equivalence is covered by the
    // workspace pattern zoo, which can link the VM).
    let mut b = ProgramBuilder::new("uncond_break");
    let i = b.var("i", 0);
    let x = b.var("x", 0);
    b.live_out(x);
    let p = b
        .build_loop(i, c(0), c(10), vec![assign(x, add(var(i), c(7))), brk()])
        .unwrap();
    let v = vectorize(&p, SpecRequest::Auto).unwrap();
    assert!(v
        .vprog
        .body
        .iter()
        .any(|n| matches!(n, flexvec::VNode::BreakIf { .. })));
}

#[test]
fn unconditional_break_after_vpl_is_rejected() {
    // The VPL would commit lanes the (always-taken) exit invalidates.
    let mut b = ProgramBuilder::new("uncond_break_after_vpl");
    let i = b.var("i", 0);
    let best = b.var("best", 1 << 20);
    let a = b.array("a");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![
                if_(
                    lt(ld(a, var(i)), var(best)),
                    vec![assign(best, ld(a, var(i)))],
                ),
                brk(),
            ],
        )
        .unwrap();
    expect_unsupported(&p, "after the VPL");
}

#[test]
fn deferred_store_with_later_reader() {
    // A store that must be deferred past a break, but a later statement
    // reads the stored array in the same iteration: deferral would break
    // the same-iteration RAW.
    let mut b = ProgramBuilder::new("deferred_raw");
    let i = b.var("i", 0);
    let t = b.var("t", 0);
    let u = b.var("u", 0);
    let a = b.array("a");
    let src = b.array("src");
    b.live_out(u);
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![
                assign(t, ld(src, var(i))),
                store(a, var(i), var(t)),
                if_(gt(var(t), c(1000)), vec![brk()]),
                assign(u, ld(a, var(i))),
            ],
        )
        .unwrap();
    match vectorize(&p, SpecRequest::Auto) {
        Err(VectorizeError::Unsupported(reason)) => {
            assert!(reason.contains("reads the array"), "{reason}");
        }
        // The analysis may instead classify the store/load pair as a
        // same-iteration dependence it can order; accept a clean success
        // only if it actually verifies (covered by the zoo); any other
        // error is unexpected.
        Ok(_) => {}
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn pointer_chase_stays_rejected_under_rtm_too() {
    let mut b = ProgramBuilder::new("chase");
    let i = b.var("i", 0);
    let x = b.var("x", 0);
    let a = b.array("a");
    b.live_out(x);
    let p = b
        .build_loop(i, c(0), c(64), vec![assign(x, ld(a, var(x)))])
        .unwrap();
    for spec in [SpecRequest::Auto, SpecRequest::Rtm { tile: 64 }] {
        assert!(matches!(
            vectorize(&p, spec),
            Err(VectorizeError::NotVectorizable(_))
        ));
    }
}

#[test]
fn error_messages_are_displayable() {
    let mut b = ProgramBuilder::new("chase2");
    let i = b.var("i", 0);
    let x = b.var("x", 0);
    let a = b.array("a");
    b.live_out(x);
    let p = b
        .build_loop(i, c(0), c(64), vec![assign(x, ld(a, var(x)))])
        .unwrap();
    let err = vectorize(&p, SpecRequest::Auto).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("not vectorizable"), "{text}");
}

#[test]
fn stores_inside_a_speculative_vpl_lower_only_under_rtm() {
    // A store between a speculative load and its conditional update:
    // first-faulting fallback would replay the committed store, while
    // an RTM transaction buffers it.
    let mut b = ProgramBuilder::new("rtm_only");
    let i = b.var("i", 0);
    let t = b.var("t", 0);
    let u = b.var("u", 0);
    let best = b.var("best", 1 << 20);
    let a = b.array("a");
    let aux = b.array("aux");
    let out = b.array("out");
    b.live_out(best);
    let p = b
        .build_loop(
            i,
            c(0),
            c(256),
            vec![
                assign(t, add(mul(ld(a, var(i)), c(3)), var(i))),
                if_(
                    lt(var(t), var(best)),
                    vec![
                        assign(u, ld(aux, band(var(t), c(255)))),
                        store(out, var(i), var(u)),
                        if_(lt(var(u), var(best)), vec![assign(best, var(u))]),
                    ],
                ),
            ],
        )
        .unwrap();
    let err = vectorize(&p, SpecRequest::Auto).unwrap_err();
    assert_eq!(err, VectorizeError::RtmOnly);
    assert_eq!(
        err.to_string(),
        "unsupported by the code generator: stores inside a VPL that also needs \
         first-faulting speculation; use the RTM code path for this loop"
    );
    assert!(vectorize(&p, SpecRequest::Rtm { tile: 64 }).is_ok());
}
