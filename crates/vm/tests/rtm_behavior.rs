//! Directed tests of the RTM execution path: abort-and-rollback on
//! faults, capacity-overflow aborts, transaction statistics, and the
//! equivalence of all tile sizes.

use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::{Program, ProgramBuilder};
use flexvec_vm::{CountingSink, Engine, Execution, Kernel, RunResult, VectorCode, VectorStats};

/// A conditional-update loop whose guarded gather hits a wild address on
/// lanes the scalar execution never touches (stale-guard speculation).
fn speculative_loop(n: i64) -> Program {
    let mut b = ProgramBuilder::new("speculative");
    let i = b.var("i", 0);
    let end = b.var("n", n);
    let t = b.var("t", 0);
    let best = b.var("best", 1000);
    let key = b.array("key");
    let table = b.array("table");
    b.live_out(best);
    b.build_loop(
        i,
        c(0),
        var(end),
        vec![if_(
            lt(ld(key, var(i)), var(best)),
            vec![
                assign(t, add(ld(key, var(i)), ld(table, ld(key, var(i))))),
                if_(lt(var(t), var(best)), vec![assign(best, var(t))]),
            ],
        )],
    )
    .unwrap()
}

/// Asserts agreement on the observable state: live-out scalars and the
/// final induction value. (Non-live-out temporaries are privatized; their
/// final scalar values are unspecified by design.)
fn assert_observables(
    program: &Program,
    scalar: &flexvec_vm::RunResult,
    vector: &flexvec_vm::RunResult,
) {
    for v in &program.live_out {
        assert_eq!(
            scalar.var(*v),
            vector.var(*v),
            "live-out {}",
            program.var_name(*v)
        );
    }
    assert_eq!(
        scalar.var(program.loop_.induction),
        vector.var(program.loop_.induction),
        "induction"
    );
    assert_eq!(scalar.broke, vector.broke);
}

/// Runs `program` scalar and vectorized under `spec`, checked against
/// each other on the default engine.
fn run_checked(
    program: &Program,
    arrays: &[Vec<i64>],
    spec: SpecRequest,
) -> (Execution, Execution) {
    let vprog = vectorize(program, spec).expect("vectorizes").vprog;
    let kernel = Kernel::new(program, arrays, 1);
    let mut sinks = (CountingSink::default(), CountingSink::default());
    let code = VectorCode::new(&vprog, Engine::default());
    kernel
        .check(&code, &mut sinks.0, &mut sinks.1, None)
        .unwrap_or_else(|e| panic!("{} ({spec:?}): {e}", program.name))
}

fn run_both(
    program: &Program,
    arrays: &[Vec<i64>],
    spec: SpecRequest,
) -> (RunResult, RunResult, VectorStats) {
    let (scalar, vector) = run_checked(program, arrays, spec);
    (scalar.result, vector.result, vector.stats)
}

#[test]
fn rtm_aborts_on_wild_speculative_gather() {
    let n = 96usize;
    let p = speculative_loop(n as i64);
    // Lane 0 sets best = 5; later lanes have key in (5, 1000): stale-true,
    // real-false — and their table index is wild.
    let mut key = vec![500i64; n];
    key[0] = 2;
    // table[2] must be mapped and small: table has 64 entries.
    let mut table = vec![0i64; 64];
    table[2] = 3; // best = 2 + 3 = 5
                  // Wild: key=500 indexes table[500] — beyond the guard page window?
                  // 500 < 512 (one page of elements), so push it far out instead.
    for k in key.iter_mut().skip(1) {
        *k = 600; // table[600] is past the guard page of a 64-entry array
    }
    let (scalar, vector, stats) = run_both(&p, &[key, table], SpecRequest::Rtm { tile: 32 });
    assert_observables(&p, &scalar, &vector);
    assert!(stats.rtm_aborts > 0, "expected aborts, got {stats:?}");
    // Tiles after the first one abort too (same data pattern), but every
    // tile still completes through the scalar fallback.
    assert_eq!(scalar.var(flexvec_ir::VarId(3)), 5);
}

#[test]
fn rtm_commits_when_no_faults() {
    let n = 128usize;
    let p = speculative_loop(n as i64);
    let key: Vec<i64> = (0..n as i64).map(|k| 10 + (k % 50)).collect();
    let table: Vec<i64> = vec![1; 64];
    let (scalar, vector, stats) = run_both(&p, &[key, table], SpecRequest::Rtm { tile: 64 });
    assert_observables(&p, &scalar, &vector);
    assert_eq!(stats.rtm_aborts, 0);
    assert_eq!(stats.rtm_commits, 2); // 128 iterations / 64-tile
}

#[test]
fn all_tile_sizes_agree() {
    let n = 200usize;
    let p = speculative_loop(n as i64);
    let key: Vec<i64> = (0..n as i64).map(|k| (k * 37) % 64).collect();
    let table: Vec<i64> = (0..64).map(|k| k % 7).collect();
    let mut reference: Option<i64> = None;
    for tile in [16u32, 24, 64, 128, 999] {
        let (scalar, vector, _) =
            run_both(&p, &[key.clone(), table.clone()], SpecRequest::Rtm { tile });
        assert_observables(&p, &scalar, &vector);
        let best = vector.var(flexvec_ir::VarId(3));
        match &reference {
            None => reference = Some(best),
            Some(r) => assert_eq!(*r, best, "tile {tile} diverges"),
        }
    }
}

#[test]
fn rtm_buffers_stores_until_commit() {
    // A conflict loop under RTM: stores go through the transaction write
    // set and publish at commit; final memory must equal scalar.
    let mut b = ProgramBuilder::new("rtm_stores");
    let i = b.var("i", 0);
    let s = b.var("s", 0);
    let idx = b.array("idx");
    let acc = b.array("acc");
    let p = b
        .build_loop(
            i,
            c(0),
            c(64),
            vec![
                assign(s, ld(idx, var(i))),
                store(acc, var(s), add(ld(acc, var(s)), c(1))),
            ],
        )
        .unwrap();
    let idx_d: Vec<i64> = (0..64).map(|k| k % 8).collect();
    let acc_d = vec![0i64; 8];

    let (_, vector) = run_checked(&p, &[idx_d, acc_d], SpecRequest::Rtm { tile: 32 });
    assert_eq!(vector.stats.rtm_commits, 2);
    assert_eq!(vector.array(1), &[8i64; 8]);
}

#[test]
fn rtm_break_commits_partial_tile() {
    let mut b = ProgramBuilder::new("rtm_break");
    let i = b.var("i", 0);
    let t = b.var("t", 0);
    let a = b.array("a");
    let found = b.var("found", -1);
    b.live_out(found);
    let p = b
        .build_loop(
            i,
            c(0),
            c(300),
            vec![
                assign(t, ld(a, var(i))),
                if_(eq(var(t), c(-7)), vec![assign(found, var(i)), brk()]),
            ],
        )
        .unwrap();
    let mut data = vec![1i64; 300];
    data[150] = -7; // middle of the second 128-tile
    let (scalar, vector, stats) = run_both(&p, &[data], SpecRequest::Rtm { tile: 128 });
    assert_observables(&p, &scalar, &vector);
    assert!(vector.broke);
    assert_eq!(vector.var(flexvec_ir::VarId(2)), 150); // `found`
    assert!(stats.rtm_commits >= 2);
}
