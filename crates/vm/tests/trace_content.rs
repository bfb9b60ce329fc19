//! The µop streams the executors emit must faithfully describe the
//! executed code: the FlexVec instruction classes appear exactly for the
//! patterns that need them, memory µops carry real addresses, and the
//! dynamic trace volume scales with the partition count.

use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::{Program, ProgramBuilder};
use flexvec_vm::{Engine, Kernel, TraceSink, UopClass, VecSink, VectorCode};

/// Runs `program` scalar and vectorized, checked against each other,
/// and returns the `(scalar, vector)` µop traces.
fn run_both_traced(program: &Program, arrays: &[Vec<i64>]) -> (VecSink, VecSink) {
    let vprog = vectorize(program, SpecRequest::Auto)
        .expect("vectorizes")
        .vprog;
    let kernel = Kernel::new(program, arrays, 1);
    let mut sinks = (VecSink::default(), VecSink::default());
    let code = VectorCode::new(&vprog, Engine::default());
    kernel
        .check(&code, &mut sinks.0, &mut sinks.1, None)
        .expect("runs and agrees");
    sinks
}

fn run_and_trace(program: &Program, arrays: &[Vec<i64>]) -> VecSink {
    run_both_traced(program, arrays).1
}

fn count(sink: &VecSink, pred: impl Fn(&UopClass) -> bool) -> usize {
    sink.uops.iter().filter(|u| pred(&u.class)).count()
}

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

#[test]
fn conditional_update_trace_has_kftm_and_selectlast_per_partition() {
    // Strictly descending input: every lane updates, so each 16-lane
    // chunk runs 16 partitions and the trace carries 16 KFTMs per chunk.
    let n = 64usize;
    let data: Vec<i64> = (0..n).map(|k| 100_000 - k as i64).collect();
    let sink = run_and_trace(&cond_min(n as i64), &[data]);
    let kftm = count(&sink, |c| matches!(c, UopClass::Kftm));
    let slct = count(&sink, |c| matches!(c, UopClass::SelectLast));
    assert_eq!(kftm, n, "one KFTM per partition");
    assert_eq!(slct, n, "one VPSLCTLAST per partition");
    assert_eq!(count(&sink, |c| matches!(c, UopClass::Conflict)), 0);
}

#[test]
fn steady_state_trace_has_one_partition_per_chunk() {
    let n = 64usize;
    let mut data = vec![1 << 21; n];
    data[0] = 1; // single early update
    let sink = run_and_trace(&cond_min(n as i64), &[data]);
    let kftm = count(&sink, |c| matches!(c, UopClass::Kftm));
    // Chunk 0 partitions twice (the update), chunks 1-3 once.
    assert_eq!(kftm, 5, "4 chunks + 1 extra partition");
}

#[test]
fn conflict_trace_has_vpconflictm_per_chunk() {
    let mut b = ProgramBuilder::new("scatter_acc");
    let i = b.var("i", 0);
    let s = b.var("s", 0);
    let idx = b.array("idx");
    let acc = b.array("acc");
    let p = b
        .build_loop(
            i,
            c(0),
            c(96),
            vec![
                assign(s, ld(idx, var(i))),
                store(acc, var(s), add(ld(acc, var(s)), c(1))),
            ],
        )
        .unwrap();
    let idx_d: Vec<i64> = (0..96).map(|k| (k % 32) as i64).collect();
    let sink = run_and_trace(&p, &[idx_d, vec![0; 32]]);
    // VPCONFLICTM is hoisted out of the VPL: exactly one per chunk.
    assert_eq!(count(&sink, |c| matches!(c, UopClass::Conflict)), 6);
    assert!(count(&sink, |c| matches!(c, UopClass::Scatter)) >= 6);
    assert_eq!(count(&sink, |c| matches!(c, UopClass::SelectLast)), 0);
}

#[test]
fn memory_uops_carry_lane_addresses() {
    let n = 32usize;
    let data: Vec<i64> = vec![1 << 21; n];
    let sink = run_and_trace(&cond_min(n as i64), &[data]);
    let loads: Vec<_> = sink.uops.iter().filter(|u| u.class.is_load()).collect();
    assert!(!loads.is_empty());
    for l in &loads {
        assert!(!l.addrs.is_empty(), "load without addresses");
        for pair in l.addrs.windows(2) {
            // Unit-stride loads walk 8-byte elements.
            assert_eq!(pair[1] - pair[0], 8, "unexpected stride in {:?}", l.addrs);
        }
    }
}

#[test]
fn scalar_and_vector_traces_have_comparable_memory_traffic() {
    // On a guard-mostly-false conditional min, the vector code must not
    // touch more memory than scalar (the load CSE guarantees the guard
    // load is reused rather than re-issued).
    let n = 256usize;
    let data: Vec<i64> = vec![1 << 21; n];
    let p = cond_min(n as i64);

    let (scalar_sink, vsink) = run_both_traced(&p, &[data]);
    let scalar_lane_loads: usize = scalar_sink
        .uops
        .iter()
        .filter(|u| u.class.is_load())
        .map(|u| u.addrs.len())
        .sum();

    let vector_lane_loads: usize = vsink
        .uops
        .iter()
        .filter(|u| u.class.is_load())
        .map(|u| u.addrs.len())
        .sum();

    assert_eq!(scalar_lane_loads, n, "scalar loads a[i] once per iteration");
    assert!(
        vector_lane_loads <= scalar_lane_loads,
        "vector code should not amplify loads: {vector_lane_loads} vs {scalar_lane_loads}"
    );
}

#[test]
fn trace_sink_len_matches_emissions() {
    let n = 48usize;
    let sink = run_and_trace(&cond_min(n as i64), &[vec![5; n]]);
    assert_eq!(sink.len() as usize, sink.uops.len());
}
