//! Speculation-counter crosscheck across all three execution tiers.
//!
//! The daemon's `/metrics` engine counters sum [`ThroughputReport`]'s
//! fault, conflict and partition counters over requests that may run a
//! kernel on different tiers (an explicit `engine` picks one). A tier
//! that under- or over-reported `ff_fallbacks`, `rtm_aborts` or
//! `vpl_iterations` would silently skew them, so every tier must report
//! bit-identical counts for the same program and input — asserted here
//! for one shape per counter family.

use flexvec::{vectorize, SpecRequest};
use flexvec_ir::build::*;
use flexvec_ir::{Program, ProgramBuilder};
use flexvec_profiler::ThroughputReport;
use flexvec_vm::{CountingSink, Engine, Kernel, VectorCode, VectorStats};
use std::time::Duration;

const ENGINES: [Engine; 3] = [Engine::TreeWalking, Engine::Compiled, Engine::Native];

/// Conditional-update loop whose guarded gather goes wild on
/// stale-guard lanes: in every even ("dirty") chunk, lane 0 lowers
/// `best` so the remaining lanes' guards are true at chunk entry but
/// false in sequential semantics, and their gather index points past
/// the 64-entry table's guard page. Under FF the clipped gather falls
/// back to scalar for the chunk; under RTM the enclosing transaction
/// aborts and reruns as a scalar tile. Odd chunks carry really-false
/// guards and stay clean, so one run mixes both outcomes.
fn wild_gather_program() -> (Program, Vec<Vec<i64>>) {
    let mut b = ProgramBuilder::new("wild_gather");
    let i = b.var("i", 0);
    let t = b.var("t", 0);
    let best = b.var("best", 1000);
    let key = b.array("key");
    let idx = b.array("idx");
    let table = b.array("table");
    b.live_out(best);
    let body = vec![if_(
        lt(ld(key, var(i)), var(best)),
        vec![
            assign(t, add(ld(key, var(i)), ld(table, ld(idx, var(i))))),
            if_(lt(var(t), var(best)), vec![assign(best, var(t))]),
        ],
    )];
    let program = b.build_loop(i, c(0), c(96), body).unwrap();
    // Dirty chunks c = 0, 2, 4: lane 0's key (50 - c) beats the entry
    // `best` and becomes the new one (table[2] = 0), and the other 15
    // lanes share that key — stale-true at entry, really false after
    // lane 0 — with a wild index (600 > the 512-element page of the
    // 64-entry table). Clean chunks: key 2000 is really false, so the
    // guarded gather never issues. Scalar only ever touches table[2].
    let mut key_arr = vec![2000i64; 96];
    let mut idx_arr = vec![600i64; 96];
    for chunk in [0usize, 2, 4] {
        let base = chunk * 16;
        for lane in 0..16 {
            key_arr[base + lane] = 50 - chunk as i64;
        }
        idx_arr[base] = 2;
    }
    let table_arr = vec![0i64; 64];
    (program, vec![key_arr, idx_arr, table_arr])
}

/// Indirect read-modify-write where the input pins every lane of a
/// chunk to the same bin: the VPL must partition (serialize) the chunk,
/// which is what `vpl_iterations` / `max_partitions` count.
fn conflict_program() -> (Program, Vec<Vec<i64>>) {
    let mut b = ProgramBuilder::new("conflict");
    let i = b.var("i", 0);
    let k = b.var("k", 0);
    let data = b.array("data");
    let bins = b.array("bins");
    b.live_out(k);
    let body = vec![
        assign(k, band(ld(data, band(var(i), c(63))), c(63))),
        store(bins, var(k), add(ld(bins, var(k)), c(1))),
    ];
    let program = b.build_loop(i, c(0), c(48), body).unwrap();
    // All-equal indices: every lane of every chunk conflicts.
    (program, vec![vec![5i64; 64], vec![0i64; 64]])
}

/// Runs the program on every engine, each run checked against the
/// scalar loop (live-outs, induction exit, break flag, iteration count,
/// memory); returns each engine's stats and report.
fn run_all_engines(
    program: &Program,
    arrays: &[Vec<i64>],
    spec: SpecRequest,
) -> Vec<(VectorStats, ThroughputReport)> {
    let vectorized = vectorize(program, spec).expect("vectorizes");
    let kernel = Kernel::new(program, arrays, 1);
    ENGINES
        .iter()
        .map(|&engine| {
            let mut sinks = (CountingSink::default(), CountingSink::default());
            let code = VectorCode::new(&vectorized.vprog, engine);
            let (_, vector) = kernel
                .check(&code, &mut sinks.0, &mut sinks.1, None)
                .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
            let mut report =
                ThroughputReport::new(format!("{engine:?}"), Duration::from_micros(100), 0, 0);
            report.add_stats(&vector.stats);
            (vector.stats, report)
        })
        .collect()
}

/// Asserts that every engine produced the same raw stats, and the same
/// report counters and derived rates as the tree-walking reference.
fn assert_tiers_agree(runs: &[(VectorStats, ThroughputReport)]) {
    let (ref_stats, ref_report) = &runs[0];
    for (engine, (stats, report)) in ENGINES.iter().zip(runs).skip(1) {
        assert_eq!(stats, ref_stats, "{engine:?}: VectorStats differ");
        assert_eq!(
            (
                report.chunks,
                report.vpl_iterations,
                report.max_partitions,
                report.ff_fallbacks,
                report.rtm_commits,
                report.rtm_aborts,
            ),
            (
                ref_report.chunks,
                ref_report.vpl_iterations,
                ref_report.max_partitions,
                ref_report.ff_fallbacks,
                ref_report.rtm_commits,
                ref_report.rtm_aborts,
            ),
            "{engine:?}: ThroughputReport counters differ"
        );
        assert_eq!(
            (
                report.ff_fallback_rate().to_bits(),
                report.rtm_abort_rate().to_bits(),
                report.partitions_per_chunk().to_bits(),
            ),
            (
                ref_report.ff_fallback_rate().to_bits(),
                ref_report.rtm_abort_rate().to_bits(),
                ref_report.partitions_per_chunk().to_bits(),
            ),
            "{engine:?}: derived rates differ"
        );
    }
}

#[test]
fn ff_fallback_counts_agree_across_tiers() {
    let (program, arrays) = wild_gather_program();
    let runs = run_all_engines(&program, &arrays, SpecRequest::Auto);
    assert_tiers_agree(&runs);
    let stats = &runs[0].0;
    assert_eq!(
        stats.ff_fallbacks, 3,
        "each wild-key chunk must fall back: {stats:?}"
    );
    let rate = runs[0].1.ff_fallback_rate();
    assert!(
        rate > 0.0 && rate < 1.0,
        "mixed clean/fallback rate: {rate}"
    );
}

#[test]
fn rtm_commit_and_abort_counts_agree_across_tiers() {
    let (program, arrays) = wild_gather_program();
    let runs = run_all_engines(&program, &arrays, SpecRequest::Rtm { tile: 16 });
    assert_tiers_agree(&runs);
    let stats = &runs[0].0;
    assert_eq!(stats.rtm_commits, 3, "clean tiles must commit: {stats:?}");
    assert_eq!(
        stats.rtm_aborts, 3,
        "each wild-key tile must abort: {stats:?}"
    );
    let rate = runs[0].1.rtm_abort_rate();
    assert!(rate > 0.0 && rate < 1.0, "mixed commit/abort rate: {rate}");
}

#[test]
fn partition_counts_agree_across_tiers() {
    let (program, arrays) = conflict_program();
    let runs = run_all_engines(&program, &arrays, SpecRequest::Auto);
    assert_tiers_agree(&runs);
    let stats = &runs[0].0;
    assert!(
        stats.max_partitions > 1,
        "all-equal bins must serialize the window: {stats:?}"
    );
    assert!(runs[0].1.partitions_per_chunk() > 1.0);
}
