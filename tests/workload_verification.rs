//! Every Table 2 workload must verify end-to-end: the evaluation harness
//! cross-checks scalar vs. FlexVec execution (live-outs, induction,
//! every array element) before reporting any number — this test runs
//! that gate for all 18 workloads under both speculation mechanisms,
//! sanity-checks the measured statistics, and pins the simulated cycle
//! and µop counts in `tests/golden/sim_cycles.txt`, on the default
//! compiled engine and on the native tier. It also checks that the
//! three engines emit the same trace fingerprint at every width: the
//! serving daemon's verified-once memo leaves the engine out of its key
//! on that premise, so a record verified on one engine audits another.

use std::fmt::Write as _;
use std::path::Path;

use flexvec::SpecRequest;
use flexvec_isa::{with_vlen, SUPPORTED_VLENS};
use flexvec_sim::SimConfig;
use flexvec_vm::{Engine, FingerprintSink, Kernel, VectorCode};
use flexvec_workloads::{
    all, evaluate, evaluate_with_engine, Evaluation, Suite, VectorMode, Workload,
};

/// Appends the golden line of one evaluation: workload, spec label, then
/// the four simulated statistics.
fn record(actual: &mut String, spec: &str, e: &Evaluation) {
    writeln!(
        actual,
        "{} {spec} {} {} {} {}",
        e.name, e.scalar_cycles, e.flexvec_cycles, e.scalar_uops, e.vector_uops
    )
    .unwrap();
}

/// Compares the recorded lines against the `spec` lines of
/// `tests/golden/sim_cycles.txt`. Any change to the timing model or to
/// the µop streams shows up here; on an intentional change, update the
/// golden file from the `actual` text in the failure message.
fn assert_matches_golden(spec: &str, engine: Engine, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_cycles.txt");
    let golden = std::fs::read_to_string(&path).expect("tests/golden/sim_cycles.txt exists");
    let expected: String = golden
        .lines()
        .filter(|l| l.split(' ').nth(1) == Some(spec))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        actual, expected,
        "simulated statistics ({spec}, {engine:?}) drifted from sim_cycles.txt;\n--- actual ---\n{actual}"
    );
}

/// The engines the golden statistics are checked on: the default
/// compiled engine, and the native tier that serving runs by default,
/// whose helper calls run the compiled engine's memory and conflict
/// arms. Off x86-64 the native tier falls back to bytecode.
const ENGINES: [Engine; 2] = [Engine::Compiled, Engine::Native];

fn evaluate_on(w: &Workload, spec: SpecRequest, engine: Engine) -> Evaluation {
    evaluate_with_engine(w, spec, &SimConfig::table1(), VectorMode::FlexVec, engine)
        .unwrap_or_else(|err| panic!("{} ({spec:?}, {engine:?}): {err}", w.name))
}

#[test]
fn all_workloads_verify_under_first_faulting() {
    for engine in ENGINES {
        let mut actual = String::new();
        for w in all() {
            let e = evaluate_on(&w, SpecRequest::Auto, engine);
            record(&mut actual, "auto", &e);
            assert!(
                e.region_speedup > 0.5,
                "{}: implausible region speedup {:.2}",
                w.name,
                e.region_speedup
            );
            assert!(e.overall_speedup >= 0.9, "{}: overall regression", w.name);
            // Coverage scaling can only attenuate the region effect.
            if e.region_speedup >= 1.0 {
                assert!(e.overall_speedup <= e.region_speedup + 1e-9, "{}", w.name);
            }
            assert!(e.stats.chunks > 0, "{}: no vector chunks ran", w.name);
        }
        assert_matches_golden("auto", engine, &actual);
    }
}

#[test]
fn all_workloads_verify_under_rtm() {
    for engine in ENGINES {
        let mut actual = String::new();
        for w in all() {
            let e = evaluate_on(&w, SpecRequest::Rtm { tile: 192 }, engine);
            record(&mut actual, "rtm192", &e);
            assert!(
                e.stats.rtm_commits > 0,
                "{}: no committed transactions",
                w.name
            );
        }
        assert_matches_golden("rtm192", engine, &actual);
    }
}

#[test]
fn early_exit_workloads_break() {
    for w in all() {
        let expects_break = matches!(w.name, "GZIP" | "ZLIB");
        let e = evaluate(&w, SpecRequest::Auto).unwrap();
        assert_eq!(e.stats.broke, expects_break, "{}", w.name);
    }
}

#[test]
fn conflict_workloads_partition() {
    for w in all() {
        if !w.expected_mix.contains("VPCONFLICTM") {
            continue;
        }
        let e = evaluate(&w, SpecRequest::Auto).unwrap();
        assert!(
            e.stats.vpl_iterations >= e.stats.chunks,
            "{}: VPL never ran",
            w.name
        );
        assert!(e.mix.vpconflictm > 0, "{}", w.name);
    }
}

#[test]
fn suite_assignment_is_consistent() {
    for w in all() {
        let is_spec = w.name.as_bytes()[0].is_ascii_digit();
        assert_eq!(
            w.suite,
            if is_spec { Suite::Spec2006 } else { Suite::App },
            "{}",
            w.name
        );
    }
}

#[test]
fn generated_code_respects_mask_budget() {
    // Section 3.7: with the FlexVec instructions in hardware, every
    // workload's generated code stays within AVX-512's 8 architectural
    // mask registers.
    for w in all() {
        let v = flexvec::vectorize(&w.program, SpecRequest::Auto).unwrap();
        let mp = v.vprog.mask_pressure();
        assert!(
            mp.fits_architectural,
            "{}: peak hardware mask pressure {} > 8",
            w.name, mp.peak_hardware
        );
    }
}

#[test]
fn every_engine_emits_the_same_trace_fingerprint_at_every_width() {
    for w in all() {
        let vprog = flexvec::vectorize(&w.program, SpecRequest::Auto)
            .unwrap()
            .vprog;
        let kernel = Kernel::new(&w.program, &w.arrays, w.invocations);
        let widths: Vec<usize> = SUPPORTED_VLENS
            .into_iter()
            .filter(|&vl| vl <= vprog.max_vl)
            .collect();
        assert!(widths.len() >= 2, "{}: max_vl {}", w.name, vprog.max_vl);
        for vl in widths {
            let prints = with_vlen(vl, || {
                [Engine::TreeWalking, Engine::Compiled, Engine::Native].map(|engine| {
                    let code = VectorCode::new(&vprog, engine);
                    let mut sink = FingerprintSink::default();
                    kernel
                        .run_vector(&code, &mut sink, None)
                        .unwrap_or_else(|e| panic!("{} at vl {vl} on {engine:?}: {e}", w.name));
                    sink.fingerprint()
                })
            });
            assert!(prints[0].uops > 0, "{}", w.name);
            assert_eq!(prints[1], prints[0], "{} at vl {vl}: bytecode", w.name);
            assert_eq!(prints[2], prints[0], "{} at vl {vl}: native", w.name);
        }
    }
}
