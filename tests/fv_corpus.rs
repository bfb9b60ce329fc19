//! Golden snapshots for the checked-in `.fv` corpus: every kernel's
//! verdict and FlexVec instruction-mix summary is pinned in
//! `tests/corpus/golden.txt`, and every kernel must execute with the
//! vector result verified against the scalar baseline. The corpus
//! covers the paper's three irregular patterns — early exit,
//! conditional scalar update, runtime memory dependence — plus a
//! traditional (dependence-free) loop and a known-`Unsupported` shape.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use flexvec::SpecRequest;
use flexvec_bench::fv::evaluate_fv_file;
use flexvec_front::CompileCache;
use flexvec_vm::Engine;

fn corpus_files() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "fv"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus must not be empty");
    files
}

/// The verdict and plan-summary snapshot, compared verbatim against
/// `tests/corpus/golden.txt`. On an intentional pipeline change, update
/// the golden file from the `actual` text in the failure message.
#[test]
fn corpus_matches_golden_snapshots() {
    let cache = CompileCache::new();
    let mut actual = String::new();
    for file in corpus_files() {
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        let kernel = flexvec_front::parse_file(&file)
            .unwrap_or_else(|d| panic!("{name} must parse: {}", d.summary()));
        let (compiled, _) = cache.get_or_compile(&kernel.program, SpecRequest::Auto);
        writeln!(
            actual,
            "{name}: {}: {}",
            kernel.program.name,
            compiled.verdict_summary()
        )
        .unwrap();
        if let Ok(plan) = &compiled.plan {
            let mix = plan.vectorized.vprog.inst_mix().flexvec_summary();
            // Traditional plans use no FlexVec instructions at all.
            let mix = if mix.is_empty() {
                "(none)".to_owned()
            } else {
                mix
            };
            writeln!(actual, "  mix: {mix}").unwrap();
        }
    }

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/golden.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("tests/corpus/golden.txt exists");
    assert_eq!(
        actual, golden,
        "corpus verdict/plan snapshots drifted from golden.txt;\n--- actual ---\n{actual}"
    );
}

/// Every corpus kernel must run end-to-end: scalar baseline always,
/// vector code (verified element-for-element against the baseline)
/// whenever the vectorizer accepts the loop.
#[test]
fn corpus_kernels_execute_and_verify() {
    let cache = CompileCache::new();
    for file in corpus_files() {
        let report = evaluate_fv_file(&file, &cache, SpecRequest::Auto, Engine::Compiled, 2);
        assert!(
            !report.is_failure(),
            "{}: {}",
            report.source,
            report.error.as_deref().unwrap_or("unknown failure")
        );
        let run = report
            .run
            .unwrap_or_else(|| panic!("{} produced no run", report.source));
        if run.kind == "scalar-only" {
            assert_eq!(
                run.region_speedup, 1.0,
                "{}: scalar-only kernels report unit speedup",
                report.source
            );
        } else {
            assert!(
                run.vector_cycles > 0 && run.scalar_cycles > 0,
                "{}: cycle counts must be populated",
                report.source
            );
        }
    }
}

/// A kernel the analysis accepts but `ff` cannot lower (a store inside
/// the speculative VPL) runs scalar-only, and its printed verdict says
/// so, naming the refusal; under RTM it lowers and the verdict is the
/// analysis verdict alone.
#[test]
fn rtm_only_kernels_print_the_refusal() {
    let src = "\
kernel rtm_unlock;
var i = 0;
var t = 0;
var u = 0;
var best = 1048576;
array a[256] = seed 7;
array aux[256] = seed 9;
array out[256];
live_out best;
for (i = 0; i < 256; i++) {
  t = a[i] * 3 + i;
  if (t < best) {
    u = aux[t & 255];
    out[i] = u;
    if (u < best) {
      best = u;
    }
  }
}
";
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rtm_unlock.fv");
    std::fs::write(&path, src).expect("writes the kernel");
    let cache = CompileCache::new();
    let refusal = flexvec::VectorizeError::RtmOnly.to_string();

    let checked = flexvec_bench::fv::check_fv_file(&path, &cache, SpecRequest::Auto);
    assert!(
        checked.verdict.starts_with("flexvec ("),
        "{}",
        checked.verdict
    );
    assert!(
        checked
            .verdict
            .ends_with(&format!("; runs scalar-only: {refusal}")),
        "{}",
        checked.verdict
    );
    let run = evaluate_fv_file(&path, &cache, SpecRequest::Auto, Engine::Compiled, 1);
    assert_eq!(run.verdict, checked.verdict);
    assert_eq!(run.run.expect("runs").kind, "scalar-only");

    let rtm = SpecRequest::Rtm { tile: 256 };
    let checked = flexvec_bench::fv::check_fv_file(&path, &cache, rtm);
    assert!(
        !checked.verdict.contains("scalar-only"),
        "{}",
        checked.verdict
    );
    let run = evaluate_fv_file(&path, &cache, rtm, Engine::Compiled, 1);
    assert_eq!(run.run.expect("runs").kind, "flexvec");
}
