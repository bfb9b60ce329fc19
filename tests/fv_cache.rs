//! The compile cache contract: submitting the same corpus twice in one
//! process must report a 100% hit rate on the second pass and must not
//! re-run analyze/vectorize/bytecode-compile (the cumulative pipeline
//! compile counter stays flat).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use flexvec::SpecRequest;
use flexvec_bench::fv::{check_fv_file, evaluate_fv_file};
use flexvec_front::{parse_file, CompileCache};
use flexvec_isa::with_vlen;
use flexvec_vm::{native_supported, CompiledVProg, Engine};

fn corpus_files() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "fv"))
        .collect();
    files.sort();
    files
}

#[test]
fn second_submission_is_pure_cache_hits() {
    let files = corpus_files();
    let cache = CompileCache::new();

    // First wave: everything is new.
    for file in &files {
        let report = check_fv_file(file, &cache, SpecRequest::Auto);
        assert!(!report.cache_hit, "{}: first pass must miss", report.source);
    }
    let first = cache.stats();
    assert_eq!(first.hits, 0);
    assert_eq!(first.misses, files.len() as u64);
    let compiles_after_first = cache.compiles();
    assert_eq!(compiles_after_first, files.len() as u64);

    // Second wave of the same corpus: 100% hit rate, zero new compiles.
    cache.reset_counters();
    for file in &files {
        let report = check_fv_file(file, &cache, SpecRequest::Auto);
        assert!(report.cache_hit, "{}: second pass must hit", report.source);
    }
    let second = cache.stats();
    assert_eq!(second.misses, 0, "second pass must not miss");
    assert_eq!(second.hits, files.len() as u64);
    let lookups = second.hits + second.misses;
    assert_eq!(second.hits as f64 / lookups as f64, 1.0, "100% hit rate");
    assert_eq!(
        cache.compiles(),
        compiles_after_first,
        "re-submission must skip analyze/vectorize/compile"
    );
}

#[test]
fn execution_shares_the_same_cache_entries() {
    let files = corpus_files();
    let cache = CompileCache::new();

    // `check` warms the cache; a subsequent `run` of the same corpus
    // reuses every compiled plan instead of re-vectorizing.
    for file in &files {
        check_fv_file(file, &cache, SpecRequest::Auto);
    }
    let compiles = cache.compiles();
    for file in &files {
        let report = evaluate_fv_file(file, &cache, SpecRequest::Auto, Engine::Compiled, 1);
        assert!(
            report.cache_hit,
            "{}: run after check must hit",
            report.source
        );
        assert!(
            !report.is_failure(),
            "{}: {:?}",
            report.source,
            report.error
        );
    }
    assert_eq!(cache.compiles(), compiles, "run must not recompile");
}

#[test]
fn parallel_submission_reports_exact_hit_rates() {
    // A parallel `flexvecc run`-shaped workload: many threads submitting
    // the whole corpus at once. The counters must balance exactly —
    // every lookup is either a hit or a miss, each distinct
    // (kernel, spec) key misses exactly once, and the pipeline compile
    // counter equals the miss count.
    const THREADS: usize = 8;
    const ROUNDS: usize = 20;
    let files = corpus_files();
    let cache = CompileCache::new();
    let specs = [
        SpecRequest::Auto,
        SpecRequest::Rtm { tile: 64 },
        SpecRequest::Rtm { tile: 256 },
    ];

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    for file in &files {
                        for spec in specs {
                            check_fv_file(file, &cache, spec);
                        }
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    let lookups = (THREADS * ROUNDS * files.len() * specs.len()) as u64;
    let distinct = (files.len() * specs.len()) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "no lost counter updates"
    );
    assert_eq!(stats.misses, distinct, "one miss per distinct key");
    assert_eq!(stats.entries, distinct);
    assert_eq!(cache.compiles(), distinct, "one compile per distinct key");
}

#[test]
fn distinct_specs_are_distinct_cache_keys() {
    let files = corpus_files();
    let cache = CompileCache::new();
    let file = &files[0];

    check_fv_file(file, &cache, SpecRequest::Auto);
    let report = check_fv_file(file, &cache, SpecRequest::Rtm { tile: 256 });
    assert!(
        !report.cache_hit,
        "RTM spec must not reuse the first-faulting plan"
    );
    let report = check_fv_file(file, &cache, SpecRequest::Rtm { tile: 256 });
    assert!(report.cache_hit, "same RTM spec must hit");
    let report = check_fv_file(file, &cache, SpecRequest::Rtm { tile: 128 });
    assert!(!report.cache_hit, "different RTM tile is a different key");
}

#[test]
fn native_code_is_built_once_per_width_and_shared() {
    let cache = CompileCache::new();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/minloc.fv");
    let kernel = parse_file(&path).expect("minloc parses");
    let (entry, _) = cache.get_or_compile(&kernel.program, SpecRequest::Auto);
    let plan = entry.plan.as_ref().expect("minloc vectorizes");
    assert!(
        plan.native_widths().is_empty(),
        "a compile builds no native code"
    );

    // Threads racing the first build at one width get one shared plan.
    let raced: Vec<Arc<CompiledVProg>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| with_vlen(16, || plan.native(16))))
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(raced.iter().all(|p| Arc::ptr_eq(p, &raced[0])));
    assert_eq!(plan.native_widths(), [16]);
    assert_eq!(raced[0].has_native(), native_supported());

    // A repeat request finds the same plan through its cache hit.
    let (again, hit) = cache.get_or_compile(&kernel.program, SpecRequest::Auto);
    assert!(hit);
    let repeat = with_vlen(16, || again.plan.as_ref().unwrap().native(16));
    assert!(Arc::ptr_eq(&repeat, &raced[0]));

    // Another width is another plan, built once too.
    let wide = with_vlen(32, || plan.native(32));
    assert!(!Arc::ptr_eq(&wide, &raced[0]));
    assert!(Arc::ptr_eq(&wide, &with_vlen(32, || plan.native(32))));
    assert_eq!(plan.native_widths(), [16, 32]);
    assert_eq!(cache.compiles(), 1, "native code is not a compile");
}
