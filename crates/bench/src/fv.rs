//! Batch evaluation of `.fv` kernels — the engine behind `flexvecc`.
//!
//! Mirrors the workload harness in `flexvec-workloads`: every kernel is
//! executed scalar (the baseline) and — when the vectorizer accepts it —
//! as FlexVec vector code on the Table 1 out-of-order model, with the
//! two executions verified against each other (live-outs and every array
//! element). The analyze→vectorize→bytecode-compile middle of the
//! pipeline goes through a shared [`CompileCache`], so resubmitting a
//! corpus in the same process is pure cache hits.

use std::path::{Path, PathBuf};
use std::time::Instant;

use flexvec::{SpecRequest, VectorizedKind};
use flexvec_front::{parse_file, CompileCache, ParsedKernel};
use flexvec_mem::AddressSpace;
use flexvec_profiler::ThroughputReport;
use flexvec_sim::{OooSim, SimConfig};
use flexvec_vm::{
    run_scalar, run_vector_precompiled_with_scratch, run_vector_with_engine, Bindings, Engine,
    TraceSink, VectorStats,
};

/// Measured outcome of one vectorized `.fv` kernel.
#[derive(Clone, Debug)]
pub struct FvRun {
    /// `traditional` or `flexvec` — which code generator produced the
    /// vector code.
    pub kind: &'static str,
    /// Baseline (scalar) cycles over all invocations.
    pub scalar_cycles: u64,
    /// Vector cycles over all invocations.
    pub vector_cycles: u64,
    /// Baseline-over-FlexVec hot-region speedup.
    pub region_speedup: f64,
    /// Dynamic vector statistics (last invocation).
    pub stats: VectorStats,
    /// Execution-engine throughput counters for the vector runs.
    pub throughput: ThroughputReport,
    /// Final live-out values, `(name, value)` in declaration order.
    pub live_outs: Vec<(String, i64)>,
}

/// The per-file report `flexvecc` prints.
#[derive(Clone, Debug)]
pub struct FvReport {
    /// The path as given (diagnostic source name).
    pub source: String,
    /// Kernel name (empty when the file did not parse).
    pub kernel: String,
    /// One-line verdict summary (or `parse error`).
    pub verdict: String,
    /// Whether the compile cache already held this (AST, spec) pair.
    pub cache_hit: bool,
    /// Rendered diagnostic / execution failure, if any.
    pub error: Option<String>,
    /// Execution measurements (present for `run` on vectorizable
    /// kernels that executed cleanly).
    pub run: Option<FvRun>,
}

impl FvReport {
    /// Whether this file should fail the batch.
    pub fn is_failure(&self) -> bool {
        self.error.is_some()
    }
}

/// Expands files and directories into the sorted list of `.fv` files to
/// process. Directories are scanned one level deep for `*.fv`.
///
/// # Errors
///
/// Reports unreadable paths and directories containing no `.fv` files.
pub fn collect_fv_files(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for p in paths {
        let path = PathBuf::from(p);
        if path.is_dir() {
            let mut found = Vec::new();
            let entries = std::fs::read_dir(&path).map_err(|e| format!("cannot read {p}: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read {p}: {e}"))?;
                let file = entry.path();
                if file.extension().is_some_and(|ext| ext == "fv") {
                    found.push(file);
                }
            }
            if found.is_empty() {
                return Err(format!("no .fv files in directory {p}"));
            }
            found.sort();
            out.extend(found);
        } else if path.is_file() {
            out.push(path);
        } else {
            return Err(format!("no such file or directory: {p}"));
        }
    }
    Ok(out)
}

fn parse_report(path: &Path) -> Result<ParsedKernel, Box<FvReport>> {
    let source = path.display().to_string();
    match parse_file(path) {
        Ok(kernel) => Ok(kernel),
        Err(diag) => {
            let rendered = match std::fs::read_to_string(path) {
                Ok(src) => diag.render(&src),
                Err(_) => diag.summary(),
            };
            Err(Box::new(FvReport {
                source,
                kernel: String::new(),
                verdict: "parse error".to_owned(),
                cache_hit: false,
                error: Some(rendered),
                run: None,
            }))
        }
    }
}

/// Parses and compiles one kernel without executing it (`flexvecc
/// check` / `vectorize`).
pub fn check_fv_file(path: &Path, cache: &CompileCache, spec: SpecRequest) -> FvReport {
    let kernel = match parse_report(path) {
        Ok(k) => k,
        Err(report) => return *report,
    };
    let (compiled, cache_hit) = cache.get_or_compile(&kernel.program, spec);
    FvReport {
        source: path.display().to_string(),
        kernel: kernel.program.name.clone(),
        verdict: compiled.verdict_summary(),
        cache_hit,
        error: None,
        run: None,
    }
}

/// Parses, compiles (through `cache`) and executes one kernel:
/// scalar baseline always; vector code when the vectorizer accepts the
/// loop, verified element-for-element against the baseline.
pub fn evaluate_fv_file(
    path: &Path,
    cache: &CompileCache,
    spec: SpecRequest,
    engine: Engine,
    invocations: u64,
) -> FvReport {
    let kernel = match parse_report(path) {
        Ok(k) => k,
        Err(report) => return *report,
    };
    let (compiled, cache_hit) = cache.get_or_compile(&kernel.program, spec);
    let mut report = FvReport {
        source: path.display().to_string(),
        kernel: kernel.program.name.clone(),
        verdict: compiled.verdict_summary(),
        cache_hit,
        error: None,
        run: None,
    };

    let program = &kernel.program;
    let arrays = kernel.materialize_arrays();
    let config = SimConfig::table1();
    let invocations = invocations.max(1);

    let bind_arrays = |mem: &mut AddressSpace| -> Bindings {
        let ids: Vec<_> = arrays
            .iter()
            .enumerate()
            .map(|(i, data)| mem.alloc_from(&format!("{}_{i}", program.name), data))
            .collect();
        Bindings::new(ids)
    };

    // Baseline: scalar execution on the OOO model.
    let mut mem_s = AddressSpace::new();
    let bind_s = bind_arrays(&mut mem_s);
    let mut sim_s = OooSim::new(config.clone());
    let mut scalar_final = None;
    for _ in 0..invocations {
        match run_scalar(program, &mut mem_s, bind_s.clone(), &mut sim_s) {
            Ok(r) => scalar_final = Some(r),
            Err(e) => {
                report.error = Some(format!("scalar execution failed: {e}"));
                return report;
            }
        }
    }
    let scalar_run = scalar_final.expect("at least one invocation");
    let scalar_cycles = sim_s.result().cycles;
    let live_outs: Vec<(String, i64)> = program
        .live_out
        .iter()
        .map(|v| (program.var_name(*v).to_owned(), scalar_run.var(*v)))
        .collect();

    let Ok(plan) = &compiled.plan else {
        // Not vectorizable: the scalar baseline is the only execution.
        report.run = Some(FvRun {
            kind: "scalar-only",
            scalar_cycles,
            vector_cycles: scalar_cycles,
            region_speedup: 1.0,
            stats: VectorStats::default(),
            throughput: ThroughputReport::new("scalar", std::time::Duration::ZERO, 0, sim_s.len()),
            live_outs,
        });
        return report;
    };

    // Vector execution on a fresh memory image. The native tier needs
    // its own plan clone: the cached one is shared and immutable.
    let native = (engine == Engine::Native).then(|| {
        let mut c = plan.compiled.clone();
        c.enable_native();
        c
    });
    let mut mem_v = AddressSpace::new();
    let bind_v = bind_arrays(&mut mem_v);
    let mut sim_v = OooSim::new(config);
    let mut scratch = match &native {
        Some(c) => c.scratch(),
        None => plan.compiled.scratch(),
    };
    let mut vector_final = None;
    let mut stats = VectorStats::default();
    let label = match engine {
        Engine::TreeWalking => "tree-walking",
        Engine::Compiled => "compiled",
        Engine::Native => "native",
    };
    let mut throughput = ThroughputReport::new(label, std::time::Duration::ZERO, 0, 0);
    let wall_start = Instant::now();
    for _ in 0..invocations {
        let step = match engine {
            Engine::Compiled | Engine::Native => run_vector_precompiled_with_scratch(
                program,
                &plan.vectorized.vprog,
                native.as_ref().unwrap_or(&plan.compiled),
                &mut scratch,
                &mut mem_v,
                bind_v.clone(),
                &mut sim_v,
            ),
            Engine::TreeWalking => run_vector_with_engine(
                program,
                &plan.vectorized.vprog,
                &mut mem_v,
                bind_v.clone(),
                &mut sim_v,
                Engine::TreeWalking,
            ),
        };
        match step {
            Ok((r, s)) => {
                throughput.add_stats(&s);
                vector_final = Some(r);
                stats = s;
            }
            Err(e) => {
                report.error = Some(format!("vector execution failed: {e}"));
                return report;
            }
        }
    }
    throughput.wall = wall_start.elapsed();
    throughput.uops = sim_v.len();
    let vector_run = vector_final.expect("at least one invocation");
    let vector_cycles = sim_v.result().cycles;

    // Verification: live-outs and every array byte must agree.
    for v in &program.live_out {
        if scalar_run.var(*v) != vector_run.var(*v) {
            report.error = Some(format!(
                "scalar/vector mismatch: live-out {} is {} scalar vs {} vector",
                program.var_name(*v),
                scalar_run.var(*v),
                vector_run.var(*v)
            ));
            return report;
        }
    }
    for i in 0..arrays.len() {
        let a = bind_s.array(i as u32);
        let b = bind_v.array(i as u32);
        if mem_s.array_slice(a) != mem_v.array_slice(b) {
            report.error = Some(format!(
                "scalar/vector mismatch: array {} differs",
                program.array_name(flexvec_ir::ArraySym(i as u32))
            ));
            return report;
        }
    }

    report.run = Some(FvRun {
        kind: match plan.vectorized.kind {
            VectorizedKind::Traditional => "traditional",
            VectorizedKind::FlexVec => "flexvec",
        },
        scalar_cycles,
        vector_cycles,
        region_speedup: scalar_cycles as f64 / vector_cycles.max(1) as f64,
        stats,
        throughput,
        live_outs,
    });
    report
}

/// Evaluates a batch of `.fv` files in parallel (one worker per file,
/// like the workload harness), preserving input order. All workers
/// share `cache`, so duplicate kernels compile once. The caller's
/// ambient vector length is propagated into each worker thread (the
/// ambient width is thread-local, so a bare spawn would silently reset
/// workers to the default).
pub fn evaluate_fv_all(
    files: &[PathBuf],
    cache: &CompileCache,
    spec: SpecRequest,
    engine: Engine,
    invocations: u64,
) -> Vec<FvReport> {
    let vl = flexvec_isa::vlen();
    std::thread::scope(|scope| {
        let handles: Vec<_> = files
            .iter()
            .map(|path| {
                scope.spawn(move || {
                    flexvec_isa::with_vlen(vl, || {
                        evaluate_fv_file(path, cache, spec, engine, invocations)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

/// Renders the per-kernel result table for `flexvecc run`.
pub fn render_fv_reports(reports: &[FvReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "kernel", "scalar cyc", "vector cyc", "speedup", "cache"
    ));
    for r in reports {
        let name = if r.kernel.is_empty() {
            r.source.as_str()
        } else {
            r.kernel.as_str()
        };
        match (&r.run, &r.error) {
            (_, Some(_)) => {
                out.push_str(&format!(
                    "{:<16} {:>12} {:>12} {:>8} {:>6}  FAILED\n",
                    name, "-", "-", "-", "-"
                ));
            }
            (Some(run), None) => {
                out.push_str(&format!(
                    "{:<16} {:>12} {:>12} {:>7.2}x {:>6}  {}\n",
                    name,
                    run.scalar_cycles,
                    run.vector_cycles,
                    run.region_speedup,
                    if r.cache_hit { "hit" } else { "miss" },
                    r.verdict
                ));
            }
            (None, None) => {
                out.push_str(&format!(
                    "{:<16} {:>12} {:>12} {:>8} {:>6}  {}\n",
                    name,
                    "-",
                    "-",
                    "-",
                    if r.cache_hit { "hit" } else { "miss" },
                    r.verdict
                ));
            }
        }
    }
    out
}

/// Escapes a string for embedding in a JSON string literal (shared by
/// the report emitters and the `flexvecc fuzz` JSON output).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the reports (plus the cache counters) as a JSON document for
/// `--json` consumers.
pub fn fv_reports_json(reports: &[FvReport], cache: &CompileCache) -> String {
    let mut out = String::from("{\n  \"kernels\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"source\": \"{}\"", json_escape(&r.source)));
        out.push_str(&format!(", \"kernel\": \"{}\"", json_escape(&r.kernel)));
        out.push_str(&format!(", \"verdict\": \"{}\"", json_escape(&r.verdict)));
        out.push_str(&format!(", \"cache_hit\": {}", r.cache_hit));
        if let Some(e) = &r.error {
            out.push_str(&format!(", \"error\": \"{}\"", json_escape(e)));
        }
        if let Some(run) = &r.run {
            out.push_str(&format!(
                ", \"kind\": \"{}\", \"scalar_cycles\": {}, \"vector_cycles\": {}, \
                 \"region_speedup\": {}, \"chunks\": {}, \"vpl_iterations\": {}",
                run.kind,
                run.scalar_cycles,
                run.vector_cycles,
                crate::flags::json_f64(run.region_speedup),
                run.stats.chunks,
                run.stats.vpl_iterations
            ));
            let lo: Vec<String> = run
                .live_outs
                .iter()
                .map(|(n, v)| format!("\"{}\": {v}", json_escape(n)))
                .collect();
            out.push_str(&format!(", \"live_outs\": {{{}}}", lo.join(", ")));
        }
        out.push('}');
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    let stats = cache.stats();
    out.push_str(&format!(
        "  ],\n  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \
         \"hit_rate\": {}, \"compiles\": {}}}\n}}\n",
        stats.hits,
        stats.misses,
        stats.entries,
        crate::flags::json_f64(stats.hit_rate()),
        cache.compiles()
    ));
    out
}

/// One line summarizing cache effectiveness for the human-readable
/// output.
pub fn render_cache_line(cache: &CompileCache) -> String {
    let stats = cache.stats();
    format!(
        "compile cache: {} hits / {} lookups ({:.0}% hit rate), {} entries, {} pipeline compiles",
        stats.hits,
        stats.hits + stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries,
        cache.compiles()
    )
}
