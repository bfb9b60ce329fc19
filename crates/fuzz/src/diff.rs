//! The differential check: one case, every execution path.
//!
//! The scalar interpreter is the oracle, run once per case through
//! [`flexvec_vm::Kernel::run_scalar`]. Each speculation mode that the
//! vectorizer accepts runs under the tree-walking engine, the compiled
//! engine, and — on hosts with the x86-64 back end — the native JIT
//! tier, at **every supported vector length** (8, 16, 32, 64), and
//! [`flexvec_vm::Kernel::compare`] checks every observable — live-out
//! scalars, the induction exit value, the break flag, the iteration
//! count, and final memory — against the oracle's; its mismatch text is
//! the divergence detail. At each width the engines must additionally be
//! bit-identical to each other (statistics and full µop traces). A
//! width above the program's analysis-proven ceiling (`VProg::max_vl`)
//! must be a clean [`flexvec_vm::ExecError::UnsupportedWidth`] refusal
//! from every engine — silently executing past the ceiling, or failing
//! with any other error, is a divergence. When a compile cache is
//! supplied the case also round-trips through the `.fv` printer/parser
//! and the cached-vs-fresh compile path.

use std::sync::Arc;

use flexvec::{vectorize, SpecRequest, VProg};
use flexvec_front::{parse_str, to_fv_kernel, CompileCache};
use flexvec_isa::{with_vlen, SUPPORTED_VLENS};
use flexvec_vm::{
    native_supported, CountingSink, Engine, ExecError, Execution, Kernel, Uop, VecSink, VectorCode,
};

use crate::explicit_inputs;
use crate::gen::FuzzCase;

/// Every speculation mode the checker exercises, with its display name.
pub const SPECS: [(&str, SpecRequest); 4] = [
    ("ff", SpecRequest::Auto),
    ("rtm:16", SpecRequest::Rtm { tile: 16 }),
    ("rtm:64", SpecRequest::Rtm { tile: 64 }),
    ("rtm:256", SpecRequest::Rtm { tile: 256 }),
];

/// What to check beyond the engine × spec matrix.
pub struct CheckConfig<'a> {
    /// When set, also run the front-end round-trip and the
    /// cached-vs-fresh compile path through this cache.
    pub front_end: Option<&'a CompileCache>,
    /// Mutation-testing hook: applied to each vectorized program before
    /// execution. Returns whether the mutation applied; specs where it
    /// does not apply are skipped. Divergences then demonstrate the
    /// harness catches that class of codegen bug.
    pub mutate: Option<&'a dyn Fn(&mut VProg) -> bool>,
}

/// A detected disagreement between two execution paths.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which path disagreed (e.g. `ff/compiled`, `front/reparse`).
    pub config: String,
    /// Expected-vs-actual description.
    pub detail: String,
}

/// Work accounting for a clean check.
#[derive(Debug, Default, Clone, Copy)]
pub struct CheckStats {
    /// Vector executions performed and compared against the oracle.
    pub vector_runs: u64,
    /// Spec modes the vectorizer (legitimately) rejected for this case.
    pub rejected_specs: u64,
    /// (spec, width) combinations above the program's width ceiling
    /// that every engine cleanly refused with `UnsupportedWidth`.
    pub rejected_widths: u64,
}

fn diverged<T>(config: &str, detail: String) -> Result<T, Divergence> {
    Err(Divergence {
        config: config.to_owned(),
        detail,
    })
}

/// The case as a checked kernel: one invocation on its arrays.
fn kernel(case: &FuzzCase) -> Kernel<'_> {
    Kernel::new(&case.program, &case.arrays, 1)
}

/// One engine's run: what it left behind and its full µop trace.
struct VectorRun {
    execution: Execution,
    uops: Vec<Uop>,
}

fn run_oracle(case: &FuzzCase) -> Result<Execution, Divergence> {
    kernel(case)
        .run_scalar(&mut CountingSink::default(), None)
        .or_else(|e| diverged("scalar", format!("scalar reference failed: {e:?}")))
}

fn run_engine(case: &FuzzCase, code: &VectorCode<'_>) -> Result<VectorRun, ExecError> {
    let mut sink = VecSink::default();
    let execution = kernel(case).run_vector(code, &mut sink, None)?;
    Ok(VectorRun {
        execution,
        uops: sink.uops,
    })
}

fn compare_to_oracle(
    case: &FuzzCase,
    config: &str,
    oracle: &Execution,
    run: &Execution,
) -> Result<(), Divergence> {
    kernel(case)
        .compare(oracle, run)
        .or_else(|m| diverged(config, m.to_string()))
}

fn compare_engines(config: &str, tree: &VectorRun, other: &VectorRun) -> Result<(), Divergence> {
    let (tree_stats, other_stats) = (&tree.execution.stats, &other.execution.stats);
    if tree_stats != other_stats {
        return diverged(
            config,
            format!("engine statistics differ: tree {tree_stats:?}, other {other_stats:?}"),
        );
    }
    if tree.uops != other.uops {
        let idx = tree
            .uops
            .iter()
            .zip(&other.uops)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| tree.uops.len().min(other.uops.len()));
        return diverged(
            config,
            format!(
                "µop traces differ at index {idx} (tree {} µops, other {} µops)",
                tree.uops.len(),
                other.uops.len()
            ),
        );
    }
    Ok(())
}

/// The engine matrix: the native tier joins on hosts that have it.
fn engine_matrix() -> Vec<(&'static str, Engine)> {
    let mut engines = vec![
        ("tree", Engine::TreeWalking),
        ("compiled", Engine::Compiled),
    ];
    if native_supported() {
        engines.push(("native", Engine::Native));
    }
    engines
}

fn check_front_end(
    case: &FuzzCase,
    cache: &CompileCache,
    oracle: &Execution,
) -> Result<u64, Divergence> {
    // Print → reparse: the canonical text must reproduce the exact AST
    // and the exact input data.
    let inputs = explicit_inputs(case);
    let text = to_fv_kernel(&case.program, &inputs);
    let parsed = match parse_str("<fuzz>", &text) {
        Ok(parsed) => parsed,
        Err(d) => {
            return diverged(
                "front/reparse",
                format!("canonical text does not reparse: {}", d.render(&text)),
            )
        }
    };
    if parsed.program != case.program {
        return diverged(
            "front/reparse",
            "printed text reparsed to a different AST".to_owned(),
        );
    }
    if parsed.materialize_arrays() != case.arrays {
        return diverged(
            "front/reparse",
            "printed inputs materialized to different data".to_owned(),
        );
    }

    // Fresh vs cached compile: the second submission must be a shared
    // hit, and executing the cached plan must agree with the oracle.
    let (first, _) = cache.get_or_compile(&case.program, SpecRequest::Auto);
    let (second, hit) = cache.get_or_compile(&case.program, SpecRequest::Auto);
    if !hit || !Arc::ptr_eq(&first, &second) {
        return diverged(
            "front/cache",
            "second submission was not a shared cache hit".to_owned(),
        );
    }
    let Ok(plan) = &second.plan else {
        return Ok(0);
    };
    // The front-end paths run at the ambient width (e.g. `flexvecc
    // fuzz --vl 32`). Past this kernel's proven ceiling the cached
    // plan must refuse cleanly, exactly like the engine matrix.
    let code = VectorCode::precompiled(&plan.vectorized.vprog, &plan.compiled, Engine::Compiled);
    let over_ceiling = flexvec_isa::vlen() > plan.vectorized.vprog.max_vl;
    match kernel(case).run_vector(&code, &mut CountingSink::default(), None) {
        Err(ExecError::UnsupportedWidth { .. }) if over_ceiling => Ok(0),
        Ok(_) if over_ceiling => diverged(
            "front/cache",
            format!(
                "cached plan executed at vl {} past the ceiling {} instead of refusing",
                flexvec_isa::vlen(),
                plan.vectorized.vprog.max_vl
            ),
        ),
        Err(e) if over_ceiling => diverged(
            "front/cache",
            format!("expected a clean UnsupportedWidth refusal past the ceiling, got {e:?}"),
        ),
        Ok(run) => {
            compare_to_oracle(case, "front/cache", oracle, &run)?;
            Ok(1)
        }
        Err(e) => diverged(
            "front/cache",
            format!("cached plan failed where the scalar reference succeeded: {e:?}"),
        ),
    }
}

/// Runs one vectorized program through the full engine matrix at one
/// ambient vector length (the caller has already set it) and
/// cross-checks every engine against the oracle and each other.
///
/// Above the program's width ceiling every engine must refuse with
/// `UnsupportedWidth` — execution or any other error is a divergence.
fn check_at_width(
    case: &FuzzCase,
    oracle: &Execution,
    spec_name: &str,
    vl: usize,
    vprog: &VProg,
    stats: &mut CheckStats,
) -> Result<(), Divergence> {
    let engines = engine_matrix();
    let ceiling = vprog.max_vl;
    let over_ceiling = vl > ceiling;
    let mut runs: Vec<VectorRun> = Vec::with_capacity(engines.len());
    for (engine_name, engine) in &engines {
        let config = format!("{spec_name}/vl{vl}/{engine_name}");
        match run_engine(case, &VectorCode::new(vprog, *engine)) {
            Err(ExecError::UnsupportedWidth { .. }) if over_ceiling => {}
            Ok(_) if over_ceiling => {
                return diverged(
                    &config,
                    format!(
                        "executed at vl {vl} past the kernel's width ceiling {ceiling} \
                         instead of refusing"
                    ),
                )
            }
            Err(e) if over_ceiling => {
                return diverged(
                    &config,
                    format!(
                        "expected a clean UnsupportedWidth refusal at vl {vl} \
                         (ceiling {ceiling}), got {e:?}"
                    ),
                )
            }
            Ok(run) => {
                compare_to_oracle(case, &config, oracle, &run.execution)?;
                stats.vector_runs += 1;
                runs.push(run);
            }
            Err(e) => {
                return diverged(
                    &config,
                    format!("vector execution failed where the scalar reference succeeded: {e:?}"),
                )
            }
        }
    }
    if over_ceiling {
        stats.rejected_widths += 1;
    }
    for (i, run) in runs.iter().enumerate().skip(1) {
        compare_engines(
            &format!("{spec_name}/vl{vl}/tree-vs-{}", engines[i].0),
            &runs[0],
            run,
        )?;
    }
    Ok(())
}

/// Runs one case through every execution path and cross-checks them.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; `Ok` means every path agreed.
pub fn check_case(case: &FuzzCase, cfg: &CheckConfig<'_>) -> Result<CheckStats, Divergence> {
    let mut stats = CheckStats::default();
    let oracle = run_oracle(case)?;

    for (spec_name, spec) in SPECS {
        let Ok(vectorized) = vectorize(&case.program, spec) else {
            stats.rejected_specs += 1;
            continue;
        };
        let mut vprog = vectorized.vprog;
        if let Some(mutate) = cfg.mutate {
            if !mutate(&mut vprog) {
                continue;
            }
        }

        // The compiled artifact is width-independent; only execution
        // binds a lane count, so each width re-runs the same `vprog`.
        for vl in SUPPORTED_VLENS {
            with_vlen(vl, || {
                check_at_width(case, &oracle, spec_name, vl, &vprog, &mut stats)
            })?;
        }
    }

    if cfg.mutate.is_none() {
        if let Some(cache) = cfg.front_end {
            stats.vector_runs += check_front_end(case, cache, &oracle)?;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    const NO_FRONT_END: CheckConfig<'_> = CheckConfig {
        front_end: None,
        mutate: None,
    };

    /// Generated cases sweep all four widths; every clean case must
    /// log at least one vector run per supported width for each spec
    /// the vectorizer accepted at full width.
    #[test]
    fn clean_cases_sweep_every_supported_width() {
        let mut widths_run = 0u64;
        for index in 0..20 {
            let case = generate(7, index);
            let stats = check_case(&case, &NO_FRONT_END).unwrap_or_else(|d| {
                panic!("case {index} diverged under {}: {}", d.config, d.detail)
            });
            widths_run += stats.vector_runs;
        }
        // 20 cases × ≥1 accepted spec × ≥2 engines × 4 widths.
        assert!(
            widths_run >= 160,
            "width sweep did not run enough matrix cells: {widths_run}"
        );
    }

    /// A carried RAW distance of exactly 16 proves widths 8 and 16 but
    /// refuses 32 and 64: those must count as clean width rejections,
    /// not divergences.
    #[test]
    fn over_ceiling_widths_are_clean_refusals() {
        let parsed = parse_str(
            "<dist16>",
            "kernel dist16;\n\
             var i = 0;\n\
             var t = 0;\n\
             array a[128] = seed 3;\n\
             live_out t;\n\
             for (i = 16; i < 128; i++) {\n\
               t = a[i - 16] + 1;\n\
               a[i] = t;\n\
             }\n",
        )
        .expect("dist16 parses");
        let case = FuzzCase {
            arrays: parsed.materialize_arrays(),
            program: parsed.program,
        };
        let stats = check_case(&case, &NO_FRONT_END)
            .unwrap_or_else(|d| panic!("diverged under {}: {}", d.config, d.detail));
        // Every spec the vectorizer accepts carries the same max_vl of
        // 16, so vl ∈ {32, 64} must each be refused per accepted spec.
        assert!(
            stats.rejected_widths >= 2,
            "expected over-ceiling refusals, got {stats:?}"
        );
        assert!(stats.vector_runs > 0, "widths 8 and 16 must still run");
    }
}
