//! The measurement harness: runs a workload's hot loop as the baseline
//! (scalar — the paper's baseline compiler cannot vectorize FlexVec
//! candidates) and as FlexVec vector code, times both on the Table 1
//! out-of-order model, verifies the two executions agree, and scales the
//! region speedup by the workload's coverage (the paper's rdtsc-based
//! methodology).

use std::time::Instant;

use flexvec::{vectorize, InstMix, SpecRequest};
use flexvec_mem::AddressSpace;
use flexvec_profiler::ThroughputReport;
use flexvec_sim::{amdahl_overall, OooSim, SimConfig};
use flexvec_vm::{
    run_all_or_nothing_with_engine, run_scalar, run_vector_precompiled_with_scratch,
    run_vector_with_engine, Bindings, CompiledVProg, Engine, ExecError, TraceSink, VectorStats,
};

use crate::{Suite, Workload};

/// Why an evaluation failed.
#[derive(Debug)]
pub enum EvalError {
    /// The loop failed to vectorize.
    Vectorize(flexvec::VectorizeError),
    /// An execution faulted.
    Exec(ExecError),
    /// Scalar and vector executions disagreed (a reproduction bug — never
    /// expected).
    Mismatch(String),
}

impl core::fmt::Display for EvalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EvalError::Vectorize(e) => write!(f, "vectorization failed: {e}"),
            EvalError::Exec(e) => write!(f, "execution failed: {e}"),
            EvalError::Mismatch(m) => write!(f, "scalar/vector mismatch: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<flexvec::VectorizeError> for EvalError {
    fn from(e: flexvec::VectorizeError) -> Self {
        EvalError::Vectorize(e)
    }
}

impl From<ExecError> for EvalError {
    fn from(e: ExecError) -> Self {
        EvalError::Exec(e)
    }
}

/// Measured outcome for one workload.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Workload name.
    pub name: &'static str,
    /// Suite.
    pub suite: Suite,
    /// Coverage used for the overall scaling.
    pub coverage: f64,
    /// Baseline (scalar) cycles over all invocations.
    pub scalar_cycles: u64,
    /// FlexVec cycles over all invocations.
    pub flexvec_cycles: u64,
    /// Hot-region speedup.
    pub region_speedup: f64,
    /// Whole-application speedup after coverage scaling (Figure 8's
    /// y-axis).
    pub overall_speedup: f64,
    /// Dynamic vector-execution statistics (last invocation).
    pub stats: VectorStats,
    /// Static FlexVec instruction mix.
    pub mix: InstMix,
    /// Dynamic scalar µops.
    pub scalar_uops: u64,
    /// Dynamic vector µops.
    pub vector_uops: u64,
    /// Execution-engine throughput counters for the vector runs
    /// (chunks/s, µops/s).
    pub throughput: ThroughputReport,
}

fn build_memory(w: &Workload) -> (AddressSpace, Bindings) {
    let mut mem = AddressSpace::new();
    let ids: Vec<_> = w
        .arrays
        .iter()
        .enumerate()
        .map(|(i, data)| mem.alloc_from(&format!("{}_{i}", w.name), data))
        .collect();
    (mem, Bindings::new(ids))
}

/// Vector execution strategy for [`evaluate_with_config`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorMode {
    /// FlexVec partial vector execution (the paper's technique).
    FlexVec,
    /// All-or-nothing speculative vectorization (the PACT'13 baseline the
    /// paper compares against in Section 2).
    AllOrNothing,
}

/// Runs the workload under both compilers and reports the speedups, with
/// the default Table 1 simulator configuration.
///
/// # Errors
///
/// Fails when the loop does not vectorize, an execution faults, or — a
/// reproduction bug — the two executions disagree.
pub fn evaluate(w: &Workload, spec: SpecRequest) -> Result<Evaluation, EvalError> {
    evaluate_with_config(w, spec, &SimConfig::table1(), VectorMode::FlexVec)
}

/// [`evaluate`] with an explicit simulator configuration and vector
/// execution strategy (used by the ablation studies), on the default
/// (compiled) engine.
///
/// # Errors
///
/// As [`evaluate`].
pub fn evaluate_with_config(
    w: &Workload,
    spec: SpecRequest,
    config: &SimConfig,
    mode: VectorMode,
) -> Result<Evaluation, EvalError> {
    evaluate_with_engine(w, spec, config, mode, Engine::default())
}

fn engine_label(engine: Engine) -> &'static str {
    match engine {
        Engine::TreeWalking => "tree-walking",
        Engine::Compiled => "compiled",
        Engine::Native => "native",
    }
}

/// [`evaluate_with_config`] with an explicit execution [`Engine`]. With
/// [`Engine::Compiled`] the `VProg` is flattened once and reused across
/// all invocations.
///
/// # Errors
///
/// As [`evaluate`].
pub fn evaluate_with_engine(
    w: &Workload,
    spec: SpecRequest,
    config: &SimConfig,
    mode: VectorMode,
    engine: Engine,
) -> Result<Evaluation, EvalError> {
    let vectorized = vectorize(&w.program, spec)?;

    // Baseline: scalar execution on the OOO model.
    let (mut mem_s, bind_s) = build_memory(w);
    let mut sim_s = OooSim::new(config.clone());
    let mut scalar_final = None;
    for _ in 0..w.invocations {
        scalar_final = Some(run_scalar(
            &w.program,
            &mut mem_s,
            bind_s.clone(),
            &mut sim_s,
        )?);
    }
    let scalar_result = sim_s.result();
    let scalar_run = scalar_final.expect("at least one invocation");

    // FlexVec: vector execution on the same model. Compile once, run
    // every invocation through the flattened program.
    let (mut mem_v, bind_v) = build_memory(w);
    let mut compiled = match engine {
        Engine::Compiled | Engine::Native => {
            let mut c = CompiledVProg::compile(&vectorized.vprog);
            if engine == Engine::Native {
                c.enable_native();
            }
            let scratch = c.scratch();
            Some((c, scratch))
        }
        Engine::TreeWalking => None,
    };
    let mut sim_v = OooSim::new(config.clone());
    let mut vector_final = None;
    let mut stats = VectorStats::default();
    let mut throughput =
        ThroughputReport::new(engine_label(engine), std::time::Duration::ZERO, 0, 0);
    let wall_start = Instant::now();
    for _ in 0..w.invocations {
        let (r, s) = match (mode, &mut compiled) {
            (VectorMode::FlexVec, Some((c, scratch))) => run_vector_precompiled_with_scratch(
                &w.program,
                &vectorized.vprog,
                c,
                scratch,
                &mut mem_v,
                bind_v.clone(),
                &mut sim_v,
            )?,
            (VectorMode::FlexVec, None) => run_vector_with_engine(
                &w.program,
                &vectorized.vprog,
                &mut mem_v,
                bind_v.clone(),
                &mut sim_v,
                Engine::TreeWalking,
            )?,
            (VectorMode::AllOrNothing, _) => run_all_or_nothing_with_engine(
                &w.program,
                &vectorized.vprog,
                &mut mem_v,
                bind_v.clone(),
                &mut sim_v,
                engine,
            )?,
        };
        throughput.add_stats(&s);
        vector_final = Some(r);
        stats = s;
    }
    throughput.wall = wall_start.elapsed();
    let vector_result = sim_v.result();
    let vector_run = vector_final.expect("at least one invocation");

    // Verification: live-outs and all arrays must agree.
    for v in &w.program.live_out {
        if scalar_run.var(*v) != vector_run.var(*v) {
            return Err(EvalError::Mismatch(format!(
                "{}: live-out {} is {} scalar vs {} vector",
                w.name,
                w.program.var_name(*v),
                scalar_run.var(*v),
                vector_run.var(*v)
            )));
        }
    }
    for i in 0..w.arrays.len() {
        let a = bind_s.array(i as u32);
        let b = bind_v.array(i as u32);
        if mem_s.array_slice(a) != mem_v.array_slice(b) {
            return Err(EvalError::Mismatch(format!(
                "{}: array {i} differs",
                w.name
            )));
        }
    }

    let region_speedup = scalar_result.cycles as f64 / vector_result.cycles as f64;
    Ok(Evaluation {
        name: w.name,
        suite: w.suite,
        coverage: w.coverage,
        scalar_cycles: scalar_result.cycles,
        flexvec_cycles: vector_result.cycles,
        region_speedup,
        overall_speedup: amdahl_overall(region_speedup, w.coverage),
        stats,
        mix: vectorized.vprog.inst_mix(),
        scalar_uops: sim_s.len(),
        vector_uops: sim_v.len(),
        throughput: ThroughputReport {
            uops: sim_v.len(),
            ..throughput
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_h264_is_correct_and_fast() {
        let w = crate::spec::h264ref();
        let e = evaluate(&w, SpecRequest::Auto).expect("evaluates");
        assert!(e.region_speedup > 1.0, "expected a region win, got {e:?}");
        assert!(e.overall_speedup > 1.0);
        assert!(e.overall_speedup <= e.region_speedup);
    }

    #[test]
    fn evaluate_conflict_workload() {
        let w = crate::spec::astar();
        let e = evaluate(&w, SpecRequest::Auto).expect("evaluates");
        assert!(e.mix.vpconflictm > 0);
        assert!(e.stats.vpl_iterations >= e.stats.chunks);
    }

    #[test]
    fn evaluate_early_exit_workload() {
        let w = crate::apps::gzip();
        let e = evaluate(&w, SpecRequest::Auto).expect("evaluates");
        assert!(e.stats.broke);
    }

    #[test]
    fn rtm_mode_also_verifies() {
        let w = crate::spec::h264ref();
        let e = evaluate(&w, SpecRequest::Rtm { tile: 128 }).expect("evaluates");
        assert!(e.stats.rtm_commits > 0);
    }

    #[test]
    fn engines_agree_and_report_throughput() {
        let w = crate::spec::h264ref();
        let cfg = SimConfig::table1();
        let compiled = evaluate_with_engine(
            &w,
            SpecRequest::Auto,
            &cfg,
            VectorMode::FlexVec,
            flexvec_vm::Engine::Compiled,
        )
        .expect("compiled evaluates");
        let tree = evaluate_with_engine(
            &w,
            SpecRequest::Auto,
            &cfg,
            VectorMode::FlexVec,
            flexvec_vm::Engine::TreeWalking,
        )
        .expect("tree evaluates");
        // Same simulated timing and dynamic statistics from both engines.
        assert_eq!(compiled.stats, tree.stats);
        assert_eq!(compiled.flexvec_cycles, tree.flexvec_cycles);
        assert_eq!(compiled.vector_uops, tree.vector_uops);
        assert_eq!(compiled.throughput.label, "compiled");
        assert_eq!(tree.throughput.label, "tree-walking");
        assert!(compiled.throughput.chunks > 0);
        assert_eq!(compiled.throughput.uops, compiled.vector_uops);
    }
}
