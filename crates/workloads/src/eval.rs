//! The measurement harness: runs a workload's hot loop as the baseline
//! (scalar — the paper's baseline compiler cannot vectorize FlexVec
//! candidates) and as FlexVec vector code, times both on the Table 1
//! out-of-order model, and scales the region speedup by the workload's
//! coverage (the paper's rdtsc-based methodology). Both runs go through
//! [`flexvec_vm::Kernel::check`], so a workload counts only when the
//! two agree on every live-out, the induction variable's exit value,
//! the break flag, the iteration count and every array element.

use flexvec::{vectorize, InstMix, SpecRequest};
use flexvec_profiler::ThroughputReport;
use flexvec_sim::{amdahl_overall, OooSim, SimConfig};
use flexvec_vm::{CheckError, Engine, Kernel, TraceSink, VectorCode, VectorStats};

use crate::{Suite, Workload};

/// Why an evaluation failed.
#[derive(Debug)]
pub enum EvalError {
    /// The loop failed to vectorize.
    Vectorize(flexvec::VectorizeError),
    /// An execution faulted, or — a reproduction bug, never expected —
    /// the scalar and vector executions disagreed.
    Check(CheckError),
}

impl core::fmt::Display for EvalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EvalError::Vectorize(e) => write!(f, "vectorization failed: {e}"),
            EvalError::Check(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<flexvec::VectorizeError> for EvalError {
    fn from(e: flexvec::VectorizeError) -> Self {
        EvalError::Vectorize(e)
    }
}

impl From<CheckError> for EvalError {
    fn from(e: CheckError) -> Self {
        EvalError::Check(e)
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

/// [`evaluate_with_config`] with an explicit execution [`Engine`]. With
/// the compiled and native engines the `VProg` is flattened once and
/// reused across all invocations.
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
    let mut code = VectorCode::new(&vectorized.vprog, engine);
    if mode == VectorMode::AllOrNothing {
        code = code.all_or_nothing();
    }
    let kernel = Kernel::new(&w.program, &w.arrays, w.invocations);
    let mut sim_s = OooSim::new(config.clone());
    let mut sim_v = OooSim::new(config.clone());
    let (_, vector) = kernel.check(&code, &mut sim_s, &mut sim_v, None)?;
    let (scalar_cycles, flexvec_cycles) = (sim_s.result().cycles, sim_v.result().cycles);
    let mut throughput = ThroughputReport::new(engine.label(), vector.wall, 0, sim_v.len());
    throughput.add_stats(&vector.total);

    let region_speedup = scalar_cycles as f64 / flexvec_cycles as f64;
    Ok(Evaluation {
        name: w.name,
        suite: w.suite,
        coverage: w.coverage,
        scalar_cycles,
        flexvec_cycles,
        region_speedup,
        overall_speedup: amdahl_overall(region_speedup, w.coverage),
        stats: vector.stats,
        mix: vectorized.vprog.inst_mix(),
        scalar_uops: sim_s.len(),
        vector_uops: sim_v.len(),
        throughput,
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
