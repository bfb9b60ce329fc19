//! Checked execution: the scalar program and its vector code run on
//! the same inputs, and everything that can differ is compared.
//!
//! A FlexVec speedup counts only once the baseline and the FlexVec code,
//! run on the same inputs, agree (§5 of the paper). [`Kernel`] is that
//! check, written once for every caller — the Figure 8 harness,
//! `flexvecc`, the serving daemon, the differential fuzzer and the
//! equivalence tests:
//!
//! 1. [`Kernel::run_scalar`] runs the scalar program `invocations`
//!    times on a fresh memory image built from the kernel's arrays;
//! 2. [`Kernel::run_vector`] runs a [`VectorCode`] the same way: the
//!    tree walker or a compiled plan, with or without native code, in
//!    FlexVec or all-or-nothing mode, with one [`ExecScratch`] reused
//!    across the invocations;
//! 3. [`Kernel::compare`] compares the two runs on five facts, in this
//!    order: every live-out, the induction variable's exit value, the
//!    break flag, the iteration count, and every array element. The
//!    first difference is a typed [`Mismatch`].
//!
//! [`Kernel::check`] does all three. Both runs feed the caller's
//! [`TraceSink`] and poll an optional [`CancelToken`]; the comparison
//! borrows the arrays from the two memory images without copying them.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use flexvec::VProg;
use flexvec_ir::{ArraySym, Program};
use flexvec_mem::{AddressSpace, ArrayId};

use crate::compiled::{CompiledVProg, ExecScratch};
use crate::scalar::{run_scalar_cancellable, Bindings, ExecError, RunResult};
use crate::trace::TraceSink;
use crate::vector::{run_all_or_nothing, run_with_body, Engine, EngineBody, VectorStats};
use crate::CancelToken;

/// A loop, its input arrays, and how often each side runs it. Every
/// run after the first starts from the memory the previous one left.
#[derive(Clone, Copy, Debug)]
pub struct Kernel<'a> {
    /// The scalar loop.
    pub program: &'a Program,
    /// Input data, one array per declared array symbol, in order.
    pub arrays: &'a [Vec<i64>],
    /// Runs per side; `0` runs once.
    pub invocations: u64,
}

impl<'a> Kernel<'a> {
    /// `program` over `arrays`, run `invocations` times per side.
    pub fn new(program: &'a Program, arrays: &'a [Vec<i64>], invocations: u64) -> Self {
        Kernel {
            program,
            arrays,
            invocations,
        }
    }
}

/// The vector code a checked run executes: a [`VProg`] on one
/// [`Engine`], in FlexVec or all-or-nothing mode.
pub struct VectorCode<'a> {
    vprog: &'a VProg,
    /// The flattened program; `None` on the tree walker.
    plan: Option<Cow<'a, CompiledVProg>>,
    all_or_nothing: bool,
}

impl<'a> VectorCode<'a> {
    /// `vprog` on `engine`, flattened here once for the compiled and
    /// native engines. The native tier is built for the ambient vector
    /// length, and falls back to bytecode where the host has none.
    pub fn new(vprog: &'a VProg, engine: Engine) -> Self {
        let plan = (engine != Engine::TreeWalking).then(|| {
            let mut plan = CompiledVProg::compile(vprog);
            if engine == Engine::Native {
                plan.enable_native();
            }
            Cow::Owned(plan)
        });
        VectorCode {
            vprog,
            plan,
            all_or_nothing: false,
        }
    }

    /// `vprog` through `plan`, a compiled program already at hand (a
    /// compile cache's, shared and immutable), run as it is: natively
    /// where it has native code attached. The tree walker ignores
    /// `plan`.
    pub fn precompiled(vprog: &'a VProg, plan: &'a CompiledVProg, engine: Engine) -> Self {
        VectorCode {
            vprog,
            plan: (engine != Engine::TreeWalking).then_some(Cow::Borrowed(plan)),
            all_or_nothing: false,
        }
    }

    /// The same code in all-or-nothing mode, the PACT'13-style
    /// baseline of the paper's Section 2: a chunk whose relaxed
    /// dependency fires rolls back to scalar code. Loops with stores
    /// inside a VPL fail with [`ExecError::Internal`].
    pub fn all_or_nothing(self) -> Self {
        VectorCode {
            all_or_nothing: true,
            ..self
        }
    }

    /// The per-run state of the compiled plan; `None` on the tree walker.
    pub(crate) fn scratch(&self) -> Option<ExecScratch> {
        self.plan.as_ref().map(|plan| plan.scratch())
    }

    /// Runs the code once on `mem`, with the plan's `scratch`.
    pub(crate) fn run_once(
        &self,
        program: &Program,
        mem: &mut AddressSpace,
        bindings: Bindings,
        sink: &mut dyn TraceSink,
        scratch: &mut Option<ExecScratch>,
        cancel: Option<&CancelToken>,
    ) -> Result<(RunResult, VectorStats), ExecError> {
        let mut body = match (&self.plan, scratch) {
            (Some(plan), Some(scratch)) => EngineBody::Compiled(plan, scratch),
            _ => EngineBody::Tree(self.vprog),
        };
        if self.all_or_nothing {
            run_all_or_nothing(program, self.vprog, mem, bindings, sink, &mut body, cancel)
        } else {
            run_with_body(program, self.vprog, mem, bindings, sink, &mut body, cancel)
        }
    }
}

/// What one side's runs left behind.
pub struct Execution {
    mem: AddressSpace,
    arrays: Vec<ArrayId>,
    /// Final scalars, iteration count and break flag of the last run.
    pub result: RunResult,
    /// Vector statistics of the last run (zero on the scalar side).
    pub stats: VectorStats,
    /// Vector statistics summed over the runs: `max_partitions` is the
    /// largest of any run, `broke` the last run's.
    pub total: VectorStats,
    /// Wall time of the runs, without building the memory image.
    pub wall: Duration,
}

impl Execution {
    /// Array `i` as the runs left it, borrowed from the memory image.
    pub fn array(&self, i: usize) -> &[i64] {
        self.mem.array_slice(self.arrays[i])
    }

    /// The live-out values, `(name, value)` in declaration order.
    pub fn live_outs(&self, program: &Program) -> Vec<(String, i64)> {
        program
            .live_out
            .iter()
            .map(|&v| (program.var_name(v).to_owned(), self.result.var(v)))
            .collect()
    }
}

/// The first fact on which a vector run disagrees with the scalar one:
/// what it is, then the scalar value, then the vector value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// A live-out scalar's final value, by variable name.
    LiveOut(String, i64, i64),
    /// The induction variable's exit value, by variable name.
    Induction(String, i64, i64),
    /// Whether the loop left through a `break`.
    Broke(bool, bool),
    /// Scalar iterations executed.
    Iterations(u64, u64),
    /// The first differing element of the first differing array, by
    /// array name and index.
    Memory(String, usize, i64, i64),
}

impl core::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Mismatch::LiveOut(v, want, got) => {
                write!(f, "live-out `{v}`: expected {want}, got {got}")
            }
            Mismatch::Induction(v, want, got) => {
                write!(f, "induction `{v}` exit value: expected {want}, got {got}")
            }
            Mismatch::Broke(want, got) => write!(f, "break flag: expected {want}, got {got}"),
            Mismatch::Iterations(want, got) => {
                write!(f, "iteration count: expected {want}, got {got}")
            }
            Mismatch::Memory(a, i, want, got) => {
                write!(f, "memory `{a}`[{i}]: expected {want}, got {got}")
            }
        }
    }
}

/// Why [`Kernel::check`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The scalar program failed.
    Scalar(ExecError),
    /// The vector code failed.
    Vector(ExecError),
    /// Both ran, and disagree.
    Mismatch(Mismatch),
}

impl core::fmt::Display for CheckError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckError::Scalar(e) => write!(f, "scalar execution failed: {e}"),
            CheckError::Vector(e) => write!(f, "vector execution failed: {e}"),
            CheckError::Mismatch(m) => write!(f, "scalar/vector mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl Kernel<'_> {
    /// Runs the scalar program, then the vector code, and compares
    /// them. Returns the scalar and the vector execution.
    ///
    /// # Errors
    ///
    /// The first failure: the scalar run's, the vector run's, or the
    /// first [`Mismatch`].
    pub fn check(
        &self,
        code: &VectorCode<'_>,
        scalar_sink: &mut dyn TraceSink,
        vector_sink: &mut dyn TraceSink,
        cancel: Option<&CancelToken>,
    ) -> Result<(Execution, Execution), CheckError> {
        let scalar = self
            .run_scalar(scalar_sink, cancel)
            .map_err(CheckError::Scalar)?;
        let vector = self
            .run_vector(code, vector_sink, cancel)
            .map_err(CheckError::Vector)?;
        self.compare(&scalar, &vector)
            .map_err(CheckError::Mismatch)?;
        Ok((scalar, vector))
    }

    /// Runs the scalar program `invocations` times on a fresh memory
    /// image, polling `cancel` every
    /// [`SCALAR_CANCEL_STRIDE`](crate::SCALAR_CANCEL_STRIDE) iterations.
    ///
    /// # Errors
    ///
    /// Unguarded memory faults, and [`ExecError::Cancelled`].
    pub fn run_scalar(
        &self,
        sink: &mut dyn TraceSink,
        cancel: Option<&CancelToken>,
    ) -> Result<Execution, ExecError> {
        self.runs(|mem, bindings| {
            let result = run_scalar_cancellable(self.program, mem, bindings, sink, cancel)?;
            Ok((result, VectorStats::default()))
        })
    }

    /// Runs `code` `invocations` times on a fresh memory image, polling
    /// `cancel` at every chunk (and RTM tile) boundary.
    ///
    /// # Errors
    ///
    /// Unguarded faults, VPL divergence, [`ExecError::Cancelled`], and
    /// [`ExecError::UnsupportedWidth`] above the program's `max_vl`.
    pub fn run_vector(
        &self,
        code: &VectorCode<'_>,
        sink: &mut dyn TraceSink,
        cancel: Option<&CancelToken>,
    ) -> Result<Execution, ExecError> {
        let mut scratch = code.scratch();
        self.runs(|mem, bindings| {
            code.run_once(self.program, mem, bindings, sink, &mut scratch, cancel)
        })
    }

    /// Compares a vector execution with the scalar one on the five
    /// facts, in order.
    ///
    /// # Errors
    ///
    /// The first [`Mismatch`].
    pub fn compare(&self, scalar: &Execution, vector: &Execution) -> Result<(), Mismatch> {
        let p = self.program;
        let (want, got) = (&scalar.result, &vector.result);
        if let Some(&v) = p.live_out.iter().find(|&&v| want.var(v) != got.var(v)) {
            let name = p.var_name(v).to_owned();
            return Err(Mismatch::LiveOut(name, want.var(v), got.var(v)));
        }
        let ind = p.loop_.induction;
        if want.var(ind) != got.var(ind) {
            let name = p.var_name(ind).to_owned();
            return Err(Mismatch::Induction(name, want.var(ind), got.var(ind)));
        }
        if want.broke != got.broke {
            return Err(Mismatch::Broke(want.broke, got.broke));
        }
        if want.iterations != got.iterations {
            return Err(Mismatch::Iterations(want.iterations, got.iterations));
        }
        for a in 0..self.arrays.len() {
            let (want, got) = (scalar.array(a), vector.array(a));
            // Whole-slice equality first: it compiles to a memory compare.
            if want == got {
                continue;
            }
            if let Some(i) = want.iter().zip(got).position(|(w, g)| w != g) {
                let name = p.array_name(ArraySym(a as u32)).to_owned();
                return Err(Mismatch::Memory(name, i, want[i], got[i]));
            }
        }
        Ok(())
    }

    /// Builds a fresh memory image and makes `invocations` runs on it.
    fn runs(
        &self,
        mut run: impl FnMut(&mut AddressSpace, Bindings) -> Result<(RunResult, VectorStats), ExecError>,
    ) -> Result<Execution, ExecError> {
        let mut mem = AddressSpace::new();
        let arrays: Vec<ArrayId> = self
            .arrays
            .iter()
            .enumerate()
            .map(|(i, data)| mem.alloc_from(&format!("a{i}"), data))
            .collect();
        let (mut total, mut last) = (VectorStats::default(), None);
        let start = Instant::now();
        for _ in 0..self.invocations.max(1) {
            let (result, stats) = run(&mut mem, Bindings::new(arrays.clone()))?;
            total.chunks += stats.chunks;
            total.vpl_iterations += stats.vpl_iterations;
            total.max_partitions = total.max_partitions.max(stats.max_partitions);
            total.ff_fallbacks += stats.ff_fallbacks;
            total.rtm_commits += stats.rtm_commits;
            total.rtm_aborts += stats.rtm_aborts;
            total.broke = stats.broke;
            last = Some((result, stats));
        }
        let wall = start.elapsed();
        let (result, stats) = last.expect("at least one run");
        Ok(Execution {
            mem,
            arrays,
            result,
            stats,
            total,
            wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CountingSink;
    use flexvec::{vectorize, SpecRequest};
    use flexvec_ir::build::*;
    use flexvec_ir::{ProgramBuilder, VarId};

    /// A running minimum beside an accumulating store, over
    /// `a = [4, 2, 3, 1]`: one run leaves `i` at 4 after 4 iterations
    /// without a break, `best` at 1, `a` as it was and `b` equal to `a`.
    fn min_and_sum() -> (Program, Vec<Vec<i64>>) {
        let mut b = ProgramBuilder::new("min_and_sum");
        let i = b.var("i", 0);
        let best = b.var("best", 100);
        let a = b.array("a");
        let sum = b.array("b");
        b.live_out(best);
        let program = b
            .build_loop(
                i,
                c(0),
                c(4),
                vec![
                    if_(
                        lt(ld(a, var(i)), var(best)),
                        vec![assign(best, ld(a, var(i)))],
                    ),
                    store(sum, var(i), add(ld(sum, var(i)), ld(a, var(i)))),
                ],
            )
            .expect("valid program");
        (program, vec![vec![4, 2, 3, 1], vec![0; 4]])
    }

    const I: VarId = VarId(0);
    const BEST: VarId = VarId(1);

    /// Compares two scalar runs of [`min_and_sum`], the second edited by
    /// `edit`, and renders the mismatch found, if any.
    fn mismatch(edit: impl FnOnce(&mut Execution)) -> Option<String> {
        let (program, arrays) = min_and_sum();
        let kernel = Kernel::new(&program, &arrays, 1);
        let run = || kernel.run_scalar(&mut CountingSink::default(), None);
        let (scalar, mut other) = (run().expect("runs"), run().expect("runs"));
        edit(&mut other);
        kernel.compare(&scalar, &other).err().map(|m| m.to_string())
    }

    fn write(e: &mut Execution, array: usize, index: i64, value: i64) {
        let id = e.arrays[array];
        e.mem.write_elem(id, index, value).expect("mapped");
    }

    #[test]
    fn identical_runs_agree() {
        assert_eq!(mismatch(|_| {}), None);
    }

    #[test]
    fn a_live_out_mismatch_names_the_variable() {
        assert_eq!(
            mismatch(|e| e.result.vars[BEST.0 as usize] = 7).as_deref(),
            Some("live-out `best`: expected 1, got 7")
        );
    }

    #[test]
    fn an_induction_exit_mismatch_names_the_variable() {
        assert_eq!(
            mismatch(|e| e.result.vars[I.0 as usize] = 3).as_deref(),
            Some("induction `i` exit value: expected 4, got 3")
        );
    }

    #[test]
    fn a_break_flag_mismatch() {
        assert_eq!(
            mismatch(|e| e.result.broke = true).as_deref(),
            Some("break flag: expected false, got true")
        );
    }

    #[test]
    fn an_iteration_count_mismatch() {
        assert_eq!(
            mismatch(|e| e.result.iterations = 5).as_deref(),
            Some("iteration count: expected 4, got 5")
        );
    }

    #[test]
    fn a_memory_mismatch_at_the_first_element() {
        assert_eq!(
            mismatch(|e| write(e, 0, 0, -1)).as_deref(),
            Some("memory `a`[0]: expected 4, got -1")
        );
    }

    #[test]
    fn a_memory_mismatch_at_the_last_element() {
        assert_eq!(
            mismatch(|e| write(e, 1, 3, -1)).as_deref(),
            Some("memory `b`[3]: expected 1, got -1")
        );
    }

    #[test]
    fn the_first_fact_in_order_is_reported() {
        // Every fact from `from` on differs; the first of them is named.
        let facts = ["live-out", "induction", "break", "iteration", "memory"];
        for (from, fact) in facts.into_iter().enumerate() {
            let found = mismatch(|e| {
                let (r, edit) = (&mut e.result, |k| from <= k);
                if edit(0) {
                    r.vars[BEST.0 as usize] = 7;
                }
                if edit(1) {
                    r.vars[I.0 as usize] = 3;
                }
                r.broke = edit(2);
                r.iterations = if edit(3) { 5 } else { 4 };
                write(e, 0, 0, -1);
            });
            assert!(found.is_some_and(|m| m.starts_with(fact)), "{fact}");
        }
    }

    #[test]
    fn every_engine_and_mode_passes_the_check_across_invocations() {
        let (program, arrays) = min_and_sum();
        let vprog = vectorize(&program, SpecRequest::Auto)
            .expect("vectorizes")
            .vprog;
        let kernel = Kernel::new(&program, &arrays, 3);
        for engine in [Engine::TreeWalking, Engine::Compiled, Engine::Native] {
            for code in [
                VectorCode::new(&vprog, engine),
                VectorCode::new(&vprog, engine).all_or_nothing(),
                VectorCode::precompiled(&vprog, &CompiledVProg::compile(&vprog), engine),
            ] {
                let (scalar, vector) = kernel
                    .check(
                        &code,
                        &mut CountingSink::default(),
                        &mut CountingSink::default(),
                        None,
                    )
                    .unwrap_or_else(|e| panic!("{engine:?}: {e}"));
                // The second and third runs start from the first's memory.
                assert_eq!(scalar.array(1), &[12, 6, 9, 3], "{engine:?}");
                assert_eq!(vector.total.chunks, 3 * vector.stats.chunks, "{engine:?}");
                assert!(vector.stats.chunks > 0, "{engine:?}");
            }
        }
    }

    #[test]
    fn a_failing_side_is_named() {
        let (program, arrays) = min_and_sum();
        let vprog = vectorize(&program, SpecRequest::Auto)
            .expect("vectorizes")
            .vprog;
        let kernel = Kernel::new(&program, &arrays, 1);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = kernel
            .check(
                &VectorCode::new(&vprog, Engine::Compiled),
                &mut CountingSink::default(),
                &mut CountingSink::default(),
                Some(&cancelled),
            )
            .err()
            .expect("a cancelled token stops the scalar run");
        assert_eq!(err, CheckError::Scalar(ExecError::Cancelled));
        assert_eq!(
            err.to_string(),
            "scalar execution failed: execution cancelled (deadline or shutdown)"
        );
    }
}
