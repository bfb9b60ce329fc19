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
//!
//! A run that always sees the same inputs can be checked again later
//! without the scalar oracle. [`Kernel::record`] keeps what a checked
//! run established as a [`Record`]: the oracle's five facts, with each
//! array as one [`digest`], and the [`Fingerprint`] of the answering
//! run's µop stream. [`Kernel::compare_record`] compares a later run
//! with it on the five facts and the µop count, and
//! [`Record::compare_trace`] on the fingerprint.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use flexvec::VProg;
use flexvec_ir::{ArraySym, Program};
use flexvec_mem::{AddressSpace, ArrayId};

use crate::compiled::{CompiledVProg, ExecScratch};
use crate::scalar::{run_scalar_cancellable, Bindings, ExecError, RunResult};
use crate::trace::{Fingerprint, TraceSink};
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

    /// The engine this code runs on: the tree walker without a plan,
    /// native code where the plan has machine code attached, bytecode
    /// otherwise, whichever engine was asked for.
    pub fn engine(&self) -> Engine {
        match &self.plan {
            None => Engine::TreeWalking,
            Some(plan) if plan.has_native() => Engine::Native,
            Some(_) => Engine::Compiled,
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
    /// The [`digest`] of an array, by array name: a run checked
    /// against a [`Record`].
    Digest(String, u64, u64),
    /// µops the answering run emitted.
    Uops(u64, u64),
    /// The hash of the answering run's µop stream.
    Trace(u128, u128),
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
            Mismatch::Digest(a, want, got) => {
                write!(
                    f,
                    "memory `{a}` digest: expected {want:016x}, got {got:016x}"
                )
            }
            Mismatch::Uops(want, got) => write!(f, "µop count: expected {want}, got {got}"),
            Mismatch::Trace(want, got) => {
                write!(f, "trace fingerprint: expected {want:032x}, got {got:032x}")
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

/// A 64-bit digest of an array's elements, cheap enough to take on
/// every run. Elements feed four lanes in turn, each stepping `lane =
/// (lane ^ x) * ODD`, and the lanes then fold into the length the same
/// way. Multiplying by an odd constant is a bijection, so every step is
/// one in both its inputs: changing any one element changes its lane,
/// and so the digest.
pub fn digest(elems: &[i64]) -> u64 {
    const ODD: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |lane: u64, x: i64| (lane ^ x as u64).wrapping_mul(ODD);
    let mut lanes = [1u64, 2, 3, 4];
    let quads = elems.chunks_exact(4);
    let tail = quads.remainder();
    for quad in quads {
        for (lane, &x) in lanes.iter_mut().zip(quad) {
            *lane = step(*lane, x);
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(tail) {
        *lane = step(*lane, x);
    }
    lanes
        .into_iter()
        .fold(elems.len() as u64, |acc, lane| step(acc, lane as i64))
}

/// What a checked run established, kept so that a later run of the
/// same code on the same inputs can be checked without the scalar
/// oracle: the oracle's five facts, each array as its [`digest`], and
/// the [`Fingerprint`] of the answering run's µop stream.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Record {
    /// Live-out values, in declaration order.
    pub live_outs: Vec<i64>,
    /// The induction variable's exit value.
    pub induction: i64,
    /// Whether the loop left through a `break`.
    pub broke: bool,
    /// Scalar iterations executed.
    pub iterations: u64,
    /// One [`digest`] per array, in declaration order.
    pub digests: Vec<u64>,
    /// The answering run's µop stream.
    pub trace: Fingerprint,
}

impl Record {
    /// Compares the fingerprint of a run's µop stream with the
    /// recorded one.
    ///
    /// # Errors
    ///
    /// [`Mismatch::Uops`] or [`Mismatch::Trace`].
    pub fn compare_trace(&self, trace: Fingerprint) -> Result<(), Mismatch> {
        if trace.uops != self.trace.uops {
            return Err(Mismatch::Uops(self.trace.uops, trace.uops));
        }
        if trace.hash != self.trace.hash {
            return Err(Mismatch::Trace(self.trace.hash, trace.hash));
        }
        Ok(())
    }
}

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

    /// The record of `oracle`, a run that passed [`Kernel::compare`]
    /// (or the scalar run itself), whose answering run's µop stream
    /// left `trace`.
    pub fn record(&self, oracle: &Execution, trace: Fingerprint) -> Record {
        let p = self.program;
        let result = &oracle.result;
        Record {
            live_outs: p.live_out.iter().map(|&v| result.var(v)).collect(),
            induction: result.var(p.loop_.induction),
            broke: result.broke,
            iterations: result.iterations,
            digests: (0..self.arrays.len())
                .map(|a| digest(oracle.array(a)))
                .collect(),
            trace,
        }
    }

    /// Compares a run with a [`Record`] of this kernel on the five
    /// facts, in the order of [`Kernel::compare`], then on the `uops`
    /// it emitted.
    ///
    /// # Errors
    ///
    /// The first [`Mismatch`]; arrays differ as [`Mismatch::Digest`].
    pub fn compare_record(
        &self,
        record: &Record,
        run: &Execution,
        uops: u64,
    ) -> Result<(), Mismatch> {
        let p = self.program;
        let got = &run.result;
        for (&v, &want) in p.live_out.iter().zip(&record.live_outs) {
            if want != got.var(v) {
                let name = p.var_name(v).to_owned();
                return Err(Mismatch::LiveOut(name, want, got.var(v)));
            }
        }
        let ind = p.loop_.induction;
        if record.induction != got.var(ind) {
            let name = p.var_name(ind).to_owned();
            return Err(Mismatch::Induction(name, record.induction, got.var(ind)));
        }
        if record.broke != got.broke {
            return Err(Mismatch::Broke(record.broke, got.broke));
        }
        if record.iterations != got.iterations {
            return Err(Mismatch::Iterations(record.iterations, got.iterations));
        }
        for (a, &want) in record.digests.iter().enumerate() {
            let got = digest(run.array(a));
            if want != got {
                let name = p.array_name(ArraySym(a as u32)).to_owned();
                return Err(Mismatch::Digest(name, want, got));
            }
        }
        if record.trace.uops != uops {
            return Err(Mismatch::Uops(record.trace.uops, uops));
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

    /// Compares a scalar run of [`min_and_sum`], edited by `edit`, with
    /// the record of another, and renders the mismatch found, if any.
    fn record_mismatch(edit: impl FnOnce(&mut Execution)) -> Option<String> {
        let (program, arrays) = min_and_sum();
        let kernel = Kernel::new(&program, &arrays, 1);
        let mut trace = crate::FingerprintSink::default();
        let oracle = kernel.run_scalar(&mut trace, None).expect("runs");
        let record = kernel.record(&oracle, trace.fingerprint());
        let mut counter = CountingSink::default();
        let mut run = kernel.run_scalar(&mut counter, None).expect("runs");
        edit(&mut run);
        let found = kernel.compare_record(&record, &run, counter.len());
        found.err().map(|m| m.to_string())
    }

    #[test]
    fn a_run_agrees_with_its_record_and_each_fact_is_named() {
        assert_eq!(record_mismatch(|_| {}), None);
        type Edit = fn(&mut Execution);
        let cases: [(Edit, &str); 6] = [
            (
                |e| e.result.vars[BEST.0 as usize] = 7,
                "live-out `best`: expected 1, got 7",
            ),
            (
                |e| e.result.vars[I.0 as usize] = 3,
                "induction `i` exit value: expected 4, got 3",
            ),
            (
                |e| e.result.broke = true,
                "break flag: expected false, got true",
            ),
            (
                |e| e.result.iterations = 5,
                "iteration count: expected 4, got 5",
            ),
            (|e| write(e, 0, 3, 0), "memory `a` digest: expected "),
            (|e| write(e, 1, 0, 5), "memory `b` digest: expected "),
        ];
        for (edit, want) in cases {
            let found = record_mismatch(edit).unwrap_or_default();
            assert!(found.starts_with(want), "{found:?} for {want:?}");
        }
    }

    #[test]
    fn a_record_checks_the_uop_count_and_the_trace() {
        let (program, arrays) = min_and_sum();
        let kernel = Kernel::new(&program, &arrays, 1);
        let mut trace = crate::FingerprintSink::default();
        let run = kernel.run_scalar(&mut trace, None).expect("runs");
        let fp = trace.fingerprint();
        let record = kernel.record(&run, fp);
        assert_eq!(record.compare_trace(fp), Ok(()));
        assert_eq!(
            kernel.compare_record(&record, &run, fp.uops + 1),
            Err(Mismatch::Uops(fp.uops, fp.uops + 1))
        );
        let other = Fingerprint { hash: 5, ..fp };
        assert_eq!(
            record.compare_trace(other),
            Err(Mismatch::Trace(fp.hash, 5))
        );
        assert_eq!(
            Mismatch::Trace(1 << 64, 5).to_string(),
            "trace fingerprint: expected 00000000000000010000000000000000, \
             got 00000000000000000000000000000005"
        );
    }

    #[test]
    fn code_names_the_engine_it_runs_on() {
        let (program, _) = min_and_sum();
        let vprog = vectorize(&program, SpecRequest::Auto)
            .expect("vectorizes")
            .vprog;
        // A plan without machine code runs bytecode, whatever was asked.
        let bytecode = CompiledVProg::compile(&vprog);
        for engine in [Engine::Compiled, Engine::Native] {
            let code = VectorCode::precompiled(&vprog, &bytecode, engine);
            assert_eq!(code.engine(), Engine::Compiled, "{engine:?}");
        }
        let tree = VectorCode::precompiled(&vprog, &bytecode, Engine::TreeWalking);
        assert_eq!(tree.engine(), Engine::TreeWalking);
        let native = if crate::native_supported() {
            Engine::Native
        } else {
            Engine::Compiled
        };
        assert_eq!(VectorCode::new(&vprog, Engine::Native).engine(), native);
        assert_eq!(
            VectorCode::new(&vprog, Engine::Compiled).engine(),
            Engine::Compiled
        );
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
