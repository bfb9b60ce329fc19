//! The scalar reference interpreter.
//!
//! Executes a loop [`Program`] directly against an [`AddressSpace`],
//! iteration by iteration, emitting a scalar µop trace. This is both the
//! semantic oracle for the vectorized code (every vector execution must
//! produce the same final memory and live-out scalars) and the **baseline
//! binary** for the evaluation: the paper's baseline compiler cannot
//! vectorize FlexVec candidate loops, so those regions run as scalar code
//! on the simulated out-of-order core.

use flexvec_ir::{BinOp, Expr, Program, Stmt, VarId};
use flexvec_mem::{AddressSpace, ArrayId, MemFault};

use crate::trace::{Tok, TraceSink, Uop, UopClass, TEMP_BASE};

/// Maps the program's array symbols (positionally) to arrays in an
/// address space.
#[derive(Clone, Debug)]
pub struct Bindings {
    arrays: Vec<ArrayId>,
}

impl Bindings {
    /// Binds array symbol `i` to `arrays[i]`.
    pub fn new(arrays: Vec<ArrayId>) -> Self {
        Bindings { arrays }
    }

    /// The array bound to symbol index `sym`.
    ///
    /// # Panics
    ///
    /// Panics if the symbol is unbound.
    pub fn array(&self, sym: u32) -> ArrayId {
        self.arrays[sym as usize]
    }

    /// Number of bound arrays.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// Whether no arrays are bound.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }
}

/// Why an execution stopped abnormally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// An unguarded memory access faulted.
    Fault(MemFault),
    /// A vector partitioning loop failed to converge (VM safety net).
    VplDivergence,
    /// The run's [`crate::CancelToken`] fired (explicit cancellation or
    /// an expired deadline); observed at a chunk boundary.
    Cancelled,
    /// Internal inconsistency (reported, never silently ignored).
    Internal(String),
    /// The program cannot execute at the ambient runtime vector length:
    /// the analysis' dependence-distance reasoning only covers chunks up
    /// to `max_vl` lanes. Always refused cleanly — never wrong code.
    UnsupportedWidth {
        /// The ambient vector length the caller asked to run at.
        vl: usize,
        /// The widest supported length the program is valid at.
        max_vl: usize,
    },
}

impl From<MemFault> for ExecError {
    fn from(f: MemFault) -> Self {
        ExecError::Fault(f)
    }
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::Fault(m) => write!(f, "execution fault: {m}"),
            ExecError::VplDivergence => write!(f, "vector partitioning loop did not converge"),
            ExecError::Cancelled => write!(f, "execution cancelled (deadline or shutdown)"),
            ExecError::Internal(s) => write!(f, "internal executor error: {s}"),
            ExecError::UnsupportedWidth { vl, max_vl } => write!(
                f,
                "unsupported vector length {vl} for this program (widest safe width: {max_vl})"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Outcome of a full loop execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Final scalar values (indexed by `VarId`).
    pub vars: Vec<i64>,
    /// Scalar iterations actually executed.
    pub iterations: u64,
    /// Whether the loop exited through a `break`.
    pub broke: bool,
}

impl RunResult {
    /// The final value of a variable.
    pub fn var(&self, v: VarId) -> i64 {
        self.vars[v.0 as usize]
    }
}

/// Outcome of a single scalar iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Continue with the next iteration.
    Continue,
    /// A `break` executed.
    Break,
}

/// A scalar execution context: the variable file plus bindings.
///
/// [`ScalarMachine::step`] runs one iteration; the vector executor reuses
/// it for first-faulting fallbacks and RTM aborts.
#[derive(Clone, Debug)]
pub struct ScalarMachine<'p> {
    program: &'p Program,
    bindings: Bindings,
    /// Current scalar values (public so the vector executor can sync
    /// state in and out around fallbacks).
    pub vars: Vec<i64>,
    /// Rename map: the µop token currently holding each variable's value
    /// (register renaming — assignments do not cost a move µop).
    var_tok: Vec<Tok>,
    temp_counter: u32,
    /// The one µop every emission refills and hands to the sink by
    /// reference, so the trace costs no allocation per µop.
    uop: Uop,
}

impl<'p> ScalarMachine<'p> {
    /// Creates a machine with every variable at its declared initial
    /// value.
    pub fn new(program: &'p Program, bindings: Bindings) -> Self {
        let vars: Vec<i64> = program.vars.iter().map(|v| v.init).collect();
        let var_tok = (0..vars.len() as u32).map(Tok::S).collect();
        ScalarMachine {
            program,
            bindings,
            vars,
            var_tok,
            temp_counter: TEMP_BASE,
            uop: Uop::reg(UopClass::ScalarAlu, Vec::new(), None),
        }
    }

    /// Resets the machine to fresh-construction state with the given
    /// variable values: the rename map and temporary counter restart, so
    /// a reused machine produces the exact µop trace a newly constructed
    /// one would. The vector executor calls this once per fallback
    /// instead of allocating a new machine.
    pub fn reset_to(&mut self, vars: &[i64]) {
        self.vars.copy_from_slice(vars);
        for (i, tok) in self.var_tok.iter_mut().enumerate() {
            *tok = Tok::S(i as u32);
        }
        self.temp_counter = TEMP_BASE;
    }

    /// Evaluates a loop-invariant expression (bounds) without touching
    /// memory.
    pub fn eval_invariant(&self, e: &Expr) -> i64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Var(v) => self.vars[v.0 as usize],
            Expr::Bin { op, lhs, rhs } => {
                op.eval(self.eval_invariant(lhs), self.eval_invariant(rhs))
            }
            Expr::Cmp { op, lhs, rhs } => {
                op.eval(self.eval_invariant(lhs), self.eval_invariant(rhs)) as i64
            }
            Expr::Not(inner) => (self.eval_invariant(inner) == 0) as i64,
            Expr::Load { .. } => unreachable!("validated: bounds do not load"),
        }
    }

    fn temp(&mut self) -> Tok {
        self.temp_counter += 1;
        Tok::S(self.temp_counter)
    }

    /// Refills the reused µop buffer and passes it to the sink.
    fn emit(
        &mut self,
        sink: &mut dyn TraceSink,
        class: UopClass,
        srcs: &[Tok],
        dst: Option<Tok>,
        addr: Option<u64>,
    ) {
        let uop = &mut self.uop;
        uop.class = class;
        uop.srcs.clear();
        uop.srcs.extend_from_slice(srcs);
        uop.dst = dst;
        uop.addrs.clear();
        uop.addrs.extend(addr);
        sink.observe(uop);
    }

    fn eval(
        &mut self,
        e: &Expr,
        mem: &AddressSpace,
        sink: &mut dyn TraceSink,
    ) -> Result<(i64, Tok), MemFault> {
        Ok(match e {
            Expr::Const(v) => {
                let t = self.temp();
                // Immediates fold into consumers; no µop.
                (*v, t)
            }
            Expr::Var(v) => (self.vars[v.0 as usize], self.var_tok[v.0 as usize]),
            Expr::Load { array, index } => {
                let (idx, idx_tok) = self.eval(index, mem, sink)?;
                let arr = self.bindings.array(array.0);
                let addr = mem.elem_addr(arr, idx);
                let value = mem.read(addr)?;
                let t = self.temp();
                self.emit(sink, UopClass::Load, &[idx_tok], Some(t), Some(addr));
                (value, t)
            }
            Expr::Bin { op, lhs, rhs } => {
                let (a, ta) = self.eval(lhs, mem, sink)?;
                let (b, tb) = self.eval(rhs, mem, sink)?;
                let t = self.temp();
                let class = match op {
                    BinOp::Mul => UopClass::ScalarMul,
                    BinOp::Div | BinOp::Rem => UopClass::ScalarDiv,
                    _ => UopClass::ScalarAlu,
                };
                self.emit(sink, class, &[ta, tb], Some(t), None);
                (op.eval(a, b), t)
            }
            Expr::Cmp { op, lhs, rhs } => {
                let (a, ta) = self.eval(lhs, mem, sink)?;
                let (b, tb) = self.eval(rhs, mem, sink)?;
                let t = self.temp();
                self.emit(sink, UopClass::ScalarAlu, &[ta, tb], Some(t), None);
                (op.eval(a, b) as i64, t)
            }
            Expr::Not(inner) => {
                let (v, tv) = self.eval(inner, mem, sink)?;
                let t = self.temp();
                self.emit(sink, UopClass::ScalarAlu, &[tv], Some(t), None);
                ((v == 0) as i64, t)
            }
        })
    }

    fn exec_body(
        &mut self,
        body: &[Stmt],
        mem: &mut AddressSpace,
        sink: &mut dyn TraceSink,
        branch_id: &mut u64,
    ) -> Result<StepOutcome, MemFault> {
        for stmt in body {
            match stmt {
                Stmt::Assign { var, value } => {
                    // Register renaming: the variable now lives in the
                    // RHS's destination register; no move µop.
                    let (v, tok) = self.eval(value, mem, sink)?;
                    self.vars[var.0 as usize] = v;
                    self.var_tok[var.0 as usize] = tok;
                }
                Stmt::Store {
                    array,
                    index,
                    value,
                } => {
                    let (idx, ti) = self.eval(index, mem, sink)?;
                    let (v, tv) = self.eval(value, mem, sink)?;
                    let arr = self.bindings.array(array.0);
                    let addr = mem.elem_addr(arr, idx);
                    mem.write(addr, v)?;
                    self.emit(sink, UopClass::Store, &[ti, tv], None, Some(addr));
                }
                Stmt::If { cond, then_, else_ } => {
                    // Macro-fusion: `cmp` + `jcc` issue as one µop, so a
                    // top-level comparison folds into the branch.
                    let id = *branch_id;
                    *branch_id += 1;
                    let taken = match cond {
                        Expr::Cmp { op, lhs, rhs } => {
                            let (a, ta) = self.eval(lhs, mem, sink)?;
                            let (b, tb) = self.eval(rhs, mem, sink)?;
                            let taken = op.eval(a, b);
                            self.emit(sink, UopClass::Branch { id, taken }, &[ta, tb], None, None);
                            taken
                        }
                        other => {
                            let (c, tc) = self.eval(other, mem, sink)?;
                            let taken = c != 0;
                            self.emit(sink, UopClass::Branch { id, taken }, &[tc], None, None);
                            taken
                        }
                    };
                    // Keep static branch ids stable (pre-order: then-arm
                    // branches before else-arm branches) regardless of the
                    // dynamic path.
                    let outcome = if taken {
                        let o = self.exec_body(then_, mem, sink, branch_id)?;
                        *branch_id += count_branches(else_);
                        o
                    } else {
                        *branch_id += count_branches(then_);
                        self.exec_body(else_, mem, sink, branch_id)?
                    };
                    if outcome == StepOutcome::Break {
                        return Ok(StepOutcome::Break);
                    }
                }
                Stmt::Break => return Ok(StepOutcome::Break),
            }
        }
        Ok(StepOutcome::Continue)
    }

    /// Executes one scalar iteration with the induction variable set to
    /// `i`.
    ///
    /// # Errors
    ///
    /// Propagates memory faults (a fault in scalar mode is a real program
    /// error).
    pub fn step(
        &mut self,
        i: i64,
        mem: &mut AddressSpace,
        sink: &mut dyn TraceSink,
    ) -> Result<StepOutcome, MemFault> {
        let ind = self.program.loop_.induction.0 as usize;
        self.vars[ind] = i;
        self.var_tok[ind] = Tok::S(ind as u32);
        // Copy the shared program reference out so the body borrow does
        // not alias `&mut self` (the old code cloned the whole body per
        // iteration).
        let program = self.program;
        let mut branch_id = 1; // 0 is the loop back-edge
        let outcome = self.exec_body(&program.loop_.body, mem, sink, &mut branch_id)?;
        // Loop control: increment, compare, back-edge branch.
        let iv = Tok::S(self.program.loop_.induction.0);
        self.emit(sink, UopClass::ScalarAlu, &[iv], Some(iv), None);
        let taken = outcome == StepOutcome::Continue;
        self.emit(sink, UopClass::Branch { id: 0, taken }, &[iv], None, None);
        Ok(outcome)
    }
}

fn count_branches(body: &[Stmt]) -> u64 {
    body.iter()
        .map(|s| match s {
            Stmt::If { then_, else_, .. } => 1 + count_branches(then_) + count_branches(else_),
            _ => 0,
        })
        .sum()
}

/// Runs the whole loop in scalar mode.
///
/// # Errors
///
/// Propagates unguarded memory faults.
pub fn run_scalar(
    program: &Program,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
) -> Result<RunResult, ExecError> {
    run_scalar_cancellable(program, mem, bindings, sink, None)
}

/// [`run_scalar`] with a cooperative [`CancelToken`](crate::CancelToken),
/// polled every [`crate::SCALAR_CANCEL_STRIDE`] iterations.
///
/// # Errors
///
/// As [`run_scalar`], plus [`ExecError::Cancelled`] when the token
/// fires mid-run.
pub(crate) fn run_scalar_cancellable(
    program: &Program,
    mem: &mut AddressSpace,
    bindings: Bindings,
    sink: &mut dyn TraceSink,
    cancel: Option<&crate::CancelToken>,
) -> Result<RunResult, ExecError> {
    let mut m = ScalarMachine::new(program, bindings);
    let start = m.eval_invariant(&program.loop_.start);
    let end = m.eval_invariant(&program.loop_.end);
    let mut i = start;
    let mut iterations = 0u64;
    let mut broke = false;
    while i < end {
        if iterations.is_multiple_of(crate::SCALAR_CANCEL_STRIDE)
            && crate::cancel::cancelled(cancel)
        {
            return Err(ExecError::Cancelled);
        }
        match m.step(i, mem, sink)? {
            StepOutcome::Continue => {}
            StepOutcome::Break => {
                broke = true;
                break;
            }
        }
        iterations += 1;
        i += 1;
    }
    m.vars[program.loop_.induction.0 as usize] = i;
    if !broke {
        iterations = (end - start).max(0) as u64;
    } else {
        iterations += 1;
    }
    Ok(RunResult {
        vars: m.vars,
        iterations,
        broke,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountingSink, VecSink};
    use flexvec_ir::build::*;
    use flexvec_ir::ProgramBuilder;

    fn setup(data: &[i64]) -> (AddressSpace, ArrayId) {
        let mut mem = AddressSpace::new();
        let a = mem.alloc_from("a", data);
        (mem, a)
    }

    #[test]
    fn sum_loop() {
        let mut b = ProgramBuilder::new("sum");
        let i = b.var("i", 0);
        let acc = b.var("acc", 0);
        let arr = b.array("a");
        b.live_out(acc);
        let p = b
            .build_loop(
                i,
                c(0),
                c(5),
                vec![assign(acc, add(var(acc), ld(arr, var(i))))],
            )
            .unwrap();
        let (mut mem, a) = setup(&[1, 2, 3, 4, 5]);
        let mut sink = CountingSink::default();
        let r = run_scalar(&p, &mut mem, Bindings::new(vec![a]), &mut sink).unwrap();
        assert_eq!(r.var(acc), 15);
        assert_eq!(r.iterations, 5);
        assert!(!r.broke);
        assert!(sink.len() > 0);
    }

    #[test]
    fn conditional_min() {
        let mut b = ProgramBuilder::new("min");
        let i = b.var("i", 0);
        let best = b.var("best", 100);
        let arr = b.array("a");
        b.live_out(best);
        let p = b
            .build_loop(
                i,
                c(0),
                c(6),
                vec![if_(
                    lt(ld(arr, var(i)), var(best)),
                    vec![assign(best, ld(arr, var(i)))],
                )],
            )
            .unwrap();
        let (mut mem, a) = setup(&[50, 80, 20, 90, 10, 60]);
        let mut sink = CountingSink::default();
        let r = run_scalar(&p, &mut mem, Bindings::new(vec![a]), &mut sink).unwrap();
        assert_eq!(r.var(best), 10);
    }

    #[test]
    fn break_stops_early() {
        let mut b = ProgramBuilder::new("find");
        let i = b.var("i", 0);
        let pos = b.var("pos", -1);
        let arr = b.array("a");
        b.live_out(pos);
        let p = b
            .build_loop(
                i,
                c(0),
                c(6),
                vec![if_(
                    eq(ld(arr, var(i)), c(42)),
                    vec![assign(pos, var(i)), brk()],
                )],
            )
            .unwrap();
        let (mut mem, a) = setup(&[1, 2, 42, 3, 42, 4]);
        let mut sink = CountingSink::default();
        let r = run_scalar(&p, &mut mem, Bindings::new(vec![a]), &mut sink).unwrap();
        assert_eq!(r.var(pos), 2);
        assert_eq!(r.var(i), 2); // induction stops at the breaking iteration
        assert!(r.broke);
        assert_eq!(r.iterations, 3);
    }

    #[test]
    fn stores_visible() {
        let mut b = ProgramBuilder::new("scale");
        let i = b.var("i", 0);
        let arr = b.array("a");
        let p = b
            .build_loop(
                i,
                c(0),
                c(4),
                vec![store(arr, var(i), mul(ld(arr, var(i)), c(3)))],
            )
            .unwrap();
        let (mut mem, a) = setup(&[1, 2, 3, 4]);
        let mut sink = CountingSink::default();
        run_scalar(&p, &mut mem, Bindings::new(vec![a]), &mut sink).unwrap();
        assert_eq!(mem.snapshot_array(a), vec![3, 6, 9, 12]);
    }

    #[test]
    fn fault_reported() {
        let mut b = ProgramBuilder::new("oob");
        let i = b.var("i", 0);
        let x = b.var("x", 0);
        let arr = b.array("a");
        let p = b
            .build_loop(
                i,
                c(0),
                c(4),
                vec![assign(x, ld(arr, add(var(i), c(100_000))))],
            )
            .unwrap();
        let (mut mem, a) = setup(&[0; 4]);
        let mut sink = CountingSink::default();
        let err = run_scalar(&p, &mut mem, Bindings::new(vec![a]), &mut sink).unwrap_err();
        assert!(matches!(err, ExecError::Fault(_)));
    }

    #[test]
    fn branch_trace_has_stable_ids_and_outcomes() {
        let mut b = ProgramBuilder::new("branchy");
        let i = b.var("i", 0);
        let x = b.var("x", 0);
        let arr = b.array("a");
        let p = b
            .build_loop(
                i,
                c(0),
                c(2),
                vec![
                    if_else(
                        gt(ld(arr, var(i)), c(0)),
                        vec![assign(x, c(1))],
                        vec![if_(lt(var(x), c(5)), vec![assign(x, c(2))])],
                    ),
                    assign(x, add(var(x), c(1))),
                ],
            )
            .unwrap();
        let (mut mem, a) = setup(&[1, -1]);
        let mut sink = VecSink::default();
        run_scalar(&p, &mut mem, Bindings::new(vec![a]), &mut sink).unwrap();
        let branches: Vec<(u64, bool)> = sink
            .uops
            .iter()
            .filter_map(|u| match u.class {
                UopClass::Branch { id, taken } => Some((id, taken)),
                _ => None,
            })
            .collect();
        // Iteration 0: outer if (id 1) taken, back-edge (id 0) taken.
        // Iteration 1: outer if not taken, inner if (id 2) taken, back-edge.
        assert_eq!(
            branches,
            vec![(1, true), (0, true), (1, false), (2, true), (0, true)]
        );
    }

    #[test]
    fn zero_trip_loop() {
        let mut b = ProgramBuilder::new("zero");
        let i = b.var("i", 5);
        let x = b.var("x", 9);
        b.live_out(x);
        let p = b.build_loop(i, c(5), c(5), vec![assign(x, c(1))]).unwrap();
        let mut mem = AddressSpace::new();
        let mut sink = CountingSink::default();
        let r = run_scalar(&p, &mut mem, Bindings::new(vec![]), &mut sink).unwrap();
        assert_eq!(r.var(x), 9);
        assert_eq!(r.iterations, 0);
    }
}
