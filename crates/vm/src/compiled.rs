//! The compiled µop execution engine.
//!
//! [`CompiledVProg::compile`] flattens a [`VProg`]'s `VNode` tree —
//! including nested [`VNode::Vpl`] bodies and [`VNode::FaultCheck`] arms
//! — into a linear bytecode once, and [`CompiledVProg::run_chunk`]
//! executes it with a tight dispatch loop. Compared to the tree walker
//! the compiled form:
//!
//! * pre-resolves every VPL back-edge to an instruction index (no
//!   recursion, no per-node matching on the chunk hot path);
//! * pre-binds register operands to dense `usize` indices and
//!   pre-splats every immediate into a full [`Vector`];
//! * prebuilds the µop for each instruction and feeds it to the sink by
//!   reference ([`TraceSink::observe`]) — register ops reuse an immutable
//!   template, memory/branch ops patch a preallocated scratch µop in
//!   place (address list, branch outcome) so a chunk allocates nothing;
//! * uses the span forms of [`LaneMemory`] for accesses whose active
//!   lanes hit consecutive addresses (the unit-stride fast path), which
//!   checks the span's pages once instead of translating every lane.
//!
//! The engine is bit-identical to the tree walker: same results, same
//! [`VectorStats`](crate::VectorStats), same µop stream in the same
//! order — the crosscheck tests enforce this on randomized programs.

use flexvec::{VNode, VOp, VProg};
use flexvec_ir::BinOp;
use flexvec_isa::{
    kftm_exc, kftm_inc, vcmp, vgather_ff, vlen, vpconflictm, vpslctlast, CmpOp, LaneMemory, Mask,
    Vector, MAX_VLEN,
};

use crate::trace::{Tok, TraceSink, Uop, UopClass};
use crate::vector::{apply_bin, bin_class, cmp_op, reduce_identity, ChunkAbort, VecExec};

/// One bytecode instruction. Register fields are pre-bound dense indices
/// into the executor's register files; `t`/`t1`/`t2` index the immutable
/// µop templates, `s` the mutable scratch µops. `pub(crate)` so the
/// `jit` module can translate the straight-line subset to machine code.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    Iota {
        dst: usize,
        t: usize,
    },
    /// Constant broadcast. The immediate stays scalar so one compiled
    /// program is correct at every runtime vector length (a pre-splatted
    /// vector would bake in the compile-time width).
    Splat {
        dst: usize,
        value: i64,
        t: usize,
    },
    SplatVar {
        dst: usize,
        var: usize,
        t: usize,
    },
    ExtractVar {
        var: u32,
        src: usize,
        lane: usize,
        t: usize,
    },
    Bin {
        op: BinOp,
        dst: usize,
        a: usize,
        b: usize,
        t: usize,
    },
    /// Binary op with a scalar immediate right operand (splatted at
    /// execution time, at the ambient vector length).
    BinImm {
        op: BinOp,
        dst: usize,
        a: usize,
        imm: i64,
        t: usize,
    },
    Cmp {
        op: CmpOp,
        dst: usize,
        mask: usize,
        a: usize,
        b: usize,
        t: usize,
    },
    Blend {
        dst: usize,
        mask: usize,
        on: usize,
        off: usize,
        t: usize,
    },
    SelectLast {
        dst: usize,
        mask: usize,
        src: usize,
        t: usize,
    },
    Conflict {
        dst: usize,
        enabled: usize,
        a: usize,
        b: usize,
        t: usize,
    },
    Kftm {
        dst: usize,
        enabled: usize,
        stop: usize,
        inclusive: bool,
        t: usize,
    },
    KMove {
        dst: usize,
        src: usize,
        t: usize,
    },
    /// Mask constant as raw bits; clipped to the ambient vector length
    /// at execution time ([`Mask::from_bits`]).
    KConst {
        dst: usize,
        bits: u64,
        t: usize,
    },
    KAnd {
        dst: usize,
        a: usize,
        b: usize,
        t: usize,
    },
    KAndNot {
        dst: usize,
        a: usize,
        b: usize,
        t: usize,
    },
    KOr {
        dst: usize,
        a: usize,
        b: usize,
        t: usize,
    },
    KClearFrom {
        dst: usize,
        src: usize,
        stop: usize,
        t1: usize,
        t2: usize,
    },
    Reduce {
        op: BinOp,
        identity: i64,
        dst: usize,
        mask: usize,
        src: usize,
        t: usize,
    },
    Read {
        dst: usize,
        mask: usize,
        array: usize,
        idx: usize,
        ff: bool,
        /// Output mask register for first-faulting forms (unused
        /// otherwise).
        out_mask: usize,
        s: usize,
    },
    Write {
        mask: usize,
        array: usize,
        idx: usize,
        src: usize,
        s: usize,
    },
    FaultCheck {
        got: usize,
        want: usize,
        t: usize,
    },
    BreakIf {
        mask: usize,
        s: usize,
    },
    /// VPL entry: zero the loop's iteration counter.
    EnterVpl {
        counter: usize,
    },
    /// VPL back-edge: bump the counter, account the partition, and either
    /// jump back to `body` or emit the trailing per-iteration branch µops
    /// and fall through.
    Repeat {
        repeat_if: usize,
        body: usize,
        counter: usize,
        t: usize,
    },
}

impl Instr {
    /// Whether this instruction participates in control flow (VPL entry
    /// and back-edge, fault checks, early exits). Control instructions
    /// always run in the bytecode driver — the JIT's straight-line
    /// segments break at each of them, which also guarantees every VPL
    /// back-edge target is a segment boundary.
    pub(crate) fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::FaultCheck { .. }
                | Instr::BreakIf { .. }
                | Instr::EnterVpl { .. }
                | Instr::Repeat { .. }
        )
    }
}

/// How a control instruction redirects the driver loop.
enum Flow {
    Next,
    Jump(usize),
}

/// A [`VProg`] flattened to linear bytecode (see the module docs).
///
/// Compile once with [`CompiledVProg::compile`], then run any number of
/// chunks; the executor drivers call `CompiledVProg::run_chunk` in
/// place of the tree walker. The compiled program itself is immutable —
/// all per-run mutable state (patched µops, VPL counters, the span lane
/// buffer) lives in an [`ExecScratch`], so one compiled program can be
/// shared (e.g. behind an `Arc` in a compile cache) and executed by many
/// runs or threads concurrently, each with its own scratch.
#[derive(Clone, Debug)]
pub struct CompiledVProg {
    code: Vec<Instr>,
    /// Immutable µop templates, emitted by reference.
    templates: Vec<Uop>,
    /// Prototypes for the mutable scratch µops (memory ops patch `addrs`,
    /// branches patch `taken`, first-faulting reads toggle the
    /// destination source token); cloned into each [`ExecScratch`].
    scratch_proto: Vec<Uop>,
    /// Number of per-VPL iteration counters a run needs.
    num_counters: usize,
    /// The optional native x86-64 tier ([`CompiledVProg::enable_native`]).
    /// Behind an `Arc` so clones (the serve compile cache hands out
    /// clones) share the executable pages.
    native: Option<std::sync::Arc<crate::jit::NativeCode>>,
}

/// The per-run mutable state of a compiled program: preallocated µops
/// patched in place, VPL iteration counters, and the reusable lane
/// buffer for span loads/stores. Create one with
/// [`CompiledVProg::scratch`]; reuse it across invocations to keep the
/// hot path allocation-free.
#[derive(Clone, Debug)]
pub struct ExecScratch {
    uops: Vec<Uop>,
    counters: Vec<u64>,
    /// Per-VPL remaining-work mask of the previous partition, for stall
    /// detection (`Mask::EMPTY` = no previous partition).
    prev_masks: Vec<Mask>,
    span: [i64; MAX_VLEN],
}

impl CompiledVProg {
    /// Flattens `vprog` into bytecode.
    pub fn compile(vprog: &VProg) -> Self {
        let mut c = Compiler {
            code: Vec::new(),
            templates: Vec::new(),
            scratch: Vec::new(),
            counters: 0,
        };
        for node in &vprog.body {
            c.node(node);
        }
        CompiledVProg {
            code: c.code,
            templates: c.templates,
            scratch_proto: c.scratch,
            num_counters: c.counters,
            native: None,
        }
    }

    /// Attaches the native x86-64 tier: compiles every straight-line
    /// segment of the bytecode to machine code (see the `jit` module)
    /// and routes subsequent chunks through it. The machine code is
    /// specialized to the *current* ambient vector length (lane loops
    /// are unrolled `vl` times, mask constants are clipped at `vl`), so
    /// it only runs when a chunk executes at that same width — at any
    /// other width `CompiledVProg::run_chunk` silently uses the
    /// bytecode tier, which is width-agnostic. Returns whether native
    /// code is now attached; `false` (non-x86-64 target, nothing to
    /// compile, or a static encoding bound exceeded) leaves the program
    /// on the bytecode tier, which is always semantically equivalent —
    /// callers can treat the two identically.
    pub fn enable_native(&mut self) -> bool {
        let vl = vlen();
        if let Some(native) = &self.native {
            if native.vl() == vl {
                return true;
            }
            self.native = None;
        }
        match crate::jit::NativeCode::build(&self.code, vl) {
            Some(native) => {
                self.native = Some(std::sync::Arc::new(native));
                true
            }
            None => false,
        }
    }

    /// Whether the native tier is attached.
    pub fn has_native(&self) -> bool {
        self.native.is_some()
    }

    /// `(segments, inline ops, helper ops, code bytes)` of the attached
    /// native tier; all zeros when running pure bytecode.
    pub fn native_info(&self) -> (usize, usize, usize, usize) {
        match &self.native {
            Some(n) => {
                let (inline, helper) = n.op_mix();
                (n.num_segments(), inline, helper, n.code_bytes())
            }
            None => (0, 0, 0, 0),
        }
    }

    /// The immutable µop templates (the JIT's batched-observe flush
    /// reads ranges of these).
    pub(crate) fn templates(&self) -> &[Uop] {
        &self.templates
    }

    /// The serializable parts: `(code, templates, scratch_proto,
    /// num_counters)`. The native tier is deliberately absent — machine
    /// code is never persisted; it is rebuilt with
    /// [`CompiledVProg::enable_native`] after a snapshot load.
    pub(crate) fn parts(&self) -> (&[Instr], &[Uop], &[Uop], usize) {
        (
            &self.code,
            &self.templates,
            &self.scratch_proto,
            self.num_counters,
        )
    }

    /// Reassembles a program from deserialized parts (`native` starts
    /// detached). The serial module validates internal consistency
    /// before calling this.
    pub(crate) fn from_parts(
        code: Vec<Instr>,
        templates: Vec<Uop>,
        scratch_proto: Vec<Uop>,
        num_counters: usize,
    ) -> Self {
        CompiledVProg {
            code,
            templates,
            scratch_proto,
            num_counters,
            native: None,
        }
    }

    /// Number of bytecode instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program body compiled to no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Allocates the per-run mutable state for this program.
    pub fn scratch(&self) -> ExecScratch {
        ExecScratch {
            uops: self.scratch_proto.clone(),
            counters: vec![0; self.num_counters],
            prev_masks: vec![Mask::EMPTY; self.num_counters],
            span: [0; MAX_VLEN],
        }
    }

    /// Executes one chunk against `exec`'s register state — through the
    /// native tier when one is attached, the bytecode interpreter
    /// otherwise. The two paths are bit-identical (results, statistics,
    /// µop stream); the crosscheck tests enforce it.
    pub(crate) fn run_chunk<M: LaneMemory>(
        &self,
        st: &mut ExecScratch,
        exec: &mut VecExec,
        mem: &mut M,
        sink: &mut dyn TraceSink,
    ) -> Result<(), ChunkAbort> {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        if let Some(native) = &self.native {
            // The machine code bakes in its build-time vector length;
            // any other ambient width runs the (width-agnostic)
            // bytecode tier instead.
            if native.vl() == vlen() {
                return self.run_chunk_native(native, st, exec, mem, sink);
            }
        }
        self.run_chunk_bytecode(st, exec, mem, sink)
    }

    /// The bytecode dispatch loop.
    fn run_chunk_bytecode<M: LaneMemory>(
        &self,
        st: &mut ExecScratch,
        exec: &mut VecExec,
        mem: &mut M,
        sink: &mut dyn TraceSink,
    ) -> Result<(), ChunkAbort> {
        let mut pc = 0usize;
        while pc < self.code.len() {
            if self.code[pc].is_control() {
                match self.exec_control(pc, st, exec, sink)? {
                    Flow::Jump(target) => {
                        pc = target;
                        continue;
                    }
                    Flow::Next => {}
                }
            } else {
                self.exec_instr(pc, st, exec, mem, sink)?;
            }
            pc += 1;
        }
        Ok(())
    }

    /// The native dispatch loop: straight-line segments run as machine
    /// code, control instructions stay interpreted (they are never part
    /// of a segment, and every jump target is a segment boundary or a
    /// control instruction).
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[allow(unsafe_code)]
    fn run_chunk_native<M: LaneMemory>(
        &self,
        native: &crate::jit::NativeCode,
        st: &mut ExecScratch,
        exec: &mut VecExec,
        mem: &mut M,
        sink: &mut dyn TraceSink,
    ) -> Result<(), ChunkAbort> {
        use crate::jit::{helper_instr, helper_observe, HelperRefs, NativeCtx};
        let mut refs = HelperRefs::<M> {
            prog: self,
            st: st as *mut ExecScratch,
            exec: exec as *mut VecExec,
            mem: mem as *mut M,
            sink: sink as *mut (dyn TraceSink + '_),
            abort: None,
        };
        // The register files are fixed-size for the whole run, so these
        // flat views stay valid across helper calls (which mutate the
        // contents, never the allocations).
        let mut ctx = NativeCtx {
            vregs: exec.vregs.as_mut_ptr().cast::<i64>(),
            kregs: exec.kregs.as_mut_ptr().cast::<u64>(),
            vars: exec.vars.as_mut_ptr(),
            helper_instr: helper_instr::<M>,
            helper_observe: helper_observe::<M>,
            payload: (&mut refs as *mut HelperRefs<'_, M>).cast(),
        };
        let mut pc = 0usize;
        while pc < self.code.len() {
            if let Some(seg) = native.segment_at(pc) {
                // SAFETY: ctx's register-file pointers cover every
                // index the program binds (the compiler bound them
                // against this register file's sizes), the payload is
                // the HelperRefs<M> matching the thunks' type
                // parameter, and the segment came from this program's
                // own build.
                let status = unsafe { native.call(seg, &mut ctx) };
                if status != 0 {
                    return Err(refs.abort.take().expect("helper recorded the abort"));
                }
                pc = seg.end as usize;
                continue;
            }
            match self.exec_control(pc, st, exec, sink)? {
                Flow::Jump(target) => {
                    pc = target;
                    continue;
                }
                Flow::Next => {}
            }
            pc += 1;
        }
        Ok(())
    }

    /// Executes the control instruction at `pc` (the four variants that
    /// never enter a JIT segment).
    fn exec_control(
        &self,
        pc: usize,
        st: &mut ExecScratch,
        exec: &mut VecExec,
        sink: &mut dyn TraceSink,
    ) -> Result<Flow, ChunkAbort> {
        let templates = &self.templates;
        match &self.code[pc] {
            Instr::FaultCheck { got, want, t } => {
                sink.observe(&templates[*t]);
                if exec.kregs[*got] != exec.kregs[*want] {
                    return Err(ChunkAbort::Clipped);
                }
            }
            Instr::BreakIf { mask, s } => {
                let k = exec.kregs[*mask];
                if exec.aon && k.any() {
                    return Err(ChunkAbort::Clipped);
                }
                let uop = &mut st.uops[*s];
                if let UopClass::Branch { taken, .. } = &mut uop.class {
                    *taken = k.any();
                }
                sink.observe(uop);
                exec.exit_mask |= k;
            }
            Instr::EnterVpl { counter } => {
                st.counters[*counter] = 0;
                st.prev_masks[*counter] = Mask::EMPTY;
            }
            Instr::Repeat {
                repeat_if,
                body,
                counter,
                t,
            } => {
                st.counters[*counter] += 1;
                exec.stats.vpl_iterations += 1;
                let todo = exec.kregs[*repeat_if];
                if todo.any() {
                    if exec.aon {
                        // All-or-nothing: a detected dependency rolls
                        // the whole chunk back to scalar code.
                        return Err(ChunkAbort::Clipped);
                    }
                    // Stall detection mirrors the tree walker: a
                    // partition that retired no lanes (the
                    // remaining-work mask did not change) would spin
                    // forever; the iteration bound is the backstop.
                    if todo == st.prev_masks[*counter] || st.counters[*counter] > vlen() as u64 {
                        return Err(ChunkAbort::Divergence);
                    }
                    st.prev_masks[*counter] = todo;
                    return Ok(Flow::Jump(*body));
                }
                let iters = st.counters[*counter];
                exec.stats.max_partitions = exec.stats.max_partitions.max(iters);
                // The VPL's trailing mask test is a branch per
                // iteration.
                for _ in 0..iters {
                    sink.observe(&templates[*t]);
                }
            }
            _ => unreachable!("exec_control only sees control instructions"),
        }
        Ok(Flow::Next)
    }

    /// Executes the straight-line (non-control) instruction at `pc` —
    /// the single implementation both the bytecode loop and the JIT's
    /// fallback helper dispatch into, so the two tiers cannot drift.
    pub(crate) fn exec_instr<M: LaneMemory>(
        &self,
        pc: usize,
        st: &mut ExecScratch,
        exec: &mut VecExec,
        mem: &mut M,
        sink: &mut dyn TraceSink,
    ) -> Result<(), ChunkAbort> {
        let templates = &self.templates;
        let ExecScratch {
            uops: scratch,
            span,
            ..
        } = st;
        {
            match &self.code[pc] {
                Instr::Iota { dst, t } => {
                    exec.vregs[*dst] = Vector::iota();
                    sink.observe(&templates[*t]);
                }
                Instr::Splat { dst, value, t } => {
                    exec.vregs[*dst] = Vector::splat(*value);
                    sink.observe(&templates[*t]);
                }
                Instr::SplatVar { dst, var, t } => {
                    exec.vregs[*dst] = Vector::splat(exec.vars[*var]);
                    sink.observe(&templates[*t]);
                }
                Instr::ExtractVar { var, src, lane, t } => {
                    exec.set_var(*var, exec.vregs[*src].lane(*lane));
                    sink.observe(&templates[*t]);
                }
                Instr::Bin { op, dst, a, b, t } => {
                    exec.vregs[*dst] = apply_bin(*op, exec.vregs[*a], exec.vregs[*b]);
                    sink.observe(&templates[*t]);
                }
                Instr::BinImm { op, dst, a, imm, t } => {
                    exec.vregs[*dst] = apply_bin(*op, exec.vregs[*a], Vector::splat(*imm));
                    sink.observe(&templates[*t]);
                }
                Instr::Cmp {
                    op,
                    dst,
                    mask,
                    a,
                    b,
                    t,
                } => {
                    exec.kregs[*dst] = vcmp(exec.kregs[*mask], *op, exec.vregs[*a], exec.vregs[*b]);
                    sink.observe(&templates[*t]);
                }
                Instr::Blend {
                    dst,
                    mask,
                    on,
                    off,
                    t,
                } => {
                    exec.vregs[*dst] =
                        Vector::blend(exec.kregs[*mask], exec.vregs[*on], exec.vregs[*off]);
                    sink.observe(&templates[*t]);
                }
                Instr::SelectLast { dst, mask, src, t } => {
                    exec.vregs[*dst] = vpslctlast(exec.kregs[*mask], exec.vregs[*src]);
                    sink.observe(&templates[*t]);
                }
                Instr::Conflict {
                    dst,
                    enabled,
                    a,
                    b,
                    t,
                } => {
                    exec.kregs[*dst] =
                        vpconflictm(exec.kregs[*enabled], exec.vregs[*a], exec.vregs[*b]);
                    sink.observe(&templates[*t]);
                }
                Instr::Kftm {
                    dst,
                    enabled,
                    stop,
                    inclusive,
                    t,
                } => {
                    let f = if *inclusive { kftm_inc } else { kftm_exc };
                    exec.kregs[*dst] = f(exec.kregs[*enabled], exec.kregs[*stop]);
                    sink.observe(&templates[*t]);
                }
                Instr::KMove { dst, src, t } => {
                    exec.kregs[*dst] = exec.kregs[*src];
                    sink.observe(&templates[*t]);
                }
                Instr::KConst { dst, bits, t } => {
                    exec.kregs[*dst] = Mask::from_bits(*bits);
                    sink.observe(&templates[*t]);
                }
                Instr::KAnd { dst, a, b, t } => {
                    exec.kregs[*dst] = exec.kregs[*a] & exec.kregs[*b];
                    sink.observe(&templates[*t]);
                }
                Instr::KAndNot { dst, a, b, t } => {
                    exec.kregs[*dst] = exec.kregs[*a].and_not(exec.kregs[*b]);
                    sink.observe(&templates[*t]);
                }
                Instr::KOr { dst, a, b, t } => {
                    exec.kregs[*dst] = exec.kregs[*a] | exec.kregs[*b];
                    sink.observe(&templates[*t]);
                }
                Instr::KClearFrom {
                    dst,
                    src,
                    stop,
                    t1,
                    t2,
                } => {
                    let cleared = match (exec.kregs[*stop] & exec.kregs[*src]).first_set() {
                        Some(lane) => exec.kregs[*src] & Mask::prefix_before(lane),
                        None => exec.kregs[*src],
                    };
                    exec.kregs[*dst] = cleared;
                    sink.observe(&templates[*t1]);
                    sink.observe(&templates[*t2]);
                }
                Instr::Reduce {
                    op,
                    identity,
                    dst,
                    mask,
                    src,
                    t,
                } => {
                    let value =
                        exec.vregs[*src].reduce(exec.kregs[*mask], *identity, |a, b| op.eval(a, b));
                    exec.vregs[*dst] = Vector::splat(value);
                    sink.observe(&templates[*t]);
                }
                Instr::Read {
                    dst,
                    mask,
                    array,
                    idx,
                    ff,
                    out_mask,
                    s,
                } => {
                    let k = exec.kregs[*mask];
                    let base = exec.array_bases[*array] as i64;
                    let idxv = exec.vregs[*idx];
                    let uop = &mut scratch[*s];
                    // Refill the touched-address list and detect the
                    // unit-stride (consecutive-address) case on the fly.
                    uop.addrs.clear();
                    let mut contiguous = true;
                    for lane in k.iter_set() {
                        let addr = base.wrapping_add(idxv.lane(lane).wrapping_mul(8)) as u64;
                        if let Some(&prev) = uop.addrs.last() {
                            contiguous &= addr == prev.wrapping_add(8);
                        }
                        uop.addrs.push(addr);
                    }
                    let n = uop.addrs.len();
                    if *ff {
                        let dest = exec.vregs[*dst];
                        let result = if contiguous && n > 0 {
                            match mem.load_span(uop.addrs[0], &mut span[..n]) {
                                Ok(()) => {
                                    let mut value = dest;
                                    for (j, lane) in k.iter_set().enumerate() {
                                        value[lane] = span[j];
                                    }
                                    Some((value, k))
                                }
                                Err(f) => {
                                    // First bad element, in lane order.
                                    let j = ((f.addr - uop.addrs[0]) / 8) as usize;
                                    if j == 0 {
                                        None // non-speculative lane faulted
                                    } else {
                                        let fault_lane =
                                            k.iter_set().nth(j).expect("fault within active run");
                                        let mut value = dest;
                                        for (jj, lane) in k.iter_set().take(j).enumerate() {
                                            value[lane] = span[jj];
                                        }
                                        Some((value, k & Mask::prefix_before(fault_lane)))
                                    }
                                }
                            }
                        } else {
                            vgather_ff(mem, k, dest, addrs_of(base, idxv))
                                .ok()
                                .map(|res| (res.value, res.mask))
                        };
                        match result {
                            Some((value, got)) => {
                                exec.vregs[*dst] = value;
                                exec.kregs[*out_mask] = got;
                                uop.srcs.push(Tok::V(*dst as u32));
                                sink.observe(uop);
                                uop.srcs.truncate(2);
                            }
                            None => {
                                // A fault on the non-speculative lane:
                                // handle it like a clip — the scalar
                                // fallback decides whether the access
                                // really happens.
                                sink.observe(uop);
                                return Err(ChunkAbort::Clipped);
                            }
                        }
                    } else {
                        let mut out = exec.vregs[*dst];
                        if contiguous && n > 0 {
                            // Faults propagate without emitting the µop,
                            // exactly like the per-lane path (the span
                            // fault address is the first bad element).
                            mem.load_span(uop.addrs[0], &mut span[..n])?;
                            for (j, lane) in k.iter_set().enumerate() {
                                out[lane] = span[j];
                            }
                        } else {
                            for (j, lane) in k.iter_set().enumerate() {
                                out[lane] = mem.load_lane(uop.addrs[j])?;
                            }
                        }
                        exec.vregs[*dst] = out;
                        sink.observe(uop);
                    }
                }
                Instr::Write {
                    mask,
                    array,
                    idx,
                    src,
                    s,
                } => {
                    let k = exec.kregs[*mask];
                    let base = exec.array_bases[*array] as i64;
                    let idxv = exec.vregs[*idx];
                    let values = exec.vregs[*src];
                    let uop = &mut scratch[*s];
                    uop.addrs.clear();
                    let mut contiguous = true;
                    for lane in k.iter_set() {
                        let addr = base.wrapping_add(idxv.lane(lane).wrapping_mul(8)) as u64;
                        if let Some(&prev) = uop.addrs.last() {
                            contiguous &= addr == prev.wrapping_add(8);
                        }
                        uop.addrs.push(addr);
                    }
                    let n = uop.addrs.len();
                    // The store µop is emitted before the accesses (the
                    // tree walker does the same; a mid-store fault leaves
                    // the earlier lanes written).
                    sink.observe(uop);
                    if n > 0 {
                        exec.chunk_stores = true;
                    }
                    if contiguous && n > 0 {
                        for (j, lane) in k.iter_set().enumerate() {
                            span[j] = values.lane(lane);
                        }
                        let addr0 = scratch[*s].addrs[0];
                        mem.store_span(addr0, &span[..n])?;
                    } else {
                        for (j, lane) in k.iter_set().enumerate() {
                            mem.store_lane(scratch[*s].addrs[j], values.lane(lane))?;
                        }
                    }
                }
                _ => unreachable!("exec_instr only sees straight-line instructions"),
            }
        }
        Ok(())
    }
}

/// Per-lane byte addresses (the gather-path helper, mirroring
/// `VecExec::addrs`).
fn addrs_of(base: i64, idx: Vector) -> Vector {
    idx.map(|i| base.wrapping_add(i.wrapping_mul(8)))
}

/// The flattening pass.
struct Compiler {
    code: Vec<Instr>,
    templates: Vec<Uop>,
    scratch: Vec<Uop>,
    counters: usize,
}

impl Compiler {
    fn template(&mut self, uop: Uop) -> usize {
        self.templates.push(uop);
        self.templates.len() - 1
    }

    fn scratch_uop(&mut self, uop: Uop) -> usize {
        self.scratch.push(uop);
        self.scratch.len() - 1
    }

    fn node(&mut self, node: &VNode) {
        match node {
            VNode::Op(op) => self.op(op),
            VNode::Vpl { body, repeat_if } => {
                let counter = self.counters;
                self.counters += 1;
                self.code.push(Instr::EnterVpl { counter });
                let body_start = self.code.len();
                for n in body {
                    self.node(n);
                }
                let t = self.template(Uop {
                    class: UopClass::Branch {
                        id: u64::MAX - 1,
                        taken: true,
                    },
                    srcs: vec![Tok::K(repeat_if.0)],
                    dst: None,
                    addrs: Vec::new(),
                });
                self.code.push(Instr::Repeat {
                    repeat_if: repeat_if.0 as usize,
                    body: body_start,
                    counter,
                    t,
                });
            }
            VNode::FaultCheck { got, want } => {
                let t = self.template(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(got.0), Tok::K(want.0)],
                    None,
                ));
                self.code.push(Instr::FaultCheck {
                    got: got.0 as usize,
                    want: want.0 as usize,
                    t,
                });
            }
            VNode::BreakIf { mask } => {
                let s = self.scratch_uop(Uop {
                    class: UopClass::Branch {
                        id: u64::MAX - 2,
                        taken: false,
                    },
                    srcs: vec![Tok::K(mask.0)],
                    dst: None,
                    addrs: Vec::new(),
                });
                self.code.push(Instr::BreakIf {
                    mask: mask.0 as usize,
                    s,
                });
            }
        }
    }

    fn op(&mut self, op: &VOp) {
        match op {
            VOp::Iota { dst } => {
                let t = self.template(Uop::reg(UopClass::Broadcast, vec![], Some(Tok::V(dst.0))));
                self.code.push(Instr::Iota {
                    dst: dst.0 as usize,
                    t,
                });
            }
            VOp::SplatConst { dst, value } => {
                let t = self.template(Uop::reg(UopClass::Broadcast, vec![], Some(Tok::V(dst.0))));
                self.code.push(Instr::Splat {
                    dst: dst.0 as usize,
                    value: *value,
                    t,
                });
            }
            VOp::SplatVar { dst, var } => {
                let t = self.template(Uop::reg(
                    UopClass::Broadcast,
                    vec![Tok::S(var.0)],
                    Some(Tok::V(dst.0)),
                ));
                self.code.push(Instr::SplatVar {
                    dst: dst.0 as usize,
                    var: var.0 as usize,
                    t,
                });
            }
            VOp::ExtractVar { var, src, lane } => {
                let t = self.template(Uop::reg(
                    UopClass::VecShuffle,
                    vec![Tok::V(src.0)],
                    Some(Tok::S(var.0)),
                ));
                self.code.push(Instr::ExtractVar {
                    var: var.0,
                    src: src.0 as usize,
                    lane: *lane,
                    t,
                });
            }
            VOp::Bin { op, dst, a, b } => {
                let t = self.template(Uop::reg(
                    bin_class(*op),
                    vec![Tok::V(a.0), Tok::V(b.0)],
                    Some(Tok::V(dst.0)),
                ));
                self.code.push(Instr::Bin {
                    op: *op,
                    dst: dst.0 as usize,
                    a: a.0 as usize,
                    b: b.0 as usize,
                    t,
                });
            }
            VOp::BinImm { op, dst, a, imm } => {
                let t = self.template(Uop::reg(
                    bin_class(*op),
                    vec![Tok::V(a.0)],
                    Some(Tok::V(dst.0)),
                ));
                self.code.push(Instr::BinImm {
                    op: *op,
                    dst: dst.0 as usize,
                    a: a.0 as usize,
                    imm: *imm,
                    t,
                });
            }
            VOp::Cmp {
                pred,
                dst,
                mask,
                a,
                b,
            } => {
                let t = self.template(Uop::reg(
                    UopClass::VecAlu,
                    vec![Tok::K(mask.0), Tok::V(a.0), Tok::V(b.0)],
                    Some(Tok::K(dst.0)),
                ));
                self.code.push(Instr::Cmp {
                    op: cmp_op(*pred),
                    dst: dst.0 as usize,
                    mask: mask.0 as usize,
                    a: a.0 as usize,
                    b: b.0 as usize,
                    t,
                });
            }
            VOp::Blend { dst, mask, on, off } => {
                let t = self.template(Uop::reg(
                    UopClass::VecShuffle,
                    vec![Tok::K(mask.0), Tok::V(on.0), Tok::V(off.0)],
                    Some(Tok::V(dst.0)),
                ));
                self.code.push(Instr::Blend {
                    dst: dst.0 as usize,
                    mask: mask.0 as usize,
                    on: on.0 as usize,
                    off: off.0 as usize,
                    t,
                });
            }
            VOp::SelectLast { dst, mask, src } => {
                let t = self.template(Uop::reg(
                    UopClass::SelectLast,
                    vec![Tok::K(mask.0), Tok::V(src.0)],
                    Some(Tok::V(dst.0)),
                ));
                self.code.push(Instr::SelectLast {
                    dst: dst.0 as usize,
                    mask: mask.0 as usize,
                    src: src.0 as usize,
                    t,
                });
            }
            VOp::Conflict { dst, enabled, a, b } => {
                let t = self.template(Uop::reg(
                    UopClass::Conflict,
                    vec![Tok::K(enabled.0), Tok::V(a.0), Tok::V(b.0)],
                    Some(Tok::K(dst.0)),
                ));
                self.code.push(Instr::Conflict {
                    dst: dst.0 as usize,
                    enabled: enabled.0 as usize,
                    a: a.0 as usize,
                    b: b.0 as usize,
                    t,
                });
            }
            VOp::Kftm {
                dst,
                enabled,
                stop,
                inclusive,
            } => {
                let t = self.template(Uop::reg(
                    UopClass::Kftm,
                    vec![Tok::K(enabled.0), Tok::K(stop.0)],
                    Some(Tok::K(dst.0)),
                ));
                self.code.push(Instr::Kftm {
                    dst: dst.0 as usize,
                    enabled: enabled.0 as usize,
                    stop: stop.0 as usize,
                    inclusive: *inclusive,
                    t,
                });
            }
            VOp::KMove { dst, src } => {
                let t = self.template(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(src.0)],
                    Some(Tok::K(dst.0)),
                ));
                self.code.push(Instr::KMove {
                    dst: dst.0 as usize,
                    src: src.0 as usize,
                    t,
                });
            }
            VOp::KConst { dst, bits } => {
                let t = self.template(Uop::reg(UopClass::MaskOp, vec![], Some(Tok::K(dst.0))));
                self.code.push(Instr::KConst {
                    dst: dst.0 as usize,
                    bits: *bits,
                    t,
                });
            }
            VOp::KAnd { dst, a, b } => {
                let t = self.k_bin_template(dst.0, a.0, b.0);
                self.code.push(Instr::KAnd {
                    dst: dst.0 as usize,
                    a: a.0 as usize,
                    b: b.0 as usize,
                    t,
                });
            }
            VOp::KAndNot { dst, a, b } => {
                let t = self.k_bin_template(dst.0, a.0, b.0);
                self.code.push(Instr::KAndNot {
                    dst: dst.0 as usize,
                    a: a.0 as usize,
                    b: b.0 as usize,
                    t,
                });
            }
            VOp::KOr { dst, a, b } => {
                let t = self.k_bin_template(dst.0, a.0, b.0);
                self.code.push(Instr::KOr {
                    dst: dst.0 as usize,
                    a: a.0 as usize,
                    b: b.0 as usize,
                    t,
                });
            }
            VOp::KClearFrom { dst, src, stop } => {
                // Emulation sequence: ~2 mask µops.
                let t1 = self.template(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(src.0), Tok::K(stop.0)],
                    Some(Tok::K(dst.0)),
                ));
                let t2 = self.template(Uop::reg(
                    UopClass::MaskOp,
                    vec![Tok::K(dst.0)],
                    Some(Tok::K(dst.0)),
                ));
                self.code.push(Instr::KClearFrom {
                    dst: dst.0 as usize,
                    src: src.0 as usize,
                    stop: stop.0 as usize,
                    t1,
                    t2,
                });
            }
            VOp::Reduce { op, dst, mask, src } => {
                let t = self.template(Uop::reg(
                    UopClass::Reduce,
                    vec![Tok::K(mask.0), Tok::V(src.0)],
                    Some(Tok::V(dst.0)),
                ));
                self.code.push(Instr::Reduce {
                    op: *op,
                    identity: reduce_identity(*op),
                    dst: dst.0 as usize,
                    mask: mask.0 as usize,
                    src: src.0 as usize,
                    t,
                });
            }
            VOp::MemRead {
                dst,
                mask,
                array,
                idx,
                unit,
                first_faulting,
                out_mask,
            } => {
                let class = match (unit, first_faulting) {
                    (true, false) => UopClass::VecLoad,
                    (false, false) => UopClass::Gather,
                    (true, true) => UopClass::VecLoadFF,
                    (false, true) => UopClass::GatherFF,
                };
                let s = self.scratch_uop(Uop::mem(
                    class,
                    vec![Tok::K(mask.0), Tok::V(idx.0)],
                    Some(Tok::V(dst.0)),
                    Vec::new(),
                ));
                self.code.push(Instr::Read {
                    dst: dst.0 as usize,
                    mask: mask.0 as usize,
                    array: array.0 as usize,
                    idx: idx.0 as usize,
                    ff: *first_faulting,
                    out_mask: out_mask.map_or(0, |om| om.0 as usize),
                    s,
                });
            }
            VOp::MemWrite {
                mask,
                array,
                idx,
                src,
                unit,
            } => {
                let class = if *unit {
                    UopClass::VecStore
                } else {
                    UopClass::Scatter
                };
                let s = self.scratch_uop(Uop::mem(
                    class,
                    vec![Tok::K(mask.0), Tok::V(idx.0), Tok::V(src.0)],
                    None,
                    Vec::new(),
                ));
                self.code.push(Instr::Write {
                    mask: mask.0 as usize,
                    array: array.0 as usize,
                    idx: idx.0 as usize,
                    src: src.0 as usize,
                    s,
                });
            }
        }
    }

    fn k_bin_template(&mut self, dst: u32, a: u32, b: u32) -> usize {
        self.template(Uop::reg(
            UopClass::MaskOp,
            vec![Tok::K(a), Tok::K(b)],
            Some(Tok::K(dst)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvec::{vectorize, SpecRequest};
    use flexvec_ir::build::*;
    use flexvec_ir::ProgramBuilder;
    use flexvec_mem::AddressSpace;

    use crate::vector::{run_vector_with_engine, Engine};
    use crate::{Bindings, VecSink};

    #[test]
    fn flattens_nested_vpls_with_resolved_backedges() {
        let mut b = ProgramBuilder::new("cond_update");
        let i = b.var("i", 0);
        let acc = b.var("acc", 0);
        let arr = b.array("a");
        b.live_out(acc);
        let p = b
            .build_loop(
                i,
                c(0),
                c(64),
                vec![if_(
                    gt(ld(arr, var(i)), c(10)),
                    vec![assign(acc, add(var(acc), ld(arr, var(i))))],
                )],
            )
            .unwrap();
        let vectorized = vectorize(&p, SpecRequest::Auto).unwrap();
        let compiled = CompiledVProg::compile(&vectorized.vprog);
        assert!(!compiled.is_empty());
        // Every VPL flattens to an EnterVpl/Repeat pair whose back-edge
        // points inside the code block.
        let mut enters = 0;
        let mut repeats = 0;
        for (idx, instr) in compiled.code.iter().enumerate() {
            match instr {
                Instr::EnterVpl { .. } => enters += 1,
                Instr::Repeat { body, .. } => {
                    repeats += 1;
                    assert!(*body <= idx, "back-edge target must precede the Repeat");
                }
                _ => {}
            }
        }
        assert_eq!(enters, repeats);
        assert_eq!(enters, compiled.scratch().counters.len());
    }

    #[test]
    fn compiled_engine_matches_tree_walker_trace() {
        let mut b = ProgramBuilder::new("sum_guarded");
        let i = b.var("i", 0);
        let acc = b.var("acc", 0);
        let arr = b.array("a");
        b.live_out(acc);
        let p = b
            .build_loop(
                i,
                c(0),
                c(50),
                vec![if_(
                    gt(ld(arr, var(i)), c(5)),
                    vec![assign(acc, add(var(acc), ld(arr, var(i))))],
                )],
            )
            .unwrap();
        let vectorized = vectorize(&p, SpecRequest::Auto).unwrap();
        let data: Vec<i64> = (0..50).map(|x| (x * 7) % 13).collect();

        let mut mem_t = AddressSpace::new();
        let a_t = mem_t.alloc_from("a", &data);
        let mut sink_t = VecSink::default();
        let (res_t, stats_t) = run_vector_with_engine(
            &p,
            &vectorized.vprog,
            &mut mem_t,
            Bindings::new(vec![a_t]),
            &mut sink_t,
            Engine::TreeWalking,
        )
        .unwrap();

        let mut mem_c = AddressSpace::new();
        let a_c = mem_c.alloc_from("a", &data);
        let mut sink_c = VecSink::default();
        let (res_c, stats_c) = run_vector_with_engine(
            &p,
            &vectorized.vprog,
            &mut mem_c,
            Bindings::new(vec![a_c]),
            &mut sink_c,
            Engine::Compiled,
        )
        .unwrap();

        assert_eq!(res_t, res_c);
        assert_eq!(stats_t, stats_c);
        assert_eq!(sink_t.uops, sink_c.uops);
        assert_eq!(mem_t.snapshot_array(a_t), mem_c.snapshot_array(a_c));
    }
}
