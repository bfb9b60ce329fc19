//! The native x86-64 JIT tier.
//!
//! [`NativeCode::build`] partitions a [`CompiledVProg`]'s bytecode into
//! maximal *straight-line segments* — runs of instructions with no
//! control flow — and emits one machine-code function per segment into
//! W^X executable pages ([`pages`]). Control instructions (`EnterVpl`,
//! `Repeat`, `FaultCheck`, `BreakIf`) never enter a segment, so every
//! VPL back-edge target lands exactly on a segment boundary and the
//! bytecode driver keeps ownership of all control flow.
//!
//! Inside a segment there are two emission strategies:
//!
//! * **Inline code** for the register-op subset (broadcasts, the
//!   add/sub/mul/and/or/xor/min/max vector ALU ops, predicated
//!   compares, blends, and the simple mask ops): one scalar
//!   load/op/store triple per lane of the build-time vector length
//!   `vl`, over the flat register files, no dispatch, no per-op
//!   virtual calls. Their µop-template observations are
//!   *batched*: consecutive inline ops accumulate a `[lo, hi)` template
//!   range that is flushed with a single
//!   [`TraceSink::observe_slice`] call, preserving the exact stream
//!   the interpreter produces.
//! * **Helper calls** for everything else (memory ops with their span
//!   fast path and fault semantics, div/rem/shifts, reductions,
//!   conflict detection, `kftm`, `vpslctlast`, scalar extraction):
//!   an indirect `call` through a per-run function table in the
//!   [`NativeCtx`], landing in [`helper_instr`], which executes the
//!   interpreter's own arm for that instruction. For a memory op that
//!   arm fills the address list from the index register's active lanes
//!   and moves only those lanes, in place, so a helper call costs the
//!   dispatch, the address fill and the access itself, never a whole
//!   register copy. The helper path is what makes "unsupported"
//!   impossible to get wrong: any instruction the encoder does not
//!   model runs the reference implementation, bit for bit — never
//!   wrong code, only less speedup.
//!
//! The function table is per-monomorphization (`M: LaneMemory`), so one
//! compiled blob serves both plain [`AddressSpace`] runs and RTM
//! transactions.
//!
//! # Safety
//!
//! The `unsafe` in this module is confined to (a) the three syscalls in
//! [`pages`], (b) transmuting an executable-page offset to a function
//! pointer, and (c) the helper thunks' pointer reconstruction. The
//! generated code only ever dereferences the three register-file
//! pointers in [`NativeCtx`] — base + statically-checked displacement,
//! with `#[repr(transparent)]` on `Vector`/`Mask` guaranteeing the
//! layout — and calls the two helpers; it never touches guest memory
//! directly (that is the helpers' job, through the same `LaneMemory`
//! code path the interpreter uses).

/// Whether this build target can emit and execute native code
/// (x86-64 Linux). Everywhere else `NativeCode::build` returns `None`
/// and `Engine::Native` transparently falls back to the compiled
/// bytecode engine.
pub fn native_supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod encoder;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod pages;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use enabled::*;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod enabled {
    use core::fmt;

    use flexvec_ir::BinOp;
    use flexvec_isa::{CmpOp, LaneMemory, MAX_VLEN};

    use super::encoder::{
        Alu, Asm, CC_B, CC_E, CC_G, CC_GE, CC_L, CC_LE, CC_NE, R13, R14, R15, RAX, RBX, RCX, RDI,
        RDX, RSI,
    };
    use super::pages::ExecPages;
    use crate::compiled::{CompiledVProg, ExecScratch, Instr};
    use crate::trace::TraceSink;
    use crate::vector::{ChunkAbort, VecExec};

    /// Field offsets of [`NativeCtx`], baked into generated code
    /// (asserted against the real layout in the tests).
    const CTX_VREGS: i32 = 0;
    const CTX_KREGS: i32 = 8;
    const CTX_VARS: i32 = 16;
    const CTX_HELPER_INSTR: i32 = 24;
    const CTX_HELPER_OBSERVE: i32 = 32;

    /// The execution context a segment function receives (in `rdi`).
    ///
    /// The three register-file pointers are the flat views of the
    /// executor's `Vec<Vector>` / `Vec<Mask>` / `Vec<i64>` (valid
    /// because of `repr(transparent)`); the two function pointers are
    /// the monomorphized helper thunks; `payload` points at the
    /// [`HelperRefs`] the thunks reconstruct their borrows from.
    #[repr(C)]
    pub(crate) struct NativeCtx {
        pub(crate) vregs: *mut i64,
        pub(crate) kregs: *mut u64,
        pub(crate) vars: *mut i64,
        pub(crate) helper_instr: extern "C" fn(*mut NativeCtx, u32) -> u32,
        pub(crate) helper_observe: extern "C" fn(*mut NativeCtx, u32, u32),
        pub(crate) payload: *mut core::ffi::c_void,
    }

    /// The interpreter state the helper thunks execute against, stored
    /// as raw pointers because the generated code holds the context
    /// across calls. All five point at the borrows `run_chunk_native`
    /// received; they are only dereferenced inside a helper call, while
    /// no Rust reference created from them is live.
    pub(crate) struct HelperRefs<'a, M: LaneMemory> {
        pub(crate) prog: &'a CompiledVProg,
        pub(crate) st: *mut ExecScratch,
        pub(crate) exec: *mut VecExec,
        pub(crate) mem: *mut M,
        pub(crate) sink: *mut (dyn TraceSink + 'a),
        pub(crate) abort: Option<ChunkAbort>,
    }

    /// Executes one bytecode instruction through the interpreter — the
    /// fallback path for everything the encoder does not inline.
    /// Returns 0 on success; nonzero leaves the abort in
    /// [`HelperRefs::abort`] and makes the segment function return.
    pub(crate) extern "C" fn helper_instr<M: LaneMemory>(ctx: *mut NativeCtx, idx: u32) -> u32 {
        let refs = unsafe { &mut *((*ctx).payload as *mut HelperRefs<'_, M>) };
        let result = {
            let st = unsafe { &mut *refs.st };
            let exec = unsafe { &mut *refs.exec };
            let mem = unsafe { &mut *refs.mem };
            let sink = unsafe { &mut *refs.sink };
            refs.prog.exec_instr(idx as usize, st, exec, mem, sink)
        };
        match result {
            Ok(()) => 0,
            Err(abort) => {
                refs.abort = Some(abort);
                1
            }
        }
    }

    /// Flushes the µop templates `[lo, hi)` to the trace sink — the
    /// batched observation for a run of inline register ops.
    pub(crate) extern "C" fn helper_observe<M: LaneMemory>(ctx: *mut NativeCtx, lo: u32, hi: u32) {
        let refs = unsafe { &mut *((*ctx).payload as *mut HelperRefs<'_, M>) };
        let sink = unsafe { &mut *refs.sink };
        sink.observe_slice(&refs.prog.templates()[lo as usize..hi as usize]);
    }

    /// One straight-line run of bytecode instructions `[start, end)`
    /// compiled to a native function at byte offset `entry`.
    pub(crate) struct Segment {
        pub(crate) start: u32,
        pub(crate) end: u32,
        entry: u32,
    }

    /// The native-code tier of one compiled program: the executable
    /// pages plus the segment table the driver consults per pc.
    pub(crate) struct NativeCode {
        pages: ExecPages,
        segments: Vec<Segment>,
        /// Per-pc: segment index + 1 when a segment starts there, else 0.
        seg_at: Vec<u32>,
        inline_ops: usize,
        helper_ops: usize,
        /// The runtime vector length the lane loops were unrolled for;
        /// the code only runs when the ambient length matches.
        vl: usize,
    }

    impl NativeCode {
        /// Compiles every straight-line segment of `code` for runtime
        /// vector length `vl`, or `None` when there is nothing to gain
        /// (no segments) or a static bound (register-file displacement,
        /// code size, an unsupported `vl`) would not fit.
        pub(crate) fn build(code: &[Instr], vl: usize) -> Option<NativeCode> {
            if code.is_empty() || code.len() >= u32::MAX as usize {
                return None;
            }
            if !flexvec_isa::is_supported_vlen(vl) {
                return None;
            }
            if !code.iter().all(indices_encodable) {
                return None;
            }
            let mut asm = Asm::default();
            let mut segments: Vec<Segment> = Vec::new();
            let mut seg_at = vec![0u32; code.len()];
            let mut inline_ops = 0usize;
            let mut helper_ops = 0usize;
            let mut i = 0usize;
            while i < code.len() {
                if code[i].is_control() {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < code.len() && !code[i].is_control() {
                    i += 1;
                }
                let entry = u32::try_from(asm.here()).ok()?;
                compile_segment(
                    &mut asm,
                    code,
                    start,
                    i,
                    vl,
                    &mut inline_ops,
                    &mut helper_ops,
                );
                seg_at[start] = u32::try_from(segments.len()).ok()? + 1;
                segments.push(Segment {
                    start: start as u32,
                    end: i as u32,
                    entry,
                });
            }
            if segments.is_empty() {
                return None;
            }
            let pages = ExecPages::new(&asm.buf)?;
            Some(NativeCode {
                pages,
                segments,
                seg_at,
                inline_ops,
                helper_ops,
                vl,
            })
        }

        /// The segment starting exactly at `pc`, if any.
        #[inline]
        pub(crate) fn segment_at(&self, pc: usize) -> Option<&Segment> {
            match self.seg_at[pc] {
                0 => None,
                idx => {
                    let seg = &self.segments[(idx - 1) as usize];
                    debug_assert_eq!(seg.start as usize, pc);
                    Some(seg)
                }
            }
        }

        /// Calls a segment function.
        ///
        /// # Safety
        ///
        /// `ctx` must point at a fully-initialized [`NativeCtx`] whose
        /// register-file pointers cover every index the program uses
        /// and whose payload matches the helper thunks' type parameter.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn call(&self, seg: &Segment, ctx: *mut NativeCtx) -> u32 {
            let entry = self.pages.entry(seg.entry as usize);
            let f: extern "C" fn(*mut NativeCtx) -> u32 = core::mem::transmute(entry);
            f(ctx)
        }

        /// Number of compiled segments.
        pub(crate) fn num_segments(&self) -> usize {
            self.segments.len()
        }

        /// Bytes of emitted machine code (page-rounded mapping size).
        pub(crate) fn code_bytes(&self) -> usize {
            self.pages.len()
        }

        /// `(inline, helper)` instruction counts across all segments.
        pub(crate) fn op_mix(&self) -> (usize, usize) {
            (self.inline_ops, self.helper_ops)
        }

        /// The vector length this code was compiled for.
        pub(crate) fn vl(&self) -> usize {
            self.vl
        }
    }

    impl fmt::Debug for NativeCode {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("NativeCode")
                .field("vl", &self.vl)
                .field("segments", &self.segments.len())
                .field("inline_ops", &self.inline_ops)
                .field("helper_ops", &self.helper_ops)
                .field("code_bytes", &self.pages.len())
                .finish()
        }
    }

    /// Largest register index whose last-lane displacement still fits
    /// the disp32 addressing the encoder uses. Vector storage is always
    /// [`MAX_VLEN`] lanes wide regardless of the runtime length.
    const MAX_VREG: usize = (i32::MAX as usize / 8 - MAX_VLEN) / MAX_VLEN;
    const MAX_KREG: usize = i32::MAX as usize / 8 - 1;
    const MAX_VAR: usize = i32::MAX as usize / 8 - 1;

    /// Whether every register index an *inline* arm would bake into a
    /// displacement fits in disp32 form. Helper-path instructions
    /// always pass — they carry no baked displacements.
    fn indices_encodable(ins: &Instr) -> bool {
        match ins {
            Instr::Iota { dst, .. } | Instr::Splat { dst, .. } => *dst <= MAX_VREG,
            Instr::SplatVar { dst, var, .. } => *dst <= MAX_VREG && *var <= MAX_VAR,
            Instr::Bin { dst, a, b, .. } => *dst <= MAX_VREG && *a <= MAX_VREG && *b <= MAX_VREG,
            Instr::BinImm { dst, a, .. } => *dst <= MAX_VREG && *a <= MAX_VREG,
            Instr::Cmp {
                dst, mask, a, b, ..
            } => *dst <= MAX_KREG && *mask <= MAX_KREG && *a <= MAX_VREG && *b <= MAX_VREG,
            Instr::Blend {
                dst, mask, on, off, ..
            } => *dst <= MAX_VREG && *mask <= MAX_KREG && *on <= MAX_VREG && *off <= MAX_VREG,
            Instr::KMove { dst, src, .. } => *dst <= MAX_KREG && *src <= MAX_KREG,
            Instr::KConst { dst, .. } => *dst <= MAX_KREG,
            Instr::KAnd { dst, a, b, .. }
            | Instr::KAndNot { dst, a, b, .. }
            | Instr::KOr { dst, a, b, .. } => *dst <= MAX_KREG && *a <= MAX_KREG && *b <= MAX_KREG,
            _ => true,
        }
    }

    /// Byte displacement of lane `l` of vector register `r` in the flat
    /// register file (storage stride [`MAX_VLEN`], independent of the
    /// runtime length).
    fn voff(r: usize, l: usize) -> i32 {
        ((r * MAX_VLEN + l) * 8) as i32
    }

    /// Byte displacement of mask register `k` (masks are 64-bit words).
    fn koff(k: usize) -> i32 {
        (k * 8) as i32
    }

    /// The set-bits value of a full mask at width `vl`.
    fn full_bits(vl: usize) -> u64 {
        if vl >= 64 {
            u64::MAX
        } else {
            (1u64 << vl) - 1
        }
    }

    /// Byte displacement of scalar variable `v`.
    fn soff(v: usize) -> i32 {
        (v * 8) as i32
    }

    fn bin_alu(op: BinOp) -> Option<Alu> {
        match op {
            BinOp::Add => Some(Alu::Add),
            BinOp::Sub => Some(Alu::Sub),
            BinOp::Mul => Some(Alu::Imul),
            BinOp::And => Some(Alu::And),
            BinOp::Or => Some(Alu::Or),
            BinOp::Xor => Some(Alu::Xor),
            _ => None,
        }
    }

    fn cmp_cc(op: CmpOp) -> u8 {
        match op {
            CmpOp::Eq => CC_E,
            CmpOp::Ne => CC_NE,
            CmpOp::Lt => CC_L,
            CmpOp::Le => CC_LE,
            CmpOp::Gt => CC_G,
            CmpOp::Ge => CC_GE,
        }
    }

    /// `mov [vregs + dst*512 + l*8], rax` for every active lane — the
    /// common broadcast tail. Hidden lanes (`>= vl`) are never written,
    /// preserving the ISA's all-zero invariant for them.
    fn store_all_lanes(asm: &mut Asm, dst: usize, vl: usize) {
        for l in 0..vl {
            asm.store(RAX, R13, voff(dst, l));
        }
    }

    /// Emits inline machine code for `ins` when it is in the inline
    /// subset, returning the `[lo, hi)` µop-template range the caller
    /// owes the trace. `None` routes the instruction through the
    /// interpreter helper instead (nothing has been emitted).
    fn gen_inline(asm: &mut Asm, ins: &Instr, vl: usize) -> Option<(u32, u32)> {
        match ins {
            Instr::Iota { dst, t } => {
                let t = u32::try_from(*t).ok()?;
                for l in 0..vl {
                    asm.store_imm32(R13, voff(*dst, l), l as i32);
                }
                Some((t, t + 1))
            }
            Instr::Splat { dst, value, t } => {
                let t = u32::try_from(*t).ok()?;
                asm.mov_ri64(RAX, *value);
                store_all_lanes(asm, *dst, vl);
                Some((t, t + 1))
            }
            Instr::SplatVar { dst, var, t } => {
                let t = u32::try_from(*t).ok()?;
                asm.load(RAX, R15, soff(*var));
                store_all_lanes(asm, *dst, vl);
                Some((t, t + 1))
            }
            Instr::Bin { op, dst, a, b, t } => {
                let t = u32::try_from(*t).ok()?;
                if let Some(alu) = bin_alu(*op) {
                    for l in 0..vl {
                        asm.load(RAX, R13, voff(*a, l));
                        asm.alu_rm(alu, RAX, R13, voff(*b, l));
                        asm.store(RAX, R13, voff(*dst, l));
                    }
                } else if matches!(op, BinOp::Min | BinOp::Max) {
                    // min: keep b when a > b; max: keep b when a < b.
                    let cc = if *op == BinOp::Min { CC_G } else { CC_L };
                    for l in 0..vl {
                        asm.load(RAX, R13, voff(*a, l));
                        asm.load(RCX, R13, voff(*b, l));
                        asm.alu_rr(Alu::Cmp, RAX, RCX);
                        asm.cmovcc(cc, RAX, RCX);
                        asm.store(RAX, R13, voff(*dst, l));
                    }
                } else {
                    // Div/Rem (zero and overflow totalization) and the
                    // range-clamped shifts go through the interpreter.
                    return None;
                }
                Some((t, t + 1))
            }
            Instr::BinImm { op, dst, a, imm, t } => {
                let t = u32::try_from(*t).ok()?;
                let is_minmax = matches!(op, BinOp::Min | BinOp::Max);
                if bin_alu(*op).is_none() && !is_minmax {
                    return None;
                }
                asm.mov_ri64(RCX, *imm);
                if let Some(alu) = bin_alu(*op) {
                    for l in 0..vl {
                        asm.load(RAX, R13, voff(*a, l));
                        asm.alu_rr(alu, RAX, RCX);
                        asm.store(RAX, R13, voff(*dst, l));
                    }
                } else {
                    let cc = if *op == BinOp::Min { CC_G } else { CC_L };
                    for l in 0..vl {
                        asm.load(RAX, R13, voff(*a, l));
                        asm.alu_rr(Alu::Cmp, RAX, RCX);
                        asm.cmovcc(cc, RAX, RCX);
                        asm.store(RAX, R13, voff(*dst, l));
                    }
                }
                Some((t, t + 1))
            }
            Instr::Cmp {
                op,
                dst,
                mask,
                a,
                b,
                t,
            } => {
                let t = u32::try_from(*t).ok()?;
                let cc = cmp_cc(*op);
                // Accumulate the predicate bits in rdx (64-bit — lane
                // indices reach 63), then AND with the input mask:
                // vcmp's disabled lanes read as 0.
                asm.xor_rr32(RDX, RDX);
                for l in 0..vl {
                    asm.load(RAX, R13, voff(*a, l));
                    asm.alu_rm(Alu::Cmp, RAX, R13, voff(*b, l));
                    asm.setcc(cc, RAX);
                    asm.movzx_r32_r8(RAX, RAX);
                    if l > 0 {
                        asm.shl_r64_imm8(RAX, l as u8);
                    }
                    asm.alu_rr(Alu::Or, RDX, RAX);
                }
                asm.alu_rm(Alu::And, RDX, R14, koff(*mask));
                asm.store(RDX, R14, koff(*dst));
                Some((t, t + 1))
            }
            Instr::Blend {
                dst,
                mask,
                on,
                off,
                t,
            } => {
                let t = u32::try_from(*t).ok()?;
                asm.load(RCX, R14, koff(*mask));
                for l in 0..vl {
                    asm.load(RAX, R13, voff(*off, l));
                    asm.load(RDX, R13, voff(*on, l));
                    asm.bt_r64_imm8(RCX, l as u8);
                    asm.cmovcc(CC_B, RAX, RDX);
                    asm.store(RAX, R13, voff(*dst, l));
                }
                Some((t, t + 1))
            }
            Instr::KMove { dst, src, t } => {
                let t = u32::try_from(*t).ok()?;
                asm.load(RAX, R14, koff(*src));
                asm.store(RAX, R14, koff(*dst));
                Some((t, t + 1))
            }
            Instr::KConst { dst, bits, t } => {
                let t = u32::try_from(*t).ok()?;
                // Clip to the build-time width, exactly like the
                // interpreter's `Mask::from_bits` under the same vl.
                asm.mov_ri64(RAX, (bits & full_bits(vl)) as i64);
                asm.store(RAX, R14, koff(*dst));
                Some((t, t + 1))
            }
            Instr::KAnd { dst, a, b, t } => {
                let t = u32::try_from(*t).ok()?;
                asm.load(RAX, R14, koff(*a));
                asm.alu_rm(Alu::And, RAX, R14, koff(*b));
                asm.store(RAX, R14, koff(*dst));
                Some((t, t + 1))
            }
            Instr::KAndNot { dst, a, b, t } => {
                let t = u32::try_from(*t).ok()?;
                // a & !b: the complement's bits beyond `vl` are cleared
                // by the AND, because `a` never has them set.
                asm.load(RCX, R14, koff(*b));
                asm.not_r64(RCX);
                asm.load(RAX, R14, koff(*a));
                asm.alu_rr(Alu::And, RAX, RCX);
                asm.store(RAX, R14, koff(*dst));
                Some((t, t + 1))
            }
            Instr::KOr { dst, a, b, t } => {
                let t = u32::try_from(*t).ok()?;
                asm.load(RAX, R14, koff(*a));
                asm.alu_rm(Alu::Or, RAX, R14, koff(*b));
                asm.store(RAX, R14, koff(*dst));
                Some((t, t + 1))
            }
            // ExtractVar (journaled variable write), SelectLast,
            // Conflict, Kftm, KClearFrom, Reduce, Read, Write: helper.
            _ => None,
        }
    }

    /// Emits one segment function: prologue, body (inline ops +
    /// batched observes + helper calls), shared epilogue.
    #[allow(clippy::too_many_arguments)]
    fn compile_segment(
        asm: &mut Asm,
        code: &[Instr],
        start: usize,
        end: usize,
        vl: usize,
        inline_ops: &mut usize,
        helper_ops: &mut usize,
    ) {
        // SysV prologue: save the four callee-saved registers we use
        // and realign the stack so helper call sites sit on a 16-byte
        // boundary.
        asm.push_r64(RBX);
        asm.push_r64(R13);
        asm.push_r64(R14);
        asm.push_r64(R15);
        asm.sub_rsp_imm8(8);
        asm.mov_rr(RBX, RDI);
        asm.load(R13, RBX, CTX_VREGS);
        asm.load(R14, RBX, CTX_KREGS);
        asm.load(R15, RBX, CTX_VARS);

        let flush = |asm: &mut Asm, pend: &mut Option<(u32, u32)>| {
            if let Some((lo, hi)) = pend.take() {
                asm.mov_rr(RDI, RBX);
                asm.mov_ri32(RSI, lo);
                asm.mov_ri32(RDX, hi);
                asm.call_mem(RBX, CTX_HELPER_OBSERVE);
            }
        };

        let mut pend: Option<(u32, u32)> = None;
        let mut bail = Vec::new();
        for (idx, instr) in code.iter().enumerate().take(end).skip(start) {
            match gen_inline(asm, instr, vl) {
                Some((lo, hi)) => {
                    *inline_ops += 1;
                    pend = match pend {
                        // Template indices are allocated in instruction
                        // order, so consecutive inline ops extend the
                        // pending range; anything else flushes first.
                        Some((plo, phi)) if phi == lo => Some((plo, hi)),
                        other => {
                            let mut other = other;
                            flush(asm, &mut other);
                            Some((lo, hi))
                        }
                    };
                }
                None => {
                    *helper_ops += 1;
                    flush(asm, &mut pend);
                    asm.mov_rr(RDI, RBX);
                    asm.mov_ri32(RSI, idx as u32);
                    asm.call_mem(RBX, CTX_HELPER_INSTR);
                    asm.test_rr32(RAX, RAX);
                    bail.push(asm.jcc(CC_NE));
                }
            }
        }
        flush(asm, &mut pend);
        asm.xor_rr32(RAX, RAX);
        let done = asm.here();
        for site in bail {
            asm.patch(site, done);
        }
        asm.add_rsp_imm8(8);
        asm.pop_r64(R15);
        asm.pop_r64(R14);
        asm.pop_r64(R13);
        asm.pop_r64(RBX);
        asm.ret();
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn ctx_offsets_match_generated_code() {
            extern "C" fn hi(_: *mut NativeCtx, _: u32) -> u32 {
                0
            }
            extern "C" fn ho(_: *mut NativeCtx, _: u32, _: u32) {}
            let ctx = NativeCtx {
                vregs: core::ptr::null_mut(),
                kregs: core::ptr::null_mut(),
                vars: core::ptr::null_mut(),
                helper_instr: hi,
                helper_observe: ho,
                payload: core::ptr::null_mut(),
            };
            let base = &ctx as *const NativeCtx as usize;
            assert_eq!(&ctx.vregs as *const _ as usize - base, CTX_VREGS as usize);
            assert_eq!(&ctx.kregs as *const _ as usize - base, CTX_KREGS as usize);
            assert_eq!(&ctx.vars as *const _ as usize - base, CTX_VARS as usize);
            assert_eq!(
                &ctx.helper_instr as *const _ as usize - base,
                CTX_HELPER_INSTR as usize
            );
            assert_eq!(
                &ctx.helper_observe as *const _ as usize - base,
                CTX_HELPER_OBSERVE as usize
            );
        }

        #[test]
        fn register_files_are_flat() {
            // The displacement math relies on repr(transparent).
            assert_eq!(
                core::mem::size_of::<flexvec_isa::Vector>(),
                MAX_VLEN * core::mem::size_of::<i64>()
            );
            assert_eq!(core::mem::size_of::<flexvec_isa::Mask>(), 8);
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use stub::*;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod stub {
    use crate::compiled::Instr;

    /// Stub for targets without a JIT back end: never builds, so the
    /// compiled-bytecode tier keeps serving `Engine::Native` requests.
    #[derive(Debug)]
    pub(crate) struct NativeCode {}

    impl NativeCode {
        pub(crate) fn build(_code: &[Instr], _vl: usize) -> Option<NativeCode> {
            None
        }

        pub(crate) fn vl(&self) -> usize {
            0
        }

        pub(crate) fn num_segments(&self) -> usize {
            0
        }

        pub(crate) fn code_bytes(&self) -> usize {
            0
        }

        pub(crate) fn op_mix(&self) -> (usize, usize) {
            (0, 0)
        }
    }
}
