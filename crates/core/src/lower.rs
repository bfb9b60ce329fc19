//! FlexVec partial vector code generation (the paper's Section 4).
//!
//! [`vectorize`] turns an analyzed loop [`Program`] into a [`VProg`]. The
//! lowering walks the flattened statements in lexical order (the paper's
//! if-conversion Algorithm 1) maintaining the same predicate machinery as
//! Figure 4's handlers:
//!
//! * `k_loop` — the chunk's active lanes, corrected when an early exit
//!   fires (*early exit end-node* handler);
//! * per-`if` condition masks (`k_cur` management);
//! * for relaxed SCCs, a Vector Partitioning Loop driven by `k_todo`,
//!   with `k_stop` from either the re-evaluated update condition
//!   (*conditional update* handlers) or a hoisted `VPCONFLICTM` (*memory
//!   conflict* handlers), `k_safe` from `KFTM.INC`/`KFTM.EXC`, and scalar
//!   value propagation through `VPSLCTLAST`.
//!
//! Speculative loads become first-faulting instructions followed by a
//! [`VNode::FaultCheck`]; under [`SpecMode::Rtm`] they stay ordinary loads
//! and the VM's transaction runtime provides the rollback instead.

use std::collections::HashMap;

use flexvec_ir::affine::{classify_index, IndexForm};
use flexvec_ir::{ArraySym, CmpKind, Expr, NodeId, NodeKind, Program, VarId};

use crate::analysis::{analyze, FlexVecPlan, LoopAnalysis, Reduction, Verdict};
use crate::vprog::{KReg, SpecMode, VNode, VOp, VProg, VReg};

/// Which speculation mechanism the caller wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecRequest {
    /// First-faulting instructions when speculation is needed, none
    /// otherwise (the paper's primary configuration).
    Auto,
    /// Strip-mined restricted transactions with the given tile size
    /// (scalar iterations per transaction).
    Rtm {
        /// Scalar iterations per transaction.
        tile: u32,
    },
}

/// Which vectorizer produced the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorizedKind {
    /// The baseline (traditional) vectorizer sufficed.
    Traditional,
    /// FlexVec partial vectorization was required.
    FlexVec,
}

/// A successful vectorization.
#[derive(Clone, Debug)]
pub struct Vectorized {
    /// The generated vector program.
    pub vprog: VProg,
    /// The analysis it was generated from.
    pub analysis: LoopAnalysis,
    /// Which code generator ran.
    pub kind: VectorizedKind,
}

/// Why vectorization failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VectorizeError {
    /// The analysis rejected the loop.
    NotVectorizable(String),
    /// The analysis accepted it but this code generator cannot express it.
    Unsupported(String),
    /// Stores inside a VPL that also needs first-faulting speculation:
    /// refused under [`SpecRequest::Auto`], lowered under
    /// [`SpecRequest::Rtm`], whose transaction buffers the stores.
    RtmOnly,
}

impl core::fmt::Display for VectorizeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VectorizeError::NotVectorizable(r) => write!(f, "loop is not vectorizable: {r}"),
            VectorizeError::Unsupported(r) => write!(f, "unsupported by the code generator: {r}"),
            VectorizeError::RtmOnly => f.write_str(
                "unsupported by the code generator: stores inside a VPL that also needs \
                 first-faulting speculation; use the RTM code path for this loop",
            ),
        }
    }
}

impl std::error::Error for VectorizeError {}

/// Vectorizes a loop program: traditional codegen when the analysis says
/// the loop has no FlexVec-relevant dependences, FlexVec partial vector
/// code otherwise.
///
/// # Errors
///
/// [`VectorizeError::NotVectorizable`] if the analysis rejects the loop;
/// [`VectorizeError::Unsupported`] for accepted loops whose shape the
/// lowering cannot express (see the error text), and
/// [`VectorizeError::RtmOnly`] for one it can express only under RTM.
pub fn vectorize(program: &Program, spec: SpecRequest) -> Result<Vectorized, VectorizeError> {
    let analysis = analyze(program);
    vectorize_with(program, &analysis, spec)
}

/// Lowers an already analyzed loop under `spec`: only code generation
/// runs, the analysis (PDG construction + pattern detection) is the
/// caller's.
///
/// # Errors
///
/// Same contract as [`vectorize`]; note that the supported shape set
/// depends on `spec`: a loop refused with [`VectorizeError::RtmOnly`]
/// under `Auto` lowers under `Rtm`.
pub fn vectorize_with(
    program: &Program,
    analysis: &LoopAnalysis,
    spec: SpecRequest,
) -> Result<Vectorized, VectorizeError> {
    match &analysis.verdict {
        Verdict::NotVectorizable { reason } => Err(VectorizeError::NotVectorizable(reason.clone())),
        Verdict::Traditional { reductions } => {
            let mut vprog =
                Lowerer::new(program, analysis, None, reductions.clone(), spec).lower()?;
            crate::opt::optimize(&mut vprog);
            Ok(Vectorized {
                vprog,
                analysis: analysis.clone(),
                kind: VectorizedKind::Traditional,
            })
        }
        Verdict::FlexVec(plan) => {
            let plan = plan.clone();
            check_shape(analysis, &plan, spec)?;
            let reductions = plan.reductions.clone();
            let mut vprog =
                Lowerer::new(program, analysis, Some(plan), reductions, spec).lower()?;
            crate::opt::optimize(&mut vprog);
            Ok(Vectorized {
                vprog,
                analysis: analysis.clone(),
                kind: VectorizedKind::FlexVec,
            })
        }
    }
}

/// Shape restrictions of this lowering (documented deviations; each is an
/// `Unsupported` error, not silent wrong code).
fn check_shape(
    analysis: &LoopAnalysis,
    plan: &FlexVecPlan,
    spec: SpecRequest,
) -> Result<(), VectorizeError> {
    if let Some((lo, hi)) = plan.vpl_range {
        for (guard, brk) in &plan.early_exits {
            if guard.0 >= lo.0 && guard.0 <= hi.0 {
                return Err(VectorizeError::Unsupported(format!(
                    "early-exit guard {guard} lies inside the VPL range {lo}..{hi}; \
                     exits that depend on relaxed dependencies are not supported"
                )));
            }
            if brk.0 > hi.0 {
                return Err(VectorizeError::Unsupported(format!(
                    "break {brk} lexically after the VPL range {lo}..{hi}: the VPL \
                     would commit stores for lanes a later exit invalidates"
                )));
            }
        }
        // A reduction statement inside the VPL range would be lowered by
        // the VPL's ordinary-assignment path, silently dropping the
        // horizontal combine.
        for red in &plan.reductions {
            if red.node.0 >= lo.0 && red.node.0 <= hi.0 {
                return Err(VectorizeError::Unsupported(format!(
                    "reduction over {} lies inside the VPL range {lo}..{hi}",
                    red.node
                )));
            }
        }
        // FF fallback re-runs the chunk in scalar mode, so nothing may be
        // committed to memory before the last fault check. Fault checks
        // strictly before the VPL are fine (they run before any store);
        // only a speculative load *inside* the VPL conflicts with VPL
        // stores, because iteration 2's check would follow iteration 1's
        // store. Under RTM the loads lower as plain loads and the
        // transaction buffers the stores — a faulting tile rolls back and
        // re-runs in scalar mode — so the combination is only rejected on
        // the first-faulting path.
        let ff_in_or_after_vpl = plan.ff_nodes.iter().any(|n| n.0 >= lo.0);
        if ff_in_or_after_vpl && matches!(spec, SpecRequest::Auto) {
            let has_store_in_vpl = analysis.nodes.nodes[lo.0 as usize..=hi.0 as usize]
                .iter()
                .any(|n| !n.writes.is_empty());
            if has_store_in_vpl {
                return Err(VectorizeError::RtmOnly);
            }
        }
    }
    Ok(())
}

/// Per-variable vector state.
struct VarState {
    /// Per-lane current value.
    vec: VReg,
    /// Lanes assigned so far — allocated only for live-out scalars that
    /// need last-assigned-lane extraction (keeping it for every variable
    /// would blow the 8-register architectural mask budget; see the
    /// Section 3.7 pressure analysis).
    assigned: Option<KReg>,
    /// For VPL-updated scalars: the all-lanes broadcast of the value at
    /// the current partition's entry.
    broadcast: Option<VReg>,
    /// For VPL-updated scalars used after the VPL: the per-lane history
    /// view (`k_rem` selective broadcast target).
    hist: Option<VReg>,
}

struct PendingStore {
    mask: KReg,
    array: ArraySym,
    idx: VReg,
    src: VReg,
    unit: bool,
    position: NodeId,
}

struct Lowerer<'a> {
    program: &'a Program,
    analysis: &'a LoopAnalysis,
    plan: Option<FlexVecPlan>,
    reductions: Vec<Reduction>,
    spec: SpecRequest,

    next_v: u32,
    next_k: u32,
    frames: Vec<Vec<VNode>>,

    const_cache: HashMap<i64, VReg>,
    invariant_cache: HashMap<VarId, VReg>,
    vars: HashMap<VarId, VarState>,
    cond_masks: HashMap<(NodeId, bool), KReg>,
    /// Inside a VPL evaluation pass: per updated var, the evaluation view
    /// register for reads lexically after the def.
    upd_view: HashMap<VarId, VReg>,
    /// Reduction payloads: (reduction, element vector, corrected mask).
    red_state: Vec<(Reduction, VReg, KReg)>,
    pending_stores: Vec<PendingStore>,
    /// Whether any FF instruction was emitted.
    used_ff: bool,
    /// Index (into the node list) ranges: assigned vars in the body.
    assigned_vars: Vec<VarId>,
}

impl<'a> Lowerer<'a> {
    fn new(
        program: &'a Program,
        analysis: &'a LoopAnalysis,
        plan: Option<FlexVecPlan>,
        reductions: Vec<Reduction>,
        spec: SpecRequest,
    ) -> Self {
        let mut assigned_vars = Vec::new();
        for n in &analysis.nodes.nodes {
            for v in &n.defs {
                if !assigned_vars.contains(v) {
                    assigned_vars.push(*v);
                }
            }
        }
        Lowerer {
            program,
            analysis,
            plan,
            reductions,
            spec,
            next_v: 1, // VReg(0) is the induction vector
            next_k: 1, // KReg(0) is k_loop
            frames: vec![Vec::new()],
            const_cache: HashMap::new(),
            invariant_cache: HashMap::new(),
            vars: HashMap::new(),
            cond_masks: HashMap::new(),
            upd_view: HashMap::new(),
            red_state: Vec::new(),
            pending_stores: Vec::new(),
            used_ff: false,
            assigned_vars,
        }
    }

    fn vreg(&mut self) -> VReg {
        let r = VReg(self.next_v);
        self.next_v += 1;
        r
    }

    fn kreg(&mut self) -> KReg {
        let r = KReg(self.next_k);
        self.next_k += 1;
        r
    }

    fn emit(&mut self, op: VOp) {
        self.frames.last_mut().expect("frame").push(VNode::Op(op));
    }

    fn emit_node(&mut self, node: VNode) {
        self.frames.last_mut().expect("frame").push(node);
    }

    fn splat_const(&mut self, value: i64) -> VReg {
        if let Some(&r) = self.const_cache.get(&value) {
            return r;
        }
        let dst = self.vreg();
        self.emit(VOp::SplatConst { dst, value });
        self.const_cache.insert(value, dst);
        dst
    }

    fn is_updated_var(&self, v: VarId) -> bool {
        self.plan
            .as_ref()
            .is_some_and(|p| p.updated_vars.contains(&v))
    }

    fn is_reduction_var(&self, v: VarId) -> bool {
        self.reductions.iter().any(|r| r.var == v)
    }

    /// Base mask for FF loads: the non-speculative part of the current
    /// predicate (see Figure 4's speculative-load handler: "proceeds with
    /// if-conversion only if the current mask is non-speculative").
    fn spec_mode(&self) -> SpecMode {
        match self.spec {
            SpecRequest::Rtm { tile } => SpecMode::Rtm { tile },
            SpecRequest::Auto => {
                if self.used_ff {
                    SpecMode::FirstFaulting
                } else {
                    SpecMode::None
                }
            }
        }
    }

    // --- variable state ----------------------------------------------------

    /// Initializes the vector state of every variable at chunk entry.
    fn init_vars(&mut self) {
        let mut touched: Vec<VarId> = Vec::new();
        for n in &self.analysis.nodes.nodes {
            for v in n.defs.iter().chain(n.uses.iter()) {
                if *v != self.program.loop_.induction && !touched.contains(v) {
                    touched.push(*v);
                }
            }
        }
        for v in &self.program.live_out {
            if *v != self.program.loop_.induction && !touched.contains(v) {
                touched.push(*v);
            }
        }
        for v in touched {
            let vec = self.vreg();
            self.emit(VOp::SplatVar { dst: vec, var: v });
            // Extraction via the assigned mask is only needed for
            // live-out scalars handled by the generic path.
            let needs_assigned = self.program.live_out.contains(&v)
                && !self.is_updated_var(v)
                && !self.is_reduction_var(v);
            let assigned = if needs_assigned {
                let k = self.kreg();
                self.emit(VOp::KConst { dst: k, bits: 0 });
                Some(k)
            } else {
                None
            };
            let (broadcast, hist) = if self.is_updated_var(v) {
                let b = self.vreg();
                self.emit(VOp::SplatVar { dst: b, var: v });
                let h = self.vreg();
                self.emit(VOp::SplatVar { dst: h, var: v });
                (Some(b), Some(h))
            } else {
                (None, None)
            };
            self.vars.insert(
                v,
                VarState {
                    vec,
                    assigned,
                    broadcast,
                    hist,
                },
            );
        }
    }

    /// Reads a variable's vector value at the current program point.
    /// `in_vpl` selects the broadcast view for VPL-updated scalars;
    /// `post_vpl` selects the per-lane history view.
    fn read_var(&mut self, v: VarId, in_vpl: bool, post_vpl: bool) -> VReg {
        if v == self.program.loop_.induction {
            return VProg::IV;
        }
        if let Some(state) = self.vars.get(&v) {
            if self.is_updated_var(v) {
                if post_vpl {
                    return state.hist.expect("updated var has hist");
                }
                if in_vpl {
                    // Reads lexically after the def inside a VPL see the
                    // evaluation view (new value on fired lanes).
                    if let Some(&view) = self.upd_view.get(&v) {
                        return view;
                    }
                }
                return state.broadcast.expect("updated var has broadcast");
            }
            return state.vec;
        }
        // Loop-invariant live-in: broadcast once.
        if let Some(&r) = self.invariant_cache.get(&v) {
            return r;
        }
        let dst = self.vreg();
        self.emit(VOp::SplatVar { dst, var: v });
        self.invariant_cache.insert(v, dst);
        dst
    }

    // --- expression lowering -----------------------------------------------

    /// Lowers an expression to a vector register. `mask` predicates the
    /// memory reads; `nonspec_mask` is the widest non-speculative mask at
    /// this point (used as the write mask of first-faulting loads).
    #[allow(clippy::too_many_arguments)]
    fn lower_expr(
        &mut self,
        e: &Expr,
        mask: KReg,
        nonspec_mask: KReg,
        ff: bool,
        in_vpl: bool,
        post_vpl: bool,
    ) -> Result<VReg, VectorizeError> {
        Ok(match e {
            Expr::Const(v) => self.splat_const(*v),
            Expr::Var(v) => self.read_var(*v, in_vpl, post_vpl),
            Expr::Load { array, index } => {
                let idx = self.lower_expr(index, mask, nonspec_mask, ff, in_vpl, post_vpl)?;
                let unit = self.is_unit_stride(index);
                let dst = self.vreg();
                if ff && matches!(self.spec, SpecRequest::Auto) {
                    // The mask may include stale-guard lanes, but the VPL
                    // only commits lanes whose guard was evaluated with
                    // the correct (propagated) scalar value, so for every
                    // committed lane this mask is architecturally exact.
                    // Stale-enabled lanes that fault are absorbed by the
                    // first-faulting clip + scalar fallback.
                    let out_mask = self.kreg();
                    self.used_ff = true;
                    self.emit(VOp::MemRead {
                        dst,
                        mask,
                        array: *array,
                        idx,
                        unit,
                        first_faulting: true,
                        out_mask: Some(out_mask),
                    });
                    self.emit_node(VNode::FaultCheck {
                        got: out_mask,
                        want: mask,
                    });
                } else {
                    // Regular load; under RTM the transaction runtime
                    // absorbs faults of stale-enabled lanes.
                    self.emit(VOp::MemRead {
                        dst,
                        mask,
                        array: *array,
                        idx,
                        unit,
                        first_faulting: false,
                        out_mask: None,
                    });
                }
                dst
            }
            Expr::Bin { op, lhs, rhs } => {
                let a = self.lower_expr(lhs, mask, nonspec_mask, ff, in_vpl, post_vpl)?;
                if let Expr::Const(imm) = **rhs {
                    let dst = self.vreg();
                    self.emit(VOp::BinImm {
                        op: *op,
                        dst,
                        a,
                        imm,
                    });
                    dst
                } else {
                    let b = self.lower_expr(rhs, mask, nonspec_mask, ff, in_vpl, post_vpl)?;
                    let dst = self.vreg();
                    self.emit(VOp::Bin { op: *op, dst, a, b });
                    dst
                }
            }
            Expr::Cmp { .. } | Expr::Not(_) => {
                // Comparison as a value: materialize 0/1 via blend.
                let k = self.lower_cond(e, mask, nonspec_mask, ff, in_vpl, post_vpl)?;
                let one = self.splat_const(1);
                let zero = self.splat_const(0);
                let dst = self.vreg();
                self.emit(VOp::Blend {
                    dst,
                    mask: k,
                    on: one,
                    off: zero,
                });
                dst
            }
        })
    }

    /// Lowers a boolean expression to a mask under `mask`.
    fn lower_cond(
        &mut self,
        e: &Expr,
        mask: KReg,
        nonspec_mask: KReg,
        ff: bool,
        in_vpl: bool,
        post_vpl: bool,
    ) -> Result<KReg, VectorizeError> {
        Ok(match e {
            Expr::Cmp { op, lhs, rhs } => {
                let a = self.lower_expr(lhs, mask, nonspec_mask, ff, in_vpl, post_vpl)?;
                let b = self.lower_expr(rhs, mask, nonspec_mask, ff, in_vpl, post_vpl)?;
                let dst = self.kreg();
                self.emit(VOp::Cmp {
                    pred: *op,
                    dst,
                    mask,
                    a,
                    b,
                });
                dst
            }
            Expr::Not(inner) => {
                let k = self.lower_cond(inner, mask, nonspec_mask, ff, in_vpl, post_vpl)?;
                let dst = self.kreg();
                self.emit(VOp::KAndNot { dst, a: mask, b: k });
                dst
            }
            other => {
                let v = self.lower_expr(other, mask, nonspec_mask, ff, in_vpl, post_vpl)?;
                let zero = self.splat_const(0);
                let dst = self.kreg();
                self.emit(VOp::Cmp {
                    pred: CmpKind::Ne,
                    dst,
                    mask,
                    a: v,
                    b: zero,
                });
                dst
            }
        })
    }

    fn is_unit_stride(&self, index: &Expr) -> bool {
        match classify_index(index, self.program.loop_.induction, &self.assigned_vars) {
            IndexForm::Affine(a) => a.scale == 0 || a.scale == 1,
            _ => false,
        }
    }

    // --- the main walk -----------------------------------------------------

    fn lower(mut self) -> Result<VProg, VectorizeError> {
        self.init_vars();

        let node_count = self.analysis.nodes.len();
        let vpl_range = self.plan.as_ref().and_then(|p| p.vpl_range);
        let mut i = 0usize;
        // k_base: the current "loop predicate" for top-level statements.
        let mut k_base = VProg::K_LOOP;
        // Whether any break has already been processed (affects store
        // deferral decisions before it).
        let future_breaks: Vec<NodeId> = self.analysis.nodes.breaks();

        while i < node_count {
            let id = NodeId(i as u32);
            if let Some((lo, hi)) = vpl_range {
                if id == lo {
                    self.flush_pending_stores();
                    k_base = self.lower_vpl(lo, hi, k_base)?;
                    i = hi.0 as usize + 1;
                    continue;
                }
            }
            let post_vpl = vpl_range.is_some_and(|(_, hi)| id.0 > hi.0);
            k_base = self.lower_node(id, k_base, false, post_vpl, &future_breaks)?;
            i += 1;
        }
        self.flush_pending_stores();
        self.extract_live_values(k_base)?;

        let spec_mode = self.spec_mode();
        let body = self.frames.pop().expect("root frame");
        assert!(self.frames.is_empty(), "unbalanced frames");
        let vprog = VProg {
            name: self.program.name.clone(),
            body,
            num_vregs: self.next_v,
            num_kregs: self.next_k,
            spec_mode,
            max_vl: self.analysis.max_vl,
        };
        vprog
            .validate_speculation_safety()
            .map_err(VectorizeError::Unsupported)?;
        Ok(vprog)
    }

    /// The predicate of `id` given the base mask: base ∧ each condition on
    /// its control chain.
    fn node_mask(&mut self, id: NodeId, k_base: KReg, skip_stale: bool) -> KReg {
        let chain = self.analysis.nodes.control_chain(id);
        let mut acc = k_base;
        // Outermost conditions first so caching composes naturally.
        for (cond, polarity) in chain.into_iter().rev() {
            if skip_stale && self.cond_is_stale(cond) {
                continue;
            }
            let Some(&k_cond) = self.cond_masks.get(&(cond, polarity)) else {
                // Condition mask not materialized (can happen for the
                // negative branch): derive it.
                let k_true = *self
                    .cond_masks
                    .get(&(cond, true))
                    .expect("condition lowered before its children");
                let dst = self.kreg();
                self.emit(VOp::KAndNot {
                    dst,
                    a: acc,
                    b: k_true,
                });
                self.cond_masks.insert((cond, false), dst);
                acc = dst;
                continue;
            };
            let dst = self.kreg();
            self.emit(VOp::KAnd {
                dst,
                a: acc,
                b: k_cond,
            });
            acc = dst;
        }
        acc
    }

    /// Whether a condition's value may be computed from a stale scalar
    /// (i.e. it is control flow the FlexVec relaxation made speculative).
    fn cond_is_stale(&self, cond: NodeId) -> bool {
        let Some(plan) = &self.plan else {
            return false;
        };
        let uses = &self.analysis.nodes.node(cond).uses;
        // Direct or transitive use of an updated var: reuse the analysis'
        // marking — a condition is stale iff some FF node is controlled by
        // it, or it directly reads an updated var.
        uses.iter().any(|u| plan.updated_vars.contains(u))
            || plan.ff_nodes.iter().any(|n| {
                self.analysis
                    .nodes
                    .control_chain(*n)
                    .iter()
                    .any(|(c, _)| *c == cond)
            })
    }

    fn node_is_ff(&self, id: NodeId) -> bool {
        self.plan.as_ref().is_some_and(|p| p.ff_nodes.contains(&id))
    }

    /// Lowers one statement node. Returns the (possibly updated) base
    /// mask — early exits shrink it.
    fn lower_node(
        &mut self,
        id: NodeId,
        k_base: KReg,
        in_vpl: bool,
        post_vpl: bool,
        future_breaks: &[NodeId],
    ) -> Result<KReg, VectorizeError> {
        let node = self.analysis.nodes.node(id).clone();
        let ff = self.node_is_ff(id);
        match &node.kind {
            NodeKind::IfCond { cond } => {
                let mask = self.node_mask(id, k_base, false);
                let nonspec = mask;
                let k_true = self.lower_cond(cond, mask, nonspec, ff, in_vpl, post_vpl)?;
                self.cond_masks.insert((id, true), k_true);
                Ok(k_base)
            }
            NodeKind::Assign { var, value } => {
                let mask = self.node_mask(id, k_base, false);
                let nonspec = mask;
                if self.is_reduction_var(*var) {
                    let red = self
                        .reductions
                        .iter()
                        .find(|r| r.var == *var)
                        .expect("reduction var")
                        .clone();
                    let elem = self.reduction_elem(&red, value)?;
                    let elem_vec = self.lower_expr(&elem, mask, nonspec, ff, in_vpl, post_vpl)?;
                    let mask_copy = self.kreg();
                    self.emit(VOp::KMove {
                        dst: mask_copy,
                        src: mask,
                    });
                    self.red_state.push((red, elem_vec, mask_copy));
                    return Ok(k_base);
                }
                let rhs = self.lower_expr(value, mask, nonspec, ff, in_vpl, post_vpl)?;
                let state = self.vars.get(var).expect("assigned var initialized");
                let (vec, assigned) = (state.vec, state.assigned);
                self.emit(VOp::Blend {
                    dst: vec,
                    mask,
                    on: rhs,
                    off: vec,
                });
                if let Some(assigned) = assigned {
                    self.emit(VOp::KOr {
                        dst: assigned,
                        a: assigned,
                        b: mask,
                    });
                }
                Ok(k_base)
            }
            NodeKind::Store {
                array,
                index,
                value,
            } => {
                let mask = self.node_mask(id, k_base, false);
                let nonspec = mask;
                let idx = self.lower_expr(index, mask, nonspec, ff, in_vpl, post_vpl)?;
                let src = self.lower_expr(value, mask, nonspec, ff, in_vpl, post_vpl)?;
                let unit = self.is_unit_stride(index);
                let has_future_break = future_breaks.iter().any(|b| b.0 > id.0);
                if has_future_break && !in_vpl {
                    self.check_no_reader_after(id, *array)?;
                    // Defer: the commit mask must exclude lanes a later
                    // exit invalidates.
                    let mask_copy = self.kreg();
                    self.emit(VOp::KMove {
                        dst: mask_copy,
                        src: mask,
                    });
                    self.pending_stores.push(PendingStore {
                        mask: mask_copy,
                        array: *array,
                        idx,
                        src,
                        unit,
                        position: id,
                    });
                } else {
                    self.emit(VOp::MemWrite {
                        mask,
                        array: *array,
                        idx,
                        src,
                        unit,
                    });
                }
                Ok(k_base)
            }
            NodeKind::Break => {
                // Early exit start/end-node handlers: lanes at and after
                // the first exiting lane stop participating.
                let k_exit = self.node_mask(id, k_base, false);
                // k_thru: lanes up to and including the first exit lane
                // (live-outs of the exiting iteration are valid).
                let k_thru = self.kreg();
                self.emit(VOp::Kftm {
                    dst: k_thru,
                    enabled: k_base,
                    stop: k_exit,
                    inclusive: true,
                });
                // k_after: lanes strictly before the first exit lane.
                let k_after = self.kreg();
                self.emit(VOp::KClearFrom {
                    dst: k_after,
                    src: k_base,
                    stop: k_exit,
                });
                // Correct pending stores and assignment masks.
                let pending_masks: Vec<KReg> = self.pending_stores.iter().map(|p| p.mask).collect();
                for m in pending_masks {
                    self.emit(VOp::KAnd {
                        dst: m,
                        a: m,
                        b: k_thru,
                    });
                }
                let var_masks: Vec<KReg> = self.vars.values().filter_map(|s| s.assigned).collect();
                for m in var_masks {
                    self.emit(VOp::KAnd {
                        dst: m,
                        a: m,
                        b: k_thru,
                    });
                }
                let red_masks: Vec<KReg> = self.red_state.iter().map(|(_, _, m)| *m).collect();
                for m in red_masks {
                    self.emit(VOp::KAnd {
                        dst: m,
                        a: m,
                        b: k_thru,
                    });
                }
                self.emit_node(VNode::BreakIf { mask: k_exit });
                Ok(k_after)
            }
        }
    }

    /// For `v = v op e` / `v = e op v`, returns `e`.
    fn reduction_elem(&self, red: &Reduction, value: &Expr) -> Result<Expr, VectorizeError> {
        let Expr::Bin { lhs, rhs, .. } = value else {
            return Err(VectorizeError::Unsupported("malformed reduction".into()));
        };
        match (&**lhs, &**rhs) {
            (Expr::Var(x), other) if *x == red.var => Ok(other.clone()),
            (other, Expr::Var(x)) if *x == red.var => Ok(other.clone()),
            _ => Err(VectorizeError::Unsupported("malformed reduction".into())),
        }
    }

    /// Rejects deferral when a later node reads the stored array (the
    /// deferred store would break a same-iteration RAW).
    fn check_no_reader_after(&self, store: NodeId, array: ArraySym) -> Result<(), VectorizeError> {
        for n in &self.analysis.nodes.nodes {
            if n.id.0 > store.0 && n.reads.iter().any(|(a, _)| *a == array) {
                return Err(VectorizeError::Unsupported(format!(
                    "store to {} at {store} must be deferred past a break but node {} \
                     reads the array in the same iteration",
                    self.program.array_name(array),
                    n.id
                )));
            }
        }
        Ok(())
    }

    fn flush_pending_stores(&mut self) {
        let pending = std::mem::take(&mut self.pending_stores);
        for p in pending {
            let _ = p.position;
            self.emit(VOp::MemWrite {
                mask: p.mask,
                array: p.array,
                idx: p.idx,
                src: p.src,
                unit: p.unit,
            });
        }
    }

    // --- the Vector Partitioning Loop ---------------------------------------

    /// Lowers nodes `lo..=hi` inside a VPL driven by `k_todo`, starting
    /// from base mask `k_base`. Returns the base mask for the code after
    /// the VPL.
    ///
    /// The body is emitted in two lexical passes that execute on every
    /// runtime iteration of the VPL:
    ///
    /// * **Pass A (evaluate under `k_todo`)** computes condition masks,
    ///   ordinary per-lane assignments (their values self-heal on later
    ///   iterations — a lane's final write happens in the iteration that
    ///   commits it), load values, and for each conditional update the
    ///   candidate value and fire mask. Reads of an updated scalar after
    ///   its def see the *evaluation view* `blend(fire, candidate,
    ///   broadcast)`, which is exact for the lanes the partition commits.
    /// * **Pass B (commit under `k_safe`)** derives `k_safe` with
    ///   `KFTM.INC` (updates) and `KFTM.EXC` (memory conflicts), then
    ///   commits stores, `k_assigned` masks, the `VPSLCTLAST` broadcast
    ///   of each updated scalar, and the history view used by post-VPL
    ///   statements.
    fn lower_vpl(&mut self, lo: NodeId, hi: NodeId, k_base: KReg) -> Result<KReg, VectorizeError> {
        let plan = self.plan.clone().expect("VPL requires a plan");

        // k_todo := current base lanes.
        let k_todo = self.kreg();
        self.emit(VOp::KMove {
            dst: k_todo,
            src: k_base,
        });

        // Memory-conflict stop mask: VPCONFLICTM hoisted out of the VPL
        // (loop-invariant addresses — Figure 7(e)'s LICM note).
        let mut k_stop_mem: Option<KReg> = None;
        for check in &plan.conflict_checks {
            let store_idx =
                self.lower_expr(&check.store_index, k_base, k_base, false, false, false)?;
            let load_idx =
                self.lower_expr(&check.load_index, k_base, k_base, false, false, false)?;
            let raw = self.kreg();
            self.emit(VOp::Conflict {
                dst: raw,
                enabled: k_base,
                a: load_idx,
                b: store_idx,
            });
            k_stop_mem = Some(match k_stop_mem {
                None => raw,
                Some(prev) => {
                    let merged = self.kreg();
                    self.emit(VOp::KOr {
                        dst: merged,
                        a: prev,
                        b: raw,
                    });
                    merged
                }
            });
        }

        // --- VPL body --------------------------------------------------
        self.frames.push(Vec::new());
        // Condition masks from outside are stale inside (updated scalars
        // change them); scope the cache to the VPL.
        let saved_cond_masks = std::mem::take(&mut self.cond_masks);

        // Pass A: evaluate in lexical order under k_todo.
        struct UpdEval {
            rhs: VReg,
            fire: KReg,
        }
        struct StoreEval {
            idx: VReg,
            src: VReg,
        }
        let mut upd_evals: HashMap<NodeId, UpdEval> = HashMap::new();
        let mut store_evals: HashMap<NodeId, StoreEval> = HashMap::new();
        let mut ord_masks: HashMap<NodeId, KReg> = HashMap::new();
        let mut k_stop_upd: Option<KReg> = None;

        for idx in lo.0..=hi.0 {
            let id = NodeId(idx);
            let node = self.analysis.nodes.node(id).clone();
            let ff = self.node_is_ff(id);
            match &node.kind {
                NodeKind::IfCond { cond } => {
                    let mask = self.node_mask(id, k_todo, false);
                    let nonspec = mask;
                    let k_true = self.lower_cond(cond, mask, nonspec, ff, true, false)?;
                    self.cond_masks.insert((id, true), k_true);
                }
                NodeKind::Assign { var, value } if plan.updated_vars.contains(var) => {
                    let fire = self.node_mask(id, k_todo, false);
                    let rhs = self.lower_expr(value, fire, fire, ff, true, false)?;
                    // Evaluation view for later statements in this pass.
                    let bcast = self.vars[var].broadcast.expect("broadcast");
                    let prev_view = self.upd_view.get(var).copied().unwrap_or(bcast);
                    let view = self.vreg();
                    self.emit(VOp::Blend {
                        dst: view,
                        mask: fire,
                        on: rhs,
                        off: prev_view,
                    });
                    self.upd_view.insert(*var, view);
                    upd_evals.insert(id, UpdEval { rhs, fire });
                    k_stop_upd = Some(match k_stop_upd {
                        None => fire,
                        Some(prev) => {
                            let merged = self.kreg();
                            self.emit(VOp::KOr {
                                dst: merged,
                                a: prev,
                                b: fire,
                            });
                            merged
                        }
                    });
                }
                NodeKind::Assign { var, value } => {
                    let mask = self.node_mask(id, k_todo, false);
                    let nonspec = mask;
                    let rhs = self.lower_expr(value, mask, nonspec, ff, true, false)?;
                    let state = self.vars.get(var).expect("assigned var state");
                    let vec = state.vec;
                    self.emit(VOp::Blend {
                        dst: vec,
                        mask,
                        on: rhs,
                        off: vec,
                    });
                    ord_masks.insert(id, mask);
                }
                NodeKind::Store { index, value, .. } => {
                    let mask = self.node_mask(id, k_todo, false);
                    let nonspec = mask;
                    let idx_reg = self.lower_expr(index, mask, nonspec, ff, true, false)?;
                    let src = self.lower_expr(value, mask, nonspec, ff, true, false)?;
                    store_evals.insert(id, StoreEval { idx: idx_reg, src });
                }
                NodeKind::Break => {
                    return Err(VectorizeError::Unsupported(
                        "break inside a VPL range".to_owned(),
                    ));
                }
            }
        }

        // k_safe = k_todo ∧ KFTM.INC(k_todo, k_stop_upd)
        //                 ∧ KFTM.EXC(k_todo, k_stop_mem ∧ k_todo).
        let mut k_safe = k_todo;
        if let Some(stop) = k_stop_upd {
            let dst = self.kreg();
            self.emit(VOp::Kftm {
                dst,
                enabled: k_todo,
                stop,
                inclusive: true,
            });
            k_safe = dst;
        }
        if let Some(stop) = k_stop_mem {
            let masked = self.kreg();
            self.emit(VOp::KAnd {
                dst: masked,
                a: stop,
                b: k_todo,
            });
            let dst = self.kreg();
            self.emit(VOp::Kftm {
                dst,
                enabled: k_todo,
                stop: masked,
                inclusive: false,
            });
            if k_safe == k_todo {
                k_safe = dst;
            } else {
                let merged = self.kreg();
                self.emit(VOp::KAnd {
                    dst: merged,
                    a: k_safe,
                    b: dst,
                });
                k_safe = merged;
            }
        }

        // Pass B: commit in lexical order under k_safe.
        for idx in lo.0..=hi.0 {
            let id = NodeId(idx);
            let node = self.analysis.nodes.node(id).clone();
            match &node.kind {
                NodeKind::IfCond { .. } | NodeKind::Break => {}
                NodeKind::Assign { var, .. } if plan.updated_vars.contains(var) => {
                    let UpdEval { rhs, fire } = upd_evals[&id];
                    let commit = self.kreg();
                    self.emit(VOp::KAnd {
                        dst: commit,
                        a: fire,
                        b: k_safe,
                    });
                    let state = self.vars.get(var).expect("updated var state");
                    let (bcast, hist) = (
                        state.broadcast.expect("broadcast"),
                        state.hist.expect("hist"),
                    );
                    // Per-lane merged view: the updated value where the
                    // commit fired, the partition-entry value elsewhere —
                    // so an empty commit mask re-broadcasts the old value
                    // (the VPSLCTLAST last-lane convention).
                    let merged = self.vreg();
                    self.emit(VOp::Blend {
                        dst: merged,
                        mask: commit,
                        on: rhs,
                        off: bcast,
                    });
                    // History view for post-VPL statements: committed
                    // lanes take their post-iteration value.
                    self.emit(VOp::Blend {
                        dst: hist,
                        mask: k_safe,
                        on: merged,
                        off: hist,
                    });
                    // Scalar value propagation to the next partition.
                    self.emit(VOp::SelectLast {
                        dst: bcast,
                        mask: commit,
                        src: merged,
                    });
                }
                NodeKind::Assign { var, .. } => {
                    if let Some(assigned) = self.vars[var].assigned {
                        let mask = ord_masks[&id];
                        let commit = self.kreg();
                        self.emit(VOp::KAnd {
                            dst: commit,
                            a: mask,
                            b: k_safe,
                        });
                        self.emit(VOp::KOr {
                            dst: assigned,
                            a: assigned,
                            b: commit,
                        });
                    }
                }
                NodeKind::Store { array, index, .. } => {
                    let StoreEval { idx: idx_reg, src } = store_evals[&id];
                    let mask = self.node_mask(id, k_safe, false);
                    let unit = self.is_unit_stride(index);
                    self.emit(VOp::MemWrite {
                        mask,
                        array: *array,
                        idx: idx_reg,
                        src,
                        unit,
                    });
                }
            }
        }

        // k_todo -= k_safe; repeat while any lane remains.
        self.emit(VOp::KAndNot {
            dst: k_todo,
            a: k_todo,
            b: k_safe,
        });

        let body = self.frames.pop().expect("vpl frame");
        self.emit_node(VNode::Vpl {
            body,
            repeat_if: k_todo,
        });
        self.cond_masks = saved_cond_masks;
        self.upd_view.clear();
        Ok(k_base)
    }

    // --- chunk epilogue ------------------------------------------------------

    /// Emits live-out / cross-chunk scalar extraction.
    fn extract_live_values(&mut self, k_valid: KReg) -> Result<(), VectorizeError> {
        // Reductions: horizontal combine with the running scalar.
        let red_state = std::mem::take(&mut self.red_state);
        for (red, elem, mask) in red_state {
            let reduced = self.vreg();
            self.emit(VOp::Reduce {
                op: red.op,
                dst: reduced,
                mask,
                src: elem,
            });
            let acc = self.vreg();
            self.emit(VOp::SplatVar {
                dst: acc,
                var: red.var,
            });
            let combined = self.vreg();
            self.emit(VOp::Bin {
                op: red.op,
                dst: combined,
                a: reduced,
                b: acc,
            });
            self.emit(VOp::ExtractVar {
                var: red.var,
                src: combined,
                lane: 0,
            });
        }

        // Updated scalars: the broadcast holds the final value.
        let updated: Vec<VarId> = self
            .plan
            .as_ref()
            .map(|p| p.updated_vars.clone())
            .unwrap_or_default();
        for v in &updated {
            let b = self.vars[v].broadcast.expect("broadcast");
            self.emit(VOp::ExtractVar {
                var: *v,
                src: b,
                lane: 0,
            });
        }

        // Other assigned vars that are live-out (or feed later chunks):
        // value at the last valid assigned lane.
        let vars: Vec<(VarId, VReg, Option<KReg>)> = self
            .vars
            .iter()
            .map(|(v, s)| (*v, s.vec, s.assigned))
            .collect();
        for (v, vec, assigned) in vars {
            if updated.contains(&v) || self.is_reduction_var(v) {
                continue;
            }
            let Some(assigned) = assigned else {
                continue;
            };
            // The assigned mask was already corrected at each break (ANDed
            // with k_thru), so it is exactly the set of lanes whose
            // assignment architecturally happened.
            let k = assigned;
            let _ = k_valid;
            // Lanes outside k may hold speculative values (assignments
            // evaluated past a later exit), so blend the chunk-entry value
            // back in before the select: an empty mask then extracts the
            // old scalar via VPSLCTLAST's last-lane convention.
            let entry = self.vreg();
            self.emit(VOp::SplatVar { dst: entry, var: v });
            let merged = self.vreg();
            self.emit(VOp::Blend {
                dst: merged,
                mask: k,
                on: vec,
                off: entry,
            });
            let last = self.vreg();
            self.emit(VOp::SelectLast {
                dst: last,
                mask: k,
                src: merged,
            });
            self.emit(VOp::ExtractVar {
                var: v,
                src: last,
                lane: 0,
            });
        }
        Ok(())
    }
}
