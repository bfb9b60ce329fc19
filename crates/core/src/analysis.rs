//! FlexVec loop analysis: pattern detection and SCC relaxation.
//!
//! The analysis module "removes cycles based on its vector partitioning
//! rules [and] instruments nodes in the IR with information (tags) that
//! enables [the] vectorizer to place patch up code or a vector
//! partitioning loop around statements within the relaxed SCCs" (paper
//! Section 4). Concretely, for each loop we:
//!
//! 1. Build the PDG and find its cyclic SCCs.
//! 2. Decide whether a *traditional* vectorizer could handle the loop
//!    (no blocking carried dependences, modulo ignorable anti/output
//!    dependences and recognizable reduction idioms).
//! 3. Otherwise, try to relax exactly the edge classes FlexVec supports:
//!    backward control arcs from `break` guards (early termination),
//!    loop-carried flow through conditionally updated scalars
//!    (conditional scalar update), and dynamic memory dependences
//!    (runtime memory conflicts).
//! 4. Re-run SCC detection with the relaxed edges removed; if cycles
//!    remain the loop is rejected, otherwise emit a [`FlexVecPlan`]
//!    telling the code generator where the VPL goes, which scalars need
//!    `VPSLCTLAST` propagation, which loads need first-faulting
//!    protection, and which address pairs need `VPCONFLICTM` checks.

use flexvec_ir::{
    cyclic_sccs, ArraySym, BinOp, DepEdge, DepKind, Expr, LoopNodes, MemDepKind, NodeId, NodeKind,
    Pdg, Program, VarId,
};

/// Carried memory dependences at a distance of at least one full vector
/// cannot bite within a chunk. Classification is anchored at the default
/// width (16 lanes) so verdicts are stable across runs; [`width_ceiling`]
/// separately records the widest runtime `vl` those distances still cover.
const VLEN_DISTANCE_SAFE: u64 = flexvec_isa::DEFAULT_VLEN as u64;

/// A recognized unconditional reduction (`v = v op expr` at top level,
/// with no other use of `v` in the loop): traditional vectorizers handle
/// these by idiom recognition (paper Section 3, "idiom recognition is used
/// to identify SCCs that are recurrences").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reduction {
    /// The reduction variable.
    pub var: VarId,
    /// The defining statement.
    pub node: NodeId,
    /// The combining operator.
    pub op: BinOp,
}

/// One detected FlexVec pattern instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternInstance {
    /// Early loop termination: `brk` guarded by `guard`.
    EarlyTermination {
        /// The `if` condition immediately dominating the exit.
        guard: NodeId,
        /// The `break` statement.
        brk: NodeId,
    },
    /// Conditional scalar update of `var` at `def`.
    ConditionalUpdate {
        /// The updated scalar.
        var: VarId,
        /// The (conditional) defining statement.
        def: NodeId,
    },
    /// Runtime memory conflict on `array` between `store` and `load`.
    MemoryConflict {
        /// The array with dynamic accesses.
        array: ArraySym,
        /// The storing statement.
        store: NodeId,
        /// The loading statement.
        load: NodeId,
    },
}

/// An address pair the code generator must guard with `VPCONFLICTM`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictCheck {
    /// The array both accesses touch.
    pub array: ArraySym,
    /// The storing node.
    pub store: NodeId,
    /// The loading node.
    pub load: NodeId,
    /// Index expression of the store.
    pub store_index: Expr,
    /// Index expression of the load.
    pub load_index: Expr,
}

/// The code-generation plan for a FlexVec-vectorizable loop.
#[derive(Clone, Debug, Default)]
pub struct FlexVecPlan {
    /// Detected pattern instances.
    pub patterns: Vec<PatternInstance>,
    /// Conditionally updated scalars needing `VPSLCTLAST` propagation.
    pub updated_vars: Vec<VarId>,
    /// Nodes whose loads must use first-faulting instructions.
    pub ff_nodes: Vec<NodeId>,
    /// Address pairs needing runtime conflict checks.
    pub conflict_checks: Vec<ConflictCheck>,
    /// Lexically inclusive node range placed inside the VPL, if any.
    pub vpl_range: Option<(NodeId, NodeId)>,
    /// Early exits: `(guard, break)` pairs.
    pub early_exits: Vec<(NodeId, NodeId)>,
    /// Number of PDG edges relaxed.
    pub relaxed_edges: usize,
    /// Reduction idioms recognized alongside the FlexVec patterns (their
    /// carried flow edges are not blocking, but the code generator still
    /// needs the idiom to lower them as horizontal reductions).
    pub reductions: Vec<Reduction>,
}

impl FlexVecPlan {
    /// Whether the plan needs any speculation support (first-faulting
    /// loads or, alternatively, RTM).
    pub fn needs_speculation(&self) -> bool {
        !self.ff_nodes.is_empty()
    }
}

/// The analysis verdict for a loop.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// A traditional vectorizer handles the loop (possibly via the listed
    /// reduction idioms).
    Traditional {
        /// Recognized reductions.
        reductions: Vec<Reduction>,
    },
    /// FlexVec partial vectorization applies.
    FlexVec(FlexVecPlan),
    /// Neither technique can vectorize the loop.
    NotVectorizable {
        /// Human-readable reason.
        reason: String,
    },
}

impl Verdict {
    /// Whether the verdict lets some vectorizer run.
    pub fn is_vectorizable(&self) -> bool {
        !matches!(self, Verdict::NotVectorizable { .. })
    }
}

/// Analysis results bundled with the intermediate structures (so reports
/// and the code generator share one computation).
#[derive(Clone, Debug)]
pub struct LoopAnalysis {
    /// The flattened statement view.
    pub nodes: LoopNodes,
    /// The program dependence graph.
    pub pdg: Pdg,
    /// The verdict.
    pub verdict: Verdict,
    /// Widest supported runtime vector length the verdict is valid at
    /// (see `width_ceiling`). Executing at a wider `vl` must be refused.
    pub max_vl: usize,
}

/// Analyzes a loop program and classifies it.
pub fn analyze(program: &Program) -> LoopAnalysis {
    let nodes = LoopNodes::build(program);
    let pdg = Pdg::build(program, &nodes);
    let verdict = classify(program, &nodes, &pdg);
    let max_vl = width_ceiling(&pdg);
    LoopAnalysis {
        nodes,
        pdg,
        verdict,
        max_vl,
    }
}

/// Computes the widest supported runtime vector length the analysis'
/// distance reasoning covers.
///
/// The only width-*dependent* argument the classifier makes is "a carried
/// static RAW at distance `d >= VLEN_DISTANCE_SAFE` never bites within one
/// chunk". That claim holds for every chunk width `vl <= d`, so the
/// ceiling is the largest supported width not exceeding the smallest such
/// relied-upon distance. Every other verdict ingredient — anti/output
/// renaming, in-order scatters, dynamic `VPCONFLICTM` partitioning,
/// control and scalar reasoning — is width-agnostic, so loops with no
/// relied-upon static distance run at any supported width
/// ([`flexvec_isa::MAX_VLEN`]).
fn width_ceiling(pdg: &Pdg) -> usize {
    let mut min_relied: Option<u64> = None;
    for edge in &pdg.edges {
        if let DepKind::Memory {
            kind: MemDepKind::Raw,
            distance: Some(d),
            carried: true,
            dynamic: false,
            ..
        } = &edge.kind
        {
            let d = *d as u64;
            if d >= VLEN_DISTANCE_SAFE {
                min_relied = Some(min_relied.map_or(d, |m| m.min(d)));
            }
        }
    }
    match min_relied {
        None => flexvec_isa::MAX_VLEN,
        Some(d) => flexvec_isa::SUPPORTED_VLENS
            .iter()
            .copied()
            .filter(|&vl| (vl as u64) <= d)
            .max()
            .unwrap_or(flexvec_isa::DEFAULT_VLEN),
    }
}

/// Is this carried edge a blocker for plain (traditional) vectorization at
/// the chunk width? Anti and output dependences are eliminated by
/// register renaming / scalar expansion / in-order scatters; carried
/// memory dependences at distance ≥ VLEN never bite within one chunk.
fn blocks_traditional(edge: &DepEdge, reductions: &[Reduction]) -> bool {
    match &edge.kind {
        DepKind::Control { .. } => false,
        DepKind::ControlExit => true,
        DepKind::ScalarFlow { var, carried } => {
            *carried && !reductions.iter().any(|r| r.var == *var)
        }
        DepKind::ScalarAnti { .. } | DepKind::ScalarOutput { .. } => false,
        DepKind::Memory {
            kind,
            distance,
            carried,
            dynamic,
            ..
        } => {
            if !*carried {
                return false;
            }
            if *dynamic {
                return true;
            }
            match kind {
                MemDepKind::Raw => match distance {
                    Some(d) => (*d as u64) < VLEN_DISTANCE_SAFE,
                    None => true,
                },
                // Output deps are satisfied by in-order scatters; anti deps
                // with a statically known distance are satisfied because
                // all the chunk's loads of the (lexically earlier) read
                // happen before the store op executes.
                MemDepKind::Waw | MemDepKind::War => false,
            }
        }
    }
}

fn classify(program: &Program, nodes: &LoopNodes, pdg: &Pdg) -> Verdict {
    let reductions = recognize_reductions(nodes);

    // --- Traditional check -------------------------------------------------
    let blocking: Vec<&DepEdge> = pdg
        .edges
        .iter()
        .filter(|e| blocks_traditional(e, &reductions))
        .collect();
    if blocking.is_empty() {
        return Verdict::Traditional { reductions };
    }

    // --- FlexVec relaxation -------------------------------------------------
    let mut plan = FlexVecPlan::default();
    let mut relaxed: Vec<usize> = Vec::new(); // indices into pdg.edges

    for (idx, edge) in pdg.edges.iter().enumerate() {
        if !blocks_traditional(edge, &reductions) {
            continue;
        }
        match &edge.kind {
            DepKind::ControlExit => {
                relaxed.push(idx);
            }
            DepKind::ScalarFlow { var, .. } => {
                // Relaxable iff every def of the var is conditional: the
                // steady-state assumption is "the update rarely happens".
                let defs: Vec<&flexvec_ir::Node> = nodes
                    .nodes
                    .iter()
                    .filter(|n| n.defs.contains(var))
                    .collect();
                let all_conditional = defs.iter().all(|d| d.parent.is_some());
                if all_conditional {
                    relaxed.push(idx);
                    if !plan.updated_vars.contains(var) {
                        plan.updated_vars.push(*var);
                        for d in &defs {
                            plan.patterns.push(PatternInstance::ConditionalUpdate {
                                var: *var,
                                def: d.id,
                            });
                        }
                    }
                } else {
                    return Verdict::NotVectorizable {
                        reason: format!(
                            "unconditional loop-carried recurrence through scalar {} \
                             (not a recognized reduction)",
                            program.var_name(*var)
                        ),
                    };
                }
            }
            DepKind::Memory {
                array,
                kind,
                dynamic,
                distance,
                ..
            } => {
                if !*dynamic {
                    return Verdict::NotVectorizable {
                        reason: format!(
                            "loop-carried memory dependence on {} at static distance {:?} \
                             shorter than the vector length",
                            program.array_name(*array),
                            distance
                        ),
                    };
                }
                match kind {
                    MemDepKind::Raw | MemDepKind::War => {
                        // Identify the store and load nodes on this edge.
                        let (store, load) = match kind {
                            MemDepKind::Raw => (edge.from, edge.to),
                            MemDepKind::War => (edge.to, edge.from),
                            MemDepKind::Waw => unreachable!(),
                        };
                        match conflict_check_for(program, nodes, *array, store, load) {
                            Ok(check) => {
                                relaxed.push(idx);
                                if !plan
                                    .conflict_checks
                                    .iter()
                                    .any(|c| c.store == store && c.load == load)
                                {
                                    plan.patterns.push(PatternInstance::MemoryConflict {
                                        array: *array,
                                        store,
                                        load,
                                    });
                                    plan.conflict_checks.push(check);
                                }
                            }
                            Err(reason) => return Verdict::NotVectorizable { reason },
                        }
                    }
                    MemDepKind::Waw => {
                        if edge.from == edge.to {
                            // A store's self-carried output dependence is
                            // preserved by in-order scatter lanes.
                            relaxed.push(idx);
                        } else {
                            // Two distinct stores with runtime-aliasing
                            // addresses: vectorization would reorder them
                            // across iterations.
                            return Verdict::NotVectorizable {
                                reason: format!(
                                    "dynamic output dependence between two stores to {}",
                                    program.array_name(*array)
                                ),
                            };
                        }
                    }
                }
            }
            DepKind::Control { .. } | DepKind::ScalarAnti { .. } | DepKind::ScalarOutput { .. } => {
                unreachable!("never blocking")
            }
        }
    }

    // Early exits become pattern instances. An unconditional break (the
    // loop always stops at its first iteration) is modeled with the break
    // node standing in as its own guard, so the code-generation shape
    // checks (no exit inside or after a VPL) still apply to it.
    for brk in nodes.breaks() {
        let guard = match nodes.node(brk).parent {
            Some((guard, _)) => guard,
            None => brk,
        };
        plan.patterns
            .push(PatternInstance::EarlyTermination { guard, brk });
        plan.early_exits.push((guard, brk));
    }

    // --- Re-run cycle detection with the relaxed edges removed -------------
    // Keep the cycle-relevant edges: still-blocking carried edges plus the
    // forward (same-iteration flow / memory / control) edges that close a
    // cycle with them. Ignorable anti/output edges are dropped.
    let relaxed_set: std::collections::HashSet<usize> = relaxed.iter().copied().collect();
    let kept: Vec<DepEdge> = pdg
        .edges
        .iter()
        .enumerate()
        .filter(|(idx, e)| {
            !relaxed_set.contains(idx)
                && (blocks_traditional(e, &reductions)
                    || matches!(e.kind, DepKind::Control { .. })
                    || matches!(e.kind, DepKind::ScalarFlow { carried: false, .. })
                    || matches!(e.kind, DepKind::Memory { carried: false, .. }))
        })
        .map(|(_, e)| e.clone())
        .collect();
    let remaining = cyclic_sccs(&Pdg {
        node_count: pdg.node_count,
        edges: kept,
    });
    if let Some(cyc) = remaining.first() {
        return Verdict::NotVectorizable {
            reason: format!(
                "cycle remains after relaxation through nodes {:?}",
                cyc.nodes
            ),
        };
    }

    plan.relaxed_edges = relaxed.len();
    plan.ff_nodes = speculative_nodes(nodes, &plan);
    plan.vpl_range = vpl_range(nodes, &plan);
    plan.reductions = reductions;

    if plan.patterns.is_empty() {
        return Verdict::NotVectorizable {
            reason: "blocking dependences but no FlexVec pattern matched".to_owned(),
        };
    }
    Verdict::FlexVec(plan)
}

/// Recognizes unconditional `v = v op expr` reductions where `v` has no
/// other use inside the loop.
fn recognize_reductions(nodes: &LoopNodes) -> Vec<Reduction> {
    let mut out = Vec::new();
    for n in &nodes.nodes {
        let NodeKind::Assign { var, value } = &n.kind else {
            continue;
        };
        if n.parent.is_some() {
            continue; // conditional: the FlexVec pattern, not a reduction
        }
        let Some(op) = reduction_op(value, *var) else {
            continue;
        };
        // The variable may appear only in this statement (its own RHS).
        let foreign_use = nodes
            .nodes
            .iter()
            .any(|m| m.id != n.id && (m.uses.contains(var) || m.defs.contains(var)));
        if foreign_use {
            continue;
        }
        out.push(Reduction {
            var: *var,
            node: n.id,
            op,
        });
    }
    out
}

/// Matches `v op expr` / `expr op v` for associative-commutative ops where
/// `expr` does not mention `v`.
fn reduction_op(value: &Expr, v: VarId) -> Option<BinOp> {
    let Expr::Bin { op, lhs, rhs } = value else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::And | BinOp::Or | BinOp::Xor
    ) {
        return None;
    }
    let mentions = |e: &Expr| {
        let mut vs = Vec::new();
        e.collect_vars(&mut vs);
        vs.contains(&v)
    };
    match (&**lhs, &**rhs) {
        (Expr::Var(x), other) if *x == v && !mentions(other) => Some(*op),
        (other, Expr::Var(x)) if *x == v && !mentions(other) => Some(*op),
        _ => None,
    }
}

/// Builds the conflict check for a dynamic store/load pair, verifying the
/// index expressions are computable before the VPL (they must not read the
/// conflicting array or depend on a conditionally updated scalar).
fn conflict_check_for(
    program: &Program,
    nodes: &LoopNodes,
    array: ArraySym,
    store: NodeId,
    load: NodeId,
) -> Result<ConflictCheck, String> {
    let store_node = nodes.node(store);
    let load_node = nodes.node(load);
    let store_index = store_node
        .writes
        .iter()
        .find(|(a, _)| *a == array)
        .map(|(_, idx)| idx.clone())
        .ok_or_else(|| {
            format!(
                "node {store} does not store to {}",
                program.array_name(array)
            )
        })?;
    let load_index = load_node
        .reads
        .iter()
        .find(|(a, _)| *a == array)
        .map(|(_, idx)| idx.clone())
        .ok_or_else(|| {
            format!(
                "node {load} does not load from {}",
                program.array_name(array)
            )
        })?;

    for (which, idx) in [("store", &store_index), ("load", &load_index)] {
        let mut loads = Vec::new();
        idx.collect_loads(&mut loads);
        if loads.iter().any(|(a, _)| *a == array) {
            return Err(format!(
                "{which} index of {} reads the conflicting array itself",
                program.array_name(array)
            ));
        }
    }
    if store.0 < load.0 {
        // The VPL executes each partition's loads before its stores; a
        // same-iteration store-then-load on aliasing addresses would need
        // store-to-load forwarding within one lane, which this code
        // generator does not emit. (The paper's canonical Figure 2 shape
        // is load-first.)
        return Err(format!(
            "dynamic store (node {store}) lexically precedes its dependent load (node {load}) \
             on {}; this shape needs in-lane store-to-load forwarding",
            program.array_name(array)
        ));
    }
    Ok(ConflictCheck {
        array,
        store,
        load,
        store_index,
        load_index,
    })
}

/// Loads that execute under control conditions whose outcome can be stale
/// (they transitively use an updated scalar) or that feed an early-exit
/// guard need first-faulting protection.
fn speculative_nodes(nodes: &LoopNodes, plan: &FlexVecPlan) -> Vec<NodeId> {
    let mut out = Vec::new();

    // Scalars whose value within the chunk may be stale: the updated vars.
    let stale_dependent_cond = |cond: NodeId| -> bool {
        // A condition is stale-dependent if it or anything feeding it
        // (within the iteration) uses an updated var. Conservative: check
        // the condition's direct uses plus uses of any node that defines a
        // var the condition reads.
        let cond_node = nodes.node(cond);
        let mut frontier: Vec<VarId> = cond_node.uses.clone();
        let mut seen = frontier.clone();
        while let Some(v) = frontier.pop() {
            if plan.updated_vars.contains(&v) {
                return true;
            }
            for def in nodes.nodes.iter().filter(|n| n.defs.contains(&v)) {
                for u in &def.uses {
                    if !seen.contains(u) {
                        seen.push(*u);
                        frontier.push(*u);
                    }
                }
            }
        }
        false
    };

    for n in &nodes.nodes {
        if n.reads.is_empty() {
            continue;
        }
        // Guarded by a stale-dependent condition?
        let guarded_stale = nodes
            .control_chain(n.id)
            .iter()
            .any(|(cond, _)| stale_dependent_cond(*cond));
        // Feeding an early-exit guard? (The guard's own loads and loads of
        // statements that define scalars the guard uses.)
        let feeds_exit = plan.early_exits.iter().any(|(guard, _)| {
            if n.id == *guard {
                return true;
            }
            let guard_uses = &nodes.node(*guard).uses;
            n.defs.iter().any(|d| guard_uses.contains(d)) && n.id.0 <= guard.0
        });
        if guarded_stale || feeds_exit {
            out.push(n.id);
        }
    }
    out
}

/// The VPL encloses the lexical range from the first to the last node that
/// participates in a relaxed pattern (conditional updates and conflicting
/// accesses, plus everything that consumes an updated scalar).
fn vpl_range(nodes: &LoopNodes, plan: &FlexVecPlan) -> Option<(NodeId, NodeId)> {
    let mut members: Vec<NodeId> = Vec::new();
    for p in &plan.patterns {
        match p {
            PatternInstance::ConditionalUpdate { var, def } => {
                members.push(*def);
                for n in &nodes.nodes {
                    if n.uses.contains(var) {
                        members.push(n.id);
                    }
                }
                // Controlling conditions of the def must re-evaluate too.
                for (cond, _) in nodes.control_chain(*def) {
                    members.push(cond);
                }
            }
            PatternInstance::MemoryConflict { store, load, .. } => {
                members.push(*store);
                members.push(*load);
                for (cond, _) in nodes
                    .control_chain(*store)
                    .into_iter()
                    .chain(nodes.control_chain(*load))
                {
                    members.push(cond);
                }
            }
            PatternInstance::EarlyTermination { .. } => {}
        }
    }
    if members.is_empty() {
        return None;
    }
    let lo = members.iter().min().copied().expect("nonempty");
    let mut hi = members.iter().max().copied().expect("nonempty");
    // Control closure: every statement controlled by a condition inside
    // the range must live inside the VPL too — its predicate mask is
    // re-evaluated per partition and is not visible outside the VPL.
    loop {
        let mut grew = false;
        for n in &nodes.nodes {
            if n.id.0 <= hi.0 {
                continue;
            }
            let controlled = nodes
                .control_chain(n.id)
                .iter()
                .any(|(c, _)| c.0 >= lo.0 && c.0 <= hi.0);
            if controlled {
                hi = n.id;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvec_ir::build::*;
    use flexvec_ir::ProgramBuilder;

    fn h264_loop() -> Program {
        // Section 1.1's motion-search loop.
        let mut b = ProgramBuilder::new("h264_motion");
        let pos = b.var("pos", 0);
        let max_pos = b.var("max_pos", 512);
        let mcost = b.var("mcost", 0);
        let cand = b.var("cand", 0);
        let min_mcost = b.var("min_mcost", 1 << 20);
        let block_sad = b.array("block_sad");
        let spiral = b.array("spiral_srch");
        let mv = b.array("mv");
        b.live_out(min_mcost);
        b.build_loop(
            pos,
            c(0),
            var(max_pos),
            vec![if_(
                lt(ld(block_sad, var(pos)), var(min_mcost)),
                vec![
                    assign(mcost, ld(block_sad, var(pos))),
                    assign(cand, ld(spiral, var(pos))),
                    assign(mcost, add(var(mcost), ld(mv, var(cand)))),
                    if_(
                        lt(var(mcost), var(min_mcost)),
                        vec![assign(min_mcost, var(mcost))],
                    ),
                ],
            )],
        )
        .unwrap()
    }

    fn figure2a() -> Program {
        let mut b = ProgramBuilder::new("figure2a");
        let i = b.var("i", 0);
        let hits = b.var("hits", 64);
        let q = b.var("q", 0);
        let s = b.var("s", 0);
        let coord = b.var("coord", 0);
        let pairs_q = b.array("pairs_q");
        let pairs_s = b.array("pairs_s");
        let d_arr = b.array("d_arr");
        b.build_loop(
            i,
            c(0),
            var(hits),
            vec![
                assign(q, ld(pairs_q, var(i))),
                assign(s, ld(pairs_s, var(i))),
                assign(coord, sub(var(q), var(s))),
                if_(
                    ge(var(s), ld(d_arr, var(coord))),
                    vec![store(d_arr, var(coord), var(s))],
                ),
            ],
        )
        .unwrap()
    }

    fn early_exit_loop() -> Program {
        // Figure 5(a)-style search loop.
        let mut b = ProgramBuilder::new("early_exit");
        let i = b.var("i", 0);
        let n = b.var("n", 256);
        let best_pos = b.var("best_pos", -1);
        let key = b.var("key", 7);
        let idx = b.array("idx");
        let val = b.array("val");
        b.live_out(best_pos);
        b.build_loop(
            i,
            c(0),
            var(n),
            vec![if_(
                eq(ld(val, ld(idx, var(i))), var(key)),
                vec![assign(best_pos, var(i)), brk()],
            )],
        )
        .unwrap()
    }

    fn plain_sum() -> Program {
        let mut b = ProgramBuilder::new("sum");
        let i = b.var("i", 0);
        let acc = b.var("acc", 0);
        let a = b.array("a");
        b.live_out(acc);
        b.build_loop(
            i,
            c(0),
            c(100),
            vec![assign(acc, add(var(acc), ld(a, var(i))))],
        )
        .unwrap()
    }

    #[test]
    fn plain_sum_is_traditional_reduction() {
        let a = analyze(&plain_sum());
        match a.verdict {
            Verdict::Traditional { reductions } => {
                assert_eq!(reductions.len(), 1);
                assert_eq!(reductions[0].op, BinOp::Add);
            }
            other => panic!("expected traditional, got {other:?}"),
        }
    }

    #[test]
    fn h264_is_conditional_update_with_speculation() {
        let a = analyze(&h264_loop());
        let Verdict::FlexVec(plan) = &a.verdict else {
            panic!("expected FlexVec, got {:?}", a.verdict);
        };
        // min_mcost (VarId 4) is the updated scalar.
        assert_eq!(plan.updated_vars, vec![VarId(4)]);
        assert!(plan
            .patterns
            .iter()
            .any(|p| matches!(p, PatternInstance::ConditionalUpdate { var: VarId(4), .. })));
        // The guarded loads (nodes 1, 2, 3 contain loads under the stale
        // condition) need FF protection.
        assert!(plan.needs_speculation());
        assert!(plan.ff_nodes.contains(&NodeId(1)));
        assert!(plan.ff_nodes.contains(&NodeId(2)));
        assert!(plan.ff_nodes.contains(&NodeId(3)));
        // The unconditional condition load (node 0) does not: its mask is
        // non-speculative.
        assert!(!plan.ff_nodes.contains(&NodeId(0)));
        assert!(plan.vpl_range.is_some());
    }

    #[test]
    fn figure2a_is_memory_conflict() {
        let a = analyze(&figure2a());
        let Verdict::FlexVec(plan) = &a.verdict else {
            panic!("expected FlexVec, got {:?}", a.verdict);
        };
        assert!(plan
            .patterns
            .iter()
            .any(|p| matches!(p, PatternInstance::MemoryConflict { .. })));
        assert_eq!(plan.conflict_checks.len(), 1);
        let check = &plan.conflict_checks[0];
        // Load (in the condition, node 3) precedes the store (node 4):
        // only the RAW direction is required.
        assert_eq!(check.store, NodeId(4));
        assert_eq!(check.load, NodeId(3));
        // No speculation: Figure 2(b) uses no FF instructions.
        assert!(!plan.needs_speculation());
    }

    #[test]
    fn early_exit_detected_with_ff_loads() {
        let a = analyze(&early_exit_loop());
        let Verdict::FlexVec(plan) = &a.verdict else {
            panic!("expected FlexVec, got {:?}", a.verdict);
        };
        assert_eq!(plan.early_exits.len(), 1);
        assert!(plan
            .patterns
            .iter()
            .any(|p| matches!(p, PatternInstance::EarlyTermination { .. })));
        // The guard's chained loads are speculative.
        assert!(plan.ff_nodes.contains(&NodeId(0)));
    }

    #[test]
    fn short_static_distance_rejected() {
        let mut b = ProgramBuilder::new("dist4");
        let i = b.var("i", 4);
        let a = b.array("a");
        let t = b.var("t", 0);
        let p = b
            .build_loop(
                i,
                c(4),
                c(64),
                vec![
                    assign(t, add(ld(a, sub(var(i), c(4))), c(1))),
                    store(a, var(i), var(t)),
                ],
            )
            .unwrap();
        let a = analyze(&p);
        assert!(matches!(a.verdict, Verdict::NotVectorizable { .. }));
    }

    #[test]
    fn long_static_distance_is_traditional() {
        let mut b = ProgramBuilder::new("dist32");
        let i = b.var("i", 32);
        let a = b.array("a");
        let t = b.var("t", 0);
        let p = b
            .build_loop(
                i,
                c(32),
                c(256),
                vec![
                    assign(t, add(ld(a, sub(var(i), c(32))), c(1))),
                    store(a, var(i), var(t)),
                ],
            )
            .unwrap();
        let a = analyze(&p);
        assert!(
            matches!(a.verdict, Verdict::Traditional { .. }),
            "{:?}",
            a.verdict
        );
    }

    #[test]
    fn unconditional_recurrence_rejected() {
        // x = a[x]: pointer-chase, unconditional carried flow, no reduction.
        let mut b = ProgramBuilder::new("chase");
        let i = b.var("i", 0);
        let x = b.var("x", 0);
        let a = b.array("a");
        b.live_out(x);
        let p = b
            .build_loop(i, c(0), c(64), vec![assign(x, ld(a, var(x)))])
            .unwrap();
        let an = analyze(&p);
        assert!(matches!(an.verdict, Verdict::NotVectorizable { .. }));
    }

    #[test]
    fn conditional_min_is_flexvec_not_reduction() {
        // if (a[i] < best) best = a[i]: conditional update (the var is used
        // in the condition), not a plain reduction idiom.
        let mut b = ProgramBuilder::new("cond_min");
        let i = b.var("i", 0);
        let best = b.var("best", i64::MAX);
        let a = b.array("a");
        b.live_out(best);
        let p = b
            .build_loop(
                i,
                c(0),
                c(128),
                vec![if_(
                    lt(ld(a, var(i)), var(best)),
                    vec![assign(best, ld(a, var(i)))],
                )],
            )
            .unwrap();
        let an = analyze(&p);
        assert!(
            matches!(an.verdict, Verdict::FlexVec(_)),
            "{:?}",
            an.verdict
        );
    }

    #[test]
    fn index_reading_conflicting_array_rejected() {
        // a[a[i]] = i: the store index reads the stored array.
        let mut b = ProgramBuilder::new("self_index");
        let i = b.var("i", 0);
        let a = b.array("a");
        let t = b.var("t", 0);
        let p = b
            .build_loop(
                i,
                c(0),
                c(64),
                vec![
                    assign(t, ld(a, ld(a, var(i)))),
                    store(a, ld(a, var(i)), var(t)),
                ],
            )
            .unwrap();
        let an = analyze(&p);
        assert!(matches!(an.verdict, Verdict::NotVectorizable { .. }));
    }
}
