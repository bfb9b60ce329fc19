//! # flexvec-profiler
//!
//! The profile-guided loop selection machinery of the paper's Section 5:
//! "FlexVec uses a profile guided strategy to select hotloops to
//! vectorize. It uses a Pin-based profiling tool ... \[that\] collects trip
//! counts and the effective vector length for the candidate loops."
//!
//! [`profile_loop`] interprets a candidate loop scalar-ly, counting per
//! invocation its trip count and the dynamic occurrences of the relaxed
//! dependencies (conditional updates firing, memory conflicts within a
//! vector window, early exits). The **effective vector length** is "the
//! ratio of the average trip count to the average number of times a cross
//! iteration dependency is detected".
//!
//! [`select`] applies the paper's acceptance thresholds: minimum trip
//! count 16, minimum effective vector length 6, minimum coverage ≈5%, and
//! the cost-model rule rejecting loops whose vector memory-to-compute
//! ratio exceeds 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use flexvec::{analyze, InstMix, PatternInstance, Verdict};
use flexvec_ir::{Expr, Program};
use flexvec_isa::vlen;
use flexvec_mem::AddressSpace;
use flexvec_vm::{
    Bindings, CountingSink, ExecError, ScalarMachine, StepOutcome, TraceSink, VectorStats,
};

/// Execution-engine throughput counters for one measured run: how fast
/// the VM itself chewed through the workload (chunks and µops per wall
/// second). This measures the *reproduction pipeline*, not simulated cycles —
/// it's the metric the compiled execution engine is tuned against.
#[derive(Clone, Debug, PartialEq)]
pub struct ThroughputReport {
    /// What ran (an engine name, e.g. `"compiled"` or `"tree-walking"`).
    pub label: String,
    /// Wall-clock time of the vector execution.
    pub wall: Duration,
    /// Vector chunks started, over all invocations.
    pub chunks: u64,
    /// µops emitted to the sink, over all invocations.
    pub uops: u64,
    /// VPL iterations (partitions) executed, over all invocations.
    pub vpl_iterations: u64,
    /// Largest partition count observed in one chunk.
    pub max_partitions: u64,
    /// Chunks that fell back to scalar after a clipped first-faulting
    /// load (the FF speculation cost signal).
    pub ff_fallbacks: u64,
    /// RTM transactions committed.
    pub rtm_commits: u64,
    /// RTM transactions aborted (the RTM speculation cost signal).
    pub rtm_aborts: u64,
}

impl ThroughputReport {
    /// Builds a report from a run's accumulated statistics.
    pub fn new(label: impl Into<String>, wall: Duration, chunks: u64, uops: u64) -> Self {
        ThroughputReport {
            label: label.into(),
            wall,
            chunks,
            uops,
            vpl_iterations: 0,
            max_partitions: 0,
            ff_fallbacks: 0,
            rtm_commits: 0,
            rtm_aborts: 0,
        }
    }

    /// Accumulates one invocation's [`VectorStats`]: chunk count plus
    /// the speculation-profile counters (partitions, FF fallbacks, RTM
    /// commits/aborts) every execution tier reports identically —
    /// they feed the serving layer's `/metrics` engine counters.
    pub fn add_stats(&mut self, stats: &VectorStats) {
        self.chunks += stats.chunks;
        self.vpl_iterations += stats.vpl_iterations;
        self.max_partitions = self.max_partitions.max(stats.max_partitions);
        self.ff_fallbacks += stats.ff_fallbacks;
        self.rtm_commits += stats.rtm_commits;
        self.rtm_aborts += stats.rtm_aborts;
    }

    /// FF scalar fallbacks per started chunk (0.0 with no chunks).
    pub fn ff_fallback_rate(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.ff_fallbacks as f64 / self.chunks as f64
        }
    }

    /// Fraction of RTM transactions that aborted (0.0 with none).
    pub fn rtm_abort_rate(&self) -> f64 {
        let attempts = self.rtm_commits + self.rtm_aborts;
        if attempts == 0 {
            0.0
        } else {
            self.rtm_aborts as f64 / attempts as f64
        }
    }

    /// Average VPL partitions per chunk (1.0 is conflict-free; the
    /// vector length means the window fully serialized).
    pub fn partitions_per_chunk(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.vpl_iterations as f64 / self.chunks as f64
        }
    }

    /// Vector chunks executed per wall second (0.0 for a zero-length
    /// measurement).
    pub fn chunks_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.chunks as f64 / secs
        } else {
            0.0
        }
    }

    /// µops emitted per wall second (0.0 for a zero-length measurement).
    pub fn uops_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.uops as f64 / secs
        } else {
            0.0
        }
    }
}

impl core::fmt::Display for ThroughputReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}: {:.3e} chunks/s, {:.3e} uops/s",
            self.label,
            self.chunks_per_sec(),
            self.uops_per_sec()
        )
    }
}

/// Dynamic profile of one loop over one or more invocations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopProfile {
    /// Loop name.
    pub name: String,
    /// Invocations profiled.
    pub invocations: u64,
    /// Total scalar iterations.
    pub trips: u64,
    /// Conditional-update events (an update actually fired).
    pub update_events: u64,
    /// Memory-conflict events (a load touched an address stored within
    /// the preceding vector window).
    pub conflict_events: u64,
    /// Early-exit events.
    pub exit_events: u64,
    /// Dynamic scalar µops executed by the loop.
    pub uops: u64,
}

impl LoopProfile {
    /// Average trip count per invocation.
    pub fn avg_trip_count(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.trips as f64 / self.invocations as f64
        }
    }

    /// Total cross-iteration dependency events.
    pub fn dependency_events(&self) -> u64 {
        self.update_events + self.conflict_events + self.exit_events
    }

    /// The paper's effective vector length: average trip count over
    /// average dependency events (both per invocation). With zero events
    /// the loop runs at the full ambient vector length
    /// ([`flexvec_isa::vlen`]).
    pub fn effective_vector_length(&self) -> f64 {
        let events = self.dependency_events();
        if events == 0 {
            vlen() as f64
        } else {
            (self.trips as f64 / events as f64).min(vlen() as f64)
        }
    }
}

/// Profiles a loop against a memory image. The image is restored by the
/// caller if it matters (profiling mutates memory exactly like a run).
///
/// # Errors
///
/// Propagates scalar execution faults.
pub fn profile_loop(
    program: &Program,
    mem: &mut AddressSpace,
    bindings: Bindings,
    invocations: u64,
) -> Result<LoopProfile, ExecError> {
    let analysis = analyze(program);
    let (updated_vars, conflict_checks): (Vec<_>, Vec<_>) = match &analysis.verdict {
        Verdict::FlexVec(plan) => (plan.updated_vars.clone(), plan.conflict_checks.clone()),
        _ => (Vec::new(), Vec::new()),
    };
    let has_exit = matches!(&analysis.verdict, Verdict::FlexVec(p) if !p.early_exits.is_empty());

    let mut profile = LoopProfile {
        name: program.name.clone(),
        ..LoopProfile::default()
    };

    for _ in 0..invocations {
        profile.invocations += 1;
        let mut machine = ScalarMachine::new(program, bindings.clone());
        let start = machine.eval_invariant(&program.loop_.start);
        let end = machine.eval_invariant(&program.loop_.end);
        let mut sink = CountingSink::default();
        // Sliding window of store indices for conflict detection.
        let mut window: Vec<Vec<i64>> = vec![Vec::new(); vlen()];
        let mut i = start;
        while i < end {
            let before: Vec<i64> = updated_vars
                .iter()
                .map(|v| machine.vars[v.0 as usize])
                .collect();
            let outcome = machine.step(i, mem, &mut sink).map_err(ExecError::Fault)?;
            profile.trips += 1;

            // Update events: any tracked scalar changed this iteration.
            let changed = updated_vars
                .iter()
                .zip(&before)
                .any(|(v, old)| machine.vars[v.0 as usize] != *old);
            if changed {
                profile.update_events += 1;
            }

            // Conflict events: this iteration's load index matches a
            // store index from one of the previous vlen()-1 iterations.
            if !conflict_checks.is_empty() {
                let slot = (i - start).rem_euclid(vlen() as i64) as usize;
                window[slot].clear();
                let mut hit = false;
                for check in &conflict_checks {
                    if let Some(load_idx) = eval_index(&check.load_index, &machine.vars) {
                        if window
                            .iter()
                            .enumerate()
                            .any(|(s, idxs)| s != slot && idxs.contains(&load_idx))
                        {
                            hit = true;
                        }
                    }
                    if let Some(store_idx) = eval_index(&check.store_index, &machine.vars) {
                        window[slot].push(store_idx);
                    }
                }
                if hit {
                    profile.conflict_events += 1;
                }
            }

            if outcome == StepOutcome::Break {
                if has_exit {
                    profile.exit_events += 1;
                }
                break;
            }
            i += 1;
        }
        profile.uops += sink.len();
    }
    Ok(profile)
}

/// Evaluates an index expression with the post-iteration variable values
/// (conflict indices are computed from unconditionally assigned scalars,
/// so the post-iteration value is the one the accesses used). Indirect
/// indices (containing loads) are skipped.
fn eval_index(e: &Expr, vars: &[i64]) -> Option<i64> {
    Some(match e {
        Expr::Const(v) => *v,
        Expr::Var(v) => vars[v.0 as usize],
        Expr::Bin { op, lhs, rhs } => op.eval(eval_index(lhs, vars)?, eval_index(rhs, vars)?),
        Expr::Cmp { op, lhs, rhs } => {
            op.eval(eval_index(lhs, vars)?, eval_index(rhs, vars)?) as i64
        }
        Expr::Not(inner) => (eval_index(inner, vars)? == 0) as i64,
        Expr::Load { .. } => return None,
    })
}

/// The paper's selection thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// Minimum average trip count (paper: 16).
    pub min_trip_count: f64,
    /// Minimum effective vector length (paper: 6).
    pub min_effective_vl: f64,
    /// Minimum hot-loop coverage (paper: ≈5%).
    pub min_coverage: f64,
    /// Maximum vector memory-to-compute ratio (paper: 2).
    pub max_mem_compute_ratio: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            min_trip_count: 16.0,
            min_effective_vl: 6.0,
            min_coverage: 0.05,
            max_mem_compute_ratio: 2.0,
        }
    }
}

/// Outcome of the candidate-selection heuristics.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// Whether the loop should be vectorized with FlexVec.
    pub accepted: bool,
    /// Reasons for rejection (empty when accepted).
    pub rejections: Vec<String>,
    /// Average trip count observed.
    pub avg_trip_count: f64,
    /// Effective vector length observed.
    pub effective_vl: f64,
    /// Coverage supplied by the caller.
    pub coverage: f64,
    /// Static vector memory-to-compute ratio.
    pub mem_compute_ratio: f64,
}

/// The vector memory-to-compute ratio of a generated instruction mix.
pub fn mem_compute_ratio(mix: &InstMix) -> f64 {
    let mem = (mix.gather + mix.scatter + mix.unit_mem + mix.vpgatherff + mix.vmovff) as f64;
    let compute = (mix.other + mix.kftm + mix.vpslctlast + mix.vpconflictm).max(1) as f64;
    mem / compute
}

/// Applies the paper's heuristics to a profiled loop.
pub fn select(
    profile: &LoopProfile,
    coverage: f64,
    mix: &InstMix,
    thresholds: &Thresholds,
) -> Selection {
    let avg_trip = profile.avg_trip_count();
    let evl = profile.effective_vector_length();
    let ratio = mem_compute_ratio(mix);
    let mut rejections = Vec::new();
    if avg_trip < thresholds.min_trip_count {
        rejections.push(format!(
            "average trip count {avg_trip:.1} below {}",
            thresholds.min_trip_count
        ));
    }
    if evl < thresholds.min_effective_vl {
        rejections.push(format!(
            "effective vector length {evl:.1} below {}",
            thresholds.min_effective_vl
        ));
    }
    if coverage < thresholds.min_coverage {
        rejections.push(format!(
            "coverage {:.1}% below {:.1}%",
            coverage * 100.0,
            thresholds.min_coverage * 100.0
        ));
    }
    if ratio > thresholds.max_mem_compute_ratio {
        rejections.push(format!(
            "memory/compute ratio {ratio:.2} above {}",
            thresholds.max_mem_compute_ratio
        ));
    }
    Selection {
        accepted: rejections.is_empty(),
        rejections,
        avg_trip_count: avg_trip,
        effective_vl: evl,
        coverage,
        mem_compute_ratio: ratio,
    }
}

/// Lists the FlexVec patterns the analysis found, for reports.
pub fn detected_patterns(program: &Program) -> Vec<String> {
    match analyze(program).verdict {
        Verdict::FlexVec(plan) => {
            let mut out: Vec<String> = plan
                .patterns
                .iter()
                .map(|p| match p {
                    PatternInstance::EarlyTermination { .. } => "early-termination".to_owned(),
                    PatternInstance::ConditionalUpdate { .. } => "conditional-update".to_owned(),
                    PatternInstance::MemoryConflict { .. } => "memory-conflict".to_owned(),
                })
                .collect();
            out.dedup();
            out
        }
        Verdict::Traditional { .. } => vec!["traditional".to_owned()],
        Verdict::NotVectorizable { reason } => vec![format!("rejected: {reason}")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvec::{vectorize, SpecRequest};
    use flexvec_ir::build::*;
    use flexvec_ir::ProgramBuilder;

    fn cond_min_loop(n: i64) -> Program {
        let mut b = ProgramBuilder::new("cond_min");
        let i = b.var("i", 0);
        let best = b.var("best", i64::MAX);
        let a = b.array("a");
        b.live_out(best);
        b.build_loop(
            i,
            c(0),
            c(n),
            vec![if_(
                lt(ld(a, var(i)), var(best)),
                vec![assign(best, ld(a, var(i)))],
            )],
        )
        .unwrap()
    }

    #[test]
    fn profile_counts_update_events() {
        let p = cond_min_loop(64);
        let mut mem = AddressSpace::new();
        // Strictly descending: every iteration updates.
        let a = mem.alloc_from("a", &(0..64).map(|i| 1000 - i).collect::<Vec<_>>());
        let prof = profile_loop(&p, &mut mem, Bindings::new(vec![a]), 1).unwrap();
        assert_eq!(prof.trips, 64);
        assert_eq!(prof.update_events, 64);
        assert!((prof.effective_vector_length() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_no_events_gives_full_vl() {
        let p = cond_min_loop(64);
        let mut mem = AddressSpace::new();
        // First element is the minimum: only one update.
        let mut data = vec![500i64; 64];
        data[0] = 1;
        let a = mem.alloc_from("a", &data);
        let prof = profile_loop(&p, &mut mem, Bindings::new(vec![a]), 1).unwrap();
        assert_eq!(prof.update_events, 1);
        assert!(prof.effective_vector_length() >= 16.0);
    }

    #[test]
    fn profile_counts_conflicts() {
        // Figure 2 shape with every iteration hitting the same cell.
        let mut b = ProgramBuilder::new("conflict");
        let i = b.var("i", 0);
        let s = b.var("s", 0);
        let idx = b.array("idx");
        let d = b.array("d");
        let p = b
            .build_loop(
                i,
                c(0),
                c(32),
                vec![
                    assign(s, ld(idx, var(i))),
                    if_(
                        ge(var(s), ld(d, var(s))),
                        vec![store(d, var(s), add(var(s), c(1)))],
                    ),
                ],
            )
            .unwrap();
        let mut mem = AddressSpace::new();
        let idx_a = mem.alloc_from("idx", &vec![3i64; 32]);
        let d_a = mem.alloc_from("d", &[0i64; 8]);
        let prof = profile_loop(&p, &mut mem, Bindings::new(vec![idx_a, d_a]), 1).unwrap();
        assert!(prof.conflict_events >= 30, "{prof:?}");
        assert!(prof.effective_vector_length() < 2.0);
    }

    #[test]
    fn profile_counts_exits() {
        let mut b = ProgramBuilder::new("exit");
        let i = b.var("i", 0);
        let a = b.array("a");
        let t = b.var("t", 0);
        let p = b
            .build_loop(
                i,
                c(0),
                c(100),
                vec![
                    assign(t, ld(a, var(i))),
                    if_(eq(var(t), c(-1)), vec![brk()]),
                ],
            )
            .unwrap();
        let mut mem = AddressSpace::new();
        let mut data = vec![0i64; 100];
        data[40] = -1;
        let a_id = mem.alloc_from("a", &data);
        let prof = profile_loop(&p, &mut mem, Bindings::new(vec![a_id]), 2).unwrap();
        assert_eq!(prof.exit_events, 2);
        assert_eq!(prof.trips, 82); // 41 per invocation
        assert!((prof.avg_trip_count() - 41.0).abs() < 1e-9);
    }

    #[test]
    fn selection_thresholds() {
        let p = cond_min_loop(128);
        let mut mem = AddressSpace::new();
        let mut data = vec![900i64; 128];
        data[0] = 1;
        let a = mem.alloc_from("a", &data);
        let prof = profile_loop(&p, &mut mem, Bindings::new(vec![a]), 1).unwrap();
        let mix = vectorize(&p, SpecRequest::Auto).unwrap().vprog.inst_mix();
        let th = Thresholds::default();

        let ok = select(&prof, 0.30, &mix, &th);
        assert!(ok.accepted, "{ok:?}");

        let low_cov = select(&prof, 0.01, &mix, &th);
        assert!(!low_cov.accepted);
        assert!(low_cov.rejections.iter().any(|r| r.contains("coverage")));
    }

    #[test]
    fn selection_rejects_short_trips() {
        let p = cond_min_loop(8);
        let mut mem = AddressSpace::new();
        let a = mem.alloc_from("a", &[5i64; 8]);
        let prof = profile_loop(&p, &mut mem, Bindings::new(vec![a]), 4).unwrap();
        let mix = vectorize(&p, SpecRequest::Auto).unwrap().vprog.inst_mix();
        let sel = select(&prof, 0.5, &mix, &Thresholds::default());
        assert!(!sel.accepted);
        assert!(sel.rejections.iter().any(|r| r.contains("trip count")));
    }

    #[test]
    fn selection_rejects_low_evl() {
        let p = cond_min_loop(64);
        let mut mem = AddressSpace::new();
        let a = mem.alloc_from("a", &(0..64).map(|i| 1000 - i).collect::<Vec<_>>());
        let prof = profile_loop(&p, &mut mem, Bindings::new(vec![a]), 1).unwrap();
        let mix = vectorize(&p, SpecRequest::Auto).unwrap().vprog.inst_mix();
        let sel = select(&prof, 0.5, &mix, &Thresholds::default());
        assert!(!sel.accepted);
        assert!(sel
            .rejections
            .iter()
            .any(|r| r.contains("effective vector length")));
    }

    #[test]
    fn mem_compute_ratio_from_mix() {
        let mix = InstMix {
            gather: 4,
            other: 2,
            ..InstMix::default()
        };
        assert!((mem_compute_ratio(&mix) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pattern_listing() {
        let pats = detected_patterns(&cond_min_loop(64));
        assert_eq!(pats, vec!["conditional-update".to_owned()]);
    }

    #[test]
    fn throughput_report_rates() {
        let mut r = ThroughputReport::new("compiled", Duration::from_millis(500), 0, 1000);
        r.add_stats(&VectorStats {
            chunks: 50,
            vpl_iterations: 75,
            max_partitions: 4,
            ff_fallbacks: 5,
            rtm_commits: 20,
            rtm_aborts: 5,
            ..VectorStats::default()
        });
        r.add_stats(&VectorStats {
            chunks: 0,
            max_partitions: 2,
            ..VectorStats::default()
        });
        assert_eq!(r.chunks, 50);
        assert_eq!(r.vpl_iterations, 75);
        assert_eq!(r.max_partitions, 4, "max, not sum");
        assert!((r.ff_fallback_rate() - 0.1).abs() < 1e-9);
        assert!((r.rtm_abort_rate() - 0.2).abs() < 1e-9);
        assert!((r.partitions_per_chunk() - 1.5).abs() < 1e-9);
        assert!((r.chunks_per_sec() - 100.0).abs() < 1e-9);
        assert!((r.uops_per_sec() - 2000.0).abs() < 1e-9);
        let text = r.to_string();
        assert!(text.contains("compiled"));
    }
}
