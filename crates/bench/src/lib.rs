//! # flexvec-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation:
//!
//! | Binary        | Paper artifact |
//! |---------------|----------------|
//! | `table1`      | Table 1 — simulation parameters |
//! | `table2`      | Table 2 — coverage, trip counts, instruction mix |
//! | `fig8`        | Figure 8 — overall application speedups + geomeans |
//! | `rtm_sweep`   | Sections 3.3.2/4.1 — RTM tile-size sensitivity |
//! | `heuristics`  | Section 5 — candidate-selection thresholds |
//! | `ablation`    | Section 2 — VPL vs. all-or-nothing speculation |
//!
//! The `flexvecc` binary is the batch front-end driver: it checks,
//! vectorizes, runs and benches directories of `.fv` kernels through the
//! content-addressed compile cache (see the [`fv`] module). All binaries
//! share the flag conventions of the [`flags`] module (`--engine
//! tree|compiled`, `--spec ff|rtm[:TILE]`, `--json`).
//!
//! The Criterion benches (`benches/`) measure the wall-clock cost of the
//! reproduction pipeline itself (vectorization, execution, simulation) so
//! regressions in the library are caught; the *paper's* numbers are
//! simulated cycles and come from the binaries above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flags;
pub mod fv;

use flexvec::SpecRequest;
use flexvec_sim::{geomean, SimConfig};
use flexvec_vm::Engine;
use flexvec_workloads::{evaluate_with_engine, Evaluation, Suite, VectorMode, Workload};

/// Evaluates a set of workloads in parallel (one worker thread per
/// workload — the suites are small and each evaluation is independent),
/// panicking with context on failure (the harness treats any failure as
/// fatal — numbers from a partially failed run would be misleading).
/// Results keep the input order.
pub fn evaluate_all(workloads: &[Workload], spec: SpecRequest) -> Vec<Evaluation> {
    evaluate_all_with_engine(workloads, spec, Engine::default())
}

/// [`evaluate_all`] on an explicit execution [`Engine`].
pub fn evaluate_all_with_engine(
    workloads: &[Workload],
    spec: SpecRequest,
    engine: Engine,
) -> Vec<Evaluation> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    evaluate_with_engine(w, spec, &SimConfig::table1(), VectorMode::FlexVec, engine)
                        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(e) => e,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

/// Renders the per-workload execution-engine throughput counters
/// (chunks/s, µops/s) collected during an evaluation run.
pub fn render_throughput(evals: &[Evaluation]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>12}\n",
        "benchmark", "engine", "chunks/s", "uops/s"
    ));
    for e in evals {
        out.push_str(&format!(
            "{:<14} {:>12} {:>12.3e} {:>12.3e}\n",
            e.name,
            e.throughput.label,
            e.throughput.chunks_per_sec(),
            e.throughput.uops_per_sec()
        ));
    }
    out
}

/// Renders the Figure 8 bar chart as ASCII: one row per benchmark plus
/// the group geomean.
pub fn render_fig8(evals: &[Evaluation], title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<14} {:>8} {:>9} {:>9}  speedup over baseline\n",
        "benchmark", "region", "coverage", "overall"
    ));
    for e in evals {
        let bar_len = ((e.overall_speedup - 1.0).max(0.0) * 200.0).round() as usize;
        out.push_str(&format!(
            "{:<14} {:>7.2}x {:>8.1}% {:>8.3}x  |{}\n",
            e.name,
            e.region_speedup,
            e.coverage * 100.0,
            e.overall_speedup,
            "#".repeat(bar_len.min(60))
        ));
    }
    let g = geomean(&evals.iter().map(|e| e.overall_speedup).collect::<Vec<_>>());
    out.push_str(&format!(
        "{:<14} {:>26} {:>8.3}x  (geomean)\n",
        "GEOMEAN", "", g
    ));
    out
}

/// One rendered row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Coverage (metadata).
    pub coverage: f64,
    /// Measured average trip count.
    pub avg_trip: f64,
    /// Measured effective vector length.
    pub effective_vl: f64,
    /// Average VPL partitions per chunk (measured).
    pub avg_partitions: f64,
    /// Generated FlexVec instruction mix.
    pub mix: String,
}

/// Renders Table 2: coverage, average trip count, and FlexVec
/// instruction mix per benchmark, from the *measured* profile and the
/// *generated* code.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>6} {:>10} {:>10} {:>6}  {}\n",
        "Benchmark", "Cvrg.", "AvgTrip", "EffVL", "Part.", "Instruction Mix"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>5.1}% {:>10.0} {:>10.1} {:>6.2}  {}\n",
            r.name,
            r.coverage * 100.0,
            r.avg_trip,
            r.effective_vl,
            r.avg_partitions,
            r.mix
        ));
    }
    out
}

/// Splits evaluations by suite.
pub fn by_suite(evals: &[Evaluation]) -> (Vec<Evaluation>, Vec<Evaluation>) {
    let spec: Vec<_> = evals
        .iter()
        .filter(|e| e.suite == Suite::Spec2006)
        .cloned()
        .collect();
    let apps: Vec<_> = evals
        .iter()
        .filter(|e| e.suite == Suite::App)
        .cloned()
        .collect();
    (spec, apps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexvec::InstMix;
    use flexvec_vm::VectorStats;

    fn fake_eval(name: &'static str, suite: Suite, region: f64, cov: f64) -> Evaluation {
        Evaluation {
            name,
            suite,
            coverage: cov,
            scalar_cycles: 1000,
            flexvec_cycles: (1000.0 / region) as u64,
            region_speedup: region,
            overall_speedup: flexvec_sim::amdahl_overall(region, cov),
            stats: VectorStats::default(),
            mix: InstMix::default(),
            scalar_uops: 0,
            vector_uops: 0,
            throughput: flexvec_profiler::ThroughputReport::new(
                "compiled",
                std::time::Duration::from_millis(1),
                100,
                1000,
            ),
        }
    }

    #[test]
    fn fig8_rendering_contains_geomean() {
        let evals = vec![
            fake_eval("a", Suite::Spec2006, 1.5, 0.5),
            fake_eval("b", Suite::Spec2006, 1.2, 0.2),
        ];
        let text = render_fig8(&evals, "test");
        assert!(text.contains("GEOMEAN"));
        assert!(text.contains("1.5"));
    }

    #[test]
    fn suite_split() {
        let evals = vec![
            fake_eval("s", Suite::Spec2006, 1.1, 0.1),
            fake_eval("p", Suite::App, 1.1, 0.1),
        ];
        let (spec, apps) = by_suite(&evals);
        assert_eq!(spec.len(), 1);
        assert_eq!(apps.len(), 1);
    }

    #[test]
    fn parallel_evaluate_keeps_input_order() {
        let workloads = vec![
            flexvec_workloads::spec::h264ref(),
            flexvec_workloads::apps::gzip(),
        ];
        let evals = evaluate_all(&workloads, SpecRequest::Auto);
        let names: Vec<_> = evals.iter().map(|e| e.name).collect();
        assert_eq!(names, workloads.iter().map(|w| w.name).collect::<Vec<_>>());
        assert!(evals.iter().all(|e| e.throughput.chunks > 0));
    }

    #[test]
    fn throughput_rendering() {
        let evals = vec![fake_eval("a", Suite::Spec2006, 1.5, 0.5)];
        let text = render_throughput(&evals);
        assert!(text.contains("chunks/s"));
        assert!(text.contains("compiled"));
    }

    #[test]
    fn table2_rendering() {
        let rows = vec![Table2Row {
            name: "x",
            coverage: 0.5,
            avg_trip: 100.0,
            effective_vl: 12.0,
            avg_partitions: 1.5,
            mix: "KFTM".into(),
        }];
        let text = render_table2(&rows);
        assert!(text.contains("KFTM"));
        assert!(text.contains("50.0%"));
    }
}
