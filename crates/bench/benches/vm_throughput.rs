//! Execution-engine throughput (experiment for the compiled µop engine
//! and the native x86-64 JIT tier): chunks/s of each engine on the
//! Figure 8 loop shapes — the h264 guarded speculative-load kernel, the
//! gzip early-exit kernel and the SSCA2 kernel, whose gathers cross
//! pages and so exercise address translation — plus a synthetic
//! straight-line-heavy kernel that is the native tier's best case. Run with `--release`;
//! the compiled engine is expected to be ≥2× the tree walker, and the
//! native tier ≥1.5× the compiled engine on the straight-line kernel.
//!
//! The chunk rows feed a `CountingSink`. The `ns/uop` rows run the
//! scalar interpreter and the compiled engine on both a `CountingSink`
//! and the Table 1 `OooSim`, the sink that every serve run and the
//! `fig8` sweep drive; the gap between the two is what the cycle model
//! costs per µop.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use flexvec::{vectorize, SpecRequest, Vectorized};
use flexvec_ir::build::*;
use flexvec_mem::AddressSpace;
use flexvec_sim::OooSim;
use flexvec_vm::{
    native_supported, run_scalar, run_vector_precompiled_with_scratch, run_vector_with_engine,
    Bindings, CompiledVProg, CountingSink, Engine, ExecScratch, TraceSink,
};
use flexvec_workloads::{Suite, Workload};

struct Prepared {
    workload: Workload,
    vectorized: Vectorized,
    mem: AddressSpace,
    bindings: Bindings,
}

fn prepare(workload: Workload) -> Prepared {
    let vectorized = vectorize(&workload.program, SpecRequest::Auto).expect("vectorizes");
    let mut mem = AddressSpace::new();
    let ids: Vec<_> = workload
        .arrays
        .iter()
        .enumerate()
        .map(|(i, data)| mem.alloc_from(&format!("{}_{i}", workload.name), data))
        .collect();
    let bindings = Bindings::new(ids);
    Prepared {
        workload,
        vectorized,
        mem,
        bindings,
    }
}

/// A loop whose body is a long unguarded arithmetic chain — the shape
/// that compiles (almost) entirely to inline native code. Not a paper
/// workload; it isolates straight-line dispatch overhead.
fn straight_line() -> Workload {
    let mut b = flexvec_ir::ProgramBuilder::new("straightline");
    let i = b.var("i", 0);
    let acc = b.var("acc", 0);
    let t = b.var("t", 0);
    let data = b.array("data");
    let out = b.array("out");
    b.live_out(acc);
    let idx = || band(var(i), c(1023));
    let body = vec![
        assign(t, add(mul(ld(data, idx()), c(3)), sub(var(i), c(7)))),
        assign(t, band(add(var(t), mul(var(t), c(5))), c(0xffff))),
        assign(t, add(var(t), sub(mul(var(t), c(2)), var(i)))),
        assign(t, band(var(t), c(0xffff))),
        if_(gt(var(t), var(acc)), vec![assign(acc, var(t))]),
        store(out, idx(), var(t)),
    ];
    let program = b.build_loop(i, c(0), c(4096), body).expect("builds");
    let data: Vec<i64> = (0..1024).map(|x: i64| x * 37 % 4099).collect();
    Workload {
        name: "straightline",
        suite: Suite::App,
        coverage: 1.0,
        table2_trip: "4K",
        sim_trip: 4096,
        invocations: 1,
        expected_mix: "",
        program,
        arrays: vec![data, vec![0i64; 1024]],
    }
}

/// Measured chunks/s of one engine over `iters` back-to-back runs. The
/// one-time bytecode (and native) compilation happens outside the timed
/// region, as it would in a real deployment (compile once, run every
/// invocation).
fn chunks_per_sec(
    p: &mut Prepared,
    compiled: &mut Option<(CompiledVProg, ExecScratch)>,
    iters: u32,
) -> f64 {
    let mut chunks = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let mut sink = CountingSink::default();
        let (_, stats) = match compiled {
            Some((c, scratch)) => run_vector_precompiled_with_scratch(
                &p.workload.program,
                &p.vectorized.vprog,
                c,
                scratch,
                &mut p.mem,
                p.bindings.clone(),
                &mut sink,
            )
            .expect("runs"),
            None => run_vector_with_engine(
                &p.workload.program,
                &p.vectorized.vprog,
                &mut p.mem,
                p.bindings.clone(),
                &mut sink,
                Engine::TreeWalking,
            )
            .expect("runs"),
        };
        chunks += stats.chunks;
    }
    chunks as f64 / start.elapsed().as_secs_f64()
}

/// Host nanoseconds per µop over `iters` back-to-back runs of the
/// scalar interpreter (`compiled` is `None`) or the compiled engine,
/// each feeding a fresh sink: a `CountingSink`, or with `ooo` a Table 1
/// `OooSim`.
fn ns_per_uop(
    p: &mut Prepared,
    compiled: &mut Option<(CompiledVProg, ExecScratch)>,
    ooo: bool,
    iters: u32,
) -> f64 {
    let mut uops = 0u64;
    let start = Instant::now();
    for _ in 0..iters {
        let mut counting = CountingSink::default();
        let mut sim;
        let sink: &mut dyn TraceSink = if ooo {
            sim = OooSim::table1();
            &mut sim
        } else {
            &mut counting
        };
        match compiled {
            Some((c, scratch)) => {
                run_vector_precompiled_with_scratch(
                    &p.workload.program,
                    &p.vectorized.vprog,
                    c,
                    scratch,
                    &mut p.mem,
                    p.bindings.clone(),
                    sink,
                )
                .expect("runs");
            }
            None => {
                run_scalar(&p.workload.program, &mut p.mem, p.bindings.clone(), sink)
                    .expect("runs");
            }
        }
        uops += sink.len();
    }
    start.elapsed().as_nanos() as f64 / uops.max(1) as f64
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm_throughput");
    group.sample_size(20);
    for workload in [
        flexvec_workloads::spec::h264ref(),
        flexvec_workloads::apps::gzip(),
        flexvec_workloads::apps::ssca2(),
        straight_line(),
    ] {
        let name = workload.workload_short_name();
        let mut p = prepare(workload);
        let mut tree_engine = None;
        let mut compiled_engine = {
            let c = CompiledVProg::compile(&p.vectorized.vprog);
            let scratch = c.scratch();
            Some((c, scratch))
        };
        let mut native_engine = native_supported().then(|| {
            let mut c = CompiledVProg::compile(&p.vectorized.vprog);
            assert!(c.enable_native(), "native build must succeed on x86-64");
            let scratch = c.scratch();
            (c, scratch)
        });

        // One-shot ratio report (the acceptance numbers), outside the
        // criterion timing loops.
        let tree = chunks_per_sec(&mut p, &mut tree_engine, 40);
        let comp = chunks_per_sec(&mut p, &mut compiled_engine, 40);
        println!(
            "{name}: tree-walking {tree:.3e} chunks/s, compiled {comp:.3e} chunks/s \
             ({:.2}x)",
            comp / tree
        );
        for (label, engine) in [("scalar", &mut None), ("compiled", &mut compiled_engine)] {
            let counting = ns_per_uop(&mut p, engine, false, 40);
            let ooo = ns_per_uop(&mut p, engine, true, 40);
            println!(
                "{name}: {label} {counting:.1} ns/uop on CountingSink, \
                 {ooo:.1} ns/uop on OooSim"
            );
        }
        if let Some((plan, _)) = &native_engine {
            let (segments, inline_ops, helper_ops, code_bytes) = plan.native_info();
            let nat = chunks_per_sec(&mut p, &mut native_engine, 40);
            println!(
                "{name}: native {nat:.3e} chunks/s ({:.2}x over compiled; \
                 {segments} segments, {inline_ops} inline / {helper_ops} helper ops, \
                 {code_bytes} code bytes)",
                nat / comp
            );
        }

        // Width sweep: the bytecode is width-independent, so one
        // compile is re-executed at every supported vector length the
        // kernel's analysis ceiling allows (wider vl → fewer, fatter
        // chunks). One-shot report plus criterion entries per width.
        for vl in flexvec_isa::SUPPORTED_VLENS {
            if vl > p.vectorized.vprog.max_vl {
                println!(
                    "{name}: vl {vl} skipped (width ceiling {})",
                    p.vectorized.vprog.max_vl
                );
                continue;
            }
            flexvec_isa::with_vlen(vl, || {
                let mut engine = {
                    let c = CompiledVProg::compile(&p.vectorized.vprog);
                    let scratch = c.scratch();
                    Some((c, scratch))
                };
                let cps = chunks_per_sec(&mut p, &mut engine, 20);
                println!("{name}: compiled @ vl {vl:>2}: {cps:.3e} chunks/s");
            });
        }
        if name == "straightline" {
            for vl in flexvec_isa::SUPPORTED_VLENS {
                if vl > p.vectorized.vprog.max_vl {
                    continue;
                }
                let mut engine = flexvec_isa::with_vlen(vl, || {
                    let c = CompiledVProg::compile(&p.vectorized.vprog);
                    let scratch = c.scratch();
                    Some((c, scratch))
                });
                group.bench_function(&format!("{name}/compiled/vl{vl}"), |b| {
                    b.iter(|| flexvec_isa::with_vlen(vl, || chunks_per_sec(&mut p, &mut engine, 1)))
                });
            }
        }

        group.bench_function(&format!("{name}/tree-walking"), |b| {
            b.iter(|| chunks_per_sec(&mut p, &mut tree_engine, 1))
        });
        group.bench_function(&format!("{name}/compiled"), |b| {
            b.iter(|| chunks_per_sec(&mut p, &mut compiled_engine, 1))
        });
        if native_engine.is_some() {
            group.bench_function(&format!("{name}/native"), |b| {
                b.iter(|| chunks_per_sec(&mut p, &mut native_engine, 1))
            });
        }
        group.bench_function(&format!("{name}/scalar/ooo"), |b| {
            b.iter(|| ns_per_uop(&mut p, &mut None, true, 1))
        });
        group.bench_function(&format!("{name}/compiled/ooo"), |b| {
            b.iter(|| ns_per_uop(&mut p, &mut compiled_engine, true, 1))
        });
    }
    group.finish();
}

/// Short display name for the bench rows (`464.h264ref` → `h264ref`).
trait ShortName {
    fn workload_short_name(&self) -> &'static str;
}

impl ShortName for Workload {
    fn workload_short_name(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(_, tail)| tail)
    }
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
