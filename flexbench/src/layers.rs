//! The per-layer decomposition of the traced run.
//!
//! For every distinct kernel a workload sends, the benchmark calls each
//! layer's public entry point itself, inside nested spans: the parser,
//! the analysis and the vectorizer, the bytecode compiler and the JIT,
//! scalar and vector execution on a counting sink and under the
//! out-of-order model, a client round trip to a private daemon, and the
//! same request handed straight to an in-process `ServeEngine`. Layer
//! rows are per-call medians, averaged over the workload's kernel mix.

use std::collections::BTreeMap;

use flexvec::{analyze, vectorize_with, SpecRequest};
use flexvec_front::{parse_str, to_fv_kernel, ParsedKernel};
use flexvec_serve::json::{self, Json};
use flexvec_serve::{hash_hex, Request, ServeEngine};
use flexvec_sim::{OooSim, SimConfig};
use flexvec_vm::{
    run_scalar, run_vector_precompiled_with_scratch, run_vector_with_engine, CompiledVProg,
    CountingSink, Engine, TraceSink,
};
use flexvec_workloads::{evaluate_with_engine, VectorMode};

use crate::kernels::{bind_inputs, renamed, Kernel};
use crate::load::{
    compile_line, judge, run_hash_line, run_source_line, Check, Counters, Daemon, Kind, Tally,
    Verdict,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::check_fig8;

/// Runs a kernel needs before the daemon's tier policy serves it
/// natively (its hot threshold is 16).
pub const PROMOTE_RUNS: usize = 20;

/// One kernel of a workload's mix.
pub struct LayerKernel<'a> {
    /// What the workload's `compile` requests send (renamed per call).
    pub wire: &'a ParsedKernel,
    /// The kernel as executed, with its scalar answer.
    pub exec: &'a Kernel,
    /// Share of the workload's requests that carry this kernel.
    pub weight: f64,
}

/// Layer rows by metric name.
pub type Rows = BTreeMap<String, f64>;

/// Per-call samples of one kernel, by row.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, row: &'static str, v: f64) {
        self.0.entry(row).or_default().push(v);
    }

    fn med(&self, row: &str) -> Option<f64> {
        self.0.get(row).map(|v| median(v))
    }
}

/// Weighted mean of one row over the kernels that have it.
fn mix(kernels: &[(f64, Samples)], f: impl Fn(&Samples) -> Option<f64>) -> f64 {
    let (num, den) = kernels
        .iter()
        .filter_map(|(w, s)| f(s).map(|v| (w * v, *w)))
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Decomposes `kernels` layer by layer, `reps` calls per layer each.
/// Wrong replies or outputs are added to `tally`. Returns the layer rows
/// and the private daemon's counters before and after.
pub fn decompose(
    kernels: &[LayerKernel<'_>],
    reps: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Rows, Counters, Counters) {
    let daemon = Daemon::start();
    let mut client = daemon.connect();
    let engine = ServeEngine::new(1024);
    let before = daemon.counters();
    let mut per_kernel = Vec::new();
    for (k, lk) in kernels.iter().enumerate() {
        let id = k as u64;
        let root = tracer.open("kernel", None, id);
        let mut s = Samples::default();
        let wire_source = to_fv_kernel(&lk.wire.program, &lk.wire.inputs);
        for _ in 0..reps {
            call_layers(lk, &wire_source, &mut s, tracer, root, id);
        }
        serve_layers(
            lk,
            k,
            reps,
            &mut client,
            &engine,
            &mut s,
            tracer,
            root,
            tally,
        );
        tracer.close(root);
        per_kernel.push((lk.weight, s));
    }
    drop(client);
    let after = daemon.counters();
    daemon.stop();

    let mut rows = Rows::new();
    let mut put = |name: &str, v: f64| {
        rows.insert(name.to_owned(), v);
    };
    let m = |row: &'static str| mix(&per_kernel, |s| s.med(row));
    let diff = |a: &'static str, b: &'static str| mix(&per_kernel, |s| Some(s.med(a)? - s.med(b)?));
    put("front.parse.us", m("front.parse"));
    put(
        "front.parse.mb_s",
        m("front.parse.bytes") / m("front.parse").max(1e-9),
    );
    put("core.analyze.us", m("core.analyze"));
    put("core.vectorize.us", m("core.vectorize"));
    put("vm.compile.us", m("vm.compile"));
    put("vm.jit.us", m("vm.jit"));
    put("vm.jit.inline_frac", m("vm.jit.inline_frac"));
    put("vm.scalar.us", m("vm.scalar"));
    put("vm.vector.us.tree", m("vm.vector.tree"));
    put("vm.vector.us.bytecode", m("vm.vector.bytecode"));
    put("vm.vector.us.native", m("vm.vector.native"));
    put("vm.vector.uops", m("vm.vector.uops"));
    put("vm.vector.chunks", m("vm.vector.chunks"));
    put("vm.vector.pagecache_hit_frac", m("vm.vector.pagecache_hit"));
    let sim_s = diff("vm.scalar.ooo", "vm.scalar");
    let sim_v = diff("vm.vector.ooo", "vm.vector.bytecode");
    put("sim.ooo.us.scalar", sim_s);
    put("sim.ooo.us.vector", sim_v);
    let uops = m("vm.scalar.uops") + m("vm.vector.uops");
    put("sim.ooo.ns_per_uop", (sim_s + sim_v) * 1e3 / uops.max(1.0));
    put(
        "sim.ooo.share",
        (sim_s + sim_v) / (m("vm.scalar.ooo") + m("vm.vector.ooo")).max(1e-9),
    );
    for kind in [Kind::Compile, Kind::RunHash, Kind::RunSource] {
        let (rtt, handle) = (rtt_row(kind), handle_row(kind));
        put(&format!("serve.rtt.us.{}", kind.name()), m(rtt));
        put(&format!("serve.handle.us.{}", kind.name()), m(handle));
        put(&format!("serve.wire.us.{}", kind.name()), diff(rtt, handle));
    }
    (rows, before, after)
}

/// `workloads.eval.ms.<name>`: one Figure 8 evaluation per workload,
/// median of `reps`, each checked against the golden cycles.
pub fn eval_rows(reps: usize, tracer: &mut Tracer, tally: &mut Tally) -> Rows {
    let mut rows = Rows::new();
    for (i, w) in flexvec_workloads::all().iter().enumerate() {
        let mut ms = Vec::new();
        for _ in 0..reps {
            let (e, us) = tracer.time("workloads.eval", None, i as u64, || {
                evaluate_with_engine(
                    w,
                    SpecRequest::Auto,
                    &SimConfig::table1(),
                    VectorMode::FlexVec,
                    Engine::Compiled,
                )
            });
            tally.attempted += 1;
            tally.failed += u64::from(!check_fig8(i, &e));
            ms.push(us / 1e3);
        }
        rows.insert(format!("workloads.eval.ms.{}", w.name), median(&ms));
    }
    rows
}

fn rtt_row(kind: Kind) -> &'static str {
    match kind {
        Kind::Compile => "serve.rtt.compile",
        Kind::RunHash => "serve.rtt.run_hash",
        Kind::RunSource => "serve.rtt.run_source",
    }
}

fn handle_row(kind: Kind) -> &'static str {
    match kind {
        Kind::Compile => "serve.handle.compile",
        Kind::RunHash => "serve.handle.run_hash",
        Kind::RunSource => "serve.handle.run_source",
    }
}

/// One call of every compile and execution layer on `lk`; the parser
/// reads `wire_source`, the text the workload sends.
fn call_layers(
    lk: &LayerKernel<'_>,
    wire_source: &str,
    s: &mut Samples,
    tracer: &mut Tracer,
    root: usize,
    id: u64,
) {
    let kernel = &lk.exec.parsed;
    let program = &kernel.program;
    let (parsed, us) = tracer.time("front.parse", Some(root), id, || {
        parse_str("<flexbench>", wire_source)
    });
    assert!(
        parsed.is_ok_and(|p| p.program == *program),
        "{} does not reparse to itself",
        program.name
    );
    s.push("front.parse", us);
    s.push("front.parse.bytes", wire_source.len() as f64);
    let (analysis, us) = tracer.time("core.analyze", Some(root), id, || analyze(program));
    s.push("core.analyze", us);
    let (vectorized, us) = tracer.time("core.vectorize", Some(root), id, || {
        vectorize_with(program, &analysis, SpecRequest::Auto)
    });
    s.push("core.vectorize", us);

    let sink_run = |tracer: &mut Tracer, row: &'static str, sink: &mut dyn TraceSink| {
        let (mut mem, bind) = bind_inputs(kernel);
        let (run, us) = tracer.time(row, Some(root), id, || {
            run_scalar(program, &mut mem, bind, sink)
        });
        run.unwrap_or_else(|e| panic!("{}: scalar run faulted: {e}", program.name));
        us
    };
    let mut counting = CountingSink::default();
    s.push("vm.scalar", sink_run(tracer, "vm.scalar", &mut counting));
    s.push("vm.scalar.uops", counting.len() as f64);
    let mut sim = OooSim::new(SimConfig::table1());
    s.push("vm.scalar.ooo", sink_run(tracer, "vm.scalar.ooo", &mut sim));

    let Ok(v) = vectorized else { return };
    let (compiled, us) = tracer.time("vm.compile", Some(root), id, || {
        CompiledVProg::compile(&v.vprog)
    });
    s.push("vm.compile", us);
    let (native, us) = tracer.time("vm.jit", Some(root), id, || {
        let mut c = compiled.clone();
        c.enable_native();
        c
    });
    s.push("vm.jit", us);
    let (_, inline, helper, _) = native.native_info();
    if inline + helper > 0 {
        s.push(
            "vm.jit.inline_frac",
            inline as f64 / (inline + helper) as f64,
        );
    }

    let vector_run = |tracer: &mut Tracer,
                      row: &'static str,
                      plan: Option<&CompiledVProg>,
                      sink: &mut dyn TraceSink| {
        let (mut mem, bind) = bind_inputs(kernel);
        mem.reset_cache_stats();
        let (run, us) = tracer.time(row, Some(root), id, || match plan {
            Some(c) => {
                let mut scratch = c.scratch();
                run_vector_precompiled_with_scratch(
                    program,
                    &v.vprog,
                    c,
                    &mut scratch,
                    &mut mem,
                    bind,
                    sink,
                )
            }
            None => {
                run_vector_with_engine(program, &v.vprog, &mut mem, bind, sink, Engine::TreeWalking)
            }
        });
        let (_, stats) =
            run.unwrap_or_else(|e| panic!("{}: vector run faulted: {e}", program.name));
        (us, stats, mem.cache_stats().hit_rate())
    };
    let (us, _, _) = vector_run(tracer, "vm.vector.tree", None, &mut CountingSink::default());
    s.push("vm.vector.tree", us);
    let mut counting = CountingSink::default();
    let (us, stats, hit) = vector_run(tracer, "vm.vector.bytecode", Some(&compiled), &mut counting);
    s.push("vm.vector.bytecode", us);
    s.push("vm.vector.uops", counting.len() as f64);
    s.push("vm.vector.chunks", stats.chunks as f64);
    s.push("vm.vector.pagecache_hit", hit);
    let (us, _, _) = vector_run(
        tracer,
        "vm.vector.native",
        Some(&native),
        &mut CountingSink::default(),
    );
    s.push("vm.vector.native", us);
    let mut sim = OooSim::new(SimConfig::table1());
    let (us, _, _) = vector_run(tracer, "vm.vector.ooo", Some(&compiled), &mut sim);
    s.push("vm.vector.ooo", us);
}

/// The serve rows of one kernel: each request goes once over TCP to the
/// private daemon (round trip) and once into the in-process engine
/// (handle), in the same order, so both see the same cache and tier
/// state.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    lk: &LayerKernel<'_>,
    k: usize,
    reps: usize,
    client: &mut flexvec_serve::Client,
    engine: &ServeEngine,
    s: &mut Samples,
    tracer: &mut Tracer,
    root: usize,
    tally: &mut Tally,
) {
    let id = k as u64;
    let base = &lk.exec.parsed.program.name;
    let mut both = |tracer: &mut Tracer, kind: Kind, line: &str, check: &Check<'_>, timed: bool| {
        let (text, rtt) = tracer.time(rtt_row(kind), Some(root), id, || {
            client.request_raw(line).expect("daemon connection")
        });
        let request = Request::parse(line).expect("the benchmark sends valid requests");
        let (out, handle) = tracer.time(handle_row(kind), Some(root), id, || {
            engine.handle(&request, None)
        });
        let over_tcp = json::parse(&text).unwrap_or(Json::Null);
        let in_process = match out {
            Ok(r) => flexvec_serve::ok_response(request.id, r.fields),
            Err(e) => flexvec_serve::err_response(request.id, &e),
        };
        for reply in [&over_tcp, &in_process] {
            tally.attempted += 1;
            tally.failed += u64::from(judge(reply, check) != Verdict::Ok);
        }
        if timed {
            s.push(rtt_row(kind), rtt);
            s.push(handle_row(kind), handle);
        }
    };
    for rep in 0..reps {
        let source = renamed(lk.wire, &format!("{base}_c{k}_{rep}"));
        let line = compile_line(id, &source);
        both(tracer, Kind::Compile, &line, &Check::Ok, true);
        let source = renamed(&lk.exec.parsed, &format!("{base}_r{k}_{rep}"));
        let line = run_source_line(id, &source);
        both(
            tracer,
            Kind::RunSource,
            &line,
            &Check::LiveOuts(lk.exec),
            true,
        );
    }
    let hash = hash_hex(flexvec::program_hash(&lk.exec.parsed.program));
    let line = run_source_line(id, &lk.exec.source);
    both(
        tracer,
        Kind::RunSource,
        &line,
        &Check::LiveOuts(lk.exec),
        false,
    );
    let line = run_hash_line(id, &hash);
    for n in 0..PROMOTE_RUNS + reps {
        both(
            tracer,
            Kind::RunHash,
            &line,
            &Check::LiveOuts(lk.exec),
            n >= PROMOTE_RUNS,
        );
    }
}
