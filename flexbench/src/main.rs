//! `flexbench` — the repository benchmark.
//!
//! ```text
//! flexbench --workload W --seed S [--seconds N] [--trace 0|1] [--spans FILE] [--smoke]
//! flexbench [--workload W] [--seed S] [--seconds N] --repeat N [--trace 0|1] [--smoke] [--out FILE]
//! flexbench [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! ```
//!
//! With `--workload` alone, one workload runs in this process: it prints
//! each metric with its unit and, as the last line, one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer rows).
//! Otherwise every run is a child process of its own: `--repeat N` runs
//! the workload (or every workload) N times on consecutive seeds and
//! reports each metric's median, quartiles and spread against its bound
//! in `BENCHMARK.json`, and `--trace 1` adds a traced run per workload
//! and reports the tracing overhead.

mod kernels;
mod layers;
mod load;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use flexvec_serve::json::{self, Json};

use crate::stats::{median, quartiles};
use crate::workloads::{Cfg, Outcome, WORKLOADS};

/// The metric contract, compiled in so the binary and the file cannot
/// silently disagree about bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The unit each metric is reported in.
fn unit(name: &str) -> &'static str {
    match name {
        "ops_per_s" | "trace.ops_per_s" | "serve.sustained_rps" => "1/s",
        "latency_p50_ms" | "latency_tail_ms" | "cpu_ms_per_op" => "ms",
        "setup_s" => "s",
        "peak_rss_mb" => "MB",
        "sim.ooo.ns_per_uop" => "ns",
        "serve.cache.evictions" | "serve.registry.resubmits" => "1/op",
        n if n.starts_with("workloads.eval.ms.") => "ms",
        n if n.ends_with(".mb_s") => "MB/s",
        n if n.ends_with("_frac") || n.ends_with(".share") => "frac",
        n if n.ends_with(".us") || n.contains(".us.") => "us",
        _ => "count",
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("flexbench: {msg}");
    eprintln!(
        "usage: flexbench --workload W --seed S [--seconds N] [--trace 0|1] [--spans FILE] [--smoke]\n       \
         flexbench [--workload W] [--seed S] [--seconds N] [--repeat N] [--trace 0|1] [--smoke] [--out FILE]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        spans: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|_| format!("bad {flag} `{v}`"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => a.seconds = Some(num(&value)?).filter(|s| *s > 0.0),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--repeat" => a.repeat = num(&value)?.max(1.0) as usize,
            "--spans" => a.spans = Some(value.into()),
            "--out" => a.out = Some(value.into()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(a)
}

/// What `BENCHMARK.json` declares.
struct Contract {
    run_seconds: f64,
    /// End-to-end metrics: `(name, unit, bound)`.
    e2e: Vec<(String, String, f64)>,
}

fn contract() -> Contract {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(v)) => v.clone(),
        _ => panic!("BENCHMARK.json lacks `{key}`"),
    };
    let s = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(20.0),
        e2e: list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                (s(m, "name"), s(m, "unit"), bound)
            })
            .collect(),
    }
}

/// The result object of one run.
fn result_json(o: &Outcome, metrics: &[(String, f64)]) -> Json {
    let metrics = metrics
        .iter()
        .map(|(name, v)| {
            (
                name.clone(),
                Json::obj([("value", Json::from(*v)), ("unit", Json::from(unit(name)))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::from(o.failed == 0 && o.valid)),
        ("attempted", Json::from(o.attempted.max(1))),
        ("failed", Json::from(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One workload in this process.
fn run_one(workload: &str, a: &Args, c: &Contract) -> ExitCode {
    let seconds = match (a.smoke, a.seconds) {
        (true, None) => 1.0,
        (_, s) => s.unwrap_or(c.run_seconds),
    };
    let cfg = Cfg {
        seed: a.seed,
        seconds,
        trace: a.trace,
        smoke: a.smoke,
    };
    let o = workloads::run(workload, &cfg);
    println!(
        "# flexbench {workload} seed {} {} s{}",
        a.seed,
        seconds,
        if a.trace { " traced" } else { "" }
    );
    for note in &o.notes {
        println!("# {note}");
    }
    let mut metrics: Vec<(String, f64)> = if a.trace {
        let mut rows: Vec<(String, f64)> = o.layers.iter().map(|(k, v)| (k.clone(), *v)).collect();
        if let Some((_, ops)) = o.e2e.iter().find(|(n, _)| *n == "ops_per_s") {
            rows.push(("trace.ops_per_s".to_owned(), *ops));
        }
        rows
    } else {
        o.e2e.iter().map(|(n, v)| ((*n).to_owned(), *v)).collect()
    };
    metrics.sort_by(|x, y| x.0.cmp(&y.0));
    if let Some(tracer) = &o.tracer {
        let path = a.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!("flexbench/out/spans-{workload}-{}.json", a.seed))
        });
        match tracer.write_json(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("flexbench: cannot write {}: {e}", path.display()),
        }
        println!(
            "# {:<24} {:>9} {:>12} {:>12} {:>7}",
            "self time", "spans", "total ms", "self ms", "share"
        );
        let table = trace::self_times(tracer.spans());
        let all: u64 = table.values().map(|t| t.self_ns).sum();
        for (name, t) in &table {
            println!(
                "# {name:<24} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all.max(1) as f64
            );
        }
    }
    for (name, v) in &metrics {
        println!("{name:<36} {v:>16.6} {}", unit(name));
    }
    if !workloads::complete(&o.e2e) {
        eprintln!("flexbench: {workload}: the run produced no usable end-to-end metrics");
        return ExitCode::FAILURE;
    }
    let ok = o.failed == 0 && o.valid;
    if !o.valid {
        eprintln!("flexbench: {workload}: invalid run (shed requests or a late generator)");
    }
    println!("{}", result_json(&o, &metrics));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `flexbench --workload ...` as a child and returns its result
/// object.
fn child(workload: &str, seed: u64, trace: bool, a: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        if line.starts_with('#') {
            println!("  {line}");
        }
    }
    let last = text.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `a.workload`, or every workload, each run in a child process.
fn run_all(a: &Args, c: &Contract) -> ExitCode {
    let chosen: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, true);
    let mut report = BTreeMap::new();
    for w in chosen {
        println!("== {w}");
        let mut runs = Vec::new();
        let mut per_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..a.repeat {
            let seed = a.seed + i as u64;
            match child(w, seed, false, a) {
                Ok(r) => {
                    attempted += r.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                    failed += r.get("failed").and_then(Json::as_u64).unwrap_or(0);
                    ok &= r.get("correct").and_then(Json::as_bool) == Some(true);
                    for (name, _, _) in &c.e2e {
                        if let Some(v) = metric_value(&r, name) {
                            per_metric.entry(name.clone()).or_default().push(v);
                        }
                    }
                    runs.push(r);
                }
                Err(e) => {
                    eprintln!("flexbench: {e}");
                    ok = false;
                }
            }
        }
        let mut summary = BTreeMap::new();
        println!(
            "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>7} unit",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, unit, bound) in &c.e2e {
            let Some(values) = per_metric.get(name) else {
                continue;
            };
            let med = median(values);
            let (q1, q3) = if values.len() >= 2 {
                quartiles(values)
            } else {
                (med, med)
            };
            let spread = (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
            let flag = if values.len() >= 2 && spread > *bound && name != "setup_s" {
                "  SPREAD EXCEEDS BOUND"
            } else {
                ""
            };
            println!(
                "  {name:<18} {med:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>7.3} {unit}{flag}"
            );
            summary.insert(
                name.clone(),
                Json::obj([
                    ("median", Json::from(med)),
                    ("q1", Json::from(q1)),
                    ("q3", Json::from(q3)),
                    ("spread", Json::from(spread)),
                    ("bound", Json::from(*bound)),
                    ("unit", Json::from(unit.as_str())),
                    (
                        "values",
                        Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                    ),
                ]),
            );
        }
        let mut entry = vec![("runs", Json::Arr(runs)), ("summary", Json::Obj(summary))];
        if a.trace {
            match child(w, a.seed, true, a) {
                Ok(r) => {
                    let traced = metric_value(&r, "trace.ops_per_s");
                    let untraced = per_metric.get("ops_per_s").map(|v| median(v));
                    if let (Some(t), Some(u)) = (traced, untraced) {
                        let overhead = 1.0 - t / u;
                        println!(
                            "  tracing overhead: {:.1}% of ops/s ({u:.1} untraced, {t:.1} traced)",
                            overhead * 100.0
                        );
                        entry.push(("tracing_overhead", Json::from(overhead)));
                    }
                    ok &= r.get("correct").and_then(Json::as_bool) == Some(true);
                    entry.push(("traced", r));
                }
                Err(e) => {
                    eprintln!("flexbench: {e}");
                    ok = false;
                }
            }
        }
        report.insert(w.to_owned(), Json::obj(entry));
    }
    let summary = Json::obj([
        ("correct", Json::from(ok && failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("workloads", Json::Obj(report)),
    ]);
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, format!("{summary}\n")) {
            eprintln!("flexbench: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{summary}");
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let c = contract();
    match &args.workload {
        Some(w) if args.repeat == 1 => run_one(w, &args, &c),
        _ => run_all(&args, &c),
    }
}
