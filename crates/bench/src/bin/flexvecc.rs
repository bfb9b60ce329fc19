//! `flexvecc` — the batch driver for `.fv` loop kernels.
//!
//! ```text
//! flexvecc check     <files|dirs...>   parse + vectorize, report verdicts
//! flexvecc vectorize <files|dirs...>   verdicts plus the generated instruction mix
//! flexvecc run       <files|dirs...>   execute scalar vs FlexVec, report speedups
//! flexvecc bench     <files|dirs...>   submit the corpus repeatedly, report cache hit rates
//! flexvecc fuzz [mutants]              differential fuzzing / mutation testing
//! flexvecc serve                       resident compile-and-execute daemon
//! flexvecc client <op> [file.fv]       talk to a running daemon (or pipe stdin)
//! ```
//!
//! Common flags: `--engine tree|compiled`, `--spec ff|rtm[:TILE]`,
//! `--vl 8|16|32|64` (ambient vector length for the local drivers and
//! fuzzer; forwarded per-request by `client`), `--json`; `run`/`bench`
//! also take `--invocations N` and `bench` takes `--waves N`. `fuzz`
//! takes `--seed N`, `--iters N`, `--budget-ms N`
//! and `--repro-dir PATH` (where divergence/mutant repros are written).
//! `serve` takes `--addr`, `--metrics-addr` (or `off`), `--workers`,
//! `--queue`, `--cache`, `--deadline-ms` and `--accept-mode
//! auto|threads`; its compile cache lives in memory only. `client`
//! takes `--addr` plus the run flags, retrying refused connects with
//! capped backoff. `--version` prints the build identity.
//!
//! SIGINT in the long-running modes (`serve`, `fuzz`, `bench`) drains
//! gracefully: the in-flight unit of work finishes and a partial report
//! is emitted; a second SIGINT aborts.
//!
//! Exit status: 0 on success, 1 if any kernel failed to parse or
//! execute (or the fuzzer found a divergence / an escaped mutant, or a
//! client request returned an error), 2 on usage errors.

use flexvec_bench::flags::{CommonFlags, ExtraFlag};
use flexvec_bench::fv::{
    check_fv_file, collect_fv_files, evaluate_fv_all, fv_reports_json, json_escape,
    render_cache_line, render_fv_reports, FvReport,
};
use flexvec_front::CompileCache;
use flexvec_serve::Json;

const ABOUT: &str = "flexvecc: check, vectorize, run, bench, fuzz and serve .fv loop kernels";

/// Default daemon address shared by `serve` and `client`.
const DEFAULT_ADDR: &str = "127.0.0.1:9941";
const DEFAULT_METRICS_ADDR: &str = "127.0.0.1:9942";

fn main() {
    if std::env::args()
        .skip(1)
        .any(|a| a == "--version" || a == "-V")
    {
        println!("flexvecc {}", flexvec_serve::build_info());
        return;
    }
    let flags = CommonFlags::parse(
        "flexvecc <check|vectorize|run|bench|fuzz|serve|client> <files|dirs...>",
        ABOUT,
        &[
            ExtraFlag {
                name: "invocations",
                help: "loop invocations per kernel for run/bench (default 3)",
            },
            ExtraFlag {
                name: "waves",
                help: "corpus submission waves for bench (default 2)",
            },
            ExtraFlag {
                name: "seed",
                help: "fuzz campaign seed (default 0)",
            },
            ExtraFlag {
                name: "iters",
                help: "fuzz case budget (default 500)",
            },
            ExtraFlag {
                name: "budget-ms",
                help: "fuzz wall-clock budget in ms (default unlimited)",
            },
            ExtraFlag {
                name: "repro-dir",
                help: "where fuzz writes minimized repros (default tests/repros)",
            },
            ExtraFlag {
                name: "addr",
                help: "daemon request address for serve/client (default 127.0.0.1:9941)",
            },
            ExtraFlag {
                name: "metrics-addr",
                help: "daemon /metrics address for serve, or `off` (default 127.0.0.1:9942)",
            },
            ExtraFlag {
                name: "workers",
                help: "serve worker pool size (default 4)",
            },
            ExtraFlag {
                name: "queue",
                help: "serve admission queue capacity (default 64)",
            },
            ExtraFlag {
                name: "cache",
                help: "serve compile-cache capacity, 0 = unbounded (default 1024)",
            },
            ExtraFlag {
                name: "deadline-ms",
                help: "request deadline in ms for serve defaults / client requests",
            },
            ExtraFlag {
                name: "vl",
                help: "vector length in lanes for run/bench/fuzz, or per-request for client (8, 16, 32 or 64; default 16)",
            },
            ExtraFlag {
                name: "accept-mode",
                help: "serve accept path: auto (reactor where available) or threads (default auto)",
            },
        ],
    );
    // `--vl` sets the ambient vector length for the local engines (the
    // batch drivers and the fuzzer); `client` additionally forwards it
    // on the wire so the daemon executes at that width.
    let vl = flags.u64_flag("vl", 0) as usize;
    if vl != 0 && flexvec_isa::set_vlen(vl).is_err() {
        eprintln!(
            "flexvecc: --vl must be one of {:?}",
            flexvec_isa::SUPPORTED_VLENS
        );
        std::process::exit(2);
    }
    let Some((cmd, paths)) = flags.positional.split_first() else {
        eprintln!(
            "{ABOUT}\nusage: flexvecc <check|vectorize|run|bench|fuzz|serve|client> <files|dirs...> (see --help)"
        );
        std::process::exit(2);
    };
    if cmd == "fuzz" {
        std::process::exit(if fuzz_cmd(&flags, paths) { 1 } else { 0 });
    }
    if cmd == "serve" {
        std::process::exit(serve_cmd(&flags));
    }
    if cmd == "client" {
        std::process::exit(client_cmd(&flags, paths));
    }
    if paths.is_empty() {
        eprintln!("flexvecc {cmd}: no input files (see --help)");
        std::process::exit(2);
    }
    let files = collect_fv_files(paths).unwrap_or_else(|e| {
        eprintln!("flexvecc: {e}");
        std::process::exit(2);
    });

    let cache = CompileCache::new();
    let invocations = flags.u64_flag("invocations", 3);
    let failed = match cmd.as_str() {
        "check" | "vectorize" => {
            let detailed = cmd == "vectorize";
            let reports: Vec<FvReport> = files
                .iter()
                .map(|f| check_fv_file(f, &cache, flags.spec))
                .collect();
            for (report, file) in reports.iter().zip(&files) {
                match &report.error {
                    Some(rendered) => eprintln!("{rendered}"),
                    None => {
                        println!(
                            "{}: ok — kernel `{}`: {}",
                            report.source, report.kernel, report.verdict
                        );
                        if detailed {
                            if let Some(mix) = kernel_mix(file, &cache, flags.spec) {
                                println!("    mix: {mix}");
                            }
                        }
                    }
                }
            }
            if flags.json {
                print!("{}", fv_reports_json(&reports, &cache));
            }
            reports.iter().any(FvReport::is_failure)
        }
        "run" => {
            let reports = evaluate_fv_all(&files, &cache, flags.spec, flags.engine, invocations);
            emit_run(&reports, &cache, flags.json);
            reports.iter().any(FvReport::is_failure)
        }
        "bench" => {
            flexvec_serve::install_sigint_handler();
            let waves = flags.u64_flag("waves", 2).max(1);
            let mut any_failed = false;
            let mut last_reports = Vec::new();
            for wave in 1..=waves {
                if flexvec_serve::interrupted() {
                    eprintln!(
                        "flexvecc bench: interrupted after wave {} of {waves} — partial report follows",
                        wave - 1
                    );
                    break;
                }
                cache.reset_counters();
                let start = std::time::Instant::now();
                let reports =
                    evaluate_fv_all(&files, &cache, flags.spec, flags.engine, invocations);
                let elapsed = start.elapsed();
                let stats = cache.stats();
                if !flags.json {
                    println!(
                        "wave {wave}/{waves}: {} kernels in {elapsed:.2?} — cache {:.0}% hit ({} compiles total)",
                        reports.len(),
                        stats.hit_rate() * 100.0,
                        cache.compiles()
                    );
                }
                any_failed |= reports.iter().any(FvReport::is_failure);
                last_reports = reports;
            }
            if !flags.json {
                println!();
            }
            emit_run(&last_reports, &cache, flags.json);
            any_failed
        }
        other => {
            eprintln!(
                "flexvecc: unknown command `{other}` (expected check, vectorize, run, bench or fuzz)"
            );
            std::process::exit(2);
        }
    };
    if failed {
        std::process::exit(1);
    }
}

/// `flexvecc fuzz [mutants]` — differential fuzzing (default) or
/// mutation testing (`mutants`). Returns whether the run failed.
fn fuzz_cmd(flags: &CommonFlags, modes: &[String]) -> bool {
    let seed = flags.u64_flag("seed", 0);
    let iters = flags.u64_flag("iters", 500);
    let budget_ms = flags.u64_flag("budget-ms", 0);
    let repro_dir = std::path::PathBuf::from(flags.str_flag("repro-dir", "tests/repros"));
    match modes.first().map(String::as_str) {
        Some("mutants") => fuzz_mutants(flags, seed, iters, &repro_dir),
        None => fuzz_campaign(flags, seed, iters, budget_ms, &repro_dir),
        Some(other) => {
            eprintln!("flexvecc fuzz: unknown mode `{other}` (expected nothing or `mutants`)");
            std::process::exit(2);
        }
    }
}

fn write_repro(dir: &std::path::Path, name: &str, text: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("flexvecc fuzz: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    path
}

fn fuzz_campaign(
    flags: &CommonFlags,
    seed: u64,
    iters: u64,
    budget_ms: u64,
    repro_dir: &std::path::Path,
) -> bool {
    flexvec_serve::install_sigint_handler();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        // Bridge the process-wide SIGINT flag into the campaign's
        // cooperative stop flag; the watcher dies with the process.
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || loop {
            if flexvec_serve::interrupted() {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    let started = std::time::Instant::now();
    let outcome = flexvec_fuzz::run_fuzz(&flexvec_fuzz::FuzzConfig {
        seed,
        iters,
        budget_ms,
        stop: Some(stop),
        ..flexvec_fuzz::FuzzConfig::default()
    });
    let elapsed = started.elapsed();
    if outcome.interrupted {
        eprintln!(
            "flexvecc fuzz: interrupted after {} case(s) — partial report follows",
            outcome.cases
        );
    }
    if flags.json {
        let divergence = match &outcome.divergence {
            None => "null".to_owned(),
            Some(d) => format!(
                "{{\"case\": {}, \"config\": \"{}\", \"detail\": \"{}\", \"repro\": \"{}\"}}",
                d.case_index,
                json_escape(&d.config),
                json_escape(&d.detail),
                json_escape(&d.repro)
            ),
        };
        println!(
            "{{\n  \"seed\": {seed},\n  \"cases\": {},\n  \"vector_runs\": {},\n  \"rejected_specs\": {},\n  \"rejected_widths\": {},\n  \"elapsed_ms\": {},\n  \"interrupted\": {},\n  \"divergence\": {divergence}\n}}",
            outcome.cases,
            outcome.vector_runs,
            outcome.rejected_specs,
            outcome.rejected_widths,
            elapsed.as_millis(),
            outcome.interrupted
        );
    }
    match &outcome.divergence {
        None => {
            if !flags.json {
                println!(
                    "fuzz: seed {seed}: {} cases, {} vector runs, {} rejected spec combos, {} over-ceiling widths refused in {elapsed:.2?} — no divergence{}",
                    outcome.cases,
                    outcome.vector_runs,
                    outcome.rejected_specs,
                    outcome.rejected_widths,
                    if outcome.interrupted { " (partial: interrupted)" } else { "" }
                );
            }
            false
        }
        Some(d) => {
            let path = write_repro(
                repro_dir,
                &format!("fuzz_seed{seed}_case{}.fv", d.case_index),
                &d.repro,
            );
            eprintln!(
                "fuzz: seed {seed}, case {}: DIVERGENCE under {} — {}\nminimized repro written to {}",
                d.case_index,
                d.config,
                d.detail,
                path.display()
            );
            true
        }
    }
}

fn fuzz_mutants(flags: &CommonFlags, seed: u64, iters: u64, repro_dir: &std::path::Path) -> bool {
    let reports = flexvec_fuzz::run_mutants(seed, iters.max(1), 400);
    let mut failed = false;
    let mut json_items = Vec::new();
    for report in &reports {
        let name = report.mutant.name();
        match &report.repro {
            Some(repro) => {
                let lines = repro.lines().count();
                let path = write_repro(repro_dir, &format!("mutant_{name}.fv"), repro);
                if !flags.json {
                    println!(
                        "mutant {name}: caught under {} after {} case(s); {lines}-line repro -> {}",
                        report.config,
                        report.cases_tried,
                        path.display()
                    );
                }
                if lines > 20 {
                    eprintln!("mutant {name}: repro is {lines} lines (limit 20)");
                    failed = true;
                }
            }
            None => {
                eprintln!(
                    "mutant {name}: NOT caught in {} case(s)",
                    report.cases_tried
                );
                failed = true;
            }
        }
        json_items.push(format!(
            "{{\"mutant\": \"{name}\", \"caught\": {}, \"cases\": {}, \"config\": \"{}\", \"detail\": \"{}\"}}",
            report.caught,
            report.cases_tried,
            json_escape(&report.config),
            json_escape(&report.detail)
        ));
    }
    if flags.json {
        println!(
            "{{\"seed\": {seed}, \"mutants\": [{}]}}",
            json_items.join(", ")
        );
    }
    failed
}

fn emit_run(reports: &[FvReport], cache: &CompileCache, json: bool) {
    if json {
        print!("{}", fv_reports_json(reports, cache));
    } else {
        print!("{}", render_fv_reports(reports));
        println!("{}", render_cache_line(cache));
        for report in reports {
            if let Some(e) = &report.error {
                eprintln!("\n{}: {e}", report.source);
            }
        }
    }
}

/// The FlexVec instruction mix of a kernel that vectorized (for
/// `flexvecc vectorize`).
fn kernel_mix(
    file: &std::path::Path,
    cache: &CompileCache,
    spec: flexvec::SpecRequest,
) -> Option<String> {
    let kernel = flexvec_front::parse_file(file).ok()?;
    let (compiled, _) = cache.get_or_compile(&kernel.program, spec);
    let plan = compiled.plan.as_ref().ok()?;
    Some(plan.vectorized.vprog.inst_mix().flexvec_summary())
}

/// `flexvecc serve` — runs the resident daemon until SIGINT, then
/// drains gracefully. Returns the process exit code.
fn serve_cmd(flags: &CommonFlags) -> i32 {
    let metrics_addr = match flags.str_flag("metrics-addr", DEFAULT_METRICS_ADDR) {
        s if s == "off" => None,
        s => Some(s),
    };
    let accept_mode = match flags.str_flag("accept-mode", "auto").as_str() {
        "auto" => flexvec_serve::AcceptMode::Auto,
        "threads" => flexvec_serve::AcceptMode::Threads,
        other => {
            eprintln!("flexvecc serve: unknown --accept-mode `{other}` (expected auto or threads)");
            return 2;
        }
    };
    let config = flexvec_serve::ServerConfig {
        addr: flags.str_flag("addr", DEFAULT_ADDR),
        metrics_addr,
        workers: flags.u64_flag("workers", 4).max(1) as usize,
        queue_capacity: flags.u64_flag("queue", 64).max(1) as usize,
        cache_capacity: flags.u64_flag("cache", 1024) as usize,
        default_deadline_ms: match flags.u64_flag("deadline-ms", 0) {
            0 => None,
            n => Some(n),
        },
        accept_mode,
    };
    flexvec_serve::install_sigint_handler();
    let handle = match flexvec_serve::start(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("flexvecc serve: cannot start: {e}");
            return 2;
        }
    };
    println!("{}", flexvec_serve::startup_line(&handle, &config));
    while !flexvec_serve::interrupted() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("flexvecc serve: SIGINT received — draining (press ^C again to abort)");
    handle.shutdown();
    eprintln!("flexvecc serve: drained cleanly");
    0
}

/// `flexvecc client` — one request against a running daemon, or a
/// stdin pipeline of raw protocol lines. Returns the exit code.
fn client_cmd(flags: &CommonFlags, args: &[String]) -> i32 {
    let addr = flags.str_flag("addr", DEFAULT_ADDR);
    // Retried connect: a daemon that is restarting (or still binding
    // its listener) refuses briefly; back off 100 ms → 200 ms rather
    // than failing a scripted pipeline on the race.
    let mut client = match flexvec_serve::Client::connect_with_retry(
        &addr,
        flexvec_serve::client::CONNECT_ATTEMPTS,
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("flexvecc client: cannot connect to {addr}: {e}");
            return 2;
        }
    };
    match args.first().map(String::as_str) {
        // Pipeline mode: forward raw request lines from stdin, print
        // one response line each.
        None | Some("-") => {
            use std::io::BufRead;
            let stdin = std::io::stdin();
            let mut failed = false;
            for line in stdin.lock().lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("flexvecc client: stdin: {e}");
                        return 2;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                match client.request_raw(&line) {
                    Ok(response) => {
                        failed |= response.contains("\"ok\":false");
                        println!("{response}");
                    }
                    Err(e) => {
                        eprintln!("flexvecc client: {e}");
                        return 2;
                    }
                }
            }
            i32::from(failed)
        }
        Some("stats") => emit_client_response(
            &mut client,
            &flexvec_serve::Json::obj([("op", Json::from("stats"))]),
        ),
        Some(op @ ("compile" | "run" | "bench")) => {
            let Some(file) = args.get(1) else {
                eprintln!("flexvecc client: `{op}` needs a .fv file (see --help)");
                return 2;
            };
            let source = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("flexvecc client: cannot read {file}: {e}");
                    return 2;
                }
            };
            let mut request = vec![
                ("op", Json::from(op)),
                ("source", Json::from(source)),
                (
                    "invocations",
                    Json::from(flags.u64_flag("invocations", 3).max(1)),
                ),
            ];
            // A *present* spec field pins the variant on the daemon and
            // bypasses its choice by cycles (even `--spec ff`); without
            // --spec the daemon chooses.
            if flags.spec_explicit {
                let spec = match flags.spec {
                    flexvec::SpecRequest::Auto => "ff".to_owned(),
                    flexvec::SpecRequest::Rtm { tile } => format!("rtm:{tile}"),
                };
                request.push(("spec", Json::from(spec)));
            }
            // Without an explicit --engine the daemon runs native code
            // where its host has the JIT (wire default `auto`).
            if flags.engine_explicit {
                let engine = match flags.engine {
                    flexvec_vm::Engine::TreeWalking => "tree",
                    flexvec_vm::Engine::Compiled => "compiled",
                    flexvec_vm::Engine::Native => "native",
                };
                request.push(("engine", Json::from(engine)));
            }
            if let n @ 1.. = flags.u64_flag("deadline-ms", 0) {
                request.push(("deadline_ms", Json::from(n)));
            }
            // An explicit --vl rides the request so the daemon runs the
            // kernel at that width (its compile cache entry is shared
            // across widths either way).
            if let n @ 1.. = flags.u64_flag("vl", 0) {
                request.push(("vl", Json::from(n)));
            }
            emit_client_response(&mut client, &Json::obj(request))
        }
        Some(other) => {
            eprintln!(
                "flexvecc client: unknown op `{other}` (expected compile, run, bench, stats or `-`)"
            );
            2
        }
    }
}

/// Sends one request, prints the response line, and maps `ok` to the
/// exit code.
fn emit_client_response(client: &mut flexvec_serve::Client, request: &Json) -> i32 {
    match client.request(request) {
        Ok(response) => {
            println!("{response}");
            i32::from(response.get("ok").and_then(Json::as_bool) != Some(true))
        }
        Err(e) => {
            eprintln!("flexvecc client: {e}");
            2
        }
    }
}
