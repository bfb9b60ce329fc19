//! `serve_load` — load generator for the flexvec-serve daemon.
//!
//! Starts an in-process daemon on an ephemeral port, drives it over
//! real TCP from a pool of client threads, and reports p50/p95/p99
//! latency plus sustained req/s for three traffic shapes:
//!
//! * **repeat** — the same small kernel set over and over: every
//!   request after the warmup is a compile-cache hit;
//! * **one-shot** — every request is a distinct kernel: every request
//!   pays the full analyze→vectorize→bytecode-compile pipeline;
//! * **run** — end-to-end execute requests (scalar baseline + vector
//!   + verification) for execution-latency percentiles;
//! * **width sweep** — the run traffic repeated at every supported
//!   vector length (`"vl": 8/16/32/64` on the wire), reporting a
//!   per-width throughput table off one shared compile-cache set.
//!
//! The headline number is the repeat/one-shot throughput ratio: the
//! service exists so that repeat-kernel traffic skips compilation, and
//! this driver fails (exit 1) if that ratio drops below 5× — both
//! shapes travel the same wire and queue, so the ratio isolates the
//! cache.
//!
//! A fourth phase demonstrates tiered execution end to end: one
//! straight-line-heavy kernel is submitted with the engine omitted
//! (`auto`), so the daemon's tier policy runs it on bytecode first and
//! promotes it to native once it is hot. The second hot request's
//! `chunks_per_sec` (measured by the daemon around its own exec loop,
//! so the wire cancels out; the first one verifies its new variant on
//! the cycle model) is compared against a forced `"engine":"compiled"`
//! bench of the same kernel, and on x86-64 hosts the run fails unless
//! the kernel was promoted and the native tier beats the bytecode tier
//! by a measurable margin.
//!
//! Two further regression-failing scenarios:
//!
//! * `--scenario autotune` — a mixed trace over three kernel families
//!   with conflicting best specs (RTM-only, fault-tail, store-heavy)
//!   against every fixed `(spec, tile)` in a sweep grid and against an
//!   autotuned daemon; fails unless the autotuner beats *every* fixed
//!   configuration on aggregate req/s, and unless explicit `--spec` /
//!   `--engine` pins demonstrably bypass it.
//! * `--scenario idle-conns` — parks `--idle-conns` (default 5000) idle
//!   connections on one daemon and fails unless the epoll reactor
//!   accepts them all, reports them open, and holds them without
//!   growing the process thread count. It needs about two descriptors
//!   per connection and is skipped where there is no reactor (off
//!   x86-64 Linux).
//!
//! ```text
//! serve_load [--scenario autotune|idle-conns]
//!            [--clients N] [--requests N] [--kernels K] [--workers N]
//!            [--idle-conns N] [--warmup N] [--json]
//! ```

use std::time::{Duration, Instant};

use flexvec_bench::flags::{json_f64, CommonFlags, ExtraFlag};
use flexvec_serve::{start, Client, Json, ServerConfig};

/// Minimum repeat/one-shot throughput ratio the run must demonstrate.
const MIN_SPEEDUP: f64 = 5.0;

/// Minimum native-over-bytecode throughput ratio the promoted hot
/// kernel must demonstrate on hosts with the x86-64 back end. The
/// in-process bar (vm_throughput) is 1.5×; over the daemon we only
/// require a measurable margin, leaving headroom for scheduler noise.
const MIN_TIER_SPEEDUP: f64 = 1.05;

/// How many conditional-update patterns each generated kernel carries.
/// Sized so the analyze→vectorize→bytecode-compile pipeline (what the
/// cache amortizes) dominates one TCP round-trip, as it does for
/// production-sized kernels.
const PATTERNS: u64 = 12;

/// Distinct constants give distinct ASTs (and so distinct cache keys);
/// the shape is the paper's conditional-update minimum, repeated over
/// [`PATTERNS`] independent arrays with a 64-iteration loop.
fn kernel_source(n: u64) -> String {
    let mut src = format!("kernel k{n};\nvar i = 0;\n");
    for p in 0..PATTERNS {
        src.push_str(&format!("var b{p} = 9223372036854775807;\n"));
    }
    for p in 0..PATTERNS {
        src.push_str(&format!("array a{p}[64] = seed {};\n", n + p + 1));
    }
    for p in 0..PATTERNS {
        src.push_str(&format!("live_out b{p};\n"));
    }
    src.push_str("for (i = 0; i < 64; i++) {\n");
    for p in 0..PATTERNS {
        src.push_str(&format!(
            "  if (a{p}[i] + {n} < b{p}) {{\n    b{p} = a{p}[i] + {n};\n  }}\n"
        ));
    }
    src.push_str("}\n");
    src
}

/// The hot kernel for the tier-promotion phase: a long unguarded
/// arithmetic chain, the shape the native tier compiles (almost)
/// entirely to inline machine code. Same family as the `straightline`
/// kernel in the `vm_throughput` bench, expressed in `.fv`.
const HOT_KERNEL: &str = "\
kernel hotline;
var i = 0;
var acc = 0;
var t = 0;
array data[512] = seed 7;
array out[512] = seed 1;
live_out acc;
for (i = 0; i < 2048; i++) {
  t = data[i & 511] * 3 + i - 7;
  t = (t + t * 5) & 65535;
  t = t + t * 2 - i;
  t = t & 65535;
  if (t > acc) {
    acc = t;
  }
  out[i & 511] = t;
}
";

/// What the tier-promotion phase observed.
struct TierReport {
    /// Engine labels of the auto requests, in order (expected to walk
    /// compiled → native on x86-64 hosts).
    labels: Vec<String>,
    /// Daemon-measured chunks/s of the final (hot) auto request.
    hot_cps: f64,
    /// Daemon-measured chunks/s of the forced-bytecode baseline.
    bytecode_cps: f64,
    /// `flexvec_tier_promotions_total` after the walk.
    promotions: u64,
    /// Whether the daemon's host has the native back end.
    native_supported: bool,
}

impl TierReport {
    fn ratio(&self) -> f64 {
        self.hot_cps / self.bytecode_cps.max(1e-9)
    }
}

/// Walks one kernel through the daemon's tier policy and measures the
/// promoted hot tier against a forced-bytecode baseline.
fn drive_tiers(addr: &str) -> TierReport {
    let mut client = Client::connect(addr).expect("connect tier client");
    let mut bench = |engine: Option<&str>, invocations: u64| -> Json {
        let mut fields = vec![
            ("op", Json::from("bench")),
            ("source", Json::from(HOT_KERNEL)),
            ("invocations", Json::from(invocations)),
        ];
        if let Some(engine) = engine {
            fields.push(("engine", Json::from(engine)));
        }
        let response = client
            .request(&Json::obj(fields))
            .expect("tier bench request");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "tier bench failed: {response}"
        );
        response
    };

    // The policy starts a kernel on bytecode and promotes it on
    // cumulative run count (hot at 16), and each request counts
    // `invocations` runs. The first auto request therefore runs on
    // bytecode with 0 runs seen, and the next ones on native with 16
    // seen (on hosts that have it).
    let label = |r: &Json| {
        r.get("engine")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let warm = bench(None, 16);
    // A new invocation count is a new variant, so the first hot
    // request verifies on the cycle model. The one after it reports
    // the stored cycles, like the forced-bytecode baseline below, so
    // the two measure execution alone.
    bench(None, 48);
    let hot = bench(None, 48);
    let hot_cps = hot
        .get("chunks_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let labels = vec![label(&warm), label(&hot)];

    // Forced-bytecode baseline for the same kernel, same wire, same
    // daemon. Explicit engines bypass the tier policy, so this does
    // not disturb the walk above.
    let baseline = bench(Some("compiled"), 48);
    let bytecode_cps = baseline
        .get("chunks_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);

    let stats = client
        .request(&Json::obj([("op", Json::from("stats"))]))
        .expect("stats request");
    TierReport {
        labels,
        hot_cps,
        bytecode_cps,
        promotions: stats
            .get("tier_promotions_total")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        native_supported: stats
            .get("native_supported")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    }
}

struct Phase {
    latencies: Vec<Duration>,
    wall: Duration,
    failures: u64,
}

impl Phase {
    fn req_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.latencies.len() as f64 / secs
        } else {
            0.0
        }
    }

    fn percentile(&self, p: f64) -> Duration {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        if sorted.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }
}

/// Fires `total` requests at the daemon from `clients` threads; the
/// request body for global index `i` comes from `make`.
fn drive(addr: &str, clients: usize, total: u64, make: impl Fn(u64) -> Json + Sync) -> Phase {
    let per_client = total.div_ceil(clients as u64);
    let started = Instant::now();
    let results: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
        let make = &make;
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect load client");
                    let mut latencies = Vec::new();
                    let mut failures = 0u64;
                    let lo = c * per_client;
                    let hi = (lo + per_client).min(total);
                    for i in lo..hi {
                        let request = make(i);
                        let t0 = Instant::now();
                        let response = client.request(&request).expect("request");
                        latencies.push(t0.elapsed());
                        if response.get("ok").and_then(Json::as_bool) != Some(true) {
                            failures += 1;
                        }
                    }
                    (latencies, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    let mut latencies = Vec::new();
    let mut failures = 0;
    for (l, f) in results {
        latencies.extend(l);
        failures += f;
    }
    Phase {
        latencies,
        wall,
        failures,
    }
}

fn compile_request(source: String) -> Json {
    Json::obj([
        ("op", Json::from("compile")),
        ("source", Json::from(source)),
    ])
}

fn main() {
    let flags = CommonFlags::parse(
        "serve_load",
        "serve_load: drive a flexvec-serve daemon and measure latency/throughput",
        &[
            ExtraFlag {
                name: "clients",
                help: "concurrent client connections (default 4)",
            },
            ExtraFlag {
                name: "requests",
                help: "requests per measured phase (default 1000)",
            },
            ExtraFlag {
                name: "kernels",
                help: "distinct kernels in the repeat set (default 8)",
            },
            ExtraFlag {
                name: "workers",
                help: "daemon worker pool size (default 4)",
            },
            ExtraFlag {
                name: "run-requests",
                help: "execute requests for the run-latency phase (default 60)",
            },
            ExtraFlag {
                name: "scenario",
                help: "alternate scenario: autotune | idle-conns (default: main load run)",
            },
            ExtraFlag {
                name: "idle-conns",
                help: "idle connections the idle-conns scenario parks on one daemon (default 5000)",
            },
            ExtraFlag {
                name: "warmup",
                help: "autotune scenario: warmup requests per kernel family (default 20)",
            },
        ],
    );
    match flags.str_flag("scenario", "").as_str() {
        "" => {}
        "autotune" => std::process::exit(scenario_autotune(&flags)),
        "idle-conns" => std::process::exit(scenario_idle_conns(&flags)),
        other => {
            eprintln!("serve_load: unknown scenario `{other}` (expected autotune or idle-conns)");
            std::process::exit(2);
        }
    }
    let clients = flags.u64_flag("clients", 4).max(1) as usize;
    let requests = flags.u64_flag("requests", 1000).max(1);
    let kernels = flags.u64_flag("kernels", 8).max(1);
    let workers = flags.u64_flag("workers", 4).max(1) as usize;
    let run_requests = flags.u64_flag("run-requests", 60).max(1);

    let config = ServerConfig {
        workers,
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        ..base_config()
    };
    let handle = start(config).expect("start daemon");
    let addr = handle.addr.to_string();

    // Warmup: register + compile the repeat set once, collecting the
    // content hashes the daemon assigns.
    let mut warm_client = Client::connect(&addr).expect("connect warmup client");
    let hashes: Vec<String> = (0..kernels)
        .map(|i| {
            let response = warm_client
                .request(&compile_request(kernel_source(i)))
                .expect("warmup request");
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "warmup compile failed: {response}"
            );
            response
                .get("hash")
                .and_then(Json::as_str)
                .expect("warmup response carries hash")
                .to_owned()
        })
        .collect();
    drop(warm_client);

    // Repeat-kernel traffic: requests reference the registered hash —
    // no source on the wire, no parse, pure cache hits.
    let hashes_ref = &hashes;
    let repeat = drive(&addr, clients, requests, |i| {
        Json::obj([
            ("op", Json::from("compile")),
            (
                "hash",
                Json::from(hashes_ref[(i % kernels) as usize].as_str()),
            ),
        ])
    });

    // One-shot traffic: every request is a new kernel (ids offset past
    // the repeat set), so every request compiles.
    let oneshot = drive(&addr, clients, requests, |i| {
        compile_request(kernel_source(1_000_000 + i))
    });

    // Execute traffic, for end-to-end run latency percentiles.
    let run = drive(&addr, clients, run_requests, |i| {
        Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(kernel_source(i % kernels))),
        ])
    });

    // Width sweep: the same repeat-set run traffic at every supported
    // vector length, each request carrying an explicit `vl`. The
    // compile cache is width-independent, so every width after the
    // first rides the same cached plans; what changes is chunk count
    // per invocation (narrower vl → more chunks → more dispatch).
    let widths: Vec<(usize, Phase)> = flexvec_isa::SUPPORTED_VLENS
        .iter()
        .map(|&vl| {
            let phase = drive(&addr, clients, run_requests, |i| {
                Json::obj([
                    ("op", Json::from("run")),
                    ("source", Json::from(kernel_source(i % kernels))),
                    ("vl", Json::from(vl as u64)),
                ])
            });
            (vl, phase)
        })
        .collect();

    // Tier promotion: one hot kernel starts on bytecode and is promoted
    // to native under the auto policy, then races the promoted tier
    // against a forced-bytecode baseline.
    let tiers = drive_tiers(&addr);

    let metrics_text = handle
        .metrics_addr
        .map(|a| flexvec_serve::fetch_metrics(&a.to_string()).expect("scrape /metrics"));
    let stats = handle.engine().cache().stats();
    let speedup = repeat.req_per_sec() / oneshot.req_per_sec().max(1e-9);
    let width_failures: u64 = widths.iter().map(|(_, p)| p.failures).sum();
    let failures = repeat.failures + oneshot.failures + run.failures + width_failures;
    handle.shutdown();

    if flags.json {
        let width_rps = widths
            .iter()
            .map(|(vl, p)| format!("\"{vl}\": {}", json_f64(p.req_per_sec())))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\n  \"clients\": {clients},\n  \"requests\": {requests},\n  \"kernels\": {kernels},\n  \
             \"repeat_rps\": {},\n  \"oneshot_rps\": {},\n  \"speedup\": {},\n  \
             \"repeat_p50_us\": {},\n  \"repeat_p95_us\": {},\n  \"repeat_p99_us\": {},\n  \
             \"run_p50_us\": {},\n  \"run_p95_us\": {},\n  \"run_p99_us\": {},\n  \
             \"width_rps\": {{{width_rps}}},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"tier_walk\": [{}],\n  \"tier_bytecode_cps\": {},\n  \"tier_hot_cps\": {},\n  \
             \"tier_ratio\": {},\n  \"tier_promotions\": {},\n  \
             \"native_supported\": {},\n  \"failures\": {failures}\n}}",
            json_f64(repeat.req_per_sec()),
            json_f64(oneshot.req_per_sec()),
            json_f64(speedup),
            repeat.percentile(0.50).as_micros(),
            repeat.percentile(0.95).as_micros(),
            repeat.percentile(0.99).as_micros(),
            run.percentile(0.50).as_micros(),
            run.percentile(0.95).as_micros(),
            run.percentile(0.99).as_micros(),
            stats.hits,
            stats.misses,
            tiers
                .labels
                .iter()
                .map(|l| format!("\"{l}\""))
                .collect::<Vec<_>>()
                .join(", "),
            json_f64(tiers.bytecode_cps),
            json_f64(tiers.hot_cps),
            json_f64(tiers.ratio()),
            tiers.promotions,
            tiers.native_supported,
        );
    } else {
        println!(
            "serve_load: {clients} clients x {requests} requests, {kernels}-kernel repeat set, {workers} workers"
        );
        println!(
            "  repeat (cache-hit):  {:>9.0} req/s   p50 {:>6?} p95 {:>6?} p99 {:>6?}",
            repeat.req_per_sec(),
            repeat.percentile(0.50),
            repeat.percentile(0.95),
            repeat.percentile(0.99),
        );
        println!(
            "  one-shot (compile):  {:>9.0} req/s   p50 {:>6?} p95 {:>6?} p99 {:>6?}",
            oneshot.req_per_sec(),
            oneshot.percentile(0.50),
            oneshot.percentile(0.95),
            oneshot.percentile(0.99),
        );
        println!(
            "  run (exec+verify):   {:>9.0} req/s   p50 {:>6?} p95 {:>6?} p99 {:>6?}",
            run.req_per_sec(),
            run.percentile(0.50),
            run.percentile(0.95),
            run.percentile(0.99),
        );
        for (vl, phase) in &widths {
            println!(
                "  run at vl {vl:>2}:        {:>9.0} req/s   p50 {:>6?} p95 {:>6?} p99 {:>6?}",
                phase.req_per_sec(),
                phase.percentile(0.50),
                phase.percentile(0.95),
                phase.percentile(0.99),
            );
        }
        println!(
            "  cache: {} hits / {} misses; repeat-vs-one-shot speedup: {speedup:.1}x",
            stats.hits, stats.misses
        );
        println!(
            "  tiers (hot kernel):  {}   bytecode {:.3e} -> hot {:.3e} chunks/s \
             ({:.2}x; {} promotion(s))",
            tiers.labels.join(" -> "),
            tiers.bytecode_cps,
            tiers.hot_cps,
            tiers.ratio(),
            tiers.promotions,
        );
        if let Some(text) = &metrics_text {
            let hits = text
                .lines()
                .find(|l| l.starts_with("flexvec_cache_hits_total"))
                .unwrap_or("flexvec_cache_hits_total <missing>");
            let promotions = text
                .lines()
                .find(|l| l.starts_with("flexvec_tier_promotions_total"))
                .unwrap_or("flexvec_tier_promotions_total <missing>");
            println!("  /metrics scrape ok ({hits}; {promotions})");
        }
    }

    if failures > 0 {
        eprintln!("serve_load: {failures} request(s) failed");
        std::process::exit(1);
    }
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "serve_load: repeat-kernel speedup {speedup:.1}x is below the required {MIN_SPEEDUP:.0}x"
        );
        std::process::exit(1);
    }
    // A bytecode-only host has nothing to promote to.
    if tiers.native_supported {
        if tiers.promotions == 0 {
            eprintln!("serve_load: the tier policy never promoted the hot kernel");
            std::process::exit(1);
        }
        if tiers.labels.last().map(String::as_str) != Some("native") {
            eprintln!(
                "serve_load: hot kernel was not promoted to the native tier \
                 (walk: {})",
                tiers.labels.join(" -> ")
            );
            std::process::exit(1);
        }
        if tiers.ratio() < MIN_TIER_SPEEDUP {
            eprintln!(
                "serve_load: native tier {:.2}x over bytecode is below the required \
                 {MIN_TIER_SPEEDUP:.2}x",
                tiers.ratio()
            );
            std::process::exit(1);
        }
    }
}

/// The shared daemon shape: ephemeral port, no metrics listener,
/// unbounded in-memory cache.
fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        metrics_addr: None,
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 0,
        default_deadline_ms: None,
        accept_mode: flexvec_serve::AcceptMode::Auto,
    }
}

/// Threads currently in this process, from `/proc/self/status`.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// `--scenario idle-conns`: parks `--idle-conns` idle connections on
/// one daemon. The reactor must accept them all, report them open, and
/// hold them without growing the process thread count, while a live
/// request still gets through. Exit 1 on regression. Skipped where
/// there is no reactor: thread-per-connection would start one thread
/// per parked socket.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn scenario_idle_conns(flags: &CommonFlags) -> i32 {
    let idle_conns = flags.u64_flag("idle-conns", 5000);
    let handle = start(base_config()).expect("start daemon");
    let addr = handle.addr.to_string();

    let mut failed = false;
    let threads_before = process_threads();
    let idle: Vec<std::net::TcpStream> = (0..idle_conns)
        .filter_map(|_| std::net::TcpStream::connect(&addr).ok())
        .collect();
    let idle_held = idle.len() as u64;
    if idle_held < idle_conns {
        eprintln!(
            "serve_load idle-conns: REGRESSION — only {idle_held}/{idle_conns} \
             idle connections accepted"
        );
        failed = true;
    }
    // The reactor accepts asynchronously; a live request queues behind
    // the parked herd's accepts and proves requests still flow.
    let mut probe = Client::connect(&addr).expect("probe connect");
    let response = probe
        .request(&Json::obj([("op", Json::from("stats"))]))
        .expect("stats with idle herd");
    let open = response
        .get("open_connections")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if open < idle_held {
        eprintln!(
            "serve_load idle-conns: the daemon reports {open} open connections, \
             expected at least the {idle_held} parked ones"
        );
        failed = true;
    }
    let threads_after = process_threads();
    if let (Some(before), Some(after)) = (threads_before, threads_after) {
        // Thread-per-connection would add ~one thread per parked
        // socket; the reactor must add none.
        if after > before + 8 {
            eprintln!(
                "serve_load idle-conns: REGRESSION — thread count grew {before} -> {after} \
                 while parking {idle_held} idle connections"
            );
            failed = true;
        }
    }
    drop(probe);
    drop(idle);
    handle.shutdown();

    let threads = |t: Option<u64>| t.map_or_else(|| "null".to_owned(), |t| t.to_string());
    if flags.json {
        println!(
            "{{\"scenario\": \"idle-conns\", \"idle_conns\": {idle_conns}, \
             \"idle_conns_held\": {idle_held}, \"open_connections\": {open}, \
             \"threads_before\": {}, \"threads_after\": {}, \"ok\": {}}}",
            threads(threads_before),
            threads(threads_after),
            !failed
        );
    } else {
        println!(
            "serve_load idle-conns: {idle_held}/{idle_conns} idle connection(s) parked, \
             {open} reported open; threads {} -> {}",
            threads(threads_before),
            threads(threads_after),
        );
    }
    i32::from(failed)
}

/// `--scenario idle-conns` where there is no reactor: nothing to check.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn scenario_idle_conns(_flags: &CommonFlags) -> i32 {
    eprintln!("serve_load idle-conns: no reactor on this target; scenario skipped");
    0
}

/// Minimum autotuned-over-best-fixed aggregate throughput ratio the
/// autotune scenario must demonstrate against *every* fixed
/// `(spec, tile)` configuration in [`AUTOTUNE_GRID`].
const MIN_AUTOTUNE_SPEEDUP: f64 = 1.1;

/// The fixed configurations the autotuned daemon has to beat. `"ff"`
/// pins first-faulting (the compiler's `Auto`); the rest pin RTM at a
/// fixed tile. No single entry is best for all three kernel families
/// below, which is the point: a per-kernel adaptive choice wins where
/// any uniform static choice loses somewhere.
const AUTOTUNE_GRID: [&str; 5] = ["ff", "rtm:16", "rtm:64", "rtm:256", "rtm:1024"];

/// Family A — RTM-only: a store between a speculative load and its
/// conditional update sits inside the VPL, so FF cannot vectorize this
/// shape (fallback would replay committed stores) and a pinned `ff`
/// daemon runs it scalar forever. RTM buffers the stores
/// transactionally and commits clean at any tile.
const FAMILY_RTM_WIN: &str = "\
// Conditional-update scan with a store inside the speculative region.
kernel rtm_win;

var i = 0;
var t = 0;
var u = 0;
var best = 1048576;
array a[4096] = seed 7;
array aux[4096] = seed 9;
array out[4096];
live_out best;

for (i = 0; i < 4096; i++) {
  t = a[i] * 3 + i;
  if (t < best) {
    u = aux[t & 4095];
    out[i] = u;
    if (u < best) {
      best = u;
    }
  }
}
";

/// Family B — fault tail: an early-exit scan whose exit chunk also
/// runs past the array, so the speculative tail load faults on every
/// invocation. FF masks the fault and falls back for one chunk; a
/// fixed RTM tile aborts the whole enclosing transaction and reruns it
/// scalar — the larger the tile, the larger the rerun.
const FAMILY_FAULT_TAIL: &str = "\
// Early-exit scan with a faulting speculative tail.
kernel fault_tail;

var i = 0;
var t = 0;
var s = 0;
var found = -1;
array a[2030] = seed 11;
live_out s;

for (i = 0; i < 2100; i++) {
  t = a[i];
  s = s + t;
  if (i > 2020) {
    found = i;
    break;
  }
}
";

/// Family C — store-heavy: a non-speculative scatter over a bin range
/// wide enough that intra-chunk conflicts are rare. `Auto` needs no
/// speculation at all and vectorizes clean; a pinned RTM daemon routes
/// every scatter through the transaction write-set journal (and every
/// gather through its read hook) and pays for it on each element.
const FAMILY_STORE_HEAVY: &str = "\
// Low-conflict histogram: every iteration scatters into a wide bin range.
kernel store_heavy;

var i = 0;
array idx[4096] = seed 7;
array bins[1024];

for (i = 0; i < 4096; i++) {
  bins[idx[i] % 1024] = bins[idx[i] % 1024] + 1;
}
";

/// The interleaving of the mixed trace, as indices into the family
/// set `[rtm_win, fault_tail, store_heavy]`.
const AUTOTUNE_TRACE: [usize; 4] = [0, 1, 2, 2];

/// One measured pass of the mixed-family trace against a fresh daemon.
struct AutotuneRun {
    rps: f64,
    failures: u64,
    /// `stats` response after the measured phase.
    stats: Json,
    /// `spec` field echoed on the last warmup response per family.
    specs: Vec<String>,
}

/// Starts a fresh daemon, registers the three families, warms each one
/// round-robin from a single connection (so per-kernel run counts — and
/// with them autotune decision points — advance deterministically),
/// then measures the interleaved trace. `spec` pins every request to a
/// fixed configuration; `None` leaves the daemon free to autotune.
fn autotune_pass(spec: Option<&str>, requests: u64, warmup: u64, invocations: u64) -> AutotuneRun {
    let families = [FAMILY_RTM_WIN, FAMILY_FAULT_TAIL, FAMILY_STORE_HEAVY];
    let handle = start(base_config()).expect("start autotune daemon");
    let addr = handle.addr.to_string();

    let mut client = Client::connect(&addr).expect("connect autotune client");
    let hashes: Vec<String> = families
        .iter()
        .map(|src| {
            let response = client
                .request(&compile_request((*src).to_owned()))
                .expect("register family");
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(true),
                "family registration failed: {response}"
            );
            response
                .get("hash")
                .and_then(Json::as_str)
                .expect("hash in compile response")
                .to_owned()
        })
        .collect();

    // Store-heavy traffic is weighted double: scatter-into-bins is the
    // common shape in real mixes, and it is exactly where a uniform RTM
    // pin bleeds per-element write-set overhead on every request.
    let family_at = |i: u64| AUTOTUNE_TRACE[(i % AUTOTUNE_TRACE.len() as u64) as usize];
    let trace = |i: u64| {
        let mut fields = vec![
            ("op", Json::from("run")),
            ("hash", Json::from(hashes[family_at(i)].as_str())),
            ("invocations", Json::from(invocations)),
        ];
        if let Some(spec) = spec {
            fields.push(("spec", Json::from(spec)));
        }
        Json::obj(fields)
    };

    let mut specs = vec![String::new(); families.len()];
    for i in 0..warmup * AUTOTUNE_TRACE.len() as u64 {
        let response = client.request(&trace(i)).expect("warmup run");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "warmup run failed: {response}"
        );
        if let Some(s) = response.get("spec").and_then(Json::as_str) {
            specs[family_at(i)] = s.to_owned();
        }
    }

    // Measured phase: three single-connection passes over the
    // interleaved trace, reduced to per-family median latencies and
    // the best median across passes. On a shared (often single-core)
    // host the noise is one-sided — a request can only be slowed down
    // by unrelated load, never sped up — so min-of-medians is the
    // faithful estimate of each daemon's sustained service time, and
    // a single connection keeps request index `j` = trace slot `j`.
    let mut best = [f64::INFINITY; 3];
    let mut failures = 0;
    for _ in 0..3 {
        let phase = drive(&addr, 1, requests, trace);
        failures += phase.failures;
        let mut by_family: [Vec<Duration>; 3] = Default::default();
        for (j, lat) in phase.latencies.iter().enumerate() {
            by_family[family_at(j as u64)].push(*lat);
        }
        for (f, lats) in by_family.iter_mut().enumerate() {
            if !lats.is_empty() {
                lats.sort();
                best[f] = best[f].min(lats[lats.len() / 2].as_secs_f64());
            }
        }
    }
    // Aggregate req/s over one weighted trace cycle.
    let cycle: f64 = AUTOTUNE_TRACE.iter().map(|&f| best[f]).sum();
    let rps = AUTOTUNE_TRACE.len() as f64 / cycle.max(1e-9);
    let stats = client
        .request(&Json::obj([("op", Json::from("stats"))]))
        .expect("stats request");
    drop(client);
    handle.shutdown();
    AutotuneRun {
        rps,
        failures,
        stats,
        specs,
    }
}

/// `--scenario autotune`: the sweep grid of fixed `(spec, tile)`
/// daemons vs one autotuned daemon on the same mixed trace. Exit 1
/// unless the autotuner beats every fixed configuration by
/// [`MIN_AUTOTUNE_SPEEDUP`] and explicit `--spec`/`--engine` pins
/// demonstrably bypass it.
fn scenario_autotune(flags: &CommonFlags) -> i32 {
    let requests = flags.u64_flag("requests", 240).max(30);
    let warmup = flags.u64_flag("warmup", 20).max(10);
    let invocations = 3;
    let mut failed = false;

    // The sweep: one fresh daemon per fixed configuration, every
    // request pinned. A pinned daemon must never respecialize — that
    // is the `--spec` bypass contract, asserted here on live traffic.
    let mut fixed: Vec<(&str, AutotuneRun)> = Vec::new();
    for config in AUTOTUNE_GRID {
        let run = autotune_pass(Some(config), requests, warmup, invocations);
        let respec = run
            .stats
            .get("autotune_respecialize_total")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        if respec != 0 {
            eprintln!(
                "serve_load autotune: REGRESSION — pinned `{config}` daemon \
                 respecialized {respec} kernel(s); explicit --spec must bypass the autotuner"
            );
            failed = true;
        }
        let want = if config == "ff" { "auto" } else { config };
        for (family, got) in run.specs.iter().enumerate() {
            if got != want {
                eprintln!(
                    "serve_load autotune: REGRESSION — pinned `{config}` daemon answered \
                     family {family} with spec `{got}` (expected `{want}`)"
                );
                failed = true;
            }
        }
        if run.failures > 0 {
            eprintln!(
                "serve_load autotune: {} request(s) failed under pinned `{config}`",
                run.failures
            );
            failed = true;
        }
        fixed.push((config, run));
    }

    // The autotuned daemon: same trace, no spec on the wire. The
    // warmup must carry every family past the tuner's decision points.
    let tuned = autotune_pass(None, requests, warmup, invocations);
    if tuned.failures > 0 {
        eprintln!(
            "serve_load autotune: {} request(s) failed on the autotuned daemon",
            tuned.failures
        );
        failed = true;
    }
    let respec = tuned
        .stats
        .get("autotune_respecialize_total")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if respec == 0 {
        eprintln!(
            "serve_load autotune: REGRESSION — the autotuned daemon never respecialized \
             (expected at least the RTM unlock for the rtm_win family)"
        );
        failed = true;
    }
    if !tuned.specs[0].starts_with("rtm") {
        eprintln!(
            "serve_load autotune: REGRESSION — rtm_win family still served as \
             `{}` after {warmup} warmup runs (expected an rtm:TILE variant)",
            tuned.specs[0]
        );
        failed = true;
    }

    // Ratios against every fixed configuration.
    let mut min_ratio = f64::INFINITY;
    for (config, run) in &fixed {
        let ratio = tuned.rps / run.rps.max(1e-9);
        min_ratio = min_ratio.min(ratio);
        let verdict = if ratio >= MIN_AUTOTUNE_SPEEDUP {
            "ok"
        } else {
            failed = true;
            "REGRESSION"
        };
        println!(
            "serve_load autotune: fixed {config:<8} {:>7.1} req/s -> autotuned {:>7.1} req/s \
             ({ratio:.2}x, {verdict})",
            run.rps, tuned.rps
        );
    }
    if min_ratio < MIN_AUTOTUNE_SPEEDUP {
        eprintln!(
            "serve_load autotune: REGRESSION — worst ratio {min_ratio:.2}x is below the \
             required {MIN_AUTOTUNE_SPEEDUP:.2}x over every fixed configuration"
        );
    }

    // `--engine` bypass: a fresh daemon would tier this hot kernel to
    // bytecode/native; an explicit engine pin must be honored verbatim.
    let handle = start(base_config()).expect("start engine-pin daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect engine pin");
    let response = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(FAMILY_STORE_HEAVY)),
            ("engine", Json::from("tree")),
        ]))
        .expect("engine-pinned run");
    let engine = response
        .get("engine")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    if engine != "tree-walking" {
        eprintln!(
            "serve_load autotune: REGRESSION — explicit engine pin answered `{engine}` \
             (expected `tree-walking`)"
        );
        failed = true;
    }
    drop(client);
    handle.shutdown();

    if flags.json {
        let mut grid = String::new();
        for (config, run) in &fixed {
            if !grid.is_empty() {
                grid.push_str(", ");
            }
            grid.push_str(&format!("\"{config}\": {}", json_f64(run.rps)));
        }
        println!(
            "{{\"scenario\": \"autotune\", \"requests\": {requests}, \
             \"warmup\": {warmup}, \"fixed_rps\": {{{grid}}}, \"autotuned_rps\": {}, \
             \"min_ratio\": {}, \"respecializations\": {respec}, \"ok\": {}}}",
            json_f64(tuned.rps),
            json_f64(min_ratio),
            !failed
        );
    } else {
        println!(
            "serve_load autotune: {respec} respecialization(s); worst margin {min_ratio:.2}x \
             over the {} fixed config(s)",
            fixed.len()
        );
    }
    i32::from(failed)
}
