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
//! A fourth phase checks the engine a request without one gets: one
//! straight-line-heavy kernel is benched with the engine omitted, which
//! runs native code from the first request on hosts with the x86-64
//! JIT. The second request's `chunks_per_sec` (measured by the daemon
//! around its own exec loop, so the wire cancels out; the first one
//! verifies the variant on the cycle model) is compared against a
//! forced `"engine":"compiled"` bench of the same kernel, and on x86-64
//! hosts the run fails unless both implicit requests ran native and
//! native code beats bytecode by a measurable margin.
//!
//! Two further regression-failing scenarios:
//!
//! * `--scenario autotune` — five kernel families (RTM-only, fault-tail,
//!   store-heavy, and two RTM-only kernels whose stores overflow the
//!   transaction write set at the larger tiles) run once under every
//!   fixed `(spec, tile)` pin of a grid, then as a mixed trace on an
//!   autotuned daemon; fails unless every autotuned reply after
//!   exploring reports exactly the fewest vector cycles of any pin, the
//!   RTM-only families settle on `rtm:1024`, `rtm:64` and `rtm:16`, and
//!   explicit `spec` and `engine` pins are honored.
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
//!            [--idle-conns N] [--json]
//! ```

use std::time::{Duration, Instant};

use flexvec_bench::flags::{json_f64, CommonFlags, ExtraFlag};
use flexvec_serve::{start, Client, Json, ServerConfig};

/// Minimum repeat/one-shot throughput ratio the run must demonstrate.
const MIN_SPEEDUP: f64 = 5.0;

/// Minimum native-over-bytecode throughput ratio the implicit-engine
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

/// The kernel of the engine phase: a long unguarded
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

/// What the engine phase observed.
struct TierReport {
    /// Engine labels of the implicit-engine requests, in order
    /// (`native` from the first on x86-64 hosts).
    labels: Vec<String>,
    /// Daemon-measured chunks/s of the second implicit request, which
    /// replays the stored cycles.
    hot_cps: f64,
    /// Daemon-measured chunks/s of the forced-bytecode baseline.
    bytecode_cps: f64,
    /// Whether the daemon's host has the native back end.
    native_supported: bool,
}

/// Benches one kernel with the engine omitted and measures it against
/// a forced-bytecode baseline.
fn drive_tiers(addr: &str) -> TierReport {
    let mut client = Client::connect(addr).expect("connect tier client");
    let mut request = |fields: Vec<(&'static str, Json)>| -> Json {
        let response = client.request(&Json::obj(fields)).expect("tier request");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "tier request failed: {response}"
        );
        response
    };
    let mut bench = |engine: Option<&str>| {
        let mut fields = vec![
            ("op", Json::from("bench")),
            ("source", Json::from(HOT_KERNEL)),
            ("invocations", Json::from(48u64)),
        ];
        fields.extend(engine.map(|e| ("engine", Json::from(e))));
        request(fields)
    };
    // The first request verifies the variant on the cycle model. The
    // one after it reports the stored cycles, like the forced-bytecode
    // baseline (same kernel, wire and daemon), so the two measure
    // execution alone.
    let (first, hot, baseline) = (bench(None), bench(None), bench(Some("compiled")));
    let stats = request(vec![("op", Json::from("stats"))]);
    let label = |r: &Json| {
        r.get("engine")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let cps = |r: &Json| {
        r.get("chunks_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    TierReport {
        labels: vec![label(&first), label(&hot)],
        hot_cps: cps(&hot),
        bytecode_cps: cps(&baseline),
        native_supported: stats.get("native_supported").and_then(Json::as_bool) == Some(true),
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

    // Engine: one kernel benched with the engine omitted races a
    // forced-bytecode baseline.
    let tiers = drive_tiers(&addr);
    let tier_ratio = tiers.hot_cps / tiers.bytecode_cps.max(1e-9);

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
             \"tier_ratio\": {},\n  \
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
            json_f64(tier_ratio),
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
            "  engine (hot kernel): {}   bytecode {:.3e} -> implicit {:.3e} chunks/s ({:.2}x)",
            tiers.labels.join(", "),
            tiers.bytecode_cps,
            tiers.hot_cps,
            tier_ratio,
        );
        if let Some(text) = &metrics_text {
            let line = |name: &str| {
                text.lines()
                    .find(|l| l.starts_with(name))
                    .map_or(format!("{name} <missing>"), str::to_owned)
            };
            println!(
                "  /metrics scrape ok ({}; {})",
                line("flexvec_cache_hits_total"),
                line("flexvec_tier_native_total")
            );
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
    // A bytecode-only host has no native code to run.
    if tiers.native_supported {
        if tiers.labels.iter().any(|l| l != "native") {
            eprintln!(
                "serve_load: requests without an engine did not run native code \
                 (engines: {})",
                tiers.labels.join(", ")
            );
            std::process::exit(1);
        }
        if tier_ratio < MIN_TIER_SPEEDUP {
            eprintln!(
                "serve_load: native tier {:.2}x over bytecode is below the required \
                 {MIN_TIER_SPEEDUP:.2}x",
                tier_ratio
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

/// The fixed configurations the autotuned daemon is checked against.
/// `"ff"` pins first-faulting (the compiler's `Auto`); the rest pin RTM
/// at a fixed tile. No single entry is best for all the kernel
/// families below: RTM is the only way to vectorize three of them, each
/// at a different tile, and the slower choice for the other two.
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
/// scalar.
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
/// speculation at all and vectorizes clean; a pinned RTM tile wraps
/// the same work in transactions.
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

/// Families D and E — wide stores: the RTM-only shape of family A,
/// but the guard almost always holds and every taken iteration stores
/// `u` into `stores` arrays. A tile that writes more distinct elements
/// than the transaction's 4096-element write set aborts and reruns
/// scalar, so the best tile is the largest one that fits: with 20
/// stores a 256-iteration tile writes 5120 elements and `rtm:64` wins;
/// with 70 stores a 64-iteration tile writes 4480 and `rtm:16` wins.
fn family_wide_stores(stores: usize) -> String {
    let mut src = format!(
        "// Conditional-update scan storing into {stores} arrays per iteration.\n\
         kernel wide_stores_{stores};\n\n\
         var i = 0;\nvar t = 0;\nvar u = 0;\nvar best = 1048576;\n\
         array a[512] = seed 7;\narray aux[512] = seed 9;\n"
    );
    for k in 0..stores {
        src.push_str(&format!("array o{k}[512];\n"));
    }
    src.push_str(
        "live_out best;\n\n\
         for (i = 0; i < 512; i++) {\n  t = a[i] * 3 + i;\n  if (t < best + 1000000) {\n    \
         u = aux[t & 511];\n",
    );
    for k in 0..stores {
        src.push_str(&format!("    o{k}[i] = u;\n"));
    }
    src.push_str("    if (u < best) {\n      best = u;\n    }\n  }\n}\n");
    src
}

/// The families in trace-index order: name, source and the spec the
/// daemon must settle on.
fn families() -> [(&'static str, String, &'static str); 5] {
    [
        ("rtm_win", FAMILY_RTM_WIN.to_owned(), "rtm:1024"),
        ("fault_tail", FAMILY_FAULT_TAIL.to_owned(), "auto"),
        ("store_heavy", FAMILY_STORE_HEAVY.to_owned(), "auto"),
        ("wide_stores_20", family_wide_stores(20), "rtm:64"),
        ("wide_stores_70", family_wide_stores(70), "rtm:16"),
    ]
}

/// The interleaving of the mixed trace, as indices into [`families`].
const AUTOTUNE_TRACE: [usize; 6] = [0, 1, 2, 2, 3, 4];

/// Requests a kernel may spend exploring its candidates: the length of
/// the daemon's ladder (`Auto` plus four RTM tiles).
const EXPLORE_RUNS: u64 = 5;

/// Invocations per request in the autotune scenario.
const AUTOTUNE_INVOCATIONS: u64 = 3;

/// One `run` of a registered family; `spec` pins it, `None` leaves the
/// choice to the daemon. Panics on a transport error; returns the reply.
fn autotune_run(client: &mut Client, hash: &str, spec: Option<&str>) -> Json {
    let mut fields = vec![
        ("op", Json::from("run")),
        ("hash", Json::from(hash)),
        ("invocations", Json::from(AUTOTUNE_INVOCATIONS)),
    ];
    if let Some(spec) = spec {
        fields.push(("spec", Json::from(spec)));
    }
    client.request(&Json::obj(fields)).expect("autotune run")
}

/// Registers `families` on a fresh daemon, returning the daemon, a
/// connection to it and the kernel hashes in order.
fn autotune_daemon(
    families: &[(&str, String, &str)],
) -> (flexvec_serve::ServerHandle, Client, Vec<String>) {
    let handle = start(base_config()).expect("start autotune daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect autotune client");
    let hashes = families
        .iter()
        .map(|(_, src, _)| {
            let response = client
                .request(&compile_request(src.clone()))
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
    (handle, client, hashes)
}

/// `--scenario autotune`. One daemon runs each family once under every
/// pin in [`AUTOTUNE_GRID`]; its `autotune_respecialize_total` must stay
/// 0. A fresh daemon then serves the interleaved trace with no spec on
/// the wire: after each family's first [`EXPLORE_RUNS`] requests, every
/// reply must report exactly the fewest vector cycles of any pin, and
/// each family must settle on the spec [`families`] names. Last, an
/// explicit `"engine":"tree"` must be honored on a fresh daemon. Exit 1
/// on any miss.
fn scenario_autotune(flags: &CommonFlags) -> i32 {
    let families = families();
    let min_requests = AUTOTUNE_TRACE.len() as u64 * (EXPLORE_RUNS + 1);
    let requests = flags.u64_flag("requests", 240).max(min_requests);
    let mut failed = false;
    let mut fail = |message: String| {
        eprintln!("serve_load autotune: REGRESSION — {message}");
        failed = true;
    };
    let u64_field = |r: &Json, name: &str| r.get(name).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let str_field =
        |r: &Json, name: &str| r.get(name).and_then(Json::as_str).unwrap_or("").to_owned();

    // The grid: vector cycles of every family under every pin.
    let (handle, mut client, hashes) = autotune_daemon(&families);
    let mut pinned = vec![[0u64; AUTOTUNE_GRID.len()]; families.len()];
    for (f, hash) in hashes.iter().enumerate() {
        for (g, config) in AUTOTUNE_GRID.iter().enumerate() {
            let reply = autotune_run(&mut client, hash, Some(config));
            let want = if *config == "ff" { "auto" } else { config };
            if reply.get("ok").and_then(Json::as_bool) != Some(true)
                || str_field(&reply, "spec") != want
            {
                fail(format!(
                    "pinned `{config}` run of {} answered {reply}",
                    families[f].0
                ));
            }
            pinned[f][g] = u64_field(&reply, "vector_cycles");
        }
    }
    let stats = client
        .request(&Json::obj([("op", Json::from("stats"))]))
        .expect("stats request");
    let pinned_respec = u64_field(&stats, "autotune_respecialize_total");
    if pinned_respec != 0 {
        fail(format!(
            "pinned requests moved autotune_respecialize_total to {pinned_respec}"
        ));
    }
    drop(client);
    handle.shutdown();

    // The autotuned daemon: the interleaved trace over one connection,
    // so each family's request order is deterministic.
    let (handle, mut client, hashes) = autotune_daemon(&families);
    let mut seen = vec![0u64; families.len()];
    let mut last = vec![(String::new(), 0u64); families.len()];
    for i in 0..requests {
        let f = AUTOTUNE_TRACE[(i % AUTOTUNE_TRACE.len() as u64) as usize];
        let reply = autotune_run(&mut client, &hashes[f], None);
        seen[f] += 1;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            fail(format!(
                "autotuned run of {} failed: {reply}",
                families[f].0
            ));
            continue;
        }
        let cycles = u64_field(&reply, "vector_cycles");
        let fewest = *pinned[f].iter().min().expect("nonempty grid");
        if seen[f] > EXPLORE_RUNS && cycles != fewest {
            fail(format!(
                "{} reply {} ran `{}` at {cycles} vector cycles; the fewest of any pin is {fewest}",
                families[f].0,
                seen[f],
                str_field(&reply, "spec")
            ));
        }
        last[f] = (str_field(&reply, "spec"), cycles);
    }
    for ((name, _, want), (spec, _)) in families.iter().zip(&last) {
        if spec != want {
            fail(format!("{name} settled on `{spec}`, not {want}"));
        }
    }
    let stats = client
        .request(&Json::obj([("op", Json::from("stats"))]))
        .expect("stats request");
    let respec = u64_field(&stats, "autotune_respecialize_total");
    let want_respec = families.iter().filter(|(_, _, w)| *w != "auto").count() as u64;
    if respec != want_respec {
        fail(format!(
            "the autotuned daemon counted {respec} choice(s) other than auto; expected {want_respec}"
        ));
    }
    drop(client);
    handle.shutdown();

    // `engine` pin: a request without one would run native code (or
    // bytecode off x86-64); an explicit engine must be honored verbatim.
    let handle = start(base_config()).expect("start engine-pin daemon");
    let mut client = Client::connect(&handle.addr.to_string()).expect("connect engine pin");
    let reply = client
        .request(&Json::obj([
            ("op", Json::from("run")),
            ("source", Json::from(FAMILY_STORE_HEAVY)),
            ("engine", Json::from("tree")),
        ]))
        .expect("engine-pinned run");
    let engine = str_field(&reply, "engine");
    if engine != "tree-walking" {
        fail(format!(
            "explicit engine pin answered `{engine}` (expected `tree-walking`)"
        ));
    }
    drop(client);
    handle.shutdown();

    if flags.json {
        let families = families.iter().enumerate().map(|(f, (name, _, _))| {
            let pins = AUTOTUNE_GRID.iter().zip(pinned[f]);
            let family = Json::obj([
                (
                    "pinned_vector_cycles",
                    Json::obj(pins.map(|(config, cycles)| (*config, Json::from(cycles)))),
                ),
                ("autotuned_spec", Json::from(last[f].0.as_str())),
                ("autotuned_vector_cycles", Json::from(last[f].1)),
            ]);
            (*name, family)
        });
        let report = Json::obj([
            ("scenario", Json::from("autotune")),
            ("requests", Json::from(requests)),
            ("families", Json::obj(families)),
            ("respecializations", Json::from(respec)),
            ("pinned_respecializations", Json::from(pinned_respec)),
            ("ok", Json::from(!failed)),
        ]);
        println!("{report}");
    } else {
        for (f, (name, _, _)) in families.iter().enumerate() {
            let pins: Vec<String> = AUTOTUNE_GRID
                .iter()
                .zip(pinned[f])
                .map(|(config, cycles)| format!("{config} {cycles}"))
                .collect();
            println!(
                "serve_load autotune: {name:<14} pinned [{}] -> autotuned {} at {} vector cycles",
                pins.join(", "),
                last[f].0,
                last[f].1
            );
        }
        println!(
            "serve_load autotune: {respec} choice(s) other than auto; pinned requests {pinned_respec}"
        );
    }
    i32::from(failed)
}
