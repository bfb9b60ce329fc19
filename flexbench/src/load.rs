//! Driving the daemon: start and stop it in-process, send requests and
//! check every reply, run closed and open loops, and read what the
//! daemon reports about itself through its `stats` op and `/metrics`.

use std::collections::BTreeMap;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use flexvec_serve::json::{self, Json};
use flexvec_serve::{fetch_metrics, start, Client, ServerConfig, ServerHandle};

use crate::kernels::{Expect, Kernel};
use crate::stats::{summarize, Latency, Op, Step, Summary, WINDOWS};
use crate::trace::Tracer;

/// Load-generator connections (and threads): the box has two cores.
pub const CONNS: usize = 2;

/// How long an open-loop step may take to drain after its schedule
/// ends before unanswered requests count as failures.
const DRAIN: Duration = Duration::from_secs(5);

/// A running in-process daemon.
pub struct Daemon {
    handle: ServerHandle,
    /// Request address.
    pub addr: String,
    metrics_addr: String,
}

impl Daemon {
    /// Starts a daemon with two workers and a `/metrics` listener; every
    /// other setting is the daemon's default.
    ///
    /// # Panics
    ///
    /// When the loopback listeners cannot bind.
    pub fn start() -> Daemon {
        let handle = start(ServerConfig {
            workers: 2,
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            ..Default::default()
        })
        .expect("start the daemon on loopback");
        Daemon {
            addr: handle.addr.to_string(),
            metrics_addr: handle
                .metrics_addr
                .expect("metrics listener was requested")
                .to_string(),
            handle,
        }
    }

    /// A new connection.
    ///
    /// # Panics
    ///
    /// When the daemon refuses it.
    pub fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("connect to the daemon")
    }

    /// The daemon's own counters: the `stats` op's numeric fields plus
    /// the queue-wait histogram totals from `/metrics`.
    ///
    /// # Panics
    ///
    /// When either endpoint fails to answer.
    pub fn counters(&self) -> Counters {
        let reply = self
            .connect()
            .request(&Json::obj([
                ("op", Json::from("stats")),
                ("id", Json::from(0u64)),
            ]))
            .expect("stats op");
        let mut c = BTreeMap::new();
        if let Json::Obj(fields) = &reply {
            for (k, v) in fields {
                if let Some(v) = v.as_f64() {
                    c.insert(k.clone(), v);
                }
            }
        }
        let text = fetch_metrics(&self.metrics_addr).expect("scrape /metrics");
        for line in text.lines() {
            for name in [
                "flexvec_serve_queue_wait_micros_sum",
                "flexvec_serve_queue_wait_micros_count",
            ] {
                if let Some(v) = line.strip_prefix(name).and_then(|r| r.trim().parse().ok()) {
                    c.insert(name.to_owned(), v);
                }
            }
        }
        Counters(c)
    }

    /// Drains and joins the daemon.
    pub fn stop(self) {
        self.handle.shutdown();
    }
}

/// A snapshot of the daemon's numeric counters.
#[derive(Clone, Debug, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// How much counter `name` grew since `earlier`.
    pub fn delta(&self, earlier: &Counters, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0) - earlier.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Request kinds, as the per-layer rows name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `compile` by source.
    Compile,
    /// `run` by hash of a registered kernel.
    RunHash,
    /// `run` by source.
    RunSource,
}

impl Kind {
    /// Span and row name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Compile => "compile",
            Kind::RunHash => "run_hash",
            Kind::RunSource => "run_source",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Compile => "req.compile",
            Kind::RunHash => "req.run_hash",
            Kind::RunSource => "req.run_source",
        }
    }
}

/// One request and what its reply must say.
pub struct Req<'a> {
    /// Request kind.
    pub kind: Kind,
    /// The request line.
    pub line: String,
    /// The expected reply content.
    pub check: Check<'a>,
}

/// What a reply must carry.
pub enum Check<'a> {
    /// Success, whatever the content.
    Ok,
    /// A compile verdict.
    Verdict(&'a Expect),
    /// The kernel's scalar live-outs (and, when the daemon evicted the
    /// hash, the kernel to resubmit by source).
    LiveOuts(&'a Kernel),
}

/// A `compile` request for `source`.
pub fn compile_line(id: u64, source: &str) -> String {
    Json::obj([
        ("op", Json::from("compile")),
        ("id", Json::from(id)),
        ("source", Json::from(source)),
    ])
    .to_string()
}

/// A `run` request for `source`.
pub fn run_source_line(id: u64, source: &str) -> String {
    Json::obj([
        ("op", Json::from("run")),
        ("id", Json::from(id)),
        ("source", Json::from(source)),
    ])
    .to_string()
}

/// A `run` request by content hash (16 hex digits, as replies print it).
pub fn run_hash_line(id: u64, hash: &str) -> String {
    Json::obj([
        ("op", Json::from("run")),
        ("id", Json::from(id)),
        ("hash", Json::from(hash)),
    ])
    .to_string()
}

/// How a reply turned out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Correct.
    Ok,
    /// The daemon no longer knows the hash; resubmit by source.
    UnknownHash,
    /// Admission control shed the request.
    Overloaded,
    /// An error reply or a wrong answer.
    Wrong,
}

/// Checks one reply against its expectation. Wrong answers are
/// reported on stderr, once each.
pub fn judge(reply: &Json, check: &Check<'_>) -> Verdict {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let kind = reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        return match kind {
            Some("unknown_hash") => Verdict::UnknownHash,
            Some("overloaded") => Verdict::Overloaded,
            _ => {
                eprintln!("flexbench: error reply {reply}");
                Verdict::Wrong
            }
        };
    }
    let good = match check {
        Check::Ok => true,
        Check::Verdict(expect) => reply
            .get("verdict")
            .and_then(Json::as_str)
            .is_some_and(|v| expect.accepts(v)),
        Check::LiveOuts(kernel) => {
            let got = reply.get("live_outs");
            got.is_some()
                && kernel
                    .live_outs
                    .iter()
                    .all(|(n, v)| got.and_then(|g| g.get(n)).and_then(Json::as_i64) == Some(*v))
        }
    };
    if !good {
        eprintln!("flexbench: wrong reply {reply}");
        return Verdict::Wrong;
    }
    Verdict::Ok
}

/// Sends one request over `client` and judges the reply, resubmitting
/// by source when the daemon evicted a hash. Returns the verdict, the
/// reply, and whether a resubmission happened.
///
/// # Panics
///
/// On I/O failure or an unparsable reply: the daemon is in-process, so
/// either is a broken benchmark.
pub fn exchange(client: &mut Client, req: &Req<'_>) -> (Verdict, Json, bool) {
    let reply = send(client, &req.line);
    let verdict = judge(&reply, &req.check);
    if let (Verdict::UnknownHash, Check::LiveOuts(kernel)) = (verdict, &req.check) {
        let reply = send(client, &run_source_line(0, &kernel.source));
        return (judge(&reply, &req.check), reply, true);
    }
    (verdict, reply, false)
}

fn send(client: &mut Client, line: &str) -> Json {
    let text = client.request_raw(line).expect("daemon connection");
    json::parse(&text).unwrap_or_else(|e| panic!("unparsable reply `{text}`: {e}"))
}

/// Per-request tallies shared by both loop shapes.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Requests sent in the measured window.
    pub attempted: u64,
    /// Failed or wrong replies in the measured window.
    pub failed: u64,
    /// `overloaded` replies (closed loop: the run is invalid).
    pub overloaded: u64,
    /// `unknown_hash` replies answered by resubmitting the source.
    pub resubmits: u64,
    /// Run-by-hash replies.
    pub run_hash: u64,
    /// Run-by-hash replies that recompiled an evicted plan.
    pub hot_recompiles: u64,
}

impl Tally {
    fn note(&mut self, kind: Kind, verdict: Verdict, reply: &Json, resubmitted: bool) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Overloaded => {
                self.overloaded += 1;
                self.failed += 1;
            }
            Verdict::UnknownHash | Verdict::Wrong => self.failed += 1,
        }
        self.resubmits += u64::from(resubmitted);
        if kind == Kind::RunHash {
            self.run_hash += 1;
            self.hot_recompiles +=
                u64::from(reply.get("cache").and_then(Json::as_str) == Some("compiled"));
        }
    }

    /// Adds `o`'s counts to these.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.overloaded += o.overloaded;
        self.resubmits += o.resubmits;
        self.run_hash += o.run_hash;
        self.hot_recompiles += o.hot_recompiles;
    }
}

/// What a measured span recorded.
pub struct Measured {
    /// Every operation started in the span, s from its start.
    pub ops: Vec<Op>,
    /// Span length, s.
    pub seconds: f64,
    /// Process CPU time at each window boundary, s.
    pub cpu_marks: Vec<f64>,
    /// Reply tallies for the span.
    pub tally: Tally,
    /// Client-side request spans, when tracing.
    pub tracer: Option<Tracer>,
}

impl Measured {
    /// The span's end-to-end numbers, tail capped at `nominal`.
    pub fn summary(&self, nominal: f64) -> Summary {
        summarize(&self.ops, self.seconds, &self.cpu_marks, nominal)
    }
}

/// Process CPU time at the `WINDOWS + 1` window boundaries of a span of
/// `seconds` starting at `from`, sleeping in between.
pub fn cpu_marks(from: Instant, seconds: f64) -> Vec<f64> {
    (0..=WINDOWS)
        .map(|k| {
            let at = from + Duration::from_secs_f64(seconds * k as f64 / WINDOWS as f64);
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            cpu_seconds()
        })
        .collect()
}

/// Runs a closed loop: each of [`CONNS`] connections sends its next
/// request when the previous reply arrives. The first `warmup` is
/// discarded; the next `measure` is reported. `make(conn, n)` builds
/// connection `conn`'s `n`-th request.
pub fn closed_loop<'a>(
    daemon: &Daemon,
    warmup: Duration,
    measure: Duration,
    trace_epoch: Option<Instant>,
    make: impl Fn(usize, u64) -> Req<'a> + Sync,
) -> Measured {
    let from = Instant::now() + warmup;
    let until = from + measure;
    let secs = |t: Instant| t.saturating_duration_since(from).as_secs_f64();
    let mut out = Measured {
        ops: Vec::new(),
        seconds: measure.as_secs_f64(),
        cpu_marks: Vec::new(),
        tally: Tally::default(),
        tracer: trace_epoch.map(Tracer::new),
    };
    let per_conn: Vec<(Vec<Op>, Tally, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let make = &make;
                let mut client = daemon.connect();
                s.spawn(move || {
                    let mut tracer = trace_epoch.map(Tracer::new);
                    let (mut ops, mut tally) = (Vec::new(), Tally::default());
                    for n in 0.. {
                        let req = make(conn, n);
                        let start = Instant::now();
                        if start >= until {
                            break;
                        }
                        let (verdict, reply, resubmitted) = exchange(&mut client, &req);
                        let end = Instant::now();
                        if let Some(t) = tracer.as_mut() {
                            t.record(
                                req.kind.span(),
                                start,
                                end,
                                None,
                                n * CONNS as u64 + conn as u64,
                            );
                        }
                        if start >= from {
                            ops.push(Op {
                                start: secs(start),
                                end: secs(end),
                            });
                            tally.note(req.kind, verdict, &reply, resubmitted);
                        }
                    }
                    (ops, tally, tracer)
                })
            })
            .collect();
        out.cpu_marks = cpu_marks(from, measure.as_secs_f64());
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    for (ops, tally, tracer) in per_conn {
        out.ops.extend(ops);
        out.tally.add(&tally);
        if let (Some(all), Some(t)) = (out.tracer.as_mut(), tracer) {
            all.absorb(t);
        }
    }
    out
}

/// One request of an open-loop step.
pub struct Arrival<'a> {
    /// Request id, unique over the whole run (the line carries it).
    pub id: u64,
    /// When it is due, s after the step starts.
    pub due: f64,
    /// What to send.
    pub req: Req<'a>,
}

/// What one open-loop step measured, on top of its [`Step`] verdict
/// inputs.
pub struct OpenStep {
    /// The step's latency, backlog and lateness record.
    pub step: Step,
    /// Reply tallies.
    pub tally: Tally,
    /// Process CPU time at each window boundary of the step, s.
    pub cpu_marks: Vec<f64>,
    /// Client-side request spans, when tracing.
    pub tracer: Option<Tracer>,
}

impl OpenStep {
    /// The step's end-to-end numbers, tail capped at `nominal`.
    pub fn summary(&self, nominal: f64) -> Summary {
        summarize(&self.step.ops, self.step.seconds, &self.cpu_marks, nominal)
    }
}

/// Runs one open-loop step: arrival `i` goes out on connection
/// `i % CONNS` when due, replies are read as they come (requests are
/// pipelined), and each latency is timed from the due time. The step
/// waits for every reply (up to [`DRAIN`]) before it returns.
pub fn open_step(
    clients: &mut [TcpStream],
    rate: f64,
    seconds: f64,
    arrivals: &[Arrival<'_>],
    trace_epoch: Option<Instant>,
) -> OpenStep {
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut marks = Vec::new();
    let parts: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, stream)| {
                let mine: Vec<(u64, &Arrival<'_>)> = arrivals
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % CONNS == conn)
                    .map(|(_, a)| (a.id, a))
                    .collect();
                s.spawn(move || drive_conn(stream, t0, seconds, &mine, trace_epoch))
            })
            .collect();
        marks = cpu_marks(t0, seconds);
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut step = Step {
        rate,
        seconds,
        sent: arrivals.len(),
        ..Step::default()
    };
    let mut tally = Tally::default();
    let mut lateness = Vec::new();
    let mut tracer = trace_epoch.map(Tracer::new);
    for p in parts {
        step.ops.extend(p.ops);
        step.backlog_mid += p.backlog_mid;
        step.backlog_end += p.backlog_end;
        lateness.extend(p.lateness_ms);
        tally.add(&p.tally);
        if let (Some(all), Some(t)) = (tracer.as_mut(), p.tracer) {
            all.absorb(t);
        }
    }
    step.errors = tally.failed as usize;
    step.lateness_ms = if lateness.is_empty() {
        0.0
    } else {
        Latency::of(&mut lateness, 99.0).tail_ms
    };
    OpenStep {
        step,
        tally,
        cpu_marks: marks,
        tracer,
    }
}

struct ConnResult {
    ops: Vec<Op>,
    lateness_ms: Vec<f64>,
    backlog_mid: usize,
    backlog_end: usize,
    tally: Tally,
    tracer: Option<Tracer>,
}

/// One connection's share of an open-loop step, sending and reading on
/// one thread.
fn drive_conn(
    stream: &mut TcpStream,
    t0: Instant,
    seconds: f64,
    mine: &[(u64, &Arrival<'_>)],
    trace_epoch: Option<Instant>,
) -> ConnResult {
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let mut tracer = trace_epoch.map(Tracer::new);
    let mut r = ConnResult {
        ops: Vec::new(),
        lateness_ms: Vec::new(),
        backlog_mid: 0,
        backlog_end: 0,
        tally: Tally::default(),
        tracer: None,
    };
    // Request id -> (index into `mine`, resubmitted).
    let mut inflight: BTreeMap<u64, (usize, bool)> = BTreeMap::new();
    let (mut next, mut buf, mut chunk) = (0usize, Vec::new(), vec![0u8; 64 * 1024]);
    let (mut mid_seen, mut end_seen) = (false, false);
    let give_up = t0 + Duration::from_secs_f64(seconds) + DRAIN;
    loop {
        let now = Instant::now();
        let t = secs(now);
        if !mid_seen && t >= seconds / 2.0 {
            mid_seen = true;
            r.backlog_mid = inflight.len();
        }
        if !end_seen && t >= seconds {
            end_seen = true;
            r.backlog_end = inflight.len();
        }
        while next < mine.len() && mine[next].1.due <= t {
            let (id, a) = mine[next];
            r.lateness_ms
                .push((secs(Instant::now()) - a.due).max(0.0) * 1e3);
            write_line(stream, &a.req.line);
            inflight.insert(id, (next, false));
            next += 1;
        }
        if next == mine.len() && inflight.is_empty() && end_seen {
            break;
        }
        if now >= give_up {
            let unanswered = inflight.len() as u64;
            r.tally.attempted += unanswered;
            r.tally.failed += unanswered;
            break;
        }
        let wait = match mine.get(next) {
            Some((_, a)) => Duration::from_secs_f64((a.due - t).max(0.0)),
            None => Duration::from_millis(5),
        };
        if !wait_readable(stream, wait.min(Duration::from_millis(5))) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => panic!("daemon closed a load connection"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            Err(e) => panic!("load connection: {e}"),
        }
        while let Some(pos) = buf.iter().position(|b| *b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let reply = json::parse(text.trim_end())
                .unwrap_or_else(|e| panic!("unparsable reply `{text}`: {e}"));
            let id = reply.get("id").and_then(Json::as_u64).expect("reply id");
            // A reply to an earlier step's abandoned request was
            // already counted as a failure there.
            let Some((idx, resubmitted)) = inflight.remove(&id) else {
                continue;
            };
            let (_, a) = mine[idx];
            let verdict = judge(&reply, &a.req.check);
            if let (Verdict::UnknownHash, Check::LiveOuts(kernel), false) =
                (verdict, &a.req.check, resubmitted)
            {
                write_line(stream, &run_source_line(id, &kernel.source));
                inflight.insert(id, (idx, true));
                continue;
            }
            let done = Instant::now();
            let due = t0 + Duration::from_secs_f64(a.due);
            r.ops.push(Op {
                start: a.due,
                end: secs(done),
            });
            r.tally.note(a.req.kind, verdict, &reply, resubmitted);
            if let Some(tr) = tracer.as_mut() {
                tr.record(a.req.kind.span(), due, done, None, id);
            }
        }
    }
    r.tracer = tracer;
    r
}

/// Blocks until `stream` has data to read (true) or `timeout` passes.
///
/// A socket read timeout cannot do this: Linux rounds it to scheduler
/// ticks (8 ms on a two-vCPU Linux 6.18 guest), which would make the
/// open-loop generator late by that much. `ppoll` sleeps on a
/// high-resolution timer.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals laid out as the kernel's
    // `struct pollfd` and `struct timespec` on 64-bit Linux, the count
    // is 1, and a null signal mask leaves the mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0 && fd.revents & (POLLIN | POLLERR | POLLHUP) != 0
}

fn write_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).expect("send request");
    stream.write_all(b"\n").expect("send request");
}

/// Process CPU time (user + system, all threads), s. Linux reports it
/// in `/proc/self/stat` in USER_HZ ticks, which the kernel ABI fixes at
/// 100 per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 2..]
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("tick count");
    (ticks(11) + ticks(12)) / 100.0
}

/// Starts peak-memory accounting afresh: hands the heap memory freed so
/// far back to the kernel, then resets `VmHWM` to the current resident
/// size. Called before every set-up repetition, so the reported peak
/// covers one daemon's life (its set-up and the measured window) and
/// does not depend on which allocator arenas earlier repetitions left
/// filled (16-22% run-to-run spread of the peak without it).
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only returns free heap
    // pages to the kernel, under the allocator's own locks.
    unsafe {
        malloc_trim(0);
    }
    // Writing 5 resets the peak resident size (Linux 4.0 and later).
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}
