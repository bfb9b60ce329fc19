//! The resident daemon: TCP acceptor, admission queue, worker pool,
//! `/metrics` endpoint, graceful drain.
//!
//! Request lifecycle: **accept → admit → coalesce → compile/cache →
//! execute → metrics**. On x86-64 Linux the accept side is a single
//! readiness-polled [`crate::reactor`] thread (raw `epoll`), so tens of
//! thousands of idle clients cost one thread and a slab slot each; on
//! other targets a thread-per-connection fallback keeps the same wire
//! behavior. Either way, a request line is validated and either
//! answered inline (`stats`, malformed input, shed) or enqueued on the
//! bounded admission queue. A fixed worker pool pops jobs, re-checks
//! the deadline, and runs them through the shared [`ServeEngine`] with
//! a [`CancelToken`] carrying the deadline plus the daemon's drain
//! flag. The compile cache is memory-only: a restarted daemon
//! recompiles each kernel on its first request.
//!
//! Every piece of per-kernel state lives in an entry of one of the two
//! maps that `cache_capacity` bounds: a compiled plan and its native
//! code in the compile cache, a parsed kernel and its profile in the
//! kernel registry.
//!
//! Everything blocking polls: the acceptors/reactor wake on a short
//! timeout, connection reads carry a timeout, and workers wake on
//! queue close — so a drain (SIGINT or [`ServerHandle::shutdown`])
//! converges without relying on `EINTR` (glibc's `signal()` installs
//! handlers with `SA_RESTART`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexvec_vm::CancelToken;

use crate::engine::{build_info, ServeEngine};
use crate::json::Json;
use crate::metrics::ServeMetrics;
use crate::protocol::{
    err_response, line_too_long_response, ok_response, ErrorKind, Op, ProtoError, Request, MAX_LINE,
};
use crate::queue::{BoundedQueue, PushError};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::reactor::{self, Completions, ReactorMetrics};

/// How often blocked accept/read loops poll the shutdown flag.
const POLL: Duration = Duration::from_millis(10);

/// How the daemon accepts request connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AcceptMode {
    /// The epoll reactor where available (x86-64 Linux), the
    /// thread-per-connection acceptor elsewhere.
    #[default]
    Auto,
    /// Force the thread-per-connection acceptor (useful for testing
    /// the fallback on reactor-capable hosts).
    Threads,
}

/// Daemon tunables. The defaults suit an interactive local daemon;
/// tests shrink the queue and pool to force shed and drain paths.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Request listener address (`port 0` picks a free port).
    pub addr: String,
    /// `/metrics` HTTP listener address; `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Worker pool size (min 1).
    pub workers: usize,
    /// Admission queue capacity; beyond it requests shed with
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Compile-cache + kernel-registry bound (0 = unbounded). It bounds
    /// native code and kernel profiles too, which live in those entries.
    pub cache_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// How connections are accepted (reactor vs. connection threads).
    pub accept_mode: AcceptMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            metrics_addr: None,
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 1024,
            default_deadline_ms: None,
            accept_mode: AcceptMode::Auto,
        }
    }
}

/// Where a worker posts its response: a per-request channel (thread
/// fallback) or the reactor's completion mailbox keyed by connection
/// token.
enum Reply {
    Sync(mpsc::Sender<Json>),
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Reactor(Arc<Completions>, u64),
}

impl Reply {
    fn send(&self, response: Json) {
        match self {
            Reply::Sync(tx) => {
                let _ = tx.send(response);
            }
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Reply::Reactor(completions, token) => completions.push(*token, response),
        }
    }
}

/// One admitted request waiting for a worker.
struct Job {
    request: Request,
    deadline: Option<Instant>,
    admitted: Instant,
    reply: Reply,
}

struct Shared {
    engine: ServeEngine,
    metrics: ServeMetrics,
    queue: BoundedQueue<Job>,
    shutdown_flag: Arc<AtomicBool>,
    default_deadline_ms: Option<u64>,
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaks the listener threads (they keep
/// serving); tests and the CLI always drain explicitly.
pub struct ServerHandle {
    /// Bound request address (resolved port).
    pub addr: SocketAddr,
    /// Bound `/metrics` address, when enabled.
    pub metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The metrics registry (for in-process assertions).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// The compile-and-execute core (for in-process assertions).
    pub fn engine(&self) -> &ServeEngine {
        &self.shared.engine
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.shared.shutdown_flag.load(Ordering::Relaxed)
    }

    /// Requests a graceful drain and blocks until every thread exits:
    /// in-flight requests finish (their cancel token fires, stopping
    /// long runs at the next chunk boundary), queued-but-unstarted
    /// jobs are answered `shutting_down`, listeners close.
    pub fn shutdown(mut self) {
        self.shared.shutdown_flag.store(true, Ordering::Relaxed);
        self.shared.queue.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conn_threads.lock().expect("conn list"));
        for t in conns {
            let _ = t.join();
        }
    }
}

/// Starts the daemon: binds the listeners, spawns the worker pool and
/// the reactor (or acceptor) thread, and returns immediately.
///
/// # Errors
///
/// I/O errors binding either listener.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let metrics_listener = match &config.metrics_addr {
        Some(addr) => {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    let metrics_addr = metrics_listener
        .as_ref()
        .map(TcpListener::local_addr)
        .transpose()?;

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    let _ = reactor::raise_nofile_limit();

    let shared = Arc::new(Shared {
        engine: ServeEngine::new(config.cache_capacity),
        metrics: ServeMetrics::default(),
        queue: BoundedQueue::new(config.queue_capacity),
        shutdown_flag: Arc::new(AtomicBool::new(false)),
        default_deadline_ms: config.default_deadline_ms,
    });
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut threads = Vec::new();

    for worker in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{worker}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker"),
        );
    }
    threads.push(spawn_accept_side(
        listener,
        &shared,
        &conn_threads,
        config.accept_mode,
    )?);
    if let Some(listener) = metrics_listener {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("serve-metrics".to_owned())
                .spawn(move || metrics_loop(&listener, &shared))
                .expect("spawn metrics listener"),
        );
    }
    Ok(ServerHandle {
        addr,
        metrics_addr,
        shared,
        threads,
        conn_threads,
    })
}

/// Spawns the request-side thread per the configured [`AcceptMode`]:
/// the epoll reactor on x86-64 Linux (unless `Threads` forces the
/// fallback), the thread-per-connection acceptor everywhere else.
fn spawn_accept_side(
    listener: TcpListener,
    shared: &Arc<Shared>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    mode: AcceptMode,
) -> std::io::Result<JoinHandle<()>> {
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    let _ = mode;
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    if mode != AcceptMode::Threads {
        return spawn_reactor(listener, shared);
    }
    let shared = Arc::clone(shared);
    let conn_threads = Arc::clone(conn_threads);
    std::thread::Builder::new()
        .name("serve-accept".to_owned())
        .spawn(move || accept_loop(&listener, &shared, &conn_threads))
        .map_err(std::io::Error::other)
}

/// The reactor accept side (x86-64 Linux only).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn spawn_reactor(listener: TcpListener, shared: &Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    let completions = Arc::new(Completions::new()?);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("serve-reactor".to_owned())
        .spawn(move || {
            let metrics = ReactorMetrics {
                connections_total: &shared.metrics.connections_total,
                open_connections: &shared.metrics.open_connections,
            };
            reactor::run(
                &listener,
                &shared.shutdown_flag,
                &completions,
                metrics,
                |line, token| {
                    dispatch(line, &shared, || {
                        Reply::Reactor(Arc::clone(&completions), token)
                    })
                },
            );
        })
        .map_err(std::io::Error::other)
}

/// The thread-per-connection acceptor. Each accepted connection
/// first joins the connection threads that have finished, so the list
/// holds only live connections. A connection whose thread cannot be
/// spawned is closed, and accepting goes on.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.shutdown_flag.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.connections_total.inc();
                let mut conns = conn_threads.lock().expect("conn list");
                let mut i = 0;
                while i < conns.len() {
                    if conns[i].is_finished() {
                        let _ = conns.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_owned())
                    .spawn(move || connection_loop(stream, &shared));
                // On failure the closure, and the stream with it, is
                // dropped: the peer sees the connection close.
                if let Ok(handle) = spawned {
                    conns.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Reads request lines and writes response lines, in order. Returns
/// (closing the connection) on EOF, I/O error, drain, or an oversized
/// line (answered with a structured `line_too_long` reply first).
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // Every connection thread moves this gauge, so only atomic steps.
    let open = &shared.metrics.open_connections;
    open.inc();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match read_line_polling(&mut reader, &mut line, shared) {
            ReadOutcome::Line => {}
            ReadOutcome::TooLong => {
                // The framing is lost: answer with a structured error,
                // then close — same contract as the reactor path.
                shared.metrics.requests_failed.inc();
                let _ = writer.write_all(format!("{}\n", line_too_long_response()).as_bytes());
                break;
            }
            ReadOutcome::Eof | ReadOutcome::Draining | ReadOutcome::Error => break,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (tx, rx) = mpsc::channel();
        let response = match dispatch(trimmed, shared, || Reply::Sync(tx.clone())) {
            Some(inline) => inline,
            None => rx.recv().unwrap_or_else(|_| dropped_response(shared)),
        };
        if writer
            .write_all(format!("{response}\n").as_bytes())
            .is_err()
        {
            break;
        }
    }
    open.dec();
}

/// The response for a job whose worker died or whose reply channel was
/// dropped mid-drain.
fn dropped_response(shared: &Shared) -> Json {
    shared.metrics.requests_failed.inc();
    err_response(
        0,
        &ProtoError::new(ErrorKind::Internal, "request was dropped by the daemon"),
    )
}

enum ReadOutcome {
    Line,
    Eof,
    Draining,
    Error,
    /// The line exceeded [`MAX_LINE`]; the caller owes the peer a
    /// structured reply before closing.
    TooLong,
}

/// `read_line` with the drain flag polled on every read timeout, so
/// an idle connection notices shutdown within one poll interval.
fn read_line_polling(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    shared: &Shared,
) -> ReadOutcome {
    use std::io::Read;
    let mut bytes = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if bytes.is_empty() {
                    ReadOutcome::Eof
                } else {
                    finish_line(bytes, line)
                }
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return finish_line(bytes, line);
                }
                bytes.push(byte[0]);
                // A line that can't possibly be a sane request: refuse
                // to buffer without bound.
                if bytes.len() > MAX_LINE {
                    return ReadOutcome::TooLong;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown_flag.load(Ordering::Relaxed) && bytes.is_empty() {
                    return ReadOutcome::Draining;
                }
            }
            Err(_) => return ReadOutcome::Error,
        }
    }
}

fn finish_line(bytes: Vec<u8>, line: &mut String) -> ReadOutcome {
    match String::from_utf8(bytes) {
        Ok(s) => {
            line.push_str(&s);
            ReadOutcome::Line
        }
        Err(_) => {
            // Non-UTF-8 garbage still deserves a structured reply; map
            // it to an empty line the dispatcher rejects as a parse
            // error by substituting invalid bytes.
            line.push('\u{fffd}');
            ReadOutcome::Line
        }
    }
}

/// Validates one request line. Returns `Some(response)` for inline
/// answers (`stats`, parse errors, shed, drain); otherwise the request
/// is queued with the reply produced by `make_reply`, and the response
/// arrives through that reply later.
fn dispatch(line: &str, shared: &Arc<Shared>, make_reply: impl FnOnce() -> Reply) -> Option<Json> {
    shared.metrics.requests_total.inc();
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err((id, e)) => {
            shared.metrics.requests_failed.inc();
            return Some(err_response(id, &e));
        }
    };
    let id = request.id;

    // `stats` is answered inline — it must work even when the pool is
    // saturated, that's the whole point of asking for stats.
    if request.op == Op::Stats {
        let mut fields = shared.engine.stats_fields();
        fields.push(("queue_depth", Json::from(shared.queue.len() as u64)));
        fields.push(("queue_capacity", Json::from(shared.queue.capacity() as u64)));
        fields.push((
            "draining",
            Json::from(shared.shutdown_flag.load(Ordering::Relaxed)),
        ));
        fields.push((
            "open_connections",
            Json::from(shared.metrics.open_connections.get()),
        ));
        return Some(ok_response(id, fields));
    }

    let deadline_ms = request.deadline_ms.or(shared.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Job {
        request,
        deadline,
        admitted: Instant::now(),
        reply: make_reply(),
    };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared.metrics.queue_depth.set(depth as u64);
            None
        }
        Err((PushError::Full, _)) => {
            shared.metrics.requests_shed.inc();
            shared.metrics.requests_failed.inc();
            Some(err_response(
                id,
                &ProtoError::new(
                    ErrorKind::Overloaded,
                    format!(
                        "admission queue full ({} pending); retry with backoff",
                        shared.queue.capacity()
                    ),
                ),
            ))
        }
        Err((PushError::Closed, _)) => {
            shared.metrics.requests_failed.inc();
            Some(err_response(
                id,
                &ProtoError::new(ErrorKind::ShuttingDown, "daemon is draining"),
            ))
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.metrics.queue_depth.set(shared.queue.len() as u64);
        shared.metrics.queue_wait.observe(job.admitted.elapsed());
        let id = job.request.id;

        // A drain stops queued-but-unstarted work immediately.
        if shared.shutdown_flag.load(Ordering::Relaxed) {
            job.reply.send(err_response(
                id,
                &ProtoError::new(ErrorKind::ShuttingDown, "daemon is draining"),
            ));
            continue;
        }
        // A request that spent its whole budget queued never runs.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            shared.metrics.deadline_expired.inc();
            shared.metrics.requests_failed.inc();
            job.reply.send(err_response(
                id,
                &ProtoError::new(ErrorKind::Deadline, "deadline expired while queued"),
            ));
            continue;
        }

        let mut token = CancelToken::from_flag(Arc::clone(&shared.shutdown_flag));
        if let Some(d) = job.deadline {
            token = token.with_deadline(d);
        }
        let response = match shared.engine.handle(&job.request, Some(&token)) {
            Ok(out) => {
                if let Some(wall) = out.compile_wall {
                    shared.metrics.compile_latency.observe(wall);
                }
                if let Some(wall) = out.exec_wall {
                    shared.metrics.run_latency.observe(wall);
                }
                ok_response(id, out.fields)
            }
            Err(e) => {
                shared.metrics.requests_failed.inc();
                if e.kind == ErrorKind::Deadline {
                    shared.metrics.deadline_expired.inc();
                }
                err_response(id, &e)
            }
        };
        job.reply.send(response);
    }
}

/// Serves `/metrics` over a deliberately tiny HTTP/1.0 surface: read
/// the request head, answer one `200 text/plain` with the rendered
/// registry, close. Anything that isn't `GET /metrics` gets a 404.
fn metrics_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown_flag.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut reader = BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                });
                let mut request_line = String::new();
                if reader.read_line(&mut request_line).is_err() {
                    continue;
                }
                let path = request_line.split_whitespace().nth(1).unwrap_or("");
                let response = if path == "/metrics" || path.starts_with("/metrics?") {
                    let body = shared.metrics.render(&shared.engine.metric_samples());
                    format!(
                        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    )
                } else {
                    let body = "only /metrics is served here\n";
                    format!(
                        "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    )
                };
                let _ = stream.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One line describing a started daemon, printed by `flexvecc serve`.
pub fn startup_line(handle: &ServerHandle, config: &ServerConfig) -> String {
    let info = build_info();
    let metrics = handle
        .metrics_addr
        .map_or_else(|| "disabled".to_owned(), |a| a.to_string());
    format!(
        "flexvec-serve {info} listening on {} (metrics: {metrics}, workers: {}, \
         queue: {}, cache: {})",
        handle.addr,
        config.workers.max(1),
        config.queue_capacity,
        if config.cache_capacity == 0 {
            "unbounded".to_owned()
        } else {
            config.cache_capacity.to_string()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn connection_threads_are_joined_as_new_connections_arrive() {
        let handle = start(ServerConfig {
            workers: 1,
            accept_mode: AcceptMode::Threads,
            ..ServerConfig::default()
        })
        .expect("daemon starts");
        let addr = handle.addr.to_string();
        let stats = Json::obj([("op", Json::from("stats"))]);
        // One connection at a time: each is answered and closed before
        // the next opens.
        for _ in 0..100 {
            let mut client = Client::connect(&addr).expect("connects");
            client.request(&stats).expect("stats answers");
        }
        let held = handle.conn_threads.lock().expect("conn list").len();
        assert!(
            held <= 5,
            "{held} connection handles held after 100 connections"
        );
        handle.shutdown();
    }
}
