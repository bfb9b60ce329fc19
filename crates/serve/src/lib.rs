//! # flexvec-serve
//!
//! The serving layer: a resident daemon that keeps the compile cache
//! warm across requests. Batch drivers (`flexvecc run corpus/`) pay
//! the analyze→vectorize→bytecode-compile pipeline once per process;
//! a service pays it once per *lifetime* — repeat-kernel traffic is a
//! hash lookup plus an execution, which is where the cache's
//! concurrency story (sharding, coalescing, bounded LRU) actually
//! earns its keep.
//!
//! The daemon accepts newline-delimited JSON over TCP ([`protocol`]):
//! `compile`, `run`, `bench`, and `stats` ops carrying `.fv` source or
//! the content hash of a kernel it has already seen. Requests flow
//! **accept → admit → coalesce → compile/cache → execute → metrics**:
//!
//! * a **bounded admission queue** ([`queue`]) sheds excess load with
//!   a structured `overloaded` error instead of queueing unboundedly;
//! * a **fixed worker pool** services jobs against one process-wide
//!   [`flexvec_front::CompileCache`], submitting through the
//!   coalescing path so N concurrent requests for one kernel cost one
//!   compilation; a request that names no engine runs the entry's
//!   native code from its first run where the host has the JIT;
//! * **per-request deadlines** ride a [`flexvec_vm::CancelToken`] into
//!   the executor, which polls it at vector-chunk boundaries;
//! * a lock-cheap **metrics registry** ([`metrics`]) — counters plus
//!   log-scale latency histograms — is exposed in Prometheus text
//!   format on a `/metrics` HTTP endpoint;
//! * SIGINT triggers a **graceful drain** ([`signal`]): in-flight
//!   requests finish (or hit their cancel token), queued work is
//!   answered `shutting_down`, listeners close.
//!
//! On x86-64 Linux the accept side is a **readiness-polled reactor**
//! ([`reactor`]) — one thread, raw `epoll`, slab-managed connections —
//! so thousands of idle clients cost descriptors, not stacks (other
//! targets keep thread-per-connection). The compile cache lives in
//! memory only: a restarted daemon recompiles each kernel on its first
//! request, and an evicted kernel must be sent as source again.
//!
//! `flexvecc serve` / `flexvecc client` wrap [`server::start`] and
//! [`client::Client`]; `flexbench`, the repo benchmark, drives a
//! daemon end to end and reports its latency and sustained req/s.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod autotune;
pub mod client;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod queue;
// The reactor issues raw `epoll`/`eventfd` syscalls (inline asm, same
// idiom as the VM's JIT page allocator) — the one unsafe island in an
// otherwise `deny(unsafe_code)` crate, and only on x86-64 Linux; other
// targets use the thread-per-connection fallback in `server`.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[allow(unsafe_code)]
pub mod reactor;
pub mod server;
pub mod signal;

pub use client::{fetch_metrics, Client};
pub use engine::{build_info, BuildInfo, ServeEngine};
pub use json::Json;
pub use metrics::ServeMetrics;
pub use protocol::{
    err_response, hash_hex, ok_response, parse_engine, parse_spec, ErrorKind, Op, ProtoError,
    Request,
};
pub use queue::BoundedQueue;
pub use server::{start, startup_line, AcceptMode, ServerConfig, ServerHandle};
pub use signal::{install_sigint_handler, interrupted, reset_interrupted};
