//! Thousands of idle connections on the epoll reactor.
//!
//! The reactor exists so that idle clients cost descriptors, not
//! threads. This test parks 5000 idle connections on one daemon and
//! fails unless the reactor accepts them all, reports them open, and
//! holds them without growing the process thread count, while a live
//! request still gets through. It needs about two descriptors per
//! connection (the daemon raises its own `nofile` limit) and can take
//! half a minute where the listen queue overflows (a dropped handshake
//! is retried after 1 s), so it is ignored by default; run it with
//!
//! ```text
//! cargo test --release -p flexvec-serve --test idle_connections -- --ignored
//! ```
//!
//! Only targets with the reactor build it. Never point it at
//! `AcceptMode::Threads`: that starts one OS thread per parked socket.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::net::TcpStream;

use flexvec_serve::{start, AcceptMode, Client, Json, ServerConfig};

/// Idle connections parked on the daemon.
const IDLE_CONNS: usize = 5000;

/// Threads the process may gain while the connections are parked:
/// thread-per-connection would add about one per socket.
const THREAD_SLACK: u64 = 8;

/// Threads currently in this process, from `/proc/self/status`.
fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
#[ignore = "parks 5000 connections: about 10k descriptors, up to half a minute"]
fn reactor_parks_thousands_of_idle_connections() {
    let handle = start(ServerConfig {
        accept_mode: AcceptMode::Auto,
        ..ServerConfig::default()
    })
    .expect("start daemon");
    let addr = handle.addr.to_string();

    let threads_before = process_threads();
    let idle: Vec<TcpStream> = (0..IDLE_CONNS)
        .filter_map(|_| TcpStream::connect(&addr).ok())
        .collect();
    assert_eq!(idle.len(), IDLE_CONNS, "idle connections accepted");

    // The reactor accepts asynchronously; a live request queues behind
    // the parked herd's accepts and proves requests still flow.
    let mut probe = Client::connect(&addr).expect("probe connect");
    let stats = probe
        .request(&Json::obj([("op", Json::from("stats"))]))
        .expect("stats with idle herd");
    let open = stats
        .get("open_connections")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(
        open >= IDLE_CONNS as u64,
        "the daemon reports {open} open connections, expected at least the {IDLE_CONNS} parked ones"
    );
    let threads_after = process_threads();
    assert!(
        threads_after <= threads_before + THREAD_SLACK,
        "thread count grew {threads_before} -> {threads_after} while parking {IDLE_CONNS} idle connections"
    );
    drop(probe);
    drop(idle);
    handle.shutdown();
}
