//! Consistent-hash cluster mode: N daemons share one logical compile
//! cache by hashing kernels onto a ring of peers.
//!
//! Every member runs the same daemon with the same `--cluster` peer
//! list; each one hashes every member name onto `VNODES` points of a
//! 64-bit ring. A kernel's stable AST hash lands on the ring and the
//! next point clockwise names its **owner** — the node expected to
//! hold (or build) the compiled artifact. A node receiving a request
//! for a kernel it doesn't own and hasn't compiled forwards the line
//! to the owner over the same newline-JSON protocol, with
//! `forwarded: true` set so the owner always serves locally (one hop,
//! never a loop).
//!
//! Failure handling is deliberately boring:
//!
//! * **circuit breakers** — `BREAKER_THRESHOLD` consecutive forward
//!   failures open the peer's breaker for `BREAKER_COOLDOWN`;
//!   while open, requests for that owner degrade to a local compile
//!   (correct, just colder). After the cooldown one trial request
//!   probes the peer; success closes the breaker.
//! * **hot-key adoption** — after `ADOPT_AFTER` forwards of the same
//!   kernel, a node that knows the source compiles it locally instead
//!   of forwarding forever, so skewed traffic scales with the cluster
//!   instead of serializing on one owner.
//!
//! The ring is static (peer list fixed at startup): membership changes
//! are a restart, not a protocol.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use flexvec::StableHasher;

use crate::client::Client;
use crate::json::{self, Json};
use crate::metrics::{Counter, ExternalSample};
use crate::protocol::Request;

/// Ring points per member. 64 vnodes keeps the expected share of a
/// 3-node ring within a few percent of 1/3.
const VNODES: u32 = 64;

/// Consecutive forward failures before a peer's breaker opens.
const BREAKER_THRESHOLD: u32 = 3;

/// How long an open breaker short-circuits forwards to its peer.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(5);

/// Forwards of one kernel hash after which a node that knows the
/// source stops forwarding and compiles locally (hot-key adoption).
const ADOPT_AFTER: u64 = 2;

/// Connect timeout for forward connections; a dead peer must fail fast
/// enough that the breaker opens instead of stalling the worker pool.
const FORWARD_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Read/write timeout on forward connections (covers the owner's
/// compile + execute; beyond this the forward fails and the request
/// degrades to a local compile).
const FORWARD_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Forward/breaker counters exported on `/metrics` as
/// `flexvec_cluster_*`.
#[derive(Debug, Default)]
pub struct ClusterCounters {
    /// Requests forwarded to their ring owner and answered by it.
    pub forwards: Counter,
    /// Forwards that failed (connect/transport error or open breaker)
    /// and degraded to a local compile.
    pub forward_failures: Counter,
    /// Breaker open events (closed/half-open → open transitions).
    pub breaker_trips: Counter,
    /// Hot kernels adopted locally after repeated forwards.
    pub adoptions: Counter,
}

/// Per-peer circuit breaker state.
#[derive(Debug, Default)]
struct Breaker {
    consecutive_failures: u32,
    open_until: Option<Instant>,
}

/// One remote member: its breaker and a pooled forward connection.
#[derive(Debug, Default)]
struct Peer {
    breaker: Mutex<Breaker>,
    client: Mutex<Option<Client>>,
}

/// The static consistent-hash ring plus per-peer forwarding state.
pub struct Cluster {
    advertise: String,
    members: Vec<String>,
    /// Sorted ring: (point, index into `members`).
    points: Vec<(u64, usize)>,
    peers: HashMap<String, Peer>,
    forward_counts: Mutex<HashMap<u64, u64>>,
    /// How long an open breaker short-circuits calls; the default
    /// [`BREAKER_COOLDOWN`], shortened by tests.
    breaker_cooldown: Duration,
    /// Forward/breaker counters (shared with `/metrics`).
    pub counters: ClusterCounters,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("advertise", &self.advertise)
            .field("members", &self.members)
            .finish_non_exhaustive()
    }
}

fn ring_point(member: &str, vnode: u32) -> u64 {
    let mut h = StableHasher::new();
    h.tag(0xC1);
    h.write_str(member);
    h.write_u64(vnode as u64);
    h.finish()
}

impl Cluster {
    /// Builds the ring from the full member list (which must include
    /// `advertise`, this node's own name in the list). The list is
    /// sorted and deduplicated so every member derives the same ring
    /// regardless of CLI argument order.
    ///
    /// # Errors
    ///
    /// A human-readable message when `advertise` is not in the list or
    /// the list has no other members.
    pub fn new(mut members: Vec<String>, advertise: String) -> Result<Cluster, String> {
        members.sort();
        members.dedup();
        if !members.contains(&advertise) {
            return Err(format!(
                "--advertise {advertise} is not in the --cluster peer list {members:?}"
            ));
        }
        if members.len() < 2 {
            return Err("a cluster needs at least two members".to_owned());
        }
        let mut points = Vec::with_capacity(members.len() * VNODES as usize);
        for (i, m) in members.iter().enumerate() {
            for v in 0..VNODES {
                points.push((ring_point(m, v), i));
            }
        }
        points.sort_unstable();
        let peers = members
            .iter()
            .filter(|m| **m != advertise)
            .map(|m| (m.clone(), Peer::default()))
            .collect();
        Ok(Cluster {
            advertise,
            members,
            points,
            peers,
            forward_counts: Mutex::new(HashMap::new()),
            breaker_cooldown: BREAKER_COOLDOWN,
            counters: ClusterCounters::default(),
        })
    }

    /// Overrides the breaker cooldown (tests exercise half-open
    /// recovery without waiting out the production five seconds).
    pub fn set_breaker_cooldown(&mut self, cooldown: Duration) {
        self.breaker_cooldown = cooldown;
    }

    /// This node's own name in the ring.
    pub fn advertise(&self) -> &str {
        &self.advertise
    }

    /// The sorted member list the ring was built from.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of remote peers (members minus self).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The remote peers' names, ring order not guaranteed. Gossip
    /// rounds and anti-entropy sync iterate this.
    pub fn peer_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.peers.keys().cloned().collect();
        names.sort();
        names
    }

    /// The member owning `kernel_hash`: the first ring point at or
    /// after the hash, wrapping to the smallest point.
    pub fn owner_of(&self, kernel_hash: u64) -> &str {
        let idx = self.points.partition_point(|(p, _)| *p < kernel_hash);
        let (_, member) = self.points[idx % self.points.len()];
        &self.members[member]
    }

    /// Whether this node owns `kernel_hash`.
    pub fn is_local(&self, kernel_hash: u64) -> bool {
        self.owner_of(kernel_hash) == self.advertise
    }

    /// Records one forward decision for `kernel_hash` and reports
    /// whether the key is now hot enough to adopt locally. The caller
    /// only adopts when it actually knows the kernel's source.
    pub fn note_forward(&self, kernel_hash: u64) -> bool {
        let mut counts = self.forward_counts.lock().expect("forward counts");
        let n = counts.entry(kernel_hash).or_insert(0);
        *n += 1;
        if *n == ADOPT_AFTER + 1 {
            self.counters.adoptions.inc();
        }
        *n > ADOPT_AFTER
    }

    /// Forwards `request` to `owner` with the `forwarded` flag set,
    /// returning the owner's response verbatim.
    ///
    /// # Errors
    ///
    /// A message when the breaker is open or both transport attempts
    /// fail; the caller degrades to a local compile. Failures feed the
    /// breaker, success resets it.
    pub fn forward(&self, owner: &str, request: &Request) -> Result<Json, String> {
        let line = request.to_json(true).to_string();
        match self.call(owner, &line) {
            Ok(response) => {
                self.counters.forwards.inc();
                Ok(response)
            }
            Err(e) => {
                self.counters.forward_failures.inc();
                Err(e)
            }
        }
    }

    /// One breaker-gated request/response exchange with `peer`: the
    /// shared transport under request forwarding, gossip rounds, and
    /// snapshot pulls, so every use of a peer feeds the *same* breaker
    /// — a peer that stops answering forwards also stops being asked
    /// for snapshots, and vice versa.
    ///
    /// # Errors
    ///
    /// A message when the breaker is open, transport fails, or the
    /// response doesn't parse. Failures feed the breaker, success
    /// resets it.
    pub fn call(&self, peer_name: &str, line: &str) -> Result<Json, String> {
        let peer = self
            .peers
            .get(peer_name)
            .ok_or_else(|| format!("{peer_name} is not a cluster peer"))?;
        if !Self::breaker_allows(peer) {
            return Err(format!("breaker open for {peer_name}"));
        }
        match Self::exchange(peer, peer_name, line) {
            Ok(text) => match json::parse(&text) {
                Ok(response) => {
                    self.on_success(peer);
                    Ok(response)
                }
                Err(e) => {
                    self.on_failure(peer);
                    Err(format!("unparsable response from {peer_name}: {e}"))
                }
            },
            Err(e) => {
                self.on_failure(peer);
                Err(format!("call to {peer_name} failed: {e}"))
            }
        }
    }

    /// Whether `peer_name`'s breaker currently admits a call — lets
    /// replication skip peers that are known-down without burning a
    /// connect timeout.
    pub fn peer_available(&self, peer_name: &str) -> bool {
        self.peers.get(peer_name).is_some_and(Self::breaker_allows)
    }

    /// One request over the pooled connection, reconnecting once: a
    /// cached connection may be stale (the peer restarted), which must
    /// not count as a peer failure.
    fn exchange(peer: &Peer, owner: &str, line: &str) -> std::io::Result<String> {
        let mut slot = peer.client.lock().expect("peer client");
        if let Some(client) = slot.as_mut() {
            match client.request_raw(line) {
                Ok(text) => return Ok(text),
                Err(_) => *slot = None,
            }
        }
        let mut client =
            Client::connect_timeout(owner, FORWARD_CONNECT_TIMEOUT, Some(FORWARD_IO_TIMEOUT))?;
        let text = client.request_raw(line)?;
        *slot = Some(client);
        Ok(text)
    }

    /// Whether the peer's breaker currently admits a forward. An
    /// expired cooldown admits one half-open trial; the trial's
    /// outcome closes or re-opens the breaker.
    fn breaker_allows(peer: &Peer) -> bool {
        let breaker = peer.breaker.lock().expect("breaker");
        match breaker.open_until {
            Some(until) => Instant::now() >= until,
            None => true,
        }
    }

    fn on_success(&self, peer: &Peer) {
        let mut breaker = peer.breaker.lock().expect("breaker");
        breaker.consecutive_failures = 0;
        breaker.open_until = None;
    }

    fn on_failure(&self, peer: &Peer) {
        let mut breaker = peer.breaker.lock().expect("breaker");
        breaker.consecutive_failures += 1;
        if breaker.consecutive_failures >= BREAKER_THRESHOLD {
            // (Re-)open: a failed half-open trial restarts the cooldown.
            if breaker.open_until.is_none_or(|u| Instant::now() >= u) {
                self.counters.breaker_trips.inc();
            }
            breaker.open_until = Some(Instant::now() + self.breaker_cooldown);
        }
    }

    /// Cluster counters for `/metrics`, pre-seeded from the first
    /// scrape.
    pub fn metric_samples(&self) -> Vec<ExternalSample> {
        Vec::from([
            ExternalSample {
                name: "flexvec_cluster_forwards_total",
                value: self.counters.forwards.get(),
            },
            ExternalSample {
                name: "flexvec_cluster_forward_failures_total",
                value: self.counters.forward_failures.get(),
            },
            ExternalSample {
                name: "flexvec_cluster_breaker_trips_total",
                value: self.counters.breaker_trips.get(),
            },
            ExternalSample {
                name: "flexvec_cluster_adoptions_total",
                value: self.counters.adoptions.get(),
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Op;
    use flexvec::SpecRequest;

    fn three_nodes(advertise: &str) -> Cluster {
        Cluster::new(
            vec![
                "127.0.0.1:9001".to_owned(),
                "127.0.0.1:9002".to_owned(),
                "127.0.0.1:9003".to_owned(),
            ],
            advertise.to_owned(),
        )
        .unwrap()
    }

    #[test]
    fn every_member_derives_the_same_ring() {
        let a = three_nodes("127.0.0.1:9001");
        let shuffled = Cluster::new(
            vec![
                "127.0.0.1:9003".to_owned(),
                "127.0.0.1:9001".to_owned(),
                "127.0.0.1:9002".to_owned(),
                "127.0.0.1:9002".to_owned(), // dup
            ],
            "127.0.0.1:9002".to_owned(),
        )
        .unwrap();
        for hash in (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            assert_eq!(a.owner_of(hash), shuffled.owner_of(hash));
        }
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        let c = three_nodes("127.0.0.1:9001");
        let mut counts = HashMap::new();
        for hash in (0..30_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            *counts.entry(c.owner_of(hash).to_owned()).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 3, "every member owns some keys");
        for (_, n) in counts {
            // Within a generous band of the 10k fair share.
            assert!((4_000..=16_000).contains(&n), "skewed share: {n}");
        }
    }

    #[test]
    fn misconfigured_advertise_is_rejected() {
        let err =
            Cluster::new(vec!["a:1".to_owned(), "b:2".to_owned()], "c:3".to_owned()).unwrap_err();
        assert!(err.contains("not in the --cluster peer list"));
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_fails_fast() {
        let c = Cluster::new(
            // Port 9 (discard) on localhost is essentially never bound;
            // connects fail immediately with ECONNREFUSED.
            vec!["127.0.0.1:9".to_owned(), "127.0.0.1:9001".to_owned()],
            "127.0.0.1:9001".to_owned(),
        )
        .unwrap();
        let req = Request {
            id: 7,
            op: Op::Compile,
            source: None,
            hash: Some(0xabcd),
            spec: SpecRequest::Auto,
            spec_explicit: false,
            engine: None,
            vl: None,
            invocations: 1,
            deadline_ms: None,
            forwarded: false,
        };
        for _ in 0..BREAKER_THRESHOLD {
            assert!(c.forward("127.0.0.1:9", &req).is_err());
        }
        assert_eq!(c.counters.breaker_trips.get(), 1);
        // Breaker now open: the next forward fails without connecting.
        let t0 = Instant::now();
        let err = c.forward("127.0.0.1:9", &req).unwrap_err();
        assert!(err.contains("breaker open"), "{err}");
        assert!(t0.elapsed() < FORWARD_CONNECT_TIMEOUT);
        assert_eq!(
            c.counters.forward_failures.get(),
            u64::from(BREAKER_THRESHOLD) + 1
        );
    }

    #[test]
    fn breaker_half_open_trial_success_closes_it() {
        // Reserve a concrete localhost port, then release it so the
        // first calls are refused and trip the breaker.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let mut c = Cluster::new(
            vec![addr.clone(), "127.0.0.1:9001".to_owned()],
            "127.0.0.1:9001".to_owned(),
        )
        .unwrap();
        c.set_breaker_cooldown(Duration::from_millis(150));
        for _ in 0..BREAKER_THRESHOLD {
            assert!(c.call(&addr, "{\"op\":\"stats\"}").is_err());
        }
        assert_eq!(c.counters.breaker_trips.get(), 1);
        assert!(!c.peer_available(&addr), "breaker must be open");
        let err = c.call(&addr, "{}").unwrap_err();
        assert!(err.contains("breaker open"), "{err}");

        // Rebind the reserved port with a one-shot responder: after
        // the cooldown the breaker is half-open and must admit exactly
        // the trial, whose success closes it.
        let listener = std::net::TcpListener::bind(&addr).expect("rebind reserved port");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = std::io::Read::read(&mut s, &mut buf);
            std::io::Write::write_all(&mut s, b"{\"ok\":true}\n").unwrap();
        });
        std::thread::sleep(Duration::from_millis(200));
        assert!(
            c.peer_available(&addr),
            "expired cooldown admits a half-open trial"
        );
        let response = c
            .call(&addr, "{\"op\":\"stats\",\"id\":1}")
            .expect("half-open trial should reach the revived peer");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        server.join().unwrap();

        // The trial closed the breaker: the responder is gone again,
        // so this call fails, but one failure is below the threshold —
        // no new trip, and the peer stays available.
        assert!(c.call(&addr, "{}").is_err());
        assert_eq!(c.counters.breaker_trips.get(), 1, "breaker was closed");
        assert!(c.peer_available(&addr));
    }

    #[test]
    fn hot_keys_are_adopted_after_repeated_forwards() {
        let c = three_nodes("127.0.0.1:9001");
        assert!(!c.note_forward(42));
        assert!(!c.note_forward(42));
        assert!(c.note_forward(42), "third forward of one key adopts it");
        assert!(c.note_forward(42), "adoption is sticky");
        assert!(!c.note_forward(43), "counts are per-kernel");
        assert_eq!(c.counters.adoptions.get(), 1);
    }
}
