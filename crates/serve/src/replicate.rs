//! Gossip-based snapshot replication: cluster members ship validated
//! compile-cache snapshots to each other so a freshly joined replica
//! serves its ring slice warm instead of recompiling the working set.
//!
//! Three mechanisms, all riding the existing newline-JSON protocol and
//! the per-peer circuit breakers of [`crate::cluster`]:
//!
//! * **manifest gossip** — every [`ServerConfig::gossip_interval_ms`]
//!   each member sends ring peers a compact manifest of its snapshot
//!   store (kernel hash, spec, epoch word, checksum, last-touch
//!   generation, in-memory residency) and merges the manifest the peer
//!   replies with (push-pull, so one exchange teaches both sides);
//! * **lazy pull** — on a local cache miss, before compiling, the node
//!   asks a peer whose manifest claims the snapshot for the raw bytes
//!   and runs them through *all four* validation gates plus content
//!   re-derivation ([`SnapshotStore::admit_pulled`]). A shipped
//!   snapshot is never executed unvalidated; a tampered one is
//!   rejected per-reason and the node compiles from source;
//! * **anti-entropy sync** — a joining node gossips with every peer
//!   once, then pulls every snapshot of the ring slice it now owns,
//!   admitting each into both the disk store and the in-memory cache,
//!   so its first owned-slice requests are warm before it takes load.
//!
//! Distributed aging closes the loop: manifests carry in-memory
//! residency, and a snapshot that has been out of *every* member's
//! in-memory cache for `Replicator::gc_rounds` consecutive gossip
//! rounds is garbage-collected from disk (`snapshot_evicted` log line,
//! `reason=distributed_gc`).
//!
//! Loop safety is structural: gossip and pull handlers are
//! **terminal**. A pull is answered from local disk or `found: false`
//! — never relayed to another peer — the same discipline the
//! `forwarded` flag enforces for request forwarding, so a stale ring
//! cannot create message storms.
//!
//! [`ServerConfig::gossip_interval_ms`]: crate::server::ServerConfig::gossip_interval_ms

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use flexvec::SpecRequest;
use flexvec_front::CompiledKernel;

use crate::cluster::Cluster;
use crate::engine::ServeEngine;
use crate::json::Json;
use crate::metrics::{Counter, ExternalSample};
use crate::protocol::{err_response, hash_hex, ok_response, ErrorKind, ProtoError};
use crate::snapshot::{epoch_word, ManifestEntry, SnapshotStore};

/// Replication counters exported on `/metrics` as `flexvec_replica_*`.
#[derive(Debug, Default)]
pub struct ReplicationCounters {
    /// Completed gossip rounds (one per interval tick).
    pub gossip_rounds: Counter,
    /// Per-peer gossip exchanges that failed (breaker open or
    /// transport error).
    pub gossip_failures: Counter,
    /// Peer manifests merged (requests received plus replies to our
    /// own gossip).
    pub manifests_received: Counter,
    /// Snapshot pulls attempted against a peer.
    pub pull_attempts: Counter,
    /// Pulls that failed: transport, `found: false`, or a validation
    /// gate rejecting the shipped bytes.
    pub pull_failures: Counter,
    /// Pull requests this node answered with snapshot bytes.
    pub pulls_served: Counter,
    /// Snapshots removed from disk by distributed aging.
    pub gc_removed: Counter,
}

/// What a peer's manifest last claimed about one snapshot.
#[derive(Debug, Clone, Copy)]
struct PeerEntry {
    epoch: u32,
    #[allow(dead_code)] // carried for operators/debugging; pulls revalidate anyway
    checksum: u64,
    #[allow(dead_code)]
    generation: u64,
    in_memory: bool,
}

/// The merged view of one peer's snapshot store.
#[derive(Debug, Default)]
struct PeerView {
    /// The peer's gossip round when this view was merged.
    round: u64,
    /// (hash, spec tag) → claimed entry.
    entries: HashMap<(u64, String), PeerEntry>,
}

#[derive(Debug, Default)]
struct ReplState {
    peers: HashMap<String, PeerView>,
    /// Consecutive gossip rounds each local snapshot has been out of
    /// every member's in-memory cache.
    ages: HashMap<(u64, String), u64>,
}

/// The replication subsystem: gossip state, pull transport, and
/// distributed aging for one cluster member.
pub struct Replicator {
    cluster: Arc<Cluster>,
    store: Arc<SnapshotStore>,
    state: Mutex<ReplState>,
    /// This node's gossip round counter.
    round: AtomicU64,
    /// Whether anti-entropy sync has completed since startup.
    synced: AtomicBool,
    /// Rounds a snapshot may be memory-resident nowhere before GC
    /// removes it from disk (0 disables aging).
    gc_rounds: u64,
    /// Gossip/pull counters (shared with `/metrics`).
    pub counters: ReplicationCounters,
}

impl std::fmt::Debug for Replicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("advertise", &self.cluster.advertise())
            .field("round", &self.round.load(Ordering::Relaxed))
            .field("synced", &self.synced.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

fn parse_hash_hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

impl Replicator {
    /// Builds the replicator over the node's ring and snapshot store.
    /// `gc_rounds` is the distributed-aging threshold (0 disables GC).
    pub fn new(cluster: Arc<Cluster>, store: Arc<SnapshotStore>, gc_rounds: u64) -> Replicator {
        Replicator {
            cluster,
            store,
            state: Mutex::new(ReplState::default()),
            round: AtomicU64::new(0),
            synced: AtomicBool::new(false),
            gc_rounds,
            counters: ReplicationCounters::default(),
        }
    }

    /// The ring this replicator gossips over.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Whether anti-entropy sync has completed since startup — the
    /// "this replica is warm" readiness signal.
    pub fn synced(&self) -> bool {
        self.synced.load(Ordering::Acquire)
    }

    /// This node's gossip round counter.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    fn entry_json(e: &ManifestEntry) -> Json {
        Json::obj([
            ("hash", Json::from(hash_hex(e.hash))),
            ("spec", Json::from(SnapshotStore::spec_tag(e.spec))),
            ("epoch", Json::from(u64::from(e.epoch))),
            ("checksum", Json::from(hash_hex(e.checksum))),
            ("generation", Json::from(e.generation)),
            ("in_memory", Json::from(e.in_memory)),
        ])
    }

    fn parse_entry(value: &Json) -> Option<((u64, String), PeerEntry)> {
        let hash = parse_hash_hex(value.get("hash").and_then(Json::as_str)?)?;
        let tag = value.get("spec").and_then(Json::as_str)?;
        SnapshotStore::parse_spec_tag(tag)?; // refuse malformed spec tags
        let epoch = u32::try_from(value.get("epoch").and_then(Json::as_u64)?).ok()?;
        let checksum = parse_hash_hex(value.get("checksum").and_then(Json::as_str)?)?;
        let generation = value.get("generation").and_then(Json::as_u64).unwrap_or(0);
        let in_memory = value
            .get("in_memory")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        Some((
            (hash, tag.to_owned()),
            PeerEntry {
                epoch,
                checksum,
                generation,
                in_memory,
            },
        ))
    }

    /// This node's manifest as a JSON array, with in-memory residency
    /// probed against the engine's compile cache.
    fn manifest_json(&self, engine: &ServeEngine) -> Json {
        Json::Arr(
            self.store
                .manifest(&|hash, spec| engine.has_compiled(hash, spec))
                .iter()
                .map(Self::entry_json)
                .collect(),
        )
    }

    /// The gossip request line this node sends a peer.
    fn gossip_line(&self, engine: &ServeEngine) -> String {
        Json::obj([
            ("op", Json::from("gossip")),
            ("id", Json::from(0u64)),
            ("from", Json::from(self.cluster.advertise())),
            ("round", Json::from(self.round())),
            ("manifest", self.manifest_json(engine)),
        ])
        .to_string()
    }

    /// Merges one peer manifest into the local view. Malformed entries
    /// are dropped individually; the rest of the manifest still lands.
    pub(crate) fn merge_peer_manifest(&self, from: &str, round: u64, entries: &[Json]) {
        let parsed: HashMap<(u64, String), PeerEntry> =
            entries.iter().filter_map(Self::parse_entry).collect();
        let mut state = self.state.lock().expect("replication state");
        let view = state.peers.entry(from.to_owned()).or_default();
        view.round = round;
        view.entries = parsed;
        drop(state);
        self.counters.manifests_received.inc();
    }

    fn merge_manifest_value(&self, value: &Json) {
        let Some(from) = value.get("from").and_then(Json::as_str) else {
            return;
        };
        // A member gossiping under our own name is misconfigured;
        // merging it would make us "claim" our own files remotely.
        if from == self.cluster.advertise() {
            return;
        }
        let round = value.get("round").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Arr(entries)) = value.get("manifest") {
            self.merge_peer_manifest(from, round, entries);
        }
    }

    /// Handles an incoming `gossip` line: merge the sender's manifest,
    /// reply with our own (push-pull — one exchange teaches both
    /// sides). Terminal: never relayed to another peer.
    pub fn handle_gossip(&self, value: &Json, engine: &ServeEngine) -> Json {
        let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
        self.merge_manifest_value(value);
        ok_response(
            id,
            [
                ("op", Json::from("gossip")),
                ("from", Json::from(self.cluster.advertise())),
                ("round", Json::from(self.round())),
                ("manifest", self.manifest_json(engine)),
            ],
        )
    }

    /// Handles an incoming `pull` line: answer with the raw snapshot
    /// bytes from local disk (hex-encoded; the *puller* validates) or
    /// `found: false`. Terminal by construction — this never consults
    /// peers, never compiles, never cascades — so pulls cannot loop.
    pub fn handle_pull(&self, value: &Json) -> Json {
        let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
        let hash = value
            .get("hash")
            .and_then(Json::as_str)
            .and_then(parse_hash_hex);
        let spec = value
            .get("spec")
            .and_then(Json::as_str)
            .and_then(SnapshotStore::parse_spec_tag);
        let (Some(hash), Some(spec)) = (hash, spec) else {
            return err_response(
                id,
                &ProtoError::new(
                    ErrorKind::BadRequest,
                    "pull needs `hash` (hex) and `spec` (ff/rtmTILE)",
                ),
            );
        };
        match self.store.raw_bytes(hash, spec) {
            Some(bytes) => {
                self.counters.pulls_served.inc();
                ok_response(
                    id,
                    [
                        ("found", Json::from(true)),
                        ("hash", Json::from(hash_hex(hash))),
                        ("spec", Json::from(SnapshotStore::spec_tag(spec))),
                        ("data", Json::from(to_hex(&bytes))),
                    ],
                )
            }
            None => ok_response(id, [("found", Json::from(false))]),
        }
    }

    /// Whether any peer's manifest claims a compatible snapshot of
    /// `hash` (any spec) — the router uses this to prefer pulling the
    /// artifact over forwarding the request.
    pub fn peer_claims(&self, hash: u64) -> bool {
        let state = self.state.lock().expect("replication state");
        state.peers.values().any(|view| {
            view.entries
                .iter()
                .any(|((h, _), e)| *h == hash && e.epoch == epoch_word())
        })
    }

    /// Peers whose manifests claim a compatible `(hash, spec)`
    /// snapshot, ring owner first (most likely to be authoritative),
    /// then sorted for determinism.
    fn claimants(&self, hash: u64, spec: SpecRequest) -> Vec<String> {
        let key = (hash, SnapshotStore::spec_tag(spec));
        let owner = self.cluster.owner_of(hash).to_owned();
        let state = self.state.lock().expect("replication state");
        let mut peers: Vec<String> = state
            .peers
            .iter()
            .filter(|(_, view)| {
                view.entries
                    .get(&key)
                    .is_some_and(|e| e.epoch == epoch_word())
            })
            .map(|(name, _)| name.clone())
            .collect();
        peers.sort();
        peers.sort_by_key(|name| *name != owner);
        peers
    }

    /// One pull exchange: raw bytes or a counted failure.
    fn fetch(&self, peer: &str, hash: u64, spec: SpecRequest) -> Option<Vec<u8>> {
        self.counters.pull_attempts.inc();
        let line = Json::obj([
            ("op", Json::from("pull")),
            ("id", Json::from(0u64)),
            ("hash", Json::from(hash_hex(hash))),
            ("spec", Json::from(SnapshotStore::spec_tag(spec))),
        ])
        .to_string();
        let bytes = match self.cluster.call(peer, &line) {
            Ok(reply) if reply.get("found").and_then(Json::as_bool) == Some(true) => {
                reply.get("data").and_then(Json::as_str).and_then(from_hex)
            }
            _ => None,
        };
        if bytes.is_none() {
            self.counters.pull_failures.inc();
        }
        bytes
    }

    /// Lazy pull for a cache miss: tries each claimant peer in turn,
    /// validating the shipped bytes through every gate before trusting
    /// them ([`SnapshotStore::admit_pulled`] — which also persists the
    /// snapshot locally). `None` means no peer produced a valid
    /// snapshot and the caller compiles from source.
    ///
    /// This is called from *inside* the compile cache's coalesced miss
    /// closure, so it deliberately never touches the in-memory cache
    /// itself — the closure's return value is what gets inserted, and
    /// concurrent pull/compile racers coalesce onto one entry.
    pub fn pull_for(&self, hash: u64, spec: SpecRequest) -> Option<CompiledKernel> {
        for peer in self.claimants(hash, spec) {
            if !self.cluster.peer_available(&peer) {
                continue; // open breaker: don't burn a connect timeout
            }
            let Some(bytes) = self.fetch(&peer, hash, spec) else {
                continue;
            };
            match self.store.admit_pulled(&bytes, hash, spec) {
                Ok((kernel, _parsed)) => return Some(kernel),
                Err(reason) => {
                    self.counters.pull_failures.inc();
                    eprintln!(
                        "flexvec-serve: pulled snapshot {}.{} from {peer} rejected: {}",
                        hash_hex(hash),
                        SnapshotStore::spec_tag(spec),
                        reason.label()
                    );
                }
            }
        }
        None
    }

    /// Pulls *any* spec variant of `hash` a peer claims, so a
    /// hash-only request for a kernel this node has never seen can be
    /// resolved from the pulled snapshot's embedded source instead of
    /// failing `unknown_hash`. Returns whether something was admitted.
    pub fn pull_any(&self, hash: u64) -> bool {
        let specs: Vec<SpecRequest> = {
            let state = self.state.lock().expect("replication state");
            let mut tags: Vec<String> = state
                .peers
                .values()
                .flat_map(|view| view.entries.iter())
                .filter(|((h, _), e)| *h == hash && e.epoch == epoch_word())
                .map(|((_, tag), _)| tag.clone())
                .collect();
            tags.sort();
            tags.dedup();
            tags.iter()
                .filter_map(|t| SnapshotStore::parse_spec_tag(t))
                .collect()
        };
        specs
            .into_iter()
            .any(|spec| self.pull_for(hash, spec).is_some())
    }

    /// One gossip tick: push-pull manifests with every peer, then age
    /// and garbage-collect. Failures feed the shared breakers and are
    /// counted, never fatal.
    pub fn gossip_round(&self, engine: &ServeEngine) {
        self.round.fetch_add(1, Ordering::Relaxed);
        let line = self.gossip_line(engine);
        for peer in self.cluster.peer_names() {
            if !self.cluster.peer_available(&peer) {
                self.counters.gossip_failures.inc();
                continue;
            }
            match self.cluster.call(&peer, &line) {
                Ok(reply) => self.merge_manifest_value(&reply),
                Err(_) => self.counters.gossip_failures.inc(),
            }
        }
        self.counters.gossip_rounds.inc();
        self.age_and_gc(engine);
    }

    /// Distributed aging: a local snapshot that is memory-resident on
    /// no member (here included) for `gc_rounds` consecutive rounds is
    /// removed from disk. Resetting on *any* sighting keeps a kernel
    /// alive everywhere as long as one node still serves it.
    pub(crate) fn age_and_gc(&self, engine: &ServeEngine) {
        if self.gc_rounds == 0 {
            return;
        }
        let local = self
            .store
            .manifest(&|hash, spec| engine.has_compiled(hash, spec));
        let mut remove: Vec<(u64, SpecRequest)> = Vec::new();
        {
            let mut state = self.state.lock().expect("replication state");
            let mut tracked: std::collections::HashSet<(u64, String)> = Default::default();
            for e in &local {
                let key = (e.hash, SnapshotStore::spec_tag(e.spec));
                tracked.insert(key.clone());
                let alive = e.in_memory
                    || state
                        .peers
                        .values()
                        .any(|view| view.entries.get(&key).is_some_and(|pe| pe.in_memory));
                if alive {
                    state.ages.remove(&key);
                } else {
                    let age = state.ages.entry(key).or_insert(0);
                    *age += 1;
                    if *age >= self.gc_rounds {
                        remove.push((e.hash, e.spec));
                    }
                }
            }
            // Files that vanished (size sweep, external cleanup) stop
            // aging.
            state.ages.retain(|key, _| tracked.contains(key));
            for (hash, spec) in &remove {
                state.ages.remove(&(*hash, SnapshotStore::spec_tag(*spec)));
            }
        }
        for (hash, spec) in remove {
            if self.store.remove_snapshot(hash, spec) {
                self.counters.gc_removed.inc();
                eprintln!(
                    "flexvec-serve: snapshot_evicted file={} reason=distributed_gc rounds={}",
                    self.store.path_for(hash, spec).display(),
                    self.gc_rounds
                );
            }
        }
    }

    /// Anti-entropy sync for a joining node: gossip with every peer to
    /// learn who holds what, then pull every snapshot of the ring
    /// slice this node owns into both the disk store *and* the
    /// in-memory cache (via
    /// [`ServeEngine::admit_pulled_snapshot`] — full validation per
    /// pull), so owned-slice traffic is warm before the node takes
    /// load. Sets the [`Replicator::synced`] readiness flag when done;
    /// peers being down only shrinks what could be synced, it never
    /// blocks readiness.
    pub fn anti_entropy_sync(&self, engine: &ServeEngine) {
        let line = self.gossip_line(engine);
        for peer in self.cluster.peer_names() {
            match self.cluster.call(&peer, &line) {
                Ok(reply) => self.merge_manifest_value(&reply),
                Err(_) => self.counters.gossip_failures.inc(),
            }
        }
        // Owned entries some peer claims and we don't hold yet.
        let wanted: Vec<(u64, SpecRequest)> = {
            let state = self.state.lock().expect("replication state");
            let mut keys: Vec<(u64, String)> = state
                .peers
                .values()
                .flat_map(|view| view.entries.iter())
                .filter(|(_, e)| e.epoch == epoch_word())
                .map(|(key, _)| key.clone())
                .collect();
            keys.sort();
            keys.dedup();
            keys.into_iter()
                .filter_map(|(hash, tag)| {
                    let spec = SnapshotStore::parse_spec_tag(&tag)?;
                    (self.cluster.is_local(hash) && !self.store.has_snapshot(hash, spec))
                        .then_some((hash, spec))
                })
                .collect()
        };
        for (hash, spec) in wanted {
            for peer in self.claimants(hash, spec) {
                if !self.cluster.peer_available(&peer) {
                    continue;
                }
                let Some(bytes) = self.fetch(&peer, hash, spec) else {
                    continue;
                };
                match engine.admit_pulled_snapshot(&bytes, hash, spec) {
                    Ok(()) => break,
                    Err(reason) => {
                        self.counters.pull_failures.inc();
                        eprintln!(
                            "flexvec-serve: sync pull {}.{} from {peer} rejected: {}",
                            hash_hex(hash),
                            SnapshotStore::spec_tag(spec),
                            reason.label()
                        );
                    }
                }
            }
        }
        self.synced.store(true, Ordering::Release);
    }

    /// Replication fields for the `stats` op.
    pub fn stats_fields(&self) -> Vec<(&'static str, Json)> {
        let (peers_known, peer_entries): (u64, u64) = {
            let state = self.state.lock().expect("replication state");
            (
                state.peers.len() as u64,
                state.peers.values().map(|v| v.entries.len() as u64).sum(),
            )
        };
        vec![
            ("replica_synced", Json::from(self.synced())),
            ("replica_round", Json::from(self.round())),
            ("replica_peers_known", Json::from(peers_known)),
            ("replica_peer_entries", Json::from(peer_entries)),
            (
                "replica_pull_attempts",
                Json::from(self.counters.pull_attempts.get()),
            ),
            (
                "replica_pull_failures",
                Json::from(self.counters.pull_failures.get()),
            ),
            (
                "replica_gc_removed",
                Json::from(self.counters.gc_removed.get()),
            ),
        ]
    }

    /// Replication counters for `/metrics`, pre-seeded from the first
    /// scrape.
    pub fn metric_samples(&self) -> Vec<ExternalSample> {
        let peer_entries: u64 = {
            let state = self.state.lock().expect("replication state");
            state.peers.values().map(|v| v.entries.len() as u64).sum()
        };
        Vec::from([
            ExternalSample {
                name: "flexvec_replica_gossip_rounds_total",
                value: self.counters.gossip_rounds.get(),
            },
            ExternalSample {
                name: "flexvec_replica_gossip_failures_total",
                value: self.counters.gossip_failures.get(),
            },
            ExternalSample {
                name: "flexvec_replica_manifests_received_total",
                value: self.counters.manifests_received.get(),
            },
            ExternalSample {
                name: "flexvec_replica_pull_attempts_total",
                value: self.counters.pull_attempts.get(),
            },
            ExternalSample {
                name: "flexvec_replica_pull_failures_total",
                value: self.counters.pull_failures.get(),
            },
            ExternalSample {
                name: "flexvec_replica_pulls_served_total",
                value: self.counters.pulls_served.get(),
            },
            ExternalSample {
                name: "flexvec_replica_gc_removed_total",
                value: self.counters.gc_removed.get(),
            },
            ExternalSample {
                name: "flexvec_replica_synced",
                value: u64::from(self.synced()),
            },
            ExternalSample {
                name: "flexvec_replica_peer_entries",
                value: peer_entries,
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Op, Request};
    use flexvec::program_hash;
    use flexvec_front::parse_str;
    use flexvec_vm::Engine;
    use std::io::{BufRead, BufReader, Write};
    use std::path::PathBuf;
    use std::time::Duration;

    const MINLOC: &str = "\
kernel minloc;
var i = 0;
var best = 9223372036854775807;
array a[64] = seed 1;
live_out best;
for (i = 0; i < 64; i++) {
  if (a[i] < best) {
    best = a[i];
  }
}
";

    fn minloc_hash() -> u64 {
        program_hash(&parse_str("<t>", MINLOC).unwrap().program)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fv-replicate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn run_req(source: &str) -> Request {
        Request {
            id: 1,
            op: Op::Run,
            source: Some(source.to_owned()),
            hash: None,
            spec: SpecRequest::Auto,
            spec_explicit: false,
            engine: Some(Engine::Compiled),
            vl: None,
            invocations: 1,
            deadline_ms: None,
            forwarded: false,
        }
    }

    fn setup(
        tag: &str,
        members: Vec<String>,
        advertise: &str,
        gc_rounds: u64,
    ) -> (ServeEngine, Arc<Replicator>) {
        let store = SnapshotStore::open(scratch(tag)).unwrap();
        let engine = ServeEngine::with_snapshots(0, Some(store));
        let cluster = Arc::new(Cluster::new(members, advertise.to_owned()).unwrap());
        let repl = Arc::new(Replicator::new(
            cluster,
            engine.snapshots_arc().expect("store"),
            gc_rounds,
        ));
        engine.enable_replication(Arc::clone(&repl));
        (engine, repl)
    }

    fn claim_entry(hash: u64) -> Json {
        Json::obj([
            ("hash", Json::from(hash_hex(hash))),
            ("spec", Json::from("ff")),
            ("epoch", Json::from(u64::from(epoch_word()))),
            ("checksum", Json::from(hash_hex(0xdead))),
            ("generation", Json::from(1u64)),
            ("in_memory", Json::from(true)),
        ])
    }

    #[test]
    fn pull_skips_open_breaker_and_falls_back_to_local_compile() {
        let dead = "127.0.0.1:9".to_owned();
        let me = "127.0.0.1:9001".to_owned();
        let (engine, repl) = setup("breaker", vec![dead.clone(), me.clone()], &me, 10);
        let hash = minloc_hash();
        repl.merge_peer_manifest(&dead, 1, &[claim_entry(hash)]);

        // Trip the dead peer's breaker through the shared call path.
        for _ in 0..3 {
            assert!(repl.cluster().call(&dead, "{}").is_err());
        }
        assert!(!repl.cluster().peer_available(&dead), "breaker open");

        // The miss path must skip the pull (open breaker) and compile
        // locally — correct, just colder.
        let out = engine.handle(&run_req(MINLOC), None).unwrap();
        let cache = out
            .fields
            .iter()
            .find(|(n, _)| *n == "cache")
            .map(|(_, v)| v.as_str().unwrap().to_owned())
            .unwrap();
        assert_eq!(cache, "compiled");
        assert_eq!(engine.cache().compiles(), 1);
        assert_eq!(
            repl.counters.pull_attempts.get(),
            0,
            "an open breaker short-circuits before any transport attempt"
        );
    }

    #[test]
    fn pull_handler_is_terminal_and_never_cascades() {
        let dead = "127.0.0.1:9".to_owned();
        let me = "127.0.0.1:9001".to_owned();
        let (_engine, repl) = setup("loopguard", vec![dead.clone(), me.clone()], &me, 10);
        let hash = minloc_hash();
        // A peer claims the snapshot — but an incoming pull must be
        // answered from local disk only, never relayed to that peer.
        repl.merge_peer_manifest(&dead, 1, &[claim_entry(hash)]);
        let pull = Json::obj([
            ("op", Json::from("pull")),
            ("id", Json::from(7u64)),
            ("hash", Json::from(hash_hex(hash))),
            ("spec", Json::from("ff")),
        ]);
        let reply = repl.handle_pull(&pull);
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            reply.get("found").and_then(Json::as_bool),
            Some(false),
            "not on local disk means not found, even though a peer claims it"
        );
        assert_eq!(
            repl.counters.pull_attempts.get(),
            0,
            "the pull handler never pulls"
        );

        let malformed = Json::obj([("op", Json::from("pull")), ("id", Json::from(9u64))]);
        let reply = repl.handle_pull(&malformed);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn concurrent_pull_and_compile_coalesce_to_one_cache_entry() {
        // Donor daemon compiles the kernel and provides the snapshot
        // bytes a mini peer server will ship.
        let donor_store = SnapshotStore::open(scratch("race-donor")).unwrap();
        let donor = ServeEngine::with_snapshots(0, Some(donor_store));
        donor.handle(&run_req(MINLOC), None).unwrap();
        let hash = minloc_hash();
        let bytes = donor
            .snapshots()
            .unwrap()
            .raw_bytes(hash, SpecRequest::Auto)
            .expect("donor snapshot");
        let data_hex = to_hex(&bytes);

        // Mini peer: one connection, one pull request, answered slowly
        // so compile racers genuinely overlap the in-flight pull.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"pull\""), "unexpected request: {line}");
            std::thread::sleep(Duration::from_millis(150));
            let reply = ok_response(
                0,
                [
                    ("found", Json::from(true)),
                    ("data", Json::from(data_hex.as_str())),
                ],
            );
            let mut stream = stream;
            stream.write_all(format!("{reply}\n").as_bytes()).unwrap();
        });

        let me = "127.0.0.1:1".to_owned();
        let (engine, repl) = setup("race", vec![peer_addr.clone(), me.clone()], &me, 10);
        repl.merge_peer_manifest(&peer_addr, 1, &[claim_entry(hash)]);

        // Four concurrent requests race one pull against coalesced
        // waiters: exactly one closure runs, zero compiles happen.
        std::thread::scope(|scope| {
            let engine = &engine;
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || engine.handle(&run_req(MINLOC), None).unwrap()))
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        server.join().unwrap();
        assert_eq!(
            engine.cache().compiles(),
            0,
            "the pull preempted every compile"
        );
        assert_eq!(
            engine
                .snapshots()
                .unwrap()
                .counters
                .pulled
                .load(std::sync::atomic::Ordering::Relaxed),
            1,
            "exactly one pull was admitted"
        );
        assert_eq!(engine.cache().stats().entries, 1, "one coalesced entry");
    }

    #[test]
    fn gossip_exchange_merges_and_replies_with_own_manifest() {
        let dead = "127.0.0.1:9".to_owned();
        let me = "127.0.0.1:9001".to_owned();
        let (engine, repl) = setup("gossip", vec![dead.clone(), me.clone()], &me, 10);
        engine.handle(&run_req(MINLOC), None).unwrap();
        let hash = minloc_hash();

        let incoming = Json::obj([
            ("op", Json::from("gossip")),
            ("id", Json::from(3u64)),
            ("from", Json::from(dead.as_str())),
            ("round", Json::from(5u64)),
            ("manifest", Json::Arr(vec![claim_entry(0xabcd)])),
        ]);
        let reply = repl.handle_gossip(&incoming, &engine);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(repl.counters.manifests_received.get(), 1);
        assert!(repl.peer_claims(0xabcd), "the sender's claim was merged");

        let Some(Json::Arr(manifest)) = reply.get("manifest") else {
            panic!("gossip reply carries a manifest");
        };
        assert_eq!(manifest.len(), 1);
        let entry = &manifest[0];
        assert_eq!(
            entry.get("hash").and_then(Json::as_str),
            Some(hash_hex(hash)).as_deref()
        );
        assert_eq!(entry.get("spec").and_then(Json::as_str), Some("ff"));
        assert_eq!(
            entry.get("epoch").and_then(Json::as_u64),
            Some(u64::from(epoch_word()))
        );
        assert_eq!(
            entry.get("in_memory").and_then(Json::as_bool),
            Some(true),
            "the freshly compiled kernel is memory-resident"
        );
    }

    #[test]
    fn distributed_aging_removes_memory_cold_snapshots_after_n_rounds() {
        // Write the snapshot in a first lifetime, then restart over the
        // same directory with an empty in-memory cache: the snapshot is
        // memory-resident nowhere and must age out after `gc_rounds`.
        let dir = scratch("gc");
        {
            let store = SnapshotStore::open(&dir).unwrap();
            let donor = ServeEngine::with_snapshots(0, Some(store));
            donor.handle(&run_req(MINLOC), None).unwrap();
        }
        let hash = minloc_hash();
        let store = SnapshotStore::open(&dir).unwrap();
        let path = store.path_for(hash, SpecRequest::Auto);
        assert!(path.exists());
        let engine = ServeEngine::with_snapshots(0, Some(store));
        let dead = "127.0.0.1:9".to_owned();
        let me = "127.0.0.1:9001".to_owned();
        let cluster = Arc::new(Cluster::new(vec![dead, me.clone()], me).unwrap());
        let repl = Replicator::new(cluster, engine.snapshots_arc().unwrap(), 2);

        repl.age_and_gc(&engine);
        assert!(path.exists(), "one cold round is below the threshold");
        repl.age_and_gc(&engine);
        assert!(!path.exists(), "two cold rounds trigger distributed GC");
        assert_eq!(repl.counters.gc_removed.get(), 1);

        // A resident kernel never ages: recompile it into memory and
        // verify two more rounds leave the rewritten snapshot alone.
        engine.handle(&run_req(MINLOC), None).unwrap();
        assert!(path.exists(), "the compile re-persisted the snapshot");
        repl.age_and_gc(&engine);
        repl.age_and_gc(&engine);
        assert!(path.exists(), "memory residency resets the age");
        assert_eq!(repl.counters.gc_removed.get(), 1);
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).as_deref(), Some(bytes.as_slice()));
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex");
    }
}
