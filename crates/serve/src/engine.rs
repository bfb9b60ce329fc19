//! The daemon's compile-and-execute core.
//!
//! One [`ServeEngine`] lives for the life of the process and owns the
//! two shared maps every worker goes through, each bounded by the
//! daemon's cache capacity:
//!
//! * the **compile cache** — a bounded [`CompileCache`] submitted to
//!   via [`CompileCache::get_or_compile_coalesced`], so N concurrent
//!   requests for the same (AST, spec) pair cost one pipeline run and
//!   repeat-kernel traffic skips compilation entirely. An entry also
//!   keeps the plan's native code, built on its first run at each
//!   width ([`flexvec_front::CompiledPlan::native`]);
//! * the **kernel registry** — parsed kernels keyed by their stable
//!   AST hash, so a client can send `.fv` source once and refer to it
//!   by `hash` forever after (until eviction). An entry also keeps the
//!   kernel's [`KernelProfile`], which leaves the registry with it: a
//!   kernel sent again after eviction verifies (and explores) again.
//!
//! Execution follows the **verified-once** discipline, keyed by
//! variant: [`VariantKey`] `(spec, vl, invocations)`. The first run of
//! a variant mirrors `flexvecc run` — scalar baseline and vector code,
//! both on the Table 1 out-of-order model, run by [`Kernel`] and
//! compared with [`Kernel::compare`] on every live-out, the induction
//! exit value, the break flag, the iteration count and every array
//! element. The vector run also feeds a [`FingerprintSink`] on the way
//! to the model. The kernel's profile then stores both simulated cycle
//! counts with the [`Record`](flexvec_vm::Record) of the run (the five
//! facts, one digest per array, the µop count and the trace
//! fingerprint) and a checksum over all of it. Every later run of the
//! variant is a replay: the vector program (the scalar program for a
//! scalar-only plan) runs on a [`CountingSink`], its facts and µop
//! count are compared with the record ([`Kernel::compare_record`]), and
//! the reply carries the stored cycles. Every request materializes the
//! same seeded arrays, so there is nothing new to simulate. A periodic
//! audit runs the same program on a fingerprinting sink instead and
//! also compares the trace fingerprint and the entry's checksum. Any
//! difference fails the request with an `exec_error` and drops the
//! entry. Requests that pin `spec` explicitly share the memo and its
//! audits — the pin bypasses the *choice*, not verification — so a
//! fixed-spec daemon and an autotuned one are comparable like-for-like.
//! The daemon decides *what* runs (memo, audits, choice); [`Kernel`]
//! runs it, polling the request's [`CancelToken`] so a deadline or a
//! daemon drain stops the VPL loop at the next chunk boundary. A
//! request that names no engine runs native code wherever the host has
//! the JIT ([`native_supported`]) and bytecode elsewhere; the tree
//! walker runs only when named. Replies and tier counters name the
//! engine the code actually ran on ([`VectorCode::engine`]).
//!
//! Implicit-spec requests run the speculation [`crate::autotune`]
//! chooses per kernel hash and `(vl, invocations)`: the candidate
//! whose verifying run simulated the fewest vector cycles. Until every
//! candidate has run, each request explores the next one. Candidates
//! compile through [`CompileCache::get_or_compile_coalesced`] like any
//! plan; the choice lives in the profile, so an evicted plan simply
//! recompiles on its next request.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flexvec::{program_hash, ShardedCache, SpecRequest, VectorizeError};
use flexvec_front::{parse_str, CompileCache, CompiledKernel, ParsedKernel};
use flexvec_profiler::ThroughputReport;
use flexvec_sim::{OooSim, SimConfig};
use flexvec_vm::{
    native_supported, CancelToken, CheckError, CountingSink, Engine, ExecError, FingerprintSink,
    Kernel, TraceSink, VectorCode,
};

use crate::autotune::{KernelProfile, Next, Pick, VariantCycles, VariantKey, Verified, LADDER};
use crate::json::Json;
use crate::protocol::{hash_hex, ErrorKind, Op, ProtoError, Request};

/// Build identity, stamped by `build.rs` and reported by `--version`,
/// the daemon startup line, and the `stats` op.
#[derive(Clone, Copy, Debug)]
pub struct BuildInfo {
    /// Crate version (workspace-wide).
    pub version: &'static str,
    /// `git rev-parse --short=12 HEAD` at build time (`-dirty` suffix
    /// for an unclean tree, `unknown` outside a checkout).
    pub git_hash: &'static str,
}

/// The build identity of this binary.
pub fn build_info() -> BuildInfo {
    BuildInfo {
        version: env!("CARGO_PKG_VERSION"),
        git_hash: env!("FLEXVEC_GIT_HASH"),
    }
}

impl std::fmt::Display for BuildInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.version, self.git_hash)
    }
}

/// What one `handle` call produced: the op-specific response fields
/// plus the timing facts the server feeds into its metrics registry.
#[derive(Debug)]
pub struct OpResult {
    /// Response fields to splice into the `ok` envelope.
    pub fields: Vec<(&'static str, Json)>,
    /// Whether the compile cache already held the kernel (compile /
    /// run / bench ops).
    pub cache_hit: Option<bool>,
    /// Wall time of the compile step when it actually ran (miss only).
    pub compile_wall: Option<Duration>,
    /// Wall time of the execution step (run / bench ops).
    pub exec_wall: Option<Duration>,
}

/// The shared compile-and-execute core. Cheap to share behind an
/// `Arc`; every method takes `&self`.
pub struct ServeEngine {
    cache: CompileCache,
    registry: ShardedCache<Registered>,
    started: Instant,
    totals: Mutex<BTreeMap<&'static str, u64>>,
}

/// A registry entry: the parsed kernel and the profile of its runs
/// (the verified-once memo and the speculation choices), which lives
/// and leaves with the registration.
struct Registered {
    kernel: ParsedKernel,
    profile: Mutex<KernelProfile>,
}

/// The engine a request runs on: the one it names, else native code
/// where the host has the JIT and bytecode elsewhere.
fn engine_for(req: &Request) -> Engine {
    req.engine.unwrap_or(if native_supported() {
        Engine::Native
    } else {
        Engine::Compiled
    })
}

/// The total counting a run that settled: `autotune_verified` when it
/// fed the cycle model and verified, `autotune_vector_only` when it
/// reported the variant's stored cycles (replays and audits).
/// Scalar-only plans count the same way.
fn run_counter(verified: bool) -> &'static str {
    if verified {
        "flexvec_autotune_verified_total"
    } else {
        "flexvec_autotune_vector_only_total"
    }
}

/// The total counting executions on this tier.
fn tier_counter(engine: Engine) -> &'static str {
    match engine {
        Engine::TreeWalking => "flexvec_tier_tree_total",
        Engine::Compiled => "flexvec_tier_bytecode_total",
        Engine::Native => "flexvec_tier_native_total",
    }
}

/// The plan one request runs, and the candidate it explores, if it
/// explores one: its ladder index and the kernel's candidate set.
struct Planned {
    spec: SpecRequest,
    explore: Option<(usize, &'static [SpecRequest])>,
    compiled: Arc<CompiledKernel>,
    hit: bool,
}

impl ServeEngine {
    /// Creates the engine. `cache_capacity` bounds both the compile
    /// cache and the kernel registry (segmented-LRU eviction); `0`
    /// means unbounded, for short-lived in-process servers.
    pub fn new(cache_capacity: usize) -> Self {
        let (cache, registry) = if cache_capacity == 0 {
            (CompileCache::new(), ShardedCache::new())
        } else {
            (
                CompileCache::with_capacity(cache_capacity),
                ShardedCache::with_capacity(cache_capacity),
            )
        };
        ServeEngine {
            cache,
            registry,
            started: Instant::now(),
            // Tier and autotune counters are pre-seeded so `/metrics`
            // exports every row from the first scrape, even at zero —
            // scrape consumers and the CI smoke test key off their
            // presence.
            totals: Mutex::new(BTreeMap::from([
                ("flexvec_tier_tree_total", 0),
                ("flexvec_tier_bytecode_total", 0),
                ("flexvec_tier_native_total", 0),
                ("flexvec_autotune_respecialize_total", 0),
                ("flexvec_autotune_vector_only_total", 0),
                ("flexvec_autotune_verified_total", 0),
                ("flexvec_autotune_audits_total", 0),
            ])),
        }
    }

    /// The shared compile cache (for stats and tests).
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// The plan one request runs. An explicit `spec` (even `"auto"`)
    /// is honored verbatim. An implicit one runs the kernel's choice at
    /// the request's `(vl, invocations)`; until that is settled, a run
    /// explores the next candidate and a compile uses `Auto`.
    fn plan(&self, registered: &Registered, req: &Request) -> Planned {
        let program = &registered.kernel.program;
        let compile = |spec, explore| {
            let (compiled, hit) = self.cache.get_or_compile_coalesced(program, spec);
            Planned {
                spec,
                explore,
                compiled,
                hit,
            }
        };
        if req.spec_explicit {
            return compile(req.spec, None);
        }
        let (vl, invocations) = (flexvec_isa::vlen(), req.invocations.max(1));
        let pick = || profile(registered).pick(vl, invocations);
        if let Pick::Chosen(spec) = pick() {
            return compile(spec, None);
        }
        let auto = compile(SpecRequest::Auto, None);
        if req.op == Op::Compile {
            return auto;
        }
        // Only a kernel that `Auto` refuses for its stores inside a
        // first-faulting VPL has RTM candidates.
        let candidates = match auto.compiled.plan {
            Err(VectorizeError::RtmOnly) => &LADDER[..],
            _ => &LADDER[..1],
        };
        loop {
            let index = match pick() {
                Pick::Chosen(spec) => return compile(spec, None),
                // `Auto` is never skipped: a width it cannot run at is
                // the request's error, and records nothing.
                Pick::Explore(0) => {
                    return Planned {
                        explore: Some((0, candidates)),
                        ..auto
                    }
                }
                Pick::Explore(index) => index,
            };
            let planned = compile(candidates[index], Some((index, candidates)));
            let runs_here = match &planned.compiled.plan {
                Ok(plan) => vl <= plan.vectorized.vprog.max_vl,
                Err(_) => false,
            };
            if runs_here {
                return planned;
            }
            self.record_candidate(registered, req, candidates, index, None);
        }
    }

    /// Records the vector cycles of the candidate an implicit-spec
    /// request explored (`None`: it cannot run at the request's width),
    /// counting a choice other than `Auto` once it settles.
    fn record_candidate(
        &self,
        registered: &Registered,
        req: &Request,
        candidates: &'static [SpecRequest],
        index: usize,
        cycles: Option<u64>,
    ) {
        let vl = flexvec_isa::vlen();
        let settled =
            profile(registered).record(vl, req.invocations.max(1), candidates, index, cycles);
        if settled.is_some_and(|spec| spec != SpecRequest::Auto) {
            self.add(&[("flexvec_autotune_respecialize_total", 1)]);
        }
    }

    /// Resolves the request's kernel: inline source is parsed and
    /// registered under its AST hash; a `hash` must name a registered
    /// kernel.
    fn resolve(&self, req: &Request) -> Result<Arc<Registered>, ProtoError> {
        if let Some(source) = &req.source {
            let kernel = parse_str("<request>", source)
                .map_err(|diag| ProtoError::new(ErrorKind::SourceError, diag.render(source)))?;
            let hash = program_hash(&kernel.program);
            let (registered, _) = self.registry.get_or_insert_with(hash, || Registered {
                kernel,
                profile: Mutex::default(),
            });
            return Ok(registered);
        }
        let hash = req.hash.expect("validated: source or hash present");
        if let Some(registered) = self.registry.peek(hash) {
            return Ok(registered);
        }
        Err(ProtoError::new(
            ErrorKind::UnknownHash,
            format!(
                "no kernel registered under hash {} (send `source` once first; \
                 evicted kernels must be resubmitted)",
                hash_hex(hash)
            ),
        ))
    }

    /// Services one validated request. `cancel` carries the request
    /// deadline and the daemon's drain flag; executions poll it at
    /// chunk boundaries.
    ///
    /// The request's `vl` (daemon default when omitted) becomes the
    /// ambient vector length for everything the request does —
    /// compile-cache entries are width-independent, so any width hits
    /// the same cached compile; only execution specializes.
    ///
    /// # Errors
    ///
    /// Every failure is a structured [`ProtoError`]; this never panics
    /// on client input.
    pub fn handle(
        &self,
        req: &Request,
        cancel: Option<&CancelToken>,
    ) -> Result<OpResult, ProtoError> {
        let vl = req.vl.unwrap_or(flexvec_isa::DEFAULT_VLEN);
        if !flexvec_isa::is_supported_vlen(vl) {
            return Err(ProtoError::new(
                ErrorKind::BadRequest,
                format!("`vl` must be one of {:?}", flexvec_isa::SUPPORTED_VLENS),
            ));
        }
        let result = flexvec_isa::with_vlen(vl, || self.handle_at_width(req, cancel));
        result.map(|mut out| {
            if req.op != Op::Stats {
                out.fields.push(("vl", Json::from(vl as u64)));
            }
            out
        })
    }

    /// [`ServeEngine::handle`] body, running at the established
    /// ambient vector length.
    fn handle_at_width(
        &self,
        req: &Request,
        cancel: Option<&CancelToken>,
    ) -> Result<OpResult, ProtoError> {
        match req.op {
            Op::Stats => Ok(OpResult {
                fields: self.stats_fields(),
                cache_hit: None,
                compile_wall: None,
                exec_wall: None,
            }),
            Op::Compile => {
                let registered = self.resolve(req)?;
                let t0 = Instant::now();
                let Planned { compiled, hit, .. } = self.plan(&registered, req);
                let compile_wall = t0.elapsed();
                let mut fields = kernel_fields(&registered.kernel, &compiled, hit);
                fields.push((
                    "compile_micros",
                    Json::from(compile_wall.as_micros() as u64),
                ));
                Ok(OpResult {
                    fields,
                    cache_hit: Some(hit),
                    compile_wall: (!hit).then_some(compile_wall),
                    exec_wall: None,
                })
            }
            Op::Run | Op::Bench => {
                let registered = self.resolve(req)?;
                let t0 = Instant::now();
                let Planned {
                    spec,
                    explore,
                    compiled,
                    hit,
                } = self.plan(&registered, req);
                let compile_wall = t0.elapsed();
                let t1 = Instant::now();
                let outcome = self.execute(&registered, &compiled, req, spec, cancel)?;
                let exec_wall = t1.elapsed();
                if let Some((index, candidates)) = explore {
                    let cycles = Some(outcome.vector_cycles);
                    self.record_candidate(&registered, req, candidates, index, cycles);
                }
                let mut fields = kernel_fields(&registered.kernel, &compiled, hit);
                fields.push(("spec", Json::from(spec_label(spec))));
                fields.extend(run_fields(&outcome, req));
                Ok(OpResult {
                    fields,
                    cache_hit: Some(hit),
                    compile_wall: (!hit).then_some(compile_wall),
                    exec_wall: Some(exec_wall),
                })
            }
        }
    }

    /// Executes the kernel `req.invocations` times under the effective
    /// `spec`, as the variant's memo entry says ([`KernelProfile::next`]):
    /// a verifying run compares the answering run with the scalar
    /// oracle, both on the cycle model, and stores the entry; a replay
    /// runs on a [`CountingSink`] and checks its facts against the
    /// stored record; an audit also checks the run's trace fingerprint
    /// and the entry's checksum. The answering run is the vector
    /// program, or the scalar one for a scalar-only plan.
    fn execute(
        &self,
        registered: &Registered,
        compiled: &CompiledKernel,
        req: &Request,
        spec: SpecRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<ExecOutcome, ProtoError> {
        let program = &registered.kernel.program;
        let arrays = registered.kernel.materialize_arrays();
        let invocations = req.invocations.max(1);
        let checked = Kernel::new(program, &arrays, invocations);
        let wire_error = |e: CheckError| match e {
            CheckError::Scalar(ExecError::Cancelled) | CheckError::Vector(ExecError::Cancelled) => {
                cancel_error(cancel)
            }
            CheckError::Scalar(ExecError::UnsupportedWidth { vl, max_vl })
            | CheckError::Vector(ExecError::UnsupportedWidth { vl, max_vl }) => {
                ProtoError::new(ErrorKind::BadRequest, width_error(vl, max_vl))
            }
            other => ProtoError::new(ErrorKind::ExecError, other.to_string()),
        };

        // A width the kernel cannot legally run at is a request
        // error, and a cheap one: refuse before burning the scalar
        // baseline. (The VM enforces the same bound; this just fails
        // fast.)
        if let Ok(plan) = &compiled.plan {
            let max_vl = plan.vectorized.vprog.max_vl;
            let vl = flexvec_isa::vlen();
            if vl > max_vl {
                return Err(ProtoError::new(
                    ErrorKind::BadRequest,
                    width_error(vl, max_vl),
                ));
            }
        }

        // Explicit-spec requests go through the memo too: an explicit
        // spec pins the *variant*; the verification discipline is the
        // same.
        let key = VariantKey {
            spec,
            vl: flexvec_isa::vlen(),
            invocations,
        };
        let next = profile(registered).next(&key);
        let verify = next == Next::Verify;
        let audit = matches!(next, Next::Audit(_));

        // The vector code, on the request's engine. Native code comes
        // from the compile-cache entry, built on its first run at this
        // width.
        let engine = engine_for(req);
        let native = match &compiled.plan {
            Ok(plan) if engine == Engine::Native => Some(plan.native(flexvec_isa::vlen())),
            _ => None,
        };
        let code = compiled.plan.as_ref().ok().map(|plan| {
            VectorCode::precompiled(
                &plan.vectorized.vprog,
                native.as_deref().unwrap_or(&plan.compiled),
                engine,
            )
        });

        // A verifying run of a vector plan first runs the oracle.
        let model = || Box::new(OooSim::new(SimConfig::table1()));
        let mut oracle_model = (verify && code.is_some()).then(model);
        let oracle = oracle_model
            .as_deref_mut()
            .map(|sim| checked.run_scalar(sim, cancel))
            .transpose()
            .map_err(|e| wire_error(CheckError::Scalar(e)))?;

        // The answering run: fingerprinted and on the cycle model when
        // it verifies, fingerprinted alone on an audit, counted on a
        // replay.
        let mut answer_model = verify.then(model);
        let mut tracer = match answer_model.as_deref_mut() {
            Some(sim) => FingerprintSink::forwarding(sim),
            None => FingerprintSink::default(),
        };
        let mut counter = CountingSink::default();
        let sink: &mut dyn TraceSink = match next {
            Next::Replay(_) => &mut counter,
            _ => &mut tracer,
        };
        let answer = match &code {
            Some(code) => {
                self.add(&[(tier_counter(code.engine()), 1)]);
                checked
                    .run_vector(code, sink, cancel)
                    .map_err(|e| wire_error(CheckError::Vector(e)))?
            }
            None => checked
                .run_scalar(sink, cancel)
                .map_err(|e| wire_error(CheckError::Scalar(e)))?,
        };
        let uops = sink.len();
        let trace = tracer.fingerprint();

        let cycles = match next {
            Next::Verify => {
                let oracle = match &oracle {
                    Some(oracle) => {
                        checked
                            .compare(oracle, &answer)
                            .map_err(|m| wire_error(CheckError::Mismatch(m)))?;
                        oracle
                    }
                    // A scalar-only plan's answer is the oracle.
                    None => &answer,
                };
                let simulated = |sim: Option<Box<OooSim>>| sim.map(|sim| sim.result().cycles);
                let vector = simulated(answer_model).expect("a verifying run simulates");
                let cycles = VariantCycles {
                    scalar: simulated(oracle_model).unwrap_or(vector),
                    vector,
                };
                let entry = Verified::new(cycles, checked.record(oracle, trace));
                profile(registered).settle(key, entry);
                cycles
            }
            Next::Replay(stored) => {
                let found = checked.compare_record(&stored.record, &answer, uops);
                found.map_err(|m| self.refuse(registered, &key, "replay", &m.to_string()))?;
                stored.cycles
            }
            Next::Audit(stored) => {
                let found = checked
                    .compare_record(&stored.record, &answer, uops)
                    .and_then(|()| stored.record.compare_trace(trace));
                found.map_err(|m| self.refuse(registered, &key, "audit", &m.to_string()))?;
                if !stored.intact() {
                    let what = format!(
                        "the entry fails its checksum (stored scalar/vector cycles {}/{})",
                        stored.cycles.scalar, stored.cycles.vector
                    );
                    return Err(self.refuse(registered, &key, "audit", &what));
                }
                let cycles = stored.cycles;
                profile(registered).settle(key, stored);
                cycles
            }
        };

        let counted = [
            (run_counter(verify), 1),
            ("flexvec_autotune_audits_total", u64::from(audit)),
        ];
        let (Some(code), Ok(plan)) = (code, &compiled.plan) else {
            self.add(&counted);
            return Ok(ExecOutcome {
                kind: "scalar-only",
                // The scalar run is the answer: nothing to verify.
                verified: true,
                scalar_cycles: cycles.scalar,
                vector_cycles: cycles.vector,
                // The wall is the scalar loop's: the latency the request
                // actually paid.
                throughput: ThroughputReport::new("scalar", answer.wall, 0, uops),
                live_outs: answer.live_outs(program),
            });
        };
        let mut throughput = ThroughputReport::new(code.engine().label(), answer.wall, 0, uops);
        throughput.add_stats(&answer.total);
        let total = &answer.total;
        let [run, audits] = counted;
        self.add(&[
            run,
            audits,
            ("flexvec_engine_chunks_total", total.chunks),
            ("flexvec_engine_vpl_iterations_total", total.vpl_iterations),
            ("flexvec_engine_ff_fallbacks_total", total.ff_fallbacks),
            ("flexvec_engine_rtm_commits_total", total.rtm_commits),
            ("flexvec_engine_rtm_aborts_total", total.rtm_aborts),
            ("flexvec_engine_uops_total", throughput.uops),
            (
                "flexvec_engine_wall_micros_total",
                throughput.wall.as_micros() as u64,
            ),
        ]);
        Ok(ExecOutcome {
            kind: match plan.vectorized.kind {
                flexvec::VectorizedKind::Traditional => "traditional",
                flexvec::VectorizedKind::FlexVec => "flexvec",
            },
            verified: verify,
            scalar_cycles: cycles.scalar,
            vector_cycles: cycles.vector,
            throughput,
            live_outs: answer.live_outs(program),
        })
    }

    /// Fails a replay or an audit whose run differs from the stored
    /// entry, `what` saying how, and drops the entry, so the next run
    /// verifies.
    fn refuse(
        &self,
        registered: &Registered,
        key: &VariantKey,
        run: &str,
        what: &str,
    ) -> ProtoError {
        profile(registered).forget(key);
        ProtoError::new(
            ErrorKind::ExecError,
            format!(
                "{run} mismatch for kernel {} variant (spec {}, vl {}, invocations {}): {what}",
                hash_hex(program_hash(&registered.kernel.program)),
                spec_label(key.spec),
                key.vl,
                key.invocations,
            ),
        )
    }

    /// Adds to the process-lifetime totals `/metrics` exports.
    fn add(&self, counts: &[(&'static str, u64)]) {
        let mut totals = self.totals.lock().expect("totals lock");
        for &(name, value) in counts {
            *totals.entry(name).or_insert(0) += value;
        }
    }

    /// Engine + cache counters for the `/metrics` endpoint, in
    /// Prometheus naming.
    pub fn metric_samples(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<_> = self
            .totals
            .lock()
            .expect("totals lock")
            .iter()
            .map(|(name, value)| (*name, *value))
            .collect();
        // Settled choices, one per kernel and `(vl, invocations)`, by
        // mode: one labeled gauge family, both rows always present.
        let (mut autos, mut rtms) = (0u64, 0u64);
        for (_, registered) in self.registry.entries() {
            for choice in profile(&registered).choices() {
                match choice.chosen() {
                    Some(SpecRequest::Auto) => autos += 1,
                    Some(SpecRequest::Rtm { .. }) => rtms += 1,
                    None => {}
                }
            }
        }
        let stats = self.cache.stats();
        out.extend([
            ("flexvec_autotune_active_spec{mode=\"auto\"}", autos),
            ("flexvec_autotune_active_spec{mode=\"rtm\"}", rtms),
            ("flexvec_cache_hits_total", stats.hits),
            ("flexvec_cache_misses_total", stats.misses),
            ("flexvec_cache_entries", stats.entries),
            ("flexvec_cache_evictions_total", stats.evictions),
            ("flexvec_cache_coalesced_total", stats.coalesced),
            ("flexvec_cache_compiles_total", self.cache.compiles()),
        ]);
        out
    }

    /// The `stats` op response body: build identity, uptime, cache and
    /// registry counters. The server splices in its queue fields.
    pub fn stats_fields(&self) -> Vec<(&'static str, Json)> {
        let info = build_info();
        let stats = self.cache.stats();
        let totals = self.totals.lock().expect("totals lock");
        let total = |name: &str| Json::from(totals.get(name).copied().unwrap_or(0));
        // Per kernel hash, the table behind each `(vl, invocations)`
        // choice: every explored candidate's vector cycles (null where
        // it cannot run at that width) and the spec chosen (null while
        // exploring). Kernels that only saw explicit specs are left out.
        let mut autotune_kernels = BTreeMap::new();
        for (hash, registered) in self.registry.entries() {
            let p = profile(&registered);
            if p.choices().is_empty() {
                continue;
            }
            let choices = p.choices().iter().map(|choice| {
                let cycles = choice
                    .table()
                    .map(|(spec, cycles)| (spec_label(spec), cycles.map_or(Json::Null, Json::from)))
                    .collect();
                Json::obj([
                    ("vl", Json::from(choice.vl as u64)),
                    ("invocations", Json::from(choice.invocations)),
                    (
                        "spec",
                        choice
                            .chosen()
                            .map_or(Json::Null, |s| Json::from(spec_label(s))),
                    ),
                    ("vector_cycles", Json::Obj(cycles)),
                ])
            });
            let entry = Json::obj([
                (
                    "kernel",
                    Json::from(registered.kernel.program.name.as_str()),
                ),
                ("choices", Json::Arr(choices.collect())),
            ]);
            autotune_kernels.insert(hash_hex(hash), entry);
        }
        Vec::from([
            ("version", Json::from(info.version)),
            ("git_hash", Json::from(info.git_hash)),
            (
                "uptime_ms",
                Json::from(self.started.elapsed().as_millis() as u64),
            ),
            ("cache_hits", Json::from(stats.hits)),
            ("cache_misses", Json::from(stats.misses)),
            ("cache_entries", Json::from(stats.entries)),
            ("cache_evictions", Json::from(stats.evictions)),
            ("cache_coalesced", Json::from(stats.coalesced)),
            (
                "cache_capacity",
                match self.cache.capacity() {
                    Some(c) => Json::from(c as u64),
                    None => Json::Null,
                },
            ),
            ("compiles", Json::from(self.cache.compiles())),
            ("kernels_registered", Json::from(self.registry.len() as u64)),
            ("tier_tree_total", total("flexvec_tier_tree_total")),
            ("tier_bytecode_total", total("flexvec_tier_bytecode_total")),
            ("tier_native_total", total("flexvec_tier_native_total")),
            ("native_supported", Json::from(native_supported())),
            (
                "autotune_respecialize_total",
                total("flexvec_autotune_respecialize_total"),
            ),
            (
                "autotune_verified_total",
                total("flexvec_autotune_verified_total"),
            ),
            (
                "autotune_vector_only_total",
                total("flexvec_autotune_vector_only_total"),
            ),
            (
                "autotune_audits_total",
                total("flexvec_autotune_audits_total"),
            ),
            ("autotune_kernels", Json::Obj(autotune_kernels)),
        ])
    }
}

/// The kernel's profile, locked.
fn profile(registered: &Registered) -> std::sync::MutexGuard<'_, KernelProfile> {
    registered.profile.lock().expect("profile lock")
}

/// Maps a cancelled execution to the right wire error: `deadline` when
/// the token's deadline has passed, `shutting_down` otherwise (drain).
fn cancel_error(cancel: Option<&CancelToken>) -> ProtoError {
    let deadline_hit = cancel
        .and_then(CancelToken::deadline)
        .is_some_and(|d| Instant::now() >= d);
    if deadline_hit {
        ProtoError::new(ErrorKind::Deadline, "deadline expired mid-run")
    } else {
        ProtoError::new(ErrorKind::ShuttingDown, "daemon is draining")
    }
}

/// The reply message when a request asks for a vector length wider
/// than the kernel's dependence analysis allows.
fn width_error(vl: usize, max_vl: usize) -> String {
    format!(
        "vl {vl} is wider than this kernel supports \
         (widest safe width: {max_vl})"
    )
}

/// The wire label of a speculation request (`"auto"` / `"rtm:TILE"`).
fn spec_label(spec: SpecRequest) -> String {
    match spec {
        SpecRequest::Auto => "auto".to_owned(),
        SpecRequest::Rtm { tile } => format!("rtm:{tile}"),
    }
}

/// Measured outcome of one executed request.
struct ExecOutcome {
    kind: &'static str,
    /// The reply's `verified`: the run ran the scalar oracle, either
    /// to compare with (a variant's verifying run) or because the plan
    /// is scalar-only and the scalar run is the answer.
    verified: bool,
    scalar_cycles: u64,
    vector_cycles: u64,
    throughput: ThroughputReport,
    live_outs: Vec<(String, i64)>,
}

fn kernel_fields(
    kernel: &ParsedKernel,
    compiled: &CompiledKernel,
    hit: bool,
) -> Vec<(&'static str, Json)> {
    vec![
        ("kernel", Json::from(kernel.program.name.as_str())),
        ("hash", Json::from(hash_hex(compiled.program_hash))),
        ("verdict", Json::from(compiled.verdict_summary())),
        ("vectorizable", Json::from(compiled.plan.is_ok())),
        ("cache_hit", Json::from(hit)),
        ("cache", Json::from(if hit { "hit" } else { "compiled" })),
    ]
}

fn run_fields(outcome: &ExecOutcome, req: &Request) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("kind", Json::from(outcome.kind)),
        ("engine", Json::from(outcome.throughput.label.as_str())),
        ("verified", Json::from(outcome.verified)),
        ("scalar_cycles", Json::from(outcome.scalar_cycles)),
        ("vector_cycles", Json::from(outcome.vector_cycles)),
        (
            "region_speedup",
            Json::from(outcome.scalar_cycles as f64 / outcome.vector_cycles.max(1) as f64),
        ),
        ("invocations", Json::from(req.invocations)),
        (
            "live_outs",
            Json::Obj(
                outcome
                    .live_outs
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
    ];
    if req.op == Op::Bench {
        fields.extend([
            ("chunks", Json::from(outcome.throughput.chunks)),
            ("uops", Json::from(outcome.throughput.uops)),
            (
                "wall_micros",
                Json::from(outcome.throughput.wall.as_micros() as u64),
            ),
            (
                "chunks_per_sec",
                Json::from(outcome.throughput.chunks_per_sec()),
            ),
            (
                "uops_per_sec",
                Json::from(outcome.throughput.uops_per_sec()),
            ),
            (
                "vpl_iterations",
                Json::from(outcome.throughput.vpl_iterations),
            ),
        ]);
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotune::AUDIT_EVERY;

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

    fn req(op: Op, source: Option<&str>, hash: Option<u64>) -> Request {
        Request {
            id: 1,
            op,
            source: source.map(str::to_owned),
            hash,
            spec: flexvec::SpecRequest::Auto,
            spec_explicit: false,
            engine: Some(Engine::Compiled),
            vl: None,
            invocations: 1,
            deadline_ms: None,
        }
    }

    fn field<'a>(fields: &'a [(&'static str, Json)], name: &str) -> &'a Json {
        &fields.iter().find(|(n, _)| *n == name).expect(name).1
    }

    fn sample(engine: &ServeEngine, name: &str) -> u64 {
        let samples = engine.metric_samples();
        samples.iter().find(|(n, _)| *n == name).expect(name).1
    }

    #[test]
    fn compile_then_run_by_hash() {
        let engine = ServeEngine::new(0);
        let r = engine
            .handle(&req(Op::Compile, Some(MINLOC), None), None)
            .unwrap();
        assert_eq!(r.cache_hit, Some(false));
        assert_eq!(field(&r.fields, "vectorizable").as_bool(), Some(true));
        let hash = field(&r.fields, "hash").as_str().unwrap().to_owned();
        let hash = u64::from_str_radix(&hash, 16).unwrap();

        let r = engine
            .handle(&req(Op::Run, None, Some(hash)), None)
            .unwrap();
        assert_eq!(r.cache_hit, Some(true), "run reuses the compile");
        assert_eq!(field(&r.fields, "kind").as_str(), Some("flexvec"));
        let live = field(&r.fields, "live_outs");
        assert!(live.get("best").and_then(Json::as_i64).is_some());
        // Traffic that names the kernel by hash compiles nothing more.
        for op in [Op::Compile, Op::Run, Op::Bench, Op::Compile] {
            let r = engine.handle(&req(op, None, Some(hash)), None).unwrap();
            assert_eq!(r.cache_hit, Some(true), "{op:?} by hash");
        }
        assert_eq!(engine.cache().compiles(), 1);
    }

    #[test]
    fn unknown_hash_is_a_structured_error() {
        let engine = ServeEngine::new(0);
        let err = engine
            .handle(&req(Op::Run, None, Some(0xdead)), None)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownHash);
    }

    #[test]
    fn source_errors_carry_the_diagnostic() {
        let engine = ServeEngine::new(0);
        let err = engine
            .handle(&req(Op::Run, Some("kernel ; nope"), None), None)
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::SourceError);
        assert!(!err.message.is_empty());
    }

    #[test]
    fn expired_deadline_cancels_and_maps_to_deadline_kind() {
        let engine = ServeEngine::new(0);
        let token = CancelToken::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = engine
            .handle(&req(Op::Run, Some(MINLOC), None), Some(&token))
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Deadline);
    }

    #[test]
    fn drain_cancellation_maps_to_shutting_down() {
        let engine = ServeEngine::new(0);
        let token = CancelToken::new();
        token.cancel();
        let err = engine
            .handle(&req(Op::Run, Some(MINLOC), None), Some(&token))
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::ShuttingDown);
    }

    #[test]
    fn bench_reports_throughput_and_feeds_metric_totals() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Bench, Some(MINLOC), None);
        r.invocations = 4;
        let out = engine.handle(&r, None).unwrap();
        let reply = |name: &str| field(&out.fields, name).as_u64().unwrap();
        assert!(reply("chunks") > 0);
        let sample = |name| sample(&engine, name);
        assert_eq!(sample("flexvec_engine_chunks_total"), reply("chunks"));
        assert_eq!(sample("flexvec_engine_uops_total"), reply("uops"));
        assert_eq!(
            sample("flexvec_engine_wall_micros_total"),
            reply("wall_micros")
        );
        // Totals over the four invocations, like `chunks` and `uops`.
        assert!(reply("vpl_iterations") >= reply("chunks"));
        assert_eq!(
            sample("flexvec_engine_vpl_iterations_total"),
            reply("vpl_iterations")
        );
        // A first-faulting plan that never clips and runs no
        // transaction.
        for name in [
            "flexvec_engine_ff_fallbacks_total",
            "flexvec_engine_rtm_commits_total",
            "flexvec_engine_rtm_aborts_total",
        ] {
            assert_eq!(sample(name), 0, "{name}");
        }
        assert_eq!(sample("flexvec_cache_compiles_total"), 1);
    }

    #[test]
    fn implicit_requests_run_native_code_from_the_first_run() {
        let engine = ServeEngine::new(0);
        let (label, counter) = if native_supported() {
            ("native", "tier_native_total")
        } else {
            ("compiled", "tier_bytecode_total")
        };
        // Explicit engines are honored, each on its own tier.
        for (choice, want) in [
            (None, label),
            (None, label),
            (None, label),
            (Some(Engine::TreeWalking), "tree-walking"),
            (Some(Engine::Compiled), "compiled"),
            (Some(Engine::Native), "native"),
        ] {
            let mut r = req(Op::Run, Some(MINLOC), None);
            r.engine = choice;
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "engine").as_str(), Some(want));
        }
        let stats = engine.stats_fields();
        let total = |name: &str| field(&stats, name).as_u64().unwrap();
        assert_eq!(total(counter), 4, "three implicit runs and one explicit");
        assert_eq!(total("tier_tree_total"), 1);
        assert_eq!(total("tier_native_total") + total("tier_bytecode_total"), 5);
    }

    /// A long unguarded arithmetic chain: the shape the JIT compiles
    /// almost entirely to inline machine code.
    const HOTLINE: &str = "\
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

    #[test]
    fn implicit_runs_execute_machine_code_at_every_width() {
        if !native_supported() {
            return;
        }
        // A reply says `native` only when the plan it ran holds machine
        // code; the plan's JIT op mix shows how much of the kernel that
        // code covers. At every width the JIT makes 3 segments of 24
        // inline ops and 5 helper calls; fewer inline or more helper ops
        // fail.
        let engine = ServeEngine::new(0);
        let program = parse_str("<test>", HOTLINE).unwrap().program;
        for vl in flexvec_isa::SUPPORTED_VLENS {
            let mut r = req(Op::Run, Some(HOTLINE), None);
            (r.engine, r.vl) = (None, Some(vl));
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "engine").as_str(), Some("native"));
            let (compiled, hit) = engine.cache().get_or_compile(&program, SpecRequest::Auto);
            assert!(hit);
            let plan = compiled.plan.as_ref().unwrap();
            assert!(plan.native_widths().contains(&vl), "vl {vl}");
            let native = flexvec_isa::with_vlen(vl, || plan.native(vl));
            let (_, inline, helper, _) = native.native_info();
            assert!(
                inline >= 24 && helper <= 5,
                "vl {vl}: {inline} inline and {helper} helper ops"
            );
        }
    }

    #[test]
    fn compile_builds_no_native_code() {
        let engine = ServeEngine::new(0);
        engine
            .handle(&req(Op::Compile, Some(MINLOC), None), None)
            .unwrap();
        let program = parse_str("<test>", MINLOC).unwrap().program;
        let (compiled, _) = engine.cache().get_or_compile(&program, SpecRequest::Auto);
        let plan = compiled.plan.as_ref().unwrap();
        assert!(plan.native_widths().is_empty());
        // The first native run builds it at its width, once.
        let mut run = req(Op::Run, None, Some(compiled.program_hash));
        run.engine = Some(Engine::Native);
        engine.handle(&run, None).unwrap();
        engine.handle(&run, None).unwrap();
        assert_eq!(plan.native_widths(), [flexvec_isa::DEFAULT_VLEN]);
        assert_eq!(engine.cache().compiles(), 1);
    }

    /// Store between a speculative load and its conditional update:
    /// rejected under Auto (store inside an FF VPL) as RTM-only, clean
    /// under RTM.
    const RTM_WIN: &str = "\
kernel rtm_win;
var i = 0;
var t = 0;
var u = 0;
var best = 1048576;
array a[256] = seed 7;
array aux[256] = seed 9;
array out[256];
live_out best;
for (i = 0; i < 256; i++) {
  t = a[i] * 3 + i;
  if (t < best) {
    u = aux[t & 255];
    out[i] = u;
    if (u < best) {
      best = u;
    }
  }
}
";

    /// Same shape, but five stored arrays and a floor keeping `best`
    /// (and so the guard) high: every iteration stores, so a
    /// 1024-iteration RTM tile buffers 5120 writes — past the
    /// 4096-element transaction capacity — and aborts on every tile.
    const CONFLICTY: &str = "\
kernel conflicty;
var i = 0;
var t = 0;
var u = 0;
var best = 1048576;
array a[2048] = seed 5;
array aux[2048] = seed 9;
array o0[2048];
array o1[2048];
array o2[2048];
array o3[2048];
array o4[2048];
live_out best;
for (i = 0; i < 2048; i++) {
  t = a[i] * 3 + i;
  if (t < best) {
    u = aux[t & 2047];
    o0[i] = u;
    o1[i] = u;
    o2[i] = u;
    o3[i] = u;
    o4[i] = u;
    if (u < best) {
      best = u + 100000;
    }
  }
}
";

    fn stat_u64(fields: &[(&'static str, Json)], name: &str) -> u64 {
        field(fields, name).as_u64().unwrap()
    }

    fn kernel_state<'a>(fields: &'a [(&'static str, Json)], hash: &str) -> &'a Json {
        field(fields, "autotune_kernels")
            .get(hash)
            .expect("kernel profiled")
    }

    fn choices<'a>(fields: &'a [(&'static str, Json)], hash: &str) -> &'a [Json] {
        match kernel_state(fields, hash).get("choices") {
            Some(Json::Arr(choices)) => choices,
            other => panic!("no choices: {other:?}"),
        }
    }

    /// Runs `r` and returns the reply's `(spec, verified)`.
    fn run_spec(engine: &ServeEngine, r: &Request) -> (String, bool) {
        let out = engine.handle(r, None).unwrap();
        (
            field(&out.fields, "spec").as_str().unwrap().to_owned(),
            field(&out.fields, "verified").as_bool().unwrap(),
        )
    }

    #[test]
    fn rtm_only_kernel_explores_the_ladder_and_runs_the_fewest_cycles() {
        let engine = ServeEngine::new(0);
        let r = req(Op::Run, Some(RTM_WIN), None);
        // One candidate per request, in ladder order, each verifying.
        // `Auto` leaves the kernel scalar-only.
        let mut hash = String::new();
        for spec in ["auto", "rtm:1024", "rtm:256", "rtm:64", "rtm:16"] {
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "spec").as_str(), Some(spec));
            assert_eq!(field(&out.fields, "verified").as_bool(), Some(true));
            let kind = if spec == "auto" {
                "scalar-only"
            } else {
                "flexvec"
            };
            assert_eq!(field(&out.fields, "kind").as_str(), Some(kind));
            hash = field(&out.fields, "hash").as_str().unwrap().to_owned();
        }
        // rtm:1024 and rtm:256 tie on the fewest cycles; the earlier
        // candidate wins, and its stored cycles answer from now on.
        for _ in 0..3 {
            assert_eq!(run_spec(&engine, &r), ("rtm:1024".to_owned(), false));
        }

        let stats = engine.stats_fields();
        assert_eq!(stat_u64(&stats, "autotune_respecialize_total"), 1);
        // Five candidates verified, the scalar-only `Auto` among them;
        // three runs reused the chosen candidate's stored cycles.
        assert_eq!(stat_u64(&stats, "autotune_verified_total"), 5);
        assert_eq!(stat_u64(&stats, "autotune_vector_only_total"), 3);
        assert_eq!(
            kernel_state(&stats, &hash)
                .get("kernel")
                .and_then(Json::as_str),
            Some("rtm_win")
        );
        let [choice] = choices(&stats, &hash) else {
            panic!("one (vl, invocations) pair")
        };
        assert_eq!(choice.get("spec").and_then(Json::as_str), Some("rtm:1024"));
        assert_eq!(choice.get("vl").and_then(Json::as_u64), Some(16));
        let Some(Json::Obj(table)) = choice.get("vector_cycles") else {
            panic!("no table: {choice}")
        };
        assert_eq!(table.len(), LADDER.len());
        let cycles = |spec: &str| table[spec].as_u64().unwrap();
        assert!(cycles("rtm:1024") < cycles("auto"));
        assert_eq!(cycles("rtm:1024"), cycles("rtm:256"));
        assert!(table
            .values()
            .all(|c| c.as_u64() >= Some(cycles("rtm:1024"))));

        let sample = |name| sample(&engine, name);
        assert_eq!(sample("flexvec_autotune_respecialize_total"), 1);
        assert_eq!(sample("flexvec_autotune_active_spec{mode=\"rtm\"}"), 1);
        assert_eq!(sample("flexvec_autotune_active_spec{mode=\"auto\"}"), 0);

        // A compile follows the choice.
        let out = engine
            .handle(&req(Op::Compile, Some(RTM_WIN), None), None)
            .unwrap();
        assert_eq!(field(&out.fields, "vectorizable").as_bool(), Some(true));
    }

    #[test]
    fn explicit_spec_bypasses_the_choice_and_always_verifies() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Run, Some(RTM_WIN), None);
        r.spec_explicit = true;
        // Explicit "auto" stays scalar-only forever: nothing is
        // explored, and every reply is verified (the scalar run is the
        // answer).
        for _ in 0..2 * LADDER.len() {
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "kind").as_str(), Some("scalar-only"));
            assert_eq!(field(&out.fields, "verified").as_bool(), Some(true));
        }
        let stats = engine.stats_fields();
        assert_eq!(stat_u64(&stats, "autotune_respecialize_total"), 0);
        assert!(
            matches!(field(&stats, "autotune_kernels"), Json::Obj(m) if m.is_empty()),
            "explicit requests open no choice"
        );
        // The scalar-only variant verified once; every later run
        // reused its stored cycles.
        assert_eq!(stat_u64(&stats, "autotune_verified_total"), 1);
        assert_eq!(
            stat_u64(&stats, "autotune_vector_only_total"),
            2 * LADDER.len() as u64 - 1
        );

        // Pinning an RTM tile is honored verbatim and shares the memo:
        // after the first verified run the variant goes vector-only.
        // Pins never count as choices.
        for tile in [1024, 16] {
            let mut rtm = req(Op::Run, Some(RTM_WIN), None);
            rtm.spec = SpecRequest::Rtm { tile };
            rtm.spec_explicit = true;
            let label = format!("rtm:{tile}");
            assert_eq!(run_spec(&engine, &rtm), (label.clone(), true));
            for _ in 0..2 * LADDER.len() {
                assert_eq!(run_spec(&engine, &rtm), (label.clone(), false));
            }
        }
        let stats = engine.stats_fields();
        assert_eq!(stat_u64(&stats, "autotune_respecialize_total"), 0);
    }

    #[test]
    fn conflicty_settles_on_auto() {
        let engine = ServeEngine::new(0);
        // Every RTM tile buffers five stores per iteration; no tile beats
        // the scalar-only plan's cycles, so after exploring, every
        // request runs `Auto`.
        let conflicty = req(Op::Run, Some(CONFLICTY), None);
        let explored: Vec<_> = (0..LADDER.len())
            .map(|_| run_spec(&engine, &conflicty).0)
            .collect();
        assert_eq!(
            explored,
            ["auto", "rtm:1024", "rtm:256", "rtm:64", "rtm:16"]
        );
        for _ in 0..4 {
            let out = engine.handle(&conflicty, None).unwrap();
            assert_eq!(field(&out.fields, "spec").as_str(), Some("auto"));
            assert_eq!(field(&out.fields, "kind").as_str(), Some("scalar-only"));
        }
        assert!(sample(&engine, "flexvec_engine_rtm_aborts_total") > 0);
        let stats = engine.stats_fields();
        assert_eq!(stat_u64(&stats, "autotune_respecialize_total"), 0);

        // A kernel that `Auto` vectorizes has one candidate.
        let minloc = req(Op::Run, Some(MINLOC), None);
        for _ in 0..3 {
            assert_eq!(run_spec(&engine, &minloc).0, "auto");
        }
    }

    /// RTM-only like [`RTM_WIN`], plus a store-to-load dependence at
    /// distance 16 that caps the RTM plans at vl 16.
    const RTM_NARROW: &str = "\
kernel rtm_narrow;
var i = 0;
var t = 0;
var u = 0;
var v = 0;
var best = 1048576;
array a[256] = seed 7;
array aux[256] = seed 9;
array out[256];
array d[272] = seed 3;
live_out best, v;
for (i = 16; i < 256; i++) {
  v = d[i - 16] + 1;
  d[i] = v;
  t = a[i] * 3 + i;
  if (t < best) {
    u = aux[t & 255];
    out[i] = u;
    if (u < best) {
      best = u;
    }
  }
}
";

    #[test]
    fn candidates_too_narrow_for_the_width_are_skipped() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Run, Some(RTM_NARROW), None);
        r.vl = Some(32);
        // At vl 32 no RTM plan can run: the second request skips all
        // four tiles and settles on the scalar-only `Auto`, with no
        // error on the wire.
        let mut hash = String::new();
        for _ in 0..3 {
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "spec").as_str(), Some("auto"));
            hash = field(&out.fields, "hash").as_str().unwrap().to_owned();
        }
        let stats = engine.stats_fields();
        let [choice] = choices(&stats, &hash) else {
            panic!("one (vl, invocations) pair")
        };
        assert_eq!(choice.get("spec").and_then(Json::as_str), Some("auto"));
        let Some(Json::Obj(table)) = choice.get("vector_cycles") else {
            panic!("no table: {choice}")
        };
        assert_eq!(table.len(), LADDER.len());
        assert_eq!(table.values().filter(|c| **c == Json::Null).count(), 4);
        assert_eq!(stat_u64(&stats, "autotune_respecialize_total"), 0);

        // At vl 16 the tiles run, and one beats the scalar plan.
        r.vl = Some(16);
        for _ in 0..LADDER.len() {
            engine.handle(&r, None).unwrap();
        }
        assert!(run_spec(&engine, &r).0.starts_with("rtm:"));
    }

    #[test]
    fn mixed_widths_and_invocations_stop_verifying_once_each_pair_has_chosen() {
        let engine = ServeEngine::new(0);
        let pairs = [(16, 1), (32, 3), (16, 3), (32, 1)];
        let run = |vl: usize, invocations: u64| {
            let mut r = req(Op::Run, Some(RTM_WIN), None);
            r.vl = Some(vl);
            r.invocations = invocations;
            run_spec(&engine, &r)
        };
        let verified = || stat_u64(&engine.stats_fields(), "autotune_verified_total");
        // Interleaved exploration: twenty variants pass through the
        // eight-entry memo, so a chosen variant may have been evicted
        // and verifies once more on the next round.
        for _ in 0..LADDER.len() {
            for (vl, invocations) in pairs {
                run(vl, invocations);
            }
        }
        assert_eq!(verified(), (LADDER.len() * pairs.len()) as u64);
        for (vl, invocations) in pairs {
            assert_eq!(run(vl, invocations).0, "rtm:1024");
        }
        let settled = verified();
        for _ in 0..10 {
            for (vl, invocations) in pairs {
                assert_eq!(run(vl, invocations), ("rtm:1024".to_owned(), false));
            }
        }
        assert_eq!(verified(), settled, "steady state verifies nothing");
        assert_eq!(
            stat_u64(&engine.stats_fields(), "autotune_respecialize_total"),
            pairs.len() as u64
        );
    }

    #[test]
    fn one_compile_serves_multiple_widths() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Run, Some(MINLOC), None);
        r.vl = Some(8);
        let out8 = engine.handle(&r, None).unwrap();
        assert_eq!(out8.cache_hit, Some(false));
        assert_eq!(field(&out8.fields, "vl").as_u64(), Some(8));
        let best8 = field(&out8.fields, "live_outs")
            .get("best")
            .and_then(Json::as_i64)
            .unwrap();

        // Same kernel at a different width: the width-independent
        // compile cache entry is reused, no second compile runs, and
        // the live-outs agree (same program, same inputs).
        r.vl = Some(32);
        let out32 = engine.handle(&r, None).unwrap();
        assert_eq!(
            out32.cache_hit,
            Some(true),
            "one cached compile serves every width"
        );
        assert_eq!(field(&out32.fields, "vl").as_u64(), Some(32));
        // A new width is a new variant: its vector program is compared
        // with the scalar baseline before any run reports stored cycles.
        assert_eq!(field(&out32.fields, "verified").as_bool(), Some(true));
        let best32 = field(&out32.fields, "live_outs")
            .get("best")
            .and_then(Json::as_i64)
            .unwrap();
        assert_eq!(best8, best32);
        assert_eq!(engine.cache().compiles(), 1);

        // So is a new invocation count.
        r.invocations = 3;
        let out3 = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out3.fields, "verified").as_bool(), Some(true));
        let out3_again = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out3_again.fields, "verified").as_bool(), Some(false));
    }

    fn reply_cycles(fields: &[(&'static str, Json)]) -> (u64, u64, f64, String) {
        (
            stat_u64(fields, "scalar_cycles"),
            stat_u64(fields, "vector_cycles"),
            field(fields, "region_speedup").as_f64().unwrap(),
            field(fields, "live_outs").to_string(),
        )
    }

    #[test]
    fn identical_requests_get_identical_replies() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Run, Some(MINLOC), None);
        r.invocations = 3;
        let first = engine.handle(&r, None).unwrap();
        let second = engine.handle(&r, None).unwrap();
        assert_eq!(field(&first.fields, "verified").as_bool(), Some(true));
        assert_eq!(field(&second.fields, "verified").as_bool(), Some(false));
        // The steady-state run reports what the verifying run measured
        // over the same three invocations, not a per-invocation average
        // scaled back up.
        assert_eq!(reply_cycles(&first.fields), reply_cycles(&second.fields));
    }

    #[test]
    fn every_engine_reports_the_stored_cycles() {
        let engine = ServeEngine::new(0);
        let run = |choice| {
            let mut r = req(Op::Run, Some(MINLOC), None);
            r.engine = choice;
            reply_cycles(&engine.handle(&r, None).unwrap().fields)
        };
        let first = run(None);
        for choice in [Engine::Compiled, Engine::TreeWalking, Engine::Native] {
            assert_eq!(run(Some(choice)), first);
        }
        assert_eq!(run(None), first);
    }

    /// The memo key of an implicit run of a kernel `Auto` vectorizes,
    /// at the default width and one invocation.
    const AUTO_16_1: VariantKey = VariantKey {
        spec: SpecRequest::Auto,
        vl: flexvec_isa::DEFAULT_VLEN,
        invocations: 1,
    };

    /// Runs `r` once to verify, then edits the stored entry of
    /// [`AUTO_16_1`]; returns the first reply.
    fn verify_then_edit(
        engine: &ServeEngine,
        r: &Request,
        edit: impl FnOnce(&mut Verified),
    ) -> OpResult {
        let first = engine.handle(r, None).unwrap();
        assert_eq!(field(&first.fields, "verified").as_bool(), Some(true));
        let hash = u64::from_str_radix(field(&first.fields, "hash").as_str().unwrap(), 16).unwrap();
        let registered = engine.registry.peek(hash).unwrap();
        edit(profile(&registered).entry_mut(&AUTO_16_1).expect("stored"));
        first
    }

    /// Whether the engine still stores an entry for [`AUTO_16_1`].
    fn stored(engine: &ServeEngine, first: &OpResult) -> bool {
        let hash = u64::from_str_radix(field(&first.fields, "hash").as_str().unwrap(), 16).unwrap();
        let registered = engine.registry.peek(hash).unwrap();
        let stored = profile(&registered).entry_mut(&AUTO_16_1).is_some();
        stored
    }

    /// Sends `r` for the [`AUDIT_EVERY`] replays before an audit; each
    /// must reply `verified: false` with `cycles`.
    fn replays(engine: &ServeEngine, r: &Request, cycles: &(u64, u64, f64, String)) {
        for _ in 0..AUDIT_EVERY {
            let out = engine.handle(r, None).unwrap();
            assert_eq!(field(&out.fields, "verified").as_bool(), Some(false));
            assert_eq!(&reply_cycles(&out.fields), cycles);
        }
    }

    fn assert_names(err: &ProtoError, needles: &[String]) {
        assert_eq!(err.kind, ErrorKind::ExecError);
        for needle in needles {
            assert!(
                err.message.contains(needle),
                "{needle:?} in {}",
                err.message
            );
        }
    }

    #[test]
    fn an_audit_fails_on_a_trace_changed_in_one_uop_and_reverifies() {
        let engine = ServeEngine::new(0);
        let r = req(Op::Run, Some(MINLOC), None);
        // The verified trace with one lane address of one gather or
        // load changed: same µop count, same answer.
        let kernel = parse_str("<test>", MINLOC).unwrap();
        let arrays = kernel.materialize_arrays();
        let (compiled, _) = engine
            .cache()
            .get_or_compile(&kernel.program, SpecRequest::Auto);
        let plan = compiled.plan.as_ref().unwrap();
        let code =
            VectorCode::precompiled(&plan.vectorized.vprog, &plan.compiled, Engine::Compiled);
        let mut trace = flexvec_vm::VecSink::default();
        Kernel::new(&kernel.program, &arrays, 1)
            .run_vector(&code, &mut trace, None)
            .unwrap();
        let uop = trace.uops.iter_mut().find(|u| !u.addrs.is_empty()).unwrap();
        uop.addrs[0] += 8;
        let mut changed = FingerprintSink::default();
        changed.observe_slice(&trace.uops);
        let changed = changed.fingerprint();

        let first = verify_then_edit(&engine, &r, |entry| {
            assert_eq!(entry.record.trace.uops, changed.uops);
            assert_ne!(entry.record.trace.hash, changed.hash);
            entry.record.trace = changed;
            *entry = Verified::new(entry.cycles, entry.record.clone());
        });
        let truth = reply_cycles(&first.fields);
        // Replays check the answer and the µop count, which agree...
        replays(&engine, &r, &truth);
        // ...until the audit fingerprints the trace, and fails loudly.
        let err = engine.handle(&r, None).unwrap_err();
        assert_names(
            &err,
            &[
                "audit mismatch".to_owned(),
                "spec auto, vl 16, invocations 1".to_owned(),
                format!("trace fingerprint: expected {:032x}", changed.hash),
            ],
        );
        assert!(!stored(&engine, &first), "the entry is dropped");
        // The next request verifies from scratch, with the true cycles.
        let out = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out.fields, "verified").as_bool(), Some(true));
        assert_eq!(reply_cycles(&out.fields), truth);
        let stats = engine.stats_fields();
        assert_eq!(
            stat_u64(&stats, "autotune_audits_total"),
            0,
            "failed audits count nothing"
        );
        assert_eq!(stat_u64(&stats, "autotune_verified_total"), 2);
    }

    #[test]
    fn the_next_replay_fails_on_a_changed_array_digest() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Run, Some(HOTLINE), None);
        r.engine = Some(Engine::Native);
        // `out`, the second array, has another digest; the trace is the
        // same.
        let first = verify_then_edit(&engine, &r, |entry| {
            entry.record.digests[1] ^= 1;
            *entry = Verified::new(entry.cycles, entry.record.clone());
        });
        let err = engine.handle(&r, None).unwrap_err();
        assert_names(
            &err,
            &[
                "replay mismatch".to_owned(),
                "spec auto, vl 16, invocations 1".to_owned(),
                "memory `out` digest".to_owned(),
            ],
        );
        assert!(!stored(&engine, &first), "the entry is dropped");
        let out = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out.fields, "verified").as_bool(), Some(true));
        assert_eq!(reply_cycles(&out.fields), reply_cycles(&first.fields));
    }

    #[test]
    fn an_audit_fails_when_the_stored_cycles_changed_after_verifying() {
        let engine = ServeEngine::new(0);
        let r = req(Op::Run, Some(MINLOC), None);
        let first = verify_then_edit(&engine, &r, |entry| entry.cycles.scalar += 1);
        let truth = reply_cycles(&first.fields);
        let bogus = (truth.0 + 1, truth.1);
        // Replays report the edited cycles...
        let edited = (
            bogus.0,
            bogus.1,
            bogus.0 as f64 / bogus.1 as f64,
            truth.3.clone(),
        );
        replays(&engine, &r, &edited);
        // ...until the audit finds the entry no longer matches its
        // checksum.
        let err = engine.handle(&r, None).unwrap_err();
        assert_names(
            &err,
            &[
                "audit mismatch".to_owned(),
                "spec auto, vl 16, invocations 1".to_owned(),
                format!(
                    "fails its checksum (stored scalar/vector cycles {}/{})",
                    bogus.0, bogus.1
                ),
            ],
        );
        assert!(!stored(&engine, &first), "the entry is dropped");
        let out = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out.fields, "verified").as_bool(), Some(true));
        assert_eq!(reply_cycles(&out.fields), truth);
    }

    #[test]
    fn a_record_verified_on_native_code_audits_clean_on_every_engine() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Run, Some(MINLOC), None);
        r.engine = Some(Engine::Native);
        let first = engine.handle(&r, None).unwrap();
        assert_eq!(field(&first.fields, "verified").as_bool(), Some(true));
        let truth = reply_cycles(&first.fields);
        for (audits, (choice, label)) in [
            (Engine::TreeWalking, "tree-walking"),
            (Engine::Compiled, "compiled"),
            (
                Engine::Native,
                if native_supported() {
                    "native"
                } else {
                    "compiled"
                },
            ),
        ]
        .into_iter()
        .enumerate()
        {
            r.engine = Some(choice);
            replays(&engine, &r, &truth);
            // The audit: no oracle ran, so the reply is not `verified`.
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "verified").as_bool(), Some(false));
            assert_eq!(field(&out.fields, "engine").as_str(), Some(label));
            assert_eq!(reply_cycles(&out.fields), truth);
            let stats = engine.stats_fields();
            assert_eq!(stat_u64(&stats, "autotune_audits_total"), audits as u64 + 1);
            assert_eq!(stat_u64(&stats, "autotune_verified_total"), 1);
        }
        assert!(stored(&engine, &first));
        assert_eq!(sample(&engine, "flexvec_autotune_audits_total"), 3);
        // Audits are runs that reused stored cycles.
        assert_eq!(
            sample(&engine, "flexvec_autotune_vector_only_total"),
            3 * (AUDIT_EVERY + 1)
        );
    }

    /// Carried RAW dependence at distance 16: safe at vl ≤ 16, and the
    /// analysis must cap `max_vl` there.
    const DIST16: &str = "\
kernel dist16;
var i = 0;
var t = 0;
array a[128] = seed 3;
live_out t;
for (i = 16; i < 128; i++) {
  t = a[i - 16] + 1;
  a[i] = t;
}
";

    #[test]
    fn too_wide_vl_is_a_clean_bad_request() {
        let engine = ServeEngine::new(0);
        // Within the proven-safe ceiling the kernel runs fine...
        let mut r = req(Op::Run, Some(DIST16), None);
        r.vl = Some(16);
        let out = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out.fields, "kind").as_str(), Some("traditional"));
        // ...and past it the request is refused with a structured
        // error naming the ceiling — never wrong code.
        r.vl = Some(32);
        let err = engine.handle(&r, None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(
            err.message.contains("widest safe width: 16"),
            "{}",
            err.message
        );
        // The refused width opens no choice: only vl 16 has a table.
        let hash = field(&out.fields, "hash").as_str().unwrap().to_owned();
        let stats = engine.stats_fields();
        let widths: Vec<_> = choices(&stats, &hash)
            .iter()
            .map(|c| c.get("vl").and_then(Json::as_u64))
            .collect();
        assert_eq!(widths, [Some(16)]);
    }

    #[test]
    fn a_profile_leaves_with_its_registration() {
        // Capacity 4: one registry entry per shard. Run once, minloc's
        // entry stays on probation, where a new entry displaces it.
        let engine = ServeEngine::new(4);
        let run = req(Op::Run, Some(MINLOC), None);
        let first = engine.handle(&run, None).unwrap();
        assert_eq!(field(&first.fields, "verified").as_bool(), Some(true));
        let hash = u64::from_str_radix(field(&first.fields, "hash").as_str().unwrap(), 16).unwrap();

        // Other kernels' compiles push minloc out of the registry, and
        // its profile with it.
        let mut n = 0;
        while engine.registry.peek(hash).is_some() {
            assert!(n < 1000, "minloc was never evicted");
            let source = format!(
                "kernel k{n};\nvar i = 0;\nvar s = 0;\narray a[32] = seed {n};\nlive_out s;\n\
                 for (i = 0; i < 32; i++) {{\n  s = s + a[i];\n}}\n"
            );
            engine
                .handle(&req(Op::Compile, Some(&source), None), None)
                .unwrap();
            n += 1;
        }
        let stats = engine.stats_fields();
        assert!(field(&stats, "kernels_registered").as_u64().unwrap() <= 16);

        // Sent again, it registers afresh and verifies again.
        let back = engine.handle(&run, None).unwrap();
        assert_eq!(field(&back.fields, "verified").as_bool(), Some(true));
        assert_eq!(reply_cycles(&back.fields), reply_cycles(&first.fields));
    }

    #[test]
    fn stats_fields_report_build_and_cache() {
        let engine = ServeEngine::new(128);
        let r = engine.handle(&req(Op::Stats, None, None), None).unwrap();
        assert!(field(&r.fields, "version").as_str().is_some());
        assert!(field(&r.fields, "git_hash").as_str().is_some());
        assert_eq!(field(&r.fields, "cache_capacity").as_u64(), Some(128));
    }
}
