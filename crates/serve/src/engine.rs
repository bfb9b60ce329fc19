//! The daemon's compile-and-execute core.
//!
//! One [`ServeEngine`] lives for the life of the process and owns the
//! two shared maps every worker goes through:
//!
//! * the **compile cache** — a bounded [`CompileCache`] submitted to
//!   via [`CompileCache::get_or_compile_coalesced`], so N concurrent
//!   requests for the same (AST, spec) pair cost one pipeline run and
//!   repeat-kernel traffic skips compilation entirely;
//! * the **kernel registry** — parsed kernels keyed by their stable
//!   AST hash, so a client can send `.fv` source once and refer to it
//!   by `hash` forever after (until eviction).
//!
//! Execution follows the **verified-once** discipline, keyed by
//! variant: [`VariantKey`] `(spec, vl, invocations)`. The first run of
//! a variant mirrors `flexvecc run` — scalar baseline and vector code,
//! both on the Table 1 out-of-order model, run by [`Kernel`] and
//! compared with [`Kernel::compare`] on every live-out, the induction
//! exit value, the break flag, the iteration count and every array
//! element — and stores both simulated cycle counts in the kernel's
//! profile. Every later run of the variant executes on a
//! [`CountingSink`], vector-only (the scalar program for a scalar-only
//! plan), and reports the stored cycles: every request materializes the
//! same seeded arrays, so there is nothing new to simulate or compare.
//! A periodic audit re-simulates both sides and must reproduce the
//! stored cycles exactly; a mismatch fails the request and drops the
//! entry. Requests that pin `spec` explicitly share the memo and its
//! audits — the pin bypasses the *choice*, not verification — so a
//! fixed-spec daemon and an autotuned one are comparable like-for-like.
//! The daemon decides *what* runs (memo, audits, tier, choice);
//! [`Kernel`] runs it, polling the request's [`CancelToken`] so a
//! deadline or a daemon drain stops the VPL loop at the next chunk
//! boundary.
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
use flexvec_ir::Program;
use flexvec_profiler::{throughput_samples, vector_stat_samples, StatSample, ThroughputReport};
use flexvec_sim::{OooSim, SimConfig};
use flexvec_vm::{
    native_supported, CancelToken, CheckError, CompiledVProg, CountingSink, Engine, ExecError,
    Kernel, TraceSink, VectorCode, VectorStats,
};

use crate::autotune::{KernelProfile, Pick, VariantCycles, VariantKey, LADDER};
use crate::json::Json;
use crate::metrics::ExternalSample;
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
    registry: ShardedCache<ParsedKernel>,
    started: Instant,
    totals: Mutex<BTreeMap<&'static str, u64>>,
    tiers: Mutex<BTreeMap<u64, TierEntry>>,
    profiles: Mutex<BTreeMap<u64, KernelProfile>>,
    /// Upper bound on the `tiers` and `profiles` map sizes, so daemon
    /// memory is bounded by configuration, not by the number of
    /// distinct kernels ever seen.
    tracked_capacity: usize,
}

/// A kernel becomes *hot* (native tier) at this many runs.
const TIER_HOT_RUNS: u64 = 16;

/// Tracking-map bound for unbounded-cache daemons (`cache_capacity`
/// 0): still finite, so a hostile kernel stream cannot grow the tier
/// and profile maps without limit.
const TRACKED_UNBOUNDED_CAP: usize = 4096;

/// Per-kernel-hash tier state: how often the kernel has run, which
/// tier it last ran on, and the native-enabled plan once it got hot.
/// The map is keyed by kernel hash and bounded by
/// [`ServeEngine::tracked_capacity`], so it grows with resident
/// kernels, not with traffic.
#[derive(Default)]
struct TierEntry {
    runs: u64,
    /// 0 = never ran, else `tier_rank` of the last auto-policy tier.
    last_rank: u8,
    /// Cached native-enabled clone of the compiled plan, keyed by the
    /// `(spec, vl)` it was built for — native code is specialized per
    /// vector length, so a width change rebuilds it just like a spec
    /// change does.
    native: Option<(SpecRequest, usize, CompiledVProg)>,
}

/// Promotion order of the tiers.
fn tier_rank(engine: Engine) -> u8 {
    match engine {
        Engine::TreeWalking => 1,
        Engine::Compiled => 2,
        Engine::Native => 3,
    }
}

/// The totals-map key counting executions on this tier.
fn tier_counter(engine: Engine) -> &'static str {
    match engine {
        Engine::TreeWalking => "tier_tree",
        Engine::Compiled => "tier_bytecode",
        Engine::Native => "tier_native",
    }
}

/// Maps an engine-counter sample name to its Prometheus metric name.
fn prom_name(name: &'static str) -> &'static str {
    match name {
        "engine_chunks" => "flexvec_engine_chunks_total",
        "engine_vpl_iterations" => "flexvec_engine_vpl_iterations_total",
        "engine_ff_fallbacks" => "flexvec_engine_ff_fallbacks_total",
        "engine_rtm_commits" => "flexvec_engine_rtm_commits_total",
        "engine_rtm_aborts" => "flexvec_engine_rtm_aborts_total",
        "engine_uops" => "flexvec_engine_uops_total",
        "engine_wall_micros" => "flexvec_engine_wall_micros_total",
        "tier_tree" => "flexvec_tier_tree_total",
        "tier_bytecode" => "flexvec_tier_bytecode_total",
        "tier_native" => "flexvec_tier_native_total",
        "tier_promotions" => "flexvec_tier_promotions_total",
        "autotune_respecialize" => "flexvec_autotune_respecialize_total",
        "autotune_vector_only" => "flexvec_autotune_vector_only_total",
        "autotune_verified" => "flexvec_autotune_verified_total",
        other => other,
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
                ("tier_tree", 0),
                ("tier_bytecode", 0),
                ("tier_native", 0),
                ("tier_promotions", 0),
                ("autotune_respecialize", 0),
                ("autotune_vector_only", 0),
                ("autotune_verified", 0),
            ])),
            tiers: Mutex::new(BTreeMap::new()),
            profiles: Mutex::new(BTreeMap::new()),
            tracked_capacity: if cache_capacity == 0 {
                TRACKED_UNBOUNDED_CAP
            } else {
                // Twice the cache: tier/profile state is tiny next to a
                // compiled plan, and surviving a round of cache churn
                // keeps a kernel's choices and memo intact.
                cache_capacity.saturating_mul(2)
            },
        }
    }

    /// Kernels currently tracked by the tier policy and the profiles
    /// — `(tiers, profiles)` map sizes, both bounded by the tracking
    /// cap.
    pub fn tracked_kernels(&self) -> (usize, usize) {
        (
            self.tiers.lock().expect("tiers lock").len(),
            self.profiles.lock().expect("profiles lock").len(),
        )
    }

    /// Enforces the tracking-map bound after a request may have added
    /// entries. Eviction prefers kernels no longer resident in the
    /// registry (the compile cache has moved on from them too); if
    /// everything tracked is still resident, the smallest hashes go —
    /// the next request for one simply re-warms its tier state.
    fn prune_tracked(&self) {
        fn prune<V>(map: &mut BTreeMap<u64, V>, cap: usize, resident: impl Fn(u64) -> bool) {
            if map.len() <= cap {
                return;
            }
            map.retain(|hash, _| resident(*hash));
            while map.len() > cap {
                let evict = *map.keys().next().expect("map is over a nonzero cap");
                map.remove(&evict);
            }
        }
        let resident = |hash: u64| self.registry.peek(hash).is_some();
        prune(
            &mut self.tiers.lock().expect("tiers lock"),
            self.tracked_capacity,
            resident,
        );
        prune(
            &mut self.profiles.lock().expect("profiles lock"),
            self.tracked_capacity,
            resident,
        );
    }

    /// Picks the execution tier for one request and advances the
    /// kernel's run count. An explicit request engine is honored
    /// as-is; otherwise the per-hash policy starts a kernel on
    /// bytecode and promotes it to native once hot (it stays on
    /// bytecode where the host has no native back end). The tree
    /// walker runs only when a request names it. Returns the engine
    /// and whether this request crossed a promotion boundary.
    fn resolve_engine(&self, hash: u64, req: &Request) -> (Engine, bool) {
        let mut tiers = self.tiers.lock().expect("tiers lock");
        let entry = tiers.entry(hash).or_default();
        let prior = entry.runs;
        entry.runs += req.invocations.max(1);
        let Some(explicit) = req.engine else {
            let engine = if prior < TIER_HOT_RUNS || !native_supported() {
                Engine::Compiled
            } else {
                Engine::Native
            };
            let promoted = entry.last_rank != 0 && tier_rank(engine) > entry.last_rank;
            entry.last_rank = tier_rank(engine);
            return (engine, promoted);
        };
        (explicit, false)
    }

    /// The native-enabled plan for a hot kernel, built once per
    /// (hash, spec, vl) and cached in the tier entry. Native code is
    /// specialized to the ambient vector length, so a request at a new
    /// width rebuilds the plan for that width.
    fn native_plan(&self, hash: u64, spec: SpecRequest, base: &CompiledVProg) -> CompiledVProg {
        let vl = flexvec_isa::vlen();
        let mut tiers = self.tiers.lock().expect("tiers lock");
        let entry = tiers.entry(hash).or_default();
        match &entry.native {
            Some((s, w, c)) if *s == spec && *w == vl => c.clone(),
            _ => {
                let mut c = base.clone();
                c.enable_native();
                entry.native = Some((spec, vl, c.clone()));
                c
            }
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
    fn plan(&self, program: &Program, req: &Request) -> Planned {
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
        let hash = program_hash(program);
        let (vl, invocations) = (flexvec_isa::vlen(), req.invocations.max(1));
        let pick = || {
            self.profiles
                .lock()
                .expect("profiles lock")
                .get(&hash)
                .map_or(Pick::Explore(0), |p| p.pick(vl, invocations))
        };
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
            self.record_candidate(hash, req, candidates, index, None);
        }
    }

    /// Records the vector cycles of the candidate an implicit-spec
    /// request explored (`None`: it cannot run at the request's width),
    /// counting a choice other than `Auto` once it settles.
    fn record_candidate(
        &self,
        hash: u64,
        req: &Request,
        candidates: &'static [SpecRequest],
        index: usize,
        cycles: Option<u64>,
    ) {
        let vl = flexvec_isa::vlen();
        let settled = self
            .profiles
            .lock()
            .expect("profiles lock")
            .entry(hash)
            .or_default()
            .record(vl, req.invocations.max(1), candidates, index, cycles);
        if settled.is_some_and(|spec| spec != SpecRequest::Auto) {
            *self
                .totals
                .lock()
                .expect("totals lock")
                .entry("autotune_respecialize")
                .or_insert(0) += 1;
        }
    }

    /// Resolves the request's kernel: inline source is parsed and
    /// registered under its AST hash; a `hash` must name a registered
    /// kernel.
    fn resolve(&self, req: &Request) -> Result<Arc<ParsedKernel>, ProtoError> {
        if let Some(source) = &req.source {
            let kernel = parse_str("<request>", source)
                .map_err(|diag| ProtoError::new(ErrorKind::SourceError, diag.render(source)))?;
            let hash = program_hash(&kernel.program);
            let (kernel, _) = self.registry.get_or_insert_with(hash, || kernel);
            return Ok(kernel);
        }
        let hash = req.hash.expect("validated: source or hash present");
        if let Some(kernel) = self.registry.peek(hash) {
            return Ok(kernel);
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
        self.prune_tracked();
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
                let kernel = self.resolve(req)?;
                let t0 = Instant::now();
                let Planned { compiled, hit, .. } = self.plan(&kernel.program, req);
                let compile_wall = t0.elapsed();
                let mut fields = kernel_fields(&kernel, &compiled, hit);
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
                let kernel = self.resolve(req)?;
                let t0 = Instant::now();
                let Planned {
                    spec,
                    explore,
                    compiled,
                    hit,
                } = self.plan(&kernel.program, req);
                let compile_wall = t0.elapsed();
                let t1 = Instant::now();
                let outcome = self.execute(&kernel, &compiled, req, spec, cancel)?;
                let exec_wall = t1.elapsed();
                if let Some((index, candidates)) = explore {
                    let (hash, cycles) = (compiled.program_hash, outcome.vector_cycles);
                    self.record_candidate(hash, req, candidates, index, Some(cycles));
                }
                let mut fields = kernel_fields(&kernel, &compiled, hit);
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
    /// `spec`: on the cycle model with the scalar baseline and the
    /// checked comparison when the variant verifies (its first run, or
    /// an audit), on a [`CountingSink`] with the stored cycles otherwise.
    fn execute(
        &self,
        kernel: &ParsedKernel,
        compiled: &CompiledKernel,
        req: &Request,
        spec: SpecRequest,
        cancel: Option<&CancelToken>,
    ) -> Result<ExecOutcome, ProtoError> {
        let program = &kernel.program;
        let arrays = kernel.materialize_arrays();
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

        // Verified-once gate (`KernelProfile::needs_verify` says why it
        // is sound): a variant without stored cycles, or one whose
        // kernel is due an audit, runs on the cycle model and verifies;
        // every other run replays the stored cycles. This applies to
        // explicit-spec requests too: an explicit spec pins the
        // *variant*; the verification discipline is the same.
        let hash = compiled.program_hash;
        let key = VariantKey {
            spec,
            vl: flexvec_isa::vlen(),
            invocations,
        };
        let replay = self
            .profiles
            .lock()
            .expect("profiles lock")
            .entry(hash)
            .or_default()
            .replay(&key);
        let simulate = replay.is_none();

        // The scalar program runs when this run verifies, and on every
        // run of a scalar-only plan, where it is the answer.
        let mut sink_s = Sink::new(simulate);
        let scalar = (simulate || compiled.plan.is_err())
            .then(|| checked.run_scalar(sink_s.as_dyn(), cancel))
            .transpose()
            .map_err(|e| wire_error(CheckError::Scalar(e)))?;

        let Ok(plan) = &compiled.plan else {
            let scalar = scalar.expect("scalar-only plans always run the scalar program");
            let cycles = match replay {
                Some(cycles) => cycles,
                None => {
                    let scalar = sink_s.cycles().expect("a verifying run simulates");
                    self.settle(
                        hash,
                        key,
                        VariantCycles {
                            scalar,
                            vector: scalar,
                        },
                    )?
                }
            };
            self.count_run(simulate);
            return Ok(ExecOutcome {
                kind: "scalar-only",
                // The scalar run is the answer: nothing to verify.
                verified: true,
                scalar_cycles: cycles.scalar,
                vector_cycles: cycles.vector,
                stats: VectorStats::default(),
                // The wall is the scalar loop's: the latency the request
                // actually paid.
                throughput: ThroughputReport::new("scalar", scalar.wall, 0, sink_s.as_dyn().len()),
                live_outs: scalar.live_outs(program),
            });
        };

        // Vector execution on a fresh memory image, on the tier the
        // policy (or an explicit request engine) picked.
        let (engine, promoted) = self.resolve_engine(hash, req);
        let native =
            (engine == Engine::Native).then(|| self.native_plan(hash, spec, &plan.compiled));
        self.record_tier(engine, promoted);
        let code = VectorCode::precompiled(
            &plan.vectorized.vprog,
            native.as_ref().unwrap_or(&plan.compiled),
            engine,
        );
        let mut sink_v = Sink::new(simulate);
        let vector = checked
            .run_vector(&code, sink_v.as_dyn(), cancel)
            .map_err(|e| wire_error(CheckError::Vector(e)))?;
        let mut throughput =
            ThroughputReport::new(engine.label(), vector.wall, 0, sink_v.as_dyn().len());
        throughput.add_stats(&vector.total);

        let (cycles, live_outs) = match scalar {
            Some(scalar) => {
                checked
                    .compare(&scalar, &vector)
                    .map_err(|m| wire_error(CheckError::Mismatch(m)))?;
                let fresh = VariantCycles {
                    scalar: sink_s.cycles().expect("a verifying run simulates"),
                    vector: sink_v.cycles().expect("a verifying run simulates"),
                };
                (self.settle(hash, key, fresh)?, scalar.live_outs(program))
            }
            // Steady state: live-outs come from the vector run (the
            // verified-identical computation) and the cycles are the
            // ones stored when the variant verified.
            None => (
                replay.expect("a run without the scalar baseline replays"),
                vector.live_outs(program),
            ),
        };
        self.count_run(simulate);
        self.record_totals(&vector.total, &throughput);
        Ok(ExecOutcome {
            kind: match plan.vectorized.kind {
                flexvec::VectorizedKind::Traditional => "traditional",
                flexvec::VectorizedKind::FlexVec => "flexvec",
            },
            verified: simulate,
            scalar_cycles: cycles.scalar,
            vector_cycles: cycles.vector,
            stats: vector.stats,
            throughput,
            live_outs,
        })
    }

    /// Counts a run that settled: in `autotune_verified` when it
    /// simulated and verified, in `autotune_vector_only` when it reused
    /// the variant's stored cycles. Scalar-only plans count the same
    /// way.
    fn count_run(&self, verified: bool) {
        let counter = if verified {
            "autotune_verified"
        } else {
            "autotune_vector_only"
        };
        *self
            .totals
            .lock()
            .expect("totals lock")
            .entry(counter)
            .or_insert(0) += 1;
    }

    /// Stores a verifying run's simulated cycles with its variant. An
    /// audit that does not reproduce the stored cycles fails the
    /// request; the entry is dropped, so the next request verifies.
    fn settle(
        &self,
        hash: u64,
        key: VariantKey,
        fresh: VariantCycles,
    ) -> Result<VariantCycles, ProtoError> {
        let settled = self
            .profiles
            .lock()
            .expect("profiles lock")
            .entry(hash)
            .or_default()
            .settle(key, fresh);
        settled.map(|()| fresh).map_err(|stored| {
            ProtoError::new(
                ErrorKind::ExecError,
                format!(
                    "audit mismatch for kernel {} variant (spec {}, vl {}, invocations {}): \
                     stored scalar/vector cycles {}/{}, re-simulated {}/{}",
                    hash_hex(hash),
                    spec_label(key.spec),
                    key.vl,
                    key.invocations,
                    stored.scalar,
                    stored.vector,
                    fresh.scalar,
                    fresh.vector
                ),
            )
        })
    }

    /// Counts one vector execution on its tier, and the promotion
    /// event when the tier policy just moved the kernel up.
    fn record_tier(&self, engine: Engine, promoted: bool) {
        let mut totals = self.totals.lock().expect("totals lock");
        *totals.entry(tier_counter(engine)).or_insert(0) += 1;
        if promoted {
            *totals.entry("tier_promotions").or_insert(0) += 1;
        }
    }

    /// Folds one run's engine counters into the process-lifetime
    /// totals `/metrics` exports.
    fn record_totals(&self, stats: &VectorStats, throughput: &ThroughputReport) {
        let mut totals = self.totals.lock().expect("totals lock");
        let mut add = |samples: Vec<StatSample>| {
            for s in samples {
                *totals.entry(s.name).or_insert(0) += s.value;
            }
        };
        add(vector_stat_samples(stats));
        add(throughput_samples(throughput));
    }

    /// Engine + cache counters for the `/metrics` endpoint, in
    /// Prometheus naming.
    pub fn metric_samples(&self) -> Vec<ExternalSample> {
        let mut out: Vec<ExternalSample> = self
            .totals
            .lock()
            .expect("totals lock")
            .iter()
            .map(|(name, value)| ExternalSample {
                name: prom_name(name),
                value: *value,
            })
            .collect();
        // Settled choices, one per kernel and `(vl, invocations)`, by
        // mode: one labeled gauge family, both rows always present.
        let (mut autos, mut rtms) = (0u64, 0u64);
        for choice in self
            .profiles
            .lock()
            .expect("profiles lock")
            .values()
            .flat_map(KernelProfile::choices)
        {
            match choice.chosen() {
                Some(SpecRequest::Auto) => autos += 1,
                Some(SpecRequest::Rtm { .. }) => rtms += 1,
                None => {}
            }
        }
        out.extend([
            ExternalSample {
                name: "flexvec_autotune_active_spec{mode=\"auto\"}",
                value: autos,
            },
            ExternalSample {
                name: "flexvec_autotune_active_spec{mode=\"rtm\"}",
                value: rtms,
            },
        ]);
        let stats = self.cache.stats();
        out.extend([
            ExternalSample {
                name: "flexvec_cache_hits_total",
                value: stats.hits,
            },
            ExternalSample {
                name: "flexvec_cache_misses_total",
                value: stats.misses,
            },
            ExternalSample {
                name: "flexvec_cache_entries",
                value: stats.entries,
            },
            ExternalSample {
                name: "flexvec_cache_evictions_total",
                value: stats.evictions,
            },
            ExternalSample {
                name: "flexvec_cache_coalesced_total",
                value: stats.coalesced,
            },
            ExternalSample {
                name: "flexvec_cache_compiles_total",
                value: self.cache.compiles(),
            },
        ]);
        out
    }

    /// The `stats` op response body: build identity, uptime, cache and
    /// registry counters. The server splices in its queue fields.
    pub fn stats_fields(&self) -> Vec<(&'static str, Json)> {
        let info = build_info();
        let stats = self.cache.stats();
        let totals = self.totals.lock().expect("totals lock");
        let total = |name: &str| totals.get(name).copied().unwrap_or(0);
        // Per kernel hash, the table behind each `(vl, invocations)`
        // choice: every explored candidate's vector cycles (null where
        // it cannot run at that width) and the spec chosen (null while
        // exploring). Kernels that only saw explicit specs are left out.
        let autotune_kernels: BTreeMap<String, Json> = self
            .profiles
            .lock()
            .expect("profiles lock")
            .iter()
            .filter(|(_, p)| !p.choices().is_empty())
            .map(|(&hash, p)| {
                let choices = p.choices().iter().map(|choice| {
                    let cycles = choice
                        .table()
                        .map(|(spec, cycles)| {
                            (spec_label(spec), cycles.map_or(Json::Null, Json::from))
                        })
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
                let kernel = self
                    .registry
                    .peek(hash)
                    .map_or(Json::Null, |k| Json::from(k.program.name.as_str()));
                let entry = Json::obj([
                    ("kernel", kernel),
                    ("choices", Json::Arr(choices.collect())),
                ]);
                (hash_hex(hash), entry)
            })
            .collect();
        let mut fields = Vec::from([
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
            (
                "kernels_tracked",
                Json::from(self.tracked_kernels().0 as u64),
            ),
            ("tracked_capacity", Json::from(self.tracked_capacity as u64)),
            ("tier_tree_total", Json::from(total("tier_tree"))),
            ("tier_bytecode_total", Json::from(total("tier_bytecode"))),
            ("tier_native_total", Json::from(total("tier_native"))),
            (
                "tier_promotions_total",
                Json::from(total("tier_promotions")),
            ),
            ("native_supported", Json::from(native_supported())),
        ]);
        fields.extend([
            (
                "autotune_respecialize_total",
                Json::from(total("autotune_respecialize")),
            ),
            (
                "autotune_verified_total",
                Json::from(total("autotune_verified")),
            ),
            (
                "autotune_vector_only_total",
                Json::from(total("autotune_vector_only")),
            ),
            ("autotune_kernels", Json::Obj(autotune_kernels)),
        ]);
        fields
    }
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

/// Where a run's µops go: the Table 1 cycle model when the run
/// verifies, a counter on every other run.
enum Sink {
    Model(Box<OooSim>),
    Count(CountingSink),
}

impl Sink {
    fn new(simulate: bool) -> Self {
        if simulate {
            Sink::Model(Box::new(OooSim::new(SimConfig::table1())))
        } else {
            Sink::Count(CountingSink::default())
        }
    }

    fn as_dyn(&mut self) -> &mut dyn TraceSink {
        match self {
            Sink::Model(sim) => sim.as_mut(),
            Sink::Count(counter) => counter,
        }
    }

    /// Simulated cycles; `None` when the run only counted.
    fn cycles(&self) -> Option<u64> {
        match self {
            Sink::Model(sim) => Some(sim.result().cycles),
            Sink::Count(_) => None,
        }
    }
}

/// Measured outcome of one executed request.
struct ExecOutcome {
    kind: &'static str,
    /// The reply's `verified`: the run recomputed and compared the
    /// scalar baseline (first run of a variant, or an audit), or the
    /// plan is scalar-only and the scalar run is the answer.
    verified: bool,
    scalar_cycles: u64,
    vector_cycles: u64,
    stats: VectorStats,
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
            ("vpl_iterations", Json::from(outcome.stats.vpl_iterations)),
        ]);
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(field(&out.fields, "chunks").as_u64().unwrap() > 0);
        assert!(field(&out.fields, "wall_micros").as_u64().is_some());
        let samples = engine.metric_samples();
        let chunks = samples
            .iter()
            .find(|s| s.name == "flexvec_engine_chunks_total")
            .unwrap();
        assert!(chunks.value > 0);
        assert!(samples
            .iter()
            .any(|s| s.name == "flexvec_cache_compiles_total" && s.value == 1));
    }

    #[test]
    fn tier_policy_starts_on_bytecode_and_promotes_hot_kernels_to_native() {
        let engine = ServeEngine::new(0);
        let mut auto_req = req(Op::Run, Some(MINLOC), None);
        auto_req.engine = None;

        // One request = one run, so request k sees a prior count of
        // k-1: bytecode below TIER_HOT_RUNS, native after (bytecode on
        // hosts without the back end). The tree walker never runs
        // unless a request names it.
        let labels: Vec<String> = (0..=TIER_HOT_RUNS)
            .map(|_| {
                let r = engine.handle(&auto_req, None).unwrap();
                field(&r.fields, "engine").as_str().unwrap().to_owned()
            })
            .collect();
        let hot = TIER_HOT_RUNS as usize;
        assert!(labels[..hot].iter().all(|l| l == "compiled"));
        assert_eq!(
            labels[hot],
            if native_supported() {
                "native"
            } else {
                "compiled"
            }
        );

        let stats = engine.stats_fields();
        let total = |name: &str| field(&stats, name).as_u64().unwrap();
        assert_eq!(total("tier_tree_total"), 0);
        if native_supported() {
            assert_eq!(total("tier_bytecode_total"), TIER_HOT_RUNS);
            assert_eq!(total("tier_native_total"), 1);
            assert_eq!(total("tier_promotions_total"), 1, "bytecode→native");
        } else {
            assert_eq!(total("tier_bytecode_total"), TIER_HOT_RUNS + 1);
            assert_eq!(total("tier_native_total"), 0);
            assert_eq!(total("tier_promotions_total"), 0, "nothing to promote to");
        }

        // An explicit tree request still runs on the tree walker and
        // counts on its tier, without touching the promotion count.
        let mut tree_req = auto_req.clone();
        tree_req.engine = Some(Engine::TreeWalking);
        let r = engine.handle(&tree_req, None).unwrap();
        assert_eq!(field(&r.fields, "engine").as_str(), Some("tree-walking"));
        let stats = engine.stats_fields();
        assert_eq!(field(&stats, "tier_tree_total").as_u64(), Some(1));
        assert_eq!(
            field(&stats, "tier_promotions_total").as_u64(),
            Some(u64::from(native_supported()))
        );
    }

    #[test]
    fn explicit_engine_bypasses_the_tier_policy() {
        let engine = ServeEngine::new(0);
        let r = engine
            .handle(&req(Op::Run, Some(MINLOC), None), None)
            .unwrap();
        assert_eq!(field(&r.fields, "engine").as_str(), Some("compiled"));
        let stats = engine.stats_fields();
        assert_eq!(field(&stats, "tier_tree_total").as_u64(), Some(0));
        assert_eq!(
            field(&stats, "tier_promotions_total").as_u64(),
            Some(0),
            "explicit engines never count as promotions"
        );
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

        let samples = engine.metric_samples();
        let sample = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.value)
                .unwrap_or_else(|| panic!("missing sample {name}"))
        };
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
        let samples = engine.metric_samples();
        assert!(samples
            .iter()
            .any(|s| s.name == "flexvec_engine_rtm_aborts_total" && s.value > 0));
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
    fn tier_promotion_keeps_the_reported_cycles() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Run, Some(MINLOC), None);
        r.engine = None;
        let replies: Vec<_> = (0..20).map(|_| engine.handle(&r, None).unwrap()).collect();
        let engines: std::collections::BTreeSet<&str> = replies
            .iter()
            .map(|out| field(&out.fields, "engine").as_str().unwrap())
            .collect();
        assert!(engines.contains("compiled") && !engines.contains("tree-walking"));
        assert_eq!(engines.contains("native"), native_supported());
        let first = reply_cycles(&replies[0].fields);
        for out in &replies {
            assert_eq!(reply_cycles(&out.fields), first);
        }
    }

    #[test]
    fn audit_mismatch_fails_the_request_and_reverifies() {
        let engine = ServeEngine::new(0);
        let r = req(Op::Run, Some(MINLOC), None);
        let first = engine.handle(&r, None).unwrap();
        assert_eq!(field(&first.fields, "verified").as_bool(), Some(true));
        let truth = reply_cycles(&first.fields);
        let hash = u64::from_str_radix(field(&first.fields, "hash").as_str().unwrap(), 16).unwrap();
        let key = VariantKey {
            spec: SpecRequest::Auto,
            vl: flexvec_isa::DEFAULT_VLEN,
            invocations: 1,
        };
        let bogus = VariantCycles {
            scalar: truth.0 + 1,
            vector: truth.1,
        };
        {
            let mut profiles = engine.profiles.lock().unwrap();
            let profile = profiles.get_mut(&hash).unwrap();
            profile.forget(&key);
            profile.settle(key, bogus).unwrap();
        }
        // Steady-state runs report the (corrupted) stored cycles...
        for _ in 0..crate::autotune::AUDIT_EVERY {
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "verified").as_bool(), Some(false));
            assert_eq!(stat_u64(&out.fields, "scalar_cycles"), bogus.scalar);
        }
        // ...until the audit re-simulates and disagrees, loudly.
        let err = engine.handle(&r, None).unwrap_err();
        assert_eq!(err.kind, ErrorKind::ExecError);
        for needle in [
            "audit mismatch".to_owned(),
            "spec auto, vl 16, invocations 1".to_owned(),
            format!("{}/{}", bogus.scalar, bogus.vector),
            format!("re-simulated {}/{}", truth.0, truth.1),
        ] {
            assert!(
                err.message.contains(&needle),
                "{needle:?} in {}",
                err.message
            );
        }
        // The entry is gone: the next request verifies from scratch.
        let out = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out.fields, "verified").as_bool(), Some(true));
        assert_eq!(reply_cycles(&out.fields), truth);
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
    fn tracking_maps_stay_bounded_under_distinct_kernel_traffic() {
        // Capacity 4 bounds the caches at 4 and the tracking maps at 8.
        let engine = ServeEngine::new(4);
        assert_eq!(engine.tracked_capacity, 8);
        for i in 0..40 {
            let source = format!(
                "kernel k{i};\nvar i = 0;\nvar s = 0;\narray a[32] = seed {i};\nlive_out s;\n\
                 for (i = 0; i < 32; i++) {{\n  s = s + a[i];\n}}\n"
            );
            engine
                .handle(&req(Op::Run, Some(&source), None), None)
                .unwrap();
        }
        let (tiers, profiles) = engine.tracked_kernels();
        assert!(tiers <= 8, "tiers map grew to {tiers}");
        assert!(profiles <= 8, "profiles map grew to {profiles}");
        let stats = engine.stats_fields();
        assert_eq!(field(&stats, "tracked_capacity").as_u64(), Some(8));
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
