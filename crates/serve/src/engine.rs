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
//! both on the Table 1 out-of-order model, verified against each other
//! element-for-element — and stores both simulated cycle counts in the
//! kernel's profile. Every later run of the variant executes on a
//! [`CountingSink`], vector-only (the scalar program for a scalar-only
//! plan), and reports the stored cycles: every request materializes the
//! same seeded arrays, so there is nothing new to simulate or compare.
//! A periodic audit re-simulates both sides and must reproduce the
//! stored cycles exactly; a mismatch fails the request and drops the
//! entry. Requests that pin `spec` explicitly share the memo and its
//! audits — the pin bypasses *adaptation*, not verification — so a
//! fixed-spec daemon and an autotuned one are comparable like-for-like.
//! Every run goes through the
//! *cancellable* executor entry points so a request deadline or a
//! daemon drain stops the VPL loop at the next chunk boundary.
//!
//! Implicit-spec traffic also feeds the [`crate::autotune`] state
//! machine: per kernel hash the engine keeps a decaying runtime
//! profile and, when the profile demands it, re-specializes the cached
//! plan (Auto ↔ RTM, tile resizing) through
//! [`CompileCache::get_or_respecialize`], pinning the active variant
//! against cache churn.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flexvec::{program_hash, ShardedCache, SpecRequest};
use flexvec_front::{parse_str, CompileCache, CompiledKernel, ParsedKernel};
use flexvec_mem::AddressSpace;
use flexvec_profiler::{throughput_samples, vector_stat_samples, StatSample, ThroughputReport};
use flexvec_sim::{OooSim, SimConfig};
use flexvec_vm::{
    native_supported, run_scalar_cancellable, run_vector_precompiled_cancellable,
    run_vector_with_engine_cancellable, Bindings, CancelToken, CompiledVProg, CountingSink, Engine,
    TraceSink, VectorStats,
};

use crate::autotune::{
    AutotuneConfig, KernelProfile, Observation, VariantCycles, VariantKey, DECISION_REASONS,
};
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
    tune_cfg: AutotuneConfig,
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
        "autotune_reason_rtm_unlock" => "flexvec_autotune_reason_rtm_unlock_total",
        "autotune_reason_ff_pressure" => "flexvec_autotune_reason_ff_pressure_total",
        "autotune_reason_halve_tile" => "flexvec_autotune_reason_halve_tile_total",
        "autotune_reason_grow_tile" => "flexvec_autotune_reason_grow_tile_total",
        "autotune_reason_rtm_bailout" => "flexvec_autotune_reason_rtm_bailout_total",
        "autotune_reason_latency_regress" => "flexvec_autotune_reason_latency_regress_total",
        "autotune_reason_rtm_adopt" => "flexvec_autotune_reason_rtm_adopt_total",
        "autotune_vector_only" => "flexvec_autotune_vector_only_total",
        "autotune_verified" => "flexvec_autotune_verified_total",
        other => other,
    }
}

/// The pre-seeded totals key counting decisions with this reason.
fn autotune_reason_counter(reason: &str) -> &'static str {
    match reason {
        "rtm_unlock" => "autotune_reason_rtm_unlock",
        "ff_pressure" => "autotune_reason_ff_pressure",
        "halve_tile" => "autotune_reason_halve_tile",
        "grow_tile" => "autotune_reason_grow_tile",
        "rtm_bailout" => "autotune_reason_rtm_bailout",
        "latency_regress" => "autotune_reason_latency_regress",
        "rtm_adopt" => "autotune_reason_rtm_adopt",
        other => unreachable!("unknown autotune decision reason {other:?}"),
    }
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
            totals: Mutex::new({
                let mut totals = BTreeMap::from([
                    ("tier_tree", 0),
                    ("tier_bytecode", 0),
                    ("tier_native", 0),
                    ("tier_promotions", 0),
                    ("autotune_respecialize", 0),
                    ("autotune_vector_only", 0),
                    ("autotune_verified", 0),
                ]);
                for reason in DECISION_REASONS {
                    totals.insert(autotune_reason_counter(reason), 0);
                }
                totals
            }),
            tiers: Mutex::new(BTreeMap::new()),
            profiles: Mutex::new(BTreeMap::new()),
            tracked_capacity: if cache_capacity == 0 {
                TRACKED_UNBOUNDED_CAP
            } else {
                // Twice the cache: tier/profile state is tiny next to a
                // compiled plan, and surviving a round of cache churn
                // keeps the autotuner's memory of a kernel intact.
                cache_capacity.saturating_mul(2)
            },
            tune_cfg: AutotuneConfig::default(),
        }
    }

    /// Kernels currently tracked by the tier policy and the autotuner
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

    /// The speculation request one request effectively runs under: an
    /// explicit `spec` (even `"auto"`) is honored verbatim and bypasses
    /// the autotuner; implicit requests run whatever variant the
    /// kernel's profile currently holds active.
    fn effective_spec(&self, hash: u64, req: &Request) -> SpecRequest {
        if req.spec_explicit {
            return req.spec;
        }
        self.profiles
            .lock()
            .expect("profiles lock")
            .get(&hash)
            .map_or(SpecRequest::Auto, |p| p.active)
    }

    /// Feeds one implicit-spec run into the kernel's profile and
    /// applies whatever the decision state machine asks for: counters
    /// always, plus an eager re-lowering (reusing the sibling variant's
    /// dependence analysis) and a pin swap when the active spec
    /// changed.
    fn observe_and_tune(
        &self,
        kernel: &ParsedKernel,
        compiled: &CompiledKernel,
        req: &Request,
        spec: SpecRequest,
        outcome: &ExecOutcome,
    ) {
        let hash = compiled.program_hash;
        let rtm_hint = compiled
            .plan
            .as_ref()
            .err()
            .is_some_and(|e| e.to_string().contains("RTM code path"));
        let obs = Observation {
            spec,
            vectorized: compiled.plan.is_ok(),
            rtm_hint,
            invocations: req.invocations.max(1),
            wall_micros: outcome.throughput.wall.as_micros() as u64,
            simulated: outcome.simulated,
            report: &outcome.throughput,
        };
        let decision = self
            .profiles
            .lock()
            .expect("profiles lock")
            .entry(hash)
            .or_default()
            .observe(&obs, &self.tune_cfg);
        let Some(decision) = decision else { return };
        {
            let mut totals = self.totals.lock().expect("totals lock");
            *totals
                .entry(autotune_reason_counter(decision.reason))
                .or_insert(0) += 1;
            if decision.to.is_some() {
                *totals.entry("autotune_respecialize").or_insert(0) += 1;
            }
        }
        let Some(to) = decision.to else { return };
        // Build the new variant now (off the request that triggered the
        // decision, not the next one) and pin it so cache churn cannot
        // flush the plan the autotuner selected; the abandoned variant
        // becomes ordinarily evictable again.
        let _ = self
            .cache
            .get_or_respecialize(&kernel.program, &compiled.analysis, to);
        self.cache.pin(hash, to);
        if to != spec {
            self.cache.unpin(hash, spec);
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
                let spec = self.effective_spec(program_hash(&kernel.program), req);
                let t0 = Instant::now();
                let (compiled, hit) = self.cache.get_or_compile_coalesced(&kernel.program, spec);
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
                let spec = self.effective_spec(program_hash(&kernel.program), req);
                let t0 = Instant::now();
                let (compiled, hit) = self.cache.get_or_compile_coalesced(&kernel.program, spec);
                let compile_wall = t0.elapsed();
                let t1 = Instant::now();
                let outcome = self.execute(&kernel, &compiled, req, spec, cancel)?;
                let exec_wall = t1.elapsed();
                if !req.spec_explicit {
                    self.observe_and_tune(&kernel, &compiled, req, spec, &outcome);
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
    /// `spec`: on the cycle model with the scalar baseline and
    /// verification when the variant verifies (its first run, or an
    /// audit), on a [`CountingSink`] with the stored cycles otherwise.
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
        let map_exec = |stage: &str, e: flexvec_vm::ExecError| match e {
            flexvec_vm::ExecError::Cancelled => cancel_error(cancel),
            flexvec_vm::ExecError::UnsupportedWidth { vl, max_vl } => {
                ProtoError::new(ErrorKind::BadRequest, width_error(vl, max_vl))
            }
            other => ProtoError::new(
                ErrorKind::ExecError,
                format!("{stage} execution failed: {other}"),
            ),
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

        let bind_arrays = |mem: &mut AddressSpace| -> Bindings {
            let ids: Vec<_> = arrays
                .iter()
                .enumerate()
                .map(|(i, data)| mem.alloc_from(&format!("{}_{i}", program.name), data))
                .collect();
            Bindings::new(ids)
        };

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
            .replay(&key, &self.tune_cfg);
        let simulate = replay.is_none();

        // The scalar program runs when this run verifies, and on every
        // run of a scalar-only plan, where it is the answer.
        let mut scalar_state = None;
        if simulate || compiled.plan.is_err() {
            let mut mem_s = AddressSpace::new();
            let bind_s = bind_arrays(&mut mem_s);
            let mut sink = Sink::new(simulate);
            let mut scalar_final = None;
            let scalar_start = Instant::now();
            for _ in 0..invocations {
                let r = run_scalar_cancellable(
                    program,
                    &mut mem_s,
                    bind_s.clone(),
                    sink.as_dyn(),
                    cancel,
                )
                .map_err(|e| map_exec("scalar", e))?;
                scalar_final = Some(r);
            }
            scalar_state = Some(ScalarBaseline {
                wall: scalar_start.elapsed(),
                cycles: sink.cycles(),
                uops: sink.as_dyn().len(),
                run: scalar_final.expect("at least one invocation"),
                mem: mem_s,
                bind: bind_s,
            });
        }

        let Ok(plan) = &compiled.plan else {
            let base = scalar_state.expect("scalar-only plans always run the scalar program");
            let cycles = match replay {
                Some(cycles) => cycles,
                None => {
                    let scalar = base.cycles.expect("a verifying run simulates");
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
            let live_outs = program
                .live_out
                .iter()
                .map(|v| (program.var_name(*v).to_owned(), base.run.var(*v)))
                .collect();
            return Ok(ExecOutcome {
                kind: "scalar-only",
                // The scalar run is the answer: nothing to verify.
                verified: true,
                simulated: simulate,
                scalar_cycles: cycles.scalar,
                vector_cycles: cycles.vector,
                stats: VectorStats::default(),
                // The wall is the scalar loop's: it is the latency an
                // implicit-spec request actually paid, which is what
                // the autotuner's Auto-variant EWMA must see.
                throughput: ThroughputReport::new("scalar", base.wall, 0, base.uops),
                live_outs,
            });
        };

        // Vector execution on a fresh memory image, on the tier the
        // policy (or an explicit request engine) picked.
        let (engine, promoted) = self.resolve_engine(compiled.program_hash, req);
        let native = (engine == Engine::Native)
            .then(|| self.native_plan(compiled.program_hash, spec, &plan.compiled));
        self.record_tier(engine, promoted);
        let mut mem_v = AddressSpace::new();
        let bind_v = bind_arrays(&mut mem_v);
        let mut sink_v = Sink::new(simulate);
        let mut scratch = match &native {
            Some(c) => c.scratch(),
            None => plan.compiled.scratch(),
        };
        let mut vector_final = None;
        let mut last_stats = VectorStats::default();
        let mut agg_stats = VectorStats::default();
        let label = match engine {
            Engine::TreeWalking => "tree-walking",
            Engine::Compiled => "compiled",
            Engine::Native => "native",
        };
        let mut throughput = ThroughputReport::new(label, Duration::ZERO, 0, 0);
        let wall_start = Instant::now();
        for _ in 0..invocations {
            let step = match engine {
                Engine::Compiled | Engine::Native => run_vector_precompiled_cancellable(
                    program,
                    &plan.vectorized.vprog,
                    native.as_ref().unwrap_or(&plan.compiled),
                    &mut scratch,
                    &mut mem_v,
                    bind_v.clone(),
                    sink_v.as_dyn(),
                    cancel,
                ),
                Engine::TreeWalking => run_vector_with_engine_cancellable(
                    program,
                    &plan.vectorized.vprog,
                    &mut mem_v,
                    bind_v.clone(),
                    sink_v.as_dyn(),
                    Engine::TreeWalking,
                    cancel,
                ),
            };
            let (r, s) = step.map_err(|e| map_exec("vector", e))?;
            throughput.add_stats(&s);
            agg_stats.chunks += s.chunks;
            agg_stats.vpl_iterations += s.vpl_iterations;
            agg_stats.ff_fallbacks += s.ff_fallbacks;
            agg_stats.rtm_commits += s.rtm_commits;
            agg_stats.rtm_aborts += s.rtm_aborts;
            vector_final = Some(r);
            last_stats = s;
        }
        throughput.wall = wall_start.elapsed();
        throughput.uops = sink_v.as_dyn().len();
        let vector_run = vector_final.expect("at least one invocation");

        let (cycles, live_outs) = match replay {
            None => {
                let base = scalar_state.expect("a verifying run runs the scalar baseline");
                // Verification: live-outs and every array element must
                // agree with the scalar baseline.
                for v in &program.live_out {
                    if base.run.var(*v) != vector_run.var(*v) {
                        return Err(ProtoError::new(
                            ErrorKind::ExecError,
                            format!(
                                "scalar/vector mismatch: live-out {} is {} scalar vs {} vector",
                                program.var_name(*v),
                                base.run.var(*v),
                                vector_run.var(*v)
                            ),
                        ));
                    }
                }
                for i in 0..arrays.len() {
                    let a = base.bind.array(i as u32);
                    let b = bind_v.array(i as u32);
                    if base.mem.array_slice(a) != mem_v.array_slice(b) {
                        return Err(ProtoError::new(
                            ErrorKind::ExecError,
                            format!(
                                "scalar/vector mismatch: array {} differs",
                                program.array_name(flexvec_ir::ArraySym(i as u32))
                            ),
                        ));
                    }
                }
                let fresh = VariantCycles {
                    scalar: base.cycles.expect("a verifying run simulates"),
                    vector: sink_v.cycles().expect("a verifying run simulates"),
                };
                let cycles = self.settle(hash, key, fresh)?;
                *self
                    .totals
                    .lock()
                    .expect("totals lock")
                    .entry("autotune_verified")
                    .or_insert(0) += 1;
                let live_outs = program
                    .live_out
                    .iter()
                    .map(|v| (program.var_name(*v).to_owned(), base.run.var(*v)))
                    .collect();
                (cycles, live_outs)
            }
            Some(cycles) => {
                // Steady state: live-outs come from the vector run (the
                // verified-identical computation) and the cycles are
                // the ones stored when the variant verified.
                *self
                    .totals
                    .lock()
                    .expect("totals lock")
                    .entry("autotune_vector_only")
                    .or_insert(0) += 1;
                let live_outs = program
                    .live_out
                    .iter()
                    .map(|v| (program.var_name(*v).to_owned(), vector_run.var(*v)))
                    .collect();
                (cycles, live_outs)
            }
        };

        self.record_totals(&agg_stats, &throughput);
        Ok(ExecOutcome {
            kind: match plan.vectorized.kind {
                flexvec::VectorizedKind::Traditional => "traditional",
                flexvec::VectorizedKind::FlexVec => "flexvec",
            },
            verified: simulate,
            simulated: simulate,
            scalar_cycles: cycles.scalar,
            vector_cycles: cycles.vector,
            stats: last_stats,
            throughput,
            live_outs,
        })
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
        // Active-spec breakdown across autotuned kernels: one labeled
        // gauge family, both rows always present. A profile the
        // autotuner never observed (explicit-spec traffic only) holds
        // just the variant memo and is not counted.
        let (mut autos, mut rtms) = (0u64, 0u64);
        for p in self
            .profiles
            .lock()
            .expect("profiles lock")
            .values()
            .filter(|p| p.runs > 0)
        {
            match p.active {
                SpecRequest::Auto => autos += 1,
                SpecRequest::Rtm { .. } => rtms += 1,
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
        // Per-kernel autotune state, keyed by kernel hash: what the
        // autotuner currently runs and why (`flexvecc client stats
        // --json` surfaces this verbatim). Kernels it never observed
        // are left out, as in the active-spec gauge.
        let autotune_kernels: BTreeMap<String, Json> = self
            .profiles
            .lock()
            .expect("profiles lock")
            .iter()
            .filter(|(_, p)| p.runs > 0)
            .map(|(hash, p)| {
                (
                    hash_hex(*hash),
                    Json::Obj(BTreeMap::from([
                        ("spec".to_owned(), Json::from(spec_label(p.active))),
                        ("tile".to_owned(), Json::from(u64::from(p.active_tile()))),
                        ("last_reason".to_owned(), Json::from(p.last_reason)),
                        ("runs".to_owned(), Json::from(p.runs)),
                        ("verified".to_owned(), Json::from(p.is_verified(p.active))),
                    ])),
                )
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

/// The scalar program's run: final state and measurements of the
/// loop (the baseline of a verifying run, or a scalar-only plan's
/// answer).
struct ScalarBaseline {
    wall: Duration,
    /// Simulated cycles, when the run fed the cycle model.
    cycles: Option<u64>,
    uops: u64,
    run: flexvec_vm::RunResult,
    mem: AddressSpace,
    bind: Bindings,
}

/// Measured outcome of one executed request.
struct ExecOutcome {
    kind: &'static str,
    /// The reply's `verified`: the run recomputed and compared the
    /// scalar baseline (first run of a variant, or an audit), or the
    /// plan is scalar-only and the scalar run is the answer.
    verified: bool,
    /// Whether the run fed the cycle model.
    simulated: bool,
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
    /// rejected under Auto (store inside an FF VPL) with the RTM hint,
    /// clean under RTM.
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
    /// 4096-element transaction capacity. The explore tile aborts on
    /// every tile and must halve (512 × 5 = 2560 fits).
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

    #[test]
    fn autotuner_unlocks_rtm_for_hinted_scalar_only_kernel() {
        let engine = ServeEngine::new(0);
        let r = req(Op::Run, Some(RTM_WIN), None);
        let cooldown = engine.tune_cfg.cooldown_runs as usize;
        // Under Auto the kernel is scalar-only, and stays so through
        // the cooldown window.
        let mut hash = String::new();
        for _ in 0..cooldown {
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "kind").as_str(), Some("scalar-only"));
            assert_eq!(field(&out.fields, "spec").as_str(), Some("auto"));
            hash = field(&out.fields, "hash").as_str().unwrap().to_owned();
        }
        // The cooldown-closing run fired the rtm_unlock decision: the
        // next implicit request runs the re-specialized RTM variant,
        // fully verified (first run of the variant)...
        let out = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out.fields, "kind").as_str(), Some("flexvec"));
        assert_eq!(field(&out.fields, "spec").as_str(), Some("rtm:1024"));
        assert_eq!(field(&out.fields, "verified").as_bool(), Some(true));
        // ...and the run after that is vector-only steady state.
        let out = engine.handle(&r, None).unwrap();
        assert_eq!(field(&out.fields, "verified").as_bool(), Some(false));

        let stats = engine.stats_fields();
        assert_eq!(stat_u64(&stats, "autotune_respecialize_total"), 1);
        assert!(stat_u64(&stats, "autotune_vector_only_total") >= 1);
        let k = kernel_state(&stats, &hash);
        assert_eq!(k.get("spec").and_then(Json::as_str), Some("rtm:1024"));
        assert_eq!(
            k.get("last_reason").and_then(Json::as_str),
            Some("rtm_unlock")
        );
        let samples = engine.metric_samples();
        let sample = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.value)
                .unwrap_or_else(|| panic!("missing sample {name}"))
        };
        assert_eq!(sample("flexvec_autotune_respecialize_total"), 1);
        assert_eq!(sample("flexvec_autotune_reason_rtm_unlock_total"), 1);
        assert_eq!(sample("flexvec_autotune_active_spec{mode=\"rtm\"}"), 1);
    }

    #[test]
    fn explicit_spec_bypasses_the_autotuner_and_always_verifies() {
        let engine = ServeEngine::new(0);
        let mut r = req(Op::Run, Some(RTM_WIN), None);
        r.spec_explicit = true;
        // Explicit "auto" stays scalar-only forever: no profile is fed,
        // no decision ever fires, and every reply is verified (the
        // scalar run is the answer).
        for _ in 0..3 * engine.tune_cfg.cooldown_runs {
            let out = engine.handle(&r, None).unwrap();
            assert_eq!(field(&out.fields, "kind").as_str(), Some("scalar-only"));
            assert_eq!(field(&out.fields, "verified").as_bool(), Some(true));
        }
        let stats = engine.stats_fields();
        assert_eq!(stat_u64(&stats, "autotune_respecialize_total"), 0);
        assert!(
            matches!(field(&stats, "autotune_kernels"), Json::Obj(m) if m.is_empty()),
            "explicit scalar-only requests never feed the profile map"
        );

        // Pinning an RTM tile is honored verbatim, but only the
        // verification bookkeeping is shared: after the first verified
        // run the pinned variant goes vector-only, and the tuner still
        // never fires a decision.
        let mut rtm = req(Op::Run, Some(RTM_WIN), None);
        rtm.spec = SpecRequest::Rtm { tile: 1024 };
        rtm.spec_explicit = true;
        let first = engine.handle(&rtm, None).unwrap();
        assert_eq!(field(&first.fields, "spec").as_str(), Some("rtm:1024"));
        assert_eq!(field(&first.fields, "verified").as_bool(), Some(true));
        for _ in 0..2 * engine.tune_cfg.cooldown_runs {
            let out = engine.handle(&rtm, None).unwrap();
            assert_eq!(field(&out.fields, "spec").as_str(), Some("rtm:1024"));
            assert_eq!(field(&out.fields, "verified").as_bool(), Some(false));
        }
        let stats = engine.stats_fields();
        assert_eq!(stat_u64(&stats, "autotune_respecialize_total"), 0);
    }

    #[test]
    fn autotuner_halves_aborting_rtm_tile_and_leaves_clean_kernel_alone() {
        let engine = ServeEngine::new(0);
        let cooldown = engine.tune_cfg.cooldown_runs as usize;

        // Conflict-heavy kernel: unlock at 1024, abort storm (write-set
        // capacity overflow), halved to 512 at the next decision point.
        let conflicty = req(Op::Run, Some(CONFLICTY), None);
        let mut hash_c = String::new();
        for _ in 0..2 * cooldown {
            let out = engine.handle(&conflicty, None).unwrap();
            hash_c = field(&out.fields, "hash").as_str().unwrap().to_owned();
        }
        let stats = engine.stats_fields();
        let k = kernel_state(&stats, &hash_c);
        assert_eq!(k.get("spec").and_then(Json::as_str), Some("rtm:512"));
        assert_eq!(
            k.get("last_reason").and_then(Json::as_str),
            Some("halve_tile")
        );
        // The halved tile fits the transaction: the next run commits.
        let out = engine.handle(&conflicty, None).unwrap();
        assert_eq!(field(&out.fields, "spec").as_str(), Some("rtm:512"));
        assert_eq!(field(&out.fields, "kind").as_str(), Some("flexvec"));
        let samples = engine.metric_samples();
        assert!(samples
            .iter()
            .any(|s| s.name == "flexvec_engine_rtm_aborts_total" && s.value > 0));
        assert!(samples
            .iter()
            .any(|s| s.name == "flexvec_autotune_reason_halve_tile_total" && s.value == 1));

        // Clean single-store kernel: unlocked to rtm:1024 and NOT
        // halved — its writes fit the transaction.
        let clean = req(Op::Run, Some(RTM_WIN), None);
        let mut hash_k = String::new();
        for _ in 0..2 * cooldown - 1 {
            let out = engine.handle(&clean, None).unwrap();
            hash_k = field(&out.fields, "hash").as_str().unwrap().to_owned();
        }
        let stats = engine.stats_fields();
        let k = kernel_state(&stats, &hash_k);
        assert_eq!(k.get("spec").and_then(Json::as_str), Some("rtm:1024"));
        assert_eq!(
            k.get("last_reason").and_then(Json::as_str),
            Some("rtm_unlock")
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
        for _ in 0..engine.tune_cfg.audit_every {
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
