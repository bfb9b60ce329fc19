//! Online profile-guided speculation autotuning.
//!
//! FlexVec's FF-vs-RTM choice and the RTM tile size are compile-time
//! guesses, but the behaviors they gamble on — fault rate, conflict
//! rate, write-set size — are properties of the *data*. The serving
//! daemon sees the same kernels run thousands of times, and every run
//! already reports the relevant counters ([`ThroughputReport`]): this
//! module closes the loop. Per kernel hash it maintains a decaying
//! runtime profile and a small decision state machine that
//! re-specializes the cached plan — switching [`SpecRequest`] between
//! `Auto` (first-faulting / no speculation, the compiler's choice) and
//! `Rtm { tile }`, and resizing the tile — with hysteresis and a
//! cooldown so decisions don't flap.
//!
//! The decision rules:
//!
//! * **RTM unlock** — a kernel the vectorizer rejects under `Auto`
//!   with an RTM hint in the error ("stores inside a speculative VPL")
//!   is re-lowered under `Rtm` and trialed against the scalar-only
//!   latency baseline.
//! * **FF pressure** — a vectorized kernel whose first-faulting
//!   fallback rate stays high is trialed under `Rtm` (the transaction
//!   absorbs the faults wholesale instead of per-chunk scalar reruns).
//! * **Tile halving** — a high transaction abort rate (faults or
//!   write-set capacity overflows) halves the tile, down to the vector
//!   length; an abort storm at the minimum tile bails out to `Auto`.
//! * **Tile growth** — clean tiles grow back toward the maximum, but
//!   never to a size previously observed aborting (the hysteresis
//!   watermark that stops halve/grow flapping).
//! * **Latency arbitration** — a trialed RTM variant must beat the
//!   recorded `Auto` latency EWMA by the hysteresis margin or the
//!   kernel reverts and the trial is not repeated.
//!
//! Every rule only fires after [`AutotuneConfig::cooldown_runs`]
//! requests have been observed since the previous decision, and the
//! rate EWMAs are reset on each respecialization so stale evidence
//! can't double-trigger.
//!
//! The profile also carries the **verified-once** memo of the serving
//! executor. A *variant* is what a run executes apart from the engine,
//! [`VariantKey`] `(spec, vl, invocations)`: every engine emits the
//! same µop trace, so the engine is not part of it. The first run of a
//! variant executes the scalar baseline alongside the vector code, both
//! on the cycle model, verifies them element-for-element, and stores
//! the two simulated cycle counts ([`VariantCycles`]) with the variant;
//! later runs execute on a counting sink and report the stored cycles.
//! A profile keeps at most [`MAX_VARIANTS`] variants, oldest out first.
//! After [`AutotuneConfig::audit_every`] such runs of a kernel the next
//! run is an audit: it re-simulates both sides and must reproduce the
//! stored cycles exactly. Explicit `spec` requests bypass the autotuner
//! — no observations, no decisions — but share the memo and its audits,
//! so a pinned daemon and an autotuned one compare like-for-like.
//!
//! The latency EWMAs learn only from runs that did not feed the cycle
//! model. A verifying run costs several times a steady-state one, so
//! letting it in would bias each latency comparison against the variant
//! verified last (an RTM trial's first run, say). The fault, abort and
//! partition rates learn from every run.

use flexvec::SpecRequest;
use flexvec_profiler::ThroughputReport;

/// Thresholds and pacing for the decision state machine. One set per
/// daemon; the defaults are what `serve` ships with.
#[derive(Clone, Copy, Debug)]
pub struct AutotuneConfig {
    /// Requests observed between decisions for one kernel.
    pub cooldown_runs: u64,
    /// Latency EWMA samples a trialed variant needs before the
    /// latency arbitration rule may keep or reject it.
    pub min_samples: u64,
    /// RTM abort rate (aborts / attempts) above which the tile halves.
    pub abort_halve: f64,
    /// RTM abort rate below which a tile counts as clean and may grow.
    pub abort_clean: f64,
    /// FF fallback rate (fallbacks / chunks) above which an RTM trial
    /// starts for a vectorized kernel.
    pub ff_pressure: f64,
    /// Relative latency margin a trialed variant must win by (and the
    /// flap guard for reverts): 0.1 = 10%.
    pub hysteresis: f64,
    /// Smallest RTM tile (the ambient vector length at daemon start).
    pub tile_min: u32,
    /// Largest RTM tile worth trying (capacity-bound on real RTM).
    pub tile_max: u32,
    /// Tile an RTM trial starts at.
    pub explore_tile: u32,
    /// Runs of a kernel that report stored cycles between audit
    /// re-verifications.
    pub audit_every: u64,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            cooldown_runs: 4,
            min_samples: 4,
            abort_halve: 0.10,
            abort_clean: 0.01,
            ff_pressure: 0.5,
            hysteresis: 0.10,
            tile_min: flexvec_isa::vlen() as u32,
            tile_max: 1024,
            explore_tile: 1024,
            audit_every: 64,
        }
    }
}

/// An exponentially-decaying average (α = 0.3): new evidence dominates
/// within a handful of samples, old behavior fades instead of
/// anchoring the profile forever.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ewma {
    value: f64,
    samples: u64,
}

const EWMA_ALPHA: f64 = 0.3;

impl Ewma {
    /// Folds in one observation.
    pub fn update(&mut self, x: f64) {
        if self.samples == 0 {
            self.value = x;
        } else {
            self.value = EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * self.value;
        }
        self.samples += 1;
    }

    /// Current average (0.0 before any sample).
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Observations folded in since the last reset.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Discards the history (used when a respecialization invalidates
    /// the evidence the average was built from).
    pub fn reset(&mut self) {
        *self = Ewma::default();
    }
}

/// What one serviced request looked like, from the autotuner's side.
#[derive(Clone, Copy, Debug)]
pub struct Observation<'a> {
    /// The effective speculation request the run used.
    pub spec: SpecRequest,
    /// Whether the kernel vectorized under that spec.
    pub vectorized: bool,
    /// Whether a rejection's error text named the RTM code path as the
    /// unlock (the `Auto`-only stores-inside-speculative-VPL shape).
    pub rtm_hint: bool,
    /// Invocations the request ran.
    pub invocations: u64,
    /// Wall time of the execution step, microseconds.
    pub wall_micros: u64,
    /// Whether the run fed the cycle model (it verified). Its wall time
    /// is not comparable with a steady-state run's, so it stays out of
    /// the latency EWMAs.
    pub simulated: bool,
    /// The run's throughput/speculation counters (all tiers report the
    /// same shape).
    pub report: &'a ThroughputReport,
}

/// A decision the state machine produced. `to == None` keeps the
/// current spec (e.g. adopting a trialed variant); `Some(spec)`
/// requests a re-specialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The new active spec, when it changes.
    pub to: Option<SpecRequest>,
    /// Stable reason slug (a metrics counter name suffix).
    pub reason: &'static str,
}

/// What one run executes apart from the engine: the memo key of a
/// verified variant. Every tier emits the same µop trace, so the
/// engine is not part of it (an audit would catch a tier that
/// diverged).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VariantKey {
    /// The effective speculation request.
    pub spec: SpecRequest,
    /// The vector length in lanes.
    pub vl: usize,
    /// Invocations per request (cache warmth carries across them, so
    /// cycles do not scale linearly).
    pub invocations: u64,
}

/// The simulated cycles of a verified variant, as the verifying run
/// measured them over all its invocations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VariantCycles {
    /// Scalar baseline cycles.
    pub scalar: u64,
    /// Vector cycles (the scalar cycles again for a scalar-only plan).
    pub vector: u64,
}

/// Verified variants one kernel profile remembers; the oldest
/// verification is dropped first.
pub const MAX_VARIANTS: usize = 8;

/// Which latency book an observation belongs to.
fn variant_of(spec: SpecRequest) -> usize {
    match spec {
        SpecRequest::Auto => 0,
        SpecRequest::Rtm { .. } => 1,
    }
}

/// The per-kernel-hash runtime profile plus decision state.
#[derive(Clone, Debug)]
pub struct KernelProfile {
    /// The spec implicit-spec requests currently run with.
    pub active: SpecRequest,
    /// Requests observed in total.
    pub runs: u64,
    /// Requests observed since the last decision.
    runs_since_decision: u64,
    /// FF fallbacks per chunk, decaying.
    pub ff_fallback_rate: Ewma,
    /// RTM aborts per transaction attempt, decaying.
    pub rtm_abort_rate: Ewma,
    /// VPL partitions per chunk (conflict pressure), decaying.
    pub partitions_per_chunk: Ewma,
    /// Per-invocation execution latency EWMAs, `[Auto, Rtm]`.
    latency: [Ewma; 2],
    /// An RTM trial is in flight (latency arbitration pending).
    exploring: bool,
    /// RTM lost a latency trial or aborted out at the minimum tile:
    /// don't re-trial.
    rtm_rejected: bool,
    /// Smallest tile observed aborting heavily — growth stops below it.
    bad_tile: Option<u32>,
    /// Reason slug of the last decision (`"none"` before any).
    pub last_reason: &'static str,
    /// Verified variants with their simulated cycles, oldest
    /// verification first, at most [`MAX_VARIANTS`].
    variants: Vec<(VariantKey, VariantCycles)>,
    /// Runs of any variant that reported stored cycles since the
    /// kernel's last verification.
    runs_since_verify: u64,
}

impl Default for KernelProfile {
    fn default() -> Self {
        KernelProfile {
            active: SpecRequest::Auto,
            runs: 0,
            runs_since_decision: 0,
            ff_fallback_rate: Ewma::default(),
            rtm_abort_rate: Ewma::default(),
            partitions_per_chunk: Ewma::default(),
            latency: [Ewma::default(); 2],
            exploring: false,
            rtm_rejected: false,
            bad_tile: None,
            last_reason: "none",
            variants: Vec::new(),
            runs_since_verify: 0,
        }
    }
}

impl KernelProfile {
    /// Whether the next run of `key` must feed the cycle model and
    /// verify: the variant has no stored cycles, or an audit is due.
    ///
    /// Sound only because requests cannot supply inputs. Every run of a
    /// kernel materializes the same arrays from its source
    /// (`ParsedKernel::materialize_arrays`), so live-outs, memory and
    /// cycles are a pure function of (kernel hash, `key`). If requests
    /// could carry data, neither the stored cycles nor the gate that
    /// skips the scalar comparison would hold.
    pub fn needs_verify(&self, key: &VariantKey, cfg: &AutotuneConfig) -> bool {
        self.verified_cycles(key).is_none() || self.runs_since_verify >= cfg.audit_every
    }

    /// The stored cycles of a verified variant.
    fn verified_cycles(&self, key: &VariantKey) -> Option<VariantCycles> {
        self.variants
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, cycles)| cycles)
    }

    /// The stored cycles the next run of `key` reports instead of
    /// simulating, counting that run toward the kernel's next audit;
    /// `None` when the run must verify.
    pub fn replay(&mut self, key: &VariantKey, cfg: &AutotuneConfig) -> Option<VariantCycles> {
        if self.needs_verify(key, cfg) {
            return None;
        }
        self.runs_since_verify += 1;
        self.verified_cycles(key)
    }

    /// Settles a verifying run of `key` that simulated `fresh` cycles.
    /// Stored cycles must match exactly: an audit that disagrees drops
    /// the entry, so the next run verifies from scratch, and returns
    /// the stored cycles as the error. Otherwise `fresh` becomes the
    /// newest entry and the audit clock restarts.
    pub fn settle(&mut self, key: VariantKey, fresh: VariantCycles) -> Result<(), VariantCycles> {
        let stored = self.verified_cycles(&key);
        self.forget(&key);
        if let Some(stored) = stored.filter(|s| *s != fresh) {
            return Err(stored);
        }
        if self.variants.len() == MAX_VARIANTS {
            self.variants.remove(0);
        }
        self.variants.push((key, fresh));
        self.runs_since_verify = 0;
        Ok(())
    }

    /// Drops the stored cycles of `key`.
    pub fn forget(&mut self, key: &VariantKey) {
        self.variants.retain(|(k, _)| k != key);
    }

    /// Whether some variant of `spec` has stored cycles.
    pub fn is_verified(&self, spec: SpecRequest) -> bool {
        self.variants.iter().any(|(k, _)| k.spec == spec)
    }

    /// The RTM tile of the active spec, 0 under `Auto` (for reports).
    pub fn active_tile(&self) -> u32 {
        match self.active {
            SpecRequest::Auto => 0,
            SpecRequest::Rtm { tile } => tile,
        }
    }

    /// Folds one request's measurements into the profile and runs the
    /// decision rules. Call only for implicit-spec requests — explicit
    /// specs bypass the autotuner entirely.
    pub fn observe(&mut self, obs: &Observation<'_>, cfg: &AutotuneConfig) -> Option<Decision> {
        self.runs += 1;
        self.runs_since_decision += 1;
        self.ff_fallback_rate.update(obs.report.ff_fallback_rate());
        self.rtm_abort_rate.update(obs.report.rtm_abort_rate());
        self.partitions_per_chunk
            .update(obs.report.partitions_per_chunk());
        if !obs.simulated {
            let per_inv = obs.wall_micros as f64 / obs.invocations.max(1) as f64;
            self.latency[variant_of(obs.spec)].update(per_inv);
        }

        if self.runs_since_decision < cfg.cooldown_runs {
            return None;
        }
        let decision = self.decide(obs, cfg)?;
        self.runs_since_decision = 0;
        self.last_reason = decision.reason;
        if let Some(to) = decision.to {
            self.active = to;
            // The spec just changed: rate evidence gathered under the
            // old plan must not trigger the next rule, and a resized
            // tile starts a fresh latency book.
            self.rtm_abort_rate.reset();
            self.ff_fallback_rate.reset();
            if matches!(to, SpecRequest::Rtm { .. }) {
                self.latency[1].reset();
            }
        }
        Some(decision)
    }

    /// The rules themselves (cooldown already checked).
    fn decide(&mut self, obs: &Observation<'_>, cfg: &AutotuneConfig) -> Option<Decision> {
        match self.active {
            SpecRequest::Auto => {
                if self.rtm_rejected {
                    return None;
                }
                if !obs.vectorized && obs.rtm_hint {
                    self.exploring = true;
                    return Some(Decision {
                        to: Some(SpecRequest::Rtm {
                            tile: cfg.explore_tile,
                        }),
                        reason: "rtm_unlock",
                    });
                }
                if obs.vectorized && self.ff_fallback_rate.get() > cfg.ff_pressure {
                    self.exploring = true;
                    return Some(Decision {
                        to: Some(SpecRequest::Rtm {
                            tile: cfg.explore_tile,
                        }),
                        reason: "ff_pressure",
                    });
                }
                None
            }
            SpecRequest::Rtm { tile } => {
                if self.rtm_abort_rate.get() > cfg.abort_halve {
                    if tile > cfg.tile_min {
                        self.bad_tile = Some(self.bad_tile.map_or(tile, |b| b.min(tile)));
                        return Some(Decision {
                            to: Some(SpecRequest::Rtm {
                                tile: (tile / 2).max(cfg.tile_min),
                            }),
                            reason: "halve_tile",
                        });
                    }
                    // Aborting even at the minimum tile: RTM is wrong
                    // for this data, permanently.
                    self.exploring = false;
                    self.rtm_rejected = true;
                    return Some(Decision {
                        to: Some(SpecRequest::Auto),
                        reason: "rtm_bailout",
                    });
                }
                if self.exploring && self.latency[1].samples() >= cfg.min_samples {
                    let auto = self.latency[0].get();
                    let rtm = self.latency[1].get();
                    if auto > 0.0 && rtm >= auto * (1.0 - cfg.hysteresis) {
                        self.exploring = false;
                        self.rtm_rejected = true;
                        return Some(Decision {
                            to: Some(SpecRequest::Auto),
                            reason: "latency_regress",
                        });
                    }
                    self.exploring = false;
                    return Some(Decision {
                        to: None,
                        reason: "rtm_adopt",
                    });
                }
                let grown = tile.saturating_mul(2);
                if self.rtm_abort_rate.get() < cfg.abort_clean
                    && self.rtm_abort_rate.samples() >= cfg.min_samples
                    && grown <= cfg.tile_max
                    && self.bad_tile.is_none_or(|bad| grown < bad)
                {
                    return Some(Decision {
                        to: Some(SpecRequest::Rtm { tile: grown }),
                        reason: "grow_tile",
                    });
                }
                None
            }
        }
    }
}

/// Stable list of decision-reason slugs, for pre-seeding the metrics
/// rows (every reason appears in `/metrics` from the first scrape).
pub const DECISION_REASONS: &[&str] = &[
    "rtm_unlock",
    "ff_pressure",
    "halve_tile",
    "grow_tile",
    "rtm_bailout",
    "latency_regress",
    "rtm_adopt",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn report(chunks: u64, ff: u64, commits: u64, aborts: u64) -> ThroughputReport {
        let mut r = ThroughputReport::new("compiled", Duration::from_micros(100), 0, 0);
        r.chunks = chunks;
        r.vpl_iterations = chunks;
        r.ff_fallbacks = ff;
        r.rtm_commits = commits;
        r.rtm_aborts = aborts;
        r
    }

    fn feed(
        p: &mut KernelProfile,
        cfg: &AutotuneConfig,
        n: u64,
        mk: impl Fn() -> ThroughputReport,
        vectorized: bool,
        rtm_hint: bool,
        wall_micros: u64,
    ) -> Vec<Decision> {
        let mut out = Vec::new();
        for _ in 0..n {
            let r = mk();
            let obs = Observation {
                spec: p.active,
                vectorized,
                rtm_hint,
                invocations: 1,
                wall_micros,
                simulated: false,
                report: &r,
            };
            if let Some(d) = p.observe(&obs, cfg) {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn scalar_only_with_rtm_hint_unlocks_rtm_after_cooldown() {
        let cfg = AutotuneConfig::default();
        let mut p = KernelProfile::default();
        // Below the cooldown: no decision yet.
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs - 1,
            || report(0, 0, 0, 0),
            false,
            true,
            5000,
        );
        assert!(d.is_empty(), "cooldown holds: {d:?}");
        let d = feed(&mut p, &cfg, 1, || report(0, 0, 0, 0), false, true, 5000);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].reason, "rtm_unlock");
        assert_eq!(
            p.active,
            SpecRequest::Rtm {
                tile: cfg.explore_tile
            }
        );
    }

    #[test]
    fn rtm_trial_is_adopted_when_faster_and_reverted_when_slower() {
        let cfg = AutotuneConfig::default();
        // Faster under RTM: adopt.
        let mut p = KernelProfile::default();
        feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs,
            || report(0, 0, 0, 0),
            false,
            true,
            5000,
        );
        assert!(matches!(p.active, SpecRequest::Rtm { .. }));
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs.max(cfg.min_samples),
            || report(64, 0, 4, 0),
            true,
            false,
            1000,
        );
        assert_eq!(d.last().map(|d| d.reason), Some("rtm_adopt"));
        assert!(matches!(p.active, SpecRequest::Rtm { .. }), "kept");

        // Slower under RTM: revert, and never re-trial.
        let mut p = KernelProfile::default();
        feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs,
            || report(0, 0, 0, 0),
            false,
            true,
            1000,
        );
        assert!(matches!(p.active, SpecRequest::Rtm { .. }));
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs.max(cfg.min_samples),
            || report(64, 0, 4, 0),
            true,
            false,
            5000,
        );
        assert_eq!(d.last().map(|d| d.reason), Some("latency_regress"));
        assert_eq!(p.active, SpecRequest::Auto);
        let d = feed(
            &mut p,
            &cfg,
            3 * cfg.cooldown_runs,
            || report(0, 0, 0, 0),
            false,
            true,
            5000,
        );
        assert!(d.is_empty(), "rejected RTM is not re-trialed: {d:?}");
    }

    #[test]
    fn abort_storms_halve_the_tile_down_to_bailout() {
        let cfg = AutotuneConfig::default();
        let mut p = KernelProfile {
            active: SpecRequest::Rtm { tile: 64 },
            ..KernelProfile::default()
        };
        // Every tile aborts: 64 → 32 → 16 (= tile_min), then an abort
        // storm at the minimum tile bails out to Auto for good.
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs * 4,
            || report(16, 0, 0, 8),
            true,
            false,
            1000,
        );
        let reasons: Vec<_> = d.iter().map(|d| d.reason).collect();
        assert_eq!(reasons, vec!["halve_tile", "halve_tile", "rtm_bailout"]);
        assert_eq!(p.active, SpecRequest::Auto);
        assert!(p.rtm_rejected);
    }

    #[test]
    fn clean_tiles_grow_but_never_to_a_known_bad_size() {
        let cfg = AutotuneConfig::default();
        let mut p = KernelProfile {
            active: SpecRequest::Rtm { tile: 256 },
            ..KernelProfile::default()
        };
        // Abort-heavy at 256: halve to 128 and remember 256 as bad.
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs,
            || report(16, 0, 0, 8),
            true,
            false,
            1000,
        );
        assert_eq!(d.last().map(|d| d.reason), Some("halve_tile"));
        assert_eq!(p.active, SpecRequest::Rtm { tile: 128 });
        // Clean at 128: growth is blocked by the 256 watermark — no
        // halve/grow flapping.
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs * 4,
            || report(16, 0, 8, 0),
            true,
            false,
            1000,
        );
        assert!(d.is_empty(), "no flap past the bad-tile watermark: {d:?}");
        assert_eq!(p.active, SpecRequest::Rtm { tile: 128 });
    }

    #[test]
    fn clean_tiles_grow_toward_the_cap() {
        let cfg = AutotuneConfig::default();
        let mut p = KernelProfile {
            active: SpecRequest::Rtm { tile: 256 },
            ..KernelProfile::default()
        };
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs * 6,
            || report(16, 0, 8, 0),
            true,
            false,
            1000,
        );
        let reasons: Vec<_> = d.iter().map(|d| d.reason).collect();
        assert_eq!(reasons, vec!["grow_tile", "grow_tile"]);
        assert_eq!(p.active, SpecRequest::Rtm { tile: 1024 }, "capped");
    }

    #[test]
    fn ff_pressure_triggers_an_rtm_trial() {
        let cfg = AutotuneConfig::default();
        let mut p = KernelProfile::default();
        // Vectorized under Auto but most chunks fall back to scalar.
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs,
            || report(16, 12, 0, 0),
            true,
            false,
            4000,
        );
        assert_eq!(d.last().map(|d| d.reason), Some("ff_pressure"));
        assert!(matches!(p.active, SpecRequest::Rtm { .. }));
    }

    #[test]
    fn clean_auto_kernels_are_left_alone() {
        let cfg = AutotuneConfig::default();
        let mut p = KernelProfile::default();
        let d = feed(
            &mut p,
            &cfg,
            cfg.cooldown_runs * 8,
            || report(64, 0, 0, 0),
            true,
            false,
            1000,
        );
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(p.active, SpecRequest::Auto);
        assert_eq!(p.last_reason, "none");
    }

    fn key(spec: SpecRequest, vl: usize, invocations: u64) -> VariantKey {
        VariantKey {
            spec,
            vl,
            invocations,
        }
    }

    #[test]
    fn verification_bookkeeping_audits_periodically() {
        let cfg = AutotuneConfig {
            audit_every: 3,
            ..AutotuneConfig::default()
        };
        let mut p = KernelProfile::default();
        let k = key(SpecRequest::Auto, 16, 1);
        let cycles = VariantCycles {
            scalar: 500,
            vector: 200,
        };
        assert!(p.needs_verify(&k, &cfg), "first run verifies");
        assert_eq!(p.replay(&k, &cfg), None);
        assert_eq!(p.settle(k, cycles), Ok(()));
        // Every other spec, width and invocation count is a variant of
        // its own and needs its own verification.
        for other in [
            key(SpecRequest::Rtm { tile: 64 }, 16, 1),
            key(SpecRequest::Auto, 32, 1),
            key(SpecRequest::Auto, 16, 3),
        ] {
            assert!(p.needs_verify(&other, &cfg), "{other:?}");
        }
        for _ in 0..3 {
            assert_eq!(p.replay(&k, &cfg), Some(cycles));
        }
        assert!(p.needs_verify(&k, &cfg), "audit after audit_every runs");
        assert_eq!(p.replay(&k, &cfg), None);
        assert_eq!(p.settle(k, cycles), Ok(()), "the audit matches");
        assert_eq!(p.replay(&k, &cfg), Some(cycles));
        // An audit that disagrees drops the entry and reports what was
        // stored; the next run verifies.
        let drift = VariantCycles {
            scalar: 501,
            ..cycles
        };
        assert_eq!(p.settle(k, drift), Err(cycles));
        assert_eq!(p.verified_cycles(&k), None);
        assert!(p.needs_verify(&k, &cfg));
    }

    #[test]
    fn variant_memo_is_bounded_oldest_first() {
        let mut p = KernelProfile::default();
        let cycles = |n: u64| VariantCycles {
            scalar: n,
            vector: n,
        };
        for n in 1..=MAX_VARIANTS as u64 + 1 {
            p.settle(key(SpecRequest::Auto, 16, n), cycles(n)).unwrap();
        }
        assert_eq!(p.variants.len(), MAX_VARIANTS);
        assert_eq!(p.verified_cycles(&key(SpecRequest::Auto, 16, 1)), None);
        assert_eq!(
            p.verified_cycles(&key(SpecRequest::Auto, 16, 2)),
            Some(cycles(2))
        );
        // Re-verifying a stored variant refreshes it: it is now the
        // newest, and the next insertion drops the one after it.
        p.settle(key(SpecRequest::Auto, 16, 2), cycles(2)).unwrap();
        p.settle(key(SpecRequest::Auto, 16, 100), cycles(100))
            .unwrap();
        assert!(p.verified_cycles(&key(SpecRequest::Auto, 16, 2)).is_some());
        assert_eq!(p.verified_cycles(&key(SpecRequest::Auto, 16, 3)), None);
        assert!(p.is_verified(SpecRequest::Auto));
        assert!(!p.is_verified(SpecRequest::Rtm { tile: 64 }));
    }

    #[test]
    fn simulated_runs_stay_out_of_the_latency_books() {
        let cfg = AutotuneConfig::default();
        let mut p = KernelProfile::default();
        let r = report(16, 12, 0, 0);
        let mut obs = Observation {
            spec: SpecRequest::Auto,
            vectorized: true,
            rtm_hint: false,
            invocations: 1,
            wall_micros: 9000,
            simulated: true,
            report: &r,
        };
        p.observe(&obs, &cfg);
        assert_eq!(
            p.latency[0].samples(),
            0,
            "a verifying run is not a latency sample"
        );
        assert!(p.ff_fallback_rate.get() > 0.0, "rates learn from every run");
        obs.simulated = false;
        obs.wall_micros = 1000;
        p.observe(&obs, &cfg);
        assert_eq!(p.latency[0].samples(), 1);
        assert_eq!(p.latency[0].get(), 1000.0);
    }

    #[test]
    fn every_decision_reason_is_preseedable() {
        for reason in [
            "rtm_unlock",
            "ff_pressure",
            "halve_tile",
            "grow_tile",
            "rtm_bailout",
            "latency_regress",
            "rtm_adopt",
        ] {
            assert!(DECISION_REASONS.contains(&reason));
        }
    }
}
