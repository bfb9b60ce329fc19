//! Speculation chosen by simulated cycles, and the verified-once memo.
//!
//! FlexVec settles speculation at compile time: first-faulting loads
//! for the loops they can handle, strip-mined RTM for the rest, both
//! judged in Table 1 cycles (§3.3.2). The daemon decides the same way.
//! An implicit-spec request runs the candidate whose verifying run
//! simulated the fewest vector cycles at the request's
//! `(vl, invocations)`:
//!
//! * a kernel that `Auto` vectorizes has one candidate, `Auto`;
//! * a kernel that `Auto` refuses with [`VectorizeError::RtmOnly`]
//!   (stores inside a first-faulting VPL) has the whole [`LADDER`]:
//!   `Auto`, whose plan is scalar-only, then the RTM tiles 1024, 256,
//!   64 and 16.
//!
//! Candidates are explored lazily, in ladder order, one per request,
//! so exploring costs a request one verifying run, like any new
//! variant. A candidate that cannot run at the request's width is
//! skipped at that width. Once every candidate has its cycles, the
//! choice is the one with the fewest, ties going to the earlier
//! candidate. Cycles are a pure function of `(kernel, spec, vl,
//! invocations)` (see [`KernelProfile::next`]), so the choice
//! is exact and deterministic. Each [`Choice`] keeps its own table,
//! apart from the memo, so evicting the variants that lost does not
//! reopen it.
//!
//! The candidate set is narrow on purpose. RTM beats first-faulting in
//! cycles on some kernels that `Auto` vectorizes (`rtm_sweep` puts
//! GZIP, ZLIB and h264ref slightly below FF); opening every kernel to
//! the ladder would move them onto the transactional path and add four
//! verifying runs per kernel to every first contact. The ladder itself
//! reaches down to 16 because a tile whose stores overflow the
//! transaction write set aborts and reruns scalar: a kernel storing
//! many arrays per iteration wants the largest tile that fits (the
//! `autotune` integration test has kernels settling on 64 and 16).
//!
//! The profile also carries the **verified-once** memo of the serving
//! executor. A *variant* is what a run executes apart from the engine,
//! [`VariantKey`] `(spec, vl, invocations)`: every engine emits the
//! same µop trace, so the engine is not part of it. The first run of a
//! variant executes the scalar baseline alongside the vector code, both
//! on the cycle model, verifies them element-for-element, and stores a
//! [`Verified`] entry with the variant: the two simulated cycle counts
//! ([`VariantCycles`]), the [`Record`] of what the run established (the
//! oracle's five facts with one digest per array, and the answering
//! run's µop count and trace fingerprint), and a checksum over both.
//! Every later run is a *replay*: it executes the answering program on
//! a counting sink, checks its facts and µop count against the record,
//! and reports the stored cycles. A profile keeps at most
//! [`MAX_VARIANTS`] variants, oldest out first. After [`AUDIT_EVERY`]
//! replays of a kernel the next run is an *audit*: it also
//! fingerprints the answering run's trace and checks it, and the
//! entry's checksum. Any difference fails the request and drops the
//! entry, so the next run verifies again. Explicit `spec` requests
//! bypass the choice but share the memo and its audits, so a pinned
//! daemon and an autotuned one compare like-for-like.
//!
//! [`VectorizeError::RtmOnly`]: flexvec::VectorizeError::RtmOnly

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use flexvec::SpecRequest;
use flexvec_vm::Record;

/// The candidates of a kernel that only RTM vectorizes, in exploration
/// order. A kernel that `Auto` vectorizes has just the first.
pub const LADDER: [SpecRequest; 5] = [
    SpecRequest::Auto,
    SpecRequest::Rtm { tile: 1024 },
    SpecRequest::Rtm { tile: 256 },
    SpecRequest::Rtm { tile: 64 },
    SpecRequest::Rtm { tile: 16 },
];

/// Replays of a kernel between audits.
pub const AUDIT_EVERY: u64 = 64;

/// Verified variants one kernel profile remembers; the oldest
/// verification is dropped first.
pub const MAX_VARIANTS: usize = 8;

/// `(vl, invocations)` choices one kernel profile remembers; the oldest
/// is dropped first.
pub const MAX_CHOICES: usize = 8;

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VariantCycles {
    /// Scalar baseline cycles.
    pub scalar: u64,
    /// Vector cycles (the scalar cycles again for a scalar-only plan).
    pub vector: u64,
}

/// A verified variant's memo entry: the cycles its verifying run
/// simulated, the record later runs are checked against, and a
/// checksum over both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verified {
    /// The cycles every later run reports.
    pub(crate) cycles: VariantCycles,
    /// What the verifying run established.
    pub(crate) record: Record,
    checksum: u64,
}

impl Verified {
    /// `cycles` and `record`, sealed with their checksum.
    pub fn new(cycles: VariantCycles, record: Record) -> Self {
        let checksum = checksum(&cycles, &record);
        Verified {
            cycles,
            record,
            checksum,
        }
    }

    /// Whether the cycles and the record are still what was sealed.
    pub fn intact(&self) -> bool {
        checksum(&self.cycles, &self.record) == self.checksum
    }
}

fn checksum(cycles: &VariantCycles, record: &Record) -> u64 {
    let mut hasher = DefaultHasher::new();
    cycles.hash(&mut hasher);
    record.hash(&mut hasher);
    hasher.finish()
}

/// What the next run of a variant does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Next {
    /// Nothing is stored: run the scalar oracle and the answering
    /// program on the cycle model, compare them, and store the result.
    Verify,
    /// Run the answering program on a counter and check it against the
    /// stored record.
    Replay(Verified),
    /// Run it on a fingerprinting sink, and check its trace and the
    /// entry's checksum as well.
    Audit(Verified),
}

/// The table behind the choice at one `(vl, invocations)`.
#[derive(Clone, Debug)]
pub struct Choice {
    /// The vector length in lanes.
    pub vl: usize,
    /// Invocations per request.
    pub invocations: u64,
    /// The candidates, in ladder order.
    candidates: &'static [SpecRequest],
    /// Vector cycles of the candidates explored so far, in ladder
    /// order; `None` for one skipped at this width.
    cycles: Vec<Option<u64>>,
}

impl Choice {
    /// The spec with the fewest vector cycles, the earlier on a tie,
    /// once every candidate is explored.
    pub fn chosen(&self) -> Option<SpecRequest> {
        if self.cycles.len() < self.candidates.len() {
            return None;
        }
        self.candidates
            .iter()
            .zip(&self.cycles)
            .filter_map(|(&spec, &cycles)| Some((spec, cycles?)))
            .min_by_key(|&(_, cycles)| cycles)
            .map(|(spec, _)| spec)
    }

    /// The explored candidates with their vector cycles (`None`:
    /// skipped at this width).
    pub fn table(&self) -> impl Iterator<Item = (SpecRequest, Option<u64>)> + '_ {
        self.candidates
            .iter()
            .copied()
            .zip(self.cycles.iter().copied())
    }
}

/// What an implicit-spec request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// The settled choice.
    Chosen(SpecRequest),
    /// The candidate at this ladder index, still to be explored.
    Explore(usize),
}

/// The serving state of one registered kernel, kept in its registry
/// entry and dropped with it: speculation choices and the
/// verified-once memo.
#[derive(Debug, Default)]
pub struct KernelProfile {
    /// One table per `(vl, invocations)` seen on implicit-spec
    /// requests, oldest first, at most [`MAX_CHOICES`].
    choices: Vec<Choice>,
    /// Verified variants, oldest verification or audit first, at most
    /// [`MAX_VARIANTS`].
    variants: Vec<(VariantKey, Verified)>,
    /// Replays of any variant since the kernel's last verification or
    /// audit.
    runs_since_verify: u64,
}

impl KernelProfile {
    fn choice(&self, vl: usize, invocations: u64) -> Option<&Choice> {
        self.choices
            .iter()
            .find(|c| c.vl == vl && c.invocations == invocations)
    }

    /// What the next implicit-spec request at `(vl, invocations)` runs:
    /// the settled choice, or the next candidate to explore (the first,
    /// `Auto`, for a pair with no table yet).
    pub fn pick(&self, vl: usize, invocations: u64) -> Pick {
        match self.choice(vl, invocations) {
            None => Pick::Explore(0),
            Some(choice) => choice
                .chosen()
                .map_or(Pick::Explore(choice.cycles.len()), Pick::Chosen),
        }
    }

    /// Records the vector cycles of the candidate at `index` of
    /// `candidates` (`None`: it cannot run at this width). The first
    /// candidate's record opens the table for `(vl, invocations)`, so a
    /// request that fails opens none. Concurrent requests may explore
    /// the same candidate; the first record counts. Returns the choice
    /// when this record settled it.
    pub fn record(
        &mut self,
        vl: usize,
        invocations: u64,
        candidates: &'static [SpecRequest],
        index: usize,
        cycles: Option<u64>,
    ) -> Option<SpecRequest> {
        if index == 0 && self.choice(vl, invocations).is_none() {
            if self.choices.len() == MAX_CHOICES {
                self.choices.remove(0);
            }
            self.choices.push(Choice {
                vl,
                invocations,
                candidates,
                cycles: Vec::new(),
            });
        }
        let choice = self
            .choices
            .iter_mut()
            .find(|c| c.vl == vl && c.invocations == invocations)?;
        if choice.cycles.len() != index {
            return None;
        }
        choice.cycles.push(cycles);
        choice.chosen()
    }

    /// Every `(vl, invocations)` table, oldest first.
    pub fn choices(&self) -> &[Choice] {
        &self.choices
    }

    /// What the next run of `key` does: verify when nothing is stored,
    /// audit when [`AUDIT_EVERY`] replays of the kernel have passed
    /// since its last verification or audit, and replay otherwise,
    /// counting toward that audit.
    ///
    /// Sound only because requests cannot supply inputs. Every run of a
    /// kernel materializes the same arrays from its source
    /// (`ParsedKernel::materialize_arrays`), so live-outs, memory, the
    /// µop stream and the cycles are a pure function of (kernel hash,
    /// `key`). If requests could carry data, neither the stored cycles
    /// nor a record to check later runs against would hold.
    pub fn next(&mut self, key: &VariantKey) -> Next {
        let Some(stored) = self.verified(key).cloned() else {
            return Next::Verify;
        };
        if self.runs_since_verify >= AUDIT_EVERY {
            return Next::Audit(stored);
        }
        self.runs_since_verify += 1;
        Next::Replay(stored)
    }

    /// The entry of a verified variant.
    fn verified(&self, key: &VariantKey) -> Option<&Verified> {
        self.variants
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, entry)| entry)
    }

    /// Stores `entry` for `key` as the newest, after a verifying run or
    /// a passed audit, and restarts the audit clock.
    pub fn settle(&mut self, key: VariantKey, entry: Verified) {
        self.forget(&key);
        if self.variants.len() == MAX_VARIANTS {
            self.variants.remove(0);
        }
        self.variants.push((key, entry));
        self.runs_since_verify = 0;
    }

    /// Drops the entry of `key`.
    pub fn forget(&mut self, key: &VariantKey) {
        self.variants.retain(|(k, _)| k != key);
    }

    /// The stored entry of `key`, to edit in tests.
    #[cfg(test)]
    pub(crate) fn entry_mut(&mut self, key: &VariantKey) -> Option<&mut Verified> {
        self.variants
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, entry)| entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RTM_1024: SpecRequest = SpecRequest::Rtm { tile: 1024 };

    /// Explores every candidate at `(vl, invocations)`, recording
    /// `cycles[i]` for the candidate at ladder index `i`.
    fn explore(p: &mut KernelProfile, vl: usize, invocations: u64, cycles: &[Option<u64>]) {
        for (index, &c) in cycles.iter().enumerate() {
            assert_eq!(p.pick(vl, invocations), Pick::Explore(index));
            p.record(vl, invocations, &LADDER, index, c);
        }
    }

    #[test]
    fn candidates_are_explored_in_ladder_order_one_per_call() {
        let mut p = KernelProfile::default();
        // Asking opens no table; only a record does.
        assert_eq!(p.pick(16, 1), Pick::Explore(0));
        assert!(p.choices().is_empty());
        for (index, cycles) in [5188, 3106, 3106, 3110, 3178].into_iter().enumerate() {
            // Asking again without a record explores the same candidate.
            assert_eq!(p.pick(16, 1), Pick::Explore(index));
            assert_eq!(p.pick(16, 1), Pick::Explore(index));
            let settled = p.record(16, 1, &LADDER, index, Some(cycles));
            assert_eq!(settled.is_some(), index == LADDER.len() - 1);
        }
        // A late record of an explored candidate (a concurrent request)
        // changes nothing.
        assert_eq!(p.record(16, 1, &LADDER, 2, Some(1)), None);
        assert_eq!(p.pick(16, 1), Pick::Chosen(RTM_1024));
        let table: Vec<_> = p.choices()[0].table().collect();
        assert_eq!(table.len(), LADDER.len());
        assert_eq!(table[2], (SpecRequest::Rtm { tile: 256 }, Some(3106)));
        // A record past the first for a pair with no table opens none.
        assert_eq!(p.record(32, 1, &LADDER, 1, Some(1)), None);
        assert_eq!(p.choices().len(), 1);
    }

    #[test]
    fn the_rule_picks_the_fewest_cycles_and_the_earlier_on_a_tie() {
        let mut p = KernelProfile::default();
        // CONFLICTY at 1 invocation: the scalar-only Auto plan wins.
        explore(
            &mut p,
            16,
            1,
            &[
                Some(71252),
                Some(99173),
                Some(77573),
                Some(77597),
                Some(77693),
            ],
        );
        assert_eq!(p.pick(16, 1), Pick::Chosen(SpecRequest::Auto));
        // RTM_WIN: 1024 and 256 tie; the earlier candidate wins.
        explore(
            &mut p,
            16,
            3,
            &[Some(5188), Some(3106), Some(3106), Some(3110), Some(3178)],
        );
        assert_eq!(p.pick(16, 3), Pick::Chosen(RTM_1024));
        // A candidate skipped at this width never wins.
        explore(&mut p, 32, 1, &[Some(900), Some(800), None, None, None]);
        assert_eq!(p.pick(32, 1), Pick::Chosen(RTM_1024));
        // A one-candidate kernel settles on its first record.
        assert_eq!(p.pick(8, 1), Pick::Explore(0));
        assert_eq!(
            p.record(8, 1, &LADDER[..1], 0, Some(7)),
            Some(SpecRequest::Auto)
        );
        assert_eq!(p.pick(8, 1), Pick::Chosen(SpecRequest::Auto));
    }

    #[test]
    fn a_choice_survives_memo_eviction_of_the_candidates_that_lost() {
        let mut p = KernelProfile::default();
        let cycles = [148424, 59915, 59975, 60231, 64327];
        // Two pairs explore five candidates each, verifying every one:
        // ten variants through an eight-entry memo.
        for (vl, invocations) in [(16, 3), (32, 1)] {
            for (index, &vector) in cycles.iter().enumerate() {
                assert_eq!(p.pick(vl, invocations), Pick::Explore(index));
                let variant = key(LADDER[index], vl, invocations);
                assert_eq!(p.next(&variant), Next::Verify);
                p.settle(variant, entry(cycles[0], vector));
                p.record(vl, invocations, &LADDER, index, Some(vector));
            }
        }
        assert_eq!(p.variants.len(), MAX_VARIANTS);
        assert_eq!(p.verified(&key(SpecRequest::Auto, 16, 3)), None, "evicted");
        // Neither pair explores again: each runs its choice, and only a
        // choice whose own variant was evicted verifies it once more.
        for (vl, invocations) in [(16, 3), (32, 1)] {
            assert_eq!(p.pick(vl, invocations), Pick::Chosen(RTM_1024));
        }
        assert_eq!(p.next(&key(RTM_1024, 16, 3)), Next::Verify);
        assert!(matches!(p.next(&key(RTM_1024, 32, 1)), Next::Replay(_)));
    }

    #[test]
    fn choices_are_bounded_oldest_first() {
        let mut p = KernelProfile::default();
        for invocations in 1..=MAX_CHOICES as u64 + 1 {
            p.record(16, invocations, &LADDER[..1], 0, Some(invocations));
        }
        assert_eq!(p.choices().len(), MAX_CHOICES);
        assert_eq!(
            p.pick(16, 1),
            Pick::Explore(0),
            "the oldest pair was dropped"
        );
        assert_eq!(p.pick(16, 2), Pick::Chosen(SpecRequest::Auto));
    }

    fn key(spec: SpecRequest, vl: usize, invocations: u64) -> VariantKey {
        VariantKey {
            spec,
            vl,
            invocations,
        }
    }

    /// A memo entry with these cycles, and a record that stands for
    /// any run's.
    fn entry(scalar: u64, vector: u64) -> Verified {
        let record = Record {
            live_outs: vec![1],
            induction: 4,
            broke: false,
            iterations: 4,
            digests: vec![0xfeed],
            trace: Default::default(),
        };
        Verified::new(VariantCycles { scalar, vector }, record)
    }

    #[test]
    fn verification_bookkeeping_audits_periodically() {
        let mut p = KernelProfile::default();
        let k = key(SpecRequest::Auto, 16, 1);
        let stored = entry(500, 200);
        assert_eq!(p.next(&k), Next::Verify, "first run verifies");
        assert_eq!(p.next(&k), Next::Verify, "until it settles");
        p.settle(k, stored.clone());
        // Every other spec, width and invocation count is a variant of
        // its own and needs its own verification.
        for other in [
            key(SpecRequest::Rtm { tile: 64 }, 16, 1),
            key(SpecRequest::Auto, 32, 1),
            key(SpecRequest::Auto, 16, 3),
        ] {
            assert_eq!(p.next(&other), Next::Verify, "{other:?}");
        }
        for _ in 0..AUDIT_EVERY {
            assert_eq!(p.next(&k), Next::Replay(stored.clone()));
        }
        // The audit is due, and stays due until one settles.
        assert_eq!(p.next(&k), Next::Audit(stored.clone()));
        assert_eq!(p.next(&k), Next::Audit(stored.clone()));
        p.settle(k, stored.clone());
        assert_eq!(p.next(&k), Next::Replay(stored.clone()));
        // A failed check drops the entry; the next run verifies.
        p.forget(&k);
        assert_eq!(p.verified(&k), None);
        assert_eq!(p.next(&k), Next::Verify);
    }

    #[test]
    fn the_checksum_covers_the_cycles_and_the_record() {
        let sealed = entry(500, 200);
        assert!(sealed.intact());
        let edits: [fn(&mut Verified); 5] = [
            |e| e.cycles.scalar += 1,
            |e| e.cycles.vector -= 1,
            |e| e.record.live_outs[0] = 2,
            |e| e.record.digests[0] ^= 1,
            |e| e.record.trace.hash ^= 1 << 100,
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            let mut edited = sealed.clone();
            edit(&mut edited);
            assert!(!edited.intact(), "edit {i}");
            // Sealing the edited contents again makes it whole.
            assert!(Verified::new(edited.cycles, edited.record).intact());
        }
    }

    #[test]
    fn variant_memo_is_bounded_oldest_first() {
        let mut p = KernelProfile::default();
        for n in 1..=MAX_VARIANTS as u64 + 1 {
            p.settle(key(SpecRequest::Auto, 16, n), entry(n, n));
        }
        assert_eq!(p.variants.len(), MAX_VARIANTS);
        assert_eq!(p.verified(&key(SpecRequest::Auto, 16, 1)), None);
        assert_eq!(
            p.verified(&key(SpecRequest::Auto, 16, 2)),
            Some(&entry(2, 2))
        );
        // Settling a stored variant again (an audit) refreshes it: it is
        // now the newest, and the next insertion drops the one after it.
        p.settle(key(SpecRequest::Auto, 16, 2), entry(2, 2));
        p.settle(key(SpecRequest::Auto, 16, 100), entry(100, 100));
        assert!(p.verified(&key(SpecRequest::Auto, 16, 2)).is_some());
        assert_eq!(p.verified(&key(SpecRequest::Auto, 16, 3)), None);
    }
}
