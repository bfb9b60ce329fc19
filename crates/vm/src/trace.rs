//! Dynamic µop traces.
//!
//! Both the scalar interpreter and the vector-program executor emit a
//! stream of micro-operations as they run; `flexvec-sim` replays that
//! stream through its out-of-order pipeline model. A µop carries an
//! operation class (which determines latency, ports and throughput per
//! Table 1), abstract register tokens for dependence tracking, and the
//! byte addresses it touches.

/// An abstract register token for dependence tracking.
///
/// The timing simulator renames these, so the only requirement is that a
/// producer and its consumers agree on the token.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tok {
    /// A vector register (virtual id from the `VProg`).
    V(u32),
    /// A mask register.
    K(u32),
    /// A scalar: program variable ids live below `TEMP_BASE`, expression
    /// temporaries above.
    S(u32),
}

/// First scalar token id used for expression temporaries.
pub const TEMP_BASE: u32 = 1 << 16;

/// Micro-operation classes. Latencies and port bindings live in
/// `flexvec-sim`'s configuration (Table 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UopClass {
    /// Scalar integer ALU op (add, sub, logic, compare, shifts).
    ScalarAlu,
    /// Scalar multiply.
    ScalarMul,
    /// Scalar divide/remainder.
    ScalarDiv,
    /// A conditional branch; `id` identifies the static branch site for
    /// the simulator's predictor, `taken` is the dynamic outcome.
    Branch {
        /// Static branch site id.
        id: u64,
        /// Dynamic outcome.
        taken: bool,
    },
    /// Scalar load.
    Load,
    /// Scalar store.
    Store,
    /// Vector integer ALU op.
    VecAlu,
    /// Vector multiply.
    VecMul,
    /// Vector divide (expanded sequence on real hardware).
    VecDiv,
    /// Vector blend/permute-class op.
    VecShuffle,
    /// Broadcast from a scalar/immediate.
    Broadcast,
    /// Mask-register op (`KAND`, `KOR`, ...).
    MaskOp,
    /// `KFTM.INC/EXC` (FlexVec; Table 1: latency 2, throughput 1).
    Kftm,
    /// `VPSLCTLAST` (FlexVec; Table 1: latency 3, throughput 1).
    SelectLast,
    /// `VPCONFLICTM` (FlexVec; Table 1: micro-op sequence, latency 20).
    Conflict,
    /// Horizontal reduction (log₂ VLEN shuffle/op sequence).
    Reduce,
    /// Unit-stride vector load. One cache access per touched line.
    VecLoad,
    /// Unit-stride vector store.
    VecStore,
    /// Gather (one cache access per active lane; Table 1: 2 loads/cycle).
    Gather,
    /// Scatter.
    Scatter,
    /// First-faulting unit-stride load (`VMOVFF`).
    VecLoadFF,
    /// First-faulting gather (`VPGATHERFF`).
    GatherFF,
    /// Transaction begin (`XBEGIN`).
    TxBegin,
    /// Transaction end (`XEND`).
    TxEnd,
}

impl UopClass {
    /// Whether the µop reads memory.
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            UopClass::Load
                | UopClass::VecLoad
                | UopClass::Gather
                | UopClass::VecLoadFF
                | UopClass::GatherFF
        )
    }

    /// Whether the µop writes memory.
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            UopClass::Store | UopClass::VecStore | UopClass::Scatter
        )
    }
}

/// One dynamic micro-operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Uop {
    /// Operation class.
    pub class: UopClass,
    /// Source register tokens.
    pub srcs: Vec<Tok>,
    /// Destination register token, if any.
    pub dst: Option<Tok>,
    /// Byte addresses touched (one per active lane for vector memory
    /// ops).
    pub addrs: Vec<u64>,
}

impl Uop {
    /// Builds a register-only µop.
    pub fn reg(class: UopClass, srcs: Vec<Tok>, dst: Option<Tok>) -> Self {
        Uop {
            class,
            srcs,
            dst,
            addrs: Vec::new(),
        }
    }

    /// Builds a memory µop.
    pub fn mem(class: UopClass, srcs: Vec<Tok>, dst: Option<Tok>, addrs: Vec<u64>) -> Self {
        Uop {
            class,
            srcs,
            dst,
            addrs,
        }
    }
}

/// Consumer of a µop stream.
///
/// `observe` is the core method and receives µops by reference, so hot
/// emitters can feed a sink without constructing an owned `Uop` per
/// event: the compiled engine passes its preallocated µop templates, and
/// the scalar interpreter refills one reused µop buffer. `emit` is the
/// owned-value convenience used by the tree-walking executor; its
/// default forwards to `observe`.
pub trait TraceSink {
    /// Receives one µop by reference (the borrow ends when the call
    /// returns; sinks that retain the µop clone it).
    fn observe(&mut self, uop: &Uop);

    /// Receives one owned µop.
    fn emit(&mut self, uop: Uop) {
        self.observe(&uop);
    }

    /// Receives a run of µops at once, in order. Semantically identical
    /// to observing each element; sinks that only aggregate (counting,
    /// bulk-copying) override it so batch emitters — the native JIT
    /// flushes a whole straight-line run of register-op templates with
    /// one call — pay one virtual dispatch per run instead of per µop.
    fn observe_slice(&mut self, uops: &[Uop]) {
        for uop in uops {
            self.observe(uop);
        }
    }

    /// Number of µops received so far (used for statistics and tests).
    fn len(&self) -> u64;

    /// Whether nothing was received.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Discards µops but counts them.
#[derive(Debug, Default)]
pub struct CountingSink {
    count: u64,
}

impl TraceSink for CountingSink {
    fn observe(&mut self, _uop: &Uop) {
        self.count += 1;
    }
    fn observe_slice(&mut self, uops: &[Uop]) {
        self.count += uops.len() as u64;
    }
    fn len(&self) -> u64 {
        self.count
    }
}

/// Stores the full µop stream in memory.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The recorded trace.
    pub uops: Vec<Uop>,
}

impl TraceSink for VecSink {
    fn observe(&mut self, uop: &Uop) {
        self.uops.push(uop.clone());
    }
    fn emit(&mut self, uop: Uop) {
        self.uops.push(uop);
    }
    fn observe_slice(&mut self, uops: &[Uop]) {
        self.uops.extend_from_slice(uops);
    }
    fn len(&self) -> u64 {
        self.uops.len() as u64
    }
}

/// What identifies a µop stream: its length and a 128-bit hash of its
/// contents, as [`FingerprintSink`] takes them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// µops in the stream.
    pub uops: u64,
    /// The hash: two 64-bit lanes, the first in the high half.
    pub hash: u128,
}

/// Fingerprints a µop stream, and forwards it to a second sink when
/// given one, so that a run feeds the cycle model and is fingerprinted
/// in one pass.
///
/// Each µop is fed as a sequence of 64-bit words: one holding its
/// class, branch outcome and the number of its source tokens and
/// addresses (each below 2^24), the branch site id for a branch, the
/// destination token (0 for none), then every source token and every
/// address. Two lanes take every word, each stepping `lane = ((lane ^
/// word) * ODD).rotate_left(r)` with its own odd constant and
/// rotation. For a fixed lane that step is a bijection of the word,
/// and for a fixed word a bijection of the lane, so two streams that
/// differ in one word end in different lanes: changing any one field of
/// one µop changes the hash. A stream that gains or loses a µop
/// changes the count.
pub struct FingerprintSink<'a> {
    lanes: [u64; 2],
    uops: u64,
    inner: Option<&'a mut dyn TraceSink>,
}

impl Default for FingerprintSink<'_> {
    fn default() -> Self {
        FingerprintSink {
            lanes: [0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344],
            uops: 0,
            inner: None,
        }
    }
}

impl<'a> FingerprintSink<'a> {
    /// A sink that fingerprints and forwards every µop to `inner`.
    pub fn forwarding(inner: &'a mut dyn TraceSink) -> Self {
        FingerprintSink {
            inner: Some(inner),
            ..FingerprintSink::default()
        }
    }

    /// The fingerprint of the µops received so far.
    pub fn fingerprint(&self) -> Fingerprint {
        let [a, b] = self.lanes;
        Fingerprint {
            uops: self.uops,
            hash: (u128::from(a) << 64) | u128::from(b),
        }
    }

    fn word(&mut self, word: u64) {
        let [a, b] = &mut self.lanes;
        *a = (*a ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
        *b = (*b ^ word)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .rotate_left(31);
    }

    fn take(&mut self, uop: &Uop) {
        let (class, taken, site) = match uop.class {
            UopClass::ScalarAlu => (0, false, None),
            UopClass::ScalarMul => (1, false, None),
            UopClass::ScalarDiv => (2, false, None),
            UopClass::Branch { id, taken } => (3, taken, Some(id)),
            UopClass::Load => (4, false, None),
            UopClass::Store => (5, false, None),
            UopClass::VecAlu => (6, false, None),
            UopClass::VecMul => (7, false, None),
            UopClass::VecDiv => (8, false, None),
            UopClass::VecShuffle => (9, false, None),
            UopClass::Broadcast => (10, false, None),
            UopClass::MaskOp => (11, false, None),
            UopClass::Kftm => (12, false, None),
            UopClass::SelectLast => (13, false, None),
            UopClass::Conflict => (14, false, None),
            UopClass::Reduce => (15, false, None),
            UopClass::VecLoad => (16, false, None),
            UopClass::VecStore => (17, false, None),
            UopClass::Gather => (18, false, None),
            UopClass::Scatter => (19, false, None),
            UopClass::VecLoadFF => (20, false, None),
            UopClass::GatherFF => (21, false, None),
            UopClass::TxBegin => (22, false, None),
            UopClass::TxEnd => (23, false, None),
        };
        self.uops += 1;
        self.word(
            class
                | u64::from(taken) << 8
                | (uop.srcs.len() as u64) << 16
                | (uop.addrs.len() as u64) << 40,
        );
        if let Some(site) = site {
            self.word(site);
        }
        self.word(uop.dst.map_or(0, token_word));
        for &src in &uop.srcs {
            self.word(token_word(src));
        }
        for &addr in &uop.addrs {
            self.word(addr);
        }
    }
}

/// A token as one nonzero word: its kind above bit 32, its id below.
fn token_word(tok: Tok) -> u64 {
    match tok {
        Tok::V(id) => 1 << 32 | u64::from(id),
        Tok::K(id) => 2 << 32 | u64::from(id),
        Tok::S(id) => 3 << 32 | u64::from(id),
    }
}

impl TraceSink for FingerprintSink<'_> {
    fn observe(&mut self, uop: &Uop) {
        self.take(uop);
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.observe(uop);
        }
    }
    fn observe_slice(&mut self, uops: &[Uop]) {
        for uop in uops {
            self.take(uop);
        }
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.observe_slice(uops);
        }
    }
    fn len(&self) -> u64 {
        self.uops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(UopClass::Gather.is_load());
        assert!(UopClass::VecLoadFF.is_load());
        assert!(!UopClass::Scatter.is_load());
        assert!(UopClass::Scatter.is_store());
        assert!(!UopClass::Kftm.is_store());
    }

    #[test]
    fn sinks_count() {
        let mut c = CountingSink::default();
        assert!(c.is_empty());
        c.emit(Uop::reg(
            UopClass::ScalarAlu,
            vec![Tok::S(0)],
            Some(Tok::S(1)),
        ));
        assert_eq!(c.len(), 1);

        let mut v = VecSink::default();
        v.emit(Uop::mem(UopClass::Load, vec![], Some(Tok::S(2)), vec![64]));
        assert_eq!(v.len(), 1);
        assert_eq!(v.uops[0].addrs, vec![64]);
    }

    /// A short stream with every kind of field: a branch, register ops
    /// with and without a destination, and vector memory µops.
    fn stream() -> Vec<Uop> {
        vec![
            Uop::reg(UopClass::ScalarAlu, vec![Tok::S(0)], Some(Tok::S(1))),
            Uop::mem(
                UopClass::Gather,
                vec![Tok::V(2), Tok::K(1)],
                Some(Tok::V(3)),
                vec![64, 8, 4096, 72],
            ),
            Uop::reg(
                UopClass::Branch { id: 7, taken: true },
                vec![Tok::S(1)],
                None,
            ),
            Uop::reg(
                UopClass::VecAlu,
                vec![Tok::V(3), Tok::V(3)],
                Some(Tok::V(4)),
            ),
            Uop::mem(
                UopClass::VecStore,
                vec![Tok::V(4), Tok::K(1)],
                None,
                vec![128, 136, 144, 152],
            ),
            Uop::reg(UopClass::Kftm, vec![Tok::K(1)], Some(Tok::K(2))),
        ]
    }

    fn fingerprint(uops: &[Uop]) -> Fingerprint {
        let mut sink = FingerprintSink::default();
        for uop in uops {
            sink.observe(uop);
        }
        sink.fingerprint()
    }

    #[test]
    fn identical_streams_agree() {
        let (a, b) = (fingerprint(&stream()), fingerprint(&stream()));
        assert_eq!(a, b);
        assert_eq!(a.uops, 6);
        assert_ne!(a, fingerprint(&[]));
    }

    #[test]
    fn changing_one_field_of_one_uop_changes_the_hash() {
        let truth = fingerprint(&stream());
        type Edit = fn(&mut Vec<Uop>);
        let edits: [(&str, Edit); 8] = [
            ("class", |s| s[3].class = UopClass::VecMul),
            ("branch outcome", |s| {
                s[2].class = UopClass::Branch {
                    id: 7,
                    taken: false,
                }
            }),
            ("branch site", |s| {
                s[2].class = UopClass::Branch { id: 8, taken: true }
            }),
            ("source token", |s| s[3].srcs[1] = Tok::V(2)),
            ("source kind", |s| s[1].srcs[1] = Tok::V(1)),
            ("destination", |s| s[0].dst = Some(Tok::S(2))),
            ("no destination", |s| s[5].dst = None),
            ("one lane address", |s| s[4].addrs[2] = 145),
        ];
        for (what, edit) in edits {
            let mut changed = stream();
            edit(&mut changed);
            let got = fingerprint(&changed);
            assert_eq!(got.uops, truth.uops, "{what}");
            assert_ne!(got.hash, truth.hash, "{what}");
        }
    }

    #[test]
    fn dropping_or_duplicating_a_uop_changes_the_fingerprint() {
        let truth = fingerprint(&stream());
        for i in 0..stream().len() {
            let mut dropped = stream();
            dropped.remove(i);
            let mut doubled = stream();
            doubled.insert(i, doubled[i].clone());
            for (what, s) in [("dropped", dropped), ("duplicated", doubled)] {
                let got = fingerprint(&s);
                assert_ne!(got.uops, truth.uops, "{what} {i}");
                assert_ne!(got.hash, truth.hash, "{what} {i}");
            }
        }
    }

    #[test]
    fn observe_slice_agrees_with_observe_and_forwards_everything() {
        let uops = stream();
        let mut counter = CountingSink::default();
        let mut sliced = FingerprintSink::forwarding(&mut counter);
        sliced.observe(&uops[0]);
        sliced.observe_slice(&uops[1..4]);
        sliced.emit(uops[4].clone());
        sliced.observe_slice(&uops[5..]);
        sliced.observe_slice(&[]);
        assert_eq!(sliced.fingerprint(), fingerprint(&uops));
        assert_eq!(counter.len(), 6);
    }
}
