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
}
