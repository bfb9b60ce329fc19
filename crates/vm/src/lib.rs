//! # flexvec-vm
//!
//! The execution engine of the FlexVec reproduction:
//!
//! * [`run_scalar`] — the scalar reference interpreter (also the
//!   evaluation baseline: the paper's baseline compiler leaves FlexVec
//!   candidate loops scalar);
//! * [`run_vector`] — the [`VProg`](flexvec::VProg) executor with chunked
//!   vector iteration, Vector Partitioning Loop execution, first-faulting
//!   fallback to scalar code, and the strip-mined RTM transaction runtime;
//! * [`Uop`] traces ([`TraceSink`]) consumed by the `flexvec-sim` timing
//!   model;
//! * [`Kernel`] — checked execution: runs the scalar program and a
//!   [`VectorCode`] on the same inputs and compares them.
//!
//! The central correctness property is that for every loop the scalar
//! and vector executions agree on the live-out scalars, the induction
//! variable's exit value, the break flag, the iteration count and
//! every array element. [`Kernel::check`] is the one place that
//! compares them; the evaluation harness, `flexvecc`, the serving
//! daemon, the fuzzer and the equivalence tests all go through it.

// `deny` rather than `forbid`: the crate is unsafe-free except for the
// `jit` module, which needs `unsafe` for the executable-page syscalls
// and for calling the machine code it emitted, and carries a scoped
// `allow` plus the safety argument in its docs.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod checked;
mod compiled;
#[allow(unsafe_code)]
mod jit;
mod scalar;
mod trace;
mod vector;

pub use cancel::{CancelToken, SCALAR_CANCEL_STRIDE};
pub use checked::{digest, CheckError, Execution, Kernel, Mismatch, Record, VectorCode};
pub use compiled::{CompiledVProg, ExecScratch};
pub use jit::native_supported;
pub use scalar::{run_scalar, Bindings, ExecError, RunResult, ScalarMachine, StepOutcome};
pub use trace::{
    CountingSink, Fingerprint, FingerprintSink, Tok, TraceSink, Uop, UopClass, VecSink, TEMP_BASE,
};
pub use vector::{
    run_vector, run_vector_precompiled_with_scratch, run_vector_with_engine, Engine, VectorStats,
};
