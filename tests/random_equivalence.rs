//! Randomized end-to-end equivalence: generate random loops from the
//! supported pattern grammar (conditional updates, guarded speculative
//! loads, indirect read-modify-writes, early exits), random inputs, and
//! check that FlexVec vector execution — under first-faulting *and* RTM
//! speculation — agrees exactly with the scalar interpreter on live-outs,
//! the final induction value, the break flag, the iteration count and
//! every array element.

mod common;

use common::{build_case, case_spec, Case};
use flexvec::{vectorize, SpecRequest};
use flexvec_vm::{CountingSink, Engine, Kernel, VectorCode};
use proptest::prelude::*;

fn check_equivalence(case: &Case, spec_req: SpecRequest) -> Result<(), TestCaseError> {
    let Ok(vectorized) = vectorize(&case.program, spec_req) else {
        // Some generated combinations are legitimately rejected
        // (documented Unsupported shapes); that is not a failure.
        return Ok(());
    };
    let kernel = Kernel::new(&case.program, &case.arrays, 1);
    if let Err(e) = kernel.check(
        &VectorCode::new(&vectorized.vprog, Engine::default()),
        &mut CountingSink::default(),
        &mut CountingSink::default(),
        None,
    ) {
        prop_assert!(false, "{e}\n{}", case.program);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_loops_agree_under_first_faulting(spec in case_spec()) {
        if let Some(case) = build_case(&spec) {
            check_equivalence(&case, SpecRequest::Auto)?;
        }
    }

    #[test]
    fn random_loops_agree_under_rtm(spec in case_spec(), tile in 16u32..512) {
        if let Some(case) = build_case(&spec) {
            check_equivalence(&case, SpecRequest::Rtm { tile })?;
        }
    }
}
