//! Property-based tests for the FlexVec ISA invariants, parameterized
//! over every supported runtime vector length.
//!
//! The central invariants here are the ones FlexVec's code generation
//! relies on for correctness:
//!
//! * `kftm_*` always returns a subset of the write mask, the subset is a
//!   *prefix* of the enabled lanes, and repeatedly stripping `k_safe` from
//!   `k_todo` terminates (VPL termination).
//! * `vpconflictm` stop bits partition the lanes so that within a
//!   partition, no load address matches an earlier enabled store address
//!   (definitions dominate uses inside a partition), and they agree
//!   exactly with a lane-by-lane model of the paper's definition.
//! * first-faulting loads never report lanes as completed unless they
//!   actually loaded, and completed lanes form a prefix of the enabled
//!   lanes.
//! * mask algebra and permute wraparound are `vl`-relative: hidden lanes
//!   (index `>= vlen()`) are never observable.
//!
//! Every property draws `vl` from [`SUPPORTED_VLENS`] and runs its body
//! under [`with_vlen`], so each invariant is exercised at 8, 16, 32 and
//! 64 lanes.

use flexvec_isa::{
    kftm_exc, kftm_inc, vgather_ff, vlen, vpconflictm, vpslctlast, with_vlen, LaneMemory, Mask,
    MemFault, Vector, LANE_BYTES, MAX_VLEN, SUPPORTED_VLENS,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn vl_strategy() -> impl Strategy<Value = usize> {
    prop::sample::select(SUPPORTED_VLENS.to_vec())
}

/// Raw lane values for the widest width; each case slices the active
/// prefix it needs.
fn lanes_strategy(max: i64) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0..max, MAX_VLEN)
}

/// Runs a property body at the given width, propagating `prop_assert!`
/// failures out of the `with_vlen` scope.
fn at_width(
    vl: usize,
    body: impl FnOnce() -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    with_vlen(vl, body)
}

proptest! {
    #[test]
    fn kftm_outputs_are_subsets_of_write_mask(
        vl in vl_strategy(), k2b in any::<u64>(), k3b in any::<u64>(),
    ) {
        at_width(vl, || {
            let (k2, k3) = (Mask::from_bits(k2b), Mask::from_bits(k3b));
            let exc = kftm_exc(k2, k3);
            let inc = kftm_inc(k2, k3);
            prop_assert_eq!(exc & k2, exc);
            prop_assert_eq!(inc & k2, inc);
            // Unless k2 is empty, both variants always produce work:
            // exclusive because a leading stop bit is skipped, inclusive
            // because the stop lane itself is included. This is the VPL
            // progress guarantee.
            prop_assert_eq!(exc.any(), k2.any());
            prop_assert_eq!(inc.any(), k2.any());
            // When the first enabled stop is not on the first enabled lane,
            // inc = exc + stop lane.
            if let (Some(first), Some(stop)) = (k2.first_set(), (k3 & k2).first_set()) {
                if stop != first {
                    prop_assert_eq!(inc, exc | Mask::from_lanes(&[stop]));
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn kftm_safe_is_prefix_of_enabled_lanes(
        vl in vl_strategy(), k2b in any::<u64>(), k3b in any::<u64>(),
    ) {
        at_width(vl, || {
            // Every enabled lane before a safe lane must itself be safe: the
            // safe set is a prefix of k2's enabled lanes.
            let (k2, k3) = (Mask::from_bits(k2b), Mask::from_bits(k3b));
            let safe = kftm_exc(k2, k3);
            if let Some(last_safe) = safe.last_set() {
                for lane in 0..last_safe {
                    if k2.get(lane) {
                        prop_assert!(safe.get(lane), "hole at lane {}", lane);
                    }
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn vpl_with_inclusive_kftm_terminates(
        vl in vl_strategy(), k_init_b in any::<u64>(), k3b in any::<u64>(),
    ) {
        at_width(vl, || {
            // The conditional-update VPL peels at least one lane per
            // iteration (inclusive variant), so it finishes in
            // ≤ count(k_todo) steps.
            let (k_init, k3) = (Mask::from_bits(k_init_b), Mask::from_bits(k3b));
            let mut k_todo = k_init;
            let mut steps = 0usize;
            while k_todo.any() {
                let k_safe = kftm_inc(k_todo, k3);
                prop_assert!(k_safe.any(), "inclusive kftm on nonempty todo yields work");
                k_todo = k_todo.and_not(k_safe);
                steps += 1;
                prop_assert!(steps <= vlen());
            }
            prop_assert!(steps <= k_init.count().max(1));
            Ok(())
        })?;
    }

    #[test]
    fn memory_vpl_terminates(
        vl in vl_strategy(), k_init_b in any::<u64>(), idx_lanes in lanes_strategy(8),
    ) {
        at_width(vl, || {
            // The Figure 2(b) loop shape: exclusive kftm driven by conflict
            // detection. k_stop ∧ k_todo recomputed per round.
            let k_init = Mask::from_bits(k_init_b);
            let idx = Vector::from_slice(&idx_lanes[..vlen()]);
            let mut k_todo = k_init;
            let mut k_stop = vpconflictm(k_todo, idx, idx);
            let mut steps = 0usize;
            loop {
                let k_safe = kftm_exc(k_todo, k_stop);
                k_todo = k_todo.and_not(k_safe);
                k_stop &= k_todo;
                steps += 1;
                prop_assert!(steps <= vlen() + 1, "VPL failed to terminate");
                if !k_stop.any() {
                    break;
                }
            }
            // After the final round every lane has been processed...
            let k_safe = kftm_exc(k_todo, k_stop);
            prop_assert_eq!(k_todo.and_not(k_safe), Mask::EMPTY);
            Ok(())
        })?;
    }

    #[test]
    fn conflict_partitions_have_no_internal_raw(
        vl in vl_strategy(), k2b in any::<u64>(), idx_lanes in lanes_strategy(6),
    ) {
        at_width(vl, || {
            // Between two consecutive stop bits, no element of v1 may match
            // an enabled *earlier-in-partition* element of v2 — that is
            // exactly what makes the partition safe to run as one vector
            // operation.
            let k2 = Mask::from_bits(k2b);
            let idx = Vector::from_slice(&idx_lanes[..vlen()]);
            let stops = vpconflictm(k2, idx, idx);
            let mut start = 0usize;
            for j in 0..vlen() {
                if stops.get(j) {
                    start = j;
                    continue;
                }
                for i in start..j {
                    if k2.get(i) {
                        prop_assert!(
                            idx.lane(i) != idx.lane(j),
                            "unflagged RAW: lane {} vs {}",
                            i, j
                        );
                    }
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn vpslctlast_broadcasts_an_existing_value(
        vl in vl_strategy(), kb in any::<u64>(), v_lanes in lanes_strategy(1000),
    ) {
        at_width(vl, || {
            let k = Mask::from_bits(kb);
            let v = Vector::from_slice(&v_lanes[..vlen()]);
            let out = vpslctlast(k, v);
            let lane = k.last_set().unwrap_or(vlen() - 1);
            prop_assert_eq!(out, Vector::splat(v.lane(lane)));
            Ok(())
        })?;
    }

    #[test]
    fn first_fault_mask_is_prefix_and_loads_are_real(
        vl in vl_strategy(),
        kb in any::<u64>(),
        mapped_until in 0u64..96,
    ) {
        struct Mem { mapped_until: u64 }
        impl LaneMemory for Mem {
            fn load_lane(&self, addr: u64) -> Result<i64, MemFault> {
                if addr / LANE_BYTES < self.mapped_until {
                    Ok((addr / LANE_BYTES) as i64)
                } else {
                    Err(MemFault { addr })
                }
            }
            fn store_lane(&mut self, _: u64, _: i64) -> Result<(), MemFault> {
                unreachable!()
            }
        }
        at_width(vl, || {
            let k = Mask::from_bits(kb);
            let mem = Mem { mapped_until };
            let addrs = Vector::from_fn(|i| (i as i64) * LANE_BYTES as i64);
            let dest = Vector::splat(-77);
            match vgather_ff(&mem, k, dest, addrs) {
                Err(_) => {
                    // Only legal when the non-speculative lane itself faults.
                    let ns = k.first_set().expect("fault requires an enabled lane");
                    prop_assert!(ns as u64 >= mapped_until);
                }
                Ok(out) => {
                    // Completed lanes are a subset of k and form a prefix.
                    prop_assert_eq!(out.mask & k, out.mask);
                    if let Some(last) = out.mask.last_set() {
                        for lane in 0..last {
                            if k.get(lane) {
                                prop_assert!(out.mask.get(lane));
                            }
                        }
                    }
                    for lane in 0..vlen() {
                        if out.mask.get(lane) {
                            prop_assert_eq!(out.value.lane(lane), lane as i64);
                        } else {
                            prop_assert_eq!(out.value.lane(lane), -77);
                        }
                    }
                }
            }
            Ok(())
        })?;
    }

    #[test]
    fn compress_then_expand_is_identity_on_enabled_lanes(
        vl in vl_strategy(),
        kb in any::<u64>(),
        v_lanes in lanes_strategy(1 << 40),
    ) {
        at_width(vl, || {
            let k = Mask::from_bits(kb);
            let v = Vector::from_slice(&v_lanes[..vlen()]);
            let packed = v.compress(k, Vector::ZERO);
            let restored = packed.expand(k, v);
            prop_assert_eq!(restored, v);
            Ok(())
        })?;
    }

    #[test]
    fn permute_wraps_around_active_lanes(
        vl in vl_strategy(),
        v_lanes in lanes_strategy(1 << 40),
        idx_lanes in prop::collection::vec(-200i64..200, MAX_VLEN),
    ) {
        at_width(vl, || {
            // Shuffle indices wrap modulo the *active* lane count, so a
            // permute can never read a hidden lane at any width.
            let v = Vector::from_slice(&v_lanes[..vlen()]);
            let idx = Vector::from_slice(&idx_lanes[..vlen()]);
            let out = v.permute(idx);
            for i in 0..vlen() {
                let src = idx.lane(i).rem_euclid(vlen() as i64) as usize;
                prop_assert!(src < vlen());
                prop_assert_eq!(out.lane(i), v.lane(src));
            }
            for hidden in vlen()..MAX_VLEN {
                prop_assert_eq!(out.lane(hidden), 0);
            }
            Ok(())
        })?;
    }
}

proptest! {
    #[test]
    fn mask_display_parse_roundtrip(vl in vl_strategy(), bits in any::<u64>()) {
        at_width(vl, || {
            let k = Mask::from_bits(bits);
            let text = k.to_string();
            prop_assert_eq!(text.parse::<Mask>().unwrap(), k);
            Ok(())
        })?;
    }

    #[test]
    fn mask_algebra_is_vl_relative(vl in vl_strategy(), ab in any::<u64>(), bb in any::<u64>()) {
        at_width(vl, || {
            // De Morgan + double negation over the active lanes only; no
            // operation may leak bits into hidden lanes.
            let (a, b) = (Mask::from_bits(ab), Mask::from_bits(bb));
            prop_assert_eq!(!(a & b), !a | !b);
            prop_assert_eq!(!(a | b), !a & !b);
            prop_assert_eq!(!!a, a);
            prop_assert_eq!(a.and_not(b), a & !b);
            prop_assert_eq!(a | !a, Mask::full());
            let full_bits = Mask::full().bits();
            for m in [a & b, a | b, a ^ b, !a, a.and_not(b)] {
                prop_assert_eq!(m.bits() & !full_bits, 0, "hidden-lane leak in {:?}", m);
            }
            Ok(())
        })?;
    }

    #[test]
    fn mask_prefix_suffix_partition(vl in vl_strategy(), lane_seed in 0usize..64) {
        at_width(vl, || {
            // prefix_before(l) and suffix_from(l) partition the active lanes.
            let lane = lane_seed % vlen();
            let before = Mask::prefix_before(lane);
            let from = Mask::suffix_from(lane);
            prop_assert_eq!(before & from, Mask::EMPTY);
            prop_assert_eq!(before | from, Mask::full());
            Ok(())
        })?;
    }

    #[test]
    fn conflict_is_monotone_in_enables(
        vl in vl_strategy(),
        idx_lanes in prop::collection::vec(0i64..6, MAX_VLEN),
        k_small in any::<u64>(),
        extra in any::<u64>(),
    ) {
        at_width(vl, || {
            // Enabling more v2 lanes can only reveal more serialization
            // points at each position up to window effects — at minimum, the
            // empty enable set yields no conflicts.
            let v = Vector::from_slice(&idx_lanes[..vlen()]);
            let none = vpconflictm(Mask::EMPTY, v, v);
            prop_assert_eq!(none, Mask::EMPTY);
            let small = vpconflictm(Mask::from_bits(k_small), v, v);
            let big = vpconflictm(Mask::from_bits(k_small | extra), v, v);
            // Both remain valid partitionings (checked by the dedicated
            // property); here: lane 0 has no predecessors at any width.
            prop_assert!(!small.get(0));
            prop_assert!(!big.get(0));
            Ok(())
        })?;
    }
}

/// `VPCONFLICTM` lane by lane, as the paper defines it (Section 3.6):
/// lane `j` of `v1` conflicts when it equals an enabled lane of `v2` in
/// the window from the last conflict up to `j`, and every conflict
/// restarts the window at its own lane.
fn vpconflictm_reference(k2: Mask, v1: Vector, v2: Vector) -> Mask {
    let mut out = Mask::EMPTY;
    let mut window_start = 0usize;
    for j in 0..vlen() {
        if (window_start..j).any(|i| k2.get(i) && v2.lane(i) == v1.lane(j)) {
            out.set(j, true);
            window_start = j;
        }
    }
    out
}

proptest! {
    #[test]
    fn vpconflictm_matches_the_lane_by_lane_definition(
        vl in vl_strategy(),
        k2b in any::<u64>(),
        v1_lanes in lanes_strategy(4),
        v2_lanes in lanes_strategy(4),
    ) {
        at_width(vl, || {
            // Values from 0..4 make conflicts common, so both the window
            // restart and the enable gate decide most cases.
            let k2 = Mask::from_bits(k2b);
            let v1 = Vector::from_slice(&v1_lanes[..vlen()]);
            let v2 = Vector::from_slice(&v2_lanes[..vlen()]);
            prop_assert_eq!(vpconflictm(k2, v1, v2), vpconflictm_reference(k2, v1, v2));
            // The one-vector form the vectorizer emits for a store and a
            // load through the same index.
            prop_assert_eq!(vpconflictm(k2, v1, v1), vpconflictm_reference(k2, v1, v1));
            Ok(())
        })?;
    }
}
