//! The FlexVec ISA extensions (paper Sections 3.4–3.6).
//!
//! These are the four non-memory instructions FlexVec adds on top of
//! AVX-512:
//!
//! * [`kftm_exc`] / [`kftm_inc`] — partial mask generation (`KFTM.EXC`,
//!   `KFTM.INC`): compute the `k_safe` mask that drives one iteration of a
//!   Vector Partitioning Loop.
//! * [`vpslctlast`] — scalar value propagation (`VPSLCTLAST`): broadcast the
//!   last enabled lane to every lane.
//! * [`vpconflictm`] — memory conflict detection (`VPCONFLICTM.D/Q`):
//!   compute runtime serialization points between a vector of store
//!   addresses and a vector of load addresses.
//!
//! Every worked example in the paper is reproduced verbatim as a unit test
//! at the bottom of this module.

use crate::{vlen, Mask, Vector};

/// `KFTM.EXC k1 {k2}, k3` — *exclusive* partial mask generation.
///
/// Scans lanes from the least significant (leftmost/oldest, lane 0) to the
/// most significant. Sets the output bit for every lane enabled by the
/// write mask `k2` **up to but not including** the first lane that is
/// enabled in both `k3` (the stop/dependency mask) and `k2`. Stop bits in
/// `k3` for lanes disabled by `k2` are ignored — in partial vector code
/// those are lanes already processed by an earlier VPL iteration.
///
/// The exclusive variant clobbers the lane in which the dependency bites:
/// it is used when the *current* lane must wait for an earlier lane (e.g. a
/// load that reads a location stored by a preceding lane), and for
/// dependent statements lexically **after** a conditional scalar update.
///
/// A stop bit that falls **on the first enabled lane itself** is skipped:
/// stop bits are serialization points marking where a new partition
/// *starts* (see [`vpconflictm`]'s "from the point of last conflict"
/// window), and once every preceding lane has been retired from the write
/// mask, the dependency that produced that stop bit is satisfied. Without
/// this rule the Figure 2(b) Vector Partitioning Loop would livelock on its
/// second iteration, since `k_todo` then begins exactly at the first stop
/// bit.
///
/// If `k3 & k2` has no enabled bit past the first enabled lane, the whole
/// of `k2` is safe.
///
/// # Examples
///
/// The paper's Section 3.4 example:
///
/// ```
/// use flexvec_isa::{kftm_exc, Mask};
///
/// let k3: Mask = "1 1 0 0 0 1 1 1 0 0 0 0 0 0 0 0".parse()?;
/// let k2: Mask = "0 0 0 1 1 1 0 0 0 0 0 0 0 0 0 0".parse()?;
/// let k1 = kftm_exc(k2, k3);
/// assert_eq!(k1, "0 0 0 1 1 0 0 0 0 0 0 0 0 0 0 0".parse()?);
/// # Ok::<(), flexvec_isa::ParseMaskError>(())
/// ```
#[must_use]
#[inline]
pub fn kftm_exc(k2: Mask, k3: Mask) -> Mask {
    let Some(first_enabled) = k2.first_set() else {
        return Mask::EMPTY;
    };
    // A stop bit on the first enabled lane marks a partition boundary that
    // has already been reached; only stop bits strictly after it clip.
    let stops_after = (k3 & k2) & Mask::suffix_from(first_enabled + 1);
    match stops_after.first_set() {
        Some(stop) => k2 & Mask::prefix_before(stop),
        None => k2,
    }
}

/// `KFTM.INC k1 {k2}, k3` — *inclusive* partial mask generation.
///
/// Like [`kftm_exc`], but the safe region **extends through the lane in
/// which the update happens**. This variant drives statements that are
/// lexically *before* the updating statement: those must still execute in
/// the updating lane itself.
///
/// # Examples
///
/// The paper's Section 3.4 example (same inputs as the exclusive one; lane 5
/// is now included):
///
/// ```
/// use flexvec_isa::{kftm_inc, Mask};
///
/// let k3: Mask = "1 1 0 0 0 1 1 1 0 0 0 0 0 0 0 0".parse()?;
/// let k2: Mask = "0 0 0 1 1 1 0 0 0 0 0 0 0 0 0 0".parse()?;
/// let k1 = kftm_inc(k2, k3);
/// assert_eq!(k1, "0 0 0 1 1 1 0 0 0 0 0 0 0 0 0 0".parse()?);
/// # Ok::<(), flexvec_isa::ParseMaskError>(())
/// ```
#[must_use]
#[inline]
pub fn kftm_inc(k2: Mask, k3: Mask) -> Mask {
    match (k3 & k2).first_set() {
        Some(stop) => k2 & Mask::prefix_through(stop),
        None => k2,
    }
}

/// `VPSLCTLAST v2, k1, v1` — select-last broadcast (scalar value
/// propagation, paper Section 3.5).
///
/// Selects the **last enabled** element of `v1` and broadcasts it to every
/// lane of the result. If no lane is enabled (`k1` empty) the last active
/// lane (lane `vlen() - 1`) is selected — that convention lets a vector
/// loop carry the value of a scalar across vector iterations without a
/// branch.
///
/// [`vlen()`]: crate::vlen
///
/// # Examples
///
/// The paper's Section 3.5 example (`h` lives in lane 7, the last set bit):
///
/// ```
/// use flexvec_isa::{vpslctlast, Mask, Vector};
///
/// let v1 = Vector::from_fn(|i| 100 + i as i64);
/// let k1 = Mask::first_n(8).and_not(Mask::first_n(3)); // lanes 3..=7
/// assert_eq!(vpslctlast(k1, v1), Vector::splat(107));
/// // Empty mask selects the last active lane, whatever the width.
/// let last = 100 + flexvec_isa::vlen() as i64 - 1;
/// assert_eq!(vpslctlast(Mask::EMPTY, v1), Vector::splat(last));
/// # Ok::<(), flexvec_isa::ParseMaskError>(())
/// ```
#[must_use]
#[inline]
pub fn vpslctlast(k1: Mask, v1: Vector) -> Vector {
    let lane = k1.last_set().unwrap_or(vlen() - 1);
    Vector::splat(v1.lane(lane))
}

/// `VPCONFLICTM.D/Q k1 {k2}, v1, v2` — running memory-conflict detection
/// (paper Section 3.6).
///
/// Compares each element of `v1` (typically the *load* addresses/indices)
/// against the **preceding** elements of `v2` (typically the *store*
/// addresses/indices), restarting the comparison window at the point of the
/// last detected conflict. A set bit in the result marks a lane that must
/// wait for the computation of an earlier lane of the same vector
/// instruction: a serialization point. Set bits guarantee that all
/// definitions prior to them dominate succeeding uses.
///
/// The write mask `k2` gates which elements of `v2` participate; conflicts
/// against disabled `v2` elements are not detected (those lanes were
/// already retired by an earlier VPL iteration).
///
/// # Examples
///
/// The paper's first Section 3.6 example (conflicts at lanes 6, 8, 15):
///
/// ```
/// use flexvec_isa::{vpconflictm, Mask, Vector};
///
/// let v1 = Vector::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 5, 7, 9, 9, 10, 10]);
/// let v2 = Vector::from_slice(&[0, 0, 0, 1, 5, 7, 9, 2, 0, 2, 3, 4, 0, 9, 10, 10]);
/// let k1 = vpconflictm(Mask::full(), v1, v2);
/// assert_eq!(k1, Mask::from_lanes(&[6, 8, 15]));
/// ```
#[must_use]
#[inline]
pub fn vpconflictm(k2: Mask, v1: Vector, v2: Vector) -> Mask {
    let (stores, enabled) = (v2.as_lanes(), k2.bits());
    let (mut out, mut window_start) = (0u64, 0usize);
    for (j, &load) in v1.as_lanes().iter().enumerate() {
        let hit = |(i, &store): (usize, &i64)| (enabled >> i) & 1 != 0 && store == load;
        if (window_start..).zip(&stores[window_start..j]).any(hit) {
            out |= 1 << j;
            window_start = j;
        }
    }
    Mask::from_bits(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(s: &str) -> Mask {
        s.parse().expect("test mask literal")
    }

    // --- KFTM paper examples (Section 3.4) --------------------------------

    #[test]
    fn kftm_exc_paper_example() {
        let k3 = m("1 1 0 0 0 1 1 1 0 0 0 0 0 0 0 0");
        let k2 = m("0 0 0 1 1 1 0 0 0 0 0 0 0 0 0 0");
        assert_eq!(kftm_exc(k2, k3), m("0 0 0 1 1 0 0 0 0 0 0 0 0 0 0 0"));
    }

    #[test]
    fn kftm_inc_paper_example() {
        let k3 = m("1 1 0 0 0 1 1 1 0 0 0 0 0 0 0 0");
        let k2 = m("0 0 0 1 1 1 0 0 0 0 0 0 0 0 0 0");
        assert_eq!(kftm_inc(k2, k3), m("0 0 0 1 1 1 0 0 0 0 0 0 0 0 0 0"));
    }

    #[test]
    fn kftm_no_stop_passes_all_enabled_lanes() {
        let k2 = Mask::from_lanes(&[2, 4, 9]);
        assert_eq!(kftm_exc(k2, Mask::EMPTY), k2);
        assert_eq!(kftm_inc(k2, Mask::EMPTY), k2);
        // Stop bits only on disabled lanes are ignored too.
        let k3 = Mask::from_lanes(&[0, 3, 8]);
        assert_eq!(kftm_exc(k2, k3), k2);
    }

    #[test]
    fn kftm_stop_on_first_enabled_lane() {
        let k2 = Mask::from_lanes(&[3, 4, 5]);
        let k3 = Mask::from_lanes(&[3]);
        // Exclusive: a stop bit on the first enabled lane is a partition
        // boundary already reached — the whole remainder is safe. (This is
        // what lets the Figure 2(b) VPL make progress on its second
        // iteration.)
        assert_eq!(kftm_exc(k2, k3), k2);
        // Inclusive: the updating lane itself is safe, nothing more.
        assert_eq!(kftm_inc(k2, k3), Mask::from_lanes(&[3]));
    }

    #[test]
    fn kftm_exc_second_vpl_round_makes_progress() {
        // Figure 2(b), round 2: k_todo begins at the serialization point.
        let k_todo = Mask::suffix_from(6);
        let k_stop = Mask::from_lanes(&[6]);
        assert_eq!(kftm_exc(k_todo, k_stop), k_todo);
        // With a further conflict at lane 10 the safe prefix stops there.
        let k_stop2 = Mask::from_lanes(&[6, 10]);
        assert_eq!(kftm_exc(k_todo, k_stop2), Mask::from_lanes(&[6, 7, 8, 9]));
    }

    #[test]
    fn kftm_empty_write_mask() {
        assert_eq!(kftm_exc(Mask::EMPTY, Mask::full()), Mask::EMPTY);
        assert_eq!(kftm_inc(Mask::EMPTY, Mask::full()), Mask::EMPTY);
    }

    #[test]
    fn kftm_inc_is_exc_plus_stop_lane() {
        // When the first enabled stop bit is NOT on the first enabled lane,
        // the inclusive mask is exactly the exclusive mask plus that lane.
        for stop_bits in [0b100100u64, 0b1000_0000_0000_0000, 0x0860] {
            for enabled in [0xffffu64, 0x0ff0, 0xaaab] {
                let k2 = Mask::from_bits(enabled);
                let k3 = Mask::from_bits(stop_bits);
                let first = k2.first_set().unwrap();
                let Some(stop) = (k3 & k2).first_set() else {
                    assert_eq!(kftm_inc(k2, k3), kftm_exc(k2, k3));
                    continue;
                };
                if stop == first {
                    continue; // boundary-skip case, checked separately
                }
                let exc = kftm_exc(k2, k3);
                let inc = kftm_inc(k2, k3);
                assert_eq!(exc & inc, exc, "exc ⊆ inc");
                assert_eq!(inc, exc | Mask::from_lanes(&[stop]));
            }
        }
    }

    // --- VPSLCTLAST paper example (Section 3.5) ---------------------------

    #[test]
    fn vpslctlast_paper_example() {
        // v1 = a b c d e f g h i j k l m n o p, encoded as 0..=15;
        // k1 enables lanes 3..=7, so the broadcast value is lane 7 = 'h'.
        let v1 = Vector::iota();
        let k1 = m("0 0 0 1 1 1 1 1 0 0 0 0 0 0 0 0");
        assert_eq!(vpslctlast(k1, v1), Vector::splat(7));
    }

    #[test]
    fn vpslctlast_empty_mask_selects_last_lane() {
        let v1 = Vector::from_fn(|i| (i * i) as i64);
        assert_eq!(vpslctlast(Mask::EMPTY, v1), Vector::splat(225));
    }

    #[test]
    fn vpslctlast_single_lane() {
        let v1 = Vector::iota();
        assert_eq!(vpslctlast(Mask::from_lanes(&[0]), v1), Vector::splat(0));
        assert_eq!(vpslctlast(Mask::from_lanes(&[15]), v1), Vector::splat(15));
    }

    // --- VPCONFLICTM paper examples (Section 3.6) -------------------------

    /// First example: no write mask (all lanes of v2 enabled).
    /// 'a' is encoded as 10.
    #[test]
    fn vpconflictm_paper_example_unmasked() {
        let v1 = Vector::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 5, 7, 9, 9, 10, 10]);
        let v2 = Vector::from_slice(&[0, 0, 0, 1, 5, 7, 9, 2, 0, 2, 3, 4, 0, 9, 10, 10]);
        let k1 = vpconflictm(Mask::full(), v1, v2);
        assert_eq!(k1, m("0 0 0 0 0 0 1 0 1 0 0 0 0 0 0 1"));
    }

    /// Second example: write mask enables only lanes 8..=15 of v2, so the
    /// conflicts through lanes 5 and 6 disappear and only lane 15 remains.
    #[test]
    fn vpconflictm_paper_example_masked() {
        let v1 = Vector::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 5, 7, 9, 9, 10, 10]);
        let v2 = Vector::from_slice(&[0, 0, 0, 1, 5, 7, 9, 2, 0, 2, 3, 4, 0, 9, 10, 10]);
        let k2 = m("0 0 0 0 0 0 0 0 1 1 1 1 1 1 1 1");
        let k1 = vpconflictm(k2, v1, v2);
        assert_eq!(k1, m("0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1"));
    }

    #[test]
    fn vpconflictm_no_conflicts() {
        let v1 = Vector::iota();
        let v2 = Vector::from_fn(|i| 100 + i as i64);
        assert_eq!(vpconflictm(Mask::full(), v1, v2), Mask::EMPTY);
    }

    #[test]
    fn vpconflictm_all_same_address() {
        // Every lane stores to and loads from the same location: each lane
        // after the first conflicts with its immediate predecessor, giving a
        // serialization point per lane — the fully serialized case.
        let v = Vector::splat(42);
        let k1 = vpconflictm(Mask::full(), v, v);
        assert_eq!(k1, !Mask::from_lanes(&[0]));
    }

    #[test]
    fn vpconflictm_window_restarts_at_conflict() {
        // v2 has 7 at lane 0 only. v1 looks for 7 at lanes 3 and 5.
        // Lane 3 conflicts (window 0..3 sees lane 0). The window restarts at
        // 3, so lane 5 does NOT see lane 0's store again.
        let mut v1 = Vector::ZERO;
        v1[3] = 7;
        v1[5] = 7;
        let mut v2 = Vector::from_fn(|i| -(i as i64) - 1);
        v2[0] = 7;
        let k1 = vpconflictm(Mask::full(), v1, v2);
        assert_eq!(k1, Mask::from_lanes(&[3]));
    }

    #[test]
    fn vpconflictm_lane0_never_conflicts() {
        // Lane 0 has no preceding elements, so its bit can never be set.
        let v = Vector::splat(1);
        for bits in [0xffffu64, 0x00ff, 0xf00f] {
            assert!(!vpconflictm(Mask::from_bits(bits), v, v).get(0));
        }
    }
}
