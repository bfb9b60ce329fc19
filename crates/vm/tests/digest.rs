//! The array digest a [`flexvec_vm::Record`] keeps per array: changing
//! any one element of any array must change that array's digest, and
//! only that one. Replays of a verified variant rest on this: a replay
//! whose memory differs from the verified run in one element fails.

use flexvec_vm::digest;
use proptest::prelude::*;

/// Digests of `arrays` after `edit` changes element `i` of array `a`
/// must differ from the originals at `a` alone.
fn only_the_edited_array_changes(
    arrays: &[Vec<i64>],
    a: usize,
    i: usize,
    edit: impl Fn(i64) -> i64,
) -> Result<(), TestCaseError> {
    let before: Vec<u64> = arrays.iter().map(|x| digest(x)).collect();
    let mut changed = arrays.to_vec();
    changed[a][i] = edit(changed[a][i]);
    prop_assert_ne!(changed[a][i], arrays[a][i]);
    for (k, array) in changed.iter().enumerate() {
        if k == a {
            prop_assert_ne!(digest(array), before[k], "array {}, element {}", a, i);
        } else {
            prop_assert_eq!(digest(array), before[k]);
        }
    }
    Ok(())
}

fn arrays() -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(any::<i64>(), 1..300), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn adding_to_any_element_changes_its_arrays_digest(
        arrays in arrays(),
        pick in (any::<usize>(), any::<usize>(), any::<i64>()),
    ) {
        let (a, i, delta) = pick;
        let a = a % arrays.len();
        let i = i % arrays[a].len();
        let delta = if delta == 0 { 1 } else { delta };
        only_the_edited_array_changes(&arrays, a, i, |x| x.wrapping_add(delta))?;
    }

    #[test]
    fn flipping_any_bit_of_any_element_changes_its_arrays_digest(
        arrays in arrays(),
        pick in (any::<usize>(), any::<usize>(), 0u32..64),
    ) {
        let (a, i, bit) = pick;
        let a = a % arrays.len();
        let i = i % arrays[a].len();
        only_the_edited_array_changes(&arrays, a, i, |x| x ^ (1 << bit))?;
    }
}

#[test]
fn every_bit_of_every_element_of_short_arrays_counts() {
    for len in 0..=9usize {
        let array: Vec<i64> = (0..len as i64).map(|x| x * 7 - 20).collect();
        let truth = digest(&array);
        for i in 0..len {
            for bit in 0..64 {
                let mut changed = array.clone();
                changed[i] ^= 1 << bit;
                assert_ne!(digest(&changed), truth, "len {len}, element {i}, bit {bit}");
            }
        }
        // The length counts too: an appended zero is not invisible.
        let mut longer = array.clone();
        longer.push(0);
        assert_ne!(digest(&longer), truth, "len {len}");
    }
}
