//! Strictly ascending vectors as sets and maps: the flat storage under
//! [`OrSet`](crate::OrSet) and the gossip journal's version vector. A merge
//! is one two-cursor walk that leaves `dst` ascending and allocates nothing
//! when `src` adds nothing — the common case between converged replicas.

use rdv_wire::{Decode, WireReader, WireResult};

/// Union the ascending, duplicate-free `src` into `dst`; `true` if `dst`
/// grew.
pub(crate) fn union_into<'a, X: Ord + Clone + 'a>(
    dst: &mut Vec<X>,
    src: impl IntoIterator<Item = &'a X>,
) -> bool {
    let old = dst.len();
    let mut i = 0;
    for x in src {
        while i < old && dst[i] < *x {
            i += 1;
        }
        if i == old || dst[i] != *x {
            dst.push(x.clone());
        }
    }
    if dst.len() == old {
        return false;
    }
    // Two ascending runs: the stable sort finds them and merges once.
    dst.sort();
    true
}

/// Pointwise maximum of two `key → value` maps held as key-ascending
/// vectors (a version vector, a per-replica counter table): raise `dst` to
/// cover `src`; `true` if any slot rose or appeared. An ascending `src`
/// makes this one linear walk; entries out of order or repeated still merge
/// correctly, each at the price of a binary search.
pub fn max_into(dst: &mut Vec<(u64, u64)>, src: &[(u64, u64)]) -> bool {
    let old = dst.len();
    let (mut i, mut changed) = (0, false);
    for &(k, v) in src {
        if i > 0 && dst[i - 1].0 >= k {
            i = dst[..old].partition_point(|e| e.0 < k);
        }
        while i < old && dst[i].0 < k {
            i += 1;
        }
        if i == old || dst[i].0 != k {
            dst.push((k, v));
        } else if v > dst[i].1 {
            dst[i].1 = v;
            changed = true;
        }
    }
    if dst.len() == old {
        return changed;
    }
    // As in `union_into`; a key pushed twice keeps its larger value, which
    // the tuple order has put last.
    dst.sort();
    dst.dedup_by(|later, kept| {
        later.0 == kept.0 && {
            kept.1 = later.1;
            true
        }
    });
    true
}

/// Decode a `key → value` table written as `Vec<(u64, u64)>` (count, then
/// varint pairs), ascending by key whatever order it arrived in. The count
/// is checked against the bytes behind it before anything is reserved.
pub fn decode_pairs(r: &mut WireReader<'_>) -> WireResult<Vec<(u64, u64)>> {
    let n = r.get_count(2)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(<(u64, u64)>::decode(r)?);
    }
    if !out.is_sorted_by(|a, b| a.0 < b.0) {
        let raw = std::mem::take(&mut out);
        max_into(&mut out, &raw);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn union_reports_growth_only() {
        let mut v = vec![1, 3, 5];
        assert!(!union_into(&mut v, &[1, 5]));
        assert!(!union_into(&mut v, &[]));
        assert!(union_into(&mut v, &[0, 3, 4, 9]));
        assert_eq!(v, [0, 1, 3, 4, 5, 9]);
    }

    #[test]
    fn max_into_tolerates_disorder_and_repeats() {
        let mut v = vec![(1, 5), (5, 1), (10, 2)];
        assert!(!max_into(&mut v, &[(10, 2), (5, 1), (1, 4)]));
        assert!(max_into(&mut v, &[(10, 1), (7, 3), (5, 9), (7, 8), (7, 2)]));
        assert_eq!(v, [(1, 5), (5, 9), (7, 8), (10, 2)]);
    }

    proptest! {
        #[test]
        fn prop_match_btree_models(
            a in proptest::collection::vec(0u8..32, 0..16),
            b in proptest::collection::vec(0u8..32, 0..16),
            m in proptest::collection::vec((0u64..16, 0u64..8), 0..10),
            raw in proptest::collection::vec((0u64..16, 0u64..8), 0..12),
        ) {
            let (a, b): (BTreeSet<u8>, BTreeSet<u8>) = (a.into_iter().collect(), b.into_iter().collect());
            let m: BTreeMap<u64, u64> = m.into_iter().collect();
            let (va, vb): (Vec<u8>, Vec<u8>) = (a.iter().copied().collect(), b.iter().copied().collect());
            let mut u = va.clone();
            prop_assert_eq!(union_into(&mut u, &vb), !b.is_subset(&a));
            prop_assert_eq!(&u, &a.union(&b).copied().collect::<Vec<_>>());

            let mut model: BTreeMap<u64, u64> = m.clone();
            for &(k, v) in &raw {
                let slot = model.entry(k).or_insert(v);
                *slot = (*slot).max(v);
            }
            let mut flat: Vec<(u64, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(max_into(&mut flat, &raw), model != m);
            prop_assert_eq!(flat, model.into_iter().collect::<Vec<_>>());
        }
    }
}
