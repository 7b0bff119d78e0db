//! Quickselect (Hoare's FIND, [Hoare 1961]) — the Table 3 "Quick Select"
//! baseline: O(n) average selection of the k smallest, O(n + k) best case
//! when updating an existing neighbor list (concatenate and re-select).
//!
//! [`select_k_smallest`] is also the reservoir's compaction step
//! ([`crate::Reservoir`]). It is the standard library's introselect under
//! [`Neighbor::cmp_dist_idx`]: on a row of 2·512 candidates that took
//! 3.0 µs where this module's former median-of-3 three-way partition took
//! 15.7 µs (2.9 vs 15.3 ns per element; same ratio at 2·128 and 2·2048,
//! within 20 % at 2·16), so the hand-written partition is gone.
//!
//! [Hoare 1961]: https://doi.org/10.1145/366622.366647

use crate::Neighbor;
use gsknn_scalar::GsknnScalar;

/// Partition `buf` in place so that its first `min(k, len)` entries are
/// the smallest under `(dist, idx)` and return that count. The kept
/// entries are in unspecified order, except that when `k <= len` the
/// largest of them — the k-th smallest of `buf` — is last (`buf[k - 1]`).
///
/// The order is [`Neighbor::cmp_dist_idx`], so a (positive) NaN sorts
/// after every number and is kept only when fewer than `k` numbers exist.
pub fn select_k_smallest<T: GsknnScalar>(buf: &mut [Neighbor<T>], k: usize) -> usize {
    if k == 0 || k > buf.len() {
        return k.min(buf.len());
    }
    buf.select_nth_unstable_by(k - 1, Neighbor::cmp_dist_idx);
    k
}

/// [`select_k_smallest`], returning the kept entries (unordered) as a
/// vector.
pub fn quickselect_k_smallest<T: GsknnScalar>(
    buf: &mut [Neighbor<T>],
    k: usize,
) -> Vec<Neighbor<T>> {
    let kept = select_k_smallest(buf, k);
    buf[..kept].to_vec()
}

/// Update a sorted neighbor list with new candidates: concatenate and
/// re-select, the paper's O(n + k) list-update scheme. Returns the new
/// sorted list of at most `k` entries.
pub fn quickselect_update<T: GsknnScalar>(
    list: &[Neighbor<T>],
    cands: &[Neighbor<T>],
    k: usize,
) -> Vec<Neighbor<T>> {
    let mut all = Vec::with_capacity(list.len() + cands.len());
    all.extend(list.iter().copied().filter(|n| n.dist.is_finite()));
    all.extend_from_slice(cands);
    let mut out = quickselect_k_smallest(&mut all, k);
    out.sort_unstable_by(Neighbor::cmp_dist_idx);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(d: f64, i: u32) -> Neighbor {
        Neighbor::new(d, i)
    }

    #[test]
    fn selects_k_smallest() {
        let mut buf: Vec<Neighbor> = [9.0, 2.0, 7.0, 1.0, 5.0, 3.0, 8.0, 4.0, 6.0, 0.0]
            .iter()
            .enumerate()
            .map(|(i, &d)| n(d, i as u32))
            .collect();
        let mut got = quickselect_k_smallest(&mut buf, 4);
        got.sort_unstable_by(Neighbor::cmp_dist_idx);
        let d: Vec<f64> = got.iter().map(|x| x.dist).collect();
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0]);
    }

    fn ids(buf: &[Neighbor]) -> Vec<u32> {
        let mut ids: Vec<u32> = buf.iter().map(|x| x.idx).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn select_with_k_zero_keeps_nothing() {
        let mut buf = vec![n(2.0, 0), n(1.0, 1)];
        assert_eq!(select_k_smallest(&mut buf, 0), 0);
        assert_eq!(select_k_smallest::<f64>(&mut [], 0), 0);
        assert_eq!(select_k_smallest::<f64>(&mut [], 3), 0);
    }

    #[test]
    fn select_with_k_at_or_past_len_keeps_everything() {
        let mut buf = vec![n(2.0, 0), n(3.0, 1), n(1.0, 2)];
        assert_eq!(select_k_smallest(&mut buf, 7), 3);
        assert_eq!(ids(&buf), vec![0, 1, 2]);
        // k == len: still the whole set, with its largest entry last
        assert_eq!(select_k_smallest(&mut buf, 3), 3);
        assert_eq!(buf[2], n(3.0, 1));
    }

    #[test]
    fn select_puts_the_kth_smallest_last_among_the_kept() {
        let mut buf: Vec<Neighbor> = [9.0, 2.0, 7.0, 1.0, 5.0, 3.0, 8.0]
            .iter()
            .enumerate()
            .map(|(i, &d)| n(d, i as u32))
            .collect();
        assert_eq!(select_k_smallest(&mut buf, 3), 3);
        assert_eq!(buf[2], n(3.0, 5));
        assert_eq!(ids(&buf[..3]), vec![1, 3, 5]);
    }

    #[test]
    fn select_on_equal_distances_decides_by_id() {
        let mut buf: Vec<Neighbor> = (0..64).rev().map(|i| n(0.25, i)).collect();
        assert_eq!(select_k_smallest(&mut buf, 6), 6);
        assert_eq!(ids(&buf[..6]), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(buf[5].idx, 5);
    }

    #[test]
    fn select_never_prefers_a_nan_to_a_number() {
        let mut buf = vec![
            n(f64::NAN, 0),
            n(4.0, 1),
            n(f64::INFINITY, 2),
            n(f64::NAN, 3),
            n(1.0, 4),
        ];
        assert_eq!(select_k_smallest(&mut buf, 3), 3);
        assert_eq!(ids(&buf[..3]), vec![1, 2, 4]);
        // only when the numbers run out
        assert_eq!(select_k_smallest(&mut buf, 4), 4);
        assert_eq!(buf[..4].iter().filter(|x| x.dist.is_nan()).count(), 1);
    }

    #[test]
    fn k_equal_len_is_identity_set() {
        let mut buf = vec![n(2.0, 0), n(1.0, 1)];
        let got = quickselect_k_smallest(&mut buf, 2);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn update_keeps_sorted_k() {
        let list = vec![n(1.0, 0), n(4.0, 1), n(9.0, 2)];
        let cands = vec![n(2.0, 10), n(11.0, 11)];
        let got = quickselect_update(&list, &cands, 3);
        let d: Vec<f64> = got.iter().map(|x| x.dist).collect();
        assert_eq!(d, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn update_ignores_sentinels_in_list() {
        let list = vec![n(1.0, 0), Neighbor::sentinel()];
        let got = quickselect_update(&list, &[n(0.5, 3)], 2);
        let d: Vec<f64> = got.iter().map(|x| x.dist).collect();
        assert_eq!(d, vec![0.5, 1.0]);
    }

    #[test]
    fn all_equal_distances() {
        let mut buf: Vec<Neighbor> = (0..50).map(|i| n(1.0, i as u32)).collect();
        let mut got = quickselect_k_smallest(&mut buf, 5);
        got.sort_unstable_by(Neighbor::cmp_dist_idx);
        // tie-break: the 5 smallest indices
        let ids: Vec<u32> = got.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    proptest! {
        #[test]
        fn matches_sort(dists in prop::collection::vec(0.0f64..100.0, 1..400), k in 1usize..50) {
            let cands: Vec<Neighbor> =
                dists.iter().enumerate().map(|(i, &d)| n(d, i as u32)).collect();
            let mut buf = cands.clone();
            let mut got = quickselect_k_smallest(&mut buf, k);
            got.sort_unstable_by(Neighbor::cmp_dist_idx);
            let mut want = cands;
            want.sort_unstable_by(Neighbor::cmp_dist_idx);
            want.truncate(k);
            prop_assert_eq!(got, want);
        }
    }
}
