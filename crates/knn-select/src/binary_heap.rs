//! Array-backed binary max-heap with a bounded capacity `k`.
//!
//! This is the selection structure of §2.2 ("Maximum heap select"): the
//! root holds the current k-th nearest distance, a candidate that does not
//! beat the root is rejected with a single comparison (the O(n) best case),
//! and a candidate that does replaces the root and sifts down
//! (O(log k) worst case per accepted candidate).

use crate::Neighbor;
use gsknn_scalar::GsknnScalar;

/// Bounded binary max-heap of [`Neighbor`]s ordered by `(dist, idx)`.
///
/// While the heap holds fewer than `k` entries, [`BinaryMaxHeap::push`]
/// inserts unconditionally; once full it becomes a replace-root filter.
/// [`BinaryMaxHeap::threshold`] exposes the pruning bound the fused kernel
/// compares freshly computed distances against.
///
/// ```
/// use knn_select::{BinaryMaxHeap, Neighbor};
/// let mut heap = BinaryMaxHeap::new(2);
/// for (i, d) in [9.0, 1.0, 5.0, 3.0].iter().enumerate() {
///     heap.push(Neighbor::new(*d, i as u32));
/// }
/// let kept: Vec<f64> = heap.into_sorted_vec().iter().map(|n| n.dist).collect();
/// assert_eq!(kept, vec![1.0, 3.0]);
/// ```
#[derive(Clone, Debug)]
pub struct BinaryMaxHeap<T: GsknnScalar = f64> {
    k: usize,
    data: Vec<Neighbor<T>>,
}

impl<T: GsknnScalar> BinaryMaxHeap<T> {
    /// Empty heap with capacity `k`.
    pub fn new(k: usize) -> Self {
        BinaryMaxHeap {
            k,
            data: Vec::with_capacity(k),
        }
    }

    /// Build a heap from an existing *sorted or unsorted* row of at most
    /// `k` neighbors; sentinel (+∞) entries are dropped. O(k): see
    /// [`BinaryMaxHeap::reset_from_row`].
    pub fn from_row(k: usize, row: &[Neighbor<T>]) -> Self {
        let mut heap = BinaryMaxHeap::new(k);
        heap.reset_from_row(k, row);
        heap
    }

    /// Re-initialize in place to exactly what [`BinaryMaxHeap::from_row`]
    /// builds, keeping the backing storage: one pass over `row` for the
    /// finite entries, then Floyd's O(k) bottom-up heapify.
    pub fn reset_from_row(&mut self, k: usize, row: &[Neighbor<T>]) {
        self.k = k;
        self.data.clear();
        self.data
            .extend(row.iter().copied().filter(|n| n.dist.is_finite()));
        assert!(self.data.len() <= k, "row longer than heap capacity");
        // Floyd heapify: sift down every internal node from the last parent.
        for i in (0..self.data.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Overwrite the stored entries with `entries` (at most `k`, any
    /// order) **without** restoring heap order: `push`, `push_unique`,
    /// `threshold` and `root` mean nothing until
    /// [`BinaryMaxHeap::restore_order`] has run. For a caller that
    /// rewrites the whole set several times before anyone reads the heap
    /// — the mid-block compactions of [`crate::Reservoir`], which keep
    /// the pruning bound themselves.
    pub fn refill_unordered(&mut self, entries: &[Neighbor<T>]) {
        assert!(entries.len() <= self.k, "more entries than heap capacity");
        self.data.clear();
        self.data.extend_from_slice(entries);
    }

    /// Make the stored entries a heap again by sorting them descending —
    /// an array in descending order satisfies the max-heap property at
    /// every node. O(k log k) where Floyd's heapify is O(k), but the row
    /// is sorted once either way ([`BinaryMaxHeap::sorted_into`] on a
    /// descending array is one reversed run, O(k)), and at k = 512 the
    /// sort costs 11.5 µs against 5.1 µs of heapify *plus* the same
    /// 11.5 µs at writeback.
    pub fn restore_order(&mut self) {
        self.data
            .sort_unstable_by(|a, b| Neighbor::cmp_dist_idx(b, a));
    }

    /// Capacity `k`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Current number of stored neighbors.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when no neighbors are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` once `k` neighbors are stored.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.data.len() == self.k
    }

    /// The pruning bound: the current worst kept distance when full,
    /// +∞ otherwise. A candidate with `dist >= threshold()` can only be
    /// accepted via the tie-break on index, and `dist > threshold()` never.
    #[inline(always)]
    pub fn threshold(&self) -> T {
        if self.k > 0 && self.is_full() {
            self.data[0].dist
        } else {
            T::INFINITY
        }
    }

    /// The current root (worst kept neighbor), if any.
    #[inline]
    pub fn root(&self) -> Option<Neighbor<T>> {
        self.data.first().copied()
    }

    /// Offer a candidate. Returns `true` if it was kept.
    #[inline]
    pub fn push(&mut self, cand: Neighbor<T>) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.data.len() < self.k {
            self.data.push(cand);
            self.sift_up(self.data.len() - 1);
            true
        } else if cand.beats(&self.data[0]) {
            self.data[0] = cand;
            self.sift_down(0);
            true
        } else {
            false
        }
    }

    /// As [`BinaryMaxHeap::push`], but never stores the same reference id
    /// twice: a candidate whose `idx` is already present is dropped. Used
    /// when the heap was seeded from an existing neighbor list and the
    /// incoming candidate stream may re-visit stored neighbors (the
    /// iterated approximate solvers) — without the membership check a
    /// duplicate would evict a genuine k-th neighbor. O(k) scan, but only
    /// on candidates that pass the root filter.
    #[inline]
    pub fn push_unique(&mut self, cand: Neighbor<T>) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.data.len() == self.k && !cand.beats(&self.data[0]) {
            return false;
        }
        if self.data.iter().any(|n| n.idx == cand.idx) {
            return false;
        }
        self.push(cand)
    }

    /// Drain into an ascending `(dist, idx)`-sorted vector (reversed
    /// first, for the reason [`BinaryMaxHeap::sorted_into`] gives).
    pub fn into_sorted_vec(mut self) -> Vec<Neighbor<T>> {
        self.data.reverse();
        self.data.sort_unstable_by(Neighbor::cmp_dist_idx);
        self.data
    }

    /// Empty the heap and set a new capacity, keeping the backing
    /// storage — observably identical to [`BinaryMaxHeap::new`] but
    /// allocation-free once the heap has grown to its largest `k`.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.data.clear();
    }

    /// Append the stored neighbors to `out` in ascending `(dist, idx)`
    /// order without consuming the heap. The storage is copied back to
    /// front: after [`BinaryMaxHeap::restore_order`] it is descending, so
    /// the copy is already ascending and the sort below is one pass over
    /// a finished run — duplicates of one `(dist, idx)` included, which a
    /// reversed-run check (strictly descending) would stop at.
    pub fn sorted_into(&self, out: &mut Vec<Neighbor<T>>) {
        let start = out.len();
        out.extend(self.data.iter().rev());
        out[start..].sort_unstable_by(Neighbor::cmp_dist_idx);
    }

    /// Borrowed view of the raw (heap-ordered) storage.
    pub fn as_slice(&self) -> &[Neighbor<T>] {
        &self.data
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.data[i].beats(&self.data[parent]) {
                break; // child smaller than parent: heap property holds
            }
            self.data.swap(i, parent);
            i = parent;
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.data.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            // pick the larger child under (dist, idx) order
            let mut big = l;
            if r < n && self.data[l].beats(&self.data[r]) {
                big = r;
            }
            if self.data[big].beats(&self.data[i]) {
                break; // both children smaller: done
            }
            self.data.swap(i, big);
            i = big;
        }
    }

    /// Verify the max-heap invariant; used by tests and debug assertions.
    pub fn check_invariant(&self) -> bool {
        (1..self.data.len()).all(|i| {
            let parent = (i - 1) / 2;
            !self.data[parent].beats(&self.data[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(d: f64, i: u32) -> Neighbor {
        Neighbor::new(d, i)
    }

    #[test]
    fn keeps_k_smallest() {
        let mut h = BinaryMaxHeap::new(3);
        for (i, d) in [9.0, 2.0, 7.0, 1.0, 5.0, 3.0].iter().enumerate() {
            h.push(n(*d, i as u32));
            assert!(h.check_invariant());
        }
        let got: Vec<f64> = h.into_sorted_vec().iter().map(|x| x.dist).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn f32_heap_keeps_k_smallest() {
        let mut h = BinaryMaxHeap::<f32>::new(3);
        for (i, d) in [9.0f32, 2.0, 7.0, 1.0, 5.0, 3.0].iter().enumerate() {
            h.push(Neighbor::new(*d, i as u32));
            assert!(h.check_invariant());
        }
        assert_eq!(h.threshold(), 3.0f32);
        let got: Vec<f32> = h.into_sorted_vec().iter().map(|x| x.dist).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn threshold_is_inf_until_full() {
        let mut h = BinaryMaxHeap::new(2);
        assert_eq!(h.threshold(), f64::INFINITY);
        h.push(n(1.0, 0));
        assert_eq!(h.threshold(), f64::INFINITY);
        h.push(n(2.0, 1));
        assert_eq!(h.threshold(), 2.0);
        h.push(n(0.5, 2));
        assert_eq!(h.threshold(), 1.0);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut h = BinaryMaxHeap::new(0);
        assert!(!h.push(n(1.0, 0)));
        assert!(h.into_sorted_vec().is_empty());
    }

    #[test]
    fn reset_behaves_like_new() {
        let mut h = BinaryMaxHeap::new(3);
        for (i, d) in [9.0, 2.0, 7.0, 1.0].iter().enumerate() {
            h.push(n(*d, i as u32));
        }
        h.reset(2);
        assert_eq!(h.threshold(), f64::INFINITY);
        for (i, d) in [5.0, 3.0, 4.0].iter().enumerate() {
            h.push(n(*d, 10 + i as u32));
            assert!(h.check_invariant());
        }
        let got: Vec<f64> = h.into_sorted_vec().iter().map(|x| x.dist).collect();
        assert_eq!(got, vec![3.0, 4.0]);
    }

    #[test]
    fn sorted_into_matches_into_sorted_vec_and_appends() {
        let mut h = BinaryMaxHeap::new(4);
        for (i, d) in [9.0, 2.0, 7.0, 1.0, 5.0].iter().enumerate() {
            h.push(n(*d, i as u32));
        }
        let mut out = vec![n(-1.0, 99)];
        h.sorted_into(&mut out);
        assert_eq!(out[0], n(-1.0, 99), "existing entries untouched");
        assert_eq!(out[1..].to_vec(), h.into_sorted_vec());
    }

    #[test]
    fn tie_break_prefers_smaller_index() {
        let mut h = BinaryMaxHeap::new(1);
        h.push(n(1.0, 9));
        assert!(h.push(n(1.0, 3)), "equal dist, smaller idx must replace");
        assert!(!h.push(n(1.0, 5)), "equal dist, larger idx must not");
        assert_eq!(h.into_sorted_vec()[0].idx, 3);
    }

    #[test]
    fn from_row_heapifies() {
        let row = [n(1.0, 0), n(5.0, 1), n(3.0, 2), n(4.0, 3)];
        let h = BinaryMaxHeap::from_row(4, &row);
        assert!(h.check_invariant());
        assert_eq!(h.threshold(), 5.0);
    }

    #[test]
    fn from_row_drops_sentinels() {
        let row = [n(1.0, 0), Neighbor::sentinel(), n(3.0, 2)];
        let h = BinaryMaxHeap::from_row(3, &row);
        assert_eq!(h.len(), 2);
        assert_eq!(h.threshold(), f64::INFINITY); // not full yet
    }

    #[test]
    fn nan_candidates_never_evict_real_neighbors() {
        // A full heap rejects NaN (NaN beats nothing under `beats`); the
        // kernel boundary rejects NaN inputs, but the heap itself must
        // stay well-behaved if one slips through.
        let mut h = BinaryMaxHeap::new(2);
        h.push(n(1.0, 0));
        h.push(n(2.0, 1));
        assert!(!h.push(n(f64::NAN, 9)));
        assert!(h.check_invariant());
        let got = h.into_sorted_vec();
        assert_eq!(got.iter().map(|x| x.idx).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn nan_in_partial_heap_sorts_last_and_keeps_invariant() {
        // While not full, pushes are unconditional — a NaN is stored but
        // never breaks the heap invariant (it compares as "not beating"),
        // and total_cmp sorts it after every real distance on drain.
        let mut h = BinaryMaxHeap::new(4);
        h.push(n(f64::NAN, 7));
        h.push(n(5.0, 1));
        h.push(n(f64::INFINITY, 2));
        assert!(h.check_invariant());
        let got = h.into_sorted_vec();
        assert_eq!(got[0].idx, 1);
        assert_eq!(got[1].dist, f64::INFINITY);
        assert!(got[2].dist.is_nan());
    }

    #[test]
    fn infinity_candidates_behave_like_sentinels() {
        let mut h = BinaryMaxHeap::<f32>::new(2);
        h.push(Neighbor::new(f32::INFINITY, 5));
        h.push(Neighbor::new(1.0f32, 0));
        assert_eq!(h.threshold(), f32::INFINITY); // worst kept is +inf
        assert!(h.push(Neighbor::new(2.0f32, 1)), "finite beats +inf");
        let got = h.into_sorted_vec();
        assert_eq!(got.iter().map(|x| x.idx).collect::<Vec<_>>(), vec![0, 1]);
    }

    proptest! {
        #[test]
        fn matches_sort_truncate(dists in prop::collection::vec(0.0f64..100.0, 0..200), k in 0usize..20) {
            let cands: Vec<Neighbor> =
                dists.iter().enumerate().map(|(i, &d)| n(d, i as u32)).collect();
            let mut h = BinaryMaxHeap::new(k);
            for &c in &cands { h.push(c); }
            prop_assert!(h.check_invariant());
            let got = h.into_sorted_vec();
            let mut want = cands.clone();
            want.sort_unstable_by(Neighbor::cmp_dist_idx);
            want.truncate(k);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn invariant_after_every_push(dists in prop::collection::vec(0.0f64..10.0, 1..100)) {
            let mut h = BinaryMaxHeap::new(7);
            for (i, &d) in dists.iter().enumerate() {
                h.push(n(d, i as u32));
                prop_assert!(h.check_invariant());
                prop_assert!(h.len() <= 7);
            }
        }

        #[test]
        fn from_row_equals_pushes(dists in prop::collection::vec(0.0f64..10.0, 0..16)) {
            let row: Vec<Neighbor> =
                dists.iter().enumerate().map(|(i, &d)| n(d, i as u32)).collect();
            let built = BinaryMaxHeap::from_row(16, &row);
            let mut pushed = BinaryMaxHeap::new(16);
            for &c in &row { pushed.push(c); }
            prop_assert!(built.check_invariant());
            prop_assert_eq!(built.into_sorted_vec(), pushed.into_sorted_vec());
        }

        #[test]
        fn f32_heap_agrees_with_f64_on_exact_values(
            dists in prop::collection::vec(0u16..1000, 0..100),
            k in 1usize..16,
        ) {
            // u16-derived distances are exactly representable in both
            // precisions, so the two heaps must keep identical index sets.
            let mut h64 = BinaryMaxHeap::<f64>::new(k);
            let mut h32 = BinaryMaxHeap::<f32>::new(k);
            for (i, &d) in dists.iter().enumerate() {
                h64.push(Neighbor::new(d as f64, i as u32));
                h32.push(Neighbor::new(d as f32, i as u32));
            }
            let i64s: Vec<u32> = h64.into_sorted_vec().iter().map(|x| x.idx).collect();
            let i32s: Vec<u32> = h32.into_sorted_vec().iter().map(|x| x.idx).collect();
            prop_assert_eq!(i64s, i32s);
        }
    }
}
