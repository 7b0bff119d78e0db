//! Append-then-compact selection for a block of query rows.
//!
//! A bounded heap pays a compare tree per accepted candidate — O(log k)
//! dependent, badly predicted steps through `k` entries. A [`Reservoir`]
//! row instead takes a candidate with one store; when `k` of them have
//! been appended, one *compaction* selects the `k` smallest of kept ∪
//! appended ([`crate::select_k_smallest`], O(2k)) and hands back the new
//! pruning bound. Selection is exact under the same `(dist, idx)` order:
//! the caller filters candidates against a bound that is the k-th
//! smallest distance of *some* of the candidates seen so far, hence never
//! below the true k-th distance, and `<=` lets ties through to the
//! compaction, which resolves them by index.
//!
//! The kept entries of a row live in that query's own [`BinaryMaxHeap`]
//! (capacity `k`); the reservoir adds `k` appended entries per row *of
//! the block in flight*, plus one `2k` scratch row — its size follows the
//! block, never the number of queries. Between a row's first compaction
//! and [`Reservoir::finish_row`] the heap's storage is an unordered set;
//! `finish_row` makes it a heap again, so outside a block a row is
//! exactly the heap it would be had every candidate been pushed.

use crate::{select_k_smallest, BinaryMaxHeap, Neighbor};
use gsknn_scalar::GsknnScalar;

/// `len` of a row the reservoir does not take.
const BYPASS: u32 = u32::MAX;

/// What one compaction did to its row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Compacted<T: GsknnScalar = f64> {
    /// The row's pruning bound now: the k-th smallest kept distance, +∞
    /// while fewer than `k` entries are kept.
    pub threshold: T,
    /// How many of the entries appended since the previous compaction
    /// were kept.
    pub admitted: usize,
}

/// Block-local append buffers, one row per query of the block.
#[derive(Debug, Default)]
pub struct Reservoir<T: GsknnScalar = f64> {
    /// Appended entries a row holds before it must compact: the rows' `k`.
    cap: usize,
    /// Row pitch in `buf`: `cap` plus one cache line. `cap` is usually a
    /// power of two, and without the pad every row's write frontier would
    /// fall into the same cache sets.
    pitch: usize,
    /// Entries appended to row `i` since its last compaction, or
    /// [`BYPASS`].
    len: Vec<u32>,
    /// Whether a compaction left row `i`'s heap storage unordered.
    unordered: Vec<bool>,
    buf: Vec<Neighbor<T>>,
    /// Kept ∪ appended of the row being compacted.
    scratch: Vec<Neighbor<T>>,
}

impl<T: GsknnScalar> Reservoir<T> {
    /// Empty reservoir; storage is allocated by the first block that has
    /// a row to take.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a block with one row per item of `takes`: `true` rows are
    /// empty and accept [`Reservoir::append`], `false` rows are bypassed
    /// ([`Reservoir::takes`]). Every taken row's heap has capacity `k`
    /// (`k >= 1`). Storage only ever grows.
    pub fn begin_block(&mut self, k: usize, takes: impl Iterator<Item = bool>) {
        self.len.clear();
        self.len
            .extend(takes.map(|take| if take { 0 } else { BYPASS }));
        let rows = self.len.len();
        self.unordered.clear();
        self.unordered.resize(rows, false);
        if self.is_idle() {
            return;
        }
        assert!(
            (1..BYPASS as usize).contains(&k),
            "reservoir rows need 1 <= k < 2^32 - 1"
        );
        self.cap = k;
        self.pitch = k + (64 / std::mem::size_of::<Neighbor<T>>()).max(1);
        // exact: this is the one allocation of the kernel that scales with k
        let need = rows * self.pitch;
        if self.buf.len() < need {
            self.buf.reserve_exact(need - self.buf.len());
            self.buf.resize(need, Neighbor::sentinel());
        }
        self.scratch.clear();
        self.scratch.reserve_exact(2 * k);
    }

    /// Rows in the current block.
    pub fn rows(&self) -> usize {
        self.len.len()
    }

    /// Whether the current block has no row to take: a caller's hot loop
    /// reads this once and skips [`Reservoir::takes`] per candidate.
    pub fn is_idle(&self) -> bool {
        self.len.iter().all(|&l| l == BYPASS)
    }

    /// Bytes of storage held (it only grows: the largest block so far).
    pub fn footprint(&self) -> usize {
        let pair = std::mem::size_of::<Neighbor<T>>();
        (self.buf.capacity() + self.scratch.capacity()) * pair
            + self.len.capacity() * std::mem::size_of::<u32>()
            + self.unordered.capacity()
    }

    /// Whether `row` appends here (else its candidates go to its heap).
    #[inline(always)]
    pub fn takes(&self, row: usize) -> bool {
        self.len[row] != BYPASS
    }

    /// Store `cand` in `row`; `true` when that filled the row, which must
    /// then [`Reservoir::compact`] before its next append. The caller's
    /// filter (`cand.dist <= bound`, an ordered compare) never passes a
    /// NaN.
    #[inline(always)]
    pub fn append(&mut self, row: usize, cand: Neighbor<T>) -> bool {
        debug_assert!(self.takes(row) && !cand.dist.is_nan());
        let at = self.len[row] as usize;
        debug_assert!(at < self.cap, "append to a full row");
        self.buf[row * self.pitch + at] = cand;
        self.len[row] = at as u32 + 1;
        at + 1 == self.cap
    }

    /// Fold `row`'s appended entries into `kept`: afterwards `kept` stores
    /// the `k` smallest of its former entries and the appended ones — as
    /// an unordered set, until [`Reservoir::finish_row`] — and the row is
    /// empty again. Out of line: it runs once per `k` appends.
    #[cold]
    #[inline(never)]
    pub fn compact(&mut self, row: usize, kept: &mut BinaryMaxHeap<T>) -> Compacted<T> {
        let k = self.cap;
        assert_eq!(kept.capacity(), k, "row heap of another capacity");
        let appended = &self.buf[row * self.pitch..][..self.len[row] as usize];
        self.scratch.clear();
        self.scratch.extend_from_slice(kept.as_slice());
        self.scratch.extend_from_slice(appended);
        let done = if self.scratch.len() < k {
            Compacted {
                threshold: T::INFINITY,
                admitted: appended.len(),
            }
        } else {
            select_k_smallest(&mut self.scratch, k);
            let kth = self.scratch[k - 1];
            Compacted {
                threshold: kth.dist,
                admitted: appended
                    .iter()
                    .filter(|a| Neighbor::cmp_dist_idx(a, &kth).is_le())
                    .count(),
            }
        };
        self.scratch.truncate(k);
        kept.refill_unordered(&self.scratch);
        self.len[row] = 0;
        self.unordered[row] = true;
        done
    }

    /// End of the block for `row`: compact what is still appended (the
    /// result is returned) and restore `kept`'s heap order if any
    /// compaction of this block touched it.
    pub fn finish_row(&mut self, row: usize, kept: &mut BinaryMaxHeap<T>) -> Option<Compacted<T>> {
        let done = (self.len[row] > 0).then(|| self.compact(row, kept));
        if std::mem::take(&mut self.unordered[row]) {
            kept.restore_order();
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(d: f64, i: u32) -> Neighbor {
        Neighbor::new(d, i)
    }

    /// Offer `stream` to row 0 the way the macro-kernel does: filter
    /// against the bound, append, compact when full, finish at the end.
    /// Returns the compaction count.
    fn feed(res: &mut Reservoir, heap: &mut BinaryMaxHeap, stream: &[Neighbor]) -> usize {
        res.begin_block(heap.capacity(), std::iter::once(true));
        let mut bound = heap.threshold();
        let mut compactions = 0;
        for &c in stream {
            if c.dist <= bound && res.append(0, c) {
                bound = res.compact(0, heap).threshold;
                compactions += 1;
            }
        }
        if let Some(done) = res.finish_row(0, heap) {
            bound = done.threshold;
            compactions += 1;
        }
        assert_eq!(bound.to_bits(), heap.threshold().to_bits());
        assert!(heap.check_invariant());
        compactions
    }

    fn pushed(k: usize, streams: &[&[Neighbor]]) -> Vec<Neighbor> {
        let mut heap = BinaryMaxHeap::new(k);
        for &c in streams.iter().flat_map(|s| s.iter()) {
            heap.push(c);
        }
        heap.into_sorted_vec()
    }

    #[test]
    fn a_row_fills_compacts_and_tightens_its_bound() {
        let mut res = Reservoir::new();
        let mut heap = BinaryMaxHeap::new(2);
        res.begin_block(2, std::iter::once(true));
        assert!(!res.append(0, n(9.0, 0)));
        assert!(res.append(0, n(4.0, 1)), "k appends fill the row");
        let first = res.compact(0, &mut heap);
        assert_eq!((first.threshold, first.admitted), (9.0, 2));
        res.append(0, n(5.0, 2));
        assert!(res.append(0, n(1.0, 3)));
        let second = res.compact(0, &mut heap);
        assert_eq!((second.threshold, second.admitted), (4.0, 1));
        assert_eq!(res.finish_row(0, &mut heap), None, "nothing appended since");
        assert!(heap.check_invariant());
        assert_eq!(heap.into_sorted_vec(), vec![n(1.0, 3), n(4.0, 1)]);
    }

    #[test]
    fn fewer_candidates_than_k_are_all_kept_with_an_open_bound() {
        let mut res = Reservoir::new();
        let mut heap = BinaryMaxHeap::new(8);
        let stream = [n(3.0, 0), n(1.0, 1), n(2.0, 2)];
        assert_eq!(feed(&mut res, &mut heap, &stream), 1);
        assert_eq!(heap.threshold(), f64::INFINITY);
        assert_eq!(heap.into_sorted_vec(), pushed(8, &[&stream]));
    }

    #[test]
    fn equal_distances_keep_the_smallest_ids() {
        let stream: Vec<Neighbor> = (0..50).rev().map(|i| n(1.0, i)).collect();
        let mut res = Reservoir::new();
        let mut heap = BinaryMaxHeap::new(5);
        feed(&mut res, &mut heap, &stream);
        let ids: Vec<u32> = heap.into_sorted_vec().iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bypassed_rows_allocate_nothing() {
        let mut res: Reservoir = Reservoir::new();
        res.begin_block(0, [false, false].into_iter());
        assert_eq!(res.rows(), 2);
        assert!(res.is_idle() && !res.takes(0) && !res.takes(1));
        assert_eq!(res.buf.capacity() + res.scratch.capacity(), 0);
    }

    #[test]
    fn rows_are_independent_and_storage_is_per_block() {
        let mut res = Reservoir::new();
        let mut heaps = [BinaryMaxHeap::new(4), BinaryMaxHeap::new(4)];
        res.begin_block(4, [true, false, true].into_iter());
        assert!(res.takes(0) && !res.takes(1) && res.takes(2));
        for i in 0..3 {
            res.append(0, n(i as f64, i));
            res.append(2, n(10.0 + i as f64, 100 + i));
        }
        res.finish_row(0, &mut heaps[0]);
        res.finish_row(2, &mut heaps[1]);
        assert_eq!(heaps[0].len(), 3);
        assert_eq!(heaps[1].root(), Some(n(12.0, 102)));
        // k appended entries (+ a cache line) per row of the block
        assert_eq!(res.buf.len(), 3 * (4 + 4));
    }

    proptest! {
        #[test]
        fn a_stream_through_the_reservoir_is_the_pushed_heap(
            // few distinct values: ties inside rows and across compactions
            seed in prop::collection::vec((0u8..12, 0u32..40), 0..60),
            stream in prop::collection::vec((0u8..12, 0u32..40), 0..300),
            k in 1usize..20,
        ) {
            let cands = |v: &[(u8, u32)]| -> Vec<Neighbor> {
                v.iter().map(|&(d, i)| n(d as f64 * 0.5, i)).collect()
            };
            let (seed, stream) = (cands(&seed), cands(&stream));
            let mut heap = BinaryMaxHeap::new(k);
            for &c in &seed {
                heap.push(c);
            }
            let mut res = Reservoir::new();
            let compactions = feed(&mut res, &mut heap, &stream);
            prop_assert!(compactions <= stream.len() / k + 1);
            // a second block on the finished heap: it is a heap again
            let again: Vec<Neighbor> = stream.iter().map(|c| n(c.dist, c.idx + 40)).collect();
            feed(&mut res, &mut heap, &again);
            prop_assert_eq!(heap.into_sorted_vec(), pushed(k, &[&seed, &stream, &again]));
        }
    }
}
