//! Neighbor-selection algorithms for the k-nearest-neighbors kernel.
//!
//! This crate implements the selection substrate discussed in §2.2 / Table 3
//! of the GSKNN paper (Yu et al., SC'15):
//!
//! * [`BinaryMaxHeap`] — a textbook array-backed binary max-heap with an
//!   O(1) root probe and replace-root update. This is the selection
//!   structure GSKNN's Var#1 uses for small `k`.
//! * [`DHeap`] — an implicit d-ary max-heap ([LaMarca & Ladner]) stored
//!   structure-of-arrays with the root padded to offset `D-1` so every
//!   group of `D` children is contiguous and aligned; `DHeap<4>` is the
//!   paper's "4-heap" used by Var#6 for large `k`.
//! * [`quickselect_k_smallest`] — Hoare's FIND: O(n) average selection of the k
//!   smallest, used as a baseline (Table 3 row "Quick Select").
//! * [`Reservoir`] — append-then-compact selection for a block of rows:
//!   candidates are stored, not sifted, and [`select_k_smallest`] folds
//!   every `k` of them into the row's heap. What Var#1's macro-kernel
//!   selects with.
//! * [`merge_select`] — chunked merge-sort selection: O(n log k) best and
//!   worst case (Table 3 row "Merge Sort").
//!
//! All algorithms order candidates by `(distance, index)` lexicographically
//! (see [`Neighbor`]), which makes every implementation in this workspace
//! return bit-identical neighbor sets on tie-free inputs and deterministic
//! sets in the presence of ties.
//!
//! [LaMarca & Ladner]: https://doi.org/10.1145/235141.235145

mod binary_heap;
mod dheap;
mod mergesel;
mod neighbor;
mod quickselect;
mod reservoir;
mod serialize;

pub use binary_heap::BinaryMaxHeap;
pub use dheap::{DHeap, FourHeap};
pub use mergesel::{merge_partial_rows, merge_partial_tables, merge_select, merge_update};
pub use neighbor::{Neighbor, NeighborTable};
pub use quickselect::{quickselect_k_smallest, quickselect_update, select_k_smallest};
pub use reservoir::{Compacted, Reservoir};
pub use serialize::{encoded_len_of, DecodeError};

/// A uniform interface over the selection algorithms so they can be
/// cross-checked against each other (and benchmarked side by side in the
/// Table 3 harness).
pub trait SelectK {
    /// Return the `k` smallest candidates in ascending `(dist, idx)` order.
    /// If `cands.len() < k`, returns all of them sorted.
    fn select(&self, cands: &[Neighbor], k: usize) -> Vec<Neighbor>;

    /// Merge `cands` into an existing sorted neighbor list `list`
    /// (ascending), returning the updated sorted list of at most `k`.
    fn update(&self, list: &[Neighbor], cands: &[Neighbor], k: usize) -> Vec<Neighbor> {
        let mut all = Vec::with_capacity(list.len() + cands.len());
        all.extend_from_slice(list);
        all.extend_from_slice(cands);
        self.select(&all, k)
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// [`SelectK`] via a binary max-heap (the GSKNN default for small `k`).
#[derive(Debug, Default, Clone, Copy)]
pub struct HeapSelect;

impl SelectK for HeapSelect {
    fn select(&self, cands: &[Neighbor], k: usize) -> Vec<Neighbor> {
        let mut heap = BinaryMaxHeap::new(k);
        for &c in cands {
            heap.push(c);
        }
        heap.into_sorted_vec()
    }

    fn name(&self) -> &'static str {
        "heap"
    }
}

/// [`SelectK`] via a padded 4-ary max-heap (the GSKNN choice for large `k`).
#[derive(Debug, Default, Clone, Copy)]
pub struct FourHeapSelect;

impl SelectK for FourHeapSelect {
    fn select(&self, cands: &[Neighbor], k: usize) -> Vec<Neighbor> {
        let mut heap = FourHeap::new(k);
        for &c in cands {
            heap.push(c);
        }
        heap.into_sorted_vec()
    }

    fn name(&self) -> &'static str {
        "4-heap"
    }
}

/// [`SelectK`] via quickselect (Hoare's FIND).
#[derive(Debug, Default, Clone, Copy)]
pub struct QuickSelect;

impl SelectK for QuickSelect {
    fn select(&self, cands: &[Neighbor], k: usize) -> Vec<Neighbor> {
        let mut buf = cands.to_vec();
        let mut out = quickselect_k_smallest(&mut buf, k);
        out.sort_unstable_by(Neighbor::cmp_dist_idx);
        out
    }

    fn name(&self) -> &'static str {
        "quickselect"
    }
}

/// [`SelectK`] via chunked merge-sort selection.
#[derive(Debug, Default, Clone, Copy)]
pub struct MergeSelect;

impl SelectK for MergeSelect {
    fn select(&self, cands: &[Neighbor], k: usize) -> Vec<Neighbor> {
        merge_select(cands, k)
    }

    fn name(&self) -> &'static str {
        "merge"
    }
}

/// Reference selection: full sort then truncate. O(n log n); used only as
/// the oracle in tests and the Table 3 baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct SortSelect;

impl SelectK for SortSelect {
    fn select(&self, cands: &[Neighbor], k: usize) -> Vec<Neighbor> {
        let mut buf = cands.to_vec();
        buf.sort_unstable_by(Neighbor::cmp_dist_idx);
        buf.truncate(k);
        buf
    }

    fn name(&self) -> &'static str {
        "sort"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(dists: &[f64]) -> Vec<Neighbor> {
        dists
            .iter()
            .enumerate()
            .map(|(i, &d)| Neighbor::new(d, i as u32))
            .collect()
    }

    fn all_selectors() -> Vec<Box<dyn SelectK>> {
        vec![
            Box::new(HeapSelect),
            Box::new(FourHeapSelect),
            Box::new(QuickSelect),
            Box::new(MergeSelect),
        ]
    }

    #[test]
    fn all_agree_with_sort_on_distinct_input() {
        let c = cands(&[5.0, 1.0, 4.0, 2.5, 9.0, 0.5, 7.0, 3.0]);
        let want = SortSelect.select(&c, 3);
        for s in all_selectors() {
            assert_eq!(s.select(&c, 3), want, "{} disagrees", s.name());
        }
    }

    #[test]
    fn all_agree_with_sort_on_ties() {
        let c = cands(&[1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
        let want = SortSelect.select(&c, 4);
        for s in all_selectors() {
            assert_eq!(s.select(&c, 4), want, "{} disagrees", s.name());
        }
    }

    #[test]
    fn k_larger_than_n_returns_all_sorted() {
        let c = cands(&[3.0, 1.0, 2.0]);
        for s in all_selectors() {
            assert_eq!(s.select(&c, 10), SortSelect.select(&c, 10));
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        let c = cands(&[3.0, 1.0]);
        for s in all_selectors() {
            assert!(s.select(&c, 0).is_empty());
        }
    }

    #[test]
    fn update_merges_lists() {
        let list = SortSelect.select(&cands(&[1.0, 3.0, 5.0]), 3);
        let newc = vec![Neighbor::new(2.0, 100), Neighbor::new(4.0, 101)];
        for s in all_selectors() {
            let got = s.update(&list, &newc, 3);
            let d: Vec<f64> = got.iter().map(|n| n.dist).collect();
            assert_eq!(d, vec![1.0, 2.0, 3.0], "{}", s.name());
        }
    }
}
