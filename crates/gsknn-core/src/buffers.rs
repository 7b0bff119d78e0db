//! Reusable per-kernel workspace: every packed panel and distance buffer
//! the six-loop nest needs, allocated once (64-byte aligned) and grown on
//! demand so repeated kernel invocations — the approximate solvers call
//! the kernel thousands of times — never allocate on the hot path.

use crate::obs::PhaseSet;
use gemm_kernel::AlignedBuf;
use gsknn_scalar::GsknnScalar;
use knn_select::Reservoir;

serde::impl_struct_serde!(KernelStats {
    tiles,
    rows_filtered,
    rows_scanned,
    candidates_offered,
    candidates_kept,
    compactions,
});

/// Observability counters collected by the driver (zeroed at the
/// start of each [`crate::Gsknn::run`]/`update`). They quantify how often
/// the §2.4 vectorized root filter achieves the heap's O(n) best case —
/// the mechanism GSKNN's small-`k` advantage rests on.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Finalized micro-tiles produced.
    pub tiles: u64,
    /// Tile rows discarded whole by the broadcast-compare root filter
    /// (no heap interaction at all — the O(n) case).
    pub rows_filtered: u64,
    /// Tile rows that reached the scalar candidate scan.
    pub rows_scanned: u64,
    /// Candidates that passed the stale-threshold check — in the
    /// macro-kernel, the survivors popped from a tile's lane mask — and
    /// were offered to a heap or appended to a reservoir row.
    pub candidates_offered: u64,
    /// Offered candidates that were kept: by a heap, those that caused an
    /// insert/replace; by a reservoir row, those still among the row's
    /// `k` smallest after the compaction that folded them in (the row's
    /// next one — at the latest the block-exit compaction).
    pub candidates_kept: u64,
    /// Reservoir compactions: a row reached `k` appended entries
    /// mid-block, or left its block with entries still appended.
    pub compactions: u64,
}

impl KernelStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.tiles += other.tiles;
        self.rows_filtered += other.rows_filtered;
        self.rows_scanned += other.rows_scanned;
        self.candidates_offered += other.candidates_offered;
        self.candidates_kept += other.candidates_kept;
        self.compactions += other.compactions;
    }

    /// Fraction of tile rows the filter discarded without touching a
    /// heap (1.0 = perfect best case).
    pub fn filter_rate(&self) -> f64 {
        let total = self.rows_filtered + self.rows_scanned;
        if total == 0 {
            0.0
        } else {
            self.rows_filtered as f64 / total as f64
        }
    }

    /// Fraction of offered candidates that were kept (0.0 when nothing
    /// was offered). High values mean the stale-threshold check passes
    /// candidates that still win — selection is doing real work; low
    /// values mean most offers bounce off the root, or were appended
    /// under a bound the next compaction tightened past them.
    pub fn selection_rate(&self) -> f64 {
        if self.candidates_offered == 0 {
            0.0
        } else {
            self.candidates_kept as f64 / self.candidates_offered as f64
        }
    }
}

/// The scratch of whoever walks a query chunk of the 4th loop: one per
/// worker, kept in the workspace across calls (§2.5: "each processor will
/// create a private Qc and preserve it in its private L2").
#[derive(Default, Debug)]
pub struct ChunkScratch<T: GsknnScalar = f64> {
    /// Packed query panel `Qc` (`⌈mcb/MR⌉·MR × dcb`, Z-shape).
    pub q_pack: AlignedBuf<T>,
    /// Gathered query squared norms `Qc2` (`mcb`, MR-padded).
    pub q2_pack: AlignedBuf<T>,
    /// Pruning bound of each query row of the current `ic` block, read by
    /// the macro-kernel's in-register filter (at most `mc` elements).
    pub thr: Vec<T>,
    /// Appended candidates of the current `ic` block's fresh rows (`k`
    /// per row of the block plus one `2k` scratch row; empty until a
    /// macro-kernel sweep needs it).
    pub reservoir: Reservoir<T>,
}

/// Scratch buffers for one kernel execution context (one thread),
/// parameterized by the element type the kernel runs in.
#[derive(Default, Debug)]
pub struct GsknnWorkspace<T: GsknnScalar = f64> {
    /// Query-side scratch of the 4th loop, one per worker that has walked
    /// it (the `p = 1` walk uses the first); grown to `p` on demand.
    pub chunks: Vec<ChunkScratch<T>>,
    /// Packed reference panel `Rc` (`⌈ncb/NR⌉·NR × dcb`, Z-shape) of a
    /// gathering call; a call against [`crate::PackedRefs`] borrows its
    /// panels and never sizes this.
    pub r_pack: AlignedBuf<T>,
    /// Gathered reference squared norms `R2c` (`ncb`, NR-padded), likewise.
    pub r2_pack: AlignedBuf<T>,
    /// Rank-dc accumulation buffer `Cc` (only used when `d > dc`, or by
    /// the buffered variants Var#2/3/5/6 as their distance store).
    pub cc: AlignedBuf<T>,
    /// Counters for the most recent run.
    pub stats: KernelStats,
    /// Phase timings for the most recent run (zero-sized no-op unless
    /// the `obs` feature is enabled).
    pub phases: PhaseSet,
}

impl<T: GsknnScalar> GsknnWorkspace<T> {
    /// Fresh workspace; buffers allocate lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_independently() {
        let mut ws: GsknnWorkspace = GsknnWorkspace::new();
        ws.chunks.push(ChunkScratch::default());
        ws.chunks[0].q_pack.resize(128);
        ws.cc.resize(1024);
        assert_eq!(ws.chunks[0].q_pack.len(), 128);
        assert_eq!(ws.cc.len(), 1024);
        assert_eq!(ws.r_pack.len(), 0);
    }

    fn sample_stats() -> KernelStats {
        KernelStats {
            tiles: 7,
            rows_filtered: 40,
            rows_scanned: 10,
            candidates_offered: 25,
            candidates_kept: 5,
            compactions: 2,
        }
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = sample_stats();
        let b = KernelStats {
            tiles: 3,
            rows_filtered: 2,
            rows_scanned: 8,
            candidates_offered: 15,
            candidates_kept: 1,
            compactions: 4,
        };
        a.merge(&b);
        assert_eq!(
            a,
            KernelStats {
                tiles: 10,
                rows_filtered: 42,
                rows_scanned: 18,
                candidates_offered: 40,
                candidates_kept: 6,
                compactions: 6,
            }
        );
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = sample_stats();
        a.merge(&KernelStats::default());
        assert_eq!(a, sample_stats());
        let mut zero = KernelStats::default();
        zero.merge(&sample_stats());
        assert_eq!(zero, sample_stats());
    }

    #[test]
    fn rates_are_zero_safe() {
        let zero = KernelStats::default();
        assert_eq!(zero.filter_rate(), 0.0);
        assert_eq!(zero.selection_rate(), 0.0);
        let s = sample_stats();
        assert!((s.filter_rate() - 0.8).abs() < 1e-12);
        assert!((s.selection_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stats_round_trip_through_serde() {
        use serde::{Deserialize, Serialize};
        let s = sample_stats();
        let v = s.to_value();
        assert_eq!(v.get("tiles").and_then(|t| t.as_u64()), Some(7));
        assert_eq!(v.get("compactions").and_then(|t| t.as_u64()), Some(2));
        let back = KernelStats::from_value(&v).expect("deserialize");
        assert_eq!(back, s);
        // missing field is an error, not a silent default
        let empty = serde_json::from_str("{}").expect("parse");
        assert!(KernelStats::from_value(&empty).is_err());
    }
}
