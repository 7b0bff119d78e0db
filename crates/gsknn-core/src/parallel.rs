//! Data-parallel GSKNN (§2.5): parallelize the **4th loop**. Every query
//! chunk of `mc` rows goes to one worker, which packs its private `Qc`
//! (the paper: "each processor will create a private Qc and preserve it
//! in its private L2") while the packed `Rc` panel is shared read-only
//! ("Rc is shared and preserved in the L3 cache"). Parallelizing the
//! reference-side loops (3rd/6th) would race on the per-query heaps —
//! the paper's footnote 5 — so we never do.
//!
//! This module owns only how the 4th loop is walked ([`QueryWalk`]); the
//! nest around it is [`crate::variants::run_nest`], one driver for every
//! `p`. At `p = 1` the chunks run in order on the caller's thread, no
//! thread spawned; above, they are cut into `p` contiguous runs, one per
//! worker. Each worker's `Qc`/`Qc2`/pruning-bound/reservoir scratch lives
//! in the workspace ([`crate::GsknnWorkspace::chunks`]) and is reused
//! across chunks, blocks and calls — the per-chunk closure itself never
//! allocates (the buffers only `resize`, a no-op once grown).
//!
//! Load balance: when `m` is not a multiple of `mc × p` the fixed `mc`
//! leaves stragglers, so `mc` is re-derived per problem
//! ([`dynamic_mc`]) — the paper's "dynamically deciding mc".

use crate::buffers::{ChunkScratch, KernelStats};
use crate::microkernel::{FusedScalar, MR};
use crate::obs::PhaseSet;
use crate::variants::SelHeap;
use gsknn_scalar::GsknnScalar;
use rayon::prelude::*;

/// Pick an effective `mc` so the 4th loop splits into a whole number of
/// near-equal chunks per worker: smallest multiple of `MR` such that the
/// chunk count is a multiple of `p` (when `m` is large enough) and no
/// chunk exceeds the cache-derived `mc_base`. (`MR = 8` for both element
/// types, so this stays type-free.) At `p = 1` the chunks are the ones a
/// fixed `mc_base` cuts whenever `m ≤ mc_base` or `mc_base` divides `m`.
pub fn dynamic_mc(m: usize, p: usize, mc_base: usize) -> usize {
    assert!(p > 0 && mc_base >= MR);
    if m == 0 {
        return mc_base;
    }
    let min_chunks = m.div_ceil(mc_base).max(1);
    let chunks = min_chunks.div_ceil(p) * p;
    (m.div_ceil(chunks)).div_ceil(MR) * MR
}

/// One query chunk of the 4th loop: its first query, its heaps and — when
/// the nest keeps a `Cc` — its rows of `Cc` (starting at row `ic`).
pub(crate) struct Chunk<'a, T: GsknnScalar> {
    /// Global index of the chunk's first query.
    pub ic: usize,
    /// The chunk's heaps, one per query.
    pub heaps: &'a mut [SelHeap<T>],
    /// The chunk's `Cc` rows, if the nest keeps a `Cc`.
    pub cc_rows: Option<&'a mut [T]>,
}

/// How the 4th loop is walked: one worker per `scratch` (one: in order on
/// the caller's thread) over `mc`-row query chunks, counters and phase
/// times folding into `stats` / `phases`.
pub(crate) struct QueryWalk<'w, T: FusedScalar> {
    /// Rows per chunk (a multiple of `MR`; [`dynamic_mc`]).
    pub mc: usize,
    /// Row stride of `Cc`.
    pub ldcc: usize,
    /// One query-side scratch per worker.
    pub scratch: &'w mut [ChunkScratch<T>],
    /// Where the walk's counters accumulate.
    pub stats: &'w mut KernelStats,
    /// Where the walk's phase times accumulate (with `p > 1` they sum
    /// worker CPU time, so they can exceed wall time).
    pub phases: &'w mut PhaseSet,
}

impl<T: FusedScalar> QueryWalk<'_, T> {
    /// Split `heaps` — and `cc`, `ldcc` elements per row — into chunks of
    /// `mc` queries and run `body` on each. With `p` scratches, worker `w`
    /// takes the `w`-th of `p` contiguous runs of chunks, on `scratch[w]`.
    /// Workers own disjoint query ranges, so every `p` leaves the same
    /// heaps.
    pub fn for_each_chunk<F>(&mut self, heaps: &mut [SelHeap<T>], cc: Option<&mut [T]>, body: F)
    where
        F: Fn(Chunk<'_, T>, &mut ChunkScratch<T>, &mut KernelStats, &mut PhaseSet) + Sync,
    {
        let (mc, p) = (self.mc, self.scratch.len());
        let per_worker = heaps.len().div_ceil(mc).div_ceil(p);
        let mut cc_chunks = cc.map(|cc| cc.chunks_mut(mc * self.ldcc));
        let mut chunks = heaps.chunks_mut(mc).enumerate().map(|(ci, heaps)| Chunk {
            ic: ci * mc,
            heaps,
            cc_rows: cc_chunks
                .as_mut()
                .map(|c| c.next().expect("one Cc chunk per query chunk")),
        });
        if p == 1 {
            for chunk in chunks {
                body(chunk, &mut self.scratch[0], self.stats, self.phases);
            }
            return;
        }
        // fewer chunks than workers leave the last runs empty: drop them
        // (a single run then executes inline on the caller's thread)
        let runs: Vec<Vec<_>> = (0..p)
            .map(|_| chunks.by_ref().take(per_worker).collect::<Vec<_>>())
            .take_while(|run| !run.is_empty())
            .collect();
        let per_run: Vec<(KernelStats, PhaseSet)> = runs
            .into_par_iter()
            .zip(self.scratch.par_iter_mut())
            .map(|(run, scratch)| {
                let mut stats = KernelStats::default();
                let mut phases = PhaseSet::new();
                for chunk in run {
                    body(chunk, scratch, &mut stats, &mut phases);
                }
                (stats, phases)
            })
            .collect();
        for (stats, phases) in &per_run {
            self.stats.merge(stats);
            self.phases.merge(phases);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_mc_divides_work_evenly() {
        // m = 1000, p = 4, mc_base = 104 -> 12 chunks (multiple of 4)
        let mc = dynamic_mc(1000, 4, 104);
        assert_eq!(mc % MR, 0);
        let chunks = 1000usize.div_ceil(mc);
        assert_eq!(chunks % 4, 0);
        assert!(mc <= 104);
    }

    #[test]
    fn dynamic_mc_small_m_single_chunk_per_worker() {
        let mc = dynamic_mc(16, 8, 104);
        assert_eq!(mc % MR, 0);
        assert!(16usize.div_ceil(mc) <= 8);
    }

    #[test]
    fn dynamic_mc_degenerate() {
        assert_eq!(dynamic_mc(0, 4, 104), 104);
        assert!(dynamic_mc(1, 1, MR) >= MR);
    }

    #[test]
    fn dynamic_mc_at_one_worker_cuts_the_fixed_chunks() {
        // one chunk while m fits, mc_base-row chunks while mc_base divides m
        for m in [1usize, 7, 8, 100, 104] {
            assert_eq!(m.div_ceil(dynamic_mc(m, 1, 104)), 1, "m = {m}");
        }
        for m in [208, 4096 * 104] {
            assert_eq!(dynamic_mc(m, 1, 104), 104, "m = {m}");
        }
        assert_eq!(dynamic_mc(4096, 1, 512), 512);
    }
}
