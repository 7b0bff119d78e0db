//! The fused micro-kernel (§2.4): a rank-`dcb` update producing an
//! `MR×NR` tile of distances, with the square-distance epilogue folded in
//! (Algorithm 2.3). Two pass modes support `d > dc`:
//!
//! * [`PassMode::Partial`] — not the last `d`-block: fold this block's
//!   partial accumulation into the `Cc` buffer tile (the paper's rank-dc
//!   accumulation, the `Tm^Cc` traffic of Table 4);
//! * [`PassMode::Last`] — the last `d`-block: combine with any prior
//!   partials, apply the norm's finalization (`‖q‖² + ‖r‖² − 2·qᵀr` for
//!   squared ℓ2, clamped at 0 against rounding), and emit final distances
//!   into a stack tile that the caller consumes immediately (Var#1) or
//!   copies into its distance buffer (buffered variants).
//!
//! The ℓp-norm generalization (§2.4 "General ℓp norm") replaces the FMA
//! with subtract/abs/add (ℓ1), subtract/abs/max (ℓ∞), or a scalar `powf`
//! loop (general p, the paper's VPOW note). AVX2+FMA specializations are
//! provided for squared-ℓ2, ℓ1 and ℓ∞; general p falls back to scalar.
//!
//! Everything is generic over the element type through [`FusedScalar`]:
//! `f64` runs the paper's 8×4 tile (4 `f64` lanes per 256-bit register),
//! `f32` an 8×8 tile (8 lanes) — same loop nest, twice the flops per
//! instruction. Each implementor owns its SIMD dispatch and its
//! vectorized row filter.
//!
//! # The macro-kernel
//!
//! Var#1's last pass does not go through [`tile_pass`] for the full tiles
//! of a block: [`FusedScalar::fused_sweep`] runs the whole 3rd/2nd-loop
//! sweep in one function, so the rank-dc loop, the epilogue and the root
//! filter inline into the tile loop. A finished tile row is compared in
//! its register against the broadcast pruning bound of its query
//! ([`Sweep::thr`]), the `movemask` results are packed into one lane mask
//! (bit `i·NR + j`), and only a tile with a set bit is stored and popped
//! — in ascending (row, lane) order, the order [`tile_pass`] + the
//! per-tile selection push in. One control flow ([`sweep_tiles`]) serves
//! every ISA; the per-ISA part is the [`SweepTile`] step, one tile wide
//! (AVX2, the provided sweep) or, for f64 on AVX-512F, a register block
//! of four adjacent strips with the queries on the zmm axis (`avx512`);
//! the f64 sweep dispatches AVX-512F → AVX2 → provided, from cpuid read
//! once. A distance has the same bits whichever entry produced it: one
//! accumulator per output element, `p` ascending, then the same epilogue
//! instructions.
//!
//! A popped survivor is not pushed into its query's heap but **appended**
//! to that query's row of the block's [`Reservoir`] — one store, no
//! compare tree. A row that reaches `k` appended entries is compacted
//! out of line (the `k` smallest of kept ∪ appended, which also refreshes
//! `thr[i]`), and on the way out of the block every row is compacted
//! back into its heap, so the caller sees the heaps it would see had
//! every survivor been pushed. The bound a row is filtered against is
//! therefore as stale as its last compaction — still never below the
//! true k-th distance, so rows are unchanged; the counters are not (more
//! survivors pass). Rows with id-unique insertion (seeded from an
//! existing list) and 4-heap rows bypass the reservoir and push as
//! before: `push_unique` drops a candidate whose id is *stored at that
//! moment*, which depends on arrival order, and only the heap replays it.
//! So does every row while `k` is below a measured crossover (24, see
//! `variants::RESERVOIR_MIN_K`), where a push is a few compares and a
//! compaction is not worth its call.

mod avx2;
mod avx2_f32;
mod avx512;

use crate::buffers::KernelStats;
use crate::obs::{PhaseSet, SweepProbe};
use crate::variants::SelHeap;
use dataset::DistanceKind;
pub use gemm_kernel::{MR, NR};
use gsknn_scalar::{GsknnScalar, MAX_TILE};
use knn_select::{Neighbor, Reservoir};

#[cfg(target_arch = "x86_64")]
pub use avx2::row_filter_mask;

/// One `MR×NR` f64 distance tile, row-major (`i*NR + j`). Generic code
/// sizes its stack tile by [`gsknn_scalar::MAX_TILE`] instead.
pub type Tile = [f64; MR * NR];

/// What to do with this `d`-block's accumulation (see module docs).
pub enum PassMode<'a, T: GsknnScalar = f64> {
    /// Fold into the strided `Cc` tile at `cc[i*ldcc + j]`; `first` resets
    /// instead of combining.
    Partial {
        /// Tile origin inside the `Cc` buffer.
        cc: &'a mut [T],
        /// Row stride of `Cc` in elements.
        ldcc: usize,
        /// `true` on the first `d`-block (overwrite, don't combine).
        first: bool,
    },
    /// Produce final distances into `out`; `prior` is the `Cc` tile of the
    /// earlier passes (`None` when `d ≤ dc`).
    Last {
        /// Prior partial tile and its row stride.
        prior: Option<(&'a [T], usize)>,
        /// Destination for the finalized distances (`≥ MR·NR` elements,
        /// row-major with stride `NR`).
        out: &'a mut [T],
    },
}

/// Precision-specific entry points of the fused kernel. Implemented for
/// `f64` (the paper's 8×4 tile) and `f32` (8×8); each implementor owns
/// its SIMD dispatch (AVX2+FMA when the CPU has it, else scalar).
pub trait FusedScalar: GsknnScalar {
    /// One fused micro-kernel pass; see [`tile_pass`] for the contract.
    fn fused_tile_pass(
        kind: DistanceKind,
        dcb: usize,
        ap: &[Self],
        bp: &[Self],
        q2: &[Self],
        r2: &[Self],
        mode: PassMode<'_, Self>,
    );

    /// `true` when [`FusedScalar::row_filter_mask`] may be called.
    fn row_filter_available() -> bool;

    /// Vectorized pruning filter (§2.4 "Heap selection"): broadcast the
    /// heap root and compare one tile row against it; bit `j` of the
    /// result is set iff `row[j] <= threshold` (`<=` not `<`: equal
    /// distances may still win the index tie-break). 0 ⇒ discard the row
    /// without touching the heap.
    ///
    /// # Safety
    /// Requires [`FusedScalar::row_filter_available`] and
    /// `row.len() >= Self::NR`.
    unsafe fn row_filter_mask(row: &[Self], threshold: Self) -> u32;

    /// The macro-kernel (module docs): final pass, root filter and heap
    /// pushes over every full tile of `sweep`. The provided body steps
    /// through [`FusedScalar::fused_tile_pass`]; an implementor with a
    /// SIMD sweep for `kind` overrides it and keeps this one for the rest.
    fn fused_sweep(kind: DistanceKind, sweep: &mut Sweep<'_, Self>) {
        sweep_fallback(kind, sweep)
    }
}

/// The full `MR×NR` tiles of one `(jc, last pc, ic)` block and everything
/// their selection updates. Built by the loop nest only.
pub struct Sweep<'a, T: GsknnScalar> {
    /// Depth of this (last) `d`-block.
    pub(crate) dcb: usize,
    /// Packed `Qc`, `m_tiles` micro-panels of `dcb·MR`.
    pub(crate) q_pack: &'a [T],
    /// Packed `Rc`, `n_tiles` micro-panels of `dcb·NR`.
    pub(crate) r_pack: &'a [T],
    /// Squared norms of the block's queries / references.
    pub(crate) q2: &'a [T],
    pub(crate) r2: &'a [T],
    /// Full tiles along the query / reference side.
    pub(crate) m_tiles: usize,
    pub(crate) n_tiles: usize,
    /// `Cc` of the earlier `d`-blocks, from this block's first element,
    /// with its row stride (`None` when `d ≤ dc`).
    pub(crate) prior: Option<(&'a [T], usize)>,
    /// Global id of each reference column.
    pub(crate) r_ids: &'a [usize],
    /// One heap per query row.
    pub(crate) heaps: &'a mut [SelHeap<T>],
    /// `thr[i] == heaps[i].threshold()`, on entry and on return: the
    /// filter reads its bounds here and never touches a heap for them.
    pub(crate) thr: &'a mut [T],
    /// The block's reservoir, begun by the loop nest: row `i` takes the
    /// survivors of query `i` or bypasses them to `heaps[i]`.
    pub(crate) reservoir: &'a mut Reservoir<T>,
    pub(crate) stats: &'a mut KernelStats,
    pub(crate) phases: &'a mut PhaseSet,
    /// Strip sampling period of the phase probes.
    pub(crate) sample_every: usize,
}

/// Most `NR` strips one [`SweepTile`] step covers.
pub(crate) const BLOCK_STRIPS: usize = 4;

/// Per strip of one register block, its lane mask (bit `i·NR + j`).
pub(crate) type StripMasks = [u64; BLOCK_STRIPS];

// a sampled strip opens a register block (see `sweep_tiles`)
const _: () = assert!(crate::obs::STRIP_SAMPLE.is_multiple_of(BLOCK_STRIPS));

/// The block's distances, aligned for full-width stores.
#[repr(C, align(64))]
struct BlockOut<T>([T; MAX_TILE * BLOCK_STRIPS]);

/// The per-ISA step of [`sweep_tiles`]: one register block's final pass
/// and root filter — `MR` queries against `STRIPS` adjacent `NR` strips
/// of `Rc` (one tile when `STRIPS` is 1).
pub(crate) trait SweepTile<T: GsknnScalar> {
    /// Strips in a full register block (at most [`BLOCK_STRIPS`]).
    const STRIPS: usize = 1;

    /// Where [`SweepTile::block`] leaves distance `(i, j)` of strip `s`.
    #[inline(always)]
    fn slot(s: usize, i: usize, j: usize) -> usize {
        (s * T::MR + i) * T::NR + j
    }

    /// Finalize the block's `strips` tiles (as [`PassMode::Last`] does)
    /// and return a lane mask per strip: bit `i·NR + j` of `masks[s]` set
    /// iff `dist(i, j) <= thr[i]`. `out[slot(s, i, j)]` holds the distance
    /// of every set bit; a strip with an empty mask may leave its slots
    /// untouched.
    ///
    /// # Safety
    /// `1 <= strips <= STRIPS`. Readable: `ap` for `dcb·MR` elements, `bp`
    /// for `strips` micro-panels of `dcb·NR`, `q2` and `thr` for `MR`, `r2`
    /// for `strips·NR`, `prior` for `MR` rows of `strips·NR` at its stride;
    /// `out` writable for `strips·MR·NR`. The CPU has the ISA the
    /// implementor is written in.
    #[allow(clippy::too_many_arguments)] // the tile's operands, as tile_pass
    unsafe fn block(
        &self,
        strips: usize,
        dcb: usize,
        ap: *const T,
        bp: *const T,
        q2: *const T,
        r2: *const T,
        prior: Option<(*const T, usize)>,
        thr: *const T,
        out: *mut T,
    ) -> StripMasks;
}

/// The 3rd/2nd-loop sweep of the macro-kernel, written once; `#[inline(always)]`
/// so that a `#[target_feature]` caller gets the block step inlined into
/// the loop. The 3rd loop walks register blocks of `K::STRIPS` strips
/// (the last one may be narrower); a block's strips are popped in
/// ascending order, so every row still meets its candidates in ascending
/// column order, each strip filtered against the bounds it starts with.
///
/// # Safety
/// The CPU has the ISA `K` is written in.
#[inline(always)]
pub(crate) unsafe fn sweep_tiles<T: FusedScalar, K: SweepTile<T>>(
    kernel: &K,
    sw: &mut Sweep<'_, T>,
) {
    let (mr, nr) = (T::MR, T::NR);
    let (dcb, m_tiles, n_tiles) = (sw.dcb, sw.m_tiles, sw.n_tiles);
    if m_tiles == 0 || n_tiles == 0 {
        return;
    }
    debug_assert!((1..=BLOCK_STRIPS).contains(&K::STRIPS) && mr * nr <= MAX_TILE);
    // Every raw access below stays inside these extents.
    let (m_rows, n_cols) = (m_tiles * mr, n_tiles * nr);
    assert!(sw.q_pack.len() >= m_rows * dcb && sw.r_pack.len() >= n_cols * dcb);
    assert!(sw.q2.len() >= m_rows && sw.thr.len() >= m_rows && sw.heaps.len() >= m_rows);
    assert!(sw.reservoir.rows() >= m_rows);
    assert!(sw.r2.len() >= n_cols && sw.r_ids.len() >= n_cols);
    if let Some((cc, ldcc)) = sw.prior {
        assert!(cc.len() >= (m_rows - 1) * ldcc + n_cols);
    }

    let filters = T::row_filter_available();
    // small k, seeded rows: every survivor of this block goes to a heap
    let heaps_only = sw.reservoir.is_idle();
    let mut out = BlockOut([T::ZERO; MAX_TILE * BLOCK_STRIPS]);
    let out = &mut out.0;
    let (mut scanned, mut offered, mut kept, mut compactions) = (0u64, 0u64, 0u64, 0u64);
    let mut probe = SweepProbe::start(sw.sample_every);
    // 3rd loop: register blocks of reference micro-panels
    for s0 in (0..n_tiles).step_by(K::STRIPS) {
        let strips = K::STRIPS.min(n_tiles - s0);
        let col0 = s0 * nr;
        let next = col0 + strips * nr;
        // §2.4 rank-dc pipeline: the next Rc micro-panel streams toward L1
        // while the ir sweep consumes this block.
        #[cfg(target_arch = "x86_64")]
        if next < n_cols {
            debug_assert!(next * dcb < sw.r_pack.len());
            // SAFETY: a prefetch has no architectural effect; the address
            // is inside r_pack (asserted ≥ n_cols·dcb above).
            unsafe {
                std::arch::x86_64::_mm_prefetch(
                    sw.r_pack.as_ptr().add(next * dcb) as *const i8,
                    std::arch::x86_64::_MM_HINT_T0,
                )
            };
        }
        let ids = &sw.r_ids[col0..next];
        // a block samples as its first strip would (STRIP_SAMPLE is a
        // multiple of every STRIPS, so the sampled share stays put)
        let sampled = probe.begin_strip(s0);
        // 2nd loop: query micro-panels
        for t in 0..m_tiles {
            for _ in 0..strips {
                gsknn_faults::fail_point!(gsknn_faults::FaultPoint::MicroKernel);
            }
            let row0 = t * mr;
            debug_assert!(row0 + mr <= m_rows && next <= n_cols);
            debug_assert!(sw
                .prior
                .is_none_or(|(cc, ldcc)| (row0 + mr - 1) * ldcc + next <= cc.len()));
            // SAFETY: block (t, s0..s0 + strips) lies inside the extents
            // asserted at the top — q_pack ≥ m_rows·dcb, r_pack ≥
            // n_cols·dcb, q2/thr ≥ m_rows, r2 ≥ n_cols, prior ≥
            // (m_rows−1)·ldcc + n_cols — `strips` ≤ K::STRIPS, and `out`
            // is MAX_TILE·BLOCK_STRIPS ≥ strips·MR·NR; the ISA is the
            // caller's contract.
            let masks = unsafe {
                kernel.block(
                    strips,
                    dcb,
                    sw.q_pack.as_ptr().add(row0 * dcb),
                    sw.r_pack.as_ptr().add(col0 * dcb),
                    sw.q2.as_ptr().add(row0),
                    sw.r2.as_ptr().add(col0),
                    sw.prior
                        .map(|(cc, ldcc)| (cc.as_ptr().add(row0 * ldcc + col0), ldcc)),
                    sw.thr.as_ptr().add(row0),
                    out.as_mut_ptr(),
                )
            };
            if sampled {
                probe.lap_rank();
            }
            // a bound of this block's rows has tightened since it began
            let mut moved = false;
            for (s, &block_mask) in masks[..strips].iter().enumerate() {
                // The block filtered every strip against the bounds it
                // began with; a bound only tightens, so that mask is a
                // superset. Once a pop has moved one, the next strips
                // re-check theirs against the bounds their pops start
                // from, as a lone tile would.
                let mut mask = block_mask;
                if moved {
                    mask = 0;
                    let mut bits = block_mask;
                    while bits != 0 {
                        let bit = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let (i, j) = (bit / nr, bit % nr);
                        mask |= u64::from(out[K::slot(s, i, j)] <= sw.thr[row0 + i]) << bit;
                    }
                }
                if mask == 0 {
                    continue;
                }
                gsknn_faults::fail_point!(gsknn_faults::FaultPoint::HeapSelect);
                let ids = &ids[s * nr..];
                let mut last_row = usize::MAX;
                while mask != 0 {
                    let bit = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let (i, j) = (bit / nr, bit % nr);
                    scanned += u64::from(i != last_row);
                    last_row = i;
                    offered += 1;
                    // The whole row was filtered against the bound from
                    // before its first survivor, as the per-tile scan
                    // does; compaction and `push` both re-check, so this
                    // stays exact.
                    let row = row0 + i;
                    let cand = Neighbor::new(out[K::slot(s, i, j)], ids[j] as u32);
                    if !heaps_only && sw.reservoir.takes(row) {
                        if sw.reservoir.append(row, cand) {
                            let done = probe.compaction(sampled, || {
                                sw.reservoir.compact(row, taken(&mut sw.heaps[row]))
                            });
                            sw.thr[row] = done.threshold;
                            kept += done.admitted as u64;
                            compactions += 1;
                            moved = true;
                        }
                    } else if sw.heaps[row].push(cand) {
                        kept += 1;
                        sw.thr[row] = sw.heaps[row].threshold();
                        moved = true;
                    }
                }
            }
            if sampled {
                probe.lap_select();
            }
        }
    }
    probe.end_tiles();
    // Out of the block: what is still appended goes back into the heaps.
    for row in 0..m_rows {
        if !heaps_only && sw.reservoir.takes(row) {
            if let Some(done) = sw.reservoir.finish_row(row, taken(&mut sw.heaps[row])) {
                sw.thr[row] = done.threshold;
                kept += done.admitted as u64;
                compactions += 1;
            }
        }
        // the contract of `Sweep::thr`, checked wherever tests run
        if cfg!(any(test, debug_assertions)) {
            let (bound, root) = (sw.thr[row].to_f64(), sw.heaps[row].threshold().to_f64());
            assert_eq!(
                bound.to_bits(),
                root.to_bits(),
                "row {row} leaves with a stale bound"
            );
        }
    }
    let tiles = (m_tiles * n_tiles) as u64;
    let rows = tiles * mr as u64;
    // without the vectorized filter the per-tile path scans every row
    let scanned = if filters { scanned } else { rows };
    sw.stats.tiles += tiles;
    sw.stats.rows_scanned += scanned;
    sw.stats.rows_filtered += rows - scanned;
    sw.stats.candidates_offered += offered;
    sw.stats.candidates_kept += kept;
    sw.stats.compactions += compactions;
    probe.finish(sw.phases, tiles);
}

/// The heap behind a row the reservoir takes.
#[inline(always)]
fn taken<T: GsknnScalar>(heap: &mut SelHeap<T>) -> &mut knn_select::BinaryMaxHeap<T> {
    heap.unchecked_binary()
        .expect("the loop nest lets the reservoir take unchecked binary heaps only")
}

/// [`SweepTile`] over [`FusedScalar::fused_tile_pass`] with a scalar
/// compare: general `p`, and every norm where no SIMD sweep exists.
struct FallbackTile(DistanceKind);

impl<T: FusedScalar> SweepTile<T> for FallbackTile {
    #[inline(always)]
    unsafe fn block(
        &self,
        strips: usize,
        dcb: usize,
        ap: *const T,
        bp: *const T,
        q2: *const T,
        r2: *const T,
        prior: Option<(*const T, usize)>,
        thr: *const T,
        out: *mut T,
    ) -> StripMasks {
        use std::slice::{from_raw_parts, from_raw_parts_mut};
        let (mr, nr) = (T::MR, T::NR);
        debug_assert!(strips == 1 && mr * nr <= 64, "one tile, lane mask a u64");
        // SAFETY: exactly the extents the trait's contract grants.
        let (ap, bp, q2, r2, thr, out, prior) = unsafe {
            (
                from_raw_parts(ap, dcb * mr),
                from_raw_parts(bp, dcb * nr),
                from_raw_parts(q2, mr),
                from_raw_parts(r2, nr),
                from_raw_parts(thr, mr),
                from_raw_parts_mut(out, mr * nr),
                prior.map(|(cc, ldcc)| (from_raw_parts(cc, (mr - 1) * ldcc + nr), ldcc)),
            )
        };
        let mode = PassMode::Last { prior, out };
        T::fused_tile_pass(self.0, dcb, ap, bp, q2, r2, mode);
        let mut mask = 0u64;
        for i in 0..mr {
            for j in 0..nr {
                mask |= u64::from(out[i * nr + j] <= thr[i]) << (i * nr + j);
            }
        }
        [mask, 0, 0, 0]
    }
}

/// The provided body of [`FusedScalar::fused_sweep`].
pub(crate) fn sweep_fallback<T: FusedScalar>(kind: DistanceKind, sweep: &mut Sweep<'_, T>) {
    // SAFETY: FallbackTile uses no ISA of its own (fused_tile_pass checks
    // the CPU before it takes a SIMD path).
    unsafe { sweep_tiles(&FallbackTile(kind), sweep) }
}

/// Run one micro-kernel pass.
///
/// `ap`/`bp` are packed panels (`dcb*MR` / `dcb*NR`, Z-shape, `bp` rows
/// 32-byte aligned); `q2`/`r2` are the gathered squared norms for this
/// tile (used only by [`DistanceKind::SqL2`] / [`DistanceKind::Cosine`]).
pub fn tile_pass<T: FusedScalar>(
    kind: DistanceKind,
    dcb: usize,
    ap: &[T],
    bp: &[T],
    q2: &[T],
    r2: &[T],
    mode: PassMode<'_, T>,
) {
    debug_assert!(ap.len() >= dcb * T::MR);
    debug_assert!(bp.len() >= dcb * T::NR);
    debug_assert!(q2.len() >= T::MR && r2.len() >= T::NR);
    T::fused_tile_pass(kind, dcb, ap, bp, q2, r2, mode)
}

impl FusedScalar for f64 {
    fn fused_tile_pass(
        kind: DistanceKind,
        dcb: usize,
        ap: &[f64],
        bp: &[f64],
        q2: &[f64],
        r2: &[f64],
        mode: PassMode<'_, f64>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if !matches!(kind, DistanceKind::Lp(_)) && avx2::available() {
            // SAFETY: AVX2+FMA checked; slice lengths checked by tile_pass.
            unsafe { avx2::tile_pass_avx2(kind, dcb, ap, bp, q2, r2, mode) };
            return;
        }
        scalar_dispatch(kind, dcb, ap, bp, q2, r2, mode)
    }

    #[inline]
    fn row_filter_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            avx2::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    #[inline]
    unsafe fn row_filter_mask(row: &[f64], threshold: f64) -> u32 {
        #[cfg(target_arch = "x86_64")]
        {
            avx2::row_filter_mask(row, threshold)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (row, threshold);
            unreachable!("row filter is x86-only")
        }
    }

    /// AVX-512F, else AVX2+FMA, else the provided sweep.
    #[cfg(target_arch = "x86_64")]
    fn fused_sweep(kind: DistanceKind, sweep: &mut Sweep<'_, f64>) {
        if matches!(kind, DistanceKind::Lp(_)) {
            sweep_fallback(kind, sweep)
        } else if avx512::available() {
            // SAFETY: AVX-512F and BMI2 checked (cpuid, read once and cached by
            // `avx512::available`); the sweep asserts its own extents.
            unsafe { avx512::sweep_avx512(kind, sweep) }
        } else if avx2::available() {
            // SAFETY: AVX2+FMA checked.
            unsafe { avx2::sweep_avx2(kind, sweep) }
        } else {
            sweep_fallback(kind, sweep)
        }
    }
}

impl FusedScalar for f32 {
    fn fused_tile_pass(
        kind: DistanceKind,
        dcb: usize,
        ap: &[f32],
        bp: &[f32],
        q2: &[f32],
        r2: &[f32],
        mode: PassMode<'_, f32>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if !matches!(kind, DistanceKind::Lp(_)) && avx2::available() {
            // SAFETY: AVX2+FMA checked; slice lengths checked by tile_pass.
            unsafe { avx2_f32::tile_pass_avx2_f32(kind, dcb, ap, bp, q2, r2, mode) };
            return;
        }
        scalar_dispatch(kind, dcb, ap, bp, q2, r2, mode)
    }

    #[inline]
    fn row_filter_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            avx2::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    #[inline]
    unsafe fn row_filter_mask(row: &[f32], threshold: f32) -> u32 {
        #[cfg(target_arch = "x86_64")]
        {
            avx2_f32::row_filter_mask_f32(row, threshold)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (row, threshold);
            unreachable!("row filter is x86-only")
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn fused_sweep(kind: DistanceKind, sweep: &mut Sweep<'_, f32>) {
        if !matches!(kind, DistanceKind::Lp(_)) && avx2::available() {
            // SAFETY: AVX2+FMA checked.
            unsafe { avx2_f32::sweep_avx2_f32(kind, sweep) }
        } else {
            sweep_fallback(kind, sweep)
        }
    }
}

/// Per-norm scalar operations; one zero-sized (or p-carrying) type per
/// norm keeps the inner loop monomorphized. Generic over the element
/// type — the same five implementations serve both precisions.
pub(crate) trait NormOps<T: GsknnScalar> {
    /// Fold one coordinate pair into the accumulator (identity `T::ZERO`).
    fn accum(&self, acc: T, q: T, r: T) -> T;
    /// Combine partial accumulations from two `d`-blocks.
    fn combine(&self, a: T, b: T) -> T {
        a + b
    }
    /// Turn the accumulator into the final distance.
    fn finalize(&self, acc: T, q2: T, r2: T) -> T;
}

pub(crate) struct SqL2Ops;
impl<T: GsknnScalar> NormOps<T> for SqL2Ops {
    #[inline(always)]
    fn accum(&self, acc: T, q: T, r: T) -> T {
        acc + q * r
    }
    #[inline(always)]
    fn finalize(&self, acc: T, q2: T, r2: T) -> T {
        // Eq. (1): ‖q−r‖² = ‖q‖² + ‖r‖² − 2·qᵀr; clamp the ~1 ulp
        // negatives the expansion can produce for near-identical points.
        (q2 + r2 - (T::ONE + T::ONE) * acc).max(T::ZERO)
    }
}

pub(crate) struct L1Ops;
impl<T: GsknnScalar> NormOps<T> for L1Ops {
    #[inline(always)]
    fn accum(&self, acc: T, q: T, r: T) -> T {
        acc + (q - r).abs()
    }
    #[inline(always)]
    fn finalize(&self, acc: T, _q2: T, _r2: T) -> T {
        acc
    }
}

pub(crate) struct LInfOps;
impl<T: GsknnScalar> NormOps<T> for LInfOps {
    #[inline(always)]
    fn accum(&self, acc: T, q: T, r: T) -> T {
        acc.max((q - r).abs())
    }
    #[inline(always)]
    fn combine(&self, a: T, b: T) -> T {
        a.max(b)
    }
    #[inline(always)]
    fn finalize(&self, acc: T, _q2: T, _r2: T) -> T {
        acc
    }
}

pub(crate) struct LpOps(pub f64);
impl<T: GsknnScalar> NormOps<T> for LpOps {
    #[inline(always)]
    fn accum(&self, acc: T, q: T, r: T) -> T {
        acc + (q - r).abs().powf(T::from_f64(self.0))
    }
    #[inline(always)]
    fn finalize(&self, acc: T, _q2: T, _r2: T) -> T {
        acc
    }
}

pub(crate) struct CosineOps;
impl<T: GsknnScalar> NormOps<T> for CosineOps {
    #[inline(always)]
    fn accum(&self, acc: T, q: T, r: T) -> T {
        acc + q * r // same rank-update as squared-ℓ2: the inner product
    }
    #[inline(always)]
    fn finalize(&self, acc: T, q2: T, r2: T) -> T {
        let denom = (q2 * r2).sqrt();
        if denom > T::ZERO {
            T::ONE - acc / denom
        } else {
            T::ONE // zero-norm operand: "uncorrelated", never NaN
        }
    }
}

/// Route a distance kind to its scalar [`NormOps`] implementation.
fn scalar_dispatch<T: GsknnScalar>(
    kind: DistanceKind,
    dcb: usize,
    ap: &[T],
    bp: &[T],
    q2: &[T],
    r2: &[T],
    mode: PassMode<'_, T>,
) {
    match kind {
        DistanceKind::SqL2 => tile_pass_scalar(&SqL2Ops, dcb, ap, bp, q2, r2, mode),
        DistanceKind::L1 => tile_pass_scalar(&L1Ops, dcb, ap, bp, q2, r2, mode),
        DistanceKind::LInf => tile_pass_scalar(&LInfOps, dcb, ap, bp, q2, r2, mode),
        DistanceKind::Lp(p) => tile_pass_scalar(&LpOps(p), dcb, ap, bp, q2, r2, mode),
        DistanceKind::Cosine => tile_pass_scalar(&CosineOps, dcb, ap, bp, q2, r2, mode),
    }
}

fn tile_pass_scalar<T: GsknnScalar, N: NormOps<T>>(
    norm: &N,
    dcb: usize,
    ap: &[T],
    bp: &[T],
    q2: &[T],
    r2: &[T],
    mode: PassMode<'_, T>,
) {
    let (mr, nr) = (T::MR, T::NR);
    let mut acc = [T::ZERO; MAX_TILE];
    for p in 0..dcb {
        let a = &ap[p * mr..p * mr + mr];
        let b = &bp[p * nr..p * nr + nr];
        for i in 0..mr {
            for j in 0..nr {
                acc[i * nr + j] = norm.accum(acc[i * nr + j], a[i], b[j]);
            }
        }
    }
    match mode {
        PassMode::Partial { cc, ldcc, first } => {
            for i in 0..mr {
                for j in 0..nr {
                    let slot = &mut cc[i * ldcc + j];
                    *slot = if first {
                        acc[i * nr + j]
                    } else {
                        norm.combine(*slot, acc[i * nr + j])
                    };
                }
            }
        }
        PassMode::Last { prior, out } => {
            if let Some((cc, ldcc)) = prior {
                for i in 0..mr {
                    for j in 0..nr {
                        acc[i * nr + j] = norm.combine(cc[i * ldcc + j], acc[i * nr + j]);
                    }
                }
            }
            for i in 0..mr {
                for j in 0..nr {
                    out[i * nr + j] = norm.finalize(acc[i * nr + j], q2[i], r2[j]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{dist_l1, dist_linf, dist_lp, dist_sq_l2, uniform, PointSet};

    /// Pack MR query points and NR reference points (depth d) and compare
    /// tile distances against the scalar metric functions.
    fn check_norm_t<T: FusedScalar>(kind: DistanceKind, d: usize, tol: f64) {
        let (mr, nr) = (T::MR, T::NR);
        let x: PointSet<T> = uniform(mr + nr, d, 7).cast();
        let q_idx: Vec<usize> = (0..mr).collect();
        let r_idx: Vec<usize> = (mr..mr + nr).collect();
        let mut ap = vec![T::ZERO; mr * d];
        let mut bp = vec![T::ZERO; nr * d];
        crate::packing::pack_q_panel(&x, &q_idx, 0, mr, 0, d, &mut ap);
        crate::packing::pack_r_panel(&x, &r_idx, 0, nr, 0, d, &mut bp);
        let q2: Vec<T> = q_idx.iter().map(|&i| x.sqnorm(i)).collect();
        let r2: Vec<T> = r_idx.iter().map(|&j| x.sqnorm(j)).collect();

        // single pass
        let mut out = [T::ZERO; MAX_TILE];
        tile_pass(
            kind,
            d,
            &ap,
            &bp,
            &q2,
            &r2,
            PassMode::Last {
                prior: None,
                out: &mut out,
            },
        );
        for i in 0..mr {
            for j in 0..nr {
                let want = kind.eval(x.point(q_idx[i]), x.point(r_idx[j])).to_f64();
                let got = out[i * nr + j].to_f64();
                assert!(
                    (got - want).abs() <= tol * (1.0 + want.abs()),
                    "{} {} single-pass ({i},{j}): {got} vs {want}",
                    T::NAME,
                    kind.name()
                );
            }
        }

        // split into two passes through a strided Cc tile
        if d >= 2 {
            let d1 = d / 2;
            let d2 = d - d1;
            let mut ap1 = vec![T::ZERO; mr * d1];
            let mut bp1 = vec![T::ZERO; nr * d1];
            let mut ap2 = vec![T::ZERO; mr * d2];
            let mut bp2 = vec![T::ZERO; nr * d2];
            crate::packing::pack_q_panel(&x, &q_idx, 0, mr, 0, d1, &mut ap1);
            crate::packing::pack_r_panel(&x, &r_idx, 0, nr, 0, d1, &mut bp1);
            crate::packing::pack_q_panel(&x, &q_idx, 0, mr, d1, d2, &mut ap2);
            crate::packing::pack_r_panel(&x, &r_idx, 0, nr, d1, d2, &mut bp2);
            let ldcc = nr + 5; // deliberately non-trivial stride
            let mut cc = vec![T::NAN; mr * ldcc];
            tile_pass(
                kind,
                d1,
                &ap1,
                &bp1,
                &q2,
                &r2,
                PassMode::Partial {
                    cc: &mut cc,
                    ldcc,
                    first: true,
                },
            );
            let mut out2 = [T::ZERO; MAX_TILE];
            tile_pass(
                kind,
                d2,
                &ap2,
                &bp2,
                &q2,
                &r2,
                PassMode::Last {
                    prior: Some((&cc, ldcc)),
                    out: &mut out2,
                },
            );
            for (a, b) in out[..mr * nr].iter().zip(&out2[..mr * nr]) {
                let (a, b) = (a.to_f64(), b.to_f64());
                assert!(
                    (a - b).abs() <= tol * (1.0 + a.abs()),
                    "{} {} two-pass mismatch: {a} vs {b}",
                    T::NAME,
                    kind.name()
                );
            }
        }
    }

    fn check_norm(kind: DistanceKind, d: usize, tol: f64) {
        check_norm_t::<f64>(kind, d, tol)
    }

    #[test]
    fn sq_l2_matches_metric() {
        for d in [1, 2, 7, 16, 33] {
            check_norm(DistanceKind::SqL2, d, 1e-9);
        }
    }

    #[test]
    fn l1_matches_metric() {
        for d in [1, 5, 24] {
            check_norm(DistanceKind::L1, d, 1e-12);
        }
    }

    #[test]
    fn linf_matches_metric() {
        for d in [1, 5, 24] {
            check_norm(DistanceKind::LInf, d, 1e-12);
        }
    }

    #[test]
    fn lp3_matches_metric() {
        check_norm(DistanceKind::Lp(3.0), 12, 1e-12);
    }

    #[test]
    fn cosine_matches_metric() {
        for d in [1, 2, 7, 16, 33] {
            check_norm(DistanceKind::Cosine, d, 1e-9);
        }
    }

    #[test]
    fn f32_norms_match_metric() {
        // the 8×8 f32 tile against the f32 scalar metrics; SIMD FMA
        // contraction admits a few ulps beyond the scalar reference
        for d in [1, 2, 7, 16, 33] {
            check_norm_t::<f32>(DistanceKind::SqL2, d, 2e-4);
            check_norm_t::<f32>(DistanceKind::Cosine, d, 1e-4);
        }
        for d in [1, 5, 24] {
            check_norm_t::<f32>(DistanceKind::L1, d, 1e-5);
            check_norm_t::<f32>(DistanceKind::LInf, d, 1e-5);
        }
        check_norm_t::<f32>(DistanceKind::Lp(3.0), 12, 1e-4);
    }

    /// The per-ISA tile function under test, as `fused_tile_pass` calls it.
    #[cfg(target_arch = "x86_64")]
    type SimdTilePass<T> =
        for<'a> unsafe fn(DistanceKind, usize, &[T], &[T], &[T], &[T], PassMode<'a, T>);

    #[cfg(target_arch = "x86_64")]
    fn avx2_agrees_with_scalar_for<T: FusedScalar>(simd: SimdTilePass<T>, tol: f64) {
        let d = 37;
        let (mr, nr) = (T::MR, T::NR);
        let x: PointSet<T> = uniform(mr + nr, d, 21).cast();
        let q_idx: Vec<usize> = (0..mr).collect();
        let r_idx: Vec<usize> = (mr..mr + nr).collect();
        let mut ap = vec![T::ZERO; mr * d];
        let mut bp = vec![T::ZERO; nr * d];
        crate::packing::pack_q_panel(&x, &q_idx, 0, mr, 0, d, &mut ap);
        crate::packing::pack_r_panel(&x, &r_idx, 0, nr, 0, d, &mut bp);
        let q2: Vec<T> = q_idx.iter().map(|&i| x.sqnorm(i)).collect();
        let r2: Vec<T> = r_idx.iter().map(|&j| x.sqnorm(j)).collect();

        for kind in [
            DistanceKind::SqL2,
            DistanceKind::L1,
            DistanceKind::LInf,
            DistanceKind::Cosine,
        ] {
            let mut scalar = [T::ZERO; MAX_TILE];
            let mode = PassMode::Last {
                prior: None,
                out: &mut scalar,
            };
            scalar_dispatch(kind, d, &ap, &bp, &q2, &r2, mode);
            let mut got = [T::ZERO; MAX_TILE];
            let mode = PassMode::Last {
                prior: None,
                out: &mut got,
            };
            // SAFETY: the caller checked AVX2+FMA; panels hold d*MR / d*NR
            // elements, norms MR / NR, `got` MAX_TILE ≥ MR*NR.
            unsafe { simd(kind, d, &ap, &bp, &q2, &r2, mode) };
            for (a, b) in scalar[..mr * nr].iter().zip(&got[..mr * nr]) {
                let (a, b) = (a.to_f64(), b.to_f64());
                assert!(
                    (a - b).abs() <= tol * (1.0 + a.abs()),
                    "{} {}: scalar {a} vs avx2 {b}",
                    T::NAME,
                    kind.name()
                );
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_tiles_agree_with_scalar() {
        // the AVX2 kernel must match the scalar loops on every
        // vectorizable norm, in both precisions
        if !avx2::available() {
            return;
        }
        avx2_agrees_with_scalar_for::<f64>(avx2::tile_pass_avx2, 1e-10);
        // f32: SIMD FMA keeps the product unrounded, the scalar path
        // rounds twice — a few f32 ulps of drift is expected
        avx2_agrees_with_scalar_for::<f32>(avx2_f32::tile_pass_avx2_f32, 5e-6);
    }

    #[cfg(target_arch = "x86_64")]
    use crate::sweep_tests::{row_bits, RowBits};

    /// Rows and counters of one sweep over a block of 3 × `n_tiles` tiles
    /// at depth 37; even rows are seeded from the first columns (id-unique
    /// heaps the reservoir bypasses), odd rows are fresh (reservoir rows).
    #[cfg(target_arch = "x86_64")]
    fn sweep_outcome<T: FusedScalar>(
        run: impl Fn(DistanceKind, &mut Sweep<'_, T>),
        kind: DistanceKind,
        with_prior: bool,
        n_tiles: usize,
    ) -> (RowBits, KernelStats) {
        let (mr, nr) = (T::MR, T::NR);
        let (m, n, d, k) = (3 * mr, n_tiles * nr, 37, 3);
        let x: PointSet<T> = uniform(m + n, d, 21).cast();
        let q_idx: Vec<usize> = (0..m).collect();
        let r_idx: Vec<usize> = (m..m + n).collect();
        let mut ap = vec![T::ZERO; m * d];
        let mut bp = vec![T::ZERO; n * d];
        crate::packing::pack_q_panel(&x, &q_idx, 0, m, 0, d, &mut ap);
        crate::packing::pack_r_panel(&x, &r_idx, 0, n, 0, d, &mut bp);
        let q2: Vec<T> = q_idx.iter().map(|&i| x.sqnorm(i)).collect();
        let r2: Vec<T> = r_idx.iter().map(|&j| x.sqnorm(j)).collect();
        let ldcc = n + 3;
        let cc: Vec<T> = uniform(1, m * ldcc, 5).cast::<T>().point(0).to_vec();
        // the sweep re-offers the seeded rows their own columns
        let mut heaps: Vec<SelHeap<T>> = q_idx
            .iter()
            .map(|&qi| {
                let row: Vec<Neighbor<T>> = r_idx[..k]
                    .iter()
                    .map(|&rj| Neighbor::new(kind.eval(x.point(qi), x.point(rj)), rj as u32))
                    .collect();
                SelHeap::from_row(k, if qi.is_multiple_of(2) { &row } else { &[] }, false)
            })
            .collect();
        let mut thr: Vec<T> = heaps.iter().map(SelHeap::threshold).collect();
        let mut reservoir = Reservoir::new();
        reservoir.begin_block(k, heaps.iter_mut().map(|h| h.unchecked_binary().is_some()));
        let mut stats = KernelStats::default();
        let mut phases = PhaseSet::new();
        run(
            kind,
            &mut Sweep {
                dcb: d,
                q_pack: &ap,
                r_pack: &bp,
                q2: &q2,
                r2: &r2,
                m_tiles: 3,
                n_tiles,
                prior: with_prior.then_some((&cc[..], ldcc)),
                r_ids: &r_idx,
                heaps: &mut heaps,
                thr: &mut thr,
                reservoir: &mut reservoir,
                stats: &mut stats,
                phases: &mut phases,
                sample_every: crate::obs::STRIP_SAMPLE,
            },
        );
        for (t, h) in thr.iter().zip(&heaps) {
            assert_eq!(t.to_f64().to_bits(), h.threshold().to_f64().to_bits());
        }
        (row_bits(heaps), stats)
    }

    /// 4 to 7 strips: a full AVX-512 register block, then one with every
    /// tail of 1–3 strips.
    #[cfg(target_arch = "x86_64")]
    fn simd_sweep_agrees_with_provided_for<T: FusedScalar>(
        simd: unsafe fn(DistanceKind, &mut Sweep<'_, T>),
    ) {
        for kind in [
            DistanceKind::SqL2,
            DistanceKind::L1,
            DistanceKind::LInf,
            DistanceKind::Cosine,
        ] {
            for with_prior in [false, true] {
                for n_tiles in 4..8 {
                    let provided = sweep_outcome::<T>(sweep_fallback, kind, with_prior, n_tiles);
                    // SAFETY: the caller checked the sweep's ISA.
                    let simd = |k, sw: &mut Sweep<'_, T>| unsafe { simd(k, sw) };
                    let got = sweep_outcome::<T>(simd, kind, with_prior, n_tiles);
                    assert_eq!(
                        got,
                        provided,
                        "{} {} prior={with_prior} n_tiles={n_tiles}",
                        T::NAME,
                        kind.name()
                    );
                    let tiles = 3 * n_tiles as u64;
                    assert_eq!(got.1.tiles, tiles);
                    assert_eq!(
                        got.1.rows_filtered + got.1.rows_scanned,
                        tiles * T::MR as u64
                    );
                    assert!(got.1.rows_filtered > 0 && got.1.candidates_kept > 0);
                    // 12 fresh rows of k = 3 over at least 4·NR columns
                    assert!(got.1.compactions >= 12 * 2, "{:?}", got.1);
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_sweeps_agree_with_provided_sweep() {
        // No CI host takes the provided sweep for a vectorizable norm, so
        // call it directly: same rows, same bits, same counters as each
        // SIMD macro-kernel (it steps through the AVX2 *tile*, so this
        // also pins sweep ≡ tile_pass bit for bit).
        if avx2::available() {
            simd_sweep_agrees_with_provided_for::<f64>(avx2::sweep_avx2);
            simd_sweep_agrees_with_provided_for::<f32>(avx2_f32::sweep_avx2_f32);
        }
        if avx512::available() {
            simd_sweep_agrees_with_provided_for::<f64>(avx512::sweep_avx512);
        }
    }

    #[test]
    fn lp_fractional_matches_metric() {
        check_norm(DistanceKind::Lp(0.5), 9, 1e-12);
    }

    fn self_distance_clamps_for<T: FusedScalar>(tol: f64) {
        let (mr, nr) = (T::MR, T::NR);
        let x: PointSet<T> = uniform(mr.max(nr), 13, 9).cast();
        let idx: Vec<usize> = (0..mr.max(nr)).collect();
        let mut ap = vec![T::ZERO; mr * 13];
        let mut bp = vec![T::ZERO; nr * 13];
        crate::packing::pack_q_panel(&x, &idx, 0, mr, 0, 13, &mut ap);
        crate::packing::pack_r_panel(&x, &idx, 0, nr, 0, 13, &mut bp);
        let q2: Vec<T> = (0..mr).map(|i| x.sqnorm(idx[i])).collect();
        let r2: Vec<T> = (0..nr).map(|j| x.sqnorm(idx[j])).collect();
        let mut out = [T::ZERO; MAX_TILE];
        tile_pass(
            DistanceKind::SqL2,
            13,
            &ap,
            &bp,
            &q2,
            &r2,
            PassMode::Last {
                prior: None,
                out: &mut out,
            },
        );
        for i in 0..mr.min(nr) {
            let v = out[i * nr + i].to_f64();
            assert!(v >= 0.0, "{}: negative self-distance {v}", T::NAME);
            assert!(v < tol, "{}: self-distance too large {v}", T::NAME);
        }
    }

    #[test]
    fn sq_l2_self_distance_clamps_to_zero() {
        // q == r: expansion may round negative; tile must clamp to >= 0.
        self_distance_clamps_for::<f64>(1e-9);
        self_distance_clamps_for::<f32>(1e-3);
    }

    #[test]
    fn f32_row_filter_matches_f64_semantics() {
        if !<f32 as FusedScalar>::row_filter_available() {
            return;
        }
        let row = [1.0f32, 5.0, 3.0, 3.0, 0.5, 9.0, 3.0, 2.0];
        // SAFETY: availability checked; row has NR_F32 = 8 elements.
        let m = unsafe { <f32 as FusedScalar>::row_filter_mask(&row, 3.0) };
        assert_eq!(m, 0b1101_1101);
        let none = unsafe { <f32 as FusedScalar>::row_filter_mask(&row, 0.25) };
        assert_eq!(none, 0);
    }

    #[test]
    fn metric_functions_agree_with_tile_oracle() {
        // belt-and-braces: the four scalar metrics behave as expected on a
        // hand-computed pair
        let a = [0.0, 3.0];
        let b = [4.0, 0.0];
        assert_eq!(dist_sq_l2(&a, &b), 25.0);
        assert_eq!(dist_l1(&a, &b), 7.0);
        assert_eq!(dist_linf(&a, &b), 4.0);
        assert!((dist_lp(&a, &b, 2.0) - 25.0).abs() < 1e-12);
    }
}
