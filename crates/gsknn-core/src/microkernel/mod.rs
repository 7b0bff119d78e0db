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

mod avx2;
mod avx2_f32;

use dataset::DistanceKind;
pub use gemm_kernel::{MR, NR};
use gsknn_scalar::{GsknnScalar, MAX_TILE};

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
