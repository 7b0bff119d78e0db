//! AVX2+FMA specializations of the fused micro-kernel for `f32`.
//!
//! Same structure as the f64 kernels in [`super::avx2`], but the tile is
//! 8×8: one `f32x8` register covers a full tile row, so the eight
//! accumulators process twice the flops per FMA at identical instruction
//! count — the 2× single-precision throughput the ISA promises. The
//! packing layout, loop nest and pass modes are untouched; only the lane
//! width and the tile's `NR` change.

#![cfg(target_arch = "x86_64")]

use super::{sweep_tiles, PassMode, StripMasks, Sweep, SweepTile};
use dataset::DistanceKind;
use gsknn_scalar::GsknnScalar;
use std::arch::x86_64::*;

const MR: usize = <f32 as GsknnScalar>::MR;
const NR: usize = <f32 as GsknnScalar>::NR;

/// Vectorized f32 tile pass; see [`super::tile_pass`] for the contract.
///
/// # Safety
/// Caller must guarantee AVX2+FMA support (via [`super::avx2::available`])
/// and the slice-length preconditions of `tile_pass` (`ap ≥ dcb*MR`,
/// `bp ≥ dcb*NR`, `q2 ≥ MR`, `r2 ≥ NR`, strided tiles in bounds).
pub unsafe fn tile_pass_avx2_f32(
    kind: DistanceKind,
    dcb: usize,
    ap: &[f32],
    bp: &[f32],
    q2: &[f32],
    r2: &[f32],
    mode: PassMode<'_, f32>,
) {
    match kind {
        DistanceKind::SqL2 => sq_l2(dcb, ap, bp, q2, r2, mode),
        DistanceKind::L1 => l1(dcb, ap, bp, mode),
        DistanceKind::LInf => linf(dcb, ap, bp, mode),
        DistanceKind::Cosine => cosine(dcb, ap, bp, q2, r2, mode),
        DistanceKind::Lp(_) => unreachable!("general p has no AVX2 path"),
    }
}

/// |x| for 8 f32 lanes: clear the sign bit.
#[inline(always)]
unsafe fn abs_ps(x: __m256) -> __m256 {
    _mm256_andnot_ps(_mm256_set1_ps(-0.0), x)
}

/// One accumulator per tile row, `p` ascending: the tile pass and the
/// sweep both expand this, so a distance has the same bits from either.
/// `$ap` / `$bp` are `*const f32`.
macro_rules! rank_update {
    ($dcb:ident, $ap:ident, $bp:ident, $acc:ident, |$a:ident, $b:ident, $acc_i:ident| $body:expr) => {
        for p in 0..$dcb {
            let $b = _mm256_loadu_ps($bp.add(p * NR));
            let a_row = $ap.add(p * MR);
            for i in 0..MR {
                let $a = _mm256_broadcast_ss(&*a_row.add(i));
                let $acc_i = $acc[i];
                $acc[i] = $body;
            }
        }
    };
}

macro_rules! finish {
    ($acc:ident, $mode:ident, $combine:ident, |$acc_i:ident, $i:ident| $final_expr:expr) => {
        match $mode {
            PassMode::Partial { cc, ldcc, first } => {
                for $i in 0..MR {
                    let slot = cc.as_mut_ptr().add($i * ldcc);
                    let v = if first {
                        $acc[$i]
                    } else {
                        $combine(_mm256_loadu_ps(slot), $acc[$i])
                    };
                    _mm256_storeu_ps(slot, v);
                }
            }
            PassMode::Last { prior, out } => {
                if let Some((cc, ldcc)) = prior {
                    for $i in 0..MR {
                        let prev = _mm256_loadu_ps(cc.as_ptr().add($i * ldcc));
                        $acc[$i] = $combine(prev, $acc[$i]);
                    }
                }
                for $i in 0..MR {
                    let $acc_i = $acc[$i];
                    let v = $final_expr;
                    _mm256_storeu_ps(out.as_mut_ptr().add($i * NR), v);
                }
            }
        }
    };
}

/// dist = max(0, q2 + r2 − 2·acc): one FNMA + one max per row.
#[inline(always)]
unsafe fn fin_sq_l2(acc: __m256, q2: f32, r2v: __m256) -> __m256 {
    let sum = _mm256_add_ps(_mm256_set1_ps(q2), r2v);
    _mm256_max_ps(
        _mm256_fnmadd_ps(_mm256_set1_ps(2.0), acc, sum),
        _mm256_setzero_ps(),
    )
}

/// 1 − acc/√(q2·r2), with a zero-denominator blend to 1.0 (never NaN).
#[inline(always)]
unsafe fn fin_cosine(acc: __m256, q2: f32, r2v: __m256) -> __m256 {
    let one = _mm256_set1_ps(1.0);
    let denom = _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(q2), r2v));
    let cosd = _mm256_sub_ps(one, _mm256_div_ps(acc, denom));
    let ok = _mm256_cmp_ps(denom, _mm256_setzero_ps(), _CMP_GT_OQ);
    _mm256_blendv_ps(one, cosd, ok)
}

/// ℓ1 / ℓ∞: the accumulator is the distance.
#[inline(always)]
unsafe fn fin_acc(acc: __m256, _q2: f32, _r2v: __m256) -> __m256 {
    acc
}

#[inline(always)]
unsafe fn vadd(a: __m256, b: __m256) -> __m256 {
    _mm256_add_ps(a, b)
}

#[inline(always)]
unsafe fn vmax(a: __m256, b: __m256) -> __m256 {
    _mm256_max_ps(a, b)
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sq_l2(
    dcb: usize,
    ap: &[f32],
    bp: &[f32],
    q2: &[f32],
    r2: &[f32],
    mode: PassMode<'_, f32>,
) {
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    let mut acc = [_mm256_setzero_ps(); MR];
    rank_update!(dcb, ap, bp, acc, |a, b, acc_i| _mm256_fmadd_ps(a, b, acc_i));
    let r2v = _mm256_loadu_ps(r2.as_ptr());
    finish!(acc, mode, vadd, |acc_i, i| fin_sq_l2(acc_i, q2[i], r2v));
}

#[target_feature(enable = "avx2,fma")]
unsafe fn cosine(
    dcb: usize,
    ap: &[f32],
    bp: &[f32],
    q2: &[f32],
    r2: &[f32],
    mode: PassMode<'_, f32>,
) {
    // rank update identical to squared-ℓ2 (accumulate the inner
    // product); only the epilogue differs.
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    let mut acc = [_mm256_setzero_ps(); MR];
    rank_update!(dcb, ap, bp, acc, |a, b, acc_i| _mm256_fmadd_ps(a, b, acc_i));
    let r2v = _mm256_loadu_ps(r2.as_ptr());
    finish!(acc, mode, vadd, |acc_i, i| fin_cosine(acc_i, q2[i], r2v));
}

#[target_feature(enable = "avx2,fma")]
unsafe fn l1(dcb: usize, ap: &[f32], bp: &[f32], mode: PassMode<'_, f32>) {
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    let mut acc = [_mm256_setzero_ps(); MR];
    rank_update!(dcb, ap, bp, acc, |a, b, acc_i| _mm256_add_ps(
        acc_i,
        abs_ps(_mm256_sub_ps(a, b))
    ));
    finish!(acc, mode, vadd, |acc_i, _i| acc_i);
}

#[target_feature(enable = "avx2,fma")]
unsafe fn linf(dcb: usize, ap: &[f32], bp: &[f32], mode: PassMode<'_, f32>) {
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    let mut acc = [_mm256_setzero_ps(); MR];
    rank_update!(dcb, ap, bp, acc, |a, b, acc_i| _mm256_max_ps(
        acc_i,
        abs_ps(_mm256_sub_ps(a, b))
    ));
    finish!(acc, mode, vmax, |acc_i, _i| acc_i);
}

/// One norm's [`SweepTile`] and the `#[target_feature]` function its sweep
/// inlines into; the f32 twin of the macro in [`super::avx2`]. One
/// register is a whole tile row, so the 8×8 tile fills all 64 mask bits.
macro_rules! sweep_kernel {
    ($sweep:ident, $tile:ident, |$a:ident, $b:ident, $acc_i:ident| $step:expr, $combine:ident, $fin:ident) => {
        struct $tile;

        impl SweepTile<f32> for $tile {
            #[inline(always)]
            unsafe fn block(
                &self,
                strips: usize,
                dcb: usize,
                ap: *const f32,
                bp: *const f32,
                q2: *const f32,
                r2: *const f32,
                prior: Option<(*const f32, usize)>,
                thr: *const f32,
                out: *mut f32,
            ) -> StripMasks {
                debug_assert_eq!(strips, 1);
                let mut acc = [_mm256_setzero_ps(); MR];
                rank_update!(dcb, ap, bp, acc, |$a, $b, $acc_i| $step);
                if let Some((cc, ldcc)) = prior {
                    for i in 0..MR {
                        acc[i] = $combine(_mm256_loadu_ps(cc.add(i * ldcc)), acc[i]);
                    }
                }
                let r2v = _mm256_loadu_ps(r2);
                let mut mask = 0u64;
                for i in 0..MR {
                    acc[i] = $fin(acc[i], *q2.add(i), r2v);
                    let le = _mm256_cmp_ps(acc[i], _mm256_broadcast_ss(&*thr.add(i)), _CMP_LE_OQ);
                    mask |= (_mm256_movemask_ps(le) as u64) << (i * NR);
                }
                if mask != 0 {
                    for i in 0..MR {
                        _mm256_storeu_ps(out.add(i * NR), acc[i]);
                    }
                }
                [mask, 0, 0, 0]
            }
        }

        #[target_feature(enable = "avx2,fma")]
        unsafe fn $sweep(sw: &mut Sweep<'_, f32>) {
            sweep_tiles(&$tile, sw)
        }
    };
}

sweep_kernel!(
    sweep_sq_l2,
    SqL2Tile,
    |a, b, acc_i| _mm256_fmadd_ps(a, b, acc_i),
    vadd,
    fin_sq_l2
);
sweep_kernel!(
    sweep_cosine,
    CosineTile,
    |a, b, acc_i| _mm256_fmadd_ps(a, b, acc_i),
    vadd,
    fin_cosine
);
sweep_kernel!(
    sweep_l1,
    L1Tile,
    |a, b, acc_i| _mm256_add_ps(acc_i, abs_ps(_mm256_sub_ps(a, b))),
    vadd,
    fin_acc
);
sweep_kernel!(
    sweep_linf,
    LInfTile,
    |a, b, acc_i| _mm256_max_ps(acc_i, abs_ps(_mm256_sub_ps(a, b))),
    vmax,
    fin_acc
);

/// Vectorized f32 macro-kernel; see [`super::FusedScalar::fused_sweep`].
///
/// # Safety
/// Caller must guarantee AVX2+FMA support (via [`super::avx2::available`]).
pub unsafe fn sweep_avx2_f32(kind: DistanceKind, sw: &mut Sweep<'_, f32>) {
    debug_assert!(super::avx2::available());
    match kind {
        DistanceKind::SqL2 => sweep_sq_l2(sw),
        DistanceKind::L1 => sweep_l1(sw),
        DistanceKind::LInf => sweep_linf(sw),
        DistanceKind::Cosine => sweep_cosine(sw),
        DistanceKind::Lp(_) => unreachable!("general p has no AVX2 path"),
    }
}

/// f32 pruning filter (§2.4 "Heap selection"): one `VCMPPS` + `movemask`
/// flags all eight lanes of a tile row at once. Bit `j` set ⇔
/// `row[j] <= threshold` (`<=`, not `<`: equal distances may still win
/// the index tie-break).
///
/// # Safety
/// Requires AVX2 (checked via [`super::avx2::available`] by callers) and
/// `row ≥ NR`.
#[target_feature(enable = "avx2")]
pub unsafe fn row_filter_mask_f32(row: &[f32], threshold: f32) -> u32 {
    let v = _mm256_loadu_ps(row.as_ptr());
    let t = _mm256_set1_ps(threshold);
    _mm256_movemask_ps(_mm256_cmp_ps(v, t, _CMP_LE_OQ)) as u32
}
