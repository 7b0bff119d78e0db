//! AVX2+FMA specializations of the fused micro-kernel. Eight `f64x4`
//! accumulators cover the 8×4 tile; squared-ℓ2 uses broadcast-FMA (the
//! FMA-era equivalent of the paper's Figure 3 shuffle scheme), ℓ1 uses
//! subtract/abs/add and ℓ∞ subtract/abs/max, exactly the instruction
//! substitution described in §2.4 ("General ℓp norm").

#![cfg(target_arch = "x86_64")]

use super::{sweep_tiles, PassMode, StripMasks, Sweep, SweepTile, MR, NR};
use dataset::DistanceKind;
use std::arch::x86_64::*;

/// AVX2+FMA available on this CPU (checked once).
pub fn available() -> bool {
    use std::sync::OnceLock;
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Vectorized tile pass; see [`super::tile_pass`] for the contract.
///
/// # Safety
/// Caller must guarantee AVX2+FMA support and the slice-length
/// preconditions of `tile_pass` (`ap ≥ dcb*MR`, `bp ≥ dcb*NR`,
/// `q2 ≥ MR`, `r2 ≥ NR`, strided tiles in bounds).
pub unsafe fn tile_pass_avx2(
    kind: DistanceKind,
    dcb: usize,
    ap: &[f64],
    bp: &[f64],
    q2: &[f64],
    r2: &[f64],
    mode: PassMode<'_>,
) {
    match kind {
        DistanceKind::SqL2 => sq_l2(dcb, ap, bp, q2, r2, mode),
        DistanceKind::L1 => l1(dcb, ap, bp, mode),
        DistanceKind::LInf => linf(dcb, ap, bp, mode),
        DistanceKind::Cosine => cosine(dcb, ap, bp, q2, r2, mode),
        DistanceKind::Lp(_) => unreachable!("general p has no AVX2 path"),
    }
}

/// `mask & x` with the sign bit cleared — |x| for f64 lanes.
#[inline(always)]
unsafe fn abs_pd(x: __m256d) -> __m256d {
    _mm256_andnot_pd(_mm256_set1_pd(-0.0), x)
}

/// One accumulator per tile row, `p` ascending: the tile pass and the
/// sweep both expand this, so a distance has the same bits from either.
/// `$ap` / `$bp` are `*const f64`.
macro_rules! rank_update {
    ($dcb:ident, $ap:ident, $bp:ident, $acc:ident, |$a:ident, $b:ident, $acc_i:ident| $body:expr) => {
        for p in 0..$dcb {
            let $b = _mm256_loadu_pd($bp.add(p * NR));
            let a_row = $ap.add(p * MR);
            for i in 0..MR {
                let $a = _mm256_broadcast_sd(&*a_row.add(i));
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
                        $combine(_mm256_loadu_pd(slot), $acc[$i])
                    };
                    _mm256_storeu_pd(slot, v);
                }
            }
            PassMode::Last { prior, out } => {
                if let Some((cc, ldcc)) = prior {
                    for $i in 0..MR {
                        let prev = _mm256_loadu_pd(cc.as_ptr().add($i * ldcc));
                        $acc[$i] = $combine(prev, $acc[$i]);
                    }
                }
                for $i in 0..MR {
                    let $acc_i = $acc[$i];
                    let v = $final_expr;
                    _mm256_storeu_pd(out.as_mut_ptr().add($i * NR), v);
                }
            }
        }
    };
}

/// dist = max(0, q2 + r2 − 2·acc): one FNMA + one max per row.
#[inline(always)]
unsafe fn fin_sq_l2(acc: __m256d, q2: f64, r2v: __m256d) -> __m256d {
    let sum = _mm256_add_pd(_mm256_set1_pd(q2), r2v);
    _mm256_max_pd(
        _mm256_fnmadd_pd(_mm256_set1_pd(2.0), acc, sum),
        _mm256_setzero_pd(),
    )
}

/// 1 − acc/√(q2·r2), with a zero-denominator blend to 1.0 (never NaN).
#[inline(always)]
unsafe fn fin_cosine(acc: __m256d, q2: f64, r2v: __m256d) -> __m256d {
    let one = _mm256_set1_pd(1.0);
    let denom = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(q2), r2v));
    let cosd = _mm256_sub_pd(one, _mm256_div_pd(acc, denom));
    let ok = _mm256_cmp_pd(denom, _mm256_setzero_pd(), _CMP_GT_OQ);
    _mm256_blendv_pd(one, cosd, ok)
}

/// ℓ1 / ℓ∞: the accumulator is the distance.
#[inline(always)]
unsafe fn fin_acc(acc: __m256d, _q2: f64, _r2v: __m256d) -> __m256d {
    acc
}

#[inline(always)]
unsafe fn vadd(a: __m256d, b: __m256d) -> __m256d {
    _mm256_add_pd(a, b)
}

#[inline(always)]
unsafe fn vmax(a: __m256d, b: __m256d) -> __m256d {
    _mm256_max_pd(a, b)
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sq_l2(dcb: usize, ap: &[f64], bp: &[f64], q2: &[f64], r2: &[f64], mode: PassMode<'_>) {
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    let mut acc = [_mm256_setzero_pd(); MR];
    rank_update!(dcb, ap, bp, acc, |a, b, acc_i| _mm256_fmadd_pd(a, b, acc_i));
    let r2v = _mm256_loadu_pd(r2.as_ptr());
    finish!(acc, mode, vadd, |acc_i, i| fin_sq_l2(acc_i, q2[i], r2v));
}

#[target_feature(enable = "avx2,fma")]
unsafe fn cosine(dcb: usize, ap: &[f64], bp: &[f64], q2: &[f64], r2: &[f64], mode: PassMode<'_>) {
    // rank update identical to squared-ℓ2 (accumulate the inner
    // product); only the epilogue differs.
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    let mut acc = [_mm256_setzero_pd(); MR];
    rank_update!(dcb, ap, bp, acc, |a, b, acc_i| _mm256_fmadd_pd(a, b, acc_i));
    let r2v = _mm256_loadu_pd(r2.as_ptr());
    finish!(acc, mode, vadd, |acc_i, i| fin_cosine(acc_i, q2[i], r2v));
}

#[target_feature(enable = "avx2,fma")]
unsafe fn l1(dcb: usize, ap: &[f64], bp: &[f64], mode: PassMode<'_>) {
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    let mut acc = [_mm256_setzero_pd(); MR];
    rank_update!(dcb, ap, bp, acc, |a, b, acc_i| _mm256_add_pd(
        acc_i,
        abs_pd(_mm256_sub_pd(a, b))
    ));
    finish!(acc, mode, vadd, |acc_i, _i| acc_i);
}

#[target_feature(enable = "avx2,fma")]
unsafe fn linf(dcb: usize, ap: &[f64], bp: &[f64], mode: PassMode<'_>) {
    let (ap, bp) = (ap.as_ptr(), bp.as_ptr());
    let mut acc = [_mm256_setzero_pd(); MR];
    rank_update!(dcb, ap, bp, acc, |a, b, acc_i| _mm256_max_pd(
        acc_i,
        abs_pd(_mm256_sub_pd(a, b))
    ));
    finish!(acc, mode, vmax, |acc_i, _i| acc_i);
}

/// One norm's [`SweepTile`] and the `#[target_feature]` function its sweep
/// inlines into: the rank update and epilogue of the tile pass above, then
/// each finished row register against its broadcast bound (`<=`, as
/// [`row_filter_mask`]). The tile is stored only when a lane survives.
macro_rules! sweep_kernel {
    ($sweep:ident, $tile:ident, |$a:ident, $b:ident, $acc_i:ident| $step:expr, $combine:ident, $fin:ident) => {
        struct $tile;

        impl SweepTile<f64> for $tile {
            #[inline(always)]
            unsafe fn block(
                &self,
                strips: usize,
                dcb: usize,
                ap: *const f64,
                bp: *const f64,
                q2: *const f64,
                r2: *const f64,
                prior: Option<(*const f64, usize)>,
                thr: *const f64,
                out: *mut f64,
            ) -> StripMasks {
                debug_assert_eq!(strips, 1);
                let mut acc = [_mm256_setzero_pd(); MR];
                rank_update!(dcb, ap, bp, acc, |$a, $b, $acc_i| $step);
                if let Some((cc, ldcc)) = prior {
                    for i in 0..MR {
                        acc[i] = $combine(_mm256_loadu_pd(cc.add(i * ldcc)), acc[i]);
                    }
                }
                let r2v = _mm256_loadu_pd(r2);
                let mut mask = 0u64;
                for i in 0..MR {
                    acc[i] = $fin(acc[i], *q2.add(i), r2v);
                    let le = _mm256_cmp_pd(acc[i], _mm256_broadcast_sd(&*thr.add(i)), _CMP_LE_OQ);
                    mask |= (_mm256_movemask_pd(le) as u64) << (i * NR);
                }
                if mask != 0 {
                    for i in 0..MR {
                        _mm256_storeu_pd(out.add(i * NR), acc[i]);
                    }
                }
                [mask, 0, 0, 0]
            }
        }

        #[target_feature(enable = "avx2,fma")]
        unsafe fn $sweep(sw: &mut Sweep<'_, f64>) {
            sweep_tiles(&$tile, sw)
        }
    };
}

sweep_kernel!(
    sweep_sq_l2,
    SqL2Tile,
    |a, b, acc_i| _mm256_fmadd_pd(a, b, acc_i),
    vadd,
    fin_sq_l2
);
sweep_kernel!(
    sweep_cosine,
    CosineTile,
    |a, b, acc_i| _mm256_fmadd_pd(a, b, acc_i),
    vadd,
    fin_cosine
);
sweep_kernel!(
    sweep_l1,
    L1Tile,
    |a, b, acc_i| _mm256_add_pd(acc_i, abs_pd(_mm256_sub_pd(a, b))),
    vadd,
    fin_acc
);
sweep_kernel!(
    sweep_linf,
    LInfTile,
    |a, b, acc_i| _mm256_max_pd(acc_i, abs_pd(_mm256_sub_pd(a, b))),
    vmax,
    fin_acc
);

/// Vectorized macro-kernel; see [`super::FusedScalar::fused_sweep`].
///
/// # Safety
/// Caller must guarantee AVX2+FMA support.
pub unsafe fn sweep_avx2(kind: DistanceKind, sw: &mut Sweep<'_, f64>) {
    debug_assert!(available());
    match kind {
        DistanceKind::SqL2 => sweep_sq_l2(sw),
        DistanceKind::L1 => sweep_l1(sw),
        DistanceKind::LInf => sweep_linf(sw),
        DistanceKind::Cosine => sweep_cosine(sw),
        DistanceKind::Lp(_) => unreachable!("general p has no AVX2 path"),
    }
}

/// Vectorized pruning filter (§2.4 "Heap selection"): does any of the `NR`
/// distances in this tile row undercut the heap root? Broadcast the root
/// and compare — one `VCMP` + `movemask`, the paper's scheme. Returns a
/// lane bitmask (0 ⇒ the whole row can be discarded without touching the
/// heap).
///
/// # Safety
/// Requires AVX2 (checked via [`available`] by callers) and `row ≥ NR`.
#[target_feature(enable = "avx2")]
pub unsafe fn row_filter_mask(row: &[f64], threshold: f64) -> u32 {
    let v = _mm256_loadu_pd(row.as_ptr());
    let t = _mm256_set1_pd(threshold);
    // `<=` not `<`: equal-distance candidates may still win the index
    // tie-break inside the heap.
    _mm256_movemask_pd(_mm256_cmp_pd(v, t, _CMP_LE_OQ)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_mask_flags_lanes_leq_threshold() {
        if !available() {
            return;
        }
        let row = [1.0, 5.0, 3.0, 3.0];
        // SAFETY: AVX2 available, row has NR elements.
        let m = unsafe { row_filter_mask(&row, 3.0) };
        assert_eq!(m, 0b1101);
        let none = unsafe { row_filter_mask(&row, 0.5) };
        assert_eq!(none, 0);
    }
}
