//! AVX-512F step of the f64 macro-kernel ([`super::FusedScalar::fused_sweep`]).
//!
//! One register block is `MR = 8` queries against four adjacent `NR = 4`
//! strips of the `Rc` panels: the queries sit on the zmm axis (the `Qc`
//! micro-panel is one 8-lane load per `p`), each reference coordinate is
//! broadcast, and the 16 output columns are 16 independent accumulators —
//! no permutes, the packing of the AVX2 tile unchanged. A distance keeps
//! the bits the AVX2 tile gives it: one accumulator, `p` ascending, and
//! the same epilogue instructions with commutative operands swapped
//! (`q2 + r2`, `q2·r2`, `q·r`; `q − r` keeps its order).
//!
//! The per-tile path ([`super::tile_pass`]) and `f32` stay on AVX2.

#![cfg(target_arch = "x86_64")]

use super::{sweep_tiles, StripMasks, Sweep, SweepTile, BLOCK_STRIPS, MR, NR};
use dataset::DistanceKind;
use std::arch::x86_64::*;

/// AVX-512F (and BMI2, which every AVX-512F part has) available on this
/// CPU (checked once).
pub fn available() -> bool {
    use std::sync::OnceLock;
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("bmi2")
    })
}

/// Columns of a full register block.
const COLS: usize = BLOCK_STRIPS * NR;

/// One norm's vector operations on a column of 8 queries.
///
/// # Safety
/// Every method needs AVX-512F.
trait Norm {
    /// Fold coordinate `p` into the accumulator: `q` the 8 queries', `r`
    /// the column's reference coordinate broadcast.
    unsafe fn step(acc: __m512d, q: __m512d, r: __m512d) -> __m512d;
    /// Combine the `Cc` prior of the earlier `d`-blocks with `acc`.
    #[inline(always)]
    unsafe fn combine(prior: __m512d, acc: __m512d) -> __m512d {
        _mm512_add_pd(prior, acc)
    }
    /// The final distance from the accumulator and the squared norms
    /// (ℓ1, ℓ∞: the accumulator is the distance).
    #[inline(always)]
    unsafe fn finish(acc: __m512d, _q2: __m512d, _r2: f64) -> __m512d {
        acc
    }
}

/// |x|: clear the sign bit (AVX-512F has no `andnot_pd`). Needs AVX-512F.
#[inline(always)]
unsafe fn abs_pd(x: __m512d) -> __m512d {
    let mag = _mm512_set1_epi64(i64::MAX);
    _mm512_castsi512_pd(_mm512_and_epi64(_mm512_castpd_si512(x), mag))
}

struct SqL2;
impl Norm for SqL2 {
    #[inline(always)]
    unsafe fn step(acc: __m512d, q: __m512d, r: __m512d) -> __m512d {
        _mm512_fmadd_pd(q, r, acc)
    }
    /// max(0, q2 + r2 − 2·acc), as `avx2::fin_sq_l2`.
    #[inline(always)]
    unsafe fn finish(acc: __m512d, q2: __m512d, r2: f64) -> __m512d {
        let sum = _mm512_add_pd(q2, _mm512_set1_pd(r2));
        _mm512_max_pd(
            _mm512_fnmadd_pd(_mm512_set1_pd(2.0), acc, sum),
            _mm512_setzero_pd(),
        )
    }
}

struct Cosine;
impl Norm for Cosine {
    #[inline(always)]
    unsafe fn step(acc: __m512d, q: __m512d, r: __m512d) -> __m512d {
        _mm512_fmadd_pd(q, r, acc)
    }
    /// 1 − acc/√(q2·r2), 1.0 where the denominator is 0, as
    /// `avx2::fin_cosine`.
    #[inline(always)]
    unsafe fn finish(acc: __m512d, q2: __m512d, r2: f64) -> __m512d {
        let one = _mm512_set1_pd(1.0);
        let denom = _mm512_sqrt_pd(_mm512_mul_pd(q2, _mm512_set1_pd(r2)));
        let cosd = _mm512_sub_pd(one, _mm512_div_pd(acc, denom));
        let ok = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(denom, _mm512_setzero_pd());
        _mm512_mask_blend_pd(ok, one, cosd)
    }
}

struct L1;
impl Norm for L1 {
    #[inline(always)]
    unsafe fn step(acc: __m512d, q: __m512d, r: __m512d) -> __m512d {
        _mm512_add_pd(acc, abs_pd(_mm512_sub_pd(q, r)))
    }
}

struct LInf;
impl Norm for LInf {
    #[inline(always)]
    unsafe fn step(acc: __m512d, q: __m512d, r: __m512d) -> __m512d {
        _mm512_max_pd(acc, abs_pd(_mm512_sub_pd(q, r)))
    }
    #[inline(always)]
    unsafe fn combine(prior: __m512d, acc: __m512d) -> __m512d {
        _mm512_max_pd(prior, acc)
    }
}

/// Bit `i` of `rows` to bit `i·NR`: one column's row mask in the lane
/// mask's row-major order. BMI2 is the caller's contract.
#[inline(always)]
unsafe fn spread(rows: __mmask8) -> u64 {
    _pdep_u64(u64::from(rows), 0x1111_1111)
}

/// The register block of norm `N`, `S` strips wide; column `c` of the
/// block is stored at `out[c·MR..]`, so [`SweepTile::slot`] is
/// column-major.
///
/// # Safety
/// [`SweepTile::block`]'s contract for `strips == S`, and AVX-512F + BMI2.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // SweepTile::block's operands
unsafe fn block<N: Norm, const S: usize>(
    dcb: usize,
    ap: *const f64,
    bp: *const f64,
    q2: *const f64,
    r2: *const f64,
    prior: Option<(*const f64, usize)>,
    thr: *const f64,
    out: *mut f64,
) -> StripMasks {
    let mut acc = [_mm512_setzero_pd(); COLS];
    for p in 0..dcb {
        let q = _mm512_loadu_pd(ap.add(p * MR));
        for s in 0..S {
            let b = bp.add(s * dcb * NR + p * NR);
            for j in 0..NR {
                let c = s * NR + j;
                acc[c] = N::step(acc[c], q, _mm512_set1_pd(*b.add(j)));
            }
        }
    }
    if let Some((cc, ldcc)) = prior {
        // row i of column c is cc[i·ldcc + c]: one strided gather a
        // column, reading MR rows of S·NR at the stride — the contract's
        // extent — at offsets that fit an i64
        debug_assert!(ldcc >= S * NR, "Cc rows overlap");
        debug_assert!(((MR - 1) * ldcc + S * NR) as u128 * 8 <= i64::MAX as u128);
        let l = ldcc as i64;
        let offsets = _mm512_set_epi64(7 * l, 6 * l, 5 * l, 4 * l, 3 * l, 2 * l, l, 0);
        for (c, acc_c) in acc.iter_mut().enumerate().take(S * NR) {
            *acc_c = N::combine(_mm512_i64gather_pd::<8>(offsets, cc.add(c)), *acc_c);
        }
    }
    let (q2, bound) = (_mm512_loadu_pd(q2), _mm512_loadu_pd(thr));
    let mut rows = [0; COLS];
    for c in 0..S * NR {
        acc[c] = N::finish(acc[c], q2, *r2.add(c));
        rows[c] = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(acc[c], bound);
    }
    let mut masks = [0u64; BLOCK_STRIPS];
    for (s, mask) in masks.iter_mut().enumerate().take(S) {
        let strip = &rows[s * NR..s * NR + NR];
        // most strips have no survivor: no mask to build, nothing to store
        if strip.iter().any(|&r| r != 0) {
            for (j, &rows_j) in strip.iter().enumerate() {
                *mask |= spread(rows_j) << j;
                _mm512_store_pd(out.add((s * NR + j) * MR), acc[s * NR + j]);
            }
        }
    }
    masks
}

/// The AVX-512F [`SweepTile`] of norm `N`.
struct Block<N>(std::marker::PhantomData<N>);

impl<N: Norm> SweepTile<f64> for Block<N> {
    const STRIPS: usize = BLOCK_STRIPS;

    #[inline(always)]
    fn slot(s: usize, i: usize, j: usize) -> usize {
        (s * NR + j) * MR + i
    }

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
        debug_assert!(
            out.cast::<u8>().align_offset(64) == 0,
            "the block buffer is zmm-aligned"
        );
        debug_assert!((1..=BLOCK_STRIPS).contains(&strips));
        // SAFETY: S = strips, so each arm reads and writes exactly the
        // extents `sweep_tiles` asserted at its top for this block
        // (q_pack ≥ m_rows·dcb, r_pack ≥ n_cols·dcb, q2/thr ≥ m_rows,
        // r2 ≥ n_cols, prior ≥ (m_rows−1)·ldcc + n_cols) and `out` is its
        // 64-byte-aligned block buffer; AVX-512F and BMI2 are the contract of
        // `sweep`, entered only after the cached `available()` check.
        unsafe {
            match strips {
                4 => block::<N, 4>(dcb, ap, bp, q2, r2, prior, thr, out),
                3 => block::<N, 3>(dcb, ap, bp, q2, r2, prior, thr, out),
                2 => block::<N, 2>(dcb, ap, bp, q2, r2, prior, thr, out),
                _ => block::<N, 1>(dcb, ap, bp, q2, r2, prior, thr, out),
            }
        }
    }
}

/// The sweep of norm `N`, compiled for AVX-512F and BMI2.
///
/// # Safety
/// Caller must guarantee AVX-512F and BMI2 support.
#[target_feature(enable = "avx512f,bmi2")]
unsafe fn sweep<N: Norm>(sw: &mut Sweep<'_, f64>) {
    // SAFETY: this function is compiled for AVX-512F and BMI2, and its
    // caller checked the CPU (the cached `available()`); `sweep_tiles` asserts
    // the extents of every block before the step reads them.
    unsafe { sweep_tiles(&Block::<N>(std::marker::PhantomData), sw) }
}

/// Vectorized macro-kernel; see [`super::FusedScalar::fused_sweep`].
///
/// # Safety
/// Caller must guarantee AVX-512F and BMI2 support ([`available`]).
pub unsafe fn sweep_avx512(kind: DistanceKind, sw: &mut Sweep<'_, f64>) {
    debug_assert!(available());
    // SAFETY: AVX-512F and BMI2 are this function's contract (the cached
    // cpuid check in `available`).
    unsafe {
        match kind {
            DistanceKind::SqL2 => sweep::<SqL2>(sw),
            DistanceKind::L1 => sweep::<L1>(sw),
            DistanceKind::LInf => sweep::<LInf>(sw),
            DistanceKind::Cosine => sweep::<Cosine>(sw),
            DistanceKind::Lp(_) => unreachable!("general p has no AVX-512 path"),
        }
    }
}
