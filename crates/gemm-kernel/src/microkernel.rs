//! The register-blocked micro-kernel (1st loop): an `MR × NR` rank-`dcb`
//! update streamed from packed panels, the only architecture-dependent
//! code in the GEMM (the BLIS design the paper follows, §2.4).
//!
//! `MR = 8`, `NR = 4` doubles mirrors the paper's Ivy Bridge kernel: the
//! 8×4 tile needs eight 256-bit accumulators plus one broadcast and one
//! load register, leaving headroom in the 16 `ymm` registers for the
//! double-buffering the hardware's out-of-order engine performs for us.
//! On FMA-capable parts the shuffle dance of the paper's Figure 3 (AVX
//! without FMA) is replaced by broadcast-FMA, which is how BLIS writes the
//! same kernel on Haswell+.

//! The f32 kernels double the lane count at the same register budget:
//! `MR = 8`, `NR = 8` singles is an 8×8 tile held in eight `f32x8`
//! accumulators (AVX2).

use gsknn_scalar::GsknnScalar;

/// Micro-tile rows (m-dimension) — f64 kernel (`<f64 as GsknnScalar>::MR`).
pub const MR: usize = 8;
/// Micro-tile columns (n-dimension) — f64 kernel (`<f64 as GsknnScalar>::NR`).
pub const NR: usize = 4;

/// Micro-tile rows of the f32 kernel.
pub const MR_F32: usize = 8;
/// Micro-tile columns of the f32 kernel (one 256-bit register of 8
/// lanes).
pub const NR_F32: usize = 8;

/// Signature of a rank-`dcb` micro-kernel:
/// `C[i][j] += alpha * Σ_p ap[p*MR+i] * bp[p*NR+j]` for the full tile,
/// where `c` points at `C(0,0)` and rows are `ldc` elements apart.
///
/// # Safety
/// `ap`/`bp` must be valid for `dcb*MR` / `dcb*NR` reads; `c` must be valid
/// for writes at `i*ldc + j` for all `i < MR`, `j < NR`; the AVX2 variant
/// additionally requires AVX2+FMA support (guaranteed by
/// [`microkernel_dispatch`]).
pub type MicroKernelFn =
    unsafe fn(dcb: usize, alpha: f64, ap: *const f64, bp: *const f64, c: *mut f64, ldc: usize);

/// [`MicroKernelFn`] for an arbitrary element type; the tile is
/// `T::MR × T::NR`.
pub type MicroKernelFnT<T> =
    unsafe fn(dcb: usize, alpha: T, ap: *const T, bp: *const T, c: *mut T, ldc: usize);

/// Element types the GEMM substrate has micro-kernels for: adds the
/// per-type kernel dispatch on top of [`GsknnScalar`].
pub trait GemmScalar: GsknnScalar {
    /// Best rank-update micro-kernel for the running CPU (decided once
    /// per type).
    fn microkernel() -> MicroKernelFnT<Self>;
}

impl GemmScalar for f64 {
    fn microkernel() -> MicroKernelFnT<f64> {
        microkernel_dispatch()
    }
}

impl GemmScalar for f32 {
    fn microkernel() -> MicroKernelFnT<f32> {
        microkernel_dispatch_f32()
    }
}

/// Portable scalar micro-kernel; also the "edge-case kernel" the paper
/// pairs with the optimized one.
///
/// # Safety
/// See [`MicroKernelFn`].
pub unsafe fn kernel_8x4_scalar(
    dcb: usize,
    alpha: f64,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for p in 0..dcb {
        let a = std::slice::from_raw_parts(ap.add(p * MR), MR);
        let b = std::slice::from_raw_parts(bp.add(p * NR), NR);
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] += a[i] * b[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            *c.add(i * ldc + j) += alpha * v;
        }
    }
}

/// AVX2+FMA micro-kernel: eight `f64x4` accumulators, one broadcast per
/// row per `p`.
///
/// # Safety
/// See [`MicroKernelFn`]; caller must ensure AVX2 and FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn kernel_8x4_avx2(
    dcb: usize,
    alpha: f64,
    ap: *const f64,
    bp: *const f64,
    c: *mut f64,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_pd(); MR];
    for p in 0..dcb {
        let b = _mm256_load_pd(bp.add(p * NR)); // packed, 32B-aligned rows
        let a_row = ap.add(p * MR);
        // Fixed-count loop: unrolled by the compiler into 8 broadcast+FMA.
        for (i, acc_i) in acc.iter_mut().enumerate() {
            let a = _mm256_broadcast_sd(&*a_row.add(i));
            *acc_i = _mm256_fmadd_pd(a, b, *acc_i);
        }
    }
    let va = _mm256_set1_pd(alpha);
    for (i, &a) in acc.iter().enumerate() {
        let dst = c.add(i * ldc);
        let cur = _mm256_loadu_pd(dst);
        _mm256_storeu_pd(dst, _mm256_fmadd_pd(va, a, cur));
    }
}

/// Pick the best micro-kernel for the running CPU (decided once).
pub fn microkernel_dispatch() -> MicroKernelFn {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static CHOICE: OnceLock<MicroKernelFn> = OnceLock::new();
        *CHOICE.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                kernel_8x4_avx2
            } else {
                kernel_8x4_scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        kernel_8x4_scalar
    }
}

/// Portable scalar f32 micro-kernel (8×8 tile); the edge-case kernel and
/// the oracle for the SIMD variants.
///
/// # Safety
/// See [`MicroKernelFn`], with `MR_F32`/`NR_F32` tile bounds.
pub unsafe fn kernel_8x8_f32_scalar(
    dcb: usize,
    alpha: f32,
    ap: *const f32,
    bp: *const f32,
    c: *mut f32,
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR_F32]; MR_F32];
    for p in 0..dcb {
        let a = std::slice::from_raw_parts(ap.add(p * MR_F32), MR_F32);
        let b = std::slice::from_raw_parts(bp.add(p * NR_F32), NR_F32);
        for i in 0..MR_F32 {
            for j in 0..NR_F32 {
                acc[i][j] += a[i] * b[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            *c.add(i * ldc + j) += alpha * v;
        }
    }
}

/// AVX2+FMA f32 micro-kernel: eight `f32x8` accumulators (one full tile
/// row each), one broadcast per row per `p` — twice the FLOPs of the f64
/// kernel per instruction at the identical register budget.
///
/// # Safety
/// See [`MicroKernelFn`]; caller must ensure AVX2 and FMA are available,
/// and `bp` rows must be 32-byte aligned (packing into [`crate::AlignedBuf`]
/// guarantees this).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn kernel_8x8_f32_avx2(
    dcb: usize,
    alpha: f32,
    ap: *const f32,
    bp: *const f32,
    c: *mut f32,
    ldc: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); MR_F32];
    for p in 0..dcb {
        let b = _mm256_load_ps(bp.add(p * NR_F32)); // packed, 32B-aligned rows
        let a_row = ap.add(p * MR_F32);
        for (i, acc_i) in acc.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*a_row.add(i));
            *acc_i = _mm256_fmadd_ps(a, b, *acc_i);
        }
    }
    let va = _mm256_set1_ps(alpha);
    for (i, &a) in acc.iter().enumerate() {
        let dst = c.add(i * ldc);
        let cur = _mm256_loadu_ps(dst);
        _mm256_storeu_ps(dst, _mm256_fmadd_ps(va, a, cur));
    }
}

/// Pick the best f32 micro-kernel for the running CPU (decided once).
pub fn microkernel_dispatch_f32() -> MicroKernelFnT<f32> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static CHOICE: OnceLock<MicroKernelFnT<f32>> = OnceLock::new();
        *CHOICE.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                kernel_8x8_f32_avx2
            } else {
                kernel_8x8_f32_scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        kernel_8x8_f32_scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build packed panels for an MR×NR×depth toy problem with
    /// deterministic pseudo-random contents.
    fn panels(depth: usize) -> (Vec<f64>, Vec<f64>) {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let ap: Vec<f64> = (0..depth * MR).map(|_| next()).collect();
        let bp: Vec<f64> = (0..depth * NR).map(|_| next()).collect();
        (ap, bp)
    }

    fn reference(dcb: usize, alpha: f64, ap: &[f64], bp: &[f64], c: &mut [f64], ldc: usize) {
        for i in 0..MR {
            for j in 0..NR {
                let mut acc = 0.0;
                for p in 0..dcb {
                    acc += ap[p * MR + i] * bp[p * NR + j];
                }
                c[i * ldc + j] += alpha * acc;
            }
        }
    }

    #[test]
    fn scalar_matches_reference() {
        for depth in [0usize, 1, 3, 17, 64] {
            let (ap, bp) = panels(depth.max(1));
            let ldc = NR + 3;
            let mut got = vec![1.0; MR * ldc];
            let mut want = got.clone();
            unsafe {
                kernel_8x4_scalar(depth, -2.0, ap.as_ptr(), bp.as_ptr(), got.as_mut_ptr(), ldc)
            };
            reference(depth, -2.0, &ap, &bp, &mut want, ldc);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12, "depth {depth}: {g} vs {w}");
            }
        }
    }

    #[test]
    #[cfg_attr(not(target_arch = "x86_64"), ignore)]
    fn avx2_matches_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return;
        }
        for depth in [1usize, 2, 7, 31, 256] {
            // AVX2 kernel loads bp with aligned loads: allocate aligned.
            let (ap, bp_v) = panels(depth);
            let mut bp = crate::AlignedBuf::zeroed(bp_v.len());
            bp.as_mut_slice().copy_from_slice(&bp_v);
            let ldc = NR + 2; // strided C: row stores must honour ldc
            let mut got = vec![0.5; MR * ldc];
            let mut want = got.clone();
            unsafe {
                kernel_8x4_avx2(
                    depth,
                    1.5,
                    ap.as_ptr(),
                    bp.as_slice().as_ptr(),
                    got.as_mut_ptr(),
                    ldc,
                );
                kernel_8x4_scalar(
                    depth,
                    1.5,
                    ap.as_ptr(),
                    bp.as_slice().as_ptr(),
                    want.as_mut_ptr(),
                    ldc,
                );
            }
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-10, "depth {depth}: {g} vs {w}");
            }
        }
    }

    /// Packed f32 panels with deterministic pseudo-random contents.
    fn panels_f32(depth: usize) -> (Vec<f32>, Vec<f32>) {
        let mut state = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5) as f32
        };
        let ap: Vec<f32> = (0..depth * MR_F32).map(|_| next()).collect();
        let bp: Vec<f32> = (0..depth * NR_F32).map(|_| next()).collect();
        (ap, bp)
    }

    fn reference_f32(dcb: usize, alpha: f32, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
        for i in 0..MR_F32 {
            for j in 0..NR_F32 {
                let mut acc = 0.0f32;
                for p in 0..dcb {
                    acc += ap[p * MR_F32 + i] * bp[p * NR_F32 + j];
                }
                c[i * ldc + j] += alpha * acc;
            }
        }
    }

    #[test]
    fn f32_scalar_matches_reference() {
        for depth in [0usize, 1, 3, 17, 64] {
            let (ap, bp) = panels_f32(depth.max(1));
            let ldc = NR_F32 + 3;
            let mut got = vec![1.0f32; MR_F32 * ldc];
            let mut want = got.clone();
            unsafe {
                kernel_8x8_f32_scalar(depth, -2.0, ap.as_ptr(), bp.as_ptr(), got.as_mut_ptr(), ldc)
            };
            reference_f32(depth, -2.0, &ap, &bp, &mut want, ldc);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-5, "depth {depth}: {g} vs {w}");
            }
        }
    }

    #[test]
    #[cfg_attr(not(target_arch = "x86_64"), ignore)]
    fn f32_avx2_matches_scalar() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return;
        }
        for depth in [1usize, 2, 7, 31, 256] {
            let (ap, bp_v) = panels_f32(depth);
            let mut bp = crate::AlignedBuf::<f32>::zeroed(bp_v.len());
            bp.as_mut_slice().copy_from_slice(&bp_v);
            let ldc = NR_F32 + 2; // strided C: row stores must honour ldc
            let mut got = vec![0.5f32; MR_F32 * ldc];
            let mut want = got.clone();
            unsafe {
                kernel_8x8_f32_avx2(
                    depth,
                    1.5,
                    ap.as_ptr(),
                    bp.as_slice().as_ptr(),
                    got.as_mut_ptr(),
                    ldc,
                );
                kernel_8x8_f32_scalar(
                    depth,
                    1.5,
                    ap.as_ptr(),
                    bp.as_slice().as_ptr(),
                    want.as_mut_ptr(),
                    ldc,
                );
            }
            for (g, w) in got.iter().zip(&want) {
                // FMA contracts the multiply-add, scalar does not: allow
                // a few ulps over the f32 epsilon per accumulated term
                assert!(
                    (g - w).abs() < 1e-4 * depth as f32,
                    "depth {depth}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn f32_dispatch_returns_a_working_kernel() {
        let k = <f32 as GemmScalar>::microkernel();
        let (ap, bp_v) = panels_f32(4);
        let mut bp = crate::AlignedBuf::<f32>::zeroed(bp_v.len());
        bp.as_mut_slice().copy_from_slice(&bp_v);
        let mut got = vec![0.0f32; MR_F32 * NR_F32];
        let mut want = vec![0.0f32; MR_F32 * NR_F32];
        unsafe {
            k(
                4,
                1.0,
                ap.as_ptr(),
                bp.as_slice().as_ptr(),
                got.as_mut_ptr(),
                NR_F32,
            )
        };
        reference_f32(4, 1.0, &ap, bp.as_slice(), &mut want, NR_F32);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn dispatch_returns_a_working_kernel() {
        let k = microkernel_dispatch();
        let (ap, bp_v) = panels(4);
        let mut bp = crate::AlignedBuf::zeroed(bp_v.len());
        bp.as_mut_slice().copy_from_slice(&bp_v);
        let mut got = vec![0.0; MR * NR];
        let mut want = vec![0.0; MR * NR];
        unsafe {
            k(
                4,
                1.0,
                ap.as_ptr(),
                bp.as_slice().as_ptr(),
                got.as_mut_ptr(),
                NR,
            )
        };
        reference(4, 1.0, &ap, bp.as_slice(), &mut want, NR);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }
}
