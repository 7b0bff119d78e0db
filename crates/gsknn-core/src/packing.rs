//! Gather-packing (§2.3 "Packing"): GSKNN's defining difference from the
//! GEMM approach is that panels are packed **directly from the global
//! coordinate table `X` through the index lists `q`/`r`** — the explicit
//! collection `Q(:,i) = X(:,q(i))` of Algorithm 2.1 never happens, saving
//! the `2dm + 2dn` memory traffic the performance model charges the
//! baseline for (Eq. 5). Generic over the element type: the micro-panel
//! widths come from the type's own tile (`MR×NR` = 8×4 for f64, 8×8 for
//! f32), so the same packing serves both precisions.
//!
//! A call packs each `Rc` once and every query of the call reuses it; a
//! table that *every* call searches whole (a flat serving index) is packed
//! once for all calls instead — [`PackedRefs`], the reference-stationary
//! form, laid out by the same routine and normed by the same fold.

use dataset::PointSet;
use gemm_kernel::GemmParams;
use gsknn_scalar::GsknnScalar;
use std::ops::Range;

/// Gather-pack the query-side panel `Qc`: points `q_idx[ic .. ic+mcb]`,
/// coordinates `pc .. pc+dcb`, as `T::MR`-wide micro-panels (element
/// `(i, p)` of micro-panel `ib` at `ib*MR*dcb + p*MR + i`), fringe
/// zero-padded.
///
/// `out.len()` must equal `⌈mcb/MR⌉ * MR * dcb`.
pub fn pack_q_panel<T: GsknnScalar>(
    x: &PointSet<T>,
    q_idx: &[usize],
    ic: usize,
    mcb: usize,
    pc: usize,
    dcb: usize,
    out: &mut [T],
) {
    gather_pack(x, q_idx, ic, mcb, pc, dcb, T::MR, out)
}

/// Gather-pack the reference-side panel `Rc` (`T::NR`-wide micro-panels).
pub fn pack_r_panel<T: GsknnScalar>(
    x: &PointSet<T>,
    r_idx: &[usize],
    jc: usize,
    ncb: usize,
    pc: usize,
    dcb: usize,
    out: &mut [T],
) {
    gather_pack(x, r_idx, jc, ncb, pc, dcb, T::NR, out)
}

#[allow(clippy::too_many_arguments)]
fn gather_pack<T: GsknnScalar>(
    x: &PointSet<T>,
    idx: &[usize],
    c0: usize,
    cols: usize,
    pc: usize,
    dcb: usize,
    w: usize,
    out: &mut [T],
) {
    debug_assert!(c0 + cols <= idx.len());
    let slab = |i: usize| x.point_slab(idx[c0 + i], pc, dcb);
    lay_out_panel(slab, |v| v, cols, dcb, w, out)
}

/// Lay `cols` points out as `w`-wide micro-panels of `dcb` coordinates
/// (element `(i, p)` of micro-panel `ib` at `ib*w*dcb + p*w + i`), fringe
/// zero-padded; `slab(i)` is point `i`'s `dcb` coordinates, each converted
/// by `to_t`.
#[inline(always)]
fn lay_out_panel<'x, S: GsknnScalar + 'x, T: GsknnScalar>(
    slab: impl Fn(usize) -> &'x [S],
    to_t: impl Fn(S) -> T,
    cols: usize,
    dcb: usize,
    w: usize,
    out: &mut [T],
) {
    let blocks = cols.div_ceil(w);
    assert_eq!(out.len(), blocks * w * dcb, "packed buffer size mismatch");
    for ib in 0..blocks {
        let base = ib * w * dcb;
        let width = (cols - ib * w).min(w);
        for i in 0..width {
            for (p, &v) in slab(ib * w + i).iter().enumerate() {
                out[base + p * w + i] = to_t(v);
            }
        }
        // fringe zero-padding so the micro-kernel runs full tiles
        for i in width..w {
            for p in 0..dcb {
                out[base + p * w + i] = T::ZERO;
            }
        }
    }
}

/// Gather squared norms `X2(idx[c0..c0+cols])` into `out`, padding the
/// `w`-aligned tail with zeros (pad distances are discarded by the
/// selection bounds, so their value is irrelevant).
pub fn pack_sqnorms<T: GsknnScalar>(
    x: &PointSet<T>,
    idx: &[usize],
    c0: usize,
    cols: usize,
    w: usize,
    out: &mut [T],
) {
    let padded = cols.div_ceil(w) * w;
    assert_eq!(out.len(), padded, "sqnorm buffer size mismatch");
    for i in 0..cols {
        out[i] = x.sqnorm(idx[c0 + i]);
    }
    for slot in out[cols..].iter_mut() {
        *slot = T::ZERO;
    }
}

/// A reference set packed once into the `Rc` micro-panels and `R2c` norms
/// of every `(jc, pc)` block of the nest, in loop order — what
/// [`crate::Gsknn::update_prepacked`] borrows block by block instead of
/// gather-packing per call, under the blocking the panels were packed with
/// ([`PackedRefs::params`]).
///
/// Layout, with `ncb = min(nc, n − jc)` and `ncb⁺ = ⌈ncb/NR⌉·NR`: block
/// `jc` starts at element `jc·d` of [`PackedRefs::panels`] (every block
/// before it holds `nc` points, a multiple of `NR`), its `(jc, pc)` panel
/// — laid out as [`pack_r_panel`] writes it — at `jc·d + ncb⁺·pc`, and its
/// `R2c` is `norms[jc .. jc + ncb⁺]`. A block whose `ncb` is a multiple of
/// `NR` fills exactly the elements of its rows, so `n` points take
/// `⌈n/NR⌉·NR·d` elements: one copy of the table.
#[derive(Clone, Debug)]
pub struct PackedRefs<T: GsknnScalar = f64> {
    params: GemmParams,
    d: usize,
    panels: Vec<T>,
    norms: Vec<T>,
    ids: Vec<usize>,
}

impl<T: GsknnScalar> PackedRefs<T> {
    /// Pack points `r_idx` of `x` under `params`, converting each
    /// coordinate to `T` (an f64 table packs straight into f32 panels, with
    /// the norms [`PointSet::cast`] would compute). The ids are checked
    /// here, once, rather than on every call, and kept as
    /// [`PackedRefs::ids`].
    ///
    /// # Panics
    /// On blocking invalid for `T`, an id outside `x`, or a coordinate
    /// that overflows `T`.
    pub fn pack<S: GsknnScalar>(x: &PointSet<S>, r_idx: Vec<usize>, params: GemmParams) -> Self {
        assert!(
            r_idx.iter().all(|&i| i < x.len()),
            "reference index out of bounds (N = {})",
            x.len()
        );
        let (d, nr) = (x.dim(), T::NR);
        let mut packed = PackedRefs::new(d, r_idx, params);
        packed.norms = vec![T::ZERO; packed.len().div_ceil(nr) * nr];
        // the panels in loop order, one micro-panel appended at a time
        let mut panels = Vec::with_capacity(packed.panel_len());
        for jc in packed.jc_blocks() {
            gsknn_faults::fail_point!(gsknn_faults::FaultPoint::PackR);
            for pc in (0..d).step_by(params.dc) {
                let dcb = (d - pc).min(params.dc);
                for j0 in (0..jc.len()).step_by(nr) {
                    let (first, width) = (jc.start + j0, (jc.len() - j0).min(nr));
                    let ids = &packed.ids[first..first + width];
                    let at = panels.len();
                    panels.resize(at + nr * dcb, T::ZERO);
                    let slab = |i: usize| &x.point(ids[i])[pc..pc + dcb];
                    let to_t = |v: S| T::from_f64(v.to_f64());
                    lay_out_panel(slab, to_t, width, dcb, nr, &mut panels[at..]);
                    // each norm is the fold `PointSet` computes, over the
                    // coordinates in ascending order; a strip's side by side
                    let norms = &mut packed.norms[first..first + width];
                    for row in panels[at..].chunks_exact(nr) {
                        for (norm, &v) in norms.iter_mut().zip(row) {
                            *norm += v * v;
                        }
                    }
                }
            }
        }
        packed.panels = panels;
        // a finite norm has finite terms; only an infinite one asks which
        for (&norm, &id) in packed.norms.iter().zip(&packed.ids) {
            assert!(
                norm.is_finite()
                    || x.point(id)
                        .iter()
                        .all(|&v| T::from_f64(v.to_f64()).is_finite()),
                "coordinate overflows {}",
                T::NAME
            );
        }
        packed
    }

    /// Pack all of `x` (ids `0..n`) in place: its coordinate buffer becomes
    /// the panels and its `X2` the `R2c`. Each step copies the rows it
    /// rewrites into a scratch — one `NR`-point strip when `d ≤ dc` (the
    /// block's one panel holds each strip where its rows were), one `jc`
    /// block otherwise (the block's `pc` panels interleave all its rows) —
    /// so the build never holds a second copy of the table.
    ///
    /// # Panics
    /// On blocking invalid for `T`.
    pub fn from_table(x: PointSet<T>, params: GemmParams) -> Self {
        let (d, n) = (x.dim(), x.len());
        let mut packed = PackedRefs::new(d, (0..n).collect(), params);
        let (coords, sqnorms) = x.into_parts();
        packed.norms = sqnorms;
        packed.norms.resize(n.div_ceil(T::NR) * T::NR, T::ZERO);
        packed.panels = coords;
        packed.panels.resize(packed.panel_len(), T::ZERO);
        let step = if d <= params.dc {
            T::NR
        } else {
            params.nc.min(n)
        };
        // a strip of rows fits on the stack: the build allocates nothing
        // beyond what it keeps
        let (mut on_stack, mut on_heap) = ([T::ZERO; 4096], Vec::new());
        let scratch = if step * d <= on_stack.len() {
            &mut on_stack[..step * d]
        } else {
            on_heap.resize(step * d, T::ZERO);
            &mut on_heap[..]
        };
        for jc in packed.jc_blocks() {
            gsknn_faults::fail_point!(gsknn_faults::FaultPoint::PackR);
            let ncb_pad = jc.len().div_ceil(T::NR) * T::NR;
            for j0 in (0..jc.len()).step_by(step) {
                let (first, width) = ((jc.start + j0) * d, (jc.len() - j0).min(step));
                let rows = &mut scratch[..width * d];
                rows.copy_from_slice(&packed.panels[first..first + width * d]);
                for pc in (0..d).step_by(params.dc) {
                    let dcb = (d - pc).min(params.dc);
                    let at = jc.start * d + ncb_pad * pc + j0 * dcb;
                    let out = &mut packed.panels[at..][..width.div_ceil(T::NR) * T::NR * dcb];
                    let slab = |i: usize| &rows[i * d + pc..][..dcb];
                    lay_out_panel(slab, |v| v, width, dcb, T::NR, out);
                }
            }
        }
        packed
    }

    fn new(d: usize, ids: Vec<usize>, params: GemmParams) -> Self {
        params
            .validate_for::<T>()
            .expect("invalid blocking parameters");
        PackedRefs {
            params,
            d,
            panels: Vec::new(),
            norms: Vec::new(),
            ids,
        }
    }

    /// `⌈n/NR⌉·NR·d`.
    fn panel_len(&self) -> usize {
        self.norms.len() * self.d
    }

    /// The 6th loop's reference blocks.
    fn jc_blocks(&self) -> impl Iterator<Item = Range<usize>> {
        let (n, nc) = (self.len(), self.params.nc);
        (0..n).step_by(nc).map(move |jc| jc..n.min(jc + nc))
    }

    /// Block `(jc, pc)` of the nest: its `Rc` panel and its `R2c`.
    pub(crate) fn block(&self, jc: usize, pc: usize) -> (&[T], &[T]) {
        let GemmParams { dc, nc, .. } = self.params;
        let ncb_pad = (self.len() - jc).min(nc).div_ceil(T::NR) * T::NR;
        let at = jc * self.d + ncb_pad * pc;
        let dcb = (self.d - pc).min(dc);
        (
            &self.panels[at..at + ncb_pad * dcb],
            &self.norms[jc..jc + ncb_pad],
        )
    }

    /// References packed (`n`).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when nothing is packed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Point dimension.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The blocking the panels were packed with — the blocking every call
    /// against them runs.
    pub fn params(&self) -> GemmParams {
        self.params
    }

    /// Reference ids, in packed order: what a neighbor row reports.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Every `(jc, pc)` panel, in loop order (`⌈n/NR⌉·NR·d` elements).
    pub fn panels(&self) -> &[T] {
        &self.panels
    }

    /// The squared norms of the references, in packed order (`R2c`
    /// without its padding).
    pub fn sqnorms(&self) -> &[T] {
        &self.norms[..self.len()]
    }

    /// Copy the coordinates of the reference at packed position `j` into
    /// `out`, read back out of the panels: what a caller that reranks a
    /// few references needs once the row-major table is gone.
    ///
    /// # Panics
    /// When `j >= len()` or `out.len() != dim()`.
    pub fn point_into(&self, j: usize, out: &mut [T]) {
        assert!(j < self.len(), "packed position {j} out of bounds");
        assert_eq!(out.len(), self.d, "point buffer is not d long");
        let GemmParams { dc, nc, .. } = self.params;
        let jc = j / nc * nc;
        let ncb_pad = (self.len() - jc).min(nc).div_ceil(T::NR) * T::NR;
        let (strip, lane) = ((j - jc) / T::NR * T::NR, (j - jc) % T::NR);
        for (b, out) in out.chunks_mut(dc).enumerate() {
            let (pc, dcb) = (b * dc, out.len());
            // within a (jc, pc) panel the point's coordinates are NR apart
            let at = jc * self.d + ncb_pad * pc + strip * dcb + lane;
            let panel = &self.panels[at..at + (dcb - 1) * T::NR + 1];
            for (o, &v) in out.iter_mut().zip(panel.iter().step_by(T::NR)) {
                *o = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::uniform;
    use gemm_kernel::{MR, NR};

    #[test]
    fn q_panel_gathers_through_indices() {
        let x = uniform(10, 3, 1);
        let q = [7usize, 2, 9, 0, 4, 1, 8, 3, 5]; // 9 queries, MR=8 -> 2 blocks
        let mcb = 9usize;
        let dcb = 2;
        let blocks = mcb.div_ceil(MR);
        let mut out = vec![f64::NAN; blocks * MR * dcb];
        pack_q_panel(&x, &q, 0, mcb, 1, dcb, &mut out);
        // element (i=0, p=0) of block 0: X(1, q[0]=7)
        assert_eq!(out[0], x.point(7)[1]);
        // element (i=3, p=1) of block 0: X(2, q[3]=0)
        assert_eq!(out[MR + 3], x.point(0)[2]);
        // block 1 holds only q[8]=5, rest zero-padded
        let b1 = MR * dcb;
        assert_eq!(out[b1], x.point(5)[1]);
        assert_eq!(out[b1 + 1], 0.0);
        assert_eq!(out[b1 + MR + 1], 0.0);
    }

    #[test]
    fn r_panel_respects_offset() {
        let x = uniform(6, 4, 2);
        let r = [5usize, 4, 3, 2, 1, 0];
        let mut out = vec![f64::NAN; NR * 4];
        pack_r_panel(&x, &r, 2, 4, 0, 4, &mut out);
        // (j=0, p=0): X(0, r[2]=3)
        assert_eq!(out[0], x.point(3)[0]);
        // (j=3, p=2): X(2, r[5]=0)
        assert_eq!(out[2 * NR + 3], x.point(0)[2]);
    }

    #[test]
    fn f32_r_panel_uses_eight_wide_micro_panels() {
        let x: dataset::PointSet<f32> = uniform(10, 3, 5).cast();
        let r: Vec<usize> = (0..10).rev().collect();
        let nr32 = <f32 as GsknnScalar>::NR;
        assert_eq!(nr32, 8);
        let blocks = 10usize.div_ceil(nr32);
        let mut out = vec![f32::NAN; blocks * nr32 * 3];
        pack_r_panel(&x, &r, 0, 10, 0, 3, &mut out);
        // (j=0, p=0): X(0, r[0]=9); (j=2, p=1) in block 0: X(1, r[2]=7)
        assert_eq!(out[0], x.point(9)[0]);
        assert_eq!(out[nr32 + 2], x.point(7)[1]);
        // block 1 holds r[8..10] = {1, 0}, rest zero-padded
        let b1 = nr32 * 3;
        assert_eq!(out[b1], x.point(1)[0]);
        assert_eq!(out[b1 + 2], 0.0);
    }

    #[test]
    fn sqnorms_gather_and_pad() {
        let x = uniform(5, 2, 3);
        let idx = [4usize, 1, 3];
        let mut out = vec![f64::NAN; 4]; // W=4 pad
        pack_sqnorms(&x, &idx, 0, 3, 4, &mut out);
        assert_eq!(out[0], x.sqnorm(4));
        assert_eq!(out[2], x.sqnorm(3));
        assert_eq!(out[3], 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Gather-packing through an index permutation must equal
            /// strided packing of the permuted dense matrix — the
            /// equivalence that lets GSKNN skip the collection phase.
            #[test]
            fn gather_equals_collect_then_pack(
                n in 1usize..25,
                d in 1usize..10,
                seed in 0u64..500,
                idx in prop::collection::vec(0usize..25, 1..30),
            ) {
                let idx: Vec<usize> = idx.into_iter().map(|i| i % n).collect();
                let x = uniform(n, d, seed);
                let collected = x.gather(&idx); // dense d×|idx| colmajor
                let mcb = idx.len();
                let dcb = d;
                let blocks = mcb.div_ceil(MR);
                let mut via_gather = vec![f64::NAN; blocks * MR * dcb];
                let mut via_collect = via_gather.clone();
                pack_q_panel(&x, &idx, 0, mcb, 0, dcb, &mut via_gather);
                gemm_kernel::pack_a_panel(&collected, d, 0, mcb, 0, dcb, &mut via_collect);
                prop_assert_eq!(via_gather, via_collect);
            }

            /// Sub-window packing agrees with full packing on the
            /// overlapping region for the reference side too.
            #[test]
            fn r_panel_subwindow(
                n in 4usize..30,
                d in 2usize..8,
                seed in 0u64..100,
            ) {
                let x = uniform(n, d, seed);
                let r_idx: Vec<usize> = (0..n).rev().collect();
                let jc = n / 4;
                let ncb = n - jc;
                let pc = d / 2;
                let dcb = d - pc;
                let blocks = ncb.div_ceil(NR);
                let mut out = vec![f64::NAN; blocks * NR * dcb];
                pack_r_panel(&x, &r_idx, jc, ncb, pc, dcb, &mut out);
                // spot-check every real element against the source
                for jb in 0..blocks {
                    let width = (ncb - jb * NR).min(NR);
                    for p in 0..dcb {
                        for j in 0..width {
                            let got = out[jb * NR * dcb + p * NR + j];
                            let want = x.point(r_idx[jc + jb * NR + j])[pc + p];
                            prop_assert_eq!(got, want);
                        }
                    }
                }
            }
        }
    }

    /// Every `(jc, pc)` block and `R2c` of `packed` is what `pack_r_panel`
    /// and `pack_sqnorms` gather from `x` over ids `0..n`, bit for bit, and
    /// [`PackedRefs::point_into`] / [`PackedRefs::sqnorms`] read `x` back.
    fn blocks_are_gathered<T: GsknnScalar>(
        x: &dataset::PointSet<T>,
        packed: &PackedRefs<T>,
    ) -> Result<(), String> {
        use proptest::prop_assert_eq;
        let (n, d, nr) = (x.len(), x.dim(), T::NR);
        let GemmParams { dc, nc, .. } = packed.params();
        let bits = |v: &[T]| v.iter().map(|e| e.to_f64().to_bits()).collect::<Vec<_>>();
        let ids: Vec<usize> = (0..n).collect();
        prop_assert_eq!(packed.ids(), &ids[..]);
        prop_assert_eq!(packed.panels().len(), n.div_ceil(nr) * nr * d);
        prop_assert_eq!(bits(packed.sqnorms()), bits(x.sqnorms()));
        let mut read_back = vec![T::NAN; d];
        for j in 0..n {
            packed.point_into(j, &mut read_back);
            prop_assert_eq!(bits(&read_back), bits(x.point(j)), "point {}", j);
        }
        for jc in (0..n).step_by(nc) {
            let ncb = (n - jc).min(nc);
            let padded = ncb.div_ceil(nr) * nr;
            for pc in (0..d).step_by(dc) {
                let dcb = (d - pc).min(dc);
                let mut want = vec![T::ZERO; padded * dcb];
                pack_r_panel(x, &ids, jc, ncb, pc, dcb, &mut want);
                prop_assert_eq!(
                    bits(packed.block(jc, pc).0),
                    bits(&want),
                    "({}, {})",
                    jc,
                    pc
                );
            }
            let mut want = vec![T::ZERO; padded];
            pack_sqnorms(x, &ids, jc, ncb, nr, &mut want);
            prop_assert_eq!(bits(packed.block(jc, 0).1), bits(&want), "R2c of {}", jc);
        }
        Ok(())
    }

    proptest::proptest! {
        /// The in-place build of a table, in both precisions, and the f32
        /// build cast from the f64 table: every block is the gathered one.
        /// `n` straddles `NR` and `nc`; `d` straddles `dc` (a block per
        /// strip below it, the whole block above).
        #[test]
        fn prepacked_blocks_are_the_gathered_blocks(
            n in 1usize..90,
            d in 1usize..20,
            seed in 0u64..500,
            blocking in 0usize..3,
        ) {
            let params = |nr: usize| match blocking {
                0 => GemmParams { dc: 8, mc: 2 * MR, nc: 3 * nr },
                1 => GemmParams { dc: 8, mc: 3 * MR, nc: 5 * nr },
                _ => GemmParams { dc: 32, mc: 3 * MR, nc: 5 * nr },
            };
            let (p64, p32) = (params(NR), params(<f32 as GsknnScalar>::NR));
            let x = uniform(n, d, seed);
            let x32: dataset::PointSet<f32> = x.cast();
            let ids: Vec<usize> = (0..n).collect();
            let in_place = PackedRefs::from_table(x.clone(), p64);
            blocks_are_gathered(&x, &in_place)?;
            let gathered = PackedRefs::pack(&x, ids.clone(), p64);
            proptest::prop_assert_eq!(in_place.panels(), gathered.panels());
            blocks_are_gathered(&x32, &PackedRefs::from_table(x32.clone(), p32))?;
            blocks_are_gathered(&x32, &PackedRefs::<f32>::pack(&x, ids, p32))?;
        }
    }

    #[test]
    #[should_panic(expected = "reference index out of bounds")]
    fn packing_checks_the_ids_once() {
        let x = uniform(10, 3, 1);
        PackedRefs::<f64>::pack(&x, vec![3, 10], GemmParams::tiny());
    }

    #[test]
    fn matches_gemm_kernel_packing_on_identity_indices() {
        // With q = 0..n, gather-packing X must equal strided packing of
        // X's raw buffer — the two packing implementations cross-check.
        let x = uniform(7, 5, 4);
        let q: Vec<usize> = (0..7).collect();
        let mcb = 7usize;
        let dcb = 3;
        let blocks = mcb.div_ceil(MR);
        let mut got = vec![f64::NAN; blocks * MR * dcb];
        let mut want = got.clone();
        pack_q_panel(&x, &q, 0, mcb, 1, dcb, &mut got);
        gemm_kernel::pack_a_panel(x.as_slice(), 5, 0, mcb, 1, dcb, &mut want);
        assert_eq!(got, want);
    }
}
