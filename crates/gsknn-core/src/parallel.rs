//! Data-parallel GSKNN (§2.5): parallelize the **4th loop**. Every query
//! chunk of `mc` rows goes to one worker, which packs its private `Qc`
//! (the paper: "each processor will create a private Qc and preserve it
//! in its private L2") while the packed `Rc` panel is shared read-only
//! ("Rc is shared and preserved in the L3 cache"). Parallelizing the
//! reference-side loops (3rd/6th) would race on the per-query heaps —
//! the paper's footnote 5 — so we never do.
//!
//! Load balance: when `m` is not a multiple of `mc × p` the fixed `mc`
//! leaves stragglers, so `mc` is re-derived per problem
//! ([`dynamic_mc`]) — the paper's "dynamically deciding mc".
//!
//! Allocation discipline: the per-worker `Qc`/`Qc2`/pruning-bound/reservoir
//! scratch buffers are created once per worker via `map_init` and reused across
//! every chunk that worker processes — the 4th-loop closure itself never
//! allocates (the buffers only `resize`, which is a no-op after the first
//! chunk).

use crate::buffers::KernelStats;
use crate::microkernel::{FusedScalar, MR};
use crate::obs::{Phase, PhaseSet};
use crate::packing::{pack_r_panel, pack_sqnorms};
use crate::params::Variant;
use crate::variants::{
    cc_geometry, feed_degenerate, ic_block_body, interior, select_block, DriverArgs, RefBlock,
    SelHeap,
};
use gemm_kernel::{AlignedBuf, GemmParams};
use knn_select::Reservoir;
use rayon::prelude::*;

/// Pick an effective `mc` so the 4th loop splits into a whole number of
/// near-equal chunks per worker: smallest multiple of `MR` such that the
/// chunk count is a multiple of `p` (when `m` is large enough) and no
/// chunk exceeds the cache-derived `mc_base`. (`MR = 8` for both element
/// types, so this stays type-free.)
pub fn dynamic_mc(m: usize, p: usize, mc_base: usize) -> usize {
    assert!(p > 0 && mc_base >= MR);
    if m == 0 {
        return mc_base;
    }
    let min_chunks = m.div_ceil(mc_base).max(1);
    let chunks = min_chunks.div_ceil(p) * p;
    (m.div_ceil(chunks)).div_ceil(MR) * MR
}

/// Run the kernel with the data-parallel 4th-loop scheme on the current
/// rayon thread pool, using up to `p` query chunks per sweep. Returns the
/// observability counters and phase times merged across all workers
/// (phase times sum worker CPU time, so they can exceed wall time).
///
/// Exactly equivalent to [`crate::variants::run_serial`] (bit-identical
/// heaps: workers own disjoint query ranges, so no merge is needed).
pub fn run_data_parallel<T: FusedScalar>(
    args: &DriverArgs<'_, T>,
    heaps: &mut [SelHeap<T>],
    p: usize,
) -> (KernelStats, PhaseSet) {
    let nr = T::NR;
    let m = args.q_idx.len();
    let n = args.r_idx.len();
    let d = args.xq.dim();
    assert_eq!(heaps.len(), m, "one heap per query");
    assert!(
        args.variant != Variant::Auto,
        "driver needs a concrete variant"
    );
    args.params
        .validate_for::<T>()
        .expect("invalid blocking parameters");
    let mut total_stats = KernelStats::default();
    let mut total_phases = PhaseSet::new();
    if m == 0 || n == 0 || d == 0 {
        feed_degenerate(args, heaps);
        return (total_stats, total_phases);
    }

    let GemmParams { dc, nc, .. } = args.params;
    let mc = dynamic_mc(m, p.max(1), args.params.mc);
    let variant = args.variant;
    let geo = cc_geometry(args);
    let mut cc = AlignedBuf::new();
    if geo.need_cc {
        cc.resize(geo.pad_m * geo.ldcc);
    }
    let mut r_pack = AlignedBuf::new();
    let mut r2_pack = AlignedBuf::new();
    // read here, not by the workers: a test's override is per thread
    let interior = interior();

    for jc in (0..n).step_by(nc) {
        let ncb = (n - jc).min(nc);
        let col0 = if variant == Variant::Var6 { jc } else { 0 };

        for pc in (0..d).step_by(dc) {
            let dcb = (d - pc).min(dc);
            let first = pc == 0;
            let last = pc + dcb >= d;

            let nblocks = ncb.div_ceil(nr);
            gsknn_faults::fail_point!(gsknn_faults::FaultPoint::PackR);
            total_phases.time(Phase::PackR, || {
                r_pack.resize(nblocks * nr * dcb);
                pack_r_panel(args.xr, args.r_idx, jc, ncb, pc, dcb, r_pack.as_mut_slice());
                if last {
                    r2_pack.resize(nblocks * nr);
                    pack_sqnorms(args.xr, args.r_idx, jc, ncb, nr, r2_pack.as_mut_slice());
                }
            });
            let rb = RefBlock {
                r_pack: r_pack.as_slice(),
                r2_pack: r2_pack.as_slice(),
                jc,
                ncb,
                dcb,
                first,
                last,
                col0,
                pc,
            };

            // Parallel 4th loop: zip disjoint query/heap/Cc chunks. Each
            // worker builds its Qc/Qc2 scratch once (`map_init`) and
            // reuses it for every chunk it processes; the per-chunk
            // closure is allocation-free. Counters/phase times come back
            // in chunk order and fold into the run totals.
            // per worker: Qc, Qc2, pruning bounds, reservoir
            let worker_scratch = || {
                (
                    AlignedBuf::new(),
                    AlignedBuf::new(),
                    Vec::new(),
                    Reservoir::new(),
                )
            };
            let heap_chunks = heaps.par_chunks_mut(mc);
            let nchunks = m.div_ceil(mc);
            let worker_obs: Vec<(KernelStats, PhaseSet)> = if geo.need_cc {
                cc.as_mut_slice()
                    .par_chunks_mut(mc * geo.ldcc)
                    .zip(heap_chunks)
                    .enumerate()
                    .map_init(
                        worker_scratch,
                        |(q_pack, q2_pack, thr, reservoir), (ci, (cc_rows, heap_chunk))| {
                            let ic = ci * mc;
                            let mcb = (m - ic).min(mc);
                            let mut stats = KernelStats::default();
                            let mut phases = PhaseSet::new();
                            ic_block_body(
                                args,
                                ic,
                                mcb,
                                &rb,
                                geo.ldcc,
                                interior,
                                q_pack,
                                q2_pack,
                                thr,
                                reservoir,
                                Some(cc_rows),
                                heap_chunk,
                                &mut stats,
                                &mut phases,
                            );
                            (stats, phases)
                        },
                    )
                    .collect()
            } else {
                heap_chunks
                    .enumerate()
                    .map_init(
                        worker_scratch,
                        |(q_pack, q2_pack, thr, reservoir), (ci, heap_chunk)| {
                            let ic = ci * mc;
                            let mcb = (m - ic).min(mc);
                            let mut stats = KernelStats::default();
                            let mut phases = PhaseSet::new();
                            ic_block_body(
                                args,
                                ic,
                                mcb,
                                &rb,
                                geo.ldcc,
                                interior,
                                q_pack,
                                q2_pack,
                                thr,
                                reservoir,
                                None,
                                heap_chunk,
                                &mut stats,
                                &mut phases,
                            );
                            (stats, phases)
                        },
                    )
                    .collect()
            };
            for (stats, phases) in &worker_obs {
                total_stats.merge(stats);
                total_phases.merge(phases);
            }
            debug_assert_eq!(nchunks, m.div_ceil(mc));
        }
        // Var#5: parallel per-query selection over this jc block
        if variant == Variant::Var5 {
            let cc_ref = cc.as_slice();
            let worker_obs: Vec<(KernelStats, PhaseSet)> = heaps
                .par_iter_mut()
                .enumerate()
                .map(|(i, heap)| {
                    let mut stats = KernelStats::default();
                    let mut phases = PhaseSet::new();
                    phases.time(Phase::Select, || {
                        select_block(
                            cc_ref,
                            geo.ldcc,
                            i..i + 1,
                            col0..col0 + ncb,
                            jc,
                            args.r_idx,
                            std::slice::from_mut(heap),
                            &mut stats,
                        )
                    });
                    (stats, phases)
                })
                .collect();
            for (stats, phases) in &worker_obs {
                total_stats.merge(stats);
                total_phases.merge(phases);
            }
        }
    }
    if variant == Variant::Var6 {
        let cc_ref = cc.as_slice();
        let worker_obs: Vec<(KernelStats, PhaseSet)> = heaps
            .par_iter_mut()
            .enumerate()
            .map(|(i, heap)| {
                let mut stats = KernelStats::default();
                let mut phases = PhaseSet::new();
                phases.time(Phase::Select, || {
                    select_block(
                        cc_ref,
                        geo.ldcc,
                        i..i + 1,
                        0..n,
                        0,
                        args.r_idx,
                        std::slice::from_mut(heap),
                        &mut stats,
                    )
                });
                (stats, phases)
            })
            .collect();
        for (stats, phases) in &worker_obs {
            total_stats.merge(stats);
            total_phases.merge(phases);
        }
    }
    (total_stats, total_phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::GsknnWorkspace;
    use crate::variants::run_serial;
    use dataset::{uniform, DistanceKind, PointSet};
    use knn_select::Neighbor;

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

    fn sorted_rows(heaps: Vec<SelHeap>) -> Vec<Vec<Neighbor>> {
        heaps.into_iter().map(|h| h.into_sorted_vec()).collect()
    }

    #[test]
    fn parallel_equals_serial_every_variant() {
        let x = uniform(150, 12, 77);
        let q_idx: Vec<usize> = (0..70).collect();
        let r_idx: Vec<usize> = (0..150).collect();
        for variant in Variant::ALL {
            let args = DriverArgs::same(
                &x,
                &q_idx,
                &r_idx,
                DistanceKind::SqL2,
                GemmParams::tiny(),
                variant,
            );
            let mut serial: Vec<SelHeap> = (0..70).map(|_| SelHeap::new(5, false)).collect();
            let mut ws = GsknnWorkspace::new();
            run_serial(&args, &mut serial, &mut ws);
            let mut par: Vec<SelHeap> = (0..70).map(|_| SelHeap::new(5, false)).collect();
            run_data_parallel(&args, &mut par, 4);
            for (i, (s, p)) in sorted_rows(serial)
                .into_iter()
                .zip(sorted_rows(par))
                .enumerate()
            {
                assert_eq!(s, p, "{} row {i}", variant.name());
            }
        }
    }

    #[test]
    fn parallel_multipass_and_norms() {
        let x = uniform(80, 30, 99); // d=30 > tiny dc=8: multipass
        let q_idx: Vec<usize> = (10..60).collect();
        let r_idx: Vec<usize> = (0..80).collect();
        for kind in [DistanceKind::SqL2, DistanceKind::LInf] {
            let args =
                DriverArgs::same(&x, &q_idx, &r_idx, kind, GemmParams::tiny(), Variant::Var1);
            let mut serial: Vec<SelHeap> = (0..50).map(|_| SelHeap::new(7, false)).collect();
            let mut ws = GsknnWorkspace::new();
            run_serial(&args, &mut serial, &mut ws);
            let mut par: Vec<SelHeap> = (0..50).map(|_| SelHeap::new(7, false)).collect();
            run_data_parallel(&args, &mut par, 3);
            for (s, p) in sorted_rows(serial).into_iter().zip(sorted_rows(par)) {
                assert_eq!(s, p, "{}", kind.name());
            }
        }
    }

    #[test]
    fn f32_parallel_equals_f32_serial() {
        // bit-identical across schemes in f32 too: same chunk geometry,
        // same kernels, disjoint heap ownership
        let x: PointSet<f32> = uniform(150, 12, 77).cast();
        let q_idx: Vec<usize> = (0..70).collect();
        let r_idx: Vec<usize> = (0..150).collect();
        for variant in [Variant::Var1, Variant::Var3, Variant::Var6] {
            let args = DriverArgs::same(
                &x,
                &q_idx,
                &r_idx,
                DistanceKind::SqL2,
                GemmParams::tiny_for::<f32>(),
                variant,
            );
            let mut serial: Vec<SelHeap<f32>> = (0..70).map(|_| SelHeap::new(5, false)).collect();
            let mut ws = GsknnWorkspace::new();
            run_serial(&args, &mut serial, &mut ws);
            let mut par: Vec<SelHeap<f32>> = (0..70).map(|_| SelHeap::new(5, false)).collect();
            run_data_parallel(&args, &mut par, 4);
            for (i, (s, p)) in serial.into_iter().zip(par).enumerate() {
                assert_eq!(
                    s.into_sorted_vec(),
                    p.into_sorted_vec(),
                    "{} row {i}",
                    variant.name()
                );
            }
        }
    }
}
