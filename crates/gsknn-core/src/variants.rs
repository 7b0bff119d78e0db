//! The six-loop GSKNN nest (Algorithm 2.2) with every legal placement of
//! the heap selection (§2.3, Var#1–Var#6 minus the non-viable Var#4).
//!
//! Loop roles (outer to inner): 6th `jc` partitions the references by
//! `nc`; 5th `pc` partitions the dimension by `dc`; 4th `ic` partitions
//! the queries by `mc`; 3rd `jr` / 2nd `ir` sweep `NR`/`MR` micro-tiles;
//! the 1st loop is the fused micro-kernel ([`crate::microkernel`]).
//!
//! Selection placement:
//!
//! | Variant | after loop | distances buffered          |
//! |---------|-----------|------------------------------|
//! | Var#1   | 1st        | none (tile consumed hot)     |
//! | Var#2   | 2nd        | `m × nc` block (strip reads) |
//! | Var#3   | 3rd        | `m × nc` block               |
//! | Var#5   | 5th        | `m × nc` block               |
//! | Var#6   | 6th        | full `m × n`                 |
//!
//! There is one driver, [`run_nest`], for every degree of parallelism:
//! only the 4th loop's walk depends on `p` ([`crate::parallel`]), so the
//! 4th-loop body (`ic_block_body`) runs on disjoint query chunks —
//! private `Qc` per worker, shared packed `Rc` — in place at `p = 1`.
//!
//! The whole nest is generic over the element type ([`FusedScalar`]):
//! the micro-tile geometry (`T::MR × T::NR`) and the SIMD kernels come
//! from the type, everything else — blocking, packing, selection — is
//! shared between f64 and f32.

use crate::buffers::{ChunkScratch, GsknnWorkspace, KernelStats};
use crate::microkernel::{tile_pass, FusedScalar, PassMode, Sweep};
use crate::obs::{Phase, PhaseSet, STRIP_SAMPLE};
use crate::packing::{pack_q_panel, pack_r_panel, pack_sqnorms, PackedRefs};
use crate::parallel::{dynamic_mc, Chunk, QueryWalk};
use crate::params::Variant;
use dataset::{DistanceKind, PointSet};
use gemm_kernel::GemmParams;
use gsknn_scalar::{GsknnScalar, MAX_TILE};
use knn_select::{BinaryMaxHeap, FourHeap, Neighbor};
use std::ops::Range;

/// Per-query selection heap: binary for small `k` (Var#1's choice), 4-ary
/// for large `k` (Var#6's choice) — §2.4 "Heap selection".
///
/// When built from a non-empty existing row ([`SelHeap::from_row`]), the
/// heap switches to id-unique insertion: the iterated approximate solvers
/// re-visit stored neighbors across trees/tables, and without the
/// membership check a duplicate id would evict a genuine k-th neighbor
/// (breaking the solvers' recall monotonicity). Fresh heaps keep the
/// unchecked O(1)-filter push of the paper.
#[derive(Clone, Debug)]
pub enum SelHeap<T: GsknnScalar = f64> {
    /// Binary max-heap (`dedup` = id-unique insertion).
    Bin(BinaryMaxHeap<T>, bool),
    /// Padded 4-ary max-heap (`dedup` = id-unique insertion).
    Four(FourHeap<T>, bool),
}

impl<T: GsknnScalar> SelHeap<T> {
    /// Fresh heap of capacity `k`; `four` picks the 4-ary layout.
    pub fn new(k: usize, four: bool) -> Self {
        if four {
            SelHeap::Four(FourHeap::new(k), false)
        } else {
            SelHeap::Bin(BinaryMaxHeap::new(k), false)
        }
    }

    /// Build from an existing neighbor row (sentinels dropped); id-unique
    /// insertion is enabled iff the row holds any real entry.
    pub fn from_row(k: usize, row: &[Neighbor<T>], four: bool) -> Self {
        let mut heap = SelHeap::new(k, four);
        heap.reset_from_row(k, row, four);
        heap
    }

    /// Offer a candidate.
    #[inline(always)]
    pub fn push(&mut self, cand: Neighbor<T>) -> bool {
        match self {
            SelHeap::Bin(h, false) => h.push(cand),
            SelHeap::Bin(h, true) => h.push_unique(cand),
            SelHeap::Four(h, false) => h.push(cand),
            SelHeap::Four(h, true) => h.push_unique(cand),
        }
    }

    /// Current pruning bound (+∞ until full).
    #[inline(always)]
    pub fn threshold(&self) -> T {
        match self {
            SelHeap::Bin(h, _) => h.threshold(),
            SelHeap::Four(h, _) => h.threshold(),
        }
    }

    /// Drain into ascending sorted order.
    pub fn into_sorted_vec(self) -> Vec<Neighbor<T>> {
        match self {
            SelHeap::Bin(h, _) => h.into_sorted_vec(),
            SelHeap::Four(h, _) => h.into_sorted_vec(),
        }
    }

    /// Append the stored neighbors to `out` in ascending order without
    /// consuming the heap — the reusable-workspace form of
    /// [`SelHeap::into_sorted_vec`].
    pub fn sorted_into(&self, out: &mut Vec<Neighbor<T>>) {
        match self {
            SelHeap::Bin(h, _) => h.sorted_into(out),
            SelHeap::Four(h, _) => h.sorted_into(out),
        }
    }

    /// Re-initialize in place to exactly what [`SelHeap::from_row`] would
    /// build, reusing the backing storage when the heap layout matches.
    pub fn reset_from_row(&mut self, k: usize, row: &[Neighbor<T>], four: bool) {
        match (&mut *self, four) {
            (SelHeap::Bin(h, dedup), false) => {
                h.reset_from_row(k, row);
                *dedup = !h.is_empty();
            }
            (SelHeap::Four(h, dedup), true) => {
                // as `FourHeap::from_row`: at most `k` entries, so no
                // push evicts
                h.reset(k);
                for nb in row.iter().filter(|n| n.dist.is_finite()) {
                    h.push(*nb);
                }
                *dedup = !h.is_empty();
            }
            _ => *self = SelHeap::from_row(k, row, four),
        }
    }

    /// Capacity `k`.
    pub fn capacity(&self) -> usize {
        match self {
            SelHeap::Bin(h, _) => h.capacity(),
            SelHeap::Four(h, _) => h.capacity(),
        }
    }

    /// The binary heap of a row whose insertion is not id-unique — the
    /// rows the macro-kernel's reservoir takes (module docs of
    /// [`crate::microkernel`]).
    pub(crate) fn unchecked_binary(&mut self) -> Option<&mut BinaryMaxHeap<T>> {
        match self {
            SelHeap::Bin(h, false) => Some(h),
            _ => None,
        }
    }
}

/// Immutable description of one kernel invocation.
///
/// The paper's interface draws queries and references from one global
/// table `X`; here the two sides may come from *different* tables of the
/// same dimension, which adds out-of-sample (train/test) search for free —
/// pass the same table twice for the paper's setting
/// ([`DriverArgs::same`]) — and the references may arrive already packed
/// ([`PackedRefs`]).
pub struct DriverArgs<'a, T: GsknnScalar = f64> {
    /// Coordinate table the queries are gathered from.
    pub xq: &'a PointSet<T>,
    /// Query ids into `xq` (the `q` array — general stride).
    pub q_idx: &'a [usize],
    /// Where the references come from.
    pub(crate) refs: RefSource<'a, T>,
    /// Distance to compute.
    pub kind: DistanceKind,
    /// Blocking parameters.
    pub params: GemmParams,
    /// Selection placement.
    pub variant: Variant,
}

/// The reference side of a call: the only thing [`run_nest`] does
/// differently between them is its 5th loop's `Rc`/`R2c` step.
#[derive(Clone, Copy)]
pub(crate) enum RefSource<'a, T: GsknnScalar> {
    /// Gather-pack every `(jc, pc)` block from `x` through the ids `idx`
    /// (the `r` array), per call.
    Gather {
        x: &'a PointSet<T>,
        idx: &'a [usize],
    },
    /// Borrow every block from panels packed once, under the call's
    /// blocking.
    Packed(&'a PackedRefs<T>),
}

impl<'a, T: GsknnScalar> DriverArgs<'a, T> {
    /// The paper's single-table form: queries and references both from `x`.
    pub fn same(
        x: &'a PointSet<T>,
        q_idx: &'a [usize],
        r_idx: &'a [usize],
        kind: DistanceKind,
        params: GemmParams,
        variant: Variant,
    ) -> Self {
        DriverArgs {
            xq: x,
            q_idx,
            refs: RefSource::Gather { x, idx: r_idx },
            kind,
            params,
            variant,
        }
    }

    /// Queries from `xq`, references from panels packed once — under the
    /// blocking they were packed with, the only one whose `(jc, pc)` blocks
    /// they hold.
    pub(crate) fn prepacked(
        xq: &'a PointSet<T>,
        q_idx: &'a [usize],
        refs: &'a PackedRefs<T>,
        kind: DistanceKind,
        variant: Variant,
    ) -> Self {
        DriverArgs {
            xq,
            q_idx,
            refs: RefSource::Packed(refs),
            kind,
            params: refs.params(),
            variant,
        }
    }

    /// Reference ids, in the order the nest offers them.
    pub(crate) fn r_ids(&self) -> &'a [usize] {
        match self.refs {
            RefSource::Gather { idx, .. } => idx,
            RefSource::Packed(packed) => packed.ids(),
        }
    }

    /// Dimension of the references.
    pub(crate) fn r_dim(&self) -> usize {
        match self.refs {
            RefSource::Gather { x, .. } => x.dim(),
            RefSource::Packed(packed) => packed.dim(),
        }
    }
}

/// State of the current `(jc, pc)` iteration handed to the 4th-loop body.
pub(crate) struct RefBlock<'a, T: GsknnScalar = f64> {
    /// Packed `Rc` panel for this `(jc, pc)`.
    pub r_pack: &'a [T],
    /// Packed `R2c` (only valid when `last`).
    pub r2_pack: &'a [T],
    /// Reference-block origin (6th-loop index).
    pub jc: usize,
    /// Reference-block extent.
    pub ncb: usize,
    /// Dimension-block extent (5th loop).
    pub dcb: usize,
    /// First `d`-block?
    pub first: bool,
    /// Last `d`-block (distances finalize)?
    pub last: bool,
    /// `Cc` column of this block's first reference.
    pub col0: usize,
    /// Dimension-block origin (5th-loop index).
    pub pc: usize,
}

/// Smallest `k` whose rows go through the reservoir; smaller `k` keeps
/// pushing into the heap, where a push is a compare or a few levels and
/// cheaper than a row's share of a compaction. Measured, Var#1, f64,
/// sq-ℓ2, one core, heap → reservoir:
///
/// * m = n = 4096, d = 16, ms per call: k = 1 22.2 → 24.4, k = 8 30.5 →
///   34.0, k = 16 45.3 → 43.0, k = 32 62.4 → 50.0, k = 64 115 → 69;
/// * the same at d = 64: k = 8 78.5 → 81.9, k = 16 86.6 → 85.4 (two
///   readings each), k = 24 96.3 → 88.3, k = 32 107.3 → 97.4;
/// * the k-means assignment shape m = 65536, n = 8, k = 1: 9.7 → 22.7;
/// * k = 16 on the ledger (10 alternating pairs, gathered ids, d = 64):
///   `kernel_paper` +1.4 % (9 of 10 pairs) in one set, −3.4 % (0 of 10)
///   in another; `serve_exact_batch` −1.1 % and −3.1 %.
///
/// So k = 16 is unresolved — a wash at best on the paper's regime — and
/// 24 is the smallest k measured ahead in every reading.
pub(crate) const RESERVOIR_MIN_K: usize = 24;

/// How [`ic_block_body`] treats the full tiles of Var#1's last pass.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interior {
    /// The macro-kernel, its probes sampling every n-th strip.
    Sweep(usize),
    /// The per-tile path the fringe takes — the reference the sweep is
    /// tested against.
    #[cfg(test)]
    PerTile,
}

#[cfg(test)]
thread_local! {
    /// What [`run_nest`] on this thread passes to [`ic_block_body`].
    pub(crate) static TEST_INTERIOR: std::cell::Cell<Interior> =
        const { std::cell::Cell::new(Interior::Sweep(STRIP_SAMPLE)) };
}

/// The [`Interior`] [`run_nest`] uses (tests may override it per thread).
pub(crate) fn interior() -> Interior {
    #[cfg(test)]
    {
        TEST_INTERIOR.with(std::cell::Cell::get)
    }
    #[cfg(not(test))]
    {
        Interior::Sweep(STRIP_SAMPLE)
    }
}

/// The 4th-loop body for one query chunk: pack `Qc`(+`Qc2`), sweep the
/// 3rd/2nd loops and perform Var#1/2/3 selection. The full tiles of
/// Var#1's last pass go through the macro-kernel
/// ([`FusedScalar::fused_sweep`]); every other tile — the fringe rows and
/// columns, the partial passes, the buffered variants — runs the fused
/// micro-kernel tile by tile. All row indexing is local to the chunk:
/// its heaps and `Cc` rows start at query `chunk.ic`.
#[allow(clippy::too_many_arguments)]
fn ic_block_body<T: FusedScalar>(
    args: &DriverArgs<'_, T>,
    rb: &RefBlock<'_, T>,
    ldcc: usize,
    interior: Interior,
    chunk: Chunk<'_, T>,
    scratch: &mut ChunkScratch<T>,
    stats: &mut KernelStats,
    phases: &mut PhaseSet,
) {
    let (mr, nr) = (T::MR, T::NR);
    let Chunk {
        ic: ic_global,
        heaps,
        mut cc_rows,
    } = chunk;
    let ChunkScratch {
        q_pack,
        q2_pack,
        thr,
        reservoir,
    } = scratch;
    let mcb = heaps.len();
    let r_ids = args.r_ids();
    let variant = args.variant;
    let multipass = args.xq.dim() > args.params.dc;
    let buffered = variant != Variant::Var1;
    let dcb = rb.dcb;
    let mblocks = mcb.div_ceil(mr);
    // placeholder norms for partial passes (never read by finalize)
    let zero_row = [T::ZERO; MAX_TILE];

    gsknn_faults::fail_point!(gsknn_faults::FaultPoint::PackQ);
    phases.time(Phase::PackQ, || {
        q_pack.resize(mblocks * mr * dcb);
        pack_q_panel(
            args.xq,
            args.q_idx,
            ic_global,
            mcb,
            rb.pc,
            dcb,
            q_pack.as_mut_slice(),
        );
        if rb.last {
            q2_pack.resize(mblocks * mr);
            pack_sqnorms(
                args.xq,
                args.q_idx,
                ic_global,
                mcb,
                mr,
                q2_pack.as_mut_slice(),
            );
        }
    });

    // Var#1's last pass: the full tiles in one sweep. A heap still sees
    // its candidates in ascending column order — the fringe column strip
    // comes after — and the fringe rows belong to other heaps.
    let (mut m_full, mut n_full) = (0, 0);
    let sweeps = variant == Variant::Var1 && rb.last && mcb >= mr && rb.ncb >= nr;
    if let (true, Interior::Sweep(sample_every)) = (sweeps, interior) {
        (m_full, n_full) = (mcb / mr * mr, rb.ncb / nr * nr);
        thr.clear();
        thr.extend(heaps[..m_full].iter().map(SelHeap::threshold));
        // One reservoir shape per block: rows of another capacity, with
        // id-unique insertion or on a 4-heap keep pushing — and so does
        // every row while k is small.
        let k = heaps[0].capacity();
        reservoir.begin_block(
            k,
            heaps[..m_full].iter_mut().map(|h| {
                k >= RESERVOIR_MIN_K && h.capacity() == k && h.unchecked_binary().is_some()
            }),
        );
        let prior = if multipass && !rb.first {
            let cc = cc_rows.as_deref().expect("multipass requires Cc");
            Some((&cc[rb.col0..], ldcc))
        } else {
            None
        };
        T::fused_sweep(
            args.kind,
            &mut Sweep {
                dcb,
                q_pack: q_pack.as_slice(),
                r_pack: rb.r_pack,
                q2: q2_pack.as_slice(),
                r2: rb.r2_pack,
                m_tiles: m_full / mr,
                n_tiles: n_full / nr,
                prior,
                r_ids: &r_ids[rb.jc..rb.jc + n_full],
                heaps: &mut *heaps,
                thr,
                reservoir,
                stats: &mut *stats,
                phases: &mut *phases,
                sample_every,
            },
        );
    }

    // 3rd loop: reference micro-panels
    for jr in (0..rb.ncb).step_by(nr) {
        // rows of this strip the sweep has already taken
        let ir0 = if jr < n_full { m_full } else { 0 };
        if ir0 >= mcb {
            continue;
        }
        let nre = (rb.ncb - jr).min(nr);
        let bp = &rb.r_pack[(jr / nr) * nr * dcb..];
        // §2.4 rank-dc pipeline: prefetch the *next* Rc micro-panel so it
        // streams toward L1 while the whole ir sweep consumes the current
        // one (the paper's "the next required micro-panel of Rc ... can
        // be prefetched and overlapped with the current rank-dc update").
        #[cfg(target_arch = "x86_64")]
        {
            let next = (jr / nr + 1) * nr * dcb;
            if next < rb.r_pack.len() {
                // SAFETY: prefetch has no architectural memory effects
                // and the address is in-bounds of r_pack.
                unsafe {
                    std::arch::x86_64::_mm_prefetch(
                        rb.r_pack.as_ptr().add(next) as *const i8,
                        std::arch::x86_64::_MM_HINT_T0,
                    )
                };
            }
        }
        // 2nd loop: query micro-panels
        for ir in (ir0..mcb).step_by(mr) {
            gsknn_faults::fail_point!(gsknn_faults::FaultPoint::MicroKernel);
            let mre = (mcb - ir).min(mr);
            let ap = &q_pack.as_slice()[(ir / mr) * mr * dcb..];
            let tile_origin = ir * ldcc + rb.col0 + jr;

            if !rb.last {
                let cc = cc_rows.as_deref_mut().expect("partial pass requires Cc");
                phases.time(Phase::RankDc, || {
                    tile_pass(
                        args.kind,
                        dcb,
                        ap,
                        bp,
                        &zero_row,
                        &zero_row,
                        PassMode::Partial {
                            cc: &mut cc[tile_origin..],
                            ldcc,
                            first: rb.first,
                        },
                    )
                });
                continue;
            }

            let q2 = &q2_pack.as_slice()[ir..];
            let r2 = &rb.r2_pack[jr..];
            let mut out = [T::ZERO; MAX_TILE];
            {
                let prior = if multipass && !rb.first {
                    let cc = cc_rows.as_deref().expect("multipass requires Cc");
                    Some((&cc[tile_origin..], ldcc))
                } else {
                    None
                };
                phases.time(Phase::RankDc, || {
                    tile_pass(
                        args.kind,
                        dcb,
                        ap,
                        bp,
                        q2,
                        r2,
                        PassMode::Last {
                            prior,
                            out: &mut out,
                        },
                    )
                });
            }

            stats.tiles += 1;
            if buffered {
                let cc = cc_rows
                    .as_deref_mut()
                    .expect("buffered variant requires Cc");
                // The buffered variants' "store C" traffic belongs to the
                // rank-dc phase: it is the write the fused Var#1 avoids.
                phases.time(Phase::RankDc, || {
                    for i in 0..mr {
                        let dst = &mut cc[tile_origin + i * ldcc..tile_origin + i * ldcc + nr];
                        dst.copy_from_slice(&out[i * nr..i * nr + nr]);
                    }
                });
            } else {
                gsknn_faults::fail_point!(gsknn_faults::FaultPoint::HeapSelect);
                phases.time(Phase::Select, || {
                    select_tile(&out, ir, mre, rb.jc + jr, nre, r_ids, heaps, stats)
                });
            }
        }
        // Var#2: select the mcb × nre strip just completed
        if variant == Variant::Var2 && rb.last {
            let cc = cc_rows.as_deref().expect("Var#2 requires Cc");
            phases.time(Phase::Select, || {
                select_block(
                    cc,
                    ldcc,
                    0..mcb,
                    rb.col0 + jr..rb.col0 + jr + nre,
                    rb.jc + jr,
                    r_ids,
                    heaps,
                    stats,
                )
            });
        }
    }
    // Var#3: select the mcb × ncb macro-block
    if variant == Variant::Var3 && rb.last {
        let cc = cc_rows.as_deref().expect("Var#3 requires Cc");
        phases.time(Phase::Select, || {
            select_block(
                cc,
                ldcc,
                0..mcb,
                rb.col0..rb.col0 + rb.ncb,
                rb.jc,
                r_ids,
                heaps,
                stats,
            )
        });
    }
}

/// Run the six-loop nest, updating `heaps[i]` (one per query,
/// `heaps.len() == q_idx.len()`) with every reference candidate. The 4th
/// loop is cut into [`dynamic_mc`] query chunks walked by `p` workers,
/// each on its own `ws.chunks` scratch — `p = 1` in order on the caller's
/// thread, with no thread spawned; the rows are the same bits for every
/// `p`. Counters and phase times accumulate into
/// `ws.stats` / `ws.phases`.
pub fn run_nest<T: FusedScalar>(
    args: &DriverArgs<'_, T>,
    heaps: &mut [SelHeap<T>],
    ws: &mut GsknnWorkspace<T>,
    p: usize,
) {
    let (mr, nr) = (T::MR, T::NR);
    let m = args.q_idx.len();
    let n = args.r_ids().len();
    let d = args.xq.dim();
    assert_eq!(heaps.len(), m, "one heap per query");
    assert_eq!(d, args.r_dim(), "query/reference dimension mismatch");
    args.params
        .validate_for::<T>()
        .expect("invalid blocking parameters");
    if m == 0 || n == 0 || d == 0 {
        feed_degenerate(args, heaps);
        return;
    }

    let GemmParams { dc, mc, nc } = args.params;
    let variant = args.variant;
    // `Cc`: the rank-dc spill of `d > dc` and the buffered variants' store
    // (Var#6 keeps all `n` columns, the others one `jc` block)
    let need_cc = d > dc || variant != Variant::Var1;
    let ldcc = if variant == Variant::Var6 {
        n.div_ceil(nr) * nr
    } else {
        nc.min(n.div_ceil(nr) * nr)
    };
    let GsknnWorkspace {
        chunks,
        r_pack,
        r2_pack,
        cc,
        stats,
        phases,
    } = ws;
    if need_cc {
        cc.resize(m.div_ceil(mr) * mr * ldcc);
    }
    let p = p.max(1);
    if chunks.len() < p {
        chunks.resize_with(p, ChunkScratch::default);
    }
    let mut walk = QueryWalk {
        mc: dynamic_mc(m, p, mc),
        ldcc,
        scratch: &mut chunks[..p],
        stats,
        phases,
    };
    // read here, not by the workers: a test's override is per thread
    let interior = interior();

    // 6th loop: partition the references
    for jc in (0..n).step_by(nc) {
        let ncb = (n - jc).min(nc);
        let col0 = if variant == Variant::Var6 { jc } else { 0 };

        // 5th loop: partition the dimension
        for pc in (0..d).step_by(dc) {
            let dcb = (d - pc).min(dc);
            let first = pc == 0;
            let last = pc + dcb >= d;

            let (r_panel, r2_panel) = match args.refs {
                RefSource::Gather { x, idx } => {
                    let nblocks = ncb.div_ceil(nr);
                    gsknn_faults::fail_point!(gsknn_faults::FaultPoint::PackR);
                    walk.phases.time(Phase::PackR, || {
                        r_pack.resize(nblocks * nr * dcb);
                        pack_r_panel(x, idx, jc, ncb, pc, dcb, r_pack.as_mut_slice());
                        if last {
                            r2_pack.resize(nblocks * nr);
                            pack_sqnorms(x, idx, jc, ncb, nr, r2_pack.as_mut_slice());
                        }
                    });
                    (r_pack.as_slice(), r2_pack.as_slice())
                }
                RefSource::Packed(packed) => packed.block(jc, pc),
            };
            let rb = RefBlock {
                r_pack: r_panel,
                r2_pack: r2_panel,
                jc,
                ncb,
                dcb,
                first,
                last,
                col0,
                pc,
            };

            // 4th loop: partition the queries
            let cc_rows = need_cc.then(|| cc.as_mut_slice());
            walk.for_each_chunk(heaps, cc_rows, |chunk, scratch, stats, phases| {
                ic_block_body(args, &rb, ldcc, interior, chunk, scratch, stats, phases)
            });
        }
        // Var#5: all queries against this jc block
        if variant == Variant::Var5 {
            select_buffered(
                &mut walk,
                args,
                heaps,
                cc.as_mut_slice(),
                col0..col0 + ncb,
                jc,
            );
        }
    }
    // Var#6: the classical post-hoc selection over the full matrix
    if variant == Variant::Var6 {
        select_buffered(&mut walk, args, heaps, cc.as_mut_slice(), 0..n, 0);
    }
}

/// Var#5/#6's selection from the buffered `Cc`: every query row against
/// the columns `cols` (reference `r_idx[ref0 + (c - cols.start)]`), in the
/// 4th loop's chunks.
fn select_buffered<T: FusedScalar>(
    walk: &mut QueryWalk<'_, T>,
    args: &DriverArgs<'_, T>,
    heaps: &mut [SelHeap<T>],
    cc: &mut [T],
    cols: Range<usize>,
    ref0: usize,
) {
    let ldcc = walk.ldcc;
    walk.for_each_chunk(heaps, Some(cc), |chunk, _, stats, phases| {
        let cc_rows = chunk.cc_rows.expect("a buffered variant keeps Cc");
        phases.time(Phase::Select, || {
            select_block(
                cc_rows,
                ldcc,
                0..chunk.heaps.len(),
                cols.clone(),
                ref0,
                args.r_ids(),
                chunk.heaps,
                stats,
            )
        })
    });
}

/// `d == 0`: every distance is 0; still feed candidates so the semantics
/// (k nearest ids by tie-break) hold. `m == 0` / `n == 0`: nothing to do.
pub(crate) fn feed_degenerate<T: GsknnScalar>(args: &DriverArgs<'_, T>, heaps: &mut [SelHeap<T>]) {
    if args.xq.dim() == 0 && !args.q_idx.is_empty() {
        for heap in heaps.iter_mut() {
            for &rj in args.r_ids() {
                heap.push(Neighbor::new(T::ZERO, rj as u32));
            }
        }
    }
}

/// Var#1 tile selection with the vectorized root filter: one broadcast
/// compare per row decides whether the heap is touched at all — the O(n)
/// best case of heap selection.
#[inline]
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
pub(crate) fn select_tile<T: FusedScalar>(
    out: &[T],
    row0: usize,
    mre: usize,
    refcol0: usize,
    nre: usize,
    r_idx: &[usize],
    heaps: &mut [SelHeap<T>],
    stats: &mut KernelStats,
) {
    let nr = T::NR;
    let use_simd = T::row_filter_available();
    for i in 0..mre {
        let heap = &mut heaps[row0 + i];
        let row = &out[i * nr..i * nr + nr];
        let thr = heap.threshold();
        if use_simd && nre == nr {
            // SAFETY: filter availability checked; row has NR elements.
            let mask = unsafe { T::row_filter_mask(row, thr) };
            if mask == 0 {
                stats.rows_filtered += 1;
                continue;
            }
        }
        stats.rows_scanned += 1;
        for (j, &dist) in row.iter().enumerate().take(nre) {
            // `thr` is the bound from before this row: it only admits more
            // than the live one, and `push` re-checks, so this stays exact.
            if dist <= thr {
                stats.candidates_offered += 1;
                if heap.push(Neighbor::new(dist, r_idx[refcol0 + j] as u32)) {
                    stats.candidates_kept += 1;
                }
            }
        }
    }
}

/// Buffered selection: scan rows of `Cc` and feed candidates to the
/// per-query heaps (`heaps[i - rows.start]` ↔ `Cc` row `i`, so callers
/// can hand in exactly the chunk of heaps covering `rows`). `cols` are
/// `Cc` column coordinates; the global reference of column `c` is
/// `r_idx[ref0 + (c - cols.start)]`.
#[allow(clippy::too_many_arguments)] // block geometry is inherently wide
pub(crate) fn select_block<T: GsknnScalar>(
    cc: &[T],
    ldcc: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    ref0: usize,
    r_idx: &[usize],
    heaps: &mut [SelHeap<T>],
    stats: &mut KernelStats,
) {
    let row0 = rows.start;
    for i in rows {
        let heap = &mut heaps[i - row0];
        let base = i * ldcc;
        stats.rows_scanned += 1;
        for (off, c) in cols.clone().enumerate() {
            let dist = cc[base + c];
            if dist <= heap.threshold() {
                stats.candidates_offered += 1;
                if heap.push(Neighbor::new(dist, r_idx[ref0 + off] as u32)) {
                    stats.candidates_kept += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::uniform;

    pub(crate) fn brute_force_t<T: GsknnScalar>(
        x: &PointSet<T>,
        q_idx: &[usize],
        r_idx: &[usize],
        k: usize,
        kind: DistanceKind,
    ) -> Vec<Vec<Neighbor<T>>> {
        q_idx
            .iter()
            .map(|&qi| {
                let mut cands: Vec<Neighbor<T>> = r_idx
                    .iter()
                    .map(|&rj| Neighbor::new(kind.eval(x.point(qi), x.point(rj)), rj as u32))
                    .collect();
                cands.sort_unstable_by(Neighbor::cmp_dist_idx);
                cands.truncate(k);
                cands
            })
            .collect()
    }

    pub(crate) fn brute_force(
        x: &PointSet,
        q_idx: &[usize],
        r_idx: &[usize],
        k: usize,
        kind: DistanceKind,
    ) -> Vec<Vec<Neighbor>> {
        brute_force_t::<f64>(x, q_idx, r_idx, k, kind)
    }

    fn run_variant_t<T: FusedScalar>(
        x: &PointSet<T>,
        q_idx: &[usize],
        r_idx: &[usize],
        k: usize,
        kind: DistanceKind,
        variant: Variant,
        params: GemmParams,
    ) -> Vec<Vec<Neighbor<T>>> {
        let args = DriverArgs::same(x, q_idx, r_idx, kind, params, variant);
        let mut heaps: Vec<SelHeap<T>> = (0..q_idx.len()).map(|_| SelHeap::new(k, false)).collect();
        let mut ws = GsknnWorkspace::new();
        run_nest(&args, &mut heaps, &mut ws, 1);
        heaps.into_iter().map(|h| h.into_sorted_vec()).collect()
    }

    fn run_variant(
        x: &PointSet,
        q_idx: &[usize],
        r_idx: &[usize],
        k: usize,
        kind: DistanceKind,
        variant: Variant,
        params: GemmParams,
    ) -> Vec<Vec<Neighbor>> {
        run_variant_t::<f64>(x, q_idx, r_idx, k, kind, variant, params)
    }

    fn assert_rows_match_t<T: GsknnScalar>(
        got: &[Vec<Neighbor<T>>],
        want: &[Vec<Neighbor<T>>],
        tol: f64,
        ctx: &str,
    ) {
        assert_eq!(got.len(), want.len());
        for (qi, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.len(), w.len(), "{ctx}: row {qi} length");
            for (a, b) in g.iter().zip(w) {
                let (da, db) = (a.dist.to_f64(), b.dist.to_f64());
                assert!(
                    (da - db).abs() <= tol * (1.0 + db.abs()),
                    "{ctx}: row {qi}: dist {da} vs {db}"
                );
            }
        }
    }

    fn assert_rows_match(got: &[Vec<Neighbor>], want: &[Vec<Neighbor>], tol: f64, ctx: &str) {
        assert_rows_match_t::<f64>(got, want, tol, ctx)
    }

    #[test]
    fn all_variants_match_brute_force_small() {
        let x = uniform(60, 5, 11);
        let q_idx: Vec<usize> = (0..20).collect();
        let r_idx: Vec<usize> = (10..60).collect();
        let want = brute_force(&x, &q_idx, &r_idx, 4, DistanceKind::SqL2);
        for v in Variant::ALL {
            let got = run_variant(
                &x,
                &q_idx,
                &r_idx,
                4,
                DistanceKind::SqL2,
                v,
                GemmParams::tiny(),
            );
            assert_rows_match(&got, &want, 1e-9, v.name());
        }
    }

    #[test]
    fn f32_all_variants_match_f32_brute_force() {
        // the full nest in single precision, against an f32 oracle (same
        // arithmetic, different association order — tolerance covers it)
        let x: PointSet<f32> = uniform(60, 5, 11).cast();
        let q_idx: Vec<usize> = (0..20).collect();
        let r_idx: Vec<usize> = (10..60).collect();
        let want = brute_force_t::<f32>(&x, &q_idx, &r_idx, 4, DistanceKind::SqL2);
        for v in Variant::ALL {
            let got = run_variant_t::<f32>(
                &x,
                &q_idx,
                &r_idx,
                4,
                DistanceKind::SqL2,
                v,
                GemmParams::tiny_for::<f32>(),
            );
            assert_rows_match_t(&got, &want, 1e-4, v.name());
        }
    }

    #[test]
    fn f32_multipass_and_norms() {
        let x: PointSet<f32> = uniform(40, 37, 3).cast();
        let q_idx: Vec<usize> = (0..15).collect();
        let r_idx: Vec<usize> = (0..40).collect();
        for kind in [
            DistanceKind::SqL2,
            DistanceKind::L1,
            DistanceKind::LInf,
            DistanceKind::Cosine,
        ] {
            let want = brute_force_t::<f32>(&x, &q_idx, &r_idx, 6, kind);
            for v in [Variant::Var1, Variant::Var3, Variant::Var6] {
                let got = run_variant_t::<f32>(
                    &x,
                    &q_idx,
                    &r_idx,
                    6,
                    kind,
                    v,
                    GemmParams::tiny_for::<f32>(),
                );
                assert_rows_match_t(&got, &want, 1e-3, &format!("{} {}", v.name(), kind.name()));
            }
        }
    }

    #[test]
    fn multipass_d_exceeds_dc() {
        // d = 37 with dc = 8 forces 5 d-blocks including a fringe
        let x = uniform(40, 37, 3);
        let q_idx: Vec<usize> = (0..15).collect();
        let r_idx: Vec<usize> = (0..40).collect();
        let want = brute_force(&x, &q_idx, &r_idx, 6, DistanceKind::SqL2);
        for v in Variant::ALL {
            let got = run_variant(
                &x,
                &q_idx,
                &r_idx,
                6,
                DistanceKind::SqL2,
                v,
                GemmParams::tiny(),
            );
            assert_rows_match(&got, &want, 1e-9, v.name());
        }
    }

    #[test]
    fn non_euclidean_norms_all_variants() {
        let x = uniform(30, 9, 5);
        let q_idx: Vec<usize> = (5..25).collect();
        let r_idx: Vec<usize> = (0..30).collect();
        for kind in [
            DistanceKind::L1,
            DistanceKind::LInf,
            DistanceKind::Lp(2.5),
            DistanceKind::Cosine,
        ] {
            let want = brute_force(&x, &q_idx, &r_idx, 3, kind);
            for v in Variant::ALL {
                let got = run_variant(&x, &q_idx, &r_idx, 3, kind, v, GemmParams::tiny());
                assert_rows_match(&got, &want, 1e-9, &format!("{} {}", v.name(), kind.name()));
            }
        }
    }

    #[test]
    fn non_euclidean_norms_multipass() {
        // d > dc exercises the cross-pass combine (max for L∞!)
        let x = uniform(25, 21, 37);
        let q_idx: Vec<usize> = (0..10).collect();
        let r_idx: Vec<usize> = (0..25).collect();
        for kind in [DistanceKind::L1, DistanceKind::LInf, DistanceKind::Lp(1.5)] {
            let want = brute_force(&x, &q_idx, &r_idx, 4, kind);
            for v in [Variant::Var1, Variant::Var6] {
                let got = run_variant(&x, &q_idx, &r_idx, 4, kind, v, GemmParams::tiny());
                assert_rows_match(&got, &want, 1e-9, &format!("{} {}", v.name(), kind.name()));
            }
        }
    }

    #[test]
    fn general_stride_indices_shuffle() {
        // non-contiguous, repeated, reversed ids exercise the gather path
        let x = uniform(50, 8, 13);
        let q_idx = vec![49, 0, 33, 7, 7, 21];
        let r_idx: Vec<usize> = (0..50).rev().step_by(2).collect();
        let want = brute_force(&x, &q_idx, &r_idx, 5, DistanceKind::SqL2);
        for v in Variant::ALL {
            let got = run_variant(
                &x,
                &q_idx,
                &r_idx,
                5,
                DistanceKind::SqL2,
                v,
                GemmParams::tiny(),
            );
            assert_rows_match(&got, &want, 1e-9, v.name());
        }
    }

    #[test]
    fn k_exceeds_n_returns_all() {
        let x = uniform(10, 4, 17);
        let q_idx: Vec<usize> = (0..3).collect();
        let r_idx: Vec<usize> = (0..10).collect();
        let got = run_variant(
            &x,
            &q_idx,
            &r_idx,
            32,
            DistanceKind::SqL2,
            Variant::Var1,
            GemmParams::tiny(),
        );
        assert!(got.iter().all(|row| row.len() == 10));
    }

    #[test]
    fn heaps_accumulate_across_calls() {
        // call the kernel twice with two disjoint reference halves: result
        // must equal one call on the union — the neighbor-list update
        // stream of the approximate solvers.
        let x = uniform(80, 6, 23);
        let q_idx: Vec<usize> = (0..10).collect();
        let first_half: Vec<usize> = (0..40).collect();
        let second_half: Vec<usize> = (40..80).collect();
        let all: Vec<usize> = (0..80).collect();

        let mut heaps: Vec<SelHeap> = (0..10).map(|_| SelHeap::new(5, false)).collect();
        let mut ws = GsknnWorkspace::new();
        for half in [&first_half, &second_half] {
            let args = DriverArgs::same(
                &x,
                &q_idx,
                half,
                DistanceKind::SqL2,
                GemmParams::tiny(),
                Variant::Var1,
            );
            run_nest(&args, &mut heaps, &mut ws, 1);
        }
        let got: Vec<Vec<Neighbor>> = heaps.into_iter().map(|h| h.into_sorted_vec()).collect();
        let want = brute_force(&x, &q_idx, &all, 5, DistanceKind::SqL2);
        assert_rows_match(&got, &want, 1e-9, "two-call update");
    }

    #[test]
    fn ivy_bridge_params_on_moderate_problem() {
        let x = uniform(700, 20, 31);
        let q_idx: Vec<usize> = (0..300).collect();
        let r_idx: Vec<usize> = (200..700).collect();
        let want = brute_force(&x, &q_idx, &r_idx, 16, DistanceKind::SqL2);
        for v in [Variant::Var1, Variant::Var6] {
            let got = run_variant(
                &x,
                &q_idx,
                &r_idx,
                16,
                DistanceKind::SqL2,
                v,
                GemmParams::ivy_bridge(),
            );
            assert_rows_match(&got, &want, 1e-9, v.name());
        }
    }

    #[test]
    fn f32_ivy_bridge_params_are_usable() {
        // the paper's f64 blocking (mc=104, nc=4096) happens to satisfy
        // the f32 8×8 tile's divisibility too — the default config must
        // keep working when the element type changes underneath it
        let x: PointSet<f32> = uniform(300, 20, 31).cast();
        let q_idx: Vec<usize> = (0..100).collect();
        let r_idx: Vec<usize> = (50..300).collect();
        let want = brute_force_t::<f32>(&x, &q_idx, &r_idx, 8, DistanceKind::SqL2);
        for v in [Variant::Var1, Variant::Var6] {
            let got = run_variant_t::<f32>(
                &x,
                &q_idx,
                &r_idx,
                8,
                DistanceKind::SqL2,
                v,
                GemmParams::ivy_bridge(),
            );
            assert_rows_match_t(&got, &want, 1e-3, v.name());
        }
    }

    #[test]
    fn four_heap_selection_matches_binary() {
        let x = uniform(90, 7, 41);
        let q_idx: Vec<usize> = (0..30).collect();
        let r_idx: Vec<usize> = (0..90).collect();
        let args = DriverArgs::same(
            &x,
            &q_idx,
            &r_idx,
            DistanceKind::SqL2,
            GemmParams::tiny(),
            Variant::Var6,
        );
        let mut bin: Vec<SelHeap> = (0..30).map(|_| SelHeap::new(9, false)).collect();
        let mut four: Vec<SelHeap> = (0..30).map(|_| SelHeap::new(9, true)).collect();
        let mut ws = GsknnWorkspace::new();
        run_nest(&args, &mut bin, &mut ws, 1);
        run_nest(&args, &mut four, &mut ws, 1);
        for (b, f) in bin.into_iter().zip(four) {
            assert_eq!(b.into_sorted_vec(), f.into_sorted_vec());
        }
    }
}
