//! Public entry points: configure once, call many times — the contract the
//! approximate all-nearest-neighbor solvers (randomized KD-trees, LSH)
//! need, where the kNN kernel is invoked per leaf/bucket with fresh index
//! lists and the per-query neighbor lists persist across calls.

use crate::buffers::{GsknnWorkspace, KernelStats};
use crate::microkernel::FusedScalar;
use crate::obs::{Phase, PhaseSet};
use crate::packing::PackedRefs;
use crate::params::Variant;
use crate::variants::{run_nest, DriverArgs, RefSource, SelHeap};
use dataset::{DistanceKind, PointSet};
use gemm_kernel::GemmParams;
use gsknn_scalar::GsknnScalar;
use knn_select::{Neighbor, NeighborTable};

/// Reusable per-batch scratch for [`Gsknn::update_cross_reusing`] and
/// [`Gsknn::update_prepacked`]: the selection heaps (one per query row)
/// and the writeback row that `update_cross` would otherwise allocate per
/// call. A serving shard keeps one of these per lane; after warm-up on the
/// largest batch shape the whole select-and-writeback path is
/// allocation-free.
#[derive(Default, Debug)]
pub struct BatchScratch<T: FusedScalar = f64> {
    heaps: Vec<SelHeap<T>>,
    row: Vec<Neighbor<T>>,
}

impl<T: FusedScalar> BatchScratch<T> {
    /// Empty scratch; grows on first use and never shrinks.
    pub fn new() -> Self {
        BatchScratch {
            heaps: Vec::new(),
            row: Vec::new(),
        }
    }

    /// One heap per row of `table`, holding that row ([`SelHeap::from_row`]),
    /// with the storage of earlier batches recycled.
    fn seed(&mut self, table: &NeighborTable<T>, four: bool) -> &mut [SelHeap<T>] {
        let (m, k) = (table.len(), table.k());
        self.heaps.reserve(m.saturating_sub(self.heaps.len()));
        for i in 0..m {
            match self.heaps.get_mut(i) {
                Some(h) => h.reset_from_row(k, table.row(i), four),
                None => self.heaps.push(SelHeap::from_row(k, table.row(i), four)),
            }
        }
        &mut self.heaps[..m]
    }

    /// Write the first `table.len()` heaps back as sorted rows.
    fn write_back(&mut self, table: &mut NeighborTable<T>) {
        for (i, heap) in self.heaps[..table.len()].iter().enumerate() {
            self.row.clear();
            heap.sorted_into(&mut self.row);
            table.set_row(i, &self.row);
        }
    }
}

/// Smallest `m·n·d` of a call whose 4th loop is split over
/// [`GsknnConfig::p`] workers; a smaller call walks it serially on the
/// caller's thread, whatever `p`. Below it the split does not pay: the
/// `Rc` gather stays serial, each worker streams all of `Rc` for fewer
/// rows, and a worker can start late. Measured with `run_nest`, Var#1,
/// f64, sq-ℓ2, references gathered from a 16384-point table, n = 4096,
/// p = 2 against p = 1 on a 2-vCPU VM, median time ratio of 40
/// interleaved pairs (pairs where p = 2 was faster):
///
/// * d = 64, k = 16: 2²² 1.12 (0/40), 2²³ 1.02 (15/40), 2²⁴ 0.86
///   (36/40), 2²⁵ 0.77 (40/40);
/// * d = 16, k = 512: 2²⁰ 0.95 (25/40), 2²¹ 0.68 (37/40), 2²² 0.58;
/// * d = 16, k = 16: 2²² 0.83 (38/40), 2²³ 0.70 (38/40).
///
/// 2²⁴ is the smallest size ahead on every shape (EXPERIMENTS,
/// "Data-parallel by default").
pub const SPLIT_FLOOR: usize = 1 << 24;

/// Kernel configuration.
#[derive(Clone, Debug)]
pub struct GsknnConfig {
    /// Cache-blocking parameters (defaults to the paper's Ivy Bridge set).
    pub params: GemmParams,
    /// Selection placement; Var#1 by default, at every problem size.
    /// (The paper's §3 switches to Var#6 above `k = 512`; with reservoir
    /// selection Var#1 measures faster through `k = 2048` —
    /// `bench_out/fig5.txt` — so nothing switches at run time.)
    pub variant: Variant,
    /// Workers of the data-parallel 4th loop (§2.5's `p`; 0 counts as 1):
    /// every call with `m·n·d ≥` [`SPLIT_FLOOR`] cuts its queries into
    /// chunks walked by `p` workers, each with a private `Qc`, sharing
    /// the packed `Rc`. The rows and counters are the same for every `p`.
    /// The constructors set the host's available parallelism; a caller
    /// that already runs one kernel per core (a serving shard, a forest
    /// leaf loop, the LPT scheduler's workers) sets 1.
    pub p: usize,
}

impl Default for GsknnConfig {
    fn default() -> Self {
        GsknnConfig {
            params: GemmParams::ivy_bridge(),
            variant: Variant::Var1,
            p: rayon::current_num_threads(),
        }
    }
}

impl GsknnConfig {
    /// Configuration with blocking parameters derived analytically from
    /// the running machine's cache hierarchy (§2.4's selection formulas
    /// applied to detected sizes; falls back to the paper's Ivy Bridge
    /// values when detection fails).
    pub fn native() -> Self {
        GsknnConfig {
            params: GemmParams::native(),
            ..Default::default()
        }
    }

    /// Configuration whose blocking is derived for a specific element
    /// type: the same cache formulas with the type's size and micro-tile
    /// (f32 gets `dc = 1.5 × dc_f64` on the paper's caches — see
    /// `GemmParams::for_caches_of`). The f64 default parameters happen to
    /// also be *valid* (if suboptimal) for f32, so this is an upgrade,
    /// not a requirement, for single-precision runs.
    pub fn for_scalar<T: GsknnScalar>() -> Self {
        GsknnConfig {
            params: GemmParams::native_for::<T>(),
            ..Default::default()
        }
    }
}

/// A reusable kernel execution context (owns the packing workspace),
/// generic over the element precision (`Gsknn` = `Gsknn<f64>` is the
/// paper's double-precision kernel; `Gsknn<f32>` runs the 8-lane/16-lane
/// single-precision micro-kernels on the same nest).
///
/// See the crate-level example. Not `Sync`: create one per thread (the
/// task-parallel scheduler in [`crate::scheduler`] does; the data-parallel
/// update gives each worker scratch of its own, [`crate::parallel`]).
#[derive(Default, Debug)]
pub struct Gsknn<T: FusedScalar = f64> {
    cfg: GsknnConfig,
    ws: GsknnWorkspace<T>,
    /// Phase times accumulated across calls since the last
    /// [`Gsknn::take_phase_accum`] — callers that issue many updates per
    /// logical unit of work (the forest makes one `update_cross` call
    /// per routed leaf) read their totals here, since `ws.phases` resets
    /// every call. Zero-sized without the `obs` feature.
    phase_accum: PhaseSet,
}

impl<T: FusedScalar> Gsknn<T> {
    /// New context with the given configuration.
    pub fn new(cfg: GsknnConfig) -> Self {
        Gsknn {
            cfg,
            ws: GsknnWorkspace::new(),
            phase_accum: PhaseSet::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GsknnConfig {
        &self.cfg
    }

    /// The variant a call of shape `(m, n, d, k)` runs: the configured
    /// one, whatever the shape.
    pub fn effective_variant(&self, _m: usize, _n: usize, _d: usize, _k: usize) -> Variant {
        self.cfg.variant
    }

    /// Solve one kNN kernel: the `k` nearest references (by `kind`) for
    /// every query. Row `i` of the result corresponds to `q_idx[i]`.
    pub fn run(
        &mut self,
        x: &PointSet<T>,
        q_idx: &[usize],
        r_idx: &[usize],
        k: usize,
        kind: DistanceKind,
    ) -> NeighborTable<T> {
        let mut table = NeighborTable::new(q_idx.len(), k);
        self.update(x, q_idx, r_idx, kind, &mut table);
        table
    }

    /// Update existing neighbor lists with the candidates from `r_idx` —
    /// the iterated form the approximate solvers use (`table.k()` is `k`;
    /// row `i` corresponds to `q_idx[i]` and must carry that query's
    /// current list).
    pub fn update(
        &mut self,
        x: &PointSet<T>,
        q_idx: &[usize],
        r_idx: &[usize],
        kind: DistanceKind,
        table: &mut NeighborTable<T>,
    ) {
        self.update_cross(x, q_idx, x, r_idx, kind, table)
    }

    /// Cross-table form: queries from `xq`, references from `xr` (equal
    /// dimension) — out-of-sample / train-test search. Indices in the
    /// result refer to positions in `xr`.
    pub fn run_cross(
        &mut self,
        xq: &PointSet<T>,
        q_idx: &[usize],
        xr: &PointSet<T>,
        r_idx: &[usize],
        k: usize,
        kind: DistanceKind,
    ) -> NeighborTable<T> {
        let mut table = NeighborTable::new(q_idx.len(), k);
        self.update_cross(xq, q_idx, xr, r_idx, kind, &mut table);
        table
    }

    /// Cross-table update; see [`Gsknn::run_cross`] / [`Gsknn::update`].
    pub fn update_cross(
        &mut self,
        xq: &PointSet<T>,
        q_idx: &[usize],
        xr: &PointSet<T>,
        r_idx: &[usize],
        kind: DistanceKind,
        table: &mut NeighborTable<T>,
    ) {
        self.update_cross_reusing(xq, q_idx, xr, r_idx, kind, table, &mut BatchScratch::new())
    }

    /// [`Gsknn::update_cross`] with the per-batch scratch (heaps and the
    /// writeback row) drawn from `scratch` instead of freshly allocated —
    /// bit-identical results, but a scratch cycled through a serving
    /// workspace stops allocating once it has seen its largest batch
    /// shape. Heap storage is reused via [`SelHeap::reset_from_row`],
    /// which rebuilds exactly what `from_row` builds.
    #[allow(clippy::too_many_arguments)]
    pub fn update_cross_reusing(
        &mut self,
        xq: &PointSet<T>,
        q_idx: &[usize],
        xr: &PointSet<T>,
        r_idx: &[usize],
        kind: DistanceKind,
        table: &mut NeighborTable<T>,
        scratch: &mut BatchScratch<T>,
    ) {
        let args = DriverArgs {
            xq,
            q_idx,
            refs: RefSource::Gather { x: xr, idx: r_idx },
            kind,
            params: self.cfg.params,
            variant: self.cfg.variant,
        };
        self.update_nest(&args, table, scratch)
    }

    /// [`Gsknn::update_cross_reusing`] against references packed once
    /// ([`PackedRefs`]): the nest borrows each `(jc, pc)` block of `refs`
    /// instead of gather-packing it, so a call pays pack-Q, rank-dc and
    /// selection only, and the workspace never sizes an `Rc` buffer. It
    /// runs under the blocking the panels were packed with
    /// ([`PackedRefs::params`]), not the configured one; under equal
    /// blocking the rows are the bits `update_cross_reusing` returns over
    /// the same references and ids. Reference ids were checked when `refs`
    /// was packed; only the queries are checked here.
    pub fn update_prepacked(
        &mut self,
        xq: &PointSet<T>,
        q_idx: &[usize],
        refs: &PackedRefs<T>,
        kind: DistanceKind,
        table: &mut NeighborTable<T>,
        scratch: &mut BatchScratch<T>,
    ) {
        let args = DriverArgs::prepacked(xq, q_idx, refs, kind, self.cfg.variant);
        self.update_nest(&args, table, scratch)
    }

    /// Observability counters from the most recent `run`/`update` call
    /// (see [`crate::buffers::KernelStats`]): how often the vectorized
    /// root filter achieved the heap's O(n) best case, how many
    /// candidates were offered vs kept.
    pub fn last_stats(&self) -> crate::buffers::KernelStats {
        self.ws.stats
    }

    /// Phase-time breakdown of the most recent `run`/`update` call.
    /// All-zero unless the crate is built with the `obs` feature.
    pub fn last_phases(&self) -> PhaseSet {
        self.ws.phases
    }

    /// Drain the phase times accumulated over *all* `run`/`update` calls
    /// since the previous drain (the per-call [`Gsknn::last_phases`]
    /// resets each call). Lets a caller that issues many kernel calls
    /// per unit of work — e.g. a forest query, one call per routed leaf
    /// — attribute the summed phase cost to that unit. All-zero unless
    /// the crate is built with the `obs` feature.
    pub fn take_phase_accum(&mut self) -> PhaseSet {
        std::mem::take(&mut self.phase_accum)
    }

    /// Every update: seed the heaps from `table`, run the nest — on the
    /// configured `p` workers when the call reaches [`SPLIT_FLOOR`] —
    /// and write the rows back. With `p > 1` the workers' counters and
    /// phase times are merged, so [`Gsknn::last_stats`] and
    /// [`Gsknn::last_phases`] report call totals (phase times then sum
    /// worker CPU time and can exceed wall time).
    fn update_nest(
        &mut self,
        args: &DriverArgs<'_, T>,
        table: &mut NeighborTable<T>,
        scratch: &mut BatchScratch<T>,
    ) {
        assert_eq!(table.len(), args.q_idx.len(), "one table row per query");
        assert_eq!(
            args.xq.dim(),
            args.r_dim(),
            "query/reference dimension mismatch"
        );
        let in_bounds = |x: &PointSet<T>, idx: &[usize]| idx.iter().all(|&i| i < x.len());
        assert!(
            in_bounds(args.xq, args.q_idx),
            "query index out of bounds (N = {})",
            args.xq.len()
        );
        if let RefSource::Gather { x, idx } = args.refs {
            assert!(
                in_bounds(x, idx),
                "reference index out of bounds (N = {})",
                x.len()
            );
        }
        // §2.4: Var#1 pairs with the binary heap (small k), Var#6 with the
        // padded 4-heap (large k).
        let heaps = scratch.seed(table, args.variant == Variant::Var6);
        self.ws.stats = KernelStats::default();
        self.ws.phases.reset();
        let work = args
            .q_idx
            .len()
            .saturating_mul(args.r_ids().len())
            .saturating_mul(args.xq.dim());
        let p = if work >= SPLIT_FLOOR { self.cfg.p } else { 1 };
        run_nest(args, heaps, &mut self.ws, p);
        self.ws
            .phases
            .time(Phase::Writeback, || scratch.write_back(table));
        self.phase_accum.merge(&self.ws.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::uniform;
    use knn_select::Neighbor;

    #[test]
    fn run_finds_self_as_nearest() {
        let x = uniform(200, 12, 5);
        let q: Vec<usize> = (0..50).collect();
        let r: Vec<usize> = (0..200).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        let t = exec.run(&x, &q, &r, 3, DistanceKind::SqL2);
        for (i, &qi) in q.iter().enumerate() {
            assert_eq!(t.row(i)[0].idx, qi as u32, "query {qi}");
            // the Eq. (1) expansion leaves ~1 ulp of rounding on the
            // self-distance (clamped at 0 from below only)
            assert!(t.row(i)[0].dist < 1e-12);
        }
    }

    #[test]
    fn reusing_scratch_is_bit_identical_to_fresh() {
        fn check<T: FusedScalar>(k: usize, variant: Variant) {
            let x64 = uniform(300, 10, 23);
            let x: PointSet<T> = x64.cast();
            let r: Vec<usize> = (0..300).collect();
            let mut exec = Gsknn::<T>::new(GsknnConfig {
                variant,
                ..GsknnConfig::for_scalar::<T>()
            });
            let mut scratch = BatchScratch::new();
            // vary the batch shape across cycles so the scratch is
            // exercised both growing and shrinking
            for (cycle, m) in [40usize, 12, 64, 7, 64].iter().enumerate() {
                let q: Vec<usize> = (0..*m).map(|i| (i * 3 + cycle) % 300).collect();
                let mut fresh = NeighborTable::<T>::new(q.len(), k);
                exec.update_cross(&x, &q, &x, &r, DistanceKind::SqL2, &mut fresh);
                let mut reused = NeighborTable::<T>::new(q.len(), k);
                exec.update_cross_reusing(
                    &x,
                    &q,
                    &x,
                    &r,
                    DistanceKind::SqL2,
                    &mut reused,
                    &mut scratch,
                );
                for i in 0..q.len() {
                    assert_eq!(fresh.row(i), reused.row(i), "cycle {cycle} row {i}");
                }
            }
        }
        check::<f64>(8, Variant::Var1); // binary heap
        check::<f32>(8, Variant::Var1);
        check::<f64>(600, Variant::Var6); // 4-heap, k > n
    }

    #[test]
    fn prepacked_update_is_the_gathered_update_without_an_rc_buffer() {
        fn check<T: FusedScalar>(d: usize, dc: usize) {
            let x64 = uniform(300, d, 41);
            let x: PointSet<T> = x64.cast();
            let r: Vec<usize> = (0..300).collect();
            let params = GemmParams {
                dc,
                ..GemmParams::tiny_for::<T>()
            };
            let mut gathered = Gsknn::<T>::new(GsknnConfig {
                params,
                ..GsknnConfig::default()
            });
            // the prepacked call takes its blocking from the panels, not
            // from its own configuration
            let mut prepacked = Gsknn::<T>::new(GsknnConfig::default());
            let packed = PackedRefs::<T>::pack(&x64, r.clone(), params);
            let mut scratch = BatchScratch::new();
            for (cycle, m) in [40usize, 7, 64].into_iter().enumerate() {
                let q: Vec<usize> = (0..m).map(|i| (i * 7 + cycle) % 300).collect();
                let mut want = NeighborTable::<T>::new(m, 5);
                gathered.update_cross(&x, &q, &x, &r, DistanceKind::SqL2, &mut want);
                let mut got = NeighborTable::<T>::new(m, 5);
                prepacked.update_prepacked(
                    &x,
                    &q,
                    &packed,
                    DistanceKind::SqL2,
                    &mut got,
                    &mut scratch,
                );
                for i in 0..m {
                    assert_eq!(got.row(i), want.row(i), "{} m={m} row {i}", T::NAME);
                }
                assert_eq!(prepacked.last_stats(), gathered.last_stats());
            }
            assert_eq!(prepacked.ws.r_pack.len(), 0, "no Rc buffer");
            assert_eq!(prepacked.ws.r2_pack.len(), 0, "no R2c buffer");
        }
        // d <= dc (one pass) and d > dc (a Cc prior)
        check::<f64>(10, 16);
        check::<f32>(10, 16);
        check::<f64>(21, 8);
        check::<f32>(21, 8);
    }

    #[test]
    fn update_improves_rows_monotonically() {
        let x = uniform(100, 8, 19);
        let q: Vec<usize> = (0..10).collect();
        let r1: Vec<usize> = (50..100).collect();
        let r2: Vec<usize> = (0..50).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        let mut t = exec.run(&x, &q, &r1, 4, DistanceKind::SqL2);
        let before: Vec<f64> = (0..10).map(|i| t.row(i)[3].dist).collect();
        exec.update(&x, &q, &r2, DistanceKind::SqL2, &mut t);
        // r2 contains the queries themselves, so the row minimum must be
        // the (≈0) self-distance and the k-th distance can only shrink.
        for (i, &b) in before.iter().enumerate() {
            assert!(t.row(i)[0].dist < 1e-12);
            assert!(t.row(i)[3].dist <= b);
        }
    }

    #[test]
    fn update_equals_one_shot_on_union() {
        let x = uniform(120, 6, 29);
        let q: Vec<usize> = (0..12).collect();
        let all: Vec<usize> = (0..120).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        let mut incremental = exec.run(&x, &q, &all[..60], 5, DistanceKind::SqL2);
        exec.update(&x, &q, &all[60..], DistanceKind::SqL2, &mut incremental);
        let oneshot = exec.run(&x, &q, &all, 5, DistanceKind::SqL2);
        for i in 0..12 {
            let a: Vec<u32> = incremental.row(i).iter().map(|n| n.idx).collect();
            let b: Vec<u32> = oneshot.row(i).iter().map(|n| n.idx).collect();
            assert_eq!(a, b, "row {i}");
        }
    }

    #[test]
    fn k_zero_yields_empty_rows() {
        let x = uniform(10, 3, 1);
        let q = vec![0usize, 1];
        let r: Vec<usize> = (0..10).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        let t = exec.run(&x, &q, &r, 0, DistanceKind::SqL2);
        assert_eq!(t.k(), 0);
    }

    #[test]
    #[should_panic(expected = "query index out of bounds")]
    fn out_of_bounds_query_panics() {
        let x = uniform(10, 3, 1);
        let mut exec = Gsknn::new(GsknnConfig::default());
        exec.run(&x, &[10], &[0], 1, DistanceKind::SqL2);
    }

    #[test]
    fn parallel_run_aggregates_worker_stats() {
        // m·n·d reaches SPLIT_FLOOR: the call splits
        let (m, d) = (120, 9);
        let n = SPLIT_FLOOR.div_ceil(m * d);
        let x = uniform(n, d, 47);
        let q: Vec<usize> = (0..m).collect();
        let r: Vec<usize> = (0..n).collect();
        let with_p = |p| {
            Gsknn::new(GsknnConfig {
                p,
                ..GsknnConfig::default()
            })
        };
        let mut serial = with_p(1);
        let rows = serial.run(&x, &q, &r, 7, DistanceKind::SqL2);
        let mut par = with_p(4);
        let par_rows = par.run(&x, &q, &r, 7, DistanceKind::SqL2);
        for i in 0..q.len() {
            assert_eq!(rows.row(i), par_rows.row(i), "row {i}");
        }
        // one private scratch per worker, kept for the next call
        assert_eq!(serial.ws.chunks.len(), 1);
        assert_eq!(par.ws.chunks.len(), 4);
        // each query sees the same candidate stream however the 4th loop
        // is chunked, and chunks are whole MR tiles, so the merged worker
        // counters are the serial ones
        assert!(par.last_stats().tiles > 0, "worker stats were not merged");
        assert_eq!(par.last_stats(), serial.last_stats());
        // below the floor the same configuration walks serially
        let mut small = with_p(4);
        let _ = small.run(&x, &q[..8], &r, 7, DistanceKind::SqL2);
        assert_eq!(small.ws.chunks.len(), 1);
    }

    #[test]
    fn stats_show_best_case_filtering_at_small_k() {
        // k = 1 on a large reference set: once the heap holds a close
        // neighbor, almost every later tile row dies at the root filter.
        let x = uniform(4000, 8, 71);
        let q: Vec<usize> = (0..64).collect();
        let r: Vec<usize> = (0..4000).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        let _ = exec.run(&x, &q, &r, 1, DistanceKind::SqL2);
        let s = exec.last_stats();
        assert!(s.tiles > 0);
        assert!(
            s.filter_rate() > 0.9,
            "expected the O(n) best case, filter rate {}",
            s.filter_rate()
        );
        assert!(s.candidates_kept <= s.candidates_offered);
    }

    #[test]
    fn stats_show_no_filtering_when_everything_is_kept() {
        // k >= n: every candidate must be kept; nothing can be filtered.
        let x = uniform(64, 4, 5);
        let q: Vec<usize> = (0..8).collect();
        let r: Vec<usize> = (0..64).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        let _ = exec.run(&x, &q, &r, 64, DistanceKind::SqL2);
        let s = exec.last_stats();
        assert_eq!(s.rows_filtered, 0);
        assert_eq!(s.candidates_kept, 8 * 64);
    }

    #[test]
    fn stats_reset_between_runs() {
        let x = uniform(100, 4, 9);
        let q: Vec<usize> = (0..10).collect();
        let r: Vec<usize> = (0..100).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        let _ = exec.run(&x, &q, &r, 2, DistanceKind::SqL2);
        let first = exec.last_stats();
        let _ = exec.run(&x, &q, &r, 2, DistanceKind::SqL2);
        assert_eq!(exec.last_stats(), first, "same problem, same counters");
    }

    #[test]
    fn cross_table_queries_match_merged_table() {
        // queries from one table, references from another: must equal
        // running on a merged table with shifted reference ids
        let xq = uniform(30, 7, 3);
        let xr = uniform(50, 7, 4);
        let q: Vec<usize> = (0..30).collect();
        let r: Vec<usize> = (0..50).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        let got = exec.run_cross(&xq, &q, &xr, &r, 4, DistanceKind::SqL2);

        // merged: first 30 columns are xq, next 50 are xr
        let mut merged = xq.as_slice().to_vec();
        merged.extend_from_slice(xr.as_slice());
        let xm = dataset::PointSet::from_vec(7, 80, merged);
        let rm: Vec<usize> = (30..80).collect();
        let want = exec.run(&xm, &q, &rm, 4, DistanceKind::SqL2);
        for i in 0..30 {
            for (a, b) in got.row(i).iter().zip(want.row(i)) {
                assert_eq!(a.idx + 30, b.idx, "row {i}");
                assert!((a.dist - b.dist).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cross_table_rejects_mismatched_dims() {
        let xq = uniform(5, 3, 1);
        let xr = uniform(5, 4, 2);
        Gsknn::new(GsknnConfig::default()).run_cross(&xq, &[0], &xr, &[0], 1, DistanceKind::SqL2);
    }

    #[test]
    fn sentinel_rows_survive_when_no_references() {
        let x = uniform(10, 3, 1);
        let mut exec = Gsknn::new(GsknnConfig::default());
        let t = exec.run(&x, &[0, 1], &[], 2, DistanceKind::SqL2);
        assert_eq!(t.row(0)[0], Neighbor::sentinel());
    }

    #[test]
    fn f32_run_finds_self_as_nearest() {
        let x: PointSet<f32> = uniform(200, 12, 5).cast();
        let q: Vec<usize> = (0..50).collect();
        let r: Vec<usize> = (0..200).collect();
        let mut exec: Gsknn<f32> = Gsknn::new(GsknnConfig::for_scalar::<f32>());
        let t = exec.run(&x, &q, &r, 3, DistanceKind::SqL2);
        for (i, &qi) in q.iter().enumerate() {
            assert_eq!(t.row(i)[0].idx, qi as u32, "query {qi}");
            // single precision leaves more expansion rounding than f64
            assert!(t.row(i)[0].dist < 1e-3);
        }
    }

    #[test]
    fn f32_update_equals_one_shot_on_union() {
        let x: PointSet<f32> = uniform(120, 6, 29).cast();
        let q: Vec<usize> = (0..12).collect();
        let all: Vec<usize> = (0..120).collect();
        let mut exec: Gsknn<f32> = Gsknn::new(GsknnConfig::default());
        let mut incremental = exec.run(&x, &q, &all[..60], 5, DistanceKind::SqL2);
        exec.update(&x, &q, &all[60..], DistanceKind::SqL2, &mut incremental);
        let oneshot = exec.run(&x, &q, &all, 5, DistanceKind::SqL2);
        for i in 0..12 {
            let a: Vec<u32> = incremental.row(i).iter().map(|n| n.idx).collect();
            let b: Vec<u32> = oneshot.row(i).iter().map(|n| n.idx).collect();
            assert_eq!(a, b, "row {i}");
        }
    }

    #[test]
    fn phase_accum_sums_across_calls_and_drains() {
        let x = uniform(96, 6, 31);
        let q: Vec<usize> = (0..8).collect();
        let r: Vec<usize> = (0..96).collect();
        let mut exec: Gsknn<f64> = Gsknn::new(GsknnConfig::default());
        exec.take_phase_accum(); // start clean
        let _ = exec.run(&x, &q, &r, 4, DistanceKind::SqL2);
        let _ = exec.run(&x, &q, &r, 4, DistanceKind::SqL2);
        let accum = exec.take_phase_accum();
        if crate::obs::enabled() {
            // one writeback span per call, summed — unlike last_phases,
            // which only held the second call
            assert_eq!(accum.count(crate::obs::Phase::Writeback), 2);
            assert_eq!(exec.last_phases().count(crate::obs::Phase::Writeback), 1);
        }
        // draining resets the accumulator
        let drained = exec.take_phase_accum();
        assert_eq!(drained.count(crate::obs::Phase::Writeback), 0);
    }

    #[test]
    fn for_scalar_config_validates_for_its_type() {
        let c32 = GsknnConfig::for_scalar::<f32>();
        assert!(c32.params.validate_for::<f32>().is_ok());
        let c64 = GsknnConfig::for_scalar::<f64>();
        assert!(c64.params.validate_for::<f64>().is_ok());
        // the f64 *default* config is also usable for f32 (both widths
        // divide its mc/nc), which keeps `Gsknn::<f32>::default()` legal
        assert!(GsknnConfig::default().params.validate_for::<f32>().is_ok());
    }
}
