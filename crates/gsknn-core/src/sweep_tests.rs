//! The macro-kernel against the per-tile path it replaced for full tiles:
//! same rows bit for bit, same counters, same bits across batch shapes —
//! and, with `obs`, the probe budget of an interior sweep.

use crate::buffers::{GsknnWorkspace, KernelStats};
use crate::microkernel::FusedScalar;
use crate::parallel::run_data_parallel;
use crate::params::Variant;
use crate::variants::{run_serial, DriverArgs, Interior, SelHeap, TEST_INTERIOR};
use crate::{Gsknn, GsknnConfig};
use dataset::{uniform, DistanceKind, PointSet};
use gemm_kernel::GemmParams;
use proptest::prelude::*;

/// Run `f` with this thread's drivers on `interior`.
fn with_interior<R>(interior: Interior, f: impl FnOnce() -> R) -> R {
    struct Restore(Interior);
    impl Drop for Restore {
        fn drop(&mut self) {
            TEST_INTERIOR.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TEST_INTERIOR.with(|c| c.replace(interior)));
    f()
}

/// Neighbor rows as `(distance bits, id)`.
pub(crate) type RowBits = Vec<Vec<(u64, u32)>>;

/// Sorted rows of `heaps` — as bits: `==` on floats would let
/// `-0.0`/`0.0` through.
pub(crate) fn row_bits<T: FusedScalar>(heaps: Vec<SelHeap<T>>) -> RowBits {
    heaps
        .into_iter()
        .map(|h| {
            let sorted = h.into_sorted_vec();
            sorted
                .iter()
                .map(|nb| (nb.dist.to_f64().to_bits(), nb.idx))
                .collect()
        })
        .collect()
}

/// One kernel call through the sweep (serial, or data-parallel on `p`
/// chunks) and through the per-tile path, from identical heaps.
#[allow(clippy::too_many_arguments)]
fn interior_vs_per_tile<T: FusedScalar>(
    m: usize,
    n: usize,
    d: usize,
    k: usize,
    kind: DistanceKind,
    params: GemmParams,
    seeded: bool,
    p: Option<usize>,
) -> Result<(), String> {
    let x: PointSet<T> = uniform(m + n, d, (m * 131 + n * 7 + d) as u64).cast();
    let q_idx: Vec<usize> = (0..m).map(|i| (i * 5 + 1) % (m + n)).collect();
    let r_idx: Vec<usize> = (0..n).rev().map(|j| j + m / 2).collect();
    let args = |r| DriverArgs::same(&x, &q_idx, r, kind, params, Variant::Var1);

    let mut heaps: Vec<SelHeap<T>> = (0..m).map(|_| SelHeap::new(k, false)).collect();
    if seeded {
        // lists from a first call over some of the references: the second
        // call re-offers them, so `push_unique` has duplicates to drop
        let mut ws = GsknnWorkspace::new();
        run_serial(&args(&r_idx[..n.div_ceil(3)]), &mut heaps, &mut ws);
        heaps = heaps
            .into_iter()
            .map(|h| SelHeap::from_row(k, &h.into_sorted_vec(), false))
            .collect();
    }

    let run = |interior| {
        with_interior(interior, || {
            let mut heaps = heaps.clone();
            let stats = match p {
                Some(p) => run_data_parallel(&args(&r_idx), &mut heaps, p).0,
                None => {
                    let mut ws = GsknnWorkspace::new();
                    run_serial(&args(&r_idx), &mut heaps, &mut ws);
                    ws.stats
                }
            };
            (row_bits(heaps), stats)
        })
    };
    let (want_rows, want_stats) = run(Interior::PerTile);
    let (got_rows, got_stats) = run(Interior::Sweep(crate::obs::STRIP_SAMPLE));
    prop_assert_eq!(got_rows, want_rows);
    prop_assert_eq!(got_stats, want_stats);
    prop_assert_eq!(
        got_stats.tiles,
        (m.div_ceil(T::MR) * n.div_ceil(T::NR)) as u64
    );
    Ok(())
}

fn kinds() -> Vec<DistanceKind> {
    vec![
        DistanceKind::SqL2,
        DistanceKind::L1,
        DistanceKind::LInf,
        DistanceKind::Cosine,
        DistanceKind::Lp(3.0),
    ]
}

/// `tiny_for` (mc = 2·MR, nc = 3·NR, dc = 8) or a block three tiles wide
/// and five long, so m and n straddle MR, NR, mc and nc either way.
fn blocking<T: FusedScalar>(tiny: bool) -> GemmParams {
    if tiny {
        GemmParams::tiny_for::<T>()
    } else {
        GemmParams {
            dc: 8,
            mc: 3 * T::MR,
            nc: 5 * T::NR,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interior_sweep_is_the_per_tile_path_bitwise_f64(
        m in 1usize..60,
        n in 1usize..50,
        d in 1usize..20, // dc = 8: one pass up to 8, Cc prior above
        k in prop::sample::select(vec![1usize, 3, 8]),
        kind in prop::sample::select(kinds()),
        tiny in prop::sample::select(vec![true, false]),
        seeded in prop::sample::select(vec![false, true]),
        p in prop::sample::select(vec![None, Some(1usize), Some(3)]),
    ) {
        interior_vs_per_tile::<f64>(m, n, d, k, kind, blocking::<f64>(tiny), seeded, p)?;
    }

    #[test]
    fn interior_sweep_is_the_per_tile_path_bitwise_f32(
        m in 1usize..60,
        n in 1usize..90,
        d in 1usize..20,
        k in prop::sample::select(vec![1usize, 3, 8]),
        kind in prop::sample::select(kinds()),
        tiny in prop::sample::select(vec![true, false]),
        seeded in prop::sample::select(vec![false, true]),
        p in prop::sample::select(vec![None, Some(1usize), Some(3)]),
    ) {
        interior_vs_per_tile::<f32>(m, n, d, k, kind, blocking::<f32>(tiny), seeded, p)?;
    }
}

/// A reply computed inside one batch shape is compared, upstream, with
/// the same query computed inside another: the bits of a `(q, r)`
/// distance must not depend on whether the interior sweep, a fringe tile
/// or the m = 1 path produced it.
fn one_query_same_bits_in_every_batch<T: FusedScalar>(params: GemmParams) {
    let x: PointSet<T> = uniform(500, 24, 77).cast();
    let r_idx: Vec<usize> = (0..333).collect(); // full strips + a fringe column strip
    let (q, k) = (401, 6);
    let cfg = GsknnConfig {
        params,
        ..Default::default()
    };
    let mut exec = Gsknn::<T>::new(cfg);
    for kind in kinds() {
        let alone = exec.run(&x, &[q], &r_idx, k, kind);
        // (batch size, position of q): m = 13 puts q in the fringe rows of
        // a batch that has an interior; 8 and 64 are all full tiles
        for (m, at) in [(8, 3), (13, 10), (64, 41)] {
            let mut q_idx: Vec<usize> = (0..m).map(|i| 334 + i).collect();
            q_idx[at] = q;
            let batch = exec.run(&x, &q_idx, &r_idx, k, kind);
            for (a, b) in alone.row(0).iter().zip(batch.row(at)) {
                assert_eq!(
                    (a.dist.to_f64().to_bits(), a.idx),
                    (b.dist.to_f64().to_bits(), b.idx),
                    "{} {} m={m}",
                    T::NAME,
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn one_query_has_the_same_bits_at_m1_m8_m64() {
    for params in [
        GemmParams::ivy_bridge(),
        // d = 24 > dc = 8: the sweep folds a Cc prior
        GemmParams {
            dc: 8,
            ..GemmParams::ivy_bridge()
        },
    ] {
        one_query_same_bits_in_every_batch::<f64>(params);
        one_query_same_bits_in_every_batch::<f32>(params);
    }
}

#[test]
fn sweep_sizes_the_bound_cache_to_one_block() {
    let x = uniform(700, 12, 3);
    let q_idx: Vec<usize> = (0..300).collect();
    let r_idx: Vec<usize> = (0..700).collect();
    let params = GemmParams::ivy_bridge();
    let args = DriverArgs::same(
        &x,
        &q_idx,
        &r_idx,
        DistanceKind::SqL2,
        params,
        Variant::Var1,
    );
    let mut heaps: Vec<SelHeap> = (0..300).map(|_| SelHeap::new(4, false)).collect();
    let mut ws = GsknnWorkspace::new();
    assert_eq!(ws.thr.capacity(), 0, "nothing allocated before a sweep");
    run_serial(&args, &mut heaps, &mut ws);
    assert!(!ws.thr.is_empty() && ws.thr.len() <= params.mc);
    assert_ne!(ws.stats, KernelStats::default());
}

/// The probes of an interior sweep (`obs` on): a budget on clock reads,
/// and the sampled split against an every-tile measurement.
#[cfg(feature = "obs")]
mod probes {
    use super::*;
    use crate::obs::{clock_reads, Phase, PhaseSet, STRIP_SAMPLE};

    /// One Var#1 call at the paper's blocking with no fringe (m, n
    /// multiples of the tile); returns counters, phases and clock reads.
    fn call(m: usize, d: usize, k: usize, interior: Interior) -> (KernelStats, PhaseSet, u64) {
        let x = uniform(m, d, 9);
        let idx: Vec<usize> = (0..m).collect();
        let args = DriverArgs::same(
            &x,
            &idx,
            &idx,
            DistanceKind::SqL2,
            GemmParams::ivy_bridge(),
            Variant::Var1,
        );
        let mut heaps: Vec<SelHeap> = (0..m).map(|_| SelHeap::new(k, false)).collect();
        let mut ws = GsknnWorkspace::new();
        let before = clock_reads();
        with_interior(interior, || run_serial(&args, &mut heaps, &mut ws));
        (ws.stats, ws.phases, clock_reads() - before)
    }

    #[test]
    fn interior_sweep_stays_inside_its_clock_read_budget() {
        let (m, d) = (1024, 16);
        let params = GemmParams::ivy_bridge();
        let (stats, phases, reads) = call(m, d, 16, Interior::Sweep(STRIP_SAMPLE));
        let tiles = stats.tiles;
        assert_eq!(tiles, (m / 8 * m / 4) as u64);
        assert_eq!(phases.count(Phase::RankDc), tiles, "one span per tile");
        assert_eq!(phases.count(Phase::Select), tiles);

        let sweeps = (m.div_ceil(params.mc) * m.div_ceil(params.nc)) as u64;
        let strips = sweeps * (m / 4) as u64;
        let packs = 2 * (sweeps + m.div_ceil(params.nc) as u64); // PackQ + PackR spans
        let budget = 2 * sweeps + 4 * tiles / STRIP_SAMPLE as u64 + 2 * strips + packs;
        assert!(
            reads <= budget,
            "{reads} reads for {tiles} tiles, budget {budget}"
        );
        // ... where a span per tile and phase reads four times per tile
        let (_, _, per_tile) = call(m, d, 16, Interior::PerTile);
        assert_eq!(per_tile, 4 * tiles + packs);
        assert!(reads * 8 < per_tile);
    }

    #[test]
    fn sampled_select_share_tracks_an_every_tile_measurement() {
        fn share(p: &PhaseSet) -> f64 {
            p.seconds(Phase::Select) / (p.seconds(Phase::Select) + p.seconds(Phase::RankDc))
        }
        for (d, k) in [(16, 16), (16, 512), (64, 16), (64, 512)] {
            // both sides are timings: allow two repeats before failing
            let mut seen = Vec::new();
            let ok = (0..3).any(|_| {
                let every = share(&call(1024, d, k, Interior::Sweep(1)).1);
                let sampled = share(&call(1024, d, k, Interior::Sweep(STRIP_SAMPLE)).1);
                seen.push((every, sampled));
                (every - sampled).abs() <= 0.05
            });
            assert!(ok, "d={d} k={k}: (every-tile, sampled) shares {seen:?}");
        }
    }
}
