//! The path-equivalence property: one generator over precision, norm,
//! `k`, row state, ties and blocking, run through every selection
//! placement, the driver at `p ∈ {1, 3}` and both reference sources
//! (gather-packed per call, prepacked once); the heap-only per-tile path
//! is the reference and every other path must return its rows bit for
//! bit. Plus what a whole call promises about one query's bits across
//! batch shapes, about block-local scratch and — with `obs` — about the
//! probe budget of an interior sweep.

use crate::buffers::{GsknnWorkspace, KernelStats};
use crate::microkernel::FusedScalar;
use crate::packing::PackedRefs;
use crate::params::Variant;
use crate::variants::{run_nest, DriverArgs, Interior, SelHeap, TEST_INTERIOR};
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

/// What the query rows hold when the call under test starts.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rows {
    /// Empty heaps: the reservoir takes every full-tile row.
    Fresh,
    /// Lists from an earlier call, rebuilt with `from_row`: id-unique
    /// insertion, and the call re-offers the ids they store.
    Seeded,
    /// Seeded and fresh rows alternating inside every block.
    Mixed,
    /// The heaps an earlier call left, pushed into again as they are.
    Carried,
}

/// One problem of the equivalence property.
#[derive(Clone, Copy, Debug)]
struct Case {
    m: usize,
    n: usize,
    d: usize,
    k: usize,
    kind: DistanceKind,
    /// `tiny_for` blocking, else a block three tiles wide and five long.
    tiny: bool,
    rows: Rows,
    /// Points drawn from this many distinct coordinates (exact distance
    /// ties between different ids), or all distinct.
    distinct: Option<usize>,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (1usize..60, 1usize..130, 1usize..20), // dc = 8: a Cc prior above
        // 1, 3 and 16 push into heaps inside the sweep (RESERVOIR_MIN_K),
        // the rest go through the reservoir; 512 >= n unless `far` lifts n
        prop::sample::select(vec![1usize, 3, 16, 24, 24, 40, 512]),
        prop::sample::select(vec![false, false, false, true]),
        prop::sample::select(kinds()),
        prop::sample::select(vec![true, false]),
        prop::sample::select(vec![Rows::Fresh, Rows::Seeded, Rows::Mixed, Rows::Carried]),
        prop::sample::select(vec![None, None, Some(1usize), Some(7)]),
    )
        .prop_map(|((m, n, d), k, far, kind, tiny, rows, distinct)| Case {
            m,
            n: if far { n + 512 } else { n },
            d,
            k,
            kind,
            tiny,
            rows,
            distinct,
        })
}

/// Every path over one problem, from identical heaps, against the
/// per-tile path.
fn paths_agree<T: FusedScalar>(c: Case) -> Result<(), String> {
    let Case { m, n, d, k, .. } = c;
    let seed = (m * 131 + n * 7 + d) as u64;
    let x: PointSet<T> = match c.distinct {
        None => uniform(m + n, d, seed).cast(),
        Some(p) => {
            let base = uniform(p, d, seed);
            let cols: Vec<f64> = (0..m + n)
                .flat_map(|j| base.point(j % p).to_vec())
                .collect();
            PointSet::from_vec(d, m + n, cols).cast()
        }
    };
    let params = if c.tiny {
        GemmParams::tiny_for::<T>()
    } else {
        GemmParams {
            dc: 8,
            mc: 3 * T::MR,
            nc: 5 * T::NR,
        }
    };
    let q_idx: Vec<usize> = (0..m).map(|i| (i * 5 + 1) % (m + n)).collect();
    let r_idx: Vec<usize> = (0..n).rev().map(|j| j + m / 2).collect();
    let args = |v, r| DriverArgs::same(&x, &q_idx, r, c.kind, params, v);

    let mut heaps: Vec<SelHeap<T>> = (0..m).map(|_| SelHeap::new(k, false)).collect();
    if c.rows != Rows::Fresh {
        // an earlier call over some of the references, on the reference
        // path; the call under test offers those ids again
        with_interior(Interior::PerTile, || {
            run_nest(
                &args(Variant::Var1, &r_idx[..n.div_ceil(3)]),
                &mut heaps,
                &mut GsknnWorkspace::new(),
                1,
            )
        });
        let reseed = |i: usize| match c.rows {
            Rows::Seeded => true,
            Rows::Mixed => i.is_multiple_of(2),
            _ => false,
        };
        heaps = heaps
            .into_iter()
            .enumerate()
            .map(|(i, h)| match (reseed(i), c.rows) {
                (true, _) => SelHeap::from_row(k, &h.into_sorted_vec(), false),
                (false, Rows::Mixed) => SelHeap::new(k, false),
                (false, _) => h,
            })
            .collect();
    }

    // the same references packed once, under the call's blocking
    let packed = PackedRefs::pack(&x, r_idx.clone(), params);
    let run_from = |variant, interior, p, prepacked: bool| {
        with_interior(interior, || {
            let mut heaps = heaps.clone();
            let mut ws = GsknnWorkspace::new();
            let args = match prepacked {
                true => DriverArgs::prepacked(&x, &q_idx, &packed, c.kind, variant),
                false => args(variant, &r_idx),
            };
            run_nest(&args, &mut heaps, &mut ws, p);
            (row_bits(heaps), ws.stats)
        })
    };
    let run = |variant, interior, p| run_from(variant, interior, p, false);
    let sweep = Interior::Sweep(crate::obs::STRIP_SAMPLE);
    let (want, per_tile) = run(Variant::Var1, Interior::PerTile, 1);
    let (rows, stats) = run(Variant::Var1, sweep, 1);
    prop_assert_eq!(&rows, &want);
    prop_assert_eq!(stats.tiles, per_tile.tiles);
    prop_assert_eq!(stats.tiles, (m.div_ceil(T::MR) * n.div_ceil(T::NR)) as u64);
    prop_assert_eq!(
        stats.rows_filtered + stats.rows_scanned,
        per_tile.rows_filtered + per_tile.rows_scanned
    );
    // a staler bound passes more, never fewer
    prop_assert!(stats.candidates_offered >= per_tile.candidates_offered);
    prop_assert!(stats.candidates_kept <= stats.candidates_offered);
    prop_assert_eq!(per_tile.compactions, 0);
    // the same call again: same rows, same counters
    prop_assert_eq!(run(Variant::Var1, sweep, 1), (rows, stats));
    // every p, and every selection placement: the buffered variants
    // select from `Cc` after the 2nd, 3rd, 5th or 6th loop, offering each
    // row its candidates in the same order; and every one of them from
    // prepacked panels returns the gathered call's rows and counters
    prop_assert_eq!(&run(Variant::Var1, Interior::PerTile, 3).0, &want);
    for p in [1, 3] {
        for v in Variant::ALL {
            let gathered = run(v, sweep, p);
            prop_assert_eq!(&gathered.0, &want, "{} at p = {}", v.name(), p);
            let prepacked = run_from(v, sweep, p, true);
            prop_assert_eq!(prepacked, gathered, "prepacked {} at p = {}", v.name(), p);
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn every_path_is_the_per_tile_path_bitwise_f64(case in cases()) {
        paths_agree::<f64>(case)?;
    }

    #[test]
    fn every_path_is_the_per_tile_path_bitwise_f32(case in cases()) {
        paths_agree::<f32>(case)?;
    }
}

#[test]
fn the_reservoir_compacts_where_the_property_says_it_does() {
    // the property compares paths; this pins that its sweep side is the
    // reservoir: k < n on full tiles must compact mid-block and at exit
    let case = Case {
        m: 24,
        n: 120,
        d: 5,
        k: 24,
        kind: DistanceKind::SqL2,
        tiny: false,
        rows: Rows::Fresh,
        distinct: None,
    };
    paths_agree::<f64>(case).unwrap();
    let x = uniform(case.m + case.n, case.d, 1);
    let q_idx: Vec<usize> = (0..case.m).collect();
    let r_idx: Vec<usize> = (case.m..case.m + case.n).collect();
    let params = GemmParams::ivy_bridge();
    let args = DriverArgs::same(&x, &q_idx, &r_idx, case.kind, params, Variant::Var1);
    let mut heaps: Vec<SelHeap> = (0..case.m).map(|_| SelHeap::new(case.k, false)).collect();
    let mut ws = GsknnWorkspace::new();
    run_nest(&args, &mut heaps, &mut ws, 1);
    // 120 candidates fill a 24-entry row at least thrice (24, 48, 96)
    assert!(ws.stats.compactions >= 3 * case.m as u64, "{:?}", ws.stats);
    assert!(ws.stats.candidates_kept >= (case.k * case.m) as u64);
}

#[test]
fn the_model_counts_appends_and_compactions_as_the_kernel_does() {
    // §2.6's Var#1 term rests on `Model::reservoir_row`; the counters it
    // predicts are exact and repeatable, so hold it to them
    let (m, n, d, k) = (64, 4096, 8, 256);
    let x = uniform(m + n, d, 11);
    let q_idx: Vec<usize> = (0..m).collect();
    let r_idx: Vec<usize> = (m..m + n).collect();
    let params = GemmParams::ivy_bridge(); // nc = 4096: one jc block
    let args = DriverArgs::same(
        &x,
        &q_idx,
        &r_idx,
        DistanceKind::SqL2,
        params,
        Variant::Var1,
    );
    let mut heaps: Vec<SelHeap> = (0..m).map(|_| SelHeap::new(k, false)).collect();
    let mut ws = GsknnWorkspace::new();
    run_nest(&args, &mut heaps, &mut ws, 1);
    let (appends, compactions) = crate::Model::reservoir_row(n, k, 1.0);
    let per_row = |count: u64| count as f64 / m as f64;
    let offered = per_row(ws.stats.candidates_offered);
    assert!(
        (offered / appends - 1.0).abs() < 0.1,
        "{offered} appends per row, model {appends}"
    );
    let measured = per_row(ws.stats.compactions);
    assert!(
        (measured - compactions).abs() < 1.0,
        "{measured} compactions per row, model {compactions}"
    );
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
    let k = 4;
    let mut heaps: Vec<SelHeap> = (0..300).map(|_| SelHeap::new(k, false)).collect();
    let mut ws = GsknnWorkspace::new();
    assert!(ws.chunks.is_empty(), "nothing allocated before a sweep");
    run_nest(&args, &mut heaps, &mut ws, 1);
    assert!(!ws.chunks[0].thr.is_empty() && ws.chunks[0].thr.len() <= params.mc);
    assert_ne!(ws.stats, KernelStats::default());
    // the reservoir follows the block (mc rows), not the 300 queries: k
    // appended pairs and a pad line per row, the 2k scratch row, and a
    // length word and a flag per row
    assert!(ws.chunks[0].reservoir.rows() <= params.mc);
    let pair = std::mem::size_of::<knn_select::Neighbor>();
    let bound = params.mc * ((k + 64 / pair) * pair + 5) + 2 * k * pair;
    assert!(
        (1..=bound).contains(&ws.chunks[0].reservoir.footprint()),
        "{} bytes, bound {bound}",
        ws.chunks[0].reservoir.footprint()
    );
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
        with_interior(interior, || run_nest(&args, &mut heaps, &mut ws, 1));
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
                                                                 // ... two more around every compaction
        let budget = 3 * sweeps
            + 4 * tiles / STRIP_SAMPLE as u64
            + 2 * strips
            + packs
            + 2 * stats.compactions;
        assert!(
            reads <= budget,
            "{reads} reads for {tiles} tiles, budget {budget}"
        );
        // ... where a span per tile and phase reads four times per tile
        let (_, _, per_tile) = call(m, d, 16, Interior::PerTile);
        assert_eq!(per_tile, 4 * tiles + packs);
        assert!(reads * 3 < per_tile, "{reads} vs {per_tile}");
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
