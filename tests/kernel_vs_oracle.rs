//! Cross-crate property tests: every kernel implementation in the
//! workspace — GSKNN in all five variants (at p = 1 and p = 3, all
//! norms), the GEMM-based reference, and the single-loop baseline — must
//! agree with the brute-force oracle on arbitrary problem shapes.

use gsknn::core::variants::{run_nest, DriverArgs, SelHeap};
use gsknn::core::{GsknnWorkspace, Variant};
use gsknn::reference::{oracle, single_loop_knn, GemmKnn};
use gsknn::{DistanceKind, Gsknn, GsknnConfig, NeighborTable, PointSet};
use proptest::prelude::*;

/// Random problem: N points in d dims, random query/reference id lists
/// (possibly overlapping, unsorted), random k.
#[derive(Debug, Clone)]
struct Problem {
    x: PointSet,
    q_idx: Vec<usize>,
    r_idx: Vec<usize>,
    k: usize,
}

fn problems() -> impl Strategy<Value = Problem> {
    (2usize..60, 1usize..24, 1usize..12, 0u64..1000).prop_flat_map(|(n, d, k, seed)| {
        let q = prop::collection::vec(0usize..n, 1..30);
        let r = prop::collection::vec(0usize..n, 1..n.max(2));
        (Just(n), Just(d), Just(k), Just(seed), q, r).prop_map(|(n, d, k, seed, q_idx, r_idx)| {
            Problem {
                x: gsknn::data::uniform(n, d, seed),
                q_idx,
                r_idx,
                k,
            }
        })
    })
}

fn table_close(got: &NeighborTable, want: &NeighborTable, tol: f64) -> Result<(), String> {
    for i in 0..want.len() {
        for (pos, (a, b)) in got.row(i).iter().zip(want.row(i)).enumerate() {
            let ok = if b.dist.is_finite() {
                (a.dist - b.dist).abs() <= tol * (1.0 + b.dist.abs())
            } else {
                !a.dist.is_finite()
            };
            if !ok {
                return Err(format!(
                    "row {i} pos {pos}: {} (idx {}) vs {} (idx {})",
                    a.dist, a.idx, b.dist, b.idx
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gsknn_all_variants_match_oracle(p in problems()) {
        // The oracle keeps duplicate reference ids as distinct
        // candidates; GSKNN does too when heaps start empty.
        let want = oracle::exact(&p.x, &p.q_idx, &p.r_idx, p.k, DistanceKind::SqL2);
        for variant in Variant::ALL {
            let mut exec = Gsknn::new(GsknnConfig { variant, ..Default::default() });
            let got = exec.run(&p.x, &p.q_idx, &p.r_idx, p.k, DistanceKind::SqL2);
            if let Err(e) = table_close(&got, &want, 1e-9) {
                prop_assert!(false, "{}: {e}", variant.name());
            }
        }
    }

    #[test]
    fn gsknn_all_norms_match_oracle(p in problems()) {
        for kind in [
            DistanceKind::L1,
            DistanceKind::LInf,
            DistanceKind::Lp(1.7),
            DistanceKind::Cosine,
        ] {
            let want = oracle::exact(&p.x, &p.q_idx, &p.r_idx, p.k, kind);
            let mut exec = Gsknn::new(GsknnConfig::default());
            let got = exec.run(&p.x, &p.q_idx, &p.r_idx, p.k, kind);
            if let Err(e) = table_close(&got, &want, 1e-9) {
                prop_assert!(false, "{}: {e}", kind.name());
            }
        }
    }

    #[test]
    fn gemm_reference_matches_oracle(p in problems()) {
        let want = oracle::exact(&p.x, &p.q_idx, &p.r_idx, p.k, DistanceKind::SqL2);
        let mut exec = GemmKnn::new(gsknn::gemm::GemmParams::tiny(), false);
        let (got, _) = exec.run(&p.x, &p.q_idx, &p.r_idx, p.k);
        if let Err(e) = table_close(&got, &want, 1e-9) {
            prop_assert!(false, "gemm-ref: {e}");
        }
    }

    #[test]
    fn single_loop_matches_oracle(p in problems()) {
        let want = oracle::exact(&p.x, &p.q_idx, &p.r_idx, p.k, DistanceKind::SqL2);
        let got = single_loop_knn(&p.x, &p.q_idx, &p.r_idx, p.k, DistanceKind::SqL2, false);
        prop_assert!(table_close(&got, &want, 1e-12).is_ok());
    }

    #[test]
    fn data_parallel_is_bit_identical_to_serial(p in problems()) {
        for variant in [Variant::Var1, Variant::Var6] {
            let args = DriverArgs::same(
                &p.x,
                &p.q_idx,
                &p.r_idx,
                DistanceKind::SqL2,
                gsknn::gemm::GemmParams::tiny(),
                variant,
            );
            let mut serial: Vec<SelHeap> =
                (0..p.q_idx.len()).map(|_| SelHeap::new(p.k, false)).collect();
            run_nest(&args, &mut serial, &mut GsknnWorkspace::new(), 1);
            let mut par: Vec<SelHeap> =
                (0..p.q_idx.len()).map(|_| SelHeap::new(p.k, false)).collect();
            run_nest(&args, &mut par, &mut GsknnWorkspace::new(), 3);
            for (s, pp) in serial.into_iter().zip(par) {
                prop_assert_eq!(s.into_sorted_vec(), pp.into_sorted_vec());
            }
        }
    }

    #[test]
    fn incremental_update_equals_oneshot(p in problems()) {
        // split references in two, update twice: equals a single run on
        // the deduplicated union (the update path dedupes ids; so must
        // the comparison target)
        let mut union: Vec<usize> = p.r_idx.clone();
        union.sort_unstable();
        union.dedup();
        let half = p.r_idx.len() / 2;
        let mut dedup_first: Vec<usize> = p.r_idx[..half].to_vec();
        dedup_first.sort_unstable();
        dedup_first.dedup();
        let mut dedup_second: Vec<usize> = p.r_idx[half..].to_vec();
        dedup_second.sort_unstable();
        dedup_second.dedup();

        let mut exec = Gsknn::new(GsknnConfig::default());
        let mut got = NeighborTable::new(p.q_idx.len(), p.k);
        exec.update(&p.x, &p.q_idx, &dedup_first, DistanceKind::SqL2, &mut got);
        exec.update(&p.x, &p.q_idx, &dedup_second, DistanceKind::SqL2, &mut got);
        let want = oracle::exact(&p.x, &p.q_idx, &union, p.k, DistanceKind::SqL2);
        // ids must match exactly up to distance ties
        for i in 0..want.len() {
            let gi: Vec<u32> = got.row(i).iter().map(|nb| nb.idx).collect();
            let wi: Vec<u32> = want.row(i).iter().map(|nb| nb.idx).collect();
            prop_assert_eq!(&gi, &wi, "row {}", i);
        }
    }
}

#[test]
fn auto_variant_matches_forced_variants_on_threshold_sizes() {
    // around the paper's rule-of-thumb boundary (k = 512), the default
    // variant and a forced one must return identical results
    let x = gsknn::data::uniform(700, 12, 99);
    let q: Vec<usize> = (0..40).collect();
    let r: Vec<usize> = (0..700).collect();
    for k in [511, 512, 513] {
        let mut auto = Gsknn::new(GsknnConfig::default());
        let got = auto.run(&x, &q, &r, k, DistanceKind::SqL2);
        let mut forced = Gsknn::new(GsknnConfig {
            variant: Variant::Var3,
            ..Default::default()
        });
        let want = forced.run(&x, &q, &r, k, DistanceKind::SqL2);
        for i in 0..40 {
            let gi: Vec<u32> = got.row(i).iter().map(|nb| nb.idx).collect();
            let wi: Vec<u32> = want.row(i).iter().map(|nb| nb.idx).collect();
            assert_eq!(gi, wi, "k={k} row {i}");
        }
    }
}
