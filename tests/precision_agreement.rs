//! Cross-precision agreement: the f32 fused kernel must reproduce the
//! f64 oracle's neighbor lists. The two precisions round differently, so
//! equality is asserted under the workspace tie rule: at every rank,
//! either the indices match, or the f32-chosen neighbor's *exact f64*
//! distance is within `f32::DIST_TOL` (relative) of the oracle's
//! distance at that rank — i.e. only genuine near-ties may reorder.

use gsknn::core::GsknnScalar;
use gsknn::reference::oracle;
use gsknn::{DistanceKind, Gsknn, GsknnConfig, NeighborTable, PointSet, Variant};
use proptest::prelude::*;

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

/// The tie rule: f32 row vs f64 oracle row, judged in exact f64
/// distances recomputed from the original (uncast) data.
fn rows_agree(
    x64: &PointSet,
    qi: usize,
    got: &[gsknn::Neighbor<f32>],
    want: &[gsknn::Neighbor<f64>],
    kind: DistanceKind,
) -> Result<(), String> {
    let tol = <f32 as GsknnScalar>::DIST_TOL as f64;
    for (pos, (g, w)) in got.iter().zip(want).enumerate() {
        if g.idx == w.idx {
            continue;
        }
        // sentinel padding must agree exactly
        if g.idx == u32::MAX || w.idx == u32::MAX {
            return Err(format!(
                "rank {pos}: sentinel mismatch (got idx {}, want idx {})",
                g.idx, w.idx
            ));
        }
        // different neighbor: admissible only as a near-tie in f64
        let gd = kind.eval(x64.point(qi), x64.point(g.idx as usize));
        let wd = w.dist;
        if (gd - wd).abs() > tol * (1.0 + wd.abs()) {
            return Err(format!(
                "rank {pos}: idx {} (f64 dist {gd}) vs oracle idx {} (dist {wd}) — not a tie",
                g.idx, w.idx
            ));
        }
    }
    Ok(())
}

fn check_agreement(p: &Problem, kind: DistanceKind, variant: Variant) -> Result<(), String> {
    let want = oracle::exact(&p.x, &p.q_idx, &p.r_idx, p.k, kind);
    let x32 = p.x.cast::<f32>();
    let mut exec = Gsknn::<f32>::new(GsknnConfig {
        variant,
        ..GsknnConfig::for_scalar::<f32>()
    });
    let got: NeighborTable<f32> = exec.run(&x32, &p.q_idx, &p.r_idx, p.k, kind);
    for (i, &qi) in p.q_idx.iter().enumerate() {
        rows_agree(&p.x, qi, got.row(i), want.row(i), kind)
            .map_err(|e| format!("{} row {i}: {e}", variant.name()))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn f32_fused_matches_f64_oracle_up_to_ties(p in problems()) {
        for variant in Variant::ALL {
            if let Err(e) = check_agreement(&p, DistanceKind::SqL2, variant) {
                prop_assert!(false, "{e}");
            }
        }
    }

    #[test]
    fn f32_fused_matches_f64_oracle_on_other_norms(p in problems()) {
        for kind in [DistanceKind::L1, DistanceKind::LInf, DistanceKind::Cosine] {
            if let Err(e) = check_agreement(&p, kind, Variant::Var1) {
                prop_assert!(false, "{}: {e}", kind.name());
            }
        }
    }

    #[test]
    fn f32_gemm_reference_matches_f64_oracle_up_to_ties(p in problems()) {
        let want = oracle::exact(&p.x, &p.q_idx, &p.r_idx, p.k, DistanceKind::SqL2);
        let x32 = p.x.cast::<f32>();
        let mut exec = gsknn::reference::GemmKnn::<f32>::new(
            gsknn::gemm::GemmParams::tiny_for::<f32>(),
            false,
        );
        let (got, _) = exec.run(&x32, &p.q_idx, &p.r_idx, p.k);
        for (i, &qi) in p.q_idx.iter().enumerate() {
            if let Err(e) = rows_agree(&p.x, qi, got.row(i), want.row(i), DistanceKind::SqL2) {
                prop_assert!(false, "gemm-ref row {i}: {e}");
            }
        }
    }
}

#[test]
fn f32_and_f64_pick_identical_indices_on_separated_data() {
    // Gaussian clusters are well separated: no near-ties, so the index
    // lists must match exactly — the tie rule has nothing to excuse.
    let x = gsknn::data::gaussian_embedded(400, 16, 4, 11);
    let q: Vec<usize> = (0..50).collect();
    let r: Vec<usize> = (0..400).collect();
    let want = Gsknn::<f64>::new(GsknnConfig::default()).run(&x, &q, &r, 8, DistanceKind::SqL2);
    let got = Gsknn::<f32>::new(GsknnConfig::for_scalar::<f32>()).run(
        &x.cast::<f32>(),
        &q,
        &r,
        8,
        DistanceKind::SqL2,
    );
    let mut exact_matches = 0usize;
    for (i, &qi) in q.iter().enumerate() {
        let gi: Vec<u32> = got.row(i).iter().map(|nb| nb.idx).collect();
        let wi: Vec<u32> = want.row(i).iter().map(|nb| nb.idx).collect();
        if gi == wi {
            exact_matches += 1;
        } else {
            // any disagreement must still satisfy the tie rule
            rows_agree(
                &x,
                qi,
                got.row(i),
                &{
                    let o = oracle::exact(&x, &[qi], &r, 8, DistanceKind::SqL2);
                    o.row(0).to_vec()
                },
                DistanceKind::SqL2,
            )
            .unwrap_or_else(|e| panic!("row {i}: {e}"));
        }
    }
    assert!(
        exact_matches >= 48,
        "only {exact_matches}/50 rows matched exactly on separated data"
    );
}
