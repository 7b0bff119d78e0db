//! Moderate-scale stress tests at the paper's blocking parameters —
//! shapes big enough to cross every block boundary (multiple jc blocks,
//! multiple d blocks, fringe tiles in every dimension) in one run.

use gsknn::reference::{oracle, GemmKnn};
use gsknn::{DistanceKind, Gsknn, GsknnConfig, Variant};

/// m, n, d chosen to hit: nc fringe (n > 4096), dc multipass (d > 256),
/// mc fringe (m % 104 != 0), MR/NR fringes (odd sizes).
#[test]
fn paper_blocking_stress() {
    let n_total = 4500;
    let d = 300;
    let x = gsknn::data::uniform(n_total, d, 2026);
    let q_idx: Vec<usize> = (0..333).collect();
    let r_idx: Vec<usize> = (0..n_total).collect();
    let k = 10;

    let want = oracle::exact(&x, &q_idx, &r_idx, k, DistanceKind::SqL2);
    for variant in [Variant::Var1, Variant::Var5, Variant::Var6] {
        let mut exec = Gsknn::new(GsknnConfig {
            variant,
            ..Default::default()
        });
        let got = exec.run(&x, &q_idx, &r_idx, k, DistanceKind::SqL2);
        oracle::assert_matches(&got, &want, 1e-9, variant.name());
    }

    let mut gemm = GemmKnn::new(gsknn::gemm::GemmParams::ivy_bridge(), true);
    let (got_ref, times) = gemm.run(&x, &q_idx, &r_idx, k);
    oracle::assert_matches(&got_ref, &want, 1e-9, "gemm-ref");
    assert!(times.t_gemm > std::time::Duration::ZERO);
}

/// Native (cache-derived) parameters must agree with the paper's on the
/// same problem.
#[test]
fn native_params_match_paper_params() {
    let x = gsknn::data::uniform(1200, 48, 7);
    let q: Vec<usize> = (0..250).collect();
    let r: Vec<usize> = (0..1200).collect();
    let a = Gsknn::new(GsknnConfig::default()).run(&x, &q, &r, 6, DistanceKind::SqL2);
    let b = Gsknn::new(GsknnConfig::native()).run(&x, &q, &r, 6, DistanceKind::SqL2);
    for i in 0..250 {
        let ia: Vec<u32> = a.row(i).iter().map(|nb| nb.idx).collect();
        let ib: Vec<u32> = b.row(i).iter().map(|nb| nb.idx).collect();
        assert_eq!(ia, ib, "row {i}");
    }
}

/// The data-parallel scheme at paper parameters, oversubscribed.
#[test]
fn data_parallel_stress() {
    use gsknn::core::variants::{run_nest, DriverArgs, SelHeap};
    use gsknn::core::GsknnWorkspace;

    let x = gsknn::data::uniform(3000, 70, 31);
    let q_idx: Vec<usize> = (0..777).collect();
    let r_idx: Vec<usize> = (0..3000).collect();
    let args = DriverArgs::same(
        &x,
        &q_idx,
        &r_idx,
        DistanceKind::SqL2,
        gsknn::gemm::GemmParams::ivy_bridge(),
        Variant::Var1,
    );
    let mut serial: Vec<SelHeap> = (0..777).map(|_| SelHeap::new(12, false)).collect();
    run_nest(&args, &mut serial, &mut GsknnWorkspace::new(), 1);
    let mut par: Vec<SelHeap> = (0..777).map(|_| SelHeap::new(12, false)).collect();
    run_nest(&args, &mut par, &mut GsknnWorkspace::new(), 8);
    for (s, p) in serial.into_iter().zip(par) {
        assert_eq!(s.into_sorted_vec(), p.into_sorted_vec());
    }
}
