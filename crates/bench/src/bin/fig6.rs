//! Figure 6 — the 12-panel efficiency overview: GFLOPS vs dimension on a
//! log grid, for m = n ∈ {2048, 4096, 8192} × k ∈ {16, 128, 512, 2048},
//! GSKNN (the default kernel, Var#1 at every k; the paper's §3 rule ran
//! Var#6 at k = 2048) against the GEMM+heap reference.
//!
//! Paper: p = 10, theoretical peak 248 GFLOPS. Here single-core; shapes
//! (growth with d, degradation with k, GSKNN's low-d advantage) are the
//! reproduction target, not absolute numbers. Scaled default runs the
//! m = n = 2048 row only (`--full` for all three).

use bench::{best_of, gflops, print_table, HarnessArgs};
use dataset::{uniform, DistanceKind};
use gsknn_core::{GemmParams, Gsknn, GsknnConfig};
use knn_ref::GemmKnn;

fn main() {
    let args = HarnessArgs::parse();
    let sizes: Vec<usize> = if args.full {
        vec![2048, 4096, 8192]
    } else {
        vec![2048]
    };
    let ks: &[usize] = &[16, 128, 512, 2048];
    // the paper's log-ish grid from 4 to 1028
    let dims: Vec<usize> = if args.full {
        vec![4, 8, 16, 28, 52, 100, 196, 388, 516, 772, 1028]
    } else {
        vec![4, 8, 16, 28, 52, 100, 196, 388]
    };

    println!("Figure 6 reproduction: GFLOPS vs d (log grid), p = 1");

    for &mn in &sizes {
        for &k in ks {
            if k > mn {
                continue;
            }
            let mut rows = Vec::new();
            for &d in &dims {
                let x = uniform(2 * mn, d, 31);
                let q: Vec<usize> = (0..mn).collect();
                let r: Vec<usize> = (mn..2 * mn).collect();

                let mut exec = Gsknn::new(GsknnConfig::default());
                let t_gsknn = best_of(args.reps, || {
                    let t = exec.run(&x, &q, &r, k, DistanceKind::SqL2);
                    std::hint::black_box(t.len());
                });
                let mut exec_ref = GemmKnn::new(GemmParams::ivy_bridge(), false);
                let t_ref = best_of(args.reps, || {
                    let (t, _) = exec_ref.run(&x, &q, &r, k);
                    std::hint::black_box(t.len());
                });

                rows.push(vec![
                    d.to_string(),
                    format!("{:.2}", gflops(mn, mn, d, t_gsknn)),
                    format!("{:.2}", gflops(mn, mn, d, t_ref)),
                    format!("{:.2}x", t_ref.as_secs_f64() / t_gsknn.as_secs_f64()),
                ]);
                bench::json_row(
                    &args,
                    &serde_json::json!({
                        "experiment": "fig6", "m": mn, "n": mn, "d": d, "k": k,
                        "gsknn_gflops": gflops(mn, mn, d, t_gsknn),
                        "ref_gflops": gflops(mn, mn, d, t_ref),
                    }),
                );
            }
            print_table(
                &format!("m = n = {mn}, k = {k} (Var#1)"),
                &["d", "GSKNN", "ref", "speedup"],
                &rows,
            );
        }
    }
}
