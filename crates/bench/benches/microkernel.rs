//! Criterion: the fused micro-kernel (Figure 3's realization) — rank-dc
//! update + distance epilogue per norm, against the plain GEMM
//! micro-kernel, plus the Partial (Cc-spill) pass mode — and the
//! macro-kernel one level up: a whole Var#1 call whose tiles are all
//! interior, so tile time × tiles against it is the cost of everything
//! around the tile (filter, selection, packing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dataset::{uniform, DistanceKind};
use gemm_kernel::AlignedBuf;
use gsknn_core::microkernel::{tile_pass, PassMode, MR, NR};
use gsknn_core::packing::{pack_q_panel, pack_r_panel};
use gsknn_core::{Gsknn, GsknnConfig};

fn panels(d: usize) -> (AlignedBuf, AlignedBuf, Vec<f64>, Vec<f64>) {
    let x = uniform(MR + NR, d, 5);
    let q: Vec<usize> = (0..MR).collect();
    let r: Vec<usize> = (MR..MR + NR).collect();
    let mut ap = AlignedBuf::zeroed(MR * d);
    let mut bp = AlignedBuf::zeroed(NR * d);
    pack_q_panel(&x, &q, 0, MR, 0, d, ap.as_mut_slice());
    pack_r_panel(&x, &r, 0, NR, 0, d, bp.as_mut_slice());
    let q2: Vec<f64> = q.iter().map(|&i| x.sqnorm(i)).collect();
    let r2: Vec<f64> = r.iter().map(|&j| x.sqnorm(j)).collect();
    (ap, bp, q2, r2)
}

fn bench_norms(c: &mut Criterion) {
    let d = 256;
    let (ap, bp, q2, r2) = panels(d);
    let mut group = c.benchmark_group("microkernel/tile");
    group.throughput(Throughput::Elements((2 * d * MR * NR) as u64));
    for kind in [
        DistanceKind::SqL2,
        DistanceKind::L1,
        DistanceKind::LInf,
        DistanceKind::Lp(3.0),
    ] {
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            let mut out = [0.0; MR * NR];
            b.iter(|| {
                tile_pass(
                    kind,
                    d,
                    ap.as_slice(),
                    bp.as_slice(),
                    &q2,
                    &r2,
                    PassMode::Last {
                        prior: None,
                        out: &mut out,
                    },
                );
                std::hint::black_box(&out);
            });
        });
    }
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let (m, n, k) = (512, 4096, 16);
    let mut group = c.benchmark_group("microkernel/sweep");
    for d in [16, 64] {
        let x = uniform(n, d, 5);
        let q: Vec<usize> = (0..m).collect();
        let r: Vec<usize> = (0..n).collect();
        let mut exec = Gsknn::new(GsknnConfig::default());
        group.throughput(Throughput::Elements((2 * d * m * n) as u64));
        group.bench_function(BenchmarkId::new("sq-l2", d), |b| {
            b.iter(|| std::hint::black_box(exec.run(&x, &q, &r, k, DistanceKind::SqL2)));
        });
    }
    group.finish();
}

fn bench_partial_vs_last(c: &mut Criterion) {
    let d = 256;
    let (ap, bp, q2, r2) = panels(d);
    let mut group = c.benchmark_group("microkernel/pass-mode");
    group.bench_function("last-no-prior", |b| {
        let mut out = [0.0; MR * NR];
        b.iter(|| {
            tile_pass(
                DistanceKind::SqL2,
                d,
                ap.as_slice(),
                bp.as_slice(),
                &q2,
                &r2,
                PassMode::Last {
                    prior: None,
                    out: &mut out,
                },
            );
            std::hint::black_box(&out);
        });
    });
    group.bench_function("partial-then-last", |b| {
        let mut cc = vec![0.0; MR * NR];
        let mut out = [0.0; MR * NR];
        b.iter(|| {
            tile_pass(
                DistanceKind::SqL2,
                d / 2,
                ap.as_slice(),
                bp.as_slice(),
                &q2,
                &r2,
                PassMode::Partial {
                    cc: &mut cc,
                    ldcc: NR,
                    first: true,
                },
            );
            tile_pass(
                DistanceKind::SqL2,
                d / 2,
                &ap.as_slice()[d / 2 * MR..],
                &bp.as_slice()[d / 2 * NR..],
                &q2,
                &r2,
                PassMode::Last {
                    prior: Some((&cc, NR)),
                    out: &mut out,
                },
            );
            std::hint::black_box(&out);
        });
    });
    group.finish();
}

fn bench_gemm_microkernel(c: &mut Criterion) {
    let d = 256;
    let (ap, bp, _, _) = panels(d);
    let kernel = gemm_kernel::microkernel_dispatch();
    c.bench_function("microkernel/gemm-rank-dc", |b| {
        let mut ctile = vec![0.0; MR * NR];
        b.iter(|| {
            // SAFETY: panels sized d*MR / d*NR; ctile is a full tile.
            unsafe {
                kernel(
                    d,
                    -2.0,
                    ap.as_slice().as_ptr(),
                    bp.as_slice().as_ptr(),
                    ctile.as_mut_ptr(),
                    NR,
                )
            };
            std::hint::black_box(&ctile);
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_norms, bench_sweep, bench_partial_vs_last, bench_gemm_microkernel
}
criterion_main!(benches);
