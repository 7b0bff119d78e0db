//! Criterion: the end-to-end kNN kernel — GSKNN variants vs the GEMM
//! reference vs the single-loop baseline, plus the fused-vs-unfused
//! ablation at low d where the fusion matters most.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dataset::{uniform, DistanceKind};
use gsknn_core::{GemmParams, Gsknn, GsknnConfig, Variant};
use knn_ref::{single_loop_knn, GemmKnn};

fn kernel_low_d(c: &mut Criterion) {
    // d = 16, k = 16: GSKNN's sweet spot (memory-bound for GEMM)
    let (m, n, d, k) = (512usize, 512usize, 16usize, 16usize);
    let x = uniform(m + n, d, 3);
    let q: Vec<usize> = (0..m).collect();
    let r: Vec<usize> = (m..m + n).collect();

    let mut group = c.benchmark_group("kernel/low-d");
    group.throughput(Throughput::Elements((m * n) as u64));
    for variant in [Variant::Var1, Variant::Var3, Variant::Var6] {
        group.bench_function(BenchmarkId::new("gsknn", variant.name()), |b| {
            let mut exec = Gsknn::new(GsknnConfig {
                variant,
                ..Default::default()
            });
            b.iter(|| {
                std::hint::black_box(exec.run(&x, &q, &r, k, DistanceKind::SqL2).len());
            });
        });
    }
    group.bench_function("gemm-ref", |b| {
        let mut exec = GemmKnn::new(GemmParams::ivy_bridge(), false);
        b.iter(|| {
            let (t, _) = exec.run(&x, &q, &r, k);
            std::hint::black_box(t.len());
        });
    });
    group.bench_function("single-loop", |b| {
        b.iter(|| {
            std::hint::black_box(single_loop_knn(&x, &q, &r, k, DistanceKind::SqL2, false).len());
        });
    });
    group.finish();
}

fn kernel_high_d(c: &mut Criterion) {
    // d = 512: GEMM amortizes; the gap should close (Figure 4's right edge)
    let (m, n, d, k) = (256usize, 256usize, 512usize, 16usize);
    let x = uniform(m + n, d, 9);
    let q: Vec<usize> = (0..m).collect();
    let r: Vec<usize> = (m..m + n).collect();

    let mut group = c.benchmark_group("kernel/high-d");
    group.throughput(Throughput::Elements((m * n) as u64));
    group.bench_function("gsknn-var1", |b| {
        let mut exec = Gsknn::new(GsknnConfig {
            variant: Variant::Var1,
            ..Default::default()
        });
        b.iter(|| {
            std::hint::black_box(exec.run(&x, &q, &r, k, DistanceKind::SqL2).len());
        });
    });
    group.bench_function("gemm-ref", |b| {
        let mut exec = GemmKnn::new(GemmParams::ivy_bridge(), false);
        b.iter(|| {
            let (t, _) = exec.run(&x, &q, &r, k);
            std::hint::black_box(t.len());
        });
    });
    group.finish();
}

fn bench_norms_end_to_end(c: &mut Criterion) {
    let (m, n, d, k) = (256usize, 256usize, 64usize, 8usize);
    let x = uniform(m + n, d, 13);
    let q: Vec<usize> = (0..m).collect();
    let r: Vec<usize> = (m..m + n).collect();
    let mut group = c.benchmark_group("kernel/norms");
    group.throughput(Throughput::Elements((m * n) as u64));
    for kind in [DistanceKind::SqL2, DistanceKind::L1, DistanceKind::LInf] {
        group.bench_function(kind.name(), |b| {
            let mut exec = Gsknn::new(GsknnConfig::default());
            b.iter(|| {
                std::hint::black_box(exec.run(&x, &q, &r, k, kind).len());
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = kernel_low_d, kernel_high_d, bench_norms_end_to_end
}
criterion_main!(benches);
