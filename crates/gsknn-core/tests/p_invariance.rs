//! The worker count never changes an answer: a call through the public
//! API on the default configuration (`p` = the host's parallelism) and at
//! `p = 3` returns the rows — bit for bit — and the counters of the same
//! call at `p = 1`, for gathered and prepacked references, both
//! precisions and small, medium and large `k`. The batch height `m`
//! straddles `MR·p` (one chunk per worker) and, with `n` around
//! `SPLIT_FLOOR / (MR·p·d)`, the floor below which nothing splits.

use dataset::{uniform, DistanceKind, PointSet};
use gsknn_core::{
    BatchScratch, FusedScalar, Gsknn, GsknnConfig, KernelStats, NeighborTable, PackedRefs,
    SPLIT_FLOOR,
};
use proptest::prelude::*;

const D: usize = 64;

#[derive(Clone, Copy, Debug)]
struct Case {
    m: usize,
    n: usize,
    k: usize,
    prepacked: bool,
}

/// `m` around `MR·p` for the host's `p`, and `n` putting `m = MR·p` on
/// the floor, a few references either side of it (not a multiple of NR).
fn cases() -> impl Strategy<Value = Case> {
    let edge = gsknn_core::microkernel::MR * GsknnConfig::default().p.max(1);
    let n0 = SPLIT_FLOOR / (edge * D);
    (
        prop::sample::select(vec![1, edge - 1, edge, edge + 1, 3 * edge + 5]),
        prop::sample::select(vec![n0 - 3, n0, n0 + 5]),
        prop::sample::select(vec![1usize, 16, 512]),
        prop::sample::select(vec![false, true]),
    )
        .prop_map(|(m, n, k, prepacked)| Case { m, n, k, prepacked })
}

/// Rows as `(distance bits, id)`, and the call's counters.
fn call<T: FusedScalar>(
    c: Case,
    p: Option<usize>,
    x: &PointSet<T>,
    packed: &PackedRefs<T>,
) -> (Vec<Vec<(u64, u32)>>, KernelStats) {
    let cfg = GsknnConfig::for_scalar::<T>();
    let cfg = GsknnConfig {
        p: p.unwrap_or(cfg.p),
        ..cfg
    };
    let mut exec = Gsknn::<T>::new(cfg);
    let q_idx: Vec<usize> = (0..c.m).map(|i| (i * 7 + 3) % (c.m + c.n)).collect();
    let r_idx: Vec<usize> = (c.m..c.m + c.n).rev().collect();
    let mut table = NeighborTable::<T>::new(c.m, c.k);
    let mut scratch = BatchScratch::new();
    let kind = DistanceKind::SqL2;
    if c.prepacked {
        exec.update_prepacked(x, &q_idx, packed, kind, &mut table, &mut scratch);
    } else {
        exec.update_cross_reusing(x, &q_idx, x, &r_idx, kind, &mut table, &mut scratch);
    }
    let rows = (0..c.m)
        .map(|i| {
            let row = table.row(i).iter();
            row.map(|nb| (nb.dist.to_f64().to_bits(), nb.idx)).collect()
        })
        .collect();
    (rows, exec.last_stats())
}

fn p_agrees<T: FusedScalar>(c: Case) -> Result<(), String> {
    let x64 = uniform(c.m + c.n, D, (c.m * 31 + c.n) as u64);
    let x: PointSet<T> = x64.cast();
    let r_idx: Vec<usize> = (c.m..c.m + c.n).rev().collect();
    let packed = PackedRefs::<T>::pack(&x64, r_idx, GsknnConfig::for_scalar::<T>().params);
    let want = call(c, Some(1), &x, &packed);
    prop_assert_eq!(&call(c, None, &x, &packed), &want, "default p");
    prop_assert_eq!(&call(c, Some(3), &x, &packed), &want, "p = 3");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn p_never_changes_an_answer_f64(case in cases()) {
        p_agrees::<f64>(case)?;
    }

    #[test]
    fn p_never_changes_an_answer_f32(case in cases()) {
        p_agrees::<f32>(case)?;
    }
}
