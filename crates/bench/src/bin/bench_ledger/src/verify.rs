//! The correctness gate. Every reply is compared bit for bit with the
//! answer computed locally, without server, socket or router, from the
//! same index parameters; a sample of those answers is compared with the
//! brute-force oracle for `recall` (which must be 1 on an exact
//! workload). A reply that differs is a failed operation.

use crate::spec::{Kind, Workload, ORACLE_SAMPLE};
use crate::tier::{partition_rows, slice_points, PARTITIONS};
use dataset::{DistanceKind, PointSet};
use gsknn_core::{BatchScratch, Gsknn, GsknnConfig};
use knn_ref::oracle;
use knn_select::{merge_partial_tables, Neighbor, NeighborTable};
use rkdt::Forest;

/// What a server holding `refs` under `w`'s index shape answers for
/// `queries`: `Forest::query_with`, or the flat kernel call the shard
/// makes when the index is one leaf. Ids are shifted by `id_offset`.
pub fn local_answer(
    w: &Workload,
    refs: &PointSet<f64>,
    queries: &PointSet<f64>,
    forest_seed: u64,
    id_offset: u32,
) -> NeighborTable<f64> {
    let mut exec = Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>());
    let table = if w.trees == 1 && w.leaf >= refs.len() {
        let q_idx: Vec<usize> = (0..queries.len()).collect();
        let r_idx: Vec<usize> = (0..refs.len()).collect();
        let mut table = NeighborTable::new(queries.len(), w.k);
        exec.update_cross_reusing(
            queries,
            &q_idx,
            refs,
            &r_idx,
            DistanceKind::SqL2,
            &mut table,
            &mut BatchScratch::new(),
        );
        table
    } else {
        Forest::build(refs, w.trees, w.leaf, forest_seed).query_with(
            &mut exec,
            refs,
            queries,
            w.k,
            DistanceKind::SqL2,
        )
    };
    if id_offset == 0 {
        return table;
    }
    let mut shifted = NeighborTable::new(table.len(), w.k);
    for i in 0..table.len() {
        let row: Vec<Neighbor> = table
            .row(i)
            .iter()
            .filter(|nb| nb.idx != u32::MAX)
            .map(|nb| Neighbor::new(nb.dist, nb.idx + id_offset))
            .collect();
        shifted.set_row(i, &row);
    }
    shifted
}

/// The reply every pool query must get: the single-node answer, or for
/// the routed tier the merge of the partitions' single-node answers.
pub fn expected_replies(
    w: &Workload,
    refs: &PointSet<f64>,
    queries: &PointSet<f64>,
    forest_seed: u64,
) -> NeighborTable<f64> {
    if w.kind != Kind::Route {
        return local_answer(w, refs, queries, forest_seed, 0);
    }
    let parts: Vec<NeighborTable<f64>> = (0..PARTITIONS)
        .map(|p| {
            let rows = partition_rows(refs.len(), p);
            let offset = rows.start as u32;
            local_answer(w, &slice_points(refs, rows), queries, forest_seed, offset)
        })
        .collect();
    merge_partial_tables(&parts.iter().collect::<Vec<_>>(), w.k)
        .expect("partitions answer the same rows")
}

/// `true` when `body` decodes to exactly rows `row0..` of `expected`.
pub fn reply_matches(body: &[u8], expected: &NeighborTable<f64>, row0: usize, m: usize) -> bool {
    let Ok(got) = NeighborTable::<f64>::from_bytes(body) else {
        return false;
    };
    got.len() == m
        && (0..m).all(|i| {
            let (g, e) = (got.row(i), expected.row(row0 + i));
            g.len() == e.len()
                && g.iter()
                    .zip(e)
                    .all(|(a, b)| a.idx == b.idx && a.dist.to_bits() == b.dist.to_bits())
        })
}

/// Brute-force neighbors (ids into `refs`) of the first `rows` queries.
pub fn oracle_rows(
    refs: &PointSet<f64>,
    queries: &PointSet<f64>,
    rows: usize,
    k: usize,
) -> NeighborTable<f64> {
    // oracle::exact searches one table, so put the queries behind the
    // references and leave reference ids as they are
    let d = refs.dim();
    let mut merged = refs.as_slice().to_vec();
    merged.extend_from_slice(&queries.as_slice()[..rows * d]);
    let x = PointSet::from_vec(d, refs.len() + rows, merged);
    let q: Vec<usize> = (refs.len()..refs.len() + rows).collect();
    let r: Vec<usize> = (0..refs.len()).collect();
    oracle::exact(&x, &q, &r, k, DistanceKind::SqL2)
}

/// Id-exact recall of `got` rows against `want` rows, and whether every
/// row agrees with the oracle up to near-ties (the fused kernel's
/// expansion rounds differently from the direct form).
pub fn recall_and_exact(got: impl Iterator<Item = (Vec<Neighbor>, Vec<Neighbor>)>) -> (f64, bool) {
    let (mut hit, mut total, mut exact) = (0usize, 0usize, true);
    for (g, w) in got {
        total += w.len();
        hit += g
            .iter()
            .filter(|a| w.iter().any(|b| b.idx == a.idx))
            .count();
        exact &= g.len() == w.len()
            && g.iter().zip(&w).all(|(a, b)| {
                a.idx == b.idx || (a.dist - b.dist).abs() <= 1e-9 * (1.0 + b.dist.abs())
            });
    }
    if total == 0 {
        (0.0, false)
    } else {
        (hit as f64 / total as f64, exact)
    }
}

/// `recall` of the expected replies' first [`ORACLE_SAMPLE`] rows.
pub fn sample_recall(
    w: &Workload,
    refs: &PointSet<f64>,
    queries: &PointSet<f64>,
    expected: &NeighborTable<f64>,
) -> (f64, bool) {
    let rows = ORACLE_SAMPLE.min(queries.len());
    let truth = oracle_rows(refs, queries, rows, w.k);
    recall_and_exact((0..rows).map(|i| (expected.row(i).to_vec(), truth.row(i).to_vec())))
}
