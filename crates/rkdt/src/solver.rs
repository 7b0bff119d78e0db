//! The iterated all-nearest-neighbor solver: per iteration, build a fresh
//! random tree, solve every leaf exactly with the plugged-in kNN kernel,
//! fold results into the global neighbor table, and report convergence.

use crate::tree::build_leaf_partition;
use dataset::{DistanceKind, PointSet};
use gsknn_core::model::Approach;
use gsknn_core::scheduler::lpt_execute;
use gsknn_core::{FusedScalar, Gsknn, GsknnConfig, GsknnScalar, MachineParams, Model, ProblemSize};
use knn_ref::{GemmKnn, GemmScalar};
use knn_select::NeighborTable;
use rayon::prelude::*;

/// A kNN kernel usable as the leaf solver. `update_leaf` receives the
/// leaf's global point ids and a *local* table whose row `i` is the
/// current neighbor list of `ids[i]`; it must fold the leaf's exact
/// all-pairs candidates into those rows. Generic over the element type
/// (`f64` default) so the f32 fused path plugs into the same tree solver.
pub trait LeafKernel<T: GsknnScalar = f64>: Send {
    /// Fold the exact `q_ids × r_ids` search into `local` (row `i` ↔
    /// `q_ids[i]`). The LSH solver's multi-probe mode uses reference sets
    /// larger than the query set.
    fn update_bucket(
        &mut self,
        x: &PointSet<T>,
        q_ids: &[usize],
        r_ids: &[usize],
        local: &mut NeighborTable<T>,
    );

    /// Fold the exact `ids × ids` search into `local` (the KD-tree leaf
    /// case: queries = references).
    fn update_leaf(&mut self, x: &PointSet<T>, ids: &[usize], local: &mut NeighborTable<T>) {
        self.update_bucket(x, ids, ids, local)
    }

    /// Display name for reports.
    fn name(&self) -> &'static str;
}

/// GSKNN as the leaf kernel (the paper's improvement).
pub struct GsknnLeaf<T: FusedScalar = f64> {
    exec: Gsknn<T>,
    kind: DistanceKind,
}

impl<T: FusedScalar> GsknnLeaf<T> {
    /// Wrap a configured GSKNN executor, on one worker (`cfg.p` is set to
    /// 1): the solvers run one leaf kernel per core — the rayon leaf loop,
    /// LPT's workers, lsh's bucket loop — so a leaf call splits nothing.
    pub fn new(cfg: GsknnConfig, kind: DistanceKind) -> Self {
        GsknnLeaf {
            exec: Gsknn::new(GsknnConfig { p: 1, ..cfg }),
            kind,
        }
    }
}

impl<T: FusedScalar> LeafKernel<T> for GsknnLeaf<T> {
    fn update_bucket(
        &mut self,
        x: &PointSet<T>,
        q_ids: &[usize],
        r_ids: &[usize],
        local: &mut NeighborTable<T>,
    ) {
        self.exec.update(x, q_ids, r_ids, self.kind, local);
    }

    fn name(&self) -> &'static str {
        "GSKNN"
    }
}

/// The GEMM-approach reference as the leaf kernel (the Table 1 "ref").
pub struct GemmLeaf<T: GemmScalar = f64> {
    exec: GemmKnn<T>,
}

impl<T: GemmScalar> GemmLeaf<T> {
    /// Wrap a configured GEMM-approach executor.
    pub fn new(exec: GemmKnn<T>) -> Self {
        GemmLeaf { exec }
    }
}

impl Default for GemmLeaf {
    fn default() -> Self {
        GemmLeaf::new(GemmKnn::new(gsknn_core::GemmParams::ivy_bridge(), false))
    }
}

impl<T: GemmScalar> LeafKernel<T> for GemmLeaf<T> {
    fn update_bucket(
        &mut self,
        x: &PointSet<T>,
        q_ids: &[usize],
        r_ids: &[usize],
        local: &mut NeighborTable<T>,
    ) {
        self.exec.update(x, q_ids, r_ids, local);
    }

    fn name(&self) -> &'static str {
        "GEMM+heap"
    }
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct RkdtConfig {
    /// Points per leaf (the paper's `m`; Table 1 uses 8192).
    pub leaf_size: usize,
    /// Number of random trees / iterations.
    pub iterations: usize,
    /// Base RNG seed (iteration `t` uses `seed + t`).
    pub seed: u64,
    /// Solve leaves in parallel with rayon (disjoint rows per tree, so
    /// this is race-free).
    pub parallel_leaves: bool,
    /// With `Some(p)`, use the paper's §2.5 task-parallel scheme instead
    /// of the rayon leaf loop: estimate every leaf's kernel runtime with
    /// the §2.6 model, LPT-schedule the leaves onto `p` workers (biggest
    /// first, least-loaded worker wins), and let each worker reuse one
    /// kernel context — and its packing workspace — across its whole
    /// bucket. Overrides `parallel_leaves`. The balanced-tree leaves are
    /// near-uniform, so the win over rayon's dynamic stealing is workspace
    /// reuse and deterministic placement rather than balance.
    pub lpt_workers: Option<usize>,
}

impl Default for RkdtConfig {
    fn default() -> Self {
        RkdtConfig {
            leaf_size: 8192,
            iterations: 8,
            seed: 0x5EED,
            parallel_leaves: true,
            lpt_workers: None,
        }
    }
}

/// Per-iteration progress record.
#[derive(Clone, Copy, Debug)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iter: usize,
    /// Fraction of table rows whose k-th distance improved this round.
    pub changed_fraction: f64,
    /// Wall-clock seconds spent in leaf kernels this round.
    pub kernel_seconds: f64,
    /// Recall against the exact table, when one was supplied.
    pub recall: Option<f64>,
}

/// The iterated randomized-KD-tree all-NN solver.
pub struct AllNnSolver {
    cfg: RkdtConfig,
}

impl AllNnSolver {
    /// Solver with the given configuration.
    pub fn new(cfg: RkdtConfig) -> Self {
        AllNnSolver { cfg }
    }

    /// Run all iterations with `make_kernel` producing one kernel per
    /// worker. Returns the final table and per-iteration stats; pass
    /// `exact` to track recall (used by the Table 1 harness and tests).
    pub fn solve<T, K, F>(
        &self,
        x: &PointSet<T>,
        k: usize,
        make_kernel: F,
        exact: Option<&NeighborTable<T>>,
    ) -> (NeighborTable<T>, Vec<IterationStats>)
    where
        T: GsknnScalar,
        K: LeafKernel<T>,
        F: Fn() -> K + Sync,
    {
        let table = NeighborTable::new(x.len(), k);
        self.solve_from(x, table, make_kernel, exact)
    }

    /// As [`AllNnSolver::solve`], but starting from an existing neighbor
    /// table (e.g. produced by the LSH solver) — the solvers share the
    /// update contract, so they compose.
    pub fn solve_from<T, K, F>(
        &self,
        x: &PointSet<T>,
        mut table: NeighborTable<T>,
        make_kernel: F,
        exact: Option<&NeighborTable<T>>,
    ) -> (NeighborTable<T>, Vec<IterationStats>)
    where
        T: GsknnScalar,
        K: LeafKernel<T>,
        F: Fn() -> K + Sync,
    {
        let n = x.len();
        assert_eq!(table.len(), n, "table must have one row per point");
        let k = table.k();
        let mut stats = Vec::with_capacity(self.cfg.iterations);

        for iter in 0..self.cfg.iterations {
            let leaves = build_leaf_partition(x, self.cfg.leaf_size, self.cfg.seed + iter as u64);
            let kth_before: Vec<f64> = (0..n)
                .map(|i| {
                    table
                        .row(i)
                        .last()
                        .map_or(f64::INFINITY, |nb| nb.dist.to_f64())
                })
                .collect();

            let t0 = std::time::Instant::now();
            // Each leaf extracts its local rows, solves, and hands rows
            // back; leaves partition the ids, so writes never collide.
            let solve_leaf = |ids: &Vec<usize>| -> (Vec<usize>, NeighborTable<T>) {
                let mut local = NeighborTable::new(ids.len(), k);
                for (row, &id) in ids.iter().enumerate() {
                    local.set_row(row, table.row(id));
                }
                let mut kernel = make_kernel();
                kernel.update_leaf(x, ids, &mut local);
                (ids.clone(), local)
            };
            let results: Vec<(Vec<usize>, NeighborTable<T>)> = if let Some(p) = self.cfg.lpt_workers
            {
                // §2.5 task parallelism: model-estimated leaf costs (of
                // Var#1, the variant that runs) → LPT buckets → one
                // long-lived kernel per worker.
                let model = Model::new(MachineParams::ivy_bridge_1core().for_scalar::<T>());
                let costs: Vec<f64> = leaves
                    .iter()
                    .map(|ids| {
                        let size = ProblemSize {
                            m: ids.len(),
                            n: ids.len(),
                            d: x.dim(),
                            k,
                        };
                        model.predict(&size, Approach::Var1)
                    })
                    .collect();
                lpt_execute(&costs, p, &make_kernel, |kernel, t| {
                    let ids = &leaves[t];
                    let mut local = NeighborTable::new(ids.len(), k);
                    for (row, &id) in ids.iter().enumerate() {
                        local.set_row(row, table.row(id));
                    }
                    kernel.update_leaf(x, ids, &mut local);
                    (ids.clone(), local)
                })
            } else if self.cfg.parallel_leaves {
                leaves.par_iter().map(solve_leaf).collect()
            } else {
                leaves.iter().map(solve_leaf).collect()
            };
            for (ids, local) in results {
                for (row, id) in ids.into_iter().enumerate() {
                    table.set_row(id, local.row(row));
                }
            }
            let kernel_seconds = t0.elapsed().as_secs_f64();

            let changed = (0..n)
                .filter(|&i| {
                    let after = table
                        .row(i)
                        .last()
                        .map_or(f64::INFINITY, |nb| nb.dist.to_f64());
                    after < kth_before[i]
                })
                .count();
            stats.push(IterationStats {
                iter,
                changed_fraction: changed as f64 / n.max(1) as f64,
                kernel_seconds,
                recall: exact.map(|e| table.recall_against(e)),
            });
        }
        (table, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{gaussian_embedded, uniform};
    use knn_ref::oracle;

    #[test]
    fn single_leaf_is_exact() {
        // leaf_size >= N: one leaf = brute force in one iteration
        let x = uniform(80, 6, 3);
        let ids: Vec<usize> = (0..80).collect();
        let cfg = RkdtConfig {
            leaf_size: 80,
            iterations: 1,
            seed: 1,
            parallel_leaves: false,
            lpt_workers: None,
        };
        let (table, stats) = AllNnSolver::new(cfg).solve(
            &x,
            4,
            || GsknnLeaf::new(GsknnConfig::default(), DistanceKind::SqL2),
            None,
        );
        let want = oracle::exact(&x, &ids, &ids, 4, DistanceKind::SqL2);
        oracle::assert_matches(&table, &want, 1e-9, "single leaf");
        assert_eq!(stats.len(), 1);
        assert!(stats[0].changed_fraction > 0.99);
    }

    #[test]
    fn recall_is_monotone_over_iterations() {
        let x = gaussian_embedded(400, 16, 4, 7);
        let ids: Vec<usize> = (0..400).collect();
        let exact = oracle::exact(&x, &ids, &ids, 8, DistanceKind::SqL2);
        let cfg = RkdtConfig {
            leaf_size: 64,
            iterations: 6,
            seed: 3,
            parallel_leaves: false,
            lpt_workers: None,
        };
        let (_, stats) = AllNnSolver::new(cfg).solve(
            &x,
            8,
            || GsknnLeaf::new(GsknnConfig::default(), DistanceKind::SqL2),
            Some(&exact),
        );
        let recalls: Vec<f64> = stats.iter().map(|s| s.recall.unwrap()).collect();
        for w in recalls.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "recall regressed: {recalls:?}");
        }
        assert!(
            *recalls.last().unwrap() > recalls[0],
            "no improvement: {recalls:?}"
        );
        assert!(*recalls.last().unwrap() > 0.5, "poor recall: {recalls:?}");
    }

    #[test]
    fn gemm_and_gsknn_kernels_agree() {
        let x = uniform(300, 10, 17);
        let cfg = RkdtConfig {
            leaf_size: 50,
            iterations: 3,
            seed: 11,
            parallel_leaves: false,
            lpt_workers: None,
        };
        let solver = AllNnSolver::new(cfg);
        let (a, _) = solver.solve(
            &x,
            5,
            || GsknnLeaf::new(GsknnConfig::default(), DistanceKind::SqL2),
            None,
        );
        let (b, _) = solver.solve(&x, 5, GemmLeaf::default, None);
        for i in 0..300 {
            let ia: Vec<u32> = a.row(i).iter().map(|nb| nb.idx).collect();
            let ib: Vec<u32> = b.row(i).iter().map(|nb| nb.idx).collect();
            assert_eq!(ia, ib, "row {i}");
        }
    }

    #[test]
    fn parallel_leaves_match_serial() {
        let x = uniform(250, 7, 23);
        let mk = || GsknnLeaf::new(GsknnConfig::default(), DistanceKind::SqL2);
        let base = RkdtConfig {
            leaf_size: 40,
            iterations: 2,
            seed: 5,
            parallel_leaves: false,
            lpt_workers: None,
        };
        let (a, _) = AllNnSolver::new(base.clone()).solve(&x, 3, mk, None);
        let par = RkdtConfig {
            parallel_leaves: true,
            lpt_workers: None,
            ..base
        };
        let (b, _) = AllNnSolver::new(par).solve(&x, 3, mk, None);
        for i in 0..250 {
            assert_eq!(a.row(i), b.row(i), "row {i}");
        }
    }

    #[test]
    fn lpt_scheduled_leaves_match_serial() {
        let x = uniform(250, 7, 23);
        let mk = || GsknnLeaf::new(GsknnConfig::default(), DistanceKind::SqL2);
        let base = RkdtConfig {
            leaf_size: 40,
            iterations: 2,
            seed: 5,
            parallel_leaves: false,
            lpt_workers: None,
        };
        let (a, _) = AllNnSolver::new(base.clone()).solve(&x, 3, mk, None);
        for p in [1usize, 3] {
            let lpt = RkdtConfig {
                lpt_workers: Some(p),
                ..base.clone()
            };
            let (b, _) = AllNnSolver::new(lpt).solve(&x, 3, mk, None);
            for i in 0..250 {
                assert_eq!(a.row(i), b.row(i), "p={p} row {i}");
            }
        }
    }

    #[test]
    fn f32_solver_single_leaf_matches_f32_oracle() {
        // leaf_size >= N makes one iteration exact, so the f32 tree
        // solver must reproduce the f32 brute-force oracle.
        let x = uniform(70, 6, 31).cast::<f32>();
        let ids: Vec<usize> = (0..70).collect();
        let cfg = RkdtConfig {
            leaf_size: 70,
            iterations: 1,
            seed: 2,
            parallel_leaves: false,
            lpt_workers: None,
        };
        let (table, _) = AllNnSolver::new(cfg).solve(
            &x,
            4,
            || GsknnLeaf::<f32>::new(GsknnConfig::for_scalar::<f32>(), DistanceKind::SqL2),
            None,
        );
        let want = oracle::exact(&x, &ids, &ids, 4, DistanceKind::SqL2);
        oracle::assert_matches(&table, &want, 1e-4, "f32 single leaf");
    }

    #[test]
    fn f32_lpt_and_parallel_paths_match_serial() {
        let x = uniform(220, 7, 13).cast::<f32>();
        let mk = || GsknnLeaf::<f32>::new(GsknnConfig::for_scalar::<f32>(), DistanceKind::SqL2);
        let base = RkdtConfig {
            leaf_size: 40,
            iterations: 2,
            seed: 8,
            parallel_leaves: false,
            lpt_workers: None,
        };
        let (a, _) = AllNnSolver::new(base.clone()).solve(&x, 3, mk, None);
        for cfg in [
            RkdtConfig {
                parallel_leaves: true,
                ..base.clone()
            },
            RkdtConfig {
                lpt_workers: Some(2),
                ..base.clone()
            },
        ] {
            let (b, _) = AllNnSolver::new(cfg).solve(&x, 3, mk, None);
            for i in 0..220 {
                assert_eq!(a.row(i), b.row(i), "row {i}");
            }
        }
    }

    #[test]
    fn changed_fraction_decays() {
        let x = gaussian_embedded(300, 12, 3, 29);
        let cfg = RkdtConfig {
            leaf_size: 64,
            iterations: 5,
            seed: 9,
            parallel_leaves: false,
            lpt_workers: None,
        };
        let (_, stats) = AllNnSolver::new(cfg).solve(
            &x,
            4,
            || GsknnLeaf::new(GsknnConfig::default(), DistanceKind::SqL2),
            None,
        );
        // first iteration touches everything; later ones much less
        assert!(stats[0].changed_fraction > 0.9);
        assert!(stats.last().unwrap().changed_fraction < stats[0].changed_fraction);
    }
}
