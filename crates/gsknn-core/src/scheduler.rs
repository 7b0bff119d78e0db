//! Task-parallel GSKNN (§2.5): many small independent kernels — the
//! leaves of a randomized KD-tree, the buckets of an LSH table — each too
//! small to data-parallelize profitably, scheduled across `p` workers.
//!
//! The paper's scheme: estimate each kernel's runtime with the §2.6 model
//! (of Var#1, the variant that runs), sort descending, and greedily assign each task to the worker with the
//! least accumulated time — LPT (longest processing time) list
//! scheduling, Graham's classic 4/3-approximation on homogeneous workers.

use crate::buffers::KernelStats;
use crate::kernel::{Gsknn, GsknnConfig};
use crate::microkernel::FusedScalar;
use crate::model::{Approach, MachineParams, Model, ProblemSize};
use crate::obs::PhaseSet;
use dataset::{DistanceKind, PointSet};
use knn_select::NeighborTable;
use std::time::Instant;

/// One independent kNN kernel invocation.
#[derive(Clone, Debug)]
pub struct KnnTask {
    /// Query ids into the shared coordinate table.
    pub q_idx: Vec<usize>,
    /// Reference ids.
    pub r_idx: Vec<usize>,
    /// Neighbors to keep.
    pub k: usize,
}

/// Greedy LPT assignment: returns `p` buckets of task indices. Costs must
/// be non-negative; ties broken by original order (stable).
pub fn lpt_schedule(costs: &[f64], p: usize) -> Vec<Vec<usize>> {
    assert!(p > 0, "need at least one worker");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .expect("NaN task cost")
            .then(a.cmp(&b))
    });
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut loads = vec![0.0f64; p];
    for t in order {
        // worker with the smallest accumulated load (first on ties)
        let w = loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
            .map(|(i, _)| i)
            .expect("p > 0");
        buckets[w].push(t);
        loads[w] += costs[t];
    }
    buckets
}

/// The makespan (max worker load) of a schedule under the given costs.
pub fn makespan(schedule: &[Vec<usize>], costs: &[f64]) -> f64 {
    schedule
        .iter()
        .map(|b| b.iter().map(|&t| costs[t]).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Generic LPT executor: schedule `costs.len()` tasks onto `p` workers
/// (biggest estimated cost first, least-loaded worker wins), give each
/// worker its own state from `init` — a kernel context whose packing
/// workspace is then reused across every task in the bucket — and run
/// `work(&mut state, task_index)` for each assigned task. Results come
/// back in task order.
///
/// This is the reusable core of [`run_task_parallel`]; the randomized
/// KD-tree solver plugs its per-leaf kernel calls into it directly.
pub fn lpt_execute<S, R, I, F>(costs: &[f64], p: usize, init: I, work: F) -> Vec<R>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
    R: Send,
{
    let schedule = lpt_schedule(costs, p.max(1));
    let worker_outputs: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .iter()
            .map(|bucket| {
                scope.spawn(|_| {
                    let mut state = init();
                    bucket
                        .iter()
                        .map(|&t| (t, work(&mut state, t)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scope");
    let mut results: Vec<Option<R>> = (0..costs.len()).map(|_| None).collect();
    for out in worker_outputs {
        for (t, r) in out {
            results[t] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every task scheduled exactly once"))
        .collect()
}

/// One task's predicted vs measured runtime from a traced run.
#[derive(Clone, Debug)]
pub struct TaskTrace {
    /// Task index (position in the input `tasks` slice).
    pub task: usize,
    /// Worker bucket the task was assigned to.
    pub worker: usize,
    /// §2.6 model cost estimate (seconds) the scheduler used.
    pub predicted: f64,
    /// Measured wall time of the kernel call (seconds).
    pub measured: f64,
}

impl TaskTrace {
    /// Relative estimation error `(measured - predicted) / predicted`
    /// (0.0 when the prediction is 0).
    pub fn rel_error(&self) -> f64 {
        if self.predicted == 0.0 {
            0.0
        } else {
            (self.measured - self.predicted) / self.predicted
        }
    }
}

/// Scheduler telemetry from [`run_task_parallel_traced`]: how well the
/// model-guided LPT schedule matched reality.
#[derive(Clone, Debug, Default)]
pub struct SchedulerTelemetry {
    /// Makespan of the LPT schedule under the *predicted* costs.
    pub predicted_makespan: f64,
    /// Realized makespan: max over workers of summed measured task times.
    pub realized_makespan: f64,
    /// Per-worker predicted load (seconds), in worker order.
    pub worker_predicted: Vec<f64>,
    /// Per-worker realized load (seconds), in worker order.
    pub worker_realized: Vec<f64>,
    /// Per-task traces, in task order.
    pub tasks: Vec<TaskTrace>,
    /// Kernel counters merged across all tasks and workers.
    pub stats: KernelStats,
    /// Phase times merged across all tasks and workers (all-zero unless
    /// built with the `obs` feature).
    pub phases: PhaseSet,
}

impl SchedulerTelemetry {
    /// Relative LPT makespan error `(realized - predicted) / predicted`
    /// (0.0 when the prediction is 0). Positive means the schedule ran
    /// longer than the model promised.
    pub fn makespan_error(&self) -> f64 {
        if self.predicted_makespan == 0.0 {
            0.0
        } else {
            (self.realized_makespan - self.predicted_makespan) / self.predicted_makespan
        }
    }

    /// Mean absolute relative task-cost estimation error.
    pub fn mean_abs_cost_error(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.tasks.iter().map(|t| t.rel_error().abs()).sum::<f64>() / self.tasks.len() as f64
        }
    }

    /// Realized load imbalance: max worker load over mean worker load
    /// (1.0 = perfectly balanced; 0.0 when nothing ran).
    pub fn load_imbalance(&self) -> f64 {
        let sum: f64 = self.worker_realized.iter().sum();
        if self.worker_realized.is_empty() || sum == 0.0 {
            0.0
        } else {
            self.realized_makespan / (sum / self.worker_realized.len() as f64)
        }
    }
}

/// Run `tasks` against `x` on `p` workers with model-guided LPT
/// scheduling. Returns one [`NeighborTable`] per task, in task order.
///
/// Each worker owns a private [`Gsknn`] context (workspace reuse within a
/// worker, zero sharing between workers).
pub fn run_task_parallel<T: FusedScalar>(
    x: &PointSet<T>,
    tasks: &[KnnTask],
    kind: DistanceKind,
    cfg: &GsknnConfig,
    machine: MachineParams,
    p: usize,
) -> Vec<NeighborTable<T>> {
    run_task_parallel_traced(x, tasks, kind, cfg, machine, p).0
}

/// [`run_task_parallel`] plus [`SchedulerTelemetry`]: per-task wall time
/// against the model estimate, per-worker realized load, and the LPT
/// predicted-vs-realized makespan. Task timing uses `Instant` at task
/// granularity and is always on (no `obs` feature needed); the merged
/// `phases` breakdown is only non-zero with `obs`.
pub fn run_task_parallel_traced<T: FusedScalar>(
    x: &PointSet<T>,
    tasks: &[KnnTask],
    kind: DistanceKind,
    cfg: &GsknnConfig,
    machine: MachineParams,
    p: usize,
) -> (Vec<NeighborTable<T>>, SchedulerTelemetry) {
    // rescale the machine constants to the element type so f32 costs are
    // estimated with doubled flop rate / halved stream traffic
    let model = Model::new(machine.for_scalar::<T>());
    let costs: Vec<f64> = tasks
        .iter()
        .map(|t| {
            let size = ProblemSize {
                m: t.q_idx.len(),
                n: t.r_idx.len(),
                d: x.dim(),
                k: t.k,
            };
            model.predict(&size, Approach::Var1)
        })
        .collect();
    let schedule = lpt_schedule(&costs, p.max(1));

    let mut results: Vec<Option<NeighborTable<T>>> = vec![None; tasks.len()];
    // Hand each worker its bucket plus a matching slice of result slots.
    // Results are scattered, so collect per worker and write back after.
    type WorkerOut<T> = Vec<(usize, NeighborTable<T>, f64, KernelStats, PhaseSet)>;
    let worker_outputs: Vec<WorkerOut<T>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .iter()
            .map(|bucket| {
                // each task worker is one core: its kernel splits nothing
                let cfg = GsknnConfig {
                    p: 1,
                    ..cfg.clone()
                };
                scope.spawn(move |_| {
                    let mut exec = Gsknn::new(cfg);
                    bucket
                        .iter()
                        .map(|&t| {
                            let task = &tasks[t];
                            let t0 = Instant::now();
                            let table = exec.run(x, &task.q_idx, &task.r_idx, task.k, kind);
                            let secs = t0.elapsed().as_secs_f64();
                            (t, table, secs, exec.last_stats(), exec.last_phases())
                        })
                        .collect::<WorkerOut<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scope");

    let mut tel = SchedulerTelemetry {
        worker_predicted: schedule
            .iter()
            .map(|b| b.iter().map(|&t| costs[t]).sum())
            .collect(),
        worker_realized: vec![0.0; schedule.len()],
        ..Default::default()
    };
    let mut traces: Vec<Option<TaskTrace>> = vec![None; tasks.len()];
    for (w, out) in worker_outputs.into_iter().enumerate() {
        for (t, table, secs, stats, phases) in out {
            results[t] = Some(table);
            tel.worker_realized[w] += secs;
            tel.stats.merge(&stats);
            tel.phases.merge(&phases);
            traces[t] = Some(TaskTrace {
                task: t,
                worker: w,
                predicted: costs[t],
                measured: secs,
            });
        }
    }
    tel.predicted_makespan = makespan(&schedule, &costs);
    tel.realized_makespan = tel.worker_realized.iter().cloned().fold(0.0, f64::max);
    tel.tasks = traces
        .into_iter()
        .map(|t| t.expect("every task traced exactly once"))
        .collect();
    let tables = results
        .into_iter()
        .map(|r| r.expect("every task scheduled exactly once"))
        .collect();
    (tables, tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::uniform;

    #[test]
    fn lpt_distributes_equal_tasks_evenly() {
        let costs = vec![1.0; 8];
        let s = lpt_schedule(&costs, 4);
        assert!(s.iter().all(|b| b.len() == 2));
        assert!((makespan(&s, &costs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_biggest_tasks_go_first_and_spread() {
        let costs = vec![5.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let s = lpt_schedule(&costs, 2);
        // the 5.0 task must sit alone-ish: makespan 5, not 6+
        assert!(makespan(&s, &costs) <= 5.0 + 1e-12);
    }

    #[test]
    fn lpt_within_graham_bound() {
        // Graham: LPT makespan <= (4/3 - 1/(3p)) * OPT; check against the
        // trivial lower bound max(total/p, max_cost).
        let costs: Vec<f64> = (1..=37).map(|i| ((i * 7919) % 100 + 1) as f64).collect();
        for p in [1usize, 2, 3, 5, 8] {
            let s = lpt_schedule(&costs, p);
            let total: f64 = costs.iter().sum();
            let lower = (total / p as f64).max(costs.iter().cloned().fold(0.0, f64::max));
            let bound = (4.0 / 3.0 - 1.0 / (3.0 * p as f64)) * lower;
            assert!(
                makespan(&s, &costs) <= bound + 1e-9,
                "p={p}: {} > {}",
                makespan(&s, &costs),
                bound
            );
        }
    }

    #[test]
    fn every_task_scheduled_exactly_once() {
        let costs = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        let s = lpt_schedule(&costs, 3);
        let mut seen: Vec<usize> = s.concat();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn traced_run_reports_consistent_telemetry() {
        let x = uniform(150, 10, 91);
        let tasks: Vec<KnnTask> = (0..5)
            .map(|t| KnnTask {
                q_idx: (t * 30..(t + 1) * 30).collect(),
                r_idx: (0..150).collect(),
                k: 3,
            })
            .collect();
        let cfg = GsknnConfig::default();
        let (tables, tel) = run_task_parallel_traced(
            &x,
            &tasks,
            DistanceKind::SqL2,
            &cfg,
            MachineParams::ivy_bridge_1core(),
            2,
        );
        assert_eq!(tables.len(), 5);
        assert_eq!(tel.tasks.len(), 5);
        assert_eq!(tel.worker_predicted.len(), 2);
        assert_eq!(tel.worker_realized.len(), 2);
        // every task appears once, in task order, on a valid worker
        for (i, tr) in tel.tasks.iter().enumerate() {
            assert_eq!(tr.task, i);
            assert!(tr.worker < 2);
            assert!(tr.predicted > 0.0);
            assert!(tr.measured >= 0.0);
        }
        // per-worker predicted loads sum to the total predicted cost
        let total_pred: f64 = tel.tasks.iter().map(|t| t.predicted).sum();
        let bucket_pred: f64 = tel.worker_predicted.iter().sum();
        assert!((total_pred - bucket_pred).abs() < 1e-12 * total_pred.max(1.0));
        // makespans are the max bucket loads
        let max_real = tel.worker_realized.iter().cloned().fold(0.0, f64::max);
        assert_eq!(tel.realized_makespan, max_real);
        assert!(tel.predicted_makespan > 0.0);
        assert!(tel.load_imbalance() >= 1.0 - 1e-12);
        // kernel counters were merged across workers
        assert!(tel.stats.tiles > 0);
    }

    #[test]
    fn traced_costs_price_var1_at_large_k() {
        // k = 512: the model's Var#6 is cheaper here, but Var#1 is what runs
        let x = uniform(1024, 16, 5);
        let tasks: Vec<KnnTask> = (0..2)
            .map(|t| KnnTask {
                q_idx: (t * 8..(t + 1) * 8).collect(),
                r_idx: (0..1024).collect(),
                k: 512,
            })
            .collect();
        let machine = MachineParams::ivy_bridge_1core();
        let (_, tel) = run_task_parallel_traced(
            &x,
            &tasks,
            DistanceKind::SqL2,
            &GsknnConfig::default(),
            machine,
            2,
        );
        let model = Model::new(machine);
        let size = ProblemSize {
            m: 8,
            n: 1024,
            d: 16,
            k: 512,
        };
        assert!(model.predict(&size, Approach::Var6) < model.predict(&size, Approach::Var1));
        for trace in &tel.tasks {
            assert_eq!(trace.predicted, model.predict(&size, Approach::Var1));
        }
    }

    #[test]
    fn lpt_execute_returns_results_in_task_order_with_worker_state() {
        let costs = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        // state = per-worker counter: each task records (task, nth-in-bucket)
        let out = lpt_execute(
            &costs,
            3,
            || 0usize,
            |seen, t| {
                *seen += 1;
                (t, *seen)
            },
        );
        assert_eq!(out.len(), costs.len());
        for (i, (t, nth)) in out.iter().enumerate() {
            assert_eq!(*t, i, "task order preserved");
            assert!(*nth >= 1, "worker state was initialized");
        }
        // worker state is shared within a bucket: with 7 tasks on 3
        // workers some bucket has >= 3 tasks, so some task is the 3rd
        // its worker ran — proof init() ran once per worker, not per task
        assert!(out.iter().any(|(_, nth)| *nth >= 3));
    }

    #[test]
    fn f32_task_parallel_matches_f32_serial() {
        let x: PointSet<f32> = uniform(120, 8, 55).cast();
        let tasks: Vec<KnnTask> = (0..4)
            .map(|t| KnnTask {
                q_idx: (t * 30..(t + 1) * 30).collect(),
                r_idx: (0..120).collect(),
                k: 4,
            })
            .collect();
        let cfg = GsknnConfig::default();
        let got = run_task_parallel(
            &x,
            &tasks,
            DistanceKind::SqL2,
            &cfg,
            MachineParams::ivy_bridge_1core(),
            2,
        );
        let mut exec: Gsknn<f32> = Gsknn::new(cfg);
        for (task, table) in tasks.iter().zip(&got) {
            let want = exec.run(&x, &task.q_idx, &task.r_idx, task.k, DistanceKind::SqL2);
            for i in 0..task.q_idx.len() {
                assert_eq!(table.row(i), want.row(i));
            }
        }
    }

    #[test]
    fn task_parallel_matches_serial_execution() {
        let x = uniform(120, 8, 55);
        let tasks: Vec<KnnTask> = (0..6)
            .map(|t| KnnTask {
                q_idx: (t * 20..(t + 1) * 20).collect(),
                r_idx: (0..120).collect(),
                k: 4,
            })
            .collect();
        let cfg = GsknnConfig::default();
        let got = run_task_parallel(
            &x,
            &tasks,
            DistanceKind::SqL2,
            &cfg,
            MachineParams::ivy_bridge_1core(),
            3,
        );
        let mut exec = Gsknn::new(cfg);
        for (task, table) in tasks.iter().zip(&got) {
            let want = exec.run(&x, &task.q_idx, &task.r_idx, task.k, DistanceKind::SqL2);
            for i in 0..task.q_idx.len() {
                assert_eq!(table.row(i), want.row(i));
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_every_task_assigned_exactly_once(
                costs in proptest::collection::vec(0.0f64..100.0, 0..48),
                p in 1usize..9,
            ) {
                let s = lpt_schedule(&costs, p);
                prop_assert_eq!(s.len(), p);
                let mut seen: Vec<usize> = s.concat();
                seen.sort_unstable();
                let want: Vec<usize> = (0..costs.len()).collect();
                prop_assert_eq!(seen, want);
            }

            #[test]
            fn prop_makespan_at_most_total_cost(
                costs in proptest::collection::vec(0.0f64..100.0, 0..48),
                p in 1usize..9,
            ) {
                let s = lpt_schedule(&costs, p);
                let total: f64 = costs.iter().sum();
                let ms = makespan(&s, &costs);
                prop_assert!(ms >= 0.0);
                prop_assert!(
                    ms <= total + 1e-9,
                    "makespan {} exceeds total cost {}", ms, total
                );
            }

            #[test]
            fn prop_lpt_within_twice_lower_bound(
                costs in proptest::collection::vec(0.0f64..100.0, 1..48),
                p in 1usize..9,
            ) {
                // Any schedule's makespan is at least
                // max(max_cost, total/p); Graham's bound guarantees LPT is
                // within 4/3 of optimal, so certainly within 2x the lower
                // bound.
                let s = lpt_schedule(&costs, p);
                let total: f64 = costs.iter().sum();
                let max_cost = costs.iter().cloned().fold(0.0, f64::max);
                let lower = (total / p as f64).max(max_cost);
                let ms = makespan(&s, &costs);
                prop_assert!(ms + 1e-9 >= lower);
                prop_assert!(
                    ms <= 2.0 * lower + 1e-9,
                    "LPT makespan {} above 2x lower bound {}", ms, lower
                );
            }
        }
    }
}
