//! Model-guided tuning (§2.6): use the performance model to (a) place
//! the paper's Var#1→Var#6 switch-over (Figure 5's model line; the kernel
//! itself runs Var#1 at every k), and (b) schedule a bag of irregular kNN
//! tasks across workers with LPT list scheduling.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use gsknn::core::model::Approach;
use gsknn::core::scheduler::{lpt_schedule, makespan, run_task_parallel, KnnTask};
use gsknn::core::GsknnConfig;
use gsknn::{DistanceKind, MachineParams, Model, ProblemSize};

fn main() {
    let machine = MachineParams::ivy_bridge_1core();
    let model = Model::new(machine);

    // (a) the paper's switch-over for m = n = 8192
    if let Some(thr) = model.threshold_k(8192, 8192, 64, 8192) {
        println!("predicted switch-over at d = 64: k = {thr}");
        let p = ProblemSize {
            m: 8192,
            n: 8192,
            d: 64,
            k: thr,
        };
        println!(
            "  predicted Var#1 {:.1} GFLOPS vs Var#6 {:.1} GFLOPS at the threshold",
            model.gflops(&p, Approach::Var1),
            model.gflops(&p, Approach::Var6)
        );
    }

    // (b) schedule 12 irregular tasks on 4 workers, priced as Var#1
    println!("\nLPT scheduling of irregular kernel tasks:");
    let x = gsknn::data::uniform(6_000, 32, 9);
    let tasks: Vec<KnnTask> = (0..12)
        .map(|t| {
            let span = 200 + (t % 5) * 800; // irregular sizes
            KnnTask {
                q_idx: (0..span).collect(),
                r_idx: (0..6_000).collect(),
                k: 8,
            }
        })
        .collect();
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
    let schedule = lpt_schedule(&costs, 4);
    for (w, bucket) in schedule.iter().enumerate() {
        let load: f64 = bucket.iter().map(|&t| costs[t]).sum();
        println!(
            "  worker {w}: tasks {bucket:?}, predicted {:.1} ms",
            load * 1e3
        );
    }
    println!(
        "  predicted makespan {:.1} ms vs serial {:.1} ms",
        makespan(&schedule, &costs) * 1e3,
        costs.iter().sum::<f64>() * 1e3
    );

    let t0 = std::time::Instant::now();
    let results = run_task_parallel(
        &x,
        &tasks,
        DistanceKind::SqL2,
        &GsknnConfig::default(),
        machine,
        4,
    );
    println!(
        "  executed {} tasks in {:.1} ms ({} neighbor rows)",
        results.len(),
        t0.elapsed().as_secs_f64() * 1e3,
        results.iter().map(|t| t.len()).sum::<usize>()
    );
}
