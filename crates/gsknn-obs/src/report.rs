//! Report types: measured phase breakdowns joined against the §2.6
//! model's itemized predictions, plus renderers (text table, JSON).

use gsknn_core::buffers::KernelStats;
use gsknn_core::obs::{Phase, PhaseSet};
use serde::Serialize;
use serde_json::Value;

/// One measured phase of the kernel.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase display name ([`Phase::name`]).
    pub phase: &'static str,
    /// Accumulated seconds.
    pub seconds: f64,
    /// Number of spans recorded.
    pub spans: u64,
    /// Fraction of the summed phase time (0.0 when nothing measured).
    pub share: f64,
}

/// Build phase rows (with shares) from a [`PhaseSet`].
pub fn phase_rows(phases: &PhaseSet) -> Vec<PhaseRow> {
    let total = phases.total_seconds();
    Phase::ALL
        .iter()
        .map(|&p| PhaseRow {
            phase: p.name(),
            seconds: phases.seconds(p),
            spans: phases.count(p),
            share: if total > 0.0 {
                phases.seconds(p) / total
            } else {
                0.0
            },
        })
        .collect()
}

/// Per-stage time attribution of the distributed serving path: where a
/// routed query's wall clock went, split into the four cross-tier
/// stages the stitched traces expose. Totals are cumulative nanoseconds
/// (counter semantics — they only grow), so the same breakdown backs
/// the `gsknn_router_stage_ns_total{stage}` Prometheus family, the
/// RouterReport table and the bench attribution percentages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Wire + router fan-out/collect time not attributable to any other
    /// stage (the non-negative residual of the routed total).
    pub network_ns: u64,
    /// Backend-side non-kernel time: decode, admission, coalesce wait,
    /// reply write — queueing in the broad sense.
    pub backend_wait_ns: u64,
    /// Backend kernel phases (the `kernel: *` spans).
    pub kernel_ns: u64,
    /// Router-side merge of the per-partition heaps.
    pub merge_ns: u64,
}

impl StageBreakdown {
    /// Stage labels, in display/exposition order.
    pub const STAGES: [&'static str; 4] = ["network", "backend_wait", "kernel", "merge"];

    /// Totals in [`StageBreakdown::STAGES`] order.
    pub fn totals(&self) -> [u64; 4] {
        [
            self.network_ns,
            self.backend_wait_ns,
            self.kernel_ns,
            self.merge_ns,
        ]
    }

    /// Sum over all stages, ns.
    pub fn total_ns(&self) -> u64 {
        self.totals().iter().sum()
    }

    /// Per-stage share of the summed total as percentages, in
    /// [`StageBreakdown::STAGES`] order (all zero when nothing recorded).
    pub fn percentages(&self) -> [f64; 4] {
        let total = self.total_ns();
        if total == 0 {
            return [0.0; 4];
        }
        self.totals().map(|ns| ns as f64 * 100.0 / total as f64)
    }

    /// Accumulate another breakdown (e.g. one routed query's attribution
    /// into the server-lifetime counters).
    pub fn add(&mut self, other: &StageBreakdown) {
        self.network_ns += other.network_ns;
        self.backend_wait_ns += other.backend_wait_ns;
        self.kernel_ns += other.kernel_ns;
        self.merge_ns += other.merge_ns;
    }

    /// One table line: `network 42.1% · backend wait 30.0% · …` with the
    /// absolute milliseconds in parentheses.
    pub fn render_line(&self) -> String {
        let pct = self.percentages();
        let ms = self.totals().map(|ns| ns as f64 / 1e6);
        format!(
            "network {:.1}% ({:.1} ms) · backend wait {:.1}% ({:.1} ms) · kernel {:.1}% ({:.1} ms) · merge {:.1}% ({:.1} ms)",
            pct[0], ms[0], pct[1], ms[1], pct[2], ms[2], pct[3], ms[3]
        )
    }

    /// JSON object: per-stage ns totals plus the percentage split.
    pub fn to_json(&self) -> Value {
        let pct = self.percentages();
        Value::Object(vec![
            ("network_ns".into(), Value::from(self.network_ns)),
            ("backend_wait_ns".into(), Value::from(self.backend_wait_ns)),
            ("kernel_ns".into(), Value::from(self.kernel_ns)),
            ("merge_ns".into(), Value::from(self.merge_ns)),
            ("network_pct".into(), Value::from(pct[0])),
            ("backend_wait_pct".into(), Value::from(pct[1])),
            ("kernel_pct".into(), Value::from(pct[2])),
            ("merge_pct".into(), Value::from(pct[3])),
        ])
    }
}

/// One model-vs-measured component of the drift join. `terms` lists the
/// [`gsknn_core::Model::tm_terms`] names (plus `"compute (Tf + To)"`)
/// whose predictions were summed into `predicted`, so the report is an
/// auditable join, not a lookalike table.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// Component label.
    pub component: &'static str,
    /// Model term names folded into `predicted`.
    pub terms: Vec<String>,
    /// Predicted seconds (sum of `terms`).
    pub predicted: f64,
    /// Measured seconds (phase span totals).
    pub measured: f64,
}

impl DriftRow {
    /// Measured-over-predicted drift ratio (`None` when the model
    /// predicts zero for this component).
    pub fn ratio(&self) -> Option<f64> {
        if self.predicted > 0.0 {
            Some(self.measured / self.predicted)
        } else {
            None
        }
    }
}

/// Full profile of one kNN problem: phase breakdown, model drift and
/// GFLOPS of the configured kernel.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Queries.
    pub m: usize,
    /// References.
    pub n: usize,
    /// Dimension.
    pub d: usize,
    /// Neighbors kept.
    pub k: usize,
    /// Element type profiled (`"f64"` / `"f32"`).
    pub precision: &'static str,
    /// Distance kind name.
    pub kind: String,
    /// Timing repetitions (best kept).
    pub reps: usize,
    /// Whether phase probes were compiled in.
    pub obs_enabled: bool,
    /// The variant the configured kernel runs; totals, phases, drift and
    /// counters below are its.
    pub variant_profiled: String,
    /// Best-of-reps measured total of the profiled variant (seconds).
    pub measured_total: f64,
    /// §2.6 predicted total of the profiled variant (seconds).
    pub predicted_total: f64,
    /// Realized GFLOPS of the profiled variant.
    pub measured_gflops: f64,
    /// Predicted GFLOPS of the profiled variant.
    pub predicted_gflops: f64,
    /// Measured phase breakdown of the profiled variant.
    pub phases: Vec<PhaseRow>,
    /// Model-vs-measured drift per component.
    pub drift: Vec<DriftRow>,
    /// Kernel counters of the profiled run.
    pub stats: KernelStats,
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

impl ProfileReport {
    /// JSON value for machine consumption (`bench_out/` artifacts).
    pub fn to_json(&self) -> Value {
        let phases: Vec<Value> = self
            .phases
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("phase".into(), Value::from(r.phase)),
                    ("seconds".into(), Value::from(r.seconds)),
                    ("spans".into(), Value::from(r.spans)),
                    ("share".into(), Value::from(r.share)),
                ])
            })
            .collect();
        let drift: Vec<Value> = self
            .drift
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("component".into(), Value::from(r.component)),
                    ("model_terms".into(), Value::from(r.terms.clone())),
                    ("predicted_s".into(), Value::from(r.predicted)),
                    ("measured_s".into(), Value::from(r.measured)),
                    (
                        "drift_ratio".into(),
                        r.ratio().map(Value::from).unwrap_or(Value::Null),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("experiment".into(), Value::from("profile")),
            ("m".into(), Value::from(self.m)),
            ("n".into(), Value::from(self.n)),
            ("d".into(), Value::from(self.d)),
            ("k".into(), Value::from(self.k)),
            ("precision".into(), Value::from(self.precision)),
            ("kind".into(), Value::from(self.kind.clone())),
            ("reps".into(), Value::from(self.reps)),
            ("obs_enabled".into(), Value::from(self.obs_enabled)),
            (
                "variant_profiled".into(),
                Value::from(self.variant_profiled.clone()),
            ),
            ("measured_total_s".into(), Value::from(self.measured_total)),
            (
                "predicted_total_s".into(),
                Value::from(self.predicted_total),
            ),
            ("measured_gflops".into(), Value::from(self.measured_gflops)),
            (
                "predicted_gflops".into(),
                Value::from(self.predicted_gflops),
            ),
            ("phases".into(), Value::Array(phases)),
            ("drift".into(), Value::Array(drift)),
            ("stats".into(), self.stats.to_value()),
        ])
    }

    /// Human-readable report (the `gsknn profile` output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile: m={} n={} d={} k={} {} kind={} (best of {} reps)\n",
            self.m, self.n, self.d, self.k, self.precision, self.kind, self.reps
        ));
        out.push_str(&format!(
            "total ({}): measured {} @ {:.2} GFLOPS | predicted {} @ {:.2} GFLOPS\n",
            self.variant_profiled,
            fmt_secs(self.measured_total),
            self.measured_gflops,
            fmt_secs(self.predicted_total),
            self.predicted_gflops,
        ));
        if !self.obs_enabled {
            out.push_str("phases: (obs feature disabled — phase probes compiled out)\n");
        } else {
            out.push_str("phase breakdown:\n");
            out.push_str(&format!(
                "  {:<16} {:>12} {:>10} {:>7}\n",
                "phase", "time", "spans", "share"
            ));
            for r in &self.phases {
                out.push_str(&format!(
                    "  {:<16} {:>12} {:>10} {:>6.1}%\n",
                    r.phase,
                    fmt_secs(r.seconds),
                    r.spans,
                    r.share * 100.0
                ));
            }
            out.push_str("model drift (measured / predicted):\n");
            out.push_str(&format!(
                "  {:<22} {:>12} {:>12} {:>7}\n",
                "component", "predicted", "measured", "drift"
            ));
            for r in &self.drift {
                let drift = match r.ratio() {
                    Some(x) => format!("{x:.2}x"),
                    None => "--".to_string(),
                };
                out.push_str(&format!(
                    "  {:<22} {:>12} {:>12} {:>7}\n",
                    r.component,
                    fmt_secs(r.predicted),
                    fmt_secs(r.measured),
                    drift
                ));
            }
        }
        out.push_str(&format!(
            "kernel stats: {} tiles, filter rate {:.3}, selection rate {:.3}, {} compactions\n",
            self.stats.tiles,
            self.stats.filter_rate(),
            self.stats.selection_rate(),
            self.stats.compactions
        ));
        out
    }
}

/// Per-worker row of a scheduler report.
#[derive(Clone, Debug)]
pub struct WorkerRow {
    /// Worker index.
    pub worker: usize,
    /// Tasks assigned.
    pub tasks: usize,
    /// Predicted load (seconds).
    pub predicted: f64,
    /// Realized load (seconds).
    pub realized: f64,
}

/// Scheduler telemetry rendered for reporting: how well the model-guided
/// LPT schedule predicted per-worker load and the makespan.
#[derive(Clone, Debug)]
pub struct SchedulerReport {
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// Per-worker loads.
    pub workers: Vec<WorkerRow>,
    /// LPT makespan under predicted costs (seconds).
    pub predicted_makespan: f64,
    /// Realized makespan (seconds).
    pub realized_makespan: f64,
    /// Relative makespan error `(realized - predicted) / predicted`.
    pub makespan_error: f64,
    /// Mean absolute relative task-cost estimation error.
    pub mean_abs_cost_error: f64,
    /// Realized max-over-mean worker load (1.0 = balanced).
    pub load_imbalance: f64,
    /// Kernel counters merged across all tasks.
    pub stats: KernelStats,
}

impl SchedulerReport {
    /// Summarize raw telemetry from
    /// [`gsknn_core::scheduler::run_task_parallel_traced`].
    pub fn from_telemetry(tel: &gsknn_core::scheduler::SchedulerTelemetry) -> Self {
        let workers = tel
            .worker_predicted
            .iter()
            .zip(&tel.worker_realized)
            .enumerate()
            .map(|(w, (&predicted, &realized))| WorkerRow {
                worker: w,
                tasks: tel.tasks.iter().filter(|t| t.worker == w).count(),
                predicted,
                realized,
            })
            .collect();
        SchedulerReport {
            tasks: tel.tasks.len(),
            workers,
            predicted_makespan: tel.predicted_makespan,
            realized_makespan: tel.realized_makespan,
            makespan_error: tel.makespan_error(),
            mean_abs_cost_error: tel.mean_abs_cost_error(),
            load_imbalance: tel.load_imbalance(),
            stats: tel.stats,
        }
    }

    /// JSON value for machine consumption.
    pub fn to_json(&self) -> Value {
        let workers: Vec<Value> = self
            .workers
            .iter()
            .map(|w| {
                Value::Object(vec![
                    ("worker".into(), Value::from(w.worker)),
                    ("tasks".into(), Value::from(w.tasks)),
                    ("predicted_s".into(), Value::from(w.predicted)),
                    ("realized_s".into(), Value::from(w.realized)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("experiment".into(), Value::from("scheduler")),
            ("tasks".into(), Value::from(self.tasks)),
            ("workers".into(), Value::Array(workers)),
            (
                "predicted_makespan_s".into(),
                Value::from(self.predicted_makespan),
            ),
            (
                "realized_makespan_s".into(),
                Value::from(self.realized_makespan),
            ),
            ("makespan_error".into(), Value::from(self.makespan_error)),
            (
                "mean_abs_cost_error".into(),
                Value::from(self.mean_abs_cost_error),
            ),
            ("load_imbalance".into(), Value::from(self.load_imbalance)),
            ("stats".into(), self.stats.to_value()),
        ])
    }

    /// Human-readable report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scheduler: {} tasks over {} workers (model-guided LPT)\n",
            self.tasks,
            self.workers.len()
        ));
        out.push_str(&format!(
            "  {:<7} {:>6} {:>14} {:>14}\n",
            "worker", "tasks", "predicted", "realized"
        ));
        for w in &self.workers {
            out.push_str(&format!(
                "  {:<7} {:>6} {:>14} {:>14}\n",
                w.worker,
                w.tasks,
                fmt_secs(w.predicted),
                fmt_secs(w.realized)
            ));
        }
        out.push_str(&format!(
            "makespan: predicted {} | realized {} | error {:+.1}%\n",
            fmt_secs(self.predicted_makespan),
            fmt_secs(self.realized_makespan),
            self.makespan_error * 100.0
        ));
        out.push_str(&format!(
            "task-cost estimation: mean abs error {:.1}% | realized load imbalance {:.2}\n",
            self.mean_abs_cost_error * 100.0,
            self.load_imbalance
        ));
        out
    }
}

#[cfg(test)]
mod stage_tests {
    use super::*;

    #[test]
    fn stage_breakdown_percentages_and_json() {
        let mut b = StageBreakdown {
            network_ns: 10_000_000,
            backend_wait_ns: 30_000_000,
            kernel_ns: 50_000_000,
            merge_ns: 10_000_000,
        };
        assert_eq!(b.total_ns(), 100_000_000);
        let pct = b.percentages();
        assert_eq!(pct, [10.0, 30.0, 50.0, 10.0]);
        b.add(&StageBreakdown {
            network_ns: 1,
            backend_wait_ns: 2,
            kernel_ns: 3,
            merge_ns: 4,
        });
        assert_eq!(b.kernel_ns, 50_000_003);

        let back: Value =
            serde_json::from_str(&b.to_json().to_string()).expect("stage JSON parses");
        assert_eq!(
            back.get("backend_wait_ns").and_then(|v| v.as_u64()),
            Some(30_000_002)
        );
        assert!(back.get("kernel_pct").and_then(|v| v.as_f64()).unwrap() > 49.0);
        let line = b.render_line();
        assert!(line.contains("network"), "{line}");
        assert!(line.contains("merge"), "{line}");

        // an empty breakdown divides by nothing
        assert_eq!(StageBreakdown::default().percentages(), [0.0; 4]);
        assert_eq!(StageBreakdown::STAGES[2], "kernel");
    }
}
