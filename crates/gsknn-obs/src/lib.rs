//! # gsknn-obs — observability for the GSKNN kernel
//!
//! Turns the raw probes of `gsknn-core` into reports:
//!
//! * **Phase profiling** — the per-phase wall times recorded by
//!   [`gsknn_core::obs::PhaseSet`] (gather-pack R/Q, rank-dc
//!   micro-kernel, selection, writeback), with span counts and shares.
//! * **Model drift** — each measured phase joined against the matching
//!   itemized terms of the §2.6 performance model
//!   ([`gsknn_core::Model::tm_terms`]), reporting predicted vs measured
//!   seconds and the drift ratio per component, plus realized vs
//!   predicted GFLOPS of the configured kernel ([`profile_run`]).
//! * **Scheduler telemetry** — per-worker predicted vs realized load and
//!   the LPT predicted-vs-realized makespan error from
//!   [`gsknn_core::scheduler::run_task_parallel_traced`], summarized by
//!   [`SchedulerReport`].
//! * **Serving telemetry** — traffic, admission-control, and batch-
//!   coalescing counters from the `gsknn-serve` query service, joined
//!   against the model-predicted batch cost ([`ServeReport`]), plus
//!   per-lane × per-status end-to-end latency histograms; the router
//!   tier's counters, backend health and per-backend latency histograms
//!   ([`RouterReport`]). Both tiers render their Prometheus text
//!   exposition through one writer (the crate-private `expo` module).
//! * **Latency histograms** — lock-free log-bucketed recorders with
//!   mergeable snapshots and p50/p90/p99/p999 estimates ([`hist`]).
//! * **Request traces** — span timelines for individual served
//!   requests, a keep-the-slowest ring, and Chrome trace-event JSON
//!   export ([`trace`]).
//! * **Roofline attribution** — per-batch classification against the
//!   §2.6 machine asymptotes (compute- / bandwidth- / coalesce- /
//!   queue-bound) with a headroom gauge ([`roofline`]), aggregated per
//!   lane in [`ServeReport`].
//! * **Load time-series** — per-second snapshots of serving activity
//!   (arrival rate, queue depth, batch-size mean, flush reasons,
//!   aggregate kernel-phase split) and the `gsknn-cli top` rendering
//!   ([`timeseries`]).
//!
//! All reports render as text tables and export as JSON (the `gsknn
//! profile` CLI subcommand writes them under `bench_out/`).
//!
//! The crate's default `obs` feature forwards to `gsknn-core/obs`,
//! compiling the phase probes into the kernel. Without it the profiler
//! still times totals, but phase rows are zero and reports carry
//! `obs_enabled = false`.

mod expo;
pub mod hist;
pub mod profile;
pub mod report;
pub mod roofline;
pub mod router;
pub mod serve;
pub mod timeseries;
pub mod trace;

pub use hist::{BucketExemplar, Exemplars, HistSnapshot, LatencyHistogram};
pub use profile::{profile_run, profile_synthetic};
pub use report::{DriftRow, PhaseRow, ProfileReport, SchedulerReport, StageBreakdown, WorkerRow};
pub use roofline::{classify, BoundClass, RooflineInputs, RooflineRow, RooflineVerdict};
pub use router::RouterReport;
pub use serve::{batch_bucket, FlushCounts, LatencyRow, ServeReport, BATCH_BUCKETS};
pub use timeseries::{parse_timeseries, render_top, timeseries_json, LoadSample};
pub use trace::{align_spans, chrome_trace_json, Trace, TraceRing, TraceSpan};

#[cfg(test)]
mod sched_tests {
    use super::*;
    use dataset::{uniform, DistanceKind};
    use gsknn_core::scheduler::{run_task_parallel_traced, KnnTask};
    use gsknn_core::{GsknnConfig, MachineParams};

    #[test]
    fn scheduler_report_summarizes_traced_run() {
        let x = uniform(120, 8, 33);
        let tasks: Vec<KnnTask> = (0..6)
            .map(|t| KnnTask {
                q_idx: (t * 20..(t + 1) * 20).collect(),
                r_idx: (0..120).collect(),
                k: 4,
            })
            .collect();
        let (_, tel) = run_task_parallel_traced(
            &x,
            &tasks,
            DistanceKind::SqL2,
            &GsknnConfig::default(),
            MachineParams::ivy_bridge_1core(),
            3,
        );
        let report = SchedulerReport::from_telemetry(&tel);
        assert_eq!(report.tasks, 6);
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.workers.iter().map(|w| w.tasks).sum::<usize>(), 6);
        assert!(report.predicted_makespan > 0.0);
        assert!(report.realized_makespan > 0.0);
        assert!(report.load_imbalance >= 1.0 - 1e-12);
        assert!(report.stats.tiles > 0);

        let text = report.render_table();
        assert!(text.contains("scheduler: 6 tasks over 3 workers"));
        assert!(text.contains("makespan: predicted"));

        let json = report.to_json().to_string();
        let back = serde_json::from_str(&json).expect("scheduler JSON parses");
        assert_eq!(back.get("tasks").and_then(|v| v.as_u64()), Some(6));
        assert_eq!(
            back.get("workers")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(3)
        );
    }
}
