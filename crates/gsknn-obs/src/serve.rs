//! Serving-layer observability: the [`ServeReport`] summarizing one
//! server run (or a live snapshot via the wire `Stats` op).
//!
//! The report mirrors what the §2.6 model promises the batch coalescer:
//! batches flushed on the *model* trigger should run near the predicted
//! asymptotic efficiency, so the report joins the summed model-predicted
//! batch cost (itemized with [`gsknn_core::Model::tm_terms`] by the
//! server's workers) against the summed measured kernel seconds — the
//! same predicted-vs-measured drift discipline as [`crate::ProfileReport`],
//! aggregated over every flush instead of one profiled problem.

use crate::expo::{Counter, Expo};
use crate::hist::HistSnapshot;
use crate::roofline::{BoundClass, RooflineRow};
use serde_json::Value;

/// Per-shard traffic and supervision counters: one row per shard thread
/// in the sharded server, so a hot or flapping shard is visible without
/// grepping logs.
#[derive(Clone, Debug, Default)]
pub struct ShardRow {
    /// Shard index (also the pinned core when `--pin-cores` is on).
    pub shard: usize,
    /// Kernel batches this shard executed.
    pub batches: u64,
    /// Query points this shard answered.
    pub queries: u64,
    /// Batches that panicked in this shard.
    pub worker_panics: u64,
    /// Workspace rebuilds after a panic.
    pub worker_respawns: u64,
    /// Connections the acceptor handed to this shard over the run.
    pub conns: u64,
}

/// End-to-end latency histogram for one (lane, terminal status) pair.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// Precision lane (`"f64"` / `"f32"`).
    pub lane: String,
    /// Terminal wire status label (`"ok"`, `"busy"`, `"timeout"`, …).
    pub status: String,
    /// Log-bucketed receive-to-reply latency distribution.
    pub hist: HistSnapshot,
    /// Slowest trace id per bucket ([`crate::hist::Exemplars`]
    /// snapshot), rendered as OpenMetrics-style exemplar suffixes on
    /// the matching `_bucket` exposition lines. Empty when tracing is
    /// compiled out.
    pub exemplars: Vec<crate::hist::BucketExemplar>,
}

/// Batch-size histogram bucket upper bounds (inclusive); the last bucket
/// is open-ended. Shared between the server's counters and the report so
/// both sides agree on the binning.
pub const BATCH_BUCKETS: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, usize::MAX];

/// Index of the histogram bucket a batch of `m` queries falls into.
pub fn batch_bucket(m: usize) -> usize {
    BATCH_BUCKETS
        .iter()
        .position(|&hi| m <= hi)
        .unwrap_or(BATCH_BUCKETS.len() - 1)
}

/// Why batches were flushed, by trigger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlushCounts {
    /// The §2.6 model predicted the batch reached the efficient regime
    /// (or the configured hard batch cap, which clamps the model target).
    pub model: u64,
    /// The oldest request's latency budget expired first.
    pub deadline: u64,
    /// Shutdown drain: whatever was queued went out in final batches.
    pub drain: u64,
}

impl FlushCounts {
    /// Fraction of steady-state flushes that were model-triggered
    /// (`model / (model + deadline)`; 0 when neither fired). Drain
    /// flushes are excluded — they say nothing about the policy.
    pub fn coalesce_ratio(&self) -> f64 {
        let steady = self.model + self.deadline;
        if steady == 0 {
            0.0
        } else {
            self.model as f64 / steady as f64
        }
    }
}

/// One server run (or live snapshot) summarized: traffic, admission
/// control, coalescing behavior and model drift.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Element precisions served (informational; e.g. `["f64", "f32"]`).
    pub precisions: Vec<String>,
    /// Request frames received, all ops.
    pub requests: u64,
    /// Query points answered with a neighbor row.
    pub queries: u64,
    /// Admission rejections (bounded queue full → `Busy`).
    pub busy: u64,
    /// Requests that missed their latency deadline.
    pub timeouts: u64,
    /// Malformed or failed requests answered with `Error`.
    pub errors: u64,
    /// Kernel batches executed.
    pub batches: u64,
    /// Worker batches that panicked; every in-flight request in the
    /// batch was answered with `InternalError` instead of being dropped.
    pub worker_panics: u64,
    /// Workers respawned with a fresh executor after a panic.
    pub worker_respawns: u64,
    /// f64 queries answered from the f32 lane while shedding load.
    pub degraded_queries: u64,
    /// Transitions into the overloaded (degraded) state.
    pub overload_events: u64,
    /// Flush counts by trigger.
    pub flushes: FlushCounts,
    /// f64 rows the flat index's certified path answered from its f32
    /// scan and f64 rerank.
    pub certified_rows: u64,
    /// f64 rows whose certificate failed, answered by the full f64 scan.
    pub certify_fallback_rows: u64,
    /// f64 rows where the certified path would not have paid (too few
    /// references per candidate, or too many recent fallbacks), answered
    /// by the full f64 scan without trying it.
    pub certify_skipped_rows: u64,
    /// Per-lane roofline attribution: executed-batch counts per bound
    /// class ([`BoundClass`]) plus the headroom gauge. Empty when the
    /// server compiled its `obs` feature out (the recorder is a
    /// zero-sized no-op there).
    pub roofline: Vec<RooflineRow>,
    /// Per-shard traffic and supervision rows; empty for reports
    /// predating the sharded server.
    pub shards: Vec<ShardRow>,
    /// Batch-size histogram over [`BATCH_BUCKETS`].
    pub batch_hist: Vec<u64>,
    /// Highest simultaneous pending-query count observed.
    pub queue_high_water: u64,
    /// Query points in flight at snapshot time (gauge).
    pub in_flight: u64,
    /// Whether the overload detector held the degraded state at
    /// snapshot time (gauge).
    pub overloaded: bool,
    /// End-to-end request latency histograms, one row per non-empty
    /// (lane × terminal status) pair. Latency covers receive → reply
    /// written, measured at the server.
    pub latency: Vec<LatencyRow>,
    /// Model-derived batch-size targets per precision lane
    /// (`(precision, m*)`): the smallest batch the §2.6 model predicts
    /// reaches the configured fraction of asymptotic GFLOPS.
    pub batch_targets: Vec<(String, usize)>,
    /// Summed model-predicted batch cost (seconds) over all flushes.
    pub predicted_s: f64,
    /// Summed measured kernel wall time (seconds) over all flushes.
    pub measured_s: f64,
    /// The predicted cost itemized by model term (summed
    /// [`gsknn_core::Model::tm_terms`] rows plus the compute term),
    /// aggregated over all flushed batches.
    pub predicted_terms: Vec<(String, f64)>,
}

impl ServeReport {
    /// Measured over predicted batch cost (`> 1`: the model was
    /// optimistic). `None` until at least one batch has run.
    pub fn drift_ratio(&self) -> Option<f64> {
        if self.predicted_s > 0.0 && self.batches > 0 {
            Some(self.measured_s / self.predicted_s)
        } else {
            None
        }
    }

    /// The scalar counters, declared once for the Stats JSON and the
    /// exposition (`gsknn_<key>_total`).
    fn counters(&self) -> [Counter; 10] {
        [
            (
                "requests",
                "Request frames received (all ops).",
                self.requests,
            ),
            (
                "queries",
                "Query points answered with a neighbor row.",
                self.queries,
            ),
            ("busy", "Requests bounced by admission control.", self.busy),
            (
                "timeouts",
                "Requests whose latency budget expired before the kernel ran.",
                self.timeouts,
            ),
            ("errors", "Malformed or failed requests.", self.errors),
            ("batches", "Kernel batches executed.", self.batches),
            (
                "worker_panics",
                "Worker batches that panicked.",
                self.worker_panics,
            ),
            (
                "worker_respawns",
                "Workers rebuilt after a panic.",
                self.worker_respawns,
            ),
            (
                "degraded_queries",
                "f64 queries answered from the f32 lane while shedding load.",
                self.degraded_queries,
            ),
            (
                "overload_events",
                "Transitions into the overloaded state.",
                self.overload_events,
            ),
        ]
    }

    /// JSON value for machine consumption (the `Stats` wire op body).
    pub fn to_json(&self) -> Value {
        let hist: Vec<Value> = self
            .batch_hist
            .iter()
            .zip(BATCH_BUCKETS)
            .map(|(&count, hi)| {
                let le = if hi == usize::MAX {
                    Value::from("inf")
                } else {
                    Value::from(hi)
                };
                Value::Object(vec![
                    ("le".into(), le),
                    ("count".into(), Value::from(count)),
                ])
            })
            .collect();
        let targets: Vec<Value> = self
            .batch_targets
            .iter()
            .map(|(p, m)| {
                Value::Object(vec![
                    ("precision".into(), Value::String(p.clone())),
                    ("batch_target".into(), Value::from(*m)),
                ])
            })
            .collect();
        let terms: Vec<Value> = self
            .predicted_terms
            .iter()
            .map(|(name, s)| {
                Value::Object(vec![
                    ("term".into(), Value::String(name.clone())),
                    ("predicted_s".into(), Value::from(*s)),
                ])
            })
            .collect();
        let shards: Vec<Value> = self
            .shards
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("shard".into(), Value::from(s.shard)),
                    ("batches".into(), Value::from(s.batches)),
                    ("queries".into(), Value::from(s.queries)),
                    ("worker_panics".into(), Value::from(s.worker_panics)),
                    ("worker_respawns".into(), Value::from(s.worker_respawns)),
                    ("conns".into(), Value::from(s.conns)),
                ])
            })
            .collect();
        let latency: Vec<Value> = self
            .latency
            .iter()
            .map(|row| {
                let mut obj = vec![
                    ("lane".into(), Value::from(&row.lane)),
                    ("status".into(), Value::from(&row.status)),
                ];
                if let Value::Object(fields) = row.hist.to_json() {
                    obj.extend(fields);
                }
                let exemplars: Vec<Value> = row
                    .exemplars
                    .iter()
                    .map(|x| {
                        Value::Object(vec![
                            ("le_ns".into(), Value::from(x.le_ns)),
                            ("ns".into(), Value::from(x.ns)),
                            (
                                "trace_id".into(),
                                Value::from(format!("{:016x}", x.trace_id)),
                            ),
                        ])
                    })
                    .collect();
                if !exemplars.is_empty() {
                    obj.push(("exemplars".into(), Value::Array(exemplars)));
                }
                Value::Object(obj)
            })
            .collect();
        let mut fields = vec![
            ("experiment".into(), Value::from("serve")),
            ("precisions".into(), Value::from(self.precisions.clone())),
        ];
        fields.extend(
            self.counters()
                .map(|(key, _, v)| (key.to_string(), Value::from(v))),
        );
        fields.extend([
            ("flush_model".into(), Value::from(self.flushes.model)),
            ("flush_deadline".into(), Value::from(self.flushes.deadline)),
            ("flush_drain".into(), Value::from(self.flushes.drain)),
            (
                "coalesce_ratio".into(),
                Value::from(self.flushes.coalesce_ratio()),
            ),
            ("certified_rows".into(), Value::from(self.certified_rows)),
            (
                "certify_fallback_rows".into(),
                Value::from(self.certify_fallback_rows),
            ),
            (
                "certify_skipped_rows".into(),
                Value::from(self.certify_skipped_rows),
            ),
            (
                "roofline".into(),
                Value::Array(self.roofline.iter().map(RooflineRow::to_json).collect()),
            ),
            ("shards".into(), Value::Array(shards)),
            ("batch_hist".into(), Value::Array(hist)),
            (
                "queue_high_water".into(),
                Value::from(self.queue_high_water),
            ),
            ("in_flight".into(), Value::from(self.in_flight)),
            ("overloaded".into(), Value::from(self.overloaded)),
            ("latency".into(), Value::Array(latency)),
            ("batch_targets".into(), Value::Array(targets)),
            ("predicted_s".into(), Value::from(self.predicted_s)),
            ("measured_s".into(), Value::from(self.measured_s)),
            (
                "drift_ratio".into(),
                self.drift_ratio().map(Value::from).unwrap_or(Value::Null),
            ),
            ("predicted_terms".into(), Value::Array(terms)),
        ]);
        Value::Object(fields)
    }

    /// Human-readable report.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve: {} requests | {} queries answered | {} busy | {} timeouts | {} errors\n",
            self.requests, self.queries, self.busy, self.timeouts, self.errors
        ));
        out.push_str(&format!(
            "batches: {} (flush: {} model, {} deadline, {} drain | coalesce ratio {:.2})\n",
            self.batches,
            self.flushes.model,
            self.flushes.deadline,
            self.flushes.drain,
            self.flushes.coalesce_ratio()
        ));
        for row in &self.roofline {
            if row.total() == 0 {
                continue;
            }
            let counts: Vec<String> = BoundClass::ALL
                .iter()
                .map(|c| format!("{} {}", row.counts[c.index()], c.name()))
                .collect();
            let headroom = row
                .headroom_mean()
                .map(|h| format!("x{h:.2}"))
                .unwrap_or_else(|| "n/a".to_string());
            let policy = row
                .policy_bound_share()
                .map(|s| format!("{:.0}%", s * 100.0))
                .unwrap_or_else(|| "n/a".to_string());
            out.push_str(&format!(
                "roofline {}: {} | headroom {} | policy-bound {}\n",
                row.lane,
                counts.join(", "),
                headroom,
                policy
            ));
        }
        for s in &self.shards {
            out.push_str(&format!(
                "shard {}: {} batches | {} queries | {} conns{}\n",
                s.shard,
                s.batches,
                s.queries,
                s.conns,
                if s.worker_panics + s.worker_respawns > 0 {
                    format!(
                        " | {} panics, {} respawns",
                        s.worker_panics, s.worker_respawns
                    )
                } else {
                    String::new()
                }
            ));
        }
        if self.worker_panics + self.worker_respawns + self.degraded_queries + self.overload_events
            > 0
        {
            out.push_str(&format!(
                "faults: {} worker panics | {} respawns | {} degraded queries | {} overload events\n",
                self.worker_panics, self.worker_respawns, self.degraded_queries, self.overload_events
            ));
        }
        let targets: Vec<String> = self
            .batch_targets
            .iter()
            .map(|(p, m)| format!("{p}: m* = {m}"))
            .collect();
        out.push_str(&format!(
            "queue high water: {} | model batch targets: {}\n",
            self.queue_high_water,
            targets.join(", ")
        ));
        out.push_str("  batch size   count\n");
        for (&count, hi) in self.batch_hist.iter().zip(BATCH_BUCKETS) {
            if count == 0 {
                continue;
            }
            let label = if hi == usize::MAX {
                "   >256".to_string()
            } else {
                format!("{hi:>7}")
            };
            out.push_str(&format!("  <= {label} {count:>7}\n"));
        }
        if !self.latency.is_empty() {
            out.push_str("  latency (lane/status)     n       p50       p90       p99      p999\n");
            for row in &self.latency {
                let ms = |v: Option<u64>| match v {
                    Some(ns) => format!("{:>8.2}ms", ns as f64 / 1e6),
                    None => "       n/a".to_string(),
                };
                out.push_str(&format!(
                    "  {:<22} {:>5} {} {} {} {}\n",
                    format!("{}/{}", row.lane, row.status),
                    row.hist.count(),
                    ms(row.hist.p50_ns()),
                    ms(row.hist.p90_ns()),
                    ms(row.hist.p99_ns()),
                    ms(row.hist.p999_ns()),
                ));
            }
        }
        match self.drift_ratio() {
            Some(r) => out.push_str(&format!(
                "batch cost: predicted {:.3} ms | measured {:.3} ms | drift x{:.2}\n",
                self.predicted_s * 1e3,
                self.measured_s * 1e3,
                r
            )),
            None => out.push_str("batch cost: no batches executed\n"),
        }
        for (name, s) in &self.predicted_terms {
            out.push_str(&format!("  {:<32} {:>10.3} ms\n", name, s * 1e3));
        }
        out
    }

    /// Prometheus text exposition (version 0.0.4): counters, gauges and
    /// cumulative latency histograms, scrapeable via the `Metrics` wire
    /// op or the server's `--metrics-addr` HTTP listener. Only buckets
    /// that gained samples are emitted (plus `+Inf`); the cumulative
    /// counts stay correct on any `le` grid.
    pub fn render_prometheus(&self) -> String {
        let mut w = Expo::default();
        w.counters("gsknn_", &self.counters());
        w.family(
            "gsknn_flushes_total",
            "counter",
            "Coalescer flushes by trigger.",
        );
        for (reason, v) in [
            ("model", self.flushes.model),
            ("deadline", self.flushes.deadline),
            ("drain", self.flushes.drain),
        ] {
            w.sample("gsknn_flushes_total", &[("reason", reason)], v);
        }
        w.family(
            "gsknn_certify_rows_total",
            "counter",
            "f64 rows of the certified flat path, by outcome.",
        );
        for (outcome, v) in [
            ("certified", self.certified_rows),
            ("fallback", self.certify_fallback_rows),
            ("skipped", self.certify_skipped_rows),
        ] {
            w.sample("gsknn_certify_rows_total", &[("outcome", outcome)], v);
        }
        if !self.roofline.is_empty() {
            w.family(
                "gsknn_roofline_batches_total",
                "counter",
                "Executed batches by binding roofline class.",
            );
            for row in &self.roofline {
                for class in BoundClass::ALL {
                    w.sample(
                        "gsknn_roofline_batches_total",
                        &[("lane", &row.lane), ("bound", class.name())],
                        row.counts[class.index()],
                    );
                }
            }
        }
        if !self.shards.is_empty() {
            type Field = fn(&ShardRow) -> u64;
            let per_shard: [(&str, &str, Field); 5] = [
                (
                    "gsknn_shard_batches_total",
                    "Kernel batches executed, per shard.",
                    |s| s.batches,
                ),
                (
                    "gsknn_shard_queries_total",
                    "Query points answered, per shard.",
                    |s| s.queries,
                ),
                (
                    "gsknn_shard_worker_panics_total",
                    "Batches that panicked, per shard.",
                    |s| s.worker_panics,
                ),
                (
                    "gsknn_shard_worker_respawns_total",
                    "Workspace rebuilds after a panic, per shard.",
                    |s| s.worker_respawns,
                ),
                (
                    "gsknn_shard_connections_total",
                    "Connections adopted from the acceptor, per shard.",
                    |s| s.conns,
                ),
            ];
            for (name, help, get) in per_shard {
                w.family(name, "counter", help);
                for s in &self.shards {
                    w.sample(name, &[("shard", &s.shard.to_string())], get(s));
                }
            }
        }
        w.scalar(
            "gsknn_in_flight",
            "gauge",
            "Query points currently admitted and unanswered.",
            self.in_flight,
        );
        w.scalar(
            "gsknn_overloaded",
            "gauge",
            "1 while the overload detector holds the degraded state.",
            u64::from(self.overloaded),
        );
        w.scalar(
            "gsknn_queue_high_water",
            "gauge",
            "Highest simultaneous in-flight query count observed.",
            self.queue_high_water,
        );
        w.scalar(
            "gsknn_coalesce_ratio",
            "gauge",
            "Fraction of steady-state flushes triggered by the model.",
            format!("{:.6}", self.flushes.coalesce_ratio()),
        );
        if self.roofline.iter().any(|r| r.total() > 0) {
            w.family(
                "gsknn_roofline_headroom",
                "gauge",
                "Mean asymptote-over-achieved on the binding resource.",
            );
            for row in &self.roofline {
                if let Some(h) = row.headroom_mean() {
                    w.sample(
                        "gsknn_roofline_headroom",
                        &[("lane", &row.lane)],
                        format!("{h:.6}"),
                    );
                }
            }
        }
        w.family(
            "gsknn_batch_target",
            "gauge",
            "Model batch-size target m* per lane.",
        );
        for (lane, m) in &self.batch_targets {
            w.sample("gsknn_batch_target", &[("lane", lane)], m);
        }
        w.family("gsknn_batch_size", "histogram", "Coalesced batch sizes.");
        let mut cum = 0u64;
        for (&count, hi) in self.batch_hist.iter().zip(BATCH_BUCKETS) {
            cum += count;
            if count == 0 && hi != usize::MAX {
                continue;
            }
            let le = if hi == usize::MAX {
                "+Inf".to_string()
            } else {
                hi.to_string()
            };
            w.sample("gsknn_batch_size_bucket", &[("le", &le)], cum);
        }
        w.sample("gsknn_batch_size_count", &[], cum);
        if !self.latency.is_empty() {
            w.family(
                "gsknn_request_latency_seconds",
                "histogram",
                "End-to-end request latency (receive to reply written).",
            );
            for row in &self.latency {
                w.histogram(
                    "gsknn_request_latency_seconds",
                    &[("lane", &row.lane), ("status", &row.status)],
                    &row.hist,
                    &row.exemplars,
                );
            }
        }
        w.scalar(
            "gsknn_batch_cost_predicted_seconds_total",
            "counter",
            "Summed model-predicted batch cost.",
            format!("{:.9}", self.predicted_s),
        );
        w.scalar(
            "gsknn_batch_cost_measured_seconds_total",
            "counter",
            "Summed measured kernel wall time.",
            format!("{:.9}", self.measured_s),
        );
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::promparse;
    use crate::{RouterReport, StageBreakdown};

    fn sample() -> ServeReport {
        let mut hist = vec![0u64; BATCH_BUCKETS.len()];
        hist[batch_bucket(1)] += 2;
        hist[batch_bucket(24)] += 3;
        hist[batch_bucket(4096)] += 1;
        ServeReport {
            precisions: vec!["f64".into(), "f32".into()],
            requests: 42,
            queries: 210,
            busy: 3,
            timeouts: 1,
            errors: 2,
            batches: 6,
            worker_panics: 1,
            worker_respawns: 1,
            degraded_queries: 5,
            overload_events: 1,
            flushes: FlushCounts {
                model: 4,
                deadline: 1,
                drain: 1,
            },
            certified_rows: 90,
            certify_fallback_rows: 2,
            certify_skipped_rows: 7,
            roofline: vec![
                RooflineRow {
                    lane: "f64".into(),
                    counts: [1, 0, 3, 0],
                    headroom_sum: 12.0,
                },
                RooflineRow {
                    lane: "f32".into(),
                    counts: [0, 1, 1, 0],
                    headroom_sum: 5.0,
                },
            ],
            shards: vec![
                ShardRow {
                    shard: 0,
                    batches: 4,
                    queries: 140,
                    worker_panics: 0,
                    worker_respawns: 0,
                    conns: 5,
                },
                ShardRow {
                    shard: 1,
                    batches: 2,
                    queries: 70,
                    worker_panics: 1,
                    worker_respawns: 1,
                    conns: 4,
                },
            ],
            batch_hist: hist,
            queue_high_water: 17,
            in_flight: 4,
            overloaded: true,
            latency: vec![
                LatencyRow {
                    lane: "f64".into(),
                    status: "ok".into(),
                    hist: {
                        let mut h = HistSnapshot::new();
                        for ns in [900_000, 1_100_000, 2_000_000, 40_000_000] {
                            h.record_ns(ns);
                        }
                        h
                    },
                    exemplars: Vec::new(),
                },
                LatencyRow {
                    lane: "f32".into(),
                    status: "timeout".into(),
                    hist: {
                        let mut h = HistSnapshot::new();
                        h.record_ns(55_000_000);
                        h
                    },
                    exemplars: Vec::new(),
                },
            ],
            batch_targets: vec![("f64".into(), 48), ("f32".into(), 96)],
            predicted_s: 0.010,
            measured_s: 0.013,
            predicted_terms: vec![
                ("compute (Tf + To)".into(), 0.004),
                ("pack Rc + R2c".into(), 0.006),
            ],
        }
    }

    /// The exposition of [`sample`], pinned byte for byte: moving the
    /// format onto the shared writer must not change a single byte.
    const GOLDEN_PROMETHEUS: &str = r##"# HELP gsknn_requests_total Request frames received (all ops).
# TYPE gsknn_requests_total counter
gsknn_requests_total 42
# HELP gsknn_queries_total Query points answered with a neighbor row.
# TYPE gsknn_queries_total counter
gsknn_queries_total 210
# HELP gsknn_busy_total Requests bounced by admission control.
# TYPE gsknn_busy_total counter
gsknn_busy_total 3
# HELP gsknn_timeouts_total Requests whose latency budget expired before the kernel ran.
# TYPE gsknn_timeouts_total counter
gsknn_timeouts_total 1
# HELP gsknn_errors_total Malformed or failed requests.
# TYPE gsknn_errors_total counter
gsknn_errors_total 2
# HELP gsknn_batches_total Kernel batches executed.
# TYPE gsknn_batches_total counter
gsknn_batches_total 6
# HELP gsknn_worker_panics_total Worker batches that panicked.
# TYPE gsknn_worker_panics_total counter
gsknn_worker_panics_total 1
# HELP gsknn_worker_respawns_total Workers rebuilt after a panic.
# TYPE gsknn_worker_respawns_total counter
gsknn_worker_respawns_total 1
# HELP gsknn_degraded_queries_total f64 queries answered from the f32 lane while shedding load.
# TYPE gsknn_degraded_queries_total counter
gsknn_degraded_queries_total 5
# HELP gsknn_overload_events_total Transitions into the overloaded state.
# TYPE gsknn_overload_events_total counter
gsknn_overload_events_total 1
# HELP gsknn_flushes_total Coalescer flushes by trigger.
# TYPE gsknn_flushes_total counter
gsknn_flushes_total{reason="model"} 4
gsknn_flushes_total{reason="deadline"} 1
gsknn_flushes_total{reason="drain"} 1
# HELP gsknn_certify_rows_total f64 rows of the certified flat path, by outcome.
# TYPE gsknn_certify_rows_total counter
gsknn_certify_rows_total{outcome="certified"} 90
gsknn_certify_rows_total{outcome="fallback"} 2
gsknn_certify_rows_total{outcome="skipped"} 7
# HELP gsknn_roofline_batches_total Executed batches by binding roofline class.
# TYPE gsknn_roofline_batches_total counter
gsknn_roofline_batches_total{lane="f64",bound="compute"} 1
gsknn_roofline_batches_total{lane="f64",bound="bandwidth"} 0
gsknn_roofline_batches_total{lane="f64",bound="coalesce"} 3
gsknn_roofline_batches_total{lane="f64",bound="queue"} 0
gsknn_roofline_batches_total{lane="f32",bound="compute"} 0
gsknn_roofline_batches_total{lane="f32",bound="bandwidth"} 1
gsknn_roofline_batches_total{lane="f32",bound="coalesce"} 1
gsknn_roofline_batches_total{lane="f32",bound="queue"} 0
# HELP gsknn_shard_batches_total Kernel batches executed, per shard.
# TYPE gsknn_shard_batches_total counter
gsknn_shard_batches_total{shard="0"} 4
gsknn_shard_batches_total{shard="1"} 2
# HELP gsknn_shard_queries_total Query points answered, per shard.
# TYPE gsknn_shard_queries_total counter
gsknn_shard_queries_total{shard="0"} 140
gsknn_shard_queries_total{shard="1"} 70
# HELP gsknn_shard_worker_panics_total Batches that panicked, per shard.
# TYPE gsknn_shard_worker_panics_total counter
gsknn_shard_worker_panics_total{shard="0"} 0
gsknn_shard_worker_panics_total{shard="1"} 1
# HELP gsknn_shard_worker_respawns_total Workspace rebuilds after a panic, per shard.
# TYPE gsknn_shard_worker_respawns_total counter
gsknn_shard_worker_respawns_total{shard="0"} 0
gsknn_shard_worker_respawns_total{shard="1"} 1
# HELP gsknn_shard_connections_total Connections adopted from the acceptor, per shard.
# TYPE gsknn_shard_connections_total counter
gsknn_shard_connections_total{shard="0"} 5
gsknn_shard_connections_total{shard="1"} 4
# HELP gsknn_in_flight Query points currently admitted and unanswered.
# TYPE gsknn_in_flight gauge
gsknn_in_flight 4
# HELP gsknn_overloaded 1 while the overload detector holds the degraded state.
# TYPE gsknn_overloaded gauge
gsknn_overloaded 1
# HELP gsknn_queue_high_water Highest simultaneous in-flight query count observed.
# TYPE gsknn_queue_high_water gauge
gsknn_queue_high_water 17
# HELP gsknn_coalesce_ratio Fraction of steady-state flushes triggered by the model.
# TYPE gsknn_coalesce_ratio gauge
gsknn_coalesce_ratio 0.800000
# HELP gsknn_roofline_headroom Mean asymptote-over-achieved on the binding resource.
# TYPE gsknn_roofline_headroom gauge
gsknn_roofline_headroom{lane="f64"} 3.000000
gsknn_roofline_headroom{lane="f32"} 2.500000
# HELP gsknn_batch_target Model batch-size target m* per lane.
# TYPE gsknn_batch_target gauge
gsknn_batch_target{lane="f64"} 48
gsknn_batch_target{lane="f32"} 96
# HELP gsknn_batch_size Coalesced batch sizes.
# TYPE gsknn_batch_size histogram
gsknn_batch_size_bucket{le="1"} 2
gsknn_batch_size_bucket{le="32"} 5
gsknn_batch_size_bucket{le="+Inf"} 6
gsknn_batch_size_count 6
# HELP gsknn_request_latency_seconds End-to-end request latency (receive to reply written).
# TYPE gsknn_request_latency_seconds histogram
gsknn_request_latency_seconds_bucket{lane="f64",status="ok",le="0.000917504"} 1
gsknn_request_latency_seconds_bucket{lane="f64",status="ok",le="0.001310720"} 2
gsknn_request_latency_seconds_bucket{lane="f64",status="ok",le="0.002097152"} 3
gsknn_request_latency_seconds_bucket{lane="f64",status="ok",le="0.041943040"} 4
gsknn_request_latency_seconds_bucket{lane="f64",status="ok",le="+Inf"} 4
gsknn_request_latency_seconds_sum{lane="f64",status="ok"} 0.044000000
gsknn_request_latency_seconds_count{lane="f64",status="ok"} 4
gsknn_request_latency_seconds_bucket{lane="f32",status="timeout",le="0.058720256"} 1
gsknn_request_latency_seconds_bucket{lane="f32",status="timeout",le="+Inf"} 1
gsknn_request_latency_seconds_sum{lane="f32",status="timeout"} 0.055000000
gsknn_request_latency_seconds_count{lane="f32",status="timeout"} 1
# HELP gsknn_batch_cost_predicted_seconds_total Summed model-predicted batch cost.
# TYPE gsknn_batch_cost_predicted_seconds_total counter
gsknn_batch_cost_predicted_seconds_total 0.010000000
# HELP gsknn_batch_cost_measured_seconds_total Summed measured kernel wall time.
# TYPE gsknn_batch_cost_measured_seconds_total counter
gsknn_batch_cost_measured_seconds_total 0.013000000
"##;

    /// The Stats JSON of [`sample`], pinned byte for byte.
    const GOLDEN_JSON: &str = r##"{"experiment":"serve","precisions":["f64","f32"],"requests":42,"queries":210,"busy":3,"timeouts":1,"errors":2,"batches":6,"worker_panics":1,"worker_respawns":1,"degraded_queries":5,"overload_events":1,"flush_model":4,"flush_deadline":1,"flush_drain":1,"coalesce_ratio":0.8,"certified_rows":90,"certify_fallback_rows":2,"certify_skipped_rows":7,"roofline":[{"lane":"f64","compute":1,"bandwidth":0,"coalesce":3,"queue":0,"batches":4,"headroom":3},{"lane":"f32","compute":0,"bandwidth":1,"coalesce":1,"queue":0,"batches":2,"headroom":2.5}],"shards":[{"shard":0,"batches":4,"queries":140,"worker_panics":0,"worker_respawns":0,"conns":5},{"shard":1,"batches":2,"queries":70,"worker_panics":1,"worker_respawns":1,"conns":4}],"batch_hist":[{"le":1,"count":2},{"le":2,"count":0},{"le":4,"count":0},{"le":8,"count":0},{"le":16,"count":0},{"le":32,"count":3},{"le":64,"count":0},{"le":128,"count":0},{"le":256,"count":0},{"le":"inf","count":1}],"queue_high_water":17,"in_flight":4,"overloaded":true,"latency":[{"lane":"f64","status":"ok","count":4,"sum_ns":44000000,"p50_us":1179.648,"p90_us":37748.736,"p99_us":37748.736,"p999_us":37748.736,"buckets":[{"le_ns":917504,"count":1},{"le_ns":1310720,"count":1},{"le_ns":2097152,"count":1},{"le_ns":41943040,"count":1}]},{"lane":"f32","status":"timeout","count":1,"sum_ns":55000000,"p50_us":54525.952,"p90_us":54525.952,"p99_us":54525.952,"p999_us":54525.952,"buckets":[{"le_ns":58720256,"count":1}]}],"batch_targets":[{"precision":"f64","batch_target":48},{"precision":"f32","batch_target":96}],"predicted_s":0.01,"measured_s":0.013,"drift_ratio":1.2999999999999998,"predicted_terms":[{"term":"compute (Tf + To)","predicted_s":0.004},{"term":"pack Rc + R2c","predicted_s":0.006}]}"##;

    #[test]
    fn exposition_matches_the_golden_bytes() {
        assert_eq!(sample().render_prometheus(), GOLDEN_PROMETHEUS);
    }

    #[test]
    fn stats_json_matches_the_golden_bytes() {
        assert_eq!(sample().to_json().to_string(), GOLDEN_JSON);
    }

    #[test]
    fn buckets_cover_all_sizes_monotonically() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 2);
        assert_eq!(batch_bucket(256), 8);
        assert_eq!(batch_bucket(257), 9);
        assert_eq!(batch_bucket(usize::MAX), BATCH_BUCKETS.len() - 1);
        let mut prev = 0;
        for m in 1..2000 {
            let b = batch_bucket(m);
            assert!(b >= prev, "bucket must not decrease at m={m}");
            prev = b;
        }
    }

    #[test]
    fn coalesce_ratio_ignores_drain() {
        let f = FlushCounts {
            model: 3,
            deadline: 1,
            drain: 100,
        };
        assert!((f.coalesce_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(FlushCounts::default().coalesce_ratio(), 0.0);
    }

    #[test]
    fn json_round_trips_counters() {
        let r = sample();
        let text = r.to_json().to_string();
        let back: Value = serde_json::from_str(&text).expect("serve JSON parses");
        assert_eq!(back.get("requests").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(back.get("flush_model").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(back.get("flush_deadline").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(back.get("busy").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(back.get("worker_panics").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            back.get("degraded_queries").and_then(|v| v.as_u64()),
            Some(5)
        );
        assert_eq!(
            back.get("overload_events").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert!((back.get("coalesce_ratio").and_then(|v| v.as_f64()).unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(
            back.get("batch_hist")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(BATCH_BUCKETS.len())
        );
        let drift = back.get("drift_ratio").and_then(|v| v.as_f64()).unwrap();
        assert!((drift - 1.3).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render_table();
        assert!(text.contains("42 requests"));
        assert!(text.contains("coalesce ratio 0.80"));
        assert!(text.contains("m* = 48"));
        assert!(text.contains("drift x1.30"));
        assert!(text.contains("pack Rc + R2c"));
        assert!(text.contains("1 worker panics"));
        assert!(text.contains("5 degraded queries"));
    }

    #[test]
    fn json_carries_latency_rows() {
        let r = sample();
        let back: Value = serde_json::from_str(&r.to_json().to_string()).unwrap();
        assert_eq!(back.get("in_flight").and_then(|v| v.as_u64()), Some(4));
        let rows = back.get("latency").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("lane").and_then(|v| v.as_str()), Some("f64"));
        assert_eq!(rows[0].get("count").and_then(|v| v.as_u64()), Some(4));
        assert!(rows[0].get("p99_us").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn render_table_includes_latency_quantiles() {
        let text = sample().render_table();
        assert!(text.contains("f64/ok"));
        assert!(text.contains("f32/timeout"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = sample().render_prometheus();
        assert!(text.contains("# TYPE gsknn_requests_total counter"));
        assert!(text.contains("gsknn_requests_total 42"));
        assert!(text.contains("gsknn_queries_total 210"));
        assert!(text.contains("gsknn_flushes_total{reason=\"model\"} 4"));
        assert!(text.contains("gsknn_in_flight 4"));
        assert!(text.contains("gsknn_overloaded 1"));
        assert!(text.contains("gsknn_batch_target{lane=\"f64\"} 48"));
        assert!(text.contains("gsknn_request_latency_seconds_count{lane=\"f64\",status=\"ok\"} 4"));
        assert!(text.contains(
            "gsknn_request_latency_seconds_bucket{lane=\"f64\",status=\"ok\",le=\"+Inf\"} 4"
        ));
        // cumulative bucket counts never decrease within a series
        let mut prev = 0u64;
        for line in text.lines().filter(|l| {
            l.starts_with("gsknn_request_latency_seconds_bucket{lane=\"f64\",status=\"ok\"")
        }) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "non-monotone cumulative count in {line}");
            prev = v;
        }
        // every non-comment line is `name{labels} value` or `name value`
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line}"
            );
            assert!(parts.next().is_some());
        }
    }

    #[test]
    fn exemplar_suffixes_render_and_parse() {
        let mut r = sample();
        // attach exemplars to the f64/ok row, built from its samples
        let store = crate::hist::Exemplars::new();
        for (ns, id) in [
            (900_000u64, 0xAAu64),
            (1_100_000, 0xBB),
            (2_000_000, 0xCC),
            (40_000_000, 0xDD),
        ] {
            store.record(ns, id);
        }
        r.latency[0].exemplars = store.snapshot();
        let prom = r.render_prometheus();
        // the slowest bucket's line carries its trace id and seconds
        assert!(
            prom.contains("# {trace_id=\"00000000000000dd\"} 0.040000000"),
            "{prom}"
        );
        // the strict parser accepts the exemplar syntax and surfaces it
        let samples = promparse::parse(&prom).expect("exemplar exposition parses");
        let with_ex: Vec<_> = samples.iter().filter(|s| s.exemplar.is_some()).collect();
        assert_eq!(with_ex.len(), 4, "one exemplar per non-empty bucket");
        for s in &with_ex {
            assert_eq!(s.name, "gsknn_request_latency_seconds_bucket");
            let (labels, value) = s.exemplar.as_ref().unwrap();
            assert_eq!(labels.len(), 1);
            assert_eq!(labels[0].0, "trace_id");
            assert!(*value > 0.0);
        }
        // rows without exemplars render exactly as before
        let plain = sample().render_prometheus();
        assert!(!plain.contains(" # "));
        // malformed exemplar suffixes are rejected
        assert!(promparse::parse("# TYPE m counter\nm 1 # notbraces 2\n").is_err());
        assert!(promparse::parse("# TYPE m counter\nm 1 # {a=\"b\"} x\n").is_err());
        assert!(promparse::parse("# TYPE m counter\nm 1 # {a=\"b\"} 2 3\n").is_err());
    }

    #[test]
    fn fault_line_is_omitted_when_clean() {
        let mut r = sample();
        r.worker_panics = 0;
        r.worker_respawns = 0;
        r.degraded_queries = 0;
        r.overload_events = 0;
        assert!(!r.render_table().contains("faults:"));
    }

    #[test]
    fn no_batches_yields_no_drift() {
        let mut r = sample();
        r.batches = 0;
        r.predicted_s = 0.0;
        r.measured_s = 0.0;
        assert_eq!(r.drift_ratio(), None);
        assert!(r.render_table().contains("no batches executed"));
        assert_eq!(r.to_json().get("drift_ratio"), Some(&Value::Null));
    }

    #[test]
    fn roofline_flows_through_json_table_and_prometheus() {
        let r = sample();
        let back: Value = serde_json::from_str(&r.to_json().to_string()).unwrap();
        let rows = back.get("roofline").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("lane").and_then(|v| v.as_str()), Some("f64"));
        assert_eq!(rows[0].get("coalesce").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(rows[0].get("batches").and_then(|v| v.as_u64()), Some(4));
        assert!((rows[0].get("headroom").and_then(|v| v.as_f64()).unwrap() - 3.0).abs() < 1e-9);

        let table = r.render_table();
        assert!(table.contains("roofline f64: 1 compute, 0 bandwidth, 3 coalesce, 0 queue"));
        assert!(table.contains("headroom x3.00"));
        assert!(table.contains("policy-bound 75%"));

        let prom = r.render_prometheus();
        assert!(prom.contains("# TYPE gsknn_roofline_batches_total counter"));
        assert!(prom.contains("gsknn_roofline_batches_total{lane=\"f64\",bound=\"coalesce\"} 3"));
        assert!(prom.contains("gsknn_roofline_batches_total{lane=\"f32\",bound=\"bandwidth\"} 1"));
        assert!(prom.contains("gsknn_roofline_headroom{lane=\"f64\"} 3.000000"));
    }

    #[test]
    fn shard_rows_flow_through_json_table_and_prometheus() {
        let r = sample();
        let back: Value = serde_json::from_str(&r.to_json().to_string()).unwrap();
        let rows = back.get("shards").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("shard").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(rows[0].get("batches").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(
            rows[1].get("worker_respawns").and_then(|v| v.as_u64()),
            Some(1)
        );

        let table = r.render_table();
        assert!(table.contains("shard 0: 4 batches | 140 queries | 5 conns"));
        assert!(table.contains("shard 1: 2 batches | 70 queries | 4 conns | 1 panics, 1 respawns"));

        let prom = r.render_prometheus();
        assert!(prom.contains("# TYPE gsknn_shard_batches_total counter"));
        assert!(prom.contains("gsknn_shard_batches_total{shard=\"0\"} 4"));
        assert!(prom.contains("gsknn_shard_worker_respawns_total{shard=\"1\"} 1"));
        assert!(prom.contains("gsknn_shard_connections_total{shard=\"1\"} 4"));
        promparse::parse(&prom).expect("shard families parse strictly");
    }

    #[test]
    fn shardless_report_omits_shard_families() {
        let mut r = sample();
        r.shards.clear();
        let prom = r.render_prometheus();
        assert!(!prom.contains("gsknn_shard_"));
        assert!(!r.render_table().contains("shard 0:"));
        promparse::parse(&prom).expect("still parses");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = sample();
        r.batch_targets = vec![("f\"6\\4\nx".into(), 48)];
        let prom = r.render_prometheus();
        assert!(prom.contains("gsknn_batch_target{lane=\"f\\\"6\\\\4\\nx\"} 48"));
        promparse::parse(&prom).expect("escaped exposition still parses strictly");
    }

    #[test]
    fn strict_parser_accepts_the_sample_exposition() {
        let samples = promparse::parse(&sample().render_prometheus()).expect("strictly parses");
        assert!(samples.iter().any(|s| s.name == "gsknn_requests_total"));
        assert!(samples
            .iter()
            .any(|s| s.name == "gsknn_roofline_batches_total"));
        assert!(samples
            .iter()
            .any(|s| s.name == "gsknn_request_latency_seconds_bucket"));
    }

    #[test]
    fn strict_parser_rejects_malformations() {
        // unescaped quote in a label value
        assert!(promparse::parse("# TYPE m counter\nm{l=\"a\"b\"} 1\n").is_err());
        // missing TYPE
        assert!(promparse::parse("orphan_metric 1\n").is_err());
        // non-numeric value
        assert!(promparse::parse("# TYPE m counter\nm nope\n").is_err());
        // negative counter
        assert!(promparse::parse("# TYPE m counter\nm -1\n").is_err());
        // non-monotone histogram buckets
        assert!(promparse::parse(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n"
        )
        .is_err());
        // _count disagreeing with the +Inf bucket
        assert!(
            promparse::parse("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\n").is_err()
        );
    }

    fn tricky_lanes() -> Vec<String> {
        vec![
            "f64".into(),
            "f32".into(),
            "lane \"quoted\"".into(),
            "back\\slash".into(),
            "new\nline".into(),
            "sp ace}brace".into(),
        ]
    }

    fn arbitrary_report(
        lane_idx: usize,
        counters: &[u64],
        roofline_counts: [u64; 4],
        ns_samples: &[u64],
    ) -> ServeReport {
        let lane = tricky_lanes()[lane_idx % tricky_lanes().len()].clone();
        let c = |i: usize| counters.get(i).copied().unwrap_or(0);
        let mut hist = vec![0u64; BATCH_BUCKETS.len()];
        for (i, &v) in counters.iter().enumerate() {
            hist[i % BATCH_BUCKETS.len()] += v % 97;
        }
        let mut latency_hist = HistSnapshot::new();
        for &ns in ns_samples {
            latency_hist.record_ns(ns);
        }
        let total: u64 = roofline_counts.iter().sum();
        ServeReport {
            precisions: vec!["f64".into(), "f32".into()],
            requests: c(0),
            queries: c(1),
            busy: c(2),
            timeouts: c(3),
            errors: c(4),
            batches: c(5),
            worker_panics: c(6),
            worker_respawns: c(7),
            degraded_queries: c(8),
            overload_events: c(9),
            flushes: FlushCounts {
                model: c(10),
                deadline: c(11),
                drain: c(12),
            },
            certified_rows: c(1),
            certify_fallback_rows: c(4),
            certify_skipped_rows: c(2),
            roofline: vec![RooflineRow {
                lane: lane.clone(),
                counts: roofline_counts,
                headroom_sum: total as f64 * 1.5,
            }],
            // fixed shard count and raw (un-modulo'd) counters: the
            // monotone-scrapes property needs every series to persist
            // and grow with its inputs
            shards: (0..2)
                .map(|i| ShardRow {
                    shard: i,
                    batches: c(5),
                    queries: c(1),
                    worker_panics: c(6),
                    worker_respawns: c(7),
                    conns: c(0),
                })
                .collect(),
            batch_hist: hist,
            queue_high_water: c(13),
            in_flight: c(14),
            overloaded: c(15) % 2 == 1,
            latency: if ns_samples.is_empty() {
                vec![]
            } else {
                // exemplars built from the same samples, so every
                // exemplar-bearing bucket line is exercised by the
                // strict-parse property
                let store = crate::hist::Exemplars::new();
                for (i, &ns) in ns_samples.iter().enumerate() {
                    store.record(ns, 0x1000 + i as u64);
                }
                vec![LatencyRow {
                    lane: lane.clone(),
                    status: "ok".into(),
                    hist: latency_hist,
                    exemplars: store.snapshot(),
                }]
            },
            batch_targets: vec![(lane, 1 + c(16) as usize % 512)],
            predicted_s: c(17) as f64 * 1e-6,
            measured_s: c(18) as f64 * 1e-6,
            predicted_terms: vec![("compute (Tf + To)".into(), c(17) as f64 * 1e-6)],
        }
    }

    /// A router report over 1–3 partitions × 1–2 replicas with
    /// arbitrary counters and health; the first backend carries the
    /// latency samples, the rest stay empty.
    fn arbitrary_router_report(counters: &[u64], ns_samples: &[u64]) -> RouterReport {
        let c = |i: usize| counters.get(i).copied().unwrap_or(0);
        let replicas = 1 + (c(0) % 2) as usize;
        let backends = replicas * (1 + (c(1) % 3) as usize);
        let mut latency = HistSnapshot::new();
        for &ns in ns_samples {
            latency.record_ns(ns);
        }
        RouterReport {
            replicas,
            epoch: c(2),
            queries: c(3),
            degraded: c(4),
            hedges: c(5),
            epoch_rejects: c(6),
            rejoins: c(7),
            replica_failovers: c(8),
            replica_hedges_won: c(9),
            replica_hedges_lost: c(10),
            stages: StageBreakdown {
                network_ns: c(11),
                backend_wait_ns: c(12),
                kernel_ns: c(13),
                merge_ns: c(14),
            },
            backend_up: (0..backends).map(|i| (c(15) >> i) & 1 == 0).collect(),
            backend_replies: (0..backends).map(|i| c(16 + i % 3)).collect(),
            backend_errors: (0..backends).map(|i| c(18 - i % 3)).collect(),
            backend_latency: (0..backends)
                .map(|i| {
                    if i == 0 {
                        latency.clone()
                    } else {
                        HistSnapshot::new()
                    }
                })
                .collect(),
        }
    }

    use proptest::prelude::*;

    proptest::proptest! {
        /// Any report — including hostile label values — renders an
        /// exposition the strict 0.0.4 parser accepts, with monotone
        /// histogram buckets (checked inside the parser).
        #[test]
        fn exposition_is_strictly_parseable_for_arbitrary_reports(
            inputs in (
                0usize..6,
                proptest::collection::vec(0u64..1_000_000, 19..20),
                proptest::collection::vec(0u64..50, 4..5),
                proptest::collection::vec(1u64..10_000_000_000, 0..12),
            )
        ) {
            let (lane_idx, counters, rc, ns) = inputs;
            let roofline_counts = [rc[0], rc[1], rc[2], rc[3]];
            let report = arbitrary_report(lane_idx, &counters, roofline_counts, &ns);
            let text = report.render_prometheus();
            let parsed = promparse::parse(&text);
            prop_assert!(parsed.is_ok(), "strict parse failed: {:?}", parsed.err());
            let samples = parsed.unwrap();
            // the roofline counter rows must sum to the recorded batches
            let sum: f64 = samples
                .iter()
                .filter(|s| s.name == "gsknn_roofline_batches_total")
                .map(|s| s.value)
                .sum();
            let expect: u64 = roofline_counts.iter().sum();
            prop_assert!((sum - expect as f64).abs() < 1e-9);

            // the router tier renders through the same writer
            let router = arbitrary_router_report(&counters, &ns);
            let parsed = promparse::parse(&router.render_prometheus());
            prop_assert!(parsed.is_ok(), "router strict parse failed: {:?}", parsed.err());
            let up: f64 = parsed
                .unwrap()
                .iter()
                .filter(|s| s.name == "gsknn_router_backend_up")
                .map(|s| s.value)
                .sum();
            prop_assert_eq!(up as usize, router.healthy());
        }

        /// Counters only grow between scrapes: rendering a report and a
        /// strictly-larger successor yields per-series non-decreasing
        /// counter samples.
        #[test]
        fn counters_are_monotone_across_scrapes(
            inputs in (
                proptest::collection::vec(0u64..1_000_000, 19..20),
                proptest::collection::vec(0u64..1_000, 19..20),
                proptest::collection::vec(0u64..50, 4..5),
            )
        ) {
            let (base, deltas, rc) = inputs;
            let counts_a = [rc[0], rc[1], rc[2], rc[3]];
            let mut counts_b = counts_a;
            for (i, c) in counts_b.iter_mut().enumerate() {
                *c += deltas[i % deltas.len()] % 7;
            }
            let grown: Vec<u64> = base
                .iter()
                .zip(deltas.iter())
                .map(|(b, d)| b + d)
                .collect();
            let a = arbitrary_report(0, &base, counts_a, &[1_000_000]);
            let b = arbitrary_report(0, &grown, counts_b, &[1_000_000, 2_000_000]);
            let counter_families: Vec<String> = {
                let mut fams = Vec::new();
                for line in a.render_prometheus().lines() {
                    if let Some(rest) = line.strip_prefix("# TYPE ") {
                        let mut parts = rest.split(' ');
                        let name = parts.next().unwrap().to_string();
                        if parts.next() == Some("counter") {
                            fams.push(name);
                        }
                    }
                }
                fams
            };
            let sa = promparse::parse(&a.render_prometheus()).unwrap();
            let sb = promparse::parse(&b.render_prometheus()).unwrap();
            for s in &sa {
                if !counter_families.contains(&s.name) {
                    continue;
                }
                let successor = sb
                    .iter()
                    .find(|t| t.name == s.name && t.labels == s.labels);
                prop_assert!(successor.is_some(), "series {} vanished", s.name);
                prop_assert!(
                    successor.unwrap().value >= s.value,
                    "counter {} shrank: {} -> {}",
                    s.name,
                    s.value,
                    successor.unwrap().value
                );
            }
        }
    }
}
