//! Router-tier observability: the [`RouterReport`] summarizing one
//! scatter-gather router run (or a live snapshot). Like
//! [`crate::ServeReport`] it is the tier's one snapshot, rendered three
//! ways — the `Stats` wire-op JSON, the drain table, and the Prometheus
//! exposition (`gsknn_router_*` families, wire `Metrics` op or
//! `--metrics-addr` HTTP).

use crate::expo::{Counter, Expo};
use crate::hist::HistSnapshot;
use crate::report::StageBreakdown;
use serde_json::Value;
use std::fmt::Write as _;

/// Router counters, backend health and per-backend tallies at one
/// instant. Backends are partition-major: backend `i` is replica
/// `i % replicas` of partition `i / replicas`.
#[derive(Clone, Debug)]
pub struct RouterReport {
    /// Replicas per partition.
    pub replicas: usize,
    /// Partition-map epoch partials are validated against.
    pub epoch: u64,
    /// Query/batch requests routed (any outcome).
    pub queries: u64,
    /// Merged answers that shipped with partitions missing
    /// (`Status::OkDegraded` + partial envelope).
    pub degraded: u64,
    /// Hedged re-sends: a retry on a fresh connection after a failed
    /// exchange, or a race against a sibling of a quiet primary replica.
    pub hedges: u64,
    /// Partials rejected for carrying a different partition-map epoch
    /// than the router's.
    pub epoch_rejects: u64,
    /// Downed backends that passed a liveness probe and rejoined the
    /// fan-out.
    pub rejoins: u64,
    /// Failovers: a sibling replica answered for a partition whose
    /// preferred replica refused the fan-out write or never replied.
    pub replica_failovers: u64,
    /// Hedges that turned out necessary: the sibling's reply was folded
    /// into the merge while the primary never produced a valid one.
    pub replica_hedges_won: u64,
    /// Hedges that turned out wasted: the primary answered after the
    /// hedge to a sibling had already fired.
    pub replica_hedges_lost: u64,
    /// Cumulative per-stage time attribution across routed queries, fed
    /// by the stitched-trace attribution on every routed query.
    pub stages: StageBreakdown,
    /// Per-backend health (`true` = in the fan-out); one entry per
    /// backend, like every `backend_*` vector.
    pub backend_up: Vec<bool>,
    /// Per-backend partials folded into merged answers.
    pub backend_replies: Vec<u64>,
    /// Per-backend failed exchanges.
    pub backend_errors: Vec<u64>,
    /// Per-backend send → validated-partial latency.
    pub backend_latency: Vec<HistSnapshot>,
}

impl RouterReport {
    /// Backends in the fan-out (partitions × replicas).
    pub fn backends(&self) -> usize {
        self.backend_up.len()
    }

    /// Partitions in the fan-out.
    pub fn partitions(&self) -> usize {
        self.backends() / self.replicas.max(1)
    }

    /// Backends currently in the fan-out.
    pub fn healthy(&self) -> usize {
        self.backend_up.iter().filter(|&&u| u).count()
    }

    /// The scalar counters, declared once for the Stats JSON and the
    /// exposition (`gsknn_router_<key>_total`).
    fn counters(&self) -> [Counter; 8] {
        [
            (
                "queries",
                "Query requests routed (any outcome).",
                self.queries,
            ),
            (
                "degraded",
                "Merged answers shipped with partitions missing.",
                self.degraded,
            ),
            (
                "hedges",
                "Hedged re-sends after a failed backend exchange.",
                self.hedges,
            ),
            (
                "epoch_rejects",
                "Partials rejected for a mismatched partition-map epoch.",
                self.epoch_rejects,
            ),
            (
                "rejoins",
                "Downed backends that rejoined after a successful probe.",
                self.rejoins,
            ),
            (
                "replica_failovers",
                "Fan-out writes failed over to a sibling replica.",
                self.replica_failovers,
            ),
            (
                "replica_hedges_won",
                "Hedged sibling replies folded in while the primary never answered.",
                self.replica_hedges_won,
            ),
            (
                "replica_hedges_lost",
                "Hedges wasted because the primary replica answered after all.",
                self.replica_hedges_lost,
            ),
        ]
    }

    /// JSON value for machine consumption (the `Stats` wire op body).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("role".into(), Value::from("router")),
            ("backends".into(), Value::from(self.backends())),
            ("partitions".into(), Value::from(self.partitions())),
            ("replicas".into(), Value::from(self.replicas)),
            ("healthy".into(), Value::from(self.healthy())),
            ("epoch".into(), Value::from(self.epoch)),
        ];
        fields.extend(
            self.counters()
                .map(|(key, _, v)| (key.to_string(), Value::from(v))),
        );
        let up: Vec<u64> = self.backend_up.iter().map(|&u| u64::from(u)).collect();
        fields.push(("stages".into(), self.stages.to_json()));
        fields.push(("backend_up".into(), Value::from(up)));
        Value::Object(fields)
    }

    /// Plain-text rendering for the CLI.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "router: {} queries over {} backends ({} partitions x {} replicas, {} healthy at drain)",
            self.queries,
            self.backends(),
            self.partitions(),
            self.replicas,
            self.healthy()
        );
        let _ = writeln!(
            out,
            "  degraded {} | hedges {} | epoch rejects {} | rejoins {}",
            self.degraded, self.hedges, self.epoch_rejects, self.rejoins
        );
        let _ = writeln!(
            out,
            "  replica failovers {} | hedges won {} | hedges lost {}",
            self.replica_failovers, self.replica_hedges_won, self.replica_hedges_lost
        );
        if self.stages.total_ns() > 0 {
            let _ = writeln!(out, "  stages: {}", self.stages.render_line());
        }
        for i in 0..self.backends() {
            let _ = writeln!(
                out,
                "  backend {i} (partition {} replica {}): {} replies, {} errors",
                i / self.replicas.max(1),
                i % self.replicas.max(1),
                self.backend_replies[i],
                self.backend_errors[i]
            );
        }
        out
    }

    /// Prometheus text exposition (version 0.0.4): the router counters,
    /// the stage attribution, per-backend and per-replica health gauges,
    /// per-backend tallies and one latency histogram per backend.
    pub fn render_prometheus(&self) -> String {
        let mut w = Expo::default();
        w.counters("gsknn_router_", &self.counters());
        w.family(
            "gsknn_router_stage_ns_total",
            "counter",
            "Routed-query time attributed per cross-tier stage, nanoseconds.",
        );
        for (stage, ns) in StageBreakdown::STAGES.into_iter().zip(self.stages.totals()) {
            w.sample("gsknn_router_stage_ns_total", &[("stage", stage)], ns);
        }
        let r = self.replicas.max(1);
        let ids: Vec<String> = (0..self.backends()).map(|i| i.to_string()).collect();
        w.family(
            "gsknn_router_backend_up",
            "gauge",
            "Backend health (1 = in the fan-out).",
        );
        for (id, &up) in ids.iter().zip(&self.backend_up) {
            w.sample("gsknn_router_backend_up", &[("backend", id)], u8::from(up));
        }
        w.family(
            "gsknn_router_replica_up",
            "gauge",
            "Replica health by partition (1 = in the fan-out).",
        );
        for (i, &up) in self.backend_up.iter().enumerate() {
            w.sample(
                "gsknn_router_replica_up",
                &[
                    ("partition", &(i / r).to_string()),
                    ("replica", &(i % r).to_string()),
                ],
                u8::from(up),
            );
        }
        for (name, help, per_backend) in [
            (
                "gsknn_router_backend_replies_total",
                "Partials folded into merged answers.",
                &self.backend_replies,
            ),
            (
                "gsknn_router_backend_errors_total",
                "Failed backend exchanges.",
                &self.backend_errors,
            ),
        ] {
            w.family(name, "counter", help);
            for (id, v) in ids.iter().zip(per_backend) {
                w.sample(name, &[("backend", id)], v);
            }
        }
        w.family(
            "gsknn_router_backend_latency_seconds",
            "histogram",
            "Send-to-partial latency.",
        );
        for (id, hist) in ids.iter().zip(&self.backend_latency) {
            w.histogram(
                "gsknn_router_backend_latency_seconds",
                &[("backend", id)],
                hist,
                &[],
            );
        }
        w.finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expo::promparse;

    /// Four backends (2 partitions × 2 replicas), backend 1 down,
    /// latency samples on backends 0 and 2.
    pub(crate) fn sample() -> RouterReport {
        let hist = |samples: &[u64]| {
            let mut h = HistSnapshot::new();
            for &ns in samples {
                h.record_ns(ns);
            }
            h
        };
        RouterReport {
            replicas: 2,
            epoch: 7,
            queries: 11,
            degraded: 2,
            hedges: 3,
            epoch_rejects: 1,
            rejoins: 5,
            replica_failovers: 4,
            replica_hedges_won: 6,
            replica_hedges_lost: 8,
            stages: StageBreakdown {
                network_ns: 100,
                backend_wait_ns: 300,
                kernel_ns: 500,
                merge_ns: 100,
            },
            backend_up: vec![true, false, true, true],
            backend_replies: vec![2, 0, 1, 0],
            backend_errors: vec![0, 3, 0, 0],
            backend_latency: vec![
                hist(&[900_000, 2_000_000]),
                hist(&[]),
                hist(&[40_000_000]),
                hist(&[]),
            ],
        }
    }

    #[test]
    fn exposition_is_strictly_parseable() {
        let text = sample().render_prometheus();
        let samples = promparse::parse(&text).expect("router exposition parses strictly");
        // one histogram series per backend, down or not, each closed by
        // +Inf, _sum and _count
        let count = |name: &str| samples.iter().filter(|s| s.name == name).count();
        assert_eq!(count("gsknn_router_backend_latency_seconds_count"), 4);
        assert_eq!(count("gsknn_router_backend_latency_seconds_sum"), 4);
        assert!(text.contains("# TYPE gsknn_router_backend_latency_seconds histogram\n"));
        assert!(text.contains(
            "gsknn_router_backend_latency_seconds_bucket{backend=\"0\",le=\"+Inf\"} 2\n"
        ));
        assert!(
            text.contains("gsknn_router_backend_latency_seconds_sum{backend=\"0\"} 0.002900000\n")
        );
        assert!(text.contains("gsknn_router_backend_latency_seconds_count{backend=\"1\"} 0\n"));
        assert!(text.contains("gsknn_router_backend_up{backend=\"1\"} 0\n"));
        assert!(text.contains("gsknn_router_replica_up{partition=\"0\",replica=\"1\"} 0\n"));
        // the summary shape the family replaced (quantiles and _count,
        // no _sum) is what the strict parser refused
        assert!(promparse::parse(
            "# TYPE l summary\nl{backend=\"0\",quantile=\"0.5\"} 0.1\nl_count{backend=\"0\"} 1\n"
        )
        .is_err());
    }

    #[test]
    fn counters_render_once_under_the_derived_names() {
        let r = sample();
        let text = r.render_prometheus();
        let json = r.to_json();
        for (key, help, v) in r.counters() {
            let name = format!("gsknn_router_{key}_total");
            assert!(text.contains(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            )));
            assert_eq!(json.get(key).and_then(|x| x.as_u64()), Some(v), "{key}");
        }
    }

    #[test]
    fn table_summarizes_health_and_backends() {
        let table = sample().render_table();
        assert!(table.contains(
            "router: 11 queries over 4 backends (2 partitions x 2 replicas, 3 healthy at drain)"
        ));
        assert!(table.contains("backend 1 (partition 0 replica 1): 0 replies, 3 errors"));
        assert!(table.contains("stages: network"));
    }
}
