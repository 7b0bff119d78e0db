//! Router-tier live counters and per-backend latency histograms. Every
//! rendering — Stats JSON, Prometheus exposition, the drain table —
//! goes through one snapshot, [`RouterMetrics::report`].

use gsknn_obs::{LatencyHistogram, RouterReport, StageBreakdown};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-backend tallies: replies folded into merges, exchange failures,
/// and the fan-out→reply latency distribution.
#[derive(Default)]
pub struct BackendStat {
    /// Partials from this backend folded into merged answers.
    pub replies: AtomicU64,
    /// Failed exchanges (connect/send/receive error, bad status, epoch
    /// or shape mismatch) — each one marks the backend down until the
    /// prober sees it answer a ping again.
    pub errors: AtomicU64,
    /// Send → validated-partial latency.
    pub latency: LatencyHistogram,
    /// EWMA (α = 1/4) of the reply latency in nanoseconds, 0 until the
    /// first sample. The router's replica selection prefers the lowest
    /// live EWMA and its hedge-delay model is derived from it.
    pub ewma_ns: AtomicU64,
}

/// Shared router counters. All lock-free; handler threads bump them
/// directly. Each counter is the live value of the like-named
/// [`RouterReport`] field, documented there.
#[derive(Default)]
pub struct RouterMetrics {
    pub queries: AtomicU64,
    pub degraded: AtomicU64,
    pub hedges: AtomicU64,
    pub epoch_rejects: AtomicU64,
    pub rejoins: AtomicU64,
    pub replica_failovers: AtomicU64,
    pub replica_hedges_won: AtomicU64,
    pub replica_hedges_lost: AtomicU64,
    /// Cumulative per-stage nanoseconds, [`StageBreakdown::STAGES`] order.
    stage_ns: [AtomicU64; 4],
    /// Replicas per partition; backends are partition-major.
    replicas: usize,
    backends: Vec<BackendStat>,
}

impl RouterMetrics {
    /// Zeroed metrics for `n` backends serving `n / replicas`
    /// partitions.
    pub fn new(n: usize, replicas: usize) -> Self {
        RouterMetrics {
            replicas: replicas.max(1),
            backends: (0..n).map(|_| BackendStat::default()).collect(),
            ..Self::default()
        }
    }

    /// Stats for backend `i`.
    pub fn backend(&self, i: usize) -> &BackendStat {
        &self.backends[i]
    }

    /// Backend `i`'s EWMA reply latency in nanoseconds (0 = no samples
    /// yet).
    pub fn ewma_ns(&self, i: usize) -> u64 {
        self.backends[i].ewma_ns.load(Ordering::Relaxed)
    }

    /// Record one successful exchange with backend `i`.
    pub fn record_reply(&self, i: usize, rtt: Duration) {
        self.backends[i].replies.fetch_add(1, Ordering::Relaxed);
        self.backends[i].latency.record(rtt);
        let ns = rtt.as_nanos().min(u128::from(u64::MAX)) as u64;
        let _ =
            self.backends[i]
                .ewma_ns
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                    Some(if old == 0 { ns } else { old - old / 4 + ns / 4 })
                });
    }

    /// Fold one routed query's per-stage attribution into the lifetime
    /// counters.
    pub fn record_stages(&self, s: &StageBreakdown) {
        for (counter, ns) in self.stage_ns.iter().zip(s.totals()) {
            counter.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Snapshot every counter, with the live health flags and the
    /// partition-map epoch the router validates against.
    pub fn report(&self, backend_up: Vec<bool>, epoch: u64) -> RouterReport {
        let [network_ns, backend_wait_ns, kernel_ns, merge_ns] =
            self.stage_ns.each_ref().map(|c| c.load(Ordering::Relaxed));
        let per_backend = |f: fn(&BackendStat) -> u64| self.backends.iter().map(f).collect();
        RouterReport {
            replicas: self.replicas,
            epoch,
            queries: self.queries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            epoch_rejects: self.epoch_rejects.load(Ordering::Relaxed),
            rejoins: self.rejoins.load(Ordering::Relaxed),
            replica_failovers: self.replica_failovers.load(Ordering::Relaxed),
            replica_hedges_won: self.replica_hedges_won.load(Ordering::Relaxed),
            replica_hedges_lost: self.replica_hedges_lost.load(Ordering::Relaxed),
            stages: StageBreakdown {
                network_ns,
                backend_wait_ns,
                kernel_ns,
                merge_ns,
            },
            backend_up,
            backend_replies: per_backend(|b| b.replies.load(Ordering::Relaxed)),
            backend_errors: per_backend(|b| b.errors.load(Ordering::Relaxed)),
            backend_latency: self.backends.iter().map(|b| b.latency.snapshot()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Stats JSON and exposition the router rendered before both
    /// moved onto [`RouterReport`], for [`pinned_metrics`].
    const PINNED_JSON: &str = r##"{"role":"router","backends":4,"partitions":2,"replicas":2,"healthy":3,"epoch":7,"queries":11,"degraded":2,"hedges":3,"epoch_rejects":1,"rejoins":5,"replica_failovers":4,"stages":{"network_ns":100,"backend_wait_ns":300,"kernel_ns":500,"merge_ns":100,"network_pct":10,"backend_wait_pct":30,"kernel_pct":50,"merge_pct":10},"replica_hedges_won":6,"replica_hedges_lost":8,"backend_up":[1,0,1,1]}"##;
    const PINNED_EXPOSITION_OUTSIDE_LATENCY: &str = r##"# HELP gsknn_router_queries_total Query requests routed (any outcome).
# TYPE gsknn_router_queries_total counter
gsknn_router_queries_total 11
# HELP gsknn_router_degraded_total Merged answers shipped with partitions missing.
# TYPE gsknn_router_degraded_total counter
gsknn_router_degraded_total 2
# HELP gsknn_router_hedges_total Hedged re-sends after a failed backend exchange.
# TYPE gsknn_router_hedges_total counter
gsknn_router_hedges_total 3
# HELP gsknn_router_epoch_rejects_total Partials rejected for a mismatched partition-map epoch.
# TYPE gsknn_router_epoch_rejects_total counter
gsknn_router_epoch_rejects_total 1
# HELP gsknn_router_rejoins_total Downed backends that rejoined after a successful probe.
# TYPE gsknn_router_rejoins_total counter
gsknn_router_rejoins_total 5
# HELP gsknn_router_replica_failovers_total Fan-out writes failed over to a sibling replica.
# TYPE gsknn_router_replica_failovers_total counter
gsknn_router_replica_failovers_total 4
# HELP gsknn_router_replica_hedges_won_total Hedged sibling replies folded in while the primary never answered.
# TYPE gsknn_router_replica_hedges_won_total counter
gsknn_router_replica_hedges_won_total 6
# HELP gsknn_router_replica_hedges_lost_total Hedges wasted because the primary replica answered after all.
# TYPE gsknn_router_replica_hedges_lost_total counter
gsknn_router_replica_hedges_lost_total 8
# HELP gsknn_router_stage_ns_total Routed-query time attributed per cross-tier stage, nanoseconds.
# TYPE gsknn_router_stage_ns_total counter
gsknn_router_stage_ns_total{stage="network"} 100
gsknn_router_stage_ns_total{stage="backend_wait"} 300
gsknn_router_stage_ns_total{stage="kernel"} 500
gsknn_router_stage_ns_total{stage="merge"} 100
# HELP gsknn_router_backend_up Backend health (1 = in the fan-out).
# TYPE gsknn_router_backend_up gauge
gsknn_router_backend_up{backend="0"} 1
gsknn_router_backend_up{backend="1"} 0
gsknn_router_backend_up{backend="2"} 1
gsknn_router_backend_up{backend="3"} 1
# HELP gsknn_router_replica_up Replica health by partition (1 = in the fan-out).
# TYPE gsknn_router_replica_up gauge
gsknn_router_replica_up{partition="0",replica="0"} 1
gsknn_router_replica_up{partition="0",replica="1"} 0
gsknn_router_replica_up{partition="1",replica="0"} 1
gsknn_router_replica_up{partition="1",replica="1"} 1
# HELP gsknn_router_backend_replies_total Partials folded into merged answers.
# TYPE gsknn_router_backend_replies_total counter
gsknn_router_backend_replies_total{backend="0"} 2
gsknn_router_backend_replies_total{backend="1"} 0
gsknn_router_backend_replies_total{backend="2"} 1
gsknn_router_backend_replies_total{backend="3"} 0
# HELP gsknn_router_backend_errors_total Failed backend exchanges.
# TYPE gsknn_router_backend_errors_total counter
gsknn_router_backend_errors_total{backend="0"} 0
gsknn_router_backend_errors_total{backend="1"} 3
gsknn_router_backend_errors_total{backend="2"} 0
gsknn_router_backend_errors_total{backend="3"} 0
"##;

    /// Four backends (2 partitions × 2 replicas), every counter bumped,
    /// backend 1 down.
    fn pinned_metrics() -> (RouterMetrics, Vec<bool>) {
        let m = RouterMetrics::new(4, 2);
        for (c, v) in [
            (&m.queries, 11),
            (&m.degraded, 2),
            (&m.hedges, 3),
            (&m.epoch_rejects, 1),
            (&m.rejoins, 5),
            (&m.replica_failovers, 4),
            (&m.replica_hedges_won, 6),
            (&m.replica_hedges_lost, 8),
        ] {
            c.fetch_add(v, Ordering::Relaxed);
        }
        m.record_stages(&StageBreakdown {
            network_ns: 100,
            backend_wait_ns: 300,
            kernel_ns: 500,
            merge_ns: 100,
        });
        m.record_reply(0, Duration::from_micros(900));
        m.record_reply(0, Duration::from_millis(2));
        m.record_reply(2, Duration::from_millis(40));
        m.backend(1).errors.fetch_add(3, Ordering::Relaxed);
        (m, vec![true, false, true, true])
    }

    fn sorted_members(v: serde_json::Value) -> Vec<(String, serde_json::Value)> {
        match v {
            serde_json::Value::Object(mut members) => {
                members.sort_by(|a, b| a.0.cmp(&b.0));
                members
            }
            other => panic!("not an object: {other}"),
        }
    }

    #[test]
    fn stats_json_pins_keys_and_values() {
        let (m, up) = pinned_metrics();
        let json = m.report(up, 7).to_json();
        let keys: Vec<&str> = match &json {
            serde_json::Value::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        };
        assert_eq!(
            keys,
            [
                "role",
                "backends",
                "partitions",
                "replicas",
                "healthy",
                "epoch",
                "queries",
                "degraded",
                "hedges",
                "epoch_rejects",
                "rejoins",
                "replica_failovers",
                "replica_hedges_won",
                "replica_hedges_lost",
                "stages",
                "backend_up",
            ]
        );
        assert_eq!(json.get("healthy").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(json.get("hedges").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            sorted_members(json),
            sorted_members(serde_json::from_str(PINNED_JSON).unwrap())
        );
    }

    #[test]
    fn exposition_outside_the_latency_family_is_pinned() {
        let (m, up) = pinned_metrics();
        let text = m.report(up, 7).render_prometheus();
        let kept: String = text
            .lines()
            .filter(|l| !l.contains("gsknn_router_backend_latency_seconds"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(kept, PINNED_EXPOSITION_OUTSIDE_LATENCY);
        // the latency family is a histogram whose _count is its +Inf bucket
        assert!(text.contains("# TYPE gsknn_router_backend_latency_seconds histogram\n"));
        assert!(text.contains(
            "gsknn_router_backend_latency_seconds_bucket{backend=\"0\",le=\"+Inf\"} 2\n"
        ));
        assert!(text.contains("gsknn_router_backend_latency_seconds_count{backend=\"0\"} 2\n"));
        assert!(
            text.contains("gsknn_router_backend_latency_seconds_sum{backend=\"0\"} 0.002900000\n")
        );
    }

    #[test]
    fn exposition_carries_all_families_and_labels() {
        let m = RouterMetrics::new(2, 1);
        m.queries.fetch_add(3, Ordering::Relaxed);
        m.degraded.fetch_add(1, Ordering::Relaxed);
        m.record_reply(0, Duration::from_millis(2));
        m.backend(1).errors.fetch_add(1, Ordering::Relaxed);
        let text = m.report(vec![true, false], 1).render_prometheus();
        assert!(text.contains("gsknn_router_queries_total 3"));
        assert!(text.contains("gsknn_router_degraded_total 1"));
        assert!(text.contains("gsknn_router_replica_failovers_total 0"));
        assert!(text.contains("gsknn_router_replica_hedges_won_total 0"));
        assert!(text.contains("gsknn_router_replica_hedges_lost_total 0"));
        assert!(text.contains("gsknn_router_backend_up{backend=\"0\"} 1"));
        assert!(text.contains("gsknn_router_backend_up{backend=\"1\"} 0"));
        assert!(text.contains("gsknn_router_replica_up{partition=\"0\",replica=\"0\"} 1"));
        assert!(text.contains("gsknn_router_replica_up{partition=\"1\",replica=\"0\"} 0"));
        assert!(text.contains("gsknn_router_backend_replies_total{backend=\"0\"} 1"));
        assert!(text.contains("gsknn_router_backend_errors_total{backend=\"1\"} 1"));
        assert!(text.contains("gsknn_router_backend_latency_seconds_count{backend=\"0\"} 1"));
        assert!(text.contains("gsknn_router_stage_ns_total{stage=\"network\"} 0"));
        assert!(text.contains("gsknn_router_stage_ns_total{stage=\"merge\"} 0"));
    }

    #[test]
    fn stage_attribution_accumulates_and_reaches_the_report() {
        let m = RouterMetrics::new(1, 1);
        m.record_stages(&StageBreakdown {
            network_ns: 100,
            backend_wait_ns: 300,
            kernel_ns: 500,
            merge_ns: 100,
        });
        m.record_stages(&StageBreakdown {
            network_ns: 100,
            backend_wait_ns: 0,
            kernel_ns: 0,
            merge_ns: 0,
        });
        let r = m.report(vec![true], 1);
        assert_eq!(r.stages.totals(), [200, 300, 500, 100]);
        let text = r.render_prometheus();
        assert!(text.contains("gsknn_router_stage_ns_total{stage=\"network\"} 200"));
        assert!(text.contains("gsknn_router_stage_ns_total{stage=\"backend_wait\"} 300"));
        assert!(text.contains("gsknn_router_stage_ns_total{stage=\"kernel\"} 500"));
        assert!(text.contains("gsknn_router_stage_ns_total{stage=\"merge\"} 100"));
        let table = r.render_table();
        assert!(table.contains("stages: network"));
        assert!(table.contains("merge"));
    }

    #[test]
    fn replica_gauge_labels_are_partition_major() {
        let m = RouterMetrics::new(4, 2);
        m.replica_failovers.fetch_add(2, Ordering::Relaxed);
        let text = m
            .report(vec![true, false, true, true], 1)
            .render_prometheus();
        // backend 1 is partition 0's replica 1; backend 2 is partition
        // 1's replica 0
        assert!(text.contains("gsknn_router_replica_up{partition=\"0\",replica=\"1\"} 0"));
        assert!(text.contains("gsknn_router_replica_up{partition=\"1\",replica=\"0\"} 1"));
        assert!(text.contains("gsknn_router_replica_failovers_total 2"));
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let m = RouterMetrics::new(1, 1);
        assert_eq!(m.ewma_ns(0), 0);
        m.record_reply(0, Duration::from_nanos(1000));
        assert_eq!(m.ewma_ns(0), 1000, "first sample seeds the EWMA");
        m.record_reply(0, Duration::from_nanos(2000));
        // 1000 - 1000/4 + 2000/4 = 1250
        assert_eq!(m.ewma_ns(0), 1250);
    }

    #[test]
    fn report_rolls_up_per_backend_tallies() {
        let m = RouterMetrics::new(3, 1);
        m.record_reply(2, Duration::from_micros(10));
        let r = m.report(vec![true, true, false], 1);
        assert_eq!(r.backends(), 3);
        assert_eq!(r.healthy(), 2);
        assert_eq!(r.backend_replies, vec![0, 0, 1]);
        assert!(r
            .render_table()
            .contains("backend 2 (partition 2 replica 0): 1 replies"));
    }
}
