//! Shared server counters: lock-free atomics on the request path,
//! a mutex only on the per-batch cost sums (a few updates per flush).
//! Snapshots render as a [`gsknn_obs::ServeReport`].

use crate::coalesce::FlushReason;
use crate::sampler::RooflineRecorder;
use crate::wire::Status;
#[cfg(feature = "obs")]
use gsknn_obs::hist::Exemplars;
use gsknn_obs::hist::LatencyHistogram;
use gsknn_obs::serve::{
    batch_bucket, FlushCounts, LatencyRow, ServeReport, ShardRow, BATCH_BUCKETS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Lane labels, indexed by lane (0 = f64, 1 = f32).
pub const LANES: [&str; 2] = ["f64", "f32"];

#[derive(Default)]
struct CostSums {
    predicted_s: f64,
    measured_s: f64,
    /// Term name -> summed predicted seconds across batches.
    terms: Vec<(String, f64)>,
}

/// Per-shard counters — the only home of the batch, query, panic and
/// roofline counts. Each shard thread bumps only its own entry, so the
/// cache line never bounces between cores; the report sums them into
/// the server-wide totals and also keys the roofline rows by shard
/// (`"s0/f64"`) so a single hot shard is visible in the merged report.
#[derive(Default)]
pub struct ShardStat {
    /// Kernel batches this shard executed.
    pub batches: AtomicU64,
    /// Query points this shard answered.
    pub queries: AtomicU64,
    /// Batches that panicked in this shard's kernel.
    pub worker_panics: AtomicU64,
    /// Workspace rebuilds after a panic (the shard keeps serving).
    pub worker_respawns: AtomicU64,
    /// Connections the acceptor round-robined onto this shard (counter,
    /// not a gauge: total adopted over the run).
    pub conns: AtomicU64,
    /// Per-batch roofline classification, keyed by shard in the report.
    pub roofline: RooflineRecorder,
}

/// Counters shared by the acceptor, connection handlers and lane workers.
#[derive(Default)]
pub struct Metrics {
    pub requests: AtomicU64,
    pub busy: AtomicU64,
    pub timeouts: AtomicU64,
    pub errors: AtomicU64,
    /// Queries answered from the f32 lane on behalf of f64 clients while
    /// the server was shedding load (`Status::OkDegraded`).
    pub degraded: AtomicU64,
    /// Overload episodes: transitions into the degraded state.
    pub overload_events: AtomicU64,
    flush_model: AtomicU64,
    flush_deadline: AtomicU64,
    flush_drain: AtomicU64,
    hist: [AtomicU64; BATCH_BUCKETS.len()],
    /// End-to-end request latency (frame received → reply written),
    /// log-bucketed, one histogram per lane × terminal status. Lock-free
    /// on the record path; rows with zero samples are skipped in reports.
    latency: [[LatencyHistogram; Status::ALL.len()]; LANES.len()],
    /// Slowest trace id seen per latency bucket, per lane × status —
    /// surfaced as OpenMetrics exemplars so a histogram tail links
    /// straight to a fetchable distributed trace. Compiled out (and the
    /// record path a no-op) without `obs`.
    #[cfg(feature = "obs")]
    exemplars: [[Exemplars; Status::ALL.len()]; LANES.len()],
    in_flight: AtomicU64,
    queue_high_water: AtomicU64,
    cost: Mutex<CostSums>,
    /// One entry per shard (a running server has at least one).
    pub shards: Vec<ShardStat>,
}

impl Metrics {
    /// Counters for a one-shard server.
    pub fn new() -> Self {
        Self::for_shards(1)
    }

    /// Counters for a server running `n` shards.
    pub fn for_shards(n: usize) -> Self {
        Metrics {
            shards: (0..n).map(|_| ShardStat::default()).collect(),
            ..Self::default()
        }
    }

    /// Admit `m` queries against the bound, all-or-nothing: either the
    /// whole request fits under `cap` in-flight queries and the counter
    /// advances, or nothing is admitted (→ `Busy`). CAS keeps this exact
    /// under concurrent connection handlers.
    pub fn admit(&self, m: usize, cap: usize) -> bool {
        let m = m as u64;
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur + m > cap as u64 {
                return false;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + m,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let depth = cur + m;
        let mut high = self.queue_high_water.load(Ordering::Relaxed);
        while depth > high {
            match self.queue_high_water.compare_exchange_weak(
                high,
                depth,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => high = actual,
            }
        }
        true
    }

    /// Release `m` previously admitted queries (reply sent or enqueue
    /// failed).
    pub fn release(&self, m: usize) {
        self.in_flight.fetch_sub(m as u64, Ordering::AcqRel);
    }

    /// Current in-flight query count (telemetry only).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Record one flush decision; `batch_m` is the query count that
    /// actually ran (0 when every held request had already timed out, in
    /// which case no kernel ran and only the flush reason is counted).
    /// The batch and its queries count in the executing shard's
    /// [`ShardStat`].
    pub fn record_flush(
        &self,
        reason: FlushReason,
        batch_m: usize,
        predicted_s: f64,
        measured_s: f64,
        terms: &[(&'static str, f64)],
    ) {
        match reason {
            FlushReason::Model => &self.flush_model,
            FlushReason::Deadline => &self.flush_deadline,
            FlushReason::Drain => &self.flush_drain,
        }
        .fetch_add(1, Ordering::Relaxed);
        if batch_m == 0 {
            return;
        }
        self.hist[batch_bucket(batch_m)].fetch_add(1, Ordering::Relaxed);
        let mut cost = self.cost.lock().unwrap();
        cost.predicted_s += predicted_s;
        cost.measured_s += measured_s;
        for &(name, s) in terms {
            match cost.terms.iter_mut().find(|(n, _)| n == name) {
                Some((_, sum)) => *sum += s,
                None => cost.terms.push((name.to_string(), s)),
            }
        }
    }

    /// Record one finished request's round-trip latency under its lane
    /// and terminal status. `trace_id` feeds the bucket's exemplar: the
    /// slowest request per bucket keeps its id visible in the exposition.
    pub fn record_latency(&self, lane: usize, status: Status, rtt: Duration, trace_id: u64) {
        self.latency[lane][status as usize].record(rtt);
        #[cfg(feature = "obs")]
        self.exemplars[lane][status as usize].record(rtt.as_nanos() as u64, trace_id);
        #[cfg(not(feature = "obs"))]
        let _ = trace_id;
    }

    /// Snapshot as a report. `batch_targets` are the per-lane `m*`
    /// constants and `overloaded` the degradation flag (both live with
    /// the server, not the counters).
    pub fn report(&self, batch_targets: Vec<(String, usize)>, overloaded: bool) -> ServeReport {
        let cost = self.cost.lock().unwrap();
        // the server-wide per-lane rows (shard sums) first, then
        // per-shard rows keyed "s<idx>/<lane>" (skipping shards that ran
        // nothing)
        let mut roofline = RooflineRecorder::sum_rows(self.shards.iter().map(|s| &s.roofline));
        for (i, s) in self.shards.iter().enumerate() {
            roofline.extend(
                s.roofline
                    .rows_keyed(&format!("s{i}"))
                    .into_iter()
                    .filter(|r| r.total() > 0),
            );
        }
        let shards: Vec<ShardRow> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardRow {
                shard: i,
                batches: s.batches.load(Ordering::Relaxed),
                queries: s.queries.load(Ordering::Relaxed),
                worker_panics: s.worker_panics.load(Ordering::Relaxed),
                worker_respawns: s.worker_respawns.load(Ordering::Relaxed),
                conns: s.conns.load(Ordering::Relaxed),
            })
            .collect();
        let total = |f: fn(&ShardRow) -> u64| shards.iter().map(f).sum();
        ServeReport {
            precisions: batch_targets.iter().map(|(p, _)| p.clone()).collect(),
            requests: self.requests.load(Ordering::Relaxed),
            queries: total(|s| s.queries),
            busy: self.busy.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: total(|s| s.batches),
            worker_panics: total(|s| s.worker_panics),
            worker_respawns: total(|s| s.worker_respawns),
            degraded_queries: self.degraded.load(Ordering::Relaxed),
            overload_events: self.overload_events.load(Ordering::Relaxed),
            flushes: FlushCounts {
                model: self.flush_model.load(Ordering::Relaxed),
                deadline: self.flush_deadline.load(Ordering::Relaxed),
                drain: self.flush_drain.load(Ordering::Relaxed),
            },
            roofline,
            shards,
            batch_hist: self
                .hist
                .iter()
                .map(|h| h.load(Ordering::Relaxed))
                .collect(),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            overloaded,
            latency: self.latency_rows(),
            batch_targets,
            predicted_s: cost.predicted_s,
            measured_s: cost.measured_s,
            predicted_terms: cost.terms.clone(),
        }
    }

    /// Non-empty latency histograms as report rows, lane-major.
    fn latency_rows(&self) -> Vec<LatencyRow> {
        let mut rows = Vec::new();
        for (li, lane) in LANES.iter().enumerate() {
            for (si, status) in Status::ALL.iter().enumerate() {
                let hist = self.latency[li][si].snapshot();
                if hist.count() > 0 {
                    rows.push(LatencyRow {
                        lane: lane.to_string(),
                        status: status.label().to_string(),
                        hist,
                        #[cfg(feature = "obs")]
                        exemplars: self.exemplars[li][si].snapshot(),
                        #[cfg(not(feature = "obs"))]
                        exemplars: Vec::new(),
                    });
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_all_or_nothing() {
        let m = Metrics::new();
        assert!(m.admit(6, 8));
        assert!(!m.admit(3, 8), "6 + 3 > 8 must be rejected whole");
        assert!(m.admit(2, 8));
        assert_eq!(m.in_flight(), 8);
        m.release(6);
        assert!(m.admit(3, 8));
        assert_eq!(m.queue_high_water.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn oversized_batch_never_admits() {
        let m = Metrics::new();
        assert!(!m.admit(9, 8));
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn flushes_aggregate_into_the_report() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.record_flush(
            FlushReason::Model,
            32,
            0.002,
            0.003,
            &[("pack Rc + R2c", 0.001)],
        );
        m.record_flush(
            FlushReason::Deadline,
            1,
            0.001,
            0.001,
            &[("pack Rc + R2c", 0.0005)],
        );
        m.record_flush(FlushReason::Drain, 0, 0.0, 0.0, &[]); // all timed out

        let r = m.report(vec![("f64".into(), 32)], false);
        assert_eq!(r.flushes.model, 1);
        assert_eq!(r.flushes.deadline, 1);
        assert_eq!(r.flushes.drain, 1);
        assert_eq!(r.batch_hist[batch_bucket(32)], 1);
        assert_eq!(r.batch_hist[batch_bucket(1)], 1);
        assert!((r.predicted_s - 0.003).abs() < 1e-15);
        assert!((r.measured_s - 0.004).abs() < 1e-15);
        assert_eq!(r.predicted_terms.len(), 1);
        assert!((r.predicted_terms[0].1 - 0.0015).abs() < 1e-15);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn roofline_rows_reach_the_report() {
        use gsknn_core::{MachineParams, Model};
        let m = Metrics::new();
        let model = Model::new(MachineParams::ivy_bridge_1core());
        m.shards[0].roofline.record_batch(
            0,
            8,
            &model,
            gsknn_core::model::Approach::Var1,
            4,
            512,
            2,
            16,
            8,
            64,
            FlushReason::Deadline,
            0.004,
            &gsknn_core::obs::PhaseSet::default(),
            0,
        );
        let r = m.report(vec![("f64".into(), 64)], false);
        // 2 server-wide lane rows + the shard's non-empty f64 row
        assert_eq!(r.roofline.len(), 3);
        assert_eq!(r.roofline[0].lane, "f64");
        assert_eq!(r.roofline[0].total(), 1);
        assert_eq!(
            r.roofline[0].counts[gsknn_obs::BoundClass::Coalesce.index()],
            1
        );
        assert_eq!(r.roofline[1].total(), 0, "f32 lane saw no batches");
        assert_eq!(r.roofline[2].lane, "s0/f64");
        assert_eq!(r.roofline[2].counts, r.roofline[0].counts);
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn roofline_rows_are_empty_without_obs() {
        let m = Metrics::new();
        assert!(m
            .report(vec![("f64".into(), 64)], false)
            .roofline
            .is_empty());
    }

    #[test]
    fn latency_rows_cover_only_populated_cells() {
        let m = Metrics::new();
        m.record_latency(0, Status::Ok, Duration::from_micros(900), 0xA1);
        m.record_latency(0, Status::Ok, Duration::from_micros(1_100), 0xA2);
        m.record_latency(1, Status::Timeout, Duration::from_millis(55), 0xA3);
        let r = m.report(vec![("f64".into(), 32), ("f32".into(), 48)], true);
        assert!(r.overloaded);
        assert_eq!(r.latency.len(), 2, "empty lane × status cells skipped");
        assert_eq!(
            (r.latency[0].lane.as_str(), r.latency[0].status.as_str()),
            ("f64", "ok")
        );
        assert_eq!(r.latency[0].hist.count(), 2);
        assert_eq!(
            (r.latency[1].lane.as_str(), r.latency[1].status.as_str()),
            ("f32", "timeout")
        );
        let p50 = r.latency[1].hist.p50_ns().expect("non-empty histogram");
        assert!(
            (40_000_000..=70_000_000).contains(&p50),
            "p50 {p50} near 55 ms"
        );
    }

    /// Exemplars ride the latency rows: each populated bucket keeps the
    /// slowest request's trace id so the exposition can link to it.
    #[cfg(feature = "obs")]
    #[test]
    fn latency_rows_carry_bucket_exemplars() {
        let m = Metrics::new();
        m.record_latency(0, Status::Ok, Duration::from_micros(900), 0xBEEF);
        m.record_latency(1, Status::Timeout, Duration::from_millis(55), 0xCAFE);
        let rows = m.latency_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].exemplars.len(), 1);
        assert_eq!(rows[0].exemplars[0].trace_id, 0xBEEF);
        assert_eq!(rows[0].exemplars[0].ns, 900_000);
        assert_eq!(rows[1].exemplars[0].trace_id, 0xCAFE);
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn latency_rows_have_no_exemplars_without_obs() {
        let m = Metrics::new();
        m.record_latency(0, Status::Ok, Duration::from_micros(900), 0xBEEF);
        let rows = m.latency_rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].exemplars.is_empty());
    }

    #[test]
    fn shard_stats_reach_the_report_keyed_by_shard() {
        let m = Metrics::for_shards(2);
        m.shards[0].batches.fetch_add(3, Ordering::Relaxed);
        m.shards[0].queries.fetch_add(9, Ordering::Relaxed);
        m.shards[1].worker_panics.fetch_add(1, Ordering::Relaxed);
        m.shards[1].worker_respawns.fetch_add(1, Ordering::Relaxed);
        m.shards[1].conns.fetch_add(4, Ordering::Relaxed);
        m.shards[1].batches.fetch_add(2, Ordering::Relaxed);
        m.shards[1].queries.fetch_add(5, Ordering::Relaxed);
        m.shards[0].worker_panics.fetch_add(2, Ordering::Relaxed);
        #[cfg(feature = "obs")]
        {
            use gsknn_core::{MachineParams, Model};
            let model = Model::new(MachineParams::ivy_bridge_1core());
            for (shard, lane, m_batch, measured) in
                [(0, 0, 2, 0.004), (1, 0, 64, 0.0001), (1, 1, 3, 0.02)]
            {
                m.shards[shard].roofline.record_batch(
                    lane,
                    8,
                    &model,
                    gsknn_core::model::Approach::Var1,
                    4,
                    512,
                    m_batch,
                    16,
                    8,
                    64,
                    FlushReason::Deadline,
                    measured,
                    &gsknn_core::obs::PhaseSet::default(),
                    0,
                );
            }
        }
        let r = m.report(vec![("f64".into(), 32)], false);
        assert_eq!(r.shards.len(), 2);
        assert_eq!(
            (r.shards[0].shard, r.shards[0].batches, r.shards[0].queries),
            (0, 3, 9)
        );
        assert_eq!(
            (
                r.shards[1].worker_panics,
                r.shards[1].worker_respawns,
                r.shards[1].conns
            ),
            (1, 1, 4)
        );
        // the server-wide counters are the shard sums
        assert_eq!(
            (r.batches, r.queries, r.worker_panics, r.worker_respawns),
            (5, 14, 3, 1)
        );
        // and so are the server-wide per-lane roofline rows, in lane order
        #[cfg(feature = "obs")]
        for (li, lane) in LANES.iter().enumerate() {
            let global = &r.roofline[li];
            assert_eq!(global.lane, *lane);
            let shard_rows: Vec<_> = r.roofline[LANES.len()..]
                .iter()
                .filter(|row| row.lane.ends_with(&format!("/{lane}")))
                .collect();
            let mut counts = [0u64; 4];
            for row in &shard_rows {
                for (c, v) in counts.iter_mut().zip(row.counts) {
                    *c += v;
                }
            }
            assert_eq!(global.counts, counts, "{lane}");
            let headroom: f64 = shard_rows.iter().map(|row| row.headroom_sum).sum();
            assert!((global.headroom_sum - headroom).abs() < 1e-9, "{lane}");
        }
        #[cfg(feature = "obs")]
        assert_eq!(r.roofline[0].total(), 2, "one f64 batch per shard");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn shard_roofline_rows_are_keyed_and_sparse() {
        use gsknn_core::{MachineParams, Model};
        let m = Metrics::for_shards(2);
        let model = Model::new(MachineParams::ivy_bridge_1core());
        m.shards[1].roofline.record_batch(
            1,
            4,
            &model,
            gsknn_core::model::Approach::Var1,
            4,
            512,
            2,
            16,
            8,
            64,
            FlushReason::Deadline,
            0.004,
            &gsknn_core::obs::PhaseSet::default(),
            0,
        );
        let r = m.report(vec![("f64".into(), 64)], false);
        // 2 global lane rows + only shard 1's non-empty f32 row
        assert_eq!(r.roofline.len(), 3);
        assert_eq!(r.roofline[2].lane, "s1/f32");
        assert_eq!(r.roofline[2].total(), 1);
    }

    #[test]
    fn concurrent_admission_respects_the_cap() {
        let m = std::sync::Arc::new(Metrics::new());
        let cap = 64usize;
        let admitted: u64 = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let m = m.clone();
                    s.spawn(move || (0..100).filter(|_| m.admit(1, cap)).count() as u64)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(admitted, cap as u64);
        assert_eq!(m.in_flight(), cap as u64);
    }
}
