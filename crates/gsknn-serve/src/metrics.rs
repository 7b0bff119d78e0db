//! The server's counters — the one place each serving event is counted:
//! lock-free atomics on the request path, a per-shard mutex only on the
//! per-batch cost sums (one update per flush). Snapshots render as a
//! [`gsknn_obs::ServeReport`], and the per-second `TimeSeries` rows
//! ([`LoadSeries`]) are differences of the same counters, so they sum
//! to the report.
//!
//! [`RooflineRecorder`] classifies every executed batch against the
//! §2.6 machine asymptotes ([`gsknn_obs::roofline`]) and aggregates per
//! (lane × bound-class) counters plus the headroom gauge, surfaced as
//! [`gsknn_obs::RooflineRow`]s in the report. It, the time-series ring
//! and the per-phase kernel counters follow the
//! [`crate::trace::ReqTrace`] discipline: **zero-sized no-ops without
//! the `obs` cargo feature** (the guard test checks the size
//! structurally).

use crate::certify::Rows;
use crate::coalesce::FlushReason;
use crate::wire::Status;
use gsknn_core::model::Approach;
use gsknn_core::obs::PhaseSet;
#[cfg(feature = "obs")]
use gsknn_core::obs::{Phase, PHASE_COUNT};
use gsknn_core::Model;
#[cfg(feature = "obs")]
use gsknn_obs::hist::Exemplars;
use gsknn_obs::hist::LatencyHistogram;
#[cfg(feature = "obs")]
use gsknn_obs::roofline::{classify, RooflineInputs};
use gsknn_obs::serve::{
    batch_bucket, FlushCounts, LatencyRow, ServeReport, ShardRow, BATCH_BUCKETS,
};
use gsknn_obs::timeseries::timeseries_json;
#[cfg(feature = "obs")]
use gsknn_obs::timeseries::LoadSample;
use gsknn_obs::RooflineRow;
use serde_json::Value;
#[cfg(feature = "obs")]
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Lane labels, indexed by lane (0 = f64, 1 = f32).
pub const LANES: [&str; 2] = ["f64", "f32"];

/// Ring length: closed seconds of history the time-series keeps.
pub const WINDOW_S: u64 = 120;

#[derive(Default)]
struct CostSums {
    predicted_s: f64,
    measured_s: f64,
    /// Term name -> summed predicted seconds across batches.
    terms: Vec<(String, f64)>,
}

impl CostSums {
    fn add_term(&mut self, name: &str, s: f64) {
        match self.terms.iter_mut().find(|(n, _)| n == name) {
            Some((_, sum)) => *sum += s,
            None => self.terms.push((name.to_string(), s)),
        }
    }
}

/// One executed batch, as [`ShardStat::record_flush`] counts it.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) struct Batch<'a> {
    /// Lane index into [`LANES`] and its element width in bytes.
    pub lane: usize,
    pub elem_bytes: usize,
    /// The lane's `for_scalar`-rescaled model and how its kernel calls run.
    pub model: &'a Model,
    pub approach: Approach,
    /// Trees searched and the per-kernel-call reference count.
    pub n_trees: usize,
    pub leaf_n: usize,
    /// Query points executed, their dimension, and the batch's `k`.
    pub m: usize,
    pub d: usize,
    pub k: usize,
    /// The lane's model batch target `m*`.
    pub target_m: usize,
    pub predicted_s: f64,
    pub measured_s: f64,
    /// The prediction's named terms (seconds).
    pub terms: &'a [(&'static str, f64)],
    /// The kernel's per-phase time.
    pub phases: &'a PhaseSet,
    /// Query points still admitted beyond this batch at flush time.
    pub backlog: usize,
    /// How the flat f64 lane's certified path answered the rows (all 0
    /// on every other path).
    pub rows: Rows,
}

/// Cumulative kernel nanoseconds per phase, in [`Phase::ALL`] order.
/// Zero-sized and inert without the `obs` feature.
#[derive(Default)]
struct PhaseNs {
    #[cfg(feature = "obs")]
    ns: [AtomicU64; PHASE_COUNT],
}

impl PhaseNs {
    #[inline]
    fn add(&self, phases: &PhaseSet) {
        #[cfg(feature = "obs")]
        for (ns, p) in self.ns.iter().zip(Phase::ALL) {
            ns.fetch_add((phases.seconds(p) * 1e9) as u64, Ordering::Relaxed);
        }
        let _ = phases;
    }
}

/// Per-shard counters — the only home of the flush, batch, query, panic
/// and roofline counts. Each shard thread bumps only its own entry, so
/// the cache line never bounces between cores; the report sums them into
/// the server-wide totals and also keys the roofline rows by shard
/// (`"s0/f64"`) so a single hot shard is visible in the merged report.
#[derive(Default)]
pub struct ShardStat {
    /// Kernel batches this shard executed.
    pub batches: AtomicU64,
    /// Query points this shard answered.
    pub queries: AtomicU64,
    /// Flush decisions by reason (indexed by `FlushReason as usize`),
    /// counting flushes whose every job had already timed out.
    flushes: [AtomicU64; 3],
    /// Executed batches per size bucket ([`BATCH_BUCKETS`]).
    hist: [AtomicU64; BATCH_BUCKETS.len()],
    cost: Mutex<CostSums>,
    /// Batches that panicked in this shard's kernel. Each panic discards
    /// and rebuilds the workspace, so this one count is reported as both
    /// `worker_panics` and `worker_respawns`.
    pub worker_respawns: AtomicU64,
    /// Connections the acceptor round-robined onto this shard (counter,
    /// not a gauge: total adopted over the run).
    pub conns: AtomicU64,
    /// Rows the certified flat path answered from its f64 rerank.
    pub certified_rows: AtomicU64,
    /// Rows whose certificate failed, answered by the full f64 scan.
    pub certify_fallback_rows: AtomicU64,
    /// Rows where the certified path did not pay, answered by the full
    /// f64 scan without trying it.
    pub certify_skipped_rows: AtomicU64,
    /// Per-batch roofline classification, keyed by shard in the report.
    pub roofline: RooflineRecorder,
    phase_ns: PhaseNs,
}

impl ShardStat {
    /// Count one flush decision — the only call a flush makes. `batch`
    /// is what ran, `None` when every held job had already timed out and
    /// no kernel ran (then only the reason counts).
    pub(crate) fn record_flush(&self, reason: FlushReason, batch: Option<&Batch<'_>>) {
        self.flushes[reason as usize].fetch_add(1, Ordering::Relaxed);
        let Some(b) = batch else {
            return;
        };
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(b.m as u64, Ordering::Relaxed);
        self.hist[batch_bucket(b.m)].fetch_add(1, Ordering::Relaxed);
        for (counter, rows) in [
            (&self.certified_rows, b.rows.certified),
            (&self.certify_fallback_rows, b.rows.fallback),
            (&self.certify_skipped_rows, b.rows.skipped),
        ] {
            counter.fetch_add(rows as u64, Ordering::Relaxed);
        }
        {
            let mut cost = self.cost.lock().expect("cost lock poisoned");
            cost.predicted_s += b.predicted_s;
            cost.measured_s += b.measured_s;
            for &(name, s) in b.terms {
                cost.add_term(name, s);
            }
        }
        self.roofline.record_batch(b, reason);
        self.phase_ns.add(b.phases);
    }
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
    /// Query frames received (before admission), and their points.
    arrivals: AtomicU64,
    arrival_points: AtomicU64,
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
    /// In-flight high-water since the time-series last closed a second
    /// (admission's CAS-max); without `obs` nothing closes it, so it is
    /// the lifetime high-water.
    depth_window: AtomicU64,
    /// High-water over every closed window.
    depth_closed: AtomicU64,
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

    /// A query frame of `m` points arrived (counted before admission).
    pub fn count_arrival(&self, m: usize) {
        self.arrivals.fetch_add(1, Ordering::Relaxed);
        self.arrival_points.fetch_add(m as u64, Ordering::Relaxed);
    }

    /// Admit `m` queries against the bound, all-or-nothing: either the
    /// whole request fits under `cap` in-flight queries and the counter
    /// advances, or nothing is admitted (→ `Busy`). CAS keeps this exact
    /// under concurrent connection handlers.
    pub fn admit(&self, m: usize, cap: usize) -> bool {
        let m = m as u64;
        let fits = |cur: u64| (cur + m <= cap as u64).then_some(cur + m);
        match self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, fits)
        {
            Ok(cur) => {
                self.depth_window.fetch_max(cur + m, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
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

    /// Snapshot as a report: the server-wide counts are the shards' sums.
    /// `batch_targets` are the per-lane `m*` constants and `overloaded`
    /// the degradation flag (both live with the server, not the
    /// counters).
    pub fn report(&self, batch_targets: Vec<(String, usize)>, overloaded: bool) -> ServeReport {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut flushes = [0u64; 3];
        let mut batch_hist = vec![0u64; BATCH_BUCKETS.len()];
        let mut cost = CostSums::default();
        let mut shards = Vec::with_capacity(self.shards.len());
        for (i, s) in self.shards.iter().enumerate() {
            for (sum, f) in flushes.iter_mut().zip(&s.flushes) {
                *sum += load(f);
            }
            for (sum, h) in batch_hist.iter_mut().zip(&s.hist) {
                *sum += load(h);
            }
            let c = s.cost.lock().expect("cost lock poisoned");
            cost.predicted_s += c.predicted_s;
            cost.measured_s += c.measured_s;
            for (name, secs) in &c.terms {
                cost.add_term(name, *secs);
            }
            let respawns = load(&s.worker_respawns);
            shards.push(ShardRow {
                shard: i,
                batches: load(&s.batches),
                queries: load(&s.queries),
                worker_panics: respawns,
                worker_respawns: respawns,
                conns: load(&s.conns),
            });
        }
        // the server-wide per-lane rows (shard sums) first, then
        // per-shard rows keyed "s<idx>/<lane>" (skipping shards that ran
        // nothing)
        let mut roofline = RooflineRecorder::sum_rows(self.shards.iter().map(|s| &s.roofline));
        for (i, s) in self.shards.iter().enumerate() {
            for mut r in RooflineRecorder::sum_rows([&s.roofline]) {
                if r.total() > 0 {
                    r.lane = format!("s{i}/{}", r.lane);
                    roofline.push(r);
                }
            }
        }
        let total = |f: fn(&ShardRow) -> u64| shards.iter().map(f).sum();
        let sum = |f: fn(&ShardStat) -> &AtomicU64| self.shards.iter().map(|s| load(f(s))).sum();
        ServeReport {
            precisions: batch_targets.iter().map(|(p, _)| p.clone()).collect(),
            requests: load(&self.requests),
            queries: total(|s| s.queries),
            busy: load(&self.busy),
            timeouts: load(&self.timeouts),
            errors: load(&self.errors),
            batches: total(|s| s.batches),
            worker_panics: total(|s| s.worker_panics),
            worker_respawns: total(|s| s.worker_respawns),
            degraded_queries: load(&self.degraded),
            overload_events: load(&self.overload_events),
            flushes: FlushCounts {
                model: flushes[FlushReason::Model as usize],
                deadline: flushes[FlushReason::Deadline as usize],
                drain: flushes[FlushReason::Drain as usize],
            },
            certified_rows: sum(|s| &s.certified_rows),
            certify_fallback_rows: sum(|s| &s.certify_fallback_rows),
            certify_skipped_rows: sum(|s| &s.certify_skipped_rows),
            roofline,
            shards,
            batch_hist,
            // lifetime: the closed windows' high-water and the open one's
            queue_high_water: load(&self.depth_closed).max(load(&self.depth_window)),
            in_flight: self.in_flight(),
            overloaded,
            latency: self.latency_rows(),
            batch_targets,
            predicted_s: cost.predicted_s,
            measured_s: cost.measured_s,
            predicted_terms: cost.terms,
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

    /// The time-series' view of the counters at second `t_s`: cumulative
    /// counts (all phases, in [`Phase::ALL`] order) and the depth gauges.
    #[cfg(feature = "obs")]
    fn snapshot(&self, t_s: u64) -> LoadSample {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut s = LoadSample {
            t_s,
            arrivals: load(&self.arrivals),
            points: load(&self.arrival_points),
            queue_depth_max: load(&self.depth_window),
            in_flight: self.in_flight(),
            ..LoadSample::default()
        };
        let mut phase_ns = [0u64; PHASE_COUNT];
        for sh in &self.shards {
            s.batches += load(&sh.batches);
            s.batch_points += load(&sh.queries);
            s.flush_model += load(&sh.flushes[FlushReason::Model as usize]);
            s.flush_deadline += load(&sh.flushes[FlushReason::Deadline as usize]);
            s.flush_drain += load(&sh.flushes[FlushReason::Drain as usize]);
            for (sum, ns) in phase_ns.iter_mut().zip(&sh.phase_ns.ns) {
                *sum += load(ns);
            }
        }
        s.phase_ns = Phase::ALL
            .iter()
            .zip(phase_ns)
            .map(|(p, ns)| (p.name().to_string(), ns))
            .collect();
        s
    }

    /// Start a new depth window at the current in-flight count, returning
    /// the closed window's high-water (folded into the lifetime one first,
    /// so a concurrent report never sees the lifetime high-water dip).
    #[cfg(feature = "obs")]
    fn roll_depth_window(&self) -> u64 {
        let fold = |w| self.depth_closed.fetch_max(w, Ordering::Relaxed);
        fold(self.depth_window.load(Ordering::Relaxed));
        let w = self.depth_window.swap(self.in_flight(), Ordering::Relaxed);
        fold(w);
        w
    }
}

/// The time-series row between two snapshots: `now`'s counts less
/// `base`'s, in `base`'s second, with `now`'s gauges.
#[cfg(feature = "obs")]
fn row(base: &LoadSample, now: &LoadSample) -> LoadSample {
    LoadSample {
        t_s: base.t_s,
        arrivals: now.arrivals - base.arrivals,
        points: now.points - base.points,
        batches: now.batches - base.batches,
        batch_points: now.batch_points - base.batch_points,
        flush_model: now.flush_model - base.flush_model,
        flush_deadline: now.flush_deadline - base.flush_deadline,
        flush_drain: now.flush_drain - base.flush_drain,
        queue_depth_max: now.queue_depth_max,
        in_flight: now.in_flight,
        phase_ns: now
            .phase_ns
            .iter()
            .zip(&base.phase_ns)
            .filter(|((_, n), (_, b))| n > b)
            .map(|((name, n), (_, b))| (name.clone(), n - b))
            .collect(),
    }
}

/// The per-second load time-series behind the `TimeSeries` wire op. It
/// counts nothing itself: it keeps [`Metrics`] snapshots taken at each
/// second's close — the overload monitor is the one clock — and a row
/// is the difference of two, so the rows sum to the report. Zero-sized
/// and inert without the `obs` feature.
pub(crate) struct LoadSeries {
    /// Snapshots at the last [`WINDOW_S`] closes, oldest first, after the
    /// all-zero one the server started from; the last opened the live
    /// second.
    #[cfg(feature = "obs")]
    snaps: Mutex<VecDeque<LoadSample>>,
}

impl LoadSeries {
    pub(crate) fn new() -> Self {
        LoadSeries {
            #[cfg(feature = "obs")]
            snaps: Mutex::new(VecDeque::from([LoadSample::default()])),
        }
    }

    /// A monitor tick in second `now_s` since the server epoch. The first
    /// tick of a new second closes the open row, so a second no tick ran
    /// in has no row of its own: its events land in the row before.
    pub(crate) fn tick(&self, now_s: u64, metrics: &Metrics) {
        #[cfg(feature = "obs")]
        {
            let mut snaps = self.snaps.lock().expect("series lock poisoned");
            if snaps.back().is_some_and(|open| now_s > open.t_s) {
                let mut now = metrics.snapshot(now_s);
                now.queue_depth_max = metrics.roll_depth_window();
                if snaps.len() > WINDOW_S as usize {
                    snaps.pop_front();
                }
                snaps.push_back(now);
            }
        }
        let _ = (now_s, metrics);
    }

    /// The `TimeSeries` wire-op body: the closed rows oldest first, then
    /// the live row (the open second's growth so far). With `obs`
    /// compiled out this is a valid `enabled: false` document with no
    /// samples.
    pub(crate) fn to_json(&self, metrics: &Metrics) -> Value {
        #[cfg(feature = "obs")]
        {
            let snaps = self.snaps.lock().expect("series lock poisoned");
            let live = metrics.snapshot(0);
            let ends = snaps.iter().skip(1).chain([&live]);
            let rows: Vec<LoadSample> = snaps.iter().zip(ends).map(|(a, b)| row(a, b)).collect();
            timeseries_json(true, WINDOW_S, &rows)
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = metrics;
            timeseries_json(false, 0, &[])
        }
    }
}

/// Per-batch roofline classifier and (lane × bound-class) aggregator;
/// see the module docs. Zero-sized and inert without the `obs` feature.
#[derive(Default)]
pub struct RooflineRecorder {
    #[cfg(feature = "obs")]
    counts: [[AtomicU64; 4]; 2],
    /// Summed per-batch headroom, fixed-point ×1000, per lane.
    #[cfg(feature = "obs")]
    headroom_milli: [AtomicU64; 2],
}

impl RooflineRecorder {
    /// Classify one executed batch and bump its lane's counters.
    #[inline]
    pub(crate) fn record_batch(&self, b: &Batch<'_>, reason: FlushReason) {
        #[cfg(feature = "obs")]
        {
            let verdict = Self::classify_batch(b, reason);
            self.counts[b.lane][verdict.class.index()].fetch_add(1, Ordering::Relaxed);
            // clamp: a pathological measurement must not wrap the gauge
            let milli = (verdict.headroom.clamp(0.0, 1e9) * 1e3) as u64;
            self.headroom_milli[b.lane].fetch_add(milli, Ordering::Relaxed);
        }
        let _ = (b, reason);
    }

    #[cfg(feature = "obs")]
    fn classify_batch(b: &Batch<'_>, reason: FlushReason) -> gsknn_obs::RooflineVerdict {
        use gsknn_core::ProblemSize;
        let trees = b.n_trees.max(1) as f64;
        let p = ProblemSize {
            m: b.m,
            n: b.leaf_n.max(1),
            d: b.d,
            k: b.k,
        };
        let flops = b.model.flops(&p) * trees;
        // slow-memory elements the model charges the batch, per tree: the
        // references (gather-pack nd + 2n, or one read of prepacked panels
        // nd + n), pack Q (dm + 2m), neighbor writeback (mk)
        let r_norms = match b.approach {
            Approach::Var1Prepacked => b.leaf_n,
            _ => 2 * b.leaf_n,
        };
        let elems = (b.leaf_n * b.d + r_norms + b.d * b.m + 2 * b.m + b.m * b.k) as f64 * trees;
        let mach = b.model.machine();
        let mut mem_s = 0.0;
        let mut compute_s = 0.0;
        for phase in Phase::ALL {
            let seconds = b.phases.seconds(phase);
            match phase {
                Phase::PackR | Phase::PackQ | Phase::Writeback => mem_s += seconds,
                Phase::RankDc | Phase::Select => compute_s += seconds,
            }
        }
        classify(&RooflineInputs {
            flops,
            bytes: elems * b.elem_bytes as f64,
            measured_s: b.measured_s,
            mem_phase_s: mem_s,
            compute_phase_s: compute_s,
            peak_flops_per_s: mach.tau_f,
            peak_bytes_per_s: b.elem_bytes as f64 / mach.tau_b,
            batch_m: b.m,
            target_m: b.target_m,
            deadline_flush: !matches!(reason, FlushReason::Model),
            backlog: b.backlog,
        })
    }

    /// Per-lane aggregate rows summed over `recorders` (the server-wide
    /// rows from the per-shard recorders). Exact: counts and the
    /// fixed-point headroom are summed as integers before the one
    /// conversion. Empty when `obs` is compiled out, one row per lane
    /// otherwise.
    fn sum_rows<'a>(recorders: impl IntoIterator<Item = &'a RooflineRecorder>) -> Vec<RooflineRow> {
        #[cfg(feature = "obs")]
        {
            let mut counts = [[0u64; 4]; 2];
            let mut milli = [0u64; 2];
            for r in recorders {
                for li in 0..LANES.len() {
                    for (ci, c) in counts[li].iter_mut().enumerate() {
                        *c += r.counts[li][ci].load(Ordering::Relaxed);
                    }
                    milli[li] += r.headroom_milli[li].load(Ordering::Relaxed);
                }
            }
            LANES
                .iter()
                .enumerate()
                .map(|(li, lane)| RooflineRow {
                    lane: lane.to_string(),
                    counts: counts[li],
                    headroom_sum: milli[li] as f64 / 1e3,
                })
                .collect()
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = recorders;
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsknn_core::MachineParams;

    fn test_model() -> Model {
        Model::new(MachineParams::ivy_bridge_1core())
    }

    /// A `Var1` batch of `m` points on `lane`, priced as 4 trees of 512
    /// references at d = 16, k = 8 against a target of 64.
    fn batch<'a>(
        model: &'a Model,
        phases: &'a PhaseSet,
        lane: usize,
        m: usize,
        measured_s: f64,
    ) -> Batch<'a> {
        Batch {
            lane,
            elem_bytes: [8, 4][lane],
            model,
            approach: Approach::Var1,
            n_trees: 4,
            leaf_n: 512,
            m,
            d: 16,
            k: 8,
            target_m: 64,
            predicted_s: 0.0,
            measured_s,
            terms: &[],
            phases,
            backlog: 0,
            rows: Rows::default(),
        }
    }

    #[test]
    fn admission_is_all_or_nothing() {
        let m = Metrics::new();
        assert!(m.admit(6, 8));
        assert!(!m.admit(3, 8), "6 + 3 > 8 must be rejected whole");
        assert!(m.admit(2, 8));
        assert_eq!(m.in_flight(), 8);
        m.release(6);
        assert!(m.admit(3, 8));
        assert_eq!(m.report(vec![], false).queue_high_water, 8);
    }

    #[test]
    fn oversized_batch_never_admits() {
        let m = Metrics::new();
        assert!(!m.admit(9, 8));
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn flushes_aggregate_into_the_report() {
        let (model, phases) = (test_model(), PhaseSet::default());
        let m = Metrics::for_shards(2);
        m.requests.fetch_add(3, Ordering::Relaxed);
        let terms = [("pack Rc + R2c", 0.001)];
        let b = Batch {
            predicted_s: 0.002,
            terms: &terms,
            rows: Rows {
                certified: 30,
                fallback: 2,
                skipped: 0,
            },
            ..batch(&model, &phases, 0, 32, 0.003)
        };
        m.shards[0].record_flush(FlushReason::Model, Some(&b));
        let terms = [("pack Rc + R2c", 0.0005)];
        let b = Batch {
            predicted_s: 0.001,
            terms: &terms,
            rows: Rows {
                skipped: 1,
                ..Rows::default()
            },
            ..batch(&model, &phases, 0, 1, 0.001)
        };
        m.shards[1].record_flush(FlushReason::Deadline, Some(&b));
        m.shards[1].record_flush(FlushReason::Drain, None); // all timed out

        let r = m.report(vec![("f64".into(), 32)], false);
        assert_eq!(r.flushes.model, 1);
        assert_eq!(r.flushes.deadline, 1);
        assert_eq!(r.flushes.drain, 1);
        assert_eq!((r.batches, r.queries), (2, 33));
        let rows = (
            r.certified_rows,
            r.certify_fallback_rows,
            r.certify_skipped_rows,
        );
        assert_eq!(rows, (30, 2, 1));
        assert_eq!(r.batch_hist[batch_bucket(32)], 1);
        assert_eq!(r.batch_hist[batch_bucket(1)], 1);
        assert!((r.predicted_s - 0.003).abs() < 1e-15);
        assert!((r.measured_s - 0.004).abs() < 1e-15);
        assert_eq!(r.predicted_terms.len(), 1);
        assert!((r.predicted_terms[0].1 - 0.0015).abs() < 1e-15);
    }

    /// The time-series sums to the report: rows are differences of the
    /// counters the report sums, driven here through synthetic seconds
    /// (0, 1, 3 — the tick skips second 2 — then live in 3).
    #[cfg(feature = "obs")]
    #[test]
    fn timeseries_rows_sum_to_the_report() {
        let (model, phases) = (test_model(), PhaseSet::default());
        let m = Metrics::for_shards(2);
        let series = LoadSeries::new();
        let rows = |series: &LoadSeries| {
            let (enabled, window, rows) =
                gsknn_obs::parse_timeseries(&series.to_json(&m)).expect("document parses");
            assert!(enabled);
            assert_eq!(window, WINDOW_S);
            rows
        };
        let arrive = |shard: usize, pts: usize, reason: FlushReason| {
            m.count_arrival(pts);
            assert!(m.admit(pts, 1024));
            m.shards[shard].record_flush(reason, Some(&batch(&model, &phases, 0, pts, 1e-4)));
            m.release(pts);
        };

        // second 0: two arrivals, depth peaks at 5
        arrive(0, 5, FlushReason::Model);
        arrive(1, 2, FlushReason::Deadline);
        series.tick(0, &m); // same second: closes nothing
        let live = rows(&series);
        assert_eq!(live.len(), 1, "the live row shows before its second closes");
        assert_eq!((live[0].t_s, live[0].arrivals, live[0].points), (0, 2, 7));
        assert_eq!(live[0].queue_depth_max, 5);

        // second 1: one arrival of 3 held in flight, a drain with no kernel
        series.tick(1, &m);
        m.count_arrival(3);
        assert!(m.admit(3, 1024));
        m.shards[1].record_flush(FlushReason::Drain, None);
        // second 2 sees no tick; second 3 closes 1 and its events
        series.tick(3, &m);
        m.release(3);
        arrive(0, 4, FlushReason::Model);

        let rows = rows(&series);
        let t: Vec<u64> = rows.iter().map(|s| s.t_s).collect();
        assert_eq!(t, [0, 1, 3], "closed 0 and 1, live 3; no row for 2");
        let depth: Vec<u64> = rows.iter().map(|s| s.queue_depth_max).collect();
        assert_eq!(depth, [5, 3, 4], "each row's own window high-water");
        assert_eq!(rows[1].in_flight, 3, "gauge as read at the close");

        let r = m.report(vec![("f64".into(), 64)], false);
        let sum = |f: fn(&LoadSample) -> u64| rows.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.arrivals), 4);
        assert_eq!(sum(|s| s.points), 14);
        assert_eq!(sum(|s| s.batches), r.batches);
        assert_eq!(sum(|s| s.batch_points), r.queries);
        assert_eq!(sum(|s| s.flush_model), r.flushes.model);
        assert_eq!(sum(|s| s.flush_deadline), r.flushes.deadline);
        assert_eq!(sum(|s| s.flush_drain), r.flushes.drain);
        assert_eq!((r.batches, r.flushes.drain), (3, 1));
        assert_eq!(r.queue_high_water, *depth.iter().max().unwrap());
    }

    /// Without `obs` the time-series ring, the per-phase counters and
    /// the roofline recorder are zero-sized and inert.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn series_and_phase_counters_are_zero_sized_without_obs() {
        assert_eq!(std::mem::size_of::<LoadSeries>(), 0);
        assert_eq!(std::mem::size_of::<PhaseNs>(), 0);
        assert_eq!(std::mem::size_of::<RooflineRecorder>(), 0);
        let m = Metrics::new();
        let series = LoadSeries::new();
        m.count_arrival(3);
        series.tick(5, &m);
        assert_eq!(series.to_json(&m), timeseries_json(false, 0, &[]));
        assert!(RooflineRecorder::sum_rows([&RooflineRecorder::default()]).is_empty());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn roofline_recorder_classifies_undersized_deadline_flushes() {
        let (model, phases) = (test_model(), PhaseSet::default());
        let r = RooflineRecorder::default();
        // tiny batch, huge target, deadline flush, slow measurement
        r.record_batch(&batch(&model, &phases, 0, 2, 0.005), FlushReason::Deadline);
        // full batch at target, model flush
        r.record_batch(&batch(&model, &phases, 1, 64, 0.005), FlushReason::Model);
        let rows = RooflineRecorder::sum_rows([&r]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].lane, "f64");
        assert_eq!(
            rows[0].counts[gsknn_obs::BoundClass::Coalesce.index()],
            1,
            "undersized deadline flush is coalesce-bound"
        );
        assert_eq!(rows[0].total(), 1);
        assert!(rows[0].headroom_mean().unwrap() > 1.0);
        assert_eq!(
            rows[1].counts[gsknn_obs::BoundClass::Coalesce.index()],
            0,
            "full model-triggered batch is not coalesce-bound"
        );
        assert_eq!(rows[1].total(), 1);
        // per-class counts sum to total batches recorded
        let all: u64 = rows.iter().map(|r| r.total()).sum();
        assert_eq!(all, 2);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn roofline_rows_reach_the_report() {
        let (model, phases) = (test_model(), PhaseSet::default());
        let m = Metrics::new();
        m.shards[0].record_flush(
            FlushReason::Deadline,
            Some(&batch(&model, &phases, 0, 2, 0.004)),
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
        m.shards[1].worker_respawns.fetch_add(1, Ordering::Relaxed);
        m.shards[1].conns.fetch_add(4, Ordering::Relaxed);
        m.shards[1].batches.fetch_add(2, Ordering::Relaxed);
        m.shards[1].queries.fetch_add(5, Ordering::Relaxed);
        m.shards[0].worker_respawns.fetch_add(2, Ordering::Relaxed);
        #[cfg(feature = "obs")]
        {
            let (model, phases) = (test_model(), PhaseSet::default());
            for (shard, lane, m_batch, measured) in
                [(0, 0, 2, 0.004), (1, 0, 64, 0.0001), (1, 1, 3, 0.02)]
            {
                m.shards[shard].roofline.record_batch(
                    &batch(&model, &phases, lane, m_batch, measured),
                    FlushReason::Deadline,
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
            (1, 1, 4),
            "one counter reported as both panics and respawns"
        );
        // the server-wide counters are the shard sums
        assert_eq!(
            (r.batches, r.queries, r.worker_panics, r.worker_respawns),
            (5, 14, 3, 3)
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
        let (model, phases) = (test_model(), PhaseSet::default());
        let m = Metrics::for_shards(2);
        m.shards[1]
            .roofline
            .record_batch(&batch(&model, &phases, 1, 2, 0.004), FlushReason::Deadline);
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
