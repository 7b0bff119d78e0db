//! The windowed load sampler and per-batch roofline recorder.
//!
//! Both follow the [`crate::trace::ReqTrace`] discipline: **zero-sized
//! no-ops without the `obs` cargo feature** (the guard tests below check
//! the size structurally), so the serve hot path pays nothing when
//! observability is compiled out.
//!
//! [`LoadSampler`] keeps a fixed ring of [`WINDOW_S`] per-second slots,
//! each a bundle of atomics: arrival counts, flushed batches and their
//! sizes, flush reasons, the in-flight gauge, and the batch kernels'
//! per-phase nanoseconds summed across *all* requests in that second.
//! The write path is lock-free — writers tag a slot with its absolute
//! second via CAS and `fetch_add` into it; at a second boundary
//! concurrent writers may race the reset and drop a handful of events,
//! which is acceptable for telemetry (the tag CAS guarantees a slot is
//! never attributed to two different seconds for longer than the race
//! window).
//!
//! [`RooflineRecorder`] classifies every executed batch against the
//! §2.6 machine asymptotes ([`gsknn_obs::roofline`]) and aggregates per
//! (lane × bound-class) counters plus the headroom gauge, surfaced as
//! [`gsknn_obs::RooflineRow`]s in the [`gsknn_obs::ServeReport`].

use crate::coalesce::FlushReason;
use gsknn_core::model::Approach;
use gsknn_core::obs::PhaseSet;
use serde_json::Value;

#[cfg(feature = "obs")]
use crate::metrics::LANES;
#[cfg(feature = "obs")]
use gsknn_core::obs::{Phase, PHASE_COUNT};
#[cfg(feature = "obs")]
use gsknn_core::Model;
#[cfg(feature = "obs")]
use gsknn_obs::roofline::{classify, RooflineInputs};
use gsknn_obs::timeseries::timeseries_json;
#[cfg(feature = "obs")]
use gsknn_obs::timeseries::LoadSample;
use gsknn_obs::RooflineRow;
#[cfg(feature = "obs")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "obs")]
use std::time::Instant;

/// Ring length: seconds of history the time-series keeps.
pub const WINDOW_S: u64 = 120;

#[cfg(feature = "obs")]
#[derive(Default)]
struct Slot {
    /// Absolute second + 1 this slot currently holds (0 = never used).
    tag: AtomicU64,
    arrivals: AtomicU64,
    points: AtomicU64,
    batches: AtomicU64,
    batch_points: AtomicU64,
    flush_model: AtomicU64,
    flush_deadline: AtomicU64,
    flush_drain: AtomicU64,
    queue_depth_max: AtomicU64,
    in_flight: AtomicU64,
    phase_ns: [AtomicU64; PHASE_COUNT],
}

#[cfg(feature = "obs")]
impl Slot {
    /// Reset every counter (the tag has already been claimed).
    fn clear(&self) {
        self.arrivals.store(0, Ordering::Relaxed);
        self.points.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batch_points.store(0, Ordering::Relaxed);
        self.flush_model.store(0, Ordering::Relaxed);
        self.flush_deadline.store(0, Ordering::Relaxed);
        self.flush_drain.store(0, Ordering::Relaxed);
        self.queue_depth_max.store(0, Ordering::Relaxed);
        self.in_flight.store(0, Ordering::Relaxed);
        for p in &self.phase_ns {
            p.store(0, Ordering::Relaxed);
        }
    }

    fn max_store(field: &AtomicU64, v: u64) {
        let mut cur = field.load(Ordering::Relaxed);
        while v > cur {
            match field.compare_exchange_weak(cur, v, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(feature = "obs")]
struct SamplerInner {
    epoch: Instant,
    slots: Vec<Slot>,
}

/// Lock-free per-second load sampler; see the module docs. Zero-sized
/// and inert without the `obs` feature.
#[derive(Default)]
pub struct LoadSampler {
    #[cfg(feature = "obs")]
    inner: Option<Box<SamplerInner>>,
}

impl LoadSampler {
    /// A live sampler whose window starts now.
    #[inline]
    pub fn new() -> Self {
        #[cfg(feature = "obs")]
        {
            LoadSampler {
                inner: Some(Box::new(SamplerInner {
                    epoch: Instant::now(),
                    slots: (0..WINDOW_S).map(|_| Slot::default()).collect(),
                })),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            LoadSampler::default()
        }
    }

    /// Claim the slot for the current second, resetting it if its tag is
    /// stale (CAS winner clears; losers write into the fresh slot).
    #[cfg(feature = "obs")]
    fn slot(&self) -> Option<(&Slot, u64)> {
        let inner = self.inner.as_deref()?;
        let sec = inner.epoch.elapsed().as_secs();
        let slot = &inner.slots[(sec % WINDOW_S) as usize];
        let tag = sec + 1;
        let cur = slot.tag.load(Ordering::Acquire);
        if cur != tag
            && slot
                .tag
                .compare_exchange(cur, tag, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            slot.clear();
        }
        Some((slot, sec))
    }

    /// A query request of `m` points arrived (counted before admission).
    #[inline]
    pub fn record_arrival(&self, m: usize) {
        #[cfg(feature = "obs")]
        if let Some((slot, _)) = self.slot() {
            slot.arrivals.fetch_add(1, Ordering::Relaxed);
            slot.points.fetch_add(m as u64, Ordering::Relaxed);
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = m;
        }
    }

    /// A batch flushed: count the reason, and for a non-empty batch the
    /// size and the kernel's per-phase nanoseconds.
    #[inline]
    pub fn record_flush(&self, reason: FlushReason, batch_m: usize, phases: &PhaseSet) {
        #[cfg(feature = "obs")]
        if let Some((slot, _)) = self.slot() {
            match reason {
                FlushReason::Model => &slot.flush_model,
                FlushReason::Deadline => &slot.flush_deadline,
                FlushReason::Drain => &slot.flush_drain,
            }
            .fetch_add(1, Ordering::Relaxed);
            if batch_m == 0 {
                return;
            }
            slot.batches.fetch_add(1, Ordering::Relaxed);
            slot.batch_points
                .fetch_add(batch_m as u64, Ordering::Relaxed);
            for (phase, seconds, _spans) in phases.rows() {
                let idx = Phase::ALL
                    .iter()
                    .position(|&p| p == phase)
                    .expect("phase enumerated in ALL");
                slot.phase_ns[idx].fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (reason, batch_m, phases);
        }
    }

    /// Observe the in-flight gauge (called by the monitor tick and on
    /// arrivals): keeps the per-second max and the latest value.
    #[inline]
    pub fn observe_depth(&self, in_flight: u64) {
        #[cfg(feature = "obs")]
        if let Some((slot, _)) = self.slot() {
            Slot::max_store(&slot.queue_depth_max, in_flight);
            slot.in_flight.store(in_flight, Ordering::Relaxed);
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = in_flight;
        }
    }

    /// The `TimeSeries` wire-op body: every live slot, oldest first.
    /// With `obs` compiled out this is a valid `enabled: false` document
    /// with no samples.
    pub fn to_json(&self) -> Value {
        #[cfg(feature = "obs")]
        {
            if let Some(inner) = self.inner.as_deref() {
                let now = inner.epoch.elapsed().as_secs();
                let mut samples: Vec<LoadSample> = inner
                    .slots
                    .iter()
                    .filter_map(|slot| {
                        let tag = slot.tag.load(Ordering::Acquire);
                        if tag == 0 {
                            return None;
                        }
                        let sec = tag - 1;
                        // a slot is live if its second is inside the window
                        if now >= WINDOW_S && sec + WINDOW_S < now {
                            return None;
                        }
                        Some(LoadSample {
                            t_s: sec,
                            arrivals: slot.arrivals.load(Ordering::Relaxed),
                            points: slot.points.load(Ordering::Relaxed),
                            batches: slot.batches.load(Ordering::Relaxed),
                            batch_points: slot.batch_points.load(Ordering::Relaxed),
                            flush_model: slot.flush_model.load(Ordering::Relaxed),
                            flush_deadline: slot.flush_deadline.load(Ordering::Relaxed),
                            flush_drain: slot.flush_drain.load(Ordering::Relaxed),
                            queue_depth_max: slot.queue_depth_max.load(Ordering::Relaxed),
                            in_flight: slot.in_flight.load(Ordering::Relaxed),
                            phase_ns: Phase::ALL
                                .iter()
                                .enumerate()
                                .filter_map(|(i, p)| {
                                    let ns = slot.phase_ns[i].load(Ordering::Relaxed);
                                    (ns > 0).then(|| (p.name().to_string(), ns))
                                })
                                .collect(),
                        })
                    })
                    .collect();
                samples.sort_by_key(|s| s.t_s);
                return timeseries_json(true, WINDOW_S, &samples);
            }
            timeseries_json(true, WINDOW_S, &[])
        }
        #[cfg(not(feature = "obs"))]
        {
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
    /// Classify one executed batch and bump the lane's counters.
    ///
    /// `model` is the lane's `for_scalar`-rescaled model, `approach` how
    /// its kernel calls run, `leaf_n` the per-kernel-call reference count,
    /// `backlog` the query points still in flight beyond this batch at
    /// flush time.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn record_batch(
        &self,
        lane: usize,
        elem_bytes: usize,
        model: &gsknn_core::Model,
        approach: Approach,
        n_trees: usize,
        leaf_n: usize,
        batch_m: usize,
        d: usize,
        k: usize,
        target_m: usize,
        reason: FlushReason,
        measured_s: f64,
        phases: &PhaseSet,
        backlog: usize,
    ) {
        #[cfg(feature = "obs")]
        {
            let verdict = Self::classify_batch(
                elem_bytes, model, approach, n_trees, leaf_n, batch_m, d, k, target_m, reason,
                measured_s, phases, backlog,
            );
            self.counts[lane][verdict.class.index()].fetch_add(1, Ordering::Relaxed);
            // clamp: a pathological measurement must not wrap the gauge
            let milli = (verdict.headroom.clamp(0.0, 1e9) * 1e3) as u64;
            self.headroom_milli[lane].fetch_add(milli, Ordering::Relaxed);
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (
                lane, elem_bytes, model, approach, n_trees, leaf_n, batch_m, d, k, target_m,
                reason, measured_s, phases, backlog,
            );
        }
    }

    #[cfg(feature = "obs")]
    #[allow(clippy::too_many_arguments)]
    fn classify_batch(
        elem_bytes: usize,
        model: &Model,
        approach: Approach,
        n_trees: usize,
        leaf_n: usize,
        batch_m: usize,
        d: usize,
        k: usize,
        target_m: usize,
        reason: FlushReason,
        measured_s: f64,
        phases: &PhaseSet,
        backlog: usize,
    ) -> gsknn_obs::RooflineVerdict {
        use gsknn_core::ProblemSize;
        let trees = n_trees.max(1) as f64;
        let p = ProblemSize {
            m: batch_m,
            n: leaf_n.max(1),
            d,
            k,
        };
        let flops = model.flops(&p) * trees;
        // slow-memory elements the model charges the batch, per tree: the
        // references (gather-pack nd + 2n, or one read of prepacked panels
        // nd + n), pack Q (dm + 2m), neighbor writeback (mk)
        let r_norms = match approach {
            Approach::Var1Prepacked => leaf_n,
            _ => 2 * leaf_n,
        };
        let elems = (leaf_n * d + r_norms + d * batch_m + 2 * batch_m + batch_m * k) as f64 * trees;
        let mach = model.machine();
        let mut mem_s = 0.0;
        let mut compute_s = 0.0;
        for (phase, seconds, _spans) in phases.rows() {
            match phase {
                Phase::PackR | Phase::PackQ | Phase::Writeback => mem_s += seconds,
                Phase::RankDc | Phase::Select => compute_s += seconds,
            }
        }
        classify(&RooflineInputs {
            flops,
            bytes: elems * elem_bytes as f64,
            measured_s,
            mem_phase_s: mem_s,
            compute_phase_s: compute_s,
            peak_flops_per_s: mach.tau_f,
            peak_bytes_per_s: elem_bytes as f64 / mach.tau_b,
            batch_m,
            target_m,
            deadline_flush: !matches!(reason, FlushReason::Model),
            backlog,
        })
    }

    /// Per-lane aggregate rows summed over `recorders` (the server-wide
    /// rows from the per-shard recorders). Exact: counts and the
    /// fixed-point headroom are summed as integers before the one
    /// conversion. Empty when `obs` is compiled out, one row per lane
    /// otherwise.
    pub(crate) fn sum_rows<'a>(
        recorders: impl IntoIterator<Item = &'a RooflineRecorder>,
    ) -> Vec<RooflineRow> {
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

    /// This recorder's rows with lane labels prefixed (`"s0/f64"`):
    /// per-shard recorders stay distinguishable when merged into one
    /// report.
    pub fn rows_keyed(&self, prefix: &str) -> Vec<RooflineRow> {
        let mut rows = Self::sum_rows([self]);
        for r in &mut rows {
            r.lane = format!("{prefix}/{}", r.lane);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ReqTrace discipline extended to the new recorders: without
    /// `obs` both are zero-sized and every method an inert no-op.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn sampler_and_roofline_are_zero_sized_without_obs() {
        assert_eq!(std::mem::size_of::<LoadSampler>(), 0);
        assert_eq!(std::mem::size_of::<RooflineRecorder>(), 0);
        let s = LoadSampler::new();
        s.record_arrival(3);
        s.record_flush(FlushReason::Model, 3, &PhaseSet::default());
        s.observe_depth(7);
        let doc = s.to_json();
        assert_eq!(doc.get("enabled").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(
            doc.get("samples").and_then(|v| v.as_array()).map(Vec::len),
            Some(0)
        );
        let r = RooflineRecorder::default();
        assert!(RooflineRecorder::sum_rows([&r]).is_empty());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn sampler_accumulates_per_second_slots() {
        let s = LoadSampler::new();
        s.record_arrival(1);
        s.record_arrival(4);
        s.record_flush(FlushReason::Deadline, 5, &PhaseSet::default());
        s.record_flush(FlushReason::Drain, 0, &PhaseSet::default());
        s.observe_depth(9);
        s.observe_depth(2);
        let doc = s.to_json();
        assert_eq!(doc.get("enabled").and_then(|v| v.as_bool()), Some(true));
        let (enabled, window, samples) =
            gsknn_obs::parse_timeseries(&doc).expect("sampler JSON parses");
        assert!(enabled);
        assert_eq!(window, WINDOW_S);
        assert_eq!(samples.len(), 1, "all activity lands in the epoch second");
        let s0 = &samples[0];
        assert_eq!(s0.arrivals, 2);
        assert_eq!(s0.points, 5);
        assert_eq!(s0.batches, 1);
        assert_eq!(s0.batch_points, 5);
        assert_eq!(s0.flush_deadline, 1);
        assert_eq!(s0.flush_drain, 1);
        assert_eq!(s0.queue_depth_max, 9);
        assert_eq!(s0.in_flight, 2);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn sampler_is_safe_under_concurrent_writers() {
        let s = std::sync::Arc::new(LoadSampler::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        s.record_arrival(1);
                        s.observe_depth(3);
                    }
                });
            }
        });
        let (_, _, samples) = gsknn_obs::parse_timeseries(&s.to_json()).unwrap();
        let total: u64 = samples.iter().map(|x| x.arrivals).sum();
        assert_eq!(total, 2000, "no events lost without a second boundary");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn roofline_recorder_classifies_undersized_deadline_flushes() {
        use gsknn_core::{MachineParams, Model};
        let r = RooflineRecorder::default();
        let model = Model::new(MachineParams::ivy_bridge_1core());
        // tiny batch, huge target, deadline flush, slow measurement
        r.record_batch(
            0,
            8,
            &model,
            Approach::Var1,
            4,
            512,
            2,
            16,
            8,
            64,
            FlushReason::Deadline,
            0.005,
            &PhaseSet::default(),
            0,
        );
        // full batch at target, model flush
        r.record_batch(
            1,
            4,
            &model,
            Approach::Var1,
            4,
            512,
            64,
            16,
            8,
            64,
            FlushReason::Model,
            0.005,
            &PhaseSet::default(),
            0,
        );
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
}
