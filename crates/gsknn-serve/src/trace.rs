//! The server-side request trace recorder.
//!
//! [`ReqTrace`] rides along with a request: created by the connection
//! handler when a query frame decodes, carried inside the [`Job`]
//! through the lane channel, filled in by the worker (coalesce wait,
//! amortized kernel phases), and finished back on the connection thread
//! after the reply is written. [`ReqTrace::finish`] converts it into a
//! [`gsknn_obs::Trace`] for the slowest-traces ring.
//!
//! Mirrors the [`gsknn_core::obs::PhaseSet`] discipline: without the
//! `obs` cargo feature the struct is **zero-sized** and every method is
//! an inlined no-op, so the serve hot path carries no span bookkeeping
//! and no allocations (the guard test below checks the size
//! structurally, like `gsknn-core/tests/obs_guard.rs` does for the
//! kernel).
//!
//! [`Job`]: crate::server — the lane job struct
//!
//! Span amortization: a coalesced batch runs the kernel once for all
//! its requests, so per-request kernel-phase spans are the batch's
//! phase totals scaled by the request's share of the batch (`m / m_live`
//! query points). The synthetic spans are laid out sequentially after
//! the coalesce wait; their durations — not their exact offsets — are
//! the signal.

use gsknn_core::obs::PhaseSet;
use gsknn_obs::Trace;
#[cfg(feature = "obs")]
use gsknn_obs::TraceSpan;
use std::time::Duration;
use std::time::Instant;

#[cfg(feature = "obs")]
struct Inner {
    /// Request receive time (span starts are relative to this).
    t0: Instant,
    /// `t0` in microseconds since the server epoch.
    t0_us: f64,
    spans: Vec<TraceSpan>,
    /// When the job entered its lane channel (coalesce wait start).
    enqueued: Option<Instant>,
    m: usize,
    k: usize,
}

/// Per-request span recorder; see the module docs. Zero-sized and inert
/// without the `obs` feature.
#[derive(Default)]
pub(crate) struct ReqTrace {
    #[cfg(feature = "obs")]
    inner: Option<Box<Inner>>,
}

impl ReqTrace {
    /// An inert recorder (jobs built outside a live request, e.g. in
    /// the shard unit tests).
    #[inline]
    #[allow(dead_code)]
    pub fn off() -> Self {
        Self::default()
    }

    /// Start recording a request received at `t0`, `epoch` being the
    /// server start (for absolute span placement in the export).
    #[inline]
    pub fn start(epoch: Instant, t0: Instant) -> Self {
        #[cfg(feature = "obs")]
        {
            ReqTrace {
                inner: Some(Box::new(Inner {
                    t0,
                    t0_us: t0.duration_since(epoch).as_secs_f64() * 1e6,
                    spans: Vec::with_capacity(8),
                    enqueued: None,
                    m: 0,
                    k: 0,
                })),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (epoch, t0);
            ReqTrace::off()
        }
    }

    /// Record the request's shape once known.
    #[inline]
    pub fn set_shape(&mut self, m: usize, k: usize) {
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            inner.m = m;
            inner.k = k;
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (m, k);
        }
    }

    /// Add a span covering `[start, end]`.
    #[inline]
    pub fn add_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            inner.spans.push(TraceSpan::new(
                name,
                start.duration_since(inner.t0).as_secs_f64() * 1e6,
                end.duration_since(start).as_secs_f64() * 1e6,
            ));
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (name, start, end);
        }
    }

    /// Mark the job as entering its lane channel: the coalesce wait
    /// starts now.
    #[inline]
    pub fn mark_enqueued(&mut self) {
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            inner.enqueued = Some(Instant::now());
        }
    }

    /// Close the coalesce wait at `kernel_start` (also used on timeout /
    /// panic paths, where the wait is the whole story).
    #[inline]
    pub fn coalesce_end(&mut self, kernel_start: Instant) {
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            if let Some(enq) = inner.enqueued.take() {
                inner.spans.push(TraceSpan::new(
                    "coalesce wait",
                    enq.duration_since(inner.t0).as_secs_f64() * 1e6,
                    kernel_start.duration_since(enq).as_secs_f64() * 1e6,
                ));
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = kernel_start;
        }
    }

    /// Attribute this request's share of the batch's kernel-phase times:
    /// one span per non-empty phase, `share` (= `m / m_live`) of the
    /// batch total, laid out sequentially from `kernel_start`.
    #[inline]
    pub fn add_phases(&mut self, kernel_start: Instant, phases: &PhaseSet, share: f64) {
        #[cfg(feature = "obs")]
        if let Some(inner) = &mut self.inner {
            let mut at = kernel_start.duration_since(inner.t0).as_secs_f64() * 1e6;
            for (phase, seconds, _count) in phases.rows() {
                if seconds <= 0.0 {
                    continue;
                }
                let dur_us = seconds * share * 1e6;
                inner.spans.push(TraceSpan::new(
                    format!("kernel: {}", phase.name()),
                    at,
                    dur_us,
                ));
                at += dur_us;
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (kernel_start, phases, share);
        }
    }

    /// Convert into an exportable [`Trace`]. `None` when tracing is
    /// compiled out or the recorder was inert.
    #[inline]
    pub fn finish(
        self,
        trace_id: u64,
        lane: &'static str,
        status: &'static str,
        total: Duration,
    ) -> Option<Trace> {
        #[cfg(feature = "obs")]
        {
            let inner = self.inner?;
            Some(Trace {
                trace_id,
                lane: lane.to_string(),
                status: status.to_string(),
                m: inner.m,
                k: inner.k,
                t0_us: inner.t0_us,
                total_us: total.as_secs_f64() * 1e6,
                spans: inner.spans,
            })
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (trace_id, lane, status, total);
            None
        }
    }

    /// Whether this recorder is live (an `obs` build tracing a real
    /// request). Drives the span-annex flag on partition-mode replies.
    #[inline]
    pub fn is_active(&self) -> bool {
        #[cfg(feature = "obs")]
        {
            self.inner.is_some()
        }
        #[cfg(not(feature = "obs"))]
        {
            false
        }
    }

    /// Append this request's spans-so-far as a GSTA span annex to `out`.
    /// Returns `false` (writing nothing) when tracing is compiled out or
    /// the recorder is inert. Called from `deliver()` before the reply
    /// write, so the annex carries everything up to — but not — the
    /// "reply write" span; the router's own bracket covers that tail.
    #[inline]
    pub fn encode_annex(&self, out: &mut Vec<u8>) -> bool {
        #[cfg(feature = "obs")]
        {
            let Some(inner) = &self.inner else {
                return false;
            };
            let spans: Vec<crate::wire::AnnexSpan> = inner
                .spans
                .iter()
                .map(|s| crate::wire::AnnexSpan {
                    name: s.name.clone(),
                    start_ns: (s.start_us * 1e3) as i64,
                    dur_ns: (s.dur_us * 1e3) as u64,
                })
                .collect();
            crate::wire::encode_span_annex(&spans, out);
            true
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = out;
            false
        }
    }
}

/// Encode a finished [`Trace`]'s spans as GSTA annex bytes — the form
/// deposited in the [`FragmentRing`] so a later `TraceFetch` sees the
/// complete timeline (including the "reply write" span the inline annex
/// on the reply itself cannot carry).
#[cfg(feature = "obs")]
pub(crate) fn annex_from_trace(trace: &Trace) -> Vec<u8> {
    let spans: Vec<crate::wire::AnnexSpan> = trace
        .spans
        .iter()
        .map(|s| crate::wire::AnnexSpan {
            name: s.name.clone(),
            start_ns: (s.start_us * 1e3) as i64,
            dur_ns: (s.dur_us * 1e3) as u64,
        })
        .collect();
    let mut out = Vec::with_capacity(8 + spans.len() * 32);
    crate::wire::encode_span_annex(&spans, &mut out);
    out
}

/// A bounded ring of recent span-annex fragments keyed by trace id, so
/// a router (or `gsknn-cli trace --distributed`) can pull a backend's
/// side of a slow query after the fact via the `TraceFetch` wire op.
///
/// Same zero-cost discipline as [`ReqTrace`]: without the `obs` feature
/// the struct is zero-sized and `put`/`get` are inlined no-ops.
#[derive(Default)]
pub(crate) struct FragmentRing {
    #[cfg(feature = "obs")]
    inner: Option<std::sync::Mutex<RingInner>>,
}

#[cfg(feature = "obs")]
#[derive(Default)]
struct RingInner {
    cap: usize,
    frags: std::collections::VecDeque<(u64, Vec<u8>)>,
}

impl FragmentRing {
    /// A ring keeping the `cap` most recent fragments (`cap == 0`
    /// disables retention entirely).
    #[inline]
    pub fn new(cap: usize) -> Self {
        #[cfg(feature = "obs")]
        {
            if cap == 0 {
                return Self { inner: None };
            }
            Self {
                inner: Some(std::sync::Mutex::new(RingInner {
                    cap,
                    frags: std::collections::VecDeque::with_capacity(cap),
                })),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = cap;
            Self::default()
        }
    }

    /// Deposit `bytes` under `trace_id`, evicting the oldest entry past
    /// capacity. A re-deposit under the same id replaces the old bytes.
    /// (Only traced requests deposit: without `obs` nothing calls this.)
    #[inline]
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    pub fn put(&self, trace_id: u64, bytes: Vec<u8>) {
        #[cfg(feature = "obs")]
        if let Some(m) = &self.inner {
            let mut ring = m.lock().unwrap_or_else(|e| e.into_inner());
            ring.frags.retain(|(id, _)| *id != trace_id);
            if ring.frags.len() + 1 > ring.cap {
                ring.frags.pop_front();
            }
            ring.frags.push_back((trace_id, bytes));
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (trace_id, bytes);
        }
    }

    /// Fetch the annex bytes for `trace_id`, if still retained.
    #[inline]
    pub fn get(&self, trace_id: u64) -> Option<Vec<u8>> {
        #[cfg(feature = "obs")]
        {
            let m = self.inner.as_ref()?;
            let ring = m.lock().unwrap_or_else(|e| e.into_inner());
            ring.frags
                .iter()
                .find(|(id, _)| *id == trace_id)
                .map(|(_, b)| b.clone())
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = trace_id;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With tracing compiled out the recorder must be zero-sized — the
    /// structural form of "the serve hot path has zero added
    /// allocations" (same discipline as the kernel's obs guard).
    #[cfg(not(feature = "obs"))]
    #[test]
    fn req_trace_is_zero_sized_without_obs() {
        assert_eq!(std::mem::size_of::<ReqTrace>(), 0);
        let mut t = ReqTrace::start(Instant::now(), Instant::now());
        t.set_shape(3, 8);
        t.add_span("decode", Instant::now(), Instant::now());
        assert!(!t.is_active());
        let mut out = Vec::new();
        assert!(!t.encode_annex(&mut out));
        assert!(out.is_empty());
        assert!(t.finish(1, "f64", "ok", Duration::from_millis(1)).is_none());
    }

    /// The annex/TraceFetch retention path must also compile out
    /// entirely: zero-sized ring, no deposits, no lookups.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn fragment_ring_is_zero_sized_without_obs() {
        assert_eq!(std::mem::size_of::<FragmentRing>(), 0);
        let ring = FragmentRing::new(32);
        ring.put(7, vec![1, 2, 3]);
        assert!(ring.get(7).is_none());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn fragment_ring_retains_recent_and_evicts_oldest() {
        let ring = FragmentRing::new(2);
        ring.put(1, vec![0xa]);
        ring.put(2, vec![0xb]);
        assert_eq!(ring.get(1), Some(vec![0xa]));
        ring.put(3, vec![0xc]);
        assert!(ring.get(1).is_none(), "oldest evicted past cap");
        assert_eq!(ring.get(2), Some(vec![0xb]));
        assert_eq!(ring.get(3), Some(vec![0xc]));
        // re-deposit replaces in place rather than duplicating
        ring.put(2, vec![0xd, 0xe]);
        assert_eq!(ring.get(2), Some(vec![0xd, 0xe]));
        assert_eq!(ring.get(3), Some(vec![0xc]));
        // cap 0 disables retention
        let off = FragmentRing::new(0);
        off.put(9, vec![1]);
        assert!(off.get(9).is_none());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn encode_annex_round_trips_through_the_wire_codec() {
        let epoch = Instant::now();
        let t0 = Instant::now();
        let mut t = ReqTrace::start(epoch, t0);
        assert!(t.is_active());
        std::thread::sleep(Duration::from_millis(1));
        t.add_span("decode", t0, Instant::now());
        let mut out = vec![0xFF]; // annex appends after existing bytes
        assert!(t.encode_annex(&mut out));
        let spans = crate::wire::decode_span_annex(&out[1..]).expect("annex decodes");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "decode");
        assert!(spans[0].dur_ns >= 500_000, "slept ~1 ms before closing");

        // the finished-trace form carries the same spans
        let trace = t
            .finish(5, "f64", "ok", Duration::from_millis(2))
            .expect("obs build yields a trace");
        let bytes = annex_from_trace(&trace);
        let spans2 = crate::wire::decode_span_annex(&bytes).expect("trace annex decodes");
        assert_eq!(spans2.len(), spans.len());
        assert_eq!(spans2[0].name, "decode");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn spans_accumulate_and_finish_into_a_trace() {
        let epoch = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let t0 = Instant::now();
        let mut t = ReqTrace::start(epoch, t0);
        t.set_shape(2, 5);
        std::thread::sleep(Duration::from_millis(1));
        let dec = Instant::now();
        t.add_span("decode", t0, dec);
        t.mark_enqueued();
        std::thread::sleep(Duration::from_millis(3));
        let kstart = Instant::now();
        t.coalesce_end(kstart);
        let trace = t
            .finish(42, "f32", "ok", kstart.duration_since(t0))
            .expect("obs build yields a trace");
        assert_eq!(trace.trace_id, 42);
        assert_eq!((trace.m, trace.k), (2, 5));
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].name, "decode");
        assert_eq!(trace.spans[1].name, "coalesce wait");
        assert!(trace.spans[1].dur_us >= 2_000.0, "waited ~3 ms");
        assert!(trace.t0_us >= 2_000.0, "t0 is after the epoch");
        // the two spans cover nearly the whole request
        assert!(trace.span_sum_us() <= trace.total_us * 1.05);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn inert_recorder_yields_no_trace() {
        let t = ReqTrace::off();
        assert!(t.finish(1, "f64", "ok", Duration::from_millis(1)).is_none());
    }
}
