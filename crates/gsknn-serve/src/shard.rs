//! Thread-per-core shards: the serving hot path.
//!
//! Each shard thread owns **everything** a query touches — its slice of
//! connections, both precision lanes' parked batches, and a core-pinnable
//! reusable workspace (pack buffers, heaps, reply scratch) — so the
//! steady-state query cycle crosses no locks, no channels, and performs
//! no heap allocation (guarded by
//! `steady_state_query_cycle_performs_no_heap_allocation` below, under a
//! counting global allocator).
//!
//! One iteration of the shard loop:
//!
//! 1. **Intake** — adopt freshly accepted sockets the acceptor
//!    round-robined onto this shard; set them nonblocking.
//! 2. **Poll** — one `poll(2)` call ([`crate::mux`]) over the whole
//!    connection slab, timing out at the nearest parked batch's coalesce
//!    deadline (clamped to a few ms). A connection costs a slab slot and
//!    a pollfd, not a thread.
//! 3. **IO** — drain readable sockets into per-connection input buffers
//!    and parse frames. Query coordinates land **zero-copy**: the decoder
//!    borrows the coordinate bytes still in the receive buffer
//!    ([`crate::wire::decode_request_raw`]) and
//!    [`dataset::PointSet::append_from_f64`] streams them straight into
//!    the lane's pack-buffer layout — no intermediate `Vec<f64>`.
//! 4. **Service** — per lane, decide whether the parked batch should
//!    flush ([`flush_reason`]: model target `m ≥ m*`, the **oldest**
//!    parked job's half-budget deadline, the adaptive §2.6 wait-vs-save
//!    tradeoff, drain, or an injected fault) and run the kernel *inline*
//!    under `catch_unwind`. On a flat index the f64 lane runs the
//!    certified path ([`crate::certify`]): an f32 scan for `2k`
//!    candidates, an f64 rerank, and a per-row rounding certificate, with
//!    failed rows re-run as the full f64 scan — the same bits either way.
//!    A batch where that would not pay (too many candidates for the
//!    index, or a lane whose recent rows mostly fell back) skips it and
//!    runs the full scan.
//!    A panicking batch answers its live jobs `InternalError`, the
//!    workspace (the certified path's included) is discarded as poisoned
//!    and rebuilt, and the shard keeps serving.
//! 5. **Flush** — re-parse connections whose paused parser a reply
//!    just released (frames pipelined behind an in-flight query are
//!    already buffered, so no readiness event announces them), then push
//!    buffered replies; partially written frames resume on the next
//!    `POLLOUT`.
//!
//! Parked batches are *state*, not blocked threads: the legacy design
//! parked a connection-handler thread per in-flight query, so a
//! deadline-half coalescing wait burned a thread and its wakeup latency
//! per query. Here a parked query is a row in the lane's pack buffer
//! plus a [`PendingJob`] entry, and the reply travels back through the
//! same connection slab slot (guarded by a generation counter, so a
//! reply for a vacated-and-reused slot is dropped, never misdelivered).

use crate::certify::{Certify, F32Scan, Rows};
use crate::coalesce::{adaptive_should_flush, predict_batch_cost_into, ArrivalRate, FlushReason};
use crate::degrade::degraded_target;
use crate::metrics::{Batch, ShardStat, LANES};
use crate::mux::{poll_fds, raw_fd, PollFd, POLLIN, POLLOUT};
use crate::server::{ServeIndex, Shared};
use crate::trace::ReqTrace;
use crate::wire::{
    begin_response_frame, deadline_duration, decode_request_raw, finish_frame, PartialHeader,
    Precision, RawQuery, RawRequest, Status, MAX_FRAME, PARTIAL_FLAG_SPAN_ANNEX,
};
use crossbeam::channel::Receiver;
use dataset::{DistanceKind, PointSet};
use gsknn_core::model::Approach;
use gsknn_core::{BatchScratch, FusedScalar, Gsknn, GsknnConfig, MachineParams, Model, PackedRefs};
use gsknn_obs::chrome_trace_json;
use knn_select::{Neighbor, NeighborTable};
use rkdt::Forest;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One admitted query parked in a lane, waiting for its batch to flush.
/// The coordinates already live in the lane's pack buffer
/// (`PendingBatch::queries`, rows `row0 .. row0 + m`); this is the
/// bookkeeping that travels back to the connection with the reply.
pub(crate) struct PendingJob {
    /// Connection slab slot to deliver the reply to.
    pub(crate) conn: usize,
    /// Slot generation at admission; a mismatch at delivery means the
    /// connection died and the slot was reissued — drop the reply.
    pub(crate) gen: u64,
    pub(crate) m: usize,
    pub(crate) k: usize,
    /// First row of this job's queries in the lane's pack buffer.
    pub(crate) row0: usize,
    /// Swept by the timeout pass: already answered, skip in writeback.
    pub(crate) dead: bool,
    /// Coalesce bound: flush a batch containing this job by here.
    pub(crate) flush_by: Instant,
    /// Full latency budget: a kernel start after this answers `Timeout`.
    pub(crate) timeout_at: Instant,
    /// An f64 request routed to the f32 lane under overload: answer with
    /// `Status::OkDegraded` so the client knows the precision dropped.
    pub(crate) degraded: bool,
    /// Lane index into [`LANES`] the client *requested* (latency
    /// histograms are labeled by requested lane even when degraded).
    pub(crate) lane: usize,
    /// Span recorder (zero-sized without the `obs` feature).
    pub(crate) trace: ReqTrace,
    pub(crate) trace_id: u64,
    /// Frame receive time, for the end-to-end latency histogram.
    pub(crate) t_recv: Instant,
}

/// A lane's parked batch: query points already in pack-buffer layout
/// plus the jobs they belong to.
pub(crate) struct PendingBatch<T: FusedScalar> {
    /// Parked query points, landed wire → pack layout by
    /// [`dataset::PointSet::append_from_f64`]. Cleared (capacity kept)
    /// after every flush.
    pub(crate) queries: PointSet<T>,
    pub(crate) jobs: Vec<PendingJob>,
    /// Query points held (sum of job `m`s).
    pub(crate) m: usize,
    /// Largest `k` among held jobs.
    pub(crate) k_max: usize,
    /// The **oldest** held job's coalesce deadline. Pushing a fresh job
    /// with a laxer budget must never extend an already-parked job's
    /// wait, so this is the min across jobs (regression:
    /// `staggered_enqueues_flush_on_the_oldest_budget` below).
    pub(crate) flush_by: Option<Instant>,
}

impl<T: FusedScalar> PendingBatch<T> {
    pub(crate) fn new(d: usize) -> Self {
        PendingBatch {
            queries: PointSet::from_vec(d, 0, Vec::new()),
            jobs: Vec::new(),
            m: 0,
            k_max: 0,
            flush_by: None,
        }
    }

    pub(crate) fn push(&mut self, job: PendingJob) {
        self.m += job.m;
        self.k_max = self.k_max.max(job.k);
        self.flush_by = Some(match self.flush_by {
            Some(t) => t.min(job.flush_by),
            None => job.flush_by,
        });
        self.jobs.push(job);
    }

    pub(crate) fn clear(&mut self) {
        self.queries.clear();
        self.jobs.clear();
        self.m = 0;
        self.k_max = 0;
        self.flush_by = None;
    }
}

/// What a flushed job is answered with. Borrows the lane's reusable
/// reply table, so delivery encodes straight into the connection's
/// output buffer without an owned intermediate.
pub(crate) enum Reply<'t, T: FusedScalar> {
    /// Neighbors for the job, already truncated to its own `k`.
    Table(&'t NeighborTable<T>, Status),
    /// A bodyless terminal status (`Timeout`).
    Empty(Status),
    /// A typed failure with a message body (`InternalError`).
    Message(Status, &'static str),
}

impl<T: FusedScalar> Reply<'_, T> {
    pub(crate) fn status(&self) -> Status {
        match self {
            Reply::Table(_, s) | Reply::Empty(s) | Reply::Message(s, _) => *s,
        }
    }
}

/// A lane's view of the index ([`crate::server::IndexRefs`]) at its
/// precision.
pub(crate) enum LaneRefs<'a, T: FusedScalar> {
    /// The flat index's prepacked references: every batch is one
    /// [`Gsknn::update_prepacked`] call, under the panels' own blocking —
    /// or, when the lane holds `scan` (the f64 lane) and serves squared
    /// ℓ2, the same rows from an f32 scan over `scan`'s panels, an f64
    /// rerank and a per-row certificate ([`crate::certify`]), on the
    /// batches where that pays.
    Flat {
        packed: &'a PackedRefs<T>,
        scan: Option<F32Scan<'a>>,
    },
    /// The table and the forest routing into it: every batch is
    /// [`Forest::query_with`], one gathered call per routed leaf group.
    Forest {
        refs: &'a PointSet<T>,
        forest: &'a Forest,
        n_trees: usize,
        leaf_size: usize,
    },
}

impl<T: FusedScalar> LaneRefs<'_, T> {
    /// How the §2.6 model prices a batch: the approach each kernel call
    /// runs, calls per batch (trees), references per call. The certified
    /// f64 flat lane is still priced as the full f64 scan it replaces, so
    /// while it certifies its batches measure about 1.5× faster than
    /// predicted: its `batch_target`, adaptive flush and roofline class
    /// are set for the slower scan, and its `drift_ratio` (measured over
    /// predicted) reads about 1.5× below the full scan's. That is a known
    /// mispricing, not a regression: the model has no term for the
    /// f32 scan and the rerank yet.
    pub(crate) fn pricing(&self) -> (Approach, usize, usize) {
        match self {
            LaneRefs::Flat { packed, .. } => (Approach::Var1Prepacked, 1, packed.len()),
            LaneRefs::Forest {
                refs,
                n_trees,
                leaf_size,
                ..
            } => (Approach::Var1, *n_trees, (*leaf_size).min(refs.len())),
        }
    }

    pub(crate) fn dim(&self) -> usize {
        match self {
            LaneRefs::Flat { packed, .. } => packed.dim(),
            LaneRefs::Forest { refs, .. } => refs.dim(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            LaneRefs::Flat { packed, .. } => packed.len(),
            LaneRefs::Forest { refs, .. } => refs.len(),
        }
    }
}

/// One precision lane owned by a shard: the reference view, the parked
/// batch, and every reusable piece of kernel workspace. Nothing here is
/// shared — the shard thread is the only toucher.
pub(crate) struct Lane<'a, T: FusedScalar> {
    /// Index into [`LANES`] (0 = f64, 1 = f32).
    lane: usize,
    refs: LaneRefs<'a, T>,
    kind: DistanceKind,
    /// Model batch target `m*` for this lane.
    pub(crate) target: usize,
    model: Model,
    /// Use the adaptive (§2.6 wait-vs-save) flush policy instead of the
    /// fixed deadline-half wait.
    adaptive: bool,
    kernel_cfg: GsknnConfig,
    exec: Gsknn<T>,
    scratch: BatchScratch<T>,
    /// Flat-path result table, reused across batches.
    table: NeighborTable<T>,
    /// Per-job reply table, reused across jobs.
    reply_table: NeighborTable<T>,
    /// Row scratch for sentinel-filtered truncation to a job's `k`.
    row: Vec<Neighbor<T>>,
    /// Identity query ids for the flat path, grown once.
    q_idx: Vec<usize>,
    /// The certified flat path's workspace, built by its first batch (no
    /// other lane ever builds it).
    certify: Option<Certify<T>>,
    /// Retained cost-term buffer for [`predict_batch_cost_into`].
    terms: Vec<(&'static str, f64)>,
    /// Timeout-sweep compaction target, reused (swapped with `queries`).
    compact: PointSet<T>,
    pub(crate) pending: PendingBatch<T>,
    pub(crate) arrival: ArrivalRate,
}

impl<'a, T: FusedScalar> Lane<'a, T> {
    pub(crate) fn new(
        lane: usize,
        refs: LaneRefs<'a, T>,
        kind: DistanceKind,
        target: usize,
        adaptive: bool,
    ) -> Self {
        // a shard is its core: one worker, whatever the batch
        let kernel_cfg = GsknnConfig {
            p: 1,
            ..GsknnConfig::for_scalar::<T>()
        };
        let d = refs.dim();
        Lane {
            lane,
            refs,
            kind,
            target,
            model: Model::new(MachineParams::ivy_bridge_1core().for_scalar::<T>()),
            adaptive,
            exec: Gsknn::new(kernel_cfg.clone()),
            kernel_cfg,
            scratch: BatchScratch::new(),
            table: NeighborTable::new(0, 1),
            reply_table: NeighborTable::new(0, 1),
            row: Vec::new(),
            q_idx: Vec::new(),
            certify: None,
            terms: Vec::new(),
            compact: PointSet::from_vec(d, 0, Vec::new()),
            pending: PendingBatch::new(d),
            arrival: ArrivalRate::new(),
        }
    }

    /// Park an admitted query: stream its wire coordinates straight into
    /// the pack buffer (zero-copy decode path) and record the arrival
    /// for the adaptive coalescer's rate estimate.
    pub(crate) fn enqueue(&mut self, mut job: PendingJob, q: &RawQuery<'_>, now_s: f64) {
        let range = self.pending.queries.append_from_f64(q.m, q.coords());
        job.row0 = range.start;
        self.arrival.observe(q.m, now_s);
        self.pending.push(job);
    }

    /// The oldest parked job's coalesce deadline, if any job is parked.
    pub(crate) fn next_flush_by(&self) -> Option<Instant> {
        self.pending.flush_by
    }
}

/// Decide whether a lane's parked batch should flush right now, and why.
/// `None` means keep coalescing (or nothing is parked).
pub(crate) fn flush_reason<T: FusedScalar>(
    lane: &Lane<'_, T>,
    shared: &Shared,
    now: Instant,
) -> Option<FlushReason> {
    if lane.pending.jobs.is_empty() {
        return None;
    }
    // overload shrinks the coalescing bar for the whole batch
    let target = if shared.degraded.load(Ordering::SeqCst) {
        degraded_target(lane.target)
    } else {
        lane.target
    };
    if lane.pending.m >= target {
        return Some(FlushReason::Model);
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return Some(FlushReason::Drain);
    }
    // Injected premature flush: the batch goes out undersized,
    // exercising the deadline path without a slow clock.
    #[cfg(feature = "faults")]
    if gsknn_faults::armed(gsknn_faults::FaultPoint::CoalesceFlush) {
        return Some(FlushReason::Deadline);
    }
    let flush_by = lane
        .pending
        .flush_by
        .expect("non-empty batch has a deadline");
    if now >= flush_by {
        return Some(FlushReason::Deadline);
    }
    if lane.adaptive {
        let remaining_s = flush_by.duration_since(now).as_secs_f64();
        let (approach, n_trees, leaf_n) = lane.refs.pricing();
        if adaptive_should_flush(
            &lane.model,
            approach,
            n_trees,
            leaf_n,
            lane.refs.dim(),
            lane.pending.k_max.max(1),
            lane.pending.m,
            target,
            lane.arrival.qps(),
            remaining_s,
        ) {
            // an under-target adaptive flush is a latency call, not the
            // model's efficient-regime trigger — count it as Deadline
            return Some(FlushReason::Deadline);
        }
    }
    None
}

/// Grow an identity index map (`0, 1, 2, ...`) to at least `n` entries.
pub(crate) fn grow_identity(v: &mut Vec<usize>, n: usize) {
    while v.len() < n {
        v.push(v.len());
    }
}

/// Flush a lane's parked batch through the kernel and hand every job's
/// reply to `sink` (delivery is the caller's — the server routes through
/// the connection slab, tests capture directly).
///
/// Mirrors the legacy worker's semantics exactly: a timeout sweep
/// answers budget-blown jobs `Timeout` without computing (survivor rows
/// are compacted so results stay bit-identical to a fresh pack), the
/// kernel runs under `catch_unwind`, and a panic answers live jobs
/// `InternalError` then discards the executor and scratch as poisoned —
/// the rebuilt workspace is provably clean.
pub(crate) fn flush_lane<T: FusedScalar>(
    lane: &mut Lane<'_, T>,
    shared: &Shared,
    stat: &ShardStat,
    reason: FlushReason,
    sink: &mut dyn FnMut(&mut PendingJob, Reply<'_, T>),
) {
    let start = Instant::now();
    let Lane {
        refs,
        kind,
        target,
        model,
        lane: lane_idx,
        kernel_cfg,
        exec,
        scratch,
        table,
        reply_table,
        row,
        q_idx,
        certify,
        terms,
        compact,
        pending,
        ..
    } = lane;
    let (kind, target, lane_idx) = (*kind, *target, *lane_idx);
    let (approach, n_trees, leaf_n) = refs.pricing();
    let dim = refs.dim();

    // sweep jobs whose full budget elapsed before the kernel started
    for job in pending.jobs.iter_mut() {
        if !job.dead && start > job.timeout_at {
            job.dead = true;
            shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            shared.metrics.release(job.m);
            job.trace.coalesce_end(start);
            sink(job, Reply::Empty(Status::Timeout));
        }
    }
    let m_live: usize = pending.jobs.iter().filter(|j| !j.dead).map(|j| j.m).sum();
    if m_live == 0 {
        stat.record_flush(reason, None);
        pending.clear();
        return;
    }
    // Compact swept rows out of the pack buffer so live jobs' rows are
    // contiguous again. `append` folds sqnorms in the same order as
    // `append_from_f64`, so a compacted survivor computes bit-identical
    // results to an uncompacted one. Allocation here is fine — a
    // timeout sweep is not the steady state.
    if pending.jobs.iter().any(|j| j.dead) {
        compact.clear();
        for job in pending.jobs.iter_mut().filter(|j| !j.dead) {
            let src = &pending.queries.as_slice()[job.row0 * dim..(job.row0 + job.m) * dim];
            let range = compact.append(src);
            job.row0 = range.start;
        }
        std::mem::swap(&mut pending.queries, compact);
        compact.clear();
    }
    let k_batch = pending
        .jobs
        .iter()
        .filter(|j| !j.dead)
        .map(|j| j.k)
        .max()
        .unwrap_or(1);
    // drop phase times a previous (panicked) batch may have left behind,
    // so this batch's jobs only see their own kernel
    let _ = exec.take_phase_accum();
    let k_start = Instant::now();
    let queries = &pending.queries;
    let result = catch_unwind(AssertUnwindSafe(|| {
        gsknn_faults::fail_point!(gsknn_faults::FaultPoint::BatchExec);
        match refs {
            LaneRefs::Flat { packed, scan } => {
                table.reset(m_live, k_batch);
                match scan.filter(|_| kind == DistanceKind::SqL2) {
                    Some(scan) => {
                        let certify = certify.get_or_insert_with(|| Certify::new(dim));
                        let rows = certify.batch(exec, scratch, queries, packed, scan, table);
                        (None, rows)
                    }
                    None => {
                        grow_identity(q_idx, m_live);
                        let q_idx = &q_idx[..m_live];
                        exec.update_prepacked(queries, q_idx, packed, kind, table, scratch);
                        (None, Rows::default())
                    }
                }
            }
            LaneRefs::Forest { refs, forest, .. } => (
                Some(forest.query_with(exec, refs, queries, k_batch, kind)),
                Rows::default(),
            ),
        }
    }));
    let (forest_table, rows) = match result {
        Ok(t) => t,
        Err(_) => {
            for job in pending.jobs.iter_mut().filter(|j| !j.dead) {
                shared.metrics.release(job.m);
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                job.trace.coalesce_end(k_start);
                sink(
                    job,
                    Reply::Message(Status::InternalError, "worker panicked executing the batch"),
                );
            }
            // The panic may have left the executor's packing workspace
            // half-written — discard it as poisoned and rebuild. One count
            // for the panic and its respawn.
            *exec = Gsknn::new(kernel_cfg.clone());
            *scratch = BatchScratch::new();
            *certify = None;
            stat.worker_respawns.fetch_add(1, Ordering::Relaxed);
            pending.clear();
            return;
        }
    };
    let mut phases = exec.take_phase_accum();
    if let Some(certify) = certify {
        phases.merge(&certify.take_phase_accum());
    }
    let measured = start.elapsed().as_secs_f64();
    let predicted = predict_batch_cost_into(
        model, approach, n_trees, leaf_n, m_live, dim, k_batch, terms,
    );
    // backlog = query points still admitted beyond this batch
    let backlog = shared.metrics.in_flight().saturating_sub(m_live as u64) as usize;
    stat.record_flush(
        reason,
        Some(&Batch {
            lane: lane_idx,
            elem_bytes: T::BYTES,
            model,
            approach,
            n_trees,
            leaf_n,
            m: m_live,
            d: dim,
            k: k_batch,
            target_m: target,
            predicted_s: predicted,
            measured_s: measured,
            terms,
            phases: &phases,
            backlog,
            rows,
        }),
    );

    let full: &NeighborTable<T> = forest_table.as_ref().unwrap_or(table);
    for job in pending.jobs.iter_mut().filter(|j| !j.dead) {
        reply_table.reset(job.m, job.k);
        for r in 0..job.m {
            row.clear();
            row.extend(
                full.row(job.row0 + r)
                    .iter()
                    .filter(|nb| nb.idx != u32::MAX)
                    .take(job.k)
                    .copied(),
            );
            reply_table.set_row(r, row);
        }
        shared.metrics.release(job.m);
        let status = if job.degraded {
            shared
                .metrics
                .degraded
                .fetch_add(job.m as u64, Ordering::Relaxed);
            Status::OkDegraded
        } else {
            Status::Ok
        };
        let share = job.m as f64 / m_live as f64;
        job.trace.coalesce_end(k_start);
        job.trace.add_phases(k_start, &phases, share);
        sink(job, Reply::Table(reply_table, status));
    }
    pending.clear();
}

/// One multiplexed connection in a shard's slab.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Slot-reuse guard; see [`PendingJob::gen`].
    gen: u64,
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` already consumed by the frame parser.
    instart: usize,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    outpos: usize,
    /// Queries parked in a lane on behalf of this connection. Frame
    /// parsing pauses while nonzero, keeping replies in request order
    /// (the wire protocol is strictly serial per connection).
    pending: u32,
    /// Close once `outbuf` drains (shutdown reply sent).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        let fd = raw_fd(&stream);
        Conn {
            stream,
            fd,
            gen,
            inbuf: Vec::new(),
            instart: 0,
            outbuf: Vec::new(),
            outpos: 0,
            pending: 0,
            closing: false,
        }
    }

    /// Drain the socket into `inbuf`. Returns `false` when the peer is
    /// gone. Stops reading while a full frame's worth is already
    /// buffered, leaving backpressure to the kernel's socket buffer.
    fn fill(&mut self, rdbuf: &mut [u8]) -> bool {
        loop {
            if self.inbuf.len() - self.instart > MAX_FRAME + 8 {
                return true;
            }
            match self.stream.read(rdbuf) {
                Ok(0) => return false,
                Ok(n) => self.inbuf.extend_from_slice(&rdbuf[..n]),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Push buffered output. Returns `false` when the peer is gone.
    fn try_write(&mut self) -> bool {
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return false,
                Ok(n) => self.outpos += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.outbuf.clear();
        self.outpos = 0;
        true
    }
}

/// Everything a shard thread needs, borrowed for the server scope.
pub(crate) struct ShardCtx<'a> {
    pub id: usize,
    pub shared: &'a Shared,
    pub index: &'a ServeIndex,
    pub kind: DistanceKind,
    pub target64: usize,
    pub target32: usize,
    pub adaptive: bool,
    pub pin_core: Option<usize>,
    pub conn_rx: Receiver<TcpStream>,
}

/// A shard thread's whole life; see the module docs for the loop shape.
pub(crate) fn shard_main(ctx: ShardCtx<'_>) {
    if let Some(core) = ctx.pin_core {
        pin_to_core(core);
    }
    let shared = ctx.shared;
    let stat = &shared.metrics.shards[ctx.id];
    let (refs64, refs32) = ctx.index.lanes();
    let mut lane64 = Lane::new(0, refs64, ctx.kind, ctx.target64, ctx.adaptive);
    let mut lane32 = Lane::new(1, refs32, ctx.kind, ctx.target32, ctx.adaptive);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 1;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();
    let mut rdbuf = vec![0u8; 64 * 1024];
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // intake: the acceptor round-robins fresh connections over shards
        while let Ok(stream) = ctx.conn_rx.try_recv() {
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            let slot = free.pop().unwrap_or_else(|| {
                conns.push(None);
                conns.len() - 1
            });
            conns[slot] = Some(Conn::new(stream, next_gen));
            next_gen += 1;
            stat.conns.fetch_add(1, Ordering::Relaxed);
        }
        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + Duration::from_secs(5));
        }
        // readiness poll over the whole connection slab
        fds.clear();
        fd_slots.clear();
        for (i, c) in conns.iter().enumerate() {
            if let Some(c) = c {
                let mut events = POLLIN;
                if c.outpos < c.outbuf.len() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(c.fd, events));
                fd_slots.push(i);
            }
        }
        let timeout = poll_timeout_ms(&lane64, &lane32, draining, Instant::now());
        if fds.is_empty() {
            std::thread::sleep(Duration::from_millis(timeout.max(1) as u64));
        } else if poll_fds(&mut fds, timeout).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        for (pi, &slot) in fd_slots.iter().enumerate() {
            if !fds[pi].ready() {
                continue;
            }
            let mut dead = false;
            if let Some(conn) = conns[slot].as_mut() {
                if fds[pi].writable() {
                    dead = !conn.try_write();
                }
                if !dead && fds[pi].readable() {
                    dead = !conn.fill(&mut rdbuf);
                }
            }
            if !dead {
                dead = !parse_frames(slot, &mut conns, shared, &mut lane64, &mut lane32);
            }
            if dead {
                close_conn(&mut conns, &mut free, slot);
            }
        }
        // service both lanes: flush decisions + inline kernel execution
        if let Some(reason) = flush_reason(&lane64, shared, Instant::now()) {
            let mut sink = |job: &mut PendingJob, reply: Reply<'_, f64>| {
                deliver(&mut conns, shared, job, reply)
            };
            flush_lane(&mut lane64, shared, stat, reason, &mut sink);
        }
        if let Some(reason) = flush_reason(&lane32, shared, Instant::now()) {
            let mut sink = |job: &mut PendingJob, reply: Reply<'_, f32>| {
                deliver(&mut conns, shared, job, reply)
            };
            flush_lane(&mut lane32, shared, stat, reason, &mut sink);
        }
        // resume paused parsers, opportunistic writes, retire closing
        // conns whose output drained
        for slot in 0..conns.len() {
            // A flush above may have answered the query that paused this
            // connection's parser. Frames the client pipelined behind it
            // are already buffered, so no readiness event will announce
            // them: pick them up here.
            let resume = conns[slot]
                .as_ref()
                .is_some_and(|c| c.pending == 0 && !c.closing && c.instart < c.inbuf.len());
            let mut dead =
                resume && !parse_frames(slot, &mut conns, shared, &mut lane64, &mut lane32);
            if let Some(conn) = conns[slot].as_mut() {
                if !dead && conn.outpos < conn.outbuf.len() {
                    dead = !conn.try_write();
                }
                if !dead && conn.closing && conn.outpos >= conn.outbuf.len() {
                    dead = true;
                }
            }
            if dead {
                close_conn(&mut conns, &mut free, slot);
            }
        }
        if draining {
            let parked = !lane64.pending.jobs.is_empty() || !lane32.pending.jobs.is_empty();
            let unsent = conns.iter().flatten().any(|c| c.outpos < c.outbuf.len());
            let past = drain_deadline.is_some_and(|t| Instant::now() >= t);
            if (!parked && !unsent) || past {
                break;
            }
        }
    }
}

/// Next poll timeout: wake at the nearest parked batch's coalesce
/// deadline (clamped to [1, 5] ms so adaptive decisions and drain checks
/// stay responsive), 5 ms when idle, 1 ms while draining.
fn poll_timeout_ms(
    lane64: &Lane<'_, f64>,
    lane32: &Lane<'_, f32>,
    draining: bool,
    now: Instant,
) -> i32 {
    if draining {
        return 1;
    }
    let next = match (lane64.next_flush_by(), lane32.next_flush_by()) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    match next {
        None => 5,
        Some(t) if t <= now => 0,
        Some(t) => ((t.duration_since(now).as_micros() / 1000) as i32 + 1).clamp(1, 5),
    }
}

fn close_conn(conns: &mut [Option<Conn>], free: &mut Vec<usize>, slot: usize) {
    if conns[slot].take().is_some() {
        free.push(slot);
    }
}

/// Deliver a flushed job's reply through the connection slab: encode the
/// response frame straight into the connection's output buffer. A
/// generation mismatch means the connection died while the job was
/// parked (its admission slot was already released by the flush path) —
/// the reply is dropped, never misdelivered.
fn deliver<T: FusedScalar>(
    conns: &mut [Option<Conn>],
    shared: &Shared,
    job: &mut PendingJob,
    reply: Reply<'_, T>,
) {
    let conn = match conns.get_mut(job.conn) {
        Some(Some(c)) if c.gen == job.gen => c,
        _ => return,
    };
    conn.pending = conn.pending.saturating_sub(1);
    let status = reply.status();
    // In partition mode every table reply ships as a GSPK partial: the
    // router needs the partition id/epoch to merge and the ids must be
    // global. Encoding applies the row offset in-place — no extra pass,
    // no allocation. A degraded lane answer keeps its signal in the
    // envelope's flags bit so `OkDegraded` semantics survive the wrap.
    let wire_status = match (&reply, shared.partition) {
        (Reply::Table(..), Some(_)) => Status::PartialTopK,
        _ => status,
    };
    let t_reply = Instant::now();
    let mark = begin_response_frame(&mut conn.outbuf, wire_status, job.trace_id);
    match reply {
        Reply::Table(t, _) => match shared.partition {
            Some(p) => {
                // Ship the backend's span fragments inline when tracing
                // is live: the router stitches them into its own span
                // tree without a second round trip. The annex carries
                // everything up to this point (decode, coalesce wait,
                // kernel phases); the reply write itself falls inside
                // the router's bracket.
                let annex = job.trace.is_active();
                PartialHeader {
                    partition_id: p.id as u32,
                    epoch: p.epoch,
                    contributed: 1,
                    total: p.total,
                    flags: (status == Status::OkDegraded) as u8
                        | if annex { PARTIAL_FLAG_SPAN_ANNEX } else { 0 },
                    replica_id: p.replica,
                    replicas: p.replicas,
                }
                .encode_into(&mut conn.outbuf);
                t.encode_into_with_offset(&mut conn.outbuf, p.offset);
                if annex {
                    job.trace.encode_annex(&mut conn.outbuf);
                }
            }
            None => t.encode_into(&mut conn.outbuf),
        },
        Reply::Empty(_) => {}
        Reply::Message(_, msg) => conn.outbuf.extend_from_slice(msg.as_bytes()),
    }
    finish_frame(&mut conn.outbuf, mark);
    let t_done = Instant::now();
    let total = t_done - job.t_recv;
    shared
        .metrics
        .record_latency(job.lane, status, total, job.trace_id);
    let mut trace = std::mem::take(&mut job.trace);
    trace.add_span("reply write", t_reply, t_done);
    finish_query_trace(shared, trace, job.trace_id, job.lane, status, total);
}

/// Parse and handle every complete frame buffered on a connection.
/// Returns `false` when the connection must be closed (oversized frame).
fn parse_frames(
    slot: usize,
    conns: &mut [Option<Conn>],
    shared: &Shared,
    lane64: &mut Lane<'_, f64>,
    lane32: &mut Lane<'_, f32>,
) -> bool {
    loop {
        let conn = match conns[slot].as_mut() {
            Some(c) => c,
            None => return false,
        };
        if conn.closing || conn.pending > 0 {
            break;
        }
        let avail = conn.inbuf.len() - conn.instart;
        if avail < 4 {
            break;
        }
        let len = u32::from_le_bytes(
            conn.inbuf[conn.instart..conn.instart + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        if len > MAX_FRAME {
            return false;
        }
        if avail < 4 + len {
            break;
        }
        let range = conn.instart + 4..conn.instart + 4 + len;
        conn.instart += 4 + len;
        handle_frame(conn, slot, range, shared, lane64, lane32);
    }
    // reclaim consumed prefix; full consumption is the common case and
    // keeps the buffer allocation-free at steady state
    if let Some(conn) = conns[slot].as_mut() {
        if conn.instart == conn.inbuf.len() {
            conn.inbuf.clear();
            conn.instart = 0;
        } else if conn.instart >= 4096 {
            conn.inbuf.copy_within(conn.instart.., 0);
            let keep = conn.inbuf.len() - conn.instart;
            conn.inbuf.truncate(keep);
            conn.instart = 0;
        }
    }
    true
}

/// Encode one complete response frame into an output buffer.
fn reply_frame(outbuf: &mut Vec<u8>, status: Status, trace_id: u64, body: &[u8]) {
    let mark = begin_response_frame(outbuf, status, trace_id);
    outbuf.extend_from_slice(body);
    finish_frame(outbuf, mark);
}

/// Decode and dispatch one frame. Control ops answer immediately into
/// the connection's output buffer; queries validate, admit, and park in
/// a lane.
fn handle_frame(
    conn: &mut Conn,
    slot: usize,
    range: Range<usize>,
    shared: &Shared,
    lane64: &mut Lane<'_, f64>,
    lane32: &mut Lane<'_, f32>,
) {
    // Injected frame corruption: flip a byte of the received payload so
    // the hardened decoder (not the network) is what's under test. The
    // connection must answer a typed error and keep serving.
    #[cfg(feature = "faults")]
    if gsknn_faults::armed(gsknn_faults::FaultPoint::FrameDecode) && !range.is_empty() {
        let mid = range.start + range.len() / 2;
        conn.inbuf[mid] ^= 0xff;
    }
    let t_recv = Instant::now();
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    let Conn {
        inbuf,
        outbuf,
        pending,
        gen,
        closing,
        ..
    } = conn;
    let decoded = decode_request_raw(&inbuf[range]);
    let t_dec = Instant::now();
    match decoded {
        Err(e) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            reply_frame(outbuf, Status::Error, 0, e.to_string().as_bytes());
        }
        Ok(RawRequest::Ping) => reply_frame(outbuf, Status::Ok, 0, &[]),
        Ok(RawRequest::Stats) => {
            let body = shared.report().to_json().to_string();
            reply_frame(outbuf, Status::Ok, 0, body.as_bytes());
        }
        Ok(RawRequest::Metrics) => {
            let body = shared.report().render_prometheus();
            reply_frame(outbuf, Status::Ok, 0, body.as_bytes());
        }
        Ok(RawRequest::Traces) => {
            let body = chrome_trace_json(&shared.traces.snapshot()).to_string();
            reply_frame(outbuf, Status::Ok, 0, body.as_bytes());
        }
        Ok(RawRequest::TimeSeries) => {
            let body = shared.series.to_json(&shared.metrics).to_string();
            reply_frame(outbuf, Status::Ok, 0, body.as_bytes());
        }
        Ok(RawRequest::TraceFetch(id)) => {
            // Raw GSTA annex bytes for a recently finished request, or an
            // empty body when the id has aged out of the fragment ring
            // (or tracing is compiled out).
            let body = shared.frags.get(id).unwrap_or_default();
            reply_frame(outbuf, Status::Ok, id, &body);
        }
        Ok(RawRequest::Shutdown) => {
            reply_frame(outbuf, Status::Ok, 0, &[]);
            shared.shutdown.store(true, Ordering::SeqCst);
            *closing = true;
        }
        Ok(RawRequest::Query(q)) => {
            handle_query(
                q, slot, *gen, outbuf, pending, shared, lane64, lane32, t_recv, t_dec,
            );
        }
    }
}

/// Validate, admit, and park one query — the legacy validation order and
/// messages, verbatim (the e2e suite asserts them).
#[allow(clippy::too_many_arguments)]
fn handle_query(
    q: RawQuery<'_>,
    slot: usize,
    gen: u64,
    outbuf: &mut Vec<u8>,
    conn_pending: &mut u32,
    shared: &Shared,
    lane64: &mut Lane<'_, f64>,
    lane32: &mut Lane<'_, f32>,
    t_recv: Instant,
    t_dec: Instant,
) {
    // histograms are labeled by the *requested* lane; degraded f64
    // routing shows up as status ok_degraded, not lane f32
    let lane_idx = match q.precision {
        Precision::F64 => 0,
        Precision::F32 => 1,
    };
    let trace_id = if q.trace_id != 0 {
        q.trace_id
    } else {
        shared.next_trace.fetch_add(1, Ordering::Relaxed)
    };
    shared.metrics.count_arrival(q.m);
    let mut trace = ReqTrace::start(shared.epoch, t_recv);
    trace.set_shape(q.m, q.k);
    trace.add_span("decode", t_recv, t_dec);
    let t_val = Instant::now();
    if shared.shutdown.load(Ordering::SeqCst) {
        return reply_query_now(
            outbuf,
            shared,
            lane_idx,
            trace_id,
            trace,
            Status::ShuttingDown,
            "",
            t_recv,
        );
    }
    if q.dim != shared.dim {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let msg = format!(
            "dimension mismatch: index is {}-d, request is {}-d",
            shared.dim, q.dim
        );
        return reply_query_now(
            outbuf,
            shared,
            lane_idx,
            trace_id,
            trace,
            Status::BadRequest,
            &msg,
            t_recv,
        );
    }
    if q.m == 0 || q.k == 0 || q.k > shared.k_max {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let msg = format!(
            "need m >= 1 and 1 <= k <= {} (got m = {}, k = {})",
            shared.k_max, q.m, q.k
        );
        return reply_query_now(
            outbuf,
            shared,
            lane_idx,
            trace_id,
            trace,
            Status::BadRequest,
            &msg,
            t_recv,
        );
    }
    if q.k > shared.n_refs {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let msg = format!(
            "k = {} exceeds the index's {} reference points",
            q.k, shared.n_refs
        );
        return reply_query_now(
            outbuf,
            shared,
            lane_idx,
            trace_id,
            trace,
            Status::BadRequest,
            &msg,
            t_recv,
        );
    }
    if q.coords().any(|v| !v.is_finite()) {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        return reply_query_now(
            outbuf,
            shared,
            lane_idx,
            trace_id,
            trace,
            Status::BadRequest,
            "non-finite coordinate in query",
            t_recv,
        );
    }
    // Under overload (and opt-in), answer f64 traffic from the f32 lane:
    // same neighbor ids at reduced distance precision, flagged
    // `OkDegraded` on the wire.
    let degraded = shared.degrade_precision
        && q.precision == Precision::F64
        && shared.degraded.load(Ordering::SeqCst);
    // Anything narrowed to f32 — native f32 requests or degraded f64
    // routing — must stay finite at that width too, or the lane's pack
    // buffer would panic on an overflow-to-inf value.
    if (degraded || q.precision == Precision::F32) && q.coords().any(|v| !(v as f32).is_finite()) {
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        return reply_query_now(
            outbuf,
            shared,
            lane_idx,
            trace_id,
            trace,
            Status::BadRequest,
            "coordinate overflows f32 (the serving precision)",
            t_recv,
        );
    }
    if !shared.metrics.admit(q.m, shared.queue_cap) {
        shared.metrics.busy.fetch_add(1, Ordering::Relaxed);
        return reply_query_now(
            outbuf,
            shared,
            lane_idx,
            trace_id,
            trace,
            Status::Busy,
            "",
            t_recv,
        );
    }
    let now = Instant::now();
    trace.add_span("admission", t_val, now);
    trace.mark_enqueued();
    let budget = deadline_duration(q.deadline_ms);
    let job = PendingJob {
        conn: slot,
        gen,
        m: q.m,
        k: q.k,
        row0: 0,
        dead: false,
        flush_by: now + budget / 2,
        timeout_at: now + budget,
        degraded,
        lane: lane_idx,
        trace,
        trace_id,
        t_recv,
    };
    let now_s = now.duration_since(shared.epoch).as_secs_f64();
    if degraded || q.precision == Precision::F32 {
        lane32.enqueue(job, &q, now_s);
    } else {
        lane64.enqueue(job, &q, now_s);
    }
    *conn_pending += 1;
}

/// Answer a query immediately (validation failure, busy, shutting down):
/// encode the frame, record latency, finish the trace.
#[allow(clippy::too_many_arguments)]
fn reply_query_now(
    outbuf: &mut Vec<u8>,
    shared: &Shared,
    lane_idx: usize,
    trace_id: u64,
    mut trace: ReqTrace,
    status: Status,
    msg: &str,
    t_recv: Instant,
) {
    let t_reply = Instant::now();
    reply_frame(outbuf, status, trace_id, msg.as_bytes());
    let t_done = Instant::now();
    let total = t_done - t_recv;
    shared
        .metrics
        .record_latency(lane_idx, status, total, trace_id);
    trace.add_span("reply write", t_reply, t_done);
    finish_query_trace(shared, trace, trace_id, lane_idx, status, total);
}

/// Close out a finished query's trace: slow-query log line (same format
/// as the legacy connection handler) and the slowest-traces ring.
fn finish_query_trace(
    shared: &Shared,
    trace: ReqTrace,
    trace_id: u64,
    lane_idx: usize,
    status: Status,
    total: Duration,
) {
    let lane = LANES[lane_idx];
    let status_label = status.label();
    let slow = shared
        .slow_query_ms
        .is_some_and(|ms| total >= Duration::from_millis(ms));
    match trace.finish(trace_id, lane, status_label, total) {
        Some(t) => {
            // Deposit the complete fragment (including "reply write") in
            // the ring so a router's later `TraceFetch` can still pull
            // this backend's side of the timeline.
            #[cfg(feature = "obs")]
            shared
                .frags
                .put(trace_id, crate::trace::annex_from_trace(&t));
            if slow {
                let spans: Vec<String> = t
                    .spans
                    .iter()
                    .map(|s| format!("{} {:.1}us", s.name, s.dur_us))
                    .collect();
                eprintln!(
                    "gsknn-serve: slow query trace_id={:016x} lane={} status={} \
                     m={} k={} total={:.1}us [{}]",
                    t.trace_id,
                    t.lane,
                    t.status,
                    t.m,
                    t.k,
                    t.total_us,
                    spans.join(", ")
                );
            }
            shared.traces.offer(t);
        }
        None => {
            if slow {
                eprintln!(
                    "gsknn-serve: slow query trace_id={:016x} lane={lane} \
                     status={status_label} total={:.1}us (tracing compiled out)",
                    trace_id,
                    total.as_secs_f64() * 1e6
                );
            }
        }
    }
}

/// Pin the calling thread to `core` (best effort; linux only). Raw
/// `sched_setaffinity` binding, the same no-libc discipline as
/// [`crate::mux::poll_fds`] and the server's SIGTERM handler.
fn pin_to_core(core: usize) {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct CpuSet {
            bits: [u64; 16],
        }
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        }
        let mut set = CpuSet { bits: [0; 16] };
        let idx = core % 1024;
        set.bits[idx / 64] = 1u64 << (idx % 64);
        let size = std::mem::size_of::<CpuSet>();
        debug_assert_eq!(size, 1024 / 8, "CpuSet must be a 1024-bit cpu_set_t");
        // SAFETY: sched_setaffinity(2) only reads `cpusetsize` bytes from
        // `mask`; `set` is a live, initialised `CpuSet` and `size` is
        // exactly its byte size. pid 0 names the calling thread; failure
        // just means no pinning.
        unsafe {
            let _ = sched_setaffinity(0, size, &set);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = core;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{IndexRefs, ServerConfig, Shared};
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Fault points are process-global; flush-running tests serialize on
    /// this so an armed `BatchExec` injection never leaks into a
    /// neighboring test's kernel call.
    static FLUSH_TESTS: Mutex<()> = Mutex::new(());

    fn lock_flushes() -> std::sync::MutexGuard<'static, ()> {
        FLUSH_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn test_shared(dim: usize, n_refs: usize) -> Shared {
        Shared::new(
            &ServerConfig::default(),
            dim,
            n_refs,
            vec![("f64".to_string(), 64), ("f32".to_string(), 64)],
            1,
        )
    }

    fn test_job(m: usize, k: usize, flush_by: Instant, timeout_at: Instant) -> PendingJob {
        PendingJob {
            conn: 0,
            gen: 0,
            m,
            k,
            row0: 0,
            dead: false,
            flush_by,
            timeout_at,
            degraded: false,
            lane: 0,
            trace: ReqTrace::off(),
            trace_id: 0,
            t_recv: Instant::now(),
        }
    }

    fn coord_bytes(coords: &[f64]) -> Vec<u8> {
        coords.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn raw_query(bytes: &[u8], m: usize, d: usize, k: usize) -> RawQuery<'_> {
        RawQuery {
            precision: Precision::F64,
            k,
            deadline_ms: 100,
            trace_id: 0,
            dim: d,
            m,
            coord_bytes: bytes,
        }
    }

    /// A deterministic coordinate stream whose values carry at most 24
    /// significant bits, so f64 → f32 narrowing is lossless and
    /// fresh-vs-recycled comparisons are meaningful at the bit level in
    /// both precisions.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn coord(state: &mut u64) -> f64 {
        let bits = splitmix(state) >> 40; // 24 bits
        (bits as f64 / (1u64 << 24) as f64) * 2.0 - 1.0
    }

    fn gen_refs(n: usize, d: usize, state: &mut u64) -> PointSet<f64> {
        let data: Vec<f64> = (0..n * d).map(|_| coord(state)).collect();
        PointSet::from_vec(d, n, data)
    }

    /// `refs` as a flat index serves them (one tree whose leaf holds the
    /// table); its f64 lane runs the certified path.
    fn flat_index(refs: &PointSet<f64>) -> ServeIndex {
        ServeIndex::build(refs.clone(), 1, refs.len(), 7)
    }

    #[test]
    fn oldest_job_owns_the_batch_deadline() {
        let now = Instant::now();
        let mut batch = PendingBatch::<f64>::new(4);
        batch.push(test_job(
            1,
            2,
            now + Duration::from_millis(50),
            now + Duration::from_secs(1),
        ));
        assert_eq!(batch.flush_by, Some(now + Duration::from_millis(50)));
        // a laxer later job must not extend the parked one's wait
        batch.push(test_job(
            1,
            2,
            now + Duration::from_secs(5),
            now + Duration::from_secs(10),
        ));
        assert_eq!(batch.flush_by, Some(now + Duration::from_millis(50)));
        // a tighter later job pulls the deadline in
        batch.push(test_job(
            1,
            2,
            now + Duration::from_millis(5),
            now + Duration::from_secs(1),
        ));
        assert_eq!(batch.flush_by, Some(now + Duration::from_millis(5)));
        assert_eq!(batch.m, 3);
        batch.clear();
        assert_eq!(batch.flush_by, None);
        assert_eq!(batch.m, 0);
    }

    #[test]
    fn staggered_enqueues_flush_on_the_oldest_budget() {
        let mut state = 7u64;
        let refs = gen_refs(32, 3, &mut state);
        let index = flat_index(&refs);
        let shared = test_shared(3, 32);
        let mut lane = Lane::new(0, index.lanes().0, DistanceKind::SqL2, 64, false);

        let now = Instant::now();
        let coords: Vec<f64> = (0..3).map(|_| coord(&mut state)).collect();
        let bytes = coord_bytes(&coords);
        let q = raw_query(&bytes, 1, 3, 2);
        // the *young* job (long budget) arrives first, the *old* one
        // (budget already spent) second — the regression this guards is
        // a coalescer that tracked only the first or the latest arrival
        lane.enqueue(
            test_job(
                1,
                2,
                now + Duration::from_secs(30),
                now + Duration::from_secs(60),
            ),
            &q,
            0.0,
        );
        assert_eq!(
            flush_reason(&lane, &shared, now),
            None,
            "a lone fresh job keeps coalescing"
        );
        lane.enqueue(
            test_job(1, 2, now, now + Duration::from_secs(60)),
            &q,
            0.001,
        );
        assert_eq!(
            flush_reason(&lane, &shared, now),
            Some(FlushReason::Deadline),
            "the oldest queued request's exhausted budget must force the flush"
        );
    }

    #[test]
    fn flush_answers_each_job_with_its_own_k() {
        let _guard = lock_flushes();
        let mut state = 11u64;
        let n = 40;
        let d = 4;
        let refs = gen_refs(n, d, &mut state);
        let index = flat_index(&refs);
        let shared = test_shared(d, n);
        let stat = ShardStat::default();
        let mut lane = Lane::new(0, index.lanes().0, DistanceKind::SqL2, 64, false);

        let now = Instant::now();
        let far = now + Duration::from_secs(60);
        let coords_a: Vec<f64> = (0..2 * d).map(|_| coord(&mut state)).collect();
        let coords_b: Vec<f64> = (0..d).map(|_| coord(&mut state)).collect();
        let bytes_a = coord_bytes(&coords_a);
        let bytes_b = coord_bytes(&coords_b);
        lane.enqueue(test_job(2, 2, now, far), &raw_query(&bytes_a, 2, d, 2), 0.0);
        lane.enqueue(
            test_job(1, 4, now, far),
            &raw_query(&bytes_b, 1, d, 4),
            0.001,
        );
        assert!(shared.metrics.admit(3, 1024));

        // (job m, job k, status, neighbor rows) per answered job
        type Recorded = (usize, usize, Status, Vec<Vec<Neighbor<f64>>>);
        let mut replies: Vec<Recorded> = Vec::new();
        let mut sink = |job: &mut PendingJob, reply: Reply<'_, f64>| match reply {
            Reply::Table(t, s) => {
                let rows: Vec<Vec<Neighbor<f64>>> =
                    (0..t.len()).map(|r| t.row(r).to_vec()).collect();
                replies.push((job.m, t.k(), s, rows));
            }
            other => panic!("unexpected reply status {:?}", other.status()),
        };
        flush_lane(&mut lane, &shared, &stat, FlushReason::Model, &mut sink);

        assert_eq!(replies.len(), 2);
        assert_eq!(
            (replies[0].0, replies[0].1),
            (2, 2),
            "job A: m=2, its own k=2"
        );
        assert_eq!(
            (replies[1].0, replies[1].1),
            (1, 4),
            "job B: m=1, its own k=4"
        );
        assert!(replies.iter().all(|r| r.2 == Status::Ok));
        assert_eq!(shared.metrics.in_flight(), 0, "admission released");

        // reference: the same three queries through a fresh workspace at
        // the batch k, truncated per job
        let mut fresh = Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>());
        let mut fresh_scratch = BatchScratch::new();
        let mut fresh_table = NeighborTable::<f64>::new(3, 4);
        let mut queries = PointSet::<f64>::from_vec(d, 0, Vec::new());
        queries.append_from_f64(2, coords_a.iter().copied());
        queries.append_from_f64(1, coords_b.iter().copied());
        let q_idx: Vec<usize> = (0..3).collect();
        let r_idx: Vec<usize> = (0..n).collect();
        fresh.update_cross_reusing(
            &queries,
            &q_idx,
            &refs,
            &r_idx,
            DistanceKind::SqL2,
            &mut fresh_table,
            &mut fresh_scratch,
        );
        for (r, row) in replies[0].3.iter().enumerate() {
            assert_eq!(row.as_slice(), &fresh_table.row(r)[..2]);
        }
        assert_eq!(replies[1].3[0].as_slice(), &fresh_table.row(2)[..4]);
    }

    #[test]
    fn timeout_sweep_compacts_and_answers_survivors_identically() {
        let _guard = lock_flushes();
        let mut state = 13u64;
        let n = 36;
        let d = 5;
        let refs = gen_refs(n, d, &mut state);
        let index = flat_index(&refs);
        let shared = test_shared(d, n);
        let stat = ShardStat::default();
        let mut lane = Lane::new(0, index.lanes().0, DistanceKind::SqL2, 64, false);

        let now = Instant::now();
        let coords_dead: Vec<f64> = (0..2 * d).map(|_| coord(&mut state)).collect();
        let coords_live: Vec<f64> = (0..d).map(|_| coord(&mut state)).collect();
        let bytes_dead = coord_bytes(&coords_dead);
        let bytes_live = coord_bytes(&coords_live);
        // job A's full budget is already spent; job B is fresh
        lane.enqueue(
            test_job(2, 3, now, now),
            &raw_query(&bytes_dead, 2, d, 3),
            0.0,
        );
        lane.enqueue(
            test_job(1, 3, now, now + Duration::from_secs(60)),
            &raw_query(&bytes_live, 1, d, 3),
            0.001,
        );
        assert!(shared.metrics.admit(3, 1024));

        let mut statuses = Vec::new();
        let mut live_rows: Vec<Vec<Neighbor<f64>>> = Vec::new();
        let mut sink = |_job: &mut PendingJob, reply: Reply<'_, f64>| {
            statuses.push(reply.status());
            if let Reply::Table(t, _) = reply {
                live_rows = (0..t.len()).map(|r| t.row(r).to_vec()).collect();
            }
        };
        flush_lane(&mut lane, &shared, &stat, FlushReason::Deadline, &mut sink);

        assert_eq!(statuses, vec![Status::Timeout, Status::Ok]);
        assert_eq!(shared.metrics.timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(shared.metrics.in_flight(), 0);

        // the survivor, compacted to row 0, must match a fresh lone run
        let mut fresh = Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>());
        let mut fresh_scratch = BatchScratch::new();
        let mut fresh_table = NeighborTable::<f64>::new(1, 3);
        let mut queries = PointSet::<f64>::from_vec(d, 0, Vec::new());
        queries.append_from_f64(1, coords_live.iter().copied());
        let q_idx = [0usize];
        let r_idx: Vec<usize> = (0..n).collect();
        fresh.update_cross_reusing(
            &queries,
            &q_idx,
            &refs,
            &r_idx,
            DistanceKind::SqL2,
            &mut fresh_table,
            &mut fresh_scratch,
        );
        assert_eq!(live_rows.len(), 1);
        assert_eq!(live_rows[0].as_slice(), fresh_table.row(0));
    }

    /// The certified f64 flat lane answers every row with the bits
    /// `update_cross_reusing` computes over the row-major table — what a
    /// client checking replies against a local scan computes — on data
    /// full of ties (some of which f32 orders differently from the ids)
    /// and on offset data whose certificates fail, and the counters see
    /// every outcome: offset rows fall back until the lane switches the
    /// path off and skips it.
    #[test]
    fn certified_lane_is_the_full_scan_bit_for_bit() {
        let _guard = lock_flushes();
        let (n, d) = (301, 16); // n is not a multiple of NR
        let base = dataset::uniform(n, d, 5);
        let map = |x: &PointSet<f64>, f: &dyn Fn(usize, f64) -> f64| {
            let data = x.as_slice().iter().enumerate().map(|(e, &v)| f(e, v));
            PointSet::from_vec(d, x.len(), data.collect())
        };
        // 60 distinct points, each stored five or six times
        let dup = |x: &PointSet<f64>| map(x, &|e, _| base.as_slice()[e % (60 * d)]);
        // coordinates in {0, 1, 2, 3}: distances are small integers
        let grid = |x: &PointSet<f64>| map(x, &|_, v| (v * 4.0).floor());
        // 10³ from the origin: the bound exceeds every gap
        let far = |x: &PointSet<f64>| map(x, &|_, v| v + 1e3);
        let queries = dataset::uniform(32, d, 6);
        // ties f32 breaks in either order: on one axis, at 20 significant
        // bits, pairs of references mirrored around the first query are
        // at exactly equal f64 distances (that expansion is exact) but not
        // equal f32 ones (its products round)
        let bits20 = |v: f64| (v * f64::from(1 << 20)).floor() / f64::from(1 << 20);
        let on_axis = |x: &PointSet<f64>| map(x, &|e, v| if e % d == 0 { bits20(v) } else { 0.0 });
        let axis_queries = on_axis(&queries);
        let (q0, offsets) = (axis_queries.point(0)[0], on_axis(&base));
        let mirrored = map(&base, &|e, _| {
            let (j, delta) = (e / d, offsets.point(e / d / 2)[0]);
            match (e % d, j % 2) {
                (0, 0) => q0 - delta,
                (0, _) => q0 + delta,
                _ => 0.0,
            }
        });
        let cases: [(&str, PointSet<f64>, PointSet<f64>); 5] = [
            ("uniform", base.clone(), queries.clone()),
            ("duplicated", dup(&base), dup(&queries)),
            ("grid", grid(&base), grid(&queries)),
            ("mirrored", mirrored, axis_queries.clone()),
            ("offset", far(&base), far(&queries)),
        ];
        for (name, refs, queries) in &cases {
            let index = flat_index(refs);
            let shared = test_shared(d, n);
            let stat = ShardStat::default();
            let mut lane = Lane::new(0, index.lanes().0, DistanceKind::SqL2, 64, false);
            let mut exec = Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>());
            for m in [1, 3, 8, 32] {
                for k in [1, 16, 100] {
                    let coords = &queries.as_slice()[..m * d];
                    let bytes = coord_bytes(coords);
                    let now = Instant::now();
                    let job = test_job(m, k, now, now + Duration::from_secs(60));
                    lane.enqueue(job, &raw_query(&bytes, m, d, k), 0.0);
                    assert!(shared.metrics.admit(m, 1024));
                    let mut got = Vec::new();
                    flush_lane(
                        &mut lane,
                        &shared,
                        &stat,
                        FlushReason::Model,
                        &mut |_, reply| match reply {
                            Reply::Table(t, _) => t.encode_into(&mut got),
                            other => panic!("unexpected reply status {:?}", other.status()),
                        },
                    );
                    let (q_idx, r_idx): (Vec<usize>, Vec<usize>) =
                        ((0..m).collect(), (0..n).collect());
                    let mut want = NeighborTable::<f64>::new(m, k);
                    exec.update_cross_reusing(
                        queries,
                        &q_idx,
                        refs,
                        &r_idx,
                        DistanceKind::SqL2,
                        &mut want,
                        &mut BatchScratch::new(),
                    );
                    let mut want_bytes = Vec::new();
                    want.encode_into(&mut want_bytes);
                    assert!(got == want_bytes, "{name}: m = {m}, k = {k}: rows differ");
                }
            }
            let certified = stat.certified_rows.load(Ordering::Relaxed);
            let fallback = stat.certify_fallback_rows.load(Ordering::Relaxed);
            let skipped = stat.certify_skipped_rows.load(Ordering::Relaxed);
            let rows = (certified, fallback, skipped);
            assert_eq!(
                certified + fallback + skipped,
                3 * (1 + 3 + 8 + 32),
                "{name}"
            );
            match *name {
                "uniform" => assert!(certified > 0 && fallback == 0, "uniform: {rows:?}"),
                // the first batch fails and switches the path off
                "offset" => assert!(fallback > 0 && skipped > 0, "offset: {rows:?}"),
                _ => {}
            }
        }
    }

    /// A flat index stores its references once per precision, as panels
    /// (`⌈n/NR⌉·NR·d` elements each), builds no forest, and its lanes
    /// answer the bits of a gathered call on the row-major table without
    /// ever sizing an `Rc` buffer for the table — which that gathered call
    /// does (the f64 lane's rerank gathers only its `2k` candidates).
    #[test]
    fn flat_index_keeps_one_panel_copy_per_precision_and_no_rc_buffer() {
        fn flush_one_batch<T: FusedScalar>(lane: LaneRefs<'_, T>, refs: &PointSet<f64>) {
            let (n, d, m, k) = (refs.len(), refs.dim(), 32, 4);
            let mut state = 29u64;
            let coords: Vec<f64> = (0..m * d).map(|_| coord(&mut state)).collect();
            let bytes = coord_bytes(&coords);
            let shared = test_shared(d, n);
            let mut lane = Lane::new(0, lane, DistanceKind::SqL2, 64, false);
            let now = Instant::now();
            let job = test_job(m, k, now, now + Duration::from_secs(60));
            lane.enqueue(job, &raw_query(&bytes, m, d, k), 0.0);
            assert!(shared.metrics.admit(m, 1024));
            let mut got = Vec::new();
            crate::test_alloc::take_largest();
            let stat = ShardStat::default();
            flush_lane(
                &mut lane,
                &shared,
                &stat,
                FlushReason::Model,
                &mut |_, reply| {
                    if let Reply::Table(t, _) = reply {
                        t.encode_into(&mut got);
                    }
                },
            );
            let served = crate::test_alloc::take_largest();

            let table: PointSet<T> = refs.cast();
            let mut queries = PointSet::<T>::from_vec(d, 0, Vec::new());
            queries.append_from_f64(m, coords.iter().copied());
            let (q_idx, r_idx): (Vec<usize>, Vec<usize>) = ((0..m).collect(), (0..n).collect());
            let mut want = NeighborTable::<T>::new(m, k);
            let mut exec = Gsknn::<T>::new(GsknnConfig::for_scalar::<T>());
            exec.update_cross_reusing(
                &queries,
                &q_idx,
                &table,
                &r_idx,
                DistanceKind::SqL2,
                &mut want,
                &mut BatchScratch::new(),
            );
            let gathered = crate::test_alloc::take_largest();
            let mut want_bytes = Vec::new();
            want.encode_into(&mut want_bytes);
            assert_eq!(got, want_bytes, "{}", T::NAME);
            // n < nc and d < dc: the gathered call's Rc is the whole table
            let rc = n.div_ceil(T::NR) * T::NR * d * T::BYTES;
            assert!(gathered >= rc, "{}: {gathered} B < Rc {rc} B", T::NAME);
            assert!(served < rc / 4, "{}: {served} B allocated", T::NAME);
        }

        let _guard = lock_flushes();
        let (n, d) = (1001, 16);
        let refs = gen_refs(n, d, &mut 23u64);
        let index = ServeIndex::build(refs.clone(), 1, n, 7);
        let IndexRefs::Flat {
            packed64, packed32, ..
        } = &index.refs
        else {
            panic!("one tree whose leaf holds the table is a flat index");
        };
        assert_eq!(packed64.panels().len(), n.div_ceil(4) * 4 * d);
        assert_eq!(packed32.panels().len(), n.div_ceil(8) * 8 * d);
        assert_eq!((index.len(), index.dim()), (n, d));
        let (lane64, lane32) = index.lanes();
        flush_one_batch(lane64, &refs);
        flush_one_batch(lane32, &refs);
    }

    /// The tentpole's core guarantee: with observability compiled out, a
    /// steady-state query cycle — zero-copy decode into the pack buffer,
    /// admission, flush through the reusable workspace, reply encode —
    /// performs **zero** heap allocations. Counted by the crate's
    /// test-only global allocator ([`crate::test_alloc`]). The lane is a
    /// flat index's f64 lane, so every cycle runs the certified path.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn steady_state_query_cycle_performs_no_heap_allocation() {
        steady_cycles_allocate_nothing(256, 8, 2);
    }

    /// The same cycle with a batch whose f32 scan reaches the kernel's
    /// split floor: a lane that let its kernels split would spawn workers
    /// there — and allocate. A shard is its core; its kernels run on one.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn a_batch_above_the_split_floor_stays_on_the_shard_and_allocates_nothing() {
        let (n, d, m) = (8192, 64, 32);
        assert!(m * n * d >= gsknn_core::SPLIT_FLOOR);
        steady_cycles_allocate_nothing(n, d, m);
    }

    /// 150 cycles of an `m`-row, k = 4 batch on the f64 lane of a flat
    /// index over `n` references in `d` dimensions; the last 100 must not
    /// allocate.
    #[cfg(not(feature = "obs"))]
    fn steady_cycles_allocate_nothing(n: usize, d: usize, m: usize) {
        let _guard = lock_flushes();
        let mut state = 17u64;
        let refs = gen_refs(n, d, &mut state);
        let index = flat_index(&refs);
        let shared = test_shared(d, n);
        let stat = ShardStat::default();
        let mut lane = Lane::new(0, index.lanes().0, DistanceKind::SqL2, 4, false);

        let coords: Vec<f64> = (0..m * d).map(|_| coord(&mut state)).collect();
        let bytes = coord_bytes(&coords);
        let mut out: Vec<u8> = Vec::new();
        let mut cycle = |out: &mut Vec<u8>| {
            let q = raw_query(&bytes, m, d, 4);
            assert!(shared.metrics.admit(m, 1024));
            let now = Instant::now();
            lane.enqueue(test_job(m, 4, now, now + Duration::from_secs(1)), &q, 0.0);
            let mut sink = |job: &mut PendingJob, reply: Reply<'_, f64>| {
                out.clear();
                let mark = begin_response_frame(out, reply.status(), job.trace_id);
                if let Reply::Table(t, _) = reply {
                    t.encode_into(out);
                }
                finish_frame(out, mark);
            };
            flush_lane(&mut lane, &shared, &stat, FlushReason::Deadline, &mut sink);
        };
        for _ in 0..50 {
            cycle(&mut out); // warmup: buffers grow to their steady size
        }
        let before = crate::test_alloc::alloc_count();
        for _ in 0..100 {
            cycle(&mut out);
        }
        let after = crate::test_alloc::alloc_count();
        assert_eq!(
            after - before,
            0,
            "steady-state query cycle must not allocate (obs off)"
        );
        let tried = stat.certified_rows.load(Ordering::Relaxed)
            + stat.certify_fallback_rows.load(Ordering::Relaxed);
        assert_eq!(tried, 150 * m as u64, "every cycle ran the certified path");
    }

    /// Satellite regression: the 1000th query through a recycled shard
    /// workspace is bit-identical to the same query through a fresh
    /// workspace — for both precisions, with injected `BatchExec` panics
    /// interleaved when the `faults` feature is on (the workspace is
    /// poisoned-and-rebuilt on panic, and must come back clean). `lane`
    /// picks the precision's lane of a flat index, so the f64 run goes
    /// through the certified path.
    fn recycled_matches_fresh<T: FusedScalar>(seed: u64, lane: fn(&ServeIndex) -> LaneRefs<'_, T>) {
        let _guard = lock_flushes();
        let n = 48;
        let d = 5;
        let k = 3;
        let mut state = seed | 1;
        let refs64 = gen_refs(n, d, &mut state);
        let refs: PointSet<T> = refs64.cast();
        let index = flat_index(&refs64);
        let shared = test_shared(d, n);
        let stat = ShardStat::default();
        let mut lane = Lane::new(0, lane(&index), DistanceKind::SqL2, 64, false);

        for i in 0..1000usize {
            let m = 1 + (splitmix(&mut state) % 3) as usize;
            let coords: Vec<f64> = (0..m * d).map(|_| coord(&mut state)).collect();
            let bytes = coord_bytes(&coords);
            let q = raw_query(&bytes, m, d, k);
            #[cfg(feature = "faults")]
            let inject = i % 97 == 13;
            #[cfg(not(feature = "faults"))]
            let inject = false;
            #[cfg(feature = "faults")]
            if inject {
                gsknn_faults::configure(gsknn_faults::FaultPlan::new(1).with(
                    gsknn_faults::FaultPoint::BatchExec,
                    gsknn_faults::Mode::Nth(1),
                ));
            }
            assert!(shared.metrics.admit(m, 1 << 20));
            let now = Instant::now();
            lane.enqueue(test_job(m, k, now, now + Duration::from_secs(5)), &q, 0.0);
            let mut reply_bytes: Option<Vec<u8>> = None;
            let mut got_internal = false;
            {
                let mut sink = |_job: &mut PendingJob, reply: Reply<'_, T>| match reply {
                    Reply::Table(t, Status::Ok) => {
                        let mut b = Vec::new();
                        t.encode_into(&mut b);
                        reply_bytes = Some(b);
                    }
                    Reply::Message(Status::InternalError, _) => got_internal = true,
                    other => panic!("unexpected reply status {:?}", other.status()),
                };
                flush_lane(&mut lane, &shared, &stat, FlushReason::Deadline, &mut sink);
            }
            if inject {
                #[cfg(feature = "faults")]
                gsknn_faults::clear();
                assert!(
                    got_internal,
                    "injected batch panic must answer InternalError"
                );
                continue;
            }
            let _ = got_internal;
            let reply_bytes = reply_bytes.expect("live batch answers Ok");
            if i % 250 == 0 || i == 999 {
                // fresh-workspace reference: same coords through a
                // brand-new kernel, table, and scratch
                let mut fresh = Gsknn::<T>::new(GsknnConfig::for_scalar::<T>());
                let mut fresh_scratch = BatchScratch::new();
                let mut fresh_table = NeighborTable::<T>::new(m, k);
                let mut queries = PointSet::<T>::from_vec(d, 0, Vec::new());
                queries.append_from_f64(m, coords.iter().copied());
                let q_idx: Vec<usize> = (0..m).collect();
                let r_idx: Vec<usize> = (0..n).collect();
                fresh.update_cross_reusing(
                    &queries,
                    &q_idx,
                    &refs,
                    &r_idx,
                    DistanceKind::SqL2,
                    &mut fresh_table,
                    &mut fresh_scratch,
                );
                let mut fresh_bytes = Vec::new();
                fresh_table.encode_into(&mut fresh_bytes);
                assert_eq!(
                    reply_bytes, fresh_bytes,
                    "cycle {i}: recycled workspace diverged from fresh"
                );
            }
        }
        assert_eq!(shared.metrics.in_flight(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn recycled_workspace_matches_fresh_f64(seed in 0u64..u64::MAX) {
            recycled_matches_fresh::<f64>(seed, |index| index.lanes().0);
        }

        #[test]
        fn recycled_workspace_matches_fresh_f32(seed in 0u64..u64::MAX) {
            recycled_matches_fresh::<f32>(seed, |index| index.lanes().1);
        }
    }
}
