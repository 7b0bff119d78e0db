//! # gsknn-serve — an online kNN query service with model-driven batch
//! # coalescing
//!
//! The paper's kernel is a batch machine: its GFLOPS depend on `m`
//! amortizing the packing and selection overheads (§2.6). An online
//! service answering one query at a time would live at the `m = 1` floor
//! of that curve. This crate closes the gap with a **model-driven batch
//! coalescer**: arriving queries are held in a bounded queue and flushed
//! into one cross-table kernel call when the §2.6 performance model
//! predicts the batch has reached the efficient regime — predicted
//! GFLOPS within a configurable fraction of the asymptote for the
//! index's `(n, d, k)` — or when the oldest request's latency budget
//! runs out, whichever is first.
//!
//! Pieces:
//!
//! * [`wire`] — length-prefixed binary protocol, version 2 (`Query`,
//!   `BatchQuery`, `Stats`, `Ping`, `Shutdown`, `Metrics`, `Traces`,
//!   `TimeSeries`, `TraceFetch`; per-request `f64`/`f32` precision; a
//!   `trace_id` on every query and response); query responses are
//!   [`knn_select::NeighborTable`] v2 bytes. Version-1 frames still
//!   decode (`trace_id = 0`).
//! * [`coalesce`] — the flush policy: `m*` from the model, the oldest
//!   parked request's half-budget deadline, the adaptive EWMA
//!   wait-vs-save rule ([`coalesce::adaptive_should_flush`]), drain.
//! * [`server`] — `TcpListener` acceptor round-robining connections over
//!   **thread-per-core shards**. Each shard owns its slice of
//!   connections (readiness-polled via [`mux`], no thread per
//!   connection), both precision lanes' parked batches, and a
//!   core-pinnable reusable kernel workspace; queries decode zero-copy
//!   from the receive buffer into the lane's pack layout and the kernel
//!   runs inline on the shard thread — zero heap allocations per query
//!   at steady state with `obs` off. Bounded-queue admission control
//!   (`Busy`), per-request timeouts, graceful drain on the `Shutdown`
//!   op or SIGTERM.
//! * `certify` — the flat index's f64 lane for squared ℓ2: an f32 scan
//!   of the f32 panels for `2k` candidates, an f64 rerank, and a
//!   rounding certificate per row; a row that fails is re-run as the
//!   full f64 scan, so every reply is the f64 scan's bits. Batches where
//!   that would not pay run the full scan.
//! * [`mux`] — the `poll(2)` readiness multiplexer backing the shard
//!   event loop (raw `extern "C"` binding, no async runtime).
//! * [`client`] — blocking client used by `gsknn-cli query-remote`;
//!   bounded socket timeouts and [`Client::query_with_retry`] for
//!   transient failures.
//! * [`retry`] — exponential backoff with full jitter, bounded by
//!   attempts and a wall-clock deadline.
//! * [`degrade`] — queue-pressure overload detector with hysteresis;
//!   while overloaded the server shrinks its batch target and (opt-in)
//!   answers f64 queries from the f32 lane with `Status::OkDegraded`.
//! * [`metrics`] — shared counters plus lock-free log-bucketed latency
//!   histograms (per lane × terminal status), reported as a
//!   [`gsknn_obs::ServeReport`] (batch-size histogram, flush-trigger
//!   ratio, predicted-vs-measured batch cost drift, worker
//!   panic/respawn and degradation counts, p50/p90/p99/p999 latency),
//!   also rendered as a Prometheus-style plaintext exposition (the
//!   `Metrics` wire op or [`ServerConfig::metrics_addr`]).
//!   The same counters feed continuous performance accounting under the
//!   zero-sized-without-`obs` guarantee: a per-second load time-series
//!   (arrivals, queue depth, batch-size mean, flush reasons, aggregate
//!   kernel-phase split) whose rows the overload monitor derives from
//!   them — so they sum to the report — exported via the `TimeSeries`
//!   wire op and rendered by `gsknn-cli top`, plus a roofline recorder
//!   classifying every executed batch against the §2.6 machine
//!   asymptotes (compute- / bandwidth- / coalesce- / queue-bound with a
//!   headroom gauge, surfaced in the [`gsknn_obs::ServeReport`]).
//! * `trace` — the request-scoped span recorder: every query carries a
//!   trace id (echoed in the response header) and, with the `obs`
//!   feature, a span timeline (decode, admission, coalesce wait,
//!   amortized kernel phases, reply write). The N slowest traces are
//!   retained and exported as Chrome trace-event JSON via the `Traces`
//!   wire op (`gsknn-cli trace`). In partition mode the spans also ride
//!   each `PartialTopK` reply as a compact span annex (and stay
//!   fetchable by id via `TraceFetch`) so a router can stitch one
//!   end-to-end distributed trace. Without `obs` the recorder and the
//!   fragment ring are zero-sized and the hot path does no span work.
//!
//! Failure semantics: shard batches run under `catch_unwind`; a panic
//! answers every in-flight request in the batch with
//! `Status::InternalError` (safe to retry — the batch produced nothing)
//! and the shard rebuilds its workspace, discarding any
//! possibly-poisoned packing state, while its other connections keep
//! being served. With the `faults` feature the
//! [`gsknn_faults`] injection points compiled into decode, flush and
//! batch execution let `tests/chaos.rs` drive all of this
//! deterministically; without it they compile to nothing.
//!
//! ```no_run
//! use gsknn_serve::{Client, Outcome, ServeIndex, Server, ServerConfig};
//!
//! let refs = dataset::uniform(10_000, 16, 1);
//! let index = ServeIndex::build(refs, 4, 512, 7);
//! let server = Server::bind(ServerConfig::default(), index).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let point = vec![0.5f64; 16];
//! let reply = client.query(&point, 1, 8, 200).unwrap();
//! match reply.outcome {
//!     Outcome::Neighbors(table) => println!(
//!         "{:?} in {:?} (trace {:016x})",
//!         table.row(0),
//!         reply.rtt,
//!         reply.trace_id
//!     ),
//!     other => println!("{other:?}"),
//! }
//! ```

mod certify;
pub mod client;
pub mod coalesce;
pub mod degrade;
pub mod metrics;
pub mod mux;
pub mod retry;
pub mod server;
mod shard;
mod trace;
pub mod wire;

pub use client::{Client, Outcome, QueryReply, DEFAULT_CONNECT_TIMEOUT, DEFAULT_IO_TIMEOUT};
pub use coalesce::{
    adaptive_should_flush, batch_target, predict_batch_cost, ArrivalRate, FlushReason, ASYMPTOTE_M,
};
pub use degrade::{degraded_target, OverloadDetector, Transition};
pub use gsknn_obs::ServeReport;
pub use metrics::{Metrics, RooflineRecorder, WINDOW_S};
pub use retry::RetryPolicy;
pub use server::{PartitionCfg, ServeIndex, Server, ServerConfig};
pub use wire::{
    decode_partial, is_partial_body, PartialHeader, Precision, Request, Response, Status,
    WireError, PARTIAL_HEADER_LEN, WIRE_VERSION,
};

/// Test-only counting global allocator: proves the shard hot path's
/// zero-allocations-per-query claim structurally instead of by review
/// (see `shard::tests::steady_state_query_cycle_performs_no_heap_allocation`).
/// Counts `alloc` and `realloc` calls on the current thread, and keeps the
/// largest size one of them asked for.
#[cfg(test)]
pub(crate) mod test_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-initialized: the first count bump must not itself
        // allocate through lazy TLS init re-entering the allocator
        static COUNT: Cell<u64> = const { Cell::new(0) };
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    /// try_with: a count during TLS teardown is silently dropped rather
    /// than aborting the process
    fn observe(size: usize) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    }

    pub struct CountingAllocator;

    // SAFETY: every call is forwarded to `System` with the caller's own
    // arguments; the counting touches only thread-local cells.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            observe(layout.size());
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            observe(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// The largest allocation (or reallocation) size on this thread since
    /// the previous call.
    pub fn take_largest() -> usize {
        LARGEST.with(|c| c.replace(0))
    }

    #[global_allocator]
    static ALLOC: CountingAllocator = CountingAllocator;

    /// Allocations (+ reallocations) observed on this thread so far.
    /// Only read by the `not(feature = "obs")` zero-alloc guard test —
    /// the allocator itself stays installed in every test build so the
    /// counting path is always exercised.
    #[allow(dead_code)]
    pub fn alloc_count() -> u64 {
        COUNT.with(|c| c.get())
    }
}
