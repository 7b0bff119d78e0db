//! # gsknn-router — scatter-gather over partitioned gsknn-serve backends
//!
//! A single `gsknn-serve` node holds the whole reference set. Past the
//! memory (or latency) budget of one machine, the reference set is
//! partitioned by row range across N backends, each running with
//! [`gsknn_serve::PartitionCfg`] so its replies are `GSPK` partial
//! envelopes with *globally numbered* neighbor ids. This crate is the
//! tier in front of them:
//!
//! * **Exactness.** The global top-k of a union is contained in the
//!   union of per-partition top-ks, and every implementation in this
//!   workspace orders candidates by `(distance, index)`. So the router's
//!   truncated merge ([`knn_select::merge_partial_tables`]) of all N
//!   partials is **bit-identical** to what one node holding the full
//!   reference set would answer — asserted against the brute-force
//!   oracle in this crate's e2e tests and the chaos suite.
//! * **Fan-out.** The router speaks the same wire protocol as a single
//!   node — clients need no changes. Each handler thread owns one
//!   persistent [`gsknn_serve::Client`] per backend; a query is written
//!   to every healthy backend *before* the first reply is awaited, so
//!   the wall-clock cost is the slowest partition, not the sum.
//! * **Replication.** Each partition may be served by R replicas
//!   ([`RouterConfig::replicas`], backends listed partition-major). The
//!   router sends each query to the partition's *preferred* replica —
//!   the live one with the lowest EWMA reply latency (untried replicas
//!   sort first, which spreads initial load) — and a query succeeds
//!   **undegraded** as long as one replica per partition answers within
//!   budget. Each partition runs one attempt sequence under one
//!   deadline: a failure moves it to an untried sibling (or, with none,
//!   a fresh connection), and a replica quiet past ~3 EWMA reply
//!   latencies is raced against a sibling. A pure state machine
//!   (`race`) makes every decision; a seeded simulator replays it.
//! * **Degradation.** A partition with no valid partial by the deadline
//!   goes missing (a silent or failed backend is marked down,
//!   `gsknn_router_backend_up 0`): the surviving partials ship as
//!   `Status::OkDegraded` with a partial envelope carrying
//!   `contributed`/`total` — a typed answer, not an error. A background
//!   prober folds downed backends back in when they recover.
//! * **Safety against splits.** Every partial carries the partition-map
//!   epoch it was computed under and is validated *per replica*; the
//!   router drops partials from any other epoch
//!   (`gsknn_router_epoch_rejects_total`) or the wrong partition slice,
//!   so a stale or miswired replica can never leak rows from an old
//!   partitioning into a merged answer.
//! * **Observability.** The same stack as the serve tier: one snapshot,
//!   [`RouterReport`], rendered as the wire `Stats` JSON, the drain
//!   table and the Prometheus exposition (wire `Metrics` op or
//!   `--metrics-addr` HTTP) through the serve tier's writer — the
//!   `gsknn_router_*` counter families plus one
//!   `gsknn_router_backend_latency_seconds` histogram per backend
//!   (`_bucket`, `_sum`, `_count`); fan-out / per-backend-wait / merge
//!   spans in the slowest-traces ring (wire `Traces` op), and a
//!   slow-query log line.

mod metrics;
mod race;
mod router;
#[cfg(test)]
mod sim;

pub use gsknn_obs::RouterReport;
pub use metrics::{BackendStat, RouterMetrics};
pub use router::{Router, RouterConfig};
