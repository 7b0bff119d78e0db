//! The fixed part of the ledger: workload shapes, frozen rates and the
//! metric names `BENCHMARK.json` declares. Later issues cite these names,
//! so nothing here is derived at run time.

/// Unrecorded lead-in before every timed window, seconds.
pub const WARMUP_S: f64 = 2.0;
/// Query points in the stream pool of an `m = 1` workload; the stream
/// cycles through the pool in order.
pub const POOL_QUERIES: usize = 4096;
/// Replies checked against `knn_ref::oracle::exact` for `recall`.
pub const ORACLE_SAMPLE: usize = 256;
/// Queries replayed one at a time through each ladder rung.
pub const LADDER_QUERIES: usize = 2000;
/// `(q, r)` index-list pairs a kernel workload cycles through.
pub const KERNEL_PAIRS: usize = 4;
/// Rows of each kernel call compared with the oracle.
pub const KERNEL_SAMPLE_ROWS: usize = 64;

/// Open-loop arrival rate of `serve_m1_open`: half the `serve_m1_sat`
/// throughput of the calibration run in README.md, to 2 significant
/// figures. Frozen — never re-derived.
pub const SERVE_M1_OPEN_QPS: f64 = 11000.0;
/// `route_2x2_open` runs at one quarter of [`SERVE_M1_OPEN_QPS`].
pub const ROUTE_2X2_OPEN_QPS: f64 = SERVE_M1_OPEN_QPS / 4.0;

/// How requests are issued.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// One thread calling the fused kernel back to back.
    Calls,
    /// Poisson arrivals at a fixed rate, whatever the replies do, over a
    /// pool of `conns` connections (one request per connection at a time).
    Open { qps: f64, conns: usize },
    /// `conns` callers, one connection each, that wait for their reply
    /// before they send again.
    Closed { conns: usize },
}

/// Which tiers a workload's requests pass through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Gsknn::update_cross_reusing` in-process, no index, no socket.
    Kernel,
    /// One `gsknn_serve::Server` over TCP.
    Serve,
    /// `gsknn_router::Router` over 2 partitions × 2 replicas.
    Route,
}

/// One workload: its inputs' shape and its traffic.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// References searched (kernel: per call; serve: in the index).
    pub n: usize,
    pub d: usize,
    pub k: usize,
    /// Query rows per request (kernel: per call).
    pub m: usize,
    /// Kernel: points in the coordinate table the index lists draw from.
    pub table_n: usize,
    /// Index shape: `ServeIndex::build(refs, trees, leaf, seed)`.
    pub trees: usize,
    pub leaf: usize,
    pub deadline_ms: u32,
    pub load: Load,
}

impl Workload {
    /// Exact search (every reply must equal the brute-force oracle).
    pub fn exact(&self) -> bool {
        self.kind == Kind::Kernel || (self.trees == 1 && self.leaf >= self.n)
    }

    /// Query rows in the stream pool.
    pub fn pool_rows(&self) -> usize {
        if self.m == 1 {
            POOL_QUERIES
        } else {
            32 * self.m
        }
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "kernel_paper",
        why: "the paper's regime (m=n=4096 gathered from a 16384-point table, d=64, k=16): micro-kernel and rank-dc do the work; serve, route and wire do none",
        kind: Kind::Kernel,
        n: 4096,
        d: 64,
        k: 16,
        m: 4096,
        table_n: 16384,
        trees: 0,
        leaf: 0,
        deadline_ms: 0,
        load: Load::Calls,
    },
    Workload {
        name: "kernel_largek",
        why: "same kernel driver at d=16, k=512: heap selection dominates instead of rank-dc, so a heap or variant change that helps one and costs the other shows",
        kind: Kind::Kernel,
        n: 4096,
        d: 16,
        k: 512,
        m: 4096,
        table_n: 16384,
        trees: 0,
        leaf: 0,
        deadline_ms: 0,
        load: Load::Calls,
    },
    Workload {
        name: "serve_m1_open",
        why: "independent users: m=1 queries arrive open-loop (Poisson, frozen rate) at one TCP server over a forest index; wire, coalescer and Forest::query_with set the latency, kernel work is tiny",
        kind: Kind::Serve,
        n: 8192,
        d: 16,
        k: 8,
        m: 1,
        table_n: 0,
        trees: 4,
        leaf: 512,
        deadline_ms: 50,
        load: Load::Open {
            qps: SERVE_M1_OPEN_QPS,
            conns: 64,
        },
    },
    Workload {
        name: "serve_m1_sat",
        why: "64 waiting callers (64 connections, one m=1 query each, closed loop) on the same server: saturation throughput of the small-m path",
        kind: Kind::Serve,
        n: 8192,
        d: 16,
        k: 8,
        m: 1,
        table_n: 0,
        trees: 4,
        leaf: 512,
        deadline_ms: 50,
        load: Load::Closed { conns: 64 },
    },
    Workload {
        name: "serve_exact_batch",
        why: "m=32 BatchQuery on a flat exact index (n=32768, d=64, k=16), 2 callers closed loop: the kernel streams 16 MB of references per batch; coalescer and tree routing are bypassed, wire cost amortised 32x",
        kind: Kind::Serve,
        n: 32768,
        d: 64,
        k: 16,
        m: 32,
        table_n: 0,
        trees: 1,
        leaf: 32768,
        deadline_ms: 250,
        load: Load::Closed { conns: 2 },
    },
    Workload {
        name: "route_2x2_open",
        why: "the serve_m1_open stream through a Router over 2 partitions x 2 replicas at a quarter of its rate: router cost is a subtraction and the slowest partition sets the tail",
        kind: Kind::Route,
        n: 8192,
        d: 16,
        k: 8,
        m: 1,
        table_n: 0,
        trees: 4,
        leaf: 512,
        // not serve_m1_open's 50 ms: the router marks a replica that stays
        // silent for the whole budget down, and at 50 ms about one run in
        // fifteen lost a partition that way until the prober rejoined it
        deadline_ms: 250,
        load: Load::Open {
            qps: ROUTE_2X2_OPEN_QPS,
            conns: 64,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A declared metric: name and unit as `BENCHMARK.json` lists them.
pub type MetricDecl = (&'static str, &'static str);

/// Printed by `--trace 0`, one value per workload. Latency percentiles
/// are not here: their run-to-run spread on the open-loop workloads is
/// wider than any bound the benchmark may set, so they are the per-layer
/// `client.lat_*` (README.md, "Demoted metrics").
pub const END_TO_END: [MetricDecl; 5] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("goodput_frac", "frac"),
    ("recall", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Printed by `--trace 1`. A layer the workload does not pass through
/// reports 0.
pub const PER_LAYER: [MetricDecl; 66] = [
    ("machine.peak_gflops", "gflops"),
    ("machine.stream_gbs", "GB/s"),
    ("core.gflops", "gflops"),
    ("core.roofline_frac", "frac"),
    ("core.flops_per_byte", "flop/B"),
    ("core.microkernel_ns_per_tile", "ns"),
    ("core.pack_q_ns_per_call", "ns"),
    ("core.pack_r_ns_per_call", "ns"),
    ("core.kernel_ns_per_query_m1", "ns"),
    ("core.kernel_ns_per_query_m8", "ns"),
    ("core.kernel_ns_per_query_m32", "ns"),
    ("core.kernel_ns_per_query_m4096", "ns"),
    ("core.filter_rate", "frac"),
    ("core.selection_rate", "frac"),
    ("core.model_err_frac", "frac"),
    ("core.f32_over_f64", "ratio"),
    ("select.heap_ns_per_row_k16", "ns"),
    ("select.heap_ns_per_row_k512", "ns"),
    ("select.merge_partial_ns_per_query", "ns"),
    ("select.table_encode_ns", "ns"),
    ("select.table_decode_ns", "ns"),
    ("ref.gemm_knn_ns_per_query", "ns"),
    ("ref.floor_sorted_insert_ns_per_query", "ns"),
    ("rkdt.build_s", "s"),
    ("rkdt.query_ns_per_query_m1", "ns"),
    ("rkdt.query_ns_per_query_m32", "ns"),
    ("rkdt.leaf_groups_per_batch", "count"),
    ("wire.encode_req_ns", "ns"),
    ("wire.decode_req_ns", "ns"),
    ("wire.encode_resp_ns", "ns"),
    ("wire.decode_resp_ns", "ns"),
    ("wire.bytes_per_query", "B"),
    ("serve.batch_m_mean", "count"),
    ("serve.flush_model_frac", "frac"),
    ("serve.flush_deadline_frac", "frac"),
    ("serve.coalesce_ratio", "frac"),
    ("serve.queue_high_water", "count"),
    ("serve.busy_total", "count"),
    ("serve.timeout_total", "count"),
    ("serve.roofline_headroom", "ratio"),
    ("router.fanout_overhead_us", "us"),
    ("router.hedges_total", "count"),
    ("router.failovers_total", "count"),
    ("router.degraded_total", "count"),
    ("router.backend_skew_frac", "ratio"),
    ("ladder.floor_ns", "ns"),
    ("ladder.gemm_ref_ns", "ns"),
    ("ladder.kernel_ns", "ns"),
    ("ladder.index_ns", "ns"),
    ("ladder.tcp_ns", "ns"),
    ("ladder.routed_ns", "ns"),
    ("loadgen.offered_qps", "1/s"),
    ("loadgen.achieved_qps", "1/s"),
    ("loadgen.send_lag_p99_us", "us"),
    ("loadgen.inflight_max", "count"),
    ("client.lat_p50_us", "us"),
    ("client.lat_p99_us", "us"),
    ("client.lat_samples", "count"),
    ("client.fail_frac", "frac"),
    ("self.request_wait_ns", "ns"),
    ("self.client_send_ns", "ns"),
    ("self.client_recv_ns", "ns"),
    ("self.wire_codec_ns", "ns"),
    ("self.table_decode_ns", "ns"),
    ("self.kernel_call_ns", "ns"),
    ("bench.trace_overhead_frac", "frac"),
];
