//! The query service: a `TcpListener` acceptor round-robining
//! connections over **thread-per-core shards** ([`crate::shard`]). No
//! async runtime — crossbeam scoped threads and channels only (see
//! DESIGN.md §9).
//!
//! Request lifecycle:
//!
//! 1. The acceptor hands each fresh `TcpStream` to a shard. From then on
//!    the shard thread owns the connection outright: nonblocking reads,
//!    frame parsing, validation (dimension, `k ≤ k_max`, finite
//!    coordinates), and all-or-nothing admission against the bounded
//!    in-flight budget (`Busy` on overflow).
//! 2. Admitted queries park in the shard's per-precision lane: their
//!    coordinates land zero-copy in the lane's pack buffer and a
//!    [`crate::shard::PendingJob`] rides along. The lane coalesces until
//!    the §2.6 model says the batch reached the efficient regime
//!    (`m ≥ m*`, see [`crate::coalesce::batch_target`]), the **oldest**
//!    parked job has spent half its latency budget, or — with
//!    [`ServerConfig::adaptive_coalesce`] — the EWMA arrival-rate model
//!    says waiting for more traffic can no longer pay for itself.
//! 3. The flushed batch runs *inline on the shard thread* through its
//!    reusable workspace at the batch's largest `k`; each job's rows are
//!    truncated to its own `k` and sent back as NeighborTable v2 bytes.
//!    Jobs whose full budget elapsed before the kernel started are
//!    answered `Timeout` without computing.
//! 4. `Shutdown` (or SIGTERM) flips the drain flag: parked batches flush
//!    as `Drain`, new queries get `ShuttingDown`, shards push their
//!    remaining replies and exit, and `run` returns the final
//!    [`ServeReport`].
//!
//! Failure semantics (see DESIGN.md §10):
//!
//! * **Supervision** — the kernel call runs under `catch_unwind`. A
//!   panicking batch answers every live job `InternalError` (nothing was
//!   computed, so clients may retry), the shard's workspace — which the
//!   panic may have left half-packed — is discarded and rebuilt, and the
//!   shard keeps serving its other connections. One per-shard count,
//!   reported as both `worker_panics` and `worker_respawns`, globally
//!   and per shard.
//! * **Degradation** — a monitor thread feeds queue pressure into an
//!   [`OverloadDetector`] (it is also the clock that closes each second
//!   of the `TimeSeries` rows, derived from [`Metrics`]); while
//!   overloaded, lanes shrink their batch target
//!   ([`crate::degrade::degraded_target`]) to bound latency, and with
//!   [`ServerConfig::degrade_precision`] f64 queries are answered from
//!   the f32 lane as `OkDegraded` (the v2 table encoding is
//!   cross-precision, so clients decode transparently).
//! * **Injection** — with the `faults` feature, [`gsknn_faults`] points
//!   corrupt decoded frames, force premature flushes, and panic batch
//!   execution on demand (`tests/chaos.rs`); off, they compile away.

use crate::certify::F32Scan;
use crate::coalesce::batch_target;
use crate::degrade::{OverloadDetector, Transition};
use crate::metrics::{LoadSeries, Metrics};
use crate::shard::{shard_main, LaneRefs, ShardCtx};
use crate::trace::FragmentRing;
use crossbeam::channel;
use dataset::{DistanceKind, PointSet};
use gsknn_core::{FusedScalar, GsknnConfig, MachineParams, Model, PackedRefs};
use gsknn_obs::{ServeReport, TraceRing};
use rkdt::Forest;
use std::io;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide SIGTERM flag (the handler may not touch anything else).
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Register a minimal SIGTERM handler that flips a process-wide flag
/// ([`sigterm_received`]), so `kill` drains a server or router exactly
/// like the wire `Shutdown` op. No-op off unix.
pub fn install_sigterm() {
    #[cfg(unix)]
    {
        extern "C" fn on_term(_signum: i32) {
            SIGTERM.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM_NUM: i32 = 15;
        /// `SIG_ERR`: `(sighandler_t) -1`.
        const SIG_ERR: usize = usize::MAX;
        // SAFETY: signal(2) takes a signal number and a handler address.
        // `on_term` is an `extern "C" fn(i32)`, the handler ABI, and lives
        // as long as the program; it only stores to a static atomic, which
        // is async-signal-safe. 15 is SIGTERM on every unix target.
        let prev = unsafe { signal(SIGTERM_NUM, on_term as *const () as usize) };
        debug_assert_ne!(prev, SIG_ERR, "signal(SIGTERM) was refused");
    }
}

/// `true` once the handler of [`install_sigterm`] has seen a SIGTERM.
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::SeqCst)
}

/// Identity of this server inside a partitioned (scatter-gather)
/// deployment. When set, every successful query reply is wrapped in the
/// `GSPK` partial envelope ([`crate::wire::PartialHeader`]) under
/// [`Status::PartialTopK`](crate::wire::Status), and neighbor ids are
/// shifted by `offset` at encode time so they are global row ids — the
/// router merges partials without any id translation table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionCfg {
    /// This backend's partition index, `0..total`.
    pub id: u16,
    /// Total partitions in the deployment.
    pub total: u16,
    /// Global row id of this partition's first reference point. Added to
    /// every non-sentinel neighbor id on the wire.
    pub offset: u32,
    /// Deployment epoch: the router rejects partials from a different
    /// epoch so a stale backend can never contribute rows from an old
    /// partitioning.
    pub epoch: u64,
    /// Which replica of the partition this server is, `0..replicas`.
    /// Replicas hold identical slices; the id only identifies the copy
    /// in envelopes, metrics and the router's failover accounting.
    pub replica: u16,
    /// How many replicas serve this partition (1 = unreplicated).
    pub replicas: u16,
}

impl PartitionCfg {
    /// An unreplicated partition (replica 0 of 1) — the pre-replication
    /// shape, and the default for `serve --partition` without
    /// `--replica`.
    pub fn solo(id: u16, total: u16, offset: u32, epoch: u64) -> Self {
        PartitionCfg {
            id,
            total,
            offset,
            epoch,
            replica: 0,
            replicas: 1,
        }
    }
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Shard threads (each owns both precision lanes and its slice of
    /// connections). `0` auto-detects: available parallelism, clamped to
    /// `1..=8`.
    pub shards: usize,
    /// Pin shard `i` to core `i` (`sched_setaffinity`; linux only, a
    /// no-op elsewhere). Keeps a shard's reusable workspace resident in
    /// one core's cache.
    pub pin_cores: bool,
    /// Flush undersized batches early when the EWMA arrival rate says
    /// waiting for the model target costs more latency than the larger
    /// batch would save (see [`crate::coalesce::adaptive_should_flush`]).
    /// Off, undersized batches wait out the fixed deadline-half bound.
    pub adaptive_coalesce: bool,
    /// Admission bound: maximum in-flight query points across both lanes.
    pub queue_cap: usize,
    /// Model trigger: flush when predicted GFLOPS reaches this fraction
    /// of the asymptote for the index's shape.
    pub coalesce_frac: f64,
    /// Hard cap on a coalesced batch (also clamps the model target).
    pub max_batch: usize,
    /// Largest `k` a request may ask for.
    pub k_max: usize,
    /// Distance served.
    pub kind: DistanceKind,
    /// While overloaded, answer f64 queries from the f32 lane with
    /// `Status::OkDegraded` (correct neighbor ids at reduced distance
    /// precision) instead of making them wait for the slower lane.
    pub degrade_precision: bool,
    /// Enter overload once in-flight queries stay at or above this
    /// fraction of `queue_cap` for a full [`ServerConfig::overload_window`].
    pub overload_threshold: f64,
    /// How long queue pressure must hold before the overload state
    /// flips (entry and recovery; see [`OverloadDetector`]).
    pub overload_window: Duration,
    /// Log a line to stderr for every request slower than this many
    /// milliseconds end-to-end (with the span breakdown when tracing is
    /// compiled in). `None` disables the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Serve the Prometheus-style metrics exposition over plain HTTP on
    /// this address (e.g. `"127.0.0.1:9109"`). `None` leaves only the
    /// wire `Metrics` op.
    pub metrics_addr: Option<String>,
    /// Capacity of the slowest-traces ring exported by the wire `Traces`
    /// op. `0` disables trace retention (spans are still recorded for
    /// the slow-query log).
    pub trace_ring: usize,
    /// When serving one partition of a scatter-gather deployment, the
    /// partition identity ([`PartitionCfg`]). `None` (the default) keeps
    /// plain single-node replies.
    pub partition: Option<PartitionCfg>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 1,
            pin_cores: false,
            adaptive_coalesce: false,
            queue_cap: 1024,
            coalesce_frac: 0.9,
            max_batch: 512,
            k_max: 128,
            kind: DistanceKind::SqL2,
            degrade_precision: false,
            overload_threshold: 0.75,
            overload_window: Duration::from_millis(250),
            slow_query_ms: None,
            metrics_addr: None,
            trace_ring: 32,
            partition: None,
        }
    }
}

impl ServerConfig {
    /// The shard count [`Server::run`] will use: `shards`, or the
    /// machine's available parallelism clamped to `1..=8` when 0.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 8)
        }
    }
}

/// The loaded index, in one of two shapes ([`IndexRefs`]), each holding
/// its references once per precision so either lane serves at its own
/// width.
pub struct ServeIndex {
    pub(crate) refs: IndexRefs,
    pub(crate) n_trees: usize,
    pub(crate) leaf_size: usize,
}

/// What a [`ServeIndex`] holds.
pub(crate) enum IndexRefs {
    /// One leaf covering the table (`n_trees <= 1`, `leaf_size >= n`):
    /// every batch searches all of it, so each precision's references are
    /// stored already in the kernel's `Rc` panels, under that lane's
    /// blocking — `⌈n/NR⌉·NR·d` elements, the table's own size up to one
    /// padded strip — and no forest is built. `r_max` is the largest
    /// reference norm, which the f64 lane's certificate bounds with.
    Flat {
        packed64: PackedRefs<f64>,
        packed32: PackedRefs<f32>,
        r_max: f64,
    },
    /// The table at f64 and its f32 cast, plus one randomized-KD-tree
    /// forest routing both (its split projections are precision-free).
    Forest {
        refs64: PointSet<f64>,
        refs32: PointSet<f32>,
        forest: Forest,
    },
}

impl ServeIndex {
    /// Build the index over `refs`: prepacked panels when one leaf covers
    /// the table, else the forest and the f32 cast.
    pub fn build(refs: PointSet<f64>, n_trees: usize, leaf_size: usize, seed: u64) -> Self {
        assert!(!refs.is_empty(), "cannot serve an empty index");
        let refs = if n_trees <= 1 && leaf_size >= refs.len() {
            // f32 first, cast while packing; then the f64 table becomes its
            // own panels in place, so no second f64 copy is ever held
            let ids = (0..refs.len()).collect();
            let packed32 = PackedRefs::pack(&refs, ids, GsknnConfig::for_scalar::<f32>().params);
            let packed64 = PackedRefs::from_table(refs, GsknnConfig::for_scalar::<f64>().params);
            let r2_max = packed64.sqnorms().iter().fold(0.0, |a: f64, &b| a.max(b));
            IndexRefs::Flat {
                packed64,
                packed32,
                r_max: r2_max.sqrt(),
            }
        } else {
            IndexRefs::Forest {
                forest: Forest::build(&refs, n_trees, leaf_size, seed),
                refs32: refs.cast::<f32>(),
                refs64: refs,
            }
        };
        ServeIndex {
            refs,
            n_trees,
            leaf_size,
        }
    }

    /// The f64 and the f32 lane's view of the index.
    pub(crate) fn lanes(&self) -> (LaneRefs<'_, f64>, LaneRefs<'_, f32>) {
        match &self.refs {
            IndexRefs::Flat {
                packed64,
                packed32,
                r_max,
            } => {
                let scan = F32Scan {
                    panels: packed32,
                    r_max: *r_max,
                };
                (
                    LaneRefs::Flat {
                        packed: packed64,
                        scan: Some(scan),
                    },
                    LaneRefs::Flat {
                        packed: packed32,
                        scan: None,
                    },
                )
            }
            IndexRefs::Forest {
                refs64,
                refs32,
                forest,
            } => {
                let (n_trees, leaf_size) = (self.n_trees, self.leaf_size);
                (
                    LaneRefs::Forest {
                        refs: refs64,
                        forest,
                        n_trees,
                        leaf_size,
                    },
                    LaneRefs::Forest {
                        refs: refs32,
                        forest,
                        n_trees,
                        leaf_size,
                    },
                )
            }
        }
    }

    /// Point dimension.
    pub fn dim(&self) -> usize {
        self.lanes().0.dim()
    }

    /// Reference count.
    pub fn len(&self) -> usize {
        self.lanes().0.len()
    }

    /// Never true post-build (`build` rejects empty tables).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Trees in the forest.
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Leaf size the forest was built with.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }
}

/// State shared by the shards, the acceptor, the overload monitor and
/// the metrics listener.
pub(crate) struct Shared {
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: AtomicBool,
    /// Overload state, owned by the monitor thread.
    pub(crate) degraded: AtomicBool,
    pub(crate) degrade_precision: bool,
    pub(crate) dim: usize,
    pub(crate) n_refs: usize,
    pub(crate) queue_cap: usize,
    pub(crate) k_max: usize,
    pub(crate) targets: Vec<(String, usize)>,
    /// Server start; trace timestamps are microseconds since this.
    pub(crate) epoch: Instant,
    /// The N slowest finished request traces, for the `Traces` wire op.
    pub(crate) traces: TraceRing,
    /// Span-annex fragments for recently finished requests, keyed by
    /// trace id — served raw by the `TraceFetch` wire op so a router can
    /// stitch this backend's side of a distributed trace after the fact.
    /// Zero-sized and inert without the `obs` feature.
    pub(crate) frags: FragmentRing,
    /// Server-assigned trace ids for requests that sent `trace_id = 0`
    /// (starts at 1; 0 means "no id" on the wire).
    pub(crate) next_trace: AtomicU64,
    pub(crate) slow_query_ms: Option<u64>,
    /// Per-second load time-series for the `TimeSeries` wire op, derived
    /// from `metrics` (zero-sized without the `obs` feature).
    pub(crate) series: LoadSeries,
    /// Partition identity for scatter-gather replies (`None` = plain
    /// single-node server).
    pub(crate) partition: Option<PartitionCfg>,
}

impl Shared {
    pub(crate) fn new(
        cfg: &ServerConfig,
        dim: usize,
        n_refs: usize,
        targets: Vec<(String, usize)>,
        n_shards: usize,
    ) -> Shared {
        Shared {
            metrics: Metrics::for_shards(n_shards),
            shutdown: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            degrade_precision: cfg.degrade_precision,
            dim,
            n_refs,
            queue_cap: cfg.queue_cap.max(1),
            k_max: cfg.k_max.max(1),
            targets,
            epoch: Instant::now(),
            traces: TraceRing::new(cfg.trace_ring),
            frags: FragmentRing::new(cfg.trace_ring.max(32)),
            next_trace: AtomicU64::new(1),
            slow_query_ms: cfg.slow_query_ms,
            series: LoadSeries::new(),
            partition: cfg.partition,
        }
    }

    /// A live snapshot (the `Stats` / `Metrics` wire ops and the HTTP
    /// exposition all render from this).
    pub(crate) fn report(&self) -> ServeReport {
        self.metrics
            .report(self.targets.clone(), self.degraded.load(Ordering::SeqCst))
    }
}

/// A bound, not-yet-running server. `bind` then `run`; the split lets
/// in-process callers learn the ephemeral port before blocking.
pub struct Server {
    listener: TcpListener,
    cfg: ServerConfig,
    index: ServeIndex,
}

impl Server {
    /// Bind the listener. The index must match the traffic: its dimension
    /// is the only one served.
    pub fn bind(cfg: ServerConfig, index: ServeIndex) -> io::Result<Server> {
        // a misconfigured partition identity must fail the bind, not
        // stand up a server whose envelopes poison every router merge
        if let Some(p) = &cfg.partition {
            if p.total == 0 || p.id >= p.total {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("partition id {} outside 0..{}", p.id, p.total),
                ));
            }
            if p.replicas == 0 || p.replica >= p.replicas {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("replica id {} outside 0..{}", p.replica, p.replicas),
                ));
            }
            if p.epoch == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "partition epoch 0 is reserved; epochs start at 1",
                ));
            }
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            cfg,
            index,
        })
    }

    /// The bound address (port resolved).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Per-lane model batch targets `m*` for this (config, index) pair,
    /// each priced as its lane's kernel calls run ([`LaneRefs::pricing`]).
    pub fn batch_targets(&self) -> Vec<(String, usize)> {
        fn target<T: FusedScalar>(refs: &LaneRefs<'_, T>, cfg: &ServerConfig) -> usize {
            let (approach, _, n) = refs.pricing();
            let model = Model::new(MachineParams::ivy_bridge_1core().for_scalar::<T>());
            batch_target(
                &model,
                approach,
                n,
                refs.dim(),
                cfg.k_max,
                cfg.coalesce_frac,
                cfg.max_batch,
            )
        }
        let (lane64, lane32) = self.index.lanes();
        vec![
            ("f64".to_string(), target(&lane64, &self.cfg)),
            ("f32".to_string(), target(&lane32, &self.cfg)),
        ]
    }

    /// Serve until `Shutdown` / SIGTERM, then drain and return the final
    /// report. Blocks the calling thread; shard threads, the overload
    /// monitor and the metrics listener run on scoped threads underneath.
    pub fn run(self) -> ServeReport {
        install_sigterm();
        let targets = self.batch_targets();
        let n_shards = self.cfg.resolved_shards();
        let shared = Shared::new(
            &self.cfg,
            self.index.dim(),
            self.index.len(),
            targets.clone(),
            n_shards,
        );
        self.listener
            .set_nonblocking(true)
            .expect("nonblocking accept");
        let index = &self.index;
        let cfg = &self.cfg;
        let shared_ref = &shared;
        // per-shard hand-off channels: unbounded, because a channel entry
        // is just an accepted TcpStream the shard adopts on its next loop
        // iteration — the OS accept backlog is the real bound
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_shards)
            .map(|_| channel::unbounded::<TcpStream>())
            .unzip();

        crossbeam::thread::scope(|s| {
            for (id, rx) in rxs.into_iter().enumerate() {
                let ctx = ShardCtx {
                    id,
                    shared: shared_ref,
                    index,
                    kind: cfg.kind,
                    target64: targets[0].1,
                    target32: targets[1].1,
                    adaptive: cfg.adaptive_coalesce,
                    pin_core: cfg.pin_cores.then_some(id),
                    conn_rx: rx,
                };
                s.spawn(move |_| shard_main(ctx));
            }
            // overload monitor: queue pressure in, degraded flag and
            // closed time-series seconds out
            {
                let threshold = cfg.overload_threshold;
                let window = cfg.overload_window;
                s.spawn(move |_| {
                    let mut detector = OverloadDetector::new(threshold, window);
                    // several ticks a second under any window, so the
                    // time-series rows stay per-second
                    let period =
                        (window / 8).clamp(Duration::from_millis(2), Duration::from_millis(250));
                    while !shared_ref.shutdown.load(Ordering::SeqCst) {
                        let now = Instant::now();
                        let now_s = now.duration_since(shared_ref.epoch).as_secs();
                        shared_ref.series.tick(now_s, &shared_ref.metrics);
                        let depth = shared_ref.metrics.in_flight();
                        let transition = detector.observe(depth, shared_ref.queue_cap, now);
                        match transition {
                            Transition::Enter => {
                                shared_ref.degraded.store(true, Ordering::SeqCst);
                                shared_ref
                                    .metrics
                                    .overload_events
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            Transition::Exit => shared_ref.degraded.store(false, Ordering::SeqCst),
                            Transition::None => {}
                        }
                        std::thread::sleep(period);
                    }
                });
            }
            // metrics exposition over plain HTTP, if asked for
            if let Some(addr) = cfg.metrics_addr.clone() {
                s.spawn(move |_| {
                    metrics_listener(&addr, "gsknn-serve", &shared_ref.shutdown, || {
                        shared_ref.report().render_prometheus()
                    })
                });
            }

            // the acceptor: round-robin fresh connections over shards
            let mut next = 0usize;
            loop {
                if sigterm_received() {
                    shared_ref.shutdown.store(true, Ordering::SeqCst);
                }
                if shared_ref.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = txs[next % txs.len()].send(stream);
                        next = next.wrapping_add(1);
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            drop(txs);
            // scope join: shards drain their parked batches and buffered
            // replies, then exit
        })
        .expect("server thread panicked");

        shared.report()
    }
}

/// Minimal HTTP/1.1 responder for the Prometheus exposition: every
/// request on the metrics port gets the current scrape (`render()`),
/// regardless of path, until `shutdown` flips. Best-effort — a bind
/// failure logs (as `who`) and disables the endpoint rather than killing
/// the tier. The serve and router tiers both run this.
pub fn metrics_listener(addr: &str, who: &str, shutdown: &AtomicBool, render: impl Fn() -> String) {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{who}: metrics listener failed to bind {addr}: {e}");
            return;
        }
    };
    let _ = listener.set_nonblocking(true);
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                // drain the request head (path is ignored)
                let mut head = Vec::new();
                let mut buf = [0u8; 1024];
                loop {
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => {
                            head.extend_from_slice(&buf[..n]);
                            if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                let body = render();
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
                     charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(resp.as_bytes());
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}
