//! The router proper: accept loop, per-connection handler with a
//! persistent backend pool, the scatter-gather query path, the health
//! prober and the metrics listener.

use crate::metrics::RouterMetrics;
use gsknn_obs::{
    align_spans, chrome_trace_json, RouterReport, StageBreakdown, Trace, TraceRing, TraceSpan,
};
use gsknn_scalar::GsknnScalar;
use gsknn_serve::server::{install_sigterm, metrics_listener, sigterm_received};
use gsknn_serve::wire::{
    decode_partial, encode_response, read_frame_poll, write_frame, PartialHeader, Precision,
    QueryBody, Request, Response, Status,
};
use gsknn_serve::{wire, Client};
use knn_select::{encoded_len_of, merge_partial_tables, NeighborTable};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Backend addresses, **partition-major**:
    /// `backends[p * replicas + r]` must be the server running
    /// `--partition p/N --replica r/R`. With `replicas == 1` this is
    /// the plain one-backend-per-partition list of the
    /// pre-replication router.
    pub backends: Vec<String>,
    /// Replicas per partition. Each partition's replica set is a slice
    /// of `replicas` consecutive backends; a query needs one live
    /// replica per partition to answer undegraded.
    pub replicas: usize,
    /// Partition-map epoch: partials stamped with any other epoch are
    /// rejected. Must match the backends' `--partition-epoch`.
    pub epoch: u64,
    /// Per-backend wait for a partial (also the hedged re-send's
    /// budget). The effective bound is the smaller of this and the
    /// query's own deadline.
    pub backend_timeout: Duration,
    /// After a failed write, retry once on a fresh connection before
    /// failing over; and while a primary replica stays quiet past the
    /// model-derived hedge delay, race a sibling replica against it
    /// (`replicas > 1`). Off, the first failure degrades and no hedges
    /// fire.
    pub hedge: bool,
    /// Bound on dialing a backend.
    pub connect_timeout: Duration,
    /// How often the prober pings downed backends.
    pub probe_interval: Duration,
    /// Serve the Prometheus exposition over plain HTTP on this address.
    pub metrics_addr: Option<String>,
    /// Log a stderr line for every routed query slower than this many
    /// milliseconds end-to-end.
    pub slow_query_ms: Option<u64>,
    /// Capacity of the slowest-traces ring (wire `Traces` op).
    pub trace_ring: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            replicas: 1,
            epoch: 1,
            backend_timeout: Duration::from_secs(2),
            hedge: true,
            connect_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_millis(250),
            metrics_addr: None,
            slow_query_ms: None,
            trace_ring: 32,
        }
    }
}

/// State shared by the acceptor, the handlers, the prober and the
/// metrics listener.
pub(crate) struct Shared {
    cfg: RouterConfig,
    pub(crate) metrics: RouterMetrics,
    shutdown: AtomicBool,
    /// Per-backend health: `true` = in the fan-out. Optimistic at start;
    /// a failed exchange flips it off, a successful probe flips it back.
    health: Vec<AtomicBool>,
    traces: TraceRing,
    /// Router start; trace timestamps are microseconds since this.
    t0: Instant,
    /// Ids for queries that arrived with `trace_id = 0`.
    next_trace: AtomicU64,
}

impl Shared {
    fn new(cfg: RouterConfig) -> Shared {
        let n = cfg.backends.len();
        let trace_ring = cfg.trace_ring;
        Shared {
            metrics: RouterMetrics::new(n, cfg.replicas.max(1)),
            shutdown: AtomicBool::new(false),
            health: (0..n).map(|_| AtomicBool::new(true)).collect(),
            traces: TraceRing::new(trace_ring),
            t0: Instant::now(),
            next_trace: AtomicU64::new(1),
            cfg,
        }
    }

    fn up(&self, i: usize) -> bool {
        self.health[i].load(Ordering::SeqCst)
    }

    fn mark(&self, i: usize, up: bool) {
        self.health[i].store(up, Ordering::SeqCst);
    }

    /// Replicas per partition (≥ 1).
    fn replicas(&self) -> usize {
        self.cfg.replicas.max(1)
    }

    /// Partitions in the fan-out.
    fn partitions(&self) -> usize {
        self.cfg.backends.len() / self.replicas()
    }

    /// The live replicas of partition `p`, in preference order:
    /// ascending EWMA reply latency, so the router sends to the replica
    /// that has been answering fastest (replicas with no history yet
    /// sort first and get tried, which spreads initial load).
    fn replica_order(&self, p: usize) -> Vec<usize> {
        let r = self.replicas();
        let mut order: Vec<usize> = (p * r..(p + 1) * r).filter(|&i| self.up(i)).collect();
        order.sort_by_key(|&i| self.metrics.ewma_ns(i));
        order
    }

    /// The one snapshot every rendering reads: Stats JSON, the
    /// exposition and the drain table.
    fn report(&self) -> RouterReport {
        let up = (0..self.health.len()).map(|i| self.up(i)).collect();
        self.metrics.report(up, self.cfg.epoch)
    }
}

/// One slot of a handler's persistent backend pool. The connection is
/// dialed lazily and survives across queries; a failed exchange drops it
/// so the next use (or the hedge) redials.
struct BackendConn {
    addr: String,
    client: Option<Client>,
}

impl BackendConn {
    fn ensure(&mut self, connect_timeout: Duration, io: Duration) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let mut c = Client::connect_with_timeout(self.addr.as_str(), connect_timeout)?;
            c.set_io_timeout(Some(io))?;
            self.client = Some(c);
        }
        Ok(self.client.as_mut().unwrap())
    }
}

/// A bound, not-yet-running router. `bind` then `run`; the split lets
/// in-process callers learn the ephemeral port before blocking.
pub struct Router {
    listener: TcpListener,
    cfg: RouterConfig,
}

impl Router {
    /// Bind the client-facing listener. Backends are dialed lazily per
    /// handler — a down backend at start is a degraded fan-out, not a
    /// bind failure.
    pub fn bind(cfg: RouterConfig) -> io::Result<Router> {
        if cfg.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        if cfg.replicas == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one replica per partition",
            ));
        }
        if !cfg.backends.len().is_multiple_of(cfg.replicas) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} backends do not divide into replica sets of {}",
                    cfg.backends.len(),
                    cfg.replicas
                ),
            ));
        }
        if cfg.backends.len() / cfg.replicas > u16::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "more partitions than partition ids",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Router { listener, cfg })
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Route until `Shutdown` / SIGTERM, then drain and return the final
    /// tallies.
    pub fn run(self) -> RouterReport {
        install_sigterm();
        let shared = Shared::new(self.cfg);
        let shared = &shared;
        self.listener
            .set_nonblocking(true)
            .expect("nonblocking accept");
        std::thread::scope(|s| {
            s.spawn(move || prober(shared));
            if let Some(addr) = shared.cfg.metrics_addr.clone() {
                s.spawn(move || {
                    metrics_listener(&addr, "gsknn-router", &shared.shutdown, || {
                        shared.report().render_prometheus()
                    })
                });
            }
            loop {
                if sigterm_received() {
                    shared.shutdown.store(true, Ordering::SeqCst);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        s.spawn(move || handle_conn(stream, shared));
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            // scope join: handlers notice the shutdown flag on their next
            // read-timeout tick and exit
        });
        shared.report()
    }
}

/// One client connection: read frames, answer frames. Owns a persistent
/// pool of backend connections for the scatter-gather path.
fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    // the read timeout is the shutdown poll tick, not a client deadline
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut pool: Vec<BackendConn> = shared
        .cfg
        .backends
        .iter()
        .map(|a| BackendConn {
            addr: a.clone(),
            client: None,
        })
        .collect();
    let stop = || shared.shutdown.load(Ordering::SeqCst);
    loop {
        let payload = match read_frame_poll(&mut stream, &stop) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let resp = match wire::decode_request(&payload) {
            Err(e) => Response::error(format!("bad request: {e}")),
            Ok(Request::Query(q)) => {
                if stop() {
                    Response::empty(Status::ShuttingDown).with_trace(q.trace_id)
                } else {
                    route_query(&mut pool, q, shared)
                }
            }
            Ok(Request::Ping) => Response::empty(Status::Ok),
            Ok(Request::Stats) => {
                Response::ok_body(shared.report().to_json().to_string().into_bytes())
            }
            Ok(Request::Metrics) => {
                Response::ok_body(shared.report().render_prometheus().into_bytes())
            }
            Ok(Request::Traces) => Response::ok_body(
                chrome_trace_json(&shared.traces.snapshot())
                    .to_string()
                    .into_bytes(),
            ),
            Ok(Request::TraceFetch(id)) => {
                // one stitched cross-tier trace by id, as Chrome
                // trace-event JSON (empty event list when the id has
                // aged out of the slowest-traces ring)
                let hits: Vec<Trace> = shared
                    .traces
                    .snapshot()
                    .into_iter()
                    .filter(|t| t.trace_id == id)
                    .collect();
                Response::ok_body(chrome_trace_json(&hits).to_string().into_bytes())
            }
            Ok(Request::TimeSeries) => {
                // the router has no per-second load sampler (yet); answer
                // the same shape a no-obs server does so `top` degrades
                Response::ok_body(b"{\"enabled\": false, \"samples\": []}".to_vec())
            }
            Ok(Request::Shutdown) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = write_frame(&mut stream, &encode_response(&Response::empty(Status::Ok)));
                return;
            }
        };
        if write_frame(&mut stream, &encode_response(&resp)).is_err() {
            return;
        }
    }
}

/// Monomorphization split: the merge is typed by the request precision.
fn route_query(pool: &mut [BackendConn], q: QueryBody, shared: &Shared) -> Response {
    match q.precision {
        Precision::F64 => route_query_t::<f64>(pool, q, shared),
        Precision::F32 => route_query_t::<f32>(pool, q, shared),
    }
}

/// Why a backend's reply did not contribute to the merge.
#[derive(Debug)]
enum Reject {
    /// Transport/protocol failure — marks the backend down.
    Error(String),
    /// Stale partition map — marks the backend down.
    EpochMismatch(u64),
    /// Typed transient refusal (`Busy`): the backend is healthy, the
    /// query just didn't get in.
    Busy,
    /// The backend's own deadline ran out (`Timeout`): healthy, late.
    TimedOut,
    /// The backend deterministically rejected the request
    /// (`BadRequest`, e.g. a dimension mismatch): the backend is
    /// healthy — the *request* is wrong, and the rejection is forwarded
    /// to the client instead of counting against backend health.
    Bad(String),
}

/// Check one backend response: must be a `PartialTopK` envelope from the
/// expected epoch, partition universe and *partition slice*, carrying a
/// table of `m` rows. The slice check means a replica wired into the
/// wrong set (serving partition 1 where the router expects partition 0)
/// can never contribute the wrong rows to a merge.
fn validate_partial<T: GsknnScalar>(
    resp: &Response,
    epoch: u64,
    n_parts: u16,
    m: usize,
    expect_part: u32,
) -> Result<(PartialHeader, NeighborTable<T>, Vec<wire::AnnexSpan>), Reject> {
    match resp.status {
        Status::PartialTopK => {}
        Status::Busy => return Err(Reject::Busy),
        Status::Timeout => return Err(Reject::TimedOut),
        Status::BadRequest => {
            return Err(Reject::Bad(
                String::from_utf8_lossy(&resp.body).into_owned(),
            ))
        }
        other => {
            return Err(Reject::Error(format!(
                "backend answered {other:?} (not in partition mode?)"
            )))
        }
    }
    let (header, table_bytes) =
        decode_partial(&resp.body).map_err(|e| Reject::Error(format!("bad partial: {e}")))?;
    if header.epoch != epoch {
        return Err(Reject::EpochMismatch(header.epoch));
    }
    if header.total != n_parts {
        return Err(Reject::Error(format!(
            "backend partitioned {} ways, router fans out {}",
            header.total, n_parts
        )));
    }
    if header.partition_id != expect_part {
        return Err(Reject::Error(format!(
            "partial from partition {}, expected partition {expect_part}",
            header.partition_id
        )));
    }
    let table = NeighborTable::<T>::from_bytes(table_bytes)
        .map_err(|e| Reject::Error(format!("bad partial table: {e}")))?;
    if table.len() != m {
        return Err(Reject::Error(format!(
            "partial has {} rows, query has {m}",
            table.len()
        )));
    }
    // The optional span annex rides after the table bytes. It is pure
    // observability: a missing or malformed annex never rejects an
    // otherwise valid partial.
    let annex = if header.has_span_annex() {
        encoded_len_of(table_bytes)
            .and_then(|n| table_bytes.get(n..))
            .map(|b| wire::decode_span_annex(b).unwrap_or_default())
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    Ok((header, table, annex))
}

/// Model-derived hedge delay: wait about three EWMA reply latencies for
/// the selected replica before racing a sibling — shorter re-sends on
/// every healthy tail, longer forfeits the transparency window a replica
/// exists to provide. Before any latency history, a quarter of the
/// partition budget; always at least 1 ms and at most half the budget so
/// the sibling keeps a real share of it.
fn hedge_delay(ewma_ns: u64, budget: Duration) -> Duration {
    let model = if ewma_ns == 0 {
        budget / 4
    } else {
        Duration::from_nanos(ewma_ns.saturating_mul(3))
    };
    model.clamp(
        Duration::from_millis(1),
        (budget / 2).max(Duration::from_millis(1)),
    )
}

/// What consuming one backend's pending reply produced.
enum Pulled<T: GsknnScalar> {
    /// A validated partial for the expected partition slice, with the
    /// span fragments the backend shipped inline (empty when the
    /// backend traces nothing).
    Good(PartialHeader, NeighborTable<T>, Vec<wire::AnnexSpan>),
    /// Typed transient refusal — the backend is healthy.
    Busy,
    /// The backend's own deadline ran out — healthy, late.
    Late,
    /// Deterministic request rejection, forwarded to the client.
    Bad(String),
    /// Transport/protocol/epoch failure; the backend was marked down.
    Dead,
}

/// Read and validate the reply a backend owes for partition `p`. The
/// caller has established (via [`Client::poll_readable`] or by accepting
/// a block) that reading now is intended; health bookkeeping happens
/// here so every exit leaves the pool consistent.
fn pull_reply<T: GsknnScalar>(
    shared: &Shared,
    i: usize,
    b: &mut BackendConn,
    p: usize,
    n_parts: u16,
    m: usize,
    budget: Duration,
) -> Pulled<T> {
    let resp = match b.client.as_mut() {
        Some(c) => c
            .set_io_timeout(Some(budget.max(Duration::from_millis(1))))
            .and_then(|_| c.recv_response()),
        None => Err(io::Error::from(io::ErrorKind::NotConnected)),
    };
    classify_reply(shared, i, b, p, n_parts, m, resp)
}

/// Turn the outcome of one exchange with backend `i` (serving partition
/// `p`) into a [`Pulled`]: validate the partial, count epoch rejects,
/// and mark the backend down on transport/protocol/epoch failure.
fn classify_reply<T: GsknnScalar>(
    shared: &Shared,
    i: usize,
    b: &mut BackendConn,
    p: usize,
    n_parts: u16,
    m: usize,
    resp: io::Result<Response>,
) -> Pulled<T> {
    match resp {
        Ok(r) => match validate_partial::<T>(&r, shared.cfg.epoch, n_parts, m, p as u32) {
            Ok((header, table, annex)) => Pulled::Good(header, table, annex),
            Err(Reject::Busy) => Pulled::Busy,
            Err(Reject::TimedOut) => Pulled::Late,
            Err(Reject::Bad(msg)) => Pulled::Bad(msg),
            Err(Reject::EpochMismatch(got)) => {
                shared.metrics.epoch_rejects.fetch_add(1, Ordering::Relaxed);
                backend_down(
                    shared,
                    i,
                    b,
                    &format!("partial from epoch {got}, router at {}", shared.cfg.epoch),
                );
                Pulled::Dead
            }
            Err(Reject::Error(msg)) => {
                backend_down(shared, i, b, &msg);
                Pulled::Dead
            }
        },
        Err(e) => {
            backend_down(shared, i, b, &e.to_string());
            Pulled::Dead
        }
    }
}

/// One partition's in-flight state after the fan-out writes.
struct Flight {
    /// Backend currently owed a reply (the selected replica), if any
    /// accepted the write.
    primary: Option<usize>,
    /// Live replicas at send time, preference order (primary first).
    order: Vec<usize>,
    /// When the fan-out write to the primary completed — the start of
    /// the RTT bracket its span fragments align into.
    sent_at: Instant,
}

/// One backend attempt that contributed a validated partial: its
/// send→recv bracket on the router's clock plus the span fragments it
/// shipped inline. Each becomes a parallel lane of the stitched trace,
/// so hedge/failover siblings render side by side.
struct LaneRec {
    backend: usize,
    part: usize,
    sent_at: Instant,
    recv_at: Instant,
    spans: Vec<wire::AnnexSpan>,
}

/// The scatter-gather path: pipelined fan-out writes to each partition's
/// preferred replica (lowest EWMA reply latency), send-time failover to
/// sibling replicas, deadline-bounded collection that hedges a quiet
/// primary against a sibling replica after a model-derived delay, exact
/// deduplicating truncated merge, and a typed degraded reply only when
/// an *entire* replica set is missing.
fn route_query_t<T: GsknnScalar>(
    pool: &mut [BackendConn],
    mut q: QueryBody,
    shared: &Shared,
) -> Response {
    let cfg = &shared.cfg;
    let parts = shared.partitions();
    let total = parts as u16;
    shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
    if q.trace_id == 0 {
        q.trace_id = shared.next_trace.fetch_add(1, Ordering::Relaxed);
    }
    let trace_id = q.trace_id;
    let t_start = Instant::now();
    let deadline = Duration::from_millis(u64::from(q.deadline_ms.max(1)));
    let per_backend = cfg.backend_timeout.min(deadline);
    let req = Request::Query(q.clone());
    let mut spans: Vec<TraceSpan> = Vec::new();
    let span_of = |name: &str, from: Instant, to: Instant| {
        TraceSpan::new(
            name,
            (from - t_start).as_secs_f64() * 1e6,
            (to - from).as_secs_f64() * 1e6,
        )
    };

    // Phase 1 — fan-out: write the query to every partition's preferred
    // replica before blocking on any reply, so partitions compute their
    // partials in parallel. A failed write gets one immediate retry on a
    // fresh connection (the failure is usually a stale pooled socket),
    // then fails over to the next sibling replica in preference order.
    let mut flights: Vec<Flight> = Vec::with_capacity(parts);
    for p in 0..parts {
        let order = shared.replica_order(p);
        let mut primary = None;
        let mut sent_at = t_start;
        for (tried, &i) in order.iter().enumerate() {
            let attempt = |b: &mut BackendConn| -> io::Result<()> {
                b.ensure(cfg.connect_timeout, per_backend)?
                    .send_request(&req)
            };
            let b = &mut pool[i];
            let sent = match attempt(b) {
                Ok(()) => true,
                Err(_) if cfg.hedge => {
                    b.client = None;
                    shared.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                    match attempt(b) {
                        Ok(()) => true,
                        Err(e) => {
                            backend_down(shared, i, b, &e.to_string());
                            false
                        }
                    }
                }
                Err(e) => {
                    backend_down(shared, i, b, &e.to_string());
                    false
                }
            };
            if sent {
                if tried > 0 {
                    shared
                        .metrics
                        .replica_failovers
                        .fetch_add(1, Ordering::Relaxed);
                }
                primary = Some(i);
                sent_at = Instant::now();
                break;
            }
            if !cfg.hedge {
                // hedging off: the first failure degrades, no failover
                break;
            }
        }
        flights.push(Flight {
            primary,
            order,
            sent_at,
        });
    }
    let t_sent = Instant::now();
    spans.push(span_of("fanout write", t_start, t_sent));

    // Phase 2 — collect: read each partition's partial, bounded by the
    // per-backend budget measured from the fan-out start (partitions
    // work concurrently, so budgets overlap rather than add). While the
    // selected replica stays quiet past the model-derived hedge delay
    // and a live sibling exists, the same query is raced against the
    // sibling; the first valid partial wins and duplicate global ids
    // from a double answer are deduplicated by the merge.
    let mut tables: Vec<NeighborTable<T>> = Vec::with_capacity(parts);
    let mut lanes: Vec<LaneRec> = Vec::new();
    let mut contributed: u16 = 0;
    let mut any_lane_degraded = false;
    let (mut busy, mut late) = (0usize, 0usize);
    let mut bad: Option<String> = None;
    for (p, fl) in flights.iter().enumerate() {
        let Some(prim) = fl.primary else { continue };
        let t_wait = Instant::now();
        let budget = per_backend
            .saturating_sub(t_wait - t_start)
            .max(Duration::from_millis(5));
        let p_deadline = t_wait + budget;
        // the sibling a hedge would race (live, not the primary)
        let sibling = if cfg.hedge {
            fl.order
                .iter()
                .copied()
                .find(|&i| i != prim && shared.up(i))
        } else {
            None
        };
        let mut partition_ok = false;
        let mut hedge_attempt: Option<(usize, Instant)> = None;
        let mut fold =
            |shared: &Shared, i: usize, sent_at: Instant, pulled: Pulled<T>, ok: &mut bool| {
                match pulled {
                    Pulled::Good(header, table, annex) => {
                        tables.push(table);
                        lanes.push(LaneRec {
                            backend: i,
                            part: p,
                            sent_at,
                            recv_at: Instant::now(),
                            spans: annex,
                        });
                        any_lane_degraded |= header.lane_degraded();
                        shared.metrics.record_reply(i, Instant::now() - t_sent);
                        if !shared.up(i) {
                            shared.mark(i, true);
                        }
                        *ok = true;
                    }
                    Pulled::Busy => busy += 1,
                    Pulled::Late => late += 1,
                    Pulled::Bad(msg) => {
                        bad.get_or_insert(msg);
                    }
                    Pulled::Dead => {}
                }
            };
        match sibling {
            None => {
                // unreplicated partition (or no live sibling): block on
                // the primary; a dead exchange hedges once with a full
                // round trip on a fresh connection, same backend — the
                // pre-replication contract.
                let b = &mut pool[prim];
                let resp = match b.client.as_mut() {
                    Some(c) => c
                        .set_io_timeout(Some(budget))
                        .and_then(|_| c.recv_response()),
                    None => Err(io::Error::from(io::ErrorKind::NotConnected)),
                };
                let mut attempt_sent = fl.sent_at;
                let resp = match resp {
                    Ok(r) => Ok(r),
                    Err(_) if cfg.hedge => {
                        b.client = None;
                        shared.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                        attempt_sent = Instant::now();
                        b.ensure(cfg.connect_timeout, budget)
                            .and_then(|c| c.request(&req))
                    }
                    Err(e) => Err(e),
                };
                let pulled = classify_reply::<T>(shared, prim, b, p, total, q.m, resp);
                fold(shared, prim, attempt_sent, pulled, &mut partition_ok);
            }
            Some(sib) => {
                // replicated partition: give the primary its hedge
                // window, then race the sibling against it.
                let window = hedge_delay(shared.metrics.ewma_ns(prim), budget);
                let primary_ready = match pool[prim].client.as_mut() {
                    Some(c) => c.poll_readable(window).unwrap_or(false),
                    None => false,
                };
                if primary_ready {
                    let left = p_deadline.saturating_duration_since(Instant::now());
                    let pulled =
                        pull_reply::<T>(shared, prim, &mut pool[prim], p, total, q.m, left);
                    fold(shared, prim, fl.sent_at, pulled, &mut partition_ok);
                }
                if !partition_ok {
                    // hedge: send the query to the sibling replica (a
                    // failed write burns the hedge — the merge will
                    // degrade only if the primary also stays quiet)
                    shared.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                    let t_hedge = Instant::now();
                    let sib_sent = pool[sib]
                        .ensure(cfg.connect_timeout, budget)
                        .and_then(|c| c.send_request(&req))
                        .inspect_err(|e| {
                            backend_down(shared, sib, &mut pool[sib], &e.to_string());
                        })
                        .is_ok();
                    if sib_sent {
                        hedge_attempt = Some((sib, t_hedge));
                    }
                    let mut primary_pending = !primary_ready && pool[prim].client.is_some();
                    let mut sibling_pending = sib_sent;
                    let mut primary_good = false;
                    let mut sibling_good = false;
                    while !partition_ok
                        && (primary_pending || sibling_pending)
                        && Instant::now() < p_deadline
                    {
                        let slice = Duration::from_millis(2)
                            .min(p_deadline.saturating_duration_since(Instant::now()));
                        if primary_pending {
                            match pool[prim].client.as_mut().map(|c| c.poll_readable(slice)) {
                                Some(Ok(true)) => {
                                    primary_pending = false;
                                    let left = p_deadline.saturating_duration_since(Instant::now());
                                    let pulled = pull_reply::<T>(
                                        shared,
                                        prim,
                                        &mut pool[prim],
                                        p,
                                        total,
                                        q.m,
                                        left,
                                    );
                                    primary_good = matches!(pulled, Pulled::Good(..));
                                    fold(shared, prim, fl.sent_at, pulled, &mut partition_ok);
                                }
                                Some(Ok(false)) => {}
                                Some(Err(e)) => {
                                    primary_pending = false;
                                    backend_down(shared, prim, &mut pool[prim], &e.to_string());
                                }
                                None => primary_pending = false,
                            }
                        }
                        if partition_ok {
                            break;
                        }
                        if sibling_pending {
                            match pool[sib].client.as_mut().map(|c| c.poll_readable(slice)) {
                                Some(Ok(true)) => {
                                    sibling_pending = false;
                                    let left = p_deadline.saturating_duration_since(Instant::now());
                                    let pulled = pull_reply::<T>(
                                        shared,
                                        sib,
                                        &mut pool[sib],
                                        p,
                                        total,
                                        q.m,
                                        left,
                                    );
                                    sibling_good = matches!(pulled, Pulled::Good(..));
                                    fold(shared, sib, t_hedge, pulled, &mut partition_ok);
                                }
                                Some(Ok(false)) => {}
                                Some(Err(e)) => {
                                    sibling_pending = false;
                                    backend_down(shared, sib, &mut pool[sib], &e.to_string());
                                }
                                None => sibling_pending = false,
                            }
                        }
                    }
                    // an unread in-flight reply would poison the next
                    // query on that socket: fold it if it is already
                    // here (the merge dedups the duplicate global ids a
                    // double answer carries); a silent replica at a
                    // missed budget is marked down so the prober owns
                    // its recovery; a merely-slow loser's connection is
                    // dropped so the next query redials.
                    for (idx, pending) in [(prim, primary_pending), (sib, sibling_pending)] {
                        if !pending {
                            continue;
                        }
                        let ready = pool[idx]
                            .client
                            .as_mut()
                            .map(|c| c.poll_readable(Duration::from_millis(1)).unwrap_or(false))
                            .unwrap_or(false);
                        if ready {
                            let pulled = pull_reply::<T>(
                                shared,
                                idx,
                                &mut pool[idx],
                                p,
                                total,
                                q.m,
                                Duration::from_millis(5),
                            );
                            if matches!(pulled, Pulled::Good(..)) {
                                if idx == prim {
                                    primary_good = true;
                                } else {
                                    sibling_good = true;
                                }
                            }
                            let sent = if idx == prim { fl.sent_at } else { t_hedge };
                            fold(shared, idx, sent, pulled, &mut partition_ok);
                        } else if !partition_ok {
                            backend_down(
                                shared,
                                idx,
                                &mut pool[idx],
                                "no partial within the partition budget",
                            );
                        } else {
                            pool[idx].client = None;
                        }
                    }
                    // settle the race's books: a hedge is *lost* when
                    // the primary produced a valid partial after all,
                    // *won* when only the sibling saved the partition —
                    // which is also a failover (the selected replica
                    // failed mid-query and a sibling's answer was used).
                    if primary_good {
                        shared
                            .metrics
                            .replica_hedges_lost
                            .fetch_add(1, Ordering::Relaxed);
                    } else if sibling_good {
                        shared
                            .metrics
                            .replica_hedges_won
                            .fetch_add(1, Ordering::Relaxed);
                        shared
                            .metrics
                            .replica_failovers
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        let t_got = Instant::now();
        // One wait span per replica attempt, named distinctly so hedge
        // races read as parallel attempts in the stitched trace.
        let r = shared.replicas();
        spans.push(span_of(
            &format!("partition {p} replica {} wait", prim % r),
            t_wait,
            t_got,
        ));
        if let Some((sib, t_hedge)) = hedge_attempt {
            spans.push(span_of(
                &format!("partition {p} replica {} wait", sib % r),
                t_hedge,
                t_got,
            ));
        }
        if partition_ok {
            contributed += 1;
        }
    }

    // Phase 3 — merge the survivors and pick the reply shape.
    let t_merge = Instant::now();
    let resp = if contributed == 0 {
        if let Some(msg) = bad {
            // deterministic rejection — the request, not a backend, is
            // at fault, so forward the backend's own message
            Response::bad_request(msg)
        } else if busy > 0 && busy == flights.iter().filter(|f| f.primary.is_some()).count() {
            Response::empty(Status::Busy)
        } else if late > 0 {
            Response::empty(Status::Timeout)
        } else {
            Response::internal_error("no partition answered")
        }
        .with_trace(trace_id)
    } else {
        let refs: Vec<&NeighborTable<T>> = tables.iter().collect();
        match merge_partial_tables(&refs, q.k) {
            None => Response::internal_error("partition shape mismatch in merge"),
            Some(merged) => {
                let mut body = Vec::with_capacity(merged.encoded_len());
                if contributed < total {
                    shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                    PartialHeader {
                        partition_id: u32::MAX,
                        epoch: cfg.epoch,
                        contributed,
                        total,
                        flags: any_lane_degraded as u8,
                        // a router-merged answer is not a replica
                        replica_id: 0,
                        replicas: 1,
                    }
                    .encode_into(&mut body);
                    merged.encode_into(&mut body);
                    Response {
                        status: Status::OkDegraded,
                        trace_id,
                        body,
                    }
                } else {
                    // all partitions answered: the merged table is
                    // bit-identical to a single node's — reply exactly
                    // like one (degraded lane included)
                    merged.encode_into(&mut body);
                    let status = if any_lane_degraded {
                        Status::OkDegraded
                    } else {
                        Status::Ok
                    };
                    Response {
                        status,
                        trace_id,
                        body,
                    }
                }
            }
        }
    };
    let t_done = Instant::now();
    spans.push(span_of("merge", t_merge, t_done));

    // Per-stage attribution. The fan-out reaches every partition up
    // front, so the per-partition rtt brackets overlap in wall clock —
    // summing raw backend span durations would attribute more time than
    // the route took. Instead, sweep the winning lanes' brackets in
    // collection order and charge each lane only its not-yet-accounted
    // segment, split between kernel and queue/coalesce wait in the
    // proportion the backend itself reported. merge is measured
    // directly; network is the non-negative residual, so the four
    // stages add up to (about) the client-observed rtt.
    let mut stages = StageBreakdown::default();
    let mut seen = vec![false; parts];
    let mut cursor = t_start;
    for l in &lanes {
        if std::mem::replace(&mut seen[l.part], true) {
            continue; // a hedge double answer: only the first lane counts
        }
        let (mut wait_ns, mut kernel_ns) = (0u64, 0u64);
        for s in &l.spans {
            if s.name.starts_with("kernel: ") {
                kernel_ns += s.dur_ns;
            } else {
                wait_ns += s.dur_ns;
            }
        }
        let lo = if l.sent_at > cursor {
            l.sent_at
        } else {
            cursor
        };
        let seg_ns = l.recv_at.saturating_duration_since(lo).as_nanos() as u64;
        if l.recv_at > cursor {
            cursor = l.recv_at;
        }
        let reported_ns = wait_ns + kernel_ns;
        if reported_ns > 0 && seg_ns > 0 {
            stages.kernel_ns += (kernel_ns as u128 * seg_ns as u128 / reported_ns as u128) as u64;
            stages.backend_wait_ns +=
                (wait_ns as u128 * seg_ns as u128 / reported_ns as u128) as u64;
        }
    }
    stages.merge_ns = (t_done - t_merge).as_nanos() as u64;
    let route_ns = (t_done - t_start).as_nanos() as u64;
    stages.network_ns =
        route_ns.saturating_sub(stages.backend_wait_ns + stages.kernel_ns + stages.merge_ns);
    shared.metrics.record_stages(&stages);

    // Stitch: every contributing backend attempt becomes one parallel
    // lane of the trace. Backend spans are on the backend's clock (ns
    // since it received the request); align them into the router-side
    // send→recv bracket by centering on its midpoint, clamped so they
    // nest inside it even when the clocks disagree.
    for (lane_no, l) in lanes.iter().enumerate() {
        let frag: Vec<TraceSpan> = l
            .spans
            .iter()
            .map(|s| {
                TraceSpan::new(
                    format!("b{}: {}", l.backend, s.name),
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                )
            })
            .collect();
        let bracket_lo = (l.sent_at - t_start).as_secs_f64() * 1e6;
        let bracket_hi = (l.recv_at - t_start).as_secs_f64() * 1e6;
        for sp in align_spans(&frag, bracket_lo, bracket_hi) {
            spans.push(sp.on_track(lane_no as u32 + 1));
        }
    }

    let total_us = (t_done - t_start).as_secs_f64() * 1e6;
    if let Some(ms) = cfg.slow_query_ms {
        if t_done - t_start >= Duration::from_millis(ms) {
            eprintln!(
                "gsknn-router: slow query trace {trace_id:016x}: {:.1} ms, {} of {} partitions, status {:?} [{}]",
                total_us / 1e3,
                contributed,
                total,
                resp.status,
                stages.render_line()
            );
        }
    }
    shared.traces.offer(Trace {
        trace_id,
        lane: q.precision.name().to_string(),
        status: resp.status.label().to_string(),
        m: q.m,
        k: q.k,
        t0_us: (t_start - shared.t0).as_secs_f64() * 1e6,
        total_us,
        spans,
    });
    resp
}

/// Flip backend `i` out of the fan-out and drop its pooled connection.
fn backend_down(shared: &Shared, i: usize, b: &mut BackendConn, why: &str) {
    b.client = None;
    shared
        .metrics
        .backend(i)
        .errors
        .fetch_add(1, Ordering::Relaxed);
    if shared.up(i) {
        shared.mark(i, false);
        eprintln!("gsknn-router: backend {i} ({}) down: {why}", b.addr);
    }
}

/// Ping downed backends; a reply folds them back into the fan-out. The
/// epoch guard on the query path keeps a *wrongly configured* rejoiner
/// from contributing — this probe only proves liveness.
fn prober(shared: &Shared) {
    let n = shared.cfg.backends.len();
    while !shared.shutdown.load(Ordering::SeqCst) {
        for i in 0..n {
            if shared.up(i) {
                continue;
            }
            let addr = shared.cfg.backends[i].as_str();
            let alive = Client::connect_with_timeout(addr, shared.cfg.connect_timeout)
                .and_then(|mut c| {
                    c.set_io_timeout(Some(shared.cfg.backend_timeout))?;
                    c.ping()
                })
                .is_ok();
            if alive {
                shared.mark(i, true);
                shared.metrics.rejoins.fetch_add(1, Ordering::Relaxed);
                eprintln!("gsknn-router: backend {i} ({addr}) rejoined");
            }
        }
        // sleep in small ticks so drain isn't held up by a long interval
        let mut left = shared.cfg.probe_interval;
        while left > Duration::ZERO && !shared.shutdown.load(Ordering::SeqCst) {
            let tick = left.min(Duration::from_millis(25));
            std::thread::sleep(tick);
            left = left.saturating_sub(tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_select::Neighbor;

    fn partial_resp(
        partition_id: u32,
        epoch: u64,
        total: u16,
        flags: u8,
        table: &NeighborTable<f64>,
    ) -> Response {
        let mut body = Vec::new();
        PartialHeader {
            partition_id,
            epoch,
            contributed: 1,
            total,
            flags,
            replica_id: 0,
            replicas: 2,
        }
        .encode_into(&mut body);
        table.encode_into(&mut body);
        Response {
            status: Status::PartialTopK,
            trace_id: 7,
            body,
        }
    }

    fn table_of(rows: &[&[(f64, u32)]], k: usize) -> NeighborTable<f64> {
        let mut t = NeighborTable::new(rows.len(), k);
        for (i, row) in rows.iter().enumerate() {
            let nbs: Vec<Neighbor<f64>> = row.iter().map(|&(d, j)| Neighbor::new(d, j)).collect();
            t.set_row(i, &nbs);
        }
        t
    }

    #[test]
    fn validate_accepts_matching_partial() {
        let t = table_of(&[&[(0.5, 3), (1.0, 9)]], 2);
        let resp = partial_resp(0, 1, 2, 0, &t);
        let (h, got, annex) = validate_partial::<f64>(&resp, 1, 2, 1, 0).expect("valid");
        assert_eq!(h.partition_id, 0);
        assert!(!h.lane_degraded());
        assert_eq!(got.row(0), t.row(0));
        assert!(annex.is_empty(), "no annex flag, no spans");
    }

    #[test]
    fn validate_extracts_the_span_annex_when_flagged() {
        use gsknn_serve::wire::{encode_span_annex, AnnexSpan, PARTIAL_FLAG_SPAN_ANNEX};
        let t = table_of(&[&[(0.5, 3), (1.0, 9)]], 2);
        let mut body = Vec::new();
        PartialHeader {
            partition_id: 0,
            epoch: 1,
            contributed: 1,
            total: 2,
            flags: PARTIAL_FLAG_SPAN_ANNEX,
            replica_id: 0,
            replicas: 2,
        }
        .encode_into(&mut body);
        t.encode_into(&mut body);
        encode_span_annex(
            &[
                AnnexSpan {
                    name: "coalesce wait".into(),
                    start_ns: 1_000,
                    dur_ns: 90_000,
                },
                AnnexSpan {
                    name: "kernel: distances".into(),
                    start_ns: 91_000,
                    dur_ns: 400_000,
                },
            ],
            &mut body,
        );
        let resp = Response {
            status: Status::PartialTopK,
            trace_id: 7,
            body,
        };
        let (h, got, annex) = validate_partial::<f64>(&resp, 1, 2, 1, 0).expect("valid");
        assert!(h.has_span_annex());
        assert_eq!(got.row(0), t.row(0));
        assert_eq!(annex.len(), 2);
        assert_eq!(annex[0].name, "coalesce wait");
        assert_eq!(annex[1].name, "kernel: distances");
        assert_eq!(annex[1].dur_ns, 400_000);

        // a truncated annex degrades to "no spans", never to a reject
        let mut short = Response {
            status: Status::PartialTopK,
            trace_id: 7,
            body: resp.body.clone(),
        };
        short.body.truncate(resp.body.len() - 3);
        let (_, _, annex) = validate_partial::<f64>(&short, 1, 2, 1, 0).expect("still valid");
        assert!(annex.is_empty());
    }

    #[test]
    fn validate_rejects_wrong_epoch_total_shape_slice_and_status() {
        let t = table_of(&[&[(0.5, 3)]], 1);
        assert!(matches!(
            validate_partial::<f64>(&partial_resp(0, 9, 2, 0, &t), 1, 2, 1, 0),
            Err(Reject::EpochMismatch(9))
        ));
        assert!(matches!(
            validate_partial::<f64>(&partial_resp(0, 1, 3, 0, &t), 1, 2, 1, 0),
            Err(Reject::Error(_))
        ));
        assert!(matches!(
            validate_partial::<f64>(&partial_resp(0, 1, 2, 0, &t), 1, 2, 5, 0),
            Err(Reject::Error(_))
        ));
        // a replica wired into the wrong set answers for the wrong
        // partition slice — it must never contribute to the merge
        assert!(matches!(
            validate_partial::<f64>(&partial_resp(1, 1, 2, 0, &t), 1, 2, 1, 0),
            Err(Reject::Error(_))
        ));
        assert!(matches!(
            validate_partial::<f64>(&Response::empty(Status::Busy), 1, 2, 1, 0),
            Err(Reject::Busy)
        ));
        assert!(matches!(
            validate_partial::<f64>(&Response::empty(Status::Timeout), 1, 2, 1, 0),
            Err(Reject::TimedOut)
        ));
        assert!(matches!(
            validate_partial::<f64>(&Response::empty(Status::Ok), 1, 2, 1, 0),
            Err(Reject::Error(_))
        ));
        // a deterministic rejection carries the backend's message and
        // must NOT be classed as a backend failure
        match validate_partial::<f64>(&Response::bad_request("dimension mismatch"), 1, 2, 1, 0) {
            Err(Reject::Bad(msg)) => assert!(msg.contains("dimension mismatch")),
            other => panic!("expected Reject::Bad, got {other:?}"),
        }
    }

    #[test]
    fn validate_surfaces_degraded_lane_flag() {
        let t = table_of(&[&[(0.5, 3)]], 1);
        let resp = partial_resp(1, 1, 2, 1, &t);
        let (h, _, _) = validate_partial::<f64>(&resp, 1, 2, 1, 1).expect("valid");
        assert!(h.lane_degraded());
    }

    #[test]
    fn bind_rejects_empty_backend_list() {
        let err = match Router::bind(RouterConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("bind accepted an empty backend list"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn bind_rejects_bad_replica_shapes() {
        let cfg = |backends: usize, replicas: usize| RouterConfig {
            backends: (0..backends)
                .map(|i| format!("127.0.0.1:{}", 6000 + i))
                .collect(),
            replicas,
            ..RouterConfig::default()
        };
        // zero replicas per partition is meaningless
        assert_eq!(
            Router::bind(cfg(2, 0)).map(|_| ()).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        // 3 backends cannot form replica sets of 2
        assert_eq!(
            Router::bind(cfg(3, 2)).map(|_| ()).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn hedge_delay_follows_the_ewma_model() {
        let budget = Duration::from_millis(100);
        // no history: a quarter of the budget
        assert_eq!(hedge_delay(0, budget), Duration::from_millis(25));
        // 3x the EWMA when that fits under half the budget
        assert_eq!(
            hedge_delay(Duration::from_millis(4).as_nanos() as u64, budget),
            Duration::from_millis(12)
        );
        // capped at half the budget so the sibling keeps a real share
        assert_eq!(
            hedge_delay(Duration::from_millis(40).as_nanos() as u64, budget),
            Duration::from_millis(50)
        );
        // floored at 1 ms even for a microsecond-fast replica
        assert_eq!(hedge_delay(10_000, budget), Duration::from_millis(1));
    }
}
