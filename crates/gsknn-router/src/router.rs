//! The router proper: accept loop, per-connection handler with a
//! persistent backend pool, the scatter-gather query path, the health
//! prober and the metrics listener.

use crate::metrics::RouterMetrics;
use crate::race::{Action, Event, Race};
use gsknn_obs::{
    align_spans, chrome_trace_json, timeseries_json, RouterReport, StageBreakdown, Trace,
    TraceRing, TraceSpan,
};
use gsknn_scalar::GsknnScalar;
use gsknn_serve::server::{install_sigterm, metrics_listener, sigterm_received};
use gsknn_serve::wire::{
    encode_response, read_frame_poll, write_frame, Precision, QueryBody, Request, Response, Status,
};
use gsknn_serve::{wire, Client};
use std::collections::VecDeque;
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
                // the document a no-obs server does so `top` degrades
                Response::ok_body(timeseries_json(false, 0, &[]).to_string().into_bytes())
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

/// The scatter-gather path: a driver over [`Race`], which makes every
/// decision. Every first attempt is written before any wait, so
/// partitions compute in parallel; waits run partition by partition.
fn route_query_t<T: GsknnScalar>(
    pool: &mut [BackendConn],
    mut q: QueryBody,
    shared: &Shared,
) -> Response {
    let cfg = &shared.cfg;
    let parts = shared.partitions();
    let query_no = shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
    if q.trace_id == 0 {
        q.trace_id = shared.next_trace.fetch_add(1, Ordering::Relaxed);
    }
    let trace_id = q.trace_id;
    let t_start = Instant::now();
    let deadline = Duration::from_millis(u64::from(q.deadline_ms.max(1)));
    let per_backend = cfg.backend_timeout.min(deadline);
    let mut req = Request::Query(q.clone());
    let mut spans: Vec<TraceSpan> = Vec::new();
    // times are offsets from t_start, the race's clock
    let span_of = |name: &str, from: Duration, to: Duration| {
        TraceSpan::new(
            name,
            from.as_secs_f64() * 1e6,
            to.saturating_sub(from).as_secs_f64() * 1e6,
        )
    };

    // each partition's live replicas
    let r = shared.replicas();
    let plan = (0..parts)
        .map(|p| {
            let live = (p * r..(p + 1) * r).filter(|&b| shared.up(b));
            live.map(|b| (b, shared.metrics.ewma_ns(b))).collect()
        })
        .collect();
    let mut race = Race::<T>::new(cfg, &shared.metrics, plan, query_no, per_backend, q.m, q.k);
    let mut events = VecDeque::from([Event::Start]);
    let mut t_sent = None;
    loop {
        while let Some(ev) = events.pop_front() {
            for action in race.on_event(t_start.elapsed(), ev) {
                match action {
                    Action::Send { part, backend } => {
                        // the backend coalesces against the deadline it
                        // sees, so it must see what the router has left
                        let left = per_backend.saturating_sub(t_start.elapsed());
                        if let Request::Query(body) = &mut req {
                            let ms = left.as_micros().div_ceil(1000).max(1);
                            body.deadline_ms = u32::try_from(ms).unwrap_or(u32::MAX);
                        }
                        let sent = pool[backend]
                            .ensure(cfg.connect_timeout, per_backend)
                            .and_then(|c| c.send_request(&req));
                        if let Err(e) = sent {
                            let reply = Err(e);
                            events.push_back(Event::Reply {
                                part,
                                backend,
                                reply,
                            });
                        }
                    }
                    Action::Drop { backend } => pool[backend].client = None,
                    Action::Down { backend, why } => {
                        backend_down(shared, backend, &mut pool[backend], &why)
                    }
                }
            }
        }
        let t = *t_sent.get_or_insert_with(|| t_start.elapsed());
        let Some((part, until)) = race.next_wait() else {
            spans.push(span_of("fanout write", Duration::ZERO, t));
            break;
        };
        let pending: Vec<usize> = race.pending(part).collect();
        let ev = await_reply(pool, part, &pending, t_start, until, per_backend);
        events.push_back(ev);
    }

    let t_merge = t_start.elapsed();
    let (resp, lanes, waits) = race.finish(trace_id);
    let t_done = t_start.elapsed();
    // one wait span per attempt, named by replica, so hedge races read
    // as parallel attempts in the stitched trace
    for &(backend, sent, end) in &waits {
        let name = format!("partition {} replica {} wait", backend / r, backend % r);
        spans.push(span_of(&name, sent, end));
    }
    spans.push(span_of("merge", t_merge, t_done));

    // Per-stage attribution. The fan-out reaches every partition up
    // front, so the per-partition rtt brackets overlap in wall clock —
    // summing raw backend span durations would attribute more time than
    // the route took. Instead, sweep the winning lanes' brackets in
    // partition order and charge each lane only its not-yet-accounted
    // segment, split between kernel and queue/coalesce wait in the
    // proportion the backend itself reported. merge is measured
    // directly; network is the non-negative residual, so the four
    // stages add up to (about) the client-observed rtt.
    let mut stages = StageBreakdown::default();
    let mut cursor = Duration::ZERO;
    for l in &lanes {
        // a backend that answered is back in the fan-out
        if !shared.up(l.backend) {
            shared.mark(l.backend, true);
        }
        let (mut wait_ns, mut kernel_ns) = (0u64, 0u64);
        for s in &l.spans {
            if s.name.starts_with("kernel: ") {
                kernel_ns += s.dur_ns;
            } else {
                wait_ns += s.dur_ns;
            }
        }
        let seg_ns = l.recv.saturating_sub(l.sent.max(cursor)).as_nanos() as u64;
        cursor = cursor.max(l.recv);
        let reported_ns = wait_ns + kernel_ns;
        if reported_ns > 0 && seg_ns > 0 {
            stages.kernel_ns += (kernel_ns as u128 * seg_ns as u128 / reported_ns as u128) as u64;
            stages.backend_wait_ns +=
                (wait_ns as u128 * seg_ns as u128 / reported_ns as u128) as u64;
        }
    }
    stages.merge_ns = (t_done - t_merge).as_nanos() as u64;
    let route_ns = t_done.as_nanos() as u64;
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
        let (lo, hi) = (l.sent.as_secs_f64() * 1e6, l.recv.as_secs_f64() * 1e6);
        for sp in align_spans(&frag, lo, hi) {
            spans.push(sp.on_track(lane_no as u32 + 1));
        }
    }

    let total_us = t_done.as_secs_f64() * 1e6;
    if let Some(ms) = cfg.slow_query_ms {
        if t_done >= Duration::from_millis(ms) {
            eprintln!(
                "gsknn-router: slow query trace {trace_id:016x}: {:.1} ms, {} of {} partitions, status {:?} [{}]",
                total_us / 1e3,
                lanes.len(),
                parts,
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

/// Carry out [`Race::next_wait`]: poll `part`'s `pending` attempts until
/// `until`, at least once — one blocking poll for a lone attempt, 2 ms
/// turns in a hedge race — and read the first that turns readable.
fn await_reply(
    pool: &mut [BackendConn],
    part: usize,
    pending: &[usize],
    t_start: Instant,
    until: Duration,
    deadline: Duration,
) -> Event {
    let turn = Duration::from_millis(if pending.len() > 1 { 2 } else { u64::MAX });
    loop {
        for &backend in pending {
            let left = until.saturating_sub(t_start.elapsed()).min(turn);
            let reply = match pool[backend].client.as_mut() {
                None => Err(io::Error::from(io::ErrorKind::NotConnected)),
                Some(c) => match c.poll_readable(left) {
                    Ok(false) => continue,
                    Ok(true) => {
                        let bound = deadline.saturating_sub(t_start.elapsed());
                        c.set_io_timeout(Some(bound.max(Duration::from_millis(1))))
                            .and_then(|_| c.recv_response())
                    }
                    Err(e) => Err(e),
                },
            };
            return Event::Reply {
                part,
                backend,
                reply,
            };
        }
        if t_start.elapsed() >= until {
            return Event::Quiet { part };
        }
    }
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

// the unit tests below reach these through `use super::*`
#[cfg(test)]
use {
    crate::race::{hedge_delay, validate_partial, Reject},
    gsknn_serve::wire::PartialHeader,
    knn_select::NeighborTable,
};

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
