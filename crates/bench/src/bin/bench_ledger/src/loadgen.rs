//! The load generator: one thread driving a set of TCP connections, each
//! carrying at most one request at a time, replies matched to requests
//! by `trace_id`.
//!
//! One request per connection is the server's own contract: a shard
//! answers a connection's query before it parses that connection's next
//! frame, and a frame that is already buffered is parsed only when new
//! bytes arrive. Pipelining requests on two connections (what the issue
//! asked for) therefore measures that stall, not the coalescer: an
//! open-loop backlog never drains and every later reply times out. So a
//! waiting caller is a connection, as with `Client`, and one thread
//! drives all of them over non-blocking sockets.
//!
//! It speaks the public wire functions (`encode_request`, `write_frame`,
//! `decode_response`) directly instead of going through `Client`:
//! `Client::poll_readable` waits at least 1 ms on a quiet socket, which
//! would put up to 1 ms of generator lag into every gap of an open-loop
//! schedule. `Client` itself is measured by the ladder's `tcp` and
//! `routed` rungs.
//!
//! Open loop: the arrival schedule is fixed before the run; a request is
//! sent when it falls due whether or not earlier replies have arrived,
//! and its latency runs from the *intended* send time, so a stall in the
//! server is charged to every request that fell due during it (no
//! coordinated omission). A request that finds every connection busy
//! waits for one, and that wait is part of its latency. Closed loop:
//! every connection is a caller that sends its next request when its
//! reply arrives.

use crate::span::{SpanId, SpanRec, NO_PARENT};
use crate::stats;
use gsknn_serve::wire::{self, Request, Response, Status};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Slices the window is cut into for the median throughput.
pub const SLICES: usize = 20;
/// Generator lag above this makes an open-loop run invalid.
pub const MAX_SEND_LAG_P99_US: f64 = 1000.0;

#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// Request `i` falls due `schedule[i]` ns after the start.
    Open { schedule: &'a [u64] },
    /// Every connection keeps one request in flight.
    Closed,
}

pub struct Plan<'a> {
    pub mode: Mode<'a>,
    /// Unrecorded lead-in, then the recorded window.
    pub warmup: Duration,
    pub window: Duration,
    /// Latency budget a reply must meet to count as goodput.
    pub deadline: Duration,
}

/// Counts and samples of the recorded window.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Requests due (open) or sent (closed) inside the window.
    pub scheduled: u64,
    /// Answered `Ok` with the expected rows.
    pub ok: u64,
    /// `ok` and within the deadline.
    pub good: u64,
    /// Answered `Ok` with other rows than expected.
    pub wrong: u64,
    /// Refused with `Busy`.
    pub refused: u64,
    /// Answered `Timeout`.
    pub timed_out: u64,
    /// Any other status, or no reply by the end of the grace period.
    pub failed: u64,
    /// Latency of every `ok` reply in µs, ascending.
    pub latencies_us: Vec<f64>,
    /// How late the generator took up each due request, in µs, ascending
    /// (open loop). Waiting for a free connection is the system's
    /// backpressure and counts as latency, not as lag.
    pub send_lag_us: Vec<f64>,
    /// `Ok` replies (recorded or not) that arrived in each of the
    /// window's [`SLICES`] equal slices.
    pub slice_ok: Vec<u64>,
    pub window_s: f64,
    pub inflight_max: usize,
    /// Requests due but unanswered at the middle and at the end of the
    /// window.
    pub inflight_mid: usize,
    pub inflight_end: usize,
}

impl LoadResult {
    pub fn failed_total(&self) -> u64 {
        self.wrong + self.refused + self.timed_out + self.failed
    }

    pub fn offered_qps(&self) -> f64 {
        self.scheduled as f64 / self.window_s
    }

    pub fn achieved_qps(&self) -> f64 {
        self.ok as f64 / self.window_s
    }

    /// Requests answered per second in the median slice of the window:
    /// the throughput figure, steadier than the whole-window mean on a
    /// machine whose speed dips for seconds at a time.
    pub fn median_slice_qps(&self) -> f64 {
        let per_slice: Vec<f64> = self.slice_ok.iter().map(|&n| n as f64).collect();
        stats::median(&per_slice) * SLICES as f64 / self.window_s
    }

    pub fn send_lag_p99_us(&self) -> f64 {
        stats::quantile_sorted(&self.send_lag_us, 0.99)
    }

    /// Why an open-loop run cannot be used, if it cannot: the generator
    /// ran late, or the system fell behind the offered rate with a
    /// backlog that was still growing when the window closed.
    pub fn invalid_reason(&self) -> Option<String> {
        if self.send_lag_us.is_empty() {
            return None;
        }
        let lag = self.send_lag_p99_us();
        if lag > MAX_SEND_LAG_P99_US {
            return Some(format!(
                "generator send lag p99 {lag:.0} us exceeds {MAX_SEND_LAG_P99_US:.0} us"
            ));
        }
        let behind = self.achieved_qps() < 0.99 * self.offered_qps();
        let growing = self.inflight_end > 2 * self.inflight_mid + 16;
        (behind && growing).then(|| {
            format!(
                "achieved {:.0}/s of {:.0}/s offered with in-flight growing {} -> {}",
                self.achieved_qps(),
                self.offered_qps(),
                self.inflight_mid,
                self.inflight_end
            )
        })
    }
}

/// One generator connection (non-blocking, `TCP_NODELAY`).
pub struct Conn {
    stream: TcpStream,
    /// Received bytes not yet parsed into a whole frame.
    rbuf: Vec<u8>,
    /// Encoded frame bytes the socket has not accepted yet.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The request this connection is waiting on.
    waiting: Option<usize>,
}

/// Open the generator's connections; part of a workload's set-up.
pub fn connect(addr: SocketAddr, conns: usize) -> io::Result<Vec<Conn>> {
    (0..conns)
        .map(|_| {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                waiting: None,
            })
        })
        .collect()
}

impl Conn {
    /// Push buffered frame bytes at the socket.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// Pull whatever the socket holds; `Ok(true)` if bytes arrived.
    fn fill(&mut self, scratch: &mut [u8]) -> io::Result<bool> {
        let mut got = false;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    got = true;
                    if n < scratch.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The payload of the frame at the head of the receive buffer, once
    /// all of it has arrived.
    fn whole_frame(&self) -> Option<std::ops::Range<usize>> {
        let len = u32::from_le_bytes(self.rbuf.get(..4)?.try_into().unwrap()) as usize;
        (self.rbuf.len() >= 4 + len).then_some(4..4 + len)
    }
}

/// One request, indexed by `trace_id - 1`.
struct Slot {
    request: usize,
    /// When it was due (open) or sent (closed), ns from the start.
    intended_ns: u64,
    recorded: bool,
    done: bool,
    span: SpanId,
}

/// Drive `plan` over `conns` with `requests` cycled in order.
/// `verify(i, body)` says whether an `Ok` reply to `requests[i]` carries
/// the expected rows.
pub fn run(
    plan: &Plan<'_>,
    conns: &mut [Conn],
    requests: &mut [Request],
    verify: &mut dyn FnMut(usize, &[u8]) -> bool,
    rec: &mut SpanRec,
) -> io::Result<LoadResult> {
    assert!(!requests.is_empty() && !conns.is_empty());
    let mut scratch = vec![0u8; 1 << 16];
    let mut slots: Vec<Slot> = Vec::with_capacity(1 << 16);
    let mut out = LoadResult {
        window_s: plan.window.as_secs_f64(),
        slice_ok: vec![0; SLICES],
        ..LoadResult::default()
    };
    let warmup_ns = plan.warmup.as_nanos() as u64;
    let end_ns = warmup_ns + plan.window.as_nanos() as u64;
    let mid_ns = warmup_ns + plan.window.as_nanos() as u64 / 2;
    let deadline_us = plan.deadline.as_secs_f64() * 1e6;
    // replies still owed when the window closes get this long
    let grace_ns = end_ns + plan.deadline.as_nanos() as u64 + 500_000_000;
    let t0 = Instant::now();
    let now_ns = move || t0.elapsed().as_nanos() as u64;
    let mut idle: Vec<usize> = (0..conns.len()).rev().collect();
    // open loop: requests taken up but still waiting for a connection
    let mut queued: VecDeque<usize> = VecDeque::new();
    let mut inflight = 0usize;
    let (mut mid_seen, mut end_seen) = (false, false);

    loop {
        let mut progressed = false;
        let now = now_ns();
        if !mid_seen && now >= mid_ns {
            mid_seen = true;
            out.inflight_mid = inflight;
        }
        if !end_seen && now >= end_ns {
            end_seen = true;
            out.inflight_end = inflight;
        }

        // 1. take up requests that are due
        loop {
            let seq = slots.len();
            let intended_ns = match plan.mode {
                Mode::Open { schedule } => match schedule.get(seq) {
                    Some(&due) if due <= now => due,
                    _ => break,
                },
                Mode::Closed if !idle.is_empty() && now < end_ns => now_ns(),
                Mode::Closed => break,
            };
            let recorded = (warmup_ns..end_ns).contains(&intended_ns);
            if recorded {
                out.scheduled += 1;
                if matches!(plan.mode, Mode::Open { .. }) {
                    out.send_lag_us
                        .push(now_ns().saturating_sub(intended_ns) as f64 / 1e3);
                }
            }
            let trace_id = seq as u64 + 1;
            slots.push(Slot {
                request: seq % requests.len(),
                intended_ns,
                recorded,
                done: false,
                span: rec.add("request", intended_ns, intended_ns, NO_PARENT, trace_id),
            });
            inflight += 1;
            out.inflight_max = out.inflight_max.max(inflight);
            queued.push_back(seq);
            // closed loop: one request per idle connection, sent below
            if matches!(plan.mode, Mode::Closed) && queued.len() >= idle.len() {
                break;
            }
        }

        // 2. send what has a free connection
        while let (Some(&seq), Some(&c)) = (queued.front(), idle.last()) {
            queued.pop_front();
            idle.pop();
            let slot = &slots[seq];
            let trace_id = seq as u64 + 1;
            if let Request::Query(body) = &mut requests[slot.request] {
                body.trace_id = trace_id;
            }
            let t_enc = now_ns();
            let payload = wire::encode_request(&requests[slot.request]);
            let t_send = now_ns();
            let conn = &mut conns[c];
            wire::write_frame(&mut conn.wbuf, &payload)?;
            conn.flush()?;
            conn.waiting = Some(seq);
            if rec.enabled() {
                rec.add("wire.encode_req", t_enc, t_send, slot.span, trace_id);
                rec.add("client.send", t_send, now_ns(), slot.span, trace_id);
            }
            progressed = true;
        }

        // 3. read the connections that are waiting on a reply
        for (c, conn) in conns.iter_mut().enumerate() {
            let Some(seq) = conn.waiting else {
                continue;
            };
            if conn.wpos < conn.wbuf.len() {
                conn.flush()?;
            }
            let t_read = now_ns();
            if !conn.fill(&mut scratch)? {
                continue;
            }
            progressed = true;
            let t_dec = now_ns();
            rec.add("client.recv", t_read, t_dec, NO_PARENT, 0);
            let Some(frame) = conn.whole_frame() else {
                continue;
            };
            let resp = wire::decode_response(&conn.rbuf[frame])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            conn.rbuf.clear();
            conn.waiting = None;
            idle.push(c);
            let t_decoded = now_ns();
            let slot = &mut slots[seq];
            if resp.trace_id != seq as u64 + 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("reply carries trace id {}, not {}", resp.trace_id, seq + 1),
                ));
            }
            slot.done = true;
            inflight -= 1;
            let class = classify(&resp, slot.request, verify);
            let t_done = now_ns();
            if rec.enabled() {
                rec.add(
                    "wire.decode_resp",
                    t_dec,
                    t_decoded,
                    slot.span,
                    resp.trace_id,
                );
                rec.add(
                    "select.table_decode",
                    t_decoded,
                    t_done,
                    slot.span,
                    resp.trace_id,
                );
                rec.set_end(slot.span, t_done);
            }
            if matches!(class, Class::Ok) && (warmup_ns..end_ns).contains(&t_done) {
                let slice =
                    (t_done - warmup_ns) as u128 * SLICES as u128 / (end_ns - warmup_ns) as u128;
                out.slice_ok[slice as usize] += 1;
            }
            if !slot.recorded {
                continue;
            }
            let latency_us = t_done.saturating_sub(slot.intended_ns) as f64 / 1e3;
            match class {
                Class::Ok => {
                    out.ok += 1;
                    out.latencies_us.push(latency_us);
                    if latency_us <= deadline_us {
                        out.good += 1;
                    }
                }
                Class::Wrong => out.wrong += 1,
                Class::Refused => out.refused += 1,
                Class::TimedOut => out.timed_out += 1,
                Class::Failed => out.failed += 1,
            }
        }

        // 4. done?
        let sending_over = match plan.mode {
            Mode::Open { schedule } => slots.len() == schedule.len(),
            Mode::Closed => now >= end_ns,
        };
        if sending_over && (inflight == 0 || now >= grace_ns) {
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    // requests that never got a reply
    out.failed += slots.iter().filter(|s| s.recorded && !s.done).count() as u64;
    stats::sort(&mut out.latencies_us);
    stats::sort(&mut out.send_lag_us);
    Ok(out)
}

enum Class {
    Ok,
    Wrong,
    Refused,
    TimedOut,
    Failed,
}

fn classify(
    resp: &Response,
    request: usize,
    verify: &mut dyn FnMut(usize, &[u8]) -> bool,
) -> Class {
    match resp.status {
        Status::Ok if verify(request, &resp.body) => Class::Ok,
        Status::Ok => Class::Wrong,
        Status::Busy => Class::Refused,
        Status::Timeout => Class::TimedOut,
        _ => Class::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsknn_serve::wire::{Precision, QueryBody};
    use std::net::TcpListener;

    /// A listener that answers every query frame `Ok` with the request's
    /// trace id, and sleeps `stall` once, before reply number `stall_at`.
    fn stub_listener(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut served = 0usize;
            while let Ok(Some(frame)) = wire::read_frame(&mut stream) {
                let Ok(Request::Query(q)) = wire::decode_request(&frame) else {
                    return;
                };
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                served += 1;
                let resp = Response::empty(Status::Ok).with_trace(q.trace_id);
                if wire::write_frame(&mut stream, &wire::encode_response(&resp)).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    fn one_request() -> Vec<Request> {
        vec![Request::Query(QueryBody {
            precision: Precision::F64,
            k: 1,
            deadline_ms: 50,
            trace_id: 0,
            dim: 2,
            m: 1,
            coords: vec![0.25, 0.75],
        })]
    }

    fn drive(mode: Mode<'_>, stall_at: usize) -> LoadResult {
        let (addr, stub) = stub_listener(stall_at, Duration::from_millis(100));
        let plan = Plan {
            mode,
            warmup: Duration::ZERO,
            window: Duration::from_millis(1000),
            deadline: Duration::from_millis(50),
        };
        let mut conns = connect(addr, 1).unwrap();
        let res = run(
            &plan,
            &mut conns,
            &mut one_request(),
            &mut |_, _| true,
            &mut SpanRec::off(),
        )
        .unwrap();
        drop(conns);
        stub.join().unwrap();
        res
    }

    /// 2000 requests/s for one second against a listener that stalls
    /// 100 ms once. About 200 requests fall due during the stall; timed
    /// from their intended send they wait up to 100 ms, so p99 carries
    /// the stall. A generator that waited for replies before sending
    /// (coordinated omission) would record one slow request in 2000.
    #[test]
    fn open_loop_p99_includes_a_server_stall() {
        let schedule: Vec<u64> = (0..2000u64).map(|i| i * 500_000).collect();
        let res = drive(
            Mode::Open {
                schedule: &schedule,
            },
            1000,
        );
        assert_eq!(res.scheduled, 2000);
        assert_eq!(res.ok, 2000);
        let p99 = stats::quantile_sorted(&res.latencies_us, 0.99);
        assert!(p99 >= 80_000.0, "p99 {p99} us hides the 100 ms stall");
        // requests that missed the 50 ms budget are not goodput
        assert!(res.good < res.ok && res.good > 1500, "good {}", res.good);
        // the generator itself kept to its schedule throughout
        assert!(res.send_lag_p99_us() < MAX_SEND_LAG_P99_US);
        assert!(res.invalid_reason().is_none());
    }

    /// The same stall seen by one waiting caller: a single sample is
    /// slow, the p99 is not — which is why the open loop exists.
    #[test]
    fn closed_loop_sees_the_stall_once() {
        let res = drive(Mode::Closed, 200);
        assert!(res.ok > 500, "only {} replies", res.ok);
        assert_eq!(res.failed_total(), 0);
        let p99 = stats::quantile_sorted(&res.latencies_us, 0.99);
        let max = *res.latencies_us.last().unwrap();
        assert!(max >= 95_000.0, "max {max} us");
        assert!(p99 < 20_000.0, "p99 {p99} us");
        assert!(res.send_lag_us.is_empty());
    }

    #[test]
    fn a_backlog_that_keeps_growing_is_invalid() {
        let res = LoadResult {
            scheduled: 1000,
            ok: 900,
            window_s: 1.0,
            send_lag_us: vec![1.0; 1000],
            inflight_mid: 10,
            inflight_end: 100,
            ..LoadResult::default()
        };
        assert!(res.invalid_reason().unwrap().contains("growing"));
        let late = LoadResult {
            send_lag_us: vec![5000.0; 10],
            window_s: 1.0,
            ..LoadResult::default()
        };
        assert!(late.invalid_reason().unwrap().contains("send lag"));
    }
}
