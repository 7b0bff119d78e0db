//! Length-prefixed binary wire protocol.
//!
//! Every message is one **frame**: a `u32` little-endian payload length
//! followed by that many payload bytes (capped at [`MAX_FRAME`]). The
//! payload is a versioned request or response:
//!
//! ```text
//! request   magic "GSRQ", version u16 = 2, op u8, precision u8 (8|4|0)
//!           Query:      k u16, deadline_ms u32, trace_id u64, d u32, d coords
//!           BatchQuery: k u16, deadline_ms u32, trace_id u64, d u32,
//!                       m u32, m·d coords
//!           Stats / Ping / Shutdown / Metrics / Traces / TimeSeries:
//!           no body (precision byte is 0)
//!           TraceFetch: trace_id u64 (precision byte is 0) — fetch the
//!           span fragment a backend retained for that routed query
//!
//! response  magic "GSRP", version u16 = 2, status u8, trace_id u64, body
//!           Ok(Query/BatchQuery): NeighborTable v2 bytes (knn-select)
//!           OkDegraded:           NeighborTable v2 bytes (degraded lane's
//!                                 precision; the table is self-describing),
//!                                 OR a PartialTopK envelope (below) when a
//!                                 scatter-gather router answered with some
//!                                 partitions missing — sniff the body magic
//!           PartialTopK:          PartialTopK envelope: a per-partition
//!                                 top-k heap payload from a backend running
//!                                 in partition mode (ids already global)
//!           Ok(Stats):            ServeReport / RouterReport JSON (UTF-8)
//!           Ok(Metrics):          Prometheus text exposition (UTF-8)
//!           Ok(Traces):           Chrome trace-event JSON (UTF-8)
//!           Ok(TimeSeries):       load time-series JSON (UTF-8)
//!           Ok(TraceFetch):       span-annex bytes (below), empty if the
//!                                 trace id fell out of the fragment ring
//!           Ok(Ping/Shutdown):    empty
//!           Busy/Timeout/ShuttingDown: empty
//!           Error/BadRequest/InternalError: UTF-8 message
//!
//! envelope  magic "GSPK", version u16 = 2, partition_id u32, epoch u64,
//!           contributed u16, total u16, flags u8 (bit 0 = served from a
//!           degraded lane, bit 1 = a span annex trails the table),
//!           replica_id u16, replicas u16, then NeighborTable v2 bytes
//!           (the table is self-describing, so no inner length field is
//!           needed and none can disagree), then — iff flag bit 1 — a
//!           span annex to the end of the body.
//!
//! annex     magic "GSTA", version u16 = 1, span_count u16, then per
//!           span: name_len u8, name bytes (UTF-8, ≤ 64), start_ns i64
//!           (relative to the backend's request-receive instant), dur_ns
//!           u64. At most 64 spans; oversized annexes are rejected on
//!           decode, never allocated.
//! ```
//!
//! **Trace ids.** A `u64` trace id is threaded through every query:
//! the client stamps one (0 = "server, assign me one"), the server
//! echoes it in the response header, so a client can join its measured
//! RTT against the server's exported trace of the same request.
//!
//! **Versions.** Each decoder accepts exactly the version its encoder
//! writes; any other version byte is a typed
//! [`WireError::BadVersion`], never a guess at an older layout.
//!
//! Coordinates travel at the negotiated precision (`f64` or `f32`
//! little-endian); query responses reuse the [`NeighborTable`] v2
//! serialization, which stamps its own precision byte, so a response
//! frame is self-describing. Decoding widens coordinates to `f64`; the
//! server's f32 lane narrows them back, which is exact (f32 → f64 → f32
//! round-trips bit-for-bit).

use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Protocol version stamped in every frame payload.
pub const WIRE_VERSION: u16 = 2;
/// Hard cap on a frame payload — larger length prefixes are rejected
/// before any allocation (64 MiB covers ~4M-point f64 batch responses).
pub const MAX_FRAME: usize = 1 << 26;

const REQ_MAGIC: &[u8; 4] = b"GSRQ";
const RESP_MAGIC: &[u8; 4] = b"GSRP";
const PARTIAL_MAGIC: &[u8; 4] = b"GSPK";
const PARTIAL_VERSION: u16 = 2;

/// Element precision negotiated per request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// 8-byte coordinates/distances.
    F64,
    /// 4-byte coordinates/distances.
    F32,
}

impl Precision {
    /// The header byte: the element width, matching the NeighborTable
    /// serialization convention.
    pub fn byte(self) -> u8 {
        match self {
            Precision::F64 => 8,
            Precision::F32 => 4,
        }
    }

    /// Parse a header byte.
    pub fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            8 => Ok(Precision::F64),
            4 => Ok(Precision::F32),
            other => Err(WireError::BadPrecision(other)),
        }
    }

    /// Display label (`"f64"` / `"f32"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

/// Request operations (the `op` header byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Query = 1,
    BatchQuery = 2,
    Stats = 3,
    Ping = 4,
    Shutdown = 5,
    Metrics = 6,
    Traces = 7,
    TimeSeries = 8,
    TraceFetch = 9,
}

/// Body of a `Query` / `BatchQuery` request.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryBody {
    /// Coordinate/response precision.
    pub precision: Precision,
    /// Neighbors requested per query point.
    pub k: usize,
    /// Latency budget in milliseconds: the coalescer holds the request
    /// for at most half of this, and a request whose kernel start slips
    /// past the full budget is answered `Timeout` instead of computed.
    pub deadline_ms: u32,
    /// Client-stamped trace id, echoed in the response header. 0 asks
    /// the server to assign one.
    pub trace_id: u64,
    /// Point dimension.
    pub dim: usize,
    /// Number of query points.
    pub m: usize,
    /// `m · dim` coordinates, point-major, widened to `f64` on decode.
    pub coords: Vec<f64>,
}

/// A query decoded without materializing its coordinates: the header
/// fields plus a borrowed view of the coordinate bytes still in the
/// receive buffer. The shard hot path iterates [`RawQuery::coords`]
/// straight into its pack-buffer layout (`PointSet::append_from_f64`)
/// instead of building an intermediate `Vec<f64>`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawQuery<'a> {
    /// Coordinate/response precision.
    pub precision: Precision,
    /// Neighbors requested per query point.
    pub k: usize,
    /// Latency budget in milliseconds.
    pub deadline_ms: u32,
    /// Client-stamped trace id (0 = assign one).
    pub trace_id: u64,
    /// Point dimension.
    pub dim: usize,
    /// Number of query points.
    pub m: usize,
    /// `m · dim` coordinates as little-endian bytes at `precision`,
    /// borrowed from the frame payload (length already validated).
    pub coord_bytes: &'a [u8],
}

impl<'a> RawQuery<'a> {
    /// Iterate the coordinates widened to `f64`, in wire order.
    pub fn coords(&self) -> impl Iterator<Item = f64> + 'a {
        let width = self.precision.byte() as usize;
        let precision = self.precision;
        self.coord_bytes
            .chunks_exact(width)
            .map(move |c| match precision {
                Precision::F64 => f64::from_le_bytes(c.try_into().unwrap()),
                Precision::F32 => f32::from_le_bytes(c.try_into().unwrap()) as f64,
            })
    }

    /// Materialize into the owning [`QueryBody`] form.
    pub fn to_body(&self) -> QueryBody {
        QueryBody {
            precision: self.precision,
            k: self.k,
            deadline_ms: self.deadline_ms,
            trace_id: self.trace_id,
            dim: self.dim,
            m: self.m,
            coords: self.coords().collect(),
        }
    }
}

/// A request frame decoded zero-copy — identical to [`Request`] except
/// the query arm borrows its coordinates from the payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RawRequest<'a> {
    /// kNN for one point or a client-side batch (coordinates borrowed).
    Query(RawQuery<'a>),
    /// See [`Request::Stats`].
    Stats,
    /// See [`Request::Ping`].
    Ping,
    /// See [`Request::Shutdown`].
    Shutdown,
    /// See [`Request::Metrics`].
    Metrics,
    /// See [`Request::Traces`].
    Traces,
    /// See [`Request::TimeSeries`].
    TimeSeries,
    /// See [`Request::TraceFetch`].
    TraceFetch(u64),
}

impl RawRequest<'_> {
    /// Materialize into the owning [`Request`] form.
    pub fn into_owned(self) -> Request {
        match self {
            RawRequest::Query(q) => Request::Query(q.to_body()),
            RawRequest::Stats => Request::Stats,
            RawRequest::Ping => Request::Ping,
            RawRequest::Shutdown => Request::Shutdown,
            RawRequest::Metrics => Request::Metrics,
            RawRequest::Traces => Request::Traces,
            RawRequest::TimeSeries => Request::TimeSeries,
            RawRequest::TraceFetch(id) => Request::TraceFetch(id),
        }
    }
}

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// kNN for one point (`body.m == 1`) or a client-side batch.
    Query(QueryBody),
    /// Fetch the server's [`gsknn_obs::ServeReport`] as JSON.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful drain: queued queries are answered, new ones get
    /// `ShuttingDown`, then the server exits.
    Shutdown,
    /// Fetch the Prometheus-style text exposition (counters, gauges and
    /// latency histogram buckets).
    Metrics,
    /// Fetch the slowest-traces ring as Chrome trace-event JSON.
    Traces,
    /// Fetch the windowed load time-series (per-second snapshots of
    /// arrival rate, queue depth, batch sizes, flush reasons and the
    /// aggregate kernel-phase split) as JSON.
    TimeSeries,
    /// Fetch the span-annex bytes a server retained for this trace id
    /// (empty body if the id has fallen out of the fragment ring). On a
    /// backend this returns the raw annex; on the router it returns the
    /// *stitched* trace as Chrome trace-event JSON.
    TraceFetch(u64),
}

/// Response status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Request served; body depends on the op.
    Ok = 0,
    /// Admission control rejected the request (queue full, or a batch
    /// larger than the whole queue).
    Busy = 1,
    /// The request's latency budget expired before the kernel started.
    Timeout = 2,
    /// Server is draining; retry against another replica.
    ShuttingDown = 3,
    /// Protocol-level failure (undecodable frame); body is a UTF-8
    /// message.
    Error = 4,
    /// Request decoded but failed validation (dimension mismatch, bad
    /// `m`/`k`, non-finite coordinate at the lane's precision); body is
    /// a UTF-8 message. Not retryable as-is.
    BadRequest = 5,
    /// A lane worker failed (panicked) while this request was in flight;
    /// the worker was respawned and the request is safe to retry. Body
    /// is a UTF-8 message.
    InternalError = 6,
    /// Request served from a degraded lane (overload shed an f64 query
    /// to the f32 lane); body is NeighborTable bytes like `Ok`, at the
    /// degraded precision. A scatter-gather router reuses this status
    /// when partitions went missing, with a [`PartialTopK`] body (sniff
    /// via [`is_partial_body`]) carrying the contributed/total counts.
    OkDegraded = 7,
    /// A per-partition top-k reply from a backend running in partition
    /// mode: the body is a [`PartialTopK`] envelope whose neighbor ids
    /// are already offset to the *global* reference numbering, ready for
    /// the router's truncated merge.
    PartialTopK = 8,
}

impl Status {
    /// Every status, in discriminant order (`ALL[s as usize] == s`).
    pub(crate) const ALL: [Status; 9] = [
        Status::Ok,
        Status::Busy,
        Status::Timeout,
        Status::ShuttingDown,
        Status::Error,
        Status::BadRequest,
        Status::InternalError,
        Status::OkDegraded,
        Status::PartialTopK,
    ];

    /// The status's metrics and trace label — the one mapping latency
    /// histograms, slow-query lines and router traces all use.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Busy => "busy",
            Status::Timeout => "timeout",
            Status::ShuttingDown => "shutting_down",
            Status::Error => "error",
            Status::BadRequest => "bad_request",
            Status::InternalError => "internal_error",
            Status::OkDegraded => "ok_degraded",
            Status::PartialTopK => "partial_topk",
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        Status::ALL
            .get(usize::from(b))
            .copied()
            .ok_or(WireError::BadStatus(b))
    }
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Outcome.
    pub status: Status,
    /// Trace id of the request this answers (0 for non-query ops).
    pub trace_id: u64,
    /// Status-dependent body (see module docs).
    pub body: Vec<u8>,
}

impl Response {
    /// Shorthand for a body-less response.
    pub fn empty(status: Status) -> Self {
        Response {
            status,
            trace_id: 0,
            body: Vec::new(),
        }
    }

    /// An `Ok` response carrying `body` (no trace id; see
    /// [`Response::with_trace`]).
    pub fn ok_body(body: Vec<u8>) -> Self {
        Response {
            status: Status::Ok,
            trace_id: 0,
            body,
        }
    }

    /// Shorthand for an `Error` response with a message.
    pub fn error(msg: impl Into<String>) -> Self {
        Response {
            status: Status::Error,
            trace_id: 0,
            body: msg.into().into_bytes(),
        }
    }

    /// Shorthand for a `BadRequest` response with a message.
    pub fn bad_request(msg: impl Into<String>) -> Self {
        Response {
            status: Status::BadRequest,
            trace_id: 0,
            body: msg.into().into_bytes(),
        }
    }

    /// Shorthand for an `InternalError` response with a message.
    pub fn internal_error(msg: impl Into<String>) -> Self {
        Response {
            status: Status::InternalError,
            trace_id: 0,
            body: msg.into().into_bytes(),
        }
    }

    /// Stamp the trace id this response echoes.
    pub fn with_trace(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }
}

/// The partial-top-k envelope header (the `"GSPK"` body layout in the
/// module docs). Travels in two directions:
///
/// * **backend → router** under [`Status::PartialTopK`]: one partition's
///   top-k heap payload, `partition_id`/`epoch` identifying which slice
///   of the reference set answered (`contributed = total = 1`);
/// * **router → client** under [`Status::OkDegraded`]: the merged answer
///   when only `contributed` of `total` partitions made the deadline.
///
/// The table bytes follow the header to the end of the response body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartialHeader {
    /// Which partition of the reference set produced the payload
    /// (`u32::MAX` for a router-merged answer spanning partitions).
    pub partition_id: u32,
    /// Partition-map epoch: the router rejects partials from a backend
    /// configured against a different partitioning than its own.
    pub epoch: u64,
    /// Partitions whose answers are folded into the payload.
    pub contributed: u16,
    /// Partitions in the full fan-out.
    pub total: u16,
    /// Bit 0: the payload was computed on a degraded (f32) lane.
    pub flags: u8,
    /// Which replica of the partition produced the payload,
    /// `0..replicas` (0 for a router-merged answer).
    pub replica_id: u16,
    /// Replicas serving this partition.
    pub replicas: u16,
}

/// Encoded size of a [`PartialHeader`] (magic + version + fields).
pub const PARTIAL_HEADER_LEN: usize = 4 + 2 + 4 + 8 + 2 + 2 + 1 + 2 + 2;

/// Flag bit 1 of a [`PartialHeader`]: a span annex trails the table
/// bytes in the body. V2-compatible — routers that predate the annex
/// hand the whole tail to `NeighborTable::from_bytes`, which tolerates
/// trailing bytes.
pub const PARTIAL_FLAG_SPAN_ANNEX: u8 = 2;

impl PartialHeader {
    /// Bit 0 of `flags`: the answer came off a degraded-precision lane.
    pub fn lane_degraded(&self) -> bool {
        self.flags & 1 != 0
    }

    /// Bit 1 of `flags`: a span annex trails the table bytes.
    pub fn has_span_annex(&self) -> bool {
        self.flags & PARTIAL_FLAG_SPAN_ANNEX != 0
    }

    /// Append the envelope header to `out` (the caller appends the
    /// NeighborTable bytes after it — e.g. via `encode_into_with_offset`
    /// on the shard hot path, which keeps the reply allocation-free).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(PARTIAL_MAGIC);
        out.extend_from_slice(&PARTIAL_VERSION.to_le_bytes());
        out.extend_from_slice(&self.partition_id.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.contributed.to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        out.push(self.flags);
        out.extend_from_slice(&self.replica_id.to_le_bytes());
        out.extend_from_slice(&self.replicas.to_le_bytes());
    }
}

/// `true` when a response body starts with the partial-top-k envelope
/// magic — how a client distinguishes a router's partition-annotated
/// `OkDegraded` body from a plain degraded-lane NeighborTable.
pub fn is_partial_body(body: &[u8]) -> bool {
    body.len() >= 4 && &body[..4] == PARTIAL_MAGIC
}

/// Decode a partial-top-k body into its header and the borrowed
/// NeighborTable bytes that follow it. Total like every decoder here:
/// arbitrary bytes produce a typed error, never a panic — the table
/// bytes themselves are validated by `NeighborTable::from_bytes`, which
/// carries its own decode caps.
pub fn decode_partial(body: &[u8]) -> Result<(PartialHeader, &[u8]), WireError> {
    let mut buf = body;
    if buf.remaining() < PARTIAL_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != PARTIAL_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != PARTIAL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let header = PartialHeader {
        partition_id: buf.get_u32_le(),
        epoch: buf.get_u64_le(),
        contributed: buf.get_u16_le(),
        total: buf.get_u16_le(),
        flags: buf.get_u8(),
        replica_id: buf.get_u16_le(),
        replicas: buf.get_u16_le(),
    };
    Ok((header, buf))
}

const ANNEX_MAGIC: &[u8; 4] = b"GSTA";
const ANNEX_VERSION: u16 = 1;
/// Hard cap on spans in one annex — the backend trace for a single
/// query is a handful of phases, so 64 is generous; anything larger is
/// rejected on decode before allocation.
pub const MAX_ANNEX_SPANS: usize = 64;
/// Hard cap on a span name in an annex (longer names are truncated at a
/// UTF-8 boundary on encode, rejected on decode).
pub const MAX_ANNEX_NAME: usize = 64;

/// One backend-side span carried in a span annex. Timestamps are in the
/// *backend's* monotonic timeline, nanoseconds relative to the instant
/// the backend received the request — the router maps them into its own
/// timeline via RTT-bracketing clock alignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnnexSpan {
    /// Phase label (e.g. `"coalesce wait"`, `"kernel: distances"`).
    pub name: String,
    /// Start offset from the backend's request-receive instant, ns.
    /// Signed: decode spans (stamped before the receive mark settles)
    /// may start marginally negative.
    pub start_ns: i64,
    /// Span duration, ns.
    pub dur_ns: u64,
}

/// Append a span annex (`"GSTA"` layout in the module docs) to `out`.
/// Spans beyond [`MAX_ANNEX_SPANS`] are dropped and names are truncated
/// to [`MAX_ANNEX_NAME`] bytes (at a UTF-8 boundary), so the encoded
/// form always round-trips through [`decode_span_annex`].
pub fn encode_span_annex(spans: &[AnnexSpan], out: &mut Vec<u8>) {
    let count = spans.len().min(MAX_ANNEX_SPANS);
    out.extend_from_slice(ANNEX_MAGIC);
    out.extend_from_slice(&ANNEX_VERSION.to_le_bytes());
    out.extend_from_slice(&(count as u16).to_le_bytes());
    for span in &spans[..count] {
        let mut name = span.name.as_bytes();
        if name.len() > MAX_ANNEX_NAME {
            let mut cut = MAX_ANNEX_NAME;
            while !span.name.is_char_boundary(cut) {
                cut -= 1;
            }
            name = &name[..cut];
        }
        out.push(name.len() as u8);
        out.extend_from_slice(name);
        out.extend_from_slice(&span.start_ns.to_le_bytes());
        out.extend_from_slice(&span.dur_ns.to_le_bytes());
    }
}

/// Decode a span annex. Total: arbitrary bytes produce a typed error,
/// never a panic or unbounded allocation — the span count is capped
/// before any allocation and non-UTF-8 name bytes decode lossily.
pub fn decode_span_annex(body: &[u8]) -> Result<Vec<AnnexSpan>, WireError> {
    let mut buf = body;
    if buf.remaining() < 4 + 2 + 2 {
        return Err(WireError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != ANNEX_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != ANNEX_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let count = buf.get_u16_le() as usize;
    if count > MAX_ANNEX_SPANS {
        return Err(WireError::Oversized(count));
    }
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let name_len = buf.get_u8() as usize;
        if name_len > MAX_ANNEX_NAME {
            return Err(WireError::Oversized(name_len));
        }
        if buf.remaining() < name_len + 8 + 8 {
            return Err(WireError::Truncated);
        }
        let name = String::from_utf8_lossy(&buf[..name_len]).into_owned();
        buf.advance(name_len);
        let start_ns = buf.get_i64_le();
        let dur_ns = buf.get_u64_le();
        spans.push(AnnexSpan {
            name,
            start_ns,
            dur_ns,
        });
    }
    Ok(spans)
}

/// Why a payload failed to decode.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// Wrong magic — not a gsknn-serve frame (or request/response mixed up).
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u16),
    /// Unknown op byte.
    BadOp(u8),
    /// Precision byte is not 8 or 4.
    BadPrecision(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Payload ended before the declared content.
    Truncated,
    /// Declared frame length exceeds [`MAX_FRAME`].
    Oversized(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not a gsknn-serve frame (bad magic)"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadOp(op) => write!(f, "unknown op {op}"),
            WireError::BadPrecision(b) => write!(f, "unsupported precision byte {b}"),
            WireError::BadStatus(s) => write!(f, "unknown response status {s}"),
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds cap"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encode a request payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_slice(REQ_MAGIC);
    buf.put_u16_le(WIRE_VERSION);
    match req {
        Request::Query(q) => {
            let op = if q.m == 1 { Op::Query } else { Op::BatchQuery };
            buf.put_u8(op as u8);
            buf.put_u8(q.precision.byte());
            buf.put_u16_le(q.k as u16);
            buf.put_u32_le(q.deadline_ms);
            buf.put_u64_le(q.trace_id);
            buf.put_u32_le(q.dim as u32);
            if op == Op::BatchQuery {
                buf.put_u32_le(q.m as u32);
            }
            for &v in &q.coords {
                match q.precision {
                    Precision::F64 => buf.put_f64_le(v),
                    Precision::F32 => buf.put_f32_le(v as f32),
                }
            }
        }
        Request::Stats => {
            buf.put_u8(Op::Stats as u8);
            buf.put_u8(0);
        }
        Request::Ping => {
            buf.put_u8(Op::Ping as u8);
            buf.put_u8(0);
        }
        Request::Shutdown => {
            buf.put_u8(Op::Shutdown as u8);
            buf.put_u8(0);
        }
        Request::Metrics => {
            buf.put_u8(Op::Metrics as u8);
            buf.put_u8(0);
        }
        Request::Traces => {
            buf.put_u8(Op::Traces as u8);
            buf.put_u8(0);
        }
        Request::TimeSeries => {
            buf.put_u8(Op::TimeSeries as u8);
            buf.put_u8(0);
        }
        Request::TraceFetch(id) => {
            buf.put_u8(Op::TraceFetch as u8);
            buf.put_u8(0);
            buf.put_u64_le(*id);
        }
    }
    buf
}

/// Decode a request payload into the owning form.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    decode_request_raw(buf).map(RawRequest::into_owned)
}

/// Decode a request payload zero-copy: query coordinates stay as a
/// borrowed byte slice into `buf` ([`RawQuery::coord_bytes`]), already
/// length-validated against the declared `m · dim · width`.
pub fn decode_request_raw(mut buf: &[u8]) -> Result<RawRequest<'_>, WireError> {
    if buf.remaining() < 4 + 2 + 1 + 1 {
        return Err(WireError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != REQ_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let op = buf.get_u8();
    let prec_byte = buf.get_u8();
    match op {
        op if op == Op::Query as u8 || op == Op::BatchQuery as u8 => {
            let precision = Precision::from_byte(prec_byte)?;
            let fixed = 2 + 4 + 8 + 4 + if op == Op::BatchQuery as u8 { 4 } else { 0 };
            if buf.remaining() < fixed {
                return Err(WireError::Truncated);
            }
            let k = buf.get_u16_le() as usize;
            let deadline_ms = buf.get_u32_le();
            let trace_id = buf.get_u64_le();
            let dim = buf.get_u32_le() as usize;
            let m = if op == Op::BatchQuery as u8 {
                buf.get_u32_le() as usize
            } else {
                1
            };
            let want = m
                .checked_mul(dim)
                .and_then(|c| c.checked_mul(precision.byte() as usize))
                .ok_or(WireError::Oversized(usize::MAX))?;
            // cap the *declared* size before trusting it anywhere — a
            // hostile header must never drive an allocation decision
            if want > MAX_FRAME {
                return Err(WireError::Oversized(want));
            }
            if buf.remaining() < want {
                return Err(WireError::Truncated);
            }
            Ok(RawRequest::Query(RawQuery {
                precision,
                k,
                deadline_ms,
                trace_id,
                dim,
                m,
                coord_bytes: &buf[..want],
            }))
        }
        op if op == Op::Stats as u8 => Ok(RawRequest::Stats),
        op if op == Op::Ping as u8 => Ok(RawRequest::Ping),
        op if op == Op::Shutdown as u8 => Ok(RawRequest::Shutdown),
        op if op == Op::Metrics as u8 => Ok(RawRequest::Metrics),
        op if op == Op::Traces as u8 => Ok(RawRequest::Traces),
        op if op == Op::TimeSeries as u8 => Ok(RawRequest::TimeSeries),
        op if op == Op::TraceFetch as u8 => {
            if buf.remaining() < 8 {
                return Err(WireError::Truncated);
            }
            Ok(RawRequest::TraceFetch(buf.get_u64_le()))
        }
        other => Err(WireError::BadOp(other)),
    }
}

/// Encode a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 2 + 1 + 8 + resp.body.len());
    buf.put_slice(RESP_MAGIC);
    buf.put_u16_le(WIRE_VERSION);
    buf.put_u8(resp.status as u8);
    buf.put_u64_le(resp.trace_id);
    buf.put_slice(&resp.body);
    buf
}

/// Decode a response payload.
pub fn decode_response(mut buf: &[u8]) -> Result<Response, WireError> {
    if buf.remaining() < 4 + 2 + 1 {
        return Err(WireError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != RESP_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let status = Status::from_byte(buf.get_u8())?;
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(Response {
        status,
        trace_id: buf.get_u64_le(),
        body: buf.to_vec(),
    })
}

/// Write one frame (length prefix + payload).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Start a response *frame* (length prefix + response header) directly in
/// an output buffer: appends a length placeholder plus the response
/// header and returns the placeholder's offset for [`finish_frame`]. The
/// caller appends the body (e.g. `NeighborTable::encode_into`) in
/// between. Byte-identical to `write_frame(_, &encode_response(..))`, but
/// the buffer is the caller's — the shard hot path reuses one per
/// connection, so a steady-state reply performs no allocation.
pub fn begin_response_frame(out: &mut Vec<u8>, status: Status, trace_id: u64) -> usize {
    let mark = out.len();
    out.extend_from_slice(&[0u8; 4]); // length, patched by finish_frame
    out.extend_from_slice(RESP_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(status as u8);
    out.extend_from_slice(&trace_id.to_le_bytes());
    mark
}

/// Patch the length prefix written by [`begin_response_frame`] once the
/// body is in place.
pub fn finish_frame(out: &mut [u8], mark: usize) {
    let payload = out.len() - mark - 4;
    assert!(payload <= MAX_FRAME, "frame exceeds MAX_FRAME");
    out[mark..mark + 4].copy_from_slice(&(payload as u32).to_le_bytes());
}

/// Read one frame, blocking. `Ok(None)` on clean EOF before any byte of
/// the prefix; `UnexpectedEof` if the stream closes mid-frame.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    read_frame_poll(r, &|| false)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one frame from a stream that may have a read timeout configured,
/// polling `should_stop` whenever a read times out.
///
/// * `Ok(None)` — clean EOF, or `should_stop()` turned true while no
///   frame bytes were pending.
/// * `Ok(Some(payload))` — one complete frame.
/// * `Err` — stream error, oversized frame ([`io::ErrorKind::InvalidData`]),
///   or a stall mid-frame after `should_stop()` turned true.
pub fn read_frame_poll<R: Read>(
    r: &mut R,
    should_stop: &dyn Fn() -> bool,
) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    // Mid-frame stop: allow a few more timeout ticks for the sender to
    // finish, then give up so shutdown can't hang on a stalled client.
    let mut stall_ticks = 0u32;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                if should_stop() {
                    if got == 0 {
                        return Ok(None);
                    }
                    stall_ticks += 1;
                    if stall_ticks > 20 {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => {
                if should_stop() {
                    stall_ticks += 1;
                    if stall_ticks > 20 {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

/// Milliseconds-to-`Duration` helper used on both ends of the deadline
/// header.
pub fn deadline_duration(deadline_ms: u32) -> Duration {
    Duration::from_millis(deadline_ms as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query(precision: Precision, m: usize) -> Request {
        Request::Query(QueryBody {
            precision,
            k: 5,
            deadline_ms: 250,
            trace_id: 0xfeed_beef_cafe_0042,
            dim: 3,
            m,
            coords: (0..m * 3).map(|i| i as f64 * 0.25).collect(),
        })
    }

    #[test]
    fn request_round_trips_all_ops() {
        for req in [
            sample_query(Precision::F64, 1),
            sample_query(Precision::F32, 1),
            sample_query(Precision::F64, 4),
            sample_query(Precision::F32, 7),
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
            Request::Metrics,
            Request::Traces,
            Request::TimeSeries,
            Request::TraceFetch(0xdead_beef_0042_1337),
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn status_labels_cover_every_discriminant() {
        let labels: Vec<&str> = Status::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "ok",
                "busy",
                "timeout",
                "shutting_down",
                "error",
                "bad_request",
                "internal_error",
                "ok_degraded",
                "partial_topk",
            ]
        );
        for (i, &s) in Status::ALL.iter().enumerate() {
            assert_eq!(s as usize, i, "ALL is in discriminant order");
            assert_eq!(Status::from_byte(i as u8).ok(), Some(s));
        }
        assert!(Status::from_byte(Status::ALL.len() as u8).is_err());
    }

    #[test]
    fn f32_coords_narrow_exactly() {
        // dyadic coordinates survive the f64 -> f32 -> f64 round trip
        let req = sample_query(Precision::F32, 2);
        let bytes = encode_request(&req);
        let Request::Query(q) = decode_request(&bytes).unwrap() else {
            panic!("not a query");
        };
        assert_eq!(
            q.coords,
            (0..6).map(|i| i as f64 * 0.25).collect::<Vec<_>>()
        );
    }

    #[test]
    fn response_round_trips_all_statuses() {
        for resp in [
            Response {
                status: Status::Ok,
                trace_id: 7,
                body: vec![1, 2, 3],
            },
            Response {
                status: Status::OkDegraded,
                trace_id: u64::MAX,
                body: vec![4, 5],
            },
            Response {
                status: Status::PartialTopK,
                trace_id: 11,
                body: vec![6, 7, 8],
            },
            Response::empty(Status::Busy),
            Response::empty(Status::Timeout),
            Response::empty(Status::ShuttingDown),
            Response::error("dimension mismatch"),
            Response::bad_request("k exceeds reference count"),
            Response::internal_error("lane worker panicked"),
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{:?}", resp.status);
        }
    }

    #[test]
    fn malformed_payloads_rejected() {
        let mut bad_magic = encode_request(&Request::Ping);
        bad_magic[0] = b'X';
        assert_eq!(decode_request(&bad_magic).unwrap_err(), WireError::BadMagic);

        let mut bad_version = encode_request(&Request::Ping);
        bad_version[4] = 99;
        assert_eq!(
            decode_request(&bad_version).unwrap_err(),
            WireError::BadVersion(99)
        );

        let mut bad_op = encode_request(&Request::Ping);
        bad_op[6] = 42;
        assert_eq!(decode_request(&bad_op).unwrap_err(), WireError::BadOp(42));

        let mut bad_prec = encode_request(&sample_query(Precision::F64, 1));
        bad_prec[7] = 3;
        assert_eq!(
            decode_request(&bad_prec).unwrap_err(),
            WireError::BadPrecision(3)
        );

        let full = encode_request(&sample_query(Precision::F64, 2));
        for cut in [0, 5, 7, 12, full.len() - 1] {
            assert_eq!(
                decode_request(&full[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }

        let mut bad_status = encode_response(&Response::empty(Status::Ok));
        bad_status[6] = 99;
        assert_eq!(
            decode_response(&bad_status).unwrap_err(),
            WireError::BadStatus(99)
        );
    }

    #[test]
    fn declared_coordinate_size_is_capped_before_allocation() {
        // a Query header declaring a dim that would need > MAX_FRAME
        // bytes of coordinates must be rejected as Oversized, not
        // trusted as an allocation size
        let mut buf = Vec::new();
        buf.extend_from_slice(REQ_MAGIC);
        buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        buf.push(1); // Op::Query
        buf.push(8); // f64
        buf.extend_from_slice(&5u16.to_le_bytes()); // k
        buf.extend_from_slice(&100u32.to_le_bytes()); // deadline
        buf.extend_from_slice(&9u64.to_le_bytes()); // trace id
        buf.extend_from_slice(&(u32::MAX).to_le_bytes()); // dim
        assert!(matches!(
            decode_request(&buf).unwrap_err(),
            WireError::Oversized(_)
        ));
    }

    #[test]
    fn v1_request_frames_are_rejected_with_bad_version() {
        // hand-built, well-formed version-1 BatchQuery (no trace_id
        // field on the wire): one protocol generation, typed rejection
        let mut buf = Vec::new();
        buf.extend_from_slice(REQ_MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes()); // version 1
        buf.push(2); // Op::BatchQuery
        buf.push(4); // f32
        buf.extend_from_slice(&3u16.to_le_bytes()); // k
        buf.extend_from_slice(&200u32.to_le_bytes()); // deadline
        buf.extend_from_slice(&2u32.to_le_bytes()); // dim
        buf.extend_from_slice(&2u32.to_le_bytes()); // m
        for v in [1.0f32, 2.0, 3.0, 4.0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(decode_request(&buf).unwrap_err(), WireError::BadVersion(1));
        assert_eq!(
            decode_request_raw(&buf).unwrap_err(),
            WireError::BadVersion(1)
        );
        // every prefix of it is a typed error too, never a panic
        for cut in 0..buf.len() {
            assert!(decode_request(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn v1_response_frames_are_rejected_with_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(RESP_MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes()); // version 1
        buf.push(0); // Status::Ok
        buf.extend_from_slice(b"payload");
        assert_eq!(decode_response(&buf).unwrap_err(), WireError::BadVersion(1));
        // the shortest well-formed v1 response (empty body) as well
        assert_eq!(
            decode_response(&buf[..7]).unwrap_err(),
            WireError::BadVersion(1)
        );
    }

    #[test]
    fn trace_id_round_trips_through_both_directions() {
        let req = sample_query(Precision::F64, 2);
        let Request::Query(q) = decode_request(&encode_request(&req)).unwrap() else {
            panic!("not a query");
        };
        assert_eq!(q.trace_id, 0xfeed_beef_cafe_0042);
        let resp = Response::empty(Status::Busy).with_trace(0xabc);
        assert_eq!(
            decode_response(&encode_response(&resp)).unwrap().trace_id,
            0xabc
        );
    }

    #[test]
    fn raw_decode_matches_owned_decode() {
        for req in [
            sample_query(Precision::F64, 1),
            sample_query(Precision::F32, 5),
            Request::Stats,
            Request::Ping,
        ] {
            let bytes = encode_request(&req);
            let raw = decode_request_raw(&bytes).unwrap();
            assert_eq!(raw.into_owned(), req, "{req:?}");
        }
        // the borrowed view exposes exactly the coordinate bytes
        let bytes = encode_request(&sample_query(Precision::F32, 3));
        let RawRequest::Query(raw) = decode_request_raw(&bytes).unwrap() else {
            panic!("not a query");
        };
        assert_eq!(raw.coord_bytes.len(), 3 * 3 * 4);
        assert_eq!(
            raw.coords().collect::<Vec<_>>(),
            (0..9).map(|i| i as f64 * 0.25).collect::<Vec<_>>()
        );
    }

    #[test]
    fn begin_finish_frame_matches_write_frame_of_encode_response() {
        let resp = Response {
            status: Status::OkDegraded,
            trace_id: 0x1122_3344_5566_7788,
            body: b"neighbor table bytes".to_vec(),
        };
        let mut expect = Vec::new();
        write_frame(&mut expect, &encode_response(&resp)).unwrap();

        let mut out = vec![0xAAu8; 3]; // frames append after earlier content
        let mark = begin_response_frame(&mut out, resp.status, resp.trace_id);
        out.extend_from_slice(&resp.body);
        finish_frame(&mut out, mark);
        assert_eq!(&out[..3], &[0xAA; 3]);
        assert_eq!(&out[3..], &expect[..]);
    }

    fn sample_partial() -> (PartialHeader, Vec<u8>) {
        let header = PartialHeader {
            partition_id: 2,
            epoch: 0xdead_0042,
            contributed: 1,
            total: 3,
            flags: 1,
            replica_id: 1,
            replicas: 2,
        };
        let mut body = Vec::new();
        header.encode_into(&mut body);
        body.extend_from_slice(b"table bytes follow to the end");
        (header, body)
    }

    #[test]
    fn partial_envelope_v1_is_rejected_with_bad_version() {
        // hand-rolled v1 envelope (no replica fields): typed rejection,
        // never misread as a v2 header
        let mut body = Vec::new();
        body.extend_from_slice(PARTIAL_MAGIC);
        body.extend_from_slice(&1u16.to_le_bytes()); // version 1
        body.extend_from_slice(&7u32.to_le_bytes()); // partition_id
        body.extend_from_slice(&42u64.to_le_bytes()); // epoch
        body.extend_from_slice(&1u16.to_le_bytes()); // contributed
        body.extend_from_slice(&8u16.to_le_bytes()); // total
        body.push(0); // flags
        body.extend_from_slice(b"tail");
        assert_eq!(decode_partial(&body).unwrap_err(), WireError::BadVersion(1));
        for cut in 0..body.len() {
            assert!(decode_partial(&body[..cut]).is_err(), "cut at {cut}");
        }
        // a v2 header truncated inside the replica fields is typed too
        let (_, v2) = sample_partial();
        assert_eq!(
            decode_partial(&v2[..PARTIAL_HEADER_LEN - 1]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn partial_envelope_round_trips() {
        let (header, body) = sample_partial();
        assert!(is_partial_body(&body));
        assert!(header.lane_degraded());
        let (back, table) = decode_partial(&body).unwrap();
        assert_eq!(back, header);
        assert_eq!(table, b"table bytes follow to the end");
        // an empty table payload is structurally fine at this layer
        let mut just_header = Vec::new();
        header.encode_into(&mut just_header);
        assert_eq!(decode_partial(&just_header).unwrap().1, b"");
    }

    #[test]
    fn partial_envelope_rejects_malformed_headers() {
        let (_, body) = sample_partial();
        for cut in [0, 3, PARTIAL_HEADER_LEN - 1] {
            assert_eq!(
                decode_partial(&body[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
        let mut bad_magic = body.clone();
        bad_magic[0] = b'X';
        assert!(!is_partial_body(&bad_magic));
        assert_eq!(decode_partial(&bad_magic).unwrap_err(), WireError::BadMagic);
        let mut bad_version = body.clone();
        bad_version[4] = 9;
        assert_eq!(
            decode_partial(&bad_version).unwrap_err(),
            WireError::BadVersion(9)
        );
        // a plain NeighborTable body is not sniffed as a partial
        assert!(!is_partial_body(b"GSNT..."));
        assert!(!is_partial_body(b""));
    }

    fn sample_annex() -> (Vec<AnnexSpan>, Vec<u8>) {
        let spans = vec![
            AnnexSpan {
                name: "decode".to_string(),
                start_ns: -1_200,
                dur_ns: 3_400,
            },
            AnnexSpan {
                name: "coalesce wait".to_string(),
                start_ns: 5_000,
                dur_ns: 250_000,
            },
            AnnexSpan {
                name: "kernel: distances".to_string(),
                start_ns: 260_000,
                dur_ns: 900_000,
            },
        ];
        let mut bytes = Vec::new();
        encode_span_annex(&spans, &mut bytes);
        (spans, bytes)
    }

    #[test]
    fn span_annex_round_trips() {
        let (spans, bytes) = sample_annex();
        assert_eq!(decode_span_annex(&bytes).unwrap(), spans);
        // empty annex is valid
        let mut empty = Vec::new();
        encode_span_annex(&[], &mut empty);
        assert_eq!(decode_span_annex(&empty).unwrap(), Vec::new());
    }

    #[test]
    fn span_annex_caps_are_enforced_on_both_ends() {
        // encode truncates long names (at a UTF-8 boundary) and drops
        // spans past the cap, so its output always decodes
        let many: Vec<AnnexSpan> = (0..MAX_ANNEX_SPANS + 10)
            .map(|i| AnnexSpan {
                name: format!("span-{i}-{}", "é".repeat(40)),
                start_ns: i as i64,
                dur_ns: 1,
            })
            .collect();
        let mut bytes = Vec::new();
        encode_span_annex(&many, &mut bytes);
        let back = decode_span_annex(&bytes).unwrap();
        assert_eq!(back.len(), MAX_ANNEX_SPANS);
        for span in &back {
            assert!(span.name.len() <= MAX_ANNEX_NAME);
        }
        // a hand-built annex declaring too many spans is rejected
        // before allocation
        let mut oversized = Vec::new();
        oversized.extend_from_slice(b"GSTA");
        oversized.extend_from_slice(&1u16.to_le_bytes());
        oversized.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode_span_annex(&oversized).unwrap_err(),
            WireError::Oversized(_)
        ));
    }

    #[test]
    fn span_annex_rejects_malformed_bytes() {
        let (_, bytes) = sample_annex();
        for cut in [0, 3, 7, bytes.len() - 1] {
            assert_eq!(
                decode_span_annex(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            decode_span_annex(&bad_magic).unwrap_err(),
            WireError::BadMagic
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert_eq!(
            decode_span_annex(&bad_version).unwrap_err(),
            WireError::BadVersion(9)
        );
        // non-UTF-8 name bytes decode lossily rather than erroring:
        // the name starts at offset 9 (magic 4 + version 2 + count 2 +
        // name_len 1)
        let mut bad_utf8 = bytes.clone();
        bad_utf8[9] = 0xFF;
        let spans = decode_span_annex(&bad_utf8).unwrap();
        assert!(spans[0].name.contains('\u{FFFD}'));
    }

    proptest::proptest! {
        /// The decoders must be total: arbitrary bytes (including
        /// adversarial headers) produce a typed error, never a panic or
        /// an unbounded allocation.
        #[test]
        fn decode_arbitrary_bytes_never_panics(
            raw in proptest::collection::vec(0usize..256, 0..512)
        ) {
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let _ = decode_request(&bytes);
            let _ = decode_request_raw(&bytes);
            let _ = decode_response(&bytes);
            let _ = is_partial_body(&bytes);
            let _ = decode_partial(&bytes);
            let _ = decode_span_annex(&bytes);
        }

        /// Single-byte corruption of a valid span annex: still total —
        /// the decoder either errors or returns some capped span list,
        /// never panics (same harness as the GSPK envelope fuzz).
        #[test]
        fn decode_corrupted_annex_never_panics(
            (pos, flip) in (0usize..1000, 1usize..256)
        ) {
            let (_, mut bytes) = sample_annex();
            let pos = pos % bytes.len();
            bytes[pos] ^= flip as u8;
            if let Ok(spans) = decode_span_annex(&bytes) {
                assert!(spans.len() <= MAX_ANNEX_SPANS);
            }
        }

        /// Single-byte corruption of a valid partial envelope: still
        /// total, and a corrupted header never silently yields the
        /// original header bit-for-bit unchanged fields plus the magic
        /// intact — decode either errors or returns *some* header.
        #[test]
        fn decode_corrupted_partial_never_panics(
            (pos, flip) in (0usize..1000, 1usize..256)
        ) {
            let (_, mut body) = sample_partial();
            let pos = pos % body.len();
            body[pos] ^= flip as u8;
            let _ = decode_partial(&body);
            let _ = is_partial_body(&body);
        }

        /// Single-byte corruption of a valid frame: still total, and the
        /// raw and owned decoders agree on every outcome.
        #[test]
        fn decode_corrupted_valid_frame_never_panics(
            (m, pos, flip) in (1usize..6, 0usize..1000, 1usize..256)
        ) {
            let mut bytes = encode_request(&sample_query(Precision::F32, m));
            let pos = pos % bytes.len();
            bytes[pos] ^= flip as u8;
            let owned = decode_request(&bytes);
            let raw = decode_request_raw(&bytes).map(RawRequest::into_owned);
            assert_eq!(owned, raw);
            let _ = decode_response(&bytes);
        }
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut wire = Vec::new();
        let a = encode_request(&Request::Ping);
        let b = encode_request(&sample_query(Precision::F32, 3));
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();

        let mut r: &[u8] = &wire;
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b);
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Ping)).unwrap();
        let mut r: &[u8] = &wire[..wire.len() - 2];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // mid-prefix EOF too
        let mut r: &[u8] = &wire[..2];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r: &[u8] = &wire;
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
