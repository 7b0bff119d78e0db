//! Every per-query routing decision — replica choice, hedge timing,
//! failover, reply classification, down/drop, counters, reply shape — as
//! one state machine that does no IO and reads no clock: the caller
//! stamps each [`Event`] with the time since the query started and
//! carries out the [`Action`]s (`router.rs` over pooled `Client`s,
//! `sim.rs` on a virtual clock). Each partition runs one attempt
//! sequence under one deadline (DESIGN.md §11).

use crate::metrics::RouterMetrics;
use crate::router::RouterConfig;
use gsknn_scalar::GsknnScalar;
use gsknn_serve::wire::{self, decode_partial, PartialHeader, Response, Status};
use knn_select::{encoded_len_of, merge_partial_tables, NeighborTable};
use std::io;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

/// Why an attempt did not contribute to the merge.
#[derive(Debug)]
pub(crate) enum Reject {
    /// Transport failure: the connection is unusable, a fresh one may work.
    Io(String),
    /// Protocol failure — marks the backend down.
    Error(String),
    /// Stale partition map — marks the backend down.
    EpochMismatch(u64),
    /// Typed transient refusal (`Busy`): the backend is healthy.
    Busy,
    /// The backend's own deadline ran out (`Timeout`): healthy, late.
    TimedOut,
    /// The *request* is wrong (`BadRequest`, e.g. a dimension mismatch):
    /// forwarded to the client, never held against backend health.
    Bad(String),
}

/// Check one backend response: must be a `PartialTopK` envelope from the
/// expected epoch, partition universe and *partition slice*, carrying a
/// table of `m` rows. The slice check means a replica wired into the
/// wrong set (serving partition 1 where the router expects partition 0)
/// can never contribute the wrong rows to a merge.
pub(crate) fn validate_partial<T: GsknnScalar>(
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
pub(crate) fn hedge_delay(ewma_ns: u64, budget: Duration) -> Duration {
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

/// One query in this many sends each partition's first attempt to its
/// runner-up replica. A replica's EWMA only moves when it is tried, so
/// without this a passed-over sibling keeps a stale estimate for ever —
/// and a dead one goes unnoticed until the preferred replica fails too.
const PROBE_EVERY: u64 = 8;

/// What happened, stamped with the time since the query started.
pub(crate) enum Event {
    /// The query arrived: every partition launches its first attempt.
    Start,
    /// `backend`'s answer for partition `part`, or the failure writing
    /// the query to it or reading the answer.
    Reply {
        part: usize,
        backend: usize,
        reply: io::Result<Response>,
    },
    /// None of partition `part`'s pending attempts answered by the
    /// `until` of [`Race::next_wait`].
    Quiet { part: usize },
}

/// What the caller must do.
pub(crate) enum Action {
    /// Write the query to `backend` (dialing first if it has no
    /// connection) with what is left of the deadline as its deadline; a
    /// failed write comes back as an [`Event::Reply`].
    Send { part: usize, backend: usize },
    /// Close `backend`'s connection: it failed, or still owes a reply
    /// nobody will read (which would poison its next query).
    Drop { backend: usize },
    /// Close `backend`'s connection and take it out of the fan-out until
    /// the prober sees it answer again.
    Down { backend: usize, why: String },
}

/// One write of the query to one backend.
struct Attempt {
    backend: usize,
    sent: Duration,
    /// When it answered, failed or was abandoned.
    end: Option<Duration>,
    failed: bool,
}

struct Part<T: GsknnScalar> {
    /// Live replicas, preference order.
    replicas: Vec<(usize, u64)>,
    attempts: Vec<Attempt>,
    /// When the newest attempt's hedge window closes, if a hedge may follow.
    hedge_at: Option<Duration>,
    /// A hedge went out, so the answer settles a race.
    raced: bool,
    open: bool,
    /// The latest failure: what the reply reports when nothing answered.
    last: Option<Reject>,
    /// The validated partial, whether its lane ran degraded, its lane.
    got: Option<(NeighborTable<T>, bool, Lane)>,
}

/// The attempt that contributed a partition's partial: its write→reply
/// bracket plus the span fragments its backend shipped inline.
pub(crate) struct Lane {
    pub backend: usize,
    pub sent: Duration,
    pub recv: Duration,
    pub spans: Vec<wire::AnnexSpan>,
}

/// One routed query's decisions.
pub(crate) struct Race<'m, T: GsknnScalar> {
    metrics: &'m RouterMetrics,
    epoch: u64,
    m: usize,
    k: usize,
    /// The deadline every attempt of every partition shares.
    deadline: Duration,
    /// Attempts one partition may make: one with hedging off.
    max_attempts: usize,
    parts: Vec<Part<T>>,
}

impl<'m, T: GsknnScalar> Race<'m, T> {
    /// Race query number `query_no` (`m` rows, `k` neighbors) over
    /// `plan[p]`, partition `p`'s live replicas as `(backend, EWMA reply
    /// ns)`, preferring the lowest EWMA (0, no history, sorts first and
    /// spreads initial load) — or the runner-up, one query in
    /// [`PROBE_EVERY`].
    pub fn new(
        cfg: &RouterConfig,
        metrics: &'m RouterMetrics,
        plan: Vec<Vec<(usize, u64)>>,
        query_no: u64,
        deadline: Duration,
        m: usize,
        k: usize,
    ) -> Self {
        let probe = query_no % PROBE_EVERY == PROBE_EVERY - 1;
        let parts = plan
            .into_iter()
            .map(|mut replicas| {
                replicas.sort_by_key(|&(_, ewma_ns)| ewma_ns);
                if probe && replicas.len() > 1 {
                    replicas.swap(0, 1);
                }
                Part {
                    replicas,
                    attempts: Vec::new(),
                    hedge_at: None,
                    raced: false,
                    open: true,
                    last: None,
                    got: None,
                }
            })
            .collect();
        Race {
            metrics,
            epoch: cfg.epoch,
            m,
            k,
            deadline,
            max_attempts: 1 + usize::from(cfg.hedge) * cfg.replicas.max(1),
            parts,
        }
    }

    /// Backends of partition `part` that owe a reply.
    pub fn pending(&self, part: usize) -> impl Iterator<Item = usize> + '_ {
        let attempts = &self.parts[part].attempts;
        attempts
            .iter()
            .filter(|a| a.end.is_none())
            .map(|a| a.backend)
    }

    /// The partition to wait on next — the first still open — and until
    /// when: its hedge window or the deadline. `None`: the race is over.
    pub fn next_wait(&self) -> Option<(usize, Duration)> {
        let (part, p) = self.parts.iter().enumerate().find(|(_, p)| p.open)?;
        let until = p.hedge_at.map_or(self.deadline, |h| h.min(self.deadline));
        Some((part, until))
    }

    pub fn on_event(&mut self, now: Duration, ev: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match ev {
            Event::Start => {
                for p in 0..self.parts.len() {
                    match self.target(p, now, None) {
                        Some(b) => self.launch(p, b, now, &mut out),
                        None => self.parts[p].open = false,
                    }
                }
            }
            Event::Reply {
                part,
                backend,
                reply,
            } => {
                let attempts = &mut self.parts[part].attempts;
                // else a duplicate, or an answer to an abandoned attempt
                let Some(w) = attempts
                    .iter()
                    .position(|a| a.backend == backend && a.end.is_none())
                else {
                    return out;
                };
                attempts[w].end = Some(now);
                let total = self.parts.len() as u16;
                let verdict = reply.map_err(|e| Reject::Io(e.to_string())).and_then(|r| {
                    validate_partial::<T>(&r, self.epoch, total, self.m, part as u32)
                });
                let (header, table, spans) = match verdict {
                    Ok(good) => good,
                    Err(rej) => {
                        self.fail(part, backend, rej, now, &mut out);
                        return out;
                    }
                };
                let (metrics, p) = (self.metrics, &mut self.parts[part]);
                let sent = p.attempts[w].sent;
                metrics.record_reply(backend, now.saturating_sub(sent));
                if p.raced {
                    let race = if w == 0 {
                        &metrics.replica_hedges_lost
                    } else {
                        &metrics.replica_hedges_won
                    };
                    race.fetch_add(1, Relaxed);
                }
                let failed_sibling = |a: &Attempt| a.failed && a.backend != backend;
                if backend != p.attempts[0].backend || p.attempts.iter().any(failed_sibling) {
                    metrics.replica_failovers.fetch_add(1, Relaxed);
                }
                let lane = Lane {
                    backend,
                    sent,
                    recv: now,
                    spans,
                };
                p.got = Some((table, header.lane_degraded(), lane));
                self.close(part, now, &mut out);
            }
            Event::Quiet { part } => {
                let p = &mut self.parts[part];
                if !p.open {
                    return out;
                }
                if now >= self.deadline {
                    // only attempt 0 had the whole budget; a later one may
                    // answer inside its own, so `close` just drops it
                    if let Some(a) = p.attempts.first_mut().filter(|a| a.end.is_none()) {
                        a.end = Some(now);
                        let why = "no partial within the partition budget".into();
                        out.push(Action::Down {
                            backend: a.backend,
                            why,
                        });
                    }
                    self.close(part, now, &mut out);
                } else if p.hedge_at.is_some_and(|h| now >= h) {
                    p.hedge_at = None;
                    if let Some(b) = self.target(part, now, None) {
                        self.parts[part].raced = true;
                        self.launch(part, b, now, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Where partition `p`'s next attempt goes, if it may make one: an
    /// untried replica (every downed one was tried), else `retry`.
    fn target(&self, p: usize, now: Duration, retry: Option<usize>) -> Option<usize> {
        let part = &self.parts[p];
        if !part.open || now >= self.deadline || part.attempts.len() >= self.max_attempts {
            return None;
        }
        let untried = |b: &usize| part.attempts.iter().all(|a| a.backend != *b);
        part.replicas
            .iter()
            .map(|&(b, _)| b)
            .find(untried)
            .or(retry)
    }

    fn launch(&mut self, p: usize, backend: usize, now: Duration, out: &mut Vec<Action>) {
        let part = &mut self.parts[p];
        if !part.attempts.is_empty() {
            self.metrics.hedges.fetch_add(1, Relaxed);
        }
        part.attempts.push(Attempt {
            backend,
            sent: now,
            end: None,
            failed: false,
        });
        let ewma = part.replicas.iter().find(|r| r.0 == backend);
        let window = hedge_delay(ewma.map_or(0, |r| r.1), self.deadline);
        let hedge = self.target(p, now, None).is_some();
        self.parts[p].hedge_at = hedge.then_some(now + window);
        out.push(Action::Send { part: p, backend });
    }

    /// The attempt at `backend` failed: decide its connection's and its
    /// health's fate, and whether the partition tries again.
    fn fail(&mut self, p: usize, b: usize, rej: Reject, now: Duration, out: &mut Vec<Action>) {
        let attempts = &mut self.parts[p].attempts;
        if let Some(a) = attempts.iter_mut().rev().find(|a| a.backend == b) {
            a.failed = true;
        }
        let in_flight = attempts.iter().any(|a| a.end.is_none());
        let next = match rej {
            // deterministic: every replica would say the same
            Reject::Bad(_) => None,
            _ if in_flight => None,
            Reject::Io(_) => self.target(p, now, Some(b)),
            _ => self.target(p, now, None),
        };
        let why = match &rej {
            Reject::Io(msg) | Reject::Error(msg) => Some(msg.clone()),
            Reject::EpochMismatch(got) => {
                self.metrics.epoch_rejects.fetch_add(1, Relaxed);
                let epoch = self.epoch;
                Some(format!("partial from epoch {got}, router at {epoch}"))
            }
            Reject::Busy | Reject::TimedOut | Reject::Bad(_) => None,
        };
        match why {
            Some(_) if next == Some(b) => out.push(Action::Drop { backend: b }),
            Some(why) => out.push(Action::Down { backend: b, why }),
            None => {}
        }
        let settled = !in_flight || matches!(rej, Reject::Bad(_));
        self.parts[p].last = Some(rej);
        match next {
            Some(to) => self.launch(p, to, now, out),
            None if settled => self.close(p, now, out),
            None => {}
        }
    }

    /// Partition `p` is decided: abandon whatever is still in flight.
    fn close(&mut self, p: usize, now: Duration, out: &mut Vec<Action>) {
        let part = &mut self.parts[p];
        part.open = false;
        for a in part.attempts.iter_mut().filter(|a| a.end.is_none()) {
            a.end = Some(now);
            out.push(Action::Drop { backend: a.backend });
        }
    }

    /// Merge what arrived and pick the reply shape. With it: the lanes
    /// that contributed, one per answered partition in partition order,
    /// and every attempt's `(backend, sent, end)` for its wait span.
    pub fn finish(self, trace_id: u64) -> (Response, Vec<Lane>, Vec<(usize, Duration, Duration)>) {
        let total = self.parts.len() as u16;
        let (mut tables, mut lanes, mut waits, mut fails) = (vec![], vec![], vec![], vec![]);
        let (mut tried, mut lane_degraded) = (0, false);
        for p in self.parts {
            debug_assert!(!p.open, "finish before every partition closed");
            tried += usize::from(!p.attempts.is_empty());
            let span = |a: &Attempt| (a.backend, a.sent, a.end.unwrap_or(a.sent));
            waits.extend(p.attempts.iter().map(span));
            if let Some((table, degraded, lane)) = p.got {
                tables.push(table);
                lanes.push(lane);
                lane_degraded |= degraded;
            } else {
                fails.extend(p.last);
            }
        }
        let contributed = tables.len() as u16;
        let resp = if contributed == 0 {
            let busy = fails.iter().filter(|r| matches!(r, Reject::Busy)).count();
            let bad = fails.iter().find_map(|r| match r {
                Reject::Bad(msg) => Some(msg.clone()),
                _ => None,
            });
            match bad {
                // deterministic rejection — the request, not a backend, is
                // at fault, so forward the backend's own message
                Some(msg) => Response::bad_request(msg),
                None if busy > 0 && busy == tried => Response::empty(Status::Busy),
                None if fails.iter().any(|r| matches!(r, Reject::TimedOut)) => {
                    Response::empty(Status::Timeout)
                }
                None => Response::internal_error("no partition answered"),
            }
        } else {
            let refs: Vec<&NeighborTable<T>> = tables.iter().collect();
            match merge_partial_tables(&refs, self.k) {
                None => Response::internal_error("partition shape mismatch in merge"),
                Some(merged) => {
                    // all partitions answered: the merged table is
                    // bit-identical to a single node's — reply exactly
                    // like one (degraded lane included)
                    let mut status = if lane_degraded {
                        Status::OkDegraded
                    } else {
                        Status::Ok
                    };
                    let mut body = Vec::with_capacity(merged.encoded_len());
                    if contributed < total {
                        self.metrics.degraded.fetch_add(1, Relaxed);
                        status = Status::OkDegraded;
                        PartialHeader {
                            partition_id: u32::MAX,
                            epoch: self.epoch,
                            contributed,
                            total,
                            flags: lane_degraded as u8,
                            // a router-merged answer is not a replica
                            replica_id: 0,
                            replicas: 1,
                        }
                        .encode_into(&mut body);
                    }
                    merged.encode_into(&mut body);
                    Response {
                        status,
                        trace_id,
                        body,
                    }
                }
            }
        };
        (resp.with_trace(trace_id), lanes, waits)
    }
}
