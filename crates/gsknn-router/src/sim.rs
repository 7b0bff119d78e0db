//! Seeded replay of the routing core ([`crate::race::Race`]): a virtual
//! clock, scripted replicas and no sockets or sleeps. The driver loop
//! here carries out the core's actions exactly as the router's does,
//! except that a "wait" jumps the clock to the next scripted arrival.
//!
//! Each seed builds one query over P ∈ {1, 2, 3} partitions × R ∈ {1, 2,
//! 3} replicas whose replicas answer promptly, slowly or past the
//! budget, refuse (`Busy`, `Timeout`, `BadRequest`), answer from a stale
//! epoch or the wrong slice, fail the write, hang up, stay silent, or
//! deliver one answer twice. Every replay checks:
//!
//! 1. each partition that got a valid partial contributes it exactly
//!    once; all of them ⇒ an undegraded reply equal to the merge of one
//!    partial per partition;
//! 2. otherwise `DegradedPartial{c, t}` over exactly the partitions that
//!    answered (or, with none, a typed refusal);
//! 3. no wait is scheduled, and the clock never runs, past the deadline;
//! 4. no global id appears twice in a row;
//! 5. the counters match the attempts: hedges = re-sends, failovers =
//!    partitions answered by another replica than the first tried or
//!    after a sibling failed, and every hedge race that ended in an
//!    answer is won or lost;
//! 6. no replica is marked down while it answers inside its budget.
//!
//! A failure names its seed; `replay(seed)` reproduces it.

use crate::race::{Action, Event, Race};
use crate::{RouterConfig, RouterMetrics};
use gsknn_serve::wire::{decode_partial, PartialHeader, Response, Status};
use knn_select::{Neighbor, NeighborTable};
use std::collections::VecDeque;
use std::io;
use std::time::Duration;

const EPOCH: u64 = 3;
const M: usize = 2;
const K: usize = 4;
const BUDGET: Duration = Duration::from_millis(100);

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn us(&mut self, lo_ms: u64, hi_ms: u64) -> Duration {
        Duration::from_micros(lo_ms * 1000 + self.below((hi_ms - lo_ms) * 1000))
    }
}

/// What one replica does with one attempt, arrival times counted from
/// the write.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Script {
    Good(Duration),
    /// A valid partial that arrives twice.
    Dup(Duration),
    Busy(Duration),
    Timeout(Duration),
    Bad(Duration),
    StaleEpoch(Duration),
    WrongSlice(Duration),
    SendError,
    Eof(Duration),
    Silent,
}

impl Script {
    fn draw(rng: &mut Rng) -> Script {
        match rng.below(100) {
            0..=34 => Script::Good(rng.us(0, 5)),
            35..=49 => Script::Good(rng.us(5, 95)),
            50..=56 => Script::Good(rng.us(101, 300)),
            57..=63 => Script::Dup(rng.us(0, 60)),
            64..=68 => Script::Busy(rng.us(0, 10)),
            69..=73 => Script::Timeout(rng.us(0, 90)),
            74..=75 => Script::Bad(rng.us(0, 5)),
            76..=79 => Script::StaleEpoch(rng.us(0, 5)),
            80..=83 => Script::WrongSlice(rng.us(0, 5)),
            84..=88 => Script::SendError,
            89..=94 => Script::Eof(rng.us(0, 20)),
            _ => Script::Silent,
        }
    }

    /// A valid partial inside the backend budget, counted from the write.
    fn answers_in_budget(self) -> bool {
        matches!(self, Script::Good(t) | Script::Dup(t) if t <= BUDGET)
    }
}

/// One scripted query.
#[derive(Debug)]
struct Scenario {
    parts: usize,
    replicas: usize,
    hedge: bool,
    /// Lead with each partition's runner-up replica.
    probe: bool,
    /// Per backend: its first attempt's script, then every later one's.
    scripts: Vec<[Script; 2]>,
    /// Per backend: down before the query started.
    down: Vec<bool>,
    ewma_ns: Vec<u64>,
}

impl Scenario {
    fn draw(seed: u64) -> Scenario {
        let mut rng = Rng(seed);
        let parts = 1 + rng.below(3) as usize;
        let replicas = 1 + rng.below(3) as usize;
        let n = parts * replicas;
        Scenario {
            parts,
            replicas,
            hedge: rng.below(5) != 0,
            probe: rng.below(4) == 0,
            scripts: (0..n)
                .map(|_| [Script::draw(&mut rng), Script::draw(&mut rng)])
                .collect(),
            down: (0..n).map(|_| rng.below(8) == 0).collect(),
            ewma_ns: (0..n)
                .map(|_| match rng.below(3) {
                    0 => 0,
                    _ => rng.us(0, 40).as_nanos() as u64,
                })
                .collect(),
        }
    }
}

/// Partition `p`'s top-k table (the same on each of its replicas): ids
/// from its own global range, distances that tie across partitions.
fn truth(p: usize) -> NeighborTable<f64> {
    let mut t = NeighborTable::new(M, K);
    for i in 0..M {
        let mut row: Vec<Neighbor<f64>> = (0..K)
            .map(|j| {
                Neighbor::new(
                    ((i + j * (p + 1)) % 5) as f64,
                    (p * 100 + i * 10 + j) as u32,
                )
            })
            .collect();
        row.sort_unstable_by(Neighbor::cmp_dist_idx);
        t.set_row(i, &row);
    }
    t
}

fn partial(s: &Scenario, p: usize, backend: usize, epoch: u64, part_id: u32) -> Response {
    let mut body = Vec::new();
    PartialHeader {
        partition_id: part_id,
        epoch,
        contributed: 1,
        total: s.parts as u16,
        flags: 0,
        replica_id: (backend % s.replicas) as u16,
        replicas: s.replicas as u16,
    }
    .encode_into(&mut body);
    truth(p).encode_into(&mut body);
    Response {
        status: Status::PartialTopK,
        trace_id: 0,
        body,
    }
}

/// The brute-force merge of `parts`' tables.
fn merged(parts: &[usize]) -> Vec<Vec<Neighbor<f64>>> {
    (0..M)
        .map(|i| {
            let mut all: Vec<Neighbor<f64>> = parts
                .iter()
                .flat_map(|&p| truth(p).row(i).to_vec())
                .collect();
            all.sort_unstable_by(Neighbor::cmp_dist_idx);
            all.truncate(K);
            all
        })
        .collect()
}

macro_rules! check {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// What one replay exercised, so the sweep can show its properties
/// were not vacuous.
#[derive(Default)]
struct Seen {
    undegraded: usize,
    degraded: usize,
    refused: usize,
    races: usize,
    failovers: usize,
    downs: usize,
    duplicates: usize,
}

/// Replay one scenario; `Err` names the first property it broke.
fn run(s: &Scenario) -> Result<Seen, String> {
    let n = s.parts * s.replicas;
    let plan: Vec<Vec<(usize, u64)>> = (0..s.parts)
        .map(|p| {
            (p * s.replicas..(p + 1) * s.replicas)
                .filter(|&b| !s.down[b])
                .map(|b| (b, s.ewma_ns[b]))
                .collect()
        })
        .collect();
    let max_attempts = if s.hedge { s.replicas + 1 } else { 1 };
    let cfg = RouterConfig {
        replicas: s.replicas,
        epoch: EPOCH,
        hedge: s.hedge,
        ..RouterConfig::default()
    };
    let metrics = RouterMetrics::new(n, s.replicas);
    // query number 7 is a probing one
    let query_no = if s.probe { 7 } else { 0 };
    let mut race = Race::<f64>::new(&cfg, &metrics, plan, query_no, BUDGET, M, K);

    let mut now = Duration::ZERO;
    let mut uses = vec![0usize; n];
    let mut script = vec![Script::Silent; n];
    // per backend: when its in-flight answer arrives, and what it is
    let mut inflight: Vec<Option<(Duration, Script)>> = vec![None; n];
    let mut sends: Vec<Vec<usize>> = vec![Vec::new(); s.parts];
    let mut raced = vec![false; s.parts];
    // per partition: backends whose attempt failed
    let mut failed: Vec<Vec<usize>> = vec![Vec::new(); s.parts];
    let mut events = VecDeque::from([Event::Start]);
    let mut seen = Seen::default();
    loop {
        while let Some(ev) = events.pop_front() {
            for action in race.on_event(now, ev) {
                match action {
                    Action::Send { part, backend } => {
                        check!(now < BUDGET, "send at {now:?}, past the deadline");
                        if race.pending(part).any(|b| b != backend) {
                            raced[part] = true;
                        }
                        sends[part].push(backend);
                        let sc = s.scripts[backend][uses[backend].min(1)];
                        uses[backend] += 1;
                        script[backend] = sc;
                        match sc {
                            Script::SendError => {
                                failed[part].push(backend);
                                events.push_back(Event::Reply {
                                    part,
                                    backend,
                                    reply: Err(io::Error::from(io::ErrorKind::BrokenPipe)),
                                });
                            }
                            Script::Silent => {}
                            Script::Good(t)
                            | Script::Dup(t)
                            | Script::Busy(t)
                            | Script::Timeout(t)
                            | Script::Bad(t)
                            | Script::StaleEpoch(t)
                            | Script::WrongSlice(t)
                            | Script::Eof(t) => inflight[backend] = Some((now + t, sc)),
                        }
                    }
                    Action::Drop { backend } => inflight[backend] = None,
                    Action::Down { backend, why } => {
                        check!(
                            !script[backend].answers_in_budget(),
                            "backend {backend} marked down ({why}) while it answers in budget \
                             ({:?})",
                            script[backend]
                        );
                        inflight[backend] = None;
                        seen.downs += 1;
                    }
                }
            }
        }
        let Some((part, until)) = race.next_wait() else {
            break;
        };
        check!(until <= BUDGET, "wait for partition {part} until {until:?}");
        let horizon = until.max(now);
        let next = race
            .pending(part)
            .filter_map(|b| inflight[b].map(|(t, sc)| (t, b, sc)))
            .filter(|&(t, ..)| t <= horizon)
            .min_by_key(|&(t, b, _)| (t, b));
        let Some((t, backend, sc)) = next else {
            now = horizon;
            events.push_back(Event::Quiet { part });
            continue;
        };
        now = now.max(t);
        inflight[backend] = None;
        if !matches!(sc, Script::Good(_) | Script::Dup(_)) {
            failed[part].push(backend);
        }
        let reply = match sc {
            Script::Good(_) | Script::Dup(_) => Ok(partial(s, part, backend, EPOCH, part as u32)),
            Script::Busy(_) => Ok(Response::empty(Status::Busy)),
            Script::Timeout(_) => Ok(Response::empty(Status::Timeout)),
            Script::Bad(_) => Ok(Response::bad_request("dimension mismatch")),
            Script::StaleEpoch(_) => Ok(partial(s, part, backend, EPOCH + 1, part as u32)),
            Script::WrongSlice(_) => Ok(partial(s, part, backend, EPOCH, part as u32 + 1)),
            Script::Eof(_) => Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
            Script::SendError | Script::Silent => unreachable!("never in flight"),
        };
        if let (Script::Dup(_), Ok(r)) = (sc, &reply) {
            seen.duplicates += 1;
            events.push_back(Event::Reply {
                part,
                backend,
                reply: Ok(r.clone()),
            });
        }
        events.push_back(Event::Reply {
            part,
            backend,
            reply,
        });
    }
    check!(now <= BUDGET, "clock ran to {now:?}, past the deadline");

    let (resp, lanes, _) = race.finish(7);
    let mut answered: Vec<Option<usize>> = vec![None; s.parts];
    for l in &lanes {
        let part = l.backend / s.replicas;
        check!(
            answered[part].replace(l.backend).is_none(),
            "partition {part} answered twice"
        );
    }
    let got: Vec<usize> = (0..s.parts).filter(|&p| answered[p].is_some()).collect();
    let counter = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let (hedges, failovers_seen) = (
        counter(&metrics.hedges),
        counter(&metrics.replica_failovers),
    );
    let (won, lost) = (
        counter(&metrics.replica_hedges_won),
        counter(&metrics.replica_hedges_lost),
    );
    let degraded = counter(&metrics.degraded);

    // 5. counters
    let tried = sends.iter().filter(|v| !v.is_empty()).count() as u64;
    let total_sends: u64 = sends.iter().map(|v| v.len() as u64).sum();
    check!(
        sends.iter().all(|v| v.len() <= max_attempts),
        "more than {max_attempts} attempts: {sends:?}"
    );
    check!(
        hedges == total_sends - tried,
        "hedges {hedges} for sends {sends:?}"
    );
    let failovers = (0..s.parts)
        .filter(|&p| {
            answered[p].is_some_and(|b| b != sends[p][0] || failed[p].iter().any(|&f| f != b))
        })
        .count() as u64;
    check!(
        failovers_seen == failovers,
        "failovers {failovers_seen} != {failovers} (sends {sends:?}, answered {answered:?})"
    );
    let races = (0..s.parts)
        .filter(|&p| raced[p] && answered[p].is_some())
        .count() as u64;
    check!(
        won + lost == races,
        "won {won} + lost {lost} != {races} settled races"
    );
    check!(
        lanes.len() == got.len(),
        "{} lanes for answered {got:?}",
        lanes.len()
    );

    seen.races = races as usize;
    seen.failovers = failovers as usize;

    // 1, 2, 4. reply shape and table
    let table = match resp.status {
        Status::Ok => {
            check!(
                got.len() == s.parts,
                "undegraded reply with {got:?} answered"
            );
            check!(degraded == 0, "undegraded reply counted degraded");
            seen.undegraded += 1;
            NeighborTable::<f64>::from_bytes(&resp.body).map_err(|e| e.to_string())?
        }
        Status::OkDegraded => {
            let (h, bytes) = decode_partial(&resp.body).map_err(|e| e.to_string())?;
            check!(
                (h.contributed as usize, h.total as usize) == (got.len(), s.parts)
                    && !got.is_empty()
                    && got.len() < s.parts,
                "DegradedPartial{{{}, {}}} for answered {got:?}",
                h.contributed,
                h.total
            );
            check!(degraded == 1, "degraded reply not counted");
            seen.degraded += 1;
            NeighborTable::<f64>::from_bytes(bytes).map_err(|e| e.to_string())?
        }
        other => {
            check!(got.is_empty(), "{other:?} although {got:?} answered");
            seen.refused += 1;
            return Ok(seen);
        }
    };
    let want = merged(&got);
    for (i, w) in want.iter().enumerate() {
        let row = table.row(i);
        check!(row == &w[..], "row {i}: {row:?} != merge {w:?}");
        let mut ids: Vec<u32> = row.iter().map(|nb| nb.idx).collect();
        ids.sort_unstable();
        ids.dedup();
        check!(
            ids.len() == row.len(),
            "row {i} repeats a global id: {row:?}"
        );
    }
    Ok(seen)
}

fn replay(seed: u64) -> Result<Seen, String> {
    let s = Scenario::draw(seed);
    run(&s).map_err(|e| format!("seed {seed}: {e}\n{s:?}"))
}

#[test]
fn seeded_queries_keep_every_property() {
    let mut total = Seen::default();
    let mut failures = Vec::new();
    for seed in 0..3000 {
        match replay(seed) {
            Ok(s) => {
                total.undegraded += s.undegraded;
                total.degraded += s.degraded;
                total.refused += s.refused;
                total.races += s.races;
                total.failovers += s.failovers;
                total.downs += s.downs;
                total.duplicates += s.duplicates;
            }
            Err(e) => failures.push(e),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 3000 seeds failed; first:\n{}",
        failures.len(),
        failures[0]
    );
    // every property had real cases to hold on
    for (what, n) in [
        ("undegraded replies", total.undegraded),
        ("degraded replies", total.degraded),
        ("refusals", total.refused),
        ("settled hedge races", total.races),
        ("failovers", total.failovers),
        ("replicas marked down", total.downs),
        ("duplicated answers", total.duplicates),
    ] {
        assert!(n >= 200, "only {n} {what} in 3000 seeds");
    }
}

/// The replicated-router flake's mechanism, as this sweep first found
/// it (then seed 80): partition 0's preferred replica answers from a
/// stale epoch, the next one is slow past the budget, and the hedge to
/// the third goes out 50 ms in — a replica answering in 65 ms, inside
/// its own budget but after the partition deadline. Marking every
/// silent attempt down at the deadline took that healthy replica out of
/// the fan-out.
#[test]
fn late_hedge_target_is_dropped_not_marked_down() {
    let ms = |us: u64| Duration::from_micros(us);
    let s = Scenario {
        parts: 1,
        replicas: 3,
        hedge: true,
        probe: false,
        scripts: vec![
            [Script::Good(ms(64_859)), Script::Timeout(ms(5_204))],
            [Script::Good(ms(247_627)), Script::Good(ms(51))],
            [Script::StaleEpoch(ms(260)), Script::Busy(ms(1_357))],
        ],
        down: vec![false; 3],
        ewma_ns: vec![39_280_000, 38_213_000, 2_311_000],
    };
    let seen = run(&s).unwrap_or_else(|e| panic!("{e}"));
    // only the stale-epoch replica goes down; the reply is a refusal
    assert_eq!((seen.downs, seen.refused), (1, 1));
}

#[test]
fn killed_primary_fails_over_to_its_sibling() {
    for dead in [Script::SendError, Script::Eof(Duration::from_millis(1))] {
        let s = Scenario {
            parts: 2,
            replicas: 2,
            hedge: true,
            probe: false,
            scripts: vec![
                [Script::Good(Duration::from_millis(2)); 2],
                [Script::Good(Duration::from_millis(2)); 2],
                [dead; 2],
                [Script::Good(Duration::from_millis(3)); 2],
            ],
            down: vec![false; 4],
            ewma_ns: vec![1_000_000, 2_000_000, 1_000_000, 2_000_000],
        };
        let seen = run(&s).unwrap_or_else(|e| panic!("{dead:?}: {e}"));
        assert_eq!(
            (seen.undegraded, seen.failovers, seen.downs),
            (1, 1, 1),
            "{dead:?}"
        );
    }
}
