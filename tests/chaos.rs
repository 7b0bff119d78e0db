//! Chaos suite: deterministic fault injection against a live server.
//!
//! Run with `cargo test --features faults --test chaos`. Everything here
//! is driven by the [`gsknn_faults`] registry at pinned seeds, so a
//! failure reproduces exactly. The fault registry is process-global;
//! the suite is one test function so phases can't race each other.
//!
//! What must hold under chaos:
//!
//! 1. every request in flight when a worker dies gets a *terminal*
//!    response (`InternalError`, never a hang or a dropped socket),
//! 2. the server keeps serving — panicked workers respawn with fresh
//!    executors, corrupted frames answer typed errors,
//! 3. once the faults clear, answers are bit-identical to brute force
//!    (the index is exact: one tree, leaf ≥ N), i.e. recall is
//!    unchanged by any amount of prior fault traffic,
//! 4. in the scatter-gather tier, killing a backend mid-stream yields a
//!    *typed* `DegradedPartial` (never an error) that is the exact merge
//!    of the surviving partitions, and a restarted backend rejoins and
//!    restores answers bit-identical to a single node,
//! 5. a coalescer forced to flush early runs the same queries in smaller
//!    batches and still answers each one bit-identically to brute force.
#![cfg(feature = "faults")]

use gsknn::core::{BatchScratch, PackedRefs, SPLIT_FLOOR};
use gsknn::router::{Router, RouterConfig};
use gsknn::serve::{Client, Outcome, PartitionCfg, RetryPolicy, ServeIndex, Server, ServerConfig};
use gsknn::{DistanceKind, Gsknn, GsknnConfig, Neighbor, NeighborTable, PointSet};
use gsknn_faults::{FaultPlan, FaultPoint, Mode};
use serde_json::Value;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

const N: usize = 300;
const D: usize = 8;
const K: usize = 8;

fn brute_indices(refs: &PointSet<f64>, q: &[f64], k: usize) -> Vec<u32> {
    let mut cands: Vec<Neighbor<f64>> = (0..refs.len())
        .map(|j| Neighbor::new(DistanceKind::SqL2.eval(q, refs.point(j)), j as u32))
        .collect();
    cands.sort_unstable_by(Neighbor::cmp_dist_idx);
    cands[..k].iter().map(|nb| nb.idx).collect()
}

fn start_server() -> (SocketAddr, thread::JoinHandle<gsknn::serve::ServeReport>) {
    let refs = gsknn::data::uniform(N, D, 1);
    // exact configuration: one tree whose single leaf holds every
    // reference, so a healthy answer is brute force bit-for-bit
    let index = ServeIndex::build(refs, 1, N, 7);
    let server = Server::bind(
        ServerConfig {
            queue_cap: 256,
            max_batch: 32,
            k_max: 16,
            ..ServerConfig::default()
        },
        index,
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    (addr, thread::spawn(move || server.run()))
}

/// Connections in the coalescing burst of phases 0 and 9, and the
/// single-point queries each sends.
const BURST_CLIENTS: usize = 4;
const BURST_QUERIES: usize = 6;

fn counter(stats: &Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("stats JSON missing {key}: {stats:?}"))
}

/// `BURST_CLIENTS` connections each send `BURST_QUERIES` single-point
/// queries, closed loop, and every answer must be the brute-force ids.
/// Returns the mean batch size the server ran them in and the deadline
/// flushes it made, both from its `Stats` op before and after.
fn coalescing_burst(addr: SocketAddr, refs: &PointSet<f64>, pool: &PointSet<f64>) -> (f64, u64) {
    let stats = || -> Value {
        let text = Client::connect(addr)
            .and_then(|mut c| c.stats())
            .expect("stats");
        serde_json::from_str(&text).expect("stats JSON")
    };
    let before = stats();
    thread::scope(|s| {
        for c in 0..BURST_CLIENTS {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for r in 0..BURST_QUERIES {
                    let q = pool.point((c * BURST_QUERIES + r) % pool.len());
                    let out = client.query::<f64>(q, 1, K, 200).unwrap().outcome;
                    let Outcome::Neighbors(t) = out else {
                        panic!("burst client {c} query {r} must succeed, got {out:?}");
                    };
                    let got: Vec<u32> = t.row(0).iter().map(|nb| nb.idx).collect();
                    assert_eq!(got, brute_indices(refs, q, K), "burst client {c} query {r}");
                }
            });
        }
    });
    let after = stats();
    let delta = |key: &str| counter(&after, key) - counter(&before, key);
    (
        delta("queries") as f64 / delta("batches") as f64,
        delta("flush_deadline"),
    )
}

/// The injected panic is catchable *outside* the server too: a direct
/// kernel call dies with a recognizable message and a fresh executor is
/// unaffected — the contract the worker supervisor builds on. Runs as a
/// phase of the single chaos test because the fault registry is global.
fn direct_kernel_fault_has_recognizable_panic() {
    let x = gsknn::data::uniform(64, D, 3);
    let refs: Vec<usize> = (0..64).collect();
    let queries: Vec<usize> = (0..4).collect();
    gsknn_faults::configure(FaultPlan::new(11).with(FaultPoint::HeapSelect, Mode::Nth(1)));
    let got = std::panic::catch_unwind(|| {
        Gsknn::new(GsknnConfig::default()).run(&x, &queries, &refs, 4, DistanceKind::SqL2)
    });
    let err = got.expect_err("armed heap-select fault must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("injected fault: heap-select"),
        "panic must identify its injection point, got: {msg}"
    );
    gsknn_faults::clear();
    let t = Gsknn::new(GsknnConfig::default()).run(&x, &queries, &refs, 4, DistanceKind::SqL2);
    assert_eq!(t.len(), 4, "fresh executor after a fault must work");

    // Every kernel point fires from every driver, also when the batch is
    // all full tiles (m = 64: the interior sweep, no per-tile fringe). On
    // the prepacked source `PackR` fires while the panels are packed, the
    // other points in the call against them. Every driver runs at p = 2;
    // only the data-parallel one's call is wide enough to split.
    let batch: Vec<usize> = (0..64).collect();
    let wide_n = SPLIT_FLOOR.div_ceil(batch.len() * D);
    let wide = gsknn::data::uniform(wide_n, D, 5);
    let wide_refs: Vec<usize> = (0..wide_n).collect();
    for point in [
        FaultPoint::PackR,
        FaultPoint::PackQ,
        FaultPoint::MicroKernel,
        FaultPoint::HeapSelect,
    ] {
        for driver in ["serial", "data-parallel", "prepacked"] {
            gsknn_faults::configure(FaultPlan::new(11).with(point, Mode::Nth(1)));
            let got = std::panic::catch_unwind(|| {
                let mut exec = Gsknn::new(GsknnConfig {
                    p: 2,
                    ..GsknnConfig::default()
                });
                match driver {
                    "serial" => drop(exec.run(&x, &batch, &refs, 4, DistanceKind::SqL2)),
                    "data-parallel" => {
                        drop(exec.run(&wide, &batch, &wide_refs, 4, DistanceKind::SqL2))
                    }
                    _ => {
                        let packed = PackedRefs::pack(&x, refs.clone(), exec.config().params);
                        let mut table = NeighborTable::new(batch.len(), 4);
                        let mut scratch = BatchScratch::new();
                        exec.update_prepacked(
                            &x,
                            &batch,
                            &packed,
                            DistanceKind::SqL2,
                            &mut table,
                            &mut scratch,
                        );
                    }
                }
            });
            assert!(
                got.is_err() && gsknn_faults::fired(point) == 1,
                "{} must fire ({driver})",
                point.name()
            );
            gsknn_faults::clear();
        }
    }
}

#[test]
fn chaos_faults_are_survived_and_recall_is_unchanged() {
    // standalone kernel-level contract first (shares the global registry,
    // so it cannot be its own #[test] without racing this one)
    direct_kernel_fault_has_recognizable_panic();

    let refs = gsknn::data::uniform(N, D, 1);
    let pool = gsknn::data::uniform(64, D, 99);
    let (addr, handle) = start_server();
    let mut client = Client::connect(addr).expect("connect");

    // -- phase 0: healthy baseline ------------------------------------
    for i in 0..8 {
        let q = pool.point(i);
        let Outcome::Neighbors(t) = client.query::<f64>(q, 1, K, 500).unwrap().outcome else {
            panic!("healthy query {i} must succeed");
        };
        let got: Vec<u32> = t.row(0).iter().map(|nb| nb.idx).collect();
        assert_eq!(got, brute_indices(&refs, q, K), "baseline query {i}");
    }
    // ...and from concurrent clients, whose queries coalesce: phase 9
    // runs the same burst with early flushes forced
    let (healthy_batch_m, _) = coalescing_burst(addr, &refs, &pool);
    assert!(
        healthy_batch_m > 1.0,
        "concurrent queries must share batches: mean batch {healthy_batch_m:.2}"
    );

    // -- phase 1: worker killed mid-batch -----------------------------
    // The next batch execution panics (Nth(1) is one-shot). The query
    // riding in that batch must get a terminal InternalError, and the
    // worker must respawn.
    gsknn_faults::configure(FaultPlan::new(0xC4A05).with(FaultPoint::BatchExec, Mode::Nth(1)));
    let out = client
        .query::<f64>(pool.point(10), 1, K, 500)
        .unwrap()
        .outcome;
    let Outcome::Failed(msg) = out else {
        panic!("in-flight request of a killed worker must fail terminally, got {out:?}");
    };
    assert!(msg.contains("panicked"), "unhelpful failure message: {msg}");
    assert_eq!(gsknn_faults::fired(FaultPoint::BatchExec), 1);
    // the respawned worker answers the identical request correctly
    let out = client
        .query::<f64>(pool.point(10), 1, K, 500)
        .unwrap()
        .outcome;
    let Outcome::Neighbors(t) = out else {
        panic!("respawned worker must serve, got {out:?}");
    };
    let got: Vec<u32> = t.row(0).iter().map(|nb| nb.idx).collect();
    assert_eq!(got, brute_indices(&refs, pool.point(10), K));
    gsknn_faults::clear();

    // -- phase 2: kernel fault deep in the six-loop nest ---------------
    // The panic starts in gsknn-core's packing/micro-kernel path and
    // unwinds into the server's supervisor — same terminal answer, same
    // respawn. The index is flat, so its references were packed at build
    // and a batch packs only its queries.
    for (point, label) in [
        (FaultPoint::MicroKernel, "micro-kernel"),
        (FaultPoint::PackQ, "pack-q"),
    ] {
        gsknn_faults::configure(FaultPlan::new(0xFEED).with(point, Mode::Nth(1)));
        let out = client
            .query::<f64>(pool.point(11), 1, K, 500)
            .unwrap()
            .outcome;
        assert!(
            matches!(out, Outcome::Failed(_)),
            "{label}: expected terminal failure, got {out:?}"
        );
        assert_eq!(gsknn_faults::fired(point), 1, "{label} must have fired");
        // retry lands on a healthy (respawned) worker
        let out = client
            .query_with_retry::<f64>(pool.point(11), 1, K, 500, &RetryPolicy::default())
            .unwrap()
            .outcome;
        assert!(
            matches!(out, Outcome::Neighbors(_)),
            "{label}: retry after respawn must succeed, got {out:?}"
        );
        gsknn_faults::clear();
    }

    // -- phase 3: concurrent clients under probabilistic worker kills --
    // Every call must return a terminal outcome; with retries, nearly
    // all converge to answers. Nothing may hang or drop.
    gsknn_faults::configure(
        FaultPlan::new(0xD1CE).with(FaultPoint::BatchExec, Mode::Probability(0.3)),
    );
    let outcomes: Vec<&'static str> = thread::scope(|s| {
        (0..3u64)
            .map(|t| {
                let pool = &pool;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let policy = RetryPolicy {
                        max_attempts: 8,
                        base: Duration::from_millis(10),
                        cap: Duration::from_millis(80),
                        deadline: Duration::from_secs(20),
                        seed: 1000 + t,
                    };
                    let mut out = Vec::new();
                    for r in 0..10usize {
                        let q = pool.point((13 + 3 * r + t as usize) % 64);
                        match client
                            .query_with_retry::<f64>(q, 1, K, 500, &policy)
                            .map(|r| r.outcome)
                        {
                            Ok(Outcome::Neighbors(_)) => out.push("ok"),
                            Ok(Outcome::Failed(_)) => out.push("failed"),
                            Ok(other) => panic!("thread {t} req {r}: unexpected {other:?}"),
                            Err(e) => panic!("thread {t} req {r}: transport error {e}"),
                        }
                    }
                    out
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(
        outcomes.len(),
        30,
        "every request must reach a terminal outcome"
    );
    let answered = outcomes.iter().filter(|&&o| o == "ok").count();
    assert!(
        answered >= 25,
        "retries should absorb most injected kills: {answered}/30 answered"
    );
    assert!(
        gsknn_faults::fired(FaultPoint::BatchExec) >= 1,
        "the probabilistic killer must actually engage"
    );
    gsknn_faults::clear();

    // -- phase 4: corrupted frames ------------------------------------
    // Inbound payloads get a byte flipped before decoding. Pings carry a
    // 7-byte frame whose middle is the version field, so an armed hit is
    // always a decode error — answered as a typed Error, connection kept.
    gsknn_faults::configure(
        FaultPlan::new(0xBADF).with(FaultPoint::FrameDecode, Mode::Probability(0.5)),
    );
    let (mut clean, mut corrupted) = (0, 0);
    for _ in 0..30 {
        match client.ping() {
            Ok(()) => clean += 1,
            Err(_) => corrupted += 1, // typed Error decoded fine client-side
        }
    }
    assert!(clean >= 1, "p = 0.5 over 30 pings must pass some through");
    assert!(corrupted >= 1, "p = 0.5 over 30 pings must corrupt some");
    assert!(gsknn_faults::fired(FaultPoint::FrameDecode) >= 1);
    gsknn_faults::clear();

    // -- phase 5: post-chaos recall is unchanged ----------------------
    // Same connection, no faults armed: every answer must again match
    // brute force exactly, as in phase 0.
    for i in 0..16 {
        let q = pool.point(i);
        let Outcome::Neighbors(t) = client.query::<f64>(q, 1, K, 500).unwrap().outcome else {
            panic!("post-chaos query {i} must succeed");
        };
        let got: Vec<u32> = t.row(0).iter().map(|nb| nb.idx).collect();
        assert_eq!(got, brute_indices(&refs, q, K), "post-chaos query {i}");
    }

    // supervision counters made it into the report
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    assert!(counter(&stats, "worker_panics") >= 3, "{stats:?}");
    assert!(counter(&stats, "worker_respawns") >= 3, "{stats:?}");

    client.shutdown().unwrap();
    let report = handle.join().expect("server must outlive the chaos");
    assert!(report.worker_panics >= 3);
    assert_eq!(report.worker_panics, report.worker_respawns);

    // -- phase 6: shard killed mid-query in a 2-shard server ----------
    shard_kill_leaves_sibling_shards_serving();

    // -- phase 7: backend killed under the scatter-gather router ------
    router_backend_kill_degrades_typed_then_recovers();

    // -- phase 8: replica killed under the replicated router ----------
    replica_kill_is_transparent_until_the_whole_set_dies();

    // -- phase 9: the coalescer flushes every batch early --------------
    premature_flushes_shrink_batches_not_answers(&refs, &pool, healthy_batch_m);
}

/// With `CoalesceFlush` armed, every parked batch flushes the moment the
/// shard checks it, booked as a deadline flush: phase 0's burst, against
/// a server of the same configuration, runs in smaller batches, and
/// every answer is still the brute-force one. Runs as a phase of the
/// single chaos test because the fault registry is global.
fn premature_flushes_shrink_batches_not_answers(
    refs: &PointSet<f64>,
    pool: &PointSet<f64>,
    healthy_batch_m: f64,
) {
    let (addr, handle) = start_server();
    gsknn_faults::configure(FaultPlan::new(0xF1A5).with(FaultPoint::CoalesceFlush, Mode::Always));
    let (batch_m, deadline_flushes) = coalescing_burst(addr, refs, pool);
    assert!(
        gsknn_faults::fired(FaultPoint::CoalesceFlush) >= 1,
        "the forced flush must fire"
    );
    gsknn_faults::clear();
    assert!(
        deadline_flushes >= 1,
        "forced flushes count as deadline flushes"
    );
    assert!(
        batch_m < healthy_batch_m,
        "forced flushes must shrink batches: mean {batch_m:.2} vs {healthy_batch_m:.2} healthy"
    );
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().expect("server drain");
}

/// A batch panic inside one shard of a 2-shard server must stay inside
/// that shard: its in-flight query fails typed, the sibling shard keeps
/// serving, the killed shard rebuilds its workspace, and the respawn is
/// attributed to exactly one shard in both the stats JSON and the
/// Prometheus exposition. Runs as a phase of the single chaos test
/// because the fault registry is global.
fn shard_kill_leaves_sibling_shards_serving() {
    let refs = gsknn::data::uniform(N, D, 1);
    let pool = gsknn::data::uniform(16, D, 77);
    let index = ServeIndex::build(gsknn::data::uniform(N, D, 1), 1, N, 7);
    let server = Server::bind(
        ServerConfig {
            shards: 2,
            queue_cap: 256,
            max_batch: 32,
            k_max: 16,
            ..ServerConfig::default()
        },
        index,
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = thread::spawn(move || server.run());

    // connection order is the shard assignment: the acceptor
    // round-robins, so the first connection lands on shard 0 and the
    // second on shard 1
    let mut on_s0 = Client::connect(addr).expect("connect shard 0");
    let mut on_s1 = Client::connect(addr).expect("connect shard 1");

    for (c, i) in [(&mut on_s0, 0usize), (&mut on_s1, 1)] {
        let Outcome::Neighbors(t) = c.query::<f64>(pool.point(i), 1, K, 500).unwrap().outcome
        else {
            panic!("healthy query on shard {i} must succeed");
        };
        let got: Vec<u32> = t.row(0).iter().map(|nb| nb.idx).collect();
        assert_eq!(got, brute_indices(&refs, pool.point(i), K));
    }

    // kill shard 0's next batch mid-query (phases are sequential, so
    // the one-shot fault deterministically lands on shard 0's flush)
    gsknn_faults::configure(FaultPlan::new(0x54A8D).with(FaultPoint::BatchExec, Mode::Nth(1)));
    let out = on_s0
        .query::<f64>(pool.point(2), 1, K, 500)
        .unwrap()
        .outcome;
    let Outcome::Failed(msg) = out else {
        panic!("query riding the killed shard's batch must fail terminally, got {out:?}");
    };
    assert!(msg.contains("panicked"), "unhelpful failure message: {msg}");
    assert_eq!(gsknn_faults::fired(FaultPoint::BatchExec), 1);
    gsknn_faults::clear();

    // the sibling shard was never stalled by shard 0's death...
    let Outcome::Neighbors(t) = on_s1
        .query::<f64>(pool.point(3), 1, K, 500)
        .unwrap()
        .outcome
    else {
        panic!("sibling shard must keep serving through shard 0's kill");
    };
    let got: Vec<u32> = t.row(0).iter().map(|nb| nb.idx).collect();
    assert_eq!(got, brute_indices(&refs, pool.point(3), K));
    // ...and the killed shard rebuilt its workspace and serves again,
    // answering the exact request that died
    let Outcome::Neighbors(t) = on_s0
        .query::<f64>(pool.point(2), 1, K, 500)
        .unwrap()
        .outcome
    else {
        panic!("killed shard must respawn its workspace and serve");
    };
    let got: Vec<u32> = t.row(0).iter().map(|nb| nb.idx).collect();
    assert_eq!(got, brute_indices(&refs, pool.point(2), K));

    // the respawn is attributed per shard: exactly one shard panicked
    let stats: Value = serde_json::from_str(&on_s0.stats().unwrap()).unwrap();
    let shards = stats
        .get("shards")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("stats JSON missing shards array: {stats:?}"))
        .clone();
    assert_eq!(shards.len(), 2, "{stats:?}");
    let respawns: Vec<u64> = shards
        .iter()
        .map(|s| counter(s, "worker_respawns"))
        .collect();
    let panics: Vec<u64> = shards.iter().map(|s| counter(s, "worker_panics")).collect();
    assert_eq!(respawns.iter().sum::<u64>(), 1, "{stats:?}");
    assert_eq!(panics, respawns, "{stats:?}");
    for s in &shards {
        assert_eq!(
            counter(s, "conns"),
            1,
            "one connection per shard: {stats:?}"
        );
        assert!(
            counter(s, "queries") >= 1,
            "both shards answered: {stats:?}"
        );
    }

    // and in the Prometheus exposition, keyed by shard label
    let text = on_s0.metrics_text().unwrap();
    let respawn_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("gsknn_shard_worker_respawns_total{"))
        .collect();
    assert_eq!(respawn_lines.len(), 2, "{text}");
    assert!(
        respawn_lines.iter().filter(|l| l.ends_with(" 1")).count() == 1,
        "exactly one shard respawned: {respawn_lines:?}"
    );

    on_s0.shutdown().unwrap();
    let report = handle.join().expect("server must outlive the shard kill");
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.worker_panics, report.worker_respawns);
}

/// The replication acceptance contract (ISSUE 9): with R=2, killing any
/// single replica mid-stream must be *invisible* — every answer stays
/// `Outcome::Neighbors`, bitwise-identical to the healthy run, and the
/// degraded counter stays at zero, because the sibling replica covers
/// the slice via send-time failover or the hedge race. Only killing
/// *both* replicas of one partition may produce `DegradedPartial`, and
/// that answer must be the surviving partition's brute force exactly.
fn replica_kill_is_transparent_until_the_whole_set_dies() {
    let full = gsknn::data::uniform(N, D, 1);
    let pool = gsknn::data::uniform(16, D, 31);
    let half = N / 2;
    // 2 partitions x 2 replicas, partition-major
    let (p0r0, h00) = spawn_replicated_partition(&full, 0, half, 0, 0);
    let (p0r1, h01) = spawn_replicated_partition(&full, 0, half, 0, 1);
    let (p1r0, h10) = spawn_replicated_partition(&full, half, N, 1, 0);
    let (p1r1, h11) = spawn_replicated_partition(&full, half, N, 1, 1);

    let router = Router::bind(RouterConfig {
        backends: vec![p0r0.clone(), p0r1.clone(), p1r0.clone(), p1r1.clone()],
        replicas: 2,
        backend_timeout: Duration::from_secs(1),
        probe_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    })
    .expect("bind replicated router");
    let raddr = router.local_addr().expect("router addr").to_string();
    let hr = thread::spawn(move || router.run());
    let mut client = Client::connect(&raddr).expect("connect router");

    // healthy run: record the exact answers (already oracle-checked by
    // phase 7's topology; here the contract is bitwise *stability*)
    let healthy: Vec<_> = (0..8)
        .map(|i| {
            let out = client
                .query::<f64>(pool.point(i), 1, K, 2000)
                .unwrap()
                .outcome;
            let Outcome::Neighbors(t) = out else {
                panic!("healthy replicated query {i} must succeed, got {out:?}");
            };
            assert_eq!(
                t.row(0).iter().map(|nb| nb.idx).collect::<Vec<u32>>(),
                brute_indices(&full, pool.point(i), K),
                "healthy replicated query {i} vs brute force"
            );
            t
        })
        .collect();

    // kill one replica of partition 1 mid-stream: every answer must stay
    // undegraded and bitwise-identical to the healthy run
    Client::connect(&p1r0).unwrap().shutdown().unwrap();
    h10.join().expect("p1r0 drain");
    for round in 0..3 {
        for (i, want) in healthy.iter().enumerate() {
            let out = client
                .query::<f64>(pool.point(i), 1, K, 2000)
                .unwrap()
                .outcome;
            let Outcome::Neighbors(t) = out else {
                panic!("round {round} query {i}: replica kill must be invisible, got {out:?}");
            };
            assert_eq!(
                t.row(0),
                want.row(0),
                "round {round} query {i}: answer drifted after the replica kill"
            );
        }
    }
    let metrics = client.metrics_text().unwrap();
    assert!(
        metrics.contains("gsknn_router_degraded_total 0"),
        "a live sibling must keep answers undegraded:\n{metrics}"
    );
    assert!(
        !metrics.contains("gsknn_router_replica_failovers_total 0"),
        "the kill must register as a replica failover:\n{metrics}"
    );

    // kill the sibling too: the whole replica set for partition 1 is
    // gone, so the typed degraded answer appears and must equal the
    // surviving partition's brute force
    Client::connect(&p1r1).unwrap().shutdown().unwrap();
    h11.join().expect("p1r1 drain");
    let q = pool.point(11);
    let mut degraded_seen = false;
    for _ in 0..20 {
        match client.query::<f64>(q, 1, K, 2000).unwrap().outcome {
            Outcome::DegradedPartial {
                table,
                contributed,
                total,
            } => {
                assert_eq!((contributed, total), (1, 2), "partition counts");
                let want: Vec<u32> = {
                    let mut cands: Vec<Neighbor<f64>> = (0..half)
                        .map(|j| Neighbor::new(DistanceKind::SqL2.eval(q, full.point(j)), j as u32))
                        .collect();
                    cands.sort_unstable_by(Neighbor::cmp_dist_idx);
                    cands[..K].iter().map(|nb| nb.idx).collect()
                };
                let got: Vec<u32> = table.row(0).iter().map(|nb| nb.idx).collect();
                assert_eq!(got, want, "degraded merge vs partition-0 brute force");
                degraded_seen = true;
                break;
            }
            Outcome::Neighbors(_) | Outcome::Failed(_) => thread::sleep(Duration::from_millis(50)),
            other => panic!("dead replica set must degrade typed, got {other:?}"),
        }
    }
    assert!(
        degraded_seen,
        "dead replica set never produced DegradedPartial"
    );

    client.shutdown().unwrap();
    hr.join().expect("router drain");
    Client::connect(&p0r0).unwrap().shutdown().unwrap();
    Client::connect(&p0r1).unwrap().shutdown().unwrap();
    h00.join().expect("p0r0 drain");
    h01.join().expect("p0r1 drain");
}

/// Spawn one replica of an exact partitioned backend holding rows
/// `lo..hi`, with its replica identity stamped into the GSPK envelope.
fn spawn_replicated_partition(
    full: &PointSet<f64>,
    lo: usize,
    hi: usize,
    id: u16,
    replica: u16,
) -> (String, thread::JoinHandle<gsknn::serve::ServeReport>) {
    let slice = PointSet::from_vec(D, hi - lo, full.as_slice()[lo * D..hi * D].to_vec());
    let index = ServeIndex::build(slice, 1, hi - lo, 7);
    let server = Server::bind(
        ServerConfig {
            k_max: 16,
            partition: Some(PartitionCfg {
                id,
                total: 2,
                offset: lo as u32,
                epoch: 1,
                replica,
                replicas: 2,
            }),
            ..ServerConfig::default()
        },
        index,
    )
    .expect("bind replica");
    let bound = server.local_addr().expect("addr").to_string();
    (bound, thread::spawn(move || server.run()))
}

/// Spawn an exact partitioned backend holding rows `lo..hi` of the full
/// set, on `addr` (pass `"127.0.0.1:0"` for an ephemeral port, or a
/// previous bound address to restart in place).
fn spawn_partition(
    full: &PointSet<f64>,
    lo: usize,
    hi: usize,
    id: u16,
    addr: &str,
) -> (String, thread::JoinHandle<gsknn::serve::ServeReport>) {
    let slice = PointSet::from_vec(D, hi - lo, full.as_slice()[lo * D..hi * D].to_vec());
    let index = ServeIndex::build(slice, 1, hi - lo, 7);
    let server = Server::bind(
        ServerConfig {
            addr: addr.to_string(),
            k_max: 16,
            partition: Some(PartitionCfg::solo(id, 2, lo as u32, 1)),
            ..ServerConfig::default()
        },
        index,
    )
    .expect("bind partition");
    let bound = server.local_addr().expect("addr").to_string();
    (bound, thread::spawn(move || server.run()))
}

/// The scatter-gather acceptance contract, under a real backend kill:
/// healthy answers through the router are bit-identical to a single node
/// holding the full set (both precisions); killing one backend produces
/// a typed `DegradedPartial` carrying the contributing-partition count
/// whose merge equals the surviving partition exactly; the health gauge
/// flips; a restarted backend rejoins via the prober and bit-identical
/// answers return. No fault registry involved — the "fault" is a real
/// process-level drain — but it lives in the chaos suite because it is
/// the serving tier's kill-a-backend story.
fn router_backend_kill_degrades_typed_then_recovers() {
    let full = gsknn::data::uniform(N, D, 1);
    let pool = gsknn::data::uniform(16, D, 55);
    let half = N / 2;
    let (b0, h0) = spawn_partition(&full, 0, half, 0, "127.0.0.1:0");
    let (b1, h1) = spawn_partition(&full, half, N, 1, "127.0.0.1:0");

    // single-node reference: same exact index over the full set
    let single = Server::bind(
        ServerConfig {
            k_max: 16,
            ..ServerConfig::default()
        },
        ServeIndex::build(full.clone(), 1, N, 7),
    )
    .expect("bind single");
    let single_addr = single.local_addr().expect("addr");
    let hs = thread::spawn(move || single.run());

    let router = Router::bind(RouterConfig {
        backends: vec![b0.clone(), b1.clone()],
        probe_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let raddr = router.local_addr().expect("router addr").to_string();
    let hr = thread::spawn(move || router.run());

    let mut via_router = Client::connect(&raddr).expect("connect router");
    let mut via_single = Client::connect(single_addr).expect("connect single");

    // healthy: bit-identical to the single node, both precisions
    let pool32 = pool.cast::<f32>();
    for i in 0..6 {
        let q = pool.point(i);
        let (r, s) = (
            via_router.query::<f64>(q, 1, K, 2000).unwrap().outcome,
            via_single.query::<f64>(q, 1, K, 2000).unwrap().outcome,
        );
        let (Outcome::Neighbors(rt), Outcome::Neighbors(st)) = (r, s) else {
            panic!("healthy routed query {i} must answer Ok on both paths");
        };
        assert_eq!(rt.row(0), st.row(0), "routed f64 query {i} vs single node");
        let q32 = pool32.point(i);
        let (r, s) = (
            via_router.query::<f32>(q32, 1, K, 2000).unwrap().outcome,
            via_single.query::<f32>(q32, 1, K, 2000).unwrap().outcome,
        );
        let (Outcome::Neighbors(rt), Outcome::Neighbors(st)) = (r, s) else {
            panic!("healthy routed f32 query {i} must answer Ok on both paths");
        };
        assert_eq!(rt.row(0), st.row(0), "routed f32 query {i} vs single node");
    }

    // kill backend 1: the router must degrade to a typed partial whose
    // merge is exactly partition 0's answer
    Client::connect(&b1).unwrap().shutdown().unwrap();
    h1.join().expect("backend 1 drain");
    let q = pool.point(8);
    let mut degraded_seen = false;
    for _ in 0..20 {
        match via_router.query::<f64>(q, 1, K, 2000).unwrap().outcome {
            Outcome::DegradedPartial {
                table,
                contributed,
                total,
            } => {
                assert_eq!(
                    (contributed, total),
                    (1, 2),
                    "degraded answer must carry the contributing-partition count"
                );
                let want: Vec<u32> = {
                    let mut cands: Vec<Neighbor<f64>> = (0..half)
                        .map(|j| Neighbor::new(DistanceKind::SqL2.eval(q, full.point(j)), j as u32))
                        .collect();
                    cands.sort_unstable_by(Neighbor::cmp_dist_idx);
                    cands[..K].iter().map(|nb| nb.idx).collect()
                };
                let got: Vec<u32> = table.row(0).iter().map(|nb| nb.idx).collect();
                assert_eq!(got, want, "degraded merge vs partition-0 brute force");
                degraded_seen = true;
                break;
            }
            // the kill may race the next query's pooled connection —
            // retry while the router notices
            Outcome::Neighbors(_) | Outcome::Failed(_) => thread::sleep(Duration::from_millis(50)),
            other => panic!("killing a backend must stay typed, got {other:?}"),
        }
    }
    assert!(degraded_seen, "router never produced a DegradedPartial");
    let metrics = via_router.metrics_text().unwrap();
    assert!(
        metrics.contains("gsknn_router_backend_up{backend=\"1\"} 0"),
        "dead backend's gauge must read 0:\n{metrics}"
    );
    assert!(
        metrics.contains("gsknn_router_backend_up{backend=\"0\"} 1"),
        "survivor's gauge must stay 1:\n{metrics}"
    );
    assert!(
        metrics.contains("gsknn_router_degraded_total"),
        "degraded counter family must be exposed:\n{metrics}"
    );

    // restart backend 1 in place: the prober folds it back in and
    // bit-identical answers return
    let (_, h1b) = spawn_partition(&full, half, N, 1, &b1);
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while !via_router
        .metrics_text()
        .unwrap()
        .contains("gsknn_router_backend_up{backend=\"1\"} 1")
    {
        assert!(
            std::time::Instant::now() < deadline,
            "backend 1 never rejoined"
        );
        thread::sleep(Duration::from_millis(50));
    }
    let mut exact_again = false;
    for _ in 0..20 {
        match via_router.query::<f64>(q, 1, K, 2000).unwrap().outcome {
            Outcome::Neighbors(rt) => {
                let Outcome::Neighbors(st) =
                    via_single.query::<f64>(q, 1, K, 2000).unwrap().outcome
                else {
                    panic!("single node must answer");
                };
                assert_eq!(rt.row(0), st.row(0), "post-rejoin router vs single node");
                exact_again = true;
                break;
            }
            Outcome::DegradedPartial { .. } => thread::sleep(Duration::from_millis(50)),
            other => panic!("unexpected outcome after rejoin: {other:?}"),
        }
    }
    assert!(exact_again, "router never returned to exact answers");

    // drain the tier
    via_router.shutdown().unwrap();
    hr.join().expect("router drain");
    Client::connect(&b0).unwrap().shutdown().unwrap();
    Client::connect(&b1).unwrap().shutdown().unwrap();
    h0.join().expect("backend 0 drain");
    h1b.join().expect("backend 1 drain (restart)");
    Client::connect(single_addr).unwrap().shutdown().unwrap();
    hs.join().expect("single drain");
}
