//! End-to-end scatter-gather contract, in-process: two partitioned
//! backends behind a router must answer **bit-identically** to one node
//! holding the full reference set (and to the brute-force oracle) while
//! healthy; killing a backend must produce a *typed* degraded answer
//! that is the exact merge of the survivors; a restarted backend must
//! rejoin via the prober and restore exact answers.
//!
//! Servers are built exact (one tree, leaf ≥ N). Router-vs-single-node
//! comparisons are bitwise — both sides run the same fused kernel.
//! Oracle comparisons are id-exact with a distance tolerance, because a
//! naive `dist_sq_l2` loop differs from the kernel by final-ULP
//! rounding.

use dataset::{uniform, DistanceKind, PointSet};
use gsknn_core::GsknnScalar;
use gsknn_router::{Router, RouterConfig};
use gsknn_serve::{Client, Outcome, PartitionCfg, ServeIndex, Server, ServerConfig};
use knn_select::{Neighbor, NeighborTable};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const N: usize = 400;
const D: usize = 8;
const K: usize = 7;
const M: usize = 3;
const EPOCH: u64 = 1;

fn slice_rows(x: &PointSet, lo: usize, hi: usize) -> PointSet {
    PointSet::from_vec(D, hi - lo, x.as_slice()[lo * D..hi * D].to_vec())
}

/// Brute-force oracle over `rows` of the full set, ids offset to global.
fn oracle_row<T: GsknnScalar>(
    refs: &PointSet<T>,
    rows: std::ops::Range<usize>,
    q: &[T],
    k: usize,
) -> Vec<Neighbor<T>> {
    let mut cands: Vec<Neighbor<T>> = rows
        .map(|j| Neighbor::new(DistanceKind::SqL2.eval(q, refs.point(j)), j as u32))
        .collect();
    cands.sort_unstable_by(Neighbor::cmp_dist_idx);
    cands.truncate(k);
    cands
}

/// Compare against the naive oracle by neighbor *ids*: the fused kernel
/// and a plain `dist_sq_l2` loop differ in the last ULPs of a distance,
/// so distances are checked loosely while the id sequence must match
/// exactly (the repo-wide `--min-recall 1.0` convention).
fn assert_rows_match_oracle<T: GsknnScalar>(
    got: &NeighborTable<T>,
    want: &[Vec<Neighbor<T>>],
    ctx: &str,
) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (i, w) in want.iter().enumerate() {
        let got_ids: Vec<u32> = got.row(i)[..w.len()].iter().map(|n| n.idx).collect();
        let want_ids: Vec<u32> = w.iter().map(|n| n.idx).collect();
        assert_eq!(got_ids, want_ids, "{ctx}: row {i} ids");
        for (g, w) in got.row(i).iter().zip(w) {
            let (g, w) = (g.dist.to_f64(), w.dist.to_f64());
            assert!(
                (g - w).abs() <= 1e-6 * w.max(1.0),
                "{ctx}: row {i} distance {g} vs oracle {w}"
            );
        }
    }
}

/// Spawn an exact (single-leaf) server; `partition` turns on GSPK
/// replies. Returns the bound address and the drain handle.
fn spawn_server(
    addr: &str,
    refs: PointSet,
    partition: Option<PartitionCfg>,
) -> (String, JoinHandle<()>) {
    let n = refs.len();
    let cfg = ServerConfig {
        addr: addr.to_string(),
        partition,
        ..ServerConfig::default()
    };
    let index = ServeIndex::build(refs, 1, n, 7);
    let server = Server::bind(cfg, index).expect("bind backend");
    let bound = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        server.run();
    });
    (bound, handle)
}

fn shutdown(addr: &str) {
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
}

fn router_metrics(addr: &str) -> String {
    Client::connect(addr)
        .expect("connect router")
        .metrics_text()
        .expect("metrics")
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn router_is_bit_identical_then_degrades_then_recovers() {
    let full = uniform(N, D, 1);
    let half = N / 2;
    let queries = uniform(M, D, 99);
    let coords64: Vec<f64> = (0..M).flat_map(|i| queries.point(i).to_vec()).collect();

    // two partitioned backends + one single-node reference server
    let (b0, h0) = spawn_server(
        "127.0.0.1:0",
        slice_rows(&full, 0, half),
        Some(PartitionCfg::solo(0, 2, 0, EPOCH)),
    );
    let (b1, h1) = spawn_server(
        "127.0.0.1:0",
        slice_rows(&full, half, N),
        Some(PartitionCfg::solo(1, 2, half as u32, EPOCH)),
    );
    let (single, hs) = spawn_server("127.0.0.1:0", full.clone(), None);

    let router = Router::bind(RouterConfig {
        backends: vec![b0.clone(), b1.clone()],
        epoch: EPOCH,
        probe_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let raddr = router.local_addr().expect("router addr").to_string();
    let hr = std::thread::spawn(move || router.run());

    let mut client = Client::connect(&raddr).expect("connect router");
    let mut single_client = Client::connect(&single).expect("connect single");

    // Phase 1 — healthy: router == single node == oracle, bitwise, both
    // precisions.
    let want64: Vec<_> = (0..M)
        .map(|i| oracle_row::<f64>(&full, 0..N, queries.point(i), K))
        .collect();
    let reply = client
        .query::<f64>(&coords64, M, K, 2000)
        .expect("router query");
    let routed = match reply.outcome {
        Outcome::Neighbors(t) => t,
        other => panic!("healthy router answered {other:?}"),
    };
    assert_rows_match_oracle(&routed, &want64, "router vs oracle (f64)");
    let single_reply = single_client
        .query::<f64>(&coords64, M, K, 2000)
        .expect("single query");
    match single_reply.outcome {
        Outcome::Neighbors(t) => {
            for i in 0..M {
                assert_eq!(routed.row(i), t.row(i), "router vs single node, row {i}");
            }
        }
        other => panic!("single node answered {other:?}"),
    }

    let full32 = full.cast::<f32>();
    let queries32 = queries.cast::<f32>();
    let coords32: Vec<f32> = (0..M).flat_map(|i| queries32.point(i).to_vec()).collect();
    let want32: Vec<_> = (0..M)
        .map(|i| oracle_row::<f32>(&full32, 0..N, queries32.point(i), K))
        .collect();
    match client
        .query::<f32>(&coords32, M, K, 2000)
        .expect("router f32 query")
        .outcome
    {
        Outcome::Neighbors(t) => assert_rows_match_oracle(&t, &want32, "router vs oracle (f32)"),
        other => panic!("healthy router answered {other:?} (f32)"),
    }

    // Phase 2 — kill backend 1 mid-flight: the router must keep
    // answering with a typed partial (exact merge of partition 0) and
    // flip the health gauge.
    shutdown(&b1);
    h1.join().expect("backend 1 drain");
    let want_part0: Vec<_> = (0..M)
        .map(|i| oracle_row::<f64>(&full, 0..half, queries.point(i), K))
        .collect();
    let mut degraded_seen = false;
    for _ in 0..20 {
        let reply = client
            .query::<f64>(&coords64, M, K, 2000)
            .expect("degraded query");
        match reply.outcome {
            Outcome::DegradedPartial {
                table,
                contributed,
                total,
            } => {
                assert_eq!((contributed, total), (1, 2), "partition counts");
                assert_rows_match_oracle(
                    &table,
                    &want_part0,
                    "degraded merge vs partition-0 oracle",
                );
                degraded_seen = true;
                break;
            }
            // the first query after the kill may still ride the old
            // connection's buffered state — retry while it settles
            Outcome::Neighbors(_) | Outcome::Failed(_) => {
                std::thread::sleep(Duration::from_millis(50))
            }
            other => panic!("unexpected outcome while degraded: {other:?}"),
        }
    }
    assert!(degraded_seen, "router never produced a DegradedPartial");
    let metrics = router_metrics(&raddr);
    assert!(
        metrics.contains("gsknn_router_backend_up{backend=\"1\"} 0"),
        "health gauge for the dead backend should read 0:\n{metrics}"
    );
    assert!(
        metrics.contains("gsknn_router_backend_up{backend=\"0\"} 1"),
        "surviving backend should stay up:\n{metrics}"
    );

    // Phase 3 — restart backend 1 on the same address: the prober must
    // fold it back in and exact answers must return.
    let (_b1_again, h1b) = spawn_server(
        &b1,
        slice_rows(&full, half, N),
        Some(PartitionCfg::solo(1, 2, half as u32, EPOCH)),
    );
    wait_for(
        || router_metrics(&raddr).contains("gsknn_router_backend_up{backend=\"1\"} 1"),
        "backend 1 to rejoin",
    );
    let mut exact_again = false;
    for _ in 0..20 {
        match client
            .query::<f64>(&coords64, M, K, 2000)
            .expect("recovered query")
            .outcome
        {
            Outcome::Neighbors(t) => {
                assert_rows_match_oracle(&t, &want64, "post-recovery router vs oracle");
                exact_again = true;
                break;
            }
            Outcome::DegradedPartial { .. } => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("unexpected outcome after rejoin: {other:?}"),
        }
    }
    assert!(exact_again, "router never returned to exact answers");
    let metrics = router_metrics(&raddr);
    assert!(
        metrics.contains("gsknn_router_rejoins_total 1"),
        "rejoin counter:\n{metrics}"
    );

    // drain everything
    Client::connect(&raddr).unwrap().shutdown().unwrap();
    hr.join().expect("router drain");
    shutdown(&b0);
    shutdown(&b1);
    h0.join().expect("backend 0 drain");
    h1b.join().expect("backend 1 drain (restart)");
    shutdown(&single);
    hs.join().expect("single drain");
}

#[test]
fn router_rejects_stale_epoch_partials() {
    let full = uniform(120, D, 3);
    let (b0, h0) = spawn_server(
        "127.0.0.1:0",
        full.clone(),
        Some(PartitionCfg::solo(0, 1, 0, 99)), // epoch stale relative to the router's map
    );
    let router = Router::bind(RouterConfig {
        backends: vec![b0.clone()],
        epoch: EPOCH,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let raddr = router.local_addr().expect("router addr").to_string();
    let hr = std::thread::spawn(move || router.run());

    let mut client = Client::connect(&raddr).expect("connect router");
    let q = vec![0.25f64; D];
    match client.query::<f64>(&q, 1, 4, 2000).expect("query").outcome {
        Outcome::Failed(msg) => {
            assert!(msg.contains("no partition answered"), "message: {msg}")
        }
        other => panic!("stale-epoch fan-out answered {other:?}"),
    }
    let metrics = router_metrics(&raddr);
    assert!(
        metrics.contains("gsknn_router_epoch_rejects_total 1"),
        "epoch reject counter:\n{metrics}"
    );

    Client::connect(&raddr).unwrap().shutdown().unwrap();
    hr.join().expect("router drain");
    shutdown(&b0);
    h0.join().expect("backend drain");
}

/// Spawn one replica of a partition slice: same rows, same global
/// numbering, distinct replica identity in the GSPK envelope.
fn spawn_replica(
    full: &PointSet,
    lo: usize,
    hi: usize,
    part: u16,
    replica: u16,
    replicas: u16,
) -> (String, JoinHandle<()>) {
    spawn_server(
        "127.0.0.1:0",
        slice_rows(full, lo, hi),
        Some(PartitionCfg {
            id: part,
            total: 2,
            offset: lo as u32,
            epoch: EPOCH,
            replica,
            replicas,
        }),
    )
}

fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
}

#[test]
fn replicated_router_survives_replica_loss_without_degrading() {
    let full = uniform(N, D, 2);
    let half = N / 2;
    let queries = uniform(M, D, 42);
    let coords: Vec<f64> = (0..M).flat_map(|i| queries.point(i).to_vec()).collect();

    // 2 partitions x 2 replicas, backends listed partition-major
    let (p0r0, h00) = spawn_replica(&full, 0, half, 0, 0, 2);
    let (p0r1, h01) = spawn_replica(&full, 0, half, 0, 1, 2);
    let (p1r0, h10) = spawn_replica(&full, half, N, 1, 0, 2);
    let (p1r1, h11) = spawn_replica(&full, half, N, 1, 1, 2);

    let router = Router::bind(RouterConfig {
        backends: vec![p0r0.clone(), p0r1.clone(), p1r0.clone(), p1r1.clone()],
        replicas: 2,
        epoch: EPOCH,
        backend_timeout: Duration::from_secs(1),
        probe_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let raddr = router.local_addr().expect("router addr").to_string();
    let hr = std::thread::spawn(move || router.run());
    let mut client = Client::connect(&raddr).expect("connect router");

    // Phase 1 — healthy: exact answers, matching the oracle.
    let want: Vec<_> = (0..M)
        .map(|i| oracle_row::<f64>(&full, 0..N, queries.point(i), K))
        .collect();
    let healthy = match client
        .query::<f64>(&coords, M, K, 2000)
        .expect("healthy query")
        .outcome
    {
        Outcome::Neighbors(t) => t,
        other => panic!("healthy replicated router answered {other:?}"),
    };
    assert_rows_match_oracle(&healthy, &want, "replicated router vs oracle");

    // Phase 2 — kill one replica of partition 1. Every subsequent query
    // must stay *undegraded* and bitwise-identical to the healthy run:
    // the sibling replica covers the slice.
    shutdown(&p1r0);
    h10.join().expect("p1r0 drain");
    for round in 0..10 {
        match client
            .query::<f64>(&coords, M, K, 2000)
            .expect("query after replica loss")
            .outcome
        {
            Outcome::Neighbors(t) => {
                for i in 0..M {
                    assert_eq!(
                        t.row(i),
                        healthy.row(i),
                        "round {round}: row {i} differs from the healthy run"
                    );
                }
            }
            other => panic!("round {round}: replica loss degraded the answer: {other:?}"),
        }
    }
    let metrics = router_metrics(&raddr);
    assert_eq!(
        metric_value(&metrics, "gsknn_router_degraded_total"),
        0,
        "no degraded answers with a live sibling:\n{metrics}"
    );
    assert!(
        metric_value(&metrics, "gsknn_router_replica_failovers_total") >= 1,
        "the dead replica must have been failed over:\n{metrics}"
    );
    wait_for(
        || {
            router_metrics(&raddr)
                .contains("gsknn_router_replica_up{partition=\"1\",replica=\"0\"} 0")
        },
        "replica gauge to flip down",
    );

    // Phase 3 — kill the second replica of partition 1: the whole
    // replica set is down, so the router must now produce the *typed*
    // degraded answer, exactly the surviving partition's oracle.
    shutdown(&p1r1);
    h11.join().expect("p1r1 drain");
    let want_part0: Vec<_> = (0..M)
        .map(|i| oracle_row::<f64>(&full, 0..half, queries.point(i), K))
        .collect();
    let mut degraded_seen = false;
    for _ in 0..20 {
        match client
            .query::<f64>(&coords, M, K, 2000)
            .expect("query with a dead replica set")
            .outcome
        {
            Outcome::DegradedPartial {
                table,
                contributed,
                total,
            } => {
                assert_eq!((contributed, total), (1, 2), "partition counts");
                assert_rows_match_oracle(
                    &table,
                    &want_part0,
                    "degraded merge vs partition-0 oracle",
                );
                degraded_seen = true;
                break;
            }
            Outcome::Neighbors(_) | Outcome::Failed(_) => {
                std::thread::sleep(Duration::from_millis(50))
            }
            other => panic!("unexpected outcome with the replica set down: {other:?}"),
        }
    }
    assert!(
        degraded_seen,
        "dead replica set never produced DegradedPartial"
    );

    Client::connect(&raddr).unwrap().shutdown().unwrap();
    hr.join().expect("router drain");
    shutdown(&p0r0);
    shutdown(&p0r1);
    h00.join().expect("p0r0 drain");
    h01.join().expect("p0r1 drain");
}

#[test]
fn partitioned_backend_answers_with_global_ids() {
    // a lone partitioned backend queried directly: Outcome::Partial with
    // ids offset into the global numbering
    let full = uniform(200, D, 5);
    let lo = 120;
    let (b, h) = spawn_server(
        "127.0.0.1:0",
        slice_rows(&full, lo, 200),
        Some(PartitionCfg::solo(1, 2, lo as u32, EPOCH)),
    );
    let mut client = Client::connect(&b).expect("connect backend");
    let queries = uniform(1, D, 17);
    let q = queries.point(0);
    match client.query::<f64>(q, 1, 5, 2000).expect("query").outcome {
        Outcome::Partial { header, table } => {
            assert_eq!(header.partition_id, 1);
            assert_eq!(header.epoch, EPOCH);
            assert_eq!((header.contributed, header.total), (1, 2));
            let want = oracle_row::<f64>(&full, lo..200, q, 5);
            assert_rows_match_oracle(&table, &[want], "lone partition vs oracle");
        }
        other => panic!("partitioned backend answered {other:?}"),
    }
    shutdown(&b);
    h.join().expect("drain");
}

/// A wedged-but-alive backend: accepts connections and drains whatever
/// it is sent, never answering, until `stop` is set.
fn spawn_black_hole(stop: Arc<AtomicBool>) -> (String, JoinHandle<()>) {
    use std::io::Read;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind black hole");
    let addr = listener.local_addr().expect("black hole addr").to_string();
    listener.set_nonblocking(true).expect("nonblocking accept");
    let handle = std::thread::spawn(move || {
        let mut conns = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            if let Ok((s, _)) = listener.accept() {
                s.set_nonblocking(true).ok();
                conns.push(s);
            }
            let mut buf = [0u8; 4096];
            for c in &mut conns {
                let _ = c.read(&mut buf);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    (addr, handle)
}

#[test]
fn wedged_partition_costs_one_deadline_not_two() {
    const DEADLINE_MS: u32 = 100;
    let full = uniform(N, D, 4);
    let half = N / 2;
    // partition 0 is the hole, so its wait starts with the fan-out
    let stop = Arc::new(AtomicBool::new(false));
    let (hole, hh) = spawn_black_hole(stop.clone());
    let (b1, h1) = spawn_server(
        "127.0.0.1:0",
        slice_rows(&full, half, N),
        Some(PartitionCfg::solo(1, 2, half as u32, EPOCH)),
    );
    let router = Router::bind(RouterConfig {
        backends: vec![hole, b1.clone()],
        epoch: EPOCH,
        // far past the query deadline: the deadline, not this, bounds
        // the wait (and the prober's ping of the hole)
        backend_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let raddr = router.local_addr().expect("router addr").to_string();
    let hr = std::thread::spawn(move || router.run());

    let mut client = Client::connect(&raddr).expect("connect router");
    let queries = uniform(1, D, 8);
    let q = queries.point(0);
    let started = Instant::now();
    let reply = client
        .query::<f64>(q, 1, K, DEADLINE_MS)
        .expect("routed query");
    let elapsed = started.elapsed();
    match reply.outcome {
        Outcome::DegradedPartial {
            table,
            contributed,
            total,
        } => {
            assert_eq!((contributed, total), (1, 2), "partition counts");
            let want = oracle_row::<f64>(&full, half..N, q, K);
            assert_rows_match_oracle(&table, &[want], "degraded merge vs partition-1 oracle");
        }
        other => panic!("a wedged partition must degrade typed, got {other:?}"),
    }
    let bound = Duration::from_millis(u64::from(DEADLINE_MS) * 3 / 2);
    assert!(
        elapsed < bound,
        "the routed reply took {elapsed:?}, past 1.5 x the {DEADLINE_MS} ms deadline"
    );

    Client::connect(&raddr).unwrap().shutdown().unwrap();
    hr.join().expect("router drain");
    stop.store(true, Ordering::SeqCst);
    hh.join().expect("black hole stop");
    shutdown(&b1);
    h1.join().expect("backend drain");
}

#[test]
fn router_timeseries_reply_is_the_disabled_document() {
    // never dialed: no query is routed
    let router = Router::bind(RouterConfig {
        backends: vec!["127.0.0.1:9".to_string()],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let raddr = router.local_addr().expect("router addr").to_string();
    let hr = std::thread::spawn(move || router.run());
    let mut client = Client::connect(&raddr).expect("connect router");
    let body = client.timeseries_json().expect("TimeSeries op");
    let doc: serde_json::Value = serde_json::from_str(&body).expect("TimeSeries reply is JSON");
    let (enabled, _, samples) =
        gsknn_obs::parse_timeseries(&doc).expect("`top` must be able to read the reply");
    assert!(!enabled, "the router has no sampler: {body}");
    assert!(samples.is_empty(), "{body}");
    client.shutdown().unwrap();
    hr.join().expect("router drain");
}
