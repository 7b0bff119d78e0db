//! End-to-end service tests over real TCP sockets.
//!
//! Exactness setup: the index uses **one tree with leaf ≥ N**, which is
//! the flat index — every batch is one exact kernel call against the
//! references prepacked at build — so any batching or thread interleaving
//! the server picks must reproduce the oracle bit-for-bit (per
//! precision). The coalescer's m-chunking is result-preserving by
//! construction, so mixed traffic from concurrent clients is a pure
//! scheduling question, which these tests probe.

use dataset::{DistanceKind, PointSet};
use gsknn_core::{BatchScratch, FusedScalar, Gsknn, GsknnConfig};
use gsknn_serve::{Client, Outcome, PartitionCfg, RetryPolicy, ServeIndex, Server, ServerConfig};
use knn_select::{Neighbor, NeighborTable};
use serde_json::Value;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

const N: usize = 600;
const D: usize = 8;

fn start_server(cfg: ServerConfig) -> (SocketAddr, thread::JoinHandle<gsknn_serve::ServeReport>) {
    let refs = dataset::uniform(N, D, 1);
    // exact configuration: one tree, leaf covers the whole table
    let index = ServeIndex::build(refs, 1, N, 7);
    let server = Server::bind(cfg, index).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// Exact kNN indices by brute force at the query's own precision.
fn brute_indices<T: FusedScalar>(refs: &PointSet<T>, q: &[T], k: usize) -> Vec<u32> {
    let mut cands: Vec<Neighbor<T>> = (0..refs.len())
        .map(|j| Neighbor::new(DistanceKind::SqL2.eval(q, refs.point(j)), j as u32))
        .collect();
    cands.sort_unstable_by(Neighbor::cmp_dist_idx);
    cands[..k].iter().map(|nb| nb.idx).collect()
}

fn counter(stats: &Value, key: &str) -> u64 {
    stats.get(key).and_then(|v| v.as_u64()).unwrap_or_else(|| {
        panic!("stats JSON missing {key}: {stats:?}");
    })
}

#[test]
fn mixed_precision_traffic_matches_oracle_exactly() {
    let (addr, handle) = start_server(ServerConfig {
        queue_cap: 256,
        coalesce_frac: 0.9,
        max_batch: 64,
        k_max: 16,
        ..ServerConfig::default()
    });
    let refs64 = dataset::uniform(N, D, 1);
    let refs32 = refs64.cast::<f32>();

    // 4 client threads (2 per precision), each 25 singles + 15 batches
    // of 5 = 100 query points -> 400 mixed queries total
    let total_points: usize = thread::scope(|s| {
        (0..4u64)
            .map(|t| {
                let refs64 = &refs64;
                let refs32 = &refs32;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .set_io_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let pool = dataset::uniform(100, D, 100 + t);
                    let mut points = 0usize;
                    for r in 0..40usize {
                        let m = if r < 25 { 1 } else { 5 };
                        let k = 1 + (r % 10);
                        let mut coords = Vec::with_capacity(m * D);
                        for p in 0..m {
                            coords.extend_from_slice(pool.point((r + p * 40) % 100));
                        }
                        if t % 2 == 0 {
                            let out = client
                                .query::<f64>(&coords, m, k, 120)
                                .expect("query")
                                .outcome;
                            let Outcome::Neighbors(table) = out else {
                                panic!("thread {t} req {r}: unexpected {out:?}");
                            };
                            assert_eq!(table.len(), m);
                            assert_eq!(table.k(), k);
                            for row in 0..m {
                                let got: Vec<u32> =
                                    table.row(row).iter().map(|nb| nb.idx).collect();
                                let want =
                                    brute_indices(refs64, &coords[row * D..(row + 1) * D], k);
                                assert_eq!(got, want, "f64 thread {t} req {r} row {row}");
                            }
                        } else {
                            let c32: Vec<f32> = coords.iter().map(|&v| v as f32).collect();
                            let out = client.query::<f32>(&c32, m, k, 120).expect("query").outcome;
                            let Outcome::Neighbors(table) = out else {
                                panic!("thread {t} req {r}: unexpected {out:?}");
                            };
                            for row in 0..m {
                                let got: Vec<u32> =
                                    table.row(row).iter().map(|nb| nb.idx).collect();
                                let want = brute_indices(refs32, &c32[row * D..(row + 1) * D], k);
                                assert_eq!(got, want, "f32 thread {t} req {r} row {row}");
                            }
                        }
                        points += m;
                    }
                    points
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    assert!(
        total_points >= 200,
        "need >= 200 queries, got {total_points}"
    );

    let mut client = Client::connect(addr).unwrap();
    client.ping().expect("ping");
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).expect("stats JSON");
    assert_eq!(counter(&stats, "queries"), total_points as u64);
    assert_eq!(counter(&stats, "busy"), 0);
    assert_eq!(counter(&stats, "errors"), 0);
    assert_eq!(counter(&stats, "timeouts"), 0);
    assert!(counter(&stats, "batches") >= 1);

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server thread");
    assert_eq!(report.queries, total_points as u64);
    assert!(
        report.drift_ratio().is_some(),
        "batches ran, drift must exist"
    );
}

/// Rows as `(distance bits, id)`, sentinels dropped.
fn row_bits<T: FusedScalar>(table: &NeighborTable<T>, offset: u32) -> Vec<Vec<(u64, u32)>> {
    (0..table.len())
        .map(|i| {
            table
                .row(i)
                .iter()
                .filter(|nb| nb.idx != u32::MAX)
                .map(|nb| (nb.dist.to_f64().to_bits(), nb.idx + offset))
                .collect()
        })
        .collect()
}

/// What `update_cross_reusing` computes for `coords` over the row-major
/// table `refs` at `T`, under the lane's own configuration.
fn row_major_answer<T: FusedScalar>(
    refs: &PointSet<f64>,
    coords: &[f64],
    m: usize,
    k: usize,
) -> NeighborTable<T> {
    let table: PointSet<T> = refs.cast();
    let mut queries = PointSet::<T>::from_vec(refs.dim(), 0, Vec::new());
    queries.append_from_f64(m, coords.iter().copied());
    let (q_idx, r_idx): (Vec<usize>, Vec<usize>) = ((0..m).collect(), (0..refs.len()).collect());
    let mut out = NeighborTable::new(m, k);
    Gsknn::<T>::new(GsknnConfig::for_scalar::<T>()).update_cross_reusing(
        &queries,
        &q_idx,
        &table,
        &r_idx,
        DistanceKind::SqL2,
        &mut out,
        &mut BatchScratch::new(),
    );
    out
}

/// One query of `m` points at precision `T` through `client`: the
/// reply's rows (global ids from a partition).
fn served_rows<T: FusedScalar>(
    client: &mut Client,
    coords: &[f64],
    m: usize,
    k: usize,
) -> Vec<Vec<(u64, u32)>> {
    let wire: Vec<T> = coords.iter().map(|&v| T::from_f64(v)).collect();
    match client.query::<T>(&wire, m, k, 2000).expect("query").outcome {
        Outcome::Neighbors(table) => row_bits(&table, 0),
        Outcome::Partial { table, .. } => row_bits(&table, 0),
        other => panic!("unexpected {other:?}"),
    }
}

/// The flat index serves over TCP exactly what the gathered kernel call
/// computes on the row-major table — distances and ids bit for bit — at
/// both precisions, through one shard or two (a connection per shard), and
/// as one partition of a scatter-gather deployment (ids shifted to global
/// rows). `n` is no multiple of either lane's `NR`, so the last panel is
/// padded.
#[test]
fn flat_index_replies_are_the_row_major_kernel_bit_for_bit() {
    let (n, k) = (601, 7);
    let refs = dataset::uniform(n, D, 5);
    let pool = dataset::uniform(64, D, 6);
    let partition = PartitionCfg::solo(1, 2, 1000, 3);
    for (shards, partition) in [(1, None), (2, None), (1, Some(partition))] {
        // adaptive: a lone request flushes at once instead of waiting out
        // half its budget
        let cfg = ServerConfig {
            shards,
            partition,
            adaptive_coalesce: true,
            k_max: 16,
            ..ServerConfig::default()
        };
        let server = Server::bind(cfg, ServeIndex::build(refs.clone(), 1, n, 7)).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = thread::spawn(move || server.run());
        let offset = partition.map_or(0, |p| p.offset);
        for conn in 0..shards {
            let mut client = Client::connect(addr).expect("connect");
            for (r, m) in [1usize, 5, 32].into_iter().enumerate() {
                let first = (conn * 3 + r) * 7 % (64 - m);
                let coords = &pool.as_slice()[first * D..(first + m) * D];
                let ctx = format!("shards {shards} partition {partition:?} conn {conn} m {m}");
                let want = row_major_answer::<f64>(&refs, coords, m, k);
                let got = served_rows::<f64>(&mut client, coords, m, k);
                assert_eq!(got, row_bits(&want, offset), "f64 {ctx}");
                let want = row_major_answer::<f32>(&refs, coords, m, k);
                let got = served_rows::<f32>(&mut client, coords, m, k);
                assert_eq!(got, row_bits(&want, offset), "f32 {ctx}");
            }
        }
        Client::connect(addr).unwrap().shutdown().expect("shutdown");
        handle.join().expect("server thread");
    }
}

#[test]
fn coalescer_flushes_on_both_triggers() {
    let cfg = ServerConfig {
        queue_cap: 512,
        coalesce_frac: 0.9,
        max_batch: 128,
        k_max: 8,
        ..ServerConfig::default()
    };
    // The model target must be a real threshold (> 1) for the deadline
    // trigger to be observable at all.
    {
        let refs = dataset::uniform(N, D, 1);
        let probe = Server::bind(cfg.clone(), ServeIndex::build(refs, 1, N, 7)).unwrap();
        let targets = probe.batch_targets();
        assert!(targets[0].1 > 1, "f64 m* = {} is degenerate", targets[0].1);
    }
    let (addr, handle) = start_server(cfg);
    let mut client = Client::connect(addr).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Deadline trigger: one lonely query can never reach m*, so its
    // flush must be deadline-driven.
    let pool = dataset::uniform(200, D, 42);
    let out = client
        .query::<f64>(pool.point(0), 1, 4, 60)
        .unwrap()
        .outcome;
    assert!(matches!(out, Outcome::Neighbors(_)), "got {out:?}");
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    assert!(
        counter(&stats, "flush_deadline") >= 1,
        "lonely query must flush on deadline: {stats:?}"
    );
    let model_before = counter(&stats, "flush_model");

    // Model trigger: a batch >= max_batch >= m* arrives as one job and
    // crosses the target immediately.
    let mut coords = Vec::with_capacity(128 * D);
    for p in 0..128 {
        coords.extend_from_slice(pool.point(p % 200));
    }
    let out = client.query::<f64>(&coords, 128, 4, 2000).unwrap().outcome;
    assert!(matches!(out, Outcome::Neighbors(_)), "got {out:?}");
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    assert!(
        counter(&stats, "flush_model") > model_before,
        "batch >= m* must flush on the model trigger: {stats:?}"
    );

    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert!(report.flushes.model >= 1);
    assert!(report.flushes.deadline >= 1);
}

#[test]
fn saturated_queue_returns_busy() {
    let (addr, handle) = start_server(ServerConfig {
        queue_cap: 8,
        max_batch: 64,
        k_max: 8,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let pool = dataset::uniform(16, D, 5);
    let coords: Vec<f64> = (0..16).flat_map(|p| pool.point(p).to_vec()).collect();

    // a batch larger than the whole admission budget bounces whole
    let out = client.query::<f64>(&coords, 16, 4, 500).unwrap().outcome;
    assert!(matches!(out, Outcome::Busy), "got {out:?}");

    // a batch that fits is served
    let out = client
        .query::<f64>(&coords[..8 * D], 8, 4, 500)
        .unwrap()
        .outcome;
    assert!(matches!(out, Outcome::Neighbors(_)), "got {out:?}");

    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    assert_eq!(counter(&stats, "busy"), 1);

    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.busy, 1);
}

#[test]
fn zero_budget_request_times_out() {
    let (addr, handle) = start_server(ServerConfig {
        k_max: 8,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let pool = dataset::uniform(4, D, 9);
    let out = client.query::<f64>(pool.point(0), 1, 4, 0).unwrap().outcome;
    assert!(matches!(out, Outcome::TimedOut), "got {out:?}");
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    assert!(counter(&stats, "timeouts") >= 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn malformed_requests_are_rejected_not_fatal() {
    let (addr, handle) = start_server(ServerConfig {
        k_max: 8,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // wrong dimension
    let out = client.query::<f64>(&[1.0, 2.0], 1, 4, 100).unwrap().outcome;
    assert!(matches!(out, Outcome::Rejected(_)), "got {out:?}");
    // k over the cap
    let pool = dataset::uniform(1, D, 3);
    let out = client
        .query::<f64>(pool.point(0), 1, 99, 100)
        .unwrap()
        .outcome;
    assert!(matches!(out, Outcome::Rejected(_)), "got {out:?}");
    // non-finite coordinate
    let mut bad = pool.point(0).to_vec();
    bad[0] = f64::NAN;
    let out = client.query::<f64>(&bad, 1, 4, 100).unwrap().outcome;
    assert!(matches!(out, Outcome::Rejected(_)), "got {out:?}");

    // the connection survives all three and the server still answers
    let out = client
        .query::<f64>(pool.point(0), 1, 4, 100)
        .unwrap()
        .outcome;
    assert!(matches!(out, Outcome::Neighbors(_)), "got {out:?}");
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    assert_eq!(counter(&stats, "errors"), 3);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn retry_converges_against_a_saturated_queue() {
    // coalesce_frac = 1.0 clamps the model target to max_batch — an
    // unreachable bar — so a batch with a long deadline parks in the
    // coalescer for deadline/2, keeping the admission budget full for a
    // known window.
    let (addr, handle) = start_server(ServerConfig {
        queue_cap: 8,
        coalesce_frac: 1.0,
        max_batch: 64,
        k_max: 8,
        ..ServerConfig::default()
    });
    let pool = dataset::uniform(16, D, 5);
    let coords: Vec<f64> = (0..8).flat_map(|p| pool.point(p).to_vec()).collect();

    let hog = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        // 8 points fill the cap; they coalesce for ~1 s before flushing
        client.query::<f64>(&coords, 8, 4, 2000).unwrap().outcome
    });
    thread::sleep(Duration::from_millis(50)); // let the hog get admitted

    let mut client = Client::connect(addr).unwrap();
    // without retries, the saturated queue bounces the request
    let out = client
        .query::<f64>(pool.point(9), 1, 4, 500)
        .unwrap()
        .outcome;
    assert!(matches!(out, Outcome::Busy), "got {out:?}");

    // with retries, backoff outlasts the hog's coalescing window and the
    // request lands once the budget frees up
    let policy = RetryPolicy {
        max_attempts: 50,
        base: Duration::from_millis(50),
        cap: Duration::from_millis(200),
        deadline: Duration::from_secs(10),
        seed: 99,
    };
    let reply = client
        .query_with_retry::<f64>(pool.point(9), 1, 4, 500, &policy)
        .unwrap();
    let out = reply.outcome;
    assert!(
        matches!(out, Outcome::Neighbors(_)),
        "retry must converge once the queue drains, got {out:?}"
    );
    assert!(reply.rtt > Duration::ZERO, "retry reply carries the rtt");

    assert!(matches!(hog.join().unwrap(), Outcome::Neighbors(_)));
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    assert!(counter(&stats, "busy") >= 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn retry_episode_respects_the_wall_clock_deadline() {
    use std::io::Read;
    use std::time::Instant;

    // A black-hole backend: accepts connections, reads forever, never
    // answers. Without the episode deadline, a generous socket timeout
    // would let each attempt block for its full configured bound and the
    // retry loop overrun the budget the caller promised upstream.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind black hole");
    let addr = listener.local_addr().unwrap();
    let hole = thread::spawn(move || {
        let mut conns = Vec::new();
        listener.set_nonblocking(true).unwrap();
        let until = Instant::now() + Duration::from_secs(4);
        while Instant::now() < until {
            if let Ok((s, _)) = listener.accept() {
                s.set_nonblocking(true).ok();
                conns.push(s);
            }
            let mut buf = [0u8; 4096];
            for c in &mut conns {
                let _ = c.read(&mut buf); // drain, never reply
            }
            thread::sleep(Duration::from_millis(5));
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    // configured socket timeout far beyond the episode budget: the
    // deadline clamp, not this bound, must cut each attempt short
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let policy = RetryPolicy {
        max_attempts: 50,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(40),
        deadline: Duration::from_millis(400),
        seed: 3,
    };
    let started = Instant::now();
    let q = vec![0.0f64; D];
    let result = client.query_with_retry::<f64>(&q, 1, 4, 500, &policy);
    let elapsed = started.elapsed();
    assert!(result.is_err(), "a mute backend cannot produce an outcome");
    assert!(
        elapsed < Duration::from_secs(3),
        "episode ran {elapsed:?}, far past the 400ms deadline"
    );
    // the clamp must not poison later requests: the configured socket
    // timeout is restored after the episode
    assert_eq!(client.io_timeout(), Some(Duration::from_secs(30)));
    hole.join().unwrap();
}

#[test]
fn overload_degrades_precision_and_recovers() {
    let (addr, handle) = start_server(ServerConfig {
        queue_cap: 8,
        coalesce_frac: 1.0, // park batches: sustained, deterministic pressure
        max_batch: 64,
        k_max: 8,
        degrade_precision: true,
        overload_threshold: 0.5,
        overload_window: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let refs64 = dataset::uniform(N, D, 1);
    let refs32 = refs64.cast::<f32>();
    let pool = dataset::uniform(16, D, 5);
    let coords: Vec<f64> = (0..6).flat_map(|p| pool.point(p).to_vec()).collect();

    // 6 of 8 slots in flight for ~2 s: pressure 0.75 >= threshold 0.5
    let hog = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query::<f64>(&coords, 6, 4, 4000).unwrap().outcome
    });
    thread::sleep(Duration::from_millis(400)); // window + margin

    // an f64 query under overload is served degraded from the f32 lane
    let mut client = Client::connect(addr).unwrap();
    let q = pool.point(9);
    let out = client.query::<f64>(q, 1, 4, 400).unwrap().outcome;
    let Outcome::Degraded(table) = out else {
        panic!("expected a degraded answer under overload, got {out:?}");
    };
    // ids match brute force at the precision that actually served it
    let got: Vec<u32> = table.row(0).iter().map(|nb| nb.idx).collect();
    let q32: Vec<f32> = q.iter().map(|&v| v as f32).collect();
    assert_eq!(got, brute_indices(&refs32, &q32, 4));
    let _ = refs64; // precision contrast is the point of the cast above

    assert!(matches!(hog.join().unwrap(), Outcome::Neighbors(_)));
    // pressure is gone; after the recovery window full precision returns
    thread::sleep(Duration::from_millis(400));
    let out = client.query::<f64>(q, 1, 4, 400).unwrap().outcome;
    assert!(
        matches!(out, Outcome::Neighbors(_)),
        "recovered server must answer at full precision, got {out:?}"
    );

    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    assert!(counter(&stats, "degraded_queries") >= 1, "{stats:?}");
    assert!(counter(&stats, "overload_events") >= 1, "{stats:?}");
    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert!(report.degraded_queries >= 1);
    assert!(report.overload_events >= 1);
}

#[test]
fn degenerate_shapes_get_typed_errors() {
    let (addr, handle) = start_server(ServerConfig {
        k_max: 2 * N, // over the index size, so k > n is reachable
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let pool = dataset::uniform(1, D, 3);

    // more neighbors than references
    let out = client
        .query::<f64>(pool.point(0), 1, N + 1, 100)
        .unwrap()
        .outcome;
    let Outcome::Rejected(msg) = out else {
        panic!("k > n must be rejected, got {out:?}");
    };
    assert!(msg.contains("exceeds"), "unhelpful message: {msg}");

    // a finite f64 coordinate that overflows f32 must be rejected by the
    // f32 lane's validation, not panic the worker mid-pack. The client
    // API can't express this (its f32 path takes &[f32]), so speak wire
    // directly: precision = f32 with a coordinate only f64 can hold.
    {
        use gsknn_serve::wire::{
            decode_response, encode_request, read_frame, write_frame, Precision, QueryBody,
            Request, Status,
        };
        let mut big = pool.point(0).to_vec();
        big[0] = 1e300;
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let req = Request::Query(QueryBody {
            precision: Precision::F32,
            k: 4,
            deadline_ms: 100,
            trace_id: 0,
            dim: D,
            m: 1,
            coords: big,
        });
        write_frame(&mut stream, &encode_request(&req)).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let resp = decode_response(&payload).unwrap();
        assert_eq!(
            resp.status,
            Status::BadRequest,
            "f32-overflowing coordinate must be a typed error"
        );
    }
    // the same value is fine on the f64 lane
    let mut big = pool.point(0).to_vec();
    big[0] = 1e300;
    let out = client.query::<f64>(&big, 1, 4, 100).unwrap().outcome;
    assert!(
        matches!(out, Outcome::Neighbors(_)),
        "finite f64 is fine on the f64 lane, got {out:?}"
    );

    // the connection still works afterwards
    let out = client
        .query::<f64>(pool.point(0), 1, 4, 100)
        .unwrap()
        .outcome;
    assert!(matches!(out, Outcome::Neighbors(_)), "got {out:?}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The sharded hot path (`shards: 2`, pinned cores, adaptive
/// coalescing) against the same oracle: the acceptor round-robins
/// clients over shards, every answer must still be brute force
/// bit-for-bit (recall 1.0), per-shard rows must reach the stats with
/// the traffic split across both shards, and the `Shutdown` drain must
/// answer in-flight work before the sockets close. This is also the
/// compat gate for removing the legacy thread-per-connection accept
/// path: the clients here speak the unchanged wire protocol.
#[test]
fn sharded_server_matches_oracle_and_drains_cleanly() {
    let (addr, handle) = start_server(ServerConfig {
        shards: 2,
        pin_cores: true,
        adaptive_coalesce: true,
        queue_cap: 256,
        max_batch: 64,
        k_max: 16,
        ..ServerConfig::default()
    });
    let refs64 = dataset::uniform(N, D, 1);
    let refs32 = refs64.cast::<f32>();

    // 4 clients round-robined over the 2 shards, mixed precisions
    let total: usize = thread::scope(|s| {
        (0..4u64)
            .map(|t| {
                let refs64 = &refs64;
                let refs32 = &refs32;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .set_io_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let pool = dataset::uniform(64, D, 500 + t);
                    let mut answered = 0usize;
                    for r in 0..24usize {
                        let m = 1 + r % 3;
                        let k = 1 + r % 8;
                        let mut coords = Vec::with_capacity(m * D);
                        for p in 0..m {
                            coords.extend_from_slice(pool.point((r + 7 * p) % 64));
                        }
                        if t % 2 == 0 {
                            let out = client
                                .query::<f64>(&coords, m, k, 500)
                                .expect("query")
                                .outcome;
                            let Outcome::Neighbors(table) = out else {
                                panic!("thread {t} req {r}: unexpected {out:?}");
                            };
                            for row in 0..m {
                                let q = &coords[row * D..(row + 1) * D];
                                let got: Vec<u32> =
                                    table.row(row).iter().map(|nb| nb.idx).collect();
                                assert_eq!(got, brute_indices(refs64, q, k), "t{t} r{r}");
                            }
                        } else {
                            let q32: Vec<f32> = coords.iter().map(|&v| v as f32).collect();
                            let out = client.query::<f32>(&q32, m, k, 500).expect("query").outcome;
                            let Outcome::Neighbors(table) = out else {
                                panic!("thread {t} req {r}: unexpected {out:?}");
                            };
                            for row in 0..m {
                                let q = &q32[row * D..(row + 1) * D];
                                let got: Vec<u32> =
                                    table.row(row).iter().map(|nb| nb.idx).collect();
                                assert_eq!(got, brute_indices(refs32, q, k), "t{t} r{r}");
                            }
                        }
                        answered += m;
                    }
                    answered
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });

    // per-shard accounting reached the stats and both shards took load
    let mut client = Client::connect(addr).unwrap();
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).unwrap();
    let shards = stats
        .get("shards")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| panic!("stats JSON missing shards array: {stats:?}"))
        .clone();
    assert_eq!(shards.len(), 2, "{stats:?}");
    let shard_queries: u64 = shards.iter().map(|s| counter(s, "queries")).sum();
    assert_eq!(shard_queries as usize, total, "{stats:?}");
    for s in &shards {
        assert!(counter(s, "conns") >= 2, "round-robin spread: {stats:?}");
        assert!(counter(s, "queries") >= 1, "both shards served: {stats:?}");
    }

    // a query in flight when the drain starts must still be answered
    let parked: Vec<f64> = refs64.point(0).to_vec();
    let worker = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.set_io_timeout(Some(Duration::from_secs(30))).unwrap();
        c.query::<f64>(&parked, 1, 4, 10_000).unwrap().outcome
    });
    thread::sleep(Duration::from_millis(30));
    client.shutdown().unwrap();
    let out = worker.join().unwrap();
    assert!(
        matches!(out, Outcome::Neighbors(_)),
        "in-flight work must be answered during drain, got {out:?}"
    );
    let report = handle.join().unwrap();
    assert_eq!(report.queries as usize, total + 1);
    assert_eq!(report.shards.len(), 2);
}

#[test]
fn shutdown_drains_pending_work() {
    let (addr, handle) = start_server(ServerConfig {
        queue_cap: 512,
        max_batch: 256,
        k_max: 8,
        ..ServerConfig::default()
    });
    let pool = dataset::uniform(300, D, 77);
    let coords: Vec<f64> = (0..2).flat_map(|p| pool.point(p).to_vec()).collect();

    let worker = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .set_io_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // tiny batch, huge coalesce budget: it can only come back before
        // the 5 s flush deadline if the drain flushes it
        client.query::<f64>(&coords, 2, 4, 10_000).unwrap().outcome
    });
    // let the query reach the lane, then drain
    thread::sleep(Duration::from_millis(30));
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();

    let out = worker.join().unwrap();
    assert!(
        matches!(out, Outcome::Neighbors(_)),
        "queued work must be answered during drain, got {out:?}"
    );
    let report = handle.join().unwrap();
    assert_eq!(report.queries, 2);
    assert!(
        report.flushes.drain >= 1,
        "drain flush expected: {:?}",
        report.flushes
    );
}

/// Frames a client writes back-to-back on one connection (what the split
/// `send_request` / `recv_response` API invites) are all answered, in
/// order. The shard pauses a connection's parser while its query is in
/// flight; the frames behind it are already buffered when the reply goes
/// out, so no readiness event ever announces them — the shard has to
/// resume the parser itself.
#[test]
fn pipelined_query_frames_are_all_answered_in_order() {
    use gsknn_serve::wire::{
        decode_response, encode_request, read_frame_poll, write_frame, Precision, QueryBody,
        Request, Status,
    };
    use std::io::Write;
    use std::time::Instant;

    let (addr, handle) = start_server(ServerConfig {
        k_max: 8,
        ..ServerConfig::default()
    });
    let refs = dataset::uniform(N, D, 1);
    let pool = dataset::uniform(8, D, 55);
    let k = 4;

    for burst in [2usize, 8] {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut wire_bytes = Vec::new(); // all frames, sent in one write
        for i in 0..burst {
            let payload = encode_request(&Request::Query(QueryBody {
                precision: Precision::F64,
                k,
                deadline_ms: 20,
                trace_id: 1 + i as u64,
                dim: D,
                m: 1,
                coords: pool.point(i).to_vec(),
            }));
            write_frame(&mut wire_bytes, &payload).unwrap();
        }
        stream.write_all(&wire_bytes).unwrap();

        // each query may wait out its 10 ms coalescing hold; a stalled
        // parser would instead leave the socket silent forever
        let give_up = Instant::now() + Duration::from_secs(5);
        for i in 0..burst {
            let payload = read_frame_poll(&mut stream, &|| Instant::now() >= give_up)
                .unwrap()
                .unwrap_or_else(|| panic!("burst of {burst}: no reply to frame {i}"));
            let resp = decode_response(&payload).unwrap();
            assert_eq!(resp.status, Status::Ok, "burst of {burst}, frame {i}");
            assert_eq!(resp.trace_id, 1 + i as u64, "replies out of order");
            let table = knn_select::NeighborTable::<f64>::from_bytes(&resp.body).unwrap();
            let got: Vec<u32> = table.row(0).iter().map(|nb| nb.idx).collect();
            assert_eq!(got, brute_indices(&refs, pool.point(i), k));
        }
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, 10);
}
