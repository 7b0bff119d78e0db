//! Acceptance test for the gsknn-trace observability layer: drives a
//! mixed-precision workload of 200+ queries through a live server over
//! real TCP and checks that the three exposition surfaces agree:
//!
//! * every reply echoes the caller-chosen trace id (or a server-assigned
//!   nonzero one when the wire carries 0),
//! * the per-(lane, status) latency histograms in the Stats JSON sum to
//!   exactly the number of query requests served,
//! * the slowest-traces ring exports coalesce-wait and kernel-phase
//!   spans whose durations sum to within 10% of the client-measured
//!   round trip (spans exist only with the `obs` feature; without it the
//!   ring must export an empty, still-parseable document),
//! * the Prometheus exposition reports the same counts as the Stats op.
//!
//! The index uses one tree with leaf >= N, so results are exact and the
//! workload cannot produce timeouts from pruning pathologies.

use gsknn_serve::{Client, Outcome, ServeIndex, Server, ServerConfig};
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

/// Value of a single un-labelled counter/gauge line in the exposition.
fn metric_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("exposition missing {name}:\n{text}"))
}

#[test]
fn trace_ids_histograms_and_expositions_agree_end_to_end() {
    let (addr, handle) = start_server(ServerConfig {
        queue_cap: 256,
        max_batch: 64,
        k_max: 16,
        trace_ring: 8,
        ..ServerConfig::default()
    });

    // Phase 1: 4 client threads (2 per precision), 52 single-point
    // queries each = 208 mixed queries, every one with a caller-chosen
    // trace id that the reply must echo.
    let per_thread = 52usize;
    thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_io_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let pool = dataset::uniform(64, D, 500 + t);
                for i in 0..per_thread {
                    let q = pool.point(i % pool.len());
                    let id = ((t + 1) << 32) | (i as u64 + 1);
                    if t % 2 == 0 {
                        let reply = client.query_traced::<f64>(q, 1, 4, 40, id).expect("query");
                        assert_eq!(reply.trace_id, id, "f64 thread {t} req {i}: echoed id");
                        assert!(
                            matches!(reply.outcome, Outcome::Neighbors(_)),
                            "f64 thread {t} req {i}: {:?}",
                            reply.outcome
                        );
                    } else {
                        let q32: Vec<f32> = q.iter().map(|&v| v as f32).collect();
                        let reply = client
                            .query_traced::<f32>(&q32, 1, 4, 40, id)
                            .expect("query");
                        assert_eq!(reply.trace_id, id, "f32 thread {t} req {i}: echoed id");
                        assert!(
                            matches!(reply.outcome, Outcome::Neighbors(_)),
                            "f32 thread {t} req {i}: {:?}",
                            reply.outcome
                        );
                    }
                }
            });
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_io_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let probe = dataset::uniform(1, D, 999);

    // Wire trace id 0 asks the server to assign one.
    let reply = client
        .query_traced::<f64>(probe.point(0), 1, 4, 40, 0)
        .expect("query");
    assert_ne!(reply.trace_id, 0, "server must assign a nonzero trace id");
    assert!(matches!(reply.outcome, Outcome::Neighbors(_)));

    // Phase 2: lone queries with a long deadline. Nothing else is in
    // flight, so the coalescer holds each one until its flush budget
    // expires and the coalesce-wait span dominates the round trip —
    // these become the slowest traces in the ring by a wide margin.
    let mut slow: Vec<(u64, Duration)> = Vec::new();
    for j in 0..3u64 {
        let id = (0xabc << 40) | (j + 1);
        let reply = client
            .query_traced::<f64>(probe.point(0), 1, 4, 300, id)
            .expect("slow query");
        assert_eq!(reply.trace_id, id);
        assert!(matches!(reply.outcome, Outcome::Neighbors(_)));
        assert!(
            reply.rtt >= Duration::from_millis(50),
            "lone 300ms-deadline query should wait on the coalescer, rtt {:?}",
            reply.rtt
        );
        slow.push((id, reply.rtt));
    }

    let total_requests = (4 * per_thread + 1 + 3) as u64;

    // Phase 3: Stats op — latency rows must account for every query
    // request exactly once.
    let stats: Value = serde_json::from_str(&client.stats().unwrap()).expect("stats JSON");
    let rows = stats
        .get("latency")
        .and_then(Value::as_array)
        .expect("stats JSON carries latency rows");
    let hist_total: u64 = rows
        .iter()
        .map(|row| row.get("count").and_then(Value::as_u64).expect("row count"))
        .sum();
    assert_eq!(
        hist_total, total_requests,
        "latency histogram counts must sum to the query request count"
    );
    let mut lanes_seen = std::collections::BTreeSet::new();
    for row in rows {
        assert_eq!(
            row.get("status").and_then(Value::as_str),
            Some("ok"),
            "workload terminates Ok only: {row:?}"
        );
        assert!(
            row.get("p50_us")
                .and_then(Value::as_f64)
                .expect("populated row has p50")
                > 0.0,
            "quantiles come from real samples: {row:?}"
        );
        lanes_seen.insert(
            row.get("lane")
                .and_then(Value::as_str)
                .expect("lane label")
                .to_string(),
        );
    }
    assert!(
        lanes_seen.contains("f64") && lanes_seen.contains("f32"),
        "both precision lanes served traffic: {lanes_seen:?}"
    );

    // Phase 4: Prometheus exposition reflects the same counts.
    let text = client.metrics_text().expect("metrics exposition");
    assert!(
        text.contains("# TYPE gsknn_requests_total counter"),
        "exposition carries TYPE headers:\n{text}"
    );
    assert_eq!(metric_value(&text, "gsknn_queries_total"), total_requests);
    assert_eq!(metric_value(&text, "gsknn_busy_total"), 0);
    assert_eq!(metric_value(&text, "gsknn_timeouts_total"), 0);
    let exposed_count: u64 = text
        .lines()
        .filter(|l| l.starts_with("gsknn_request_latency_seconds_count{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().expect("count"))
        .sum();
    assert_eq!(
        exposed_count, total_requests,
        "exposition latency counts must match the Stats op"
    );

    // Phase 5: slowest-traces ring as Chrome trace-event JSON.
    let doc: Value = serde_json::from_str(&client.traces_json().expect("traces op"))
        .expect("chrome trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");

    #[cfg(feature = "obs")]
    {
        for (id, rtt) in &slow {
            let id_hex = format!("{id:016x}");
            let spans: Vec<&Value> = events
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(Value::as_str) == Some("X")
                        && e.get("args")
                            .and_then(|a| a.get("trace_id"))
                            .and_then(Value::as_str)
                            == Some(&id_hex)
                })
                .collect();
            assert!(
                !spans.is_empty(),
                "slow trace {id_hex} must survive in the ring"
            );
            let names: Vec<&str> = spans
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).expect("span name"))
                .collect();
            assert!(
                names.contains(&"coalesce wait"),
                "slow trace {id_hex} records its coalesce wait: {names:?}"
            );
            assert!(
                names.iter().any(|n| n.starts_with("kernel: ")),
                "slow trace {id_hex} records amortized kernel phases: {names:?}"
            );
            let span_sum_us: f64 = spans
                .iter()
                .map(|e| e.get("dur").and_then(Value::as_f64).expect("span dur"))
                .sum();
            let rtt_us = rtt.as_secs_f64() * 1e6;
            let ratio = span_sum_us / rtt_us;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "trace {id_hex}: span sum {span_sum_us:.0}us vs measured rtt {rtt_us:.0}us \
                 (ratio {ratio:.3}) must agree within 10%"
            );
        }
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = &slow;
        assert!(
            events.is_empty(),
            "with tracing compiled out the ring exports an empty document"
        );
    }

    client.shutdown().expect("shutdown");
    let report = handle.join().expect("server thread");
    assert_eq!(report.queries, total_requests);
    assert_eq!(
        report
            .latency
            .iter()
            .map(|row| row.hist.count())
            .sum::<u64>(),
        total_requests,
        "final ServeReport carries the same histograms"
    );
}
