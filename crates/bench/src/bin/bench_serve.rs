//! Persisted serving-latency trajectory: drive a fixed workload of
//! single-point queries through an in-process `gsknn-serve` server in
//! both precisions, and append client-measured p50/p99 round-trip
//! latency plus throughput to a repo-root `BENCH_serve.json` so
//! successive PRs can compare the serving stack against history.
//!
//! The workload is deliberately coalescer-bound: several concurrent
//! clients issue `m = 1` queries, so the measured latency is dominated
//! by the model-driven batch coalescing the crate exists to provide —
//! a regression in the flush policy or the lane plumbing shows up here
//! before it shows up in a kernel benchmark.
//!
//! Flags:
//! * `--smoke` — tiny workload (CI: proves the harness runs, not perf)
//! * `--out F` — output path (default `<repo root>/BENCH_serve.json`)
//! * `--warmup N` — unrecorded queries per client before measuring, so
//!   trajectory points exclude cold-start effects (default 0, keeping
//!   historical comparability)
//! * `--duration-ms D` — run each client for a wall-clock duration
//!   instead of a fixed query count (default 0 = count-based)
//! * `--clients LIST` — saturation sweep: after the fixed headline
//!   workload, re-run both lanes at each comma-separated client count
//!   (e.g. `8,64,256,1024`) and record the points under the run's
//!   `sweep` key. The headline `lanes`/`server` sections keep their
//!   shape, so `bench-diff` gating is unaffected; the sweep is the
//!   saturation curve EXPERIMENTS.md walks through.
//! * `--router` — after the headline workload, re-run both lanes
//!   through an in-process scatter-gather tier: the same reference set
//!   partitioned across two `--partition`-mode backends with a
//!   `gsknn-router` front. The point is recorded under the run's
//!   `router` key — per-lane latency/qps, the fan-out+merge overhead
//!   vs the single-node headline (`merge_overhead_pct`), and the
//!   degraded fraction — so `bench-diff` gates the router tier against
//!   its own trajectory without disturbing the single-node gates.
//!   The same flag also measures **failover transparency**: a
//!   2-partition x 2-replica tier runs the f64 lane twice — healthy,
//!   and with one replica shut down a third of the way into the run —
//!   and records both under `router.replicated` (`ok_fraction` 1.0
//!   means the loss was invisible to clients; the killed run's
//!   p99/qps against the healthy run's is the cost of the failover).
//!
//! The server runs the sharded hot path with `shards: 0` (auto: one
//! shard per available core) and adaptive coalescing — the
//! configuration `gsknn-cli serve` deployments are expected to use.
//! The resolved config is recorded in each run's `server_cfg` so the
//! trajectory distinguishes coalescing policies.
//!
//! Besides the per-lane latency quantiles, each run records a `server`
//! section from the drained server's final report: flush-reason counts
//! (model / deadline / drain), the realized mean batch size, and the
//! per-lane roofline bound-class rows — the numbers `gsknn-cli
//! bench-diff` gates on.

use dataset::PointSet;
use gsknn_serve::{Client, Outcome, ServeIndex, Server, ServerConfig};
use serde_json::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn default_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
}

struct Args {
    smoke: bool,
    out: PathBuf,
    warmup: usize,
    duration_ms: u64,
    clients: Vec<usize>,
    router: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        out: default_out(),
        warmup: 0,
        duration_ms: 0,
        clients: Vec::new(),
        router: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--out" => out.out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--warmup" => {
                out.warmup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--duration-ms" => {
                out.duration_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--clients" => {
                let list = args.next().unwrap_or_else(|| usage());
                out.clients = list
                    .split(',')
                    .map(|v| v.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if out.clients.is_empty() || out.clients.contains(&0) {
                    usage();
                }
            }
            "--router" => out.router = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_serve [--smoke] [--out F] [--warmup N] [--duration-ms D] \
         [--clients N,N,...] [--router]"
    );
    std::process::exit(2);
}

/// One precision's measured workload.
struct LaneResult {
    precision: &'static str,
    queries: usize,
    ok: usize,
    p50_us: f64,
    p99_us: f64,
    qps: f64,
}

impl LaneResult {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "precision": self.precision,
            "queries": self.queries,
            "ok": self.ok,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "qps": self.qps,
        })
    }
}

fn quantile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

/// `clients` threads each fire `warmup` unrecorded then `per_client`
/// recorded single-point queries (or loop for `duration_ms` when that is
/// nonzero) and report their measured round trips.
#[allow(clippy::too_many_arguments)]
fn run_lane<T: gsknn_core::FusedScalar>(
    addr: std::net::SocketAddr,
    queries: &PointSet,
    clients: usize,
    per_client: usize,
    deadline_ms: u32,
    k: usize,
    warmup: usize,
    duration_ms: u64,
) -> LaneResult {
    let cast = queries.cast::<T>();
    let per_thread: Vec<(Vec<Duration>, usize, f64)> = std::thread::scope(|s| {
        (0..clients)
            .map(|c| {
                let cast = &cast;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for i in 0..warmup {
                        let q = cast.point((c * warmup + i) % cast.len());
                        let _ = client.query::<T>(q, 1, k, deadline_ms).expect("warmup");
                    }
                    let measure_start = Instant::now();
                    let deadline = (duration_ms > 0)
                        .then(|| measure_start + Duration::from_millis(duration_ms));
                    let mut rtts = Vec::with_capacity(per_client);
                    let mut ok = 0usize;
                    let mut i = 0usize;
                    loop {
                        match deadline {
                            Some(d) => {
                                if Instant::now() >= d {
                                    break;
                                }
                            }
                            None => {
                                if i >= per_client {
                                    break;
                                }
                            }
                        }
                        let q = cast.point((c * per_client + i) % cast.len());
                        let reply = client.query::<T>(q, 1, k, deadline_ms).expect("query");
                        rtts.push(reply.rtt);
                        if matches!(reply.outcome, Outcome::Neighbors(_) | Outcome::Degraded(_)) {
                            ok += 1;
                        }
                        i += 1;
                    }
                    (rtts, ok, measure_start.elapsed().as_secs_f64())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    // wall clock of the measuring loops only — warmup must not dilute qps
    let wall = per_thread
        .iter()
        .map(|(_, _, w)| *w)
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut rtts: Vec<Duration> = per_thread
        .iter()
        .flat_map(|(r, _, _)| r.iter().copied())
        .collect();
    let ok = per_thread.iter().map(|(_, o, _)| o).sum();
    rtts.sort_unstable();
    LaneResult {
        precision: <T as gsknn_core::GsknnScalar>::NAME,
        queries: rtts.len(),
        ok,
        p50_us: quantile_us(&rtts, 0.50),
        p99_us: quantile_us(&rtts, 0.99),
        qps: rtts.len() as f64 / wall,
    }
}

/// Partition the reference set two ways, `replicas` servers per slice,
/// front them with a scatter-gather router, and drive the same workload
/// through it. The delta against the single-node headline lanes is the
/// cost of the fan-out + merge tier.
struct RouterTier {
    addr: std::net::SocketAddr,
    backends: Vec<String>,
    handles: Vec<std::thread::JoinHandle<gsknn_serve::ServeReport>>,
    router_handle: std::thread::JoinHandle<gsknn_router::RouterReport>,
}

fn spawn_router_tier(n_refs: usize, d: usize, replicas: u16) -> RouterTier {
    use gsknn_serve::PartitionCfg;

    const PARTS: u16 = 2;
    // same deterministic reference set as the headline index
    let refs = dataset::uniform(n_refs, d, 2026);
    let mut backends = Vec::new();
    let mut handles = Vec::new();
    // partition-major: p0r0, p0r1, ..., p1r0, ...
    for id in 0..PARTS {
        let lo = n_refs * id as usize / PARTS as usize;
        let hi = n_refs * (id as usize + 1) / PARTS as usize;
        for r in 0..replicas {
            let slice = PointSet::from_vec(d, hi - lo, refs.as_slice()[lo * d..hi * d].to_vec());
            let cfg = ServerConfig {
                shards: 0,
                adaptive_coalesce: true,
                partition: Some(PartitionCfg {
                    id,
                    total: PARTS,
                    offset: lo as u32,
                    epoch: 1,
                    replica: r,
                    replicas,
                }),
                ..ServerConfig::default()
            };
            let index = ServeIndex::build(slice, 4, 512, 7);
            let server = Server::bind(cfg, index).expect("bind backend");
            backends.push(server.local_addr().expect("backend addr").to_string());
            handles.push(std::thread::spawn(move || server.run()));
        }
    }
    let router = gsknn_router::Router::bind(gsknn_router::RouterConfig {
        backends: backends.clone(),
        replicas: replicas as usize,
        addr: "127.0.0.1:0".to_string(),
        ..gsknn_router::RouterConfig::default()
    })
    .expect("bind router");
    let addr = router.local_addr().expect("router addr");
    let router_handle = std::thread::spawn(move || router.run());
    RouterTier {
        addr,
        backends,
        handles,
        router_handle,
    }
}

impl RouterTier {
    /// Shut the router and every still-live backend down; dead replicas
    /// (killed mid-run) are skipped.
    fn drain(self) -> gsknn_router::RouterReport {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .expect("router shutdown");
        let report = self.router_handle.join().expect("router thread");
        for b in &self.backends {
            if let Ok(mut c) = Client::connect(b.as_str()) {
                let _ = c.shutdown();
            }
        }
        for h in self.handles {
            h.join().expect("backend thread");
        }
        report
    }
}

#[allow(clippy::too_many_arguments)]
fn run_router(
    n_refs: usize,
    d: usize,
    queries: &PointSet,
    clients: usize,
    per_client: usize,
    deadline_ms: u32,
    k: usize,
    duration_ms: u64,
) -> (Vec<LaneResult>, gsknn_router::RouterReport) {
    let tier = spawn_router_tier(n_refs, d, 1);
    let lanes = vec![
        run_lane::<f64>(
            tier.addr,
            queries,
            clients,
            per_client,
            deadline_ms,
            k,
            0,
            duration_ms,
        ),
        run_lane::<f32>(
            tier.addr,
            queries,
            clients,
            per_client,
            deadline_ms,
            k,
            0,
            duration_ms,
        ),
    ];
    (lanes, tier.drain())
}

/// The failover-transparency measurement: the same workload through a
/// 2-partition x 2-replica tier, once healthy and once with a replica
/// shut down a third of the way into the run. Both lanes are
/// duration-based so the kill lands mid-stream; the interesting numbers
/// are the killed run's p99/qps against the healthy run's, and its
/// ok-fraction (1.0 = the loss was invisible to clients).
fn run_router_replicated(
    n_refs: usize,
    d: usize,
    queries: &PointSet,
    clients: usize,
    deadline_ms: u32,
    k: usize,
    duration_ms: u64,
) -> serde_json::Value {
    let healthy_tier = spawn_router_tier(n_refs, d, 2);
    let healthy = run_lane::<f64>(
        healthy_tier.addr,
        queries,
        clients,
        0,
        deadline_ms,
        k,
        0,
        duration_ms,
    );
    let healthy_report = healthy_tier.drain();
    assert_eq!(
        healthy.queries, healthy.ok,
        "replicated router (healthy): every query must answer Ok"
    );

    let killed_tier = spawn_router_tier(n_refs, d, 2);
    // Kill a replica of partition 1 (backends partition-major, indices
    // 2 and 3) a third of the way into the run — specifically whichever
    // one the router is actually routing to, so the failover machinery
    // is exercised rather than a cold standby quietly disappearing.
    let router_addr = killed_tier.addr;
    let candidates = [
        killed_tier.backends[2].clone(),
        killed_tier.backends[3].clone(),
    ];
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(duration_ms / 3));
        let txt = Client::connect(router_addr)
            .and_then(|mut c| c.metrics_text())
            .unwrap_or_default();
        let replies = |b: usize| {
            txt.lines()
                .find_map(|l| {
                    l.strip_prefix(&format!(
                        "gsknn_router_backend_replies_total{{backend=\"{b}\"}} "
                    ))
                })
                .and_then(|v| v.trim().parse::<u64>().ok())
                .unwrap_or(0)
        };
        let victim = if replies(2) >= replies(3) { 0 } else { 1 };
        if let Ok(mut c) = Client::connect(candidates[victim].as_str()) {
            let _ = c.shutdown();
        }
        victim
    });
    let killed = run_lane::<f64>(
        killed_tier.addr,
        queries,
        clients,
        0,
        deadline_ms,
        k,
        0,
        duration_ms,
    );
    let victim_replica = killer.join().expect("killer thread");
    let killed_report = killed_tier.drain();

    let ok_fraction = if killed.queries > 0 {
        killed.ok as f64 / killed.queries as f64
    } else {
        0.0
    };
    println!(
        "router replicated healthy: {} queries, p50 {:.0} us, p99 {:.0} us, {:.0} qps",
        healthy.queries, healthy.p50_us, healthy.p99_us, healthy.qps
    );
    println!(
        "router replicated killed:  {} queries ({} ok, {:.4} ok-fraction), p50 {:.0} us, \
         p99 {:.0} us, {:.0} qps, {} failovers, {} hedges won, {} lost, {} degraded",
        killed.queries,
        killed.ok,
        ok_fraction,
        killed.p50_us,
        killed.p99_us,
        killed.qps,
        killed_report.replica_failovers,
        killed_report.replica_hedges_won,
        killed_report.replica_hedges_lost,
        killed_report.degraded,
    );
    serde_json::json!({
        "replicas": 2,
        "duration_ms": duration_ms,
        "healthy": healthy.to_json(),
        "killed": {
            "lane": killed.to_json(),
            "victim": format!("partition 1 replica {victim_replica}"),
            "ok_fraction": ok_fraction,
            "replica_failovers": killed_report.replica_failovers,
            "replica_hedges_won": killed_report.replica_hedges_won,
            "replica_hedges_lost": killed_report.replica_hedges_lost,
            "degraded": killed_report.degraded,
        },
        "healthy_degraded": healthy_report.degraded,
    })
}

fn main() {
    let args = parse_args();
    // Fixed workload: changing it would break comparability across PRs.
    let (n_refs, clients, per_client) = if args.smoke {
        (2000, 4, 10)
    } else {
        (8192, 8, 50)
    };
    let (d, k, deadline_ms) = (16, 8, 50u32);

    let refs = dataset::uniform(n_refs, d, 2026);
    let queries = dataset::uniform(256, d, 777);
    let index = ServeIndex::build(refs, 4, 512, 7);
    // the deployment-shaped config: one shard per core, adaptive flushes
    let cfg = ServerConfig {
        shards: 0,
        adaptive_coalesce: true,
        ..ServerConfig::default()
    };
    let n_shards = cfg.resolved_shards();
    let server = Server::bind(cfg, index).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let lanes = vec![
        run_lane::<f64>(
            addr,
            &queries,
            clients,
            per_client,
            deadline_ms,
            k,
            args.warmup,
            args.duration_ms,
        ),
        run_lane::<f32>(
            addr,
            &queries,
            clients,
            per_client,
            deadline_ms,
            k,
            args.warmup,
            args.duration_ms,
        ),
    ];

    // the saturation sweep: same workload shape, varying only the number
    // of closed-loop clients; total queries per point stay roughly fixed
    // so high-client points don't dominate the wall clock
    let sweep: Vec<Value> = args
        .clients
        .iter()
        .map(|&c| {
            let pc = (4096 / c).max(4);
            let point = [
                run_lane::<f64>(addr, &queries, c, pc, deadline_ms, k, 0, 0),
                run_lane::<f32>(addr, &queries, c, pc, deadline_ms, k, 0, 0),
            ];
            for lane in &point {
                println!(
                    "sweep {c:>5} clients {}: {} queries ({} ok), p50 {:.0} us, \
                     p99 {:.0} us, {:.0} qps",
                    lane.precision, lane.queries, lane.ok, lane.p50_us, lane.p99_us, lane.qps
                );
            }
            serde_json::json!({
                "clients": c,
                "per_client": pc,
                "lanes": (Value::Array(point.iter().map(LaneResult::to_json).collect())),
            })
        })
        .collect();

    // the scatter-gather tier, measured against the headline lanes
    let router_section: Option<Value> = args.router.then(|| {
        let (rlanes, rreport) = run_router(
            n_refs,
            d,
            &queries,
            clients,
            per_client,
            deadline_ms,
            k,
            args.duration_ms,
        );
        let overhead = |r: &LaneResult| -> Option<f64> {
            lanes
                .iter()
                .find(|l| l.precision == r.precision)
                .filter(|l| l.p50_us > 0.0)
                .map(|l| (r.p50_us - l.p50_us) / l.p50_us * 100.0)
        };
        for lane in &rlanes {
            println!(
                "router {}: {} queries ({} ok), p50 {:.0} us, p99 {:.0} us, {:.0} qps{}",
                lane.precision,
                lane.queries,
                lane.ok,
                lane.p50_us,
                lane.p99_us,
                lane.qps,
                match overhead(lane) {
                    Some(o) => format!(", merge overhead {o:+.1}% vs single-node p50"),
                    None => String::new(),
                }
            );
            assert_eq!(
                lane.queries, lane.ok,
                "router {}: every query of the fixed workload must answer Ok",
                lane.precision
            );
        }
        let degraded_fraction = if rreport.queries > 0 {
            rreport.degraded as f64 / rreport.queries as f64
        } else {
            0.0
        };
        // per-stage time attribution over the whole run (zeroes unless
        // the backends were built with `obs` and returned span annexes)
        if rreport.stages.total_ns() > 0 {
            println!("router stages: {}", rreport.stages.render_line());
        }
        // the replicated tier runs duration-based so the mid-run kill
        // lands inside the measuring window whatever the host's speed
        let rep_duration = if args.duration_ms > 0 {
            args.duration_ms
        } else if args.smoke {
            600
        } else {
            1500
        };
        let replicated =
            run_router_replicated(n_refs, d, &queries, clients, deadline_ms, k, rep_duration);
        serde_json::json!({
            "backends": rreport.backends(),
            "replicated": replicated,
            "lanes": (Value::Array(
                rlanes
                    .iter()
                    .map(|l| {
                        let mut v = l.to_json();
                        if let (Some(o), Value::Object(m)) = (overhead(l), &mut v) {
                            m.push(("merge_overhead_pct".to_string(), serde_json::json!(o)));
                        }
                        v
                    })
                    .collect(),
            )),
            "degraded_fraction": degraded_fraction,
            "hedges": rreport.hedges,
            "epoch_rejects": rreport.epoch_rejects,
            "attribution": rreport.stages.to_json(),
        })
    });

    Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    let report = handle.join().expect("server thread");

    for lane in &lanes {
        println!(
            "{}: {} queries ({} ok), p50 {:.0} us, p99 {:.0} us, {:.0} qps",
            lane.precision, lane.queries, lane.ok, lane.p50_us, lane.p99_us, lane.qps
        );
        assert_eq!(
            lane.queries, lane.ok,
            "{}: every query of the fixed workload must answer Ok",
            lane.precision
        );
    }
    // server-side accounting: flush reasons and the roofline bound-class
    // summary (empty without the serve crate's `obs` feature)
    println!(
        "server: {} batches (flushes: {} model, {} deadline, {} drain), mean batch m {:.2}",
        report.batches,
        report.flushes.model,
        report.flushes.deadline,
        report.flushes.drain,
        if report.batches > 0 {
            report.queries as f64 / report.batches as f64
        } else {
            0.0
        }
    );
    for row in &report.roofline {
        if row.total() == 0 {
            continue;
        }
        println!(
            "roofline {}: {} compute, {} bandwidth, {} coalesce, {} queue{}",
            row.lane,
            row.counts[0],
            row.counts[1],
            row.counts[2],
            row.counts[3],
            match row.headroom_mean() {
                Some(h) => format!(" | headroom x{h:.2}"),
                None => String::new(),
            }
        );
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let run = serde_json::json!({
        "unix_time": unix_time,
        "smoke": args.smoke,
        "warmup": args.warmup,
        "duration_ms": args.duration_ms,
        "workload": {
            "n_refs": n_refs, "d": d, "k": k, "deadline_ms": deadline_ms,
            "clients": clients, "per_client": per_client,
        },
        "server_cfg": {
            "shards": n_shards,
            "adaptive_coalesce": true,
        },
        "lanes": (Value::Array(lanes.iter().map(LaneResult::to_json).collect())),
        "sweep": (Value::Array(sweep)),
        "router": (router_section.unwrap_or(Value::Null)),
        "server": {
            "queries": report.queries,
            "batches": report.batches,
            "batch_m_mean": if report.batches > 0 {
                report.queries as f64 / report.batches as f64
            } else {
                0.0
            },
            "flushes": {
                "model": report.flushes.model,
                "deadline": report.flushes.deadline,
                "drain": report.flushes.drain,
            },
            "coalesce_ratio": report.flushes.coalesce_ratio(),
            "roofline": (Value::Array(
                report.roofline.iter().map(|r| r.to_json()).collect(),
            )),
        },
    });

    // Append to the existing trajectory when the file already holds one
    // (and start fresh on a missing or malformed file).
    let mut doc = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .filter(|v: &Value| matches!(v.get("runs"), Some(Value::Array(_))))
        .unwrap_or_else(|| {
            serde_json::json!({
                "benchmark": "serve",
                "metric": "client round-trip latency (p50/p99 us) and throughput (qps)",
                "runs": [],
            })
        });
    if let Value::Object(members) = &mut doc {
        if let Some((_, Value::Array(runs))) = members.iter_mut().find(|(k, _)| k == "runs") {
            runs.push(run);
        }
    }
    if let Some(parent) = args.out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&args.out, doc.to_string_pretty()).expect("write BENCH_serve.json");
    println!("trajectory appended to {}", args.out.display());
}
