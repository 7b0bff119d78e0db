//! The systems under test, started in-process: one `Server`, or a
//! `Router` over 2 partitions × 2 replicas. Every server runs
//! `shards: 1`, `adaptive_coalesce: true` (the box has 2 cores and the
//! generator needs one). `stop` drains and joins every thread it spawned.

use crate::spec::{Kind, Workload};
use dataset::PointSet;
use gsknn_router::{Router, RouterConfig, RouterReport};
use gsknn_serve::{Client, PartitionCfg, ServeIndex, ServeReport, Server, ServerConfig};
use serde_json::Value;
use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;

pub const PARTITIONS: usize = 2;
pub const REPLICAS: usize = 2;

pub struct Tier {
    /// Where clients connect: the server, or the router.
    pub addr: SocketAddr,
    /// Backend servers, partition-major (a single server: just it).
    pub backends: Vec<SocketAddr>,
    servers: Vec<JoinHandle<ServeReport>>,
    router: Option<JoinHandle<RouterReport>>,
}

/// Row range of partition `p`.
pub fn partition_rows(n: usize, p: usize) -> std::ops::Range<usize> {
    n * p / PARTITIONS..n * (p + 1) / PARTITIONS
}

/// Rows `rows` of `refs` as their own point set.
pub fn slice_points(refs: &PointSet<f64>, rows: std::ops::Range<usize>) -> PointSet<f64> {
    let d = refs.dim();
    PointSet::from_vec(
        d,
        rows.len(),
        refs.as_slice()[rows.start * d..rows.end * d].to_vec(),
    )
}

fn spawn_server(
    refs: PointSet<f64>,
    w: &Workload,
    forest_seed: u64,
    partition: Option<PartitionCfg>,
) -> io::Result<(SocketAddr, JoinHandle<ServeReport>)> {
    let cfg = ServerConfig {
        shards: 1,
        adaptive_coalesce: true,
        partition,
        ..ServerConfig::default()
    };
    let index = ServeIndex::build(refs, w.trees, w.leaf, forest_seed);
    let server = Server::bind(cfg, index)?;
    let addr = server.local_addr()?;
    Ok((addr, std::thread::spawn(move || server.run())))
}

impl Tier {
    /// Build the index(es) over `refs` and start the tier `w` asks for.
    pub fn start(w: &Workload, refs: &PointSet<f64>, forest_seed: u64) -> io::Result<Tier> {
        match w.kind {
            Kind::Route => Tier::routed(w, refs, forest_seed),
            _ => Tier::single(w, refs, forest_seed),
        }
    }

    pub fn single(w: &Workload, refs: &PointSet<f64>, forest_seed: u64) -> io::Result<Tier> {
        let (addr, handle) = spawn_server(refs.clone(), w, forest_seed, None)?;
        Ok(Tier {
            addr,
            backends: vec![addr],
            servers: vec![handle],
            router: None,
        })
    }

    pub fn routed(w: &Workload, refs: &PointSet<f64>, forest_seed: u64) -> io::Result<Tier> {
        let mut backends = Vec::new();
        let mut servers = Vec::new();
        for p in 0..PARTITIONS {
            let rows = partition_rows(refs.len(), p);
            for r in 0..REPLICAS {
                let part = PartitionCfg {
                    id: p as u16,
                    total: PARTITIONS as u16,
                    offset: rows.start as u32,
                    epoch: 1,
                    replica: r as u16,
                    replicas: REPLICAS as u16,
                };
                // replicas of a partition share the seed, so they hold
                // the same forest and a hedge cannot change an answer
                let (addr, handle) =
                    spawn_server(slice_points(refs, rows.clone()), w, forest_seed, Some(part))?;
                backends.push(addr);
                servers.push(handle);
            }
        }
        let router = Router::bind(RouterConfig {
            backends: backends.iter().map(|a| a.to_string()).collect(),
            replicas: REPLICAS,
            hedge: true,
            ..RouterConfig::default()
        })?;
        let addr = router.local_addr()?;
        Ok(Tier {
            addr,
            backends,
            servers,
            router: Some(std::thread::spawn(move || router.run())),
        })
    }

    pub fn is_routed(&self) -> bool {
        self.router.is_some()
    }

    /// The `Stats` op of every backend server, parsed.
    pub fn backend_stats(&self) -> io::Result<Vec<Value>> {
        self.backends.iter().map(|&a| stats_of(a)).collect()
    }

    /// The router's `Stats` op, parsed (`None` for a single server).
    pub fn router_stats(&self) -> io::Result<Option<Value>> {
        self.router
            .as_ref()
            .map(|_| stats_of(self.addr))
            .transpose()
    }

    /// Drain router then backends and join their threads.
    pub fn stop(self) -> io::Result<()> {
        if let Some(handle) = self.router {
            Client::connect(self.addr)?.shutdown()?;
            handle
                .join()
                .map_err(|_| io::Error::other("router thread panicked"))?;
        }
        for &addr in &self.backends {
            Client::connect(addr)?.shutdown()?;
        }
        for handle in self.servers {
            handle
                .join()
                .map_err(|_| io::Error::other("server thread panicked"))?;
        }
        Ok(())
    }
}

fn stats_of(addr: SocketAddr) -> io::Result<Value> {
    let text = Client::connect(addr)?.stats()?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}
