//! Thread-safety of the cross-table kernel — the invariant `gsknn-serve`
//! leans on. The server's precision lanes partition coalesced batches
//! across worker threads, each owning a private `Gsknn` executor; for the
//! service to be transparent, any such partition must be **bit-identical**
//! to one serial [`Gsknn::run_cross`] over the whole query set. Each query
//! row is computed independently inside the kernel, so chunking is purely
//! a scheduling choice — these properties pin that down under randomized
//! shapes, worker counts and both precisions.

use gsknn::core::{FusedScalar, Gsknn, GsknnConfig};
use gsknn::{DistanceKind, PointSet};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Traffic {
    queries: PointSet,
    refs: PointSet,
    k: usize,
    workers: usize,
}

fn traffic() -> impl Strategy<Value = Traffic> {
    (
        4usize..120,
        1usize..24,
        1usize..60,
        1usize..10,
        2usize..6,
        0u64..1000,
    )
        .prop_map(|(n, d, m, k, workers, seed)| Traffic {
            queries: gsknn::data::uniform(m, d, seed ^ 0x5eed),
            refs: gsknn::data::uniform(n, d, seed),
            k,
            workers,
        })
}

/// One row as comparable data: `(idx, exact distance bits)`. Bit-level
/// equality is the point — near-enough is not transparent serving.
fn rows<T: FusedScalar>(table: &knn_select::NeighborTable<T>) -> Vec<Vec<(u32, u64)>> {
    (0..table.len())
        .map(|i| {
            table
                .row(i)
                .iter()
                .map(|nb| (nb.idx, nb.dist.to_f64().to_bits()))
                .collect()
        })
        .collect()
}

/// Serial truth: one `run_cross` over every query.
fn serial<T: FusedScalar>(t: &Traffic, xq: &PointSet<T>, xr: &PointSet<T>) -> Vec<Vec<(u32, u64)>> {
    let q: Vec<usize> = (0..xq.len()).collect();
    let r: Vec<usize> = (0..xr.len()).collect();
    let table = Gsknn::<T>::new(GsknnConfig::for_scalar::<T>()).run_cross(
        xq,
        &q,
        xr,
        &r,
        t.k,
        DistanceKind::SqL2,
    );
    rows(&table)
}

/// The serve-lane shape: contiguous query chunks on `workers` threads,
/// each thread with its own executor, results reassembled in order.
fn partitioned<T: FusedScalar>(
    t: &Traffic,
    xq: &PointSet<T>,
    xr: &PointSet<T>,
) -> Vec<Vec<(u32, u64)>> {
    let r: Vec<usize> = (0..xr.len()).collect();
    let m = xq.len();
    let chunk = m.div_ceil(t.workers);
    let mut out: Vec<Vec<(u32, u64)>> = vec![Vec::new(); m];
    let mut slots: &mut [Vec<(u32, u64)>] = &mut out;
    std::thread::scope(|s| {
        let mut lo = 0;
        while lo < m {
            let hi = (lo + chunk).min(m);
            let (mine, rest) = slots.split_at_mut(hi - lo);
            slots = rest;
            let r = &r;
            s.spawn(move || {
                let q: Vec<usize> = (lo..hi).collect();
                let table = Gsknn::<T>::new(GsknnConfig::for_scalar::<T>()).run_cross(
                    xq,
                    &q,
                    xr,
                    r,
                    t.k,
                    DistanceKind::SqL2,
                );
                for (slot, row) in mine.iter_mut().zip(rows(&table)) {
                    *slot = row;
                }
            });
            lo = hi;
        }
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn worker_partition_is_bit_identical_to_serial_f64(t in traffic()) {
        let want = serial::<f64>(&t, &t.queries, &t.refs);
        let got = partitioned::<f64>(&t, &t.queries, &t.refs);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn worker_partition_is_bit_identical_to_serial_f32(t in traffic()) {
        let xq = t.queries.cast::<f32>();
        let xr = t.refs.cast::<f32>();
        let want = serial::<f32>(&t, &xq, &xr);
        let got = partitioned::<f32>(&t, &xq, &xr);
        prop_assert_eq!(got, want);
    }
}

/// The same invariant through the full service stack: concurrent clients
/// against a 2-worker-per-lane server get exactly what one serial
/// `run_cross` would have produced (exact index, 1 tree + leaf ≥ N).
#[test]
fn served_answers_equal_serial_run_cross() {
    use gsknn::serve::{Client, Outcome, ServeIndex, Server, ServerConfig};

    let n = 400;
    let d = 12;
    let k = 6;
    let refs = gsknn::data::uniform(n, d, 77);
    let queries = gsknn::data::uniform(48, d, 4242);

    let q: Vec<usize> = (0..queries.len()).collect();
    let r: Vec<usize> = (0..n).collect();
    let want = Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>()).run_cross(
        &queries,
        &q,
        &refs,
        &r,
        k,
        DistanceKind::SqL2,
    );

    let server = Server::bind(
        ServerConfig {
            ..ServerConfig::default()
        },
        ServeIndex::build(refs, 1, n, 7),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    std::thread::scope(|s| {
        for (i, chunk) in q.chunks(12).enumerate() {
            let queries = &queries;
            let want = &want;
            let chunk = chunk.to_vec();
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for &qi in &chunk {
                    match client
                        .query::<f64>(queries.point(qi), 1, k, 500)
                        .unwrap_or_else(|e| panic!("client {i} query {qi}: {e}"))
                        .outcome
                    {
                        Outcome::Neighbors(table) => {
                            let got: Vec<u32> = table.row(0).iter().map(|nb| nb.idx).collect();
                            let exp: Vec<u32> = want.row(qi).iter().map(|nb| nb.idx).collect();
                            assert_eq!(got, exp, "query {qi}");
                        }
                        other => panic!("query {qi} answered {other:?}"),
                    }
                }
            });
        }
    });

    Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    handle.join().expect("server thread");
}
