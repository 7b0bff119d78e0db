//! Per-layer probes of a traced run: each times calls into one layer's
//! public functions at the shape the workload gives that layer, so a
//! layer's number can be set beside the end-to-end metric it should move.
//! A layer the workload never reaches is left out (reported as 0).

use crate::gen::{Inputs, SplitMix64};
use crate::spec::{Kind, Workload, LADDER_QUERIES};
use crate::tier::{partition_rows, slice_points, Tier};
use dataset::{DistanceKind, PointSet};
use gemm_kernel::AlignedBuf;
use gsknn_core::microkernel::{tile_pass, PassMode};
use gsknn_core::model::Approach;
use gsknn_core::packing::{pack_q_panel, pack_r_panel};
use gsknn_core::{
    BatchScratch, FusedScalar, GemmParams, Gsknn, GsknnConfig, GsknnScalar, KernelStats,
    MachineParams, Model, ProblemSize, Variant,
};
use gsknn_serve::wire::{self, Precision, QueryBody, Request, Response};
use gsknn_serve::{Client, Outcome};
use knn_ref::GemmKnn;
use knn_select::{merge_partial_tables, BinaryMaxHeap, FourHeap, Neighbor, NeighborTable};
use rkdt::{Forest, RpTree};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Time budget of one probe.
const PROBE: Duration = Duration::from_millis(150);
/// Largest triad array of the bandwidth probe, bytes.
const STREAM_ARRAY_CAP: usize = 256 << 20;
/// Time budget of one ladder rung.
const RUNG: Duration = Duration::from_millis(400);

/// Median seconds per call of `f`, repeated for about `budget` (at least
/// three calls after one that warms caches and lazily sized buffers). A
/// call longer than the whole budget is its own sample: warm-up effects
/// are small beside it and the run is kept short.
fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed();
    if first > budget {
        return first.as_secs_f64();
    }
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples)
}

/// One coordinate table with the query and reference id lists a kernel
/// call of this workload gathers through.
pub struct Shape {
    pub x: PointSet<f64>,
    /// Query ids, as many as the largest probe needs (cycled).
    pub q: Vec<usize>,
    /// Reference ids of one kernel call as the workload issues it.
    pub r: Vec<usize>,
    /// Every reference id (the exact search the ladder's floor does).
    pub all_r: Vec<usize>,
}

impl Shape {
    pub fn of(w: &Workload, inputs: &Inputs) -> Shape {
        if w.kind == Kind::Kernel {
            let (q, r) = inputs.pairs[0].clone();
            return Shape {
                x: inputs.refs.clone(),
                q,
                all_r: r.clone(),
                r,
            };
        }
        // serving searches a separate query table; one merged table
        // (references first) lets every baseline take the same id lists
        let n = inputs.refs.len();
        let mut data = inputs.refs.as_slice().to_vec();
        data.extend_from_slice(inputs.queries.as_slice());
        let x = PointSet::from_vec(w.d, n + inputs.queries.len(), data);
        let index_refs = index_refs(w, inputs);
        let r = if w.exact() {
            (0..n).collect()
        } else {
            // a real leaf of the index: a general-stride id list
            RpTree::build(&index_refs, w.leaf, inputs.forest_seed).leaves()[0].to_vec()
        };
        Shape {
            x,
            q: (0..4096).map(|i| n + i % inputs.queries.len()).collect(),
            r,
            all_r: (0..n).collect(),
        }
    }
}

/// The reference set one server of this workload indexes.
fn index_refs(w: &Workload, inputs: &Inputs) -> PointSet<f64> {
    if w.kind == Kind::Route {
        slice_points(&inputs.refs, partition_rows(inputs.refs.len(), 0))
    } else {
        inputs.refs.clone()
    }
}

fn paper_flops(m: usize, n: usize, d: usize) -> f64 {
    (2 * d + 3) as f64 * m as f64 * n as f64
}

/// The roofline denominators, measured in this run.
fn machine(out: &mut Metrics) {
    // compute roof: the f64 micro-kernel on panels that stay in L1; a roof
    // is the best rate seen, so the fastest of five probes
    let dcb = 256;
    let t = (0..5)
        .map(|_| tile_secs::<f64>(dcb))
        .fold(f64::INFINITY, f64::min);
    out.insert(
        "machine.peak_gflops",
        paper_flops(f64::MR, f64::NR, dcb) / t / 1e9,
    );

    // bandwidth roof: triad over arrays of 4x the last-level cache, capped
    // so that first-touch page faults do not dominate the run (this box
    // reports a 260 MB L3; three 256 MiB arrays streamed in turn still
    // leave no line in it from one pass to the next)
    let llc = llc_bytes();
    let wanted = 4 * llc;
    let bytes = wanted.min(STREAM_ARRAY_CAP);
    let len = bytes / 8;
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&mut a);
    }
    println!(
        "machine: last-level cache {:.1} MB, triad arrays 3 x {:.1} MB{}",
        llc as f64 / 1e6,
        (len * 8) as f64 / 1e6,
        if bytes < wanted {
            " (capped, below 4x LLC)"
        } else {
            " (4x LLC)"
        }
    );
    out.insert("machine.stream_gbs", (3 * len * 8) as f64 / best / 1e9);
}

/// Largest cache of cpu0 in bytes (32 MB when sysfs does not say).
fn llc_bytes() -> usize {
    let mut best = 0usize;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, unit) = text.split_at(text.len() - 1);
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            _ => continue,
        };
        best = best.max(digits.parse::<usize>().unwrap_or(0) * scale);
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Seconds per `tile_pass` (final pass, squared l2) on L1-resident panels.
fn tile_secs<T: FusedScalar>(dcb: usize) -> f64 {
    let mut ap = AlignedBuf::<T>::zeroed(T::MR * dcb);
    let mut bp = AlignedBuf::<T>::zeroed(T::NR * dcb);
    for (i, v) in ap.as_mut_slice().iter_mut().enumerate() {
        *v = T::from_f64(0.25 + (i % 7) as f64 * 0.125);
    }
    for (i, v) in bp.as_mut_slice().iter_mut().enumerate() {
        *v = T::from_f64(0.5 + (i % 5) as f64 * 0.0625);
    }
    let norms = [T::from_f64(1.0); gsknn_scalar::MAX_TILE];
    let mut tile = [T::ZERO; gsknn_scalar::MAX_TILE];
    const TILES: usize = 4096;
    median_secs(PROBE / 3, || {
        for _ in 0..TILES {
            tile_pass(
                DistanceKind::SqL2,
                dcb,
                black_box(ap.as_slice()),
                bp.as_slice(),
                &norms,
                &norms,
                PassMode::Last {
                    prior: None,
                    out: &mut tile,
                },
            );
        }
        black_box(&tile);
    }) / TILES as f64
}

/// One fused-kernel call over `m` queries of the shape; returns seconds
/// per call (median) and the call's selection counters.
fn kernel_call<T: FusedScalar>(
    x: &PointSet<T>,
    q: &[usize],
    r: &[usize],
    k: usize,
    budget: Duration,
) -> (f64, KernelStats) {
    let mut exec = Gsknn::<T>::new(GsknnConfig::for_scalar::<T>());
    let mut table = NeighborTable::<T>::new(q.len(), k);
    let mut scratch = BatchScratch::<T>::new();
    let secs = median_secs(budget, || {
        table.reset(q.len(), k);
        exec.update_cross_reusing(x, q, x, r, DistanceKind::SqL2, &mut table, &mut scratch);
        black_box(&table);
    });
    (secs, exec.last_stats())
}

/// The `gsknn-core` layer at this workload's kernel shape. `call_secs`
/// overrides the probe's own timing of the workload-sized call (a kernel
/// workload has measured it over a whole pass).
fn core(w: &Workload, s: &Shape, call_secs: Option<f64>, out: &mut Metrics) {
    let (n, d, k) = (s.r.len(), w.d, w.k);
    let params = GemmParams::native_for::<f64>();
    let dcb = d.min(params.dc);
    out.insert("core.microkernel_ns_per_tile", tile_secs::<f64>(dcb) * 1e9);

    let mcb = w.m.min(params.mc);
    let mut q_panel = AlignedBuf::<f64>::zeroed(mcb.div_ceil(f64::MR) * f64::MR * dcb);
    let t = median_secs(PROBE / 3, || {
        pack_q_panel(&s.x, &s.q, 0, mcb, 0, dcb, q_panel.as_mut_slice());
        black_box(q_panel.as_slice());
    });
    out.insert("core.pack_q_ns_per_call", t * 1e9);
    let ncb = n.min(params.nc);
    let mut r_panel = AlignedBuf::<f64>::zeroed(ncb.div_ceil(f64::NR) * f64::NR * dcb);
    let t = median_secs(PROBE / 3, || {
        pack_r_panel(&s.x, &s.r, 0, ncb, 0, dcb, r_panel.as_mut_slice());
        black_box(r_panel.as_slice());
    });
    out.insert("core.pack_r_ns_per_call", t * 1e9);

    let mut own = None;
    for (name, m) in [
        ("core.kernel_ns_per_query_m1", 1usize),
        ("core.kernel_ns_per_query_m8", 8),
        ("core.kernel_ns_per_query_m32", 32),
        ("core.kernel_ns_per_query_m4096", 4096),
    ] {
        let (secs, stats) = kernel_call(&s.x, &s.q[..m], &s.r, k, PROBE);
        out.insert(name, secs * 1e9 / m as f64);
        if m == w.m {
            own = Some((secs, stats));
        }
    }
    let (probe_secs, stats) = own.expect("the workload's m is one of the probed sizes");
    let secs = call_secs.unwrap_or(probe_secs);
    out.insert("core.filter_rate", stats.filter_rate());
    out.insert("core.selection_rate", stats.selection_rate());

    let gflops = paper_flops(w.m, n, d) / secs / 1e9;
    out.insert("core.gflops", gflops);
    // computed, not counted: the model's slow-memory elements (pack R,
    // pack Q, write back), which ignore cache misses
    let elems = n * d + 2 * n + d * w.m + 2 * w.m + w.m * k;
    let flops_per_byte = paper_flops(w.m, n, d) / (8 * elems) as f64;
    out.insert("core.flops_per_byte", flops_per_byte);
    let roof = out["machine.peak_gflops"].min(out["machine.stream_gbs"] * flops_per_byte);
    out.insert("core.roofline_frac", gflops / roof);

    let size = ProblemSize { m: w.m, n, d, k };
    let exec = Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>());
    let approach = match exec.effective_variant(w.m, n, d, k) {
        Variant::Var6 => Approach::Var6,
        _ => Approach::Var1,
    };
    let predicted = Model::new(MachineParams::ivy_bridge_1core()).predict(&size, approach);
    out.insert("core.model_err_frac", (predicted - secs).abs() / secs);

    let x32 = s.x.cast::<f32>();
    let (secs32, _) = kernel_call(&x32, &s.q[..w.m], &s.r, k, PROBE);
    out.insert("core.f32_over_f64", probe_secs / secs32);
}

/// The `knn-select` layer: heaps fed one row of `n` candidates, and the
/// table paths a reply takes.
fn select(w: &Workload, s: &Shape, expected: Option<&NeighborTable<f64>>, out: &mut Metrics) {
    let mut rng = SplitMix64::new(0x005E_1EC7);
    let row: Vec<Neighbor> = (0..s.r.len())
        .map(|j| Neighbor::new(rng.next_f64(), j as u32))
        .collect();
    let t = median_secs(PROBE / 3, || {
        let mut heap = BinaryMaxHeap::<f64>::new(16);
        for &c in &row {
            heap.push(c);
        }
        black_box(heap.threshold());
    });
    out.insert("select.heap_ns_per_row_k16", t * 1e9);
    let t = median_secs(PROBE / 3, || {
        let mut heap = FourHeap::<f64>::new(512);
        for &c in &row {
            heap.push(c);
        }
        black_box(heap.threshold());
    });
    out.insert("select.heap_ns_per_row_k512", t * 1e9);

    let Some(expected) = expected else {
        return; // a kernel workload never encodes or merges a table
    };
    let part = |row0: usize, shift: u32| {
        let mut t = NeighborTable::<f64>::new(w.m, w.k);
        for i in 0..w.m {
            let row: Vec<Neighbor> = expected
                .row(row0 + i)
                .iter()
                .map(|nb| Neighbor::new(nb.dist, nb.idx + shift))
                .collect();
            t.set_row(i, &row);
        }
        t
    };
    let (a, b) = (part(0, 0), part(w.m, 1 << 24));
    let t = median_secs(PROBE / 3, || {
        black_box(merge_partial_tables(&[&a, &b], w.k));
    });
    out.insert("select.merge_partial_ns_per_query", t * 1e9 / w.m as f64);
    let t = median_secs(PROBE / 3, || {
        black_box(a.to_bytes());
    });
    out.insert("select.table_encode_ns", t * 1e9);
    let bytes = a.to_bytes();
    let t = median_secs(PROBE / 3, || {
        black_box(NeighborTable::<f64>::from_bytes(&bytes).is_ok());
    });
    out.insert("select.table_decode_ns", t * 1e9);
}

/// SNIPPETS.md snippet 1: scan every reference, keep a sorted vector of
/// the best `k` by binary-search insertion. The floor every layer is set
/// beside.
pub fn floor_sorted_insert(x: &PointSet<f64>, q: usize, r: &[usize], k: usize) -> Vec<(u32, f64)> {
    let query = x.point(q);
    let mut best: Vec<(u32, f64)> = Vec::with_capacity(k + 1);
    for &j in r {
        let dist: f64 = query
            .iter()
            .zip(x.point(j))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        if best.len() == k && dist >= best[k - 1].1 {
            continue;
        }
        let pos = best.partition_point(|&(_, d)| d <= dist);
        best.insert(pos, (j as u32, dist));
        best.truncate(k);
    }
    best
}

/// The plain single-threaded baselines at the workload's kernel shape.
fn reference(w: &Workload, s: &Shape, out: &mut Metrics) {
    let mut gemm = GemmKnn::<f64>::new(GemmParams::native_for::<f64>(), false);
    let t = median_secs(PROBE, || {
        black_box(gemm.run(&s.x, &s.q[..w.m], &s.r, w.k));
    });
    out.insert("ref.gemm_knn_ns_per_query", t * 1e9 / w.m as f64);
    let rows = w.m.min(32);
    let t = median_secs(PROBE, || {
        for &q in &s.q[..rows] {
            black_box(floor_sorted_insert(&s.x, q, &s.r, w.k));
        }
    });
    out.insert(
        "ref.floor_sorted_insert_ns_per_query",
        t * 1e9 / rows as f64,
    );
}

/// The `rkdt` layer over the reference set one server indexes.
fn index(w: &Workload, inputs: &Inputs, out: &mut Metrics) {
    let refs = index_refs(w, inputs);
    let t = Instant::now();
    let forest = Forest::build(&refs, w.trees, w.leaf, inputs.forest_seed);
    out.insert("rkdt.build_s", t.elapsed().as_secs_f64());

    let mut exec = Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>());
    for (name, m) in [
        ("rkdt.query_ns_per_query_m1", 1usize),
        ("rkdt.query_ns_per_query_m32", 32),
    ] {
        let batches: Vec<PointSet<f64>> = (0..16)
            .map(|b| slice_points(&inputs.queries, b * m..(b + 1) * m))
            .collect();
        let mut next = 0;
        let t = median_secs(PROBE, || {
            let batch = &batches[next % batches.len()];
            next += 1;
            black_box(forest.query_with(&mut exec, &refs, batch, w.k, DistanceKind::SqL2));
        });
        out.insert(name, t * 1e9 / m as f64);
    }

    out.insert(
        "rkdt.leaf_groups_per_batch",
        leaf_groups_per_batch(w, &refs, inputs),
    );
}

/// (tree, leaf) groups a 32-query batch of the stream splits into, i.e.
/// kernel calls per batch, averaged over the pool. The trees are rebuilt
/// here exactly as `Forest::build` does.
fn leaf_groups_per_batch(w: &Workload, refs: &PointSet<f64>, inputs: &Inputs) -> f64 {
    let trees: Vec<RpTree> = (0..w.trees)
        .map(|t| RpTree::build(refs, w.leaf, inputs.forest_seed + t as u64))
        .collect();
    let batches = inputs.queries.len() / 32;
    let mut groups = 0usize;
    for b in 0..batches {
        for tree in &trees {
            let leaves: BTreeSet<*const usize> = (b * 32..(b + 1) * 32)
                .map(|qi| tree.route(inputs.queries.point(qi)).as_ptr())
                .collect();
            groups += leaves.len();
        }
    }
    groups as f64 / batches as f64
}

/// The request `i` of the stream: rows `i*m..` of the query pool.
pub fn request(w: &Workload, queries: &PointSet<f64>, i: usize) -> Request {
    Request::Query(QueryBody {
        precision: Precision::F64,
        k: w.k,
        deadline_ms: w.deadline_ms,
        trace_id: i as u64 + 1,
        dim: w.d,
        m: w.m,
        coords: queries.as_slice()[i * w.m * w.d..(i + 1) * w.m * w.d].to_vec(),
    })
}

/// The `wire` codec at the workload's request shape.
fn wire_codec(w: &Workload, inputs: &Inputs, expected: &NeighborTable<f64>, out: &mut Metrics) {
    let req = request(w, &inputs.queries, 0);
    let t = median_secs(PROBE / 3, || {
        black_box(wire::encode_request(&req));
    });
    out.insert("wire.encode_req_ns", t * 1e9);
    let req_bytes = wire::encode_request(&req);
    let t = median_secs(PROBE / 3, || {
        black_box(wire::decode_request(&req_bytes).is_ok());
    });
    out.insert("wire.decode_req_ns", t * 1e9);

    let mut reply = NeighborTable::<f64>::new(w.m, w.k);
    for i in 0..w.m {
        reply.set_row(i, expected.row(i));
    }
    let resp = Response::ok_body(reply.to_bytes().to_vec()).with_trace(1);
    let t = median_secs(PROBE / 3, || {
        black_box(wire::encode_response(&resp));
    });
    out.insert("wire.encode_resp_ns", t * 1e9);
    let resp_bytes = wire::encode_response(&resp);
    let t = median_secs(PROBE / 3, || {
        black_box(wire::decode_response(&resp_bytes).is_ok());
    });
    out.insert("wire.decode_resp_ns", t * 1e9);
    // both frames with their 4-byte length prefixes
    let bytes = 4 + req_bytes.len() + 4 + resp_bytes.len();
    out.insert("wire.bytes_per_query", bytes as f64 / w.m as f64);
}

/// Median ns per query of `one(i)` over the first ladder queries, within
/// the rung's time budget.
fn rung(queries: usize, mut one: impl FnMut(usize) -> io::Result<()>) -> io::Result<f64> {
    one(0)?;
    let started = Instant::now();
    let mut samples = Vec::new();
    for i in 0..queries.min(LADDER_QUERIES) {
        if samples.len() >= 8 && started.elapsed() > RUNG {
            break;
        }
        let t = Instant::now();
        one(i)?;
        samples.push(t.elapsed().as_secs_f64() * 1e9);
    }
    Ok(crate::stats::median(&samples))
}

fn client_query(client: &mut Client, w: &Workload, point: &[f64], id: u64) -> io::Result<()> {
    let reply = client.query_traced::<f64>(point, 1, w.k, w.deadline_ms.max(250), id)?;
    match reply.outcome {
        Outcome::Neighbors(_) | Outcome::Partial { .. } => Ok(()),
        other => Err(io::Error::other(format!("ladder query answered {other:?}"))),
    }
}

/// The five-layer table: the stream's first queries replayed one at a
/// time (nothing queues) through each layer. `wire + shard = tcp - index`,
/// `router = routed - tcp`. A kernel workload has no index, socket or
/// router, so its ladder stops at the kernel rung.
fn ladder(
    w: &Workload,
    inputs: &Inputs,
    s: &Shape,
    tier: Option<&Tier>,
    out: &mut Metrics,
) -> io::Result<()> {
    let k = w.k;
    let queries = if w.kind == Kind::Kernel {
        s.q.len()
    } else {
        inputs.queries.len()
    };
    out.insert(
        "ladder.floor_ns",
        rung(queries, |i| {
            black_box(floor_sorted_insert(&s.x, s.q[i], &s.all_r, k));
            Ok(())
        })?,
    );
    let mut gemm = GemmKnn::<f64>::new(GemmParams::native_for::<f64>(), false);
    out.insert(
        "ladder.gemm_ref_ns",
        rung(queries, |i| {
            black_box(gemm.run(&s.x, &s.q[i..i + 1], &s.all_r, k));
            Ok(())
        })?,
    );
    let mut exec = Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>());
    let mut table = NeighborTable::<f64>::new(1, k);
    let mut scratch = BatchScratch::<f64>::new();
    out.insert(
        "ladder.kernel_ns",
        rung(queries, |i| {
            table.reset(1, k);
            exec.update_cross_reusing(
                &s.x,
                &s.q[i..i + 1],
                &s.x,
                &s.all_r,
                DistanceKind::SqL2,
                &mut table,
                &mut scratch,
            );
            black_box(&table);
            Ok(())
        })?,
    );
    let Some(tier) = tier else {
        return Ok(());
    };

    // index: the single-node index in-process, no socket
    let points: Vec<PointSet<f64>> = (0..queries.min(LADDER_QUERIES))
        .map(|i| slice_points(&inputs.queries, i..i + 1))
        .collect();
    if w.exact() {
        out.insert("ladder.index_ns", out["ladder.kernel_ns"]);
    } else {
        let forest = Forest::build(&inputs.refs, w.trees, w.leaf, inputs.forest_seed);
        out.insert(
            "ladder.index_ns",
            rung(queries, |i| {
                black_box(forest.query_with(
                    &mut exec,
                    &inputs.refs,
                    &points[i],
                    k,
                    DistanceKind::SqL2,
                ));
                Ok(())
            })?,
        );
    }

    // tcp and routed: whichever tier the workload did not start is
    // started here and stopped again
    let (single, routed, extra) = if tier.is_routed() {
        let single = Tier::single(w, &inputs.refs, inputs.forest_seed)?;
        (single.addr, tier.addr, single)
    } else {
        let routed = Tier::routed(w, &inputs.refs, inputs.forest_seed)?;
        (tier.addr, routed.addr, routed)
    };
    let measured = (|| {
        for (name, addr) in [("ladder.tcp_ns", single), ("ladder.routed_ns", routed)] {
            let mut client = Client::connect(addr)?;
            let ns = rung(queries, |i| {
                client_query(&mut client, w, inputs.queries.point(i), i as u64 + 1)
            })?;
            out.insert(name, ns);
        }
        let routed_tier = if tier.is_routed() { tier } else { &extra };
        router_layer(w, inputs, routed_tier, out)
    })();
    extra.stop()?;
    measured
}

/// The `gsknn-router` layer: its cost as a subtraction, its counters,
/// and how unevenly the partitions answer.
fn router_layer(w: &Workload, inputs: &Inputs, routed: &Tier, out: &mut Metrics) -> io::Result<()> {
    out.insert(
        "router.fanout_overhead_us",
        (out["ladder.routed_ns"] - out["ladder.tcp_ns"]) / 1e3,
    );
    // each backend asked directly, one query at a time
    let mut partition_p50 = Vec::new();
    for replicas in routed.backends.chunks(crate::tier::REPLICAS) {
        let mut samples = Vec::new();
        for &addr in replicas {
            let mut client = Client::connect(addr)?;
            for i in 0..200 {
                let t = Instant::now();
                client_query(&mut client, w, inputs.queries.point(i), i as u64 + 1)?;
                samples.push(t.elapsed().as_secs_f64());
            }
        }
        partition_p50.push(crate::stats::median(&samples));
    }
    let fastest = partition_p50.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = partition_p50.iter().copied().fold(0.0, f64::max);
    out.insert("router.backend_skew_frac", slowest / fastest);
    let stats = routed.router_stats()?.expect("a routed tier has a router");
    let count = |key: &str| stats.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
    out.insert("router.hedges_total", count("hedges"));
    out.insert("router.failovers_total", count("replica_failovers"));
    out.insert("router.degraded_total", count("degraded"));
    Ok(())
}

/// Run every probe that applies to `w`. `tier` is the workload's own
/// running tier (`None` for a kernel workload), `expected` its replies.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    tier: Option<&Tier>,
    expected: Option<&NeighborTable<f64>>,
    call_secs: Option<f64>,
) -> io::Result<Metrics> {
    let mut out = Metrics::new();
    let shape = Shape::of(w, inputs);
    machine(&mut out);
    core(w, &shape, call_secs, &mut out);
    select(w, &shape, expected, &mut out);
    reference(w, &shape, &mut out);
    if let Some(expected) = expected {
        index(w, inputs, &mut out);
        wire_codec(w, inputs, expected, &mut out);
    }
    ladder(w, inputs, &shape, tier, &mut out)?;
    Ok(out)
}

/// Sum of a counter over the `Stats` JSON of several servers.
fn stat_sum(stats: &[serde_json::Value], key: &str) -> f64 {
    stats
        .iter()
        .map(|s| s.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0))
        .sum()
}

/// Mean f64-lane roofline headroom over servers that ran batches.
fn headroom_mean(stats: &[serde_json::Value]) -> f64 {
    let rows: Vec<f64> = stats
        .iter()
        .filter_map(|s| s.get("roofline")?.as_array())
        .flatten()
        .filter(|row| row.get("lane").and_then(|l| l.as_str()) == Some("f64"))
        .filter_map(|row| row.get("headroom")?.as_f64())
        .collect();
    if rows.is_empty() {
        0.0
    } else {
        rows.iter().sum::<f64>() / rows.len() as f64
    }
}

/// The `gsknn-serve` layer from the `Stats` op before and after a pass.
pub fn serve_layer(before: &[serde_json::Value], after: &[serde_json::Value], out: &mut Metrics) {
    let delta = |key: &str| stat_sum(after, key) - stat_sum(before, key);
    let batches = delta("batches");
    let (model, deadline) = (delta("flush_model"), delta("flush_deadline"));
    let flushes = model + deadline + delta("flush_drain");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.insert("serve.batch_m_mean", ratio(delta("queries"), batches));
    out.insert("serve.flush_model_frac", ratio(model, flushes));
    out.insert("serve.flush_deadline_frac", ratio(deadline, flushes));
    out.insert("serve.coalesce_ratio", ratio(model, model + deadline));
    out.insert(
        "serve.queue_high_water",
        after
            .iter()
            .filter_map(|s| s.get("queue_high_water")?.as_f64())
            .fold(0.0, f64::max),
    );
    out.insert("serve.busy_total", delta("busy"));
    out.insert("serve.timeout_total", delta("timeouts"));
    out.insert("serve.roofline_headroom", headroom_mean(after));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use crate::verify;

    /// The exact-count metrics of `serve_m1_open` for a seed, with the
    /// `workload_hash` in front.
    fn counts(seed: u64) -> Vec<f64> {
        let w = workload("serve_m1_open").unwrap();
        let inputs = Inputs::generate(w, seed, 0.5);
        let expected =
            verify::expected_replies(w, &inputs.refs, &inputs.queries, inputs.forest_seed);
        let shape = Shape::of(w, &inputs);
        let (_, stats) = kernel_call(&shape.x, &shape.q[..w.m], &shape.r, w.k, Duration::ZERO);
        let mut wire = Metrics::new();
        wire_codec(w, &inputs, &expected, &mut wire);
        let (recall, _) = verify::sample_recall(w, &inputs.refs, &inputs.queries, &expected);
        vec![
            inputs.hash() as f64,
            stats.filter_rate(),
            stats.selection_rate(),
            wire["wire.bytes_per_query"],
            leaf_groups_per_batch(w, &inputs.refs, &inputs),
            recall,
        ]
    }

    #[test]
    fn exact_count_metrics_repeat_for_a_seed() {
        let (a, b, other) = (counts(5), counts(5), counts(6));
        assert_eq!(a, b, "same seed, same counts");
        assert_ne!(a[0], other[0], "another seed moves the workload hash");
        assert!(a[5] > 0.5 && a[5] < 1.0, "forest recall {}", a[5]);
        assert_eq!(a[3], 296.0, "m=1, d=16, k=8 request and reply frames");
    }

    #[test]
    fn floor_matches_the_oracle() {
        let x = dataset::uniform(300, 5, 3);
        let r: Vec<usize> = (10..300).collect();
        let got = floor_sorted_insert(&x, 4, &r, 6);
        let want = knn_ref::oracle::exact(&x, &[4], &r, 6, DistanceKind::SqL2);
        let ids: Vec<u32> = got.iter().map(|g| g.0).collect();
        let want_ids: Vec<u32> = want.row(0).iter().map(|nb| nb.idx).collect();
        assert_eq!(ids, want_ids);
    }
}
