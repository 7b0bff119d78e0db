//! One function per `gsknn-cli` subcommand. Each returns the text it
//! would print (so tests can assert on output without capturing stdout).

use crate::args::{parse_kind, ArgMap, CliError};
use cluster::{kmeans, KMeansConfig};
use dataset::{gaussian_embedded, io, uniform, PointSet};
use gsknn_core::model::Approach;
use gsknn_core::{FusedScalar, Gsknn, GsknnConfig, GsknnScalar, MachineParams, Model, ProblemSize};
use knn_graph::{build_with_forest, connected_components, Symmetrize};
use rkdt::{AllNnSolver, Forest, GsknnLeaf, RkdtConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The `--precision` flag: which element type a command computes in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Precision {
    F64,
    F32,
}

fn parse_precision(args: &ArgMap) -> Result<Precision, CliError> {
    match args.str_or("precision", "f64").as_str() {
        "f64" | "double" => Ok(Precision::F64),
        "f32" | "single" | "float" => Ok(Precision::F32),
        other => Err(CliError(format!(
            "unknown --precision '{other}' (expected f64 or f32)"
        ))),
    }
}

/// `gen`: synthesize a dataset and write it as CSV.
pub fn cmd_gen(args: &ArgMap) -> Result<String, CliError> {
    let n: usize = args.get_or("n", 1000)?;
    let d: usize = args.get_or("d", 16)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let dist = args.str_or("dist", "uniform");
    let out = PathBuf::from(args.str_req("out")?);
    let x = match dist.as_str() {
        "uniform" => uniform(n, d, seed),
        "gaussian" => {
            let clusters: usize = args.get_or("clusters", 8)?;
            gaussian_embedded(n, d, clusters, seed)
        }
        other => return Err(CliError(format!("unknown --dist '{other}'"))),
    };
    io::save_csv(&x, &out).map_err(|e| CliError(e.to_string()))?;
    Ok(format!("wrote {n} x {d} ({dist}) to {}", out.display()))
}

fn load(args: &ArgMap) -> Result<PointSet, CliError> {
    let path = PathBuf::from(args.str_req("in")?);
    io::load_csv(&path).map_err(|e| CliError(format!("{}: {e}", path.display())))
}

/// `knn`: exact k nearest neighbors of the first `--m` points (or all).
/// `--precision f32` casts the dataset and runs the single-precision
/// fused kernel (8×8 micro-tiles) instead of the paper's double path.
pub fn cmd_knn(args: &ArgMap) -> Result<String, CliError> {
    let x = load(args)?;
    match parse_precision(args)? {
        Precision::F64 => knn_run(&x, args),
        Precision::F32 => knn_run(&x.cast::<f32>(), args),
    }
}

fn knn_run<T: FusedScalar>(x: &PointSet<T>, args: &ArgMap) -> Result<String, CliError> {
    let k: usize = args.get_or("k", 8)?;
    let m: usize = args.get_or("m", x.len().min(10))?;
    let kind = parse_kind(&args.str_or("kind", "sq-l2"))?;
    let q: Vec<usize> = (0..m.min(x.len())).collect();
    let r: Vec<usize> = (0..x.len()).collect();
    let t0 = std::time::Instant::now();
    let table = Gsknn::<T>::new(GsknnConfig::for_scalar::<T>()).run(x, &q, &r, k, kind);
    let dt = t0.elapsed();
    let mut out = format!(
        "exact {}-NN ({}, {}) of {} queries against {} points in {dt:.2?}\n",
        k,
        kind.name(),
        T::NAME,
        q.len(),
        x.len()
    );
    for (i, &qi) in q.iter().enumerate().take(10) {
        write!(out, "{qi}:").unwrap();
        for nb in table.row(i).iter().filter(|nb| nb.idx != u32::MAX) {
            write!(out, " {}({:.4})", nb.idx, nb.dist).unwrap();
        }
        out.push('\n');
    }
    Ok(out)
}

/// `allnn`: approximate all-nearest-neighbors with the rkdt solver.
/// `--precision f32` runs the whole tree/leaf pipeline in single
/// precision; `--lpt P` swaps the rayon leaf loop for the paper's §2.5
/// model-guided LPT schedule over `P` workers.
pub fn cmd_allnn(args: &ArgMap) -> Result<String, CliError> {
    let x = load(args)?;
    match parse_precision(args)? {
        Precision::F64 => allnn_run(&x, args),
        Precision::F32 => allnn_run(&x.cast::<f32>(), args),
    }
}

fn allnn_run<T: FusedScalar>(x: &PointSet<T>, args: &ArgMap) -> Result<String, CliError> {
    let k: usize = args.get_or("k", 8)?;
    let kind = parse_kind(&args.str_or("kind", "sq-l2"))?;
    let cfg = RkdtConfig {
        leaf_size: args.get_or("leaf", 1024)?,
        iterations: args.get_or("iters", 6)?,
        seed: args.get_or("seed", 1)?,
        parallel_leaves: true,
        lpt_workers: args.opt("lpt")?,
    };
    let t0 = std::time::Instant::now();
    let (table, stats) = AllNnSolver::new(cfg).solve(
        x,
        k,
        || GsknnLeaf::<T>::new(GsknnConfig::for_scalar::<T>(), kind),
        None,
    );
    let dt = t0.elapsed();
    let mut out = format!(
        "all-{k}-NN ({}) of {} points in {dt:.2?}\n",
        T::NAME,
        x.len()
    );
    for s in &stats {
        writeln!(
            out,
            "iter {:>2}: {:>5.1}% rows improved, kernel {:.3}s",
            s.iter,
            100.0 * s.changed_fraction,
            s.kernel_seconds
        )
        .unwrap();
    }
    if let Some(path) = args.vals_out() {
        save_table(&table, &path)?;
        writeln!(out, "neighbor table written to {}", path.display()).unwrap();
    }
    Ok(out)
}

impl ArgMap {
    fn vals_out(&self) -> Option<PathBuf> {
        let s = self.str_or("out", "");
        if s.is_empty() {
            None
        } else {
            Some(PathBuf::from(s))
        }
    }
}

fn save_table<T: GsknnScalar>(
    table: &knn_select::NeighborTable<T>,
    path: &std::path::Path,
) -> Result<(), CliError> {
    let mut s = String::new();
    for i in 0..table.len() {
        for (p, nb) in table.row(i).iter().enumerate() {
            if p > 0 {
                s.push(',');
            }
            write!(s, "{}:{:.6e}", nb.idx as i64, nb.dist.to_f64()).unwrap();
        }
        s.push('\n');
    }
    std::fs::write(path, s).map_err(|e| CliError(e.to_string()))
}

/// `query`: out-of-sample forest search (`--in` references, `--queries`).
pub fn cmd_query(args: &ArgMap) -> Result<String, CliError> {
    let x = load(args)?;
    let qpath = PathBuf::from(args.str_req("queries")?);
    let queries = io::load_csv(&qpath).map_err(|e| CliError(e.to_string()))?;
    let k: usize = args.get_or("k", 8)?;
    let kind = parse_kind(&args.str_or("kind", "sq-l2"))?;
    let trees: usize = args.get_or("trees", 8)?;
    let leaf: usize = args.get_or("leaf", 512)?;
    let forest = Forest::build(&x, trees, leaf, args.get_or("seed", 1)?);
    let t0 = std::time::Instant::now();
    let table = forest.query(&x, &queries, k, kind, GsknnConfig::default());
    let dt = t0.elapsed();
    let mut out = format!(
        "{} queries x {k}-NN via {trees} trees in {dt:.2?}\n",
        queries.len()
    );
    for i in 0..queries.len().min(10) {
        write!(out, "q{i}:").unwrap();
        for nb in table.row(i).iter().filter(|nb| nb.idx != u32::MAX) {
            write!(out, " {}({:.4})", nb.idx, nb.dist).unwrap();
        }
        out.push('\n');
    }
    Ok(out)
}

/// `kmeans`: Lloyd's clustering.
pub fn cmd_kmeans(args: &ArgMap) -> Result<String, CliError> {
    let x = load(args)?;
    let cfg = KMeansConfig {
        clusters: args.get_or("clusters", 8)?,
        max_iters: args.get_or("iters", 50)?,
        tol: args.get_or("tol", 1e-6)?,
        seed: args.get_or("seed", 0xC1)?,
    };
    let t0 = std::time::Instant::now();
    let res = kmeans(&x, &cfg);
    let dt = t0.elapsed();
    let mut sizes = vec![0usize; cfg.clusters];
    for &a in &res.assignment {
        sizes[a as usize] += 1;
    }
    Ok(format!(
        "k-means: {} clusters over {} points, {} iterations in {dt:.2?}\ninertia {:.4}\ncluster sizes {:?}\n",
        cfg.clusters,
        x.len(),
        res.iterations,
        res.inertia,
        sizes
    ))
}

/// `graph`: approximate kNN graph + component statistics.
pub fn cmd_graph(args: &ArgMap) -> Result<String, CliError> {
    let x = load(args)?;
    let k: usize = args.get_or("k", 8)?;
    let kind = parse_kind(&args.str_or("kind", "sq-l2"))?;
    let sym = match args.str_or("sym", "union").as_str() {
        "none" => Symmetrize::None,
        "union" => Symmetrize::Union,
        "mutual" => Symmetrize::Mutual,
        other => return Err(CliError(format!("unknown --sym '{other}'"))),
    };
    let cfg = RkdtConfig {
        leaf_size: args.get_or("leaf", 512)?,
        iterations: args.get_or("iters", 6)?,
        seed: args.get_or("seed", 1)?,
        parallel_leaves: true,
        lpt_workers: args.opt("lpt")?,
    };
    let t0 = std::time::Instant::now();
    let g = build_with_forest(&x, k, kind, sym, cfg);
    let comps = connected_components(&g);
    let dt = t0.elapsed();
    let (dmin, dmean, dmax) = g.degree_stats();
    let mut sizes = comps.sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes.truncate(10);
    Ok(format!(
        "kNN graph: {} vertices, {} edges in {dt:.2?}\ndegree min/mean/max = {dmin}/{dmean:.2}/{dmax}\n{} components; largest: {:?}\n",
        g.num_vertices(),
        g.num_edges(),
        comps.count(),
        sizes
    ))
}

/// `model`: §2.6 performance-model predictions for a problem size.
pub fn cmd_model(args: &ArgMap) -> Result<String, CliError> {
    let m: usize = args.get_or("m", 8192)?;
    let n: usize = args.get_or("n", 8192)?;
    let d: usize = args.get_or("d", 64)?;
    let k: usize = args.get_or("k", 16)?;
    let model = Model::new(MachineParams::ivy_bridge_1core());
    let p = ProblemSize { m, n, d, k };
    let mut out =
        format!("performance model (paper Ivy Bridge constants), m={m} n={n} d={d} k={k}\n");
    for (name, a) in [
        ("GSKNN Var#1", Approach::Var1),
        ("GSKNN Var#6", Approach::Var6),
        ("GEMM+heap  ", Approach::Gemm),
    ] {
        writeln!(
            out,
            "{name}: {:>8.2} ms predicted, {:>7.2} GFLOPS",
            model.predict(&p, a) * 1e3,
            model.gflops(&p, a)
        )
        .unwrap();
    }
    if let Some(thr) = model.threshold_k(m, n, d, 8192) {
        writeln!(
            out,
            "Figure 5's predicted Var#1→Var#6 switch at k = {thr} (the kernel runs Var#1 at every k)"
        )
        .unwrap();
    }
    Ok(out)
}

/// `stream`: demonstrate the streaming all-NN maintainer — seed from
/// `--in`, then insert the points of `--batch` and report how the table
/// grew (the paper's "frequent updates of X" scenario).
pub fn cmd_stream(args: &ArgMap) -> Result<String, CliError> {
    use rkdt::{GsknnLeaf, StreamingAllNn, StreamingConfig};
    let x = load(args)?;
    let batch_path = PathBuf::from(args.str_req("batch")?);
    let batch = io::load_csv(&batch_path).map_err(|e| CliError(e.to_string()))?;
    if batch.dim() != x.dim() {
        return Err(CliError(format!(
            "dimension mismatch: --in is {}-d, --batch is {}-d",
            x.dim(),
            batch.dim()
        )));
    }
    let k: usize = args.get_or("k", 8)?;
    let kind = parse_kind(&args.str_or("kind", "sq-l2"))?;
    let cfg = StreamingConfig {
        leaf_size: args.get_or("leaf", 1024)?,
        initial_iterations: args.get_or("iters", 4)?,
        seed: args.get_or("seed", 1)?,
    };
    let n0 = x.len();
    let t0 = std::time::Instant::now();
    let mut s = StreamingAllNn::new(x, k, cfg, GsknnLeaf::new(GsknnConfig::default(), kind));
    let seed_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let range = s.insert(batch.as_slice());
    let insert_time = t1.elapsed();
    let fresh = range
        .clone()
        .filter(|&i| s.table().row(i)[0].dist.is_finite())
        .count();
    Ok(format!(
        "streamed all-{k}-NN: seeded {n0} points in {seed_time:.2?}, \
inserted {} more in {insert_time:.2?}\ntable now covers {} points; \
{fresh}/{} new points have neighbors immediately\n",
        range.len(),
        s.points().len(),
        range.len(),
    ))
}

/// `profile`: run a synthetic problem under the observability layer and
/// report the configured kernel's phase times, model-vs-measured drift and
/// scheduler telemetry. `--precision f32` profiles the single-precision
/// path against the rescaled machine model. Writes the full report as
/// JSON under `--outdir` (default `bench_out/`).
pub fn cmd_profile(args: &ArgMap) -> Result<String, CliError> {
    match parse_precision(args)? {
        Precision::F64 => profile_run_cmd::<f64>(args),
        Precision::F32 => profile_run_cmd::<f32>(args),
    }
}

fn profile_run_cmd<T: FusedScalar>(args: &ArgMap) -> Result<String, CliError> {
    use gsknn_core::scheduler::{run_task_parallel_traced, KnnTask};
    use gsknn_obs::{profile_synthetic, SchedulerReport};

    let m: usize = args.get_or("m", 8192)?;
    let n: usize = args.get_or("n", 8192)?;
    let d: usize = args.get_or("d", 64)?;
    let k: usize = args.get_or("k", 16)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let reps: usize = args.get_or("reps", 3)?;
    let kind = parse_kind(&args.str_or("kind", "sq-l2"))?;
    let workers: usize = args.get_or("p", 4)?;
    let ntasks: usize = args.get_or("tasks", 2 * workers.max(1))?;
    let outdir = PathBuf::from(args.str_or("outdir", "bench_out"));
    args.reject_unread("profile")?; // before seconds of kernel runs

    let machine = MachineParams::ivy_bridge_1core();
    let report = profile_synthetic::<T>(m, n, d, k, seed, kind, machine, reps);
    let mut out = report.render_table();

    // Scheduler telemetry: the same problem split into `--tasks` query
    // chunks, LPT-scheduled over `--p` workers by model-predicted cost.
    let x = dataset::uniform(m.max(n).max(1), d, seed).cast::<T>();
    let chunk = m.div_ceil(ntasks.max(1)).max(1);
    let tasks: Vec<KnnTask> = (0..m)
        .step_by(chunk)
        .map(|lo| KnnTask {
            q_idx: (lo..(lo + chunk).min(m)).collect(),
            r_idx: (0..n).collect(),
            k,
        })
        .collect();
    let sched = if tasks.is_empty() {
        None
    } else {
        let (_, tel) = run_task_parallel_traced(
            &x,
            &tasks,
            kind,
            &GsknnConfig::for_scalar::<T>(),
            machine,
            workers.max(1),
        );
        let sr = SchedulerReport::from_telemetry(&tel);
        out.push('\n');
        out.push_str(&sr.render_table());
        Some(sr)
    };

    let mut doc = vec![("profile".to_string(), report.to_json())];
    if let Some(sr) = &sched {
        doc.push(("scheduler".to_string(), sr.to_json()));
    }
    let json = serde_json::Value::Object(doc);
    std::fs::create_dir_all(&outdir).map_err(|e| CliError(e.to_string()))?;
    let path = outdir.join(format!("profile_m{m}_n{n}_d{d}_k{k}_{}.json", T::NAME));
    std::fs::write(&path, json.to_string()).map_err(|e| CliError(e.to_string()))?;
    writeln!(out, "\nreport written to {}", path.display()).unwrap();
    Ok(out)
}

/// `tune`: show detected caches and the §2.4 analytically derived
/// blocking parameters next to the paper's.
pub fn cmd_tune(_args: &ArgMap) -> Result<String, CliError> {
    use gsknn_core::GemmParams;
    let mut out = String::new();
    match gemm_kernel::CacheSizes::detect() {
        Some(c) => {
            writeln!(
                out,
                "detected caches: L1d {} KB, L2 {} KB, L3 {} KB",
                c.l1d / 1024,
                c.l2 / 1024,
                c.l3 / 1024
            )
            .unwrap();
            let p = GemmParams::for_caches(&c);
            writeln!(
                out,
                "derived  : dc = {:>5}, mc = {:>5}, nc = {:>6}",
                p.dc, p.mc, p.nc
            )
            .unwrap();
        }
        None => writeln!(out, "cache detection failed; using paper parameters").unwrap(),
    }
    let ivy = GemmParams::ivy_bridge();
    writeln!(
        out,
        "paper    : dc = {:>5}, mc = {:>5}, nc = {:>6} (Ivy Bridge)",
        ivy.dc, ivy.mc, ivy.nc
    )
    .unwrap();
    Ok(out)
}

/// `serve`: load (or synthesize) an index and answer kNN queries over
/// TCP until `query-remote --op shutdown` or SIGTERM. Blocks; prints the
/// final [`gsknn_serve::ServeReport`] when it drains.
/// Parse an `i/N` slot spec (`--partition 0/2`, `--replica 1/2`) into
/// `(id, total)`, rejecting `N == 0` and `i >= N` with a typed error
/// naming the flag — a misconfigured index must fail the command, not
/// build a server that poisons merges.
fn parse_slot_spec(flag: &str, spec: &str) -> Result<(u16, u16), CliError> {
    let bad = || CliError(format!("--{flag} expects i/N (e.g. 0/2), got '{spec}'"));
    let (i, n) = spec.split_once('/').ok_or_else(bad)?;
    let id: u16 = i.trim().parse().map_err(|_| bad())?;
    let total: u16 = n.trim().parse().map_err(|_| bad())?;
    if total == 0 || id >= total {
        return Err(CliError(format!(
            "--{flag} index must satisfy i < N >= 1, got '{spec}'"
        )));
    }
    Ok((id, total))
}

pub fn cmd_serve(args: &ArgMap) -> Result<String, CliError> {
    use gsknn_serve::{PartitionCfg, ServeIndex, Server, ServerConfig};

    let x = if args.opt::<String>("in")?.is_some() {
        load(args)?
    } else {
        let n: usize = args.get_or("n", 2000)?;
        let d: usize = args.get_or("d", 16)?;
        let seed: u64 = args.get_or("seed", 42)?;
        match args.str_or("dist", "uniform").as_str() {
            "uniform" => uniform(n, d, seed),
            "gaussian" => gaussian_embedded(n, d, args.get_or("clusters", 8)?, seed),
            other => return Err(CliError(format!("unknown --dist '{other}'"))),
        }
    };
    // `--partition i/N` keeps only this server's contiguous slice of the
    // reference rows; the row offset recorded in PartitionCfg globalizes
    // neighbor ids on the wire so the router merges without translation.
    let (x, partition) = match args.opt::<String>("partition")? {
        Some(spec) => {
            let (id, total) = parse_slot_spec("partition", &spec)?;
            // `--replica r/R` identifies this copy of the partition; the
            // slice served is identical across replicas
            let (replica, replicas) = match args.opt::<String>("replica")? {
                Some(rspec) => parse_slot_spec("replica", &rspec)?,
                None => (0, 1),
            };
            let epoch = args.get_or("partition-epoch", 1u64)?;
            if epoch == 0 {
                return Err(CliError(
                    "--partition-epoch 0 is reserved (the router would reject every \
                     partial); epochs start at 1"
                        .to_string(),
                ));
            }
            let (n, d) = (x.len(), x.dim());
            let lo = n * id as usize / total as usize;
            let hi = n * (id as usize + 1) / total as usize;
            if lo == hi {
                return Err(CliError(format!(
                    "partition {id}/{total} of a {n}-row dataset is empty"
                )));
            }
            let slice = PointSet::from_vec(d, hi - lo, x.as_slice()[lo * d..hi * d].to_vec());
            let cfg = PartitionCfg {
                id,
                total,
                offset: lo as u32,
                epoch,
                replica,
                replicas,
            };
            (slice, Some(cfg))
        }
        None => {
            if args.opt::<String>("replica")?.is_some() {
                return Err(CliError(
                    "--replica only makes sense with --partition (a replica is a copy \
                     of a partition slice)"
                        .to_string(),
                ));
            }
            (x, None)
        }
    };
    let trees: usize = args.get_or("trees", 4)?;
    let leaf: usize = args.get_or("leaf", 512)?;
    let forest_seed: u64 = args.get_or("forest-seed", 7)?;
    let overload_threshold: f64 = args.get_or("overload-threshold", 0.75)?;
    if !(overload_threshold > 0.0 && overload_threshold <= 1.0) {
        return Err(CliError(format!(
            "--overload-threshold must be in (0, 1], got {overload_threshold}"
        )));
    }
    let cfg = ServerConfig {
        addr: args.str_or("addr", "127.0.0.1:7979"),
        shards: args.get_or("shards", 1usize)?,
        pin_cores: args.get_or("pin-cores", false)?,
        adaptive_coalesce: args.get_or("adaptive-coalesce", false)?,
        queue_cap: args.get_or("queue-cap", 1024)?,
        coalesce_frac: args.get_or("frac", 0.9)?,
        max_batch: args.get_or("max-batch", 512)?,
        k_max: args.get_or("k-max", 128)?,
        kind: parse_kind(&args.str_or("kind", "sq-l2"))?,
        degrade_precision: args.get_or("degrade-precision", false)?,
        overload_threshold,
        overload_window: std::time::Duration::from_millis(
            args.get_or("overload-window-ms", 250u64)?,
        ),
        slow_query_ms: match args.get_or("slow-query-ms", 0u64)? {
            0 => None,
            ms => Some(ms),
        },
        metrics_addr: args.opt::<String>("metrics-addr")?,
        trace_ring: args.get_or("trace-ring", 32)?,
        partition,
    };
    args.reject_unread("serve")?; // before the command blocks
    let (n, d) = (x.len(), x.dim());
    let index = ServeIndex::build(x, trees, leaf, forest_seed);
    let server = Server::bind(cfg, index).map_err(|e| CliError(format!("bind: {e}")))?;
    let addr = server.local_addr().map_err(|e| CliError(e.to_string()))?;
    let targets: Vec<String> = server
        .batch_targets()
        .iter()
        .map(|(p, t)| format!("{p} m* = {t}"))
        .collect();
    // readiness banner on stderr — stdout stays reserved for the final
    // report (the command's return value)
    let part_note = partition
        .map(|p| {
            format!(
                " partition {}/{} replica {}/{} offset {} epoch {}",
                p.id, p.total, p.replica, p.replicas, p.offset, p.epoch
            )
        })
        .unwrap_or_default();
    eprintln!(
        "gsknn-serve: {n} x {d} index ({trees} trees, leaf {leaf}) listening on {addr} [{}]{part_note}",
        targets.join(", ")
    );
    let report = server.run();
    Ok(report.render_table())
}

/// `route`: scatter-gather front over partitioned `serve --partition i/N`
/// backends. Speaks the same wire protocol as a single server — clients
/// point at the router unchanged — and merges per-partition partials
/// into answers bit-identical to a single node holding the full
/// reference set. Blocks until `query-remote --op shutdown` or SIGTERM;
/// prints the final [`gsknn_router::RouterReport`] when it drains.
pub fn cmd_route(args: &ArgMap) -> Result<String, CliError> {
    use gsknn_router::{Router, RouterConfig};
    use std::time::Duration;

    let backends: Vec<String> = args
        .str_req("backends")?
        .split(',')
        .map(|b| b.trim().to_string())
        .filter(|b| !b.is_empty())
        .collect();
    if backends.is_empty() {
        return Err(CliError(
            "--backends expects a comma-separated list of host:port".to_string(),
        ));
    }
    let replicas: usize = args.get_or("replicas", 1usize)?;
    if replicas == 0 {
        return Err(CliError(
            "--replicas must be at least 1 (1 = unreplicated partitions)".to_string(),
        ));
    }
    if !backends.len().is_multiple_of(replicas) {
        return Err(CliError(format!(
            "{} backends do not divide into replica sets of {replicas} \
             (list backends partition-major: p0r0,p0r1,p1r0,p1r1,...)",
            backends.len()
        )));
    }
    let cfg = RouterConfig {
        addr: args.str_or("addr", "127.0.0.1:7980"),
        backends,
        replicas,
        // must match the backends' --partition-epoch (both default to 1)
        epoch: args.get_or("epoch", 1u64)?,
        backend_timeout: Duration::from_millis(args.get_or("backend-timeout-ms", 2000u64)?),
        hedge: args.get_or("hedge", true)?,
        connect_timeout: Duration::from_millis(args.get_or("connect-timeout-ms", 2000u64)?),
        probe_interval: Duration::from_millis(args.get_or("probe-ms", 250u64)?),
        metrics_addr: args.opt::<String>("metrics-addr")?,
        slow_query_ms: match args.get_or("slow-query-ms", 0u64)? {
            0 => None,
            ms => Some(ms),
        },
        trace_ring: args.get_or("trace-ring", 32)?,
    };
    let n_backends = cfg.backends.len();
    let backend_list = cfg.backends.join(", ");
    let n_partitions = n_backends / cfg.replicas;
    let replica_note = if cfg.replicas > 1 {
        format!(" ({n_partitions} partitions x {replicas} replicas)")
    } else {
        String::new()
    };
    args.reject_unread("route")?; // before the command blocks
    let router = Router::bind(cfg).map_err(|e| CliError(format!("bind: {e}")))?;
    let addr = router.local_addr().map_err(|e| CliError(e.to_string()))?;
    // readiness banner on stderr — stdout stays reserved for the final
    // report (the command's return value)
    eprintln!(
        "gsknn-route: listening on {addr}, fan-out over {n_backends} backends{replica_note} [{backend_list}]"
    );
    let report = router.run();
    Ok(report.render_table())
}

/// Connect with retries so scripts can race the client against a server
/// that is still building its forest.
fn connect_retry(addr: &str, wait_ms: u64) -> Result<gsknn_serve::Client, CliError> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(wait_ms);
    loop {
        match gsknn_serve::Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(CliError(format!("connect {addr}: {e}")));
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }
    }
}

/// `query-remote`: talk to a running `serve` instance. `--op query`
/// (default) sends synthetic or CSV query points and summarizes the
/// outcomes; with `--expect-in F` (the server's dataset) it verifies the
/// answers against client-side brute force and enforces `--min-recall`.
/// `--op ping|stats|shutdown` are the operational probes.
pub fn cmd_query_remote(args: &ArgMap) -> Result<String, CliError> {
    let addr = args.str_req("addr")?;
    let mut client = connect_retry(&addr, args.get_or("connect-wait-ms", 5000)?)?;
    // socket-level bound on any single read/write (0 = wait forever)
    let timeout_ms: u64 = args.get_or("timeout-ms", 60_000)?;
    let io_timeout = (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms));
    client
        .set_io_timeout(io_timeout)
        .map_err(|e| CliError(e.to_string()))?;
    match args.str_or("op", "query").as_str() {
        "ping" => {
            client.ping().map_err(|e| CliError(e.to_string()))?;
            Ok("pong\n".to_string())
        }
        "stats" => {
            let json = client.stats().map_err(|e| CliError(e.to_string()))?;
            Ok(json + "\n")
        }
        "shutdown" => {
            client.shutdown().map_err(|e| CliError(e.to_string()))?;
            Ok("server draining\n".to_string())
        }
        "metrics" => {
            let text = client.metrics_text().map_err(|e| CliError(e.to_string()))?;
            Ok(text)
        }
        "traces" => {
            let json = client.traces_json().map_err(|e| CliError(e.to_string()))?;
            Ok(json + "\n")
        }
        "timeseries" => {
            let json = client
                .timeseries_json()
                .map_err(|e| CliError(e.to_string()))?;
            Ok(json + "\n")
        }
        "query" => {
            let queries = if args.opt::<String>("queries")?.is_some() {
                let path = PathBuf::from(args.str_req("queries")?);
                io::load_csv(&path).map_err(|e| CliError(format!("{}: {e}", path.display())))?
            } else {
                uniform(
                    args.get_or("m", 10)?,
                    args.get_or("d", 16)?,
                    args.get_or("seed", 12345)?,
                )
            };
            let expect = match args.opt::<String>("expect-in")? {
                Some(p) => {
                    let path = PathBuf::from(p);
                    Some(
                        io::load_csv(&path)
                            .map_err(|e| CliError(format!("{}: {e}", path.display())))?,
                    )
                }
                None => None,
            };
            match parse_precision(args)? {
                Precision::F64 => query_remote_run::<f64>(client, &queries, expect, args),
                Precision::F32 => query_remote_run::<f32>(client, &queries, expect, args),
            }
        }
        other => Err(CliError(format!(
            "unknown --op '{other}' (expected query, ping, stats, metrics, traces, \
             timeseries or shutdown)"
        ))),
    }
}

fn query_remote_run<T: FusedScalar>(
    mut client: gsknn_serve::Client,
    queries64: &PointSet,
    expect64: Option<PointSet>,
    args: &ArgMap,
) -> Result<String, CliError> {
    use gsknn_serve::Outcome;

    let k: usize = args.get_or("k", 8)?;
    let deadline_ms: u32 = args.get_or("deadline-ms", 250)?;
    let kind = parse_kind(&args.str_or("kind", "sq-l2"))?;
    let min_recall: f64 = args.get_or("min-recall", if expect64.is_some() { 1.0 } else { 0.0 })?;
    let retries: u32 = args.get_or("retries", 0)?;
    let policy = gsknn_serve::RetryPolicy {
        max_attempts: retries + 1,
        ..gsknn_serve::RetryPolicy::default()
    };
    let queries = queries64.cast::<T>();
    let expect = expect64.map(|x| x.cast::<T>());

    let (mut ok, mut degraded, mut busy, mut timed_out, mut rejected, mut failed) =
        (0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    let (mut hit, mut total) = (0usize, 0usize);
    let mut rtts: Vec<std::time::Duration> = Vec::with_capacity(queries.len());
    let t0 = std::time::Instant::now();
    for i in 0..queries.len() {
        let q = queries.point(i);
        let mut check_recall = |table: &knn_select::NeighborTable<T>| {
            if let Some(refs) = &expect {
                let mut cands: Vec<knn_select::Neighbor<T>> = (0..refs.len())
                    .map(|j| knn_select::Neighbor::new(kind.eval(q, refs.point(j)), j as u32))
                    .collect();
                cands.sort_unstable_by(knn_select::Neighbor::cmp_dist_idx);
                let want: Vec<u32> = cands[..k.min(cands.len())]
                    .iter()
                    .map(|nb| nb.idx)
                    .collect();
                let got: Vec<u32> = table.row(0).iter().map(|nb| nb.idx).collect();
                total += want.len();
                hit += got.iter().zip(&want).filter(|(g, w)| g == w).count();
            }
        };
        let reply = client
            .query_with_retry::<T>(q, 1, k, deadline_ms, &policy)
            .map_err(|e| CliError(format!("query {i}: {e}")))?;
        rtts.push(reply.rtt);
        match reply.outcome {
            Outcome::Neighbors(table) => {
                ok += 1;
                check_recall(&table);
            }
            Outcome::Degraded(table) => {
                eprintln!("query {i}: degraded answer (trace {:016x})", reply.trace_id);
                degraded += 1;
                check_recall(&table);
            }
            Outcome::DegradedPartial {
                table,
                contributed,
                total,
            } => {
                eprintln!(
                    "query {i}: degraded answer from {contributed}/{total} partitions \
                     (trace {:016x})",
                    reply.trace_id
                );
                degraded += 1;
                check_recall(&table);
            }
            Outcome::Partial { header, table } => {
                // a lone partition answered directly (bypassing the
                // router): its ids are already global, so score it like
                // a normal reply
                eprintln!(
                    "query {i}: raw partial from partition {} (epoch {})",
                    header.partition_id, header.epoch
                );
                ok += 1;
                check_recall(&table);
            }
            Outcome::Busy => busy += 1,
            Outcome::TimedOut => timed_out += 1,
            Outcome::ShuttingDown => rejected += 1,
            Outcome::Failed(msg) => {
                eprintln!(
                    "query {i} failed after retries (trace {:016x}): {msg}",
                    reply.trace_id
                );
                failed += 1;
            }
            Outcome::Rejected(msg) => {
                return Err(CliError(format!("query {i} rejected: {msg}")));
            }
        }
    }
    let dt = t0.elapsed();
    // status breakdown under the server-side histogram labels, so client
    // and server tallies line up one-to-one
    let breakdown = format!(
        "status breakdown: ok {ok}, ok_degraded {degraded}, busy {busy}, timeout {timed_out}, \
         shutting_down {rejected}, error {failed}"
    );
    let ok = ok + degraded;
    let mut out = format!(
        "{} queries ({}, k = {k}, {}) in {dt:.2?}: {ok} ok ({degraded} degraded), {busy} busy, {timed_out} timed out, {rejected} refused, {failed} failed\n",
        queries.len(),
        T::NAME,
        kind.name()
    );
    if !rtts.is_empty() {
        rtts.sort_unstable();
        let q = |f: f64| rtts[((rtts.len() - 1) as f64 * f).round() as usize];
        writeln!(
            out,
            "client rtt: p50 {:.2?}, p90 {:.2?}, p99 {:.2?}, p999 {:.2?}, max {:.2?}",
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
            rtts[rtts.len() - 1]
        )
        .unwrap();
    }
    writeln!(out, "{breakdown}").unwrap();
    if total > 0 {
        let recall = hit as f64 / total as f64;
        writeln!(out, "recall vs brute force: {recall:.3}").unwrap();
        if recall < min_recall {
            return Err(CliError(format!(
                "recall {recall:.3} below --min-recall {min_recall}\n{out}"
            )));
        }
    }
    // degraded answers (reduced precision, or a partial merge from a
    // router with a partition down) are typed successes, not failures
    if ok + degraded == 0 {
        return Err(CliError(format!("no query succeeded\n{out}")));
    }
    Ok(out)
}

/// `trace`: pull the slowest-request ring from a running `serve`
/// instance (or a router) as Chrome trace-event JSON (open in
/// `chrome://tracing` or <https://ui.perfetto.dev>). Validates the
/// export parses before writing it; with `--out F` the JSON lands in
/// the file and a summary goes to stdout, otherwise the JSON itself is
/// the output.
///
/// `--distributed true` treats the target as a router whose ring holds
/// stitched cross-tier traces: the summary then breaks each trace down
/// by lane (router timeline + one lane per backend attempt, hedged
/// siblings included). `--trace-id <hex>` fetches one specific stitched
/// trace by id via the `TraceFetch` wire op instead of the whole ring.
pub fn cmd_trace(args: &ArgMap) -> Result<String, CliError> {
    let addr = args.str_req("addr")?;
    let mut client = connect_retry(&addr, args.get_or("connect-wait-ms", 5000)?)?;
    let distributed: bool = args.get_or("distributed", false)?;
    let json = match args.opt::<String>("trace-id")? {
        Some(raw) => {
            let hex = raw.trim_start_matches("0x");
            let id = u64::from_str_radix(hex, 16)
                .map_err(|_| CliError(format!("--trace-id: cannot parse '{raw}' as hex")))?;
            let body = client
                .trace_fetch(id)
                .map_err(|e| CliError(e.to_string()))?;
            String::from_utf8(body).map_err(|_| {
                CliError(
                    "trace-fetch reply is not JSON — point --addr at a router \
                     (backends answer TraceFetch with a raw span annex)"
                        .into(),
                )
            })?
        }
        None => client.traces_json().map_err(|e| CliError(e.to_string()))?,
    };
    let doc: serde_json::Value = serde_json::from_str(&json)
        .map_err(|e| CliError(format!("server sent unparseable trace JSON: {e}")))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| CliError("trace JSON has no traceEvents array".into()))?;
    let spans = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    // one "M" metadata event per lane; the router lane (track 0) has
    // tid ≡ 1 (mod 256), so counting those counts traces
    let traces = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && e.get("tid").and_then(|t| t.as_u64()).map(|t| t % 256) == Some(1)
        })
        .count();
    let summary = if distributed {
        distributed_trace_summary(events)
    } else {
        String::new()
    };
    match args.opt::<String>("out")? {
        Some(path) => {
            let path = PathBuf::from(path);
            std::fs::write(&path, &json)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            Ok(format!(
                "{summary}wrote {} traces ({spans} spans) to {}\n",
                traces,
                path.display()
            ))
        }
        None if distributed => Ok(format!("{summary}{json}\n")),
        None => Ok(json + "\n"),
    }
}

/// Per-trace lane breakdown for stitched router traces: span count,
/// lane count, which backends contributed, and the wall-clock extent.
fn distributed_trace_summary(events: &[serde_json::Value]) -> String {
    use std::collections::{BTreeMap, BTreeSet};
    #[derive(Default)]
    struct TraceSum {
        spans: usize,
        lanes: BTreeSet<u64>,
        backends: BTreeSet<String>,
        lo_us: f64,
        hi_us: f64,
    }
    let mut by_id: BTreeMap<String, TraceSum> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let Some(id) = e
            .get("args")
            .and_then(|a| a.get("trace_id"))
            .and_then(|v| v.as_str())
        else {
            continue;
        };
        let tid = e.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);
        let ts = e.get("ts").and_then(|t| t.as_f64()).unwrap_or(0.0);
        let dur = e.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0);
        let s = by_id.entry(id.to_string()).or_insert_with(|| TraceSum {
            lo_us: f64::INFINITY,
            ..Default::default()
        });
        s.spans += 1;
        s.lanes.insert(tid % 256);
        if tid % 256 != 1 {
            // backend-lane spans are named "b<backend>: <span>"
            if let Some(name) = e.get("name").and_then(|n| n.as_str()) {
                if let Some((prefix, _)) = name.split_once(": ") {
                    if prefix.starts_with('b') && prefix[1..].chars().all(|c| c.is_ascii_digit()) {
                        s.backends.insert(prefix.to_string());
                    }
                }
            }
        }
        s.lo_us = s.lo_us.min(ts);
        s.hi_us = s.hi_us.max(ts + dur);
    }
    let mut out = String::new();
    for (id, s) in &by_id {
        let backends: Vec<&str> = s.backends.iter().map(|b| b.as_str()).collect();
        writeln!(
            out,
            "trace {id}: {} spans across {} lanes (backends: {}), extent {:.2} ms",
            s.spans,
            s.lanes.len(),
            if backends.is_empty() {
                "none".to_string()
            } else {
                backends.join(", ")
            },
            (s.hi_us - s.lo_us) / 1e3
        )
        .unwrap();
    }
    out
}

/// `top`: live terminal view of a running server's per-second load
/// time-series (arrival rate, queue depth, batch sizes, flush reasons,
/// aggregate kernel-phase split). Polls the `TimeSeries` wire op every
/// `--interval-ms`; `--iters N` bounds the refresh count (default:
/// forever, or a single fetch when `--timeseries-out F` asks for a JSON
/// dump instead of a live view).
pub fn cmd_top(args: &ArgMap) -> Result<String, CliError> {
    let addr = args.str_req("addr")?;
    let mut client = connect_retry(&addr, args.get_or("connect-wait-ms", 5000)?)?;
    let interval_ms: u64 = args.get_or("interval-ms", 1000)?;
    let rows: usize = args.get_or("rows", 20)?;
    let ts_out = args.opt::<String>("timeseries-out")?;
    let iters: u64 = args.get_or("iters", if ts_out.is_some() { 1 } else { 0 })?;
    args.reject_unread("top")?; // before a loop that may never end

    let mut frame;
    let mut raw;
    let mut i = 0u64;
    loop {
        raw = client
            .timeseries_json()
            .map_err(|e| CliError(e.to_string()))?;
        let doc: serde_json::Value = serde_json::from_str(&raw)
            .map_err(|e| CliError(format!("server sent unparseable time-series JSON: {e}")))?;
        let (enabled, window_s, samples) = gsknn_obs::parse_timeseries(&doc)
            .ok_or_else(|| CliError("time-series JSON is missing required fields".into()))?;
        if !enabled {
            return Err(CliError(
                "server was built without its obs feature; no time-series to show".into(),
            ));
        }
        frame = format!(
            "gsknn top — {addr} (window {window_s}s, {} live seconds)\n{}",
            samples.len(),
            gsknn_obs::render_top(&samples, rows)
        );
        i += 1;
        if iters != 0 && i >= iters {
            break;
        }
        // live view: repaint the terminal, then sleep out the interval
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    if let Some(path) = ts_out {
        let path = PathBuf::from(path);
        std::fs::write(&path, &raw).map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        writeln!(frame, "\ntime-series dump written to {}", path.display()).unwrap();
    }
    Ok(frame)
}

/// Top-level usage text.
pub fn usage() -> String {
    "gsknn-cli <command> [--flag value ...]\n\
     commands:\n\
     \x20 gen     --out F [--n 1000 --d 16 --dist uniform|gaussian --clusters 8 --seed 42]\n\
     \x20 knn     --in F [--k 8 --m 10 --kind sq-l2|l1|linf|cosine|l<p> --precision f64|f32]\n\
     \x20 allnn   --in F [--k 8 --leaf 1024 --iters 6 --kind ... --out TABLE\n\
     \x20                 --precision f64|f32 --lpt P]\n\
     \x20 query   --in F --queries F [--k 8 --trees 8 --leaf 512 --kind ...]\n\
     \x20 kmeans  --in F [--clusters 8 --iters 50 --tol 1e-6 --seed 193]\n\
     \x20 graph   --in F [--k 8 --sym none|union|mutual --leaf 512 --iters 6 --lpt P]\n\
     \x20 model   [--m 8192 --n 8192 --d 64 --k 16]\n\
     \x20 profile [--m 8192 --n 8192 --d 64 --k 16 --reps 3 --p 4 --tasks 8\n\
     \x20                 --precision f64|f32 --outdir bench_out]\n\
     \x20 stream  --in F --batch F [--k 8 --leaf 1024 --iters 4]\n\
     \x20 tune    (show detected caches + derived blocking parameters)\n\
     \x20 serve   [--in F | --n 2000 --d 16 --dist ... --seed 42]\n\
     \x20                 [--addr 127.0.0.1:7979 --trees 4 --leaf 512\n\
     \x20                 --shards 1 --pin-cores false --adaptive-coalesce false\n\
     \x20                 --queue-cap 1024 --frac 0.9 --max-batch 512 --k-max 128\n\
     \x20                 --degrade-precision true --overload-threshold 0.75\n\
     \x20                 --overload-window-ms 250 --slow-query-ms 0\n\
     \x20                 --metrics-addr H:P --trace-ring 32\n\
     \x20                 --partition i/N --replica r/R --partition-epoch 1]\n\
     \x20 route   --backends H:P,H:P,... [--addr 127.0.0.1:7980 --epoch 1\n\
     \x20                 --replicas 1 --backend-timeout-ms 2000 --hedge true\n\
     \x20                 --connect-timeout-ms 2000 --probe-ms 250\n\
     \x20                 --slow-query-ms 0 --metrics-addr H:P --trace-ring 32]\n\
     \x20                 (scatter-gather front over serve --partition backends;\n\
     \x20                 same wire protocol, so query-remote/trace/top work as-is;\n\
     \x20                 --replicas R reads the backend list partition-major,\n\
     \x20                 R consecutive addresses per partition)\n\
     \x20 query-remote --addr H:P [--op query|ping|stats|metrics|traces|timeseries|shutdown\n\
     \x20                 --precision f64|f32\n\
     \x20                 --m 10 --d 16 --k 8 --deadline-ms 250 --queries F\n\
     \x20                 --expect-in F --min-recall 1.0 --connect-wait-ms 5000\n\
     \x20                 --timeout-ms 60000 --retries 0]\n\
     \x20 trace   --addr H:P [--out F --distributed false --trace-id HEX\n\
     \x20                 --connect-wait-ms 5000]\n\
     \x20                 (slowest-request ring as Chrome trace-event JSON;\n\
     \x20                 --distributed true summarizes stitched router traces\n\
     \x20                 per backend lane, --trace-id fetches one by id)\n\
     \x20 top     --addr H:P [--interval-ms 1000 --iters N --rows 20\n\
     \x20                 --timeseries-out F --connect-wait-ms 5000]\n\
     \x20                 (live per-second load view; --timeseries-out dumps the JSON)\n\
     flags:\n\
     \x20 --precision f64|f32   element type (f32 uses the 8-lane/16-lane\n\
     \x20                       single-precision micro-kernels)\n\
     \x20 --lpt P               schedule tree leaves on P workers with the\n\
     \x20                       model-guided LPT scheme (default: rayon)\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> PathBuf {
        let p = std::env::temp_dir().join(format!("gsknn-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn argmap(s: &str) -> ArgMap {
        ArgMap::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn gen_then_knn_round_trip() {
        let dir = tmpdir();
        let f = dir.join("pts.csv");
        let msg = cmd_gen(&argmap(&format!("--n 200 --d 8 --out {}", f.display()))).unwrap();
        assert!(msg.contains("200 x 8"));
        let out = cmd_knn(&argmap(&format!("--in {} --k 3 --m 5", f.display()))).unwrap();
        // each of the first queries is its own nearest neighbor
        assert!(out.contains("0: 0(0.0000)"), "{out}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn gen_rejects_unknown_dist() {
        let e = cmd_gen(&argmap("--out /tmp/x.csv --dist banana")).unwrap_err();
        assert!(e.0.contains("banana"));
    }

    #[test]
    fn model_reports_all_three() {
        let out = cmd_model(&argmap("--d 16 --k 16")).unwrap();
        assert!(out.contains("Var#1") && out.contains("GEMM"));
        assert!(out.contains("switch at k"));
    }

    #[test]
    fn graph_and_kmeans_run_end_to_end() {
        let dir = tmpdir();
        let f = dir.join("blob.csv");
        cmd_gen(&argmap(&format!(
            "--n 300 --d 16 --dist gaussian --clusters 3 --out {}",
            f.display()
        )))
        .unwrap();
        let g = cmd_graph(&argmap(&format!(
            "--in {} --k 4 --iters 3 --leaf 64",
            f.display()
        )))
        .unwrap();
        assert!(g.contains("components"), "{g}");
        let km = cmd_kmeans(&argmap(&format!("--in {} --clusters 3", f.display()))).unwrap();
        assert!(km.contains("inertia"), "{km}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn stream_inserts_batch() {
        let dir = tmpdir();
        let base = dir.join("base.csv");
        let batch = dir.join("batch.csv");
        cmd_gen(&argmap(&format!("--n 150 --d 5 --out {}", base.display()))).unwrap();
        cmd_gen(&argmap(&format!(
            "--n 30 --d 5 --seed 7 --out {}",
            batch.display()
        )))
        .unwrap();
        let out = cmd_stream(&argmap(&format!(
            "--in {} --batch {} --k 3 --leaf 64",
            base.display(),
            batch.display()
        )))
        .unwrap();
        assert!(out.contains("table now covers 180 points"), "{out}");
        assert!(out.contains("30/30 new points"), "{out}");
        std::fs::remove_file(base).ok();
        std::fs::remove_file(batch).ok();
    }

    #[test]
    fn stream_rejects_dim_mismatch() {
        let dir = tmpdir();
        let base = dir.join("b5.csv");
        let batch = dir.join("b6.csv");
        cmd_gen(&argmap(&format!("--n 20 --d 5 --out {}", base.display()))).unwrap();
        cmd_gen(&argmap(&format!("--n 5 --d 6 --out {}", batch.display()))).unwrap();
        let err = cmd_stream(&argmap(&format!(
            "--in {} --batch {}",
            base.display(),
            batch.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("dimension mismatch"));
        std::fs::remove_file(base).ok();
        std::fs::remove_file(batch).ok();
    }

    #[test]
    fn profile_reports_and_writes_json() {
        let dir = tmpdir().join("profout");
        let out = cmd_profile(&argmap(&format!(
            "--m 96 --n 256 --d 16 --k 8 --reps 1 --p 2 --tasks 4 --outdir {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("profile: m=96 n=256 d=16 k=8 f64"), "{out}");
        assert!(out.contains("total (Var#1): measured"), "{out}");
        assert!(out.contains("makespan: predicted"), "{out}");
        let path = dir.join("profile_m96_n256_d16_k8_f64.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde_json::from_str(&text).unwrap();
        assert!(doc.get("profile").and_then(|p| p.get("m")).is_some());
        assert!(doc
            .get("scheduler")
            .and_then(|s| s.get("workers"))
            .is_some());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn knn_precision_f32_finds_self() {
        let dir = tmpdir();
        let f = dir.join("pts32.csv");
        cmd_gen(&argmap(&format!("--n 150 --d 8 --out {}", f.display()))).unwrap();
        let out = cmd_knn(&argmap(&format!(
            "--in {} --k 3 --m 5 --precision f32",
            f.display()
        )))
        .unwrap();
        assert!(out.contains("(sq-l2, f32)"), "{out}");
        assert!(out.contains("0: 0(0.0000)"), "{out}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn allnn_precision_f32_with_lpt_writes_table() {
        let dir = tmpdir();
        let f = dir.join("allnn32.csv");
        let table = dir.join("table32.txt");
        cmd_gen(&argmap(&format!("--n 200 --d 6 --out {}", f.display()))).unwrap();
        let out = cmd_allnn(&argmap(&format!(
            "--in {} --k 4 --leaf 64 --iters 3 --precision f32 --lpt 2 --out {}",
            f.display(),
            table.display()
        )))
        .unwrap();
        assert!(out.contains("all-4-NN (f32) of 200 points"), "{out}");
        let text = std::fs::read_to_string(&table).unwrap();
        assert_eq!(text.lines().count(), 200);
        std::fs::remove_file(f).ok();
        std::fs::remove_file(table).ok();
    }

    #[test]
    fn profile_precision_f32_writes_tagged_json() {
        let dir = tmpdir().join("profout32");
        let out = cmd_profile(&argmap(&format!(
            "--m 96 --n 256 --d 16 --k 8 --reps 1 --p 2 --tasks 4 --precision f32 --outdir {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("profile: m=96 n=256 d=16 k=8 f32"), "{out}");
        let text = std::fs::read_to_string(dir.join("profile_m96_n256_d16_k8_f32.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            doc.get("profile")
                .and_then(|p| p.get("precision"))
                .and_then(|v| v.as_str()),
            Some("f32")
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// The in-process servers below answer deadline-bounded queries; run
    /// the tests that spin one up serially so CPU contention from a
    /// neighboring server's client threads cannot leak into another
    /// test's latency and flush behavior.
    static SERVE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn serve_and_query_remote_round_trip() {
        let _serial = SERVE_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = tmpdir();
        let f = dir.join("serve_refs.csv");
        // cmd_gen with --n 300 --d 8 --seed 1 writes exactly uniform(300, 8, 1),
        // so the in-process server below and --expect-in see the same table.
        cmd_gen(&argmap(&format!(
            "--n 300 --d 8 --seed 1 --out {}",
            f.display()
        )))
        .unwrap();
        // exact setup: one tree, leaf covers everything
        let index = gsknn_serve::ServeIndex::build(uniform(300, 8, 1), 1, 300, 7);
        let server =
            gsknn_serve::Server::bind(gsknn_serve::ServerConfig::default(), index).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());

        for precision in ["f64", "f32"] {
            let out = cmd_query_remote(&argmap(&format!(
                "--addr {addr} --m 12 --d 8 --k 5 --seed 99 --precision {precision} \
                 --expect-in {} --min-recall 1.0",
                f.display()
            )))
            .unwrap();
            assert!(out.contains("12 ok"), "{out}");
            assert!(out.contains("recall vs brute force: 1.000"), "{out}");
        }
        let pong = cmd_query_remote(&argmap(&format!("--addr {addr} --op ping"))).unwrap();
        assert_eq!(pong, "pong\n");
        let stats = cmd_query_remote(&argmap(&format!("--addr {addr} --op stats"))).unwrap();
        assert!(stats.contains("\"queries\""), "{stats}");
        cmd_query_remote(&argmap(&format!("--addr {addr} --op shutdown"))).unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.queries, 24);
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn top_renders_timeseries_and_dumps_json() {
        let _serial = SERVE_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = tmpdir();
        let dump = dir.join("timeseries.json");
        let index = gsknn_serve::ServeIndex::build(uniform(300, 8, 1), 1, 300, 7);
        let server =
            gsknn_serve::Server::bind(gsknn_serve::ServerConfig::default(), index).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        // put some load through so the time-series has a live second
        cmd_query_remote(&argmap(&format!("--addr {addr} --m 6 --d 8 --k 3"))).unwrap();

        let raw = cmd_query_remote(&argmap(&format!("--addr {addr} --op timeseries"))).unwrap();
        assert!(raw.contains("\"timeseries\""), "{raw}");

        let out = cmd_top(&argmap(&format!(
            "--addr {addr} --iters 1 --timeseries-out {}",
            dump.display()
        )))
        .unwrap();
        assert!(out.contains("gsknn top"), "{out}");
        assert!(out.contains("t(s)"), "{out}");
        let text = std::fs::read_to_string(&dump).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let (enabled, window_s, samples) = gsknn_obs::parse_timeseries(&doc).unwrap();
        assert!(enabled);
        assert_eq!(window_s, gsknn_serve::WINDOW_S);
        let arrivals: u64 = samples.iter().map(|s| s.arrivals).sum();
        assert!(arrivals >= 1, "time-series saw the queries: {samples:?}");

        cmd_query_remote(&argmap(&format!("--addr {addr} --op shutdown"))).unwrap();
        handle.join().unwrap();
        std::fs::remove_file(dump).ok();
    }

    #[test]
    fn query_remote_reports_unreachable_server() {
        // a port nobody listens on; short wait keeps the test fast
        let e = cmd_query_remote(&argmap("--addr 127.0.0.1:1 --op ping --connect-wait-ms 50"))
            .unwrap_err();
        assert!(e.0.contains("connect"), "{}", e.0);
    }

    #[test]
    fn precision_flag_rejects_unknown_value() {
        let dir = tmpdir();
        let f = dir.join("prec.csv");
        cmd_gen(&argmap(&format!("--n 20 --d 4 --out {}", f.display()))).unwrap();
        let e = cmd_knn(&argmap(&format!("--in {} --precision f16", f.display()))).unwrap_err();
        assert!(e.0.contains("f16"), "{}", e.0);
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn serve_rejects_misconfigured_partition_args() {
        // every misconfiguration must be a typed CLI error *before* an
        // index is built, not a server that poisons merges
        assert!(parse_slot_spec("partition", "2/2")
            .unwrap_err()
            .0
            .contains("i < N"));
        assert!(parse_slot_spec("partition", "0/0")
            .unwrap_err()
            .0
            .contains("i < N"));
        assert!(parse_slot_spec("partition", "x/2")
            .unwrap_err()
            .0
            .contains("expects i/N"));
        assert!(parse_slot_spec("replica", "3/2")
            .unwrap_err()
            .0
            .contains("--replica"));
        // epoch 0 is reserved — the router would reject every partial
        let e = cmd_serve(&argmap(
            "--n 64 --d 4 --partition 0/2 --partition-epoch 0 --addr 127.0.0.1:0",
        ))
        .unwrap_err();
        assert!(e.0.contains("epoch"), "{}", e.0);
        // --replica without --partition is a shape error, typed
        let e = cmd_serve(&argmap("--n 64 --d 4 --replica 0/2 --addr 127.0.0.1:0")).unwrap_err();
        assert!(e.0.contains("--partition"), "{}", e.0);
    }

    #[test]
    fn route_rejects_ragged_replica_sets() {
        let e = cmd_route(&argmap(
            "--backends 127.0.0.1:1,127.0.0.1:2,127.0.0.1:3 --replicas 2 --addr 127.0.0.1:0",
        ))
        .unwrap_err();
        assert!(e.0.contains("replica sets"), "{}", e.0);
        let e = cmd_route(&argmap(
            "--backends 127.0.0.1:1 --replicas 0 --addr 127.0.0.1:0",
        ))
        .unwrap_err();
        assert!(e.0.contains("--replicas"), "{}", e.0);
    }

    #[test]
    fn query_out_of_sample() {
        let dir = tmpdir();
        let refs = dir.join("refs.csv");
        let qs = dir.join("qs.csv");
        cmd_gen(&argmap(&format!("--n 300 --d 6 --out {}", refs.display()))).unwrap();
        cmd_gen(&argmap(&format!(
            "--n 5 --d 6 --seed 9 --out {}",
            qs.display()
        )))
        .unwrap();
        let out = cmd_query(&argmap(&format!(
            "--in {} --queries {} --k 3 --trees 4 --leaf 64",
            refs.display(),
            qs.display()
        )))
        .unwrap();
        assert!(out.contains("q0:"), "{out}");
        std::fs::remove_file(refs).ok();
        std::fs::remove_file(qs).ok();
    }
}
