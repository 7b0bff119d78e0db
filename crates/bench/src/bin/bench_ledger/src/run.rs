//! One run of one workload: set up, warm up, measure, verify. The
//! untraced run gives the end-to-end metrics; the traced run repeats the
//! measurement with the span recorder on and adds the per-layer probes.

use crate::gen::Inputs;
use crate::loadgen::{self, Conn, LoadResult, Mode, Plan};
use crate::probes::{self, Metrics};
use crate::span::{SpanRec, NO_PARENT};
use crate::spec::{Kind, Load, Workload, KERNEL_SAMPLE_ROWS, WARMUP_S};
use crate::stats;
use crate::tier::Tier;
use crate::verify;
use dataset::DistanceKind;
use gsknn_core::{BatchScratch, Gsknn, GsknnConfig};
use gsknn_serve::wire::Request;
use knn_ref::oracle;
use knn_select::NeighborTable;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is repeated this often in an untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 15;
/// Lead-in of each pass inside a traced run, seconds.
const TRACED_WARMUP_S: f64 = 1.0;
/// Shares of `--seconds` a traced run gives its traced pass and the
/// untraced pass it is compared with (5 s and 3 s of the default 10 s).
const TRACED_SHARE: f64 = 0.5;
const BASELINE_SHARE: f64 = 0.3;

/// What one run reports.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub workload_hash: u64,
    /// Per-request latency of the measured window.
    pub latency: Latency,
}

/// Median, 99th percentile and sample count of a window's latencies
/// (kernel workloads: of its calls).
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

impl Latency {
    fn of_sorted(us: &[f64]) -> Latency {
        Latency {
            p50_us: stats::quantile_sorted(us, 0.5),
            p99_us: stats::quantile_sorted(us, 0.99),
            samples: us.len(),
        }
    }

    fn of_calls(call_secs: &[f64]) -> Latency {
        let mut us: Vec<f64> = call_secs.iter().map(|s| s * 1e6).collect();
        stats::sort(&mut us);
        Latency::of_sorted(&us)
    }

    fn insert_into(&self, metrics: &mut Metrics) {
        metrics.insert("client.lat_p50_us", self.p50_us);
        metrics.insert("client.lat_p99_us", self.p99_us);
        metrics.insert("client.lat_samples", self.samples as f64);
    }
}

pub enum RunError {
    Io(io::Error),
    /// The load generator could not hold the schedule: the run measured
    /// the generator, not the system, and reports nothing.
    Invalid(String),
}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------- kernel

struct KernelRig {
    inputs: Inputs,
    exec: Gsknn<f64>,
    table: NeighborTable<f64>,
    scratch: BatchScratch<f64>,
}

fn kernel_setup(w: &Workload, seed: u64) -> KernelRig {
    KernelRig {
        inputs: Inputs::generate(w, seed, 0.0),
        exec: Gsknn::new(GsknnConfig::for_scalar::<f64>()),
        table: NeighborTable::new(w.m, w.k),
        scratch: BatchScratch::new(),
    }
}

/// Oracle rows of the first [`KERNEL_SAMPLE_ROWS`] queries of each pair
/// (the id lists are random draws, so the first rows are a random sample).
fn kernel_truth(w: &Workload, inputs: &Inputs) -> Vec<NeighborTable<f64>> {
    inputs
        .pairs
        .iter()
        .map(|(q, r)| {
            oracle::exact(
                &inputs.refs,
                &q[..KERNEL_SAMPLE_ROWS],
                r,
                w.k,
                DistanceKind::SqL2,
            )
        })
        .collect()
}

#[derive(Default)]
struct KernelRun {
    /// Seconds of each recorded call.
    call_secs: Vec<f64>,
    bad_calls: u64,
    recall: f64,
}

impl KernelRun {
    fn good_calls(&self) -> u64 {
        self.call_secs.len() as u64 - self.bad_calls
    }
}

fn kernel_pass(
    w: &Workload,
    rig: &mut KernelRig,
    truth: &[NeighborTable<f64>],
    warmup_s: f64,
    window_s: f64,
    rec: &mut SpanRec,
) -> KernelRun {
    let mut run = KernelRun::default();
    let mut recall_sum = 0.0;
    let t0 = Instant::now();
    let mut call = 0usize;
    loop {
        let now = t0.elapsed().as_secs_f64();
        if now >= warmup_s + window_s {
            break;
        }
        let pair = call % rig.inputs.pairs.len();
        let (q, r) = &rig.inputs.pairs[pair];
        rig.table.reset(w.m, w.k);
        let started = Instant::now();
        rig.exec.update_cross_reusing(
            &rig.inputs.refs,
            q,
            &rig.inputs.refs,
            r,
            DistanceKind::SqL2,
            &mut rig.table,
            &mut rig.scratch,
        );
        let took = started.elapsed();
        call += 1;
        if now < warmup_s {
            continue;
        }
        let start_ns = (started - t0).as_nanos() as u64;
        rec.add(
            "kernel.call",
            start_ns,
            start_ns + took.as_nanos() as u64,
            NO_PARENT,
            call as u64,
        );
        run.call_secs.push(took.as_secs_f64());
        let (recall, exact) = verify::recall_and_exact(
            (0..KERNEL_SAMPLE_ROWS)
                .map(|i| (rig.table.row(i).to_vec(), truth[pair].row(i).to_vec())),
        );
        recall_sum += recall;
        run.bad_calls += u64::from(!exact);
    }
    run.recall = recall_sum / run.call_secs.len().max(1) as f64;
    run
}

fn kernel_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(kernel_setup(w, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("set up at least once");
    let truth = kernel_truth(w, &rig.inputs);
    let run = kernel_pass(w, &mut rig, &truth, WARMUP_S, seconds, &mut SpanRec::off());

    let calls = run.call_secs.len() as u64;
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setups));
    // rows per second of the median call: the machine's speed dips for
    // seconds at a time, which a whole-window mean would carry
    metrics.insert("queries_per_s", w.m as f64 / stats::median(&run.call_secs));
    metrics.insert(
        "goodput_frac",
        run.good_calls() as f64 / calls.max(1) as f64,
    );
    metrics.insert("recall", run.recall);
    metrics.insert("peak_rss_mb", peak_rss_mb());
    Outcome {
        metrics,
        attempted: calls,
        failed: run.bad_calls,
        correct: calls > 0 && run.bad_calls == 0 && run.recall == 1.0,
        workload_hash: rig.inputs.hash(),
        latency: Latency::of_calls(&run.call_secs),
    }
}

fn kernel_traced(w: &Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut rig = kernel_setup(w, seed);
    let truth = kernel_truth(w, &rig.inputs);
    let baseline = kernel_pass(
        w,
        &mut rig,
        &truth,
        TRACED_WARMUP_S,
        seconds * BASELINE_SHARE,
        &mut SpanRec::off(),
    );
    let mut rec = SpanRec::on();
    let traced = kernel_pass(
        w,
        &mut rig,
        &truth,
        TRACED_WARMUP_S,
        seconds * TRACED_SHARE,
        &mut rec,
    );

    let call_secs = stats::median(&traced.call_secs);
    let mut metrics = probes::run(w, &rig.inputs, None, None, Some(call_secs))?;
    let rate = |r: &KernelRun| w.m as f64 / stats::median(&r.call_secs);
    metrics.insert("loadgen.offered_qps", rate(&traced));
    metrics.insert("loadgen.achieved_qps", rate(&traced));
    metrics.insert("loadgen.inflight_max", 1.0);
    metrics.insert(
        "bench.trace_overhead_frac",
        1.0 - rate(&traced) / rate(&baseline),
    );
    let calls = traced.call_secs.len() as u64;
    metrics.insert(
        "client.fail_frac",
        traced.bad_calls as f64 / calls.max(1) as f64,
    );
    let latency = Latency::of_calls(&traced.call_secs);
    latency.insert_into(&mut metrics);
    metrics.insert("self.kernel_call_ns", rec.mean_self_ns("kernel.call"));
    write_trace(w, &rec)?;
    Ok(Outcome {
        metrics,
        attempted: calls,
        failed: traced.bad_calls,
        correct: calls > 0 && traced.bad_calls == 0 && traced.recall == 1.0,
        workload_hash: rig.inputs.hash(),
        latency,
    })
}

// --------------------------------------------------------------- serving

struct ServeRig {
    inputs: Inputs,
    tier: Tier,
    /// The generator's connections; a pass leaves none with a request
    /// in flight, so the next pass uses them again.
    conns: Vec<Conn>,
}

impl ServeRig {
    /// Close the connections, then drain and join the tier; the inputs
    /// stay for the oracle check.
    fn stop(self) -> io::Result<Inputs> {
        drop(self.conns);
        self.tier.stop()?;
        Ok(self.inputs)
    }
}

/// Data generation, index build, bind and connect: everything before
/// the first request. `span_s` is the longest pass (lead-in included)
/// the arrival schedule must cover.
fn serve_setup(w: &Workload, seed: u64, span_s: f64) -> io::Result<ServeRig> {
    let inputs = Inputs::generate(w, seed, span_s);
    let tier = Tier::start(w, &inputs.refs, inputs.forest_seed)?;
    let conns = loadgen::connect(tier.addr, conns_of(w))?;
    Ok(ServeRig {
        inputs,
        tier,
        conns,
    })
}

/// Connections the generator holds for `w`.
fn conns_of(w: &Workload) -> usize {
    match w.load {
        Load::Open { conns, .. } | Load::Closed { conns } => conns,
        Load::Calls => 0,
    }
}

fn requests_of(w: &Workload, inputs: &Inputs) -> Vec<Request> {
    (0..inputs.queries.len() / w.m)
        .map(|i| probes::request(w, &inputs.queries, i))
        .collect()
}

fn serve_pass(
    w: &Workload,
    rig: &mut ServeRig,
    expected: &NeighborTable<f64>,
    warmup_s: f64,
    window_s: f64,
    rec: &mut SpanRec,
) -> Result<LoadResult, RunError> {
    let span_ns = ((warmup_s + window_s) * 1e9) as u64;
    let mode = match w.load {
        Load::Open { .. } => {
            let due = rig.inputs.schedule.partition_point(|&t| t < span_ns);
            Mode::Open {
                schedule: &rig.inputs.schedule[..due],
            }
        }
        Load::Closed { .. } => Mode::Closed,
        Load::Calls => unreachable!("kernel workloads have no generator"),
    };
    let plan = Plan {
        mode,
        warmup: Duration::from_secs_f64(warmup_s),
        window: Duration::from_secs_f64(window_s),
        deadline: Duration::from_millis(u64::from(w.deadline_ms)),
    };
    let mut requests = requests_of(w, &rig.inputs);
    let mut check = |i: usize, body: &[u8]| verify::reply_matches(body, expected, i * w.m, w.m);
    let res = loadgen::run(&plan, &mut rig.conns, &mut requests, &mut check, rec)?;
    match res.invalid_reason() {
        Some(why) => Err(RunError::Invalid(why)),
        None => Ok(res),
    }
}

/// `correct` for a serving run: nothing failed, and the sampled replies
/// agree with the oracle as far as the index promises.
fn serve_correct(w: &Workload, res: &LoadResult, recall: f64, exact: bool) -> bool {
    res.scheduled > 0 && res.failed_total() == 0 && (!w.exact() || (exact && recall == 1.0))
}

fn serve_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, RunError> {
    let span_s = WARMUP_S + seconds;
    let mut setups = Vec::new();
    let mut rig: Option<ServeRig> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = rig.take() {
            old.stop()?;
        }
        let t = Instant::now();
        rig = Some(serve_setup(w, seed, span_s)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("set up at least once");
    let expected = verify::expected_replies(
        w,
        &rig.inputs.refs,
        &rig.inputs.queries,
        rig.inputs.forest_seed,
    );
    let res = serve_pass(
        w,
        &mut rig,
        &expected,
        WARMUP_S,
        seconds,
        &mut SpanRec::off(),
    );
    let inputs = rig.stop()?;
    let res = res?;
    let (recall, exact) = verify::sample_recall(w, &inputs.refs, &inputs.queries, &expected);

    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setups));
    metrics.insert("queries_per_s", res.median_slice_qps() * w.m as f64);
    metrics.insert(
        "goodput_frac",
        res.good as f64 / res.scheduled.max(1) as f64,
    );
    metrics.insert("recall", recall);
    metrics.insert("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        metrics,
        attempted: res.scheduled,
        failed: res.failed_total(),
        correct: serve_correct(w, &res, recall, exact),
        workload_hash: inputs.hash(),
        latency: Latency::of_sorted(&res.latencies_us),
    })
}

fn serve_traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, RunError> {
    let span_s = TRACED_WARMUP_S + seconds * TRACED_SHARE;
    let mut rig = serve_setup(w, seed, span_s)?;
    let expected = verify::expected_replies(
        w,
        &rig.inputs.refs,
        &rig.inputs.queries,
        rig.inputs.forest_seed,
    );
    let mut rec = SpanRec::on();
    let measured = (|| {
        let baseline = serve_pass(
            w,
            &mut rig,
            &expected,
            TRACED_WARMUP_S,
            seconds * BASELINE_SHARE,
            &mut SpanRec::off(),
        )?;
        let before = rig.tier.backend_stats()?;
        let traced = serve_pass(
            w,
            &mut rig,
            &expected,
            TRACED_WARMUP_S,
            seconds * TRACED_SHARE,
            &mut rec,
        )?;
        let after = rig.tier.backend_stats()?;
        let mut metrics = probes::run(w, &rig.inputs, Some(&rig.tier), Some(&expected), None)?;
        probes::serve_layer(&before, &after, &mut metrics);
        Ok::<_, RunError>((baseline, traced, metrics))
    })();
    let inputs = rig.stop()?;
    let (baseline, traced, mut metrics) = measured?;
    let (recall, exact) = verify::sample_recall(w, &inputs.refs, &inputs.queries, &expected);

    metrics.insert("loadgen.offered_qps", traced.offered_qps() * w.m as f64);
    metrics.insert("loadgen.achieved_qps", traced.achieved_qps() * w.m as f64);
    metrics.insert("loadgen.send_lag_p99_us", traced.send_lag_p99_us());
    metrics.insert("loadgen.inflight_max", traced.inflight_max as f64);
    metrics.insert(
        "bench.trace_overhead_frac",
        1.0 - traced.median_slice_qps() / baseline.median_slice_qps(),
    );
    metrics.insert(
        "client.fail_frac",
        traced.failed_total() as f64 / traced.scheduled.max(1) as f64,
    );
    let latency = Latency::of_sorted(&traced.latencies_us);
    latency.insert_into(&mut metrics);
    metrics.insert("self.request_wait_ns", rec.mean_self_ns("request"));
    metrics.insert("self.client_send_ns", rec.mean_self_ns("client.send"));
    metrics.insert("self.client_recv_ns", rec.mean_self_ns("client.recv"));
    metrics.insert(
        "self.wire_codec_ns",
        rec.mean_self_ns("wire.encode_req") + rec.mean_self_ns("wire.decode_resp"),
    );
    metrics.insert(
        "self.table_decode_ns",
        rec.mean_self_ns("select.table_decode"),
    );
    write_trace(w, &rec)?;
    Ok(Outcome {
        metrics,
        attempted: traced.scheduled,
        failed: traced.failed_total(),
        correct: serve_correct(w, &traced, recall, exact),
        workload_hash: inputs.hash(),
        latency,
    })
}

// ------------------------------------------------------------ entry points

/// Where the traced run of `w` writes its Chrome trace.
pub fn trace_path(w: &Workload) -> PathBuf {
    PathBuf::from("bench_out/ledger").join(format!("trace_{}.json", w.name))
}

fn write_trace(w: &Workload, rec: &SpanRec) -> io::Result<()> {
    let path = trace_path(w);
    let shown = rec.write_chrome(&path)?;
    println!(
        "trace: {} of {} spans written to {}",
        shown,
        rec.spans().len(),
        path.display()
    );
    Ok(())
}

/// The untraced run: every end-to-end metric of `w`.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, RunError> {
    match w.kind {
        Kind::Kernel => Ok(kernel_end_to_end(w, seed, seconds)),
        Kind::Serve | Kind::Route => serve_end_to_end(w, seed, seconds),
    }
}

/// The traced run: every per-layer metric of `w`.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, RunError> {
    match w.kind {
        Kind::Kernel => Ok(kernel_traced(w, seed, seconds)?),
        Kind::Serve | Kind::Route => serve_traced(w, seed, seconds),
    }
}
