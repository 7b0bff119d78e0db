//! `bench_ledger` — one layered benchmark over kernel → index → serve →
//! route. See README.md beside this crate for every workload and metric.
//!
//! ```text
//! bench_ledger --workload <name> --seed <u64> [--seconds S] [--trace 0|1]
//!              [--traced] [--repeat N]
//! bench_ledger --list | --smoke
//! ```
//!
//! `--trace 0` (default) measures the end-to-end metrics with the span
//! recorder off; `--trace 1` runs the traced pass and the per-layer
//! probes; `--traced` does both. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Exit codes: 0 measured and correct; 1 a reply was wrong or an
//! operation failed; 2 usage or I/O error; 3 the open-loop generator
//! could not hold its schedule (the run is invalid, not slow).

mod gen;
mod loadgen;
mod probes;
mod run;
mod span;
mod spec;
mod stats;
mod tier;
mod verify;

use probes::Metrics;
use run::{Outcome, RunError};
use spec::{MetricDecl, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 2.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    untraced: bool,
    traced: bool,
    repeat: usize,
    list: bool,
    smoke: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_ledger --workload <name> --seed <u64> [--seconds S] [--trace 0|1] \
         [--traced] [--repeat N]\n       bench_ledger --list | --smoke"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        untraced: true,
        traced: false,
        repeat: 1,
        list: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(it.next()?),
            "--seed" => a.seed = it.next()?.parse().ok()?,
            "--seconds" => a.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => match it.next()?.as_str() {
                "0" => (a.untraced, a.traced) = (true, false),
                "1" => (a.untraced, a.traced) = (false, true),
                _ => return None,
            },
            "--traced" => (a.untraced, a.traced) = (true, true),
            "--repeat" => a.repeat = it.next()?.parse().ok().filter(|n| *n >= 1)?,
            "--list" => a.list = true,
            "--smoke" => a.smoke = true,
            _ => return None,
        }
    }
    Some(a)
}

fn list() {
    for w in &WORKLOADS {
        println!("workload {} -- {}", w.name, w.why);
    }
    for (name, unit) in END_TO_END {
        println!("end_to_end {name} {unit}");
    }
    for (name, unit) in PER_LAYER {
        println!("per_layer {name} {unit}");
    }
}

/// A metric as printed: name, unit, value.
type Row = (&'static str, &'static str, f64);

/// What the JSON line says about one workload.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Row>,
}

/// The declared metrics of a pass with their values; one the run did not
/// set (a layer the workload bypasses) is 0.
fn declared(decls: &[MetricDecl], measured: &Metrics) -> Vec<Row> {
    decls
        .iter()
        .map(|&(name, unit)| (name, unit, measured.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn print_ladder(m: &Metrics) {
    let Some(&floor) = m.get("ladder.floor_ns") else {
        return;
    };
    println!("ladder (ns per query, one query at a time; floor = sorted-insert brute force)");
    println!("  {:<10} {:>12} {:>12}  verdict", "rung", "ns", "floor_ns");
    for (rung, key) in [
        ("floor", "ladder.floor_ns"),
        ("gemm_ref", "ladder.gemm_ref_ns"),
        ("kernel", "ladder.kernel_ns"),
        ("index", "ladder.index_ns"),
        ("tcp", "ladder.tcp_ns"),
        ("routed", "ladder.routed_ns"),
    ] {
        match m.get(key) {
            Some(&ns) => println!(
                "  {rung:<10} {ns:>12.0} {floor:>12.0}  {}",
                if rung == "floor" {
                    "-"
                } else if ns < floor {
                    "beats the floor"
                } else {
                    "slower than the floor"
                }
            ),
            None => println!("  {rung:<10} {:>12} {floor:>12.0}  not traversed", "-"),
        }
    }
    if let (Some(tcp), Some(index), Some(routed)) = (
        m.get("ladder.tcp_ns"),
        m.get("ladder.index_ns"),
        m.get("ladder.routed_ns"),
    ) {
        println!(
            "  wire+shard = tcp - index = {:.0} ns; router = routed - tcp = {:.0} ns",
            tcp - index,
            routed - tcp
        );
    }
}

fn json_line(m: &Measured, smoke: bool) -> String {
    let Measured {
        correct,
        attempted,
        failed,
        metrics,
    } = m;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, {}\"metrics\": {{{}}}}}",
        if smoke { "\"smoke\": true, " } else { "" },
        body.join(", ")
    )
}

/// A run whose generator fell behind its schedule measured the generator,
/// not the system: it is discarded and made again from a fresh set-up, at
/// most twice, before the command gives up with exit code 3.
fn remeasuring(mut run: impl FnMut() -> Result<Outcome, RunError>) -> Result<Outcome, RunError> {
    let mut discarded = 0;
    loop {
        match run() {
            Err(RunError::Invalid(why)) if discarded < 2 => {
                discarded += 1;
                eprintln!("bench_ledger: run discarded as invalid ({why}); measuring again");
            }
            other => return other,
        }
    }
}

/// One workload's passes, `repeat` times; prints as it goes and returns
/// the JSON line's parts (medians over the repeats).
fn measure(w: &Workload, a: &Args, seconds: f64) -> Result<Measured, RunError> {
    let mut runs: Vec<Vec<Row>> = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for rep in 0..a.repeat {
        let mut row = Vec::new();
        let mut passes: Vec<(&[MetricDecl], Outcome)> = Vec::new();
        if a.untraced {
            let out = remeasuring(|| run::end_to_end(w, a.seed, seconds))?;
            passes.push((&END_TO_END, out));
        }
        if a.traced {
            let out = remeasuring(|| run::traced(w, a.seed, seconds))?;
            passes.push((&PER_LAYER, out));
        }
        for (decls, out) in &passes {
            println!(
                "{} seed {} run {}/{}: workload_hash {:016x}, attempted {}, failed {}",
                w.name,
                a.seed,
                rep + 1,
                a.repeat,
                out.workload_hash,
                out.attempted,
                out.failed
            );
            println!(
                "  latency p50 {:.1} us, p99 {:.1} us over {} samples",
                out.latency.p50_us, out.latency.p99_us, out.latency.samples
            );
            let values = declared(decls, &out.metrics);
            for (name, unit, value) in &values {
                println!("  {name:<40} {value:>16.4} {unit}");
            }
            print_ladder(&out.metrics);
            row.extend(values);
            correct &= out.correct;
            attempted += out.attempted;
            failed += out.failed;
        }
        runs.push(row);
    }
    let mut medians = runs[0].clone();
    if a.repeat > 1 {
        println!(
            "{} over {} runs: {:<28} {:>14} {:>14} {:>14} {:>14}",
            w.name, a.repeat, "metric", "median", "q1", "q3", "mad"
        );
        for (i, slot) in medians.iter_mut().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r[i].2).collect();
            let (q1, q3) = stats::quartiles(&values);
            slot.2 = stats::median(&values);
            println!(
                "  {:<40} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {}",
                slot.0,
                slot.2,
                q1,
                q3,
                stats::mad(&values),
                slot.1
            );
        }
    }
    Ok(Measured {
        correct,
        attempted,
        failed,
        metrics: medians,
    })
}

fn fail(e: RunError) -> ExitCode {
    match e {
        RunError::Io(e) => {
            eprintln!("bench_ledger: {e}");
            ExitCode::from(2)
        }
        RunError::Invalid(why) => {
            eprintln!("bench_ledger: run invalid: {why}");
            ExitCode::from(3)
        }
    }
}

fn main() -> ExitCode {
    let Some(mut a) = parse_args() else {
        return usage();
    };
    if a.list {
        list();
        return ExitCode::SUCCESS;
    }
    if a.smoke {
        // every workload, both passes, briefly: proves the harness, and
        // says so in its output so the numbers are never compared
        (a.untraced, a.traced, a.repeat) = (true, true, 1);
        let mut total = Measured {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for w in &WORKLOADS {
            println!(
                "SMOKE {} ({SMOKE_SECONDS} s): numbers are not comparable",
                w.name
            );
            match measure(w, &a, SMOKE_SECONDS) {
                Ok(m) => {
                    total.correct &= m.correct;
                    total.attempted += m.attempted;
                    total.failed += m.failed;
                }
                Err(e) => return fail(e),
            }
        }
        println!("{}", json_line(&total, true));
        return if total.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    let Some(w) = a.workload.as_deref().and_then(spec::workload) else {
        eprintln!(
            "bench_ledger: --workload must be one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return usage();
    };
    match measure(w, &a, a.seconds) {
        Ok(m) => {
            println!("{}", json_line(&m, false));
            if m.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "bench_ledger: {} of {} operations failed or were wrong",
                    m.failed, m.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => fail(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(|a| a.as_array())
            .expect(key)
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(|s| s.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `--list` and BENCHMARK.json declare the same workloads and
    /// metrics, in the same order, with the same units.
    #[test]
    fn declarations_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let own = |decls: &[MetricDecl]| -> Vec<(String, String)> {
            decls
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads = doc.get("workloads").and_then(|w| w.as_array()).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (declared, own) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                declared.get("name").and_then(|n| n.as_str()),
                Some(own.name)
            );
            assert_eq!(declared.get("why").and_then(|n| n.as_str()), Some(own.why));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(|s| s.as_f64()),
            Some(DEFAULT_SECONDS)
        );
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(name), "{name} declared twice");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let measured = Measured {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("lat_p50_us", "us", 12.5)],
        };
        let line = json_line(&measured, false);
        let v = serde_json::from_str(&line).expect("parses");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(10));
        let m = v.get("metrics").and_then(|m| m.get("lat_p50_us")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(12.5));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("us"));
    }
}
