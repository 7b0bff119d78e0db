//! The profiler: time the configured kernel on a problem and join its
//! measured phase breakdown against the §2.6 model's itemized terms.

use crate::report::{phase_rows, DriftRow, ProfileReport};
use dataset::{DistanceKind, PointSet};
use gsknn_core::buffers::KernelStats;
use gsknn_core::model::Approach;
use gsknn_core::obs::{Phase, PhaseSet};
use gsknn_core::{FusedScalar, Gsknn, GsknnConfig, MachineParams, Model, ProblemSize};
use std::time::Instant;

fn term(terms: &[(&'static str, f64)], name: &str) -> Option<f64> {
    terms.iter().find(|(t, _)| *t == name).map(|&(_, v)| v)
}

/// Join the §2.6 model's Var#1 terms against the measured phases,
/// component by component. The compute time `Tf + To` has no memory term
/// of its own, so it folds into the rank-dc component (the phase that
/// executes it).
fn drift_join(model: &Model, ps: &ProblemSize, phases: &PhaseSet) -> Vec<DriftRow> {
    let terms = model.tm_terms(ps, Approach::Var1);
    let compute = model.t_compute(ps);
    let mut rows = Vec::new();

    let mut push = |component: &'static str,
                    named: &[&str],
                    extra: f64,
                    extra_name: Option<&str>,
                    phase: Phase| {
        let mut sum = extra;
        let mut joined: Vec<String> = extra_name.iter().map(|s| s.to_string()).collect();
        for name in named {
            if let Some(v) = term(&terms, name) {
                sum += v;
                joined.push(name.to_string());
            }
        }
        rows.push(DriftRow {
            component,
            terms: joined,
            predicted: sum,
            measured: phases.seconds(phase),
        });
    };

    push("gather-pack R", &["pack Rc + R2c"], 0.0, None, Phase::PackR);
    push(
        "gather-pack Q",
        &["pack Qc + Qc2 (per jc block)"],
        0.0,
        None,
        Phase::PackQ,
    );
    push(
        "rank-dc + C traffic",
        &["Cc rank-dc spill"],
        compute,
        Some("compute (Tf + To)"),
        Phase::RankDc,
    );
    push(
        "selection",
        &[
            "reservoir appends",
            "reservoir compactions",
            "row sort (per jc block)",
            "heap (binary, random access)",
        ],
        0.0,
        None,
        Phase::Select,
    );
    push("writeback", &["writeback"], 0.0, None, Phase::Writeback);
    rows
}

/// Profile one kNN problem: time the kernel [`GsknnConfig::for_scalar`]
/// configures (`reps` repetitions, best kept), read the best run's phase
/// breakdown and kernel counters, and join them against the model's
/// Var#1 terms. Generic over the element type: for `f32` the machine
/// constants are rescaled (`MachineParams::for_scalar`) so the drift join
/// compares against the doubled-lane predictions.
pub fn profile_run<T: FusedScalar>(
    x: &PointSet<T>,
    q_idx: &[usize],
    r_idx: &[usize],
    k: usize,
    kind: DistanceKind,
    machine: MachineParams,
    reps: usize,
) -> ProfileReport {
    let reps = reps.max(1);
    let ps = ProblemSize {
        m: q_idx.len(),
        n: r_idx.len(),
        d: x.dim(),
        k,
    };
    let model = Model::new(machine.for_scalar::<T>());

    let mut exec: Gsknn<T> = Gsknn::new(GsknnConfig::for_scalar::<T>());
    let mut measured_total = f64::INFINITY;
    let mut phases = PhaseSet::new();
    let mut stats = KernelStats::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let _ = exec.run(x, q_idx, r_idx, k, kind);
        let secs = t0.elapsed().as_secs_f64();
        if secs < measured_total {
            measured_total = secs;
            phases = exec.last_phases();
            stats = exec.last_stats();
        }
    }

    ProfileReport {
        m: ps.m,
        n: ps.n,
        d: ps.d,
        k: ps.k,
        precision: T::NAME,
        kind: kind.name().to_string(),
        reps,
        obs_enabled: gsknn_core::obs::enabled(),
        variant_profiled: exec.config().variant.name().to_string(),
        measured_total,
        predicted_total: model.predict(&ps, Approach::Var1),
        measured_gflops: model.flops(&ps) / measured_total / 1e9,
        predicted_gflops: model.gflops(&ps, Approach::Var1),
        phases: phase_rows(&phases),
        drift: drift_join(&model, &ps, &phases),
        stats,
    }
}

/// [`profile_run`] on a synthetic uniform problem: `max(m, n)` points in
/// `d` dimensions, queries `0..m`, references `0..n`. The data is drawn
/// in `f64` and cast, so both precisions profile the same point set.
#[allow(clippy::too_many_arguments)] // flat mirror of the CLI flag list
pub fn profile_synthetic<T: FusedScalar>(
    m: usize,
    n: usize,
    d: usize,
    k: usize,
    seed: u64,
    kind: DistanceKind,
    machine: MachineParams,
    reps: usize,
) -> ProfileReport {
    let x = dataset::uniform(m.max(n).max(1), d, seed).cast::<T>();
    let q_idx: Vec<usize> = (0..m).collect();
    let r_idx: Vec<usize> = (0..n).collect();
    profile_run(&x, &q_idx, &r_idx, k, kind, machine, reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> ProfileReport {
        profile_synthetic::<f64>(
            96,
            256,
            16,
            8,
            7,
            DistanceKind::SqL2,
            MachineParams::ivy_bridge_1core(),
            2,
        )
    }

    #[test]
    fn report_covers_the_configured_kernel_and_all_phases() {
        let r = small_report();
        assert_eq!(r.variant_profiled, "Var#1");
        assert!(r.predicted_total > 0.0);
        assert!(r.measured_total > 0.0);
        assert_eq!(r.phases.len(), gsknn_core::obs::PHASE_COUNT);
        assert_eq!(r.drift.len(), 5);
        assert!(r.measured_gflops > 0.0);
        assert!(r.predicted_gflops > 0.0);
        assert!(r.stats.tiles > 0);
    }

    #[test]
    fn drift_rows_join_actual_model_terms() {
        let r = small_report();
        let model = Model::new(MachineParams::ivy_bridge_1core());
        let ps = ProblemSize {
            m: 96,
            n: 256,
            d: 16,
            k: 8,
        };
        let terms = model.tm_terms(&ps, Approach::Var1);
        // the pack-R component must carry exactly the model's pack term
        let pack_r = r
            .drift
            .iter()
            .find(|d| d.component == "gather-pack R")
            .unwrap();
        assert_eq!(pack_r.terms, vec!["pack Rc + R2c".to_string()]);
        let model_val = terms.iter().find(|(t, _)| *t == "pack Rc + R2c").unwrap().1;
        assert!((pack_r.predicted - model_val).abs() < 1e-15);
        // every named term of the model appears in exactly one component
        for (name, _) in &terms {
            let hits: usize = r
                .drift
                .iter()
                .filter(|d| d.terms.iter().any(|t| t == name))
                .count();
            assert_eq!(hits, 1, "term {name} joined {hits} times");
        }
        // storing the sorted rows is a term of its own
        let wb = r.drift.iter().find(|d| d.component == "writeback").unwrap();
        assert_eq!(wb.terms, vec!["writeback".to_string()]);
        assert!(wb.predicted > 0.0);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn phases_are_measured_with_obs() {
        let r = small_report();
        assert!(r.obs_enabled);
        let total: f64 = r.phases.iter().map(|p| p.seconds).sum();
        assert!(total > 0.0, "no phase time recorded");
        let shares: f64 = r.phases.iter().map(|p| p.share).sum();
        assert!((shares - 1.0).abs() < 1e-9);
        // rank-dc must have recorded spans on a real problem
        assert!(r
            .phases
            .iter()
            .any(|p| p.phase == "rank-dc kernel" && p.spans > 0));
    }

    #[test]
    fn f32_report_carries_precision_and_scaled_predictions() {
        let r32 = profile_synthetic::<f32>(
            96,
            256,
            16,
            8,
            7,
            DistanceKind::SqL2,
            MachineParams::ivy_bridge_1core(),
            1,
        );
        let r64 = small_report();
        assert_eq!(r32.precision, "f32");
        assert_eq!(r64.precision, "f64");
        // the f32 machine model halves every bandwidth-bound term, so the
        // predicted total must drop strictly below the f64 prediction
        assert!(r32.predicted_total < r64.predicted_total);
        assert_eq!(
            r32.to_json().get("precision").and_then(|v| v.as_str()),
            Some("f32")
        );
        assert!(r32.render_table().contains(" f32 "));
    }

    #[test]
    fn json_round_trips_through_parser() {
        let r = small_report();
        let text = r.to_json().to_string();
        let back = serde_json::from_str(&text).expect("report JSON parses");
        assert_eq!(back.get("m").and_then(|v| v.as_u64()), Some(96));
        assert_eq!(
            back.get("phases")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(gsknn_core::obs::PHASE_COUNT)
        );
        assert!(back.get("stats").and_then(|v| v.get("tiles")).is_some());
    }

    #[test]
    fn table_renders_key_sections() {
        let r = small_report();
        let t = r.render_table();
        assert!(t.contains("profile: m=96 n=256 d=16 k=8"));
        assert!(t.contains("total (Var#1): measured"));
        assert!(!t.contains("model picks"));
        assert!(t.contains("kernel stats:"));
    }
}
