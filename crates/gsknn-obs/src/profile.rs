//! The profiler: run a problem under both candidate variants, join the
//! measured phase breakdown against the §2.6 model's itemized terms, and
//! judge the model's variant choice empirically.

use crate::report::{phase_rows, DriftRow, ProfileReport, VariantTiming};
use dataset::{DistanceKind, PointSet};
use gsknn_core::buffers::KernelStats;
use gsknn_core::model::Approach;
use gsknn_core::obs::{Phase, PhaseSet};
use gsknn_core::{FusedScalar, Gsknn, GsknnConfig, MachineParams, Model, ProblemSize, Variant};
use std::time::Instant;

fn term(terms: &[(&'static str, f64)], name: &str) -> Option<f64> {
    terms.iter().find(|(t, _)| *t == name).map(|&(_, v)| v)
}

/// Join the §2.6 model terms against the measured phases, component by
/// component. The compute time `Tf + To` has no memory term of its own,
/// so it folds into the rank-dc component (the phase that executes it).
fn drift_join(
    model: &Model,
    ps: &ProblemSize,
    approach: Approach,
    phases: &PhaseSet,
) -> Vec<DriftRow> {
    let terms = model.tm_terms(ps, approach);
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
        &["Cc rank-dc spill", "store C"],
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
            "heap (4-ary, cache-line access)",
        ],
        0.0,
        None,
        Phase::Select,
    );
    push("writeback", &["writeback"], 0.0, None, Phase::Writeback);
    rows
}

/// Profile one kNN problem: time Var#1 and Var#6 (`reps` repetitions
/// each, best kept), read the phase breakdown and kernel counters of the
/// variant `Variant::Auto` resolves to, join them against the model, and
/// judge the model's own Var#1/Var#6 pick against the clock. Generic
/// over the element type: for `f32` the machine constants are rescaled
/// (`MachineParams::for_scalar`) so the drift join compares against the
/// doubled-lane predictions, and the blocking comes from
/// [`GsknnConfig::for_scalar`].
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

    let candidates = [
        (Variant::Var1, Approach::Var1),
        (Variant::Var6, Approach::Var6),
    ];
    let mut variants = Vec::new();
    let mut observed: Vec<(PhaseSet, KernelStats)> = Vec::new();
    for (variant, approach) in candidates {
        let mut exec: Gsknn<T> = Gsknn::new(GsknnConfig {
            variant,
            ..GsknnConfig::for_scalar::<T>()
        });
        let mut best = f64::INFINITY;
        let mut phases = PhaseSet::new();
        let mut stats = KernelStats::default();
        for _ in 0..reps {
            let t0 = Instant::now();
            let _ = exec.run(x, q_idx, r_idx, k, kind);
            let secs = t0.elapsed().as_secs_f64();
            if secs < best {
                best = secs;
                phases = exec.last_phases();
                stats = exec.last_stats();
            }
        }
        variants.push(VariantTiming {
            variant: variant.name().to_string(),
            predicted: model.predict(&ps, approach),
            measured: best,
        });
        observed.push((phases, stats));
    }

    let index_of = |v: Variant| usize::from(v == Variant::Var6);
    let predicted = index_of(model.choose_variant(&ps));
    let empirical = usize::from(variants[0].measured > variants[1].measured);
    let auto: Gsknn<T> = Gsknn::new(GsknnConfig::for_scalar::<T>());
    let profiled = index_of(auto.effective_variant(ps.m, ps.n, ps.d, ps.k));
    let (phases, stats) = observed[profiled];
    let approach = candidates[profiled].1;
    let measured_total = variants[profiled].measured;
    let predicted_total = variants[profiled].predicted;

    ProfileReport {
        m: ps.m,
        n: ps.n,
        d: ps.d,
        k: ps.k,
        precision: T::NAME,
        kind: kind.name().to_string(),
        reps,
        obs_enabled: gsknn_core::obs::enabled(),
        variant_predicted: variants[predicted].variant.clone(),
        variant_empirical: variants[empirical].variant.clone(),
        model_choice_correct: predicted == empirical,
        variant_profiled: variants[profiled].variant.clone(),
        measured_total,
        predicted_total,
        measured_gflops: model.flops(&ps) / measured_total / 1e9,
        predicted_gflops: model.gflops(&ps, approach),
        phases: phase_rows(&phases),
        drift: drift_join(&model, &ps, approach, &phases),
        variants,
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
    fn report_covers_both_variants_and_all_phases() {
        let r = small_report();
        assert_eq!(r.variants.len(), 2);
        assert!(r.variants.iter().all(|v| v.predicted > 0.0));
        assert!(r.variants.iter().all(|v| v.measured > 0.0));
        assert_eq!(r.phases.len(), gsknn_core::obs::PHASE_COUNT);
        assert_eq!(r.drift.len(), 5);
        assert!(r.measured_gflops > 0.0);
        assert!(r.predicted_gflops > 0.0);
        assert!(r.stats.tiles > 0);
        // predicted, fastest and profiled are each one of the candidates
        for name in [
            &r.variant_predicted,
            &r.variant_empirical,
            &r.variant_profiled,
        ] {
            assert!(r.variants.iter().any(|v| &v.variant == name));
        }
        assert_eq!(
            r.model_choice_correct,
            r.variant_predicted == r.variant_empirical
        );
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
        let approach = if r.variant_profiled == Variant::Var6.name() {
            Approach::Var6
        } else {
            Approach::Var1
        };
        let terms = model.tm_terms(&ps, approach);
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
        for (v32, v64) in r32.variants.iter().zip(&r64.variants) {
            assert_eq!(v32.variant, v64.variant);
            assert!(v32.predicted < v64.predicted, "{}", v32.variant);
        }
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
        assert!(t.contains("variant: model picks"));
        assert!(t.contains("kernel stats:"));
    }
}
