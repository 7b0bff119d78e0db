//! Overhead guard for the observability layer: the instrumented hot path
//! must cost nothing when the `obs` feature is off.
//!
//! A compile-time feature cannot be A/B-tested inside one binary, so the
//! guard is structural: without `obs`, `PhaseSet` is a ZST and records
//! nothing, so the probe argument passed through the whole nest adds no
//! state and `PhaseSet::time` reduces to a direct call.
//!
//! With `obs` on the probes are *not* free — a clock read is about an
//! eighth of a d = 64 tile, and a span per tile and phase made four — so
//! their cost is bounded by counting, not by timing: the unit tests in
//! `src/sweep_tests.rs` (`probes`, built with `--features obs`) hold an
//! interior sweep to its clock-read budget and its sampled phase split to
//! an every-tile measurement of the same call.

#[cfg(not(feature = "obs"))]
use gsknn_core::PhaseSet;
use gsknn_core::{DistanceKind, Gsknn, GsknnConfig, Phase};
#[cfg(feature = "obs")]
use std::time::Instant;

#[cfg(not(feature = "obs"))]
#[test]
fn phaseset_is_zero_sized_without_obs() {
    assert_eq!(std::mem::size_of::<PhaseSet>(), 0);
    let mut ps = PhaseSet::new();
    let v = ps.time(Phase::RankDc, || 7);
    assert_eq!(v, 7);
    assert_eq!(ps.count(Phase::RankDc), 0);
    assert_eq!(ps.total_seconds(), 0.0);
    assert!(!gsknn_core::obs::enabled());
}

#[cfg(not(feature = "obs"))]
#[test]
fn kernel_records_no_phases_without_obs() {
    let x = dataset::uniform(300, 12, 3);
    let q: Vec<usize> = (0..64).collect();
    let r: Vec<usize> = (0..300).collect();
    let mut exec = Gsknn::new(GsknnConfig::default());
    let _ = exec.run(&x, &q, &r, 8, DistanceKind::SqL2);
    let ph = exec.last_phases();
    for p in Phase::ALL {
        assert_eq!(ph.count(p), 0, "{} recorded a span without obs", p.name());
        assert_eq!(ph.seconds(p), 0.0);
    }
}

#[cfg(feature = "obs")]
#[test]
fn kernel_records_phases_with_obs() {
    assert!(gsknn_core::obs::enabled());
    let x = dataset::uniform(300, 12, 3);
    let q: Vec<usize> = (0..64).collect();
    let r: Vec<usize> = (0..300).collect();
    // one worker: the phases of one thread against its wall time
    let mut exec = Gsknn::new(GsknnConfig {
        p: 1,
        ..GsknnConfig::default()
    });
    let t0 = Instant::now();
    let _ = exec.run(&x, &q, &r, 8, DistanceKind::SqL2);
    let wall = t0.elapsed().as_secs_f64();
    let ph = exec.last_phases();
    for p in [Phase::PackR, Phase::PackQ, Phase::RankDc, Phase::Writeback] {
        assert!(ph.count(p) > 0, "{} recorded no spans", p.name());
        assert!(ph.seconds(p) > 0.0, "{} attributed no time", p.name());
    }
    // the serial phase breakdown accounts for at most the wall time
    // (generous 3x slack: debug builds + timer granularity)
    assert!(
        ph.total_seconds() <= wall * 3.0 + 1e-3,
        "phase total {} vs wall {}",
        ph.total_seconds(),
        wall
    );
}
