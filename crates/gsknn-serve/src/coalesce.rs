//! The model-driven coalescing policy.
//!
//! Per-query service is the worst case for the GSKNN kernel: an `m = 1`
//! problem amortizes none of the reference packing (`Rc`, `R2c`) the §2.6
//! model charges per flush, so GFLOPS collapses. The coalescer therefore
//! holds arriving queries and flushes one batched kernel call when either
//!
//! * **Model** — the batch reached the *efficient regime*: the model's
//!   predicted GFLOPS for `(m, n, d, k)` is at least `frac` of its
//!   prediction at the asymptote ([`ASYMPTOTE_M`] queries), or the batch
//!   hit the configured hard cap; or
//! * **Deadline** — the oldest held request has spent half its latency
//!   budget waiting (the other half is reserved for the kernel itself).
//!
//! [`batch_target`] turns the first trigger into a precomputed constant
//! `m*` per (index, precision) pair, so the hot path is one integer
//! comparison. Every price here is the model's Var#1 — the variant the
//! kernel runs — as the lane runs it: gather-packing each forest leaf's
//! references per call (`Approach::Var1`), or reading the flat index's
//! prepacked panels (`Approach::Var1Prepacked`).

use gsknn_core::model::Approach;
use gsknn_core::{Model, ProblemSize};

/// The `m` treated as "asymptotically large" when computing the GFLOPS
/// ceiling a batch is measured against (the paper's plots flatten well
/// before this).
pub const ASYMPTOTE_M: usize = 8192;

/// What made the coalescer flush a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// Batch reached the model-derived target `m*` (efficient regime).
    Model,
    /// The oldest request's coalesce budget ran out.
    Deadline,
    /// Shutdown drain — flushed whatever was held.
    Drain,
}

/// Smallest batch size `m*` whose predicted GFLOPS reaches `frac` of the
/// asymptotic prediction for this problem shape, capped at `max_batch`.
///
/// `approach` is how the lane's kernel calls run, `n` the per-call
/// reference count (the index's leaf size for forest-routed queries),
/// `d`/`k` the index dimension and the served neighbor count. The scan is
/// over the closed-form model only — no kernel runs — so this is cheap
/// enough to recompute per lane at startup.
pub fn batch_target(
    model: &Model,
    approach: Approach,
    n: usize,
    d: usize,
    k: usize,
    frac: f64,
    max_batch: usize,
) -> usize {
    assert!((0.0..=1.0).contains(&frac), "frac must be in [0, 1]");
    let max_batch = max_batch.max(1);
    let asym = ProblemSize {
        m: ASYMPTOTE_M.max(max_batch),
        n,
        d,
        k,
    };
    let goal = frac * model.gflops(&asym, approach);
    for m in 1..=max_batch {
        let p = ProblemSize { m, n, d, k };
        if model.gflops(&p, approach) >= goal {
            return m;
        }
    }
    max_batch
}

/// Model-predicted cost of one flushed batch of `m` queries against a
/// forest of `n_trees` trees with `leaf_size`-reference leaves (the flat
/// index: one tree, one leaf of every reference), each call run as
/// `approach`, with the itemized terms (the paper's Table 4 rows plus the
/// compute term).
///
/// Approximation, stated: the forest solves one cross-table kernel per
/// (tree, routed leaf) *group* of queries; this prices the batch as if
/// each tree kept the batch whole (`n_trees` calls of `(m, leaf_size, d,
/// k)`). Fragmented routing repacks references more often than that, so
/// measured cost drifting above predicted is expected at small leaf
/// occupancy — which is exactly what the [`gsknn_obs::ServeReport`]
/// drift row is for.
pub fn predict_batch_cost(
    model: &Model,
    approach: Approach,
    n_trees: usize,
    leaf_size: usize,
    m: usize,
    d: usize,
    k: usize,
) -> (f64, Vec<(&'static str, f64)>) {
    let mut terms = Vec::new();
    let total = predict_batch_cost_into(model, approach, n_trees, leaf_size, m, d, k, &mut terms);
    (total, terms)
}

/// [`predict_batch_cost`] into a caller-owned term buffer (cleared
/// first). The shard flush path calls this once per batch with a
/// retained buffer, keeping the steady-state query path allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn predict_batch_cost_into(
    model: &Model,
    approach: Approach,
    n_trees: usize,
    leaf_size: usize,
    m: usize,
    d: usize,
    k: usize,
    terms: &mut Vec<(&'static str, f64)>,
) -> f64 {
    let p = ProblemSize {
        m,
        n: leaf_size.max(1),
        d,
        k,
    };
    let scale = n_trees.max(1) as f64;
    model.tm_terms_into(&p, approach, terms);
    for term in terms.iter_mut() {
        term.1 *= scale;
    }
    terms.push(("compute (Tf + To)", model.t_compute(&p) * scale));
    model.predict(&p, approach) * scale
}

/// The total of [`predict_batch_cost`] without the itemization — and
/// without touching the heap, so the adaptive flush decision can run it
/// on every poll tick.
pub fn predict_batch_total(
    model: &Model,
    approach: Approach,
    n_trees: usize,
    leaf_size: usize,
    m: usize,
    d: usize,
    k: usize,
) -> f64 {
    let p = ProblemSize {
        m,
        n: leaf_size.max(1),
        d,
        k,
    };
    model.predict(&p, approach) * n_trees.max(1) as f64
}

/// Time constant of the arrival-rate EWMA: how much history the adaptive
/// flush decision weighs. Short enough to track a load step within a few
/// hundred milliseconds, long enough not to chase single-frame jitter.
pub const ARRIVAL_TAU_S: f64 = 0.25;

/// Exponentially-weighted moving average of the query arrival rate, fed
/// by the shard as requests land. Plain struct, no atomics — each shard
/// owns one per lane.
#[derive(Clone, Copy, Debug)]
pub struct ArrivalRate {
    rate_qps: f64,
    last_s: Option<f64>,
}

impl Default for ArrivalRate {
    fn default() -> Self {
        ArrivalRate::new()
    }
}

impl ArrivalRate {
    /// Start with no history (rate reads 0 until the second arrival).
    pub fn new() -> Self {
        ArrivalRate {
            rate_qps: 0.0,
            last_s: None,
        }
    }

    /// Record `m` query points arriving at time `now_s` (seconds on any
    /// monotonic clock).
    pub fn observe(&mut self, m: usize, now_s: f64) {
        match self.last_s {
            None => self.last_s = Some(now_s),
            Some(last) => {
                let dt = (now_s - last).max(1e-6);
                let inst = m as f64 / dt;
                let alpha = 1.0 - (-dt / ARRIVAL_TAU_S).exp();
                self.rate_qps += alpha * (inst - self.rate_qps);
                self.last_s = Some(now_s);
            }
        }
    }

    /// Current smoothed arrival rate in query points per second.
    pub fn qps(&self) -> f64 {
        self.rate_qps
    }
}

/// Adaptive flush decision (§2.6 model applied to the *waiting* tradeoff):
/// given `m` query points already held, a smoothed arrival rate, and the
/// oldest held request's remaining coalesce budget, decide whether
/// waiting for more arrivals can still pay for the latency it adds.
///
/// Waiting until the batch would reach `m2 = min(target, m + rate ·
/// remaining)` points costs every held query `(m2 - m) / rate` seconds of
/// extra wait, and saves each of the `m2` queries the difference in
/// model-predicted per-query time `cost(m)/m - cost(m2)/m2`. Flush now
/// when the total saving cannot cover the total added wait (or nothing
/// more is expected to arrive); keep holding otherwise.
#[allow(clippy::too_many_arguments)]
pub fn adaptive_should_flush(
    model: &Model,
    approach: Approach,
    n_trees: usize,
    leaf_size: usize,
    d: usize,
    k: usize,
    m: usize,
    target: usize,
    rate_qps: f64,
    remaining_s: f64,
) -> bool {
    debug_assert!(m >= 1);
    if m >= target || remaining_s <= 0.0 {
        return true;
    }
    // expected arrivals within the oldest request's remaining budget
    let expect = (rate_qps * remaining_s).floor() as usize;
    if expect == 0 {
        return true;
    }
    let m2 = target.min(m + expect);
    if m2 <= m {
        return true;
    }
    let cost_now = predict_batch_total(model, approach, n_trees, leaf_size, m, d, k);
    let cost_then = predict_batch_total(model, approach, n_trees, leaf_size, m2, d, k);
    let saved_per_query = cost_now / m as f64 - cost_then / m2 as f64;
    let wait_s = (m2 - m) as f64 / rate_qps;
    // total predicted saving across the grown batch vs total added wait
    saved_per_query * m2 as f64 <= wait_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsknn_core::MachineParams;

    fn model() -> Model {
        Model::new(MachineParams::ivy_bridge_1core())
    }

    #[test]
    fn target_grows_with_the_efficiency_bar() {
        let m = model();
        let lo = batch_target(&m, Approach::Var1, 512, 16, 8, 0.25, 4096);
        let hi = batch_target(&m, Approach::Var1, 512, 16, 8, 0.90, 4096);
        assert!(lo >= 1);
        assert!(hi >= lo, "stricter frac must not shrink m*: {lo} vs {hi}");
        assert!(hi <= 4096);
    }

    #[test]
    fn zero_frac_is_satisfied_immediately() {
        assert_eq!(
            batch_target(&model(), Approach::Var1, 512, 16, 8, 0.0, 4096),
            1
        );
    }

    #[test]
    fn cap_clamps_an_unreachable_bar() {
        // frac = 1.0 requires the asymptote itself; a small cap clamps it
        let t = batch_target(&model(), Approach::Var1, 2048, 64, 16, 1.0, 32);
        assert_eq!(t, 32);
    }

    #[test]
    fn target_meets_the_bar_it_claims() {
        let m = model();
        let (n, d, k, frac, cap) = (1024usize, 32usize, 8usize, 0.8f64, 8192usize);
        let t = batch_target(&m, Approach::Var1, n, d, k, frac, cap);
        let asym = ProblemSize {
            m: ASYMPTOTE_M,
            n,
            d,
            k,
        };
        let goal = frac * m.gflops(&asym, Approach::Var1);
        let at_t = m.gflops(&ProblemSize { m: t, n, d, k }, Approach::Var1);
        assert!(at_t >= goal, "m* = {t}: {at_t} < {goal}");
        if t > 1 {
            let below = m.gflops(&ProblemSize { m: t - 1, n, d, k }, Approach::Var1);
            assert!(
                below < goal,
                "m* not minimal: {below} >= {goal} at m = {}",
                t - 1
            );
        }
    }

    /// The serve ledger's forest lane: 512-point leaves, d = 16, `k_max`.
    const LEAF: usize = 512;
    const D: usize = 16;
    const K_MAX: usize = 128;

    fn lane_models() -> [Model; 2] {
        let machine = MachineParams::ivy_bridge_1core();
        [
            Model::new(machine.for_scalar::<f64>()),
            Model::new(machine.for_scalar::<f32>()),
        ]
    }

    #[test]
    fn target_prices_var1_at_the_forest_lane() {
        // the model's Var#6 would put m* at 27 here; Var#1 is what runs
        for model in lane_models() {
            assert_eq!(
                batch_target(&model, Approach::Var1, LEAF, D, K_MAX, 0.9, 512),
                21
            );
        }
    }

    #[test]
    fn batch_cost_itemizes_the_reservoir_terms() {
        for model in lane_models() {
            let (_, terms) = predict_batch_cost(&model, Approach::Var1, 4, LEAF, 21, D, K_MAX);
            let names: Vec<&str> = terms.iter().map(|(name, _)| *name).collect();
            for name in [
                "reservoir appends",
                "reservoir compactions",
                "row sort (per jc block)",
            ] {
                assert!(names.contains(&name), "{name} missing from {names:?}");
            }
            assert!(
                !names.contains(&"heap (4-ary, cache-line access)"),
                "{names:?}"
            );
        }
    }

    #[test]
    fn the_exact_lane_prices_one_read_of_its_panels() {
        // the serve ledger's flat lane: n = 32768 prepacked references,
        // d = 64, k_max
        let (n, d) = (32768, 64);
        for model in lane_models() {
            let (_, terms) = predict_batch_cost(&model, Approach::Var1Prepacked, 1, n, 32, d, 16);
            let names: Vec<&str> = terms.iter().map(|(name, _)| *name).collect();
            assert!(names.contains(&"read prepacked Rc + R2c"), "{names:?}");
            assert!(!names.contains(&"pack Rc + R2c"), "{names:?}");
            // n fewer norm reads per batch: m* moves 202 -> 199
            let target = |a| batch_target(&model, a, n, d, K_MAX, 0.9, 512);
            assert_eq!(
                (target(Approach::Var1), target(Approach::Var1Prepacked)),
                (202, 199)
            );
        }
    }

    #[test]
    fn batch_total_is_the_var1_prediction() {
        // f32, k = 16: the model's Var#6 is the cheaper one at every m here
        let [_, model] = lane_models();
        for m in 1..=512 {
            let p = ProblemSize {
                m,
                n: LEAF,
                d: D,
                k: 16,
            };
            assert_eq!(
                predict_batch_total(&model, Approach::Var1, 1, LEAF, m, D, 16),
                model.predict(&p, Approach::Var1),
                "m = {m}"
            );
        }
    }

    #[test]
    fn ewma_converges_to_a_steady_rate_and_tracks_steps() {
        let mut r = ArrivalRate::new();
        // 1000 qps steady: one point per millisecond
        for i in 0..2000 {
            r.observe(1, i as f64 * 1e-3);
        }
        assert!((r.qps() - 1000.0).abs() < 50.0, "steady rate: {}", r.qps());
        // step down to 100 qps; within ~4 tau it should be close
        for i in 0..100 {
            r.observe(1, 2.0 + i as f64 * 1e-2);
        }
        assert!((r.qps() - 100.0).abs() < 30.0, "stepped rate: {}", r.qps());
    }

    #[test]
    fn ewma_first_arrival_reads_zero() {
        let mut r = ArrivalRate::new();
        r.observe(5, 1.0);
        assert_eq!(r.qps(), 0.0);
    }

    #[test]
    fn adaptive_flushes_at_target_or_exhausted_budget() {
        let m = model();
        // at target: always flush
        assert!(adaptive_should_flush(
            &m,
            Approach::Var1,
            1,
            512,
            16,
            8,
            64,
            64,
            1e6,
            0.02
        ));
        // budget spent: always flush
        assert!(adaptive_should_flush(
            &m,
            Approach::Var1,
            1,
            512,
            16,
            8,
            1,
            64,
            1e6,
            0.0
        ));
        // dead lane (no arrivals expected): flush rather than strand
        assert!(adaptive_should_flush(
            &m,
            Approach::Var1,
            1,
            512,
            16,
            8,
            1,
            64,
            0.0,
            0.02
        ));
    }

    #[test]
    fn adaptive_holds_under_fast_arrivals_and_flushes_under_slow() {
        let mdl = model();
        let (n_trees, leaf, d, k, target) = (1usize, 512usize, 16usize, 8usize, 256usize);
        // tiny batch, arrivals fast enough to double it well within
        // budget: the per-query amortization win dwarfs the microseconds
        // of extra wait, so hold
        assert!(!adaptive_should_flush(
            &mdl,
            Approach::Var1,
            n_trees,
            leaf,
            d,
            k,
            2,
            target,
            1e6,
            0.02
        ));
        // same batch, arrivals so slow the batch barely grows while every
        // held query eats most of a second of wait: flush
        assert!(adaptive_should_flush(
            &mdl,
            Approach::Var1,
            n_trees,
            leaf,
            d,
            k,
            2,
            target,
            10.0,
            0.5
        ));
    }

    #[test]
    fn cost_into_and_total_agree_with_the_allocating_form() {
        let m = model();
        let (total, terms) = predict_batch_cost(&m, Approach::Var1, 4, 512, 64, 16, 8);
        assert_eq!(
            total,
            predict_batch_total(&m, Approach::Var1, 4, 512, 64, 16, 8)
        );
        // a reused (dirty) buffer is cleared and refilled identically
        let mut buf = vec![("stale", 99.0)];
        let total2 = predict_batch_cost_into(&m, Approach::Var1, 4, 512, 64, 16, 8, &mut buf);
        assert_eq!(total, total2);
        assert_eq!(terms, buf);
    }

    #[test]
    fn predicted_cost_scales_with_trees_and_sums_terms() {
        let m = model();
        let (t1, terms1) = predict_batch_cost(&m, Approach::Var1, 1, 512, 64, 16, 8);
        let (t4, _) = predict_batch_cost(&m, Approach::Var1, 4, 512, 64, 16, 8);
        assert!(t1 > 0.0);
        assert!((t4 - 4.0 * t1).abs() < 1e-12 * t4.max(1.0));
        let sum: f64 = terms1.iter().map(|(_, s)| s).sum();
        // terms = Tm rows + compute; predict = max-ish combination, so the
        // itemization must at least cover the total's components
        assert!(sum > 0.0);
        assert!(terms1.iter().any(|(n, _)| n.contains("compute")));
    }
}
