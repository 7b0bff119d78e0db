//! Exact answers at the f32 lane's cost: the flat index's certified
//! batch path for squared ℓ2.
//!
//! A batch runs in three steps instead of one f64 scan over every
//! reference:
//!
//! 1. **Scan.** The queries, cast to f32, run [`Gsknn::update_prepacked`]
//!    over the index's f32 panels for `k′ = SCAN_FACTOR · k` candidates.
//! 2. **Rerank.** Per row, the candidates' coordinates are read back out
//!    of the lane's own panels ([`PackedRefs::point_into`]) in ascending id
//!    order, and one `m = 1` call of the lane's kernel picks the `k`
//!    nearest of them. A (q, r) distance has the same bits on every
//!    kernel path and at every `m`, and ascending local ids break ties as
//!    the global ids do, so this is the full scan's row whenever the full
//!    scan's `k` nearest are all candidates.
//! 3. **Certify.** That holds when the reranked `k`-th distance lies
//!    strictly below the scan's `k′`-th distance minus
//!    [`rounding_bound`]: every reference the scan left out is then
//!    strictly farther in the lane's own arithmetic. A row that fails is
//!    answered by the full scan instead (one [`Gsknn::update_prepacked`]
//!    call over the failed rows), so every row is the full scan's row,
//!    bit for bit.
//!
//! The path only pays while the scan prunes enough and few rows fall
//! back, so a batch skips it — one full scan, the same bits — when the
//! rerank would cost more than the f32 scan saves ([`RERANK_COST`]), or
//! when the lane's recent certified rows fell back too often
//! ([`MAX_FALLBACK_SHARE`]); a lane that switched the path off tries it
//! again every [`RETRY_EVERY`] batches, so it comes back when the traffic
//! does.

use crate::shard::grow_identity;
use dataset::{DistanceKind, PointSet};
use gsknn_core::{BatchScratch, FusedScalar, Gsknn, GsknnConfig, PackedRefs, PhaseSet};
use knn_select::{Neighbor, NeighborTable};

/// Candidates the f32 scan keeps per row: `k′ = SCAN_FACTOR · k`. Two is
/// enough for the certificate to hold on uniform data at `n = 32768`,
/// `d = 64`, `k = 16`: over 256 queries the gap between the 16th and the
/// 32nd neighbor's distance was at least 0.094 (mean 0.25) against a
/// bound of at most 1.4·10⁻³, while the rerank stays under a tenth of
/// the scan.
const SCAN_FACTOR: usize = 2;

/// What one candidate's rerank costs, counted in references whose f64
/// scan the f32 scan saves: the path runs only while
/// `k′ · RERANK_COST < n`. Per row and reference the f32 scan saves about
/// 2 ns at d = 64 (0.5 ns at d = 16); the rerank costs 0.2–0.4 µs per
/// candidate at d = 64 (0.07–0.11 µs at d = 16), about half of it reading
/// the candidate back out of the panels. So a candidate costs what
/// 100–250 references save, and the f32 scan gains less as its heaps
/// deepen (at n = 2000, d = 16 it saves nothing from k = 8 on). 256
/// skips every measured shape where the path lost: at n = 32768,
/// d = 64 it runs up to k = 63, at n = 2000 up to k = 3. Measured with
/// m = 32 on a 2-core AVX2 x86-64 VM; the choice moves speed, never bits.
const RERANK_COST: usize = 256;

/// The share of a lane's recent certified rows that may fall back before
/// it stops trying the path. A fallback row pays the f32 scan and the
/// rerank on top of its full scan, which together cost 0.55–0.7 of the
/// full scan, so the path loses once 30–45 % of rows fall back. Data far
/// from the origin, whose bound exceeds the neighbor gaps, falls back on
/// almost every row.
const MAX_FALLBACK_SHARE: f64 = 0.25;

/// Rows the fallback share is taken over: the counts halve whenever they
/// pass it, so older batches weigh less.
const WINDOW_ROWS: u32 = 64;

/// While the path is off, every `RETRY_EVERY`-th batch still runs it, to
/// notice traffic that certifies again. A trial costs a lane whose rows
/// all fall back about 0.6 of a batch, ~2 % of its throughput.
const RETRY_EVERY: u32 = 32;

/// Unit roundoff of f32, `u = 2⁻²⁴`.
const U32: f64 = f32::EPSILON as f64 / 2.0;

/// The flat f64 lane's f32 side of the index: the same references in
/// the same order as the lane's own panels, packed at f32. Both pack ids
/// `0..n`, so an id the scan reports is a packed position of either.
#[derive(Clone, Copy)]
pub(crate) struct F32Scan<'a> {
    pub(crate) panels: &'a PackedRefs<f32>,
    /// The largest reference norm `R = max ‖r‖`, from the packed `R2c`.
    pub(crate) r_max: f64,
}

/// How far the f32 scan's distance `D₃₂` can sit from the lane's own
/// `D_T` for one (q, r) pair with `‖r‖ ≤ R`:
///
/// `B(q) = 3(d + 3)·u·(‖q‖ + R)² + (d + 3)·2⁻¹²⁶`, `u = 2⁻²⁴`,
///
/// or `+∞` (no certificate) outside the assumptions below.
///
/// **Derivation.** Let `S = ‖q‖ + ‖r‖`, `M = S²`, `D = ‖q − r‖²` in exact
/// arithmetic, `v ≤ u` the unit roundoff of the lane's `T`, and
/// `γₙ(u) = nu/(1 − nu)`. Assume `(d + 2)u ≤ 1/8`, so
/// `γ_{d+2}(u) ≤ (8/7)(d + 2)u`, and `M ≤ f32::MAX / 2`, so no f32
/// intermediate overflows (each is at most `1.15·M`); outside either
/// assumption this returns `+∞`.
///
/// 1. *Input rounding.* The scan sees `q̂ = fl₃₂(q)`, `r̂ = fl₃₂(r)` with
///    `|q̂ᵢ − qᵢ| ≤ u|qᵢ|`, so `‖q̂ − q‖ ≤ u‖q‖` and `‖r̂ − r‖ ≤ u‖r‖`. With
///    `D̂ = ‖q̂ − r̂‖²`, `|√D̂ − √D| ≤ uS` and `√D̂ + √D ≤ (2 + u)S`, so
///    `|D̂ − D| ≤ u(2 + u)M`.
/// 2. *The f32 expansion.* The kernel evaluates `q̂2 + r̂2 − 2·q̂ᵀr̂` from
///    f32 sums of `d` products — in any order, blocked over `dc` or not,
///    with FMA or without — so each term passes through at most `d + 2`
///    roundings, and by Cauchy–Schwarz (`Σ|q̂ᵢr̂ᵢ| ≤ ‖q̂‖‖r̂‖`) the
///    unclamped value `E₃₂` has
///    `|E₃₂ − D̂| ≤ γ_{d+2}(u)(‖q̂‖ + ‖r̂‖)² ≤ γ_{d+2}(u)(1 + u)²M`.
/// 3. *The lane's expansion.* The same argument in `T` on `q`, `r`:
///    `|E_T − D| ≤ γ_{d+2}(v)M`.
/// 4. *The clamp.* Both kernels return `max(E, 0)`. `D̂` and `D` are
///    `≥ 0` and `x ↦ max(x, 0)` is 1-Lipschitz, so the clamp adds nothing.
///
/// Summed: `|D₃₂ − D_T| ≤ [u(2 + u) + (8/7)(d + 2)((1 + u)²u + v)]M ≤
/// 2.3(d + 3)uM`. The constant `3(d + 3)` leaves 30 % for the inputs
/// the bound is computed from — `‖q‖` and `R` come from rounded squared
/// norms, relative error about `d·v` — and for evaluating `B` and the
/// certificate's threshold in f64. *Underflow:* a cast or a product
/// whose f32 result is subnormal errs by up to `2⁻¹⁵⁰` absolutely, not
/// relatively. Summed over every rounding of a pair, that stays below
/// the additive `(d + 3)·2⁻¹²⁶` when `S < 2⁻¹⁰⁰`, and inside the 30 %
/// margin otherwise.
fn rounding_bound(d: usize, q_norm: f64, r_max: f64) -> f64 {
    let (d, m) = (d as f64, (q_norm + r_max) * (q_norm + r_max));
    if (d + 2.0) * U32 > 0.125 || m > f64::from(f32::MAX) / 2.0 {
        return f64::INFINITY;
    }
    3.0 * (d + 3.0) * U32 * m + (d + 3.0) * f64::from(f32::MIN_POSITIVE)
}

/// Whether the certified path pays at all for `k′ = k_scan` candidates
/// out of `n` references ([`RERANK_COST`]). Unit tests price a candidate
/// at one reference, so that their small indexes run the path wherever
/// the scan prunes anything.
fn rerank_pays(k_scan: usize, n: usize) -> bool {
    let cost = if cfg!(test) { 1 } else { RERANK_COST };
    k_scan.saturating_mul(cost) < n
}

/// A batch's f64 rows by how the flat lane answered them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Rows {
    /// From the f32 scan and the f64 rerank, certified.
    pub(crate) certified: usize,
    /// Certificate failed: re-run as the full f64 scan.
    pub(crate) fallback: usize,
    /// The path did not pay ([`rerank_pays`], [`Gate`]): the full scan.
    pub(crate) skipped: usize,
}

/// The lane's recent fallback share, and the decision it drives: try the
/// certified path while at most [`MAX_FALLBACK_SHARE`] of the recent
/// certified rows fell back, else only every [`RETRY_EVERY`]-th batch.
#[derive(Debug, Default)]
struct Gate {
    /// Recent rows through the certificate, and those that failed it.
    rows: u32,
    fallback: u32,
    /// Batches skipped since the path went off.
    idle: u32,
}

impl Gate {
    /// Whether the next batch runs the certified path.
    fn admit(&mut self) -> bool {
        if f64::from(self.fallback) <= MAX_FALLBACK_SHARE * f64::from(self.rows) {
            return true;
        }
        self.idle += 1;
        if self.idle < RETRY_EVERY {
            return false;
        }
        self.idle = 0;
        true
    }

    fn record(&mut self, rows: usize, fallback: usize) {
        self.rows = self.rows.saturating_add(rows as u32);
        self.fallback = self.fallback.saturating_add(fallback as u32);
        while self.rows > WINDOW_ROWS {
            self.rows /= 2;
            self.fallback /= 2;
        }
    }
}

/// The certified path's reusable workspace: the f32 scan's kernel and
/// buffers plus the rerank's candidate set. A lane builds one with its
/// first certified batch; it grows to the largest batch and is then
/// reused, so the path allocates nothing at steady state.
pub(crate) struct Certify<T: FusedScalar> {
    exec32: Gsknn<f32>,
    scratch32: BatchScratch<f32>,
    /// The batch's queries cast to f32 (zeros for a row with no bound).
    queries32: PointSet<f32>,
    table32: NeighborTable<f32>,
    /// `B(q)` per row.
    bounds: Vec<f64>,
    /// One row's candidate ids, ascending.
    cand_ids: Vec<usize>,
    /// Their coordinates, read back from the lane's panels, as the
    /// rerank's reference set.
    cands: PointSet<T>,
    /// `0..k′`: the rerank call's reference list into `cands`.
    local: Vec<usize>,
    row_table: NeighborTable<T>,
    row: Vec<Neighbor<T>>,
    failed: Vec<usize>,
    fallback: NeighborTable<T>,
    gate: Gate,
}

impl<T: FusedScalar> Certify<T> {
    pub(crate) fn new(d: usize) -> Self {
        Certify {
            // the lane's shard is its core: one worker
            exec32: Gsknn::new(GsknnConfig {
                p: 1,
                ..GsknnConfig::for_scalar::<f32>()
            }),
            scratch32: BatchScratch::new(),
            queries32: PointSet::from_vec(d, 0, Vec::new()),
            table32: NeighborTable::new(0, 1),
            bounds: Vec::new(),
            cand_ids: Vec::new(),
            cands: PointSet::from_vec(d, 0, Vec::new()),
            local: Vec::new(),
            row_table: NeighborTable::new(0, 1),
            row: Vec::new(),
            failed: Vec::new(),
            fallback: NeighborTable::new(0, 1),
            gate: Gate::default(),
        }
    }

    /// Drain the f32 scan's phase times (see [`Gsknn::take_phase_accum`]).
    pub(crate) fn take_phase_accum(&mut self) -> PhaseSet {
        self.exec32.take_phase_accum()
    }

    /// Answer every row of `table` — queries `0..table.len()` of
    /// `queries` — against `packed` with the squared-ℓ2 rows
    /// [`Gsknn::update_prepacked`] returns, and report how each row was
    /// answered. The caller resets `table` to the batch's rows and `k`.
    /// When the path does not pay ([`rerank_pays`]) or the lane has
    /// switched it off ([`Gate`]), the full scan answers every row.
    pub(crate) fn batch(
        &mut self,
        exec: &mut Gsknn<T>,
        scratch: &mut BatchScratch<T>,
        queries: &PointSet<T>,
        packed: &PackedRefs<T>,
        scan: F32Scan<'_>,
        table: &mut NeighborTable<T>,
    ) -> Rows {
        let kind = DistanceKind::SqL2;
        let (m, k, d) = (table.len(), table.k(), packed.dim());
        let k_scan = SCAN_FACTOR * k;
        grow_identity(&mut self.local, m.max(k_scan));
        if !rerank_pays(k_scan, packed.len()) || !self.gate.admit() {
            exec.update_prepacked(queries, &self.local[..m], packed, kind, table, scratch);
            return Rows {
                skipped: m,
                ..Rows::default()
            };
        }
        self.queries32.clear();
        self.bounds.clear();
        for i in 0..m {
            let bound = rounding_bound(d, queries.sqnorm(i).to_f64().sqrt(), scan.r_max);
            self.bounds.push(bound);
            // a row without a bound may not fit f32 at all: scan zeros,
            // it fails the certificate anyway
            let keep = bound.is_finite();
            let coords = queries
                .point(i)
                .iter()
                .map(|v| if keep { v.to_f64() } else { 0.0 });
            self.queries32.append_from_f64(1, coords);
        }
        self.table32.reset(m, k_scan);
        self.exec32.update_prepacked(
            &self.queries32,
            &self.local[..m],
            scan.panels,
            kind,
            &mut self.table32,
            &mut self.scratch32,
        );

        self.failed.clear();
        for i in 0..m {
            let scanned = self.table32.row(i);
            self.cand_ids.clear();
            self.cand_ids
                .extend(scanned.iter().map(|nb| nb.idx as usize));
            self.cand_ids.sort_unstable();
            // coordinates straight from the panels, norms from `R2c` (the
            // table's own `X2`, bit for bit): nothing is folded again
            self.cands.clear();
            for &j in &self.cand_ids {
                let sqnorm = packed.sqnorms()[j];
                self.cands
                    .push_with_sqnorm(sqnorm, |out| packed.point_into(j, out));
            }
            self.row_table.reset(1, k);
            exec.update_cross_reusing(
                queries,
                &self.local[i..=i],
                &self.cands,
                &self.local[..k_scan],
                kind,
                &mut self.row_table,
                scratch,
            );
            let reranked = self.row_table.row(0);
            // strict, and false when either side is NaN
            let threshold = f64::from(scanned[k_scan - 1].dist) - self.bounds[i];
            if reranked[k - 1].dist.to_f64() < threshold {
                self.row.clear();
                self.row.extend(
                    reranked
                        .iter()
                        .map(|nb| Neighbor::new(nb.dist, self.cand_ids[nb.idx as usize] as u32)),
                );
                table.set_row(i, &self.row);
            } else {
                self.failed.push(i);
            }
        }

        if !self.failed.is_empty() {
            self.fallback.reset(self.failed.len(), k);
            exec.update_prepacked(
                queries,
                &self.failed,
                packed,
                kind,
                &mut self.fallback,
                scratch,
            );
            for (j, &i) in self.failed.iter().enumerate() {
                table.set_row(i, self.fallback.row(j));
            }
        }
        let fallback = self.failed.len();
        self.gate.record(m, fallback);
        Rows {
            certified: m - fallback,
            fallback,
            skipped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::uniform;

    /// Every (query, reference) distance of the f32 scan — queries landed
    /// by `append_from_f64`, references packed from the f64 table, both as
    /// the served lane does it — sits within [`rounding_bound`] of the f64
    /// kernel's distance.
    fn bound_covers_every_pair(refs: &PointSet<f64>, queries: &PointSet<f64>) {
        let (n, m, d) = (refs.len(), queries.len(), refs.dim());
        let (q_idx, r_idx): (Vec<usize>, Vec<usize>) = ((0..m).collect(), (0..n).collect());
        let mut d64 = NeighborTable::<f64>::new(m, n);
        Gsknn::<f64>::new(GsknnConfig::for_scalar::<f64>()).update_cross_reusing(
            queries,
            &q_idx,
            refs,
            &r_idx,
            DistanceKind::SqL2,
            &mut d64,
            &mut BatchScratch::new(),
        );
        let mut queries32 = PointSet::<f32>::from_vec(d, 0, Vec::new());
        queries32.append_from_f64(m, queries.as_slice().iter().copied());
        let packed32 = PackedRefs::pack(refs, r_idx, GsknnConfig::for_scalar::<f32>().params);
        let mut d32 = NeighborTable::<f32>::new(m, n);
        Gsknn::<f32>::new(GsknnConfig::for_scalar::<f32>()).update_prepacked(
            &queries32,
            &q_idx,
            &packed32,
            DistanceKind::SqL2,
            &mut d32,
            &mut BatchScratch::new(),
        );
        let r_max = refs
            .sqnorms()
            .iter()
            .fold(0.0, |a: f64, &b| a.max(b))
            .sqrt();
        let by_id = |row: &[Neighbor<f64>]| {
            let mut v = vec![f64::NAN; n];
            for nb in row {
                v[nb.idx as usize] = nb.dist;
            }
            v
        };
        for i in 0..m {
            let bound = rounding_bound(d, queries.sqnorm(i).sqrt(), r_max);
            assert!(bound.is_finite(), "d = {d}: no bound for query {i}");
            let wide = by_id(d64.row(i));
            let narrow: Vec<Neighbor<f64>> = d32
                .row(i)
                .iter()
                .map(|nb| Neighbor::new(f64::from(nb.dist), nb.idx))
                .collect();
            for (j, (&a, b)) in wide.iter().zip(by_id(&narrow)).enumerate() {
                let err = (a - b).abs();
                assert!(
                    err <= bound,
                    "d = {d}, q {i}, r {j}: |{b} - {a}| = {err} > B = {bound}"
                );
            }
        }
    }

    fn shifted(x: &PointSet<f64>, f: impl Fn(usize, f64) -> f64) -> PointSet<f64> {
        let d = x.dim();
        let data = x.as_slice().iter().enumerate().map(|(e, &v)| f(e % d, v));
        PointSet::from_vec(d, x.len(), data.collect())
    }

    #[test]
    fn rounding_bound_covers_the_f32_scan() {
        for d in [1, 16, 64, 257] {
            let (refs, queries) = (uniform(37, d, 1), uniform(9, d, 2));
            bound_covers_every_pair(&refs, &queries);
            // far from the origin: f32's expansion cancels ~2·10⁶·d down
            // to distances of a few units
            let far = |x: &PointSet<f64>| shifted(x, |_, v| v + 1e3);
            bound_covers_every_pair(&far(&refs), &far(&queries));
            // every point within 10⁻⁶ of one center: distances are all
            // rounding noise in f32
            let center = uniform(1, d, 3);
            let near = |x: &PointSet<f64>| shifted(x, |p, v| center.point(0)[p] + 1e-6 * v);
            bound_covers_every_pair(&near(&refs), &near(&queries));
        }
    }

    /// The gate switches the path off once a quarter of the recent rows
    /// fell back, tries it every `RETRY_EVERY`-th batch while off, and
    /// switches it back on once the trials certify.
    #[test]
    fn gate_follows_the_recent_fallback_share() {
        let mut gate = Gate::default();
        assert!(gate.admit(), "a fresh lane tries the path");
        gate.record(32, 8);
        assert!(gate.admit(), "a quarter falling back keeps it on");
        gate.record(32, 32);
        let trials: Vec<bool> = (0..2 * RETRY_EVERY).map(|_| gate.admit()).collect();
        let on: Vec<usize> = (0..trials.len()).filter(|&i| trials[i]).collect();
        let every = RETRY_EVERY as usize;
        assert_eq!(
            on,
            [every - 1, 2 * every - 1],
            "off: one trial per RETRY_EVERY"
        );
        // trials that certify every row bring it back within three
        for _ in 0..3 * every {
            if gate.admit() {
                gate.record(32, 0);
            }
        }
        assert!((0..every).all(|_| gate.admit()), "the gate stayed off");
    }

    /// The shapes [`RERANK_COST`]'s doc names: the path runs up to k = 63
    /// at n = 32768 and up to k = 3 at n = 2000.
    #[test]
    fn the_rerank_pays_only_where_it_prunes_enough() {
        let pays = |k: usize, n: usize| SCAN_FACTOR * k * RERANK_COST < n;
        assert!(pays(63, 32768) && !pays(64, 32768));
        assert!(pays(3, 2000) && !pays(4, 2000));
        assert!(rerank_pays(2, 3) && !rerank_pays(3, 3) && !rerank_pays(usize::MAX, 3));
    }

    #[test]
    fn no_bound_where_f32_would_overflow() {
        assert!(rounding_bound(16, 1.0, 1.0).is_finite());
        assert_eq!(rounding_bound(16, 1e19, 1e19), f64::INFINITY);
        assert_eq!(rounding_bound(1 << 22, 1.0, 1.0), f64::INFINITY);
    }
}
