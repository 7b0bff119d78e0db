//! The §2.6 performance model: predicted runtime `T = Tf + To + Tm` and
//! floating-point efficiency for GSKNN Var#1, Var#6 and the GEMM-based
//! Algorithm 2.1, used to (a) explain measured results (Figures 4/5,
//! with the paper's Var#1→Var#6 switch-over line, [`Model::threshold_k`]),
//! and (b) price the kernel that runs — Var#1 — for the task-parallel
//! scheduler (§2.5), the serving coalescer and the profiler.
//!
//! Terms (paper's notation):
//!
//! * `Tf + To = (2d+3)mn/τf + 24ε(mn + mk·log₂k)/τf` — Eq. (3): flops of
//!   the rank-d update + distance epilogue, plus the instruction cost of
//!   heap selection (≈12 instructions ≈ 24 flop-equivalents per
//!   adjustment, `ε` the expected fraction of worst-case adjustments).
//! * `Tm^pack = τb(nd + 2n) + τb(dm + 2m)·⌈n/nc⌉ + τb(⌈d/dc⌉−1)·mn` —
//!   packing traffic for `Rc`/`R2c` (once) and `Qc`/`Qc2` (per `jc`
//!   block) and the `Cc` rank-dc spill when `d > dc`; every approach
//!   pays it.
//! * `Tm^Var1 = Tm^pack + 2τb·m·(A + 2k·C + ε·k·log₂k·⌈n/nc⌉) + 2τb·mk` —
//!   **not the paper's term.** Var#1 here selects through a reservoir
//!   ([`knn_select::Reservoir`]), not a binary heap: a row appends `A`
//!   `(dist, id)` pairs at the contiguous rate, runs `C` compactions that
//!   each stream `2k` pairs, sorts its `k` kept pairs once per `jc` block
//!   (`ε·log₂k` expected moves per pair) and stores them at writeback.
//!   `A` and `C` follow from the bound being as stale as the last
//!   compaction ([`Model::reservoir_row`]). Below the kernel's reservoir
//!   crossover (k < 24) Var#1 still pushes into a binary heap and pays
//!   the paper's `2·τl·ε·mk·log₂k` random-access term, as GEMM does at
//!   every k.
//! * `Tm^Var1,prepacked = Tm^Var1 − τb·n` — the same call against
//!   references packed once ([`crate::PackedRefs`]): the `Rc`/`R2c` term
//!   becomes one read of the stored panels and norms, `τb(nd + n)`,
//!   instead of the gather-pack `τb(nd + 2n)`.
//! * `Tm^Var6 = Tm^pack + 2τb·ε·mk·log₂k + τb·mn + 2τb·m(k + ε·k·log₂k)`
//!   — Eq. (4): storing `C` once; the 4-heap touches one cache line per
//!   level, so its heap term uses the contiguous rate (§2.6 "for a
//!   4-heap, τl will be roughly equal to τb"); draining a heap into a
//!   sorted row at writeback sorts it.
//! * `Tm^GEMM = Tm^pack + 2τl·ε·mk·log₂k + τb(dm + dn + 2mn) +
//!   2τb·m(k + ε·k·log₂k)` — Eq. (5): the explicit collection of `Q`, `R`
//!   and the write+read of the full `C`, with a binary heap.

use gemm_kernel::GemmParams;

/// Machine constants of the model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineParams {
    /// Peak floating-point operations per second (`τf`).
    pub tau_f: f64,
    /// Seconds per `f64` moved contiguously from slow memory (`τb`).
    pub tau_b: f64,
    /// Seconds per random slow-memory access (`τl`).
    pub tau_l: f64,
    /// Expected heap-selection cost factor `ε ∈ [0, 1]`.
    pub epsilon: f64,
    /// Number of cores `p` (scales `τf`; the paper scales `τb`, `τl` by
    /// 1/5 for its 10-core runs — bandwidth does not scale linearly).
    pub cores: usize,
}

impl MachineParams {
    /// The paper's single-core Ivy Bridge constants (Figure 4 caption):
    /// `τf = 8 × 3.54 GHz`, `τb = 2.2 ns`, `τl = 13.91 ns`, `ε = 0.5`.
    pub fn ivy_bridge_1core() -> Self {
        MachineParams {
            tau_f: 8.0 * 3.54e9,
            tau_b: 2.2e-9,
            tau_l: 13.91e-9,
            epsilon: 0.5,
            cores: 1,
        }
    }

    /// The paper's 10-core constants: `τf = 10 × 8 × 3.10 GHz`, `τb` and
    /// `τl` at 1/5 of the single-core values.
    pub fn ivy_bridge_10core() -> Self {
        MachineParams {
            tau_f: 10.0 * 8.0 * 3.10e9,
            tau_b: 2.2e-9 / 5.0,
            tau_l: 13.91e-9 / 5.0,
            epsilon: 0.5,
            cores: 10,
        }
    }

    /// Rescale the constants from their f64 baseline to element type `T`:
    /// a 256-bit vector holds `8/BYTES × 4` lanes, so peak flops scale by
    /// `8/BYTES` (2× for f32) and contiguous traffic per element scales
    /// by `BYTES/8` (half the bytes per f32, so `τb` halves). The random
    /// access latency `τl` is a cache-line/TLB cost, not a width cost,
    /// and stays put — so in f32 GEMM's binary-heap term grows relative
    /// to everything else, while the Var#1→Var#6 switch-over, a balance
    /// of contiguous traffic on both sides, does not move.
    pub fn for_scalar<T: gsknn_scalar::GsknnScalar>(&self) -> Self {
        let ratio = T::BYTES as f64 / 8.0;
        MachineParams {
            tau_f: self.tau_f / ratio,
            tau_b: self.tau_b * ratio,
            tau_l: self.tau_l,
            ..*self
        }
    }
}

/// One kernel problem size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProblemSize {
    /// Number of queries.
    pub m: usize,
    /// Number of references.
    pub n: usize,
    /// Dimension.
    pub d: usize,
    /// Neighbors kept.
    pub k: usize,
}

/// Which implementation the model predicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approach {
    /// GSKNN Var#1 (fused tile selection, binary heap).
    Var1,
    /// GSKNN Var#1 against references packed once
    /// ([`crate::Gsknn::update_prepacked`]): no per-call gather-pack of
    /// `Rc`/`R2c`, one read of the panels instead.
    Var1Prepacked,
    /// GSKNN Var#6 (post-hoc selection, 4-heap, stores `C`).
    Var6,
    /// Algorithm 2.1: GEMM + post-hoc selection.
    Gemm,
}

/// The performance model, parameterized by machine constants and the
/// blocking parameters of the kernel under prediction.
///
/// ```
/// use gsknn_core::model::Approach;
/// use gsknn_core::{MachineParams, Model, ProblemSize};
/// let model = Model::new(MachineParams::ivy_bridge_1core());
/// let p = ProblemSize { m: 8192, n: 8192, d: 64, k: 16 };
/// // the fused kernel never stores C; GEMM + selection does
/// assert!(model.predict(&p, Approach::Var1) < model.predict(&p, Approach::Gemm));
/// // Figure 5's model line: where the paper would switch to Var#6
/// let k = model.threshold_k(8192, 8192, 64, 8192).expect("a switch-over");
/// assert!(k > 16);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Model {
    machine: MachineParams,
    blocks: GemmParams,
}

impl Model {
    /// Model with the paper's blocking parameters.
    pub fn new(machine: MachineParams) -> Self {
        Model {
            machine,
            blocks: GemmParams::ivy_bridge(),
        }
    }

    /// Model with explicit blocking parameters.
    pub fn with_blocks(machine: MachineParams, blocks: GemmParams) -> Self {
        Model { machine, blocks }
    }

    /// The machine constants in use.
    pub fn machine(&self) -> &MachineParams {
        &self.machine
    }

    fn logk(k: usize) -> f64 {
        (k.max(1) as f64).log2()
    }

    /// Useful flop count `(2d+3)mn` — the numerator of the paper's GFLOPS
    /// plots.
    pub fn flops(&self, p: &ProblemSize) -> f64 {
        (2 * p.d + 3) as f64 * p.m as f64 * p.n as f64
    }

    /// Eq. (3): `Tf + To` in seconds (identical for all approaches: the
    /// `mk·log₂k` adjustments are the heap's for Var#6 and GEMM, the row
    /// sort's comparisons for Var#1).
    pub fn t_compute(&self, p: &ProblemSize) -> f64 {
        let mn = p.m as f64 * p.n as f64;
        let heap_ops = p.m as f64 * p.k as f64 * Self::logk(p.k);
        (self.flops(p) + 24.0 * self.machine.epsilon * (mn + heap_ops)) / self.machine.tau_f
    }

    /// Expected `(appends, compactions)` of one Var#1 query row against
    /// `n` references in `jc_blocks` blocks. A fresh row admits its first
    /// `k` candidates and compacts; from then on it is filtered by the
    /// k-th smallest distance *as of its last compaction*. If that was at
    /// candidate `p`, a fraction `k/p` of what follows passes and the next
    /// `k` appends take `p` more candidates — compactions fall at
    /// `k, 2k, 4k, …`: `1 + log₂(n/k)` of them and `k` appends each,
    /// where a heap with an always-current root admits `k(1 + ln(n/k))`.
    /// Every further `jc` block ends in one more (block-exit) compaction.
    pub fn reservoir_row(n: usize, k: usize, jc_blocks: f64) -> (f64, f64) {
        if n == 0 || k == 0 {
            return (0.0, 0.0);
        }
        let (n, k) = (n as f64, k as f64);
        if n <= k {
            return (n, jc_blocks);
        }
        let fills = 1.0 + (n / k).log2();
        (k * fills, fills + jc_blocks - 1.0)
    }

    /// Slow-memory time for GSKNN Var#1 (see the module docs: reservoir
    /// selection, not the paper's heap term).
    pub fn tm_var1(&self, p: &ProblemSize) -> f64 {
        self.tm_total(p, Approach::Var1)
    }

    /// Slow-memory time for GSKNN Var#6 (Eq. 4) with the 4-heap's
    /// contiguous-rate heap term.
    pub fn tm_var6(&self, p: &ProblemSize) -> f64 {
        self.tm_total(p, Approach::Var6)
    }

    /// Slow-memory time for the GEMM approach (Eq. 5).
    pub fn tm_gemm(&self, p: &ProblemSize) -> f64 {
        self.tm_total(p, Approach::Gemm)
    }

    /// Sum of [`Model::for_each_tm_term`].
    fn tm_total(&self, p: &ProblemSize, which: Approach) -> f64 {
        let mut sum = 0.0;
        self.for_each_tm_term(p, which, |_, v| sum += v);
        sum
    }

    /// Total predicted time in seconds.
    pub fn predict(&self, p: &ProblemSize, which: Approach) -> f64 {
        self.t_compute(p) + self.tm_total(p, which)
    }

    /// Predicted efficiency in GFLOPS (the paper's y-axis).
    pub fn gflops(&self, p: &ProblemSize, which: Approach) -> f64 {
        self.flops(p) / self.predict(p, which) / 1e9
    }

    /// The predicted Var#1→Var#6 switch-over `k` for fixed `m, n, d`
    /// (the light-blue dotted threshold of Figure 5, §2.6 "Switching
    /// between variants"), or `None` if Var#1 wins through `k_max`. The
    /// paper's prediction, drawn by `fig5`: the kernel itself runs Var#1
    /// at every `k`.
    pub fn threshold_k(&self, m: usize, n: usize, d: usize, k_max: usize) -> Option<usize> {
        (1..=k_max).find(|&k| {
            let p = ProblemSize { m, n, d, k };
            self.predict(&p, Approach::Var6) < self.predict(&p, Approach::Var1)
        })
    }

    /// Itemized slow-memory terms — the rows of the paper's Table 4 —
    /// in seconds, for display/debugging (`bench`'s `table4` harness).
    /// The sum equals the corresponding `tm_*` total.
    pub fn tm_terms(&self, p: &ProblemSize, which: Approach) -> Vec<(&'static str, f64)> {
        let mut terms = Vec::new();
        self.tm_terms_into(p, which, &mut terms);
        terms
    }

    /// [`Model::tm_terms`] into a caller-owned buffer (cleared first), so
    /// a per-batch caller — the serving coalescer records these on every
    /// flush — reuses one allocation instead of building a fresh `Vec`.
    pub fn tm_terms_into(
        &self,
        p: &ProblemSize,
        which: Approach,
        terms: &mut Vec<(&'static str, f64)>,
    ) {
        terms.clear();
        self.for_each_tm_term(p, which, |name, secs| terms.push((name, secs)));
    }

    /// The itemized slow-memory terms of `which`, in table order.
    fn for_each_tm_term(
        &self,
        p: &ProblemSize,
        which: Approach,
        mut term: impl FnMut(&'static str, f64),
    ) {
        let (m, n, d, k) = (p.m as f64, p.n as f64, p.d as f64, p.k as f64);
        let mach = &self.machine;
        let jc_blocks = (p.n as f64 / self.blocks.nc as f64).ceil().max(1.0);
        let d_blocks = (p.d as f64 / self.blocks.dc as f64).ceil().max(1.0);
        match which {
            Approach::Var1Prepacked => term("read prepacked Rc + R2c", mach.tau_b * (n * d + n)),
            _ => term("pack Rc + R2c", mach.tau_b * (n * d + 2.0 * n)),
        }
        term(
            "pack Qc + Qc2 (per jc block)",
            mach.tau_b * (d * m + 2.0 * m) * jc_blocks,
        );
        term("Cc rank-dc spill", mach.tau_b * (d_blocks - 1.0) * m * n);
        // a (dist, id) pair is two elements at the contiguous rate
        let pair = 2.0 * mach.tau_b;
        let adjustments = mach.epsilon * m * k * Self::logk(p.k);
        let store_rows = pair * m * k;
        match which {
            Approach::Var1 | Approach::Var1Prepacked if p.k < crate::variants::RESERVOIR_MIN_K => {
                term(
                    "heap (binary, random access)",
                    2.0 * mach.tau_l * adjustments,
                );
                term("writeback", store_rows + pair * adjustments);
            }
            Approach::Var1 | Approach::Var1Prepacked => {
                let (appends, compactions) = Self::reservoir_row(p.n, p.k, jc_blocks);
                term("reservoir appends", pair * m * appends);
                term("reservoir compactions", pair * m * compactions * 2.0 * k);
                term("row sort (per jc block)", pair * adjustments * jc_blocks);
                term("writeback", store_rows);
            }
            Approach::Var6 => {
                term("heap (4-ary, cache-line access)", pair * adjustments);
                term("store C", mach.tau_b * m * n);
                term("writeback", store_rows + pair * adjustments);
            }
            Approach::Gemm => {
                term(
                    "heap (binary, random access)",
                    2.0 * mach.tau_l * adjustments,
                );
                term("collect Q, R", mach.tau_b * (d * m + d * n));
                term("C write + re-read", mach.tau_b * 2.0 * m * n);
                term("writeback", store_rows + pair * adjustments);
            }
        }
    }

    /// §4's alternative metric: predicted **instructions per cycle**.
    ///
    /// "GFLOPS doesn't capture the efficiency very well [in low d, large
    /// k], since the runtime is dominated by heap selections, which don't
    /// involve any floating point operation. ... IPC that includes the
    /// instruction count in the neighbor selections can be converted from
    /// Table 4 by summing up all floating point, non-floating point and
    /// memory operations together."
    ///
    /// Instruction accounting (documented approximations):
    /// * arithmetic — `(2d+3)mn` flops at 8 flops per 256-bit FMA;
    /// * selection — 12 instructions per heap adjustment,
    ///   `ε·m·k·log₂k` adjustments (§2.6's `To` term before the ×2
    ///   flop-equivalent conversion);
    /// * memory — one instruction per 4-element vector transfer of the
    ///   `Tm` traffic, plus one per random heap access.
    pub fn predicted_ipc(&self, p: &ProblemSize, which: Approach, clock_hz: f64) -> f64 {
        let mach = &self.machine;
        let flop_instr = self.flops(p) / 8.0;
        let adjustments = mach.epsilon * p.m as f64 * p.k as f64 * Self::logk(p.k);
        let sel_instr = 12.0 * adjustments;
        // random heap accesses (GEMM's binary heap) are one instruction
        // each; everything else in Tm is contiguous traffic (elements)
        let mut random_s = 0.0;
        let mut stream_s = 0.0;
        self.for_each_tm_term(p, which, |name, secs| {
            if name == "heap (binary, random access)" {
                random_s += secs;
            } else {
                stream_s += secs;
            }
        });
        let mem_instr = stream_s / mach.tau_b / 4.0 + random_s / mach.tau_l;
        let cycles = self.predict(p, which) * clock_hz * mach.cores as f64;
        (flop_instr + sel_instr + mem_instr) / cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Model {
        Model::new(MachineParams::ivy_bridge_1core())
    }

    fn p(m: usize, n: usize, d: usize, k: usize) -> ProblemSize {
        ProblemSize { m, n, d, k }
    }

    #[test]
    fn gemm_is_never_faster_than_var1() {
        let model = model();
        for d in [4, 16, 64, 256, 1024] {
            for k in [1, 16, 512, 2048] {
                let ps = p(8192, 8192, d, k);
                assert!(
                    model.predict(&ps, Approach::Gemm) > model.predict(&ps, Approach::Var1),
                    "d={d} k={k}"
                );
            }
        }
    }

    #[test]
    fn gemm_gap_shrinks_with_d() {
        // The paper: GEMM is memory bound in low d; the relative gap
        // narrows as d grows because the 2τb·mn C-traffic amortizes.
        let model = model();
        let lo = p(8192, 8192, 16, 16);
        let hi = p(8192, 8192, 1024, 16);
        let ratio_lo = model.predict(&lo, Approach::Gemm) / model.predict(&lo, Approach::Var1);
        let ratio_hi = model.predict(&hi, Approach::Gemm) / model.predict(&hi, Approach::Var1);
        assert!(ratio_lo > ratio_hi);
        assert!(ratio_lo > 1.5, "low-d speedup should be large: {ratio_lo}");
        assert!(ratio_hi < 1.3, "high-d speedup should be small: {ratio_hi}");
    }

    /// Does the model predict Var#1 at least as fast as Var#6?
    fn var1_predicted(model: &Model, ps: &ProblemSize) -> bool {
        model.predict(ps, Approach::Var1) <= model.predict(ps, Approach::Var6)
    }

    #[test]
    fn var1_wins_small_k_var6_wins_large_k() {
        let model = model();
        assert!(var1_predicted(&model, &p(8192, 8192, 64, 16)));
        assert!(!var1_predicted(&model, &p(8192, 8192, 64, 4096)));
    }

    #[test]
    fn threshold_exists_and_orders_decisions() {
        let model = model();
        let thr = model.threshold_k(8192, 8192, 64, 8192).expect("threshold");
        assert!(thr > 16, "threshold too small: {thr}");
        // below the threshold the model predicts Var#1, at it Var#6
        assert!(var1_predicted(&model, &p(8192, 8192, 64, thr - 1)));
        assert!(!var1_predicted(&model, &p(8192, 8192, 64, thr)));
    }

    #[test]
    fn gflops_bounded_by_peak() {
        let model = model();
        for d in [8, 128, 1024] {
            let g = model.gflops(&p(8192, 8192, d, 16), Approach::Var1);
            assert!(g > 0.0 && g < model.machine().tau_f / 1e9, "d={d}: {g}");
        }
    }

    #[test]
    fn efficiency_increases_with_d_within_a_dc_block() {
        // Figure 4's main shape: GFLOPS grows with d — except for the
        // periodic drop each time d crosses a dc stride and the Cc spill
        // grows ("the slow memory cost of Cc increases every dc stride;
        // thus, the performance will drop periodically", §4). Check
        // monotonicity inside the first block and overall growth.
        let model = model();
        let mut prev = 0.0;
        for d in [8, 32, 128, 256] {
            let g = model.gflops(&p(8192, 8192, d, 16), Approach::Var1);
            assert!(g > prev, "d={d}: {g} <= {prev}");
            prev = g;
        }
        let g_high = model.gflops(&p(8192, 8192, 1024, 16), Approach::Var1);
        let g_low = model.gflops(&p(8192, 8192, 8, 16), Approach::Var1);
        assert!(g_high > 1.3 * g_low, "{g_high} vs {g_low}");
        // and the dip at the dc boundary exists
        let before = model.gflops(&p(8192, 8192, 256, 16), Approach::Var1);
        let after = model.gflops(&p(8192, 8192, 257, 16), Approach::Var1);
        assert!(after < before, "expected the periodic Cc-spill dip");
    }

    #[test]
    fn efficiency_degrades_with_k() {
        let model = model();
        let mut prev = f64::INFINITY;
        for k in [16, 128, 512, 2048] {
            let g = model.gflops(&p(8192, 8192, 64, k), Approach::Var1);
            assert!(g < prev, "k={k}: {g} >= {prev}");
            prev = g;
        }
    }

    #[test]
    fn ten_core_predicts_higher_gflops() {
        let one = Model::new(MachineParams::ivy_bridge_1core());
        let ten = Model::new(MachineParams::ivy_bridge_10core());
        let ps = p(8192, 8192, 256, 16);
        assert!(ten.gflops(&ps, Approach::Var1) > 4.0 * one.gflops(&ps, Approach::Var1));
    }

    #[test]
    fn cc_spill_kicks_in_past_dc() {
        let model = model();
        // crossing dc=256 adds the Cc term: a visible jump in Tm
        let below = model.tm_var1(&p(4096, 4096, 256, 16));
        let above = model.tm_var1(&p(4096, 4096, 257, 16));
        let jump = above - below;
        let mn_traffic = model.machine().tau_b * 4096.0 * 4096.0;
        assert!(jump > 0.9 * mn_traffic, "Cc spill jump missing: {jump}");
    }

    #[test]
    fn tm_terms_sum_to_totals() {
        let model = model();
        for (d, k) in [(16usize, 16usize), (300, 512), (1024, 2048)] {
            let ps = p(4096, 8192, d, k);
            for (a, total) in [
                (Approach::Var1, model.tm_var1(&ps)),
                (Approach::Var6, model.tm_var6(&ps)),
                (Approach::Gemm, model.tm_gemm(&ps)),
            ] {
                let sum: f64 = model.tm_terms(&ps, a).iter().map(|(_, v)| v).sum();
                assert!(
                    (sum - total).abs() <= 1e-12 * total.abs().max(1e-30),
                    "{a:?} d={d} k={k}: {sum} vs {total}"
                );
            }
        }
    }

    #[test]
    fn prepacked_references_are_read_once_not_gathered() {
        let model = model();
        let ps = p(32, 32768, 64, 16);
        let name = |a| {
            let terms = model.tm_terms(&ps, a);
            (terms[0].0, terms.len())
        };
        assert_eq!(name(Approach::Var1), ("pack Rc + R2c", 5));
        assert_eq!(
            name(Approach::Var1Prepacked),
            ("read prepacked Rc + R2c", 5)
        );
        let saved =
            model.predict(&ps, Approach::Var1) - model.predict(&ps, Approach::Var1Prepacked);
        let tau_n = model.machine().tau_b * 32768.0;
        assert!((saved - tau_n).abs() <= 1e-12 * tau_n, "{saved} vs {tau_n}");
    }

    #[test]
    fn ipc_is_positive_and_superscalar_bounded() {
        let model = model();
        let clock = 3.54e9;
        for (d, k) in [(16usize, 16usize), (16, 2048), (1024, 16), (1024, 2048)] {
            for a in [Approach::Var1, Approach::Var6, Approach::Gemm] {
                let ipc = model.predicted_ipc(&p(8192, 8192, d, k), a, clock);
                assert!(ipc > 0.0 && ipc < 8.0, "d={d} k={k} {a:?}: {ipc}");
            }
        }
    }

    #[test]
    fn ipc_degrades_less_than_gflops_in_heap_bound_regime() {
        // §4: GFLOPS collapses when heap selection dominates, IPC does
        // not — the selection instructions still count as work.
        let model = model();
        let clock = 3.54e9;
        let light = p(8192, 8192, 16, 16);
        let heavy = p(8192, 8192, 16, 2048);
        let gflops_ratio =
            model.gflops(&heavy, Approach::Var6) / model.gflops(&light, Approach::Var6);
        let ipc_ratio = model.predicted_ipc(&heavy, Approach::Var6, clock)
            / model.predicted_ipc(&light, Approach::Var6, clock);
        assert!(
            ipc_ratio > gflops_ratio,
            "IPC should fall less than GFLOPS: {ipc_ratio} vs {gflops_ratio}"
        );
    }

    #[test]
    fn f32_machine_doubles_flops_and_halves_stream_cost() {
        let m64 = MachineParams::ivy_bridge_1core();
        let m32 = m64.for_scalar::<f32>();
        assert_eq!(m32.tau_f, 2.0 * m64.tau_f);
        assert_eq!(m32.tau_b, m64.tau_b / 2.0);
        assert_eq!(m32.tau_l, m64.tau_l, "latency is width-independent");
        assert_eq!(m32.epsilon, m64.epsilon);
        // f64 is the baseline: rescaling to f64 is the identity
        assert_eq!(m64.for_scalar::<f64>(), m64);
    }

    #[test]
    fn f32_leaves_the_variant_switch_threshold_where_it_is() {
        // Var#1 and Var#6 now differ in contiguous traffic only (appends
        // and compactions against storing C), and f32 halves both sides:
        // the switch-over no longer moves with the element type. It did
        // while Var#1 paid the width-independent random rate τl per heap
        // adjustment — what GEMM's binary heap still pays.
        let m64 = Model::new(MachineParams::ivy_bridge_1core());
        let m32 = Model::new(MachineParams::ivy_bridge_1core().for_scalar::<f32>());
        let t64 = m64.threshold_k(8192, 8192, 64, 8192);
        let t32 = m32.threshold_k(8192, 8192, 64, 8192);
        assert!(t64.is_some());
        assert_eq!(t32, t64);
        let ps = p(8192, 8192, 64, 2048);
        let gemm_over_var6 =
            |m: &Model| m.predict(&ps, Approach::Gemm) / m.predict(&ps, Approach::Var6);
        assert!(gemm_over_var6(&m32) > gemm_over_var6(&m64));
    }

    #[test]
    fn estimate_runtime_scales_with_problem() {
        // the LPT schedulers' task estimate: the predicted Var#1 time
        let model = model();
        let t1 = model.predict(&p(1024, 1024, 64, 16), Approach::Var1);
        let t2 = model.predict(&p(2048, 2048, 64, 16), Approach::Var1);
        assert!(t2 > 3.0 * t1, "quadratic growth expected: {t1} {t2}");
    }
}
