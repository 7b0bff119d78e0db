//! Phase-level observability for the six-loop nest.
//!
//! Every phase of the fused kernel — gather-packing of `Rc`/`Qc`, the
//! rank-dc micro-kernel (including `Cc`/`C` traffic), heap selection and
//! the final table writeback — is wrapped in a [`PhaseSet::time`] span at
//! exactly one Goto-loop level, so the measured breakdown lines up
//! one-to-one with the terms of the §2.6 performance model
//! ([`crate::Model::tm_terms`]).
//!
//! The probes are **compiled out** unless the `obs` cargo feature is
//! enabled: without it [`PhaseSet`] is a zero-sized type and
//! [`PhaseSet::time`] is an `#[inline(always)]` identity wrapper, so the
//! micro-kernel hot path carries no timing instructions (the guard test
//! in `tests/obs_guard.rs` checks both properties). With `obs` on,
//! spans read the TSC on x86_64 (calibrated against `Instant` once) and
//! fall back to a monotonic-clock anchor elsewhere.
//!
//! A clock read costs about an eighth of a d = 64 tile, so nothing brackets
//! single tiles of the interior sweep: [`SweepProbe`] times the sweep's
//! tile loop once as a whole and splits it between [`Phase::RankDc`] and
//! [`Phase::Select`] from a 1-in-[`STRIP_SAMPLE`] sample of strips timed
//! tile by tile. A reservoir compaction is the opposite kind of event —
//! microseconds long, a few per row, and bunched (every fresh row fills
//! at the same column), so a strip sample would mostly miss them: each
//! one is timed exactly and booked to selection, and only the rest of the
//! tile loop is split by the sample. What follows the tile loop — the
//! block-exit compactions — is selection too. The fringe, the partial
//! passes and the buffered variants keep one span per tile.

/// One phase of the fused kernel, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// 6th/5th loop: gather-pack `Rc` + `R2c` from `X`.
    PackR,
    /// 4th loop: gather-pack `Qc` + `Qc2` from `X`.
    PackQ,
    /// 1st loop: rank-dc micro-kernel tiles, `Cc` spill writes and the
    /// buffered variants' `C` stores.
    RankDc,
    /// Heap selection (fused tile scan or buffered block scan).
    Select,
    /// Draining heaps into the sorted neighbor table.
    Writeback,
}

/// Number of [`Phase`] values.
pub const PHASE_COUNT: usize = 5;

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::PackR,
        Phase::PackQ,
        Phase::RankDc,
        Phase::Select,
        Phase::Writeback,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::PackR => "gather-pack R",
            Phase::PackQ => "gather-pack Q",
            Phase::RankDc => "rank-dc kernel",
            Phase::Select => "selection",
            Phase::Writeback => "writeback",
        }
    }

    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

/// Whether phase timing is compiled into this build.
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

/// Per-phase accumulated time and span counts.
///
/// Zero-sized no-op without the `obs` feature — safe to embed in the
/// per-thread workspace and call on the hot path unconditionally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSet {
    #[cfg(feature = "obs")]
    ticks: [u64; PHASE_COUNT],
    #[cfg(feature = "obs")]
    counts: [u64; PHASE_COUNT],
}

impl PhaseSet {
    /// Empty set (all phases zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero all accumulators.
    #[inline(always)]
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Run `f`, attributing its wall time to `phase`.
    #[cfg(feature = "obs")]
    #[inline(always)]
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = clock::now_ticks();
        let r = f();
        self.ticks[phase.index()] += clock::now_ticks().wrapping_sub(t0);
        self.counts[phase.index()] += 1;
        r
    }

    /// Run `f` (no timing — `obs` feature disabled).
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    pub fn time<R>(&mut self, _phase: Phase, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Attribute `ticks` clock ticks and `spans` spans to `phase` — for a
    /// caller that read the clock itself ([`SweepProbe`]).
    #[cfg(feature = "obs")]
    #[inline(always)]
    fn add_ticks(&mut self, phase: Phase, ticks: u64, spans: u64) {
        self.ticks[phase.index()] += ticks;
        self.counts[phase.index()] += spans;
    }

    /// Fold another set into this one (per-worker merge).
    #[inline]
    pub fn merge(&mut self, other: &PhaseSet) {
        #[cfg(feature = "obs")]
        for i in 0..PHASE_COUNT {
            self.ticks[i] += other.ticks[i];
            self.counts[i] += other.counts[i];
        }
        let _ = other;
    }

    /// Accumulated seconds attributed to `phase` (0.0 when disabled).
    pub fn seconds(&self, phase: Phase) -> f64 {
        #[cfg(feature = "obs")]
        {
            self.ticks[phase.index()] as f64 / clock::ticks_per_sec()
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = phase;
            0.0
        }
    }

    /// Number of spans recorded for `phase` (0 when disabled).
    pub fn count(&self, phase: Phase) -> u64 {
        #[cfg(feature = "obs")]
        {
            self.counts[phase.index()]
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = phase;
            0
        }
    }

    /// Sum of all phase times in seconds.
    pub fn total_seconds(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.seconds(p)).sum()
    }

    /// `(phase, seconds, spans)` rows in pipeline order.
    pub fn rows(&self) -> Vec<(Phase, f64, u64)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.seconds(p), self.count(p)))
            .collect()
    }
}

/// One in this many `jr` strips of an interior sweep is timed tile by
/// tile; the other strips run without a clock read.
pub(crate) const STRIP_SAMPLE: usize = 16;

/// Phase attribution for one interior sweep (see the module docs). Every
/// method is an empty `#[inline(always)]` body without the `obs` feature.
pub(crate) struct SweepProbe {
    #[cfg(feature = "obs")]
    start: u64,
    /// End of the previous lap inside a sampled strip.
    #[cfg(feature = "obs")]
    mark: u64,
    #[cfg(feature = "obs")]
    rank: u64,
    #[cfg(feature = "obs")]
    select: u64,
    /// Ticks inside mid-block compactions: all of them, and those that
    /// fell into a sampled strip's `select` laps.
    #[cfg(feature = "obs")]
    compact: u64,
    #[cfg(feature = "obs")]
    compact_sampled: u64,
    /// End of the tile loop ([`SweepProbe::end_tiles`]).
    #[cfg(feature = "obs")]
    tiles_end: u64,
    #[cfg(feature = "obs")]
    every: usize,
}

impl SweepProbe {
    /// Start the whole-sweep span; every `every`-th strip will be sampled.
    #[inline(always)]
    pub fn start(every: usize) -> Self {
        #[cfg(feature = "obs")]
        {
            let start = clock::now_ticks();
            SweepProbe {
                start,
                mark: start,
                rank: 0,
                select: 0,
                compact: 0,
                compact_sampled: 0,
                tiles_end: start,
                every,
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = every;
            SweepProbe {}
        }
    }

    /// Whether strip number `strip` is timed tile by tile; opens its first
    /// lap if so. Constant `false` without `obs`.
    #[inline(always)]
    pub fn begin_strip(&mut self, strip: usize) -> bool {
        #[cfg(feature = "obs")]
        {
            let sampled = strip.is_multiple_of(self.every);
            if sampled {
                self.mark = clock::now_ticks();
            }
            sampled
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = strip;
            false
        }
    }

    /// Close a lap that held a tile's rank-dc update, epilogue and filter.
    #[inline(always)]
    pub fn lap_rank(&mut self) {
        #[cfg(feature = "obs")]
        {
            let now = clock::now_ticks();
            self.rank += now.wrapping_sub(self.mark);
            self.mark = now;
        }
    }

    /// Close a lap that held a tile's heap pushes.
    #[inline(always)]
    pub fn lap_select(&mut self) {
        #[cfg(feature = "obs")]
        {
            let now = clock::now_ticks();
            self.select += now.wrapping_sub(self.mark);
            self.mark = now;
        }
    }

    /// Run a mid-block compaction, timed on its own; `sampled` says
    /// whether the strip it interrupts is one of the sampled ones.
    #[inline(always)]
    pub fn compaction<R>(&mut self, sampled: bool, f: impl FnOnce() -> R) -> R {
        #[cfg(feature = "obs")]
        {
            let t0 = clock::now_ticks();
            let r = f();
            let ticks = clock::now_ticks().wrapping_sub(t0);
            self.compact += ticks;
            if sampled {
                self.compact_sampled += ticks;
            }
            r
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = sampled;
            f()
        }
    }

    /// The tile loop is over; the rest of the sweep is selection.
    #[inline(always)]
    pub fn end_tiles(&mut self) {
        #[cfg(feature = "obs")]
        {
            self.tiles_end = clock::now_ticks();
        }
    }

    /// End the whole-sweep span and book it: compactions and the time
    /// since [`SweepProbe::end_tiles`] are selection, the sampled laps
    /// split the rest of the tile loop, each phase gets one span per tile.
    #[inline(always)]
    pub fn finish(self, phases: &mut PhaseSet, tiles: u64) {
        #[cfg(feature = "obs")]
        {
            let tail = clock::now_ticks().wrapping_sub(self.tiles_end);
            let total = self.tiles_end.wrapping_sub(self.start);
            let rest = total.saturating_sub(self.compact);
            let select_laps = self.select.saturating_sub(self.compact_sampled);
            let sampled = self.rank + select_laps;
            let select = if sampled == 0 {
                0
            } else {
                (rest as u128 * select_laps as u128 / sampled as u128) as u64
            };
            phases.add_ticks(Phase::RankDc, rest - select, tiles);
            phases.add_ticks(Phase::Select, select + self.compact + tail, tiles);
        }
        let _ = (phases, tiles);
    }
}

#[cfg(feature = "obs")]
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    #[cfg(test)]
    thread_local! {
        /// Clock reads made by this thread (the probe-budget tests).
        pub static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Monotonic tick counter: TSC on x86_64, nanoseconds since an
    /// anchor elsewhere.
    #[inline(always)]
    pub fn now_ticks() -> u64 {
        #[cfg(test)]
        READS.with(|c| c.set(c.get() + 1));
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: RDTSC has no memory effects and is available on
            // every x86_64 this kernel targets.
            unsafe { core::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            anchor().elapsed().as_nanos() as u64
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn anchor() -> &'static Instant {
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        ANCHOR.get_or_init(Instant::now)
    }

    /// Tick rate, calibrated once against the monotonic clock.
    pub fn ticks_per_sec() -> f64 {
        #[cfg(target_arch = "x86_64")]
        {
            static RATE: OnceLock<f64> = OnceLock::new();
            *RATE.get_or_init(|| {
                let wall = Instant::now();
                let t0 = now_ticks();
                // ~5 ms busy-wait gives the TSC rate to well under 1%.
                while wall.elapsed().as_micros() < 5_000 {
                    std::hint::spin_loop();
                }
                let dt = now_ticks().wrapping_sub(t0) as f64;
                dt / wall.elapsed().as_secs_f64()
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            1e9
        }
    }
}

/// Clock reads this thread has made so far.
#[cfg(all(test, feature = "obs"))]
pub(crate) fn clock_reads() -> u64 {
    clock::READS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_closure_value() {
        let mut ps = PhaseSet::new();
        let v = ps.time(Phase::RankDc, || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn rows_cover_all_phases_in_order() {
        let ps = PhaseSet::new();
        let rows = ps.rows();
        assert_eq!(rows.len(), PHASE_COUNT);
        assert_eq!(rows[0].0, Phase::PackR);
        assert_eq!(rows[4].0, Phase::Writeback);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn spans_accumulate_time_and_counts() {
        let mut ps = PhaseSet::new();
        for _ in 0..3 {
            ps.time(Phase::Select, || {
                std::hint::black_box((0..20_000u64).sum::<u64>())
            });
        }
        assert_eq!(ps.count(Phase::Select), 3);
        assert!(ps.seconds(Phase::Select) > 0.0);
        assert_eq!(ps.count(Phase::PackR), 0);
        assert!((ps.total_seconds() - ps.seconds(Phase::Select)).abs() < 1e-12);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn merge_sums_workers() {
        let mut a = PhaseSet::new();
        let mut b = PhaseSet::new();
        a.time(Phase::PackQ, || std::hint::black_box(1 + 1));
        b.time(Phase::PackQ, || std::hint::black_box(2 + 2));
        b.time(Phase::RankDc, || std::hint::black_box(3 + 3));
        let secs_a = a.seconds(Phase::PackQ);
        let secs_b = b.seconds(Phase::PackQ);
        a.merge(&b);
        assert_eq!(a.count(Phase::PackQ), 2);
        assert_eq!(a.count(Phase::RankDc), 1);
        assert!((a.seconds(Phase::PackQ) - (secs_a + secs_b)).abs() < 1e-9);
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_set_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<PhaseSet>(), 0);
        let mut ps = PhaseSet::new();
        ps.time(Phase::RankDc, || ());
        assert_eq!(ps.count(Phase::RankDc), 0);
        assert_eq!(ps.total_seconds(), 0.0);
    }
}
