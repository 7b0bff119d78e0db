//! Cache-blocking parameters (§2.4 "Selecting parameters").
//!
//! `mr × nr` is fixed at compile time by the micro-kernel (8×4 doubles, the
//! paper's Ivy Bridge choice); `dc`, `mc`, `nc` partition the d, m and n
//! loops so the packed panels land in L1 / L2 / L3 respectively.

use crate::microkernel::{MR, NR};
use gsknn_scalar::GsknnScalar;
use std::io::{Read, Write};
use std::sync::OnceLock;

/// Blocking parameters for the five-loop nest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmParams {
    /// 5th-loop block in the `d` dimension: micro-panels `mr×dc` + `nr×dc`
    /// fill ~3/4 of L1 (paper: dc = 256).
    pub dc: usize,
    /// 4th-loop block in the `m` dimension: the packed `Qc` (`mc×dc`)
    /// fills ~3/4 of L2 (paper: mc = 104, a multiple of mr = 8).
    pub mc: usize,
    /// 6th-loop block in the `n` dimension: the packed `Rc` (`dc×nc`)
    /// fills L3 (paper: nc = 4096).
    pub nc: usize,
}

/// Cache sizes in bytes, for analytical parameter selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheSizes {
    /// Per-core L1 data cache.
    pub l1d: usize,
    /// Per-core L2.
    pub l2: usize,
    /// Shared L3 (whole socket).
    pub l3: usize,
}

impl CacheSizes {
    /// Ivy Bridge E5-2680 v2 (the paper's machine): 32 KB L1d, 256 KB
    /// L2, 25.6 MB L3.
    pub const fn ivy_bridge() -> Self {
        CacheSizes {
            l1d: 32 * 1024,
            l2: 256 * 1024,
            l3: 25 * 1024 * 1024,
        }
    }

    /// Read the running CPU's caches from sysfs (Linux); `None` when the
    /// hierarchy cannot be determined (fall back to
    /// [`CacheSizes::ivy_bridge`]). Read once per process, into stack
    /// buffers: every [`GemmParams::native_for`] after the first is a
    /// load, and none touches the heap.
    pub fn detect() -> Option<Self> {
        static DETECTED: OnceLock<Option<CacheSizes>> = OnceLock::new();
        *DETECTED.get_or_init(Self::read_sysfs)
    }

    fn read_sysfs() -> Option<Self> {
        /// `/sys/devices/system/cpu/cpu0/cache/index{idx}/{leaf}`, trimmed.
        fn read<'b>(idx: usize, leaf: &str, buf: &'b mut [u8; 32]) -> Option<&'b str> {
            let mut path = [0u8; 64];
            let len = {
                let mut rest = &mut path[..];
                write!(rest, "/sys/devices/system/cpu/cpu0/cache/index{idx}/{leaf}").ok()?;
                64 - rest.len()
            };
            let path = std::str::from_utf8(&path[..len]).ok()?;
            let n = std::fs::File::open(path).ok()?.read(buf).ok()?;
            std::str::from_utf8(&buf[..n]).ok().map(str::trim)
        }
        let mut l1d = None;
        let mut l2 = None;
        let mut l3 = None;
        let (mut level, mut ctype, mut size) = ([0u8; 32], [0u8; 32], [0u8; 32]);
        for idx in 0..8 {
            let size = read(idx, "size", &mut size)
                .and_then(|s| s.strip_suffix('K')?.parse::<usize>().ok())
                .map(|kb| kb * 1024);
            match (
                read(idx, "level", &mut level),
                read(idx, "type", &mut ctype),
            ) {
                (Some("1"), Some("Data")) => l1d = size,
                (Some("2"), _) => l2 = size,
                (Some("3"), _) => l3 = size,
                _ => {}
            }
        }
        Some(CacheSizes {
            l1d: l1d?,
            l2: l2?,
            l3: l3.or(l2)?, // parts without L3: treat L2 as last level
        })
    }
}

impl GemmParams {
    /// The paper's Ivy Bridge parameters (§3 "GSKNN parameters"):
    /// mr=8, nr=4, dc=256, mc=104, nc=4096.
    pub const fn ivy_bridge() -> Self {
        GemmParams {
            dc: 256,
            mc: 104,
            nc: 4096,
        }
    }

    /// Analytical parameter selection (§2.4 "Selecting parameters",
    /// following Low et al.'s model-driven BLIS tuning):
    ///
    /// * `dc` so the `mr×dc` and `nr×dc` micro-panels fill ~3/4 of L1
    ///   (`(MR + NR)·dc·8 = ¾·L1`), keeping a quarter free for streaming;
    /// * `mc` so the packed `Qc` (`mc×dc`) fills ~3/4 of L2, rounded to a
    ///   multiple of `MR`;
    /// * `nc` so the packed `Rc` (`dc×nc`) fills ~1/3 of L3 (the paper's
    ///   8 MB `Rc` in a 25.6 MB L3), rounded to a multiple of `NR`.
    ///
    /// On the paper's cache sizes this reproduces `dc = 256` exactly and
    /// `mc = 96` (their single-core choice; the shipped `mc = 104` adds
    /// one more `MR` row for load balance).
    pub fn for_caches(c: &CacheSizes) -> Self {
        Self::for_caches_of::<f64>(c)
    }

    /// [`GemmParams::for_caches`] for an arbitrary element type: the same
    /// capacity formulas with `size_of::<T>()` in place of 8 bytes and the
    /// type's own `MR`/`NR` tile. Halving the element size doubles `dc`
    /// (twice the rank-update depth fits in L1), which is exactly the f32
    /// blocking the paper's model predicts.
    pub fn for_caches_of<T: GsknnScalar>(c: &CacheSizes) -> Self {
        let (mr, nr, sz) = (T::MR, T::NR, T::BYTES);
        let dc = ((3 * c.l1d / 4) / (sz * (mr + nr))).max(8);
        let mc = (((3 * c.l2 / 4) / (sz * dc)) / mr * mr).max(mr);
        let nc = (((c.l3 / 3) / (sz * dc)) / nr * nr).max(nr);
        GemmParams { dc, mc, nc }
    }

    /// Parameters for the running machine: detected caches, or the
    /// paper's Ivy Bridge values when detection fails.
    pub fn native() -> Self {
        match CacheSizes::detect() {
            Some(c) => Self::for_caches(&c),
            None => Self::ivy_bridge(),
        }
    }

    /// [`GemmParams::native`] for an arbitrary element type: the generic
    /// capacity formulas applied to the detected caches (or the paper's
    /// Ivy Bridge sizes when detection fails).
    pub fn native_for<T: GsknnScalar>() -> Self {
        let c = CacheSizes::detect().unwrap_or_else(CacheSizes::ivy_bridge);
        Self::for_caches_of::<T>(&c)
    }

    /// Small blocks for tests: force many partial/edge iterations of every
    /// loop even on tiny inputs.
    pub const fn tiny() -> Self {
        GemmParams {
            dc: 8,
            mc: MR * 2,
            nc: NR * 3,
        }
    }

    /// [`GemmParams::tiny`] for an arbitrary element type (`nc` must be a
    /// multiple of the type's own `NR`, which differs between f64 and
    /// f32).
    pub fn tiny_for<T: GsknnScalar>() -> Self {
        GemmParams {
            dc: 8,
            mc: T::MR * 2,
            nc: T::NR * 3,
        }
    }

    /// Validate invariants: positive blocks, `mc` a multiple of `mr` and
    /// `nc` a multiple of `nr` (keeps macro-kernel edge handling to the
    /// final fringe only).
    pub fn validate(&self) -> Result<(), String> {
        self.validate_for::<f64>()
    }

    /// [`GemmParams::validate`] against an arbitrary element type's micro
    /// tile.
    pub fn validate_for<T: GsknnScalar>(&self) -> Result<(), String> {
        if self.dc == 0 || self.mc == 0 || self.nc == 0 {
            return Err("block sizes must be positive".into());
        }
        if !self.mc.is_multiple_of(T::MR) {
            return Err(format!(
                "mc={} must be a multiple of mr={} ({})",
                self.mc,
                T::MR,
                T::NAME
            ));
        }
        if !self.nc.is_multiple_of(T::NR) {
            return Err(format!(
                "nc={} must be a multiple of nr={} ({})",
                self.nc,
                T::NR,
                T::NAME
            ));
        }
        Ok(())
    }
}

impl Default for GemmParams {
    fn default() -> Self {
        Self::ivy_bridge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_validate() {
        assert!(GemmParams::ivy_bridge().validate().is_ok());
        assert!(GemmParams::tiny().validate().is_ok());
    }

    #[test]
    fn cache_formula_reproduces_paper_parameters() {
        let p = GemmParams::for_caches(&CacheSizes::ivy_bridge());
        // §2.4: dc = 256 on Ivy Bridge; mc = 96 in the single-core
        // derivation (the shipped 104 adds one MR row).
        assert_eq!(p.dc, 256);
        assert_eq!(p.mc, 96);
        // Rc = dc·nc·8 ≈ 8 MB in the 25.6 MB L3 (paper: nc = 4096)
        assert!((3500..=4400).contains(&p.nc), "nc = {}", p.nc);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn native_params_validate_and_are_sane() {
        let p = GemmParams::native();
        assert!(p.validate().is_ok());
        assert!(p.dc >= 8 && p.mc >= MR && p.nc >= NR);
    }

    #[test]
    fn tiny_caches_clamp_to_micro_tile() {
        let p = GemmParams::for_caches(&CacheSizes {
            l1d: 128,
            l2: 256,
            l3: 512,
        });
        assert!(p.validate().is_ok());
        assert_eq!(p.mc % MR, 0);
        assert_eq!(p.nc % NR, 0);
    }

    #[test]
    fn f32_blocking_doubles_dc() {
        let c = CacheSizes::ivy_bridge();
        let p64 = GemmParams::for_caches_of::<f64>(&c);
        let p32 = GemmParams::for_caches_of::<f32>(&c);
        // Half-size elements deepen the L1 rank-update: the f64 tile's
        // micro-panels cost (8+4)·8 = 96 bytes per unit of dc, the f32
        // 8×8 tile's cost (8+8)·4 = 64, so dc grows by exactly 3/2
        // (384 vs the paper's 256 on Ivy Bridge caches).
        assert_eq!(p64.dc, 256);
        assert_eq!(p32.dc, 384);
        assert_eq!(p32.dc * 2, 3 * p64.dc);
        assert!(p32.validate_for::<f32>().is_ok());
        assert!(p64.validate_for::<f64>().is_ok());
    }

    #[test]
    fn tiny_for_respects_each_tile() {
        assert!(GemmParams::tiny_for::<f64>().validate_for::<f64>().is_ok());
        assert!(GemmParams::tiny_for::<f32>().validate_for::<f32>().is_ok());
        // the f64 tiny nc=12 is NOT valid for the f32 NR=8 tile
        assert!(GemmParams::tiny().validate_for::<f32>().is_err());
    }

    #[test]
    fn bad_params_rejected() {
        let mut p = GemmParams::ivy_bridge();
        p.mc = MR + 1;
        assert!(p.validate().is_err());
        p = GemmParams::ivy_bridge();
        p.nc = NR + 1;
        assert!(p.validate().is_err());
        p = GemmParams::ivy_bridge();
        p.dc = 0;
        assert!(p.validate().is_err());
    }
}
