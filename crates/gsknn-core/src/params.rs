//! Kernel configuration: blocking parameters (shared with the GEMM
//! substrate) and the selection-placement variant of §2.3.

pub use gemm_kernel::GemmParams;

/// Where in the six-loop nest the heap selection is performed (§2.3).
///
/// The paper defines Var#1..Var#6 by the loop whose end hosts the
/// selection. Var#4 (after the 4th loop) is *not viable* — the 5th loop
/// blocks the `d` dimension, so distances are incomplete there — and is
/// therefore not representable here.
///
/// Var#1 is the kernel [`crate::GsknnConfig`] runs by default and the one
/// everything that prices the kernel (the §2.6 model's callers) assumes;
/// the others are the paper's variants, kept for the `fig4`/`fig5`
/// measurements. Nothing switches between them at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Selection inside the micro-kernel, per `MR×NR` tile, while the tile
    /// is register/L1-hot. No distance write-back when `d ≤ dc`. The
    /// paper's choice for small `k`; with reservoir selection, ahead of
    /// the others at every `k` `fig5` sweeps.
    Var1,
    /// Selection after the 2nd loop: one `mc×NR` strip of final distances
    /// is buffered, then selected.
    Var2,
    /// Selection after the 3rd loop: the full `mc×nc` macro-tile is
    /// buffered, then selected.
    Var3,
    /// Selection after the 5th loop: `m×nc` distances buffered per `jc`
    /// block (bounded memory, but heaps reload `n/nc` times).
    Var5,
    /// Selection after the 6th loop: the classical decomposition — the
    /// whole `m×n` distance matrix is stored, then selected. The paper's
    /// choice for large `k`.
    Var6,
}

impl Variant {
    /// All variants, in paper order.
    pub const ALL: [Variant; 5] = [
        Variant::Var1,
        Variant::Var2,
        Variant::Var3,
        Variant::Var5,
        Variant::Var6,
    ];

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Var1 => "Var#1",
            Variant::Var2 => "Var#2",
            Variant::Var3 => "Var#3",
            Variant::Var5 => "Var#5",
            Variant::Var6 => "Var#6",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_paper_style() {
        assert_eq!(Variant::Var1.name(), "Var#1");
        assert_eq!(Variant::ALL.len(), 5);
    }
}
