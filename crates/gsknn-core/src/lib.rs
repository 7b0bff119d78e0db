//! # GSKNN — General Stride K-Nearest Neighbors
//!
//! A faithful Rust implementation of the fused kNN kernel of
//! *Yu, Huang, Austin, Xiao & Biros, "Performance Optimization for the
//! K-Nearest Neighbors Kernel on x86 Architectures", SC'15*.
//!
//! The kernel solves many small exact-search problems — given a global
//! coordinate table `X` (d×N, column-major) and index lists `q` (m query
//! ids) and `r` (n reference ids), find for every query its `k` nearest
//! references — by embedding the three phases of the classical GEMM
//! decomposition (gather, distance GEMM, heap selection) inside one
//! Goto-style six-loop blocked kernel:
//!
//! * **gather-packing** straight from `X` into cache-sized panels
//!   (no dense `Q`/`R` ever materialized),
//! * a register-blocked **rank-dc micro-kernel** computing an `MR×NR`
//!   tile of squared distances,
//! * **heap selection fused** at one of five legal loop levels
//!   ([`Variant`]); Var#1 consumes each tile while it is still hot and
//!   never writes the distance matrix back to memory.
//!
//! ```
//! use dataset::{uniform, DistanceKind};
//! use gsknn_core::{Gsknn, GsknnConfig};
//!
//! let x = uniform(1000, 16, 42);                 // 1000 points in 16-d
//! let q: Vec<usize> = (0..128).collect();        // queries = first 128 ids
//! let r: Vec<usize> = (0..1000).collect();       // references = everything
//! let mut exec = Gsknn::new(GsknnConfig::default());
//! let table = exec.run(&x, &q, &r, 8, DistanceKind::SqL2);
//! assert_eq!(table.row(0)[0].idx, 0);            // nearest to x0 is x0 itself
//! ```
//!
//! The crate also provides the paper's §2.5 parallel schemes
//! ([`parallel`], [`scheduler`]) and the §2.6 performance model
//! ([`model`]) used for variant switching and task scheduling.

pub mod buffers;
pub mod kernel;
pub mod microkernel;
pub mod model;
pub mod obs;
pub mod packing;
pub mod parallel;
pub mod params;
pub mod scheduler;
#[cfg(test)]
mod sweep_tests;
pub mod variants;

pub use buffers::{GsknnWorkspace, KernelStats};
pub use kernel::{BatchScratch, Gsknn, GsknnConfig, SPLIT_FLOOR};
pub use microkernel::FusedScalar;
pub use model::{MachineParams, Model, ProblemSize};
pub use obs::{Phase, PhaseSet};
pub use packing::PackedRefs;
pub use params::Variant;

// Re-export the types a caller needs to drive the kernel.
pub use dataset::{DistanceKind, PointSet};
pub use gemm_kernel::GemmParams;
pub use gsknn_scalar::GsknnScalar;
pub use knn_select::{Neighbor, NeighborTable};
