//! Semi-local LCS via sticky braid combing — the primary contribution of
//! Mishin, Berezun & Tiskin, *Efficient Parallel Algorithms for String
//! Comparison* (ICPP 2021).
//!
//! The semi-local LCS problem asks for the LCS of `a` against **every**
//! substring of `b`, of `b` against every substring of `a`, and of every
//! prefix against every suffix in both directions — all encoded in one
//! permutation of `[0, m+n)`, the [`SemiLocalKernel`], computable in the
//! same O(mn) time as a single LCS.
//!
//! # Algorithms
//!
//! | paper name | function |
//! |---|---|
//! | `semi_rowmajor` (Listing 1) | [`iterative_combing`] |
//! | recursive combing (Listing 3) | [`recursive_combing`] |
//! | `semi_antidiag` (Listing 4, branching) | [`antidiag_combing`] |
//! | `semi_antidiag_SIMD` (branchless) | [`antidiag_combing_branchless`] |
//! | 16-bit branchless variant | [`antidiag_combing_u16`] |
//! | `semi_load_balanced` | [`load_balanced_combing`] |
//! | `semi_hybrid` (Listing 6) | [`hybrid_combing`] |
//! | `semi_hybrid_iterative` (Listing 7) | [`grid_hybrid_combing`] |
//!
//! All produce bit-identical kernels (cross-tested); they differ only in
//! computation order, parallelism, and constant factors.
//!
//! # Wavefront scheduling
//!
//! The parallel anti-diagonal entry points ([`par_antidiag_combing`],
//! [`par_antidiag_combing_branchless`], [`par_antidiag_combing_u16`])
//! run one schedule: a barrier-free work-stealing sweep that splits each
//! diagonal longer than [`PAR_GRAIN`] cells into chunks. The only
//! other [`Scheduling`] is the sequential sweep. [`auto_plan`] picks
//! between them: work stealing exactly when the grid can form a team
//! of two or more.
//!
//! # Example
//!
//! ```
//! use slcs_semilocal::iterative_combing;
//!
//! let kernel = iterative_combing(b"define", b"design");
//! let scores = kernel.index();
//! assert_eq!(scores.lcs(), 4);                  // "dein"
//! assert_eq!(scores.string_substring(0, 3), 2); // vs "des"
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod antidiag;
pub mod compose;
pub mod edit;
pub mod hybrid;
pub mod incremental;
pub mod iterative;
pub mod kernel;
pub mod load_balanced;
pub mod recursive;
pub mod reference;
pub mod simd;

pub use antidiag::{
    antidiag_combing, antidiag_combing_branchless, antidiag_combing_u16, auto_plan,
    par_antidiag_combing, par_antidiag_combing_branchless, par_antidiag_combing_branchless_sched,
    par_antidiag_combing_branchless_untraced, par_antidiag_combing_u16, Scheduling, PAR_GRAIN,
};
pub use edit::EditDistances;
pub use hybrid::{grid_hybrid_combing, hybrid_combing};
pub use incremental::IncrementalKernel;
pub use iterative::iterative_combing;
pub use kernel::{SemiLocalKernel, SemiLocalScores};
pub use load_balanced::load_balanced_combing;
pub use recursive::recursive_combing;
pub use simd::{antidiag_combing_simd, simd_support};
