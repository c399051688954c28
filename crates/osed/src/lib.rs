//! slcs-osed — output-sensitive edit distance.
//!
//! Every other algorithm in this workspace pays for the full `n × m`
//! grid even when the inputs are 99% identical — the production-
//! realistic case (genome revisions, log/version diffing). This crate
//! implements the Landau–Vishkin alternative: breadth-first expand the
//! edit-distance frontier one edit at a time, touching O(d²) cells for
//! distance `d` instead of `n · m`, and slide each cell down its run of
//! matches by comparing the two strings 8 bytes at a time. Nothing is
//! preprocessed; the worst case is O(d² + min(n, m) · d / 8).
//!
//! Two layers:
//!
//! * [`lcp`] — [`LcpOracle`], "how far do `a[i..]` and `b[j..]`
//!   match?" by XOR-ing little-endian words of the borrowed inputs.
//! * [`bfs`] — the diagonal BFS: [`edit_distance`] (sequential),
//!   [`edit_distance_bounded`] (early exit past a threshold `k`), and
//!   [`par_edit_distance`] (per-round frontier extension on the
//!   vendored rayon pool, bit-equivalent to sequential).
//!
//! The engine's adaptive dispatcher routes high-similarity `EDIT`
//! requests here (see `docs/OSED.md`); everything in this crate is
//! also usable standalone:
//!
//! ```
//! assert_eq!(slcs_osed::edit_distance(b"kitten", b"sitting"), 3);
//! assert_eq!(slcs_osed::edit_distance_bounded(b"kitten", b"sitting", 2), None);
//! ```

pub mod bfs;
pub mod lcp;

pub use bfs::{
    edit_distance, edit_distance_bounded, par_edit_distance, par_edit_distance_grain, PAR_GRAIN,
};
pub use lcp::LcpOracle;
