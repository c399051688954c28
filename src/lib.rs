//! **semilocal-suite** — efficient parallel algorithms for string
//! comparison.
//!
//! A Rust reproduction of Mishin, Berezun & Tiskin, *Efficient Parallel
//! Algorithms for String Comparison* (ICPP 2021): semi-local LCS via
//! sticky braid combing, steady-ant braid multiplication, hybrid
//! parallel algorithms, and the paper's novel carry-free bit-parallel
//! LCS — plus every baseline it is evaluated against.
//!
//! # Quick start
//!
//! ```
//! use semilocal_suite::prelude::*;
//!
//! // One O(mn) comb answers LCS queries for *every* substring window.
//! let kernel = iterative_combing(b"tagata", b"gattacagatta");
//! let scores = kernel.index();
//! assert_eq!(scores.lcs(), prefix_rowmajor(b"tagata", b"gattacagatta"));
//! // best window of length 6 in b, from the same kernel:
//! let best = (0..=6).max_by_key(|&i| scores.string_substring(i, i + 6)).unwrap();
//! assert_eq!(
//!     scores.string_substring(best, best + 6),
//!     prefix_rowmajor(b"tagata", &b"gattacagatta"[best..best + 6]),
//! );
//! ```
//!
//! # Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`perm`] | permutations, dominance sums, unit-Monge reference product, range counting |
//! | [`braid`] | steady-ant multiplication (basic / precalc / memory / combined / parallel) |
//! | [`semilocal`] | combing algorithms and the semi-local kernel API |
//! | [`bitpar`] | carry-free bit-parallel LCS (Listing 8) and its variants |
//! | [`baselines`] | DP LCS, Hirschberg, adder-based bit-parallel LCS |
//! | [`apps`] | approximate matching, similarity matrices, clustering |
//! | [`bsp`] | BSP cost model for the parallel algorithms (ref [25]) |
//! | [`datagen`] | synthetic σ-strings, binary strings, genome simulator, FASTA |
//! | [`engine`] | concurrent comparison engine: bounded queue, kernel cache, adaptive dispatch, TCP server |
//! | [`osed`] | output-sensitive edit distance: Landau–Vishkin diagonal BFS with word-at-a-time LCP |

pub use slcs_apps as apps;
pub use slcs_baselines as baselines;
pub use slcs_bitpar as bitpar;
pub use slcs_braid as braid;
pub use slcs_bsp as bsp;
pub use slcs_datagen as datagen;
pub use slcs_engine as engine;
pub use slcs_osed as osed;
pub use slcs_perm as perm;
pub use slcs_semilocal as semilocal;

/// One-stop imports for applications.
pub mod prelude {
    pub use slcs_apps::{ApproxMatcher, Occurrence};
    pub use slcs_baselines::{hirschberg_lcs, prefix_antidiag, prefix_rowmajor};
    pub use slcs_bitpar::{bit_lcs_alphabet, bit_lcs_new2};
    pub use slcs_braid::{parallel_steady_ant, steady_ant, steady_ant_combined};
    pub use slcs_datagen::{binary_string, genome_pair, normal_string, seeded_rng};
    pub use slcs_engine::{CompareRequest, Engine, EngineConfig, Operation, Payload, Submit};
    pub use slcs_perm::Permutation;
    pub use slcs_semilocal::{
        antidiag_combing_branchless, grid_hybrid_combing, hybrid_combing, iterative_combing,
        recursive_combing, SemiLocalKernel, SemiLocalScores,
    };
}

/// Renders a reduced sticky braid as ASCII art (Figure 1 style): strands
/// enter on the left and top edges of the `m × n` grid and exit on the
/// bottom and right. Intended for documentation and the `braid_art`
/// example; quadratic in the grid size.
pub fn render_braid<T: Eq>(a: &[T], b: &[T]) -> String {
    use std::fmt::Write;
    let m = a.len();
    let n = b.len();
    // Re-run combing, tracking the strand occupying every cell edge.
    let mut h_strands: Vec<u32> = (0..m as u32).collect();
    let mut v_strands: Vec<u32> = (m as u32..(m + n) as u32).collect();
    // cell_cross[i][j] = did the strands swap lanes in cell (i, j)?
    let mut turn = vec![false; m * n];
    for (i, ac) in a.iter().enumerate() {
        let hi = m - 1 - i;
        let mut h = h_strands[hi];
        for (j, bc) in b.iter().enumerate() {
            let v = v_strands[j];
            if ac == bc || h > v {
                turn[i * n + j] = true;
                v_strands[j] = h;
                h = v;
            }
        }
        h_strands[hi] = h;
    }
    // Draw: each cell is 3 columns wide, 2 rows tall. A "turn" cell shows
    // the strands bending (╮/╰), a "cross" cell shows them passing (┼).
    let mut out = String::new();
    for i in 0..m {
        let mut top = String::new();
        let mut bot = String::new();
        for j in 0..n {
            if turn[i * n + j] {
                top.push_str("─╮ ");
                bot.push_str(" ╰─");
            } else {
                top.push_str("─┼─");
                bot.push_str(" │ ");
            }
        }
        writeln!(out, "{top}").unwrap();
        writeln!(out, "{bot}").unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_wired() {
        let k = semilocal::iterative_combing(b"abc", b"cab");
        assert_eq!(k.lcs(), baselines::prefix_rowmajor(b"abc", b"cab"));
        assert_eq!(bitpar::bit_lcs_alphabet(&[0, 1, 2], &[2, 0, 1]), 2);
    }

    #[test]
    fn combing_produces_a_reduced_braid() {
        // Simulate the braid cell by cell, tracking every PAIR of strand
        // identities that cross; reducedness = no pair crosses twice.
        let a = b"abacbbca";
        let b = b"bcabcabacb";
        let (m, n) = (a.len(), b.len());
        let mut h: Vec<u32> = (0..m as u32).collect();
        let mut v: Vec<u32> = (m as u32..(m + n) as u32).collect();
        let mut crossed = std::collections::HashSet::new();
        for (i, &ac) in a.iter().enumerate() {
            let hi = m - 1 - i;
            let mut hs = h[hi];
            for j in 0..n {
                let vs = v[j];
                if ac == b[j] || hs > vs {
                    // turn: no crossing
                    v[j] = hs;
                    hs = vs;
                } else {
                    // crossing: record the unordered pair
                    let pair = (hs.min(vs), hs.max(vs));
                    assert!(
                        crossed.insert(pair),
                        "strands {pair:?} crossed twice at cell ({i},{j})"
                    );
                }
            }
            h[hi] = hs;
        }
        // and the braid is fully combed: ends define a permutation with
        // exactly the recorded inversions
        let kernel = semilocal::iterative_combing(a, b);
        let perm = kernel.permutation();
        let inversions = (0..m + n)
            .flat_map(|x| (x + 1..m + n).map(move |y| (x, y)))
            .filter(|&(x, y)| perm.col_of(x) > perm.col_of(y))
            .count();
        assert_eq!(
            inversions,
            crossed.len(),
            "kernel inversions must equal the number of physical crossings"
        );
    }

    #[test]
    fn render_braid_has_expected_shape() {
        let art = render_braid(b"ab", b"ba");
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4); // 2 rows × 2 lines
        assert!(lines[0].chars().count() >= 6);
        // the grid must contain at least one crossing and one turn for
        // this input (one match per row)
        assert!(art.contains('┼'));
        assert!(art.contains('╮'));
    }
}
