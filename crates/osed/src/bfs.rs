//! Landau–Vishkin diagonal BFS over the LCP oracle: edit distance
//! output-sensitive in the distance `d`: O(d²) frontier cells plus at
//! most O(min(n, m) · d / 8) word compares sliding them, and no
//! preprocessing. (Each slide on a diagonal starts past where that
//! diagonal stood two rounds earlier, so a diagonal's bytes are
//! compared O(1) times over the whole search.)
//!
//! Grid position `(i, j)` (a prefix pair `a[..i]`, `b[..j]`) lives on
//! diagonal `id = i − j + m`; `max_row[id]` after round `k` is the
//! largest `i` such that some position on `id` is reachable with at
//! most `k` edits (−1 when none is), always slid to the end of its
//! matching run via the oracle. Round `k + 1` extends every diagonal
//! from its three round-`k` neighbors *only*: new values are computed
//! into a scratch row and copied back, so the parallel variant is
//! bit-equivalent to the sequential one by construction.

use crate::lcp::LcpOracle;
use rayon::prelude::*;

/// Frontier width below which even the parallel variant extends
/// sequentially: a BFS round is O(width) cells of O(1) work, which
/// only amortizes task overhead once the frontier is wide.
pub const PAR_GRAIN: usize = 4096;

/// Global edit distance, sequential.
pub fn edit_distance(a: &[u8], b: &[u8]) -> usize {
    // PANIC: unreachable — the uncapped BFS always terminates with a distance.
    diagonal_bfs(a, b, None, None).expect("uncapped BFS yields a distance")
}

/// Global edit distance if it is `≤ k`, else `None`. Exits before
/// round `k + 1`, and before round 1 when the length difference alone
/// exceeds `k`.
pub fn edit_distance_bounded(a: &[u8], b: &[u8], k: usize) -> Option<usize> {
    diagonal_bfs(a, b, Some(k), None)
}

/// Global edit distance with per-round frontier extension on the
/// rayon pool (grain [`PAR_GRAIN`]); bit-equivalent to
/// [`edit_distance`].
pub fn par_edit_distance(a: &[u8], b: &[u8]) -> usize {
    par_edit_distance_grain(a, b, PAR_GRAIN)
}

/// [`par_edit_distance`] with an explicit grain (frontier cells per
/// task), for benchmarks probing the overhead crossover.
pub fn par_edit_distance_grain(a: &[u8], b: &[u8], grain: usize) -> usize {
    // PANIC: unreachable — the uncapped BFS always terminates with a distance.
    diagonal_bfs(a, b, None, Some(grain.max(1))).expect("uncapped BFS yields a distance")
}

fn diagonal_bfs(a: &[u8], b: &[u8], cap: Option<usize>, par: Option<usize>) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        // Pure insertions/deletions; no diagonal to slide.
        let d = n + m;
        return match cap {
            Some(k) if d > k => None,
            _ => Some(d),
        };
    }
    if let Some(k) = cap {
        // d ≥ |n − m| (the length gap is all indels): a hopeless bound
        // is rejected before any round runs.
        if n.abs_diff(m) > k {
            return None;
        }
    }
    let _span = slcs_trace::span!("osed.edit", "n" => n, "m" => m);
    let oracle = LcpOracle::new(a, b);
    let diags = n + m + 1;
    let target = n; // Diag(n, m)
    let mut max_row: Vec<i32> = vec![-1; diags];
    let mut next: Vec<i32> = vec![-1; diags];
    max_row[m] = oracle.lcp(0, 0) as i32; // Diag(0, 0), slid down its run
    if max_row[target] == n as i32 {
        return Some(0);
    }
    let mut k = 0usize;
    loop {
        k += 1;
        if let Some(cap) = cap {
            if k > cap {
                return None;
            }
        }
        debug_assert!(k <= n + m, "BFS must terminate by round n + m");
        let lo = m - k.min(m);
        let hi = m + k.min(n);
        let _round = slcs_trace::span!("osed.bfs_round", "k" => k, "width" => hi - lo + 1);
        let front = &max_row;
        let window = &mut next[lo..=hi];
        match par {
            // Below 2× the grain a split yields at most one extra task;
            // not worth waking the pool.
            Some(grain) if window.len() >= grain.saturating_mul(2) => {
                window
                    .par_iter_mut()
                    .with_min_len(grain)
                    .enumerate()
                    .for_each(|(off, slot)| *slot = extend_diag(&oracle, front, lo + off, n, m));
            }
            _ => {
                for (off, slot) in window.iter_mut().enumerate() {
                    *slot = extend_diag(&oracle, front, lo + off, n, m);
                }
            }
        }
        max_row[lo..=hi].copy_from_slice(&next[lo..=hi]);
        if max_row[target] == n as i32 {
            return Some(k);
        }
    }
}

/// One frontier cell: the furthest row on diagonal `id` reachable with
/// one more edit than the round-`k−1` frontier `front`, slid down its
/// matching run. Pure in `front`, so cells of a round are independent.
///
/// Each of the three candidate edits lands on a start row of `id`, and
/// only the furthest start needs a slide: a slide from `s₁ < s₂` that
/// reaches `s₂` ends where the slide from `s₂` ends, and one that stops
/// short of `s₂` is beaten by it. Starts at a grid edge are already
/// fixed points (their slide is empty).
fn extend_diag(oracle: &LcpOracle, front: &[i32], id: usize, n: usize, m: usize) -> i32 {
    let mut start: i32 = -1;
    // Substitution: stay on `id`. At a grid edge nothing is left to
    // substitute, but the position itself stays reachable.
    let cur = front[id];
    if cur >= 0 {
        let (i, j) = (cur as usize, cur as usize + m - id);
        start = if i == n || j == m { cur } else { cur + 1 };
    }
    // From `id − 1`: delete `a[i]` (advance the row) — or, when the
    // row is already exhausted, delete `b[j − 1]` instead, which lands
    // on (n, j − 1); both single edits land on `id`.
    if id > 0 && front[id - 1] >= 0 {
        start = start.max((front[id - 1] + 1).min(n as i32));
    }
    // From `id + 1`: insert `b[j]` (advance the column) — or, when the
    // column is already exhausted, drop the last row instead, which
    // lands on (i − 1, m); j = m forces i = id + 1 ≥ 1.
    if id + 1 < front.len() && front[id + 1] >= 0 {
        let i = front[id + 1];
        let j = i as usize + m - (id + 1);
        start = start.max(if j == m { i - 1 } else { i });
    }
    if start < 0 {
        return -1;
    }
    let i = start as usize;
    (i + oracle.lcp(i, i + m - id)) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use slcs_baselines::edit_distance as dp_edit_distance;

    #[test]
    fn classic_pairs_match_the_dp() {
        for (a, b) in [
            (&b"kitten"[..], &b"sitting"[..]),
            (b"flaw", b"lawn"),
            (b"", b"abc"),
            (b"abc", b""),
            (b"", b""),
            (b"same", b"same"),
            (b"abcdef", b"fedcba"),
            (b"aaaa", b"bbbb"),
            (b"ab", b"ba"),
        ] {
            let want = dp_edit_distance(a, b);
            assert_eq!(edit_distance(a, b), want, "{a:?} vs {b:?}");
            assert_eq!(par_edit_distance(a, b), want, "par {a:?} vs {b:?}");
        }
    }

    #[test]
    fn boundary_shapes_exercise_the_edge_rules() {
        // Prefix pairs and single-sided extensions drive the i = n and
        // j = m branches of the frontier extension.
        for (a, b) in [
            (&b"abc"[..], &b"abcdef"[..]),
            (b"abcdef", b"abc"),
            (b"xabc", b"abc"),
            (b"abc", b"abcx"),
            (b"a", b"aaaaaaa"),
            (b"aaaaaaa", b"a"),
            (b"abcabcabc", b"abc"),
        ] {
            assert_eq!(edit_distance(a, b), dp_edit_distance(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn pseudorandom_pairs_match_the_dp() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % bound
        };
        for sigma in [2u32, 4, 26] {
            for (la, lb) in [(1usize, 1usize), (13, 7), (64, 64), (200, 150)] {
                let a: Vec<u8> = (0..la).map(|_| b'a' + next(sigma) as u8).collect();
                let b: Vec<u8> = (0..lb).map(|_| b'a' + next(sigma) as u8).collect();
                let want = dp_edit_distance(&a, &b);
                assert_eq!(edit_distance(&a, &b), want, "sigma={sigma} {la}x{lb}");
                assert_eq!(par_edit_distance_grain(&a, &b, 4), want, "par sigma={sigma}");
            }
        }
    }

    #[test]
    fn bounded_variant_is_exact_below_the_cap_and_none_above() {
        let (a, b) = (&b"kitten"[..], &b"sitting"[..]);
        assert_eq!(edit_distance_bounded(a, b, 10), Some(3));
        assert_eq!(edit_distance_bounded(a, b, 3), Some(3));
        assert_eq!(edit_distance_bounded(a, b, 2), None);
        assert_eq!(edit_distance_bounded(a, b, 0), None);
        assert_eq!(edit_distance_bounded(a, a, 0), Some(0));
        // Length-gap pre-check: no oracle, straight None.
        assert_eq!(edit_distance_bounded(b"ab", b"abcdefgh", 3), None);
        assert_eq!(edit_distance_bounded(b"", b"xyz", 2), None);
        assert_eq!(edit_distance_bounded(b"", b"xyz", 3), Some(3));
    }

    #[test]
    fn periodic_worst_cases_match_the_dp() {
        // Periodic strings are the direct oracle's worst case: after a
        // shifting edit, many diagonals match for long runs, so slides
        // re-scan far. Unary, period 4 and period 64 bases, each with
        // scattered substitutions, insertions and deletions.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        for period in [1usize, 4, 64] {
            for edits in [1usize, 5, 40] {
                let a: Vec<u8> = (0..1500).map(|i| b'a' + (i % period % 26) as u8).collect();
                let mut b = a.clone();
                for _ in 0..edits {
                    let at = next(b.len());
                    match next(3) {
                        0 => b[at] = b'#',
                        1 => b.insert(at, b'a' + next(26) as u8),
                        _ => drop(b.remove(at)),
                    }
                }
                let want = dp_edit_distance(&a, &b);
                assert_eq!(edit_distance(&a, &b), want, "period {period}, {edits} edits");
                assert_eq!(par_edit_distance_grain(&a, &b, 4), want, "par period {period}");
                assert_eq!(edit_distance_bounded(&a, &b, want), Some(want));
                if let Some(below) = want.checked_sub(1) {
                    assert_eq!(edit_distance_bounded(&a, &b, below), None);
                }
            }
        }
    }

    #[test]
    fn similar_inputs_cost_few_rounds_and_stay_exact() {
        // A 2k-byte pair differing by 3 point edits: d = 3, so the BFS
        // runs 3 rounds over a ~7-cell window instead of 4M DP cells.
        let a: Vec<u8> = (0..2048u32).map(|i| b'a' + (i % 4) as u8).collect();
        let mut b = a.clone();
        b[100] = b'z';
        b.remove(700);
        b.insert(1500, b'q');
        assert_eq!(edit_distance(&a, &b), dp_edit_distance(&a, &b));
        assert_eq!(edit_distance(&a, &b), par_edit_distance(&a, &b));
        assert_eq!(edit_distance_bounded(&a, &b, 3), Some(edit_distance(&a, &b)));
    }
}
