//! Load-balanced iterative combing (§4.1, Figure 2 of the paper).
//!
//! Anti-diagonal combing has three phases: growing diagonals (top-left
//! triangle), full-length diagonals (the central parallelogram), and
//! shrinking diagonals (bottom-right triangle). Uneven diagonal lengths
//! cause poor load balance, so the paper reorders: phases 1 and 3 are
//! *independent sub-braids* that can be combed simultaneously — pairing
//! growing diagonal `t` (length `t+1`) with shrinking diagonal `n+t`
//! (length `m−1−t`) processes exactly `m` cells per iteration — and the
//! three phase braids are then composed with two sticky braid
//! multiplications.
//!
//! # Position labelings
//!
//! Each phase is a braid word on all `m+n` strand positions; combing it
//! independently requires labeling strands by their **position along the
//! phase's entry cut** (bottom-left → top-right) and reading ends off the
//! exit cut. For `m ≤ n` the three cuts are (h = horizontal slot `k`,
//! v = vertical slot `j`):
//!
//! ```text
//! boundary (phase-1 entry):   h_k ↦ k,            v_j ↦ m + j
//! after diag m−2 (1 ⇄ 2):     h_k ↦ 2k,           v_j ↦ 2j+1 (j<m), m+j (j≥m)
//! after diag n−1 (2 ⇄ 3):     v_j ↦ j (j ≤ n−m),  h_k ↦ n−m+1+2k,
//!                             v_j ↦ n−m+2(j−n+m)−1… i.e. n−m+2(j−(n−m+1))+2 (j > n−m)
//! boundary (phase-3 exit):    v_j ↦ j,            h_k ↦ n + k
//! ```
//!
//! (derived by walking each staircase cut; the unit tests check the
//! composed result against plain iterative combing on random inputs,
//! which pins every formula).

use crate::antidiag::StrandIx;
use crate::compose::{BraidMultiplier, CombinedMultiplier};
use crate::kernel::SemiLocalKernel;
use slcs_perm::Permutation;

/// Sequential load-balanced combing: three independently-combed phase
/// braids composed by braid multiplication (the paper's
/// `semi_load_balanced`, sequential flavor of Figure 4(c)).
pub fn load_balanced_combing<T: Eq + Clone + Sync>(a: &[T], b: &[T]) -> SemiLocalKernel {
    load_balanced_impl(a, b, None)
}

/// Thread-parallel load-balanced combing: one worker team pinned for the
/// whole sweep. Fused phase-1/phase-3 iterations of exactly `m` cells
/// and the full-length phase-2 diagonals are split across the team, with
/// one barrier per iteration instead of a fork/join per diagonal
/// (Figures 7–8).
pub fn par_load_balanced_combing<T: Eq + Clone + Sync>(a: &[T], b: &[T]) -> SemiLocalKernel {
    load_balanced_impl(a, b, Some(crate::antidiag::PAR_GRAIN))
}

/// `grain: None` combs sequentially; `Some(g)` splits every iteration
/// across a team in chunks of at least `g` cells.
fn load_balanced_impl<T: Eq + Clone + Sync>(
    a: &[T],
    b: &[T],
    grain: Option<usize>,
) -> SemiLocalKernel {
    let m = a.len();
    let n = b.len();
    if m == 0 || n == 0 {
        // PANIC: base_kernel never fails when one side is empty.
        return crate::recursive::base_kernel(a, b).expect("empty grid has a trivial kernel");
    }
    if m > n {
        // Comb the transposed grid and flip back (Theorem 3.5).
        return load_balanced_impl(b, a, grain).flip();
    }
    let a_rev: Vec<T> = a.iter().rev().cloned().collect();

    // Entry-cut labelings for each phase (see module docs).
    let mut h1: Vec<u32> = (0..m as u32).collect();
    let mut v1: Vec<u32> = (m as u32..(m + n) as u32).collect();
    let mut h2: Vec<u32> = (0..m as u32).map(|k| 2 * k).collect();
    let mut v2: Vec<u32> =
        (0..n as u32).map(|j| if (j as usize) < m { 2 * j + 1 } else { m as u32 + j }).collect();
    let mid = (n - m) as u32; // last fully-processed bottom column at the 2⇄3 cut
    let mut h3: Vec<u32> = (0..m as u32).map(|k| mid + 1 + 2 * k).collect();
    let mut v3: Vec<u32> =
        (0..n as u32).map(|j| if j <= mid { j } else { mid + 2 + 2 * (j - mid - 1) }).collect();

    // Every sweep iteration (fused 1⊕3 or phase 2) processes ~m cells,
    // so a team bigger than m / grain members can never all be busy.
    let grain = grain.unwrap_or(usize::MAX).max(1);
    let team = rayon::current_num_threads().min(m / grain).max(1);
    if team > 1 {
        let shared = [
            SharedPhase { h: h1.as_mut_ptr(), v: v1.as_mut_ptr() },
            SharedPhase { h: h2.as_mut_ptr(), v: v2.as_mut_ptr() },
            SharedPhase { h: h3.as_mut_ptr(), v: v3.as_mut_ptr() },
        ];
        let a_rev = &a_rev[..];
        rayon::team_run(team, |view| {
            // Fused phases 1 and 3: iteration t processes growing
            // diagonal t and shrinking diagonal n + t — m cells total,
            // split across the team as one combined index range.
            for t in 0..m.saturating_sub(1) {
                let (g_h0, g_v0, g_len) = diag(m, n, t);
                let (s_h0, s_v0, s_len) = diag(m, n, n + t);
                let total = g_len + s_len;
                let (lo, hi) = member_range(total, grain, &view);
                if lo < g_len {
                    let e = hi.min(g_len);
                    // SAFETY: members cover disjoint subranges; the
                    // barrier below sequences iterations.
                    unsafe { shared[0].comb(a_rev, b, g_h0 + lo, g_v0 + lo, e - lo) };
                }
                if hi > g_len {
                    let (s_lo, s_hi) = (lo.max(g_len) - g_len, hi - g_len);
                    // SAFETY: same disjoint-subrange argument; shared[2] is the spill grid.
                    unsafe { shared[2].comb(a_rev, b, s_h0 + s_lo, s_v0 + s_lo, s_hi - s_lo) };
                }
                if !view.barrier() {
                    return;
                }
            }
            // Phase 2: the full-length diagonals.
            for d in (m - 1)..n {
                let (h0, v0, len) = diag(m, n, d);
                let (lo, hi) = member_range(len, grain, &view);
                if lo < hi {
                    // SAFETY: member_range assigns disjoint subranges and the barrier below
                    // sequences diagonals.
                    unsafe { shared[1].comb(a_rev, b, h0 + lo, v0 + lo, hi - lo) };
                }
                if !view.barrier() {
                    return;
                }
            }
        });
    } else {
        for t in 0..m.saturating_sub(1) {
            let (g_h0, g_v0, g_len) = diag(m, n, t);
            let (s_h0, s_v0, s_len) = diag(m, n, n + t);
            comb_diag(
                &a_rev[g_h0..g_h0 + g_len],
                &b[g_v0..g_v0 + g_len],
                &mut h1[g_h0..g_h0 + g_len],
                &mut v1[g_v0..g_v0 + g_len],
            );
            comb_diag(
                &a_rev[s_h0..s_h0 + s_len],
                &b[s_v0..s_v0 + s_len],
                &mut h3[s_h0..s_h0 + s_len],
                &mut v3[s_v0..s_v0 + s_len],
            );
        }
        for d in (m - 1)..n {
            let (h0, v0, len) = diag(m, n, d);
            comb_diag(
                &a_rev[h0..h0 + len],
                &b[v0..v0 + len],
                &mut h2[h0..h0 + len],
                &mut v2[v0..v0 + len],
            );
        }
    }

    // Exit-cut extraction of the three phase braids.
    let order = m + n;
    let k1 = {
        let mut fwd = vec![0u32; order];
        for (k, &s) in h1.iter().enumerate() {
            fwd[s as usize] = 2 * k as u32;
        }
        for (j, &s) in v1.iter().enumerate() {
            fwd[s as usize] = if j < m { 2 * j as u32 + 1 } else { (m + j) as u32 };
        }
        Permutation::from_forward_unchecked(fwd)
    };
    let k2 = {
        let mut fwd = vec![0u32; order];
        for (k, &s) in h2.iter().enumerate() {
            fwd[s as usize] = mid + 1 + 2 * k as u32;
        }
        for (j, &s) in v2.iter().enumerate() {
            let j = j as u32;
            fwd[s as usize] = if j <= mid { j } else { mid + 2 + 2 * (j - mid - 1) };
        }
        Permutation::from_forward_unchecked(fwd)
    };
    let k3 = {
        let mut fwd = vec![0u32; order];
        for (k, &s) in h3.iter().enumerate() {
            fwd[s as usize] = (n + k) as u32;
        }
        for (j, &s) in v3.iter().enumerate() {
            fwd[s as usize] = j as u32;
        }
        Permutation::from_forward_unchecked(fwd)
    };

    // Compose in sweep order: the grid braid word is W1 · W2 · W3.
    let mut mul = CombinedMultiplier::new(order);
    let k12 = mul.multiply(&k1, &k2);
    let kernel = mul.multiply(&k12, &k3);
    SemiLocalKernel::new(kernel, m, n)
}

/// Anti-diagonal geometry (shared with `antidiag`, restated here for the
/// phase ranges): returns `(h0, v0, len)` for diagonal `d`.
#[inline]
fn diag(m: usize, n: usize, d: usize) -> (usize, usize, usize) {
    let j_lo = d.saturating_sub(m - 1);
    let j_hi = (d + 1).min(n);
    let h0 = if d < m { m - 1 - d } else { 0 };
    (h0, j_lo, j_hi - j_lo)
}

fn comb_diag<T: Eq>(ar: &[T], bs: &[T], hs: &mut [u32], vs: &mut [u32]) {
    for ((ac, bc), (h, v)) in ar.iter().zip(bs).zip(hs.iter_mut().zip(vs)) {
        let p = (ac == bc) | (*h > *v);
        let (nh, nv) = u32::cswap(p, *h, *v);
        *h = nh;
        *v = nv;
    }
}

/// The contiguous subrange of `len` cells that `view`'s member combs this
/// iteration: short ranges activate fewer members (grain-bounded), and
/// inactive members get the empty range.
fn member_range(len: usize, grain: usize, view: &rayon::TeamView<'_>) -> (usize, usize) {
    let active = view.size.min(len.div_ceil(grain)).max(1);
    if view.id >= active {
        return (0, 0);
    }
    let chunk = len.div_ceil(active);
    let lo = (view.id * chunk).min(len);
    (lo, (lo + chunk).min(len))
}

/// One phase's strand arrays, shared across team members. Members only
/// write the disjoint ranges [`member_range`] assigns them, and the team
/// barrier sequences iterations, so the aliasing is benign.
struct SharedPhase {
    h: *mut u32,
    v: *mut u32,
}

// SAFETY: see the struct docs — disjoint member ranges, barrier-sequenced
// iterations.
unsafe impl Sync for SharedPhase {}

impl SharedPhase {
    /// Combs `len` cells starting at `h_off`/`v_off`.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and disjoint from every range any
    /// other member touches between two barriers.
    unsafe fn comb<T: Eq>(&self, a_rev: &[T], b: &[T], h_off: usize, v_off: usize, len: usize) {
        // SAFETY: in-bounds and disjoint by the function's contract.
        let hs = unsafe { std::slice::from_raw_parts_mut(self.h.add(h_off), len) };
        let vs = unsafe { std::slice::from_raw_parts_mut(self.v.add(v_off), len) };
        comb_diag(&a_rev[h_off..h_off + len], &b[v_off..v_off + len], hs, vs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative_combing;
    use rand::{RngExt, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x10AD)
    }

    fn random_string(rng: &mut impl rand::Rng, len: usize, sigma: u8) -> Vec<u8> {
        (0..len).map(|_| rng.random_range(0..sigma)).collect()
    }

    #[test]
    fn matches_iterative_on_random_inputs() {
        let mut rng = rng();
        for _ in 0..30 {
            let m = rng.random_range(1..30);
            let n = rng.random_range(1..30);
            let a = random_string(&mut rng, m, 3);
            let b = random_string(&mut rng, n, 3);
            assert_eq!(load_balanced_combing(&a, &b), iterative_combing(&a, &b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn matches_iterative_on_shape_extremes() {
        let mut rng = rng();
        for (m, n) in [(1, 1), (1, 20), (20, 1), (2, 2), (16, 16), (3, 17), (17, 3)] {
            let a = random_string(&mut rng, m, 2);
            let b = random_string(&mut rng, n, 2);
            assert_eq!(
                load_balanced_combing(&a, &b),
                iterative_combing(&a, &b),
                "m={m} n={n} a={a:?} b={b:?}"
            );
            assert_eq!(
                par_load_balanced_combing(&a, &b),
                iterative_combing(&a, &b),
                "par m={m} n={n}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = rng();
        let a = random_string(&mut rng, 300, 4);
        let b = random_string(&mut rng, 500, 4);
        assert_eq!(par_load_balanced_combing(&a, &b), load_balanced_combing(&a, &b));
    }

    /// The default grain never forms a team on test-sized inputs, so the
    /// team path is driven at small grains under several budgets.
    #[test]
    fn team_path_matches_at_small_grains() {
        let mut rng = rng();
        let a = random_string(&mut rng, 300, 4);
        let b = random_string(&mut rng, 500, 4);
        let want = iterative_combing(&a, &b);
        for threads in [2usize, 3] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            for grain in [1usize, 16, 100] {
                let got = pool.install(|| load_balanced_impl(&a, &b, Some(grain)));
                assert_eq!(got, want, "threads={threads} grain={grain}");
                let flipped = pool.install(|| load_balanced_impl(&b, &a, Some(grain)));
                assert_eq!(flipped, iterative_combing(&b, &a), "flipped threads={threads}");
            }
        }
    }
}
