//! Anti-diagonal iterative combing (Listing 4 of the paper).
//!
//! Cells on one anti-diagonal are independent (processing cell `(i,j)`
//! depends only on `(i,j−1)` and `(i−1,j)`), so the grid is swept in
//! anti-diagonals. For a diagonal `d` the active cells form contiguous
//! ranges of both strand arrays (`a` is stored reversed so its accesses
//! are consecutive too), which makes the inner loop a perfect
//! data-parallel kernel:
//!
//! * the **branching** inner loop (`semi_antidiag`) swaps strands behind a
//!   condition — fewer memory writes, but branch mispredictions and no
//!   vectorization;
//! * the **branchless** inner loop (`semi_antidiag_SIMD`) replaces the
//!   branch with mask arithmetic `h' = (h & (p−1)) | ((−p) & v)`, which
//!   LLVM auto-vectorizes (the paper's hand-written AVX2 plays the same
//!   role);
//! * the **16-bit** variant packs strand indices into `u16` when
//!   `m + n ≤ 2¹⁶`, doubling the SIMD lane count (§4.1, last paragraph).
//!
//! Thread-parallel versions split each diagonal longer than
//! [`PAR_GRAIN`] cells into chunks across one worker team for the whole
//! sweep.
//! The paper's Listing 4 pays a barrier per diagonal (the cost model of
//! §4.1); here the leader hands chunks out through a work-stealing
//! deque and combs short diagonals alone, so no barrier remains.

use crate::iterative::build_kernel;
use crate::kernel::SemiLocalKernel;

/// Strand-index storage: `u32` for general inputs, `u16` when
/// `m + n ≤ 2¹⁶` (the paper's SIMD-width optimization).
pub trait StrandIx: Copy + Ord + Send + Sync + 'static {
    /// Lossless for all values used by the combing (asserted by callers).
    fn from_usize(x: usize) -> Self;
    /// Back to a plain index.
    fn to_u32(self) -> u32;
    /// Branchless conditional swap: returns `(h', v')` equal to `(v, h)`
    /// if `p`, `(h, v)` otherwise, compiled without branches.
    fn cswap(p: bool, h: Self, v: Self) -> (Self, Self);
}

macro_rules! impl_strand_ix {
    ($t:ty) => {
        impl StrandIx for $t {
            #[inline(always)]
            fn from_usize(x: usize) -> Self {
                debug_assert!(x <= <$t>::MAX as usize);
                x as $t
            }
            #[inline(always)]
            fn to_u32(self) -> u32 {
                self as u32
            }
            #[inline(always)]
            fn cswap(p: bool, h: Self, v: Self) -> (Self, Self) {
                let p = p as $t;
                // p ∈ {0,1}: p − 1 is all-ones iff p = 0, −p all-ones iff p = 1
                let keep = p.wrapping_sub(1);
                let take = p.wrapping_neg();
                ((h & keep) | (take & v), (v & keep) | (take & h))
            }
        }
    };
}

impl_strand_ix!(u16);
impl_strand_ix!(u32);

/// Geometry of one anti-diagonal `d ∈ [0, m+n−1)`: the slice offsets of
/// the active cells. For cell index `k` within the diagonal, the
/// participating strands are `h_strands[h0 + k]` and `v_strands[v0 + k]`,
/// and the characters `a_rev[h0 + k]` vs `b[v0 + k]`.
#[inline]
pub(crate) fn diag_ranges(m: usize, n: usize, d: usize) -> (usize, usize, usize) {
    let j_lo = d.saturating_sub(m - 1);
    let j_hi = (d + 1).min(n);
    let h0 = if d < m { m - 1 - d } else { 0 };
    (h0, j_lo, j_hi - j_lo)
}

/// Shared driver: sweep all anti-diagonals, processing each with `inloop`.
fn sweep<T, S, F>(a: &[T], b: &[T], inloop: F) -> SemiLocalKernel
where
    T: Eq + Clone + Sync,
    S: StrandIx,
    F: Fn(&[T], &[T], &mut [S], &mut [S]),
{
    let m = a.len();
    let n = b.len();
    if m == 0 || n == 0 {
        // PANIC: base_kernel never fails when one side is empty.
        return crate::recursive::base_kernel(a, b).expect("empty grid has a trivial kernel");
    }
    let a_rev: Vec<T> = a.iter().rev().cloned().collect();
    let mut h_strands: Vec<S> = (0..m).map(S::from_usize).collect();
    let mut v_strands: Vec<S> = (m..m + n).map(S::from_usize).collect();
    for d in 0..(m + n - 1) {
        let (h0, v0, len) = diag_ranges(m, n, d);
        inloop(
            &a_rev[h0..h0 + len],
            &b[v0..v0 + len],
            &mut h_strands[h0..h0 + len],
            &mut v_strands[v0..v0 + len],
        );
    }
    let h32: Vec<u32> = h_strands.iter().map(|s| s.to_u32()).collect();
    let v32: Vec<u32> = v_strands.iter().map(|s| s.to_u32()).collect();
    SemiLocalKernel::new(build_kernel(&h32, &v32), m, n)
}

#[inline(always)]
fn cell_branching<T: Eq, S: StrandIx>(ac: &T, bc: &T, h: &mut S, v: &mut S) {
    if ac == bc || *h > *v {
        std::mem::swap(h, v);
    }
}

#[inline(always)]
fn cell_branchless<T: Eq, S: StrandIx>(ac: &T, bc: &T, h: &mut S, v: &mut S) {
    let p = (ac == bc) | (*h > *v);
    let (nh, nv) = S::cswap(p, *h, *v);
    *h = nh;
    *v = nv;
}

/// `semi_antidiag`: sequential anti-diagonal combing with the branching
/// inner loop.
pub fn antidiag_combing<T: Eq + Clone + Sync>(a: &[T], b: &[T]) -> SemiLocalKernel {
    sweep::<_, u32, _>(a, b, |ar, bs, hs, vs| {
        for ((ac, bc), (h, v)) in ar.iter().zip(bs).zip(hs.iter_mut().zip(vs)) {
            cell_branching(ac, bc, h, v);
        }
    })
}

/// `semi_antidiag_SIMD`: sequential anti-diagonal combing with the
/// branchless (auto-vectorizable) inner loop, 32-bit strand indices.
pub fn antidiag_combing_branchless<T: Eq + Clone + Sync>(a: &[T], b: &[T]) -> SemiLocalKernel {
    sweep::<_, u32, _>(a, b, |ar, bs, hs, vs| {
        for ((ac, bc), (h, v)) in ar.iter().zip(bs).zip(hs.iter_mut().zip(vs)) {
            cell_branchless(ac, bc, h, v);
        }
    })
}

/// Branchless anti-diagonal combing with 16-bit strand indices — double
/// the SIMD lanes of [`antidiag_combing_branchless`].
///
/// # Panics
///
/// Panics if `m + n > 2¹⁶` (the index space of `u16`).
pub fn antidiag_combing_u16<T: Eq + Clone + Sync>(a: &[T], b: &[T]) -> SemiLocalKernel {
    assert!(
        a.len() + b.len() <= 1 << 16,
        "u16 strand indices require m + n ≤ 65536 (got {})",
        a.len() + b.len()
    );
    sweep::<_, u16, _>(a, b, |ar, bs, hs, vs| {
        for ((ac, bc), (h, v)) in ar.iter().zip(bs).zip(hs.iter_mut().zip(vs)) {
            cell_branchless(ac, bc, h, v);
        }
    })
}

/// Parallel grain in cells: a diagonal of `len` cells is split into at
/// most `⌈len / PAR_GRAIN⌉` chunks (capped by the team size), so one no
/// longer than the grain stays on one thread, and a grid forms a team
/// only when `min(m, n) ≥ 2 · PAR_GRAIN` (see [`auto_plan`]).
pub const PAR_GRAIN: usize = 8 * 1024;

/// How [`par_antidiag_combing_branchless_sched`] sweeps the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// The sequential anti-diagonal sweep
    /// ([`antidiag_combing_branchless`]).
    Seq,
    /// One worker team for the whole sweep with **no barrier at all**:
    /// the leader sequences diagonals and publishes chunks through a
    /// Chase–Lev deque; members are free-running steal loops, and short
    /// diagonals are processed by the leader alone with zero
    /// synchronization (see `sweep_wavefront_ws`).
    WorkSteal,
}

impl Scheduling {
    /// Stable wire token, used in BENCH_pool.json rows, METRICS labels
    /// and the `sched` field of trace events and audit records.
    pub fn token(self) -> &'static str {
        match self {
            Scheduling::Seq => "seq",
            Scheduling::WorkSteal => "work_steal",
        }
    }
}

/// The schedule and grain a parallel comb of an `m × n` grid runs under
/// a `threads` budget: [`Scheduling::WorkSteal`] exactly when the sweep
/// can form a team of two or more (`threads ≥ 2` and
/// `min(m, n) ≥ 2 · PAR_GRAIN`), [`Scheduling::Seq`] otherwise — the
/// same sequential sweep the work-stealing driver would fall back to.
/// A pure function: it reads no file and no environment.
pub fn auto_plan(m: usize, n: usize, threads: usize) -> (Scheduling, usize) {
    let mode = if threads >= 2 && m.min(n) >= 2 * PAR_GRAIN {
        Scheduling::WorkSteal
    } else {
        Scheduling::Seq
    };
    (mode, PAR_GRAIN)
}

/// Shared write access to the strand arrays for team members. Each
/// member only touches the disjoint index range of the chunk it holds,
/// and the leader's `remaining`-counter handshake orders diagonals, so
/// the aliasing is benign.
struct SharedStrands<S> {
    ptr: *mut S,
}

// SAFETY: see the struct docs — members touch disjoint ranges and the
// counter handshake orders diagonals.
unsafe impl<S: Send> Sync for SharedStrands<S> {}

impl<S> SharedStrands<S> {
    /// # Safety
    ///
    /// `[lo, hi)` must be in bounds and disjoint from every range any
    /// other thread accesses within the same diagonal.
    #[allow(clippy::mut_from_ref)] // &self is a shared raw-ptr capability; disjointness is the caller's contract above
    unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [S] {
        // SAFETY: in-bounds and disjoint by the function's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
}

/// Work-stealing wavefront: one team for all `m + n − 1` diagonals and
/// **no barrier anywhere**. The leader (member 0) sequences diagonals;
/// for each one it publishes the tail chunks through a Chase–Lev
/// [`rayon::Deque`] (it is the deque's owner: members only steal),
/// combs the head chunk itself, drains its own deque LIFO, and then
/// waits on a `remaining` counter that members decrement as their
/// stolen chunks finish. Members are free-running steal loops with an
/// escalating spin → yield → sleep backoff, so an idle member costs
/// (almost) nothing — which is what makes this mode degrade gracefully
/// to sequential speed on a 1-CPU box.
///
/// A diagonal too short to split (`active ≤ 1`) is combed by the leader
/// **with zero synchronization** — no counter, no deque traffic, no
/// member wakeup. The first and last ~`2·grain·team` diagonals of every
/// grid fall in this regime, which is where a per-diagonal barrier
/// (the paper's Listing 4 cost model) would thrash.
///
/// Falls back to the plain sequential sweep when the grid cannot keep
/// a second worker busy (`min(m, n) < 2·grain` or a 1-thread budget),
/// so callers can use it unconditionally. `TRACED = false` compiles
/// the span sites out entirely (not even the enabled-check load
/// remains) — the zero-instrumentation baseline that `slcs bench-obs`
/// measures disabled-tracing overhead against.
///
/// # Correctness of the handshake
///
/// Chunk geometry is a pure function of `(d, k, view.size, grain)`, so
/// an entry `(d, k)` fully identifies a disjoint strand range. Within a
/// diagonal, the deque delivers each entry exactly once (owner pop /
/// CAS-validated steal). Across diagonals, the happens-before chain is:
/// member's strand writes → its `remaining.fetch_sub` (SeqCst RMW) →
/// leader observing `remaining == 0` (the RMW chain forms a release
/// sequence) → leader's next-diagonal deque pushes → the stealing
/// member's reads. The leader's own writes reach members through the
/// deque's SeqCst `bottom` publication. Panic exits take the same
/// edges: the leader polls [`rayon::TeamView::poisoned`] while waiting,
/// members poll it and a `done` flag while stealing, and `team_run`
/// joins every member before this frame (and the strand vectors) drops.
fn sweep_wavefront_ws<T, S, C, const TRACED: bool>(
    a: &[T],
    b: &[T],
    grain: usize,
    cell: C,
) -> SemiLocalKernel
where
    T: Eq + Clone + Sync,
    S: StrandIx,
    C: Fn(&T, &T, &mut S, &mut S) + Sync,
{
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let m = a.len();
    let n = b.len();
    if m == 0 || n == 0 {
        // PANIC: base_kernel never fails when one side is empty.
        return crate::recursive::base_kernel(a, b).expect("empty grid has a trivial kernel");
    }
    let grain = grain.max(1);
    let team = rayon::current_num_threads().min(m.min(n) / grain).max(1);
    if team <= 1 {
        return sweep::<_, S, _>(a, b, |ar, bs, hs, vs| {
            for ((ac, bc), (h, v)) in ar.iter().zip(bs).zip(hs.iter_mut().zip(vs)) {
                cell(ac, bc, h, v);
            }
        });
    }
    let a_rev: Vec<T> = a.iter().rev().cloned().collect();
    let mut h_strands: Vec<S> = (0..m).map(S::from_usize).collect();
    let mut v_strands: Vec<S> = (m..m + n).map(S::from_usize).collect();
    {
        let h = SharedStrands { ptr: h_strands.as_mut_ptr() };
        let v = SharedStrands { ptr: v_strands.as_mut_ptr() };
        let a_rev = &a_rev;
        // Owned by the leader; members only steal. At most `team − 1`
        // entries are ever live, so the ring cannot overflow (the push
        // fallback below is defensive).
        let work = rayon::Deque::new(team);
        // Unfinished chunks of the diagonal in flight.
        let remaining = AtomicUsize::new(0);
        // Leader → members: the sweep is over, stop stealing.
        let done = AtomicBool::new(false);
        let _sweep_span = if TRACED {
            slcs_trace::span!("wavefront.sweep", "diags" => m + n - 1, "team" => team)
        } else {
            None
        };
        let _sweep_mem = slcs_alloc::alloc_scope!("wavefront.sweep.mem");
        rayon::team_run(team, |view| {
            let size = view.size;
            // Member identity for span stamping (0 = the leader), so the
            // critical-path analyzer can pin each chunk to a lane.
            let wid = view.id;
            // Combs chunk `k` of diagonal `d`; geometry recomputed from
            // scratch so an entry is self-describing.
            let comb_chunk = |d: usize, k: usize| {
                let (h0, v0, len) = diag_ranges(m, n, d);
                let active = size.min(len.div_ceil(grain)).max(1);
                let chunk = len.div_ceil(active);
                let lo = (k * chunk).min(len);
                let hi = (lo + chunk).min(len);
                if lo >= hi {
                    return;
                }
                let _chunk_span = if TRACED {
                    slcs_trace::span!("wavefront.chunk", "d" => d, "len" => hi - lo, "w" => wid)
                } else {
                    None
                };
                // SAFETY: chunk `k` of diagonal `d` is a disjoint range,
                // delivered exactly once by the deque; the remaining-
                // counter handshake sequences diagonals (see fn docs).
                let hs = unsafe { h.range_mut(h0 + lo, h0 + hi) };
                // SAFETY: same disjoint-range argument as for `hs`.
                let vs = unsafe { v.range_mut(v0 + lo, v0 + hi) };
                let ar = &a_rev[h0 + lo..h0 + hi];
                let bs = &b[v0 + lo..v0 + hi];
                for ((ac, bc), (hr, vr)) in ar.iter().zip(bs).zip(hs.iter_mut().zip(vs)) {
                    cell(ac, bc, hr, vr);
                }
            };
            if view.id != 0 {
                // Member: free-running steal loop. Escalating backoff
                // keeps an idle member effectively free (it sleeps) on
                // machines where the leader does all the work.
                let mut idle = 0u32;
                loop {
                    // ORDERING: SeqCst — the done flag and the remaining
                    // counter form one handshake with the deque's SeqCst
                    // protocol; a single total order keeps the
                    // counter/steal/shutdown reasoning linear.
                    if done.load(Ordering::SeqCst) || view.poisoned() {
                        return;
                    }
                    match work.steal() {
                        Some((d, k)) => {
                            comb_chunk(d, k);
                            // ORDERING: SeqCst — releases the chunk's
                            // strand writes to the leader's counter wait.
                            remaining.fetch_sub(1, Ordering::SeqCst);
                            idle = 0;
                        }
                        None => {
                            idle += 1;
                            if idle < 64 {
                                std::hint::spin_loop();
                            } else if idle < 80 {
                                std::thread::yield_now();
                            } else {
                                let us = (50 * u64::from(idle - 79)).min(500);
                                std::thread::sleep(std::time::Duration::from_micros(us));
                            }
                        }
                    }
                }
            }
            // Leader: sequence the diagonals.
            for d in 0..(m + n - 1) {
                let (_, _, len) = diag_ranges(m, n, d);
                let active = size.min(len.div_ceil(grain)).max(1);
                if active <= 1 {
                    // Too short to split: comb it solo, zero sync.
                    comb_chunk(d, 0);
                    continue;
                }
                // Publish the tail chunks, keep the head for ourselves.
                // The counter is stored before the pushes (and reaches
                // members through the push's SeqCst publication), so a
                // decrement can never observe a stale zero.
                // ORDERING: SeqCst — see the member loop: one total
                // order across the counter, the deque and the done flag.
                remaining.store(active, Ordering::SeqCst);
                for k in 1..active {
                    if work.push((d, k)).is_err() {
                        // Ring full (cannot happen at ≤ team−1 entries;
                        // defensive): comb it inline instead.
                        comb_chunk(d, k);
                        // ORDERING: SeqCst — same handshake as above.
                        remaining.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                comb_chunk(d, 0);
                // ORDERING: SeqCst — same handshake as above.
                remaining.fetch_sub(1, Ordering::SeqCst);
                // Drain what nobody stole (LIFO; same diagonal only).
                while let Some((d2, k2)) = work.pop() {
                    comb_chunk(d2, k2);
                    // ORDERING: SeqCst — same handshake as above.
                    remaining.fetch_sub(1, Ordering::SeqCst);
                }
                // Wait for in-flight stolen chunks.
                let mut idle = 0u32;
                // ORDERING: SeqCst — acquires every decrementer's strand
                // writes before the next diagonal is published.
                while remaining.load(Ordering::SeqCst) != 0 {
                    if view.poisoned() {
                        // ORDERING: SeqCst — same handshake as above.
                        done.store(true, Ordering::SeqCst);
                        return;
                    }
                    idle += 1;
                    if idle < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
            // ORDERING: SeqCst — shutdown publication; members observe
            // it in the same total order as their last steal attempt.
            done.store(true, Ordering::SeqCst);
        });
    }
    let h32: Vec<u32> = h_strands.iter().map(|s| s.to_u32()).collect();
    let v32: Vec<u32> = v_strands.iter().map(|s| s.to_u32()).collect();
    SemiLocalKernel::new(build_kernel(&h32, &v32), m, n)
}

/// Branchless parallel combing under an explicit [`Scheduling`] mode and
/// grain — the knob pair behind `bench-baseline`'s seq/work_steal rows
/// and the grain ablation of §4.1. Callers that want the production
/// choice pass the result of [`auto_plan`].
pub fn par_antidiag_combing_branchless_sched<T: Eq + Clone + Sync>(
    a: &[T],
    b: &[T],
    sched: Scheduling,
    grain: usize,
) -> SemiLocalKernel {
    match sched {
        Scheduling::Seq => antidiag_combing_branchless(a, b),
        Scheduling::WorkSteal => {
            sweep_wavefront_ws::<_, u32, _, true>(a, b, grain, cell_branchless::<T, u32>)
        }
    }
}

/// Trace-free twin of the [`Scheduling::WorkSteal`] sweep: the span
/// sites are compiled out entirely, not merely disabled. This is the
/// zero-instrumentation baseline `slcs bench-obs` compares against to
/// prove the disabled-tracing path costs ≤ the advertised bound — not
/// part of the supported API surface.
#[doc(hidden)]
pub fn par_antidiag_combing_branchless_untraced<T: Eq + Clone + Sync>(
    a: &[T],
    b: &[T],
    grain: usize,
) -> SemiLocalKernel {
    sweep_wavefront_ws::<_, u32, _, false>(a, b, grain, cell_branchless::<T, u32>)
}

/// Thread-parallel `semi_antidiag` (branching inner loop, Listing 4):
/// the work-stealing sweep at [`PAR_GRAIN`].
pub fn par_antidiag_combing<T: Eq + Clone + Sync>(a: &[T], b: &[T]) -> SemiLocalKernel {
    sweep_wavefront_ws::<_, u32, _, true>(a, b, PAR_GRAIN, cell_branching::<T, u32>)
}

/// Thread-parallel branchless anti-diagonal combing
/// (`semi_antidiag_SIMD`'s parallel form from Figures 7–8).
pub fn par_antidiag_combing_branchless<T: Eq + Clone + Sync>(a: &[T], b: &[T]) -> SemiLocalKernel {
    sweep_wavefront_ws::<_, u32, _, true>(a, b, PAR_GRAIN, cell_branchless::<T, u32>)
}

/// Thread-parallel branchless combing with 16-bit strand indices.
///
/// # Panics
///
/// Panics if `m + n > 2¹⁶`.
pub fn par_antidiag_combing_u16<T: Eq + Clone + Sync>(a: &[T], b: &[T]) -> SemiLocalKernel {
    assert!(
        a.len() + b.len() <= 1 << 16,
        "u16 strand indices require m + n ≤ 65536 (got {})",
        a.len() + b.len()
    );
    sweep_wavefront_ws::<_, u16, _, true>(a, b, PAR_GRAIN, cell_branchless::<T, u16>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative_combing;
    use rand::{RngExt, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xD1A6)
    }

    fn random_string(rng: &mut impl rand::Rng, len: usize, sigma: u8) -> Vec<u8> {
        (0..len).map(|_| rng.random_range(0..sigma)).collect()
    }

    #[test]
    fn diag_ranges_cover_every_cell_once() {
        for (m, n) in [(1usize, 1usize), (3, 5), (5, 3), (4, 4), (1, 7), (7, 1)] {
            let mut seen = vec![false; m * n];
            for d in 0..(m + n - 1) {
                let (h0, v0, len) = diag_ranges(m, n, d);
                for k in 0..len {
                    // cell (i, j): h index h0+k = m−1−i ⇒ i = m−1−(h0+k); j = v0+k
                    let i = m - 1 - (h0 + k);
                    let j = v0 + k;
                    assert!(i < m && j < n, "m={m} n={n} d={d} k={k}");
                    assert_eq!(i + j, d);
                    assert!(!seen[i * n + j], "cell revisited");
                    seen[i * n + j] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "m={m} n={n}: cells missed");
        }
    }

    #[test]
    fn all_variants_match_iterative_combing() {
        let mut rng = rng();
        for _ in 0..20 {
            let m = rng.random_range(1..40);
            let n = rng.random_range(1..40);
            let a = random_string(&mut rng, m, 3);
            let b = random_string(&mut rng, n, 3);
            let want = iterative_combing(&a, &b);
            assert_eq!(antidiag_combing(&a, &b), want, "branching a={a:?} b={b:?}");
            assert_eq!(antidiag_combing_branchless(&a, &b), want, "branchless a={a:?} b={b:?}");
            assert_eq!(antidiag_combing_u16(&a, &b), want, "u16 a={a:?} b={b:?}");
            assert_eq!(par_antidiag_combing(&a, &b), want, "par a={a:?} b={b:?}");
            assert_eq!(
                par_antidiag_combing_branchless(&a, &b),
                want,
                "par branchless a={a:?} b={b:?}"
            );
            assert_eq!(par_antidiag_combing_u16(&a, &b), want, "par u16 a={a:?} b={b:?}");
            for sched in [Scheduling::Seq, Scheduling::WorkSteal] {
                assert_eq!(
                    par_antidiag_combing_branchless_sched(&a, &b, sched, 4),
                    want,
                    "sched={sched:?} a={a:?} b={b:?}"
                );
            }
        }
    }

    /// The default-grain entry points never split test-sized inputs, so
    /// the branching and u16 cells are driven through the generic
    /// work-stealing sweep directly, at grains small enough to form
    /// multi-member teams and multi-chunk diagonals.
    #[test]
    fn work_steal_sweep_matches_for_every_cell_at_small_grains() {
        let mut rng = rng();
        for threads in [2usize, 3] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            for _ in 0..12 {
                let m = rng.random_range(1..120);
                let n = rng.random_range(1..120);
                let a = random_string(&mut rng, m, 3);
                let b = random_string(&mut rng, n, 3);
                let want = iterative_combing(&a, &b);
                for grain in [1usize, 3, 16] {
                    pool.install(|| {
                        let branching = sweep_wavefront_ws::<_, u32, _, true>(
                            &a,
                            &b,
                            grain,
                            cell_branching::<u8, u32>,
                        );
                        assert_eq!(branching, want, "branching t={threads} grain={grain}");
                        let u16s = sweep_wavefront_ws::<_, u16, _, true>(
                            &a,
                            &b,
                            grain,
                            cell_branchless::<u8, u16>,
                        );
                        assert_eq!(u16s, want, "u16 t={threads} grain={grain}");
                        let untraced = par_antidiag_combing_branchless_untraced(&a, &b, grain);
                        assert_eq!(untraced, want, "untraced t={threads} grain={grain}");
                    });
                }
            }
        }
    }

    #[test]
    fn auto_plan_picks_work_steal_iff_the_sweep_forms_a_team() {
        let g = PAR_GRAIN;
        for threads in [0usize, 1, 2, 3, 8] {
            for m in [1, g, 2 * g - 1, 2 * g, 4 * g] {
                for n in [1, 2 * g - 1, 2 * g, 3 * g] {
                    let want = if threads >= 2 && m.min(n) >= 2 * g {
                        Scheduling::WorkSteal
                    } else {
                        Scheduling::Seq
                    };
                    assert_eq!(auto_plan(m, n, threads), (want, g), "m={m} n={n} t={threads}");
                }
            }
        }
        assert_eq!(Scheduling::Seq.token(), "seq");
        assert_eq!(Scheduling::WorkSteal.token(), "work_steal");
    }

    #[test]
    fn empty_inputs() {
        let want = iterative_combing(b"abc", b"");
        assert_eq!(antidiag_combing(b"abc", b""), want);
        assert_eq!(antidiag_combing_branchless(b"", b"xy"), iterative_combing(b"", b"xy"));
    }

    #[test]
    #[should_panic(expected = "65536")]
    fn u16_variant_rejects_oversized_inputs() {
        let a = vec![0u8; 40_000];
        let b = vec![1u8; 40_000];
        antidiag_combing_u16(&a, &b);
    }

    #[test]
    fn cswap_is_branch_free_semantics() {
        assert_eq!(u32::cswap(true, 7, 9), (9, 7));
        assert_eq!(u32::cswap(false, 7, 9), (7, 9));
        assert_eq!(u16::cswap(true, 0, u16::MAX - 1), (u16::MAX - 1, 0));
    }
}
