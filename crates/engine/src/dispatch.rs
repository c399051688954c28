//! Adaptive algorithm selection and request execution.
//!
//! The engine has three ways to answer a comparison, with very different
//! cost profiles:
//!
//! * **Bit-parallel LCS** — O(σ·mn / 64) machine words, score only, no
//!   reusable artifact. Unbeatable for one-shot global scores on small
//!   alphabets.
//! * **Sequential combing** — O(mn) braid pass producing a semi-local
//!   kernel. Lowest constant factor; right for small grids or one thread.
//! * **Grid-parallel combing** — the paper's parallel comb; pays
//!   scheduling overhead, so it only wins on grids large enough to
//!   amortize it across threads. [`slcs_semilocal::auto_plan`] resolves
//!   the route per request: the barrier-free work-stealing sweep when
//!   the grid can form a team (`min(m, n) ≥ 2·PAR_GRAIN` and two or more
//!   threads), the sequential anti-diagonal sweep otherwise. The route
//!   that ran is recorded in `slcs_sched_mode_total{mode}`, the
//!   `engine.kernel_build` span and the `engine.dispatch` instant's
//!   `sched` field.
//! * **Output-sensitive BFS** (`slcs-osed`) — Landau–Vishkin
//!   O(d² + n·d/8) edit distance. Wins by orders of magnitude when the
//!   inputs are nearly equal (small d); on unrelated inputs its edge
//!   shrinks to ~2× and, unlike the `EditDistances` index, it leaves
//!   nothing to cache, so the dispatcher samples similarity
//!   ([`similar_inputs`]) before routing a global edit request to it.
//!   Thresholded requests ([`Operation::EditBounded`]) always take it:
//!   the BFS stops after `k + 1` rounds by construction.
//!
//! [`decide`] is a pure function of (operation, input bytes, thread
//! budget) returning a [`DispatchDecision`] — algorithm *and* the
//! reason it was picked — so tests can property-check routing and ops
//! can read it back from METRICS (`slcs_dispatch_total{algo,reason}`).
//! [`execute`] layers the kernel cache on top — a cached kernel beats
//! every fresh computation, so the cache is always consulted first for
//! kernel-based operations.

use crate::sync::atomic::Ordering;
use std::sync::Arc;

use slcs_bitpar::bit_lcs_alphabet;
use slcs_semilocal::{
    auto_plan, iterative_combing, par_antidiag_combing_branchless_sched, EditDistances, Scheduling,
    SemiLocalKernel,
};

use crate::cache::{CacheKey, CachedIndex, IndexKind, KernelCache, PlainEntry};
use crate::metrics::Metrics;
use crate::request::{
    AlgoChoice, CacheStatus, CompareRequest, DispatchDecision, DispatchReason, Operation, Payload,
};

/// Grid area (`m * n`) below which sequential combing beats the parallel
/// comb's task-spawn and merge overhead.
pub const PAR_COMB_THRESHOLD: usize = 1 << 16;

/// Largest alphabet the bit-parallel fast path is worth: its cost grows
/// with ⌈log₂ σ⌉ bit planes, and past 64 symbols combing's reusable
/// kernel usually pays better.
pub const BITPAR_MAX_SIGMA: usize = 64;

/// Number of distinct byte values across both inputs.
pub fn alphabet_size(pattern: &[u8], text: &[u8]) -> usize {
    let mut seen = [false; 256];
    for &c in pattern.iter().chain(text) {
        seen[c as usize] = true;
    }
    seen.iter().filter(|&&s| s).count()
}

/// Which combing variant to use for an `m × n` grid on `threads` threads.
pub fn combing_choice(m: usize, n: usize, threads: usize) -> AlgoChoice {
    if threads <= 1 || m.saturating_mul(n) < PAR_COMB_THRESHOLD {
        AlgoChoice::IterativeCombing
    } else {
        AlgoChoice::GridHybridCombing { tasks: threads }
    }
}

/// The schedule a grid-parallel comb with a `tasks` budget runs on this
/// thread. The sweep can form no bigger team than the current rayon
/// pool, so the budget is capped by it: the plan then names the route
/// that actually runs.
fn grid_plan(m: usize, n: usize, tasks: usize) -> (Scheduling, usize) {
    auto_plan(m, n, tasks.min(rayon::current_num_threads()))
}

/// Shortest input (both sides) the similarity probe considers. Below
/// this the full-grid index is cheap anyway and the probe's anchors
/// would overlap into noise.
pub const OSED_MIN_LEN: usize = 64;

/// Bytes per similarity anchor sampled from the pattern.
const ANCHOR_LEN: usize = 8;

/// Number of anchors the probe samples.
const ANCHOR_COUNT: usize = 32;

/// Slack added to the search radius around each anchor's expected
/// position, absorbing indel drift the length difference doesn't show.
const ANCHOR_PAD: usize = 256;

/// Anchor hits required to call a pair "similar" (out of
/// [`ANCHOR_COUNT`] sampled). Unrelated σ = 4 pairs hit at most 2;
/// ~80%-similar pairs hit 5–6 in the median, and osed beats the
/// `EditDistances` index on them by 14–24× (`BENCH_osed.json`, the
/// 0.8 rows), so 4 sends most of them to osed.
const ANCHOR_HITS: usize = 4;

/// Cheap similarity probe: samples [`ANCHOR_COUNT`] 8-byte anchors at
/// evenly spaced pattern positions and looks for each near its
/// proportional position in the text (± `|m−n| +` [`ANCHOR_PAD`]).
/// Nearly identical strings hit almost every anchor; unrelated strings
/// hit almost none (a random 8-byte match is vanishingly unlikely for
/// non-trivial alphabets). O(anchors · radius) — microseconds against
/// the milliseconds-to-seconds grid build it gates.
pub fn similar_inputs(pattern: &[u8], text: &[u8]) -> bool {
    let (m, n) = (pattern.len(), text.len());
    if m < OSED_MIN_LEN || n < OSED_MIN_LEN {
        return false;
    }
    // A length gap over 25% means d ≥ gap is already grid territory.
    if m.abs_diff(n) > m.min(n) / 4 {
        return false;
    }
    let radius = m.abs_diff(n) + ANCHOR_PAD;
    let mut hits = 0;
    for i in 0..ANCHOR_COUNT {
        let pos = i * (m - ANCHOR_LEN) / (ANCHOR_COUNT - 1);
        let anchor = &pattern[pos..pos + ANCHOR_LEN];
        let center = pos * n / m;
        let lo = center.saturating_sub(radius);
        let hi = (center + radius + ANCHOR_LEN).min(n);
        if text[lo..hi].windows(ANCHOR_LEN).any(|w| w == anchor) {
            hits += 1;
        }
    }
    hits >= ANCHOR_HITS
}

/// The planned route for a request, *ignoring* the cache (a cache hit
/// overrides any plan). Pure, so properties like "the plan's score
/// always matches the reference oracle" and "similar pairs go to osed"
/// are directly testable.
pub fn decide(op: &Operation, pattern: &[u8], text: &[u8], threads: usize) -> DispatchDecision {
    let (m, n) = (pattern.len(), text.len());
    match op {
        Operation::Lcs if alphabet_size(pattern, text) <= BITPAR_MAX_SIGMA => DispatchDecision {
            algo: AlgoChoice::BitParallel,
            reason: DispatchReason::SmallAlphabet,
        },
        Operation::Lcs | Operation::Windows { .. } => {
            let algo = combing_choice(m, n, threads);
            let reason = match algo {
                AlgoChoice::GridHybridCombing { .. } => DispatchReason::GridParallel,
                _ => DispatchReason::GridSequential,
            };
            DispatchDecision { algo, reason }
        }
        Operation::Edit { w: Some(_) } => {
            DispatchDecision { algo: AlgoChoice::EditIndex, reason: DispatchReason::EditWindowed }
        }
        Operation::Edit { w: None } => {
            if similar_inputs(pattern, text) {
                DispatchDecision {
                    algo: AlgoChoice::OutputSensitive,
                    reason: DispatchReason::EditSimilar,
                }
            } else {
                DispatchDecision {
                    algo: AlgoChoice::EditIndex,
                    reason: DispatchReason::EditDissimilar,
                }
            }
        }
        Operation::EditBounded { .. } => DispatchDecision {
            algo: AlgoChoice::OutputSensitive,
            reason: DispatchReason::EditBoundedK,
        },
    }
}

/// The planned algorithm for a request — [`decide`] without the reason,
/// kept for callers that only route.
pub fn choose(op: &Operation, pattern: &[u8], text: &[u8], threads: usize) -> AlgoChoice {
    decide(op, pattern, text, threads).algo
}

fn comb(
    pattern: &[u8],
    text: &[u8],
    metrics: &Metrics,
    threads: usize,
) -> (SemiLocalKernel, AlgoChoice) {
    let choice = combing_choice(pattern.len(), text.len(), threads);
    match choice {
        AlgoChoice::GridHybridCombing { tasks } => {
            // The route that runs (work stealing or the sequential
            // sweep) is the `sched` field of the build span, so the
            // span carries sched + area.
            let (mode, grain) = grid_plan(pattern.len(), text.len(), tasks);
            metrics.note_sched_mode(mode);
            let _build_span = slcs_trace::span!(
                "engine.kernel_build",
                "sched" => mode.token(),
                "area" => pattern.len() * text.len()
            );
            // Attribute allocator traffic (braid blocks, kernel storage)
            // to the kernel-build phase; lands inside the span above.
            let _build_mem = slcs_alloc::alloc_scope!("engine.kernel_build.mem");
            (
                par_antidiag_combing_branchless_sched(pattern, text, mode, grain),
                AlgoChoice::GridHybridCombing { tasks },
            )
        }
        _ => {
            let _build_span = slcs_trace::span!(
                "engine.kernel_build",
                "sched" => "seq",
                "area" => pattern.len() * text.len()
            );
            let _build_mem = slcs_alloc::alloc_scope!("engine.kernel_build.mem");
            (iterative_combing(pattern, text), AlgoChoice::IterativeCombing)
        }
    }
}

/// Fetches or builds the plain kernel entry for a pair.
fn plain_entry(
    pattern: &[u8],
    text: &[u8],
    cache: &KernelCache,
    metrics: &Metrics,
    threads: usize,
) -> (Arc<PlainEntry>, AlgoChoice, CacheStatus) {
    let key = CacheKey::new(IndexKind::Plain, pattern, text);
    if let Some(CachedIndex::Plain(entry)) = cache.get(&key) {
        // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
        metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        slcs_trace::instant!("engine.cache_hit", "kind" => "plain");
        return (entry, AlgoChoice::CachedKernel, CacheStatus::Hit);
    }
    // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
    metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    let (kernel, algo) = comb(pattern, text, metrics, threads);
    let entry = Arc::new(PlainEntry::new(kernel));
    let evicted = cache.insert(key, CachedIndex::Plain(entry.clone()));
    // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
    metrics.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
    (entry, algo, CacheStatus::Miss)
}

/// Fetches or builds the edit-distance index for a pair.
fn edit_entry(
    pattern: &[u8],
    text: &[u8],
    cache: &KernelCache,
    metrics: &Metrics,
) -> (Arc<EditDistances>, AlgoChoice, CacheStatus) {
    let key = CacheKey::new(IndexKind::Edit, pattern, text);
    if let Some(CachedIndex::Edit(entry)) = cache.get(&key) {
        // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
        metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        slcs_trace::instant!("engine.cache_hit", "kind" => "edit");
        return (entry, AlgoChoice::CachedKernel, CacheStatus::Hit);
    }
    // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
    metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    let _build_span = slcs_trace::span!(
        "engine.index_build",
        "kind" => "edit",
        "area" => pattern.len() * text.len()
    );
    let _build_mem = slcs_alloc::alloc_scope!("engine.index_build.mem");
    let entry = Arc::new(EditDistances::new(pattern, text));
    let evicted = cache.insert(key, CachedIndex::Edit(entry.clone()));
    // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
    metrics.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
    (entry, AlgoChoice::EditIndex, CacheStatus::Miss)
}

fn best_window(scores: &[usize]) -> (usize, usize) {
    scores
        .iter()
        .enumerate()
        .max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)))
        .map(|(i, &s)| (i, s))
        .unwrap_or((0, 0))
}

/// Everything [`execute_request`] learned serving one request — the
/// payload plus the audit facts the flight recorder stores.
pub struct Executed {
    pub payload: Payload,
    pub algo: AlgoChoice,
    pub cache: CacheStatus,
    pub reason: DispatchReason,
    /// Scheduling-mode token ([`Scheduling::token`]).
    pub sched: &'static str,
}

/// Serves one request: consults the cache, runs the chosen algorithm,
/// and reports which path was taken. Degenerate (empty) inputs are
/// answered directly so the kernel algorithms never see them. Every
/// call lands in exactly one `slcs_dispatch_total{algo,reason}` bucket
/// and emits one `engine.dispatch` trace instant.
pub fn execute(
    req: &CompareRequest,
    cache: &KernelCache,
    metrics: &Metrics,
    threads: usize,
) -> (Payload, AlgoChoice, CacheStatus) {
    let ex = execute_request(req, cache, metrics, threads, 0);
    (ex.payload, ex.algo, ex.cache)
}

/// [`execute`] plus the audit plumbing: the engine-assigned request id
/// rides on the `engine.dispatch` instant (so exemplar traces are
/// navigable back to their audit record), and the dispatch facts are
/// returned for the flight recorder.
pub fn execute_request(
    req: &CompareRequest,
    cache: &KernelCache,
    metrics: &Metrics,
    threads: usize,
    req_id: u64,
) -> Executed {
    let (payload, algo, cache_status, reason) = execute_inner(req, cache, metrics, threads);
    metrics.note_dispatch(reason);
    // The route a grid-parallel build runs is a pure function of
    // (m, n, threads), so it can be recomputed here for the instant
    // without plumbing it out of comb().
    let sched = match algo {
        AlgoChoice::GridHybridCombing { tasks } => {
            grid_plan(req.pattern.len(), req.text.len(), tasks).0
        }
        _ => Scheduling::Seq,
    }
    .token();
    // Three field slots per event: `reason` implies `algo` (see
    // `DispatchReason::algo_token`), so the triple carried here is the
    // routing reason, the resolved scheduling mode, and the request id.
    slcs_trace::instant!(
        "engine.dispatch",
        "reason" => reason.token(),
        "sched" => sched,
        "req" => req_id
    );
    Executed { payload, algo, cache: cache_status, reason, sched }
}

/// The reason matching a fetch-or-build helper's outcome: a cache hit
/// overrides whatever the miss path would have reported.
fn entry_reason(status: CacheStatus, miss: DispatchReason) -> DispatchReason {
    match status {
        CacheStatus::Hit => DispatchReason::CacheHit,
        _ => miss,
    }
}

fn execute_inner(
    req: &CompareRequest,
    cache: &KernelCache,
    metrics: &Metrics,
    threads: usize,
) -> (Payload, AlgoChoice, CacheStatus, DispatchReason) {
    let (pattern, text) = (&req.pattern[..], &req.text[..]);
    let (m, n) = (pattern.len(), text.len());
    if m == 0 || n == 0 {
        let payload = match req.op {
            Operation::Lcs => Payload::Score(0),
            Operation::Windows { w } => {
                let scores = vec![0; n + 1 - w];
                Payload::Windows { scores, best: (0, 0) }
            }
            Operation::Edit { w } => {
                // With an empty pattern every length-w window costs w
                // deletions; with an empty text no window is valid
                // (validation only admits w = None then).
                Payload::Edit { global: m + n, best: w.map(|w| (0, w, m + w)) }
            }
            Operation::EditBounded { k } => {
                let d = m + n;
                Payload::EditBounded { distance: (d <= k).then_some(d), k }
            }
        };
        return (payload, AlgoChoice::BitParallel, CacheStatus::Bypass, DispatchReason::EmptyInput);
    }
    match req.op {
        Operation::Lcs => {
            // A cached kernel answers for free; otherwise only build one
            // when combing was the plan anyway — the bit-parallel path
            // is cheaper than a comb it wouldn't reuse.
            let key = CacheKey::new(IndexKind::Plain, pattern, text);
            if let Some(CachedIndex::Plain(entry)) = cache.get(&key) {
                // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
                metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                slcs_trace::instant!("engine.cache_hit", "kind" => "plain");
                return (
                    Payload::Score(entry.kernel().lcs()),
                    AlgoChoice::CachedKernel,
                    CacheStatus::Hit,
                    DispatchReason::CacheHit,
                );
            }
            let decision = decide(&req.op, pattern, text, threads);
            match decision.algo {
                AlgoChoice::BitParallel => (
                    Payload::Score(bit_lcs_alphabet(pattern, text)),
                    AlgoChoice::BitParallel,
                    CacheStatus::Bypass,
                    decision.reason,
                ),
                _ => {
                    // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
                    metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                    let (kernel, algo) = comb(pattern, text, metrics, threads);
                    let score = kernel.lcs();
                    let evicted =
                        cache.insert(key, CachedIndex::Plain(Arc::new(PlainEntry::new(kernel))));
                    // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
                    metrics.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
                    let reason = match algo {
                        AlgoChoice::GridHybridCombing { .. } => DispatchReason::GridParallel,
                        _ => DispatchReason::GridSequential,
                    };
                    (Payload::Score(score), algo, CacheStatus::Miss, reason)
                }
            }
        }
        Operation::Windows { w } => {
            let (entry, algo, status) = plain_entry(pattern, text, cache, metrics, threads);
            let scores = entry.scores().windows_linear(w);
            let best = best_window(&scores);
            let miss = match algo {
                AlgoChoice::GridHybridCombing { .. } => DispatchReason::GridParallel,
                _ => DispatchReason::GridSequential,
            };
            (Payload::Windows { scores, best }, algo, status, entry_reason(status, miss))
        }
        Operation::Edit { w: Some(w) } => {
            let (entry, algo, status) = edit_entry(pattern, text, cache, metrics);
            let global = entry.global();
            let best = Some(entry.best_window(w));
            let reason = entry_reason(status, DispatchReason::EditWindowed);
            (Payload::Edit { global, best }, algo, status, reason)
        }
        Operation::Edit { w: None } => {
            // A cached index answers for free even when the plan would
            // be osed; otherwise similarity decides between the O(d²+n·d/8)
            // BFS (no reusable artifact — the cache is bypassed, not
            // missed) and the full index.
            let key = CacheKey::new(IndexKind::Edit, pattern, text);
            if let Some(CachedIndex::Edit(entry)) = cache.get(&key) {
                // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
                metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                slcs_trace::instant!("engine.cache_hit", "kind" => "edit");
                return (
                    Payload::Edit { global: entry.global(), best: None },
                    AlgoChoice::CachedKernel,
                    CacheStatus::Hit,
                    DispatchReason::CacheHit,
                );
            }
            let decision = decide(&req.op, pattern, text, threads);
            if decision.algo == AlgoChoice::OutputSensitive {
                let global = if threads > 1 {
                    slcs_osed::par_edit_distance(pattern, text)
                } else {
                    slcs_osed::edit_distance(pattern, text)
                };
                return (
                    Payload::Edit { global, best: None },
                    AlgoChoice::OutputSensitive,
                    CacheStatus::Bypass,
                    decision.reason,
                );
            }
            let (entry, algo, status) = edit_entry(pattern, text, cache, metrics);
            let reason = entry_reason(status, decision.reason);
            (Payload::Edit { global: entry.global(), best: None }, algo, status, reason)
        }
        Operation::EditBounded { k } => {
            // A full index left behind by an earlier Edit request knows
            // the exact distance — reuse it rather than re-running the
            // BFS; a fresh request runs the k-capped BFS and never
            // builds (or misses) anything cacheable.
            let key = CacheKey::new(IndexKind::Edit, pattern, text);
            if let Some(CachedIndex::Edit(entry)) = cache.get(&key) {
                // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
                metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                slcs_trace::instant!("engine.cache_hit", "kind" => "edit");
                let global = entry.global();
                return (
                    Payload::EditBounded { distance: (global <= k).then_some(global), k },
                    AlgoChoice::CachedKernel,
                    CacheStatus::Hit,
                    DispatchReason::CacheHit,
                );
            }
            let distance = slcs_osed::edit_distance_bounded(pattern, text, k);
            (
                Payload::EditBounded { distance, k },
                AlgoChoice::OutputSensitive,
                CacheStatus::Bypass,
                DispatchReason::EditBoundedK,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slcs_baselines::{edit_distance, prefix_rowmajor};

    fn req(pattern: &[u8], text: &[u8], op: Operation) -> CompareRequest {
        CompareRequest::new(pattern, text, op)
    }

    #[test]
    fn choose_prefers_bitparallel_for_small_alphabet_scores() {
        assert_eq!(choose(&Operation::Lcs, b"acgt", b"tgca", 4), AlgoChoice::BitParallel);
        // Window queries always need a kernel.
        assert!(matches!(
            choose(&Operation::Windows { w: 2 }, b"acgt", b"tgca", 1),
            AlgoChoice::IterativeCombing
        ));
        assert_eq!(choose(&Operation::Edit { w: None }, b"ab", b"ba", 1), AlgoChoice::EditIndex);
    }

    #[test]
    fn combing_goes_parallel_only_on_large_grids_with_threads() {
        assert_eq!(combing_choice(100, 100, 8), AlgoChoice::IterativeCombing);
        assert_eq!(combing_choice(1000, 1000, 1), AlgoChoice::IterativeCombing);
        assert_eq!(combing_choice(1000, 1000, 8), AlgoChoice::GridHybridCombing { tasks: 8 });
    }

    #[test]
    fn execute_matches_reference_scores() {
        let cache = KernelCache::new(16);
        let metrics = Metrics::default();
        let (a, b) = (&b"bacaabca"[..], &b"abacabcab"[..]);
        let (payload, _, status) = execute(&req(a, b, Operation::Lcs), &cache, &metrics, 1);
        assert_eq!(payload, Payload::Score(prefix_rowmajor(a, b)));
        assert_eq!(status, CacheStatus::Bypass);
        let (payload, _, _) = execute(&req(a, b, Operation::Edit { w: None }), &cache, &metrics, 1);
        assert_eq!(payload, Payload::Edit { global: edit_distance(a, b), best: None });
    }

    #[test]
    fn window_scan_agrees_with_direct_lcs_per_window() {
        let cache = KernelCache::new(16);
        let metrics = Metrics::default();
        let (a, b) = (&b"abcba"[..], &b"babcbabcab"[..]);
        let w = 5;
        let (payload, _, status) =
            execute(&req(a, b, Operation::Windows { w }), &cache, &metrics, 1);
        let Payload::Windows { scores, best } = payload else { panic!("wrong payload") };
        assert_eq!(status, CacheStatus::Miss);
        for (i, &s) in scores.iter().enumerate() {
            assert_eq!(s, prefix_rowmajor(a, &b[i..i + w]), "window {i}");
        }
        assert_eq!(best.1, *scores.iter().max().unwrap());
        // Second identical request is a hit and bit-identical.
        let (payload2, algo2, status2) =
            execute(&req(a, b, Operation::Windows { w }), &cache, &metrics, 1);
        assert_eq!(status2, CacheStatus::Hit);
        assert_eq!(algo2, AlgoChoice::CachedKernel);
        assert_eq!(payload2, Payload::Windows { scores, best });
    }

    #[test]
    fn lcs_after_windows_reuses_the_cached_kernel() {
        let cache = KernelCache::new(16);
        let metrics = Metrics::default();
        let (a, b) = (&b"abcba"[..], &b"babcbabcab"[..]);
        execute(&req(a, b, Operation::Windows { w: 3 }), &cache, &metrics, 1);
        let (payload, algo, status) = execute(&req(a, b, Operation::Lcs), &cache, &metrics, 1);
        assert_eq!(status, CacheStatus::Hit);
        assert_eq!(algo, AlgoChoice::CachedKernel);
        assert_eq!(payload, Payload::Score(prefix_rowmajor(a, b)));
    }

    #[test]
    fn empty_inputs_are_served_directly() {
        let cache = KernelCache::new(4);
        let metrics = Metrics::default();
        let (payload, _, _) = execute(&req(b"", b"abc", Operation::Lcs), &cache, &metrics, 1);
        assert_eq!(payload, Payload::Score(0));
        let (payload, _, _) =
            execute(&req(b"", b"abc", Operation::Windows { w: 2 }), &cache, &metrics, 1);
        assert_eq!(payload, Payload::Windows { scores: vec![0, 0], best: (0, 0) });
        let (payload, _, _) =
            execute(&req(b"xy", b"", Operation::Edit { w: None }), &cache, &metrics, 1);
        assert_eq!(payload, Payload::Edit { global: 2, best: None });
        let (payload, _, _) =
            execute(&req(b"xy", b"", Operation::EditBounded { k: 1 }), &cache, &metrics, 1);
        assert_eq!(payload, Payload::EditBounded { distance: None, k: 1 });
        let (payload, _, _) =
            execute(&req(b"xy", b"", Operation::EditBounded { k: 2 }), &cache, &metrics, 1);
        assert_eq!(payload, Payload::EditBounded { distance: Some(2), k: 2 });
        assert!(cache.is_empty());
    }

    type Pair = (Vec<u8>, Vec<u8>);

    /// A seeded ≥ OSED_MIN_LEN pair at ~99% similarity, plus an
    /// unrelated pair of the same lengths.
    fn probe_pairs() -> (Pair, Pair) {
        let mut rng = slcs_datagen::seeded_rng(71);
        let similar = slcs_datagen::similar_pair(&mut rng, 2_048, 26, 0.01);
        let unrelated = (
            slcs_datagen::uniform_string(&mut rng, 2_048, 26),
            slcs_datagen::uniform_string(&mut rng, 2_048, 26),
        );
        (similar, unrelated)
    }

    #[test]
    fn similarity_probe_separates_near_identical_from_unrelated() {
        let ((a, b), (x, y)) = probe_pairs();
        assert!(similar_inputs(&a, &b));
        assert!(similar_inputs(&b, &a), "probe should be usable in either orientation");
        assert!(!similar_inputs(&x, &y));
        // Too short to probe, even when identical.
        assert!(!similar_inputs(b"abc", b"abc"));
        // A 2x length gap is grid territory regardless of content.
        let half = a[..a.len() / 2].to_vec();
        assert!(!similar_inputs(&a, &half));
    }

    #[test]
    fn decide_routes_similar_global_edits_to_osed() {
        let ((a, b), (x, y)) = probe_pairs();
        let op = Operation::Edit { w: None };
        assert_eq!(
            decide(&op, &a, &b, 1),
            DispatchDecision {
                algo: AlgoChoice::OutputSensitive,
                reason: DispatchReason::EditSimilar
            }
        );
        assert_eq!(decide(&op, &x, &y, 1).reason, DispatchReason::EditDissimilar);
        // Windowed edits always need the index; bounded edits always
        // take the capped BFS.
        assert_eq!(decide(&Operation::Edit { w: Some(9) }, &a, &b, 1).algo, AlgoChoice::EditIndex);
        assert_eq!(
            decide(&Operation::EditBounded { k: 3 }, &x, &y, 1).algo,
            AlgoChoice::OutputSensitive
        );
    }

    #[test]
    fn osed_path_matches_the_index_and_bypasses_the_cache() {
        let cache = KernelCache::new(16);
        let metrics = Metrics::default();
        let ((a, b), _) = probe_pairs();
        let expected = edit_distance(&a, &b);
        for threads in [1, 4] {
            let (payload, algo, status) =
                execute(&req(&a, &b, Operation::Edit { w: None }), &cache, &metrics, threads);
            assert_eq!(payload, Payload::Edit { global: expected, best: None });
            assert_eq!(algo, AlgoChoice::OutputSensitive);
            assert_eq!(status, CacheStatus::Bypass);
        }
        assert!(cache.is_empty(), "the BFS leaves no artifact to cache");
    }

    #[test]
    fn bounded_edit_caps_the_bfs_and_reuses_a_cached_index() {
        let cache = KernelCache::new(16);
        let metrics = Metrics::default();
        let (_, (x, y)) = probe_pairs();
        let d = edit_distance(&x, &y);
        let (payload, algo, status) =
            execute(&req(&x, &y, Operation::EditBounded { k: d }), &cache, &metrics, 1);
        assert_eq!(payload, Payload::EditBounded { distance: Some(d), k: d });
        assert_eq!(algo, AlgoChoice::OutputSensitive);
        assert_eq!(status, CacheStatus::Bypass);
        let (payload, _, _) =
            execute(&req(&x, &y, Operation::EditBounded { k: d - 1 }), &cache, &metrics, 1);
        assert_eq!(payload, Payload::EditBounded { distance: None, k: d - 1 });
        // A full Edit request builds the index; the next bounded query
        // answers from it instead of re-running the BFS.
        execute(&req(&x, &y, Operation::Edit { w: None }), &cache, &metrics, 1);
        let (payload, algo, status) =
            execute(&req(&x, &y, Operation::EditBounded { k: d }), &cache, &metrics, 1);
        assert_eq!(payload, Payload::EditBounded { distance: Some(d), k: d });
        assert_eq!(algo, AlgoChoice::CachedKernel);
        assert_eq!(status, CacheStatus::Hit);
    }

    #[test]
    fn every_execute_lands_in_exactly_one_dispatch_bucket() {
        let cache = KernelCache::new(16);
        let metrics = Metrics::default();
        let ((a, b), _) = probe_pairs();
        execute(&req(b"acgt", b"tgca", Operation::Lcs), &cache, &metrics, 1);
        execute(&req(&a, &b, Operation::Edit { w: None }), &cache, &metrics, 1);
        execute(&req(&a, &b, Operation::EditBounded { k: 64 }), &cache, &metrics, 1);
        execute(&req(b"", b"abc", Operation::Lcs), &cache, &metrics, 1);
        let snap = metrics.snapshot(0);
        let total: u64 = snap.dispatch.iter().sum();
        assert_eq!(total, 4);
        let count = |r: DispatchReason| snap.dispatch[r.index()];
        assert_eq!(count(DispatchReason::SmallAlphabet), 1);
        assert_eq!(count(DispatchReason::EditSimilar), 1);
        assert_eq!(count(DispatchReason::EditBoundedK), 1);
        assert_eq!(count(DispatchReason::EmptyInput), 1);
    }
}
