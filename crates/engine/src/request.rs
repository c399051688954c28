//! Request and response types of the comparison engine.

use std::sync::Arc;

/// What to compute over a `(pattern, text)` pair.
///
/// `pattern` is the paper's string `a`, `text` its string `b`; window
/// operations slide over the text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operation {
    /// Global LCS score `LCS(a, b)`.
    Lcs,
    /// Semi-local window scan: `LCS(a, b[i..i+w))` for every window
    /// start `i`, plus the best window.
    Windows { w: usize },
    /// Global edit distance, plus (optionally) the closest window of
    /// length `w` in the text.
    Edit { w: Option<usize> },
    /// Thresholded edit distance: the exact distance if it is `≤ k`,
    /// else just "greater than `k`". Always served by the
    /// output-sensitive BFS, which exits after `k + 1` rounds instead
    /// of filling a grid.
    EditBounded { k: usize },
}

impl Operation {
    /// Request-class vocabulary, in [`Self::class_index`] order. Each
    /// operation is one "request class" for SLOs, rolling-window
    /// quantiles and the flight recorder — different classes have
    /// wildly different latency envelopes, so they are tracked apart.
    pub const CLASS_TOKENS: [&'static str; 4] = ["lcs", "windows", "edit", "edit_bounded"];

    /// Number of request classes (length of [`Self::CLASS_TOKENS`]).
    pub const CLASS_COUNT: usize = Self::CLASS_TOKENS.len();

    /// Stable lowercase wire/trace token for this operation.
    pub fn token(&self) -> &'static str {
        match self {
            Operation::Lcs => "lcs",
            Operation::Windows { .. } => "windows",
            Operation::Edit { .. } => "edit",
            Operation::EditBounded { .. } => "edit_bounded",
        }
    }

    /// Position of this operation's class in [`Self::CLASS_TOKENS`].
    pub fn class_index(&self) -> usize {
        match self {
            Operation::Lcs => 0,
            Operation::Windows { .. } => 1,
            Operation::Edit { .. } => 2,
            Operation::EditBounded { .. } => 3,
        }
    }
}

/// A unit of work submitted to the engine.
///
/// Inputs are `Arc<[u8]>` so a client can submit the same pattern or
/// text many times (or to many operations) without copying; the engine
/// also keys its kernel cache and batch coalescing off these bytes.
#[derive(Clone, Debug)]
pub struct CompareRequest {
    pub pattern: Arc<[u8]>,
    pub text: Arc<[u8]>,
    pub op: Operation,
}

impl CompareRequest {
    pub fn new(pattern: impl Into<Arc<[u8]>>, text: impl Into<Arc<[u8]>>, op: Operation) -> Self {
        CompareRequest { pattern: pattern.into(), text: text.into(), op }
    }

    /// Checks operation bounds against the input lengths; the engine
    /// rejects invalid requests at submission so worker threads never
    /// hit an algorithm's assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.text.len();
        match self.op {
            Operation::Lcs => Ok(()),
            Operation::Windows { w } => {
                if w == 0 {
                    Err("window length must be positive".into())
                } else if w > n {
                    Err(format!("window {w} longer than text ({n})"))
                } else {
                    Ok(())
                }
            }
            Operation::Edit { w } => match w {
                Some(0) => Err("window length must be positive".into()),
                Some(w) if w > n => Err(format!("window {w} longer than text ({n})")),
                _ => Ok(()),
            },
            // Any bound is meaningful: k = 0 asks "are these equal?".
            Operation::EditBounded { .. } => Ok(()),
        }
    }
}

/// Which algorithm served a request (observable for tests and ops).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Carry-free bit-parallel LCS (score only, no kernel built).
    BitParallel,
    /// Sequential iterative combing → semi-local kernel.
    IterativeCombing,
    /// Grid-parallel combing under this thread budget (historically
    /// Listing 7's hybrid). `slcs_semilocal::auto_plan` resolves it per
    /// request to the work-stealing sweep or, when the grid cannot form
    /// a team, the sequential sweep; the `tasks` field and the `"grid"`
    /// token name the route, not one fixed kernel.
    GridHybridCombing { tasks: usize },
    /// Blown-up combing behind the edit-distance index.
    EditIndex,
    /// Output-sensitive Landau–Vishkin BFS (`slcs-osed`): O(d² + n·d/8),
    /// chosen for high-similarity and thresholded edit requests.
    OutputSensitive,
    /// Served straight from the kernel cache — no combing at all.
    CachedKernel,
}

impl AlgoChoice {
    /// Stable lowercase wire/trace token (the server's `<algo>` field
    /// and the `algo` span field share this vocabulary).
    pub fn token(&self) -> &'static str {
        match self {
            AlgoChoice::BitParallel => "bitpar",
            AlgoChoice::IterativeCombing => "comb",
            AlgoChoice::GridHybridCombing { .. } => "grid",
            AlgoChoice::EditIndex => "edit",
            AlgoChoice::OutputSensitive => "osed",
            AlgoChoice::CachedKernel => "cached",
        }
    }
}

/// Why the dispatcher picked the algorithm it picked — one stable
/// label per decision branch, so osed routing (and every other path)
/// is observable in STATS/METRICS as `slcs_dispatch_total{algo,reason}`
/// and in the `engine.dispatch` trace instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchReason {
    /// Score-only request on an alphabet the bit-parallel path covers.
    SmallAlphabet,
    /// Kernel-building grid served by sequential combing.
    GridSequential,
    /// Kernel-building grid large enough for the parallel comb.
    GridParallel,
    /// Windowed edit request: needs the full edit-distance index.
    EditWindowed,
    /// Global edit request whose similarity probe says "nearly equal" —
    /// routed to the output-sensitive BFS.
    EditSimilar,
    /// Global edit request that failed the similarity probe (or is too
    /// short to probe) — full edit-distance index.
    EditDissimilar,
    /// Thresholded edit request: the d-capped BFS is built for it.
    EditBoundedK,
    /// Degenerate empty input answered directly.
    EmptyInput,
    /// A cached index overrode the plan.
    CacheHit,
}

impl DispatchReason {
    /// Every reason, in counter-index order (see [`Self::index`]).
    pub const ALL: [DispatchReason; 9] = [
        DispatchReason::SmallAlphabet,
        DispatchReason::GridSequential,
        DispatchReason::GridParallel,
        DispatchReason::EditWindowed,
        DispatchReason::EditSimilar,
        DispatchReason::EditDissimilar,
        DispatchReason::EditBoundedK,
        DispatchReason::EmptyInput,
        DispatchReason::CacheHit,
    ];

    /// Number of reasons (length of [`Self::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Position of this reason in [`Self::ALL`] — the index of its
    /// metrics counter.
    pub fn index(&self) -> usize {
        match self {
            DispatchReason::SmallAlphabet => 0,
            DispatchReason::GridSequential => 1,
            DispatchReason::GridParallel => 2,
            DispatchReason::EditWindowed => 3,
            DispatchReason::EditSimilar => 4,
            DispatchReason::EditDissimilar => 5,
            DispatchReason::EditBoundedK => 6,
            DispatchReason::EmptyInput => 7,
            DispatchReason::CacheHit => 8,
        }
    }

    /// Stable lowercase label — the `reason` value of the
    /// `slcs_dispatch_total` series and the STATS `dispatch=` field.
    pub fn token(&self) -> &'static str {
        match self {
            DispatchReason::SmallAlphabet => "small_alphabet",
            DispatchReason::GridSequential => "grid_seq",
            DispatchReason::GridParallel => "grid_par",
            DispatchReason::EditWindowed => "edit_windowed",
            DispatchReason::EditSimilar => "edit_similar",
            DispatchReason::EditDissimilar => "edit_dissimilar",
            DispatchReason::EditBoundedK => "edit_bounded",
            DispatchReason::EmptyInput => "empty_input",
            DispatchReason::CacheHit => "cache_hit",
        }
    }

    /// The algorithm token this reason routes to (the `algo` label of
    /// the `slcs_dispatch_total` series; same vocabulary as
    /// [`AlgoChoice::token`]).
    pub fn algo_token(&self) -> &'static str {
        match self {
            DispatchReason::SmallAlphabet | DispatchReason::EmptyInput => "bitpar",
            DispatchReason::GridSequential => "comb",
            DispatchReason::GridParallel => "grid",
            DispatchReason::EditWindowed | DispatchReason::EditDissimilar => "edit",
            DispatchReason::EditSimilar | DispatchReason::EditBoundedK => "osed",
            DispatchReason::CacheHit => "cached",
        }
    }
}

/// The dispatcher's pure routing verdict: which algorithm, and why.
/// Produced by [`decide`](crate::dispatch::decide) before the cache is
/// consulted (a hit then overrides both fields).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchDecision {
    pub algo: AlgoChoice,
    pub reason: DispatchReason,
}

/// Whether the kernel cache could help this request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Answered from a cached kernel index.
    Hit,
    /// Kernel computed (and inserted) by this request.
    Miss,
    /// The request never consulted the cache (score-only fast path).
    Bypass,
}

impl CacheStatus {
    /// Stable lowercase wire/trace token.
    pub fn token(&self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// Operation-specific result data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// `Operation::Lcs`.
    Score(usize),
    /// `Operation::Windows`: `scores[i] = LCS(a, b[i..i+w))`, plus the
    /// `(start, score)` of the best window (smallest start on ties).
    Windows { scores: Vec<usize>, best: (usize, usize) },
    /// `Operation::Edit`: global distance plus the optional
    /// `(start, end, distance)` of the closest window.
    Edit { global: usize, best: Option<(usize, usize, usize)> },
    /// `Operation::EditBounded`: the exact distance when it is `≤ k`,
    /// `None` when the BFS proved it exceeds the bound.
    EditBounded { distance: Option<usize>, k: usize },
}

/// A served request.
#[derive(Clone, Debug)]
pub struct CompareOutcome {
    pub payload: Payload,
    pub algo: AlgoChoice,
    pub cache: CacheStatus,
    /// Service time (compute only, excluding queue wait), in microseconds.
    pub service_micros: u64,
    /// Time spent queued before a worker picked the request up, in
    /// microseconds. Together with `service_micros` this attributes the
    /// full accept-to-answer latency per request: end-to-end ≈ wait +
    /// service, so a caller can tell backpressure from slow compute.
    pub wait_micros: u64,
}

/// Terminal failure of a submitted request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The engine is shutting down; the request was not served.
    ShuttingDown,
    /// The computation panicked; the worker survived and the panic
    /// message is surfaced to the one caller it affected.
    Internal(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::Internal(msg) => write!(f, "internal engine error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_bounds_windows() {
        let req = |op| CompareRequest::new(&b"abc"[..], &b"abcdef"[..], op);
        assert!(req(Operation::Lcs).validate().is_ok());
        assert!(req(Operation::Windows { w: 6 }).validate().is_ok());
        assert!(req(Operation::Windows { w: 0 }).validate().is_err());
        assert!(req(Operation::Windows { w: 7 }).validate().is_err());
        assert!(req(Operation::Edit { w: None }).validate().is_ok());
        assert!(req(Operation::Edit { w: Some(7) }).validate().is_err());
    }
}
