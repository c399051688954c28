//! Engine observability: atomic counters, gauges and latency histograms.
//!
//! Everything here is lock-free (`Ordering::Relaxed` — the counters are
//! monotone statistics, not synchronization), so workers and submitters
//! can record events without contending, and [`Metrics::snapshot`] can be
//! read at any time from any thread.
//!
//! # Counters vs gauges
//!
//! Two different kinds of number live in a [`StatsSnapshot`], and they
//! have different contracts:
//!
//! * **Counters** (`submitted`, `cache_hits`, the histogram buckets, …)
//!   are monotone: atomics bumped at the event site, never decremented,
//!   so a relaxed racing read is merely *slightly stale* and two
//!   snapshots can be subtracted to get a rate. `max_queue_depth` is a
//!   monotone high-water mark with the same properties.
//! * **Gauges** (`queue_depth`, `par_grain`) are *instantaneous reads of
//!   authoritative state*, captured at snapshot time. Maintaining a
//!   gauge as its own atomic alongside the real state is a trap: the
//!   submit/pop sites race and the shadow copy goes stale (an earlier
//!   revision kept such a scratch `queue_depth` atomic here and `STATS`
//!   could report a depth the queue never had). The rule: a gauge is
//!   computed from its source of truth when the snapshot is taken —
//!   [`Metrics::snapshot`] therefore *takes* the live depth as an
//!   argument rather than storing one.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::request::DispatchReason;

const BUCKETS: usize = 32;

/// A log₂-bucketed latency histogram over microseconds.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` µs (bucket 0 also takes
/// sub-microsecond samples); the last bucket absorbs the tail. Fixed
/// memory, lock-free recording, quantiles by bucket interpolation.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Running total of every recorded sample (µs) — the `_sum` series
    /// of the Prometheus exposition, so scrapers can compute true mean
    /// latency instead of a bucket-interpolated one.
    sum: AtomicU64,
}

impl Histogram {
    pub fn record(&self, micros: u64) {
        let idx = (64 - micros.leading_zeros() as usize).min(BUCKETS).saturating_sub(1);
        // ORDERING: Relaxed — independent monotonic bucket counter.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — independent monotonic sum counter.
        self.sum.fetch_add(micros, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(&self.buckets) {
            // ORDERING: Relaxed — the snapshot tolerates slightly-torn bucket views.
            *slot = b.load(Ordering::Relaxed);
        }
        // ORDERING: Relaxed — see above; sum and buckets may be one sample apart.
        HistogramSnapshot { buckets, sum: self.sum.load(Ordering::Relaxed) }
    }

    /// Zeroes every bucket and the sum. Used by the rolling-window ring
    /// when a slice is recycled; a reader racing the reset sees a
    /// partially-cleared histogram, which windowed telemetry tolerates
    /// (one slice of one window, momentarily under-counted).
    pub fn clear(&self) {
        for b in &self.buckets {
            // ORDERING: Relaxed — telemetry reset; see the doc comment.
            b.store(0, Ordering::Relaxed);
        }
        // ORDERING: Relaxed — telemetry reset; see the doc comment.
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded samples (µs).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Number of buckets (also the length of [`Self::buckets`]).
    pub const LEN: usize = BUCKETS;

    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exclusive upper bound (µs) of bucket `i`, or `None` for the last
    /// bucket, which absorbs the tail (`+Inf` in exposition formats).
    /// Bucket 0 also takes sub-microsecond samples, so its effective
    /// range is `[0, 2)`.
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        (i + 1 < BUCKETS).then(|| 1u64 << (i + 1))
    }

    /// Accumulates `other` into `self`, bucket by bucket — for
    /// aggregating histograms across engines or scrape intervals
    /// (log₂ bucketing makes merge exact, unlike quantile averaging).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// Upper bound (µs) of the bucket holding quantile `q` in `[0, 1]`.
    /// Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// All engine counters and histograms, shared by workers and submitters.
#[derive(Default)]
pub struct Metrics {
    /// Requests offered to `submit` (accepted or not).
    pub submitted: AtomicU64,
    /// Requests accepted into the queue.
    pub accepted: AtomicU64,
    /// Requests bounced with [`Submit::QueueFull`](crate::Submit::QueueFull).
    pub rejected_queue_full: AtomicU64,
    /// Requests bounced at validation.
    pub rejected_invalid: AtomicU64,
    /// Requests fully served (ticket fulfilled with a result).
    pub completed: AtomicU64,
    /// Requests answered from a cached kernel index.
    pub cache_hits: AtomicU64,
    /// Requests that had to build (and insert) a kernel.
    pub cache_misses: AtomicU64,
    /// Cache entries evicted to make room.
    pub cache_evictions: AtomicU64,
    /// Requests served as part of a coalesced batch of size > 1.
    pub coalesced: AtomicU64,
    /// Batches popped by workers (1 batch may serve many requests).
    pub batches: AtomicU64,
    /// High-water mark of observed queue depths (fed by `note_depth`).
    pub max_queue_depth: AtomicU64,
    /// Dispatch decisions, one counter per [`DispatchReason`] (indexed
    /// by [`DispatchReason::index`]) — the `slcs_dispatch_total` series.
    pub dispatch: [AtomicU64; DispatchReason::COUNT],
    /// Routes grid-parallel kernel builds ran, one counter per
    /// [`SCHED_MODE_TOKENS`] label — the `slcs_sched_mode_total` series.
    /// A grid too small to form a team counts under `seq`.
    pub sched_modes: [AtomicU64; SCHED_MODE_TOKENS.len()],
    /// Protocol/request errors, one counter per [`ErrorKind`] (indexed
    /// by [`ErrorKind::index`]) — the `slcs_engine_errors_total` series.
    pub errors: [AtomicU64; ErrorKind::COUNT],
    /// Time from acceptance to a worker picking the request up.
    pub wait_micros: Histogram,
    /// Time a worker spent computing the answer.
    pub service_micros: Histogram,
}

/// Protocol/request error vocabulary of `slcs_engine_errors_total{kind}`
/// and the STATS `errors=` field. These are the failure paths that
/// previously left no metric trail: a malformed protocol line, an
/// oversize input bounced before parsing, a queue-full rejection
/// surfaced to a client, and an internal (panicked) request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unparseable or invalid protocol line (bad command, bad args).
    Malformed,
    /// Input line larger than the server's size cap.
    Oversize,
    /// Request bounced with BUSY because the queue was full.
    QueueFull,
    /// Request failed inside the engine (worker caught a panic).
    Internal,
}

impl ErrorKind {
    /// Every kind, in counter-index order (see [`Self::index`]).
    pub const ALL: [ErrorKind; 4] =
        [ErrorKind::Malformed, ErrorKind::Oversize, ErrorKind::QueueFull, ErrorKind::Internal];

    /// Number of kinds (length of [`Self::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Position of this kind in [`Self::ALL`] — the index of its counter.
    pub fn index(&self) -> usize {
        match self {
            ErrorKind::Malformed => 0,
            ErrorKind::Oversize => 1,
            ErrorKind::QueueFull => 2,
            ErrorKind::Internal => 3,
        }
    }

    /// Stable lowercase label — the `kind` value of the
    /// `slcs_engine_errors_total` series and the STATS `errors=` field.
    pub fn token(&self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::Oversize => "oversize",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Label set of the `slcs_sched_mode_total` series, index-aligned with
/// [`Metrics::sched_modes`] / [`StatsSnapshot::sched_modes`]. Matches
/// [`slcs_semilocal::Scheduling::token`] values.
pub const SCHED_MODE_TOKENS: [&str; 2] = ["seq", "work_steal"];

impl Metrics {
    pub fn note_depth(&self, depth: u64) {
        // ORDERING: Relaxed — a high-water mark; racing maxima still converge.
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records which branch the dispatcher took for one request.
    pub fn note_dispatch(&self, reason: DispatchReason) {
        // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
        self.dispatch[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one protocol/request error.
    pub fn note_error(&self, kind: ErrorKind) {
        // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
        self.errors[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records the route a grid-parallel kernel build ran.
    pub fn note_sched_mode(&self, mode: slcs_semilocal::Scheduling) {
        if let Some(i) = SCHED_MODE_TOKENS.iter().position(|t| *t == mode.token()) {
            // ORDERING: Relaxed — independent monotonic metrics counter; nothing is published through it.
            self.sched_modes[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies every counter into a [`StatsSnapshot`]. `queue_depth` is a
    /// gauge, not a counter (see the module docs): the caller passes the
    /// live depth read from the queue itself, so `STATS`/`METRICS` can
    /// never report a stale shadow value.
    pub fn snapshot(&self, queue_depth: u64) -> StatsSnapshot {
        StatsSnapshot {
            // ORDERING: Relaxed (whole literal) — counters are independent; the
            // snapshot does not promise a consistent cross-counter cut.
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            dispatch: std::array::from_fn(|i| self.dispatch[i].load(Ordering::Relaxed)),
            sched_modes: std::array::from_fn(|i| self.sched_modes[i].load(Ordering::Relaxed)),
            errors: std::array::from_fn(|i| self.errors[i].load(Ordering::Relaxed)),
            queue_depth,
            windows: crate::windows::WindowsSnapshot::default(),
            wait_micros: self.wait_micros.snapshot(),
            service_micros: self.service_micros.snapshot(),
            par_grain: slcs_semilocal::PAR_GRAIN,
            simd: slcs_semilocal::simd_support(),
            alloc: slcs_alloc::stats(),
            alloc_installed: slcs_alloc::installed(),
        }
    }
}

/// A point-in-time copy of every engine statistic.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected_queue_full: u64,
    pub rejected_invalid: u64,
    pub completed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub coalesced: u64,
    pub batches: u64,
    /// Dispatch-decision counts, indexed by [`DispatchReason::index`].
    pub dispatch: [u64; DispatchReason::COUNT],
    /// Grid-parallel route counts, index-aligned with
    /// [`SCHED_MODE_TOKENS`].
    pub sched_modes: [u64; SCHED_MODE_TOKENS.len()],
    /// Protocol/request error counts, indexed by [`ErrorKind::index`].
    pub errors: [u64; ErrorKind::COUNT],
    /// Rolling-window latency quantile data per request class (filled by
    /// [`Engine::stats`](crate::Engine::stats) from the engine's window
    /// ring; empty in a bare [`Metrics::snapshot`]).
    pub windows: crate::windows::WindowsSnapshot,
    /// Gauge: live queue depth at snapshot time (read from the queue
    /// itself, never a shadow atomic — see the module docs).
    pub queue_depth: u64,
    pub max_queue_depth: u64,
    pub wait_micros: HistogramSnapshot,
    pub service_micros: HistogramSnapshot,
    /// Anti-diagonal chunk grain (cells per parallel task,
    /// `slcs_semilocal::PAR_GRAIN`) — configuration, not a counter, but
    /// surfaced here so STATS readers can correlate latency shifts with
    /// scheduling granularity.
    pub par_grain: usize,
    /// Gauge-at-snapshot: the SIMD capability the branchless kernels
    /// compile/dispatch for on this host (`slcs_semilocal::simd_support`)
    /// — configuration like `par_grain`, surfaced so ops can tell an ISA
    /// downgrade from a genuine perf regression.
    pub simd: &'static str,
    /// Process-wide allocator telemetry from `slcs-alloc` (all zeros
    /// unless the binary installed [`slcs_alloc::InstrumentedAlloc`]
    /// as its global allocator).
    pub alloc: slcs_alloc::AllocStats,
    /// Whether the instrumented allocator is actually installed —
    /// distinguishes "no allocations counted" from "not measuring".
    pub alloc_installed: bool,
}

impl StatsSnapshot {
    /// Renders every counter, gauge and histogram as Prometheus text
    /// exposition (`# TYPE`-annotated, cumulative `le` buckets with
    /// explicit bounds). The `METRICS` server command serves this,
    /// appending executor/trace sections and the `# EOF` terminator.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        for (name, value) in [
            ("slcs_requests_submitted", self.submitted),
            ("slcs_requests_accepted", self.accepted),
            ("slcs_requests_rejected_queue_full", self.rejected_queue_full),
            ("slcs_requests_rejected_invalid", self.rejected_invalid),
            ("slcs_requests_completed", self.completed),
            ("slcs_cache_hits", self.cache_hits),
            ("slcs_cache_misses", self.cache_misses),
            ("slcs_cache_evictions", self.cache_evictions),
            ("slcs_requests_coalesced", self.coalesced),
            ("slcs_batches_popped", self.batches),
        ] {
            let _ = writeln!(out, "# TYPE {name}_total counter");
            let _ = writeln!(out, "{name}_total {value}");
        }
        // One labelled series per dispatch branch; every label pair is
        // emitted even at zero so scrapers see a stable set.
        let _ = writeln!(out, "# TYPE slcs_dispatch_total counter");
        for reason in DispatchReason::ALL {
            let _ = writeln!(
                out,
                "slcs_dispatch_total{{algo=\"{}\",reason=\"{}\"}} {}",
                reason.algo_token(),
                reason.token(),
                self.dispatch[reason.index()],
            );
        }
        // Scheduling modes actually run, stable-zero like the dispatch
        // series above.
        let _ = writeln!(out, "# TYPE slcs_sched_mode_total counter");
        for (token, count) in SCHED_MODE_TOKENS.iter().zip(&self.sched_modes) {
            let _ = writeln!(out, "slcs_sched_mode_total{{mode=\"{token}\"}} {count}");
        }
        // Protocol/request errors, stable-zero per kind.
        let _ = writeln!(out, "# TYPE slcs_engine_errors_total counter");
        for kind in ErrorKind::ALL {
            let _ = writeln!(
                out,
                "slcs_engine_errors_total{{kind=\"{}\"}} {}",
                kind.token(),
                self.errors[kind.index()],
            );
        }
        // Rolling-window latency quantiles per request class.
        self.windows.write_prometheus(&mut out);
        for (name, value) in [
            ("slcs_queue_depth", self.queue_depth),
            ("slcs_queue_depth_max", self.max_queue_depth),
            ("slcs_par_grain", self.par_grain as u64),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        // Info-style gauge: which branchless-kernel ISA this host runs.
        let _ = writeln!(out, "# TYPE slcs_simd_kernel gauge");
        let _ = writeln!(out, "slcs_simd_kernel{{isa=\"{}\"}} 1", self.simd);
        write_prometheus_histogram(&mut out, "slcs_wait_micros", &self.wait_micros);
        write_prometheus_histogram(&mut out, "slcs_service_micros", &self.service_micros);
        self.write_alloc_section(&mut out);
        out
    }

    /// The `slcs_alloc_*` section: allocator counters, live/peak
    /// gauges, and the power-of-two size-class histogram. Emitted even
    /// when the instrumented allocator is not installed (all zeros,
    /// `slcs_alloc_installed 0`) so scrape configs stay stable.
    fn write_alloc_section(&self, out: &mut String) {
        for (name, value) in [
            ("slcs_alloc_allocations", self.alloc.allocs),
            ("slcs_alloc_frees", self.alloc.frees),
            ("slcs_alloc_allocated_bytes", self.alloc.alloc_bytes),
            ("slcs_alloc_freed_bytes", self.alloc.freed_bytes),
        ] {
            let _ = writeln!(out, "# TYPE {name}_total counter");
            let _ = writeln!(out, "{name}_total {value}");
        }
        for (name, value) in [
            ("slcs_alloc_installed", u64::from(self.alloc_installed)),
            ("slcs_alloc_live_bytes", self.alloc.live_bytes),
            ("slcs_alloc_peak_live_bytes", self.alloc.peak_live_bytes),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        let name = "slcs_alloc_size_bytes";
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &count) in self.alloc.size_classes.iter().enumerate() {
            cumulative += count;
            match slcs_alloc::AllocStats::class_upper_bound(i) {
                Some(bound) => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        let _ = writeln!(out, "{name}_sum {}", self.alloc.alloc_bytes);
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
}

fn write_prometheus_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, &count) in h.buckets.iter().enumerate() {
        cumulative += count;
        match HistogramSnapshot::bucket_upper_bound(i) {
            Some(bound) => {
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            None => {
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            }
        }
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {cumulative}");
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: submitted={} accepted={} completed={} \
             rejected(queue_full={} invalid={})",
            self.submitted,
            self.accepted,
            self.completed,
            self.rejected_queue_full,
            self.rejected_invalid,
        )?;
        writeln!(
            f,
            "cache:    hits={} misses={} evictions={}",
            self.cache_hits, self.cache_misses, self.cache_evictions
        )?;
        write!(f, "dispatch:")?;
        for reason in DispatchReason::ALL {
            write!(f, " {}={}", reason.token(), self.dispatch[reason.index()])?;
        }
        writeln!(f)?;
        write!(f, "errors:  ")?;
        for kind in ErrorKind::ALL {
            write!(f, " {}={}", kind.token(), self.errors[kind.index()])?;
        }
        writeln!(f)?;
        writeln!(f, "batches:  {} popped, {} requests coalesced", self.batches, self.coalesced)?;
        writeln!(f, "queue:    depth={} max_depth={}", self.queue_depth, self.max_queue_depth)?;
        write!(f, "sched:    par_grain={} simd={}", self.par_grain, self.simd)?;
        for (token, count) in SCHED_MODE_TOKENS.iter().zip(&self.sched_modes) {
            write!(f, " {token}={count}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "memory:   allocs={} frees={} live={}B peak={}B ({})",
            self.alloc.allocs,
            self.alloc.frees,
            self.alloc.live_bytes,
            self.alloc.peak_live_bytes,
            if self.alloc_installed { "instrumented" } else { "not instrumented" },
        )?;
        writeln!(
            f,
            "wait:     p50<={}us p95<={}us p99<={}us (n={})",
            self.wait_micros.quantile(0.50),
            self.wait_micros.quantile(0.95),
            self.wait_micros.quantile(0.99),
            self.wait_micros.count(),
        )?;
        write!(
            f,
            "service:  p50<={}us p95<={}us p99<={}us (n={})",
            self.service_micros.quantile(0.50),
            self.service_micros.quantile(0.95),
            self.service_micros.quantile(0.99),
            self.service_micros.count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(5000);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 2); // in bucket 0 → bound 2^1
        assert!(s.quantile(0.99) >= 4096);
        assert_eq!(HistogramSnapshot { buckets: [0; BUCKETS], sum: 0 }.quantile(0.9), 0);
    }

    #[test]
    fn snapshot_copies_counters_and_takes_live_depth() {
        let m = Metrics::default();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.note_depth(7);
        m.note_depth(4);
        let s = m.snapshot(5);
        assert_eq!(s.submitted, 3);
        assert_eq!(s.max_queue_depth, 7);
        assert_eq!(s.queue_depth, 5, "gauge comes from the caller's live read");
        let text = s.to_string();
        assert!(text.contains("submitted=3"));
        assert!(text.contains("max_depth=7"));
        assert!(text.contains("depth=5"));
    }

    #[test]
    fn histogram_merge_is_bucketwise_sum() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record(1);
        a.record(1024);
        b.record(1);
        b.record(u64::MAX); // tail bucket
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.buckets[0], 2);
        assert_eq!(merged.buckets[10], 1);
        assert_eq!(merged.buckets[BUCKETS - 1], 1);
        assert_eq!(merged.count(), 4);
    }

    #[test]
    fn bucket_bounds_are_powers_of_two_then_inf() {
        assert_eq!(HistogramSnapshot::bucket_upper_bound(0), Some(2));
        assert_eq!(HistogramSnapshot::bucket_upper_bound(10), Some(2048));
        assert_eq!(HistogramSnapshot::bucket_upper_bound(BUCKETS - 2), Some(1 << (BUCKETS - 1)));
        assert_eq!(HistogramSnapshot::bucket_upper_bound(BUCKETS - 1), None);
    }

    #[test]
    fn prometheus_exposition_lists_every_counter_and_bucket() {
        let m = Metrics::default();
        m.submitted.fetch_add(2, Ordering::Relaxed);
        m.wait_micros.record(3);
        m.wait_micros.record(3);
        m.service_micros.record(100);
        let text = m.snapshot(1).to_prometheus();
        for name in [
            "slcs_requests_submitted_total",
            "slcs_requests_accepted_total",
            "slcs_requests_rejected_queue_full_total",
            "slcs_requests_rejected_invalid_total",
            "slcs_requests_completed_total",
            "slcs_cache_hits_total",
            "slcs_cache_misses_total",
            "slcs_cache_evictions_total",
            "slcs_requests_coalesced_total",
            "slcs_batches_popped_total",
            "slcs_queue_depth",
            "slcs_queue_depth_max",
            "slcs_par_grain",
        ] {
            assert!(
                text.contains(&format!("\n{name} ")) || text.starts_with(&format!("{name} ")),
                "missing sample line for {name}:\n{text}"
            );
        }
        // Cumulative le buckets with explicit bounds, ending at +Inf.
        assert!(text.contains("slcs_wait_micros_bucket{le=\"2\"} 0"));
        assert!(text.contains("slcs_wait_micros_bucket{le=\"4\"} 2"));
        assert!(text.contains("slcs_wait_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("slcs_wait_micros_count 2"));
        assert!(text.contains("slcs_wait_micros_sum 6"));
        assert!(text.contains("slcs_service_micros_bucket{le=\"128\"} 1"));
        assert!(text.contains("slcs_service_micros_count 1"));
        assert!(text.contains("slcs_service_micros_sum 100"));
        assert!(text.contains("# TYPE slcs_wait_micros histogram"));
        // The allocator section is always present, installed or not.
        for name in [
            "slcs_alloc_allocations_total",
            "slcs_alloc_frees_total",
            "slcs_alloc_allocated_bytes_total",
            "slcs_alloc_freed_bytes_total",
            "slcs_alloc_installed",
            "slcs_alloc_live_bytes",
            "slcs_alloc_peak_live_bytes",
            "slcs_alloc_size_bytes_sum",
            "slcs_alloc_size_bytes_count",
        ] {
            assert!(text.contains(&format!("\n{name} ")), "missing {name}:\n{text}");
        }
        assert!(text.contains("slcs_alloc_size_bytes_bucket{le=\"+Inf\"}"), "{text}");
    }

    #[test]
    fn dispatch_counters_expose_every_reason_with_stable_labels() {
        let m = Metrics::default();
        m.note_dispatch(DispatchReason::EditSimilar);
        m.note_dispatch(DispatchReason::EditSimilar);
        m.note_dispatch(DispatchReason::SmallAlphabet);
        let s = m.snapshot(0);
        assert_eq!(s.dispatch[DispatchReason::EditSimilar.index()], 2);
        assert_eq!(s.dispatch[DispatchReason::SmallAlphabet.index()], 1);
        assert_eq!(s.dispatch.iter().sum::<u64>(), 3);
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE slcs_dispatch_total counter"));
        assert!(text.contains("slcs_dispatch_total{algo=\"osed\",reason=\"edit_similar\"} 2"));
        assert!(text.contains("slcs_dispatch_total{algo=\"bitpar\",reason=\"small_alphabet\"} 1"));
        // Zero-valued series are still emitted so the label set is stable.
        assert!(text.contains("slcs_dispatch_total{algo=\"cached\",reason=\"cache_hit\"} 0"));
        for reason in DispatchReason::ALL {
            assert!(
                text.contains(&format!("reason=\"{}\"", reason.token())),
                "missing series for {}:\n{text}",
                reason.token()
            );
        }
        let human = s.to_string();
        assert!(human.contains("dispatch:"), "{human}");
        assert!(human.contains("edit_similar=2"), "{human}");
    }

    #[test]
    fn sched_mode_and_simd_series_are_exposed() {
        let m = Metrics::default();
        m.note_sched_mode(slcs_semilocal::Scheduling::WorkSteal);
        m.note_sched_mode(slcs_semilocal::Scheduling::WorkSteal);
        m.note_sched_mode(slcs_semilocal::Scheduling::Seq);
        let s = m.snapshot(0);
        assert_eq!(s.sched_modes.iter().sum::<u64>(), 3);
        assert_eq!(SCHED_MODE_TOKENS, ["seq", "work_steal"]);
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE slcs_sched_mode_total counter"), "{text}");
        assert!(text.contains("slcs_sched_mode_total{mode=\"work_steal\"} 2"), "{text}");
        assert!(text.contains("slcs_sched_mode_total{mode=\"seq\"} 1"), "{text}");
        // Stable-zero: every mode label appears even when unused.
        for token in SCHED_MODE_TOKENS {
            assert!(text.contains(&format!("mode=\"{token}\"")), "missing {token}:\n{text}");
        }
        let isa = slcs_semilocal::simd_support();
        assert!(text.contains(&format!("slcs_simd_kernel{{isa=\"{isa}\"}} 1")), "{text}");
        let human = s.to_string();
        assert!(human.contains(&format!("simd={isa}")), "{human}");
        assert!(human.contains("work_steal=2"), "{human}");
    }

    #[test]
    fn histogram_sum_accumulates_and_merges() {
        let h = Histogram::default();
        h.record(3);
        h.record(7);
        let mut s = h.snapshot();
        assert_eq!(s.sum, 10);
        let other = Histogram::default();
        other.record(90);
        s.merge(&other.snapshot());
        assert_eq!(s.sum, 100);
        assert_eq!(s.count(), 3);
    }
}
