//! Workspace automation (`cargo xtask <command>`), dependency-free.
//!
//! * `lint` — the concurrency audit: every `unsafe` site carries a
//!   `// SAFETY:` justification (or `# Safety` doc for declarations),
//!   every explicit atomic `Ordering::<variant>` carries an
//!   `// ORDERING:` note (not just Relaxed — an unexplained Acquire is
//!   as suspicious as an unexplained Relaxed), library code does not
//!   `unwrap()`/`expect()` without a `// PANIC:` justification
//!   (lock-poisoning unwraps are auto-allowed), the metrics counters
//!   stick to their ordering allowlist, model-checked crates reach
//!   atomics and `UnsafeCell` only through their `sync.rs` facades
//!   (so the model checker actually sees every access), and every
//!   crate containing `unsafe` denies `unsafe_op_in_unsafe_fn`.
//!   `--json` emits the violations as a JSON array for CI annotations.
//! * `model-check` — builds the workspace with `--cfg slcs_model_check`
//!   (swapping the sync facades to the instrumented shim-loom
//!   primitives) and runs the model-check harnesses, plus the plain-mode
//!   regression models. `--races` adds the race-detector stages: the
//!   happens-before unit suite and the planted-race canary whose
//!   detection (with a replayable choice vector) is asserted, not just
//!   absence of failures. See docs/SAFETY.md.
//! * `trace-check FILE` — validates a Chrome-tracing JSON emitted by
//!   `slcs trace` / the `--trace` bench flags: structural JSON sanity
//!   plus presence of the five instrumentation layers (an
//!   `engine.request` span, a `pool.job` span, a `wavefront.chunk`
//!   span, an `osed.bfs_round` span, an `engine.slow_capture` marker),
//!   plus the parallelism profiler's
//!   surface (named `worker-N` lanes with `thread_sort_index`
//!   metadata and `pool.worker_phase` instants). CI runs it against a
//!   traced quick benchmark with the profiler on.
//! * `perf-gate` — compares freshly-run benchmark JSON (`BENCH_mem`,
//!   `BENCH_obs`, `BENCH_pool`, `BENCH_osed`, `BENCH_profile`)
//!   against the committed
//!   snapshots in `perf/baselines/`, gating only machine-robust
//!   quantities (deterministic allocation counts, self-relative
//!   overhead percentages, scheduling and cross-algorithm ratios)
//!   with configurable noise tolerance. See docs/PERF.md.
//!
//! The lint is a line-based scan with a small lexer that tracks strings,
//! char literals, nested block comments and `#[cfg(test)]` regions — not
//! a full parser, but precise enough to audit this workspace with zero
//! false positives, and it fails *loud* (a violation lists file:line and
//! the rule).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("model-check") => model_check(&args[1..]),
        Some("trace-check") => trace_check(&args[1..]),
        Some("perf-gate") => perf_gate(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask <lint [--json] | model-check [--races] [--bound N] \
                 [--schedules N] [--seed N] | trace-check FILE | perf-gate [--fresh DIR] \
                 [--baselines DIR] [--tolerance PCT] [--overhead-slack PTS]>"
            );
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// trace-check: validate an emitted Chrome-tracing JSON
// ---------------------------------------------------------------------

/// Span names that prove all instrumented layers made it into a traced
/// benchmark run: the engine request lifecycle, the executor pool, the
/// wavefront drivers, the output-sensitive edit-distance BFS, and the
/// flight recorder's slow-request capture marker.
const REQUIRED_SPANS: &[&str] =
    &["engine.request", "pool.job", "wavefront.chunk", "osed.bfs_round", "engine.slow_capture"];

/// Beyond the span layers, the trace must carry the parallelism
/// profiler's surface: per-worker lanes named `worker-N` (thread_name
/// metadata), a `thread_sort_index` per lane so viewers order the
/// leader above the workers, and at least one `pool.worker_phase`
/// transition instant (emitted only while both tracing *and* profiling
/// are on — the CI artifact is produced with the profiler enabled).
const REQUIRED_MARKERS: &[(&str, &str)] = &[
    ("\"name\":\"thread_name\"", "worker-lane thread_name metadata"),
    ("\"name\":\"thread_sort_index\"", "worker-lane ordering metadata"),
    ("\"name\":\"worker-", "a named pool-worker lane (worker-N)"),
    ("\"name\":\"pool.worker_phase\"", "profiler phase instants (was the profiler on?)"),
];

fn trace_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("trace-check: usage: cargo xtask trace-check <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("trace-check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems = Vec::new();
    let t = text.trim();
    if !t.starts_with("{\"traceEvents\":[") {
        problems.push("missing `{\"traceEvents\":[` header".to_string());
    }
    if !t.ends_with('}') {
        problems.push("does not end with `}`".to_string());
    }
    // Structural sanity without a JSON parser: braces and brackets must
    // balance outside string literals and never go negative.
    let (mut braces, mut brackets) = (0i64, 0i64);
    let mut in_str = false;
    let mut chars = t.chars();
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    let _ = chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        if braces < 0 || brackets < 0 {
            problems.push("unbalanced braces/brackets (closed before opened)".to_string());
            break;
        }
    }
    if in_str {
        problems.push("unterminated string literal".to_string());
    }
    if braces != 0 || brackets != 0 {
        problems.push(format!("unbalanced nesting (braces {braces:+}, brackets {brackets:+})"));
    }
    for name in REQUIRED_SPANS {
        if !t.contains(&format!("\"name\":\"{name}\"")) {
            problems.push(format!("no `{name}` event — that layer is missing from the trace"));
        }
    }
    for (needle, what) in REQUIRED_MARKERS {
        if !t.contains(needle) {
            problems.push(format!("missing {what} (`{needle}` not found)"));
        }
    }
    let count = |needle: &str| t.matches(needle).count();
    let (begins, ends) = (count("\"ph\":\"B\""), count("\"ph\":\"E\""));
    if problems.is_empty() {
        println!(
            "trace-check: {path} ok — {begins} span begins / {ends} ends, \
             {} instants, {} counter samples; all {} required layers and \
             {} lane/profiler markers present",
            count("\"ph\":\"i\""),
            count("\"ph\":\"C\""),
            REQUIRED_SPANS.len(),
            REQUIRED_MARKERS.len(),
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("trace-check: {path}: {p}");
        }
        eprintln!("trace-check: {} problem(s)", problems.len());
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// perf-gate: compare fresh benchmark JSON against committed baselines
// ---------------------------------------------------------------------

/// `cargo xtask perf-gate` — regression gate over the benchmark JSON
/// artifacts. CI first reruns the quick benches into a scratch directory
/// (`--fresh`), then this command compares them against the committed
/// snapshots in `perf/baselines/` (`--baselines`).
///
/// Only machine-robust quantities gate:
///
/// * `BENCH_mem.json` — allocation counts and scope-local peak live
///   bytes are deterministic for a fixed seed/order, so they compare
///   directly (within `--tolerance` percent); the memory-optimized
///   variant must additionally beat the naive one outright, and the
///   fresh run must have the instrumented allocator installed.
/// * `BENCH_obs.json` — the disabled/enabled overhead *percentages*
///   (already self-relative) may not exceed the baseline by more than
///   `--overhead-slack` percentage points.
/// * `BENCH_pool.json` — the scheduling gate (`gate_plan`): at every
///   multi-threaded sweep point the `planned` route (what the engine
///   runs for that grid) within 10% of `min(seq, work_steal)` — a
///   ratio of rows from one run, so it holds on any machine (absolute
///   wall times never gate).
/// * `BENCH_profile.json` — the profiler-off A/A delta
///   (`gate_profile`): with profiling off the hooks are one relaxed
///   load each, so the off-vs-off re-measurement must sit within
///   [`PROFILE_MAX_OFF_OVERHEAD`] percent plus `--overhead-slack`
///   noise points of zero; and the profiler-on overhead may not exceed
///   the baseline by more than the slack.
/// * `BENCH_osed.json` — at the largest 99%-similarity row: the
///   deterministic allocation count of one `edit_distance` call
///   (within `--tolerance`), and the osed-vs-best-grid time *ratio*
///   (within `--tolerance` of the baseline, and outright ≤ 0.2 — the
///   subsystem must stay at least 5× faster than the full grid on
///   near-identical inputs or it has lost its reason to exist).
///
/// A baseline file that does not exist is skipped with a note, so gates
/// can be adopted one artifact at a time; a *fresh* file missing while
/// its baseline exists is a failure.
fn perf_gate(args: &[String]) -> ExitCode {
    let mut fresh_dir = String::from(".");
    let mut base_dir = String::from("perf/baselines");
    let mut tolerance = 25.0f64;
    let mut slack = 10.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut grab = |slot: &mut String| match it.next() {
            Some(v) => {
                *slot = v.clone();
                true
            }
            None => false,
        };
        let mut val = String::new();
        let ok = match arg.as_str() {
            "--fresh" => grab(&mut fresh_dir),
            "--baselines" => grab(&mut base_dir),
            "--tolerance" => grab(&mut val) && val.parse().map(|v| tolerance = v).is_ok(),
            "--overhead-slack" => grab(&mut val) && val.parse().map(|v| slack = v).is_ok(),
            _ => false,
        };
        if !ok {
            eprintln!("perf-gate: bad argument {arg:?}");
            return ExitCode::FAILURE;
        }
    }

    let mut problems = Vec::new();
    let mut notes = Vec::new();
    let mut gated = 0usize;
    for (file, check) in [
        ("BENCH_mem.json", gate_mem as fn(&str, &str, f64, f64) -> Vec<String>),
        ("BENCH_obs.json", gate_obs),
        ("BENCH_pool.json", gate_plan),
        ("BENCH_profile.json", gate_profile),
        ("BENCH_osed.json", gate_osed),
    ] {
        let base_path = Path::new(&base_dir).join(file);
        let Ok(base) = std::fs::read_to_string(&base_path) else {
            notes.push(format!("no baseline {} — skipped", base_path.display()));
            continue;
        };
        let fresh_path = Path::new(&fresh_dir).join(file);
        let fresh = match std::fs::read_to_string(&fresh_path) {
            Ok(f) => f,
            Err(err) => {
                problems.push(format!(
                    "{file}: baseline exists but fresh run is missing \
                     ({}: {err})",
                    fresh_path.display()
                ));
                continue;
            }
        };
        gated += 1;
        problems.extend(
            check(&fresh, &base, tolerance, slack).into_iter().map(|p| format!("{file}: {p}")),
        );
    }

    for n in &notes {
        println!("perf-gate: {n}");
    }
    if problems.is_empty() {
        if gated == 0 {
            eprintln!("perf-gate: nothing gated (no baselines found in {base_dir})");
            return ExitCode::FAILURE;
        }
        println!(
            "perf-gate: {gated} artifact(s) within tolerance \
             ({tolerance}% counts/ratios, {slack} overhead points)"
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("perf-gate: {p}");
        }
        eprintln!("perf-gate: {} regression(s)", problems.len());
        ExitCode::FAILURE
    }
}

/// The raw text after `"key":`, or `None` if the key is absent.
/// Searches the whole of `text` — callers narrow the scope first (e.g.
/// to one variant object) when keys repeat.
fn field_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    text[at..].trim_start().strip_prefix(':').map(str::trim_start)
}

fn num_field(text: &str, key: &str) -> Option<f64> {
    let rest = field_after(text, key)?;
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn bool_field(text: &str, key: &str) -> Option<bool> {
    let rest = field_after(text, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// The `{…}` object inside `variants`/`rows` whose `"name"`/`"mode"`
/// field equals `name` (objects in our bench JSON never nest).
fn object_with<'a>(text: &'a str, key: &str, name: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": \"{name}\"");
    let at = text.find(&marker)?;
    let start = text[..at].rfind('{')?;
    let end = at + text[at..].find('}')?;
    Some(&text[start..=end])
}

/// Relative-regression check: `fresh` may exceed `base` by at most
/// `tol_pct` percent. Improvements never fail.
fn within(label: &str, fresh: f64, base: f64, tol_pct: f64, problems: &mut Vec<String>) {
    if fresh > base * (1.0 + tol_pct / 100.0) {
        problems.push(format!(
            "{label} regressed: {fresh} vs baseline {base} (+{:.1}% > {tol_pct}% tolerance)",
            100.0 * (fresh - base) / base.max(f64::MIN_POSITIVE)
        ));
    }
}

fn gate_mem(fresh: &str, base: &str, tol_pct: f64, _slack: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if bool_field(fresh, "allocator_installed") != Some(true) {
        problems
            .push("fresh run reports allocator_installed != true — counts are meaningless".into());
        return problems;
    }
    for key in ["order", "multiplies"] {
        let (f, b) = (num_field(fresh, key), num_field(base, key));
        if f != b {
            problems.push(format!("config drift: {key} fresh {f:?} vs baseline {b:?}"));
            return problems;
        }
    }
    let get = |text: &str, variant: &str, key: &str| -> Option<f64> {
        num_field(object_with(text, "name", variant)?, key)
    };
    let need = |text: &str, which: &str, variant: &str, key: &str, problems: &mut Vec<String>| {
        let v = get(text, variant, key);
        if v.is_none() {
            problems.push(format!("{which} run is missing {variant}.{key}"));
        }
        v
    };
    for variant in ["naive", "memopt"] {
        for key in ["allocs", "peak_live_bytes"] {
            let (Some(f), Some(b)) = (
                need(fresh, "fresh", variant, key, &mut problems),
                need(base, "baseline", variant, key, &mut problems),
            ) else {
                continue;
            };
            within(&format!("{variant}.{key}"), f, b, tol_pct, &mut problems);
        }
    }
    // The point of the optimization, gated outright on the fresh run.
    if let (Some(na), Some(ma), Some(np), Some(mp)) = (
        get(fresh, "naive", "allocs"),
        get(fresh, "memopt", "allocs"),
        get(fresh, "naive", "peak_live_bytes"),
        get(fresh, "memopt", "peak_live_bytes"),
    ) {
        if ma >= na {
            problems.push(format!("memopt no longer allocates less than naive ({ma} vs {na})"));
        }
        if mp >= np {
            problems.push(format!("memopt peak live bytes no longer below naive ({mp} vs {np})"));
        }
    }
    problems
}

fn gate_obs(fresh: &str, base: &str, _tol_pct: f64, slack: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for key in
        ["overhead_disabled_percent", "overhead_enabled_percent", "overhead_recorder_percent"]
    {
        let (Some(f), Some(b)) = (num_field(fresh, key), num_field(base, key)) else {
            problems.push(format!("missing {key} in fresh or baseline"));
            continue;
        };
        // Overheads are already percentages (self-relative), so the
        // budget is absolute points on top of the baseline. A negative
        // baseline (instrumented run measured *faster* than untraced)
        // is pure timing noise — the true overhead is ≥ 0 — so it
        // clamps to zero rather than tightening the budget.
        let b = b.max(0.0);
        if f > b + slack {
            problems.push(format!(
                "{key} regressed: {f:.2}% vs baseline {b:.2}% \
                 (+{:.2} points > {slack} point slack)",
                f - b
            ));
        }
    }
    problems
}

/// `(size, threads, mode, metric)` for every row of a bench JSON whose
/// rows carry `size`, `threads`, `mode` and the numeric `metric`.
fn mode_rows<'a>(text: &'a str, metric: &str) -> Vec<(u64, u64, &'a str, f64)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("\"mode\": \"") {
        let mode_start = at + "\"mode\": \"".len();
        let Some(mode_len) = text[mode_start..].find('"') else { continue };
        let (Some(start), Some(end)) = (text[..at].rfind('{'), text[at..].find('}')) else {
            continue;
        };
        let row = &text[start..at + end];
        if let (Some(size), Some(threads), Some(v)) =
            (num_field(row, "size"), num_field(row, "threads"), num_field(row, metric))
        {
            out.push((size as u64, threads as u64, &text[mode_start..mode_start + mode_len], v));
        }
    }
    out
}

/// The `planned` route may lose at most this factor to the faster of
/// `seq` and `work_steal` at every multi-threaded sweep point: the plan
/// has one job, and a wrong pick costs more than this.
const PLAN_MAX_OVER_BEST: f64 = 1.10;

/// Scheduling gate on the fresh `BENCH_pool.json`: at every
/// `(size, threads)` point with a `planned` row (threads ≥ 2), the
/// planned route must run within [`PLAN_MAX_OVER_BEST`] of
/// `min(seq, work_steal)`, the work_steal side being its fastest swept
/// grain — a ratio of same-run rows, so it needs no
/// cross-machine anchor. The baseline only guards config drift (the
/// largest planned point must match).
fn gate_plan(fresh: &str, base: &str, _tol_pct: f64, _slack: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let fresh_rows = mode_rows(fresh, "ns_per_cell");
    let planned_points = |rows: &[(u64, u64, &str, f64)]| {
        let mut points: Vec<(u64, u64)> =
            rows.iter().filter(|r| r.2 == "planned").map(|r| (r.0, r.1)).collect();
        points.sort_unstable();
        points.dedup();
        points
    };
    let points = planned_points(&fresh_rows);
    let Some(&largest) = points.last() else {
        problems.push("no planned rows in fresh run".into());
        return problems;
    };
    let base_largest = planned_points(&mode_rows(base, "ns_per_cell")).last().copied();
    if base_largest != Some(largest) {
        problems.push(format!(
            "config drift: largest planned point is {}x{} t={} fresh vs {base_largest:?} \
             baseline",
            largest.0, largest.0, largest.1
        ));
        return problems;
    }
    for &(size, threads) in &points {
        // The fastest row of a mode at this point (work_steal has one
        // row per swept grain).
        let ns = |t: u64, mode: &str| {
            fresh_rows
                .iter()
                .filter(|r| (r.0, r.1, r.2) == (size, t, mode))
                .map(|r| r.3)
                .min_by(f64::total_cmp)
        };
        let (Some(seq), Some(ws), Some(planned)) =
            (ns(1, "seq"), ns(threads, "work_steal"), ns(threads, "planned"))
        else {
            problems.push(format!("missing seq or work_steal row at {size}x{size} t={threads}"));
            continue;
        };
        let best = seq.min(ws);
        if planned > best * PLAN_MAX_OVER_BEST {
            problems.push(format!(
                "planned route lost at {size}x{size} t={threads}: {planned:.4} vs \
                 min(seq, work_steal) {best:.4} ns/cell (> {PLAN_MAX_OVER_BEST}x — the plan \
                 picked the slower schedule)"
            ));
        }
    }
    problems
}

/// With profiling off the worker hooks are one relaxed load each, so
/// the A/A re-measurement (`overhead_off_percent`, off vs off) may sit
/// at most this many percent above zero before noise slack is added —
/// anything past that means the off path grew real work.
const PROFILE_MAX_OFF_OVERHEAD: f64 = 2.0;

/// Gate over the fresh `BENCH_profile.json` (see the [`perf_gate`]
/// docs): profiler-off A/A delta pinned near zero and profiler-on
/// overhead held to the baseline, at an unchanged sweep config.
fn gate_profile(fresh: &str, base: &str, _tol_pct: f64, slack: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for key in ["overhead_size", "overhead_threads", "par_grain"] {
        let (f, b) = (num_field(fresh, key), num_field(base, key));
        if f != b {
            problems.push(format!("config drift: {key} fresh {f:?} vs baseline {b:?}"));
            return problems;
        }
    }
    // The absolute pin: A/A may drift with timing noise (the slack) but
    // the disabled profiler itself must stay under the budget. Negative
    // deltas (second run faster) are pure noise and never gate.
    match num_field(fresh, "overhead_off_percent") {
        Some(off) => {
            if off > PROFILE_MAX_OFF_OVERHEAD + slack {
                problems.push(format!(
                    "profiler-off A/A overhead {off:.2}% exceeds the \
                     {PROFILE_MAX_OFF_OVERHEAD}% budget (+{slack} noise points) — \
                     the disabled hooks are no longer free"
                ));
            }
        }
        None => problems.push("missing overhead_off_percent in fresh run".into()),
    }
    // Profiler-on accounting cost: baseline-relative, same contract as
    // the tracing overheads in gate_obs (negative baselines clamp to 0).
    match (num_field(fresh, "overhead_on_percent"), num_field(base, "overhead_on_percent")) {
        (Some(f), Some(b)) => {
            let b = b.max(0.0);
            if f > b + slack {
                problems.push(format!(
                    "overhead_on_percent regressed: {f:.2}% vs baseline {b:.2}% \
                     (+{:.2} points > {slack} point slack)",
                    f - b
                ));
            }
        }
        _ => problems.push("missing overhead_on_percent in fresh or baseline".into()),
    }
    let largest = |text: &str| mode_rows(text, "utilization").iter().map(|r| (r.0, r.1)).max();
    let (Some(point), base_point) = (largest(fresh), largest(base)) else {
        problems.push("no sweep rows in fresh run".into());
        return problems;
    };
    if base_point.is_some_and(|bp| bp != point) {
        problems.push(format!(
            "config drift: largest sweep point is {}x{} t={} fresh vs {:?} baseline",
            point.0, point.0, point.1, base_point
        ));
    }
    problems
}

/// The subsystem must not quietly regress below its reason to exist:
/// past this osed-vs-best-grid time ratio at 99% similarity (i.e. less
/// than 5× faster than the full grid) the gate fails outright, baseline
/// or no baseline.
const OSED_MAX_RATIO: f64 = 0.2;

fn gate_osed(fresh: &str, base: &str, tol_pct: f64, _slack: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if bool_field(fresh, "allocator_installed") != Some(true) {
        problems
            .push("fresh run reports allocator_installed != true — counts are meaningless".into());
        return problems;
    }
    for key in ["sigma", "runs"] {
        let (f, b) = (num_field(fresh, key), num_field(base, key));
        if f != b {
            problems.push(format!("config drift: {key} fresh {f:?} vs baseline {b:?}"));
            return problems;
        }
    }
    // Gate the 99%-similarity row at the largest size — the sweet spot
    // the subsystem exists for. (The marker's trailing comma keeps the
    // 0.999 rows from matching.)
    fn row_99(text: &str) -> Option<(f64, &str)> {
        let mut best: Option<(f64, &str)> = None;
        for (at, _) in text.match_indices("\"similarity\": 0.99,") {
            let start = text[..at].rfind('{')?;
            let end = at + text[at..].find('}')?;
            let row = &text[start..=end];
            let size = num_field(row, "size")?;
            if best.is_none_or(|(s, _)| size > s) {
                best = Some((size, row));
            }
        }
        best
    }
    match (row_99(fresh), row_99(base)) {
        (Some((fs, frow)), Some((bs, brow))) => {
            if fs != bs {
                problems.push(format!(
                    "config drift: largest 99%-similarity row is size {fs} fresh \
                     vs size {bs} baseline"
                ));
                return problems;
            }
            // One edit_distance call on a fixed seed allocates a fixed
            // number of times, so counts compare directly.
            match (num_field(frow, "allocs"), num_field(brow, "allocs")) {
                (Some(f), Some(b)) => {
                    within(&format!("allocs at size {fs} sim 0.99"), f, b, tol_pct, &mut problems);
                }
                _ => problems.push("missing allocs in fresh or baseline 99% row".into()),
            }
            match (num_field(frow, "ratio_vs_best_grid"), num_field(brow, "ratio_vs_best_grid")) {
                (Some(f), Some(b)) => {
                    within(
                        &format!("osed/grid time ratio at size {fs} sim 0.99"),
                        f,
                        b,
                        tol_pct,
                        &mut problems,
                    );
                    if f > OSED_MAX_RATIO {
                        problems.push(format!(
                            "osed is no longer ≥ {:.0}× faster than the best grid path at 99% \
                             similarity (ratio {f} > {OSED_MAX_RATIO})",
                            1.0 / OSED_MAX_RATIO
                        ));
                    }
                }
                _ => {
                    problems.push("missing ratio_vs_best_grid in fresh or baseline 99% row".into())
                }
            }
        }
        _ => problems.push("cannot find a 99%-similarity row in fresh or baseline".into()),
    }
    problems
}

// ---------------------------------------------------------------------
// model-check runner
// ---------------------------------------------------------------------

fn model_check(args: &[String]) -> ExitCode {
    let mut bound: Option<String> = None;
    let mut schedules: Option<String> = None;
    let mut seed: Option<String> = None;
    let mut races = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut grab = |slot: &mut Option<String>| match it.next() {
            Some(v) => {
                *slot = Some(v.clone());
                true
            }
            None => false,
        };
        let ok = match arg.as_str() {
            "--bound" => grab(&mut bound),
            "--schedules" => grab(&mut schedules),
            "--seed" => grab(&mut seed),
            "--races" => {
                races = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("model-check: bad argument {arg:?}");
            return ExitCode::FAILURE;
        }
    }

    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.contains("slcs_model_check") {
        if !rustflags.is_empty() {
            rustflags.push(' ');
        }
        rustflags.push_str("--cfg slcs_model_check");
    }

    let mut stages: Vec<(&str, &[&str], bool)> = vec![
        // (label, cargo args, needs the model-check cfg)
        ("checker self-tests", &["test", "-p", "shim-loom", "--lib", "-q"], false),
        ("protocol regression models", &["test", "--test", "model_check", "-q"], false),
        (
            "pool/team harnesses (instrumented build)",
            &["test", "-p", "rayon", "--test", "model", "--", "--nocapture"],
            true,
        ),
        (
            "engine queue harnesses (instrumented build)",
            &["test", "-p", "slcs-engine", "--lib", "model_", "--", "--nocapture"],
            true,
        ),
    ];
    if races {
        // The race-detector suites: the happens-before engine's unit
        // matrix (which ordering pairs create edges) and the planted
        // canary whose *detection* — with a replayable choice vector —
        // is what the tests assert. shim-loom is the instrumentation,
        // so these build without the cfg.
        stages.push((
            "happens-before edge matrix",
            &["test", "-p", "shim-loom", "--test", "hb", "-q"],
            false,
        ));
        stages.push((
            "planted-race canary + replay",
            &["test", "-p", "shim-loom", "--test", "races", "-q"],
            false,
        ));
    }

    for (label, cargo_args, instrumented) in &stages {
        println!("==> model-check: {label}");
        let mut cmd = Command::new("cargo");
        cmd.args(*cargo_args);
        if *instrumented {
            cmd.env("RUSTFLAGS", &rustflags);
        }
        if let Some(b) = &bound {
            cmd.env("SLCS_MODEL_PREEMPTIONS", b);
        }
        if let Some(s) = &schedules {
            cmd.env("SLCS_MODEL_SCHEDULES", s);
        }
        if let Some(s) = &seed {
            cmd.env("SLCS_MODEL_SEED", s);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("model-check: {label} failed ({status})");
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("model-check: cannot run cargo: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("model-check: all stages green");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// lint: file collection
// ---------------------------------------------------------------------

/// Crates under audit: everything first-party plus the vendored crates
/// that hold scheduler or lock-free code. The other vendored shims
/// (rand, proptest, criterion) mirror external APIs and hold no
/// concurrency code; `xtask` itself is a dev tool, not library code.
const AUDIT_ROOTS: &[&str] =
    &["crates", "vendor/rayon", "vendor/shim-loom", "vendor/shim-trace", "vendor/shim-alloc"];
const SKIP_DIRS: &[&str] = &["crates/xtask", "target"];

/// One lint finding. `line` is 1-based; 0 means the finding is about
/// the file as a whole (e.g. a missing crate-level attribute).
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl Violation {
    fn at(file: &Path, line: usize, rule: &'static str, message: String) -> Self {
        Violation { file: file.display().to_string(), line, rule, message }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// enough for rule messages and repo-relative paths.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            _ => {
                eprintln!("lint: bad argument {arg:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let repo = repo_root();
    let mut files = Vec::new();
    for root in AUDIT_ROOTS {
        collect_rs_files(&repo, &repo.join(root), &mut files);
    }
    files.sort();

    let mut violations: Vec<Violation> = Vec::new();
    let mut stats = Stats::default();
    // crate src dir → (has unsafe, lib.rs denies unsafe_op_in_unsafe_fn)
    let mut crates: std::collections::BTreeMap<PathBuf, (bool, bool)> = Default::default();

    for path in &files {
        let rel = path.strip_prefix(&repo).unwrap_or(path).to_path_buf();
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(err) => {
                violations.push(Violation::at(&rel, 0, "io", format!("unreadable: {err}")));
                continue;
            }
        };
        let lines = lex_file(&source);
        audit_file(&rel, &lines, &mut violations, &mut stats);

        if let Some(src_dir) = crate_src_dir(&rel) {
            let entry = crates.entry(src_dir).or_insert((false, false));
            let file_has_unsafe = lines.iter().enumerate().any(|(i, l)| {
                !l.in_test
                    && !is_attr(&l.code)
                    && has_word(&l.code, "unsafe")
                    && !lines[i].code.trim().is_empty()
            });
            entry.0 |= file_has_unsafe;
            if rel.file_name().is_some_and(|n| n == "lib.rs") {
                entry.1 = source.contains("#![deny(unsafe_op_in_unsafe_fn)]");
            }
        }
    }

    for (src_dir, (has_unsafe, denies)) in &crates {
        if *has_unsafe && !denies {
            violations.push(Violation::at(
                &src_dir.join("lib.rs"),
                0,
                "deny-attr",
                "crate contains unsafe code but does not declare \
                 #![deny(unsafe_op_in_unsafe_fn)]"
                    .to_string(),
            ));
        }
    }

    if json {
        let mut out = String::from("[");
        for (i, v) in violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&v.file),
                v.line,
                v.rule,
                json_escape(&v.message)
            );
        }
        out.push_str(if violations.is_empty() { "]" } else { "\n]" });
        println!("{out}");
        return if violations.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if violations.is_empty() {
        println!(
            "lint clean: {} files; {} unsafe sites justified, {} explicit orderings annotated \
             ({} non-Relaxed), {} panic sites allowed ({} via PANIC:, rest lock-poisoning), \
             facade enforced over {} model-checked files",
            files.len(),
            stats.unsafe_sites,
            stats.ordering_sites,
            stats.ordering_sites - stats.relaxed_sites,
            stats.panic_allowed + stats.panic_justified,
            stats.panic_justified,
            stats.facade_files,
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            if v.line == 0 {
                eprintln!("lint: {}: {}", v.file, v.message);
            } else {
                eprintln!("lint: {}:{}: {}", v.file, v.line, v.message);
            }
        }
        eprintln!("lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn repo_root() -> PathBuf {
    // cargo runs xtask from the workspace root via the alias; fall back
    // to walking up to the directory holding the workspace Cargo.toml.
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn collect_rs_files(repo: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(repo).unwrap_or(&path);
        if SKIP_DIRS.iter().any(|s| rel == Path::new(s)) {
            continue;
        }
        if path.is_dir() {
            // Only library/binary sources are audited; tests/ and
            // benches/ trees are exercised code, not exercised-by code.
            let name = entry.file_name();
            if dir.parent().is_some_and(|p| p.ends_with("crates") || p.ends_with("vendor"))
                && (name == "tests" || name == "benches")
            {
                continue;
            }
            collect_rs_files(repo, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn crate_src_dir(rel: &Path) -> Option<PathBuf> {
    let mut dir = rel.parent()?;
    loop {
        if dir.file_name().is_some_and(|n| n == "src") {
            return Some(dir.to_path_buf());
        }
        dir = dir.parent()?;
    }
}

// ---------------------------------------------------------------------
// lint: the lexer
// ---------------------------------------------------------------------

/// One source line, split into its code text (string/char contents
/// blanked out) and its comment text, with test-region membership.
struct Line {
    code: String,
    comment: String,
    in_test: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Lex {
    Code,
    /// Inside a `"…"` (escapes honored) — may span lines.
    Str,
    /// Inside an `r##"…"##` raw string with this many hashes.
    RawStr(u8),
    /// Inside a (nested) block comment at this depth.
    Block(u32),
}

fn lex_file(source: &str) -> Vec<Line> {
    let mut state = Lex::Code;
    let mut depth: i64 = 0; // brace depth of code
    let mut pending_test_attr = false;
    let mut test_region_base: Option<i64> = None;
    let mut out = Vec::new();

    for raw in source.lines() {
        let (code, comment, next_state) = lex_line(raw, state);
        state = next_state;

        let trimmed = code.trim();
        // `#[cfg(test)]` / `#[cfg(all(test, …))]` start a test region at
        // the next brace-opening item (a `;`-terminated item cancels).
        if trimmed.starts_with('#') && (code.contains("cfg(test") || code.contains("cfg(all(test"))
        {
            pending_test_attr = true;
        }

        // Depth reached by closing braces on this line; a `}` returning
        // to the region's base depth ends the test region.
        let mut close_min = i64::MAX;
        for ch in code.chars() {
            match ch {
                '{' => {
                    if pending_test_attr && test_region_base.is_none() {
                        test_region_base = Some(depth);
                        pending_test_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    close_min = close_min.min(depth);
                }
                _ => {}
            }
        }
        if pending_test_attr && !trimmed.starts_with('#') && trimmed.ends_with(';') {
            pending_test_attr = false;
        }

        let in_test = test_region_base.is_some() || pending_test_attr;
        if let Some(base) = test_region_base {
            if close_min <= base {
                test_region_base = None;
            }
        }
        out.push(Line { code, comment, in_test });
    }
    out
}

/// Splits one line into (code, comment) given the carry-over lexer
/// state; string/char contents become spaces in the code text.
fn lex_line(line: &str, mut state: Lex) -> (String, String, Lex) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match state {
            Lex::Block(d) => {
                if c == '*' && bytes.get(i + 1) == Some(&'/') {
                    state = if d > 1 { Lex::Block(d - 1) } else { Lex::Code };
                    i += 2;
                    continue;
                }
                if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    state = Lex::Block(d + 1);
                    i += 2;
                    continue;
                }
                comment.push(c);
                i += 1;
            }
            Lex::Str => {
                if c == '\\' {
                    i += 2; // escape (incl. \" and \\); lost at EOL is fine
                    continue;
                }
                if c == '"' {
                    state = Lex::Code;
                }
                code.push(' ');
                i += 1;
            }
            Lex::RawStr(h) => {
                if c == '"' {
                    let hashes = bytes[i + 1..].iter().take_while(|&&x| x == '#').count();
                    if hashes >= h as usize {
                        state = Lex::Code;
                        i += 1 + h as usize;
                        for _ in 0..=h {
                            code.push(' ');
                        }
                        continue;
                    }
                }
                code.push(' ');
                i += 1;
            }
            Lex::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&'/') {
                    comment.extend(&bytes[i..]);
                    break;
                }
                if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    state = Lex::Block(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = Lex::Str;
                    code.push(' ');
                    i += 1;
                    continue;
                }
                // Raw (and byte) string openers: r"  r#"  br"  b"
                if (c == 'r' || c == 'b') && !prev_is_ident(&bytes, i) {
                    let mut j = i + 1;
                    if c == 'b' && bytes.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let hashes = bytes[j..].iter().take_while(|&&x| x == '#').count();
                    if bytes.get(j + hashes) == Some(&'"')
                        && (hashes > 0 || bytes.get(j) == Some(&'"'))
                    {
                        state = if hashes > 0 { Lex::RawStr(hashes as u8) } else { Lex::Str };
                        for _ in i..=(j + hashes) {
                            code.push(' ');
                        }
                        i = j + hashes + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars; a lifetime never has a closing quote.
                    if let Some(len) = char_literal_len(&bytes[i..]) {
                        for _ in 0..len {
                            code.push(' ');
                        }
                        i += len;
                        continue;
                    }
                }
                code.push(c);
                i += 1;
            }
        }
    }
    (code, comment, state)
}

fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// Length of a char literal starting at `s[0] == '\''`, or `None` for a
/// lifetime.
fn char_literal_len(s: &[char]) -> Option<usize> {
    match s.get(1)? {
        '\\' => {
            // `'\n'`, `'\\'`, `'\u{…}'`, `'\x7f'`
            let close = s.iter().skip(2).position(|&c| c == '\'')?;
            Some(close + 3)
        }
        _ => (s.get(2) == Some(&'\'')).then_some(3),
    }
}

// ---------------------------------------------------------------------
// lint: the rules
// ---------------------------------------------------------------------

#[derive(Default)]
struct Stats {
    unsafe_sites: usize,
    /// Every explicit atomic `Ordering::<variant>` occurrence.
    ordering_sites: usize,
    /// The `Ordering::Relaxed` subset of `ordering_sites`.
    relaxed_sites: usize,
    panic_allowed: usize,
    panic_justified: usize,
    /// Files the facade-enforcement rule (rule 5) scanned.
    facade_files: usize,
}

fn is_attr(code: &str) -> bool {
    let t = code.trim();
    t.starts_with("#[") || t.starts_with("#![")
}

fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok =
            code[after..].chars().next().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

/// The contiguous comment/attribute block directly above line `i`,
/// concatenated (doc and plain comments both count).
fn justification_above(lines: &[Line], i: usize) -> String {
    let mut text = String::new();
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let code_t = l.code.trim();
        if code_t.is_empty() && !l.comment.is_empty() {
            let _ = write!(text, " {}", l.comment);
        } else if is_attr(&l.code) {
            continue; // attributes sit between a comment and its item
        } else {
            break;
        }
    }
    text
}

/// Files whose atomics are, by design, nothing but independent
/// monotonic counters — rule 4 pins them to `Ordering::Relaxed` only,
/// so a "quick fix" cannot quietly smuggle cross-field consistency
/// assumptions into code documented not to have any.
const RELAXED_ONLY_FILES: &[&str] =
    &["crates/engine/src/metrics.rs", "vendor/rayon/src/stats.rs", "vendor/rayon/src/profile.rs"];

/// The atomic memory orderings (std::sync::atomic::Ordering variants).
/// Matching on these keeps `std::cmp::Ordering::Less` & friends out of
/// the ordering audit.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Source trees whose crates are model-checked: under
/// `--cfg slcs_model_check` their `sync.rs` facades swap std's
/// primitives for the instrumented shim-loom ones, so any *direct*
/// `std::sync::atomic` / `std::cell::UnsafeCell` use in these trees is
/// an access the model checker silently cannot see. Rule 5 forbids it.
const MODEL_CHECKED_SRC: &[&str] = &["vendor/rayon/src", "crates/engine/src"];

/// The only files in the model-checked trees allowed to name the raw
/// primitives: the facades themselves (that is their job) and the
/// always-on counter files, whose instrumentation must not add states
/// for the checker to explore (see their module docs). shim-loom is
/// not listed because it is not under [`MODEL_CHECKED_SRC`]: it *is*
/// the instrumentation.
const FACADE_ALLOWLIST: &[&str] = &[
    "vendor/rayon/src/sync.rs",
    "crates/engine/src/sync.rs",
    "crates/engine/src/metrics.rs",
    "vendor/rayon/src/stats.rs",
    "vendor/rayon/src/profile.rs",
];

/// Raw-primitive tokens rule 5 hunts for in model-checked trees.
const RAW_SYNC_TOKENS: &[&str] =
    &["std::sync::atomic", "core::sync::atomic", "std::cell::UnsafeCell", "core::cell::UnsafeCell"];

/// Occurrences of `word` in `code` as a whole word (the counting twin
/// of [`has_word`] — sites, not lines, so consolidation can't hide
/// them).
fn count_word(code: &str, word: &str) -> usize {
    let mut n = 0;
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok =
            code[after..].chars().next().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        if before_ok && after_ok {
            n += 1;
        }
        start = after;
    }
    n
}

/// Atomic-ordering occurrences on one code line: `(total, relaxed)`.
fn ordering_sites(code: &str) -> (usize, usize) {
    let (mut total, mut relaxed) = (0, 0);
    let mut start = 0;
    while let Some(pos) = code[start..].find("Ordering::") {
        let at = start + pos + "Ordering::".len();
        start = at;
        let variant: String = code[at..].chars().take_while(|c| c.is_alphanumeric()).collect();
        if ATOMIC_ORDERINGS.contains(&variant.as_str()) {
            total += 1;
            if variant == "Relaxed" {
                relaxed += 1;
            }
        }
    }
    (total, relaxed)
}

fn audit_file(rel: &Path, lines: &[Line], violations: &mut Vec<Violation>, stats: &mut Stats) {
    let relaxed_only = RELAXED_ONLY_FILES.iter().any(|f| rel == Path::new(f) || rel.ends_with(f));
    let facade_checked = MODEL_CHECKED_SRC.iter().any(|d| rel.starts_with(d))
        && !FACADE_ALLOWLIST.iter().any(|f| rel == Path::new(f));
    if facade_checked {
        stats.facade_files += 1;
    }
    let mut ordering_run_justified: std::collections::HashSet<usize> = Default::default();
    let mut unsafe_run_justified: std::collections::HashSet<usize> = Default::default();

    for (i, line) in lines.iter().enumerate() {
        if line.in_test || line.code.trim().is_empty() {
            continue;
        }
        let code = &line.code;
        let own_comment = &line.comment;

        // Rule 1 — unsafe needs SAFETY: (declarations may use `# Safety`).
        // `unsafe fn(` is a fn-pointer *type*, not an unsafe operation;
        // the unsafety lives at the call sites. Sites are counted per
        // occurrence of the keyword, so merging two unsafe blocks into
        // one line still shows up as two sites in the audit totals.
        let unsafe_code = code.replace("unsafe fn(", "");
        if !is_attr(code) && has_word(&unsafe_code, "unsafe") {
            stats.unsafe_sites += count_word(&unsafe_code, "unsafe");
            let above = justification_above(lines, i);
            let is_decl = unsafe_code.contains("unsafe fn")
                || unsafe_code.contains("unsafe impl")
                || unsafe_code.contains("unsafe trait");
            // A justification covers an unbroken run of consecutive
            // unsafe lines (e.g. paired raw-slice reconstructions).
            let justified = own_comment.contains("SAFETY:")
                || above.contains("SAFETY:")
                || (is_decl && above.contains("# Safety"))
                || (i > 0
                    && has_word(&lines[i - 1].code.replace("unsafe fn(", ""), "unsafe")
                    && unsafe_run_justified.contains(&(i - 1)));
            if justified {
                unsafe_run_justified.insert(i);
            } else {
                violations.push(Violation::at(
                    rel,
                    i + 1,
                    "safety",
                    format!(
                        "unsafe without a `// SAFETY:` justification{}",
                        if is_decl { " (or a `# Safety` doc section)" } else { "" }
                    ),
                ));
            }
        }

        // Rule 2 — every explicit atomic ordering needs an ORDERING:
        // note. An unexplained Acquire is as suspicious as an
        // unexplained Relaxed: the note must say which edge the
        // ordering buys (or deliberately forgoes). A note covers an
        // unbroken run of consecutive ordering lines (e.g. a snapshot
        // struct literal loading a dozen counters under one argument).
        let (ord_total, ord_relaxed) = ordering_sites(code);
        if ord_total > 0 {
            stats.ordering_sites += ord_total;
            stats.relaxed_sites += ord_relaxed;
            let justified = own_comment.contains("ORDERING:")
                || justification_above(lines, i).contains("ORDERING:")
                || (i > 0
                    && ordering_sites(&lines[i - 1].code).0 > 0
                    && ordering_run_justified.contains(&(i - 1)));
            if justified {
                ordering_run_justified.insert(i);
            } else {
                violations.push(Violation::at(
                    rel,
                    i + 1,
                    "ordering",
                    "explicit atomic ordering without an `// ORDERING:` note".to_string(),
                ));
            }
        }

        // Rule 3 — no unwrap/expect in library code, unless it is a
        // lock-poisoning unwrap or carries a PANIC: justification.
        for needle in [".unwrap()", ".expect("] {
            let mut start = 0;
            while let Some(pos) = code[start..].find(needle) {
                let at = start + pos;
                start = at + needle.len();
                let chain = code[..at].trim_end();
                // Lock-poisoning results: `.lock()`, RwLock guards, and
                // `Condvar::wait{,_timeout}(…)` — the final call before
                // the unwrap is a wait when no further `.` follows it.
                let is_poisoning_chain = |chain: &str| {
                    [".lock()", ".read()", ".write()"].iter().any(|p| chain.ends_with(p))
                        || (chain.ends_with(')')
                            && chain.rfind(".wait").is_some_and(|p| {
                                let rest = &chain[p + ".wait".len()..];
                                // Condvar waits always pass the guard;
                                // an argument-less `.wait()` is some
                                // other API and stays flagged.
                                !rest.contains('.') && !rest.contains("()")
                            }))
                };
                let poisoning = is_poisoning_chain(chain)
                    || (chain.is_empty()
                        && i > 0
                        && is_poisoning_chain(lines[i - 1].code.trim_end()));
                if poisoning {
                    stats.panic_allowed += 1;
                    continue;
                }
                if own_comment.contains("PANIC:")
                    || justification_above(lines, i).contains("PANIC:")
                {
                    stats.panic_justified += 1;
                    continue;
                }
                violations.push(Violation::at(
                    rel,
                    i + 1,
                    "panic",
                    format!("`{needle}…` in library code without a `// PANIC:` justification"),
                ));
            }
        }

        // Rule 4 — counter-only files use only the allowlisted ordering.
        if relaxed_only {
            let mut start = 0;
            while let Some(pos) = code[start..].find("Ordering::") {
                let at = start + pos + "Ordering::".len();
                let variant: String =
                    code[at..].chars().take_while(|c| c.is_alphanumeric()).collect();
                start = at;
                if ATOMIC_ORDERINGS.contains(&variant.as_str()) && variant != "Relaxed" {
                    violations.push(Violation::at(
                        rel,
                        i + 1,
                        "relaxed-only",
                        format!(
                            "this file must use Ordering::Relaxed only \
                             (independent monotonic counters, no cross-field consistency), \
                             found {variant}"
                        ),
                    ));
                }
            }
        }

        // Rule 5 — facade enforcement. Model-checked crates reach
        // atomics and UnsafeCell only through their sync.rs facades:
        // a direct std/core import here compiles fine but gives the
        // model checker (and the race detector) a blind spot, which is
        // worse than a failure.
        if facade_checked {
            for token in RAW_SYNC_TOKENS {
                if code.contains(token) {
                    violations.push(Violation::at(
                        rel,
                        i + 1,
                        "facade",
                        format!(
                            "`{token}` in a model-checked crate outside its sync facade — \
                             use the crate's `sync` module so the model checker sees the access"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lex + audit an in-memory source as if it lived at `rel`.
    fn audit(rel: &str, src: &str) -> (Vec<Violation>, Stats) {
        let mut violations = Vec::new();
        let mut stats = Stats::default();
        audit_file(Path::new(rel), &lex_file(src), &mut violations, &mut stats);
        (violations, stats)
    }

    #[test]
    fn ordering_rule_covers_every_explicit_ordering() {
        let (v, s) = audit("crates/x/src/a.rs", "fn f(a: &A) { a.load(Ordering::Acquire); }\n");
        assert_eq!(v.len(), 1, "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert_eq!(v[0].rule, "ordering");
        assert_eq!((v[0].line, s.ordering_sites, s.relaxed_sites), (1, 1, 0));
        // An ORDERING: note (own line or above) clears it, and covers a
        // run of consecutive ordering lines.
        let src = "// ORDERING: pairs with the Release store in g().\n\
                   fn f(a: &A) { a.load(Ordering::Acquire);\n\
                   a.store(1, Ordering::Release); }\n";
        let (v, s) = audit("crates/x/src/a.rs", src);
        assert!(v.is_empty(), "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert_eq!((s.ordering_sites, s.relaxed_sites), (2, 0));
    }

    #[test]
    fn ordering_rule_counts_sites_not_lines_and_skips_cmp_ordering() {
        let src = "// ORDERING: CAS failure may be weaker; both noted here.\n\
                   fn f(a: &A) { a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire); }\n";
        let (v, s) = audit("crates/x/src/a.rs", src);
        assert!(v.is_empty());
        assert_eq!(s.ordering_sites, 2, "one line, two ordering sites");
        // std::cmp::Ordering variants are not atomic orderings.
        let (v, s) = audit("crates/x/src/a.rs", "fn f() -> Ordering { Ordering::Less }\n");
        assert!(v.is_empty());
        assert_eq!(s.ordering_sites, 0);
    }

    #[test]
    fn unsafe_sites_are_counted_per_occurrence() {
        let src = "// SAFETY: both derefs stay in bounds (len checked above).\n\
                   fn f(p: *const u8) { unsafe { g(p) }; unsafe { g(p) }; }\n";
        let (v, s) = audit("crates/x/src/a.rs", src);
        assert!(v.is_empty(), "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert_eq!(s.unsafe_sites, 2, "consolidating blocks onto one line must not hide sites");
    }

    #[test]
    fn facade_rule_flags_raw_primitives_outside_the_allowlist() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        let (v, _) = audit("vendor/rayon/src/evil.rs", src);
        assert_eq!(v.len(), 1, "{:?}", v.iter().map(|v| &v.message).collect::<Vec<_>>());
        assert_eq!((v[0].rule, v[0].line), ("facade", 1));
        let (v, _) = audit("crates/engine/src/evil.rs", "use std::cell::UnsafeCell;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "facade");
        // The facades themselves and the counter files are allowed…
        for allowed in FACADE_ALLOWLIST {
            let (v, _) = audit(allowed, "use std::sync::atomic::AtomicU64;\n");
            assert!(v.iter().all(|v| v.rule != "facade"), "{allowed} should be allowlisted");
        }
        // …and crates outside the model-checked trees are not audited.
        let (v, _) = audit("crates/semilocal/src/a.rs", src);
        assert!(v.iter().all(|v| v.rule != "facade"));
    }

    #[test]
    fn facade_rule_ignores_tests_and_comments() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicUsize;\n}\n";
        let (v, _) = audit("vendor/rayon/src/a.rs", src);
        assert!(v.iter().all(|v| v.rule != "facade"), "test-only use is exercised-by code");
        let (v, _) = audit("vendor/rayon/src/a.rs", "// std::sync::atomic is banned here\n");
        assert!(v.is_empty(), "comments are not imports");
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\ty"), "x\\n\\ty");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    fn mem_json(
        memopt_allocs: u64,
        memopt_peak: u64,
        naive_allocs: u64,
        naive_peak: u64,
        installed: bool,
    ) -> String {
        format!(
            "{{\n  \"bench\": \"bench-mem\",\n  \"order\": 512,\n  \"multiplies\": 4,\n  \
             \"allocator_installed\": {installed},\n  \"variants\": [\n    \
             {{\"name\": \"naive\", \"allocs\": {naive_allocs}, \"alloc_bytes\": 9000, \
             \"peak_live_bytes\": {naive_peak}, \"millis\": 1.0}},\n    \
             {{\"name\": \"memopt\", \"allocs\": {memopt_allocs}, \"alloc_bytes\": 100, \
             \"peak_live_bytes\": {memopt_peak}, \"millis\": 0.5}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn json_scanners_extract_fields() {
        let j = mem_json(4, 2048, 4000, 900_000, true);
        assert_eq!(num_field(&j, "order"), Some(512.0));
        assert_eq!(bool_field(&j, "allocator_installed"), Some(true));
        let memopt = object_with(&j, "name", "memopt").unwrap();
        assert_eq!(num_field(memopt, "allocs"), Some(4.0));
        assert_eq!(num_field(memopt, "peak_live_bytes"), Some(2048.0));
        assert!(object_with(&j, "name", "missing").is_none());
        assert!(num_field(&j, "nonexistent").is_none());
    }

    #[test]
    fn gate_mem_passes_identical_runs() {
        let j = mem_json(4, 2048, 4000, 900_000, true);
        assert!(gate_mem(&j, &j, 25.0, 10.0).is_empty());
    }

    #[test]
    fn gate_mem_fails_on_doctored_baseline() {
        let base = mem_json(4, 2048, 2000, 400_000, true); // doctored: halved counts
        let fresh = mem_json(4, 2048, 4000, 900_000, true);
        let problems = gate_mem(&fresh, &base, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("naive.allocs regressed")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("naive.peak_live_bytes regressed")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_mem_enforces_memopt_beats_naive() {
        let bad = mem_json(5000, 2048, 4000, 900_000, true);
        let problems = gate_mem(&bad, &bad, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("no longer allocates less")), "{problems:?}");
        let bad_peak = mem_json(4, 900_000, 4000, 900_000, true);
        let problems = gate_mem(&bad_peak, &bad_peak, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("peak live bytes")), "{problems:?}");
    }

    #[test]
    fn gate_mem_requires_instrumented_allocator_and_matching_config() {
        let fresh = mem_json(4, 2048, 4000, 900_000, false);
        let problems = gate_mem(&fresh, &fresh, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("allocator_installed")), "{problems:?}");
        let fresh = mem_json(4, 2048, 4000, 900_000, true);
        let base = fresh.replace("\"order\": 512", "\"order\": 1024");
        let problems = gate_mem(&fresh, &base, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("config drift")), "{problems:?}");
    }

    fn obs_json(disabled: f64, enabled: f64, recorder: f64) -> String {
        format!(
            "{{\n  \"bench\": \"bench-obs\",\n  \"overhead_disabled_percent\": {disabled:.3},\n  \
             \"overhead_enabled_percent\": {enabled:.3},\n  \
             \"overhead_recorder_percent\": {recorder:.3}\n}}\n"
        )
    }

    #[test]
    fn gate_obs_allows_slack_but_fails_past_it() {
        let base = obs_json(1.0, 8.0, 1.0);
        assert!(gate_obs(&obs_json(9.0, 15.0, 2.0), &base, 25.0, 10.0).is_empty());
        let problems = gate_obs(&obs_json(12.0, 8.0, 1.0), &base, 25.0, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("overhead_disabled_percent regressed")),
            "{problems:?}"
        );
        // The serving-path recorder overhead gates the same way.
        let problems = gate_obs(&obs_json(1.0, 8.0, 15.0), &base, 25.0, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("overhead_recorder_percent regressed")),
            "{problems:?}"
        );
        // A baseline without the recorder key is reported, not ignored.
        let old_base = "{\n  \"overhead_disabled_percent\": 1.0,\n  \
                        \"overhead_enabled_percent\": 8.0\n}\n";
        let problems = gate_obs(&obs_json(1.0, 8.0, 1.0), old_base, 25.0, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("missing overhead_recorder_percent")),
            "{problems:?}"
        );
        // Negative overheads (faster than untraced: measurement noise)
        // are always acceptable.
        assert!(gate_obs(&obs_json(-0.5, -0.1, -0.2), &base, 25.0, 10.0).is_empty());
        // A negative *baseline* clamps to zero instead of tightening
        // the budget below the slack.
        assert!(
            gate_obs(&obs_json(9.0, 8.0, 1.0), &obs_json(-5.0, 8.0, -1.0), 25.0, 10.0).is_empty()
        );
    }

    /// Two sweep points (256² and 512², both t=2) with seq at 1.0
    /// ns/cell and the work_steal and planned rows parameterized.
    fn plan_json(ws_large: f64, planned_small: f64, planned_large: f64) -> String {
        let mut rows = Vec::new();
        for (size, ws, planned, route) in
            [(256u64, 2.0, planned_small, "seq"), (512, ws_large, planned_large, "work_steal")]
        {
            rows.push(format!(
                "    {{\"size\": {size}, \"threads\": 1, \"mode\": \"seq\", \
                 \"ns_per_cell\": 1.0000, \"millis\": 1.0}}"
            ));
            rows.push(format!(
                "    {{\"size\": {size}, \"threads\": 2, \"mode\": \"work_steal\", \
                 \"ns_per_cell\": {ws:.4}, \"millis\": 1.0}}"
            ));
            rows.push(format!(
                "    {{\"size\": {size}, \"threads\": 2, \"mode\": \"planned\", \
                 \"route\": \"{route}\", \"ns_per_cell\": {planned:.4}, \"millis\": 1.0}}"
            ));
        }
        format!(
            "{{\n  \"bench\": \"bench-baseline\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn gate_plan_passes_when_the_plan_tracks_the_faster_schedule() {
        // seq plan at 256² (work_steal slower), work_steal plan at 512².
        let good = plan_json(0.8, 1.0, 0.85);
        assert!(gate_plan(&good, &good, 25.0, 10.0).is_empty());
        // Planned faster than both rows is an improvement, not a failure.
        let faster = plan_json(0.8, 0.5, 0.5);
        assert!(gate_plan(&faster, &faster, 25.0, 10.0).is_empty());
    }

    #[test]
    fn gate_plan_fails_a_wrong_pick_at_every_point() {
        // At 256² the seq plan is held to work_steal when that is faster.
        let bad = plan_json(0.8, 1.0, 0.8).replace(
            "\"size\": 256, \"threads\": 2, \"mode\": \"work_steal\", \"ns_per_cell\": 2.0000",
            "\"size\": 256, \"threads\": 2, \"mode\": \"work_steal\", \"ns_per_cell\": 0.5000",
        );
        let problems = gate_plan(&bad, &bad, 25.0, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("planned route lost at 256x256 t=2")),
            "{problems:?}"
        );
        // At 512² a work_steal plan slower than seq fails too.
        let bad = plan_json(1.5, 1.0, 1.5);
        let problems = gate_plan(&bad, &bad, 25.0, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("planned route lost at 512x512 t=2")),
            "{problems:?}"
        );
    }

    #[test]
    fn gate_plan_compares_against_the_fastest_work_steal_grain() {
        // A second, faster work_steal grain at 512² makes the planned
        // row (at the production grain) lose by more than 10%.
        let extra = "    {\"size\": 512, \"threads\": 2, \"mode\": \"work_steal\", \
                     \"grain\": 2048, \"ns_per_cell\": 0.5000, \"millis\": 1.0},\n";
        let two = plan_json(0.8, 1.0, 0.8).replacen(
            "    {\"size\": 512, \"threads\": 2, \"mode\": \"planned\"",
            &format!("{extra}    {{\"size\": 512, \"threads\": 2, \"mode\": \"planned\""),
            1,
        );
        assert!(two.contains("\"grain\": 2048"), "splice failed");
        let problems = gate_plan(&two, &two, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("lost at 512x512")), "{problems:?}");
    }

    #[test]
    fn gate_plan_detects_missing_rows_and_config_drift() {
        let fresh = plan_json(0.8, 1.0, 0.85);
        let base = fresh.replace("\"size\": 512", "\"size\": 1024");
        let problems = gate_plan(&fresh, &base, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("config drift")), "{problems:?}");
        let no_plan = fresh.replace("\"planned\"", "\"other\"");
        let problems = gate_plan(&no_plan, &fresh, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("no planned rows")), "{problems:?}");
        let no_ws = fresh.replace("\"work_steal\", \"ns", "\"renamed\", \"ns");
        let problems = gate_plan(&no_ws, &fresh, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("missing seq or work_steal")), "{problems:?}");
    }

    /// Two sweep points (512² t=1 leader-only, 512² t=2), with the
    /// overhead block parameterized.
    fn profile_json(off: f64, on: f64) -> String {
        let mut rows = Vec::new();
        for (threads, util) in [(1u64, 0.0), (2, 0.9)] {
            rows.push(format!(
                "    {{\"size\": 512, \"threads\": {threads}, \"mode\": \"work_steal\", \
                 \"utilization\": {util:.4}, \"parallelism\": 1.5000, \"busy_ns\": 1000, \
                 \"steal_ns\": 10, \"idle_ns\": 10, \"barrier_ns\": 10, \"millis\": 1.0}}"
            ));
        }
        format!(
            "{{\n  \"bench\": \"bench-profile\",\n  \"par_grain\": 128,\n  \
             \"overhead_size\": 512,\n  \"overhead_threads\": 2,\n  \
             \"overhead_off_percent\": {off:.3},\n  \"overhead_on_percent\": {on:.3},\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn gate_profile_pins_the_off_path_near_zero() {
        let base = profile_json(0.4, 1.3);
        // Within budget + slack (2 + 10 points) passes; past it fails.
        assert!(gate_profile(&profile_json(11.0, 1.3), &base, 25.0, 10.0).is_empty());
        let problems = gate_profile(&profile_json(13.0, 1.3), &base, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("profiler-off A/A overhead")), "{problems:?}");
        // Negative A/A (second run faster) is noise, never a failure.
        assert!(gate_profile(&profile_json(-3.0, 1.3), &base, 25.0, 10.0).is_empty());
    }

    #[test]
    fn gate_profile_holds_on_overhead_to_the_baseline() {
        let base = profile_json(0.4, 1.3);
        let problems = gate_profile(&profile_json(0.4, 14.0), &base, 25.0, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("overhead_on_percent regressed")),
            "{problems:?}"
        );
        // A negative baseline clamps to zero instead of tightening the
        // budget below the slack.
        let noisy_base = profile_json(0.4, -2.0);
        assert!(gate_profile(&profile_json(0.4, 9.0), &noisy_base, 25.0, 10.0).is_empty());
    }

    #[test]
    fn gate_profile_detects_config_drift_and_missing_fields() {
        let fresh = profile_json(0.4, 1.3);
        let base = fresh.replace("\"overhead_size\": 512", "\"overhead_size\": 1024");
        let problems = gate_profile(&fresh, &base, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("config drift")), "{problems:?}");
        let gutted = fresh.replace("overhead_off_percent", "overhead_off_was");
        let problems = gate_profile(&gutted, &gutted, 25.0, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("missing overhead_off_percent")),
            "{problems:?}"
        );
        let resized =
            fresh.replace("\"size\": 512, \"threads\": 2", "\"size\": 1024, \"threads\": 2");
        let problems = gate_profile(&resized, &fresh, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("largest sweep point")), "{problems:?}");
    }

    fn osed_json(allocs: u64, ratio: f64, installed: bool) -> String {
        format!(
            "{{\n  \"bench\": \"bench-osed\",\n  \"sigma\": 4,\n  \"runs\": 3,\n  \
             \"allocator_installed\": {installed},\n  \"rows\": [\n    \
             {{\"size\": 1024, \"similarity\": 0.99, \"distance\": 20, \
             \"osed_millis\": 0.4, \"allocs\": 9, \"ratio_vs_best_grid\": 0.01000}},\n    \
             {{\"size\": 4096, \"similarity\": 0.99, \"distance\": 80, \
             \"osed_millis\": 1.0, \"allocs\": {allocs}, \
             \"ratio_vs_best_grid\": {ratio:.5}}},\n    \
             {{\"size\": 4096, \"similarity\": 0.999, \"distance\": 8, \
             \"osed_millis\": 0.9, \"allocs\": 999, \"ratio_vs_best_grid\": 0.90000}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn gate_osed_gates_the_largest_99_percent_row_only() {
        let base = osed_json(12, 0.05, true);
        assert!(gate_osed(&base, &base, 25.0, 10.0).is_empty());
        // The 0.999 row's terrible ratio and alloc count never gate.
        let problems = gate_osed(&osed_json(20, 0.05, true), &base, 25.0, 10.0);
        assert!(
            problems.iter().any(|p| p.contains("allocs at size 4096 sim 0.99")),
            "{problems:?}"
        );
        let problems = gate_osed(&osed_json(12, 0.08, true), &base, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("ratio at size 4096 sim 0.99")), "{problems:?}");
    }

    #[test]
    fn gate_osed_fails_outright_past_the_five_x_floor() {
        // Doctoring the baseline to match cannot save a ratio above the
        // absolute ceiling: the 5× claim is part of the contract.
        let slow = osed_json(12, 0.3, true);
        let problems = gate_osed(&slow, &slow, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("no longer ≥ 5× faster")), "{problems:?}");
    }

    #[test]
    fn gate_osed_requires_instrumented_allocator_and_matching_config() {
        let good = osed_json(12, 0.05, true);
        let problems = gate_osed(&osed_json(12, 0.05, false), &good, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("allocator_installed")), "{problems:?}");
        let drifted = good.replace("\"sigma\": 4", "\"sigma\": 26");
        let problems = gate_osed(&drifted, &good, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("config drift: sigma")), "{problems:?}");
        let resized = good.replace("\"size\": 4096, \"similarity\": 0.99,", "");
        let problems = gate_osed(&resized, &good, 25.0, 10.0);
        assert!(problems.iter().any(|p| p.contains("largest 99%-similarity row")), "{problems:?}");
    }
}
