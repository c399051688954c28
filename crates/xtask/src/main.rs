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
//!   `slcs trace` / the `--trace` bench flags: a full JSON parse plus
//!   the presence of the five instrumentation layers (an
//!   `engine.request` span, a `pool.job` span, a `wavefront.chunk`
//!   span, an `osed.bfs_round` span, an `engine.slow_capture` marker),
//!   plus the parallelism profiler's
//!   surface (named `worker-N` lanes with `thread_sort_index`
//!   metadata and `pool.worker_phase` instants). CI runs it against a
//!   traced quick benchmark with the profiler on.
//! * `perf-gate` — holds freshly-run bench artifacts (`BENCH_mem`,
//!   `BENCH_obs`, `BENCH_pool`, `BENCH_osed`, `BENCH_profile`, one
//!   shared schema) to the committed snapshots in `perf/baselines/`:
//!   one table of declarative bounds on machine-robust quantities
//!   (deterministic allocation counts, self-relative overhead
//!   percentages, scheduling and cross-algorithm ratios), evaluated by
//!   one loop with configurable noise tolerance. See docs/PERF.md.
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
// A small JSON reader, shared by trace-check and perf-gate
// ---------------------------------------------------------------------

/// A parsed JSON value; objects keep their key order.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), at: 0 };
        let value = p.value(0)?;
        match p.peek() {
            None => Ok(value),
            Some(_) => Err(p.fail("text after the document")),
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str_at(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Str(s)) => s,
            _ => "",
        }
    }

    fn num_at(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }
}

impl std::fmt::Display for Json {
    /// A scalar as written in a bound or message (`0.99`, `work_steal`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write!(f, "{s}"),
            Json::Arr(_) | Json::Obj(_) => write!(f, "{self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: &str) -> String {
        format!("invalid JSON: {what} at byte {}", self.at)
    }

    /// The next non-blank byte, left unread.
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        self.s.get(self.at).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.at += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        let open = self.peek();
        if depth > 64 {
            return Err(self.fail("nesting deeper than 64"));
        }
        let close = match open {
            Some(b'"') => return self.string().map(Json::Str),
            Some(b'{') => b'}',
            Some(b'[') => b']',
            _ => return self.scalar(),
        };
        self.at += 1;
        let (mut fields, mut items, mut first) = (Vec::new(), Vec::new(), true);
        while !self.eat(close) {
            if !std::mem::take(&mut first) && !self.eat(b',') {
                return Err(self.fail("expected `,`"));
            }
            if close == b']' {
                items.push(self.value(depth + 1)?);
                continue;
            }
            self.peek();
            let key = self.string()?;
            if !self.eat(b':') {
                return Err(self.fail("expected `:`"));
            }
            fields.push((key, self.value(depth + 1)?));
        }
        Ok(if close == b'}' { Json::Obj(fields) } else { Json::Arr(items) })
    }

    fn scalar(&mut self) -> Result<Json, String> {
        let rest = &self.s[self.at..];
        let len =
            rest.iter().take_while(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c)).count();
        let token = std::str::from_utf8(&rest[..len]).unwrap_or_default();
        let value = match token {
            "true" => Json::Bool(true),
            "false" => Json::Bool(false),
            "null" => Json::Null,
            _ if token.starts_with(|c: char| c == '-' || c.is_ascii_digit()) => {
                match token.parse::<f64>() {
                    Ok(n) if n.is_finite() => Json::Num(n),
                    _ => return Err(self.fail("bad number")),
                }
            }
            _ => return Err(self.fail("expected a value")),
        };
        self.at += len;
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.at) != Some(&b'"') {
            return Err(self.fail("expected a string"));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            let rest = &self.s[self.at..];
            let run = rest.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
            let run = run.ok_or_else(|| self.fail("unterminated string"))?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| self.fail("bad UTF-8"))?);
            self.at += run + 1;
            match rest[run] {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => return Err(self.fail("control character in a string")),
            }
            let escape = rest.get(run + 1).copied().unwrap_or(0);
            self.at += 1;
            if let Some(i) = b"\"\\/bfnrt".iter().position(|&e| e == escape) {
                out.push(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
            } else if escape == b'u' {
                let hex = rest.get(run + 2..run + 6).and_then(|h| std::str::from_utf8(h).ok());
                let Some(code) = hex.and_then(|h| u32::from_str_radix(h, 16).ok()) else {
                    return Err(self.fail("bad \\u escape"));
                };
                // A lone surrogate half reads as U+FFFD.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.at += 4;
            } else {
                return Err(self.fail("bad escape"));
            }
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
const REQUIRED_EVENTS: &[(&str, &str)] = &[
    ("thread_sort_index", "worker-lane ordering metadata"),
    ("pool.worker_phase", "profiler phase instants (was the profiler on?)"),
];

fn trace_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("trace-check: usage: cargo xtask trace-check <trace.json>");
        return ExitCode::FAILURE;
    };
    let report = std::fs::read_to_string(path)
        .map_err(|err| vec![format!("cannot read {path}: {err}")])
        .and_then(|text| check_trace(&text));
    match report {
        Ok(summary) => {
            println!("trace-check: {path} ok — {summary}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in &problems {
                eprintln!("trace-check: {path}: {p}");
            }
            eprintln!("trace-check: {} problem(s)", problems.len());
            ExitCode::FAILURE
        }
    }
}

/// Parses a Chrome-tracing document and checks that every required
/// layer and profiler marker is present; returns a one-line summary.
fn check_trace(text: &str) -> Result<String, Vec<String>> {
    let doc = Json::parse(text).map_err(|e| vec![e])?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err(vec!["no top-level `traceEvents` array".into()]);
    };
    let has = |name: &str| events.iter().any(|e| e.str_at("name") == name);
    let mut problems = Vec::new();
    for name in REQUIRED_SPANS {
        if !has(name) {
            problems.push(format!("no `{name}` event — that layer is missing from the trace"));
        }
    }
    for (name, what) in REQUIRED_EVENTS {
        if !has(name) {
            problems.push(format!("missing {what} (no `{name}` event)"));
        }
    }
    let worker_lane = |e: &Json| {
        e.str_at("name") == "thread_name"
            && e.get("args").is_some_and(|a| a.str_at("name").starts_with("worker-"))
    };
    if !events.iter().any(worker_lane) {
        problems.push("missing a named pool-worker lane (worker-N thread_name metadata)".into());
    }
    if !problems.is_empty() {
        return Err(problems);
    }
    let count = |ph: &str| events.iter().filter(|e| e.str_at("ph") == ph).count();
    Ok(format!(
        "{} span begins / {} ends, {} instants, {} counter samples; all {} required layers and \
         {} lane/profiler markers present",
        count("B"),
        count("E"),
        count("i"),
        count("C"),
        REQUIRED_SPANS.len(),
        REQUIRED_EVENTS.len() + 1,
    ))
}

// ---------------------------------------------------------------------
// perf-gate: hold fresh bench artifacts to the committed baselines
// ---------------------------------------------------------------------

/// One bound kind. Row arguments are selectors: `key=value` tokens keep
/// the rows with that label, and `^key` keeps only the rows at the
/// largest value of that label (several compare in order). A failed
/// `Drift`/`Require`/`Point` stops its artifact's later bounds: unlike
/// configs do not compare.
enum Rule {
    /// A config value equals the baseline's.
    Drift(&'static str),
    /// A config value is this literal.
    Require(&'static str, &'static str),
    /// The `^` labels of the selected rows equal the baseline's.
    Point(&'static str),
    /// A deterministic count: fresh ≤ baseline × (1 + `--tolerance`%).
    Count(&'static str, &'static str),
    /// A self-relative overhead percentage: fresh ≤ max(baseline, 0) +
    /// `--overhead-slack` points (a negative baseline is noise).
    Overhead(&'static str, &'static str),
    /// An absolute cap on the fresh value, plus `--overhead-slack`
    /// points when `slack`.
    Cap { rows: &'static str, metric: &'static str, max: f64, slack: bool },
    /// In the fresh run, row `a`'s value is strictly below row `b`'s.
    Below { a: &'static str, b: &'static str, metric: &'static str },
    /// Each of `rows` is within `k`× the minimum over the `others`, each
    /// matched to it on the labels listed alongside.
    NearMin {
        rows: &'static str,
        others: &'static [(&'static str, &'static [&'static str])],
        metric: &'static str,
        k: f64,
    },
}

/// The largest 99%-similarity row: the regime osed exists for.
const OSED_99: &str = "table=similarity similarity=0.99 ^size";

/// Every perf gate, per artifact. Only machine-robust quantities gate:
/// deterministic allocation counts, self-relative overhead percentages
/// and ratios of rows from one run — never absolute wall time.
const BOUNDS: &[(&str, &[Rule])] = &[
    (
        "BENCH_mem.json",
        &[
            // Counts are meaningless without the instrumented allocator.
            Rule::Require("allocator_installed", "true"),
            Rule::Drift("order"),
            Rule::Drift("multiplies"),
            Rule::Count("variant=naive", "allocs"),
            Rule::Count("variant=naive", "peak_live_bytes"),
            Rule::Count("variant=memopt", "allocs"),
            Rule::Count("variant=memopt", "peak_live_bytes"),
            // The point of the memory optimization.
            Rule::Below { a: "variant=memopt", b: "variant=naive", metric: "allocs" },
            Rule::Below { a: "variant=memopt", b: "variant=naive", metric: "peak_live_bytes" },
        ],
    ),
    (
        "BENCH_obs.json",
        &[
            Rule::Overhead("variant=disabled", "overhead_percent"),
            Rule::Overhead("variant=enabled", "overhead_percent"),
            Rule::Overhead("variant=recorder_on", "overhead_percent"),
        ],
    ),
    (
        "BENCH_pool.json",
        &[
            Rule::Point("mode=planned ^size ^threads"),
            // The plan has one job — pick the faster schedule — and a
            // wrong pick costs more than 10%: work_steal at its fastest
            // swept grain for the point, seq at t=1 for the size.
            Rule::NearMin {
                rows: "mode=planned",
                others: &[("mode=seq", &["size"]), ("mode=work_steal", &["size", "threads"])],
                metric: "ns_per_cell",
                k: 1.10,
            },
        ],
    ),
    (
        "BENCH_profile.json",
        &[
            Rule::Drift("par_grain"),
            Rule::Point("variant=profiler_on ^size ^threads"),
            // Profiling off, the hooks are one relaxed load each: the
            // off-vs-off A/A may sit at most 2% (plus noise) above zero.
            Rule::Cap {
                rows: "variant=profiler_off_b",
                metric: "overhead_percent",
                max: 2.0,
                slack: true,
            },
            Rule::Overhead("variant=profiler_on", "overhead_percent"),
            Rule::Point("mode=work_steal ^size ^threads"),
        ],
    ),
    (
        "BENCH_osed.json",
        &[
            Rule::Require("allocator_installed", "true"),
            Rule::Drift("sigma"),
            Rule::Drift("runs"),
            Rule::Point(OSED_99),
            Rule::Count(OSED_99, "allocs"),
            Rule::Count(OSED_99, "ratio_vs_best_grid"),
            // At least 5× faster than the best grid path, baseline or not.
            Rule::Cap { rows: OSED_99, metric: "ratio_vs_best_grid", max: 0.2, slack: false },
        ],
    ),
];

/// A bench artifact as `slcs bench-*` writes it: `{"bench", "host":
/// {"nproc", "isa"}, "config": {…}, "rows": [{"labels", "metrics"}]}`,
/// flat scalars throughout. `side` (fresh or baseline) names it in
/// messages.
struct Artifact {
    doc: Json,
    side: &'static str,
}

impl Artifact {
    fn parse(text: &str, side: &'static str) -> Result<Artifact, String> {
        let doc = Json::parse(text)?;
        let host = doc.get("host");
        match (host.and_then(|h| h.get("nproc")), host.and_then(|h| h.get("isa"))) {
            (Some(Json::Num(_)), Some(Json::Str(_))) => {}
            _ => return Err("no host.nproc and host.isa".into()),
        }
        let (Some(Json::Obj(_)), Some(Json::Arr(rows))) = (doc.get("config"), doc.get("rows"))
        else {
            return Err("no config object and rows array".into());
        };
        for row in rows {
            let (Some(Json::Obj(_)), Some(Json::Obj(metrics))) =
                (row.get("labels"), row.get("metrics"))
            else {
                return Err("a row without labels and metrics objects".into());
            };
            if metrics.iter().any(|(_, v)| !matches!(v, Json::Num(_) | Json::Null)) {
                return Err("a non-numeric metric".into());
            }
        }
        Ok(Artifact { doc, side })
    }

    fn config(&self, key: &str) -> Option<&Json> {
        self.doc.get("config")?.get(key)
    }

    /// The rows `spec` selects. Selecting none, or an oversubscribed
    /// row (`threads` above `host.nproc`, by its label or the config's),
    /// is an error: no bound may pass vacuously or rest on an
    /// oversubscribed measurement.
    fn select(&self, spec: &str) -> Result<Vec<&Json>, String> {
        let rows = match self.doc.get("rows") {
            Some(Json::Arr(rows)) => &rows[..],
            _ => &[],
        };
        let wanted = |row: &&Json| {
            spec.split_whitespace().filter_map(|t| t.split_once('=')).all(|(k, v)| {
                row.get("labels").and_then(|l| l.get(k)).is_some_and(|l| l.to_string() == v)
            })
        };
        let mut picked: Vec<&Json> = rows.iter().filter(wanted).collect();
        let top = |row: &Json| -> Vec<f64> {
            let labels = row.get("labels");
            top_keys(spec).map(|k| labels.and_then(|l| l.num_at(k)).unwrap_or(f64::MIN)).collect()
        };
        let best = picked.iter().map(|r| top(r)).reduce(|a, b| if b > a { b } else { a });
        picked.retain(|r| Some(top(r)) == best);
        if picked.is_empty() {
            return Err(format!("{}: no row matches {spec}", self.side));
        }
        let nproc = self.doc.get("host").and_then(|h| h.num_at("nproc")).unwrap_or(0.0);
        let config_threads = self.doc.get("config").and_then(|c| c.num_at("threads"));
        for row in &picked {
            let labelled = row.get("labels").and_then(|l| l.get("oversubscribed"));
            let threads = row.get("labels").and_then(|l| l.num_at("threads")).or(config_threads);
            if labelled == Some(&Json::Bool(true)) || threads.is_some_and(|t| t > nproc) {
                let at = point(row, &[]);
                return Err(format!(
                    "{}: {spec} reads an oversubscribed row ({at}; host nproc {nproc})",
                    self.side
                ));
            }
        }
        Ok(picked)
    }

    /// `metric` of the one row `spec` selects.
    fn value(&self, spec: &str, metric: &str) -> Result<f64, String> {
        match self.select(spec)?[..] {
            [row] => row
                .get("metrics")
                .and_then(|m| m.num_at(metric))
                .ok_or_else(|| format!("{}: {spec} has no {metric}", self.side)),
            ref many => Err(format!("{}: {} rows match {spec}, not one", self.side, many.len())),
        }
    }
}

/// The `^key` label names of a row selector.
fn top_keys(spec: &str) -> impl Iterator<Item = &str> {
    spec.split_whitespace().filter_map(|t| t.strip_prefix('^'))
}

/// `k=v …` for the labels of `row` named in `keys` (all when empty).
fn point(row: &Json, keys: &[&str]) -> String {
    let Some(Json::Obj(labels)) = row.get("labels") else { return String::new() };
    let shown = labels.iter().filter(|(k, _)| keys.is_empty() || keys.contains(&k.as_str()));
    shown.map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// Evaluates one bound (`tol` is `--tolerance` percent, `slack` is
/// `--overhead-slack` points).
fn check(
    rule: &Rule,
    fresh: &Artifact,
    base: &Artifact,
    tol: f64,
    slack: f64,
) -> Result<(), String> {
    let show = |v: Option<&Json>| v.map_or("absent".to_string(), Json::to_string);
    let fail = |ok: bool, why: String| if ok { Ok(()) } else { Err(why) };
    match *rule {
        Rule::Drift(key) => {
            let (f, b) = (show(fresh.config(key)), show(base.config(key)));
            fail(f == b, format!("config drift: {key} fresh {f} vs baseline {b}"))
        }
        Rule::Require(key, want) => {
            let v = show(fresh.config(key));
            fail(v == want, format!("fresh run reports {key} = {v}, needs {want}"))
        }
        Rule::Point(spec) => {
            let keys: Vec<&str> = top_keys(spec).collect();
            let (f, b) =
                (point(fresh.select(spec)?[0], &keys), point(base.select(spec)?[0], &keys));
            fail(f == b, format!("config drift: {spec} is {f} fresh vs {b} baseline"))
        }
        Rule::Count(spec, metric) => {
            let (f, b) = (fresh.value(spec, metric)?, base.value(spec, metric)?);
            let over = 100.0 * (f - b) / b.max(f64::MIN_POSITIVE);
            let why =
                format!("{spec} {metric} regressed: {f} vs baseline {b} (+{over:.1}% > {tol}%)");
            fail(f <= b * (1.0 + tol / 100.0), why)
        }
        Rule::Overhead(spec, metric) => {
            let (f, b) = (fresh.value(spec, metric)?, base.value(spec, metric)?.max(0.0));
            let why = format!(
                "{spec} {metric} regressed: {f:.2}% vs baseline {b:.2}% \
                 (+{:.2} points > {slack} point slack)",
                f - b
            );
            fail(f <= b + slack, why)
        }
        Rule::Cap { rows, metric, max, slack: with_slack } => {
            let (f, cap) = (fresh.value(rows, metric)?, if with_slack { max + slack } else { max });
            fail(f <= cap, format!("{rows} {metric} {f} is over its cap {cap}"))
        }
        Rule::Below { a, b, metric } => {
            let (va, vb) = (fresh.value(a, metric)?, fresh.value(b, metric)?);
            fail(va < vb, format!("{a} {metric} {va} is no longer below {b} {metric} {vb}"))
        }
        Rule::NearMin { rows, others, metric, k } => {
            let mut lost = Vec::new();
            for row in fresh.select(rows)? {
                let v = row.get("metrics").and_then(|m| m.num_at(metric));
                let v = v.ok_or_else(|| format!("fresh: {} has no {metric}", point(row, &[])))?;
                let mut best = f64::INFINITY;
                for &(other, same) in others {
                    let at = point(row, same);
                    let rivals = fresh.select(other)?.into_iter().filter(|o| point(o, same) == at);
                    let min =
                        rivals.filter_map(|o| o.get("metrics")?.num_at(metric)).reduce(f64::min);
                    best = best.min(min.ok_or_else(|| format!("fresh: no {other} row at {at}"))?);
                }
                if v > best * k {
                    lost.push(format!("{v:.4} at {} (best {best:.4})", point(row, &[])));
                }
            }
            let why = format!("{rows} {metric} lost by more than {k}x: {}", lost.join("; "));
            fail(lost.is_empty(), why)
        }
    }
}

/// Holds one artifact to its bounds, in order.
fn gate(rules: &[Rule], fresh: &Artifact, base: &Artifact, tol: f64, slack: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for rule in rules {
        if let Err(problem) = check(rule, fresh, base, tol, slack) {
            problems.push(problem);
            if matches!(rule, Rule::Drift(_) | Rule::Require(..) | Rule::Point(_)) {
                break;
            }
        }
    }
    problems
}

/// Every artifact of [`BOUNDS`], fresh from `fresh_dir` against its
/// baseline in `base_dir`. A missing or malformed file on either side
/// is a problem, never a skip.
fn gate_dirs(fresh_dir: &Path, base_dir: &Path, tol: f64, slack: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for (file, rules) in BOUNDS {
        let read = |dir: &Path, side| {
            let path = dir.join(file);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{file}: {side} {} unreadable: {e}", path.display()))?;
            Artifact::parse(&text, side)
                .map_err(|e| format!("{file}: {side} {}: {e}", path.display()))
        };
        let (fresh, base) = match (read(fresh_dir, "fresh"), read(base_dir, "baseline")) {
            (Ok(fresh), Ok(base)) => (fresh, base),
            (fresh, base) => {
                problems.extend([fresh.err(), base.err()].into_iter().flatten());
                continue;
            }
        };
        problems
            .extend(gate(rules, &fresh, &base, tol, slack).iter().map(|p| format!("{file}: {p}")));
    }
    problems
}

/// `cargo xtask perf-gate` — holds freshly run quick-bench artifacts
/// (`--fresh`, default `.`) to the committed snapshots in
/// `perf/baselines/` (`--baselines`) under [`BOUNDS`]. See docs/PERF.md
/// "Perf gating".
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
    let problems = gate_dirs(Path::new(&fresh_dir), Path::new(&base_dir), tolerance, slack);
    if problems.is_empty() {
        println!(
            "perf-gate: {} artifact(s) within tolerance \
             ({tolerance}% counts/ratios, {slack} overhead points)",
            BOUNDS.len()
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

    /// An artifact in the bench schema on a 2-core host: config fields,
    /// then one `labels | metrics` line (object bodies) per row.
    fn artifact(config: &str, rows: &str) -> String {
        let rows: Vec<String> = rows
            .lines()
            .filter_map(|row| row.split_once('|'))
            .map(|(l, m)| format!(r#"    {{"labels": {{{l}}}, "metrics": {{{m}}}}}"#))
            .collect();
        let host = r#""host": {"nproc": 2, "isa": "scalar"}"#;
        format!(
            "{{\"bench\": \"t\", {host}, \"config\": {{{config}}}, \"rows\": [\n{}\n]}}",
            rows.join(",\n")
        )
    }

    /// `file`'s bounds at tolerance 25% and slack 10 points.
    fn gate_file(file: &str, fresh: &str, base: &str) -> Vec<String> {
        let rules = BOUNDS.iter().find(|(f, _)| *f == file).unwrap().1;
        let (fresh, base) =
            (Artifact::parse(fresh, "fresh").unwrap(), Artifact::parse(base, "baseline").unwrap());
        gate(rules, &fresh, &base, 25.0, 10.0)
    }

    fn has(problems: &[String], needle: &str) -> bool {
        problems.iter().any(|p| p.contains(needle))
    }

    #[test]
    fn json_reader_parses_documents_and_rejects_malformed_text() {
        let doc = Json::parse(r#" {"a": [1, -2.5e3, true, null], "s": "q\"\\é\n", "o": {}} "#);
        let doc = doc.unwrap();
        let a = vec![Json::Num(1.0), Json::Num(-2500.0), Json::Bool(true), Json::Null];
        assert_eq!(doc.get("a"), Some(&Json::Arr(a)));
        assert_eq!(doc.str_at("s"), "q\"\\\u{e9}\n");
        assert_eq!(doc.get("o"), Some(&Json::Obj(Vec::new())));
        for bad in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            r#"{"a" 1}"#,
            "{1: 2}",
            "{} x",
            "\"open",
            "[tru]",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        // The artifact schema on top: host, config and numeric metrics.
        let good = artifact(r#""order": 512"#, r#""variant": "naive" | "allocs": 3"#);
        assert!(Artifact::parse(&good, "fresh").is_ok());
        for broken in [good.replace("\"host\"", "\"hots\""), good.replace(": 3", ": \"3\"")] {
            assert!(Artifact::parse(&broken, "fresh").is_err(), "{broken}");
        }
    }

    #[test]
    fn trace_check_parses_the_timeline_and_requires_every_layer() {
        let names = REQUIRED_SPANS.iter().chain(&["thread_sort_index", "pool.worker_phase"]);
        let mut events: Vec<String> =
            names.map(|n| format!(r#"{{"name":"{n}","ph":"B"}}"#)).collect();
        events.push(r#"{"name":"thread_name","ph":"M","args":{"name":"worker-0"}}"#.into());
        let trace = format!("{{\"traceEvents\":[{}]}}", events.join(","));
        assert!(check_trace(&trace).is_ok(), "{:?}", check_trace(&trace));
        let problems = check_trace(&trace.replace("osed.bfs_round", "osed.other")).unwrap_err();
        assert!(has(&problems, "no `osed.bfs_round` event"), "{problems:?}");
        let problems = check_trace(&trace.replace("worker-0", "main")).unwrap_err();
        assert!(has(&problems, "worker-N"), "{problems:?}");
        // Balanced but not JSON: the old brace count let this through.
        assert!(check_trace(&trace.replace("},{", "},,{")).is_err());
    }

    fn mem_json(
        memopt_allocs: u64,
        memopt_peak: u64,
        naive_allocs: u64,
        naive_peak: u64,
        installed: bool,
    ) -> String {
        artifact(
            &format!(r#""order": 512, "multiplies": 4, "allocator_installed": {installed}"#),
            &format!(
                r#""variant": "naive" | "allocs": {naive_allocs}, "peak_live_bytes": {naive_peak}
                   "variant": "memopt" | "allocs": {memopt_allocs}, "peak_live_bytes": {memopt_peak}"#
            ),
        )
    }

    #[test]
    fn gate_mem_passes_identical_runs() {
        let j = mem_json(4, 2048, 4000, 900_000, true);
        assert!(gate_file("BENCH_mem.json", &j, &j).is_empty());
    }

    #[test]
    fn gate_mem_fails_on_doctored_baseline() {
        let base = mem_json(4, 2048, 2000, 400_000, true); // doctored: halved counts
        let fresh = mem_json(4, 2048, 4000, 900_000, true);
        let problems = gate_file("BENCH_mem.json", &fresh, &base);
        assert!(has(&problems, "variant=naive allocs regressed"), "{problems:?}");
        assert!(has(&problems, "variant=naive peak_live_bytes regressed"), "{problems:?}");
    }

    #[test]
    fn gate_mem_enforces_memopt_beats_naive() {
        let bad = mem_json(5000, 2048, 4000, 900_000, true);
        let problems = gate_file("BENCH_mem.json", &bad, &bad);
        assert!(has(&problems, "allocs 5000 is no longer below"), "{problems:?}");
        let bad_peak = mem_json(4, 900_000, 4000, 900_000, true);
        let problems = gate_file("BENCH_mem.json", &bad_peak, &bad_peak);
        assert!(has(&problems, "peak_live_bytes 900000 is no longer below"), "{problems:?}");
    }

    #[test]
    fn gate_mem_requires_instrumented_allocator_and_matching_config() {
        let fresh = mem_json(4, 2048, 4000, 900_000, false);
        let problems = gate_file("BENCH_mem.json", &fresh, &fresh);
        assert!(has(&problems, "allocator_installed = false"), "{problems:?}");
        let fresh = mem_json(4, 2048, 4000, 900_000, true);
        let base = fresh.replace("\"order\": 512", "\"order\": 1024");
        let problems = gate_file("BENCH_mem.json", &fresh, &base);
        assert_eq!(problems, ["config drift: order fresh 512 vs baseline 1024"]);
    }

    fn obs_json(disabled: f64, enabled: f64, recorder: f64) -> String {
        artifact(
            r#""size": 1024"#,
            &format!(
                r#""variant": "untraced", "threads": 2 | "millis": 1.0
                   "variant": "disabled", "threads": 2 | "overhead_percent": {disabled}
                   "variant": "enabled", "threads": 2 | "overhead_percent": {enabled}
                   "variant": "recorder_off" | "millis": 1.0
                   "variant": "recorder_on" | "overhead_percent": {recorder}"#
            ),
        )
    }

    #[test]
    fn gate_obs_allows_slack_but_fails_past_it() {
        let base = obs_json(1.0, 8.0, 1.0);
        assert!(gate_file("BENCH_obs.json", &obs_json(9.0, 15.0, 2.0), &base).is_empty());
        let problems = gate_file("BENCH_obs.json", &obs_json(12.0, 8.0, 1.0), &base);
        assert!(has(&problems, "variant=disabled overhead_percent regressed"), "{problems:?}");
        // The serving-path recorder overhead gates the same way.
        let problems = gate_file("BENCH_obs.json", &obs_json(1.0, 8.0, 15.0), &base);
        assert!(has(&problems, "variant=recorder_on overhead_percent regressed"), "{problems:?}");
        // A baseline without the recorder row is reported, not ignored.
        let old_base = base.replace("recorder_on", "recorder_gone");
        let problems = gate_file("BENCH_obs.json", &obs_json(1.0, 8.0, 1.0), &old_base);
        assert!(has(&problems, "baseline: no row matches variant=recorder_on"), "{problems:?}");
        // Negative overheads (faster than untraced: measurement noise)
        // are always acceptable.
        assert!(gate_file("BENCH_obs.json", &obs_json(-0.5, -0.1, -0.2), &base).is_empty());
        // A negative *baseline* clamps to zero instead of tightening
        // the budget below the slack.
        let negative = obs_json(-5.0, 8.0, -1.0);
        assert!(gate_file("BENCH_obs.json", &obs_json(9.0, 8.0, 1.0), &negative).is_empty());
    }

    /// Two sweep points (256² and 512², both t=2) with seq at 1.0
    /// ns/cell and the work_steal and planned rows parameterized.
    fn plan_json(ws_large: f64, planned_small: f64, planned_large: f64) -> String {
        let mut rows = String::new();
        for (size, ws, planned, route) in
            [(256, 2.0, planned_small, "seq"), (512, ws_large, planned_large, "work_steal")]
        {
            rows += &format!(
                r#""size": {size}, "threads": 1, "mode": "seq" | "ns_per_cell": 1.0
                   "size": {size}, "threads": 2, "mode": "work_steal", "grain": 256 | "ns_per_cell": {ws:.4}
                   "size": {size}, "threads": 2, "mode": "planned", "route": "{route}" | "ns_per_cell": {planned:.4}
                "#
            );
        }
        artifact(r#""runs": 3"#, &rows)
    }

    #[test]
    fn gate_plan_passes_when_the_plan_tracks_the_faster_schedule() {
        // seq plan at 256² (work_steal slower), work_steal plan at 512².
        let good = plan_json(0.8, 1.0, 0.85);
        assert!(gate_file("BENCH_pool.json", &good, &good).is_empty());
        // Planned faster than both rows is an improvement, not a failure.
        let faster = plan_json(0.8, 0.5, 0.5);
        assert!(gate_file("BENCH_pool.json", &faster, &faster).is_empty());
    }

    #[test]
    fn gate_plan_fails_a_wrong_pick_at_every_point() {
        // At 256² the seq plan is held to work_steal when that is faster.
        let bad = plan_json(0.8, 1.0, 0.8).replacen("2.0000", "0.5000", 1);
        let problems = gate_file("BENCH_pool.json", &bad, &bad);
        assert!(has(&problems, "1.0000 at size=256 threads=2 mode=planned"), "{problems:?}");
        // At 512² a work_steal plan slower than seq fails too.
        let bad = plan_json(1.5, 1.0, 1.5);
        let problems = gate_file("BENCH_pool.json", &bad, &bad);
        assert!(has(&problems, "1.5000 at size=512 threads=2 mode=planned"), "{problems:?}");
    }

    #[test]
    fn gate_plan_compares_against_the_fastest_work_steal_grain() {
        // A second, faster work_steal grain at 512² makes the planned
        // row (at the production grain) lose by more than 10%.
        let fast = r#"{"labels": {"size": 512, "threads": 2, "mode": "work_steal", "grain": 2048}, "metrics": {"ns_per_cell": 0.5}}"#;
        let two = plan_json(0.8, 1.0, 0.8).replacen("\n]", &format!(",\n{fast}\n]"), 1);
        let problems = gate_file("BENCH_pool.json", &two, &two);
        assert!(has(&problems, "at size=512 threads=2 mode=planned"), "{problems:?}");
    }

    #[test]
    fn gate_plan_detects_missing_rows_and_config_drift() {
        let fresh = plan_json(0.8, 1.0, 0.85);
        let base = fresh.replace("\"size\": 512", "\"size\": 1024");
        let problems = gate_file("BENCH_pool.json", &fresh, &base);
        assert!(
            has(&problems, "config drift: mode=planned ^size ^threads is size=512"),
            "{problems:?}"
        );
        let no_plan = fresh.replace("\"planned\"", "\"other\"");
        let problems = gate_file("BENCH_pool.json", &no_plan, &fresh);
        assert!(has(&problems, "fresh: no row matches mode=planned"), "{problems:?}");
        let no_ws = fresh.replace("\"work_steal\", \"grain\"", "\"renamed\", \"grain\"");
        let problems = gate_file("BENCH_pool.json", &no_ws, &fresh);
        assert!(has(&problems, "fresh: no row matches mode=work_steal"), "{problems:?}");
        let no_ws_256 = fresh.replacen("\"work_steal\", \"grain\"", "\"renamed\", \"grain\"", 1);
        let problems = gate_file("BENCH_pool.json", &no_ws_256, &fresh);
        assert!(has(&problems, "no mode=work_steal row at size=256 threads=2"), "{problems:?}");
    }

    /// Two sweep points (512² t=1 leader-only, 512² t=2), plus the
    /// overhead rows with the A/A and profiler-on deltas parameterized.
    fn profile_json(off: f64, on: f64) -> String {
        artifact(
            r#""par_grain": 128"#,
            &format!(
                r#""size": 512, "threads": 1, "mode": "work_steal" | "utilization": 0.0
                   "size": 512, "threads": 2, "mode": "work_steal" | "utilization": 0.9
                   "variant": "profiler_off_a", "size": 512, "threads": 2 | "millis": 1.0
                   "variant": "profiler_off_b", "size": 512, "threads": 2 | "overhead_percent": {off}
                   "variant": "profiler_on", "size": 512, "threads": 2 | "overhead_percent": {on}"#
            ),
        )
    }

    #[test]
    fn gate_profile_pins_the_off_path_near_zero() {
        let base = profile_json(0.4, 1.3);
        // Within budget + slack (2 + 10 points) passes; past it fails.
        assert!(gate_file("BENCH_profile.json", &profile_json(11.0, 1.3), &base).is_empty());
        let problems = gate_file("BENCH_profile.json", &profile_json(13.0, 1.3), &base);
        assert!(
            has(&problems, "profiler_off_b overhead_percent 13 is over its cap 12"),
            "{problems:?}"
        );
        // Negative A/A (second run faster) is noise, never a failure.
        assert!(gate_file("BENCH_profile.json", &profile_json(-3.0, 1.3), &base).is_empty());
    }

    #[test]
    fn gate_profile_holds_on_overhead_to_the_baseline() {
        let base = profile_json(0.4, 1.3);
        let problems = gate_file("BENCH_profile.json", &profile_json(0.4, 14.0), &base);
        assert!(has(&problems, "variant=profiler_on overhead_percent regressed"), "{problems:?}");
        // A negative baseline clamps to zero instead of tightening the
        // budget below the slack.
        let noisy_base = profile_json(0.4, -2.0);
        assert!(gate_file("BENCH_profile.json", &profile_json(0.4, 9.0), &noisy_base).is_empty());
    }

    #[test]
    fn gate_profile_detects_config_drift_and_missing_fields() {
        let fresh = profile_json(0.4, 1.3);
        let base =
            fresh.replace("\"profiler_on\", \"size\": 512", "\"profiler_on\", \"size\": 1024");
        let problems = gate_file("BENCH_profile.json", &fresh, &base);
        assert!(has(&problems, "config drift: variant=profiler_on"), "{problems:?}");
        let gutted = fresh.replacen("\"overhead_percent\"", "\"overhead_was\"", 1);
        let problems = gate_file("BENCH_profile.json", &gutted, &gutted);
        assert!(
            has(&problems, "fresh: variant=profiler_off_b has no overhead_percent"),
            "{problems:?}"
        );
        let resized =
            fresh.replace("512, \"threads\": 2, \"mode\"", "1024, \"threads\": 2, \"mode\"");
        let problems = gate_file("BENCH_profile.json", &resized, &fresh);
        assert!(has(&problems, "config drift: mode=work_steal ^size ^threads"), "{problems:?}");
    }

    fn osed_json(allocs: u64, ratio: f64, installed: bool) -> String {
        artifact(
            &format!(r#""sigma": 4, "runs": 3, "threads": 2, "allocator_installed": {installed}"#),
            &format!(
                r#""table": "grid", "size": 4096 | "dp_millis": 50.0
                   "table": "similarity", "size": 1024, "similarity": 0.99 | "allocs": 9, "ratio_vs_best_grid": 0.01
                   "table": "similarity", "size": 4096, "similarity": 0.99 | "allocs": {allocs}, "ratio_vs_best_grid": {ratio}
                   "table": "similarity", "size": 4096, "similarity": 0.999 | "allocs": 999, "ratio_vs_best_grid": 0.9"#
            ),
        )
    }

    #[test]
    fn gate_osed_gates_the_largest_99_percent_row_only() {
        let base = osed_json(12, 0.05, true);
        assert!(gate_file("BENCH_osed.json", &base, &base).is_empty());
        // The 0.999 row's terrible ratio and alloc count never gate.
        let problems = gate_file("BENCH_osed.json", &osed_json(20, 0.05, true), &base);
        assert!(
            has(&problems, "similarity=0.99 ^size allocs regressed: 20 vs baseline 12"),
            "{problems:?}"
        );
        let problems = gate_file("BENCH_osed.json", &osed_json(12, 0.08, true), &base);
        assert!(has(&problems, "^size ratio_vs_best_grid regressed"), "{problems:?}");
    }

    #[test]
    fn gate_osed_fails_outright_past_the_five_x_floor() {
        // Doctoring the baseline to match cannot save a ratio above the
        // absolute ceiling: the 5× claim is part of the contract.
        let slow = osed_json(12, 0.3, true);
        let problems = gate_file("BENCH_osed.json", &slow, &slow);
        assert!(has(&problems, "ratio_vs_best_grid 0.3 is over its cap 0.2"), "{problems:?}");
    }

    #[test]
    fn gate_osed_requires_instrumented_allocator_and_matching_config() {
        let good = osed_json(12, 0.05, true);
        let problems = gate_file("BENCH_osed.json", &osed_json(12, 0.05, false), &good);
        assert!(has(&problems, "allocator_installed"), "{problems:?}");
        let drifted = good.replace("\"sigma\": 4", "\"sigma\": 26");
        let problems = gate_file("BENCH_osed.json", &drifted, &good);
        assert!(has(&problems, "config drift: sigma"), "{problems:?}");
        let resized = good.replace("4096, \"similarity\": 0.99 ", "2048, \"similarity\": 0.99 ");
        let problems = gate_file("BENCH_osed.json", &resized, &good);
        assert!(has(&problems, "is size=2048 fresh vs size=4096 baseline"), "{problems:?}");
    }

    #[test]
    fn gates_refuse_oversubscribed_rows() {
        // A 4-thread row on the 2-core host, labelled or not.
        let over = plan_json(0.8, 1.0, 0.85).replace("\"threads\": 2", "\"threads\": 4");
        let problems = gate_file("BENCH_pool.json", &over, &over);
        assert!(has(&problems, "oversubscribed row (size=512 threads=4"), "{problems:?}");
        let base = obs_json(1.0, 8.0, 1.0);
        let labelled = base.replace("\"recorder_on\"", "\"recorder_on\", \"oversubscribed\": true");
        let problems = gate_file("BENCH_obs.json", &labelled, &base);
        assert!(
            has(&problems, "fresh: variant=recorder_on reads an oversubscribed"),
            "{problems:?}"
        );
        // The config's thread count applies to rows without their own.
        let osed = osed_json(12, 0.05, true).replace("\"threads\": 2", "\"threads\": 8");
        assert!(has(&gate_file("BENCH_osed.json", &osed, &osed), "oversubscribed"));
    }

    #[test]
    fn perf_gate_fails_on_a_missing_baseline_and_passes_the_committed_ones() {
        let baselines = repo_root().join("perf/baselines");
        // Every committed baseline holds against itself.
        let problems = gate_dirs(&baselines, &baselines, 25.0, 10.0);
        assert!(problems.is_empty(), "{problems:?}");
        // No baseline on file is a failure, never a skip.
        let empty = std::env::temp_dir().join("xtask_perf_gate_no_baselines");
        std::fs::create_dir_all(&empty).unwrap();
        let problems = gate_dirs(&baselines, &empty, 25.0, 10.0);
        assert_eq!(problems.len(), BOUNDS.len(), "{problems:?}");
        for (file, _) in BOUNDS {
            assert!(has(&problems, &format!("{file}: baseline ")), "{file}: {problems:?}");
        }
    }
}
