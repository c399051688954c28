//! Implementation of the `slcs` command-line tool: argument parsing and
//! the subcommands, kept in a library so they are unit-testable.
//!
//! Subcommands:
//!
//! * `lcs A B` — LCS score (and optionally one witness) of two inputs;
//! * `scan PATTERN TEXT` — semi-local window scan: best windows of the
//!   pattern's length, or `--window W`, with `--min-similarity`;
//! * `edit PATTERN TEXT` — edit-distance window scan;
//! * `cluster FILE...` — LCS-distance clustering of FASTA records;
//! * `braid A B` — draw the reduced sticky braid of a small comparison;
//! * `serve` — run the comparison engine behind a TCP line protocol;
//! * `top` — live terminal dashboard over a serving engine: HEALTH
//!   verdict, throughput counters, per-worker utilization bars (when
//!   the server's phase profiler is on) and rolling-window p99s,
//!   polled over the TCP protocol;
//! * `profile` — parallelism profile of one workload: per-worker
//!   busy/steal/idle/barrier attribution, critical-path work/span
//!   analysis (T_total, T_crit, parallelism), speedup vs measured T1;
//! * `bench-profile` — utilization and parallelism sweep of the
//!   work-stealing wavefront plus the profiler's own on/off overhead;
//! * `audit` — dump the serving engine's flight recorder: newest or
//!   slowest audit records, filtered by class or dispatch reason, plus
//!   the slow-request trace exemplars;
//! * `trace` — run any other subcommand with tracing on and export the
//!   recorded timeline (Chrome-tracing JSON or a plain-text tree);
//! * `bench-obs` — measure the observability tax: the same wavefront
//!   sweep with instrumentation compiled out, disabled, and enabled;
//! * `bench-mem` — allocation profile of steady-ant multiplication:
//!   the memory-optimized workspace vs the per-level-allocating basic
//!   recursion (allocation counts, peak live bytes, wall time);
//! * `bench-osed` — output-sensitive edit distance (`slcs-osed`) vs the
//!   full-grid paths across a similarity × size sweep: the BFS should
//!   win by orders of magnitude on nearly identical inputs.
//!
//! Global flags (before the subcommand): `--version`, `--threads N`
//! (sizes the global rayon pool used by the parallel algorithms).
//!
//! Inputs are literal strings, or files with `@path` / FASTA via
//! `--fasta`.

use std::fmt::Write as _;

use slcs_apps::{average_linkage, distance_matrix, ApproxMatcher, Dendrogram};
use slcs_baselines::{hirschberg_lcs, prefix_rowmajor};
use slcs_datagen::read_fasta_file;
use slcs_semilocal::EditDistances;

/// Errors surfaced to the user with exit code 2.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Resolves an input operand: `@path` reads a file (first FASTA record if
/// the file starts with `>`, raw bytes otherwise); anything else is a
/// literal.
pub fn resolve_input(operand: &str) -> Result<Vec<u8>, CliError> {
    if let Some(path) = operand.strip_prefix('@') {
        let bytes = std::fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        if bytes.first() == Some(&b'>') {
            let records = read_fasta_file(path)
                .map_err(|e| err(format!("cannot parse FASTA {path}: {e}")))?;
            let first = records.into_iter().next().ok_or_else(|| err("empty FASTA file"))?;
            Ok(first.sequence)
        } else {
            // trim a single trailing newline from raw text files
            let mut bytes = bytes;
            while bytes.last() == Some(&b'\n') || bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
            Ok(bytes)
        }
    } else {
        Ok(operand.as_bytes().to_vec())
    }
}

/// Parses `--flag value` style options out of an operand list.
pub struct Options {
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Options {
    /// Splits `args` into positional operands and the subcommand's
    /// flags: `value_flags` take the next argument as their value,
    /// `bool_flags` stand alone. Any other `--flag` is an error that
    /// names it and lists the accepted ones, so a typo or a removed flag
    /// fails loudly instead of being ignored.
    pub fn parse(
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Options, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if value_flags.contains(&name) {
                    let v = it.next().ok_or_else(|| err(format!("--{name} requires a value")))?;
                    flags.push((name.to_string(), Some(v.clone())));
                } else if bool_flags.contains(&name) {
                    flags.push((name.to_string(), None));
                } else {
                    let accepted: Vec<String> = value_flags
                        .iter()
                        .map(|f| format!("--{f} V"))
                        .chain(bool_flags.iter().map(|f| format!("--{f}")))
                        .collect();
                    let accepted =
                        if accepted.is_empty() { "none".to_string() } else { accepted.join(" ") };
                    return Err(err(format!("unknown flag --{name} (accepted: {accepted})")));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Options { positional, flags })
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    pub fn value_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => {
                v.parse().map(Some).map_err(|_| err(format!("invalid value for --{name}: {v}")))
            }
        }
    }
}

/// Global options parsed off the front of the argument list, before the
/// subcommand.
pub struct GlobalOpts {
    /// `--version`: print the version string and exit.
    pub version: bool,
    /// `--threads N`: size of the global rayon pool.
    pub threads: Option<usize>,
}

/// Splits leading global flags (`--version`, `--threads N`) from the
/// subcommand and its arguments.
pub fn parse_global(args: &[String]) -> Result<(GlobalOpts, Vec<String>), CliError> {
    let mut global = GlobalOpts { version: false, threads: None };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.peek() {
        match arg.as_str() {
            "--version" | "-V" => {
                global.version = true;
                it.next();
            }
            "--threads" => {
                it.next();
                let v = it.next().ok_or_else(|| err("--threads requires a value"))?;
                let n: usize =
                    v.parse().map_err(|_| err(format!("invalid value for --threads: {v}")))?;
                if n == 0 {
                    return Err(err("--threads must be at least 1"));
                }
                global.threads = Some(n);
            }
            _ => break,
        }
    }
    Ok((global, it.cloned().collect()))
}

/// The version string printed by `slcs --version`.
pub fn version_string() -> String {
    format!("slcs {} (semilocal-suite)", env!("CARGO_PKG_VERSION"))
}

/// Runs a subcommand; returns the text to print.
pub fn dispatch(cmd: &str, rest: &[String]) -> Result<String, CliError> {
    match cmd {
        "lcs" => cmd_lcs(rest),
        "scan" => cmd_scan(rest),
        "edit" => cmd_edit(rest),
        "cluster" => cmd_cluster(rest),
        "braid" => cmd_braid(rest),
        "serve" => cmd_serve(rest),
        "top" => cmd_top(rest),
        "audit" => cmd_audit(rest),
        "trace" => cmd_trace(rest),
        "profile" => cmd_profile(rest),
        "bench-profile" => cmd_bench_profile(rest),
        "bench-baseline" => cmd_bench_baseline(rest),
        "bench-obs" => cmd_bench_obs(rest),
        "bench-mem" => cmd_bench_mem(rest),
        "bench-osed" => cmd_bench_osed(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "version" | "--version" | "-V" => Ok(format!("{}\n", version_string())),
        other => Err(err(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

pub const USAGE: &str = "\
slcs — semi-local string comparison

usage:
  slcs [--version] [--threads N] COMMAND ...

  slcs lcs A B [--show]             LCS score (--show: one witness string)
  slcs scan PATTERN TEXT [--window W] [--min-similarity F] [--top K]
  slcs edit PATTERN TEXT [--window W]
  slcs cluster FILE.fasta... [--cut H]
  slcs braid A B                    ASCII sticky braid (small inputs)
  slcs serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
             [--no-trace] [--recorder N] [--window-slice MS]
             [--slo CLASS=US,...] [--slo-depth N] [--slo-budget PCT]
                                    engine behind a TCP line protocol
                                    (--no-trace disables the TRACE command;
                                    --recorder sizes the flight-recorder
                                    ring, 0 disables; --slo sets per-class
                                    p99 targets in µs for HEALTH and slow
                                    capture, e.g. lcs=50000,edit=200000)
  slcs top [--addr HOST:PORT] [--interval MS] [--count N]
                                    live dashboard over a serving engine:
                                    HEALTH verdict, request counters and
                                    rate, cache hit ratio, dispatch mix,
                                    pool steal counters and steal ratio,
                                    per-worker utilization bars (when the
                                    server's profiler is on), windowed
                                    p99s (--count 0 polls forever;
                                    default one snapshot)
  slcs profile [WORKLOAD] [--size N] [--threads N] [--grain N]
               [--topk K] [--runs N] [--trace FILE] [--quick]
                                    parallelism profile of one workload
                                    (wavefront | braid): per-worker
                                    busy/steal/idle/barrier attribution
                                    with utilization bars, critical-path
                                    work/span analysis (T_total, T_crit,
                                    parallelism), speedup vs measured T1
                                    (--trace also writes the Chrome
                                    timeline with per-worker lanes)
  slcs bench-profile [--quick] [--sizes N,N] [--threads N,N] [--grain N]
                     [--runs N] [--out FILE]
                                    utilization / parallelism sweep of
                                    the work_steal wavefront, plus the
                                    profiler's own off (A/A) and on
                                    overhead; JSON to FILE, default
                                    BENCH_profile.json
  slcs audit [--addr HOST:PORT] [N | slowest [N] | class C [N]
             | reason R [N] | captures]
                                    dump the server's flight recorder
                                    (newest N records by default)
  slcs trace [--out FILE] [--format chrome|text] COMMAND ...
                                    run COMMAND with tracing on and export
                                    the timeline (chrome://tracing JSON
                                    with --out/--format chrome, plain-text
                                    span tree otherwise)
  slcs bench-baseline [--quick] [--sizes N,N] [--threads N,N] [--grain N,N]
                      [--runs N] [--out FILE] [--trace FILE]
                                    anti-diagonal scheduling benchmark
                                    (seq / work_steal per --grain in a
                                    comma list / planned → ns/cell,
                                    JSON written to FILE, default
                                    BENCH_pool.json; --trace adds one
                                    traced pass and writes its timeline)
  slcs bench-obs [--quick] [--size N] [--threads N] [--grain N] [--runs N]
                 [--out FILE]       observability overhead benchmark
                                    (instrumentation compiled out vs
                                    disabled vs enabled; JSON to FILE,
                                    default BENCH_obs.json)
  slcs bench-mem [--quick] [--size N] [--mults N] [--runs N] [--out FILE]
                                    allocation profile of steady-ant
                                    multiplication: memory-optimized
                                    workspace vs per-level allocation
                                    (allocs, peak live bytes, wall time;
                                    JSON to FILE, default BENCH_mem.json)
  slcs bench-osed [--quick] [--sizes N,N] [--runs N] [--out FILE]
                                    output-sensitive edit distance vs the
                                    full-grid paths over a similarity
                                    (80/90/99/99.9%) x size sweep plus
                                    periodic worst cases (millis, allocs,
                                    ratio, probe route; JSON to FILE,
                                    default BENCH_osed.json)

operands: literal strings, or @file (raw bytes, or FASTA if it starts with '>')";

fn cmd_lcs(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(rest, &[], &["show"])?;
    let [a, b] = two_operands(&opts)?;
    let score = prefix_rowmajor(&a, &b);
    let mut out = format!("LCS = {score} (|a| = {}, |b| = {})\n", a.len(), b.len());
    if opts.has("show") {
        let witness = hirschberg_lcs(&a, &b);
        // PANIC: fmt to String is infallible
        writeln!(out, "witness: {}", String::from_utf8_lossy(&witness)).unwrap();
    }
    Ok(out)
}

fn cmd_scan(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(rest, &["window", "min-similarity", "top"], &[])?;
    let [pattern, text] = two_operands(&opts)?;
    if pattern.is_empty() || text.is_empty() {
        return Err(err("scan requires non-empty pattern and text"));
    }
    let w: usize = opts.value_parsed("window")?.unwrap_or(pattern.len());
    if w > text.len() {
        return Err(err(format!("window {w} longer than text ({})", text.len())));
    }
    let min_sim: f64 = opts.value_parsed("min-similarity")?.unwrap_or(0.0);
    let top: usize = opts.value_parsed("top")?.unwrap_or(5);
    let matcher = ApproxMatcher::new(&pattern, &text);
    let min_score = (min_sim * pattern.len() as f64).ceil() as usize;
    let mut hits = matcher.find(w, min_score.max(1));
    hits.sort_by_key(|o| std::cmp::Reverse(o.score));
    hits.truncate(top);
    let mut out = format!(
        "pattern {} bp vs text {} bp, window {w}: {} hit(s)\n",
        pattern.len(),
        text.len(),
        hits.len()
    );
    for h in &hits {
        writeln!(
            out,
            "  [{:>8}..{:>8})  LCS {:>6}/{}  similarity {:.1}%",
            h.start,
            h.end,
            h.score,
            pattern.len(),
            100.0 * h.similarity(pattern.len())
        )
        .unwrap(); // PANIC: fmt to String is infallible
    }
    Ok(out)
}

fn cmd_edit(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(rest, &["window"], &[])?;
    let [pattern, text] = two_operands(&opts)?;
    if text.is_empty() {
        return Err(err("edit requires a non-empty text"));
    }
    let d = EditDistances::new(&pattern, &text);
    let mut out = format!("global edit distance = {}\n", d.global());
    let w: usize = opts.value_parsed("window")?.unwrap_or(pattern.len().min(text.len()));
    if w > 0 && w <= text.len() {
        let (s, e, dist) = d.best_window(w);
        // PANIC: fmt to String is infallible
        writeln!(out, "closest window of length {w}: [{s}..{e}) at distance {dist}").unwrap();
    }
    Ok(out)
}

fn cmd_cluster(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(rest, &["cut"], &[])?;
    if opts.positional.is_empty() {
        return Err(err("cluster requires at least one FASTA file"));
    }
    let cut: f64 = opts.value_parsed("cut")?.unwrap_or(0.25);
    let mut names = Vec::new();
    let mut seqs = Vec::new();
    for path in &opts.positional {
        let records = read_fasta_file(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        for r in records {
            names.push(r.header.clone());
            seqs.push(r.sequence);
        }
    }
    if seqs.is_empty() {
        return Err(err("no sequences found"));
    }
    let matrix = distance_matrix(&seqs);
    let tree = average_linkage(&matrix);
    let mut out = format!("{} sequences\n", seqs.len());
    render_tree(&tree, &names, 0, &mut out);
    writeln!(out, "clusters at cut {cut}:").unwrap(); // PANIC: fmt to String is infallible
    for c in tree.cut(cut) {
        let members: Vec<&str> = c.iter().map(|&i| names[i].as_str()).collect();
        writeln!(out, "  {{{}}}", members.join(", ")).unwrap(); // PANIC: fmt to String is infallible
    }
    Ok(out)
}

fn render_tree(t: &Dendrogram, names: &[String], indent: usize, out: &mut String) {
    match t {
        Dendrogram::Leaf(i) => writeln!(out, "{}- {}", "  ".repeat(indent), names[*i]).unwrap(), // PANIC: fmt to String is infallible
        Dendrogram::Node { left, right, height } => {
            writeln!(out, "{}+ d = {height:.3}", "  ".repeat(indent)).unwrap(); // PANIC: fmt to String is infallible
            render_tree(left, names, indent + 1, out);
            render_tree(right, names, indent + 1, out);
        }
    }
}

fn cmd_braid(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(rest, &[], &[])?;
    let [a, b] = two_operands(&opts)?;
    if a.len() > 40 || b.len() > 60 {
        return Err(err("braid rendering is for small inputs (|a| ≤ 40, |b| ≤ 60)"));
    }
    Ok(semilocal_render(&a, &b))
}

/// Sticky braid rendering (same drawing as the facade's `render_braid`,
/// reimplemented here to keep the CLI crate's dependencies one-way).
fn semilocal_render(a: &[u8], b: &[u8]) -> String {
    let kernel = slcs_semilocal::iterative_combing(a, b);
    let mut out = String::new();
    let mut h_strands: Vec<u32> = (0..a.len() as u32).collect();
    let mut v_strands: Vec<u32> = (a.len() as u32..(a.len() + b.len()) as u32).collect();
    writeln!(out, "   {}", b.iter().map(|&c| format!(" {} ", c as char)).collect::<String>())
        .unwrap(); // PANIC: fmt to String is infallible
    for (i, &ac) in a.iter().enumerate() {
        let hi = a.len() - 1 - i;
        let mut h = h_strands[hi];
        let mut top = String::new();
        let mut bot = String::new();
        for (j, &bc) in b.iter().enumerate() {
            let v = v_strands[j];
            if ac == bc || h > v {
                top.push_str("─╮ ");
                bot.push_str(" ╰─");
                v_strands[j] = h;
                h = v;
            } else {
                top.push_str("─┼─");
                bot.push_str(" │ ");
            }
        }
        h_strands[hi] = h;
        writeln!(out, " {} {top}", ac as char).unwrap(); // PANIC: fmt to String is infallible
        writeln!(out, "   {bot}").unwrap(); // PANIC: fmt to String is infallible
    }
    writeln!(out, "\nkernel: {:?}", kernel.permutation().forward()).unwrap(); // PANIC: fmt to String is infallible
    writeln!(out, "LCS = {}", kernel.lcs()).unwrap(); // PANIC: fmt to String is infallible
    out
}

fn engine_from_opts(opts: &Options) -> Result<slcs_engine::Engine, CliError> {
    let mut config = slcs_engine::EngineConfig::default();
    if let Some(w) = opts.value_parsed("workers")? {
        config.workers = w;
    }
    if let Some(q) = opts.value_parsed("queue")? {
        config.queue_capacity = q;
    }
    if let Some(c) = opts.value_parsed("cache")? {
        config.cache_capacity = c;
    }
    if let Some(r) = opts.value_parsed("recorder")? {
        config.recorder_capacity = r;
    }
    if let Some(s) = opts.value_parsed("window-slice")? {
        config.window_slice_millis = s;
    }
    config.slo = slo_from_opts(opts)?;
    Ok(slcs_engine::Engine::new(config))
}

/// Builds the SLO table from `--slo CLASS=US,...`, `--slo-depth` and
/// `--slo-budget`, starting from the defaults.
fn slo_from_opts(opts: &Options) -> Result<slcs_engine::SloTable, CliError> {
    let mut slo = slcs_engine::SloTable::default();
    if let Some(spec) = opts.value("slo") {
        for entry in spec.split(',') {
            let (class, micros) = entry
                .split_once('=')
                .ok_or_else(|| err(format!("--slo entry '{entry}' is not CLASS=MICROS")))?;
            let idx = slcs_engine::Operation::CLASS_TOKENS
                .iter()
                .position(|t| *t == class)
                .ok_or_else(|| err(format!("unknown request class '{class}' in --slo")))?;
            slo.p99_micros[idx] = micros
                .parse()
                .map_err(|_| err(format!("--slo target '{micros}' is not a number")))?;
        }
    }
    if let Some(depth) = opts.value_parsed("slo-depth")? {
        slo.max_queue_depth = depth;
    }
    if let Some(budget) = opts.value_parsed("slo-budget")? {
        slo.error_budget_percent = budget;
    }
    Ok(slo)
}

fn cmd_serve(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(
        rest,
        &[
            "addr",
            "workers",
            "queue",
            "cache",
            "recorder",
            "window-slice",
            "slo",
            "slo-depth",
            "slo-budget",
        ],
        &["no-trace", "smoke"],
    )?;
    let addr = opts.value("addr").unwrap_or("127.0.0.1:7171").to_string();
    let engine = std::sync::Arc::new(engine_from_opts(&opts)?);
    let config = engine.config().clone();
    let server_config = slcs_engine::ServerConfig {
        allow_trace: !opts.has("no-trace"),
        slo: config.slo.clone(),
        ..slcs_engine::ServerConfig::default()
    };
    let handle = slcs_engine::serve(&addr[..], engine, server_config)
        .map_err(|e| err(format!("cannot bind {addr}: {e}")))?;
    println!(
        "slcs engine listening on {} ({} workers, queue {}, cache {})",
        handle.addr(),
        config.workers,
        config.queue_capacity,
        config.cache_capacity
    );
    if opts.has("smoke") {
        // Undocumented test hook: bind, report, exit.
        handle.stop();
        return Ok(String::new());
    }
    loop {
        std::thread::park();
    }
}

/// Line-oriented client for the engine's TCP protocol, shared by
/// `slcs top` and `slcs audit`.
struct LineClient {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl LineClient {
    fn connect(addr: &str) -> Result<Self, CliError> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| err(format!("cannot connect to {addr}: {e}")))?;
        // Small request/response packets: without this, Nagle + delayed
        // ACK put ~40ms on every poll.
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| err(format!("cannot clone stream: {e}")))?;
        Ok(Self { reader: std::io::BufReader::new(stream), writer })
    }

    fn line(&mut self, cmd: &str) -> Result<String, CliError> {
        use std::io::{BufRead, Write};
        writeln!(self.writer, "{cmd}").map_err(|e| err(format!("send failed: {e}")))?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|e| err(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(err("server closed the connection"));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends `cmd` and reads a multi-line `# EOF`-terminated response.
    fn multi_line(&mut self, cmd: &str) -> Result<Vec<String>, CliError> {
        use std::io::{BufRead, Write};
        writeln!(self.writer, "{cmd}").map_err(|e| err(format!("send failed: {e}")))?;
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n =
                self.reader.read_line(&mut line).map_err(|e| err(format!("read failed: {e}")))?;
            if n == 0 {
                return Err(err("server closed the connection mid-response"));
            }
            let line = line.trim_end().to_string();
            if line == "# EOF" {
                return Ok(lines);
            }
            // Single-line errors (e.g. a disabled recorder) have no
            // terminator; surface them immediately.
            if lines.is_empty() && (line.starts_with("ERR") || line.starts_with("BUSY")) {
                return Ok(vec![line]);
            }
            lines.push(line);
        }
    }
}

/// Parses a `key=value` STATS field out of a response line.
fn stats_field<'a>(stats: &'a str, key: &str) -> Option<&'a str> {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// Parses the value of a bare (unlabelled) Prometheus series out of a
/// `METRICS` exposition.
fn metrics_value(metrics: &[String], series: &str) -> Option<f64> {
    metrics.iter().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

/// Renders one `slcs top` frame from HEALTH + STATS + METRICS +
/// PROFILE responses.
fn top_frame(health: &str, stats: &str, metrics: &[String], profile: &[String]) -> String {
    let mut out = format!("health: {health}\n");
    let field = |key: &str| stats_field(stats, key).unwrap_or("?");
    let num =
        |key: &str| -> f64 { stats_field(stats, key).and_then(|v| v.parse().ok()).unwrap_or(0.0) };
    // Average request rate over the server's lifetime (uptime reports
    // whole seconds, so clamp a just-booted server to 1s) — the best a
    // stateless frame can do without a previous sample to diff against.
    let rate = match metrics_value(metrics, "slcs_uptime_seconds") {
        Some(up) => format!("{:.1}/s avg", num("completed") / up.max(1.0)),
        None => "?/s".to_string(),
    };
    writeln!(
        out,
        "requests: completed={} ({rate}) queue_full={} invalid={} depth={} errors={}",
        field("completed"),
        field("queue_full"),
        field("invalid"),
        field("depth"),
        field("errors")
    )
    .unwrap(); // PANIC: fmt to String is infallible
    let (hits, misses) = (num("hits"), num("misses"));
    let ratio = if hits + misses > 0.0 { 100.0 * hits / (hits + misses) } else { 0.0 };
    writeln!(
        out,
        "cache: hits={hits:.0} misses={misses:.0} ratio={ratio:.1}% evictions={}",
        field("evictions")
    )
    .unwrap(); // PANIC: fmt to String is infallible
               // Dispatch mix: show only reasons that actually fired.
    let mix = stats_field(stats, "dispatch")
        .map(|d| d.split(',').filter(|e| !e.ends_with(":0")).collect::<Vec<_>>().join(" "))
        .unwrap_or_default();
    writeln!(out, "dispatch: {}", if mix.is_empty() { "(none)" } else { &mix }).unwrap(); // PANIC: fmt to String is infallible
    let pool = |series: &str| {
        metrics_value(metrics, series).map_or("?".to_string(), |v| format!("{v:.0}"))
    };
    // Steal ratio: what share of executed jobs had to be stolen rather
    // than popped from the worker's own deque.
    let steals = metrics_value(metrics, "slcs_pool_steals_total").unwrap_or(0.0);
    let local = metrics_value(metrics, "slcs_pool_local_hits_total").unwrap_or(0.0);
    let steal_ratio = if steals + local > 0.0 { 100.0 * steals / (steals + local) } else { 0.0 };
    writeln!(
        out,
        "pool: jobs={} steals={} local_hits={} steal_ratio={steal_ratio:.1}% parks={}",
        pool("slcs_pool_jobs_executed_total"),
        pool("slcs_pool_steals_total"),
        pool("slcs_pool_local_hits_total"),
        pool("slcs_pool_parks_total")
    )
    .unwrap(); // PANIC: fmt to String is infallible
    out.push_str(&profile_section(profile));
    out.push_str("windowed p99 (us):\n");
    // latency_windows is `class:window:p50/p90/p99/p999` CSV; show the
    // p99 column per class across the three windows.
    let mut per_class: std::collections::BTreeMap<&str, Vec<String>> =
        std::collections::BTreeMap::new();
    if let Some(windows) = stats_field(stats, "latency_windows") {
        for entry in windows.split(',') {
            let mut parts = entry.split(':');
            let (Some(class), Some(window), Some(quants)) =
                (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let p99 = quants.split('/').nth(2).unwrap_or("?");
            per_class.entry(class).or_default().push(format!("{window}={p99}"));
        }
    }
    for (class, cols) in &per_class {
        writeln!(out, "  {class:<14} {}", cols.join("  ")).unwrap(); // PANIC: fmt to String is infallible
    }
    if per_class.is_empty() {
        out.push_str("  (latency windows disabled)\n");
    }
    out
}

/// A `[#####---------------]` utilization bar over `width` cells.
fn utilization_bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("[{}{}]", "#".repeat(filled), "-".repeat(width - filled))
}

/// Renders the `slcs top` profile section from a multi-line `PROFILE`
/// response (`OK <workers> <on|off> util=<pct>` plus one `worker=N
/// busy_ns=... util=<pct>` line per worker).
fn profile_section(profile: &[String]) -> String {
    let Some(head) = profile.first() else {
        return "profile: (no response)\n".to_string();
    };
    let mut parts = head.split_whitespace();
    if parts.next() != Some("OK") {
        // Old server or an error line: show it verbatim.
        return format!("profile: {head}\n");
    }
    let _workers = parts.next();
    let state = parts.next().unwrap_or("?");
    let pool_util = parts.next().and_then(|kv| kv.strip_prefix("util=")).unwrap_or("?");
    if state != "on" {
        return "profile: off (send PROFILE on to enable phase accounting)\n".to_string();
    }
    let mut out = format!("profile: on  pool util {pool_util}%\n");
    for line in &profile[1..] {
        let field = |key: &str| stats_field(line, key).unwrap_or("?");
        let util: f64 = stats_field(line, "util").and_then(|v| v.parse().ok()).unwrap_or(0.0);
        let ns_ms = |key: &str| {
            stats_field(line, key).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 1e6
        };
        writeln!(
            out,
            "  worker {:<3} {} {util:5.1}%  busy {:.0}ms steal {:.0}ms idle {:.0}ms barrier {:.0}ms",
            field("worker"),
            utilization_bar(util / 100.0, 20),
            ns_ms("busy_ns"),
            ns_ms("steal_ns"),
            ns_ms("idle_ns"),
            ns_ms("barrier_ns")
        )
        .unwrap(); // PANIC: fmt to String is infallible
    }
    out
}

/// `slcs top` — polls HEALTH, STATS and METRICS over the TCP protocol
/// and renders a dashboard frame per interval. `--count 0` loops
/// forever; the default single frame makes the command
/// scriptable/testable.
fn cmd_top(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(rest, &["addr", "interval", "count"], &[])?;
    let addr = opts.value("addr").unwrap_or("127.0.0.1:7171");
    let interval_ms: u64 = opts.value_parsed("interval")?.unwrap_or(1000);
    let count: usize = opts.value_parsed("count")?.unwrap_or(1);
    let mut client = LineClient::connect(addr)?;
    let mut frames = 0usize;
    let mut out = String::new();
    loop {
        let health = client.line("HEALTH")?;
        let stats = client.line("STATS")?;
        let metrics = client.multi_line("METRICS")?;
        let profile = client.multi_line("PROFILE")?;
        let frame =
            format!("-- slcs top @ {addr} --\n{}", top_frame(&health, &stats, &metrics, &profile));
        frames += 1;
        if count == 0 {
            // Live mode: print each frame as it arrives.
            println!("{frame}");
        } else {
            out.push_str(&frame);
            if frames >= count {
                return Ok(out);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `slcs audit` — dumps the serving engine's flight recorder. Extra
/// arguments pass through to the protocol's `AUDIT` command:
/// `slowest [N]`, `class C [N]`, `reason R [N]`, `captures`, or a
/// plain record count.
fn cmd_audit(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(rest, &["addr"], &[])?;
    let addr = opts.value("addr").unwrap_or("127.0.0.1:7171");
    let mut cmd = String::from("AUDIT");
    for arg in &opts.positional {
        cmd.push(' ');
        cmd.push_str(arg);
    }
    let mut client = LineClient::connect(addr)?;
    let lines = client.multi_line(&cmd)?;
    let mut out = String::new();
    for line in &lines {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

/// Writes a drained timeline in the requested format; returns a short
/// status line for the report.
fn write_timeline(
    timeline: &slcs_trace::Timeline,
    path: &str,
    chrome: bool,
) -> Result<String, CliError> {
    let rendered = if chrome { timeline.to_chrome_json() } else { timeline.to_text_tree() };
    std::fs::write(path, rendered + "\n").map_err(|e| err(format!("cannot write {path}: {e}")))?;
    Ok(format!(
        "[trace written {path}: {} events, {} dropped]\n",
        timeline.events.len(),
        timeline.dropped
    ))
}

/// `slcs trace [--out FILE] [--format chrome|text] COMMAND ...` — runs
/// the inner subcommand with tracing enabled and exports the timeline.
/// Without `--out` the rendering is appended to the command's own
/// output; the format defaults to `chrome` when writing a file and
/// `text` otherwise.
fn cmd_trace(rest: &[String]) -> Result<String, CliError> {
    const TRACE_USAGE: &str = "usage: slcs trace [--out FILE] [--format chrome|text] COMMAND ...";
    let mut out_path: Option<String> = None;
    let mut format: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--out" => {
                out_path =
                    Some(rest.get(i + 1).ok_or_else(|| err("--out requires a value"))?.clone());
                i += 2;
            }
            "--format" => {
                format =
                    Some(rest.get(i + 1).ok_or_else(|| err("--format requires a value"))?.clone());
                i += 2;
            }
            _ => break,
        }
    }
    let Some(cmd) = rest.get(i) else {
        return Err(err(TRACE_USAGE));
    };
    if cmd == "trace" {
        return Err(err("trace cannot wrap itself"));
    }
    let chrome = match format.as_deref() {
        Some("chrome") => true,
        Some("text") => false,
        Some(other) => return Err(err(format!("unknown trace format '{other}'\n{TRACE_USAGE}"))),
        None => out_path.is_some(),
    };
    slcs_trace::enable_fresh();
    let result = dispatch(cmd, &rest[i + 1..]);
    slcs_trace::set_enabled(false);
    let mut out = result?;
    let timeline = slcs_trace::drain();
    match out_path {
        Some(path) => out.push_str(&write_timeline(&timeline, &path, chrome)?),
        None => {
            out.push_str("--- trace ---\n");
            out.push_str(&if chrome { timeline.to_chrome_json() } else { timeline.to_text_tree() });
            out.push('\n');
        }
    }
    Ok(out)
}

/// Parses a comma-separated list flag, e.g. `--sizes 4096,16384`.
fn list_flag(opts: &Options, name: &str, default: &[usize]) -> Result<Vec<usize>, CliError> {
    match opts.value(name) {
        None => Ok(default.to_vec()),
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| err(format!("invalid value in --{name}: {s}"))))
            .collect(),
    }
}

/// Minimum wall-clock time of each of `N` variants of one workload over
/// `runs` rounds, after one warmup round; each round runs `run(0)`, …,
/// `run(N−1)` back to back, so machine drift during the batch hits every
/// variant alike. The min is the estimator every bench reports:
/// contention only ever inflates a sample, so the fastest observation is
/// the closest to the true cost, and the differences and ratios of
/// timings that `xtask perf-gate` reads stay stable at quick sizes.
fn interleaved_min<const N: usize>(
    runs: usize,
    mut run: impl FnMut(usize),
) -> [std::time::Duration; N] {
    let mut best = [std::time::Duration::MAX; N];
    for round in 0..=runs.max(1) {
        for (variant, slot) in best.iter_mut().enumerate() {
            let t = std::time::Instant::now();
            run(variant);
            if round > 0 {
                *slot = (*slot).min(t.elapsed());
            }
        }
    }
    best
}

/// A flat scalar of a bench artifact: a config value, a row label or a
/// metric.
enum Scalar {
    Int(u64),
    Num(f64),
    Text(String),
    Flag(bool),
}

macro_rules! scalar_from {
    ($($t:ty => $arm:ident($conv:expr)),* $(,)?) => {
        $(impl From<$t> for Scalar {
            fn from(v: $t) -> Self {
                Scalar::$arm($conv(v))
            }
        })*
    };
}
scalar_from!(u64 => Int(|v| v), usize => Int(|v| v as u64), f64 => Num(|v| v),
             &str => Text(str::to_string), String => Text(|v| v), bool => Flag(|v| v));

impl std::fmt::Display for Scalar {
    /// JSON text. Floats keep at least three decimals and four
    /// significant digits; a non-finite one is `null`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Num(v) if !v.is_finite() => write!(f, "null"),
            Scalar::Num(v) => {
                let magnitude = if *v == 0.0 { 0.0 } else { v.abs().log10().floor() };
                write!(f, "{v:.*}", (3.0 - magnitude).clamp(3.0, 9.0) as usize)
            }
            Scalar::Text(v) => write!(f, "\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
            Scalar::Flag(v) => write!(f, "{v}"),
        }
    }
}

type Fields = Vec<(&'static str, Scalar)>;

/// `fields!{size: n, mode: "seq"}` — named scalars in order.
macro_rules! fields {
    ($($key:ident: $value:expr),* $(,)?) => {
        vec![$((stringify!($key), Scalar::from($value))),*]
    };
}

/// One bench-artifact row: its labels (what was measured) and metrics.
type Row = (Fields, Fields);

/// The host's core count, as every artifact reports it.
fn host_nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Default thread counts: 1, 2, 4, … up to `max` or the host's core
/// count, whichever is lower (and always including it), so no default
/// oversubscribes.
fn thread_ladder(max: usize) -> Vec<usize> {
    let top = host_nproc().min(max);
    let mut ladder: Vec<usize> =
        std::iter::successors(Some(1), |t| Some(t * 2)).take_while(|&t| t < top).collect();
    ladder.push(top);
    ladder
}

/// Writes the bench artifact every `bench-*` command emits, in the one
/// schema `cargo xtask perf-gate` reads:
///
/// ```text
/// {"bench": …, "host": {"nproc", "isa"}, "config": {…},
///  "rows": [{"labels": {…}, "metrics": {…}}, …]}
/// ```
///
/// Config values, labels and metrics are flat scalars. A row whose
/// `threads` (its label, else the config's) exceeds `host.nproc` is
/// labelled `oversubscribed: true`. Returns the report's `[written …]`
/// line.
fn write_bench_json(
    path: &str,
    bench: &str,
    config: Fields,
    rows: Vec<Row>,
) -> Result<String, CliError> {
    fn object(fields: &Fields) -> String {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
    let threads = |fields: &Fields| {
        fields.iter().find_map(|(k, v)| match (k, v) {
            (&"threads", Scalar::Int(t)) => Some(*t),
            _ => None,
        })
    };
    let nproc = host_nproc();
    let rows: Vec<String> = rows
        .into_iter()
        .map(|(mut labels, metrics)| {
            if threads(&labels).or(threads(&config)).is_some_and(|t| t > nproc as u64) {
                labels.push(("oversubscribed", Scalar::Flag(true)));
            }
            format!("    {{\"labels\": {}, \"metrics\": {}}}", object(&labels), object(&metrics))
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host\": {{\"nproc\": {nproc}, \"isa\": \"{}\"}},\n  \
         \"config\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        slcs_semilocal::simd_support(),
        object(&config),
        rows.join(",\n")
    );
    std::fs::write(path, json).map_err(|e| err(format!("cannot write {path}: {e}")))?;
    Ok(format!("[written {path}]\n"))
}

/// `slcs bench-baseline` — the wavefront schedule benchmark
/// (`BENCH_pool.json`). Per size it times the sequential sweep (`seq`,
/// t=1) and, at every thread count ≥ 2, the work-stealing sweep at each
/// `--grain` (`work_steal`) plus the `planned` row: the route
/// [`slcs_semilocal::auto_plan`] picks for that grid and budget at the
/// production grain. A planned route already timed (seq, or work_steal
/// at a swept grain) reuses that timing — it is the same code, and
/// re-timing it would only add replicate noise.
fn cmd_bench_baseline(rest: &[String]) -> Result<String, CliError> {
    use slcs_semilocal::{auto_plan, par_antidiag_combing_branchless_sched, Scheduling};

    let opts = Options::parse(
        rest,
        &["sizes", "threads", "grain", "runs", "out", "seed", "trace"],
        &["quick"],
    )?;
    let quick = opts.has("quick");
    let sizes = list_flag(&opts, "sizes", if quick { &[1024] } else { &[4096, 16384] })?;
    let ladder = thread_ladder(if quick { 2 } else { usize::MAX });
    let threads = list_flag(&opts, "threads", &ladder)?;
    // Full-sweep grain: largest grid ÷ largest thread count, so every
    // budget in the sweep can actually form a full team (the production
    // default of 8192 would cap the 16384² grid at two chunks per
    // diagonal and leave 6 of 8 members idle).
    let grains = list_flag(&opts, "grain", if quick { &[256] } else { &[2048] })?;
    if grains.is_empty() || grains.contains(&0) {
        return Err(err("bench-baseline: --grain needs one or more positive grains"));
    }
    let runs: usize = opts.value_parsed("runs")?.unwrap_or(if quick { 1 } else { 3 });
    let seed: u64 = opts.value_parsed("seed")?.unwrap_or(42);
    let out_path = opts.value("out").unwrap_or("BENCH_pool.json").to_string();

    let mut rows: Vec<Row> = Vec::new();
    let mut report = String::from("anti-diagonal combing scheduling benchmark\n");
    writeln!(
        report,
        "grains={grains:?} plan_grain={} runs={runs} sizes={sizes:?} threads={threads:?} \
         nproc={} isa={}",
        slcs_semilocal::PAR_GRAIN,
        host_nproc(),
        slcs_semilocal::simd_support()
    )
    .unwrap(); // PANIC: fmt to String is infallible
    for &n in &sizes {
        let mut rng = slcs_datagen::seeded_rng(seed);
        let a = slcs_datagen::uniform_string(&mut rng, n, 4);
        let b = slcs_datagen::uniform_string(&mut rng, n, 4);
        let cells = (n as f64) * (n as f64);
        // min-of-N, not median-of-N: perf-gate compares row *ratios*,
        // and contention only ever inflates a sample (see
        // `interleaved_min`). Returns (ns/cell, millis).
        let time = |sched: Scheduling, g: usize| {
            let [d] = interleaved_min(runs, |_| {
                std::hint::black_box(par_antidiag_combing_branchless_sched(&a, &b, sched, g));
            });
            (d.as_nanos() as f64 / cells, d.as_secs_f64() * 1e3)
        };
        let (seq_ns, seq_ms) = time(Scheduling::Seq, 1);
        rows.push((
            fields! {size: n, threads: 1usize, mode: "seq"},
            fields! {ns_per_cell: seq_ns, millis: seq_ms},
        ));
        writeln!(report, "  {n}x{n}  seq                     t=1  {seq_ns:8.3} ns/cell").unwrap(); // PANIC: fmt to String is infallible
        for &t in threads.iter().filter(|&&t| t >= 2) {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .map_err(|e| err(e.to_string()))?;
            // (grain, ns/cell, millis) of each work_steal row at this t.
            let mut steal = Vec::new();
            for &g in &grains {
                let (ns, ms) = pool.install(|| time(Scheduling::WorkSteal, g));
                steal.push((g, ns, ms));
                rows.push((
                    fields! {size: n, threads: t, mode: "work_steal", grain: g},
                    fields! {ns_per_cell: ns, millis: ms},
                ));
                writeln!(
                    report,
                    "  {n}x{n}  work_steal grain={g:<6} t={t}  {ns:8.3} ns/cell  \
                     ({:.2}x seq time)",
                    ns / seq_ns
                )
                .unwrap(); // PANIC: fmt to String is infallible
            }
            let (route, plan_grain) = auto_plan(n, n, t);
            let (ns, ms) = match route {
                Scheduling::Seq => (seq_ns, seq_ms),
                Scheduling::WorkSteal => match steal.iter().find(|r| r.0 == plan_grain) {
                    Some(&(_, ns, ms)) => (ns, ms),
                    None => pool.install(|| time(Scheduling::WorkSteal, plan_grain)),
                },
            };
            rows.push((
                fields! {size: n, threads: t, mode: "planned", route: route.token(),
                grain: plan_grain},
                fields! {ns_per_cell: ns, millis: ms},
            ));
            writeln!(
                report,
                "  {n}x{n}  planned ({:<10})    t={t}  {ns:8.3} ns/cell  ({:.2}x seq time)",
                route.token(),
                ns / seq_ns
            )
            .unwrap(); // PANIC: fmt to String is infallible
        }
    }

    let grain_list: Vec<String> = grains.iter().map(usize::to_string).collect();
    let config = fields! {
        algorithm: "par_antidiag_combing_branchless", unit: "ns_per_cell", quick: quick,
        grains: grain_list.join(","), plan_grain: slcs_semilocal::PAR_GRAIN, runs: runs,
        pool_spawned_workers: rayon::pool_spawned_workers(),
    };
    report.push_str(&write_bench_json(&out_path, "bench-baseline", config, rows)?);

    if let Some(trace_path) = opts.value("trace") {
        // One extra traced pass, separate from the timed runs above so
        // tracing cannot skew the reported numbers: a work-stealing
        // sweep (wavefront.chunk + pool.job + team.* spans) plus a short
        // engine phase (engine.request spans), all in one timeline.
        let n = sizes.iter().copied().max().unwrap_or(1024);
        let t = threads.iter().copied().max().unwrap_or(2);
        let mut rng = slcs_datagen::seeded_rng(seed);
        let a = slcs_datagen::uniform_string(&mut rng, n, 4);
        let b = slcs_datagen::uniform_string(&mut rng, n, 4);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .map_err(|e| err(e.to_string()))?;
        // Clamp the grain so the sweep actually forms a team (a grain
        // at or above n/t would fall back to the sequential path and
        // record no wavefront spans).
        let trace_grain = grains[0].min((n / t.max(1)).max(1));
        // Profiling on for the traced pass: each phase transition then
        // emits a pool.worker_phase instant into the worker's lane, so
        // the artifact carries the full profiler surface that
        // `cargo xtask trace-check` requires.
        rayon::set_profiling(true);
        slcs_trace::enable_fresh();
        pool.install(|| {
            std::hint::black_box(par_antidiag_combing_branchless_sched(
                &a,
                &b,
                Scheduling::WorkSteal,
                trace_grain,
            ))
        });
        // Zero SLO targets so every request trips the slow-capture path
        // and the timeline deterministically records engine.slow_capture.
        let engine = slcs_engine::Engine::new(slcs_engine::EngineConfig {
            slo: slcs_engine::SloTable { p99_micros: [0; 4], ..slcs_engine::SloTable::default() },
            ..slcs_engine::EngineConfig::default()
        });
        for op in
            [slcs_engine::Operation::Lcs, slcs_engine::Operation::Windows { w: 64.min(b.len()) }]
        {
            let req = slcs_engine::CompareRequest::new(&a[..256.min(a.len())], &b[..], op);
            engine.submit_wait(req).map_err(|e| err(e.to_string()))?;
        }
        // One ~99%-similar pair through the global-edit route records
        // the output-sensitive path (osed.edit / osed.bfs_round) in the
        // same timeline.
        let (pa, pb) = slcs_datagen::similar_pair(&mut rng, 2048, 4, 0.01);
        engine
            .submit_wait(slcs_engine::CompareRequest::new(
                &pa[..],
                &pb[..],
                slcs_engine::Operation::Edit { w: None },
            ))
            .map_err(|e| err(e.to_string()))?;
        drop(engine);
        slcs_trace::set_enabled(false);
        rayon::set_profiling(false);
        report.push_str(&write_timeline(&slcs_trace::drain(), trace_path, true)?);
    }
    Ok(report)
}

/// `slcs bench-obs` — the observability tax, measured three ways on the
/// same work-stealing wavefront sweep:
///
/// * `untraced` — instrumentation compiled out (`TRACED = false`);
/// * `disabled` — instrumented build, tracing off (the production
///   default: each span site costs one relaxed load and branch);
/// * `enabled`  — tracing on, events recorded into the ring buffers.
///
/// The `disabled` row's `overhead_percent` is the headline number:
/// what merely *linking* the instrumentation costs.
///
/// A fourth A/B measures the serving-path bookkeeping: a batch of
/// small LCS requests through two engines, one with the flight
/// recorder and rolling windows disabled and one with the defaults
/// (`recorder_off` and `recorder_on` rows); the `recorder_on` row's
/// `overhead_percent` is that delta, and `cargo xtask perf-gate` holds
/// it to the same slack as the trace overheads.
fn cmd_bench_obs(rest: &[String]) -> Result<String, CliError> {
    let opts =
        Options::parse(rest, &["size", "threads", "grain", "runs", "out", "seed"], &["quick"])?;
    let quick = opts.has("quick");
    let size: usize = opts.value_parsed("size")?.unwrap_or(if quick { 1024 } else { 16384 });
    let threads: usize = opts
        .value_parsed("threads")?
        .unwrap_or(if quick { 2 } else { usize::MAX }.min(host_nproc()))
        .max(1);
    let grain: usize = opts.value_parsed("grain")?.unwrap_or(if quick { 256 } else { 2048 }).max(1);
    let runs: usize = opts.value_parsed("runs")?.unwrap_or(if quick { 1 } else { 3 });
    let seed: u64 = opts.value_parsed("seed")?.unwrap_or(42);
    let out_path = opts.value("out").unwrap_or("BENCH_obs.json").to_string();

    let mut rng = slcs_datagen::seeded_rng(seed);
    let a = slcs_datagen::uniform_string(&mut rng, size, 4);
    let b = slcs_datagen::uniform_string(&mut rng, size, 4);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| err(e.to_string()))?;

    // Each enabled sweep starts a fresh trace, so no sweep records into
    // buffers the previous rounds filled: the event counts reported
    // below are those of one traced sweep, with nothing dropped.
    let [untraced, disabled, enabled] = pool.install(|| {
        interleaved_min(runs, |variant| {
            if variant == 2 {
                slcs_trace::enable_fresh();
            } else {
                slcs_trace::set_enabled(false);
            }
            if variant == 0 {
                std::hint::black_box(slcs_semilocal::par_antidiag_combing_branchless_untraced(
                    &a, &b, grain,
                ));
            } else {
                std::hint::black_box(slcs_semilocal::par_antidiag_combing_branchless_sched(
                    &a,
                    &b,
                    slcs_semilocal::Scheduling::WorkSteal,
                    grain,
                ));
            }
        })
    });
    slcs_trace::set_enabled(false);
    let trace_stats = slcs_trace::stats();

    // Recorder/window A/B: the serving-path cost of the flight
    // recorder, rolling windows and slow-capture arming, measured
    // end-to-end through the engine on small bit-parallel LCS requests
    // — the worst case, because the per-request bookkeeping is a fixed
    // cost and the cheapest requests show the largest relative share.
    let rec_requests: usize = if quick { 64 } else { 256 };
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..8)
        .map(|_| {
            (
                slcs_datagen::uniform_string(&mut rng, 2048, 4),
                slcs_datagen::uniform_string(&mut rng, 2048, 4),
            )
        })
        .collect();
    let batch = |engine: &slcs_engine::Engine| {
        for i in 0..rec_requests {
            let (pa, pb) = &pairs[i % pairs.len()];
            engine
                .submit_wait(slcs_engine::CompareRequest::new(
                    &pa[..],
                    &pb[..],
                    slcs_engine::Operation::Lcs,
                ))
                .expect("bench engine accepts requests"); // PANIC: bench engine is private to this run and never shuts down mid-batch
        }
    };
    let base_config = slcs_engine::EngineConfig {
        workers: 1,
        threads_per_request: 1,
        ..slcs_engine::EngineConfig::default()
    };
    let rec_off_engine = slcs_engine::Engine::new(slcs_engine::EngineConfig {
        recorder_capacity: 0,
        window_slice_millis: 0,
        ..base_config.clone()
    });
    let rec_on_engine = slcs_engine::Engine::new(base_config);
    let [rec_off, rec_on] =
        interleaved_min(runs, |v| batch(if v == 0 { &rec_off_engine } else { &rec_on_engine }));
    drop(rec_off_engine);
    drop(rec_on_engine);
    let rec_pct = 100.0 * (rec_on.as_secs_f64() - rec_off.as_secs_f64()) / rec_off.as_secs_f64();

    let pct = |d: std::time::Duration| {
        100.0 * (d.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64()
    };
    let (dis_pct, en_pct) = (pct(disabled), pct(enabled));
    let mut report = format!(
        "observability overhead, {size}x{size}, {threads} threads, grain {grain}, {runs} run(s)\n"
    );
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    writeln!(report, "  untraced (compiled out)  {:9.2} ms", ms(untraced)).unwrap(); // PANIC: fmt to String is infallible
    writeln!(report, "  disabled (relaxed load)  {:9.2} ms  ({dis_pct:+.2}%)", ms(disabled))
        .unwrap(); // PANIC: fmt to String is infallible
    writeln!(report, "  enabled  (recording)     {:9.2} ms  ({en_pct:+.2}%)", ms(enabled)).unwrap(); // PANIC: fmt to String is infallible
    writeln!(
        report,
        "  one traced sweep: events recorded {} / dropped {} across {} thread buffer(s)",
        trace_stats.recorded, trace_stats.dropped, trace_stats.threads
    )
    .unwrap(); // PANIC: fmt to String is infallible
    writeln!(
        report,
        "  recorder off             {:9.2} ms  ({rec_requests} engine requests)",
        ms(rec_off)
    )
    .unwrap(); // PANIC: fmt to String is infallible
    writeln!(report, "  recorder+windows on      {:9.2} ms  ({rec_pct:+.2}%)", ms(rec_on)).unwrap(); // PANIC: fmt to String is infallible

    let config = fields! {
        algorithm: "par_antidiag_combing_branchless", size: size, par_grain: grain, runs: runs,
        quick: quick,
    };
    let rows = vec![
        (fields! {variant: "untraced", threads: threads}, fields! {millis: ms(untraced)}),
        (
            fields! {variant: "disabled", threads: threads},
            fields! {millis: ms(disabled), overhead_percent: dis_pct},
        ),
        (
            fields! {variant: "enabled", threads: threads},
            fields! {
                millis: ms(enabled), overhead_percent: en_pct,
                trace_events_recorded: trace_stats.recorded, trace_events_dropped: trace_stats.dropped,
            },
        ),
        (fields! {variant: "recorder_off", requests: rec_requests}, fields! {millis: ms(rec_off)}),
        (
            fields! {variant: "recorder_on", requests: rec_requests},
            fields! {millis: ms(rec_on), overhead_percent: rec_pct},
        ),
    ];
    report.push_str(&write_bench_json(&out_path, "bench-obs", config, rows)?);
    Ok(report)
}

/// `slcs bench-mem` — allocation profile of steady-ant braid
/// multiplication: the paper's *memory* optimization (ping-pong
/// workspace, [`slcs_braid::BraidMulWorkspace`]) against the basic
/// per-level-allocating recursion, at the same order.
///
/// For each variant the batch of multiplies runs once inside an
/// [`slcs_alloc::AllocScope`] (after a warmup multiply, so one-time
/// setup such as the workspace itself or precalc tables is excluded)
/// to count this thread's allocations and the scope-local peak of
/// live bytes, then again under [`interleaved_min`] for wall clock.
/// Allocation counts are deterministic for a fixed seed/order, which
/// is what lets `cargo xtask perf-gate` compare them exactly.
fn cmd_bench_mem(rest: &[String]) -> Result<String, CliError> {
    use slcs_perm::Permutation;

    let opts = Options::parse(rest, &["size", "mults", "runs", "out", "seed"], &["quick"])?;
    let quick = opts.has("quick");
    let size: usize = opts.value_parsed("size")?.unwrap_or(if quick { 512 } else { 8192 }).max(1);
    let mults: usize = opts.value_parsed("mults")?.unwrap_or(if quick { 4 } else { 8 }).max(1);
    let runs: usize = opts.value_parsed("runs")?.unwrap_or(if quick { 1 } else { 3 });
    let seed: u64 = opts.value_parsed("seed")?.unwrap_or(42);
    let out_path = opts.value("out").unwrap_or("BENCH_mem.json").to_string();

    let mut rng = slcs_datagen::seeded_rng(seed);
    let pairs: Vec<(Permutation, Permutation)> = (0..mults)
        .map(|_| (Permutation::random(size, &mut rng), Permutation::random(size, &mut rng)))
        .collect();

    let installed = slcs_alloc::installed();
    let mut report =
        format!("steady-ant allocation profile, order {size}, {mults} multiplies, {runs} run(s)\n");
    writeln!(
        report,
        "  allocator {}",
        if installed { "instrumented" } else { "NOT instrumented (counts will read 0)" }
    )
    .unwrap(); // PANIC: fmt to String is infallible

    // (name, allocs, alloc_bytes, peak_live_bytes, millis)
    let mut rows: Vec<(&str, u64, u64, u64, f64)> = Vec::new();

    // -- naive: fresh allocations at every recursion level.
    {
        let batch = || {
            for (p, q) in &pairs {
                std::hint::black_box(slcs_braid::steady_ant(p, q));
            }
        };
        batch(); // warmup
        let scope = slcs_alloc::AllocScope::enter(None);
        batch();
        let d = scope.delta();
        let [wall] = interleaved_min(runs, |_| batch());
        rows.push(("naive", d.allocs, d.alloc_bytes, d.peak_live_delta, wall.as_secs_f64() * 1e3));
    }

    // -- memopt: one workspace reused across the whole batch; only the
    //    final copy-out of each product should touch the allocator.
    {
        let mut ws = slcs_braid::BraidMulWorkspace::new(size);
        let (p0, q0) = &pairs[0];
        std::hint::black_box(ws.multiply(p0, q0, None)); // warmup
        let scope = slcs_alloc::AllocScope::enter(None);
        for (p, q) in &pairs {
            std::hint::black_box(ws.multiply(p, q, None));
        }
        let d = scope.delta();
        let [wall] = interleaved_min(runs, |_| {
            for (p, q) in &pairs {
                std::hint::black_box(ws.multiply(p, q, None));
            }
        });
        rows.push(("memopt", d.allocs, d.alloc_bytes, d.peak_live_delta, wall.as_secs_f64() * 1e3));
    }

    for (name, allocs, bytes, peak, ms) in &rows {
        writeln!(
            report,
            "  {name:<7} {allocs:>9} allocs ({:.1}/multiply)  {bytes:>12} B allocated  \
             peak {peak:>10} B  {ms:9.2} ms",
            *allocs as f64 / mults as f64
        )
        .unwrap(); // PANIC: fmt to String is infallible
    }
    if installed {
        let naive = &rows[0];
        let memopt = &rows[1];
        writeln!(
            report,
            "  memopt does {:.0}x fewer allocations, {:.0}x lower peak",
            naive.1 as f64 / (memopt.1.max(1)) as f64,
            naive.3 as f64 / (memopt.3.max(1)) as f64
        )
        .unwrap(); // PANIC: fmt to String is infallible
    }

    let config = fields! {
        algorithm: "steady_ant", order: size, multiplies: mults, runs: runs, quick: quick,
        allocator_installed: installed,
    };
    let rows = rows
        .iter()
        .map(|&(name, allocs, bytes, peak, ms)| {
            (
                fields! {variant: name},
                fields! {allocs: allocs, alloc_bytes: bytes, peak_live_bytes: peak, millis: ms},
            )
        })
        .collect();
    report.push_str(&write_bench_json(&out_path, "bench-mem", config, rows)?);
    Ok(report)
}

/// `slcs bench-osed` — the output-sensitive edit-distance path
/// (`slcs-osed`: Landau–Vishkin diagonal BFS with word-at-a-time LCP)
/// against the full-grid paths, over a similarity × size sweep.
///
/// For every (size, similarity) cell a seeded σ = 4 pair is generated
/// with [`slcs_datagen::similar_pair`]; the sequential and parallel BFS
/// must agree bit-for-bit (and with the DP reference at small sizes),
/// and the bounded variant must be exact at `k = d` and prove `> k` at
/// `k = d − 1`. The grid baselines (row-major DP and the blown-up
/// `EditDistances` index) are content-oblivious, so they are timed once
/// per size; `ratio_vs_best_grid` divides osed's time by the *fastest*
/// grid path. Each row also times the engine's dispatch decision (the
/// similarity probe) and records the route it picks, so the 80%/90%
/// rows show where the probe's crossover sits against `EditDistances`.
/// One BFS per cell runs inside an [`slcs_alloc::AllocScope`]: the
/// count is deterministic for a seeded input, which lets
/// `cargo xtask perf-gate` pin it exactly like `bench-mem`'s.
///
/// A second table runs periodic worst cases at size 65536 — unary,
/// period 4 and period 64 bases with scattered mutations — where
/// matching runs are long on many diagonals at once.
fn cmd_bench_osed(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(rest, &["sizes", "runs", "out", "seed"], &["quick"])?;
    let quick = opts.has("quick");
    let sizes =
        list_flag(&opts, "sizes", if quick { &[1024, 4096] } else { &[4096, 16384, 65536] })?;
    let runs: usize = opts.value_parsed("runs")?.unwrap_or(if quick { 1 } else { 3 });
    let seed: u64 = opts.value_parsed("seed")?.unwrap_or(42);
    let out_path = opts.value("out").unwrap_or("BENCH_osed.json").to_string();
    /// Verify against the O(mn) DP only where it stays cheap.
    const DP_VERIFY_MAX: usize = 4096;
    /// Length of the periodic worst-case rows.
    const PERIODIC_LEN: usize = 65536;
    let sims: [f64; 4] = [0.80, 0.90, 0.99, 0.999];
    let installed = slcs_alloc::installed();
    let threads = rayon::current_num_threads();

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    // Seq/par agreement plus the bounded variant's exactness at its
    // own answer; returns the distance.
    let check = |a: &[u8], b: &[u8], what: &str| -> Result<usize, CliError> {
        let d = slcs_osed::edit_distance(a, b);
        let d_par = slcs_osed::par_edit_distance(a, b);
        if d != d_par {
            return Err(err(format!("parallel BFS diverged on {what}: {d} vs {d_par}")));
        }
        if slcs_osed::edit_distance_bounded(a, b, d) != Some(d)
            || (d > 0 && slcs_osed::edit_distance_bounded(a, b, d - 1).is_some())
        {
            return Err(err(format!("bounded BFS wrong on {what}")));
        }
        Ok(d)
    };
    // Sequential and parallel BFS, timed interleaved.
    let osed_times = |a: &[u8], b: &[u8]| {
        interleaved_min(runs, |v| {
            let bfs = [slcs_osed::edit_distance, slcs_osed::par_edit_distance][v];
            std::hint::black_box(bfs(a, b));
        })
    };
    let mut report = format!(
        "output-sensitive edit distance vs full-grid, sizes {sizes:?}, \
         similarities {sims:?}, {runs} run(s), {threads} thread(s)\n"
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        // Grid timings are oblivious to string content, so one pair per
        // size serves both baselines (timed once: they run for seconds
        // at the large sizes, where noise is far below the osed margin).
        let mut rng = slcs_datagen::seeded_rng(seed);
        let (ga, gb) = slcs_datagen::similar_pair(&mut rng, n, 4, 0.01);
        let t = std::time::Instant::now();
        let dp = slcs_baselines::edit_distance(&ga, &gb);
        let dp_ms = ms(t.elapsed());
        let t = std::time::Instant::now();
        let index_global = EditDistances::new(&ga, &gb).global();
        let index_ms = ms(t.elapsed());
        if dp != index_global {
            return Err(err(format!("grid paths disagree at size {n}: {dp} vs {index_global}")));
        }
        let best_grid_ms = dp_ms.min(index_ms);
        writeln!(
            report,
            "  {n}: dp {dp_ms:10.2} ms   edit-index {index_ms:10.2} ms   (d = {dp} at 99%)"
        )
        .unwrap(); // PANIC: fmt to String is infallible
        rows.push((
            fields! {table: "grid", size: n},
            fields! {dp_millis: dp_ms, edit_index_millis: index_ms},
        ));
        for &sim in &sims {
            let mut rng = slcs_datagen::seeded_rng(seed.wrapping_add((sim * 1e4) as u64));
            let (a, b) = slcs_datagen::similar_pair(&mut rng, n, 4, 1.0 - sim);
            let d = check(&a, &b, &format!("size {n}, similarity {sim}"))?;
            if n <= DP_VERIFY_MAX && d != slcs_baselines::edit_distance(&a, &b) {
                return Err(err(format!("BFS wrong at size {n}, similarity {sim}")));
            }
            let op = slcs_engine::Operation::Edit { w: None };
            let route = slcs_engine::dispatch::decide(&op, &a, &b, 1).reason;
            let [probe] = interleaved_min(runs, |_| {
                std::hint::black_box(slcs_engine::dispatch::decide(&op, &a, &b, 1));
            });
            let scope = slcs_alloc::AllocScope::enter(None);
            std::hint::black_box(slcs_osed::edit_distance(&a, &b));
            let alloc = scope.delta();
            let [seq, par] = osed_times(&a, &b).map(ms);
            let ratio = seq.min(par) / best_grid_ms;
            let routed_ms =
                if route == slcs_engine::DispatchReason::EditSimilar { seq } else { index_ms };
            let dispatch_ms = ms(probe) + routed_ms;
            writeln!(
                report,
                "  {n} @ {:6.2}%  d={d:<6} osed {seq:9.3} ms (par {par:9.3} ms)  \
                 {:>4} allocs  ratio {ratio:.5}  probe {:7.2} us -> {} ({dispatch_ms:.3} ms)",
                100.0 * sim,
                alloc.allocs,
                probe.as_secs_f64() * 1e6,
                route.token(),
            )
            .unwrap(); // PANIC: fmt to String is infallible
            rows.push((
                fields! {table: "similarity", size: n, similarity: sim, route: route.token()},
                fields! {
                    distance: d, osed_millis: seq, osed_par_millis: par, allocs: alloc.allocs,
                    alloc_bytes: alloc.alloc_bytes, peak_live_bytes: alloc.peak_live_delta,
                    probe_micros: probe.as_secs_f64() * 1e6, dispatch_millis: dispatch_ms,
                    ratio_vs_best_grid: ratio,
                },
            ));
        }
    }

    writeln!(report, "periodic worst cases at size {PERIODIC_LEN}:").unwrap(); // PANIC: fmt to String is infallible
    for period in [1u8, 4, 64] {
        for divergence in [0.0001, 0.01] {
            let mut rng = slcs_datagen::seeded_rng(seed.wrapping_add(u64::from(period)));
            let pattern: Vec<u8> = (0..period).collect();
            let a = slcs_datagen::periodic_string(&pattern, PERIODIC_LEN);
            let model = slcs_datagen::MutationModel::with_divergence(divergence);
            let b = slcs_datagen::mutate_symbols(&mut rng, &a, &model, period.max(2));
            let d = check(&a, &b, &format!("period {period}, divergence {divergence}"))?;
            let [seq, par] = osed_times(&a, &b).map(ms);
            writeln!(
                report,
                "  period {period:>2} @ {:5.2}% divergence  d={d:<6} osed {seq:9.3} ms \
                 (par {par:9.3} ms)",
                100.0 * divergence
            )
            .unwrap(); // PANIC: fmt to String is infallible
            rows.push((
                fields! {table: "periodic", size: PERIODIC_LEN, period: u64::from(period),
                divergence: divergence},
                fields! {distance: d, osed_millis: seq, osed_par_millis: par},
            ));
        }
    }

    let config = fields! {
        algorithm: "landau_vishkin_direct", unit: "millis", quick: quick, runs: runs, sigma: 4usize,
        threads: threads, allocator_installed: installed,
    };
    report.push_str(&write_bench_json(&out_path, "bench-osed", config, rows)?);
    Ok(report)
}

/// Per-worker phase deltas between two profile snapshots: the `after`
/// rows minus the matching `before` rows. Workers spawned inside the
/// window count from zero.
fn profile_delta(
    before: &rayon::PoolProfile,
    after: &rayon::PoolProfile,
) -> Vec<rayon::WorkerProfile> {
    after
        .workers
        .iter()
        .map(|a| {
            let zero = rayon::WorkerProfile {
                worker: a.worker,
                busy_ns: 0,
                steal_ns: 0,
                idle_ns: 0,
                barrier_ns: 0,
            };
            let b = before.workers.iter().find(|b| b.worker == a.worker).unwrap_or(&zero);
            rayon::WorkerProfile {
                worker: a.worker,
                busy_ns: a.busy_ns - b.busy_ns,
                steal_ns: a.steal_ns - b.steal_ns,
                idle_ns: a.idle_ns - b.idle_ns,
                barrier_ns: a.barrier_ns - b.barrier_ns,
            }
        })
        .collect()
}

/// The two workloads `slcs profile` knows how to drive: the
/// anti-diagonal wavefront sweep (the paper's core kernel) and the
/// parallel steady-ant braid multiplication.
#[allow(clippy::type_complexity)]
fn profile_workload(
    workload: &str,
    size: usize,
    grain: usize,
    seed: u64,
) -> Result<(Box<dyn Fn()>, Box<dyn Fn()>), CliError> {
    let mut rng = slcs_datagen::seeded_rng(seed);
    match workload {
        "wavefront" => {
            let a = slcs_datagen::uniform_string(&mut rng, size, 4);
            let b = slcs_datagen::uniform_string(&mut rng, size, 4);
            let (sa, sb) = (a.clone(), b.clone());
            Ok((
                Box::new(move || {
                    std::hint::black_box(slcs_semilocal::antidiag_combing_branchless(&sa, &sb));
                }),
                Box::new(move || {
                    std::hint::black_box(slcs_semilocal::par_antidiag_combing_branchless_sched(
                        &a,
                        &b,
                        slcs_semilocal::Scheduling::WorkSteal,
                        grain,
                    ));
                }),
            ))
        }
        "braid" => {
            let p = slcs_perm::Permutation::random(size, &mut rng);
            let q = slcs_perm::Permutation::random(size, &mut rng);
            let (sp, sq) = (p.clone(), q.clone());
            Ok((
                // Depth 0 reproduces the sequential combined algorithm,
                // depth 4 is the paper's Figure 4(b) optimum.
                Box::new(move || {
                    std::hint::black_box(slcs_braid::parallel_steady_ant(&sp, &sq, 0));
                }),
                Box::new(move || {
                    std::hint::black_box(slcs_braid::parallel_steady_ant(&p, &q, 4));
                }),
            ))
        }
        other => Err(err(format!("unknown workload '{other}' (wavefront | braid)"))),
    }
}

/// `slcs profile` — runs one workload with phase accounting and tracing
/// on, and reports where the pool's wall clock went: per-worker
/// busy/steal/idle/barrier attribution with utilization bars, the
/// traced timeline's critical path (measured work T_total, measured
/// span T_crit, parallelism T_total/T_crit, top-k spans on the path)
/// and the speedup against a measured sequential run of the same
/// workload. `--trace FILE` additionally writes the Chrome timeline,
/// one named lane per pool worker.
fn cmd_profile(rest: &[String]) -> Result<String, CliError> {
    let opts = Options::parse(
        rest,
        &["size", "threads", "grain", "topk", "runs", "trace", "seed"],
        &["quick"],
    )?;
    let quick = opts.has("quick");
    let workload = match opts.positional.as_slice() {
        [] => "wavefront",
        [w] => w.as_str(),
        _ => return Err(err("profile takes at most one workload (wavefront | braid)")),
    };
    let size: usize = opts.value_parsed("size")?.unwrap_or(if quick { 1024 } else { 16384 }).max(4);
    let threads: usize = opts
        .value_parsed("threads")?
        .unwrap_or(if quick { 2 } else { usize::MAX }.min(host_nproc()))
        .max(1);
    let grain: usize = opts.value_parsed("grain")?.unwrap_or(if quick { 256 } else { 2048 }).max(1);
    let topk: usize = opts.value_parsed("topk")?.unwrap_or(5).max(1);
    let runs: usize = opts.value_parsed("runs")?.unwrap_or(1);
    let seed: u64 = opts.value_parsed("seed")?.unwrap_or(42);

    let (seq_run, par_run) = profile_workload(workload, size, grain, seed)?;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| err(e.to_string()))?;
    // Measured T1 first, outside the profiled window, so the sequential
    // baseline never pollutes the phase counters or the timeline.
    let [t1] = interleaved_min(runs, |_| seq_run());
    // Force the workers into existence before the window: thread spawn
    // cost is setup, not workload time.
    rayon::team_run(threads, |_| {});

    rayon::set_profiling(true);
    slcs_trace::enable_fresh();
    let before = rayon::pool_profile();
    let t0 = std::time::Instant::now();
    pool.install(&*par_run);
    let tp = t0.elapsed();
    let after = rayon::pool_profile();
    slcs_trace::set_enabled(false);
    rayon::set_profiling(false);
    let timeline = slcs_trace::drain();
    let crit = timeline.critical_path();

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = format!(
        "parallelism profile: {workload} size {size}, {threads} thread(s), \
         sched work_steal, grain {grain}\n"
    );
    writeln!(out, "  T1 (sequential)  {:9.2} ms", t1.as_secs_f64() * 1e3).unwrap(); // PANIC: fmt to String is infallible
    writeln!(
        out,
        "  Tp (profiled)    {:9.2} ms   speedup {:.2}x",
        tp.as_secs_f64() * 1e3,
        t1.as_secs_f64() / tp.as_secs_f64().max(1e-9)
    )
    .unwrap(); // PANIC: fmt to String is infallible

    let rows = profile_delta(&before, &after);
    out.push_str("per-worker phase attribution over the profiled run:\n");
    if rows.is_empty() {
        out.push_str("  (no pool workers spawned — leader-only run)\n");
    }
    let mut sums = (0u64, 0u64, 0u64, 0u64);
    for w in &rows {
        sums = (sums.0 + w.busy_ns, sums.1 + w.steal_ns, sums.2 + w.idle_ns, sums.3 + w.barrier_ns);
        writeln!(
            out,
            "  worker {:<3} {} {:5.1}%  busy {:.1}ms steal {:.1}ms idle {:.1}ms barrier {:.1}ms",
            w.worker,
            utilization_bar(w.utilization(), 20),
            100.0 * w.utilization(),
            ms(w.busy_ns),
            ms(w.steal_ns),
            ms(w.idle_ns),
            ms(w.barrier_ns)
        )
        .unwrap(); // PANIC: fmt to String is infallible
    }
    let attributed = sums.0 + sums.1 + sums.2 + sums.3;
    if attributed > 0 {
        writeln!(
            out,
            "  pool utilization {:.1}% (busy / attributed across {} worker(s))",
            100.0 * sums.0 as f64 / attributed as f64,
            rows.len()
        )
        .unwrap(); // PANIC: fmt to String is infallible
    }

    out.push_str("critical path over the traced timeline:\n");
    writeln!(
        out,
        "  T_total {:9.2} ms   T_crit {:9.2} ms   parallelism {:.2}   \
         ({} spans, chain length {})",
        crit.total_us as f64 / 1e3,
        crit.crit_us as f64 / 1e3,
        crit.parallelism(),
        crit.span_count,
        crit.chain_len
    )
    .unwrap(); // PANIC: fmt to String is infallible
    for s in crit.chain.iter().take(topk) {
        writeln!(out, "    {:<20} x{:<6} {:9.2} ms", s.name, s.count, s.total_us as f64 / 1e3)
            .unwrap(); // PANIC: fmt to String is infallible
    }
    if timeline.dropped > 0 {
        writeln!(
            out,
            "  ({} events dropped by the trace ring — critical path is a lower bound)",
            timeline.dropped
        )
        .unwrap(); // PANIC: fmt to String is infallible
    }
    if let Some(path) = opts.value("trace") {
        out.push_str(&write_timeline(&timeline, path, true)?);
    }
    Ok(out)
}

/// `slcs bench-profile` — the profiler's benchmark artifact
/// (`BENCH_profile.json`): per-(size, threads) pool utilization and
/// critical-path parallelism of the work-stealing wavefront sweep, plus
/// the profiler's own overhead at the largest sweep point, measured
/// twice:
///
/// * the `profiler_off_b` row's `overhead_percent` — an A/A run
///   (profiling off vs the `profiler_off_a` row, also off): the
///   disabled profiler costs one relaxed load per phase hook, so this
///   number bounds machine noise + that load, and `cargo xtask
///   perf-gate` pins it near zero;
/// * the `profiler_on` row's `overhead_percent` — profiling on (tracing
///   off) vs off: the full cost of live phase accounting.
fn cmd_bench_profile(rest: &[String]) -> Result<String, CliError> {
    let opts =
        Options::parse(rest, &["sizes", "threads", "grain", "runs", "out", "seed"], &["quick"])?;
    let quick = opts.has("quick");
    let sizes = list_flag(&opts, "sizes", if quick { &[512] } else { &[16384] })?;
    let ladder = thread_ladder(if quick { 2 } else { usize::MAX });
    let threads = list_flag(&opts, "threads", &ladder)?;
    let grain: usize = opts.value_parsed("grain")?.unwrap_or(if quick { 128 } else { 2048 }).max(1);
    let runs: usize = opts.value_parsed("runs")?.unwrap_or(if quick { 1 } else { 3 });
    let seed: u64 = opts.value_parsed("seed")?.unwrap_or(42);
    let out_path = opts.value("out").unwrap_or("BENCH_profile.json").to_string();
    if sizes.is_empty() || threads.is_empty() {
        return Err(err("bench-profile: --sizes and --threads must be non-empty"));
    }

    let sweep = |a: &[u8], b: &[u8]| {
        std::hint::black_box(slcs_semilocal::par_antidiag_combing_branchless_sched(
            a,
            b,
            slcs_semilocal::Scheduling::WorkSteal,
            grain,
        ));
    };
    let max_threads = threads.iter().copied().max().unwrap_or(1);
    // Stabilize the spawned-worker set before any profiled window:
    // utilization is relative to every spawned pool worker, so the set
    // must not grow between rows.
    rayon::team_run(max_threads, |_| {});

    let mut report = String::from("parallelism profiler benchmark\n");
    writeln!(report, "grain={grain} runs={runs} sizes={sizes:?} threads={threads:?}").unwrap(); // PANIC: fmt to String is infallible
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut rng = slcs_datagen::seeded_rng(seed);
        let a = slcs_datagen::uniform_string(&mut rng, n, 4);
        let b = slcs_datagen::uniform_string(&mut rng, n, 4);
        for &t in &threads {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .map_err(|e| err(e.to_string()))?;
            rayon::set_profiling(true);
            slcs_trace::enable_fresh();
            let before = rayon::pool_profile();
            let t0 = std::time::Instant::now();
            pool.install(|| sweep(&a, &b));
            let wall = t0.elapsed();
            let after = rayon::pool_profile();
            slcs_trace::set_enabled(false);
            rayon::set_profiling(false);
            let crit = slcs_trace::drain().critical_path();
            let d = profile_delta(&before, &after);
            let busy: u64 = d.iter().map(|w| w.busy_ns).sum();
            let steal: u64 = d.iter().map(|w| w.steal_ns).sum();
            let idle: u64 = d.iter().map(|w| w.idle_ns).sum();
            let barrier: u64 = d.iter().map(|w| w.barrier_ns).sum();
            let attributed = busy + steal + idle + barrier;
            let util = if attributed > 0 { busy as f64 / attributed as f64 } else { 0.0 };
            let pi = crit.parallelism();
            let millis = wall.as_secs_f64() * 1e3;
            writeln!(
                report,
                "  {n}x{n}  work_steal t={t}  util {:5.1}%  parallelism {pi:5.2}  \
                 {millis:9.2} ms",
                100.0 * util
            )
            .unwrap(); // PANIC: fmt to String is infallible
            rows.push((
                fields! {size: n, threads: t, mode: "work_steal"},
                fields! {
                    utilization: util, parallelism: pi, busy_ns: busy, steal_ns: steal,
                    idle_ns: idle, barrier_ns: barrier, millis: millis,
                },
            ));
        }
    }

    // Profiler overhead at the largest sweep point. Tracing stays off:
    // this isolates the phase-accounting hooks.
    let n = sizes.iter().copied().max().unwrap_or(512);
    let mut rng = slcs_datagen::seeded_rng(seed);
    let a = slcs_datagen::uniform_string(&mut rng, n, 4);
    let b = slcs_datagen::uniform_string(&mut rng, n, 4);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(max_threads)
        .build()
        .map_err(|e| err(e.to_string()))?;
    let [off_a, off_b, on] = pool.install(|| {
        interleaved_min(runs, |variant| {
            rayon::set_profiling(variant == 2);
            sweep(&a, &b);
        })
    });
    rayon::set_profiling(false);
    let off_pct =
        100.0 * (off_b.as_secs_f64() - off_a.as_secs_f64()) / off_a.as_secs_f64().max(1e-9);
    let on_pct = 100.0 * (on.as_secs_f64() - off_a.as_secs_f64()) / off_a.as_secs_f64().max(1e-9);
    let msd = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    writeln!(
        report,
        "  overhead at {n}x{n} t={max_threads}: off {:.2} ms / {:.2} ms (A/A {off_pct:+.2}%), \
         on {:.2} ms ({on_pct:+.2}%)",
        msd(off_a),
        msd(off_b),
        msd(on)
    )
    .unwrap(); // PANIC: fmt to String is infallible

    for (variant, d, overhead) in [
        ("profiler_off_a", off_a, None),
        ("profiler_off_b", off_b, Some(off_pct)),
        ("profiler_on", on, Some(on_pct)),
    ] {
        let mut metrics = fields! {millis: msd(d)};
        metrics.extend(overhead.map(|pct| ("overhead_percent", Scalar::from(pct))));
        rows.push((fields! {variant: variant, size: n, threads: max_threads}, metrics));
    }
    let config = fields! {
        algorithm: "par_antidiag_combing_branchless", quick: quick, par_grain: grain, runs: runs,
        pool_spawned_workers: rayon::pool_spawned_workers(),
    };
    report.push_str(&write_bench_json(&out_path, "bench-profile", config, rows)?);
    Ok(report)
}

fn two_operands(opts: &Options) -> Result<[Vec<u8>; 2], CliError> {
    if opts.positional.len() != 2 {
        return Err(err(format!(
            "expected exactly two operands, got {}\n{USAGE}",
            opts.positional.len()
        )));
    }
    Ok([resolve_input(&opts.positional[0])?, resolve_input(&opts.positional[1])?])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit-test binary installs the instrumented allocator too, so
    /// the `bench-mem` test exercises real counts rather than the
    /// not-installed zero path.
    #[global_allocator]
    static TEST_ALLOC: slcs_alloc::InstrumentedAlloc = slcs_alloc::InstrumentedAlloc;

    fn run(cmd: &str, args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(cmd, &args)
    }

    /// The number after `"key": ` on the first artifact row (one per
    /// line) that contains every marker.
    fn row_metric(json: &str, markers: &[&str], key: &str) -> f64 {
        let line = json.lines().find(|l| markers.iter().all(|m| l.contains(m)));
        let line = line.unwrap_or_else(|| panic!("no row with {markers:?} in:\n{json}"));
        let rest = line.split(&format!("\"{key}\": ")).nth(1);
        let rest = rest.unwrap_or_else(|| panic!("no {key} in {line}"));
        rest.split([',', '}']).next().unwrap().trim().parse().unwrap()
    }

    #[test]
    fn bench_json_has_one_schema_and_labels_oversubscribed_rows() {
        let out = std::env::temp_dir().join("slcs_bench_json_test.json");
        let path = out.display().to_string();
        let over = host_nproc() + 1;
        let rows = vec![
            (fields! {threads: 1usize}, fields! {millis: 1.5}),
            (fields! {threads: over}, fields! {millis: 0.25}),
            (fields! {variant: "x"}, fields! {ratio: 0.00004}),
        ];
        let config = fields! {threads: over, name: "a\"b", ok: true, bad: f64::NAN};
        write_bench_json(&path, "bench-test", config, rows).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        let host = format!("\"host\": {{\"nproc\": {}, \"isa\": \"", host_nproc());
        assert!(json.starts_with("{\n  \"bench\": \"bench-test\",\n  ") && json.contains(&host));
        assert!(json.contains(r#""config": {"threads": "#) && json.contains(r#""name": "a\"b""#));
        assert!(json.contains(r#""ok": true, "bad": null}"#), "{json}");
        // A row over nproc, by its own label or the config's, is labelled.
        let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"labels\"")).collect();
        assert_eq!(rows[0], r#"    {"labels": {"threads": 1}, "metrics": {"millis": 1.500}},"#);
        assert!(rows[1].contains(r#""oversubscribed": true}"#), "{json}");
        assert!(rows[2].contains(r#""oversubscribed": true}, "metrics": {"ratio": 0.00004000}"#));
        let ladder = thread_ladder(usize::MAX);
        assert_eq!((ladder[0], ladder.last().copied()), (1, Some(host_nproc())), "{ladder:?}");
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn lcs_command_reports_score_and_witness() {
        let out = run("lcs", &["ABCBDAB", "BDCABA", "--show"]).unwrap();
        assert!(out.contains("LCS = 4"), "{out}");
        assert!(out.contains("witness: "), "{out}");
    }

    #[test]
    fn scan_finds_exact_occurrence() {
        let out = run("scan", &["abc", "zzabczz", "--min-similarity", "0.9"]).unwrap();
        assert!(out.contains("1 hit(s)"), "{out}");
        assert!(out.contains("100.0%"), "{out}");
    }

    #[test]
    fn edit_command_reports_distances() {
        let out = run("edit", &["kitten", "sitting"]).unwrap();
        assert!(out.contains("global edit distance = 3"), "{out}");
    }

    #[test]
    fn braid_command_renders() {
        let out = run("braid", &["ab", "ba"]).unwrap();
        assert!(out.contains("LCS = 1"), "{out}");
        assert!(out.contains('╮'), "{out}");
    }

    #[test]
    fn braid_rejects_large_inputs() {
        let big = "x".repeat(100);
        assert!(run("braid", &[&big, "y"]).is_err());
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let e = run("frobnicate", &[]).unwrap_err();
        assert!(e.0.contains("usage"), "{e}");
    }

    #[test]
    fn operand_arity_is_checked() {
        assert!(run("lcs", &["onlyone"]).is_err());
        assert!(run("lcs", &["a", "b", "c"]).is_err());
    }

    #[test]
    fn resolve_reads_files_and_fasta() {
        let dir = std::env::temp_dir();
        let raw = dir.join("slcs_cli_test_raw.txt");
        std::fs::write(&raw, b"hello\n").unwrap();
        assert_eq!(resolve_input(&format!("@{}", raw.display())).unwrap(), b"hello");
        let fasta = dir.join("slcs_cli_test.fasta");
        std::fs::write(&fasta, b">rec desc\nACGT\nTT\n").unwrap();
        assert_eq!(resolve_input(&format!("@{}", fasta.display())).unwrap(), b"ACGTTT");
        assert!(resolve_input("@/definitely/missing/file").is_err());
        let _ = std::fs::remove_file(raw);
        let _ = std::fs::remove_file(fasta);
    }

    #[test]
    fn cluster_groups_fasta_records() {
        let dir = std::env::temp_dir();
        let f = dir.join("slcs_cli_cluster.fasta");
        std::fs::write(&f, b">a1\nAAAAAAAAAA\n>a2\nAAAAACAAAA\n>b1\nGGGGGGGGGG\n>b2\nGGGGGCGGGG\n")
            .unwrap();
        let path = f.display().to_string();
        let out = run("cluster", &[&path, "--cut", "0.5"]).unwrap_or_else(|e| panic!("{e}"));
        assert!(out.contains("4 sequences"), "{out}");
        assert!(out.contains("{a1, a2}") || out.contains("{a2, a1}"), "{out}");
        assert!(out.contains("{b1, b2}") || out.contains("{b2, b1}"), "{out}");
        let _ = std::fs::remove_file(f);
    }

    #[test]
    fn global_flags_split_off_cleanly() {
        let args: Vec<String> = ["--threads", "3", "--version", "lcs", "a", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (global, rest) = parse_global(&args).unwrap();
        assert!(global.version);
        assert_eq!(global.threads, Some(3));
        assert_eq!(rest, vec!["lcs", "a", "b"]);
        // Flags after the subcommand belong to the subcommand.
        let args: Vec<String> = ["lcs", "--threads"].iter().map(|s| s.to_string()).collect();
        let (global, rest) = parse_global(&args).unwrap();
        assert!(global.threads.is_none());
        assert_eq!(rest.len(), 2);
        assert!(parse_global(&["--threads".to_string()]).is_err());
        assert!(parse_global(&["--threads".to_string(), "0".to_string()]).is_err());
    }

    #[test]
    fn version_command_reports_version() {
        let out = run("version", &[]).unwrap();
        assert!(out.contains(env!("CARGO_PKG_VERSION")), "{out}");
    }

    #[test]
    fn serve_smoke_binds_and_exits() {
        let out = run("serve", &["--addr", "127.0.0.1:0", "--smoke", "--workers", "1"]).unwrap();
        assert!(out.is_empty());
        assert!(run("serve", &["--addr", "not-an-address", "--smoke"]).is_err());
    }

    #[test]
    fn serve_parses_slo_and_recorder_flags() {
        let args = [
            "--addr",
            "127.0.0.1:0",
            "--smoke",
            "--workers",
            "1",
            "--recorder",
            "64",
            "--window-slice",
            "0",
            "--slo",
            "lcs=50000,edit=100000",
            "--slo-depth",
            "10",
            "--slo-budget",
            "2.5",
        ];
        assert!(run("serve", &args).unwrap().is_empty());
        for bad in ["nope", "lcs=abc", "zzz=5"] {
            let e = run("serve", &["--addr", "127.0.0.1:0", "--smoke", "--slo", bad]).unwrap_err();
            assert!(e.0.contains("--slo") || e.0.contains("class"), "{e}");
        }
    }

    #[test]
    fn top_and_audit_commands_poll_a_live_server() {
        // PROFILE on/off toggles the process-global phase accounting, so
        // serialize with the other global-state tests.
        let _guard = slcs_trace::test_support::hold();
        let engine = std::sync::Arc::new(slcs_engine::Engine::new(slcs_engine::EngineConfig {
            workers: 1,
            ..slcs_engine::EngineConfig::default()
        }));
        engine
            .submit_wait(slcs_engine::CompareRequest::new(
                &b"abcabba"[..],
                &b"cbabac"[..],
                slcs_engine::Operation::Lcs,
            ))
            .unwrap();
        let handle =
            slcs_engine::serve("127.0.0.1:0", engine, slcs_engine::ServerConfig::default())
                .unwrap();
        let addr = handle.addr().to_string();

        let top = run("top", &["--addr", &addr, "--count", "2", "--interval", "1"]).unwrap();
        assert!(top.contains("health: OK"), "{top}");
        assert!(top.contains("completed=1"), "{top}");
        assert!(top.contains("/s avg"), "{top}");
        assert!(top.contains("cache: hits=0 misses=0 ratio=0.0%"), "{top}");
        assert!(top.contains("dispatch: small_alphabet:1"), "{top}");
        assert!(top.contains("pool: jobs="), "{top}");
        assert!(top.contains("steals="), "{top}");
        assert!(top.contains("steal_ratio="), "{top}");
        assert!(top.contains("windowed p99"), "{top}");
        assert!(top.contains("lcs"), "{top}");
        // With the profiler off the frame says how to turn it on; with
        // it on, the frame carries the pool utilization header.
        assert!(top.contains("profile: off"), "{top}");
        let mut ctl = LineClient::connect(&addr).unwrap();
        assert_eq!(ctl.line("PROFILE on").unwrap(), "OK profiling on");
        let top_on = run("top", &["--addr", &addr, "--count", "1"]).unwrap();
        assert!(top_on.contains("profile: on  pool util "), "{top_on}");
        assert_eq!(ctl.line("PROFILE off").unwrap(), "OK profiling off");

        let audit = run("audit", &["--addr", &addr]).unwrap();
        assert!(audit.starts_with("OK 1"), "{audit}");
        assert!(audit.contains("class=lcs"), "{audit}");
        let slowest = run("audit", &["--addr", &addr, "slowest", "1"]).unwrap();
        assert!(slowest.starts_with("OK 1"), "{slowest}");
        assert!(slowest.contains("service_ns="), "{slowest}");
        // A fast request under the default SLO leaves no slow captures.
        let captures = run("audit", &["--addr", &addr, "captures"]).unwrap();
        assert!(captures.starts_with("OK 0"), "{captures}");
        // Bad filters surface the server's usage error without hanging.
        let bad = run("audit", &["--addr", &addr, "bogus"]).unwrap();
        assert!(bad.starts_with("ERR"), "{bad}");

        handle.stop();
        assert!(run("top", &["--addr", "256.0.0.1:1", "--count", "1"]).is_err());
    }

    #[test]
    fn bench_baseline_quick_writes_json() {
        let out = std::env::temp_dir().join("slcs_bench_pool_test.json");
        let path = out.display().to_string();
        let args = ["--quick", "--sizes", "256", "--threads", "1,2", "--grain", "64,256"];
        let text =
            run("bench-baseline", &[&args[..], &["--runs", "1", "--out", &path]].concat()).unwrap();
        assert!(text.contains("ns/cell"), "{text}");
        assert!(text.contains("work_steal"), "{text}");
        let json = std::fs::read_to_string(&out).unwrap();
        let seq =
            "{\"size\": 256, \"threads\": 1, \"mode\": \"seq\"}, \"metrics\": {\"ns_per_cell\"";
        assert!(json.contains(seq), "{json}");
        for g in [64, 256] {
            let row = format!("\"threads\": 2, \"mode\": \"work_steal\", \"grain\": {g}}}");
            assert!(json.contains(&row), "missing {row} in:\n{json}");
        }
        // 256² cannot form a team at the production grain: the plan is
        // the sequential sweep, and its row reuses the seq timing.
        assert!(
            json.contains("\"mode\": \"planned\", \"route\": \"seq\", \"grain\": 8192}"),
            "{json}"
        );
        assert_eq!(json.matches("\"mode\": ").count(), 4, "{json}");
        for key in [
            "\"grains\": \"64,256\"",
            "\"plan_grain\": 8192",
            "\"host\": {\"nproc\": ",
            "\"isa\": ",
            "\"pool_spawned_workers\": ",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let _ = std::fs::remove_file(out);
        assert!(run("bench-baseline", &["--sizes", "bogus"]).is_err());
        assert!(run("bench-baseline", &["--grain", "0"]).is_err());
    }

    /// Flags are strict per subcommand: a typo or a removed flag is an
    /// error naming it, and `--help` runs nothing.
    #[test]
    fn bench_subcommands_reject_unknown_flags() {
        let out = std::env::temp_dir().join("slcs_strict_flags_test.json");
        let path = out.display().to_string();
        let _ = std::fs::remove_file(&out);
        for cmd in
            ["bench-baseline", "bench-obs", "bench-mem", "bench-osed", "bench-profile", "profile"]
        {
            let e = run(cmd, &["--qiuck", "--out", &path]).unwrap_err().0;
            assert!(e.contains("--qiuck") && e.contains("--quick"), "{cmd}: {e}");
        }
        let e = run("bench-baseline", &["--help", "--out", &path]).unwrap_err().0;
        assert!(e.contains("unknown flag --help") && e.contains("--sizes"), "{e}");
        assert!(!out.exists(), "a rejected command wrote {path}");
        assert!(run("profile", &["--sched", "team", "--quick"]).is_err());
        assert!(run("tune", &["--quick"]).is_err());
        assert!(run("lcs", &["--shw", "ab", "ba"]).is_err());
    }

    #[test]
    fn trace_subcommand_exports_timeline() {
        let _guard = slcs_trace::test_support::hold();
        let out_file = std::env::temp_dir().join("slcs_cli_trace_test.json");
        let path = out_file.display().to_string();
        let out = run("trace", &["--out", &path, "lcs", "ABCBDAB", "BDCABA"]).unwrap();
        assert!(out.contains("LCS = 4"), "{out}");
        assert!(out.contains("[trace written "), "{out}");
        let json = std::fs::read_to_string(&out_file).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        let _ = std::fs::remove_file(out_file);
        // Without --out, the text tree is appended to the output.
        let text = run("trace", &["lcs", "ab", "ba"]).unwrap();
        assert!(text.contains("--- trace ---"), "{text}");
        assert!(run("trace", &[]).is_err());
        assert!(run("trace", &["trace", "lcs", "a", "b"]).is_err());
        assert!(run("trace", &["--format", "yaml", "lcs", "a", "b"]).is_err());
    }

    #[test]
    fn bench_baseline_trace_flag_covers_all_three_layers() {
        let _guard = slcs_trace::test_support::hold();
        let dir = std::env::temp_dir();
        let out = dir.join("slcs_bench_pool_traced_test.json");
        let trace = dir.join("slcs_bench_pool_traced_test_timeline.json");
        let (out_s, trace_s) = (out.display().to_string(), trace.display().to_string());
        let text = run(
            "bench-baseline",
            &[
                "--quick",
                "--sizes",
                "256",
                "--threads",
                "2",
                "--runs",
                "1",
                "--out",
                &out_s,
                "--trace",
                &trace_s,
            ],
        )
        .unwrap();
        assert!(text.contains("[trace written "), "{text}");
        let json = std::fs::read_to_string(&trace).unwrap();
        for span in [
            "wavefront.chunk",
            "pool.job",
            "engine.request",
            "team.run",
            "engine.dispatch",
            "osed.edit",
            "osed.bfs_round",
            "engine.slow_capture",
        ] {
            assert!(json.contains(span), "missing {span} in traced bench timeline");
        }
        assert!(json.contains("edit_similar"), "osed routing reason missing:\n{json:.300}");
        // The traced pass runs with the profiler on, so the artifact
        // carries the full surface `cargo xtask trace-check` requires:
        // phase instants plus named, ordered worker lanes.
        for marker in ["pool.worker_phase", "\"worker-0\"", "thread_sort_index"] {
            assert!(json.contains(marker), "missing {marker} in traced bench timeline");
        }
        assert!(!rayon::profiling_enabled(), "bench-baseline left profiling on");
        let _ = std::fs::remove_file(out);
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn bench_obs_quick_writes_overhead_json() {
        let _guard = slcs_trace::test_support::hold();
        let out = std::env::temp_dir().join("slcs_bench_obs_test.json");
        let path = out.display().to_string();
        let text = run(
            "bench-obs",
            &["--quick", "--size", "256", "--threads", "2", "--runs", "1", "--out", &path],
        )
        .unwrap();
        assert!(text.contains("untraced"), "{text}");
        assert!(text.contains("events recorded"), "{text}");
        assert!(text.contains("recorder off"), "{text}");
        assert!(text.contains("recorder+windows on"), "{text}");
        let json = std::fs::read_to_string(&out).unwrap();
        for variant in ["untraced", "disabled", "enabled", "recorder_off", "recorder_on"] {
            row_metric(&json, &[&format!("\"variant\": \"{variant}\"")], "millis");
        }
        for variant in ["disabled", "enabled", "recorder_on"] {
            row_metric(&json, &[&format!("\"{variant}\"")], "overhead_percent");
        }
        for key in ["\"trace_events_recorded\"", "\"trace_events_dropped\"", "\"requests\": 64"] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches("\"labels\"").count(), 5, "{json}");
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn bench_mem_shows_memopt_beating_naive() {
        let out = std::env::temp_dir().join("slcs_bench_mem_test.json");
        let path = out.display().to_string();
        let text = run(
            "bench-mem",
            &["--quick", "--size", "256", "--mults", "4", "--runs", "1", "--out", &path],
        )
        .unwrap();
        assert!(text.contains("allocs"), "{text}");
        assert!(text.contains("fewer allocations"), "{text}");
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"allocator_installed\": true"), "{json}");
        assert_eq!(json.matches("\"labels\"").count(), 2, "{json}");
        let field = |variant: &str, key: &str| {
            row_metric(&json, &[&format!("\"variant\": \"{variant}\"")], key)
        };
        let (naive_allocs, memopt_allocs) = (field("naive", "allocs"), field("memopt", "allocs"));
        let (naive_peak, memopt_peak) =
            (field("naive", "peak_live_bytes"), field("memopt", "peak_live_bytes"));
        assert!(
            memopt_allocs < naive_allocs,
            "memopt must allocate strictly less: {memopt_allocs} vs {naive_allocs}"
        );
        assert!(
            memopt_peak < naive_peak,
            "memopt peak must be strictly lower: {memopt_peak} vs {naive_peak}"
        );
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn bench_osed_sweeps_and_beats_the_grid() {
        let out = std::env::temp_dir().join("slcs_bench_osed_test.json");
        let path = out.display().to_string();
        let text =
            run("bench-osed", &["--quick", "--sizes", "1024", "--runs", "1", "--out", &path])
                .unwrap();
        assert!(text.contains("osed"), "{text}");
        assert!(text.contains("ratio"), "{text}");
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"bench\": \"bench-osed\""), "{json}");
        assert!(json.contains("\"allocator_installed\": true"), "{json}");
        for key in [
            "\"algorithm\": \"landau_vishkin_direct\"",
            "\"table\": \"grid\"",
            "\"similarity\": 0.8000,",
            "\"similarity\": 0.9000,",
            "\"similarity\": 0.9900,",
            "\"similarity\": 0.9990,",
            "\"route\": \"edit_similar\"",
            "\"probe_micros\"",
            "\"dispatch_millis\"",
            "\"period\": 1,",
            "\"period\": 4,",
            "\"period\": 64,",
            "\"osed_millis\"",
            "\"osed_par_millis\"",
            "\"ratio_vs_best_grid\"",
            "\"dp_millis\"",
            "\"edit_index_millis\"",
            "\"allocs\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // One grid row, four similarity rows, six periodic rows.
        assert_eq!(json.matches("\"labels\"").count(), 11, "{json}");
        // At 99% similarity even a 1024-size sweep should already be
        // well under the grid paths.
        let ratio = row_metric(&json, &["\"similarity\": 0.9900,"], "ratio_vs_best_grid");
        assert!(ratio < 1.0, "osed should beat the best grid path, ratio {ratio}");
        let _ = std::fs::remove_file(out);
        assert!(run("bench-osed", &["--sizes", "bogus"]).is_err());
    }

    #[test]
    fn profile_command_reports_phases_and_critical_path() {
        let _guard = slcs_trace::test_support::hold();
        let out = run(
            "profile",
            &["--quick", "--size", "256", "--threads", "2", "--grain", "64", "--topk", "3"],
        )
        .unwrap();
        assert!(out.contains("parallelism profile: wavefront size 256"), "{out}");
        assert!(out.contains("T1 (sequential)"), "{out}");
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("worker 0"), "{out}");
        for phase in ["busy", "steal", "idle", "barrier"] {
            assert!(out.contains(phase), "missing {phase} in:\n{out}");
        }
        assert!(out.contains("T_total"), "{out}");
        assert!(out.contains("T_crit"), "{out}");
        assert!(out.contains("parallelism "), "{out}");
        // The profiled window must leave both global switches off.
        assert!(!rayon::profiling_enabled());
        assert!(!slcs_trace::enabled());
        assert!(run("profile", &["bogus-workload", "--quick"]).is_err());
        assert!(run("profile", &["a", "b"]).is_err());
    }

    #[test]
    fn profile_braid_workload_writes_worker_lane_trace() {
        let _guard = slcs_trace::test_support::hold();
        let trace = std::env::temp_dir().join("slcs_cli_profile_braid_trace.json");
        let path = trace.display().to_string();
        // Size 8192 so the flattened recursion tree has real leaf
        // levels (4096-wide children still split); a 4096 root would
        // be a single node and the team would be leader-only.
        let out = run(
            "profile",
            &["braid", "--quick", "--size", "8192", "--threads", "2", "--trace", &path],
        )
        .unwrap();
        assert!(out.contains("parallelism profile: braid size 8192"), "{out}");
        assert!(out.contains("[trace written "), "{out}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.contains("braid.mul"), "{json:.400}");
        assert!(json.contains("braid.node"), "{json:.400}");
        assert!(json.contains("thread_sort_index"), "{json:.400}");
        assert!(json.contains("\"worker-0\""), "{json:.400}");
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn bench_profile_quick_writes_utilization_json() {
        let _guard = slcs_trace::test_support::hold();
        let out = std::env::temp_dir().join("slcs_bench_profile_test.json");
        let path = out.display().to_string();
        let text = run(
            "bench-profile",
            &[
                "--quick",
                "--sizes",
                "256",
                "--threads",
                "1,2",
                "--grain",
                "64",
                "--runs",
                "1",
                "--out",
                &path,
            ],
        )
        .unwrap();
        assert!(text.contains("util"), "{text}");
        assert!(text.contains("parallelism"), "{text}");
        assert!(text.contains("overhead at 256x256"), "{text}");
        let json = std::fs::read_to_string(&out).unwrap();
        for key in [
            "\"bench\": \"bench-profile\"",
            "\"mode\": \"work_steal\"",
            "\"utilization\"",
            "\"parallelism\"",
            "\"busy_ns\"",
            "\"barrier_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        for variant in ["profiler_off_b", "profiler_on"] {
            row_metric(&json, &[&format!("\"variant\": \"{variant}\"")], "overhead_percent");
        }
        row_metric(&json, &["\"variant\": \"profiler_off_a\"", "\"size\": 256"], "millis");
        // Two thread points at one size, then the three overhead rows.
        assert_eq!(json.matches("\"mode\":").count(), 2, "{json}");
        assert_eq!(json.matches("\"labels\"").count(), 5, "{json}");
        let _ = std::fs::remove_file(out);
        assert!(run("bench-profile", &["--sizes", "bogus"]).is_err());
        assert!(run("bench-profile", &["--sizes", ""]).is_err());
    }

    #[test]
    fn utilization_bar_clamps_and_scales() {
        assert_eq!(utilization_bar(0.0, 4), "[----]");
        assert_eq!(utilization_bar(0.5, 4), "[##--]");
        assert_eq!(utilization_bar(1.0, 4), "[####]");
        assert_eq!(utilization_bar(7.5, 4), "[####]");
        assert_eq!(utilization_bar(-1.0, 4), "[----]");
    }

    #[test]
    fn profile_section_renders_on_off_and_error_lines() {
        let off = profile_section(&["OK 2 off util=0.0".to_string()]);
        assert!(off.contains("profile: off"), "{off}");
        let on = profile_section(&[
            "OK 1 on util=42.0".to_string(),
            "worker=0 busy_ns=420000000 steal_ns=10000000 idle_ns=560000000 \
             barrier_ns=10000000 util=42.0"
                .to_string(),
        ]);
        assert!(on.contains("profile: on  pool util 42.0%"), "{on}");
        assert!(on.contains("worker 0"), "{on}");
        assert!(on.contains("busy 420ms"), "{on}");
        assert!(on.contains('#'), "{on}");
        let err_line = profile_section(&["ERR nope".to_string()]);
        assert!(err_line.contains("profile: ERR nope"), "{err_line}");
        assert!(profile_section(&[]).contains("no response"));
    }

    #[test]
    fn options_parser_handles_flags_and_values() {
        let args: Vec<String> =
            ["x", "--window", "5", "--show", "y"].iter().map(|s| s.to_string()).collect();
        let o = Options::parse(&args, &["window"], &["show", "quiet"]).unwrap();
        assert_eq!(o.positional, vec!["x", "y"]);
        assert_eq!(o.value_parsed::<usize>("window").unwrap(), Some(5));
        assert!(o.has("show"));
        assert!(!o.has("quiet"));
        assert!(Options::parse(&["--window".to_string()], &["window"], &[]).is_err());
        let e = Options::parse(&args, &["window"], &[]).err().unwrap().0;
        assert_eq!(e, "unknown flag --show (accepted: --window V)");
        let e = Options::parse(&["--x".to_string()], &[], &[]).err().unwrap().0;
        assert_eq!(e, "unknown flag --x (accepted: none)");
    }
}
