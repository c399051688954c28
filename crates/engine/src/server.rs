//! A minimal TCP line protocol in front of an [`Engine`].
//!
//! One request per line, one response line per request (`\n`
//! terminated, ASCII tokens separated by single spaces):
//!
//! ```text
//! LCS <pattern> <text>             → OK <score> <algo> <cache>
//! WINDOWS <w> <pattern> <text>     → OK <best_start> <best_score> <s0,s1,…>
//! EDIT <pattern> <text> [<w>]      → OK <global> [<start> <end> <dist>]
//! EDIT <pattern> <text> k=<K>      → OK <dist> | OK gt <K>   (bounded: exact iff ≤ K)
//! STATS                            → OK key=value … (incl. raw histogram buckets)
//! METRICS                          → Prometheus text exposition, `# EOF`-terminated
//! HEALTH                           → OK | DEGRADED <reason>; <reason>  (SLO verdict)
//! AUDIT [N|slowest|class|reason|captures] → flight-recorder dump, `# EOF`-terminated
//! TRACE on|off|dump                → tracing control (gated by ServerConfig)
//! PROFILE [on|off]                 → per-worker phase profile, `# EOF`-terminated
//!                                    (toggling gated like TRACE; dump always allowed)
//! PING                             → OK pong
//! QUIT                             → OK bye (server closes the connection)
//! ```
//!
//! Error responses: `ERR <reason>` for malformed or invalid requests,
//! `BUSY` when the engine's bounded queue rejects the submission —
//! backpressure is forwarded to the client verbatim rather than queued
//! invisibly, so a load balancer can react to it. Server-side failures
//! are counted by kind in `slcs_engine_errors_total{kind}` (malformed
//! lines, over-length lines, queue-full rejections, worker panics) and
//! the same counts feed the HEALTH error-budget check.
//!
//! `METRICS` and `AUDIT` are the two deliberate exceptions to one-line
//! responses: `METRICS` returns the standard multi-line Prometheus
//! exposition and `AUDIT` one line per audit record (or capture tree),
//! both terminated by a `# EOF` line clients read until (see
//! docs/OBSERVABILITY.md). `TRACE dump` stays single-line: the
//! Chrome-tracing JSON is emitted compact, after an `OK ` prefix.
//!
//! The accept loop polls a stop flag (non-blocking accept + short
//! sleeps) and per-connection reads carry a timeout, so
//! [`ServerHandle::stop`] shuts the whole thing down without help from
//! the clients.

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::Engine;
use crate::metrics::ErrorKind;
use crate::queue::Submit;
use crate::recorder::FlightRecorder;
use crate::request::{CompareRequest, DispatchReason, Operation, Payload};
use crate::slo::SloTable;

/// Longest request line the server will process; anything longer is
/// rejected (`ERR line too long`) and counted as an `oversize` error.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How many audit records `AUDIT` returns when no count is given.
pub const AUDIT_DEFAULT_LIMIT: usize = 16;

/// Limits for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections handled concurrently; extra clients get `BUSY`.
    pub max_connections: usize,
    /// Whether clients may drive the `TRACE on|off|dump` command.
    /// Tracing is process-global and a dump reveals request timings, so
    /// operators can turn the surface off for untrusted networks
    /// (`ERR tracing disabled` is returned instead). `METRICS`/`STATS`
    /// stay available either way.
    pub allow_trace: bool,
    /// Per-class latency targets, queue bound and error budget that the
    /// `HEALTH` command evaluates. Independent from the engine's own
    /// [`EngineConfig::slo`](crate::EngineConfig) (which drives slow
    /// capture), so an operator can probe a tighter target than the one
    /// that triggers exemplars.
    pub slo: SloTable,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_connections: 64, allow_trace: true, slo: SloTable::default() }
    }
}

/// A running server: address, stop flag, accept-thread handle.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signals the accept loop and all connection handlers to exit,
    /// then joins the accept thread.
    pub fn stop(mut self) {
        // ORDERING: Relaxed — stop flag; the accept loop only needs eventual visibility.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // ORDERING: Relaxed — stop flag; the accept loop only needs eventual visibility.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves the engine on a background thread. Bind to
/// port 0 to let the OS pick (the handle reports the real address).
pub fn spawn(
    addr: impl ToSocketAddrs,
    engine: Arc<Engine>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_for_loop = stop.clone();
    let thread = std::thread::Builder::new()
        .name("slcs-engine-accept".into())
        .spawn(move || accept_loop(listener, engine, config, stop_for_loop))?;
    Ok(ServerHandle { addr, stop, thread: Some(thread) })
}

fn accept_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
) {
    // PANIC: a listener that cannot go nonblocking cannot serve; fail fast at startup.
    listener.set_nonblocking(true).expect("nonblocking listener");
    let live = Arc::new(AtomicUsize::new(0));
    let mut handlers = Vec::new();
    // ORDERING: Relaxed — pairs with the Relaxed stop stores; the accept
    // timeout bounds how stale the flag can be observed.
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Request-response protocol: Nagle + delayed ACK adds
                // ~40ms to every round trip, dwarfing sub-ms service
                // times. Best-effort — a failed setsockopt still serves.
                let _ = stream.set_nodelay(true);
                // ORDERING: Relaxed — best-effort connection cap; exactness is not required.
                if live.load(Ordering::Relaxed) >= config.max_connections {
                    let mut stream = stream;
                    let _ = stream.write_all(b"BUSY\n");
                    continue;
                }
                // ORDERING: Relaxed — plain live-handler count, see the cap check above.
                live.fetch_add(1, Ordering::Relaxed);
                let engine = engine.clone();
                let stop = stop.clone();
                let live = live.clone();
                let config = config.clone();
                handlers.push(std::thread::spawn(move || {
                    let _ = handle_client(stream, &engine, &config, &stop);
                    // ORDERING: Relaxed — plain live-handler count, see the cap check above.
                    live.fetch_sub(1, Ordering::Relaxed);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn handle_client(
    stream: TcpStream,
    engine: &Engine,
    config: &ServerConfig,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut framer = LineFramer::default();
    loop {
        // ORDERING: Relaxed — same stop-flag polling as the accept loop.
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut quit = false;
        let response = match framer.next_line(&mut reader) {
            Ok(Framed::Eof) => return Ok(()), // client hung up
            Ok(Framed::TooLong) => too_long(engine),
            Ok(Framed::Line(bytes)) => match std::str::from_utf8(bytes) {
                Ok(line) => {
                    quit = line.trim().eq_ignore_ascii_case("QUIT");
                    respond(line.trim(), engine, config)
                }
                Err(_) => {
                    engine.metrics().note_error(ErrorKind::Malformed);
                    "ERR request is not valid UTF-8".into()
                }
            },
            // A read timeout keeps the framed prefix: poll the stop flag
            // and resume the same line.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if quit {
            return Ok(());
        }
    }
}

/// One framing outcome of [`LineFramer::next_line`].
enum Framed<'a> {
    /// A complete request line, without its `\n`.
    Line(&'a [u8]),
    /// A line past [`MAX_LINE_BYTES`], dropped through its `\n`.
    TooLong,
    /// The client hung up between lines.
    Eof,
}

/// A bounded, resumable line framer over one persistent buffer. Bytes
/// framed before a read error (a read timeout) stay buffered, so a line
/// that arrives in slow pieces is reassembled across polls; a line past
/// [`MAX_LINE_BYTES`] is drained to its newline without being buffered.
#[derive(Default)]
struct LineFramer {
    buf: Vec<u8>,
    /// The current line passed the cap; its bytes are being dropped.
    too_long: bool,
    /// `buf` holds the line returned last; clear it on the next call.
    returned: bool,
}

impl LineFramer {
    fn next_line<R: BufRead>(&mut self, reader: &mut R) -> std::io::Result<Framed<'_>> {
        if std::mem::take(&mut self.returned) {
            self.buf.clear();
        }
        loop {
            let chunk = reader.fill_buf()?;
            let eof = chunk.is_empty();
            if eof && self.buf.is_empty() && !self.too_long {
                return Ok(Framed::Eof);
            }
            // Up to and including the first newline (std's memchr).
            let mut scan = chunk;
            let used = scan.skip_until(b'\n')?;
            let newline = used > 0 && chunk[used - 1] == b'\n';
            let body = &chunk[..used - usize::from(newline)];
            let len = self.buf.len() + body.len();
            if !self.too_long && len > MAX_LINE_BYTES {
                self.too_long = true;
                self.buf = Vec::new();
            }
            if !self.too_long {
                // Grow by doubling, but never past the cap.
                if len > self.buf.capacity() {
                    let want = len.max(2 * self.buf.capacity()).min(MAX_LINE_BYTES);
                    self.buf.reserve_exact(want - self.buf.len());
                }
                self.buf.extend_from_slice(body);
            }
            reader.consume(used);
            // A final line without its newline still counts at EOF.
            if newline || eof {
                self.returned = true;
                if std::mem::take(&mut self.too_long) {
                    return Ok(Framed::TooLong);
                }
                return Ok(Framed::Line(&self.buf));
            }
        }
    }
}

/// The over-length reply, counted as an `oversize` error.
fn too_long(engine: &Engine) -> String {
    engine.metrics().note_error(ErrorKind::Oversize);
    format!("ERR line too long (max {MAX_LINE_BYTES} bytes)")
}

fn joined_buckets(buckets: &[u64]) -> String {
    buckets.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(",")
}

/// The multi-line `METRICS` response: engine counters/gauges/histograms
/// (from [`StatsSnapshot::to_prometheus`]) plus executor and tracing
/// sections, terminated by `# EOF`.
fn metrics_exposition(engine: &Engine) -> String {
    let mut out = engine.stats().to_prometheus();
    // Build identity + uptime: scrapers join on the version label and
    // detect restarts by the uptime gauge going backwards.
    out.push_str(&format!(
        "# TYPE slcs_build_info gauge\nslcs_build_info{{version=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str(&format!(
        "# TYPE slcs_uptime_seconds gauge\nslcs_uptime_seconds {}\n",
        engine.uptime_seconds()
    ));
    let pool = rayon::pool_stats();
    for (name, value) in [
        ("slcs_pool_jobs_executed", pool.jobs_executed),
        ("slcs_pool_injector_pops", pool.injector_pops),
        ("slcs_pool_deque_pushes", pool.deque_pushes),
        ("slcs_pool_local_hits", pool.local_hits),
        ("slcs_pool_steals", pool.steals),
        ("slcs_pool_parks", pool.parks),
        ("slcs_pool_unparks", pool.unparks),
        ("slcs_pool_team_runs", pool.team_runs),
        ("slcs_pool_barrier_waits", pool.barrier_waits),
        ("slcs_pool_barrier_wait_micros", pool.barrier_wait_micros),
    ] {
        out.push_str(&format!("# TYPE {name}_total counter\n{name}_total {value}\n"));
    }
    // Per-worker phase attribution (busy/steal/idle/barrier ns). The
    // label set is stable for a given pool size: every spawned worker
    // exports all four phases, zeros included, so dashboards can rate()
    // them without series appearing mid-scrape.
    let profile = rayon::pool_profile();
    out.push_str("# TYPE slcs_pool_worker_ns_total counter\n");
    for w in &profile.workers {
        for phase in rayon::profile::PHASES {
            out.push_str(&format!(
                "slcs_pool_worker_ns_total{{worker=\"{}\",phase=\"{}\"}} {}\n",
                w.worker,
                phase.token(),
                w.phase_ns(phase)
            ));
        }
    }
    out.push_str(&format!(
        "# TYPE slcs_pool_profiling gauge\nslcs_pool_profiling {}\n",
        u64::from(profile.enabled)
    ));
    let trace = slcs_trace::stats();
    for (name, value) in [
        ("slcs_trace_enabled", u64::from(slcs_trace::enabled())),
        ("slcs_trace_events_recorded", trace.recorded),
        ("slcs_trace_events_dropped", trace.dropped),
        ("slcs_trace_thread_buffers", trace.threads as u64),
    ] {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    out.push_str("# EOF");
    out
}

/// The `profile=` STATS field: `off` when phase accounting is
/// disabled, else `on:<pool utilization %>` (busy / attributed, one
/// decimal). No spaces — STATS fields must stay single tokens.
fn profile_stats_field() -> String {
    let profile = rayon::pool_profile();
    if profile.enabled {
        format!("on:{:.1}", profile.utilization() * 100.0)
    } else {
        "off".into()
    }
}

/// The multi-line `PROFILE` response: `OK <workers> <on|off>
/// util=<pool %>`, one line per worker with its phase breakdown, then
/// `# EOF`.
fn profile_response() -> String {
    let profile = rayon::pool_profile();
    let mut out = format!(
        "OK {} {} util={:.1}",
        profile.workers.len(),
        if profile.enabled { "on" } else { "off" },
        profile.utilization() * 100.0
    );
    for w in &profile.workers {
        out.push_str(&format!(
            "\nworker={} busy_ns={} steal_ns={} idle_ns={} barrier_ns={} util={:.1}",
            w.worker,
            w.busy_ns,
            w.steal_ns,
            w.idle_ns,
            w.barrier_ns,
            w.utilization() * 100.0
        ));
    }
    out.push_str("\n# EOF");
    out
}

/// The multi-line `AUDIT` response: `OK <count>`, one line per
/// selected record (or capture), then `# EOF`.
fn audit_response(recorder: &FlightRecorder, args: &[String]) -> String {
    fn parse_limit(arg: Option<&String>) -> Result<usize, String> {
        match arg {
            None => Ok(AUDIT_DEFAULT_LIMIT),
            Some(s) => s.parse().map_err(|_| "ERR count must be an integer".to_string()),
        }
    }
    fn render(mut records: Vec<crate::recorder::AuditRecord>, limit: usize) -> String {
        records.truncate(limit);
        let mut out = format!("OK {}", records.len());
        for rec in &records {
            out.push('\n');
            out.push_str(&rec.to_line());
        }
        out.push_str("\n# EOF");
        out
    }
    // Snapshot order is oldest-first; dumps read best newest-first.
    let newest_first = || {
        let mut records = recorder.snapshot();
        records.reverse();
        records
    };
    match args.first().map(String::as_str) {
        None => render(newest_first(), AUDIT_DEFAULT_LIMIT),
        Some("slowest") => {
            let limit = match parse_limit(args.get(1)) {
                Ok(n) => n,
                Err(e) => return e,
            };
            let mut records = recorder.snapshot();
            records.sort_by_key(|r| std::cmp::Reverse(r.service_ns));
            render(records, limit)
        }
        Some(filter @ ("class" | "reason")) => {
            let Some(token) = args.get(1) else {
                return format!("ERR usage: AUDIT {filter} <token> [N]");
            };
            let limit = match parse_limit(args.get(2)) {
                Ok(n) => n,
                Err(e) => return e,
            };
            let records = newest_first()
                .into_iter()
                .filter(|r| if filter == "class" { r.class == token } else { r.reason == token })
                .collect();
            render(records, limit)
        }
        Some("captures") => {
            let captures = recorder.captures();
            let mut out = format!("OK {}", captures.len());
            for cap in &captures {
                out.push('\n');
                out.push_str(&format!(
                    "capture id={} class={} service_ns={} slo_us={}",
                    cap.id, cap.class, cap.service_ns, cap.slo_micros
                ));
                for line in cap.tree.lines() {
                    out.push('\n');
                    out.push_str(line);
                }
            }
            out.push_str("\n# EOF");
            out
        }
        Some(n) if n.parse::<usize>().is_ok() => {
            // PANIC: the guard above established the parse succeeds.
            render(newest_first(), n.parse().unwrap())
        }
        Some(_) => {
            "ERR usage: AUDIT [N | slowest [N] | class <c> [N] | reason <r> [N] | captures]".into()
        }
    }
}

/// Parses one request line and produces the response (no trailing
/// newline; only `METRICS` and `AUDIT` span multiple lines). Counts
/// protocol-level failures into `slcs_engine_errors_total{kind}`.
pub fn respond(line: &str, engine: &Engine, config: &ServerConfig) -> String {
    if line.len() > MAX_LINE_BYTES {
        return too_long(engine);
    }
    let response = respond_inner(line, engine, config);
    if response == "BUSY" {
        engine.metrics().note_error(ErrorKind::QueueFull);
    } else if response.starts_with("ERR")
        // Worker panics and shutdown races are engine-side failures:
        // panics were already counted as `internal` by the worker, and
        // neither is the client's line being malformed.
        && !response.starts_with("ERR internal engine error")
        && !response.starts_with("ERR engine is shutting down")
    {
        engine.metrics().note_error(ErrorKind::Malformed);
    }
    response
}

fn respond_inner(line: &str, engine: &Engine, config: &ServerConfig) -> String {
    let mut parts = line.split_ascii_whitespace();
    let Some(cmd) = parts.next() else {
        return "ERR empty request".into();
    };
    let req = match cmd.to_ascii_uppercase().as_str() {
        "PING" => return "OK pong".into(),
        "QUIT" => return "OK bye".into(),
        "STATS" => {
            let s = engine.stats();
            let dispatch = DispatchReason::ALL
                .iter()
                .map(|r| format!("{}:{}", r.token(), s.dispatch[r.index()]))
                .collect::<Vec<_>>()
                .join(",");
            let errors = ErrorKind::ALL
                .iter()
                .map(|k| format!("{}:{}", k.token(), s.errors[k.index()]))
                .collect::<Vec<_>>()
                .join(",");
            return format!(
                "OK submitted={} accepted={} completed={} queue_full={} invalid={} \
                 hits={} misses={} evictions={} batches={} coalesced={} \
                 depth={} max_depth={} par_grain={} simd={} dispatch={dispatch} \
                 errors={errors} \
                 wait_sum={} service_sum={} \
                 allocs={} frees={} live_bytes={} peak_live_bytes={} alloc_installed={} \
                 wait_buckets={} service_buckets={} latency_windows={} profile={}",
                s.submitted,
                s.accepted,
                s.completed,
                s.rejected_queue_full,
                s.rejected_invalid,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.batches,
                s.coalesced,
                s.queue_depth,
                s.max_queue_depth,
                s.par_grain,
                s.simd,
                s.wait_micros.sum,
                s.service_micros.sum,
                s.alloc.allocs,
                s.alloc.frees,
                s.alloc.live_bytes,
                s.alloc.peak_live_bytes,
                u8::from(s.alloc_installed),
                joined_buckets(&s.wait_micros.buckets),
                joined_buckets(&s.service_micros.buckets),
                s.windows.stats_field(),
                profile_stats_field(),
            );
        }
        "METRICS" => return metrics_exposition(engine),
        "HEALTH" => return engine.health(&config.slo).verdict_line(),
        "AUDIT" => {
            let recorder = engine.recorder();
            if !recorder.enabled() {
                return "ERR audit disabled (recorder capacity 0)".into();
            }
            let args: Vec<String> = parts.map(str::to_ascii_lowercase).collect();
            return audit_response(recorder, &args);
        }
        "TRACE" => {
            if !config.allow_trace {
                return "ERR tracing disabled".into();
            }
            return match (parts.next().map(str::to_ascii_lowercase).as_deref(), parts.next()) {
                (Some("on"), None) => {
                    slcs_trace::enable_fresh();
                    "OK tracing on".into()
                }
                (Some("off"), None) => {
                    slcs_trace::set_enabled(false);
                    "OK tracing off".into()
                }
                (Some("dump"), None) => {
                    format!("OK {}", slcs_trace::drain().to_chrome_json())
                }
                _ => "ERR usage: TRACE on|off|dump".into(),
            };
        }
        "PROFILE" => {
            return match (parts.next().map(str::to_ascii_lowercase).as_deref(), parts.next()) {
                (None, _) => profile_response(),
                // Toggling is process-global, like TRACE — same gate.
                (Some("on"), None) if config.allow_trace => {
                    rayon::set_profiling(true);
                    "OK profiling on".into()
                }
                (Some("off"), None) if config.allow_trace => {
                    rayon::set_profiling(false);
                    "OK profiling off".into()
                }
                (Some("on" | "off"), None) => "ERR profiling control disabled".into(),
                _ => "ERR usage: PROFILE [on|off]".into(),
            };
        }
        "LCS" => {
            let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
                return "ERR usage: LCS <pattern> <text>".into();
            };
            CompareRequest::new(a.as_bytes(), b.as_bytes(), Operation::Lcs)
        }
        "WINDOWS" => {
            let (Some(w), Some(a), Some(b), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return "ERR usage: WINDOWS <w> <pattern> <text>".into();
            };
            let Ok(w) = w.parse::<usize>() else {
                return "ERR window must be an integer".into();
            };
            CompareRequest::new(a.as_bytes(), b.as_bytes(), Operation::Windows { w })
        }
        "EDIT" => {
            let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
                return "ERR usage: EDIT <pattern> <text> [<w> | k=<K>]".into();
            };
            let op = match (parts.next(), parts.next()) {
                (None, _) => Operation::Edit { w: None },
                (Some(arg), None) => {
                    if let Some(k) = arg.strip_prefix("k=") {
                        match k.parse::<usize>() {
                            Ok(k) => Operation::EditBounded { k },
                            Err(_) => return "ERR bound must be an integer".into(),
                        }
                    } else {
                        match arg.parse::<usize>() {
                            Ok(w) => Operation::Edit { w: Some(w) },
                            Err(_) => return "ERR window must be an integer".into(),
                        }
                    }
                }
                _ => return "ERR usage: EDIT <pattern> <text> [<w> | k=<K>]".into(),
            };
            CompareRequest::new(a.as_bytes(), b.as_bytes(), op)
        }
        other => return format!("ERR unknown command {other}"),
    };
    match engine.submit(req) {
        Submit::QueueFull => "BUSY".into(),
        Submit::Invalid(why) => format!("ERR {why}"),
        Submit::Accepted(ticket) => match ticket.wait() {
            Err(e) => format!("ERR {e}"),
            Ok(outcome) => match outcome.payload {
                Payload::Score(s) => {
                    format!("OK {s} {} {}", outcome.algo.token(), outcome.cache.token())
                }
                Payload::Windows { scores, best } => {
                    let list = scores.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",");
                    format!("OK {} {} {list}", best.0, best.1)
                }
                Payload::Edit { global, best } => match best {
                    None => format!("OK {global}"),
                    Some((start, end, dist)) => format!("OK {global} {start} {end} {dist}"),
                },
                Payload::EditBounded { distance, k } => match distance {
                    Some(d) => format!("OK {d}"),
                    None => format!("OK gt {k}"),
                },
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 16,
            batch_limit: 4,
            threads_per_request: 1,
            ..EngineConfig::default()
        }))
    }

    #[test]
    fn respond_parses_and_serves() {
        let engine = engine();
        let cfg = ServerConfig::default();
        assert_eq!(respond("PING", &engine, &cfg), "OK pong");
        assert_eq!(respond("LCS abcabba cbabac", &engine, &cfg), "OK 4 bitpar bypass");
        // Same pair again via WINDOWS builds a kernel; LCS then hits it.
        let windows = respond("WINDOWS 6 abcabba cbabac", &engine, &cfg);
        assert!(windows.starts_with("OK "), "{windows}");
        assert_eq!(respond("LCS abcabba cbabac", &engine, &cfg), "OK 4 cached hit");
        assert_eq!(respond("EDIT kitten sitting", &engine, &cfg), "OK 3");
        let best = respond("EDIT kitten sitting 6", &engine, &cfg);
        assert!(best.starts_with("OK 3 "), "{best}");
        assert!(respond("WINDOWS x a b", &engine, &cfg).starts_with("ERR"));
        assert!(respond("EDIT kitten sitting k=x", &engine, &cfg).starts_with("ERR bound"));
        assert!(respond("WINDOWS 9 ab xy", &engine, &cfg).starts_with("ERR"));
        assert!(respond("NOPE", &engine, &cfg).starts_with("ERR unknown"));
        let stats = respond("STATS", &engine, &cfg);
        // Two hits: LCS reusing the WINDOWS kernel, EDIT reusing the
        // first EDIT's index.
        assert!(stats.contains(" hits=2"), "{stats}");
        assert!(stats.contains(" dispatch="), "{stats}");
        assert!(stats.contains("cache_hit:2"), "{stats}");
        assert!(stats.contains(" wait_buckets="), "{stats}");
        assert!(stats.contains(" service_buckets="), "{stats}");
        assert!(stats.contains(" wait_sum="), "{stats}");
        assert!(stats.contains(" service_sum="), "{stats}");
        assert!(stats.contains(" allocs="), "{stats}");
        assert!(stats.contains(" peak_live_bytes="), "{stats}");
        assert!(stats.contains(" alloc_installed="), "{stats}");
        assert!(stats.contains(" errors=malformed:"), "{stats}");
        assert!(stats.contains(" latency_windows=lcs:10s:"), "{stats}");
    }

    #[test]
    fn health_reports_ok_on_a_quiet_engine() {
        let engine = engine();
        let cfg = ServerConfig::default();
        let _ = respond("LCS abcabba cbabac", &engine, &cfg);
        assert_eq!(respond("HEALTH", &engine, &cfg), "OK");
        // A zero-target SLO table must flip the verdict immediately.
        let strict = ServerConfig {
            slo: SloTable { p99_micros: [0; 4], ..SloTable::default() },
            ..ServerConfig::default()
        };
        let verdict = respond("HEALTH", &engine, &strict);
        assert!(verdict.starts_with("DEGRADED"), "{verdict}");
        assert!(verdict.contains("class lcs"), "{verdict}");
    }

    /// A 2048² grid cannot form a work-stealing team (its short side is
    /// below 2·PAR_GRAIN), so a 2-thread engine combs it sequentially —
    /// and METRICS and AUDIT both say `seq`, whatever the working
    /// directory.
    #[test]
    fn grid_lcs_too_small_for_a_team_reports_seq() {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 1,
            threads_per_request: 2,
            ..EngineConfig::default()
        }));
        let cfg = ServerConfig::default();
        // 94 printable symbols — past BITPAR_MAX_SIGMA, so LCS combs.
        let text = |k: usize| -> String {
            (0..2048usize).map(|i| char::from(b'!' + ((i * k + i / 7) % 94) as u8)).collect()
        };
        let reply = respond(&format!("LCS {} {}", text(37), text(53)), &engine, &cfg);
        assert!(reply.starts_with("OK ") && reply.contains(" grid miss"), "{reply}");
        let metrics = respond("METRICS", &engine, &cfg);
        assert!(metrics.contains("slcs_sched_mode_total{mode=\"seq\"} 1"), "{metrics}");
        assert!(metrics.contains("slcs_sched_mode_total{mode=\"work_steal\"} 0"), "{metrics}");
        let audit = respond("AUDIT", &engine, &cfg);
        let record = audit.lines().nth(1).unwrap_or_default();
        assert!(record.contains("algo=grid") && record.contains("sched=seq"), "{audit}");
    }

    #[test]
    fn audit_dumps_filter_and_terminate_with_eof() {
        let engine = engine();
        let cfg = ServerConfig::default();
        let _ = respond("LCS abcabba cbabac", &engine, &cfg);
        let _ = respond("EDIT kitten sitting", &engine, &cfg);
        let _ = respond("EDIT kitten sitting", &engine, &cfg);

        let dump = respond("AUDIT", &engine, &cfg);
        assert!(dump.starts_with("OK 3\n"), "{dump}");
        assert!(dump.ends_with("# EOF"), "{dump}");
        // Newest-first: the cache-hitting EDIT leads.
        let first = dump.lines().nth(1).unwrap();
        assert!(first.contains("class=edit"), "{first}");
        assert!(first.contains("cache=hit"), "{first}");
        for line in dump.lines().skip(1).take(3) {
            for key in [
                "id=",
                "class=",
                "algo=",
                "reason=",
                "sched=",
                "cache=",
                "bytes=",
                "wait_ns=",
                "service_ns=",
                "alloc_bytes=",
                "ok=",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }

        let limited = respond("AUDIT 1", &engine, &cfg);
        assert_eq!(limited.lines().count(), 3, "{limited}"); // OK 1, record, # EOF

        let by_class = respond("AUDIT class lcs", &engine, &cfg);
        assert!(by_class.starts_with("OK 1\n"), "{by_class}");
        assert!(by_class.contains("class=lcs"), "{by_class}");

        let slowest = respond("AUDIT slowest 2", &engine, &cfg);
        assert!(slowest.starts_with("OK 2\n"), "{slowest}");
        let times: Vec<u64> = slowest
            .lines()
            .skip(1)
            .take(2)
            .map(|l| {
                l.split_whitespace()
                    .find_map(|kv| kv.strip_prefix("service_ns="))
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(times[0] >= times[1], "slowest-first ordering: {times:?}");

        let captures = respond("AUDIT captures", &engine, &cfg);
        assert!(captures.starts_with("OK "), "{captures}");
        assert!(captures.ends_with("# EOF"), "{captures}");
        assert!(respond("AUDIT sideways", &engine, &cfg).starts_with("ERR usage"));
        assert!(respond("AUDIT class", &engine, &cfg).starts_with("ERR usage"));
    }

    #[test]
    fn protocol_failures_are_counted_by_kind() {
        let engine = engine();
        let cfg = ServerConfig::default();
        let long = format!("LCS {} b", "a".repeat(MAX_LINE_BYTES + 1));
        assert!(respond(&long, &engine, &cfg).starts_with("ERR line too long"));
        let _ = respond("NOPE", &engine, &cfg);
        let _ = respond("WINDOWS x a b", &engine, &cfg);
        let stats = engine.stats();
        assert_eq!(stats.errors[crate::metrics::ErrorKind::Oversize.index()], 1);
        assert_eq!(stats.errors[crate::metrics::ErrorKind::Malformed.index()], 2);
        let line = respond("STATS", &engine, &cfg);
        assert!(line.contains("errors=malformed:2,oversize:1,queue_full:0,internal:0"), "{line}");
    }

    #[test]
    fn bounded_edit_answers_exact_or_gt() {
        let engine = engine();
        let cfg = ServerConfig::default();
        // d(kitten, sitting) = 3: exact at k ≥ 3, "gt" below.
        assert_eq!(respond("EDIT kitten sitting k=3", &engine, &cfg), "OK 3");
        assert_eq!(respond("EDIT kitten sitting k=2", &engine, &cfg), "OK gt 2");
        assert_eq!(respond("EDIT kitten sitting k=0", &engine, &cfg), "OK gt 0");
        assert_eq!(respond("EDIT same same k=0", &engine, &cfg), "OK 0");
    }

    #[test]
    fn metrics_exposition_is_eof_terminated_prometheus_text() {
        let engine = engine();
        let cfg = ServerConfig::default();
        let _ = respond("LCS abcabba cbabac", &engine, &cfg);
        let body = respond("METRICS", &engine, &cfg);
        assert!(body.ends_with("# EOF"), "{body}");
        for needle in [
            "slcs_requests_submitted_total 1",
            "slcs_queue_depth ",
            "slcs_wait_micros_bucket{le=\"2\"}",
            "slcs_wait_micros_sum ",
            "slcs_service_micros_count 1",
            "slcs_service_micros_sum ",
            "slcs_pool_jobs_executed_total ",
            "slcs_trace_enabled ",
            "slcs_build_info{version=\"",
            "slcs_uptime_seconds ",
            "slcs_alloc_allocations_total ",
            "slcs_alloc_peak_live_bytes ",
            "slcs_alloc_size_bytes_bucket{le=\"+Inf\"}",
            "slcs_alloc_installed ",
        ] {
            assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let mut it = line.rsplitn(2, ' ');
            let value = it.next().unwrap();
            assert!(it.next().is_some(), "bad exposition line {line:?}");
            assert!(value.parse::<f64>().is_ok(), "bad value in line {line:?}");
        }
    }

    #[test]
    fn trace_command_respects_allow_trace_gate() {
        let engine = engine();
        let gated = ServerConfig { allow_trace: false, ..ServerConfig::default() };
        assert_eq!(respond("TRACE on", &engine, &gated), "ERR tracing disabled");

        let _guard = slcs_trace::test_support::hold();
        let cfg = ServerConfig::default();
        assert_eq!(respond("TRACE on", &engine, &cfg), "OK tracing on");
        let _ = respond("LCS abcabba cbabac", &engine, &cfg);
        assert_eq!(respond("TRACE off", &engine, &cfg), "OK tracing off");
        let dump = respond("TRACE dump", &engine, &cfg);
        assert!(dump.starts_with("OK {\"traceEvents\":["), "{dump}");
        assert!(dump.contains("engine.request"), "{dump}");
        assert!(respond("TRACE sideways", &engine, &cfg).starts_with("ERR usage"));
    }

    #[test]
    fn profile_command_reports_per_worker_phases() {
        let engine = engine();
        let cfg = ServerConfig::default();
        // Force pool workers into existence so per-worker rows exist.
        rayon::team_run(2, |_| {});
        let dump = respond("PROFILE", &engine, &cfg);
        assert!(dump.starts_with("OK "), "{dump}");
        assert!(dump.ends_with("# EOF"), "{dump}");
        assert!(dump.contains("util="), "{dump}");
        assert!(dump.contains("worker=0 busy_ns="), "{dump}");
        assert!(dump.contains("barrier_ns="), "{dump}");

        assert_eq!(respond("PROFILE on", &engine, &cfg), "OK profiling on");
        assert!(respond("STATS", &engine, &cfg).contains(" profile=on:"));
        let metrics = respond("METRICS", &engine, &cfg);
        for phase in ["busy", "steal", "idle", "barrier"] {
            let series = format!("slcs_pool_worker_ns_total{{worker=\"0\",phase=\"{phase}\"}}");
            assert!(metrics.contains(&series), "missing {series} in:\n{metrics}");
        }
        assert!(metrics.contains("slcs_pool_profiling 1"), "{metrics}");
        assert_eq!(respond("PROFILE off", &engine, &cfg), "OK profiling off");
        assert!(respond("STATS", &engine, &cfg).contains(" profile=off"));

        // Dumps stay available behind the gate; toggling does not.
        let gated = ServerConfig { allow_trace: false, ..ServerConfig::default() };
        assert_eq!(respond("PROFILE on", &engine, &gated), "ERR profiling control disabled");
        assert!(respond("PROFILE", &engine, &gated).starts_with("OK "));
        assert!(respond("PROFILE sideways", &engine, &cfg).starts_with("ERR usage"));
    }

    /// A reader that hands out scripted chunks; `None` is a read timeout.
    struct Script(std::collections::VecDeque<Option<Vec<u8>>>);

    impl std::io::Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// Frames a scripted stream to EOF (over-long lines read `<too long>`,
    /// timeouts are retried), checking after every poll that the buffer
    /// never grows past the cap.
    fn frames(script: Vec<Option<Vec<u8>>>) -> Vec<String> {
        let mut reader = BufReader::new(Script(script.into()));
        let mut framer = LineFramer::default();
        let mut out = Vec::new();
        loop {
            match framer.next_line(&mut reader) {
                Ok(Framed::Line(line)) => out.push(String::from_utf8_lossy(line).into_owned()),
                Ok(Framed::TooLong) => out.push("<too long>".into()),
                Ok(Framed::Eof) => return out,
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            }
            assert!(framer.buf.capacity() <= MAX_LINE_BYTES, "{}", framer.buf.capacity());
        }
    }

    #[test]
    fn framer_reassembles_lines_across_timeouts_at_every_split() {
        let input = b"LCS abc abd\r\nPING\n";
        let want = ["LCS abc abd\r", "PING"];
        for at in 0..=input.len() {
            // A timeout after each half; an empty read is EOF, so an
            // empty half is left out.
            let halves = [&input[..at], &input[at..]];
            let script = halves.iter().filter(|h| !h.is_empty());
            let script = script.flat_map(|h| [Some(h.to_vec()), None]).collect();
            assert_eq!(frames(script), want, "split at {at}");
        }
        // One byte per read, a timeout after each.
        let slow = input.iter().flat_map(|&b| [Some(vec![b]), None]).collect();
        assert_eq!(frames(slow), want);
        // A last line without its newline is still answered at EOF.
        assert_eq!(frames(vec![Some(b"PING\nQUIT".to_vec())]), ["PING", "QUIT"]);
    }

    #[test]
    fn framer_drains_an_oversize_line_and_frames_the_next() {
        let mut script = vec![Some(b"LCS ".to_vec())];
        for _ in 0..32 {
            script.extend([Some(vec![b'a'; 64 << 10]), None]);
        }
        script.push(Some(b" b\nPING\n".to_vec()));
        assert_eq!(frames(script), ["<too long>", "PING"]);
        // Exactly at the cap is still a line.
        let mut edge = vec![b'x'; MAX_LINE_BYTES];
        edge.push(b'\n');
        assert_eq!(frames(vec![Some(edge)])[0].len(), MAX_LINE_BYTES);
    }

    #[test]
    fn tcp_framing_survives_pauses_oversize_lines_and_bad_utf8() {
        let engine = engine();
        let handle = spawn("127.0.0.1:0", engine.clone(), ServerConfig::default()).expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        };
        // The pause spans several 100 ms server read timeouts.
        writer.write_all(b"LCS abc").unwrap();
        std::thread::sleep(Duration::from_millis(400));
        writer.write_all(b"d abd\n").unwrap();
        assert!(reply().starts_with("OK 3 "));
        writer.write_all(b"LCS \xff\xfe ab\n").unwrap();
        assert_eq!(reply(), "ERR request is not valid UTF-8");
        let mut big = b"LCS ".to_vec();
        big.resize(2 << 20, b'a');
        big.extend_from_slice(b" b\n");
        writer.write_all(&big).unwrap();
        assert_eq!(reply(), format!("ERR line too long (max {MAX_LINE_BYTES} bytes)"));
        writer.write_all(b"PING\n").unwrap();
        assert_eq!(reply(), "OK pong");
        let stats = engine.stats();
        assert_eq!(stats.errors[crate::metrics::ErrorKind::Oversize.index()], 1);
        assert_eq!(stats.errors[crate::metrics::ErrorKind::Malformed.index()], 1);
        handle.stop();
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let engine = engine();
        let handle = spawn("127.0.0.1:0", engine.clone(), ServerConfig::default()).expect("bind");
        let addr = handle.addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();

        writer.write_all(b"LCS acgtacgt gtacgtac\nSTATS\nQUIT\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK "), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK submitted="), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK bye");
        // Server closes our connection after QUIT.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        handle.stop();
    }
}
