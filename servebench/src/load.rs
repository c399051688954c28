//! The closed-loop load generator: a fixed number of connections, each
//! sending its next request only after the previous reply arrived.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::gen::{Op, Workload};
use crate::oracle::Expected;
use crate::proto::Conn;

/// How long a reply may take before the request counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Failing requests logged in full per phase; the rest are counted.
const LOGGED_FAILURES: usize = 5;

/// One request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub entry: usize,
    /// When the reply arrived (or the request failed).
    pub done: Instant,
    pub latency_ns: u64,
    pub ok: bool,
    /// Whether any reply line arrived (false: timeout or I/O error).
    pub replied: bool,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// The outcome of one phase.
#[derive(Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// When the clients started sending.
    pub start: Instant,
    /// From the phase's start to its last reply.
    pub wall: Duration,
    /// The first few failing requests, described.
    pub failures: Vec<String>,
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }
}

/// Runs one phase over `connections` fresh connections. Its `i`-th
/// request is `next(i)`, an index into `wl.entries` (and the
/// index-aligned `lines` and `expected`), until `next` returns `None`.
pub fn run_phase(
    addr: SocketAddr,
    connections: usize,
    wl: &Workload,
    lines: &[String],
    expected: &[Expected],
    next: &(dyn Fn(usize) -> Option<usize> + Sync),
) -> std::io::Result<Phase> {
    let conns = (0..connections)
        .map(|_| Conn::connect(addr, REPLY_TIMEOUT))
        .collect::<std::io::Result<Vec<_>>>()?;
    let counter = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let start_line = Barrier::new(connections + 1);
    let (results, start) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|conn| {
                let (counter, failures, start_line) = (&counter, &failures, &start_line);
                s.spawn(move || {
                    client(addr, conn, wl, lines, expected, next, counter, failures, start_line)
                })
            })
            .collect();
        start_line.wait();
        let start = Instant::now();
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (results, start)
    });
    let mut phase = Phase {
        samples: Vec::new(),
        start,
        wall: Duration::ZERO,
        failures: failures.into_inner().expect("client thread panicked"),
    };
    for (samples, end) in results {
        phase.samples.extend(samples);
        phase.wall = phase.wall.max(end.saturating_duration_since(start));
    }
    Ok(phase)
}

#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    mut conn: Conn,
    wl: &Workload,
    lines: &[String],
    expected: &[Expected],
    next: &(dyn Fn(usize) -> Option<usize> + Sync),
    counter: &AtomicUsize,
    failures: &Mutex<Vec<String>>,
    start_line: &Barrier,
) -> (Vec<Sample>, Instant) {
    let mut samples = Vec::new();
    start_line.wait();
    let mut end = Instant::now();
    // ORDERING: Relaxed — hands out sequence numbers; no data rides on it.
    while let Some(entry) = next(counter.fetch_add(1, Ordering::Relaxed)) {
        let line = &lines[entry];
        let sent = Instant::now();
        let reply = conn.request(line);
        end = Instant::now();
        let latency_ns = (end - sent).as_nanos() as u64;
        let (ok, replied, response_bytes, got) = match &reply {
            Ok(r) => (expected[entry].matches(r), true, r.len() + 1, r.clone()),
            Err(e) => (false, false, 0, format!("<{e}>")),
        };
        samples.push(Sample {
            entry,
            done: end,
            latency_ns,
            ok,
            replied,
            request_bytes: line.len() + 1,
            response_bytes,
        });
        if !ok {
            let mut log = failures.lock().expect("client thread panicked");
            if log.len() < LOGGED_FAILURES {
                let op = wl.entries[entry].op;
                log.push(format!(
                    "entry {entry} ({}): sent {:?}… expected {:?}… got {:?}…",
                    op.token(),
                    clip(line, 48),
                    clip(&expected[entry].text, 48),
                    clip(&got, 48)
                ));
            }
        }
        if !replied {
            // The connection's framing is unknown after a timeout or an
            // I/O error; carry on with a fresh one, or stop this client.
            match Conn::connect(addr, REPLY_TIMEOUT) {
                Ok(fresh) => conn = fresh,
                Err(_) => break,
            }
        }
    }
    (samples, end)
}

fn clip(s: &str, n: usize) -> &str {
    s.get(..n).unwrap_or(s)
}

/// Nearest-rank quantile of `sorted` (ascending); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Global EDIT requests in `phase` that got a reply — the count the
/// `edit_similar` routing check compares against.
pub fn replied_global_edits(wl: &Workload, phase: &Phase) -> usize {
    phase.samples.iter().filter(|s| s.replied && wl.entries[s.entry].op == Op::Edit).count()
}
