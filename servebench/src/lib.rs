//! servebench — the end-to-end serving benchmark for `slcs serve`.
//!
//! A run drives a real server over loopback TCP with a closed loop of
//! [`CONNECTIONS`] clients, checks every reply against an oracle
//! computed before timing, and reports the end-to-end metrics. With
//! tracing on it also reports per-layer numbers: counter deltas from the
//! server's `STATS`/`METRICS` over the timed phase, plus a separate
//! in-process replay of the same request sequence (the `replay`
//! binary). See README.md for the workloads and the metric map.

pub mod gen;
pub mod load;
pub mod oracle;
pub mod proto;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gen::Workload;
use load::{median, quantile, run_phase, Phase};
use oracle::Expected;
use proto::{await_ping, cpu_ms, host_steal_ms, peak_rss_mb, Conn, Exposition, Launcher, Stats};

/// Client connections, one per core of the reference box (nproc = 2).
pub const CONNECTIONS: usize = 2;

/// Server launches per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The timed phase is cut into windows of this width. Throughput, p50
/// and CPU per request are the medians of their per-window values, so
/// a few seconds of load from other tenants of a shared machine move
/// them less than they move whole-phase figures.
pub const WINDOW: Duration = Duration::from_secs(1);

/// End-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_req", "ms"),
];

/// Routing reasons whose share of requests is reported.
pub const REASONS: [&str; 8] = [
    "small_alphabet",
    "grid_seq",
    "grid_par",
    "edit_windowed",
    "edit_similar",
    "edit_dissimilar",
    "edit_bounded",
    "cache_hit",
];

/// Grid scheduling modes whose share of requests is reported.
pub const SCHED_MODES: [&str; 4] = ["spawn_per_diag", "pool_per_diag", "team", "work_steal"];

/// Per-layer metrics `(name, unit)`, as `BENCHMARK.json` lists them.
/// Counter deltas over the timed phase come from [`Run::layer_metrics`];
/// the rest from the `replay` binary.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("client.error_rate", "ratio"),
        ("server.overhead_us", "us"),
        ("server.request_bytes", "bytes"),
        ("server.response_bytes", "bytes"),
        ("server.respond_us", "us"),
        ("server.self_us", "us"),
        ("server.errors", "count"),
        ("queue.wait_us", "us"),
        ("queue.max_depth", "count"),
        ("queue.full", "count"),
        ("engine.service_us", "us"),
        ("engine.coalesced_share", "ratio"),
        ("engine.allocs_per_req", "count"),
        ("dispatch.decide_us", "us"),
        ("dispatch.self_us", "us"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    out.extend(REASONS.iter().map(|r| (format!("dispatch.share.{r}"), "ratio")));
    out.extend(
        [
            ("cache.hit_ratio", "ratio"),
            ("cache.evictions", "count"),
            ("cache.get_us", "us"),
            ("cache.insert_us", "us"),
            ("cache.self_us", "us"),
            ("semilocal.comb_ns_per_cell", "ns"),
            ("semilocal.index_ms", "ms"),
            ("semilocal.windows_us", "us"),
            ("semilocal.lcs_scan_us", "us"),
            ("semilocal.self_us", "us"),
            ("bitparallel.lcs_ns_per_cell", "ns"),
            ("bitparallel.self_us", "us"),
            ("osed.edit_ms", "ms"),
            ("osed.bounded_ms", "ms"),
            ("osed.self_us", "us"),
            ("rayon.steals", "count"),
            ("rayon.parks", "count"),
            ("rayon.team_runs", "count"),
            ("rayon.barrier_wait_ms", "ms"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out.extend(SCHED_MODES.iter().map(|m| (format!("rayon.sched.{m}"), "ratio")));
    out.push(("trace.overhead_pct".into(), "%"));
    out.push(("trace.unattributed_share".into(), "ratio"));
    out
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything one run observed.
pub struct Run {
    /// Seconds from each launch to its first PING reply plus warm-up.
    pub setups: Vec<f64>,
    /// Warm-up requests answered wrongly, over all set-ups.
    pub warmup_failed: usize,
    pub warmup_failures: Vec<String>,
    pub phase: Phase,
    pub before: (Stats, Exposition),
    pub after: (Stats, Exposition),
    /// Server CPU (user + system, ms) read at each window boundary of
    /// the timed phase, first and last reading included.
    pub cpu: Vec<(Instant, f64)>,
    pub peak_rss_mb: f64,
    /// Time the host took the machine's CPUs away (`steal` in
    /// `/proc/stat`) during the timed phase, in ms.
    pub steal_ms: f64,
}

/// Fewest correct replies p99 is taken over: ten of them lie above it.
pub const P99_SAMPLES: usize = 1000;

/// One window of the timed phase.
struct Window {
    ok_per_s: f64,
    /// Latencies of the window's correct replies, in ms, ascending.
    lat: Vec<f64>,
    cpu_ms_per_reply: f64,
}

/// Launches the server [`SETUPS`] times (warming each up), then runs
/// the timed phase for `seconds` on the last one.
pub fn run(
    wl: &Workload,
    lines: &[String],
    expected: &[Expected],
    launcher: &dyn Launcher,
    seconds: f64,
) -> std::io::Result<Run> {
    let mut setups = Vec::with_capacity(SETUPS);
    let (mut warmup_failed, mut warmup_failures) = (0, Vec::new());
    let mut server = None;
    for _ in 0..SETUPS {
        // Stop the previous server before timing the next launch.
        drop(server.take());
        let started = Instant::now();
        let s = launcher.launch()?;
        await_ping(s.addr(), Duration::from_secs(60))?;
        let warm =
            run_phase(s.addr(), CONNECTIONS, wl, lines, expected, &|i| wl.warmup.get(i).copied())?;
        setups.push(started.elapsed().as_secs_f64());
        warmup_failed += warm.failed();
        warmup_failures.extend(warm.failures);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let (addr, pid) = (server.addr(), server.pid());
    let mut ctl = Conn::connect(addr, load::REPLY_TIMEOUT)?;
    let mut snapshot = || -> std::io::Result<(Stats, Exposition)> {
        Ok((
            Stats::parse(&ctl.request("STATS")?),
            Exposition::parse(&ctl.request_multi("METRICS")?),
        ))
    };
    let before = snapshot()?;
    let steal_before = host_steal_ms()?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let cycle = &wl.cycle;
    let stop = AtomicBool::new(false);
    let (phase, cpu) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_cpu(pid, &stop));
        let phase = run_phase(addr, CONNECTIONS, wl, lines, expected, &|i| {
            (Instant::now() < deadline).then(|| cycle[i % cycle.len()])
        });
        // ORDERING: Relaxed — a stop flag; the sampler's readings come back through join.
        stop.store(true, Ordering::Relaxed);
        (phase, sampler.join().expect("cpu sampler panicked"))
    });
    let (phase, cpu) = (phase?, cpu?);
    let steal_ms = host_steal_ms()? - steal_before;
    let after = snapshot()?;
    let peak_rss_mb = peak_rss_mb(pid)?;
    Ok(Run {
        setups,
        warmup_failed,
        warmup_failures: warmup_failures.into_iter().take(5).collect(),
        phase,
        before,
        after,
        cpu,
        peak_rss_mb,
        steal_ms,
    })
}

/// Reads the server's CPU time at every [`WINDOW`] boundary until
/// `stop`, then once more.
fn sample_cpu(pid: u32, stop: &AtomicBool) -> std::io::Result<Vec<(Instant, f64)>> {
    let first = Instant::now();
    let mut readings = vec![(first, cpu_ms(pid)?)];
    // ORDERING: Relaxed — see the store in `run`.
    while !stop.load(Ordering::Relaxed) {
        let next = first + WINDOW * readings.len() as u32;
        let now = Instant::now();
        if now < next {
            std::thread::sleep((next - now).min(Duration::from_millis(50)));
            continue;
        }
        readings.push((now, cpu_ms(pid)?));
    }
    readings.push((Instant::now(), cpu_ms(pid)?));
    Ok(readings)
}

impl Run {
    fn stat(&self, key: &str) -> f64 {
        self.after.0.num(key) - self.before.0.num(key)
    }

    fn stat_item(&self, key: &str, name: &str) -> f64 {
        self.after.0.item(key, name) - self.before.0.item(key, name)
    }

    fn series(&self, name: &str) -> f64 {
        self.after.1.get(name) - self.before.1.get(name)
    }

    fn completed(&self) -> f64 {
        self.stat("completed")
    }

    fn replied(&self) -> usize {
        self.phase.samples.iter().filter(|s| s.replied).count()
    }

    /// Latencies of correct replies, in ms, ascending.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut l: Vec<f64> =
            self.phase.samples.iter().filter(|s| s.ok).map(|s| s.latency_ns as f64 / 1e6).collect();
        l.sort_by(f64::total_cmp);
        l
    }

    pub fn error_rate(&self) -> f64 {
        ratio(self.phase.failed() as f64, self.phase.attempted() as f64)
    }

    /// The timed phase cut at the CPU readings. A final window shorter
    /// than half a [`WINDOW`] is dropped, unless it is the only one.
    fn windows(&self) -> Vec<Window> {
        self.cpu
            .windows(2)
            .filter(|w| self.cpu.len() == 2 || w[1].0 - w[0].0 >= WINDOW / 2)
            .filter_map(|w| {
                let ((from, cpu_from), (to, cpu_to)) = (w[0], w[1]);
                let inside: Vec<_> =
                    self.phase.samples.iter().filter(|s| s.done >= from && s.done < to).collect();
                let mut lat: Vec<f64> =
                    inside.iter().filter(|s| s.ok).map(|s| s.latency_ns as f64 / 1e6).collect();
                lat.sort_by(f64::total_cmp);
                let replied = inside.iter().filter(|s| s.replied).count();
                (replied > 0).then(|| Window {
                    ok_per_s: lat.len() as f64 / (to - from).as_secs_f64(),
                    lat,
                    cpu_ms_per_reply: (cpu_to - cpu_from) / replied as f64,
                })
            })
            .collect()
    }

    /// Server CPU over the whole timed phase, in ms.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu.last().map_or(0.0, |l| l.1) - self.cpu.first().map_or(0.0, |f| f.1)
    }

    /// p99 of each run of consecutive windows holding at least
    /// [`P99_SAMPLES`] correct replies, then the median of those; the
    /// whole phase's p99 when it has fewer. Also returns the run count.
    fn p99_ms(windows: &[Window]) -> (f64, usize) {
        let mut p99s = Vec::new();
        let mut block: Vec<f64> = Vec::new();
        for w in windows {
            block.extend(&w.lat);
            if block.len() >= P99_SAMPLES {
                block.sort_by(f64::total_cmp);
                p99s.push(quantile(&block, 0.99));
                block.clear();
            }
        }
        if p99s.is_empty() {
            let mut all: Vec<f64> = windows.iter().flat_map(|w| w.lat.iter().copied()).collect();
            all.sort_by(f64::total_cmp);
            return (quantile(&all, 0.99), 0);
        }
        let blocks = p99s.len();
        (median(&mut p99s), blocks)
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let windows = self.windows();
        let med =
            |f: &dyn Fn(&Window) -> f64| median(&mut windows.iter().map(f).collect::<Vec<_>>());
        vec![
            median(&mut self.setups.clone()),
            med(&|w| w.ok_per_s),
            med(&|w| quantile(&w.lat, 0.5)),
            Self::p99_ms(&windows).0,
            self.peak_rss_mb,
            med(&|w| w.cpu_ms_per_reply),
        ]
    }

    /// For the report beside the medians: whole-phase throughput, p50,
    /// p99 and CPU per reply, then the window and p99 block counts.
    pub fn whole_phase(&self) -> ([f64; 4], usize, usize) {
        let ok = self.phase.attempted() - self.phase.failed();
        let lat = self.latencies_ms();
        let windows = self.windows();
        let whole = [
            ratio(ok as f64, self.phase.wall.as_secs_f64()),
            quantile(&lat, 0.5),
            quantile(&lat, 0.99),
            ratio(self.cpu_ms(), self.replied() as f64),
        ];
        (whole, windows.len(), Self::p99_ms(&windows).1)
    }

    /// Per-layer metrics from the server's counters over the timed
    /// phase: the [`per_layer`] names the replay does not measure.
    pub fn layer_metrics(&self) -> Vec<(String, f64)> {
        let done = self.completed();
        let attempted = self.phase.attempted() as f64;
        let samples = &self.phase.samples;
        let mean = |f: &dyn Fn(&load::Sample) -> f64| {
            ratio(samples.iter().map(f).sum(), samples.len() as f64)
        };
        let in_engine_us = ratio(self.stat("wait_sum") + self.stat("service_sum"), done);
        let hits = self.stat("hits");
        let errors: f64 = self.after.0.items("errors").iter().map(|(_, v)| v).sum::<f64>()
            - self.before.0.items("errors").iter().map(|(_, v)| v).sum::<f64>();
        let mut out = vec![
            ("client.error_rate".to_string(), self.error_rate()),
            ("server.overhead_us".into(), mean(&|s| s.latency_ns as f64 / 1e3) - in_engine_us),
            ("server.request_bytes".into(), mean(&|s| s.request_bytes as f64)),
            ("server.response_bytes".into(), mean(&|s| s.response_bytes as f64)),
            ("server.errors".into(), errors),
            ("queue.wait_us".into(), ratio(self.stat("wait_sum"), done)),
            ("queue.max_depth".into(), self.after.0.num("max_depth")),
            ("queue.full".into(), self.stat("queue_full")),
            ("engine.service_us".into(), ratio(self.stat("service_sum"), done)),
            ("engine.coalesced_share".into(), ratio(self.stat("coalesced"), done)),
            ("engine.allocs_per_req".into(), ratio(self.stat("allocs"), done)),
        ];
        for r in REASONS {
            out.push((
                format!("dispatch.share.{r}"),
                ratio(self.stat_item("dispatch", r), attempted),
            ));
        }
        out.push(("cache.hit_ratio".into(), ratio(hits, hits + self.stat("misses"))));
        out.push(("cache.evictions".into(), ratio(self.stat("evictions"), done)));
        for (metric, series, scale) in [
            ("rayon.steals", "slcs_pool_steals_total", 1.0),
            ("rayon.parks", "slcs_pool_parks_total", 1.0),
            ("rayon.team_runs", "slcs_pool_team_runs_total", 1.0),
            ("rayon.barrier_wait_ms", "slcs_pool_barrier_wait_micros_total", 1e-3),
        ] {
            out.push((metric.into(), ratio(self.series(series) * scale, done)));
        }
        for m in SCHED_MODES {
            let series = format!("slcs_sched_mode_total{{mode=\"{m}\"}}");
            out.push((format!("rayon.sched.{m}"), ratio(self.series(&series), done)));
        }
        out
    }

    /// `Δslcs_sched_mode_total{mode}` over the timed phase, every mode
    /// the server exports: which grid schedule the server resolved.
    pub fn sched_counts(&self) -> Vec<(String, f64)> {
        let before = self.before.1.by_label("slcs_sched_mode_total", "mode");
        self.after
            .1
            .by_label("slcs_sched_mode_total", "mode")
            .into_iter()
            .map(|(mode, v)| {
                let was = before.iter().find(|(m, _)| *m == mode).map_or(0.0, |(_, b)| *b);
                (mode, v - was)
            })
            .collect()
    }

    /// The workload's self-check: an empty list when the timed phase
    /// exercised the layer the workload was chosen for.
    pub fn self_check(&self, wl: &Workload) -> Vec<String> {
        let mut problems = Vec::new();
        let (hits, misses) = (self.stat("hits"), self.stat("misses"));
        let routed = |r: &str| self.stat_item("dispatch", r);
        let all_routed: f64 =
            REASONS.iter().map(|r| routed(r)).sum::<f64>() + routed("empty_input");
        match wl.name {
            "kernel_build" => {
                if hits != 0.0 {
                    problems.push(format!("cache.hit_ratio must be 0, saw {hits} hits"));
                }
                let grid = routed("grid_par") + routed("grid_seq");
                if grid == 0.0 || grid != all_routed {
                    problems
                        .push(format!("{grid} of {all_routed} requests routed grid_par/grid_seq"));
                }
            }
            "hot_query" => {
                if misses != 0.0 || hits == 0.0 {
                    problems.push(format!(
                        "cache.hit_ratio must be 1, saw {hits} hits {misses} misses"
                    ));
                }
            }
            _ => {
                let similar = routed("edit_similar");
                let global = load::replied_global_edits(wl, &self.phase) as f64;
                if similar == 0.0 || similar != global {
                    problems
                        .push(format!("{similar} of {global} global EDITs routed edit_similar"));
                }
            }
        }
        problems
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    )
}
