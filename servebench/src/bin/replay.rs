//! `replay --workload <name> --seed <n> [--tiny] [--out-dir DIR]`
//!
//! Replays a workload's request sequence (warm-up, then the first
//! requests of the timed cycle) in-process:
//!
//! 1. through the layer functions in the engine's dispatch order, each
//!    on a private `KernelCache` of the engine's default capacity,
//!    twice side by side: untraced, and with a span around every layer
//!    call. The two alternate per request (and alternate which goes
//!    first), so drift on the machine cancels out of the tracing
//!    overhead;
//! 2. through `server::respond` on an `Engine` with default config,
//!    with a span around each call.
//!
//! Prints `metric <name> <value>` lines for the per-layer metrics and
//! writes the traced spans as JSON lines under `--out-dir`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use servebench::gen::{generate, Entry, Op, Workload, WORKLOADS};
use servebench::ratio;
use servebench::trace::{self_by_layer, totals, Span, Tracer};
use slcs_engine::cache::{CachedIndex, PlainEntry};
use slcs_engine::{
    decide, AlgoChoice, CacheKey, Engine, EngineConfig, IndexKind, KernelCache, Operation,
    ServerConfig,
};

/// The same allocator `slcs` installs, so allocation costs match.
#[global_allocator]
static ALLOC: slcs_alloc::InstrumentedAlloc = slcs_alloc::InstrumentedAlloc;

/// Serves requests by calling the layers the engine would, in its
/// order, with spans around each call.
struct Layers {
    cache: KernelCache,
    /// Whether the cached plain entry for a key has built its query
    /// index (reset on every insert, since an insert is a new entry).
    indexed: HashMap<CacheKey, bool>,
    threads: usize,
    tr: Tracer,
}

impl Layers {
    fn new(traced: bool) -> Layers {
        Layers {
            cache: KernelCache::new(EngineConfig::default().cache_capacity),
            indexed: HashMap::new(),
            threads: rayon::current_num_threads(),
            tr: Tracer::new(traced),
        }
    }

    /// Serves one request; returns a digest of the answer.
    fn serve(&mut self, wl: &Workload, e: &Entry, req: usize) -> u64 {
        let p = &wl.pairs[e.pair];
        let (a, b) = (&p.a[..], &p.b[..]);
        let root = self.tr.open("request", None, req);
        let digest = match e.op {
            Op::Lcs => match self.get(IndexKind::Plain, a, b, root, req) {
                (_, Some(CachedIndex::Plain(entry))) => {
                    self.tr.span("semilocal.lcs_scan", root, req, || entry.kernel().lcs()) as u64
                }
                (key, _) => {
                    let d = self.decide(&Operation::Lcs, a, b, root, req);
                    if d == AlgoChoice::BitParallel {
                        self.tr.span("bitparallel.lcs", root, req, || {
                            slcs_bitpar::bit_lcs_alphabet(a, b)
                        }) as u64
                    } else {
                        let entry = self.build(key, a, b, d, root, req);
                        self.tr.span("semilocal.lcs_scan", root, req, || entry.kernel().lcs())
                            as u64
                    }
                }
            },
            Op::Windows { w } => {
                let (key, entry) = match self.get(IndexKind::Plain, a, b, root, req) {
                    (key, Some(CachedIndex::Plain(entry))) => (key, entry),
                    (key, _) => {
                        let d = self.decide(&Operation::Windows { w }, a, b, root, req);
                        (key, self.build(key, a, b, d, root, req))
                    }
                };
                if !self.indexed.insert(key, true).unwrap_or(false) {
                    self.tr.span("semilocal.index", root, req, || {
                        entry.scores();
                    });
                }
                let scores = self
                    .tr
                    .span("semilocal.windows", root, req, || entry.scores().windows_linear(w));
                scores.iter().enumerate().fold(0u64, |h, (i, &s)| {
                    h.wrapping_mul(31).wrapping_add((i as u64) << 32 | s as u64)
                })
            }
            Op::Edit => match self.get(IndexKind::Edit, a, b, root, req) {
                (_, Some(CachedIndex::Edit(index))) => index.global() as u64,
                (key, _) => {
                    let d = self.decide(&Operation::Edit { w: None }, a, b, root, req);
                    if d == AlgoChoice::OutputSensitive {
                        let threads = self.threads;
                        self.tr.span("osed.edit", root, req, || {
                            if threads > 1 {
                                slcs_osed::par_edit_distance(a, b)
                            } else {
                                slcs_osed::edit_distance(a, b)
                            }
                        }) as u64
                    } else {
                        let index = self.tr.span("semilocal.edit_index", root, req, || {
                            Arc::new(slcs_semilocal::EditDistances::new(a, b))
                        });
                        let global = index.global();
                        let cache = &self.cache;
                        self.tr.span("cache.insert", root, req, || {
                            cache.insert(key, CachedIndex::Edit(index))
                        });
                        global as u64
                    }
                }
            },
            Op::EditBounded { k } => match self.get(IndexKind::Edit, a, b, root, req) {
                (_, Some(CachedIndex::Edit(index))) => index.global() as u64,
                _ => self.tr.span("osed.bounded", root, req, || {
                    slcs_osed::edit_distance_bounded(a, b, k).map_or(u64::MAX, |d| d as u64)
                }),
            },
        };
        self.tr.close(root);
        digest
    }

    fn get(
        &mut self,
        kind: IndexKind,
        a: &[u8],
        b: &[u8],
        root: usize,
        req: usize,
    ) -> (CacheKey, Option<CachedIndex>) {
        let cache = &self.cache;
        self.tr.span("cache.get", root, req, || {
            let key = CacheKey::new(kind, a, b);
            (key, cache.get(&key))
        })
    }

    fn decide(
        &mut self,
        op: &Operation,
        a: &[u8],
        b: &[u8],
        root: usize,
        req: usize,
    ) -> AlgoChoice {
        let threads = self.threads;
        self.tr.span("dispatch.decide", root, req, || decide(op, a, b, threads)).algo
    }

    /// Combs with the comb `decide` and `auto_plan` name, and caches it.
    fn build(
        &mut self,
        key: CacheKey,
        a: &[u8],
        b: &[u8],
        algo: AlgoChoice,
        root: usize,
        req: usize,
    ) -> Arc<PlainEntry> {
        let kernel = self.tr.span("semilocal.comb", root, req, || match algo {
            AlgoChoice::GridHybridCombing { tasks } => {
                let (mode, grain) = slcs_semilocal::auto_plan(a.len(), b.len(), tasks);
                slcs_semilocal::par_antidiag_combing_branchless_sched(a, b, mode, grain)
            }
            _ => slcs_semilocal::iterative_combing(a, b),
        });
        let entry = Arc::new(PlainEntry::new(kernel));
        let cache = &self.cache;
        self.tr.span("cache.insert", root, req, || {
            cache.insert(key, CachedIndex::Plain(entry.clone()))
        });
        self.indexed.insert(key, false);
        entry
    }
}

/// Pass 1: the untraced and traced layer replays, interleaved per
/// request. Returns the traced replay's spans and the seconds each
/// replay took in total.
fn replay_layers(wl: &Workload, seq: &[usize]) -> (Tracer, f64, f64) {
    let (mut plain, mut traced) = (Layers::new(false), Layers::new(true));
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for (req, &i) in seq.iter().enumerate() {
        let e = &wl.entries[i];
        let timed = |layers: &mut Layers| {
            let started = Instant::now();
            let digest = layers.serve(wl, e, req);
            (digest, started.elapsed().as_secs_f64())
        };
        let ((p, ps), (t, ts)) = if req % 2 == 0 {
            let p = timed(&mut plain);
            (p, timed(&mut traced))
        } else {
            let t = timed(&mut traced);
            (timed(&mut plain), t)
        };
        assert_eq!(p, t, "traced and untraced replays disagree on request {req}");
        plain_s += ps;
        traced_s += ts;
    }
    (traced.tr, plain_s, traced_s)
}

/// Pass 2: `server::respond` per request. Returns the spans and, per
/// request, the engine's queue-wait plus service time in µs.
fn replay_respond(wl: &Workload, seq: &[usize]) -> (Tracer, Vec<f64>) {
    let engine = Engine::new(EngineConfig::default());
    let config = ServerConfig::default();
    let mut tr = Tracer::new(true);
    let mut in_engine = Vec::with_capacity(seq.len());
    let mut prev = engine.stats();
    for (req, &i) in seq.iter().enumerate() {
        let line = wl.line(&wl.entries[i]);
        let root = tr.open("server.respond", None, req);
        let reply = slcs_engine::server::respond(&line, &engine, &config);
        tr.close(root);
        assert!(reply.starts_with("OK"), "respond answered {:?}", &reply[..reply.len().min(80)]);
        let now = engine.stats();
        in_engine.push(
            (now.wait_micros.sum + now.service_micros.sum
                - prev.wait_micros.sum
                - prev.service_micros.sum) as f64,
        );
        prev = now;
    }
    (tr, in_engine)
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut tiny, mut out_dir) =
        (String::new(), 0u64, false, PathBuf::from("servebench/out"));
    while let Some(flag) = raw.next() {
        match flag.as_str() {
            "--tiny" => tiny = true,
            "--workload" => workload = raw.next().unwrap_or_default(),
            "--seed" => seed = raw.next().and_then(|v| v.parse().ok()).expect("--seed <n>"),
            "--out-dir" => out_dir = raw.next().expect("--out-dir DIR").into(),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(WORKLOADS.contains(&workload.as_str()), "--workload must be one of {WORKLOADS:?}");
    let wl = generate(&workload, seed, tiny).expect("known workload");
    let seq = wl.replay_sequence();

    let (traced, plain_s, traced_s) = replay_layers(&wl, &seq);
    let (respond, in_engine) = replay_respond(&wl, &seq);

    std::fs::create_dir_all(&out_dir).expect("create --out-dir");
    let path = out_dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create span file"));
    traced.write_jsonl(&mut file).expect("write spans");
    respond.write_jsonl(&mut file).expect("write spans");
    std::io::Write::flush(&mut file).expect("write spans");

    let requests = seq.len() as f64;
    let spans = &traced.spans;
    let mean_us = |name: &str| {
        let (n, ns) = totals(spans, name);
        ratio(ns as f64 / 1e3, n as f64)
    };
    // ns per grid cell of the spans named `name`.
    let per_cell = |name: &str| {
        let (ns, cells) =
            spans.iter().filter(|s| s.name == name).fold((0u64, 0usize), |(t, c), s| {
                let p = &wl.pairs[wl.entries[seq[s.req]].pair];
                (t + s.ns(), c + p.a.len() * p.b.len())
            });
        ratio(ns as f64, cells as f64)
    };
    let layers = self_by_layer(spans);
    let self_us = |layer: &str| ratio(*layers.get(layer).unwrap_or(&0) as f64 / 1e3, requests);
    let roots: u64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::ns).sum();
    let respond_us: Vec<f64> = respond.spans.iter().map(|s| s.ns() as f64 / 1e3).collect();
    let respond_mean = ratio(respond_us.iter().sum(), requests);
    let metrics = [
        ("server.respond_us", respond_mean),
        ("server.self_us", respond_mean - ratio(in_engine.iter().sum(), requests)),
        ("dispatch.decide_us", mean_us("dispatch.decide")),
        ("dispatch.self_us", self_us("dispatch")),
        ("cache.get_us", mean_us("cache.get")),
        ("cache.insert_us", mean_us("cache.insert")),
        ("cache.self_us", self_us("cache")),
        ("semilocal.comb_ns_per_cell", per_cell("semilocal.comb")),
        ("semilocal.index_ms", mean_us("semilocal.index") / 1e3),
        ("semilocal.windows_us", mean_us("semilocal.windows")),
        ("semilocal.lcs_scan_us", mean_us("semilocal.lcs_scan")),
        ("semilocal.self_us", self_us("semilocal")),
        ("bitparallel.lcs_ns_per_cell", per_cell("bitparallel.lcs")),
        ("bitparallel.self_us", self_us("bitparallel")),
        ("osed.edit_ms", mean_us("osed.edit") / 1e3),
        ("osed.bounded_ms", mean_us("osed.bounded") / 1e3),
        ("osed.self_us", self_us("osed")),
        ("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s),
        (
            "trace.unattributed_share",
            ratio(*layers.get("request").unwrap_or(&0) as f64, roots as f64),
        ),
    ];
    println!(
        "# replay {} requests ({} warm-up): untraced {plain_s:.3}s traced {traced_s:.3}s, spans in {}",
        seq.len(),
        wl.warmup.len(),
        path.display()
    );
    for (name, value) in metrics {
        println!("metric {name} {value}");
    }
}
