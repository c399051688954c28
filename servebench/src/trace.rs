//! The replay's span recorder. Spans live in the benchmark's own memory
//! (never in the program's trace buffer) and are written out at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: usize,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; when off, runs the same closures untimed, so
/// an untraced replay executes the same calls as a traced one.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id for [`Tracer::close`] and children.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: usize) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, Some(parent), req);
        let out = f();
        self.close(id);
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: its duration minus the part its children
/// cover (children of one span run one after another, so their
/// durations add).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    spans.iter().zip(&child_ns).map(|(s, &c)| s.ns().saturating_sub(c)).collect()
}

/// Total self time per layer, in nanoseconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// `(calls, total ns)` of the spans named `name`.
pub fn totals(spans: &[Span], name: &str) -> (usize, u64) {
    spans.iter().filter(|s| s.name == name).fold((0, 0), |(n, t), s| (n + 1, t + s.ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("cache.get", 10, 20, Some(0)),
            span("semilocal.comb", 20, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 60]);
        let layers = self_by_layer(&spans);
        assert_eq!(layers["request"], 30);
        assert_eq!(layers["semilocal"], 60);
        assert_eq!(totals(&spans, "cache.get"), (1, 10));
    }

    #[test]
    fn an_off_tracer_records_nothing_but_runs_the_work() {
        let mut t = Tracer::new(false);
        let root = t.open("request", None, 0);
        assert_eq!(t.span("cache.get", root, 0, || 7), 7);
        t.close(root);
        assert!(t.spans.is_empty());
    }
}
