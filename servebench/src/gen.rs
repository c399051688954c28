//! Seeded workload generation.
//!
//! The benchmark owns its random source (SplitMix64) instead of using
//! the suite's vendored `rand`, so the bytes sent to the server depend
//! only on the seed and this file, never on the program under test.

use std::sync::Arc;

/// The three workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["kernel_build", "similar_edit", "hot_query"];

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `values` in a seeded random order (Fisher–Yates).
    pub fn shuffled<T>(&mut self, mut values: Vec<T>) -> Vec<T> {
        for i in (1..values.len()).rev() {
            values.swap(i, self.range(0, i));
        }
        values
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// `count` sizes evenly spaced over `lo..=hi`, in a seeded order.
/// Workloads draw sizes from such ladders rather than independently, so
/// every seed asks for the same total work and seeds differ only in
/// content and order.
pub fn ladder(rng: &mut Rng, lo: usize, hi: usize, count: usize) -> Vec<usize> {
    let steps = (count.max(2) - 1) as f64;
    rng.shuffled((0..count).map(|k| lo + ((hi - lo) as f64 * k as f64 / steps) as usize).collect())
}

/// The σ = 4 alphabet.
pub const DNA: &[u8] = b"ACGT";

/// An 80-symbol printable alphabet (`!` through `p`): no whitespace,
/// so every string is one protocol token, and wider than the
/// bit-parallel route's 64-symbol limit.
pub fn printable80() -> Vec<u8> {
    (b'!'..b'!' + 80).collect()
}

pub fn random_string(rng: &mut Rng, len: usize, alphabet: &[u8]) -> Vec<u8> {
    (0..len).map(|_| alphabet[rng.range(0, alphabet.len() - 1)]).collect()
}

/// A copy of `base` with point mutations at total rate `p` (80%
/// substitutions, 10% insertions, 10% deletions). Returns the copy and
/// the number of mutations applied, an upper bound on the edit distance.
pub fn mutate(rng: &mut Rng, base: &[u8], p: f64, alphabet: &[u8]) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(base.len() + base.len() / 16);
    let mut edits = 0;
    for &c in base {
        if rng.chance(p * 0.1) {
            out.push(alphabet[rng.range(0, alphabet.len() - 1)]);
            edits += 1;
        }
        if rng.chance(p * 0.1) {
            edits += 1;
            continue;
        }
        if rng.chance(p * 0.8) {
            let pos = alphabet.iter().position(|&s| s == c).expect("base symbol in alphabet");
            out.push(alphabet[(pos + rng.range(1, alphabet.len() - 1)) % alphabet.len()]);
            edits += 1;
        } else {
            out.push(c);
        }
    }
    (out, edits)
}

/// A pattern/text pair. `edits` is the mutation count for generated
/// similar pairs (it bounds the edit distance), else 0.
pub struct Pair {
    pub a: Arc<[u8]>,
    pub b: Arc<[u8]>,
    pub edits: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Lcs,
    Windows { w: usize },
    Edit,
    EditBounded { k: usize },
}

impl Op {
    pub fn token(self) -> &'static str {
        match self {
            Op::Lcs => "lcs",
            Op::Windows { .. } => "windows",
            Op::Edit => "edit",
            Op::EditBounded { .. } => "edit_bounded",
        }
    }
}

/// One request: an operation on one of the workload's pairs.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    pub pair: usize,
    pub op: Op,
}

/// A generated workload: pairs, requests over them, the warm-up list
/// and the cycle the timed phase walks (both index `entries`).
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub pairs: Vec<Pair>,
    pub entries: Vec<Entry>,
    pub warmup: Vec<usize>,
    pub cycle: Vec<usize>,
    /// Requests of the timed cycle the in-process replay runs after
    /// the warm-up.
    pub replay_requests: usize,
}

impl Workload {
    /// The request line (no newline) for entry `e`.
    pub fn line(&self, e: &Entry) -> String {
        let p = &self.pairs[e.pair];
        let (a, b) = (ascii(&p.a), ascii(&p.b));
        match e.op {
            Op::Lcs => format!("LCS {a} {b}"),
            Op::Windows { w } => format!("WINDOWS {w} {a} {b}"),
            Op::Edit => format!("EDIT {a} {b}"),
            Op::EditBounded { k } => format!("EDIT {a} {b} k={k}"),
        }
    }

    /// Every entry's request line, index-aligned with `entries`.
    pub fn lines(&self) -> Vec<String> {
        self.entries.iter().map(|e| self.line(e)).collect()
    }

    /// The sequence the replay runs: warm-up, then the first
    /// `replay_requests` timed requests.
    pub fn replay_sequence(&self) -> Vec<usize> {
        let timed = (0..self.replay_requests).map(|i| self.cycle[i % self.cycle.len()]);
        self.warmup.iter().copied().chain(timed).collect()
    }
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("generated strings are ASCII")
}

fn pair(a: Vec<u8>, b: Vec<u8>, edits: usize) -> Pair {
    Pair { a: a.into(), b: b.into(), edits }
}

/// Rotates `0..len` so the cycle starts at `start`.
fn rotation(start: usize, len: usize) -> Vec<usize> {
    (start..len).chain(0..start).collect()
}

/// Builds workload `name` for `seed`; `None` for an unknown name.
/// `tiny` keeps every route but shrinks the inputs, for tests.
pub fn generate(name: &str, seed: u64, tiny: bool) -> Option<Workload> {
    // Distinct streams per workload, so one seed never aliases another
    // workload's inputs.
    let salt = WORKLOADS.iter().position(|&w| w == name)? as u64 + 1;
    let mut rng = Rng::new(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
    Some(match name {
        "kernel_build" => kernel_build(&mut rng, seed, tiny),
        "similar_edit" => similar_edit(&mut rng, seed, tiny),
        _ => hot_query(&mut rng, seed, tiny),
    })
}

/// Cold kernel builds: WINDOWS (w = n/2) on σ=4 pairs alternating with
/// LCS on σ=80 pairs, cycling through more distinct pairs than the
/// engine's 128-entry cache holds, so every timed request misses,
/// combs, inserts and evicts. The first 128 requests fill the cache
/// during warm-up.
fn kernel_build(rng: &mut Rng, seed: u64, tiny: bool) -> Workload {
    const POOL: usize = 320;
    const FILL: usize = 128;
    let (lo, hi) = if tiny { (96, 160) } else { (2048, 4096) };
    let wide = printable80();
    // Each op gets its own pattern- and text-length ladders.
    let half = POOL / 2;
    let (wm, wn) = (ladder(rng, lo, hi, half), ladder(rng, lo, hi, half));
    let (lm, ln) = (ladder(rng, lo, hi, half), ladder(rng, lo, hi, half));
    let mut pairs = Vec::with_capacity(POOL);
    let mut entries = Vec::with_capacity(POOL);
    for j in 0..POOL {
        let (alphabet, m, n, op) = if j % 2 == 0 {
            (DNA, wm[j / 2], wn[j / 2], Op::Windows { w: wn[j / 2] / 2 })
        } else {
            (&wide[..], lm[j / 2], ln[j / 2], Op::Lcs)
        };
        pairs.push(pair(random_string(rng, m, alphabet), random_string(rng, n, alphabet), 0));
        entries.push(Entry { pair: j, op });
    }
    Workload {
        name: "kernel_build",
        seed,
        pairs,
        entries,
        warmup: (0..FILL).collect(),
        cycle: rotation(FILL, POOL),
        replay_requests: if tiny { 32 } else { 96 },
    }
}

/// Global EDIT on σ=4 pairs at 99% and 99.9% similarity; every fourth
/// request is `EDIT … k=<K>` with K half the mutation count, below the
/// true distance, so the bounded BFS exits early.
fn similar_edit(rng: &mut Rng, seed: u64, tiny: bool) -> Workload {
    let (count, lo, hi) = if tiny { (8, 256, 512) } else { (32, 16 * 1024, 64 * 1024) };
    const WARM: usize = 4;
    // Four request classes (99% global, 99.9% global, 99% global,
    // 99.9% bounded), each over the same length ladder.
    let lengths: Vec<Vec<usize>> = (0..4).map(|_| ladder(rng, lo, hi, count / 4)).collect();
    let mut pairs = Vec::with_capacity(count);
    let mut entries = Vec::with_capacity(count);
    for j in 0..count {
        let p = if j % 2 == 0 { 0.01 } else { 0.001 };
        let base = random_string(rng, lengths[j % 4][j / 4], DNA);
        let (copy, edits) = mutate(rng, &base, p, DNA);
        let op = if j % 4 == 3 { Op::EditBounded { k: edits / 2 } } else { Op::Edit };
        pairs.push(pair(base, copy, edits));
        entries.push(Entry { pair: j, op });
    }
    Workload {
        name: "similar_edit",
        seed,
        pairs,
        entries,
        warmup: (0..WARM).collect(),
        cycle: rotation(WARM, count),
        replay_requests: if tiny { 8 } else { 64 },
    }
}

/// Cache reads: a 32-pair σ=4 working set whose kernels and indexes are
/// built during warm-up, then a mix of half WINDOWS hits with varied w,
/// a quarter LCS hits, and a quarter LCS on fresh σ=4 pairs of half the
/// length, which the bit-parallel route answers.
fn hot_query(rng: &mut Rng, seed: u64, tiny: bool) -> Workload {
    let (hot, fresh, len, pool) = if tiny { (8, 8, 128, 64) } else { (32, 64, 2048, 512) };
    let mut pairs = Vec::with_capacity(hot + fresh);
    for _ in 0..hot {
        pairs.push(pair(random_string(rng, len, DNA), random_string(rng, len, DNA), 0));
    }
    for _ in 0..fresh {
        let half = len / 2;
        pairs.push(pair(random_string(rng, half, DNA), random_string(rng, half, DNA), 0));
    }
    let mut entries: Vec<Entry> =
        (0..hot).map(|pair| Entry { pair, op: Op::Windows { w: len / 2 } }).collect();
    let widths = ladder(rng, len / 32, len, pool / 2);
    for j in 0..pool {
        let entry = match j % 4 {
            0 | 1 => Entry {
                pair: rng.range(0, hot - 1),
                op: Op::Windows { w: widths[j / 4 * 2 + j % 4] },
            },
            2 => Entry { pair: rng.range(0, hot - 1), op: Op::Lcs },
            _ => Entry { pair: hot + rng.range(0, fresh - 1), op: Op::Lcs },
        };
        entries.push(entry);
    }
    Workload {
        name: "hot_query",
        seed,
        pairs,
        entries,
        warmup: (0..hot).collect(),
        cycle: (hot..hot + pool).collect(),
        replay_requests: if tiny { 64 } else { 512 },
    }
}
