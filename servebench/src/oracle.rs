//! Expected replies, computed before timing by routes independent of
//! the server's: row-major DP for LCS, the iterative comb plus
//! tree-query windows for WINDOWS, and a banded DP for EDIT.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use slcs_baselines::prefix_rowmajor;
use slcs_semilocal::{iterative_combing, SemiLocalScores};

use crate::gen::{Op, Workload};

/// What a correct reply looks like. LCS replies end in the route and
/// cache tokens (`OK <score> <algo> <cache>`), which describe how the
/// answer was found rather than the answer, so only the score prefix
/// is compared there; every other reply must match exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub text: String,
    pub prefix_only: bool,
}

impl Expected {
    pub fn matches(&self, reply: &str) -> bool {
        if self.prefix_only {
            reply.starts_with(&self.text)
        } else {
            reply == self.text
        }
    }
}

/// Unit-cost edit distance restricted to the diagonal band
/// `|i − j| ≤ band`: O(n · band) time. Exact whenever the true
/// distance is at most `band`, because any alignment of cost `d`
/// stays within `d` of the main diagonal.
pub fn banded_edit_distance(a: &[u8], b: &[u8], band: usize) -> usize {
    let (n, m) = (a.len(), b.len());
    assert!(n.abs_diff(m) <= band, "band {band} narrower than the length gap");
    let width = 2 * band + 1;
    let inf = usize::MAX / 2;
    // Column `c` of row `i` holds D(i, i + c − band).
    let mut prev = vec![inf; width];
    let mut cur = vec![inf; width];
    for (c, cell) in prev.iter_mut().enumerate().skip(band) {
        let j = c - band;
        if j <= m {
            *cell = j;
        }
    }
    for i in 1..=n {
        for c in 0..width {
            let j = (i + c) as isize - band as isize;
            if j < 0 || j as usize > m {
                cur[c] = inf;
                continue;
            }
            let j = j as usize;
            let mut best = if j == 0 { i } else { inf };
            // Diagonal predecessor (i−1, j−1) sits in the same column.
            if j > 0 {
                best = best.min(prev[c] + usize::from(a[i - 1] != b[j - 1]));
            }
            // Up (i−1, j) is one column right in the previous row.
            if c + 1 < width {
                best = best.min(prev[c + 1] + 1);
            }
            // Left (i, j−1) is one column left in this row.
            if c > 0 && j > 0 {
                best = best.min(cur[c - 1] + 1);
            }
            cur[c] = best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m + band - n]
}

/// Window scores by tree queries (`SemiLocalScores::windows`), then the
/// server's reply: best start (lowest index among maxima), its score,
/// and every score.
fn windows_reply(scores: &SemiLocalScores, w: usize) -> String {
    let all = scores.windows(w);
    let (best_i, best_s) =
        all.iter().enumerate().fold(
            (0, 0),
            |(bi, bs), (i, &s)| {
                if s > bs {
                    (i, s)
                } else {
                    (bi, bs)
                }
            },
        );
    let list = all.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",");
    format!("OK {best_i} {best_s} {list}")
}

/// Per-pair oracle artifacts: each is built only if some entry needs it.
#[derive(Default)]
struct PairFacts {
    scores: Option<SemiLocalScores>,
    lcs: Option<usize>,
    edit: Option<usize>,
}

/// Expected replies for every entry of `wl`, index-aligned with
/// `wl.entries`. The per-pair work is shared across `threads` threads.
pub fn expected_replies(wl: &Workload, threads: usize) -> Vec<Expected> {
    let mut needs = vec![[false; 3]; wl.pairs.len()];
    for e in &wl.entries {
        let slot = match e.op {
            Op::Windows { .. } => 0,
            Op::Lcs => 1,
            Op::Edit | Op::EditBounded { .. } => 2,
        };
        needs[e.pair][slot] = true;
    }
    let facts: Vec<Mutex<PairFacts>> =
        wl.pairs.iter().map(|_| Mutex::new(PairFacts::default())).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                // ORDERING: Relaxed — a work counter; results travel through the mutexes.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(need) = needs.get(i) else { break };
                let p = &wl.pairs[i];
                let mut f = PairFacts::default();
                if need[0] {
                    f.scores = Some(iterative_combing(&p.a, &p.b).index());
                }
                if need[1] {
                    f.lcs = Some(prefix_rowmajor(&p.a, &p.b));
                }
                if need[2] {
                    f.edit = Some(banded_edit_distance(&p.a, &p.b, p.edits));
                }
                *facts[i].lock().expect("oracle worker panicked") = f;
            });
        }
    });
    let facts: Vec<PairFacts> =
        facts.into_iter().map(|m| m.into_inner().expect("oracle worker panicked")).collect();
    wl.entries
        .iter()
        .map(|e| {
            let f = &facts[e.pair];
            let (text, prefix_only) = match e.op {
                Op::Lcs => (format!("OK {} ", f.lcs.expect("lcs computed")), true),
                Op::Windows { w } => (windows_reply(f.scores.as_ref().expect("indexed"), w), false),
                Op::Edit => (format!("OK {}", f.edit.expect("edit computed")), false),
                Op::EditBounded { k } => {
                    let d = f.edit.expect("edit computed");
                    (if d <= k { format!("OK {d}") } else { format!("OK gt {k}") }, false)
                }
            };
            Expected { text, prefix_only }
        })
        .collect()
}
